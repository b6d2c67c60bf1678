"""Persistent store for reusable solution elements.

Insights extracted from finished models (blocks, variants,
requirements) become flat-file entries that later models reference via
`kbref`. The store is one record per line and diff-friendly: a
distributed committee merges it with ordinary text merges.

Store line format (`kb.imogkb`):

    entry <id> name="..." type=<token> year=<nat> prop.<key>=<value>[unit]... provenance="model@timestamp"

Lines starting with `#` are comments; saving canonicalizes (id-sorted,
comments dropped) and replaces the file atomically.
"""

from __future__ import annotations

import os
import re
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from .diagnostics import Diagnostic, make, sort_diagnostics
from .errors import KindNotExtractableError, StoreCorruptError, UnknownElementError
from .model import ElementKind, Model, Property, RelationKind
from .printer import escape_string, format_number

MIN_YEAR = 1900

_EXTRACTABLE = frozenset(
    {ElementKind.BLOCK, ElementKind.VARIANT, ElementKind.REQUIREMENT}
)

_TOKEN_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_NUMBER_RE = re.compile(r"^(-?\d+(?:\.\d+)?)([A-Za-z_][A-Za-z0-9_]*)?$")

# A store line: `entry <id>`, then `key=value` fields. A value is quoted
# (backslash escapes, no raw `"`) or bare (no whitespace, no leading `"`).
_HEAD = re.compile(r"([^\s=]*) *([^\s=]*) *")
_KEY = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")
_FIELD = re.compile(rf'({_KEY.pattern})=(?:"([^"\\]*(?:\\.[^"\\]*)*)"|([^\s"]\S*)) *')
_ESCAPE = re.compile(r"\\(.)")
_ESCAPED = {"n": "\n", "t": "\t"}
_BOOLS = {"true": True, "false": False}


def _unescape(m: re.Match[str]) -> str:
    return _ESCAPED.get(m[1], m[1])


@dataclass(frozen=True)
class KnowledgeEntry:
    id: str
    name: str
    type: str
    year_available: int
    properties: tuple[Property, ...] = ()
    provenance: tuple[str, str] = ("", "")  # (model name, timestamp)


@dataclass(frozen=True)
class ExtractResult:
    entries: list[KnowledgeEntry]
    diagnostics: list[Diagnostic] = field(default_factory=list)


def current_timestamp() -> str:
    """UTC timestamp; SOURCE_DATE_EPOCH pins it for reproducible runs."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    t = int(epoch) if epoch else int(time.time())
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(t))


def extract(
    model: Model, ids: list[str], *, timestamp: str | None = None
) -> ExtractResult:
    """Convert blocks, variants, or requirements into store entries.

    The entry type comes from a `stereotype` property when present, else
    from the element kind; the availability year from a `year` property.
    A missing or pre-1900 year is flagged (W-401) and replaced by the
    extraction year.
    """
    ts = timestamp or current_timestamp()
    fallback_year = int(ts[:4])
    entries: list[KnowledgeEntry] = []
    diags: list[Diagnostic] = []
    for element_id in ids:
        element = model.elements.get(element_id)
        if element is None:
            raise UnknownElementError(element_id)
        if element.kind not in _EXTRACTABLE:
            raise KindNotExtractableError(element_id, element.kind.value)
        stereotype = element.property_value("stereotype")
        entry_type = (
            stereotype if isinstance(stereotype, str) else element.kind.value
        )
        year = element.property_value("year")
        if not isinstance(year, int) or isinstance(year, bool) or year < MIN_YEAR:
            diags.append(
                make(
                    "W-401",
                    f"{element_id!r} has no usable year property, "
                    f"assuming {fallback_year}",
                    [element_id],
                    model.span_of(element_id),
                )
            )
            year = fallback_year
        props = tuple(
            p for p in element.properties if p.key not in ("year", "stereotype")
        )
        entries.append(
            KnowledgeEntry(
                id=element.id,
                name=element.name,
                type=entry_type,
                year_available=year,
                properties=props,
                provenance=(model.name, ts),
            )
        )
    return ExtractResult(entries, sort_diagnostics(diags))


# --- store file ----------------------------------------------------------------


def _format_value(prop: Property) -> str:
    v = prop.value
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, float)):
        return format_number(v) + (prop.unit or "")
    return f'"{escape_string(v)}"'


def format_entry(entry: KnowledgeEntry) -> str:
    fields = [
        "entry",
        entry.id,
        f'name="{escape_string(entry.name)}"',
        f"type={entry.type}",
        f"year={entry.year_available}",
    ]
    for p in entry.properties:
        fields.append(f"prop.{p.key}={_format_value(p)}")
    model_name, ts = entry.provenance
    fields.append(f'provenance="{escape_string(model_name)}@{ts}"')
    return " ".join(fields)


def _field_error(line: str, pos: int) -> str:
    """Why `_FIELD` found no `key=value` field at `pos`."""
    m = _KEY.match(line, pos)
    if m is None:
        return "expected a key=value field"
    key, end = m[0], m.end()
    if line[end : end + 1] != "=":
        return f"field {key!r} has no value"
    if line[end + 1 : end + 2] == '"':
        return f"unterminated {key}"
    return f"missing value for {key}"


def _parse_line(path: str, line_no: int, line: str) -> KnowledgeEntry:
    """One stripped store line; a repeated scalar field keeps its last value."""

    def fail(reason: str) -> StoreCorruptError:
        return StoreCorruptError(path, line_no, reason)

    m = _HEAD.match(line)
    head, entry_id = m.groups()
    if head != "entry":
        raise fail(f"expected 'entry', found {head!r}" if head else "expected 'entry'")
    if not entry_id:
        raise fail("expected entry id")
    if not _TOKEN_RE.match(entry_id):
        raise fail(f"bad entry id {entry_id!r}")
    name = entry_type = year = None
    provenance = ("", "")
    props: list[Property] = []
    pos, end = m.end(), len(line)
    while pos < end:
        m = _FIELD.match(line, pos)
        if m is None:
            raise fail(_field_error(line, pos))
        key, quoted, value = m.groups()
        pos = m.end()
        if quoted is not None:
            value = _ESCAPE.sub(_unescape, quoted) if "\\" in quoted else quoted
        if key == "name":
            if quoted is None:
                raise fail("name must be quoted")
            name = value
        elif key == "type":
            if not _TOKEN_RE.match(value):
                raise fail(f"bad type token {value!r}")
            entry_type = value
        elif key == "year":
            if not (value.isascii() and value.isdigit()):
                raise fail(f"bad year {value!r}")
            year = int(value)
        elif key == "provenance":
            if quoted is None:
                raise fail("provenance must be quoted")
            model_name, sep, ts = value.rpartition("@")
            if not sep:
                raise fail("provenance must be model@timestamp")
            provenance = (model_name, ts)
        elif key.startswith("prop."):
            prop_key = key[5:]
            if not _TOKEN_RE.match(prop_key):
                raise fail(f"bad property key {prop_key!r}")
            unit = None
            if quoted is None and value in _BOOLS:
                value = _BOOLS[value]
            elif quoted is None:
                number = _NUMBER_RE.match(value)
                if number is None:
                    raise fail(f"bad value {value!r} for property {prop_key!r}")
                digits, unit = number.groups()
                value = float(digits) if "." in digits else int(digits)
            props.append(Property(prop_key, value, unit))
        else:
            raise fail(f"unknown field {key!r}")
    if name is None or entry_type is None or year is None:
        raise fail("entry needs name, type and year")
    if year < MIN_YEAR:
        raise fail(f"year {year} is before {MIN_YEAR}")
    return KnowledgeEntry(entry_id, name, entry_type, year, tuple(props), provenance)


def load(store: str | Path) -> list[KnowledgeEntry]:
    """All entries, id-sorted. Raises StoreCorruptError naming the bad line.

    The file is decoded once (text-mode line breaks); bytes that are not
    UTF-8 are reported on the line that holds the first of them.
    """
    path = Path(store)
    name = str(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:  # exc.object holds the whole file
        line_no = exc.object.count(b"\n", 0, exc.start) + 1
        raise StoreCorruptError(name, line_no, f"not UTF-8 text: {exc.reason}") from None
    entries: dict[str, KnowledgeEntry] = {}
    for line_no, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line[0] == "#":
            continue
        entry = _parse_line(name, line_no, line)
        if entry.id in entries:
            raise StoreCorruptError(name, line_no, f"duplicate entry id {entry.id!r}")
        entries[entry.id] = entry
    return [entries[k] for k in sorted(entries)]


def save(store: str | Path, entries: list[KnowledgeEntry]) -> int:
    """Append-or-replace by id; atomic replace; returns the store size.

    Each save re-reads (`load`) and rewrites the whole store, so a run of
    k extracts costs O(k x store size): superlinear in the number of
    entries (perfbench's `knowledge.growth` is about 1.2). The rewrite
    is deliberate: the file stays canonical (id-sorted, one entry per
    line) so that committees can merge it as plain text, and it is
    replaced atomically, so a reader never sees half a store.
    """
    path = Path(store)
    merged: dict[str, KnowledgeEntry] = {}
    if path.exists():
        for entry in load(path):
            merged[entry.id] = entry
    for entry in entries:
        if entry.year_available < MIN_YEAR:
            raise ValueError(
                f"entry {entry.id!r}: year {entry.year_available} is before "
                f"{MIN_YEAR}"
            )
        merged[entry.id] = entry
    lines = [format_entry(merged[k]) for k in sorted(merged)]
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent) or ".", prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
    return len(merged)


def query(
    store: str | Path,
    *,
    type: str | None = None,
    max_year: int | None = None,
    property_key: str | None = None,
) -> list[KnowledgeEntry]:
    """Entries matching every given filter; max_year means available by then."""
    out = []
    for entry in load(store):
        if type is not None and entry.type != type:
            continue
        if max_year is not None and entry.year_available > max_year:
            continue
        if property_key is not None and not any(
            p.key == property_key for p in entry.properties
        ):
            continue
        out.append(entry)
    return out


def model_target_year(model: Model) -> int | None:
    """First `target_year` numeric property in declaration order, if any."""
    for element in model.elements.values():
        value = element.property_value("target_year")
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    return None


def check_kbrefs(model: Model, store: str | Path) -> list[Diagnostic]:
    """R-401 for unknown targets, I-401 for entries past the target year.

    A missing store file counts as an empty store; a corrupt one raises.
    """
    path = Path(store)
    stored = {e.id: e for e in load(path)} if path.exists() else {}
    target_year = model_target_year(model)
    diags: list[Diagnostic] = []
    for index, rel in enumerate(model.relations):
        if rel.kind is not RelationKind.KB_REF:
            continue
        target = rel.targets[0]
        span = model.spans.get(index)
        inline = model.elements.get(target)
        if inline is None and target not in stored:
            diags.append(
                make(
                    "R-401",
                    f"knowledge reference {target!r} found neither in the store "
                    "nor in the model",
                    [rel.source, target],
                    span,
                )
            )
            continue
        year: int | None = None
        if target in stored:
            year = stored[target].year_available
        elif inline is not None and inline.kind is ElementKind.KNOWLEDGE_ENTRY:
            value = inline.property_value("year")
            if isinstance(value, int) and not isinstance(value, bool):
                year = value
        if (
            target_year is not None
            and year is not None
            and year > target_year
        ):
            diags.append(
                make(
                    "I-401",
                    f"{target!r} is estimated for {year}, after the declared "
                    f"target year {target_year}",
                    [rel.source, target],
                    span,
                )
            )
    return sort_diagnostics(diags)
