"""Persistent store for reusable solution elements.

Insights extracted from finished models (blocks, variants,
requirements) become flat-file entries that later models reference via
`kbref`. The store is one record per line and diff-friendly: a
distributed committee merges it with ordinary text merges.

Store line format (`kb.imogkb`):

    entry <id> name="..." type=<token> year=<nat> prop.<key>=<value>[unit]... provenance="model@timestamp"

Lines starting with `#` are comments; saving canonicalizes (id-sorted,
comments dropped) and replaces the file atomically.

A line is read in two steps. `_LINE` matches the exact shape that
`format_entry` writes (single spaces, fields in the order above), so a
saved store is read with one match and one `findall` per line. Any other
line, and a line of that shape that fails a check (a year before 1900
or out of range, a provenance without `@`, a bare property value that is
neither a bool nor a number), goes to the field loop, which reads fields
in any order. Only the field loop raises, so every reason a line is
refused, and which reason wins, is decided in one place.
"""

from __future__ import annotations

import os
import re
import stat
import time
from dataclasses import dataclass, field
from pathlib import Path

from .diagnostics import Diagnostic, make, sort_diagnostics
from .errors import ImogError, KindNotExtractableError, StoreCorruptError
from .errors import UnknownElementError
from .model import ElementKind, Model, Property, RelationKind
from .lexer import ESCAPES, read_number
from .printer import escape_string, format_value

MIN_YEAR = 1900

_EXTRACTABLE = frozenset(
    {ElementKind.BLOCK, ElementKind.VARIANT, ElementKind.REQUIREMENT}
)

# \Z, not $, which also matches before a final "\n"; ASCII digits only
_ID = r"[A-Za-z_][A-Za-z0-9_]*"
_TOKEN_RE = re.compile(rf"{_ID}\Z")
_NUMBER_RE = re.compile(rf"(-?[0-9]+(?:\.[0-9]+)?)({_ID})?\Z")

# A store line: `entry <id>`, then `key=value` fields. A value is quoted
# (backslash escapes, no raw `"`) or bare (no whitespace, no leading `"`).
_TEXT = r'[^"\\]*(?:\\.[^"\\]*)*'
_BARE = r'[^\s"]\S*'
_HEAD = re.compile(r"([^\s=]*) *([^\s=]*) *")
_KEY = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")
_FIELD = re.compile(rf'({_KEY.pattern})=(?:"({_TEXT})"|({_BARE})) *')
# The shape `format_entry` writes; `_PROP` reads its props group.
_PROP = re.compile(rf' prop\.({_ID})=(?:"({_TEXT})"|({_BARE}))')
_LINE = re.compile(
    rf'entry ({_ID}) name="({_TEXT})" type=({_ID}) year=([0-9]+)'
    rf'((?: prop\.{_ID}=(?:"{_TEXT}"|{_BARE}))*) provenance="({_TEXT})"\Z'
)
_ESCAPE = re.compile(r"\\(.)")
_BOOLS = {"true": True, "false": False}


def _text(quoted: str) -> str:
    """A quoted value's text, its escapes decoded with the lexer's table."""
    if "\\" not in quoted:
        return quoted
    return _ESCAPE.sub(lambda m: ESCAPES.get(m[1], m[1]), quoted)


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
    """UTC timestamp; SOURCE_DATE_EPOCH pins it for reproducible runs.

    A value that is not a count of seconds in range raises ImogError.
    """
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        t = time.gmtime(int(epoch) if epoch else None)
    except (ValueError, OverflowError, OSError):
        message = f"SOURCE_DATE_EPOCH={epoch!r} is not a count of seconds in range"
        raise ImogError(message) from None
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", t)


def extract(
    model: Model, ids: list[str], *, timestamp: str | None = None
) -> ExtractResult:
    """Convert blocks, variants, or requirements into store entries.

    The entry type comes from a `stereotype` property when present, else
    from the element kind; the availability year from a `year` property.
    A missing or pre-1900 year is flagged (W-401) and replaced by the
    extraction year; if that year is itself before 1900 (an early
    SOURCE_DATE_EPOCH), ImogError is raised, since the store refuses it.
    """
    ts = timestamp or current_timestamp()
    fallback_year = int(ts.rsplit("-", 2)[0])  # the year may have any number of digits
    entries: list[KnowledgeEntry] = []
    diags: list[Diagnostic] = []
    for element_id in ids:
        element = model.elements.get(element_id)
        if element is None:
            raise UnknownElementError(element_id)
        if element.kind not in _EXTRACTABLE:
            raise KindNotExtractableError(element_id, element.kind.value)
        stereotype = element.property_value("stereotype")
        entry_type = stereotype if isinstance(stereotype, str) else element.kind.value
        year = element.property_value("year")
        if not isinstance(year, int) or isinstance(year, bool) or year < MIN_YEAR:
            if fallback_year < MIN_YEAR:
                raise ImogError(
                    f"{element_id!r} has no usable year property, and the fallback "
                    f"year {fallback_year} of timestamp {ts!r} is before {MIN_YEAR}; "
                    "set SOURCE_DATE_EPOCH to a later time"
                )
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
        props = tuple(p for p in element.properties if p.key not in ("year", "stereotype"))
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


def format_entry(entry: KnowledgeEntry) -> str:
    fields = [
        "entry",
        entry.id,
        f'name="{escape_string(entry.name)}"',
        f"type={entry.type}",
        f"year={entry.year_available}",
    ]
    for p in entry.properties:
        fields.append(f"prop.{p.key}={format_value(p, '')}")
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


def _property(key: str, value: str, quoted: bool) -> Property | None:
    """A `prop.` field's property: a quoted string, a bool, or a number
    with an optional unit. None for any other bare value."""
    if quoted:
        return Property(key, value)
    if value in _BOOLS:
        return Property(key, _BOOLS[value])
    number = _NUMBER_RE.match(value)
    if number is None:
        return None
    try:
        return Property(key, read_number(number[1]), number[2])
    except ValueError:
        return None


def _shaped(m: re.Match[str]) -> KnowledgeEntry | None:
    """The entry of a `_LINE` match, or None where the field loop must decide."""
    entry_id, name, entry_type, year, props, provenance = m.groups()
    try:
        year_available = read_number(year)
    except ValueError:
        return None
    model_name, sep, ts = _text(provenance).rpartition("@")
    if year_available < MIN_YEAR or not sep:
        return None
    properties = []
    for key, quoted, bare in _PROP.findall(props):
        prop = _property(key, bare or _text(quoted), not bare)
        if prop is None:
            return None
        properties.append(prop)
    return KnowledgeEntry(
        entry_id, _text(name), entry_type, year_available, tuple(properties), (model_name, ts)
    )


def _parse_line(path: str, line_no: int, line: str) -> KnowledgeEntry:
    """One stripped store line: one match for the shape `format_entry`
    writes, else the field loop."""
    m = _LINE.match(line)
    entry = None if m is None else _shaped(m)
    return _parse_fields(path, line_no, line) if entry is None else entry


def _parse_fields(path: str, line_no: int, line: str) -> KnowledgeEntry:
    """Any store line, field by field; a repeated scalar field keeps its
    last value. The one reader that raises for a bad line."""

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
            value = _text(quoted)
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
            try:
                year = read_number(value)
            except ValueError:
                raise fail(f"bad year {value!r}") from None
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
            prop = _property(prop_key, value, quoted is not None)
            if prop is None:
                raise fail(f"bad value {value!r} for property {prop_key!r}")
            props.append(prop)
        else:
            raise fail(f"unknown field {key!r}")
    if name is None or entry_type is None or year is None:
        raise fail("entry needs name, type and year")
    if year < MIN_YEAR:
        raise fail(f"year {year} is before {MIN_YEAR}")
    return KnowledgeEntry(entry_id, name, entry_type, year, tuple(props), provenance)


# The last store text this process read or wrote; see `load`. Replaced
# whole, never changed in place, so threads that read it at once stay safe.
# It pays off only for a caller that runs several store commands on one
# store in one process; the `imog` command reads a store once per run.
_slot = _EMPTY = ("", (), {}, {})


def load(store: str | Path) -> list[KnowledgeEntry]:
    """All entries, id-sorted. Raises StoreCorruptError naming the bad line.

    The file is read and decoded on every call (text-mode line breaks), so
    an edit made outside the process is always seen; bytes that are not
    UTF-8 are reported on the line that holds the first of them. Only text
    that differs from the slot's is parsed. The slot is (text, id-sorted
    entries, {id: entry}, {id: line}) of the store text this process last
    read or wrote: its entries are what `_read(text)` returns, and its
    lines (none or all) are `format_entry(entry)` and read back as that
    entry. Text that fails to parse raises and is never kept.
    """
    return list(_parsed(Path(store))[1])


def _parsed(path: Path):
    """The slot holding the text of `path`, which is parsed and kept
    unless it is the slot's text."""
    global _slot
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:  # exc.object holds the whole file
        line_no = exc.object.count(b"\n", 0, exc.start) + 1
        raise StoreCorruptError(str(path), line_no, f"not UTF-8 text: {exc.reason}") from None
    slot = _slot
    if slot[0] != text:
        entries = _read(str(path), text)
        slot = _slot = (text, tuple(entries[k] for k in sorted(entries)), entries, {})
    return slot


def _read(name: str, text: str) -> dict[str, KnowledgeEntry]:
    entries: dict[str, KnowledgeEntry] = {}
    for line_no, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line[0] == "#":
            continue
        entry = _parse_line(name, line_no, line)
        if entry.id in entries:
            raise StoreCorruptError(name, line_no, f"duplicate entry id {entry.id!r}")
        entries[entry.id] = entry
    return entries


def _read_back(name: str, entry: KnowledgeEntry, line: str) -> KnowledgeEntry:
    """The entry `load` reads from `entry`'s line; ImogError unless it
    equals `entry`."""
    try:  # `load` reads with universal newlines: a raw "\r" ends a line
        back = _read(name, line.replace("\r", "\n"))
    except StoreCorruptError as exc:
        raise ImogError(f"cannot store {entry.id!r}: {exc.reason}") from None
    if back != {entry.id: entry}:
        raise ImogError(f"cannot store {entry.id!r}: it reads back changed")
    return back[entry.id]  # equal, yet 2.0 reads back as the int 2


def save(store: str | Path, entries: list[KnowledgeEntry]) -> int:
    """Append-or-replace by id; atomic replace; returns the store size.

    Each save still reads and rewrites the whole store, O(store) bytes,
    so a run of k extracts moves O(k x store size) bytes. Parsing and
    formatting are O(new entries) when the store text is the one this
    process last wrote (`load`); when it last only read it, every entry is
    formatted again, and otherwise the whole text is parsed too, as in a
    fresh process. perfbench's `knowledge.growth`, the log-log slope of an
    extract's store time against store size, reads below 0.1 on stores of
    up to 600 entries, where the per-save cost outweighs the byte work.
    The rewrite is deliberate: the file stays canonical (id-sorted, one
    entry per line) so that committees can merge it as plain text, and it
    is replaced atomically (`replace_file`), so a reader never sees half a
    store. Only the new lines are read back first: one that `load` would
    refuse or change raises ImogError, and the file stays as it was.
    Nothing locks the store against another save.
    """
    global _slot
    path = Path(store)
    name = str(path)
    try:
        text, _, old, known = _parsed(path)
    except FileNotFoundError:
        text, _, old, known = _EMPTY
    lines = dict(known) if known else {k: format_entry(e) for k, e in old.items()}
    # a line found verbatim in the old text is the line its entry was
    # read from, so it reads back as that entry
    canonical = bool(known) or set(text.split("\n")).issuperset(lines.values())
    new = {entry.id: entry for entry in entries}
    lines.update((k, format_entry(new[k])) for k in sorted(new))
    merged = {**old, **new}
    for k, entry in new.items():
        merged[k] = _read_back(name, entry, lines[k])
    ids = sorted(merged)
    written = "\n".join(map(lines.__getitem__, ids)) + ("\n" if ids else "")
    replace_file(path, written)
    _slot = (written, tuple(map(merged.__getitem__, ids)), merged, lines) if canonical else _EMPTY
    return len(merged)


def replace_file(path: str | Path, text: str) -> None:
    """Write `text` to `path` whole, or leave the file as it was.

    A regular file, or a path that does not exist yet, is written as a
    temporary file beside the file that a symlinked `path` points to,
    which then replaces that file (`os.replace`) and takes its mode; a new
    file gets the mode `open()` gives (0o666 less the umask). Nothing is
    fsynced. A failure removes the temporary file, and its error names
    `path`. Anything else, such as a FIFO, `/dev/null` or `/dev/stdout`,
    cannot be replaced and is written in place.
    """
    try:
        mode: int | None = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    target = os.path.realpath(path)
    tmp_name = f"{target}.{os.urandom(6).hex()}.tmp"
    try:
        with open(tmp_name, "x", encoding="utf-8") as fh:
            if mode is not None:
                os.chmod(tmp_name, stat.S_IMODE(mode))
            fh.write(text)
        os.replace(tmp_name, target)
    except BaseException as exc:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        if isinstance(exc, OSError) and exc.filename == tmp_name:
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
        raise


def query(
    store: str | Path,
    *,
    type: str | None = None,
    max_year: int | None = None,
    property_key: str | None = None,
) -> list[KnowledgeEntry]:
    """Entries matching every given filter; max_year means available by then."""
    return [
        entry
        for entry in load(store)
        if (type is None or entry.type == type)
        and (max_year is None or entry.year_available <= max_year)
        and (property_key is None or any(p.key == property_key for p in entry.properties))
    ]


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
        if target_year is not None and year is not None and year > target_year:
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
