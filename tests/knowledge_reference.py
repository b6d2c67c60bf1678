# The store line reader as it was before one compiled field regex took
# the place of the scanner class, copied literally (only its imports now
# name the `imog` package). tests/test_knowledge.py holds the current
# loader to the same entries, or the same line number and reason, on
# fixture, generated and damaged stores. The one intended difference:
# a year must now be ASCII digits.

from __future__ import annotations

import re
from pathlib import Path

from imog.errors import StoreCorruptError
from imog.knowledge import KnowledgeEntry
from imog.model import Property

MIN_YEAR = 1900

_TOKEN_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_NUMBER_RE = re.compile(r"^(-?\d+(?:\.\d+)?)([A-Za-z_][A-Za-z0-9_]*)?$")


class _LineScanner:
    def __init__(self, path: str, line_no: int, text: str):
        self.path = path
        self.line_no = line_no
        self.text = text
        self.pos = 0

    def fail(self, reason: str) -> StoreCorruptError:
        return StoreCorruptError(self.path, self.line_no, reason)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] == " ":
            self.pos += 1

    def done(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def word(self, what: str) -> str:
        self.skip_ws()
        m = re.match(r"[^\s=]+", self.text[self.pos :])
        if not m:
            raise self.fail(f"expected {what}")
        self.pos += m.end()
        return m.group(0)

    def quoted(self, what: str) -> str:
        if self.pos >= len(self.text) or self.text[self.pos] != '"':
            raise self.fail(f"expected quoted {what}")
        self.pos += 1
        out: list[str] = []
        while True:
            if self.pos >= len(self.text):
                raise self.fail(f"unterminated {what}")
            ch = self.text[self.pos]
            self.pos += 1
            if ch == '"':
                return "".join(out)
            if ch == "\\":
                if self.pos >= len(self.text):
                    raise self.fail(f"unterminated {what}")
                esc = self.text[self.pos]
                self.pos += 1
                out.append({"n": "\n", "t": "\t"}.get(esc, esc))
            else:
                out.append(ch)

    def field(self) -> tuple[str, str, bool]:
        """(key, value, was_quoted)."""
        self.skip_ws()
        m = re.match(r"[A-Za-z_][A-Za-z0-9_.]*", self.text[self.pos :])
        if not m:
            raise self.fail("expected a key=value field")
        key = m.group(0)
        self.pos += m.end()
        if self.pos >= len(self.text) or self.text[self.pos] != "=":
            raise self.fail(f"field {key!r} has no value")
        self.pos += 1
        if self.pos < len(self.text) and self.text[self.pos] == '"':
            return key, self.quoted(key), True
        m = re.match(r"[^\s]+", self.text[self.pos :])
        if not m:
            raise self.fail(f"missing value for {key}")
        self.pos += m.end()
        return key, m.group(0), False


def _parse_line(path: str, line_no: int, line: str) -> KnowledgeEntry:
    scanner = _LineScanner(path, line_no, line)
    head = scanner.word("'entry'")
    if head != "entry":
        raise scanner.fail(f"expected 'entry', found {head!r}")
    entry_id = scanner.word("entry id")
    if not _TOKEN_RE.match(entry_id):
        raise scanner.fail(f"bad entry id {entry_id!r}")
    name = None
    entry_type = None
    year = None
    provenance = ("", "")
    props: list[Property] = []
    while not scanner.done():
        key, value, was_quoted = scanner.field()
        if key == "name":
            if not was_quoted:
                raise scanner.fail("name must be quoted")
            name = value
        elif key == "type":
            if not _TOKEN_RE.match(value):
                raise scanner.fail(f"bad type token {value!r}")
            entry_type = value
        elif key == "year":
            if not value.isdigit():
                raise scanner.fail(f"bad year {value!r}")
            year = int(value)
        elif key == "provenance":
            if not was_quoted:
                raise scanner.fail("provenance must be quoted")
            model_name, sep, ts = value.rpartition("@")
            if not sep:
                raise scanner.fail("provenance must be model@timestamp")
            provenance = (model_name, ts)
        elif key.startswith("prop."):
            props.append(_parse_prop(scanner, key[5:], value, was_quoted))
        else:
            raise scanner.fail(f"unknown field {key!r}")
    if name is None or entry_type is None or year is None:
        raise scanner.fail("entry needs name, type and year")
    if year < MIN_YEAR:
        raise scanner.fail(f"year {year} is before {MIN_YEAR}")
    return KnowledgeEntry(
        entry_id, name, entry_type, year, tuple(props), provenance
    )


def _parse_prop(
    scanner: _LineScanner, key: str, raw: str, was_quoted: bool
) -> Property:
    if not _TOKEN_RE.match(key):
        raise scanner.fail(f"bad property key {key!r}")
    if was_quoted:
        return Property(key, raw)
    if raw == "true":
        return Property(key, True)
    if raw == "false":
        return Property(key, False)
    m = _NUMBER_RE.match(raw)
    if m:
        number = m.group(1)
        value = float(number) if "." in number else int(number)
        return Property(key, value, m.group(2))
    raise scanner.fail(f"bad value {raw!r} for property {key!r}")


def load(store: str | Path) -> list[KnowledgeEntry]:
    """All entries, id-sorted. Raises StoreCorrupt naming the bad line."""
    path = Path(store)
    entries: dict[str, KnowledgeEntry] = {}
    with path.open(encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            entry = _parse_line(str(path), line_no, text)
            if entry.id in entries:
                raise StoreCorruptError(
                    str(path), line_no, f"duplicate entry id {entry.id!r}"
                )
            entries[entry.id] = entry
    return [entries[k] for k in sorted(entries)]
