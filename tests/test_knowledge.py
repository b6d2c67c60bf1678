"""Knowledge store: extraction, round-trip, query, reference checking."""

from __future__ import annotations

import random
import re

import pytest

import imog
import knowledge_reference
from conftest import FIXTURES, GOLDEN, golden_text, parse_fixture
from imog import knowledge
from imog.errors import KindNotExtractableError, StoreCorruptError, UnknownElementError
from imog.knowledge import KnowledgeEntry
from imog.model import Property

TS = "2026-01-01T00:00:00Z"


def test_extract_block_with_year(escooter):
    result = knowledge.extract(escooter, ["B_motor"], timestamp=TS)
    assert result.diagnostics == []
    (entry,) = result.entries
    assert entry.type == "block"
    assert entry.year_available == 2025
    assert entry.provenance == ("E-Scooter", TS)
    assert ("year" not in {p.key for p in entry.properties})


def test_extract_feature_rejected(escooter):
    with pytest.raises(KindNotExtractableError):
        knowledge.extract(escooter, ["F_root"])
    with pytest.raises(UnknownElementError):
        knowledge.extract(escooter, ["nope"])


def test_extract_missing_year_warns(escooter):
    result = knowledge.extract(escooter, ["B_battery"], timestamp=TS)
    assert [d.code for d in result.diagnostics] == ["W-401"]
    assert result.entries[0].year_available == 2026


def test_extract_stereotype_property_overrides_kind():
    source = (
        'model "M" { structural { block B "b" level system '
        '{ stereotype: "sensor" year: 2029 } } }'
    )
    model = imog.parse(source).model
    result = knowledge.extract(model, ["B"], timestamp=TS)
    assert result.entries[0].type == "sensor"
    assert result.entries[0].year_available == 2029


def test_extract_fixture_golden(escooter):
    result = knowledge.extract(
        escooter, ["B_motor", "V_liion48", "V_leadacid12"], timestamp=TS
    )
    text = "\n".join(knowledge.format_entry(e) for e in result.entries) + "\n"
    assert text == golden_text("escooter.kb_extract.imogkb")


def test_save_load_roundtrip(tmp_path):
    store = tmp_path / "kb.imogkb"
    entries = [
        KnowledgeEntry("K_b", "Second", "sensor", 2024, (), ("m", TS)),
        KnowledgeEntry(
            "K_a",
            "First",
            "technology",
            2026,
            (Property("mass", 2, "kg"), Property("note", "fragile")),
            ("m", TS),
        ),
        KnowledgeEntry("K_c", "Third", "regulation", 2025, (), ("m", TS)),
    ]
    assert knowledge.save(store, entries) == 3
    loaded = knowledge.load(store)
    assert [e.id for e in loaded] == ["K_a", "K_b", "K_c"]
    assert sorted(entries, key=lambda e: e.id) == loaded


def test_save_replaces_by_id(tmp_path):
    store = tmp_path / "kb.imogkb"
    knowledge.save(store, [KnowledgeEntry("K", "Old", "sensor", 2024, (), ("m", TS))])
    count = knowledge.save(
        store, [KnowledgeEntry("K", "New", "sensor", 2025, (), ("m", TS))]
    )
    assert count == 1
    assert knowledge.load(store)[0].name == "New"


def test_save_is_canonicalizing_and_resave_is_byte_stable(tmp_path, kb_store):
    first = kb_store.read_text()
    knowledge.save(kb_store, [])
    canonical = kb_store.read_text()
    assert canonical != first  # comments dropped, canonical ordering
    knowledge.save(kb_store, [])
    assert kb_store.read_text() == canonical


def test_string_property_that_looks_numeric_roundtrips(tmp_path):
    store = tmp_path / "kb.imogkb"
    entry = KnowledgeEntry(
        "K", "Tricky", "sensor", 2024, (Property("code", "42"),), ("m", TS)
    )
    knowledge.save(store, [entry])
    (loaded,) = knowledge.load(store)
    assert loaded.properties == (Property("code", "42"),)


def test_load_corrupt_store_names_line():
    with pytest.raises(StoreCorruptError) as exc:
        knowledge.load(FIXTURES / "kb_corrupt.imogkb")
    assert exc.value.line_no == 3


def test_load_rejects_pre_1900_years(tmp_path):
    store = tmp_path / "kb.imogkb"
    store.write_text('entry K name="Old" type=relic year=1500 provenance="m@t"\n')
    with pytest.raises(StoreCorruptError):
        knowledge.load(store)


def test_query_seeded_sensors(kb_store):
    entries = knowledge.query(kb_store, type="sensor", max_year=2026)
    assert [(e.id, e.year_available) for e in entries] == [
        ("K_cam", 2024),
        ("K_lidar", 2026),
    ]


def test_query_empty_filter_returns_all(kb_store):
    assert len(knowledge.query(kb_store)) == 5


def test_query_max_year_zero(kb_store):
    assert knowledge.query(kb_store, max_year=0) == []


def test_query_by_property_key(kb_store):
    entries = knowledge.query(kb_store, property_key="region")
    assert [e.id for e in entries] == ["K_eureg"]


def test_query_independent_of_store_ordering(tmp_path, kb_store):
    shuffled = tmp_path / "shuffled.imogkb"
    lines = [
        l
        for l in kb_store.read_text().splitlines()
        if l.strip() and not l.startswith("#")
    ]
    shuffled.write_text("\n".join(reversed(lines)) + "\n")
    assert knowledge.query(shuffled, type="sensor") == knowledge.query(
        kb_store, type="sensor"
    )


def test_query_oracle_linear_scan(tmp_path):
    rng = random.Random(5150)
    store = tmp_path / "gen.imogkb"
    entries = [
        KnowledgeEntry(
            f"K{i:03d}",
            f"Entry {i}",
            rng.choice(("sensor", "technology", "regulation")),
            rng.randint(2020, 2035),
            (Property("grade", rng.randint(1, 5)),) if rng.random() < 0.5 else (),
            ("gen", TS),
        )
        for i in range(100)
    ]
    knowledge.save(store, entries)
    assert knowledge.load(store) == sorted(entries, key=lambda e: e.id)
    for type_filter in (None, "sensor"):
        for max_year in (None, 2024, 2030):
            got = knowledge.query(store, type=type_filter, max_year=max_year)
            want = [
                e
                for e in sorted(entries, key=lambda e: e.id)
                if (type_filter is None or e.type == type_filter)
                and (max_year is None or e.year_available <= max_year)
            ]
            assert got == want


def test_check_kbrefs_clean_fixture(escooter, tmp_path):
    store = tmp_path / "kb.imogkb"
    store.write_text("")
    assert knowledge.check_kbrefs(escooter, store) == []


def test_check_kbrefs_missing_entry(tmp_path):
    source = (
        'model "M" { structural { block B "b" level system { kbref K_gone } } }'
    )
    model = imog.parse(source).model
    diags = knowledge.check_kbrefs(model, tmp_path / "absent.imogkb")
    assert [d.code for d in diags] == ["R-401"]
    assert "K_gone" in diags[0].elements


def test_check_kbrefs_target_year(kb_store):
    model = parse_fixture("kbref_late.imog").model
    diags = knowledge.check_kbrefs(model, kb_store)
    assert [d.code for d in diags] == ["I-401"]
    assert "2028" in diags[0].message and "2025" in diags[0].message


def test_check_kbrefs_inline_entry_past_target_year():
    source = """model "M" {
  strategy { goal G "g" { target_year: 2025 } }
  structural { block B "b" level system { kbref K } }
  knowledge { entry K "k" type sensor year 2030 }
}
"""
    model = imog.parse(source).model
    diags = knowledge.check_kbrefs(model, "nonexistent.imogkb")
    assert [d.code for d in diags] == ["I-401"]


def test_extract_save_load_check_cycle(escooter, tmp_path):
    store = tmp_path / "kb.imogkb"
    result = knowledge.extract(escooter, ["B_motor", "V_liion48"], timestamp=TS)
    knowledge.save(store, result.entries)
    loaded = knowledge.load(store)
    assert {e.id for e in loaded} == {"B_motor", "V_liion48"}
    source = (
        'model "M" { structural { block B "b" level system '
        "{ kbref B_motor kbref V_liion48 } } }"
    )
    model = imog.parse(source).model
    assert knowledge.check_kbrefs(model, store) == []


def test_year_must_be_ascii_digits(tmp_path):
    store = tmp_path / "kb.imogkb"
    for field, year in [("²", "²"), ("١٩٩٩", "١٩٩٩"), ("2O24", "2O24"), ('""', "")]:
        store.write_text(
            f'entry K name="k" type=t year={field} provenance="m@t"\n', encoding="utf-8"
        )
        with pytest.raises(StoreCorruptError) as exc:
            knowledge.load(store)
        assert (exc.value.line_no, exc.value.reason) == (1, f"bad year {year!r}")


def test_store_bytes_that_are_not_utf8_name_their_line(tmp_path):
    store = tmp_path / "kb.imogkb"
    good = b'entry K name="k" type=t year=2024 provenance="m@t"\n'
    store.write_bytes(b"# seeded\n" + good + b'entry L name="\xff" type=t year=2024\n')
    with pytest.raises(StoreCorruptError) as exc:
        knowledge.load(store)
    assert (exc.value.line_no, exc.value.reason) == (3, "not UTF-8 text: invalid start byte")


def test_store_line_grammar():
    line = (
        r'entry K  name="a\"b\\c\nd\te\qx"type="t1" year=01999 year=2001 '
        r'prop.s="say \"hi\"" prop.b=false prop.t="true" prop.n=-2.50kg prop.i=7 prop.u=3V '
        r'provenance="m@odel@2026"'
    )
    entry = knowledge._parse_line("s", 1, line)
    assert entry == KnowledgeEntry(
        "K",
        'a"b\\c\nd\teqx',
        "t1",
        2001,
        (
            Property("s", 'say "hi"'),
            Property("b", False),
            Property("t", "true"),
            Property("n", -2.5, "kg"),
            Property("i", 7),
            Property("u", 3, "V"),
        ),
        ("m@odel", "2026"),
    )


def test_one_line_with_twenty_thousand_properties(tmp_path):
    store = tmp_path / "wide.imogkb"
    props = " ".join(f"prop.p{i}={i}kg" for i in range(20000))
    store.write_text(
        f'entry W name="wide" type=t year=2024 {props} provenance="m@t"\n',
        encoding="utf-8",
    )
    (entry,) = knowledge.load(store)
    assert entry.properties == tuple(Property(f"p{i}", i, "kg") for i in range(20000))


# --- differential tests against the reference store reader ---

_NAME_CHARS = 'ab Z_09@"\\\n\t#=é.'


def _random_entry(rng: random.Random, i: int) -> KnowledgeEntry:
    def text(n):
        return "".join(rng.choice(_NAME_CHARS) for _ in range(rng.randint(0, n)))

    props = []
    for k in range(rng.randint(0, 4)):
        value = rng.choice(
            [True, False, rng.randint(-50, 5000), round(rng.uniform(-9, 9), 3), text(8)]
        )
        unit = rng.choice([None, "kg", "W"]) if type(value) in (int, float) else None
        props.append(Property(f"p{k}_{rng.randint(0, 9)}", value, unit))
    return KnowledgeEntry(
        f"K{i}_{rng.randint(0, 999)}",
        text(12),
        rng.choice(["sensor", "block", "T_2"]),
        rng.randint(1900, 2100),
        tuple(props),
        (text(6), "2026-01-01T00:00:00Z"),
    )


def _store_lines(rng: random.Random, n: int) -> list[str]:
    return [knowledge.format_entry(_random_entry(rng, i)) for i in range(n)]


_FIXTURE_LINES = [
    line
    for path in (
        FIXTURES / "kb.imogkb",
        FIXTURES / "kb_corrupt.imogkb",
        GOLDEN / "escooter.kb_extract.imogkb",
    )
    for line in path.read_text(encoding="utf-8").splitlines()
]

# the characters and words every field boundary turns on, and a few
# that only Unicode classes tell apart (no-break space, vertical tab,
# digits outside ASCII)
_DAMAGE = ['"', "\\", "=", "\t", " ", "prop.", "name=", "year=", "entry ", "#", "@",
           "1", "x", " ", "\x0b", "²", "١٩٩٩", "é"]


def _damage(rng: random.Random, line: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(line))
        op = rng.random()
        if op < 0.6:
            filler = "".join(rng.choice(_DAMAGE) for _ in range(rng.randint(1, 4)))
            line = line[:i] + filler + line[i:]
        elif op < 0.85:
            line = line[:i] + line[rng.randint(i, min(len(line), i + 12)) :]
        else:
            line = line[:i]
    return line


def _outcome(read, *args):
    try:
        return read(*args)
    except StoreCorruptError as exc:
        return (exc.line_no, exc.reason)
    except ValueError as exc:  # the reference on a year such as '²'
        return ("ValueError", str(exc))


def _assert_same(got, want, where) -> None:
    if got == want:
        return
    # the one intended difference: a year of non-ASCII digits, which the
    # reference let through `str.isdigit`, is now a bad year
    bad_year = isinstance(got, tuple) and re.fullmatch(r"bad year '(.*)'", got[1])
    assert bad_year and not bad_year[1].isascii() and bad_year[1].isdigit(), (
        where, got, want
    )


def _same_line(line: str) -> bool:
    text = line.strip()
    if not text or text.startswith("#"):
        return False
    _assert_same(
        _outcome(knowledge._parse_line, "s", 7, text),
        _outcome(knowledge_reference._parse_line, "s", 7, text),
        text,
    )
    return True


def test_store_lines_match_reference():
    rng = random.Random(6006)
    lines = _FIXTURE_LINES + _store_lines(rng, 300)
    assert sum(_same_line(line) for line in lines) > 300


def test_damaged_store_lines_match_reference():
    rng = random.Random(6007)
    base = _FIXTURE_LINES + _store_lines(rng, 200)
    compared = sum(_same_line(_damage(rng, rng.choice(base))) for _ in range(4000))
    assert compared >= 3000


def test_whole_stores_match_reference(tmp_path):
    rng = random.Random(6008)
    store = tmp_path / "kb.imogkb"
    stores = [
        (FIXTURES / name).read_text(encoding="utf-8")
        for name in ("kb.imogkb", "kb_corrupt.imogkb")
    ]
    for _ in range(150):
        lines = _store_lines(rng, rng.randint(0, 12)) + ["", "  # note", " \t "]
        rng.shuffle(lines)
        if lines and rng.random() < 0.5:
            i = rng.randrange(len(lines))
            lines[i] = _damage(rng, lines[i])
        if lines and rng.random() < 0.2:
            lines.append(rng.choice(lines))  # maybe a duplicate id
        stores.append(rng.choice(["\n", "\r\n", "\r"]).join(lines) + rng.choice(["", "\n"]))
    for text in stores:
        store.write_bytes(text.encode("utf-8"))
        _assert_same(
            _outcome(knowledge.load, store),
            _outcome(knowledge_reference.load, store),
            text,
        )
