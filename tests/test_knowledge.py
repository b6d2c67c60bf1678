"""Knowledge store: extraction, round-trip, query, reference checking."""

from __future__ import annotations

import os
import random
import re
import shutil
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import imog
import knowledge_reference
from conftest import FIXTURES, GOLDEN, golden_text, parse_fixture
from imog import cli, knowledge
from imog.errors import (
    ImogError,
    KindNotExtractableError,
    StoreCorruptError,
    UnknownElementError,
)
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


def test_numbers_are_stored_exactly(tmp_path):
    store = tmp_path / "kb.imogkb"
    values = (1e-13, 5e-324, 1e16, 2.0**53 + 2, 1e15 + 0.5, 2**53 + 1, -0.25)
    props = tuple(Property(f"p{i}", v, "kg") for i, v in enumerate(values))
    knowledge.save(store, [KnowledgeEntry("K", "k", "t", 2024, props, ("m", TS))])
    line = store.read_text(encoding="utf-8")
    assert " prop.p0=0.0000000000001kg " in line and " prop.p2=10000000000000000.0kg " in line
    (loaded,) = knowledge.load(store)
    assert [(p.value, type(p.value)) for p in loaded.properties] == [
        (v, type(v)) for v in values
    ]


@pytest.mark.parametrize(
    "entry, reason",
    [
        (KnowledgeEntry("K", "k", "t", 1500, (), ("m", TS)), "year 1500 is before 1900"),
        (KnowledgeEntry("Bé", "k", "t", 2024, (), ("m", TS)), "bad entry id 'Bé'"),
        (KnowledgeEntry("K", "a\rb", "t", 2024, (), ("m", TS)), "unterminated name"),
        (
            KnowledgeEntry("K", "k", "t", 2024, (Property("x", float("inf"), None),), ("m", TS)),
            "bad value 'inf' for property 'x'",
        ),
        (
            KnowledgeEntry("K", "k", "t", 2024, (Property("x", 1, ""),), ("m", TS)),
            "it reads back changed",
        ),
    ],
    ids=["year", "id", "carriage-return", "infinity", "empty-unit"],
)
def test_save_refuses_an_entry_that_does_not_read_back(tmp_path, kb_store, entry, reason):
    before = kb_store.read_bytes()
    with pytest.raises(ImogError) as exc:
        knowledge.save(kb_store, [entry])
    assert not isinstance(exc.value, StoreCorruptError)
    assert str(exc.value) == f"cannot store {entry.id!r}: {reason}"
    assert kb_store.read_bytes() == before


def test_save_keeps_the_store_mode(kb_store):
    kb_store.chmod(0o640)
    knowledge.save(kb_store, [KnowledgeEntry("K", "k", "t", 2024, (), ("m", TS))])
    assert stat.S_IMODE(kb_store.stat().st_mode) == 0o640


def test_save_through_a_symlink_writes_its_target(tmp_path, kb_store):
    link = tmp_path / "link.imogkb"
    link.symlink_to(kb_store.name)
    before = {e.id for e in knowledge.load(kb_store)}
    knowledge.save(link, [KnowledgeEntry("K", "k", "t", 2024, (), ("m", TS))])
    assert link.is_symlink() and link.resolve() == kb_store.resolve()
    assert {e.id for e in knowledge.load(kb_store)} == before | {"K"}


def test_new_store_gets_the_umask_mode(tmp_path):
    store = tmp_path / "new.imogkb"
    umask = os.umask(0o027)
    try:
        knowledge.save(store, [KnowledgeEntry("K", "k", "t", 2024, (), ("m", TS))])
    finally:
        os.umask(umask)
    assert stat.S_IMODE(store.stat().st_mode) == 0o640


def test_failed_write_leaves_the_store_and_no_temporary_file(tmp_path, kb_store, monkeypatch):
    before = kb_store.read_bytes()

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        knowledge.save(kb_store, [KnowledgeEntry("K", "k", "t", 2024, (), ("m", TS))])
    assert kb_store.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kb.imogkb"]


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


def test_quoted_type_ending_in_a_newline_is_a_bad_token(tmp_path):
    # `$` matched before the final "\n": the entry loaded, and the next
    # save wrote the type unquoted across two lines
    store = tmp_path / "kb.imogkb"
    store.write_text('entry K name="k" type="abc\\n" year=2024\n', encoding="utf-8")
    with pytest.raises(StoreCorruptError) as exc:
        knowledge.load(store)
    assert (exc.value.line_no, exc.value.reason) == (1, "bad type token 'abc\\n'")


def test_property_numbers_take_ascii_digits_only(tmp_path):
    # `\d` read "١٢" as 12, and the next save rewrote it so
    store = tmp_path / "kb.imogkb"
    store.write_text('entry K name="k" type=t year=2024 prop.n=١٢kg\n', encoding="utf-8")
    with pytest.raises(StoreCorruptError) as exc:
        knowledge.load(store)
    assert (exc.value.line_no, exc.value.reason) == (
        1,
        "bad value '١٢kg' for property 'n'",
    )


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


# --- the slot: a store text this process read or wrote is parsed once ---


def test_a_store_rewritten_with_the_same_size_and_mtime_is_read_afresh(tmp_path):
    store = tmp_path / "kb.imogkb"
    knowledge.save(store, [KnowledgeEntry("K", "aaa", "t", 2024, (), ("m", TS))])
    assert knowledge.load(store)[0].name == "aaa"
    before = store.stat()
    store.write_text(store.read_text(encoding="utf-8").replace("aaa", "bbb"), encoding="utf-8")
    os.utime(store, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = store.stat()
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    assert knowledge.load(store)[0].name == "bbb"


def test_corrupt_text_after_a_kept_store_raises_every_time(kb_store):
    good = kb_store.read_text(encoding="utf-8")
    knowledge.load(kb_store)
    kb_store.write_text((FIXTURES / "kb_corrupt.imogkb").read_text(encoding="utf-8"))
    want = _outcome(knowledge_reference.load, kb_store)
    assert want[0] == 3
    for _ in range(2):
        with pytest.raises(StoreCorruptError) as exc:
            knowledge.load(kb_store)
        assert (exc.value.path, exc.value.line_no, exc.value.reason) == (str(kb_store), *want)
    kb_store.write_text(good)
    assert knowledge.load(kb_store) == knowledge_reference.load(kb_store)


def test_mutating_a_loaded_list_leaves_the_next_load_alone(kb_store):
    first = knowledge.load(kb_store)
    want = list(first)
    first.clear()
    assert knowledge.load(kb_store) == want


def test_a_saved_entry_loads_as_its_line_reads(tmp_path):
    # 2.0 is written `2kg`, which reads back as the int 2
    store = tmp_path / "kb.imogkb"
    entry = KnowledgeEntry("K", "k", "t", 2024, (Property("m", 2.0, "kg"),), ("m", TS))
    knowledge.save(store, [entry])
    (loaded,) = knowledge.load(store)
    assert repr(loaded) == repr(knowledge_reference.load(store)[0])
    assert type(loaded.properties[0].value) is int


def test_threads_loading_their_own_stores_get_their_own_entries(tmp_path):
    stores = []
    for t in range(4):
        store = tmp_path / f"kb{t}.imogkb"
        ids = [f"K{t}_{i:02}" for i in range(30)]
        knowledge.save(store, [KnowledgeEntry(k, "k", "t", 2024, (), ("m", TS)) for k in ids])
        stores.append((store, ids))
    wrong = []

    def load_often(store, ids):
        for _ in range(300):
            got = [e.id for e in knowledge.load(store)]
            if got != ids:
                wrong.append((store.name, got[:2]))
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=load_often, args=s) for s in stores]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


_BY_HAND = (
    "# kept by hand\r\n"
    'entry K_b year=2025  type=sensor name="B\\qee" prop.m=5.50kg prop.w=2.0kg provenance="m@t"\r\n'
    "\r\n"
    '  entry K_a name="A" type=t year=2024 prop.s="x\\"y" provenance="m@t" \r\n'
)


def _extract_in_a_fresh_process(store, *ids) -> None:
    package_root = str(Path(imog.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "imog", "kb", "--store", str(store), "extract",
         str(FIXTURES / "escooter.imog"), *ids],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": package_root, "SOURCE_DATE_EPOCH": "1767225600"},
    )
    assert proc.returncode == 0, proc.stderr


def test_a_store_written_by_hand_is_saved_as_a_fresh_process_saves_it(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1767225600")  # 2026-01-01T00:00:00Z
    store, twin = tmp_path / "kb.imogkb", tmp_path / "twin.imogkb"
    store.write_bytes(_BY_HAND.encode("utf-8"))
    knowledge.save(store, [])
    assert store.read_bytes() == (
        b'entry K_a name="A" type=t year=2024 prop.s="x\\"y" provenance="m@t"\n'
        b'entry K_b name="Bqee" type=sensor year=2025 prop.m=5.5kg prop.w=2kg provenance="m@t"\n'
    )
    # 2.0 was read as a float, and its line `2kg` reads as the int 2
    assert repr(knowledge.load(store)) == repr(knowledge_reference.load(store))
    # the first extract formats the loaded entries again, the second
    # reuses the lines the first wrote
    for ids in (["B_motor"], ["V_liion48", "V_leadacid12"]):
        shutil.copyfile(store, twin)
        knowledge.load(store)
        code = cli.run(["kb", "--store", str(store), "extract", str(FIXTURES / "escooter.imog"), *ids])
        assert code == 0
        _extract_in_a_fresh_process(twin, *ids)
        assert store.read_bytes() == twin.read_bytes()


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
    # the intended differences: a year of non-ASCII digits, which the
    # reference let through `str.isdigit`, is now a bad year; a type
    # ending in a newline, which its `$` let through, is now a bad type
    # token; a property number with non-ASCII digits, which its `\d`
    # read, is now a bad value
    assert isinstance(got, tuple), (where, got, want)
    bad_year = re.fullmatch(r"bad year '(.*)'", got[1])
    if bad_year:
        assert not bad_year[1].isascii() and bad_year[1].isdigit(), (where, got, want)
        return
    bad_type = re.fullmatch(r"bad type token '(.*)'", got[1])
    bad_number = re.fullmatch(r"bad value '(.*)' for property '.*'", got[1])
    assert (bad_type and bad_type[1].endswith("\\n")) or (
        bad_number and any(c.isdigit() and not c.isascii() for c in bad_number[1])
    ), (where, got, want)


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
        want = _outcome(knowledge_reference.load, store)
        for _ in range(2):  # the second load finds the text in the slot
            _assert_same(_outcome(knowledge.load, store), want, text)


def test_saved_stores_match_reference(tmp_path):
    rng = random.Random(6010)
    store = tmp_path / "kb.imogkb"
    for _ in range(60):
        knowledge.save(store, [_random_entry(rng, rng.randint(0, 40)) for _ in range(rng.randint(0, 3))])
        want = knowledge_reference.load(store)
        assert repr(knowledge.load(store)) == repr(want)
        assert store.read_text(encoding="utf-8") == "".join(
            knowledge.format_entry(e) + "\n" for e in want
        )


def test_written_lines_take_the_one_match_path():
    # a writer change that leaves `_LINE`'s shape would silently send
    # every saved line back to the field loop
    rng = random.Random(6006)
    lines = _store_lines(rng, 300) + golden_text("escooter.kb_extract.imogkb").splitlines()
    for line in lines:
        m = knowledge._LINE.match(line)
        assert m is not None, line
        assert knowledge._shaped(m) == knowledge._parse_fields("s", 1, line), line


_WRITTEN = 'entry K name="k" type=t year=2024 prop.m=5kg prop.s="x" provenance="m@2026"'


@pytest.mark.parametrize(
    "old, new, want",
    [
        ("year=2024", "year=1899", "year 1899 is before 1900"),
        ('"m@2026"', '"m2026"', "provenance must be model@timestamp"),
        ("=5kg", "=abc", "bad value 'abc' for property 'm'"),
        ('name="k"', r'name="a\qb"', None),
        ('name="k"', 'name="a\tb"', None),
        ('=5kg prop.s="x" provenance="m@2026"', '=abc prop.s="x" provenance="m2026"',
         "bad value 'abc' for property 'm'"),
        ("year=2024 prop.m=5kg", "year=1899 prop.m=abc", "bad value 'abc' for property 'm'"),
    ],
    ids=["year-1899", "provenance-no-at", "bad-prop", "unknown-escape", "raw-tab",
         "bad-prop-then-bad-provenance", "early-year-then-bad-prop"],
)
def test_near_misses_of_the_written_shape_match_reference(old, new, want):
    line = _WRITTEN.replace(old, new)
    assert line != _WRITTEN and knowledge._LINE.match(line)
    got = _outcome(knowledge._parse_line, "s", 7, line)
    assert got == _outcome(knowledge._parse_fields, "s", 7, line)
    assert got == _outcome(knowledge_reference._parse_line, "s", 7, line)
    if want is not None:
        assert got == (7, want)


def test_store_text_decodes_escapes_with_the_lexer_table():
    # an escape the lexer does not know still decodes as its character
    assert knowledge._text(r'a\"b\\c\nd\te\q') == 'a"b\\c\nd\teq'
    assert knowledge._text("plain") == "plain"


def test_a_309_digit_year_in_the_written_shape_is_a_bad_year():
    # the reference reads years with a bare int(), so it has no number range
    year = "1" + "0" * 308
    line = _WRITTEN.replace("year=2024", f"year={year}")
    assert knowledge._LINE.match(line)
    want = (7, f"bad year {year!r}")
    assert _outcome(knowledge._parse_line, "s", 7, line) == want
    assert _outcome(knowledge._parse_fields, "s", 7, line) == want


def test_one_match_path_agrees_with_the_field_loop_on_damaged_lines():
    rng = random.Random(6009)
    base = _FIXTURE_LINES + _store_lines(rng, 200)
    shaped = 0
    for _ in range(4000):
        line = _damage(rng, rng.choice(base)).strip()
        shaped += knowledge._LINE.match(line) is not None
        assert _outcome(knowledge._parse_line, "s", 7, line) == _outcome(
            knowledge._parse_fields, "s", 7, line
        ), line
    assert shaped >= 500
