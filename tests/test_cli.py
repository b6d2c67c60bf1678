"""Command-line interface: subcommands, exit codes, stream separation."""

from __future__ import annotations

import io
import json
import os
import random
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import imog
from conftest import FIXTURES
from genmodels import LEXER_ALPHABET
from imog import cli
from imog.cli import run

ESCOOTER = str(FIXTURES / "escooter.imog")
CONFLICT = str(FIXTURES / "conflict.imog")


def invoke(*argv, env=None):
    out, err = io.StringIO(), io.StringIO()
    if env:

        saved = {k: os.environ.get(k) for k in env}
        os.environ.update(env)
        try:
            code = run(list(argv), out, err)
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
    else:
        code = run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


def test_check_clean_fixture_exits_zero():
    code, out, err = invoke("check", ESCOOTER)
    assert code == 0
    assert "0 error(s)" in out
    assert "W-202" in err and "C-301" not in err


def test_check_conflict_fixture_exits_one_with_single_c301():
    code, out, err = invoke("check", CONFLICT)
    assert code == 1
    assert len([l for l in err.splitlines() if l.startswith("C-301")]) == 1


def test_check_records_format_is_json_lines():
    code, _out, err = invoke("check", CONFLICT, "--format", "records")
    assert code == 1
    records = [json.loads(l) for l in err.splitlines()]
    assert any(r["code"] == "C-301" for r in records)
    assert all(
        set(r) == {"code", "severity", "message", "elements", "span"}
        for r in records
    )


def test_check_missing_file_exits_two():
    code, _out, err = invoke("check", "no_such_file.imog")
    assert code == 2
    assert err


def test_usage_error_exits_two():
    code, _out, err = invoke("vars", ESCOOTER)  # no analysis flag
    assert code == 2
    assert "usage" in err.lower()


def test_argument_parser_is_built_once_and_reused(capsys):
    assert cli.build_parser() is cli.build_parser()
    code, out, _err = invoke("vars", ESCOOTER, "--count")
    assert (code, out) == (0, "14\n")
    code, out, _err = invoke("check", ESCOOTER)
    assert code == 0 and out.startswith(f"{ESCOOTER}: 0 error(s)")
    assert invoke("--help")[0] == 0
    assert capsys.readouterr().out.startswith("usage: imog")
    assert invoke("vars", ESCOOTER, "--dead") == (0, "", "")


def test_unexpected_exception_is_one_internal_error_line(monkeypatch):
    def broken(path):
        raise RuntimeError("boom\n  at depth")

    monkeypatch.setattr(cli, "parse_file", broken)
    code, out, err = invoke("check", ESCOOTER)
    assert code == 2
    assert out == ""
    assert err == "imog: internal error: RuntimeError: boom at depth\n"


# --- inputs at the extremes end in diagnostics, never a traceback ---------------

CHAIN_DEPTH = 3000


@pytest.fixture(scope="module")
def deep_chain(tmp_path_factory):
    """A feature chain CHAIN_DEPTH mandatory levels deep."""
    features = [
        f'feature F{i} "f{i}" {{ mandatory F{i + 1} }}' for i in range(CHAIN_DEPTH - 1)
    ]
    features.append(f'feature F{CHAIN_DEPTH - 1} "leaf"')
    path = tmp_path_factory.mktemp("deep") / "chain.imog"
    path.write_text(f'model "Chain" {{ functional {{ {" ".join(features)} }} }}\n')
    return str(path)


@pytest.fixture(scope="module")
def repeated_headers(tmp_path_factory):
    path = tmp_path_factory.mktemp("deep") / "models.imog"
    path.write_text("model " * 5000 + "\n")
    return str(path)


def test_check_deep_feature_chain(deep_chain):
    code, out, err = invoke("check", deep_chain)
    assert code in (0, 1)
    assert out.startswith(f"{deep_chain}: 0 error(s)")
    assert err.count("W-202") == CHAIN_DEPTH


def test_vars_count_deep_feature_chain_hits_budget(deep_chain):
    code, out, err = invoke("vars", deep_chain, "--count")
    assert code == 2
    assert out == ""
    assert err == (
        f"imog: feature model has {CHAIN_DEPTH} features, enumeration budget is 24\n"
    )


def test_check_repeated_model_headers(repeated_headers):
    code, _out, err = invoke("check", repeated_headers)
    assert code == 1
    lines = err.splitlines()
    assert lines and all(line.startswith("P-001 error") for line in lines)


def every_file_command(path: str, store: str, element: str = "F1") -> list[tuple]:
    """Each subcommand and analysis flag that reads the model file `path`."""
    return [
        ("check", path),
        ("vars", path, "--count"),
        ("vars", path, "--enumerate", "3"),
        ("vars", path, "--dead"),
        ("vars", path, "--select", f"{element}=in"),
        ("trace", path, "--coverage"),
        ("trace", path, "--impact", element),
        ("trace", path, "--conflicts"),
        ("view", path, "--levels", "system", "--perspectives", "functional"),
        ("export", path, "--graph"),
        ("export", path, "--reqtable"),
        ("export", path, "--roadmap"),
        ("kb", "--store", store, "extract", path, element),
        ("kb", "--store", store, "check", path),
    ]


def assert_every_command_ends_in_an_exit_code(path: str, store: str) -> None:
    """Each subcommand and analysis flag on `path` exits 0, 1 or 2, never crashing."""
    for argv in every_file_command(path, store):
        code, _out, err = invoke(*argv)
        assert code in (0, 1, 2), argv
        assert "internal error" not in err, argv


def test_every_command_ends_in_an_exit_code(deep_chain, repeated_headers, tmp_path):
    store = str(tmp_path / "kb.imogkb")
    for path in (deep_chain, repeated_headers):
        assert_every_command_ends_in_an_exit_code(path, store)


FIXTURE_TEXTS = [
    (FIXTURES / f"{name}.imog").read_text(encoding="utf-8")
    for name in ("escooter", "conflict", "conflicts_two", "kbref_late")
]


@st.composite
def damaged_fixture_text(draw):
    """Fixture text cut at a random offset, or with a slice overwritten."""
    text = draw(st.sampled_from(FIXTURE_TEXTS))
    i = draw(st.integers(0, len(text)))
    if draw(st.booleans()):
        return text[:i]
    j = draw(st.integers(i, min(len(text), i + 80)))
    filler = draw(st.lists(st.sampled_from(LEXER_ALPHABET), max_size=12))
    return text[:i] + "".join(filler) + text[j:]


@settings(max_examples=25, deadline=None)
@given(text=damaged_fixture_text())
def test_every_command_survives_damaged_fixtures(tmp_path_factory, text):
    folder = tmp_path_factory.mktemp("damaged")
    path = folder / "damaged.imog"
    path.write_text(text, encoding="utf-8")
    assert_every_command_ends_in_an_exit_code(str(path), str(folder / "kb.imogkb"))


# Extremes of depth and width. Each input goes through every command
# (about 10 s in all), so sizes are drawn from narrow ranges and each
# test runs few examples.


def assert_text_ends_in_an_exit_code(folder: Path, text: str) -> None:
    path = folder / "extreme.imog"
    path.write_text(text, encoding="utf-8")
    assert_every_command_ends_in_an_exit_code(str(path), str(folder / "kb.imogkb"))


_BODY_HEADS = {
    "feature": 'model "M" { functional { feature F1 "f" { mandatory F2 ',
    "block": 'model "M" { structural { block B "b" level system { kbref K ',
}


@settings(max_examples=6, deadline=None)
@given(
    head=st.sampled_from(sorted(_BODY_HEADS)),
    shape=st.sampled_from(["nested", "open", "close", "mixed"]),
    n=st.integers(1000, 4000),
    seed=st.integers(0, 2**32),
)
def test_thousands_of_braces_in_a_body(tmp_path_factory, head, shape, n, seed):
    rng = random.Random(seed)
    braces = {
        "nested": "{ " * n + "} " * n,
        "open": "{ " * n,
        "close": "} " * n,
        "mixed": " ".join(rng.choice("{}") for _ in range(n)),
    }[shape]
    text = _BODY_HEADS[head] + braces + " } } }"
    assert_text_ends_in_an_exit_code(tmp_path_factory.mktemp("braces"), text)


@settings(max_examples=1, deadline=None)
@given(n=st.integers(18000, 20000), seed=st.integers(0, 2**32))
def test_one_section_with_twenty_thousand_statements(tmp_path_factory, n, seed):
    rng = random.Random(seed)
    statements = ('goal G{} "g"', 'note N{} "n"')
    body = " ".join(rng.choice(statements).format(i) for i in range(n))
    text = f'model "M" {{ functional {{ feature F1 "f" }} strategy {{ {body} }} }}'
    assert_text_ends_in_an_exit_code(tmp_path_factory.mktemp("long"), text)


@settings(max_examples=2, deadline=None)
@given(n=st.integers(1000, 3000), declared=st.booleans())
def test_orgroup_with_thousands_of_members(tmp_path_factory, n, declared):
    members = [f"A{i}" for i in range(n)]
    features = " ".join(f'feature {m} "a"' for m in members) if declared else ""
    text = (
        f'model "M" {{ functional {{ feature F1 "r" '
        f'{{ orgroup [1..{n}] {{ {" ".join(members)} }} }} {features} }} }}'
    )
    assert_text_ends_in_an_exit_code(tmp_path_factory.mktemp("wide"), text)


@settings(max_examples=3, deadline=None)
@given(
    piece=st.sampled_from(["x", "x\\n", '\\"']),
    closed=st.booleans(),
    size=st.integers(190_000, 200_000),
)
def test_single_line_string_of_200_kb(tmp_path_factory, piece, closed, size):
    string = '"' + piece * (size // len(piece)) + ('"' if closed else "")
    text = f'model "M" {{ strategy {{ goal F1 {string} }} }}'
    assert_text_ends_in_an_exit_code(tmp_path_factory.mktemp("string"), text)


@pytest.mark.parametrize("source", ["x ²", "1.²", "-²"])
def test_check_non_decimal_digit_is_a_parse_error(tmp_path, source):
    path = tmp_path / "digits.imog"
    path.write_text(source + "\n", encoding="utf-8")
    code, _out, err = invoke("check", str(path))
    assert code == 1
    assert "unexpected character '²'" in err
    assert "internal error" not in err


def test_vars_count_matches_committed_expectation():
    code, out, _err = invoke("vars", ESCOOTER, "--count")
    assert code == 0
    assert out.strip() == "14"


def test_vars_enumerate_records():
    code, out, _err = invoke("vars", ESCOOTER, "--enumerate", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert all(l.startswith("E-Scooter,") for l in lines)


def test_vars_enumerate_negative_limit_is_a_usage_error():
    # slicing once turned -12 into "all but the last 12": 2 of 14 lines
    code, out, err = invoke("vars", ESCOOTER, "--enumerate", "-12")
    assert (code, out) == (2, "")
    assert err.startswith(
        "imog vars: error: argument --enumerate: must not be negative: -12\n"
    )
    code, out, err = invoke("vars", ESCOOTER, "--enumerate", "0")
    assert (code, out, err) == (0, "", "")


def test_vars_dead_empty():
    code, out, _err = invoke("vars", ESCOOTER, "--dead")
    assert code == 0
    assert out == ""


def test_vars_select_propagation():
    code, out, _err = invoke("vars", ESCOOTER, "--select", "F_swap=in")
    assert code == 0
    assert "forced-in:" in out and "F_liion" in out
    assert "forced-out:" in out


def test_vars_select_conflict_reported():
    code, out, _err = invoke(
        "vars", ESCOOTER, "--select", "F_swap=in,F_liion=out"
    )
    assert code == 0
    assert "conflict:" in out


def test_vars_enumerate_limit_that_is_not_a_number_is_a_usage_error():
    code, out, err = invoke("vars", ESCOOTER, "--enumerate", "abc")
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert lines[0] == "imog vars: error: argument --enumerate: invalid int value: 'abc'"
    assert lines[1].startswith("usage: imog vars ")


def test_vars_select_skips_blank_parts():
    assert invoke("vars", ESCOOTER, "--select", "F_swap=in,,") == invoke(
        "vars", ESCOOTER, "--select", "F_swap=in"
    )
    code, out, _err = invoke("vars", ESCOOTER, "--select", "F_swap=in,,")
    assert code == 0 and len(out.splitlines()) == 3


def test_vars_select_bad_part_is_a_usage_error(tmp_path):
    broken = tmp_path / "broken.imog"
    broken.write_text('model "M" {', encoding="utf-8")
    code, out, err = invoke("vars", ESCOOTER, "--select", "F_swap=maybe")
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert lines[0] == (
        "imog vars: error: argument --select: "
        "bad selection 'F_swap=maybe': expected id=in or id=out"
    )
    assert lines[1].startswith("usage: imog vars ")
    # a usage error comes before the file's parse diagnostics
    assert invoke("vars", str(broken), "--select", "F_swap=maybe") == (code, out, err)


def test_vars_dead_lists_dead_features_sorted(tmp_path):
    path = tmp_path / "dead.imog"
    path.write_text(
        'model "M" { functional { feature R "r" { mandatory A optional D optional C } '
        'feature A "a" feature D "d" feature C "c" excludes A -> C excludes A -> D } }\n',
        encoding="utf-8",
    )
    assert invoke("vars", str(path), "--dead") == (0, "C\nD\n", "")


def test_trace_coverage_payload_on_stdout():
    code, out, err = invoke("trace", ESCOOTER, "--coverage")
    assert code == 0
    assert "unallocated features/functions:" in out
    assert err == ""


def test_trace_impact():
    code, out, _err = invoke("trace", ESCOOTER, "--impact", "G_mobility")
    assert code == 0
    assert "B_battery" in out.splitlines()


def test_trace_conflicts_exit_code():
    code, _out, err = invoke("trace", CONFLICT, "--conflicts")
    assert code == 1
    assert "C-301" in err
    code, _out, err = invoke("trace", ESCOOTER, "--conflicts")
    assert code == 0


def test_view_prints_parseable_dsl(tmp_path):
    out_file = tmp_path / "view.imog"
    code, out, _err = invoke(
        "view",
        ESCOOTER,
        "--levels",
        "context",
        "--perspectives",
        "structural",
        "--out",
        str(out_file),
    )
    assert code == 0
    assert out == ""  # payload went to the file
    import imog

    result = imog.parse(out_file.read_text(), "view.imog")
    assert result.ok
    assert "B_escooter" in result.model.elements
    assert "B_motor" not in result.model.elements


def test_out_through_a_symlink_writes_its_target_and_keeps_its_mode(tmp_path):
    target = tmp_path / "view.imog"
    target.write_text("old\n", encoding="utf-8")
    target.chmod(0o640)
    link = tmp_path / "link.imog"
    link.symlink_to(target.name)
    code, out, err = invoke("export", ESCOOTER, "--graph", "--out", str(link))
    assert (code, out, err) == (0, "", "")
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_text(encoding="utf-8").startswith("digraph")
    assert stat.S_IMODE(target.stat().st_mode) == 0o640


def test_failed_out_write_leaves_the_file_and_no_temporary_file(tmp_path, monkeypatch):
    target = tmp_path / "view.imog"
    target.write_bytes(b"old view\n")

    def refuse(src, dst):
        raise OSError(28, "No space left on device", src)

    monkeypatch.setattr(os, "replace", refuse)
    for argv in (
        ("view", ESCOOTER, "--levels", "context", "--perspectives", "structural"),
        ("export", ESCOOTER, "--roadmap"),
    ):
        code, out, err = invoke(*argv, "--out", str(target))
        assert (code, out) == (2, "")
        assert err == f"imog: [Errno 28] No space left on device: {str(target)!r}\n"
        assert target.read_bytes() == b"old view\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["view.imog"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_out_into_a_fifo_writes_through_it_and_keeps_it(tmp_path):
    fifo = tmp_path / "view.fifo"
    os.mkfifo(fifo)
    for argv in (
        ("view", ESCOOTER, "--levels", "context", "--perspectives", "structural"),
        ("export", ESCOOTER, "--roadmap"),
    ):
        _code, want, _err = invoke(*argv)
        got: list[str] = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text(encoding="utf-8")), daemon=True)
        reader.start()
        code, out, err = invoke(*argv, "--out", str(fifo))
        reader.join(timeout=10)
        assert (code, out, err) == (0, "", "")
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert got == [want]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["view.fifo"]


def test_a_write_into_a_missing_directory_names_the_path(tmp_path):
    # not the temporary file, whose random name made the line differ per run
    target = tmp_path / "missing" / "out"
    for argv in (
        ("export", ESCOOTER, "--graph", "--out", str(target)),
        ("kb", "--store", str(target), "extract", ESCOOTER, "B_motor"),
    ):
        code, out, err = invoke(*argv, env={"SOURCE_DATE_EPOCH": "1750000000"})
        assert (code, out) == (2, "")
        assert err == f"imog: [Errno 2] No such file or directory: {str(target)!r}\n"


def test_export_graph_reqtable_roadmap(tmp_path):
    for flag, marker in (
        ("--graph", "digraph"),
        ("--reqtable", "id,name,target"),
        ("--roadmap", "# Roadmap scaffold"),
    ):
        code, out, _err = invoke("export", ESCOOTER, flag)
        assert code == 0
        assert marker in out


def test_kb_extract_query_check(tmp_path):
    store = str(tmp_path / "kb.imogkb")
    env = {"SOURCE_DATE_EPOCH": "1750000000"}
    code, out, err = invoke(
        "kb", "--store", store, "extract", ESCOOTER, "B_motor", "V_liion48",
        env=env,
    )
    assert code == 0
    assert "entry B_motor" in out
    assert err == ""

    code, out, _err = invoke("kb", "--store", store, "query", "--type", "block")
    assert code == 0
    assert out.splitlines()[0].startswith("entry B_motor")

    code, out, _err = invoke(
        "kb", "--store", store, "query", "--max-year", "2025"
    )
    assert [l.split()[1] for l in out.splitlines()] == ["B_motor"]

    source = tmp_path / "refs.imog"
    source.write_text(
        'model "M" { structural { block B "b" level system { kbref B_motor kbref K_gone } } }'
    )
    code, _out, err = invoke("kb", "--store", store, "check", str(source))
    assert code == 1
    assert "R-401" in err and "K_gone" in err


def test_kb_store_env_variable(tmp_path):
    store = tmp_path / "env.imogkb"
    env = {"IMOG_KB": str(store), "SOURCE_DATE_EPOCH": "1750000000"}
    code, _out, _err = invoke("kb", "extract", ESCOOTER, "B_motor", env=env)
    assert code == 0
    assert store.exists()


def test_kb_extract_missing_year_warns_on_stderr(tmp_path):
    store = str(tmp_path / "kb.imogkb")
    env = {"SOURCE_DATE_EPOCH": "1750000000"}
    code, out, err = invoke(
        "kb", "--store", store, "extract", ESCOOTER, "B_battery", env=env
    )
    assert code == 0
    assert "W-401" in err
    assert "entry B_battery" in out


@pytest.mark.parametrize(
    "epoch", ["abc", "99999999999999999999"], ids=["not-a-number", "out-of-range"]
)
def test_kb_extract_refuses_a_bad_source_date_epoch(tmp_path, epoch):
    store = tmp_path / "kb.imogkb"
    code, out, err = invoke(
        "kb", "--store", str(store), "extract", ESCOOTER, "B_battery",
        env={"SOURCE_DATE_EPOCH": epoch},
    )
    assert (code, out) == (2, "")
    assert err == f"imog: SOURCE_DATE_EPOCH={epoch!r} is not a count of seconds in range\n"
    assert not store.exists()


def test_kb_extract_fallback_year_is_the_whole_timestamp_year(tmp_path):
    store = tmp_path / "kb.imogkb"
    code, out, err = invoke(
        "kb", "--store", str(store), "extract", ESCOOTER, "B_battery",
        env={"SOURCE_DATE_EPOCH": "99999999999999"},
    )
    assert code == 0
    assert "has no usable year property, assuming 3170843" in err
    assert 'year=3170843 provenance="E-Scooter@3170843-11-07T09:46:39Z"' in out


def test_kb_extract_refuses_a_fallback_year_before_1900(tmp_path):
    store = tmp_path / "kb.imogkb"
    env = {"SOURCE_DATE_EPOCH": "-99999999999999"}
    code, out, err = invoke(
        "kb", "--store", str(store), "extract", ESCOOTER, "B_battery", env=env
    )
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "W-401" not in err
    assert err.startswith("imog: 'B_battery' has no usable year property")
    assert "-3166904" in err and "SOURCE_DATE_EPOCH" in err
    assert not store.exists()
    code, out, err = invoke(
        "kb", "--store", str(store), "extract", ESCOOTER, "B_motor", env=env
    )
    assert (code, err) == (0, "")
    assert "year=2025" in out


def test_kb_query_on_a_year_of_non_ascii_digits_exits_two(tmp_path):
    store = tmp_path / "kb.imogkb"
    store.write_text('entry K name="k" type=t year=² provenance="m@t"\n', encoding="utf-8")
    code, out, err = invoke("kb", "--store", str(store), "query")
    assert (code, out) == (2, "")
    assert err == f"imog: {store}:1: corrupt store line: bad year '²'\n"


def test_kb_query_on_a_store_that_is_not_utf8_exits_two(tmp_path):
    store = tmp_path / "kb.imogkb"
    store.write_bytes(b'entry K name="k" type=t year=2024 provenance="m@t"\n# \xff\n')
    code, out, err = invoke("kb", "--store", str(store), "query")
    assert (code, out) == (2, "")
    assert err == (
        f"imog: {store}:2: corrupt store line: not UTF-8 text: invalid start byte\n"
    )


def test_check_on_a_model_that_is_not_utf8_exits_two(tmp_path):
    path = tmp_path / "latin1.imog"
    path.write_bytes('model "M" {\n  strategy { goal G "Grüße" }\n}\n'.encode("latin-1"))
    code, out, err = invoke("check", str(path))
    assert (code, out) == (2, "")
    assert err == f"imog: {path}:2: not UTF-8 text: invalid start byte\n"


_STORE_ALPHABET = st.sampled_from(
    ['"', "\\", "=", "\t", " ", "\n", "\r", "#", "@", "entry ", "name=", "type=t ",
     "year=", "2024", "prop.", "provenance=", "x", "K", "-1.5kg", "²"]
)


@settings(max_examples=200, deadline=None)
@given(
    text=st.one_of(
        st.text(),
        st.lists(_STORE_ALPHABET, max_size=40).map("".join),
        st.binary().map(lambda b: b.decode("latin-1")),
    ),
    raw=st.binary(max_size=8),
)
def test_kb_query_on_any_store_text_exits_zero_or_two(tmp_path_factory, text, raw):
    store = tmp_path_factory.mktemp("store") / "kb.imogkb"
    store.write_bytes(text.encode("utf-8", "surrogatepass") + raw)
    code, _out, err = invoke("kb", "--store", str(store), "query")
    assert code in (0, 2)
    assert "internal error" not in err


# --- numbers: exact when printed, refused when out of range ---------------


def _block_model(tmp_path, body: str, requirements: str = "") -> str:
    path = tmp_path / "numbers.imog"
    quality = f"quality {{ {requirements} }}" if requirements else ""
    path.write_text(
        f'model "M" {{ {quality} structural {{ block B "b" level system {body} }} }}\n',
        encoding="utf-8",
    )
    return str(path)


def test_tiny_bounds_conflict_survives_view(tmp_path):
    # both bounds used to print as `0`, and the view checked clean
    source = _block_model(
        tmp_path,
        "",
        'requirement R1 "a" on B attr i <= 0.0000000000001 A '
        'requirement R2 "b" on B attr i >= 0.0000000000002 A',
    )
    code, _out, err = invoke("check", source)
    assert code == 1
    assert "R1 direct [-inf, 0.0000000000001]; R2 direct [0.0000000000002, inf]" in err
    view = tmp_path / "view.imog"
    code, _out, _err = invoke(
        "view", source, "--levels", "system", "--perspectives", "quality", "structural",
        "--out", str(view),
    )
    assert code == 0
    text = view.read_text(encoding="utf-8")
    assert "<= 0.0000000000001 A" in text and ">= 0.0000000000002 A" in text
    code, _out, err = invoke("check", str(view))
    assert code == 1
    assert len([l for l in err.splitlines() if l.startswith("C-301")]) == 1


def test_conflict_message_shows_bounds_exactly(tmp_path):
    # `:g` wrote `[-inf, 1e+06]; [1e+06, inf]`, which reads as no conflict
    source = _block_model(
        tmp_path,
        "",
        'requirement R1 "a" on B attr i <= 1000000.1 A '
        'requirement R2 "b" on B attr i >= 1000000.2 A',
    )
    code, _out, err = invoke("check", source)
    assert code == 1
    assert "R1 direct [-inf, 1000000.1]; R2 direct [1000000.2, inf]" in err


@pytest.mark.parametrize(
    "literal, digits",
    [("1" * 5000, 5000), ("-" + "9" * 308, 308), ("4" * 400 + ".5", 400)],
    ids=["int-5000", "negative-308", "decimal-400"],
)
def test_long_number_literal_is_a_parse_error(tmp_path, literal, digits):
    source = _block_model(tmp_path, f"{{ n: {literal} }}")
    message = f"number with {digits} digits before the point is out of range (below 1e308)"
    for argv in (
        ("check", source),
        ("view", source, "--levels", "system", "--perspectives", "structural"),
        ("export", source, "--reqtable"),
    ):
        code, out, err = invoke(*argv)
        assert (code, out.count("\n")) == (1, argv[0] == "check"), argv
        assert [l for l in err.splitlines() if l.startswith("P-")] == [
            f"P-001 error {source}:1:57 {message}"
        ]
        assert literal[2:] not in err and "internal error" not in err


def test_longest_number_literals_are_printed_exactly(tmp_path):
    longest = "9" * 16 + "0" * 292  # 308 digits, below 1e308
    source = _block_model(tmp_path, f"{{ n: {longest}.5 m: -{longest} l: {'9' * 307} }}")
    code, out, _err = invoke(
        "view", source, "--levels", "system", "--perspectives", "structural"
    )
    assert code == 0
    block = imog.parse(out).model.elements["B"]
    assert block.property_value("n") == float(longest)
    assert block.property_value("m") == -int(longest)
    assert block.property_value("l") == int("9" * 307)


@pytest.mark.parametrize(
    "field, reason",
    [
        ("year=" + "2" * 5000, "bad year '" + "2" * 5000 + "'"),
        ("year=2024 prop.n=" + "2" * 5000, "bad value '" + "2" * 5000 + "' for property 'n'"),
        ("year=2024 prop.n=" + "3" * 400 + ".5kg", "bad value '" + "3" * 400 + ".5kg' for property 'n'"),
    ],
    ids=["year-5000", "prop-5000", "prop-decimal-400"],
)
def test_kb_query_on_a_long_store_number_exits_two(tmp_path, field, reason):
    store = tmp_path / "kb.imogkb"
    store.write_text(f'entry K name="k" type=t {field} provenance="m@t"\n', encoding="utf-8")
    code, out, err = invoke("kb", "--store", str(store), "query")
    assert (code, out) == (2, "")
    assert err == f"imog: {store}:1: corrupt store line: {reason}\n"


@pytest.mark.parametrize(
    "block, reason",
    [
        ('block Bé "b" level system { year: 2024 }', "bad entry id 'Bé'"),
        ('block B "b" level system { year: 2024 r: 10 Ω }', "bad value '10Ω' for property 'r'"),
        (
            'block B "b" level system { year: 2024 stereotype: "Battery Pack" }',
            "field 'Pack' has no value",
        ),
    ],
    ids=["id", "unit", "type"],
)
def test_kb_extract_never_writes_a_line_the_store_refuses(tmp_path, block, reason):
    source = tmp_path / "m.imog"
    source.write_text(f'model "M" {{ structural {{ {block} }} }}\n', encoding="utf-8")
    store = tmp_path / "kb.imogkb"
    seeded = b'entry K name="k" type=t year=2024 provenance="m@t"\n'
    store.write_bytes(seeded)
    element = block.split()[1]
    code, out, err = invoke("kb", "--store", str(store), "extract", str(source), element)
    assert (code, out) == (2, "")
    assert err == f"imog: cannot store {element!r}: {reason}\n"
    assert store.read_bytes() == seeded
    code, out, _err = invoke("kb", "--store", str(store), "query")
    assert (code, out) == (0, seeded.decode())


def test_parse_error_exits_one():
    bad = FIXTURES / ".." / "bad_tmp.imog"
    bad.write_text('model "B" { functional { feature F } }')
    try:
        code, _out, err = invoke("check", str(bad))
        assert code == 1
        assert "P-001" in err
    finally:
        bad.unlink()


# --- what each command reads: its own parse, a parsed or a resolved model ---


def test_a_model_that_does_not_parse_stops_every_command(tmp_path):
    path = tmp_path / "bad.imog"
    path.write_text('model "M" { functional { feature F }\n', encoding="utf-8")
    store = tmp_path / "kb.imogkb"
    parse_errors = (
        f"P-001 error {path}:1:36 expected name string, found '}}'\n"
        f"P-001 error {path}:2:1 unexpected end of input, expected '}}'\n"
    )
    for argv in every_file_command(str(path), str(store), "F"):
        summary = f"{path}: 2 error(s), 0 warning(s), 0 info(s)\n" if argv[0] == "check" else ""
        assert invoke(*argv) == (1, summary, parse_errors), argv
    assert not store.exists()


def test_only_view_and_export_print_a_model_that_does_not_resolve(tmp_path):
    path = tmp_path / "dangling.imog"
    path.write_text(
        'model "M" { functional { feature F "f" { mandatory G } } }\n', encoding="utf-8"
    )
    store = tmp_path / "kb.imogkb"
    r101 = f"R-101 error {path}:1:42 unresolved reference 'G' in mandatory relation [G F]\n"
    for argv in every_file_command(str(path), str(store), "F"):
        code, out, err = invoke(*argv)
        if argv[0] in ("view", "export"):
            assert (code, err) == (0, ""), argv
            assert out, argv
        elif argv[0] == "check":
            assert code == 1 and r101 in err
            assert out.startswith(f"{path}: 1 error(s)")
        else:
            assert (code, out, err) == (1, "", r101), argv
    assert not store.exists()


def run_module(module: str, *argv: str) -> subprocess.CompletedProcess:
    # the child imports imog from where this process did
    package_root = str(Path(imog.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True,
        text=True,
        env={
            **os.environ,
            "PYTHONPATH": package_root + (os.pathsep + path if path else ""),
        },
    )


def test_entry_point_subprocess():
    proc = run_module("imog.cli", "check", ESCOOTER)
    assert proc.returncode == 0
    assert "0 error(s)" in proc.stdout


def test_package_runs_as_module():
    proc = run_module("imog", "check", ESCOOTER)
    assert proc.returncode == 0
    assert "0 error(s)" in proc.stdout


def test_cli_runs_are_byte_identical():
    commands = [
        ("check", ESCOOTER),
        ("check", CONFLICT),
        ("vars", ESCOOTER, "--count"),
        ("vars", ESCOOTER, "--enumerate", "5"),
        ("trace", ESCOOTER, "--coverage"),
        ("export", ESCOOTER, "--graph"),
        ("export", ESCOOTER, "--roadmap"),
    ]
    for argv in commands:
        first = invoke(*argv)
        second = invoke(*argv)
        assert first == second, argv
