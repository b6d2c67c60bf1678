"""Command-line interface: subcommands, exit codes, stream separation."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import imog
from conftest import FIXTURES
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


def test_parse_error_exits_one():
    bad = FIXTURES / ".." / "bad_tmp.imog"
    bad.write_text('model "B" { functional { feature F } }')
    try:
        code, _out, err = invoke("check", str(bad))
        assert code == 1
        assert "P-001" in err
    finally:
        bad.unlink()


def test_entry_point_subprocess():
    # the child imports imog from where this process did
    package_root = str(Path(imog.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    proc = subprocess.run(
        [sys.executable, "-m", "imog.cli", "check", ESCOOTER],
        capture_output=True,
        text=True,
        env={
            **os.environ,
            "PYTHONPATH": package_root + (os.pathsep + path if path else ""),
        },
    )
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
