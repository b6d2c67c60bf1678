"""Smoke test of the benchmark harness at tiny sizes.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json

import pytest

import models
import worker

BENCHMARK = json.loads((worker.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def _restore_environment(monkeypatch):
    # run() pins SOURCE_DATE_EPOCH and drops IMOG_KB; undo that afterwards
    monkeypatch.setenv("SOURCE_DATE_EPOCH", str(models.SOURCE_DATE_EPOCH))
    monkeypatch.delenv("IMOG_KB", raising=False)


def _run(tmp_path, workload: str, trace: bool):
    return worker.run(
        workload,
        seed=3,
        seconds=0.05,
        trace=trace,
        work=tmp_path / "work",
        spans_out=tmp_path / "spans.jsonl",
        scale="tiny",
    )


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_is_emitted_with_its_unit(tmp_path, workload):
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        report, result = _run(tmp_path, workload, trace)
        assert result["correct"] and result["failed"] == 0, report["failures"]
        assert result["attempted"] >= 1
        wanted = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
        for m in result["metrics"].values():
            assert isinstance(m["value"], (int, float))
    assert (tmp_path / "spans.jsonl").stat().st_size > 0


def test_wrong_known_answer_is_counted_as_failed(tmp_path, monkeypatch):
    real = models.features_model

    def off_by_one(*args, **kwargs):
        text, answers = real(*args, **kwargs)
        return text, {**answers, "count": answers["count"] + 1}

    monkeypatch.setattr(models, "features_model", off_by_one)
    report, result = _run(tmp_path, "features", False)
    assert not result["correct"]
    assert result["failed"] > 0
    assert report["failed_ratio"] > 0
    assert any("vars" in reason for reason in report["failures"])
