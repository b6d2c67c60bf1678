"""One benchmark run of one workload, measured in this process.

`run.py` starts this file as a child process, so each workload runs in
an interpreter of its own. The run generates the workload's corpus from
the seed, imports imog from `src/`, and drives the command script
through `imog.cli.run` as a closed loop: one client, each command issued
after the previous one returned. Every command's exit code and output is
checked against the generator's known answer and against the digest of
its first execution. The last line printed is the result object.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import models
from spans import SPAN_NAMES, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CLI_MAIN = "from imog.cli import main; main()"

END_TO_END = {
    "setup_s": "s",
    "script_s": "s",
    "cmd_ms.p50": "ms",
    "cmd_ms.tail": "ms",
    "cold_cli_s": "s",
    "peak_rss_mb": "MB",
}

_COUNTS = {
    "lexer.tokens": "count",
    "lexer.tokens_per_s": "1/s",
    "parser.elements": "count",
    "parser.relations": "count",
    "resolve.diagnostics": "count",
    "trace.effective_requirements.calls": "count",
    "trace.effective_requirements.entries": "count",
    "trace.conflict_groups": "count",
    "variability.count.ns_per_config": "ns",
    "variability.enumerate.yield_ratio": "ratio",
    "printer.bytes_out": "B",
    "views.bytes_out": "B",
    "knowledge.load.calls": "count",
    "knowledge.save.write_amplification": "ratio",
    "import.imog_s": "s",
    "tracing.overhead_s": "s",
}
GROWTH_LAYERS = ("lexer", "parser", "trace", "printer", "knowledge")
PER_LAYER = {
    **{f"{name}.self_s": "s" for name in SPAN_NAMES},
    **_COUNTS,
    **{f"{layer}.growth": "slope" for layer in GROWTH_LAYERS},
    "trace.depth_growth": "slope",
}

# Sizes are chosen so that one pass of each script takes about a second
# on a 2-CPU machine: a run then holds a dozen or more passes, enough
# that the tail percentile always falls on the slowest command of the
# script instead of moving between commands with the pass count. The
# system sweep steps by 1.5 so that command times have no wide gap near
# their median, which would make the median jump between size classes.
SCALES = {
    "full": {
        "system_fanout": (24, 36, 54),
        "system_chain": (12, 18, 27),
        "bulk_bytes": (25_000, 50_000, 100_000),
        "features_files": 24,
        "features_nodes": (16, 19),
        "features_band": (500, 900),
        "store_batches": 30,
        "store_blocks": 20,
        "store_every": 5,
        "setup_reps": 9,
        "import_runs": 5,
    },
    "tiny": {
        "system_fanout": (6, 12),
        "system_chain": (5, 8),
        "bulk_bytes": (10_000, 20_000),
        "features_files": 2,
        "features_nodes": (8, 10),
        "features_band": (10, 60),
        "store_batches": 4,
        "store_blocks": 3,
        "store_every": 2,
        "setup_reps": 2,
        "import_runs": 1,
    },
}

Expect = Callable[[int, str, str], "str | None"]


@dataclass
class Command:
    argv: list[str]
    expect: Expect  # returns why the result is wrong, or None
    tag: str  # the input the command works on, for per-input spans


@dataclass
class Script:
    commands: list[Command]
    elements: dict[str, int]  # tag -> model elements (store: entries)
    sweep: list[str] = field(default_factory=list)  # tags along the size sweep
    depth_sweep: list[str] = field(default_factory=list)
    cold: Command | None = None  # first command on the smallest input
    cold_index: int = 0  # in-process command whose output the cold run must match
    reset: Callable[[], None] = lambda: None  # before every pass
    after_pass: Callable[[], "str | None"] = lambda: None
    valid_configs: int = 0  # per pass, over the enumerate commands


# --- expectations -----------------------------------------------------------------


def _lines(items) -> str:
    return "".join(f"{item}\n" for item in items)


def _count_codes(err: str, code: str) -> int:
    return sum(1 for line in err.splitlines() if line.startswith(code + " "))


def _expect_exact(code: int, out: str, err: str = "") -> Expect:
    def check(got_code, got_out, got_err):
        if got_code != code:
            return f"exit {got_code}, expected {code}"
        if got_out != out:
            return "stdout differs from the known answer"
        if got_err != err:
            return "stderr differs from the known answer"
        return None

    return check


def _expect_check(path: str, errors: int, warnings: int) -> Expect:
    summary = f"{path}: {errors} error(s), {warnings} warning(s), 0 info(s)\n"

    def check(code, out, err):
        if code != (1 if errors else 0):
            return f"exit {code}"
        if out != summary:
            return f"summary {out.strip()!r}, expected {summary.strip()!r}"
        if _count_codes(err, "C-301") != errors:
            return "C-301 count differs"
        if len(err.splitlines()) != errors + warnings:
            return "diagnostic count differs"
        return None

    return check


def _expect_conflicts(c301: int) -> Expect:
    def check(code, out, err):
        if code != 1 or out:
            return f"exit {code}"
        if _count_codes(err, "C-301") != c301:
            return "C-301 count differs"
        return None

    return check


def _expect_coverage(ans: dict) -> Expect:
    goals = [
        f"  {g}: {' '.join(ans['goal_coverage'][g]) or '(uncovered)'}"
        for g in sorted(ans["goal_coverage"])
    ]

    def check(code, out, err):
        if code != 0 or err:
            return f"exit {code}"
        sections: dict[str, list[str]] = {}
        current: list[str] = []
        for line in out.splitlines()[2:]:
            if line.startswith(" "):
                current.append(line)
            else:
                current = sections.setdefault(line, [])
        unallocated = [s.strip() for s in sections.get("unallocated features/functions:", [])]
        if unallocated != ans["unallocated"]:
            return "unallocated list differs"
        if sections.get("blocks without requirements:") != ["  (none)"]:
            return "unconstrained list differs"
        groups = [s for s in sections.get("requirement conflicts:", []) if not s.startswith("    ")]
        if len(groups) != ans["c301"]:
            return f"{len(groups)} conflict groups, expected {ans['c301']}"
        if sections.get("goal coverage:") != goals:
            return "goal coverage differs"
        return None

    return check


def _expect_roadmap(ans: dict) -> Expect:
    wanted = (
        f"# Roadmap scaffold: {ans['title']}\n",
        f"\nUnallocated features/functions: {len(ans['unallocated'])}\n",
        f"\nRequirement conflicts: {ans['c301']}\n",
    )

    def check(code, out, err):
        if code != 0 or err:
            return f"exit {code}"
        if not out.startswith(wanted[0]) or not all(w in out for w in wanted[1:]):
            return "roadmap counts differ"
        return None

    return check


def _expect_graph(ans: dict) -> Expect:
    def check(code, out, err):
        if code != 0 or err:
            return f"exit {code}"
        lines = out.splitlines()
        edges = sum(1 for line in lines if '" -> "' in line)
        if lines[0] != f'digraph "{ans["title"]}" {{' or lines[-1] != "}":
            return "not a digraph"
        if edges != ans["edges"] or len(lines) - 2 - edges != ans["elements"]:
            return f"{len(lines) - 2 - edges} nodes and {edges} edges"
        return None

    return check


def _expect_table(ans: dict) -> Expect:
    def check(code, out, err):
        if code != 0 or err:
            return f"exit {code}"
        rows = list(csv.reader(io.StringIO(out)))
        if rows[0][0] != "id" or [r[0] for r in rows[1:]] != ans["requirements"]:
            return "requirement rows differ"
        return None

    return check


def _expect_kbcheck(r401: int, i401: int) -> Expect:
    def check(code, out, err):
        if code != (1 if r401 else 0) or out:
            return f"exit {code}"
        if _count_codes(err, "R-401") != r401 or _count_codes(err, "I-401") != i401:
            return "R-401/I-401 counts differ"
        return None

    return check


# --- workloads ----------------------------------------------------------------------


def build_system(rng: random.Random, work: Path, scale: dict) -> Script:
    """Breadth sweep of fan-out-4 trees, then depth sweep of chains."""
    commands: list[Command] = []
    elements: dict[str, int] = {}
    script = Script(commands, elements)
    shapes = [("fanout", n, models.fanout_parents(n)) for n in scale["system_fanout"]]
    shapes += [("chain", n, models.chain_parents(n)) for n in scale["system_chain"]]
    smallest = None
    for shape, n, parents in shapes:
        path = work / f"system_{shape}{n}.imog"
        text, ans = models.system_model(rng, f"System {shape} {n}", parents)
        path.write_text(text, encoding="utf-8")
        p, tag = str(path), path.name
        elements[tag] = ans["elements"]
        (script.sweep if shape == "fanout" else script.depth_sweep).append(tag)
        if smallest is None or len(text) < smallest[0]:
            smallest = (len(text), len(commands))
        commands += [
            Command(["check", p], _expect_check(p, ans["c301"], ans["warnings"]), tag),
            Command(["trace", p, "--coverage"], _expect_coverage(ans), tag),
            Command(["trace", p, "--conflicts"], _expect_conflicts(ans["c301"]), tag),
            Command(
                ["trace", p, "--impact", ans["impact_id"]],
                _expect_exact(0, _lines(ans["impact"])),
                tag,
            ),
            Command(["export", p, "--roadmap"], _expect_roadmap(ans), tag),
        ]
    script.cold_index = smallest[1]
    script.cold = commands[script.cold_index]
    return script


_ALL_LEVELS = ["--levels", "context", "system", "component"]
_ALL_PERSPECTIVES = ["--perspectives", "strategy", "functional", "quality", "structural", "knowledge"]


def build_bulk(rng: random.Random, work: Path, scale: dict) -> Script:
    commands: list[Command] = []
    script = Script(commands, {})
    for size in scale["bulk_bytes"]:
        path = work / f"bulk_{size // 1000}k.imog"
        text, ans = models.bulk_model(rng, f"Bulk {size // 1000}k", size)
        path.write_text(text, encoding="utf-8")
        p, tag = str(path), path.name
        script.elements[tag] = ans["elements"]
        script.sweep.append(tag)
        commands += [
            Command(["check", p], _expect_check(p, 0, ans["warnings"]), tag),
            Command(["view", p, *_ALL_LEVELS, *_ALL_PERSPECTIVES], _expect_exact(0, text), tag),
            Command(["export", p, "--graph"], _expect_graph(ans), tag),
            Command(["export", p, "--reqtable"], _expect_table(ans), tag),
        ]
    script.cold = commands[0]
    return script


def build_features(rng: random.Random, work: Path, scale: dict) -> Script:
    commands: list[Command] = []
    script = Script(commands, {})
    lo, hi = scale["features_nodes"]
    smallest = None
    for i in range(scale["features_files"]):
        path = work / f"features_{i:02d}.imog"
        nodes = lo + i % (hi - lo)
        shape = random.Random(f"features-shape:{i}")  # same solver work for every seed
        text, ans = models.features_model(rng, shape, f"Features {i}", nodes, scale["features_band"])
        path.write_text(text, encoding="utf-8")
        p, tag = str(path), path.name
        script.elements[tag] = ans["elements"]
        script.valid_configs += ans["count"]
        if smallest is None or len(text) < smallest[0]:
            smallest = (len(text), len(commands))
        commands += [
            Command(["vars", p, "--count"], _expect_exact(0, f"{ans['count']}\n"), tag),
            Command(["vars", p, "--enumerate", "10"], _expect_exact(0, _lines(ans["first"])), tag),
            Command(["vars", p, "--dead"], _expect_exact(0, _lines(ans["dead"])), tag),
            Command(["vars", p, "--select", ans["select"]], _expect_exact(0, _lines(ans["propagate"])), tag),
        ]
    script.cold_index = smallest[1]
    script.cold = commands[script.cold_index]
    return script


def build_store(rng: random.Random, work: Path, scale: dict) -> Script:
    """Store grown batch by batch, with queries and a kbref check in between."""
    store, cold_store = work / "store.imogkb", work / "cold.imogkb"
    batches = [models.store_batch(rng, i, scale["store_blocks"]) for i in range(scale["store_batches"])]
    everything = [e["id"] for _, entries in batches for e in entries]
    refs = sorted(rng.sample(everything, min(12, len(everything)))) + ["X999_00", "X999_01"]
    target_year = 2026
    refs_path = work / "refs.imog"
    refs_path.write_text(models.kbref_model(rng, refs, target_year), encoding="utf-8")
    commands: list[Command] = []
    script = Script(commands, {})
    kb = ["kb", "--store", str(store)]
    held: dict[str, dict] = {}
    for i, (text, entries) in enumerate(batches):
        path = work / f"batch_{i:03d}.imog"
        path.write_text(text, encoding="utf-8")
        held.update((e["id"], e) for e in entries)
        tag = f"store_{len(held)}"
        script.elements[tag] = len(held)
        script.sweep.append(tag)
        ids = [e["id"] for e in entries]
        extract = ["extract", str(path), *ids]
        commands.append(Command(kb + extract, _expect_exact(0, _lines(e["line"] for e in entries)), tag))
        if i == 0:
            script.cold = Command(["kb", "--store", str(cold_store), *extract], commands[0].expect, tag)
        if (i + 1) % scale["store_every"]:
            continue
        now = [held[k] for k in sorted(held)]
        etype, year = rng.choice(models.TYPES), rng.randint(2022, 2030)
        by_type = [e["line"] for e in now if e["type"] == etype]
        by_year = [e["line"] for e in now if e["year"] <= year and e["mass"]]
        r401 = sum(1 for r in refs if r not in held)
        i401 = sum(1 for r in refs if r in held and held[r]["year"] > target_year)
        commands += [
            Command(kb + ["query", "--type", etype], _expect_exact(0, _lines(by_type)), tag + "_q"),
            Command(
                kb + ["query", "--max-year", str(year), "--property-key", "mass"],
                _expect_exact(0, _lines(by_year)),
                tag + "_q",
            ),
            Command(kb + ["check", str(refs_path)], _expect_kbcheck(r401, i401), tag + "_q"),
        ]
    final = _lines(held[k]["line"] for k in sorted(held))

    def reset():
        store.unlink(missing_ok=True)
        cold_store.unlink(missing_ok=True)

    def after_pass():
        if store.read_text(encoding="utf-8") != final:
            return f"store does not hold the {len(held)} expected entries"
        return None

    script.reset, script.after_pass = reset, after_pass
    return script


WORKLOADS = {
    "system": build_system,
    "bulk": build_bulk,
    "features": build_features,
    "store": build_store,
}


# --- running ------------------------------------------------------------------------


class Tally:
    """Commands attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter[str] = Counter()

    def fail(self, what: str, reason: str) -> None:
        self.failed += 1
        self.reasons[f"{what}: {reason}"] += 1


def _digest(code, out: str, err: str) -> str:
    return hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()


def import_imog():
    """Fresh import of imog.cli from src/, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "imog" or n.startswith("imog.")]:
        del sys.modules[name]
    cli = importlib.import_module("imog.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imog was imported from {cli.__file__}, not from {SRC}")
    return cli


def run_pass(cli, script: Script, tracer: Tracer | None = None):
    """One pass of the script; returns its wall time and per-command results."""
    script.reset()
    gc.collect()
    results = []
    start = time.perf_counter()
    for command in script.commands:
        if tracer is not None:
            tracer.tag = command.tag
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            code = cli.run(command.argv, stdout=out, stderr=err)
        except Exception as exc:  # a crash is a failed command, not a failed run
            code = f"raised {type(exc).__name__}: {exc}"
        results.append((code, out.getvalue(), err.getvalue(), time.perf_counter() - t0))
    return time.perf_counter() - start, results


def verify(script: Script, results, reference: list[str], tally: Tally) -> None:
    for i, (command, (code, out, err, _)) in enumerate(zip(script.commands, results)):
        tally.attempted += 1
        what = " ".join(os.path.basename(arg) for arg in command.argv[:3])
        if isinstance(code, str):
            tally.fail(what, code)
        elif (reason := command.expect(code, out, err)) is not None:
            tally.fail(what, reason)
        elif _digest(code, out, err) != reference[i]:
            tally.fail(what, "output differs from its first execution")
    if (reason := script.after_pass()) is not None:
        tally.fail("store", reason)


def _fresh_interpreter(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=120
    )
    return time.perf_counter() - t0, proc


def cold_cli(script: Script, reference: list[str], tally: Tally) -> float:
    """Wall time of a fresh interpreter running the script's cold command."""
    command = script.cold
    script.reset()
    elapsed, proc = _fresh_interpreter(["-c", CLI_MAIN, *command.argv])
    tally.attempted += 1
    reason = command.expect(proc.returncode, proc.stdout, proc.stderr)
    if reason is None and _digest(proc.returncode, proc.stdout, proc.stderr) != reference[script.cold_index]:
        reason = "output differs from the in-process run"
    if reason is not None:
        tally.fail("cold " + " ".join(os.path.basename(arg) for arg in command.argv[:3]), reason)
    return elapsed


def import_cost(runs: int) -> float:
    """Median `import imog.cli` in a fresh interpreter minus a median bare start."""
    bare, loaded = [], []
    for _ in range(runs):
        bare.append(_fresh_interpreter(["-c", "pass"])[0])
        loaded.append(_fresh_interpreter(["-c", "import imog.cli"])[0])
    return statistics.median(loaded) - statistics.median(bare)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(time) against log(size); 0 without two points."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


# Whole-call times shown per input of the size sweeps, comparable with
# the per-model baseline table in ROADMAP item 1.
_PER_INPUT = ("parser.parse", "resolve.check_model", "printer.print_model")


def layer_metrics(script: Script, tracers: list[Tracer], overhead: float, import_s: float):
    """Per-layer metrics of the traced passes, and whole-call times per sweep input.

    Times are medians over the traced passes, counts are per pass.
    """
    per_pass = [t.self_times() for t in tracers]

    def self_s(match) -> float:
        """Median over passes of the self time of spans whose (name, tag) match."""
        return statistics.median(sum(v for key, v in st.items() if match(*key)) for st in per_pass)

    def growth(layer: str, tags: list[str]) -> float:
        return slope(
            [(script.elements[t], self_s(lambda n, g: g == t and n.startswith(layer + "."))) for t in tags]
        )

    counts = tracers[0].counts
    metrics = {f"{name}.self_s": self_s(lambda n, g: n == name) for name in SPAN_NAMES}
    tokenize = metrics["lexer.tokenize.self_s"]
    configs = counts["variability.count.configs"]
    written = counts["knowledge.save.bytes_written"]
    metrics.update(
        {
            "lexer.tokens": counts["lexer.tokens"],
            "lexer.tokens_per_s": counts["lexer.tokens"] / tokenize if tokenize else 0.0,
            "parser.elements": counts["parser.elements"],
            "parser.relations": counts["parser.relations"],
            "resolve.diagnostics": counts["resolve.diagnostics"],
            "trace.effective_requirements.calls": counts["trace.effective_requirements.calls"],
            "trace.effective_requirements.entries": counts["trace.effective_requirements.entries"],
            "trace.conflict_groups": counts["trace.conflict_groups"],
            "variability.count.ns_per_config": (
                metrics["variability.count_configurations.self_s"] / configs * 1e9 if configs else 0.0
            ),
            "variability.enumerate.yield_ratio": (
                counts["variability.enumerate.returned"] / script.valid_configs if script.valid_configs else 0.0
            ),
            "printer.bytes_out": counts["printer.bytes_out"],
            "views.bytes_out": counts["views.bytes_out"],
            "knowledge.load.calls": counts["knowledge.load.calls"],
            "knowledge.save.write_amplification": (
                written / counts["knowledge.save.bytes_new"] if written else 0.0
            ),
            "import.imog_s": import_s,
            "tracing.overhead_s": overhead,
            "trace.depth_growth": growth("trace", script.depth_sweep),
        }
    )
    for layer in GROWTH_LAYERS:
        metrics[f"{layer}.growth"] = growth(layer, script.sweep)
    per_input = {}
    for tag in script.sweep + script.depth_sweep:
        row = {"elements": script.elements[tag]}
        for name in _PER_INPUT:
            per_call = []
            for tracer in tracers:
                spans = [end - start for n, start, end, _, g in tracer.spans if n == name and g == tag]
                if spans:
                    per_call.append(sum(spans) / len(spans))
            if per_call:
                row[name + ".call_s"] = statistics.median(per_call)
        per_input[tag] = row
    return metrics, per_input


def write_spans(path: Path, tracers: list[Tracer]) -> None:
    """All spans of the traced passes, one JSON array per line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for number, tracer in enumerate(tracers):
            for index, (name, start, end, parent, tag) in enumerate(tracer.spans):
                fh.write(json.dumps([number, index, name, start, end, parent, tag]) + "\n")


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path, spans_out: Path,
        scale: str = "full") -> tuple[dict, dict]:
    """One run; returns (report, result) where result is the object run.py prints last."""
    sizes = SCALES[scale]
    os.environ["SOURCE_DATE_EPOCH"] = str(models.SOURCE_DATE_EPOCH)
    os.environ.pop("IMOG_KB", None)  # every kb command names its own store
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    setup = []
    corpus = work / "corpus"
    for _ in range(sizes["setup_reps"]):
        shutil.rmtree(corpus, ignore_errors=True)
        t0 = time.perf_counter()
        corpus.mkdir(parents=True)
        script = WORKLOADS[workload](random.Random(f"{workload}:{seed}"), corpus, sizes)
        cli = import_imog()
        setup.append(time.perf_counter() - t0)

    tally = Tally()
    _, first = run_pass(cli, script)  # warm-up, untimed
    reference = [_digest(code, out, err) for code, out, err, _ in first]
    verify(script, first, reference, tally)

    cpus = sorted(os.sched_getaffinity(0))

    def timed(budget: float, traced: bool, between=lambda: None):
        """Passes until the budget is spent: pass walls, command latencies in ms, tracers."""
        walls, latencies, tracers = [], [], []
        deadline = time.perf_counter() + budget
        while True:
            # Contention from other load on a shared machine comes and goes
            # per CPU; passes take turns on the CPUs so that every run sees
            # the same mix of them.
            os.sched_setaffinity(0, {cpus[len(walls) % len(cpus)]})
            tracer = Tracer() if traced else None
            if tracer is not None:
                with tracer:
                    wall, results = run_pass(cli, script, tracer)
                tracers.append(tracer)
            else:
                wall, results = run_pass(cli, script)
            verify(script, results, reference, tally)
            walls.append(wall)
            latencies += [r[3] * 1000 for r in results]
            between()
            if time.perf_counter() >= deadline:
                os.sched_setaffinity(0, cpus)
                return walls, latencies, tracers

    report = {"workload": workload, "seed": seed, "commands_per_pass": len(script.commands)}
    if trace:
        walls, _, _ = timed(seconds / 2, False)
        traced_walls, _, tracers = timed(seconds / 2, True)
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        metrics, per_input = layer_metrics(script, tracers, overhead, import_cost(sizes["import_runs"]))
        write_spans(spans_out, tracers)
        units = PER_LAYER
        report.update(passes=len(walls), traced_passes=len(tracers), spans=str(spans_out), per_input=per_input)
    else:
        # one cold CLI run after every pass spreads those samples over the
        # whole measured interval, like the passes themselves
        cold: list[float] = []
        walls, latencies, _ = timed(seconds, False, lambda: cold.append(cold_cli(script, reference, tally)))
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        tail_ms, percentile = tail(latencies)
        metrics = {
            "setup_s": statistics.median(setup),
            "script_s": statistics.median(walls),
            "cmd_ms.p50": statistics.median(latencies),
            "cmd_ms.tail": tail_ms,
            "cold_cli_s": statistics.median(cold),
            "peak_rss_mb": peak,
        }
        units = END_TO_END
        report.update(
            passes=len(walls),
            samples={
                "setup_s": len(setup),
                "script_s": len(walls),
                "cmd_ms.p50": len(latencies),
                "cmd_ms.tail": len(latencies),
                "cold_cli_s": len(cold),
                "peak_rss_mb": 1,
            },
            tail_percentile=round(percentile, 3),
        )
    report["failed_ratio"] = tally.failed / tally.attempted
    report["failures"] = dict(tally.reasons.most_common(5))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return report, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args()
    report, result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.workdir, args.spans)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
