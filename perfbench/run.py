"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload system --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. It starts `worker.py` as a child
process, waits for it, and relays its output; the last line is the result object
(`correct`, `attempted`, `failed`, `metrics`). With `--trace 0` the
metrics are the end-to-end ones, with `--trace 1` the per-layer ones
from a traced run, whose spans are written under `.perfbench/`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("system", "bulk", "features", "store")
CHILD_LIMIT_S = 170  # a run must end within 180 s


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "imog" / "cli.py").is_file():
        print(f"perfbench: no imog sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(work),
        "--spans", str(OUT / f"spans-{args.workload}-{args.seed}.jsonl"),
    ]
    child = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = child.communicate(timeout=CHILD_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        print(f"perfbench: {args.workload} run exceeded {CHILD_LIMIT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.splitlines()
    if child.returncode != 0 or not lines:
        sys.stdout.write(out)
        print(f"perfbench: worker exited with {child.returncode}", file=sys.stderr)
        return child.returncode or 4
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print("perfbench: worker printed no result object", file=sys.stderr)
        return 4
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
