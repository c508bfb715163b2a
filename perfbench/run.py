"""cycloschur benchmark: one workload per call, run from the repository root.

    python3 perfbench/run.py --workload {hecke-eps,schur-table,verify-all} \\
        --seed N --seconds S --trace {0,1}

Each workload runs in fresh interpreters (closed loop, one client, one
thread) against the package in ./src.  With --trace 0 it prints the
end-to-end metrics; with --trace 1 it runs the same inputs traced and then
untraced and prints the per-layer metrics.  Every metric is printed as
"name value unit"; the last line is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only when every output
was correct.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import slowdown

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("hecke-eps", "schur-table", "verify-all")
# Set-up-only processes per run.
SETUP_SAMPLES = 9
# Passes of an end-to-end run, at least: each op's time is its median.
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150
# op_p90_ms is reported only with at least 10 latencies beyond it.
P90_MIN_OPS = 100


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, *flags: str) -> dict:
    """Run child.py in a fresh interpreter and return its JSON result."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--out-dir", str(OUT), "--t0", repr(t0), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} process timed out after {CHILD_TIMEOUT_S}s")
    if proc.returncode != 0:
        raise BenchError(f"{workload} process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{workload} process printed no result:\n{proc.stderr[-2000:]}")


def setup_time(workload: str, seed: int) -> tuple[float, float]:
    """One set-up-only process: raw set-up time, and at the reference speed."""
    before = slowdown()
    raw = spawn(workload, seed, "--setup-only")["setup_s"]
    return raw, raw / ((before + slowdown()) / 2)


def end_to_end(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    setups = [setup_time(workload, seed) for _ in range(SETUP_SAMPLES)]
    res = spawn(workload, seed, "--budget", str(seconds), "--min-passes", str(MIN_PASSES),
                "--calibrate")
    if res["wrappers"]:
        raise BenchError(f"wrappers installed in the end-to-end run: {res['wrappers']}")
    # Every pass runs the same ops in the same order.  Each op's time is its
    # median over the passes, rescaled to the machine's usual speed (see
    # calibration.py); a pass's time is the sum of those.
    raw = [statistics.median(t) for t in zip(*res["latencies"])]
    op_s = [statistics.median(t) for t in zip(*res["rescaled"])]
    op_ms = sorted(x * 1000 for x in op_s)
    metrics = {
        "wall_s": (sum(op_s), "s"),
        "setup_s": (statistics.median(cal for _, cal in setups), "s"),
        "op_p50_ms": (statistics.median(op_ms), "ms"),
        "peak_rss_mb": (res["rss_mb"], "MB"),
    }
    info = {
        "passes": (len(res["pass_s"]), "count"),
        "ops": (len(op_ms), "count"),
        "slowdown": (sum(raw) / sum(op_s), "ratio"),
        "wall_raw_s": (sum(raw), "s"),
        "setup_raw_s": (statistics.median(r for r, _ in setups), "s"),
        "op_p50_raw_ms": (statistics.median(raw) * 1000, "ms"),
        "error_rate": (res["failed"] / res["attempted"], "ratio"),
    }
    if len(op_ms) >= P90_MIN_OPS:
        info["op_p90_ms"] = (statistics.quantiles(op_ms, n=10)[-1], "ms")
    return res, {"metrics": metrics, "info": info}


def traced(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """Traced passes for half the time, then the same passes untraced."""
    tr = spawn(workload, seed, "--trace", "--budget", str(seconds / 2))
    passes = len(tr["pass_s"])
    un = spawn(workload, seed, "--passes", str(passes), "--kernel")
    if un["wrappers"]:
        raise BenchError(f"wrappers installed in the untraced run: {un['wrappers']}")
    metrics = {**tr["layers"], **un["facts"], **un["kernel"]}
    overhead = sum(tr["pass_s"]) / passes - sum(un["pass_s"]) / passes
    metrics["trace.overhead_s"] = (overhead, "s")
    res = {"attempted": tr["attempted"] + un["attempted"],
           "failed": tr["failed"] + un["failed"],
           "errors": tr["errors"] + un["errors"]}
    info = {"passes": (passes, "count")}
    return res, {"metrics": metrics, "info": info}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "cycloschur" / "__init__.py").is_file():
        print(f"error: no cycloschur package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    try:
        run = traced if args.trace else end_to_end
        res, out = run(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(OUT / "work", ignore_errors=True)
    for name, (value, unit) in {**out["info"], **out["metrics"]}.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    for err in res["errors"]:
        print(f"{args.workload} FAILED {err}", file=sys.stderr)
    correct = res["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in out["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
