"""One workload process: set-up, timed passes, checks; prints one JSON line.

Started by run.py in a fresh interpreter with PYTHONPATH pointing at the
checkout's src/.  ``--t0`` is the parent's monotonic clock just before the
spawn, so set-up time counts from interpreter start to the first op.
Passes run until the next one would end after ``--budget`` seconds, but
at least ``--min-passes`` times; or exactly ``--passes`` times.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time
from pathlib import Path


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--budget", type=float, default=0.0)
    p.add_argument("--passes", type=int, default=0)
    p.add_argument("--min-passes", type=int, default=1)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--kernel", action="store_true")
    p.add_argument("--calibrate", action="store_true")
    return p.parse_args(argv)


def main(argv=None) -> dict:
    args = parse_args(argv)
    import workloads
    from calibration import Calibrator

    out_dir = Path(args.out_dir)
    work_dir = out_dir / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        return {"setup_s": setup_s}
    from tracer import find_wrappers

    wrappers = find_wrappers()

    pass_s, latencies, rescaled, cycles, errors, facts = [], [], [], [], [], []
    attempted = 0
    start = time.monotonic()
    k = 0
    while True:
        cycle_start = time.monotonic()
        if tracer is not None:
            tracer.new_pass()
            tracer.active = True
        calibrator = Calibrator() if args.calibrate else None
        if calibrator is not None:
            calibrator.start()
        p = workload.run_pass(tracer)
        if calibrator is not None:
            calibrator.stop()
            rescaled.append(calibrator.rescale(p.ops))
        if tracer is not None:
            tracer.active = False
        checked, errs = workload.check_pass(p)
        attempted += checked
        errors += errs
        pass_s.append(p.seconds)
        latencies.append([end - start for start, end in p.ops])
        facts.append(workload.facts(p))
        k += 1
        now = time.monotonic()
        cycles.append(now - cycle_start)
        if args.passes:
            if k >= args.passes:
                break
        elif k >= args.min_passes and now - start + statistics.median(cycles) > args.budget:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Work outside the ops, traced but not part of any pass time.
    if tracer is not None:
        tracer.op = -1
        tracer.active = True
    checked, errs, once_facts = workload.round_trip()
    if tracer is not None:
        tracer.active = False
    attempted += checked
    errors += errs
    checked, errs = workload.final_check()
    attempted += checked
    errors += errs

    result = {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "latencies": latencies,
        "rescaled": rescaled,
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors[:5],
        "rss_mb": rss_mb,
        "facts": {
            name: (once_facts.get(name, sum(f.get(name, 0.0) for f in facts) / k), unit)
            for name, unit in workloads.FACTS.items()
        },
        "wrappers": wrappers,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics(k, sum(pass_s) / k)
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}")
    if args.kernel:
        from kernel import kernel_rates

        result["kernel"] = kernel_rates()
    return result


if __name__ == "__main__":
    print(json.dumps(main()))
