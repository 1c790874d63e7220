"""Benchmark entry point: one workload in one process, one JSON result line.

    python3 bench/run.py --workload detect-burst --seed 1 --seconds 30 --trace 0

With --trace 0 the last line of standard output holds the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run.
Run from the root of a source tree; flowmark is imported from its `src/`.
Results and spans are written under bench/out/.

Times are read from the process CPU clock, which the kernel's paravirt
time accounting keeps free of the time a shared host steals from the VM,
and scaled to a fixed machine speed (see speed.py).  The workloads are
single-threaded and compute-bound, so on an idle machine CPU time equals
wall time; the run length itself is wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

# numpy's thread pools are fixed at import: one thread, one process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_REPEATS = 3
SPEED_SAMPLE_S = 0.25


def import_library() -> float:
    """Import flowmark from this tree's src/; return the seconds it took."""
    if not os.path.isfile(os.path.join(SRC, "flowmark", "__init__.py")):
        sys.exit(f"error: no flowmark sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(1, BENCH_DIR)
    t0 = time.process_time()
    import numpy  # noqa: F401
    import flowmark.experiment  # noqa: F401  (imports every layer)
    return time.process_time() - t0


def measure(wl, seconds: float, speed, tracer=None):
    """Run whole rounds until `seconds` have passed and the workload has
    its minimum flow count.  Every SPEED_SAMPLE_S of wall time the rounds
    since the last reference sample get their speed scale.  A traced run
    alternates each untraced round with a traced repeat of the same
    inputs; the time difference of the pairs is the tracing overhead."""
    rounds, pending, overhead = [], [], 0.0
    t_start = time.perf_counter()
    r = 0
    while True:
        plain = wl.round(r)
        pending.append(plain)
        if tracer is not None:
            with tracer.active():
                traced = wl.round(r)
            pending.append(traced)
            overhead += traced.cpu_s - plain.cpu_s
        r += 1
        flows = sum(x.flows for x in rounds + pending)
        done = time.perf_counter() - t_start >= seconds and flows >= wl.min_flows
        if done or time.perf_counter() - speed.at >= SPEED_SAMPLE_S:
            interval = speed.sample()
            for x in pending:
                x.interval = interval
            rounds += pending
            pending = []
        if done:
            for x in rounds:
                x.scale = speed.factor(x.interval)
            return rounds, overhead


def end_to_end(rounds, setup_s: float) -> dict:
    flow_ms = sorted(1e3 * t * x.scale for x in rounds for t in x.flow_s)
    ok_flows = sum(x.flows - x.failed for x in rounds)
    p90 = (statistics.quantiles(flow_ms, n=10, method="inclusive")[8]
           if len(flow_ms) > 1 else flow_ms[0])
    return {
        "flows_per_s": (ok_flows / sum(x.cpu_s * x.scale for x in rounds), "flows/s"),
        "flow_p50_ms": (statistics.median(flow_ms), "ms"),
        "flow_p90_ms": (p90, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("harness-oppoint", "detect-burst", "invisibility"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_s = import_library()
    import speed as bench_speed
    import tracer as bench_tracer
    import workloads

    speed = bench_speed.SpeedScale()
    os.makedirs(OUT_DIR, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.process_time()
            wl.setup()
            setups.append((time.process_time() - t0, speed.sample()))
        setup_s = import_s * speed.factor(0) + statistics.median(
            t * speed.factor(i) for t, i in setups)

        tracer = bench_tracer.Tracer() if args.trace else None
        rounds, overhead = measure(wl, args.seconds, speed, tracer)
        failures = wl.finish()
    finally:
        wl.close()

    if tracer is None:
        metrics = end_to_end(rounds, setup_s)
    else:
        scale = sum(x.cpu_s * x.scale for x in rounds) / sum(x.cpu_s for x in rounds)
        metrics = bench_tracer.layer_metrics(tracer.summary(), workloads.CODE_LEN,
                                             overhead, scale)
    attempted = sum(x.flows for x in rounds)
    failed = sum(x.failed for x in rounds)
    for msg in failures[:20]:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
    if tracer is not None:
        tracer.write(os.path.join(OUT_DIR, f"spans-{tag}.json"))

    print(f"workload {args.workload}: {attempted} flows attempted, {failed} failed, "
          f"{len(failures)} check failures")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6f} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
