"""One fresh, single-threaded benchmark process.

Started by run.py; not meant to be run by hand.  It imports relends from
the checkout's `src/`, builds the workload's inputs, reports how long that
set-up took since it was spawned, then (unless --setup-only) runs whole
passes of the workload until --seconds have elapsed, at least one.  Times
are reported raw and rescaled to the reference host speed (hostspeed.py).  The
last line of its standard output is a JSON object with the raw results.
"""

from __future__ import annotations

import os

# numpy must not start thread pools: the benchmark is single-threaded
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# the CLI's default budget must not depend on the caller's environment
os.environ.pop("ENDS_NODE_BUDGET", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent just before the spawn")
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-file", type=Path,
                    help="trace one pass and write its spans here")
    args = ap.parse_args()

    sys.path.insert(0, str(BENCH_DIR))
    from hostspeed import SpeedSampler, setup_calibration, setup_work_seconds

    # host speed at the start of the set-up; the set-up ends with another
    setup_speed = SpeedSampler()
    setup_calibration(setup_speed)
    if not (SRC / "relends" / "__init__.py").is_file():
        print(f"error: no relends package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import relends

    if Path(relends.__file__).resolve().parent != (SRC / "relends").resolve():
        print(f"error: imported relends from {relends.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from workloads import build_queries, input_digest, make_inputs, run_pass, verdict_digest

    inputs = make_inputs(args.workload, args.seed)
    queries = build_queries(relends, args.workload, inputs, args.workdir)
    setup_s = time.monotonic() - args.spawned_at
    setup_calibration(setup_speed)
    result = {
        "setup_s": setup_s,
        "setup_work_s": setup_work_seconds(setup_s, setup_speed),
        "input_digest": input_digest(inputs),
        "node_budget": inputs["node_budget"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if args.setup_only:
        print(json.dumps(result))
        return 0

    sampler = SpeedSampler()
    tracer = None
    if args.trace_file is not None:
        from tracing import Tracer, layer_metrics, per_query_counts

        tracer = Tracer(clock=sampler.work_clock)
    pass_walls: list[float] = []
    pass_works: list[float] = []
    pass_clocked: list[float] = []  # the same on the work clock spans read
    latencies: list[float] = []
    failures: list[dict] = []
    attempted = 0
    digests = set()
    def one_pass():
        started = sampler.work_clock()
        outcomes = run_pass(queries, tracer, sampler.work_clock)
        return outcomes, sampler.work_clock() - started

    began = time.perf_counter()
    while True:
        with tracer.installed() if tracer else nullcontext(), sampler.running():
            (outcomes, clocked), wall, work = sampler.timed(one_pass)
        pass_walls.append(wall)
        pass_works.append(work)
        pass_clocked.append(clocked)
        attempted += len(outcomes)
        latencies += [o.latency_s for o in outcomes]
        failures += [
            {"label": o.label, "observed": repr(o.observed), "error": o.error}
            for o in outcomes if not o.ok
        ]
        digests.add(verdict_digest(outcomes))
        if tracer is not None or time.perf_counter() - began >= args.seconds:
            break

    result.update({
        "pass_walls_s": pass_walls,
        "pass_works_s": pass_works,
        "speed_samples": len(sampler.samples),
        "latencies_s": latencies,
        "attempted": attempted,
        "failures": failures,
        "verdict_digests": sorted(digests),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, pass_clocked[0])
        result["per_query"] = {
            queries[q].label: counts for q, counts in sorted(per_query_counts(tracer).items())
        }
        args.trace_file.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "fields": ["name", "start", "end", "parent", "query_id"],
            "queries": [q.label for q in queries],
            "spans": tracer.spans,
        }))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
