"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload free-oracle --seeds 1-10

Runs run.py once per seed, then prints, per metric, the median of the
values and the distance between their first and third quartile as a share
of that median, next to the bound BENCHMARK.json fixes for the metric.
A benchmark is steady when every spread (setup_s aside) is well inside
its bound.  Values, quartiles and the environment go to
perfbench_out/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
from stats import quartile_spread  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {name: [] for name in bounds}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
        ).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect result", file=sys.stderr)
            return 1
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{n} {v[-1]:.6g}" for n, v in values.items()),
              flush=True)

    summary = {}
    for name, vals in values.items():
        q1, _q2, q3 = statistics.quantiles(vals, n=4)
        spread = quartile_spread(vals)
        summary[name] = {"values": vals, "median": statistics.median(vals), "q1": q1,
                         "q3": q3, "spread": spread, "bound": bounds[name]}
        print(f"{args.workload} {name}: median {statistics.median(vals):.6g}, "
              f"spread {spread:.4f} of median, bound {bounds[name]}, "
              f"{'ok' if spread < bounds[name] / 3 else 'WIDE'}")
    last = ROOT / "perfbench_out" / f"result-{args.workload}-seed{args.seeds[-1]}-trace0.json"
    record = {
        "workload": args.workload, "seeds": args.seeds,
        "run_seconds": spec["run_seconds"], "metrics": summary,
        "environment": json.loads(last.read_text())["environment"],
    }
    (ROOT / "perfbench_out" / f"spread-{args.workload}.json").write_text(
        json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
