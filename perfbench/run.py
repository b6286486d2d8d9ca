"""relends benchmark: one command, three workloads, verdicts checked.

    python3 perfbench/run.py --workload surface-count --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; relends is imported from its `src/`.
Each workload runs in fresh single-threaded worker processes (worker.py)
as a closed loop: one caller issues the next query only after the previous
verdict returned.

--trace 0 measures the end-to-end metrics: the median of several set-ups
(spawn to inputs ready), the median pass time, and peak RSS of the
measuring process.  --trace 1 runs one untraced and one traced pass in two
fresh processes, checks that both give identical verdicts, and reports the
per-layer metrics of the traced pass; tracing overhead is the traced pass
time minus the untraced one.  Every time is rescaled to a reference host
speed measured while it runs (hostspeed.py); the summary shows raw times
next to them.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the metrics are the ones
BENCHMARK.json declares for the mode.  Lines before it are a readable
summary.  Results (with the environment) and spans are written under
`perfbench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / "perfbench_out"
SETUP_SAMPLES = 5  # set-ups per run; setup_s is their median
DEADLINE_S = 170.0  # every worker of one workload ends within this

sys.path.insert(0, str(BENCH_DIR))
from stats import tail_percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark could not produce a result (not a wrong verdict)."""


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "platform": platform.platform(),
    }


def _worker(workload: str, seed: int, seconds: float, workdir: Path, deadline: float,
            setup_only: bool = False, trace_file: Path | None = None) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    spawned_at = time.monotonic()
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--spawned-at", repr(spawned_at), "--workdir", str(workdir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker did not finish before the deadline") from None
    finally:
        # on a timeout, SIGTERM or Ctrl-C the worker is stopped and reaped too
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} worker printed no result")
    return json.loads(lines[-1])


def _check_inputs(results: list[dict]) -> None:
    if len({r["input_digest"] for r in results}) != 1:
        raise BenchError("workers of one run generated different inputs")


def measure(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    """End-to-end figures: set-up median, pass-time median, peak RSS."""
    deadline = time.monotonic() + DEADLINE_S

    def setups(count):
        return [_worker(workload, seed, 0, workdir, deadline, setup_only=True)
                for _ in range(count)]

    # set-ups on both sides of the measuring process, so that all of them do
    # not land in one slow (or fast) stretch of a shared host
    before = setups(SETUP_SAMPLES // 2)
    main = _worker(workload, seed, seconds, workdir, deadline)
    after = setups(SETUP_SAMPLES - 1 - len(before))
    _check_inputs(before + [main] + after)
    setup_samples = [r["setup_work_s"] for r in before + [main] + after]
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(main["pass_works_s"]),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    return {
        "workload": workload, "seed": seed, "trace": 0,
        "attempted": main["attempted"], "failures": main["failures"],
        "metrics": metrics, "worker": main,
        "setup_samples_s": setup_samples,
        "raw_setup_samples_s": [r["setup_s"] for r in before + [main] + after],
        "consistent": len(main["verdict_digests"]) == 1,
    }


def trace(workload: str, seed: int, workdir: Path) -> dict:
    """Per-layer figures of one traced pass, next to one untraced pass."""
    deadline = time.monotonic() + DEADLINE_S
    plain = _worker(workload, seed, 0, workdir, deadline)
    trace_file = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    traced = _worker(workload, seed, 0, workdir, deadline, trace_file=trace_file)
    _check_inputs([plain, traced])
    layers = dict(traced["layers"])
    # rescaled pass times: a raw difference would mostly measure the host
    layers["trace.overhead_s"] = traced["pass_works_s"][0] - plain["pass_works_s"][0]
    return {
        "workload": workload, "seed": seed, "trace": 1,
        "attempted": plain["attempted"] + traced["attempted"],
        "failures": plain["failures"] + traced["failures"],
        "metrics": layers, "worker": traced, "untraced_wall_s": plain["pass_walls_s"][0],
        "per_query": traced["per_query"], "spans_file": str(trace_file.relative_to(ROOT)),
        # the wrappers must pass results through: identical verdicts
        "consistent": plain["verdict_digests"] == traced["verdict_digests"],
    }


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def summarize(res: dict, declared: dict[str, str]) -> list[str]:
    w = res["worker"]
    attempted = res["attempted"]
    failed = len(res["failures"])
    lines = [
        f"{res['workload']}: seed {res['seed']}, {len(w['pass_walls_s'])} pass(es), "
        f"{attempted} queries, node budget {w['node_budget']}, "
        f"inputs sha256 {w['input_digest'][:16]}",
    ]
    if res["trace"] == 0:
        m = res["metrics"]
        lines.append(f"  setup_s       {_fmt(m['setup_s'])} s at reference speed "
                     f"(median of {len(res['setup_samples_s'])} set-ups; raw "
                     f"{_fmt(statistics.median(res['raw_setup_samples_s']))} s)")
        lines.append(f"  wall_s        {_fmt(m['wall_s'])} s at reference speed "
                     f"(median of {len(w['pass_walls_s'])} passes; raw "
                     f"{_fmt(statistics.median(w['pass_walls_s']))} s, "
                     f"{w['speed_samples']} speed samples)")
        lines.append(f"  peak_rss_mb   {_fmt(m['peak_rss_mb'])} MB")
        latencies = [s * 1000 for s in w["latencies_s"]]
        if tail_percentile(latencies) is not None:
            p, value = tail_percentile(latencies)
            lines.append(f"  query_p50_ms  {_fmt(statistics.median(latencies))} ms "
                         f"(n={len(latencies)})")
            lines.append(f"  query_p{p:g}_ms  {_fmt(value)} ms (n={len(latencies)}, "
                         f"highest percentile with at least 10 samples beyond)")
    else:
        lines.append(f"  untraced pass {_fmt(res['untraced_wall_s'])} s, traced pass "
                     f"{_fmt(w['pass_walls_s'][0])} s (raw; traced at reference speed "
                     f"{_fmt(w['pass_works_s'][0])} s); spans in {res['spans_file']}")
        for name, value in res["metrics"].items():
            unit = declared.get(name, "")
            lines.append(f"  {name:36s} {_fmt(value)} {unit}".rstrip())
        per_query = res["per_query"]
        for label, counts in per_query.items() if len(per_query) <= 16 else ():
            lines.append(f"  query {label}: " + ", ".join(
                f"{k} {v}" for k, v in counts.items()))
    lines.append(f"  failed_ratio  {failed / attempted:.6g} ({failed} of {attempted})")
    for f in res["failures"][:5]:
        detail = (f["error"] or "").strip().splitlines()[-1:] or [f"observed {f['observed']}"]
        lines.append(f"  FAILED {f['label']}: {detail[0]}")
    if not res["consistent"]:
        lines.append("  INCONSISTENT: verdicts differ between passes or processes")
    return lines


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True,
                    help="measure whole passes until this many seconds have elapsed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)

    if not (ROOT / "src" / "relends" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no relends source tree (src/relends)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[kind]}

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = environment()
    results = []
    try:
        for workload in workloads:
            if args.trace:
                res = trace(workload, args.seed, workdir)
            else:
                res = measure(workload, args.seed, args.seconds, workdir)
            res["environment"] = dict(env, numpy=res["worker"]["numpy"],
                                      node_budget=res["worker"]["node_budget"],
                                      seed=args.seed,
                                      input_digest=res["worker"]["input_digest"])
            results.append(res)
            for line in summarize(res, declared):
                print(line)
            out = OUT_DIR / f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
            out.write_text(json.dumps(res, indent=1))
            missing = set(declared) - set(res["metrics"])
            if missing:
                raise BenchError(f"{workload} did not measure {sorted(missing)}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()

    print("environment: " + json.dumps(dict(env, numpy=results[0]["worker"]["numpy"]),
                                       sort_keys=True))
    metrics = {}
    for res in results:
        prefix = f"{res['workload']}." if len(results) > 1 else ""
        for name, unit in declared.items():
            metrics[prefix + name] = {"value": res["metrics"][name], "unit": unit}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(len(r["failures"]) for r in results)
    correct = failed == 0 and all(r["consistent"] for r in results)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
