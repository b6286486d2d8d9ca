"""Workload inputs, queries, expected verdicts and the closed query loop.

Input generation is pure and imports nothing from relends, so the input
digest of a seed can be checked without running a workload.  Every query
returns an observed verdict that the loop compares with the expected one;
a wrong verdict or a raised exception counts as a failed query and the
loop goes on.

Why these three workloads:

- surface-count is the paper's headline computation (genus-2 surface
  group, radius-6 balls).  Many short-relator rows at a deep horizon:
  the enumerator and its memory dominate.
- free-oracle runs thousands of tiny relator-free enumerations checked
  against the Stallings-fold oracle: per-call fixed cost, the doubled
  stability run and _finalize dominate, and the oracle layer runs here
  only.
- rips-kernel is the README's CLI flow on small-cancellation output:
  relators of 480-980 letters and only a few thousand rows, so relator
  scans dominate -- the opposite enumerator profile to surface-count.
  It is also the only path through rips, the C'(1/6) check and the CLI.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

WORKLOADS = ("surface-count", "free-oracle", "rips-kernel")

GENUS2 = "generators: a b c d\nrelators: abABcdCD\n"
SURFACE_PROBES = (2, 3, 4, 5)
SURFACE_RADIUS = 6
SURFACE_BUDGET = 40_000_000  # the radius-6 balls outgrow the 5M default
INFINITE = "infinite (non-stabilizing)"

FREE2 = "generators: a b\nrelators: none\n"
FREE_SPEC_BUDGET = 8  # total generator length of a subgroup spec
FREE_SPECS_PER_PASS = 1800  # about 10 s per pass on a 2-core x86 VM
FREE_RADII = range(6)

RIPS_QUOTIENTS = (
    # name, Q, expected count verdict, expected class history
    ("f2", "generators: x y\nrelators: none\n", INFINITE, (4, 4, 12, 36)),
    ("z2", "generators: x y\nrelators: xyXY\n", 1, (1, 1, 1, 1)),
)
RIPS_PROBES = "2,3,4,5"
CLI_DEFAULT_BUDGET = 5_000_000  # relends.schreier.DEFAULT_NODE_BUDGET


# -- inputs -------------------------------------------------------------------


def _reduced_words(n_letters: int, max_len: int) -> list[tuple[int, ...]]:
    words: list[tuple[int, ...]] = []
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(max_len):
        frontier = [
            w + (x,) for w in frontier for x in range(n_letters) if not (w and x == w[-1] ^ 1)
        ]
        words += frontier
    return words


def free_spec_family(budget: int = FREE_SPEC_BUDGET) -> list[tuple[tuple[int, ...], ...]]:
    """Every set of distinct inversion-normalized reduced words over F2 with
    total length at most `budget` (29,784 specs for budget 8)."""
    candidates = sorted(
        {min(w, tuple(x ^ 1 for x in reversed(w))) for w in _reduced_words(4, budget)},
        key=lambda w: (len(w), w),
    )
    family: list[tuple[tuple[int, ...], ...]] = [()]

    def extend(prefix, start, room):
        for i in range(start, len(candidates)):
            w = candidates[i]
            if len(w) > room:
                break
            spec = prefix + (w,)
            family.append(spec)
            extend(spec, i + 1, room - len(w))

    extend((), 0, budget)
    return family


def make_inputs(workload: str, seed: int) -> dict:
    """The workload's inputs for a seed.  Only free-oracle draws from the
    seed; the other two are the fixed instances the verdicts are known for."""
    if workload == "surface-count":
        return {
            "presentation": GENUS2,
            "subgroups": ["", "a"],
            "probes": list(SURFACE_PROBES),
            "radius": SURFACE_RADIUS,
            "node_budget": SURFACE_BUDGET,
        }
    if workload == "free-oracle":
        specs = random.Random(seed).sample(free_spec_family(), FREE_SPECS_PER_PASS)
        return {
            "presentation": FREE2,
            "specs": [[list(w) for w in spec] for spec in specs],
            "radii": list(FREE_RADII),
            "node_budget": CLI_DEFAULT_BUDGET,
        }
    if workload == "rips-kernel":
        return {
            "quotients": [[name, text] for name, text, _v, _h in RIPS_QUOTIENTS],
            "probes": RIPS_PROBES,
            "node_budget": CLI_DEFAULT_BUDGET,
        }
    raise ValueError(f"unknown workload {workload!r}")


def input_digest(inputs: dict) -> str:
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()


# -- queries ------------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    label: str
    call: Callable[[dict], object]  # per-pass shared state -> observed verdict
    expected: object


@dataclass(frozen=True)
class Outcome:
    label: str
    latency_s: float
    observed: object
    ok: bool
    error: str | None


def _surface_queries(relends, inputs: dict) -> list[Query]:
    from relends import ends
    from relends.presentation import SubgroupSpec, word_from_text

    g = relends.parse_presentation(inputs["presentation"])
    trivial = SubgroupSpec(())
    a_axis = SubgroupSpec((word_from_text("a", g.generators),))
    probes = inputs["probes"]
    radius = inputs["radius"]
    budget = inputs["node_budget"]
    ledger = relends.empirical_ledger(
        r0=probes[-1], inner_offset=Fraction(3), outer_radius=probes[-1] + 1
    )

    def count_trivial(state):
        # count_relative_ends keeps its ball private; observe its size
        sizes = []
        original = ends.stable_ball

        def observed_ball(*args, **kwargs):
            ball = original(*args, **kwargs)
            sizes.append(ball.n_vertices)
            return ball

        ends.stable_ball = observed_ball
        try:
            report = relends.count_relative_ends(g, trivial, ledger, probes, node_budget=budget)
        finally:
            ends.stable_ball = original
        return report.count, report.class_history, tuple(sizes)

    def a_axis_ball(state):
        # the acceptance suite's shared fixture, reused by the next two queries
        ball = relends.stable_ball(g, a_axis, radius, node_budget=budget)
        state["ball"] = ball
        history = relends.probe_class_history(ball, ledger, probes)
        verdict = relends.stabilization_verdict(history, 3)
        return ball.stable, ball.n_vertices, verdict, tuple(history)

    def empirical(state):
        report = relends.empirical_ends(state["ball"], [0, 1, 2])
        return report.counts, report.verdict

    def dag(state):
        report = relends.check_dag(state["ball"], m=2, delta_xh=Fraction(1, 8), r_cap=3)
        return report.holds_within_ball, report.witness_l, report.pairs_checked

    return [
        Query("count-trivial", count_trivial, (1, (1, 1, 1, 1), (155_577,))),
        Query("ball-a", a_axis_ball, (True, 116_585, 2, (2, 2, 2, 2))),
        Query("empirical-a", empirical, ((2, 2, 2), 2)),
        Query("check-dag-a", dag, (True, 36, 888)),
    ]


def _free_queries(relends, inputs: dict) -> list[Query]:
    from relends.presentation import SubgroupSpec

    f2 = relends.parse_presentation(inputs["presentation"])
    radii = inputs["radii"]
    budget = inputs["node_budget"]
    expected = tuple((True, True) for _ in radii)

    def make(h):
        def call(state):
            core = relends.stallings_fold(f2, h)
            verdicts = []
            for r in radii:
                got = relends.enumerate_cosets(f2, h, r, node_budget=budget)
                oracle = relends.free_schreier_ball(core, r)
                verdicts.append((got.stable, relends.graphs_isomorphic(got, oracle)))
            return tuple(verdicts)

        return call

    return [
        Query(f"spec-{i}", make(SubgroupSpec(tuple(tuple(w) for w in spec))), expected)
        for i, spec in enumerate(inputs["specs"])
    ]


def _rips_queries(relends, inputs: dict, workdir: Path) -> list[Query]:
    from relends import cli

    queries = []
    expected = {name: (verdict, history) for name, _t, verdict, history in RIPS_QUOTIENTS}
    for name, text in inputs["quotients"]:
        q_path = workdir / f"{name}.grp"
        q_path.write_text(text)
        g_path = workdir / f"{name}_g.grp"
        report_path = workdir / f"{name}_count.json"

        # outputs of an earlier pass are removed first, so that a failing
        # step cannot hand a stale file to the next one
        def rips(state, q_path=q_path, g_path=g_path):
            g_path.unlink(missing_ok=True)
            with contextlib.redirect_stdout(io.StringIO()):
                return (cli.run(["rips", str(q_path), "-o", str(g_path)]),)

        def count(state, g_path=g_path, report_path=report_path):
            report_path.unlink(missing_ok=True)
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.run([
                    "count", str(g_path), "--subgroup-from-file",
                    "--probe-r0", inputs["probes"], "--json", str(report_path),
                ])
            report = json.loads(report_path.read_text())
            return code, report["verdict"], tuple(report["class_history"])

        verdict, history = expected[name]
        queries.append(Query(f"rips-{name}", rips, (0,)))
        queries.append(Query(f"count-{name}", count, (0, verdict, history)))
    return queries


def build_queries(relends, workload: str, inputs: dict, workdir: Path) -> list[Query]:
    if workload == "surface-count":
        return _surface_queries(relends, inputs)
    if workload == "free-oracle":
        return _free_queries(relends, inputs)
    if workload == "rips-kernel":
        return _rips_queries(relends, inputs, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def run_pass(queries: list[Query], tracer=None, clock=time.perf_counter) -> list[Outcome]:
    """Closed loop: each query starts only after the previous verdict returned.

    A query that raises (BudgetExceeded, UnstableBallError, a missing file,
    ...) or returns a wrong verdict is a failed query, never a crashed run.
    """
    state: dict = {}
    outcomes = []
    for qid, query in enumerate(queries):
        span = tracer.query(qid, f"bench.{query.label}") if tracer else contextlib.nullcontext()
        error = None
        observed = None
        started = clock()
        with span:
            try:
                observed = query.call(state)
            except Exception:  # the loop must survive any failing query
                error = traceback.format_exc()
        latency = clock() - started
        ok = error is None and observed == query.expected
        outcomes.append(Outcome(query.label, latency, observed, ok, error))
    return outcomes


def verdict_digest(outcomes: list[Outcome]) -> str:
    text = "\n".join(f"{o.label}={o.observed!r}" for o in outcomes)
    return hashlib.sha256(text.encode()).hexdigest()
