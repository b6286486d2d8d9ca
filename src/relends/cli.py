"""Command line front end.

Human-readable summaries go to standard output; the machine interface is
the JSON report written via --json (use "-" for stdout).  Exit codes keep
"don't know" apart from "wrong input": 0 for a definite verdict, 1 for
usage or input errors, 2 for uncertified outcomes, 3 when the node budget
is exhausted.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from argparse import Namespace
from collections.abc import Callable
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

from .constants import ConstantsLedger, derive_certified, empirical_ledger
from .ends import (
    UNCERTIFIED,
    check_dag,
    check_ddag,
    count_relative_ends,
    dag_least_r,
    ddag_least_r,
    empirical_ends,
    group_ends_gate,
)
from .oracle import free_schreier_ball, graphs_isomorphic, stallings_fold
from .presentation import (
    Presentation,
    StrategyError,
    SubgroupSpec,
    check_small_cancellation,
    dehn_reduce,
    free_reduce,
    parse_file,
    word_from_text,
)
from .rips import rips_construct, verify_rips
from .schreier import (
    Ball,
    BudgetExceeded,
    DEFAULT_MAX_SLACK,
    DEFAULT_NODE_BUDGET,
    UnstableBallError,
    check_covering_radius,
    covering_degree_check,
    enumerate_cosets,
    shortlex_normal_form,
    stable_ball,
)

OK = 0
USAGE = 1
UNCERT = 2
BUDGET = 3

# what a subcommand hands back: the JSON payload, the human lines, the exit code
Outcome = tuple[dict, list[str], int]


def _int_at_least(least: int):
    """argparse type: an integer no smaller than least."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return parse


def _ascending(least: int):
    """argparse type: a nonempty strictly ascending comma-separated integer list."""

    def parse(text: str) -> tuple[int, ...]:
        try:
            values = tuple(int(t) for t in text.split(",") if t.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")
        if not values or values[0] < least or any(a >= b for a, b in zip(values, values[1:])):
            raise argparse.ArgumentTypeError(f"must be strictly ascending integers, least {least}")
        return values

    return parse


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    # a string default goes through the type check, so a bad environment
    # value is a usage error like a bad flag
    return _parser(os.environ.get("ENDS_NODE_BUDGET", str(DEFAULT_NODE_BUDGET)))


@functools.lru_cache(maxsize=1)
def _parser(budget_default: str) -> argparse.ArgumentParser:
    """The argument parser, with the ENDS_NODE_BUDGET value baked in as
    --node-budget's default.  It is kept for the latest value only, so a
    change to the variable between calls in one process builds a new one."""
    p = argparse.ArgumentParser(
        prog="ends",
        description="Count relative ends e(G, H) and run the supporting machinery.",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    def common(
        name: str,
        summary: str,
        handler: Callable[[Namespace, Presentation, SubgroupSpec], Outcome],
        subgroup: bool = True,
        radius: bool = False,
        max_slack: bool = False,
        dot: bool = False,
    ) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(handler=handler)
        sp.add_argument("input", type=Path, help="presentation file")
        if subgroup:
            g = sp.add_mutually_exclusive_group()
            g.add_argument(
                "--subgroup-from-file",
                action="store_true",
                help="take H from the file's subgroup section (default: trivial H)",
            )
            g.add_argument(
                "--subgroup",
                metavar="WORDS",
                help="comma-separated generator words for H",
            )
        else:
            sp.set_defaults(subgroup_from_file=False, subgroup=None)
        sp.add_argument("--json", dest="json_path", metavar="PATH",
                        help="write the JSON report here ('-' for stdout)")
        sp.add_argument("--node-budget", type=_int_at_least(1), default=budget_default,
                        help="coset table cell budget (env ENDS_NODE_BUDGET; "
                             f"default {budget_default})")
        sp.add_argument("--seed", type=int, default=0, help="seed recorded in the report")
        if radius:
            sp.add_argument("--radius", type=_int_at_least(0), required=True)
        if max_slack:
            sp.add_argument("--max-slack", type=_int_at_least(0), default=DEFAULT_MAX_SLACK)
        if dot:
            sp.add_argument("--dot", dest="dot_path", type=Path,
                            help="write a DOT rendering here")
        return sp

    # parse reports, and hashes, the file's own subgroup section
    common("parse", "parse a file and report its structure", _cmd_parse,
           subgroup=False).set_defaults(subgroup_from_file=True)

    sp = common("word-reduce", "reduce a word; decide if it is the identity", _cmd_word_reduce,
                subgroup=False)
    sp.add_argument("--word", required=True, help="word to reduce")
    sp.add_argument("--strategy", choices=("auto", "dehn", "bounded-bfs"), default="auto")
    sp.add_argument("--radius-cap", type=int, default=12,
                    help="bounded-bfs enumeration cap (default 12)")

    sp = common("ball", "build a certified Cayley ball", _cmd_ball,
                subgroup=False, radius=True, dot=True)
    sp.add_argument("--strategy", choices=("auto", "dehn", "bounded-bfs"), default="auto")
    sp.add_argument("--radius-cap", type=int, default=None,
                    help="bounded-bfs cap (default: radius + 4)")

    sp = common("schreier", "enumerate a Schreier ball for (G, H)", _cmd_schreier,
                radius=True, max_slack=True, dot=True)
    sp.add_argument("--start-slack", type=_int_at_least(0), default=0)
    sp.add_argument("--covering-check", dest="covering_radius", type=_int_at_least(0),
                    metavar="R", help="also verify covering degree outside radius R")

    sp = common("count", "count relative ends by stabilized sphere classes", _cmd_count,
                max_slack=True)
    sp.add_argument("--probe-r0", dest="probe_r0s", type=_ascending(1), metavar="LIST",
                    help="comma-separated probe radii, e.g. 2,3,4,5")
    sp.add_argument("--window", type=_int_at_least(1), default=3,
                    help="consecutive equal counts required (default 3)")
    sp.add_argument("--mode", choices=("empirical", "certified"), default="empirical")
    sp.add_argument("--inner-offset", type=_fraction,
                    help="excluded-ball offset below each probe R0, clamped at the "
                         "base point (default 3)")
    sp.add_argument("--outer-gap", type=int,
                    help="annulus reach beyond each probe R0 (default 1)")
    sp.add_argument("--delta", type=_fraction, help="hyperbolicity constant estimate")
    sp.add_argument("--epsilon", type=int, help="quasi-convexity constant estimate")
    sp.add_argument("--eta", type=_fraction, help="geodesic extension constant (certified)")
    sp.add_argument("--n0", type=_int_at_least(1), help="chain bound (certified, default 1)")
    sp.add_argument("--diam-core", type=_int_at_least(0),
                    help="convex core diameter (certified, default 0)")
    sp.add_argument("--m", type=_int_at_least(1), help="connectivity constant override")

    r_cap_help = "largest sphere R to test; leave room to the ball edge"
    sp = common("check-ddag", "annulus connectivity check with tolerance K", _cmd_check,
                radius=True, max_slack=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--delta", type=_fraction, default=Fraction(0))
    sp.add_argument("--r-cap", type=int, help=r_cap_help)

    sp = common("check-dag", "sphere-pair connectivity check in the quotient", _cmd_check,
                radius=True, max_slack=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--delta-xh", type=_fraction, required=True)
    sp.add_argument("--r-cap", type=int, help=r_cap_help)

    sp = common("empirical", "raw end counts from complement components", _cmd_empirical,
                max_slack=True)
    sp.add_argument("--radii", type=_ascending(0), required=True, metavar="LIST",
                    help="comma-separated radii, e.g. 2,3,4,5")
    sp.add_argument("--ball-radius", type=int,
                    help="enumerate out to this radius instead of radii[-1]+1; "
                         "room past the largest cut damps rim artifacts")
    sp.add_argument("--window", type=_int_at_least(1), default=3)

    sp = common("rips", "build a C'(1/6) pair (G, H) over a quotient Q", _cmd_rips,
                subgroup=False)
    sp.add_argument("--block-length", type=_int_at_least(8), default=480,
                    help="minimum length of the fresh a-words (default 480)")
    sp.add_argument("-o", "--out", dest="out_path", type=Path,
                    help="write the G presentation file here")

    common("oracle-fold", "fold a free-group subgroup to its core graph", _cmd_oracle_fold,
           dot=True)
    common("oracle-compare", "enumerated Schreier ball vs the folded-core oracle",
           _cmd_oracle_compare, radius=True)

    return p


def _load(args: Namespace) -> tuple[Presentation, SubgroupSpec]:
    parsed = parse_file(args.input.read_text())
    p = parsed.presentation
    if args.subgroup_from_file:
        return p, parsed.subgroup
    texts = args.subgroup.split(",") if args.subgroup is not None else []
    return p, SubgroupSpec(tuple(word_from_text(t.strip(), p.generators) for t in texts))


def _json_default(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _emit(
    args: Namespace, p: Presentation, h: SubgroupSpec, payload: dict, lines: list[str]
) -> None:
    # human lines are suppressed when the JSON report itself goes to stdout
    if args.json_path != "-":
        for line in lines:
            print(line)
    if args.json_path is None:
        return
    report = {
        "subcommand": args.subcommand,
        "input": str(args.input),
        "presentation_hash": hashlib.sha256(p.to_text(h).encode()).hexdigest()[:16],
        "node_budget": args.node_budget,
        "seed": args.seed,
        **payload,
    }
    text = json.dumps(report, sort_keys=True, indent=2, default=_json_default) + "\n"
    if args.json_path == "-":
        sys.stdout.write(text)
    else:
        Path(args.json_path).write_text(text)


def _write_dot(args: Namespace, graph: Ball, with_dist: bool = True) -> None:
    if args.dot_path is None:
        return
    lines = ["digraph labeled_graph {", "  rankdir=LR;", '  0 [shape=doublecircle];']
    for v in range(graph.n_vertices):
        label = f"{v} ({graph.dist[v]})" if with_dist else str(v)
        lines.append(f'  {v} [label="{label}"];')
    for i, name in enumerate(graph.gen_names):
        for v, t in enumerate(graph.table[2 * i::graph.n_letters]):
            if t >= 0:
                lines.append(f'  {v} -> {t} [label="{name}"];')
    lines.append("}")
    args.dot_path.write_text("\n".join(lines) + "\n")


def _sphere_sizes(ball: Ball) -> list[int]:
    return [len(ball.sphere(r)) for r in range(ball.radius + 1)]


def _dehn(args: Namespace, p: Presentation) -> bool:
    """Whether --strategy picks Dehn's algorithm: dehn, or auto exactly when
    C'(1/6) holds."""
    return args.strategy == "dehn" or (args.strategy == "auto" and check_small_cancellation(p).passes)


def _cayley_ball(args: Namespace, p: Presentation, radius: int, dehn: bool) -> Ball:
    """The radius-R Cayley ball, certified within the strategy's slack cap:
    DEFAULT_MAX_SLACK under Dehn (C'(1/6) required), else --radius-cap
    (the ball's default: radius + 4) minus the radius.  A ball that does not
    certify within its cap is an error, not a guess.  Over even relators
    with pieces of one letter and no proper power, as in the surface
    groups, stable_ball proves the first run's ball exact (Strebel's ladder
    shape of geodesic bigons, appendix to Ghys and de la Harpe 1990, Thm
    43), under either strategy; other presentations keep the empirical
    slack certificate, Dehn's among them."""
    if dehn:
        if not check_small_cancellation(p).passes:
            raise StrategyError("dehn strategy needs a C'(1/6) presentation")
        max_slack = DEFAULT_MAX_SLACK
    else:
        cap = args.radius_cap if args.radius_cap is not None else radius + 4
        if cap < 1:
            raise ValueError("bounded_bfs needs a positive radius_cap")
        if cap < radius:
            raise UnstableBallError(f"radius_cap {cap} is below the requested radius {radius}")
        max_slack = cap - radius
    ball = stable_ball(p, SubgroupSpec(()), radius, max_slack=max_slack,
                       node_budget=args.node_budget)
    if not ball.stable:
        raise UnstableBallError(f"closure did not stabilize by slack {ball.slack}")
    return ball


def _cmd_parse(args: Namespace, p: Presentation, h: SubgroupSpec) -> Outcome:
    sc = check_small_cancellation(p)
    lines = [
        f"generators: {' '.join(p.generators)}",
        f"relators: {len(p.relators)} (lengths {[len(r) for r in p.relators]})",
        f"subgroup generators: {len(h.words)}",
        f"C'(1/6): {'passes' if sc.passes else 'fails'}"
        + ("" if sc.vacuous else f" (max piece {sc.max_piece_len}, min relator {sc.min_relator_len})"),
    ]
    payload = {
        "generators": list(p.generators),
        "relator_lengths": [len(r) for r in p.relators],
        "subgroup_words": [p.word_to_text(w) for w in h.words],
        "small_cancellation": asdict(sc),
    }
    return payload, lines, OK


def _cmd_word_reduce(args: Namespace, p: Presentation, h: SubgroupSpec) -> Outcome:
    word = p.word_from_text(args.word)
    dehn = _dehn(args, p)
    if dehn:
        reduced = dehn_reduce(word, p)
    else:
        radius = max(len(free_reduce(word)), 1)
        reduced = shortlex_normal_form(word, _cayley_ball(args, p, radius, dehn))
    lines = [
        f"reduced: {p.word_to_text(reduced) if reduced else '1'}",
        f"identity: {'yes' if not reduced else 'no'}",
    ]
    payload = {
        "word": args.word,
        "reduced": p.word_to_text(reduced),
        "is_identity": not reduced,
        "strategy": "dehn" if dehn else "bounded_bfs",
    }
    return payload, lines, OK


def _cmd_ball(args: Namespace, p: Presentation, h: SubgroupSpec) -> Outcome:
    dehn = _dehn(args, p)
    ball = _cayley_ball(args, p, args.radius, dehn)
    _write_dot(args, ball)
    sizes = _sphere_sizes(ball)
    lines = [
        f"vertices: {ball.n_vertices} (radius {ball.radius}, slack {ball.slack})",
        "sphere sizes: " + ", ".join(f"{r}:{n}" for r, n in enumerate(sizes)),
    ]
    payload = {
        "radius": ball.radius,
        "n_vertices": ball.n_vertices,
        "sphere_sizes": sizes,
        "slack": ball.slack,
        "stable": ball.stable,
        "strategy": "dehn" if dehn else "bounded_bfs",
    }
    return payload, lines, OK


def _cmd_schreier(args: Namespace, p: Presentation, h: SubgroupSpec) -> Outcome:
    if args.covering_radius is not None:  # refused before the ball is enumerated
        check_covering_radius(args.covering_radius, args.radius)
    ball = stable_ball(
        p, h, args.radius,
        start_slack=args.start_slack, max_slack=args.max_slack,
        node_budget=args.node_budget,
    )
    _write_dot(args, ball)
    sizes = _sphere_sizes(ball)
    covering = None
    if args.covering_radius is not None:
        covering = covering_degree_check(ball, args.covering_radius)
    lines = [
        f"cosets: {ball.n_vertices} (radius {ball.radius}, slack {ball.slack}, "
        f"{'stable' if ball.stable else 'UNSTABLE'})",
        "sphere sizes: " + ", ".join(f"{r}:{n}" for r, n in enumerate(sizes)),
    ]
    if covering is not None:
        lines.append(
            f"covering check outside radius {args.covering_radius}: "
            f"{'passed' if covering.passed else 'failed'} ({covering.checked} cosets)"
        )
    payload = {
        "radius": ball.radius,
        "n_cosets": ball.n_vertices,
        "sphere_sizes": sizes,
        "slack": ball.slack,
        "stable": ball.stable,
        "subgroup_words": [p.word_to_text(w) for w in h.words],
        "covering": asdict(covering) if covering is not None else None,
    }
    return payload, lines, OK if ball.stable else UNCERT


def _count_ledger(args: Namespace, p: Presentation) -> tuple[ConstantsLedger, tuple[int, ...]]:
    if args.mode == "certified":
        if args.delta is None or args.epsilon is None:
            raise ValueError("certified mode needs --delta and --epsilon")
        if (args.m, args.inner_offset, args.outer_gap) != (None, None, None):
            raise ValueError("--m, --inner-offset and --outer-gap are empirical-mode inputs")
        ledger = derive_certified(
            args.delta, args.epsilon, args.eta, args.n0 or 1, args.diam_core or 0,
            n_generators=len(p.generators),
        )
        probes = args.probe_r0s if args.probe_r0s else (ledger.r0,)
        return ledger, probes
    if not args.probe_r0s:
        raise ValueError("empirical mode needs --probe-r0")
    if (args.eta, args.n0, args.diam_core) != (None, None, None):
        raise ValueError("--eta, --n0 and --diam-core are certified-mode inputs")
    probes = args.probe_r0s
    ledger = empirical_ledger(
        r0=probes[-1],
        inner_offset=Fraction(3) if args.inner_offset is None else args.inner_offset,
        outer_radius=probes[-1] + (1 if args.outer_gap is None else args.outer_gap),
        delta_x=args.delta,
        epsilon=args.epsilon,
        m=args.m,
    )
    return ledger, probes


def _cmd_count(args: Namespace, p: Presentation, h: SubgroupSpec) -> Outcome:
    ledger, probes = _count_ledger(args, p)
    payload = {
        "subgroup": [p.word_to_text(w) for w in h.words],
        "probe_r0s": list(probes),
        "window": args.window,
        "mode": args.mode,
        "ledger": ledger.to_json_dict(),
    }
    try:
        report = count_relative_ends(
            p, h, ledger, list(probes),
            stabilization_window=args.window,
            node_budget=args.node_budget,
            max_slack=args.max_slack,
        )
    except UnstableBallError as exc:
        payload.update(class_history=None, verdict=UNCERTIFIED, stable=False)
        return payload, [f"verdict: {UNCERTIFIED} ({exc})"], UNCERT
    payload.update(
        class_history=list(report.class_history),
        verdict=report.count,
        stable=True,  # an unstable ball raised above
    )
    history = ", ".join(f"{r}->{c}" for r, c in zip(probes, report.class_history))
    lines = [f"classes per probe: {history}", f"verdict: {report.count}"]
    return payload, lines, UNCERT if report.count == UNCERTIFIED else OK


def _cmd_check(args: Namespace, p: Presentation, h: SubgroupSpec) -> Outcome:
    # the inputs the check refuses are refused before the ball is enumerated
    if args.subcommand == "check-ddag":
        ddag_least_r(args.m, args.k, args.delta, args.r_cap)
    else:
        dag_least_r(args.m, args.delta_xh, args.r_cap)
    ball = stable_ball(p, h, args.radius, max_slack=args.max_slack, node_budget=args.node_budget)
    if args.subcommand == "check-ddag":
        rep = check_ddag(ball, args.m, args.k, delta_x=args.delta, r_cap=args.r_cap)
    else:
        rep = check_dag(ball, args.m, delta_xh=args.delta_xh, r_cap=args.r_cap)
    lines = [
        f"{rep.condition}: {'holds' if rep.holds_within_ball else 'fails'} within radius "
        f"{ball.radius} (witness L = {rep.witness_l}, {rep.pairs_checked} pairs)"
    ]
    if rep.counterexample:
        r, x, y = rep.counterexample
        lines.append(f"counterexample at R = {r}: vertices {x}, {y}")
    payload = {**asdict(rep), "radius": ball.radius, "stable": ball.stable}
    return payload, lines, OK if ball.stable else UNCERT


def _cmd_empirical(args: Namespace, p: Presentation, h: SubgroupSpec) -> Outcome:
    radius = args.ball_radius if args.ball_radius is not None else args.radii[-1] + 1
    if radius <= args.radii[-1]:
        raise ValueError("--ball-radius must exceed the largest cut radius")
    ball = stable_ball(p, h, radius, max_slack=args.max_slack, node_budget=args.node_budget)
    rep = empirical_ends(ball, list(args.radii), window=args.window)
    verdict = group_ends_gate(p, h, rep.verdict)
    counts = ", ".join(f"{r}->{c}" for r, c in zip(args.radii, rep.counts))
    lines = [f"components per radius: {counts}", f"verdict: {verdict}"]
    payload = {
        "radii": list(args.radii),
        "counts": list(rep.counts),
        "window": args.window,
        "verdict": verdict,
        "stable": ball.stable,
    }
    return payload, lines, OK if ball.stable and verdict != UNCERTIFIED else UNCERT


def _cmd_rips(args: Namespace, p: Presentation, h: SubgroupSpec) -> Outcome:
    try:
        out = rips_construct(p, block_length=args.block_length)
    except RuntimeError as exc:
        return {"constructed": False}, [f"construction failed: {exc}"], UNCERT
    g = out.g_presentation
    rep = verify_rips(out)
    text = g.to_text(out.h_generators)
    if args.out_path is not None:
        args.out_path.write_text(text)
    elif args.json_path != "-":
        # keep stdout parseable when the JSON report goes there
        sys.stdout.write(text)
    lines = [
        f"G: {len(g.generators)} generators, {len(g.relators)} relators, "
        f"block length {out.block_length}",
        f"verify: C'(1/6) {'ok' if rep.small_cancellation.passes else 'FAIL'}, "
        f"quotient {'ok' if rep.quotient_recovered else 'FAIL'}, "
        f"conjugators {'ok' if rep.conjugators_formal else 'FAIL'}",
    ]
    payload = {
        "constructed": True,
        "block_length": out.block_length,
        "n_generators": len(g.generators),
        "n_relators": len(g.relators),
        "out_path": str(args.out_path) if args.out_path else None,
        "verify": {**asdict(rep), "passes": rep.passes},
    }
    return payload, lines, OK if rep.passes else UNCERT


def _cmd_oracle_fold(args: Namespace, p: Presentation, h: SubgroupSpec) -> Outcome:
    if not h.words:
        raise ValueError("oracle-fold needs a subgroup (--subgroup-from-file or --subgroup)")
    core = stallings_fold(p, h)
    _write_dot(args, core, with_dist=False)
    n_edges = sum(1 for t in core.table[::2] if t >= 0)  # L is even: the generators' cells
    lines = [f"core graph: {core.n_vertices} vertices, {n_edges} edges"]
    payload = {"n_vertices": core.n_vertices, "n_edges": n_edges,
               "generators": list(core.gen_names)}
    return payload, lines, OK


def _cmd_oracle_compare(args: Namespace, p: Presentation, h: SubgroupSpec) -> Outcome:
    core = stallings_fold(p, h)
    # the oracle ball has no budget, but the enumerator's ball is at least
    # as large (it only makes identifications that hold in G), so once the
    # enumeration fits the budget the oracle ball fits too
    mine = enumerate_cosets(p, h, args.radius, node_budget=args.node_budget)
    oracle_ball = free_schreier_ball(core, args.radius)
    same = graphs_isomorphic(mine, oracle_ball)
    lines = [
        f"enumerated: {mine.n_vertices} cosets; oracle: {oracle_ball.n_vertices}; "
        f"{'isomorphic' if same else 'MISMATCH'}"
    ]
    payload = {
        "radius": args.radius,
        "isomorphic": same,
        "enumerated_cosets": mine.n_vertices,
        "oracle_cosets": oracle_ball.n_vertices,
    }
    return payload, lines, OK if same else UNCERT


def run(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        p, h = _load(args)
        payload, lines, code = args.handler(args, p, h)
        _emit(args, p, h, payload, lines)
        return code
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for bad arguments; fold the
        # latter into the usage code so 2 stays reserved for uncertified.
        return OK if not exc.code else USAGE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return BUDGET
    except UnstableBallError as exc:
        print(f"uncertified: {exc}", file=sys.stderr)
        return UNCERT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
