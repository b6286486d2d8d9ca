"""Sphere classes, condition checkers, and the end counters.

The count works on a truncated quotient ball: vertices of the sphere S(R0)
are equivalent when a path inside the annulus {dist > R0 - inner_offset},
out to the ball's edge, joins them, and the number of classes, probed at
several R0 and watched for stabilization, is the reported number of
relative ends.  An independent counter (components of the complement of
balls that still touch the enumerated frontier) cross-checks it.  The
annulus conditions test only pairs whose in-ball distance
`pair_certified` vouches for as the true distance.

Verdicts are deliberately conservative: a finite answer needs the class
history constant across the window AND a stable ball (or a stable ball
whose rim is empty, which closes the coset table: 0 ends); a strictly
growing history reads as infinite; anything else is "uncertified".  Over
the trivial subgroup, a finite count that the theorems of Hopf and
Freudenthal forbid is "uncertified" too.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .constants import ConstantsLedger, annulus_inner_radius
from .presentation import Presentation, SubgroupSpec
from .schreier import (Ball, DEFAULT_MAX_SLACK, DEFAULT_NODE_BUDGET, UnstableBallError,
                       _free_rank, stable_ball)

INFINITE = "infinite (non-stabilizing)"
UNCERTIFIED = "uncertified"


def _labels(ball: Ball, seeds: list[int], cut: int) -> list[int]:
    """Each vertex's first seed whose BFS inside {dist > cut} reaches it, or -1."""
    lo = bisect_right(ball.dist, cut)
    label = [-1] * ball.n_vertices
    for s in seeds:
        if label[s] < 0:
            for layer in ball.layers(s, lo):
                for v in layer:
                    label[v] = s
    return label


def sphere_classes(ball: Ball, r0: int, inner: int) -> list[tuple[int, ...]]:
    """Partition of S(r0) by connectivity inside the annulus {inner < dist},
    out to the ball's edge.

    The sphere is flooded in ascending order, so each class is labeled by
    its least vertex, which under the canonical BFS labeling is the
    shortlex-least coset of the class; classes come out in that order.  A
    sphere vertex outside the annulus (R0 = 0) is a class of its own.
    """
    if not (0 <= inner < ball.radius and r0 <= ball.radius):
        raise ValueError(f"bad annulus radii: inner={inner}, R0={r0}, ball radius={ball.radius}")
    sphere = ball.sphere(r0)
    label = _labels(ball, sphere, inner)
    groups: dict[int, list[int]] = {}
    for v in sphere:
        groups.setdefault(v if label[v] < 0 else label[v], []).append(v)
    return [tuple(g) for g in groups.values()]


def stabilization_verdict(history: list[int], window: int) -> int | str:
    """Finite when the tail is constant, infinite when strictly rising."""
    if window < 1:
        raise ValueError("stabilization window must be positive")
    if len(history) < window:
        return UNCERTIFIED
    tail = history[-window:]
    if all(c == tail[0] for c in tail):
        return tail[0]
    if all(a < b for a, b in zip(tail, tail[1:])):
        return INFINITE
    return UNCERTIFIED


@dataclass(frozen=True)
class EndsReport:
    count: int | str
    class_history: tuple[int, ...]


def probe_class_history(
    ball: Ball, template: ConstantsLedger, probe_r0s: list[int]
) -> list[int]:
    """Class counts at each probe R0, reusing one ball.

    Each probe keeps the template's inner offset; the connectivity region
    always reaches the ball's edge, since the whole stable ball is the
    certified window and truncating it early only severs real paths.
    """
    return [
        len(sphere_classes(ball, r0, annulus_inner_radius(r0, template.inner_offset)))
        for r0 in probe_r0s
    ]


def count_relative_ends(
    p: Presentation,
    h: SubgroupSpec,
    ledger: ConstantsLedger,
    probe_r0s: list[int],
    stabilization_window: int = 3,
    node_budget: int = DEFAULT_NODE_BUDGET,
    max_slack: int = DEFAULT_MAX_SLACK,
) -> EndsReport:
    """Count relative ends of (G, H) by probed, stabilized sphere classes.

    The ledger acts as a template: its inner_offset and its outer gap
    (outer_radius - R0, at least 1) are reused at every probe.  One ball is
    enumerated out to the largest probe's outer radius and escalated until
    stable; an unstable ball at max_slack is an error, not a number.  A
    stable ball with an empty rim is a complete coset table, so it reads 0.
    With H = 1, a finite count that no group has (above 2, or 2 when the
    abelianization has rank 2 or more) is uncertified.

    A cut must be earned too: a finite count k >= 1 is uncertified unless
    each window probe R0 with room past it (ball radius - R0 at least half
    the longest relator) has k classes at every cut from its own up to
    R0 - 1.  A narrow cut lets paths around it join what a wider cut
    splits: (Z/2)^3 x D-infinity reads 1 at probes 2-5 and has 2 ends.
    This is a heuristic: half a relator bounds only a single relator
    loop's depth.
    """
    if not probe_r0s or any(a >= b for a, b in zip(probe_r0s, probe_r0s[1:])):
        raise ValueError("probe_r0s must be nonempty and strictly ascending")
    if ledger.outer_radius is None:
        raise ValueError("ledger template needs an outer_radius")
    gap = ledger.outer_radius - ledger.r0
    if gap < 1:
        raise ValueError(f"ledger template's outer_radius {ledger.outer_radius} leaves "
                         f"no annulus past R0 = {ledger.r0}")
    radius = probe_r0s[-1] + gap
    ball = stable_ball(p, h, radius, max_slack=max_slack, node_budget=node_budget)
    if not ball.stable:
        raise UnstableBallError(
            f"ball at radius {radius} still unstable at slack {ball.slack}"
        )
    history = probe_class_history(ball, ledger, probe_r0s)
    if ball.sphere(radius):
        verdict = stabilization_verdict(history, stabilization_window)
    else:
        # every row below the horizon is complete and closed: a complete
        # coset table, so H has finite index and the graph no ends
        verdict = 0
    if not h.words and isinstance(verdict, int) and (
            verdict > 2 or (verdict == 2 and _free_rank(p, ()) >= 2)):
        # Hopf, Freudenthal: a group has 0, 1, 2 or infinitely many ends,
        # and a two-ended group is virtually Z, of abelian rank at most 1
        verdict = UNCERTIFIED
    depth = max(map(len, p.relators), default=0) // 2  # of a single relator loop
    if isinstance(verdict, int) and verdict >= 1 and any(
            len(sphere_classes(ball, r0, cut)) != verdict
            for r0 in probe_r0s[-stabilization_window:] if radius - r0 >= depth
            for cut in range(annulus_inner_radius(r0, ledger.inner_offset) + 1, r0)):
        verdict = UNCERTIFIED
    return EndsReport(count=verdict, class_history=tuple(history))


@dataclass(frozen=True)
class EmpiricalEndsReport:
    counts: tuple[int, ...]
    verdict: int | str


def empirical_ends(ball: Ball, radii: list[int], window: int = 3) -> EmpiricalEndsReport:
    """Components of {dist > r} that still touch the enumerated frontier.

    The direct reading of ends: how many unbounded-looking pieces remain
    after deleting each ball.  Components that died out before reaching
    distance = ball radius are bounded and do not count: each radius
    floods {dist > r} from the rim and counts the rim vertices that label
    their own component.
    """
    if not radii or any(a >= b for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be nonempty and strictly ascending")
    if radii[-1] >= ball.radius:
        raise ValueError("largest radius must be strictly below the ball radius")
    rim = ball.sphere(ball.radius)
    counts = []
    for r in radii:
        label = _labels(ball, rim, r)
        counts.append(sum(label[v] == v for v in rim))
    return EmpiricalEndsReport(
        counts=tuple(counts),
        verdict=stabilization_verdict(counts, window),
    )


@dataclass(frozen=True)
class ConditionReport:
    condition: str
    holds_within_ball: bool
    witness_l: int | None
    counterexample: tuple[int, int, int] | None  # (R, x, y)
    admissible_rs: tuple[int, ...]
    pairs_checked: int


def _least_r(lo_r: int, r_cap: int | None) -> int:
    """lo_r, unless r_cap lies below it: a cap that leaves nothing to test
    would read as a vacuous pass, so it is an error (a ball too small for
    lo_r is not)."""
    if r_cap is not None and r_cap < lo_r:
        raise ValueError(f"r_cap {r_cap} is below the least admissible R = {lo_r}")
    return lo_r


def _admissible(lo_r: int, hi_r: int, r_cap: int | None) -> list[int]:
    """Sphere radii lo_r..hi_r, trimmed from above by r_cap."""
    return list(range(lo_r, (hi_r if r_cap is None else min(hi_r, r_cap)) + 1))


def pair_certified(dist: list[int], radius: int, u: int, v: int, d: int) -> bool:
    """Whether d, the in-ball distance from u to v, is the true distance.

    Distances to the base vertex are exact; other pairs need headroom,
    2 dist(u) + d <= 2 radius and the same at v, so that no true geodesic
    can have left the enumerated region.
    """
    r2 = 2 * radius
    return u == 0 or v == 0 or (2 * dist[u] + d <= r2 and 2 * dist[v] + d <= r2)


def _run_condition(
    ball: Ball, label: str, admissible: list[int], k: int, cut: Fraction, m: int
) -> ConditionReport:
    """Pairs x in S(R), y with |dist(y) - R| <= k and d(x, y) <= m, joined
    avoiding the closed ball of radius floor(R - cut), for each R."""
    dist = ball.dist
    witness = 0
    pairs = 0
    for r in admissible:
        # label ranges: the band |dist - R| <= K is lo..hi - 1, S(R) starts
        # at first, and the region past the cut ball at past
        lo, hi = bisect_left(dist, r - k), bisect_right(dist, r + k)
        first = bisect_left(dist, r)
        past = bisect_right(dist, math.floor(r - cut))
        for x in ball.sphere(r):
            partners = []
            for d, layer in zip(range(m + 1), ball.layers(x)):
                for y in layer:
                    # first <= y <= x: x itself, and unordered sphere pairs once
                    if not lo <= y < hi or first <= y <= x:
                        continue
                    if pair_certified(dist, ball.radius, x, y, d):
                        partners.append(y)
            if not partners:
                continue
            pairs += len(partners)
            # shortest paths from x past the cut ball, out to the layer that
            # reaches the last partner
            targets = set(partners)
            reached: dict[int, int] = {}
            for d, layer in enumerate(ball.layers(x, past)):
                reached.update((y, d) for y in layer if y in targets)
                if len(reached) == len(targets):
                    break
            for y in partners:
                if y not in reached:
                    return ConditionReport(
                        condition=label,
                        holds_within_ball=False,
                        witness_l=None,
                        counterexample=(r, x, y),
                        admissible_rs=tuple(admissible),
                        pairs_checked=pairs,
                    )
                if reached[y] > witness:
                    witness = reached[y]
    return ConditionReport(
        condition=label,
        holds_within_ball=True,
        witness_l=witness,
        counterexample=None,
        admissible_rs=tuple(admissible),
        pairs_checked=pairs,
    )


def check_ddag(
    ball: Ball, m: int, k: int, delta_x: Fraction | int = 0, r_cap: int | None = None
) -> ConditionReport:
    """Near-sphere pair connectivity avoiding the shrunken ball (condition
    on the group side).

    For every R with K + 2 delta_x <= R <= radius - K: every certified
    pair x in S(R), y with |dist(y) - R| <= K and d(x, y) <= M must be
    joined by a path avoiding the closed ball of radius R - K - 2 delta_x.
    Holds with the minimal uniform witness L found in the ball, or fails
    with the first counterexample pair.  No admissible R (or no pairs) is
    a vacuous pass with witness 0.

    r_cap trims the admissible range from above; a cap below its least R
    is a ValueError.  Near the ball edge the avoiding path has no room to
    exist even when the group provides one a little deeper, so a
    counterexample there says nothing; keep radius - r_cap at least half
    the longest relator plus one.
    """
    lo_r = ddag_least_r(m, k, delta_x, r_cap)
    admissible = _admissible(lo_r, ball.radius - k, r_cap)
    return _run_condition(ball, f"ddag(M={m},K={k})", admissible, k, k + 2 * Fraction(delta_x), m)


def ddag_least_r(m: int, k: int, delta_x: Fraction | int, r_cap: int | None) -> int:
    """check_ddag's least admissible R, K + 2 delta_x and at least 1; raises
    ValueError for the inputs check_ddag refuses whatever the ball, so a
    caller can refuse them before it enumerates one."""
    dx = Fraction(delta_x)
    if m < 1 or k < 0 or dx < 0:
        raise ValueError("need m >= 1, k >= 0, delta_x >= 0")
    return _least_r(max(math.ceil(k + 2 * dx), 1), r_cap)  # spheres start at 1


def check_dag(
    ball: Ball,
    m: int,
    delta_xh: Fraction | int,
    r_cap: int | None = None,
) -> ConditionReport:
    """Sphere-pair connectivity in the quotient avoiding the shrunken ball.

    For every R with R >= max(M + delta_xh, 8 delta_xh): certified pairs
    x, y in S(R) with d(x, y) <= M must be joined avoiding the closed ball
    of radius R - 8 delta_xh.  r_cap trims the range from above, as in
    check_ddag: counterexamples hard against the ball edge are truncation
    artifacts, not geometry.
    """
    lo_r = dag_least_r(m, delta_xh, r_cap)
    admissible = _admissible(lo_r, ball.radius, r_cap)
    return _run_condition(ball, f"dag(M={m})", admissible, 0, 8 * Fraction(delta_xh), m)


def dag_least_r(m: int, delta_xh: Fraction | int, r_cap: int | None) -> int:
    """check_dag's least admissible R, max(M + delta_xh, 8 delta_xh) and at
    least 1; raises ValueError for the inputs check_dag refuses, as
    ddag_least_r does."""
    dxh = Fraction(delta_xh)
    if m < 1 or dxh < 0:
        raise ValueError("need m >= 1, delta_xh >= 0")
    return _least_r(max(math.ceil(max(m + dxh, 8 * dxh)), 1), r_cap)
