"""Cayley-graph balls and the empirical delta / epsilon estimators.

A Cayley ball is the Schreier ball of the trivial subgroup, so the same
enumerator builds both; the radius cap (`None` = Dehn) only governs how
far the closure may escalate before the build refuses to certify itself.
Vertex keys follow from the canonical BFS labeling: the tree word of a
vertex is its shortlex normal form.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .presentation import Presentation, SubgroupSpec, check_small_cancellation, invert
from .schreier import Ball, DEFAULT_NODE_BUDGET, UnstableBallError, stable_ball
from .word_engine import StrategyError


def build_ball(
    p: Presentation,
    radius: int,
    radius_cap: int | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Ball:
    """Radius-R ball of the Cayley graph, exact and stability-certified.

    With no radius_cap (Dehn) the presentation must be C'(1/6) (closure
    then provably stabilizes; slack escalation is allowed to run).  With a
    radius_cap the enumeration horizon may not exceed it, and a ball that
    cannot certify stability inside the cap is an error rather than a
    guess.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if radius_cap is None:
        if not check_small_cancellation(p).passes:
            raise StrategyError("dehn strategy needs a C'(1/6) presentation")
        max_slack = 12
    elif radius_cap < 1:
        raise ValueError("bounded_bfs needs a positive radius_cap")
    else:
        max_slack = radius_cap - radius
        if max_slack < 0:
            raise UnstableBallError(
                f"radius_cap {radius_cap} is below the requested radius {radius}"
            )
    ball = stable_ball(p, SubgroupSpec(()), radius, max_slack=max_slack, node_budget=node_budget)
    if not ball.stable:
        raise UnstableBallError(f"closure did not stabilize by slack {ball.slack}")
    return ball


def pair_certified(dist: list[int], radius: int, u: int, v: int, d: int) -> bool:
    """Whether d, the in-ball distance from u to v, is the true distance.

    Distances to the base vertex are exact; other pairs need headroom,
    2 dist(u) + d <= 2 radius and the same at v, so that no true geodesic
    can have left the enumerated region.
    """
    r2 = 2 * radius
    return u == 0 or v == 0 or (2 * dist[u] + d <= r2 and 2 * dist[v] + d <= r2)


def _distances_from(ball: Ball, src: int) -> list[int]:
    """BFS distances from src along the ball's edges."""
    out = [-1] * ball.n_vertices
    for d, layer in enumerate(ball.layers(src)):
        for v in layer:
            out[v] = d
    if -1 in out:
        raise ValueError("ball is not connected")
    return out


# the exhaustive defect scan is cubic in the vertex count; larger balls sample
EXHAUSTIVE_CAP = 120


def _doubled_defect_at(b: int, d: list[list[int]], cert: list[list[bool]], best: int) -> int:
    """Raise best to the largest doubled defect among quadruples based at b.

    With p2 the doubled Gromov product at b, max_z min(p2(x,z), p2(y,z))
    >= t exactly when the bitsets {z : p2(x,z) >= t} and {z : p2(y,z) >= t}
    meet, z ranging over the vertices whose pairs with b and x (or y) are
    certified.  Thresholds descend, so the first t at which a pair meets
    is its maximum; a pair is dropped once t - p2(x,y) cannot beat best.
    """
    db = d[b]
    members = [x for x in range(len(db)) if cert[b][x]]
    p2 = {x: {z: db[x] + db[z] - d[x][z] for z in members if cert[x][z]} for x in members}
    levels: dict[int, dict[int, int]] = {x: {} for x in members}  # x -> t -> bits
    for x, row in p2.items():
        for z, t in row.items():
            levels[x][t] = levels[x].get(t, 0) | 1 << z
    pending = [(x, y, q) for x, row in p2.items() for y, q in row.items() if x < y]
    masks = dict.fromkeys(members, 0)
    for t in sorted({t for row in p2.values() for t in row.values()}, reverse=True):
        for x in members:
            masks[x] |= levels[x].get(t, 0)
        keep = []
        for x, y, q in pending:
            if t - q <= best:
                continue  # thresholds only fall from here
            if masks[x] & masks[y]:
                best = t - q
            else:
                keep.append((x, y, q))
        pending = keep
    return best


def estimate_delta(ball: Ball, sample: int | None = None, seed: int = 0) -> Fraction:
    """Four-point hyperbolicity defect over certified quadruples.

    max over (base, x, y, z) of min{(x|z), (y|z)} - (x|y) at that base,
    floored at 0: a lower bound for delta_X.  Exhaustive up to
    EXHAUSTIVE_CAP vertices; beyond that a seeded quadruple sample must be
    requested explicitly.  The sample draws from the inner half-ball
    (2 dist <= radius), where every in-ball distance satisfies
    d(u, v) <= dist(u) + dist(v) and so is certified; vertices nearer the
    rim would almost never form a certified quadruple.  Only quadruples
    whose six pairwise distances are all certified contribute, so growing
    the radius never shrinks the value.
    """
    if ball.radius < 1:
        raise ValueError("ball radius must be >= 1")
    n = ball.n_vertices
    certified = lambda u, v, d: pair_certified(ball.dist, ball.radius, u, v, d)
    best = 0
    if sample is None:
        if n > EXHAUSTIVE_CAP:
            raise ValueError(
                f"{n} vertices exceed the exhaustive cap {EXHAUSTIVE_CAP}; "
                f"pass sample= for a seeded randomized scan"
            )
        d = [_distances_from(ball, u) for u in range(n)]
        cert = [[certified(u, v, d[u][v]) for v in range(n)] for u in range(n)]
        for b in range(n):
            best = _doubled_defect_at(b, d, cert, best)
    else:
        if sample < 1:
            raise ValueError("sample must be positive")
        rng = random.Random(seed)
        half_ball = [v for v, dv in enumerate(ball.dist) if 2 * dv <= ball.radius]
        rows: dict[int, list[int]] = {}
        for _ in range(sample):
            b, x, y, z = (rng.choice(half_ball) for _ in range(4))
            rows.update((u, _distances_from(ball, u)) for u in (b, x, y) if u not in rows)
            pairs = ((b, x), (b, y), (b, z), (x, y), (x, z), (y, z))
            if all(certified(u, v, rows[u][v]) for u, v in pairs):
                p2 = lambda u, v: rows[b][u] + rows[b][v] - rows[u][v]
                best = max(best, min(p2(x, z), p2(y, z)) - p2(x, y))
    return Fraction(best, 2)


def orbit_in_ball(ball: Ball, h: SubgroupSpec) -> list[int]:
    """Closure of the base under subgroup-generator translations in-ball.

    Walks each generator word (and its inverse) from every reached vertex;
    products whose path leaves the ball are dropped, so this is the set of
    orbit points whose witnessing product path fits in the ball.
    """
    words = [w for w in h.words] + [invert(w) for w in h.words]
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for w in words:
                u = v
                for x in w:
                    u = ball.table[x][u]
                    if u < 0:
                        break
                else:
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
        frontier = nxt
    return sorted(seen)


def estimate_epsilon(ball: Ball, h: SubgroupSpec) -> int:
    """Maximal distance from orbit-pair geodesics back to the orbit.

    For every certified pair of orbit points, every in-ball geodesic
    vertex between them is measured against the orbit; the max is the
    empirical quasi-convexity constant.  Distances are taken inside the
    ball, so values at the very boundary can overstate slightly; certified
    pairs keep the geodesics themselves honest.
    """
    orbit = orbit_in_ball(ball, h)
    if len(orbit) < 2:
        raise ValueError("fewer than 2 orbit points in ball")
    rows = [_distances_from(ball, p) for p in orbit]
    to_orbit = [min(col) for col in zip(*rows)]
    eps = 0
    for i, p in enumerate(orbit):
        for j in range(i + 1, len(orbit)):
            q = orbit[j]
            dpq = rows[i][q]
            if not pair_certified(ball.dist, ball.radius, p, q, dpq):
                continue
            for v, (a, b) in enumerate(zip(rows[i], rows[j])):
                if a + b == dpq and to_orbit[v] > eps:
                    eps = to_orbit[v]
    return eps
