"""Cayley-graph balls and the empirical delta / epsilon estimators.

A Cayley ball is the Schreier ball of the trivial subgroup, so the same
enumerator builds both; the word-problem strategy only governs how far the
closure may escalate before the build refuses to certify itself.  Vertex
keys follow from the canonical BFS labeling: the tree word of a vertex is
its shortlex normal form.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .presentation import Presentation, SubgroupSpec, check_small_cancellation
from .schreier import Ball, DEFAULT_NODE_BUDGET, stable_ball


def build_ball(
    p: Presentation,
    radius: int,
    strategy,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Ball:
    """Radius-R ball of the Cayley graph, exact and stability-certified.

    Under the dehn strategy the presentation must be C'(1/6) (closure then
    provably stabilizes; slack escalation is allowed to run).  Under
    bounded_bfs the enumeration horizon may not exceed radius_cap, and a
    ball that cannot certify stability inside the cap is an error rather
    than a guess.
    """
    from .word_engine import StrategyError, UndecidedWithinBound

    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if strategy.kind == "dehn":
        if not check_small_cancellation(p).passes:
            raise StrategyError("dehn strategy needs a C'(1/6) presentation")
        max_slack = 12
    else:
        max_slack = strategy.radius_cap - radius
        if max_slack < 0:
            raise UndecidedWithinBound(
                f"radius_cap {strategy.radius_cap} is below the requested radius {radius}"
            )
    ball = stable_ball(p, SubgroupSpec(()), radius, max_slack=max_slack, node_budget=node_budget)
    if not ball.stable:
        raise UndecidedWithinBound(f"closure did not stabilize by slack {ball.slack}")
    return ball


class UncertifiedDistance(ValueError):
    """A geodesic for this pair may leave the enumerated ball."""


def pair_certified(dist, radius: int, u, v, d):
    """Whether d, the in-ball distance from u to v, is the true distance.

    Distances to the base vertex are exact; other pairs need headroom,
    2 dist(u) + d <= 2 radius and the same at v, so that no true geodesic
    can have left the enumerated region.  Vertices may be ints (dist a
    list) or index arrays (dist a numpy array); arrays compare elementwise.
    """
    r2 = 2 * radius
    return (u == 0) | (v == 0) | ((2 * dist[u] + d <= r2) & (2 * dist[v] + d <= r2))


def _distances_from(ball: Ball, src: int) -> np.ndarray:
    """BFS distances from src along the ball's edges, cached per source."""
    row = ball._rows.get(src)
    if row is not None:
        return row
    out = [-1] * ball.n_vertices
    for d, layer in enumerate(ball.layers(src)):
        for v in layer:
            out[v] = d
    row = np.array(out, dtype=np.int32)
    if (row < 0).any():
        raise ValueError("ball is not connected")
    ball._rows[src] = row
    return row


def _distance_rows(ball: Ball, sources) -> np.ndarray:
    return np.stack([_distances_from(ball, int(s)) for s in sources]).astype(np.int64)


def in_ball_distance(ball: Ball, u: int, v: int) -> tuple[int, bool]:
    """(distance, certified): certified means it equals the true metric.

    Both endpoints need dist0 <= radius - d/2, so any true geodesic stays
    inside the enumerated region; pairs through the base are always exact.
    """
    duv = int(_distances_from(ball, u)[v])
    return duv, bool(pair_certified(ball.dist, ball.radius, u, v, duv))


def gromov_product(ball: Ball, x: int, y: int, base: int) -> Fraction:
    """(d(base,x) + d(base,y) - d(x,y)) / 2, exact in-ball."""
    dbx, c1 = in_ball_distance(ball, base, x)
    dby, c2 = in_ball_distance(ball, base, y)
    dxy, c3 = in_ball_distance(ball, x, y)
    if not (c1 and c2 and c3):
        raise UncertifiedDistance(
            f"a geodesic among vertices ({base},{x},{y}) may leave the ball"
        )
    return Fraction(dbx + dby - dxy, 2)


def estimate_delta(
    ball: Ball,
    sample: int | None = None,
    seed: int = 0,
    exhaustive_cap: int = 120,
) -> Fraction:
    """Four-point hyperbolicity defect over certified quadruples.

    max over (base, x, y, z) of min{(x|z), (y|z)} - (x|y) at that base,
    floored at 0: a lower bound for delta_X.  Exhaustive up to
    exhaustive_cap vertices; beyond that a seeded quadruple sample must be
    requested explicitly.  Only quadruples whose six pairwise distances
    are all certified contribute, so growing the radius never shrinks the
    value.
    """
    if ball.radius < 1:
        raise ValueError("ball radius must be >= 1")
    n = ball.n_vertices
    dist0 = np.asarray(ball.dist, dtype=np.int64)
    best = 0
    if sample is None:
        if n > exhaustive_cap:
            raise ValueError(
                f"{n} vertices exceed the exhaustive cap {exhaustive_cap}; "
                f"pass sample= for a seeded randomized scan"
            )
        d = _distance_rows(ball, range(n))
        idx = np.arange(n)
        cert = pair_certified(dist0, ball.radius, idx[:, None], idx[None, :], d)
        for b in range(n):
            db = d[b]
            certb = cert[b]
            p2 = db[:, None] + db[None, :] - d  # twice the Gromov product
            valid = cert & certb[:, None] & certb[None, :]
            neg = -(1 << 40)  # sentinel far below any real defect, no wraparound
            acc = np.full((n, n), neg, dtype=np.int64)
            for z in range(n):
                vz = valid[:, z]
                if not vz.any():
                    continue
                colz = p2[:, z]
                m = np.minimum(colz[:, None], colz[None, :])
                m = np.where(vz[:, None] & vz[None, :], m, neg)
                np.maximum(acc, m, out=acc)
            defect = np.where((acc != neg) & valid, acc - p2, neg)
            top = int(defect.max(initial=neg))
            if top > best:
                best = top
    else:
        if sample < 1:
            raise ValueError("sample must be positive")
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, n, size=(4, sample), dtype=np.int64)
        bb, xx, yy, zz = idx
        sources = np.unique(idx[:3])
        rows = _distance_rows(ball, sources)
        d = lambda u, v: rows[np.searchsorted(sources, u), v]
        cert = lambda u, v: pair_certified(dist0, ball.radius, u, v, d(u, v))
        p2 = lambda u, v: d(bb, u) + d(bb, v) - d(u, v)
        vals = np.minimum(p2(xx, zz), p2(yy, zz)) - p2(xx, yy)
        ok = (
            cert(bb, xx)
            & cert(bb, yy)
            & cert(bb, zz)
            & cert(xx, yy)
            & cert(xx, zz)
            & cert(yy, zz)
        )
        if ok.any():
            best = max(best, int(vals[ok].max()))
    return Fraction(max(best, 0), 2)


def orbit_in_ball(ball: Ball, h: SubgroupSpec) -> list[int]:
    """Closure of the base under subgroup-generator translations in-ball.

    Walks each generator word (and its inverse) from every reached vertex;
    products whose path leaves the ball are dropped, so this is the set of
    orbit points whose witnessing product path fits in the ball.
    """
    from .presentation import invert

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
    rows = _distance_rows(ball, orbit)
    to_orbit = rows.min(axis=0)
    eps = 0
    for i, p in enumerate(orbit):
        for j in range(i + 1, len(orbit)):
            q = orbit[j]
            if not pair_certified(ball.dist, ball.radius, p, q, rows[i, q]):
                continue
            on_geo = rows[i] + rows[j] == rows[i, q]
            far = int(to_orbit[on_geo].max())
            if far > eps:
                eps = far
    return eps
