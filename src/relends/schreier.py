"""Bounded Schreier-graph balls by coset enumeration.

HLT-style bounded Todd-Coxeter: subgroup-generator loops are traced at the
base coset with unbounded gap-filling (they define the subgroup; the fold of
that wedge is the Stallings core when there are no relators), then relator
scans sweep every coset whose provisional distance is within radius + slack,
filling gaps for cosets strictly inside the horizon and closing
single-edge gaps on the horizon itself.  Coincidences go through a FIFO
queue over a union-find with path halving; reads resolve stale targets
lazily via find.  Sweeps repeat until nothing changes; before each, the
distances are settled to exact BFS distances from the rows whose edges
changed.  The returned ball is truncated to the requested radius and
relabeled in BFS order (generators in declared order, positive letter
before inverse), so equal balls have equal tables.

Stability is certified empirically: a ball is stable when rerunning with
slack + 1 yields the identical truncated table.  Results from unstable
balls must be treated as uncertified by callers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .presentation import Presentation, SubgroupSpec, Word

DEFAULT_NODE_BUDGET = 5_000_000


class BudgetExceeded(RuntimeError):
    """The enumeration needed more table cells than the budget; horizon and
    rows are the run's horizon and the rows it had allocated."""

    def __init__(self, node_budget: int, horizon: int, rows: int):
        super().__init__(node_budget, horizon, rows)
        self.node_budget, self.horizon, self.rows = node_budget, horizon, rows

    def __str__(self) -> str:
        # certified ledgers ask for horizons too long to print in full
        bits = self.horizon.bit_length()
        horizon = self.horizon if bits <= 64 else f"2^{bits - 1} or more"
        return (f"enumeration needs more than {self.node_budget} table cells "
                f"(horizon {horizon}, {self.rows} rows allocated)")


@dataclass
class Ball:
    """A truncated, canonically labeled Schreier ball of (G, H).

    The Cayley ball is the case H = 1.  table has one column per letter;
    table[x][v] is the target coset or -1 when the edge leaves the ball (or
    leads out of the enumerated region).  Vertex 0 is the base; dist is the
    BFS distance from it.  stable records whether slack + 1 reproduced the
    identical ball; results from unstable balls are uncertified.
    """

    gen_names: tuple[str, ...]
    table: list[list[int]]
    dist: list[int]
    radius: int
    parent: list[int]
    parent_letter: list[int]
    slack: int = 0
    stable: bool = True
    subgroup_words: tuple[Word, ...] = ()

    @property
    def n_vertices(self) -> int:
        return len(self.dist)

    @property
    def n_letters(self) -> int:
        return 2 * len(self.gen_names)

    def word_to(self, v: int) -> Word:
        """Letters of the BFS-tree path from the base to v (shortlex-least)."""
        out: list[int] = []
        while v != 0:
            out.append(self.parent_letter[v])
            v = self.parent[v]
        return tuple(reversed(out))

    def sphere(self, r: int) -> list[int]:
        if r > self.radius:
            raise ValueError(f"sphere radius {r} exceeds ball radius {self.radius}")
        return [v for v, d in enumerate(self.dist) if d == r]

    def layers(self, src: int, allowed: list[bool] | None = None):
        """In-ball BFS from src: yields the vertices at distance 0, 1, ...

        Only vertices that allowed marks are entered, src included (all
        when allowed is None).  Within a layer, vertices come in discovery
        order, letters in column order.
        """
        if allowed is not None and not allowed[src]:
            return
        seen = {src}
        layer = [src]
        while layer:
            yield layer
            nxt = []
            for v in layer:
                for col in self.table:
                    t = col[v]
                    if t >= 0 and t not in seen and (allowed is None or allowed[t]):
                        seen.add(t)
                        nxt.append(t)
            layer = nxt


def _raw_enumerate(p: Presentation, h_words: tuple[Word, ...], horizon: int, node_budget: int):
    """Run closure out to the horizon; returns (cols, parent_uf, pdist, find).

    pdist holds exact BFS distances on live rows (uf[c] == c); find resolves
    a stored target to its live row.
    """
    L = p.n_letters
    relators = list(p.relators)
    cols: list[list[int]] = [[-1] for _ in range(L)]
    uf: list[int] = [0]
    pdist: list[int] = [0]
    pending: deque[tuple[int, int]] = deque()
    # an end of every edge added since the last settle; see settle()
    dirty: list[int] = []

    def find(c: int) -> int:
        while uf[c] != c:
            uf[c] = uf[uf[c]]
            c = uf[c]
        return c

    def new_row(src: int, x: int) -> int:
        t = len(uf)
        if (t + 1) * L > node_budget:
            raise BudgetExceeded(node_budget, horizon, t)
        for col in cols:
            col.append(-1)
        uf.append(t)
        pdist.append(pdist[src] + 1)
        cols[x][src] = t
        cols[x ^ 1][t] = src
        return t

    def merge(a: int, b: int) -> None:
        pending.append((a, b))
        while pending:
            a, b = pending.popleft()
            a, b = find(a), find(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            uf[b] = a
            if pdist[b] < pdist[a]:
                pdist[a] = pdist[b]
            dirty.append(a)
            for x in range(L):
                tb = cols[x][b]
                if tb < 0:
                    continue
                ta = cols[x][a]
                if ta < 0:
                    cols[x][a] = tb
                elif find(ta) != find(tb):
                    pending.append((ta, tb))

    def scan(c: int, w: Word, fill: bool) -> bool:
        """Trace w at c; close the loop, deduce, or fill.  True if mutated."""
        n = len(w)
        f = find(c)
        i = 0
        while i < n:
            t = cols[w[i]][f]
            if t < 0:
                break
            f = find(t)
            i += 1
        if i == n:
            back = find(c)
            if f != back:
                merge(f, back)
                return True
            return False
        b = find(c)
        j = n
        while j > i:
            t = cols[w[j - 1] ^ 1][b]
            if t < 0:
                break
            b = find(t)
            j -= 1
        if j == i:
            if f != b:
                merge(f, b)
                return True
            return False
        if j > i + 1:
            if not fill:
                return False
            while j > i + 1:
                x = w[i]
                t = cols[x][f]
                f = find(t) if t >= 0 else new_row(f, x)
                i += 1
        # one gap left: w[i] should lead from f to b
        x = w[i]
        t = cols[x][f]
        if t >= 0:
            if find(t) != b:
                merge(t, b)
            return True
        back = cols[x ^ 1][b]
        if back >= 0:
            merge(back, f)
            return True
        cols[x][f] = b
        cols[x ^ 1][b] = f
        dirty.append(f)
        dirty.append(b)
        return True

    def settle() -> None:
        """Lower pdist to exact BFS distances on live rows.

        pdist only falls and is always the length of some walk.  An edge
        whose ends differ by more than one has its nearer end dirty: scan
        marks both ends of an edge it closes, merge marks the representative
        whose pdist it may lower (the merged row's edges that differ by more
        than one already had a dirty nearer end), and a new row starts at
        pdist[src] + 1.  So pushing every dirty row outward in distance
        order (Dial's buckets) restores exactness.
        """
        buckets: dict[int, list[int]] = {}
        for s in {find(c) for c in dirty}:
            buckets.setdefault(pdist[s], []).append(s)
        dirty.clear()
        d = min(buckets, default=0)
        while buckets:
            for v in buckets.pop(d, ()):
                if pdist[v] != d:
                    continue  # lowered again after it was queued
                for x in range(L):
                    t = cols[x][v]
                    if t >= 0:
                        t = find(t)
                        if pdist[t] > d + 1:
                            pdist[t] = d + 1
                            buckets.setdefault(d + 1, []).append(t)
            d += 1

    for w in h_words:
        scan(0, w, fill=True)

    changed = True
    while changed:
        settle()
        changed = False
        c = 0
        while c < len(uf):
            if uf[c] == c:
                d = pdist[c]
                if d < horizon:
                    for x in range(L):
                        if cols[x][c] < 0:
                            new_row(c, x)
                            changed = True
                if d <= horizon:
                    inside = d < horizon
                    for w in relators:
                        if scan(c, w, fill=inside):
                            changed = True
                        if uf[c] != c:
                            break
            c += 1

    return cols, uf, pdist, find


def _relabel(cols: list[list[int]], find, root: int, radius: int):
    """Truncate to the radius around root and relabel in canonical BFS order.

    Letters are visited in column order, so parent_letter indexes cols;
    find resolves a stored target to its live representative.
    """
    canon = {root: 0}
    order = [root]
    dist = [0]
    parent = [-1]
    parent_letter = [-1]
    L = len(cols)
    head = 0
    while head < len(order):
        v = order[head]
        d = dist[head]
        head += 1
        if d == radius:
            continue
        for x in range(L):
            t = cols[x][v]
            if t < 0:
                continue
            t = find(t)
            if t not in canon:
                canon[t] = len(order)
                order.append(t)
                dist.append(d + 1)
                parent.append(canon[v])
                parent_letter.append(x)
    table: list[list[int]] = []
    for col_in in cols:
        col_out = []
        for v in order:
            t = col_in[v]
            if t >= 0:
                t = canon.get(find(t), -1)
            col_out.append(t)
        table.append(col_out)
    return table, dist, parent, parent_letter


def _finalize(p: Presentation, raw, radius: int):
    """Truncate to the radius and relabel cosets in canonical BFS order."""
    cols, _uf, _pdist, find = raw
    return _relabel(cols, find, find(0), radius)


def _truncated_run(
    p: Presentation,
    h: SubgroupSpec,
    radius: int,
    slack: int,
    node_budget: int,
) -> Ball:
    raw = _raw_enumerate(p, h.words, radius + slack, node_budget)
    table, dist, parent, parent_letter = _finalize(p, raw, radius)
    return Ball(p.generators, table, dist, radius, parent, parent_letter,
                slack=slack, subgroup_words=h.words)


def _agree(a: Ball, b: Ball) -> bool:
    """Two truncated runs give the identical ball (same table and distances)."""
    return a.table == b.table and a.dist == b.dist


def enumerate_cosets(
    p: Presentation,
    h: SubgroupSpec,
    radius: int,
    slack: int = 0,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Ball:
    """Ball of the Schreier graph of (G, H) out to the given radius.

    Cosets are enumerated to radius + slack, closed under subgroup loops at
    the base and relator loops wherever they fit, truncated, and relabeled.
    The stable flag records whether slack + 1 reproduces the identical ball.
    """
    if radius < 0 or slack < 0:
        raise ValueError("radius and slack must be nonnegative")
    ball = _truncated_run(p, h, radius, slack, node_budget)
    ball.stable = _agree(ball, _truncated_run(p, h, radius, slack + 1, node_budget))
    return ball


def stable_ball(
    p: Presentation,
    h: SubgroupSpec,
    radius: int,
    start_slack: int = 0,
    max_slack: int = 12,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Ball:
    """Escalate slack until two consecutive truncations agree.

    Returns the first stable ball, or the last attempt flagged unstable when
    max_slack is exhausted.
    """
    if radius < 0 or start_slack < 0:
        raise ValueError("radius and start_slack must be nonnegative")
    ball = _truncated_run(p, h, radius, start_slack, node_budget)
    while True:
        nxt = _truncated_run(p, h, radius, ball.slack + 1, node_budget)
        if _agree(ball, nxt):
            return ball
        ball = nxt
        if ball.slack > max_slack:
            ball.stable = False
            return ball


@dataclass(frozen=True)
class CoveringViolation:
    coset: int
    dist: int
    kind: str  # missing_edge | loop | multi_edge
    letter: int


@dataclass(frozen=True)
class CoveringReport:
    passed: bool
    exclusion_radius: int
    checked: int
    violations: tuple[CoveringViolation, ...]


def covering_degree_check(ball: Ball, exclusion_radius: int) -> CoveringReport:
    """Check the ball looks like a covering of a wedge outside the exclusion.

    Every coset with exclusion_radius <= dist < radius must have all 2#S
    edges defined, no loop, and no doubled edge.  The lower bound is
    inclusive so an H-loop sitting exactly on the exclusion sphere is
    reported.  Violations mean the exclusion radius is below this
    instance's quotient-hyperbolicity threshold.
    """
    L = ball.n_letters
    violations: list[CoveringViolation] = []
    checked = 0
    for v in range(ball.n_vertices):
        d = ball.dist[v]
        if not (exclusion_radius <= d < ball.radius):
            continue
        checked += 1
        seen: dict[int, int] = {}
        for x in range(L):
            t = ball.table[x][v]
            if t < 0:
                violations.append(CoveringViolation(v, d, "missing_edge", x))
            elif t == v:
                violations.append(CoveringViolation(v, d, "loop", x))
            elif t in seen:
                violations.append(CoveringViolation(v, d, "multi_edge", x))
            else:
                seen[t] = x
    return CoveringReport(not violations, exclusion_radius, checked, tuple(violations))


def restrict_to_generators(ball: Ball, names: tuple[str, ...]) -> Ball:
    """Subgraph on a sub-alphabet, re-BFS'd from the base.

    Distances are recomputed inside the restricted graph; vertices that the
    kept letters cannot reach within the original radius are dropped.  Used
    to compare a Schreier ball against a quotient's Cayley ball when the
    remaining generators act trivially.
    """
    keep = []
    for name in names:
        try:
            i = ball.gen_names.index(name)
        except ValueError:
            raise ValueError(f"generator {name!r} not in ball alphabet") from None
        keep.append(i)
    cols = [ball.table[x] for i in keep for x in (2 * i, 2 * i + 1)]
    table, dist, parent, parent_letter = _relabel(cols, lambda t: t, 0, ball.radius)
    return Ball(
        gen_names=tuple(names),
        table=table,
        dist=dist,
        radius=ball.radius,
        parent=parent,
        parent_letter=parent_letter,
        slack=ball.slack,
        stable=ball.stable,
    )
