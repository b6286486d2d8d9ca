"""Free-group oracle: Stallings folding and exact Schreier balls.

For a finitely generated subgroup H of a free group, fold the wedge of the
generator loops to get the core graph; the Schreier graph is the core with
infinite trees hung on every missing direction, so a radius-R ball can be
written down exactly.  The fold keeps its own union-find, independent of
the coset enumerator by design, because the oracle is the enumerator's
cross-check.  Only the fold shares the enumerator's relabel,
schreier._relabel; free_schreier_ball writes its ball in canonical order
in its own BFS, and canonical_code checks that labeling by the in-ball
BFS, Ball.layers, independent of both.  Used as ground truth in tests and
in the fold/compare commands.
"""

from __future__ import annotations

import random

from .presentation import Presentation, SubgroupSpec
from .schreier import Ball, _relabel


def stallings_fold(
    p: Presentation, h: SubgroupSpec, fold_order_seed: int | None = None
) -> Ball:
    """Fold the wedge of H's generator loops into the core graph.

    The core is returned as a Ball based at vertex 0 whose radius is the
    base's eccentricity in the core; a -1 cell is a direction that leads
    into a hanging tree.  Every defined edge has its inverse defined, and no
    vertex has two equal-labeled outgoing edges: that is the folded
    invariant.  Only meaningful over a free ambient group; a presentation
    with relators is rejected.  The optional seed shuffles the order in
    which pending identifications are processed; the result is the same
    graph regardless (folding is confluent), which the tests lean on.
    """
    if p.relators:
        raise ValueError("Stallings folding needs a free ambient group (no relators)")
    p.check_letters(h.words, "subgroup")
    L = p.n_letters

    # wedge of loops, one row of L cells per vertex as in _raw_enumerate
    cells: list[int] = [-1] * L
    uf: list[int] = [0]

    def find(c: int) -> int:
        while uf[c] != c:
            uf[c] = uf[uf[c]]
            c = uf[c]
        return c

    pending: list[tuple[int, int]] = []
    rng = random.Random(fold_order_seed) if fold_order_seed is not None else None

    def attach(src: int, x: int, dst: int) -> None:
        """Add edge src -x-> dst, queueing a fold if the slot is taken."""
        cur = cells[src * L + x]
        if cur < 0:
            cells[src * L + x] = dst
            cur = cells[dst * L + (x ^ 1)]
            if cur < 0:
                cells[dst * L + (x ^ 1)] = src
            elif find(cur) != find(src):
                pending.append((cur, src))
        elif find(cur) != find(dst):
            pending.append((cur, dst))

    for w in h.words:
        prev = 0
        for x in w[:-1]:
            nxt = len(uf)
            uf.append(nxt)
            cells.extend([-1] * L)
            attach(prev, x, nxt)
            prev = nxt
        attach(prev, w[-1], 0)

    while pending:
        if rng is not None and len(pending) > 1:
            k = rng.randrange(len(pending))
            pending[k], pending[-1] = pending[-1], pending[k]
        a, b = pending.pop()
        a, b = find(a), find(b)
        if a == b:
            continue
        if b < a:
            a, b = b, a
        uf[b] = a
        for x in range(L):
            tb = cells[b * L + x]
            if tb < 0:
                continue
            ta = cells[a * L + x]
            if ta < 0:
                cells[a * L + x] = tb
            elif find(ta) != find(tb):
                pending.append((ta, tb))

    # no vertex lies further from the base than the core has rows
    table, dist = _relabel(cells, L, find, len(uf))
    return Ball(p.generators, table, dist, max(dist))


def free_schreier_ball(core: Ball, radius: int) -> Ball:
    """Exact radius-R Schreier ball over a free group, from the folded core.

    Every missing direction at a vertex carries an infinite tree; geodesics
    never shortcut through those trees, so one BFS over the core and its
    hanging trees, out to the radius, walks the true metric ball.  It hands
    out labels in discovery order, letters in row order, which is the
    canonical labeling, so it writes the table as it goes and relabels
    nothing.  Label i is core vertex src[i] >= 0, or the tree vertex
    ~src[i] = u * L + x entered by letter x from label u.  A tree row is a
    fixed pattern: its parent in the back-letter cell, and new children, or
    -1 on the radius, everywhere else.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    L, cells = core.n_letters, core.table
    canon = [-1] * core.n_vertices
    canon[0] = 0
    src, dist, table = [0], [0], []
    head = 0
    while head < len(src) and (d := dist[head]) < radius:
        s, n = src[head], len(src)
        if s >= 0:
            row = []
            for x, t in enumerate(cells[s * L:s * L + L]):
                if t < 0:
                    src.append(~(head * L + x))
                elif canon[t] < 0:
                    canon[t] = len(src)
                    src.append(t)
                else:
                    row.append(canon[t])
                    continue
                row.append(len(src) - 1)
        else:
            u, back = divmod(~s, L)
            back ^= 1
            row = list(range(n, n + L - 1))
            row.insert(back, u)
            src += range(~(head * L), ~(head * L + L), -1)
            del src[back - L]  # a child by every letter but the way back
        dist += [d + 1] * (len(src) - n)
        table += row
        head += 1
    # every row left lies on the radius, and nothing new gets a label
    table += [-1] * (L * (len(src) - head))
    for i in range(head, len(src)):
        if (s := src[i]) >= 0:
            table[i * L:i * L + L] = [canon[t] if t >= 0 else -1 for t in cells[s * L:s * L + L]]
        else:
            u, x = divmod(~s, L)
            table[i * L + (x ^ 1)] = u
    return Ball(core.gen_names, table, dist, radius)


def canonical_code(ball: Ball) -> tuple[int, ...]:
    """Base-rooted BFS certificate; equal codes mean label-preserving iso.

    The vertices are numbered in the order Ball.layers(0) discovers them,
    letters in row order; the code is L followed by every vertex's row
    under that numbering, -1 for a cell that leaves the ball.
    """
    order = [v for layer in ball.layers(0) for v in layer]
    if len(order) != ball.n_vertices:
        raise ValueError("ball has vertices unreachable from the base")
    canon = {v: i for i, v in enumerate(order)}
    table, L = ball.table, ball.n_letters
    code = [L]
    for v in order:
        code += [canon[t] if t >= 0 else -1 for t in table[v * L:v * L + L]]
    return tuple(code)


def graphs_isomorphic(g1: Ball, g2: Ball) -> bool:
    """Base- and label-preserving isomorphism of truncated balls.

    Every Ball constructor emits the canonical BFS labeling, under which
    the only such isomorphism is the identity, so isomorphic balls have
    equal tables: canonical_code of either is L followed by its table read
    row by row.
    """
    if g1.gen_names != g2.gen_names:
        raise ValueError("balls are over different generator alphabets")
    return g1.table == g2.table
