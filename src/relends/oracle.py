"""Free-group oracle: Stallings folding and exact Schreier balls.

Independent of the coset enumerator by design.  For a finitely generated
subgroup H of a free group, fold the wedge of the generator loops to get
the core graph; the Schreier graph is the core with infinite trees hung on
every missing direction, so a radius-R ball can be written down exactly by
BFS.  Used as ground truth in tests and in the fold/compare commands.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .presentation import Presentation, SubgroupSpec, Word
from .schreier import Ball


@dataclass
class CoreGraph:
    """Folded core of a subgroup of a free group, based at vertex 0.

    table[x][v] is the x-neighbor or -1; every defined edge has its inverse
    defined (table[x][v] == w implies table[x^1][w] == v), and no vertex has
    two equal-labeled outgoing edges: that is the folded invariant.
    """

    gen_names: tuple[str, ...]
    table: list[list[int]]

    @property
    def n_vertices(self) -> int:
        return len(self.table[0]) if self.table else 1

    @property
    def n_letters(self) -> int:
        return 2 * len(self.gen_names)

    def accepts(self, word: Word) -> bool:
        """Membership in H: does the word trace a loop at the base?"""
        v = 0
        for x in word:
            v = self.table[x][v]
            if v < 0:
                return False
        return v == 0

    def is_folded(self) -> bool:
        L = self.n_letters
        for v in range(self.n_vertices):
            for x in range(L):
                w = self.table[x][v]
                if w >= 0 and self.table[x ^ 1][w] != v:
                    return False
        return True


def stallings_fold(
    p: Presentation, h: SubgroupSpec, fold_order_seed: int | None = None
) -> CoreGraph:
    """Fold the wedge of H's generator loops into the core graph.

    Only meaningful over a free ambient group; a presentation with relators
    is rejected.  The optional seed shuffles the order in which pending
    identifications are processed; the result is the same graph regardless
    (folding is confluent), which the tests lean on.
    """
    if p.relators:
        raise ValueError("Stallings folding needs a free ambient group (no relators)")
    L = p.n_letters

    # wedge of loops; nbr[x][v] mirrors the Ball column layout
    nbr: list[list[int]] = [[-1] for _ in range(L)]
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
        cur = nbr[x][src]
        if cur < 0:
            nbr[x][src] = dst
            cur = nbr[x ^ 1][dst]
            if cur < 0:
                nbr[x ^ 1][dst] = src
            elif find(cur) != find(src):
                pending.append((cur, src))
        elif find(cur) != find(dst):
            pending.append((cur, dst))

    for w in h.words:
        prev = 0
        for x in w[:-1]:
            nxt = len(uf)
            uf.append(nxt)
            for col in nbr:
                col.append(-1)
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
            tb = nbr[x][b]
            if tb < 0:
                continue
            ta = nbr[x][a]
            if ta < 0:
                nbr[x][a] = tb
            elif find(ta) != find(tb):
                pending.append((ta, tb))

    # compact live vertices in BFS order from the base
    root = find(0)
    canon = {root: 0}
    order = [root]
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for x in range(L):
            t = nbr[x][v]
            if t < 0:
                continue
            t = find(t)
            if t not in canon:
                canon[t] = len(order)
                order.append(t)
    table = [[canon[find(nbr[x][v])] if nbr[x][v] >= 0 else -1 for v in order] for x in range(L)]
    return CoreGraph(gen_names=p.generators, table=table)


def free_schreier_ball(core: CoreGraph, radius: int) -> Ball:
    """Exact radius-R Schreier ball over a free group, from the folded core.

    Every missing direction at a vertex carries an infinite tree; geodesics
    never shortcut through those trees, so BFS over the core with fresh
    tree vertices grafted on the fly is the true metric ball.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    L = core.n_letters
    core_n = core.n_vertices
    # ball vertex: ("c", core index) or tree vertices appended after
    canon: dict[int, int] = {0: 0}
    table: list[list[int]] = [[] for _ in range(L)]
    for x in range(L):
        table[x].append(-2)  # placeholder, filled on visit
    dist = [0]
    core_of = [0]  # core index, or -1 for tree vertices
    head = 0
    while head < len(dist):
        v = head
        head += 1
        d = dist[v]
        cv = core_of[v]
        for x in range(L):
            if table[x][v] != -2:
                continue
            t = core.table[x][cv] if cv >= 0 else -1
            if t >= 0 and t in canon:
                # core edge to an already-discovered ball vertex
                u = canon[t]
                table[x][v] = u
                table[x ^ 1][u] = v
                continue
            if d + 1 > radius:
                table[x][v] = -1
                continue
            u = len(dist)
            core_of.append(t)  # -1 marks a hanging-tree vertex
            if t >= 0:
                canon[t] = u
            dist.append(d + 1)
            for col in table:
                col.append(-2)
            table[x][v] = u
            table[x ^ 1][u] = v
    for col in table:
        for i, t in enumerate(col):
            if t == -2:
                col[i] = -1
    return Ball(core.gen_names, table, dist, radius)


def canonical_code(ball: Ball) -> tuple[int, ...]:
    """Base-rooted BFS certificate; equal codes mean label-preserving iso."""
    L = ball.n_letters
    canon = {0: 0}
    order = [0]
    code: list[int] = [L]
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for x in range(L):
            t = ball.table[x][v]
            if t < 0:
                code.append(-1)
                continue
            c = canon.get(t)
            if c is None:
                c = len(order)
                canon[t] = c
                order.append(t)
            code.append(c)
    if len(order) != ball.n_vertices:
        raise ValueError("ball has vertices unreachable from the base")
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
