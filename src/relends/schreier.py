"""Bounded Schreier-graph balls by coset enumeration.

_raw_enumerate grows an HLT-style bounded Todd-Coxeter closure of (G, H)
out to a horizon: the subgroup words are traced at the base coset, and the
relators at every coset within reach; its docstring states each of the
enumerator's rules and why the tables are those of a plain sweep.
_finalize truncates a table to a radius and relabels it in canonical BFS
order, so equal balls have equal tables (Ball).  stable_ball certifies a
ball empirically, by growing the same closure a layer at a time until the
truncated ball stops changing, or by proof, with no growth, for the Cayley
balls of a class of small-cancellation presentations; its docstring holds
that proof.  enumerate_cosets takes only relator-free presentations, whose
balls it flags stable by proof.  Results from unstable balls must be
treated as uncertified by callers.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .presentation import ParseError, Presentation, SubgroupSpec, Word, free_reduce

DEFAULT_NODE_BUDGET = 5_000_000
DEFAULT_MAX_SLACK = 12


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

    The Cayley ball is the case H = 1.  table holds one row of L cells per
    vertex, row after row, as the enumerator's cells do: table[v * L + x]
    is the target of letter x at v, or -1 when the edge leaves the ball (or
    leads out of the enumerated region).  Vertex 0 is the base; dist is the
    BFS distance from it.  stable records whether slack + 1 reproduced the
    identical ball, or that a proof makes that growth needless: a
    relator-free ball from enumerate_cosets, since growing a closure with
    no relators cannot touch it, and a Cayley ball over a presentation in
    the class of Presentation._exact_cayley_balls, which is exact at its
    first run (stable_ball).  Results from unstable balls are uncertified.
    Because the labeling is canonical, isomorphic balls have equal tables.
    A folded core (oracle.stallings_fold) is a Ball too: its radius is the
    base's eccentricity, and a -1 cell leads into a hanging tree.

    Every constructor keeps two invariants, which tests/test_schreier.py
    checks for each of them.  The table is symmetric: table[v * L + x] ==
    w >= 0 exactly when table[w * L + (x ^ 1)] == v.  And labels ascend
    with distance (canonical BFS order), so dist is nondecreasing and every
    distance region is a label range: the sphere S(r), every band
    r <= dist <= s, and every region {dist > r}, which is the labels from
    bisect_right(dist, r) up.
    """

    gen_names: tuple[str, ...]
    table: list[int]
    dist: list[int]
    radius: int
    slack: int = 0
    stable: bool = True

    @property
    def n_vertices(self) -> int:
        return len(self.dist)

    @property
    def n_letters(self) -> int:
        return 2 * len(self.gen_names)

    def word_to(self, v: int) -> Word:
        """Letters of the BFS-tree path from the base to v (shortlex-least).

        The canonical labeling determines the tree: v's tree parent is its
        least-labeled neighbour, and the tree letter is that neighbour's
        least letter to v.  For v != 0 that neighbour lies one layer in: v
        has a neighbour there, and labels ascend with distance, so every
        neighbour in v's own layer or past it has a greater label.
        """
        table, L = self.table, self.n_letters
        out: list[int] = []
        while v != 0:
            v, x = min((u, y ^ 1) for y, u in enumerate(table[v * L:v * L + L]) if u >= 0)
            out.append(x)
        return tuple(reversed(out))

    def sphere(self, r: int) -> list[int]:
        if r > self.radius:
            raise ValueError(f"sphere radius {r} exceeds ball radius {self.radius}")
        return list(range(bisect_left(self.dist, r), bisect_right(self.dist, r)))

    @cached_property
    def leaf(self) -> bytes:
        """leaf[v] is 1 when v has at most one cell >= 0 (in a truncated
        ball, nearly every rim vertex)."""
        table, L = self.table, self.n_letters
        return bytes(table[i:i + L].count(-1) >= L - 1 for i in range(0, len(table), L))

    def layers(self, src: int, lo: int = 0):
        """In-ball BFS from src: yields the vertices at distance 0, 1, ...

        Only labels >= lo are entered, src included (nothing when src < lo);
        lo = bisect_right(dist, r) confines the BFS to {dist > r}.  As
        lo >= 0, the one test t >= lo also keeps out every -1 cell.  Within
        a layer, vertices come in discovery order, letters in row order.
        The row of a leaf other than src is not read: the table is
        symmetric, so a leaf's one cell is the edge the BFS entered it by,
        which leads back into seen vertices.
        """
        if src < lo:
            return
        table, leaf, L = self.table, self.leaf, self.n_letters
        seen = {src}
        layer = read = [src]
        while layer:
            yield layer
            nxt = []
            for v in read:
                for t in table[v * L:v * L + L]:
                    if t >= lo and t not in seen:
                        seen.add(t)
                        nxt.append(t)
            layer = nxt
            read = [v for v in nxt if not leaf[v]]


def shortlex_normal_form(w: Word, ball: Ball) -> Word:
    """Shortlex-minimal spelling of the element w names, read off a Cayley
    ball: the tree word (Ball.word_to) of the vertex w walks to.

    The walk follows w edge by edge from the identity vertex, so it needs
    every prefix of (the free reduction of) w to stay inside the ball, not
    just the endpoint.  A letter outside the ball's alphabet raises
    ParseError.
    """
    if bad := [x for x in w if not 0 <= x < ball.n_letters]:
        raise ParseError(f"word letter {bad[0]} outside alphabet")
    v, L = 0, ball.n_letters
    for x in free_reduce(w):
        v = ball.table[v * L + x]
        if v < 0:
            raise ValueError("element outside ball (walk left the enumerated region)")
    return ball.word_to(v)


def _free_rank(p: Presentation, h_words: tuple[Word, ...]) -> int:
    """Torsion-free rank of G^ab / <H>: the generators minus the rank over Q
    of the exponent sums of the relators and of H's words."""
    n = p.n_generators
    rows = []
    for w in (*p.relators, *h_words):
        sums = [Fraction(0)] * n
        for x in w:
            sums[x >> 1] += -1 if x & 1 else 1
        rows.append(sums)
    rank = 0
    for col in range(n):
        i = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if i is None:
            continue
        rows[rank], rows[i] = rows[i], rows[rank]
        pivot = rows[rank]
        for r in rows[rank + 1:]:
            if r[col]:
                f = r[col] / pivot[col]
                r[:] = [a - f * b for a, b in zip(r, pivot)]
        rank += 1
    return n - rank


@dataclass
class _Closure:
    """A closure grown in place by one _raw_enumerate call after another.

    A record without cells is the bare base row at horizon 0, which the
    next call makes.  Each call grows the record's lists in place to its
    own horizon, stores that horizon, and sets touched: whether the call
    may have changed the ball of the given radius (always, for a fresh run).
    """

    radius: int
    cells: list[int] | None = None
    uf: list[int] | None = None
    pdist: list[int] | None = None
    horizon: int = 0
    touched: bool = False


class _Stretches(dict):
    """Where a trace of w jumps while it stays at one row, for one call.

    self[i << L | mask] is the first position from i whose letter is not in
    mask: forward, the least k >= i with w[k] not in mask; backward, the
    greatest k <= i with k == 0 or w[k - 1] not in mask.  mask holds the
    letters of w (not the inverses the backward trace reads) whose step
    looped at the trace's row.
    """

    # no instance dict: relator-free runs are many and tiny, and each makes
    # two of these for every subgroup word
    __slots__ = ("w", "L", "forward")

    def __init__(self, w: Word, L: int, forward: bool):
        self.w, self.L, self.forward = w, L, forward

    def __missing__(self, key: int) -> int:
        w, k, mask = self.w, key >> self.L, key & ((1 << self.L) - 1)
        if self.forward:
            while k < len(w) and mask >> w[k] & 1:
                k += 1
        else:
            while k > 0 and mask >> w[k - 1] & 1:
                k -= 1
        self[key] = k
        return k


def _raw_enumerate(
    p: Presentation,
    h_words: tuple[Word, ...],
    horizon: int,
    node_budget: int,
    *,
    _closure: _Closure | None = None,
):
    """Run closure out to the horizon; returns (cells, uf, pdist, find).

    Every traced word is freely reduced: the relators are cyclically reduced
    by Presentation, and the subgroup words, h_words, are freely reduced by
    SubgroupSpec.  A fresh run first checks that h_words lie in p's alphabet.

    cells is the coset table, one row of L cells per coset:
    cells[c * L + x] is the stored target of letter x at row c, or -1.  It
    is one list grown a row at a time, because L lists growing side by side
    fragment the heap, and peak RSS then rises with every later run in the
    process.  pdist holds exact BFS distances on live rows (uf[c] == c);
    find resolves a stored target to its live row.  Coincidences go through
    a FIFO queue over a union-find with path halving, and a merge keeps the
    lower row.

    A visit to a live row c at provisional distance d defines c's missing
    edges when d < horizon and scans every relator at c when d <= horizon,
    filling gaps only when d < horizon.  So a visit can act only at
    d < reach, where reach is horizon + 1 when there are relators and the
    horizon when there are none.  Each pass visits the marked rows in
    ascending order, the rows it marks above the visited one included, and
    the run ends when a pass leaves none marked.  settle() runs before each
    pass.

    Fill chains.  A row that gap filling makes starts at the shorter of
    its two walks along the relator loop it fills: from the chain's first
    row f forward, or from the trace's far frontier row b back.  It has no
    other edge yet, so this is the distance settle would give it, and
    settle has work on a filled loop only where the chain shortens the
    way to f or to b.  A chain row is visited at that distance, also in
    the pass that makes it; tests/test_schreier.py checks the distances
    after every run and pins the truncated balls.

    Stretch rule.  While a trace stays at row f, it keeps the mask of the
    letters that have looped at f.  A step that loops adds its letter and
    jumps to the first position whose letter is not in the mask: forward,
    i goes to the first such w[i]; backward, j goes to the last j with
    w[j - 1] not in it, which may lie before i: then the traces met, as at
    j == i.  A trace reads and never writes, so every later copy of a
    letter in the mask reads the same cell at the same row and loops again,
    and the tables are those of the letter-by-letter trace; only the
    union-find's path halving may differ.  Nothing is lost by testing only
    for a loop: once merges drain, each letter acts on the live rows as a
    partial permutation, so a letter that moves f to f' != f cannot loop at
    f'.  A jump depends only on the word, the position and the mask, so
    every traced word, relator or subgroup word, caches its jumps for the
    call (_Stretches).

    Wake rule.  The mutations are those of a sweep over every row in every
    pass, in the same order: a visit that would change nothing is the only
    kind skipped, because every row whose visit would change something is
    marked before the pass reaches it.  The one worklist is mark, a bit per
    row, and the pass's cursor picks when a marked row is visited: in this
    pass when it lies past the visited row, else in the next, where the
    sweep would next visit it.  Outside merge, every live row c but the
    visited one keeps two invariants, so that an unmarked row's visit
    changes nothing (a row at pdist >= reach needs no mark):
    (I1) at pdist < horizon, c is marked, or it is complete with every
      relator loop closed;
    (I2) on the horizon, c is marked, or each relator's trace at c is
      closed or open (stopped with a gap of two or more letters), and c
      waits on an open trace's two frontier rows f and b: bit 1 of wait[c]
      when one is c itself, else an entry holding c on that row's chain.
    A visit leaves c complete and closed below the horizon, and on it each
    trace closed or open with c waiting; a trace that would take no step
    either way only sets c's bit, without calling scan.  Waiting on two
    frontier rows is the watched-literal scheme of SAT solvers (Moskewicz et
    al., Chaff, 2001).  A complete row and a closed loop stay so through any
    merge.  The cells along an open trace stay filled and lead, through
    find, to its next rows, so the trace grows only when f or b gains the
    letter it stopped at or takes part in a merge.  A row gains an edge at
    either end of an edge a scan closes, in a visit's own definitions, at
    the first row of a fill chain (its later rows are new) and on both sides
    of a merge, and there it wakes its waiters and drops them: each row it
    holds is marked at once, dead or live.  A merge needs nothing else from
    its dead row b, neither b's mark nor its waits.  The survivor a keeps
    its cells, so its traces go on only past a frontier row that gained or
    merged, which wakes a.  That happens whenever b's trace of the word goes
    further: merging a and b merges, pair by pair, the rows that the two
    traces reach while both rows have the next letter, so the shorter
    trace's frontier row takes part in a merge; a frontier at a itself is
    the bit that merge's gain(a) wakes.  A waiter that died is covered by
    its survivor alike.  A survivor that falls into reach or below the
    horizon gets the crossing mark (pdist[b] <= horizon <= pdist[a]); settle
    marks a row whose distance crosses the horizon, and a new row that
    starts in reach is marked.  So a row that a visit defines onto the
    horizon is visited too; when none of its traces can take a step, that
    visit only sets its bit 1, which leaves it open on every relator and
    waiting on itself, as (I2) asks.  No mark moves between rows.  Waking on
    any gain, and on a merge whatever it gives, only adds visits the sweep
    makes at the same point.

    Growth in place.  Every run grows the table of a closure record
    (_Closure) from the record's horizon h <= horizon.  A fresh run, with no
    record or an empty one, starts from the bare base row at h = 0 and first
    traces the subgroup words there, with unbounded gap filling.  The table
    is then a fixpoint of the visit rules at h: every live row below h (none
    at h = 0) has every edge and every relator loop closed, and the subgroup
    loops at the base are closed.  A closed loop stays closed through any
    later merge, and a complete row stays complete, so those rows' visits at
    the new horizon would change nothing.  Every other live row within
    reach, at h <= pdist < reach, is marked, so pass 1 visits them and the
    rows it defines within reach, and every open trace waits on its
    frontier rows.  The rows past reach (gap filling leaves them past h)
    are marked once a merge or settle brings them within reach; a fresh
    run marks those that a merge in its subgroup trace brings there.  So
    every row whose visit would change something is marked before the pass
    reaches it, the wake rule holds from the first pass on, and the run
    stops at a fixpoint of the visit rules at the new horizon.  Every
    identification a table holds is true in G.
    Grown over several horizons or from the base row at once, tables may
    number and keep different rows past the horizon, but their truncated
    balls agree (tests/test_schreier.py checks this at every radius up to
    the new horizon, on fixed corpora and on random presentations).

    An extension also watches the record's radius R <= h: touched is set
    when a merge involves a row at pdist <= R, when settle lowers a
    distance to R or below, when a fill chain's row starts at R or below
    by the walk back from b, or when scan closes an edge between two rows
    within R.  Only these events change the rows within R, their distances
    or the edges among them.  A row enters R only by a merge, by settle or
    by that walk back.
    A row below R at the start lies below h, so it already has every edge,
    and a row on R that gains one through a definition gains it to a new
    row past R.  So when touched stays down, the truncated ball at R is the
    one the table gave at h.

    Before allocating anything, a run whose horizon no budget can hold is
    refused: when G^ab / <H> has positive torsion-free rank, the Schreier
    graph is infinite, so every closure has a live row at each distance up
    to the horizon (the rows below a missing distance would form a complete
    table), and horizon + 1 rows of L cells exceed the budget.
    """
    L = p.n_letters
    closure = _Closure(-1) if _closure is None else _closure
    fresh = closure.cells is None
    if fresh:  # _free_rank below and the subgroup trace index by letter
        p.check_letters(h_words, "subgroup")
    if (horizon + 1) * L > node_budget and _free_rank(p, h_words) > 0:
        raise BudgetExceeded(node_budget, horizon, 0 if fresh else len(closure.uf))
    if fresh:  # the bare base row at horizon 0
        closure.cells, closure.uf, closure.pdist = [-1] * L, [0], [0]
    cells, uf, pdist = closure.cells, closure.uf, closure.pdist
    # each relator with its jump caches and, when it has two or more letters,
    # the letters its two traces read first at a row (else -1, -1)
    relators = [(w, _Stretches(w, L, True), _Stretches(w, L, False),
                 *((w[0], w[-1] ^ 1) if len(w) > 1 else (-1, -1))) for w in p.relators]
    # a visit to a row at pdist >= reach changes nothing
    reach = horizon + 1 if relators else horizon
    empty_row = (-1,) * L
    # row t fits the budget when (t + 1) * L <= node_budget, that is, exactly
    # when t < node_budget // L
    cap = node_budget // L
    # mark[c] is 1 when c is to be visited: in this pass when c lies past the
    # visited row, else in the next
    mark = bytearray(closure.horizon <= d < reach for d in pdist)
    watch = closure.radius
    touched = fresh
    pending: deque[tuple[int, int]] = deque()
    # rows whose distance may be too high for a neighbour; see settle()
    dirty: list[int] = []
    # what waits on row f: bit 1 of wait[f] is f itself, bit 2 a chain of
    # other rows
    wait = bytearray(len(uf))
    # the chains: head[f] is f's newest entry while bit 2 is set; entry e
    # holds the waiting row held[e] and the entry before it, link[e] (-1
    # ends a chain).  'i' holds every row number below the budget or the
    # grown table's size, whichever is larger; at 8 bytes an entry, memory
    # runs out long before 2**31 entries.
    code = "i" if max(node_budget, len(cells)) <= 2**31 else "q"
    head, link, held = array(code), array(code), array(code)

    def find(c: int) -> int:
        while uf[c] != c:
            uf[c] = uf[uf[c]]
            c = uf[c]
        return c

    def hold(f: int, c: int) -> None:
        """Make row c wait on row f, where an open trace at c stopped."""
        if f == c:
            wait[c] |= 1
            return
        if len(head) <= f:
            head.frombytes(bytes((len(uf) - len(head)) * head.itemsize))
        link.append(head[f] if wait[f] & 2 else -1)
        held.append(c)
        head[f] = len(held) - 1
        wait[f] |= 2

    def gain(f: int) -> None:
        """Row f gained an edge or took part in a merge: its waiters wake."""
        w, wait[f] = wait[f], 0
        if w & 1:
            mark[f] = 1
        if w & 2:
            e = head[f]
            while e >= 0:
                mark[held[e]] = 1
                e = link[e]

    def merge(a: int, b: int) -> None:
        nonlocal touched
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
                if pdist[b] <= horizon <= pdist[a]:
                    mark[a] = 1
                pdist[a] = pdist[b]
            if pdist[a] <= watch:
                touched = True
            if wait[a]:
                gain(a)
            if wait[b]:
                gain(b)
            dirty.append(a)
            for x in range(L):
                ta = cells[a * L + x]
                tb = cells[b * L + x]
                if tb < 0:
                    continue
                if ta < 0:
                    cells[a * L + x] = tb
                elif find(ta) != find(tb):
                    pending.append((ta, tb))

    def scan(c: int, w: Word, ahead, behind, fill: bool) -> None:
        """Trace w at c; close the loop, deduce, fill, or leave it open.

        A step that loops adds its letter to the mask of the letters that
        looped at the trace's row, and jumps past every later letter in the
        mask (the stretch rule): ahead and behind are w's forward and backward
        _Stretches.  A fill chain's new row starts at the shorter of its two
        walks along the loop, from f or back from b, so consecutive chain rows
        differ by at most one.  A chain row that starts more than one below the
        row it hangs from is made dirty, and one that the walk back brings
        within the watched radius sets touched.  c is a live row: the visit
        loop scans only while uf[c] == c, and the subgroup words are traced at
        row 0, which no merge kills.  w is freely reduced, so the cell that
        w[i] reads at f is empty where the forward trace stopped and at every
        new chain row, which holds only its cell back.
        """
        nonlocal touched
        n = len(w)
        f = c
        i = m = 0  # m: the letters that looped at f
        while i < n:
            x = w[i]
            t = cells[f * L + x]
            if t < 0:
                break
            t = t if uf[t] == t else find(t)  # spare the call on a live row
            if t == f:
                m |= 1 << x
                i = ahead[i << L | m]
            else:
                f, i, m = t, i + 1, 0
        if i == n:
            if f != c:
                merge(f, c)
            return
        b = c
        j = n
        m = 0  # the letters of w whose inverse looped at b
        while j > i:
            x = w[j - 1]
            t = cells[b * L + (x ^ 1)]
            if t < 0:
                break
            t = t if uf[t] == t else find(t)
            if t == b:
                m |= 1 << x
                j = behind[j << L | m]
            else:
                b, j, m = t, j - 1, 0
        if j <= i:  # a jump can carry j past i
            if f != b:
                merge(f, b)
            return
        if j > i + 1:
            if not fill:  # c waits for f or b to gain an edge
                hold(f, c)
                if b != f:
                    hold(b, c)
                return
            if wait[f]:
                gain(f)  # the fill chain's first row gains an edge
            far = pdist[b] + j  # the chain row at position k is far - k from b
            while j > i + 1:
                x = w[i]
                i += 1
                t = len(uf)
                if t >= cap:
                    raise BudgetExceeded(node_budget, horizon, t)
                d, df = far - i, pdist[f]
                if d > df:
                    d = df + 1
                else:  # nearer to b: settle would have lowered the row to d
                    if d <= watch:
                        touched = True
                    if d < df - 1:
                        dirty.append(t)
                cells[f * L + x] = t
                cells.extend(empty_row)
                cells[t * L + (x ^ 1)] = f
                uf.append(t)
                pdist.append(d)
                mark.append(d < reach)
                wait.append(0)
                f = t
        # one gap left: w[i] should lead from f to b
        x = w[i]
        back = cells[b * L + (x ^ 1)]
        if back >= 0:
            merge(back, f)
            return
        cells[f * L + x] = b
        cells[b * L + (x ^ 1)] = f
        df, db = pdist[f], pdist[b]
        if df <= watch and db <= watch:
            touched = True
        if df > db + 1:
            dirty.append(b)
        elif db > df + 1:
            dirty.append(f)
        if wait[f]:
            gain(f)
        if wait[b]:
            gain(b)

    def settle() -> None:
        """Lower pdist to exact BFS distances on live rows.

        pdist only falls and is always the length of some walk.  An edge
        whose ends differ by more than one has its nearer end dirty: scan
        makes the nearer end of an edge it closes dirty when the ends differ
        by more than one, merge makes dirty the representative whose pdist
        it may lower (the merged row's edges that differ by more than one
        already had a dirty nearer end), a row a visit defines starts at
        pdist[src] + 1, and a fill chain's row starts at its distance along
        the loop the chain fills, within one of its chain neighbours; scan
        makes it dirty when it starts more than one below the row it hangs
        from.  An edge whose ends differ by at most one comes apart only when
        an end's pdist falls, and that end is then a dirty merge
        representative or a row pushed here, which reads all its edges.  So
        pushing every dirty row outward in distance order (Dial's buckets)
        restores exactness.  A row whose distance crosses the horizon is
        marked for the coming pass.
        """
        nonlocal touched
        buckets: dict[int, list[int]] = {}
        # one byte per row, not a set: after an extension's first pass the
        # dirty rows number millions, and a set of them raised peak RSS
        seen = bytearray(len(uf))
        for c in dirty:
            s = find(c)
            if not seen[s]:
                seen[s] = 1
                buckets.setdefault(pdist[s], []).append(s)
        dirty.clear()
        d = min(buckets, default=0)
        while buckets:
            for v in buckets.pop(d, ()):
                if pdist[v] != d:
                    continue  # lowered again after it was queued
                for x in range(L):
                    t = cells[v * L + x]
                    if t >= 0:
                        if uf[t] != t:
                            t = find(t)
                        if pdist[t] > d + 1:
                            if d + 1 <= horizon <= pdist[t]:
                                mark[t] = 1
                            pdist[t] = d + 1
                            if d < watch:
                                touched = True
                            buckets.setdefault(d + 1, []).append(t)
            d += 1

    if fresh:
        for w in h_words:
            scan(0, w, _Stretches(w, L, True), _Stretches(w, L, False), True)

    while True:
        settle()
        c = mark.find(1)
        if c < 0:
            break
        while c >= 0:
            mark[c] = 0
            if uf[c] == c:
                d = pdist[c]
                row = c * L
                if d < horizon:
                    if wait[c]:
                        gain(c)  # c gains its missing edges
                    for x in range(L):
                        if cells[row + x] < 0:
                            t = len(uf)
                            if t >= cap:
                                raise BudgetExceeded(node_budget, horizon, t)
                            cells[row + x] = t
                            cells.extend(empty_row)
                            cells[t * L + (x ^ 1)] = c
                            uf.append(t)
                            pdist.append(d + 1)
                            mark.append(d + 1 < reach)
                            wait.append(0)
                if d <= horizon:
                    inside = d < horizon
                    for w, ahead, behind, x, y in relators:
                        if inside or x < 0 or cells[row + x] >= 0 or cells[row + y] >= 0:
                            scan(c, w, ahead, behind, inside)
                            if uf[c] != c:
                                break
                        else:  # the trace takes no step either way
                            wait[c] |= 1
            c += 1  # the next row is usually marked
            if c == len(mark) or not mark[c]:
                c = mark.find(1, c)

    closure.horizon, closure.touched = horizon, touched
    return cells, uf, pdist, find


def _relabel(cells: list[int], L: int, find, radius: int):
    """Truncate to the radius around row 0 and relabel in canonical BFS order
    (letters in row order: generators as declared, each before its
    inverse).

    cells holds L cells per row, as _raw_enumerate returns them; find
    resolves a stored target to its live representative.  Row 0 is the
    base and stays live: a merge keeps the lower row, in _raw_enumerate and
    in oracle.stallings_fold alike, so find(0) == 0.  One BFS labels the
    targets and writes the table row by row.  A row is read only after
    every row one layer nearer, so when it is read, every row within one
    step of it that lies inside the radius has its label; a target still
    unlabeled from a row on the radius lies outside the ball, and its cell
    is -1.  Returns (table, dist), the table in Ball's row-major layout.
    """
    canon = [-1] * (len(cells) // L)
    canon[0] = 0
    order = [0]
    dist = [0]
    table: list[int] = []
    head = 0
    while head < len(order) and (d := dist[head]) < radius:
        v = order[head]
        head += 1
        row = cells[v * L:v * L + L]
        for x, t in enumerate(row):
            if t >= 0:
                t = find(t)
                if canon[t] < 0:
                    canon[t] = len(order)
                    order.append(t)
                    dist.append(d + 1)
                row[x] = canon[t]
        table += row
    # every row left lies on the radius, and nothing new gets a label
    table += [canon[find(t)] if t >= 0 else -1
              for v in order[head:] for t in cells[v * L:v * L + L]]
    return table, dist


def _finalize(p: Presentation, cells: list[int], find, radius: int):
    """Truncate to the radius and relabel cosets in canonical BFS order."""
    return _relabel(cells, p.n_letters, find, radius)


def _grow(p: Presentation, h: SubgroupSpec, closure: _Closure, horizon: int,
          node_budget: int, ball: Ball | None = None) -> Ball | None:
    """One growth step: run the closure to the horizon, fresh or in place,
    and read its ball at the closure's radius, at slack horizon - radius.

    Handed the ball the closure gave before this step, returns None when
    the step left that ball untouched or unchanged: only a touched step
    pays for the relabel.
    """
    cells, _uf, _pdist, find = _raw_enumerate(p, h.words, horizon, node_budget, _closure=closure)
    if not closure.touched:
        return None
    table, dist = _finalize(p, cells, find, closure.radius)
    if ball is not None and (table, dist) == (ball.table, ball.dist):
        return None
    return Ball(p.generators, table, dist, closure.radius, slack=horizon - closure.radius)


def enumerate_cosets(
    p: Presentation,
    h: SubgroupSpec,
    radius: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Ball:
    """Ball of the Schreier graph of (G, H) out to the given radius, for a
    relator-free p (stable_ball takes the rest), flagged stable by proof.

    The extension could only define edges to new rows one layer out:
    nothing scans, merges or lowers a distance, so it never sets touched
    (tests/test_schreier.py checks this), and no slack changes the ball.  So
    a call makes one run, and only that run meets the node budget.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if p.relators:
        raise ValueError("enumerate_cosets takes no relators; use stable_ball")
    return _grow(p, h, _Closure(radius), radius, node_budget)


class UnstableBallError(RuntimeError):
    """A ball is not certified: no two consecutive truncations agreed
    within the slack cap."""


def stable_ball(
    p: Presentation,
    h: SubgroupSpec,
    radius: int,
    start_slack: int = 0,
    max_slack: int = DEFAULT_MAX_SLACK,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Ball:
    """Escalate slack until the closure, extended in place by one layer,
    gives the identical ball.

    One table grows a layer per slack.  Returns the first stable ball; when
    the growth step from max_slack still changes the ball, returns the ball
    at max_slack flagged unstable, never one past the cap.  A max_slack
    below start_slack is refused before anything is enumerated.
    Relator-free balls are extended too, though enumerate_cosets proves
    them stable without it: the benchmark's harness test pins the horizons
    of these runs.
    The certificate is empirical: over <a, b | BaBAB, bb>, where b = 1, the
    radius-0 ball reads stable at slack 0 with every cell -1, while slack 2
    and beyond close b into a loop at the base.

    Cayley balls of even, piece-1 C'(1/6) presentations are stable by
    proof.  When H = 1 and p is in the class of
    Presentation._exact_cayley_balls (at least one relator, every relator
    of even length, C'(1/6) with every piece of at most one letter, and
    the rotations of the relators and their inverses distinct), the first
    run's ball comes back flagged stable, with no extension: it is the
    Cayley ball B(R) with exact distances, at any horizon N >= R, so every
    extension reproduces it.  Genus-g surface groups over abAB..., g >= 2,
    are in the class.

    Proof.  Let T be the table at the first run's fixpoint, d(u) the
    distance of its live row u (exact: settle runs last), and phi(u) the
    element of G that the word of any path from row 0 to u names: well
    defined, since every identification T holds is true in G.  A step in T
    is a step in the Cayley graph, so |phi(u)| <= d(u).

    (a) Parity.  Every relator has even length, so the parity of a word's
    length depends only on the element it names: the Cayley graph is
    bipartite, |phi(u)| = d(u) mod 2, and an edge joins spheres k, k + 1.

    (b) Closing.  At the fixpoint no row is marked, so by the invariants
    of _raw_enumerate's wake rule every live row at d < N is complete with
    every relator loop closed (I1), and at d = N each relator's trace is
    closed or open, stopped with a gap of two letters or more (I2).  Each
    letter is a partial permutation of the live rows, so a word read
    forward or backward from a row follows one walk.  Now let w be one of
    p.relators, of n letters, c a live row at d(c) <= N, s the row that
    w[:k] leads to from c and t the row from which w[k':] leads to c, with
    k' <= k + 1.  The trace of w at c then reads forward to k at least and
    backward to k' at most, which leaves a gap of one letter or none, so it
    is closed (a trace that completes at a row other than c merges the two,
    even on the horizon).  Its closed walk passes s at k and t at k': for
    k' = k + 1, T has the edge s -> t by w[k]; for k' = k, s = t.

    (c) Ladders.  Let two geodesic words in G lead from an element g0 to g1
    = g0 * (either word), meeting only at their ends, and let D be a van
    Kampen diagram of least area for the first word times the inverse of the
    second: a reduced disc whose boundary is the two sides.  By Strebel's
    classification of geodesic bigons in C(6) diagrams (C'(1/6) gives C(7);
    appendix to Ghys and de la Harpe, Sur les groupes hyperboliques d'apres
    Mikhael Gromov, 1990, Thm 43), D is one face or a ladder: faces F1, ...,
    Fl, where consecutive faces share one arc, their rung, and no others
    meet.  Two faces of a reduced diagram share a piece, and a piece here
    has at most one letter, so each rung is one edge (and with pieces of
    none, D is one face).  So D has no inner vertex: one would lie on three
    faces or more, or on two that share two edges, and every vertex of every
    face lies on a side.  Each rung joins an inner vertex of one side to one
    of the other.  Were both its ends on one side (g0 and g1 lie on both),
    the geodesic arc of that side between them would name the rung's letter
    z, which is not 1 (a one-letter relation fails Greendlinger's lemma as
    below), so be one edge y, and that edge and the rung would bound a part
    of D with a face, whose boundary reads y z^-1.  For y = z that word is
    freely trivial, against least area.  For y != z it is a relation of two
    letters, which Greendlinger's lemma rules out: it would hold more than
    half of a relator, and with pieces of one letter, C'(1/6) needs seven
    letters or more (Lyndon and Schupp, Combinatorial Group Theory, 1977,
    ch. V).  So g0 lies on F1 alone and g1 on Fl alone.

    (d) Geodesics meet.  Claim A(m), for m <= R: every geodesic word of m
    letters or fewer reads from row 0 in T, and all geodesic words for one
    element end at one row, at distance their length.  A(0) holds.  Given
    A(m - 1), a geodesic word of m letters reads: its prefix ends at a row
    at distance m - 1 < N, which is complete by (I1), and it ends at a row
    at distance m, since |phi| <= d.  Let two geodesic words for one g, |g|
    = m, last meet at g0 = the element of their first j < m letters; by
    A(j) both prefixes end at one row.  Give each vertex of the bigon from
    g0 to g the row that its side's word reaches it at: one row for every
    vertex but g, where the two sides' rows P and Q are to be shown equal.
    Every edge on a side is then an edge of T between its vertices' rows,
    and every row is at distance <= m <= N.  Each face reads some w in
    p.relators from one of its vertices, in one direction; let c be that
    vertex's row (at g, the row of the side the reading leaves by).  Along
    the ladder, F1 has every edge in T but its rung to F2, so (b) puts that
    rung in T; then F2 has every edge in T but its rung to F3; and so on.
    Fl has every edge in T, and its reading reaches g by one side and
    leaves it by the other, so (b) with k' = k gives P = Q.

    (e) Rows are exact.  Claim B(m), for m <= R: every row u at d(u) <= m
    has |phi(u)| = d(u).  Given B(m - 1) and A(m - 1), let d(u) = m, reached
    from u' at d(u') = m - 1 by a letter x.  |phi(u)| lies within one of
    |phi(u')| = m - 1, by B(m - 1), so by (a) it is m or m - 2.  Were it
    m - 2, A puts phi(u) at a row r at distance m - 2, complete by (I1), whose
    x^-1 edge ends a geodesic word for phi(u') of m - 1 letters; so does the
    word of a shortest path in T to u', by B(m - 1); by A(m - 1) both end at
    u', so u' -> r by x, and u = r, at distance m - 2, which is absurd.

    So phi maps the rows within R onto B(R) by A, with exact distances by
    B, and one to one by B and A: two rows of one element are ends of
    geodesic words for it.  By (a) each edge of B(R) leaves a vertex at
    distance < R <= N, whose complete row holds it.  So the truncated,
    relabeled table is the canonical B(R) itself, whatever the horizon, and
    every extension leaves it unchanged.  Step (a) needs the even lengths,
    and (c) the rest of the class, which small cancellation theory assumes.
    H != 1, relator-free presentations and every presentation outside the
    class keep the empirical certificate (tests/test_schreier.py checks the
    skipped balls against balls three layers deeper, and that the others
    still pay for the extension).
    """
    if radius < 0 or start_slack < 0:
        raise ValueError("radius and start_slack must be nonnegative")
    if max_slack < start_slack:  # the first ball would already exceed the cap
        raise ValueError(f"max_slack {max_slack} is below start_slack {start_slack}")
    closure = _Closure(radius)
    ball = _grow(p, h, closure, radius + start_slack, node_budget)
    if not h.words and p.relators and p._exact_cayley_balls:
        return ball
    while (nxt := _grow(p, h, closure, closure.horizon + 1, node_budget, ball)) is not None:
        if nxt.slack > max_slack:
            ball.stable = False
            break
        ball = nxt
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


def check_covering_radius(exclusion_radius: int, radius: int) -> None:
    """Refuse a negative exclusion radius, and one that leaves no coset of
    a radius-R ball to check; a caller can refuse them before it enumerates
    the ball."""
    if exclusion_radius < 0:
        raise ValueError(f"covering check radius {exclusion_radius} must be nonnegative")
    if exclusion_radius >= radius:
        raise ValueError(f"covering check radius {exclusion_radius} leaves no cosets "
                         f"below the ball radius {radius}")


def covering_degree_check(ball: Ball, exclusion_radius: int) -> CoveringReport:
    """Check the ball looks like a covering of a wedge outside the exclusion.

    Every coset with exclusion_radius <= dist < radius must have all 2#S
    edges defined, no loop, and no doubled edge.  The lower bound is
    inclusive so an H-loop sitting exactly on the exclusion sphere is
    reported.  Violations mean the exclusion radius is below this
    instance's quotient-hyperbolicity threshold.  An exclusion radius at or
    past the ball's radius would leave nothing to check and read as a
    vacuous pass, so it is an error, as is a negative one
    (check_covering_radius).
    """
    check_covering_radius(exclusion_radius, ball.radius)
    L = ball.n_letters
    violations: list[CoveringViolation] = []
    checked = 0
    for d in range(exclusion_radius, ball.radius):
        for v in ball.sphere(d):
            checked += 1
            seen: dict[int, int] = {}
            for x, t in enumerate(ball.table[v * L:v * L + L]):
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
    if not names or len(set(names)) < len(names):
        raise ValueError(f"generators {names!r} must be one or more distinct names")
    letters = []
    for name in names:
        try:
            i = ball.gen_names.index(name)
        except ValueError:
            raise ValueError(f"generator {name!r} not in ball alphabet") from None
        letters += (2 * i, 2 * i + 1)
    L = ball.n_letters
    cells = [ball.table[v * L + x] for v in range(ball.n_vertices) for x in letters]
    table, dist = _relabel(cells, len(letters), int, ball.radius)
    return Ball(tuple(names), table, dist, ball.radius, ball.slack, ball.stable)
