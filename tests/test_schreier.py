"""Coset enumeration: truncated balls, stability escalation, budgets."""

import functools
import hashlib
import itertools
import json
import random
from bisect import bisect_left, bisect_right
from collections import deque
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relends import (
    Ball,
    BudgetExceeded,
    CoveringViolation,
    ParseError,
    Presentation,
    SubgroupSpec,
    canonical_code,
    count_relative_ends,
    covering_degree_check,
    dehn_reduce,
    empirical_ends,
    empirical_ledger,
    enumerate_cosets,
    free_schreier_ball,
    parse_presentation,
    probe_class_history,
    restrict_to_generators,
    stable_ball,
    stallings_fold,
)
from relends.presentation import free_reduce, invert
from relends.schreier import DEFAULT_NODE_BUDGET, _Closure, _finalize, _raw_enumerate

from conftest import (FREE2, GENUS2, LINE, TORUS, RipsOver, kernel_pair, rips_kernel,
                      seeded_cores, seeded_specs, short_words, sub, walk)

# a presentation whose radius-2 ball shrinks once the enumeration digs deeper
SHIFTY = "generators: a b\nrelators: bbabbb\n"

# (name, presentation, subgroup generators) for the enumerator invariants
CORPUS = [
    ("genus2", GENUS2, ()),
    ("genus2-a", GENUS2, ("a",)),
    ("torus", TORUS, ()),
    ("shifty", SHIFTY, ()),
    ("f2-sub", FREE2, ("ab", "bbA")),
]
A5 = "generators: a b\nrelators:\n  aa\n  bbb\n  ababababab\n"
S3 = "generators: a b\nrelators:\n  aaa\n  bb\n  abab\n"
# finite groups, closed by heavy coincidences, whose whole Cayley graph fits
# inside the top horizon
FINITE = [("a5", A5, (), 10), ("s3", S3, (), 3)]
# presentations whose coincidences lower distances far from the edges the
# scans close, with the horizon that shows it: two one-relator groups (the
# first needs merge to seed settle, the second the edges scan closes) and
# the finite groups
COLLAPSING = [
    ("a2b3ab5", "generators: a b\nrelators: aabbbababababab\n", (), 5),
    ("a3b2ab2", "generators: a b\nrelators: aaabbabab\n", (), 6),
] + FINITE
# a fill chain whose walk back from its far end starts the chain's first row
# more than one below the row it hangs from, found by a seeded search: that
# row must seed settle, or the row above it keeps too high a distance
CHAIN = ("AbbabABB", "generators: a b\nrelators: AbbabABB\n", (), 5)
# small presentations, found by a seeded search, on which dropping any one
# of the enumerator's wake sites leaves a table that is not a fixpoint.  An
# open relator trace waits on its two frontier rows, and a row that gains an
# edge wakes its waiters: at either end of an edge a scan closes (bA-b,
# ABABB, BAbaB-BAAB-Ba), on a merge's representative side (bAb-bbb, ABABB)
# and its dead side (BAAAbAA-b, bABabb), in a visit's own definitions
# (BaaBBB, aabaaB) and at the first row of a fill chain (AbAbaaab-bb).  A
# trace whose frontier lies at another row waits on that row, not on its
# own (aabaaB, BaaBBB).  A woken row is marked at once, and a row is marked
# only once its distance falls within reach of a visit that can act, so a
# merge whose survivor crosses the horizon must mark it (CBC-BBCACBB,
# bABabb).  A merge moves no mark, so in a fresh run's subgroup trace that
# crossing mark alone marks the row a merge brings within reach (aaaaba-AB).
# A row that a visit defines onto the horizon, where none of its traces can
# step, is born waiting on itself and unmarked; it must still be visited once
# it gains an edge or takes part in a merge (ABA: the row survives a merge,
# and its scan then deduces an edge).
BORN_WAITING = ("ABA", "generators: a b\nrelators: ABA\n", (), 2)
WAKES = [
    ("BAAAbAA-b", "generators: a b\nrelators:\n  BAAAbAA\n  b\n", (), 3),
    ("ABABB", "generators: a b\nrelators: ABABB\n", (), 4),
    ("BAbaB-BAAB-Ba", "generators: a b\nrelators:\n  BAbaB\n  BAAB\n  Ba\n", ("BB",), 3),
    ("BaaBBB", "generators: a b\nrelators: BaaBBB\n", ("aB",), 4),
    ("bABabb", "generators: a b\nrelators: bABabb\n", (), 5),
    ("bA-b", "generators: a b\nrelators:\n  bA\n  b\n", (), 2),
    ("bAb-bbb", "generators: a b\nrelators:\n  bAb\n  bbb\n", (), 2),
    ("AbAbaaab-bb", "generators: a b\nrelators:\n  AbAbaaab\n  bb\n", (), 3),
    ("aabaaB", "generators: a b\nrelators: aabaaB\n", (), 3),
    ("aaaaba-AB", FREE2, ("aaaaba", "AB"), 3),
    ("CBC-BBCACBB", "generators: a b c\nrelators:\n  CBC\n  BBCACBB\n", (), 3),
    BORN_WAITING,
]
# a letter that loops at every row, so that a relator's trace crosses its
# run in one step: a by the subgroup itself, and a after a coincidence in
# Z/3 x Z, where <aa> = <a>
LOOPS = [
    ("z4xz-a", "generators: a b\nrelators:\n  aaaa\n  abAB\n", ("a",), 5),
    ("z3xz-aa", "generators: a b\nrelators:\n  aaa\n  abAB\n", ("aa",), 5),
]


# Rips' construction over Z2 (965-985-letter relators) and over F2 (483-495
# letters, an infinite kernel whose horizon rows keep their long relator
# loops open)
RIPS_Z2 = ("rips-z2", RipsOver("generators: x y\nrelators: xyXY\n"), (), 3)
RIPS_F2 = ("rips-f2", RipsOver("generators: x y\nrelators: none\n"), (), 4)
# _finalize digests for CORPUS, pinned from the enumerator that ran a full
# BFS before every sweep (the finite groups and Rips(Z2) from the one that
# swept every row, Rips(F2) from the one that queued every open loop of pass
# 1 for pass 2, BORN_WAITING from the one that visited every row a visit
# defined); no raw table or row count is pinned, so the enumerator may
# renumber its rows
BALL_DIGESTS = Path(__file__).parent / "golden" / "ball-digests.json"


def raw_runs(text, gens, horizons=range(5), resumed=False):
    """Each horizon's closure, run fresh or (resumed) grown in place from
    the closure at the horizon before, the first one fresh."""
    p, kernel = kernel_pair(text)
    words = kernel + sub(p, *gens).words
    closure = _Closure(0) if resumed else None
    for horizon in horizons:
        yield horizon, p, _raw_enumerate(p, words, horizon, DEFAULT_NODE_BUDGET, _closure=closure)


def sphere_sizes(ball):
    return [ball.dist.count(k) for k in range(ball.radius + 1)]


def test_free_group_ball_is_a_tree(f2, trivial):
    ball = stable_ball(f2, trivial, 3)
    assert ball.n_vertices == 53
    assert sphere_sizes(ball) == [1, 4, 12, 36]
    assert ball.slack == 0 and ball.stable


def test_surface_ball_sphere_sizes(genus2, trivial):
    ball = stable_ball(genus2, trivial, 2)
    assert sphere_sizes(ball) == [1, 8, 56]


def test_coset_ball_collapses_the_subgroup_axis(genus2):
    ball = stable_ball(genus2, sub(genus2, "a"), 3)
    assert sphere_sizes(ball) == [1, 6, 42, 294]
    # the a-edge at the base is a loop, so Ha = H
    assert walk(ball, "a") == 0
    assert walk(ball, "b") != 0


def test_radius_zero_and_negative(f2, trivial):
    ball = enumerate_cosets(f2, trivial, 0)
    assert ball.n_vertices == 1
    with pytest.raises(ValueError):
        enumerate_cosets(f2, trivial, -1)


@pytest.mark.parametrize("radius, start_slack", [(-1, 0), (1, -3)])
def test_stable_ball_refuses_a_negative_radius_or_slack(f2, trivial, radius, start_slack):
    # a negative slack would cut the enumeration inside the ball it certifies
    with pytest.raises(ValueError):
        stable_ball(f2, trivial, radius, start_slack=start_slack)


@pytest.mark.parametrize(
    "text, gens", [(GENUS2, ()), (GENUS2, ("a",)), (FREE2, ("ab", "bbA"))],
    ids=["genus2", "genus2-a", "f2-sub"],
)
def test_layers_from_the_base_are_the_ball_distances(text, gens):
    p = parse_presentation(text)
    ball = stable_ball(p, sub(p, *gens), 3)
    dist = [-1] * ball.n_vertices
    for d, layer in enumerate(ball.layers(0)):
        for v in layer:
            assert dist[v] == -1, v
            dist[v] = d
    assert dist == ball.dist


def test_layers_stay_inside_the_allowed_region(genus2):
    ball = stable_ball(genus2, sub(genus2, "a"), 3)

    def find(root, v):
        while root[v] != v:
            v = root[v]
        return v

    for cut in range(ball.radius):
        # the region {dist > cut} is the labels from lo up
        allowed = [d > cut for d in ball.dist]
        lo = bisect_right(ball.dist, cut)
        # reference components: a union-find over the edges inside the region
        root = list(range(ball.n_vertices))
        for col in ball.table:
            for v, t in enumerate(col):
                if t >= 0 and allowed[v] and allowed[t]:
                    root[find(root, v)] = find(root, t)
        for src in range(ball.n_vertices):
            reached = [v for layer in ball.layers(src, lo) for v in layer]
            assert all(allowed[v] for v in reached)
            assert len(set(reached)) == len(reached)
            # everything the region joins to src, and nothing else
            expected = [v for v in range(ball.n_vertices)
                        if allowed[src] and allowed[v] and find(root, v) == find(root, src)]
            assert sorted(reached) == expected, (cut, src)


def plain_layers(ball, src, allowed):
    """The in-ball BFS that reads the row of every vertex it enters, and
    enters only the vertices that allowed marks."""
    if not allowed[src]:
        return []
    out, seen, layer = [], {src}, [src]
    while layer:
        out.append(layer)
        nxt = []
        for v in layer:
            for col in ball.table:
                t = col[v]
                if t >= 0 and t not in seen and allowed[t]:
                    seen.add(t)
                    nxt.append(t)
        layer = nxt
    return out


@functools.cache
def balls_of_every_constructor():
    """(name, ball) from the enumerator, the fold, the oracle and
    restrict_to_generators."""
    genus2 = parse_presentation(GENUS2)
    balls = [(name, stable_ball(genus2, sub(genus2, *gens), 4))
             for name, gens in (("genus2", ()), ("genus2-a", ("a",)))]
    # small enumerated balls beside genus 2, each at its own horizon
    for name, text, gens, top in [(*case, 3) for case in CORPUS[2:]] + FINITE + WAKES:
        p = parse_presentation(text)
        balls.append((name, enumerate_cosets(p, sub(p, *gens), top)))
    for i, core in enumerate(seeded_cores(seed=32, per_rank=4)):
        balls += [(f"core-{i}", core), (f"free-ball-{i}", free_schreier_ball(core, 4))]
    balls.append(("restricted", restrict_to_generators(stable_ball(genus2, sub(genus2), 3),
                                                       ("a", "c"))))
    return balls


def test_every_ball_is_symmetric_and_labeled_by_distance():
    # Ball.layers skips the rows of leaves and Ball.sphere reads a label
    # range; both rest on these two invariants
    for name, ball in balls_of_every_constructor():
        for x, col in enumerate(ball.table):
            back = ball.table[x ^ 1]
            assert all(w < 0 or back[w] == v for v, w in enumerate(col)), (name, x)
        assert all(a <= b for a, b in zip(ball.dist, ball.dist[1:])), name
        for r in range(ball.radius + 1):
            assert ball.sphere(r) == [v for v, d in enumerate(ball.dist) if d == r], (name, r)


def test_layers_match_a_bfs_that_reads_every_row():
    rng = random.Random(32)
    for name, ball in balls_of_every_constructor():
        n = ball.n_vertices
        sources = {0, n - 1, *(rng.randrange(n) for _ in range(24))}
        # lo at every sphere boundary (0 and n included) and inside each sphere
        bounds = [bisect_left(ball.dist, r) for r in range(ball.radius + 2)]
        inside = (rng.randrange(a + 1, b) for a, b in zip(bounds, bounds[1:]) if b - a > 1)
        for lo in sorted({*bounds, *inside}):
            allowed = [v >= lo for v in range(n)]
            for src in sorted(sources):
                assert list(ball.layers(src, lo)) == plain_layers(ball, src, allowed), \
                    (name, src, lo)


def walk_letters(ball, word):
    v = 0
    for x in word:
        v = ball.table[x][v]
        if v < 0:
            return None
    return v


def test_tree_words_are_geodesics_to_their_vertex(genus2, trivial):
    ball = stable_ball(genus2, trivial, 2)
    for v in range(ball.n_vertices):
        word = ball.word_to(v)
        assert len(word) == ball.dist[v]
        assert walk_letters(ball, word) == v


def shortlex_geodesics(ball):
    """Brute force: each vertex's shortlex-least word of length dist[v] that
    walks to it, trying every word of length at most the radius."""
    least = {}
    for n in range(ball.radius + 1):
        # product yields the words of one length in lexicographic order
        for word in itertools.product(range(ball.n_letters), repeat=n):
            v = walk_letters(ball, word)
            if v is not None and ball.dist[v] == n:
                least.setdefault(v, word)
    return least


@pytest.mark.parametrize("case", ["genus2", "f2-oracle", "torus-a", "torus-ba"])
def test_tree_word_is_the_shortlex_least_geodesic(case, genus2, f2, torus, trivial):
    if case == "genus2":
        ball = stable_ball(genus2, trivial, 3)
    elif case == "f2-oracle":
        ball = free_schreier_ball(stallings_fold(f2, sub(f2, "ab", "bbA")), 3)
    else:
        names = ("a",) if case == "torus-a" else ("b", "a")
        ball = restrict_to_generators(stable_ball(torus, trivial, 4), names)
    least = shortlex_geodesics(ball)
    assert len(least) == ball.n_vertices
    for v in range(ball.n_vertices):
        assert ball.word_to(v) == least[v]


def test_shallow_truncation_is_detected():
    p = parse_presentation(SHIFTY)
    h = sub(p)
    raw = enumerate_cosets(p, h, 2, slack=0)
    assert raw.n_vertices == 16
    assert not raw.stable
    assert enumerate_cosets(p, h, 2, slack=1).stable


def test_escalation_stops_at_the_first_stable_slack():
    p = parse_presentation(SHIFTY)
    ball = stable_ball(p, sub(p), 2)
    assert (ball.slack, ball.n_vertices, ball.stable) == (1, 13, True)


def test_escalation_respects_max_slack():
    p = parse_presentation(SHIFTY)
    ball = stable_ball(p, sub(p), 2, max_slack=0)
    assert not ball.stable
    assert ball.slack == 0  # the ball at the cap, never one past it


def test_generous_start_slack_is_already_stable():
    p = parse_presentation(SHIFTY)
    ball = stable_ball(p, sub(p), 2, start_slack=3)
    assert ball.stable and ball.n_vertices == 13


# two-generator presentations whose relators close a loop at the base only
# several layers out; the loop is there from slack 2 on over the first, where
# b = 1 and G = Z
LATE_LOOPS = {"b": ("BaBAB", "bb"), "a": ("AABab", "aa"), "a-long": ("bbabA", "bAAbab")}


@pytest.mark.xfail(strict=True, reason="stable_ball's certificate is empirical: slack s + 1 "
                   "reproducing the ball of slack s does not prove that no deeper closure "
                   "changes it")
@pytest.mark.parametrize("relators", LATE_LOOPS.values(), ids=LATE_LOOPS.keys())
def test_a_stable_ball_is_the_ball_of_a_deeper_closure(relators):
    p = parse_presentation("generators: a b\nrelators:" + "".join(f"\n  {w}" for w in relators))
    ball = stable_ball(p, sub(p), 0)
    assert (ball.slack, ball.stable) == (0, True)
    deep = enumerate_cosets(p, sub(p), 0, slack=8)
    assert (ball.table, ball.dist) == (deep.table, deep.dist)


def test_budget_cuts_enumeration_short(genus2, trivial):
    # 8 letters per row: a run stops at row budget // 8, the first that would
    # need more cells than the budget, wherever that row is made
    cases = [
        (4, 100, 4, 12),  # in a fill chain
        (5, 50_000, 5, 6_250),  # in a fill chain
        (5, 1_000_000, 6, 125_000),  # in a visit's own definitions, extending to horizon 6
    ]
    for radius, budget, horizon, rows in cases:
        with pytest.raises(BudgetExceeded) as info:
            stable_ball(genus2, trivial, radius, node_budget=budget)
        assert (info.value.horizon, info.value.rows) == (horizon, rows)
        assert f"horizon {horizon}, {rows} rows" in str(info.value)


TRI237 = "generators: a b c\nrelators:\n  aa\n  bb\n  cc\n  ababab\n  bcbcbcbcbcbcbc\n  caca\n"


@pytest.mark.parametrize("text, rows", [(GENUS2, 0), (TRI237, 16)], ids=["genus2", "tri237"])
def test_a_horizon_no_budget_holds_is_refused_before_any_row(text, rows):
    # genus 2 has abelian rank 4, so its Schreier graph is infinite and no
    # 100 cells hold 21 rows; (2,3,7) has rank 0 and must try
    p = parse_presentation(text)
    with pytest.raises(BudgetExceeded) as info:
        stable_ball(p, sub(p), 20, node_budget=100)
    assert (info.value.horizon, info.value.rows) == (20, rows)


@pytest.mark.parametrize("text, gens", [(LINE, ("a",)), (TORUS, ("ab", "b"))],
                         ids=["line", "torus"])
def test_a_finite_index_subgroup_runs_at_any_horizon(text, gens):
    # H = G: rank 0, and the one-row table closes however far out the
    # horizon lies
    p = parse_presentation(text)
    ball = stable_ball(p, sub(p, *gens), 10**6, node_budget=100)
    assert ball.stable and ball.n_vertices == 1


# every entry point where H meets G, the budget precheck of a horizon no
# budget holds included; F2 has letters 0 to 3
ENTRY_POINTS = {
    "stable_ball": lambda p, h: stable_ball(p, h, 2),
    "budget-precheck": lambda p, h: stable_ball(p, h, 20, node_budget=100),
    "enumerate_cosets": lambda p, h: enumerate_cosets(p, h, 2),
    "count_relative_ends": lambda p, h: count_relative_ends(
        p, h, empirical_ledger(r0=1, inner_offset=Fraction(1), outer_radius=2), [1, 2]),
    "stallings_fold": stallings_fold,
}


@pytest.mark.parametrize("letter", [4, -1])
@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_subgroup_letters_outside_the_alphabet_are_input_errors(f2, entry, letter):
    with pytest.raises(ParseError, match=f"subgroup letter {letter} outside alphabet"):
        entry(f2, SubgroupSpec(((0, letter),)))


@pytest.mark.parametrize(
    "name, text, gens, top",
    [(*case, 5) for case in CORPUS] + COLLAPSING + [CHAIN] + LOOPS + [RIPS_F2],
    ids=[c[0] for c in CORPUS + COLLAPSING + [CHAIN] + LOOPS + [RIPS_F2]],
)
def test_enumerator_distances_are_bfs_distances(name, text, gens, top):
    runs = itertools.chain(*(raw_runs(text, gens, range(top + 1), r) for r in (False, True)))
    for horizon, p, (cells, uf, pdist, find) in runs:
        assert_bfs_distances(p, horizon, cells, uf, pdist, find)


def assert_bfs_distances(p, horizon, cells, uf, pdist, find):
    """The live rows are those reachable from the base, and pdist holds
    their BFS distances."""
    L = p.n_letters
    dist = {0: 0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for t in (find(t) for t in cells[v * L:(v + 1) * L] if t >= 0):
            if t not in dist:
                dist[t] = dist[v] + 1
                queue.append(t)
    live = [c for c in range(len(uf)) if uf[c] == c]
    assert sorted(dist) == live, horizon
    assert [pdist[c] for c in live] == [dist[c] for c in live], horizon


@pytest.mark.parametrize(
    "name, text, gens, top",
    [(*case, 5) for case in CORPUS] + COLLAPSING + WAKES + LOOPS + [RIPS_Z2, RIPS_F2],
    ids=[c[0] for c in CORPUS + COLLAPSING + WAKES + LOOPS + [RIPS_Z2, RIPS_F2]],
)
def test_enumeration_stops_at_a_fixpoint(name, text, gens, top):
    # fresh and extended in place
    runs = itertools.chain(*(raw_runs(text, gens, range(top + 1), r) for r in (False, True)))
    for horizon, p, (cells, uf, pdist, _find) in runs:
        assert_fixpoint(p, horizon, cells, uf, pdist)


def assert_fixpoint(p, horizon, cells, uf, pdist):
    """The sweep's stopping condition, read without path halving so that
    nothing the enumerator returned is touched."""
    L = p.n_letters

    def root(c):
        while uf[c] != c:
            c = uf[c]
        return c

    def step(c, x):
        t = cells[c * L + x]
        return root(t) if t >= 0 else -1

    for c in range(len(uf)):
        if uf[c] != c or pdist[c] > horizon:
            continue
        if pdist[c] < horizon:
            assert min(cells[c * L:(c + 1) * L]) >= 0, (horizon, c)
        for w in p.relators:
            f, i = c, 0
            while i < len(w) and (t := step(f, w[i])) >= 0:
                f, i = t, i + 1
            b, j = c, len(w)
            while j > i and (t := step(b, w[j - 1] ^ 1)) >= 0:
                b, j = t, j - 1
            # closed at c, or open on the horizon where nothing is filled
            closed = j == i and f == b
            assert closed or (j - i >= 2 and pdist[c] == horizon), (horizon, c, w)


@pytest.mark.parametrize("name, text, gens, top", LOOPS, ids=[c[0] for c in LOOPS])
def test_a_letter_that_loops_everywhere_leaves_a_line(name, text, gens, top):
    # G / H is Z, generated by b; a is a loop at every vertex
    p = parse_presentation(text)
    ball = stable_ball(p, sub(p, *gens), top)
    assert sphere_sizes(ball) == [1] + [2] * top
    assert ball.table[0] == list(range(ball.n_vertices))


@pytest.mark.parametrize("text, radius, order", [(A5, 11, 60), (S3, 3, 6)], ids=["a5", "s3"])
def test_finite_groups_close_to_their_order(text, radius, order):
    p = parse_presentation(text)
    ball = stable_ball(p, sub(p), radius)
    assert ball.stable and ball.n_vertices == order
    assert max(ball.dist) < radius  # the whole group, with room to spare


def finalized_digests(resumed):
    digests = {}
    cases = [(*case, 4) for case in CORPUS] + FINITE + [BORN_WAITING, RIPS_Z2, RIPS_F2]
    for name, text, gens, top in cases:
        runs = raw_runs(text, gens, range(top + 1), resumed)
        for horizon, p, (cells, _uf, _pdist, find) in runs:
            # slack 0 and slack 1, so the unstable shifty run at r2 s0 is in
            for radius in range(max(horizon - 1, 0), horizon + 1):
                table, dist = _finalize(p, cells, find, radius)
                blob = json.dumps([table, dist]).encode()
                digests[f"{name} h{horizon} r{radius}"] = hashlib.sha256(blob).hexdigest()
    return digests


def test_finalized_balls_match_pinned_digests():
    assert finalized_digests(resumed=False) == json.loads(BALL_DIGESTS.read_text())


def test_tables_grown_in_place_match_pinned_digests():
    assert finalized_digests(resumed=True) == json.loads(BALL_DIGESTS.read_text())


@pytest.mark.parametrize("quotient, digest", [
    (RIPS_F2[1].quotient, "3cf053b9b01eaa4e813eca4e1212523bad2be87d502d4a2916ef7bdb665701ad"),
    (RIPS_Z2[1].quotient, "f078c4353b9f236bca796e668d0c6bd4a0f350652828f4f077d3d446ea224182"),
], ids=["rips-f2", "rips-z2"])
def test_rips_kernel_balls_match_pinned_digests(quotient, digest):
    # the radius-6 balls of the rips-kernel benchmark, pinned from the
    # enumerator that crossed only runs of one letter in one step
    p, words = rips_kernel(quotient)
    ball = stable_ball(p, SubgroupSpec(words), 6)
    blob = json.dumps([ball.table, ball.dist, ball.slack]).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


# random two-generator presentations: up to two relators and one subgroup
# generator
@settings(max_examples=150, deadline=None)
@given(st.lists(short_words, max_size=2), st.lists(short_words, max_size=1),
       st.integers(0, 4))
def test_growing_a_closure_in_place_matches_a_fresh_run(relators, gens, h):
    listed = "".join(f"\n  {w}" for w in relators) or " none"
    p = parse_presentation(f"generators: a b\nrelators:{listed}\n")
    words = sub(p, *gens).words
    fresh_cells, _uf, _pdist, fresh_find = _raw_enumerate(p, words, h + 1, DEFAULT_NODE_BUDGET)
    bare = _raw_enumerate(p, words, h, DEFAULT_NODE_BUDGET)[:3]
    for watched in range(h + 1):
        closure = _Closure(watched)
        cells, uf, pdist, find = _raw_enumerate(
            p, words, h, DEFAULT_NODE_BUDGET, _closure=closure)
        # one start path: a fresh run into a record grows the bare base row
        # as a run without one does, and the record holds the very lists
        assert (cells, uf, pdist) == bare
        assert closure.cells is cells and closure.uf is uf and closure.pdist is pdist
        before = _finalize(p, cells, find, watched)
        cells, _uf, _pdist, find = _raw_enumerate(
            p, words, h + 1, DEFAULT_NODE_BUDGET, _closure=closure)
        # a flag left down promises the watched ball did not change
        assert closure.touched or _finalize(p, cells, find, watched) == before
        for radius in range(h + 2):
            assert _finalize(p, cells, find, radius) == _finalize(
                p, fresh_cells, fresh_find, radius), (watched, radius)


# free groups of rank one to three, with up to three subgroup generators
free_specs = st.sampled_from(["a", "ab", "abc"]).flatmap(lambda gens: st.tuples(
    st.just(gens), st.lists(st.text(gens + gens.upper(), min_size=1, max_size=7), max_size=3)))


@settings(max_examples=100, deadline=None)
@given(free_specs, st.integers(0, 4))
def test_growing_a_relator_free_closure_touches_nothing(spec, h):
    # with no relators, an extension scans nothing and only defines edges to
    # new rows one layer out: no merge, no distance falls, touched stays down
    gens, texts = spec
    p = parse_presentation(f"generators: {' '.join(gens)}\nrelators: none\n")
    words = sub(p, *texts).words
    for watched in range(h + 1):
        closure = _Closure(watched)
        _raw_enumerate(p, words, h, DEFAULT_NODE_BUDGET, _closure=closure)
        dead = [c for c, u in enumerate(closure.uf) if u != c]
        _raw_enumerate(p, words, h + 1, DEFAULT_NODE_BUDGET, _closure=closure)
        assert not closure.touched, watched
        assert [c for c, u in enumerate(closure.uf) if u != c] == dead, watched


def test_relator_free_balls_are_stable_without_the_extension():
    # enumerate_cosets skips the extension that cannot touch a relator-free
    # ball; stable_ball still runs it, and the two must agree
    for p, h in seeded_specs(seed=34, per_rank=6):
        for radius, slack in itertools.product(range(6), (0, 1)):
            ball = enumerate_cosets(p, h, radius, slack)
            ref = stable_ball(p, h, radius, start_slack=slack)
            assert (ball.table, ball.dist, ball.slack, ball.stable) == (
                ref.table, ref.dist, ref.slack, ref.stable), (p.generators, h.words, radius)
            assert ball.stable and ball.slack == slack


# the horizons of the runs of enumerate_cosets at radius 2 and slack 1
@pytest.mark.parametrize("text, gens, horizons", [
    (FREE2, (), [3]), (FREE2, ("ab", "bbA"), [3]), (TORUS, (), [3, 4]), (GENUS2, ("a",), [3, 4]),
], ids=["f2", "f2-sub", "torus", "genus2-a"])
def test_only_presentations_with_relators_pay_for_the_extension(
        monkeypatch, text, gens, horizons):
    calls = []

    def counted(p, h_words, horizon, *args, **kwargs):
        calls.append(horizon)
        return _raw_enumerate(p, h_words, horizon, *args, **kwargs)

    monkeypatch.setattr("relends.schreier._raw_enumerate", counted)
    p = parse_presentation(text)
    enumerate_cosets(p, sub(p, *gens), 2, slack=1)
    assert calls == horizons


# random three-generator presentations: up to three relators of two to
# fourteen letters, so that one horizon row can leave several relator loops
# open after its first visit
long_words = st.text("abcABC", min_size=2, max_size=14)


@settings(max_examples=200, deadline=None)
@given(st.lists(long_words, max_size=3), st.integers(0, 3))
def test_three_generator_closures_reach_the_same_fixpoint(relators, h):
    listed = "".join(f"\n  {w}" for w in relators) or " none"
    p = parse_presentation(f"generators: a b c\nrelators:{listed}\n")
    fresh = _raw_enumerate(p, (), h + 1, DEFAULT_NODE_BUDGET)
    closure = _Closure(0)
    _raw_enumerate(p, (), h, DEFAULT_NODE_BUDGET, _closure=closure)
    resumed = _raw_enumerate(p, (), h + 1, DEFAULT_NODE_BUDGET, _closure=closure)
    for cells, uf, pdist, find in (fresh, resumed):
        # a merge keeps the lower row, so the base stays live: _relabel reads
        # the ball from row 0
        assert find(0) == 0
        assert_fixpoint(p, h + 1, cells, uf, pdist)
        # long relators fill long chains, whose rows start at their distance
        assert_bfs_distances(p, h + 1, cells, uf, pdist, find)
    (cells, _uf, _pdist, find), (fresh_cells, _uf, _pdist, fresh_find) = resumed, fresh
    for radius in range(h + 2):
        assert _finalize(p, cells, find, radius) == _finalize(
            p, fresh_cells, fresh_find, radius), radius


# words built as runs of one letter: a, b and their inverses with exponents
# one to six, so that a letter looping at a row sends a trace across its run
run_words = st.lists(st.tuples(st.sampled_from("abAB"), st.integers(1, 6)),
                     min_size=1, max_size=4).map(lambda runs: "".join(x * e for x, e in runs))


@settings(max_examples=150, deadline=None)
@given(st.lists(run_words, min_size=1, max_size=3), st.lists(run_words, max_size=1),
       st.integers(0, 4))
def test_traces_across_runs_reach_the_same_fixpoint(relators, gens, top):
    listed = "".join(f"\n  {w}" for w in relators)
    assert_fresh_and_grown_runs_agree(f"generators: a b\nrelators:{listed}\n", gens, top)


# Rips-shaped relators x u X v, with u and v words in a and b, over
# H = <a, b>: a and b loop at the base and at every row a relator makes
# equal to it, so a trace crosses long stretches of a and b, mixed, at rows
# where both loop
@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(run_words, run_words), min_size=1, max_size=3), st.integers(0, 4))
def test_traces_across_looping_stretches_reach_the_same_fixpoint(pairs, top):
    listed = "".join(f"\n  x{u}X{v}" for u, v in pairs)
    assert_fresh_and_grown_runs_agree(f"generators: x a b\nrelators:{listed}\n", ("a", "b"), top)


def assert_fresh_and_grown_runs_agree(text, gens, top):
    """At every horizon up to top, the fresh closure and the one grown in
    place are fixpoints with BFS distances, and give equal balls."""
    fresh = raw_runs(text, gens, range(top + 1))
    grown = raw_runs(text, gens, range(top + 1), resumed=True)
    for (horizon, p, run), (_h, _p, grown_run) in zip(fresh, grown):
        for cells, uf, pdist, find in (run, grown_run):
            assert_fixpoint(p, horizon, cells, uf, pdist)
            assert_bfs_distances(p, horizon, cells, uf, pdist, find)
        (cells, _uf, _pdist, find), (fresh_cells, _uf, _pdist, fresh_find) = grown_run, run
        for radius in range(horizon + 1):
            assert _finalize(p, cells, find, radius) == _finalize(
                p, fresh_cells, fresh_find, radius), (horizon, radius)


def test_restrict_to_generators_reaches_fewer_cosets(genus2, trivial):
    ball = stable_ball(genus2, trivial, 2)
    small = restrict_to_generators(ball, ("a", "b"))
    assert small.gen_names == ("a", "b")
    assert len(small.table) == 4
    # only what the kept letters reach survives; distances carry over
    assert small.n_vertices == 17
    assert max(small.dist) == 2
    assert small.dist[walk(small, "ab")] == 2


def test_covering_check_passes_on_an_honest_ball(f2, trivial):
    ball = stable_ball(f2, trivial, 3)
    report = covering_degree_check(ball, 2)
    assert report.passed
    assert report.checked == 12
    assert not report.violations


@pytest.mark.parametrize("exclusion", [3, 4])
def test_covering_check_refuses_a_vacuous_exclusion(f2, trivial, exclusion):
    # no coset lies in exclusion <= dist < radius, so a pass would be vacuous
    ball = stable_ball(f2, trivial, 3)
    with pytest.raises(ValueError):
        covering_degree_check(ball, exclusion)


@pytest.mark.parametrize("text, checked, found", [
    # G = Z over b: the letter a loops at every coset
    ("generators: a b\nrelators:\n  a\n", 3,
     [(v, d, "loop", x) for v, d in ((0, 0), (1, 1), (2, 1)) for x in (0, 1)]),
    # Z/2: a and A lead to the same neighbour
    ("generators: a\nrelators: aa\n", 2, [(0, 0, "multi_edge", 1), (1, 1, "multi_edge", 1)]),
], ids=["loop", "multi-edge"])
def test_covering_check_flags_loops_and_doubled_edges(text, checked, found):
    p = parse_presentation(text)
    report = covering_degree_check(stable_ball(p, sub(p), 2), 0)
    assert not report.passed
    assert report.checked == checked
    assert report.violations == tuple(CoveringViolation(*v) for v in found)


def test_covering_check_flags_tampering(f2, trivial):
    import dataclasses

    ball = stable_ball(f2, trivial, 3)
    # pick a coset strictly between the excluded core and the rim
    victim = next(
        v for v in range(ball.n_vertices) if ball.dist[v] == 2 and ball.table[0][v] >= 0
    )
    table = [list(col) for col in ball.table]
    table[0][victim] = -1
    bad = dataclasses.replace(ball, table=table)
    report = covering_degree_check(bad, 1)
    assert not report.passed
    assert report.violations[0].kind == "missing_edge"
    assert report.violations[0].letter == 0


# --- independent references --------------------------------------------------
# Balls built without coset enumeration, for presentations with relators.


def letter_actions(perms):
    """Each letter's action on points: generator i's, then its inverse's."""
    return [q for perm in perms
            for q in (list(perm), sorted(range(len(perm)), key=perm.__getitem__))]


def orbit_ball(p, perms):
    """Orbit graph of point 0 under the generators' permutations, as a Ball,
    and the Schreier generators of the stabilizer of 0.

    Words act on points left to right, so the orbit graph is the Schreier
    graph of (G, Stab(0)).  Schreier's lemma: with t(v) the BFS-tree word
    to v, the words t(v) x t(v.x)^-1 over every point v and generator x
    generate the stabilizer.
    """
    act = letter_actions(perms)
    index = {0: 0}
    order, dist, tree = [0], [0], [()]
    for v in order:
        for x, q in enumerate(act):
            if q[v] not in index:
                index[q[v]] = len(order)
                order.append(q[v])
                dist.append(dist[index[v]] + 1)
                tree.append(tree[index[v]] + (x,))
    table = [[index[q[v]] for v in order] for q in act]
    ball = Ball(p.generators, table, dist, max(dist) + 1)
    words = [free_reduce(tree[i] + (2 * g,) + invert(tree[table[2 * g][i]]))
             for i in range(len(order)) for g in range(len(perms))]
    return ball, SubgroupSpec(tuple(words))


def assert_enumerator_matches(p, perms):
    act = letter_actions(perms)
    for w in p.relators:
        for q in range(len(perms[0])):
            r = q
            for x in w:
                r = act[x][r]
            assert r == q, "the permutations break a relator"
    # a ball one past the base's eccentricity holds the whole orbit graph
    expected, h = orbit_ball(p, perms)
    ball = stable_ball(p, h, expected.radius)
    assert ball.stable
    assert canonical_code(ball) == canonical_code(expected)


@settings(max_examples=50, deadline=None)
@given(st.integers(3, 40).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))))
def test_genus2_ball_matches_a_permutation_representation(genus2, pair):
    # a -> s, b -> t, c -> t, d -> s satisfies abABcdCD for any s and t
    s, t = pair
    assert_enumerator_matches(genus2, [s, t, t, s])


@settings(max_examples=50, deadline=None)
@given(st.integers(3, 40).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, n - 1), st.integers(0, n - 1))))
def test_torus_ball_matches_a_permutation_representation(torus, case):
    # two powers of one n-cycle commute
    n, i, j = case
    assert_enumerator_matches(torus, [[(q + k) % n for q in range(n)] for k in (i, j)])


def series_quotient(num, den, terms):
    """The first terms coefficients of the power series num / den."""
    out = []
    for k in range(terms):
        c = num[k] if k < len(num) else 0
        c -= sum(den[i] * out[k - i] for i in range(1, min(k, len(den) - 1) + 1))
        out.append(Fraction(c, den[0]))
    return out


def growth_series(g, terms):
    """Sphere sizes of the genus-g surface group in its standard generators
    (Cannon; Floyd and Plotnick, Invent. Math. 1987), by power-series
    division of (1 + 2x + ... + 2x^(2g-1) + x^(2g)) by
    (1 - (4g-2)(x + ... + x^(2g-1)) + x^(2g))."""
    num = [1] + [2] * (2 * g - 1) + [1]
    den = [1] + [-(4 * g - 2)] * (2 * g - 1) + [1]
    return series_quotient(num, den, terms)


@pytest.mark.parametrize(
    "text, genus, radius",
    [(GENUS2, 2, 4), ("generators: a b c d e f\nrelators: abABcdCDefEF\n", 3, 3)],
    ids=["genus2", "genus3"],
)
def test_surface_spheres_follow_the_growth_series(text, genus, radius):
    p = parse_presentation(text)
    ball = stable_ball(p, sub(p), radius)
    assert ball.stable
    assert sphere_sizes(ball) == growth_series(genus, radius + 1)


def steinberg_series(orders, terms):
    """Sphere sizes of an infinite triangle Coxeter group by Steinberg's
    formula (Davis, The Geometry and Topology of Coxeter Groups, 2008):
    1/W(t) is the sum over the generator subsets T with W_T finite of
    (-1)^|T| t^N_T / W_T(t).  Here those are the empty set (1), the three
    single generators (t / (1 + t) each) and the three pairs, a pair of
    order m giving t^m / ((1 + t)(1 + t + ... + t^(m-1)))."""
    one = [1] + [0] * (terms - 1)
    single = series_quotient([0, 1], [1, 1], terms)
    inverse = [e - 3 * x for e, x in zip(one, single)]
    for m in orders:
        pair = series_quotient(series_quotient([0] * m + [1], [1, 1], terms), [1] * m, terms)
        inverse = [x + y for x, y in zip(inverse, pair)]
    return series_quotient([1], inverse, terms)


def degree_product(degrees, terms):
    """Sphere sizes of a finite Coxeter group: the coefficients of the
    product of 1 + t + ... + t^(d-1) over its degrees d."""
    w = [1]
    for d in degrees:
        w = [sum(w[k - i] for i in range(d) if 0 <= k - i < len(w)) for k in range(len(w) + d - 1)]
    return (w + [0] * terms)[:terms]


TRIANGLES = [
    ((2, 3, 7), 8, None),  # hyperbolic
    ((2, 4, 5), 8, None),
    ((3, 3, 4), 8, None),
    ((2, 3, 6), 10, None),  # Euclidean
    ((2, 4, 4), 10, None),
    ((3, 3, 3), 10, None),
    ((2, 3, 3), 10, (2, 3, 4)),  # finite: A3, B3, H3
    ((2, 3, 4), 10, (2, 4, 6)),
    ((2, 3, 5), 10, (2, 6, 10)),
]


@pytest.mark.parametrize(
    "orders, radius, degrees", TRIANGLES, ids=["".join(map(str, t[0])) for t in TRIANGLES]
)
def test_triangle_group_spheres_follow_steinberg(orders, radius, degrees):
    # <a, b, c | a^2, b^2, c^2, (ab)^p, (bc)^q, (ca)^r> with H = 1
    p, q, r = orders
    relators = ["aa", "bb", "cc", "ab" * p, "bc" * q, "ca" * r]
    cox = parse_presentation("generators: a b c\nrelators:\n" + "".join(
        f"  {w}\n" for w in relators))
    ball = stable_ball(cox, sub(cox), radius, max_slack=0)
    assert ball.stable
    terms = radius + 1
    want = degree_product(degrees, terms) if degrees else steinberg_series(orders, terms)
    assert sphere_sizes(ball) == want


NIELSEN_CASES = [(TORUS, ("aa", "bbb"), 3), (GENUS2, ("a", "bb"), 3), (GENUS2, ("ab", "cc"), 2)]


@functools.cache
def nielsen_reference(text, gens, radius):
    p = parse_presentation(text)
    return p, sub(p, *gens).words, canonical_code(stable_ball(p, sub(p, *gens), radius))


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(NIELSEN_CASES),
    st.lists(st.tuples(st.sampled_from(["invert", "multiply", "swap"]), st.booleans()),
             max_size=3),
)
def test_nielsen_moves_keep_the_ball(case, moves):
    # the moves keep the subgroup, so they must keep its Schreier ball
    p, words, code = nielsen_reference(*case)
    u, v = words
    for move, first in moves:
        if move == "invert":
            u, v = (invert(u), v) if first else (u, invert(v))
        elif move == "multiply":
            u, v = (u + v, v) if first else (u, v + u)
        else:
            u, v = v, u
    ball = stable_ball(p, SubgroupSpec((u, v)), case[2])
    assert canonical_code(ball) == code


GENUS3 = "generators: a b c d e f\nrelators: abABcdCDefEF\n"


def exponent_sums(p, word):
    sums = [0] * p.n_generators
    for x in word:
        sums[x >> 1] += -1 if x & 1 else 1
    return tuple(sums)


def dehn_ball(p, radius):
    """Cayley ball of a C'(1/6) group by BFS over words.

    Two words name one vertex exactly when Dehn's algorithm reduces
    u v^-1 to the empty word.  Every relator has zero exponent sums, so
    the exponent-sum vector is an invariant of the element and only
    words that share it are compared.
    """
    words, dist = [()], [0]
    buckets = {exponent_sums(p, ()): [0]}
    table = [[] for _ in range(p.n_letters)]
    for v, u in enumerate(words):  # words grows while the loop runs
        for x in range(p.n_letters):
            w = u + (x,)
            key = exponent_sums(p, w)
            t = next((t for t in buckets.get(key, ()) if not dehn_reduce(w + invert(words[t]), p)),
                     -1)
            if t < 0 and dist[v] < radius:
                t = len(words)
                words.append(w)
                dist.append(dist[v] + 1)
                buckets.setdefault(key, []).append(t)
            table[x].append(t)
    return Ball(p.generators, table, dist, radius)


@pytest.mark.parametrize(
    "text, radius",
    # both radius-3 balls are still trees; at radius 4 genus 2 closes its
    # first relator cycles
    [(GENUS2, 3), (GENUS2, 4), (GENUS3, 3)],
    ids=["genus2-r3", "genus2-r4", "genus3-r3"],
)
def test_surface_ball_matches_a_dehn_algorithm_ball(text, radius):
    p = parse_presentation(text)
    expected = dehn_ball(p, radius)
    ball = stable_ball(p, sub(p), radius)
    assert ball.stable
    assert canonical_code(ball) == canonical_code(expected)


# --- metamorphic relations ---------------------------------------------------
# Presentations of the same pair (G, H) must give the same ball or, after
# renaming letters, the same counts.

METAMORPHIC = [
    ("line", "generators: a\nrelators: none\n", ()),
    ("f2", FREE2, ("ab",)),
    ("torus", TORUS, ("a",)),
    ("shifty", SHIFTY, ()),
    ("genus2", GENUS2, ("a",)),
]


def _counts(p, h):
    ball = stable_ball(p, h, 3)
    assert ball.stable
    template = empirical_ledger(r0=2, inner_offset=Fraction(2), outer_radius=3)
    return (
        sphere_sizes(ball),
        probe_class_history(ball, template, [1, 2, 3]),
        empirical_ends(ball, [0, 1, 2]).counts,
    )


@pytest.mark.parametrize("name, text, gens", METAMORPHIC, ids=[c[0] for c in METAMORPHIC])
def test_rotated_and_inverted_relators_keep_the_ball(name, text, gens):
    p = parse_presentation(text)
    h = sub(p, *gens)
    code = canonical_code(stable_ball(p, h, 3))
    for i, r in enumerate(p.relators):
        for k in range(len(r)):
            for new in (r[k:] + r[:k], invert(r[k:] + r[:k])):
                q = Presentation(p.generators, p.relators[:i] + (new,) + p.relators[i + 1:])
                assert canonical_code(stable_ball(q, h, 3)) == code


@pytest.mark.parametrize("name, text, gens", METAMORPHIC, ids=[c[0] for c in METAMORPHIC])
def test_renamed_generators_keep_the_counts(name, text, gens):
    p = parse_presentation(text)
    h = sub(p, *gens)
    expected = _counts(p, h)
    n = p.n_generators
    # a permutation of the generators, optionally inverting the first one
    perms = sorted({tuple(reversed(range(n))), tuple(range(1, n)) + (0,)})
    for perm, flip in itertools.product(perms, (0, 1)):
        def rename(word):
            return tuple(2 * perm[x >> 1] + ((x & 1) ^ (flip and x >> 1 == 0)) for x in word)

        q = Presentation(p.generators, tuple(rename(r) for r in p.relators))
        assert _counts(q, SubgroupSpec(tuple(rename(w) for w in h.words))) == expected
