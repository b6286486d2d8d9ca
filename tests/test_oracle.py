"""Folded core graphs as an independent membership and ball oracle."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relends import (
    SubgroupSpec,
    canonical_code,
    enumerate_cosets,
    free_schreier_ball,
    graphs_isomorphic,
    parse_presentation,
    restrict_to_generators,
    stable_ball,
    stallings_fold,
)
from relends.schreier import Ball, _relabel

from conftest import FREE2, free_group, seeded_cores, short_words, sub


def is_folded(core):
    """Every defined edge of the core has its inverse defined."""
    return all(core.table[x ^ 1][t] == v
               for x, col in enumerate(core.table) for v, t in enumerate(col) if t >= 0)


def test_fold_needs_a_free_ambient_group(genus2):
    with pytest.raises(ValueError):
        stallings_fold(genus2, sub(genus2, "a"))


def test_single_generator_folds_to_one_loop(f2):
    core = stallings_fold(f2, sub(f2, "a"))
    assert core.n_vertices == 1
    assert core.table[0][0] == 0  # a-loop at the base
    assert core.table[2][0] == -1  # no b-edge anywhere
    assert is_folded(core)


def test_square_generator_folds_to_two_vertices(f2):
    core = stallings_fold(f2, sub(f2, "aa"))
    assert core.n_vertices == 2
    assert is_folded(core)


def test_conjugate_plus_square(f2):
    core = stallings_fold(f2, sub(f2, "abA", "bb"))
    assert core.n_vertices == 3
    assert sum(1 for col in core.table for t in col if t >= 0) == 8  # 4 edges


def test_trivial_subgroup_is_a_point(f2, trivial):
    core = stallings_fold(f2, trivial)
    assert core.n_vertices == 1
    assert all(t == -1 for col in core.table for t in col)


def test_membership_after_folding(f2):
    core = stallings_fold(f2, sub(f2, "abA", "bb"))
    for text, inside in [
        ("abA", True),
        ("bb", True),
        ("abbA", True),
        ("bbabA", True),
        ("BB", True),
        ("a", False),
        ("b", False),
        ("ab", False),
    ]:
        # a word of H traces a loop at the base; a missing edge leads off the core
        v = 0
        for x in f2.word_from_text(text):
            v = core.table[x][v] if v >= 0 else -1
        assert (v == 0) is inside, text


FREE = {2: parse_presentation(FREE2), 3: parse_presentation("generators: a b c\nrelators: none\n")}


@st.composite
def free_subgroups(draw):
    """A subgroup spec of F2 or F3: 1-4 words of 1-8 letters."""
    rank = draw(st.sampled_from(sorted(FREE)))
    letter = st.integers(0, 2 * rank - 1)
    words = draw(st.lists(st.lists(letter, min_size=1, max_size=8).map(tuple),
                          min_size=1, max_size=4))
    return FREE[rank], SubgroupSpec(tuple(words))


@settings(max_examples=200, deadline=None)
@given(free_subgroups())
@example((FREE[2], sub(FREE[2], "abab", "aabb", "bA")))
def test_fold_order_does_not_matter(case):
    # folding is confluent (Kapovich and Myasnikov, J. Algebra 2002): the
    # order in which pending identifications are processed cannot matter;
    # no seed is the unshuffled order
    p, h = case
    seeds = (None, *range(6))
    codes = {canonical_code(stallings_fold(p, h, fold_order_seed=seed)) for seed in seeds}
    assert len(codes) == 1


def test_canonical_code_separates_subgroups(f2):
    one = canonical_code(stallings_fold(f2, sub(f2, "a")))
    two = canonical_code(stallings_fold(f2, sub(f2, "b")))
    assert one != two


def test_oracle_ball_matches_enumerator(f2, trivial):
    """Spot checks; the exhaustive sweep lives in the acceptance suite."""
    cases = [
        (trivial, 3, 53),
        (sub(f2, "a"), 2, 9),
        (sub(f2, "aa", "bb"), 3, 19),
        (sub(f2, "ab"), 4, 108),
        (sub(f2, "abA", "bb"), 3, 28),
        (sub(f2, "abAB"), 3, 48),
    ]
    for h, radius, n in cases:
        want = free_schreier_ball(stallings_fold(f2, h), radius)
        got = enumerate_cosets(f2, h, radius)
        assert got.stable
        assert got.n_vertices == n
        assert want.n_vertices == n
        assert graphs_isomorphic(got, want)


def test_isomorphism_rejects_different_balls(f2, trivial):
    tree = free_schreier_ball(stallings_fold(f2, trivial), 2)
    quotient = free_schreier_ball(stallings_fold(f2, sub(f2, "a")), 2)
    assert not graphs_isomorphic(tree, quotient)


def flattened(ball):
    """L, then each vertex's targets in letter order: canonical_code's layout."""
    return (ball.n_letters, *(col[v] for v in range(ball.n_vertices) for col in ball.table))


@settings(max_examples=100, deadline=None)
@given(st.lists(short_words, max_size=2), st.lists(short_words, max_size=2),
       st.integers(0, 3), st.sampled_from([("a",), ("b",), ("b", "a")]))
def test_every_ball_is_canonically_labeled(relators, gens, radius, names):
    # graphs_isomorphic compares tables, which is exact only because every
    # Ball constructor emits the canonical BFS labeling
    listed = "".join(f"\n  {w}" for w in relators) or " none"
    p = parse_presentation(f"generators: a b\nrelators:{listed}\n")
    h = sub(p, *gens)
    ball = stable_ball(p, h, radius, max_slack=2)
    balls = [
        ball,
        enumerate_cosets(p, h, radius),
        restrict_to_generators(ball, names),
        free_schreier_ball(stallings_fold(FREE[2], sub(FREE[2], *gens)), radius),
        stallings_fold(FREE[2], sub(FREE[2], *gens)),
    ]
    for b in balls:
        assert canonical_code(b) == flattened(b)
    for g1 in balls:
        for g2 in balls:
            if g1.gen_names == g2.gen_names:
                assert graphs_isomorphic(g1, g2) == (canonical_code(g1) == canonical_code(g2))


def test_isomorphism_tells_the_axes_apart(f2):
    # same shape, different labels: no label-preserving isomorphism
    along_a = free_schreier_ball(stallings_fold(f2, sub(f2, "a")), 2)
    along_b = free_schreier_ball(stallings_fold(f2, sub(f2, "b")), 2)
    assert along_a.n_vertices == along_b.n_vertices
    assert canonical_code(along_a) != canonical_code(along_b)
    assert not graphs_isomorphic(along_a, along_b)
    assert graphs_isomorphic(along_a, enumerate_cosets(f2, sub(f2, "a"), 2))


def test_free_ball_of_radius_zero_is_the_base(f2, trivial):
    ball = free_schreier_ball(stallings_fold(f2, trivial), 0)
    assert ball.n_vertices == 1
    assert ball.dist == [0]


def grafted_ball(core, radius):
    """The reference construction: graft a fresh tree row on each missing
    letter of every row below the radius, then relabel the result."""
    L = core.n_letters
    cells = [t for row in zip(*core.table) for t in row]
    depth = list(core.dist)
    for v, d in enumerate(depth):  # reaches the grafted rows as they are appended
        if d < radius:
            for x in range(L):
                if cells[v * L + x] < 0:
                    cells[v * L + x] = len(depth)
                    depth.append(d + 1)
                    cells += [-1] * L
                    cells[(x ^ 1) - L] = v
    table, dist = _relabel(cells, L, int, radius)
    return Ball(core.gen_names, table, dist, radius)


def truncated(ball, radius):
    """The ball cut down to a smaller radius; BFS labels make it a prefix."""
    n = sum(1 for d in ball.dist if d <= radius)
    table = [[t if t < n else -1 for t in col[:n]] for col in ball.table]
    return Ball(ball.gen_names, table, ball.dist[:n], radius)


def test_free_ball_equals_the_grafted_construction():
    cores = list(seeded_cores())
    # radii run past every core's eccentricity, so trees hang off the far rows
    assert 2 <= max(core.radius for core in cores) < 6
    for core in cores:
        for radius in range(7):
            assert free_schreier_ball(core, radius) == grafted_ball(core, radius)


def test_free_ball_truncates_to_the_smaller_ball():
    for core in seeded_cores(seed=29, per_rank=15):
        balls = [free_schreier_ball(core, radius) for radius in range(7)]
        for radius, (inner, outer) in enumerate(zip(balls, balls[1:])):
            assert truncated(outer, radius) == inner


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_trivial_subgroup_gives_the_free_cayley_ball(rank):
    # |B(r)| in F_n is 1 + 2n((2n-1)^r - 1)/(2n - 2); for n = 1, 1 + 2r
    core = stallings_fold(free_group(rank), SubgroupSpec(()))
    n = 2 * rank
    for radius in range(7):
        want = 1 + 2 * radius if rank == 1 else 1 + n * ((n - 1) ** radius - 1) // (n - 2)
        assert free_schreier_ball(core, radius).n_vertices == want
