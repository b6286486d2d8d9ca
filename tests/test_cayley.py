"""Distances, Gromov products, and defect estimates inside truncated balls."""

from fractions import Fraction

import pytest

from relends import (
    build_ball,
    estimate_delta,
    estimate_epsilon,
)
from relends.cayley import pair_certified

from conftest import sub, walk


@pytest.fixture(scope="module")
def tree4(f2):
    return build_ball(f2, 4)


def distance(ball, u, v):
    """(in-ball distance, whether pair_certified vouches for it)."""
    d = next(d for d, layer in enumerate(ball.layers(u)) if v in layer)
    return d, pair_certified(ball.dist, ball.radius, u, v, d)


def test_tree_ball_vertex_count(tree4):
    assert tree4.n_vertices == 161


def test_in_ball_distance_is_exact_when_certified(tree4):
    aa, ab = walk(tree4, "aa"), walk(tree4, "ab")
    assert distance(tree4, aa, ab) == (2, True)


def test_distance_near_the_rim_is_not_certified(tree4):
    # the straight path between opposite rim points stays inside, but the
    # ball cannot promise no outside shortcut exists
    assert distance(tree4, walk(tree4, "aaaa"), walk(tree4, "bbbb")) == (8, False)


def test_gromov_products_in_a_tree(tree4):
    def gromov(x, y):
        (dx, c1), (dy, c2), (dxy, c3) = (
            distance(tree4, 0, x), distance(tree4, 0, y), distance(tree4, x, y)
        )
        assert c1 and c2 and c3
        return Fraction(dx + dy - dxy, 2)

    aa, bb, ab = walk(tree4, "aa"), walk(tree4, "bb"), walk(tree4, "ab")
    assert gromov(aa, bb) == 0
    assert gromov(aa, ab) == 1  # shared prefix a


def test_gromov_product_refuses_uncertified_pairs(tree4):
    # a Gromov product at base bbb of aaaa and bbbb needs all three
    # distances certified; the rim pairs are not
    deep, far, base = walk(tree4, "aaaa"), walk(tree4, "bbbb"), walk(tree4, "bbb")
    pairs = [(base, deep), (base, far), (deep, far)]
    assert not all(distance(tree4, u, v)[1] for u, v in pairs)


def test_tree_defect_is_zero(f2):
    ball = build_ball(f2, 3)
    assert estimate_delta(ball) == 0


def test_defect_estimate_needs_sampling_on_big_balls(tree4):
    with pytest.raises(ValueError):
        estimate_delta(tree4)
    assert estimate_delta(tree4, sample=300, seed=1) == 0


def test_sampled_defect_is_deterministic_per_seed(tree4):
    one = estimate_delta(tree4, sample=120, seed=7)
    two = estimate_delta(tree4, sample=120, seed=7)
    assert one == two
    assert isinstance(one, Fraction)


def test_sampled_defect_finds_certified_quadruples(torus):
    # most of the ball sits near the rim, where pairs fail certification;
    # the sample must still find certified quadruples
    ball = build_ball(torus, 5, radius_cap=12)
    assert 0 < estimate_delta(ball, sample=200, seed=0) <= estimate_delta(ball)


def test_surface_ball_defect_at_desk_radius(genus2):
    ball = build_ball(genus2, 2)
    assert ball.n_vertices == 65
    assert estimate_delta(ball, sample=200, seed=0) == 0


def test_axis_quasiconvexity_constant(tree4, f2):
    assert estimate_epsilon(tree4, sub(f2, "a")) == 0


def test_epsilon_on_the_surface_ball(genus2):
    ball = build_ball(genus2, 2)
    assert estimate_epsilon(ball, sub(genus2, "a")) == 0


def test_epsilon_needs_two_orbit_points(tree4, f2):
    with pytest.raises(ValueError):
        estimate_epsilon(tree4, sub(f2, "aaaaaaaaaa"))


# nonzero values pinned from the earlier dense four-point scan
@pytest.mark.parametrize(
    "group, radius, subgroup, expected",
    [
        ("torus", 3, None, 1),
        ("torus", 4, None, 2),
        ("torus", 5, None, 2),
        ("torus", 7, None, 3),
        ("f2", 4, "ab", 1),
        ("f2", 4, "abAB", 2),
        ("torus", 5, "ab", 2),
    ],
)
def test_nonzero_estimates(request, group, radius, subgroup, expected):
    p = request.getfixturevalue(group)
    ball = build_ball(p, radius, radius_cap=12 if group == "torus" else None)
    if subgroup is None:
        assert estimate_delta(ball) == expected
    else:
        assert estimate_epsilon(ball, sub(p, subgroup)) == expected
