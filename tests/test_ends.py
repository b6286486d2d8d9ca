"""End counting: sphere classes, stabilization verdicts, annulus conditions."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relends import (
    INFINITE,
    UNCERTIFIED,
    Ball,
    SubgroupSpec,
    UnstableBallError,
    annulus_inner_radius,
    check_dag,
    check_ddag,
    count_relative_ends,
    empirical_ends,
    empirical_ledger,
    parse_presentation,
    probe_class_history,
    sphere_classes,
    stabilization_verdict,
    stable_ball,
)
from relends.ends import pair_certified
from relends.schreier import DEFAULT_NODE_BUDGET

from conftest import FREE2, GENUS2, SURFACE_BUDGET, TORUS, RipsOver, kernel_pair, sub, walk


# --- stabilization verdicts ------------------------------------------------


@pytest.mark.parametrize(
    "history,window,verdict",
    [
        ([], 3, UNCERTIFIED),
        ([2, 2], 3, UNCERTIFIED),
        ([2, 2, 2], 3, 2),
        ([1, 2, 2, 2], 3, 2),
        ([2, 2, 3], 3, UNCERTIFIED),
        ([1, 2, 3], 3, INFINITE),
        ([4, 4, 12, 36], 3, INFINITE),
        ([3, 3, 3, 3], 4, 3),
        ([0, 0, 0], 3, 0),
    ],
)
def test_verdict_table(history, window, verdict):
    assert stabilization_verdict(history, window) == verdict


counts = st.lists(st.integers(min_value=0, max_value=9), max_size=8)


@given(counts, st.integers(min_value=1, max_value=4))
def test_verdict_is_certain_only_with_a_full_window(history, window):
    v = stabilization_verdict(history, window)
    if len(history) < window:
        assert v == UNCERTIFIED
    elif v not in (UNCERTIFIED, INFINITE):
        assert history[-window:] == [v] * window


# --- sphere classes and probe histories -------------------------------------


def test_line_has_two_sphere_classes(zline, trivial):
    ball = stable_ball(zline, trivial, 5)
    led = empirical_ledger(r0=2, inner_offset=Fraction(3), outer_radius=5)
    classes = sphere_classes(ball, led.r0, annulus_inner_radius(led.r0, led.inner_offset))
    assert annulus_inner_radius(led.r0, led.inner_offset) == 0
    assert len(classes) == 2
    assert sorted(c[0] for c in classes) == [3, 4]  # one coset per side
    assert ball.stable


def test_line_history_is_flat(zline, trivial):
    ball = stable_ball(zline, trivial, 5)
    led = empirical_ledger(r0=3, inner_offset=Fraction(3), outer_radius=5)
    assert probe_class_history(ball, led, [1, 2, 3]) == [2, 2, 2]


def test_base_outside_the_annulus_is_its_own_class(zline, trivial):
    # at R0 = 0 the cut clamps to the closed 0-ball, which holds the base
    ball = stable_ball(zline, trivial, 5)
    led = empirical_ledger(r0=2, inner_offset=Fraction(3), outer_radius=5)
    assert probe_class_history(ball, led, [0, 1, 2]) == [1, 2, 2]


def test_tree_classes_grow_once_the_cut_moves(f2, trivial):
    ball = stable_ball(f2, trivial, 6)
    led = empirical_ledger(r0=5, inner_offset=Fraction(3), outer_radius=6)
    # probes below the offset all cut at the base and agree; beyond it the
    # inner ball starts moving and the branch count takes over
    assert probe_class_history(ball, led, [1, 2, 3, 4, 5]) == [4, 4, 4, 12, 36]


# --- empirical cross-check ---------------------------------------------------


def test_empirical_line_stabilizes_at_two(zline, trivial):
    ball = stable_ball(zline, trivial, 5)
    rep = empirical_ends(ball, [0, 1, 2])
    assert rep.counts == (2, 2, 2)
    assert rep.verdict == 2


def test_empirical_tree_diverges(f2, trivial):
    ball = stable_ball(f2, trivial, 4)
    rep = empirical_ends(ball, [0, 1, 2])
    assert rep.counts == (4, 12, 36)
    assert rep.verdict == INFINITE


def test_a_rim_vertex_with_two_edges_joins_classes(trivial):
    # Z/6 at radius 3: the rim vertex 5 = aaa = AAA has two in-ball edges,
    # to 3 = aa and 4 = AA, and its row is what joins the two halves of
    # S(2); a BFS that read no rim row would see two classes and (2, 2, 2)
    ball = stable_ball(parse_presentation("generators: a\nrelators: aaaaaa\n"), trivial, 3)
    assert ball.dist == [0, 1, 1, 2, 2, 3]
    assert ball.table[0][3] == 5 and ball.table[1][4] == 5
    assert sphere_classes(ball, 2, 1) == [(3, 4)]
    assert empirical_ends(ball, [0, 1, 2]).counts == (1, 1, 1)


def test_empirical_ignores_branches_that_stop_short_of_the_rim():
    # the a-line out to the rim at 3, plus a b-branch that dead-ends at
    # distance 2; letter columns are a, A, b, B
    ball = Ball(
        gen_names=("a", "b"),
        table=[
            [1, 4, 0, -1, 7, 2, -1, -1, 5],
            [2, 0, 5, -1, 1, 8, -1, 4, -1],
            [3, -1, -1, 6, -1, -1, -1, -1, -1],
            [-1, -1, -1, 0, -1, -1, 3, -1, -1],
        ],
        dist=[0, 1, 1, 1, 2, 2, 2, 3, 3],
        radius=3,
    )
    rep = empirical_ends(ball, [0, 1, 2])
    assert rep.counts == (2, 2, 2)
    assert rep.verdict == 2


def test_empirical_needs_room_and_order(f2, trivial):
    ball = stable_ball(f2, trivial, 3)
    with pytest.raises(ValueError):
        empirical_ends(ball, [1, 3])  # must stay under the ball radius
    with pytest.raises(ValueError):
        empirical_ends(ball, [2, 1])
    with pytest.raises(ValueError):
        empirical_ends(ball, [])


def test_empirical_rejects_repeated_radii(f2, trivial):
    ball = stable_ball(f2, trivial, 3)
    with pytest.raises(ValueError, match="strictly ascending"):
        empirical_ends(ball, [2, 2, 2])


def test_short_histories_stay_uncertified(zline, trivial):
    ball = stable_ball(zline, trivial, 5)
    assert empirical_ends(ball, [1, 2]).verdict == UNCERTIFIED


# --- end counts end to end ---------------------------------------------------


def probes_ledger(probes, gap=1, offset=3):
    return empirical_ledger(
        r0=probes[-1], inner_offset=Fraction(offset), outer_radius=probes[-1] + gap
    )


def test_whole_group_has_no_ends(zline):
    rep = count_relative_ends(
        zline, sub(zline, "a"), probes_ledger([2, 3, 4, 5]), [2, 3, 4, 5]
    )
    assert rep.count == 0
    assert rep.class_history == (0, 0, 0, 0)


def test_line_has_two_ends(zline, trivial):
    rep = count_relative_ends(zline, trivial, probes_ledger([2, 3, 4, 5]), [2, 3, 4, 5])
    assert rep.count == 2
    assert rep.class_history == (2, 2, 2, 2)


def test_tree_count_never_settles(f2, trivial):
    rep = count_relative_ends(f2, trivial, probes_ledger([2, 3, 4, 5]), [2, 3, 4, 5])
    assert rep.count == INFINITE
    assert rep.class_history == (4, 4, 12, 36)


def test_finite_index_subgroup_sees_zero_ends(zline):
    rep = count_relative_ends(
        zline, sub(zline, "aa"), probes_ledger([2, 3, 4, 5]), [2, 3, 4, 5]
    )
    assert rep.count == 0


def test_a_closed_coset_table_reads_zero():
    # the (2,3,5) triangle group has order 120 and diameter 15, so the rim
    # of the radius-17 ball is empty; the history alone (1, 1, 0 in the
    # window) earns no verdict
    tri235 = parse_presentation(
        "generators: a b c\nrelators:\n  aa\n  bb\n  cc\n  abab\n  bcbcbc\n  cacacacaca\n"
    )
    probes = [13, 14, 15, 16]
    rep = count_relative_ends(tri235, sub(tri235), probes_ledger(probes), probes)
    assert rep.class_history == (1, 1, 1, 0)
    assert rep.count == 0


def test_surface_quotient_count_at_desk_scale(genus2):
    rep = count_relative_ends(
        genus2, sub(genus2, "a"), probes_ledger([1, 2, 3]), [1, 2, 3]
    )
    assert rep.count == 2
    assert rep.class_history == (2, 2, 2)


def test_repeated_probes_are_rejected(f2):
    # a repeat would fill the window with one reading and pass as stable
    with pytest.raises(ValueError, match="strictly ascending"):
        count_relative_ends(f2, sub(f2), probes_ledger([3, 3, 3]), [3, 3, 3])


def test_unstable_balls_refuse_a_verdict():
    p = parse_presentation("generators: a b\nrelators: bbabbb\n")
    with pytest.raises(UnstableBallError):
        count_relative_ends(p, sub(p), probes_ledger([1, 2, 3]), [1, 2, 3], max_slack=0)


def triangle(p, q, r):
    """<a, b, c | a^2, b^2, c^2, (ab)^p, (bc)^q, (ca)^r>"""
    return ("generators: a b c\nrelators:\n  aa\n  bb\n  cc\n"
            f"  {'ab' * p}\n  {'bc' * q}\n  {'ca' * r}\n")


def known_ends(name, text, want, gens=(), probes=(2, 3, 4, 5), conjugate=None, xfail=None,
               budget=DEFAULT_NODE_BUDGET, offset=3, gap=1):
    marks = [pytest.mark.xfail(strict=True, reason=xfail)] if xfail else []
    return pytest.param(text, gens, list(probes), want, conjugate, budget, offset, gap,
                        id=name, marks=marks)


def shallow_annulus(history):
    return (f"reads infinite (history {history}): the annulus ends inside the "
            "relator loops that join the sphere (ROADMAP item 2)")


def racg(vertices, edges):
    """The right-angled Coxeter group of a graph: one generator per vertex,
    the relators x^2 and (xy)^2 for each edge xy."""
    lines = [f"  {x}{x}" for x in vertices] + [f"  {e}{e}" for e in edges]
    return f"generators: {' '.join(vertices)}\nrelators:\n" + "\n".join(lines) + "\n"


def pairs(vertices):
    return ["".join(e) for e in combinations(vertices, 2)]


DINF = "generators: a b\nrelators:\n  aa\n  bb\n"
# quotients for Rips' construction, over x, y and z: its kernel takes a and b
Q_DINF = "generators: x y\nrelators:\n  xx\n  yy\n"
Q_Z2 = "generators: x y\nrelators: xyXY\n"
Q_237 = f"generators: x y z\nrelators:\n  xx\n  yy\n  zz\n  xyxyxy\n  {'yz' * 7}\n  zxzx\n"

# groups whose end counts are known (Hopf 1944, Stallings; Davis 2008 for
# the triangle groups; Scott 1978 for the subgroups of the genus-2 surface
# group, where e(G, H) is the number of boundary circles of the cover
# H\H^2), read with the defaults of `ends count`: probes 2-5, inner offset 3,
# outer gap 1, window 3
KNOWN_ENDS = [
    known_ends("triangle-2-3-7", triangle(2, 3, 7), 1, xfail=(
        "reads infinite (history 1, 1, 2, 3): sphere vertices that relator "
        "loops join beyond the annulus stay apart (ROADMAP item 2)")),
    known_ends("triangle-2-4-6", triangle(2, 4, 6), 1),
    known_ends("triangle-3-3-5", triangle(3, 3, 5), 1),
    known_ends("triangle-2-3-6", triangle(2, 3, 6), 1),
    known_ends("triangle-3-3-3", triangle(3, 3, 3), 1),
    known_ends("triangle-2-3-5", triangle(2, 3, 5), 0, xfail=(
        "reads 1: the finite group (order 120, diameter 15) is read inside "
        "its diameter, and no check catches a ball that has not closed yet")),
    known_ends("psl2z", "generators: a b\nrelators:\n  aa\n  bbb\n", INFINITE),
    known_ends("d-infinity", DINF, 2),
    known_ends("klein-bottle", "generators: a b\nrelators: abAb\n", 1),
    known_ends("torus", TORUS, 1),
    known_ends("abAbb", "generators: a b\nrelators: abAbb\n", 1),
    known_ends("z2-free-z", "generators: a b c\nrelators: abAB\n", INFINITE),
    # right-angled Coxeter groups (Davis 2008; Mihalik and Tschantz 2009): a
    # complete graph minus one edge gives (Z/2)^k x D-infinity, 2 ends, and
    # K3 joined to three points gives (Z/2)^3 x (Z/2 * Z/2 * Z/2), infinitely
    # many.  Each reads 1 at probes 2-5, and a wider cut splits the sphere
    known_ends("racg-k5-minus-edge", racg("abcde", [e for e in pairs("abcde") if e != "de"]), 2),
    known_ends("racg-k3-join-three-points",
               racg("abcdef", pairs("abc") + [x + y for x in "abc" for y in "def"]), INFINITE),
    known_ends("racg-k6-minus-edge", racg("abcdef", [e for e in pairs("abcdef") if e != "ef"]),
               2, xfail=("reads 1 (history 1, 1, 1, 1): the split is at cut 4, past every "
                         "window probe with room at radius 6 (ROADMAP items 7 and 9)")),
    # F2 has infinitely many ends, but 4, 4, 4 stabilizes at a count no
    # group has: the Hopf gate must leave it uncertified
    known_ends("f2-probes-1-3", FREE2, UNCERTIFIED, probes=(1, 2, 3)),
    # the Schreier graph of D-infinity over <a> is a ray
    known_ends("d-infinity-a", DINF, 1, gens=("a",), conjugate="bab"),
    known_ends("torus-a", TORUS, 2, gens=("a",), conjugate="bbaBB"),
    # in abABcdCD, a and b alternate at the vertex, and so do c and d:
    # <a, b> is a one-holed torus, <a, c> a pair of pants and <a, b, c> a
    # two-holed torus
    known_ends("genus2-ab", GENUS2, 1, gens=("a", "b"), budget=SURFACE_BUDGET),
    known_ends("genus2-ac", GENUS2, 3, gens=("a", "c"), budget=SURFACE_BUDGET),
    known_ends("genus2-abc", GENUS2, 2, gens=("a", "b", "c")),
    known_ends("genus2-aa", GENUS2, 2, gens=("aa",), probes=(2, 3, 4), offset=2, xfail=(
        "reads infinite (history 1, 2, 288): probe 4's sphere has only the rim "
        "to join through, and relator loops reach deeper (ROADMAP item 2)")),
    # larger probes, where the outer gap of 1 or 2 reads a wrong "infinite";
    # a deep enough gap reads the one end
    known_ends("triangle-2-4-6-probes-4-7", triangle(2, 4, 6), 1, probes=(4, 5, 6, 7),
               xfail=shallow_annulus("1, 1, 2, 4")),
    known_ends("triangle-2-3-6-probes-6-9", triangle(2, 3, 6), 1, probes=(6, 7, 8, 9),
               xfail=shallow_annulus("1, 1, 2, 4")),
    known_ends("triangle-2-3-7-probes-6-9-gap-2", triangle(2, 3, 7), 1, probes=(6, 7, 8, 9),
               gap=2, xfail=shallow_annulus("1, 1, 2, 4")),
    known_ends("triangle-2-3-7-probes-6-9", triangle(2, 3, 7), 1, probes=(6, 7, 8, 9),
               xfail=shallow_annulus("1, 1, 3, 5")),
    known_ends("triangle-2-4-6-probes-4-7-gap-3", triangle(2, 4, 6), 1, probes=(4, 5, 6, 7),
               gap=3),
    known_ends("triangle-2-3-6-probes-6-9-gap-3", triangle(2, 3, 6), 1, probes=(6, 7, 8, 9),
               gap=3),
    known_ends("triangle-2-3-7-probes-6-9-gap-4", triangle(2, 3, 7), 1, probes=(6, 7, 8, 9),
               gap=4),
    # Known counts over H != 1, from Rips' construction G -> Q: H is the kernel N = <a, b>,
    # plus the lift of a subgroup K of Q, and the Schreier graph of (G, H) is
    # that of (Q, K) with an a- and a b-loop at every vertex, so e(G, H) =
    # e(Q, K).  N is normal, so the conjugation check conjugates K's lift.
    # The relators run to 480-980 letters.
    known_ends("rips-z", RipsOver("generators: x\nrelators: none\n"), 2),
    known_ends("rips-z3", RipsOver("generators: x\nrelators: xxx\n"), 0),
    known_ends("rips-d-infinity", RipsOver(Q_DINF), 2),
    known_ends("rips-z2", RipsOver(Q_Z2), 1),
    known_ends("rips-psl2z", RipsOver("generators: x y\nrelators:\n  xx\n  yyy\n"), INFINITE),
    known_ends("rips-z2-free-z", RipsOver("generators: x y z\nrelators: xyXY\n"), INFINITE),
    known_ends("rips-triangle-2-3-7", RipsOver(Q_237), 1, xfail=shallow_annulus("1, 1, 2, 3")),
    known_ends("rips-z2-x", RipsOver(Q_Z2), 2, gens=("x",), conjugate="yxY"),
    known_ends("rips-f2-x", RipsOver("generators: x y\nrelators: none\n"), INFINITE,
               gens=("x",), conjugate="yxY"),
    known_ends("rips-d-infinity-x", RipsOver(Q_DINF), 1, gens=("x",), conjugate="yxY"),
    known_ends("rips-triangle-2-3-7-x", RipsOver(Q_237), 1, gens=("x",), conjugate="yxY", xfail=(
        "reads 2 (history 2, 2, 2, 2): sphere vertices that relator loops join "
        "beyond the annulus stay apart (ROADMAP item 2)")),
]


@pytest.mark.parametrize("text, gens, probes, want, conjugate, budget, offset, gap", KNOWN_ENDS)
def test_known_end_counts_read_right_or_uncertified(text, gens, probes, want, conjugate,
                                                    budget, offset, gap):
    p, kernel = kernel_pair(text)
    ledger = probes_ledger(probes, gap=gap, offset=offset)

    def count(*texts):
        h = SubgroupSpec(kernel + sub(p, *texts).words)
        try:
            return count_relative_ends(p, h, ledger, probes, node_budget=budget).count
        except UnstableBallError:  # `ends count` reads it as uncertified
            return UNCERTIFIED

    got = count(*gens)
    assert got in (want, UNCERTIFIED)
    if conjugate is not None:
        # e(G, H) = e(G, gHg^-1) whenever both sides certify
        other = count(conjugate)
        assert got == other or UNCERTIFIED in (got, other)


# --- annulus conditions ------------------------------------------------------


def test_double_annulus_fails_on_the_tree(f2, trivial):
    ball = stable_ball(f2, trivial, 5)
    rep = check_ddag(ball, m=2, k=1)
    assert rep.condition == "ddag(M=2,K=1)"
    assert not rep.holds_within_ball
    assert rep.witness_l is None
    assert rep.counterexample == (1, 1, 0)
    assert rep.pairs_checked == 7


def test_double_annulus_fails_on_the_line(zline, trivial):
    ball = stable_ball(zline, trivial, 6)
    rep = check_ddag(ball, m=2, k=1)
    assert not rep.holds_within_ball
    assert rep.counterexample == (1, 1, 0)


def test_double_annulus_holds_on_the_surface(genus2, trivial):
    ball = stable_ball(genus2, trivial, 4)
    rep = check_ddag(ball, m=4, k=1, delta_x=1)
    assert rep.holds_within_ball
    assert rep.witness_l == 2
    assert rep.admissible_rs == (3,)
    assert rep.pairs_checked == 1576


def test_r_cap_trims_the_admissible_range(genus2, trivial):
    ball = stable_ball(genus2, trivial, 4)
    full = check_ddag(ball, m=4, k=1, delta_x=1)
    assert full.admissible_rs == (3,)
    assert check_ddag(ball, m=4, k=1, delta_x=1, r_cap=3).admissible_rs == (3,)
    assert check_ddag(ball, m=4, k=1, r_cap=1).admissible_rs == (1,)


def test_a_ball_too_small_for_any_r_is_a_vacuous_pass(genus2, trivial):
    ball = stable_ball(genus2, trivial, 4)
    rep = check_ddag(ball, m=4, k=1, delta_x=2)  # least R is 5, past radius - K
    assert rep.admissible_rs == ()
    assert rep.holds_within_ball
    assert rep.witness_l == 0


def test_ddag_r_cap_below_every_admissible_r_is_an_error(zline, genus2, trivial):
    # a cap that leaves nothing to test would read as a vacuous pass
    with pytest.raises(ValueError, match="least admissible R = 3"):
        check_ddag(stable_ball(genus2, trivial, 4), m=4, k=1, delta_x=1, r_cap=2)
    with pytest.raises(ValueError, match="least admissible R = 1"):
        check_ddag(stable_ball(zline, trivial, 3), m=2, k=1, r_cap=-5)


def test_dag_r_cap_below_every_admissible_r_is_an_error(f2, trivial):
    with pytest.raises(ValueError, match="least admissible R = 2"):
        check_dag(stable_ball(f2, trivial, 3), m=2, delta_xh=0, r_cap=1)


def test_quotient_annulus_is_vacuous_when_h_is_everything(zline):
    ball = stable_ball(zline, sub(zline, "a"), 4)
    rep = check_dag(ball, m=2, delta_xh=Fraction(1, 8))
    assert rep.condition == "dag(M=2)"
    assert rep.holds_within_ball
    assert rep.witness_l == 0
    assert rep.pairs_checked == 0


def test_quotient_annulus_fails_on_the_collapsed_tree(f2):
    ball = stable_ball(f2, sub(f2, "a"), 5)
    rep = check_dag(ball, m=2, delta_xh=Fraction(1, 8))
    assert not rep.holds_within_ball
    assert rep.counterexample == (3, 9, 10)


# --- in-ball distances and their certification -------------------------------


@pytest.fixture(scope="module")
def tree4(f2):
    return stable_ball(f2, sub(f2), 4)


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
