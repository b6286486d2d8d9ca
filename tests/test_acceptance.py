"""Acceptance suite: one test per criterion, one verdict line per run.

Run with `pytest tests/test_acceptance.py -v` to get a single PASSED or
FAILED line per criterion.  The heavyweight genus-2 quotient ball is built
once and shared; everything else budgets its own time and asserts the
wall-clock bound it promises.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from relends import (
    INFINITE,
    check_dag,
    check_ddag,
    count_relative_ends,
    derive_certified,
    empirical_ends,
    empirical_ledger,
    enumerate_cosets,
    free_reduce,
    free_schreier_ball,
    graphs_isomorphic,
    parse_presentation,
    restrict_to_generators,
    rips_construct,
    stable_ball,
    stallings_fold,
    verify_rips,
)
from relends.cli import run
from relends.presentation import SubgroupSpec

from conftest import FREE2, GENUS2, LINE, SURFACE_BUDGET, TRIVIAL_Q_TEXT, sub


@pytest.fixture(scope="module")
def surface_quotient_ball(genus2):
    """Genus-2 modulo the a-axis, radius 6: shared by criteria 3, 4 and 6."""
    return stable_ball(genus2, sub(genus2, "a"), 6, node_budget=SURFACE_BUDGET)


def _probes_ledger(probes):
    return empirical_ledger(
        r0=probes[-1], inner_offset=Fraction(3), outer_radius=probes[-1] + 1
    )


# --- criterion 1 -------------------------------------------------------------


def _reduced_words(n_letters, upto):
    words = []
    frontier = [()]
    for _ in range(upto):
        nxt = []
        for w in frontier:
            for x in range(n_letters):
                if w and x == w[-1] ^ 1:
                    continue
                nxt.append(w + (x,))
        words += nxt
        frontier = nxt
    return words


def _inv_norm(w):
    return min(w, tuple(x ^ 1 for x in reversed(w)))


def _signed_image(w, swap, flip_a, flip_b):
    out = []
    for x in w:
        g, s = x >> 1, x & 1
        if swap:
            g ^= 1
        if (g == 0 and flip_a) or (g == 1 and flip_b):
            s ^= 1
        out.append(2 * g + s)
    return tuple(out)


def _spec_family(budget):
    """Every multiset of distinct inversion-normalized reduced words.

    Ordered tuples of raw generator words collapse heavily: reordering,
    freely reducing, inverting a generator, or repeating one never changes
    the subgroup, so one representative per multiset covers them all.
    """
    candidates = sorted({_inv_norm(w) for w in _reduced_words(4, budget)})
    family = [()]

    def extend(prefix, start, room):
        for i in range(start, len(candidates)):
            w = candidates[i]
            if len(w) > room:
                continue
            spec = prefix + (w,)
            family.append(spec)
            extend(spec, i + 1, room - len(w))

    extend((), 0, budget)
    return family


def _canonical_class(spec):
    # relabeling the two free generators (swap, invert either) is a graph
    # isomorphism on both pipelines, so one orbit representative suffices
    return min(
        tuple(
            sorted(
                _inv_norm(free_reduce(_signed_image(w, swap, fa, fb))) for w in spec
            )
        )
        for swap, fa, fb in itertools.product((0, 1), repeat=3)
    )


def test_criterion_1_enumerator_matches_the_free_oracle(f2):
    started = time.perf_counter()
    family = _spec_family(8)
    assert len(family) == 29784

    classes = {}
    for spec in family:
        classes.setdefault(_canonical_class(spec), spec)
    assert len(classes) == 4103

    def check(spec):
        h = SubgroupSpec(spec)
        core = stallings_fold(f2, h)
        for radius in range(6):
            got = enumerate_cosets(f2, h, radius)
            assert got.stable, (spec, radius)
            assert graphs_isomorphic(got, free_schreier_ball(core, radius)), (
                spec,
                radius,
            )

    for spec in classes.values():
        check(spec)
    # verbatim draws from the full family guard the orbit reduction itself
    for spec in random.Random(20260816).sample(family, 250):
        check(spec)

    assert time.perf_counter() - started < 60.0


# --- criterion 2 -------------------------------------------------------------


def test_criterion_2_degenerate_counts(zline, f2, trivial):
    probes = [2, 3, 4, 5]
    for p, h, expected in [
        (zline, sub(zline, "a"), 0),
        (zline, trivial, 2),
        (f2, trivial, INFINITE),
    ]:
        started = time.perf_counter()
        report = count_relative_ends(p, h, _probes_ledger(probes), probes)
        assert report.count == expected
        assert time.perf_counter() - started < 1.0


# --- criterion 3 -------------------------------------------------------------


def test_criterion_3_surface_counts_with_empirical_cross_check(
    genus2, trivial, surface_quotient_ball
):
    started = time.perf_counter()
    probes = [2, 3, 4, 5]

    whole = count_relative_ends(
        genus2, trivial, _probes_ledger(probes), probes, node_budget=SURFACE_BUDGET
    )
    assert whole.count == 1
    assert whole.class_history == (1, 1, 1, 1)

    relative = count_relative_ends(
        genus2,
        sub(genus2, "a"),
        _probes_ledger(probes),
        probes,
        node_budget=SURFACE_BUDGET,
    )
    assert relative.count == 2
    assert relative.class_history == (2, 2, 2, 2)

    independent = empirical_ends(surface_quotient_ball, [0, 1, 2])
    assert independent.counts == (2, 2, 2)
    assert independent.verdict == relative.count

    assert time.perf_counter() - started < 300.0


# --- criterion 4 -------------------------------------------------------------


def test_criterion_4_counters_agree_wherever_both_stabilize(
    zline, f2, genus2, trivial, surface_quotient_ball
):
    instances = [
        (zline, trivial, stable_ball(zline, trivial, 5), [1, 2, 3]),
        (zline, sub(zline, "a"), stable_ball(zline, sub(zline, "a"), 4), [1, 2, 3]),
        # skip past the lone coset at distance 1, after which nothing is left
        (zline, sub(zline, "aa"), stable_ball(zline, sub(zline, "aa"), 4), [2, 3, 4]),
        (f2, trivial, stable_ball(f2, trivial, 4), [1, 2, 3]),
        (genus2, sub(genus2, "a"), surface_quotient_ball, [1, 2, 3]),
    ]
    compared = 0
    for p, h, ball, probes in instances:
        counted = count_relative_ends(p, h, _probes_ledger(probes), probes).count
        observed = empirical_ends(ball, [0, 1, 2]).verdict
        if isinstance(counted, int) and isinstance(observed, int):
            assert counted == observed, (p.generators, h.words)
            compared += 1
    assert compared == 4  # the free group diverges on both counters


# --- criterion 5 -------------------------------------------------------------


def test_criterion_5_constants_golden_values():
    led = derive_certified(1, 0, 1, 1, 0)
    assert led.alpha == 232
    assert led.delta_xh == 529
    assert led.m == 22751
    assert led.r0 == 23280


# --- criterion 6 -------------------------------------------------------------


def test_criterion_6_annulus_conditions(zline, f2, genus2, trivial, surface_quotient_ball):
    started = time.perf_counter()

    on_tree = check_ddag(stable_ball(f2, trivial, 5), m=2, k=1)
    assert not on_tree.holds_within_ball
    assert on_tree.counterexample == (1, 1, 0)

    on_line = check_ddag(stable_ball(zline, trivial, 6), m=2, k=1)
    assert not on_line.holds_within_ball
    assert on_line.counterexample == (1, 1, 0)

    on_surface = check_ddag(stable_ball(genus2, trivial, 4), m=4, k=1, delta_x=1)
    assert on_surface.holds_within_ball
    assert on_surface.witness_l == 2

    quotient_tree = check_dag(stable_ball(f2, sub(f2, "a"), 5), m=2, delta_xh=Fraction(1, 8))
    assert not quotient_tree.holds_within_ball
    assert quotient_tree.counterexample == (3, 9, 10)

    # spheres hard against the rim have no room for an avoiding path, so
    # the cap keeps the test inside the region the truncation certifies
    quotient_surface = check_dag(
        surface_quotient_ball, m=2, delta_xh=Fraction(1, 8), r_cap=3
    )
    assert quotient_surface.holds_within_ball
    assert quotient_surface.witness_l == 36
    assert quotient_surface.pairs_checked == 888

    assert time.perf_counter() - started < 60.0


# --- criterion 7 -------------------------------------------------------------


def test_criterion_7_rips_pipeline():
    started = time.perf_counter()
    patterns = [
        TRIVIAL_Q_TEXT,
        "generators: x b\nrelators:\n  x\n  bb\n",
        "generators: x b\nrelators:\n  x\n  bbb\n",
    ]
    for text in patterns:
        out = rips_construct(parse_presentation(text))
        report = verify_rips(out)
        assert report.small_cancellation.passes, text
        assert report.quotient_recovered, text
        assert report.conjugators_formal, text

    out = rips_construct(parse_presentation(TRIVIAL_Q_TEXT))
    for radius in (0, 1, 2):
        kernel_ball = stable_ball(out.g_presentation, out.h_generators, radius)
        q_ball = stable_ball(out.q_presentation, SubgroupSpec(()), radius, 0, 0)
        assert graphs_isomorphic(restrict_to_generators(kernel_ball, ("x",)), q_ball)

    assert time.perf_counter() - started < 60.0


# --- criterion 8 -------------------------------------------------------------


def test_criterion_8_reports_are_byte_identical(tmp_path):
    src = tmp_path / "z.grp"
    src.write_text(LINE)

    def one_run(path):
        assert (
            run(["count", str(src), "--probe-r0", "2,3,4,5", "--json", str(path)]) == 0
        )
        return path.read_bytes()

    first = one_run(tmp_path / "one.json")
    second = one_run(tmp_path / "two.json")
    assert first == second
    assert json.loads(first)["verdict"] == 2
