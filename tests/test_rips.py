"""Small cancellation quotient construction and its self-verification."""

import dataclasses
import random

import pytest

from relends import (
    Presentation,
    check_small_cancellation,
    graphs_isomorphic,
    parse_presentation,
    rips_construct,
    stable_ball,
    verify_rips,
)
from relends.rips import _fresh_names, _kill_a_letters

TRIVIAL_Q = "generators: x\nrelators: x\n"
ORDER2_Q = "generators: x b\nrelators:\n  x\n  bb\n"
ORDER3_Q = "generators: x b\nrelators:\n  x\n  bbb\n"


@pytest.fixture(scope="module")
def built():
    return rips_construct(parse_presentation(TRIVIAL_Q))


def test_construction_adds_two_letters(built):
    assert built.g_presentation.generators == ("x", "a", "b")
    assert len(built.h_generators.words) == 2
    assert built.q_presentation.generators == ("x",)


def test_default_block_length_suffices_for_the_point_group(built):
    assert built.block_length == 480
    assert len(built.g_presentation.relators) == 5
    assert max(len(r) for r in built.g_presentation.relators) == 489


def test_verification_passes(built):
    rep = verify_rips(built)
    assert rep.small_cancellation.passes
    assert rep.small_cancellation.max_piece_len == 48
    assert rep.small_cancellation.min_relator_len == 481
    assert rep.quotient_recovered
    assert rep.conjugators_formal


@pytest.mark.parametrize("text, fields", [
    ("generators: x y\nrelators: none\n", (True, 60, 483)),
    ("generators: x y\nrelators: xyXY\n", (True, 78, 965)),
    (TRIVIAL_Q, (True, 48, 481)),
], ids=["f2", "z2", "point"])
def test_piece_reports_of_the_constructions(text, fields):
    g = rips_construct(parse_presentation(text)).g_presentation
    # a fresh presentation, so that the check runs again on the relators
    rep = check_small_cancellation(Presentation(g.generators, g.relators))
    assert (rep.passes, rep.max_piece_len, rep.min_relator_len) == fields


def test_the_check_on_rips_output_builds_no_whole_rotation():
    # the piece scan reads rotation prefixes; the whole closure is built
    # only when Dehn's algorithm runs
    g = rips_construct(parse_presentation("generators: x y\nrelators: xyXY\n")).g_presentation
    assert check_small_cancellation(g).passes
    assert "_rotations" not in g.__dict__


@pytest.mark.parametrize("text", [ORDER2_Q, ORDER3_Q])
def test_finite_quotients_verify_too(text):
    out = rips_construct(parse_presentation(text))
    assert out.block_length == 962
    assert len(out.g_presentation.relators) == 10
    rep = verify_rips(out)
    assert rep.small_cancellation.passes
    assert rep.small_cancellation.max_piece_len == 78
    assert rep.small_cancellation.min_relator_len == 965
    assert rep.quotient_recovered
    assert rep.conjugators_formal


def test_losing_a_block_breaks_recovery(built):
    g = built.g_presentation
    bad = dataclasses.replace(
        built, g_presentation=Presentation(g.generators, g.relators[1:])
    )
    rep = verify_rips(bad)
    assert not rep.quotient_recovered


def test_mangling_a_conjugation_relator_is_caught(built):
    g = built.g_presentation
    idx = next(
        i
        for i, r in enumerate(g.relators)
        if any(x < 2 for x in r) and not _kill_a_letters(r, 2)
    )
    relators = list(g.relators)
    relators[idx] = relators[idx][:3]  # too short to spell x w x^-1 * tail
    bad = dataclasses.replace(
        built, g_presentation=Presentation(g.generators, tuple(relators))
    )
    rep = verify_rips(bad)
    assert not rep.conjugators_formal


def test_a_relator_of_a_letters_only_is_caught(built):
    g = built.g_presentation
    a1 = 2 * built.q_presentation.n_generators
    bad = dataclasses.replace(
        built, g_presentation=Presentation(g.generators, g.relators + ((a1, a1 + 2),))
    )
    rep = verify_rips(bad)
    assert rep.quotient_recovered
    assert not rep.conjugators_formal


def test_small_blocks_escalate_until_the_bound_holds():
    out = rips_construct(parse_presentation(TRIVIAL_Q), block_length=8)
    assert out.block_length == 513
    assert verify_rips(out).small_cancellation.passes


def test_a_failed_check_raises_without_a_retry(monkeypatch):
    seen = []

    def failing(g):
        seen.append(g)
        return dataclasses.replace(check_small_cancellation(g), passes=False)

    monkeypatch.setattr("relends.rips.check_small_cancellation", failing)
    with pytest.raises(RuntimeError, match="C'\\(1/6\\) fails at block length 512"):
        rips_construct(parse_presentation(TRIVIAL_Q), block_length=8)
    assert len(seen) == 1


def _seeded_quotients():
    rng = random.Random(36)
    for _ in range(35):
        n = rng.randint(1, 5)
        relators = tuple(
            tuple(rng.randrange(2 * n) for _ in range(rng.randint(1, 14)))
            for _ in range(rng.randint(0, 3))
        )
        block_length = rng.choice((8, 9, 12, 16, 24, 40, 64))
        yield Presentation(tuple("xyzuv"[:n]), relators), block_length


@pytest.mark.parametrize("q, block_length", [
    (parse_presentation("generators: a b c\nrelators: abAB\n"), 8),
    *_seeded_quotients(),
])
def test_every_quotient_constructs_and_verifies(q, block_length):
    # the block length is doubled until the piece bound fits, with no cap
    # on the doublings; ⟨a, b, c | abAB⟩ at 8 needs seven of them
    out = rips_construct(q, block_length=block_length)
    assert out.block_length >= block_length
    assert verify_rips(out).passes


def test_fresh_names_fall_back_to_numbered_names():
    # with one letter left free, the fresh generators are numbered
    letters = tuple("bcdefghijklmnopqrstuvwxyz")
    assert _fresh_names(letters) == ("g1", "g2")
    assert _fresh_names(letters + ("g1",)) == ("g2", "g3")


def test_kernel_subgroup_collapses_the_quotient_ball(built):
    """Mod out the two fresh letters and the point group reappears."""
    from relends import restrict_to_generators
    from relends.presentation import SubgroupSpec

    ball = stable_ball(built.g_presentation, built.h_generators, 2)
    q_ball = stable_ball(built.q_presentation, SubgroupSpec(()), 2, 0, 0)
    assert ball.n_vertices == 1
    assert q_ball.n_vertices == 1
    assert graphs_isomorphic(restrict_to_generators(ball, ("x",)), q_ball)
