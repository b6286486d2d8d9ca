"""The word problem: Dehn reduction against walks through a bounded ball."""

from functools import cached_property

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relends import (
    ParseError,
    check_small_cancellation,
    dehn_reduce,
    free_reduce,
    invert,
    parse_presentation,
    presentation,
    shortlex_normal_form,
    stable_ball,
)
from relends.cli import run
from relends.presentation import StrategyError

from conftest import GENUS2, TORUS, sub


def test_piece_bound_on_the_surface_relator(genus2):
    rep = check_small_cancellation(genus2)
    assert rep.passes
    assert (rep.max_piece_len, rep.min_relator_len) == (1, 8)
    assert rep.threshold.numerator == 1 and rep.threshold.denominator == 6
    assert not rep.vacuous


def test_commutator_relator_fails_the_piece_bound(torus):
    rep = check_small_cancellation(torus)
    assert not rep.passes
    assert (rep.max_piece_len, rep.min_relator_len) == (1, 4)


def test_no_relators_is_vacuously_small_cancellation(f2):
    rep = check_small_cancellation(f2)
    assert rep.passes and rep.vacuous


def test_dehn_scans_pieces_once_per_presentation(monkeypatch):
    # the piece scan runs once and cuts the rotations once (genus 2's
    # 2-letter prefixes are already distinct); Dehn's algorithm builds the
    # whole closure once, however many words it reduces
    calls = {"_scan_pieces": 0, "_rotation_strings": 0}

    def counted(name):
        original = getattr(presentation, name)

        def call(*args):
            calls[name] += 1
            return original(*args)

        return call

    for name in calls:
        monkeypatch.setattr(presentation, name, counted(name))
    p = parse_presentation(GENUS2)
    for text in ("abABcdCD", "abABc", "dabABcdCDD"):
        dehn_reduce(p.word_from_text(text), p)
    assert check_small_cancellation(p).passes
    assert calls == {"_scan_pieces": 1, "_rotation_strings": 2}


@pytest.mark.parametrize("cache", ["_rotations", "_small_cancellation"])
def test_caches_cannot_be_forged_through_the_constructor(torus, cache):
    # a forged empty closure would pass C'(1/6) vacuously and send the
    # torus to Dehn's algorithm; any unknown keyword raises TypeError, so
    # first make sure the name is a cache at all
    assert isinstance(presentation.Presentation.__dict__[cache], cached_property)
    with pytest.raises(TypeError):
        presentation.Presentation(torus.generators, torus.relators, **{cache: ()})


def test_dehn_kills_the_relator(genus2):
    assert dehn_reduce(genus2.word_from_text("abABcdCD"), genus2) == ()


def test_dehn_replaces_a_majority_piece(genus2):
    # five of the eight relator letters: the complement's inverse is shorter
    out = dehn_reduce(genus2.word_from_text("abABc"), genus2)
    assert genus2.word_to_text(out) == "dcD"


def test_dehn_sees_through_conjugation(genus2):
    assert dehn_reduce(genus2.word_from_text("dabABcdCDD"), genus2) == ()


@pytest.fixture(
    scope="module",
    params=["generators: x y\nrelators: none\n", "generators: x y\nrelators: xyXY\n"],
    ids=["q-f2", "q-z2"],
)
def rips_g(request):
    """A Rips group over Q: relators of 480 to 985 letters."""
    from relends import parse_presentation, rips_construct

    return rips_construct(parse_presentation(request.param)).g_presentation


def test_dehn_kills_long_relators_and_their_conjugates(rips_g):
    g = rips_g
    u = g.word_from_text("x a Y b")
    rs = g.relators
    for r in rs:
        for w in (r, invert(r), u + r + invert(u)):
            assert dehn_reduce(w, g) == ()
    # a product of two conjugates needs a rewrite inside the word
    assert dehn_reduce(u + rs[0] + invert(u) + rs[-1], g) == ()


def test_dehn_rewrites_a_long_majority_piece(rips_g):
    for r in rips_g.relators:
        k = len(r) // 2 + 1
        assert dehn_reduce(r[:k], rips_g) == invert(r[k:])
        assert dehn_reduce(r[: k - 1], rips_g) == r[: k - 1]


def test_dehn_refuses_thick_presentations(torus):
    with pytest.raises(StrategyError):
        dehn_reduce(torus.word_from_text("abAB"), torus)


def test_identity_checks_on_the_surface_group(genus2):
    assert dehn_reduce(genus2.word_from_text("abABcdCD"), genus2) == ()
    assert dehn_reduce((), genus2) == ()
    assert dehn_reduce(genus2.word_from_text("ab"), genus2) != ()


def test_bfs_decides_the_commutator(torus):
    ball = stable_ball(torus, sub(torus), 4, max_slack=8)
    assert shortlex_normal_form(torus.word_from_text("abAB"), ball) == ()
    assert shortlex_normal_form(torus.word_from_text("ab"), ball) != ()


@pytest.mark.parametrize("letter", [-1, 4])
def test_shortlex_normal_form_refuses_letters_outside_the_alphabet(torus, letter):
    # the torus has letters 0 to 3; -1 would read the last column
    ball = stable_ball(torus, sub(torus), 2, max_slack=10)
    with pytest.raises(ParseError, match=f"word letter {letter} outside alphabet"):
        shortlex_normal_form((letter,), ball)


@pytest.mark.parametrize("letter", [9, -1])
def test_dehn_reduce_refuses_letters_outside_the_alphabet(genus2, letter):
    # genus 2 has letters 0 to 7
    with pytest.raises(ParseError, match=f"word letter {letter} outside alphabet"):
        dehn_reduce((letter,), genus2)


def cli_ball(tmp_path, text, *flags):
    path = tmp_path / "g.grp"
    path.write_text(text)
    return run(["ball", str(path), *flags])


def test_bfs_gives_up_beyond_its_radius(tmp_path, capsys):
    # a radius-40 ball lies past the cap of 12
    assert cli_ball(tmp_path, TORUS, "--radius", "40", "--strategy", "bounded-bfs",
                    "--radius-cap", "12") == 2
    assert "radius_cap 12 is below the requested radius 40" in capsys.readouterr().err


def test_bfs_gives_up_when_the_cap_leaves_the_ball_unstable(tmp_path, capsys):
    # this ball at radius 2 needs slack 1; a cap of 2 allows none, and the
    # error names the slack at the cap
    assert cli_ball(tmp_path, "generators: a b\nrelators: bbabbb\n", "--radius", "2",
                    "--strategy", "bounded-bfs", "--radius-cap", "2") == 2
    assert "closure did not stabilize by slack 0" in capsys.readouterr().err


def reduced_words(n_letters, upto):
    words = [()]
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


def test_dehn_and_bfs_agree_on_every_short_word(genus2):
    """Exhaustive sweep over the 22409 reduced words of length at most 5.

    The shortest nontrivial identity is the length-8 relator, so exactly
    one word here (the empty one) reduces to 1; what matters is that both
    deciders return the same bit on all of them.
    """
    words = reduced_words(8, 5)
    assert len(words) == 22409
    ball = stable_ball(genus2, sub(genus2), 5, max_slack=4)
    identities = 0
    for w in words:
        a = dehn_reduce(w, genus2) == ()
        assert a == (shortlex_normal_form(w, ball) == ()), w
        identities += a
    assert identities == 1


letters8 = st.integers(min_value=0, max_value=7)
words8 = st.lists(letters8, max_size=12).map(tuple)


@given(words8)
def test_dehn_on_free_groups_is_free_reduction(w):
    from relends import parse_presentation

    free4 = parse_presentation("generators: a b c d\nrelators: none")
    assert dehn_reduce(w, free4) == free_reduce(w)


@given(words8)
def test_dehn_output_is_never_longer(w):
    from relends import parse_presentation

    g2 = parse_presentation("generators: a b c d\nrelators: abABcdCD")
    assert len(dehn_reduce(w, g2)) <= len(w)


def test_shortlex_normal_form_inside_the_ball(f2):
    ball = stable_ball(f2, sub(f2), 3)
    assert shortlex_normal_form(f2.word_from_text("aA"), ball) == ()
    w = f2.word_from_text("abb")
    assert shortlex_normal_form(w, ball) == w


def test_shortlex_normal_form_needs_the_whole_walk(f2):
    ball = stable_ball(f2, sub(f2), 2)
    with pytest.raises(ValueError):
        shortlex_normal_form(f2.word_from_text("abb"), ball)
