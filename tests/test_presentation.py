"""Input format, letter encoding, and free-word arithmetic."""

import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relends import (
    ParseError,
    Presentation,
    SubgroupSpec,
    check_small_cancellation,
    cyclic_reduce,
    free_reduce,
    invert,
    parse_file,
    parse_presentation,
    rips_construct,
    stable_ball,
)
from relends.presentation import word_from_text

from conftest import FREE2, GENUS2


def test_parse_generators_and_single_relator():
    p = parse_presentation(GENUS2)
    assert p.generators == ("a", "b", "c", "d")
    assert p.relators == ((0, 2, 1, 3, 4, 6, 5, 7),)


def test_relators_none_means_free():
    p = parse_presentation(FREE2)
    assert p.relators == ()


def test_relator_section_one_word_per_line():
    p = parse_presentation("generators: a b\nrelators:\n  aaa\n  bbb\n")
    assert p.relators == ((0, 0, 0), (2, 2, 2))


def test_inline_relators_read_as_one_word():
    # two relators need a line each
    p = parse_presentation("generators: a b\nrelators: aa bb\n")
    assert p.relators == ((0, 0, 2, 2),)


def test_single_letter_names_concatenate():
    p = parse_presentation("generators: a b\nrelators: none")
    assert p.word_from_text("aBba") == (0, 3, 2, 0)


def test_multi_letter_names_split_on_whitespace():
    p = parse_presentation("generators: g1 g2\nrelators: none")
    w = p.word_from_text("g1 g2 G1")
    assert w == (0, 2, 1)
    assert p.word_to_text(w) == "g1 g2 G1"


def test_empty_word_prints_as_one():
    p = parse_presentation(FREE2)
    assert p.word_to_text(()) == "1"
    assert p.word_from_text("1") == ()


def test_parse_file_inline_subgroup():
    parsed = parse_file("generators: a b\nrelators: none\nsubgroup: a\n")
    assert parsed.subgroup.words == ((0,),)


def test_parse_file_indented_subgroup_entries():
    parsed = parse_file("generators: a b\nrelators: none\nsubgroup:\n  abA\n  bb\n")
    assert parsed.subgroup.words == ((0, 2, 1), (2, 2))


@pytest.mark.parametrize(
    "text",
    [
        "relators: none",
        "generators: a b\nrelators: abz",
        "generators: a A\nrelators: none",
        "generators: a a\nrelators: none",
        "generators: a 0b\nrelators: none",
        "generators:\nrelators: none",
        "generators: a\nstray line\nrelators: none",
    ],
)
def test_bad_inputs_raise_parse_error(text):
    with pytest.raises(ParseError):
        parse_file(text)


# letters are ints: generator i maps to 2i, its inverse to 2i^1
letters = st.integers(min_value=0, max_value=7)
words = st.lists(letters, max_size=30).map(tuple)


@given(words)
def test_free_reduce_is_idempotent(w):
    r = free_reduce(w)
    assert free_reduce(r) == r


@given(words)
def test_free_reduce_preserves_length_parity(w):
    assert (len(w) - len(free_reduce(w))) % 2 == 0


@given(words)
def test_word_times_inverse_reduces_to_nothing(w):
    assert free_reduce(w + invert(w)) == ()


@given(words)
def test_invert_is_an_involution(w):
    assert invert(invert(w)) == w


@given(words, words)
def test_invert_reverses_concatenation(u, v):
    assert invert(u + v) == invert(v) + invert(u)


def test_cyclic_reduce_strips_conjugation():
    w = word_from_text("Aba", ("a", "b"))
    assert cyclic_reduce(w) == (2,)


@given(words)
def test_cyclic_reduce_never_longer(w):
    assert len(cyclic_reduce(w)) <= len(free_reduce(w))


@given(words)
def test_cyclic_reduce_ends_are_not_inverse(w):
    c = cyclic_reduce(w)
    if c:
        assert c[0] != c[-1] ^ 1


def test_round_trip_through_text():
    p = parse_presentation(GENUS2)
    for text in ("abAB", "cdCD", "aA", "1", "dcbaDCBA"):
        w = p.word_from_text(text)
        assert p.word_from_text(p.word_to_text(w)) == w


def test_rips_file_text_is_pinned_and_round_trips():
    # the G file `ends rips` writes over Z2: four generators and nine
    # relators of 965-985 letters, with H's two words; pinned from the writer
    # that named each letter in turn
    out = rips_construct(parse_presentation("generators: x y\nrelators: xyXY\n"))
    text = out.g_presentation.to_text(out.h_generators)
    digest = "c38c6f1ff7ad203aa98e6149b203b42df90ca6a39f758a772fe07248abb18cca"
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    back = parse_file(text)
    assert back.presentation == out.g_presentation
    assert back.subgroup == out.h_generators


def reference_pieces(relators):
    """The symmetrized closure as tuples, and the C'(1/6) fields read off
    it by comparing every pair of its words."""
    sym = sorted({w[i:] + w[:i] for r in relators for w in (r, invert(r))
                  for i in range(len(w))})
    piece = 0
    for u, v in itertools.combinations(sym, 2):
        k = 0
        while k < min(len(u), len(v)) and u[k] == v[k]:
            k += 1
        piece = max(piece, k)
    if not sym:
        return (), (True, 0, 0, True)
    shortest = min(map(len, sym))
    return tuple(sym), (piece < Fraction(shortest, 6), piece, shortest, False)


def assert_pieces_match_the_reference(p):
    sym, fields = reference_pieces(p.relators)
    rep = check_small_cancellation(p)
    assert (rep.passes, rep.max_piece_len, rep.min_relator_len, rep.vacuous) == fields
    assert rep.threshold == Fraction(1, 6)
    assert tuple(tuple(map(ord, r)) for r in p._rotations) == sym


def presentations(n_generators):
    letter = st.integers(0, 2 * n_generators - 1)
    word = st.lists(letter, min_size=1, max_size=12)
    # a power of a short word, whose rotations coincide
    periodic = st.tuples(st.lists(letter, min_size=1, max_size=3), st.integers(2, 4)).map(
        lambda t: t[0] * t[1])
    relator = st.one_of(word, periodic).map(cyclic_reduce).filter(bool)
    # a relator drawn with its inverse, a rotation of it or an exact copy,
    # whose rotations all repeat: the scan's prefixes never come apart, and
    # it falls back to whole rotations
    def twin(t):
        r, i, how = t
        i %= len(r)
        return [r, {"inverse": invert(r), "rotation": r[i:] + r[:i], "copy": r}[how]]

    twins = st.tuples(relator, st.integers(0, 11),
                      st.sampled_from(["inverse", "rotation", "copy"])).map(twin)
    # two relators around one piece longer than a sixth of either, which
    # fails C'(1/6) and makes the scan double its cut
    tail = st.lists(letter, max_size=6)
    shared = st.tuples(st.lists(letter, min_size=3, max_size=8), tail, tail).map(
        lambda t: [cyclic_reduce(t[0] + t[1]), cyclic_reduce(t[0] + t[2])])
    group = st.one_of(relator.map(lambda r: [r]), twins, shared)
    names = tuple("abc"[:n_generators]) if n_generators <= 3 else tuple(
        f"g{i}" for i in range(1, n_generators + 1))
    return st.lists(group, max_size=3).map(
        lambda gs: Presentation(names, tuple(r for g in gs for r in g if r)))


@given(st.sampled_from([1, 2, 3]).flatmap(presentations))
def test_piece_report_matches_a_pairwise_scan(p):
    assert_pieces_match_the_reference(p)


@pytest.mark.parametrize("text", [
    "generators: a b\nrelators:\n  ababab\n  aaaa\n",
    "generators: a b\nrelators: abababab\n",
    "generators: a\nrelators: aaaa\n",
    "generators: a b\nrelators: abABaabb\n",
    # letters 256 to 259 need more than a byte per character
    "generators: " + " ".join(f"g{i}" for i in range(1, 131)) + "\nrelators:\n"
    "  g130 g129 g130 g129 g130 g129\n  g1 g130 g128 G130\n  g129 g129 g129 G1\n",
], ids=["ab3-a4", "ab4", "a4", "abABaabb", "g130"])
def test_piece_report_of_periodic_and_wide_relators(text):
    assert_pieces_match_the_reference(parse_presentation(text))


@given(presentations(130))
def test_piece_report_matches_a_pairwise_scan_past_letter_255(p):
    assert_pieces_match_the_reference(p)


def written_relators(n_generators):
    """Relators as a user may write them: words with cancelling pairs
    planted inside and conjugating letters x ... X around them, and words
    u U that reduce to the identity."""
    letter = st.integers(0, 2 * n_generators - 1)
    word = st.lists(letter, max_size=6)

    def plant(t):
        w, pairs, conjugators = t
        for i, x in pairs:
            i %= len(w) + 1
            w = w[:i] + [x, x ^ 1] + w[i:]
        for x in conjugators:
            w = [x] + w + [x ^ 1]
        return tuple(w)

    pair = st.tuples(st.integers(0, 8), letter)
    planted = st.tuples(word, st.lists(pair, max_size=2), st.lists(letter, max_size=2)).map(plant)
    identity = word.map(lambda u: tuple(u) + invert(u))
    return st.lists(st.one_of(planted, identity), max_size=3).map(
        lambda rels: (tuple("abcdx"[:n_generators]), tuple(rels)))


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([1, 2]).flatmap(written_relators))
# genus 2 with its relator conjugated by a fifth generator: the written word
# has a piece of 2 against a length of 10, the reduced one 1 against 8
@example((tuple("abcdx"), (word_from_text("xabABcdCDX", tuple("abcdx")),)))
def test_relators_are_reduced_however_the_presentation_is_built(drawn):
    names, written = drawn
    reduced = tuple(r for r in map(cyclic_reduce, written) if r)
    p, q = Presentation(names, written), Presentation(names, reduced)
    assert p == q and p.relators == reduced
    assert parse_file(p.to_text()).presentation == p
    rep = check_small_cancellation(p)
    fields = (rep.passes, rep.max_piece_len, rep.min_relator_len, rep.vacuous)
    assert fields == reference_pieces(reduced)[1]
    for radius in range(4):
        assert stable_ball(p, SubgroupSpec(()), radius) == stable_ball(q, SubgroupSpec(()), radius)
