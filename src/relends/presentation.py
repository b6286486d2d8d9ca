"""Group presentations, words, the small cancellation checker, and Dehn's
algorithm for the presentations that pass it.

A word is a tuple of integer letters: generator i contributes the positive
letter 2*i and its formal inverse 2*i+1, so inverting a letter is xor with 1.
In text form a generator is a single ASCII letter (inverse = uppercase) or an
indexed name g1, g2, ... (inverse = G1, G2, ...), whitespace-separated.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

Word = tuple[int, ...]


class ParseError(ValueError):
    """Raised on malformed presentation text or unknown symbols."""


class StrategyError(ValueError):
    """Dehn's algorithm does not apply to this presentation."""


def invert(word: Sequence[int]) -> Word:
    """Formal inverse: reverse the word and invert every letter."""
    return tuple(x ^ 1 for x in reversed(word))


def free_reduce(word: Iterable[int]) -> Word:
    """Cancel adjacent inverse pairs until none remain.

    Idempotent and length-nonincreasing; the empty tuple is the identity.
    """
    out: list[int] = []
    for x in word:
        if out and out[-1] == x ^ 1:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def cyclic_reduce(word: Sequence[int]) -> Word:
    """Freely reduce, then strip cancelling first/last letter pairs."""
    w = list(free_reduce(word))
    while len(w) >= 2 and w[0] == w[-1] ^ 1:
        w = w[1:-1]
    return tuple(w)


def _text(word: Sequence[int]) -> str:
    """A word as a string of one character chr(x) per letter x."""
    return "".join(map(chr, word))


def _rotation_strings(relators: Iterable[Sequence[int]], k: int | None = None) -> list[str]:
    """The cyclic rotations of each relator and of its inverse, each cut to
    its first k letters (None: kept whole), deduplicated and sorted, as
    _text strings.

    Code-point order is tuple order, so the sort is the words' sort.  A
    string takes a byte or two per letter where a tuple takes eight.  The
    list is sorted before it is deduplicated: in the order they are cut in,
    the rotations come in partly sorted runs, which sort faster than a
    set's order.
    """
    cut: list[str] = []
    for r in relators:
        for w in (r, invert(r)):
            s = _text(w)
            n = len(s) if k is None else min(k, len(s))
            ss = s + s[: n - 1]
            cut += [ss[i : i + n] for i in range(len(s))]
    return list(dict.fromkeys(sorted(cut)))


def _common_prefix(a: str, b: str, lo: int = 0) -> int:
    """Length of the common prefix of a and b, whose first lo characters the
    caller knows to agree: a bisection over slice comparisons."""
    hi = min(len(a), len(b))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[:mid] == b[:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _letter_names(names: Sequence[str]) -> list[str]:
    """The text of every letter: its generator's name, capitalized for the
    inverse."""
    return [s for n in names for s in (n, n[0].upper() + n[1:])]


def _is_single_letter_alphabet(names: Sequence[str]) -> bool:
    return all(len(n) == 1 for n in names)


def _check_generator_names(names: Sequence[str]) -> None:
    if not names:
        raise ParseError("empty generator list")
    for n in names:
        if len(n) == 1:
            if not (n.isascii() and n.isalpha() and n.islower()):
                raise ParseError(f"bad generator name {n!r}: single names must be lowercase ASCII letters")
        else:
            if not (n[0] == "g" and n[1:].isdigit()):
                raise ParseError(f"bad generator name {n!r}: use a single letter or g1, g2, ...")
    if len(set(names)) != len(names):
        raise ParseError("duplicate generator name")


@dataclass(frozen=True)
class Presentation:
    """A finite presentation: generator names plus cyclically reduced relators.

    Relators are freely and cyclically reduced on construction, however
    the presentation is built, and those that reduce to the identity are
    dropped; no other module reduces them.  The C'(1/6) report and the
    symmetrized closure (the rotations of every relator and of its inverse,
    as the sorted strings of _rotation_strings) are each computed once, on
    first use.  The report reads rotation
    prefixes only, so the closure is built only for Dehn's algorithm.
    """

    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self) -> None:
        _check_generator_names(self.generators)
        self.check_letters(self.relators, "relator")
        reduced = tuple(r for r in map(cyclic_reduce, self.relators) if r)
        object.__setattr__(self, "relators", reduced)

    @property
    def n_generators(self) -> int:
        return len(self.generators)

    @property
    def n_letters(self) -> int:
        return 2 * len(self.generators)

    def check_letters(self, words: Iterable[Sequence[int]], what: str) -> None:
        """Raise ParseError unless every letter of words is in the alphabet."""
        n = self.n_letters
        for w in words:
            if w and not (0 <= min(w) and max(w) < n):
                x = next(x for x in w if not 0 <= x < n)
                raise ParseError(f"{what} letter {x} outside alphabet")

    @cached_property
    def _rotations(self) -> list[str]:
        return _rotation_strings(self.relators)

    @cached_property
    def _small_cancellation(self) -> SmallCancellationReport:
        return _scan_pieces(self.relators)

    def word_to_text(self, word: Sequence[int]) -> str:
        if not word:
            return "1"
        sep = "" if _is_single_letter_alphabet(self.generators) else " "
        names = _letter_names(self.generators)
        return sep.join([names[x] for x in word])

    def word_from_text(self, text: str) -> Word:
        return word_from_text(text, self.generators)

    def to_text(self, subgroup: "SubgroupSpec | None" = None) -> str:
        """Canonical file form; parse_file inverts this exactly."""
        lines = ["generators: " + " ".join(self.generators)]
        if self.relators:
            lines.append("relators:")
            lines.extend("  " + self.word_to_text(r) for r in self.relators)
        else:
            lines.append("relators: none")
        if subgroup is not None and subgroup.words:
            lines.append("subgroup:")
            lines.extend("  " + self.word_to_text(w) for w in subgroup.words)
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SubgroupSpec:
    """Subgroup generators as words in the ambient alphabet.

    Words are freely reduced on construction; reductions to the identity are
    dropped (they generate nothing).
    """

    words: tuple[Word, ...]

    def __post_init__(self) -> None:
        reduced = tuple(w for w in (free_reduce(w) for w in self.words) if w)
        object.__setattr__(self, "words", reduced)


def word_from_text(text: str, names: Sequence[str]) -> Word:
    """Parse a word; uppercase (or G<k>) means inverse.  "1" is the identity."""
    text = text.strip()
    if text in ("", "1"):
        return ()
    letters = {s: x for x, s in enumerate(_letter_names(names))}
    if _is_single_letter_alphabet(names):
        tokens = "".join(text.split())
    else:
        tokens = text.split()
    try:
        return tuple([letters[tok] for tok in tokens])
    except KeyError as e:
        raise ParseError(f"unknown generator symbol {e.args[0]!r}") from None


def _content_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if line.strip():
            out.append(line)
    return out


@dataclass(frozen=True)
class ParsedInput:
    presentation: Presentation
    subgroup: SubgroupSpec


def parse_file(text: str) -> ParsedInput:
    """Parse a presentation file: generators, relators, optional subgroup.

    One word per entry: inline after the section head, or one per following
    line.  The words are read as written: Presentation reduces the relators
    (freely and cyclically, dropping identities) and SubgroupSpec the
    subgroup words (freely, dropping identities).  A missing subgroup
    section means the trivial subgroup.
    """
    lines = _content_lines(text)
    if not lines or not lines[0].lstrip().startswith("generators:"):
        raise ParseError("first line must be 'generators: ...'")
    names = tuple(lines[0].split(":", 1)[1].split())
    _check_generator_names(names)

    sections: dict[str, list[str]] = {"relators": [], "subgroup": []}
    current: str | None = None
    for line in lines[1:]:
        stripped = line.strip()
        head, sep, rest = stripped.partition(":")
        if sep and head in sections:
            current = head
            rest = rest.strip()
            if rest and rest not in ("none", "(none)"):
                sections[current].append(rest)
            continue
        if current is None:
            raise ParseError(f"unexpected line before any section: {line!r}")
        sections[current].append(stripped)

    relators = tuple(word_from_text(t, names) for t in sections["relators"])
    subgroup_words = tuple(word_from_text(t, names) for t in sections["subgroup"])
    return ParsedInput(Presentation(names, relators), SubgroupSpec(subgroup_words))


def parse_presentation(text: str) -> Presentation:
    """Parse just the presentation part; a subgroup section, if any, is ignored."""
    return parse_file(text).presentation


@dataclass(frozen=True)
class SmallCancellationReport:
    passes: bool
    max_piece_len: int
    min_relator_len: int
    vacuous: bool
    threshold: Fraction


def check_small_cancellation(p: Presentation) -> SmallCancellationReport:
    """C'(1/6) check: every piece shorter than a sixth of the relator length.

    A piece is a maximal common prefix of two distinct symmetrized relators.
    The maximum over all pairs is attained by a lexicographically adjacent
    pair, so one sort replaces the quadratic prefix scan; the sort reads
    bounded rotation prefixes, not whole rotations (_scan_pieces).  No
    relators is a vacuous pass.  The scan runs once per presentation.
    """
    return p._small_cancellation


def _scan_pieces(relators: Sequence[Word]) -> SmallCancellationReport:
    """The C'(1/6) report, read off sorted rotation prefixes.

    The prefixes are _rotation_strings cut at k letters.  k starts just
    above a sixth of the shortest relator and doubles while two rotations
    share a k-prefix, until the prefixes are distinct or k reaches the
    longest relator, where every prefix is a whole rotation and the dedup
    is exact.  Either way the prefixes stand one to one for the distinct
    rotations and sort as they do, and two of them share exactly what their
    rotations share: fewer than k letters, or the whole of a rotation
    shorter than k that begins the other.
    """
    lam = Fraction(1, 6)
    if not relators:
        return SmallCancellationReport(True, 0, 0, True, lam)
    min_len = min(map(len, relators))
    longest = max(map(len, relators))
    n_rotations = 2 * sum(map(len, relators))
    k = min_len // 6 + 1
    sym = _rotation_strings(relators, k)
    while len(sym) < n_rotations and k < longest:
        k *= 2
        sym = _rotation_strings(relators, k)
    max_piece = 0
    for a, b in zip(sym, sym[1:]):
        # a prefix no longer than the longest piece so far cannot raise it
        if a[:max_piece] == b[:max_piece]:
            max_piece = _common_prefix(a, b, max_piece)
    passes = max_piece < lam * min_len
    return SmallCancellationReport(passes, max_piece, min_len, False, lam)


def dehn_reduce(w: Word, p: Presentation) -> Word:
    """Dehn-irreducible form of w; empty iff w is trivial (C'(1/6) only).

    Rewrites the leftmost subword that is more than half of a symmetrized
    relator, then starts over; on a C'(1/6) presentation the empty word is
    reached exactly for trivial elements.  At most one relator matches more
    than half of itself at a position: two would share a prefix longer
    than any piece.  That relator shares the longest prefix with the rest
    of the word, so in the sorted closure (p._rotations) it sits next to
    the word's insertion point.  The word is searched as _text too; only
    the replaced piece goes back to letters.  Each replacement strictly
    shortens the word (the threshold 2|u| > |r| is strict), so the loop
    terminates.  A letter outside p's alphabet raises ParseError.
    """
    p.check_letters((w,), "word")
    if not check_small_cancellation(p).passes:
        raise StrategyError("Dehn's algorithm needs a C'(1/6) presentation")
    sym = p._rotations
    max_len = max(map(len, sym), default=0)
    word = free_reduce(w)
    text = _text(word)
    i = 0
    while i < len(word):
        window = text[i : i + max_len]
        j = bisect_left(sym, window)
        for r in sym[max(j - 1, 0) : j + 1]:
            k = _common_prefix(window, r)
            if 2 * k > len(r):
                piece = invert(tuple(map(ord, r[k:])))
                word = free_reduce(word[:i] + piece + word[i + k :])
                text = _text(word)
                i = 0  # leftmost first: rescan from the start
                break
        else:
            i += 1
    return word
