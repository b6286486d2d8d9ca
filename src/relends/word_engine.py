"""Word problem: Dehn's algorithm for C'(1/6) presentations, bounded BFS else.

Dehn reduction replaces any subword that is strictly more than half of a
symmetrized relator by the inverse of the complement; on a C'(1/6)
presentation the empty word is reached exactly for trivial elements.  For
everything else a Cayley ball of bounded radius decides equality by vertex
identity, erring out loudly when the bound is too small to answer.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

from .presentation import (
    Presentation,
    Word,
    check_small_cancellation,
    free_reduce,
    invert,
)


class StrategyError(ValueError):
    """The chosen word-problem strategy does not apply to this presentation."""


class UndecidedWithinBound(RuntimeError):
    """Bounded BFS exhausted its radius cap without settling the question."""


@dataclass(frozen=True)
class WordProblemStrategy:
    kind: str  # dehn | bounded_bfs
    radius_cap: int | None = None

    def __post_init__(self):
        if self.kind not in ("dehn", "bounded_bfs"):
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.kind == "bounded_bfs":
            if self.radius_cap is None or self.radius_cap < 1:
                raise ValueError("bounded_bfs needs a positive radius_cap")


def choose_strategy(p: Presentation, radius_cap: int = 12) -> WordProblemStrategy:
    """Dehn whenever C'(1/6) holds, bounded BFS otherwise."""
    if check_small_cancellation(p).passes:
        return WordProblemStrategy("dehn")
    return WordProblemStrategy("bounded_bfs", radius_cap=radius_cap)


def dehn_reduce(w: Word, p: Presentation) -> Word:
    """Dehn-irreducible form of w; empty iff w is trivial (C'(1/6) only).

    Rewrites the leftmost subword that is more than half of a symmetrized
    relator, then starts over.  Under C'(1/6) at most one relator matches
    more than half of itself at a position: two would share a prefix longer
    than any piece.  That relator shares the longest prefix with the rest of
    the word, so in the sorted closure it sits next to the word's insertion
    point.  Each replacement strictly shortens the word (the threshold
    2|u| > |r| is strict), so the loop terminates.
    """
    if not check_small_cancellation(p).passes:
        raise StrategyError("Dehn's algorithm needs a C'(1/6) presentation")
    sym = p.symmetrized
    max_len = max((len(r) for r in sym), default=0)
    word = free_reduce(w)
    i = 0
    while i < len(word):
        window = word[i : i + max_len]
        j = bisect_left(sym, window)
        for r in sym[max(j - 1, 0) : j + 1]:
            k = 0
            while k < len(window) and k < len(r) and window[k] == r[k]:
                k += 1
            if 2 * k > len(r):
                word = free_reduce(word[:i] + invert(r[k:]) + word[i + k :])
                i = 0  # leftmost first: rescan from the start
                break
        else:
            i += 1
    return word


def is_identity(w: Word, p: Presentation, strategy: WordProblemStrategy) -> bool:
    """Whether w represents 1 in the presented group.

    Bounded BFS answers by walking w through the Cayley ball of radius
    radius_cap; every prefix of a word of length <= cap stays inside that
    ball, so longer words raise rather than guess.
    """
    word = free_reduce(w)
    if not word:
        return True
    if strategy.kind == "dehn":
        return len(dehn_reduce(word, p)) == 0
    cap = strategy.radius_cap
    if len(word) > cap:
        raise UndecidedWithinBound(
            f"word of length {len(word)} exceeds the BFS radius cap {cap}"
        )
    return shortlex_normal_form(word, _cached_ball(p, cap)) == ()


def shortlex_normal_form(w: Word, ball) -> Word:
    """Shortlex-minimal spelling of the element w names, read off the ball.

    The walk follows w edge by edge from the identity vertex, so it needs
    every prefix of (the free reduction of) w to stay inside the ball, not
    just the endpoint.
    """
    v = 0
    for x in free_reduce(w):
        v = ball.table[x][v]
        if v < 0:
            raise ValueError("element outside ball (walk left the enumerated region)")
    return ball.word_to(v)


@lru_cache(maxsize=8)
def _cached_ball(p: Presentation, radius: int):
    from .cayley import build_ball

    return build_ball(p, radius, WordProblemStrategy("bounded_bfs", radius_cap=radius + 4))
