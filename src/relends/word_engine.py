"""Word problem: Dehn's algorithm for C'(1/6) presentations, bounded BFS else.

Dehn reduction replaces any subword that is strictly more than half of a
symmetrized relator by the inverse of the complement; on a C'(1/6)
presentation the empty word is reached exactly for trivial elements.  For
everything else a word is walked through a Cayley ball: `build_ball`
enumerates the Schreier ball of the trivial subgroup under a radius cap
(`None` = Dehn: C'(1/6) is required and the slack may reach
DEFAULT_MAX_SLACK; an int caps it at `radius_cap - radius`) and errs out
loudly when the slack certificate fails inside the cap.  Under the
canonical BFS labeling a vertex's tree word is its shortlex normal form.
"""

from __future__ import annotations

from bisect import bisect_left

from .presentation import (
    ParseError,
    Presentation,
    SubgroupSpec,
    Word,
    _common_prefix,
    check_small_cancellation,
    free_reduce,
    invert,
)
from .schreier import Ball, DEFAULT_MAX_SLACK, DEFAULT_NODE_BUDGET, UnstableBallError, stable_ball


class StrategyError(ValueError):
    """Dehn's algorithm does not apply to this presentation."""


def build_ball(
    p: Presentation,
    radius: int,
    radius_cap: int | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Ball:
    """Radius-R ball of the Cayley graph, exact and stability-certified.

    With no radius_cap (Dehn) the presentation must be C'(1/6), and slack
    escalation may run to DEFAULT_MAX_SLACK.  With a radius_cap the
    enumeration horizon may not exceed it.  Either way the ball carries the
    same empirical slack certificate as any stable_ball, not a proof, and a
    ball that cannot certify stability is an error rather than a guess.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if radius_cap is None:
        if not check_small_cancellation(p).passes:
            raise StrategyError("dehn strategy needs a C'(1/6) presentation")
        max_slack = DEFAULT_MAX_SLACK
    elif radius_cap < 1:
        raise ValueError("bounded_bfs needs a positive radius_cap")
    else:
        max_slack = radius_cap - radius
        if max_slack < 0:
            raise UnstableBallError(
                f"radius_cap {radius_cap} is below the requested radius {radius}"
            )
    ball = stable_ball(p, SubgroupSpec(()), radius, max_slack=max_slack, node_budget=node_budget)
    if not ball.stable:
        raise UnstableBallError(f"closure did not stabilize by slack {ball.slack}")
    return ball


def dehn_reduce(w: Word, p: Presentation) -> Word:
    """Dehn-irreducible form of w; empty iff w is trivial (C'(1/6) only).

    Rewrites the leftmost subword that is more than half of a symmetrized
    relator, then starts over.  Under C'(1/6) at most one relator matches
    more than half of itself at a position: two would share a prefix longer
    than any piece.  That relator shares the longest prefix with the rest of
    the word, so in the sorted closure it sits next to the word's insertion
    point.  The closure is the presentation's sorted rotation strings, one
    character per letter, so the word is searched as a string too; only the
    replaced piece goes back to letters.  Each replacement strictly shortens
    the word (the threshold 2|u| > |r| is strict), so the loop terminates.
    A letter outside p's alphabet raises ParseError.
    """
    p.check_letters((w,), "word")
    if not check_small_cancellation(p).passes:
        raise StrategyError("Dehn's algorithm needs a C'(1/6) presentation")
    sym = p._rotations
    max_len = max(map(len, sym), default=0)
    word = free_reduce(w)
    text = "".join(map(chr, word))
    i = 0
    while i < len(word):
        window = text[i : i + max_len]
        j = bisect_left(sym, window)
        for r in sym[max(j - 1, 0) : j + 1]:
            k = _common_prefix(window, r)
            if 2 * k > len(r):
                piece = invert(tuple(map(ord, r[k:])))
                word = free_reduce(word[:i] + piece + word[i + k :])
                text = "".join(map(chr, word))
                i = 0  # leftmost first: rescan from the start
                break
        else:
            i += 1
    return word


def shortlex_normal_form(w: Word, ball: Ball) -> Word:
    """Shortlex-minimal spelling of the element w names, read off the ball.

    The walk follows w edge by edge from the identity vertex, so it needs
    every prefix of (the free reduction of) w to stay inside the ball, not
    just the endpoint.  A letter outside the ball's alphabet raises
    ParseError.
    """
    if bad := [x for x in w if not 0 <= x < ball.n_letters]:
        raise ParseError(f"word letter {bad[0]} outside alphabet")
    v = 0
    for x in free_reduce(w):
        v = ball.table[x][v]
        if v < 0:
            raise ValueError("element outside ball (walk left the enumerated region)")
    return ball.word_to(v)
