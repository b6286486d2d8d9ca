"""Small-cancellation pairs (G, H) from any finite presentation of Q.

G adds two generators a1, a2 to Q's and one long positive a-word to every
relator: r_j becomes r_j w_j, and each conjugate x^{+-1} a_k x^{-+1} is
declared equal to a fresh long a-word (4n conjugation relators), so
H = <<a1, a2>> = <a1, a2> is normal with G/H = Q.

The a-words alternate runs a1^e a2^e' a1^e'' ... whose consecutive
exponent pairs are globally distinct across the whole corpus: any common
subword of two distinct symmetrized relators contains at most one
complete flanked run, so pieces are short (about 3B letters for exponent
cap B) while the words themselves are as long as requested.  The block
length is doubled until that piece bound fits the C'(1/6) budget, and
C'(1/6) is then verified once, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .presentation import (
    Presentation,
    SmallCancellationReport,
    SubgroupSpec,
    Word,
    check_small_cancellation,
    free_reduce,
    invert,
)


@dataclass(frozen=True)
class RipsOutput:
    g_presentation: Presentation
    h_generators: SubgroupSpec
    q_presentation: Presentation
    block_length: int  # guaranteed minimum length of the fresh a-words


@dataclass(frozen=True)
class RipsReport:
    small_cancellation: SmallCancellationReport
    quotient_recovered: bool
    conjugators_formal: bool

    @property
    def passes(self) -> bool:
        return (
            self.small_cancellation.passes
            and self.quotient_recovered
            and self.conjugators_formal
        )


class _PairWalk:
    """Hands out alternating-run a-words; no exponent pair is ever reused."""

    def __init__(self, cap: int, a1: int, a2: int):
        self.a1 = a1
        self.a2 = a2
        self.unused = [set(range(1, cap + 1)) for _ in range(cap + 1)]
        self.cur = cap

    def next_word(self, min_length: int) -> Word:
        runs: list[int] = []
        total = 0
        while total < min_length:
            row = self.unused[self.cur]
            if not row:
                raise RuntimeError("exponent pairs exhausted")
            # steer toward exponents whose own out-rows are fullest so no
            # row starves; ties go to the larger exponent
            e = max(row, key=lambda v: (len(self.unused[v]), v))
            row.discard(e)
            runs.append(e)
            total += e
            self.cur = e
        word: list[int] = []
        for i, e in enumerate(runs):
            word.extend([self.a1 if i % 2 == 0 else self.a2] * e)
        return tuple(word)


def _fresh_names(taken: tuple[str, ...]) -> tuple[str, str]:
    free = [c for c in "abcdefghijklmnopqrstuvwxyz" if c not in taken]
    if len(free) >= 2:
        return free[0], free[1]
    i = 1
    picked: list[str] = []
    while len(picked) < 2:
        if f"g{i}" not in taken:
            picked.append(f"g{i}")
        i += 1
    return picked[0], picked[1]


def rips_construct(q: Presentation, block_length: int = 480) -> RipsOutput:
    """Build the pair (G, H) over Q and certify C'(1/6).

    block_length is the minimum length of each fresh a-word.  It is doubled
    until the exponent cap that supplies the letters fits the C'(1/6)
    budget; this always ends, since the cap grows like the cube root of the
    length while the budget grows linearly.  Then the words are walked and
    the check run once: a failed check raises RuntimeError.
    """
    if block_length < 8:
        raise ValueError("block_length must be at least 8")
    n = q.n_generators
    m = len(q.relators)
    name1, name2 = _fresh_names(q.generators)
    generators = q.generators + (name1, name2)
    a1 = 2 * n  # positive letter of the first fresh generator
    a2 = 2 * (n + 1)
    words_needed = m + 4 * n

    max_r = max((len(r) for r in q.relators), default=1)
    length = block_length
    while True:
        # the walk supplies at least 0.499 * cap^3 letters for every even
        # cap from 12 to 160 (measured), and the words draw at most
        # words_needed * (length + cap - 1) < 0.475 * cap^3 of them once
        # the cap fits; pieces cost about 3 * cap, so cap must fit under
        # the C'(1/6) budget for the shortest relator
        cap = 12
        while 9 * cap**3 // 20 < words_needed * length:
            cap += 2
        if 3 * cap <= length // 6 - (max_r + 12):
            break
        length *= 2
    walk = _PairWalk(cap, a1, a2)
    fresh = [walk.next_word(length) for _ in range(words_needed)]
    relators: list[Word] = []
    for r in q.relators:
        relators.append(r + fresh[len(relators)])
    k = m
    for i in range(n):
        for a in (a1, a2):
            for x, x_inv in ((2 * i, 2 * i + 1), (2 * i + 1, 2 * i)):
                relators.append((x, a, x_inv) + invert(fresh[k]))
                k += 1
    g = Presentation(generators=generators, relators=tuple(relators))
    if not check_small_cancellation(g).passes:
        raise RuntimeError(f"C'(1/6) fails at block length {length}")
    return RipsOutput(
        g_presentation=g,
        h_generators=SubgroupSpec(((a1,), (a2,))),
        q_presentation=q,
        block_length=min(len(w) for w in fresh),
    )


def _kill_a_letters(word: Word, n_q_letters: int) -> Word:
    return free_reduce(tuple(x for x in word if x < n_q_letters))


def verify_rips(out: RipsOutput) -> RipsReport:
    """Re-derive the three structural guarantees from the output alone.

    (a) the presentation is C'(1/6); (b) killing a1, a2 and freely
    reducing recovers exactly Q's relators (as multisets of words); (c)
    every non-Q relator is formally a conjugation x a x^{-1} followed by
    an inverse a-word, so conjugates of H's generators land in H.
    """
    g = out.g_presentation
    q = out.q_presentation
    nq = q.n_letters
    report_sc = check_small_cancellation(g)

    recovered = sorted(
        w for r in g.relators if (w := _kill_a_letters(r, nq))
    )
    quotient_ok = recovered == sorted(q.relators)

    conj_ok = True
    a_letters = set(range(nq, g.n_letters))
    h_positive = {w[0] for w in out.h_generators.words if len(w) == 1}
    for r in g.relators:
        if _kill_a_letters(r, nq):
            continue  # a Q-relator block, judged by check (b)
        ok = (
            len(r) >= 4
            and r[0] < nq
            and r[2] < nq
            and r[2] == r[0] ^ 1
            and r[1] in a_letters
            and (r[1] & ~1) in {h & ~1 for h in h_positive}
            and all(x in a_letters for x in r[3:])
        )
        conj_ok = conj_ok and ok
    return RipsReport(
        small_cancellation=report_sc,
        quotient_recovered=quotient_ok,
        conjugators_formal=conj_ok,
    )
