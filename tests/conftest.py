"""Shared presentations and helpers for the test suite."""

import random

import pytest
from hypothesis import strategies as st

from relends import parse_presentation, stallings_fold
from relends.presentation import SubgroupSpec, word_from_text

GENUS2 = "generators: a b c d\nrelators: abABcdCD\n"
FREE2 = "generators: a b\nrelators: none\n"
LINE = "generators: a\nrelators: none\n"
TORUS = "generators: a b\nrelators: abAB\n"
TRIVIAL_Q_TEXT = "generators: x\nrelators: x\n"
# genus 2's radius-6 balls over the a-axis, <a, b> or <a, c> outgrow the
# default node budget
SURFACE_BUDGET = 40_000_000

# a word of one to seven letters over a and b, for random presentations and
# subgroups
short_words = st.text("abAB", min_size=1, max_size=7)


def sub(p, *texts):
    """Subgroup spec from generator words written in the presentation's letters."""
    return SubgroupSpec(tuple(word_from_text(t, p.generators) for t in texts))


def free_group(rank):
    return parse_presentation(f"generators: {' '.join('abc'[:rank])}\nrelators: none\n")


def seeded_cores(seed=28, per_rank=40):
    """Cores over F1, F2 and F3 of 0-3 words of 1-7 letters, drawn without
    free reduction, so words like aA and bBa occur."""
    rng = random.Random(seed)
    for rank in (1, 2, 3):
        p = free_group(rank)
        for _ in range(per_rank):
            words = tuple(tuple(rng.randrange(2 * rank) for _ in range(rng.randint(1, 7)))
                          for _ in range(rng.randint(0, 3)))
            yield stallings_fold(p, SubgroupSpec(words))


def walk(ball, text):
    # table rows are letters, columns are vertices; uppercase means inverse
    v = 0
    for ch in text:
        i = ball.gen_names.index(ch.lower())
        v = ball.table[2 * i + (1 if ch.isupper() else 0)][v]
        assert v >= 0, f"walk fell off the ball at {ch!r}"
    return v


@pytest.fixture(scope="session")
def f2():
    return parse_presentation(FREE2)


@pytest.fixture(scope="session")
def zline():
    return parse_presentation(LINE)


@pytest.fixture(scope="session")
def genus2():
    return parse_presentation(GENUS2)


@pytest.fixture(scope="session")
def torus():
    return parse_presentation(TORUS)


@pytest.fixture(scope="session")
def trivial():
    return SubgroupSpec(())
