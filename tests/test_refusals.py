"""Every refusal of an input that the library cannot answer is reachable,
and says what is wrong."""

import dataclasses
import re

import pytest

from relends import (
    Ball,
    build_ball,
    canonical_code,
    count_relative_ends,
    covering_degree_check,
    derive_certified,
    empirical_ledger,
    free_schreier_ball,
    graphs_isomorphic,
    parse_presentation,
    restrict_to_generators,
    rips_construct,
    sphere_classes,
    stabilization_verdict,
    stable_ball,
    stallings_fold,
)
from relends.word_engine import StrategyError

from conftest import FREE2, LINE, TORUS, TRIVIAL_Q_TEXT, sub


def f2_ball():
    p = parse_presentation(FREE2)
    return stable_ball(p, sub(p), 2)


def f2_core():
    p = parse_presentation(FREE2)
    return stallings_fold(p, sub(p, "ab"))


def certified_count_without_an_outer_radius():
    p = parse_presentation(LINE)
    template = derive_certified(0, 0, None, 1, 0)  # no n_generators
    count_relative_ends(p, sub(p), template, [2, 3, 4])


def a_point(name):
    return Ball((name,), [[-1], [-1]], [0], 0)


CASES = [
    ("ledger-mode", lambda: dataclasses.replace(derive_certified(0, 0, None, 1, 0), mode="x"),
     ValueError, "unknown mode 'x'"),
    ("certified-n0", lambda: derive_certified(0, 0, None, 0, 0),
     ValueError, "n0 must be a positive integer"),
    ("certified-diam-core", lambda: derive_certified(0, 0, None, 1, -1),
     ValueError, "diam_core must be nonnegative"),
    ("certified-n-generators", lambda: derive_certified(0, 0, None, 1, 0, n_generators=0),
     ValueError, "n_generators must be positive"),
    ("empirical-inner-offset", lambda: empirical_ledger(3, 0, 4),
     ValueError, "need inner_offset > 0 and 0 < R0 < outer_radius"),
    ("sphere-classes-inner", lambda: sphere_classes(f2_ball(), 1, 2),
     ValueError, "bad annulus radii: inner=2, R0=1, ball radius=2"),
    ("stabilization-window", lambda: stabilization_verdict([1, 1], 0),
     ValueError, "stabilization window must be positive"),
    ("count-outer-radius", certified_count_without_an_outer_radius,
     ValueError, "ledger template needs an outer_radius"),
    ("free-ball-radius", lambda: free_schreier_ball(f2_core(), -1),
     ValueError, "radius must be nonnegative"),
    ("code-unreachable", lambda: canonical_code(Ball(("a",), [[-1, -1], [-1, -1]], [0, 1], 1)),
     ValueError, "ball has vertices unreachable from the base"),
    ("iso-alphabets", lambda: graphs_isomorphic(a_point("a"), a_point("b")),
     ValueError, "balls are over different generator alphabets"),
    ("rips-block-length", lambda: rips_construct(parse_presentation(TRIVIAL_Q_TEXT), 7),
     ValueError, "block_length must be at least 8"),
    ("covering-negative", lambda: covering_degree_check(f2_ball(), -3),
     ValueError, "covering check radius -3 must be nonnegative"),
    ("stable-ball-slack-cap",
     lambda: stable_ball(p := parse_presentation(FREE2), sub(p), 1, start_slack=3, max_slack=1),
     ValueError, "max_slack 1 is below start_slack 3"),
    ("sphere-radius", lambda: f2_ball().sphere(3),
     ValueError, "sphere radius 3 exceeds ball radius 2"),
    ("restrict-name", lambda: restrict_to_generators(f2_ball(), ("a", "z")),
     ValueError, "generator 'z' not in ball alphabet"),
    ("build-ball-radius", lambda: build_ball(parse_presentation(TORUS), -1, 4),
     ValueError, "radius must be nonnegative"),
    ("build-ball-dehn", lambda: build_ball(parse_presentation(TORUS), 2),
     StrategyError, "dehn strategy needs a C'(1/6) presentation"),
]


@pytest.mark.parametrize("call, error, message", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_every_refusal_is_reached(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
