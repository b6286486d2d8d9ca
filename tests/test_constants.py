"""Constant derivations: golden values and bookkeeping."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relends import (
    annulus_inner_radius,
    derive_certified,
    empirical_ledger,
)

PINNED_LEDGERS = Path(__file__).parent / "golden" / "ledgers.json"


def test_certified_chain_golden_values():
    led = derive_certified(1, 0, 1, 1, 0)
    assert led.tau == 14
    assert led.alpha == 232
    assert led.rho == 233
    assert led.delta_xh == 529
    assert led.mu == 2117
    assert led.m == 22751
    assert led.r0 == 23280
    assert led.inner_offset == 1587
    assert led.mode == "certified"


def test_certified_chain_collapses_at_zero():
    led = derive_certified(0, 0, None, 1, 0)
    assert (led.alpha, led.delta_xh, led.m, led.r0) == (0, 0, 4, 4)


def test_outer_radius_needs_the_generator_count():
    led = derive_certified(1, 0, 1, 1, 0)
    assert led.outer_radius is None
    assert "generator count" in led.provenance["outer_radius"]


def test_provenance_tracks_inputs_and_formulas():
    led = derive_certified(1, 0, 1, 1, 0)
    assert led.provenance["delta_x"] == "user"
    assert led.provenance["eta"] == "user"
    assert led.provenance["r0"] == "formula"


def test_empirical_ledger_copies_measurements():
    led = empirical_ledger(
        3, Fraction(3), 6, delta_x=Fraction(1, 2), epsilon=1, m=2
    )
    assert led.mode == "empirical"
    assert (led.r0, led.inner_offset, led.outer_radius) == (3, 3, 6)
    assert led.delta_x == Fraction(1, 2)
    assert led.epsilon == 1
    assert led.m == 2
    assert led.provenance["delta_x"] == "estimated"
    assert led.provenance["m"] == "user"


def test_ledger_reports_match_pinned_values():
    # to_json_dict() of both modes, captured before the two constructors
    # shared one derivation; compared as text so "3" versus 3 shows
    ledgers = {
        "certified d1 e0 eta1 n0=1 core0": derive_certified(1, 0, 1, 1, 0),
        "certified d0 e0 eta-default n0=1 core0 gens2": derive_certified(
            0, 0, None, 1, 0, n_generators=2
        ),
        "certified d1/2 e1 eta1/3 n0=2 core1/2": derive_certified(
            Fraction(1, 2), 1, Fraction(1, 3), 2, Fraction(1, 2)
        ),
        "empirical r0=3 offset3 outer6 d1/2 e1 m2": empirical_ledger(
            3, Fraction(3), 6, delta_x=Fraction(1, 2), epsilon=1, m=2
        ),
    }
    reports = {name: led.to_json_dict() for name, led in ledgers.items()}
    text = json.dumps(reports, indent=2, sort_keys=True) + "\n"
    assert text == PINNED_LEDGERS.read_text()


def test_empirical_defaults():
    led = empirical_ledger(4, Fraction(3), 5)
    assert led.provenance["eta"] == "default"
    assert led.provenance["n0"] == "default"


def test_inner_radius_floors_and_clamps():
    assert annulus_inner_radius(5, Fraction(3)) == 2
    assert annulus_inner_radius(2, Fraction(3)) == 0
    assert annulus_inner_radius(3, Fraction(7, 2)) == 0
    assert annulus_inner_radius(6, Fraction(7, 2)) == 2


@pytest.mark.parametrize("make", [
    lambda: derive_certified(-1, 0, None, 1, 0),
    lambda: derive_certified(0, -1, None, 1, 0),
    lambda: derive_certified(0, 0, -1, 1, 0),
    lambda: empirical_ledger(3, Fraction(3), 4, delta_x=Fraction(-5), epsilon=Fraction(0)),
    lambda: empirical_ledger(3, Fraction(3), 4, delta_x=Fraction(0), epsilon=Fraction(-2)),
], ids=["certified-delta", "certified-epsilon", "certified-eta",
        "empirical-delta", "empirical-epsilon"])
def test_negative_estimates_are_rejected_in_both_modes(make):
    with pytest.raises(ValueError, match="must be nonnegative"):
        make()


def test_empirical_connectivity_constant_must_be_positive():
    with pytest.raises(ValueError, match="m must be a positive integer"):
        empirical_ledger(3, Fraction(3), 4, m=0)


small_rationals = st.fractions(min_value=0, max_value=4, max_denominator=8)


@given(small_rationals, small_rationals)
def test_derived_radii_are_ordered(delta, eps):
    led = derive_certified(delta, eps, None, 1, 0)
    # each stage dominates the one before it, so the chain never shrinks
    assert 0 <= led.alpha <= led.rho
    assert led.delta_xh >= led.alpha
    assert led.r0 >= led.m >= 1
    assert led.r0 >= annulus_inner_radius(led.r0, led.inner_offset)


@given(small_rationals)
def test_more_defect_never_tightens_the_radii(delta):
    lo = derive_certified(delta, 0, None, 1, 0)
    hi = derive_certified(delta + 1, 0, None, 1, 0)
    assert hi.r0 >= lo.r0
    assert hi.m >= lo.m
