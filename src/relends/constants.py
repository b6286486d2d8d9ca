"""Constants ledger: every named constant with formula and provenance.

Certified mode computes the full chain exactly from (delta_X, epsilon, eta,
n0, diam_core) with Fractions; no floats anywhere.  Empirical mode takes the
three radii that drive the algorithm directly from the user and tags them
so, keeping the formula-derived fields for reference.

The certified radii are astronomically large for any honest delta (R0 is
tens of thousands even for delta_X = 1), so real runs use empirical mode;
certified mode exists to pin the arithmetic down and to document exactly
which formula produced which field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction

Rational = Fraction | int | str

# provenance tags
FORMULA = "formula"
ESTIMATED = "estimated"
DEFAULT = "default"
USER = "user"


def _encode(value):
    """JSON form of a ledger value; an int too long for decimal text is hex."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, int):
        try:
            str(value)
        except ValueError:
            return hex(value)
    return value


@dataclass(frozen=True)
class ConstantsLedger:
    """All named constants, with per-field provenance.

    mu = 4 delta_XH + delta_X certifies the geodesic extension property of
    the quotient, which reports mark "geodesic_extension_adjusted": true.
    """

    delta_x: Fraction
    epsilon: Fraction
    eta: Fraction
    tau: Fraction
    n0: int
    alpha: Fraction
    diam_core: Fraction
    rho: Fraction
    delta_xh: Fraction
    mu: Fraction
    m: int
    r0: int
    inner_offset: Fraction
    outer_radius: int | None
    mode: str  # certified | empirical
    provenance: dict[str, str]

    def __post_init__(self):
        if self.mode not in ("certified", "empirical"):
            raise ValueError(f"unknown mode {self.mode!r}")

    def to_json_dict(self) -> dict:
        out = {f.name: _encode(getattr(self, f.name)) for f in fields(self)}
        out["provenance"] = dict(self.provenance)
        out["geodesic_extension_adjusted"] = True
        return out


def _chain(
    dx: Fraction, eps: Fraction, eta: Rational | None, n0: int, dc: Fraction, prov: dict
) -> dict:
    """The inputs, eta (default delta_x) and the formula fields of both modes.

    delta_x, epsilon and eta must be nonnegative in either mode.

    tau = 12 delta_x + 2 epsilon + 2 eta
    alpha = (132 + 100 n0) delta_x
    rho = diam_core + alpha + delta_x
    delta_xh = 2 (diam_core + alpha + epsilon) + 65 delta_x
    mu = 4 delta_xh + delta_x
    """
    et = dx if eta is None else Fraction(eta)
    if dx < 0 or eps < 0 or et < 0:
        raise ValueError("delta_x, epsilon, eta must be nonnegative")
    prov["eta"] = DEFAULT if eta is None else USER
    alpha = (132 + 100 * n0) * dx
    delta_xh = 2 * (dc + alpha + eps) + 65 * dx
    prov.update(dict.fromkeys(("tau", "alpha", "rho", "delta_xh", "mu"), FORMULA))
    return dict(
        delta_x=dx,
        epsilon=eps,
        n0=n0,
        diam_core=dc,
        eta=et,
        tau=12 * dx + 2 * eps + 2 * et,
        alpha=alpha,
        rho=dc + alpha + dx,
        delta_xh=delta_xh,
        mu=4 * delta_xh + dx,
    )


def derive_certified(
    delta_x: Rational,
    epsilon: Rational,
    eta: Rational | None,
    n0: int,
    diam_core: Rational,
    n_generators: int | None = None,
) -> ConstantsLedger:
    """Full certified chain, exact.

    Past the fields of _chain: M = smallest integer >= 43 delta_xh + 4,
    R0 = ceil(M + delta_xh), inner_offset = 3 delta_xh, and
    outer_radius = R0 + ceil(10 delta_x (2 n_generators)^R0), which needs
    the generator count; left None (tagged) when it is not supplied.
    """
    dx, eps, dc = Fraction(delta_x), Fraction(epsilon), Fraction(diam_core)
    prov = dict.fromkeys(("delta_x", "epsilon", "n0", "diam_core"), USER)
    chain = _chain(dx, eps, eta, n0, dc, prov)
    if n0 < 1:
        raise ValueError("n0 must be a positive integer")
    if dc < 0:
        raise ValueError("diam_core must be nonnegative")
    if n_generators is not None and n_generators < 1:
        raise ValueError("n_generators must be positive")
    m = math.ceil(43 * chain["delta_xh"] + 4)
    r0 = math.ceil(m + chain["delta_xh"])
    prov.update(dict.fromkeys(("m", "r0", "inner_offset", "outer_radius"), FORMULA))
    outer_radius = None
    if n_generators is None:
        prov["outer_radius"] = "unavailable (generator count not supplied)"
    else:
        outer_radius = r0 + math.ceil(10 * dx * Fraction(2 * n_generators) ** r0)
    return ConstantsLedger(
        m=m,
        r0=r0,
        inner_offset=3 * chain["delta_xh"],
        outer_radius=outer_radius,
        mode="certified",
        provenance=prov,
        **chain,
    )


def empirical_ledger(
    r0: int,
    inner_offset: Rational,
    outer_radius: int,
    delta_x: Rational | None = None,
    epsilon: Rational | None = None,
    m: int | None = None,
) -> ConstantsLedger:
    """Ledger whose three working radii come straight from the user.

    The derived chain is still computed (with n0 = 1 and diam_core = 0)
    so reports show the formula values next to the radii actually used.
    Given either estimate, both are tagged estimated and a missing one
    reads 0; given neither, both are default zeros.  M defaults to R0.
    """
    inner = Fraction(inner_offset)
    if not (0 < inner and 0 < r0 < outer_radius):
        raise ValueError(
            f"need inner_offset > 0 and 0 < R0 < outer_radius, "
            f"got inner_offset={inner}, R0={r0}, outer_radius={outer_radius}"
        )
    if m is not None and m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    est_tag = DEFAULT if delta_x is None and epsilon is None else ESTIMATED
    prov = {"delta_x": est_tag, "epsilon": est_tag, "n0": DEFAULT, "diam_core": DEFAULT}
    prov.update(dict.fromkeys(("r0", "inner_offset", "outer_radius"), USER))
    prov["m"] = DEFAULT if m is None else USER
    return ConstantsLedger(
        m=r0 if m is None else m,
        r0=r0,
        inner_offset=inner,
        outer_radius=outer_radius,
        mode="empirical",
        provenance=prov,
        **_chain(Fraction(delta_x or 0), Fraction(epsilon or 0), None, 1, Fraction(0), prov),
    )


def annulus_inner_radius(r0: int, inner_offset: Rational) -> int:
    """Radius of the excluded inner ball for the class partition.

    The annulus keeps {inner_radius < dist}, out to the ball's edge, with
    inner_radius = floor(R0 - inner_offset): the cut ball is closed, so a
    tree branch point at distance exactly R0 - inner_offset separates the
    sphere vertices hanging under it into distinct classes.  An offset
    deeper than R0 clamps to zero: the smallest cut that still counts
    anything is the base point alone.
    """
    return max(math.floor(r0 - Fraction(inner_offset)), 0)
