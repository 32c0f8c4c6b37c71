"""Euler characteristic, canonical self-intersection, signature and slope.

For a fibred surface of fiber genus ``g`` over a base of genus
``gamma`` the Euler characteristic is ``(2g - 2)*(2*gamma - 2)``; here
the fiber genus is tied to the number of sections by ``g = 3 + r/2``
(``r`` even).  Combining with the canonical self-intersection derived in
:mod:`kodaira.intersection` gives the slope

    ``upsilon = K^2 / e = 2 + 3 / (2*(4 + r))``

-- independent of ``gamma`` -- and the signature ``tau = e*(upsilon-2)/3
= gamma - 1``.  The slope lies strictly between 2 and 8/3 and decreases
to 2 as ``r`` grows.

Both identities are proved symbolically once per process; every value
for a given ``r`` or ``gamma`` is then an exact ``Fraction`` evaluation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from . import format_rational
from .intersection import GAMMA, R, k_squared, k_squared_closed_form
from .symbolic import SymbolicScalar


class OddFiberParameterError(ValueError):
    """The fiber-genus relation g = 3 + r/2 needs an even r."""


def fiber_genus(r: int) -> int:
    """``g = 3 + r/2`` for even r; the fibration construction forces this."""
    if r % 2 != 0:
        raise OddFiberParameterError(f"r must be even, got {r}")
    return 3 + r // 2


def base_genus_from_cover_degree(r: int, deg_cover: int = 1) -> int:
    """Genus of an unramified degree-``deg_cover`` cover of the tower top.

    Riemann-Hurwitz with no ramification:
    ``2*gamma - 2 = deg_cover * (2*g - 2)`` with ``g = r*2^(r-1) + 1``,
    hence ``gamma = 1 + deg_cover * r * 2^(r-1)``.
    """
    return 1 + deg_cover * r * 2 ** (r - 1)


def euler_characteristic(g=None, gamma=None):
    """``(2g - 2)*(2*gamma - 2)``, exact or symbolic."""
    if isinstance(g, int) and g < 2:
        raise ValueError("fiber genus must be at least 2")
    if isinstance(g, int) and isinstance(gamma, int):
        return Fraction((2 * g - 2) * (2 * gamma - 2))
    if g is None:
        # expressed through r via the fibration relation 2g - 2 = 4 + r
        two_g_minus_2 = 4 + R
    else:
        two_g_minus_2 = 2 * SymbolicScalar(g) - 2
    base = GAMMA if gamma is None else SymbolicScalar(gamma)
    return two_g_minus_2 * (2 * base - 2)


@cache
def _proved_identities() -> tuple:
    """Prove the slope and signature identities; return ``(upsilon, tau)``.

    ``K^2 / e`` must be free of ``gamma`` and equal ``2 + 3/(2*(4+r))``,
    and ``e*(upsilon - 2)/3`` must equal ``gamma - 1``, both as identities
    of canonical rational functions.  Cached: the proof runs once per
    process, and every later value is a plain evaluation.
    """
    e = euler_characteristic()
    upsilon = k_squared_closed_form() / e
    if "gamma" in upsilon.free_symbol_names():
        raise ArithmeticError("slope failed to eliminate the base genus")
    if not (upsilon - (2 + 3 / (2 * (4 + R)))).is_zero():
        raise ArithmeticError("slope does not match its closed form")
    tau = e * (upsilon - 2) / 3
    if not (tau - (GAMMA - 1)).is_zero():
        raise ArithmeticError("signature does not simplify to gamma - 1")
    return upsilon, tau


def slope(r=None) -> object:
    """Slope ``K^2 / e``; proved equal to ``2 + 3/(2*(4+r))``, gamma-free.

    Exact Fraction for integer even r, symbolic otherwise.  Values of r
    below 8 are computable but lie outside the fibration construction's
    hypotheses (``r >= 8`` even); :func:`range_checks` reports the flag.
    """
    upsilon, _ = _proved_identities()
    if r is None:
        return upsilon
    fiber_genus(r)  # raises OddFiberParameterError for odd r
    return slope_closed_form(r)


def slope_closed_form(r: int) -> Fraction:
    """Direct evaluation ``2 + 3/(2*(4+r))`` used as the table oracle."""
    return Fraction(2) + Fraction(3, 2 * (4 + r))


def signature(r=None, gamma=None):
    """``tau = e*(upsilon - 2)/3``; proved equal to ``gamma - 1``.

    Positive whenever ``gamma >= 2`` -- the nonvanishing signature is the
    point of the whole construction.  Exact Fraction for integer gamma,
    symbolic otherwise.
    """
    _, tau = _proved_identities()
    if r is not None:
        fiber_genus(r)  # raises OddFiberParameterError for odd r
    if isinstance(gamma, int):
        return Fraction(gamma - 1)
    return tau if gamma is None else tau.substitute({"gamma": gamma})


@dataclass
class RangeReport:
    r: int
    upsilon: Fraction
    fiber_genus: int
    within_open_interval: bool       # 2 < upsilon < 3
    below_largest_known: bool        # upsilon < 2 + 2/3
    genus_at_least_three: bool
    within_construction_hypotheses: bool  # r even and >= 8

    @property
    def all_passed(self) -> bool:
        return (self.within_open_interval and self.below_largest_known
                and self.genus_at_least_three)


def range_checks(r: int) -> RangeReport:
    """Exact rational comparisons for the slope and fiber genus bounds."""
    upsilon = slope(r)
    g = fiber_genus(r)
    return RangeReport(
        r=r,
        upsilon=upsilon,
        fiber_genus=g,
        within_open_interval=Fraction(2) < upsilon < Fraction(3),
        below_largest_known=upsilon < Fraction(2) + Fraction(2, 3),
        genus_at_least_three=g >= 3,
        within_construction_hypotheses=(r % 2 == 0 and r >= 8),
    )


@dataclass
class InvariantReport:
    """All numeric invariants with provenance notes per entry."""

    r: int
    gamma: object               # int or symbolic
    deg_cover: object           # int or None
    fiber_genus: int
    euler: object
    k_squared: object
    tau: object
    upsilon: Fraction
    provenance: dict = field(default_factory=dict)

    def identities_hold(self) -> bool:
        """``upsilon * e == K^2`` and ``tau == e*(upsilon - 2)/3`` exactly."""
        e = SymbolicScalar(self.euler)
        k2 = SymbolicScalar(self.k_squared)
        tau = SymbolicScalar(self.tau)
        ups = SymbolicScalar(self.upsilon)
        return (ups * e - k2).is_zero() and (tau - e * (ups - 2) / 3).is_zero()

    def to_json_dict(self):
        def render(v):
            if isinstance(v, (int, Fraction)):
                return format_rational(v)
            return str(v)

        return {
            "schema": "1",
            "r": self.r,
            "gamma": render(self.gamma),
            "deg_cover": self.deg_cover,
            "fiber_genus": self.fiber_genus,
            "euler": render(self.euler),
            "k_squared": render(self.k_squared),
            "tau": render(self.tau),
            "upsilon": format_rational(self.upsilon),
            "provenance": dict(sorted(self.provenance.items())),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def invariant_report(r: int, gamma=None, deg_cover=None) -> InvariantReport:
    """Full invariant set for given r.

    The base genus is taken either as supplied or derived from a cover
    degree through the unramified-cover relation; the provenance notes
    record which.  With neither supplied the report stays symbolic in
    ``gamma``.
    """
    provenance = {}
    if r < 8:
        provenance["r"] = "outside the construction hypotheses (needs r >= 8 even)"
    if gamma is not None and deg_cover is not None:
        raise ValueError("supply gamma or deg_cover, not both")
    if gamma is not None:
        provenance["gamma"] = "user-supplied"
    elif deg_cover is not None:
        gamma = base_genus_from_cover_degree(r, deg_cover)
        provenance["gamma"] = (
            f"derived from deg_cover={deg_cover} via "
            "2*gamma - 2 = deg_cover * (2*(r*2^(r-1)+1) - 2)")
    else:
        provenance["gamma"] = "symbolic"

    g = fiber_genus(r)
    provenance["fiber_genus"] = "g = 3 + r/2"
    e = euler_characteristic(g, gamma)
    provenance["euler"] = "(2g-2)*(2*gamma-2)"
    derivation = k_squared(r=r, gamma=gamma)
    k2 = derivation.value
    if isinstance(gamma, int):
        k2 = k2.as_fraction()
    provenance["k_squared"] = "intersection engine (table rules + adjunction + counting lemma)"
    upsilon = slope(r)
    provenance["upsilon"] = "K^2 / e, base genus eliminated exactly"
    tau = signature(r, gamma)
    provenance["tau"] = "e*(upsilon-2)/3 == gamma - 1"
    return InvariantReport(
        r=r, gamma=gamma if gamma is not None else GAMMA, deg_cover=deg_cover,
        fiber_genus=g, euler=e, k_squared=k2, tau=tau, upsilon=upsilon,
        provenance=provenance,
    )


def slope_table(r_min: int, r_max: int) -> list:
    """Rows ``(r, g, upsilon)`` for even r in the closed range."""
    rows = []
    for r in range(r_min, r_max + 1):
        if r % 2 != 0:
            continue
        rows.append((r, fiber_genus(r), slope(r)))
    return rows


def slope_table_csv(r_min: int, r_max: int) -> str:
    lines = ["r,g,upsilon_num,upsilon_den,tau_formula"]
    for r, g, upsilon in slope_table(r_min, r_max):
        lines.append(f"{r},{g},{upsilon.numerator},{upsilon.denominator},gamma-1")
    return "\n".join(lines) + "\n"
