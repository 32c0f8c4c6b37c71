"""Exact construction and verification of a family of fibred surfaces.

Builds, over any parameter value away from 0 and -27/4, the elliptic
curve / genus-2 curve pair linked by a double cover, the configuration
curve of compatible point tuples inside the r-fold product, and the
numeric invariants of the associated Kodaira fibration: branch counts,
genus, canonical self-intersection, Euler characteristic, signature and
slope -- every step either exact or at certified precision.

``import kodaira`` loads no submodule.  Each public name loads its home
module on first use, so ``from kodaira import slope`` loads the exact
``Fraction`` layer (``symbolic``, ``intersection``, ``invariants``) and
no mpmath, while the curve names load ``scalars`` and mpmath and never
the symbolic layer.  The numeric defaults, which the command-line parser
reads, and ``format_rational`` and the tower genus formulas, which both
layers use, live here so that neither reader loads a layer it does not
run.
"""

import importlib

__version__ = "0.1.0"

DEFAULT_PREC_BITS = 256
DEFAULT_TOL = 1e-30


def format_rational(q) -> str:
    """Render a rational (an int or a Fraction) as the canonical ``"num/den"`` string."""
    return f"{q.numerator}/{q.denominator}"


def tower_genus_recursion(r: int) -> int:
    """Genus of the configuration curve via the double-cover recursion.

    Level 1 is the genus-2 curve itself; each step is a double cover with
    ``2^k`` simple branch points, so ``2*g_k - 2 = 2*(2*g_{k-1} - 2) + 2^k``.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    euler_neg = 2  # 2*g - 2 at level 1 (genus 2)
    for k in range(2, r + 1):
        euler_neg = 2 * euler_neg + 2 ** k
    assert euler_neg % 2 == 0
    return euler_neg // 2 + 1


def tower_genus_closed_form(r: int) -> int:
    """Closed form ``r * 2^(r-1) + 1``."""
    if r < 1:
        raise ValueError("r must be >= 1")
    return r * 2 ** (r - 1) + 1


def genus(r: int) -> tuple:
    """Both computations of the genus; they must agree."""
    return tower_genus_recursion(r), tower_genus_closed_form(r)


# public name -> the submodule that defines it
_HOMES = {name: module for module, names in {
    "scalars": "ComplexApprox QuadExt quadext sqrt_in_tower tower_sqrt",
    "symbolic": "SymbolicScalar",
    "elliptic": "EllipticCurve EllipticPoint EC_INFINITY",
    "genus2": "GenusTwoCurve GenusTwoPoint X_INFINITY_MINUS X_INFINITY_PLUS",
    "generic_points": "GenericityCertificate SearchExhausted find_generic_points "
                      "verify_certificate",
    "config_curve": "ConfigTuple ConfigurationCurve",
    "intersection": "DivisorExpr IntersectionTable Transcript build_table canonical_divisor "
                    "intersect k_squared k_squared_closed_form lemma_counts solve_adjunction",
    "invariants": "InvariantReport euler_characteristic fiber_genus invariant_report "
                  "range_checks signature slope slope_table",
    "verifier": "VerificationRun verify_claim",
}.items() for name in names.split()}
_SUBMODULES = frozenset(_HOMES.values()) | {"cli"}

__all__ = ["DEFAULT_PREC_BITS", "DEFAULT_TOL", "format_rational", "genus",
           "tower_genus_closed_form", "tower_genus_recursion", *_HOMES]


def __getattr__(name):
    # a submodule, or a public name loaded from its home on first use
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOMES:
        return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
