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
reads, and ``format_rational``, which both layers use, live here so that
neither reader loads a layer it does not run.
"""

import importlib

__version__ = "0.1.0"

DEFAULT_PREC_BITS = 256
DEFAULT_TOL = 1e-30


def format_rational(q) -> str:
    """Render a rational (an int or a Fraction) as the canonical ``"num/den"`` string."""
    return f"{q.numerator}/{q.denominator}"


# public name -> the submodule that defines it
_HOMES = {name: module for module, names in {
    "scalars": "ComplexApprox NOT_REPRESENTABLE NotRepresentable QuadExt quadext sqrt_in_tower",
    "symbolic": "SymbolicScalar",
    "elliptic": "EllipticCurve EllipticPoint EC_INFINITY",
    "genus2": "GenusTwoCurve GenusTwoPoint X_INFINITY_MINUS X_INFINITY_PLUS",
    "generic_points": "GenericityCertificate SearchExhausted find_generic_points "
                      "verify_certificate",
    "config_curve": "ConfigTuple ConfigurationCurve genus tower_genus_closed_form "
                    "tower_genus_recursion",
    "intersection": "DivisorExpr IntersectionTable Transcript build_table canonical_divisor "
                    "intersect k_squared k_squared_closed_form lemma_counts solve_adjunction",
    "invariants": "InvariantReport euler_characteristic fiber_genus invariant_report "
                  "range_checks signature slope slope_table",
    "verifier": "VerificationRun verify_claim",
}.items() for name in names.split()}
_SUBMODULES = frozenset(_HOMES.values()) | {"cli"}

__all__ = ["DEFAULT_PREC_BITS", "DEFAULT_TOL", "format_rational", *_HOMES]


def __getattr__(name):
    # a submodule, or a public name loaded from its home on first use
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOMES:
        return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
