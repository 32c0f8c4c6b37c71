"""Exact construction and verification of a family of fibred surfaces.

Builds, over any parameter value away from 0 and -27/4, the elliptic
curve / genus-2 curve pair linked by a double cover, the configuration
curve of compatible point tuples inside the r-fold product, and the
numeric invariants of the associated Kodaira fibration: branch counts,
genus, canonical self-intersection, Euler characteristic, signature and
slope -- every step either exact or at certified precision.

The symbolic layer (``SymbolicScalar``, the intersection engine and the
invariants) is exact ``Fraction`` polynomial arithmetic; its names load
on first use, so the curves and the verifier never import it.
"""

import importlib

from .scalars import (
    ComplexApprox,
    NOT_REPRESENTABLE,
    NotRepresentable,
    QuadExt,
    quadext,
    sqrt_in_tower,
)
from .elliptic import EllipticCurve, EllipticPoint, EC_INFINITY
from .genus2 import (
    GenusTwoCurve,
    GenusTwoPoint,
    X_INFINITY_MINUS,
    X_INFINITY_PLUS,
)
from .generic_points import (
    GenericityCertificate,
    SearchExhausted,
    find_generic_points,
    verify_certificate,
)
from .config_curve import (
    ConfigTuple,
    ConfigurationCurve,
    TowerReport,
    genus,
    tower_genus_closed_form,
    tower_genus_recursion,
)
from .verifier import VerificationRun, verify_claim

__version__ = "0.1.0"

__all__ = [
    "ComplexApprox", "NOT_REPRESENTABLE", "NotRepresentable", "QuadExt",
    "SymbolicScalar", "quadext", "sqrt_in_tower",
    "EllipticCurve", "EllipticPoint", "EC_INFINITY",
    "GenusTwoCurve", "GenusTwoPoint", "X_INFINITY_MINUS", "X_INFINITY_PLUS",
    "GenericityCertificate", "SearchExhausted", "find_generic_points",
    "verify_certificate",
    "ConfigTuple", "ConfigurationCurve", "TowerReport", "genus",
    "tower_genus_closed_form", "tower_genus_recursion",
    "DivisorExpr", "IntersectionTable", "Transcript", "build_table",
    "canonical_divisor", "intersect", "k_squared", "k_squared_closed_form",
    "lemma_counts", "solve_adjunction",
    "InvariantReport", "euler_characteristic", "fiber_genus",
    "invariant_report", "range_checks", "signature", "slope", "slope_table",
    "VerificationRun", "verify_claim",
]


def __getattr__(name):
    # names of __all__ not imported above belong to the symbolic layer
    if name in __all__:
        for module in ("symbolic", "intersection", "invariants"):
            namespace = vars(importlib.import_module(f"{__name__}.{module}"))
            if name in namespace:
                return namespace[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
