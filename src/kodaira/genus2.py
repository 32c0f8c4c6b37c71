"""The genus-2 curve ``y^2 = x^6 + lam*x^2 + lam`` and its double cover.

``cover : (x, y) -> (x^2, y)`` maps this curve two-to-one onto the
elliptic curve ``y^2 = x^3 + lam*x + lam``, branched exactly over the
images of the two points with ``x = 0``.  The degree-6 model has two
points at infinity, modelled as labelled chart points: in the chart
``(u, v) = (1/x, y/x^3)`` the curve reads ``v^2 = 1 + lam*u^4 + lam*u^6``
and the labels are the solutions ``v = +/-1`` at ``u = 0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import DEFAULT_PREC_BITS, DEFAULT_TOL
from .elliptic import EC_INFINITY, EllipticCurve, EllipticPoint, OffCurveError
from .scalars import (
    as_approx,
    coordinates_equal,
    is_approx,
    scalar_is_zero,
    tower_sqrt,
)


@dataclass(frozen=True)
class GenusTwoPoint:
    """Affine point or one of the two labelled points at infinity."""

    x: object = None
    y: object = None
    infinity_sign: int = 0  # 0 affine, +1 / -1 the two labels at infinity

    @classmethod
    def affine(cls, x, y) -> "GenusTwoPoint":
        return cls(x, y, 0)

    @classmethod
    def infinity(cls, sign: int) -> "GenusTwoPoint":
        if sign not in (+1, -1):
            raise ValueError("infinity label must be +1 or -1")
        return cls(None, None, sign)

    @property
    def is_infinity(self) -> bool:
        return self.infinity_sign != 0

    def __repr__(self):
        if self.is_infinity:
            return f"GenusTwoPoint(infinity{'+' if self.infinity_sign > 0 else '-'})"
        return f"GenusTwoPoint({self.x!r}, {self.y!r})"


X_INFINITY_PLUS = GenusTwoPoint.infinity(+1)
X_INFINITY_MINUS = GenusTwoPoint.infinity(-1)


def genus2_points_equal(p: GenusTwoPoint, q: GenusTwoPoint,
                        check_name: str = "genus2-point-equality") -> bool:
    if p.is_infinity or q.is_infinity:
        return p.infinity_sign == q.infinity_sign
    return coordinates_equal((p.x, p.y), (q.x, q.y), check_name)


class GenusTwoCurve:
    """``y^2 = x^6 + lam*x^2 + lam`` with its two-fold cover of the
    elliptic quotient."""

    def __init__(self, lam, prec: int = DEFAULT_PREC_BITS, tol: float = DEFAULT_TOL):
        if isinstance(lam, int):
            lam = Fraction(lam)
        self.lam = lam
        self.prec = prec
        self.tol = tol
        # shares the nonsingularity locus with the elliptic quotient
        self._elliptic = EllipticCurve(lam, prec, tol)

    def __repr__(self):
        return f"GenusTwoCurve(lam={self.lam!r})"

    def elliptic_quotient(self) -> EllipticCurve:
        return self._elliptic

    def rhs(self, x):
        x2 = x * x
        return x2 * x2 * x2 + self.lam * x2 + self.lam

    def contains(self, p: GenusTwoPoint) -> bool:
        if p.is_infinity:
            return True
        return scalar_is_zero(p.y * p.y - self.rhs(p.x))

    def _require(self, p: GenusTwoPoint):
        if not self.contains(p):
            raise OffCurveError(f"{p!r} is not on {self!r}")

    # -- distinguished points -------------------------------------------------

    def branch_point(self, sign: int = +1) -> GenusTwoPoint:
        """``(0, +/- sqrt(lam))``: the two critical points of the cover,
        the same coordinates as their images on the elliptic quotient."""
        image = self._elliptic.branch_image(sign)
        return GenusTwoPoint.affine(image.x, image.y)

    def differential_divisor(self, k: int) -> list:
        """Zero divisor of the k-th holomorphic differential (degree 2).

        ``k=1`` (the form vanishing at ``x = 0``) gives the two branch
        points of the cover; ``k=2`` gives the two points at infinity.
        The two divisors are disjoint.
        """
        if k == 1:
            return [self.branch_point(+1), self.branch_point(-1)]
        if k == 2:
            return [X_INFINITY_PLUS, X_INFINITY_MINUS]
        raise ValueError("k must be 1 or 2")

    # -- the double cover -----------------------------------------------------

    def cover(self, p: GenusTwoPoint) -> EllipticPoint:
        """The covering map ``(x, y) -> (x^2, y)``; infinity maps to infinity.

        Raises :class:`OffCurveError` for a point off the curve.
        """
        self._require(p)
        return self._cover(p)

    def _cover(self, p: GenusTwoPoint) -> EllipticPoint:
        """:meth:`cover` without the on-curve check, for a point on the curve by construction.

        The callers: ``ConfigurationCurve.projection_fiber``, on a point of
        a cover fiber; and ``ConfigurationCurve.slot_facts``, on every
        choice, its image read only by tuples whose choices passed their
        on-curve decisions.
        """
        if p.is_infinity:
            return EC_INFINITY
        return EllipticPoint(p.x * p.x, p.y)

    def fiber(self, q: EllipticPoint) -> list:
        """Preimages of ``q`` under the cover.

        Two points generically, one at the two branch images (``x = 0``),
        and the two infinity labels over the point at infinity.  Square
        roots that leave the exact tower fall back to ComplexApprox
        coordinates, which marks the whole result as approximate.  Raises
        :class:`OffCurveError` for a point off the elliptic curve.
        """
        self._elliptic._require(q)
        return self._fiber(q)

    def _fiber(self, q: EllipticPoint) -> list:
        """:meth:`fiber` without the on-curve check, for a point on the curve by construction.

        The caller: ``ConfigurationCurve.projection_fiber``, on the sums
        of a cover image and an offset or its negative.
        """
        if q.is_infinity:
            return [X_INFINITY_PLUS, X_INFINITY_MINUS]
        if scalar_is_zero(q.x):
            return [GenusTwoPoint.affine(q.x, q.y)]
        radicand = self.lam if isinstance(self.lam, Fraction) else None
        root = tower_sqrt(q.x, radicand, self.prec, self.tol)
        y = as_approx(q.y, self.prec, self.tol) if is_approx(root) else q.y
        return [GenusTwoPoint.affine(root, y), GenusTwoPoint.affine(-root, y)]

    def is_branch_point(self, p: GenusTwoPoint) -> bool:
        """True exactly for the two critical points of the cover (x = 0)."""
        self._require(p)
        if p.is_infinity:
            # unramified at infinity: the fiber over infinity has two points
            return False
        return scalar_is_zero(p.x)

    def cover_derivative(self, p: GenusTwoPoint):
        """Derivative of the cover: ``2x`` in the affine chart.

        At the two points at infinity the cover is unramified and the
        chart derivative is ``+/-1`` (chart ``u = 1/x`` upstairs against
        the standard local coordinate downstairs); only nonvanishing --
        and hence any fixed nonzero value -- matters to rank checks.
        """
        if p.is_infinity:
            return Fraction(p.infinity_sign)
        return 2 * p.x
