"""The elliptic curve ``y^2 = x^3 + lam*x + lam`` and its group law.

The parameter ``lam`` must avoid 0 and -27/4, where the discriminant
``-16*(4*lam^3 + 27*lam^2)`` vanishes.  Points are immutable; the curve
object owns the chord-tangent group operations, with the point at
infinity as neutral element.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import DEFAULT_PREC_BITS, DEFAULT_TOL
from .scalars import (
    as_approx,
    coordinates_equal,
    is_approx,
    is_exact,
    scalar_is_zero,
    scalar_to_json,
    scalars_equal,
    tower_sqrt,
)


class OffCurveError(ValueError):
    """A point handed to a curve operation does not lie on the curve."""


class SingularCurveError(ValueError):
    """The parameter value makes the curve singular (lam in {0, -27/4})."""


@dataclass(frozen=True)
class EllipticPoint:
    x: object = None
    y: object = None

    @classmethod
    def infinity(cls) -> "EllipticPoint":
        return cls(None, None)

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self):
        if self.is_infinity:
            return "EllipticPoint(infinity)"
        return f"EllipticPoint({self.x!r}, {self.y!r})"


EC_INFINITY = EllipticPoint.infinity()


def points_equal(p: EllipticPoint, q: EllipticPoint,
                 check_name: str = "elliptic-point-equality") -> bool:
    if p.is_infinity or q.is_infinity:
        return p.is_infinity and q.is_infinity
    return coordinates_equal((p.x, p.y), (q.x, q.y), check_name)


def point_to_json(p) -> dict:
    """A point of either curve as JSON: its coordinates, or at infinity
    ``True`` (the elliptic identity) or its sign (a genus-2 label)."""
    if p.is_infinity:
        return {"infinity": getattr(p, "infinity_sign", True)}
    return {"x": scalar_to_json(p.x), "y": scalar_to_json(p.y)}


class EllipticCurve:
    """``y^2 = x^3 + lam*x + lam`` with the standard group law."""

    def __init__(self, lam, prec: int = DEFAULT_PREC_BITS, tol: float = DEFAULT_TOL):
        if isinstance(lam, int):
            lam = Fraction(lam)
        if tol < 2.0 ** -prec:
            raise ValueError(f"tol {tol!r} is below 2**-{prec}, finer than {prec} bits "
                             "resolve: raise the tolerance or the precision")
        self.lam = lam
        self.prec = prec
        self.tol = tol
        if not self._nonsingular():
            raise SingularCurveError(f"lam={lam!r} gives a singular curve")

    def _nonsingular(self) -> bool:
        """``lam`` avoids 0 and -27/4, the roots of the discriminant."""
        return not (scalar_is_zero(self.lam) or scalars_equal(self.lam, Fraction(-27, 4)))

    def __repr__(self):
        return f"EllipticCurve(lam={self.lam!r})"

    def rhs(self, x):
        """Right-hand side ``x^3 + lam*x + lam``."""
        return x * x * x + self.lam * x + self.lam

    def residual(self, p: EllipticPoint):
        return p.y * p.y - self.rhs(p.x)

    def contains(self, p: EllipticPoint) -> bool:
        if p.is_infinity:
            return True
        return scalar_is_zero(self.residual(p))

    def _require(self, p: EllipticPoint):
        if not self.contains(p):
            raise OffCurveError(f"{p!r} is not on {self!r}")

    # -- group law ----------------------------------------------------------

    def neg(self, p: EllipticPoint) -> EllipticPoint:
        if p.is_infinity:
            return p
        return EllipticPoint(p.x, -p.y)

    def add(self, p: EllipticPoint, q: EllipticPoint) -> EllipticPoint:
        """``p + q``; raises :class:`OffCurveError` for an argument off the curve."""
        self._require(p)
        self._require(q)
        return self._add(p, q)

    def _add(self, p: EllipticPoint, q: EllipticPoint) -> EllipticPoint:
        """:meth:`add` without the on-curve checks, for points on the curve by construction.

        The callers: :meth:`multiply`, which checks ``p`` once;
        ``generic_points._progression``, which sums multiples of a checked
        base; ``ConfigurationCurve.projection_fiber``, which adds the
        offsets to the cover image of a fiber point; and
        ``ConfigurationCurve.slot_facts``, which adds an offset it has
        decided on the curve to the cover image of a choice it has decided
        on the curve.
        """
        if p.is_infinity:
            return q
        if q.is_infinity:
            return p
        if scalars_equal(p.x, q.x, "group-law-x"):
            if scalars_equal(p.y, -q.y, "group-law-negation"):
                return EC_INFINITY
            # tangent line at the doubled point
            m = (3 * p.x * p.x + self.lam) / (2 * p.y)
        else:
            m = (q.y - p.y) / (q.x - p.x)
        x3 = m * m - p.x - q.x
        y3 = m * (p.x - x3) - p.y
        return EllipticPoint(x3, y3)

    def sub(self, p: EllipticPoint, q: EllipticPoint) -> EllipticPoint:
        return self.add(p, self.neg(q))

    def multiply(self, n: int, p: EllipticPoint) -> EllipticPoint:
        """``n``-fold sum by double-and-add; ``p`` is checked once, the sums are not."""
        self._require(p)
        if n < 0:
            n, p = -n, self.neg(p)
        result = EC_INFINITY
        base = p
        while n:
            if n & 1:
                result = self._add(result, base)
            base = self._add(base, base)
            n >>= 1
        return result

    # -- invariants of the curve --------------------------------------------

    def discriminant(self):
        """``-16*(4*lam^3 + 27*lam^2)``; nonzero iff the curve is smooth."""
        lam = self.lam
        return -16 * (4 * lam * lam * lam + 27 * lam * lam)

    def j_ratio(self):
        """The bare ratio ``lam^3 / (4*lam^3 + 27*lam^2)``.

        This generates the same field as the conventional j-invariant but
        omits the usual ``1728*4`` normalisation; see :meth:`j_standard`.
        """
        # cancelled by lam^2 (nonzero on a smooth curve), so the only zero
        # test is against the other root -27/4 of the discriminant
        lam = self.lam
        return lam / (4 * lam + 27)

    def j_standard(self):
        """Conventional j-invariant ``1728 * 4*lam^3 / (4*lam^3 + 27*lam^2)``."""
        return 1728 * 4 * self.j_ratio()

    # -- distinguished points -----------------------------------------------

    def sqrt_lam(self):
        """``sqrt(lam)``: exact for a rational ``lam``, in Q or in Q(sqrt(lam)),
        and a ComplexApprox for a complex one."""
        if not (isinstance(self.lam, Fraction) or is_approx(self.lam)):
            raise TypeError("sqrt(lam) needs a concrete (rational or complex) lam")
        return tower_sqrt(self.lam, self.lam, self.prec, self.tol)

    def branch_image(self, sign: int = +1) -> EllipticPoint:
        """The point ``(0, +/- sqrt(lam))``: image of a cover branch point."""
        root = self.sqrt_lam()
        return EllipticPoint(Fraction(0) if is_exact(root) else as_approx(0, self.prec, self.tol),
                             root if sign > 0 else -root)

    @cached_property
    def branch_image_difference(self) -> EllipticPoint:
        """Difference of the two branch images under the group law.

        Equals the double of ``(0, sqrt(lam))``; in closed form
        ``(lam/4, -sqrt(lam)*(lam+8)/8)``.
        """
        return self.multiply(2, self.branch_image(+1))

    def delta(self) -> EllipticPoint:
        return self.branch_image_difference
