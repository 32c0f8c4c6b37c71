"""Scalar tower underlying all curve arithmetic.

Three kinds of scalar coexist and interoperate:

* exact rationals -- plain :class:`fractions.Fraction`;
* :class:`QuadExt` -- elements ``a + b*sqrt(radicand)`` of a quadratic
  extension of the rationals, in canonical form;
* :class:`ComplexApprox` -- one arbitrary-precision ``mpmath.mpc``
  carrying its working precision and an equality tolerance.

The symbolic kind, exact rational functions in formal symbols such as
``gamma`` and ``r``, lives in :mod:`kodaira.symbolic`.  Its names stay
importable from here and load that module on first use.

Exact kinds satisfy the field axioms exactly and compare exactly.
ComplexApprox satisfies them to within its tolerance, and every
equality or zero test that involves one is a call to :func:`coincide`,
which has three outcomes: a distance below ``tol`` is a coincidence, a
distance of ``COINCIDENCE_GUARD * tol`` or more is certified distinct,
and a distance in between raises :class:`AmbiguousCoincidenceError` so
the caller can escalate precision instead of guessing.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import mpmath

DEFAULT_PREC_BITS = 256
DEFAULT_TOL = 1e-30
# distances in [tol, COINCIDENCE_GUARD * tol) are neither equal nor distinct
COINCIDENCE_GUARD = 10


def __getattr__(name):
    # the symbolic names still resolve here, loading kodaira.symbolic
    if name in ("SymbolicScalar", "symbols") or name.startswith("SYM_"):
        from . import symbolic

        return getattr(symbolic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class NotRepresentable:
    """Outcome of a square root that leaves the exact tower.

    This is a normal result, not an error: callers fall back to
    :class:`ComplexApprox` arithmetic when they receive it.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NOT_REPRESENTABLE"

    def __bool__(self):
        return False


NOT_REPRESENTABLE = NotRepresentable()


class AmbiguousCoincidenceError(RuntimeError):
    """A distance fell between the coincidence and separation thresholds.

    Carries enough context for the escalation policy to re-run the check
    at doubled precision.
    """

    def __init__(self, message, check_name=None, distance=None, tol=None):
        super().__init__(message)
        self.check_name = check_name
        self.distance = distance
        self.tol = tol


def coincide(distance, tol, check_name: str) -> bool:
    """The one approximate decision: is ``distance`` a coincidence?

    True below ``tol``, False from ``COINCIDENCE_GUARD * tol`` on; the
    band in between raises :class:`AmbiguousCoincidenceError` rather
    than a silent call either way.
    """
    if distance < tol:
        return True
    if distance >= COINCIDENCE_GUARD * tol:
        return False
    raise AmbiguousCoincidenceError(
        f"distance {mpmath.nstr(mpmath.mpf(distance), 8)} within the ambiguity band "
        f"[{tol}, {COINCIDENCE_GUARD * tol}) during {check_name}",
        check_name=check_name, distance=distance, tol=tol)


def parse_rational(text: str) -> Fraction:
    """Parse ``"num/den"`` (or a plain integer/decimal string) exactly."""
    return Fraction(text.strip())


def format_rational(q) -> str:
    """Render a rational as the canonical ``"num/den"`` string."""
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def rational_sqrt(q: Fraction):
    """Exact square root of a rational, or ``None`` if irrational."""
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


# ---------------------------------------------------------------------------
# Quadratic extension Q(sqrt(radicand))
# ---------------------------------------------------------------------------


def quadext(a, b, radicand) -> Union[Fraction, "QuadExt"]:
    """Canonical element ``a + b*sqrt(radicand)``.

    Collapses to a plain Fraction when ``b == 0`` or when the radicand is
    a perfect rational square, so that a QuadExt instance always has
    ``b != 0`` and a non-square radicand; equality is then componentwise.
    """
    a, b, radicand = Fraction(a), Fraction(b), Fraction(radicand)
    if radicand == 0:
        raise ValueError("radicand must be nonzero")
    if b == 0:
        return a
    root = rational_sqrt(radicand)
    if root is not None:
        return a + b * root
    return QuadExt(a, b, radicand)


@dataclass(frozen=True)
class QuadExt:
    """``a + b*sqrt(radicand)`` with ``b != 0`` and a non-square radicand.

    Use the :func:`quadext` factory; direct construction skips the
    canonical collapse.
    """

    a: Fraction
    b: Fraction
    radicand: Fraction

    def _coerce(self, other):
        if isinstance(other, QuadExt):
            if other.radicand != self.radicand:
                return None
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(Fraction(other), Fraction(0), self.radicand)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return quadext(self.a + o.a, self.b + o.b, self.radicand)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.radicand)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return quadext(self.a - o.a, self.b - o.b, self.radicand)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return quadext(
            self.a * o.a + self.b * o.b * self.radicand,
            self.a * o.b + self.b * o.a,
            self.radicand,
        )

    __rmul__ = __mul__

    def norm(self) -> Fraction:
        """Field norm ``a^2 - b^2 * radicand`` (a rational)."""
        return self.a * self.a - self.b * self.b * self.radicand

    def conjugate(self) -> "QuadExt":
        return QuadExt(self.a, -self.b, self.radicand)

    def inverse(self):
        n = self.norm()
        if n == 0:
            # cannot happen in canonical form (radicand non-square)
            raise ZeroDivisionError("zero-norm quadratic extension element")
        return quadext(self.a / n, -self.b / n, self.radicand)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if isinstance(o, QuadExt) and o.a == 0 and o.b == 0:
            raise ZeroDivisionError("division by zero")
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return quadext(self.a / Fraction(other), self.b / Fraction(other), self.radicand)
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result: Union[Fraction, QuadExt] = Fraction(1)
        base: Union[Fraction, QuadExt] = self
        while n:
            if n & 1:
                result = base * result
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            return (
                self.a == other.a
                and self.b == other.b
                and self.radicand == other.radicand
            )
        if isinstance(other, (int, Fraction)):
            return False  # canonical QuadExt has b != 0
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.radicand))

    def __repr__(self):
        return f"({self.a} + {self.b}*sqrt({self.radicand}))"

    def to_mpc(self, prec: int) -> mpmath.mpc:
        with mpmath.workprec(prec):
            rad = mpmath.mpf(self.radicand.numerator) / self.radicand.denominator
            root = mpmath.sqrt(mpmath.mpc(rad))
            a = mpmath.mpf(self.a.numerator) / self.a.denominator
            b = mpmath.mpf(self.b.numerator) / self.b.denominator
            return a + b * root


# ---------------------------------------------------------------------------
# Arbitrary-precision complex approximations
# ---------------------------------------------------------------------------


def _lift_to_mpc(value, prec: int) -> mpmath.mpc:
    """Lift a scalar (or a Python or mpmath number) to an mpc rounded to ``prec`` bits."""
    with mpmath.workprec(prec):
        if isinstance(value, ComplexApprox):
            return +value.z
        if isinstance(value, QuadExt):
            return value.to_mpc(prec)
        if isinstance(value, Fraction):
            return mpmath.mpc(mpmath.mpf(value.numerator) / value.denominator)
        if isinstance(value, (int, float, complex, mpmath.mpf, mpmath.mpc)):
            return mpmath.mpc(value.real, value.imag)
    raise TypeError(f"cannot lift {type(value).__name__} to a complex approximation")


@dataclass(frozen=True)
class ComplexApprox:
    """Arbitrary-precision complex value with precision and tolerance.

    ``z`` holds at most ``prec`` bits, so an operation uses it as stored:
    it runs at the larger precision of its operands, lifts an exact
    operand to that, and carries the larger tolerance.  Numeric equality
    goes through :func:`scalars_equal` and zero tests through
    :meth:`is_zero`; both classify a distance with :func:`coincide`.  The
    ``==`` operator compares representations exactly (so instances stay
    hashable) and is not the numeric equality of the type.
    """

    z: mpmath.mpc
    prec: int = DEFAULT_PREC_BITS
    tol: float = DEFAULT_TOL

    @classmethod
    def of(cls, value, prec: int = DEFAULT_PREC_BITS, tol: float = DEFAULT_TOL) -> "ComplexApprox":
        return cls(_lift_to_mpc(value, prec), prec, tol)

    @classmethod
    def from_re_im_strings(cls, re: str, im: str, prec: int = DEFAULT_PREC_BITS,
                           tol: float = DEFAULT_TOL) -> "ComplexApprox":
        with mpmath.workprec(prec):
            return cls(mpmath.mpc(re, im), prec, tol)

    def _operand(self, other):
        """``other`` as an mpc, with the precision and tolerance of a result."""
        if isinstance(other, ComplexApprox):
            return other.z, max(self.prec, other.prec), max(self.tol, other.tol)
        return _lift_to_mpc(other, self.prec), self.prec, self.tol

    def _binary(self, other, op):
        try:
            zo, prec, tol = self._operand(other)
        except TypeError:
            return NotImplemented
        with mpmath.workprec(prec):
            return ComplexApprox(op(self.z, zo), prec, tol)

    def __add__(self, other):
        return self._binary(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, operator.sub)

    def __rsub__(self, other):
        return self._binary(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binary(other, operator.mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, ComplexApprox) and other.is_zero():
            raise ZeroDivisionError("division by (approximately) zero")
        if isinstance(other, (int, Fraction)) and other == 0:
            raise ZeroDivisionError("division by zero")
        return self._binary(other, operator.truediv)

    def __rtruediv__(self, other):
        if self.is_zero():
            raise ZeroDivisionError("division by (approximately) zero")
        return self._binary(other, lambda a, b: b / a)

    def __neg__(self):
        with mpmath.workprec(self.prec):
            return ComplexApprox(-self.z, self.prec, self.tol)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        with mpmath.workprec(self.prec):
            return ComplexApprox(self.z ** n, self.prec, self.tol)

    def sqrt(self) -> "ComplexApprox":
        with mpmath.workprec(self.prec):
            return ComplexApprox(mpmath.sqrt(self.z), self.prec, self.tol)

    def abs_value(self) -> mpmath.mpf:
        with mpmath.workprec(self.prec):
            return abs(self.z)

    def distance(self, other) -> mpmath.mpf:
        zo, prec, _ = self._operand(other)
        with mpmath.workprec(prec):
            return abs(self.z - zo)

    def is_zero(self) -> bool:
        return coincide(self.abs_value(), self.tol, "zero-test")

    def __repr__(self):
        with mpmath.workprec(self.prec):
            return f"~({mpmath.nstr(self.z.real, 17)} + {mpmath.nstr(self.z.imag, 17)}j)"

    def to_str(self, digits: int = 40) -> str:
        with mpmath.workprec(self.prec):
            return f"{mpmath.nstr(self.z.real, digits)},{mpmath.nstr(self.z.imag, digits)}"


# ---------------------------------------------------------------------------
# Square roots inside the exact tower
# ---------------------------------------------------------------------------


def sqrt_in_tower(x, radicand=None):
    """Exact square root of ``x`` within ``Q(sqrt(radicand))`` if possible.

    Returns a Fraction or QuadExt ``y`` with ``y*y == x``, or
    :data:`NOT_REPRESENTABLE` when the root leaves the tower (the caller
    then falls back to ComplexApprox arithmetic).
    """
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        root = rational_sqrt(x)
        if root is not None:
            return root
        if radicand is not None and radicand != 0:
            ratio = x / Fraction(radicand)
            t = rational_sqrt(ratio)
            if t is not None:
                # (t*sqrt(radicand))^2 == t^2 * radicand == x
                return quadext(0, t, radicand)
        return NOT_REPRESENTABLE
    if isinstance(x, QuadExt):
        # solve (c + d*sqrt(rad))^2 == a + b*sqrt(rad)
        n = rational_sqrt(x.norm())
        if n is None:
            return NOT_REPRESENTABLE
        for signed in (n, -n):
            csq = (x.a + signed) / 2
            c = rational_sqrt(csq)
            if c is not None and c != 0:
                d = x.b / (2 * c)
                candidate = quadext(c, d, x.radicand)
                if candidate * candidate == x:
                    return candidate
        return NOT_REPRESENTABLE
    raise TypeError(f"sqrt_in_tower expects an exact scalar, got {type(x).__name__}")


# ---------------------------------------------------------------------------
# Kind-aware helpers used throughout the curve layers
# ---------------------------------------------------------------------------

def is_exact(x) -> bool:
    return isinstance(x, (int, Fraction, QuadExt))


def is_approx(x) -> bool:
    return isinstance(x, ComplexApprox)


def as_approx(x, prec: int = DEFAULT_PREC_BITS, tol: float = DEFAULT_TOL) -> ComplexApprox:
    if isinstance(x, ComplexApprox):
        return x
    return ComplexApprox.of(x, prec, tol)


def scalar_is_zero(x) -> bool:
    if isinstance(x, ComplexApprox):
        return x.is_zero()
    return x == 0


def scalars_equal(a, b, check_name: str = "scalar-equality") -> bool:
    """Equality across kinds: exact where possible, :func:`coincide` otherwise."""
    return coordinates_equal((a,), (b,), check_name)


def coordinates_equal(a: tuple, b: tuple, check_name: str) -> bool:
    """Equality of two coordinate tuples, such as the two points' ``(x, y)``.

    All-exact tuples compare exactly.  Otherwise the max-norm distance is
    classified once, at the largest precision and tolerance among the
    approximate entries, so a coordinate inside the ambiguity band does
    not raise when another one is certifiably apart.
    """
    approx = [v for v in a + b if isinstance(v, ComplexApprox)]
    if not approx:
        return a == b
    prec = max(v.prec for v in approx)
    tol = max(v.tol for v in approx)
    with mpmath.workprec(prec):
        distance = max(abs(_lift_to_mpc(u, prec) - _lift_to_mpc(v, prec)) for u, v in zip(a, b))
    return coincide(distance, tol, check_name)


def scalar_to_json(x):
    """Tagged, canonical JSON form; rationals as ``"num/den"`` strings."""
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return {"kind": "rational", "value": format_rational(x)}
    if isinstance(x, QuadExt):
        return {
            "kind": "quadext",
            "a": format_rational(x.a),
            "b": format_rational(x.b),
            "radicand": format_rational(x.radicand),
        }
    if isinstance(x, ComplexApprox):
        digits = max(8, int(x.prec * 0.302) + 2)
        with mpmath.workprec(x.prec):
            return {
                "kind": "complex",
                "re": mpmath.nstr(x.z.real, digits),
                "im": mpmath.nstr(x.z.imag, digits),
                "prec": x.prec,
                "tol": repr(x.tol),
            }
    from .symbolic import SymbolicScalar

    if isinstance(x, SymbolicScalar):
        return {"kind": "symbolic", "value": str(x)}
    raise TypeError(f"cannot serialize scalar of type {type(x).__name__}")


def scalar_from_json(obj):
    kind = obj["kind"]
    if kind == "rational":
        return parse_rational(obj["value"])
    if kind == "quadext":
        return quadext(
            parse_rational(obj["a"]),
            parse_rational(obj["b"]),
            parse_rational(obj["radicand"]),
        )
    if kind == "complex":
        return ComplexApprox.from_re_im_strings(
            obj["re"], obj["im"], int(obj["prec"]), float(obj["tol"])
        )
    if kind == "symbolic":
        from .symbolic import from_string

        return from_string(obj["value"])
    raise ValueError(f"unknown scalar kind {kind!r}")
