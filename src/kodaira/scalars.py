"""Scalar tower underlying all curve arithmetic.

Three kinds of scalar coexist and interoperate:

* exact rationals -- plain :class:`fractions.Fraction`;
* :class:`QuadExt` -- elements ``a + b*sqrt(radicand)`` of a quadratic
  extension of the rationals, in canonical form;
* :class:`ComplexApprox` -- one arbitrary-precision ``mpmath.mpc``
  carrying its working precision and an equality tolerance.

A square root leaves the exact tower in one place, :func:`tower_sqrt`:
it returns the exact root while that lies in ``Q(sqrt(radicand))`` and
a ComplexApprox root otherwise.

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

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import mpmath
from mpmath.libmp import (
    from_int,
    fzero,
    mpc_abs,
    mpc_add,
    mpc_div,
    mpc_mul,
    mpc_neg,
    mpc_pos,
    mpc_pow_int,
    mpc_sqrt,
    mpc_sub,
    mpf_div,
    round_nearest,
)

from . import DEFAULT_PREC_BITS, DEFAULT_TOL, format_rational

# distances in [tol, COINCIDENCE_GUARD * tol) are neither equal nor distinct
COINCIDENCE_GUARD = 10


def __getattr__(name):
    # the symbolic names still resolve here, loading kodaira.symbolic
    if name in ("SymbolicScalar", "symbols") or name.startswith("SYM_"):
        from . import symbolic

        return getattr(symbolic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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

    :func:`_decide` makes this decision on libmp complex differences
    without computing ``distance`` when their exponents settle it.  A
    nonzero libmp part ``(sign, man, exp, bc)`` has
    ``2^(exp+bc-1) <= |part| < 2^(exp+bc)``.  With ``top`` the largest
    ``exp + bc`` over the nonzero parts, the exact ``max |d|`` lies in
    ``[2^(top-1), sqrt(2) * 2^top)``, and since both ``2^(top-1)`` and
    ``2^(top+1)`` are representable and rounding to nearest is
    monotone, the rounded distance lies in ``[2^(top-1), 2^(top+1)]``.
    A positive float ``t`` with ``frexp(t)[1] == e`` has
    ``2^(e-1) <= t < 2^e``.  So ``top > frexp(COINCIDENCE_GUARD * tol)[1]``
    puts the distance at or above the guard (False), and
    ``top < frexp(tol)[1] - 2`` puts it below ``tol`` (True).  Anything
    else comes here.
    """
    if distance < tol:
        return True
    if distance >= COINCIDENCE_GUARD * tol:
        return False
    raise AmbiguousCoincidenceError(
        f"distance {mpmath.nstr(mpmath.mpf(distance), 8)} within the ambiguity band "
        f"[{tol}, {COINCIDENCE_GUARD * tol}) during {check_name}",
        check_name=check_name, distance=distance, tol=tol)


@functools.lru_cache(maxsize=256)
def _exponent_bounds(tol):
    """``(distinct_above, coincident_below)``: the exponent thresholds of :func:`_decide`.

    None unless ``tol`` and ``COINCIDENCE_GUARD * tol`` are positive
    finite floats; :func:`coincide` then decides every distance.
    """
    if not isinstance(tol, float):
        return None
    tol_mantissa, tol_exponent = math.frexp(tol)
    guard_mantissa, guard_exponent = math.frexp(COINCIDENCE_GUARD * tol)
    if not (0.5 <= tol_mantissa < 1 and 0.5 <= guard_mantissa < 1):
        return None
    return guard_exponent, tol_exponent - 2


def _top_exponent(differences):
    """The largest ``exp + bc`` over the nonzero parts of libmp complex ``differences``.

    ``-inf`` when every part is zero, which is a coincidence for every
    positive ``tol``; None when a part is infinite or nan.
    """
    top = -math.inf
    for difference in differences:
        for _, man, exp, bc in difference:
            if man:
                if exp + bc > top:
                    top = exp + bc
            elif bc:  # inf and nan; a zero has bc == 0
                return None
    return top


def _decide(differences, prec: int, tol, check_name: str) -> bool:
    """``coincide(max |d|, tol, check_name)`` over libmp complex ``differences``.

    ``|d|`` is rounded to ``prec`` bits.  It is computed only when the
    differences' exponents do not settle the decision (see :func:`coincide`).
    """
    bounds = _exponent_bounds(tol)
    top = _top_exponent(differences) if bounds else None
    if top is not None:
        distinct_above, coincident_below = bounds
        if top > distinct_above:
            return False
        if top < coincident_below:
            return True
    distance = max(_make_mpf(mpc_abs(d, prec, round_nearest)) for d in differences)
    return coincide(distance, tol, check_name)


def parse_rational(text: str) -> Fraction:
    """Parse ``"num/den"`` (or a plain integer/decimal string) exactly."""
    return Fraction(text.strip())


def parse_lambda_spec(text: str):
    """Parse ``"num/den"`` into a Fraction or ``"re,im"`` into a string pair."""
    text = text.strip()
    if "," in text:
        re_part, im_part = text.split(",", 1)
        return (re_part.strip(), im_part.strip())
    return parse_rational(text)


def lambda_at(spec, prec: int, tol: float):
    """Materialise a lambda spec at a given precision."""
    if isinstance(spec, Fraction):
        return spec
    re_part, im_part = spec
    return ComplexApprox.from_re_im_strings(re_part, im_part, prec, tol)


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


# ComplexApprox arithmetic calls the libmp kernel that mpmath's own mpc
# operator calls inside ``workprec(prec)``, at the result's precision and
# rounding to nearest, so every bit is the same; it neither reads nor sets
# the global precision.
_make_mpc = mpmath.mp.make_mpc
_make_mpf = mpmath.mp.make_mpf


def _rsub(z, w, prec, rounding):
    return mpc_sub(w, z, prec, rounding)


def _rdiv(z, w, prec, rounding):
    return mpc_div(w, z, prec, rounding)


def _lift_to_mpc(value, prec: int) -> tuple:
    """Lift a scalar (or a Python or mpmath number) to a libmp complex rounded to ``prec`` bits."""
    if isinstance(value, ComplexApprox):
        return mpc_pos(value.z._mpc_, prec, round_nearest)
    if isinstance(value, int):
        return from_int(value, prec, round_nearest), fzero
    if isinstance(value, Fraction):
        # mpf(numerator) / denominator, as mpmath rounds it at ``prec``
        quotient = mpf_div(from_int(value.numerator, prec, round_nearest),
                           from_int(value.denominator), prec, round_nearest)
        return quotient, fzero
    if isinstance(value, QuadExt):
        return value.to_mpc(prec)._mpc_
    if isinstance(value, (float, complex, mpmath.mpf, mpmath.mpc)):
        with mpmath.workprec(prec):
            return mpmath.mpc(value.real, value.imag)._mpc_
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
        return cls(_make_mpc(_lift_to_mpc(value, prec)), prec, tol)

    @classmethod
    def from_re_im_strings(cls, re: str, im: str, prec: int = DEFAULT_PREC_BITS,
                           tol: float = DEFAULT_TOL) -> "ComplexApprox":
        with mpmath.workprec(prec):
            return cls(mpmath.mpc(re, im), prec, tol)

    def _operand(self, other):
        """``other`` as a libmp complex, with the precision and tolerance of a result."""
        if isinstance(other, ComplexApprox):
            return other.z._mpc_, max(self.prec, other.prec), max(self.tol, other.tol)
        return _lift_to_mpc(other, self.prec), self.prec, self.tol

    def _binary(self, other, op):
        """``op(self, other)`` for a libmp kernel ``op``, at the result's precision."""
        try:
            zo, prec, tol = self._operand(other)
        except TypeError:
            return NotImplemented
        return ComplexApprox(_make_mpc(op(self.z._mpc_, zo, prec, round_nearest)), prec, tol)

    def _unary(self, op, *args):
        """``op(self, *args)`` for a libmp kernel ``op``, at ``self.prec``."""
        return ComplexApprox(_make_mpc(op(self.z._mpc_, *args, self.prec, round_nearest)),
                             self.prec, self.tol)

    def __add__(self, other):
        return self._binary(other, mpc_add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, mpc_sub)

    def __rsub__(self, other):
        return self._binary(other, _rsub)

    def __mul__(self, other):
        return self._binary(other, mpc_mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, ComplexApprox) and other.is_zero():
            raise ZeroDivisionError("division by (approximately) zero")
        if isinstance(other, (int, Fraction)) and other == 0:
            raise ZeroDivisionError("division by zero")
        return self._binary(other, mpc_div)

    def __rtruediv__(self, other):
        if self.is_zero():
            raise ZeroDivisionError("division by (approximately) zero")
        return self._binary(other, _rdiv)

    def __neg__(self):
        return self._unary(mpc_neg)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        return self._unary(mpc_pow_int, n)

    def sqrt(self) -> "ComplexApprox":
        return self._unary(mpc_sqrt)

    def abs_value(self) -> mpmath.mpf:
        return _make_mpf(mpc_abs(self.z._mpc_, self.prec, round_nearest))

    def distance(self, other) -> mpmath.mpf:
        prec = decision_scale((self, other))[0]
        return _make_mpf(mpc_abs(_difference(self, other, prec), prec, round_nearest))

    def is_zero(self) -> bool:
        return _decide((self.z._mpc_,), self.prec, self.tol, "zero-test")

    # nstr prints a given number of digits, whatever the context's precision
    def __repr__(self):
        return f"~({mpmath.nstr(self.z.real, 17)} + {mpmath.nstr(self.z.imag, 17)}j)"

    def to_str(self, digits: int = 40) -> str:
        return f"{mpmath.nstr(self.z.real, digits)},{mpmath.nstr(self.z.imag, digits)}"


def _difference(u, v, prec: int):
    """``u - v`` as a libmp complex, of two scalars lifted to ``prec`` bits."""
    return mpc_sub(_lift_to_mpc(u, prec), _lift_to_mpc(v, prec), prec, round_nearest)


# ---------------------------------------------------------------------------
# Square roots inside the exact tower
# ---------------------------------------------------------------------------


def sqrt_in_tower(x, radicand=None):
    """Exact square root of ``x`` within ``Q(sqrt(radicand))`` if possible.

    Returns a Fraction or QuadExt ``y`` with ``y*y == x``, or None when
    the root leaves the tower, as :func:`rational_sqrt` does.  A QuadExt
    ``x`` is rooted in its own field.  :func:`tower_sqrt` is the one
    caller that falls back to ComplexApprox arithmetic on None.
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
        return None
    if isinstance(x, QuadExt):
        # solve (c + d*sqrt(rad))^2 == a + b*sqrt(rad)
        n = rational_sqrt(x.norm())
        if n is None:
            return None
        for signed in (n, -n):
            csq = (x.a + signed) / 2
            c = rational_sqrt(csq)
            if c is not None and c != 0:
                d = x.b / (2 * c)
                candidate = quadext(c, d, x.radicand)
                if candidate * candidate == x:
                    return candidate
        return None
    raise TypeError(f"sqrt_in_tower expects an exact scalar, got {type(x).__name__}")


def tower_sqrt(x, radicand, prec: int, tol: float):
    """A square root of ``x``, exact while it stays in the tower.

    The root of :func:`sqrt_in_tower` when ``x`` is exact and its root
    lies in ``Q(sqrt(radicand))``; otherwise ``as_approx(x, prec,
    tol).sqrt()``, which roots an approximate ``x`` at its own precision
    and tolerance.
    """
    if is_exact(x):
        root = sqrt_in_tower(x, radicand)
        if root is not None:
            return root
    return as_approx(x, prec, tol).sqrt()


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
    scale = decision_scale(a + b)
    if scale is None:
        return a == b
    prec, tol = scale
    return _decide([_difference(u, v, prec) for u, v in zip(a, b)], prec, tol, check_name)


def coordinate_separates(a: tuple, b: tuple, k: int, check_name: str) -> bool:
    """Whether coordinate ``k`` alone makes ``coordinates_equal(a, b)`` False.

    That call classifies the max-norm distance, which is at least
    ``|a[k] - b[k]|``; measured here at the same precision and tolerance,
    a ``k``-th distance certified distinct decides it.  A coincident or
    ambiguous ``k``-th distance decides nothing, so it returns False
    rather than raising.  All-exact tuples separate iff ``a[k] != b[k]``.
    """
    scale = decision_scale(a + b)
    if scale is None:
        return a[k] != b[k]
    prec, tol = scale
    try:
        return not _decide((_difference(a[k], b[k], prec),), prec, tol, check_name)
    except AmbiguousCoincidenceError:
        return False


def decision_scale(values: tuple):
    """``(prec, tol)`` of a decision on ``values``: the largest among the approximate ones."""
    approx = [v for v in values if isinstance(v, ComplexApprox)]
    if not approx:
        return None
    return max(v.prec for v in approx), max(v.tol for v in approx)


def scalar_to_json(x):
    """Tagged, canonical JSON form; rationals as ``"num/den"`` strings."""
    if isinstance(x, (int, Fraction)):
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
