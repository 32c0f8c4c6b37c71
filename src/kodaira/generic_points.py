"""Search for translation offsets on the elliptic curve with a certificate.

The configuration curve construction needs points ``e_2, ..., e_r`` on
the elliptic curve such that every ``e_i`` and every difference
``e_i - e_j`` avoids three excluded values: the identity, the difference
``delta`` of the two cover-branch images, and ``-delta``.  This module
finds such points and records every comparison in a self-contained,
re-verifiable certificate.

Strategy: locate one rational point ``P`` by searching x coordinates of
bounded height, then take ``e_i = [stride * i] P`` for the smallest
stride whose exclusion checks all pass.  As ``e_j - e_i = [(j - i) *
stride] P``, each exclusion is decided once per multiple ``[k * stride]
P``, k = 1..r, by evaluating the group law; no torsion or rank
assumption is made.  Without a rational point the search uses the known
point ``(0, sqrt(lam))``: exact in Q(sqrt(lam)) for a rational
parameter, ComplexApprox for a complex one, whose certificate is marked
``approximate``.  An exclusion in the ambiguity band of
:func:`kodaira.scalars.coincide` counts as not passed, so the search
rejects a stride it cannot certify.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .elliptic import EC_INFINITY, EllipticCurve, EllipticPoint, point_to_json, points_equal
from .scalars import (
    AmbiguousCoincidenceError,
    Fraction,
    decision_scale,
    is_approx,
    rational_sqrt,
    scalar_to_json,
    scalar_from_json,
)

EXCLUDED_NAMES = ("infinity", "delta", "neg_delta")
MAX_STRIDE = 200  # strides tried per base point


class SearchExhausted(RuntimeError):
    """No suitable base point or stride found within the given bounds."""


@dataclass(frozen=True)
class ExclusionCheck:
    subject: str        # "e2" or "e3-e2"
    excluded: str       # one of EXCLUDED_NAMES
    passed: bool

    def to_json_dict(self):
        return {"subject": self.subject, "excluded": self.excluded, "passed": self.passed}


@dataclass
class GenericityCertificate:
    """Exact (or distance-certified) record that chosen offsets are generic."""

    lam: object
    r: int
    mode: str            # "exact" or "approximate"
    stride: int
    base_point: EllipticPoint
    delta: EllipticPoint
    points: list = field(default_factory=list)   # e_2 .. e_r
    checks: list = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def offsets(self) -> list:
        return list(self.points)

    def to_json_dict(self):
        return {
            "schema": "1",
            "lam": scalar_to_json(self.lam),
            "r": self.r,
            "mode": self.mode,
            "stride": self.stride,
            "base_point": point_to_json(self.base_point),
            "delta": point_to_json(self.delta),
            "points": [point_to_json(p) for p in self.points],
            "checks": [c.to_json_dict() for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "GenericityCertificate":
        obj = json.loads(text)
        return cls(
            lam=scalar_from_json(obj["lam"]),
            r=int(obj["r"]),
            mode=obj["mode"],
            stride=int(obj["stride"]),
            base_point=_point_from_json(obj["base_point"]),
            delta=_point_from_json(obj["delta"]),
            points=[_point_from_json(p) for p in obj["points"]],
            checks=[ExclusionCheck(c["subject"], c["excluded"], c["passed"])
                    for c in obj["checks"]],
        )


def _point_from_json(obj) -> EllipticPoint:
    if obj.get("infinity"):
        return EC_INFINITY
    return EllipticPoint(scalar_from_json(obj["x"]), scalar_from_json(obj["y"]))


def _progression(curve: EllipticCurve, base: EllipticPoint, stride: int, r: int) -> list:
    """``[k * stride] base`` for k = 1..r: one checked ``multiply``, then unchecked sums."""
    step = curve.multiply(stride, base)
    multiples = [step]
    for _ in range(1, r):
        multiples.append(curve._add(multiples[-1], step))
    return multiples


def _avoids(point: EllipticPoint, excluded: tuple) -> list:
    """Whether ``point`` is certifiably distinct from each excluded value."""
    passed = []
    for value in excluded:
        try:
            passed.append(not points_equal(point, value, "genericity-exclusion"))
        except AmbiguousCoincidenceError:
            passed.append(False)  # ambiguous: not certifiably distinct
    return passed


def _checks(curve: EllipticCurve, multiples: list, delta: EllipticPoint) -> list:
    """Every exclusion for e_2..e_r, in a fixed order: ``e_i`` reads multiple
    i and ``e_j-e_i`` reads multiple j - i, each decided once."""
    excluded = (EC_INFINITY, delta, curve.neg(delta))
    table = [_avoids(m, excluded) for m in multiples]  # multiple k at k - 1
    r = len(multiples)
    subjects = [(f"e{i}", i) for i in range(2, r + 1)]
    subjects += [(f"e{j}-e{i}", j - i) for i in range(2, r + 1) for j in range(i + 1, r + 1)]
    return [ExclusionCheck(subject, name, passed)
            for subject, k in subjects
            for name, passed in zip(EXCLUDED_NAMES, table[k - 1])]


def find_rational_point(curve: EllipticCurve, bound: int):
    """Smallest-height rational point, by x = a/b search with |a|, b <= bound."""
    if not isinstance(curve.lam, Fraction):
        return None
    for a_abs in range(0, bound + 1):
        for b in range(1, bound + 1):
            if math.gcd(a_abs, b) != 1:
                continue  # tried in lowest terms already (0 at b = 1)
            for a in sorted({a_abs, -a_abs}):
                x = Fraction(a, b)
                y = rational_sqrt(curve.rhs(x))
                if y is not None:
                    return EllipticPoint(x, y)
    return None


def _base_point_ladder(curve: EllipticCurve, bound: int):
    """Base-point candidates in decreasing order of preference.

    A rational point of height at most ``bound`` first (rational ``lam``
    only), then the known point ``(0, sqrt(lam))``.  For a rational
    ``lam`` that point is exact, in Q or in Q(sqrt(lam)); an approximate
    candidate only comes from a complex ``lam``, and is always the known
    point: :func:`base_point_at` relies on that.
    """
    found = find_rational_point(curve, bound)
    if found is not None:
        yield found
    yield curve.branch_image(+1)


def base_point_at(curve: EllipticCurve, base: EllipticPoint) -> EllipticPoint:
    """A certificate's base point re-made on ``curve``, at its precision.

    An exact base is the same point at every precision.  An approximate
    one is the known point ``(0, sqrt(lam))`` of a complex ``lam`` (see
    the search ladder), which ``curve`` makes at its own precision.
    """
    if not is_approx(base.y):
        return base
    return curve.branch_image(+1)


def certify_stride(curve: EllipticCurve, r: int, base: EllipticPoint,
                   stride: int) -> GenericityCertificate:
    """The offsets ``e_i = [stride * i] base`` with every exclusion decided.

    One step of the search of :func:`find_generic_points`; the returned
    certificate may fail.  It is ``approximate`` when the base point or
    ``delta`` carries ComplexApprox coordinates.
    """
    delta = curve.delta()
    mode = "approximate" if is_approx(base.y) or is_approx(delta.x) else "exact"
    multiples = _progression(curve, base, stride, r)
    return GenericityCertificate(
        lam=curve.lam, r=r, mode=mode, stride=stride, base_point=base, delta=delta,
        points=multiples[1:], checks=_checks(curve, multiples, delta),
    )


def find_generic_points(curve: EllipticCurve, r: int, bound: int = 30) -> GenericityCertificate:
    """Offsets ``e_2..e_r`` passing all exclusions, with full certificate.

    Sweeps strides up to :data:`MAX_STRIDE` over each base-point
    candidate in turn; every exclusion is decided by evaluation, so a
    torsion base simply fails its strides and the search moves down the
    ladder.  Raises :class:`SearchExhausted` when no combination passes.
    """
    if r < 2:
        raise ValueError("r must be at least 2")

    for base in _base_point_ladder(curve, bound):
        for stride in range(1, MAX_STRIDE + 1):
            cert = certify_stride(curve, r, base, stride)
            if cert.all_passed:
                return cert
    raise SearchExhausted(f"no stride up to {MAX_STRIDE} passed the exclusions")


def verify_certificate(cert: GenericityCertificate) -> bool:
    """Recompute every exclusion from scratch; True iff all hold.

    Self-contained: depends only on the certificate contents.  Exact
    certificates are re-verified with exact arithmetic; approximate ones
    at the precision and tolerance their own values carry.  Points other
    than ``[stride * i] base_point``, i = 2..r, of an on-curve base fail.

    An ambiguous exclusion counts as not passed, but a ``delta`` (or the
    base point's on-curve test, or a point's match with its multiple)
    in the guard band of :func:`kodaira.scalars.coincide` raises
    :class:`AmbiguousCoincidenceError` instead of returning False.  Only
    :func:`kodaira.verifier.verify_claim` escalates precision on that
    raise; any other caller receives it.
    """
    if len(cert.points) != cert.r - 1:
        return False
    values = [cert.lam]
    for p in (cert.base_point, cert.delta, *cert.points):
        values += [p.x, p.y]  # both None at infinity
    scale = decision_scale(tuple(values))
    curve = EllipticCurve(cert.lam, *scale) if scale else EllipticCurve(cert.lam)
    if not points_equal(cert.delta, curve.delta(), "certificate-delta"):
        return False
    if not curve.contains(cert.base_point):
        return False
    multiples = _progression(curve, cert.base_point, cert.stride, cert.r)
    if not all(points_equal(p, m, "certificate-offset")
               for p, m in zip(cert.points, multiples[1:])):
        return False
    return all(c.passed for c in _checks(curve, multiples, cert.delta))
