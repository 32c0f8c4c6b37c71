"""The configuration curve inside the r-fold product of the genus-2 curve.

Given offsets ``e_2, ..., e_r`` on the elliptic quotient, the
configuration curve consists of the r-tuples ``(p_1, ..., p_r)`` of
genus-2 points with ``cover(p_i) = cover(p_1) + e_i`` for ``2 <= i <= r``
(group law on the elliptic curve).  This module provides everything that
can be computed about it at desk scale: membership, fibers over the
first coordinate, Jacobian matrices and their structural rank
(smoothness), the branch points of the forget-last-coordinate tower and
their count ``2^r``, the genus by Riemann-Hurwitz recursion against its
closed form ``r * 2^(r-1) + 1``, and coordinate-projection degrees
``2^(r-1)``.

Every enumeration of tuples is :meth:`ConfigurationCurve.projection_fiber`:
a product of per-slot choices, each a cover fiber of one or two points or
a single given point.  The later fibers depend only on ``cover(p_1)``,
which both choices of ``p_1`` share, so every slot has one fiber for the
whole enumeration and two tuples differ at the first slot where their
choices differ.  So the tuples are pairwise distinct once the two points
of every two-point slot fiber are certified distinct: one decision per
slot, made on the points in the coordinate kind the tuples carry.

Membership and rank are checked tuple by tuple, but the tuples of one
enumeration share their point objects: a fiber of ``2^(r-1)`` tuples holds
``O(r)`` points and ``O(r^2)`` slot pairs.  So :meth:`~ConfigurationCurve.contains`
and :meth:`~ConfigurationCurve.jacobian` look every decision up in a memo
scoped to one enumeration (:class:`_Decisions`), which makes it on first
use: on-curve per point, the expected image ``cover(p_1) + e_i`` per
``(i, p_1)``, the cover condition per ``(i, p_1, p_i)``, distinctness per
slot-ordered pair ``(p_i, p_j)``, the cover derivative and its zero test
per point, and the branch sign per last coordinate.  Every tuple is still
walked coordinate by coordinate, so a wrongly assembled tuple still fails.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .elliptic import points_equal
from .genus2 import GenusTwoCurve, GenusTwoPoint, genus2_points_equal
from .scalars import (
    AmbiguousCoincidenceError,
    ComplexApprox,
    as_approx,
    scalar_is_zero,
    scalar_to_json,
)

_ZERO = Fraction(0)  # the vanishing Jacobian entries share one value


class MixedKindError(ValueError):
    """A tuple mixes exact and approximate coordinates."""


@dataclass(frozen=True)
class ConfigTuple:
    """Candidate member of the configuration curve: r genus-2 points."""

    points: tuple

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i):
        return self.points[i]

    def kinds_uniform(self) -> bool:
        kinds = {p.is_exact for p in self.points if not p.is_infinity}
        return len(kinds) <= 1

    def as_approx(self, prec: int, tol: float) -> "ConfigTuple":
        converted = []
        for p in self.points:
            if p.is_infinity:
                converted.append(p)
            else:
                converted.append(GenusTwoPoint.affine(
                    as_approx(p.x, prec, tol), as_approx(p.y, prec, tol)))
        return ConfigTuple(tuple(converted))

    def to_json_dict(self):
        out = []
        for p in self.points:
            if p.is_infinity:
                out.append({"infinity": p.infinity_sign})
            else:
                out.append({"x": scalar_to_json(p.x), "y": scalar_to_json(p.y)})
        return out


@dataclass
class JacobianReport:
    matrix: list                 # (r-1) x r entries
    rank: int
    full_rank: bool = True       # False flags a genericity violation


@dataclass
class TowerReport:
    """Counts and genera for the forget-last-coordinate tower."""

    r: int
    branch_count: int
    per_level_branch_counts: dict
    genus_by_recursion: int
    genus_closed_form: int
    fiber_degree_estimate: int
    deg_cover: int = 1
    base_genus: int = 0
    base_euler_relation: str = ""
    notes: str = ""

    def consistent(self) -> bool:
        return self.genus_by_recursion == self.genus_closed_form

    def to_json_dict(self):
        return {
            "r": self.r,
            "branch_count": self.branch_count,
            "per_level_branch_counts": {str(k): v for k, v in
                                        sorted(self.per_level_branch_counts.items())},
            "genus_by_recursion": self.genus_by_recursion,
            "genus_closed_form": self.genus_closed_form,
            "fiber_degree_estimate": self.fiber_degree_estimate,
            "deg_cover": self.deg_cover,
            "base_genus": self.base_genus,
            "base_euler_relation": self.base_euler_relation,
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


# ---------------------------------------------------------------------------
# Genus of the tower
# ---------------------------------------------------------------------------


def tower_genus_recursion(r: int) -> int:
    """Genus via the double-cover recursion.

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


def base_genus_from_cover_degree(r: int, deg_cover: int = 1) -> int:
    """Genus of an unramified degree-``deg_cover`` cover of the tower top.

    Riemann-Hurwitz with no ramification:
    ``2*gamma - 2 = deg_cover * (2*g - 2)`` with ``g = r*2^(r-1) + 1``,
    hence ``gamma = 1 + deg_cover * r * 2^(r-1)``.
    """
    return 1 + deg_cover * r * 2 ** (r - 1)


BASE_EULER_RELATION = "2*gamma - 2 = deg_cover * (2*(r*2^(r-1)+1) - 2)"

BASE_EULER_NOTE = (
    "base genus follows the unramified-cover relation "
    "2*gamma - 2 = deg_cover * (2*g_top - 2) with g_top = r*2^(r-1)+1; "
    "the shorter normalisation 2*gamma - 2 = deg_cover * 2^r is inconsistent "
    "with the per-section pullback count (gamma-1)/r = deg_cover * 2^(r-1) "
    "that the projection-degree check measures, and is not used"
)


# ---------------------------------------------------------------------------
# The configuration curve
# ---------------------------------------------------------------------------


class ConfigurationCurve:
    """Membership, fibers, Jacobians and branch data for given offsets."""

    def __init__(self, curve: GenusTwoCurve, offsets: list):
        self.curve = curve
        self.elliptic = curve.elliptic_quotient()
        self.offsets = list(offsets)          # e_2 .. e_r
        self.r = len(self.offsets) + 1

    # -- membership ---------------------------------------------------------------

    def contains(self, tup: ConfigTuple, decisions: "_Decisions" = None) -> bool:
        """Full membership test: on-curve, cover conditions, distinctness.

        Mixed exact/approximate coordinate kinds are rejected outright.
        Each decision is looked up in ``decisions``, the memo of the
        enumeration ``tup`` belongs to, and made there once: on-curve per
        point, the expected image ``cover(p_1) + e_i`` per ``(i, p_1)``, the
        cover condition per ``(i, p_1, p_i)`` and distinctness per
        slot-ordered pair ``(p_i, p_j)``, ``i < j``.  Distinctness is
        decided per slot pair, not assumed from the genericity certificate
        (whose offsets make the images ``cover(p_1) + e_i`` pairwise
        distinct): a tuple that repeats a point must fail here.  Without a
        memo the call makes its own, so one call decides everything once.
        """
        if len(tup) != self.r:
            return False
        if not tup.kinds_uniform():
            raise MixedKindError("tuple mixes exact and approximate coordinates")
        known = _Decisions(self) if decisions is None else decisions
        if not all(known.on_curve(p) for p in tup):
            return False
        p1 = tup[0]
        if not all(known.covers(i, p1, p) for i, p in enumerate(tup.points[1:], start=2)):
            return False
        # tuples with two coincident coordinates are excluded by definition
        return not any(known.coincide(p, q) for p, q in itertools.combinations(tup, 2))

    # -- fibers over the first coordinate ------------------------------------------

    def fiber_over_first(self, p1: GenusTwoPoint) -> list:
        """All tuples of the configuration curve with first coordinate ``p1``."""
        return self.projection_fiber(1, p1)

    # -- Jacobian and rank -----------------------------------------------------------

    def jacobian(self, tup: ConfigTuple, decisions: "_Decisions" = None) -> JacobianReport:
        """The (r-1) x r Jacobian of the defining map at a member tuple.

        Row ``i-1`` expresses the condition on slot ``i``: its first
        column holds ``-d(cover)/dx`` at ``p_1`` and column ``i`` holds
        ``d(cover)/dx`` at ``p_i`` (value ``2x`` in the affine chart, a
        unit at the chart boundary); all other entries vanish.  The rank
        of this arrowhead is counted structurally by :func:`arrowhead_rank`,
        for exact and approximate tuples alike.  The derivative and its
        zero test are decided once per point, and the entry ``-d_1`` once
        per ``p_1``, in ``decisions`` as in :meth:`contains`.
        """
        known = _Decisions(self) if decisions is None else decisions
        r = self.r
        derivs = [known.derivative(p) for p in tup]
        first = known.negated_derivative(tup[0])
        matrix = [[first] + [derivs[i] if k == i else _ZERO for k in range(1, r)]
                  for i in range(1, r)]
        rank = arrowhead_rank(derivs, known.is_zero)
        return JacobianReport(matrix, rank, full_rank=(rank == r - 1))

    # -- branch points of the forget-last-coordinate tower ------------------------------

    def branch_points(self) -> list:
        """The branch points of the double cover forgetting the last slot.

        These are the member tuples whose last coordinate is one of the two
        cover-critical points: the last slot's projection fibers over both.
        Each fiber's tuples are certified distinct slot by slot, and two
        tuples from different fibers differ in the last slot once the two
        critical points are certified distinct.  So ``O(r)`` decisions
        certify all ``2^r`` tuples pairwise distinct, not ``O(4^r)``.
        """
        if self.r < 2:
            raise ValueError("the forget-last-coordinate tower needs r >= 2")
        plus, minus = self._critical_fibers
        self._certify_distinct([plus[0][-1], minus[0][-1]])
        return plus + minus

    @functools.cached_property
    def _critical_fibers(self) -> tuple:
        """The last slot's projection fibers over the critical points ``+1, -1``.

        Built once per curve: :meth:`branch_points` and
        :meth:`projection_degree_estimate` at ``j = r`` both read them.
        """
        return tuple(self.projection_fiber(self.r, self.curve.branch_point(sign))
                     for sign in (+1, -1))

    # -- projection fibers: the one enumeration of tuples ---------------------------

    def projection_fiber(self, j: int, value: GenusTwoPoint) -> list:
        """All member tuples whose j-th coordinate equals ``value`` (1-based).

        The one enumeration of tuples (see the module docstring).  Slot 1
        ranges over the fiber over ``cover(value) - e_j`` (just ``value``
        when ``j = 1``), slot ``j`` holds ``value`` and every other slot
        ``i`` the fiber over ``cover(p_1) + e_i``; a slot whose target is a
        branch image has one choice.  The choices ``(+-x, y)`` of slot 1
        share the cover image ``(x^2, y)``, so every later slot fiber is
        built once.
        """
        if not 1 <= j <= self.r:
            raise ValueError("projection index out of range")
        if j == 1:
            p1_choices = [value]
        else:
            first_image = self.elliptic.sub(self.curve.cover(value), self.offsets[j - 2])
            p1_choices = self.curve.fiber(first_image)
        base_image = self.curve.cover(p1_choices[0])
        slots = self._uniform([p1_choices] + [
            [value] if i == j else self.curve.fiber(self.elliptic.add(base_image, e))
            for i, e in enumerate(self.offsets, start=2)])
        for choices in slots:
            self._certify_distinct(choices)
        return [ConfigTuple(combo) for combo in itertools.product(*slots)]

    def _uniform(self, slots: list) -> list:
        """Slot choices in the kind their tuples carry: mixed lifts to ComplexApprox.

        The two points of a fiber share their kind, so all tuples of the
        product have the same kinds, and certifying lifted choices certifies
        the tuples as emitted.
        """
        if ConfigTuple(tuple(p for choices in slots for p in choices)).kinds_uniform():
            return slots
        return [list(ConfigTuple(tuple(choices)).as_approx(self.curve.prec, self.curve.tol))
                for choices in slots]

    def _certify_distinct(self, choices: list):
        """Raise unless the choices of a two-point slot are certified distinct."""
        if len(choices) == 2 and genus2_points_equal(*choices, "enumeration-distinctness"):
            raise AmbiguousCoincidenceError(
                "two enumerated tuples coincide during enumeration-distinctness",
                check_name="enumeration-distinctness", distance=0.0, tol=self.curve.tol)

    def projection_degree_estimate(self, j: int, samples: int = 10, seed: int = 0) -> int:
        """Fiber cardinality of the j-th projection; must be ``2^(r-1)``.

        Counts the fiber over both cover-critical points and over
        ``samples`` generic points.  A draw is ramified -- and re-drawn --
        when some *other* slot's elliptic target lands on a branch image.
        That slot's fiber is then the one cover-critical point over it, so
        the draw is ramified iff the first tuple holds a cover-critical
        point in a slot other than ``j``; the count itself is never used
        to decide a re-draw.  Returns the common cardinality or
        raises on disagreement.
        """
        if j == self.r:
            critical = self._critical_fibers
        else:
            critical = [self.projection_fiber(j, self.curve.branch_point(sign))
                        for sign in (+1, -1)]
        counts = {f"critical{sign:+d}": len(fiber)
                  for sign, fiber in zip((+1, -1), critical)}
        drawn = 0
        attempts = 0
        rng = random.Random(seed * 1_000_003 + j)
        while drawn < samples:
            attempts += 1
            if attempts > 50 * max(1, samples):
                raise RuntimeError("sampling failed to find generic draws")
            pt = sample_genus2_point(self.curve, rng)
            if pt is None:
                continue
            fiber = self.projection_fiber(j, pt)
            if any(self.curve.is_branch_point(p)
                   for i, p in enumerate(fiber[0], start=1) if i != j):
                continue  # ramified draw, re-draw
            counts[f"sample{drawn}"] = len(fiber)
            drawn += 1
        values = set(counts.values())
        if len(values) != 1:
            raise RuntimeError(f"projection fiber sizes disagree: {counts}")
        return values.pop()

    # -- reports ----------------------------------------------------------------------

    def tower_report(self, deg_cover: int = 1) -> TowerReport:
        """Branch counts per level, genus both ways, and degree estimate."""
        per_level = {}
        for level in range(2, self.r + 1):
            sub = ConfigurationCurve(self.curve, self.offsets[:level - 1])
            per_level[level] = len(sub.branch_points())
        rec, closed = genus(self.r)
        est = self.projection_degree_estimate(1, samples=3)
        return TowerReport(
            r=self.r,
            branch_count=per_level.get(self.r, 0),
            per_level_branch_counts=per_level,
            genus_by_recursion=rec,
            genus_closed_form=closed,
            fiber_degree_estimate=est,
            deg_cover=deg_cover,
            base_genus=base_genus_from_cover_degree(self.r, deg_cover),
            base_euler_relation=BASE_EULER_RELATION,
            notes=BASE_EULER_NOTE,
        )

    @staticmethod
    def enumeration_to_csv(tuples: list) -> str:
        """One tuple per row, coordinates rendered as strings.

        The header names the coordinates of the first tuple's slots, so
        the enumeration must not be empty.
        """
        lines = [",".join(f"{c}{i}" for i in range(1, len(tuples[0]) + 1) for c in "xy")]
        for tup in tuples:
            row = []
            for p in tup:
                if p.is_infinity:
                    row += [f"infinity{p.infinity_sign:+d}", ""]
                else:
                    row += [_scalar_str(p.x), _scalar_str(p.y)]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def _scalar_str(x) -> str:
    if isinstance(x, ComplexApprox):
        return x.to_str()
    return str(x)


def sample_genus2_point(curve: GenusTwoCurve, rng) -> GenusTwoPoint:
    """Random approximate point: x uniform in the radius-2 disk, y solved.

    Draws with ``|x|`` below ten times the tolerance are rejected (too
    close to the cover-critical locus for stable rank checks).  Returns
    None when the draw was rejected so the caller can re-draw.  This is a
    sampling rule, not an equality decision, so it does not go through
    :func:`kodaira.scalars.coincide`.
    """
    with mpmath.workprec(curve.prec):
        radius = 2 * mpmath.sqrt(rng.random())
        angle = 2 * mpmath.pi * rng.random()
        x = ComplexApprox.of(mpmath.mpc(radius * mpmath.cos(angle),
                                        radius * mpmath.sin(angle)),
                             curve.prec, curve.tol)
    if x.abs_value() < 10 * curve.tol:
        return None
    y = as_approx(curve.rhs(x), curve.prec, curve.tol).sqrt()
    return GenusTwoPoint.affine(x, y)


def arrowhead_rank(derivs: list, is_zero=scalar_is_zero) -> int:
    """Rank of the Jacobian arrowhead built from cover derivatives ``d_1..d_r``.

    Row ``i`` is ``-d_1`` in column 1 and ``d_i`` in column ``i``.  The
    ``n`` rows with ``d_i != 0`` have distinct pivots, and the remaining
    rows are multiples of the first unit vector, which adds one dimension
    iff ``d_1 != 0``.  Each zero test is ``is_zero``, by default
    :func:`scalar_is_zero`.
    """
    n = sum(1 for d in derivs[1:] if not is_zero(d))
    return n + int(n < len(derivs) - 1 and not is_zero(derivs[0]))


class _Decisions:
    """The decisions about the points of one enumeration, each made once.

    Keyed by the ``id()`` of the points (and scalars) decided on; every
    entry keeps those objects, so an id cannot be reused while the memo
    lives.  A decision that raises is not stored: the check that made it
    is abandoned and its memo with it.  One memo serves one enumeration --
    a :meth:`ConfigurationCurve.fiber_over_first` list or a
    :meth:`ConfigurationCurve.branch_points` list -- and is dropped with it.
    """

    def __init__(self, config: ConfigurationCurve):
        self.curve = config.curve
        self.elliptic = config.elliptic
        self.offsets = config.offsets
        self._memo = {}

    def _once(self, key, decide, *args):
        """``decide(*args)``, made on the first call for ``key`` and kept with ``args``."""
        entry = self._memo.get(key)
        if entry is None:
            entry = self._memo[key] = (decide(*args), args)
        return entry[0]

    def on_curve(self, p: GenusTwoPoint) -> bool:
        return self._once(("on-curve", id(p)), self.curve.contains, p)

    def cover(self, p: GenusTwoPoint):
        return self._once(("cover", id(p)), self.curve.cover, p)

    def expected_image(self, i: int, p1: GenusTwoPoint):
        """``cover(p_1) + e_i``: the image slot ``i`` must have."""
        return self._once(("image", i, id(p1)), self._expected_image, i, p1)

    def _expected_image(self, i, p1):
        return self.elliptic.add(self.cover(p1), self.offsets[i - 2])

    def covers(self, i: int, p1: GenusTwoPoint, p: GenusTwoPoint) -> bool:
        """The cover condition of slot ``i``: ``cover(p) = cover(p_1) + e_i``."""
        return self._once(("covers", i, id(p1), id(p)), self._covers, i, p1, p)

    def _covers(self, i, p1, p):
        expected = self.expected_image(i, p1)
        return points_equal(self.cover(p), expected, "membership-cover-condition")

    def coincide(self, p: GenusTwoPoint, q: GenusTwoPoint) -> bool:
        """Whether ``p`` and a point ``q`` of a later slot coincide."""
        return self._once(("coincide", id(p), id(q)), genus2_points_equal,
                          p, q, "membership-distinctness")

    def derivative(self, p: GenusTwoPoint):
        return self._once(("derivative", id(p)), self.curve.cover_derivative, p)

    def negated_derivative(self, p: GenusTwoPoint):
        return self._once(("negated-derivative", id(p)), self._negated_derivative, p)

    def _negated_derivative(self, p):
        return -self.derivative(p)

    def is_zero(self, d) -> bool:
        return self._once(("zero", id(d)), scalar_is_zero, d)

    def branch_sign(self, p: GenusTwoPoint) -> int:
        """``+1`` if ``p`` is the critical point ``(0, +sqrt(lam))``, else ``-1``."""
        return self._once(("branch-sign", id(p)), self._branch_sign, p)

    def _branch_sign(self, p):
        return +1 if genus2_points_equal(p, self.curve.branch_point(+1), "branch-sign") else -1
