"""The configuration curve inside the r-fold product of the genus-2 curve.

Given offsets ``e_2, ..., e_r`` on the elliptic quotient, the
configuration curve consists of the r-tuples ``(p_1, ..., p_r)`` of
genus-2 points with ``cover(p_i) = cover(p_1) + e_i`` for ``2 <= i <= r``
(group law on the elliptic curve).  This module provides everything that
can be computed about it at desk scale: membership, fibers over the
first coordinate, the structural rank of the Jacobian (smoothness), the
branch points of the forget-last-coordinate tower and their count
``2^r``, and coordinate-projection degrees ``2^(r-1)``.  The genus
formulas, Riemann-Hurwitz recursion and closed form ``r * 2^(r-1) + 1``,
read nothing from the curve and live in the package root.

Every enumeration of tuples is a :class:`SlotProduct` made by
:meth:`ConfigurationCurve.projection_fiber`: every combination of one
choice per slot, each slot a cover fiber of one or two points or a single
given point.  The later fibers depend only on ``cover(p_1)``, which both
choices of ``p_1`` share, so every slot has one fiber for the whole
enumeration and two tuples differ at the first slot where their choices
differ.  So the tuples are pairwise distinct once the two points of every
two-point slot fiber are certified distinct: one decision per slot.  The
tuples themselves are built only when a caller iterates or indexes the
product.

The curve computes in one kind, ComplexApprox: it lifts each input once
at the genus-2 curve's precision and tolerance and decides it on its
curve there (the offsets when it is built, the ``value`` of a projection
fiber, the tuple tested for membership), so every slot choice is
approximate or a label at infinity, and the points derived from the
inputs go through the unchecked ``_cover``, ``_fiber`` and ``_add``.
Exact arithmetic lives in the certificates, ``curve-info`` and
``find-points``.

Membership and rank follow from the slots too.  Each condition is about
one coordinate (on the curve; the cover derivative and its zero test),
one coordinate against the first (the cover condition
``cover(p_i) = cover(p_1) + e_i``) or two coordinates (distinct).  A
product holds every combination of choices, so a condition holds on all
its tuples iff it holds on every choice, every (slot-1 choice, slot-i
choice) pair or every pair of choices from two slots: ``O(r)`` choice and
``O(r^2)`` pair decisions for ``2^(r-1)`` tuples.  The rank of the
Jacobian arrowhead depends only on which cover derivatives vanish
(:func:`arrowhead_rank`), so it is ``r - 1`` on every tuple iff at most
one slot ``i >= 2`` holds a choice with vanishing derivative and, if one
does, no slot-1 choice has one.

Distinctness of two slots is decided on their shared ``y``.  Both choices
of a fiber are ``(+-x, y)`` over one ``y``, and the point decision
classifies the max-norm distance of ``(x, y)``, which is at least
``|y_a - y_b|``.  So a ``y`` distance certified distinct, at the
precision and tolerance of the point decision (negation keeps both, so
the four point pairs share them), certifies all four point pairs
distinct: one decision where there were four.  When the ``y``'s are not
certified apart, a slot's ``y``'s differ or a slot holds a point at
infinity, each point pair is decided instead.  Cover images would not
do: ``x -> x^2`` stretches distances by ``2|x|``, so points less than
``tol`` apart can have images ten tolerances apart.

:meth:`ConfigurationCurve.slot_facts` makes each of these decisions once
into a :class:`SlotFacts` table, which stores its outcome: the value, or
the exception the decision raised.  :meth:`SlotFacts.all_hold` reads the
whole table.  When it fails, :meth:`SlotFacts.member` and
:meth:`SlotFacts.rank` read one tuple's outcomes in the order a
tuple-by-tuple walk meets them and re-raise a stored exception there, so
every failing tuple is named, and an ambiguity no tuple meets is never
raised.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, replace

import mpmath

from .elliptic import point_to_json, points_equal
from .genus2 import GenusTwoCurve, GenusTwoPoint, genus2_points_equal
from .scalars import (
    AmbiguousCoincidenceError,
    ComplexApprox,
    as_approx,
    coordinate_separates,
    scalar_is_zero,
)

class FiberSizesDisagree(RuntimeError):
    """Projection fibers of different sizes; ``counts`` maps each fiber to its size."""

    def __init__(self, counts: dict):
        super().__init__(f"projection fiber sizes disagree: {counts}")
        self.counts = counts


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

    def as_approx(self, prec: int, tol: float) -> "ConfigTuple":
        return ConfigTuple(tuple(_lift(p, prec, tol) for p in self.points))

    def to_json_dict(self):
        return [point_to_json(p) for p in self.points]


@dataclass(frozen=True)
class SlotProduct:
    """The tuples of one enumeration: every combination of one choice per slot.

    ``slots`` holds each slot's certified choices.  No tuple is stored:
    :attr:`size` multiplies the slot sizes, an index is decomposed slot
    by slot, and iteration reads :meth:`indexed`.
    """

    slots: tuple

    @property
    def size(self) -> int:
        """The number of tuples, ``2^63`` and more included, which ``len()`` cannot return."""
        return math.prod(map(len, self.slots))

    def __getitem__(self, k: int) -> ConfigTuple:
        k = range(self.size)[k]  # negative indices and IndexError as for a list
        picked = []
        for choices in reversed(self.slots):
            k, c = divmod(k, len(choices))
            picked.append(choices[c])
        return ConfigTuple(tuple(reversed(picked)))

    def __iter__(self):
        return (tup for _, tup in self.indexed())

    def indexed(self):
        """``(picks, tuple)`` in ``itertools.product`` order: the last slot varies fastest.

        ``picks`` holds the index of each slot's choice in the tuple.
        """
        for combo in itertools.product(*map(enumerate, self.slots)):
            picks, points = zip(*combo)
            yield picks, ConfigTuple(points)


@dataclass(frozen=True)
class Enumeration:
    """Slot products enumerated one after the other, such as the branch points."""

    products: tuple

    @property
    def size(self) -> int:
        """The number of tuples, summed over the products."""
        return sum(product.size for product in self.products)

    def __iter__(self):
        return itertools.chain.from_iterable(self.products)


# ---------------------------------------------------------------------------
# The configuration curve
# ---------------------------------------------------------------------------


class ConfigurationCurve:
    """Membership, fibers, Jacobian ranks and branch data for given offsets."""

    def __init__(self, curve: GenusTwoCurve, offsets: list):
        self.curve = curve
        self.elliptic = curve.elliptic_quotient()
        self.offsets = [_lift(e, curve.prec, curve.tol) for e in offsets]  # e_2 .. e_r
        for e in self.offsets:
            self.elliptic._require(e)
        self.r = len(self.offsets) + 1

    # -- membership ---------------------------------------------------------------

    def contains(self, tup: ConfigTuple) -> bool:
        """Full membership test: on-curve, cover conditions, distinctness.

        Decided on the tuple lifted to ComplexApprox (see the module
        docstring), as the product with one choice per slot, by
        :meth:`slot_facts`.  Distinctness is decided per slot pair, not
        assumed from the genericity certificate (whose offsets make the
        images ``cover(p_1) + e_i`` pairwise distinct): a tuple that
        repeats a point must fail here.
        """
        if len(tup) != self.r:
            return False
        one = SlotProduct(tuple((p,) for p in tup.as_approx(self.curve.prec, self.curve.tol)))
        return self.slot_facts(one).member((0,) * self.r)

    # -- fibers over the first coordinate ------------------------------------------

    def fiber_over_first(self, p1: GenusTwoPoint) -> SlotProduct:
        """All tuples of the configuration curve with first coordinate ``p1``."""
        return self.projection_fiber(1, p1)

    # -- Jacobian and rank -----------------------------------------------------------

    def jacobian(self, tup: ConfigTuple) -> int:
        """The rank of the (r-1) x r Jacobian of the defining map at a member tuple.

        Row ``i-1`` expresses the condition on slot ``i``: ``-d(cover)/dx``
        at ``p_1`` in the first column and ``d(cover)/dx`` at ``p_i`` in
        column ``i``.  The rank of this arrowhead is counted structurally by
        :func:`arrowhead_rank`; the curve is smooth at ``tup`` iff it is
        ``r - 1``.
        """
        return arrowhead_rank([self.curve.cover_derivative(p) for p in tup])

    # -- a whole enumeration from its slots --------------------------------------------

    def slot_facts(self, product: SlotProduct) -> "SlotFacts":
        """Every decision about the tuples of ``product``, each made once.

        On-curve, the cover image and the zero test of the cover
        derivative per choice; the expected image ``cover(p_1) + e_i``
        per (slot ``i``, slot-1 choice); the cover condition per (slot
        ``i``, slot-1 choice, slot-``i`` choice); coincidence per pair of
        choices from two slots, all four pairs at once when the slots'
        shared ``y`` separates them.  A decision that raises stores its
        exception (see :class:`SlotFacts`).  Cover images and expected
        images are computed unchecked: a tuple reads them only once every
        one of its choices has passed its on-curve decision, and the
        offsets were decided on the curve when it was built.
        """
        slots = product.slots
        curve, elliptic = self.curve, self.elliptic
        on_curve, images, zero = {}, {}, {}
        for s, choices in enumerate(slots):
            for c, p in enumerate(choices):
                on_curve[s, c] = _outcome(curve.contains, p)
                images[s, c] = curve._cover(p)
                zero[s, c] = _outcome(scalar_is_zero, curve.cover_derivative(p))
        covers = {}
        for s, e in enumerate(self.offsets, start=1):
            for c1 in range(len(slots[0])):
                expected = _outcome(elliptic._add, images[0, c1], e)
                for c in range(len(slots[s])):
                    covers[s, c1, c] = _outcome(_cover_condition, expected, images[s, c])
        coincide = {}
        for a, b in itertools.combinations(range(len(slots)), 2):
            apart = _shared_y_apart(slots[a], slots[b])
            for ca, p in enumerate(slots[a]):
                for cb, q in enumerate(slots[b]):
                    coincide[a, ca, b, cb] = False if apart else _outcome(
                        genus2_points_equal, p, q, "membership-distinctness")
        return SlotFacts(slots, on_curve, covers, coincide, zero)

    def branch_sign(self, p: GenusTwoPoint) -> int:
        """``+1`` if ``p`` is the critical point ``(0, +sqrt(lam))``, else ``-1``."""
        return +1 if genus2_points_equal(p, self.curve.branch_point(+1), "branch-sign") else -1

    # -- branch points of the forget-last-coordinate tower ------------------------------

    def branch_enumeration(self) -> Enumeration:
        """The branch points of the double cover forgetting the last slot.

        These are the member tuples whose last coordinate is one of the two
        cover-critical points: the last slot's projection fibers over both,
        as two slot products.  Each fiber's tuples are certified distinct
        slot by slot, and two tuples from different fibers differ in the
        last slot once the two critical points are certified distinct.  So
        ``O(r)`` decisions certify all ``2^r`` tuples pairwise distinct,
        not ``O(4^r)``.
        """
        if self.r < 2:
            raise ValueError("the forget-last-coordinate tower needs r >= 2")
        plus, minus = self._critical_fibers
        self._certify_distinct([plus.slots[-1][0], minus.slots[-1][0]])
        return Enumeration((plus, minus))

    def branch_points(self) -> list:
        """The ``2^r`` tuples of :meth:`branch_enumeration`, as a list."""
        return list(self.branch_enumeration())

    @functools.cached_property
    def _critical_fibers(self) -> tuple:
        """The last slot's projection fibers over the critical points ``+1, -1``.

        Built once per curve: :meth:`branch_enumeration` and
        :meth:`projection_degree_estimate` at ``j = r`` both read them.
        """
        return tuple(self.projection_fiber(self.r, self.curve.branch_point(sign))
                     for sign in (+1, -1))

    # -- projection fibers: the one enumeration of tuples ---------------------------

    def projection_fiber(self, j: int, value: GenusTwoPoint) -> SlotProduct:
        """All member tuples whose j-th coordinate equals ``value`` (1-based).

        The one enumeration of tuples, as a :class:`SlotProduct` (see the
        module docstring).  Slot 1 ranges over the fiber over
        ``cover(value) - e_j`` (just ``value`` when ``j = 1``), slot ``j``
        holds ``value`` and every other slot ``i`` the fiber over
        ``cover(p_1) + e_i``; a slot whose target is a branch image has one
        choice.  The choices ``(+-x, y)`` of slot 1 share the cover image
        ``(x^2, y)``, so every later slot fiber is built once.  ``value``
        is lifted to ComplexApprox on entry.
        """
        if not 1 <= j <= self.r:
            raise ValueError("projection index out of range")
        value = _lift(value, self.curve.prec, self.curve.tol)
        if j == 1:
            p1_choices = [value]
            base_image = self.curve.cover(value)
        else:
            first_image = self.elliptic._add(self.curve.cover(value),
                                             self.elliptic.neg(self.offsets[j - 2]))
            p1_choices = self.curve._fiber(first_image)
            base_image = self.curve._cover(p1_choices[0])
        # ``value`` is checked by ``cover`` above and the offsets when the
        # curve was built; the fiber points and their sums with the
        # offsets are on the curves by construction
        slots = tuple(map(tuple, [p1_choices] + [
            [value] if i == j else self.curve._fiber(self.elliptic._add(base_image, e))
            for i, e in enumerate(self.offsets, start=2)]))
        for choices in slots:
            self._certify_distinct(choices)
        return SlotProduct(slots)

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
        the draw is ramified iff a slot other than ``j`` has one choice
        and it is critical (``x = 0``, as the cover fiber decided); a
        slot that lost a point otherwise is counted.  Returns the common
        cardinality or raises :class:`FiberSizesDisagree`.
        """
        if j == self.r:
            critical = self._critical_fibers
        else:
            critical = [self.projection_fiber(j, self.curve.branch_point(sign))
                        for sign in (+1, -1)]
        counts = {f"critical{sign:+d}": fiber.size
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
            if any(len(choices) == 1 and not choices[0].is_infinity
                   and scalar_is_zero(choices[0].x)
                   for i, choices in enumerate(fiber.slots, start=1) if i != j):
                continue  # ramified draw, re-draw
            counts[f"sample{drawn}"] = fiber.size
            drawn += 1
        values = set(counts.values())
        if len(values) != 1:
            raise FiberSizesDisagree(counts)
        return values.pop()

    @staticmethod
    def enumeration_to_csv(tuples) -> str:
        """One tuple per row, coordinates rendered as strings."""
        return "".join(ConfigurationCurve.enumeration_csv_lines(tuples))

    @staticmethod
    def enumeration_csv_lines(tuples):
        """The lines of :meth:`enumeration_to_csv`, made as ``tuples`` yields them.

        The header names the coordinates of the first tuple's slots, so
        the enumeration must not be empty.
        """
        rows = iter(tuples)
        first = next(rows)
        yield ",".join(f"{c}{i}" for i in range(1, len(first) + 1) for c in "xy") + "\n"
        for tup in itertools.chain((first,), rows):
            row = []
            for p in tup:
                if p.is_infinity:
                    row += [f"infinity{p.infinity_sign:+d}", ""]
                else:
                    row += [_scalar_str(p.x), _scalar_str(p.y)]
            yield ",".join(row) + "\n"


def _lift(p, prec: int, tol: float):
    """A point of either curve with ComplexApprox coordinates; a point at infinity as is."""
    if p.is_infinity:
        return p
    return replace(p, x=as_approx(p.x, prec, tol), y=as_approx(p.y, prec, tol))


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


def _shared_y_apart(a: tuple, b: tuple) -> bool:
    """Whether the shared ``y`` of two slots certifies all their point pairs distinct.

    See the module docstring.  False when it decides nothing: a point at
    infinity, a slot whose ``y``'s are not ``==``, or ``y``'s not
    certified apart.
    """
    if any(p.is_infinity or p.y != choices[0].y for choices in (a, b) for p in choices):
        return False
    return coordinate_separates((a[0].x, a[0].y), (b[0].x, b[0].y), 1,
                                "membership-distinctness")


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


@dataclass(frozen=True)
class SlotFacts:
    """The outcome of every decision about one slot product, made by
    :meth:`ConfigurationCurve.slot_facts`.

    An outcome is the decision's value or the exception it raised, keyed
    by slot ``s`` and choice ``c`` (0-based): ``on_curve[s, c]``,
    ``zero[s, c]`` (the cover derivative vanishes), ``covers[s, c1, c]``
    (the cover condition of slot ``s`` against slot-1 choice ``c1``) and
    ``coincide[a, ca, b, cb]`` for slots ``a < b``.  A tuple is named by
    its ``picks``, one choice index per slot.  Reading an outcome raises
    its exception, so only a decision that a reader meets can raise.
    """

    slots: tuple
    on_curve: dict
    covers: dict
    coincide: dict
    zero: dict

    def all_hold(self) -> bool:
        """Whether every tuple is a member of Jacobian rank ``r - 1``.

        True only when no outcome raised, every choice is on the curve and meets its cover
        conditions, no two choices coincide, and at most one later slot
        has a vanishing derivative, and then no slot-1 choice does.  So
        True means :meth:`member` and :meth:`rank` pass every tuple.
        """
        tables = (self.on_curve, self.covers, self.coincide, self.zero)
        if any(isinstance(o, Exception) for t in tables for o in t.values()):
            return False
        later = {s for (s, _), zero in self.zero.items() if zero and s}
        first = any(zero for (s, _), zero in self.zero.items() if not s)
        return (all(self.on_curve.values()) and all(self.covers.values())
                and not any(self.coincide.values())
                and (not later or len(later) == 1 and not first))

    def member(self, picks: tuple) -> bool:
        """:meth:`ConfigurationCurve.contains` of one tuple, read from the table.

        In the order the conditions are checked on one tuple: on-curve per
        slot, the cover conditions, then the slot pairs in ``combinations``
        order.
        """
        if not all(_read(self.on_curve[s, c]) for s, c in enumerate(picks)):
            return False
        c1 = picks[0]
        if not all(_read(self.covers[s, c1, c]) for s, c in enumerate(picks) if s):
            return False
        return not any(_read(self.coincide[a, ca, b, cb]) for (a, ca), (b, cb)
                       in itertools.combinations(enumerate(picks), 2))

    def rank(self, picks: tuple) -> int:
        """The Jacobian rank of one tuple, its zero tests read in :func:`arrowhead_rank` order."""
        return arrowhead_rank([self.zero[s, c] for s, c in enumerate(picks)], _read)


def _outcome(decide, *args):
    """``decide(*args)``, or the exception it raised."""
    try:
        return decide(*args)
    except Exception as exc:
        return exc


def _read(outcome):
    """The value of an outcome; a stored exception is raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _cover_condition(expected, image) -> bool:
    """``image = expected`` for the outcome of an expected image and a cover image."""
    return points_equal(image, _read(expected), "membership-cover-condition")
