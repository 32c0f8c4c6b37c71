import itertools
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from kodaira import config_curve, genus, tower_genus_closed_form, tower_genus_recursion
from kodaira.config_curve import (
    AmbiguousCoincidenceError,
    ConfigTuple,
    ConfigurationCurve,
    Enumeration,
    SlotProduct,
    arrowhead_rank,
    sample_genus2_point,
)
from kodaira.elliptic import EllipticCurve, EllipticPoint, OffCurveError, points_equal
from kodaira.generic_points import find_generic_points
from kodaira.genus2 import GenusTwoCurve, GenusTwoPoint
from kodaira.invariants import base_genus_from_cover_degree
from kodaira.scalars import ComplexApprox, QuadExt, as_approx, quadext


@pytest.fixture(scope="module")
def setup1():
    curve = GenusTwoCurve(Fraction(1))
    cert = find_generic_points(curve.elliptic_quotient(), 3)
    return curve, ConfigurationCurve(curve, cert.offsets())


# -- genus ------------------------------------------------------------------


def test_genus_small_values():
    assert genus(1) == (2, 2)
    assert genus(2) == (5, 5)
    assert genus(8) == (1025, 1025)


def test_genus_recursion_equals_closed_form_up_to_16():
    for r in range(1, 17):
        assert tower_genus_recursion(r) == tower_genus_closed_form(r)


def test_genus_recursion_is_riemann_hurwitz_consistent():
    # each level: negative Euler characteristic doubles plus the branch count
    for r in range(2, 12):
        upstairs = 2 * tower_genus_closed_form(r) - 2
        downstairs = 2 * tower_genus_closed_form(r - 1) - 2
        assert upstairs == 2 * downstairs + 2 ** r


def test_base_genus_from_cover_degree():
    assert base_genus_from_cover_degree(8, 1) == 1025
    # double cover of the tower top doubles gamma - 1
    assert base_genus_from_cover_degree(8, 2) - 1 == 2 * (1025 - 1)


# -- membership -------------------------------------------------------------


def test_fiber_members_verify(setup1):
    curve, cc = setup1
    for tup in cc.fiber_over_first(curve.branch_point(+1)):
        assert cc.contains(tup)


def test_fiber_count_r3_generic(setup1):
    curve, cc = setup1
    rng = random.Random(1)
    p1 = None
    while p1 is None:
        p1 = sample_genus2_point(curve, rng)
    fiber = cc.fiber_over_first(p1)
    assert fiber.size == 4  # two independent choices in each later slot


def test_fiber_with_ramified_slot(setup1):
    # a first coordinate whose image forces the last slot onto a branch
    # image: that slot contributes a single choice instead of two
    curve, cc = setup1
    e_last = cc.offsets[-1]
    forced = cc.elliptic.sub(curve.cover(curve.branch_point(+1)), e_last)
    for p1 in curve.fiber(forced):
        fiber = cc.fiber_over_first(p1)
        assert fiber.size == 2 ** (cc.r - 2)  # 2 * ... * 2 * 1


def _arrowhead(derivs):
    r = len(derivs)
    return [[-derivs[0]] + [derivs[i] if k == i else 0 for k in range(1, r)]
            for i in range(1, r)]


def _svd_rank(matrix):
    # the general SVD survives only here, as an oracle for the structural count
    with mpmath.workprec(256):
        m = mpmath.matrix([[as_approx(e).z for e in row] for row in matrix])
        sv = mpmath.svd_c(m, compute_uv=False)
        values = [sv[i] for i in range(sv.rows)]
        return sum(1 for v in values if v > mpmath.mpf(10) ** -40 * max(values))


def _sympy_entry(sympy, e):
    if isinstance(e, QuadExt):
        return sympy.Rational(e.a) + sympy.Rational(e.b) * sympy.sqrt(sympy.Rational(e.radicand))
    return sympy.Rational(e)


_RATIONAL = st.fractions(min_value=-50, max_value=50, max_denominator=20)


@st.composite
def _derivatives(draw):
    # an exact tuple (Fraction and QuadExt mixed) or an approximate one,
    # with zeros mixed in; approximate nonzeros sit far above the band
    r = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(["exact", "approx"]))
    radicand = draw(st.sampled_from([Fraction(2), Fraction(3), Fraction(-1)]))
    derivs = []
    for _ in range(r):
        if draw(st.booleans()):
            d = Fraction(0)
        elif kind == "exact" and draw(st.booleans()):
            d = quadext(draw(_RATIONAL), draw(_RATIONAL.filter(bool)), radicand)
        else:
            d = draw(_RATIONAL.filter(bool))
        if kind == "approx":
            d = as_approx(d) * ComplexApprox.of(mpmath.mpc(1, draw(st.integers(-3, 3))))
        derivs.append(d)
    return derivs


@settings(max_examples=80, deadline=None)
@given(_derivatives())
def test_structural_rank_matches_svd_and_sympy(derivs):
    sympy = pytest.importorskip("sympy")
    matrix = _arrowhead(derivs)
    rank = arrowhead_rank(derivs)
    assert rank == _svd_rank(matrix)
    if all(not isinstance(d, ComplexApprox) for d in derivs):
        assert rank == sympy.Matrix([[_sympy_entry(sympy, e) for e in row]
                                     for row in matrix]).rank()


def test_fiber_r1_single_tuple():
    curve = GenusTwoCurve(Fraction(1))
    cc = ConfigurationCurve(curve, [])
    s = curve.branch_point(+1)
    fiber = cc.fiber_over_first(s)
    assert fiber.size == 1
    assert len(fiber[0]) == 1


def test_sizes_past_sys_maxsize():
    # 2^64 tuples: len() would raise OverflowError, size and indexing do not
    a, b = (GenusTwoPoint.affine(Fraction(x), Fraction(2)) for x in (1, -1))
    product = SlotProduct(((a, b),) * 64)
    assert product.size == 2 ** 64
    assert product[0] == ConfigTuple((a,) * 64)
    assert product[-1] == ConfigTuple((b,) * 64)
    with pytest.raises(IndexError):
        product[2 ** 64]
    assert Enumeration((product, product)).size == 2 ** 65


def test_membership_fails_on_perturbed_y(setup1):
    curve, cc = setup1
    tup = cc.fiber_over_first(curve.branch_point(+1))[0]
    bad_points = list(tup.points)
    p = bad_points[1]
    bad_points[1] = GenusTwoPoint.affine(p.x, -p.y)  # breaks the cover condition
    assert not cc.contains(ConfigTuple(tuple(bad_points)))


def test_membership_fails_on_diagonal(setup1):
    curve, cc = setup1
    tup = cc.fiber_over_first(curve.branch_point(+1))[0]
    bad = ConfigTuple((tup[0], tup[1], tup[1]))
    assert not cc.contains(bad)


def test_membership_lifts_mixed_kinds(setup1):
    # the approximate p_1 swapped for the same point in exact form: the
    # tuple is lifted to one kind, as a projection fiber's slots are, and
    # is a member
    curve, cc = setup1
    tup = cc.fiber_over_first(curve.branch_point(+1))[0]
    mixed = (curve.branch_point(+1),) + tup.points[1:]
    assert mixed[0].is_exact and not any(p.is_exact for p in mixed[1:])
    assert cc.contains(ConfigTuple(mixed))


# -- Jacobian ----------------------------------------------------------------


def test_jacobian_generic_rank(setup1):
    curve, cc = setup1
    rng = random.Random(2)
    p1 = None
    while p1 is None:
        p1 = sample_genus2_point(curve, rng)
    for tup in cc.fiber_over_first(p1):
        assert cc.jacobian(tup) == cc.r - 1


def test_jacobian_with_one_critical_coordinate(setup1):
    curve, cc = setup1
    # tuples whose last coordinate is forced critical still have full rank
    for tup in cc.branch_points():
        assert cc.jacobian(tup) == cc.r - 1


def test_jacobian_exact_entries_structure():
    # the arrowhead's entries are the cover derivatives: a critical first
    # slot (0) and 2x = 1 at x = 1/2 in the later slots, so both rows have
    # their own pivot; (1/2, 9/8) is an exact affine point: rhs(1/2) = 81/64
    curve = GenusTwoCurve(Fraction(1))
    cc = ConfigurationCurve(curve, [None, None])  # offsets unused here
    s = curve.branch_point(+1)
    t = GenusTwoPoint.affine(Fraction(1, 2), Fraction(9, 8))
    assert curve.contains(t)
    tup = ConfigTuple((s, t, t))
    assert [curve.cover_derivative(p) for p in tup] == [0, 1, 1]
    assert cc.jacobian(tup) == 2


def test_two_critical_coordinates_drop_rank():
    # negative control: cannot occur on certified offsets, but the rank
    # computation must report it honestly
    curve = GenusTwoCurve(Fraction(1))
    cc = ConfigurationCurve(curve, [None, None])
    s_plus = curve.branch_point(+1)
    s_minus = curve.branch_point(-1)
    generic = GenusTwoPoint.affine(Fraction(1, 2), Fraction(9, 8))
    tup = ConfigTuple((generic, s_plus, s_minus))
    assert cc.jacobian(tup) == 1  # r - 2: such tuples violate genericity


# -- branch points ------------------------------------------------------------


@pytest.mark.parametrize("r,expected", [(2, 4), (3, 8)])
def test_branch_count(r, expected):
    curve = GenusTwoCurve(Fraction(1))
    cert = find_generic_points(curve.elliptic_quotient(), r)
    cc = ConfigurationCurve(curve, cert.offsets())
    points = cc.branch_points()
    assert len(points) == expected
    for tup in points:
        assert cc.contains(tup)


def test_branch_points_split_evenly(setup1):
    curve, cc = setup1
    points = cc.branch_points()
    last_ys = [float(as_approx(t[cc.r - 1].y).z.real) for t in points]
    assert sum(1 for y in last_ys if y > 0) == len(points) // 2


def test_branch_enumeration_fiber_conservation(setup1):
    # two slots contribute two choices, the ramified slot one; totals match
    # the Riemann-Hurwitz bookkeeping at each sampled level
    for r in range(2, 5):
        curve = GenusTwoCurve(Fraction(1))
        cert = find_generic_points(curve.elliptic_quotient(), r)
        cc = ConfigurationCurve(curve, cert.offsets())
        branch = len(cc.branch_points())
        assert branch == 2 ** r
        upstairs = 2 * tower_genus_closed_form(r) - 2
        downstairs = 2 * tower_genus_closed_form(r - 1) - 2
        assert upstairs == 2 * downstairs + branch


def test_branch_tuples_have_exactly_one_critical_coordinate(setup1):
    # the offset exclusions guarantee at most one coordinate can be
    # critical; on branch tuples it is exactly the forced last slot
    curve, cc = setup1
    for tup in cc.branch_points():
        critical = 0
        for p in tup:
            if p.is_infinity:
                continue
            if p.is_exact:
                critical += int(p.x == 0)
            else:
                critical += int(p.x.abs_value() < curve.tol)
        assert critical == 1


def test_tuples_with_infinity_coordinates(setup1):
    # a first coordinate whose image is the inverse of an offset forces
    # an infinity target: that slot's fiber is the two infinity labels,
    # and membership plus the chart-boundary Jacobian still work
    curve, cc = setup1
    e2 = cc.offsets[0]
    target = cc.elliptic.neg(e2)
    for p1 in curve.fiber(target):
        fiber = cc.fiber_over_first(p1)
        assert fiber.size == 4
        with_infinity = [t for t in fiber if any(p.is_infinity for p in t)]
        assert len(with_infinity) == 4  # slot 2 is always at infinity here
        for tup in with_infinity:
            assert cc.contains(tup)
            assert cc.jacobian(tup) == cc.r - 1


# -- projections ---------------------------------------------------------------


def test_projection_degrees_all_indices(setup1):
    curve, cc = setup1
    for j in range(1, cc.r + 1):
        assert cc.projection_degree_estimate(j, samples=3) == 2 ** (cc.r - 1)


@pytest.mark.parametrize("lam", [Fraction(1), ComplexApprox.from_re_im_strings("0.3", "0.7")])
def test_ramified_draw_is_redrawn(monkeypatch, lam):
    # the first draw puts slot 2 of the j=1 fiber over a branch image
    curve = GenusTwoCurve(lam)
    cc = ConfigurationCurve(curve, find_generic_points(curve.elliptic_quotient(), 4).offsets())
    elliptic = curve.elliptic_quotient()
    forced = curve.fiber(elliptic.sub(elliptic.branch_image(+1), cc.offsets[0]))[0]
    assert cc.projection_fiber(1, forced).size == 2 ** (cc.r - 2)
    draws = []

    def sampler(curve, rng):
        draws.append(forced if not draws else sample_genus2_point(curve, rng))
        return draws[-1]

    monkeypatch.setattr(config_curve, "sample_genus2_point", sampler)
    assert cc.projection_degree_estimate(1, samples=2) == 2 ** (cc.r - 1)
    assert len(draws) == 3 and draws[0] is forced


def test_projection_fiber_members(setup1):
    curve, cc = setup1
    tuples = cc.projection_fiber(2, curve.branch_point(+1))
    assert tuples.size == 4
    for tup in tuples:
        assert cc.contains(tup)


def test_projection_r1_trivial():
    curve = GenusTwoCurve(Fraction(1))
    cc = ConfigurationCurve(curve, [])
    assert cc.projection_degree_estimate(1, samples=2) == 1


# -- coincidence classification --------------------------------------------------


def test_ambiguity_band_raises():
    curve = GenusTwoCurve(Fraction(1), tol=1e-1)
    cert = find_generic_points(curve.elliptic_quotient(), 3)
    cc = ConfigurationCurve(curve, cert.offsets())
    with pytest.raises(AmbiguousCoincidenceError):
        cc.branch_points()


def _complex_curve(r):
    curve = GenusTwoCurve(ComplexApprox.from_re_im_strings("0.5", "0.25"))
    cert = find_generic_points(curve.elliptic_quotient(), r)
    return curve, ConfigurationCurve(curve, cert.offsets())


def test_repeated_fiber_point_raises(monkeypatch):
    # the per-slot certificate is no weaker than comparing all pairs: a
    # two-point fiber that repeats its point makes two tuples coincide
    curve, cc = _complex_curve(3)
    original = GenusTwoCurve._fiber

    def repeating(self, q):
        points = original(self, q)
        return [points[0], points[0]] if len(points) == 2 else points

    monkeypatch.setattr(GenusTwoCurve, "_fiber", repeating)
    with pytest.raises(AmbiguousCoincidenceError):
        cc.branch_points()
    p1 = None
    rng = random.Random(3)
    while p1 is None:
        p1 = sample_genus2_point(curve, rng)
    with pytest.raises(AmbiguousCoincidenceError):
        cc.fiber_over_first(p1)


def test_repeated_critical_point_raises(monkeypatch):
    # the two halves of the branch enumeration differ only in the last slot
    curve, cc = _complex_curve(3)
    plus = curve.branch_point(+1)
    monkeypatch.setattr(curve, "branch_point", lambda sign=+1: plus)
    with pytest.raises(AmbiguousCoincidenceError):
        cc.branch_points()


def test_exact_pair_coinciding_once_lifted_raises(monkeypatch):
    # a middle slot whose two exact choices are 1e-40 apart: exactly they
    # differ, but the tuples around them are approximate, so the emitted
    # (lifted) tuples coincide and the certificate must say so
    curve, cc = _complex_curve(3)
    first_images = [cc.elliptic.sub(curve.cover(curve.branch_point(sign)), cc.offsets[-1])
                    for sign in (+1, -1)]
    near_pair = [GenusTwoPoint.affine(Fraction(1), Fraction(2)),
                 GenusTwoPoint.affine(1 + Fraction(1, 10 ** 40), Fraction(2))]
    original = curve._fiber

    def middle_slot_near_pair(q):
        if any(points_equal(q, image) for image in first_images):
            return original(q)
        return near_pair

    monkeypatch.setattr(curve, "_fiber", middle_slot_near_pair)
    with pytest.raises(AmbiguousCoincidenceError):
        cc.branch_points()


def test_enumeration_csv(setup1):
    curve, cc = setup1
    csv_text = cc.enumeration_to_csv(cc.branch_points())
    lines = csv_text.strip().split("\n")
    assert lines[0] == "x1,y1,x2,y2,x3,y3"
    assert len(lines) == 1 + 8


def test_complex_parameter_enumeration():
    lam = ComplexApprox.from_re_im_strings("0.5", "0.25")
    curve = GenusTwoCurve(lam)
    cert = find_generic_points(curve.elliptic_quotient(), 2)
    cc = ConfigurationCurve(curve, cert.offsets())
    assert len(cc.branch_points()) == 4


# -- one fiber per later slot ------------------------------------------------------

_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=50)
_I = ComplexApprox.of(1j)


@st.composite
def _coordinates(draw):
    """``(x, y)`` of one kind: Fraction, QuadExt over Q(sqrt 2) or ComplexApprox."""
    kind = draw(st.sampled_from(("rational", "quadext", "complex")))
    a, b, c, d = (draw(_RATIONALS) for _ in range(4))
    if kind == "rational":
        return a, b
    if kind == "quadext":
        return quadext(a, b or 1, 2), quadext(c, d, 2)
    return ComplexApprox.of(a) + _I * b, ComplexApprox.of(c) + _I * d


@settings(max_examples=60, deadline=None)
@given(_coordinates())
def test_both_first_choices_have_one_cover_image(xy):
    # projection_fiber builds the later slots from cover(p1_choices[0]) alone;
    # that is sound because (x, y) and (-x, y) have representation-equal
    # images in every kind, ComplexApprox included
    x, y = xy
    denominator = x * x + 1
    assume(not as_approx(denominator).abs_value() < 1e-3)
    lam = (y * y - x * x * x * x * x * x) / denominator
    assume(not as_approx(lam).abs_value() < 1e-3
           and not as_approx(lam - Fraction(-27, 4)).abs_value() < 1e-3)
    curve = GenusTwoCurve(lam)
    assert curve.cover(GenusTwoPoint.affine(x, y)) == curve.cover(GenusTwoPoint.affine(-x, y))


@pytest.mark.parametrize("lam", [Fraction(1), ComplexApprox.from_re_im_strings("0.3", "0.7")])
def test_branch_points_build_each_slot_fiber_once(lam, monkeypatch):
    # per critical point, one fiber and one add for slot 1 and for each of
    # the r-2 middle slots: 2*(r-1) of each at r=8, not one per first choice
    curve = GenusTwoCurve(lam)
    elliptic = curve.elliptic_quotient()
    cc = ConfigurationCurve(curve, find_generic_points(elliptic, 8).offsets())
    calls = {"_fiber": 0, "_add": 0}

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, counted)

    # the checked fiber and add delegate to these, so both paths are counted
    counting(GenusTwoCurve, "_fiber")
    counting(type(elliptic), "_add")
    assert len(cc.branch_points()) == 2 ** 8
    assert calls == {"_fiber": 14, "_add": 14}


def test_critical_fibers_built_once_per_verify_run(monkeypatch):
    # branch_points and projection_degree_estimate(r) read the same two
    # fibers of the last slot over the cover-critical points
    from kodaira import verify_claim

    calls = []
    original = ConfigurationCurve.projection_fiber

    def counted(self, j, value):
        if j == 8 and value in (self.curve.branch_point(+1), self.curve.branch_point(-1)):
            calls.append(value)
        return original(self, j, value)

    monkeypatch.setattr(ConfigurationCurve, "projection_fiber", counted)
    verify_claim("1/1", 8, samples=1)
    assert len(calls) == 2


# -- decisions made once per enumeration -----------------------------------------------


@pytest.fixture(scope="module")
def warm_r8():
    """An r=8 fiber whose tuples all passed ``contains``.

    Also returns a second fiber, over another sampled first coordinate."""
    curve = GenusTwoCurve(Fraction(1))
    cc = ConfigurationCurve(curve, find_generic_points(curve.elliptic_quotient(), 8).offsets())
    rng = random.Random(8)
    fibers = []
    while len(fibers) < 2:
        p1 = sample_genus2_point(curve, rng)
        if p1 is not None:
            fibers.append(cc.fiber_over_first(p1))
    fiber, other = fibers
    assert all(cc.contains(tup) for tup in fiber)
    return cc, fiber, other


def _mutated(tup, slot, point):
    points = list(tup.points)
    points[slot] = point
    return ConfigTuple(tuple(points))


def test_warm_memo_rejects_another_fibers_point(warm_r8):
    cc, fiber, other = warm_r8
    for slot in range(1, cc.r):
        assert not cc.contains(_mutated(fiber[-1], slot, other[0][slot]))


def test_warm_memo_rejects_a_repeated_point(warm_r8):
    # every slot pair, including the pairs the certificate keeps apart
    cc, fiber, other = warm_r8
    tup = fiber[5]
    for i, j in itertools.combinations(range(cc.r), 2):
        assert not cc.contains(_mutated(tup, j, tup[i]))


def test_warm_memo_rejects_an_off_curve_point(warm_r8):
    cc, fiber, other = warm_r8
    for slot in range(cc.r):
        p = fiber[3][slot]
        assert not cc.contains(_mutated(fiber[3], slot, GenusTwoPoint.affine(p.x, p.y + 1)))
    assert all(cc.contains(tup) for tup in fiber)


def test_one_fiber_decides_each_point_fact_once(warm_r8, monkeypatch):
    # per fiber of 2^(r-1) tuples: r-1 expected images (one add each) and
    # one distinctness decision per slot pair, on the shared y, against
    # (r-1) adds and C(r, 2) comparisons per tuple when every tuple is
    # decided from scratch
    cc, fiber, other = warm_r8
    r = cc.r
    calls = {"add": 0, "distinct": 0, "on-curve": 0}
    add, contains = EllipticCurve.add, GenusTwoCurve.contains
    equal, separates = config_curve.genus2_points_equal, config_curve.coordinate_separates

    def counted_add(*args):
        calls["add"] += 1
        return add(*args)

    def counted_equal(p, q, check_name):
        calls["distinct"] += check_name == "membership-distinctness"
        return equal(p, q, check_name)

    def counted_separates(*args):
        calls["distinct"] += 1
        return separates(*args)

    def counted_contains(*args):
        calls["on-curve"] += 1
        return contains(*args)

    monkeypatch.setattr(EllipticCurve, "add", counted_add)
    monkeypatch.setattr(config_curve, "genus2_points_equal", counted_equal)
    monkeypatch.setattr(config_curve, "coordinate_separates", counted_separates)
    monkeypatch.setattr(GenusTwoCurve, "contains", counted_contains)
    assert cc.slot_facts(other).all_hold()
    assert calls["add"] <= 2 * (r - 1)
    assert calls["distinct"] <= r * (r - 1) // 2
    # per distinct point: the on-curve decision and the check inside cover()
    assert calls["on-curve"] <= 2 * (1 + 2 * (r - 1))


def test_slot_verdict_agrees_with_the_walk(warm_r8):
    # on two r=8 fibers the verdict passes, and so does every tuple walked
    # through contains and jacobian; a slot holding another fiber's point
    # fails it
    cc, fiber, other = warm_r8
    for product in (fiber, other):
        assert cc.slot_facts(product).all_hold()
        assert all(cc.contains(tup) and cc.jacobian(tup) == cc.r - 1 for tup in product)
    slots = list(fiber.slots)
    slots[3] = slots[3][:1] + other.slots[3][:1]
    assert not cc.slot_facts(SlotProduct(tuple(slots))).all_hold()


def test_distinctness_is_decided_not_assumed():
    # a repeated offset (which a certificate excludes) makes slots 2 and 3
    # share their fiber: half the tuples pass every cover condition and
    # still repeat a point, and only the per-pair decision rejects them
    curve = GenusTwoCurve(Fraction(1))
    e2 = find_generic_points(curve.elliptic_quotient(), 2).offsets()[0]
    cc = ConfigurationCurve(curve, [e2, e2])
    rng = random.Random(4)
    p1 = None
    while p1 is None:
        p1 = sample_genus2_point(curve, rng)
    fiber = cc.fiber_over_first(p1)
    members = [cc.contains(tup) for tup in fiber]
    assert members == [tup[1].x.distance(tup[2].x) > 1e-20 for tup in fiber]
    assert members.count(False) == 2
    # slots 2 and 3 share their y, so the slot table decides the point pairs
    facts = cc.slot_facts(fiber)
    assert not facts.all_hold()
    assert [facts.member(picks) for picks, _ in fiber.indexed()] == members


def test_cover_conditions_are_read_before_the_slot_pairs():
    # slot 3 holds a point 3 tol from the critical point in slot 2: their
    # coincidence is ambiguous, but slot 3 fails its cover condition, which
    # is checked first, so the tuple is a non-member and nothing raises
    curve = GenusTwoCurve(Fraction(1))
    cc = ConfigurationCurve(curve, find_generic_points(curve.elliptic_quotient(), 3).offsets())
    critical = curve.branch_point(+1)
    x = as_approx(Fraction(3)) * curve.tol
    near = GenusTwoPoint.affine(x, as_approx(curve.rhs(x)).sqrt())
    p1 = cc.projection_fiber(2, critical).slots[0][0]
    assert not cc.contains(ConfigTuple((p1, critical, near)).as_approx(curve.prec, curve.tol))


# -- the rank rule of the slot verdict ------------------------------------------------------


def _critical_pair_config():
    """r = 2 with the offset joining the two branch images (a certificate excludes it)."""
    curve = GenusTwoCurve(Fraction(1))
    elliptic = curve.elliptic_quotient()
    image = [curve.cover(curve.branch_point(sign)) for sign in (+1, -1)]
    return curve, ConfigurationCurve(curve, [elliptic.sub(image[1], image[0])])


def test_slot_verdict_fails_two_vanishing_derivatives():
    # (bp+, bp-) is a member whose two cover derivatives vanish: rank 0
    curve, cc = _critical_pair_config()
    product = cc.fiber_over_first(curve.branch_point(+1))
    assert product.slots == ((curve.branch_point(+1),), (curve.branch_point(-1),))
    facts = cc.slot_facts(product)
    assert not facts.all_hold()
    assert facts.member((0, 0)) and facts.rank((0, 0)) == 0
    assert cc.contains(product[0]) and cc.jacobian(product[0]) == 0


def test_slot_verdict_makes_every_later_zero_test():
    # slot 2 holds the critical point and a point whose derivative 6*tol
    # is ambiguous; the walk meets that zero test, so the verdict must too
    # and not stop at the first vanishing derivative of the slot
    curve = GenusTwoCurve(Fraction(1))
    cc = ConfigurationCurve(curve, find_generic_points(curve.elliptic_quotient(), 2).offsets())
    critical = curve.branch_point(-1)
    p1 = cc.projection_fiber(2, critical).slots[0][0]
    x = as_approx(Fraction(3)) * curve.tol
    near = GenusTwoPoint.affine(x, -as_approx(curve.rhs(x)).sqrt())
    p1, critical = ConfigTuple((p1, critical)).as_approx(curve.prec, curve.tol)
    product = SlotProduct(((p1,), (critical, near)))
    facts = cc.slot_facts(product)
    assert not facts.all_hold()
    assert facts.member((0, 0)) and facts.member((0, 1))
    with pytest.raises(AmbiguousCoincidenceError):
        facts.rank((0, 1))


# -- outcomes of choices and offsets off the curve -------------------------------------------


def _public_outcome(decide, *args):
    """``decide(*args)``, or the type and message of the exception it raised."""
    try:
        return decide(*args)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("slot", [0, 3])
def test_off_curve_outcomes_are_the_public_forms_exceptions(slot):
    # one offset moved off the elliptic curve, and one choice of slot 1 or 4
    # moved off the genus-2 curve: every stored cover condition is what the
    # checked cover and add give, exception type and message included, and
    # so is every tuple's membership
    curve = GenusTwoCurve(Fraction(1))
    elliptic = curve.elliptic_quotient()
    offsets = find_generic_points(elliptic, 4).offsets()
    p1 = None
    rng = random.Random(5)
    while p1 is None:
        p1 = sample_genus2_point(curve, rng)
    fiber = ConfigurationCurve(curve, offsets).fiber_over_first(p1)
    slots = [list(choices) for choices in fiber.slots]
    slots[0].append(GenusTwoPoint.affine(-p1.x, p1.y))
    p = slots[slot][-1]
    slots[slot][-1] = GenusTwoPoint.affine(p.x, p.y + 1)
    product = SlotProduct(tuple(map(tuple, slots)))
    moved = list(offsets)
    moved[1] = EllipticPoint(moved[1].x, moved[1].y + 1)
    cc = ConfigurationCurve(curve, moved)
    facts = cc.slot_facts(product)

    def cover_condition(q1, e, q):
        expected = elliptic.add(curve.cover(q1), e)
        return points_equal(curve.cover(q), expected, "membership-cover-condition")

    def member(tup):
        if not all(curve.contains(q) for q in tup):
            return False
        return (all(cover_condition(tup[0], e, q) for q, e in zip(tup[1:], moved))
                and not any(config_curve.genus2_points_equal(a, b, "membership-distinctness")
                            for a, b in itertools.combinations(tup, 2)))

    expected = {(s, c1, c): _public_outcome(cover_condition, q1, e, q)
                for s, e in enumerate(moved, start=1)
                for c1, q1 in enumerate(product.slots[0])
                for c, q in enumerate(product.slots[s])}
    stored = {key: _public_outcome(config_curve._read, o) for key, o in facts.covers.items()}
    assert stored == expected
    assert {type(o) for o in facts.covers.values()} == {bool, OffCurveError}
    assert not facts.all_hold()
    assert ([_public_outcome(facts.member, picks) for picks, _ in product.indexed()]
            == [_public_outcome(member, tup) for tup in product])
