import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kodaira.config_curve import sample_genus2_point
from kodaira.elliptic import EC_INFINITY, EllipticPoint, OffCurveError, points_equal
from kodaira.genus2 import (
    GenusTwoCurve,
    GenusTwoPoint,
    X_INFINITY_MINUS,
    X_INFINITY_PLUS,
    genus2_points_equal,
)
from kodaira.scalars import ComplexApprox, as_approx, is_exact, quadext


@pytest.fixture
def curve1():
    return GenusTwoCurve(Fraction(1))


@pytest.fixture
def curve7():
    return GenusTwoCurve(Fraction(7))


def test_branch_points_on_curve(curve1):
    s_plus = curve1.branch_point(+1)
    assert s_plus == GenusTwoPoint.affine(Fraction(0), Fraction(1))
    assert curve1.contains(s_plus)
    s_minus = curve1.branch_point(-1)
    assert curve1.contains(s_minus)
    assert not genus2_points_equal(s_plus, s_minus)


def test_branch_points_quadratic_extension():
    curve = GenusTwoCurve(Fraction(2))
    s_plus = curve.branch_point(+1)
    assert s_plus.y == quadext(0, 1, Fraction(2))
    assert curve.contains(s_plus)


def test_cover_of_branch_point_fixes_x_zero(curve1):
    s_plus = curve1.branch_point(+1)
    image = curve1.cover(s_plus)
    assert image == EllipticPoint(Fraction(0), Fraction(1))


def test_cover_identifies_x_negation(curve7):
    # (-x)^2 == x^2, so the cover cannot separate the two sheets
    y = as_approx(curve7.rhs(Fraction(1)), curve7.prec, curve7.tol).sqrt()
    p = GenusTwoPoint.affine(as_approx(Fraction(1), curve7.prec, curve7.tol), y)
    q = GenusTwoPoint.affine(-p.x, p.y)
    img_p, img_q = curve7.cover(p), curve7.cover(q)
    assert img_p.x.distance(img_q.x) < curve7.tol
    assert img_p.y.distance(img_q.y) < curve7.tol
    # and both images land on the elliptic quotient, within tolerance
    assert curve7.elliptic_quotient().contains(img_p)


def test_cover_at_infinity(curve1):
    assert curve1.cover(X_INFINITY_PLUS).is_infinity
    assert curve1.cover(X_INFINITY_MINUS).is_infinity


def test_cover_rejects_off_curve(curve1):
    with pytest.raises(OffCurveError):
        curve1.cover(GenusTwoPoint.affine(Fraction(1), Fraction(1)))


def test_fiber_generic_two_points(curve1):
    # x = 4 on the quotient: the two preimages are (+/-2, y0)
    e = curve1.elliptic_quotient()
    y0 = as_approx(e.rhs(Fraction(4)), curve1.prec, curve1.tol).sqrt()
    q = EllipticPoint(as_approx(Fraction(4), curve1.prec, curve1.tol), y0)
    fiber = curve1.fiber(q)
    assert len(fiber) == 2
    xs = sorted(float(p.x.z.real) for p in fiber)
    assert xs == [-2.0, 2.0]


def test_fiber_exact_square_x(curve1):
    # 9/4 is a rational square: the preimage stays exact
    e = curve1.elliptic_quotient()
    rhs = e.rhs(Fraction(9, 4))
    y0 = as_approx(rhs, curve1.prec, curve1.tol).sqrt()
    q = EllipticPoint(as_approx(Fraction(9, 4), curve1.prec, curve1.tol), y0)
    fiber = curve1.fiber(q)
    assert len(fiber) == 2


def test_fiber_over_an_exact_non_square_x_shares_one_lifted_y(curve1):
    # [3](0, 1) = (72, 611), and 72 is not a square in Q: both preimages
    # are approximate and carry the one lifted y
    q = curve1.elliptic_quotient().multiply(3, EllipticPoint(Fraction(0), Fraction(1)))
    assert q == EllipticPoint(Fraction(72), Fraction(611))
    plus, minus = curve1.fiber(q)
    root = as_approx(Fraction(72), curve1.prec, curve1.tol).sqrt()
    assert (plus.x, minus.x) == (root, -root)
    assert plus.y is minus.y
    assert plus.y == as_approx(Fraction(611), curve1.prec, curve1.tol)


def test_fiber_at_branch_image_is_single(curve1):
    q = EllipticPoint(Fraction(0), Fraction(1))
    fiber = curve1.fiber(q)
    assert len(fiber) == 1
    assert genus2_points_equal(fiber[0], curve1.branch_point(+1))


def test_fiber_over_infinity(curve1):
    fiber = curve1.fiber(EC_INFINITY)
    assert fiber == [X_INFINITY_PLUS, X_INFINITY_MINUS]


def test_cover_after_fiber_is_identity(curve1):
    e = curve1.elliptic_quotient()
    base = EllipticPoint(Fraction(0), Fraction(1))
    rng = random.Random(23)
    for _ in range(10):
        q = e.multiply(rng.randint(1, 8), base)
        for p in curve1.fiber(q):
            image = curve1.cover(p)
            if p.is_infinity or is_exact(p.x):
                assert image == q
            else:
                assert image.x.distance(q.x) < curve1.tol
                assert image.y.distance(q.y) < curve1.tol


def test_fiber_sizes_partition_degree_two(curve1):
    e = curve1.elliptic_quotient()
    base = EllipticPoint(Fraction(0), Fraction(1))
    branch_images = {(Fraction(0), Fraction(1)), (Fraction(0), Fraction(-1))}
    for n in range(1, 10):
        q = e.multiply(n, base)
        expected = 1 if (q.x, q.y) in branch_images else 2
        assert len(curve1.fiber(q)) == expected


def test_criticality_predicate(curve1):
    assert curve1.is_branch_point(curve1.branch_point(+1))
    assert curve1.is_branch_point(curve1.branch_point(-1))
    assert not curve1.is_branch_point(X_INFINITY_PLUS)
    # any affine point with nonzero x is regular
    y = as_approx(curve1.rhs(Fraction(2)), curve1.prec, curve1.tol).sqrt()
    p = GenusTwoPoint.affine(as_approx(Fraction(2), curve1.prec, curve1.tol), y)
    assert not curve1.is_branch_point(p)


def test_cover_derivative(curve1):
    s = curve1.branch_point(+1)
    assert curve1.cover_derivative(s) == 0
    assert curve1.cover_derivative(X_INFINITY_PLUS) != 0
    assert curve1.cover_derivative(X_INFINITY_MINUS) != 0


def test_differential_divisors(curve1):
    d1 = curve1.differential_divisor(1)
    d2 = curve1.differential_divisor(2)
    assert len(d1) == 2 and len(d2) == 2  # degree 2*g - 2 with g = 2
    assert {p.infinity_sign for p in d2} == {+1, -1}
    # disjoint supports
    for p in d1:
        for q in d2:
            assert not genus2_points_equal(p, q)


def test_complex_parameter_cover(curve1):
    lam = ComplexApprox.from_re_im_strings("0.5", "0.25")
    curve = GenusTwoCurve(lam)
    s = curve.branch_point(+1)
    assert curve.contains(s)
    assert curve.is_branch_point(s)
    image = curve.cover(s)
    assert curve.elliptic_quotient().contains(image)


# -- the fiber over a covered point ------------------------------------------------

_RATIONAL_X = st.fractions(min_value=-20, max_value=20, max_denominator=12)
_COMPLEX_LAMBDAS = [ComplexApprox.from_re_im_strings("0.5", "0.25"),
                    ComplexApprox.from_re_im_strings("0.3", "0.7")]


def _with_y(curve, x, sign):
    # y = sqrt(rhs(x)) as a Fraction when rhs(x) is a rational square,
    # otherwise as a QuadExt
    return GenusTwoPoint.affine(x, sign * quadext(0, 1, curve.rhs(x)))


@st.composite
def _points(draw):
    """A curve and a point on it: exact, QuadExt or approximate coordinates."""
    kind = draw(st.sampled_from(["exact", "quadext-y", "quadext-x", "complex"]))
    sign = draw(st.sampled_from([+1, -1]))
    if kind == "exact":
        # the rational points of y^2 = x^6 + x^2 + 1 of small height, and infinity
        curve = GenusTwoCurve(Fraction(1))
        x = draw(st.sampled_from([None, Fraction(0), Fraction(1, 2), Fraction(-1, 2)]))
        return curve, GenusTwoPoint.infinity(sign) if x is None else _with_y(curve, x, sign)
    if kind == "quadext-y":
        curve = GenusTwoCurve(Fraction(1))
        return curve, _with_y(curve, draw(_RATIONAL_X), sign)
    if kind == "quadext-x":
        # x = t*sqrt(2) on the lam = 2 curve, whose fiber roots live in Q(sqrt 2)
        curve = GenusTwoCurve(Fraction(2))
        return curve, _with_y(curve, quadext(0, draw(_RATIONAL_X), 2), sign)
    curve = GenusTwoCurve(draw(st.sampled_from(_COMPLEX_LAMBDAS)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    p = None
    while p is None:
        p = sample_genus2_point(curve, rng)
    return curve, p


@settings(max_examples=80, deadline=None)
@given(_points())
def test_fiber_of_a_covered_point(case):
    # cover(fiber(q)) == q, p is in the fiber, and a two-point fiber is
    # certified distinct: the decision returns False and does not raise
    curve, p = case
    assert curve.contains(p)
    q = curve.cover(p)
    fiber = curve.fiber(q)
    assert len(fiber) == (1 if curve.is_branch_point(p) else 2)
    assert any(genus2_points_equal(p, point) for point in fiber)
    for point in fiber:
        assert points_equal(curve.cover(point), q)
    if len(fiber) == 2:
        assert genus2_points_equal(*fiber) is False
