import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kodaira.elliptic import (
    EC_INFINITY,
    EllipticCurve,
    EllipticPoint,
    OffCurveError,
    SingularCurveError,
    points_equal,
)
from kodaira.scalars import ComplexApprox, QuadExt, quadext


@pytest.fixture
def curve1():
    return EllipticCurve(Fraction(1))


@pytest.fixture
def base_point():
    return EllipticPoint(Fraction(0), Fraction(1))


def test_singular_parameters_rejected():
    with pytest.raises(SingularCurveError):
        EllipticCurve(Fraction(0))
    with pytest.raises(SingularCurveError):
        EllipticCurve(Fraction(-27, 4))


@settings(max_examples=200, deadline=None)
@given(st.fractions(max_denominator=1000).filter(lambda q: q not in (0, Fraction(-27, 4))))
def test_sqrt_lam_of_a_rational_lam_is_exact(lam):
    # sqrt(lam) lies in Q or in Q(sqrt(lam)), whatever the rational lam
    root = EllipticCurve(lam).sqrt_lam()
    assert isinstance(root, (Fraction, QuadExt))
    assert root * root == lam


def test_discriminant_values():
    assert EllipticCurve(Fraction(1)).discriminant() == -496
    # the two singular parameters are exactly the zeros of the discriminant
    lam = Fraction(0)
    assert -16 * (4 * lam ** 3 + 27 * lam ** 2) == 0
    lam = Fraction(-27, 4)
    assert -16 * (4 * lam ** 3 + 27 * lam ** 2) == 0


def test_identity_and_inverse(curve1, base_point):
    assert curve1.add(base_point, EC_INFINITY) == base_point
    assert curve1.add(EC_INFINITY, base_point) == base_point
    neg = EllipticPoint(Fraction(0), Fraction(-1))
    assert curve1.add(base_point, neg).is_infinity


def test_doubling_frozen_value(curve1, base_point):
    # tangent slope (3x^2 + lam)/(2y) = 1/2 at (0, 1)
    doubled = curve1.multiply(2, base_point)
    assert doubled == EllipticPoint(Fraction(1, 4), Fraction(-9, 8))
    assert curve1.contains(doubled)


def test_multiples_frozen_values(curve1, base_point):
    # frozen from an independent chord-law evaluation
    assert curve1.multiply(3, base_point) == EllipticPoint(Fraction(72), Fraction(611))
    p6 = curve1.multiply(6, base_point)
    assert p6 == EllipticPoint(Fraction(26862913, 1493284),
                               Fraction(139455877527, 1824793048))
    assert curve1.contains(p6)


def test_off_curve_rejected(curve1):
    with pytest.raises(OffCurveError):
        curve1.add(EllipticPoint(Fraction(1), Fraction(1)), EC_INFINITY)


def test_group_axioms_randomized(curve1, base_point):
    rng = random.Random(13)
    multiples = [curve1.multiply(n, base_point) for n in range(1, 12)]
    for _ in range(60):
        a, b, c = (rng.choice(multiples) for _ in range(3))
        left = curve1.add(curve1.add(a, b), c)
        right = curve1.add(a, curve1.add(b, c))
        assert points_equal(left, right)
        assert points_equal(curve1.add(a, b), curve1.add(b, a))
        assert curve1.add(a, curve1.neg(a)).is_infinity
        assert curve1.contains(curve1.add(a, b))


def test_delta_lam_one(curve1, base_point):
    # equals the double of (0, sqrt(lam)); verified on-curve
    delta = curve1.delta()
    assert delta == EllipticPoint(Fraction(1, 4), Fraction(-9, 8))
    assert curve1.contains(delta)
    assert curve1.add(delta, curve1.neg(delta)).is_infinity


@pytest.mark.parametrize("lam,expected", [
    (Fraction(4), EllipticPoint(Fraction(1), Fraction(-3))),
    (Fraction(9), EllipticPoint(Fraction(9, 4), Fraction(-51, 8))),
])
def test_delta_closed_form_square_lam(lam, expected):
    # closed form (lam/4, -sqrt(lam)*(lam+8)/8), checked where sqrt(lam)
    # is rational, plus the on-curve substitution
    curve = EllipticCurve(lam)
    delta = curve.delta()
    assert delta == expected
    assert curve.contains(delta)


def test_delta_quadratic_extension():
    curve = EllipticCurve(Fraction(2))
    delta = curve.delta()
    assert delta.x == Fraction(1, 2)
    assert delta.y == quadext(0, Fraction(-5, 4), Fraction(2))
    assert curve.contains(delta)


def test_delta_order_independence():
    # swapping the two branch images negates the difference
    curve = EllipticCurve(Fraction(2))
    plus, minus = curve.branch_image(+1), curve.branch_image(-1)
    forward = curve.sub(plus, minus)
    backward = curve.sub(minus, plus)
    assert points_equal(backward, curve.neg(forward))
    assert points_equal(forward, curve.delta())


def test_j_invariant_conventions():
    curve = EllipticCurve(Fraction(1))
    assert curve.j_ratio() == Fraction(1, 31)
    assert curve.j_standard() == Fraction(6912, 31)
    assert curve.j_standard() == 1728 * 4 * curve.j_ratio()


def test_j_invariant_symbolic():
    from kodaira.scalars import symbols

    lam = symbols("lam")
    curve = EllipticCurve(lam)
    ratio = curve.j_ratio()
    assert ratio == lam ** 3 / (4 * lam ** 3 + 27 * lam ** 2)
    assert curve.j_standard() == 6912 * ratio


def test_complex_parameter_group_law():
    lam = ComplexApprox.from_re_im_strings("0.5", "0.25")
    curve = EllipticCurve(lam)
    p = curve.branch_image(+1)
    doubled = curve.multiply(2, p)
    assert curve.contains(doubled)
    # closed form x = lam/4
    assert doubled.x.distance(lam * Fraction(1, 4)) < 1e-60


def test_every_operation_lands_on_curve(curve1, base_point):
    rng = random.Random(17)
    p = base_point
    for _ in range(20):
        n = rng.randint(-9, 9)
        q = curve1.multiply(n, base_point)
        assert curve1.contains(q)
        p = curve1.add(p, q)
        assert curve1.contains(p)


# -- group-law axioms over Q(sqrt lam) and ComplexApprox ------------------------------


def _assert_group_axioms(curve, a, b, c):
    add = curve.add
    assert points_equal(add(add(a, b), c), add(a, add(b, c)))
    assert points_equal(add(a, b), add(b, a))
    assert add(a, curve.neg(a)).is_infinity
    assert points_equal(add(a, EC_INFINITY), a)
    assert curve.contains(add(a, b))


# non-square rationals, with their smallest rational point where one exists
_NON_SQUARE = {
    Fraction(2): None,
    Fraction(7): None,
    Fraction(5): EllipticPoint(Fraction(4, 9), Fraction(73, 27)),
    Fraction(-3): EllipticPoint(Fraction(4), Fraction(7)),
    Fraction(3, 2): EllipticPoint(Fraction(1), Fraction(2)),
}
_SMALL = st.integers(-2, 2)


@st.composite
def _quadratic_points(draw):
    """A curve with non-square rational lam and three points over Q(sqrt lam).

    Each point is ``m*(0, sqrt lam) + n*P`` for small m, n and the
    rational point P (if there is one)."""
    lam = draw(st.sampled_from(sorted(_NON_SQUARE)))
    curve = EllipticCurve(lam)
    root_image, rational = curve.branch_image(+1), _NON_SQUARE[lam]
    points = []
    for _ in range(3):
        point = curve.multiply(draw(_SMALL), root_image)
        if rational is not None:
            point = curve.add(point, curve.multiply(draw(_SMALL), rational))
        points.append(point)
    return curve, points


@settings(max_examples=20, deadline=None)
@given(_quadratic_points())
def test_group_axioms_over_quadratic_extension(drawn):
    curve, (a, b, c) = drawn
    assert isinstance(curve.branch_image(+1).y, QuadExt)
    _assert_group_axioms(curve, a, b, c)


_GRID = st.fractions(min_value=-2, max_value=2, max_denominator=8)
_I = ComplexApprox.of(1j)


@st.composite
def _complex_points(draw):
    """A complex lam and three points with random x and ``y = sqrt(rhs(x))``."""
    lam = ComplexApprox.of(draw(_GRID)) + _I * draw(_GRID.filter(bool))
    curve = EllipticCurve(lam)
    points = []
    for _ in range(3):
        x = ComplexApprox.of(draw(_GRID)) + _I * draw(_GRID)
        points.append(EllipticPoint(x, curve.rhs(x).sqrt()))
    return curve, points


@settings(max_examples=25, deadline=None)
@given(_complex_points())
def test_group_axioms_over_complex_approx(drawn):
    curve, (a, b, c) = drawn
    _assert_group_axioms(curve, a, b, c)
