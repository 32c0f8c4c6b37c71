import time
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings, strategies as st

from kodaira import generic_points
from kodaira.elliptic import EC_INFINITY, EllipticCurve, EllipticPoint, points_equal
from kodaira.generic_points import (
    EXCLUDED_NAMES,
    ExclusionCheck,
    GenericityCertificate,
    SearchExhausted,
    certify_stride,
    find_generic_points,
    find_rational_point,
    verify_certificate,
)
from kodaira.scalars import AmbiguousCoincidenceError, ComplexApprox, rational_sqrt


@pytest.fixture
def curve1():
    return EllipticCurve(Fraction(1))


def test_rational_point_search(curve1):
    p = find_rational_point(curve1, bound=10)
    assert p == EllipticPoint(Fraction(0), Fraction(1))


def _rational_point_with_seen_set(curve, bound):
    """The search as it was: every x = a/b, skipping a value already tried."""
    seen = set()
    for a_abs in range(0, bound + 1):
        for b in range(1, bound + 1):
            for a in sorted({a_abs, -a_abs}):
                x = Fraction(a, b)
                if x in seen:
                    continue
                seen.add(x)
                y = rational_sqrt(curve.rhs(x))
                if y is not None:
                    return EllipticPoint(x, y)
    return None


def test_rational_point_search_matches_the_seen_set_search():
    lams = {Fraction(n, d) for n in range(-24, 25) for d in range(1, 7)} - {0, Fraction(-27, 4)}
    assert len(lams) == 184
    for lam in sorted(lams):
        curve = EllipticCurve(lam)
        for bound in (0, 1, 3, 10, 30):
            assert find_rational_point(curve, bound) == _rational_point_with_seen_set(curve, bound)


def test_stride_three_for_lam_one(curve1):
    # strides 1 and 2 both produce an excluded value ([2]P is exactly the
    # branch-image difference) and must be rejected by evaluation
    cert = find_generic_points(curve1, 4)
    assert cert.stride == 3
    assert cert.mode == "exact"
    e2, e3, e4 = cert.points
    base = cert.base_point
    assert e2 == curve1.multiply(6, base)
    assert e3 == curve1.multiply(9, base)
    assert e4 == curve1.multiply(12, base)
    assert cert.all_passed


def test_stride_one_rejected_because_double_is_delta(curve1):
    # the multiplier-2 candidate equals the excluded difference exactly
    base = EllipticPoint(Fraction(0), Fraction(1))
    assert curve1.multiply(2, base) == curve1.delta()
    cert = find_generic_points(curve1, 2)
    assert cert.stride > 1


def test_identity_always_excluded(curve1):
    cert = find_generic_points(curve1, 3)
    for p in cert.points:
        assert not p.is_infinity


def test_certificate_verifies_and_mutations_fail(curve1):
    cert = find_generic_points(curve1, 4)
    assert verify_certificate(cert)

    # e2 replaced by delta: an exclusion now fails
    mutated = GenericityCertificate.from_json(cert.to_json())
    mutated.points[0] = curve1.delta()
    assert not verify_certificate(mutated)

    # e2 == e3 makes a difference equal to the identity
    mutated = GenericityCertificate.from_json(cert.to_json())
    mutated.points[1] = mutated.points[0]
    assert not verify_certificate(mutated)


_RATIONAL_LAMBDA = st.fractions(-20, 20, max_denominator=10).filter(
    lambda q: q not in (0, Fraction(-27, 4)))


@st.composite
def _lambda_and_bound(draw):
    """A rational, a quadratic or a complex lambda, with its search bound."""
    kind = draw(st.sampled_from(("rational", "quadratic", "complex")))
    if kind == "rational":
        return draw(_RATIONAL_LAMBDA), 30
    if kind == "quadratic":
        # bound 0 skips the rational search: the base is (0, sqrt(lam)), and
        # the offsets' y coordinates lie in Q(sqrt(lam))
        return Fraction(draw(st.sampled_from((2, 3, 5, 6, 7, -1, -2)))), 0
    re, im = draw(_RATIONAL_LAMBDA), draw(_RATIONAL_LAMBDA)
    return ComplexApprox.of(re) + ComplexApprox.of(1j) * im, 30


@settings(max_examples=15, deadline=None)
@given(_lambda_and_bound(), st.integers(2, 5))
def test_certificate_is_self_contained(lam_and_bound, r):
    lam, bound = lam_and_bound
    try:
        cert = find_generic_points(EllipticCurve(lam), r, bound=bound)
    except SearchExhausted:
        reject()  # e.g. lam = -8: its smallest rational point and (0, sqrt(lam)) are torsion
    text = cert.to_json()
    round_tripped = GenericityCertificate.from_json(text)
    assert round_tripped.to_json() == text
    assert round_tripped.points == cert.points
    assert verify_certificate(round_tripped)


def _pairwise_checks(curve, points, delta):
    """The exclusions decided the direct way: each offset, then every
    pairwise difference ``e_j - e_i`` made by the checked group law."""
    subjects = [(f"e{i}", e) for i, e in enumerate(points, start=2)]
    subjects += [(f"e{j + 2}-e{i + 2}", curve.sub(points[j], points[i]))
                 for i in range(len(points)) for j in range(i + 1, len(points))]
    checks = []
    for subject, point in subjects:
        for name, excluded in zip(EXCLUDED_NAMES, (EC_INFINITY, delta, curve.neg(delta))):
            try:
                passed = not points_equal(point, excluded)
            except AmbiguousCoincidenceError:
                passed = False
            checks.append(ExclusionCheck(subject, name, passed))
    return checks


@settings(max_examples=30, deadline=None)
@given(_lambda_and_bound(), st.integers(2, 7))
def test_checks_read_from_the_multiples_match_the_pairwise_differences(lam_and_bound, r):
    # e_j - e_i is the multiple j - i of the stride, so a table of r
    # multiples yields the same checks as every pairwise subtraction, in
    # exact and in approximate arithmetic; the strides the search passed
    # over fail some of them
    lam, bound = lam_and_bound
    curve = EllipticCurve(lam)
    try:
        found = find_generic_points(curve, r, bound=bound)
    except SearchExhausted:
        reject()
    for stride in sorted({1, 2, found.stride}):
        cert = certify_stride(curve, r, found.base_point, stride)
        assert cert.checks == _pairwise_checks(curve, cert.points, cert.delta)


def test_certificate_binds_its_stride_and_base_point(curve1):
    # the points must be the progression the certificate names
    cert = find_generic_points(curve1, 4)
    assert verify_certificate(cert)

    wrong_stride = GenericityCertificate.from_json(cert.to_json())
    wrong_stride.stride = 5
    assert not verify_certificate(wrong_stride)

    off_curve = GenericityCertificate.from_json(cert.to_json())
    off_curve.base_point = EllipticPoint(Fraction(0), Fraction(2))
    assert not curve1.contains(off_curve.base_point)
    assert not verify_certificate(off_curve)

    reversed_points = GenericityCertificate.from_json(cert.to_json())
    reversed_points.points.reverse()
    assert not verify_certificate(reversed_points)


def test_points_of_the_wrong_length_fail_before_any_walk(curve1, monkeypatch):
    cert = find_generic_points(curve1, 4)
    cert.points.pop()
    monkeypatch.setattr(generic_points, "_progression", None)  # never called
    assert not verify_certificate(cert)


def test_large_r_exact_within_budget(curve1):
    start = time.perf_counter()
    cert = find_generic_points(curve1, 12)
    elapsed = time.perf_counter() - start
    assert cert.mode == "exact"
    assert verify_certificate(cert)
    assert elapsed < 5.0


def test_excluded_set_pairwise_distinct(curve1):
    # offsets together with the difference point, its inverse and the
    # identity must stay pairwise distinct for the rank argument
    cert = find_generic_points(curve1, 5)
    special = [cert.delta, curve1.neg(cert.delta)]
    seen = []
    for p in cert.points + special:
        for q in seen:
            assert p != q
        seen.append(p)


def test_complex_parameter_certificate():
    lam = ComplexApprox.from_re_im_strings("0.5", "0.25")
    curve = EllipticCurve(lam)
    cert = find_generic_points(curve, 4)
    assert cert.mode == "approximate"
    assert cert.all_passed
    assert verify_certificate(cert)


def test_certificate_reverifies_at_its_own_tolerance():
    # made at tol=1e-40, a delta moved by 1e-35 is certifiably wrong
    # (1e-35 >= 10*1e-40), although it lies inside the default tolerance
    tol = 1e-40
    lam = ComplexApprox.from_re_im_strings("0.3", "0.7", tol=tol)
    cert = GenericityCertificate.from_json(
        find_generic_points(EllipticCurve(lam, tol=tol), 3).to_json())
    assert verify_certificate(cert)
    shift = ComplexApprox.of(Fraction(1, 10 ** 35), tol=tol)
    cert.delta = EllipticPoint(cert.delta.x + shift, cert.delta.y)
    assert not verify_certificate(cert)


def test_ambiguous_delta_match_raises():
    # verify_certificate has no escalation of its own: a delta moved into the
    # guard band [tol, 10*tol) is neither a match nor a mismatch
    lam = ComplexApprox.from_re_im_strings("0.3", "0.7")
    cert = find_generic_points(EllipticCurve(lam), 3)
    shift = ComplexApprox.of(3 * Fraction(lam.tol))
    cert.delta = EllipticPoint(cert.delta.x + shift, cert.delta.y)
    with pytest.raises(AmbiguousCoincidenceError):
        verify_certificate(cert)


def test_ladder_exhausts_all_bases(curve1, monkeypatch):
    # with the stride budget capped below the first passing stride every
    # rung of the base-point ladder fails by evaluation: the rational point
    # and the exact known point (0, sqrt(lam))
    monkeypatch.setattr(generic_points, "MAX_STRIDE", 2)
    with pytest.raises(SearchExhausted):
        find_generic_points(curve1, 4)
    monkeypatch.setattr(generic_points, "MAX_STRIDE", 3)
    cert = find_generic_points(curve1, 4)
    assert cert.stride == 3


def test_fallback_base_point_when_no_rational():
    # with the rational search exhausted the search uses (0, sqrt(lam));
    # for lam = 2 that lives in the quadratic extension, still exact
    curve = EllipticCurve(Fraction(2))
    if find_rational_point(curve, bound=3) is not None:
        pytest.skip("parameter has a small rational point after all")
    cert = find_generic_points(curve, 3, bound=3)
    assert cert.mode == "exact"
    assert verify_certificate(cert)
