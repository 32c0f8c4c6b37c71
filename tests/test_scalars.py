import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from kodaira.scalars import (
    ComplexApprox,
    NOT_REPRESENTABLE,
    QuadExt,
    SymbolicScalar,
    quadext,
    rational_sqrt,
    scalar_from_json,
    scalar_to_json,
    scalars_equal,
    sqrt_in_tower,
    symbols,
)
from kodaira.symbolic import NAMES, from_string


def rand_fraction(rng, height=20):
    num = rng.randint(-height, height)
    den = rng.randint(1, height)
    return Fraction(num, den)


def test_rational_field_ops():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    with pytest.raises(ZeroDivisionError):
        Fraction(1) / Fraction(0)


def test_field_axioms_randomized_rationals():
    rng = random.Random(7)
    for _ in range(200):
        x, y, z = (rand_fraction(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        if x != 0:
            assert x * (1 / x) == 1


def test_quadext_norm_identity():
    q = quadext(Fraction(3), Fraction(2), Fraction(5))
    assert q * q.conjugate() == Fraction(9 - 4 * 5)


def test_quadext_field_axioms_randomized():
    rng = random.Random(11)
    rad = Fraction(7)  # non-square radicand
    for _ in range(150):
        vals = [quadext(rand_fraction(rng), rand_fraction(rng), rad) for _ in range(3)]
        x, y, z = vals
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert (x + y) * z == x * z + y * z
        if not (isinstance(x, Fraction) and x == 0):
            inv = 1 / x if isinstance(x, QuadExt) else Fraction(1) / x
            assert x * inv == 1


def test_quadext_canonical_collapse():
    # b = 0 collapses to a rational; square radicand collapses entirely
    assert quadext(Fraction(3), Fraction(0), Fraction(2)) == Fraction(3)
    assert quadext(Fraction(1), Fraction(2), Fraction(9)) == Fraction(7)
    q = quadext(Fraction(1), Fraction(1), Fraction(2))
    assert isinstance(q, QuadExt)
    # products that cancel the radical part land back in the rationals
    assert isinstance(q * q.conjugate(), Fraction)


def test_quadext_interop_with_fractions():
    q = quadext(0, 1, Fraction(2))
    assert q + Fraction(1, 2) == quadext(Fraction(1, 2), 1, Fraction(2))
    assert Fraction(1, 2) + q == q + Fraction(1, 2)
    assert 2 * q == q + q
    assert (q * q) == Fraction(2)


def test_sqrt_in_tower_rational_square():
    assert sqrt_in_tower(Fraction(9, 4)) == Fraction(3, 2)


def test_sqrt_in_tower_radicand_multiple():
    # lam = 1: sqrt(lam) is rational
    assert sqrt_in_tower(Fraction(1), radicand=Fraction(1)) == 1
    # lam = 2: sqrt(lam) = 0 + 1*sqrt(2)
    root = sqrt_in_tower(Fraction(2), radicand=Fraction(2))
    assert root == quadext(0, 1, Fraction(2))
    assert root * root == Fraction(2)
    # 8 = 2 * (2^2): in the tower over sqrt(2)
    root8 = sqrt_in_tower(Fraction(8), radicand=Fraction(2))
    assert root8 * root8 == Fraction(8)


def test_sqrt_in_tower_not_representable():
    assert sqrt_in_tower(Fraction(3), radicand=Fraction(2)) is NOT_REPRESENTABLE
    assert sqrt_in_tower(Fraction(-1)) is NOT_REPRESENTABLE
    assert not NOT_REPRESENTABLE  # falsy sentinel, a normal outcome


def test_sqrt_of_quadext_element():
    # (1 + sqrt(2))^2 = 3 + 2*sqrt(2)
    target = quadext(3, 2, Fraction(2))
    root = sqrt_in_tower(target)
    assert root is not NOT_REPRESENTABLE
    assert root * root == target


def test_rational_sqrt():
    assert rational_sqrt(Fraction(49, 64)) == Fraction(7, 8)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-4)) is None


class TestComplexApprox:
    def test_construction_and_equality(self):
        z = ComplexApprox.of(Fraction(1, 3), prec=256, tol=1e-30)
        w = ComplexApprox.of(Fraction(1, 3), prec=256, tol=1e-30)
        assert scalars_equal(z, w)
        assert not scalars_equal(z, w + ComplexApprox.of(1, 256, 1e-30))

    def test_division_by_zero(self):
        z = ComplexApprox.of(1)
        with pytest.raises(ZeroDivisionError):
            z / ComplexApprox.of(0)

    def test_reproduces_exact_arithmetic(self):
        # at precision p the error on rational work stays below 2^(-p+8)
        rng = random.Random(3)
        for prec in (128, 256):
            bound = mpmath.mpf(2) ** (-prec + 8)
            for _ in range(50):
                x, y = rand_fraction(rng, 50), rand_fraction(rng, 50)
                exact = x * y + x - y
                zx = ComplexApprox.of(x, prec)
                zy = ComplexApprox.of(y, prec)
                approx = zx * zy + zx - zy
                assert approx.distance(exact) < bound

    def test_precision_carries_through_negation(self):
        z = ComplexApprox.of(Fraction(1, 3), prec=256)
        assert (-(-z)).distance(z) < mpmath.mpf(2) ** -250

    def test_sqrt(self):
        z = ComplexApprox.of(Fraction(2), prec=256)
        assert (z.sqrt() * z.sqrt()).distance(Fraction(2)) < 1e-70


_PRECS = (53, 113, 256, 512)
_TOLS = (1e-40, 1e-30, 1e-12)
_NONZERO = st.integers(-9, 9).filter(bool)


@st.composite
def _approx(draw):
    # re and im are ratios of small integers, |z| >= 1/9, far from every tol
    prec = draw(st.sampled_from(_PRECS))
    with mpmath.workprec(prec):
        z = mpmath.mpc(mpmath.mpf(draw(_NONZERO)) / draw(_NONZERO),
                       mpmath.mpf(draw(st.integers(-9, 9))) / draw(_NONZERO))
    return ComplexApprox(z, prec, draw(st.sampled_from(_TOLS)))


@st.composite
def _operands(draw):
    """A ComplexApprox and a right operand of each kind it meets."""
    left = draw(_approx())
    fraction = st.builds(Fraction, _NONZERO, _NONZERO)
    right = draw(st.one_of(
        _NONZERO,
        fraction,
        st.builds(quadext, fraction, fraction, st.sampled_from([2, 3, -1, Fraction(5, 7)])),
        _approx().filter(lambda v: v.prec != left.prec)))
    return left, right


def _reference_lift(value, prec):
    if isinstance(value, ComplexApprox):
        return value.z
    if isinstance(value, QuadExt):
        return value.to_mpc(prec)
    q = Fraction(value)
    with mpmath.workprec(prec):
        return mpmath.mpc(mpmath.mpf(q.numerator) / q.denominator)


def _same_bits(result, expected, prec, tol):
    assert (result.z._mpc_, result.prec, result.tol) == (expected._mpc_, prec, tol)


@settings(max_examples=150, deadline=None)
@given(_operands(), st.integers(-3, 5))
def test_complex_approx_is_bit_exact_mpmath(operands, n):
    left, right = operands
    approx_right = isinstance(right, ComplexApprox)
    prec = max(left.prec, right.prec) if approx_right else left.prec
    tol = max(left.tol, right.tol) if approx_right else left.tol
    zl, zr = left.z, _reference_lift(right, prec)
    with mpmath.workprec(prec):
        expected = {"+": zl + zr, "-": zl - zr, "*": zl * zr, "/": zl / zr,
                    "r+": zr + zl, "r-": zr - zl, "r*": zr * zl, "r/": zr / zl}
        distance = abs(zl - zr)
    got = {"+": left + right, "-": left - right, "*": left * right, "/": left / right,
           "r+": right + left, "r-": right - left, "r*": right * left, "r/": right / left}
    for key, result in got.items():
        _same_bits(result, expected[key], prec, tol)
    assert left.distance(right)._mpf_ == distance._mpf_
    with mpmath.workprec(left.prec):
        _same_bits(-left, -zl, left.prec, left.tol)
        _same_bits(left ** n, zl ** n, left.prec, left.tol)
        _same_bits(left.sqrt(), mpmath.sqrt(zl), left.prec, left.tol)
        assert left.abs_value()._mpf_ == abs(zl)._mpf_
    for p in _PRECS:  # a lift to a precision rounds to it
        with mpmath.workprec(p):
            _same_bits(ComplexApprox.of(left, p, tol), +zl, p, tol)
    # equal values hash equal, whichever way they were made
    for twin in (left + 0, left * 1, ComplexApprox.of(left, left.prec, left.tol), -(-left)):
        assert twin == left and hash(twin) == hash(left)


def test_scalars_equal_dispatch():
    assert scalars_equal(Fraction(1, 2), Fraction(1, 2))
    assert not scalars_equal(Fraction(1, 2), Fraction(1, 3))
    assert scalars_equal(ComplexApprox.of(Fraction(1, 2)), Fraction(1, 2))
    q = quadext(0, 1, Fraction(5))
    assert scalars_equal(ComplexApprox.of(q), q)


class TestSymbolicScalar:
    def test_canonical_form_idempotent(self):
        gamma, r = symbols("gamma", "r")
        e = (gamma - 1) * (4 * r + 19)
        again = SymbolicScalar(e.expr)
        assert e == again
        assert e.expr == again.expr

    def test_cancellation(self):
        gamma, r = symbols("gamma", "r")
        expr = ((2 * gamma - 2) * (4 + r)) / (gamma - 1)
        assert expr == 2 * (4 + r)
        assert "gamma" not in expr.free_symbol_names()

    def test_substitution_to_fraction(self):
        gamma, r = symbols("gamma", "r")
        e = (8 + 2 * r) * (2 * gamma - 2) + 3 * (gamma - 1)
        assert e.substitute({"r": 8, "gamma": 2}).as_fraction() == 51

    def test_division_by_zero(self):
        gamma = symbols("gamma")
        with pytest.raises(ZeroDivisionError):
            gamma / SymbolicScalar(0)

    def test_powers(self):
        gamma, r = symbols("gamma", "r")
        e = (gamma - 1) / (2 * r + 8)
        assert e ** 0 == 1
        assert e ** -2 * e ** 2 == 1
        assert e ** -1 == (2 * r + 8) / (gamma - 1)
        with pytest.raises(ZeroDivisionError):
            SymbolicScalar(0) ** -1
        with pytest.raises(ZeroDivisionError):
            1 / (gamma - gamma)

    def test_from_string_rejects_other_expressions(self):
        for text in ("gamma + beta", "gamma**(1/2)", "1.5*r", "r +", "sqrt(r)"):
            with pytest.raises(ValueError):
                from_string(text)
        assert from_string(" r**-2 ") == 1 / symbols("r") ** 2

    def test_constants_hash_like_fractions(self):
        assert hash(SymbolicScalar(Fraction(3, 2))) == hash(Fraction(3, 2))
        assert hash(SymbolicScalar(0)) == hash(0)
        assert {SymbolicScalar(Fraction(3, 2)): 1}[Fraction(3, 2)] == 1

    def test_normalize_twice_is_normalize_once(self):
        rng = random.Random(5)
        gamma, r = symbols("gamma", "r")
        for _ in range(20):
            a, b = rand_fraction(rng), rand_fraction(rng)
            e = a * gamma + b * r + a * b
            assert SymbolicScalar(e.expr) == e


def test_scalar_json_round_trip():
    values = [
        Fraction(-7, 3),
        quadext(Fraction(1, 2), Fraction(-3), Fraction(5)),
        ComplexApprox.from_re_im_strings("0.5", "0.25"),
        symbols("gamma") * 2 + 1,
    ]
    for v in values:
        back = scalar_from_json(scalar_to_json(v))
        if isinstance(v, ComplexApprox):
            assert scalars_equal(back, v)
        else:
            assert back == v


# -- the symbolic layer against sympy, as an oracle ------------------------------

_COEFFICIENTS = st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(bool)
_TERMS = st.tuples(st.tuples(*[st.integers(0, 2)] * len(NAMES)), _COEFFICIENTS)
_POLYNOMIALS = st.lists(_TERMS, max_size=3)
_DIVISORS = st.lists(_TERMS, min_size=1, max_size=3)


def _polynomial(terms, symbol, number):
    total = number(0)
    for exponents, c in terms:
        term = number(c)
        for name, e in zip(NAMES, exponents):
            term = term * symbol(name) ** e
        total = total + term
    return total


def _both(sp, terms):
    """The same polynomial as a SymbolicScalar and as a sympy expression."""
    return (_polynomial(terms, symbols, SymbolicScalar),
            _polynomial(terms, sp.Symbol, lambda c: sp.Rational(c.numerator, c.denominator)))


@settings(max_examples=150, deadline=None)
@given(_POLYNOMIALS)
def test_polynomial_prints_as_sympy(terms):
    sp = pytest.importorskip("sympy")
    ours, theirs = _both(sp, terms)
    cancelled = sp.cancel(theirs)
    assert str(ours) == str(cancelled)
    assert ours.free_symbol_names() == {s.name for s in cancelled.free_symbols}
    assert from_string(str(ours)) == ours
    assert SymbolicScalar(theirs) == ours  # the sympy bridge


@settings(max_examples=60, deadline=None)
@given(_POLYNOMIALS, _POLYNOMIALS, _DIVISORS)
def test_gcd_agrees_with_sympy(a, b, f):
    sp = pytest.importorskip("sympy")
    from kodaira.symbolic import _p_gcd

    (na, ea), (nb, eb), (nf, ef) = (_both(sp, t) for t in (a, b, f))
    x, y = na * nf, nb * nf
    assume(not (x.is_zero() or y.is_zero()))
    ours = SymbolicScalar((_p_gcd(x._num, y._num), {(0,) * len(NAMES): Fraction(1)}))
    # equal up to a nonzero rational factor, and monic in the lex order
    unit = sp.cancel(sp.gcd(sp.expand(ea * ef), sp.expand(eb * ef)) / ours.expr)
    assert unit.is_Rational and unit != 0
    assert ours._num[max(ours._num)] == 1


def test_gcd_retries_an_unlucky_evaluation(monkeypatch):
    # here the first evaluation point's candidate divides neither polynomial
    from kodaira import symbolic

    failed = []
    divides = symbolic._divides
    monkeypatch.setattr(symbolic, "_divides", lambda b, a: divides(b, a) or failed.append(b))
    f, g = from_string("3*r**2*x1 - 6*r*x1"), from_string("-3*gamma*x1 - 6*r**2*x1**2")
    assert symbolic._p_gcd(f._num, g._num) == symbols("x1")._num
    assert failed
    assert str(f / g) == "(-r**2 + 2*r)/(gamma + 2*r**2*x1)"


@settings(max_examples=40, deadline=None)
@given(_POLYNOMIALS, _DIVISORS, _POLYNOMIALS, _DIVISORS, _DIVISORS,
       st.dictionaries(st.sampled_from(NAMES), _COEFFICIENTS | st.just(Fraction(0))))
def test_quotients_agree_with_sympy(a, b, c, d, f, values):
    sp = pytest.importorskip("sympy")
    (na, ea), (nb, eb), (nc, ec), (nd, ed), (nf, _) = (_both(sp, t) for t in (a, b, c, d, f))
    assume(not (nb.is_zero() or nd.is_zero() or nf.is_zero()))
    x, y = na / nb, nc / nd
    cancelled = sp.cancel(ea / eb)

    # decisions
    equal = sp.cancel(ea / eb - ec / ed) == 0
    assert (x == y) == equal and (x - y).is_zero() == equal
    assert x.free_symbol_names() == {s.name for s in cancelled.free_symbols}

    # equal values built different ways are one canonical form
    for again in ((na * nf) / (nb * nf), x + y - y, (x * y) / y if not y.is_zero() else x):
        assert again == x
        assert str(again) == str(x) and hash(again) == hash(x)
    assert from_string(str(x)) == x

    # substitution, exact and simultaneous, into the cancelled form
    subs = {sp.Symbol(name): sp.Rational(v.numerator, v.denominator)
            for name, v in values.items()}
    numerator, denominator = (e.subs(subs, simultaneous=True) for e in sp.fraction(cancelled))
    if sp.expand(denominator) == 0:
        with pytest.raises(ZeroDivisionError):
            x.substitute(values)
        return
    got, want = x.substitute(values), sp.cancel(numerator / denominator)
    assert got == SymbolicScalar(want)
    if len(values) == len(NAMES):
        assert got.as_fraction() == Fraction(int(want.p), int(want.q))
        assert hash(got) == hash(got.as_fraction())
