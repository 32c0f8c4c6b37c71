from fractions import Fraction

import pytest

from kodaira import invariants
from kodaira.intersection import GAMMA
from kodaira.invariants import (
    InvariantReport,
    OddFiberParameterError,
    euler_characteristic,
    fiber_genus,
    invariant_report,
    range_checks,
    signature,
    slope,
    slope_closed_form,
    slope_table,
    slope_table_csv,
)
from kodaira.scalars import SymbolicScalar, symbols


def test_fiber_genus():
    assert fiber_genus(8) == 7
    assert fiber_genus(2) == 4
    with pytest.raises(OddFiberParameterError):
        fiber_genus(7)


def test_euler_characteristic_values():
    assert euler_characteristic(7, 2) == 24
    assert euler_characteristic(2, 2) == 4


def test_euler_characteristic_symbolic():
    gamma, r = symbols("gamma", "r")
    assert euler_characteristic() == (4 + r) * (2 * gamma - 2)
    assert euler_characteristic(5, None) == 8 * (2 * gamma - 2)


def test_slope_values():
    assert slope(8) == Fraction(17, 8)
    assert slope(2) == Fraction(9, 4)
    assert slope(10) == Fraction(59, 28)


def test_slope_symbolic_gamma_free():
    upsilon = slope()
    # neither the base genus nor the cover degree survives simplification
    assert upsilon.free_symbol_names() == {"r"}
    r = symbols("r")
    assert upsilon == 2 + 3 / (2 * (4 + r))


def test_slope_rejects_odd_r():
    with pytest.raises(OddFiberParameterError):
        slope(7)
    with pytest.raises(OddFiberParameterError):
        signature(7, 2)


def test_slope_limit_towards_two():
    # strictly decreasing, bounded below by 2, never reaching it
    previous = None
    for r in range(2, 202, 2):
        upsilon = slope(r)
        assert Fraction(2) < upsilon
        if previous is not None:
            assert upsilon < previous
        previous = upsilon
    assert slope(200) - 2 == Fraction(3, 408)


def test_signature_values():
    assert signature(8, 2) == 1
    assert signature(8, 1025) == 1024


def test_signature_symbolic():
    assert signature() == GAMMA - 1


def test_signature_rearranged_identity():
    # tau = (K^2 - 2e)/3, the definition rearranged
    from kodaira.intersection import k_squared_closed_form

    e = euler_characteristic()
    tau = signature()
    assert 3 * tau == k_squared_closed_form() - 2 * e


def test_signature_positive_for_gamma_at_least_two():
    for gamma in (2, 3, 10, 1025):
        assert signature(8, gamma) > 0


def test_range_checks():
    report = range_checks(8)
    assert report.all_passed
    assert report.upsilon == Fraction(17, 8)
    assert report.within_construction_hypotheses
    report2 = range_checks(2)
    assert report2.all_passed
    assert not report2.within_construction_hypotheses
    assert report2.upsilon == Fraction(9, 4) < Fraction(8, 3)


def test_fiber_genus_at_least_three():
    for r in range(2, 30, 2):
        assert range_checks(r).fiber_genus >= 3


def test_slope_table_frozen_rows():
    rows = slope_table(8, 12)
    assert rows == [
        (8, 7, Fraction(17, 8)),
        (10, 8, Fraction(59, 28)),
        (12, 9, Fraction(67, 32)),
    ]


def test_slope_table_against_closed_form():
    for r, _, upsilon in slope_table(2, 60):
        assert upsilon == slope_closed_form(r)


def test_slope_table_csv_shape():
    text = slope_table_csv(8, 10)
    lines = text.strip().split("\n")
    assert lines[0] == "r,g,upsilon_num,upsilon_den,tau_formula"
    assert lines[1] == "8,7,17,8,gamma-1"
    assert lines[2] == "10,8,59,28,gamma-1"


def test_invariant_report_r8_gamma2():
    report = invariant_report(8, gamma=2)
    assert report.euler == 24
    assert report.k_squared == 51
    assert report.upsilon == Fraction(17, 8)
    assert report.tau == 1
    assert report.identities_hold()


def test_invariant_report_from_cover_degree():
    report = invariant_report(8, deg_cover=1)
    assert report.gamma == 1025
    assert report.tau == 1024
    assert report.identities_hold()
    assert "deg_cover" in report.provenance["gamma"]


def test_invariant_report_symbolic_gamma():
    report = invariant_report(8)
    assert report.provenance["gamma"] == "symbolic"
    assert report.identities_hold()


def test_invariant_report_json_stable():
    a = invariant_report(8, gamma=2).to_json()
    b = invariant_report(8, gamma=2).to_json()
    assert a == b
    assert '"schema": "1"' in a


def test_report_rejects_conflicting_gamma_sources():
    with pytest.raises(ValueError):
        invariant_report(8, gamma=2, deg_cover=1)


def test_rows_evaluate_without_symbolic_arithmetic(monkeypatch):
    # the identities are proved once; rows are plain Fraction evaluations
    slope()
    made = []
    original = SymbolicScalar.__init__

    def counting_init(self, expr):
        made.append(expr)
        original(self, expr)

    monkeypatch.setattr(SymbolicScalar, "__init__", counting_init)
    assert len(slope_table(2, 200)) == 100
    assert [signature(8, g) for g in (1, 2, 3, 10, 1025)] == [0, 1, 2, 9, 1024]
    assert all(range_checks(r).all_passed for r in range(2, 61, 2))
    assert euler_characteristic(7, 2) == 24
    assert made == []


@pytest.fixture
def fresh_proof():
    invariants._proved_identities.cache_clear()
    yield
    invariants._proved_identities.cache_clear()


def test_wrong_closed_form_breaks_the_proof(monkeypatch, fresh_proof):
    real = invariants.k_squared_closed_form
    monkeypatch.setattr(invariants, "k_squared_closed_form", lambda: real() + 1)
    with pytest.raises(ArithmeticError):
        slope(8)
    with pytest.raises(ArithmeticError):
        signature(8, 2)
