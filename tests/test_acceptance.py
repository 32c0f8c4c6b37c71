"""Acceptance suite: one test per headline claim, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  Every tolerance and time budget is pinned here.
"""

import json
import time
from fractions import Fraction

from kodaira import genus
from kodaira.cli import main as cli_main
from kodaira.config_curve import ConfigurationCurve, sample_genus2_point
from kodaira.generic_points import (
    GenericityCertificate,
    find_generic_points,
    verify_certificate,
)
from kodaira.genus2 import GenusTwoCurve
from kodaira.intersection import (
    GAMMA,
    R,
    RSQ,
    X1,
    build_table,
    k_squared,
    lemma_counts,
    solve_adjunction,
)
from kodaira.invariants import invariant_report, slope, slope_closed_form, slope_table
from kodaira.scalars import ComplexApprox, SymbolicScalar
from kodaira.verifier import verify_claim

import random


def _report(number, label, ok):
    print(f"criterion {number:2d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def test_criterion_01_slope_formula():
    start = time.perf_counter()
    rows = slope_table(8, 40)
    exact = all(upsilon == slope_closed_form(r) for r, _, upsilon in rows)
    exact = exact and rows[0] == (8, 7, Fraction(17, 8))
    exact = exact and len(rows) == 17
    elapsed = time.perf_counter() - start
    _report(1, "slope formula, even r in [8, 40], exact", exact and elapsed < 1.0)


def test_criterion_02_k_squared_identity():
    start = time.perf_counter()
    derivation = k_squared()
    target = (8 + 2 * R) * (2 * GAMMA - 2) + 3 * (GAMMA - 1)
    ok = derivation.value == target
    ok = ok and derivation.value.expr == target.expr  # canonical forms coincide
    elapsed = time.perf_counter() - start
    _report(2, "canonical self-intersection closed form", ok and elapsed < 1.0)


def test_criterion_03_adjunction_relation():
    table = build_table()
    result = solve_adjunction(table)
    # the engine derives Rsq = -(1/2) * (section . pullback of D1)
    ok = result.substitutions["Rsq"] == SymbolicScalar(Fraction(-1, 2)) * X1
    ok = ok and result.substitutions["x2"] == X1
    # with the counting lemma the self-intersection becomes -(gamma-1)/r
    lemma = lemma_counts()
    rsq = result.substitutions["Rsq"].substitute(lemma.substitution)
    ok = ok and rsq == SymbolicScalar(-1) * (GAMMA - 1) / R
    _report(3, "section self-intersection by adjunction", ok)


def test_criterion_04_genus_claim():
    start = time.perf_counter()
    ok = all(genus(r)[0] == genus(r)[1] for r in range(1, 17))
    ok = ok and genus(1) == (2, 2) and genus(8) == (1025, 1025)
    elapsed = time.perf_counter() - start
    _report(4, "tower genus recursion vs closed form, r = 1..16",
            ok and elapsed < 1.0)


def test_criterion_05_branch_count():
    ok = True
    for lam in (Fraction(1), ComplexApprox.from_re_im_strings("0.5", "0.25",
                                                              256, 1e-30)):
        start = time.perf_counter()
        curve = GenusTwoCurve(lam, prec=256, tol=1e-30)
        for r in range(2, 11):
            cert = find_generic_points(curve.elliptic_quotient(), r)
            config = ConfigurationCurve(curve, cert.offsets())
            points = config.branch_points()  # certifies pairwise distinctness
            ok = ok and len(points) == 2 ** r
        elapsed = time.perf_counter() - start
        ok = ok and elapsed < 10.0
    _report(5, "2^r distinct branch points, both parameters, r <= 10", ok)


def test_criterion_06_smoothness():
    start = time.perf_counter()
    curve = GenusTwoCurve(Fraction(1), prec=256, tol=1e-30)
    ok = True
    for r in range(2, 11):
        cert = find_generic_points(curve.elliptic_quotient(), r)
        config = ConfigurationCurve(curve, cert.offsets())
        rng = random.Random(100 + r)
        checked = 0
        while checked < 100:
            p1 = sample_genus2_point(curve, rng)
            if p1 is None:
                continue
            for tup in config.fiber_over_first(p1):
                if config.jacobian(tup) != r - 1:
                    ok = False
                checked += 1
        if not ok:
            break
    elapsed = time.perf_counter() - start
    _report(6, "Jacobian rank r-1 at 100+ sampled points, r <= 10",
            ok and elapsed < 30.0)


def test_criterion_07_projection_degrees():
    curve = GenusTwoCurve(Fraction(1), prec=256, tol=1e-30)
    ok = True
    for r in range(2, 6):
        cert = find_generic_points(curve.elliptic_quotient(), r)
        config = ConfigurationCurve(curve, cert.offsets())
        expected = 2 ** (r - 1)
        # fibers over both cover-critical points, for every coordinate
        for j in range(1, r + 1):
            for sign in (+1, -1):
                fiber = config.projection_fiber(j, curve.branch_point(sign))
                ok = ok and fiber.size == expected
        # ten generic draws on the first and last coordinate
        ok = ok and config.projection_degree_estimate(1, samples=10) == expected
        ok = ok and config.projection_degree_estimate(r, samples=10) == expected
    _report(7, "projection degree 2^(r-1) over critical and generic values", ok)


def test_criterion_08_genericity_search():
    start = time.perf_counter()
    curve = GenusTwoCurve(Fraction(1)).elliptic_quotient()
    cert = find_generic_points(curve, 12)
    ok = cert.mode == "exact" and cert.all_passed
    ok = ok and verify_certificate(cert)
    for i in range(len(cert.points)):
        mutated = GenericityCertificate.from_json(cert.to_json())
        mutated.points[i] = curve.delta()
        ok = ok and not verify_certificate(mutated)
    elapsed = time.perf_counter() - start
    _report(8, "exact genericity certificate up to r = 12, mutation-sensitive",
            ok and elapsed < 5.0)


def test_criterion_09_invariant_coherence():
    report = invariant_report(8, gamma=2)
    ok = report.euler == 24 and report.k_squared == 51
    ok = ok and report.upsilon == Fraction(17, 8) and report.tau == 1
    ok = ok and report.identities_hold()
    # tau == gamma - 1 exactly
    ok = ok and report.tau == 2 - 1
    for r in range(2, 62, 2):
        upsilon = slope(r)
        ok = ok and Fraction(2) < upsilon < Fraction(8, 3)
    _report(9, "invariant report r=8 gamma=2 and slope bounds", ok)


def test_criterion_10_determinism(capsys):
    args = ["verify-config-curve", "--r", "2", "--samples", "5", "--seed", "11"]
    code_a = cli_main(list(args))
    first = capsys.readouterr().out
    code_b = cli_main(list(args))
    second = capsys.readouterr().out
    ok = code_a == 0 and code_b == 0
    ok = ok and first.encode() == second.encode()
    ok = ok and json.loads(first)["status"] == "pass"
    _report(10, "byte-identical verification reports at fixed seed", ok)


def test_criterion_11_paper_regime_at_default_samples():
    # r = 8 is the first r inside the construction's hypotheses; the budget
    # is for two cores, where the whole run takes about 2.5 s
    start = time.perf_counter()
    run = verify_claim("1/1", 8)
    elapsed = time.perf_counter() - start
    ok = run.passed and run.sample_count == 50
    ok = ok and run.tallies["membership_and_rank"].checked == 50 * 2 ** 7
    _report(11, "verify_claim at r = 8, default samples, inside 20 s",
            ok and elapsed < 20.0)


def test_criterion_12_deep_regime_at_default_samples():
    # r = 16 at the default 50 samples: 2^15 tuples per fiber, decided from
    # their slots; the budget is for two cores, where the run takes about 3 s
    start = time.perf_counter()
    run = verify_claim("1/1", 16)
    elapsed = time.perf_counter() - start
    ok = run.passed and run.sample_count == 50
    ok = ok and run.tallies["membership_and_rank"].checked == 50 * 2 ** 15
    ok = ok and run.tallies["branch_count"].checked == 2 + 2 ** 16
    _report(12, "verify_claim at r = 16, default samples, inside 20 s",
            ok and elapsed < 20.0)
