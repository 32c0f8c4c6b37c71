import gc
import weakref
from fractions import Fraction

import pytest

import kodaira.verifier as verifier_module
from kodaira.config_curve import (
    AmbiguousCoincidenceError,
    ConfigTuple,
    ConfigurationCurve,
    _Decisions,
)
from kodaira.elliptic import points_equal
from kodaira.scalars import DEFAULT_PREC_BITS
from kodaira.verifier import (
    PrecisionExhausted,
    lambda_at,
    parse_lambda_spec,
    verify_claim,
)


def test_parse_lambda_spec():
    assert parse_lambda_spec("3/7") == Fraction(3, 7)
    assert parse_lambda_spec("2") == Fraction(2)
    assert parse_lambda_spec("0.5, 0.25") == ("0.5", "0.25")


def test_lambda_at_precisions():
    z256 = lambda_at(("0.5", "0.25"), 256, 1e-30)
    z512 = lambda_at(("0.5", "0.25"), 512, 1e-30)
    assert z256.prec == 256 and z512.prec == 512
    assert z512.distance(z256) == 0  # the decimals are dyadic here


def test_singular_parameters_rejected_before_sampling():
    with pytest.raises(ValueError):
        verify_claim("-27/4", 2)
    with pytest.raises(ValueError):
        verify_claim("0/1", 2)


def test_negative_samples_rejected_before_any_context(monkeypatch):
    def no_context(*args, **kwargs):
        raise AssertionError("a context was built")

    monkeypatch.setattr(verifier_module, "_Context", no_context)
    with pytest.raises(ValueError, match="samples"):
        verify_claim("1/1", 3, samples=-5)


def test_zero_samples_stays_legal():
    run = verify_claim("1/1", 3, samples=0)
    assert run.passed
    assert run.sample_count == 0
    assert run.tallies["membership_and_rank"].checked == 0


def test_full_run_rational_lam():
    run = verify_claim("1/1", 3, samples=20, seed=0)
    assert run.passed
    tallies = run.tallies
    assert tallies["discriminant"].failed == 0
    assert tallies["genericity"].passed == 1
    assert tallies["membership_and_rank"].failed == 0
    assert tallies["membership_and_rank"].checked > 0
    assert tallies["branch_count"].info["found"] == 8
    assert tallies["branch_count"].info["split"] == {"+1": 4, "-1": 4}
    assert tallies["projection_degrees"].info["expected"] == 4
    assert tallies["genus"].info == {"recursion": 13, "closed_form": 13}
    assert run.counterexamples == []


def test_full_run_complex_lam():
    # the construction imposes no reality condition on the parameter
    run = verify_claim("0.5,0.25", 2, samples=8, seed=3)
    assert run.passed
    assert run.tallies["branch_count"].info["found"] == 4


def test_determinism_byte_identical():
    a = verify_claim("1/1", 2, samples=10, seed=42).to_json()
    b = verify_claim("1/1", 2, samples=10, seed=42).to_json()
    assert a == b


def test_different_seeds_still_pass():
    for seed in (0, 1, 2):
        assert verify_claim("1/1", 2, samples=5, seed=seed).passed


def test_wall_time_not_serialized():
    run = verify_claim("1/1", 2, samples=5, seed=0)
    assert run.wall_time_s > 0
    assert "wall_time" not in run.to_json()


def test_adversarial_tolerance_triggers_escalation():
    # with tol = 1e-1 some branch coordinates fall into the ambiguity
    # band; escalation is triggered deterministically and, since the
    # separation is genuine geometry rather than roundoff, doubling the
    # precision cannot resolve it: the run fails loudly
    with pytest.raises(PrecisionExhausted):
        verify_claim("1/1", 3, samples=2, seed=0, tol=1e-1)


def test_escalation_resolves_roundoff_band(monkeypatch):
    # policy mechanics: a check that is ambiguous at the base precision
    # and clean at doubled precision must be retried exactly once and
    # then recorded as escalated
    calls = []

    def flaky(ctx, run, tally, rng):
        calls.append(ctx.prec)
        if ctx.prec == 256:
            raise AmbiguousCoincidenceError("simulated roundoff band",
             check_name="flaky", distance=1e-31, tol=1e-30)
        tally.record(True)

    monkeypatch.setattr(verifier_module, "_CHECKS", (("flaky", flaky),))
    run = verify_claim("1/1", 2, samples=1, seed=0, prec=256)
    assert calls == [256, 512]
    assert run.passed
    assert run.tallies["flaky"].escalated
    assert run.escalations and run.escalations[0]["from_prec"] == 256


def test_persistent_ambiguity_fails_loudly(monkeypatch):
    def always_ambiguous(ctx, run, tally, rng):
        raise AmbiguousCoincidenceError("persistent", check_name="bad",
                                        distance=1e-31, tol=1e-30)

    monkeypatch.setattr(verifier_module, "_CHECKS",
                        (("bad", always_ambiguous),))
    with pytest.raises(PrecisionExhausted):
        verify_claim("1/1", 2, samples=1, seed=0)


def test_clean_run_not_escalated():
    run = verify_claim("1/1", 2, samples=5, seed=0)
    assert run.escalations == []
    assert not any(t.escalated for t in run.tallies.values())


def test_counterexample_dump_on_failure(monkeypatch):
    def failing(ctx, run, tally, rng):
        tally.record(False)
        run.counterexamples.append({"check": "failing", "detail": "forced"})

    monkeypatch.setattr(verifier_module, "_CHECKS", (("failing", failing),))
    run = verify_claim("1/1", 2, samples=1, seed=0)
    assert run.status == "fail"
    assert run.counterexamples == [{"check": "failing", "detail": "forced"}]


def test_exact_and_numeric_counts_agree():
    # integer-valued quantities agree between the exact certificate route
    # and the numeric enumeration for a rational parameter
    run = verify_claim("1/1", 3, samples=5, seed=1)
    assert run.tallies["branch_count"].info["found"] == 2 ** 3
    assert run.tallies["genus"].info["recursion"] == \
        run.tallies["genus"].info["closed_form"]
    assert run.tallies["projection_degrees"].info["expected"] == 2 ** 2


def test_escalation_rechecks_the_base_configuration(monkeypatch):
    # genericity is ambiguous at the base precision for a complex lambda;
    # the escalated check gets the base certificate's stride and offsets,
    # re-made at doubled precision, and no second search
    certificates, searches = [], []
    verify, search = verifier_module.verify_certificate, verifier_module.find_generic_points

    def ambiguous_at_base(cert):
        certificates.append(cert)
        if cert.points[0].x.prec == DEFAULT_PREC_BITS:
            raise AmbiguousCoincidenceError("forced", check_name="test",
                                            distance=0.0, tol=cert.points[0].x.tol)
        return verify(cert)

    def counted_search(*args, **kwargs):
        searches.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(verifier_module, "verify_certificate", ambiguous_at_base)
    monkeypatch.setattr(verifier_module, "find_generic_points", counted_search)
    run = verify_claim("0.5,0.25", 3, samples=2, seed=0)
    assert run.passed
    assert [e["check"] for e in run.escalations] == ["genericity"]
    base, escalated = certificates
    assert len(searches) == 1
    assert escalated.points[0].x.prec == 2 * DEFAULT_PREC_BITS
    assert escalated.stride == base.stride == run.tallies["genericity"].info["stride"]
    assert escalated.mode == base.mode == "approximate"
    assert all(points_equal(p, q, "test") for p, q in
               zip([base.base_point, *base.points], [escalated.base_point, *escalated.points]))


def test_mutated_branch_tuple_is_recorded_as_a_failure(monkeypatch):
    # the last of the 2^r branch tuples takes slot 2 from the first tuple,
    # whose first coordinate differs: the memo, warm from 255 members,
    # must still decide the mutant's cover condition
    original = ConfigurationCurve.branch_points
    mutants = []

    def one_mutated(self):
        points = original(self)
        last = list(points[-1].points)
        last[1] = points[0][1]
        mutants.append(ConfigTuple(tuple(last)))
        return points[:-1] + mutants[-1:]

    monkeypatch.setattr(ConfigurationCurve, "branch_points", one_mutated)
    run = verify_claim("1/1", 8, samples=0)
    tally = run.tallies["branch_count"]
    assert run.status == "fail"
    assert tally.failed == 1 and tally.checked == 2 + 2 ** 8
    assert run.counterexamples == [{"check": "branch_membership",
                                    "tuple": mutants[0].to_json_dict()}]


def test_no_decision_memo_outlives_its_enumeration(monkeypatch):
    # while a memo is made, only the previous enumeration's may be alive
    # (its name is rebound after the call); after the run, none is
    made, alive = [], []
    init = _Decisions.__init__

    def recorded(self, config):
        gc.collect()
        alive.append(sum(ref() is not None for ref in made))
        init(self, config)
        made.append(weakref.ref(self))

    monkeypatch.setattr(_Decisions, "__init__", recorded)
    runs = [verify_claim(lam, 4, samples=3, seed=0) for lam in ("1/1", "0.3,0.7")]
    assert all(run.passed for run in runs)
    gc.collect()
    assert len(made) >= 4  # a fiber per accepted draw and the branch list, per run
    assert max(alive) <= 1
    assert [ref() for ref in made] == [None] * len(made)
