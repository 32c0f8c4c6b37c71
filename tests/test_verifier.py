import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import kodaira.verifier as verifier_module
from kodaira import config_curve
from kodaira.config_curve import (
    AmbiguousCoincidenceError,
    ConfigurationCurve,
    Enumeration,
    FiberSizesDisagree,
    SlotFacts,
    SlotProduct,
    arrowhead_rank,
)
from kodaira.elliptic import EllipticCurve, points_equal
from kodaira.generic_points import find_generic_points
from kodaira.genus2 import GenusTwoCurve, GenusTwoPoint, genus2_points_equal
from kodaira import DEFAULT_PREC_BITS, DEFAULT_TOL, format_rational
from kodaira.scalars import ComplexApprox
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


def test_deep_r_past_a_machine_word():
    # at r = 64 a fiber holds 2^63 tuples and the branch enumeration 2^64,
    # more than sys.maxsize: both are counted by multiplication, and the
    # exact certificate is made and re-verified from its r multiples
    run = verify_claim("1/1", 64, samples=2)
    assert run.passed
    assert run.tallies["membership_and_rank"].checked == 2 * 2 ** 63
    assert run.tallies["branch_count"].info["found"] == 2 ** 64
    assert run.tallies["branch_count"].info["split"] == {"+1": 2 ** 63, "-1": 2 ** 63}
    assert run.escalations == []
    assert not any(tally.escalated for tally in run.tallies.values())


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
    # slot 2 of the minus product takes its last choice from the plus
    # product, whose first coordinates differ: the slot decisions must find
    # the failing cover condition, and the replay must name every tuple
    # that holds the mutant choice
    original = ConfigurationCurve.branch_enumeration
    mutants = []

    def one_mutated(self):
        plus, minus = original(self).products
        slots = list(minus.slots)
        slots[1] = slots[1][:-1] + plus.slots[1][:1]
        mutants.append(SlotProduct(tuple(slots)))
        return Enumeration((plus, mutants[-1]))

    monkeypatch.setattr(ConfigurationCurve, "branch_enumeration", one_mutated)
    run = verify_claim("1/1", 8, samples=0)
    tally = run.tallies["branch_count"]
    mutant = mutants[0]
    assert run.status == "fail"
    assert tally.failed >= 1 and tally.checked == 2 + 2 ** 8
    assert run.counterexamples == [{"check": "branch_membership", "tuple": tup.to_json_dict()}
                                   for tup in mutant if tup[1] is mutant.slots[1][-1]]
    assert {"check": "branch_membership",
            "tuple": mutant[-1].to_json_dict()} in run.counterexamples


_LAMBDAS = st.one_of(
    # -8 is left out: its genericity search is exhausted, after seconds
    st.builds(Fraction, st.integers(-24, 24), st.integers(1, 6)).filter(
        lambda lam: lam not in (0, Fraction(-27, 4), -8)).map(format_rational),
    st.builds("{},{}".format, st.integers(-20, 20).map(lambda a: a / 10),
              st.integers(1, 20).map(lambda b: b / 10)))
_MUTATIONS = st.sampled_from((None, "other-fiber", "repeated-point", "off-curve",
                              "ambiguous-on-curve", "repeated-offset"))


def _near_curve(p: GenusTwoPoint, gap: float) -> GenusTwoPoint:
    """``p`` with y moved so that its on-curve residual is ``gap * tol``."""
    shift = ComplexApprox.of(gap * p.y.tol, p.y.prec, p.y.tol) / (2 * p.y)
    return GenusTwoPoint.affine(p.x, p.y + shift)


def _mutated_slots(product: SlotProduct, mutation: str, slot: int, choice: int,
                   other: SlotProduct) -> SlotProduct:
    """``product`` with one choice of one slot replaced, as ``mutation`` says.

    ``ambiguous-on-curve`` moves two points into the on-curve ambiguity
    band, at the base precision only, so the run escalates and passes at
    twice that: the last choice of slot ``k`` (residual 3 tol) and the
    first choice of the next later slot (7 tol).  The walk meets the
    second first, in tuple 0; deciding slot by slot meets the first first
    unless ``k`` is the last slot.  So the escalation detail tells which
    order decided.
    """
    slots = [list(choices) for choices in product.slots]
    k = slot % len(slots)
    c = choice % len(slots[k])
    p = slots[k][c]
    if mutation == "other-fiber":
        slots[k][c] = other.slots[k][0]
    elif mutation == "repeated-point":
        slots[k][c] = slots[(k + 1) % len(slots)][0]
    elif mutation == "off-curve" and not p.is_infinity:
        slots[k][c] = GenusTwoPoint.affine(p.x, p.y + 1)
    elif mutation == "ambiguous-on-curve" and all(
            not q.is_exact and q.x.prec == DEFAULT_PREC_BITS for q in product.slots[0]):
        k = 1 + slot % (len(slots) - 1)
        k2 = 1 + k % (len(slots) - 1)
        slots[k][-1] = _near_curve(slots[k][-1], 3)
        slots[k2][0] = _near_curve(slots[k2][0], 7)
    return SlotProduct(tuple(map(tuple, slots)))


def _outcome(lam, r, samples, seed, tol):
    try:
        return verify_claim(lam, r, samples=samples, seed=seed, tol=tol).to_json_dict()
    except Exception as exc:  # every path must fail alike
        return type(exc).__name__, str(exc)


class _ReferenceWalk:
    """Membership and rank of each tuple decided from scratch, lazily, with no table.

    Stands in for :class:`SlotFacts` as the reference it must agree with:
    each condition is decided when the walk reaches it, through the curve
    operations themselves, and the first decision that raises ends the walk.
    """

    def __init__(self, config: ConfigurationCurve, product: SlotProduct):
        self.config = config
        self.product = product

    def all_hold(self) -> bool:
        return False

    def _tuple(self, picks):
        return tuple(choices[c] for choices, c in zip(self.product.slots, picks))

    def member(self, picks) -> bool:
        curve, elliptic, tup = self.config.curve, self.config.elliptic, self._tuple(picks)
        if not all(curve.contains(p) for p in tup):
            return False
        for p, e in zip(tup[1:], self.config.offsets):
            expected = elliptic.add(curve.cover(tup[0]), e)
            if not points_equal(curve.cover(p), expected, "membership-cover-condition"):
                return False
        return not any(genus2_points_equal(p, q, "membership-distinctness")
                       for p, q in itertools.combinations(tup, 2))

    def rank(self, picks) -> int:
        return arrowhead_rank([self.config.curve.cover_derivative(p) for p in self._tuple(picks)])


@settings(max_examples=30, deadline=None)
@example("1/1", 4, 2, 0, DEFAULT_TOL, "repeated-offset", 0, 0, False)
@example("0.3,0.7", 4, 1, 0, DEFAULT_TOL, "ambiguous-on-curve", 1, 0, False)
@example("0.3,0.7", 4, 0, 0, DEFAULT_TOL, "ambiguous-on-curve", 1, 0, True)
@given(_LAMBDAS, st.integers(2, 6), st.integers(0, 2), st.integers(0, 50),
       st.sampled_from((DEFAULT_TOL, 1e-2)), _MUTATIONS, st.integers(0, 5),
       st.integers(0, 1), st.booleans())
def test_slot_verdict_matches_the_tuple_walk(lam, r, samples, seed, tol, mutation,
                                             slot, choice, in_branch):
    # the run as is, the run replaying every tuple from its slot table, and
    # the run deciding every tuple from scratch give the same tallies,
    # counterexamples and escalations, also when a slot is mutated; a
    # repeated offset makes two slots share their y's
    fiber, branch = ConfigurationCurve.fiber_over_first, ConfigurationCurve.branch_enumeration
    init = ConfigurationCurve.__init__

    def mutated_fiber(self, p1):
        product = fiber(self, p1)
        if in_branch or mutation in (None, "repeated-offset"):
            return product
        return _mutated_slots(product, mutation, slot, choice,
                              fiber(self, self.curve.branch_point(-1)))

    def mutated_branch(self):
        plus, minus = branch(self).products
        if in_branch and mutation not in (None, "repeated-offset"):
            minus = _mutated_slots(minus, mutation, slot, choice, plus)
        return Enumeration((plus, minus))

    def repeated_offset(self, curve, offsets):
        init(self, curve, offsets[:1] * 2 + offsets[2:] if len(offsets) >= 2 else offsets)

    with pytest.MonkeyPatch.context() as patch:
        # the projection degrees use no slot verdict
        patch.setattr(verifier_module, "_CHECKS", tuple(
            check for check in verifier_module._CHECKS if check[0] != "projection_degrees"))
        patch.setattr(ConfigurationCurve, "fiber_over_first", mutated_fiber)
        patch.setattr(ConfigurationCurve, "branch_enumeration", mutated_branch)
        if mutation == "repeated-offset":
            patch.setattr(ConfigurationCurve, "__init__", repeated_offset)
        fast = _outcome(lam, r, samples, seed, tol)
        patch.setattr(SlotFacts, "all_hold", lambda self: False)
        replayed = _outcome(lam, r, samples, seed, tol)
        patch.setattr(ConfigurationCurve, "slot_facts",
                      lambda self, product: _ReferenceWalk(self, product))
        walked = _outcome(lam, r, samples, seed, tol)
    assert fast == replayed == walked


def test_a_passing_run_walks_no_tuple(monkeypatch):
    # every enumeration of a passing run is decided from its slots: no
    # tuple goes through contains, jacobian or a replay of its slot table
    calls = []
    for owner, name in ((ConfigurationCurve, "contains"), (ConfigurationCurve, "jacobian"),
                        (SlotFacts, "member"), (SlotFacts, "rank")):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *args, _name=name, _f=original: calls.append(_name) or _f(*args))
    run = verify_claim("1/1", 8, samples=2)
    assert run.passed and run.tallies["membership_and_rank"].checked == 2 * 2 ** 7
    assert calls == []


def test_a_tolerance_finer_than_the_precision_is_rejected_before_sampling(monkeypatch):
    monkeypatch.setattr(verifier_module, "sample_genus2_point", None)  # never reached
    with pytest.raises(ValueError, match=r"tol 1e-30 is below 2\*\*-64"):
        verify_claim("0.3,0.7", 3, prec=64)


def test_off_curve_slot_choice_fails_the_run(monkeypatch):
    # a fiber slot holding (x, y+1): the run fails instead of raising, and its
    # counterexamples are exactly the tuples holding that point, as non-members
    fiber = ConfigurationCurve.fiber_over_first
    mutated = []

    def off_curve_fiber(self, p1):
        mutated.append(_mutated_slots(fiber(self, p1), "off-curve", 2, 1, None))
        return mutated[-1]

    monkeypatch.setattr(ConfigurationCurve, "fiber_over_first", off_curve_fiber)
    run = verify_claim("1/1", 4, samples=1)
    assert run.status == "fail"
    [product] = mutated
    mutant = product.slots[2][1]
    found = [c for c in run.counterexamples if c["check"] == "membership_and_rank"]
    assert [c["tuple"] for c in found] == [t.to_json_dict() for t in product if mutant in t]
    assert len(found) == product.size // 2
    assert not any(c["member"] for c in found)


def test_an_ambiguity_no_tuple_meets_is_not_raised(monkeypatch):
    # both slot-2 choices are off the curve, so every tuple is a non-member
    # before its slot pairs are read; a slot-3 choice 3 tol in x from one of
    # them makes that pair's coincidence ambiguous, and no tuple meets it
    fiber = ConfigurationCurve.fiber_over_first
    mutated = []

    def off_curve_fiber(self, p1):
        slots = [list(choices) for choices in fiber(self, p1).slots]
        slots[1] = [GenusTwoPoint.affine(p.x, p.y + 1) for p in slots[1]]
        p = slots[1][0]
        slots[2][0] = GenusTwoPoint.affine(p.x + ComplexApprox.of(3 * p.x.tol, p.x.prec, p.x.tol),
                                           p.y)
        mutated.append(SlotProduct(tuple(map(tuple, slots))))
        return mutated[-1]

    monkeypatch.setattr(ConfigurationCurve, "fiber_over_first", off_curve_fiber)
    run = verify_claim("1/1", 4, samples=1)
    assert run.status == "fail" and run.escalations == []
    [product] = mutated
    found = [c for c in run.counterexamples if c["check"] == "membership_and_rank"]
    assert [c["tuple"] for c in found] == [t.to_json_dict() for t in product]
    assert not any(c["member"] for c in found)


def test_naming_a_failing_products_tuples_makes_no_decision(monkeypatch):
    # once the slot table is built, reading every tuple's membership and
    # rank from it decides nothing again
    curve = GenusTwoCurve(Fraction(1))
    config = ConfigurationCurve(curve, find_generic_points(curve.elliptic_quotient(), 4).offsets())
    p1 = config.projection_fiber(2, curve.branch_point(-1)).slots[0][0]
    product = _mutated_slots(config.fiber_over_first(p1), "other-fiber", 2, 1,
                             config.fiber_over_first(curve.branch_point(-1)))
    facts = config.slot_facts(product)
    assert not facts.all_hold()
    calls = []
    for owner, name in ((GenusTwoCurve, "contains"), (EllipticCurve, "add"),
                        (config_curve, "genus2_points_equal")):
        monkeypatch.setattr(owner, name, lambda *args, _name=name: calls.append(_name))
    members = [facts.member(picks) and facts.rank(picks) for picks, _ in product.indexed()]
    assert calls == []
    assert members.count(False) == product.size // 2
    assert set(members) == {False, 3}


def test_disagreeing_projection_fibers_fail_the_run(monkeypatch):
    # a repeated offset [e2, e2] gives the critical fibers over slot 2 half
    # the size of the sampled ones: a failed tally with the per-fiber sizes
    init = ConfigurationCurve.__init__
    monkeypatch.setattr(ConfigurationCurve, "__init__",
                        lambda self, curve, offsets: init(self, curve, offsets[:1] * 2 + offsets[2:]))
    run = verify_claim("1/1", 4, samples=1)
    assert run.status == "fail"
    assert run.tallies["projection_degrees"].failed == 1
    [found] = [c for c in run.counterexamples if c["check"] == "projection_degrees"]
    assert found["j"] == 2 and found["expected"] == 8
    assert found["counts"] == {"critical+1": 4, "critical-1": 4,
                               "sample0": 8, "sample1": 8, "sample2": 8}
    # a direct caller still gets the raise
    curve = GenusTwoCurve(Fraction(1))
    config = ConfigurationCurve(curve, find_generic_points(curve.elliptic_quotient(), 4).offsets())
    with pytest.raises(FiberSizesDisagree) as excinfo:
        config.projection_degree_estimate(2, samples=3)
    assert excinfo.value.counts == found["counts"]
