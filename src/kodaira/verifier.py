"""Monte-Carlo and exhaustive numeric verification of the exact claims.

Ties the integer-valued claims -- membership, Jacobian rank ``r - 1``,
``2^r`` branch points, projection degrees ``2^(r-1)``, the genus closed
form -- to floating-point evidence at controlled precision.  Runs are
deterministic: a fixed ``(seed, lam, r, schedule)`` reproduces identical
tallies and identical report bytes (wall time is kept out of the
serialized report for that reason).

Every approximate decision goes through :func:`kodaira.scalars.coincide`.
One that falls into the ambiguity band (closer than ten tolerances but
not within one) raises, and :func:`verify_claim` escalates inline: the
affected check is re-executed from scratch at double the precision (the
schedule is ``[prec, 2 * prec]``), on the same configuration -- the base
certificate's base point and stride, re-made at that precision and
re-checked there; if it is still ambiguous there the run fails loudly
with a distinct status instead of silently merging nearby points.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import DEFAULT_PREC_BITS, DEFAULT_TOL, format_rational, genus
from .config_curve import ConfigurationCurve, FiberSizesDisagree, sample_genus2_point
from .elliptic import SingularCurveError
from .generic_points import (
    base_point_at,
    certify_stride,
    find_generic_points,
    verify_certificate,
)
from .genus2 import GenusTwoCurve
from .scalars import (
    AmbiguousCoincidenceError,
    lambda_at,
    parse_lambda_spec,
    scalar_is_zero,
)

import random


class PrecisionExhausted(RuntimeError):
    """Ambiguity persisted after the escalation schedule ran out."""


def lambda_spec_json(spec):
    if isinstance(spec, Fraction):
        return {"kind": "rational", "value": format_rational(spec)}
    return {"kind": "complex", "re": spec[0], "im": spec[1]}


@dataclass
class CheckTally:
    checked: int = 0
    passed: int = 0
    failed: int = 0
    escalated: bool = False
    info: dict = field(default_factory=dict)

    def record(self, ok: bool, n: int = 1):
        self.checked += n
        if ok:
            self.passed += n
        else:
            self.failed += n

    def to_json_dict(self):
        return {
            "checked": self.checked,
            "passed": self.passed,
            "failed": self.failed,
            "escalated": self.escalated,
            "info": {k: self.info[k] for k in sorted(self.info)},
        }


@dataclass
class VerificationRun:
    seed: int
    lam_spec: object
    r: int
    precision_schedule: list
    tol: float
    sample_count: int
    tallies: dict = field(default_factory=dict)
    counterexamples: list = field(default_factory=list)
    escalations: list = field(default_factory=list)
    status: str = "pass"
    wall_time_s: float = 0.0     # excluded from the serialized report
    branch_points: object = ()   # the checked Enumeration; not serialized

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self):
        return {
            "schema": "1",
            "seed": self.seed,
            "lambda": lambda_spec_json(self.lam_spec),
            "r": self.r,
            "precision_schedule": list(self.precision_schedule),
            "tol": repr(self.tol),
            "sample_count": self.sample_count,
            "tallies": {name: tally.to_json_dict()
                        for name, tally in self.tallies.items()},
            "counterexamples": list(self.counterexamples),
            "escalations": list(self.escalations),
            "status": self.status,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


class _Context:
    """Curves and certificate built at one precision.

    With a ``base`` context the offsets are not searched for again: the
    base certificate's base point and stride are re-made and re-checked
    at this precision, so an escalated check sees the same configuration.
    """

    def __init__(self, lam_spec, r: int, prec: int, tol: float, base: "_Context" = None):
        self.prec = prec
        self.tol = tol
        lam = lambda_at(lam_spec, prec, tol)
        self.curve = GenusTwoCurve(lam, prec, tol)
        self.elliptic = self.curve.elliptic_quotient()
        if base is None:
            self.certificate = find_generic_points(self.elliptic, r)
        else:
            found = base.certificate
            self.certificate = certify_stride(
                self.elliptic, r, base_point_at(self.elliptic, found.base_point), found.stride)
        self.config = ConfigurationCurve(self.curve, self.certificate.offsets())


def _check_discriminant(ctx: _Context, run: VerificationRun, tally: CheckTally, rng):
    disc = ctx.elliptic.discriminant()
    ok = not scalar_is_zero(disc)
    tally.record(ok)
    if not ok:
        run.counterexamples.append({"check": "discriminant", "value": str(disc)})


def _check_genericity(ctx: _Context, run: VerificationRun, tally: CheckTally, rng):
    ok = ctx.certificate.all_passed and verify_certificate(ctx.certificate)
    tally.record(ok)
    tally.info["mode"] = ctx.certificate.mode
    tally.info["stride"] = ctx.certificate.stride
    if not ok:
        run.counterexamples.append({"check": "genericity",
                                    "certificate": ctx.certificate.to_json_dict()})


def _failing_tuples(config: ConfigurationCurve, product, tally: CheckTally):
    """Record whether each tuple of ``product`` is a member of rank ``r - 1``.

    Yields ``(tuple, member, rank)`` for each tuple that is not.  A product
    whose slot table holds is recorded at once by multiplication; otherwise
    each tuple's membership and rank are read back from the table in walk
    order, so every failing tuple is named and an ambiguity raises where a
    walk meets it.
    """
    facts = config.slot_facts(product)
    if facts.all_hold():
        tally.record(True, n=product.size)
        return
    for picks, tup in product.indexed():
        member, rank = facts.member(picks), facts.rank(picks)
        ok = member and rank == config.r - 1
        tally.record(ok)
        if not ok:
            yield tup, member, rank


def _check_membership_and_rank(ctx: _Context, run: VerificationRun, tally: CheckTally, rng):
    config = ctx.config
    want_rank = config.r - 1
    for _ in range(run.sample_count):
        p1 = sample_genus2_point(ctx.curve, rng)
        if p1 is None:
            continue
        for tup, member, rank in _failing_tuples(config, config.fiber_over_first(p1), tally):
            run.counterexamples.append({
                "check": "membership_and_rank",
                "member": member,
                "rank": rank,
                "expected_rank": want_rank,
                "tuple": tup.to_json_dict(),
            })
    if run.sample_count > 0 and tally.checked == 0:
        tally.record(False)  # all draws rejected: not a vacuous pass
        run.counterexamples.append({"check": "membership_and_rank",
                                    "detail": "no samples enumerated"})
    tally.info["expected_rank"] = want_rank


def _check_branch_count(ctx: _Context, run: VerificationRun, tally: CheckTally, rng):
    config = ctx.config
    r = config.r
    points = run.branch_points = config.branch_enumeration()
    expected = 2 ** r
    ok_count = points.size == expected
    tally.record(ok_count)
    tally.info["expected"] = expected
    tally.info["found"] = points.size
    # split by the sign of the forced last coordinate: each last-slot choice
    # of a product ends product.size / len(choices) of its tuples, and the
    # choices are decided once each, in the order the tuples first meet them
    half = expected // 2
    split = {+1: 0, -1: 0}
    for product in points.products:
        last = product.slots[-1]
        for p in last:
            split[config.branch_sign(p)] += product.size // len(last)
    ok_split = split[+1] == half and split[-1] == half
    tally.record(ok_split)
    tally.info["split"] = {"+1": split[+1], "-1": split[-1]}
    if not (ok_count and ok_split):
        run.counterexamples.append({
            "check": "branch_count",
            "expected": expected,
            "found": points.size,
            "split": {"+1": split[+1], "-1": split[-1]},
            "points": [t.to_json_dict() for t in points],
        })
    # every branch point is a smooth member
    for product in points.products:
        for tup, _, _ in _failing_tuples(config, product, tally):
            run.counterexamples.append({"check": "branch_membership",
                                        "tuple": tup.to_json_dict()})


def _check_projection_degrees(ctx: _Context, run: VerificationRun, tally: CheckTally, rng):
    config = ctx.config
    r = config.r
    expected = 2 ** (r - 1)
    indices = sorted({1, 2 if r >= 2 else 1, r})
    for j in indices:
        try:
            found = {"found": config.projection_degree_estimate(j, samples=3, seed=run.seed)}
        except FiberSizesDisagree as exc:
            found = {"counts": exc.counts}  # no common size
        ok = found.get("found") == expected
        tally.record(ok)
        if not ok:
            run.counterexamples.append({"check": "projection_degrees",
                                        "j": j, "expected": expected, **found})
    tally.info["expected"] = expected
    tally.info["indices"] = indices


def _check_genus(ctx: _Context, run: VerificationRun, tally: CheckTally, rng):
    rec, closed = genus(ctx.config.r)
    ok = rec == closed
    tally.record(ok)
    tally.info["recursion"] = rec
    tally.info["closed_form"] = closed
    if not ok:
        run.counterexamples.append({"check": "genus", "recursion": rec,
                                    "closed_form": closed})


_CHECKS = (
    ("discriminant", _check_discriminant),
    ("genericity", _check_genericity),
    ("membership_and_rank", _check_membership_and_rank),
    ("branch_count", _check_branch_count),
    ("projection_degrees", _check_projection_degrees),
    ("genus", _check_genus),
)


def verify_claim(lam_spec, r: int, samples: int = 50, seed: int = 0,
                 prec: int = DEFAULT_PREC_BITS, tol: float = DEFAULT_TOL) -> VerificationRun:
    """Run the whole verification pipeline, deterministically.

    ``lam_spec`` is a Fraction or a pair of decimal strings ``(re, im)``
    so that every precision level can rebuild the parameter exactly.
    Raises ValueError for a negative ``samples`` and for the excluded
    parameter values (0 and -27/4) before any sampling.  An ambiguous
    check is re-run once, at ``2 * prec`` bits.
    """
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    if isinstance(lam_spec, str):
        lam_spec = parse_lambda_spec(lam_spec)
    schedule = [prec, 2 * prec]
    run = VerificationRun(seed=seed, lam_spec=lam_spec, r=r,
                          precision_schedule=schedule, tol=tol,
                          sample_count=samples)
    start = time.perf_counter()

    try:
        base_ctx = _Context(lam_spec, r, prec, tol)
    except SingularCurveError as exc:
        raise ValueError(str(exc)) from exc

    contexts = {prec: base_ctx}

    for index, (name, check) in enumerate(_CHECKS):
        for level, level_prec in enumerate(schedule):
            if level_prec not in contexts:
                contexts[level_prec] = _Context(lam_spec, r, level_prec, tol, base_ctx)
            rng = random.Random(seed * 1_000_003 + index)
            tally = CheckTally(escalated=level > 0)
            snapshot = len(run.counterexamples)
            try:
                check(contexts[level_prec], run, tally, rng)
            except AmbiguousCoincidenceError as exc:
                del run.counterexamples[snapshot:]  # drop the aborted attempt
                run.escalations.append({
                    "check": name,
                    "from_prec": level_prec,
                    "detail": str(exc),
                })
                ambiguity = exc
                continue
            run.tallies[name] = tally
            break
        else:
            run.status = "precision_exhausted"
            run.wall_time_s = time.perf_counter() - start
            raise PrecisionExhausted(
                f"check {name!r} stayed ambiguous at {schedule[-1]} bits") from ambiguity

    if any(t.failed for t in run.tallies.values()):
        run.status = "fail"
    run.wall_time_s = time.perf_counter() - start
    return run

