"""Symbolic divisor-intersection calculus on the fibred surface.

The surface carries two independent fibration structures: the Kodaira
fibration onto the base curve of genus ``gamma``, and the degree-2 map
onto the genus-2 curve whose ramification divisor splits into ``r``
disjoint sections.  The canonical class has, for ``k = 1, 2``, the
representation

    ``div(W_k) = [2*gamma - 2 fibres] + [pullback of the degree-2 point
    divisor D_k on the genus-2 curve] + [sum of the r sections]``

built from a base holomorphic form with simple zeros wedged with a
genus-2 holomorphic form.  Intersecting the two representations and
resolving the section self-intersection by adjunction yields the
self-intersection of the canonical class in closed form:

    ``K^2 = (8 + 2r)*(2*gamma - 2) + 3*(gamma - 1)``.

The engine keeps index families symbolic (never expands the
``2*gamma - 2`` fibres), derives rather than transcribes the unknowns,
and logs every applied pairing rule into a transcript.

Basis classes
-------------
* ``Fiber(k, i)``   -- fibre over the i-th zero of the k-th base form;
* ``Section(j)``    -- the j-th section (component of the ramification
  divisor of the degree-2 map);
* ``Pullback(name)``-- preimage of one of the four distinguished points
  of the genus-2 curve (``s1, t1``: the two cover-critical points,
  zeros of the first form; ``s2, t2``: the two points at infinity,
  zeros of the second form).

Unknowns: ``Rsq`` (common self-intersection of the sections) and
``x1, x2`` (intersection of a section with the pullback of the full
two-point divisor ``D_k``), resolved by a 2x2 linear solve from the two
adjunction identities and pinned by the counting lemma
``x1 = 2*(gamma-1)/r``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .symbolic import SymbolicScalar

GAMMA = SymbolicScalar.symbol("gamma")
R = SymbolicScalar.symbol("r")
RSQ = SymbolicScalar.symbol("Rsq")
X1 = SymbolicScalar.symbol("x1")
X2 = SymbolicScalar.symbol("x2")

ZERO = SymbolicScalar(0)
ONE = SymbolicScalar(1)

PULLBACK_POINTS = ("s1", "t1", "s2", "t2")
_PULLBACK_DIVISOR = {"s1": 1, "t1": 1, "s2": 2, "t2": 2}


class InconsistentTableError(RuntimeError):
    """The rule system contradicted itself; indicates a transcription bug."""


# ---------------------------------------------------------------------------
# Basis classes and divisor expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fiber:
    """A single fibre over the i-th zero of the k-th base form."""

    k: int
    index: str = "i"

    def __repr__(self):
        return f"F[{self.k},{self.index}]"


@dataclass(frozen=True)
class Section:
    """The j-th of the r disjoint sections."""

    j: object = "j"

    def __repr__(self):
        return f"R[{self.j}]"


@dataclass(frozen=True)
class Pullback:
    """Preimage of one distinguished genus-2 point under the degree-2 map."""

    point: str

    def __post_init__(self):
        if self.point not in PULLBACK_POINTS:
            raise ValueError(f"unknown distinguished point {self.point!r}")

    @property
    def divisor_index(self) -> int:
        return _PULLBACK_DIVISOR[self.point]

    def __repr__(self):
        return f"g*[{self.point}]"


@dataclass(frozen=True)
class FiberFamily:
    """All ``2*gamma - 2`` fibres of the k-th base form, kept unexpanded."""

    k: int

    def __repr__(self):
        return f"Sum_F[{self.k}]"


@dataclass(frozen=True)
class SectionFamily:
    """All ``r`` sections, kept unexpanded."""

    def __repr__(self):
        return "Sum_R"


def family_size(atom) -> SymbolicScalar:
    if isinstance(atom, FiberFamily):
        return 2 * GAMMA - 2
    if isinstance(atom, SectionFamily):
        return R
    return ONE


def _member_representative(atom):
    """A generic member of a family atom (for rule lookup)."""
    if isinstance(atom, FiberFamily):
        return Fiber(atom.k, "i")
    if isinstance(atom, SectionFamily):
        return Section("j")
    return atom


def _fresh_member(atom, avoid):
    """A member of the family distinct from ``avoid``."""
    if isinstance(atom, FiberFamily):
        idx = "i2" if getattr(avoid, "index", None) == "i" else "i"
        return Fiber(atom.k, idx)
    if isinstance(atom, SectionFamily):
        j = "j2" if getattr(avoid, "j", None) == "j" else "j"
        return Section(j)
    return atom


def _contains_member(family, member) -> bool:
    if isinstance(family, FiberFamily) and isinstance(member, Fiber):
        return family.k == member.k
    if isinstance(family, SectionFamily) and isinstance(member, Section):
        return True
    return False


class DivisorExpr:
    """Formal combination of basis atoms with symbolic coefficients."""

    def __init__(self, terms=None):
        self.terms = {}
        for atom, coeff in (terms or {}).items():
            c = coeff if isinstance(coeff, SymbolicScalar) else SymbolicScalar(coeff)
            if not c.is_zero():
                self.terms[atom] = c

    @classmethod
    def of(cls, *atoms) -> "DivisorExpr":
        expr = cls()
        for atom in atoms:
            expr = expr + cls({atom: ONE})
        return expr

    def __add__(self, other):
        out = dict(self.terms)
        for atom, c in other.terms.items():
            out[atom] = out.get(atom, ZERO) + c
        return DivisorExpr(out)

    def __rmul__(self, scalar):
        c = scalar if isinstance(scalar, SymbolicScalar) else SymbolicScalar(scalar)
        return DivisorExpr({a: c * v for a, v in self.terms.items()})

    def atoms(self):
        return list(self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "DivisorExpr(0)"
        parts = [f"({c})*{a!r}" for a, c in self.terms.items()]
        return "DivisorExpr(" + " + ".join(parts) + ")"


# ---------------------------------------------------------------------------
# The pairing rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    name: str
    value: SymbolicScalar
    reason: str


def _rule(name, value, reason) -> Rule:
    v = value if isinstance(value, SymbolicScalar) else SymbolicScalar(value)
    return Rule(name, v, reason)


class IntersectionTable:
    """Member-level pairing rules between basis classes.

    Every lookup is resolved by one named rule carrying its geometric
    justification; family-level values are assembled from these by
    :func:`intersect`.
    """

    def rule_for(self, a, b, same_member: bool) -> Rule:
        a_kind, b_kind = type(a).__name__, type(b).__name__
        if a_kind > b_kind:  # symmetric pairing: canonical order
            a, b = b, a
            a_kind, b_kind = b_kind, a_kind

        if isinstance(a, Fiber) and isinstance(b, Fiber):
            if same_member:
                return _rule("fiber-self", 0,
                             "a fibre of a fibration has self-intersection zero")
            if a.k != b.k:
                return _rule("fiber-cross-form", 0,
                             "the zero sets of the two base forms are disjoint, "
                             "so fibres over them share no base point")
            return _rule("fiber-same-form", 0,
                         "fibres over distinct base points are disjoint")

        if isinstance(a, Fiber) and isinstance(b, Pullback):
            return _rule("fiber-pullback", 2,
                         "the degree-2 map restricted to a fibre is branched away "
                         "from the distinguished points, so the fibre meets the "
                         "pullback of each one transversally at two points")

        if isinstance(a, Fiber) and isinstance(b, Section):
            return _rule("fiber-section", 1,
                         "a section meets every fibre exactly once")

        if isinstance(a, Pullback) and isinstance(b, Pullback):
            if same_member:
                return _rule("pullback-self", 0,
                             "pullbacks of points are fibres of the degree-2 map "
                             "and square to zero")
            return _rule("pullback-pullback", 0,
                         "pullbacks of distinct points are disjoint")

        if isinstance(a, Pullback) and isinstance(b, Section):
            unknown = X1 if a.divisor_index == 1 else X2
            return _rule(f"section-pullback-{a.divisor_index}", unknown / 2,
                         "each section meets the pullback of the two-point divisor "
                         f"D{a.divisor_index} in an unknown total x{a.divisor_index}, "
                         "split evenly between its two points by symmetry")

        if isinstance(a, Section) and isinstance(b, Section):
            if same_member:
                return _rule("section-self", RSQ,
                             "common self-intersection of the sections, unknown "
                             "until adjunction resolves it")
            return _rule("section-section", 0,
                         "the ramification divisor splits into r disjoint sections")

        raise InconsistentTableError(f"no pairing rule for {a!r} . {b!r}")

    def lookup(self, a, b) -> SymbolicScalar:
        """Member-level pairing; distinct labels mean distinct members."""
        return self.rule_for(a, b, same_member=(a == b)).value


def build_table() -> IntersectionTable:
    return IntersectionTable()


# ---------------------------------------------------------------------------
# Transcript
# ---------------------------------------------------------------------------


@dataclass
class TranscriptStep:
    left: str
    right: str
    rule: str
    reason: str
    multiplicity: str
    value: str


@dataclass
class Transcript:
    """Ordered log of applied rules, exportable as JSON or plain text."""

    steps: list = field(default_factory=list)
    conclusions: list = field(default_factory=list)

    def log(self, left, right, rule: Rule, multiplicity, value):
        self.steps.append(TranscriptStep(
            repr(left), repr(right), rule.name, rule.reason,
            str(multiplicity), str(value)))

    def conclude(self, text: str):
        self.conclusions.append(text)

    def to_json_dict(self):
        return {
            "steps": [vars(s) for s in self.steps],
            "conclusions": list(self.conclusions),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    def to_text(self) -> str:
        lines = []
        for s in self.steps:
            lines.append(f"{s.left} . {s.right}  [{s.rule}] x {s.multiplicity} "
                         f"= {s.value}\n    because {s.reason}")
        for c in self.conclusions:
            lines.append(f"=> {c}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Canonical divisors and bilinear expansion
# ---------------------------------------------------------------------------


def canonical_divisor(k: int) -> DivisorExpr:
    """Canonical class representation from the k-th pair of forms.

    ``2*gamma - 2`` fibres plus the pullback of the two distinguished
    points of the k-th genus-2 form plus all ``r`` sections.
    """
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    return DivisorExpr({FiberFamily(k): ONE, **pullback_divisor(k).terms, SectionFamily(): ONE})


def pullback_divisor(k: int) -> DivisorExpr:
    points = ("s1", "t1") if k == 1 else ("s2", "t2")
    return DivisorExpr({Pullback(points[0]): ONE, Pullback(points[1]): ONE})


def _pair_atoms(a, b, table: IntersectionTable, transcript: Transcript) -> SymbolicScalar:
    """Pairing of two (possibly family) atoms, expanded over members."""
    size_a, size_b = family_size(a), family_size(b)
    rep_a = _member_representative(a)
    rep_b = _member_representative(b)

    if a == b and not isinstance(a, (Fiber, Section, Pullback)):
        # family against itself: diagonal plus off-diagonal members
        self_rule = table.rule_for(rep_a, rep_a, same_member=True)
        cross_rule = table.rule_for(rep_a, _fresh_member(a, rep_a), same_member=False)
        value = size_a * self_rule.value + size_a * (size_a - 1) * cross_rule.value
        transcript.log(a, b, self_rule, f"{size_a} diagonal", self_rule.value)
        transcript.log(a, b, cross_rule, f"{size_a}*({size_a}-1) off-diagonal",
                       cross_rule.value)
        return value

    if _contains_member(b, a):
        a, b = b, a
        size_a, size_b = size_b, size_a
        rep_a, rep_b = rep_b, rep_a
    if _contains_member(a, b):
        # single member against its own family
        self_rule = table.rule_for(rep_b, rep_b, same_member=True)
        cross_rule = table.rule_for(rep_b, _fresh_member(a, rep_b), same_member=False)
        value = self_rule.value + (size_a - 1) * cross_rule.value
        transcript.log(a, b, self_rule, "1 diagonal", self_rule.value)
        transcript.log(a, b, cross_rule, f"({size_a}-1) off-diagonal", cross_rule.value)
        return value

    same = (a == b)
    rule = table.rule_for(rep_a, rep_b, same_member=same)
    transcript.log(a, b, rule, f"{size_a}*{size_b}", rule.value)
    return size_a * size_b * rule.value


def intersect(a: DivisorExpr, b: DivisorExpr, table: IntersectionTable,
              transcript: Transcript = None) -> SymbolicScalar:
    """Bilinear expansion of the intersection pairing over the table."""
    transcript = transcript if transcript is not None else Transcript()
    total = ZERO
    for atom_a, coeff_a in a.atoms():
        for atom_b, coeff_b in b.atoms():
            total = total + coeff_a * coeff_b * _pair_atoms(atom_a, atom_b, table, transcript)
    return total


# ---------------------------------------------------------------------------
# Adjunction and the counting lemma
# ---------------------------------------------------------------------------


@dataclass
class AdjunctionResult:
    substitutions: dict


def solve_adjunction(table: IntersectionTable, transcript: Transcript = None) -> AdjunctionResult:
    """Resolve the unknowns from the two adjunction identities.

    A section is isomorphic to the base curve (genus ``gamma``), so the
    genus formula for an embedded curve gives
    ``Section . K = (2*gamma - 2) - Rsq``.  Expressing ``Section . K``
    through either canonical representation gives
    ``(2*gamma - 2) + x_k + Rsq``.  Equating yields the linear system

        ``2*Rsq + x1 = 0``  and  ``2*Rsq + x2 = 0``

    solved here by a 2x2 elimination for ``(Rsq, x2)`` in terms of
    ``x1``: ``Rsq = -x1/2`` and ``x2 = x1`` (derived, not assumed).
    """
    transcript = transcript if transcript is not None else Transcript()
    section = Section(1)

    lhs = {}
    for k in (1, 2):
        value = intersect(DivisorExpr.of(section), canonical_divisor(k), table, transcript)
        lhs[k] = value
        transcript.conclude(f"Section . K via representation {k}: {value}")
    adjunction = (2 * GAMMA - 2) - RSQ
    transcript.conclude(f"Section . K via the embedded-curve genus formula: {adjunction}")

    # equations: lhs[k] - adjunction == 0, linear in (Rsq, x2) with x1 free
    eq1 = lhs[1] - adjunction
    eq2 = lhs[2] - adjunction

    def coeff(expr: SymbolicScalar, name: str) -> SymbolicScalar:
        zeroed = {n: 0 for n in ("Rsq", "x1", "x2")}
        at_zero = expr.substitute(zeroed)
        bumped = dict(zeroed, **{name: 1})
        return expr.substitute(bumped) - at_zero

    a11, a12 = coeff(eq1, "Rsq"), coeff(eq1, "x2")
    a21, a22 = coeff(eq2, "Rsq"), coeff(eq2, "x2")
    rhs1 = ZERO - eq1.substitute({"Rsq": 0, "x2": 0})
    rhs2 = ZERO - eq2.substitute({"Rsq": 0, "x2": 0})
    det = a11 * a22 - a12 * a21
    if det.is_zero():
        raise InconsistentTableError("adjunction system is degenerate")
    rsq_value = (rhs1 * a22 - a12 * rhs2) / det
    x2_value = (a11 * rhs2 - rhs1 * a21) / det

    # consistency: both equations must vanish under the solution
    solution = {"Rsq": rsq_value, "x2": x2_value}
    for eq in (eq1, eq2):
        if not eq.substitute(solution).is_zero():
            raise InconsistentTableError("adjunction solution fails to satisfy the system")

    transcript.conclude(f"solved: Rsq = {rsq_value}, x2 = {x2_value}")
    if not (x2_value - X1).is_zero():
        raise InconsistentTableError("the two pullback pairings disagree")
    transcript.conclude("the two adjunction routes force x2 = x1")
    return AdjunctionResult(solution)


@dataclass
class LemmaCounts:
    """Counting input pinning the section-pullback pairing.

    ``per_point_from_base_genus`` expresses the number of intersection
    points of one section with the pullback of a single distinguished
    point as ``(gamma - 1)/r``; ``per_point_from_degrees`` expresses the
    same number as ``deg_cover * 2^(r-1)`` through the projection degree
    of a coordinate; the two agree under the unramified-cover relation
    ``2*gamma - 2 = deg_cover * r * 2^r``.
    """

    per_point_from_base_genus: SymbolicScalar
    per_point_from_degrees: object
    total_over_sections: SymbolicScalar
    substitution: dict


def lemma_counts(r=None, deg_cover=None) -> LemmaCounts:
    """Section-pullback counts, in both available forms.

    With integer ``r`` (and optionally integer ``deg_cover``) the degree
    form ``deg_cover * 2^(r-1)`` is computed exactly and checked against
    ``(gamma - 1)/r`` with ``gamma = 1 + deg_cover * r * 2^(r-1)``.
    """
    per_point_gamma = (GAMMA - 1) / (R if r is None else SymbolicScalar(r))
    total = 2 * (GAMMA - 1)
    per_point_degrees = None
    if isinstance(r, int):
        if r < 1:
            raise ValueError("r must be >= 1")
        d = deg_cover if deg_cover is not None else 1
        per_point_degrees = d * 2 ** (r - 1)
        gamma_value = 1 + d * r * 2 ** (r - 1)
        if Fraction(gamma_value - 1, r) != per_point_degrees:
            raise InconsistentTableError("lemma count forms disagree")
    return LemmaCounts(
        per_point_from_base_genus=per_point_gamma,
        per_point_from_degrees=per_point_degrees,
        total_over_sections=total,
        substitution={"x1": 2 * per_point_gamma},
    )


# ---------------------------------------------------------------------------
# The closed form
# ---------------------------------------------------------------------------


def k_squared_closed_form(r=None, gamma=None) -> SymbolicScalar:
    """``(8 + 2r)*(2*gamma - 2) + 3*(gamma - 1)``."""
    rr = R if r is None else SymbolicScalar(r)
    gg = GAMMA if gamma is None else SymbolicScalar(gamma)
    return (8 + 2 * rr) * (2 * gg - 2) + 3 * (gg - 1)


@dataclass
class KSquaredDerivation:
    value: SymbolicScalar
    raw_expansion: SymbolicScalar
    adjunction: AdjunctionResult
    transcript: Transcript
    alternate_value: SymbolicScalar


def k_squared(r=None, gamma=None) -> KSquaredDerivation:
    """Derive the canonical self-intersection from the table rules alone.

    Expands the product of the two canonical representations, resolves
    the unknowns by adjunction, pins them with the counting lemma, and
    checks the result against the closed form as a polynomial identity
    (a mismatch is a hard error).  Also derives the alternate route
    ``(2r+8)*(2*gamma-2) + (3/2) * [total section-pullback count]``.
    """
    transcript = Transcript()
    table = build_table()
    raw = intersect(canonical_divisor(1), canonical_divisor(2), table, transcript)
    transcript.conclude(f"raw expansion with unknowns: {raw}")

    adj = solve_adjunction(table, transcript)
    lemma = lemma_counts()  # identity is established fully symbolically
    resolved = raw.substitute(adj.substitutions).substitute(lemma.substitution)
    transcript.conclude(f"after adjunction and the counting lemma: {resolved}")

    # alternate route: after adjunction the expansion must collapse onto
    # 3/2 times the total section-pullback count; substitute the total
    half_route = raw.substitute(adj.substitutions)
    base_terms = (8 + 2 * R) * (2 * GAMMA - 2)
    if not (half_route - (base_terms + SymbolicScalar(Fraction(3, 2)) * R * X1)).is_zero():
        raise InconsistentTableError("post-adjunction expansion has an unexpected shape")
    alt = base_terms + SymbolicScalar(Fraction(3, 2)) * lemma.total_over_sections
    transcript.conclude(f"alternate route through the total count: {alt}")

    target = k_squared_closed_form()
    if not (resolved - target).is_zero():
        raise InconsistentTableError(
            f"derived K^2 = {resolved} does not match the closed form {target}")
    if not (alt - target).is_zero():
        raise InconsistentTableError("alternate route disagrees with the closed form")
    transcript.conclude(f"closed form verified: K^2 = {target}")

    substitutions = {}
    if r is not None:
        substitutions["r"] = r
    if gamma is not None:
        substitutions["gamma"] = gamma
    value = resolved.substitute(substitutions) if substitutions else resolved
    alt_value = alt.substitute(substitutions) if substitutions else alt
    return KSquaredDerivation(value, raw, adj, transcript, alt_value)
