import random
from fractions import Fraction

import pytest

from kodaira.intersection import (
    DivisorExpr,
    Fiber,
    FiberFamily,
    GAMMA,
    InconsistentTableError,
    LemmaCounts,
    Pullback,
    R,
    RSQ,
    Section,
    SectionFamily,
    Transcript,
    X1,
    X2,
    build_table,
    canonical_divisor,
    intersect,
    k_squared,
    k_squared_closed_form,
    lemma_counts,
    pullback_divisor,
    solve_adjunction,
)
from kodaira.scalars import SymbolicScalar


@pytest.fixture(scope="module")
def table():
    return build_table()


# -- the rule table ------------------------------------------------------------


def test_fiber_meets_section_once(table):
    assert table.lookup(Fiber(1, "i"), Section("j")) == 1
    assert table.lookup(Fiber(2, "i"), Section(1)) == 1


def test_fibers_of_different_forms_disjoint(table):
    assert table.lookup(Fiber(1, "i"), Fiber(2, "i")) == 0


def test_distinct_sections_disjoint(table):
    assert table.lookup(Section(1), Section(2)) == 0


def test_section_self_intersection_unknown(table):
    assert table.lookup(Section(1), Section(1)) == RSQ


def test_fiber_pullback_transversal(table):
    assert table.lookup(Fiber(1, "i"), Pullback("s2")) == 2
    assert table.lookup(Fiber(2, "i"), Pullback("s1")) == 2


def test_pullbacks_disjoint(table):
    assert table.lookup(Pullback("s1"), Pullback("s2")) == 0
    assert table.lookup(Pullback("s1"), Pullback("t1")) == 0


def test_section_pullback_unknowns(table):
    assert table.lookup(Section(1), Pullback("s1")) == X1 / 2
    assert table.lookup(Section(1), Pullback("t2")) == X2 / 2


def test_every_rule_carries_a_reason(table):
    pairs = [
        (Fiber(1, "i"), Fiber(2, "i")),
        (Fiber(1, "i"), Section(1)),
        (Fiber(1, "i"), Pullback("s2")),
        (Pullback("s1"), Pullback("s2")),
        (Section(1), Section(2)),
        (Section(1), Section(1)),
        (Section(1), Pullback("s1")),
    ]
    for a, b in pairs:
        rule = table.rule_for(a, b, same_member=(a == b))
        assert rule.reason


# -- canonical divisors ----------------------------------------------------------


def test_canonical_divisor_composition():
    k1 = canonical_divisor(1)
    atoms = dict(k1.atoms())
    assert atoms[FiberFamily(1)] == 1
    assert atoms[Pullback("s1")] == 1
    assert atoms[Pullback("t1")] == 1
    assert atoms[SectionFamily()] == 1
    k2 = canonical_divisor(2)
    assert Pullback("s2") in dict(k2.atoms())


def test_fiber_family_along_section_degree(table):
    # one intersection point per fibre: the family contributes 2*gamma - 2
    value = intersect(DivisorExpr.of(Section(1)),
                      DivisorExpr({FiberFamily(1): SymbolicScalar(1)}), table)
    assert value == 2 * GAMMA - 2


# -- bilinear expansion ------------------------------------------------------------


def test_expansion_matches_intermediate_form(table):
    # before resolving the unknowns, the expansion collapses to
    # (2r+8)(2*gamma-2) + r*Rsq + r*x1 + r*x2
    value = intersect(canonical_divisor(1), canonical_divisor(2), table)
    expected = (2 * R + 8) * (2 * GAMMA - 2) + R * RSQ + R * X1 + R * X2
    assert value == expected


def test_fiber_family_times_pullback_divisor(table):
    value = intersect(DivisorExpr({FiberFamily(1): SymbolicScalar(1)}),
                      pullback_divisor(2), table)
    assert value == 2 * (2 * GAMMA - 2) + 2 * (2 * GAMMA - 2)


def test_fiber_families_cancel(table):
    value = intersect(DivisorExpr({FiberFamily(1): SymbolicScalar(1)}),
                      DivisorExpr({FiberFamily(2): SymbolicScalar(1)}), table)
    assert value.is_zero()


def test_bilinearity_and_symmetry_randomized(table):
    rng = random.Random(41)
    atoms = [FiberFamily(1), FiberFamily(2), SectionFamily(), Section(1),
             Section(2), Pullback("s1"), Pullback("t1"), Pullback("s2"),
             Pullback("t2"), Fiber(1, "i"), Fiber(2, "i")]

    def random_expr():
        expr = DivisorExpr()
        for atom in rng.sample(atoms, rng.randint(1, 4)):
            expr = expr + DivisorExpr({atom: SymbolicScalar(rng.randint(-3, 3))})
        return expr

    for _ in range(25):
        a, b, c = random_expr(), random_expr(), random_expr()
        ab = intersect(a, b, table)
        ba = intersect(b, a, table)
        assert ab == ba
        combined = intersect(a, b + c, table)
        assert combined == ab + intersect(a, c, table)
        scale = SymbolicScalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        assert intersect(scale * a, b, table) == scale * ab


# -- adjunction ---------------------------------------------------------------------


def test_adjunction_resolves_unknowns(table):
    result = solve_adjunction(table)
    assert result.substitutions["Rsq"] == SymbolicScalar(-1) * X1 / 2
    assert result.substitutions["x2"] == X1


def test_adjunction_section_self_intersection_with_lemma(table):
    result = solve_adjunction(table)
    lemma = lemma_counts()
    rsq = result.substitutions["Rsq"].substitute(lemma.substitution)
    assert rsq == SymbolicScalar(-1) * (GAMMA - 1) / R


def test_adjunction_consistency_symmetry(table):
    # the two canonical representations give the same Section . K
    result = solve_adjunction(table)
    for k in (1, 2):
        value = intersect(DivisorExpr.of(Section(1)), canonical_divisor(k), table)
        value = value.substitute(result.substitutions)
        assert value == (2 * GAMMA - 2) + X1 / 2 + X1 / 2 + (SymbolicScalar(-1) * X1 / 2)


# -- the counting lemma ----------------------------------------------------------------


def test_lemma_total_over_sections():
    lemma = lemma_counts()
    assert lemma.total_over_sections == 2 * (GAMMA - 1)


def test_lemma_r8_both_forms_agree():
    lemma = lemma_counts(8, 1)
    assert lemma.per_point_from_degrees == 128
    gamma_value = 1 + 1 * 8 * 2 ** 7
    assert gamma_value == 1025
    per_point = lemma.per_point_from_base_genus.substitute({"gamma": gamma_value})
    assert per_point.as_fraction() == Fraction(1024, 8) == 128


def test_lemma_r1():
    lemma = lemma_counts(1, 1)
    assert lemma.per_point_from_degrees == 1
    per_point = lemma.per_point_from_base_genus.substitute({"gamma": 2})
    assert per_point.as_fraction() == 1


# -- the closed form ---------------------------------------------------------------------


def test_k_squared_symbolic_identity():
    derivation = k_squared()
    assert derivation.value == k_squared_closed_form()
    assert derivation.value == (8 + 2 * R) * (2 * GAMMA - 2) + 3 * (GAMMA - 1)
    # gamma and the cover degree both survive nowhere else
    assert derivation.value.free_symbol_names() == {"gamma", "r"}


def test_k_squared_numeric():
    assert k_squared(r=8, gamma=2).value.as_fraction() == 51


def test_k_squared_alternate_route_agrees():
    derivation = k_squared(r=8, gamma=2)
    assert derivation.alternate_value.as_fraction() == 51
    symbolic = k_squared()
    assert symbolic.alternate_value == symbolic.value


def test_k_squared_transcript():
    derivation = k_squared()
    text = derivation.transcript.to_text()
    assert "because" in text
    payload = derivation.transcript.to_json_dict()
    assert payload["steps"]
    assert any("closed form verified" in c for c in payload["conclusions"])
    rules = {s["rule"] for s in payload["steps"]}
    assert "fiber-section" in rules
    assert "section-self" in rules


def test_tampered_rule_is_detected():
    # a wrong transversality constant must break the derivation loudly
    tampered = build_table()
    original = tampered.rule_for

    def crooked(a, b, same_member):
        rule = original(a, b, same_member)
        if rule.name == "fiber-pullback":
            return type(rule)(rule.name, SymbolicScalar(3), rule.reason)
        return rule

    tampered.rule_for = crooked
    with pytest.raises(InconsistentTableError):
        raw = intersect(canonical_divisor(1), canonical_divisor(2), tampered)
        adj = solve_adjunction(tampered)
        lemma = lemma_counts()
        resolved = raw.substitute(adj.substitutions).substitute(lemma.substitution)
        if not (resolved - k_squared_closed_form()).is_zero():
            raise InconsistentTableError("mismatch")
