"""Every approximate decision has three outcomes and goes through one place.

Band tests: at each decision site a distance below ``tol`` is decided
coincident, one of ``COINCIDENCE_GUARD * tol`` or more is decided distinct,
and one in between raises :class:`AmbiguousCoincidenceError`.  The
exponent tests check that deciding from the exponents of a difference
gives what :func:`kodaira.scalars.coincide` gives on its absolute value,
down to the exception raised.  The guard tests parse the package and
fail when a comparison against a tolerance appears anywhere but in
:func:`kodaira.scalars.coincide`.
"""

import ast
import contextlib
import io
import math
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import finf, fninf, from_float, from_man_exp, fzero, mpc_abs, round_nearest

from kodaira import scalars
from kodaira.cli import EXIT_OK, EXIT_PRECISION_EXHAUSTED, EXIT_USAGE, main
from kodaira.config_curve import ConfigTuple, ConfigurationCurve, SlotProduct, _shared_y_apart
from kodaira.elliptic import EC_INFINITY, EllipticCurve, EllipticPoint
from kodaira.generic_points import _avoids, find_generic_points
from kodaira.genus2 import GenusTwoCurve, GenusTwoPoint, genus2_points_equal
from kodaira.scalars import (
    COINCIDENCE_GUARD,
    DEFAULT_TOL as TOL,
    AmbiguousCoincidenceError,
    ComplexApprox,
    as_approx,
    coincide,
    _decide,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "kodaira"

# Distances as multiples of tol.  The geometric sites build their inputs
# with 256-bit arithmetic, so each class keeps a 1% margin from the band
# edges to absorb that roundoff.
BELOW = st.floats(0, 0.99)
BAND = st.floats(1.01, 9.9)
ABOVE = st.floats(10.1, 1e6)


def approx(value) -> ComplexApprox:
    return ComplexApprox.of(mpmath.mpf(value))


# -- the classifier ---------------------------------------------------------------


@given(st.floats(0, TOL, exclude_max=True))
def test_coincide_below_tol(distance):
    assert coincide(distance, TOL, "test") is True


@given(st.floats(TOL, COINCIDENCE_GUARD * TOL, exclude_max=True))
def test_coincide_band_raises(distance):
    with pytest.raises(AmbiguousCoincidenceError) as info:
        coincide(distance, TOL, "test")
    assert info.value.check_name == "test" and info.value.tol == TOL


@given(st.floats(COINCIDENCE_GUARD * TOL, 1e10))
def test_coincide_from_guard_on(distance):
    assert coincide(distance, TOL, "test") is False


# -- the classifier from the difference's exponents ---------------------------------------

# tolerances whose thresholds sit at different places within a binade
EXPONENT_TOLS = (1e-30, 1e-25, 2.0 ** -90)


def _edge_magnitudes(tol: float) -> list:
    """Floats at the edges that ``coincide`` and the exponent thresholds compare against."""
    guard = COINCIDENCE_GUARD * tol
    values = [tol, guard]
    values += [math.nextafter(v, toward) for v in (tol, guard) for toward in (0, math.inf)]
    values += [math.ldexp(1.0, math.frexp(v)[1] + k) for v in (tol, guard) for k in range(-3, 3)]
    return values


@st.composite
def _parts(draw, prec: int, tol: float):
    """One libmp part of a difference: ``2^k * tol`` with a random mantissa, an
    edge magnitude moved by a few ulps at ``prec``, zero, or an infinity."""
    kind = draw(st.sampled_from(("scaled", "scaled", "edge", "edge", "zero", "inf")))
    if kind == "zero":
        return fzero
    if kind == "inf":
        return draw(st.sampled_from((finf, fninf)))
    if kind == "scaled":
        mantissa = draw(st.integers(2 ** (prec - 1), 2 ** prec - 1))
        exponent = math.frexp(tol)[1] + draw(st.integers(-300, 300)) - prec
    else:
        # the float's 53-bit mantissa, widened to ``prec`` bits, plus a few ulps
        _, man, exp, bc = from_float(draw(st.sampled_from(_edge_magnitudes(tol))))
        mantissa = (man << (prec - bc)) + draw(st.integers(-2, 2))
        exponent = exp - (prec - bc)
    sign = draw(st.sampled_from((1, -1)))
    return from_man_exp(sign * mantissa, exponent, prec, round_nearest)


@st.composite
def _differences(draw):
    prec = draw(st.integers(53, 1024))
    tol = draw(st.sampled_from(EXPONENT_TOLS))
    count = draw(st.integers(1, 2))
    parts = _parts(prec, tol)
    return [(draw(parts), draw(parts)) for _ in range(count)], prec, tol


def _decision(decide, *args):
    """The bool ``decide`` returns, or what identifies the ambiguity it raises."""
    try:
        return decide(*args)
    except AmbiguousCoincidenceError as exc:
        return (type(exc), exc.check_name, mpmath.mpf(exc.distance)._mpf_, exc.tol, str(exc))


def _decided_by_coincide(differences, prec: int, tol) -> bool:
    distance = max(mpmath.mp.make_mpf(mpc_abs(d, prec, round_nearest)) for d in differences)
    return coincide(distance, tol, "test")


@settings(max_examples=400, deadline=None)
@given(_differences())
def test_exponents_decide_as_coincide_does(case):
    differences, prec, tol = case
    assert (_decision(_decide, differences, prec, tol, "test")
            == _decision(_decided_by_coincide, differences, prec, tol))


@pytest.mark.parametrize("tol", [0.0, -1e-30, math.inf, math.nan, mpmath.mpf(1e-30), 1])
@pytest.mark.parametrize("magnitude", [0.0, 1e-40, 1e-30, 5e-30, 1e-29, 1.0])
def test_a_tolerance_without_exponent_bounds_goes_to_coincide(tol, magnitude):
    differences = [(from_float(magnitude), fzero)]
    decided = _decision(_decide, differences, 256, tol, "test")
    reference = _decision(_decided_by_coincide, differences, 256, tol)
    if isinstance(decided, tuple) and math.isnan(tol):
        decided, reference = decided[:3] + decided[4:], reference[:3] + reference[4:]
    assert decided == reference


def test_a_settled_decision_computes_no_distance(monkeypatch):
    monkeypatch.setattr(scalars, "mpc_abs", None)  # any distance computed raises
    assert not approx(1).is_zero()
    assert approx(1e-77).is_zero()
    assert scalars.coordinates_equal((approx(1), approx(2)), (approx(1), approx(2) + approx(1e-60)),
                                     "test")
    with pytest.raises(TypeError):
        approx(2e-30).is_zero()


def test_an_all_zero_difference_is_coincident_without_a_distance(monkeypatch):
    monkeypatch.setattr(scalars, "mpc_abs", None)  # any distance computed raises
    assert _decide(((fzero, fzero),), 256, 1e-30, "t") is True


def test_old_import_path_still_works():
    from kodaira.config_curve import AmbiguousCoincidenceError as reexported

    assert reexported is AmbiguousCoincidenceError


@given(BAND, st.floats(10.1, 1e6))
def test_point_distance_is_classified_once(x_gap, y_gap):
    # an x in the band does not raise when y is certifiably apart
    p = GenusTwoPoint.affine(approx(0), approx(1))
    q = GenusTwoPoint.affine(approx(x_gap * TOL), approx(1) + approx(y_gap * TOL))
    assert not genus2_points_equal(p, q)


# -- the group law: q close to -p ---------------------------------------------------

E1 = EllipticCurve(Fraction(1))
P0 = EllipticPoint(approx(0), approx(1))


def near_negative(gap: float) -> EllipticPoint:
    """On-curve point whose x lies ``gap * tol`` from P0's, with y close to -1.

    At x = 0 the slope dy/dx is 1/2, so the y distance to -P0 stays below
    the x gap."""
    x = approx(gap * TOL)
    return EllipticPoint(x, -E1.rhs(x).sqrt())


@given(BELOW)
def test_add_below_band_is_the_identity(gap):
    assert E1.add(P0, near_negative(gap)) == EC_INFINITY


@given(BAND)
def test_add_inside_band_raises(gap):
    with pytest.raises(AmbiguousCoincidenceError):
        E1.add(P0, near_negative(gap))


@given(ABOVE)
def test_add_above_band_is_a_chord_sum(gap):
    assert not E1.add(P0, near_negative(gap)).is_infinity


# -- membership: a cover image that misses the expected point ---------------------------

X1 = GenusTwoCurve(Fraction(1))
CC2 = ConfigurationCurve(X1, find_generic_points(E1, 2).offsets())
TARGET = EllipticPoint(Fraction(1, 4), Fraction(9, 8))  # image of (1/2, 9/8)
P1 = X1.fiber(E1.sub(TARGET, CC2.offsets[0]))[0]


def tuple_missing_by(gap: float) -> ConfigTuple:
    """Member-shaped tuple whose second cover image is ``gap * tol`` off.

    The image moves along the elliptic curve by ``gap * tol`` in x; its
    slope there is 19/36, so the max-norm distance is the x gap."""
    x_image = as_approx(TARGET.x) + approx(gap * TOL)
    p2 = GenusTwoPoint.affine(x_image.sqrt(), E1.rhs(x_image).sqrt())
    return ConfigTuple((P1, p2)).as_approx(X1.prec, X1.tol)


@settings(max_examples=25, deadline=None)
@given(BELOW)
def test_contains_below_band_accepts(gap):
    assert CC2.contains(tuple_missing_by(gap))


@settings(max_examples=25, deadline=None)
@given(BAND)
def test_contains_inside_band_raises(gap):
    with pytest.raises(AmbiguousCoincidenceError):
        CC2.contains(tuple_missing_by(gap))


@settings(max_examples=25, deadline=None)
@given(ABOVE)
def test_contains_above_band_rejects(gap):
    assert not CC2.contains(tuple_missing_by(gap))


# -- distinctness of two slots: one decision on their shared y ---------------------------


def slots_apart_by(x_gap: float, y_gap: float) -> tuple:
    """Two slots of choices ``(+-x, y)`` whose x's and y's are the gaps apart."""
    def slot(x, y):
        return (GenusTwoPoint.affine(x, y), GenusTwoPoint.affine(-x, y))

    return (slot(approx(1), approx(2)),
            slot(approx(1) + approx(x_gap * TOL), approx(2) + approx(y_gap * TOL)))


def slot_pair_coincidences(a: tuple, b: tuple) -> list:
    """The coincidence outcomes of the slot table of the two-slot product ``(a, b)``."""
    return list(CC2.slot_facts(SlotProduct((a, b))).coincide.values())


@given(ABOVE, st.floats(0, 1e6))
def test_shared_y_above_band_separates_every_point_pair(y_gap, x_gap):
    a, b = slots_apart_by(x_gap, y_gap)
    assert _shared_y_apart(a, b)
    assert not any(genus2_points_equal(p, q) for p in a for q in b)


@given(st.one_of(BELOW, BAND), ABOVE)
def test_shared_y_below_guard_leaves_the_point_pairs(y_gap, x_gap):
    # the y's decide nothing, and the x's keep the point pairs apart
    a, b = slots_apart_by(x_gap, y_gap)
    assert not _shared_y_apart(a, b)
    assert slot_pair_coincidences(a, b) == [False] * 4


@given(BELOW, BAND)
def test_shared_y_tie_decides_an_ambiguous_point_pair(y_gap, x_gap):
    a, b = slots_apart_by(x_gap, y_gap)
    assert any(isinstance(outcome, AmbiguousCoincidenceError)
               for outcome in slot_pair_coincidences(a, b))


# -- the sign of a branch point's last coordinate ---------------------------------------


def near_branch_point(gap: float) -> GenusTwoPoint:
    """On-curve point ``gap * tol`` from (0, 1); its y moves only by gap^2/2."""
    x = approx(gap * TOL)
    return GenusTwoPoint.affine(x, X1.rhs(x).sqrt())


@given(BELOW)
def test_branch_sign_below_band_is_plus(gap):
    assert CC2.branch_sign(near_branch_point(gap)) == +1


@given(BAND)
def test_branch_sign_inside_band_raises(gap):
    with pytest.raises(AmbiguousCoincidenceError):
        CC2.branch_sign(near_branch_point(gap))


@given(ABOVE)
def test_branch_sign_above_band_is_minus(gap):
    assert CC2.branch_sign(near_branch_point(gap)) == -1


# -- genericity: an ambiguous exclusion does not pass ------------------------------------


@given(BAND)
def test_ambiguous_exclusion_is_not_passed(gap):
    delta = EllipticPoint(approx(1), approx(2))
    point = EllipticPoint(approx(1) + approx(gap * TOL), approx(2))
    assert _avoids(point, (EC_INFINITY, delta, E1.neg(delta))) == [True, False, True]


# -- the command line: lambda next to the singular value 0 ------------------------------


def curve_info_exit_code(lam: float) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return main(["curve-info", "--lambda", f"{lam!r},0"])


@settings(max_examples=25, deadline=None)
@given(BELOW)
def test_curve_info_singular_lambda(gap):
    assert curve_info_exit_code(gap * TOL) == EXIT_USAGE


@settings(max_examples=25, deadline=None)
@given(BAND)
def test_curve_info_ambiguous_lambda(gap):
    assert curve_info_exit_code(gap * TOL) == EXIT_PRECISION_EXHAUSTED


@settings(max_examples=25, deadline=None)
@given(ABOVE)
def test_curve_info_small_nonsingular_lambda(gap):
    assert curve_info_exit_code(gap * TOL) == EXIT_OK


# -- guards over the source -------------------------------------------------------------

# (file, enclosing function) of the comparisons allowed to mention a tolerance
ALLOWED = {
    ("scalars.py", "coincide"),
    # a re-draw rule for sampled points, not an equality decision
    ("config_curve.py", "sample_genus2_point"),
    # an input check, not an equality decision
    ("elliptic.py", "__init__"),
}


def _mentions_tol(node) -> bool:
    return any((isinstance(n, ast.Name) and n.id == "tol")
               or (isinstance(n, ast.Attribute) and n.attr == "tol")
               for n in ast.walk(node))


def _nodes_in_functions(path: Path):
    """Every node of a source file with the name of its enclosing function."""
    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        yield node, function
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    return visit(ast.parse(path.read_text(), str(path)), None)


def _tolerance_comparisons(path: Path) -> list:
    """(file, enclosing function, line) of each comparison mentioning a tol."""
    return [(path.name, function, node.lineno)
            for node, function in _nodes_in_functions(path)
            if isinstance(node, ast.Compare)
            and any(_mentions_tol(operand) for operand in [node.left, *node.comparators])]


def test_only_coincide_compares_against_a_tolerance():
    found = [c for path in sorted(SRC.glob("*.py")) for c in _tolerance_comparisons(path)]
    assert ("scalars.py", "coincide") in {(f, fn) for f, fn, _ in found}
    assert [c for c in found if c[:2] not in ALLOWED] == []


def test_no_general_svd_in_src():
    assert [p.name for p in sorted(SRC.glob("*.py")) if "svd_c" in p.read_text()] == []


def test_one_tuple_enumerator():
    # SlotProduct.indexed is the only code that builds tuples; the slot
    # table's reading of one tuple's slot pairs and its decisions per slot
    # pair are the only pairwise scans.  A second product, or a pairwise
    # scan over an enumeration's tuples, would fork them again
    path = SRC / "config_curve.py"
    calls = [(node.func.attr, function) for node, function in _nodes_in_functions(path)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name) and node.func.value.id == "itertools"]
    allowed = {("product", "indexed"), ("combinations", "member"),
               ("combinations", "slot_facts")}
    assert ("product", "indexed") in calls
    assert [c for c in calls if c[0] in ("product", "combinations") and c not in allowed] == []
    assert not any(isinstance(node, ast.ImportFrom) and node.module == "itertools"
                   for node, _ in _nodes_in_functions(path))


def test_no_private_name_is_imported_from_a_sibling_module():
    # a private name stays inside its module; a caller that needs it calls
    # a public one instead
    found = [(path.name, node.module, alias.name) for path in sorted(SRC.glob("*.py"))
             for node, _ in _nodes_in_functions(path)
             if isinstance(node, ast.ImportFrom) and node.level > 0
             for alias in node.names if alias.name.startswith("_")]
    assert found == []


# (file, enclosing function, name) of each use of a group-law form that skips
# the on-curve check: the checked forms delegating, and callers whose points
# are on the curve by construction, as their docstrings say
UNCHECKED_USES = [
    ("config_curve.py", "projection_fiber", "_add"),
    ("config_curve.py", "projection_fiber", "_add"),
    ("config_curve.py", "projection_fiber", "_cover"),
    ("config_curve.py", "projection_fiber", "_fiber"),
    ("config_curve.py", "projection_fiber", "_fiber"),
    ("config_curve.py", "slot_facts", "_add"),
    ("config_curve.py", "slot_facts", "_cover"),
    ("elliptic.py", "add", "_add"),
    ("elliptic.py", "multiply", "_add"),
    ("elliptic.py", "multiply", "_add"),
    ("generic_points.py", "_progression", "_add"),
    ("genus2.py", "cover", "_cover"),
    ("genus2.py", "fiber", "_fiber"),
]


def test_unchecked_group_law_has_only_its_listed_callers():
    # a new caller of _add, _cover or _fiber skips a check the public form
    # makes; it belongs here, and in the docstring, only if its points are
    # on the curve by construction
    found = sorted((path.name, function, node.attr) for path in sorted(SRC.glob("*.py"))
                   for node, function in _nodes_in_functions(path)
                   if isinstance(node, ast.Attribute) and node.attr in ("_add", "_cover", "_fiber"))
    assert found == UNCHECKED_USES


def _sympy_imports(path: Path) -> list:
    """The enclosing function (None at module level) of each sympy import."""
    found = []
    for node, function in _nodes_in_functions(path):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [function for module in modules if module.split(".")[0] == "sympy"]
    return found


def test_only_the_symbolic_module_imports_sympy():
    # nothing in the package needs sympy: only the bridge functions of the
    # symbolic module import it, when called, and no module loads it on import
    found = {p.name: _sympy_imports(p) for p in sorted(SRC.glob("*.py"))}
    assert [name for name, functions in found.items() if functions] == ["symbolic.py"]
    assert set(found["symbolic.py"]) == {"expr", "_sympy_symbols"}
