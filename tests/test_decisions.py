"""Every approximate decision has three outcomes and goes through one place.

Band tests: at each decision site a distance below ``tol`` is decided
coincident, one of ``COINCIDENCE_GUARD * tol`` or more is decided distinct,
and one in between raises :class:`AmbiguousCoincidenceError`.  The guard
tests parse the package and fail when a comparison against a tolerance
appears anywhere but in :func:`kodaira.scalars.coincide`.
"""

import ast
import contextlib
import io
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from kodaira.cli import EXIT_OK, EXIT_PRECISION_EXHAUSTED, EXIT_USAGE, main
from kodaira.config_curve import ConfigTuple, ConfigurationCurve, _Decisions
from kodaira.elliptic import EC_INFINITY, EllipticCurve, EllipticPoint
from kodaira.generic_points import _exclusion_checks, find_generic_points
from kodaira.genus2 import GenusTwoCurve, GenusTwoPoint, genus2_points_equal
from kodaira.scalars import (
    COINCIDENCE_GUARD,
    DEFAULT_TOL as TOL,
    AmbiguousCoincidenceError,
    ComplexApprox,
    as_approx,
    coincide,
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


# -- the sign of a branch point's last coordinate ---------------------------------------


def near_branch_point(gap: float) -> GenusTwoPoint:
    """On-curve point ``gap * tol`` from (0, 1); its y moves only by gap^2/2."""
    x = approx(gap * TOL)
    return GenusTwoPoint.affine(x, X1.rhs(x).sqrt())


@given(BELOW)
def test_branch_sign_below_band_is_plus(gap):
    assert _Decisions(CC2).branch_sign(near_branch_point(gap)) == +1


@given(BAND)
def test_branch_sign_inside_band_raises(gap):
    with pytest.raises(AmbiguousCoincidenceError):
        _Decisions(CC2).branch_sign(near_branch_point(gap))


@given(ABOVE)
def test_branch_sign_above_band_is_minus(gap):
    assert _Decisions(CC2).branch_sign(near_branch_point(gap)) == -1


# -- genericity: an ambiguous exclusion does not pass ------------------------------------


@given(BAND)
def test_ambiguous_exclusion_is_not_passed(gap):
    delta = EllipticPoint(approx(1), approx(2))
    point = EllipticPoint(approx(1) + approx(gap * TOL), approx(2))
    checks = []
    _exclusion_checks(E1, "e2", point, delta, checks)
    assert [c.passed for c in checks] == [True, False, True]


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
    # projection_fiber is the only code that builds tuples, and membership's
    # check of one tuple's own coordinates is the only pairwise scan; a second
    # product, or a pairwise scan over an enumeration, would fork them again
    path = SRC / "config_curve.py"
    calls = [(node.func.attr, function) for node, function in _nodes_in_functions(path)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name) and node.func.value.id == "itertools"]
    allowed = {("product", "projection_fiber"), ("combinations", "contains")}
    assert ("product", "projection_fiber") in calls
    assert [c for c in calls if c[0] in ("product", "combinations") and c not in allowed] == []
    assert not any(isinstance(node, ast.ImportFrom) and node.module == "itertools"
                   for node, _ in _nodes_in_functions(path))


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
