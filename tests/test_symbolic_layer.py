"""Nothing in the package needs sympy.

The symbolic layer is exact ``Fraction`` polynomial arithmetic.  Importing
the package, running the verifier, a command that works on curves or one
of the symbolic commands leaves sympy unloaded; the symbolic names still
resolve, from the package and from ``kodaira.scalars``.  Only the sympy
bridge of ``kodaira.symbolic`` (``SYM_*`` and ``.expr``) loads it.

Each fresh interpreter loads only the layer it runs: the exact commands
load neither mpmath nor a numeric module, and the verifier never loads
the symbolic layer.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import kodaira
import kodaira.scalars

SRC = Path(__file__).resolve().parents[1] / "src"


def modules_after(code: str) -> set:
    """Run ``code`` in a fresh interpreter; the names in its ``sys.modules``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    probe = code + "\nimport sys\nprint(' '.join(sys.modules))\n"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, check=True)
    return set(done.stdout.splitlines()[-1].split())


def sympy_loaded_after(code: str) -> bool:
    """Run ``code`` in a fresh interpreter; did it import sympy?"""
    return "sympy" in modules_after(code)


def kodaira_loaded_after(code: str) -> tuple:
    """Run ``code`` in a fresh interpreter; the ``kodaira`` modules it loaded, and mpmath?"""
    loaded = modules_after(code)
    return {m for m in loaded if m.split(".")[0] == "kodaira"}, "mpmath" in loaded


def cli_run(*argv: str) -> str:
    return ("import contextlib, io\nfrom kodaira.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({list(argv)!r}) == 0\n")


@pytest.mark.parametrize("code", [
    pytest.param("import kodaira", id="import-kodaira"),
    pytest.param("import kodaira.verifier", id="import-verifier"),
    # attribute probes such as functools' __wrapped__ do not reach the symbolic layer
    pytest.param("import kodaira\nassert getattr(kodaira, '__wrapped__', None) is None\n"
                 "assert getattr(kodaira.scalars, '__wrapped__', None) is None",
                 id="attribute-probe"),
    pytest.param(cli_run("find-points", "--r", "4"), id="find-points"),
    pytest.param(cli_run("curve-info", "--lambda", "0.3,0.7"), id="curve-info"),
    pytest.param(cli_run("genus", "--r", "8"), id="genus"),
    pytest.param(cli_run("verify-config-curve", "--r", "3", "--samples", "2"),
                 id="verify-config-curve"),
])
def test_numeric_pipeline_runs_without_sympy(code):
    assert not sympy_loaded_after(code)


@pytest.mark.parametrize("code", [
    pytest.param(cli_run("k-squared", "--symbolic"), id="k-squared"),
    pytest.param(cli_run("invariants", "--r", "8", "--gamma", "2"), id="invariants"),
    pytest.param(cli_run("slope-table", "--r-min", "8", "--r-max", "40"), id="slope-table"),
    pytest.param("from kodaira.scalars import scalar_from_json, scalar_to_json, symbols\n"
                 "gamma, r = symbols('gamma', 'r')\n"
                 "value = (gamma - 1) / (2 * r + 8)\n"
                 "assert scalar_from_json(scalar_to_json(value)) == value",
                 id="json-round-trip"),
])
def test_symbolic_layer_runs_without_sympy(code):
    assert not sympy_loaded_after(code)


NUMERIC = {f"kodaira.{m}" for m in
           ("scalars", "elliptic", "genus2", "generic_points", "config_curve", "verifier")}


@pytest.mark.parametrize("code", [
    pytest.param(cli_run("invariants", "--r", "8", "--gamma", "2"), id="invariants"),
    pytest.param(cli_run("slope-table", "--r-min", "8", "--r-max", "40"), id="slope-table"),
    pytest.param(cli_run("k-squared", "--symbolic"), id="k-squared"),
    pytest.param("from kodaira import slope, k_squared", id="import-names"),
])
def test_exact_commands_load_no_numeric_module(code):
    modules, mpmath_loaded = kodaira_loaded_after(code)
    assert not mpmath_loaded
    assert not modules & NUMERIC
    assert "kodaira.symbolic" in modules


def test_bare_import_loads_no_submodule():
    assert kodaira_loaded_after("import kodaira") == ({"kodaira"}, False)


def test_verifier_loads_the_curves_and_not_the_symbolic_layer():
    assert kodaira_loaded_after("import kodaira.verifier") == ({"kodaira"} | NUMERIC, True)


def test_find_points_loads_no_verifier():
    modules, _ = kodaira_loaded_after(cli_run("find-points", "--r", "4"))
    assert modules == {"kodaira", "kodaira.cli", "kodaira.scalars", "kodaira.elliptic",
                       "kodaira.generic_points"}


def test_genus_loads_no_curve_module():
    # the genus formulas live in the package root
    assert kodaira_loaded_after(cli_run("genus", "--r", "8")) == ({"kodaira", "kodaira.cli"}, False)


def test_sympy_bridge_loads_sympy():
    # the probes above are not vacuous
    assert sympy_loaded_after("import kodaira.scalars\nkodaira.scalars.SYM_GAMMA")


def test_every_public_name_resolves():
    for name in kodaira.__all__:
        assert getattr(kodaira, name) is not None, name
    from kodaira import intersection, invariants, symbolic

    assert kodaira.SymbolicScalar is symbolic.SymbolicScalar
    assert kodaira.k_squared is intersection.k_squared
    assert kodaira.slope is invariants.slope
    with pytest.raises(AttributeError):
        kodaira.not_a_name


def test_symbolic_names_still_resolve_from_scalars():
    from kodaira import symbolic

    assert kodaira.scalars.SYM_GAMMA is symbolic.SYM_GAMMA
    assert kodaira.scalars.SymbolicScalar is symbolic.SymbolicScalar
    assert kodaira.scalars.symbols("gamma") == symbolic.SymbolicScalar.symbol("gamma")
    with pytest.raises(AttributeError):
        kodaira.scalars.not_a_name
