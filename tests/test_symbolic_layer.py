"""sympy backs only the symbolic layer.

``kodaira.symbolic`` is the one module that imports sympy.  Importing the
package, running the verifier or a command that works on curves leaves it
unloaded; the symbolic names still resolve, from the package and from
``kodaira.scalars``, and load it on first use.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import kodaira
import kodaira.scalars

SRC = Path(__file__).resolve().parents[1] / "src"


def sympy_loaded_after(code: str) -> bool:
    """Run ``code`` in a fresh interpreter; did it import sympy?"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    probe = code + "\nimport sys\nprint('sympy' in sys.modules)\n"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, check=True)
    return done.stdout.splitlines()[-1] == "True"


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


def test_symbolic_command_loads_sympy():
    # the probe above is not vacuous
    assert sympy_loaded_after(cli_run("k-squared", "--symbolic"))


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
