import argparse
import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kodaira import cli
from kodaira.cli import (
    EXIT_OK,
    EXIT_PRECISION_EXHAUSTED,
    EXIT_USAGE,
    EXIT_VERIFICATION_FAILED,
    build_parser,
    main,
)
from kodaira.config_curve import ConfigurationCurve
from kodaira.generic_points import find_generic_points
from kodaira.genus2 import GenusTwoCurve
from kodaira import DEFAULT_PREC_BITS, DEFAULT_TOL
from kodaira.scalars import AmbiguousCoincidenceError
from kodaira.verifier import lambda_at


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_curve_info_json(capsys):
    code, out, _ = run_cli(capsys, "curve-info", "--lambda", "1/1")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema"] == "1"
    assert payload["j_ratio"]["value"] == "1/31"
    assert payload["j_standard"]["value"] == "6912/31"
    assert payload["discriminant"]["value"] == "-496/1"


def test_curve_info_text(capsys):
    code, out, _ = run_cli(capsys, "curve-info", "--lambda", "1/1",
                           "--format", "text")
    assert code == EXIT_OK
    assert "j (bare ratio)" in out
    assert "j (standard" in out


def test_genus_command(capsys):
    code, out, _ = run_cli(capsys, "genus", "--r", "8")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["genus_by_recursion"] == 1025
    assert payload["genus_closed_form"] == 1025


def test_slope_table_csv(capsys):
    code, out, _ = run_cli(capsys, "slope-table", "--r-min", "8",
                           "--r-max", "12", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[1:] == ["8,7,17,8,gamma-1", "10,8,59,28,gamma-1",
                         "12,9,67,32,gamma-1"]


def test_find_points_writes_certificate(capsys, tmp_path):
    target = tmp_path / "cert.json"
    code, out, _ = run_cli(capsys, "find-points", "--r", "4",
                           "--output", str(target))
    assert code == EXIT_OK
    payload = json.loads(target.read_text())
    assert payload["r"] == 4
    assert len(payload["points"]) == 3
    assert all(c["passed"] for c in payload["checks"])


def test_verify_subcommand_passes(capsys):
    code, out, _ = run_cli(capsys, "verify-config-curve", "--r", "2",
                           "--samples", "5")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["status"] == "pass"


def test_verify_byte_identical_reports(capsys):
    _, first, _ = run_cli(capsys, "verify-config-curve", "--r", "2",
                          "--samples", "5", "--seed", "7")
    _, second, _ = run_cli(capsys, "verify-config-curve", "--r", "2",
                           "--samples", "5", "--seed", "7")
    assert first.encode() == second.encode()


def test_verify_dump_enumeration(capsys, tmp_path):
    target = tmp_path / "branch.csv"
    code, _, _ = run_cli(capsys, "verify-config-curve", "--r", "2",
                         "--samples", "3", "--dump-enumeration", str(target))
    assert code == EXIT_OK
    lines = target.read_text().strip().split("\n")
    assert lines[0] == "x1,y1,x2,y2"
    assert len(lines) == 1 + 4


def test_dump_enumeration_writes_the_checked_points(capsys, tmp_path, monkeypatch):
    # the branch count is ambiguous at the base precision and escalates;
    # the dump holds the points checked at the escalated precision
    original = ConfigurationCurve.branch_enumeration

    def ambiguous_at_base(self):
        if self.curve.prec == DEFAULT_PREC_BITS:
            raise AmbiguousCoincidenceError("forced", check_name="test",
                                            distance=0.0, tol=self.curve.tol)
        return original(self)

    monkeypatch.setattr(ConfigurationCurve, "branch_enumeration", ambiguous_at_base)
    target = tmp_path / "branch.csv"
    code, out, _ = run_cli(capsys, "verify-config-curve", "--lambda", "0.5,0.25",
                           "--r", "2", "--samples", "2",
                           "--dump-enumeration", str(target))
    assert code == EXIT_OK
    assert [e["check"] for e in json.loads(out)["escalations"]] == ["branch_count"]
    prec = 2 * DEFAULT_PREC_BITS
    curve = GenusTwoCurve(lambda_at(("0.5", "0.25"), prec, DEFAULT_TOL), prec, DEFAULT_TOL)
    config = ConfigurationCurve(
        curve, find_generic_points(curve.elliptic_quotient(), 2).offsets())
    assert target.read_text() == config.enumeration_to_csv(original(config))


def test_k_squared_symbolic(capsys):
    code, out, _ = run_cli(capsys, "k-squared", "--symbolic")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["k_squared"] == "4*gamma*r + 19*gamma - 4*r - 19"
    assert payload["adjunction"] == {"Rsq": "-x1/2", "x2": "x1"}
    assert payload["transcript"]["steps"]


def test_invariants_command(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--r", "8", "--gamma", "2")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["k_squared"] == "51/1"
    assert payload["upsilon"] == "17/8"
    assert payload["tau"] == "1/1"


def test_invalid_lambda_exit_code(capsys):
    code, _, err = run_cli(capsys, "curve-info", "--lambda", "0/1")
    assert code == EXIT_USAGE
    assert "singular" in err


def test_odd_r_exit_code(capsys):
    code, _, err = run_cli(capsys, "invariants", "--r", "7")
    assert code == EXIT_USAGE
    assert "even" in err


@pytest.mark.parametrize("argv, code, message", [
    pytest.param(["invariants", "--r", "7"], EXIT_USAGE, "r must be even, got 7", id="odd-r"),
    pytest.param(["genus", "--r", "0"], EXIT_USAGE, "r must be >= 1", id="genus-r-0"),
    pytest.param(["curve-info", "--lambda", "0/1"], EXIT_USAGE,
                 "lam=Fraction(0, 1) gives a singular curve", id="singular-curve-info"),
    pytest.param(["find-points", "--r", "4", "--lambda=-8/1"], EXIT_USAGE,
                 "no stride up to 200 passed the exclusions", id="search-exhausted"),
    pytest.param(["verify-config-curve", "--r", "3", "--samples", "2", "--lambda", "0/1"],
                 EXIT_USAGE, "lam=Fraction(0, 1) gives a singular curve", id="singular-verify"),
    pytest.param(["verify-config-curve", "--r", "3", "--samples", "2", "--tol", "1e-1"],
                 EXIT_PRECISION_EXHAUSTED,
                 "check 'membership_and_rank' stayed ambiguous at 512 bits",
                 id="precision-exhausted"),
    pytest.param(["curve-info", "--lambda=5e-30,0"], EXIT_PRECISION_EXHAUSTED,
                 "distance 5.0e-30 within the ambiguity band [1e-30, 1.0000000000000001e-29) "
                 "during zero-test", id="ambiguous-lambda"),
])
def test_error_exit_in_a_fresh_interpreter(argv, code, message):
    # main resolves the exception classes it catches only while one propagates,
    # in an interpreter that has not loaded them yet
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-m", "kodaira.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout, done.stderr) == (code, "", f"error: {message}\n")


def test_unknown_flag_exit_code(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["curve-info", "--no-such-flag"])
    assert excinfo.value.code == EXIT_USAGE


def test_negative_samples_exit_code(capsys):
    code, out, err = run_cli(capsys, "verify-config-curve", "--r", "3", "--samples", "-5")
    assert code == EXIT_USAGE
    assert out == ""
    assert "samples" in err


@pytest.mark.parametrize("flag, value", [("--precision", "0"), ("--tol", "0"),
                                         ("--tol", "nan"), ("--tol", "-1")])
def test_numeric_flag_out_of_range_exit_code(capsys, flag, value):
    with pytest.raises(SystemExit) as excinfo:
        main(["curve-info", flag, value])
    assert excinfo.value.code == EXIT_USAGE
    assert f"argument {flag}:" in capsys.readouterr().err


def test_precision_flag(capsys):
    assert build_parser().parse_args(["curve-info", "--precision", "64"]).precision == 64
    code, out, _ = run_cli(capsys, "curve-info", "--precision", "64", "--tol", "1e-15")
    assert code == EXIT_OK
    assert json.loads(out)["command"] == "curve-info"


@pytest.mark.parametrize("argv", [
    ["curve-info", "--lambda", "0.3,0.7", "--precision", "64"],
    ["verify-config-curve", "--r", "3", "--samples", "2", "--lambda", "0.3,0.7",
     "--precision", "64"],
])
def test_a_tolerance_finer_than_the_precision_is_a_usage_error(capsys, argv):
    # 64 bits resolve about 5e-20, so the default tol 1e-30 cannot be met
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "tol 1e-30 is below 2**-64" in err and "raise the tolerance or the precision" in err


def test_verification_failure_exit_code(capsys, monkeypatch):
    import kodaira.verifier as verifier_module

    def failing(ctx, run, tally, rng):
        tally.record(False)

    monkeypatch.setattr(verifier_module, "_CHECKS", (("forced", failing),))
    code, out, _ = run_cli(capsys, "verify-config-curve", "--r", "2",
                           "--samples", "1")
    assert code == EXIT_VERIFICATION_FAILED
    assert json.loads(out)["status"] == "fail"


def test_precision_exhaustion_exit_code(capsys):
    code, _, err = run_cli(capsys, "verify-config-curve", "--r", "3",
                           "--samples", "2", "--tol", "1e-1")
    assert code == EXIT_PRECISION_EXHAUSTED


def test_complex_lambda_verify(capsys):
    code, out, _ = run_cli(capsys, "verify-config-curve", "--r", "2",
                           "--samples", "3", "--lambda", "0.5,0.25")
    assert code == EXIT_OK
    assert json.loads(out)["status"] == "pass"


@pytest.mark.parametrize("argv", [
    ["genus", "--r", "8", "--lambda", "2"],
    ["verify-config-curve", "--r", "2", "--bound", "5"],
    ["invariants", "--r", "8", "--format", "text"],
    ["curve-info", "--format", "csv"],
])
def test_a_flag_the_command_does_not_read_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == EXIT_USAGE


# perfbench/run.py appends --seed to the four commands it times; they draw no samples
_ACCEPTED_UNREAD = {name: {"seed"} for name in ("find-points", "k-squared", "invariants",
                                                 "slope-table")}


def test_every_declared_flag_is_read():
    # each option a subcommand declares is read as args.<dest> by its handler
    # or by _emit, and the handler reads no option the subcommand lacks
    tree = ast.parse(inspect.getsource(cli))
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}

    def read(function: str) -> set:
        return {node.attr for node in ast.walk(functions[function])
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "args"}

    [subparsers] = [action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)]
    assert set(subparsers.choices) == set(cli._COMMANDS)
    for name, parser in subparsers.choices.items():
        declared = {action.dest: action for action in parser._actions if action.dest != "help"}
        unread = _ACCEPTED_UNREAD.get(name, set())
        assert set(declared) - unread == read(cli._COMMANDS[name].__name__) | read("_emit"), name
        assert all("draws no samples" in declared[dest].help for dest in unread)
