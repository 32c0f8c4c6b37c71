"""The benchmark's own gate: corrupted op outputs must count as failed."""

import contextlib
import io
import json
import os

import pytest

import gate
import run

SMALL_VERIFY = {"kind": "verify", "lam": "1/1", "r": 3, "samples": 2}


def test_clean_verify_op_passes():
    op = run.run_op(SMALL_VERIFY, seed=7)
    assert op["problems"] == []
    assert op["checked"] > 0 and len(op["digest"]) == 64


@pytest.mark.parametrize("corrupt", [
    lambda r: r.tallies["branch_count"].info.update(found=7),
    lambda r: r.tallies["membership_and_rank"].record(True),
    lambda r: r.tallies.pop("genus"),
    lambda r: r.escalations.append({"check": "branch_count"}),
    lambda r: setattr(r, "status", "fail"),
])
def test_corrupted_verify_op_fails(monkeypatch, corrupt):
    from kodaira import verifier

    real = verifier.verify_claim

    def corrupted(*args, **kwargs):
        result = real(*args, **kwargs)
        corrupt(result)
        return result

    monkeypatch.setattr(verifier, "verify_claim", corrupted)
    op = run.run_op(SMALL_VERIFY, seed=7)
    assert op["problems"] and op["checked"] == 0


def test_unreadable_verify_report_fails():
    assert gate.check_verify_report("{not json", r=3, samples=2)


def _cli_outputs():
    from kodaira.cli import main

    outputs = {}
    for name, args in gate.CLI_COMMANDS:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert main(list(args)) == 0
        outputs[name] = buffer.getvalue().encode()
    return outputs


@pytest.fixture(scope="module")
def cli_outputs():
    return _cli_outputs()


def _fake_children(outputs, returncodes=None):
    """Stand-in for ``run.run_child`` that replays canned command outputs."""
    queue = list(gate.CLI_COMMANDS)

    def fake(argv):
        name, _ = queue.pop(0)
        return {"returncode": (returncodes or {}).get(name, 0), "stdout": outputs[name],
                "stderr": "", "seconds": 0.25, "rss_mb": 50.0}

    return fake


def test_clean_cli_op_passes(monkeypatch, cli_outputs):
    monkeypatch.setattr(run, "run_child", _fake_children(cli_outputs))
    op = run.run_op(run.WORKLOADS["exact-cli"], seed=1)
    assert op["problems"] == []
    assert op["checked"] == gate.CLI_CLAIMS_PER_OP
    assert op["digest_changed"] == []


def _replace_json(text: bytes, edit) -> bytes:
    obj = json.loads(text)
    edit(obj)
    return json.dumps(obj).encode()


@pytest.mark.parametrize("command, corrupt", [
    ("invariants", lambda b: _replace_json(b, lambda o: o.update(upsilon="2/1"))),
    ("slope-table", lambda b: _replace_json(b, lambda o: o["rows"][3].update(upsilon="2/1"))),
    ("slope-table", lambda b: _replace_json(b, lambda o: o["rows"].pop())),
    ("k-squared", lambda b: _replace_json(b, lambda o: o.update(k_squared="4*gamma*r"))),
    ("find-points", lambda b: _replace_json(b, lambda o: o["points"].pop())),
    ("find-points", lambda b: b.replace(b'"value": "1/4"', b'"value": "1/5"', 1)),
    ("find-points", lambda b: b[:-40]),
])
def test_corrupted_cli_op_fails(monkeypatch, cli_outputs, command, corrupt):
    outputs = dict(cli_outputs, **{command: corrupt(cli_outputs[command])})
    monkeypatch.setattr(run, "run_child", _fake_children(outputs))
    op = run.run_op(run.WORKLOADS["exact-cli"], seed=1)
    assert op["problems"] and all(p.startswith(command) for p in op["problems"])
    assert op["checked"] == 0


def test_cli_exit_code_fails(monkeypatch, cli_outputs):
    monkeypatch.setattr(run, "run_child", _fake_children(cli_outputs, {"k-squared": 2}))
    op = run.run_op(run.WORKLOADS["exact-cli"], seed=1)
    assert op["problems"] == ["k-squared: exit code 2"]


def test_benchmark_json_matches_the_metrics_reported():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()
