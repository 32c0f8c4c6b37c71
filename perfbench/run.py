"""Benchmark of the kodaira verifier: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src``; nothing is installed).  Every workload is a closed loop with one
client: each op starts after the previous one finished, in this single
process (``exact-cli`` starts one child interpreter at a time).  Op ``k``
gets the seed ``1000 * N + k``.  Ops start until S seconds have passed;
the op in flight then finishes.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` each op runs twice on the same seed, untraced and then with
the layer tracer installed; the run reports per-layer metrics per traced
op and the tracing overhead, and writes the spans to ``perfbench/out``.
Every op's output passes the correctness gate in ``gate.py`` or counts as
failed.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import gate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = {
    "sample-sweep": {"kind": "verify", "lam": "0.3,0.7", "r": 5, "samples": 20},
    "paper-regime": {"kind": "verify", "lam": "1/1", "r": 8, "samples": 1},
    "exact-cli": {"kind": "cli", "lam": "1/1", "r": gate.CERTIFICATE_R},
}
SETUP_REPEATS = 5

END_TO_END = (
    ("op_s.p50", "s"),
    ("checks_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Spans whose calls and self seconds (``<name>.calls``, ``<name>.self_s``)
# are reported per traced op.
LAYER_SPANS = (
    "scalars.approx_ops",
    "elliptic.add",
    "elliptic.contains",
    "elliptic.multiply",
    "genus2.cover",
    "genus2.fiber",
    "genus2.contains",
    "config_curve.contains",
    "config_curve.jacobian",
    "mpmath.svd_c",
    "config_curve.fiber_over_first",
    "config_curve.projection_degree_estimate",
    "config_curve.branch_points",
    "config_curve.sample_genus2_point",
    "generic_points.find_generic_points",
    "generic_points.verify_certificate",
    "intersection.k_squared",
    "invariants.slope",
    "invariants.invariant_report",
    "invariants.slope_table",
    "verifier.verify_claim",
    "cli.main",
)
DERIVED_LAYER_METRICS = (
    ("genus2.contains.per_member", "ratio"),
    ("config_curve.sample_genus2_point.accept_ratio", "ratio"),
    ("verifier.escalations", "count"),
    ("cli.import_s", "s"),
    ("bench.trace_overhead", "ratio"),
)


def per_layer_metrics() -> list:
    """Names and units of the ``--trace 1`` metrics, in report order."""
    return [(f"{name}.{stat}", unit) for name in LAYER_SPANS
            for stat, unit in (("calls", "count"), ("self_s", "s"))] + list(DERIVED_LAYER_METRICS)


# -- provenance ---------------------------------------------------------------


def git_sha() -> str:
    """HEAD of the checkout read from ``.git`` directly, or ``unknown``."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamps(seed: int) -> dict:
    import mpmath
    import sympy

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "sympy": sympy.__version__,
        "seed": seed,
        "loadavg_at_start": list(os.getloadavg()),
    }


# -- child processes -----------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list) -> dict:
    """Run one child to completion; wall time and its own peak RSS."""
    with tempfile.TemporaryFile(dir=OUT) as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=child_env(), cwd=ROOT)
        stdout = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return {"returncode": proc.returncode, "stdout": stdout, "stderr": stderr,
            "seconds": seconds, "rss_mb": usage.ru_maxrss / 1024}


def setup_once(spec: dict) -> float:
    child = run_child([sys.executable, os.path.join(HERE, "child.py"),
                       "setup", spec["lam"], str(spec["r"])])
    if child["returncode"] != 0:
        raise RuntimeError(f"setup failed: {child['stderr'].strip()}")
    return child["seconds"]


# -- ops -------------------------------------------------------------------------


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def verify_op(spec: dict, seed: int) -> dict:
    from kodaira import verifier

    start = perf_counter()
    run = verifier.verify_claim(spec["lam"], r=spec["r"],
                                samples=spec["samples"], seed=seed)
    seconds = perf_counter() - start
    report = run.to_json()
    problems = gate.check_verify_report(report, spec["r"], spec["samples"])
    return {"seconds": seconds, "digest": sha256(report), "problems": problems,
            "checked": gate.verify_checked(report) if not problems else 0,
            "escalations": len(run.escalations)}


def cli_op(spec: dict, seed: int, tracer=None) -> dict:
    """One pass over the four commands, each in a fresh interpreter.

    With a tracer, each command runs under ``child.py cli`` and the
    child's totals and spans are merged into the tracer.
    """
    seconds = rss = import_s = 0.0
    problems, digests, changed = [], [], []
    for name, args in gate.CLI_COMMANDS:
        argv = list(args) + ["--seed", str(seed)]
        if tracer is None:
            child = run_child([sys.executable, "-m", "kodaira.cli"] + argv)
        else:
            trace_file = os.path.join(OUT, "child-trace.json")
            child = run_child([sys.executable, os.path.join(HERE, "child.py"),
                               "cli", trace_file, "--"] + argv)
            if child["returncode"] == 0:
                with open(trace_file) as fh:
                    trace = json.load(fh)
                os.remove(trace_file)
                tracer.absorb(trace["totals"], trace["spans"])
                import_s += trace["import_s"]
        seconds += child["seconds"]
        rss = max(rss, child["rss_mb"])
        digests.append(sha256(child["stdout"]))
        if digests[-1] != gate.CLI_DIGESTS[name]:
            changed.append(name)
        found = gate.check_cli_output(name, child["returncode"], child["stdout"])
        if found and child["stderr"]:
            found.append(child["stderr"].strip().splitlines()[-1])
        problems += found
    return {"seconds": seconds, "digest": sha256("".join(digests)),
            "digest_changed": changed, "problems": problems,
            "checked": gate.CLI_CLAIMS_PER_OP if not problems else 0,
            "escalations": 0, "rss_mb": rss, "import_s": import_s}


def run_op(spec: dict, seed: int, tracer=None) -> dict:
    start = perf_counter()
    try:
        if spec["kind"] == "cli":
            return cli_op(spec, seed, tracer)
        if tracer is None:
            return verify_op(spec, seed)
        tracer.install()
        try:
            return verify_op(spec, seed)
        finally:
            tracer.uninstall()
    except Exception as exc:  # a crashing op is a failed op; the run goes on
        return {"seconds": perf_counter() - start, "digest": "",
                "problems": [f"raised {exc!r}"], "checked": 0, "escalations": 0}


def warm_up(spec: dict, seed: int):
    """Fill byte-code and numeric caches before timing."""
    setup_once(spec)
    if spec["kind"] == "verify":
        from kodaira import verify_claim

        verify_claim(spec["lam"], r=3, samples=1, seed=seed)


# -- the measured loop ---------------------------------------------------------------


def closed_loop(spec: dict, seed: int, seconds: float, tracer=None) -> tuple:
    """Ops (untraced, and traced when a tracer is given) until the deadline."""
    plain, traced = [], []
    start = perf_counter()
    k = 0
    while True:
        op_seed = 1000 * seed + k
        plain.append(dict(run_op(spec, op_seed), seed=op_seed))
        if tracer is not None:
            tracer.op_id = k
            traced.append(dict(run_op(spec, op_seed, tracer), seed=op_seed))
        k += 1
        if perf_counter() - start >= seconds:
            return plain, traced


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def end_to_end(spec: dict, ops: list, setup_s: list) -> dict:
    op_times = [op["seconds"] for op in ops]
    if spec["kind"] == "cli":
        rss = max(op.get("rss_mb", 0.0) for op in ops)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "op_s.p50": statistics.median(op_times),
        "checks_per_s": sum(op["checked"] for op in ops) / sum(op_times),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": rss,
    }


def inclusive_seconds(spans: list) -> dict:
    """Per name, the time of spans that have no ancestor of the same name."""
    by_id = {s[0]: s for s in spans}
    totals = {}
    for span_id, name, start, end, parent, _ in spans:
        while parent is not None and by_id[parent][1] != name:
            parent = by_id[parent][4]
        if parent is None:
            totals[name] = totals.get(name, 0.0) + (end - start)
    return totals


def layer_metrics(tracer, plain: list, traced: list) -> dict:
    n = len(traced)
    metrics = {}
    for name in LAYER_SPANS:
        metrics[f"{name}.calls"] = tracer.calls.get(name, 0) / n
        metrics[f"{name}.self_s"] = tracer.self_s.get(name, 0.0) / n
    members = tracer.calls.get("config_curve.contains", 0)
    metrics["genus2.contains.per_member"] = (
        tracer.calls.get("genus2.contains", 0) / members if members else 0.0)
    draws = tracer.calls.get("config_curve.sample_genus2_point", 0)
    metrics["config_curve.sample_genus2_point.accept_ratio"] = (
        tracer.accepted.get("config_curve.sample_genus2_point", 0) / draws if draws else 0.0)
    metrics["verifier.escalations"] = sum(op["escalations"] for op in traced) / n
    metrics["cli.import_s"] = sum(op.get("import_s", 0.0) for op in traced) / n
    metrics["bench.trace_overhead"] = (
        statistics.median(op["seconds"] for op in traced)
        / statistics.median(op["seconds"] for op in plain) - 1)
    return metrics


def layer_table(tracer, traced: list) -> list:
    """Rows (name, calls/op, self s/op, self share, inclusive share)."""
    n = len(traced)
    op_s = sum(op["seconds"] for op in traced) / n
    inclusive = inclusive_seconds(tracer.spans)
    rows = [(name, tracer.calls[name] / n, tracer.self_s[name] / n,
             tracer.self_s[name] / n / op_s,
             inclusive.get(name, tracer.self_s[name]) / n / op_s)
            for name in sorted(tracer.calls) if tracer.calls[name]]
    imports = sum(op.get("import_s", 0.0) for op in traced) / n
    if imports:
        rows.append(("cli.import", len(gate.CLI_COMMANDS), imports, imports / op_s, imports / op_s))
    covered = sum(row[2] for row in rows)
    rows.append(("(outside wrapped calls)", 0, op_s - covered,
                 1 - covered / op_s, 1 - covered / op_s))
    return rows


# -- reporting ---------------------------------------------------------------------------


def print_ops(ops: list, label: str):
    for i, op in enumerate(ops):
        state = "ok" if not op["problems"] else "FAILED " + "; ".join(op["problems"])
        if op.get("digest_changed"):
            state += " (output differs from the reference digest: "
            state += ", ".join(op["digest_changed"]) + ")"
        print(f"  {label} op {i} seed {op['seed']}: {op['seconds']:.3f} s  "
              f"sha256 {op['digest'][:16]}  {state}")


def print_layer_table(rows: list):
    print(f"  {'span':44} {'calls/op':>10} {'self s/op':>10} {'self':>7} {'incl':>7}")
    for name, calls, self_s, share, incl in rows:
        print(f"  {name:44} {calls:10.1f} {self_s:10.4f} {share:7.1%} {incl:7.1%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "kodaira", "__init__.py")):
        print(f"error: no kodaira sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import mpmath

    if mpmath.libmp.BACKEND != "python":
        print(f"error: mpmath backend {mpmath.libmp.BACKEND!r}; the benchmark "
              "is defined on the pure-Python backend", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    spec = WORKLOADS[args.workload]
    stamp = stamps(args.seed)
    print(f"kodaira benchmark: workload {args.workload}, trace {args.trace}")
    print("  " + "  ".join(f"{k}={v}" for k, v in stamp.items()))

    warm_up(spec, args.seed)
    tracer = None
    setup_s = []
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    else:
        setup_s = [setup_once(spec) for _ in range(SETUP_REPEATS)]
    plain, traced = closed_loop(spec, args.seed, args.seconds, tracer)
    ops = plain + traced
    failed = sum(1 for op in ops if op["problems"])

    print_ops(plain, "untraced")
    print_ops(traced, "traced")
    q1, q2, q3 = quartiles([op["seconds"] for op in plain])
    print(f"  {len(plain)} untraced ops; seconds per op p25 {q1:.3f} p50 {q2:.3f} p75 {q3:.3f}")
    print(f"  fail_ratio {failed}/{len(ops)} = {failed / len(ops):.3f}")

    record = {"workload": args.workload, "trace": args.trace, "stamps": stamp,
              "ops": ops, "setup_s": setup_s,
              "fail_ratio": failed / len(ops)}
    if args.trace:
        metrics = layer_metrics(tracer, plain, traced)
        units = dict(per_layer_metrics())
        rows = layer_table(tracer, traced)
        print(f"  layers, per traced op (tracing overhead "
              f"{metrics['bench.trace_overhead']:+.1%}):")
        print_layer_table(rows)
        spans_file = os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.jsonl")
        tracer.write_spans(spans_file)
        print(f"  {len(tracer.spans)} spans written to {os.path.relpath(spans_file, ROOT)}")
        record["layer_table"] = rows
    else:
        metrics = end_to_end(spec, plain, setup_s)
        units = dict(END_TO_END)
        print(f"  setup seconds: {', '.join(f'{t:.3f}' for t in setup_s)}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    record["metrics"] = metrics
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
