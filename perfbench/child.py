"""Child processes of the benchmark, each a fresh interpreter.

    python3 perfbench/child.py setup LAMBDA R
        Import kodaira and build the workload's GenusTwoCurve, genericity
        certificate and ConfigurationCurve through the public API.
    python3 perfbench/child.py cli TRACE_FILE -- ARGS...
        Run ``kodaira.cli.main(ARGS)`` with the layer tracer installed and
        write the import time, totals and spans to TRACE_FILE as JSON.

Both expect ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def setup(lam_text: str, r: int) -> int:
    import kodaira
    from kodaira.verifier import lambda_at, parse_lambda_spec

    spec = parse_lambda_spec(lam_text)
    curve = kodaira.GenusTwoCurve(lambda_at(spec, 256, 1e-30))
    cert = kodaira.find_generic_points(curve.elliptic_quotient(), r)
    config = kodaira.ConfigurationCurve(curve, cert.offsets())
    if not (cert.all_passed and config.r == r):
        print(f"setup built an invalid configuration for r={r}", file=sys.stderr)
        return 1
    return 0


def traced_cli(trace_file: str, argv: list) -> int:
    start = perf_counter()
    import kodaira.cli

    import_s = perf_counter() - start
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = kodaira.cli.main(argv)
    finally:
        tracer.uninstall()
    with open(trace_file, "w") as fh:
        json.dump({"import_s": import_s, "totals": tracer.totals(),
                   "spans": tracer.spans}, fh)
    return code


def main(argv: list) -> int:
    if argv[:1] == ["setup"] and len(argv) == 3:
        return setup(argv[1], int(argv[2]))
    if argv[:1] == ["cli"] and len(argv) >= 3 and argv[2] == "--":
        return traced_cli(argv[1], argv[3:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
