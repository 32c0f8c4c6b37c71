"""Command-line front end: every pipeline stage, machine-readable output.

Subcommands and the flags each one reads, besides ``--output``
--------------------------------------------------------------
curve-info          --lambda --precision --tol --format {json,text}
find-points         --r --lambda --precision --tol --bound (--seed)
verify-config-curve --r --samples --dump-enumeration --lambda --precision --tol --seed
genus               --r --format {json,text}
k-squared           --r --gamma --symbolic --format {json,text} (--seed)
invariants          --r --gamma --deg-cover (--seed)
slope-table         --r-min --r-max --format {json,csv,text} (--seed)

``(--seed)``: accepted and ignored, as these draw no samples; ``perfbench/run.py`` passes it.

Exit codes: 0 success, 2 usage error (bad flags, invalid or singular
lambda, odd r where even is required), 3 verification failure,
4 precision exhaustion or an ambiguous coincidence outside the
verifier (such as a lambda inside the guard band of a singular value).
Reports are deterministic: the same configuration produces
byte-identical JSON.

Each handler imports the layer it runs, and the module itself imports
only the standard library, so a fresh interpreter loads just that
layer: ``invariants``, ``slope-table`` and ``k-squared`` load the exact
``Fraction`` layer (``symbolic``, ``intersection``, ``invariants``) and
no mpmath; ``genus`` loads no module beyond the package root and no
mpmath; ``curve-info`` and ``find-points`` load mpmath, ``scalars``,
``elliptic`` and ``genus2`` or ``generic_points``; ``verify-config-curve``
loads the verifier.  A command that fails also loads the exception classes
``main`` catches.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFICATION_FAILED = 3
EXIT_PRECISION_EXHAUSTED = 4


def _positive(convert, what: str):
    """An argparse ``type=``: ``convert(text)``, which must be finite and positive."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"expected a {what}, got {text!r}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    from . import DEFAULT_PREC_BITS, DEFAULT_TOL

    parser = argparse.ArgumentParser(
        prog="kodaira",
        description="construct the fibred-surface family and verify its invariants")
    sub = parser.add_subparsers(dest="command", required=True)
    unused_seed = "ignored: this command draws no samples"

    def command(name: str, help: str, *required, formats=(), curve=False, seed=None):
        """A subcommand with ``--output``, the int flags ``required`` and the flags asked for."""
        p = sub.add_parser(name, help=help)
        for flag in required:
            p.add_argument(flag, type=int, required=True)
        if curve:
            p.add_argument("--lambda", dest="lam", default="1/1",
                           help="curve parameter: 'num/den' or 're,im' (default 1/1)")
            p.add_argument("--precision", type=_positive(int, "positive integer"),
                           default=DEFAULT_PREC_BITS,
                           help="bits of precision (default %(default)s)")
            p.add_argument("--tol", type=_positive(float, "positive finite number"),
                           default=DEFAULT_TOL, help="tolerance of approximate equality")
        if seed:
            p.add_argument("--seed", type=int, default=0, help=seed)
        if formats:
            p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--output", default=None, help="write to file instead of stdout")
        return p

    command("curve-info", "discriminant, j-invariants, cover data",
            formats=("json", "text"), curve=True)

    p = command("find-points", "search generic offsets, emit certificate", "--r",
                curve=True, seed=unused_seed)
    p.add_argument("--bound", type=int, default=30,
                   help="height bound for the rational point search")

    p = command("verify-config-curve", "run the verification pipeline", "--r",
                curve=True, seed="sampling seed")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--dump-enumeration", default=None,
                   help="also write the branch points the run checked, as CSV")

    command("genus", "tower genus: recursion and closed form", "--r", formats=("json", "text"))

    p = command("k-squared", "canonical self-intersection derivation",
                formats=("json", "text"), seed=unused_seed)
    p.add_argument("--gamma", type=int, default=None)
    p.add_argument("--symbolic", action="store_true")
    p.add_argument("--r", type=int, default=None)

    p = command("invariants", "full invariant report", "--r", seed=unused_seed)
    p.add_argument("--gamma", type=int, default=None)
    p.add_argument("--deg-cover", type=int, default=None)

    command("slope-table", "exact slope values over a range", "--r-min", "--r-max",
            formats=("json", "csv", "text"), seed=unused_seed)
    return parser


def _emit(args, text: str):
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_report(command: str, payload: dict) -> str:
    return json.dumps({"schema": "1", "command": command, **payload}, indent=2) + "\n"


def _cmd_curve_info(args) -> int:
    from .elliptic import point_to_json
    from .genus2 import GenusTwoCurve
    from .scalars import lambda_at, parse_lambda_spec, scalar_to_json

    spec = parse_lambda_spec(args.lam)
    lam = lambda_at(spec, args.precision, args.tol)
    x_curve = GenusTwoCurve(lam, args.precision, args.tol)
    curve = x_curve.elliptic_quotient()
    s_plus = x_curve.branch_point(+1)
    s_minus = x_curve.branch_point(-1)
    delta = curve.delta()
    payload = {
        "lambda": scalar_to_json(lam),
        "discriminant": scalar_to_json(curve.discriminant()),
        "j_ratio": scalar_to_json(curve.j_ratio()),
        "j_standard": scalar_to_json(curve.j_standard()),
        "branch_point_plus": point_to_json(s_plus),
        "branch_point_minus": point_to_json(s_minus),
        "branch_image_difference": {
            "x": scalar_to_json(delta.x), "y": scalar_to_json(delta.y)},
    }
    if args.format == "text":
        lines = [f"lambda = {lam!r}",
                 f"discriminant = {curve.discriminant()!r}",
                 f"j (bare ratio) = {curve.j_ratio()!r}",
                 f"j (standard, x 1728*4) = {curve.j_standard()!r}",
                 f"cover branch points: {s_plus!r}, {s_minus!r}",
                 f"branch image difference: {delta!r}"]
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, _json_report("curve-info", payload))
    return EXIT_OK


def _cmd_find_points(args) -> int:
    from .elliptic import EllipticCurve
    from .generic_points import find_generic_points
    from .scalars import lambda_at, parse_lambda_spec

    spec = parse_lambda_spec(args.lam)
    lam = lambda_at(spec, args.precision, args.tol)
    curve = EllipticCurve(lam, args.precision, args.tol)
    cert = find_generic_points(curve, args.r, bound=args.bound)
    _emit(args, cert.to_json())
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .config_curve import ConfigurationCurve
    from .scalars import parse_lambda_spec
    from .verifier import verify_claim

    spec = parse_lambda_spec(args.lam)
    run = verify_claim(spec, args.r, samples=args.samples, seed=args.seed,
                       prec=args.precision, tol=args.tol)
    if args.dump_enumeration:
        with open(args.dump_enumeration, "w") as fh:
            fh.writelines(ConfigurationCurve.enumeration_csv_lines(run.branch_points))
    _emit(args, run.to_json())
    return EXIT_OK if run.passed else EXIT_VERIFICATION_FAILED


def _cmd_genus(args) -> int:
    from . import genus

    rec, closed = genus(args.r)
    payload = {"r": args.r, "genus_by_recursion": rec, "genus_closed_form": closed}
    if args.format == "text":
        _emit(args, f"genus(r={args.r}): recursion {rec}, closed form {closed}\n")
    else:
        _emit(args, _json_report("genus", payload))
    return EXIT_OK


def _cmd_k_squared(args) -> int:
    from .intersection import k_squared

    gamma = None if args.symbolic else args.gamma
    derivation = k_squared(r=args.r, gamma=gamma)
    payload = {
        "r": args.r if args.r is not None else "symbolic",
        "gamma": gamma if gamma is not None else "symbolic",
        "k_squared": str(derivation.value),
        "raw_expansion": str(derivation.raw_expansion),
        "adjunction": {k: str(v) for k, v in
                       sorted(derivation.adjunction.substitutions.items())},
        "transcript": derivation.transcript.to_json_dict(),
    }
    if args.format == "text":
        _emit(args, derivation.transcript.to_text()
              + f"K^2 = {derivation.value}\n")
    else:
        _emit(args, _json_report("k-squared", payload))
    return EXIT_OK


def _cmd_invariants(args) -> int:
    from .invariants import invariant_report

    report = invariant_report(args.r, gamma=args.gamma, deg_cover=args.deg_cover)
    _emit(args, report.to_json())
    return EXIT_OK


def _cmd_slope_table(args) -> int:
    from . import format_rational
    from .invariants import slope_table, slope_table_csv

    if args.format == "csv":
        _emit(args, slope_table_csv(args.r_min, args.r_max))
        return EXIT_OK
    rows = [{"r": r, "g": g, "upsilon": format_rational(u)}
            for r, g, u in slope_table(args.r_min, args.r_max)]
    if args.format == "text":
        lines = [f"r={row['r']:>3}  g={row['g']:>3}  slope={row['upsilon']}"
                 for row in rows]
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, _json_report("slope-table", {"rows": rows}))
    return EXIT_OK


_COMMANDS = {
    "curve-info": _cmd_curve_info,
    "find-points": _cmd_find_points,
    "verify-config-curve": _cmd_verify,
    "genus": _cmd_genus,
    "k-squared": _cmd_k_squared,
    "invariants": _cmd_invariants,
    "slope-table": _cmd_slope_table,
}


# An ``except`` clause evaluates its classes only while an exception
# propagates, so a command that succeeds never loads the numeric layer here.
def _usage_errors() -> tuple:
    from .elliptic import SingularCurveError
    from .generic_points import SearchExhausted

    return ValueError, SingularCurveError, SearchExhausted


def _precision_errors() -> tuple:
    from .scalars import AmbiguousCoincidenceError
    from .verifier import PrecisionExhausted

    return PrecisionExhausted, AmbiguousCoincidenceError


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _usage_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _precision_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECISION_EXHAUSTED


if __name__ == "__main__":
    sys.exit(main())
