"""Correctness gate for every benchmark op.

Each check returns a list of problems; an op with any problem counts as
failed.  The expectations are the paper's claims, computed here
independently of the report being checked.
"""

from __future__ import annotations

import json
from fractions import Fraction

# One exact-cli op: the four commands, in order, as users run them.
CLI_COMMANDS = (
    ("invariants", ("invariants", "--r", "8", "--gamma", "2")),
    ("slope-table", ("slope-table", "--r-min", "8", "--r-max", "40")),
    ("k-squared", ("k-squared", "--symbolic")),
    ("find-points", ("find-points", "--r", "12")),
)
# sha256 of each command's standard output when this benchmark was defined.
# Output that differs is reported, not failed: a refactor meant to keep the
# CLI bytes identical shows here that it did.
CLI_DIGESTS = {
    "invariants": "9097d3c1034928c5cb0ad0837f9e4ed3856b927859d7f58c0ebf5e62e546a100",
    "slope-table": "c3a76bb45b9e94399be0b22847fe88bc635bb584908fbb693609367e840605f7",
    "k-squared": "986b2d31bde81b5f579df8099900b119b40bc5c18aa6818578deeed9007ebeb3",
    "find-points": "a2fd67a980ee23be3cbee2f17cc38be9b9fc9dc9d6ec4de22567067d3c71030e",
}
SLOPE_TABLE_RS = list(range(8, 41, 2))
CERTIFICATE_R = 12
# Claims one exact-cli op confirms against an independent oracle: four
# invariants, one slope per row, the K^2 identity, one certified offset
# per certificate point.
CLI_CLAIMS_PER_OP = 4 + len(SLOPE_TABLE_RS) + 1 + (CERTIFICATE_R - 1)

VERIFY_CHECKS = ("discriminant", "genericity", "membership_and_rank",
                 "branch_count", "projection_degrees", "genus")


def check_verify_report(report_text: str, r: int, samples: int) -> list:
    """Problems with one ``verify_claim`` report, given as its JSON text."""
    try:
        report = json.loads(report_text)
        return _verify_problems(report, r, samples)
    except Exception as exc:  # any output the checks cannot read fails the op
        return [f"malformed report: {exc!r}"]


def _verify_problems(report: dict, r: int, samples: int) -> list:
    problems = []
    if report["status"] != "pass":
        problems.append(f"status {report['status']!r}")
    if report["escalations"]:
        problems.append(f"{len(report['escalations'])} escalations")
    tallies = report["tallies"]
    if tuple(tallies) != VERIFY_CHECKS:
        problems.append(f"checks {list(tallies)}")
        return problems
    for name, tally in tallies.items():
        if tally["failed"] or tally["passed"] != tally["checked"]:
            problems.append(f"{name}: {tally['failed']} failed")
    half = 2 ** (r - 1)
    if tallies["membership_and_rank"]["checked"] != samples * half:
        problems.append(f"membership_and_rank checked "
                        f"{tallies['membership_and_rank']['checked']}, want {samples * half}")
    branch = tallies["branch_count"]
    if branch["info"]["found"] != 2 * half:
        problems.append(f"branch points {branch['info']['found']}, want {2 * half}")
    if branch["info"]["split"] != {"+1": half, "-1": half}:
        problems.append(f"branch split {branch['info']['split']}")
    if branch["checked"] != 2 + 2 * half:
        problems.append(f"branch_count checked {branch['checked']}, want {2 + 2 * half}")
    genus = tallies["genus"]["info"]
    if not genus["recursion"] == genus["closed_form"] == r * half + 1:
        problems.append(f"genus {genus}, want {r * half + 1}")
    return problems


def verify_checked(report_text: str) -> int:
    """Total ``checked`` over all tallies of a report."""
    return sum(t["checked"] for t in json.loads(report_text)["tallies"].values())


def check_cli_output(command: str, returncode: int, stdout: bytes) -> list:
    """Problems with one CLI command's exit code and standard output."""
    if returncode != 0:
        return [f"{command}: exit code {returncode}"]
    try:
        return [f"{command}: {p}" for p in _CLI_CHECKS[command](stdout.decode())]
    except Exception as exc:  # any output the checks cannot read fails the op
        return [f"{command}: malformed output: {exc!r}"]


def _check_invariants(text: str) -> list:
    report = json.loads(text)
    want = {"euler": 24, "k_squared": 51, "upsilon": Fraction(17, 8), "tau": 1}
    return [f"{key} {report[key]}, want {value}" for key, value in want.items()
            if Fraction(report[key]) != value]


def _check_slope_table(text: str) -> list:
    from kodaira.invariants import slope_closed_form

    rows = json.loads(text)["rows"]
    if [row["r"] for row in rows] != SLOPE_TABLE_RS:
        return [f"rows for r={[row['r'] for row in rows]}"]
    return [f"slope({row['r']}) = {row['upsilon']}" for row in rows
            if Fraction(row["upsilon"]) != slope_closed_form(row["r"])]


def _check_k_squared(text: str) -> list:
    import sympy

    from kodaira import k_squared_closed_form
    from kodaira.scalars import SYM_GAMMA, SYM_R

    value = json.loads(text)["k_squared"]
    parsed = sympy.parse_expr(value, local_dict={"gamma": SYM_GAMMA, "r": SYM_R})
    if sympy.cancel(parsed - k_squared_closed_form().expr) != 0:
        return [f"K^2 = {value}, want {k_squared_closed_form()}"]
    return []


def _check_find_points(text: str) -> list:
    from kodaira import GenericityCertificate, verify_certificate

    cert = GenericityCertificate.from_json(text)
    problems = []
    if cert.r != CERTIFICATE_R or len(cert.points) != CERTIFICATE_R - 1:
        problems.append(f"certificate r={cert.r} with {len(cert.points)} points")
    if not (cert.all_passed and verify_certificate(cert)):
        problems.append("certificate does not verify")
    return problems


_CLI_CHECKS = {
    "invariants": _check_invariants,
    "slope-table": _check_slope_table,
    "k-squared": _check_k_squared,
    "find-points": _check_find_points,
}
