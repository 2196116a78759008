"""Command-line surface: analyze, simulate, scan, conjugacy.

Reports echo every tolerance and seed they used, so each number in the
output is reproducible from the report alone.  Output is byte-identical
for identical (input file, flags, seed).

Exit codes: 0 success, 1 usage error or any qpd error, bad argument
values included (a one-line message on stderr, never a traceback), 2
internal invariant violation (an analytic/numeric disagreement under
--verify --strict, or a conjugacy trial exceeding its budget).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .dynamics import (
    checked_seed,
    conjugacy_deviations,
    falsifications,
    qp_fixed_point,
    seeded_generator,
    simulate,
    verification_pass,
    write_trajectory_csv,
)
from .errors import (
    InvalidArgument,
    NoInteriorFixedPoint,
    NonFinite,
    NonPositiveState,
    OverflowGuard,
    QPDError,
    SchemaError,
    SingularMatrix,
)
from .scalar_map import (
    KIND_PERIOD3,
    KIND_SNAPBACK,
    threshold_scan,
    write_scan_csv,
)
from .systems import DEFAULT_SIGN_TOL, load_system
from .theorems import check_all_theorems
from .transform import (
    SINGULARITY_RTOL,
    QMTMatrix,
    canonical_lv,
    class_invariants,
    finite_class_invariants,
)

#: Relative budget of a conjugacy's one-step defect, whatever the number
#: of steps: a state's roundoff passes through one exp/log round trip
#: and one step of each map, and no orbit amplifies it.
CONJUGACY_STEP_BUDGET = 1e-7

#: Budget for the drift of the class invariants under a drawn QMT, per
#: unit of their largest entry, max|B A| or max|B lam|, where it exceeds 1.
CONJUGACY_DRIFT_BUDGET = 1e-9

#: Condition-estimate cap for randomly drawn transformation matrices.
CONJUGACY_MAX_CONDITION = 100.0

#: Context printed before the message of an error of these kinds.
_ERROR_CONTEXT = ((SchemaError, "invalid system definition: "),
                  (NonPositiveState, "bad initial condition: "))


class _Parser(argparse.ArgumentParser):
    """argparse parser that exits with status 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def _matrix(M):
    return np.asarray(M, dtype=float).tolist()


def build_analysis_report(system, tol=DEFAULT_SIGN_TOL, seed=0,
                          verify=False) -> dict:
    """Full classification report for one system, as a JSON-ready dict."""
    inv = class_invariants(system)
    report = {
        "tool": {"name": "qpd", "version": __version__},
        "system": system.to_dict(),
        "tolerances": {
            "sign_tol": tol,
            "singularity_rtol": SINGULARITY_RTOL,
        },
        "seeds": {"seed": checked_seed(seed)},
        "class_invariants": {
            "interaction": _matrix(inv.interaction),
            "growth": _matrix(inv.growth),
        },
    }
    try:
        lv, qmt = canonical_lv(system)
        report["canonical_lv"] = {
            "A_lv": _matrix(lv.A),
            "lambda_lv": _matrix(lv.lam),
            "C": _matrix(qmt.C),
            "condition_estimate": qmt.condition(),
        }
    except (SingularMatrix, NonFinite) as exc:
        report["canonical_lv"] = {"error": str(exc)}
    verdicts = check_all_theorems(system, tol)
    report["theorems"] = [v.to_dict() for v in verdicts]
    if verify:
        report["verify"] = _verification_block(system, verdicts, seed)
    return report


def _verification_block(system, verdicts, seed) -> dict:
    """Numerical cross-checks plus analytic/numeric disagreement flags."""
    block: dict = {}

    fixed_point = None
    try:
        fixed_point = qp_fixed_point(system)
        block["fixed_point"] = (
            None if fixed_point is None else fixed_point.tolist())
    except (SingularMatrix, NonFinite, NoInteriorFixedPoint,
            OverflowGuard) as exc:
        block["fixed_point"] = {"error": str(exc)}

    checks = verification_pass(system, fixed_point, seed)
    block["permanence"] = checks.permanence.to_dict()
    block["attractivity"] = (
        {"skipped": "no interior fixed point available as target"}
        if checks.attractivity is None else checks.attractivity.to_dict())
    block["largest_lyapunov"] = (
        checks.lyapunov if checks.lyapunov_error is None
        else {"error": checks.lyapunov_error})
    block["lyapunov_statistics"] = checks.lyapunov_statistics
    block["lyapunov_params"] = checks.lyapunov_params
    block["disagreements"], block["warnings"] = falsifications(verdicts,
                                                               checks)
    return block


def _strict_json(value):
    """The report with each non-finite float spelled as the text report
    spells it, the string "inf", "-inf" or "nan"."""
    if isinstance(value, float) and not math.isfinite(value):
        return f"{value}"
    if isinstance(value, dict):
        return {key: _strict_json(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    return value


def _fmt(v) -> str:
    return "undefined" if v is None else f"{v:.12g}"


def _fmt_matrix(M, indent="    ") -> str:
    rows = np.atleast_2d(np.asarray(M, dtype=float))
    return "\n".join(
        indent + "[" + "  ".join(_fmt(v) for v in row) + "]" for row in rows
    )


def render_report(report: dict) -> str:
    """Human-readable rendering of an analysis report."""
    lines = []
    sysd = report["system"]
    lines.append(f"qpd {report['tool']['version']} analysis")
    lines.append(f"system: {sysd['name'] or '(unnamed)'}  (n = {sysd['n']})")
    lines.append(f"sign tolerance: {report['tolerances']['sign_tol']:g}   "
                 f"seed: {report['seeds']['seed']}")
    lines.append("")
    lines.append("class invariants:")
    lines.append("  interaction (B A):")
    lines.append(_fmt_matrix(report["class_invariants"]["interaction"]))
    lines.append("  growth (B lam):")
    lines.append(_fmt_matrix([report["class_invariants"]["growth"]]))
    canon = report["canonical_lv"]
    if "error" in canon:
        lines.append(f"canonical LV form: unavailable ({canon['error']})")
    else:
        lines.append("canonical LV form: A_lv, lambda_lv equal the invariants; "
                     f"condition estimate of C: {_fmt(canon['condition_estimate'])}")
    lines.append("")
    lines.append("theorem battery:")
    for verdict in report["theorems"]:
        status = "applicable    " if verdict["applicable"] else "not applicable"
        lines.append(f"  {verdict['theorem']:>3}  {status}  {verdict['conclusion']}")
        if not verdict["applicable"]:
            failed = [h["hypothesis"] for h in verdict["hypotheses"]
                      if not h["pass"]]
            for label in failed:
                lines.append(f"        failed: {label}")
        for warning in verdict["boundary_warnings"]:
            lines.append(f"        boundary: {warning}")
        for note in verdict["notes"]:
            lines.append(f"        note: {note}")
    if "verify" in report:
        block = report["verify"]
        lines.append("")
        lines.append("numerical cross-checks:")
        fp = block["fixed_point"]
        if isinstance(fp, list):
            lines.append("  fixed point: (" + ", ".join(_fmt(v) for v in fp) + ")")
        elif fp is None:
            lines.append("  fixed point: none in the interior")
        else:
            lines.append(f"  fixed point: {fp['error']}")
        perm, stats = block["permanence"], block["permanence"]["statistics"]
        tail = (f"[{_fmt(stats['tail_min'])}, {_fmt(stats['tail_max'])}]"
                if stats["tail_min"] is not None
                else "undefined (every orbit lost before the tail)")
        lines.append(f"  permanence probe: {'pass' if perm['pass'] else 'FAIL'} "
                     f"(tail range {tail}, {stats['guard_terminations']} "
                     "guard terminations)")
        att = block["attractivity"]
        if "skipped" in att:
            lines.append(f"  attractivity probe: skipped ({att['skipped']})")
        else:
            dist = att["statistics"]["max_final_distance"]
            dist_text = _fmt(dist) if dist is not None else "undefined (orbit lost)"
            lines.append(
                f"  attractivity probe: {'pass' if att['pass'] else 'FAIL'} "
                f"(max final distance {dist_text}, "
                f"tol {att['params']['tol']:g})")
        lyap, spread = block["largest_lyapunov"], block["lyapunov_statistics"]
        if isinstance(lyap, float):
            lines.append(
                f"  largest Lyapunov estimate: mean {_fmt(lyap)}, sd "
                f"{_fmt(spread['sd'])}, [min, max] = [{_fmt(spread['min'])}, "
                f"{_fmt(spread['max'])}] over {spread['orbits']} orbits")
        else:
            lines.append(f"  largest Lyapunov estimate: {lyap['error']}")
        for warning in block["warnings"]:
            lines.append(f"  warning: {warning}")
        if block["disagreements"]:
            lines.append("")
            for msg in block["disagreements"]:
                lines.append(f"  *** DISAGREEMENT: {msg}")
        else:
            lines.append("  analytic and numerical verdicts agree")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    system = load_system(args.path)
    report = build_analysis_report(system, tol=args.tol, seed=args.seed,
                                   verify=args.verify)
    print(render_report(report))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(_strict_json(report), fh, indent=2, allow_nan=False)
            fh.write("\n")
    if args.strict and args.verify and report["verify"]["disagreements"]:
        print("exiting with status 2: analytic/numeric disagreement",
              file=sys.stderr)
        return 2
    return 0


def cmd_simulate(args) -> int:
    system = load_system(args.path)
    try:
        x0 = [float(v) for v in args.x0.split(",")]
    except ValueError:
        raise InvalidArgument(f"could not parse --x0 {args.x0!r} as "
                              "comma-separated numbers") from None
    if args.steps < 1:
        raise InvalidArgument("--steps must be at least 1")
    traj = simulate(system, x0, args.steps)
    write_trajectory_csv(traj, args.out)
    final = ", ".join(_fmt(v) for v in traj.final)
    print(f"simulated {traj.steps_completed} of {args.steps} steps")
    print(f"final state: ({final})")
    if traj.terminated_early is None:
        print("guard events: none")
    else:
        t, reason = traj.terminated_early
        print(f"guard events: {reason} guard at step {t}")
    print(f"trajectory written to {args.out}")
    return 0


def cmd_scan(args) -> int:
    result = threshold_scan(args.kind, args.rho_min, args.rho_max, args.step)
    if args.out:
        write_scan_csv(result, args.out)
    print(json.dumps(result.summary()))
    return 0


def _draw_qmt(rng, n, trial) -> tuple[QMTMatrix, int]:
    """A random transformation of condition at most
    CONJUGACY_MAX_CONDITION and the number of candidates rejected on the
    way, each reported as a "regenerated" line."""
    rejected = 0
    while True:
        candidate = rng.uniform(-1.0, 1.0, size=(n, n))
        try:
            qmt = QMTMatrix.from_matrix(candidate)
        except SingularMatrix:
            rejected += 1
            print(f"trial {trial}: regenerated a singular candidate C")
            continue
        condition = qmt.condition()
        if condition <= CONJUGACY_MAX_CONDITION:
            return qmt, rejected
        rejected += 1
        print(f"trial {trial}: regenerated a near-singular candidate C "
              f"(condition {condition:.3g})")


def cmd_conjugacy(args) -> int:
    system = load_system(args.path)
    if args.trials < 0:
        raise InvalidArgument("--trials must be nonnegative")
    if args.steps < 1:
        raise InvalidArgument("--steps must be at least 1")
    rng = seeded_generator(args.seed)
    if args.trials == 0:
        print("warning: --trials 0 requested; vacuous pass")
        return 0
    # no drift is measured from an overflow
    inv = finite_class_invariants(system)
    drift_budget = CONJUGACY_DRIFT_BUDGET * max(
        1.0, np.max(np.abs(inv.interaction)), np.max(np.abs(inv.growth)))
    rejected = 0
    qmts, X0 = [], []
    for trial in range(args.trials):
        qmt, regenerated = _draw_qmt(rng, system.n, trial)
        rejected += regenerated
        qmts.append(qmt)
        X0.append(np.exp(rng.uniform(np.log(0.5), np.log(2.0),
                                     size=system.n)))
    defects, drifts, guards = conjugacy_deviations(system, qmts, X0,
                                                   args.steps)
    failures = []
    for trial, (drift, defect) in enumerate(zip(drifts, defects)):
        if drift > drift_budget:
            failures.append(f"trial {trial}: invariant drift {drift:.3e}")
        if trial in guards:
            failures.append(f"trial {trial}: {guards[trial]}")
        elif defect > CONJUGACY_STEP_BUDGET:
            failures.append(f"trial {trial}: one-step defect {defect:.3e} "
                            f"exceeds budget {CONJUGACY_STEP_BUDGET:.3e}")
    measured = [float(d) for t, d in enumerate(defects) if t not in guards]
    print(f"conjugacy check: {args.trials} trials, {args.steps} steps, "
          f"seed {args.seed}")
    print(f"rejected candidates: {rejected}")
    worst = f"{max(measured):.3e}" if measured else "undefined"
    print(f"max one-step defect: {worst} "
          f"(budget {CONJUGACY_STEP_BUDGET:.3e})")
    print(f"max invariant drift: {max(drifts):.3e} "
          f"(budget {drift_budget:g})")
    for failure in failures:
        print(f"*** {failure}")
    if failures:
        return 2
    print("all trials within budget")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = _Parser(prog="qpd",
                     description="quasipolynomial discrete-system analysis")
    parser.add_argument("--version", action="version",
                        version=f"qpd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("analyze", help="classify a system and cross-check it")
    p.add_argument("path", help="system-definition JSON file")
    p.add_argument("--verify", action="store_true",
                   help="also run the numerical cross-checks")
    p.add_argument("--strict", action="store_true",
                   help="exit 2 on analytic/numeric disagreement")
    p.add_argument("--json", metavar="OUT",
                   help="also write the full report as JSON")
    p.add_argument("--tol", type=float, default=DEFAULT_SIGN_TOL,
                   help="sign-classification tolerance")
    p.add_argument("--seed", type=int, default=0, help="ensemble seed")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="iterate the map and write a CSV")
    p.add_argument("path")
    p.add_argument("--x0", required=True,
                   help="comma-separated initial state, e.g. 1,1")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", required=True, help="trajectory CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("scan", help="scan the scalar map for a chaos threshold")
    p.add_argument("--kind", required=True,
                   choices=[KIND_PERIOD3, KIND_SNAPBACK])
    p.add_argument("--rho-min", type=float, required=True)
    p.add_argument("--rho-max", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--out", help="per-grid-point CSV path")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("conjugacy",
                       help="property-test conjugacy under random transformations")
    p.add_argument("path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--steps", type=int, default=50)
    p.set_defaults(func=cmd_conjugacy)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QPDError as exc:
        context = next((text for kind, text in _ERROR_CONTEXT
                        if isinstance(exc, kind)), "")
        print(f"error: {context}{exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
