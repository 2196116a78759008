"""Command-line surface: analyze, simulate, scan, conjugacy.

Reports echo every tolerance and seed they used, so each number in the
output is reproducible from the report alone.  Output is byte-identical
for identical (input file, flags, seed).

Exit codes: 0 success, 1 usage error or any qpd error, bad argument
values included (a one-line message on stderr, never a traceback), 2
internal invariant violation (an analytic/numeric disagreement under
--strict, or a conjugacy trial exceeding its budget).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__, systems
from .dynamics import (
    checked_counts,
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
    invertibility,
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
    checked_counts(seed=(seed, 0))
    inv = class_invariants(system)
    report = {
        "tool": {"name": "qpd", "version": __version__},
        "system": system.to_dict(),
        "tolerances": {
            "sign_tol": tol,
            "singularity_rtol": SINGULARITY_RTOL,
        },
        "seeds": {"seed": seed},
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


def _json_text(value, indent="\n") -> str:
    """The JSON text of a report, in one pass: the bytes of ``json.dumps(
    value, indent=2, allow_nan=False)`` once each non-finite float is
    spelled as the text report spells it, the string "inf", "-inf" or
    "nan".  ``indent`` is the newline and indentation of the value's own
    line.  ``json.dump`` with an indent runs the pure-Python encoder,
    and writes piece by piece; this one joins the text and writes it
    once.  A value ``json`` cannot encode, or a key that is not a str,
    raises TypeError."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return (float.__repr__(value) if math.isfinite(value)
                else f'"{value}"')
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return ("[" + inner + ("," + inner).join(
            [_json_text(v, inner) for v in value]) + indent + "]")
    if isinstance(value, dict):
        if not value:
            return "{}"
        return ("{" + inner + ("," + inner).join(
            [encode_basestring_ascii(key) + ": " + _json_text(v, inner)
             for key, v in value.items()]) + indent + "}")
    raise TypeError(f"Object of type {type(value).__name__} is not JSON "
                    "serializable")


def _fmt(v) -> str:
    return "undefined" if v is None else f"{v:.12g}"


def _fmt_matrix(M) -> str:
    rows = np.atleast_2d(np.asarray(M, dtype=float))
    return "\n".join(
        "    [" + "  ".join(_fmt(v) for v in row) + "]" for row in rows
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
                                   verify=args.verify or args.strict)
    print(render_report(report))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(_json_text(report) + "\n")
    if args.strict and report["verify"]["disagreements"]:
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


def _draw_trials(rng, n, trials) -> tuple[list[QMTMatrix], np.ndarray, int]:
    """Each trial's random transformation, of condition at most
    CONJUGACY_MAX_CONDITION, the (trials, n) initial states, and the
    number of candidates rejected on the way, each reported as a
    "regenerated" line.

    A trial draws candidates ``uniform(-1, 1, (n, n))`` until one is
    accepted, then its x0, ``exp(uniform(log 1/2, log 2, n))``.  As
    ``uniform(lo, hi)`` is ``lo + (hi - lo) * random()`` to the bit, the
    draw reads the generator's raw doubles in that order: n^2 + n for an
    accepted candidate, n^2 for a rejected one.  Each round assumes that
    the next k candidates are accepted, decides them as one stack, keeps
    the trials before the first rejection and goes on after the rejected
    candidate's n^2 doubles.  The first round speculates on every trial
    and a round after one that kept j trials on 2 (j + 1), so a rejection
    wastes about as many candidates as were kept before it, however many
    trials are left; no round reads more than BLOCK_DOUBLES doubles.
    """
    lo, hi = np.log(0.5), np.log(2.0)
    stride = n * n + n
    width = max(1, systems.BLOCK_DOUBLES // stride)
    raw, qmts, x0_draws, rejected, k = np.empty(0), [], [], 0, trials
    while len(qmts) < trials:
        k = min(k, width, trials - len(qmts))
        if len(raw) < k * stride:
            raw = np.concatenate([raw, rng.random(k * stride - len(raw))])
        draws = raw[:k * stride].reshape(k, stride)
        C = -1.0 + 2.0 * draws[:, :n * n].reshape(k, n, n)
        C_inv, _ = invertibility(C)
        # NaN, and so never accepted, for a singular candidate
        condition = QMTMatrix(C, C_inv).condition()
        accepted = condition <= CONJUGACY_MAX_CONDITION
        j = k if accepted.all() else int(np.argmin(accepted))
        qmts += [QMTMatrix(C[i], C_inv[i]) for i in range(j)]
        x0_draws.append(draws[:j, n * n:])
        raw = raw[j * stride:]
        if j < k:
            rejected += 1
            raw = raw[n * n:]
            if np.isnan(condition[j]):
                print(f"trial {len(qmts)}: regenerated a singular candidate C")
            else:
                print(f"trial {len(qmts)}: regenerated a near-singular "
                      f"candidate C (condition {condition[j]:.3g})")
        k = 2 * (j + 1)
    return qmts, np.exp(lo + (hi - lo) * np.concatenate(x0_draws)), rejected


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
    qmts, X0, rejected = _draw_trials(rng, system.n, args.trials)
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
                   help="exit 2 on analytic/numeric disagreement; "
                   "implies --verify")
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
