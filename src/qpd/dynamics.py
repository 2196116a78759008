"""Numerical cross-validation of the analytic classifiers.

Trajectory simulation, interior fixed points via the canonical LV form,
ensemble probes for permanence and attractivity, conjugacy verification,
and largest-Lyapunov-exponent estimation with the analytic tangent map
of the QP map in log coordinates.  The ensemble probes, the Lyapunov
estimate and ``verification_pass``, which runs all three probes as one
batch in which every orbit carries a tangent, share one lockstep engine.
``falsifications`` reads that pass against the theorem verdicts, one
rule per claim: it lists the disagreements and warnings of a report.

Conjugacy trials run as block-diagonal systems: a QMT of a
block-diagonal system is block-diagonal, so ``conjugacy_deviations``
runs a block of trials as one direct and one conjugate orbit, two
``simulate`` calls per block.  A block holds at most
``CONJUGACY_BLOCK_DIM // n`` trials, which bounds each dense block
matrix at 128**2 doubles, and at most
``CONJUGACY_BLOCK_DOUBLES // (2 (steps + 1) n)``, which bounds a block's
two stored orbits at 2**20 doubles (8 MiB); it always holds at least one
trial.  A block that hits a guard is rerun one trial at a time, and
those one-trial runs, the tested reference, decide each of its trials.

Guard policy: every map evaluation here goes through the one guarded
kernel ``systems.advance``, which labels a guarded step by the sign of
its exponent: "overflow" for a blow-up, "underflow" for a collapse toward
0 (including a component below UNDERFLOW_FLOOR).  The orbit terminates
there; ensemble verdicts treat either termination as failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import (
    GuardTermination,
    InvalidArgument,
    NoInteriorFixedPoint,
    OverflowGuard,
    SingularSystem,
)
from .systems import (
    DEFAULT_SIGN_TOL,
    GUARD_OK,
    GUARD_REASONS,
    LVSystem,
    QPSystem,
    advance,
    as_state,
    step,
)
from .theorems import Conclusion
from .transform import (
    QMTMatrix,
    _invert,
    apply_qmt,
    canonical_lv,
    map_state,
)

# The verification protocol.  ``verification_pass`` runs exactly these
# values, and the standalone probes default to them.

#: Log-uniform initial-condition box of the seeded ensembles; the
#: multi-scale spread is the point, since permanence quantifies over all
#: interior initial conditions.
IC_LOW = 1e-2
IC_HIGH = 1e2
ENSEMBLE_SIZE = 50
PERMANENCE_HORIZON = 5000
TAIL_FRACTION = 0.2
PROXY_FLOOR = 1e-6
PROXY_CEILING = 1e6
ATTRACTIVITY_HORIZON = 2000
#: The standalone attractivity probe defaults to a tighter 1e-6.
VERIFY_ATTRACTIVITY_TOL = 1e-4
#: Lyapunov schedule: steps that align a tangent before its log growth
#: is summed, then the steps ``largest_lyapunov`` averages by default.
LYAPUNOV_TRANSIENT = 1000
LYAPUNOV_SAMPLES = 10000

#: log(2^-52): an estimate at or below it is the double-precision rounding
#: floor, a tangent shrunk by the rounding unit each step (an orbit one ulp
#: off a superattracting point, whose true exponent is -inf).
LYAPUNOV_ROUNDING_FLOOR = math.log(2.0**-52)


@dataclass(frozen=True)
class Trajectory:
    """A simulated orbit: row t of ``states`` is the state after t steps.

    ``terminated_early`` is None for a full run, else ``(t, reason)``
    where the transition out of state t triggered the guard; the stored
    states are all strictly positive.
    """

    states: np.ndarray
    terminated_early: tuple[int, str] | None = None

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    @property
    def steps_completed(self) -> int:
        return self.states.shape[0] - 1


def simulate(sys: QPSystem, x0, steps: int) -> Trajectory:
    """Iterate the map ``steps`` times or until a guard triggers."""
    if steps < 0:
        raise InvalidArgument("steps must be nonnegative")
    try:
        states = np.empty((steps + 1, sys.n))
    except (ValueError, MemoryError):
        raise InvalidArgument(
            f"{steps} steps make a trajectory too large to allocate") from None
    states[0] = x = as_state(x0, sys.n)
    for t in range(steps):
        x, _, guard = advance(sys, x)
        if guard != GUARD_OK:
            return Trajectory(states[:t + 1].copy(), (t, GUARD_REASONS[guard]))
        states[t + 1] = x
    return Trajectory(states)


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """CSV with header t,x_1,...,x_n; full double precision."""
    n = traj.states.shape[1]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t," + ",".join(f"x_{i + 1}" for i in range(n)) + "\n")
        for t, row in enumerate(traj.states):
            fh.write(str(t) + "," + ",".join(f"{v:.17g}" for v in row) + "\n")


# ---------------------------------------------------------------------------
# fixed points
# ---------------------------------------------------------------------------

def lv_interior_fixed_point(lv: LVSystem):
    """Interior fixed point of an LV system, or None.

    Solves ``A x = -lam``; returns x only when the solve is well posed
    and x is strictly positive.  Raises SingularSystem when A is singular
    within tolerance.  Uniqueness beyond this linear construction is not
    claimed.
    """
    _invert(lv.A, "LV interaction matrix", SingularSystem)
    x = np.linalg.solve(lv.A, -lv.lam)
    residual = float(np.max(np.abs(lv.lam + lv.A @ x)))
    if residual > 1e-10 * (1.0 + float(np.max(np.abs(lv.lam)))):
        raise SingularSystem(
            f"fixed-point solve residual {residual:.3e} exceeds tolerance"
        )
    if np.any(x <= 0.0):
        return None
    return x


def qp_fixed_point(sys: QPSystem):
    """Interior fixed point of a QP system via its canonical LV form.

    The canonical fixed point is mapped back through the monomial change
    of variables, then verified against the one-step map; the linear
    solve in LV coordinates is exact, which is why root-finding on the
    map itself is not used.  Returns None when the canonical form has no
    interior fixed point.
    """
    lv, qmt = canonical_lv(sys)
    y = lv_interior_fixed_point(lv)
    if y is None:
        return None
    x = map_state(qmt, y)
    residual = float(np.max(np.abs(step(sys, x) - x)))
    if residual > 1e-8 * float(np.max(np.abs(x))):
        raise NoInteriorFixedPoint(
            f"fixed-point candidate failed step verification "
            f"(residual {residual:.3e})"
        )
    return x


# ---------------------------------------------------------------------------
# Jacobian and Lyapunov exponent
# ---------------------------------------------------------------------------

def qp_jacobian(sys: QPSystem, x) -> np.ndarray:
    """Analytic Jacobian of the one-step map at a positive state.

    In log coordinates u = log x the map is u' = u + lam + A exp(B u),
    with Jacobian J_u = I + A diag(q) B for the quasimonomial terms q.  With
    x' the image state, J = diag(x') J_u diag(1/x), built from the q and
    x' of one kernel call.  Raises OverflowGuard when the step is guarded
    or J leaves the representable range.
    """
    x = as_state(x, sys.n)
    xp, q, guard = advance(sys, x)
    with np.errstate(over="ignore", invalid="ignore"):
        J_u = np.eye(sys.n) + sys.A @ (q[:, None] * sys.B)
        J = xp[:, None] * J_u / x[None, :]
    if guard != GUARD_OK or not np.all(np.isfinite(J)):
        raise OverflowGuard("Jacobian left the representable range")
    return J


def largest_lyapunov(sys: QPSystem, x0, transient=LYAPUNOV_TRANSIENT,
                     samples=LYAPUNOV_SAMPLES, seed=0) -> float:
    """Largest Lyapunov exponent estimate along one orbit.

    Propagates a tangent vector in log coordinates, v <- v + A (q * B v)
    with q from the kernel call that advances the state, renormalizing
    every step from step 0 and averaging the log growth over the
    ``samples`` steps that follow the first ``transient``, which align
    the tangent with the dominant direction.  The tangent direction is
    drawn from a seeded generator: a fixed deterministic direction can
    sit exactly on a non-dominant eigendirection (e.g. for symmetric
    systems) and never rotate away from it.
    """
    x = as_state(x0, sys.n)
    if transient < 0 or samples < 1:
        raise InvalidArgument("need transient >= 0 and samples >= 1")
    run = _lockstep(sys, x[None, :], transient + samples,
                    tangents=(transient, _tangent_directions(seed, 1, sys.n)))
    if not np.isfinite(run.exponents[0]):
        raise GuardTermination(_lyapunov_error(run))
    return float(run.exponents[0])


def checked_seed(seed):
    """The seed itself, which must be a nonnegative integer."""
    if not isinstance(seed, Integral) or seed < 0:
        raise InvalidArgument(
            f"seed must be a nonnegative integer, got {seed!r}")
    return seed


def seeded_generator(seed) -> np.random.Generator:
    """The generator of a seed, which must be a nonnegative integer."""
    return np.random.default_rng(checked_seed(seed))


def _tangent_directions(seed, m, n):
    """m seeded unit tangent vectors; the first is the same for every m."""
    V = seeded_generator(seed).standard_normal((m, n))
    return V / np.linalg.norm(V, axis=1)[:, None]


def _lyapunov_error(run) -> str:
    """Why no row of the run finished: each hit a guard or lost its
    tangent vector, which collapsed to 0 or left the representable range."""
    m, guards = run.exponents.size, run.guards
    first = (", first orbit {} at step {} ({})".format(*guards[0])
             if guards else "")
    return (f"no orbit finished: {len(guards)} of {m} hit a guard{first}; "
            f"{m - len(guards)} lost the tangent vector")


# ---------------------------------------------------------------------------
# the lockstep engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Lockstep:
    """What one lockstep run observed.

    ``guards`` lists (row, t, reason) in step order, rows ascending
    within a step, where t is the step whose transition was guarded.
    ``tail_min``/``tail_max`` are per-row componentwise extrema over the
    tail window (inf/-inf where a row recorded none); ``snapshot`` holds
    the states at the snapshot step, NaN for rows no longer live then.
    ``exponents`` holds each row's mean tangent log growth, NaN for a
    row that guarded; it is None for a run without tangents.
    """

    guards: list
    tail_min: np.ndarray
    tail_max: np.ndarray
    snapshot: np.ndarray | None
    exponents: np.ndarray | None


def _rows(keep):
    """Batch positions of the rows that ``keep`` selects.  A lone row is
    taken twice: numpy multiplies a one-row matrix through another BLAS
    kernel, whose rounding differs, and an orbit must not depend on
    which rows share its batch."""
    rows = np.flatnonzero(keep)
    return np.repeat(rows, 2) if rows.size == 1 else rows


def _lockstep(sys: QPSystem, X0, horizon, tail=range(0), snapshot=None,
              tangents=None) -> _Lockstep:
    """Advance the rows of X0 in lockstep for ``horizon`` steps.

    A guarded row freezes; it records its guard and leaves the batch.
    Row extrema are taken over the states of the steps in ``tail``, and
    the states after step ``snapshot`` are copied out.  ``tangents`` is
    ``(start, V)``: row i carries the tangent vector V[i] through every
    transition, renormalized each step, and averages its log growth over
    the transitions out of the states t >= start.  A tangent that
    collapses to 0 or leaves the representable range leaves a non-finite
    exponent and never ends its row.  The live rows are advanced as one
    compact batch, rebuilt only when a row guards.
    """
    X0 = np.asarray(X0, dtype=float)
    tail_min = np.full(X0.shape, np.inf)
    tail_max = np.full(X0.shape, -np.inf)
    snap = None if snapshot is None else np.full(X0.shape, np.nan)
    guards: list[tuple[int, int, str]] = []
    idx = np.arange(X0.shape[0])
    rows = _rows(np.ones(idx.size, dtype=bool))
    L = X0[rows]
    if tangents is not None:
        start, V = tangents
        V, g = V[rows], np.zeros(rows.size)
        At, Bt = np.ascontiguousarray(sys.A.T), np.ascontiguousarray(sys.B.T)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for t in range(horizon + 1):
            if t in tail:
                live = L[:idx.size]
                tail_min[idx] = np.minimum(tail_min[idx], live)
                tail_max[idx] = np.maximum(tail_max[idx], live)
            if t == snapshot:
                snap[idx] = L[:idx.size]
            if t == horizon or not idx.size:
                break
            L, q, guard = advance(sys, L)
            if guard.any():
                ok = guard[:idx.size] == GUARD_OK
                for k in np.flatnonzero(~ok):
                    guards.append((int(idx[k]), t, GUARD_REASONS[guard[k]]))
                rows, idx = _rows(ok), idx[ok]
                L, q = L[rows], q[rows]
                if tangents is not None:
                    V, g = V[rows], g[rows]
            if tangents is not None:
                V += (q * (V @ Bt)) @ At
                s = np.sqrt(np.einsum("ij,ij->i", V, V))
                V /= s[:, None]
                if t >= start:
                    g += np.log(s)
    exponents = None
    if tangents is not None:
        exponents = np.full(X0.shape[0], np.nan)
        exponents[idx] = g[:idx.size] / (horizon - start)
    return _Lockstep(guards, tail_min, tail_max, snap, exponents)


# ---------------------------------------------------------------------------
# ensemble probes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmpiricalVerdict:
    """Outcome of an ensemble probe; deterministic given (seed, params)."""

    kind: str
    passed: bool
    ensemble_size: int
    horizon: int
    seed: int
    statistics: dict
    params: dict

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "pass": self.passed,
            "ensemble_size": self.ensemble_size,
            "horizon": self.horizon,
            "seed": self.seed,
            "statistics": self.statistics,
            "params": self.params,
        }


def _draw_initial_conditions(seed, size, n):
    rng = seeded_generator(seed)
    return np.exp(rng.uniform(np.log(IC_LOW), np.log(IC_HIGH), size=(size, n)))


def _tail_window(horizon):
    return range(horizon - max(1, int(round(TAIL_FRACTION * horizon))) + 1,
                 horizon + 1)


def _guard_statistics(run, size, horizon) -> dict:
    """Guard statistics of ensemble rows [0, size) over the transitions
    out of steps 0 .. horizon - 1."""
    mine = [g for g in run.guards if g[0] < size and g[1] < horizon]
    counts = dict.fromkeys(GUARD_REASONS[1:], 0)
    for _, _, reason in mine:
        counts[reason] += 1
    return {
        "guard_terminations": len(mine),
        "first_guard": list(mine[0]) if mine else None,
        "guard_counts": counts,
    }


def _permanence_verdict(run, size, horizon, seed) -> EmpiricalVerdict:
    lo = float(run.tail_min[:size].min(initial=np.inf))
    hi = float(run.tail_max[:size].max(initial=-np.inf))
    reached = lo <= hi  # False when every orbit was lost before the tail
    guards = _guard_statistics(run, size, horizon)
    passed = (not guards["guard_terminations"] and reached
              and PROXY_FLOOR <= lo and hi <= PROXY_CEILING)
    return EmpiricalVerdict(
        "permanence", bool(passed), size, horizon, seed,
        {"tail_min": lo if reached else None,
         "tail_max": hi if reached else None, **guards},
        {"tail_fraction": TAIL_FRACTION, "floor": PROXY_FLOOR,
         "ceiling": PROXY_CEILING, "ic_low": IC_LOW, "ic_high": IC_HIGH})


def _attractivity_verdict(run, size, horizon, target, tol,
                          seed) -> EmpiricalVerdict:
    guards = _guard_statistics(run, size, horizon)
    if guards["guard_terminations"]:
        max_dist = None  # some orbit never reached the horizon
    else:
        max_dist = float(np.max(np.linalg.norm(
            run.snapshot[:size] - target, axis=1)))
    passed = max_dist is not None and max_dist <= tol
    return EmpiricalVerdict(
        "attractivity", bool(passed), size, horizon, seed,
        {"max_final_distance": max_dist, **guards},
        {"target": target.tolist(), "tol": tol, "ic_low": IC_LOW,
         "ic_high": IC_HIGH})


def empirical_permanence(sys: QPSystem, ensemble_size=ENSEMBLE_SIZE,
                         horizon=PERMANENCE_HORIZON, seed=0) -> EmpiricalVerdict:
    """Falsifiable proxy for permanence over a seeded ensemble.

    Passes iff no orbit hits a guard and, over the final
    ``TAIL_FRACTION * horizon`` steps, every component of every orbit
    stays inside [PROXY_FLOOR, PROXY_CEILING].  The box stands in for the
    compact set whose existence permanence asserts.
    """
    X0 = _draw_initial_conditions(seed, ensemble_size, sys.n)
    run = _lockstep(sys, X0, horizon, tail=_tail_window(horizon))
    return _permanence_verdict(run, ensemble_size, horizon, seed)


def empirical_attractivity(sys: QPSystem, target, ensemble_size=ENSEMBLE_SIZE,
                           horizon=ATTRACTIVITY_HORIZON, tol=1e-6,
                           seed=0) -> EmpiricalVerdict:
    """Passes iff every ensemble orbit ends within ``tol`` of the target.

    Distance is Euclidean at the final step; a guard termination counts
    as failure.
    """
    target = as_state(target, sys.n)
    X0 = _draw_initial_conditions(seed, ensemble_size, sys.n)
    run = _lockstep(sys, X0, horizon, snapshot=horizon)
    return _attractivity_verdict(run, ensemble_size, horizon, target, tol,
                                 seed)


@dataclass(frozen=True)
class VerificationPass:
    """The three probes of ``verification_pass``.  ``attractivity`` is
    None without a target.  ``lyapunov`` is the mean exponent over the
    orbits that finished, and ``lyapunov_error`` is set instead when none
    did; ``lyapunov_statistics`` holds their count, sd, standard error,
    min and max, and ``lyapunov_params`` echoes the orbits and schedule.
    ``spectral_radius`` is that of the Jacobian at the target, None
    without a target or where ``qp_jacobian`` guards; no report shows it."""

    permanence: EmpiricalVerdict
    attractivity: EmpiricalVerdict | None
    lyapunov: float | None
    lyapunov_error: str | None
    lyapunov_statistics: dict
    lyapunov_params: dict
    spectral_radius: float | None


def verification_pass(sys: QPSystem, target, seed) -> VerificationPass:
    """Permanence, attractivity and Lyapunov probes from one lockstep run.

    Advances the seeded default ensemble and x0 = (1, ..., 1), as one
    more member, for PERMANENCE_HORIZON steps, each row with a seeded
    tangent.  ``target`` may be None, which skips attractivity.
    Permanence is read over the ensemble's tail, attractivity toward
    ``target`` at step ATTRACTIVITY_HORIZON (counting only guards before
    it), and the Lyapunov estimate is the mean over the rows that finish
    with a finite log growth, summed after LYAPUNOV_TRANSIENT.  Rows
    never depend on their batch-mates, so the ensemble probes equal
    ``empirical_permanence(sys, seed=seed)`` and
    ``empirical_attractivity(sys, target, tol=VERIFY_ATTRACTIVITY_TOL,
    seed=seed)``, and row 0's exponent equals ``largest_lyapunov(sys,
    X0[0], LYAPUNOV_TRANSIENT, PERMANENCE_HORIZON - LYAPUNOV_TRANSIENT,
    seed)``.
    """
    size, n = ENSEMBLE_SIZE, sys.n
    X0 = _draw_initial_conditions(seed, size, n)
    if target is not None:
        target = as_state(target, n)
    horizon = max(PERMANENCE_HORIZON, ATTRACTIVITY_HORIZON)
    run = _lockstep(
        sys, np.vstack([X0, np.ones(n)]), horizon,
        tail=_tail_window(PERMANENCE_HORIZON),
        snapshot=None if target is None else ATTRACTIVITY_HORIZON,
        tangents=(LYAPUNOV_TRANSIENT,
                  _tangent_directions(seed, size + 1, n)))
    permanence = _permanence_verdict(run, size, PERMANENCE_HORIZON, seed)
    attractivity = None if target is None else _attractivity_verdict(
        run, size, ATTRACTIVITY_HORIZON, target, VERIFY_ATTRACTIVITY_TOL,
        seed)
    exponents = run.exponents[np.isfinite(run.exponents)]
    k = exponents.size
    spectral_radius = None
    if target is not None:
        try:
            J = qp_jacobian(sys, target)
        except OverflowGuard:
            pass
        else:
            spectral_radius = float(np.max(np.abs(np.linalg.eigvals(J))))
    sd = float(np.std(exponents, ddof=1)) if k > 1 else None
    return VerificationPass(
        permanence, attractivity,
        float(exponents.mean()) if k else None,
        None if k else _lyapunov_error(run),
        {"orbits": k, "sd": sd,
         "stderr": None if sd is None else sd / math.sqrt(k),
         "min": float(exponents.min()) if k else None,
         "max": float(exponents.max()) if k else None},
        {"orbits": size + 1, "x0": [1.0] * n,
         "transient": LYAPUNOV_TRANSIENT,
         "samples": horizon - LYAPUNOV_TRANSIENT, "seed": seed},
        spectral_radius)


def falsifications(verdicts, checks: VerificationPass) -> tuple[list, list]:
    """Disagreements and warnings between applicable verdicts and a
    verification pass, each rule chosen by the verdict's claim.

    Permanent needs the permanence probe to pass and NotPermanent needs
    it to fail; GloballyAttractive needs attractivity to pass where it
    ran, a nonpositive Lyapunov estimate and a fixed point that is not
    linearly unstable (spectral radius at most 1 + DEFAULT_SIGN_TOL).  A
    chaotic claim with a nonpositive estimate is a warning only: the
    chaotic set need not attract.  GlobalAttractorExists and Dissipative
    have no rule.  Apart from any claim, estimates that all sit at
    LYAPUNOV_ROUNDING_FLOOR or below add one warning: they are rounding,
    not a measurement.
    """
    def claiming(*claims):
        return [v.theorem_id for v in verdicts
                if v.applicable and v.claim in claims]

    permanence, attractivity = checks.permanence, checks.attractivity
    lyapunov = checks.lyapunov
    disagreements = [
        f"{theorem} concludes permanence but the ensemble left the proxy "
        f"box (statistics: {permanence.statistics})"
        for theorem in claiming(Conclusion.PERMANENT) if not permanence.passed]
    disagreements += [
        f"{theorem} concludes non-permanence but the ensemble stayed inside "
        "the proxy box"
        for theorem in claiming(Conclusion.NOT_PERMANENT) if permanence.passed]
    if claiming(Conclusion.GLOBALLY_ATTRACTIVE):
        if attractivity is not None and not attractivity.passed:
            disagreements.append(
                "an attractivity theorem applies but the ensemble did not "
                f"converge (statistics: {attractivity.statistics})")
        if lyapunov is not None and lyapunov > 0.0:
            disagreements.append(
                "an attractivity theorem applies but the largest Lyapunov "
                f"estimate is positive ({lyapunov:.6g})")
        radius = checks.spectral_radius
        if radius is not None and radius > 1.0 + DEFAULT_SIGN_TOL:
            disagreements.append(
                "an attractivity theorem applies but the fixed point is "
                f"linearly unstable (spectral radius of J(x*) = {radius:.12g})")
    warnings = [
        f"{theorem} certifies chaos but the mean Lyapunov estimate over the "
        f"ensemble is nonpositive ({lyapunov:.6g}); the chaotic set need not "
        "be attracting"
        for theorem in claiming(Conclusion.CHAOTIC_DIAMOND,
                                Conclusion.CHAOTIC_MAROTTO)
        if lyapunov is not None and lyapunov <= 0.0]
    top = checks.lyapunov_statistics["max"]
    if top is not None and top <= LYAPUNOV_ROUNDING_FLOOR:
        warnings.append(
            f"the largest Lyapunov estimate of every orbit is at most "
            f"{top:.6g}, at the double-precision rounding floor log(2^-52) "
            f"= {LYAPUNOV_ROUNDING_FLOOR:.4g}; it is not a measurement (the "
            "true exponent may be -inf)")
    return disagreements, warnings


# ---------------------------------------------------------------------------
# conjugacy verification
# ---------------------------------------------------------------------------

#: Dimension cap of one block of conjugacy trials: the dense block
#: matrices stay at most CONJUGACY_BLOCK_DIM**2 doubles each.
CONJUGACY_BLOCK_DIM = 128

#: Storage cap of one block of conjugacy trials: its two orbits, of
#: 2 (steps + 1) n doubles per trial, stay at most 2**20 doubles (8 MiB).
CONJUGACY_BLOCK_DOUBLES = 2**20


def _direct_sum(systems) -> QPSystem:
    """The block-diagonal system of equal-dimension systems; one system
    gives its own matrices back."""
    n, k = systems[0].n, len(systems)
    A, B = np.zeros((2, k * n, k * n))
    for i, part in enumerate(systems):
        block = slice(i * n, (i + 1) * n)
        A[block, block], B[block, block] = part.A, part.B
    return QPSystem(A, B, np.concatenate([part.lam for part in systems]))


def _block_deviations(sys, qmts, X0, steps) -> np.ndarray:
    """Deviations of one block of trials from two orbits; raises
    GuardTermination naming the orbit and its guard."""
    n = sys.n
    direct = simulate(_direct_sum([sys] * len(qmts)), np.concatenate(X0),
                      steps)
    conjugate = simulate(
        _direct_sum([apply_qmt(sys, qmt) for qmt in qmts]),
        np.concatenate([map_state(qmt.inverse(), x0)
                        for qmt, x0 in zip(qmts, X0)]),
        steps)
    for label, traj in (("direct", direct), ("conjugate", conjugate)):
        if traj.terminated_early is not None:
            raise GuardTermination(
                f"{label} orbit terminated early: {traj.terminated_early}")
    out = np.empty(len(qmts))
    for i, qmt in enumerate(qmts):
        block = slice(i * n, (i + 1) * n)
        gap = (np.log(conjugate.states[:, block]) @ qmt.C.T
               - np.log(direct.states[:, block]))
        with np.errstate(over="ignore"):
            out[i] = np.max(np.abs(np.expm1(gap)))
    return out


def conjugacy_deviations(sys: QPSystem, qmts, X0,
                         steps: int) -> tuple[np.ndarray, dict[int, str]]:
    """Maximum relative gap between each trial's orbit and its conjugate
    image, one per trial, and the guards that stopped trials.

    Trial i runs the system from ``X0[i]`` and its image under
    ``qmts[i]`` from the mapped initial state, maps the second orbit
    back in log coordinates, where the QMT is linear (log x = C log y),
    and takes the largest componentwise relative deviation
    ``max |expm1(log Y C^T - log X)|`` over all recorded steps.

    Consecutive trials run together, at most
    ``max(1, min(CONJUGACY_BLOCK_DIM // n,
    CONJUGACY_BLOCK_DOUBLES // (2 (steps + 1) n)))`` at a time: a QMT of a
    block-diagonal system is block-diagonal, so a block's direct orbits
    are one orbit of ``diag(sys, ..., sys)`` and its conjugate orbits one
    orbit of ``diag(apply_qmt(sys, C_1), ...)``.  A block costs two
    ``simulate`` calls and ``2 (steps + 1) k n`` doubles for its k
    trials.  A one-trial block is the system itself.  A block that hits
    a guard is rerun one trial at a time, and those runs are its
    results; a one-trial block is not run twice.  ``guards`` maps each
    trial whose own run hit a guard to its ``GuardTermination`` message,
    e.g. "direct orbit terminated early: (17, 'overflow')", and that
    trial's deviation is NaN.
    """
    n = sys.n
    X0 = [as_state(x0, n) for x0 in X0]
    if len(qmts) != len(X0):
        raise InvalidArgument(
            f"{len(qmts)} transformations for {len(X0)} initial states")
    if steps < 0:
        raise InvalidArgument("steps must be nonnegative")
    size = max(1, min(CONJUGACY_BLOCK_DIM // n,
                      CONJUGACY_BLOCK_DOUBLES // (2 * (steps + 1) * n)))
    deviations = np.full(len(X0), np.nan)
    guards = {}

    def run(block: slice):
        try:
            deviations[block] = _block_deviations(
                sys, qmts[block], X0[block], steps)
        except GuardTermination as exc:
            if block.stop - block.start == 1:
                guards[block.start] = str(exc)
            else:
                for t in range(block.start, block.stop):
                    run(slice(t, t + 1))

    for start in range(0, len(X0), size):
        run(slice(start, min(start + size, len(X0))))
    return deviations, guards


def conjugacy_deviation(sys: QPSystem, qmt: QMTMatrix, x0, steps: int) -> float:
    """``conjugacy_deviations`` of one trial.  Raises GuardTermination
    if either orbit fails to reach the horizon."""
    (deviation,), guards = conjugacy_deviations(sys, [qmt], [x0], steps)
    if guards:
        raise GuardTermination(guards[0])
    return float(deviation)
