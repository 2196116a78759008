"""Numerical cross-validation of the analytic classifiers.

Trajectory simulation, interior fixed points via the canonical LV form,
ensemble probes for permanence and attractivity, conjugacy verification,
and largest-Lyapunov-exponent estimation with the analytic tangent map
of the QP map in log coordinates.  Every orbit here, from ``simulate``'s
one row to ``verification_pass``'s batch of 51 with tangents, is a row
of the one lockstep engine ``_lockstep``, so one x0 has one float orbit.
``falsifications`` reads that pass against the theorem verdicts, one
rule per claim.

A conjugacy is checked as the one-step identity F(h(y)) = h(G(y)) on
the direct orbit alone, so no conjugate orbit is run and nothing is
recorded: every trial's direct orbit is a row of one kernel run, whose
blocks, until it replays, are mapped to the trials' conjugate
coordinates and stepped once by their transformed systems, one stack
that also gives the invariant drift; a block bounds each check.

Guard policy: every map evaluation here goes through the one map kernel
``systems.MapStep``, with or without tangent rows, whose guard rule
``systems.guard_codes`` labels a guarded step by the sign of its
exponent: "overflow" for a blow-up, "underflow" for a collapse toward 0
(including a component below UNDERFLOW_FLOOR).  The orbit terminates
there; ensemble verdicts treat either termination as failure.  The
kernel steps, checks, cuts and replays its blocks; every result is
bit-identical to checking every step and to stepping to the horizon.
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
    MapStep,
    QPSystem,
    advance,
    as_state,
    as_states,
    is_lotka_volterra,
    row_product,
    step,
)
from .theorems import Conclusion
from .transform import (
    QMTMatrix,
    _invert,
    apply_qmts,
    canonical_lv,
    class_invariants,
    map_state,
    map_states,
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
    """Iterate the map ``steps`` times or until a guard triggers.

    The orbit is a one-row lockstep run that records every step, so it
    is the orbit of x0 in any batch; its first guard ends it.
    """
    checked_counts(steps=(steps, 0))
    run = _lockstep(sys, as_state(x0, sys.n)[None], steps,
                    record=range(steps + 1))
    states = run.record[:, 0]
    if not run.guards:
        return Trajectory(states)
    _, t, reason = run.guards[0]
    return Trajectory(states[:t + 1].copy(), (t, reason))


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

def lv_interior_fixed_point(lv: QPSystem):
    """Interior fixed point of an LV system, or None.

    Solves ``A x = -lam``; returns x only when the solve is well posed
    and x is strictly positive.  Raises SingularSystem when A is singular
    within tolerance, and InvalidArgument unless ``is_lotka_volterra``.
    Uniqueness beyond this linear construction is not claimed.
    """
    if not is_lotka_volterra(lv):
        raise InvalidArgument("B is not the identity; use qp_fixed_point")
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
    interior fixed point, and raises OverflowGuard when mapping it back
    or its verifying step hits a guard.
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

    Propagates a tangent vector in log coordinates, v <- v + A (q * B v),
    in the ``systems.MapStep`` step that advances the state and shares
    its q, renormalizing every step from step 0, and averaging the log
    growth over the ``samples`` steps that follow the first ``transient``,
    which align the tangent with the dominant direction.  The tangent
    direction is drawn from a seeded generator: a fixed deterministic
    direction can sit exactly on a non-dominant eigendirection (e.g. for
    symmetric systems) and never rotate away from it.
    """
    x = as_state(x0, sys.n)
    checked_counts(transient=(transient, 0), samples=(samples, 1))
    run = _lockstep(sys, x[None, :], transient + samples,
                    tangents=(transient, _tangent_directions(seed, 1, sys.n)))
    if not np.isfinite(run.exponents[0]):
        raise GuardTermination(_lyapunov_error(run))
    return float(run.exponents[0])


def checked_counts(**counts):
    """Check each count ``name=(value, low)``: an integer of at least
    low, the one rule of every seed, step count, horizon and ensemble
    size.  The InvalidArgument names the first count that breaks it and
    the rule of them all."""
    rule = " and ".join(f"{name} >= {low}"
                        for name, (_, low) in counts.items())
    for name, (value, low) in counts.items():
        if not isinstance(value, Integral) or value < low:
            bound = "nonnegative" if low == 0 else f"at least {low}"
            raise InvalidArgument(f"{name} must be {bound} and an integer, "
                                  f"got {value!r} (need {rule})")


def seeded_generator(seed) -> np.random.Generator:
    """The generator of a seed, which must be a nonnegative integer."""
    checked_counts(seed=(seed, 0))
    return np.random.default_rng(seed)


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
    tail window (inf/-inf where a row recorded none); ``record[j]`` holds
    the states of the j-th recorded step, NaN for rows no longer live then.
    ``exponents`` holds each row's mean tangent log growth, NaN for a
    row that guarded; it is None for a run without tangents.  ``stepped``
    counts every step the kernel computed, the steps of a tripped block
    after its cut included: ``horizon`` for a run that neither guards nor
    repeats, more when guards cut its blocks, fewer once every row
    repeats.  No report shows it.
    """

    guards: list
    tail_min: np.ndarray
    tail_max: np.ndarray
    record: np.ndarray
    exponents: np.ndarray | None
    stepped: int


def _lockstep(sys: QPSystem, X0, horizon, tail=range(0), record=range(0),
              tangents=None) -> _Lockstep:
    """Advance the rows of X0 in lockstep for ``horizon`` steps: the one
    orbit loop of qpd, observing the blocks of one ``systems.MapStep``.

    Row extrema are taken over the states of the steps in ``tail``, and
    the states of the steps in ``record`` are copied out; both are ranges
    of consecutive steps.  ``tangents`` is ``(start, V)``: row i carries
    the tangent vector V[i] through every transition, renormalized each
    step, and averages its log growth over the transitions out of the
    states t >= start.  A tangent that collapses to 0 or leaves the
    representable range leaves a non-finite exponent and never ends its
    row.  Raises InvalidArgument when the record is too large to allocate.

    Once the kernel replays, the steps from its replay's start on are
    its copies, read from them alone: the tail extrema over the distinct
    copies the window covers, at most all of them and in one or two runs
    (exact, since min and max do not round), and each recorded step as
    the copy of its index, a block of steps at a time.
    """
    X0 = np.asarray(X0, dtype=float)
    m0, n = X0.shape
    try:
        rec = np.full((len(record), m0, n), np.nan)
    except (ValueError, MemoryError):
        raise InvalidArgument(f"{horizon} steps make a trajectory too large "
                              "to allocate") from None
    kernel = MapStep(sys, X0, horizon, tangents)
    S, live = kernel.S, kernel.live
    tail_min = np.full(S.shape[1:], np.inf)
    tail_max = np.full(S.shape[1:], -np.inf)

    def extrema(states):
        """Fold the states of steps in the tail into the live rows'
        extrema."""
        if states.size:
            mask = live[:, None]
            np.minimum(tail_min, states.min(axis=0), out=tail_min, where=mask)
            np.maximum(tail_max, states.max(axis=0), out=tail_max, where=mask)

    def keep(t, states):
        """Record the live rows of the states of steps t, t + 1, ..."""
        a, b = max(record.start, t), min(record.stop, t + len(states))
        if a < b:
            np.copyto(rec[a - record.start:b - record.start],
                      states[a - t:b - t, :m0], where=live[:m0, None])

    with np.errstate(all="ignore"):
        for t, k in kernel.blocks():
            extrema(S[:k][max(tail.start - t, 0):max(tail.stop - t, 0)])
            keep(t, S[:k])
        if kernel.replay is not None:  # step T >= start is copy T - start
            start, (copies, _) = kernel.replay
            L, end = len(copies), horizon + 1
            first, last = max(tail.start, start), min(tail.stop, end)
            if first < last:  # the window's distinct copies: one or two runs
                i = (first - start) % L
                j = i + min(last - first, L)
                extrema(copies[i:j])
                extrema(copies[:max(j - L, 0)])
            last = min(record.stop, end)
            for t in range(max(record.start, start), last, kernel.size):
                k = min(kernel.size, last - t)
                np.take(copies, range(t - start, t - start + k), axis=0,
                        out=S[:k], mode="wrap")
                keep(t, S[:k])
    exponents = None
    if tangents is not None:
        exponents = (np.where(live, kernel.growth, np.nan)[:m0]
                     / (horizon - tangents[0]))
    return _Lockstep(kernel.guards, tail_min[:m0], tail_max[:m0], rec,
                     exponents, kernel.stepped)


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
            run.record[0, :size] - target, axis=1)))
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
    compact set whose existence permanence asserts.  The horizon is at
    least 1: at 0 the tail would be the draw itself, inside the box.
    """
    checked_counts(ensemble_size=(ensemble_size, 1), horizon=(horizon, 1))
    X0 = _draw_initial_conditions(seed, ensemble_size, sys.n)
    run = _lockstep(sys, X0, horizon, tail=_tail_window(horizon))
    return _permanence_verdict(run, ensemble_size, horizon, seed)


def empirical_attractivity(sys: QPSystem, target, ensemble_size=ENSEMBLE_SIZE,
                           horizon=ATTRACTIVITY_HORIZON, tol=1e-6,
                           seed=0) -> EmpiricalVerdict:
    """Passes iff every ensemble orbit ends within ``tol`` of the target.

    Distance is Euclidean at the final step, after at least one; a guard
    termination counts as failure.
    """
    target = as_state(target, sys.n)
    checked_counts(ensemble_size=(ensemble_size, 1), horizon=(horizon, 1))
    X0 = _draw_initial_conditions(seed, ensemble_size, sys.n)
    run = _lockstep(sys, X0, horizon, record=range(horizon, horizon + 1))
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
    without a target or where ``qp_jacobian`` guards, and
    ``lost_tangents`` counts the orbits that finished without a finite
    exponent; no report shows either."""

    permanence: EmpiricalVerdict
    attractivity: EmpiricalVerdict | None
    lyapunov: float | None
    lyapunov_error: str | None
    lyapunov_statistics: dict
    lyapunov_params: dict
    spectral_radius: float | None
    lost_tangents: int


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
        record=range(ATTRACTIVITY_HORIZON, ATTRACTIVITY_HORIZON + 1),
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
        spectral_radius, size + 1 - k - len(run.guards))


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
    not a measurement; and orbits that lost their tangent vector add one
    warning with their count, since the estimate leaves them out.
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
    if checks.lost_tangents:
        warnings.append(
            f"{checks.lost_tangents} of {checks.lyapunov_params['orbits']} "
            "orbits lost the tangent vector, which collapsed to 0 or left "
            "the representable range; the Lyapunov estimate leaves them out")
    return disagreements, warnings


# ---------------------------------------------------------------------------
# conjugacy verification
# ---------------------------------------------------------------------------

def _one_step_defects(images, C_inv, C_T, X):
    """The one-step check of a stack of trials along their states X,
    (k, w + 1, n), w consecutive pairs a trial: each trial's largest
    defect, which means nothing for a guarded trial, and the guard codes
    of its pairs, (k, 2 w + 1), in step order, a state's mapping before
    its step.

    ``transform.map_states`` maps the states to log y = C^-1 log x under
    the trials' stacked inverses ``C_inv``, their transformed systems
    ``images`` step them once (``systems.advance``), and the defect is
    ``max |expm1(log G(y_t) C_T - log x_(t+1))|``, ``log G(y_t) C_T`` a
    ``systems.row_product``, like every product of rows.  A
    guarded trial's states and images may hold 0, inf or NaN, so run it
    under ``np.errstate``.
    """
    Y, mapped = map_states(C_inv, X)
    G, _, stepped = advance(images, Y[:, :-1])
    codes = np.empty((len(X), 2 * X.shape[1] - 1), dtype=int)
    codes[:, 0::2], codes[:, 1::2] = mapped, stepped
    gap = row_product(np.log(G), C_T) - np.log(X[:, 1:])
    return np.abs(np.expm1(gap)).max(axis=(1, 2)), codes


def _guard_message(t, code, stepped) -> str:
    """The message of a trial whose first guard, ``code``, is the step
    of conjugate state t, or its mapping."""
    reason = GUARD_REASONS[code]
    if stepped:
        return f"conjugate state {t}: step hit the {reason} guard"
    where = "conjugate initial state" if t == 0 else f"conjugate state {t}"
    return f"{where}: state mapping hit the {reason} guard"


def conjugacy_deviations(sys: QPSystem, qmts, X0, steps: int
                         ) -> tuple[np.ndarray, np.ndarray, dict[int, str]]:
    """Largest one-step defect of each trial's conjugacy, the drift of
    each trial's class invariants, and the guards that stopped trials.

    A QMT x = y^C conjugates ``sys``, F, to ``apply_qmt(sys, C)``, G,
    when ``F(y^C) = G(y)^C`` for every state, one step at a time, and G
    keeps F's class invariants.  The trials' G are built once, as one
    ``transform.apply_qmts`` stack, and both measures read it: each
    trial's drift, ``max(|B'A' - BA|, |B'lam' - B lam|)``, guarded or not
    (``apply_qmts`` raises NonFinite for a G that overflows), and its
    defect.  Trial i runs the direct orbit x_0 = ``X0[i]``, ..., x_steps
    of sys, maps each state to y_t with log y_t = C^-1 log x_t
    (``transform.map_states``, exact under the identity QMT, whose defect
    is exactly 0), steps G once on those states (``systems.advance``) and
    takes the largest componentwise relative defect ``max |expm1(log
    G(y_t) C^T - log x_(t+1))|`` over t < steps.
    A chaotic orbit amplifies rounding step by step; a one-step defect
    does not.

    The direct orbits of all m trials are the rows of one
    ``systems.MapStep`` run, each, to the bit, its trial's own orbit.
    Each block of k steps that the run steps is checked as one (m, k +
    1, n) stack, up to the block in which the run starts replaying:
    every later pair repeats a checked one bit for bit.  The kernel's
    block, at most ``BLOCK_DOUBLES // (3 m n)`` steps, bounds the check:
    it holds 10 n + 3 doubles a state, so at most (10 n + 3) / (3 n)
    BLOCK_DOUBLES, under 4.4 of them, plus 10 n + 3 a trial.  ``guards``
    maps each trial whose check hit a guard to its ``GuardTermination``
    message, in trial order, and its deviation is NaN: "direct orbit:
    step 17 hit the overflow guard" for a guarded direct orbit, whatever
    its conjugate states hit, else the first guard in step order,
    "conjugate initial state: state mapping hit the overflow guard", the
    same for a later state t as "conjugate state t: ...", or "conjugate
    state t: step hit the overflow guard" when the one-step image of y_t
    is guarded.
    """
    n, m = sys.n, len(X0)
    X0 = as_states(X0, n)
    if len(qmts) != m:
        raise InvalidArgument(
            f"{len(qmts)} transformations for {m} initial states")
    checked_counts(steps=(steps, 1))
    if m == 0:
        return np.empty(0), np.empty(0), {}
    images = apply_qmts(sys, qmts)
    base, other = class_invariants(sys), class_invariants(images)
    interaction = np.abs(other.interaction - base.interaction).max(axis=(1, 2))
    growth = np.abs(other.growth - base.growth).max(axis=1)
    # max(interaction, growth) of each trial, as Python's max
    drifts = np.where(growth > interaction, growth, interaction)
    C_inv = np.stack([qmt.C_inv for qmt in qmts])
    C_T = np.stack([qmt.C for qmt in qmts]).swapaxes(1, 2)
    kernel, deviations, guards = MapStep(sys, X0, steps), np.zeros(m), {}
    with np.errstate(all="ignore"):
        for t, k in kernel.blocks():
            if t == steps or not kernel.live.any():  # no pair left
                break
            X = kernel.S[:k + 1, :m].transpose(1, 0, 2).copy()
            worst, codes = _one_step_defects(images, C_inv, C_T, X)
            np.maximum(deviations, worst, out=deviations)
            for i in np.flatnonzero(codes.any(axis=1)):
                c = int(np.flatnonzero(codes[i])[0])
                guards.setdefault(int(i), _guard_message(
                    t + c // 2, codes[i, c], c % 2))
            if kernel.replay is not None:  # every later pair is a copy
                break
    guards.update({i: f"direct orbit: step {t} hit the {reason} guard"
                   for i, t, reason in kernel.guards})
    deviations[list(guards)] = np.nan
    return deviations, drifts, dict(sorted(guards.items()))


def conjugacy_deviation(sys: QPSystem, qmt: QMTMatrix, x0, steps: int) -> float:
    """``conjugacy_deviations`` of one trial.  Raises GuardTermination
    with its guard message if the check hit a guard."""
    (deviation,), _, guards = conjugacy_deviations(sys, [qmt], [x0], steps)
    if guards:
        raise GuardTermination(guards[0])
    return float(deviation)
