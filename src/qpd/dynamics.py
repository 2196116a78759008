"""Numerical cross-validation of the analytic classifiers.

Trajectory simulation, interior fixed points via the canonical LV form,
ensemble probes for permanence and attractivity, conjugacy verification,
and largest-Lyapunov-exponent estimation with the analytic tangent map
of the QP map in log coordinates.

Guard policy: every map evaluation here goes through the one guarded
kernel ``systems.advance``, which labels a guarded step by the sign of
its exponent: "overflow" for a blow-up, "underflow" for a collapse toward
0 (including a component below UNDERFLOW_FLOOR).  The orbit terminates
there; ensemble verdicts treat either termination as failure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    GuardTermination,
    NoInteriorFixedPoint,
    OverflowGuard,
    SingularSystem,
)
from .systems import (
    GUARD_OK,
    GUARD_REASONS,
    LVSystem,
    QPSystem,
    advance,
    as_state,
    step,
)
from .transform import (
    QMTMatrix,
    apply_qmt,
    canonical_lv,
    det_tolerance,
    map_state,
)

#: Default log-uniform initial-condition box for ensemble probes; the
#: multi-scale spread is the point, since permanence quantifies over all
#: interior initial conditions.
IC_LOW = 1e-2
IC_HIGH = 1e2


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
        raise ValueError("steps must be nonnegative")
    states = np.empty((steps + 1, sys.n))
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
    det = float(np.linalg.det(lv.A))
    if abs(det) < det_tolerance(lv.A):
        raise SingularSystem(
            f"LV interaction matrix is singular within tolerance "
            f"(|det| = {abs(det):.3e})"
        )
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
    with Jacobian J_u = I + A diag(q) B for the quasimonomials q.  With
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


def largest_lyapunov(sys: QPSystem, x0, transient=1000, samples=10000,
                     seed=0) -> float:
    """Largest Lyapunov exponent estimate along one orbit.

    Propagates a tangent vector in log coordinates, v <- v + A (q * B v)
    with q from the kernel call that advances the state, renormalizing
    every step and averaging the log growth over ``samples`` steps after
    discarding ``transient`` steps.  The tangent direction is drawn from
    a seeded generator: a fixed deterministic direction can sit exactly
    on a non-dominant eigendirection (e.g. for symmetric systems) and
    never rotate away from it.
    """
    x = as_state(x0, sys.n)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(sys.n)
    v /= np.linalg.norm(v)
    total = 0.0
    for t in range(transient + samples):
        x_next, q, guard = advance(sys, x)
        if guard != GUARD_OK:
            raise GuardTermination(
                f"orbit hit the {GUARD_REASONS[guard]} guard at step {t}")
        if t >= transient:
            v = v + sys.A @ (q * (sys.B @ v))
            s = float(np.linalg.norm(v))
            if s == 0.0 or not np.isfinite(s):
                raise GuardTermination(
                    "tangent vector left the representable range")
            total += np.log(s)
            v /= s
        x = x_next
    return total / samples


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


def _draw_initial_conditions(rng, size, n, low, high):
    if low <= 0 or high < low:
        raise ValueError("initial-condition box must satisfy 0 < low <= high")
    return np.exp(rng.uniform(np.log(low), np.log(high), size=(size, n)))


def _advance_ensemble(sys: QPSystem, X0, steps, tail_len=0):
    """Advance all orbits in lockstep; guard-terminated orbits freeze.

    Returns (X_final, alive, guards, tail_min, tail_max) where guards is
    a list of (orbit index, step, reason) and the tail extrema are taken
    over the last ``tail_len`` recorded states of surviving orbits (the
    aggregation is pure min/max, so it is order-independent).
    """
    X = np.array(X0, dtype=float)
    alive = np.ones(X.shape[0], dtype=bool)
    guards: list[tuple[int, int, str]] = []
    tail_min, tail_max = np.inf, -np.inf
    tail_start = steps - tail_len + 1
    if tail_len > 0 and tail_start <= 0:
        tail_min = float(np.min(X))
        tail_max = float(np.max(X))
    for t in range(1, steps + 1):
        idx = np.where(alive)[0]
        if idx.size == 0:
            break
        Xn, _, guard = advance(sys, X[idx])
        ok = guard == GUARD_OK
        for loc in np.where(~ok)[0]:
            guards.append((int(idx[loc]), t - 1, GUARD_REASONS[guard[loc]]))
        alive[idx[~ok]] = False
        X[idx[ok]] = Xn[ok]
        if tail_len > 0 and t >= tail_start and np.any(ok):
            tail_min = min(tail_min, float(np.min(Xn[ok])))
            tail_max = max(tail_max, float(np.max(Xn[ok])))
    return X, alive, guards, tail_min, tail_max


def empirical_permanence(sys: QPSystem, ensemble_size=50, horizon=5000,
                         tail_fraction=0.2, floor=1e-6, ceiling=1e6,
                         seed=0, ic_low=IC_LOW, ic_high=IC_HIGH) -> EmpiricalVerdict:
    """Falsifiable proxy for permanence over a seeded ensemble.

    Passes iff no orbit hits a guard and, over the final
    ``tail_fraction * horizon`` steps, every component of every orbit
    stays inside [floor, ceiling].  The box stands in for the compact
    set whose existence permanence asserts.
    """
    if floor <= 0 or ceiling <= floor:
        raise ValueError("need 0 < floor < ceiling")
    rng = np.random.default_rng(seed)
    X0 = _draw_initial_conditions(rng, ensemble_size, sys.n, ic_low, ic_high)
    tail_len = max(1, int(round(tail_fraction * horizon)))
    _, alive, guards, tail_min, tail_max = _advance_ensemble(
        sys, X0, horizon, tail_len=tail_len)
    passed = (not guards) and tail_min >= floor and tail_max <= ceiling
    return EmpiricalVerdict(
        kind="permanence",
        passed=bool(passed),
        ensemble_size=ensemble_size,
        horizon=horizon,
        seed=seed,
        statistics={
            "tail_min": tail_min,
            "tail_max": tail_max,
            "guard_terminations": len(guards),
            "first_guard": list(guards[0]) if guards else None,
        },
        params={
            "tail_fraction": tail_fraction, "floor": floor,
            "ceiling": ceiling, "ic_low": ic_low, "ic_high": ic_high,
        },
    )


def empirical_attractivity(sys: QPSystem, target, ensemble_size=50,
                           horizon=2000, tol=1e-6, seed=0,
                           ic_low=IC_LOW, ic_high=IC_HIGH,
                           initial_conditions=None) -> EmpiricalVerdict:
    """Passes iff every ensemble orbit ends within ``tol`` of the target.

    Distance is Euclidean at the final step; a guard termination counts
    as failure.  ``initial_conditions`` overrides the seeded draw.
    """
    target = as_state(target, sys.n)
    rng = np.random.default_rng(seed)
    if initial_conditions is None:
        X0 = _draw_initial_conditions(rng, ensemble_size, sys.n, ic_low, ic_high)
    else:
        X0 = np.atleast_2d(np.asarray(initial_conditions, dtype=float))
        ensemble_size = X0.shape[0]
    X, alive, guards, _, _ = _advance_ensemble(sys, X0, horizon)
    if np.all(alive):
        max_dist = float(np.max(np.linalg.norm(X - target, axis=1)))
    else:
        max_dist = None  # some orbit never reached the horizon
    passed = (not guards) and max_dist is not None and max_dist <= tol
    return EmpiricalVerdict(
        kind="attractivity",
        passed=bool(passed),
        ensemble_size=ensemble_size,
        horizon=horizon,
        seed=seed,
        statistics={
            "max_final_distance": max_dist,
            "guard_terminations": len(guards),
            "first_guard": list(guards[0]) if guards else None,
        },
        params={
            "target": target.tolist(), "tol": tol,
            "ic_low": ic_low, "ic_high": ic_high,
            "explicit_initial_conditions": initial_conditions is not None,
        },
    )


# ---------------------------------------------------------------------------
# conjugacy verification
# ---------------------------------------------------------------------------

def conjugacy_deviation(sys: QPSystem, qmt: QMTMatrix, x0, steps: int) -> float:
    """Maximum relative gap between an orbit and its conjugate image.

    Runs the system from x0 and the transformed system from the mapped
    initial state, maps the second orbit back in log coordinates, where
    the QMT is linear (log x = C log y), and returns the largest
    componentwise relative deviation ``max |expm1(log Y C^T - log X)|``
    over all recorded steps.  Raises GuardTermination if either orbit
    fails to reach the horizon.
    """
    direct = simulate(sys, x0, steps)
    conjugate = simulate(apply_qmt(sys, qmt),
                         map_state(qmt.inverse(), direct.states[0]), steps)
    for label, traj in (("direct", direct), ("conjugate", conjugate)):
        if traj.terminated_early is not None:
            raise GuardTermination(
                f"{label} orbit terminated early: {traj.terminated_early}")
    gap = np.log(conjugate.states) @ qmt.C.T - np.log(direct.states)
    with np.errstate(over="ignore"):
        return float(np.max(np.abs(np.expm1(gap))))
