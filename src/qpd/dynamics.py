"""Numerical cross-validation of the analytic classifiers.

Trajectory simulation, interior fixed points via the canonical LV form,
ensemble probes for permanence and attractivity, conjugacy verification,
and largest-Lyapunov-exponent estimation with the analytic tangent map
of the QP map in log coordinates.  Every orbit here, from ``simulate``'s
one row to ``verification_pass``'s batch of 51 with tangents, is a row
of the one lockstep engine ``_lockstep``, which advances the rows of
``systems.as_batch``, so one x0 has one float orbit.  ``falsifications``
reads that pass against the theorem verdicts, one rule per claim.

A conjugacy is checked as the one-step identity F(h(y)) = h(G(y)) on
the direct orbit alone: its recorded states are mapped to each trial's
conjugate coordinates and stepped once by the transformed system, as
one batch, so no conjugate orbit is run; the invariant drift is read off
the same transformed system, built once a trial.  The direct orbits of
at most ``BLOCK_DOUBLES // ((steps + 1) n)`` trials, but at least one,
are rows of one run, which bounds their record at 2**20 doubles (8 MiB).

Guard policy: every map evaluation here goes through the one map kernel
``systems.MapStep``, with or without tangent rows, and the guard rule
``systems.guard_codes``, which labels a guarded step
by the sign of its exponent: "overflow" for a blow-up, "underflow" for
a collapse toward 0 (including a component below UNDERFLOW_FLOOR).  The
orbit terminates there; ensemble verdicts treat either termination as
failure.  The lockstep engine checks the guard once per block of steps,
which its ``MapStep`` allocates and sizes; a tripped block ends at its
first guarded step, where each guarded row becomes a shadow of a live
row.  Every result is bit-identical to checking every step.

The Lyapunov tangents ride the map: with tangents, each ``MapStep``
step stacks the log-states and the tangent rows into one operand, so
the image and the tangent update share its two matmuls.  The tangent norms
of a block are kept, and its log growth is added once per block: one
``np.log`` over the norms and one axis-0 ``np.add.reduce``, whose sum
runs in step order like a per-step ``g += log(s)``.

A float orbit lives on a finite set, so it is eventually periodic, and
a batch that settles on an attracting fixed point or cycle repeats bit
for bit, renormalized tangents included.  A step is a pure function of
its whole batch, so once a block that tripped no guard ends on a batch
it passed earlier in the block, the engine stops stepping: it keeps a
copy of that cycle, at most one block's states and raw tangent norms,
and fills every later block from it.  The verification
pass's batch repeats by step 256 to 896 of 5000 on the attracting
fixtures, and never on the chaotic example3.
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
    BLOCK_DOUBLES,
    DEFAULT_SIGN_TOL,
    GUARD_OK,
    GUARD_REASONS,
    MapStep,
    QPSystem,
    advance,
    as_batch,
    as_state,
    guard_codes,
    is_lotka_volterra,
    step,
)
from .theorems import Conclusion
from .transform import (
    QMTMatrix,
    _invert,
    apply_qmt,
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
    if steps < 0:
        raise InvalidArgument("steps must be nonnegative")
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
    tail window (inf/-inf where a row recorded none); ``record[j]`` holds
    the states of the j-th recorded step, NaN for rows no longer live then.
    ``exponents`` holds each row's mean tangent log growth, NaN for a
    row that guarded; it is None for a run without tangents.  ``stepped``
    counts the steps the kernel ran: ``horizon`` for a run that neither
    guards nor repeats, fewer once the batch repeats.  No report shows it.
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
    orbit loop of qpd.

    Row extrema are taken over the states of the steps in ``tail``, and
    the states of the steps in ``record`` are copied out; both are ranges
    of consecutive steps.  ``tangents`` is ``(start, V)``: row i carries
    the tangent vector V[i] through every transition, renormalized each
    step, and averages its log growth over the transitions out of the
    states t >= start.  A tangent that collapses to 0 or leaves the
    representable range leaves a non-finite exponent and never ends its
    row.  Raises InvalidArgument when the record is too large to allocate.

    The batch is ``systems.as_batch(X0)``, so a lone row rounds as it does
    in any batch and in ``advance``.  One ``systems.MapStep``, built from
    it and the tangent rows or None, allocates the block buffers once and
    advances the batch ``kernel.size`` steps at a time; its steps are the
    one stepping loop.  The guard is checked
    once over each block, and the tail extrema, the record and the
    tangents' log growth are read from the block's buffers: one
    ``np.log`` over the block's tangent norms and one axis-0
    ``np.add.reduce`` whose first row is the growth so far, which sums
    in step order.  A tripped block ends at its first guarded step, and
    each row guarded there records its guard and becomes a shadow: it
    takes a copy of the state and tangent of the first live row, so it
    cannot trip on its own, and the ``live`` mask keeps every shadow out
    of every result.  Every result is bit-identical to checking every
    step.

    After each block that trips no guard, ``_cycle`` looks for the
    block's last batch, states and tangent rows, among its earlier ones.
    Once found, no step is run: each later block's states and raw tangent
    norms are filled from the cycle's copies, ``size (n + 1) m`` doubles
    at most with tangents and ``size m n`` without, beside the block
    itself; nothing reads the tangent rows again.  A filled block skips
    the guard, which its cycle passed, and goes through the same extrema,
    record and log-growth code as a stepped one, so every result is
    bit-identical to stepping to the horizon.
    """
    X0 = np.asarray(X0, dtype=float)
    m0, n = X0.shape
    try:
        rec = np.full((len(record), m0, n), np.nan)
    except (ValueError, MemoryError):
        raise InvalidArgument(f"{horizon} steps make a trajectory too large "
                              "to allocate") from None
    S0 = as_batch(X0)
    m = len(S0)
    live = np.arange(m) < m0
    tail_min, tail_max = np.full((m, n), np.inf), np.full((m, n), -np.inf)
    guards: list[tuple[int, int, str]] = []
    start, V = tangents or (0, None)
    kernel = MapStep(sys, S0, horizon, None if V is None else as_batch(V))
    S, arg, size = kernel.S, kernel.arg, kernel.size
    W, V, norms, g = kernel.W, kernel.V, kernel.norms, np.zeros(m)

    def observe(t, states):
        """Tail extrema and record of the live rows over the states of
        steps t, t + 1, ..."""
        mask = live[:, None]
        window = states[max(tail.start - t, 0):max(tail.stop - t, 0)]
        if window.size:
            np.minimum(tail_min, window.min(axis=0), out=tail_min, where=mask)
            np.maximum(tail_max, window.max(axis=0), out=tail_max, where=mask)
        a, b = max(record.start, t), min(record.stop, t + len(states))
        if a < b:
            np.copyto(rec[a - record.start:b - record.start],
                      states[a - t:b - t, :m0], where=mask[:m0])

    def grow(t, k):
        """Add the log growth of the steps t .. t + k - 1 from start on."""
        j = max(start - t, 0)
        if j < k:
            norms[j] = g
            np.log(norms[j + 1:k + 1], out=norms[j + 1:k + 1])
            np.add.reduce(norms[j:k + 1], axis=0, out=g)

    t = stepped = 0
    cycle = None
    with np.errstate(all="ignore"):
        while t < horizon and live.any():
            k = min(size, horizon - t)
            if cycle is None:
                for j in range(k):
                    kernel.step(j)
                stepped += k
                guard = guard_codes(W[:k], arg[:k], S[1:k + 1]) * live
                tripped = np.flatnonzero(guard.any(axis=1))
                if tripped.size:  # the block ends at its first guarded step
                    k = int(tripped[0]) + 1
                else:
                    cycle = _cycle(t, k, S, V, norms)
                if V is not None:
                    V[0] = V[k]
            else:  # a replay: its cycle tripped no guard, nor does it
                origin, copies = cycle
                at = (np.arange(t + 1, t + k + 1) - origin) % len(copies[0])
                for stored, copy in zip((S, norms), copies):
                    if copy is not None:
                        stored[1:k + 1] = copy[at]
            observe(t, S[:k])
            if tangents is not None:
                grow(t, k)
            S[0], t = S[k], t + k
            if tripped.size:  # its guarded rows become shadows
                guarded = np.flatnonzero(guard[k - 1])
                guards += [(int(i), t - 1, GUARD_REASONS[guard[k - 1, i]])
                           for i in guarded]
                live[guarded] = False
                if live.any():
                    source = np.argmax(live)
                    S[0, ~live] = S[0, source]
                    if tangents is not None:
                        V[0, ~live] = V[0, source]
        observe(t, S[:1])
    exponents = None
    if tangents is not None:
        exponents = np.where(live, g, np.nan)[:m0] / (horizon - start)
    return _Lockstep(guards, tail_min[:m0], tail_max[:m0], rec, exponents,
                     stepped)


def _cycle(t, k, S, V, norms):
    """The cycle of a block of k steps from step t that tripped no guard:
    ``(origin, (states, norms))``, or None when the block's last batch
    ``(S[k], V[k])`` equals none of its earlier ones bit for bit.

    When it equals ``(S[a], V[a])``, every later batch is a replay: a
    step is a pure function of its batch, so the batch of step
    ``T >= origin = t + a + 1`` is that of step ``origin + (T - origin) %
    (k - a)``.  The copies are S[a + 1:k + 1] and the raw tangent norms
    norms[a + 1:k + 1], taken before ``grow`` logs them in place, for the
    largest such a; a replay reads no tangent row.  Bit patterns are
    compared, since ``-0.0 == 0.0`` and ``NaN != NaN``; row 0 picks the
    candidates."""
    bits = S[:k + 1].view(np.int64)
    candidates = np.flatnonzero((bits[:k, 0] == bits[k, 0]).all(axis=1))
    for a in candidates[::-1]:
        if np.array_equal(bits[a], bits[k]) and (
                V is None or np.array_equal(V[a].view(np.int64),
                                            V[k].view(np.int64))):
            return t + int(a) + 1, tuple(
                None if X is None else X[a + 1:k + 1].copy()
                for X in (S, norms))
    return None


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

def _one_step_defect(image, qmt, X):
    """The one-step defect of one trial along its direct orbit X, the
    (steps + 1, n) states it recorded, and the message of the guard that
    stopped it, or None.

    Its states are mapped to the conjugate coordinates, log y = C^-1 log
    x, and ``image``, the trial's transformed system, steps them once, as
    one batch; the guards come in step order, a state's mapping before
    its step.
    """
    Y, mapped = map_states(qmt.inverse(), X)
    with np.errstate(divide="ignore"):  # a guarded state may hold a 0
        images, _, stepped = advance(image, Y[:-1])
    codes = np.empty(2 * len(Y) - 1, dtype=int)
    codes[0::2], codes[1::2] = mapped, stepped
    if codes.any():
        k = int(np.flatnonzero(codes)[0])
        t, reason = k // 2, GUARD_REASONS[codes[k]]
        if k % 2:
            return np.nan, f"conjugate state {t}: step hit the {reason} guard"
        where = "conjugate initial state" if t == 0 else f"conjugate state {t}"
        return np.nan, f"{where}: state mapping hit the {reason} guard"
    gap = np.log(images) @ qmt.C.T - np.log(X[1:])
    with np.errstate(over="ignore"):
        return float(np.max(np.abs(np.expm1(gap)))), None


def conjugacy_deviations(sys: QPSystem, qmts, X0, steps: int
                         ) -> tuple[np.ndarray, np.ndarray, dict[int, str]]:
    """Largest one-step defect of each trial's conjugacy, the drift of
    each trial's class invariants, and the guards that stopped trials.

    A QMT x = y^C conjugates ``sys``, F, to ``apply_qmt(sys, C)``, G,
    when ``F(y^C) = G(y)^C`` for every state, one step at a time, and G
    keeps F's class invariants.  Each trial's G is built once, and both
    measures read it: its drift, ``max(|B'A' - BA|, |B'lam' - B lam|)``,
    guarded or not (``apply_qmt`` raises NonFinite for a G that
    overflows), and its defect.  Trial i runs the direct orbit x_0 =
    ``X0[i]``, ..., x_steps of sys, maps each state to y_t with log y_t =
    C^-1 log x_t (``transform.map_states``, whose exact identity shortcut
    gives an identity QMT a defect of exactly 0), steps G once on those states
    (``systems.advance``) and takes the largest componentwise relative
    defect ``max |expm1(log G(y_t) C^T - log x_(t+1))|`` over t < steps.
    A chaotic orbit amplifies rounding step by step; a one-step defect
    does not.

    The direct orbits of consecutive trials are rows of one lockstep
    run, at most ``max(1, BLOCK_DOUBLES // ((steps + 1) n))`` at a time,
    so the recorded orbits stay within BLOCK_DOUBLES doubles.  A row
    is, to the bit, its trial's own orbit.  ``guards`` maps each trial
    whose check hit a guard to its ``GuardTermination`` message, and that
    trial's deviation is NaN.  A guarded direct orbit stops only its
    trial, with "direct orbit terminated early: (17, 'overflow')";
    along a whole orbit the first guard in step order names the trial:
    "conjugate initial state: state mapping hit the overflow guard",
    the same for a later state t as "conjugate state t: ...", or
    "conjugate state t: step hit the overflow guard" when the one-step
    image of y_t is guarded.
    """
    n = sys.n
    X0 = [as_state(x0, n) for x0 in X0]
    if len(qmts) != len(X0):
        raise InvalidArgument(
            f"{len(qmts)} transformations for {len(X0)} initial states")
    if steps < 1:
        raise InvalidArgument("steps must be at least 1")
    size = max(1, BLOCK_DOUBLES // ((steps + 1) * n))
    base = class_invariants(sys)
    deviations = np.full(len(X0), np.nan)
    drifts = np.empty(len(X0))
    guards = {}
    for start in range(0, len(X0), size):
        direct = _lockstep(sys, np.array(X0[start:start + size]), steps,
                           record=range(steps + 1))
        stopped = {i: (t, reason) for i, t, reason in direct.guards}
        for i, qmt in enumerate(qmts[start:start + size]):
            image = apply_qmt(sys, qmt)
            other = class_invariants(image)
            drifts[start + i] = max(
                np.max(np.abs(other.interaction - base.interaction)),
                np.max(np.abs(other.growth - base.growth)))
            if i in stopped:
                guards[start + i] = (
                    f"direct orbit terminated early: {stopped[i]}")
                continue
            deviations[start + i], guard = _one_step_defect(
                image, qmt, direct.record[:, i])
            if guard is not None:
                guards[start + i] = guard
    return deviations, drifts, guards


def conjugacy_deviation(sys: QPSystem, qmt: QMTMatrix, x0, steps: int) -> float:
    """``conjugacy_deviations`` of one trial.  Raises GuardTermination
    with its guard message if the check hit a guard."""
    (deviation,), _, guards = conjugacy_deviations(sys, [qmt], [x0], steps)
    if guards:
        raise GuardTermination(guards[0])
    return float(deviation)
