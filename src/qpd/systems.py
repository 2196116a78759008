"""Core data types for quasipolynomial (QP) and Lotka-Volterra (LV) maps.

A QP system iterates, on the open positive orthant,

    x_i(t+1) = x_i(t) * exp(lam_i + sum_j A[i,j] * prod_k x_k(t)**B[j,k])

with square real matrices A, B and a real vector lam.  The products
``prod_k x_k**B[j,k]`` are the quasimonomial terms of the map.  LV systems
are the special case B = identity, where these terms are the state
components themselves.

This module owns validation, the one map kernel (``MapStep``, which
runs every orbit block by block, with or without tangent vectors, and
owns its rows, guards, shadows and tangent growth; its guard rule
``guard_codes``; ``advance``, one step of it; ``QPStack``, systems that
``advance`` steps once, side by side; and the batch rule ``as_batch``
with ``row_product``, the one product of rows outside the kernel),
sign-pattern extraction, and the system-definition JSON schema used by
fixtures and the command line.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

try:  # the C function that np.einsum calls
    from numpy._core.multiarray import c_einsum
except ImportError:  # numpy < 2
    from numpy.core.multiarray import c_einsum

from .errors import (
    DimensionMismatch,
    InvalidArgument,
    NonFinite,
    NonPositiveState,
    OverflowGuard,
    ParseError,
    SchemaError,
)

#: Default tolerance for classifying a value as zero in sign patterns and
#: in strict/non-strict inequality checks.  Fixed and documented so that
#: classification verdicts are reproducible.
DEFAULT_SIGN_TOL = 1e-9

#: Guard bound on exponent arguments: a step whose exponent exceeds this in
#: absolute value is rejected (near the double-precision exp limit) rather
#: than silently producing inf or a collapsed zero.
EXP_ARG_LIMIT = 700.0

#: A state component below this floor terminates the orbit (extinction-like
#: collapse, distinguished from roundoff zero).
UNDERFLOW_FLOOR = 1e-300

#: Steps per block of a ``MapStep``, which checks the guard once over
#: each block, not once per step.
BLOCK_STEPS = 64

#: Storage cap of one ``MapStep`` block: what it stores a step for m rows,
#: 3 m n doubles or m (6 n + 1) with tangents, stays at most 2**20 doubles
#: (8 MiB) besides the block's start state, so a large batch takes shorter
#: blocks, down to one step, rather than more memory.  A kernel replays
#: a cycle of L steps only while the copies it can still read, min(L,
#: steps left) m n doubles, fit in it.  This module alone sizes storage.
BLOCK_DOUBLES = 2**20

#: Guard codes returned by ``guard_codes``, and the reason label of each.
GUARD_OK, GUARD_OVERFLOW, GUARD_UNDERFLOW = 0, 1, 2
GUARD_REASONS = (None, "overflow", "underflow")

#: Sign-pattern symbols.
PLUS = 1
MINUS = -1
ZERO = 0

_SYMBOLS = {PLUS: "+", MINUS: "-", ZERO: "0"}


def _frozen(a):
    """Copy to a C-contiguous read-only float array."""
    out = np.array(a, dtype=float, order="C")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class QPSystem:
    """A quasipolynomial discrete-time system (A, B, lam).

    Immutable after construction; all fields are validated and stored as
    read-only arrays, so instances are safe to share across threads.
    """

    A: np.ndarray
    B: np.ndarray
    lam: np.ndarray
    name: str | None = None

    def __post_init__(self):
        A = _frozen(self.A)
        B = _frozen(self.B)
        lam = _frozen(self.lam)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionMismatch(f"A must be square, got shape {A.shape}")
        n = A.shape[0]
        if B.shape != (n, n):
            raise DimensionMismatch(f"B must be {n}x{n}, got shape {B.shape}")
        if lam.shape != (n,):
            raise DimensionMismatch(
                f"lam must have length {n}, got shape {lam.shape}"
            )
        for label, arr in (("A", A), ("B", B), ("lam", lam)):
            if not np.all(np.isfinite(arr)):
                raise NonFinite(f"{label} contains NaN or infinite entries")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "lam", lam)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def to_dict(self) -> dict:
        """System-definition document (the JSON schema used by the CLI)."""
        return {
            "name": self.name or "",
            "n": self.n,
            "A": self.A.tolist(),
            "B": self.B.tolist(),
            "lambda": self.lam.tolist(),
        }


class LVSystem(QPSystem):
    """A Lotka-Volterra system: the QPSystem (A, I, lam)."""

    def __init__(self, A, lam, name=None):
        super().__init__(A, np.eye(len(np.atleast_1d(A))), lam, name)


class QPStack(NamedTuple):
    """k systems on a leading axis, A and B (k, n, n) and lam (k, n),
    not validated: ``advance`` steps a stack's (k, m, n) rows once, as
    one batch, the m rows of slice i by system i; no run steps a
    stack."""

    A: np.ndarray
    B: np.ndarray
    lam: np.ndarray


def as_state(x, n) -> np.ndarray:
    """Validate a strictly positive state vector of length n and return it
    as float64."""
    out = np.asarray(x, dtype=float)
    if out.ndim != 1:
        raise DimensionMismatch(f"state must be a vector, got shape {out.shape}")
    if out.shape != (n,):
        raise DimensionMismatch(f"state must have length {n}, got {out.shape[0]}")
    if not np.all(np.isfinite(out)):
        raise NonFinite("state contains NaN or infinite entries")
    if np.any(out <= 0.0):
        raise NonPositiveState(f"state must be strictly positive, got {out.tolist()}")
    return out


def as_states(X, n) -> np.ndarray:
    """Validate a sequence of m strictly positive states of length n and
    return them as (m, n) float64 rows, in one check; a bad row raises
    what ``as_state`` raises for the first one."""
    try:
        out = np.asarray(X, dtype=float)
    except ValueError:  # rows of several lengths
        out = None
    if out is None or out.shape != (len(X), n) or not (
            np.isfinite(out) & (out > 0.0)).all():
        for x in X:
            as_state(x, n)
    return out.reshape(len(X), n)  # no rows: (0, n)


class MapStep:
    """The one map kernel: a run of steps of the QP map for m rows, which
    may carry tangent vectors, stepped and checked a block at a time.

    In log coordinates u = log x the map is u' = u + lam + A exp(B u).  A
    step computes the log quasimonomials ``W = log X B^T``, the
    quasimonomial terms ``q = exp(W)``, the step exponents
    ``arg = lam + q A^T`` and the images ``X' = X * exp(arg)``, not
    ``exp(log X + arg)``, so that a zero exponent reproduces the state
    exactly.  A tangent row v steps to v + A (q * B v) and is renormalized,
    keeping the norm it was divided by.  The log-states and tangent rows
    share one (2m, n) operand ``P = [log X; V]``, so one matmul gives
    ``P B^T = [W; V B^T]`` and a second gives
    ``[q; q * V B^T] A^T = [q A^T; (q * V B^T) A^T]``.

    Built once per run from its system, its rows X0, (m, n) or one (n,)
    vector, its number of steps and its ``tangents``, ``(start, V)`` with
    V shaped like X0, or None.  It steps the m rows of ``as_batch(X0)``:
    ``live`` marks X0's own, never the copy that pads an odd batch.  The
    system may be a ``QPStack`` of k systems instead, with X0 (k, m, n),
    one step and no tangents, stepped by ``step()`` alone, through
    ``advance``: then every buffer below has that stack axis before its
    rows, and the two matmuls multiply slice i by system i's contiguous
    transposes.  It allocates every buffer of a block of ``size`` steps:
    at most BLOCK_STEPS and ``steps``, and at most BLOCK_DOUBLES over
    what a step stores, but at least one.  A step stores 3 m n doubles
    (3 k m n for a stack), its states ``S``, log quasimonomials ``W``
    and step exponents ``arg``, since without tangents one operand
    ``log X`` serves every step; with tangents it stores m (6 n + 1):
    the states, the operands ``[log X; V]``, whose
    bottom halves are the tangent rows ``V``, ``[W; V B^T]``, whose top
    half is ``W``, the step exponents and the tangent ``norms``.  So ``S``
    is (size + 1, m, n) with S[0] = X0, ``arg`` and ``W`` are
    (size, m, n), ``V`` is (size + 1, m, n) and ``norms`` (size + 1, m).
    ``step(j)`` advances the rows S[j] into S[j + 1] and writes W[j] and
    arg[j]; with tangents it also advances V[j] into V[j + 1] and writes
    the norms of the tangent rows before renormalization into
    norms[j + 1].  The transposes of A and B are contiguous copies, taken
    once, and lam is tiled to (m, n) once.  A step is 7 numpy calls, 2 of
    them matmuls, and 5 more with tangents; every operand is a buffer or
    view made here.  A step is bound by call overhead, so it calls numpy
    at its floor: each ufunc and matmul takes its out positionally,
    which numpy parses faster than a keyword, and the tangent norms are
    one call of ``c_einsum``, the C function that ``np.einsum`` calls,
    with its bits and without its Python wrapper (``np.vecdot`` and a
    sum of squares round otherwise).  Nothing is checked by a step, and
    a state past a guard gives inf, NaN or 0 entries, so run the kernel
    under ``np.errstate``.

    ``blocks()`` runs the horizon a block at a time, checking the guard
    once a block.  It yields ``(t, k)`` once S[:k] holds steps
    t .. t + k - 1 of the rows ``live``, an (m,) mask, at the block's
    start, and last ``(t, 1)`` for step t in S[0]: the final step, the
    step at which no row is live, or, once the run replays, the last
    step it ran, the one before the replay's start.  A block that trips
    the guard ends at its first guarded step: before the yield its
    guarded rows join ``guards``, ``(row, t, reason)`` in step order,
    rows ascending, t the step whose transition was guarded; after it
    they leave ``live``, and every row not live copies the first live
    row, a shadow that cannot trip again.  With tangents, ``growth``
    sums each row's log tangent growth over the transitions out of the
    steps t >= start, one ``np.log`` of a block's raw norms and one
    axis-0 ``np.add.reduce`` in step order.  ``stepped`` counts every
    step it computed, the steps of a tripped block after its cut
    included, so a guarded run may count more than ``steps``.

    A float orbit lives on a finite set, so a row that settles on an
    attracting fixed point or cycle repeats bit for bit, renormalized
    tangent included, and within one run a row's next state is a fixed
    function of its own bits.  So after a block that trips no guard,
    while the run has steps left, ``_cycle`` looks for each row's last
    state among its earlier ones.  Once every row repeats, with periods
    p_r, the batch repeats with period L = lcm(p_r), and the run is
    replayed: ``replay`` is None until the block that finds the cycle
    yields, then ``_cycle``'s ``(start, (states, logs))``, and no later
    step is run or checked, nor its state stored in S.  Step T >= start
    is copy ``(T - start) % len(states)``, which tripped no guard, and
    which wraps only when all L are stored: a batch whose period is
    longer than a block is replayed all the same, while its copies,
    min(L, steps left) states, fit in BLOCK_DOUBLES.  A reader takes the
    replayed states it needs from the copies; ``blocks()`` only adds the
    copies' logged tangent norms to ``growth``, in step order, at most a
    block of steps at a time through ``norms``, so the sum keeps the bits
    of the stepped run's: a sequence of additions, not a closed form.
    """

    def __init__(self, sys: QPSystem | QPStack, X0, steps, tangents=None):
        given = 1 if np.ndim(X0) == 1 else np.shape(X0)[-2]
        X0 = as_batch(X0)
        *stack, m, n = X0.shape
        start, V = tangents or (0, None)
        per_step = 3 * X0.size if V is None else m * (6 * n + 1)
        size = max(1, min(BLOCK_STEPS, steps,
                          BLOCK_DOUBLES // max(1, per_step)))
        rows = m if V is None else 2 * m
        S, arg = np.empty((size + 1, *X0.shape)), np.empty((size, *X0.shape))
        S[0] = X0
        self.size, self.S, self.arg = size, S, arg
        self.steps, self.stepped, self.replay = steps, 0, None
        self.live = np.arange(m) < given
        self.guards: list[tuple[int, int, str]] = []
        # without tangents every step shares the one operand P[0]
        P = np.empty((1 if V is None else size + 1, *stack, rows, n))
        WV, Q, R = (np.empty((size, *stack, rows, n)),
                    np.empty((*stack, rows, n)), np.empty((*stack, rows, n)))
        self.W, self.q, self._qA = (WV[..., :m, :], Q[..., :m, :],
                                    R[..., :m, :])
        # contiguous copies multiply faster than the transposed views
        self._At = np.ascontiguousarray(np.swapaxes(sys.A, -1, -2))
        self._Bt = np.ascontiguousarray(np.swapaxes(sys.B, -1, -2))
        self._lam = np.repeat(sys.lam[..., None, :], m, axis=-2)
        self._Q, self._R = Q, R
        self.V = self.norms = self.growth = None
        tangent = [None] * size
        if V is not None:
            P[0, m:] = as_batch(V)
            self.V, self.norms = P[:, m:], np.empty((size + 1, m))
            self._start, self.growth = start, np.zeros(m)
            self._qVB, self._dV = Q[m:], R[m:]
            tangent = [(WV[j, m:], P[j, m:], P[j + 1, m:], self.norms[j + 1],
                        self.norms[j + 1, :, None]) for j in range(size)]
        operands = [P[0]] * size if V is None else P[:size]
        self._steps = [(S[j], Pj[..., :m, :], Pj, WV[j], self.W[j], arg[j],
                        S[j + 1], tangent[j]) for j, Pj in enumerate(operands)]

    def step(self, j):
        """Advance the rows S[j], and their tangent rows, by one step."""
        X, logX, P, WV, W, arg, out, tangent = self._steps[j]
        q = self.q
        np.log(X, logX)
        np.matmul(P, self._Bt, WV)
        np.exp(W, q)
        if tangent:
            VB, V, Vn, s, s_col = tangent
            np.multiply(q, VB, self._qVB)
        np.matmul(self._Q, self._At, self._R)
        np.add(self._qA, self._lam, arg)
        np.multiply(X, np.exp(arg, out), out)
        if tangent:
            np.add(V, self._dV, Vn)
            np.sqrt(c_einsum("ij,ij->i", Vn, Vn, out=s), s)
            np.divide(Vn, s_col, Vn)

    def blocks(self):
        """Run the horizon block by block, as the class docstring says."""
        S, V, norms, live, t = self.S, self.V, self.norms, self.live, 0
        while t < self.steps and live.any() and self.replay is None:
            k, guarded = min(self.size, self.steps - t), None
            for j in range(k):
                self.step(j)
            self.stepped += k
            W, arg, Xn = self.W[:k], self.arg[:k], S[1:k + 1]
            guard = (None if _within_limits(W, arg, Xn)
                     else guard_codes(W, arg, Xn) * live)
            if guard is not None and guard.any():
                # the block ends at its first guarded step
                k = int(np.argmax(guard.any(axis=1))) + 1
                guarded = np.flatnonzero(guard[k - 1])
                self.guards += [(int(i), t + k - 1,
                                 GUARD_REASONS[guard[k - 1, i]])
                                for i in guarded]
            elif t + k < self.steps:
                self.replay = _cycle(t, k, S, V, norms, self.steps - t - k)
            if norms is not None and t + k > self._start:
                j = max(self._start - t, 0)
                np.log(norms[j + 1:k + 1], out=norms[j + 1:k + 1])
                self._grow(j, k)
            yield t, k
            t += k
            S[0] = S[k]
            if V is not None:
                V[0] = V[k]
            if guarded is not None:  # its guarded rows become shadows
                live[guarded] = False
                if live.any():
                    source = np.argmax(live)
                    S[0][~live] = S[0][source]
                    if V is not None:
                        V[0][~live] = V[0][source]
        if self.replay is not None and norms is not None:
            start, (_, logs) = self.replay
            L = len(logs)
            # the logs, then their first size - 1 again: the copies of any
            # size consecutive steps are one slice
            logs = logs[np.arange(L + self.size - 1) % L]
            for u in range(max(t, self._start), self.steps, self.size):
                k = min(self.size, self.steps - u)
                i = (u + 1 - start) % L
                norms[1:k + 1] = logs[i:i + k]
                self._grow(0, k)
        yield t, 1

    def _grow(self, j, k):
        """Add the log norms[j + 1:k + 1] to ``growth`` in step order: one
        axis-0 ``np.add.reduce``, norms[j] carrying the sum."""
        self.norms[j] = self.growth
        np.add.reduce(self.norms[j:k + 1], axis=0, out=self.growth)


def guard_codes(W, arg, Xn):
    """The guard code of each image a ``MapStep`` made, for any leading
    shape: a code per vector of the last axis.

    GUARD_OVERFLOW when a log quasimonomial or a step exponent exceeds
    +EXP_ARG_LIMIT or the image is not finite, GUARD_UNDERFLOW when a step
    exponent is below -EXP_ARG_LIMIT or a component falls below
    UNDERFLOW_FLOOR, else GUARD_OK.  The limits are checked on the extrema
    of the whole array first, ``_within_limits``; per-vector codes are
    computed only when that check trips, which a NaN anywhere also does.
    """
    if _within_limits(W, arg, Xn):
        return np.zeros(Xn.shape[:-1], dtype=int)
    # vector extrema keep the guard cheap for one row; NaN fails "< inf"
    over = ((W.max(axis=-1) > EXP_ARG_LIMIT)
            | (arg.max(axis=-1) > EXP_ARG_LIMIT)
            | ~(Xn.max(axis=-1) < np.inf))
    under = ((arg.min(axis=-1) < -EXP_ARG_LIMIT)
             | (Xn.min(axis=-1) < UNDERFLOW_FLOOR))
    return np.where(over, GUARD_OVERFLOW,
                    np.where(under, GUARD_UNDERFLOW, GUARD_OK))


def _within_limits(W, arg, Xn):
    """Whether ``guard_codes`` finds no guard, from whole-array extrema;
    an empty batch has none."""
    return (W.max(initial=-np.inf) <= EXP_ARG_LIMIT
            and -EXP_ARG_LIMIT <= arg.min(initial=np.inf)
            and arg.max(initial=-np.inf) <= EXP_ARG_LIMIT
            and UNDERFLOW_FLOOR <= Xn.min(initial=np.inf)
            and Xn.max(initial=-np.inf) < np.inf)


def _cycle(t, k, S, V, norms, left):
    """The cycle of a block of k steps from step t that tripped no guard,
    with ``left`` steps of the run after it: ``(start, (states,
    logs))``, or None when some row's last state ``(S[k], V[k])``
    equals none of its earlier ones bit for bit.

    Within one run a row's next state is a fixed function of its own
    bits, so a row r whose last state equals its state at a_r < k repeats
    with period p_r = k - a_r from step t + a_r on.  For the largest such
    a_r of each row, every later batch is a replay: from ``start = t + k
    + 1`` on, the batch of step T is copy ``(T - start) % L``, L the lcm
    of the periods.  The copies are the ones the run can still read,
    min(L, ``left``), so step T is copy ``(T - start) % len(states)``;
    they are gathered from each row's last period in the block, and
    ``logs`` holds the log of each copy's raw tangent norm, the growth of
    the transition into it, or is None without tangents: one ``np.log``
    a copy, of the double a stepped run would log.  A cycle whose copied
    states hold more than BLOCK_DOUBLES doubles is None.  Bit patterns
    are compared, since ``-0.0 == 0.0`` and ``NaN != NaN``, by
    ``_rows_equal``, a column at a time; the states of every row are
    compared only when row 0 repeats, and the tangents only when every
    state does."""
    bits = S[:k + 1].view(np.int64)
    if not _rows_equal(bits[:k, 0], bits[k, 0]).any():
        return None
    same = _rows_equal(bits[:k], bits[k])
    if V is not None and same.any(axis=0).all():  # every state repeats
        tangent = V[:k + 1].view(np.int64)
        same &= _rows_equal(tangent[:k], tangent[k])
    if not same.any(axis=0).all():
        return None
    a = k - 1 - np.argmax(same[::-1], axis=0)  # each row's largest a_r
    p = k - a
    stored = min(math.lcm(*set(p.tolist())), left)  # np.lcm overflows
    if stored * bits[0].size > BLOCK_DOUBLES:
        return None
    # block step k + 1 + i of row r is its block step a_r + 1 +
    # (k + i - a_r) % p_r, within its last period
    at = a + 1 + (np.arange(k, k + stored)[:, None] - a) % p
    rows = np.arange(len(a))
    return t + k + 1, (S[at, rows],
                       None if norms is None else np.log(norms[at, rows]))


def _rows_equal(a, b):
    """``(a == b).all(axis=-1)``, one column of the last axis at a time:
    numpy reduces a short last axis slowly, one inner loop a row, so for
    rows of up to about ten components the columns are faster."""
    same = a[..., 0] == b[..., 0]
    for i in range(1, a.shape[-1]):
        same &= a[..., i] == b[..., i]
    return same


def as_batch(X) -> np.ndarray:
    """The rows a product multiplies for X, (m, n) rows, a (k, m, n) stack
    or one (n,) vector (m = 1): X's rows, and a copy of row 0 if m is odd.
    OpenBLAS rounds a lone row, or an odd batch's last, otherwise than a
    pair on some CPUs, and no row may depend on its batch-mates: ``MapStep``
    steps these rows and ``row_product`` multiplies them."""
    X = np.asarray(X, dtype=float)
    X = X[None] if X.ndim == 1 else X
    return np.concatenate((X, X[..., :1, :]), -2) if X.shape[-2] % 2 else X


def row_product(X, M) -> np.ndarray:
    """``as_batch(X) @ M`` cut to X's own rows and shape: the one product
    of rows outside the map kernel; M may be a (k, n, n) stack for a
    (k, m, n) stack X."""
    out = as_batch(X) @ M
    return out[0] if np.ndim(X) == 1 else out[..., :np.shape(X)[-2], :]


def advance(sys: QPSystem | QPStack, X):
    """One guarded step of the QP map for each row of X: one step of
    ``MapStep(sys, X, 1)``, labelled by ``guard_codes``.

    X holds already-validated positive states, as (m, n) rows or one (n,)
    vector, or as a (k, m, n) stack of rows for a ``QPStack`` of k
    systems; the kernel steps them as ``as_batch`` rows.  Returns, for
    X's own rows, ``(X', q, guard)``: the images, the quasimonomial terms
    and a guard code per row, valid X' only where it is GUARD_OK: the
    per-step check of ``step``, ``qp_jacobian`` and the conjugacy defect.
    """
    X = np.asarray(X)
    kernel = MapStep(sys, X, 1)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        kernel.step(0)
        guard = guard_codes(kernel.W[0], kernel.arg[0], kernel.S[1])
    if X.ndim == 1:
        return kernel.S[1, 0], kernel.q[0], guard[0]
    m = X.shape[-2]
    return kernel.S[1][..., :m, :], kernel.q[..., :m, :], guard[..., :m]


def step(sys: QPSystem, x) -> np.ndarray:
    """One iteration of the QP map; strictly positive in, strictly positive out.

    Raises OverflowGuard when ``advance`` guards the step, whether it
    would overflow or collapse below UNDERFLOW_FLOOR.
    """
    out, _, guard = advance(sys, as_state(x, sys.n))
    if guard != GUARD_OK:
        raise OverflowGuard(f"step hit the {GUARD_REASONS[guard]} guard")
    return out


def sign_pattern(M, tol=DEFAULT_SIGN_TOL) -> np.ndarray:
    """Sign pattern of a real array: entries in {MINUS, ZERO, PLUS}.

    Entry (i, j) is ZERO iff |M[i,j]| <= tol, else the sign of M[i,j].
    """
    if not tol >= 0:  # NaN included
        raise InvalidArgument("tol must be nonnegative")
    M = np.asarray(M, dtype=float)
    pat = np.sign(M).astype(np.int8)
    pat[np.abs(M) <= tol] = ZERO
    return pat


def pattern_string(pattern) -> str:
    """Render a sign pattern with the symbols '+', '-', '0'."""
    pattern = np.atleast_2d(pattern)
    return "[" + "; ".join(
        " ".join(_SYMBOLS[int(v)] for v in row) for row in pattern
    ) + "]"


def is_lotka_volterra(sys: QPSystem, tol=DEFAULT_SIGN_TOL) -> bool:
    """True iff the exponent matrix is the identity within tolerance."""
    return bool(np.max(np.abs(sys.B - np.eye(sys.n))) <= tol)


# ---------------------------------------------------------------------------
# System-definition JSON schema:
#   {"name": "...", "n": 2, "A": [[...],[...]], "B": [[...],[...]],
#    "lambda": [...]}
# ---------------------------------------------------------------------------

def system_from_dict(doc: dict) -> QPSystem:
    """Parse a system-definition document, validating the schema strictly."""
    if not isinstance(doc, dict):
        raise SchemaError("system definition must be a JSON object")
    for key in ("n", "A", "B", "lambda"):
        if key not in doc:
            raise SchemaError(f"missing required key {key!r}")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise SchemaError("'name' must be a string")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise SchemaError("'n' must be a positive integer")

    def matrix(key):
        raw = doc[key]
        if (
            not isinstance(raw, list)
            or len(raw) != n
            or any(not isinstance(row, list) or len(row) != n for row in raw)
        ):
            raise SchemaError(f"{key!r} must be an {n}x{n} nested array")
        if any(isinstance(v, bool) or not isinstance(v, (int, float))
               for row in raw for v in row):
            raise SchemaError(f"{key!r} entries must be numbers")
        return np.array(raw, dtype=float)

    raw_lam = doc["lambda"]
    if not isinstance(raw_lam, list) or len(raw_lam) != n or any(
        isinstance(v, bool) or not isinstance(v, (int, float)) for v in raw_lam
    ):
        raise SchemaError(f"'lambda' must be a numeric array of length {n}")

    try:
        return QPSystem(matrix("A"), matrix("B"),
                        np.array(raw_lam, dtype=float), name=name or None)
    except (DimensionMismatch, NonFinite) as exc:
        raise SchemaError(str(exc)) from exc


def load_system(path) -> QPSystem:
    """Load a system-definition JSON file.

    Raises ParseError on a file that is not UTF-8 text, on malformed JSON
    (naming the line and column) and on JSON nested too deeply to parse,
    and SchemaError on a well-formed document that does not match the
    schema.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.loads(fh.read())
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte "
                         f"{exc.start}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise ParseError("invalid JSON: arrays or objects nested too "
                         "deeply") from None
    return system_from_dict(doc)
