"""Core data types for quasipolynomial (QP) and Lotka-Volterra (LV) maps.

A QP system iterates, on the open positive orthant,

    x_i(t+1) = x_i(t) * exp(lam_i + sum_j A[i,j] * prod_k x_k(t)**B[j,k])

with square real matrices A, B and a real vector lam.  The products
``prod_k x_k**B[j,k]`` are the quasimonomial terms of the map.  LV systems
are the special case B = identity, where these terms are the state
components themselves.

This module owns validation, the one map kernel (``MapStep``, a block
of steps shared by every orbit, with or without tangent vectors, which
allocates and sizes its own buffers; its guard rule ``guard_codes``;
``advance``, one guarded step of the two; and ``as_batch``, the rows
they multiply), sign-pattern extraction, and the system-definition JSON
schema used by fixtures and the command line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

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

#: Steps per block of a ``MapStep``: the lockstep engine checks the guard
#: once over each block's buffers, not once per step.
BLOCK_STEPS = 64

#: Storage cap of one ``MapStep`` block: what it stores a step for m rows,
#: 3 m n doubles or m (6 n + 1) with tangents, stays at most 2**20 doubles
#: (8 MiB) besides the block's start state, so a large batch takes shorter
#: blocks, down to one step, rather than more memory.  The lockstep
#: engine's stored cycle, m (n + 1) doubles a step or m n without
#: tangents, adds less than half a block.  The recorded direct orbits of
#: a run of conjugacy trials stay within it too.
BLOCK_DOUBLES = 2**20

#: Guard codes returned by ``guard_codes``, and the reason label of each.
GUARD_OK, GUARD_OVERFLOW, GUARD_UNDERFLOW = 0, 1, 2
GUARD_REASONS = (None, "overflow", "underflow")

#: Sign-pattern symbols.
PLUS = 1
MINUS = -1
ZERO = 0

_SYMBOLS = {PLUS: "+", MINUS: "-", ZERO: "0"}


def _frozen(a, dtype=float):
    """Copy to a C-contiguous read-only float array."""
    out = np.array(a, dtype=dtype, order="C")
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


class MapStep:
    """The one map kernel: a block of unchecked steps of the QP map for m
    rows, which may carry tangent vectors.

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

    Built once per batch from its (m, n) rows X0, the number of steps it
    will run and its tangent rows V, (m, n) or None.  It allocates every
    buffer of a block of ``size`` steps: at most BLOCK_STEPS and
    ``steps``, and at most BLOCK_DOUBLES over what a step stores, but at
    least one.  A step stores 3 m n doubles, its states ``S``, log
    quasimonomials ``W`` and step exponents ``arg``, since without
    tangents one operand ``log X`` serves every step; with tangents it
    stores m (6 n + 1): the states, the operands ``[log X; V]``, whose
    bottom halves are the tangent rows ``V``, ``[W; V B^T]``, whose top
    half is ``W``, the step exponents and the tangent ``norms``.  So
    ``S`` is (size + 1, m, n) with S[0] = X0, ``arg`` and ``W`` are
    (size, m, n), ``V`` is (size + 1, m, n) and ``norms`` (size + 1, m).
    ``step(j)`` advances the rows S[j] into S[j + 1] and writes W[j] and
    arg[j]; with tangents it also advances V[j] into V[j + 1] and writes
    the norms of the tangent rows before renormalization into
    norms[j + 1], so a batch can resume after any step of a block.  The
    transposes of A and B are contiguous copies, taken once, and lam is
    tiled to (m, n) once.  A step is 7 numpy calls, 2 of them matmuls,
    and 5 more with tangents; every operand is a buffer or view made
    here.  Nothing is checked, and a state past a guard gives inf, NaN or
    0 entries: run it under ``np.errstate`` and read the block through
    ``guard_codes``.
    """

    def __init__(self, sys: QPSystem, X0, steps, V=None):
        m, n = X0.shape
        per_step = 3 * m * n if V is None else m * (6 * n + 1)
        size = max(1, min(BLOCK_STEPS, steps,
                          BLOCK_DOUBLES // max(1, per_step)))
        rows = m if V is None else 2 * m
        S, arg = np.empty((size + 1, m, n)), np.empty((size, m, n))
        S[0] = X0
        self.size, self.S, self.arg = size, S, arg
        # without tangents every step shares the one operand P[0]
        P = np.empty((1 if V is None else size + 1, rows, n))
        WV, Q, R = (np.empty((size, rows, n)), np.empty((rows, n)),
                    np.empty((rows, n)))
        self.W, self.q, self._qA = WV[:, :m], Q[:m], R[:m]
        # contiguous copies multiply faster than the transposed views
        self._At = np.ascontiguousarray(sys.A.T)
        self._Bt = np.ascontiguousarray(sys.B.T)
        self._lam = sys.lam[None].repeat(m, axis=0)
        self._Q, self._R = Q, R
        self.V = self.norms = None
        tangent = [None] * size
        if V is not None:
            P[0, m:] = V
            self.V, self.norms = P[:, m:], np.empty((size + 1, m))
            self._qVB, self._dV = Q[m:], R[m:]
            tangent = [(WV[j, m:], P[j, m:], P[j + 1, m:], self.norms[j + 1],
                        self.norms[j + 1, :, None]) for j in range(size)]
        operands = [P[0]] * size if V is None else P[:size]
        self._steps = [(S[j], Pj[:m], Pj, WV[j], WV[j, :m], arg[j], S[j + 1],
                        tangent[j]) for j, Pj in enumerate(operands)]

    def step(self, j):
        """Advance the rows S[j], and their tangent rows, by one step."""
        X, logX, P, WV, W, arg, out, tangent = self._steps[j]
        q = self.q
        np.log(X, out=logX)
        np.matmul(P, self._Bt, out=WV)
        np.exp(W, out=q)
        if tangent:
            VB, V, Vn, s, s_col = tangent
            np.multiply(q, VB, out=self._qVB)
        np.matmul(self._Q, self._At, out=self._R)
        np.add(self._qA, self._lam, out=arg)
        np.multiply(X, np.exp(arg, out=out), out=out)
        if tangent:
            np.add(V, self._dV, out=Vn)
            np.sqrt(np.einsum("ij,ij->i", Vn, Vn, out=s), out=s)
            np.divide(Vn, s_col, out=Vn)


def guard_codes(W, arg, Xn):
    """The guard code of each image a ``MapStep`` made, for any leading
    shape: a code per vector of the last axis.

    GUARD_OVERFLOW when a log quasimonomial or a step exponent exceeds
    +EXP_ARG_LIMIT or the image is not finite, GUARD_UNDERFLOW when a step
    exponent is below -EXP_ARG_LIMIT or a component falls below
    UNDERFLOW_FLOOR, else GUARD_OK.  The limits are checked on the extrema
    of the whole array first; per-vector codes are computed only when
    that check trips, which a NaN anywhere also does.
    """
    if (W.max() <= EXP_ARG_LIMIT
            and -EXP_ARG_LIMIT <= arg.min()
            and arg.max() <= EXP_ARG_LIMIT
            and UNDERFLOW_FLOOR <= Xn.min()
            and Xn.max() < np.inf):
        return np.zeros(Xn.shape[:-1], dtype=int)
    # vector extrema keep the guard cheap for one row; NaN fails "< inf"
    over = ((W.max(axis=-1) > EXP_ARG_LIMIT)
            | (arg.max(axis=-1) > EXP_ARG_LIMIT)
            | ~(Xn.max(axis=-1) < np.inf))
    under = ((arg.min(axis=-1) < -EXP_ARG_LIMIT)
             | (Xn.min(axis=-1) < UNDERFLOW_FLOOR))
    return np.where(over, GUARD_OVERFLOW,
                    np.where(under, GUARD_UNDERFLOW, GUARD_OK))


def as_batch(X) -> np.ndarray:
    """The rows that a step multiplies for X, (m, n) rows or one (n,)
    vector: the rows of X, but a lone row twice.  numpy multiplies a
    one-row matrix or a vector through another BLAS kernel, whose rounding
    differs, and an orbit must not depend on which rows share its batch:
    ``advance`` and the lockstep engine both step these rows."""
    X = np.asarray(X, dtype=float)
    X = X.reshape(-1, X.shape[-1])
    return X[[0, 0]] if len(X) == 1 else X


def advance(sys: QPSystem, X):
    """One guarded step of the QP map for each row of X: the one step of
    ``MapStep(sys, as_batch(X), 1)`` and its ``guard_codes``.

    X holds already-validated positive states, as (m, n) rows or one (n,)
    vector.  Returns ``(X', q, guard)``: the images, the quasimonomial
    terms and a guard code per row, valid X' only where it is GUARD_OK.
    This is the per-step check of ``step`` and ``qp_jacobian``; the
    lockstep engine, ``dynamics._lockstep``, runs the same kernel and
    checks a block of steps at once with the same result.
    """
    X = np.asarray(X)
    kernel = MapStep(sys, as_batch(X), 1)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        kernel.step(0)
        guard = guard_codes(kernel.W[0], kernel.arg[0], kernel.S[1])
    rows = slice(len(X)) if X.ndim == 2 else 0
    return kernel.S[1, rows], kernel.q[rows], guard[rows]


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
