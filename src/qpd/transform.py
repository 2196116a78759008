"""Quasimonomial transformations and the canonical Lotka-Volterra form.

A quasimonomial transformation (QMT) is the change of variables

    x_i = prod_j y_j ** C[i,j],      det C != 0,

which maps a QP system (A, B, lam) to the QP system

    A' = C^-1 A,   B' = B C,   lam' = C^-1 lam.

Every QMT is a topological conjugacy, so two systems related by one share
all their dynamics.  The products ``B A`` and ``B lam`` are unchanged by
any QMT; they are the interaction matrix and growth vector of the unique
LV system in the class, reached with C = B^-1 whenever B is invertible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, NonFinite, OverflowGuard, SingularB,
                     SingularMatrix)
from .systems import (GUARD_OK, GUARD_REASONS, LVSystem, QPStack, QPSystem,
                      as_state, guard_codes, row_product, _frozen)

#: Relative singular-value floor: a matrix is treated as singular when
#: rcond = s_min / s_max < SINGULARITY_RTOL, which no rescaling changes.
SINGULARITY_RTOL = 1e-10

#: Post-condition on a computed inverse: max |M @ M_inv - I| must not
#: exceed this, or M is treated as singular after all.
INVERSE_RESIDUAL_LIMIT = 1e-9


def invertibility(M) -> tuple[np.ndarray | None, dict]:
    """The one singularity decision: ``(inverse or None, witness)``.

    The witness holds ``rcond`` (0 for a zero or non-finite matrix,
    which no LAPACK call sees) and the ``tolerance`` it was compared
    with, plus ``inverse_residual`` when the inverse ``solve(M, I)`` was
    computed.

    M may be a (k, n, n) stack instead: then the inverse is a stack whose
    slice i is NaN where M[i] is singular, and ``rcond`` and
    ``inverse_residual`` are (k,) arrays, the residual NaN where no
    inverse was computed.  Slice i decides, to the bit, as M[i] alone:
    one matrix is the stack of one.
    """
    M = np.asarray(M, dtype=float)
    stack = M.reshape(-1, *M.shape[-2:])
    finite = np.isfinite(stack).all(axis=(1, 2))[:, None, None]
    s = np.linalg.svd(np.where(finite, stack, 0.0), compute_uv=False)
    rcond = np.divide(s[:, -1], s[:, 0], out=np.zeros(len(s)),
                      where=s[:, 0] > 0.0)
    solved = rcond >= SINGULARITY_RTOL
    # a slice that is not solved is inverted as the identity, then dropped
    eye = np.eye(stack.shape[-1])
    posed = np.where(solved[:, None, None], stack, eye)
    inv = np.linalg.solve(posed, eye)
    residual = np.abs(posed @ inv - eye).max(axis=(1, 2))
    residual[~solved] = np.nan
    inv[~(residual <= INVERSE_RESIDUAL_LIMIT)] = np.nan
    if M.ndim == 3:
        return inv, {"rcond": rcond, "tolerance": SINGULARITY_RTOL,
                     "inverse_residual": residual}
    witness = {"rcond": float(rcond[0]), "tolerance": SINGULARITY_RTOL}
    if not solved[0]:
        return None, witness
    witness["inverse_residual"] = float(residual[0])
    return (inv[0] if residual[0] <= INVERSE_RESIDUAL_LIMIT else None), witness


def _invert(M, what, error=SingularMatrix):
    """Dense inverse, or ``error`` naming the failed singularity test."""
    inv, witness = invertibility(M)
    if inv is None:
        detail = f"rcond = {witness['rcond']:.3e}"
        if "inverse_residual" in witness:
            detail += f", inverse residual {witness['inverse_residual']:.3e}"
        raise error(f"{what} is singular within tolerance ({detail})")
    return inv


@dataclass(frozen=True)
class QMTMatrix:
    """An invertible transformation matrix with its precomputed inverse.

    The inverse is stored explicitly because state mapping is applied
    repeatedly and the matrices here are small and dense.  C and C_inv
    may be (k, n, n) stacks of k transformations instead.
    """

    C: np.ndarray
    C_inv: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "C", _frozen(self.C))
        object.__setattr__(self, "C_inv", _frozen(self.C_inv))

    @classmethod
    def from_matrix(cls, C) -> "QMTMatrix":
        """Validate invertibility and precompute the inverse."""
        C = np.asarray(C, dtype=float)
        if C.ndim != 2 or C.shape[0] != C.shape[1]:
            raise DimensionMismatch(f"C must be square, got shape {C.shape}")
        return cls(C, _invert(C, "transformation matrix"))

    @classmethod
    def identity(cls, n: int) -> "QMTMatrix":
        return cls(np.eye(n), np.eye(n))

    @property
    def n(self) -> int:
        return self.C.shape[-1]

    def inverse(self) -> "QMTMatrix":
        return QMTMatrix(self.C_inv, self.C)

    def condition(self) -> float | np.ndarray:
        """Infinity-norm condition estimate ||C|| * ||C^-1||, one for each
        slice of a stack, NaN for a NaN inverse."""
        norm = lambda M: np.max(np.sum(np.abs(M), axis=-1), axis=-1)
        condition = norm(self.C) * norm(self.C_inv)
        return float(condition) if condition.ndim == 0 else condition


@dataclass(frozen=True)
class ClassInvariants:
    """The QMT invariants of a system: interaction = B A, growth = B lam.

    Identical for every system in a transformation class, and equal to
    the matrices of its canonical LV representative.
    """

    interaction: np.ndarray
    growth: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "interaction", _frozen(self.interaction))
        object.__setattr__(self, "growth", _frozen(self.growth))


def class_invariants(sys: QPSystem | QPStack) -> ClassInvariants:
    """Compute the transformation-class invariants (B A, B lam), of each
    system of a stack on its leading axis; a product that overflows holds
    inf or NaN entries."""
    with np.errstate(over="ignore", invalid="ignore"):
        return ClassInvariants(sys.B @ sys.A,
                               (sys.B @ sys.lam[..., None])[..., 0])


def finite_class_invariants(sys: QPSystem) -> ClassInvariants:
    """``class_invariants``, or NonFinite naming an invariant that
    overflows the double range: no canonical form exists then, and no
    transformation of the system can be checked against them."""
    inv = class_invariants(sys)
    for label, part in (("B A", inv.interaction), ("B lam", inv.growth)):
        if not np.all(np.isfinite(part)):
            raise NonFinite(f"class invariant {label} overflows")
    return inv


def apply_qmt(sys: QPSystem, qmt: QMTMatrix) -> QPSystem:
    """Transform a system by a QMT: A' = C^-1 A, B' = B C, lam' = C^-1 lam.

    Raises NonFinite naming the transformed matrix that overflows.
    """
    (A,), (B,), (lam,) = apply_qmts(sys, [qmt])
    return QPSystem(A, B, lam, name=sys.name)


def apply_qmts(sys: QPSystem, qmts) -> QPStack:
    """The images of a system under each of a sequence of QMTs, as one
    stack: slice i is ``apply_qmt(sys, qmts[i])``, to the bit, for each
    product multiplies its slices one by one.  No QMTs give an empty
    stack of k = 0 systems.

    Raises NonFinite naming the first transformed matrix that overflows,
    in the order of the QMTs, then A, B, lam.
    """
    for qmt in qmts:
        if qmt.n != sys.n:
            raise DimensionMismatch(f"transformation is {qmt.n}x{qmt.n} "
                                    f"but system has dimension {sys.n}")
    C = np.array([qmt.C for qmt in qmts]).reshape(-1, sys.n, sys.n)
    C_inv = np.array([qmt.C_inv for qmt in qmts]).reshape(C.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        images = QPStack(C_inv @ sys.A, sys.B @ C, C_inv @ sys.lam)
    finite = np.array([np.isfinite(M).all(axis=tuple(range(1, M.ndim)))
                       for M in images])
    if not finite.all():
        _, label = np.argwhere(~finite.T)[0]  # (trial, matrix), trial first
        raise NonFinite(f"transformed {QPStack._fields[label]} contains "
                        "NaN or infinite entries")
    return images


def canonical_lv(sys: QPSystem) -> tuple[LVSystem, QMTMatrix]:
    """Reduce a QP system to its canonical LV representative.

    Returns the LV system whose matrices are the class invariants together
    with the transformation C = B^-1 that produces it.  Raises SingularB
    when B is singular within tolerance, and NonFinite when an invariant
    overflows the double range: no canonical form exists then.
    """
    B_inv = _invert(sys.B, "exponent matrix B", SingularB)
    qmt = QMTMatrix(B_inv, sys.B)
    inv = finite_class_invariants(sys)
    return LVSystem(inv.interaction, inv.growth, name=sys.name), qmt


def map_states(C, Y) -> tuple[np.ndarray, np.ndarray]:
    """Map each row of Y, (m, n) positive states or one (n,) vector,
    through the monomial change of variables of the matrix C: ``(X,
    guard)``, the rows ``exp(row_product(log Y, C^T))`` and a guard code
    per row, valid X only where it is GUARD_OK.

    C may be a (k, n, n) stack of matrices instead, with Y a (k, m, n)
    stack of rows: one matmul then multiplies slice i by the ``C^T`` view
    of C[i], to the bit as that matrix would map the slice alone.

    The guard is the one-step map's rule, ``systems.guard_codes`` with
    the exponents ``log Y C^T`` as both the log quasimonomials and the
    step exponents: an exponent above +EXP_ARG_LIMIT is overflow, an image
    component below UNDERFLOW_FLOOR underflow.  The identity, and an
    identity slice of a stack, maps its rows to themselves bit for bit,
    unguarded: the exp/log round trip would wobble by an ulp.
    """
    Y = np.asarray(Y, dtype=float)
    identity = (C == np.eye(C.shape[-1])).all(axis=(-2, -1))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        W = row_product(np.log(Y), np.swapaxes(C, -1, -2))
        X = np.exp(W)
        guard = guard_codes(W, W, X)
    X[identity], guard[identity] = Y[identity], GUARD_OK
    return X, guard


def map_state(qmt: QMTMatrix, y) -> np.ndarray:
    """Map a state through the monomial change of variables.

    x_i = prod_j y_j ** C[i,j], evaluated as ``map_states`` of the one
    state, so a state maps as it does in any batch of rows.  Strictly
    positive in, strictly positive out; raises OverflowGuard naming the
    guard ``map_states`` labels the image with.
    """
    x, guard = map_states(qmt.C, as_state(y, qmt.n))
    if guard != GUARD_OK:
        raise OverflowGuard(
            f"state mapping hit the {GUARD_REASONS[guard]} guard")
    return x
