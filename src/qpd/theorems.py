"""Mechanical checkers for the permanence/attractivity/chaos criteria.

Each checker tests its hypotheses on the transformation-class invariants
(interaction = B A, growth = B lam) plus invertibility of B, so verdicts
are identical across every system in a QMT class, except T6's: its
``B^-1 >= 0`` becomes ``C^-1 B^-1 >= 0`` under a QMT C.  Inapplicability is a
verdict with a full hypothesis trace, never an error: the point of these
functions is diagnosis.  A negative or non-finite tol is InvalidArgument.

Strict inequalities are checked as ``value < -tol`` and non-strict ones
as ``value <= bound + tol`` with a shared documented tolerance; any
tested quantity within 10*tol of its boundary, and any invertibility
test whose rcond is within a factor of 10 of its tolerance, is flagged
as a boundary warning on the check that tested it.  A verdict is read
off its trace: its applicability, conclusion and boundary warnings are
derived from its checks, never stored beside them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidArgument, WrongDimension
from .systems import (
    DEFAULT_SIGN_TOL,
    MINUS,
    PLUS,
    QPSystem,
    pattern_string,
    sign_pattern,
)
from .transform import class_invariants, invertibility

#: Growth-rate thresholds above which the scalar factor map certifies
#: chaos (single source of truth; the scalar-map scans are compared
#: against these).
DIAMOND_RHO_THRESHOLD = 3.13
MAROTTO_RHO_THRESHOLD = 2.89

# 2x2 interaction patterns appearing in the theorem hypotheses.
COOPERATIVE_PATTERN = np.array([[MINUS, PLUS], [PLUS, MINUS]], dtype=np.int8)
COMPETITIVE_PATTERN = np.array([[MINUS, MINUS], [MINUS, MINUS]], dtype=np.int8)
PREDATOR_PREY_PATTERN = np.array([[MINUS, MINUS], [PLUS, MINUS]], dtype=np.int8)


class Conclusion(str, Enum):
    NOT_PERMANENT = "NotPermanent"
    PERMANENT = "Permanent"
    GLOBALLY_ATTRACTIVE = "GloballyAttractive"
    GLOBAL_ATTRACTOR_EXISTS = "GlobalAttractorExists"
    DISSIPATIVE = "Dissipative"
    CHAOTIC_DIAMOND = "ChaoticDiamond"
    CHAOTIC_MAROTTO = "ChaoticMarotto"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class HypothesisCheck:
    """One tested hypothesis; ``warnings`` are the boundary warnings its
    own test raised."""

    label: str
    passed: bool
    witness: dict
    warnings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {"hypothesis": self.label, "pass": self.passed,
                "witness": self.witness}


@dataclass(frozen=True)
class TheoremVerdict:
    """Outcome of one theorem check, read off its hypothesis trace.

    The verdict is applicable iff every hypothesis passed; its conclusion
    is ``claim`` then and Inconclusive otherwise, and its boundary
    warnings are those of its checks, in trace order.
    """

    theorem_id: str
    claim: Conclusion
    hypotheses: tuple[HypothesisCheck, ...]
    notes: tuple[str, ...] = ()

    @property
    def applicable(self) -> bool:
        return all(h.passed for h in self.hypotheses)

    @property
    def conclusion(self) -> Conclusion:
        return self.claim if self.applicable else Conclusion.INCONCLUSIVE

    @property
    def boundary_warnings(self) -> tuple[str, ...]:
        return tuple(w for h in self.hypotheses for w in h.warnings)

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem_id,
            "applicable": self.applicable,
            "conclusion": self.conclusion.value,
            "hypotheses": [h.to_dict() for h in self.hypotheses],
            "boundary_warnings": list(self.boundary_warnings),
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class HierarchicalOrderWitness:
    """An index rearrangement sigma with P[sigma][:, sigma] having a
    nonnegative upper triangle and strictly positive diagonal."""

    permutation: tuple[int, ...]


def perp(v) -> np.ndarray:
    """Quarter-turn of a 2-vector: (v1, v2) -> (v2, -v1)."""
    v = np.asarray(v, dtype=float)
    if v.shape != (2,):
        raise WrongDimension(f"perp is defined for 2-vectors, got shape {v.shape}")
    return np.array([v[1], -v[0]])


# ---------------------------------------------------------------------------
# hypothesis-check helpers
# ---------------------------------------------------------------------------

def _near(value, boundary, tol):
    return abs(value - boundary) <= 10.0 * tol


def _check_pattern(label, M, template, tol):
    M = np.asarray(M, dtype=float)
    pat = sign_pattern(M, tol)
    passed = bool(np.array_equal(pat, np.asarray(template, dtype=np.int8)))
    warnings = tuple(
        f"{label}: entry {value:.6g} within 10*tol of the sign boundary"
        for value in np.atleast_1d(M).ravel() if _near(value, 0.0, tol))
    return HypothesisCheck(label, passed, {
        "values": M.tolist(),
        "pattern": pattern_string(pat),
        "required": pattern_string(template),
    }, warnings)


def _check_bound(label, value, bound, tol, strictly_above=False):
    """``value > bound`` when ``strictly_above``, else ``value <= bound``,
    each with the shared tolerance."""
    value, bound = float(value), float(bound)
    passed = value - bound > tol if strictly_above else value <= bound + tol
    warnings = ((f"{label}: value {value:.6g} within 10*tol of bound {bound:g}",)
                if _near(value, bound, tol) else ())
    return HypothesisCheck(label, passed, {"value": value, "bound": bound},
                           warnings)


def _check_invertible(label, M):
    """Invertibility hypothesis on M and the inverse it computed (or None)."""
    inv, witness = invertibility(M)
    rcond, rtol = witness["rcond"], witness["tolerance"]
    warnings = ((f"{label}: rcond {rcond:.3e} within a factor of 10 "
                 f"of the singularity tolerance {rtol:.0e}",)
                if rtol / 10.0 <= rcond <= 10.0 * rtol else ())
    return HypothesisCheck(label, inv is not None, witness, warnings), inv


# ---------------------------------------------------------------------------
# the class decision
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _ClassDecision:
    """Everything a battery decides once about a QMT class.

    Each group is a tuple of checks: a hypothesis prefix shared by
    several theorems, which each theorem extends in its own copy.  The
    planar groups hold the B check, and with it its warning, only when
    n == 2.
    """

    n: int
    tol: float
    G: np.ndarray
    L: np.ndarray
    B_inv: np.ndarray | None
    b_group: tuple       # B invertible (T7)
    planar: tuple        # n == 2, then B invertible (T1, T4)
    competitive: tuple   # planar plus the competitive signs (T2, T3)
    ordering: tuple      # B invertible, -G hierarchically ordered (T5, T6)


def _decide_class(sys: QPSystem, tol) -> _ClassDecision:
    if not 0.0 <= tol < np.inf:
        raise InvalidArgument(
            f"tolerance must be finite and nonnegative, got {tol!r}")
    inv = class_invariants(sys)
    G, L = inv.interaction, inv.growth
    b_check, B_inv = _check_invertible("B invertible", sys.B)
    planar = competitive = (HypothesisCheck("n == 2", sys.n == 2,
                                            {"n": sys.n}),)
    if sys.n == 2:
        planar += (b_check,)
        competitive = planar + (
            _check_pattern(
                "interaction invariant has competitive pattern [-- / --]",
                G, COMPETITIVE_PATTERN, tol),
            _check_pattern(
                "growth invariant has positive pattern (+, +)",
                L, np.array([PLUS, PLUS], dtype=np.int8), tol),
            _check_pattern(
                "interaction^T . perp(growth) has pattern (-, +)",
                G.T @ perp(L), np.array([MINUS, PLUS], dtype=np.int8), tol),
        )
    witness = is_hierarchically_ordered(-G, tol)
    ordering = (b_check, HypothesisCheck(
        "-(interaction invariant) is hierarchically ordered",
        witness is not None,
        {"permutation": list(witness.permutation) if witness else None},
    ))
    return _ClassDecision(sys.n, tol, G, L, B_inv, (b_check,), planar,
                          competitive, ordering)


# ---------------------------------------------------------------------------
# theorem checkers
# ---------------------------------------------------------------------------

def _theorem1(c: _ClassDecision) -> TheoremVerdict:
    """Cooperative interaction invariant in dimension 2: not permanent."""
    checks = c.planar
    if c.n == 2:
        checks += (_check_pattern(
            "interaction invariant has cooperative pattern [-+ / +-]",
            c.G, COOPERATIVE_PATTERN, c.tol),)
    return TheoremVerdict("T1", Conclusion.NOT_PERMANENT, checks)


def _theorem2(c: _ClassDecision) -> TheoremVerdict:
    """Competitive pattern + positive growth + cross condition: permanent."""
    return TheoremVerdict("T2", Conclusion.PERMANENT, c.competitive)


def _theorem3(c: _ClassDecision) -> TheoremVerdict:
    """Permanence hypotheses plus growth components <= 1: the unique
    interior fixed point is globally asymptotically stable."""
    checks = c.competitive
    if c.n == 2:
        checks += tuple(_check_bound(
            f"growth invariant component {i + 1} <= 1", c.L[i], 1.0, c.tol)
            for i in range(2))
    return TheoremVerdict("T3", Conclusion.GLOBALLY_ATTRACTIVE, checks)


def _theorem4(c: _ClassDecision) -> TheoremVerdict:
    """Predator-prey pattern conditions: globally attractive fixed point."""
    if c.n != 2:
        return TheoremVerdict("T4", Conclusion.GLOBALLY_ATTRACTIVE, c.planar)
    G, L, tol, notes = c.G, c.L, c.tol, ()
    checks = [
        *c.planar,
        _check_pattern(
            "interaction invariant has predator-prey pattern [-- / +-]",
            G, PREDATOR_PREY_PATTERN, tol),
        _check_pattern(
            "growth invariant has pattern (+, -)",
            L, np.array([PLUS, MINUS], dtype=np.int8), tol),
        _check_bound("growth component 1 <= 1", L[0], 1.0, tol),
    ]
    if abs(G[0, 0]) > tol:
        ratio = G[1, 0] / G[0, 0]
        lower, upper = L[0] * ratio, ratio + 1.0
        checks.append(_check_bound(
            "growth component 2 > growth1 * G21/G11",
            L[1], lower, tol, strictly_above=True))
        checks.append(_check_bound(
            "growth component 2 <= G21/G11 + 1", L[1], upper, tol))
        if lower >= upper:
            notes = ("the two-sided bound on growth component 2 is an empty "
                     "interval for these parameters; hypotheses unsatisfiable",)
    else:
        checks.append(HypothesisCheck(
            "growth component 2 bounds (needs G11 != 0)", False,
            {"G11": float(G[0, 0]), "reason": "G11 within tolerance of zero"}))
    checks.append(_check_bound(
        "G11*G22 + G12*G21 > 0",
        G[0, 0] * G[1, 1] + G[0, 1] * G[1, 0], 0.0, tol, strictly_above=True))
    return TheoremVerdict("T4", Conclusion.GLOBALLY_ATTRACTIVE, tuple(checks),
                          notes)


def _theorem5(c: _ClassDecision) -> TheoremVerdict:
    """Hierarchically ordered negated interaction invariant: a global
    attractor exists, in any dimension."""
    notes = ("holds for any growth invariant; only the interaction "
             "invariant and invertibility of B enter",)
    return TheoremVerdict("T5", Conclusion.GLOBAL_ATTRACTOR_EXISTS, c.ordering,
                          notes)


def _theorem6(c: _ClassDecision) -> TheoremVerdict:
    """Theorem-5 hypotheses plus entrywise nonnegative B^-1: dissipative."""
    checks = c.ordering
    if c.B_inv is not None:
        min_entry = float(np.min(c.B_inv))
        warnings = ((f"B^-1 nonnegativity: smallest entry {min_entry:.6g} "
                     f"within 10*tol of zero",)
                    if _near(min_entry, 0.0, c.tol) else ())
        checks += (HypothesisCheck(
            "B^-1 is entrywise nonnegative", min_entry >= -c.tol,
            {"B_inv": c.B_inv.tolist(), "min_entry": min_entry}, warnings),)
    return TheoremVerdict("T6", Conclusion.DISSIPATIVE, checks)


def _theorem7(c: _ClassDecision) -> TheoremVerdict:
    """Uniform positive growth invariant with dominated interaction:
    chaotic once the growth rate clears the factor-map thresholds."""
    G, L, tol = c.G, c.L, c.tol
    g_check, _ = _check_invertible("interaction invariant invertible", G)
    checks = [*c.b_group, g_check]
    if g_check.passed:
        g_inv_u = np.linalg.solve(G, np.ones(c.n))
        warnings = tuple(f"interaction^-1 . ones: entry {value:.6g} within "
                         f"10*tol of zero"
                         for value in g_inv_u if _near(value, 0.0, tol))
        checks.append(HypothesisCheck(
            "interaction^-1 . ones is entrywise negative",
            bool(np.all(g_inv_u < -tol)), {"value": g_inv_u.tolist()},
            warnings))

    rho = float(np.mean(L))
    max_dev = float(np.max(np.abs(L - rho)))
    uniform = max_dev <= tol and rho > tol
    checks.append(HypothesisCheck(
        "growth invariant is rho * ones with rho > 0", uniform,
        {"rho": rho, "max_deviation": max_dev}))

    hypotheses_hold = all(check.passed for check in checks)
    diamond = rho >= DIAMOND_RHO_THRESHOLD - tol
    marotto = rho >= MAROTTO_RHO_THRESHOLD - tol
    warnings = ((f"rho = {rho:.6g} within 10*tol of a chaos threshold",)
                if _near(rho, DIAMOND_RHO_THRESHOLD, tol)
                or _near(rho, MAROTTO_RHO_THRESHOLD, tol) else ())
    checks.append(HypothesisCheck(
        f"rho >= {MAROTTO_RHO_THRESHOLD} (snap-back chaos threshold)",
        uniform and marotto,
        {"rho": rho,
         "marotto_threshold": MAROTTO_RHO_THRESHOLD,
         "diamond_threshold": DIAMOND_RHO_THRESHOLD,
         "diamond_reached": uniform and diamond}, warnings))
    notes = (("structural hypotheses hold but rho is below both chaos "
              "thresholds; no conclusion",)
             if hypotheses_hold and not marotto else ())
    claim = (Conclusion.CHAOTIC_DIAMOND if diamond
             else Conclusion.CHAOTIC_MAROTTO)
    return TheoremVerdict("T7", claim, tuple(checks), notes)


_BATTERY = (_theorem1, _theorem2, _theorem3, _theorem4, _theorem5,
            _theorem6, _theorem7)


def check_all_theorems(sys: QPSystem, tol=DEFAULT_SIGN_TOL) -> list[TheoremVerdict]:
    """Run the full battery T1..T7 in order on one class decision.

    The battery runs under ``np.errstate``: a hypothesis value that
    overflows is recorded as inf or NaN, not warned about.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        decision = _decide_class(sys, tol)
        return [theorem(decision) for theorem in _BATTERY]


def _checker(number, theorem):
    def check(sys: QPSystem, tol=DEFAULT_SIGN_TOL) -> TheoremVerdict:
        with np.errstate(over="ignore", invalid="ignore"):
            return theorem(_decide_class(sys, tol))
    check.__name__ = check.__qualname__ = f"check_theorem{number}"
    check.__doc__ = theorem.__doc__
    return check


(check_theorem1, check_theorem2, check_theorem3, check_theorem4,
 check_theorem5, check_theorem6, check_theorem7) = (
    _checker(number, theorem) for number, theorem in enumerate(_BATTERY, 1))


# ---------------------------------------------------------------------------
# hierarchical ordering
# ---------------------------------------------------------------------------

def _ordered_under(P, order, tol) -> bool:
    """Direct check of the definition for a candidate rearrangement."""
    P = np.asarray(P, dtype=float)
    idx = np.asarray(order)
    Q = P[np.ix_(idx, idx)]
    n = Q.shape[0]
    if np.any(np.diag(Q) <= tol):
        return False
    for i in range(n):
        if np.any(Q[i, i + 1:] < -tol):
            return False
    return True


def is_hierarchically_ordered(P, tol=DEFAULT_SIGN_TOL):
    """Search for a rearrangement making P upper-nonnegative with a
    strictly positive diagonal; return a witness or None.

    Uses greedy elimination: repeatedly place any remaining index whose
    row is nonnegative against all other remaining indices and whose
    diagonal entry is positive.  Removing a valid index only deletes
    constraints on the rest, so if any ordering exists one is found; the
    search is exact.  Ties are broken toward the row with the fewest
    negative entries.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise WrongDimension(f"expected a square matrix, got shape {P.shape}")
    remaining = list(range(P.shape[0]))
    order: list[int] = []
    while remaining:
        candidates = [
            r for r in remaining
            if P[r, r] > tol
            and all(P[r, c] >= -tol for c in remaining if c != r)
        ]
        if not candidates:
            return None
        pick = min(candidates,
                   key=lambda r: int(np.sum(P[r, remaining] < -tol)))
        order.append(pick)
        remaining.remove(pick)
    assert _ordered_under(P, order, tol)
    return HierarchicalOrderWitness(tuple(order))

