"""Property tests: verdict totality, scale-free singularity, QMT
invariance and single-checker agreement of the theorem battery.

Examples are derandomized and no example database is kept, so these
tests are deterministic (``conftest.PROPERTIES``).
"""

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

import qpd
from conftest import PROPERTIES, behind
from qpd import QMTMatrix, QPSystem, apply_qmt, canonical_lv, check_all_theorems
from qpd.errors import SingularB

#: T6's extra hypothesis is a property of the representative, not of the
#: class: B^-1 becomes C^-1 B^-1 under a QMT.
REPRESENTATIVE_ONLY = "B^-1 is entrywise nonnegative"


def grid(rows, cols, bound=2.0):
    """Matrices with entries on the 1/4 grid in [-bound, bound]."""
    k = int(4 * bound)
    return st.lists(st.integers(-k, k), min_size=rows * cols,
                    max_size=rows * cols).map(
        lambda v: np.array(v, dtype=float).reshape(rows, cols) / 4.0)


@st.composite
def exponent_matrices(draw, n):
    """Full-rank, repeated-row and rank-deficient grid matrices."""
    kind = draw(st.sampled_from(("grid", "repeated row", "rank deficient")))
    if kind == "rank deficient":
        r = draw(st.integers(0, n - 1))
        return draw(grid(n, r)) @ draw(grid(r, n))
    B = draw(grid(n, n))
    if kind == "repeated row" and n > 1:
        B[-1] = draw(st.sampled_from((1.0, -2.0, 0.5))) * B[0]
    return B


scales = st.integers(-8, 8).map(lambda k: 10.0 ** k)


@st.composite
def systems(draw, n):
    """Systems with any kind of exponent matrix, scaled 1e-8..1e8."""
    return QPSystem(draw(scales) * draw(grid(n, n)),
                    draw(scales) * draw(exponent_matrices(n)),
                    draw(grid(n, 1)).ravel())


def canonical_exists(sys):
    try:
        canonical_lv(sys)
    except SingularB:
        return False
    return True


def b_invertible_passes(sys):
    """The pass flag of every verdict's "B invertible" hypothesis."""
    return {h.passed for v in check_all_theorems(sys)
            for h in v.hypotheses if h.label == "B invertible"}


@PROPERTIES
@given(st.integers(1, 12).flatmap(systems))
def test_battery_is_total(sys):
    verdicts = check_all_theorems(sys)
    assert [v.theorem_id for v in verdicts] == [f"T{i}" for i in range(1, 8)]


@PROPERTIES
@given(st.integers(1, 6).flatmap(systems),
       st.sampled_from((1e-9, 1e-3, 0.5)))
def test_single_checkers_match_the_battery(sys, tol):
    battery = check_all_theorems(sys, tol)
    for number in range(1, 8):
        check = getattr(qpd, f"check_theorem{number}")
        assert check(sys, tol).to_dict() == battery[number - 1].to_dict()


@PROPERTIES
@given(st.integers(1, 6).flatmap(exponent_matrices))
def test_singularity_decision_is_scale_free(B):
    exists = canonical_exists(behind(B))
    for k in range(-6, 7):
        sys = behind(10.0 ** k * B)
        assert canonical_exists(sys) == exists, k
        assert b_invertible_passes(sys) == {exists}, k


@st.composite
def conditioned_qmts(draw, n):
    """P L U with unit lower L and a diagonal U bounded away from zero."""
    L = np.tril(draw(grid(n, n, bound=1.0)), -1) + np.eye(n)
    U = np.triu(draw(grid(n, n, bound=1.0)), 1) + np.diag(
        draw(st.lists(st.sampled_from((-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)),
                      min_size=n, max_size=n)))
    P = np.eye(n)[draw(st.permutations(range(n)))]
    qmt = QMTMatrix.from_matrix(P @ L @ U)
    assume(qmt.condition() <= 100.0)
    return qmt


@st.composite
def qmt_pairs(draw, n):
    sys = QPSystem(draw(grid(n, n)), draw(exponent_matrices(n)),
                   draw(grid(n, 1)).ravel())
    return sys, draw(conditioned_qmts(n))


@PROPERTIES
@given(st.integers(1, 3).flatmap(qmt_pairs))
def test_verdicts_are_qmt_invariant(pair):
    sys, qmt = pair
    before = check_all_theorems(sys)
    after = check_all_theorems(apply_qmt(sys, qmt))
    for v1, v2 in zip(before, after):
        if v1.boundary_warnings or v2.boundary_warnings:
            continue
        if v1.theorem_id == "T6":
            class_level = lambda v: [(h.label, h.passed) for h in v.hypotheses
                                     if h.label != REPRESENTATIVE_ONLY]
            assert class_level(v1) == class_level(v2)
            continue
        assert v1.applicable == v2.applicable, v1.theorem_id
        assert v1.conclusion == v2.conclusion, v1.theorem_id
