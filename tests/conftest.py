"""Shared paths and random-instance generators for the test suite."""

from pathlib import Path

import numpy as np

from qpd import (
    QMTMatrix,
    QPSystem,
    check_theorem3,
    load_system,
    qp_fixed_point,
    qp_jacobian,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

#: The fixtures whose orbits converge to the interior fixed point.
ATTRACTIVE_FIXTURES = ["example1_lv", "example1_qp_rho05",
                       "example1_qp_rho10", "example2_predator_prey"]


def fixture_path(name):
    return FIXTURES / f"{name}.json"


def load_fixture(name):
    return load_system(fixture_path(name))


def exact_exponent(sys):
    """log of the spectral radius of the Jacobian at the fixed point: the
    largest Lyapunov exponent of every orbit that converges to it."""
    J = qp_jacobian(sys, qp_fixed_point(sys))
    return float(np.log(np.max(np.abs(np.linalg.eigvals(J)))))


def behind(B):
    """A QP system with exponent matrix B and trivial A, lam."""
    return QPSystem(-np.eye(len(B)), B, np.ones(len(B)))


def hilbert(n):
    """The n x n Hilbert matrix 1 / (i + j + 1), severely ill-conditioned."""
    return 1.0 / (np.add.outer(np.arange(n), np.arange(n)) + 1.0)


def random_system(rng, n):
    """Generic bounded random QP system (no dynamical guarantees)."""
    return QPSystem(
        rng.uniform(-1.0, 1.0, size=(n, n)),
        rng.uniform(-1.0, 1.0, size=(n, n)),
        rng.uniform(-0.5, 0.5, size=n),
    )


def random_qmt(rng, n, max_condition=20.0):
    """Random invertible transformation with a bounded condition estimate."""
    while True:
        candidate = rng.uniform(-1.0, 1.0, size=(n, n))
        try:
            qmt = QMTMatrix.from_matrix(candidate)
        except Exception:
            continue
        if qmt.condition() <= max_condition:
            return qmt


def random_exponent_matrix(rng, n):
    """Mild well-conditioned exponent matrix near the identity."""
    while True:
        B = np.eye(n) + rng.uniform(-0.25, 0.25, size=(n, n))
        if abs(np.linalg.det(B)) >= 0.5:
            return B


def random_contracting_system(rng):
    """Random 2-D QP system with a globally attractive interior fixed point.

    Draws competitive diagonally-weighted invariants with growth in (0, 1]
    until the global-attractivity checker accepts, then hides them behind
    a random exponent matrix.  Orbits contract toward the fixed point, so
    conjugacy and Lyapunov property tests stay in the well-conditioned
    regime.
    """
    while True:
        diag = rng.uniform(0.8, 1.3, size=2)
        off = rng.uniform(0.05, 0.4, size=2)
        interaction = np.array([[-diag[0], -off[0]], [-off[1], -diag[1]]])
        growth = rng.uniform(0.3, 0.9, size=2)
        B = random_exponent_matrix(rng, 2)
        sys = QPSystem(np.linalg.solve(B, interaction),
                       B,
                       np.linalg.solve(B, growth))
        if check_theorem3(sys).applicable:
            return sys
