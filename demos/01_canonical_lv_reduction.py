"""Reduce a quasipolynomial map to its canonical Lotka-Volterra form.

Builds the competitive QP system with exponent couplings eps = delta = 0.2,
shows that its transformation-class invariants equal the matrices of a
plain LV system, reduces it with the inverse exponent matrix, and checks
numerically that the two maps are conjugate, one step at a time.
"""

from pathlib import Path

import numpy as np

from qpd import (
    QMTMatrix,
    apply_qmt,
    canonical_lv,
    class_invariants,
    conjugacy_deviation,
    is_lotka_volterra,
    load_system,
    map_state,
    simulate,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

sys = load_system(FIXTURES / "example1_qp_rho05.json")
print("system:", sys.name)
print("A =\n", sys.A)
print("B =\n", sys.B)
print("lam =", sys.lam)

inv = class_invariants(sys)
print("\nclass invariants (identical for every system in the class):")
print("interaction = B A =\n", inv.interaction)
print("growth = B lam =", inv.growth)

lv, qmt = canonical_lv(sys)
print("\ncanonical LV representative:")
print("A_lv =\n", lv.A)
print("lambda_lv =", lv.lam)
print("reached with C = B^-1; condition estimate:", qmt.condition())
print("transformed system is LV:", is_lotka_volterra(apply_qmt(sys, qmt)))

# conjugacy: along one orbit, step each state's image under the change of
# variables with the LV map and compare it with the next state
x0 = np.array([1.0, 1.0])
defect = conjugacy_deviation(sys, qmt, x0, 100)
print(f"\nmax relative one-step defect over 100 steps: {defect:.3e}")

# the fixed points correspond through the same monomial map
y_orbit = simulate(lv, map_state(qmt.inverse(), x0), 400)
x_orbit = simulate(sys, x0, 400)
print("LV orbit limit:     ", y_orbit.final)
print("QP orbit limit:     ", x_orbit.final)
print("mapped LV limit:    ", map_state(qmt, y_orbit.final))

# a random invertible change of variables leaves the invariants alone
rng = np.random.default_rng(0)
C = QMTMatrix.from_matrix(rng.uniform(-1.0, 1.0, size=(2, 2)))
moved = apply_qmt(sys, C)
drift = np.max(np.abs(class_invariants(moved).interaction - inv.interaction))
print(f"\ninvariant drift under a random transformation: {drift:.3e}")
