"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
interleaved; they are also visible in captured output on failure).
"""

import time
from contextlib import contextmanager

import numpy as np

from conftest import (
    load_fixture,
    random_contracting_system,
    random_qmt,
    random_system,
)
from qpd import (
    MINUS,
    PLUS,
    Conclusion,
    QMTMatrix,
    apply_qmt,
    check_all_theorems,
    check_theorem2,
    check_theorem3,
    check_theorem4,
    check_theorem5,
    check_theorem6,
    class_invariants,
    conjugacy_deviation,
    empirical_attractivity,
    empirical_permanence,
    is_hierarchically_ordered,
    largest_lyapunov,
    perp,
    qp_fixed_point,
    qp_jacobian,
    sign_pattern,
    simulate,
    step,
    threshold_scan,
)
from qpd.scalar_map import KIND_PERIOD3, KIND_SNAPBACK
from test_theorems import hierarchically_ordered_bruteforce


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


def test_criterion_1_qmt_invariance_properties():
    with criterion(1, "QMT invariance, group law and round trip on 200 "
                      "random systems within 1e-9, under 5 s"):
        rng = np.random.default_rng(100)
        start = time.perf_counter()
        for _ in range(200):
            n = int(rng.integers(2, 5))
            sys = random_system(rng, n)
            q1 = random_qmt(rng, n)
            q2 = random_qmt(rng, n)
            base = class_invariants(sys)
            moved = apply_qmt(sys, q1)
            inv = class_invariants(moved)
            assert np.max(np.abs(inv.interaction - base.interaction)) <= 1e-9
            assert np.max(np.abs(inv.growth - base.growth)) <= 1e-9
            twice = apply_qmt(moved, q2)
            once = apply_qmt(sys, QMTMatrix.from_matrix(q1.C @ q2.C))
            assert np.max(np.abs(twice.A - once.A)) <= 1e-9
            assert np.max(np.abs(twice.B - once.B)) <= 1e-9
            assert np.max(np.abs(twice.lam - once.lam)) <= 1e-9
            back = apply_qmt(moved, q1.inverse())
            assert np.max(np.abs(back.A - sys.A)) <= 1e-9
            assert np.max(np.abs(back.B - sys.B)) <= 1e-9
            assert np.max(np.abs(back.lam - sys.lam)) <= 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f} s"


def test_criterion_2_topological_conjugacy_property():
    with criterion(2, "50 random 2-D systems conjugate within the 1e-7 "
                      "one-step relative budget over 100 steps, under 10 s"):
        rng = np.random.default_rng(200)
        steps = 100
        start = time.perf_counter()
        for _ in range(50):
            sys = random_contracting_system(rng)
            qmt = random_qmt(rng, 2, max_condition=20.0)
            x0 = np.exp(rng.uniform(np.log(0.5), np.log(2.0), size=2))
            deviation = conjugacy_deviation(sys, qmt, x0, steps)
            assert deviation <= 1e-7
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f} s"


def test_criterion_3_example1_reproduction():
    with criterion(3, "competitive-family fixtures: permanence and "
                      "attractivity verdicts, fixed point and convergence"):
        lv = load_fixture("example1_lv")
        assert check_theorem2(lv).conclusion is Conclusion.PERMANENT
        assert check_theorem3(lv).conclusion is Conclusion.GLOBALLY_ATTRACTIVE
        fp = qp_fixed_point(lv)
        assert np.max(np.abs(fp - np.array([1.0 / 3.0, 1.0 / 3.0]))) <= 1e-10
        traj = simulate(lv, [1.0, 1.0], 500)
        assert traj.terminated_early is None
        assert np.linalg.norm(traj.final - fp) <= 1e-6

        # T6 is deliberately excluded from the cross-variant comparison:
        # its nonnegative-B^-1 hypothesis depends on the exponent matrix
        # itself, and boundedness of the attractor is not portable across
        # the transformation class.
        invariant_ids = ("T1", "T2", "T3", "T4", "T5", "T7")
        reference = [(v.applicable, v.conclusion)
                     for v in check_all_theorems(lv)
                     if v.theorem_id in invariant_ids]
        for name in ("example1_qp_rho05", "example1_qp_rho10"):
            variant = load_fixture(name)
            got = [(v.applicable, v.conclusion)
                   for v in check_all_theorems(variant)
                   if v.theorem_id in invariant_ids]
            assert got == reference, name

        chaotic = load_fixture("example3_qp_rho32")
        assert not check_theorem3(chaotic).applicable
        assert check_theorem2(chaotic).conclusion is Conclusion.PERMANENT


def test_criterion_4_example2_reproduction():
    with criterion(4, "predator-prey fixture: hierarchical ordering, "
                      "dissipativity, attractivity conditions and ensemble"):
        sys = load_fixture("example2_predator_prey")
        v5 = check_theorem5(sys)
        assert v5.conclusion is Conclusion.GLOBAL_ATTRACTOR_EXISTS
        v6 = check_theorem6(sys)
        assert v6.conclusion is Conclusion.DISSIPATIVE
        v4 = check_theorem4(sys)
        assert v4.applicable and v4.conclusion is Conclusion.GLOBALLY_ATTRACTIVE
        assert all(h.passed for h in v4.hypotheses)
        target = qp_fixed_point(sys)
        verdict = empirical_attractivity(sys, target, ensemble_size=50,
                                         horizon=5000, tol=1e-4, seed=4242)
        assert verdict.passed, verdict.statistics


def test_criterion_5_scalar_map_thresholds():
    with criterion(5, "scan thresholds within 0.03 of the references "
                      "3.13 and 2.89, each under 60 s"):
        start = time.perf_counter()
        p3 = threshold_scan(KIND_PERIOD3, 2.5, 3.5, 0.01)
        p3_elapsed = time.perf_counter() - start
        assert abs(p3.threshold - 3.13) <= 0.03, p3.threshold
        assert p3_elapsed < 60.0, f"period3 scan took {p3_elapsed:.1f} s"

        start = time.perf_counter()
        sb = threshold_scan(KIND_SNAPBACK, 2.5, 3.5, 0.01)
        sb_elapsed = time.perf_counter() - start
        assert abs(sb.threshold - 2.89) <= 0.03, sb.threshold
        assert sb_elapsed < 60.0, f"snapback scan took {sb_elapsed:.1f} s"
        assert sb.threshold <= p3.threshold


def test_criterion_6_chaos_vs_attractivity_dichotomy():
    with criterion(6, "chaotic fixture: positive Lyapunov estimate, failed "
                      "attractivity, passed permanence"):
        sys = load_fixture("example3_qp_rho32")
        exponent = largest_lyapunov(sys, [1.0, 1.0])
        assert exponent > 0.0, exponent
        target = qp_fixed_point(sys)
        attract = empirical_attractivity(sys, target, ensemble_size=50,
                                         horizon=2000, tol=1e-4, seed=4242)
        assert not attract.passed
        perm = empirical_permanence(sys, ensemble_size=50, horizon=10_000,
                                    seed=4242)
        params = perm.params
        assert (params["tail_fraction"], params["floor"],
                params["ceiling"]) == (0.2, 1e-6, 1e6)
        assert perm.passed, perm.statistics


def test_criterion_7_jacobian_against_central_differences():
    with criterion(7, "analytic Jacobian vs central differences, relative "
                      "error <= 1e-5, 100 states x 20 systems"):
        rng = np.random.default_rng(700)
        for _ in range(20):
            n = int(rng.integers(2, 4))
            sys = random_system(rng, n)
            for _ in range(100):
                x = np.exp(rng.uniform(np.log(0.2), np.log(5.0), size=n))
                J = qp_jacobian(sys, x)
                fd = np.empty_like(J)
                for k in range(n):
                    h = 1e-6 * x[k]
                    xp, xm = x.copy(), x.copy()
                    xp[k] += h
                    xm[k] -= h
                    fd[:, k] = (step(sys, xp) - step(sys, xm)) / (2.0 * h)
                scale = max(1.0, float(np.max(np.abs(J))))
                assert np.max(np.abs(J - fd)) <= 1e-5 * scale


def test_criterion_8_hierarchical_ordering_oracle_equivalence():
    with criterion(8, "pruned search vs exhaustive enumeration on 500 "
                      "random sign matrices with n <= 6"):
        rng = np.random.default_rng(800)
        for _ in range(500):
            n = int(rng.integers(1, 7))
            M = rng.choice([-1.0, 0.0, 1.0], size=(n, n))
            M *= rng.uniform(0.5, 2.0, size=(n, n))
            fast = is_hierarchically_ordered(M)
            slow = hierarchically_ordered_bruteforce(M)
            assert (fast is None) == (slow is None)


def test_criterion_9_theorem2_encoding_equivalence():
    with criterion(9, "pattern and inequality encodings of the cross "
                      "condition agree on 1000 random instances"):
        rng = np.random.default_rng(900)
        tol = 1e-9
        required = np.array([MINUS, PLUS], dtype=np.int8)
        for _ in range(1000):
            G = -np.abs(rng.normal(size=(2, 2)))
            L = np.abs(rng.normal(size=2))
            cross = G.T @ perp(L)
            pattern_form = bool(np.array_equal(sign_pattern(cross, tol),
                                               required))
            inequality_form = bool(
                L[1] * G[0, 0] - L[0] * G[1, 0] < -tol
                and L[0] * G[1, 1] - L[1] * G[0, 1] < -tol
            )
            assert pattern_form == inequality_form
