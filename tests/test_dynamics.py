import math
import os
import subprocess
from pathlib import Path
from sys import executable

import numpy as np
import pytest

import qpd.dynamics
from conftest import (
    ATTRACTIVE_FIXTURES,
    FIXTURE_NAMES,
    behind,
    counted_kernel,
    exact_exponent,
    load_fixture,
    random_contracting_system,
    random_exponent_matrix,
    random_qmt,
)
from qpd import (
    LVSystem,
    QMTMatrix,
    QPSystem,
    apply_qmt,
    canonical_lv,
    check_all_theorems,
    class_invariants,
    conjugacy_deviation,
    empirical_attractivity,
    empirical_permanence,
    is_lotka_volterra,
    largest_lyapunov,
    load_system,
    lv_interior_fixed_point,
    map_state,
    qp_fixed_point,
    qp_jacobian,
    simulate,
    step,
    system_from_dict,
    write_trajectory_csv,
)
from qpd.cli import build_analysis_report
from qpd.dynamics import (
    ATTRACTIVITY_HORIZON,
    ENSEMBLE_SIZE,
    LYAPUNOV_TRANSIENT,
    PERMANENCE_HORIZON,
    VERIFY_ATTRACTIVITY_TOL,
    _draw_initial_conditions,
    _lockstep,
    _tangent_directions,
    conjugacy_deviations,
    verification_pass,
)
from qpd.systems import (
    BLOCK_DOUBLES,
    BLOCK_STEPS,
    GUARD_REASONS,
    UNDERFLOW_FLOOR,
    MapStep,
    advance,
    as_batch,
    as_state,
)
from qpd.errors import (
    GuardTermination,
    InvalidArgument,
    OverflowGuard,
    SingularSystem,
)
from qpd.transform import map_states

FIXED_POINT_LV1 = np.array([1.0 / 3.0, 1.0 / 3.0])

DATA = Path(__file__).resolve().parent / "data"


class TestSimulate:
    def test_constant_orbit(self):
        sys = QPSystem(np.zeros((2, 2)), np.eye(2), np.zeros(2))
        traj = simulate(sys, [0.4, 1.7], 25)
        assert traj.terminated_early is None
        assert traj.states.shape == (26, 2)
        assert np.all(traj.states == traj.states[0])

    def test_example1_converges_to_fixed_point(self):
        traj = simulate(load_fixture("example1_lv"), [1.0, 1.0], 500)
        assert traj.terminated_early is None
        assert np.linalg.norm(traj.final - FIXED_POINT_LV1) <= 1e-6

    def test_chaotic_orbit_stays_positive_and_bounded(self):
        traj = simulate(load_fixture("example3_qp_rho32"), [1.0, 1.0], 10_000)
        assert traj.terminated_early is None
        assert traj.states.min() >= 1e-6
        assert traj.states.max() <= 1e6

    def test_overflow_guard_recorded(self):
        sys = QPSystem([[0.0, 1.0], [1.0, 0.0]], np.eye(2), [1.0, 1.0])
        traj = simulate(sys, [2.0, 2.0], 1000)
        assert traj.terminated_early is not None
        t, reason = traj.terminated_early
        assert reason == "overflow"
        assert traj.states.shape[0] == t + 1
        assert np.all(traj.states > 0.0)

    def test_underflow_guard_recorded(self):
        sys = QPSystem(np.zeros((1, 1)), np.eye(1), [-1.0])
        traj = simulate(sys, [1.0], 2000)
        assert traj.terminated_early is not None
        assert traj.terminated_early[1] == "underflow"

    def test_collapse_is_labelled_underflow(self):
        # exponent 0.5 - 800 < -700: a collapse toward 0, not a blow-up
        sys = QPSystem([[-1.0]], [[1.0]], [0.5])
        assert simulate(sys, [800.0], 5).terminated_early == (0, "underflow")

    def test_negative_steps_are_refused(self):
        with pytest.raises(InvalidArgument, match="steps must be nonnegative"):
            simulate(load_fixture("example1_lv"), [1.0, 1.0], -1)

    def test_trajectory_csv_format(self, tmp_path):
        traj = simulate(load_fixture("example1_lv"), [1.0, 1.0], 3)
        out = tmp_path / "orbit.csv"
        write_trajectory_csv(traj, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x_1,x_2"
        assert len(lines) == 5
        t, x1, x2 = lines[2].split(",")
        assert t == "1"
        assert float(x1) == traj.states[1, 0]  # 17 significant digits round-trip
        assert float(x2) == traj.states[1, 1]


class TestCountRule:
    @pytest.mark.parametrize("call", [
        lambda sys: empirical_attractivity(sys, [1, 1], ensemble_size=0),
        lambda sys: empirical_attractivity(sys, [1, 1], ensemble_size=-1),
        lambda sys: empirical_attractivity(sys, [1, 1], horizon=-3),
        lambda sys: empirical_permanence(sys, horizon=-5),
        lambda sys: empirical_permanence(sys, ensemble_size=2.5),
        lambda sys: largest_lyapunov(sys, [1, 1], transient=2.5, samples=10),
        lambda sys: simulate(sys, [1, 1], 2.5),
        lambda sys: conjugacy_deviation(sys, QMTMatrix.identity(2), [1, 1],
                                        2.5),
    ], ids=["ensemble0", "ensemble-1", "horizon-3", "permanence-horizon-5",
            "ensemble2.5", "transient2.5", "simulate2.5", "conjugacy2.5"])
    def test_counts_follow_one_rule(self, call):
        # each count is an integer with a lower bound, refused before numpy
        # sees it, whatever probe takes it
        with pytest.raises(InvalidArgument, match="and an integer, got"):
            call(load_fixture("example1_lv"))

    @pytest.mark.parametrize("probe", [
        lambda sys: empirical_permanence(sys, horizon=0),
        lambda sys: empirical_attractivity(sys, [1, 1], horizon=0),
    ], ids=["permanence", "attractivity"])
    def test_probe_horizon_is_at_least_one(self, probe):
        # x_1 gains e^40 a step, so the ensemble leaves the proxy box at
        # step 1; at horizon 0 the tail was the draw itself, and it passed
        runaway = QPSystem(np.zeros((2, 2)), np.eye(2), [40.0, -1.0])
        assert not empirical_permanence(runaway, horizon=1).passed
        with pytest.raises(InvalidArgument, match=r"^horizon must be at "
                           r"least 1 and an integer, got 0 \(need "
                           r"ensemble_size >= 1 and horizon >= 1\)$"):
            probe(runaway)


class TestLVFixedPoint:
    def test_diagonal_system(self):
        lv = LVSystem(-np.eye(2), [1.0, 1.0])
        assert lv_interior_fixed_point(lv) == pytest.approx([1.0, 1.0])

    def test_example1(self):
        lv = LVSystem([[-1.0, -0.5], [-0.5, -1.0]], [0.5, 0.5])
        x = lv_interior_fixed_point(lv)
        assert np.max(np.abs(x - FIXED_POINT_LV1)) <= 1e-10

    def test_family_formula(self):
        # the (rho, rho) family has fixed point (2 rho / 3, 2 rho / 3)
        for rho in (0.25, 0.8, 3.2):
            lv = LVSystem([[-1.0, -0.5], [-0.5, -1.0]], [rho, rho])
            assert lv_interior_fixed_point(lv) == pytest.approx(
                [2.0 * rho / 3.0] * 2, rel=1e-12)

    def test_singular_interaction(self):
        lv = LVSystem([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0])
        with pytest.raises(SingularSystem):
            lv_interior_fixed_point(lv)

    def test_solve_that_misses_is_singular(self, monkeypatch):
        # A passes the invertibility test, so the solve is made to miss by
        # 1 in each component; that test's own solve, of a 2-D right-hand
        # side, is left alone
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda a, b: solve(a, b) + (np.ndim(b) == 1))
        with pytest.raises(SingularSystem, match=r"^fixed-point solve "
                           r"residual 1\.000e\+00 exceeds tolerance$"):
            lv_interior_fixed_point(LVSystem(-np.eye(2), [1.0, 1.0]))

    def test_nonpositive_solution_returns_none(self):
        lv = LVSystem(-np.eye(2), [-1.0, 1.0])
        assert lv_interior_fixed_point(lv) is None

    def test_refuses_a_system_that_is_not_lv(self):
        # the canonical form's point (0.857, 0.286) is not this system's
        with pytest.raises(InvalidArgument, match="B is not the identity"):
            lv_interior_fixed_point(load_fixture("example2_predator_prey"))

    def test_matches_adjugate_oracle_on_random_instances(self):
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 100:
            A = rng.uniform(-2.0, 2.0, size=(2, 2))
            det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
            if abs(det) < 0.1:
                continue
            lam = rng.uniform(-2.0, 2.0, size=2)
            # adjugate formula for the 2x2 solve of A x = -lam
            expected = np.array([
                (-lam[0] * A[1, 1] + lam[1] * A[0, 1]) / det,
                (-lam[1] * A[0, 0] + lam[0] * A[1, 0]) / det,
            ])
            lv = LVSystem(A, lam)
            got = lv_interior_fixed_point(lv)
            if np.all(expected > 0.0):
                assert got == pytest.approx(expected, abs=1e-10)
            else:
                assert got is None
            checked += 1


class TestQPFixedPoint:
    def test_lv_input_delegates(self):
        sys = load_fixture("example1_lv")
        x = qp_fixed_point(sys)
        assert np.max(np.abs(x - FIXED_POINT_LV1)) <= 1e-10

    def test_example1_qp_maps_canonical_fixed_point(self):
        sys = load_fixture("example1_qp_rho05")
        x = qp_fixed_point(sys)
        # independent composition: 2x2 inverse of B by the adjugate
        # formula, then the monomial map applied with scalar arithmetic
        det_b = 1.0 - 0.2 * 0.2
        B_inv = np.array([[1.0, -0.2], [-0.2, 1.0]]) / det_b
        y = FIXED_POINT_LV1
        expected = [
            y[0] ** B_inv[0, 0] * y[1] ** B_inv[0, 1],
            y[0] ** B_inv[1, 0] * y[1] ** B_inv[1, 1],
        ]
        assert x == pytest.approx(expected, rel=1e-10)
        residual = np.max(np.abs(step(sys, x) - x))
        assert residual <= 1e-8 * np.max(np.abs(x))

    def test_singular_invariant_matrix(self):
        sys = QPSystem([[1.0, 2.0], [2.0, 4.0]], np.eye(2), [1.0, 1.0])
        with pytest.raises(SingularSystem):
            qp_fixed_point(sys)


class TestCanonicalRepresentative:
    """The canonical LV form is a system like any other."""

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_runs_through_every_function(self, name):
        sys = load_fixture(name)
        lv, qmt = canonical_lv(sys)
        assert isinstance(lv, QPSystem) and is_lotka_volterra(lv)
        assert system_from_dict(lv.to_dict()).to_dict() == lv.to_dict()
        y = qp_fixed_point(lv)
        assert np.array_equal(map_state(qmt, y), qp_fixed_point(sys))
        traj = simulate(lv, map_state(qmt.inverse(), [1.0, 1.0]), 100)
        assert traj.terminated_early is None
        checks = verification_pass(lv, y, 0)
        assert checks.attractivity.params["target"] == y.tolist()
        assert build_analysis_report(lv)["system"] == lv.to_dict()
        # T6's B^-1 >= 0 belongs to the representative, not to the class
        class_level = [(v.theorem_id, v.conclusion)
                       for v in check_all_theorems(sys) if v.theorem_id != "T6"]
        assert class_level == [(v.theorem_id, v.conclusion)
                               for v in check_all_theorems(lv)
                               if v.theorem_id != "T6"]


class TestJacobian:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            n = int(rng.integers(2, 4))
            sys = QPSystem(
                rng.uniform(-1.0, 1.0, size=(n, n)),
                rng.uniform(-1.0, 1.0, size=(n, n)),
                rng.uniform(-0.5, 0.5, size=n),
            )
            for _ in range(10):
                x = np.exp(rng.uniform(np.log(0.2), np.log(5.0), size=n))
                J = qp_jacobian(sys, x)
                fd = np.empty_like(J)
                for k in range(n):
                    h = 1e-6 * x[k]
                    xp, xm = x.copy(), x.copy()
                    xp[k] += h
                    xm[k] -= h
                    fd[:, k] = (step(sys, xp) - step(sys, xm)) / (2.0 * h)
                scale = max(1.0, np.max(np.abs(J)))
                assert np.max(np.abs(J - fd)) <= 1e-5 * scale


class TestLyapunov:
    def test_identity_map_has_zero_exponent(self):
        sys = QPSystem(np.zeros((2, 2)), np.eye(2), np.zeros(2))
        assert largest_lyapunov(sys, [1.0, 2.0], transient=10,
                                samples=100) == pytest.approx(0.0, abs=1e-14)

    def test_attracting_fixed_point_negative(self):
        value = largest_lyapunov(load_fixture("example1_lv"), [1.0, 1.0],
                                 transient=500, samples=4000)
        # dominant multiplier of the linearization is 5/6
        assert value == pytest.approx(np.log(5.0 / 6.0), abs=1e-3)

    def test_chaotic_regime_positive(self):
        value = largest_lyapunov(load_fixture("example3_qp_rho32"),
                                 [1.0, 1.0], transient=1000, samples=10_000)
        assert value > 0.02

    def test_divergent_orbit_raises_guard_termination(self):
        sys = QPSystem([[0.0, 1.0], [1.0, 0.0]], np.eye(2), [1.0, 1.0])
        with pytest.raises(GuardTermination):
            largest_lyapunov(sys, [2.0, 2.0], transient=1000, samples=100)

    @pytest.mark.parametrize("schedule", [{"transient": -1}, {"samples": 0}],
                             ids=["transient-1", "samples0"])
    def test_schedule_out_of_range_is_refused(self, schedule):
        with pytest.raises(InvalidArgument, match="transient >= 0"):
            largest_lyapunov(load_fixture("example1_lv"), [1.0, 1.0],
                             **schedule)

    def test_conjugate_estimates_agree(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            sys = random_contracting_system(rng)
            qmt = random_qmt(rng, 2, max_condition=10.0)
            other = apply_qmt(sys, qmt)
            x0 = np.exp(rng.uniform(np.log(0.5), np.log(2.0), size=2))
            y0 = map_state(qmt.inverse(), x0)
            a = largest_lyapunov(sys, x0, transient=400, samples=4000)
            b = largest_lyapunov(other, y0, transient=400, samples=4000)
            assert np.sign(a) == np.sign(b)
            assert abs(a - b) <= 0.05


class TestEmpiricalPermanence:
    def test_example1_passes(self):
        verdict = empirical_permanence(load_fixture("example1_lv"),
                                       ensemble_size=50, horizon=5000,
                                       seed=42)
        assert verdict.passed
        assert verdict.statistics["guard_terminations"] == 0

    def test_cooperative_instance_fails(self):
        sys = QPSystem([[-1.0, 1.0], [1.0, -1.0]], np.eye(2), [1.0, 1.0])
        verdict = empirical_permanence(sys, ensemble_size=50, horizon=2000,
                                       seed=42)
        assert not verdict.passed

    def test_constant_map_passes_trivially(self):
        sys = QPSystem(np.zeros((2, 2)), np.eye(2), np.zeros(2))
        verdict = empirical_permanence(sys, ensemble_size=20, horizon=200,
                                       seed=1)
        assert verdict.passed

    def test_deterministic_given_seed(self):
        sys = load_fixture("example3_qp_rho32")
        a = empirical_permanence(sys, ensemble_size=10, horizon=500, seed=9)
        b = empirical_permanence(sys, ensemble_size=10, horizon=500, seed=9)
        assert a == b


class TestEmpiricalAttractivity:
    def test_example1_converges(self):
        verdict = empirical_attractivity(load_fixture("example1_lv"),
                                         FIXED_POINT_LV1, ensemble_size=50,
                                         horizon=2000, tol=1e-6, seed=42)
        assert verdict.passed

    def test_chaotic_regime_fails(self):
        sys = load_fixture("example3_qp_rho32")
        target = qp_fixed_point(sys)
        verdict = empirical_attractivity(sys, target, ensemble_size=20,
                                         horizon=2000, tol=1e-4, seed=42)
        assert not verdict.passed

    def test_orbit_started_on_target_stays(self):
        traj = simulate(load_fixture("example1_lv"), FIXED_POINT_LV1, 500)
        assert traj.terminated_early is None
        assert np.max(np.linalg.norm(traj.states - FIXED_POINT_LV1,
                                     axis=1)) <= 1e-12


class TestGuardPathAgreement:
    # A tiny x_2 overflows through the x_2**-1 quasimonomial, a huge x_1
    # collapses through a large negative exponent, the rest settle.
    SYS = QPSystem([[-1.0, 0.01], [0.01, 0.25]],
                   [[1.0, 0.0], [0.0, -1.0]], [0.5, -0.5])
    X0 = np.vstack([
        np.exp(np.random.default_rng(5).uniform(
            np.log(1e-5), np.log(1e3), size=(40, 2))),
        [[800.0, 1.0], [699.0, 1.0], [1.0, 1e-4], [1.0, 1.0]],
    ])

    def test_ensemble_orbits_match_single_orbits(self):
        # each row's recorded orbit is its simulated trajectory, to the
        # bit and up to its guard, and NaN after it
        sys, X0 = self.SYS, self.X0
        run = _lockstep(sys, X0, 200, record=range(201))
        guards = run.guards
        assert {reason for _, _, reason in guards} == {"overflow", "underflow"}
        assert len(guards) < len(X0)
        by_orbit = {i: (t, reason) for i, t, reason in guards}
        for i, x0 in enumerate(X0):
            traj = simulate(sys, x0, 200)
            assert traj.terminated_early == by_orbit.get(i)
            stored = len(traj.states)
            assert traj.states.tobytes() == run.record[:stored, i].tobytes()
            assert np.isnan(run.record[stored:, i]).all()


def reference_ensemble(sys, X0, steps, tail_start):
    """The serial-gather ensemble loop the lockstep engine replaced."""
    X = np.array(X0, dtype=float)
    alive = np.ones(len(X), dtype=bool)
    guards, lo, hi = [], np.inf, -np.inf
    for t in range(1, steps + 1):
        idx = np.flatnonzero(alive)
        Xn, _, guard = advance(sys, X[idx])
        ok = guard == 0
        guards += [(int(idx[k]), t - 1, GUARD_REASONS[guard[k]])
                   for k in np.flatnonzero(~ok)]
        alive[idx[~ok]] = False
        X[idx[ok]] = Xn[ok]
        if t >= tail_start and ok.any():
            lo, hi = min(lo, Xn[ok].min()), max(hi, Xn[ok].max())
    return guards, lo, hi


def reference_lyapunov(sys, x, transient, samples, seed):
    """A serial tangent loop: the tangent is renormalized from step 0 and
    its log growth summed after ``transient`` steps."""
    v = np.random.default_rng(seed).standard_normal(sys.n)
    v /= np.linalg.norm(v)
    total = 0.0
    for t in range(transient + samples):
        x_next, q, _ = advance(sys, x)
        v = v + sys.A @ (q * (sys.B @ v))
        s = np.linalg.norm(v)
        v /= s
        if t >= transient:
            total += np.log(s)
        x = x_next
    return total / samples


class TestLockstepAgainstReferenceLoops:
    def test_ensemble_guards_and_tail_are_identical(self):
        sys = TestGuardPathAgreement.SYS
        X0 = TestGuardPathAgreement.X0
        run = _lockstep(sys, X0, 200, tail=range(151, 201))
        guards, lo, hi = reference_ensemble(sys, X0, 200, 151)
        assert run.guards == guards
        assert run.tail_min.min() == lo and run.tail_max.max() == hi

    @pytest.mark.parametrize("name", ["example1_qp_rho05",
                                      "example2_predator_prey"])
    def test_lyapunov_matches_serial_loop(self, name):
        # the lockstep run multiplies two-row batches; on these
        # contracting orbits the rounding differences do not grow
        sys = load_fixture(name)
        x0 = np.array([1.5, 0.5])
        expected = reference_lyapunov(sys, x0, 300, 2000, seed=4)
        got = largest_lyapunov(sys, x0, transient=300, samples=2000, seed=4)
        assert abs(got - expected) <= 1e-12


class TestVerificationPass:
    # x_1 never moves; x_2 changes by the factor exp(0.1 (2 - x_1)) each
    # step, so it collapses for x_1 > 2 and blows up for x_1 < 2 at a rate
    # set by x_1.  The ensemble guards before step 2000 and between steps
    # 2000 and 5000; the x0 = 1 member would overflow near step 7100,
    # after the pass ends, and its estimate stands.
    SYS = QPSystem([[0.0, 0.0], [-0.1, 0.0]], np.eye(2), [0.0, 0.2])
    TARGET = [2.0, 1.0]

    @pytest.mark.parametrize("seed", [0, 7, 123456])
    def test_guarded_runs_match_standalone_probes(self, seed):
        checks = verification_pass(self.SYS, self.TARGET, seed)
        permanence = empirical_permanence(self.SYS, seed=seed)
        attractivity = empirical_attractivity(
            self.SYS, self.TARGET, tol=VERIFY_ATTRACTIVITY_TOL,
            horizon=ATTRACTIVITY_HORIZON, seed=seed)
        assert checks.permanence.to_dict() == permanence.to_dict()
        assert checks.attractivity.to_dict() == attractivity.to_dict()

        early = checks.attractivity.statistics
        late = checks.permanence.statistics
        assert 0 < early["guard_terminations"] < late["guard_terminations"]
        assert early["first_guard"] == late["first_guard"]
        assert early["guard_counts"] == {
            "overflow": 0, "underflow": early["guard_terminations"]}
        assert late["guard_counts"]["overflow"] > 0
        assert late["guard_counts"]["underflow"] > 0
        assert sum(late["guard_counts"].values()) == late["guard_terminations"]

        # a guarded orbit has no estimate; every other orbit finishes
        spread = checks.lyapunov_statistics
        assert checks.lyapunov_error is None
        assert spread["orbits"] == (ENSEMBLE_SIZE + 1
                                    - late["guard_terminations"])
        assert spread["min"] <= checks.lyapunov <= spread["max"]

    def test_spectral_radius_is_read_at_the_target(self):
        sys = load_fixture("example3_qp_rho32")
        checks = verification_pass(sys, qp_fixed_point(sys), 0)
        assert checks.spectral_radius == pytest.approx(
            np.exp(exact_exponent(sys)), rel=1e-12)
        assert checks.spectral_radius == pytest.approx(2.2, rel=1e-12)
        assert verification_pass(self.SYS, None, 0).spectral_radius is None
        # x_2's exponent at x_1 = 1e4 is -999.8: the Jacobian guards there
        with pytest.raises(OverflowGuard):
            qp_jacobian(self.SYS, [1e4, 1.0])
        assert verification_pass(self.SYS, [1e4, 1.0],
                                 0).spectral_radius is None

    def test_guard_counts_follow_single_orbits(self):
        verdict = empirical_permanence(self.SYS, ensemble_size=8, seed=3)
        X0 = np.exp(np.random.default_rng(3).uniform(
            np.log(1e-2), np.log(1e2), size=(8, 2)))
        expected = {"overflow": 0, "underflow": 0}
        for x0 in X0:
            stop = simulate(self.SYS, x0, 5000).terminated_early
            if stop is not None:
                expected[stop[1]] += 1
        assert verdict.statistics["guard_counts"] == expected

    def test_lone_row_matches_batched_row(self):
        # a one-row batch is advanced through the batched product too,
        # and so is its tangent
        sys = load_fixture("example3_qp_rho32")
        X0 = np.array([[1.0, 1.0], [0.5, 2.0], [3.0, 0.25]])
        V = np.random.default_rng(1).standard_normal((3, 2))
        alone = _lockstep(sys, X0[:1], 300, record=range(300, 301),
                          tangents=(100, V[:1]))
        batched = _lockstep(sys, X0, 300, record=range(300, 301),
                            tangents=(100, V))
        assert np.array_equal(alone.record[0, 0], batched.record[0, 0])
        assert alone.exponents[0] == batched.exponents[0]

    def test_row_zero_is_the_standalone_estimate(self):
        # the pass's batch and tangents; on a chaotic orbit any rounding
        # difference would grow over the 5000 steps
        sys, seed = load_fixture("example3_qp_rho32"), 5
        X0 = np.vstack([_draw_initial_conditions(seed, ENSEMBLE_SIZE, 2),
                        np.ones(2)])
        V = _tangent_directions(seed, ENSEMBLE_SIZE + 1, 2)
        run = _lockstep(sys, X0, PERMANENCE_HORIZON,
                        tangents=(LYAPUNOV_TRANSIENT, V))
        assert run.exponents[0] == largest_lyapunov(
            sys, X0[0], LYAPUNOV_TRANSIENT,
            PERMANENCE_HORIZON - LYAPUNOV_TRANSIENT, seed)


class TestLyapunovExactOracle:
    # the pass's ensemble mean meets the same oracle in test_cli's
    # TestVerificationBlock
    @pytest.mark.parametrize("name", ATTRACTIVE_FIXTURES)
    def test_standalone_estimate_matches_the_linearization(self, name):
        sys = load_fixture(name)
        exact = exact_exponent(sys)
        for seed in (0, 7, 123456):
            estimate = largest_lyapunov(sys, np.ones(sys.n), seed=seed)
            assert abs(estimate - exact) <= 1e-10


class TestTangentIsolation:
    # x -> x exp(1 - x) componentwise: the Jacobian vanishes at x* = (1, 1),
    # so a tangent collapses to 0 once its orbit lands exactly on x*
    SYS = QPSystem(-np.eye(2), np.eye(2), [1.0, 1.0])

    def test_lost_tangents_leave_the_orbits_alone(self):
        seed = 7
        checks = verification_pass(self.SYS, [1.0, 1.0], seed)
        assert checks.permanence.to_dict() == empirical_permanence(
            self.SYS, seed=seed).to_dict()
        assert checks.attractivity.to_dict() == empirical_attractivity(
            self.SYS, [1.0, 1.0], tol=VERIFY_ATTRACTIVITY_TOL,
            seed=seed).to_dict()
        assert checks.permanence.passed and checks.attractivity.passed

        # the same rows as two separate batches: a row finishes iff its
        # exponent is finite, whichever rows share its batch
        X0 = np.vstack([_draw_initial_conditions(seed, ENSEMBLE_SIZE, 2),
                        np.ones(2)])
        V = _tangent_directions(seed, ENSEMBLE_SIZE + 1, 2)
        exponents = np.concatenate([
            _lockstep(self.SYS, X0[part], PERMANENCE_HORIZON,
                      tangents=(LYAPUNOV_TRANSIENT, V[part])).exponents
            for part in (slice(0, 25), slice(25, None))])
        finished = exponents[np.isfinite(exponents)]
        assert 0 < finished.size < ENSEMBLE_SIZE + 1
        spread = checks.lyapunov_statistics
        assert spread["orbits"] == finished.size
        assert (spread["min"], spread["max"]) == (finished.min(),
                                                  finished.max())
        assert checks.lyapunov_error is None


def _rows(keep):
    """Batch positions of the rows that ``keep`` selects.  A lone row is
    taken twice: numpy multiplies a one-row matrix through another BLAS
    kernel, whose rounding differs, and an orbit must not depend on
    which rows share its batch."""
    rows = np.flatnonzero(keep)
    return np.repeat(rows, 2) if rows.size == 1 else rows


def reference_lockstep(sys, X0, horizon, tail=range(0), record=range(0),
                       tangents=None, record_tangents=False):
    """The per-step lockstep loop: the guard is checked after every step
    and the batch is rebuilt at each guarded step.  With
    ``record_tangents`` a recorded row is its state and then its tangent
    vector, 2 n components."""
    X0 = np.asarray(X0, dtype=float)
    tail_min = np.full(X0.shape, np.inf)
    tail_max = np.full(X0.shape, -np.inf)
    rec = np.full((len(record), len(X0), X0.shape[1] * (1 + record_tangents)),
                  np.nan)
    guards = []
    idx = np.arange(X0.shape[0])
    rows = _rows(np.ones(idx.size, dtype=bool))
    L = X0[rows]
    if tangents is not None:
        start, V = tangents
        V, g = V[rows], np.zeros(rows.size)
        At, Bt = np.ascontiguousarray(sys.A.T), np.ascontiguousarray(sys.B.T)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for t in range(horizon + 1):
            if t in tail:
                live = L[:idx.size]
                tail_min[idx] = np.minimum(tail_min[idx], live)
                tail_max[idx] = np.maximum(tail_max[idx], live)
            if t in record:
                rec[t - record.start, idx] = (
                    np.hstack([L, V]) if record_tangents else L)[:idx.size]
            if t == horizon or not idx.size:
                break
            L, q, guard = advance(sys, L)
            if guard.any():
                ok = guard[:idx.size] == 0
                for k in np.flatnonzero(~ok):
                    guards.append((int(idx[k]), t, GUARD_REASONS[guard[k]]))
                rows, idx = _rows(ok), idx[ok]
                L, q = L[rows], q[rows]
                if tangents is not None:
                    V, g = V[rows], g[rows]
            if tangents is not None:
                V += (q * (V @ Bt)) @ At
                s = np.sqrt(np.einsum("ij,ij->i", V, V))
                V /= s[:, None]
                if t >= start:
                    g += np.log(s)
        exponents = None
        if tangents is not None:
            exponents = np.full(X0.shape[0], np.nan)
            exponents[idx] = g[:idx.size] / (horizon - start)
    return guards, tail_min, tail_max, rec, exponents


def reference_simulate(sys, x0, steps):
    """The per-step orbit loop: states and (t, reason) of the first guard."""
    states = [np.array(x0, dtype=float)]
    for t in range(steps):
        x, _, guard = advance(sys, states[-1])
        if guard:
            return np.array(states), (t, GUARD_REASONS[guard])
        states.append(x)
    return np.array(states), None


K = BLOCK_STEPS
#: x_1 never moves and log x_2 moves by 0.2 - 0.1 x_1 a step
#: (TestVerificationPass.SYS): x_1 = 2 stays put, x_1 = 1 climbs to the
#: overflow guard on log x_2 > 700, x_1 = 3 falls to the underflow floor.
DRIFT = TestVerificationPass.SYS
STILL = [2.0, 5.0]


def guarded_at(T, reason):
    """A state of DRIFT whose transition out of step T is guarded."""
    if reason == "overflow":
        return [1.0, np.exp(700.05 - 0.1 * T)]
    return [3.0, np.exp(np.log(UNDERFLOW_FLOOR) - 0.05 + 0.1 * (T + 1))]


def drift_batch(*steps):
    """Guarded rows at the given steps, alternating overflow and
    underflow, between rows that never guard."""
    rows = [STILL]
    for i, T in enumerate(steps):
        rows += [guarded_at(T, ("overflow", "underflow")[i % 2]),
                 [2.0 + 0.01 * (i + 1), 1.0]]
    return np.array(rows)


def with_tangents(start, m, seed=3):
    return start, _tangent_directions(seed, m, 2)


OFFSETS = (0, 1, K - 1, K, K + 1)
HORIZON = 3 * K + 5  # not a multiple of K


def at(t):
    """The record of the one step t."""
    return range(t, t + 1)


LOCKSTEP_CASES = {
    **{f"guard-at-{T}": (DRIFT, drift_batch(T), HORIZON,
                         range(K + 10, HORIZON + 1), at(K + 3))
       for T in OFFSETS},
    "guards-at-every-offset": (DRIFT, drift_batch(*OFFSETS), HORIZON,
                               range(K + 10, HORIZON + 1), at(K + 3)),
    "guard-at-horizon-1": (DRIFT, drift_batch(HORIZON - 1, K + 1), HORIZON,
                           range(HORIZON - 7, HORIZON + 1), at(HORIZON)),
    "tail-and-record-inside-blocks": (DRIFT, drift_batch(5, 2 * K + 9),
                                      HORIZON, range(K // 2, 2 * K + 11),
                                      range(K + 7, 2 * K + 10)),
    # every state of every row, through guards at each block offset and
    # inside a block, and across every block end
    "record-every-step": (DRIFT, drift_batch(*OFFSETS, 2 * K + 9), HORIZON,
                          range(K + 10, HORIZON + 1), range(HORIZON + 1)),
    "horizon-0": (DRIFT, drift_batch(0, 3), 0, range(0, 1), at(0)),
    "horizon-1": (DRIFT, drift_batch(0, 3), 1, range(0, 2), range(0, 2)),
    "lone-row": (DRIFT, np.array([guarded_at(K + 1, "overflow")]), HORIZON,
                 range(K, HORIZON + 1), at(K + 1)),
    "lone-still-row": (load_fixture("example3_qp_rho32"),
                       np.array([[1.0, 1.0]]), HORIZON,
                       range(K - 3, HORIZON + 1), range(K - 2, K + 3)),
    "batch-shrinks-to-one-row": (
        DRIFT, np.array([guarded_at(K + 2, "overflow"), STILL,
                         guarded_at(K + 5, "underflow")]),
        HORIZON, range(K + 1, HORIZON + 1), at(2 * K)),
    "every-row-guarded-in-one-block": (
        DRIFT, np.array([guarded_at(T, reason)
                         for T in (K + 2, K + 9, 2 * K - 3, K + 9)
                         for reason in ("overflow", "underflow")]),
        HORIZON, range(K, HORIZON + 1), at(K + 5)),
    # rows 1 and 2 guard and shadow row 0, the first live row; row 0
    # guards with its shadows, and row 3 takes over until it guards too
    "shadow-source-guards": (
        DRIFT, np.array([guarded_at(2 * K + 3, "overflow"),
                         guarded_at(5, "underflow"),
                         guarded_at(K + 1, "overflow"),
                         guarded_at(2 * K + 20, "underflow"), STILL]),
        HORIZON, range(K + 10, HORIZON + 1), at(2 * K + 9)),
    "verification-pass-batch": (
        DRIFT, np.vstack([_draw_initial_conditions(7, ENSEMBLE_SIZE, 2),
                          np.ones(2)]),
        PERMANENCE_HORIZON, range(4001, 5001), at(ATTRACTIVITY_HORIZON)),
}


#: DRIFT with a third component behind a coupled exponent matrix: the
#: quasimonomial x_1^0.5 x_3 settles at 1, and W_2 = log x_2 + 0.25 log x_3
#: drifts like DRIFT's log x_2, so rows near ``guarded_at`` guard mid-block
DRIFT3 = QPSystem([[0.0, 0.0, 0.0], [-0.1, 0.0, 0.0], [0.0, 0.0, -0.5]],
                  [[1.0, 0.0, 0.0], [0.0, 1.0, 0.25], [0.5, 0.0, 1.0]],
                  [0.0, 0.2, 0.5])


def wide_case(system, m):
    """(sys, X0) of an n > 2 batch of m rows: a ``stable_lv_image`` of
    dimension n, or DRIFT3 with every fifth row guarded inside a block."""
    rng = np.random.default_rng(m)
    if system == "drift3":
        X0 = np.column_stack([np.full(m, 2.0), rng.uniform(0.5, 2.0, (m, 2))])
        for i in range(0, m, 5):
            X0[i, :2] = guarded_at((K // 2, K + 9, 2 * K - 3)[i // 5 % 3],
                                   ("overflow", "underflow")[i // 5 % 2])
        return DRIFT3, X0
    n = int(system.rsplit("n", 1)[1])
    return stable_lv_image(rng, n), np.exp(
        rng.uniform(np.log(0.5), np.log(2.0), size=(m, n)))


def assert_matches_the_per_step_loop(sys, X0, horizon, tail, record,
                                     tangents):
    run = _lockstep(sys, X0, horizon, tail=tail, record=record,
                    tangents=tangents)
    guards, lo, hi, rec, exponents = reference_lockstep(
        sys, X0, horizon, tail=tail, record=record, tangents=tangents)
    assert run.guards == guards
    for got, expected in ((run.tail_min, lo), (run.tail_max, hi),
                          (run.record, rec), (run.exponents, exponents)):
        assert (got is None if expected is None
                else np.array_equal(got, expected, equal_nan=True))
    return run


class TestBlockedLockstep:
    # every case without tangents, and with a tangent window that starts
    # at step 0 or inside the first block wherever that precedes the horizon
    @pytest.mark.parametrize("case, tangent_start", [
        (case, start) for case, (*_, horizon, _, _) in LOCKSTEP_CASES.items()
        for start in (None, 0, 7) if start is None or start < horizon])
    def test_matches_the_per_step_loop(self, case, tangent_start):
        sys, X0, horizon, tail, record = LOCKSTEP_CASES[case]
        tangents = (None if tangent_start is None
                    else with_tangents(tangent_start, len(X0)))
        assert_matches_the_per_step_loop(sys, X0, horizon, tail, record,
                                         tangents)

    # the fused step multiplies (2m, n) operands: wider BLAS shapes than
    # the n = 2 cases, a lone row, a pair and the pass's 51 rows
    @pytest.mark.parametrize("tangent_start", [0, 7])
    @pytest.mark.parametrize("m", [1, 2, ENSEMBLE_SIZE + 1])
    @pytest.mark.parametrize("system", [
        "stable-lv-image-n3", "stable-lv-image-n6", "stable-lv-image-n10",
        "drift3"])
    def test_wide_tangents_match_the_per_step_loop(self, system, m,
                                                   tangent_start):
        sys, X0 = wide_case(system, m)
        tangents = tangent_start, _tangent_directions(3, m, sys.n)
        run = assert_matches_the_per_step_loop(
            sys, X0, HORIZON, range(K + 10, HORIZON + 1), range(K - 2, K + 3),
            tangents)
        guarded = {row for row, _, _ in run.guards}
        assert set(np.flatnonzero(~np.isfinite(run.exponents))) == guarded
        if system == "drift3":
            assert guarded and all(0 < t % K < K - 1
                                   for _, t, _ in run.guards)
        else:
            assert not guarded

    def test_short_blocks_match_the_per_step_loop(self, monkeypatch):
        # 51 rows of 3, stepped as 52 (an odd batch is padded), store
        # 52 * 19 doubles a step with tangents and 52 * 9 without: blocks
        # of 5 and of 10 steps
        monkeypatch.setattr(qpd.systems, "BLOCK_DOUBLES", 5 * 52 * 19 + 12)
        sys, X0 = wide_case("drift3", ENSEMBLE_SIZE + 1)
        V = _tangent_directions(3, len(X0), 3)
        assert MapStep(sys, X0, HORIZON, (0, V)).size == 5
        assert MapStep(sys, X0, HORIZON).size == 10
        for tangents in (None, (7, V)):
            assert_matches_the_per_step_loop(
                sys, X0, HORIZON, range(K + 10, HORIZON + 1),
                range(K - 2, K + 3), tangents)

    def test_cases_guard_where_they_say(self):
        guards = reference_lockstep(DRIFT, drift_batch(*OFFSETS), HORIZON)[0]
        assert [(t, reason) for _, t, reason in guards] == [
            (T, ("overflow", "underflow")[i % 2])
            for i, T in enumerate(OFFSETS)]
        guards = reference_lockstep(
            *LOCKSTEP_CASES["every-row-guarded-in-one-block"][:3])[0]
        assert len(guards) == 8
        assert {t // K for _, t, _ in guards} == {1}
        assert reference_lockstep(
            *LOCKSTEP_CASES["guard-at-horizon-1"][:3])[0][-1][1] == HORIZON - 1
        assert reference_lockstep(
            *LOCKSTEP_CASES["shadow-source-guards"][:3])[0] == [
                (1, 5, "underflow"), (2, K + 1, "overflow"),
                (0, 2 * K + 3, "overflow"), (3, 2 * K + 20, "underflow")]

    @pytest.mark.parametrize("tangents", [False, True])
    def test_a_run_builds_one_kernel(self, monkeypatch, tangents):
        # DRIFT is tests/data/guarded_drift.json; the pass's batch at seed
        # 7 guards 36 of its 51 rows, at 36 different steps
        builds = []

        class Counted(MapStep):
            def __init__(self, sys, X0, steps, tangents=None):
                builds.append(None if tangents is None
                              else tangents[1].shape)
                super().__init__(sys, X0, steps, tangents)

        monkeypatch.setattr(qpd.dynamics, "MapStep", Counted)
        sys, X0, horizon, tail, record = LOCKSTEP_CASES[
            "verification-pass-batch"]
        run = _lockstep(sys, X0, horizon, tail, record, tangents=(
            with_tangents(LYAPUNOV_TRANSIENT, len(X0)) if tangents else None))
        assert len(run.guards) == 36
        assert builds == [(len(X0), 2) if tangents else None]

    def test_tangent_that_collapses_mid_block(self):
        # x -> x exp(1 - x): a tangent collapses to 0 once its orbit lands
        # exactly on x* = (1, 1); 40 of these rows land at steps 5 to 91,
        # inside the first two blocks
        sys = TestTangentIsolation.SYS
        X0 = np.vstack([_draw_initial_conditions(7, ENSEMBLE_SIZE, 2),
                        np.ones(2)])
        tangents = with_tangents(LYAPUNOV_TRANSIENT // 10, len(X0), seed=7)
        run = _lockstep(sys, X0, 5 * K + 3, tangents=tangents)
        *_, exponents = reference_lockstep(sys, X0, 5 * K + 3,
                                           tangents=tangents)
        assert not run.guards
        assert 0 < np.isfinite(exponents).sum() < len(X0)
        assert np.array_equal(run.exponents, exponents, equal_nan=True)

    def test_block_buffers_are_capped(self):
        # a step stores 3 m n doubles, or m (6 n + 1) with tangents: the
        # states, [log X; V], [W; V B^T], the step exponents and the
        # tangent norms
        def size(m, n, tangents, steps=HORIZON):
            V = (0, np.ones((m, n))) if tangents else None
            return MapStep(behind(np.eye(n)), np.ones((m, n)), steps, V).size

        for tangents, per_row in ((False, lambda n: 3 * n),
                                  (True, lambda n: 6 * n + 1)):
            assert size(ENSEMBLE_SIZE + 1, 2, tangents) == K
            assert size(1, 128, tangents) == K
            # and never more steps than the run has
            assert [size(2, 2, tangents, steps) for steps in (0, 1, 5)] == [
                1, 1, 5]
            for m, n in ((10**4, 2), (10**4, 6), (10**5, 2), (0, 2)):
                steps = size(m, n, tangents)
                assert steps >= 1
                assert steps == 1 or steps * m * per_row(n) <= BLOCK_DOUBLES


class TestBlockedSimulate:
    @pytest.mark.parametrize("reason", ["overflow", "underflow"])
    @pytest.mark.parametrize("T", OFFSETS)
    def test_guard_at_a_block_offset(self, T, reason):
        x0 = guarded_at(T, reason)
        states, stop = reference_simulate(DRIFT, x0, HORIZON)
        assert stop == (T, reason)
        traj = simulate(DRIFT, x0, HORIZON)
        assert traj.terminated_early == stop
        assert traj.states.tobytes() == states.tobytes()

    @pytest.mark.parametrize("steps", [0, 1, K, K + 1])
    def test_run_lengths(self, steps):
        cases = [(load_fixture("example3_qp_rho32"), [1.0, 1.0]),
                 (DRIFT, STILL)]
        if steps:  # guarded at the run's last transition
            cases.append((DRIFT, guarded_at(steps - 1, "overflow")))
        for sys, x0 in cases:
            states, stop = reference_simulate(sys, x0, steps)
            traj = simulate(sys, x0, steps)
            assert traj.terminated_early == stop
            assert traj.states.tobytes() == states.tobytes()


def pass_batch(seed, n=2):
    """The verification pass's rows and tangent directions at a seed."""
    X0 = np.vstack([_draw_initial_conditions(seed, ENSEMBLE_SIZE, n),
                    np.ones(n)])
    return X0, _tangent_directions(seed, ENSEMBLE_SIZE + 1, n)


def least_periods(states):
    """Each row's least period over the last K + 1 steps of ``states``,
    (steps, ..., rows, components), bit for bit, or None when some row
    does not repeat within them."""
    bits = states[-K - 1:].reshape(min(len(states), K + 1), -1,
                                   states.shape[-1]).view(np.int64)
    same = (bits[:-1] == bits[-1]).all(axis=-1)
    if not same.any(axis=0).all():
        return None
    return (np.argmax(same[::-1], axis=0) + 1).tolist()


def row_periods(sys, X0, tangents, horizon):
    """The ``least_periods`` of the rows X0 by step ``horizon``, tangents
    included, from the per-step loop's record."""
    return least_periods(reference_lockstep(
        sys, X0, horizon, record=range(horizon - K, horizon + 1),
        tangents=tangents, record_tangents=tangents is not None)[3])


def replayed_period(sys, X0, tangents, horizon=LYAPUNOV_TRANSIENT):
    """The period of the cycle that a run of the rows X0 replays by step
    ``horizon``: the lcm of the ``row_periods``, or None."""
    periods = row_periods(sys, X0, tangents, horizon)
    return None if periods is None else math.lcm(*periods)


def found_cycles(monkeypatch):
    """The cycles that ``systems._cycle`` finds, None where it finds
    none."""
    cycles, find = [], qpd.systems._cycle

    def spy(*args):
        cycles.append(find(*args))
        return cycles[-1]

    monkeypatch.setattr(qpd.systems, "_cycle", spy)
    return cycles


def rickers(*r):
    """x_i -> x_i exp(r_i (1 - x_i)) in each component, as one system."""
    r = np.array(r)
    return QPSystem(-np.diag(r), np.eye(len(r)), r)


#: The float orbits of x -> x exp(r (1 - x)) settle on cycles of
#: different periods at r = 2.6 (where the map has an attracting
#: 4-cycle), 2.67 and 2.917, and x = 1 is fixed: rows that move one
#: component each have different periods
RICKERS = rickers(2.6, 2.67, 2.917)
RICKER_ROWS = np.array([[0.5, 1.0, 1.0], [1.3, 1.0, 1.0], [1.0, 0.5, 1.0],
                        [1.0, 1.4, 1.0], [1.0, 1.0, 0.6], [1.0, 1.0, 1.0]])


class TestCycleReplay:
    # a float orbit lives on a finite set, so a batch that settles on an
    # attracting cycle repeats bit for bit, tangents included; from then
    # on the engine reads its states and logged tangent norms from the
    # stored cycle

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_pass_matches_the_per_step_loop(self, monkeypatch, name, seed):
        cycles = found_cycles(monkeypatch)
        X0, V = pass_batch(seed)
        run = assert_matches_the_per_step_loop(
            load_fixture(name), X0, PERMANENCE_HORIZON,
            qpd.dynamics._tail_window(PERMANENCE_HORIZON),
            at(ATTRACTIVITY_HORIZON), (LYAPUNOV_TRANSIENT, V))
        found = [cycle for cycle in cycles if cycle is not None]
        period = replayed_period(load_fixture(name), X0,
                                 (LYAPUNOV_TRANSIENT, V))
        # every batch but example3's settles before the Lyapunov sum starts
        assert (period is None) == (name == "example3_qp_rho32")
        if period is not None:
            (start, (states, _)), = found
            assert len(states) == period
            assert start == run.stepped + 1
            assert run.stepped <= LYAPUNOV_TRANSIENT
        else:
            assert not found and run.stepped == PERMANENCE_HORIZON

    @pytest.mark.parametrize("tangent_start", [None, 7, 500])
    def test_a_cycle_of_states(self, tangent_start):
        # the fixtures' batches settle on fixed states, and only their
        # tangents cycle; x -> x exp(2.6 (1 - x)) has an attracting
        # 4-cycle, on which these rows repeat with period 8
        sys = QPSystem(-2.6 * np.eye(2), np.eye(2), [2.6, 2.6])
        X0 = np.exp(np.random.default_rng(1).uniform(-1.0, 1.0, (5, 2)))
        run = assert_matches_the_per_step_loop(
            sys, X0, 1000, range(900, 1001), range(1001),
            None if tangent_start is None
            else with_tangents(tangent_start, len(X0)))
        assert run.stepped <= 3 * K
        assert len({row.tobytes() for row in run.record[-8:]}) == 8

    @pytest.mark.parametrize("tangent_start", [None, 500])
    @pytest.mark.parametrize("tail", [range(996, 1001), range(992, 997)])
    def test_a_tail_shorter_than_the_cycle(self, monkeypatch, tail,
                                           tangent_start):
        # the rows of test_a_cycle_of_states replay a cycle of 8 copies
        # from step 129: a tail of 5 steps covers 5 of them, copies 3 to
        # 7 or, wrapping around, 7 and 0 to 3, whose extrema are not
        # those of all 8, and the record spans 11 replayed steps
        sys = QPSystem(-2.6 * np.eye(2), np.eye(2), [2.6, 2.6])
        X0 = np.exp(np.random.default_rng(1).uniform(-1.0, 1.0, (5, 2)))
        cycles = found_cycles(monkeypatch)
        run = assert_matches_the_per_step_loop(
            sys, X0, 1000, tail, range(990, 1001),
            None if tangent_start is None
            else with_tangents(tangent_start, len(X0)))
        (start, (states, _)), = [cycle for cycle in cycles
                                 if cycle is not None]
        assert len(states) == 8 and start <= 990
        assert not np.array_equal(run.tail_min, states.min(axis=0)[:5])
        assert not np.array_equal(run.tail_max, states.max(axis=0)[:5])

    @pytest.mark.parametrize("tangent_start", [None, 0, LYAPUNOV_TRANSIENT])
    def test_guarded_pass_matches_the_per_step_loop(self, tangent_start):
        # tests/data/guarded_drift.json at seed 7 trips 36 blocks, and
        # its tangents shear, so the batch never repeats
        sys, X0, horizon, tail, record = LOCKSTEP_CASES[
            "verification-pass-batch"]
        tangents = (None if tangent_start is None
                    else with_tangents(tangent_start, len(X0)))
        run = assert_matches_the_per_step_loop(sys, X0, horizon, tail,
                                               record, tangents)
        assert len(run.guards) == 36 and run.stepped > horizon

    @pytest.mark.parametrize("tangent_start", [None, 0, LYAPUNOV_TRANSIENT])
    def test_a_trip_then_a_cycle(self, tangent_start):
        # two rows underflow at step 0 and shadow row 0; the batch then
        # repeats, after the Lyapunov sum has started when it starts at 0,
        # so the stored cycle must carry the logged tangent norms
        X0, V = pass_batch(0)
        X0[[3, 17]] = 1e3
        run = assert_matches_the_per_step_loop(
            load_fixture("example1_lv"), X0, PERMANENCE_HORIZON,
            qpd.dynamics._tail_window(PERMANENCE_HORIZON),
            range(ATTRACTIVITY_HORIZON - 70, ATTRACTIVITY_HORIZON + 1),
            None if tangent_start is None else (tangent_start, V))
        assert run.guards == [(3, 0, "underflow"), (17, 0, "underflow")]
        assert run.stepped < 1024

    def test_cycle_before_the_lyapunov_sum(self):
        # the lone orbit of (1, 1) repeats within its first blocks, so the
        # whole sum over steps 3000 to 4999 adds stored logged norms
        sys, x0 = load_fixture("example1_lv"), np.ones((1, 2))
        tangents = (3000, _tangent_directions(0, 1, 2))
        assert _lockstep(sys, x0, 5000, tangents=tangents).stepped < 3000
        *_, exponents = reference_lockstep(sys, x0, 5000, tangents=tangents)
        estimate = largest_lyapunov(sys, x0[0], transient=3000, samples=2000)
        assert estimate == exponents[0]

    def test_pass_steps_only_until_the_batch_repeats(self, monkeypatch):
        steps = counted_kernel(monkeypatch)
        lv = load_fixture("example1_lv")
        verification_pass(lv, qp_fixed_point(lv), 0)
        assert len(steps) <= 1024
        steps.clear()
        chaotic = load_fixture("example3_qp_rho32")
        verification_pass(chaotic, qp_fixed_point(chaotic), 0)
        assert len(steps) == PERMANENCE_HORIZON

    def test_stepped_counts_the_kernel_steps(self, monkeypatch):
        steps = counted_kernel(monkeypatch)
        for name in ("example1_lv", "example3_qp_rho32"):
            steps.clear()
            X0, _ = pass_batch(0)
            run = _lockstep(load_fixture(name), X0, PERMANENCE_HORIZON)
            assert run.stepped == len(steps)

    def test_bit_patterns_are_compared(self):
        # a fixed batch of states whose tangent rows 0 differ only in the
        # sign of a zero, or agree only as NaN bit patterns; row 1 is
        # fixed from step 1, so the batch repeats with row 0's period 2,
        # copied from step 5 + 2 + 1 on
        S, norms = np.ones((3, 2, 2)), np.ones((3, 2))
        V = np.tile([[0.0, 1.0], [1.0, 0.0]], (3, 1, 1))
        V[1, 0, 0] = -0.0  # == 0.0, yet row 0 at 1 is not row 0 at 2
        start, (states, _) = qpd.systems._cycle(5, 2, S, V, norms, 10)
        assert (start, len(states)) == (8, 2)
        V[:, 0, 0] = np.nan, 0.0, np.nan  # NaN != NaN, yet 0 is 2 in row 0
        assert len(qpd.systems._cycle(5, 2, S, V, norms, 10)[1][0]) == 2

    @pytest.mark.parametrize("tangent_start", [None, 0, 7])
    def test_rows_of_different_periods(self, monkeypatch, tangent_start):
        # rows on x -> x exp(2.6 (1 - x))'s attracting 4-cycle next to
        # rows with a component fixed at 1 and a row fixed at (1, 1): the
        # replayed cycle is the lcm of the rows' periods
        sys = rickers(2.6, 2.6)
        X0 = np.vstack([
            np.exp(np.random.default_rng(1).uniform(-1.0, 1.0, (3, 2))),
            [[1.0, 0.5], [0.7, 1.0], [1.0, 1.0]]])
        tangents = (None if tangent_start is None
                    else with_tangents(tangent_start, len(X0)))
        cycles = found_cycles(monkeypatch)
        run = assert_matches_the_per_step_loop(
            sys, X0, 1000, range(900, 1001), range(1001), tangents)
        periods = row_periods(sys, X0, tangents, run.stepped)
        (_, (states, _)), = [cycle for cycle in cycles if cycle is not None]
        assert len(set(periods)) > 1
        assert len(states) == math.lcm(*periods)
        assert run.stepped < 1000

    def test_periods_whose_lcm_exceeds_a_block(self, monkeypatch):
        # the batch repeats only after more steps than a block holds,
        # but every row repeats within one
        cycles = found_cycles(monkeypatch)
        run = assert_matches_the_per_step_loop(
            RICKERS, RICKER_ROWS, 1000, range(900, 1001), range(1001), None)
        period = replayed_period(RICKERS, RICKER_ROWS, None, run.stepped)
        (_, (states, _)), = [cycle for cycle in cycles if cycle is not None]
        assert len(states) == period > K
        assert run.stepped <= 4 * K

    @pytest.mark.parametrize("tangent_start", [None, 0])
    def test_a_cycle_longer_than_the_steps_left(self, monkeypatch,
                                                tangent_start):
        # the batch repeats only after more steps than the run has left
        # once its rows repeat: the copies hold only those steps.
        # RICKERS' states repeat after more than a block; with tangents,
        # the rows of the 4-cycle of x -> x exp(2.6 (1 - x)) do
        if tangent_start is None:
            sys, X0, tangents = RICKERS, RICKER_ROWS, None
        else:
            sys = rickers(2.6, 2.6)
            X0 = np.exp(np.random.default_rng(1).uniform(-1.0, 1.0, (3, 2)))
            tangents = with_tangents(tangent_start, len(X0))
        stepped = _lockstep(sys, X0, 1000, tangents=tangents).stepped
        period = replayed_period(sys, X0, tangents, stepped)
        horizon = stepped + period // 2
        cycles = found_cycles(monkeypatch)
        run = assert_matches_the_per_step_loop(
            sys, X0, horizon, range(horizon - 10, horizon + 1),
            range(horizon + 1), tangents)
        (start, (states, norms)), = [cycle for cycle in cycles
                                     if cycle is not None]
        assert start == stepped + 1
        assert len(states) == horizon - stepped < period
        assert norms is None or len(norms) == len(states)
        assert run.stepped == stepped

    @pytest.mark.parametrize("tangent_start", [None, 0, 7])
    def test_conjugacy_run_of_stable_lv_image_n6(self, tangent_start):
        # the direct orbits of 20 conjugacy trials settle into float
        # cycles of periods 1, 2, 4, 8 and 19, whose lcm is 152; their
        # tangent rows never repeat within these 500 steps
        sys = load_system(DATA / "stable_lv_image_n6.json")
        X0 = conjugacy_trials(np.random.default_rng(0), 6, 20)[1]
        tangents = (None if tangent_start is None
                    else (tangent_start, _tangent_directions(3, 20, 6)))
        run = assert_matches_the_per_step_loop(sys, X0, 500, range(400, 501),
                                               range(501), tangents)
        if tangents is None:
            assert run.stepped <= 2 * K

    @pytest.mark.parametrize("tangent_start", [None, 0])
    def test_a_row_that_never_repeats(self, monkeypatch, tangent_start):
        # x -> x exp(3.3 (1 - x)) is chaotic: its row never repeats, so
        # rows 0 to 2, settled, are never replayed
        sys, steps = rickers(2.6, 3.3), 5 * K
        X0 = np.array([[0.5, 1.0], [1.0, 1.0], [1.2, 1.0], [1.0, 0.5]])
        cycles = found_cycles(monkeypatch)
        run = assert_matches_the_per_step_loop(
            sys, X0, steps, range(steps - 10, steps + 1), range(steps + 1),
            None if tangent_start is None
            else with_tangents(tangent_start, len(X0)))
        assert least_periods(run.record[:, :3]) is not None
        assert least_periods(run.record) is None
        assert not any(cycles) and run.stepped == steps

    @pytest.mark.parametrize("over", [False, True])
    def test_a_cycle_over_the_storage_cap_is_stepped(self, monkeypatch,
                                                      over):
        # RICKERS' cycle of L steps stores L * 6 * 3 doubles: a cap one
        # double short of it keeps the run stepping, though its blocks
        # still hold every row's period, until the copies of the steps
        # it has left, fewer than L, fit
        periods = row_periods(RICKERS, RICKER_ROWS, None, 1000)
        L = math.lcm(*periods)
        monkeypatch.setattr(qpd.systems, "BLOCK_DOUBLES",
                            L * RICKER_ROWS.size - over)
        assert MapStep(RICKERS, RICKER_ROWS, 1000).size >= max(periods)
        run = assert_matches_the_per_step_loop(
            RICKERS, RICKER_ROWS, 1000, range(900, 1001), range(1001), None)
        assert run.stepped < 1000
        assert (1000 - run.stepped < L) if over else run.stepped <= 4 * K

    def test_periods_whose_lcm_overflows_int64(self):
        # rows of every prime period up to 53, whose lcm, about 3.3e19,
        # is past int64, where np.lcm wraps around silently, and the
        # same rows with periods of lcm 30 030, the rows fixed at 1 of
        # period 1, from their largest a_r, K - 1: both cycles are
        # longer than the 1000 steps left, which are the copies, each
        # row at its own period
        def assert_copies(S, periods):
            start, (states, norms) = qpd.systems._cycle(0, K, S, None, None,
                                                        1000)
            assert start == K + 1 and norms is None
            copies = 1.0 + (start + np.arange(1000))[:, None] % periods
            np.testing.assert_array_equal(states[..., 0], copies)

        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
        assert math.lcm(*primes) > 2**63
        S = (1.0 + np.arange(K + 1)[:, None] % primes)[..., None]
        assert_copies(S, primes)
        S[:, 6:] = 1.0
        assert_copies(S, primes[:6] + [1] * 10)

    def test_no_search_without_steps_left(self, monkeypatch):
        # a block that ends the run has nothing left to replay, so a
        # one-step block, which is every advance, never searches
        def search(*args):
            raise AssertionError("searched for a cycle")

        monkeypatch.setattr(qpd.systems, "_cycle", search)
        sys, x = load_fixture("example1_lv"), np.ones(2)
        step(sys, x)
        advance(sys, np.ones((3, 2)))
        qp_jacobian(sys, x)
        tangents = (0, _tangent_directions(0, 1, 2))
        assert _lockstep(sys, x[None], 1, tangents=tangents).stepped == 1
        assert _lockstep(sys, x[None], BLOCK_STEPS).stepped == BLOCK_STEPS
        with pytest.raises(AssertionError, match="searched"):
            _lockstep(sys, x[None], BLOCK_STEPS + 1)


#: For the system and rows X0 in the .npz file argv[1], prints the rows
#: whose step in a batch of X0 is not their ``step``, then the rows whose
#: state at step 200 of a lockstep run of X0 is not their lone run's.
LONE_RUNS = """
import sys
import numpy as np
from qpd.dynamics import _lockstep
from qpd.systems import QPSystem, advance, step

case = np.load(sys.argv[1])
system, X0 = QPSystem(case["A"], case["B"], case["lam"]), case["X0"]
X1 = advance(system, X0)[0]
run = _lockstep(system, X0, 200, record=range(200, 201)).record[0]
alone = [_lockstep(system, x[None], 200, record=range(200, 201)).record[0, 0]
         for x in X0]
print([i for i, x in enumerate(X0)
       if step(system, x).tobytes() != X1[i].tobytes()],
      [i for i, x in enumerate(alone) if x.tobytes() != run[i].tobytes()])
"""


class TestOneOrbitPerState:
    # simulate, step and a lockstep row multiply a state alike, so one x0
    # has one float orbit; on the chaotic example3 orbit any rounding
    # difference would grow over the 5000 steps
    @pytest.mark.parametrize("system", ["example3_qp_rho32",
                                        "stable-lv-image-n6"])
    def test_simulate_is_the_verification_pass_row(self, system):
        sys = (stable_lv_image(np.random.default_rng(6), 6)
               if system == "stable-lv-image-n6" else load_fixture(system))
        n, seed = sys.n, 0
        X0 = np.vstack([_draw_initial_conditions(seed, ENSEMBLE_SIZE, n),
                        np.ones(n)])
        run = _lockstep(sys, X0, PERMANENCE_HORIZON,
                        record=range(PERMANENCE_HORIZON + 1),
                        tangents=(LYAPUNOV_TRANSIENT, _tangent_directions(
                            seed, ENSEMBLE_SIZE + 1, n)))
        traj = simulate(sys, np.ones(n), PERMANENCE_HORIZON)
        # other rows may guard and shadow a live row; the x0 row never does
        assert traj.terminated_early is None
        assert ENSEMBLE_SIZE not in {row for row, _, _ in run.guards}
        assert traj.states.tobytes() == run.record[:, -1].tobytes()

    @pytest.mark.parametrize("n", [3, 6, 10])
    def test_step_is_the_first_lockstep_step(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            sys = stable_lv_image(rng, n)
            X0 = np.exp(rng.uniform(np.log(0.5), np.log(2.0), size=(5, n)))
            run = _lockstep(sys, X0, 1, record=range(1, 2))
            for x0, x1 in zip(X0, run.record[0]):
                assert step(sys, x0).tobytes() == x1.tobytes()

    @pytest.mark.parametrize("coretype", ["Haswell", "Zen"])
    def test_rows_are_their_lone_runs_under_other_blas_kernels(
            self, tmp_path, coretype):
        """A child interpreter under ``OPENBLAS_CORETYPE``: on an n = 10
        stable LV image, ``advance`` of 51 rows is ``step`` of each row,
        and each row of a 51-row lockstep record at step 200 is that row's
        lone run, bit for bit.  These kernels round the last row of an odd
        batch, and a lone row, otherwise than a pair.  The variable acts
        only on an OpenBLAS built with ``DYNAMIC_ARCH``, as numpy's wheels
        are; under any other BLAS the child checks the default kernel."""
        system, X0 = wide_case("stable-lv-image-n10", ENSEMBLE_SIZE + 1)
        case = tmp_path / "case.npz"
        np.savez(case, A=system.A, B=system.B, lam=system.lam, X0=X0)
        src, path = (str(Path(qpd.dynamics.__file__).resolve().parents[1]),
                     os.environ.get("PYTHONPATH"))
        env = dict(os.environ, OPENBLAS_CORETYPE=coretype,
                   PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src)
        done = subprocess.run([executable, "-c", LONE_RUNS, str(case)],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        # the rows whose step, and whose 200-step run, differ alone
        assert done.stdout.split() == ["[]", "[]"]


class TestConjugacyDeviation:
    def test_identity_transformation_is_exact(self):
        sys = load_fixture("example1_lv")
        assert conjugacy_deviation(sys, QMTMatrix.identity(2),
                                   [1.0, 1.0], 50) == 0.0

    def test_example1_qp_vs_canonical_lv(self):
        sys = load_fixture("example1_qp_rho05")
        _, qmt = canonical_lv(sys)
        # orbit of the QP system vs the mapped orbit of its LV form
        deviation = conjugacy_deviation(sys, qmt, [1.0, 1.0], 100)
        assert deviation <= 1e-5

    def test_guard_termination_propagates(self):
        sys = QPSystem([[0.0, 1.0], [1.0, 0.0]], np.eye(2), [1.0, 1.0])
        with pytest.raises(GuardTermination):
            conjugacy_deviation(sys, QMTMatrix.identity(2), [2.0, 2.0], 1000)


def reference_one_step_defect(sys, qmt, x0, steps):
    """One trial state by state: the transformed system steps the mapped
    state of each recorded x_t alone, and its image is mapped back."""
    direct = simulate(sys, x0, steps)
    assert direct.terminated_early is None
    image = apply_qmt(sys, qmt)
    G = np.array([step(image, map_state(qmt.inverse(), x))
                  for x in direct.states[:-1]])
    gap = ((as_batch(np.log(G)) @ qmt.C.T)[:len(G)]
           - np.log(direct.states[1:]))
    return float(np.max(np.abs(np.expm1(gap))))


def per_trial_check(sys, qmt, x0, steps):
    """One trial's one-step check over all steps + 1 states of its direct
    orbit, with a map_states and an advance call of its own: its defect
    and the message of its first guard, or None."""
    X = simulate(sys, x0, steps).states
    assert len(X) == steps + 1
    Y, mapped = map_states(qmt.C_inv, X)
    with np.errstate(divide="ignore"):
        images, _, stepped = advance(apply_qmt(sys, qmt), Y[:-1])
    codes = np.empty(2 * len(Y) - 1, dtype=int)
    codes[0::2], codes[1::2] = mapped, stepped
    if codes.any():
        k = int(np.flatnonzero(codes)[0])
        t, reason = k // 2, GUARD_REASONS[codes[k]]
        if k % 2:
            return np.nan, f"conjugate state {t}: step hit the {reason} guard"
        where = "conjugate initial state" if t == 0 else f"conjugate state {t}"
        return np.nan, f"{where}: state mapping hit the {reason} guard"
    gap = ((as_batch(np.log(images)) @ qmt.C.T)[:len(images)]
           - np.log(X[1:]))
    with np.errstate(over="ignore"):
        return float(np.max(np.abs(np.expm1(gap)))), None


def assert_per_trial_checks(result, sys, qmts, X0, steps):
    """That a ``conjugacy_deviations`` result holds, to the bit, the
    deviations and guards of ``per_trial_check``."""
    deviations, _, guards = result
    expected = [per_trial_check(sys, qmt, x0, steps)
                for qmt, x0 in zip(qmts, X0)]
    np.testing.assert_array_equal(deviations, [d for d, _ in expected])
    assert guards == {t: message for t, (_, message) in enumerate(expected)
                      if message is not None}


def stable_lv_image(rng, n):
    """QP image of an LV map whose interior fixed point x* is stable:
    with A_lv = -(I/2 + off) / x*, the linearisation I + diag(x*) A_lv
    = I/2 - off has spectral radius at most 0.5 + 0.02 (n - 1)."""
    x_star = np.exp(rng.uniform(np.log(0.5), np.log(2.0), size=n))
    off = rng.uniform(0.0, 0.02, size=(n, n))
    np.fill_diagonal(off, 0.0)
    A_lv = -(0.5 * np.eye(n) + off) / x_star[:, None]
    B = random_exponent_matrix(rng, n)
    return QPSystem(np.linalg.solve(B, A_lv), B,
                    np.linalg.solve(B, -A_lv @ x_star))


def conjugacy_trials(rng, n, trials):
    qmts = [random_qmt(rng, n) for _ in range(trials)]
    X0 = np.exp(rng.uniform(np.log(0.5), np.log(2.0), size=(trials, n)))
    return qmts, X0


@pytest.fixture
def block_runs(monkeypatch):
    """The (rows, components) of each ``MapStep`` run that
    conjugacy_deviations makes."""
    runs = []

    def spy(system, rows, steps, *args):
        runs.append(rows.shape)
        return MapStep(system, rows, steps, *args)

    monkeypatch.setattr(qpd.dynamics, "MapStep", spy)
    return runs


@pytest.fixture
def conjugacy_kernels(monkeypatch):
    """The ``MapStep`` runs that conjugacy_deviations makes."""
    kernels = []

    def spy(*args):
        kernels.append(MapStep(*args))
        return kernels[-1]

    monkeypatch.setattr(qpd.dynamics, "MapStep", spy)
    return kernels


class TestConjugacyDeviations:
    @pytest.mark.parametrize("steps", [1, 2, 100])
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_single_trial_matches_per_state_oracle(self, name, steps):
        sys = load_fixture(name)
        rng = np.random.default_rng(11)
        for qmt, x0 in zip(*conjugacy_trials(rng, 2, 5)):
            assert (conjugacy_deviation(sys, qmt, x0, steps)
                    == reference_one_step_defect(sys, qmt, x0, steps))

    @pytest.mark.parametrize("i", [0, 3, 6])
    @pytest.mark.parametrize("row", [[1.0, np.nan], [1.0, 0.0], [1.0],
                                     [[1.0, 1.0]]],
                             ids=["nan", "zero", "length", "matrix"])
    def test_bad_initial_state_raises_as_the_state_alone(self, row, i):
        sys = load_fixture("example1_lv")
        qmts, X0 = conjugacy_trials(np.random.default_rng(2), 2, 7)
        X0 = list(X0)
        X0[i] = row
        with pytest.raises(Exception) as own:
            as_state(row, 2)
        with pytest.raises(type(own.value)) as batch:
            conjugacy_deviations(sys, qmts, X0, 5)
        assert str(batch.value) == str(own.value)

    @pytest.mark.parametrize("system", [
        *FIXTURE_NAMES, *(f"stable-lv-image-n6-{seed}" for seed in range(4))])
    def test_defect_stays_at_rounding_at_long_horizon(self, system):
        # example3's chaotic orbit amplifies rounding along the orbit, but
        # a one-step defect does not grow with the horizon
        if system.startswith("stable-lv-image-n6"):
            rng = np.random.default_rng(int(system.rsplit("-", 1)[1]))
            sys = stable_lv_image(rng, 6)
        else:
            rng, sys = np.random.default_rng(1), load_fixture(system)
        qmts, X0 = conjugacy_trials(rng, sys.n, 20)
        deviations, _, guards = conjugacy_deviations(sys, qmts, X0, 500)
        assert guards == {}
        assert deviations.max() <= 1e-13

    @pytest.mark.parametrize("system, trials, doubles, size", [
        ("example1_lv", 20, None, BLOCK_STEPS),
        ("stable-lv-image-n6", 45, None, BLOCK_STEPS),
        # one double short of 4 steps of 3 m n doubles: 3-step blocks
        ("example1_lv", 20, 4 * 3 * 20 * 2 - 1, 3),
    ], ids=["example1_lv-20", "stable-lv-image-n6-45",
            "example1_lv-20-storage-capped"])
    def test_blocks_match_single_trials(self, monkeypatch, block_runs,
                                        system, trials, doubles, size):
        rng = np.random.default_rng(5)
        sys = (stable_lv_image(rng, 6) if system == "stable-lv-image-n6"
               else load_fixture(system))
        qmts, X0 = conjugacy_trials(rng, sys.n, trials)
        # identity trials deviate by exactly 0 and pin the trial order
        qmts[::3] = [QMTMatrix.identity(sys.n)] * len(qmts[::3])
        if doubles is not None:
            monkeypatch.setattr(qpd.systems, "BLOCK_DOUBLES", doubles)
        blocked, _, guards = conjugacy_deviations(sys, qmts, X0, 200)
        assert guards == {}
        # one run of the direct orbits as rows of the system
        assert block_runs == [(trials, sys.n)]
        assert MapStep(sys, X0, 200).size == size
        monkeypatch.undo()
        single = [conjugacy_deviation(sys, qmt, x0, 200)
                  for qmt, x0 in zip(qmts, X0)]
        # each orbit of a block is its trial's own, to the bit
        np.testing.assert_array_equal(blocked, single)
        assert max(single) <= 1e-13
        assert (blocked == 0.0).tolist() == [t % 3 == 0 for t in range(trials)]

    def test_guard_stops_only_its_trial(self, monkeypatch, block_runs):
        # x_1 gains e^40 a step: from x_1 = 1 the image overflows out of
        # step 17, from x_1 = e^-600 not before step 32
        sys = QPSystem(np.zeros((2, 2)), np.eye(2), [40.0, -1.0])
        X0 = np.full((130, 2), [np.exp(-600.0), 1.0])
        X0[[3, 129]] = 1.0
        qmt = QMTMatrix.from_matrix(np.diag([1.0, 2.0]))
        # one run in blocks of 8 steps of 3 m n = 780 doubles
        monkeypatch.setattr(qpd.systems, "BLOCK_DOUBLES", 8 * 780)
        deviations, _, guards = conjugacy_deviations(sys, [qmt] * 130, X0, 20)
        reason = "direct orbit: step 17 hit the overflow guard"
        assert guards == {3: reason, 129: reason}
        assert block_runs == [(130, 2)]
        assert np.isnan(deviations[[3, 129]]).all()
        monkeypatch.undo()
        for t in [*range(64), 128]:
            if t != 3:
                assert deviations[t] == reference_one_step_defect(
                    sys, qmt, X0[t], 20)
        assert (deviations[64:128] <= 1e-13).all()

    def test_one_trial_block_runs_once(self, block_runs):
        sys = QPSystem(np.zeros((2, 2)), np.eye(2), [40.0, -1.0])
        deviations, _, guards = conjugacy_deviations(
            sys, [QMTMatrix.identity(2)], [[1.0, 1.0]], 20)
        assert block_runs == [(1, 2)]
        assert guards == {0: "direct orbit: step 17 hit the overflow guard"}
        assert np.isnan(deviations).all()

    def test_conjugate_step_guard_names_its_trial(self, block_runs):
        # x_2 gains e^8 a step, so the image under C = diag(1, 0.01),
        # log y = C^-1 log x, gains e^800: the step of y_0 overflows
        sys = QPSystem(np.zeros((2, 2)), np.eye(2), [0.1, 8.0])
        qmts = [QMTMatrix.identity(2),
                QMTMatrix.from_matrix(np.diag([1.0, 0.01])),
                QMTMatrix.identity(2)]
        deviations, _, guards = conjugacy_deviations(
            sys, qmts, [[1.0, 1.0]] * 3, 20)
        assert guards == {1: "conjugate state 0: step hit the overflow guard"}
        # the direct orbits are one run, and no conjugate orbit runs
        assert block_runs == [(3, 2)]
        assert deviations[0] == 0.0 and deviations[2] == 0.0
        assert np.isnan(deviations[1])
        with pytest.raises(GuardTermination, match="conjugate state 0: step"):
            conjugacy_deviation(sys, qmts[1], [1.0, 1.0], 20)

    def test_guarded_later_conjugate_state_names_its_step(self):
        # log x_2 gains 1.01 a step and log y_2 = 7.07 log x_2: y_99 maps
        # to log 699.9, whose image e^707 is finite, but y_100 exceeds
        # the mapping's exponent limit
        sys = QPSystem(np.zeros((2, 2)), np.eye(2), [0.1, 1.01])
        qmt = QMTMatrix.from_matrix(np.diag([1.0, 1.0 / 7.0]))
        deviations, _, guards = conjugacy_deviations(
            sys, [qmt, QMTMatrix.identity(2)], [[1.0, 1.0]] * 2, 120)
        assert guards == {0: "conjugate state 100: state mapping hit the "
                             "overflow guard"}
        assert np.isnan(deviations[0]) and deviations[1] == 0.0
        assert conjugacy_deviation(sys, qmt, [1.0, 1.0], 99) <= 1e-13

    def test_guarded_conjugate_initial_state_is_its_trials_guard(self):
        # C^-1 = diag(1, 1000) maps x0 = (1, e) to log y = (0, 1000)
        sys = load_fixture("example1_lv")
        qmts = [QMTMatrix.identity(2),
                QMTMatrix.from_matrix(np.diag([1.0, 1e-3])),
                QMTMatrix.identity(2)]
        X0 = [[1.0, 1.0], [1.0, np.e], [1.0, 1.0]]
        deviations, _, guards = conjugacy_deviations(sys, qmts, X0, 20)
        assert guards == {1: "conjugate initial state: state mapping hit "
                             "the overflow guard"}
        assert deviations[0] == 0.0 and deviations[2] == 0.0
        assert np.isnan(deviations[1])
        with pytest.raises(GuardTermination,
                           match="conjugate initial state.*overflow guard"):
            conjugacy_deviation(sys, qmts[1], X0[1], 20)

    def test_drift_is_each_images_invariant_gap(self):
        sys = load_fixture("example1_qp_rho05")
        qmts, X0 = conjugacy_trials(np.random.default_rng(2), 2, 5)
        _, drifts, guards = conjugacy_deviations(sys, qmts, X0, 20)
        assert guards == {}
        base = class_invariants(sys)
        for qmt, drift in zip(qmts, drifts):
            other = class_invariants(apply_qmt(sys, qmt))
            assert drift == max(
                np.max(np.abs(other.interaction - base.interaction)),
                np.max(np.abs(other.growth - base.growth)))
        assert drifts.max() <= 1e-13

    def test_guarded_trial_keeps_its_drift(self):
        # B' lam' = C C^-1 (40, -1) is exact for C = diag(1, 2)
        sys = QPSystem(np.zeros((2, 2)), np.eye(2), [40.0, -1.0])
        qmt = QMTMatrix.from_matrix(np.diag([1.0, 2.0]))
        deviations, drifts, guards = conjugacy_deviations(
            sys, [qmt], [[1.0, 1.0]], 20)
        assert guards == {0: "direct orbit: step 17 hit the overflow guard"}
        assert np.isnan(deviations).all()
        assert drifts.tolist() == [0.0]

    def test_stops_once_the_run_replays(self, monkeypatch,
                                        conjugacy_kernels):
        # this run's rows settle into float cycles of periods 1, 2, 4, 8
        # and 19, whose lcm 152 exceeds BLOCK_STEPS: the batch never
        # repeats within a block, but each row does, so the kernel
        # replays the assembled cycle after two blocks, and the check
        # stops there
        sys = load_system(DATA / "stable_lv_image_n6.json")
        qmts, X0 = conjugacy_trials(np.random.default_rng(0), 6, 20)
        # C^-1 scales log x_6 by 1e4: trial 7's x_0 maps past the guard
        qmts[7] = QMTMatrix.from_matrix(np.diag([1.0] * 5 + [1e-4]))
        rows, step = [], qpd.dynamics.advance

        def advance_spy(images, Y):
            rows.append(np.shape(Y))
            return step(images, Y)

        monkeypatch.setattr(qpd.dynamics, "advance", advance_spy)
        result = conjugacy_deviations(sys, qmts, X0, 500)
        monkeypatch.undo()
        (kernel,) = conjugacy_kernels
        assert kernel.replay is not None
        assert kernel.stepped <= 2 * BLOCK_STEPS
        # one stacked step of the 20 trials a block, over the pairs of
        # the blocks it stepped and of no replayed block
        assert {(k, n) for k, _, n in rows} == {(20, 6)}
        assert sum(m for _, m, _ in rows) == kernel.stepped < 500
        assert_per_trial_checks(result, sys, qmts, X0, 500)
        assert result[2] == {7: "conjugate initial state: state mapping "
                                "hit the overflow guard"}

    def test_trials_are_one_run_however_many(self, conjugacy_kernels):
        # 300 trials are one run of 300 rows, which settle into their
        # float cycles and replay after two blocks, as 20 of them do
        sys = load_system(DATA / "stable_lv_image_n6.json")
        qmts, X0 = conjugacy_trials(np.random.default_rng(0), 6, 300)
        result = conjugacy_deviations(sys, qmts, X0, 500)
        (kernel,) = conjugacy_kernels
        assert kernel.S.shape[1:] == (300, 6)
        assert kernel.replay is not None
        assert kernel.stepped <= 2 * BLOCK_STEPS
        assert_per_trial_checks(result, sys, qmts, X0, 500)

    def test_a_cycle_over_the_storage_cap_replays_the_steps_left(
            self, monkeypatch, conjugacy_kernels):
        # the batch cycle of these 20 rows, 152 steps, stores 152 * 20 * 6
        # doubles: a cap one double short of it keeps the run stepping,
        # in blocks of 50 steps, until the steps it has left fit
        sys = load_system(DATA / "stable_lv_image_n6.json")
        qmts, X0 = conjugacy_trials(np.random.default_rng(0), 6, 20)
        monkeypatch.setattr(qpd.systems, "BLOCK_DOUBLES", 152 * 20 * 6 - 1)
        result = conjugacy_deviations(sys, qmts, X0, 500)
        monkeypatch.undo()
        (kernel,) = conjugacy_kernels
        assert kernel.replay is not None
        assert 500 - 152 < kernel.stepped < 500
        assert_per_trial_checks(result, sys, qmts, X0, 500)

    @pytest.mark.parametrize("system, doubles", [
        # 6 trials of 3 m n = 36 doubles a step: blocks of 64 steps, then
        # the last 56 of 120
        ("monotone", 2990),
        # 8 trials of 144 doubles a step: blocks of 28 steps
        ("stable-lv-image-n6", 4095),
        # blocks of 64 steps, 142 would fit
        ("stable-lv-image-n6", 20474),
    ])
    def test_stacks_stay_within_the_storage_cap(self, monkeypatch, system,
                                                doubles):
        if system == "monotone":
            # log x_2 gains 1.01 a step; under diag(1, 1/7) state 100
            # maps past the guard
            sys, steps = QPSystem(np.zeros((2, 2)), np.eye(2),
                                  [0.1, 1.01]), 120
            qmts, X0 = conjugacy_trials(np.random.default_rng(3), 2, 6)
            qmts[2] = QMTMatrix.from_matrix(np.diag([1.0, 1.0 / 7.0]))
            X0[2] = 1.0
        else:
            sys, steps = load_system(DATA / "stable_lv_image_n6.json"), 500
            qmts, X0 = conjugacy_trials(np.random.default_rng(0), 6, 8)
        states, check = [], qpd.dynamics._one_step_defects

        def spy(images, C_inv, C_T, X):
            states.append(X.shape[0] * X.shape[1])
            return check(images, C_inv, C_T, X)

        monkeypatch.setattr(qpd.systems, "BLOCK_DOUBLES", doubles)
        monkeypatch.setattr(qpd.dynamics, "_one_step_defects", spy)
        result = conjugacy_deviations(sys, qmts, X0, steps)
        size = MapStep(sys, X0, steps).size
        monkeypatch.undo()
        # a check holds each trial's states of one block and its start
        assert len(states) > 1
        assert max(states) <= (size + 1) * len(X0)
        assert_per_trial_checks(result, sys, qmts, X0, steps)
        if system == "monotone":
            assert result[2][2] == ("conjugate state 100: state mapping hit "
                                    "the overflow guard")

    def test_a_horizon_beyond_any_record_checks_the_same_pairs(self):
        # the direct run replays from step 128, and nothing is recorded,
        # so 10**14 steps check the pairs that 5000 steps check
        sys = load_system(DATA / "stable_lv_image_n6.json")
        qmts, X0 = conjugacy_trials(np.random.default_rng(0), 6, 20)
        deviations, drifts, guards = conjugacy_deviations(sys, qmts, X0,
                                                          10**14)
        expected = conjugacy_deviations(sys, qmts, X0, 5000)
        np.testing.assert_array_equal(deviations, expected[0])
        np.testing.assert_array_equal(drifts, expected[1])
        assert guards == expected[2] == {}
        assert deviations.max() <= 1e-13

    def test_trial_counts_must_agree(self):
        sys = load_fixture("example1_lv")
        with pytest.raises(InvalidArgument):
            conjugacy_deviations(sys, [QMTMatrix.identity(2)] * 2,
                                 [[1.0, 1.0]], 10)

    @pytest.mark.parametrize("steps", [-1, 0])
    def test_steps_below_one_are_refused(self, steps):
        sys = load_fixture("example1_lv")
        with pytest.raises(InvalidArgument, match="steps must be at least 1"):
            conjugacy_deviations(sys, [QMTMatrix.identity(2)],
                                 [[1.0, 1.0]], steps)
