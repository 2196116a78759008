import numpy as np
import pytest

import qpd.dynamics
from conftest import (
    ATTRACTIVE_FIXTURES,
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
    conjugacy_deviation,
    empirical_attractivity,
    empirical_permanence,
    largest_lyapunov,
    lv_interior_fixed_point,
    map_state,
    qp_fixed_point,
    qp_jacobian,
    simulate,
    step,
    write_trajectory_csv,
)
from qpd.dynamics import (
    ATTRACTIVITY_HORIZON,
    CONJUGACY_BLOCK_DIM,
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
from qpd.systems import GUARD_REASONS, advance
from qpd.errors import (
    GuardTermination,
    InvalidArgument,
    OverflowGuard,
    SingularSystem,
)

FIXED_POINT_LV1 = np.array([1.0 / 3.0, 1.0 / 3.0])


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

    def test_nonpositive_solution_returns_none(self):
        lv = LVSystem(-np.eye(2), [-1.0, 1.0])
        assert lv_interior_fixed_point(lv) is None

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

    def test_ensemble_guards_match_single_orbits(self):
        sys, X0 = self.SYS, self.X0
        guards = _lockstep(sys, X0, 200).guards
        assert {reason for _, _, reason in guards} == {"overflow", "underflow"}
        assert len(guards) < len(X0)
        by_orbit = {i: (t, reason) for i, t, reason in guards}
        for i, x0 in enumerate(X0):
            assert simulate(sys, x0, 200).terminated_early == by_orbit.get(i)


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
        alone = _lockstep(sys, X0[:1], 300, snapshot=300,
                          tangents=(100, V[:1]))
        batched = _lockstep(sys, X0, 300, snapshot=300, tangents=(100, V))
        assert np.array_equal(alone.snapshot[0], batched.snapshot[0])
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


def reference_conjugacy_deviation(sys, qmt, x0, steps):
    """One trial as two serial orbits, mapped back in log coordinates."""
    direct = simulate(sys, x0, steps)
    conjugate = simulate(apply_qmt(sys, qmt),
                         map_state(qmt.inverse(), direct.states[0]), steps)
    assert direct.terminated_early is None is conjugate.terminated_early
    gap = np.log(conjugate.states) @ qmt.C.T - np.log(direct.states)
    return float(np.max(np.abs(np.expm1(gap))))


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
    """The trial count of each block that conjugacy_deviations runs."""
    runs = []
    block_deviations = qpd.dynamics._block_deviations

    def spy(sys, qmts, X0, steps):
        runs.append(len(qmts))
        return block_deviations(sys, qmts, X0, steps)

    monkeypatch.setattr(qpd.dynamics, "_block_deviations", spy)
    return runs


class TestConjugacyDeviations:
    @pytest.mark.parametrize("name", [
        "example1_lv", "example1_qp_rho05", "example2_predator_prey",
        "example3_qp_rho32"])
    def test_single_trial_matches_serial_reference(self, name):
        sys = load_fixture(name)
        rng = np.random.default_rng(11)
        for qmt, x0 in zip(*conjugacy_trials(rng, 2, 5)):
            assert (conjugacy_deviation(sys, qmt, x0, 100)
                    == reference_conjugacy_deviation(sys, qmt, x0, 100))

    @pytest.mark.parametrize("system, trials, doubles, blocks", [
        ("example1_lv", 20, None, 1),
        ("stable-lv-image-n6", 45, None, 3),  # 21 + 21 + 3 trials
        # 2 (200 + 1) 2 = 804 doubles a trial: 3 trials a block
        ("example1_lv", 20, 3 * 804 + 803, 7),
    ], ids=["example1_lv-20", "stable-lv-image-n6-45",
            "example1_lv-20-storage-capped"])
    def test_blocks_match_single_trials(self, monkeypatch, system, trials,
                                        doubles, blocks):
        rng = np.random.default_rng(5)
        sys = (stable_lv_image(rng, 6) if system == "stable-lv-image-n6"
               else load_fixture(system))
        qmts, X0 = conjugacy_trials(rng, sys.n, trials)
        # identity trials deviate by exactly 0 and pin the trial order
        qmts[::3] = [QMTMatrix.identity(sys.n)] * len(qmts[::3])
        dims = []

        def spy(block, x0, steps):
            dims.append(block.n)
            return simulate(block, x0, steps)

        monkeypatch.setattr(qpd.dynamics, "simulate", spy)
        if doubles is not None:
            monkeypatch.setattr(qpd.dynamics, "CONJUGACY_BLOCK_DOUBLES",
                                doubles)
        blocked, guards = conjugacy_deviations(sys, qmts, X0, 200)
        assert guards == {}
        assert len(dims) == 2 * blocks
        assert max(dims) <= CONJUGACY_BLOCK_DIM
        monkeypatch.undo()
        single = [conjugacy_deviation(sys, qmt, x0, 200)
                  for qmt, x0 in zip(qmts, X0)]
        assert blocked.shape == (trials,)
        np.testing.assert_allclose(blocked, single, rtol=0.0, atol=1e-14)
        assert max(single) <= 1e-12
        assert (blocked == 0.0).tolist() == [t % 3 == 0 for t in range(trials)]

    def test_guard_stops_only_its_block(self, block_runs):
        # x_1 gains e^40 a step: from x_1 = 1 the image overflows out of
        # step 17, from x_1 = e^-600 not before step 32
        sys = QPSystem(np.zeros((2, 2)), np.eye(2), [40.0, -1.0])
        X0 = np.full((130, 2), [np.exp(-600.0), 1.0])
        X0[[3, 129]] = 1.0
        qmt = QMTMatrix.from_matrix(np.diag([1.0, 2.0]))
        deviations, guards = conjugacy_deviations(sys, [qmt] * 130, X0, 20)
        reason = "direct orbit terminated early: (17, 'overflow')"
        assert guards == {3: reason, 129: reason}
        # blocks 0-63 and 128-129 stop and rerun one trial at a time
        assert block_runs == [64] + [1] * 64 + [64, 2, 1, 1]
        assert np.isnan(deviations[[3, 129]]).all()
        for t in [*range(64), 128]:
            if t != 3:
                assert deviations[t] == reference_conjugacy_deviation(
                    sys, qmt, X0[t], 20)
        assert (deviations[64:128] <= 1e-12).all()

    def test_one_trial_block_runs_once(self, block_runs):
        sys = QPSystem(np.zeros((2, 2)), np.eye(2), [40.0, -1.0])
        deviations, guards = conjugacy_deviations(
            sys, [QMTMatrix.identity(2)], [[1.0, 1.0]], 20)
        assert block_runs == [1]
        assert guards == {0: "direct orbit terminated early: (17, 'overflow')"}
        assert np.isnan(deviations).all()

    def test_conjugate_orbit_guard_names_its_trial(self):
        # x_2 gains e^8 a step, so the image under C = diag(1, 0.01),
        # log y = C^-1 log x, gains e^800 and overflows out of step 0
        sys = QPSystem(np.zeros((2, 2)), np.eye(2), [0.1, 8.0])
        qmts = [QMTMatrix.identity(2),
                QMTMatrix.from_matrix(np.diag([1.0, 0.01])),
                QMTMatrix.identity(2)]
        deviations, guards = conjugacy_deviations(
            sys, qmts, [[1.0, 1.0]] * 3, 20)
        assert guards == {
            1: "conjugate orbit terminated early: (0, 'overflow')"}
        assert deviations[0] == 0.0 and deviations[2] == 0.0
        assert np.isnan(deviations[1])
        with pytest.raises(GuardTermination, match="conjugate orbit"):
            conjugacy_deviation(sys, qmts[1], [1.0, 1.0], 20)

    def test_trial_counts_must_agree(self):
        sys = load_fixture("example1_lv")
        with pytest.raises(InvalidArgument):
            conjugacy_deviations(sys, [QMTMatrix.identity(2)] * 2,
                                 [[1.0, 1.0]], 10)

    def test_negative_steps_are_refused(self):
        sys = load_fixture("example1_lv")
        with pytest.raises(InvalidArgument, match="steps"):
            conjugacy_deviations(sys, [QMTMatrix.identity(2)],
                                 [[1.0, 1.0]], -1)
