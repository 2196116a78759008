import warnings

import numpy as np
import pytest

from conftest import behind, hilbert, load_fixture, random_contracting_system, random_qmt, random_system
from qpd import (
    QMTMatrix,
    QPSystem,
    apply_qmt,
    canonical_lv,
    class_invariants,
    conjugacy_deviation,
    is_lotka_volterra,
    map_state,
)
from qpd.errors import (DimensionMismatch, NonFinite, OverflowGuard, SingularB,
                        SingularMatrix)
from qpd.systems import GUARD_OK, GUARD_REASONS, advance
from qpd.transform import (INVERSE_RESIDUAL_LIMIT, SINGULARITY_RTOL,
                           apply_qmts, invertibility, map_states)


class TestQMTMatrix:
    def test_inverse_residual(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            qmt = random_qmt(rng, 3)
            assert np.max(np.abs(qmt.C @ qmt.C_inv - np.eye(3))) <= 1e-9

    def test_rejects_singular(self):
        with pytest.raises(SingularMatrix):
            QMTMatrix.from_matrix([[1.0, 2.0], [2.0, 4.0]])

    def test_rejects_rectangular(self):
        with pytest.raises(DimensionMismatch):
            QMTMatrix.from_matrix(np.ones((2, 3)))


class TestApplyQmt:
    def test_identity_leaves_system_unchanged(self):
        sys = load_fixture("example1_qp_rho05")
        out = apply_qmt(sys, QMTMatrix.identity(2))
        assert np.allclose(out.A, sys.A, atol=1e-15)
        assert np.allclose(out.B, sys.B, atol=1e-15)
        assert np.allclose(out.lam, sys.lam, atol=1e-15)

    def test_example1_reduction_to_lv(self):
        sys = load_fixture("example1_qp_rho05")
        qmt = QMTMatrix.from_matrix(np.linalg.inv(sys.B))
        out = apply_qmt(sys, qmt)
        assert np.allclose(out.A, [[-1.0, -0.5], [-0.5, -1.0]], atol=1e-12)
        assert np.allclose(out.B, np.eye(2), atol=1e-12)
        assert np.allclose(out.lam, [0.5, 0.5], atol=1e-12)

    def test_invariants_preserved_against_direct_product_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            sys = random_system(rng, n)
            qmt = random_qmt(rng, n)
            out = apply_qmt(sys, qmt)
            # oracle: recompute the products directly from the new matrices
            assert np.max(np.abs(out.B @ out.A - sys.B @ sys.A)) <= 1e-9
            assert np.max(np.abs(out.B @ out.lam - sys.B @ sys.lam)) <= 1e-9

    def test_dimension_mismatch(self):
        sys = load_fixture("example1_lv")
        with pytest.raises(DimensionMismatch):
            apply_qmt(sys, QMTMatrix.identity(3))

    def test_no_transformations_give_an_empty_stack(self):
        A, B, lam = apply_qmts(load_fixture("example3_qp_rho32"), [])
        assert (A.shape, B.shape, lam.shape) == ((0, 2, 2), (0, 2, 2), (0, 2))

    # A' = C^-1 A, B' = B C and lam' = C^-1 lam of C = scale I
    @pytest.mark.parametrize("A, B, lam, scale, label", [
        (1e300 * np.eye(2), np.eye(2), [1.0, 1.0], 1e-10, "A"),
        (np.eye(2), 1e300 * np.eye(2), [1.0, 1.0], 1e10, "B"),
        (np.eye(2), np.eye(2), [1.0, 1e300], 1e-10, "lam"),
    ], ids=["A", "B", "lam"])
    def test_overflowing_image_names_its_matrix(self, A, B, lam, scale,
                                                label):
        qmt = QMTMatrix.from_matrix(scale * np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite, match=f"^transformed {label} "
                                                "contains NaN or infinite"):
                apply_qmt(QPSystem(A, B, lam), qmt)

    def test_group_law(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 4))
            sys = random_system(rng, n)
            q1 = random_qmt(rng, n)
            q2 = random_qmt(rng, n)
            twice = apply_qmt(apply_qmt(sys, q1), q2)
            once = apply_qmt(sys, QMTMatrix.from_matrix(q1.C @ q2.C))
            assert np.max(np.abs(twice.A - once.A)) <= 1e-9
            assert np.max(np.abs(twice.B - once.B)) <= 1e-9
            assert np.max(np.abs(twice.lam - once.lam)) <= 1e-9

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 4))
            sys = random_system(rng, n)
            qmt = random_qmt(rng, n)
            back = apply_qmt(apply_qmt(sys, qmt), qmt.inverse())
            assert np.max(np.abs(back.A - sys.A)) <= 1e-9
            assert np.max(np.abs(back.B - sys.B)) <= 1e-9
            assert np.max(np.abs(back.lam - sys.lam)) <= 1e-9


class TestClassInvariants:
    def test_lv_invariants_are_its_matrices(self):
        sys = load_fixture("example1_lv")
        inv = class_invariants(sys)
        assert np.array_equal(inv.interaction, sys.A)
        assert np.array_equal(inv.growth, sys.lam)

    def test_example1_qp_invariants(self):
        inv = class_invariants(load_fixture("example1_qp_rho05"))
        assert np.allclose(inv.interaction, [[-1.0, -0.5], [-0.5, -1.0]],
                           atol=1e-12)
        assert np.allclose(inv.growth, [0.5, 0.5], atol=1e-12)

    def test_example2_invariants_match_parameter_formulas(self):
        r1, r2, mu1, mu2 = 0.5, 0.3, 0.5, 1.5
        inv = class_invariants(load_fixture("example2_predator_prey"))
        assert np.allclose(inv.interaction,
                           [[-r1, -r1 * mu1], [r2 * mu2, -r2]], atol=1e-12)
        assert np.allclose(inv.growth, [r1, -r2], atol=1e-12)


class TestCanonicalLV:
    def test_lv_is_its_own_canonical_form(self):
        sys = load_fixture("example1_lv")
        lv, qmt = canonical_lv(sys)
        assert np.allclose(lv.A, sys.A, atol=1e-12)
        assert np.allclose(lv.lam, sys.lam, atol=1e-12)
        assert np.allclose(qmt.C, np.eye(2), atol=1e-12)

    def test_example1_qp_reduces_to_lv2(self):
        lv, qmt = canonical_lv(load_fixture("example1_qp_rho10"))
        assert np.allclose(lv.A, [[-1.0, -0.5], [-0.5, -1.0]], atol=1e-12)
        assert np.allclose(lv.lam, [1.0, 1.0], atol=1e-12)
        back = apply_qmt(load_fixture("example1_qp_rho10"), qmt)
        assert is_lotka_volterra(back, tol=1e-10)

    def test_singular_exponent_matrix(self):
        sys = QPSystem([[-1.0, 0.0], [0.0, -1.0]],
                       [[1.0, 2.0], [2.0, 4.0]], [0.5, 0.5])
        with pytest.raises(SingularB, match="rcond"):
            canonical_lv(sys)


class TestScaleFreeSingularity:
    def test_small_multiple_of_identity_is_invertible(self):
        # |det| = 1e-12 once fell below the determinant floor
        lv, qmt = canonical_lv(behind(1e-3 * np.eye(4)))
        assert np.allclose(qmt.C, 1e3 * np.eye(4))

    def test_ill_conditioned_diagonal_is_singular(self):
        # det = 1 passed the determinant floor at condition number 1e12
        with pytest.raises(SingularB, match="rcond = 1.000e-12"):
            canonical_lv(behind(np.diag([1e6, 1e-6])))

    def test_decision_does_not_depend_on_scale(self):
        for scale in (1.0, 100.0):
            canonical_lv(behind(scale * hilbert(5)))

    def test_inverse_residual_is_a_post_condition(self):
        # rcond ~ 2e-9 passes, but the computed inverse misses I by > 1e-9
        with pytest.raises(SingularB, match="inverse residual"):
            canonical_lv(behind(1e4 * hilbert(7)))


class TestInvertibilityWitness:
    def test_zero_matrix_has_zero_rcond_and_no_inverse(self):
        inv, witness = invertibility(np.zeros((3, 3)))
        assert inv is None
        assert witness == {"rcond": 0.0, "tolerance": SINGULARITY_RTOL}

    @pytest.mark.parametrize("entry", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_matrix_is_singular_before_lapack(self, entry):
        # an SVD of a NaN matrix does not converge and raised LinAlgError
        M = [[entry, 0.0], [0.0, 1.0]]
        inv, witness = invertibility(M)
        assert inv is None
        assert witness == {"rcond": 0.0, "tolerance": SINGULARITY_RTOL}
        with pytest.raises(SingularMatrix, match="rcond = 0.000e"):
            QMTMatrix.from_matrix(M)

    def test_invertible_witness_carries_the_residual(self):
        inv, witness = invertibility([[2.0, 1.0], [1.0, 2.0]])
        assert set(witness) == {"rcond", "tolerance", "inverse_residual"}
        assert witness["rcond"] == pytest.approx(1.0 / 3.0)
        assert witness["inverse_residual"] <= INVERSE_RESIDUAL_LIMIT
        assert np.array_equal(inv, np.linalg.solve([[2.0, 1.0], [1.0, 2.0]],
                                                   np.eye(2)))


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


class TestStackedInvertibility:
    """A (k, n, n) stack decides each slice as that matrix alone, to the
    bit: one matrix is the stack of one."""

    @staticmethod
    def slices(rng):
        bad = np.eye(7)
        bad[3, 4] = np.nan
        return [rng.uniform(-1.0, 1.0, (7, 7)),
                np.zeros((7, 7)),  # rcond 0, no LAPACK call
                bad,  # non-finite
                np.diag([1.0] * 6 + [1e-12]),  # below the rcond tolerance
                hilbert(7),  # passes rcond, refused by the residual
                1e4 * hilbert(7),
                rng.uniform(-1.0, 1.0, (7, 7)) * 1e-200,
                np.diag([1.0] * 6 + [1e-9]),  # passes both
                rng.uniform(-1.0, 1.0, (7, 7))]

    def test_each_slice_decides_as_the_matrix_alone(self):
        stack = np.array(self.slices(np.random.default_rng(4)))
        inv, witness = invertibility(stack)
        assert inv.shape == stack.shape
        assert witness["tolerance"] == SINGULARITY_RTOL
        decided = []
        for i, M in enumerate(stack):
            own, own_witness = invertibility(M)
            decided.append(own is not None)
            assert bits(witness["rcond"][i]) == bits(own_witness["rcond"])
            if "inverse_residual" in own_witness:
                assert bits(witness["inverse_residual"][i]) == bits(
                    own_witness["inverse_residual"])
            else:
                assert np.isnan(witness["inverse_residual"][i])
            if own is None:
                assert np.isnan(inv[i]).all()
            else:
                assert bits(inv[i]) == bits(own)
        assert decided == [True, False, False, False, False, False, True,
                           True, True]

    def test_condition_of_a_stack_is_each_slices(self):
        rng = np.random.default_rng(5)
        C = rng.uniform(-1.0, 1.0, (30, 6, 6))
        C_inv, _ = invertibility(C)
        conditions = QMTMatrix(C, C_inv).condition()
        assert conditions.shape == (30,)
        for i in range(30):
            own = QMTMatrix.from_matrix(C[i]).condition()
            assert isinstance(own, float)
            assert bits(conditions[i]) == bits(own)
        C_inv[3] = np.nan  # a singular slice
        assert np.isnan(QMTMatrix(C, C_inv).condition()[3])

    def test_empty_stack(self):
        inv, witness = invertibility(np.empty((0, 3, 3)))
        assert inv.shape == (0, 3, 3)
        assert witness["rcond"].shape == witness["inverse_residual"].shape \
            == (0,)


class TestMapState:
    def test_identity(self):
        y = np.array([0.3, 2.5])
        assert map_state(QMTMatrix.identity(2), y) == pytest.approx(y)

    def test_all_ones_fixed_under_any_exponents(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            qmt = random_qmt(rng, 3)
            assert map_state(qmt, np.ones(3)) == pytest.approx(np.ones(3))

    def test_scalar_oracle(self):
        qmt = QMTMatrix.from_matrix([[2.0, 0.0], [0.0, 0.5]])
        assert map_state(qmt, [3.0, 4.0]) == pytest.approx([9.0, 2.0])

    def test_composition(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            q1 = random_qmt(rng, 2)
            q2 = random_qmt(rng, 2)
            y = np.exp(rng.uniform(-1.0, 1.0, size=2))
            combined = QMTMatrix.from_matrix(q1.C @ q2.C)
            lhs = map_state(combined, y)
            rhs = map_state(q1, map_state(q2, y))
            assert np.max(np.abs(lhs - rhs) / np.abs(lhs)) <= 1e-9

    def test_overflow_guard(self):
        qmt = QMTMatrix.from_matrix([[400.0]])
        with pytest.raises(OverflowGuard):
            map_state(qmt, [10.0])

    @pytest.mark.parametrize("y, reason", [
        (1e160, "overflow"),   # exponent 2 log y = +736.8
        (1e-160, "underflow"),  # exponent -736.8: a collapse, not a blow-up
        (1e-151, "underflow"),  # exponent -695.3, but the image is 1e-302
    ])
    def test_guard_names_the_kernel_reason(self, y, reason):
        # the one-step map's rule: an exponent above +EXP_ARG_LIMIT is
        # overflow, an image below UNDERFLOW_FLOOR is underflow
        qmt = QMTMatrix.from_matrix([[2.0]])
        with pytest.raises(OverflowGuard, match=f"hit the {reason} guard"):
            map_state(qmt, [y])

    def test_image_above_the_floor_passes(self):
        qmt = QMTMatrix.from_matrix([[2.0]])
        assert map_state(qmt, [1e-149]) == pytest.approx([1e-298])

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_rows_map_as_their_states(self, n):
        # each row of a batch maps to the bit as the state does alone,
        # with the guard code whose reason map_state names
        rng = np.random.default_rng(n)
        qmt = QMTMatrix.from_matrix(3.0 * random_qmt(rng, n).C)
        Y = np.exp(rng.uniform(-400.0, 400.0, size=(200, n)))
        X, guard = map_states(qmt.C, Y)
        assert 0 < np.count_nonzero(guard == GUARD_OK) < len(Y)
        for y, x, code in zip(Y, X, guard):
            if code == GUARD_OK:
                assert map_state(qmt, y).tobytes() == x.tobytes()
            else:
                with pytest.raises(OverflowGuard,
                                   match=f"hit the {GUARD_REASONS[code]} "):
                    map_state(qmt, y)

    def test_identity_rows_are_the_states(self):
        Y = np.exp(np.random.default_rng(3).uniform(-5.0, 5.0, size=(7, 3)))
        X, guard = map_states(QMTMatrix.identity(3).C, Y)
        assert np.array_equal(X.view(np.int64), Y.view(np.int64))
        assert not guard.any()

    @pytest.mark.parametrize("n", [2, 6])
    def test_a_stack_maps_each_slice_as_its_matrix(self, n):
        # the identity, a matrix that guards some of its rows and one
        # that guards none, as one (3, n, n) stack: slice i maps to the
        # bit as C[i] maps it alone, guard codes included
        rng = np.random.default_rng(n)
        C = np.stack([np.eye(n), 3.0 * random_qmt(rng, n).C,
                      random_qmt(rng, n).C])
        Y = np.exp(rng.uniform(-400.0, 400.0, size=(3, 50, n)))
        Y[2] = np.exp(rng.uniform(-5.0, 5.0, size=(50, n)))
        X, guard = map_states(C, Y)
        assert X.shape == Y.shape and guard.shape == (3, 50)
        assert X[0].tobytes() == Y[0].tobytes() and not guard[0].any()
        assert guard[1].any() and not guard[1].all() and not guard[2].any()
        for i in range(3):
            alone = map_states(C[i], Y[i])
            assert X[i].tobytes() == alone[0].tobytes()
            assert np.array_equal(guard[i], alone[1])

    @pytest.mark.parametrize("C", [np.eye(2), [[2.0, 1.0], [0.0, 1.0]]])
    def test_an_empty_batch_maps_and_steps_to_nothing(self, C):
        # the guard rule takes no extremum of an empty array
        Y = np.empty((0, 2))
        X, guard = map_states(np.array(C), Y)
        assert X.shape == (0, 2) and guard.shape == (0,)
        sys = QPSystem(np.array(C), np.eye(2), np.ones(2))
        for got, shape in zip(advance(sys, Y), [(0, 2), (0, 2), (0,)]):
            assert got.shape == shape


class TestConjugacy:
    def test_one_step_defect_within_budget(self):
        rng = np.random.default_rng(6)
        steps = 100
        for _ in range(10):
            sys = random_contracting_system(rng)
            qmt = random_qmt(rng, 2, max_condition=20.0)
            x0 = np.exp(rng.uniform(np.log(0.5), np.log(2.0), size=2))
            deviation = conjugacy_deviation(sys, qmt, x0, steps)
            assert deviation <= 1e-7
