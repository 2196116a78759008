import json
import math

import numpy as np
import pytest

from conftest import fixture_path, load_fixture
from qpd import (
    MINUS,
    PLUS,
    ZERO,
    LVSystem,
    QPSystem,
    is_lotka_volterra,
    sign_pattern,
    load_system,
    step,
    system_from_dict,
)
from qpd.systems import (
    EXP_ARG_LIMIT,
    GUARD_OK,
    GUARD_OVERFLOW,
    GUARD_UNDERFLOW,
    UNDERFLOW_FLOOR,
    MapStep,
    QPStack,
    _rows_equal,
    advance,
    as_batch,
    as_state,
    as_states,
    row_product,
)
from qpd.errors import (
    DimensionMismatch,
    InvalidArgument,
    NonFinite,
    NonPositiveState,
    OverflowGuard,
    QPDError,
    SchemaError,
)

LV1_A = [[-1.0, -0.5], [-0.5, -1.0]]
LV1_LAM = [0.5, 0.5]


class TestValidation:
    def test_accepts_competitive_lv(self):
        sys = QPSystem(LV1_A, np.eye(2), LV1_LAM)
        assert sys.n == 2
        assert np.array_equal(sys.B, np.eye(2))

    def test_rejects_mismatched_vector_length(self):
        with pytest.raises(DimensionMismatch):
            QPSystem(LV1_A, np.eye(2), [0.5, 0.5, 0.5])

    def test_rejects_rectangular_matrix(self):
        with pytest.raises(DimensionMismatch):
            QPSystem(np.ones((2, 3)), np.eye(2), LV1_LAM)

    def test_rejects_nan(self):
        A = [[np.nan, -0.5], [-0.5, -1.0]]
        with pytest.raises(NonFinite):
            QPSystem(A, np.eye(2), LV1_LAM)

    def test_rejects_inf_in_lambda(self):
        with pytest.raises(NonFinite):
            QPSystem(LV1_A, np.eye(2), [np.inf, 0.5])

    def test_rejects_exponent_matrix_of_wrong_shape(self):
        with pytest.raises(DimensionMismatch, match="B must be 2x2"):
            QPSystem(LV1_A, np.eye(3), LV1_LAM)

    def test_arrays_are_immutable(self):
        sys = QPSystem(LV1_A, np.eye(2), LV1_LAM)
        with pytest.raises(ValueError):
            sys.A[0, 0] = 7.0


class TestAsState:
    def test_rejects_matrix(self):
        with pytest.raises(DimensionMismatch, match="state must be a vector"):
            as_state(np.ones((2, 2)), 2)

    def test_rejects_nan(self):
        with pytest.raises(NonFinite):
            as_state([1.0, np.nan], 2)


class TestAsStates:
    BAD_ROWS = {"matrix": np.ones((2, 2)), "length": [1.0, 1.0, 1.0],
                "scalar": 1.0, "nan": [1.0, np.nan], "inf": [np.inf, 1.0],
                "zero": [0.0, 1.0], "negative": [1.0, -2.0]}

    def test_rows_pass_through(self):
        X = [[1.0, 2.0], np.array([0.5, 3.0])]
        assert as_states(X, 2).tolist() == [[1.0, 2.0], [0.5, 3.0]]
        assert as_states([], 2).shape == (0, 2)

    @pytest.mark.parametrize("i", [0, 2, 4])
    @pytest.mark.parametrize("kind", BAD_ROWS)
    def test_bad_row_raises_as_the_state_alone(self, kind, i):
        row = self.BAD_ROWS[kind]
        with pytest.raises(Exception) as own:
            as_state(row, 2)
        X = [[1.0, 1.0]] * 6
        X[i] = row
        X[5] = [-1.0, 1.0]  # a later bad row is not the one named
        with pytest.raises(type(own.value)) as batch:
            as_states(X, 2)
        assert str(batch.value) == str(own.value)


class TestLVSystem:
    def test_is_the_qp_system_with_identity_exponents(self):
        lv = LVSystem(LV1_A, LV1_LAM, name="lv1")
        assert isinstance(lv, QPSystem)
        assert lv.to_dict() == QPSystem(LV1_A, np.eye(2), LV1_LAM,
                                        name="lv1").to_dict()

    def test_length_error_names_lam(self):
        with pytest.raises(DimensionMismatch,
                           match=r"^lam must have length 3, got shape \(2,\)$"):
            LVSystem(np.eye(3), [1.0, 2.0])


class TestStep:
    def test_zero_coefficients_is_identity_for_any_exponents(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            B = rng.uniform(-2.0, 2.0, size=(3, 3))
            sys = QPSystem(np.zeros((3, 3)), B, np.zeros(3))
            x = rng.uniform(0.1, 10.0, size=3)
            assert step(sys, x) == pytest.approx(x, rel=0, abs=0)

    def test_lv_fixed_point_is_fixed(self):
        sys = QPSystem(LV1_A, np.eye(2), LV1_LAM)
        z = np.array([1.0 / 3.0, 1.0 / 3.0])
        out = step(sys, z)
        assert np.max(np.abs(out - z)) <= 1e-12 * np.max(np.abs(z))

    def test_qp_step_matches_scalar_oracle(self):
        # Evaluate the two quasimonomials and exponentials by plain scalar
        # arithmetic, independently of the exp(B log x) path.
        sys = load_fixture("example1_qp_rho05")
        x1, x2 = 0.5, 0.5
        lam = 0.5 * 5.0 / 6.0
        q1 = x1 * x2**0.2
        q2 = x1**0.2 * x2
        expected = [
            x1 * math.exp(lam - 0.9375 * q1 - 0.3125 * q2),
            x2 * math.exp(lam - 0.3125 * q1 - 0.9375 * q2),
        ]
        got = step(sys, [x1, x2])
        assert got == pytest.approx(expected, rel=1e-14)
        # frozen value of the oracle, guarding the fixture itself
        assert got == pytest.approx([0.4401786481486632] * 2, rel=1e-14)

    def test_positivity_preserved_without_overflow(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            sys = QPSystem(
                rng.uniform(-1.0, 1.0, size=(n, n)),
                rng.uniform(-1.0, 1.0, size=(n, n)),
                rng.uniform(-0.5, 0.5, size=n),
            )
            x = np.exp(rng.uniform(np.log(0.2), np.log(5.0), size=n))
            out = step(sys, x)
            assert np.all(out > 0.0)
            assert np.all(np.isfinite(out))

    def test_overflow_guard_trips(self):
        sys = QPSystem([[800.0]], [[1.0]], [0.0])
        with pytest.raises(OverflowGuard):
            step(sys, [1.0])

    def test_quasimonomial_overflow_guard_trips(self):
        sys = QPSystem([[1.0]], [[400.0]], [0.0])
        with pytest.raises(OverflowGuard):
            step(sys, [10.0])

    def test_rejects_nonpositive_state(self):
        sys = QPSystem(LV1_A, np.eye(2), LV1_LAM)
        with pytest.raises(NonPositiveState):
            step(sys, [0.0, 1.0])


def reference_advance(sys, X):
    """The map by the kernel's formulas, with the guard rule applied row
    by row and component by component."""
    with np.errstate(all="ignore"):
        W = np.log(X) @ sys.B.T
        q = np.exp(W)
        arg = sys.lam + q @ sys.A.T
        Xn = X * np.exp(arg)
    codes = []
    for w, a, x in zip(np.atleast_2d(W), np.atleast_2d(arg),
                       np.atleast_2d(Xn)):
        if (any(v > EXP_ARG_LIMIT for v in w)
                or any(v > EXP_ARG_LIMIT for v in a)
                or not all(v < math.inf for v in x)):
            codes.append(GUARD_OVERFLOW)
        elif (any(v < -EXP_ARG_LIMIT for v in a)
                or any(v < UNDERFLOW_FLOOR for v in x)):
            codes.append(GUARD_UNDERFLOW)
        else:
            codes.append(GUARD_OK)
    return Xn, q, np.array(codes, dtype=int).reshape(X.shape[:-1])


class TestAdvance:
    # step exponents exactly +700 and -700 in every row
    EDGE = QPSystem(np.zeros((2, 2)), np.eye(2), [700.0, -700.0])
    IDENTITY = QPSystem(np.zeros((2, 2)), np.eye(2), np.zeros(2))
    # step exponents just past +700 or -700 with finite, positive images
    PAST_UP = QPSystem(np.zeros((2, 2)), np.eye(2), [700.5, 0.0])
    PAST_DOWN = QPSystem(np.zeros((2, 2)), np.eye(2), [0.0, -700.5])
    # quasimonomial exponent 700 log x_1
    STEEP = QPSystem(np.zeros((2, 2)), [[700.0, 0.0], [0.0, 1.0]], np.zeros(2))

    BATCHES = (
        (EDGE, [[1.0, 1e5], [3.0, 2e5]]),                # all ok, at +-700
        (EDGE, [[1.0, 1e5], [1e5, 1e5], [2.0, 3e5]]),    # one overflow row
        (EDGE, [[1.0, 1e5], [1.0, 1.0], [2.0, 3e5]]),    # one underflow row
        (EDGE, [[1.0, 1e5], [np.nan, 1.0], [2.0, 3e5]]),  # one NaN row
        (EDGE, [[1e5, 1.0], [1.0, 1.0], [np.nan, 2.0], [1.0, 1e5]]),
        (IDENTITY, [[UNDERFLOW_FLOOR, 1.0], [1.0, 2.0]]),  # image at floor
        (IDENTITY, [[np.nextafter(UNDERFLOW_FLOOR, 0.0), 1.0], [1.0, 2.0]]),
        (PAST_UP, [[1.0, 1.0], [1e-5, 1.0]]),
        (PAST_DOWN, [[1.0, 1e5], [1.0, 2e5]]),
        (STEEP, [[np.e, 1.0], [1.0, 1.0]]),            # exponent exactly 700
        (STEEP, [[np.e, 1.0], [np.exp(1.005), 1.0]]),  # 703.5, q finite
    )

    @pytest.mark.parametrize("sys, X", BATCHES)
    def test_matches_per_row_guard_rule(self, sys, X):
        X = np.array(X)
        for batch in (X, *X):  # the (m, n) batch and each (n,) row
            got = advance(sys, batch)
            expected = reference_advance(sys, batch)
            for a, b in zip(got, expected):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert np.array_equal(a, b, equal_nan=True)

    def test_batches_cover_every_guard_code(self):
        codes = {int(c) for sys, X in self.BATCHES
                 for c in advance(sys, np.array(X))[2]}
        assert codes == {GUARD_OK, GUARD_OVERFLOW, GUARD_UNDERFLOW}

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_stack_steps_each_slice_by_its_own_system(self, rows):
        # every batch of at least `rows` rows, cut to that many, as one
        # stack: slice i is system i's own step of its rows, to the bit
        batches = [(sys, np.array(X)[:rows]) for sys, X in self.BATCHES
                   if len(X) >= rows]
        stack = QPStack(*(np.stack([getattr(sys, field) for sys, _ in batches])
                          for field in QPStack._fields))
        got = advance(stack, np.stack([X for _, X in batches]))
        for i, (sys, X) in enumerate(batches):
            for a, b in zip(got, advance(sys, X)):
                assert np.array_equal(a[i], b, equal_nan=True)


class TestBatchRule:
    # an odd batch gains one copy of its first row; a lone row is m = 1
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_an_odd_batch_gains_one_copy_of_row_0(self, m):
        stack = np.random.default_rng(m).uniform(0.5, 2.0, size=(3, m, 4))
        for X in (stack[0], stack):
            batch = as_batch(X)
            assert batch.shape[-2] == m + m % 2
            assert np.array_equal(batch[..., :m, :], X)
            if m % 2:
                assert np.array_equal(batch[..., m, :], X[..., 0, :])
        if m == 1:  # one vector is a lone row
            assert np.array_equal(as_batch(stack[0, 0]), as_batch(stack[0]))

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_row_product_keeps_the_shape_of_x(self, m):
        rng = np.random.default_rng(m)
        X, M = rng.normal(size=(3, m, 4)), rng.normal(size=(3, 4, 4))
        for rows, matrix in ((X, M), (X[0], M[0]), (X[0, 0], M[0])):
            product = row_product(rows, matrix)
            assert product.shape == rows.shape
            expected = as_batch(rows) @ matrix
            expected = (expected[0] if rows.ndim == 1
                        else expected[..., :rows.shape[-2], :])
            assert product.tobytes() == expected.tobytes()


class TestKernelBits:
    # the kernel calls numpy's C functions directly; each must give the
    # bits of the public call it stands for
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 10])
    def test_tangent_norm_is_einsums(self, n):
        # A = 0 leaves each tangent row as it is, V + 0, so the norm the
        # kernel keeps is that of the given rows, scaled e^-30 .. e^30
        rng = np.random.default_rng(n)
        V = (rng.standard_normal((64, n))
             * np.exp(np.linspace(-30.0, 30.0, 64))[:, None])
        sys = QPSystem(np.zeros((n, n)), np.eye(n), np.zeros(n))
        kernel = MapStep(sys, rng.uniform(0.5, 2.0, (64, n)), 1,
                         tangents=(0, V))
        kernel.step(0)
        s = np.sqrt(np.einsum("ij,ij->i", V, V))
        assert kernel.norms[1].tobytes() == s.tobytes()
        assert kernel.V[1].tobytes() == (V / s[:, None]).tobytes()

    # +-0.0, NaNs of several payloads and signs, +-inf, and a number
    SPECIAL = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, 1.0],
        np.array([0x7FF8000000000000, 0x7FF8000000000001,
                  0x7FF0000000000001, 0xFFF8000000000000],
                 dtype=np.uint64).view(float)])

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_rows_equal_compares_bit_patterns(self, n):
        rng = np.random.default_rng(n)
        pick = self.SPECIAL.view(np.int64)
        a = pick[rng.integers(len(pick), size=(40, 9, n))]
        b = pick[rng.integers(len(pick), size=(9, n))]
        a[::3] = b  # whole rows repeat, and some repeat by chance
        for x, y in ((a, b), (a[:, 0], b[0])):  # a block, and row 0
            expected = (x == y).all(axis=-1)
            assert np.array_equal(_rows_equal(x, y), expected)
            assert expected.any() and not expected.all()
        # the float comparison would answer otherwise
        assert not np.array_equal(
            (a.view(float) == b.view(float)).all(axis=-1),
            (a == b).all(axis=-1))


class TestSignPattern:
    def test_competitive_matrix(self):
        pat = sign_pattern(LV1_A, tol=1e-12)
        assert np.array_equal(pat, np.full((2, 2), MINUS))

    def test_zero_matrix(self):
        assert np.array_equal(sign_pattern(np.zeros((3, 2)), tol=0.5),
                              np.full((3, 2), ZERO))

    def test_tolerance_boundary(self):
        pat = sign_pattern([[1e-13, 2.0]], tol=1e-12)
        assert np.array_equal(pat, [[ZERO, PLUS]])

    def test_invariant_under_positive_rescaling(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            M = rng.uniform(-1.0, 1.0, size=(3, 3))
            M[np.abs(M) < 0.1] = 0.0
            scale = float(rng.uniform(0.5, 100.0))
            assert np.array_equal(sign_pattern(M, 1e-9),
                                  sign_pattern(scale * M, 1e-9 * scale))

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValueError):
            sign_pattern(LV1_A, tol=-1.0)

    def test_rejects_nan_tolerance(self):
        with pytest.raises(InvalidArgument):
            sign_pattern(LV1_A, tol=math.nan)

    def test_invalid_argument_is_a_qpd_error_and_a_value_error(self):
        # main reports every QPDError; library callers may catch ValueError
        assert issubclass(InvalidArgument, QPDError)
        assert issubclass(InvalidArgument, ValueError)
        with pytest.raises(InvalidArgument):
            sign_pattern(LV1_A, tol=-1.0)


class TestIsLotkaVolterra:
    def test_identity_exponents(self):
        sys = QPSystem(LV1_A, np.eye(2), LV1_LAM)
        assert is_lotka_volterra(sys)

    def test_qp_exponents(self):
        assert not is_lotka_volterra(load_fixture("example1_qp_rho05"))

    def test_perturbed_identity_within_tolerance(self):
        sys = QPSystem(LV1_A, np.eye(2) + 1e-15, LV1_LAM)
        assert is_lotka_volterra(sys, tol=1e-12)


class TestJsonSchema:
    def test_fixture_round_trip(self, tmp_path):
        sys = load_fixture("example1_lv")
        doc = sys.to_dict()
        again = system_from_dict(json.loads(json.dumps(doc)))
        assert np.array_equal(again.A, sys.A)
        assert np.array_equal(again.B, sys.B)
        assert np.array_equal(again.lam, sys.lam)
        assert again.name == sys.name

    def test_missing_key(self):
        doc = json.loads(fixture_path("example1_lv").read_text())
        del doc["lambda"]
        with pytest.raises(SchemaError):
            system_from_dict(doc)

    def test_mistyped_entry(self):
        doc = json.loads(fixture_path("example1_lv").read_text())
        doc["A"][0][0] = "minus one"
        with pytest.raises(SchemaError):
            system_from_dict(doc)

    def test_wrong_row_count(self):
        doc = json.loads(fixture_path("example1_lv").read_text())
        doc["B"] = [[1.0, 0.0]]
        with pytest.raises(SchemaError):
            system_from_dict(doc)

    def test_document_must_be_an_object(self):
        with pytest.raises(SchemaError, match="must be a JSON object"):
            system_from_dict([1, 2])

    def test_name_must_be_a_string(self):
        doc = json.loads(fixture_path("example1_lv").read_text())
        doc["name"] = 7
        with pytest.raises(SchemaError, match="'name' must be a string"):
            system_from_dict(doc)

    @pytest.mark.parametrize("n", [0, True, 2.0])
    def test_dimension_must_be_a_positive_integer(self, n):
        doc = json.loads(fixture_path("example1_lv").read_text())
        doc["n"] = n
        with pytest.raises(SchemaError, match="'n' must be a positive integer"):
            system_from_dict(doc)

    @pytest.mark.parametrize("lam", [[0.5], [0.5, True]],
                             ids=["short", "boolean"])
    def test_lambda_must_be_n_numbers(self, lam):
        doc = json.loads(fixture_path("example1_lv").read_text())
        doc["lambda"] = lam
        with pytest.raises(SchemaError, match="'lambda' must be a numeric"):
            system_from_dict(doc)

    @pytest.mark.parametrize("entry", ["1e400", "NaN"])
    def test_non_finite_entry_in_file(self, tmp_path, entry):
        path = tmp_path / "system.json"
        path.write_text('{"n": 2, "A": [[%s, 0], [0, -1]], '
                        '"B": [[1, 0], [0, 1]], "lambda": [1, 1]}' % entry)
        with pytest.raises(SchemaError,
                           match="A contains NaN or infinite entries"):
            load_system(path)
