from itertools import permutations

import numpy as np
import pytest

from conftest import behind, hilbert, load_fixture, random_qmt, random_system
from qpd import (
    DEFAULT_SIGN_TOL,
    MINUS,
    PLUS,
    Conclusion,
    HierarchicalOrderWitness,
    HypothesisCheck,
    QPSystem,
    TheoremVerdict,
    apply_qmt,
    canonical_lv,
    check_all_theorems,
    check_theorem1,
    check_theorem2,
    check_theorem3,
    check_theorem4,
    check_theorem5,
    check_theorem6,
    check_theorem7,
    class_invariants,
    is_hierarchically_ordered,
    perp,
    sign_pattern,
)
import qpd.theorems
from qpd.errors import SingularB, WrongDimension


def reordered(P, witness):
    """P[sigma][:, sigma] for the rearrangement sigma of a witness."""
    idx = np.asarray(witness.permutation)
    return np.asarray(P, dtype=float)[np.ix_(idx, idx)]


def hierarchically_ordered_bruteforce(P, tol=DEFAULT_SIGN_TOL):
    """Exhaustive n! reference for ``is_hierarchically_ordered`` (n <= ~8):
    the first rearrangement with a nonnegative upper triangle and a
    strictly positive diagonal, or None."""
    P = np.asarray(P, dtype=float)
    for order in permutations(range(P.shape[0])):
        witness = HierarchicalOrderWitness(order)
        Q = reordered(P, witness)
        if np.all(np.diag(Q) > tol) and np.all(np.triu(Q, 1) >= -tol):
            return witness
    return None


def qp_family(eps, delta, rho):
    """The generalized competitive family: invariants [[-1,-1/2],[-1/2,-1]]
    and (rho, rho) behind exponent matrix [[1, eps], [delta, 1]]."""
    d = 1.0 - eps * delta
    A = np.array([[(-1.0 + eps / 2.0) / d, (-0.5 + eps) / d],
                  [(-0.5 + delta) / d, (-1.0 + delta / 2.0) / d]])
    lam = np.array([rho * (1.0 - eps) / d, rho * (1.0 - delta) / d])
    return QPSystem(A, [[1.0, eps], [delta, 1.0]], lam)


def from_invariants(interaction, growth, B):
    """System with prescribed class invariants behind exponent matrix B."""
    B = np.asarray(B, dtype=float)
    return QPSystem(np.linalg.solve(B, np.asarray(interaction, dtype=float)),
                    B,
                    np.linalg.solve(B, np.asarray(growth, dtype=float)))


class TestPerp:
    def test_examples(self):
        assert perp([0.7, 0.7]) == pytest.approx([0.7, -0.7])
        assert perp([0.0, 0.0]) == pytest.approx([0.0, 0.0])
        assert perp([1.0, 2.0]) == pytest.approx([2.0, -1.0])

    def test_wrong_dimension(self):
        with pytest.raises(WrongDimension):
            perp([1.0, 2.0, 3.0])


class TestTheorem1:
    def test_cooperative_invariant_not_permanent(self):
        sys = QPSystem([[-1.0, 1.0], [1.0, -1.0]], np.eye(2), [1.0, 1.0])
        verdict = check_theorem1(sys)
        assert verdict.applicable
        assert verdict.conclusion is Conclusion.NOT_PERMANENT

    def test_competitive_invariant_inapplicable(self):
        verdict = check_theorem1(load_fixture("example1_lv"))
        assert not verdict.applicable
        assert verdict.conclusion is Conclusion.INCONCLUSIVE

    def test_checks_invariant_not_coefficient_matrix(self):
        # eps = delta = 1.5 flips the visible signs of A while the class
        # invariants stay competitive.
        sys = qp_family(1.5, 1.5, 0.7)
        assert not np.array_equal(sign_pattern(sys.A),
                                  np.full((2, 2), MINUS))
        assert not check_theorem1(sys).applicable
        assert check_theorem2(sys).applicable


class TestTheorem2:
    def test_example1_lv_permanent(self):
        verdict = check_theorem2(load_fixture("example1_lv"))
        assert verdict.applicable
        assert verdict.conclusion is Conclusion.PERMANENT

    def test_whole_parameter_family_permanent(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            eps = float(rng.uniform(-0.5, 0.5))
            delta = float(rng.uniform(-0.5, 0.5))
            rho = float(rng.uniform(0.05, 4.0))
            verdict = check_theorem2(qp_family(eps, delta, rho))
            assert verdict.applicable, (eps, delta, rho)

    def test_cross_condition_witness(self):
        rho = 0.5
        inv = class_invariants(load_fixture("example1_lv"))
        cross = inv.interaction.T @ perp(inv.growth)
        assert cross == pytest.approx([-rho / 2.0, rho / 2.0])

    def test_encoding_equivalence_on_random_instances(self):
        # pattern form of the cross condition vs the explicit inequalities
        rng = np.random.default_rng(8)
        tol = 1e-9
        for _ in range(300):
            G = -np.abs(rng.normal(size=(2, 2)))
            L = np.abs(rng.normal(size=2))
            cross = G.T @ perp(L)
            pattern_form = np.array_equal(
                sign_pattern(cross, tol),
                np.array([MINUS, PLUS], dtype=np.int8))
            inequality_form = (
                L[1] * G[0, 0] - L[0] * G[1, 0] < -tol
                and L[0] * G[1, 1] - L[1] * G[0, 1] < -tol
            )
            assert pattern_form == inequality_form


class TestTheorem3:
    def test_small_growth_globally_attractive(self):
        verdict = check_theorem3(load_fixture("example1_lv"))
        assert verdict.applicable
        assert verdict.conclusion is Conclusion.GLOBALLY_ATTRACTIVE

    def test_boundary_growth_allowed(self):
        assert check_theorem3(load_fixture("example1_qp_rho10")).applicable

    def test_large_growth_inapplicable(self):
        verdict = check_theorem3(load_fixture("example3_qp_rho32"))
        assert not verdict.applicable
        failed = [h.label for h in verdict.hypotheses if not h.passed]
        assert any("<= 1" in label for label in failed)

    def test_applicability_implies_theorem2(self):
        rng = np.random.default_rng(9)
        hit = 0
        for _ in range(300):
            sys = random_system(rng, 2)
            if check_theorem3(sys).applicable:
                hit += 1
                assert check_theorem2(sys).applicable
        # sanity: generic draws do produce some applicable instances
        rng2 = np.random.default_rng(10)
        for _ in range(20):
            eps = float(rng2.uniform(-0.4, 0.4))
            sys = qp_family(eps, 0.1, float(rng2.uniform(0.1, 0.9)))
            assert check_theorem3(sys).applicable
            assert check_theorem2(sys).applicable


class TestTheorem4:
    def test_example2_parameters_pass_all_conditions(self):
        verdict = check_theorem4(load_fixture("example2_predator_prey"))
        assert verdict.applicable
        assert verdict.conclusion is Conclusion.GLOBALLY_ATTRACTIVE

    def test_small_predation_gain_fails_lower_bound(self):
        r1, r2, mu1, mu2 = 0.5, 0.3, 0.5, 0.5
        sys = from_invariants([[-r1, -r1 * mu1], [r2 * mu2, -r2]],
                              [r1, -r2], np.eye(2))
        verdict = check_theorem4(sys)
        assert not verdict.applicable
        failed = [h.label for h in verdict.hypotheses if not h.passed]
        assert any("growth component 2 >" in label for label in failed)

    def test_competitive_sign_fails_pattern(self):
        verdict = check_theorem4(load_fixture("example1_lv"))
        assert not verdict.applicable
        failed = [h.label for h in verdict.hypotheses if not h.passed]
        assert any("predator-prey pattern" in label for label in failed)


class TestHierarchicalOrdering:
    def test_identity_matrix(self):
        witness = is_hierarchically_ordered(np.eye(2))
        assert witness is not None
        assert witness.permutation == (0, 1)

    def test_example2_negated_invariant(self):
        inv = class_invariants(load_fixture("example2_predator_prey"))
        witness = is_hierarchically_ordered(-inv.interaction)
        assert witness is not None
        assert witness.permutation == (0, 1)

    def test_rejects_non_square_matrix(self):
        with pytest.raises(WrongDimension, match="square"):
            is_hierarchically_ordered(np.ones((2, 3)))

    def test_ordering_definition(self):
        ordered = qpd.theorems._ordered_under
        tol = DEFAULT_SIGN_TOL
        assert ordered([[1.0, 2.0], [-3.0, 1.0]], (0, 1), tol)
        # a diagonal entry that is not positive beyond tol
        assert not ordered([[1.0, 2.0], [-3.0, tol]], (0, 1), tol)
        # an upper entry that is negative beyond tol, as given or reordered
        assert not ordered([[1.0, -2.0 * tol], [-3.0, 1.0]], (0, 1), tol)
        assert not ordered([[1.0, 2.0], [-3.0, 1.0]], (1, 0), tol)

    def test_antidiagonal_has_no_ordering(self):
        assert is_hierarchically_ordered([[0.0, 1.0], [1.0, 0.0]]) is None
        assert hierarchically_ordered_bruteforce([[0.0, 1.0], [1.0, 0.0]]) is None

    def test_scrambled_triangular_matrix_is_reordered(self):
        rng = np.random.default_rng(11)
        base = np.triu(rng.uniform(0.5, 2.0, size=(4, 4)))
        base[np.tril_indices(4, -1)] = rng.uniform(-2.0, -0.5,
                                                   size=4 * 3 // 2)
        sigma = rng.permutation(4)
        scrambled = base[np.ix_(sigma, sigma)]
        witness = is_hierarchically_ordered(scrambled)
        assert witness is not None
        Q = reordered(scrambled, witness)
        assert np.all(np.diag(Q) > 0.0)
        assert np.all(Q[np.triu_indices(4, 1)] >= 0.0)

    def test_agrees_with_bruteforce_on_random_sign_matrices(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            M = rng.choice([-1.0, 0.0, 1.0], size=(n, n))
            M *= rng.uniform(0.5, 2.0, size=(n, n))
            fast = is_hierarchically_ordered(M)
            slow = hierarchically_ordered_bruteforce(M)
            assert (fast is None) == (slow is None)
            if fast is not None:
                Q = reordered(M, fast)
                assert np.all(np.diag(Q) > 0.0)
                if n > 1:
                    assert np.all(Q[np.triu_indices(n, 1)] >= -1e-9)

    def test_search_is_total_beyond_ten_dimensions(self):
        witness = is_hierarchically_ordered(np.eye(12))
        assert witness is not None
        assert np.array_equal(reordered(np.eye(12), witness), np.eye(12))
        rng = np.random.default_rng(13)
        for n in (11, 12):
            verdicts = check_all_theorems(random_system(rng, n))
            assert len(verdicts) == 7


class TestTheorem5:
    def test_example2_has_global_attractor(self):
        verdict = check_theorem5(load_fixture("example2_predator_prey"))
        assert verdict.applicable
        assert verdict.conclusion is Conclusion.GLOBAL_ATTRACTOR_EXISTS
        assert any("growth invariant" in note for note in verdict.notes)

    def test_antidiagonal_invariant_inapplicable(self):
        sys = from_invariants([[0.0, -1.0], [-1.0, 0.0]], [0.5, 0.5],
                              np.eye(2))
        assert not check_theorem5(sys).applicable

    def test_negative_diagonal_invariant_applicable(self):
        sys = from_invariants(np.diag([-0.5, -1.5, -2.0]),
                              [1.0, -1.0, 0.3], np.eye(3))
        assert check_theorem5(sys).applicable


class TestTheorem6:
    def test_example2_dissipative(self):
        verdict = check_theorem6(load_fixture("example2_predator_prey"))
        assert verdict.applicable
        assert verdict.conclusion is Conclusion.DISSIPATIVE

    def test_identity_exponents_reduce_to_theorem5(self):
        sys = from_invariants(np.diag([-1.0, -1.0]), [0.5, 0.5], np.eye(2))
        assert check_theorem6(sys).applicable == check_theorem5(sys).applicable

    def test_negative_inverse_entry_inapplicable(self):
        sys = from_invariants(np.diag([-1.0, -1.0]), [0.5, 0.5],
                              np.diag([1.0, -1.0]))
        verdict = check_theorem6(sys)
        assert not verdict.applicable
        failed = [h.label for h in verdict.hypotheses if not h.passed]
        assert any("B^-1" in label for label in failed)


class TestTheorem7:
    def test_chaotic_regime_diamond(self):
        verdict = check_theorem7(load_fixture("example3_qp_rho32"))
        assert verdict.applicable
        assert verdict.conclusion is Conclusion.CHAOTIC_DIAMOND
        threshold = verdict.hypotheses[-1]
        assert threshold.witness["diamond_reached"] is True
        solve_entry = [h for h in verdict.hypotheses
                       if "entrywise negative" in h.label][0]
        assert solve_entry.witness["value"] == pytest.approx(
            [-2.0 / 3.0, -2.0 / 3.0], abs=1e-12)

    def test_intermediate_rho_marotto_only(self):
        sys = qp_family(0.2, 0.2, 3.0)
        verdict = check_theorem7(sys)
        assert verdict.applicable
        assert verdict.conclusion is Conclusion.CHAOTIC_MAROTTO
        assert verdict.hypotheses[-1].witness["diamond_reached"] is False

    def test_low_rho_records_below_threshold_note(self):
        verdict = check_theorem7(qp_family(0.2, 0.2, 2.0))
        assert not verdict.applicable
        assert any("below both" in note for note in verdict.notes)

    def test_nonuniform_growth_inapplicable(self):
        sys = from_invariants([[-1.0, -0.5], [-0.5, -1.0]], [1.0, 2.0],
                              np.eye(2))
        verdict = check_theorem7(sys)
        assert not verdict.applicable
        failed = [h.label for h in verdict.hypotheses if not h.passed]
        assert any("rho * ones" in label for label in failed)


class TestVerdictProperties:
    def test_invariance_under_random_transformations(self):
        # T6 is exempt: its nonnegative-B^-1 hypothesis is a property of
        # the representative, not of the class (boundedness of the
        # attractor does not survive a general change of variables).
        rng = np.random.default_rng(13)
        fixtures = [load_fixture(name) for name in
                    ("example1_lv", "example2_predator_prey",
                     "example3_qp_rho32")]
        for _ in range(30):
            sys = fixtures[int(rng.integers(len(fixtures)))]
            qmt = random_qmt(rng, sys.n, max_condition=20.0)
            before = check_all_theorems(sys)
            after = check_all_theorems(apply_qmt(sys, qmt))
            for v1, v2 in zip(before, after):
                if v1.theorem_id == "T6":
                    continue
                assert v1.applicable == v2.applicable, v1.theorem_id
                assert v1.conclusion == v2.conclusion, v1.theorem_id

    def test_b_invertible_agrees_with_canonical_lv(self):
        # the battery once passed B on |det| while canonical_lv refused it
        sys = behind(1e4 * hilbert(7))
        b_check = check_theorem5(sys).hypotheses[0]
        assert b_check.label == "B invertible"
        assert not b_check.passed
        assert set(b_check.witness) == {"rcond", "tolerance",
                                        "inverse_residual"}
        with pytest.raises(SingularB):
            canonical_lv(sys)

    def test_exactly_singular_b_is_not_a_boundary_case(self):
        sys = QPSystem(-np.eye(2), [[1.0, 2.0], [2.0, 4.0]], [0.5, 0.5])
        for verdict in check_all_theorems(sys):
            assert not verdict.applicable
            assert not any("invertib" in w for w in verdict.boundary_warnings)

    def test_rcond_near_tolerance_is_reported(self):
        sys = QPSystem(-np.eye(2), np.diag([1.0, 3e-10]), [0.5, 0.5])
        verdict = check_theorem5(sys)
        assert verdict.hypotheses[0].passed
        assert any("B invertible: rcond" in w
                   for w in verdict.boundary_warnings)

    def test_boundary_proximity_is_reported(self):
        sys = from_invariants([[-1.0, 5e-9], [-0.5, -1.0]], [0.5, 0.5],
                              np.eye(2))
        verdict = check_theorem2(sys)
        assert verdict.boundary_warnings

    def test_trace_serialization_shape(self):
        verdict = check_theorem2(load_fixture("example1_lv"))
        doc = verdict.to_dict()
        assert doc["theorem"] == "T2"
        assert doc["applicable"] is True
        assert doc["conclusion"] == "Permanent"
        for entry in doc["hypotheses"]:
            assert set(entry) == {"hypothesis", "pass", "witness"}


class TestOneClassDecision:
    N3 = QPSystem(-np.eye(3) + 0.1, [[1.0, 0.2, 0.0], [0.0, 1.0, 0.3],
                                     [0.1, 0.0, 1.0]], [3.2, 3.2, 3.2])

    @pytest.mark.parametrize("sys", [load_fixture("example3_qp_rho32"), N3],
                             ids=["example3", "n3"])
    def test_battery_decides_the_class_once(self, monkeypatch, sys):
        calls = dict.fromkeys(("invertibility", "class_invariants",
                               "is_hierarchically_ordered"), 0)
        for attr in calls:
            def counted(*args, _fn=getattr(qpd.theorems, attr), _attr=attr):
                calls[_attr] += 1
                return _fn(*args)
            monkeypatch.setattr(qpd.theorems, attr, counted)
        check_all_theorems(sys)
        # B once and the interaction invariant (T7) once
        assert calls == {"invertibility": 2, "class_invariants": 1,
                         "is_hierarchically_ordered": 1}

    def test_b_warning_rides_with_the_b_check(self):
        for B in (np.diag([1.0, 3e-10]), np.diag([1.0, 1.0, 3e-10])):
            sys = QPSystem(-np.eye(len(B)), B, np.full(len(B), 0.5))
            for verdict in check_all_theorems(sys):
                has_check = any(h.label == "B invertible"
                                for h in verdict.hypotheses)
                has_warning = any(w.startswith("B invertible: rcond")
                                  for w in verdict.boundary_warnings)
                assert has_check == has_warning, verdict.theorem_id
                assert has_check == (len(B) == 2
                                     or verdict.theorem_id >= "T5")

    def test_public_checkers_keep_their_names_and_docstrings(self):
        checkers = (check_theorem1, check_theorem2, check_theorem3,
                    check_theorem4, check_theorem5, check_theorem6,
                    check_theorem7)
        for number, check in enumerate(checkers, 1):
            assert check.__name__ == f"check_theorem{number}"
            assert check.__doc__
            assert check(self.N3).theorem_id == f"T{number}"


class TestVerdictIsItsTrace:
    def test_applicability_conclusion_and_warnings_are_derived(self):
        trace = (HypothesisCheck("a", True, {}, ("w1", "w2")),
                 HypothesisCheck("b", True, {}),
                 HypothesisCheck("c", True, {}, ("w3",)))
        verdict = TheoremVerdict("T2", Conclusion.PERMANENT, trace)
        assert verdict.applicable
        assert verdict.conclusion is Conclusion.PERMANENT
        assert verdict.boundary_warnings == ("w1", "w2", "w3")
        failed = TheoremVerdict("T2", Conclusion.PERMANENT,
                                trace + (HypothesisCheck("d", False, {}),))
        assert not failed.applicable
        assert failed.conclusion is Conclusion.INCONCLUSIVE
        assert failed.boundary_warnings == ("w1", "w2", "w3")

    def test_rho_warning_sits_on_the_threshold_check(self):
        verdict = check_theorem7(qp_family(0.2, 0.2, 3.13))
        assert verdict.applicable
        *structural, threshold = verdict.hypotheses
        assert threshold.label.startswith("rho >= ")
        assert threshold.warnings == (
            "rho = 3.13 within 10*tol of a chaos threshold",)
        assert all(h.warnings == () for h in structural)

    def test_rcond_warning_sits_on_the_b_check(self):
        sys = QPSystem(-np.eye(2), np.diag([1.0, 3e-10]), [0.5, 0.5])
        for verdict in check_all_theorems(sys):
            for h in verdict.hypotheses:
                on_b = [w for w in h.warnings
                        if w.startswith("B invertible: rcond")]
                assert len(on_b) == (h.label == "B invertible"), h.label
