import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qpd.cli
import qpd.systems
from conftest import (
    ATTRACTIVE_FIXTURES,
    FIXTURE_NAMES,
    PROPERTIES,
    counted_kernel,
    exact_exponent,
    fixture_path,
    load_fixture,
)
from qpd import (DEFAULT_SIGN_TOL, QMTMatrix, QPSystem, apply_qmt,
                 canonical_lv, load_system)
from qpd.cli import build_analysis_report, main
from qpd.dynamics import (
    LYAPUNOV_ROUNDING_FLOOR,
    VERIFY_ATTRACTIVITY_TOL,
    EmpiricalVerdict,
    VerificationPass,
    empirical_attractivity,
    empirical_permanence,
    falsifications,
    qp_fixed_point,
)
from qpd.errors import NonFinite, SingularMatrix
from qpd.systems import QPStack
from qpd.theorems import Conclusion, HypothesisCheck, TheoremVerdict
from qpd.transform import apply_qmts

DATA = Path(__file__).resolve().parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reject(constant):
    """``parse_constant`` of strict JSON: NaN and Infinity are refused."""
    raise ValueError(f"{constant} is not JSON")


def write_system(tmp_path, A, lam, B=None):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({
        "name": "test", "n": len(lam), "A": A,
        "B": np.eye(len(lam)).tolist() if B is None else B, "lambda": lam}))
    return str(path)


class TestAnalyze:
    def test_example1_report(self, capsys):
        code, out, _ = run(capsys, "analyze", str(fixture_path("example1_lv")))
        assert code == 0
        assert "T2  applicable" in out and "Permanent" in out
        assert "T3  applicable" in out and "GloballyAttractive" in out

    def test_example3_report_with_verification(self, capsys):
        code, out, _ = run(capsys, "analyze",
                           str(fixture_path("example3_qp_rho32")), "--verify")
        assert code == 0
        assert "ChaoticDiamond" in out
        assert "T3  not applicable" in out
        lyapunov, = [line for line in out.splitlines()
                     if "largest Lyapunov estimate" in line]
        assert lyapunov.startswith("  largest Lyapunov estimate: mean ")
        assert ", sd " in lyapunov and lyapunov.endswith(" over 51 orbits")
        assert "permanence probe: pass" in out

    def test_output_is_deterministic(self, capsys):
        args = ("analyze", str(fixture_path("example2_predator_prey")),
                "--verify")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_json_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "analyze", str(fixture_path("example1_lv")),
                         "--verify", "--json", str(out_path))
        assert code == 0
        text = out_path.read_text()
        loaded = json.loads(text)
        assert json.dumps(loaded, indent=2) + "\n" == text
        verdicts = {v["theorem"]: v for v in loaded["theorems"]}
        assert verdicts["T2"]["conclusion"] == "Permanent"
        assert verdicts["T3"]["applicable"] is True
        assert loaded["verify"]["disagreements"] == []

    @pytest.mark.parametrize("name, tol", [
        *(pytest.param(name, None, id=name) for name in FIXTURE_NAMES),
        *(pytest.param(name, "0.5", id=f"{name}-tol0.5")
          for name in FIXTURE_NAMES),
    ])
    def test_output_matches_golden_files(self, capsys, tmp_path, name, tol):
        # the verdicts, their traces and, at tol 0.5 where each fixture
        # prints 34-36 boundary lines, the warning order stay byte-identical
        out_json = tmp_path / "report.json"
        tol_args = () if tol is None else ("--tol", tol)
        code, out, err = run(capsys, "analyze", str(fixture_path(name)),
                             *tol_args, "--json", str(out_json))
        golden = DATA / (f"analyze_{name}" if tol is None
                         else f"analyze_{name}_tol{tol}")
        assert code == 0 and err == ""
        assert out.encode() == Path(f"{golden}.stdout").read_bytes()
        assert out_json.read_bytes() == Path(f"{golden}.json").read_bytes()

    def test_guarded_verify_report_matches_golden_files(self, capsys,
                                                        tmp_path):
        # 36 of the 51 orbits hit a guard, before step 2000 and after it,
        # so blocks of the lockstep engine trip and end at their first guard
        out_json = tmp_path / "report.json"
        code, out, err = run(capsys, "analyze",
                             str(DATA / "guarded_drift.json"), "--verify",
                             "--seed", "7", "--json", str(out_json))
        golden = DATA / "analyze_guarded_drift_seed7"
        assert code == 0 and err == ""
        assert "36 guard terminations" in out and "over 15 orbits" in out
        assert out.encode() == Path(f"{golden}.stdout").read_bytes()
        assert out_json.read_bytes() == Path(f"{golden}.json").read_bytes()

    def test_n1_verify_report_matches_golden_file(self, capsys):
        # x -> x exp(3.2 - x): the x0 row, x = 1, is the critical point, so
        # its tangent is 0 after one step and the report says so
        code, out, err = run(capsys, "analyze", str(DATA / "ricker_n1.json"),
                             "--verify")
        assert code == 0 and err == ""
        assert "over 50 orbits" in out
        assert "1 of 51 orbits lost the tangent vector" in out
        assert out.encode() == (
            DATA / "analyze_ricker_n1_verify.stdout").read_bytes()

    def test_n3_strict_report_counts_every_orbit(self, capsys, tmp_path):
        out_json = tmp_path / "report.json"
        code, _, err = run(capsys, "analyze",
                           str(DATA / "competitive_lv_n3.json"), "--strict",
                           "--json", str(out_json))
        assert code == 0 and err == ""
        block = json.loads(out_json.read_text())["verify"]
        assert block["lyapunov_statistics"]["orbits"] == 51
        assert block["warnings"] == [] and block["disagreements"] == []

    def test_infinite_interaction_prints_no_lapack_noise(self, capfd,
                                                         tmp_path):
        # B A is a mix of +-inf: T7's invertibility test once handed it to
        # LAPACK, which wrote DLASCL errors to the process's stdout
        path = write_system(
            tmp_path,
            [[1.7e308, 1, -1e308], [1.7e308, 0, 1e308],
             [-1e308, 1e308, 1.7e308]],
            [1, 1e308, 1e308], B=[[0, 1, 2], [2, 0, -1], [-2, -1, 1]])
        code = main(["analyze", path])
        out, err = capfd.readouterr()
        assert code == 0 and err == ""
        assert out.startswith("qpd ") and "DLASCL" not in out

    def test_malformed_json_reports_position(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "broken", "n": 2,\n  "A": [[1, 2], [3, ]]}\n')
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 1
        assert "line 2" in err

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100000],
                             ids=["not-utf8", "nested-too-deeply"])
    def test_unreadable_file_is_one_error_line(self, capsys, tmp_path,
                                               content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        code, out, err = run(capsys, "analyze", str(bad))
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_schema_error(self, capsys, tmp_path):
        doc = json.loads(fixture_path("example1_lv").read_text())
        del doc["A"]
        bad = tmp_path / "incomplete.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 1
        assert "'A'" in err

    @pytest.mark.parametrize("entry", ["1e400", "NaN"])
    def test_non_finite_entry_is_a_schema_error(self, capsys, tmp_path,
                                                entry):
        bad = tmp_path / "overflow.json"
        bad.write_text('{"n": 2, "A": [[%s, 0], [0, -1]], '
                       '"B": [[1, 0], [0, 1]], "lambda": [1, 1]}' % entry)
        code, out, err = run(capsys, "analyze", str(bad))
        assert (code, out) == (1, "")
        assert err == ("error: invalid system definition: A contains NaN or "
                       "infinite entries\n")

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", str(tmp_path / "nowhere.json"))
        assert code == 1

    def test_singular_exponent_matrix_still_reports(self, capsys, tmp_path):
        doc = {
            "name": "singular exponents",
            "n": 2,
            "A": [[-1.0, 0.0], [0.0, -1.0]],
            "B": [[1.0, 2.0], [2.0, 4.0]],
            "lambda": [0.5, 0.5],
        }
        path = tmp_path / "singular.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "analyze", str(path), "--verify")
        assert code == 0
        assert "canonical LV form: unavailable" in out
        assert "T2  not applicable" in out

    @pytest.mark.parametrize("A, lam, label", [
        ([[1e308, 1e308], [1e308, 1e308]], [1e308, 1e308], "B A"),
        ([[-1e-300, 0.0], [0.0, -1e-300]], [1e308, 1e308], "B lam"),
    ], ids=["interaction", "growth"])
    def test_overflowing_invariant_still_reports(self, capsys, tmp_path, A,
                                                 lam, label):
        # A, B and lam are finite, but an invariant of B = 1e308 I is not
        path = write_system(tmp_path, A, lam,
                            B=[[1e308, 0.0], [0.0, 1e308]])
        message = f"class invariant {label} overflows"
        with pytest.raises(NonFinite, match=message):
            canonical_lv(load_system(path))
        out_path = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "analyze", path, "--verify",
                                 "--json", str(out_path))
        assert (code, err) == (0, "")
        assert f"canonical LV form: unavailable ({message})" in out
        assert f"  fixed point: {message}" in out
        assert "theorem battery:" in out and "T7" in out
        report = json.loads(out_path.read_text(), parse_constant=reject)
        assert report["canonical_lv"] == {"error": message}
        assert report["verify"]["fixed_point"] == {"error": message}
        assert report["class_invariants"]["growth"] == ["inf", "inf"]
        assert len(report["theorems"]) == 7

    def test_overflowing_hypothesis_values_are_strict_json(self, capsys,
                                                          tmp_path):
        # B lam = (1e200, 1e200): five hypothesis witnesses overflow
        path = write_system(tmp_path, [[-1.0, 0.0], [0.0, -1.0]], [1.0, 1.0],
                            B=[[1e200, 0.0], [0.0, 1e200]])
        out_path = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, "analyze", path, "--json",
                               str(out_path))
        assert (code, err) == (0, "")
        text = out_path.read_text()
        json.loads(text, parse_constant=reject)
        assert (text.count('"inf"'), text.count('"-inf"')) == (3, 2)

    def test_strict_flags_proxy_disagreement(self, capsys, tmp_path):
        # Permanence holds analytically for this competitive system, but
        # its chaotic excursions dip below the proxy floor: an honest
        # analytic/numeric disagreement under --verify --strict.
        doc = {
            "name": "large uniform growth",
            "n": 2,
            "A": [[-1.0, -0.5], [-0.5, -1.0]],
            "B": [[1.0, 0.0], [0.0, 1.0]],
            "lambda": [6.0, 6.0],
        }
        path = tmp_path / "large_growth.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "analyze", str(path),
                             "--verify", "--strict")
        assert code == 2
        assert "DISAGREEMENT" in out
        code, out, _ = run(capsys, "analyze", str(path), "--verify")
        assert code == 0  # without --strict the disagreement only reports

    def test_strict_implies_verify(self, capsys):
        # the strict check reads the verification pass, so --strict alone
        # runs it and prints what --verify --strict prints
        path = str(fixture_path("example1_lv"))
        code, out, err = run(capsys, "analyze", path, "--strict")
        assert (code, err) == (0, "")
        assert "numerical cross-checks:" in out
        assert out == run(capsys, "analyze", path, "--verify", "--strict")[1]

    def test_fixed_point_past_the_guard_still_reports(self, capsys,
                                                      tmp_path):
        # x* = 1e305: its verifying step exponent, A x* = -10, is fine,
        # but the quasimonomial exponent log x* = 702 passes the guard
        path = write_system(tmp_path, [[-1e-304, 0.0], [0.0, -1e-304]],
                            [10.0, 10.0])
        out_path = tmp_path / "report.json"
        code, out, err = run(capsys, "analyze", path, "--verify", "--strict",
                             "--json", str(out_path))
        assert (code, err) == (0, "")
        assert "  fixed point: step hit the overflow guard" in out
        assert ("  permanence probe: FAIL (tail range undefined (every orbit "
                "lost before the tail), 50 guard terminations)") in out
        assert ("  attractivity probe: skipped (no interior fixed point "
                "available as target)") in out
        block = json.loads(out_path.read_text())["verify"]
        assert block["fixed_point"] == {"error": "step hit the overflow guard"}
        assert block["attractivity"] == {
            "skipped": "no interior fixed point available as target"}

    def test_failed_step_verification_still_reports(self, capsys,
                                                    monkeypatch, tmp_path):
        # no known system's canonical fixed point fails its verifying
        # step, so the step is made to miss x* = (1/3, 1/3) by x* itself
        monkeypatch.setattr(qpd.dynamics, "step", lambda sys, x: 2.0 * x)
        out_path = tmp_path / "report.json"
        code, out, err = run(capsys, "analyze",
                             str(fixture_path("example1_lv")), "--verify",
                             "--json", str(out_path))
        assert (code, err) == (0, "")
        message = ("fixed-point candidate failed step verification "
                   "(residual 3.333e-01)")
        assert f"  fixed point: {message}" in out.splitlines()
        assert ("  attractivity probe: skipped (no interior fixed point "
                "available as target)") in out
        # the rest of the pass runs
        assert "  permanence probe: pass " in out
        assert "  largest Lyapunov estimate: mean " in out
        assert out.endswith("  analytic and numerical verdicts agree\n")
        block = json.loads(out_path.read_text())["verify"]
        assert block["fixed_point"] == {"error": message}
        assert block["lyapunov_statistics"]["orbits"] == 51

    def test_fixed_point_solve_that_misses_still_reports(self, capsys,
                                                         monkeypatch):
        # the canonical solve is made to miss x* = (1/3, 1/3) by 1 in each
        # component, so its residual is |0.5 - 1.5 * 4/3| = 1.5
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda a, b: solve(a, b) + (np.ndim(b) == 1))
        code, out, err = run(capsys, "analyze",
                             str(fixture_path("example1_lv")), "--verify")
        assert (code, err) == (0, "")
        assert ("  fixed point: fixed-point solve residual 1.500e+00 exceeds "
                "tolerance") in out.splitlines()
        assert ("  attractivity probe: skipped (no interior fixed point "
                "available as target)") in out


class TestVerificationBlock:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_one_pass_matches_standalone_probes(self, name):
        system = load_fixture(name)
        target = qp_fixed_point(system)
        for seed in (0, 7, 123456):
            block = build_analysis_report(system, seed=seed,
                                          verify=True)["verify"]
            assert block["permanence"] == empirical_permanence(
                system, seed=seed).to_dict()
            assert block["attractivity"] == empirical_attractivity(
                system, target, tol=VERIFY_ATTRACTIVITY_TOL,
                seed=seed).to_dict()
            # every orbit finishes; on an attractive fixture each one
            # converges to x*, where the exponent is exact
            spread = block["lyapunov_statistics"]
            assert spread["orbits"] == 51
            if name in ATTRACTIVE_FIXTURES:
                assert (abs(block["largest_lyapunov"] - exact_exponent(system))
                        <= 1e-10)
                assert spread["sd"] <= 1e-12
            else:
                assert spread["min"] > 0.0

    def test_lost_ensemble_reports_strict_json(self, capsys, tmp_path):
        # x -> x exp(1 + x / 2) overflows from every initial state
        path = write_system(tmp_path, [[0.5, 0.0], [0.0, 0.5]], [1.0, 1.0])
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "analyze", path, "--verify",
                           "--json", str(out_path))
        assert code == 0
        block = json.loads(out_path.read_text(),
                           parse_constant=reject)["verify"]
        stats = block["permanence"]["statistics"]
        assert (stats["tail_min"], stats["tail_max"]) == (None, None)
        assert stats["guard_terminations"] == 50
        assert ("tail range undefined (every orbit lost before the tail)"
                in out)
        row, t, reason = stats["first_guard"]
        assert block["largest_lyapunov"] == {
            "error": f"no orbit finished: 51 of 51 hit a guard, first orbit "
                     f"{row} at step {t} ({reason}); 0 lost the tangent vector"}
        assert block["lyapunov_statistics"] == {
            "orbits": 0, "sd": None, "stderr": None, "min": None,
            "max": None}


def crafted_pass(permanence, attractivity, lyapunov, spectral_radius=None):
    """A stand-in for ``verification_pass`` with the given outcomes."""
    def fake(system, target, seed):
        def verdict(kind, passed, statistics):
            return EmpiricalVerdict(kind, passed, 50, 2000, seed, statistics,
                                    {"tol": VERIFY_ATTRACTIVITY_TOL})
        return VerificationPass(
            verdict("permanence", permanence,
                    {"tail_min": 1e-9, "tail_max": 2.0,
                     "guard_terminations": 0}),
            verdict("attractivity", attractivity,
                    {"max_final_distance": 0.5}),
            lyapunov, None,
            {"orbits": 51, "sd": 0.0, "stderr": 0.0, "min": lyapunov,
             "max": lyapunov}, {}, spectral_radius, 0)
    return fake


#: A cooperative LV system: T1 (not permanent) applies.
COOPERATIVE = ([[-1.0, 0.5], [0.5, -1.0]], [0.5, 0.5])


class TestDisagreements:
    @pytest.mark.parametrize("system, outcomes, expected", [
        ("example1_lv", (False, True, -0.1),
         ["T2 concludes permanence but the ensemble left the proxy box"]),
        (COOPERATIVE, (True, True, -0.1),
         ["T1 concludes non-permanence but the ensemble stayed inside"]),
        ("example1_lv", (True, False, -0.1),
         ["an attractivity theorem applies but the ensemble did not "
          "converge"]),
        ("example2_predator_prey", (True, True, 0.25),
         ["an attractivity theorem applies but the largest Lyapunov "
          "estimate is positive (0.25)"]),
        ("example1_lv", (False, False, 0.25),
         ["T2 concludes", "did not converge", "is positive (0.25)"]),
    ], ids=["T2-permanence", "T1-permanence", "attractivity", "lyapunov",
            "three-at-once"])
    def test_each_disagreement_exits_2_under_strict(
            self, capsys, tmp_path, monkeypatch, system, outcomes, expected):
        monkeypatch.setattr(qpd.cli, "verification_pass",
                            crafted_pass(*outcomes))
        path = (str(fixture_path(system)) if isinstance(system, str)
                else write_system(tmp_path, *system))
        code, out, err = run(capsys, "analyze", path, "--verify", "--strict")
        assert code == 2
        assert err == ("exiting with status 2: analytic/numeric "
                       "disagreement\n")
        flagged = [line for line in out.splitlines() if "DISAGREEMENT" in line]
        assert len(flagged) == len(expected)
        for line, text in zip(flagged, expected):
            assert text in line
        assert "verdicts agree" not in out
        code, _, err = run(capsys, "analyze", path, "--verify")
        assert (code, err) == (0, "")

    def test_t7_with_nonpositive_lyapunov_only_warns(self, capsys,
                                                    monkeypatch):
        monkeypatch.setattr(qpd.cli, "verification_pass",
                            crafted_pass(True, True, -0.05))
        code, out, err = run(capsys, "analyze",
                             str(fixture_path("example3_qp_rho32")),
                             "--verify", "--strict")
        assert (code, err) == (0, "")
        assert ("  warning: T7 certifies chaos but the mean Lyapunov "
                "estimate over the ensemble is nonpositive (-0.05)") in out
        assert "analytic and numerical verdicts agree" in out


#: Competitive with uniform growth 3, between the two chaos thresholds:
#: T7 applies as ChaoticMarotto, and the ensemble exponent is about 0.39.
MAROTTO = ([[-1.0, -0.2], [-0.2, -1.0]], [3.0, 3.0])

#: The crafted pass's permanence and attractivity statistics as the
#: messages print them.
PERMANENCE_STATS = ("{'tail_min': 1e-09, 'tail_max': 2.0, "
                    "'guard_terminations': 0}")
ATTRACTIVITY_STATS = "{'max_final_distance': 0.5}"


def claim_id(value):
    return value.value if isinstance(value, Conclusion) else None


class TestFalsificationsFollowTheClaim:
    # "T9" is no theorem of the battery, so a rule that fires for it was
    # chosen by the claim and names the verdict it checked
    @pytest.mark.parametrize("claim, outcomes, disagreements, warnings", [
        (Conclusion.PERMANENT, (False, True, -0.1),
         ["T9 concludes permanence but the ensemble left the proxy box "
          f"(statistics: {PERMANENCE_STATS})"], []),
        (Conclusion.NOT_PERMANENT, (True, True, -0.1),
         ["T9 concludes non-permanence but the ensemble stayed inside the "
          "proxy box"], []),
        (Conclusion.GLOBALLY_ATTRACTIVE, (True, False, 0.25),
         ["an attractivity theorem applies but the ensemble did not "
          f"converge (statistics: {ATTRACTIVITY_STATS})",
          "an attractivity theorem applies but the largest Lyapunov "
          "estimate is positive (0.25)"], []),
        (Conclusion.CHAOTIC_MAROTTO, (True, True, -0.05), [],
         ["T9 certifies chaos but the mean Lyapunov estimate over the "
          "ensemble is nonpositive (-0.05); the chaotic set need not be "
          "attracting"]),
        (Conclusion.CHAOTIC_DIAMOND, (False, False, -0.05), [],
         ["T9 certifies chaos but the mean Lyapunov estimate over the "
          "ensemble is nonpositive (-0.05); the chaotic set need not be "
          "attracting"]),
        (Conclusion.GLOBAL_ATTRACTOR_EXISTS, (False, False, 0.25), [], []),
        (Conclusion.DISSIPATIVE, (False, False, 0.25), [], []),
    ], ids=claim_id)
    def test_rule_is_chosen_by_the_claim(self, claim, outcomes,
                                         disagreements, warnings):
        checks = crafted_pass(*outcomes)(None, None, 0)
        verdict = TheoremVerdict("T9", claim, ())
        assert falsifications([verdict], checks) == (disagreements, warnings)

    @pytest.mark.parametrize("claim, outcomes", [
        (Conclusion.PERMANENT, (False, True, -0.1)),
        (Conclusion.NOT_PERMANENT, (True, True, -0.1)),
        (Conclusion.GLOBALLY_ATTRACTIVE, (True, False, 0.25)),
        (Conclusion.CHAOTIC_MAROTTO, (True, True, -0.05)),
    ], ids=claim_id)
    def test_inapplicable_verdict_is_not_checked(self, claim, outcomes):
        checks = crafted_pass(*outcomes)(None, None, 0)
        failed = (HypothesisCheck("stand-in hypothesis", False, {}),)
        verdict = TheoremVerdict("T9", claim, failed)
        assert falsifications([verdict], checks) == ([], [])

    @pytest.mark.parametrize("radius, fires", [
        (2.2, True),
        (1.0 + 2 * DEFAULT_SIGN_TOL, True),
        (1.0 + DEFAULT_SIGN_TOL, False),
        (1.0, False),
        (0.833, False),
        (None, False),
    ])
    def test_unstable_fixed_point_falsifies_attractivity(self, radius, fires):
        # every other probe agrees, so only the linearization can fire
        checks = crafted_pass(True, True, -0.1, radius)(None, None, 0)
        attractive = TheoremVerdict("T9", Conclusion.GLOBALLY_ATTRACTIVE, ())
        expected = ["an attractivity theorem applies but the fixed point is "
                    "linearly unstable (spectral radius of J(x*) = "
                    f"{radius:.12g})"] if fires else []
        # two attractive verdicts still make one disagreement
        assert falsifications([attractive, attractive], checks) == (
            expected, [])
        for claim in Conclusion:
            if claim is not Conclusion.GLOBALLY_ATTRACTIVE:
                verdict = TheoremVerdict("T9", claim, ())
                disagreements, _ = falsifications([verdict], checks)
                assert not any("linearly unstable" in d for d in disagreements)
        failed = (HypothesisCheck("stand-in hypothesis", False, {}),)
        inapplicable = TheoremVerdict("T9", Conclusion.GLOBALLY_ATTRACTIVE,
                                      failed)
        assert falsifications([inapplicable], checks) == ([], [])

    @pytest.mark.parametrize("lyapunov, flagged", [
        (-36.7368005697, True),
        (LYAPUNOV_ROUNDING_FLOOR, True),
        (-36.0, False),
        (-0.1, False),
    ])
    def test_rounding_floor_is_flagged_whatever_the_claim(self, lyapunov,
                                                          flagged):
        checks = crafted_pass(True, True, lyapunov)(None, None, 0)
        for claim in (Conclusion.GLOBALLY_ATTRACTIVE, Conclusion.DISSIPATIVE):
            verdict = TheoremVerdict("T9", claim, ())
            disagreements, warnings = falsifications([verdict], checks)
            assert disagreements == []
            assert len(warnings) == flagged
            if flagged:
                assert warnings[0].startswith(
                    f"the largest Lyapunov estimate of every orbit is at most "
                    f"{lyapunov:.6g}, at the double-precision rounding floor "
                    "log(2^-52) = -36.04; it is not a measurement")

    def test_superattracting_point_reports_the_floor(self, capsys, tmp_path):
        # x -> x exp(1 - x) componentwise: J(x*) = 0 at x* = (1, 1), and the
        # orbits that finish settle one ulp off x*; the other 41 land on x*
        # exactly, where the tangent collapses to 0
        path = write_system(tmp_path, [[-1.0, 0.0], [0.0, -1.0]], [1.0, 1.0])
        out_path = tmp_path / "report.json"
        code, out, err = run(capsys, "analyze", path, "--verify", "--strict",
                             "--seed", "7", "--json", str(out_path))
        assert (code, err) == (0, "")
        block = json.loads(out_path.read_text())["verify"]
        spread = block["lyapunov_statistics"]
        assert (spread["orbits"], spread["sd"]) == (10, 0.0)
        assert spread["max"] == pytest.approx(-36.7368, abs=1e-4)
        assert block["disagreements"] == []
        floor, lost = block["warnings"]
        assert "at the double-precision rounding floor" in floor
        assert lost.startswith("41 of 51 orbits lost the tangent vector")
        assert [f"  warning: {floor}", f"  warning: {lost}"] == [
            line for line in out.splitlines() if line.startswith("  warning")]

    @pytest.mark.parametrize("system, lines", [
        (COOPERATIVE, ["   T1  applicable      NotPermanent",
                       "  permanence probe: FAIL "]),
        (MAROTTO, ["   T2  applicable      Permanent",
                   "   T7  applicable      ChaoticMarotto",
                   "  permanence probe: pass "]),
    ], ids=["T1-cooperative", "T7-marotto"])
    def test_rows_no_fixture_exercises_agree_end_to_end(
            self, capsys, tmp_path, system, lines):
        path = write_system(tmp_path, *system)
        for seed in ("0", "7", "123456"):
            code, out, err = run(capsys, "analyze", path, "--verify",
                                 "--strict", "--seed", seed)
            assert (code, err) == (0, "")
            assert "analytic and numerical verdicts agree" in out
            assert "warning:" not in out
            for line in lines:
                assert any(row.startswith(line) for row in out.splitlines())


class TestVerifyProtocol:
    def test_report_echoes_the_documented_protocol(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "analyze", str(fixture_path("example1_lv")),
                         "--verify", "--seed", "7", "--json", str(out_path))
        assert code == 0
        block = json.loads(out_path.read_text())["verify"]
        permanence, attractivity = block["permanence"], block["attractivity"]
        assert (permanence["ensemble_size"], permanence["horizon"],
                permanence["seed"]) == (50, 5000, 7)
        assert permanence["params"] == {
            "tail_fraction": 0.2, "floor": 1e-6, "ceiling": 1e6,
            "ic_low": 1e-2, "ic_high": 1e2}
        assert (attractivity["ensemble_size"], attractivity["horizon"],
                attractivity["seed"]) == (50, 2000, 7)
        params = dict(attractivity["params"])
        assert params.pop("target") == block["fixed_point"]
        assert params == {"tol": 1e-4, "ic_low": 1e-2, "ic_high": 1e2}
        assert block["lyapunov_params"] == {
            "orbits": 51, "x0": [1.0, 1.0], "transient": 1000,
            "samples": 4000, "seed": 7}


class TestSimulate:
    def test_writes_trajectory(self, capsys, tmp_path):
        out_csv = tmp_path / "orbit.csv"
        code, out, _ = run(capsys, "simulate",
                           str(fixture_path("example1_lv")),
                           "--x0", "1,1", "--steps", "500",
                           "--out", str(out_csv))
        assert code == 0
        assert "guard events: none" in out
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "t,x_1,x_2"
        final = np.array([float(v) for v in lines[-1].split(",")[1:]])
        assert np.linalg.norm(final - np.array([1.0 / 3.0, 1.0 / 3.0])) <= 1e-6

    def test_replayed_orbit_matches_golden_file(self, capsys, tmp_path,
                                                monkeypatch):
        # the orbit of (1, 1) repeats within its first block, so the other
        # 1936 steps are recorded from the stored cycle; the golden file
        # was written by an engine that stepped all 2000 steps
        steps = counted_kernel(monkeypatch)
        out_csv = tmp_path / "orbit.csv"
        code, out, _ = run(capsys, "simulate",
                           str(fixture_path("example1_lv")),
                           "--x0", "1,1", "--steps", "2000",
                           "--out", str(out_csv))
        assert code == 0 and "guard events: none" in out
        assert len(steps) == 64
        golden = DATA / "simulate_example1_lv_2000.csv"
        assert out_csv.read_bytes() == golden.read_bytes()

    def test_rejects_nonpositive_initial_condition(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate",
                           str(fixture_path("example1_lv")),
                           "--x0", "0,1", "--steps", "10",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "bad initial condition" in err

    def test_dimension_mismatch_is_one_line_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "simulate",
                             str(fixture_path("example1_lv")),
                             "--x0", "1,1,1", "--steps", "3",
                             "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "length 2" in err

    def test_long_state_error_stays_on_one_line(self, capsys, tmp_path):
        n = 12
        doc = {"name": "wide", "n": n, "A": (-np.eye(n)).tolist(),
               "B": np.eye(n).tolist(), "lambda": [0.5] * n}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        x0 = ",".join(["0.123456789"] * (n - 1) + ["-0.123456789"])
        code, _, err = run(capsys, "simulate", str(path), "--x0", x0,
                           "--steps", "3", "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "bad initial condition" in err and err.count("\n") == 1

    def test_rejects_zero_steps(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate",
                           str(fixture_path("example1_lv")),
                           "--x0", "1,1", "--steps", "0",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "--steps" in err

    @pytest.mark.parametrize("A, lam, line, steps", [
        # x: 1 -> e^2 -> 3.3e4, whose exponent 1 + 3.3e4 is refused
        ([[1.0]], [1.0], "guard events: overflow guard at step 2", 2),
        # the first exponent is -801
        ([[-1.0]], [-800.0], "guard events: underflow guard at step 0", 0),
    ])
    def test_reports_the_guard_event(self, capsys, tmp_path, A, lam, line,
                                     steps):
        out_csv = tmp_path / "orbit.csv"
        code, out, _ = run(capsys, "simulate", write_system(tmp_path, A, lam),
                           "--x0", "1", "--steps", "10", "--out", str(out_csv))
        assert code == 0
        assert f"simulated {steps} of 10 steps" in out
        assert line in out.splitlines()
        assert len(out_csv.read_text().splitlines()) == steps + 2

    def test_unparsable_x0(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate",
                           str(fixture_path("example1_lv")),
                           "--x0", "one,two", "--steps", "5",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "--x0" in err


class TestScan:
    def test_summary_and_csv(self, capsys, tmp_path):
        out_csv = tmp_path / "scan.csv"
        code, out, _ = run(capsys, "scan", "--kind", "snapback",
                           "--rho-min", "2.8", "--rho-max", "3.0",
                           "--step", "0.05", "--out", str(out_csv))
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["kind"] == "snapback"
        assert summary["detected"] is True
        assert summary["reference"] == 2.89
        assert 2.8 <= summary["threshold"] <= 3.0
        assert out_csv.read_text().startswith("rho,detected,detail")

    def test_no_detection_is_reported_not_raised(self, capsys, tmp_path):
        code, out, _ = run(capsys, "scan", "--kind", "period3",
                           "--rho-min", "1.0", "--rho-max", "2.0",
                           "--step", "0.25",
                           "--out", str(tmp_path / "scan.csv"))
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["detected"] is False
        assert summary["threshold"] is None
        rows = (tmp_path / "scan.csv").read_text().splitlines()
        assert rows[0] == "rho,detected,detail"
        assert [row.split(",")[:2] for row in rows[1:]] == [
            ["1", "0"], ["1.25", "0"], ["1.5", "0"], ["1.75", "0"], ["2", "0"]]

    def test_period3_scan_at_large_growth(self, capsys):
        # xi once rejected the harmless underflow of exp(rho - x) at large x
        code, out, _ = run(capsys, "scan", "--kind", "period3",
                           "--rho-min", "7", "--rho-max", "9",
                           "--step", "0.5")
        assert code == 0
        assert json.loads(out.strip().splitlines()[-1])["detected"] is True

    @pytest.mark.parametrize("kind", ["period3", "snapback"])
    def test_output_matches_golden_files(self, capsys, tmp_path, kind):
        # identical inputs must keep giving byte-identical output; the
        # period-3 CSV's cycles come from the inverse-branch iteration,
        # the rest predates the closed-form preimages
        out_csv = tmp_path / "scan.csv"
        code, out, err = run(capsys, "scan", "--kind", kind,
                             "--rho-min", "2.5", "--rho-max", "3.5",
                             "--step", "0.01", "--out", str(out_csv))
        golden = DATA / f"scan_{kind}_2.5_3.5_0.01"
        assert code == 0 and err == ""
        assert out.encode() == Path(f"{golden}.stdout").read_bytes()
        assert out_csv.read_bytes() == Path(f"{golden}.csv").read_bytes()

    @pytest.mark.parametrize("kind", ["period3", "snapback"])
    def test_growth_rate_beyond_guard_is_one_error_line(self, capsys, kind):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "scan", "--kind", kind,
                                 "--rho-min", "740", "--rho-max", "760",
                                 "--step", "10")
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: growth rate rho = 740.0 exceeds")

    def test_invalid_range(self, capsys):
        code, _, err = run(capsys, "scan", "--kind", "period3",
                           "--rho-min", "3.0", "--rho-max", "2.0",
                           "--step", "0.1")
        assert code == 1
        assert "rho-min" in err


class TestConjugacy:
    def test_fixture_within_budget(self, capsys):
        code, out, _ = run(capsys, "conjugacy",
                           str(fixture_path("example1_lv")),
                           "--seed", "3", "--trials", "10", "--steps", "50")
        assert code == 0
        assert "all trials within budget" in out

    def test_zero_trials_vacuous_pass(self, capsys):
        code, out, _ = run(capsys, "conjugacy",
                           str(fixture_path("example1_lv")),
                           "--trials", "0")
        assert code == 0
        assert "vacuous" in out

    def test_output_matches_golden_file(self, capsys):
        args = ("conjugacy", str(fixture_path("example1_lv")),
                "--seed", "1", "--trials", "20", "--steps", "50")
        code, out, err = run(capsys, *args)
        assert (code, err) == (0, "")
        golden = DATA / "conjugacy_example1_lv_seed1.stdout"
        assert out.encode() == golden.read_bytes()
        assert run(capsys, *args)[1] == out

    def test_overflowing_invariant_is_refused(self, capsys, tmp_path):
        # A, B and lam are finite, but B A of B = 1e308 I is not: no
        # transformation can be checked against it, so no trial is drawn
        path = write_system(tmp_path, [[1e308, 1e308], [1e308, 1e308]],
                            [1e308, 1e308], B=[[1e308, 0.0], [0.0, 1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "conjugacy", path, "--trials", "3",
                                 "--steps", "5")
        assert (code, out) == (1, "")
        assert err == "error: class invariant B A overflows\n"

    def test_drift_budget_scales_with_the_invariants(self, capsys, tmp_path):
        # example1_qp_rho05 with A and lam scaled by 1e8: invariants of
        # about 1e8 round to about 1e-8 in each transformed system, past
        # an absolute budget of 1e-9 in 18 of these 20 trials
        system = load_fixture("example1_qp_rho05")
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(QPSystem(
            1e8 * system.A, system.B, 1e8 * system.lam).to_dict()))
        code, out, _ = run(capsys, "conjugacy", str(path), "--seed", "1",
                           "--trials", "20", "--steps", "50")
        assert not [line for line in failure_lines(out)
                    if "invariant drift" in line]
        inv = qpd.transform.class_invariants(load_system(path))
        budget = 1e-9 * max(np.abs(inv.interaction).max(),
                            np.abs(inv.growth).max())
        assert budget > 0.01
        drift, = [line for line in out.splitlines()
                  if line.startswith("max invariant drift: ")]
        assert drift.endswith(f" (budget {budget:g})")

    def test_chaotic_fixture_within_budget_at_long_horizon(self, capsys):
        # a positive Lyapunov exponent amplifies roundoff along an orbit,
        # but the one-step identity is checked state by state, so 500
        # steps of the chaotic example3 stay at rounding
        code, out, _ = run(capsys, "conjugacy",
                           str(fixture_path("example3_qp_rho32")),
                           "--seed", "1", "--trials", "20", "--steps", "500")
        assert code == 0
        assert out.endswith("all trials within budget\n")


class TestCycleReplayChangesNoOutput:
    # a replayed step is read from the copies, and its logged tangent norm
    # added in step order, with the bits that stepping would have made, so
    # every output is that of a run that never searches for a cycle; the
    # four attracting fixtures replay, example3, ricker_n1 and the guarded
    # drift do not
    @pytest.mark.parametrize("args", [
        ("conjugacy", str(DATA / "stable_lv_image_n6.json"), "--seed", "1",
         "--trials", "20", "--steps", "500"),
        *[("analyze", str(path), "--verify", "--seed", seed)
          for path in [*map(fixture_path, FIXTURE_NAMES),
                       DATA / "ricker_n1.json", DATA / "guarded_drift.json"]
          for seed in ("0", "7")],
    ], ids=lambda args: "-".join(Path(arg).stem for arg in args
                                 if not arg.startswith("--")))
    def test_output_is_that_of_the_stepped_run(self, capsys, monkeypatch,
                                               tmp_path, args):
        report = tmp_path / "report.json"
        extra = ("--json", str(report)) if args[0] == "analyze" else ()

        def outputs():
            code, out, err = run(capsys, *args, *extra)
            return code, out, err, report.read_bytes() if extra else None

        replayed = outputs()
        monkeypatch.setattr(qpd.systems, "_cycle", lambda *args: None)
        assert outputs() == replayed
        assert replayed[0] == 0


def strict_form(value):
    """A report as ``json`` encodes it strictly: each non-finite float
    spelled "inf", "-inf" or "nan", tuples as lists."""
    if isinstance(value, float) and not np.isfinite(value):
        return f"{value}"
    if isinstance(value, dict):
        return {key: strict_form(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [strict_form(v) for v in value]
    return value


def dumped(value):
    return json.dumps(strict_form(value), indent=2, allow_nan=False)


#: JSON-ready values: nested dicts and lists, empty ones included, of
#: non-ASCII and escaped strings, bools, ints and floats, non-finite too
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=30)


class TestReportWriter:
    # --json writes the report in one pass, with the bytes of json.dumps
    # at indent 2 of its strict form
    @pytest.mark.parametrize("seed", ["0", "7"])
    @pytest.mark.parametrize("path", [
        *map(fixture_path, FIXTURE_NAMES), DATA / "guarded_drift.json",
        DATA / "ricker_n1.json", DATA / "competitive_lv_n3.json"],
        ids=lambda path: path.stem)
    def test_verify_report_is_json_dumps(self, capsys, tmp_path, path, seed):
        out_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "analyze", str(path), "--verify", "--seed",
                         seed, "--json", str(out_path))
        assert code == 0
        report = build_analysis_report(load_system(path), seed=int(seed),
                                       verify=True)
        assert out_path.read_text() == dumped(report) + "\n"

    @pytest.mark.parametrize("A, B, spelled", [
        # B lam = (1e200, 1e200): five hypothesis witnesses overflow
        ([[-1.0, 0.0], [0.0, -1.0]], [[1e200, 0.0], [0.0, 1e200]], '"inf"'),
        # x -> x exp(1 + x / 2): every orbit is lost, its statistics null
        ([[0.5, 0.0], [0.0, 0.5]], None, '"tail_min": null'),
    ], ids=["overflowing-hypotheses", "lost-ensemble"])
    def test_non_finite_and_null_values(self, capsys, tmp_path, A, B,
                                        spelled):
        path = write_system(tmp_path, A, [1.0, 1.0], B)
        out_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "analyze", path, "--verify", "--json",
                         str(out_path))
        assert code == 0
        text = out_path.read_text()
        assert spelled in text
        report = build_analysis_report(load_system(path), verify=True)
        assert text == dumped(report) + "\n"

    @PROPERTIES
    @given(JSON_VALUES)
    def test_any_json_value(self, value):
        assert qpd.cli._json_text(value) == dumped(value)

    @pytest.mark.parametrize("value", [
        object(), np.int64(1), {1.5}, b"bytes", {"key": [np.bool_(True)]},
        {1: "a key that is not a str"}], ids=[
        "object", "numpy-int", "set", "bytes", "nested-numpy-bool", "int-key"])
    def test_other_values_raise_type_error(self, value):
        with pytest.raises(TypeError):
            qpd.cli._json_text(value)


class QueuedDraws:
    """A generator whose first raw doubles are given, as the ``uniform``
    draws of ``conjugacy``: candidates C from ``uniform(-1, 1)``, each
    accepted one followed by its x0's exponents from ``uniform(log 1/2,
    log 2)``.  A draw u in [lo, hi) is queued as the raw double (u - lo)
    / (hi - lo), from which ``lo + (hi - lo) * r`` gives u back; a raw
    double may lie outside [0, 1), so u may lie outside [lo, hi)."""

    X0_RANGE = (np.log(0.5), np.log(2.0))

    def __init__(self, draws):
        self.raw = []
        for u, (lo, hi) in draws:
            self.raw += list((np.ravel(u) - lo) / (hi - lo))
        self.rng = np.random.default_rng(0)

    def random(self, size):
        queued, self.raw = self.raw[:size], self.raw[size:]
        return np.concatenate([queued, self.rng.random(size - len(queued))])


def candidate(C):
    return C, (-1.0, 1.0)


def exponents(u):
    return u, QueuedDraws.X0_RANGE


def failure_lines(out):
    return [line for line in out.splitlines() if line.startswith("***")]


class TestConjugacyFailures:
    def test_regenerated_candidates_are_reported(self, capsys, monkeypatch):
        draws = QueuedDraws([candidate(np.ones((2, 2))),
                             candidate(np.diag([1.0, 1e-3]))])
        monkeypatch.setattr(qpd.cli, "seeded_generator", lambda seed: draws)
        code, out, _ = run(capsys, "conjugacy",
                           str(fixture_path("example1_lv")), "--trials", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[:2] == [
            "trial 0: regenerated a singular candidate C",
            "trial 0: regenerated a near-singular candidate C "
            "(condition 1e+03)"]
        assert "rejected candidates: 2" in lines
        assert lines[-1] == "all trials within budget"

    @staticmethod
    def run_runaway(capsys, monkeypatch, tmp_path, trials, runaway):
        """``conjugacy --steps 20`` on a system whose x_1 gains e^40 a step,
        with queued draws: trial t starts at x_1 = 1, whose image
        overflows out of step 17, when t is in ``runaway``, else at
        x_1 = e^-600, which stays finite for 20 steps."""
        path = write_system(tmp_path, np.zeros((2, 2)).tolist(), [40.0, -1.0])
        C = np.diag([1.0, 2.0])
        draws = []
        for t in range(trials):
            draws += [candidate(C), exponents(
                np.zeros(2) if t in runaway else np.array([-600.0, 0.0]))]
        monkeypatch.setattr(qpd.cli, "seeded_generator",
                            lambda seed: QueuedDraws(draws))
        return run(capsys, "conjugacy", path, "--trials", str(trials),
                   "--steps", "20")

    def test_terminated_orbit_is_a_failure(self, capsys, monkeypatch,
                                           tmp_path):
        code, out, _ = self.run_runaway(capsys, monkeypatch, tmp_path, 3, {1})
        assert code == 2
        assert failure_lines(out) == [
            "*** trial 1: direct orbit: step 17 hit the overflow guard"]
        assert "all trials within budget" not in out

    def test_guards_in_several_blocks_name_their_trials(self, capsys,
                                                        monkeypatch, tmp_path):
        # one run of 130 trials in blocks of 5 steps of 3 m n = 780
        # doubles
        monkeypatch.setattr(qpd.systems, "BLOCK_DOUBLES", 5 * 780)
        code, out, _ = self.run_runaway(capsys, monkeypatch, tmp_path, 130,
                                        {1, 70, 129})
        assert code == 2
        assert failure_lines(out) == [
            f"*** trial {t}: direct orbit: step 17 hit the overflow guard"
            for t in (1, 70, 129)]

    def test_every_trial_guarded_leaves_deviation_undefined(
            self, capsys, monkeypatch, tmp_path):
        code, out, _ = self.run_runaway(capsys, monkeypatch, tmp_path, 3,
                                        {0, 1, 2})
        assert code == 2
        assert "max one-step defect: undefined (budget 1.000e-07)" in out
        assert failure_lines(out) == [
            f"*** trial {t}: direct orbit: step 17 hit the overflow guard"
            for t in range(3)]

    def test_storage_capped_blocks_give_the_same_report(self, capsys,
                                                         monkeypatch):
        args = ("conjugacy", str(fixture_path("example1_lv")),
                "--seed", "1", "--trials", "20", "--steps", "50")
        whole = run(capsys, *args)
        # fewer than 3 m n = 120 doubles, a step of the run: blocks of
        # one step
        monkeypatch.setattr(qpd.systems, "BLOCK_DOUBLES", 102)
        assert run(capsys, *args) == whole
        assert whole[0] == 0
        assert whole[1].endswith("all trials within budget\n")

    @staticmethod
    def run_with_image_of_trial_3(capsys, monkeypatch, image_of):
        """``conjugacy --seed 1 --trials 6`` on example1_lv with trial 3's
        transformed system replaced by ``image_of(system, qmt)`` in the
        stack of the trials' images."""
        def replaced(system, qmts):
            assert len(qmts) == 6  # one lockstep run holds every trial
            images = apply_qmts(system, qmts)
            image = image_of(system, qmts[3])
            for stacked, own in zip(images, (image.A, image.B, image.lam)):
                stacked[3] = own
            return images

        monkeypatch.setattr(qpd.dynamics, "apply_qmts", replaced)
        code, out, _ = run(capsys, "conjugacy",
                           str(fixture_path("example1_lv")),
                           "--seed", "1", "--trials", "6", "--steps", "50")
        assert code == 2
        return failure_lines(out)

    @pytest.mark.parametrize("field", ["lam", "A"])
    def test_perturbed_conjugate_system_is_a_failure(self, capsys,
                                                     monkeypatch, field):
        # trial 3's transformed system is off by 1e-6 relative: its
        # invariants drift, and the same system fails the one-step check
        def perturbed(system, qmt):
            image = apply_qmt(system, qmt)
            parts = {"A": image.A, "B": image.B, "lam": image.lam}
            parts[field] = parts[field] * (1.0 + 1e-6)
            return QPSystem(**parts)

        failures = self.run_with_image_of_trial_3(capsys, monkeypatch,
                                                  perturbed)
        assert len(failures) == 2
        assert failures[0].startswith("*** trial 3: invariant drift ")
        assert float(failures[0].rsplit(" ", 1)[1]) > 1e-9
        assert failures[1].startswith("*** trial 3: one-step defect ")
        assert failures[1].endswith(" exceeds budget 1.000e-07")
        assert float(failures[1].split()[5]) > 1e-7

    def test_image_under_another_transformation_fails_only_the_step(
            self, capsys, monkeypatch):
        # the image under C (1 + 1e-6) keeps the invariants to rounding,
        # but it is not the system that C conjugates to
        def misscaled(system, qmt):
            return apply_qmt(system, QMTMatrix.from_matrix(qmt.C * (1 + 1e-6)))

        failures = self.run_with_image_of_trial_3(capsys, monkeypatch,
                                                  misscaled)
        assert len(failures) == 1
        assert failures[0].startswith("*** trial 3: one-step defect ")
        assert float(failures[0].split()[5]) > 1e-7

    def test_invariant_drift_is_a_failure(self, capsys, monkeypatch):
        def drifting(system, qmts):
            A, B, lam = apply_qmts(system, qmts)
            return QPStack(A, B, lam + 1e-6)

        monkeypatch.setattr(qpd.dynamics, "apply_qmts", drifting)
        code, out, _ = run(capsys, "conjugacy",
                           str(fixture_path("example1_lv")), "--trials", "1")
        assert code == 2
        # the drifting system is the one that the check steps, too
        failures = failure_lines(out)
        assert len(failures) == 2
        assert failures[0].startswith("*** trial 0: invariant drift ")
        assert float(failures[0].rsplit(" ", 1)[1]) > 1e-9
        assert failures[1].startswith("*** trial 0: one-step defect ")

    def test_each_trial_transforms_the_system_once(self, capsys,
                                                   monkeypatch):
        # apply_qmt transforms through apply_qmts too
        calls, original = [], qpd.transform.apply_qmts

        def counted(system, qmts):
            calls.extend(qmts)
            return original(system, qmts)

        for module in list(sys.modules.values()):
            if getattr(module, "apply_qmts", None) is original:
                monkeypatch.setattr(module, "apply_qmts", counted)
        code, _, _ = run(capsys, "conjugacy",
                         str(fixture_path("example1_lv")),
                         "--seed", "1", "--trials", "20")
        assert code == 0
        assert len(calls) == 20
        assert len({id(qmt) for qmt in calls}) == 20

    def test_overflowing_transformed_system_is_an_error(self, capsys,
                                                         tmp_path):
        # the invariants B A = diag(1e298, -1e298) are finite, but C^-1 A
        # overflows for the drawn C
        path = write_system(tmp_path, [[1e308, 0.0], [0.0, -1e308]],
                            [0.5, 0.5], B=[[1e-10, 0.0], [0.0, 1e-10]])
        code, _, err = run(capsys, "conjugacy", path, "--seed", "1")
        assert code == 1
        assert err == "error: transformed A contains NaN or infinite entries\n"


class TestConjugacyHorizon:
    def test_a_horizon_beyond_any_record_is_checked(self, capsys):
        # nothing is recorded, so such a horizon is not refused:
        # example1_lv's orbit repeats at once, and the check stops there
        path = str(fixture_path("example1_lv"))

        def measured(steps):
            code, out, err = run(capsys, "conjugacy", path, "--seed", "1",
                                 "--trials", "1", "--steps", steps)
            assert (code, err) == (0, "")
            lines = out.splitlines()
            return lines[lines.index(f"conjugacy check: 1 trials, {steps} "
                                     "steps, seed 1") + 1:]

        huge = measured("100000000000000")
        assert huge == measured("5000")
        assert [line.split(":")[0] for line in huge] == [
            "rejected candidates", "max one-step defect",
            "max invariant drift", "all trials within budget"]


def serial_draw(rng, n, trials):
    """The conjugacy draw one candidate at a time, the reference for the
    stacked one: each trial draws ``uniform(-1, 1, (n, n))`` candidates
    until ``QMTMatrix.from_matrix`` accepts one of condition at most
    CONJUGACY_MAX_CONDITION, then its x0."""
    qmts, X0, rejected = [], [], 0
    for trial in range(trials):
        while True:
            C = rng.uniform(-1.0, 1.0, size=(n, n))
            try:
                qmt = QMTMatrix.from_matrix(C)
            except SingularMatrix:
                rejected += 1
                print(f"trial {trial}: regenerated a singular candidate C")
                continue
            condition = qmt.condition()
            if condition <= qpd.cli.CONJUGACY_MAX_CONDITION:
                break
            rejected += 1
            print(f"trial {trial}: regenerated a near-singular candidate C "
                  f"(condition {condition:.3g})")
        qmts.append(qmt)
        X0.append(np.exp(rng.uniform(np.log(0.5), np.log(2.0), size=n)))
    return qmts, np.array(X0), rejected


class TestStackedDraw:
    @staticmethod
    def drawn(capsys, draw, seed, n, trials):
        """The bytes of every C, C^-1 and x0, the rejected count and the
        printed lines of a draw."""
        qmts, X0, rejected = draw(np.random.default_rng(seed), n, trials)
        return ([qmt.C.tobytes() for qmt in qmts],
                [qmt.C_inv.tobytes() for qmt in qmts],
                X0.tobytes(), X0.shape, rejected, capsys.readouterr().out)

    @pytest.mark.parametrize("trials", [1, 7, 20, 130])
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 10])
    def test_draw_is_the_serial_draw(self, capsys, n, trials):
        for seed in range(50):
            assert (self.drawn(capsys, qpd.cli._draw_trials, seed, n, trials)
                    == self.drawn(capsys, serial_draw, seed, n, trials))

    @pytest.mark.parametrize("n", [2, 6])
    def test_rounds_capped_by_storage_are_the_serial_draw(
            self, capsys, monkeypatch, n):
        # room for 3 candidates with their x0 a round
        monkeypatch.setattr(qpd.systems, "BLOCK_DOUBLES", 3 * (n * n + n) + 1)
        rounds, invertibility = [], qpd.cli.invertibility

        def spy(M):
            rounds.append(len(M))
            return invertibility(M)

        monkeypatch.setattr(qpd.cli, "invertibility", spy)
        for seed in range(10):
            assert (self.drawn(capsys, qpd.cli._draw_trials, seed, n, 20)
                    == self.drawn(capsys, serial_draw, seed, n, 20))
        assert max(rounds) == 3 and len(rounds) >= 10 * 20 // 3


class TestUsageErrors:
    def test_main_builds_one_parser(self, capsys, monkeypatch):
        built, init = [], qpd.cli._Parser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(qpd.cli._Parser, "__init__", counted)
        qpd.cli._build_parser.cache_clear()
        for _ in range(2):
            code, out, _ = run(capsys, "conjugacy",
                               str(fixture_path("example1_lv")),
                               "--trials", "0")
            assert (code, out) == (0, "warning: --trials 0 requested; "
                                      "vacuous pass\n")
        assert built.count("qpd") == 1

    def test_unknown_command_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_required_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--kind", "period3"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv", [
        ["analyze", "F", "--tol", "-1"],
        ["analyze", "F", "--tol", "nan"],
        ["analyze", "F", "--tol", "inf"],
        ["analyze", "F", "--seed", "-1"],
        ["analyze", "F", "--verify", "--seed", "-1"],
        ["conjugacy", "F", "--seed", "-1"],
        ["conjugacy", "F", "--steps", "-1"],
        ["conjugacy", "F", "--steps", "0"],
        ["conjugacy", "F", "--trials", "-2"],
        ["scan", "--kind", "period3", "--rho-min", "2", "--rho-max", "inf",
         "--step", "0.1"],
        ["scan", "--kind", "period3", "--rho-min", "2.5", "--rho-max", "3.5",
         "--step", "1e-300"],
        ["scan", "--kind", "period3", "--rho-min", "3", "--rho-max", "2",
         "--step", "0.1"],
        # a horizon far beyond any address space: np.empty fails at once
        ["simulate", "F", "--x0", "1,1", "--steps", "100000000000000",
         "--out", "OUT"],
    ], ids=lambda argv: " ".join(argv))
    def test_bad_argument_value_is_one_error_line(self, capsys, tmp_path,
                                                  argv):
        out_path = tmp_path / "out.csv"
        argv = [{"F": str(fixture_path("example1_lv")),
                 "OUT": str(out_path)}.get(a, a) for a in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not out_path.exists()
