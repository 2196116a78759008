import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import lambertw

from qpd import (
    analyze_xi,
    find_period3,
    find_snap_back,
    threshold_scan,
    write_scan_csv,
    xi,
    xi_deriv,
)
from qpd import scalar_map
from qpd.errors import InvalidArgument, OverflowGuard
from qpd.scalar_map import (
    KIND_PERIOD3,
    KIND_SNAPBACK,
    _forward_check,
    _preimage,
    _preimages,
    expanding_radius,
)
from qpd.systems import EXP_ARG_LIMIT


def iterate(x, rho, times):
    for _ in range(times):
        x = xi(x, rho)
    return x


#: Grid density of the reference period-3 search; the third iterate
#: oscillates rapidly, so brackets must be dense.
REFERENCE_GRID_SIZE = 100_000


def reference_period3(rho):
    """The whole-grid period-3 search, one xi call per iterate: brackets
    sign changes of the third iterate minus identity, refines them with
    brentq and returns the first cycle that is not a fixed point.  Its
    grid is too coarse from about rho = 15.25 on."""
    xs = np.linspace(1e-9, np.exp(rho - 1.0) + 1.0, REFERENCE_GRID_SIZE)
    g = iterate(xs, rho, 3) - xs
    signs = np.sign(g)
    brackets = np.nonzero(signs[:-1] * signs[1:] < 0)[0]

    def f(x):
        return iterate(x, rho, 3) - x

    for i in brackets:
        root = brentq(f, xs[i], xs[i + 1], xtol=1e-12)
        if abs(xi(root, rho) - root) <= 1e-9:
            continue
        cycle = np.array([root, xi(root, rho), iterate(root, rho, 2)])
        if np.all(np.abs(iterate(cycle, rho, 3) - cycle) <= 1e-9):
            return cycle
    return None


#: The saddle-node onset of period 3, 3.10243991563542661: the root of
#: f^3(x) = x, (f^3)'(x) = 1 solved in 40-digit arithmetic, as a double.
PERIOD3_ONSET = 3.1024399156354266


def plain_sweeps_period3(rho):
    """The cycle of the inverse-branch iteration y <- L^-1 R^-1 R^-1 (y)
    from rho + 0.5 by plain sweeps only: the fixed point it converges to
    is the attracting one."""
    y = rho + 0.5
    for _ in range(100_000):
        c = _preimage(y, rho, left=False)
        b = _preimage(c, rho, left=False)
        a = _preimage(b, rho, left=True)
        if abs(a - y) <= 1e-15 * a:
            return np.array((a, b, c))
        y = a
    raise AssertionError(f"plain sweeps did not converge at rho = {rho}")


def exact_iterate(x, rho, times):
    """``times`` steps of the map in 50-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        x, rho = Decimal(x), Decimal(rho)
        for _ in range(times):
            x = x * (rho - x).exp()
        return x


def assert_exact_return_nearby(witness, rho):
    """The witness is a valid snap-back point up to rounding: the m-th
    iterate minus rho changes sign, in exact-enough arithmetic, across
    x0 -/+ 4 ulps, so a point that maps onto rho exactly lies there."""
    assert 1e-8 < abs(witness.x0 - rho) <= witness.radius
    assert witness.derivative_product != 0.0
    ulp = np.spacing(witness.x0)
    lo, hi = (exact_iterate(witness.x0 + k * ulp, rho, witness.steps)
              - Decimal(rho) for k in (-4, 4))
    assert (lo < 0) != (hi < 0)


class TestXi:
    def test_zero_is_fixed(self):
        assert xi(0.0, 3.2) == 0.0

    def test_positive_fixed_point_is_exact(self):
        for rho in (0.5, 2.0, 3.2, 5.0):
            assert xi(rho, rho) == rho  # exponent is exactly zero

    def test_scalar_oracle(self):
        assert xi(1.0, 3.2) == pytest.approx(math.exp(2.2), rel=1e-15)

    def test_multiplier_at_fixed_point(self):
        for rho in (1.5, 3.0):
            assert xi_deriv(rho, rho) == pytest.approx(1.0 - rho, rel=1e-15)

    def test_unimodal_with_peak_at_one(self):
        rho = 3.0
        xs = np.linspace(1e-6, 12.0, 20_001)
        values = xi(xs, rho)
        peak = math.exp(rho - 1.0)
        assert values.max() <= peak + 1e-12
        assert abs(xs[np.argmax(values)] - 1.0) <= 1e-3

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            xi(-0.5, 3.0)

    def test_overflow_guard(self):
        with pytest.raises(OverflowGuard):
            xi(0.5, 800.0)

    @pytest.mark.parametrize("x, rho", [(math.nan, 3.0), (1.0, math.nan),
                                        ([1.0, math.nan], 3.0),
                                        (math.inf, 3.0),
                                        ([1.0, math.inf], 3.0)],
                             ids=["x", "rho", "array", "inf", "inf-array"])
    def test_rejects_nan(self, x, rho):
        # an infinite x is refused too: inf * exp(3 - inf) is inf * 0
        with pytest.raises(InvalidArgument):
            xi(x, rho)

    def test_large_argument_underflows_to_zero(self):
        assert xi(1000.0, 3.0) == 0.0


class TestPeriod3:
    def test_found_in_chaotic_regime(self):
        cycle = find_period3(3.2)
        assert cycle is not None
        for point in cycle:
            assert abs(iterate(point, 3.2, 3) - point) <= 1e-9
            assert abs(xi(point, 3.2) - point) > 1e-6  # not a fixed point
        assert len(set(np.round(cycle, 10))) == 3

    def test_absent_below_onset(self):
        assert find_period3(2.0) is None
        assert find_period3(3.0) is None
        for offset in (1e-3, 1e-6, 1e-9, 1e-15):
            assert find_period3(PERIOD3_ONSET - offset) is None

    @pytest.mark.parametrize("rho", [8.0, 10.0, 12.0])
    def test_found_at_large_growth(self, rho):
        cycle = find_period3(rho)
        assert cycle is not None
        for point in cycle:
            assert abs(iterate(point, rho, 3) - point) <= 1e-9
            assert abs(xi(point, rho) - point) > 1e-6

    def test_cycles_persist_at_larger_growth(self):
        # the whole-grid search misses these from rho = 16 on
        failures = []
        for rho in [*np.arange(3.11, 700.0, 0.37), 699.0, 700.0]:
            cycle = find_period3(float(rho))
            if cycle is None:
                failures.append((float(rho), None))
                continue
            a, b, c = cycle
            if not (a < 1.0 < min(b, c) and b != c and _forward_check(
                    (a, b, c), a, float(rho)) is not None):
                failures.append((float(rho), cycle))
        assert failures == []

    def test_sweeps_stop_at_the_cap(self, monkeypatch):
        # a search that reaches PERIOD3_MAX_SWEEPS finds nothing; at
        # rho = 3.2 it needs more than two sweeps, Newton trials included
        sweeps = []
        sweep = scalar_map._period3_sweep
        monkeypatch.setattr(scalar_map, "_period3_sweep",
                            lambda y, rho: sweeps.append(y) or sweep(y, rho))
        assert find_period3(3.2) is not None
        needed = len(sweeps)
        assert needed > 2
        monkeypatch.setattr(scalar_map, "PERIOD3_MAX_SWEEPS", needed)
        assert find_period3(3.2) is not None
        for cap in (needed - 1, 2):
            monkeypatch.setattr(scalar_map, "PERIOD3_MAX_SWEEPS", cap)
            assert find_period3(3.2) is None

    def test_found_just_above_the_onset(self):
        # plain sweeps crawl there like a saddle-node ghost and hit the
        # cap from about 5e-8 above the onset down; a Newton point kept
        # past the attracting fixed point loses the cycle at some of these
        rhos = [3.1024399159 + 1e-8,
                *(PERIOD3_ONSET + np.logspace(-16, -2, 300))]
        misses = []
        for rho in map(float, rhos):
            cycle = find_period3(rho)
            if cycle is None or _forward_check(
                    tuple(cycle), cycle[0], rho) is None:
                misses.append(rho)
        assert misses == []

    @pytest.mark.parametrize("rho", [3.1025, 3.103, 3.11, 3.2, 3.5, 5.0,
                                     12.0, 100.0, 700.0])
    def test_newton_keeps_the_cycle_of_plain_sweeps(self, rho):
        # the safeguard keeps every Newton point above the attracting
        # fixed point, so the search never lands on the repelling one,
        # the stable cycle of the saddle-node pair
        cycle = find_period3(rho)
        np.testing.assert_allclose(cycle, plain_sweeps_period3(rho),
                                   rtol=1e-13)
        assert abs(np.prod([xi_deriv(x, rho) for x in cycle])) > 1.0

    def test_solves_per_search(self, monkeypatch):
        solves = []

        def preimage(value, rho, left):
            solves.append(rho)
            return _preimage(value, rho, left)

        monkeypatch.setattr(scalar_map, "_preimage", preimage)
        threshold_scan(KIND_PERIOD3, 2.5, 3.5, 0.01)
        assert len(solves) <= 2_000
        solves.clear()
        assert find_period3(3.1025) is not None
        assert len(solves) <= 100


class TestPeriod3AgainstReferenceLoop:
    def test_detection_matches_whole_grid(self, monkeypatch):
        rhos = [float(r) for r in np.arange(2.5, 15.2 + 0.025, 0.05)]
        # plus every growth rate a 2.5-3.5 scan asks about, bisection
        # midpoints included
        original = scalar_map.find_period3

        def record(rho):
            rhos.append(rho)
            return original(rho)

        monkeypatch.setattr(scalar_map, "find_period3", record)
        threshold_scan(KIND_PERIOD3, 2.5, 3.5, 0.01)
        monkeypatch.undo()
        mismatches = [rho for rho in rhos
                      if (find_period3(rho) is None)
                      != (reference_period3(rho) is None)]
        assert mismatches == []


class TestPreimages:
    # at EXP_ARG_LIMIT z = v e^-rho is subnormal or 0 for small v, so the
    # right preimage comes from rho - log v; the values just below the
    # peak sit near the branch point, where both roots approach 1
    @pytest.mark.parametrize("rho", [2.9, 20.0, 50.0, EXP_ARG_LIMIT])
    def test_each_preimage_solves_the_map_on_its_side(self, rho):
        worst = 0.0
        peak = math.exp(rho - 1.0)
        near_peak = [peak * (1.0 - 10.0**-k) for k in range(2, 16)]
        for v in [*np.geomspace(1e-250, peak, 500), *near_peak]:
            ys = _preimages(float(v), rho)
            assert 1 <= len(ys) <= 2
            assert ys[-1] >= 1.0
            if len(ys) == 2:
                assert ys[0] <= 1.0
            for y in ys:
                worst = max(worst, abs(xi(y, rho) - v) / v)
        assert worst <= 1e-12

    @pytest.mark.parametrize("rho", [2.9, 3.1, 5.0, 20.0, 50.0, 300.0,
                                     699.0, EXP_ARG_LIMIT])
    def test_roots_match_the_lambert_w_branches(self, rho):
        # y e^(rho - y) = v is y = -W_k(-z), z = v e^-rho, with k = 0 left
        # and k = -1 right of 1; scipy's lambertw is the oracle where z is
        # normal, away from the branch point whose conditioning both share
        checked = 0
        for v in map(float, np.geomspace(1e-250, math.exp(rho - 1.0), 2000)):
            z = float(v * np.exp(-rho))
            for left, branch in ((True, 0), (False, -1)):
                y = _preimage(v, rho, left)
                if y is None:
                    continue
                assert type(y) is float
                assert abs(xi(y, rho) - v) <= 1e-12 * v
                if z < np.finfo(float).tiny or abs(1.0 - y) <= 1e-4:
                    continue
                oracle = -lambertw(-z, branch).real
                assert abs(y - oracle) <= 4 * np.spacing(oracle), (v, left)
                checked += 1
        assert checked > 2000

    def test_left_preimage_only_above_the_floor(self):
        # the left branch is kept only while its preimage exceeds the
        # smallest normal double
        rho = 20.0
        floor = xi(np.finfo(float).tiny, rho)
        assert len(_preimages(floor * 0.5, rho)) == 1
        assert len(_preimages(floor * 2.0, rho)) == 2

    def test_outside_the_range_has_no_preimage(self):
        assert _preimages(0.0, 3.0) == []
        assert _preimages(math.exp(2.0) * (1 + 1e-12), 3.0) == []

    @pytest.mark.parametrize("detector, rho", [(find_period3, 3.2),
                                               (find_snap_back, 3.0)])
    def test_branch_limits_once_per_search(self, detector, rho):
        # the peak, the left floor and exp(-rho) of every solve at rho
        # are computed by the first one
        scalar_map._branch_limits.cache_clear()
        assert detector(rho) is not None
        info = scalar_map._branch_limits.cache_info()
        assert (info.misses, info.hits > 0) == (1, True)
        assert scalar_map._branch_limits(rho) == (
            np.exp(rho - 1.0), xi(np.finfo(float).tiny, rho), np.exp(-rho))


class TestSnapBack:
    def test_witness_in_marotto_regime(self):
        witness = find_snap_back(3.0)
        assert witness is not None
        assert abs(witness.x0 - 3.0) <= witness.radius
        assert abs(witness.x0 - 3.0) > 1e-8
        assert witness.derivative_product != 0.0
        assert abs(iterate(witness.x0, 3.0, witness.steps) - 3.0) <= 1e-9

    def test_absent_below_onset(self):
        assert find_snap_back(2.5) is None

    @pytest.mark.parametrize("rho, radius", [(2.5, 0.3), (2.03, 0.15),
                                             (2.01, 0.075)])
    def test_expanding_radius_halves_near_the_flip(self, rho, radius):
        # near rho = 2 the multiplier 1 - rho is just below -1, so |xi'|
        # drops below 1 within 0.3 of the fixed point: the radius halves
        assert expanding_radius(rho) == radius

    @pytest.mark.parametrize("rho", [1.5, 2.0])
    def test_no_expanding_radius_at_a_non_repelling_point(self, rho):
        assert expanding_radius(rho) is None

    @pytest.mark.parametrize("rho", [14.0, 20.0, 27.5, 40.0, 50.0])
    def test_witness_at_large_growth(self, rho):
        # left-branch preimages here are about rho e^-rho; the chain must
        # carry them to relative precision to pass the forward check
        witness = find_snap_back(rho)
        assert witness is not None
        assert 1e-8 < abs(witness.x0 - rho) <= witness.radius
        assert abs(iterate(witness.x0, rho, witness.steps) - rho) <= 1e-9

    @pytest.mark.parametrize("rho", [58.0, 64.0, 72.0, 76.0, 88.0, 100.0])
    def test_forward_check_is_relative_to_rho(self, rho):
        # the rounding of an m-step orbit near rho grows with rho and
        # exceeds an absolute 1e-9 at these rho
        witness = find_snap_back(rho)
        assert witness is not None
        assert 1e-8 < abs(witness.x0 - rho) <= witness.radius
        assert abs(iterate(witness.x0, rho, witness.steps) - rho) <= 1e-9 * rho

    @pytest.mark.parametrize("rho", [224.0, 231.5, 233.0, 235.5, 241.5, 245.0])
    def test_forward_check_allows_the_chains_rounding(self, rho):
        # the chain amplifies the rounding of x0 by its derivative product
        # (about -2e7 here), so even a valid witness misses rho by more
        # than 1e-9 * rho
        witness = find_snap_back(rho)
        assert witness is not None
        assert abs(iterate(witness.x0, rho, witness.steps) - rho) > 1e-9 * rho
        assert_exact_return_nearby(witness, rho)

    @pytest.mark.parametrize("rho", [*np.arange(250.0, 700.0, 50.0), 697.0,
                                     697.5, 698.0, 698.5, 699.0, 699.5,
                                     EXP_ARG_LIMIT])
    def test_witness_up_to_the_left_preimage_floor(self, rho):
        # every chain back from rho passes a left preimage of about
        # rho e^-rho, which stays above the smallest normal double up to
        # the guard
        witness = find_snap_back(float(rho))
        assert witness is not None
        assert_exact_return_nearby(witness, float(rho))

    def test_forward_check_refuses_a_chain_that_misses(self):
        # 3.3 steps to 3.3 exp(-0.1) = 2.986, not to the fixed point 3.2
        assert _forward_check((3.3,), 3.2, 3.2) is None

    def test_no_witness_without_an_expanding_radius(self, monkeypatch):
        # a radius exists for every rho > 2, even right above 2 ...
        assert expanding_radius(np.nextafter(2.0, 3.0)) > 0.0
        # ... so the search's guard against a missing one is reached by
        # taking it away
        monkeypatch.setattr(scalar_map, "expanding_radius", lambda rho: None)
        assert find_snap_back(3.0) is None

    def test_requires_repelling_fixed_point(self):
        with pytest.raises(ValueError):
            find_snap_back(1.5)

    def test_expanding_radius_is_expanding(self):
        for rho in (2.2, 2.9, 3.5):
            r = expanding_radius(rho)
            assert r is not None
            assert abs(xi_deriv(rho - r, rho)) > 1.0
            assert abs(xi_deriv(rho + r, rho)) > 1.0


class TestOneEvaluator:
    def test_detectors_never_call_the_checked_xi(self, monkeypatch):
        # the detectors run the unchecked iterate behind their own
        # growth-rate guard; public xi is for outside input
        def refuse(x, rho):
            raise AssertionError("detector called xi")

        monkeypatch.setattr(scalar_map, "xi", refuse)
        assert find_period3(3.2) is not None
        assert find_snap_back(3.0) is not None
        assert find_snap_back(224.0) is not None
        assert len(_preimages(1.0, 20.0)) == 2

    def test_detectors_share_one_solver_and_one_forward_check(
            self, monkeypatch):
        solves = []

        def preimage(value, rho, left):
            solves.append(left)
            return _preimage(value, rho, left)

        monkeypatch.setattr(scalar_map, "_preimage", preimage)
        for detector, rho in ((find_snap_back, 3.0), (find_period3, 3.2)):
            solves.clear()
            assert detector(rho) is not None
            assert solves
        # each period-3 sweep solves right, right, then left: only the
        # branches it keeps
        sweeps = len(solves) // 3
        assert sweeps > 1 and solves == [False, False, True] * sweeps
        monkeypatch.setattr(scalar_map, "_forward_check", lambda *_: None)
        assert find_period3(3.2) is None
        assert find_snap_back(3.0) is None

    @pytest.mark.parametrize("rho", [0.5, 3.2, 12.0, EXP_ARG_LIMIT])
    def test_iterate_is_xi_float_for_float(self, rho):
        xs = np.linspace(0.0, 30.0, 3001)
        assert np.array_equal(scalar_map._xi_iterate(xs, rho, 3),
                              iterate(xs, rho, 3))
        assert scalar_map._xi_iterate(1.7, rho, 2) == iterate(1.7, rho, 2)


class TestLargeGrowthGuard:
    @pytest.mark.parametrize("detector", [find_period3, find_snap_back])
    @pytest.mark.parametrize("rho", [np.nextafter(EXP_ARG_LIMIT, np.inf),
                                     740.0, 760.0, 1e6])
    def test_detectors_refuse_before_any_exp(self, detector, rho):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowGuard, match="growth rate"):
                detector(rho)

    def test_guard_bound_itself_is_searched(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            find_period3(EXP_ARG_LIMIT)
            find_snap_back(EXP_ARG_LIMIT)

    @pytest.mark.parametrize("kind", [KIND_PERIOD3, KIND_SNAPBACK])
    def test_scan_past_the_guard_is_refused_before_any_detector(
            self, monkeypatch, kind):
        calls = []
        monkeypatch.setattr(scalar_map, "_detect",
                            lambda _, rho: calls.append(rho) or (False, ""))
        with pytest.raises(OverflowGuard, match="rho = 700.5 exceeds"):
            threshold_scan(kind, 690.0, 701.0, 0.5)
        assert calls == []


class TestNaNGrowthRate:
    @pytest.mark.parametrize("function", [analyze_xi, find_period3,
                                          find_snap_back])
    def test_is_refused(self, function):
        with pytest.raises(InvalidArgument):
            function(math.nan)


class TestAnalyzeXi:
    def test_summary_fields(self):
        analysis = analyze_xi(3.2)
        assert analysis.fixed_point == 3.2
        assert analysis.multiplier == pytest.approx(-2.2)
        assert analysis.period3 is not None
        assert analysis.snap_back is not None

    def test_tame_regime(self):
        analysis = analyze_xi(1.2)
        assert analysis.period3 is None
        assert analysis.snap_back is None

    def test_rejects_zero_growth_rate(self):
        with pytest.raises(InvalidArgument, match="rho must be positive"):
            analyze_xi(0)


class TestThresholdScan:
    def test_period3_threshold_near_reference(self):
        result = threshold_scan(KIND_PERIOD3, 2.5, 3.5, 0.01)
        assert abs(result.threshold - result.reference) <= 0.03
        assert result.threshold == 3.102499999999987
        assert result.resolution == pytest.approx(0.001)

    def test_period3_bisection_just_above_the_onset(self):
        # this scan's bisection asks about 3.102439931237285, about 1.5e-8
        # above the onset, where plain sweeps hit the cap
        result = threshold_scan(KIND_PERIOD3, 2.503689931237298, 3.5, 0.01)
        assert result.threshold == 3.102439931237285

    def test_snapback_threshold_near_reference(self):
        result = threshold_scan(KIND_SNAPBACK, 2.5, 3.5, 0.01)
        assert abs(result.threshold - result.reference) <= 0.03

    def test_snapback_onset_below_period3_onset(self):
        p3 = threshold_scan(KIND_PERIOD3, 2.5, 3.5, 0.02)
        sb = threshold_scan(KIND_SNAPBACK, 2.5, 3.5, 0.02)
        assert sb.threshold <= p3.threshold

    def test_no_detection_returns_empty_result(self):
        result = threshold_scan(KIND_PERIOD3, 1.0, 2.0, 0.1)
        assert result.threshold is None
        assert result.summary()["detected"] is False
        assert len(result.grid) == 11
        assert not any(detected for _, detected, _ in result.grid)

    def test_snapback_grid_below_two_is_not_repelling(self):
        result = threshold_scan(KIND_SNAPBACK, 1.9, 2.1, 0.1)
        assert result.threshold is None
        assert [row[2] for row in result.grid] == [
            "fixed point not repelling", "fixed point not repelling", ""]

    def test_unknown_kind_is_refused(self):
        with pytest.raises(InvalidArgument, match="unknown scan kind"):
            threshold_scan("period4", 2.5, 3.5, 0.5)

    @pytest.mark.parametrize("step", [0.0, math.inf])
    def test_step_must_be_positive_and_finite(self, step):
        with pytest.raises(InvalidArgument, match="step must be positive"):
            threshold_scan(KIND_PERIOD3, 2.5, 3.5, step)

    def test_csv_output(self, tmp_path):
        result = threshold_scan(KIND_SNAPBACK, 2.8, 3.0, 0.05)
        out = tmp_path / "scan.csv"
        write_scan_csv(result, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "rho,detected,detail"
        assert len(lines) == len(result.grid) + 1
        summary = result.summary()
        assert set(summary) == {"kind", "threshold", "resolution",
                                "reference", "detected"}
