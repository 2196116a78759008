import math
import warnings

import numpy as np
import pytest

from qpd import (
    analyze_xi,
    find_period3,
    find_snap_back,
    threshold_scan,
    write_scan_csv,
    xi,
    xi_deriv,
)
from qpd.errors import NoDetection, OverflowGuard
from qpd.scalar_map import KIND_PERIOD3, KIND_SNAPBACK, expanding_radius


def iterate(x, rho, times):
    for _ in range(times):
        x = xi(x, rho)
    return x


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

    @pytest.mark.parametrize("rho", [8.0, 10.0, 12.0])
    def test_found_at_large_growth(self, rho):
        cycle = find_period3(rho)
        assert cycle is not None
        for point in cycle:
            assert abs(iterate(point, rho, 3) - point) <= 1e-9
            assert abs(xi(point, rho) - point) > 1e-6

    def test_cycles_persist_at_larger_growth(self):
        # monotone onset is expected but reported rather than asserted
        violations = []
        for rho in np.linspace(3.15, 3.45, 10):
            if find_period3(float(rho)) is not None and \
                    find_period3(float(rho) + 0.05) is None:
                violations.append(float(rho))
        if violations:
            warnings.warn(
                f"period-3 detection not monotone at {violations}",
                stacklevel=1)


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

    def test_requires_repelling_fixed_point(self):
        with pytest.raises(ValueError):
            find_snap_back(1.5)

    def test_expanding_radius_is_expanding(self):
        for rho in (2.2, 2.9, 3.5):
            r = expanding_radius(rho)
            assert r is not None
            assert abs(xi_deriv(rho - r, rho)) > 1.0
            assert abs(xi_deriv(rho + r, rho)) > 1.0


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


class TestThresholdScan:
    def test_period3_threshold_near_reference(self):
        result = threshold_scan(KIND_PERIOD3, 2.5, 3.5, 0.01)
        assert abs(result.threshold - result.reference) <= 0.03
        assert result.resolution == pytest.approx(0.001)

    def test_snapback_threshold_near_reference(self):
        result = threshold_scan(KIND_SNAPBACK, 2.5, 3.5, 0.01)
        assert abs(result.threshold - result.reference) <= 0.03

    def test_snapback_onset_below_period3_onset(self):
        p3 = threshold_scan(KIND_PERIOD3, 2.5, 3.5, 0.02)
        sb = threshold_scan(KIND_SNAPBACK, 2.5, 3.5, 0.02)
        assert sb.threshold <= p3.threshold

    def test_no_detection_raises(self):
        with pytest.raises(NoDetection) as info:
            threshold_scan(KIND_PERIOD3, 1.0, 2.0, 0.1)
        result = info.value.result
        assert result.threshold is None
        assert result.summary()["detected"] is False
        assert len(result.grid) == 11
        assert not any(detected for _, detected, _ in result.grid)

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
