import numpy as np
import pytest

from isacsim.analysis import fit_diversity, fit_highsnr_slope
from isacsim.numerics import ModelError


def polyfit_slope(x, y):
    return np.polyfit(x, y, 1)[0]


class TestHighSnrSlope:
    def test_exact_synthetic_line(self):
        snr_db = np.arange(20.0, 41.0, 2.0)
        snr = 10.0 ** (snr_db / 10.0)
        rate = 2.0 * np.log2(snr) + 0.7
        slope, r_squared = fit_highsnr_slope(snr_db, rate, (20.0, 40.0))
        assert slope == pytest.approx(2.0, abs=1e-10)
        assert r_squared == pytest.approx(1.0)

    def test_window_excludes_low_snr_curvature(self):
        snr_db = np.arange(0.0, 51.0, 5.0)
        snr = 10.0 ** (snr_db / 10.0)
        rate = np.log2(1.0 + snr)  # curved at low SNR, slope 1 at high
        slope, _ = fit_highsnr_slope(snr_db, rate, (30.0, 50.0))
        assert slope == pytest.approx(1.0, abs=0.01)
        inside = snr_db >= 30.0
        assert slope == pytest.approx(
            polyfit_slope(np.log2(snr[inside]), rate[inside]), rel=1e-12)

    def test_too_few_points(self):
        with pytest.raises(ModelError):
            fit_highsnr_slope([10.0, 20.0], [1.0, 2.0], (0.0, 30.0))


class TestDiversityFit:
    def test_exact_power_law(self):
        p_db = np.arange(8.0, 20.0, 1.0)
        p = 10.0 ** (p_db / 10.0)
        op = 50.0 * p ** -4.0
        inside = (op >= 1e-4) & (op <= 1e-1)
        assert np.count_nonzero(inside) >= 3
        slope, r_squared = fit_diversity(p_db, op)
        assert -slope == pytest.approx(4.0, abs=1e-10)
        assert r_squared == pytest.approx(1.0)

    def test_window_masks_saturated_points(self):
        # saturation at op = 0.8 outside the window must not flatten the fit
        p_db = np.arange(0.0, 31.0, 2.5)
        p = 10.0 ** (p_db / 10.0)
        op = np.minimum(0.8, 100.0 * p ** -3.0)
        slope, _ = fit_diversity(p_db, op)
        assert -slope == pytest.approx(3.0, abs=1e-10)
        inside = (op >= 1e-4) & (op <= 1e-1)
        assert p_db[inside].min() >= 10.0
        assert slope == pytest.approx(
            polyfit_slope(p_db[inside] / 10.0, np.log10(op[inside])), rel=1e-12)

    def test_zero_bins_dropped_with_warning(self):
        p_db = np.array([10.0, 15.0, 20.0, 25.0, 30.0])
        op = np.array([1e-2, 3e-3, 1e-3, 3e-4, 0.0])
        with pytest.warns(UserWarning):
            slope, _ = fit_diversity(p_db, op)
        assert slope == pytest.approx(
            polyfit_slope(p_db[:4] / 10.0, np.log10(op[:4])), rel=1e-12)

    def test_too_few_points_in_window(self):
        p_db = np.array([10.0, 20.0, 30.0])
        op = np.array([0.5, 0.3, 1e-6])  # only one point inside the window
        with pytest.raises(ModelError):
            fit_diversity(p_db, op)
