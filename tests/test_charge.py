import math

import numpy as np
import pytest

from nvsk.charge import (
    Spectrum,
    charge_fraction,
    decompose,
    decompose_to_psi,
)
from nvsk.errors import ValidationError

WL = np.linspace(560.0, 850.0, 400)


def gaussian_band(center, width, height=1.0, grid=WL):
    return height * np.exp(-0.5 * ((grid - center) / width) ** 2)


def nv_minus_basis(grid=WL):
    # zero-phonon line near 637 nm plus phonon sideband
    counts = gaussian_band(637.0, 6.0, 0.6, grid) + gaussian_band(700.0, 45.0, 1.0, grid)
    return Spectrum(wavelength_nm=grid, counts=counts)


def nv_zero_basis(grid=WL):
    counts = gaussian_band(575.0, 5.0, 0.5, grid) + gaussian_band(620.0, 35.0, 1.0, grid)
    return Spectrum(wavelength_nm=grid, counts=counts)


def test_exact_combination_roundtrip():
    bm, b0 = nv_minus_basis(), nv_zero_basis()
    measured = Spectrum(WL, 0.7 * bm.counts + 0.3 * b0.counts)
    w_minus, w_zero, residual = decompose(measured, bm, b0)
    assert w_minus == pytest.approx(0.7, abs=1e-9)
    assert w_zero == pytest.approx(0.3, abs=1e-9)
    rms = np.sqrt(np.mean(measured.counts**2))
    assert residual <= 1e-12 * rms


def test_pure_minus_spectrum():
    bm, b0 = nv_minus_basis(), nv_zero_basis()
    measured = Spectrum(WL, 2.4 * bm.counts)
    w_minus, w_zero, _ = decompose(measured, bm, b0)
    assert w_zero == pytest.approx(0.0, abs=1e-10)
    assert w_minus == pytest.approx(2.4, rel=1e-9)


def test_noisy_roundtrip_over_seeds():
    bm, b0 = nv_minus_basis(), nv_zero_basis()
    clean = 0.6 * bm.counts + 0.4 * b0.counts
    scale = clean.max()
    for seed in range(50):
        rng = np.random.default_rng(seed)
        noisy = np.clip(clean + rng.normal(0.0, 0.01 * scale, clean.shape), 0.0, None)
        measured = Spectrum(WL, noisy)
        w_minus, w_zero, _ = decompose(measured, bm, b0)
        assert w_minus == pytest.approx(0.6, rel=0.02)
        assert w_zero == pytest.approx(0.4, rel=0.02)


def test_decomposition_scale_invariance():
    bm, b0 = nv_minus_basis(), nv_zero_basis()
    measured = Spectrum(WL, 0.5 * bm.counts + 0.5 * b0.counts)
    w1 = decompose(measured, bm, b0)
    scaled = Spectrum(WL, 7.0 * measured.counts)
    w2 = decompose(scaled, bm, b0)
    assert w2[0] == pytest.approx(7.0 * w1[0], rel=1e-9)
    assert w2[1] == pytest.approx(7.0 * w1[1], rel=1e-9)
    assert charge_fraction(*w2[:2]) == pytest.approx(
        charge_fraction(*w1[:2]), rel=1e-12
    )


def test_resampling_to_coarser_grid():
    bm, b0 = nv_minus_basis(), nv_zero_basis()
    fine = np.linspace(570.0, 840.0, 2000)
    measured = Spectrum(
        fine,
        np.interp(fine, WL, 0.7 * bm.counts + 0.3 * b0.counts),
    )
    w_minus, w_zero, _ = decompose(measured, bm, b0)
    assert w_minus == pytest.approx(0.7, abs=1e-3)
    assert w_zero == pytest.approx(0.3, abs=1e-3)


def test_non_overlapping_grids_rejected():
    bm = nv_minus_basis()
    b0 = nv_zero_basis()
    other = Spectrum(np.linspace(900.0, 1000.0, 50), np.ones(50))
    with pytest.raises(ValidationError, match="overlap"):
        decompose(other, bm, b0)


def test_collinear_bases_rejected():
    bm = nv_minus_basis()
    nearly = Spectrum(WL, bm.counts * (1.0 + 1e-12))
    measured = Spectrum(WL, bm.counts)
    with pytest.raises(ValidationError, match="collinear"):
        decompose(measured, bm, nearly)


def test_charge_fraction_formula():
    assert charge_fraction(1.0, 0.0) == 1.0
    assert charge_fraction(1.0, 1.0, 2.5) == pytest.approx(1.0 / 3.5, abs=1e-12)
    assert charge_fraction(1.0, 1.0, 2.5) == pytest.approx(0.2857, abs=1e-4)
    assert charge_fraction(0.3, 0.7, 1.0) == pytest.approx(0.3, rel=1e-12)


def test_charge_fraction_monotonicity():
    base = charge_fraction(1.0, 1.0)
    assert charge_fraction(1.5, 1.0) > base
    assert charge_fraction(1.0, 1.5) < base


def test_charge_fraction_guards():
    with pytest.raises(ValidationError, match="both PL weights are zero"):
        charge_fraction(0.0, 0.0)
    with pytest.raises(ValidationError):
        charge_fraction(-0.1, 0.5)
    with pytest.raises(ValidationError):
        charge_fraction(0.5, 0.5, brightness_ratio=0.0)


@pytest.mark.parametrize("ratio", [math.inf, -math.inf, math.nan])
def test_charge_fraction_refuses_a_non_finite_brightness_ratio(ratio):
    # an infinite ratio would report psi = 0 for any NV0 weight
    with pytest.raises(ValidationError, match="brightness_ratio must be finite and > 0"):
        charge_fraction(0.5, 0.5, brightness_ratio=ratio)


@pytest.mark.parametrize("weights", [(math.nan, 0.5), (0.5, math.inf), (math.inf, 0.0)])
def test_charge_fraction_refuses_non_finite_weights(weights):
    # a NaN weight passed the old w < 0 check, and inf / inf gave psi = NaN
    with pytest.raises(ValidationError, match="must be finite and >= 0, got"):
        charge_fraction(*weights)


def test_decompose_to_psi_validity_flag():
    bm, b0 = nv_minus_basis(), nv_zero_basis()
    measured = Spectrum(WL, 0.5 * bm.counts + 0.5 * b0.counts)
    low = decompose_to_psi(measured, bm, b0, intensity_mw_um2=0.05)
    high = decompose_to_psi(measured, bm, b0, intensity_mw_um2=0.5)
    assert not low.outside_validated_regime
    assert high.outside_validated_regime
    assert low.psi == pytest.approx(high.psi)


def test_spectrum_validation():
    with pytest.raises(ValidationError):
        Spectrum(np.array([600.0, 600.0, 610.0]), np.ones(3))
    with pytest.raises(ValidationError):
        Spectrum(WL, -np.ones_like(WL))
