import numpy as np
import pytest

from nvsk.errors import ComputationError, ValidationError
from nvsk.strainmap import (
    MAX_MAP_PIXELS,
    LorentzianFit,
    StrainMap,
    histogram_fwhm,
    partition_sweep,
    scaling_metric,
    synth_stationary,
    synth_two_region,
)


def test_all_masked_rejected():
    with pytest.raises(ValidationError, match="no valid pixels"):
        StrainMap(values=np.full((5, 5), np.nan), pixel_pitch_um=1.0)


def test_cauchy_fwhm_monte_carlo_oracle():
    # Lorentzian FWHM equals twice the Cauchy scale
    rng = np.random.default_rng(7)
    gamma = 3.5
    samples = gamma * rng.standard_cauchy(1_000_000)
    result = histogram_fwhm(samples)
    assert result.fwhm_khz == pytest.approx(2.0 * gamma, rel=0.03)


def test_fit_center_matches_median():
    rng = np.random.default_rng(9)
    samples = 5.0 + 2.0 * rng.standard_cauchy(200_000)
    result = histogram_fwhm(samples)
    # symmetric distribution: center at the sample median within a bin
    q25, q75 = np.percentile(samples, [25, 75])
    bin_w = 2.0 * (q75 - q25) / len(samples) ** (1 / 3)
    assert abs(result.center_khz - np.median(samples)) < bin_w


def test_fit_shift_invariance():
    rng = np.random.default_rng(13)
    samples = 2.0 * rng.standard_cauchy(100_000)
    base = histogram_fwhm(samples)
    shifted = histogram_fwhm(samples + 250.0)
    assert shifted.fwhm_khz == pytest.approx(base.fwhm_khz, rel=1e-9)
    assert shifted.center_khz == pytest.approx(base.center_khz + 250.0, abs=0.05)


def test_fit_scale_covariance():
    rng = np.random.default_rng(17)
    samples = 2.0 * rng.standard_cauchy(100_000)
    base = histogram_fwhm(samples)
    scaled = histogram_fwhm(3.0 * samples)
    assert scaled.fwhm_khz == pytest.approx(3.0 * base.fwhm_khz, rel=1e-6)


def test_fit_needs_enough_pixels():
    with pytest.raises(ValidationError, match="valid pixels"):
        histogram_fwhm(np.ones(50))


def test_fit_degenerate_spread_rejected():
    with pytest.raises(ComputationError, match="under-resolved"):
        histogram_fwhm(np.zeros(1000))


def test_paper_anchor_fwhm_to_t2():
    from nvsk.dephasing import t2_strain_from_fwhm

    rng = np.random.default_rng(21)
    samples = 15.5 * rng.standard_cauchy(500_000)  # scale -> FWHM 31 kHz
    result = histogram_fwhm(samples)
    assert t2_strain_from_fwhm(result.fwhm_khz) == pytest.approx(10.27, rel=0.05)


def test_partition_single_tile_equals_full_map():
    m = synth_stationary((128, 128), 1.0, 10.0, seed=5)
    stats = partition_sweep(m, [128.0])
    assert stats[0].n_tiles == 1
    valid = m.valid_values
    full = histogram_fwhm(valid - valid.mean())
    assert stats[0].fwhms_khz[0] == pytest.approx(full.fwhm_khz, rel=1e-9)
    # five or fewer tiles: no quantile bands
    assert stats[0].p25 is None and stats[0].p90 is None


def test_partition_stationary_medians_stable():
    m = synth_stationary((512, 512), 6.0, 10.0, seed=42)
    sizes = [96.0, 192.0, 384.0, 768.0, 1536.0, 3072.0]
    stats = partition_sweep(m, sizes)
    medians = [s.median for s in stats]
    spread = (max(medians) - min(medians)) / np.median(medians)
    assert spread < 0.10
    big = stats[0]
    assert big.n_tiles == 32 * 32
    assert big.p10 <= big.p25 <= big.median <= big.p75 <= big.p90
    assert big.minimum <= big.p10


@pytest.mark.parametrize("width", [1e150, 1e200, 1e300, 1e308])
def test_fit_refuses_an_overwide_bin_width_before_the_solver(width):
    # the initial point, its residuals or its Jacobian overflow
    values = np.random.default_rng(0).standard_cauchy(1000)
    with pytest.raises(ValidationError, match="out of floating-point range"):
        histogram_fwhm(values, bin_width_khz=width)


def test_fit_refuses_an_amplitude_whose_fourth_power_overflows():
    # finite residuals and Jacobian, but the solver squares amplitude^2
    values = np.random.default_rng(0).standard_cauchy(1000)
    with pytest.raises(ValidationError, match=r"amplitude, peak count x \(FWHM/2\)\^2"):
        histogram_fwhm(values, bin_width_khz=1e40)


@pytest.mark.parametrize("synth", [synth_stationary, synth_two_region])
def test_synth_refuses_a_map_above_the_pixel_limit(synth):
    args = (6.0, 10.0) if synth is synth_stationary else (6.0, 10.0, 60.0)
    with pytest.raises(ValidationError, match="16,777,216-pixel limit"):
        synth((100_000, 100_000), *args)
    with pytest.raises(ValidationError, match="pixel limit"):
        synth((MAX_MAP_PIXELS // 1024 + 1, 1024), *args)


def test_partition_tile_size_guards():
    m = synth_stationary((64, 64), 1.0, 5.0, seed=1)
    with pytest.raises(ValidationError, match="need >= 4"):
        partition_sweep(m, [2.0])
    with pytest.raises(ValidationError, match="exceeds the map extent"):
        partition_sweep(m, [100.0])
    for width in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="bin width must be finite and > 0"):
            partition_sweep(m, [32.0], bin_width_khz=width)
    for offset in ((-5, -5), (0, -1), (-1, 0)):
        with pytest.raises(ValidationError, match="tile offset must be >= 0 px"):
            partition_sweep(m, [16.0], tile_offset=offset)


def test_partition_two_region_structure():
    m = synth_two_region((512, 512), 6.0, 8.0, 80.0, seed=11)
    stats = partition_sweep(m, [192.0, 384.0, 768.0])
    for s in stats:
        assert s.minimum < s.median  # quiet tiles narrower than the median mix
    small, large = stats[0], stats[-1]
    assert small.p90 - small.p10 > 0  # dispersion present at small sizes


def test_histogram_union_of_exact_tiles():
    # counts on shared edges: tile histograms sum to the full-map histogram
    m = synth_stationary((128, 128), 1.0, 10.0, seed=3)
    edges = np.linspace(-200.0, 200.0, 401)
    full, _ = np.histogram(m.values, bins=edges)
    tiled = np.zeros_like(full)
    for i in range(0, 128, 32):
        for j in range(0, 128, 32):
            h, _ = np.histogram(m.values[i : i + 32, j : j + 32], bins=edges)
            tiled += h
    assert np.array_equal(full, tiled)


def test_scaling_constant_width_gives_inverse_linear():
    stats = []
    for size in (50.0, 100.0, 200.0, 400.0):
        stats.append(
            type("S", (), {"size_um": size, "median": 20.0})  # constant width
        )
    result = scaling_metric(stats, other_rate_per_us=0.05)
    assert result.exponent == pytest.approx(-1.0, abs=1e-6)
    for rate in (-0.05, float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="other_rate_per_us must be finite and >= 0"):
            scaling_metric(stats, other_rate_per_us=rate)


def test_scaling_stationary_map_near_inverse_linear():
    m = synth_stationary((512, 512), 6.0, 10.0, seed=42)
    stats = partition_sweep(m, [96.0, 192.0, 384.0, 768.0, 1536.0])
    result = scaling_metric(stats, other_rate_per_us=1.0 / 20.0)
    assert result.exponent == pytest.approx(-1.0, abs=0.05)


def test_scaling_gradient_map_cancels_volume_gain():
    # linewidth growing linearly with tile size and strain-dominated T2:
    # metric ~ pi*Delta(L)/L * L -> constant, exponent ~ 0
    rng = np.random.default_rng(19)
    n = 512
    gradient = np.linspace(0.0, 5000.0, n)[None, :] * np.ones((n, 1))
    noise = 2.0 * rng.standard_cauchy((n, n))
    m = StrainMap(values=gradient + noise, pixel_pitch_um=1.0)
    stats = partition_sweep(m, [32.0, 64.0, 128.0, 256.0])
    widths = np.array([s.median for s in stats])
    sizes = np.array([s.size_um for s in stats])
    growth = np.polyfit(np.log(sizes), np.log(widths), 1)[0]
    assert growth == pytest.approx(1.0, abs=0.15)  # Delta(L) ~ L
    result = scaling_metric(stats, other_rate_per_us=0.0)
    assert abs(result.exponent) < 0.2


def test_partition_deterministic():
    m = synth_stationary((256, 256), 6.0, 10.0, seed=8)
    a = partition_sweep(m, [192.0, 384.0])
    b = partition_sweep(m, [192.0, 384.0])
    assert a[0].fwhms_khz == b[0].fwhms_khz
    assert a[1].as_dict() == b[1].as_dict()


def test_tile_offset_changes_tiling():
    m = synth_stationary((300, 300), 1.0, 10.0, seed=4)
    base = partition_sweep(m, [128.0])
    shifted = partition_sweep(m, [128.0], tile_offset=(13, 13))
    assert base[0].n_tiles == shifted[0].n_tiles == 4
    assert base[0].fwhms_khz != shifted[0].fwhms_khz
