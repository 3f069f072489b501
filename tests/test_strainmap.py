import math
import tracemalloc

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from nvsk import dataio, strainmap
from nvsk.cli import main
from nvsk.errors import ComputationError, ValidationError
from nvsk.strainmap import (
    MAX_MAP_PIXELS,
    LorentzianFit,
    StrainMap,
    full_map_fwhm,
    histogram_fwhm,
    partition_sweep,
    scaling_metric,
    synth_stationary,
    synth_two_region,
)


def test_all_masked_rejected():
    with pytest.raises(ValidationError, match="no valid pixels"):
        StrainMap(values=np.full((5, 5), np.nan), pixel_pitch_um=1.0)


@pytest.mark.parametrize("pitch", [0.0, math.nan, math.inf])
def test_pixel_pitch_must_be_finite_and_positive(pitch):
    # an infinite pitch was accepted when only > 0 was checked
    with pytest.raises(ValidationError, match="pixel pitch must be finite and > 0 um"):
        StrainMap(values=np.zeros((5, 5)), pixel_pitch_um=pitch)


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
    # the histogram range or the start amplitude overflows, or the
    # amplitude passes its bound
    values = np.random.default_rng(0).standard_cauchy(1000)
    with pytest.raises(ValidationError, match="out of floating-point range"):
        histogram_fwhm(values, bin_width_khz=width)


def test_fit_refuses_an_amplitude_whose_fourth_power_overflows():
    # finite residuals and Jacobian, but the solver squares amplitude^2
    values = np.random.default_rng(0).standard_cauchy(1000)
    with pytest.raises(ValidationError, match=r"amplitude, peak count x \(FWHM/2\)\^2"):
        histogram_fwhm(values, bin_width_khz=1e40)


def test_fit_below_the_fwhm_bound_starts_on_the_bound():
    # zero interquartile range and a 1e-13 kHz width: max(iqr, width) lies
    # below the 1e-12 kHz FWHM bound, so the start point is raised to it
    [stack], errors = strainmap._finite_histogram(np.full(200, 3.0), 1e-13)
    assert not errors and stack.x0[0, 1] == 1e-12
    fit = histogram_fwhm(np.full(200, 3.0), bin_width_khz=1e-13)
    assert fit.center_khz == 3.0 and fit.fwhm_khz >= 1e-12


@pytest.mark.parametrize("synth", [synth_stationary, synth_two_region])
def test_synth_refuses_a_map_above_the_pixel_limit(synth):
    args = (6.0, 10.0) if synth is synth_stationary else (6.0, 10.0, 60.0)
    with pytest.raises(ValidationError, match="at most 16,777,216 pixels, got 10,000,000,000"):
        synth((100_000, 100_000), *args)
    with pytest.raises(ValidationError, match="at most 16,777,216 pixels"):
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
        with pytest.raises(ValidationError, match="tile offset must be finite and >= 0 px"):
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


def _map_with_holes(synth, seed):
    """A 256^2 map at 6 um pitch with a NaN block and scattered NaN pixels,
    so tiles differ in their counts of valid pixels."""
    args = (6.0, 10.0) if synth is synth_stationary else (6.0, 10.0, 60.0)
    values = synth((256, 256), *args, seed=seed).values.copy()
    values[:75, :50] = np.nan
    values[np.random.default_rng(seed).random(values.shape) < 0.02] = np.nan
    return StrainMap(values=values, pixel_pitch_um=6.0)


def _numpy_edges(shifts, bin_width_khz):
    """The quartiles and histogram edges of one array of finite shifts by
    np.percentile and np.linspace, or None where Freedman-Diaconis binning
    meets a zero interquartile range."""
    q25, q50, q75 = np.percentile(shifts, [25.0, 50.0, 75.0])
    iqr = q75 - q25
    if bin_width_khz is None:
        if iqr <= 0:
            return None
        bin_width_khz = 2.0 * iqr / len(shifts) ** (1.0 / 3.0)
    half = 20.0 * max(iqr, bin_width_khz)
    lo, hi = q50 - half, q50 + half
    n_bins = max(int(np.ceil((hi - lo) / bin_width_khz)), 8)
    return (q25, q50, q75), np.linspace(lo, hi, n_bins + 1)


def _numpy_histogram(shifts, bin_width_khz):
    """The histogram of one array of finite shifts and its fit's start
    point (centers, counts, bin width, x0) by np.percentile, np.linspace
    and np.histogram: the reference for strainmap's one-sort path. None
    where Freedman-Diaconis binning meets a zero interquartile range."""
    binning = _numpy_edges(shifts, bin_width_khz)
    if binning is None:
        return None
    (q25, q50, q75), edges = binning
    counts = np.histogram(shifts, bins=edges)[0].astype(float)
    bin_w = edges[1] - edges[0]
    fwhm0 = max(q75 - q25, bin_w)
    x0 = np.array([q50, fwhm0, max(counts.max(), 1.0) * (fwhm0 / 2.0) ** 2, 0.0])
    return 0.5 * (edges[:-1] + edges[1:]), counts, bin_w, x0


def _per_tile_histograms(strain_map, n_px, offset, bin_width_khz):
    """Tile by tile, in a plain loop: the reference for
    strainmap._tile_histograms. Returns the histogram of each tile that
    has one, by the tile's index in scan order, and the count of tiles
    skipped."""
    h, w = strain_map.values.shape
    hists, skipped, tile = {}, 0, -1
    for i in range(offset, h - n_px + 1, n_px):
        for k in range(offset, w - n_px + 1, n_px):
            tile += 1
            pixels = strain_map.values[i : i + n_px, k : k + n_px]
            vals = pixels[np.isfinite(pixels)]
            if len(vals) < 100:
                skipped += 1
                continue
            with np.errstate(over="ignore"):
                shifts = vals - vals.mean()
            hist = _numpy_histogram(shifts[np.isfinite(shifts)], bin_width_khz)
            if hist is None:
                skipped += 1
            else:
                hists[tile] = hist
    return hists, skipped


def _by_row(stacks):
    """The histograms of stacks, (centers, counts, bin width, x0) each, by
    their row (or tile) index, in row order."""
    hists = {
        int(row): (s.centers[i], s.counts[i], s.bin_widths[i], s.x0[i])
        for s in stacks
        for i, row in enumerate(s.rows)
    }
    assert len(hists) == sum(len(s.rows) for s in stacks)  # no row twice
    return dict(sorted(hists.items()))


def _stack_of(hists):
    """A _Stack of histograms (centers, counts, bin width, x0) of one bin
    count, rows 0, 1, ..."""
    centers, counts, bin_widths, x0 = (np.array(part) for part in zip(*hists))
    return strainmap._Stack(np.arange(len(hists)), centers, counts, bin_widths, x0)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _assert_same_histograms(got, want):
    """got and want hold the same histograms, bit for bit, under the same
    keys in the same order."""
    assert list(got) == list(want)
    for key in want:
        for x, y in zip(got[key], want[key], strict=True):
            assert _same_bits(x, y)


@pytest.mark.parametrize("synth", [synth_stationary, synth_two_region])
@pytest.mark.parametrize("n_px, offset, bin_width", [(16, 0, None), (32, 7, None), (32, 3, 2.0)])
def test_tile_histograms_equal_the_per_tile_loop(synth, n_px, offset, bin_width):
    m = _map_with_holes(synth, seed=5)
    stacks, errors, n_tiles = strainmap._tile_histograms(m, n_px, offset, offset, bin_width)
    ref, ref_skipped = _per_tile_histograms(m, n_px, offset, bin_width)
    assert len({s.counts.shape[1] for s in stacks}) > 1  # several bin counts
    hists = _by_row(stacks)
    _assert_same_histograms(hists, ref)
    assert n_tiles - len(hists) == ref_skipped
    assert all(isinstance(e, ComputationError) for e in errors.values())


def _scipy_tile_fit(hist):
    c, y, _, x0 = hist

    def fun(x):
        f0, fwhm, amp, off = x
        return amp / ((c - f0) ** 2 + (fwhm / 2.0) ** 2) + off - y

    def jac(x):
        f0, fwhm, amp, off = x
        den = (c - f0) ** 2 + (fwhm / 2.0) ** 2
        return np.stack([amp * 2.0 * (c - f0) / den**2, -amp * (fwhm / 2.0) / den**2,
                         1.0 / den, np.ones_like(c)], axis=1)

    return scipy.optimize.least_squares(
        fun, x0, jac=jac, bounds=([-np.inf, 1e-12, 0.0, -np.inf], np.inf),
        xtol=1e-10, ftol=1e-10, max_nfev=400,
    )


@pytest.mark.parametrize(
    "synth, holes, bin_width",
    [(synth_stationary, False, None), (synth_two_region, False, None),
     (synth_two_region, True, 2.0)],
    ids=["synth_stationary", "synth_two_region", "holes-fixed-width"],
)
def test_every_tile_fit_matches_scipy(synth, holes, bin_width):
    if holes:
        m = _map_with_holes(synth, seed=5)
    else:
        args = (6.0, 10.0) if synth is synth_stationary else (6.0, 10.0, 60.0)
        m = synth((256, 256), *args, seed=2)
    spans_groups = False
    for n_px in (16, 32):
        stacks, errors, _ = strainmap._tile_histograms(m, n_px, 0, 0, bin_width)
        # with a fixed width, tiles of different valid-pixel counts (groups)
        # share a bin count, and each group is solved as its own stack
        spans_groups |= len(stacks) > len({s.counts.shape[1] for s in stacks})
        hists = _by_row(stacks)
        fitted = []
        for tiles, bin_w, result in strainmap._fit(stacks, errors):
            for row, tile in enumerate(tiles):
                assert bin_w[row] == hists[tile][2]
                ref = _scipy_tile_fit(hists[tile])
                assert result.nfevs[row] == ref.nfev
                np.testing.assert_allclose(result.x[row], ref.x, rtol=1e-12, atol=0)
                fitted.append(tile)
        assert sorted(fitted) == list(hists)  # every tile fitted once
    assert spans_groups == holes


def test_partition_skips_tiles_narrower_than_a_bin():
    # tiles 1 and 2 spread over about 0.02 kHz, far below a 1 kHz bin: their
    # fits are under-resolved, and the other two keep their own fits
    rng = np.random.default_rng(1)
    values = 10.0 * rng.standard_cauchy((64, 64))
    values[:32, 32:] = 0.01 * rng.standard_cauchy((32, 32))
    values[32:, :32] = 0.02 * rng.standard_cauchy((32, 32))
    stats = partition_sweep(StrainMap(values=values, pixel_pitch_um=1.0), [32.0],
                            bin_width_khz=1.0)[0]
    assert (stats.n_tiles, stats.n_skipped) == (4, 2)
    tiles = [values[:32, :32], values[32:, 32:]]
    assert stats.fwhms_khz == tuple(
        histogram_fwhm(strainmap.mean_subtracted(t.ravel()), 1.0).fwhm_khz for t in tiles
    )
    with pytest.raises(ComputationError, match="below one bin width"):
        histogram_fwhm(strainmap.mean_subtracted(values[:32, 32:].ravel()), 1.0)


def test_partition_sweep_memory_stays_within_the_fit_stacks():
    # 64 tiles holding the same 256 shifts, so their histograms share one
    # bin count: about 4,700 bins of 0.2 kHz, 300k in all. A stack of
    # _FIT_CELLS = 32k bins holds about 1 MiB per parameter-wide array,
    # and the 64 histograms take 5 MB; one stack of all 64 would take
    # some 9 times the solver's share.
    rng = np.random.default_rng(4)
    shifts = 10.0 * rng.standard_cauchy(256)
    tiles = np.array([rng.permutation(shifts).reshape(16, 16) for _ in range(64)])
    values = tiles.reshape(8, 8, 16, 16).swapaxes(1, 2).reshape(128, 128)
    m = StrainMap(values=values, pixel_pitch_um=1.0)
    tracemalloc.start()
    try:
        stats = partition_sweep(m, [16.0], bin_width_khz=0.2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stats[0].n_tiles == 64 and stats[0].n_skipped == 0
    assert peak < 24e6


def test_partition_refuses_the_first_out_of_range_tile_in_scan_order():
    # at 1e40 kHz every tile's amplitude passes its bound; the message
    # carries the tile's own peak count, which the holes make differ from
    # tile to tile
    m = _map_with_holes(synth_stationary, seed=5)
    with pytest.raises(ValidationError, match="amplitude") as caught:
        partition_sweep(m, [192.0], bin_width_khz=1e40)
    row, col = divmod(min(_per_tile_histograms(m, 32, 0, 1e40)[0]), 256 // 32)
    tile = m.values[32 * row : 32 * row + 32, 32 * col : 32 * col + 32]
    shifts = np.sort(strainmap.mean_subtracted(tile[np.isfinite(tile)]))
    stacks, errors = strainmap._histograms(shifts[None, :], 1e40)
    assert stacks == [] and str(caught.value) == str(errors[0])


@pytest.mark.parametrize("bin_width", [None, 0.5])
def test_full_map_histogram_equals_numpy(bin_width):
    # the full-map fit histograms its finite shifts as a group of one tile
    m = _map_with_holes(synth_two_region, seed=6)
    valid = m.valid_values
    shifts = strainmap.mean_subtracted(valid)
    assert np.array_equal(shifts, valid - valid.mean())
    with_gaps = np.concatenate([[np.inf], shifts[:500], [np.nan, -np.inf], shifts[500:]])
    want = _numpy_histogram(shifts, bin_width)
    stacks, errors = strainmap._finite_histogram(with_gaps, bin_width)
    assert errors == {}
    _assert_same_histograms(_by_row(stacks), {0: want})
    [(_, _, fit)] = strainmap._fit([_stack_of([want])], {})
    got = histogram_fwhm(with_gaps, bin_width)
    assert (got.center_khz, got.fwhm_khz, got.amplitude, got.offset) == tuple(fit.x[0])


def _outcome(fit, *args):
    """fit(*args) as the LorentzianFit it returns or the (type, message) of
    the error it raises."""
    try:
        return fit(*args)
    except (ComputationError, ValidationError) as e:
        return type(e), str(e)


def _overflowing_map():
    # 127 equal shifts and one that, less their finite mean, overflows
    values = np.full((4, 32), 2.2e306)
    values[0, 0] = -1.79e308
    values[1:, 5] += np.linspace(1e304, 1e305, 3)
    return values


@pytest.mark.parametrize("case, bin_width", [("holes", None), ("holes", 0.5), ("overflow", None)])
def test_full_map_fwhm_equals_histogram_fwhm_of_the_mean_subtracted_shifts(case, bin_width):
    if case == "holes":
        m = _map_with_holes(synth_two_region, seed=6)
    else:
        m = StrainMap(values=_overflowing_map(), pixel_pitch_um=1.0)
        with np.errstate(over="ignore"):
            assert not np.isfinite(strainmap.mean_subtracted(m.valid_values)).all()
    before = m.values.copy()
    want = _outcome(histogram_fwhm, strainmap.mean_subtracted(m.valid_values), bin_width)
    assert _outcome(full_map_fwhm, m, bin_width) == want
    assert isinstance(want, LorentzianFit) == (case == "holes")
    assert _same_bits(m.values, before)


def _four_tiles(seed):
    """A 64^2 map at 1 um pitch: four 32-px tiles of Cauchy shifts."""
    return synth_stationary((64, 64), 1.0, 10.0, seed=seed).values.copy()


def test_partition_refuses_the_first_tile_whose_mean_overflows():
    # tile 1 has 1,024 valid pixels and tile 3 1,000, so tile 3's group of
    # equal counts comes first, but tile 1 comes first in scan order
    values = _four_tiles(seed=1)
    values[:32, 32:] = 1e308  # the sum of the shifts overflows
    values[32:, 32:] = -1e308
    values[32:35, 32:40] = np.nan
    m = StrainMap(values=values, pixel_pitch_um=1.0)
    with pytest.raises(ValidationError) as caught:
        partition_sweep(m, [32.0])
    assert str(caught.value) == (
        "strain shifts overflow: the mean of 1,024 valid pixels is not finite"
    )
    with pytest.raises(ValidationError, match="strain shifts overflow"):
        strainmap.mean_subtracted(values[32:, 32:].ravel())


def test_tile_with_overflowing_shifts_drops_them():
    # a finite mean, 7.8e305, but the one large negative value less that
    # mean overflows; the 127 equal shifts left have no spread: skipped
    values = _four_tiles(seed=2)
    values[:32, 32:] = np.nan
    values[:4, 32:] = 2.2e306
    values[0, 32] = -1.79e308
    tile = values[:4, 32:].ravel()
    with np.errstate(over="ignore"):
        mean = tile.mean()
        assert np.isfinite(mean) and np.isfinite(tile - mean).sum() == 127
    m = StrainMap(values=values, pixel_pitch_um=1.0)
    stacks, errors, n_tiles = strainmap._tile_histograms(m, 32, 0, 0, None)
    ref, ref_skipped = _per_tile_histograms(m, 32, 0, None)
    assert ref_skipped == 1 and list(errors) == [1]
    assert isinstance(errors[1], ComputationError)
    _assert_same_histograms(_by_row(stacks), ref)
    assert n_tiles == 4


def test_a_bin_count_past_its_cap_is_refused():
    # a histogram spans 40 interquartile ranges in at most 200,000 bins; at
    # 5e-324 kHz, (hi - lo) / width overflows, at 1e-300 it does not
    rows = np.sort(np.random.default_rng(0).standard_cauchy(1000))[None, :]
    span = 40.0 * np.subtract(*np.percentile(rows, [75.0, 25.0]))
    assert len(_by_row(strainmap._histograms(rows, span / 150_000)[0])[0][1]) == 150_000
    for width, needed in [(span / 250_000, "250000"), (1e-300, f"{span / 1e-300:.6g}"),
                          (5e-324, "inf")]:
        stacks, errors = strainmap._histograms(rows, width)
        assert stacks == [] and isinstance(errors[0], ValidationError)
        assert str(errors[0]) == (
            f"bin width {width:g} kHz needs {needed} bins to span the {span:g} kHz "
            "histogram range; a histogram holds at most 200,000"
        )


# Bit-for-bit properties of the one-sort statistics against numpy. Shifts
# are Cauchy draws, rounded to a grid when ties are wanted; no draw is -0.0,
# since a sort and a partition may leave either of two tied zeros of
# opposite sign in place.
_shift_draws = st.tuples(
    st.integers(0, 2**32 - 1),  # seed
    st.integers(100, 3000),  # row length
    st.sampled_from([None, 1.0, 0.25]),  # tie grid, kHz
)


def _shifts(seed, n, grid, rows=None):
    rng = np.random.default_rng(seed)
    values = 10.0 * rng.standard_cauchy(n if rows is None else (rows, n))
    if grid is not None:
        values = np.round(values / grid) * grid
    return values + 0.0  # no -0.0


@settings(max_examples=100, deadline=None)
@given(draw=_shift_draws, rows=st.integers(1, 5))
def test_sorted_quartiles_equal_percentile(draw, rows):
    values = _shifts(*draw, rows=rows)
    want = np.percentile(values, [25.0, 50.0, 75.0], axis=1)
    got = strainmap._sorted_quartiles(np.sort(values, axis=1))
    assert _same_bits(np.array(got), want)


@settings(max_examples=200, deadline=None)
@given(
    lo=st.floats(-1e6, 1e6),
    width=st.floats(1e-6, 1e6),
    num=st.integers(9, 4001),
    rows=st.integers(1, 4),
)
def test_linspace_rows_equal_linspace(lo, width, num, rows):
    lo = lo + np.arange(rows) * width
    hi = lo + width * np.linspace(1.0, 2.0, rows)
    want = np.array([np.linspace(a, b, num) for a, b in zip(lo, hi)])
    assert _same_bits(strainmap._linspace_rows(lo, hi, num), want)


@settings(max_examples=200, deadline=None)
@given(draw=_shift_draws, num=st.integers(9, 400), data=st.data())
def test_sorted_counts_equal_histogram(draw, num, data):
    # edges over part of the values' range, some values set on interior
    # edges and on the last edge, the rest in range or outside it
    values = _shifts(*draw)
    lo, hi = np.percentile(values, sorted(data.draw(st.lists(
        st.floats(0.0, 100.0), min_size=2, max_size=2, unique=True))))
    edges = np.linspace(lo, hi, num)
    on_edges = data.draw(st.lists(st.integers(1, num - 1), max_size=50))
    values[: len(on_edges)] = edges[on_edges]
    values[len(on_edges)] = edges[-1]
    want = np.histogram(values, bins=edges)[0]
    assert np.array_equal(strainmap._sorted_counts(np.sort(values), edges), want)


@settings(max_examples=100, deadline=None)
@given(draw=_shift_draws, bin_width=st.one_of(st.none(), st.floats(0.01, 50.0)),
       data=st.data())
def test_histograms_equal_numpy(draw, bin_width, data):
    # Values below the order statistics that make the lower quartile, or
    # above those that make the upper one, can move onto edges without
    # moving the quartiles, so the edges stay put.
    values = _shifts(*draw)
    binning = _numpy_edges(values, bin_width)
    if binning is not None:
        edges = binning[1]
        n, order = len(values), np.sort(values)
        low, high = order[(n - 1) // 4], order[3 * (n - 1) // 4 + 1]
        targets = np.concatenate(
            [edges[edges < low], edges[edges > high], [edges[0] - 1.0, edges[-1] + 1.0]]
        )
        movable = np.flatnonzero((values < low) | (values > high))
        picks = data.draw(st.lists(st.integers(0, len(targets) - 1), max_size=200))
        for position, pick in zip(movable, picks):
            if (values[position] < low) == (targets[pick] < low):
                values[position] = targets[pick]
        assert np.array_equal(_numpy_edges(values, bin_width)[1], edges)
    want = _numpy_histogram(values, bin_width)
    stacks, errors = strainmap._histograms(np.sort(values)[None, :], bin_width)
    if want is None:
        assert stacks == [] and isinstance(errors[0], ComputationError)
    else:
        assert errors == {}
        _assert_same_histograms(_by_row(stacks), {0: want})


_powers_of_ten = lambda lo, hi: st.floats(lo, hi).map(lambda e: 10.0**e)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            # the centre, 1e-300 to 1e308 kHz; half of them where accepted
            # and refused rows meet, below and above about 1e54 kHz
            st.one_of(_powers_of_ten(-300, 308), _powers_of_ten(30, 60)),
            st.sampled_from([1.0, -1.0]),  # its sign
            st.one_of(st.just(0.0), _powers_of_ten(-20, 1)),  # the spread, by the centre
        ),
        min_size=1, max_size=3,
    ),
    n=st.integers(2, 300),
    seed=st.integers(0, 2**32 - 1),
    bin_width=st.one_of(st.none(), _powers_of_ten(-323, 308)),
)
def test_histograms_accept_only_fits_that_start_in_range(rows, n, seed, bin_width):
    # The guarantee _fit relies on instead of a check of its own: every row
    # _histograms accepts has strictly increasing edges, finite residuals
    # and Jacobian at x0, and start parameters below _MAX_AMPLITUDE; every
    # other row has its error.
    rng = np.random.default_rng(seed)
    big = np.finfo(float).max
    with np.errstate(over="ignore", invalid="ignore"):
        shifts = np.array([sign * centre * (1.0 + spread * rng.standard_cauchy(n))
                           for centre, sign, spread in rows])
    shifts = np.sort(np.clip(shifts, -big, big), axis=1)
    stacks, errors = strainmap._histograms(shifts, bin_width)
    accepted = [int(row) for stack in stacks for row in stack.rows]
    assert sorted(accepted + list(errors)) == list(range(len(rows)))
    for stack in stacks:
        resid, jac = strainmap._lorentzian_residual_and_jacobian(stack.centers, stack.counts)
        every = np.arange(len(stack.rows))
        assert np.isfinite(resid(stack.x0, every)).all()
        assert np.isfinite(jac(stack.x0, every)).all()
        assert (np.abs(stack.x0) < strainmap._MAX_AMPLITUDE).all()
        for row in stack.rows:
            edges = _numpy_edges(shifts[row], bin_width)[1]
            assert (np.diff(edges) > 0).all()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_px=st.integers(10, 50),
    offset=st.integers(0, 5),
    bin_width=st.sampled_from([None, 0.5, 2.0]),
    data=st.data(),
)
def test_banded_tile_fits_equal_each_tile_fitted_alone(seed, n_px, offset, bin_width, data):
    # maps of at most 160^2 whose tiles span at least three bands: Cauchy
    # shifts, a NaN block, and about 5 % of NaNs scattered over the left
    # half, so that tiles of the right half, whole, group across bands
    h = data.draw(st.integers(offset + 3 * n_px, 160), label="rows")
    w = data.draw(st.integers(offset + n_px, 160), label="cols")
    rng = np.random.default_rng(seed)
    values = 10.0 * rng.standard_cauchy((h, w))
    r0, c0 = rng.integers(0, h), rng.integers(0, w)
    values[r0 : r0 + rng.integers(0, h // 2 + 1), c0 : c0 + rng.integers(0, w // 2 + 1)] = np.nan
    values[:, : w // 2][rng.random((h, w // 2)) < 0.1] = np.nan
    want, n_tiles = [], 0
    for i in range(offset, h - n_px + 1, n_px):
        for k in range(offset, w - n_px + 1, n_px):
            n_tiles += 1
            tile = values[i : i + n_px, k : k + n_px]
            valid = tile[np.isfinite(tile)]
            if len(valid) >= 100:
                fit = _outcome(histogram_fwhm, strainmap.mean_subtracted(valid), bin_width)
                if isinstance(fit, LorentzianFit):
                    want.append(fit.fwhm_khz)
    m = StrainMap(values=values, pixel_pitch_um=1.0)
    sweep = lambda: partition_sweep(m, [float(n_px)], (offset, offset), bin_width)[0]
    if not want:
        with pytest.raises(ComputationError, match="no tile"):
            sweep()
        return
    stats = sweep()
    assert stats.n_tiles == n_tiles
    assert _same_bits(stats.fwhms_khz, want)


# The benchmark's strain maps and sensor sizes: 1024^2 shifts at 3 um
# pitch, tiles of 32 to 512 px.
_BENCH_SIZES = "96:1536:log:5"


def _bench_map():
    return synth_two_region((1024, 1024), 3.0, 10.0, 60.0, seed=0)


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_partition_sweep_peak_is_about_one_band_and_the_stacks():
    # one band's copies and the fit stacks; three copies of the whole map
    # would pass 3 times its bytes
    m = _bench_map()
    sizes = [96.0 * 2**k for k in range(5)]
    peak = _traced_peak(lambda: partition_sweep(m, sizes))
    assert peak <= 2 * m.values.nbytes


def test_strain_analyze_peak_is_about_the_map_one_band_and_the_stacks(tmp_path):
    # the map, one band of tiles, the fit stacks; the whole-map fit holds
    # one copy of the valid shifts
    m = _bench_map()
    path = tmp_path / "map.csv"
    dataio.save_strain_map(m, path)
    argv = ["strain", "analyze", str(path), "--sizes", _BENCH_SIZES,
            "--other-rate-per-us", "0.05", "--out", str(tmp_path / "out.json")]
    peak = _traced_peak(lambda: main(argv))
    assert (tmp_path / "out.json").is_file()
    assert peak <= 3 * m.values.nbytes
