"""Strain-map statistics: histograms, Lorentzian linewidths, and the
sensor-size scaling of an effective sensitivity metric.

A strain map holds per-pixel frequency shifts (kHz) of one NV orientation.
The width of their distribution sets the strain dephasing rate; partitioning
the map into square tiles of side L and repeating the analysis shows how
that width grows with sensor size, and the metric 1/(T2_eff * L) quantifies
whether enlarging the sensor keeps paying off.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import least_squares  # perfbench wraps it to count tile fits; goes with a batched fit
from .dephasing import strain_rate_from_fwhm
from .errors import ComputationError, ValidationError

ORIENTATIONS = ("nv1", "nv2", "nv3", "nv4")

_MIN_PIXELS_FOR_FIT = 100
_MIN_TILE_PIXELS = 4
_HISTOGRAM_HALF_RANGE_IQR = 20.0
# The solver's trust-region step squares dot products of the parameter
# vector, so the largest parameter, the amplitude peak count x (FWHM/2)^2,
# meets its fourth power; keep that 256 times below the largest double.
_MAX_AMPLITUDE = (sys.float_info.max / 256.0) ** 0.25


@dataclass
class StrainMap:
    """2-D grid of strain-induced frequency shifts, kHz."""

    values: np.ndarray
    pixel_pitch_um: float
    mask: Optional[np.ndarray] = None  # True = valid pixel
    orientation: str = "nv1"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValidationError("strain map must be 2-D")
        if not self.pixel_pitch_um > 0:
            raise ValidationError(f"pixel pitch must be > 0, got {self.pixel_pitch_um}")
        if self.orientation not in ORIENTATIONS:
            raise ValidationError(
                f"orientation must be one of {ORIENTATIONS}, got {self.orientation!r}"
            )
        if self.mask is None:
            self.mask = np.isfinite(self.values)
        else:
            self.mask = np.asarray(self.mask, dtype=bool)
            if self.mask.shape != self.values.shape:
                raise ValidationError("mask shape differs from map shape")
            self.mask = self.mask & np.isfinite(self.values)
        if not self.mask.any():
            raise ValidationError("strain map has no valid pixels")

    @property
    def valid_values(self) -> np.ndarray:
        return self.values[self.mask]


@dataclass(frozen=True)
class LorentzianFit:
    center_khz: float
    fwhm_khz: float
    amplitude: float
    offset: float
    residual_rms: float

    def as_dict(self) -> dict:
        return {
            "center_khz": self.center_khz,
            "fwhm_khz": self.fwhm_khz,
            "amplitude": self.amplitude,
            "offset": self.offset,
            "residual_rms": self.residual_rms,
        }


def _check_bin_width(bin_width: Optional[float]) -> None:
    if bin_width is not None and not 0 < bin_width < math.inf:
        raise ValidationError(f"bin width must be finite and > 0, got {bin_width}")


def _out_of_range(bin_width) -> ValidationError:
    return ValidationError(
        f"bin width {bin_width:g} kHz takes the Lorentzian fit out of floating-point range"
    )


def _histogram_edges(n_values: int, q25, q50, q75, bin_width: Optional[float]):
    iqr = q75 - q25
    if bin_width is None:
        # Freedman-Diaconis; heavy-tailed inputs are windowed around the
        # median so the bin count stays proportionate to the core.
        if iqr <= 0:
            raise ComputationError("under-resolved linewidth: zero interquartile range")
        bin_width = 2.0 * iqr / n_values ** (1.0 / 3.0)
    half = _HISTOGRAM_HALF_RANGE_IQR * max(iqr, bin_width)
    lo, hi = q50 - half, q50 + half
    if not math.isfinite(hi - lo):
        raise _out_of_range(bin_width)
    n_bins = int(np.ceil((hi - lo) / bin_width))
    n_bins = min(max(n_bins, 8), 200_000)
    return np.linspace(lo, hi, n_bins + 1)


def _lorentzian_residual_and_jacobian(centers, counts):
    def resid(x):
        f0, fwhm, amp, off = x
        return amp / ((centers - f0) ** 2 + (fwhm / 2.0) ** 2) + off - counts

    def jac(x):
        f0, fwhm, amp, off = x
        den = (centers - f0) ** 2 + (fwhm / 2.0) ** 2
        return np.stack(
            [
                amp * 2.0 * (centers - f0) / den**2,
                -amp * (fwhm / 2.0) / den**2,
                1.0 / den,
                np.ones_like(centers),
            ],
            axis=1,
        )

    return resid, jac


def histogram_fwhm(
    values,
    bin_width_khz: Optional[float] = None,
) -> LorentzianFit:
    """Histogram a 1-D array of shifts and fit a Lorentzian; returns the FWHM.

    Non-finite entries are dropped. Binning is Freedman-Diaconis unless a
    fixed width is given; initialization uses the sample median and
    interquartile range, so the fit is deterministic.
    """
    values = np.asarray(values, dtype=float)
    values = values[np.isfinite(values)]
    if len(values) < _MIN_PIXELS_FOR_FIT:
        raise ValidationError(
            f"need >= {_MIN_PIXELS_FOR_FIT} valid pixels, got {len(values)}"
        )
    _check_bin_width(bin_width_khz)
    q25, q50, q75 = np.percentile(values, [25.0, 50.0, 75.0])
    edges = _histogram_edges(len(values), q25, q50, q75, bin_width_khz)
    counts, _ = np.histogram(values, bins=edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    counts = counts.astype(float)
    bin_w = edges[1] - edges[0]

    fwhm0 = max(q75 - q25, bin_w)
    resid, jac = _lorentzian_residual_and_jacobian(centers, counts)
    # an overwide bin width overflows the initial point, residuals or
    # Jacobian; refuse it here rather than inside the solver
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x0 = np.array([q50, fwhm0, max(counts.max(), 1.0) * (fwhm0 / 2.0) ** 2, 0.0])
        finite = np.isfinite(resid(x0)).all() and np.isfinite(jac(x0)).all()
    if not finite:
        raise _out_of_range(bin_w)
    if not x0[2] < _MAX_AMPLITUDE:
        raise ValidationError(
            f"bin width {bin_w:g} kHz takes the Lorentzian fit out of floating-point "
            f"range: its amplitude, peak count x (FWHM/2)^2 = {x0[2]:.3g}, must stay "
            f"below (largest double / 256)^(1/4) = {_MAX_AMPLITUDE:.3g}"
        )
    result = least_squares(
        resid,
        x0,
        jac=jac,
        bounds=([-np.inf, 1e-12, 0.0, -np.inf], [np.inf, np.inf, np.inf, np.inf]),
        xtol=1e-10,
        ftol=1e-10,
        max_nfev=400,
    )
    f0, fwhm, amp, off = result.x
    if fwhm < bin_w:
        raise ComputationError(
            f"under-resolved linewidth: fitted FWHM {fwhm:g} kHz is below "
            f"one bin width {bin_w:g} kHz"
        )
    return LorentzianFit(
        center_khz=float(f0),
        fwhm_khz=float(fwhm),
        amplitude=float(amp),
        offset=float(off),
        residual_rms=float(np.sqrt(np.mean(result.fun**2))),
    )


@dataclass(frozen=True)
class PartitionStats:
    """Linewidth statistics across the square tiles of one sensor size.

    Quantile fields are populated only when more than five tiles
    contributed.
    """

    size_um: float
    fwhms_khz: tuple
    n_tiles: int
    n_skipped: int
    minimum: float = field(init=False)
    median: float = field(init=False)
    p10: Optional[float] = field(init=False)
    p25: Optional[float] = field(init=False)
    p75: Optional[float] = field(init=False)
    p90: Optional[float] = field(init=False)

    def __post_init__(self):
        fw = np.asarray(self.fwhms_khz, dtype=float)
        object.__setattr__(self, "minimum", float(fw.min()))
        object.__setattr__(self, "median", float(np.median(fw)))
        if len(fw) > 5:
            p10, p25, p75, p90 = np.percentile(fw, [10.0, 25.0, 75.0, 90.0])
            object.__setattr__(self, "p10", float(p10))
            object.__setattr__(self, "p25", float(p25))
            object.__setattr__(self, "p75", float(p75))
            object.__setattr__(self, "p90", float(p90))
        else:
            for name in ("p10", "p25", "p75", "p90"):
                object.__setattr__(self, name, None)

    def as_dict(self) -> dict:
        return {
            "size_um": self.size_um,
            "n_tiles": self.n_tiles,
            "n_skipped": self.n_skipped,
            "min_khz": self.minimum,
            "median_khz": self.median,
            "p10_khz": self.p10,
            "p25_khz": self.p25,
            "p75_khz": self.p75,
            "p90_khz": self.p90,
        }


def partition_sweep(
    strain_map: StrainMap,
    sizes_um: Sequence[float],
    tile_offset: tuple = (0, 0),
    bin_width_khz: Optional[float] = None,
) -> list:
    """Tile the map at each sensor size and fit every tile.

    Tiles are anchored at the map origin (plus tile_offset pixels); partial
    edge tiles are discarded. Each tile is mean-subtracted before its
    histogram fit. Tiles with too few valid pixels or unresolvable widths
    are skipped and counted; a bad bin width is refused up front.
    """
    _check_bin_width(bin_width_khz)
    h, w = strain_map.values.shape
    pitch = strain_map.pixel_pitch_um
    off_r, off_c = int(tile_offset[0]), int(tile_offset[1])
    if off_r < 0 or off_c < 0:
        raise ValidationError(f"tile offset must be >= 0 px, got {tile_offset}")
    stats = []
    for size in sizes_um:
        n_px = int(round(size / pitch))
        if n_px < _MIN_TILE_PIXELS:
            raise ValidationError(
                f"tile size {size:g} um spans {n_px} px; need >= {_MIN_TILE_PIXELS}"
            )
        if n_px > min(h - off_r, w - off_c):
            raise ValidationError(
                f"tile size {size:g} um ({n_px} px) exceeds the map extent"
            )
        fwhms = []
        skipped = 0
        total = 0
        for i in range(off_r, h - n_px + 1, n_px):
            for k in range(off_c, w - n_px + 1, n_px):
                total += 1
                tile_vals = strain_map.values[i : i + n_px, k : k + n_px]
                tile_mask = strain_map.mask[i : i + n_px, k : k + n_px]
                vals = tile_vals[tile_mask]
                if len(vals) < _MIN_PIXELS_FOR_FIT:
                    skipped += 1
                    continue
                try:
                    fit = histogram_fwhm(vals - vals.mean(), bin_width_khz)
                except ComputationError:
                    skipped += 1
                    continue
                fwhms.append(fit.fwhm_khz)
        if not fwhms:
            raise ComputationError(
                f"no tile of size {size:g} um produced a usable linewidth"
            )
        stats.append(
            PartitionStats(
                size_um=float(size),
                fwhms_khz=tuple(fwhms),
                n_tiles=total,
                n_skipped=skipped,
            )
        )
    return stats


@dataclass(frozen=True)
class ScalingResult:
    sizes_um: tuple
    median_fwhm_khz: tuple
    t2_eff_us: tuple
    metric: tuple  # 1 / (T2_eff * L)
    exponent: float
    exponent_sigma: float

    def as_dict(self) -> dict:
        return {
            "sizes_um": list(self.sizes_um),
            "median_fwhm_khz": list(self.median_fwhm_khz),
            "t2_eff_us": list(self.t2_eff_us),
            "metric_per_us_um": list(self.metric),
            "exponent": self.exponent,
            "exponent_sigma": self.exponent_sigma,
        }


def scaling_metric(stats: Sequence[PartitionStats], other_rate_per_us: float) -> ScalingResult:
    """Effective-sensitivity scaling versus sensor size, with power-law fit.

    T2_eff(L) combines the supplied non-strain dephasing rate with the
    strain rate of the median tile linewidth at each size; the metric is
    1/(T2_eff * L) and the exponent comes from a straight-line fit in
    log-log space (median values only).
    """
    if len(stats) < 3:
        raise ValidationError(f"need >= 3 sensor sizes, got {len(stats)}")
    if not 0 <= other_rate_per_us < math.inf:
        raise ValidationError(
            f"other_rate_per_us must be finite and >= 0, got {other_rate_per_us}"
        )
    sizes = np.array([s.size_um for s in stats], dtype=float)
    medians = np.array([s.median for s in stats], dtype=float)
    rates = other_rate_per_us + np.array(
        [strain_rate_from_fwhm(m) for m in medians]
    )
    if np.any(rates <= 0):
        raise ComputationError("total dephasing rate vanished; metric undefined")
    t2_eff = 1.0 / rates
    metric = 1.0 / (t2_eff * sizes)
    coeffs, cov = np.polyfit(np.log(sizes), np.log(metric), 1, cov=True)
    return ScalingResult(
        sizes_um=tuple(sizes),
        median_fwhm_khz=tuple(medians),
        t2_eff_us=tuple(t2_eff),
        metric=tuple(metric),
        exponent=float(coeffs[0]),
        exponent_sigma=float(np.sqrt(max(cov[0, 0], 0.0))),
    )


# Largest synthetic map, in pixels: 4096^2, 128 MiB of shifts.
MAX_MAP_PIXELS = 4096 * 4096


def _check_synth_shape(shape) -> None:
    rows, cols = (int(n) for n in shape)
    if rows * cols > MAX_MAP_PIXELS:
        raise ValidationError(
            f"map of {rows}x{cols} = {rows * cols:,} pixels exceeds the "
            f"{MAX_MAP_PIXELS:,}-pixel limit"
        )


def synth_stationary(
    shape: tuple,
    pixel_pitch_um: float,
    scale_khz: float,
    seed: Optional[int] = None,
) -> StrainMap:
    """Spatially uniform test map: i.i.d. Cauchy shifts of given scale.

    The shift distribution is Lorentzian with FWHM = 2 * scale_khz at every
    sensor size, so linewidth statistics should not depend on tiling.
    """
    _check_synth_shape(shape)
    rng = np.random.default_rng(seed)
    values = scale_khz * rng.standard_cauchy(size=shape)
    return StrainMap(values=values, pixel_pitch_um=pixel_pitch_um)


# Share of each linear dimension taken by the hot square of synth_two_region.
_HOT_FRACTION = 0.25


def synth_two_region(
    shape: tuple,
    pixel_pitch_um: float,
    scale_khz: float,
    hot_scale_khz: float,
    seed: Optional[int] = None,
) -> StrainMap:
    """Test map with one high-strain square region in a quiet background.

    The hot square occupies _HOT_FRACTION of each linear dimension in the
    lower-right corner and carries both a broader shift distribution and a
    linear gradient, mimicking an isolated dislocation bundle.
    """
    _check_synth_shape(shape)
    rng = np.random.default_rng(seed)
    values = scale_khz * rng.standard_cauchy(size=shape)
    h, w = shape
    hot_h, hot_w = int(h * _HOT_FRACTION), int(w * _HOT_FRACTION)
    hot = hot_scale_khz * rng.standard_cauchy(size=(hot_h, hot_w))
    ramp = np.linspace(0.0, 4.0 * hot_scale_khz, hot_w)
    values[h - hot_h :, w - hot_w :] = hot + ramp[None, :]
    return StrainMap(values=values, pixel_pitch_um=pixel_pitch_um)
