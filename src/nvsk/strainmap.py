"""Strain-map statistics: histograms, Lorentzian linewidths, and the
sensor-size scaling of an effective sensitivity metric.

A strain map holds per-pixel frequency shifts (kHz) of one NV orientation.
The width of their distribution sets the strain dephasing rate; partitioning
the map into square tiles of side L and repeating the analysis shows how
that width grows with sensor size, and the metric 1/(T2_eff * L) quantifies
whether enlarging the sensor keeps paying off.

Range: _histograms refuses, where it builds them, the histograms whose
fit would leave the floating-point range (see its rule); _fit only solves.

Memory: the map is read one band of tiles (n_px rows) at a time, so a
partition sweep holds, besides the map, about one band's copies and the
histogram stacks of one tile size; full_map_fwhm holds one copy of the
valid shifts. On a 1024^2 map at the benchmark's sizes, partition_sweep
peaks at about 1.6 times the map's bytes above it, most of that the fit
solver's share of the stacks.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import capped_count, least_squares, non_negative, positive, scalar_pow
from .dephasing import strain_rate_from_fwhm
from .errors import ComputationError, ValidationError

ORIENTATIONS = ("nv1", "nv2", "nv3", "nv4")

_MIN_PIXELS_FOR_FIT = 100
_MIN_TILE_PIXELS = 4
_HISTOGRAM_HALF_RANGE_IQR = 20.0
# Most bins one histogram holds. Freedman-Diaconis binning of n shifts
# needs _HISTOGRAM_HALF_RANGE_IQR x n^(1/3) of them, about 5,100 at
# MAX_MAP_PIXELS; a fixed width below IQR / 5,000 needs more and is refused.
_MAX_BINS = 200_000
# The solver's trust-region step squares dot products of the parameter
# vector, so the largest parameter, the amplitude peak count x (FWHM/2)^2,
# meets its fourth power; keep that 256 times below the largest double.
_MAX_AMPLITUDE = (sys.float_info.max / 256.0) ** 0.25
_MIN_FWHM = 1e-12
_FIT_BOUNDS = ([-np.inf, _MIN_FWHM, 0.0, -np.inf], np.inf)  # FWHM > 0, amplitude >= 0
# Most histogram bins (fits x bins) one stacked solve holds: an array
# over them takes 256 KiB, and the solver holds a few dozen (the Jacobian
# and the SVD's factors take four each). Larger stacks were no faster on
# the benchmark's maps and raised its peak RSS.
_FIT_CELLS = 1 << 15


@dataclass
class StrainMap:
    """2-D grid of strain-induced frequency shifts, kHz.

    A NaN or infinite cell marks a pixel without data; the finite cells
    are the only valid pixels.
    """

    values: np.ndarray
    pixel_pitch_um: float
    orientation: str = "nv1"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValidationError("strain map must be 2-D")
        positive("pixel pitch", self.pixel_pitch_um, "um")
        if self.orientation not in ORIENTATIONS:
            raise ValidationError(
                f"orientation must be one of {ORIENTATIONS}, got {self.orientation!r}"
            )
        if not np.isfinite(self.values).any():
            raise ValidationError("strain map has no valid pixels")

    @property
    def valid_values(self) -> np.ndarray:
        return self.values[np.isfinite(self.values)]


@dataclass(frozen=True)
class LorentzianFit:
    center_khz: float
    fwhm_khz: float
    amplitude: float
    offset: float
    residual_rms: float

    def as_dict(self) -> dict:
        return asdict(self)


def _out_of_range(bin_width) -> ValidationError:
    return ValidationError(
        f"bin width {bin_width:g} kHz takes the Lorentzian fit out of floating-point range"
    )


def _beyond_the_fit_range(width, median, bin_w, amplitude) -> ValidationError:
    if not np.isfinite(amplitude):
        return _out_of_range(bin_w)
    if amplitude < _MAX_AMPLITUDE:  # the edges are not strictly increasing
        return ValidationError(f"bin width {width:g} kHz is finer than doubles resolve "
                               f"near the {median:.3g} kHz median shift")
    return ValidationError(
        f"bin width {bin_w:g} kHz takes the Lorentzian fit out of floating-point range: "
        f"its amplitude, peak count x (FWHM/2)^2 = {amplitude:.3g}, must stay below "
        f"(largest double / 256)^(1/4) = {_MAX_AMPLITUDE:.3g}"
    )


def _too_many_bins(bin_width, span, n_bins) -> ValidationError:
    return ValidationError(
        f"bin width {bin_width:g} kHz needs {n_bins:g} bins to span the {span:g} kHz "
        f"histogram range; a histogram holds at most {_MAX_BINS:,}"
    )


def _lorentzian_residual_and_jacobian(centers, counts):
    """Residuals and Jacobian of Lorentzian fits to stacked histograms, one
    per row of centers and counts."""

    def parts(x, rows):
        f0, fwhm, amp, off = x.T[:, :, None]
        # as scipy's per-histogram call squared its scalar half width
        half_width_sq = scalar_pow(fwhm / 2.0, 2)
        c = centers[rows]
        return c, f0, fwhm, amp, off, (c - f0) ** 2 + half_width_sq

    def resid(x, rows):
        c, f0, fwhm, amp, off, den = parts(x, rows)
        return amp / den + off - counts[rows]

    def jac(x, rows):
        c, f0, fwhm, amp, off, den = parts(x, rows)
        return np.stack(
            [
                amp * 2.0 * (c - f0) / den**2,
                -amp * (fwhm / 2.0) / den**2,
                1.0 / den,
                np.ones_like(c),
            ],
            axis=2,
        )

    return resid, jac


def _overflowing_mean(n_values: int) -> ValidationError:
    return ValidationError(
        f"strain shifts overflow: the mean of {n_values:,} valid pixels is not finite"
    )


def _subtract_means(values: np.ndarray) -> np.ndarray:
    """Subtract from each row of values (along its last axis) the row's
    mean, in place; returns which means are finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        means = values.mean(axis=-1, keepdims=True)
        values -= means
    return np.isfinite(means[..., 0])


def mean_subtracted(values) -> np.ndarray:
    """A 1-D array of shifts less its mean, as a new array. Shifts whose
    mean overflows are refused."""
    shifts = np.array(values, dtype=float)
    if not _subtract_means(shifts):
        raise _overflowing_mean(len(shifts))
    return shifts


def _sorted_quartiles(rows: np.ndarray):
    """np.percentile(rows, [25, 50, 75], axis=1), bit for bit, of rows
    sorted along axis 1, each at least two long: numpy's linear rule on the
    order statistics a and b around each quartile's fractional index t,
    a + (b - a) t, or b - (b - a) (1 - t) when t >= 1/2."""
    n = rows.shape[1]
    quartiles = []
    for q in (0.25, 0.5, 0.75):
        index = (n - 1) * q
        i = math.floor(index)
        t = index - i
        a, b = rows[:, i], rows[:, i + 1]
        diff = b - a
        quartiles.append(b - diff * (1 - t) if t >= 0.5 else a + diff * t)
    return quartiles


def _linspace_rows(lo: np.ndarray, hi: np.ndarray, num: int) -> np.ndarray:
    """np.linspace(lo[i], hi[i], num) as row i, bit for bit, by linspace's
    own rule: arange(num) * step + lo, the last point set to hi. Where the
    step underflows to zero, linspace takes another rule, which agrees
    only where hi equals lo; a positive bin width leaves no other case."""
    step = (hi - lo) / (num - 1)
    edges = np.arange(num, dtype=float) * step[:, None]
    edges += lo[:, None]
    edges[:, -1] = hi
    return edges


def _sorted_counts(row: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """np.histogram(row, edges)[0] of a sorted row: differences of where
    each edge falls in the row, on the left of every edge but the last and
    on the right of the last, as np.histogram counts."""
    below = row.searchsorted(edges)
    below[-1] = row.searchsorted(edges[-1], "right")
    return below[1:] - below[:-1]


class _Stack(NamedTuple):
    """Histograms of one bin count, one row each, and the start points of
    their Lorentzian fits."""

    rows: np.ndarray  # the row (or tile) each histogram belongs to
    centers: np.ndarray  # (k, bins)
    counts: np.ndarray  # (k, bins)
    bin_widths: np.ndarray  # (k,)
    x0: np.ndarray  # (k, 4): center, FWHM, amplitude, offset


def _histograms(rows: np.ndarray, bin_width_khz: Optional[float]):
    """Histograms of rows of sorted finite shifts, all of one length, with
    the start points of their Lorentzian fits.

    Returns one _Stack per bin count of the rows it accepts, and a dict
    holding for each other row the ComputationError that skips it
    (Freedman-Diaconis binning of a zero interquartile range) or the
    ValidationError that refuses it: a fixed width that needs more than
    _MAX_BINS bins, a range that is not finite, edges that are not
    strictly increasing, or a start amplitude not below _MAX_AMPLITUDE.
    An accepted row's bin width is then at least one ulp of its centre and
    at most FWHM0 < 2 sqrt(_MAX_AMPLITUDE), so its centre lies below about
    1e55 kHz: every start parameter lies below _MAX_AMPLITUDE, and the
    residuals and Jacobian at x0 are finite. The rows' quartiles come from
    their sorted columns, the edges of the rows of one bin count from one
    array op, and each row's counts from searchsorted on it.
    """
    n = rows.shape[1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        q25, q50, q75 = _sorted_quartiles(rows)
        iqr = q75 - q25
        if bin_width_khz is None:
            # Freedman-Diaconis; heavy-tailed inputs are windowed around the
            # median so the bin count stays proportionate to the core.
            skip = iqr <= 0
            width = 2.0 * iqr / n ** (1.0 / 3.0)
        else:
            skip = np.zeros(len(rows), dtype=bool)
            width = np.full(len(rows), float(bin_width_khz))
        half = _HISTOGRAM_HALF_RANGE_IQR * np.maximum(iqr, width)
        lo, hi = q50 - half, q50 + half
        # a width that underflows to zero leaves no bins to count in
        out_of_range = ~(np.isfinite(hi - lo) & (width > 0))
        n_bins = np.maximum(np.ceil((hi - lo) / width), 8)
        refuse = ~skip & (out_of_range | (n_bins > _MAX_BINS))
    errors = {
        int(i): ComputationError("under-resolved linewidth: zero interquartile range")
        for i in np.flatnonzero(skip)
    }
    errors.update(
        (int(i), _out_of_range(width[i]) if out_of_range[i]
         else _too_many_bins(width[i], hi[i] - lo[i], n_bins[i]))
        for i in np.flatnonzero(refuse)
    )
    stacks = []
    fitted = ~(skip | refuse)
    for count in np.unique(n_bins[fitted]).astype(int):
        same = np.flatnonzero(fitted & (n_bins == count))
        edges = _linspace_rows(lo[same], hi[same], count + 1)
        counts = np.empty((len(same), count))
        for i, row_edges, row_counts in zip(same, edges, counts):
            row_counts[:] = _sorted_counts(rows[i], row_edges)
        bin_w = edges[:, 1] - edges[:, 0]
        # the fit starts inside its bounds even where a fixed bin width and
        # the interquartile range are both narrower than _MIN_FWHM
        fwhm0 = np.maximum(np.maximum(iqr[same], bin_w), _MIN_FWHM)
        with np.errstate(over="ignore"):  # only in rows refused below
            centers = 0.5 * (edges[:, :-1] + edges[:, 1:])
            amplitude = np.maximum(counts.max(axis=1), 1.0) * scalar_pow(fwhm0 / 2.0, 2)
        x0 = np.stack([q50[same], fwhm0, amplitude, np.zeros(len(same))], axis=1)
        stack = _Stack(same, centers, counts, bin_w, x0)
        accepted = (np.diff(edges, axis=1) > 0).all(axis=1) & (amplitude < _MAX_AMPLITUDE)
        for i, row in zip(np.flatnonzero(~accepted), same[~accepted]):
            errors[int(row)] = _beyond_the_fit_range(width[row], q50[row], bin_w[i], amplitude[i])
        if accepted.any():
            stacks.append(stack if accepted.all() else _Stack(*(a[accepted] for a in stack)))
    return stacks, errors


def _finite_histogram(shifts: np.ndarray, bin_width_khz: Optional[float]):
    """_histograms of the finite entries of a 1-D array of shifts, as row 0,
    or row 0's ValidationError that refuses too few of them. It owns the
    array: all finite, it is sorted in place."""
    if not np.isfinite(shifts).all():
        shifts = shifts[np.isfinite(shifts)]
    shifts.sort()
    if len(shifts) < _MIN_PIXELS_FOR_FIT:
        return [], {0: ValidationError(
            f"need >= {_MIN_PIXELS_FOR_FIT} valid pixels, got {len(shifts)}"
        )}
    return _histograms(shifts[None, :], bin_width_khz)


def _fit(stacks, errors) -> list:
    """Fit a Lorentzian to every histogram of stacks; returns the rows,
    bin widths and solver result of each part of a stack solved.

    When errors hold a ValidationError, nothing is solved and that of the
    first row, in row order, is raised. _histograms refuses every row whose
    fit would leave the floating-point range, so _fit only solves: each
    stack in parts of at most _FIT_CELLS bins (one histogram at least), on
    slices of its arrays.
    """
    refused = [row for row, e in errors.items() if isinstance(e, ValidationError)]
    if refused:
        raise errors[min(refused)]
    fits = []
    for stack in stacks:
        size = max(_FIT_CELLS // stack.counts.shape[1], 1)
        for start in range(0, len(stack.rows), size):
            part = slice(start, start + size)
            resid, jac = _lorentzian_residual_and_jacobian(
                stack.centers[part], stack.counts[part]
            )
            result = least_squares(
                resid, stack.x0[part], jac, _FIT_BOUNDS, xtol=1e-10, ftol=1e-10, max_nfev=400
            )
            fits.append((stack.rows[part], stack.bin_widths[part], result))
    return fits


def histogram_fwhm(
    values,
    bin_width_khz: Optional[float] = None,
) -> LorentzianFit:
    """Histogram a 1-D array of shifts and fit a Lorentzian; returns the FWHM.

    Non-finite entries are dropped, and the rest are histogrammed and
    fitted as a group of one tile, down the path partition_sweep takes:
    one sort gives the quartiles and the counts. Binning is
    Freedman-Diaconis unless a fixed width is given. A histogram spans 40
    interquartile ranges (or 40 bins, if wider) and holds at most 200,000
    bins, so a fixed width below about IQR / 5,000 is refused with a
    ValidationError; so, before the solver runs, is a fit out of
    floating-point range: bins finer than doubles resolve at the shifts,
    or a start amplitude not below (largest double / 256)^(1/4).
    Initialization uses the sample median and interquartile range, so the
    fit is deterministic. The fit is core.least_squares on one problem:
    scipy's trust-region reflective least squares, run in numpy.
    """
    if bin_width_khz is not None:
        positive("bin width", bin_width_khz, "kHz")
    return _lorentzian_fit(*_finite_histogram(np.array(values, dtype=float), bin_width_khz))


def full_map_fwhm(strain_map: StrainMap, bin_width_khz: Optional[float] = None) -> LorentzianFit:
    """histogram_fwhm(mean_subtracted(strain_map.valid_values), bin_width_khz),
    bit for bit, on one copy of the valid shifts.

    The copy is mean-subtracted and sorted in place; only where a
    subtraction overflows does a second, finite copy replace it. The peak
    above the map is that copy and the histogram.
    """
    shifts = strain_map.valid_values
    if not _subtract_means(shifts):
        raise _overflowing_mean(len(shifts))
    if bin_width_khz is not None:
        positive("bin width", bin_width_khz, "kHz")
    return _lorentzian_fit(*_finite_histogram(shifts, bin_width_khz))


def _lorentzian_fit(stacks, errors) -> LorentzianFit:
    """The fit of the one histogram _finite_histogram gives, or its error."""
    if errors:
        raise errors[0]
    [(_, bin_w, result)] = _fit(stacks, errors)
    f0, fwhm, amp, off = result.x[0]
    if fwhm < bin_w[0]:
        raise ComputationError(
            f"under-resolved linewidth: fitted FWHM {fwhm:g} kHz is below "
            f"one bin width {bin_w[0]:g} kHz"
        )
    return LorentzianFit(
        center_khz=float(f0),
        fwhm_khz=float(fwhm),
        amplitude=float(amp),
        offset=float(off),
        residual_rms=float(np.sqrt(np.mean(result.fun[0] ** 2))),
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
    are skipped and counted; a bad bin width is refused up front, and,
    before any tile is solved, so is any tile histogram histogram_fwhm
    refuses (too many bins, or a fit out of floating-point range), the
    first in scan order giving the message. Besides the map it holds, at
    one tile size, about one band of tiles and the histogram stacks.
    """
    if bin_width_khz is not None:
        positive("bin width", bin_width_khz, "kHz")
    h, w = strain_map.values.shape
    pitch = strain_map.pixel_pitch_um
    off_r, off_c = int(tile_offset[0]), int(tile_offset[1])
    for offset in (off_r, off_c):
        non_negative("tile offset", offset, "px")
    stats = []
    for size in sizes_um:
        span = float(size) / float(pitch)  # in Python floats, an overflow is inf, unwarned
        if not math.isfinite(span):
            raise ValidationError(
                f"tile size {size:g} um at pixel pitch {pitch:g} um must span a finite "
                f"pixel count, got {span:g}"
            )
        n_px = int(round(span))
        if n_px < _MIN_TILE_PIXELS:
            raise ValidationError(
                f"tile size {size:g} um spans {n_px:g} px; need >= {_MIN_TILE_PIXELS}"
            )
        if n_px > min(h - off_r, w - off_c):
            raise ValidationError(
                f"tile size {size:g} um ({n_px:g} px) exceeds the map extent"
            )
        stacks, errors, n_tiles = _tile_histograms(strain_map, n_px, off_r, off_c, bin_width_khz)
        fwhm = np.empty(n_tiles)
        usable = np.zeros(n_tiles, dtype=bool)
        for tiles, bin_w, result in _fit(stacks, errors):
            fwhm[tiles] = result.x[:, 1]
            # a fit narrower than one bin is unresolved: skipped
            usable[tiles] = ~(result.x[:, 1] < bin_w)
        fwhms = tuple(fwhm[usable].tolist())
        if not fwhms:
            raise ComputationError(
                f"no tile of size {size:g} um produced a usable linewidth"
            )
        stats.append(
            PartitionStats(
                size_um=float(size),
                fwhms_khz=fwhms,
                n_tiles=n_tiles,
                n_skipped=n_tiles - len(fwhms),
            )
        )
    return stats


def _tiles(band: np.ndarray, n_px: int, off_c: int) -> np.ndarray:
    """The whole n_px x n_px tiles of a band of n_px grid rows from column
    off_c, as a new array: one row per tile, tiles and the pixels in each
    in row-major order."""
    cols = (band.shape[1] - off_c) // n_px
    tiles = np.empty((cols, n_px * n_px), dtype=band.dtype)
    block = band[:, off_c : off_c + cols * n_px]
    tiles.reshape(cols, n_px, n_px)[...] = block.reshape(n_px, cols, n_px).swapaxes(0, 1)
    return tiles


def _tile_histograms(strain_map: StrainMap, n_px, off_r, off_c, bin_width_khz):
    """Histograms of the mean-subtracted valid shifts of every tile with
    enough of them: the _Stacks of _histograms, each row labelled with its
    tile's index in scan order, the skip or refusal error of each tile
    that has one, and the number of tiles. A tile with too few valid
    shifts has neither and is skipped.

    The map is read one band at a time, a row of tiles n_px pixels high.
    In a band, the tiles with one number of valid pixels form a group:
    one copy of their valid shifts (none when the group is the whole band
    and its tiles have no invalid pixel: the band's tile copy is sorted in
    place), one row mean and one in-place sort of its rows, which give
    each tile's own values bit for bit, and then _histograms of the sorted
    rows. A tile whose mean overflows is refused. A tile with a finite
    mean but shifts that overflow drops them and forms a stack of one. The
    groups' pieces of all bands are joined into one stack per valid-pixel
    count and bin count, rows in scan order, as one pass over the whole
    map would build them; _fit's results do not depend on the order of
    the stacks. The peak above the map is about one band's copies and the
    stacks.
    """
    values = strain_map.values
    n_bands, per_band = (values.shape[0] - off_r) // n_px, (values.shape[1] - off_c) // n_px
    groups, singles, errors = {}, [], {}
    for band in range(n_bands):
        rows = slice(off_r + band * n_px, off_r + (band + 1) * n_px)
        band_groups, band_singles, band_errors = _band_histograms(
            _tiles(values[rows], n_px, off_c), band * per_band, bin_width_khz
        )
        for key, stack in band_groups:
            groups.setdefault(key, []).append(stack)
        singles += band_singles
        errors.update(band_errors)
    stacks = [_joined(pieces) for pieces in groups.values()] + singles
    return stacks, errors, n_bands * per_band


def _band_histograms(values, first, bin_width_khz):
    """_tile_histograms of one band, from its tiles' values (_tiles rows,
    which the grouping may sort in place) and the scan index of its first
    tile. Returns its groups' _Stacks, each under its (valid-pixel count,
    bin count), the _Stacks of tiles of their own, and its errors."""
    valid = np.isfinite(values)
    n_valid = valid.sum(axis=1)
    groups, singles, errors = [], [], {}
    for count in np.unique(n_valid[n_valid >= _MIN_PIXELS_FOR_FIT]):
        in_group = n_valid == count
        group = first + np.flatnonzero(in_group)
        if count < valid.shape[1]:
            shifts = values[valid & in_group[:, None]].reshape(group.size, count)
        else:
            shifts = values if in_group.all() else values[in_group]
        finite_mean = _subtract_means(shifts)
        shifts.sort(axis=1)
        # sorted, a row holds any non-finite shift at one of its ends
        finite = finite_mean & np.isfinite(shifts[:, [0, -1]]).all(axis=1)
        rows = shifts if finite.all() else shifts[finite]
        parts = [(group[finite], _histograms(rows, bin_width_khz))]
        for tile, row, mean_ok in zip(group[~finite], shifts[~finite], finite_mean[~finite]):
            if mean_ok:
                parts.append((np.array([tile]), _finite_histogram(row, bin_width_khz)))
            else:
                errors[int(tile)] = _overflowing_mean(count)
        for n, (tiles, (part_stacks, part_errors)) in enumerate(parts):
            for stack in part_stacks:
                stack = stack._replace(rows=tiles[stack.rows])
                if n:
                    singles.append(stack)
                else:
                    groups.append(((count, stack.counts.shape[1]), stack))
            errors.update((int(tiles[i]), error) for i, error in part_errors.items())
    return groups, singles, errors


def _joined(stacks) -> _Stack:
    """One _Stack of the rows of stacks, in order."""
    if len(stacks) == 1:
        return stacks[0]
    return _Stack(*(np.concatenate(field) for field in zip(*stacks)))


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
    non_negative("other_rate_per_us", other_rate_per_us, "1/us")
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


def _check_synth_shifts(values, scales: str) -> None:
    if not np.isfinite(values).all():
        raise ValidationError(f"synthetic shifts are not all finite at {scales}")


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
    capped_count(f"map of {shape[0]}x{shape[1]}", math.prod(shape), MAX_MAP_PIXELS, "pixels")
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore", invalid="ignore"):
        values = scale_khz * rng.standard_cauchy(size=shape)
    _check_synth_shifts(values, f"scale {scale_khz:g} kHz")
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
    capped_count(f"map of {shape[0]}x{shape[1]}", math.prod(shape), MAX_MAP_PIXELS, "pixels")
    rng = np.random.default_rng(seed)
    h, w = shape
    hot_h, hot_w = int(h * _HOT_FRACTION), int(w * _HOT_FRACTION)
    with np.errstate(over="ignore", invalid="ignore"):
        values = scale_khz * rng.standard_cauchy(size=shape)
        hot = hot_scale_khz * rng.standard_cauchy(size=(hot_h, hot_w))
        ramp = np.linspace(0.0, 4.0 * hot_scale_khz, hot_w)
        values[h - hot_h :, w - hot_w :] = hot + ramp[None, :]
    _check_synth_shifts(values, f"scales {scale_khz:g} and {hot_scale_khz:g} kHz")
    return StrainMap(values=values, pixel_pitch_um=pixel_pitch_um)
