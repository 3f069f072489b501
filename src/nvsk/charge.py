"""NV charge-state analysis from photoluminescence spectra.

A measured emission spectrum is decomposed into non-negative weights of the
NV- and NV0 basis profiles; the charge fraction then corrects each PL weight
for the species' relative brightness (NV0 emits roughly 2.5x dimmer than
NV- under typical excitation):

    psi = w_minus / (w_minus + brightness_ratio * w_zero)
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .core import non_negative, positive
from .errors import ValidationError

DEFAULT_BRIGHTNESS_RATIO = 2.5

# Above this excitation intensity the spectral ratio between the two charge
# states is no longer reliably calibrated; results are flagged, not refused.
VALIDATED_INTENSITY_LIMIT = 0.1  # mW/um^2

_CONDITION_LIMIT = 1e8


@dataclass
class Spectrum:
    """PL counts on an increasing wavelength grid (nm)."""

    wavelength_nm: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        self.wavelength_nm = np.asarray(self.wavelength_nm, dtype=float)
        self.counts = np.asarray(self.counts, dtype=float)
        if self.wavelength_nm.ndim != 1 or self.wavelength_nm.shape != self.counts.shape:
            raise ValidationError("wavelength and counts must be matching 1-D arrays")
        if len(self.wavelength_nm) < 3:
            raise ValidationError("spectrum needs at least 3 samples")
        if not np.all(np.isfinite(self.wavelength_nm)):
            raise ValidationError("wavelengths must be finite")
        if np.any(np.diff(self.wavelength_nm) <= 0):
            raise ValidationError("wavelength grid must be strictly increasing")
        if not np.all(np.isfinite(self.counts)) or np.any(self.counts < 0):
            raise ValidationError("counts must be finite and >= 0")

    @property
    def median_step_nm(self) -> float:
        return float(np.median(np.diff(self.wavelength_nm)))


def _common_grid(measured: Spectrum, basis_minus: Spectrum, basis_zero: Spectrum):
    lo = max(s.wavelength_nm[0] for s in (measured, basis_minus, basis_zero))
    hi = min(s.wavelength_nm[-1] for s in (measured, basis_minus, basis_zero))
    if not hi > lo:
        raise ValidationError("spectra share no overlapping wavelength range")
    # resample onto the coarsest grid, restricted to the overlap
    coarsest = max((measured, basis_minus, basis_zero), key=lambda s: s.median_step_nm)
    grid = coarsest.wavelength_nm
    grid = grid[(grid >= lo) & (grid <= hi)]
    if len(grid) < 3:
        raise ValidationError("overlapping wavelength range is too short")
    return grid


def decompose(measured: Spectrum, basis_minus: Spectrum, basis_zero: Spectrum):
    """Non-negative least-squares split into the two basis profiles.

    Returns (w_minus, w_zero, residual_rms) on the resampled common grid.
    """
    grid = _common_grid(measured, basis_minus, basis_zero)
    y = np.interp(grid, measured.wavelength_nm, measured.counts)
    bm = np.interp(grid, basis_minus.wavelength_nm, basis_minus.counts)
    b0 = np.interp(grid, basis_zero.wavelength_nm, basis_zero.counts)
    design = np.stack([bm, b0], axis=1)
    cond = np.linalg.cond(design)
    if not math.isfinite(cond) or cond > _CONDITION_LIMIT:
        raise ValidationError(
            f"basis spectra are collinear (condition number {cond:.3g})"
        )
    from scipy.optimize import nnls

    weights, rnorm = nnls(design, y)
    residual_rms = rnorm / math.sqrt(len(grid))
    return float(weights[0]), float(weights[1]), float(residual_rms)


def charge_fraction(
    w_minus: float,
    w_zero: float,
    brightness_ratio: float = DEFAULT_BRIGHTNESS_RATIO,
) -> float:
    """NV- fraction from PL weights, brightness-corrected.

    Dividing each PL weight by its species brightness (NV- normalized to 1,
    NV0 to 1/ratio) recovers relative concentrations.
    """
    w_minus = non_negative("w_minus", w_minus)
    w_zero = non_negative("w_zero", w_zero)
    if w_minus == 0 and w_zero == 0:
        raise ValidationError("both PL weights are zero; charge fraction undefined")
    brightness_ratio = positive("brightness_ratio", brightness_ratio)
    return w_minus / (w_minus + brightness_ratio * w_zero)


@dataclass(frozen=True)
class ChargeDecomposition:
    w_minus: float
    w_zero: float
    psi: float
    residual_rms: float
    brightness_ratio: float
    outside_validated_regime: bool = False

    def as_dict(self) -> dict:
        return asdict(self)


def decompose_to_psi(
    measured: Spectrum,
    basis_minus: Spectrum,
    basis_zero: Spectrum,
    brightness_ratio: float = DEFAULT_BRIGHTNESS_RATIO,
    intensity_mw_um2: Optional[float] = None,
) -> ChargeDecomposition:
    """Full pipeline: decomposition plus brightness-corrected fraction.

    When the excitation intensity is supplied and exceeds the validated
    calibration range the result carries a flag rather than an error; it
    must be finite and >= 0.
    """
    if intensity_mw_um2 is not None:
        intensity_mw_um2 = non_negative("intensity", intensity_mw_um2, "mW/um^2")
    w_minus, w_zero, residual_rms = decompose(measured, basis_minus, basis_zero)
    psi = charge_fraction(w_minus, w_zero, brightness_ratio)
    flagged = (
        intensity_mw_um2 is not None and intensity_mw_um2 > VALIDATED_INTENSITY_LIMIT
    )
    return ChargeDecomposition(
        w_minus=w_minus,
        w_zero=w_zero,
        psi=psi,
        residual_rms=residual_rms,
        brightness_ratio=brightness_ratio,
        outside_validated_regime=flagged,
    )
