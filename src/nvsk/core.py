"""Shared value types and unit conventions.

Internal unit system: time in microseconds, frequency in MHz, rates in 1/us,
concentrations in ppm of carbon sites, optical intensity in mW/um^2.
File interfaces carry explicit unit strings so nothing crosses a boundary
with an implied unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError

# Carbon-site number density of diamond: 1 ppm of sites = 1.76e17 cm^-3.
PPM_TO_PER_CM3 = 1.76e17

# Electron gyromagnetic ratio over 2*pi, in MHz/G. Configurable everywhere it
# is used; the convention flag below records what the stored number means.
GAMMA_E_MHZ_PER_G = 2.8024

GAMMA_CONVENTIONS = ("gamma_over_2pi", "angular")

# Largest time grid a full-resolution trace (contrast_trace, the simulate and
# ramsey synth commands) materializes.
MAX_TRACE_SAMPLES = 5_000_000


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class Concentration:
    """Defect or isotope concentration, ppm of carbon lattice sites."""

    ppm: float

    def __post_init__(self):
        ppm = _require_finite("concentration", self.ppm)
        if ppm < 0:
            raise ValidationError(f"concentration must be >= 0 ppm, got {ppm}")
        object.__setattr__(self, "ppm", ppm)

    @classmethod
    def from_per_cm3(cls, density: float) -> "Concentration":
        return cls(float(density) / PPM_TO_PER_CM3)

    @property
    def per_cm3(self) -> float:
        return self.ppm * PPM_TO_PER_CM3

    def __float__(self) -> float:
        return self.ppm


def as_ppm(value) -> float:
    """Accept a Concentration or a bare ppm float."""
    if isinstance(value, Concentration):
        return value.ppm
    return Concentration(float(value)).ppm


@dataclass(frozen=True)
class Intensity:
    """Optical excitation intensity at the sample, mW/um^2."""

    mw_per_um2: float

    def __post_init__(self):
        v = _require_finite("intensity", self.mw_per_um2)
        if v < 0:
            raise ValidationError(f"intensity must be >= 0 mW/um^2, got {v}")
        object.__setattr__(self, "mw_per_um2", v)

    def __float__(self) -> float:
        return self.mw_per_um2


def as_mw_per_um2(value) -> float:
    if isinstance(value, Intensity):
        return value.mw_per_um2
    return Intensity(float(value)).mw_per_um2


@dataclass(frozen=True)
class PhysicalConstants:
    """Numerical constants plus the convention they are stored in.

    gamma_convention is "gamma_over_2pi" when gamma_e holds gamma/2pi in
    MHz/G (the 2.8024 literature number), or "angular" when it holds the
    angular rate. The flag travels with every output artifact.
    """

    gamma_e: float = GAMMA_E_MHZ_PER_G
    gamma_convention: str = "gamma_over_2pi"

    def __post_init__(self):
        g = _require_finite("gamma_e", self.gamma_e)
        if g <= 0:
            raise ValidationError(f"gamma_e must be > 0, got {g}")
        if self.gamma_convention not in GAMMA_CONVENTIONS:
            raise ValidationError(
                f"gamma_convention must be one of {GAMMA_CONVENTIONS}, "
                f"got {self.gamma_convention!r}"
            )
        object.__setattr__(self, "gamma_e", g)


@dataclass(frozen=True)
class DiamondSample:
    """Material description of one NV-diamond sensor.

    ns0_as_grown is the substitutional nitrogen content before irradiation
    and annealing; nv_total the total NV content after treatment;
    charge_fraction_psi the NV- share of all NVs. n_orientations_sensing
    counts how many of the four NV axes contribute signal (usually 1).
    """

    ns0_as_grown: Concentration
    c13: Concentration
    nv_total: Concentration
    charge_fraction_psi: float
    n_orientations_sensing: int = 1

    @classmethod
    def from_ppm(
        cls,
        ns0_as_grown: float,
        c13: float,
        nv_total: float,
        psi: float,
        n_orientations_sensing: int = 1,
    ) -> "DiamondSample":
        return cls(
            ns0_as_grown=Concentration(ns0_as_grown),
            c13=Concentration(c13),
            nv_total=Concentration(nv_total),
            charge_fraction_psi=float(psi),
            n_orientations_sensing=int(n_orientations_sensing),
        )


def validate_sample(sample: DiamondSample) -> DiamondSample:
    """Check the cross-field invariants; return the sample unchanged.

    The first violated invariant is reported by name. Idempotent.
    """
    psi = _require_finite("psi", sample.charge_fraction_psi)
    if not 0.0 <= psi <= 1.0:
        raise ValidationError(f"psi out of [0,1]: {psi}")
    if sample.nv_total.ppm > sample.ns0_as_grown.ppm:
        raise ValidationError(
            "NV exceeds nitrogen: nv_total "
            f"{sample.nv_total.ppm} ppm > ns0_as_grown {sample.ns0_as_grown.ppm} ppm"
        )
    if not 1 <= sample.n_orientations_sensing <= 4:
        raise ValidationError(
            f"n_orientations_sensing out of [1,4]: {sample.n_orientations_sensing}"
        )
    return sample
