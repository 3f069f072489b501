"""Inhomogeneous dephasing (T2*) budgets for NV ensembles.

The total dephasing rate is the sum of independent contributions

    1/T2* = r_ns0 + r_c13 + r_nvnv + r_strain + r_bias

with the spin-bath terms linear in the respective concentrations:

    r_bath = A_ns0 [Ns0] + A_c13 [13C]
             + zeta_par A_nv_par [NV-_par] + zeta_nonpar A_nv_nonpar [NV-_nonpar]

All rates are stored in 1/us. A vanishing rate sum means no dephasing limit;
that case is represented by t2 = None, never by a sentinel float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import DiamondSample, in_range, non_negative
from .errors import ValidationError

# Fraction of NV- aligned with the sensing axis when the bias field picks out
# a single crystallographic orientation: 1 of 4, so [NV_par] = [NV_nonpar]/3.
PARALLEL_FRACTION = 0.25


@dataclass(frozen=True)
class BathCoefficients:
    """Linear scaling constants of the spin-bath dephasing model.

    All rate coefficients are stored in 1/us per ppm; a_c13 is the converted
    value of the commonly quoted 0.100 /ms/ppm. zeta_par and zeta_nonpar
    describe residual (unpolarized) spin fractions of sensing-axis and
    off-axis NV- centers.
    """

    a_ns0: float = 0.101
    a_c13: float = 0.100e-3
    a_nv_par: float = 0.247
    a_nv_nonpar: float = 0.165
    zeta_par: float = 0.0
    zeta_nonpar: float = 0.5

    def __post_init__(self):
        for name in ("a_ns0", "a_c13", "a_nv_par", "a_nv_nonpar"):
            object.__setattr__(self, name, non_negative(name, getattr(self, name), "1/us/ppm"))
        for name in ("zeta_par", "zeta_nonpar"):
            object.__setattr__(self, name, in_range(0.0, 1.0)(name, getattr(self, name)))


def _rate_or_none(rate: float):
    return 1.0 / rate if rate > 0.0 else None


@dataclass(frozen=True)
class DephasingBudget:
    """Per-mechanism dephasing rates (1/us) and the resulting T2* values."""

    rate_ns0: float = 0.0
    rate_c13: float = 0.0
    rate_nv_nv: float = 0.0
    rate_strain: float = 0.0
    rate_bias: float = 0.0

    def __post_init__(self):
        for name in ("rate_ns0", "rate_c13", "rate_nv_nv", "rate_strain", "rate_bias"):
            object.__setattr__(self, name, non_negative(name, getattr(self, name), "1/us"))

    @property
    def bath_rate(self) -> float:
        return self.rate_ns0 + self.rate_c13 + self.rate_nv_nv

    @property
    def total_rate(self) -> float:
        return self.bath_rate + self.rate_strain + self.rate_bias

    @property
    def t2_star_total(self):
        """Total T2* in us, or None when no mechanism contributes."""
        return _rate_or_none(self.total_rate)

    @property
    def t2_star_bath(self):
        return _rate_or_none(self.bath_rate)

    def term_t2(self, name: str):
        return _rate_or_none(float(getattr(self, f"rate_{name}")))

    def as_dict(self) -> dict:
        d = {}
        for name in ("ns0", "c13", "nv_nv", "strain", "bias"):
            d[f"rate_{name}_per_us"] = float(getattr(self, f"rate_{name}"))
            d[f"t2_{name}_us"] = self.term_t2(name)
        d["t2_star_bath_us"] = self.t2_star_bath
        d["t2_star_total_us"] = self.t2_star_total
        return d


def nitrogen_bookkeeping(ns0_as_grown: float, nv_total: float, psi: float) -> float:
    """Post-treatment substitutional nitrogen after NV formation, in ppm.

    Each NV0 consumes one nitrogen atom (the one in the defect); each NV-
    consumes two (one more donates the extra electron):

        ns0_post = ns0_as_grown - nv_total * (1 + psi)
    """
    ns0 = non_negative("ns0_as_grown", ns0_as_grown, "ppm")
    nv = non_negative("nv_total", nv_total, "ppm")
    psi = in_range(0.0, 1.0)("psi", psi)
    remaining = ns0 - nv * (1.0 + psi)
    if remaining < 0.0:
        raise ValidationError(
            f"nitrogen over-consumed: {ns0} ppm as-grown cannot supply "
            f"{nv} ppm NV at psi={psi}"
        )
    return remaining


def spin_bath_rates(
    ns0_post: float,
    c13: float,
    nv_minus: float,
    coeffs: BathCoefficients = BathCoefficients(),
) -> DephasingBudget:
    """Bath-term budget from post-treatment concentrations (all ppm).

    nv_minus is the total NV- concentration; it is split 1/4 on-axis and
    3/4 off-axis before applying the zeta-weighted NV-NV coefficients.
    """
    ns0 = non_negative("ns0_post", ns0_post, "ppm")
    c13_ppm = non_negative("c13", c13, "ppm")
    nvm = non_negative("nv_minus", nv_minus, "ppm")
    nv_par = PARALLEL_FRACTION * nvm
    nv_nonpar = (1.0 - PARALLEL_FRACTION) * nvm
    return DephasingBudget(
        rate_ns0=coeffs.a_ns0 * ns0,
        rate_c13=coeffs.a_c13 * c13_ppm,
        rate_nv_nv=(
            coeffs.zeta_par * coeffs.a_nv_par * nv_par
            + coeffs.zeta_nonpar * coeffs.a_nv_nonpar * nv_nonpar
        ),
    )


def spin_bath_budget(
    sample: DiamondSample,
    coeffs: BathCoefficients = BathCoefficients(),
) -> DephasingBudget:
    """Spin-bath-limited budget for a sample, bath terms only.

    The nitrogen actually left in the lattice is derived from the as-grown
    value via nitrogen_bookkeeping before the linear model is applied.
    """
    psi = sample.charge_fraction_psi
    ns0_post = nitrogen_bookkeeping(sample.ns0_as_grown, sample.nv_total, psi)
    nv_minus = sample.nv_total * psi
    return spin_bath_rates(ns0_post, sample.c13, nv_minus, coeffs)


def strain_rate_from_fwhm(delta_khz: float) -> float:
    """Dephasing rate (1/us) from a strain-shift distribution FWHM in kHz.

    T2*_strain = 1 / (pi * Delta); Delta = 0 contributes no dephasing.
    """
    return math.pi * non_negative("strain FWHM", delta_khz, "kHz") * 1e-3


def t2_strain_from_fwhm(delta_khz: float):
    """T2*_strain in us, or None for a homogeneous (zero-width) map."""
    return _rate_or_none(strain_rate_from_fwhm(delta_khz))


def dq_rate(budget: DephasingBudget) -> float:
    """Double-quantum dephasing rate: twice the bath rate, no strain/bias.

    The m_s = -1 <-> +1 coherence sees spin-bath noise with doubled
    gyromagnetic response while common-mode strain and temperature shifts
    cancel between the two branches.
    """
    return 2.0 * budget.bath_rate


def dq_t2star(budget: DephasingBudget):
    """Double-quantum T2* in us, or None for an empty bath."""
    return _rate_or_none(dq_rate(budget))
