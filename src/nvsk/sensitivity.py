"""Photon-shot-noise-limited Ramsey DC magnetometry sensitivity.

The central quantity is

    eta = 1/(dm * gamma_e) * 1/sqrt(N * tau) * exp((tau/T2*)^p)
          * sqrt(1 + 1/(C^2 * n_avg)) * sqrt((tau + t_O) / tau)

where dm is the spin transition order (1 single-quantum, 2 double-quantum),
N the number (or density) of contributing NV-, tau the free-precession time,
C the readout contrast, n_avg the detected photons per NV- per shot, and
t_O the per-shot overhead. With gamma_e in MHz/G, times in us and N a count,
eta comes out in G*sqrt(us); with N a density in 1/cm^3 it is the
volume-normalized figure in G*sqrt(us*cm^3). Ratios never depend on that
overall scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    PPM_TO_PER_CM3,
    DiamondSample,
    PhysicalConstants,
    in_range,
    non_negative,
    positive,
)
from .dephasing import BathCoefficients, dq_t2star, spin_bath_budget
from .errors import ComputationError, ValidationError

PROTOCOLS = ("sq", "dq")


@dataclass(frozen=True)
class SensingParams:
    """Every argument of the sensitivity expression except tau.

    tau is what the optimizers sweep, so it is passed to ramsey_sensitivity
    per evaluation; everything here is validated once, when the struct is
    built. t2_star and n_avg accept math.inf for the no-dephasing and
    ideal-readout limits; n_avg = 0 leaves the readout noise undefined.
    """

    delta_ms: int
    gamma_e: float
    n_sensors: float
    t2_star: float
    contrast_c: float
    n_avg: float
    p: float = 1.0
    t_overhead: float = 0.0

    def __post_init__(self):
        if self.delta_ms not in (1, 2):
            raise ValidationError(f"delta_ms must be 1 or 2, got {self.delta_ms}")
        positive("gamma_e", self.gamma_e, "MHz/G")
        positive("n_sensors", self.n_sensors)
        if not self.t2_star > 0:  # inf: no dephasing
            raise ValidationError(f"t2_star must be > 0 us, got {self.t2_star!r}")
        if not 1.0 <= self.p < math.inf:
            raise ValidationError(f"p must be finite and >= 1, got {self.p!r}")
        in_range(0.0, 1.0)("contrast_c", positive("contrast_c", self.contrast_c))
        if not self.n_avg > 0.0:  # inf: ideal readout; 0 leaves the readout noise undefined
            raise ValidationError(f"n_avg must be > 0, got {self.n_avg!r}")
        non_negative("t_overhead", self.t_overhead, "us")


def ramsey_sensitivity(params: SensingParams, tau: float) -> float:
    """Evaluate the shot-noise sensitivity expression at one tau (us).

    params were validated when built; only tau is checked here, which must
    be finite and > 0. Returns math.inf when the dephasing envelope exceeds
    the float range (tau far beyond T2* combined with a large stretch
    exponent).
    """
    tau = positive("tau", tau, "us")
    try:
        envelope = math.exp((tau / params.t2_star) ** params.p)
    except OverflowError:
        return math.inf
    readout = math.sqrt(1.0 + 1.0 / (params.contrast_c**2 * params.n_avg))
    duty = math.sqrt((tau + params.t_overhead) / tau)
    prefactor = 1.0 / (params.delta_ms * params.gamma_e)
    return prefactor / math.sqrt(params.n_sensors * tau) * envelope * readout * duty


@dataclass(frozen=True)
class TauOptimum:
    """Result of the 1-D precession-time optimization: the stationary tau,
    always interior (at most T2*), and eta there."""

    tau: float
    eta: float


_NITROGEN_RANGE_PPM = (0.01, 100.0)


def optimal_tau(params: SensingParams) -> TauOptimum:
    """Minimize the sensitivity over tau > 0.

    Setting d ln(eta)/d tau to zero gives the stationarity condition

        2p (tau/T2*)^p = (tau + 2 t_O) / (tau + t_O),

    whose left side rises in tau while the right side falls from 2 to 1, so
    its root is unique and lies in [T2* (2p)^(-1/p), T2* p^(-1/p)], at most
    T2* since p >= 1. Plain bisection on that bracket runs until the
    midpoint equals an endpoint, i.e. to the last float. Without dephasing
    (T2* infinite) eta falls for ever and there is no optimum, so that case
    is refused; so is an eta that overflows or underflows at the optimum.
    """
    t2 = params.t2_star
    if math.isinf(t2):
        raise ValidationError("tau has no optimum when t2_star is unbounded")
    p, t_o = params.p, params.t_overhead
    lo, hi = t2 * (2.0 * p) ** (-1.0 / p), t2 * p ** (-1.0 / p)
    # halves added, not halved sum: no overflow at huge T2*, same bits below
    tau = 0.5 * lo + 0.5 * hi
    while tau not in (lo, hi):
        # right side written as 1 + t_O/(tau + t_O): no overflow at huge t_O
        if 2.0 * p * (tau / t2) ** p < 1.0 + t_o / (tau + t_o):
            lo = tau
        else:
            hi = tau
        tau = 0.5 * lo + 0.5 * hi
    eta = ramsey_sensitivity(params, tau)
    if not math.isfinite(eta):
        raise ComputationError(f"sensitivity is not finite at tau={tau:g} us")
    if eta == 0.0:
        raise ComputationError(f"sensitivity underflows to 0 at tau={tau:g} us")
    return TauOptimum(tau=tau, eta=eta)


@dataclass(frozen=True)
class MetricConfig:
    """Spin-bath inputs of the simplified metric. The per-shot overhead is
    what optimal_nitrogen sweeps, so it is an argument of simplified_metric
    rather than a field here."""

    c13: float = 50.0  # ppm; 99.995% 12C enrichment
    bath_coeffs: BathCoefficients = BathCoefficients()

    def __post_init__(self):
        object.__setattr__(self, "c13", non_negative("c13", self.c13, "ppm"))


def _bath_t2_n_c13(ns0_ppm: float, cfg: MetricConfig) -> float:
    rate = cfg.bath_coeffs.a_ns0 * ns0_ppm + cfg.bath_coeffs.a_c13 * cfg.c13
    if rate <= 0:
        raise ValidationError("metric undefined for an empty spin bath")
    return 1.0 / rate


def simplified_metric(ns0: float, t_overhead: float, cfg: MetricConfig) -> float:
    """Relative sensitivity vs nitrogen content (ppm), overhead-corrected.

    eta_tilde(N) = sqrt((T2* + t_O) / (N * T2*^2)) with T2*(N) taken from
    the nitrogen and carbon-13 bath terms only and t_O = t_overhead (us).
    The absolute scale is arbitrary; only ratios between nitrogen
    concentrations are meaningful. A metric that overflows, or underflows
    to 0, is refused.
    """
    n = positive("ns0", ns0, "ppm")
    t_overhead = non_negative("t_overhead", t_overhead, "us")
    t2 = _bath_t2_n_c13(n, cfg)
    denominator = n * t2 * t2
    metric = math.sqrt((t2 + t_overhead) / denominator) if denominator > 0 else math.inf
    if not 0.0 < metric < math.inf:
        raise ComputationError(
            f"simplified metric leaves the float range at ns0 = {n:g} ppm, "
            f"t_overhead = {t_overhead:g} us"
        )
    return metric


@dataclass(frozen=True)
class NitrogenOptimum:
    concentration: float  # ppm
    metric: float
    interior: bool  # False: no interior optimum, boundary value returned


def optimal_nitrogen(t_overhead: float, cfg: MetricConfig = MetricConfig()) -> NitrogenOptimum:
    """Nitrogen concentration minimizing the simplified metric at a
    per-shot overhead of t_overhead us.

    With bath rate a N + b (a = a_ns0, b = a_c13 [13C]) the squared metric
    is a + 2ab t_O + a^2 t_O N + b (1 + b t_O) / N, stationary at

        N* = sqrt(b (1 + b t_O) / (a^2 t_O)),

    which is clipped to [0.01, 100] ppm. N* is infinite when a = 0 or
    t_O = 0 (the metric falls over the whole range); interior=False flags
    any N* outside the open range, whose nearer end is returned.
    """
    t_overhead = non_negative("t_overhead", t_overhead, "us")
    a = cfg.bath_coeffs.a_ns0
    b = cfg.bath_coeffs.a_c13 * cfg.c13
    n = math.inf
    if a > 0 and t_overhead > 0:
        n = math.sqrt(b * (1.0 + b * t_overhead) / t_overhead) / a
    lo, hi = _NITROGEN_RANGE_PPM
    best = min(max(n, lo), hi)
    return NitrogenOptimum(best, simplified_metric(best, t_overhead, cfg), interior=lo < n < hi)


@dataclass(frozen=True)
class PhotonModel:
    """Detected photon rate per NV- versus excitation intensity.

    A saturation curve s/(1+s), s = I/i_sat, anchored so the rate equals
    rate_at_1mw_kcps at 1 mW/um^2. The anchor is the measured quantity;
    the saturation shape and i_sat are model choices exposed in config.
    """

    rate_at_1mw_kcps: float = 30.0
    i_sat: float = 2.0

    def __post_init__(self):
        positive("rate_at_1mw_kcps", self.rate_at_1mw_kcps, "kcps")
        positive("i_sat", self.i_sat, "mW/um^2")

    def rate_kcps(self, intensity) -> float:
        i = non_negative("intensity", intensity, "mW/um^2")
        s = i / self.i_sat
        s_anchor = 1.0 / self.i_sat
        shape_anchor = s_anchor / (1.0 + s_anchor)
        return self.rate_at_1mw_kcps * (s / (1.0 + s)) / shape_anchor


@dataclass(frozen=True)
class IntensityRow:
    """One measured operating point of a sample."""

    intensity: float  # mW/um^2
    contrast_c: float
    psi: float
    t_overhead: float  # us
    photon_rate_kcps: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "intensity", positive("intensity", self.intensity, "mW/um^2"))
        contrast = in_range(0.0, 1.0)("contrast_c", positive("contrast_c", self.contrast_c))
        object.__setattr__(self, "contrast_c", contrast)
        object.__setattr__(self, "psi", in_range(0.0, 1.0)("psi", self.psi))
        object.__setattr__(self, "t_overhead", non_negative("t_overhead", self.t_overhead, "us"))
        if self.photon_rate_kcps is not None:
            non_negative("photon_rate_kcps", self.photon_rate_kcps, "kcps")


class IntensityTable:
    """Measured operating points, interpolated linearly in log10(intensity).

    Rows must have strictly increasing intensities. Either every row carries
    an explicit photon rate or none does; queries outside the tabulated
    range are refused rather than extrapolated.
    """

    def __init__(self, rows):
        rows = tuple(rows)
        if not rows:
            raise ValidationError("intensity table is empty")
        for a, b in zip(rows, rows[1:]):
            if not b.intensity > a.intensity:
                raise ValidationError(
                    "intensities must be strictly increasing: "
                    f"{a.intensity} followed by {b.intensity}"
                )
        with_rate = [r.photon_rate_kcps is not None for r in rows]
        if any(with_rate) and not all(with_rate):
            raise ValidationError(
                "photon_rate_kcps must be given for all rows or none"
            )
        self.rows = rows
        self._log_i = np.log10([r.intensity for r in rows])

    @property
    def intensity_range(self):
        return (self.rows[0].intensity, self.rows[-1].intensity)

    def __len__(self):
        return len(self.rows)

    def interpolate(self, intensity) -> IntensityRow:
        i = non_negative("intensity", intensity, "mW/um^2")
        lo, hi = self.intensity_range
        if not lo <= i <= hi:
            raise ValidationError(
                f"intensity {i:g} outside table range [{lo:g}, {hi:g}]; "
                "extrapolation is not performed"
            )
        x = math.log10(i)

        def lerp(values):
            # np.interp can round past the values it joins (to -5.6e-17
            # between 0.487 and 0), which no IntensityRow would hold
            v = float(np.interp(x, self._log_i, values))
            return min(max(v, min(values)), max(values))

        rate = None
        if self.rows[0].photon_rate_kcps is not None:
            rate = lerp([r.photon_rate_kcps for r in self.rows])
        return IntensityRow(
            intensity=i,
            contrast_c=lerp([r.contrast_c for r in self.rows]),
            psi=lerp([r.psi for r in self.rows]),
            t_overhead=lerp([r.t_overhead for r in self.rows]),
            photon_rate_kcps=rate,
        )


@dataclass(frozen=True)
class VolumeSensitivity:
    """Volume-normalized sensitivity at one operating point."""

    eta: float  # G*sqrt(us*cm^3) for gamma_e in MHz/G
    tau: float
    t2_star: float
    n_eff_per_cm3: float
    n_avg: float
    contrast_c: float
    psi: float
    t_overhead: float
    intensity: float
    protocol: str


def volume_normalized_sensitivity(
    sample: DiamondSample,
    table: IntensityTable,
    intensity,
    protocol: str = "sq",
    *,
    constants: PhysicalConstants = PhysicalConstants(),
    coeffs: BathCoefficients = BathCoefficients(),
    photon_model: PhotonModel = PhotonModel(),
    readout_window_us: Optional[float] = None,
    bias_rate_per_us: float = 0.0,
) -> VolumeSensitivity:
    """Sensitivity per unit sqrt(volume) at one excitation intensity.

    The sensor count is replaced by the effective NV- density
    nv_total * psi(I) * orientation fraction, converted to 1/cm^3. Contrast,
    charge fraction, and overhead come from the measured table; the detected
    photon number is photon rate x readout window, with the window
    defaulting to the interpolated overhead (readout is folded into the
    reported initialization time). T2* is the sample's bath budget plus any
    supplied bias rate for SQ, or the double-quantum variant for DQ.
    """
    [result] = volume_sensitivity_sweep(
        sample,
        table,
        [intensity],
        protocol,
        constants=constants,
        coeffs=coeffs,
        photon_model=photon_model,
        readout_window_us=readout_window_us,
        bias_rate_per_us=bias_rate_per_us,
    )
    return result


def volume_sensitivity_sweep(
    sample: DiamondSample,
    table: IntensityTable,
    intensities,
    protocol: str = "sq",
    *,
    constants: PhysicalConstants = PhysicalConstants(),
    coeffs: BathCoefficients = BathCoefficients(),
    photon_model: PhotonModel = PhotonModel(),
    readout_window_us: Optional[float] = None,
    bias_rate_per_us: float = 0.0,
) -> list:
    """volume_normalized_sensitivity at each intensity in turn. The bath
    budget and T2* do not depend on the intensity, so they are computed
    once, after the first intensity's table row, where each call would
    first compute them."""
    if protocol not in PROTOCOLS:
        raise ValidationError(f"protocol must be one of {PROTOCOLS}, got {protocol!r}")
    results, dephasing = [], None
    for intensity in intensities:
        row = table.interpolate(intensity)
        if dephasing is None:
            dephasing = _t2_star(sample, coeffs, protocol, bias_rate_per_us)
        results.append(
            _at_row(sample, row, protocol, *dephasing, constants, photon_model, readout_window_us)
        )
    return results


def _t2_star(sample, coeffs, protocol, bias_rate_per_us):
    """T2* (us) of a protocol and its spin transition order; an unbounded
    T2* is refused."""
    budget = spin_bath_budget(sample, coeffs)
    if protocol == "sq":
        rate = budget.bath_rate + non_negative("bias_rate_per_us", bias_rate_per_us, "1/us")
        t2 = 1.0 / rate if rate > 0 else math.inf
        delta_ms = 1
    else:
        t2 = dq_t2star(budget) or math.inf
        delta_ms = 2
    if math.isinf(t2):
        raise ValidationError("sample has no dephasing mechanism; T2* unbounded")
    return t2, delta_ms


def _at_row(sample, row, protocol, t2, delta_ms, constants, photon_model, readout_window_us):
    """volume_normalized_sensitivity at one interpolated table row."""
    n_eff = (
        sample.nv_total
        * row.psi
        * (sample.n_orientations_sensing / 4.0)
        * PPM_TO_PER_CM3
    )
    if n_eff <= 0:
        raise ValidationError("effective NV- density is zero at this intensity")
    rate_kcps = (
        row.photon_rate_kcps
        if row.photon_rate_kcps is not None
        else photon_model.rate_kcps(row.intensity)
    )
    window = (
        row.t_overhead
        if readout_window_us is None
        else non_negative("readout_window_us", readout_window_us, "us")
    )
    n_avg = rate_kcps * 1e-3 * window  # kcps -> counts/us

    params = SensingParams(
        delta_ms=delta_ms,
        gamma_e=constants.gamma_e,
        n_sensors=n_eff,
        t2_star=t2,
        contrast_c=row.contrast_c,
        n_avg=n_avg,
        p=1.0,
        t_overhead=row.t_overhead,
    )
    best = optimal_tau(params)
    return VolumeSensitivity(
        eta=best.eta,
        tau=best.tau,
        t2_star=t2,
        n_eff_per_cm3=n_eff,
        n_avg=n_avg,
        contrast_c=row.contrast_c,
        psi=row.psi,
        t_overhead=row.t_overhead,
        intensity=row.intensity,
        protocol=protocol,
    )
