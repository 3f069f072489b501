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
    Concentration,
    DiamondSample,
    PhysicalConstants,
    as_mw_per_um2,
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
        if not self.gamma_e > 0:
            raise ValidationError(f"gamma_e must be > 0, got {self.gamma_e}")
        if not self.n_sensors > 0:
            raise ValidationError(f"n_sensors must be > 0, got {self.n_sensors}")
        if not self.t2_star > 0:
            raise ValidationError(f"t2_star must be > 0, got {self.t2_star}")
        if not self.p >= 1.0:
            raise ValidationError(f"stretch exponent p must be >= 1, got {self.p}")
        if not 0.0 < self.contrast_c <= 1.0:
            raise ValidationError(f"contrast out of (0,1]: {self.contrast_c}")
        if not self.n_avg >= 0.0:
            raise ValidationError(f"n_avg must be >= 0, got {self.n_avg}")
        if self.n_avg == 0.0:
            raise ValidationError("readout noise term undefined: n_avg = 0")
        if not self.t_overhead >= 0.0 or math.isinf(self.t_overhead):
            raise ValidationError(f"t_overhead must be finite >= 0, got {self.t_overhead}")


def ramsey_sensitivity(params: SensingParams, tau: float) -> float:
    """Evaluate the shot-noise sensitivity expression at one tau (us).

    params were validated when built; only tau is checked here, which must
    be finite and > 0. Returns math.inf when the dephasing envelope exceeds
    the float range (tau far beyond T2* combined with a large stretch
    exponent).
    """
    if not 0 < tau < math.inf:
        if tau > 0:
            raise ValidationError(f"tau must be finite, got {tau}")
        raise ValidationError(f"tau must be > 0, got {tau}")
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
    """Result of the 1-D precession-time optimization."""

    tau: float
    eta: float
    boundary: bool  # minimizer pinned at the search-domain edge


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Bracket width on the log axis, i.e. the relative tolerance of the minimizer.
_REL_TOL = 1e-6
# Log-spaced scan points that bracket the minimum before golden-section search.
_TAU_SCAN = 160
_NITROGEN_SCAN = 256
_NITROGEN_RANGE_PPM = (0.01, 100.0)


def _golden_min(f, lo: float, hi: float) -> float:
    """Deterministic golden-section minimum of f on [lo, hi] (log axis)."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > _REL_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def optimal_tau(params: SensingParams, tau_max: Optional[float] = None) -> TauOptimum:
    """Minimize the sensitivity over tau in (0, tau_max].

    tau_max defaults to 5 * T2*. A coarse log-spaced scan of _TAU_SCAN points
    brackets the minimum, then golden-section search on log(tau) refines it
    to a relative tolerance of _REL_TOL. params were validated when built;
    each evaluation passes its tau to ramsey_sensitivity as an argument.
    A minimizer stuck at the upper edge (no dephasing penalty inside the
    domain) is reported with boundary=True.
    """
    t2 = params.t2_star
    if tau_max is None:
        if math.isinf(t2):
            raise ValidationError(
                "tau_max is required when t2_star is unbounded"
            )
        tau_max = 5.0 * t2
    if not tau_max > 0 or math.isinf(tau_max):
        raise ValidationError(f"tau_max must be finite > 0, got {tau_max}")

    def objective(log_tau: float) -> float:
        eta = ramsey_sensitivity(params, math.exp(log_tau))
        if math.isnan(eta):
            raise ComputationError(
                f"sensitivity is not finite at tau={math.exp(log_tau):g} us"
            )
        return eta  # inf is tolerated while bracketing

    hi = math.log(tau_max)
    lo = hi + math.log(1e-9)
    grid = np.linspace(lo, hi, _TAU_SCAN)
    values = [objective(x) for x in grid]
    i = int(np.argmin(values))
    if not math.isfinite(values[i]):
        raise ComputationError("sensitivity is not finite anywhere in the tau domain")
    if i == _TAU_SCAN - 1:
        # still descending at the domain edge
        return TauOptimum(tau=tau_max, eta=values[-1], boundary=True)
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, _TAU_SCAN - 1)]
    log_best = _golden_min(objective, a, b)
    tau = math.exp(log_best)
    return TauOptimum(tau=tau, eta=objective(log_best), boundary=False)


@dataclass(frozen=True)
class MetricConfig:
    """Spin-bath inputs of the simplified metric. The per-shot overhead is
    what optimal_nitrogen sweeps, so it is an argument of simplified_metric
    rather than a field here."""

    c13: Concentration = Concentration(50.0)  # 99.995% 12C enrichment
    bath_coeffs: BathCoefficients = BathCoefficients()


def _bath_t2_n_c13(ns0_ppm: float, cfg: MetricConfig) -> float:
    rate = cfg.bath_coeffs.a_ns0 * ns0_ppm + cfg.bath_coeffs.a_c13 * cfg.c13.ppm
    if rate <= 0:
        raise ValidationError("metric undefined for an empty spin bath")
    return 1.0 / rate


def simplified_metric(ns0, t_overhead: float, cfg: MetricConfig) -> float:
    """Relative sensitivity vs nitrogen content, overhead-corrected.

    eta_tilde(N) = sqrt((T2* + t_O) / (N * T2*^2)) with T2*(N) taken from
    the nitrogen and carbon-13 bath terms only and t_O = t_overhead (us).
    The absolute scale is arbitrary; only ratios between nitrogen
    concentrations are meaningful.
    """
    n = ns0.ppm if isinstance(ns0, Concentration) else float(ns0)
    if not n > 0 or math.isinf(n):
        raise ValidationError(f"ns0 must be finite > 0 ppm, got {n}")
    if not t_overhead >= 0 or math.isinf(t_overhead):
        raise ValidationError(f"t_overhead must be finite >= 0, got {t_overhead}")
    t2 = _bath_t2_n_c13(n, cfg)
    return math.sqrt((t2 + t_overhead) / (n * t2 * t2))


@dataclass(frozen=True)
class NitrogenOptimum:
    concentration: Concentration
    metric: float
    interior: bool  # False: no interior optimum, boundary value returned


def optimal_nitrogen(t_overhead: float, cfg: MetricConfig = MetricConfig()) -> NitrogenOptimum:
    """Nitrogen concentration minimizing the simplified metric at a
    per-shot overhead of t_overhead us.

    Deterministic log-grid scan plus golden-section refinement over
    [0.01, 100] ppm. If the metric is monotone on the domain the boundary
    argmin is returned flagged interior=False.
    """

    def objective(log_n: float) -> float:
        return simplified_metric(math.exp(log_n), t_overhead, cfg)

    lo, hi = (math.log(n) for n in _NITROGEN_RANGE_PPM)
    grid = np.linspace(lo, hi, _NITROGEN_SCAN)
    values = [objective(x) for x in grid]
    i = int(np.argmin(values))
    if i in (0, _NITROGEN_SCAN - 1):
        n_opt = math.exp(grid[i])
        return NitrogenOptimum(Concentration(n_opt), values[i], interior=False)
    log_best = _golden_min(objective, grid[i - 1], grid[i + 1])
    return NitrogenOptimum(
        Concentration(math.exp(log_best)), objective(log_best), interior=True
    )


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
        if not self.rate_at_1mw_kcps > 0:
            raise ValidationError(
                f"rate_at_1mw_kcps must be > 0, got {self.rate_at_1mw_kcps}"
            )
        if not self.i_sat > 0:
            raise ValidationError(f"i_sat must be > 0, got {self.i_sat}")

    def rate_kcps(self, intensity) -> float:
        i = as_mw_per_um2(intensity)
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
        for name in ("intensity", "contrast_c", "psi", "t_overhead"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValidationError(f"{name} must be finite, got {v}")
            object.__setattr__(self, name, v)
        if self.intensity <= 0:
            raise ValidationError(f"intensity must be > 0, got {self.intensity}")
        if not 0.0 < self.contrast_c <= 1.0:
            raise ValidationError(f"contrast out of (0,1]: {self.contrast_c}")
        if not 0.0 <= self.psi <= 1.0:
            raise ValidationError(f"psi out of [0,1]: {self.psi}")
        if self.t_overhead < 0:
            raise ValidationError(f"overhead must be >= 0, got {self.t_overhead}")
        rate = self.photon_rate_kcps
        if rate is not None and not 0 <= rate < math.inf:
            raise ValidationError(f"photon_rate_kcps must be finite and >= 0, got {rate}")


@dataclass(frozen=True)
class InterpolatedRow:
    intensity: float
    contrast_c: float
    psi: float
    t_overhead: float
    photon_rate_kcps: Optional[float]


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

    def interpolate(self, intensity) -> InterpolatedRow:
        i = as_mw_per_um2(intensity)
        lo, hi = self.intensity_range
        if not lo <= i <= hi:
            raise ValidationError(
                f"intensity {i:g} outside table range [{lo:g}, {hi:g}]; "
                "extrapolation is not performed"
            )
        x = math.log10(i)

        def lerp(values):
            return float(np.interp(x, self._log_i, values))

        rate = None
        if self.rows[0].photon_rate_kcps is not None:
            rate = lerp([r.photon_rate_kcps for r in self.rows])
        return InterpolatedRow(
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
    boundary: bool
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
    if protocol not in PROTOCOLS:
        raise ValidationError(f"protocol must be one of {PROTOCOLS}, got {protocol!r}")
    row = table.interpolate(intensity)
    budget = spin_bath_budget(sample, coeffs)
    if protocol == "sq":
        rate = budget.bath_rate + float(bias_rate_per_us)
        t2 = 1.0 / rate if rate > 0 else math.inf
        delta_ms = 1
    else:
        t2 = dq_t2star(budget) or math.inf
        delta_ms = 2
    if math.isinf(t2):
        raise ValidationError("sample has no dephasing mechanism; T2* unbounded")

    n_eff = (
        sample.nv_total.ppm
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
    window = row.t_overhead if readout_window_us is None else float(readout_window_us)
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
        boundary=best.boundary,
        t2_star=t2,
        n_eff_per_cm3=n_eff,
        n_avg=n_avg,
        contrast_c=row.contrast_c,
        psi=row.psi,
        t_overhead=row.t_overhead,
        intensity=row.intensity,
        protocol=protocol,
    )
