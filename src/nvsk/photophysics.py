"""Five-level NV photophysics under continuous optical excitation.

States: 1 ground m_s=0, 2 ground m_s=+-1, 3 excited m_s=0, 4 excited
m_s=+-1, 5 metastable singlet. With populations n_i, radiative rate G
(1/us), pump saturation parameter s = I/I_sat and branching prefactors
kappa_ij, the populations obey

    dn1/dt = G (-s n1 + n3 + k51 n5)
    dn2/dt = G (-s n2 + n4 + k52 n5)
    dn3/dt = G ( s n1 - (1 + k35) n3)
    dn4/dt = G ( s n2 - (1 + k45) n4)
    dn5/dt = G ( k35 n3 + k45 n4 - (k51 + k52) n5)

which conserve total population exactly. Photoluminescence is emitted from
the excited states, R(t) = G (n3 + n4), and is low-pass filtered to emulate
the acquisition hardware before contrast is formed. The m_s=+-1 branch
shelves into the singlet more readily (k45 > k35), so a spin-polarized
ensemble read out optically appears dimmer until optical pumping returns it
to m_s=0; the decay of that contrast defines the initialization time.

The system is linear with a constant rate matrix A, so one output step is
the exact propagator P = expm(A dt). The contrast and initialization-time
routines advance the Sig and Ref populations with powers of P, while evolve()
integrates the equations with an adaptive Runge-Kutta method on the same
grid; the two paths agree to integrator tolerance and are cross-checked in
the test suite. The steady state is a linear solve on A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.ndimage import uniform_filter1d
from scipy.signal import butter, sosfilt

from .core import as_mw_per_um2
from .errors import ComputationError, ValidationError

DEFAULT_FILTER_ORDER = 4
DEFAULT_FILTER_CUTOFF_MHZ = 1.7

_POPULATION_TOL = 1e-9


@dataclass(frozen=True)
class FiveLevelParams:
    """Rates of the five-level model; all prefactors multiply gamma_rad.

    i_sat_band holds the (lower, upper) saturation intensities in mW/um^2
    used to bracket initialization-time predictions.
    """

    gamma_rad: float = 0.67  # 1/us
    kappa_45: float = 1.0
    kappa_35: float = 1.0 / 7.0
    kappa_52: float = 1.0 / 50.0
    kappa_51: float = 1.0 / 25.0
    i_sat_band: tuple = (1.0, 3.0)

    def __post_init__(self):
        for name in ("gamma_rad", "kappa_45", "kappa_35", "kappa_52", "kappa_51"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v < 0:
                raise ValidationError(f"{name} must be a finite rate >= 0, got {v}")
            object.__setattr__(self, name, v)
        if self.gamma_rad == 0:
            raise ValidationError("gamma_rad must be > 0")
        band = tuple(float(x) for x in self.i_sat_band)
        if len(band) != 2 or not (0 < band[0] <= band[1]):
            raise ValidationError(f"i_sat_band must be 0 < lower <= upper, got {band}")
        object.__setattr__(self, "i_sat_band", band)


def saturation_parameter(intensity, i_sat: float) -> float:
    i = as_mw_per_um2(intensity)
    if not i_sat > 0:
        raise ValidationError(f"i_sat must be > 0, got {i_sat}")
    return i / i_sat


def rate_matrix(params: FiveLevelParams, s: float) -> np.ndarray:
    """Rate matrix A (1/us) of dn/dt = A n. Columns sum to zero."""
    if not s >= 0:
        raise ValidationError(f"saturation parameter must be >= 0, got {s}")
    k35, k45 = params.kappa_35, params.kappa_45
    k51, k52 = params.kappa_51, params.kappa_52
    a = np.array(
        [
            [-s, 0.0, 1.0, 0.0, k51],
            [0.0, -s, 0.0, 1.0, k52],
            [s, 0.0, -(1.0 + k35), 0.0, 0.0],
            [0.0, s, 0.0, -(1.0 + k45), 0.0],
            [0.0, 0.0, k35, k45, -(k51 + k52)],
        ]
    )
    return params.gamma_rad * a


@dataclass(frozen=True)
class StateVector:
    """Populations of the five levels; must be a probability vector."""

    n1: float
    n2: float
    n3: float
    n4: float
    n5: float

    def __post_init__(self):
        vals = self.as_array()
        if np.any(vals < -_POPULATION_TOL) or np.any(vals > 1.0 + _POPULATION_TOL):
            raise ValidationError(f"populations out of [0,1]: {vals.tolist()}")
        if abs(float(vals.sum()) - 1.0) > _POPULATION_TOL:
            raise ValidationError(
                f"populations must sum to 1 within {_POPULATION_TOL}, "
                f"got {float(vals.sum())!r}"
            )

    def as_array(self) -> np.ndarray:
        return np.array([self.n1, self.n2, self.n3, self.n4, self.n5], dtype=float)


GROUND_MS0 = StateVector(1.0, 0.0, 0.0, 0.0, 0.0)
GROUND_MS_PM1 = StateVector(0.0, 1.0, 0.0, 0.0, 0.0)


def max_stable_dt(params: FiveLevelParams, s: float) -> float:
    """Largest output step that resolves the fastest relaxation channel and
    samples the readout filter at ten times its cutoff."""
    fastest = max(
        1.0,
        s,
        1.0 + params.kappa_35,
        1.0 + params.kappa_45,
        params.kappa_51 + params.kappa_52,
    )
    return min(
        0.01 / (params.gamma_rad * fastest), 1.0 / (10.0 * DEFAULT_FILTER_CUTOFF_MHZ)
    )


def _check_grid(params, s, t_end, dt):
    if not t_end > 0:
        raise ValidationError(f"t_end must be > 0, got {t_end}")
    if not dt > 0:
        raise ValidationError(f"dt must be > 0, got {dt}")
    limit = max_stable_dt(params, s)
    if dt > limit * (1.0 + 1e-12):
        raise ValidationError(
            f"dt = {dt:g} us does not resolve the dynamics at s = {s:g}; "
            f"required dt <= {limit:.6g} us"
        )
    n_steps = int(math.ceil(t_end / dt - 1e-9))
    return n_steps


class Trajectory:
    """Populations sampled on a uniform time grid."""

    def __init__(self, times: np.ndarray, populations: np.ndarray, s: float,
                 params: FiveLevelParams):
        self.times = times
        self.populations = populations  # shape (n, 5)
        self.s = s
        self.params = params
        self.dt = float(times[1] - times[0]) if len(times) > 1 else 0.0

    def __len__(self):
        return len(self.times)

    def conservation_error(self) -> float:
        return float(np.abs(self.populations.sum(axis=1) - 1.0).max())


def evolve(
    params: FiveLevelParams,
    s: float,
    initial: StateVector,
    t_end: float,
    dt: float,
) -> Trajectory:
    """Integrate the rate equations, reporting populations every dt.

    Adaptive eighth-order Runge-Kutta with tight tolerances; total
    population is conserved to well below 1e-9 over the trajectory.
    """
    n_steps = _check_grid(params, s, t_end, dt)
    a = rate_matrix(params, s)
    grid = np.arange(n_steps + 1) * dt
    sol = solve_ivp(
        lambda _t, y: a @ y,
        (0.0, grid[-1]),
        initial.as_array(),
        method="DOP853",
        t_eval=grid,
        rtol=1e-10,
        atol=1e-12,
    )
    if not sol.success:
        raise ComputationError(f"integration failed: {sol.message}")
    return Trajectory(sol.t, sol.y.T, s=s, params=params)


def steady_state(params: FiveLevelParams, s: float) -> StateVector:
    """Stationary distribution: A n = 0 with the last equation replaced by
    conservation, sum n = 1.

    Unique only under optical pumping; at s = 0 every ground-state mixture
    is stationary, so that case is refused.
    """
    if not s > 0:
        raise ValidationError("steady state is not unique without pumping (s = 0)")
    a = rate_matrix(params, s)
    a[-1] = 1.0
    return StateVector(*np.linalg.solve(a, np.eye(5)[-1]).tolist())


@dataclass
class PLTrace:
    """Photoluminescence rate (1/us) on a uniform time grid (us)."""

    times: np.ndarray
    values: np.ndarray
    s: float
    filtered: bool = False
    params: Optional[FiveLevelParams] = None

    def __post_init__(self):
        if len(self.times) != len(self.values):
            raise ValidationError("time grid and values differ in length")
        if len(self.times) < 2:
            raise ValidationError("trace needs at least two samples")
        steps = np.diff(self.times)
        if steps.min() <= 0 or (steps.max() - steps.min()) > 1e-9 * steps.max():
            raise ValidationError("time grid must be uniform and increasing")
        if not self.filtered and np.any(self.values < 0):
            raise ValidationError("unfiltered PL rate must be non-negative")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


def pl_rate(trajectory: Trajectory) -> PLTrace:
    """Emission rate R(t) = gamma_rad * (n3 + n4)."""
    g = trajectory.params.gamma_rad
    values = g * (trajectory.populations[:, 2] + trajectory.populations[:, 3])
    return PLTrace(
        times=trajectory.times, values=values, s=trajectory.s,
        params=trajectory.params,
    )


def _design_lowpass(dt: float, order: int, f_cut_mhz: float):
    fs = 1.0 / dt  # sample rate in MHz for time in us
    if fs < 10.0 * f_cut_mhz:
        raise ValidationError(
            f"trace undersampled for filtering: sample rate {fs:g} MHz "
            f"< 10 x cutoff {f_cut_mhz:g} MHz"
        )
    return butter(order, f_cut_mhz, btype="low", fs=fs, output="sos")


def lowpass(
    trace: PLTrace,
    order: int = DEFAULT_FILTER_ORDER,
    f_cut_mhz: float = DEFAULT_FILTER_CUTOFF_MHZ,
) -> PLTrace:
    """Causal Butterworth low-pass emulating the acquisition hardware.

    Bilinear design at the trace sample rate; unity DC gain. The filter is
    causal (startup transient included), matching how the instrument sees a
    signal that switches on at t = 0.
    """
    sos = _design_lowpass(trace.dt, order, f_cut_mhz)
    values = sosfilt(sos, trace.values)
    return PLTrace(
        times=trace.times, values=values, s=trace.s, filtered=True,
        params=trace.params,
    )


def _slowest_relaxation(params: FiveLevelParams, s: float) -> float:
    lam = np.linalg.eigvals(rate_matrix(params, s))
    rates = np.sort(np.abs(lam.real))
    nonzero = rates[rates > 1e-12 * max(1.0, rates.max())]
    if nonzero.size == 0:
        return 0.0
    return float(nonzero[0])


def default_trace_window(params: FiveLevelParams, s: float) -> float:
    """Simulation length covering the contrast peak and its decay tail."""
    slow = _slowest_relaxation(params, s)
    if slow == 0.0:
        return 100.0
    return 30.0 + 7.0 / slow


@dataclass
class ContrastCurve:
    """Filtered signal/reference PL ratio versus readout delay."""

    times: np.ndarray
    contrast: np.ndarray
    s: float
    intensity: float
    i_sat: float

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


_READOUT_BLOCK = 2**14


def _contrast_arrays(
    params: FiveLevelParams,
    s: float,
    t_end: float,
    dt: float,
    keep_stride: int = 1,
    sig_initial: StateVector = GROUND_MS_PM1,
    ref_initial: StateVector = GROUND_MS0,
):
    """Filtered Sig/Ref contrast on the grid k * dt, keeping every
    keep_stride-th sample.

    Sig and Ref advance together as the (5, 2) population state under the
    exact one-step propagator P. Output comes in blocks of _READOUT_BLOCK
    steps (the whole trace if shorter, rounded up to a multiple of
    keep_stride): the PL rows gamma (e3 + e4) P^j, j < block, are built once
    by doubling, so each block is one product with the state, filtered with
    the carried filter state, and the state then advances by P^block.
    Where the filtered Ref PL is not above 1e-9 of its steady-state level,
    the ratio is taken as undefined and the contrast as one; the floor is
    fixed by the model, so a sample's value does not depend on the trace
    length. Without pumping (s = 0) there is no PL and the contrast is one
    throughout.
    """
    n_steps = _check_grid(params, s, t_end, dt)
    total = n_steps + 1
    prop = expm(rate_matrix(params, s) * dt)
    block = keep_stride * math.ceil(min(total, _READOUT_BLOCK) / keep_stride)
    rows = params.gamma_rad * np.array([[0.0, 0.0, 1.0, 1.0, 0.0]])
    ref_floor = math.inf
    if s > 0:
        ref_floor = 1e-9 * float(rows[0] @ steady_state(params, s).as_array())
    power = prop
    while len(rows) < block:
        rows = np.vstack([rows, rows @ power])
        power = power @ power
    rows_t = rows[:block].T
    step = np.linalg.matrix_power(prop, block)
    state = np.column_stack([sig_initial.as_array(), ref_initial.as_array()])
    sos = _design_lowpass(dt, DEFAULT_FILTER_ORDER, DEFAULT_FILTER_CUTOFF_MHZ)
    zi = np.zeros((len(sos), 2, 2))
    kept = []
    for lo in range(0, total, block):
        pl = state.T @ rows_t[:, : total - lo]
        (sig, ref), zi = sosfilt(sos, pl, zi=zi)
        contrast = np.ones_like(ref)
        np.divide(sig, ref, out=contrast, where=np.abs(ref) > ref_floor)
        kept.append(contrast[::keep_stride])
        state = step @ state
    return np.arange(0, total, keep_stride) * dt, np.concatenate(kept)


_MAX_CURVE_SAMPLES = 20_000_000


def contrast_trace(
    params: FiveLevelParams,
    intensity,
    i_sat: float,
    t_end: Optional[float] = None,
    dt: Optional[float] = None,
    sig_initial: StateVector = GROUND_MS_PM1,
    ref_initial: StateVector = GROUND_MS0,
) -> ContrastCurve:
    """Simulate the pulsed readout protocol at one excitation intensity.

    Sig starts from m_s=+-1, Ref from m_s=0; both PL traces are filtered and
    their ratio returned versus delay. The curve dips below one while the
    spin ensemble is polarized and relaxes back to one as optical pumping
    repolarizes it. Defaults: dt at the resolution limit, t_end spanning the
    full repolarization transient.

    The full-resolution curve is materialized, so extremely weak pumping
    (repolarization windows of millions of resolution-limited samples) is
    refused; use ti_band, which stores traces decimated, or pass a shorter
    t_end.
    """
    i = as_mw_per_um2(intensity)
    s = saturation_parameter(i, i_sat)
    if dt is None:
        dt = max_stable_dt(params, s)
    if t_end is None:
        t_end = default_trace_window(params, s)
    n_total = int(math.ceil(t_end / dt)) + 1
    if n_total > _MAX_CURVE_SAMPLES:
        raise ValidationError(
            f"contrast trace of {n_total:,} samples (t_end {t_end:g} us at "
            f"dt {dt:g} us) exceeds the {_MAX_CURVE_SAMPLES:,}-sample limit; "
            "use ti_band for this regime or pass a shorter t_end"
        )
    times, contrast = _contrast_arrays(
        params, s, t_end, dt, sig_initial=sig_initial, ref_initial=ref_initial
    )
    return ContrastCurve(times=times, contrast=contrast, s=s, intensity=i, i_sat=i_sat)


def initialization_time(curve: ContrastCurve) -> float:
    """Delay (from pulse start) at which the contrast deviation from one
    has decayed to 1/e^3 of its peak.

    The peak is located on a 3-sample smoothed |1 - contrast|; an
    exponential is then fitted (log-linear regression) from the peak to
    where the deviation falls below 1% of the peak, and the 1/e^3 crossing
    is read off the fit. Readout time is included since delays are measured
    from the start of the optical pulse.
    """
    dev = 1.0 - curve.contrast
    smoothed = uniform_filter1d(np.abs(dev), size=3, mode="nearest")
    i_peak = int(np.argmax(smoothed))
    d_peak = float(abs(dev[i_peak]))
    if d_peak < 1e-6:
        raise ValidationError("no polarization dynamics at this intensity")
    tail = np.abs(dev[i_peak:])
    below = np.nonzero(tail < 0.01 * d_peak)[0]
    i_end = i_peak + (int(below[0]) if below.size else len(tail))
    if i_end - i_peak < 5:
        i_end = min(len(dev), i_peak + 5)
    t_window = curve.times[i_peak:i_end]
    d_window = np.abs(dev[i_peak:i_end])
    keep = d_window > 0
    t_window, d_window = t_window[keep], d_window[keep]
    if len(t_window) < 2:
        raise ComputationError("too few samples after the contrast peak")
    if len(t_window) > 200_000:
        idx = np.linspace(0, len(t_window) - 1, 200_000).astype(int)
        t_window, d_window = t_window[idx], d_window[idx]
    slope, intercept = np.polyfit(t_window, np.log(d_window), 1)
    if slope >= 0:
        raise ComputationError("contrast deviation does not decay after its peak")
    return float((math.log(d_peak) - 3.0 - intercept) / slope)


@dataclass
class TiBand:
    """Initialization-time bounds over an intensity grid."""

    intensities: np.ndarray
    lower: np.ndarray  # from the lower saturation intensity (stronger pumping)
    upper: np.ndarray


def ti_band(
    params: FiveLevelParams,
    intensities,
    max_kept_samples: int = 2_000_000,
) -> TiBand:
    """Map initialization_time over a grid at both band saturation
    intensities. Long low-intensity traces are stored decimated (the
    dynamics are evaluated at full resolution first, then strided) to keep
    memory bounded.
    """
    grid = np.asarray([as_mw_per_um2(i) for i in intensities], dtype=float)
    if grid.size == 0:
        raise ValidationError("empty intensity grid")
    results = []
    for i_sat in params.i_sat_band:
        t_is = []
        for i in grid:
            s = saturation_parameter(i, i_sat)
            dt = max_stable_dt(params, s)
            t_end = default_trace_window(params, s)
            n_total = int(math.ceil(t_end / dt)) + 1
            stride = max(1, int(math.ceil(n_total / max_kept_samples)))
            times, contrast = _contrast_arrays(params, s, t_end, dt, keep_stride=stride)
            curve = ContrastCurve(
                times=times, contrast=contrast, s=s, intensity=i, i_sat=i_sat
            )
            t_is.append(initialization_time(curve))
        results.append(np.asarray(t_is))
    return TiBand(intensities=grid, lower=results[0], upper=results[1])
