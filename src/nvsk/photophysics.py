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
the exact propagator P = expm(A dt), computed in numpy by Padé
approximation with scaling and squaring. The readout filter is linear too:
its Butterworth sections are designed in numpy and, written in state space,
join the populations in one 9-dimensional state with a single step matrix;
the filtered PL at any sample is an output row of a power of that matrix.
The contrast and initialization-time routines evaluate those rows only at
the samples they keep. Every grid is uniform from t = 0, so a trace holds
its step dt, not its times: sample k lies at k dt (k stride dt on a
ContrastCurve that keeps every stride-th step), and times are built from
the step when asked for. ti_band writes the contrast of all its traces, in
turn, into one buffer of the largest kept count, finds each t_I in
cache-sized blocks and builds times only for the samples the fit takes, so
a call's peak memory is about one kept-sample array, at most 16 MB, and no
trace faults in fresh pages. evolve() instead integrates the rate equations
by adaptive Runge-Kutta, scipy 1.17.1's DOP853 written in numpy with the
same floating-point operations, and lowpass() runs the same state-space
filter over a given trace in numpy, block by block. The test suite
cross-checks the two paths. The steady state is a linear solve on A.
Nothing here imports scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import MAX_TRACE_SAMPLES, capped_count, non_negative, positive
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
        object.__setattr__(self, "gamma_rad", positive("gamma_rad", self.gamma_rad, "1/us"))
        for name in ("kappa_45", "kappa_35", "kappa_52", "kappa_51"):
            object.__setattr__(self, name, non_negative(name, getattr(self, name)))
        band = tuple(positive("i_sat_band", x, "mW/um^2") for x in self.i_sat_band)
        if len(band) != 2 or not band[0] <= band[1]:
            raise ValidationError(f"i_sat_band must be (lower, upper), lower <= upper, got {band}")
        object.__setattr__(self, "i_sat_band", band)


def saturation_parameter(intensity, i_sat: float) -> float:
    i = non_negative("intensity", intensity, "mW/um^2")
    s = i / positive("i_sat", i_sat, "mW/um^2")
    if not math.isfinite(s):
        raise ValidationError(
            f"saturation parameter I/I_sat = {i:g}/{i_sat:g} overflows: i_sat is too small"
        )
    return s


def rate_matrix(params: FiveLevelParams, s: float) -> np.ndarray:
    """Rate matrix A (1/us) of dn/dt = A n. Columns sum to zero.

    Rates gamma_rad x (s, 1 + kappa, kappa) that leave the float range are
    refused: one that overflows makes A non-finite, and one that underflows
    to 0 can leave A singular, without its steady state.
    """
    s = non_negative("saturation parameter", s)
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
    with np.errstate(over="ignore"):
        rates = params.gamma_rad * a
    if not np.isfinite(rates).all() or np.count_nonzero(rates) < np.count_nonzero(a):
        raise ValidationError(
            "rates gamma_rad x (s, 1 + kappa, kappa) must be finite and nonzero, got "
            f"gamma_rad {params.gamma_rad!r} 1/us at saturation parameter {s:g}"
        )
    return rates


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


# Longest resolution-limited grid ti_band strides over: the step counts of its
# strided propagators reach four times this and must stay within int64.
_MAX_GRID_STEPS = 2**61


def _check_grid(params, s, t_end, dt, max_samples=_MAX_GRID_STEPS):
    """Steps of the grid k * dt up to t_end. A grid of more than max_samples
    samples is refused."""
    t_end = positive("t_end", t_end, "us")
    dt = positive("dt", dt, "us")
    limit = max_stable_dt(params, s)
    if dt > limit * (1.0 + 1e-12):
        raise ValidationError(
            f"dt = {dt:g} us does not resolve the dynamics at s = {s:g}; "
            f"required dt <= {limit:.6g} us"
        )
    steps = t_end / dt - 1e-9
    capped_count(
        f"time grid (t_end {t_end:g} us at dt {dt:g} us)", steps + 1, max_samples, "samples",
        "pass a shorter t_end, or use ti_band for this regime",
    )
    n_steps = int(math.ceil(steps))
    if n_steps < 1:
        raise ValidationError(
            f"t_end = {t_end:g} us is shorter than one step dt = {dt:g} us; "
            "a trace needs at least two samples"
        )
    return n_steps


class Trajectory:
    """Populations sampled every dt (us) from t = 0."""

    def __init__(self, dt: float, populations: np.ndarray, params: FiveLevelParams):
        self.dt = dt
        self.populations = populations  # shape (n, 5)
        self.params = params

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.populations)) * self.dt

    def conservation_error(self) -> float:
        return float(np.abs(self.populations.sum(axis=1) - 1.0).max())


# The DOP853 tableau (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.5)
# as the doubles scipy 1.17.1 holds. Row i of _DOP853_A weights stages
# 0..i-1 into stage i: rows 1-11 build the 12 stages, row 12 is the
# eighth-order solution _DOP853_B, and rows 13-15 are the 3 extra stages of
# the dense output, whose terms of degree 3-6 _DOP853_D weights over all 16
# stages. _DOP853_E5 and _DOP853_E3 weight the 12 stages and the derivative
# at the step's end into the fifth- and third-order error estimates. The
# stage times are not needed: the rate equations do not depend on t.
_DOP853_A = np.array([
    [*row, *[0.0] * (16 - len(row))] for row in (
        (),
        (0.05260015195876773,),
        (0.0197250569845379, 0.0591751709536137),
        (0.02958758547680685, 0.0, 0.08876275643042054),
        (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
        (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
        (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
        (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
         -0.015319437748624402, 0.008273789163814023),
        (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
         27.59209969944671, 20.154067550477894, -43.48988418106996),
        (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
         21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
        (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
         -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
         -3.0467644718982196),
        (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
         -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
         12.360567175794303, 0.6433927460157636),
        (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
         -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
         0.04471061572777259),
        (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
         -0.2462390374708025, -0.12419142326381637, 0.15329179827876568, 0.00820105229563469,
         0.007567897660545699, -0.008298),
        (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
         -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
         -0.00034046500868740456, 0.1413124436746325),
        (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
         4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
         2.9475147891527724, -9.15095847217987),
    )
])
_DOP853_B = _DOP853_A[12, :12]
_DOP853_E3 = np.array([
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
    0.02265179219836082, 0.0,
])
_DOP853_E5 = np.array([
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294, 0.0,
])
_DOP853_D = np.array([
    [-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894],
    [10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408],
    [19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279],
    [-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564],
])
# evolve's tolerances, and the step-size control of scipy's _ivp/rk.py:
# steps scale by SAFETY err^(-1/8), for the order-7 error estimate, within
# [MIN_FACTOR, MAX_FACTOR]
_RTOL, _ATOL = 1e-10, 1e-12
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 8


def _rms(x: np.ndarray):
    return np.linalg.norm(x) / x.size**0.5


def _initial_step(a, y0, f0, t_bound):
    """First step for dn/dt = a n from t = 0 to t_bound: scipy's
    select_initial_step (_ivp/common.py) for the order-7 error estimate."""
    scale = _ATOL + np.abs(y0) * _RTOL
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, t_bound)
    f1 = a @ (y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, t_bound)


def _rk_step(a, y, f, h, k):
    """One DOP853 step of size h from y, with f = a y: the new state and
    its derivative, which with the 12 stages goes into rows 0-12 of k.
    scipy's rk_step (_ivp/rk.py)."""
    k[0] = f
    for s in range(1, 12):
        k[s] = a @ (y + k[:s].T.dot(_DOP853_A[s, :s]) * h)
    y_new = y + h * k[:12].T.dot(_DOP853_B)
    k[12] = f_new = a @ y_new
    return y_new, f_new


def _error_norm(k, h, scale):
    """RMS norm, relative to scale, of the error estimate of the step of
    size h whose stages k holds: DOP853's _estimate_error_norm, the
    fifth-order estimate corrected by the third-order one."""
    err5 = k.T.dot(_DOP853_E5) / scale
    err3 = k.T.dot(_DOP853_E3) / scale
    err5_norm_2 = np.linalg.norm(err5) ** 2
    err3_norm_2 = np.linalg.norm(err3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def _dense_output(a, k_ext, h, y_old, y, f):
    """The coefficients of the interpolant over a DOP853 step, as the rows
    of a (7, 5) array: the step, of size h, went from y_old to y with
    stages k_ext[:13] and f = a y, and its 3 extra stages go into
    k_ext[13:]. scipy's _dense_output_impl (_ivp/rk.py)."""
    for s in range(13, 16):
        k_ext[s] = a @ (y_old + k_ext[:s].T.dot(_DOP853_A[s, :s]) * h)
    coeffs = np.empty((7, len(y)))
    f_old = k_ext[0]
    delta_y = y - y_old
    coeffs[0] = delta_y
    coeffs[1] = h * f_old - delta_y
    coeffs[2] = 2 * delta_y - h * (f + f_old)
    coeffs[3:] = h * np.dot(_DOP853_D, k_ext)
    return coeffs


# Samples per block of evolve's dense output: the (5, block) array it is
# interpolated in stays in cache
_DENSE_BLOCK = 2**12


def _interpolate(coeffs, y_old, x):
    """The interpolant at the step fractions x as a (5, len(x)) array, one
    column per fraction: Dop853DenseOutput's Horner sequence, element by
    element, in the rows c of coeffs: y = 0, y += c6, y *= x, y += c5,
    y *= 1 - x, ..., y += c0, y *= x, y += y_old."""
    y = np.zeros((len(y_old), len(x)))
    rest = 1 - x
    for i in range(6, -1, -1):
        y += coeffs[i, :, None]
        y *= x if i % 2 == 0 else rest
    y += y_old[:, None]
    return y


def evolve(
    params: FiveLevelParams,
    s: float,
    initial: StateVector,
    t_end: float,
    dt: float,
) -> Trajectory:
    """Integrate the rate equations, reporting populations every dt.

    Adaptive eighth-order Runge-Kutta (DOP853) with tight tolerances; total
    population is conserved to well below 1e-9 over the trajectory. The
    loop is scipy 1.17.1's solve_ivp with t_eval set to the grid, in numpy:
    its DOP853 solver's step-size control and rejections, its refusal of a
    step below ten times the spacing of doubles at t, and after each step
    the dense output at the grid points the step reached. Every
    floating-point operation is scipy's, so the populations are
    solve_ivp's bit for bit. The dense output is interpolated in blocks of
    up to _DENSE_BLOCK samples, one level per row, so each operation runs
    over contiguous samples, and each block is copied into the
    preallocated populations. A grid of more than MAX_TRACE_SAMPLES
    samples is refused.
    """
    n_steps = _check_grid(params, s, t_end, dt, MAX_TRACE_SAMPLES)
    a = rate_matrix(params, s)
    grid = np.arange(n_steps + 1) * dt
    t_bound = float(grid[-1])
    populations = np.empty((len(grid), 5))
    k_ext = np.empty((16, 5))  # the stages; rows 13-15 for the dense output
    k = k_ext[:13]
    t, y = 0.0, initial.as_array()
    f = a @ y
    h_abs = _initial_step(a, y, f, t_bound)
    done = 0  # grid points written
    while t < t_bound:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                raise ComputationError(
                    "integration failed: Required step size is less than spacing between "
                    "numbers."
                )
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            y_new, f_new = _rk_step(a, y, f, h, k)
            scale = _ATOL + np.maximum(np.abs(y), np.abs(y_new)) * _RTOL
            error_norm = _error_norm(k, h, scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
            rejected = True
        reached = int(np.searchsorted(grid, t_new, side="right"))
        if reached > done:
            coeffs = _dense_output(a, k_ext, h, y, y_new, f_new)
            for lo in range(done, reached, _DENSE_BLOCK):
                hi = min(lo + _DENSE_BLOCK, reached)
                x = (grid[lo:hi] - t) / (t_new - t)
                populations[lo:hi] = _interpolate(coeffs, y, x).T
            done = reached
        t, y, f = t_new, y_new, f_new
    return Trajectory(dt, populations, params)


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
    """Photoluminescence rate (1/us) sampled every dt (us) from t = 0."""

    dt: float
    values: np.ndarray
    filtered: bool = False

    def __post_init__(self):
        self.dt = positive("dt", self.dt, "us")
        if len(self.values) < 2:
            raise ValidationError("trace needs at least two samples")
        if not self.filtered and np.any(self.values < 0):
            raise ValidationError("unfiltered PL rate must be non-negative")

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.values)) * self.dt


def pl_rate(trajectory: Trajectory) -> PLTrace:
    """Emission rate R(t) = gamma_rad * (n3 + n4)."""
    g = trajectory.params.gamma_rad
    values = g * (trajectory.populations[:, 2] + trajectory.populations[:, 3])
    return PLTrace(dt=trajectory.dt, values=values)


def _lowpass_poles(dt: float):
    """Digital poles and overall gain of the readout filter at step dt: one
    upper-half-plane pole per second-order section, in section order.

    The analog Butterworth poles, prewarped to the cutoff, go through the
    bilinear transform z = (4 + p) / (4 - p) (sample rate normalised to 2);
    all zeros land on z = -1. DEFAULT_FILTER_ORDER is even, so each section
    holds one upper-half-plane pole and its conjugate; sections farthest
    from the unit circle come first.
    """
    fs = 1.0 / dt  # sample rate in MHz for time in us
    if fs < 10.0 * DEFAULT_FILTER_CUTOFF_MHZ:
        raise ValidationError(
            f"trace undersampled for filtering: sample rate {fs:g} MHz "
            f"< 10 x cutoff {DEFAULT_FILTER_CUTOFF_MHZ:g} MHz"
        )
    n = DEFAULT_FILTER_ORDER
    warped = 4.0 * np.tan(math.pi * (DEFAULT_FILTER_CUTOFF_MHZ / fs))
    analog = warped * -np.exp(1j * math.pi * np.arange(1 - n, n, 2) / (2 * n))
    gain = warped**n * (1.0 / np.prod(4.0 - analog)).real
    poles = (4.0 + analog) / (4.0 - analog)
    upper = poles[poles.imag > 0]
    return upper[np.argsort(-np.abs(1.0 - np.abs(upper)))], gain


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
    """Filtered signal/reference PL ratio versus readout delay, Sig started
    from m_s=+-1 and Ref from m_s=0. Sample k lies at (k stride) dt (us):
    every stride-th step of the grid of step dt."""

    contrast: np.ndarray
    dt: float
    stride: int = 1

    def __post_init__(self):
        self.dt = positive("dt", self.dt, "us")
        if len(self.contrast) == 0:
            raise ValidationError("contrast curve has no samples")

    def time(self, index):
        """Delays (us) of the samples at index, an int or an int array."""
        return (index * self.stride) * self.dt

    @property
    def times(self) -> np.ndarray:
        return self.time(np.arange(len(self.contrast)))


# Kept samples per output block. A power of two, so the row doubling ends on
# the block advance; small enough that the (2, 9) x (9, block) product runs
# on one thread.
_KEPT_BLOCK = 2**13


def _filter_state_space(dt: float):
    """State-space (F, G, H, D) of the readout filter at step dt: the
    cascade of its second-order sections, each in coupled (normal) form.

    Section k of the design of _lowpass_poles, with upper pole
    sigma + i omega, is b0 (1 + 2/z + 1/z^2) / (1 + a1/z + a2/z^2), where
    a1 = -2 sigma, a2 = sigma^2 + omega^2 and b0 is the overall gain on
    the first section and 1 on the others. It splits into b0 plus a
    strictly proper part with numerator beta1 z + beta2 (beta_i = b_i -
    a_i b0), realized by the rotation-scaling state matrix
    [[sigma, omega], [-omega, sigma]], input [1, 0] and output
    [beta1, -(beta2 + beta1 sigma) / omega]. Unlike the direct-form
    states, this realization stays well conditioned as the poles crowd
    towards z = 1 at high sample rates. sigma and omega are the bilinear
    poles themselves: omega = sqrt(a2 - sigma^2) from the rounded
    coefficients would cancel to zero at small dt.
    """
    poles, gain = _lowpass_poles(dt)
    a2 = (poles * poles.conj()).real
    n = 2 * len(poles)
    f = np.zeros((n, n))
    g = np.zeros(n)
    h = np.zeros(n)
    d = 1.0
    for k, pole in enumerate(poles):
        lo = 2 * k
        sigma, omega = pole.real, pole.imag
        b0 = gain if k == 0 else 1.0
        b1, a1 = 2.0 * b0, -2.0 * sigma
        beta1, beta2 = b1 - a1 * b0, b0 - a2[k] * b0
        # the section's input is the output d u + h z of those before it
        f[lo, :lo] = h[:lo]
        g[lo] = d
        f[lo : lo + 2, lo : lo + 2] = [[sigma, omega], [-omega, sigma]]
        h[:lo] *= b0
        h[lo : lo + 2] = beta1, -(beta2 + beta1 * sigma) / omega
        d *= b0
    return f, g, h, d


# Samples per block of lowpass, and blocks per chunk. A block's outputs are
# its inputs times a (64, 64) Toeplitz matrix, so a chunk's are one
# (64, 64) x (64, 64) product: 262,144 multiply-adds, the most OpenBLAS runs
# on one thread.
_FILTER_BLOCK = 64


def lowpass(trace: PLTrace) -> PLTrace:
    """Causal Butterworth low-pass emulating the acquisition hardware.

    Order DEFAULT_FILTER_ORDER with cutoff DEFAULT_FILTER_CUTOFF_MHZ, bilinear
    design at the trace sample rate; unity DC gain. The filter is
    causal (startup transient included), matching how the instrument sees a
    signal that switches on at t = 0.

    It runs on the state space (F, G, H, D) of _filter_state_space, the
    realization the readout uses, from a zero state. Samples go in blocks
    of _FILTER_BLOCK: a block's outputs are its inputs times the Toeplitz
    matrix of the impulse response D, HG, HFG, ... plus H F^j times its
    start state, and its end state is F^_FILTER_BLOCK times its start state
    plus the sum of F^(_FILTER_BLOCK - 1 - j) G x_j. The start states of a
    chunk of _FILTER_BLOCK blocks come from a doubling scan over those end
    states, so each chunk is a few small products on preallocated buffers.
    """
    f, g, h, d = _filter_state_space(trace.dt)
    m, dim = _FILTER_BLOCK, len(f)
    out_rows = np.empty((m, dim))  # row j: H F^j
    in_rows = np.empty((m, dim))  # row j: (F^(m - 1 - j) G)^T
    row, col = h, g
    for j in range(m):
        out_rows[j] = row
        in_rows[m - 1 - j] = col
        row, col = row @ f, f @ col
    impulse = np.concatenate([[d], out_rows[:-1] @ g])
    lag = np.arange(m) - np.arange(m)[:, None]
    toeplitz = np.where(lag >= 0, impulse[np.maximum(lag, 0)], 0.0)  # [i, j]: impulse[j - i]
    # transposed advances of a block state over 1, 2, 4, ... blocks
    advances_t = [np.linalg.matrix_power(f, m).T]
    while len(advances_t) < (m - 1).bit_length():
        advances_t.append(advances_t[-1] @ advances_t[-1])

    x = np.asarray(trace.values, dtype=float)
    # a block's product would spread a non-finite sample to the samples
    # before it
    if not (np.isfinite(x.min()) and np.isfinite(x.max())):
        raise ValidationError("PL values to filter must be finite")
    n = len(x)
    values = np.empty(n)
    chunk = m * m
    states = np.empty((m, dim))  # start state of each block of the chunk
    inputs = np.empty((m, dim))  # input part of each block's end state
    moved = np.empty((m, dim))
    response = np.empty((m, m))
    tail_in = np.zeros((m, m))  # the last, partial chunk, zero-padded
    tail_out = np.empty((m, m))
    state = np.zeros(dim)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        k = -(-(hi - lo) // m)  # blocks in this chunk
        if hi - lo == chunk:
            u = x[lo:hi].reshape(m, m)
            out = values[lo:hi].reshape(m, m)
        else:
            tail_in.flat[: hi - lo] = x[lo:hi]
            u, out = tail_in[:k], tail_out[:k]
        np.matmul(u, in_rows, out=inputs[:k])
        states[0] = state
        states[1:k] = inputs[: k - 1]
        span = 1
        for step_t in advances_t:
            if span >= k:
                break
            np.matmul(states[: k - span], step_t, out=moved[: k - span])
            states[span:k] += moved[: k - span]
            span *= 2
        state = states[k - 1] @ advances_t[0] + inputs[k - 1]
        np.matmul(states[:k], out_rows.T, out=response[:k])
        np.matmul(u, toeplitz, out=out)
        out += response[:k]
    if n % chunk:
        values[n - n % chunk :] = tail_out.flat[: n % chunk]
    return PLTrace(dt=trace.dt, values=values, filtered=True)


# Degree-13 Padé numerator coefficients b_0..b_13 (the denominator's are
# (-1)^k b_k) and the largest 1-norm for which that approximant is accurate
# to double precision without scaling (Higham 2005)
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def _expm(stack: np.ndarray) -> np.ndarray:
    """Matrix exponential of each matrix in a (k, n, n) stack: degree-13
    Padé with scaling and squaring (Higham 2005).

    Each matrix is scaled by its own power of two, the smallest that brings
    its 1-norm to at most _THETA13, and squared back as often; a stack of
    propagators over 1 to 2^k steps thus does no more squarings per matrix
    than its own norm needs.
    """
    norms = np.abs(stack).sum(axis=-2).max(axis=-1)
    # ceil(log2(norm / theta)), clipped at 0, exact at powers of two
    mant, expo = np.frexp(norms / _THETA13)
    squarings = np.maximum(expo - (mant == 0.5), 0)
    a = np.ldexp(stack, -squarings[:, None, None])
    b = _PADE13
    ident = np.eye(stack.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    )
    r = np.linalg.solve(v - u, v + u)
    for k in range(int(squarings.max())):
        more = squarings > k
        r[more] = r[more] @ r[more]
    return r


def _contrast_arrays(
    params: FiveLevelParams,
    s: float,
    dt: float,
    n_steps: int,
    keep_stride: int = 1,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Filtered Sig/Ref contrast over the n_steps steps of size dt, as
    _check_grid counts them, keeping every keep_stride-th sample; Sig
    starts from m_s=+-1, Ref from m_s=0. The kept sample j lies at
    (j keep_stride) dt, the grid of a ContrastCurve of that step and stride.

    The contrast is written into out[:n_kept] when a buffer is given (ti_band
    passes one buffer for all its traces), else into a new array, and
    returned; beyond it only block-sized work arrays are allocated.

    Populations and readout filter form one linear state x = (5
    populations, 2 states per filter section) with the exact one-step
    propagator M = [[P, 0], [G c, F]], where P = expm(A dt), c = gamma
    (e3 + e4) is the PL row and (F, G, H, D) the filter; the filtered PL is
    o x with o = [D c, H]. The kept-sample output rows o (M^keep_stride)^j,
    j < _KEPT_BLOCK, are built once by doubling, so each block of kept
    samples is one (2, 9) x (9, block) product with the Sig and Ref states,
    which then advance by M^(keep_stride block). Work scales with the
    samples kept, not with t_end / dt.
    Where the filtered Ref PL is not above 1e-9 of its steady-state level,
    the ratio is taken as undefined and the contrast as one; the floor is
    fixed by the model, so a sample's value does not depend on the trace
    length. Without pumping (s = 0) there is no PL and the contrast is one
    throughout.
    """
    n_kept = n_steps // keep_stride + 1
    pl_row = params.gamma_rad * np.array([0.0, 0.0, 1.0, 1.0, 0.0])
    block = min(n_kept, _KEPT_BLOCK)
    # population propagators over 1 and keep_stride * 2^k steps, up to the
    # first power of two that covers the block
    steps = keep_stride * 2 ** np.arange((block - 1).bit_length() + 1)
    props = _expm(rate_matrix(params, s) * dt * np.r_[1, steps][:, None, None])
    f, g, h, d = _filter_state_space(dt)
    joint = np.zeros((5 + len(f), 5 + len(f)))
    joint[:5, :5] = props[0]
    joint[5:, :5] = np.outer(g, pl_row)
    joint[5:, 5:] = f
    rows_t = np.empty((len(joint), block))  # column j: (o M^(keep_stride j))^T
    rows_t[:, 0] = np.concatenate([d * pl_row, h])
    # power holds M^(keep_stride span). After each squaring its population
    # block is replaced by the exact propagator: squaring alone would double
    # the rounding of P's unit (conservation) eigenvalue every time.
    power = np.linalg.matrix_power(joint, keep_stride)
    power[:5, :5] = props[1]
    span = 1
    for prop in props[2:]:
        width = min(span, block - span)
        np.matmul(power.T, rows_t[:, :width], out=rows_t[:, span : span + width])
        span *= 2
        power = power @ power
        power[:5, :5] = prop
    # span >= block, and span == block whenever there is more than one
    # block, so power is the block advance
    state = np.zeros((len(joint), 2))
    state[:5, 0] = GROUND_MS_PM1.as_array()
    state[:5, 1] = GROUND_MS0.as_array()
    ref_floor = math.inf
    if s > 0:
        ref_floor = 1e-9 * float(pl_row @ steady_state(params, s).as_array())
    contrast = np.empty(n_kept) if out is None else out[:n_kept]
    for lo in range(0, n_kept, block):
        sig, ref = state.T @ rows_t[:, : n_kept - lo]
        kept = contrast[lo : lo + len(ref)]
        if ref.min() > ref_floor:  # the usual block, above the floor throughout
            np.divide(sig, ref, out=kept)
        else:
            kept.fill(1.0)
            np.divide(sig, ref, out=kept, where=np.abs(ref) > ref_floor)
        state = power @ state
    return contrast


_MAX_KEPT_SAMPLES = 2_000_000


def contrast_trace(
    params: FiveLevelParams,
    intensity,
    i_sat: float,
    t_end: Optional[float] = None,
    dt: Optional[float] = None,
) -> ContrastCurve:
    """Simulate the pulsed readout protocol at one excitation intensity.

    Sig starts from m_s=+-1, Ref from m_s=0; both PL traces are filtered and
    their ratio returned versus delay, every sample of the grid k * dt. The
    curve dips below one while the spin ensemble is polarized and relaxes
    back to one as optical pumping repolarizes it. Defaults: dt at the
    resolution limit, t_end spanning the full repolarization transient.

    The full-resolution curve is materialized, so, as in evolve, a grid of
    more than MAX_TRACE_SAMPLES samples (extremely weak pumping) is refused;
    use ti_band, which evaluates only the samples it keeps, or pass a
    shorter t_end.
    """
    s = saturation_parameter(intensity, i_sat)
    if dt is None:
        dt = max_stable_dt(params, s)
    if t_end is None:
        t_end = default_trace_window(params, s)
    n_steps = _check_grid(params, s, t_end, dt, MAX_TRACE_SAMPLES)
    return ContrastCurve(_contrast_arrays(params, s, dt, n_steps), dt)


# Samples per block of the t_I scans: their work arrays stay in cache
_SCAN_BLOCK = 2**15
# Most samples of the decay the t_I fit takes, evenly spread
_MAX_FIT_SAMPLES = 200_000


def _mean3(contrast: np.ndarray, lo: int, hi: int, padded: np.ndarray, means: np.ndarray):
    """Mean of |1 - contrast| over each sample lo, ..., hi - 1 and its two
    neighbours, the edge samples repeated beyond the ends, written into
    means[:hi - lo]; padded is work space of at least hi - lo + 2 samples."""
    n, m = len(contrast), hi - lo
    dev = padded[1 : m + 1]
    np.subtract(1.0, contrast[lo:hi], out=dev)
    np.abs(dev, out=dev)
    padded[0] = abs(1.0 - contrast[max(lo - 1, 0)])
    padded[m + 1] = abs(1.0 - contrast[min(hi, n - 1)])
    out = means[:m]
    np.add(padded[:m], dev, out=out)
    np.add(out, padded[2 : m + 2], out=out)
    out /= 3.0
    return out


def _smoothed_peak(contrast: np.ndarray) -> int:
    """First sample where the 3-sample mean of |1 - contrast| (_mean3) is
    largest; a contrast that is not finite is refused.

    The means are formed block by block in two cache-sized arrays. A block
    is skipped when no mean in it can exceed the peak so far: each is at
    most (m + m + m) / 3 for the largest deviation m of the block and its
    two neighbours, and since |1 - c| is largest at an extreme of c, m
    comes from the block's minimum and maximum contrast. Skipping a block
    whose means at best tie the peak keeps the first occurrence.
    """
    n = len(contrast)
    padded = np.empty(min(n, _SCAN_BLOCK) + 2)
    means = np.empty(min(n, _SCAN_BLOCK))
    peak, i_peak = -math.inf, 0
    for lo in range(0, n, _SCAN_BLOCK):
        hi = min(lo + _SCAN_BLOCK, n)
        block = contrast[max(lo - 1, 0) : hi + 1]
        m = max(abs(1.0 - block.min()), abs(1.0 - block.max()))
        if (m + m + m) / 3.0 <= peak:  # a NaN in the block is never skipped
            continue
        out = _mean3(contrast, lo, hi, padded, means)
        j = int(np.argmax(out))  # a NaN wins argmax
        if not math.isfinite(out[j]):
            raise ValidationError(
                f"contrast must be finite, but sample {lo + j} or a neighbour is not"
            )
        if out[j] > peak:
            peak, i_peak = out[j], lo + j
    return i_peak


def _first_below(contrast: np.ndarray, start: int, level: float) -> int:
    """First sample from start on where |1 - contrast| < level, else
    len(contrast); scanned in blocks."""
    n = len(contrast)
    dev = np.empty(min(n - start, _SCAN_BLOCK))
    for lo in range(start, n, _SCAN_BLOCK):
        d = dev[: min(n - lo, _SCAN_BLOCK)]
        np.subtract(1.0, contrast[lo : lo + len(d)], out=d)
        below = np.abs(d, out=d) < level
        first = int(np.argmax(below))
        if below[first]:
            return lo + first
    return n


def initialization_time(curve: ContrastCurve) -> float:
    """Delay (from pulse start) at which the contrast deviation from one
    has decayed to 1/e^3 of its peak.

    The peak is located on a 3-sample smoothed |1 - contrast|; an
    exponential is then fitted (log-linear least squares, at most 200 000
    evenly spread samples) from the peak to where the deviation falls below
    1% of the peak, and the 1/e^3 crossing is read off the fit. Readout time
    is included since delays are measured from the start of the optical
    pulse. A contrast that is not finite is refused.

    The curve is read, never written. The smoothed peak and the 1% crossing
    are found in cache-sized blocks (the first occurrence of the peak, as
    over the whole curve), and the deviation and, by curve.time from the
    curve's step and stride, the times are formed only for the samples the
    fit takes, so beyond the curve itself this allocates at most a few arrays
    of 200 000 samples. ti_band passes curves whose contrast is its one
    reused buffer.
    """
    contrast = curve.contrast
    i_peak = _smoothed_peak(contrast)
    d_peak = float(abs(1.0 - contrast[i_peak]))
    if d_peak < 1e-6:
        raise ValidationError("no polarization dynamics at this intensity")
    i_end = _first_below(contrast, i_peak, 0.01 * d_peak)
    if i_end - i_peak < 5:
        i_end = min(len(contrast), i_peak + 5)
    if i_end - i_peak > _MAX_FIT_SAMPLES:
        # every sample before the 1% crossing is above zero, so none is dropped
        index = i_peak + np.linspace(0, i_end - i_peak - 1, _MAX_FIT_SAMPLES).astype(int)
        d_window = np.abs(1.0 - contrast[index])
    else:
        index = np.arange(i_peak, i_end)
        d_window = np.abs(1.0 - contrast[i_peak:i_end])
        keep = d_window > 0
        if not keep.all():
            index, d_window = index[keep], d_window[keep]
        if len(index) < 2:
            raise ComputationError("too few samples after the contrast peak")
    t_window = curve.time(index)
    t_mean = float(t_window.mean())
    t_centered = t_window - t_mean
    log_d = np.log(d_window)
    log_mean = float(log_d.mean())
    # einsum sums on one thread; OpenBLAS splits a dot product this long
    # across threads, which on two cores costs more than the sum itself
    slope = float(
        np.einsum("i,i", t_centered, log_d - log_mean)
        / np.einsum("i,i", t_centered, t_centered)
    )
    if slope >= 0:
        raise ComputationError("contrast deviation does not decay after its peak")
    return t_mean + (math.log(d_peak) - 3.0 - log_mean) / slope


@dataclass
class TiBand:
    """Initialization-time bounds over an intensity grid."""

    intensities: np.ndarray
    lower: np.ndarray  # from the lower saturation intensity (stronger pumping)
    upper: np.ndarray


def ti_band(params: FiveLevelParams, intensities) -> TiBand:
    """Map initialization_time over a grid at both band saturation
    intensities. Each contrast curve keeps every stride-th step of the
    resolution-limited step dt, the stride chosen so that at most
    _MAX_KEPT_SAMPLES are kept; only the kept samples are evaluated, so time
    and memory stay bounded however weak the pumping.

    One buffer, sized to the largest kept count of the grid, holds the
    contrast of every trace in turn. Each curve holds its step and stride,
    so its times are built only for the samples its fit takes. A call thus
    allocates about one kept-sample array (at most 16 MB) plus block-sized
    work arrays, and reuses its pages from trace to trace instead of
    faulting in fresh ones.
    """
    grid = np.asarray([non_negative("intensity", i, "mW/um^2") for i in intensities])
    if grid.size == 0:
        raise ValidationError("empty intensity grid")
    traces = []  # every intensity is refused or accepted before any trace runs
    for i_sat in params.i_sat_band:
        for i in grid:
            s = saturation_parameter(i, i_sat)
            dt = max_stable_dt(params, s)
            t_end = default_trace_window(params, s)
            if dt <= t_end / _MAX_GRID_STEPS:  # no division by dt, which may be 0
                raise ValidationError(
                    f"intensity {i:g} mW/um^2 needs more than {_MAX_GRID_STEPS:.3g} "
                    "samples at full resolution"
                )
            n_steps = _check_grid(params, s, t_end, dt)
            stride = max(1, int(math.ceil((n_steps + 1) / _MAX_KEPT_SAMPLES)))
            traces.append((s, dt, n_steps, stride))
    buffer = np.empty(max(n_steps // stride + 1 for _, _, n_steps, stride in traces))
    t_is = []
    for s, dt, n_steps, stride in traces:
        contrast = _contrast_arrays(params, s, dt, n_steps, keep_stride=stride, out=buffer)
        t_is.append(initialization_time(ContrastCurve(contrast, dt, stride)))
    lower, upper = np.reshape(t_is, (2, grid.size))
    return TiBand(intensities=grid, lower=lower, upper=upper)
