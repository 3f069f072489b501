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
the samples they keep, and import no scipy. evolve() instead integrates the
rate equations with scipy's adaptive Runge-Kutta method, importing
scipy.integrate when it is called, and lowpass() runs the same state-space
filter over a given trace in numpy, block by block. The test suite
cross-checks the two paths. The steady state is a linear solve on A.
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
    """Populations sampled on a uniform time grid."""

    def __init__(self, times: np.ndarray, populations: np.ndarray,
                 params: FiveLevelParams):
        self.times = times
        self.populations = populations  # shape (n, 5)
        self.params = params

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
    population is conserved to well below 1e-9 over the trajectory. The
    loop is solve_ivp's with t_eval set to the grid: scipy's DOP853 solver
    is stepped to the end of the grid, and after each step its dense output
    gives the grid points the step reached. They are written into the
    preallocated populations, so the result is solve_ivp's bit for bit
    without its list of per-step arrays. scipy.integrate is imported when
    this runs. A grid of more than MAX_TRACE_SAMPLES samples is refused.
    """
    from scipy.integrate import DOP853

    n_steps = _check_grid(params, s, t_end, dt, MAX_TRACE_SAMPLES)
    a = rate_matrix(params, s)
    grid = np.arange(n_steps + 1) * dt
    solver = DOP853(
        lambda _t, y: a @ y, 0.0, initial.as_array(), float(grid[-1]),
        rtol=1e-10, atol=1e-12,
    )
    populations = np.empty((len(grid), 5))
    done = 0  # grid points written
    while solver.status == "running":
        message = solver.step()
        if solver.status == "failed":
            raise ComputationError(f"integration failed: {message}")
        reached = int(np.searchsorted(grid, solver.t, side="right"))
        if reached > done:
            populations[done:reached] = solver.dense_output()(grid[done:reached]).T
            done = reached
    return Trajectory(grid, populations, params)


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
    filtered: bool = False

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
    return PLTrace(times=trajectory.times, values=values)


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


def _sections(upper: np.ndarray, gain: float) -> np.ndarray:
    """Second-order sections (b0, b1, b2, 1, a1, a2) of the poles and gain
    of _lowpass_poles, in the layout and section order of scipy's
    butter(..., output="sos"); the overall gain sits on the first numerator.
    """
    sos = np.empty((len(upper), 6))
    sos[:, :4] = [1.0, 2.0, 1.0, 1.0]
    sos[:, 4] = -2.0 * upper.real
    sos[:, 5] = (upper * upper.conj()).real
    sos[0, :3] *= gain
    return sos


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
    """Filtered signal/reference PL ratio versus readout delay (us), Sig
    started from m_s=+-1 and Ref from m_s=0."""

    times: np.ndarray
    contrast: np.ndarray


# Kept samples per output block. A power of two, so the row doubling ends on
# the block advance; small enough that the (2, 9) x (9, block) product runs
# on one thread.
_KEPT_BLOCK = 2**13


def _filter_state_space(dt: float):
    """State-space (F, G, H, D) of the readout filter at step dt: the
    cascade of its second-order sections, each in coupled (normal) form.

    A section b(z)/a(z) splits into b0 plus a strictly proper part with
    numerator beta1 z + beta2 (beta_i = b_i - a_i b0). Its poles
    sigma +- i omega give the rotation-scaling state matrix
    [[sigma, omega], [-omega, sigma]], input [1, 0] and output
    [beta1, -(beta2 + beta1 sigma) / omega]. Unlike the direct-form
    states, this realization stays well conditioned as the poles crowd
    towards z = 1 at high sample rates. sigma and omega are the bilinear
    poles themselves: omega = sqrt(a2 - sigma^2) from the rounded section
    coefficients would cancel to zero at small dt.
    """
    poles, gain = _lowpass_poles(dt)
    sos = _sections(poles, gain)
    n = 2 * len(sos)
    f = np.zeros((n, n))
    g = np.zeros(n)
    h = np.zeros(n)
    d = 1.0
    for k, (b0, b1, b2, _a0, a1, a2) in enumerate(sos):
        lo = 2 * k
        sigma, omega = poles.real[k], poles.imag[k]
        beta1, beta2 = b1 - a1 * b0, b2 - a2 * b0
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
    return PLTrace(times=trace.times, values=values, filtered=True)


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
    t_end: float,
    dt: float,
    keep_stride: int = 1,
):
    """Filtered Sig/Ref contrast on the grid k * dt, keeping every
    keep_stride-th sample; Sig starts from m_s=+-1, Ref from m_s=0.

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
    n_steps = _check_grid(params, s, t_end, dt)
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
    contrast = np.ones(n_kept)
    for lo in range(0, n_kept, block):
        sig, ref = state.T @ rows_t[:, : n_kept - lo]
        np.divide(sig, ref, out=contrast[lo : lo + len(ref)], where=np.abs(ref) > ref_floor)
        state = power @ state
    return np.arange(0, n_steps + 1, keep_stride) * dt, contrast


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
    _check_grid(params, s, t_end, dt, MAX_TRACE_SAMPLES)
    return ContrastCurve(*_contrast_arrays(params, s, t_end, dt))


def _mean3(x: np.ndarray) -> np.ndarray:
    """Mean over each sample and its two neighbours, the edge samples
    repeated beyond the ends."""
    padded = np.concatenate([x[:1], x, x[-1:]])
    return (padded[:-2] + padded[1:-1] + padded[2:]) / 3.0


def initialization_time(curve: ContrastCurve) -> float:
    """Delay (from pulse start) at which the contrast deviation from one
    has decayed to 1/e^3 of its peak.

    The peak is located on a 3-sample smoothed |1 - contrast|; an
    exponential is then fitted (log-linear least squares, at most 200 000
    evenly spread samples) from the peak to where the deviation falls below
    1% of the peak, and the 1/e^3 crossing is read off the fit. Readout time
    is included since delays are measured from the start of the optical
    pulse.
    """
    dev = np.abs(1.0 - curve.contrast)
    i_peak = int(np.argmax(_mean3(dev)))
    d_peak = float(dev[i_peak])
    if d_peak < 1e-6:
        raise ValidationError("no polarization dynamics at this intensity")
    below = dev[i_peak:] < 0.01 * d_peak
    first = int(np.argmax(below))
    i_end = i_peak + (first if below[first] else len(below))
    if i_end - i_peak < 5:
        i_end = min(len(dev), i_peak + 5)
    t_window = curve.times[i_peak:i_end]
    d_window = dev[i_peak:i_end]
    keep = d_window > 0
    if not keep.all():
        t_window, d_window = t_window[keep], d_window[keep]
    if len(t_window) < 2:
        raise ComputationError("too few samples after the contrast peak")
    if len(t_window) > 200_000:
        idx = np.linspace(0, len(t_window) - 1, 200_000).astype(int)
        t_window, d_window = t_window[idx], d_window[idx]
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
    intensities. Each contrast curve keeps every stride-th sample of the
    resolution-limited grid, the stride chosen so that at most
    _MAX_KEPT_SAMPLES are kept; only the kept samples are evaluated, so time
    and memory stay bounded however weak the pumping.
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
            traces.append((s, dt, t_end))
    t_is = []
    for s, dt, t_end in traces:
        n_total = _check_grid(params, s, t_end, dt) + 1
        stride = max(1, int(math.ceil(n_total / _MAX_KEPT_SAMPLES)))
        times, contrast = _contrast_arrays(params, s, t_end, dt, keep_stride=stride)
        t_is.append(initialization_time(ContrastCurve(times, contrast)))
    lower, upper = np.reshape(t_is, (2, grid.size))
    return TiBand(intensities=grid, lower=lower, upper=upper)
