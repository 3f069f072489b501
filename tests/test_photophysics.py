import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm, null_space
from scipy.signal import sosfilt

from nvsk.core import MAX_TRACE_SAMPLES
from nvsk.errors import ValidationError
from nvsk.photophysics import (
    DEFAULT_FILTER_CUTOFF_MHZ,
    GROUND_MS0,
    GROUND_MS_PM1,
    ContrastCurve,
    FiveLevelParams,
    PLTrace,
    StateVector,
    _KEPT_BLOCK,
    _contrast_arrays,
    _expm,
    _filter_state_space,
    _lowpass_poles,
    _mean3,
    _sections,
    contrast_trace,
    default_trace_window,
    evolve,
    initialization_time,
    lowpass,
    max_stable_dt,
    pl_rate,
    rate_matrix,
    saturation_parameter,
    steady_state,
    ti_band,
)

PARAMS = FiveLevelParams()


def null_space_state(params, s):
    """Independent steady-state oracle: kernel of the rate matrix."""
    vec = null_space(rate_matrix(params, s))[:, 0]
    return vec / vec.sum()


def test_rate_matrix_columns_sum_to_zero():
    for s in (0.0, 0.3, 7.0, 100.0):
        a = rate_matrix(PARAMS, s)
        assert np.abs(a.sum(axis=0)).max() < 1e-14


@pytest.mark.parametrize("gamma_rad", [1e308, 5e-324])
def test_rates_out_of_the_float_range_are_refused(gamma_rad):
    # 1e308 overflows gamma_rad * (1 + kappa_45), and 5e-324 * s underflows
    # to 0, which leaves A singular; both are refused where A is built
    params = FiveLevelParams(gamma_rad=gamma_rad)
    for run in (
        lambda: rate_matrix(params, 0.5),
        lambda: steady_state(params, 0.5),
        lambda: default_trace_window(params, 0.5),
        lambda: contrast_trace(params, 1.0, 2.0),
        lambda: ti_band(params, [0.1, 1.0]),
    ):
        with pytest.raises(ValidationError, match=re.escape(f"got gamma_rad {gamma_rad!r} 1/us")):
            run()


def test_infinite_saturation_intensities_and_pump_are_refused():
    with pytest.raises(ValidationError, match="i_sat_band must be finite and > 0 mW/um"):
        FiveLevelParams(i_sat_band=(1.0, math.inf))
    with pytest.raises(ValidationError, match="i_sat must be finite and > 0 mW/um"):
        saturation_parameter(1.0, math.inf)
    with pytest.raises(ValidationError, match="saturation parameter must be finite and >= 0"):
        rate_matrix(PARAMS, math.inf)


def test_state_vector_validation():
    with pytest.raises(ValidationError):
        StateVector(0.5, 0.5, 0.5, 0.0, 0.0)
    with pytest.raises(ValidationError):
        StateVector(1.2, -0.2, 0.0, 0.0, 0.0)


def test_no_excitation_is_stationary():
    traj = evolve(PARAMS, 0.0, GROUND_MS0, t_end=20.0, dt=0.005)
    assert np.abs(traj.populations - GROUND_MS0.as_array()).max() < 1e-12


def test_population_conservation_across_pump_strengths():
    for s in (0.0, 0.01, 0.1, 1.0, 10.0, 100.0):
        dt = max_stable_dt(PARAMS, s)
        traj = evolve(PARAMS, s, GROUND_MS_PM1, t_end=100.0, dt=dt)
        assert traj.conservation_error() < 1e-9


def test_populations_never_significantly_negative():
    traj = evolve(PARAMS, 1.0, GROUND_MS_PM1, t_end=60.0, dt=0.005)
    assert traj.populations.min() > -1e-12


def test_terminal_state_matches_null_space_oracle():
    s = 0.1
    traj = evolve(PARAMS, s, GROUND_MS_PM1, t_end=1200.0, dt=0.005)
    expected = null_space_state(PARAMS, s)
    assert np.abs(traj.populations[-1] - expected).max() < 1e-8
    # ground m_s=0 dominates after repolarization
    assert traj.populations[-1][0] > 5.0 * traj.populations[-1][1]


def test_steady_state_unique_across_initial_conditions():
    s = 0.5
    mixed = StateVector(0.2, 0.2, 0.2, 0.2, 0.2)
    ends = []
    for init in (GROUND_MS0, GROUND_MS_PM1, mixed):
        traj = evolve(PARAMS, s, init, t_end=400.0, dt=0.005)
        ends.append(traj.populations[-1])
    assert np.abs(ends[0] - ends[1]).max() < 1e-6
    assert np.abs(ends[0] - ends[2]).max() < 1e-6


def test_steady_state_helper_agrees_with_null_space():
    for s in (0.05, 1.0, 20.0):
        helper = steady_state(PARAMS, s).as_array()
        oracle = null_space_state(PARAMS, s)
        assert np.abs(helper - oracle).max() < 1e-10


def test_dt_precondition_names_required_step():
    with pytest.raises(ValidationError, match="required dt"):
        evolve(PARAMS, 100.0, GROUND_MS0, t_end=1.0, dt=0.01)


def test_integrator_insensitive_to_output_grid():
    dt = max_stable_dt(PARAMS, 1.0)
    end_a = evolve(PARAMS, 1.0, GROUND_MS_PM1, t_end=30.0, dt=dt).populations[-1]
    end_b = evolve(PARAMS, 1.0, GROUND_MS_PM1, t_end=30.0, dt=dt / 2).populations[-1]
    assert np.abs(end_a - end_b).max() < 1e-8


def test_pl_rate_formula():
    traj = evolve(PARAMS, 0.2, GROUND_MS0, t_end=10.0, dt=0.005)
    trace = pl_rate(traj)
    manual = PARAMS.gamma_rad * (traj.populations[:, 2] + traj.populations[:, 3])
    assert np.allclose(trace.values, manual, rtol=0, atol=0)
    assert trace.values[0] == 0.0


def test_pl_rate_steady_state_against_oracle():
    s = 1.0
    traj = evolve(PARAMS, s, GROUND_MS0, t_end=300.0, dt=0.005)
    oracle = null_space_state(PARAMS, s)
    expected = PARAMS.gamma_rad * (oracle[2] + oracle[3])
    assert pl_rate(traj).values[-1] == pytest.approx(expected, rel=1e-7)


def _sine_trace(freq_mhz, dt, n, amplitude=1.0, offset=2.0):
    t = np.arange(n) * dt
    return PLTrace(
        times=t,
        values=offset + amplitude * np.sin(2 * np.pi * freq_mhz * t),
    )


def test_filter_dc_gain():
    # H(z = 1) of the cascade is the product of sum(b) / sum(a) per section.
    # Up to 1 GHz only: above it, 1 + a1 + a2 loses too many digits to
    # cancellation for 1e-12, with scipy's butter coefficients as with these
    for fs in (17.0, 50.0, 170.0, 1e3):
        sos = _sections(*_lowpass_poles(1.0 / fs))
        dc = np.prod(sos[:, :3].sum(axis=1) / sos[:, 3:].sum(axis=1))
        assert dc == pytest.approx(1.0, abs=1e-12)

    dt = 0.02
    trace = PLTrace(times=np.arange(8000) * dt, values=np.full(8000, 3.7))
    filtered = lowpass(trace)
    assert filtered.filtered
    # after the startup transient the output settles at the input level
    assert np.abs(filtered.values[4000:] - 3.7).max() < 1e-6 * 3.7


def _steady_amplitude(values, dt, freq):
    # amplitude of the settled sinusoid via quadrature projection
    n = len(values)
    tail = slice(n // 2, n)
    t = np.arange(n)[tail] * dt
    y = values[tail] - values[tail].mean()
    c = 2.0 * np.mean(y * np.cos(2 * np.pi * freq * t))
    s = 2.0 * np.mean(y * np.sin(2 * np.pi * freq * t))
    return math.hypot(c, s)


def test_filter_cutoff_attenuation():
    dt = 0.02  # 50 MHz sampling
    n = 40000
    trace = _sine_trace(1.7, dt, n)
    out = lowpass(trace)
    ratio = _steady_amplitude(out.values, dt, 1.7)
    assert ratio == pytest.approx(1.0 / math.sqrt(2.0), rel=0.02)


def test_filter_octave_attenuation():
    dt = 0.02
    n = 40000
    out = lowpass(_sine_trace(3.4, dt, n))
    ratio = _steady_amplitude(out.values, dt, 3.4)
    # analytic 4th-order response: 1/sqrt(1 + (f/fc)^8) = 24.1 dB at 2 fc
    assert ratio <= 10 ** (-20.0 / 20.0)
    analytic = 1.0 / math.sqrt(1.0 + (3.4 / 1.7) ** 8)
    assert ratio == pytest.approx(analytic, rel=0.05)


def test_filter_undersampled_rejected():
    trace = _sine_trace(0.1, 1.0, 200)  # 1 MHz sampling < 10 x 1.7 MHz
    with pytest.raises(ValidationError, match="undersampled"):
        lowpass(trace)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_filter_refuses_non_finite_values(bad):
    values = np.ones(200)
    values[100] = bad
    trace = PLTrace(times=np.arange(200) * 0.01, values=values, filtered=True)
    with pytest.raises(ValidationError, match="must be finite"):
        lowpass(trace)


def test_filter_design_matches_scipy_butter():
    from scipy.signal import butter

    eps = np.finfo(float).eps
    for fs in np.geomspace(17.0, 2e5, 25):
        sos = _sections(*_lowpass_poles(1.0 / fs))
        oracle = butter(4, 1.7, fs=1.0 / (1.0 / fs), output="sos")
        assert np.all(np.abs(sos - oracle) <= 4 * eps * np.abs(oracle))


@pytest.mark.parametrize("intensity", [1e-3, 1.0, 1e3, 1e6, 1e9])
def test_filter_state_space_response_matches_the_butterworth_closed_form(intensity):
    # |H(e^iw)| = 1 / sqrt(1 + (tan(w/2) / tan(pi fc dt))^8) at the
    # resolution-limited step, where the poles crowd towards z = 1 as the
    # pumping grows. Float poles lie within eps of z = 1 only to about
    # eps / tan(pi fc dt) relative, which bounds the response's accuracy.
    dt = max_stable_dt(PARAMS, saturation_parameter(intensity, 1.0))
    f, g, h, d = _filter_state_space(dt)
    warped = math.tan(math.pi * DEFAULT_FILTER_CUTOFF_MHZ * dt)
    tol = 10.0 * np.finfo(float).eps / warped
    for ratio in (0.0, 0.5, 1.0, 2.0, 4.0):  # tan(w/2) / tan(pi fc dt)
        z = np.exp(2j * math.atan(ratio * warped))
        response = d + h @ np.linalg.solve(z * np.eye(len(f)) - f, g)
        assert abs(response) * math.sqrt(1.0 + ratio**8) == pytest.approx(1.0, abs=tol)
        if ratio == 0.0:
            assert response == pytest.approx(1.0, abs=tol)  # unity DC gain


def test_three_sample_mean_matches_scipy_uniform_filter():
    from scipy.ndimage import uniform_filter1d

    # lengths up to 8: on longer arrays the oracle's running sum drifts past
    # 2 ulp by its own rounding
    eps = np.finfo(float).eps
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 4, 5, 8):
        for _ in range(200):
            x = rng.random(n) * 10.0 ** rng.uniform(-3.0, 3.0)
            oracle = uniform_filter1d(x, size=3, mode="nearest")
            assert np.abs(_mean3(x) - oracle).max() <= 2 * eps * np.abs(x).max()


def test_contrast_trace_shape_and_long_time_limit():
    curve = contrast_trace(PARAMS, 0.24, 3.0)
    dev = 1.0 - curve.contrast
    i_peak = int(np.argmax(np.abs(dev)))
    # dimmer signal branch: peak is a dip below unity
    assert dev[i_peak] > 0.1
    assert i_peak < len(dev) - 1
    # spins repolarized: contrast returns to one
    assert abs(curve.contrast[-1] - 1.0) < 1e-3


def test_contrast_agrees_with_rk_integration():
    # closed-form path vs adaptive RK trajectories, filtered identically
    s = 0.1
    dt = max_stable_dt(PARAMS, s)
    t_end = 30.0
    curve = contrast_trace(PARAMS, s * 3.0, 3.0, t_end=t_end, dt=dt)
    sig = lowpass(pl_rate(evolve(PARAMS, s, GROUND_MS_PM1, t_end, dt)))
    ref = lowpass(pl_rate(evolve(PARAMS, s, GROUND_MS0, t_end, dt)))
    live = np.abs(ref.values) > 1e-9 * np.abs(ref.values).max()
    manual = np.ones_like(ref.values)
    np.divide(sig.values, ref.values, out=manual, where=live)
    assert np.abs(curve.contrast - manual).max() < 1e-8


def test_initialization_time_exact_exponential():
    dt = 0.05
    t = np.arange(8000) * dt
    t_peak, tau_fit, d0 = 40.0, 25.0, 0.4
    dev = np.where(
        t < t_peak,
        d0 * (t / t_peak),  # slow linear rise to the peak
        d0 * np.exp(-(t - t_peak) / tau_fit),
    )
    curve = ContrastCurve(times=t, contrast=1.0 - dev)
    t_i = initialization_time(curve)
    assert t_i == pytest.approx(t_peak + 3.0 * tau_fit, rel=1e-3)


def test_initialization_time_requires_dynamics():
    t = np.arange(2000) * 0.05
    curve = ContrastCurve(times=t, contrast=np.ones_like(t))
    with pytest.raises(ValidationError, match="no polarization dynamics"):
        initialization_time(curve)


def test_initialization_time_decreases_with_intensity():
    intensities = np.logspace(-1, 1, 6)
    t_is = [
        initialization_time(contrast_trace(PARAMS, i, 3.0)) for i in intensities
    ]
    assert all(b <= a for a, b in zip(t_is, t_is[1:]))


def test_stronger_pumping_initializes_faster():
    # same intensity, smaller saturation intensity -> larger s -> faster
    i = 0.5
    fast = initialization_time(contrast_trace(PARAMS, i, 1.0))
    slow = initialization_time(contrast_trace(PARAMS, i, 3.0))
    assert fast <= slow


def test_ti_band_ordering_and_saturation():
    grid = np.logspace(-2, 1, 8)
    band = ti_band(PARAMS, grid)
    assert np.all(band.lower <= band.upper)
    assert np.all(np.diff(band.lower) <= 0)
    assert np.all(np.diff(band.upper) <= 0)
    # pump-rate insensitivity at saturation: the band tightens
    rel_width = (band.upper - band.lower) / band.lower
    assert rel_width[-1] < rel_width[0]
    # finite and positive at s = 1
    assert initialization_time(contrast_trace(PARAMS, 1.0, 1.0)) > 0


@pytest.mark.filterwarnings("error")
def test_ti_band_holds_at_extreme_pumping():
    # steps of ~1e-9 and ~1e-11 us, where the filter poles sit within ~1e-9
    # of z = 1: the band stays finite, ordered and at its saturated level
    band = ti_band(PARAMS, [1e7, 1e9])
    assert np.all((0 < band.lower) & (band.lower <= band.upper))
    saturated = ti_band(PARAMS, [1e5])
    assert band.upper == pytest.approx(saturated.upper[0], rel=1e-4)


def test_contrast_trace_refuses_unbounded_grids():
    # near-zero pumping: the resolution-limited curve would need ~1e8
    # samples; the full-resolution API refuses and points at ti_band
    with pytest.raises(ValidationError, match="ti_band"):
        contrast_trace(PARAMS, 1e-4, 3.0)


def test_grids_refuse_a_step_count_beyond_the_float_range():
    # t_end / dt overflows to inf: refused before the count is rounded
    with pytest.raises(ValidationError, match="samples, got inf; pass a shorter t_end"):
        evolve(FiveLevelParams(), 1.0, GROUND_MS0, 5.0, 1e-320)
    with pytest.raises(ValidationError, match="samples, got inf; pass a shorter t_end"):
        contrast_trace(FiveLevelParams(), 1.0, 2.0, t_end=5.0, dt=1e-320)


def test_full_resolution_grids_are_capped_at_the_trace_limit():
    # dt = 2^-10 keeps t_end = k dt exact; at s = 1 it resolves the dynamics
    dt = 2.0**-10
    with pytest.raises(ValidationError, match=f"at most {MAX_TRACE_SAMPLES:,} samples"):
        evolve(PARAMS, 1.0, GROUND_MS0, MAX_TRACE_SAMPLES * dt, dt)
    with pytest.raises(ValidationError, match=f"at most {MAX_TRACE_SAMPLES:,} samples"):
        contrast_trace(PARAMS, 3.0, 3.0, t_end=MAX_TRACE_SAMPLES * dt, dt=dt)
    curve = contrast_trace(PARAMS, 3.0, 3.0, t_end=(MAX_TRACE_SAMPLES - 1) * dt, dt=dt)
    assert len(curve.contrast) == MAX_TRACE_SAMPLES


@pytest.mark.parametrize("intensity", [1e16, 1e200, 1e308])
def test_ti_band_refuses_an_intensity_beyond_int64_step_counts(intensity):
    # refused before the first intensity's traces run
    with pytest.raises(ValidationError, match=re.escape(f"intensity {intensity:g} mW/um")):
        ti_band(PARAMS, [1e-3, intensity])


def test_grids_refuse_non_finite_values():
    for grid in ({"t_end": math.inf}, {"t_end": math.nan}, {"dt": math.nan}):
        with pytest.raises(ValidationError):
            contrast_trace(PARAMS, 1.0, 3.0, **grid)
    with pytest.raises(ValidationError, match="finite"):
        evolve(PARAMS, 1.0, GROUND_MS0, t_end=math.inf, dt=0.005)


def test_default_window_covers_decay():
    for s in (1e-3, 0.1, 10.0):
        window = default_trace_window(PARAMS, s)
        curve = contrast_trace(PARAMS, s * 2.0, 2.0, t_end=window)
        dev = np.abs(1.0 - curve.contrast)
        assert dev[-1] < 0.01 * dev.max()


def test_early_contrast_does_not_depend_on_trace_length():
    # strong pumping: the filtered Ref PL starts ~1e-12 of its steady level,
    # so the first samples sit on the division guard
    i, i_sat = 100.0, 3.0
    t_end = default_trace_window(PARAMS, i / i_sat)
    full = contrast_trace(PARAMS, i, i_sat).contrast
    short = contrast_trace(PARAMS, i, i_sat, t_end=t_end / 8).contrast
    assert np.array_equal(short, full[: len(short)])


def test_contrast_without_pumping_is_unity():
    curve = contrast_trace(PARAMS, 0.0, 3.0, t_end=20.0)
    assert np.all(curve.contrast == 1.0)


def test_resolution_step_samples_the_readout_filter():
    # weak radiative rate: the relaxation limit alone would undersample the
    # 1.7 MHz readout filter; the default rates are limited by relaxation
    assert max_stable_dt(FiveLevelParams(gamma_rad=0.05), 1.0) * 10.0 * 1.7 <= 1.0
    assert max_stable_dt(PARAMS, 1.0) == 0.01 / (PARAMS.gamma_rad * 2.0)


def test_filter_insensitive_to_input_rounding():
    # s = 100 samples at ~3900x the cutoff; a transfer-function (b, a)
    # realisation amplifies a 1e-13 input perturbation to ~1e-6 here
    s = 100.0
    dt = max_stable_dt(PARAMS, s)
    n = 200_000
    t = np.arange(n) * dt
    values = 2.0 + np.sin(2 * np.pi * 0.5 * t)
    perturbed = values * (1.0 + 1e-13 * np.random.default_rng(0).standard_normal(n))
    out = lowpass(PLTrace(times=t, values=values)).values
    moved = lowpass(PLTrace(times=t, values=perturbed)).values
    assert np.abs(moved - out).max() < 1e-9 * np.abs(out).max()


@pytest.mark.parametrize("s", [0.0, 1e-3, 0.1, 1.0, 30.0, 100.0])
def test_evolve_equals_solve_ivp(s):
    dt = max_stable_dt(PARAMS, s)
    a = rate_matrix(PARAMS, s)
    for initial in (GROUND_MS0, GROUND_MS_PM1):
        traj = evolve(PARAMS, s, initial, 20.0, dt)
        grid = np.arange(len(traj.times)) * dt
        sol = solve_ivp(
            lambda _t, y: a @ y, (0.0, grid[-1]), initial.as_array(), method="DOP853",
            t_eval=grid, rtol=1e-10, atol=1e-12,
        )
        assert np.array_equal(traj.times, sol.t)
        assert np.array_equal(traj.populations, sol.y.T)


@pytest.mark.parametrize("n", [2, 3, 63, 64, 65, 4095, 4096, 4097, 8193])
@pytest.mark.parametrize("dt", [0.05, max_stable_dt(PARAMS, 100.0)])
def test_lowpass_equals_the_sample_by_sample_state_recursion(n, dt):
    # the blocks, the doubling scan over them and the zero-padded last chunk
    # against the plain recursion of the same state space
    f, g, h, d = _filter_state_space(dt)
    x = np.random.default_rng(n).random(n)
    state = np.zeros(len(f))
    oracle = np.empty(n)
    for i, u in enumerate(x):
        oracle[i] = h @ state + d * u
        state = f @ state + g * u
    out = lowpass(PLTrace(times=np.arange(n) * dt, values=x)).values
    assert np.abs(out - oracle).max() <= 1e-13 * np.abs(oracle).max()


def test_weak_pumping_band_is_bounded_and_scales_as_one_over_intensity():
    # repolarization windows of ~1e10 resolution-limited steps: only the
    # kept samples are evaluated, and deep below saturation t_I ~ 1/I
    band = ti_band(PARAMS, [1e-6, 1e-5])
    assert np.all(band.lower <= band.upper)
    for t_i in (band.lower, band.upper):
        assert abs(t_i[1] / t_i[0] - 0.1) < 1e-3


def test_decimated_grid_is_uniform_and_matches_full_resolution():
    s = 1e-3
    t_end = default_trace_window(PARAMS, s)
    dt = max_stable_dt(PARAMS, s)
    times, contrast = _contrast_arrays(PARAMS, s, t_end, dt, keep_stride=3)
    full_t, full_c = _contrast_arrays(PARAMS, s, t_end, dt)
    n = len(full_t)
    assert n == 3_743_824 and n % 3 != 0
    assert np.array_equal(times, np.arange(0, n, 3) * dt)
    assert np.abs(contrast - full_c[::3]).max() < 1e-12


# --- physical invariants over random rates and pump strengths ---

rates = st.builds(
    lambda g, k35, ratio, k52, k51: FiveLevelParams(
        gamma_rad=g, kappa_35=k35, kappa_45=k35 * ratio, kappa_52=k52, kappa_51=k51
    ),
    g=st.floats(0.5, 2.0),
    k35=st.floats(0.02, 0.5),
    ratio=st.floats(2.0, 20.0),
    k52=st.floats(0.005, 0.2),
    k51=st.floats(0.005, 0.2),
)
pump = st.floats(-3.0, 1.0).map(lambda e: 10.0**e)


@settings(max_examples=25, deadline=None)
@given(params=rates, s=pump)
def test_property_rate_matrix_columns_sum_to_zero(params, s):
    a = rate_matrix(params, s)
    assert np.abs(a.sum(axis=0)).max() <= 1e-14 * np.abs(a).max()


@settings(max_examples=25, deadline=None)
@given(params=rates, s=pump, keep_stride=st.integers(1, 2**10))
def test_property_readout_population_block_conserves_population(params, s, keep_stride):
    # the propagators the readout puts in its joint state's population block:
    # one step, and keep_stride * 2^k steps up to one block of kept samples;
    # criterion 7's 1e-9 bound on the total population
    dt = max_stable_dt(params, s)
    steps = keep_stride * 2.0 ** np.arange(_KEPT_BLOCK.bit_length())
    props = _expm(rate_matrix(params, s) * dt * np.r_[1, steps][:, None, None])
    for start in (GROUND_MS_PM1, GROUND_MS0):
        assert np.abs((props @ start.as_array()).sum(axis=1) - 1.0).max() < 1e-9


@settings(max_examples=25, deadline=None)
@given(params=rates, s=pump)
def test_property_steady_state_is_the_kernel(params, s):
    a = rate_matrix(params, s)
    ss = steady_state(params, s).as_array()
    assert np.abs(ss - null_space_state(params, s)).max() < 1e-10
    assert np.abs(a @ ss).max() < 1e-12 * np.abs(a).max()


@settings(max_examples=25, deadline=None)
@given(dt=st.floats(1e-4, 0.05), level=st.floats(1e-3, 1e3))
def test_property_lowpass_unity_dc_gain(dt, level):
    n = int(math.ceil(20.0 / dt))  # 34 cutoff periods: well settled
    trace = PLTrace(times=np.arange(n) * dt, values=np.full(n, level))
    out = lowpass(trace).values
    assert np.abs(out[n // 2 :] - level).max() < 1e-9 * level


@settings(max_examples=40, deadline=None)
@given(
    dt=st.one_of(st.floats(1e-4, 0.05), st.just(max_stable_dt(PARAMS, 100.0))),
    n=st.one_of(
        st.sampled_from([2, 3, 63, 64, 65, 4095, 4096, 4097]), st.integers(2, 20_000)
    ),
    seed=st.integers(0, 2**32 - 1),
    log_level=st.floats(-3.0, 3.0),
    step=st.booleans(),
)
def test_property_lowpass_matches_sosfilt(dt, n, seed, log_level, step):
    # The oracle is the direct-form cascade of the same sections. Its own
    # rounding grows as 1 / tan(pi fc dt)^2 as the poles crowd towards
    # z = 1: for a step at dt = 1e-4 it is 4e-10 of the peak off an 80-bit
    # evaluation, which lowpass is within 2.4e-13 of. Below dt ~ 1.8e-3 the
    # bound follows that growth.
    x = 10.0**log_level * np.random.default_rng(seed).random(n)
    if step:
        x[: n // 3] = 0.0
        x[n // 3 :] = x[-1]
    out = lowpass(PLTrace(times=np.arange(n) * dt, values=x)).values
    oracle = sosfilt(_sections(*_lowpass_poles(dt)), x)
    warped = math.tan(math.pi * DEFAULT_FILTER_CUTOFF_MHZ * dt)
    tol = max(1e-11, 4.0 * np.finfo(float).eps / warped**2)
    assert np.abs(out - oracle).max() <= tol * np.abs(oracle).max()
    assert out[0] == _filter_state_space(dt)[3] * x[0]


@settings(max_examples=25, deadline=None)
@given(params=rates, s=pump)
def test_property_contrast_returns_to_one(params, s):
    window = default_trace_window(params, s)
    dt = max_stable_dt(params, s)
    stride = max(1, math.ceil(window / dt / 200_000))
    _, contrast = _contrast_arrays(params, s, window, dt, keep_stride=stride)
    dev = np.abs(1.0 - contrast)
    assert dev[-1] < 0.01 * dev.max()


@settings(max_examples=20, deadline=None)
@given(
    params=rates,
    s=st.floats(-3.0, 2.0).map(lambda e: 10.0**e),
    log_norm=st.floats(-3.0, 6.0),
)
def test_property_expm_matches_mpmath(params, s, log_norm):
    # A t with |A t|_1 = 10^log_norm, in one stack with two much shorter
    # steps, so each matrix needs its own number of squarings
    a = rate_matrix(params, s)
    a *= 10.0**log_norm / np.abs(a).sum(axis=0).max()
    stack = a * np.array([2.0**-20, 2.0**-10, 1.0])[:, None, None]
    got = _expm(stack)
    with mpmath.workdps(40):
        exact = [mpmath.expm(mpmath.matrix(m.tolist())).tolist() for m in stack]
    for m, e, x in zip(stack, got, np.array(exact, dtype=float)):
        tol = 1e-14 * max(1.0, np.abs(m).sum(axis=0).max())
        assert np.abs(e - x).max() <= tol
        assert np.abs(e.sum(axis=0) - 1.0).max() <= tol


def exact_readout_contrast(params, s, dt, n, block=256):
    """Independent readout oracle on n samples: populations from expm(A t)
    at every block start and P steps inside the block, PL through scipy's
    sosfilt on the filter's sections, contrast with the same division
    floor."""
    a = rate_matrix(params, s)
    prop = expm(a * dt)
    start = np.column_stack([GROUND_MS_PM1.as_array(), GROUND_MS0.as_array()])
    state = np.stack([expm(a * (lo * dt)) @ start for lo in range(0, n, block)])
    pl = np.empty((len(state), block, 2))  # (block start, step in block, sig/ref)
    for j in range(block):
        pl[:, j] = params.gamma_rad * (state[:, 2] + state[:, 3])
        state = prop @ state
    pl = pl.reshape(-1, 2)[:n]
    sos = _sections(*_lowpass_poles(dt))
    sig, ref = (sosfilt(sos, v) for v in pl.T)
    floor = 1e-9 * params.gamma_rad * steady_state(params, s).as_array()[2:4].sum()
    contrast = np.ones(n)
    np.divide(sig, ref, out=contrast, where=np.abs(ref) > floor)
    return contrast


@settings(max_examples=25, deadline=None)
@given(
    params=rates,
    s=st.floats(-3.0, 2.0).map(lambda e: 10.0**e),
    n=st.integers(100, 50_000),
)
def test_property_readout_matches_exact_populations_through_lowpass(params, s, n):
    dt = max_stable_dt(params, s)
    _, contrast = _contrast_arrays(params, s, (n - 1) * dt, dt)
    assert len(contrast) == n
    assert np.abs(contrast - exact_readout_contrast(params, s, dt, n)).max() < 1e-10


def test_readout_filter_realization_holds_at_high_sample_rate():
    # s = 100 samples at ~3900x the cutoff, where the filter poles crowd
    # towards z = 1; copying the direct-form section states into the joint
    # state is ~1e-9 off here, the coupled-form realization ~5e-12
    s, n = 100.0, 50_000
    dt = max_stable_dt(PARAMS, s)
    _, contrast = _contrast_arrays(PARAMS, s, (n - 1) * dt, dt)
    assert np.abs(contrast - exact_readout_contrast(PARAMS, s, dt, n)).max() < 1e-10
