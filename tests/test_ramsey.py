import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nvsk
from nvsk.errors import ValidationError
from nvsk.ramsey import (
    DEFAULT_HYPERFINE_MHZ,
    RamseyModel,
    _jacobian,
    _model,
    _model_terms,
    _readings,
    fit,
    synthesize,
)

TAU = np.arange(0.02, 53.0, 0.06)


def standard_model(**overrides):
    base = dict(t2_star=17.7, detuning=0.4, amplitude=0.02, baseline=0.0)
    base.update(overrides)
    return RamseyModel(**base)


def test_zero_delay_value():
    model = standard_model(baseline=0.3)
    # all cosines at 1, envelope at 1
    assert model.evaluate(np.array([1e-12]))[0] == pytest.approx(0.32, rel=1e-9)


def test_envelope_at_t2_single_aligned_line():
    model = RamseyModel(
        t2_star=10.0, detuning=0.5, amplitude=1.0, n_hyperfine=1,
        hyperfine_splitting=0.0,
    )
    # detuning * T2 integer: cosine back at +1, envelope exactly 1/e
    value = model.evaluate(np.array([10.0]))[0]
    assert value == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_triplet_against_direct_summation():
    model = standard_model()
    tau = np.linspace(0.05, 20.0, 777)
    direct = np.zeros_like(tau)
    for j in (-1, 0, 1):
        direct += np.cos(2 * np.pi * (0.4 + j * 2.16) * tau)
    direct = 0.02 * np.exp(-tau / 17.7) * direct / 3.0
    assert np.allclose(model.evaluate(tau), direct, rtol=1e-12, atol=1e-15)
    # beat nodes: the triplet envelope (1 + 2cos(2 pi a tau))/3 vanishes
    # first where cos = -1/2, i.e. tau = 1/(3a)
    node = 1.0 / (3.0 * 2.16)
    slow = np.abs(1.0 + 2.0 * np.cos(2 * np.pi * 2.16 * node)) / 3.0
    assert slow < 1e-12


def test_synthesize_noise_is_seeded():
    model = standard_model()
    a = synthesize(model, TAU, noise_sigma=4e-4, seed=7)
    b = synthesize(model, TAU, noise_sigma=4e-4, seed=7)
    c = synthesize(model, TAU, noise_sigma=4e-4, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_fit_noise_free_recovers_exactly():
    model = standard_model()
    signal = synthesize(model, TAU)
    result = fit(TAU, signal)
    assert result.t2_star == pytest.approx(17.7, rel=1e-6)
    assert result.p == pytest.approx(1.0, abs=1e-6)
    assert result.detuning == pytest.approx(0.4, rel=1e-6)
    assert result.hyperfine_splitting == pytest.approx(2.16, rel=1e-6)
    assert result.residual_rms < 1e-10


@pytest.mark.parametrize("t2", [17.7, 8.6])
def test_fit_roundtrip_with_noise(t2):
    tau = np.arange(0.02, 3.0 * t2, 0.06)
    model = standard_model(t2_star=t2)
    signal = synthesize(model, tau, noise_sigma=0.02 * 0.02, seed=1)
    result = fit(tau, signal)
    assert result.t2_star == pytest.approx(t2, rel=0.05)


def test_fit_uncertainty_coverage():
    # calibrated error bars: truth within 2 sigma in >= 90% of 50 runs
    model = standard_model()
    hits = 0
    for seed in range(50):
        signal = synthesize(model, TAU, noise_sigma=0.02 * 0.02, seed=seed)
        result = fit(TAU, signal)
        if abs(result.t2_star - 17.7) <= 2.0 * result.t2_star_sigma:
            hits += 1
    assert hits >= 45


def test_fit_envelope_nonincreasing():
    model = standard_model(p=1.3)
    signal = synthesize(model, TAU, noise_sigma=2e-4, seed=3)
    result = fit(TAU, signal)
    assert np.all(np.diff(result.envelope_samples) <= 0)


def test_time_rescaling_covariance():
    model = standard_model()
    signal = synthesize(model, TAU)
    base = fit(TAU, signal)
    k = 2.0
    scaled = fit(k * TAU, signal)
    assert scaled.t2_star == pytest.approx(k * base.t2_star, rel=1e-6)
    assert scaled.detuning == pytest.approx(base.detuning / k, rel=1e-6)
    assert scaled.hyperfine_splitting == pytest.approx(
        base.hyperfine_splitting / k, rel=1e-6
    )


def test_fit_rejects_undersampled_grid():
    # 1.2 samples per period of the fastest line (2.56 MHz)
    tau = np.arange(0.33, 60.0, 0.33)
    signal = synthesize(standard_model(), tau)
    with pytest.raises(ValidationError, match="under-sampled"):
        fit(tau, signal)


def test_fit_rejects_too_short_record():
    tau = np.arange(0.02, 1.2, 0.02)  # ~3 periods of the fastest line
    signal = synthesize(standard_model(), tau)
    with pytest.raises(ValidationError, match="under-sampled|periods"):
        fit(tau, signal)


def test_fit_rejects_flat_signal():
    signal = np.full_like(TAU, 0.5)
    with pytest.raises(ValidationError, match="no oscillation"):
        fit(TAU, signal)


@pytest.mark.parametrize("lines", [0, 9, math.nan])
def test_fit_refuses_a_line_count_outside_one_to_eight(lines):
    # a NaN count passed both comparisons and ended in a TypeError
    signal = synthesize(standard_model(), TAU)
    with pytest.raises(ValidationError, match=r"n_hyperfine must be in \[1, 8\], got"):
        fit(TAU, signal, n_hyperfine=lines)


def test_model_validation():
    with pytest.raises(ValidationError):
        RamseyModel(t2_star=-1.0, detuning=0.4, amplitude=0.02)
    with pytest.raises(ValidationError):
        RamseyModel(t2_star=10.0, detuning=0.4, amplitude=0.02, p=0.2)
    with pytest.raises(ValidationError):
        RamseyModel(t2_star=10.0, detuning=0.4, amplitude=0.02, n_hyperfine=0)
    for field in ("detuning", "amplitude", "baseline", "hyperfine_splitting"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError, match=f"{field} must be finite"):
                standard_model(**{field: value})


def test_synthesize_grid_validation():
    model = standard_model()
    with pytest.raises(ValidationError):
        synthesize(model, np.array([0.0, 0.5, 1.0]))
    with pytest.raises(ValidationError):
        synthesize(model, np.array([1.0, 0.5]))
    for sigma in (-1.0, math.nan, math.inf):
        with pytest.raises(ValidationError, match="noise_sigma"):
            synthesize(model, TAU, noise_sigma=sigma)


TRIPLET = np.array([-1.0, 0.0, 1.0])


@settings(max_examples=200, deadline=None)
@given(
    base=st.floats(-1.0, 1.0),
    amp=st.floats(1e-3, 1.0),
    t2=st.floats(0.1, 1e3),
    p=st.floats(0.5, 3.0),
    det=st.floats(0.0, 5.0),
    split=st.floats(0.0, 3.0),
    start=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    step=st.floats(0.01, 0.5),
    n=st.integers(16, 200),
)
def test_jacobian_matches_central_differences(base, amp, t2, p, det, split, start, step, n):
    tau = start + step * np.arange(n)
    x = np.array([base, amp, t2, p, det, split])
    terms = _model_terms(tau, TRIPLET, x)
    model = _model(x, terms)
    # bit for bit the model's plain expression
    osc = np.cos(2.0 * np.pi * np.outer(tau, det + TRIPLET * split)).mean(axis=1)
    assert np.array_equal(model, x[0] + x[1] * np.exp(-((tau / x[2]) ** x[3])) * osc)

    jac = _jacobian(tau, TRIPLET, x, terms)
    assert np.all(np.isfinite(jac))
    # rounding error of one model evaluation: ulps of the model and of the
    # cosine arguments, which grow with the phase
    rounding = np.finfo(float).eps * (np.abs(model).max() + amp * (1.0 + np.abs(terms[0]).max()))
    for k in range(6):
        h = 1e-7 * max(abs(x[k]), 1.0)
        up, down = x.copy(), x.copy()
        up[k] += h
        down[k] -= h
        oracle = (
            _model(up, _model_terms(tau, TRIPLET, up))
            - _model(down, _model_terms(tau, TRIPLET, down))
        ) / (2.0 * h)
        # the oracle's truncation error relative to the column, plus its
        # rounding error divided by the step
        bound = 1e-6 * np.abs(jac[:, k]).max() + 4.0 * rounding / h
        assert np.abs(jac[:, k] - oracle).max() <= bound, k


# Fit outputs on signals the fit recovers (detuning < a/2, p in {1, 2}),
# keyed by (T2*, detuning, p, noise seed; None for a noiseless signal).
GOLDEN_FITS = {
    (17.7, 0.4, 1.0, None): dict(
        t2_star=17.700000000000014, t2_star_sigma=1.4462341762494952e-15,
        p=1.0000000000000013, p_sigma=9.931906431238369e-17, detuning=0.4,
        hyperfine_splitting=2.16, amplitude=0.02, baseline=3.3177445519946846e-19,
    ),
    (17.7, 0.4, 1.0, 1): dict(
        t2_star=17.90174505604799, t2_star_sigma=0.24993957155408056,
        p=1.014968598209936, p_sigma=0.01756736792623229, detuning=0.3999983450427276,
        hyperfine_splitting=2.1599626876112605, amplitude=0.019820863871922282,
        baseline=-2.3188091156018554e-05,
    ),
    (8.6, 0.25, 2.0, None): dict(
        t2_star=8.600000000000005, t2_star_sigma=7.858346077483116e-16,
        p=2.000000000000002, p_sigma=5.050784574560603e-16, detuning=0.25000000000000006,
        hyperfine_splitting=2.16, amplitude=0.02, baseline=1.0676993284082535e-19,
    ),
    (8.6, 0.25, 2.0, 3): dict(
        t2_star=8.585738039227786, t2_star_sigma=0.07518552387228485,
        p=1.9527352633538022, p_sigma=0.045928790733205604, detuning=0.25013306181717376,
        hyperfine_splitting=2.160338598801016, amplitude=0.020082472612824254,
        baseline=2.4505048277913836e-05,
    ),
    (12.0, 0.9, 1.0, 5): dict(
        t2_star=12.180321566354543, t2_star_sigma=0.19680778139615196,
        p=1.0319102363437447, p_sigma=0.021093485086253364, detuning=0.9000128331163912,
        hyperfine_splitting=2.1600519973340604, amplitude=0.01970083327451894,
        baseline=-1.30943253300196e-05,
    ),
    (5.0, 0.6, 2.0, 7): dict(
        t2_star=5.010240215137786, t2_star_sigma=0.05329637541428364,
        p=1.9397463137404827, p_sigma=0.05490568160541212, detuning=0.5999977326858678,
        hyperfine_splitting=2.1596391600644522, amplitude=0.020081265719134156,
        baseline=-6.297099373271286e-05,
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_FITS, key=str))
def test_fit_matches_golden_outputs(case):
    t2, detuning, p, seed = case
    tau = np.arange(0.06, 3.0 * t2 + 0.03, 0.06)  # the `ramsey synth` grid
    model = RamseyModel(t2_star=t2, detuning=detuning, amplitude=0.02, p=p)
    signal = synthesize(model, tau, noise_sigma=0.0 if seed is None else 4e-4, seed=seed)
    result = fit(tau, signal)
    for field, value in GOLDEN_FITS[case].items():
        # 1e-6 relative, the benchmark's tolerance; the absolute floor only
        # matters for the sigmas and baseline of a noiseless signal, which
        # sit at rounding level
        assert getattr(result, field) == pytest.approx(value, rel=1e-6, abs=1e-12), field



def synth_grid(t2):
    """The `ramsey synth` default grid: dtau 0.06 us up to 3 T2*."""
    return np.arange(0.06, 3.0 * t2 + 0.03, 0.06)


# Detunings 0.1..2.0 MHz in 0.05 steps, leaving out the band within
# 0.05 MHz of a/2, where the lines at d and |d - a| are closer than their
# width and cannot be told apart.
SWEEP_DETUNINGS = [
    d for d in (round(0.1 + 0.05 * k, 2) for k in range(39))
    if abs(d - DEFAULT_HYPERFINE_MHZ / 2.0) >= 0.05
]


@pytest.mark.parametrize("noise", [0.0, 1e-4, 4e-4])
@pytest.mark.parametrize("t2", [5.0, 10.0, 20.0])
@pytest.mark.parametrize("detuning", SWEEP_DETUNINGS)
def test_fit_recovers_detuning_sweep(detuning, t2, noise):
    tau = synth_grid(t2)
    signal = synthesize(standard_model(t2_star=t2, detuning=detuning), tau, noise, seed=1)
    result = fit(tau, signal)
    # criterion 9 for T2*, and the detuning on the right line
    assert result.t2_star == pytest.approx(t2, rel=0.05)
    assert result.detuning == pytest.approx(detuning, rel=0.01)


def test_fit_is_one_short_solve(monkeypatch):
    calls = []
    solve = nvsk.ramsey.least_squares

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(nvsk.ramsey, "least_squares", counted)
    tau = synth_grid(8.6)
    result = fit(tau, synthesize(standard_model(t2_star=8.6, detuning=0.25, p=2.0), tau))
    assert len(calls) == 1
    assert result.n_evaluations < 50
    assert result.t2_star == pytest.approx(8.6, rel=1e-9)


def _assert_port_matches_scipy(monkeypatch, tau, signal, n_hyperfine=3):
    """Fit the signal, solving the problem the fit hands its solver also with
    scipy.optimize.least_squares on the same arguments, and compare."""
    from scipy.optimize import least_squares as oracle

    solve, solves = nvsk.ramsey.least_squares, []

    def both(fun, x0, jac, bounds, **kwargs):
        rows = np.arange(1)
        expected = oracle(lambda x: fun(x[None], rows)[0], x0[0],
                          jac=lambda x: jac(x[None], rows)[0], bounds=bounds, **kwargs)
        solves.append((solve(fun, x0, jac, bounds, **kwargs), expected))
        return solves[-1][0]

    monkeypatch.setattr(nvsk.ramsey, "least_squares", both)
    fit(tau, signal, n_hyperfine)
    [(port, expected)] = solves
    assert np.allclose(port.x[0], expected.x, rtol=1e-12, atol=0.0)
    assert port.nfevs[0] == expected.nfev
    assert port.status[0] == expected.status


@pytest.mark.parametrize(
    "t2, detuning, p, noise, lines",
    [(17.7, 0.4, 1.0, 0.0, 3), (17.7, 0.4, 1.0, 4e-4, 3), (8.6, 0.25, 2.0, 4e-4, 3),
     (5.0, 1.7, 1.5, 4e-4, 3), (20.0, 0.7, 1.0, 1e-4, 3), (10.0, 1.3, 1.0, 4e-4, 1)],
)
def test_fit_solver_matches_scipy_least_squares(monkeypatch, t2, detuning, p, noise, lines):
    tau = synth_grid(t2)
    model = standard_model(t2_star=t2, detuning=detuning, p=p, n_hyperfine=lines)
    _assert_port_matches_scipy(monkeypatch, tau, synthesize(model, tau, noise, seed=2), lines)


@settings(max_examples=40, deadline=None)
@given(
    t2=st.floats(5.0, 20.0),
    detuning=st.floats(0.3, 2.0),
    p=st.floats(0.8, 2.5),
    noise=st.sampled_from([0.0, 1e-4, 4e-4]),
    seed=st.integers(0, 2**16),
)
def test_fit_solver_matches_scipy_least_squares_on_random_signals(t2, detuning, p, noise, seed):
    tau = synth_grid(t2)
    signal = synthesize(standard_model(t2_star=t2, detuning=detuning, p=p), tau, noise, seed=seed)
    with pytest.MonkeyPatch.context() as monkeypatch:
        try:
            _assert_port_matches_scipy(monkeypatch, tau, signal)
        except ValidationError:
            assume(False)  # refused before the solve: nothing to compare


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("t2", [5.0, 10.0, 20.0])
def test_one_line_fits_converge(t2, p):
    # one line does not depend on the splitting; with it in the solve its
    # zero Jacobian column stalled the trust-region steps to max_nfev
    tau = synth_grid(t2)
    for detuning in np.linspace(0.1, 2.0, 12):
        if detuning * (tau[-1] - tau[0]) < 8.0:
            continue  # under-sampled: too few periods to fit
        for noise in (0.0, 4e-4):
            model = standard_model(t2_star=t2, detuning=detuning, p=p, n_hyperfine=1)
            result = fit(tau, synthesize(model, tau, noise, seed=1), n_hyperfine=1)
            assert result.n_evaluations < 50
            assert result.t2_star == pytest.approx(t2, rel=0.05)
            assert result.p == pytest.approx(p, rel=0.05)
            assert result.detuning == pytest.approx(detuning, rel=1e-3)
            assert result.hyperfine_splitting == DEFAULT_HYPERFINE_MHZ
            assert result.frequencies == (result.detuning,)


def test_fit_accepts_lines_merged_at_half_the_splitting():
    # d = 1.08 MHz = a/2: the lines at d and |d - a| merge into one peak.
    # Some readings of the two peaks put a line past 4 samples per period;
    # the sampling guard holds only the chosen reading to that.
    tau = synth_grid(14.0)
    signal = synthesize(standard_model(t2_star=14.0, detuning=1.08), tau, 4e-4, seed=1)
    result = fit(tau, signal)
    assert result.t2_star == pytest.approx(14.0, rel=0.05)
    assert result.hyperfine_splitting == pytest.approx(DEFAULT_HYPERFINE_MHZ, rel=1e-3)


@settings(max_examples=300, deadline=None)
@given(
    det=st.floats(0.0, 5.0),
    split=st.floats(0.01, 3.0),
    n=st.sampled_from([2, 3]),
    data=st.data(),
)
def test_readings_contain_the_true_frequencies(det, split, n, data):
    j = np.arange(n) - (n - 1) / 2.0
    lines = np.abs(det + j * split)
    k1, k2 = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    peaks = np.sort(lines[[k1, k2]])
    assume(peaks[0] > 0 and peaks[1] > peaks[0])
    readings = np.array(_readings(peaks, j))
    assert np.all(readings >= 0)
    assert len(readings) <= 4 * n * (n - 1)
    close = np.isclose(readings[:, 0], det, rtol=1e-9, atol=1e-12) & np.isclose(
        readings[:, 1], split, rtol=1e-9, atol=1e-12
    )
    assert close.any()


def test_import_leaves_scipy_optimize_unloaded():
    src = str(Path(nvsk.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, nvsk.ramsey; print('scipy.optimize' in sys.modules)"],
        capture_output=True, text=True, check=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.stdout.strip() == "False"
