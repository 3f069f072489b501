"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line (run with `pytest -s` to see them all) and
enforces both the numeric tolerance and the runtime budget of its criterion.
Runtime is measured around the core computation only, after a warm-up call,
so module import and fixture costs are excluded.
"""

import math
import time

import numpy as np

import nvsk.photophysics as ph
from nvsk.core import DiamondSample
from nvsk.dephasing import (
    DephasingBudget,
    dq_t2star,
    nitrogen_bookkeeping,
    spin_bath_budget,
    t2_strain_from_fwhm,
)
from nvsk.ramsey import RamseyModel, fit, synthesize
from nvsk.sensitivity import (
    MetricConfig,
    SensingParams,
    optimal_nitrogen,
    optimal_tau,
    simplified_metric,
    volume_normalized_sensitivity,
)
from nvsk.strainmap import partition_sweep, scaling_metric, synth_stationary
from nvsk.charge import Spectrum, charge_fraction, decompose
from synthdata import high_n_sample, high_n_table, low_n_sample, low_n_table


def report(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:>2}: {status} - {detail}")
    assert passed, detail


def timed(func, *args, **kwargs):
    func(*args, **kwargs)  # warm-up
    start = time.perf_counter()
    result = func(*args, **kwargs)
    return result, time.perf_counter() - start


def test_criterion_01_spin_bath_limit():
    sample = DiamondSample(0.8, 108.0, 0.39, 0.2)
    budget, elapsed = timed(spin_bath_budget, sample)
    t2 = budget.t2_star_bath
    ok = 19.0 <= t2 <= 21.0 and elapsed < 1e-3
    report(1, ok, f"T2*_bath = {t2:.3f} us (target [19, 21]), {elapsed*1e3:.3f} ms")


def test_criterion_02_nitrogen_bookkeeping():
    result, elapsed = timed(nitrogen_bookkeeping, 0.8, 0.39, 0.2)
    ok = abs(result - 0.332) < 1e-12 and abs(result - 0.35) <= 0.03
    ok = ok and elapsed < 1e-3
    report(2, ok, f"ns0_post = {result:.4f} ppm (0.332, within 0.03 of 0.35), "
                  f"{elapsed*1e3:.3f} ms")


def test_criterion_03_metric_ratio_threefold():
    cfg = MetricConfig()

    def ratio():
        return simplified_metric(14.0, 10.0, cfg) / simplified_metric(0.8, 10.0, cfg)

    value, elapsed = timed(ratio)
    # brute-force oracle from the rate polynomial, independent arrangement
    a, b = 0.101, 1e-4 * 50.0

    def oracle_metric(n):
        return math.sqrt((a * n + b) / n + 10.0 * (a * n + b) ** 2 / n)

    oracle = oracle_metric(14.0) / oracle_metric(0.8)
    ok = 2.5 <= value <= 3.2 and abs(value - oracle) <= 1e-6 * oracle and elapsed < 1.0
    report(3, ok, f"ratio = {value:.4f} (target [2.5, 3.2], oracle {oracle:.7f}), "
                  f"{elapsed*1e3:.1f} ms")


def test_criterion_04_optimal_nitrogen_asymptote():
    result, elapsed = timed(optimal_nitrogen, 1e6)
    target = 1e-4 * 50.0 / 0.101  # 0.0495 ppm
    ok = abs(result.concentration - target) <= 0.02 * target and elapsed < 1.0
    report(4, ok, f"N* = {result.concentration:.5f} ppm "
                  f"(target {target:.5f} within 2%), {elapsed*1e3:.1f} ms")


def test_criterion_05_strain_conversion():
    (t31, t15), elapsed = timed(
        lambda: (t2_strain_from_fwhm(31.0), t2_strain_from_fwhm(15.0))
    )
    ok = abs(t31 - 10.27) <= 0.005 and abs(t15 - 21.2) <= 0.05 and elapsed < 1e-3
    report(5, ok, f"T2*_strain(31 kHz) = {t31:.2f} us, T2*_strain(15 kHz) = {t15:.2f} us, "
                  f"{elapsed*1e3:.3f} ms")


def test_criterion_06_scaling_exponent():
    start = time.perf_counter()
    strain_map = synth_stationary((1024, 1024), 3.0, 10.0, seed=42)
    stats = partition_sweep(strain_map, [96.0, 192.0, 384.0, 768.0, 1536.0])
    result = scaling_metric(stats, other_rate_per_us=1.0 / 20.0)
    elapsed = time.perf_counter() - start
    ok = abs(result.exponent - (-1.0)) <= 0.05 and elapsed < 30.0
    report(6, ok, f"exponent = {result.exponent:.4f} (target -1 +- 0.05), {elapsed:.1f} s")


def test_criterion_07_photophysics_conservation_and_ti():
    params = ph.FiveLevelParams()
    start = time.perf_counter()
    worst = 0.0
    for s in (0.0, 0.01, 0.1, 1.0, 10.0, 100.0):
        traj = ph.evolve(
            params, s, ph.GROUND_MS_PM1, t_end=100.0, dt=ph.max_stable_dt(params, s)
        )
        worst = max(worst, traj.conservation_error())
    grid = np.logspace(-3, 1, 40)
    band = ph.ti_band(params, grid)
    elapsed = time.perf_counter() - start
    monotone = bool(np.all(np.diff(band.lower) <= 0) and np.all(np.diff(band.upper) <= 0))
    ordered = bool(np.all(band.lower <= band.upper))
    ok = worst < 1e-9 and monotone and ordered and elapsed < 60.0
    report(7, ok, f"max |sum n - 1| = {worst:.2e}, t_I monotone: {monotone}, "
                  f"band ordered: {ordered}, {elapsed:.1f} s")


def test_criterion_08_butterworth_response():
    start = time.perf_counter()
    dt = 0.02
    n = 40000
    t = np.arange(n) * dt
    trace = ph.PLTrace(dt=dt, values=2.0 + np.sin(2 * np.pi * 1.7 * t))
    out = ph.lowpass(trace)
    tail = slice(n // 2, n)
    y = out.values[tail] - out.values[tail].mean()
    c = 2.0 * np.mean(y * np.cos(2 * np.pi * 1.7 * t[tail]))
    s_ = 2.0 * np.mean(y * np.sin(2 * np.pi * 1.7 * t[tail]))
    gain_fc = math.hypot(c, s_)

    const = ph.PLTrace(dt=dt, values=np.full(n, 3.7))
    dc = ph.lowpass(const).values[n // 2 :]
    dc_err = np.abs(dc - 3.7).max() / 3.7
    elapsed = time.perf_counter() - start
    ok = (
        abs(gain_fc - 1.0 / math.sqrt(2.0)) <= 0.02 / math.sqrt(2.0)
        and dc_err <= 1e-6
        and elapsed < 1.0
    )
    report(8, ok, f"|H(f_cut)| = {gain_fc:.4f} (1/sqrt2 +- 2%), "
                  f"DC error = {dc_err:.2e}, {elapsed*1e3:.0f} ms")


def test_criterion_09_ramsey_roundtrips():
    start = time.perf_counter()
    results = {}
    for t2 in (17.7, 8.6):
        tau = np.arange(0.02, 3.0 * t2, 0.06)
        model = RamseyModel(t2_star=t2, detuning=0.4, amplitude=0.02)
        noisefree = fit(tau, synthesize(model, tau))
        noisy = fit(tau, synthesize(model, tau, noise_sigma=0.02 * 0.02, seed=1))
        results[t2] = (noisefree.t2_star, noisy.t2_star)
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    detail = []
    for t2, (clean, noisy) in results.items():
        ok = ok and abs(clean - t2) <= 1e-6 * t2 and abs(noisy - t2) <= 0.05 * t2
        detail.append(f"T2={t2}: clean {clean:.6f}, 2%-noise {noisy:.3f}")
    report(9, ok, "; ".join(detail) + f", {elapsed:.1f} s")


def test_criterion_10_dq_model():
    budget = DephasingBudget(rate_ns0=1.0 / 17.5)
    value, elapsed = timed(dq_t2star, budget)
    ok = (
        abs(value - 8.75) < 1e-9
        and abs(value - 8.6) <= 0.05 * 8.75 + 0.5
        and elapsed < 1e-3
    )
    report(10, ok, f"T2*_DQ = {value:.4f} us (8.75; measured 8.6(5)), "
                   f"{elapsed*1e3:.3f} ms")


def test_criterion_11_optimal_tau_analytic():
    params = SensingParams(
        delta_ms=1, gamma_e=2.8024, n_sensors=1e4, t2_star=17.5,
        contrast_c=0.02, n_avg=10.0, p=1.0, t_overhead=0.0,
    )
    best, elapsed = timed(optimal_tau, params)
    ok = abs(best.tau - 17.5 / 2.0) <= 1e-3 * (17.5 / 2.0) and elapsed < 0.01
    report(11, ok, f"tau* = {best.tau:.5f} us (T2/2 = 8.75 within 0.1%), "
                   f"{elapsed*1e3:.2f} ms")


def test_criterion_12_charge_fraction():
    start = time.perf_counter()
    psi = charge_fraction(1.0, 1.0, 2.5)
    wl = np.linspace(560.0, 850.0, 400)
    bm = Spectrum(wl, 0.6 * np.exp(-0.5 * ((wl - 637) / 6) ** 2)
                  + np.exp(-0.5 * ((wl - 700) / 45) ** 2))
    b0 = Spectrum(wl, 0.5 * np.exp(-0.5 * ((wl - 575) / 5) ** 2)
                  + np.exp(-0.5 * ((wl - 620) / 35) ** 2))
    measured = Spectrum(wl, 0.7 * bm.counts + 0.3 * b0.counts)
    _, _, residual = decompose(measured, bm, b0)
    rel_residual = residual / np.sqrt(np.mean(measured.counts**2))
    elapsed = time.perf_counter() - start
    ok = (
        abs(psi - 1.0 / 3.5) <= 1e-9
        and rel_residual <= 1e-12
        and elapsed < 0.01
    )
    report(12, ok, f"psi = {psi:.10f} (1/3.5), exact-combination residual "
                   f"{rel_residual:.1e}, {elapsed*1e3:.2f} ms")


def test_criterion_13_crossover_with_synthetic_tables():
    start = time.perf_counter()
    grid = np.logspace(-3, 1, 13)
    ratios = [
        volume_normalized_sensitivity(low_n_sample(), low_n_table(), i, "sq").eta
        / volume_normalized_sensitivity(high_n_sample(), high_n_table(), i, "sq").eta
        for i in grid
    ]
    elapsed = time.perf_counter() - start
    crossings = sum(1 for a, b in zip(ratios, ratios[1:]) if (a < 1.0) != (b < 1.0))
    ok = ratios[0] < 1.0 and ratios[-1] > 1.0 and crossings == 1 and elapsed < 5.0
    report(13, ok, f"low-N favored below crossover: eta ratio {ratios[0]:.3f} -> "
                   f"{ratios[-1]:.3f}, single crossing: {crossings == 1}, {elapsed:.1f} s")
