import math
import sys
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nvsk.core import DiamondSample
from nvsk.dephasing import BathCoefficients, dq_t2star, spin_bath_budget
from nvsk.errors import ComputationError, ValidationError
from nvsk.sensitivity import (
    IntensityRow,
    IntensityTable,
    MetricConfig,
    PhotonModel,
    SensingParams,
    optimal_nitrogen,
    optimal_tau,
    ramsey_sensitivity,
    simplified_metric,
    volume_normalized_sensitivity,
)
from synthdata import high_n_sample, high_n_table, low_n_sample, low_n_table


def unit_params(**overrides):
    base = dict(
        delta_ms=1,
        gamma_e=1.0,
        n_sensors=1.0,
        t2_star=math.inf,
        contrast_c=1.0,
        n_avg=math.inf,
        p=1.0,
        t_overhead=0.0,
    )
    base.update(overrides)
    return SensingParams(**base)


def test_all_factors_unity():
    assert ramsey_sensitivity(unit_params(), 1.0) == pytest.approx(1.0, rel=1e-15)


def test_half_t2_ratio_closed_form():
    # eta(tau=T2/2) / eta(tau=T2) = exp(-1/2) * sqrt(2) for p=1, t_O=0
    t2 = 7.3
    params = unit_params(t2_star=t2)
    eta_half = ramsey_sensitivity(params, t2 / 2)
    eta_full = ramsey_sensitivity(params, t2)
    assert eta_half / eta_full == pytest.approx(math.exp(-0.5) * math.sqrt(2.0), rel=1e-12)
    assert eta_half / eta_full == pytest.approx(0.8578, abs=2e-4)


def test_double_quantum_prefactor():
    sq = ramsey_sensitivity(unit_params(t2_star=10.0, n_avg=100.0, contrast_c=0.02), 3.0)
    dq = ramsey_sensitivity(
        unit_params(delta_ms=2, t2_star=10.0, n_avg=100.0, contrast_c=0.02), 3.0
    )
    assert dq == pytest.approx(sq / 2.0, rel=1e-15)


@pytest.mark.parametrize("p", [0.5, math.nan, math.inf])
def test_stretch_exponent_must_be_finite_and_at_least_one(p):
    # an infinite p would make the envelope a step and its optimum undefined
    with pytest.raises(ValidationError, match="p must be finite and >= 1, got"):
        unit_params(p=p)


@pytest.mark.parametrize(
    "build, field",
    [(unit_params, "gamma_e"), (unit_params, "n_sensors"),
     (PhotonModel, "rate_at_1mw_kcps"), (PhotonModel, "i_sat")],
)
def test_infinite_scale_factors_are_refused(build, field):
    # each was accepted when only > 0 was checked
    with pytest.raises(ValidationError, match=f"{field} must be finite and > 0"):
        build(**{field: math.inf})


def test_zero_navg_rejected():
    # refused when the struct is built, not on every evaluation
    with pytest.raises(ValidationError, match="n_avg must be > 0, got 0.0"):
        unit_params(n_avg=0.0)


def log_eta_oracle(delta_ms, p, t2, t_o, n_avg, contrast, tau):
    # the expression summed in log space: no intermediate product can overflow
    return (
        -math.log(delta_ms)
        - 0.5 * math.log(tau)
        + (tau / t2) ** p
        + 0.5 * math.log1p(1.0 / (contrast**2 * n_avg))
        + 0.5 * math.log((tau + t_o) / tau)
    )


_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@settings(max_examples=200, deadline=None)
@given(
    delta_ms=st.sampled_from((1, 2)),
    p=st.floats(1.0, 3.0),
    t2=st.one_of(st.just(math.inf), st.floats(-3.0, 3.0).map(lambda e: 10.0**e)),
    t_o=st.one_of(st.just(0.0), st.floats(-3.0, 4.0).map(lambda e: 10.0**e)),
    n_avg=st.one_of(st.just(math.inf), st.floats(-6.0, 6.0).map(lambda e: 10.0**e)),
    contrast=st.floats(1e-4, 1.0),
    tau=st.floats(-9.0, 6.0).map(lambda e: 10.0**e),
)
@example(delta_ms=1, p=3.0, t2=1e-3, t_o=0.0, n_avg=1.0, contrast=0.5, tau=1e6)  # overflow
def test_property_sensitivity_matches_log_form(delta_ms, p, t2, t_o, n_avg, contrast, tau):
    params = unit_params(
        delta_ms=delta_ms, p=p, t2_star=t2, t_overhead=t_o, n_avg=n_avg,
        contrast_c=contrast,
    )
    eta = ramsey_sensitivity(params, tau)
    log_eta = log_eta_oracle(delta_ms, p, t2, t_o, n_avg, contrast, tau)
    if (tau / t2) ** p > 710.0:  # exp() overflows past ~709.78
        assert eta == math.inf
    elif eta == math.inf:  # a finite envelope, but the product overflows
        assert log_eta > _LOG_FLOAT_MAX - 1e-9
    else:
        assert math.log(eta) == pytest.approx(log_eta, rel=1e-12, abs=1e-12)


def test_tau_is_validated_per_call():
    params = unit_params()
    for bad in (0.0, -1.0, -math.inf, math.nan):
        with pytest.raises(ValidationError, match="tau must be finite and > 0 us"):
            ramsey_sensitivity(params, bad)
    with pytest.raises(ValidationError, match="tau must be finite and > 0 us, got inf"):
        ramsey_sensitivity(params, math.inf)
    with pytest.raises(TypeError):
        ramsey_sensitivity(params)  # tau is required


def test_monotonicity_in_each_parameter():
    rng = np.random.default_rng(23)
    for _ in range(40):
        params = unit_params(
            n_sensors=rng.uniform(1.0, 1e6),
            t2_star=rng.uniform(1.0, 50.0),
            contrast_c=rng.uniform(0.005, 0.5),
            n_avg=rng.uniform(0.01, 100.0),
            t_overhead=rng.uniform(0.0, 100.0),
        )
        tau = rng.uniform(0.1, 40.0)

        def eta_with(**change):
            return ramsey_sensitivity(replace(params, **change), tau)

        eta = ramsey_sensitivity(params, tau)
        assert eta_with(n_sensors=params.n_sensors * 1.7) < eta
        assert eta_with(contrast_c=min(1.0, params.contrast_c * 1.5)) < eta
        assert eta_with(n_avg=params.n_avg * 2.0) < eta
        assert eta_with(t_overhead=params.t_overhead + 5.0) > eta


def test_optimal_tau_analytic_half_t2():
    for t2 in (1.0, 8.6, 17.5, 240.0):
        params = unit_params(t2_star=t2, n_avg=50.0, contrast_c=0.02)
        best = optimal_tau(params)
        assert best.tau <= params.t2_star
        assert best.tau == pytest.approx(t2 / 2.0, rel=1e-3)


def test_optimal_tau_monotone_in_overhead():
    # brute-force grid agreement and monotone drift of the optimum
    t2 = 12.0
    taus = []
    for t_o in (0.0, 1.0, 5.0, 25.0, 125.0, 625.0):
        params = unit_params(t2_star=t2, t_overhead=t_o)
        best = optimal_tau(params)
        grid = np.logspace(math.log10(t2 * 1e-4), math.log10(5 * t2), 20001)
        etas = [ramsey_sensitivity(params, float(t)) for t in grid]
        assert best.tau == pytest.approx(grid[int(np.argmin(etas))], rel=1e-3)
        taus.append(best.tau)
    assert all(b >= a * (1 - 1e-9) for a, b in zip(taus, taus[1:]))
    # approaches tau* = T2 in the deep-overhead limit for p=1
    assert taus[-1] == pytest.approx(t2, rel=0.01)


def quadratic_root(t2, t_o):
    # p = 1: d/dtau log eta = 0 is 2 tau^2 + b tau - 2 T2* t_O = 0 with
    # b = 2 t_O - T2*; the positive root, written without cancellation
    b = 2.0 * t_o - t2
    sq = math.sqrt(b * b + 16.0 * t2 * t_o)
    return (sq - b) / 4.0 if b <= 0 else 4.0 * t2 * t_o / (b + sq)


def stationary_tau_oracle(t2, p, t_o):
    # 40-digit root of 2p (tau/T2*)^p = (tau + 2 t_O)/(tau + t_O)
    with mpmath.workdps(40):
        t2, p, t_o = mpmath.mpf(t2), mpmath.mpf(p), mpmath.mpf(t_o)
        if t_o == 0:  # the right side is 1
            return float(t2 * (2 * p) ** (-1 / p))
        bracket = (t2 * (2 * p) ** (-1 / p), t2 * p ** (-1 / p))
        return float(mpmath.findroot(
            lambda tau: 2 * p * (tau / t2) ** p - (tau + 2 * t_o) / (tau + t_o),
            bracket, solver="anderson",
        ))


@settings(max_examples=25, deadline=None)
@given(
    t2=st.floats(-1.0, 3.0).map(lambda e: 10.0**e),
    t_o=st.one_of(st.just(0.0), st.floats(-3.0, 4.0).map(lambda e: 10.0**e)),
)
def test_property_optimal_tau_is_the_closed_form_root(t2, t_o):
    best = optimal_tau(unit_params(t2_star=t2, t_overhead=t_o))
    assert best.tau <= t2
    assert best.tau == pytest.approx(quadratic_root(t2, t_o), rel=1e-13)


@settings(max_examples=50, deadline=None)
@given(
    p=st.floats(1.0, 6.0),
    t2=st.floats(-1.0, 3.0).map(lambda e: 10.0**e),
    t_o=st.one_of(st.just(0.0), st.floats(-3.0, 4.0).map(lambda e: 10.0**e)),
)
def test_property_optimal_tau_is_the_stationary_point_for_any_p(p, t2, t_o):
    params = unit_params(t2_star=t2, p=p, t_overhead=t_o)
    best = optimal_tau(params)
    assert best.tau <= params.t2_star
    assert best.tau == pytest.approx(stationary_tau_oracle(t2, p, t_o), rel=1e-13)
    assert best.eta == ramsey_sensitivity(params, best.tau)


def test_optimal_tau_survives_envelope_overflow():
    # at p=6 the envelope overflows floats beyond about 3 T2*, inside the
    # default domain of 5 T2*; the optimum lies well below that
    params = unit_params(t2_star=10.0, p=6.0, n_avg=10.0, contrast_c=0.5)
    best = optimal_tau(params)
    analytic = 10.0 * (1.0 / 12.0) ** (1.0 / 6.0)  # T2 (1/2p)^(1/p)
    assert best.tau == pytest.approx(analytic, rel=1e-13)
    assert math.isfinite(best.eta)


def test_optimal_tau_boundary_without_dephasing():
    # eta falls for ever without dephasing: there is no optimum to return
    with pytest.raises(ValidationError, match="t2_star is unbounded"):
        optimal_tau(unit_params(t2_star=math.inf))


def test_optimal_tau_refuses_a_non_finite_eta():
    # the prefactor 1/(dm gamma_e) overflows
    with pytest.raises(ComputationError, match="sensitivity is not finite at tau=5 us"):
        optimal_tau(unit_params(t2_star=10.0, gamma_e=1e-320))


@pytest.mark.parametrize("t2", [1e292, 1e300])
def test_optimal_tau_refuses_an_eta_that_underflows_to_zero(t2):
    # N tau overflows, so 1/sqrt(N tau) is 0
    params = SensingParams(delta_ms=1, gamma_e=2.8024, n_sensors=1e17, t2_star=t2,
                           contrast_c=0.02, n_avg=0.1)
    with pytest.raises(ComputationError, match="sensitivity underflows to 0 at tau="):
        optimal_tau(params)


@pytest.mark.parametrize("t2", [5e307, 1.5e308])
def test_optimal_tau_at_the_top_of_the_float_range(t2):
    # the bracket [T2*/2, T2*] sums past the largest float above 1.2e308
    best = optimal_tau(unit_params(t2_star=t2))
    assert best.tau == pytest.approx(t2 / 2.0, rel=1e-15)
    assert 0.0 < best.eta < math.inf


def test_optimal_tau_argmin_invariant_under_sensor_scaling():
    params = unit_params(t2_star=9.0, n_avg=10.0, contrast_c=0.1)
    a = optimal_tau(params)
    b = optimal_tau(replace(params, n_sensors=3.7e8))
    assert b.tau == pytest.approx(a.tau, rel=1e-12)
    assert b.eta == pytest.approx(a.eta / math.sqrt(3.7e8), rel=1e-9)


# Optimizer outputs pinned with ==. Each tau agrees with a 40-digit root of the
# stationarity condition and each nitrogen content with the closed form N*
# evaluated in mpmath (test_golden_values_are_the_exact_optima). Against the
# values the earlier scan and golden-section search recorded, every eta and
# metric is lower or equal.
GOLDEN_TAU = [
    pytest.param(dict(t2_star=10.0), 5.0, 0.7373305674470637, id="half-t2"),
    pytest.param(
        dict(delta_ms=2, gamma_e=2.8024, n_sensors=3.7e14, t2_star=4.3, contrast_c=0.03,
             n_avg=0.05, p=2.0, t_overhead=5.0),
        2.7571725661234225, 2.107107337382297e-06, id="dq-p2-overhead",
    ),
    pytest.param(dict(t2_star=10.0, p=6.0, n_avg=10.0, contrast_c=0.5),
                 6.609010760833648, 0.500249882348323, id="p6"),
]
GOLDEN_NITROGEN = [
    pytest.param(10.0, MetricConfig(), 0.22686018291860596, 0.3967165417764351, True,
                 id="overhead-10us"),
    pytest.param(0.0, MetricConfig(), 100.0, 0.3178836265050467, False, id="no-overhead"),
    pytest.param(1e3, MetricConfig(c13=1.1e4), 10.896038479359008,
                 21.085586950708358, True, id="natural-c13"),
]


@pytest.mark.parametrize("overrides, tau, eta", GOLDEN_TAU)
def test_optimal_tau_golden_values(overrides, tau, eta):
    best = optimal_tau(unit_params(**overrides))
    assert (best.tau, best.eta) == (tau, eta)


@pytest.mark.parametrize("t_overhead, cfg, ppm, metric, interior", GOLDEN_NITROGEN)
def test_optimal_nitrogen_golden_values(t_overhead, cfg, ppm, metric, interior):
    best = optimal_nitrogen(t_overhead, cfg)
    assert (best.concentration, best.metric, best.interior) == (ppm, metric, interior)


def nitrogen_oracle(t_o, a, b):
    # N* = sqrt(b (1 + b t_O) / (a^2 t_O)) at 40 digits; inf when a or t_O is 0
    if a == 0 or t_o == 0:
        return math.inf
    with mpmath.workdps(40):
        a, b, t_o = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(t_o)
        return float(mpmath.sqrt(b * (1 + b * t_o) / (a * a * t_o)))


def test_golden_values_are_the_exact_optima():
    for case in GOLDEN_TAU:
        overrides, tau, _ = case.values
        params = unit_params(**overrides)
        oracle = stationary_tau_oracle(params.t2_star, params.p, params.t_overhead)
        assert tau == pytest.approx(oracle, rel=1e-13)
    for case in GOLDEN_NITROGEN:
        t_o, cfg, ppm, _, interior = case.values
        oracle = nitrogen_oracle(t_o, cfg.bath_coeffs.a_ns0,
                                 cfg.bath_coeffs.a_c13 * cfg.c13)
        assert ppm == pytest.approx(min(max(oracle, 0.01), 100.0), rel=1e-13)


# --- simplified metric ---


def metric_oracle(n, c13, t_o, coeffs=BathCoefficients()):
    # independent arrangement: eta^2 = (aN + b)/N + tO (aN + b)^2 / N
    a, b = coeffs.a_ns0, coeffs.a_c13 * c13
    return math.sqrt((a * n + b) / n + t_o * (a * n + b) ** 2 / n)


@settings(max_examples=200, deadline=None)
@given(
    n=st.floats(-2.0, 2.0).map(lambda e: 10.0**e),
    t_o=st.one_of(st.just(0.0), st.floats(-3.0, 4.0).map(lambda e: 10.0**e)),
    c13=st.floats(0.0, 4.0).map(lambda e: 10.0**e),
)
def test_property_simplified_metric_matches_oracle(n, t_o, c13):
    cfg = MetricConfig(c13=c13)
    assert simplified_metric(n, t_o, cfg) == pytest.approx(
        metric_oracle(n, c13, t_o), rel=1e-12
    )


def test_simplified_metric_threefold_ratio():
    cfg = MetricConfig()
    ratio = simplified_metric(14.0, 10.0, cfg) / simplified_metric(0.8, 10.0, cfg)
    assert 2.5 <= ratio <= 3.2
    oracle = metric_oracle(14.0, 50.0, 10.0) / metric_oracle(0.8, 50.0, 10.0)
    assert ratio == pytest.approx(oracle, rel=1e-9)


def test_simplified_metric_plateaus_without_overhead():
    grid = np.logspace(-2, 2, 300)
    values = [simplified_metric(n, 0.0, MetricConfig()) for n in grid]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(values, values[1:]))


def test_simplified_metric_duty_factor_unity_at_zero_overhead():
    n = 5.0
    a, b = 0.101, 0.005
    t2 = 1.0 / (a * n + b)
    assert simplified_metric(n, 0.0, MetricConfig()) == pytest.approx(
        math.sqrt(1.0 / (n * t2)), rel=1e-12
    )


def test_simplified_metric_validates_bare_ppm():
    cfg = MetricConfig()
    assert simplified_metric(np.float64(0.8), 10.0, cfg) == simplified_metric(0.8, 10.0, cfg)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValidationError, match="ns0 must be finite and > 0 ppm"):
            simplified_metric(bad, 10.0, cfg)


def test_simplified_metric_validates_overhead():
    for bad in (-1.0, -1e-300, math.nan, math.inf):
        with pytest.raises(ValidationError, match="t_overhead must be finite and >= 0 us"):
            simplified_metric(0.8, bad, MetricConfig())
        with pytest.raises(ValidationError, match="t_overhead must be finite and >= 0 us"):
            optimal_nitrogen(bad)


@pytest.mark.parametrize("t_overhead", [1.0, np.float64(1.0)])
@pytest.mark.parametrize(
    "cfg",
    [MetricConfig(bath_coeffs=BathCoefficients(a_ns0=1e308)), MetricConfig(c13=1e308)],
    ids=["a_ns0", "c13"],
)
def test_optimal_nitrogen_refuses_a_metric_out_of_the_float_range(t_overhead, cfg):
    # n * T2*^2 underflows to 0: a ZeroDivisionError for Python floats, numpy
    # warnings and an infinite metric for numpy scalars
    with pytest.raises(ComputationError, match="simplified metric leaves the float range"):
        optimal_nitrogen(t_overhead, cfg)


def test_optimal_nitrogen_at_10us_overhead():
    result = optimal_nitrogen(10.0)
    assert result.interior
    # brute-force grid oracle
    grid = np.logspace(-2, 2, 10_000)
    cfg = MetricConfig()
    oracle = grid[int(np.argmin([simplified_metric(n, 10.0, cfg) for n in grid]))]
    assert result.concentration == pytest.approx(oracle, rel=2e-3)
    assert result.concentration == pytest.approx(0.2269, abs=0.003)


def test_optimal_nitrogen_deep_overhead_asymptote():
    # stationarity of (aN+b)^2/N gives N* -> b/a
    result = optimal_nitrogen(1e6)
    assert result.concentration == pytest.approx(0.005 / 0.101, rel=0.02)


def test_optimal_nitrogen_no_interior_optimum_at_zero_overhead():
    result = optimal_nitrogen(0.0)
    assert not result.interior
    assert result.concentration == 100.0


def test_optimal_nitrogen_clips_to_the_range_ends():
    # no nitrogen term: the metric falls towards 100 ppm
    no_n = optimal_nitrogen(10.0, MetricConfig(bath_coeffs=BathCoefficients(a_ns0=0.0)))
    assert (no_n.concentration, no_n.interior) == (100.0, False)
    # no carbon-13 term: N* = 0, clipped up to 0.01 ppm
    no_c = optimal_nitrogen(10.0, MetricConfig(c13=0.0))
    assert (no_c.concentration, no_c.interior) == (0.01, False)


@settings(max_examples=100, deadline=None)
@given(
    t_o=st.one_of(st.just(0.0), st.floats(-3.0, 4.0).map(lambda e: 10.0**e)),
    c13=st.floats(0.0, 4.0).map(lambda e: 10.0**e),
    a_ns0=st.one_of(st.just(0.0), st.floats(-2.0, 0.0).map(lambda e: 10.0**e)),
    a_c13=st.floats(-5.0, -3.0).map(lambda e: 10.0**e),
)
def test_property_optimal_nitrogen_is_the_grid_argmin(t_o, c13, a_ns0, a_c13):
    coeffs = BathCoefficients(a_ns0=a_ns0, a_c13=a_c13)
    best = optimal_nitrogen(t_o, MetricConfig(c13=c13, bath_coeffs=coeffs))
    grid = np.logspace(-2.0, 2.0, 20001)  # steps of 0.046 %
    a, b = a_ns0, a_c13 * c13
    oracle = np.sqrt((a * grid + b) / grid + t_o * (a * grid + b) ** 2 / grid)
    assert best.concentration == pytest.approx(grid[np.argmin(oracle)], rel=1e-3)
    assert best.interior == (0.01 < best.concentration < 100.0)
    assert best.metric == pytest.approx(
        metric_oracle(best.concentration, c13, t_o, coeffs), rel=1e-12
    )


def test_optimal_nitrogen_nonincreasing_in_overhead():
    values = [optimal_nitrogen(t).concentration for t in (0.5, 2.0, 10.0, 50.0, 1e3)]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(values, values[1:]))


# --- photon model and tables ---


def test_photon_model_anchor():
    model = PhotonModel()
    assert model.rate_kcps(1.0) == pytest.approx(30.0, rel=1e-12)
    # saturating: less than linear growth above the anchor
    assert model.rate_kcps(10.0) < 300.0
    assert model.rate_kcps(0.0) == 0.0


def test_table_interpolation_and_range_guard():
    table = low_n_table()
    row = table.interpolate(1e-2)
    assert row.psi == pytest.approx(0.20)
    mid = table.interpolate(math.sqrt(1e-2 * 1e-1))  # log midpoint
    assert mid.psi == pytest.approx(0.18, abs=1e-12)
    with pytest.raises(ValidationError, match="outside table range"):
        table.interpolate(20.0)
    with pytest.raises(ValidationError, match="outside table range"):
        table.interpolate(5e-4)


@pytest.mark.parametrize("rate", [-1.0, math.nan, math.inf])
def test_intensity_row_refuses_a_bad_photon_rate(rate):
    with pytest.raises(ValidationError, match="photon_rate_kcps must be finite and >= 0"):
        IntensityRow(intensity=1.0, contrast_c=0.01, psi=0.5, t_overhead=10.0,
                     photon_rate_kcps=rate)


def test_table_rejects_nonincreasing():
    rows = [
        IntensityRow(intensity=1.0, contrast_c=0.01, psi=0.5, t_overhead=10.0),
        IntensityRow(intensity=1.0, contrast_c=0.01, psi=0.5, t_overhead=10.0),
    ]
    with pytest.raises(ValidationError, match="strictly increasing"):
        IntensityTable(rows)


def eta_ratio(sample_a, table_a, sample_b, table_b, intensity):
    return (
        volume_normalized_sensitivity(sample_a, table_a, intensity).eta
        / volume_normalized_sensitivity(sample_b, table_b, intensity).eta
    )


def test_volume_normalized_identical_samples_ratio_one():
    for intensity in (1e-3, 0.05, 1.0, 10.0):
        ratio = eta_ratio(
            low_n_sample(), low_n_table(), low_n_sample(), low_n_table(), intensity
        )
        assert ratio == pytest.approx(1.0, rel=1e-12)


def test_volume_normalized_swap_inverts_ratio():
    r_ab = eta_ratio(low_n_sample(), low_n_table(), high_n_sample(), high_n_table(), 0.05)
    r_ba = eta_ratio(high_n_sample(), high_n_table(), low_n_sample(), low_n_table(), 0.05)
    assert r_ab * r_ba == pytest.approx(1.0, rel=1e-12)


def test_volume_normalized_refuses_a_negative_bias_or_an_infinite_window():
    # a negative bias rate used to lengthen T2*, and an infinite readout
    # window to give the ideal-readout limit
    args = (low_n_sample(), low_n_table(), 0.1)
    with pytest.raises(ValidationError, match="bias_rate_per_us must be finite and >= 0 1/us"):
        volume_normalized_sensitivity(*args, bias_rate_per_us=-0.01)
    with pytest.raises(ValidationError, match="readout_window_us must be finite and >= 0 us"):
        volume_normalized_sensitivity(*args, readout_window_us=math.inf)


def test_volume_normalized_hand_composed_row():
    # single synthetic row; all Eq-style factors recomposed by hand
    sample = DiamondSample(2.0, 50.0, 0.5, 0.8)
    table = IntensityTable(
        [IntensityRow(intensity=0.1, contrast_c=0.03, psi=0.8, t_overhead=6.0)]
    )
    result = volume_normalized_sensitivity(sample, table, 0.1, "sq")

    budget = spin_bath_budget(sample)
    t2 = budget.t2_star_bath
    n_eff = 0.5 * 0.8 * 0.25 * 1.76e17
    rate = PhotonModel().rate_kcps(0.1)
    n_avg = rate * 1e-3 * 6.0
    tau = result.tau
    expected = (
        (1.0 / (1 * 2.8024))
        * math.exp(tau / t2)
        / math.sqrt(n_eff * tau)
        * math.sqrt(1.0 + 1.0 / (0.03**2 * n_avg))
        * math.sqrt((tau + 6.0) / tau)
    )
    assert result.eta == pytest.approx(expected, rel=1e-12)
    assert result.t2_star == pytest.approx(t2, rel=1e-12)
    assert result.n_avg == pytest.approx(n_avg, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    high_n=st.booleans(),
    protocol=st.sampled_from(("sq", "dq")),
    log_intensity=st.floats(-3.0, 1.0),
    bias_rate=st.one_of(st.just(0.0), st.floats(-4.0, 1.0).map(lambda e: 10.0**e)),
)
def test_property_volume_normalized_tau_is_the_quadratic_root(
    high_n, protocol, log_intensity, bias_rate
):
    # p = 1 and the default domain of 5 T2*: the optimum is never on its edge
    sample, table = (high_n_sample(), high_n_table()) if high_n else (low_n_sample(), low_n_table())
    result = volume_normalized_sensitivity(
        sample, table, 10.0**log_intensity, protocol, bias_rate_per_us=bias_rate
    )
    assert result.tau <= result.t2_star
    assert result.tau == pytest.approx(
        quadratic_root(result.t2_star, result.t_overhead), rel=1e-13
    )


def test_volume_normalized_crossover_low_then_high():
    grid = np.logspace(-3, 1, 13)
    ratios = [
        eta_ratio(low_n_sample(), low_n_table(), high_n_sample(), high_n_table(), i)
        for i in grid
    ]
    assert ratios[0] < 1.0  # low-N better at low intensity
    assert ratios[-1] > 1.0  # high-N better at high intensity
    crossings = sum(
        1 for a, b in zip(ratios, ratios[1:]) if (a < 1.0) != (b < 1.0)
    )
    assert crossings == 1


def test_volume_normalized_dq_protocol_wiring():
    # DQ must combine the doubled transition order with the halved bath T2
    sample = low_n_sample()
    table = low_n_table()
    sq = volume_normalized_sensitivity(sample, table, 0.1, "sq")
    dq = volume_normalized_sensitivity(sample, table, 0.1, "dq")
    budget = spin_bath_budget(sample)
    assert sq.t2_star == pytest.approx(budget.t2_star_bath, rel=1e-12)
    assert dq.t2_star == pytest.approx(budget.t2_star_bath / 2.0, rel=1e-12)
    row = table.interpolate(0.1)
    params = SensingParams(
        delta_ms=2,
        gamma_e=2.8024,
        n_sensors=sq.n_eff_per_cm3,
        t2_star=dq.t2_star,
        contrast_c=row.contrast_c,
        n_avg=dq.n_avg,
        t_overhead=row.t_overhead,
    )
    assert dq.eta == pytest.approx(optimal_tau(params).eta, rel=1e-9)


def test_volume_normalized_explicit_photon_rates():
    sample = low_n_sample()
    rows = [
        IntensityRow(intensity=0.01, contrast_c=0.015, psi=0.2,
                     t_overhead=100.0, photon_rate_kcps=2.0),
        IntensityRow(intensity=1.0, contrast_c=0.012, psi=0.15,
                     t_overhead=20.0, photon_rate_kcps=40.0),
    ]
    table = IntensityTable(rows)
    result = volume_normalized_sensitivity(sample, table, 0.01, "sq")
    # the tabulated rate replaces the model: n_avg = 2 kcps x 100 us
    assert result.n_avg == pytest.approx(2.0 * 1e-3 * 100.0, rel=1e-12)


def test_volume_normalized_readout_window_override():
    sample = low_n_sample()
    table = low_n_table()
    default = volume_normalized_sensitivity(sample, table, 0.1, "sq")
    pinned = volume_normalized_sensitivity(
        sample, table, 0.1, "sq", readout_window_us=5.0
    )
    row = table.interpolate(0.1)
    assert default.n_avg == pytest.approx(
        PhotonModel().rate_kcps(0.1) * 1e-3 * row.t_overhead
    )
    assert pinned.n_avg == pytest.approx(PhotonModel().rate_kcps(0.1) * 1e-3 * 5.0)
    assert pinned.eta > default.eta  # shorter window collects fewer photons


def test_ratio_degenerates_to_simplified_metric():
    # same contrast and readout, psi = 1, tau pinned at T2: the full
    # expression ratio collapses to the simplified metric ratio
    cfg = MetricConfig()
    n_a, n_b = 0.8, 14.0

    def eta_at_t2(n):
        a, b = cfg.bath_coeffs.a_ns0, cfg.bath_coeffs.a_c13 * cfg.c13
        t2 = 1.0 / (a * n + b)
        params = SensingParams(
            delta_ms=1,
            gamma_e=2.8024,
            n_sensors=n,
            t2_star=t2,
            contrast_c=0.02,
            n_avg=0.5,
            t_overhead=10.0,
        )
        return ramsey_sensitivity(params, t2)

    full_ratio = eta_at_t2(n_a) / eta_at_t2(n_b)
    metric_ratio = simplified_metric(n_a, 10.0, cfg) / simplified_metric(n_b, 10.0, cfg)
    assert full_ratio == pytest.approx(metric_ratio, rel=1e-9)


def test_dq_beats_sq_under_deep_overhead():
    # strain-free sample, overhead far beyond T2: the doubled response
    # outweighs the halved dephasing time, so eta_dq < eta_sq
    sample = low_n_sample()
    budget = spin_bath_budget(sample)
    t2_sq = budget.t2_star_bath
    t2_dq = dq_t2star(budget)
    common = dict(
        gamma_e=2.8024, n_sensors=1e15, contrast_c=0.02, n_avg=1.0, p=1.0,
        t_overhead=50.0 * t2_sq,
    )
    eta_sq = optimal_tau(SensingParams(delta_ms=1, t2_star=t2_sq, **common)).eta
    eta_dq = optimal_tau(SensingParams(delta_ms=2, t2_star=t2_dq, **common)).eta
    assert eta_dq < eta_sq
    # and it approaches parity from below as overhead dominates
    assert eta_dq / eta_sq > 0.9
