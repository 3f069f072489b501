import dataclasses
import math

import numpy as np
import pytest

from nvsk.core import DiamondSample
from nvsk.dephasing import (
    BathCoefficients,
    DephasingBudget,
    dq_rate,
    dq_t2star,
    nitrogen_bookkeeping,
    spin_bath_budget,
    spin_bath_rates,
    strain_rate_from_fwhm,
    t2_strain_from_fwhm,
)
from nvsk.errors import ValidationError


def test_default_coefficients():
    c = BathCoefficients()
    assert c.a_ns0 == 0.101
    assert c.a_c13 == pytest.approx(1.0e-4)
    assert c.a_nv_par == 0.247
    assert c.a_nv_nonpar == 0.165
    assert (c.zeta_par, c.zeta_nonpar) == (0.0, 0.5)


def test_bath_budget_at_direct_post_treatment_nitrogen():
    # ns0 already post-treatment; NV- = 0.39 * 0.2
    budget = spin_bath_rates(0.35, 108.0, 0.078)
    assert budget.t2_star_bath == pytest.approx(19.617, abs=0.01)


def test_bath_budget_from_sample_bookkeeping():
    sample = DiamondSample(0.8, 108.0, 0.39, 0.2)
    budget = spin_bath_budget(sample)
    # post-treatment nitrogen 0.332 ppm
    assert budget.rate_ns0 == pytest.approx(0.101 * 0.332, rel=1e-12)
    assert 19.0 <= budget.t2_star_bath <= 21.0


def test_bath_budget_empty_lattice_unbounded():
    budget = spin_bath_rates(0.0, 0.0, 0.0)
    assert budget.bath_rate == 0.0
    assert budget.t2_star_bath is None
    assert budget.t2_star_total is None


def test_bath_budget_c13_only():
    budget = spin_bath_rates(0.0, 108.0, 0.0)
    assert budget.rate_c13 == pytest.approx(0.0108, rel=1e-12)
    assert budget.t2_star_bath == pytest.approx(92.59, abs=0.01)


def test_bath_monotone_in_concentrations():
    rng = np.random.default_rng(11)
    for _ in range(50):
        ns0, c13, nvm = rng.uniform(0.0, 20.0, 3)
        base = spin_bath_rates(ns0, c13, nvm).t2_star_bath or math.inf
        for bumped in (
            spin_bath_rates(ns0 + 0.5, c13, nvm),
            spin_bath_rates(ns0, c13 + 50.0, nvm),
            spin_bath_rates(ns0, c13, nvm + 0.5),
        ):
            assert (bumped.t2_star_bath or math.inf) <= base


def test_bath_rate_linear_in_each_concentration():
    one = spin_bath_rates(1.5, 100.0, 0.3)
    doubled = spin_bath_rates(3.0, 100.0, 0.3)
    assert doubled.rate_ns0 == pytest.approx(2.0 * one.rate_ns0, rel=1e-14)
    assert doubled.rate_c13 == one.rate_c13
    assert doubled.rate_nv_nv == one.rate_nv_nv


def test_nitrogen_bookkeeping_paper_numbers():
    assert nitrogen_bookkeeping(0.8, 0.39, 0.2) == pytest.approx(0.332, rel=1e-12)
    assert nitrogen_bookkeeping(0.8, 0.0, 0.7) == pytest.approx(0.8)
    assert nitrogen_bookkeeping(0.8, 0.39, 1.0) == pytest.approx(0.02, rel=1e-9)


def test_nitrogen_bookkeeping_overconsumption():
    with pytest.raises(ValidationError, match="over-consumed"):
        nitrogen_bookkeeping(0.5, 0.39, 1.0)


def test_nitrogen_bookkeeping_conserves_atoms():
    rng = np.random.default_rng(5)
    for _ in range(100):
        ns0 = rng.uniform(0.5, 30.0)
        psi = rng.uniform(0.0, 1.0)
        nv = rng.uniform(0.0, ns0 / (1.0 + psi))
        post = nitrogen_bookkeeping(ns0, nv, psi)
        assert post + nv * (1.0 + psi) == pytest.approx(ns0, rel=1e-12)


def test_strain_conversion_paper_anchors():
    assert t2_strain_from_fwhm(31.0) == pytest.approx(10.27, abs=0.01)
    assert t2_strain_from_fwhm(15.0) == pytest.approx(21.22, abs=0.01)
    assert strain_rate_from_fwhm(0.0) == 0.0
    assert t2_strain_from_fwhm(0.0) is None


def test_combine_equal_pair():
    budget = DephasingBudget(rate_ns0=1.0 / 20.0, rate_strain=1.0 / 20.0)
    assert budget.t2_star_total == pytest.approx(10.0, rel=1e-12)


def test_combine_bath_plus_confocal_strain():
    # bath-limited 19.6 us plus weak confocal-scale strain (~1.5 kHz FWHM)
    bath = spin_bath_rates(0.35, 108.0, 0.078)
    total = dataclasses.replace(bath, rate_strain=strain_rate_from_fwhm(1.5))
    assert total.t2_star_total == pytest.approx(17.96, abs=0.05)
    # consistent with a measured 17.5 +- 1.0 us
    assert 16.5 <= total.t2_star_total <= 18.5


def test_combine_single_contribution_passthrough():
    budget = DephasingBudget(rate_strain=0.04)
    assert budget.t2_star_total == pytest.approx(25.0, rel=1e-12)


def test_combine_commutative_in_rates():
    a = DephasingBudget(rate_ns0=0.01, rate_c13=0.02, rate_strain=0.03)
    b = DephasingBudget(rate_ns0=0.03, rate_c13=0.01, rate_strain=0.02)
    assert a.total_rate == pytest.approx(b.total_rate, rel=1e-14)


def test_combine_rejects_negative_rate():
    with pytest.raises(ValidationError):
        DephasingBudget(rate_ns0=-0.01)


def test_harmonic_bound():
    budget = DephasingBudget(rate_ns0=0.05, rate_c13=0.011, rate_strain=0.004)
    terms = [budget.term_t2(n) for n in ("ns0", "c13", "strain")]
    assert budget.t2_star_total <= min(t for t in terms if t is not None)


def test_dq_from_bath_limited_budget():
    budget = DephasingBudget(rate_ns0=1.0 / 17.5)
    assert dq_t2star(budget) == pytest.approx(8.75, rel=1e-12)
    # measured DQ value 8.6(5) us sits inside a 5% band around the model
    assert abs(dq_t2star(budget) - 8.6) <= 0.05 * 8.75 + 0.5


def test_dq_ignores_strain_and_bias():
    bath_only = DephasingBudget(rate_ns0=0.03, rate_c13=0.01)
    with_strain = DephasingBudget(
        rate_ns0=0.03, rate_c13=0.01, rate_strain=0.7, rate_bias=0.2
    )
    assert dq_rate(with_strain) == pytest.approx(2.0 * bath_only.bath_rate, rel=1e-14)
    assert dq_t2star(with_strain) == dq_t2star(bath_only)


def test_dq_unbounded_for_empty_bath():
    assert dq_t2star(DephasingBudget(rate_strain=0.5)) is None


def test_budget_dict_serialization():
    d = spin_bath_rates(0.35, 108.0, 0.078).as_dict()
    assert d["rate_ns0_per_us"] == pytest.approx(0.101 * 0.35)
    assert d["t2_strain_us"] is None
    assert d["t2_star_total_us"] == pytest.approx(19.617, abs=0.01)
