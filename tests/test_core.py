
import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nvsk import core
from nvsk.core import (
    Concentration,
    DiamondSample,
    Intensity,
    PhysicalConstants,
    least_squares,
    validate_sample,
)
from nvsk.errors import ValidationError


def test_concentration_validation():
    assert Concentration(0.8).ppm == 0.8
    assert Concentration(0.0).ppm == 0.0
    with pytest.raises(ValidationError):
        Concentration(-0.1)
    with pytest.raises(ValidationError):
        Concentration(float("nan"))
    with pytest.raises(ValidationError):
        Concentration(float("inf"))


def test_intensity_validation():
    assert Intensity(0.24).mw_per_um2 == 0.24
    with pytest.raises(ValidationError):
        Intensity(-1.0)


def test_constants_gamma_e():
    assert PhysicalConstants().gamma_e == pytest.approx(2.8024)
    with pytest.raises(ValidationError):
        PhysicalConstants(gamma_e=0.0)


def test_validate_sample_accepts_paper_like_sample():
    sample = DiamondSample.from_ppm(0.8, 108.0, 0.39, 0.2)
    assert validate_sample(sample) is sample


def test_validate_sample_accepts_empty_lattice():
    sample = DiamondSample.from_ppm(0.0, 0.0, 0.0, 0.0)
    assert validate_sample(sample) is sample


def test_validate_sample_rejects_nv_exceeding_nitrogen():
    sample = DiamondSample.from_ppm(0.3, 108.0, 0.39, 0.2)
    with pytest.raises(ValidationError, match="NV exceeds nitrogen"):
        validate_sample(sample)


def test_validate_sample_rejects_bad_psi():
    sample = DiamondSample.from_ppm(0.8, 108.0, 0.39, 1.3)
    with pytest.raises(ValidationError, match="psi out of"):
        validate_sample(sample)


def test_validate_sample_idempotent():
    sample = DiamondSample.from_ppm(0.8, 108.0, 0.39, 0.2)
    assert validate_sample(validate_sample(sample)) is sample


def test_sample_orientation_bookkeeping():
    with pytest.raises(ValidationError, match="n_orientations"):
        validate_sample(DiamondSample.from_ppm(0.8, 108.0, 0.39, 0.2, 5))
    ok = DiamondSample.from_ppm(0.8, 108.0, 0.39, 0.2, 3)
    assert validate_sample(ok).n_orientations_sensing == 3


# --- the stacked least-squares solver against scipy's ---

LORENTZIAN_BOUNDS = ([-np.inf, 1e-12, 0.0, -np.inf], np.inf)  # FWHM > 0, amplitude >= 0


def _fit_problem(kind, n_bins, seed, level, wall_factor=np.inf):
    """One Lorentzian fit to a histogram over [-50, 50], started the way
    strainmap starts one (median, interquartile FWHM, amplitude matching the
    peak), here from the binned counts: (centers, counts, x0, residual
    function, Jacobian).

    kind: "cauchy" (a sample's histogram), "flat" (level counts in every bin;
    the amplitude goes to its bound), "spike" (level counts in one bin; the
    FWHM heads for its bound). The residuals turn non-finite once the FWHM
    passes wall_factor times its initial value.
    """
    rng = np.random.default_rng(seed)
    edges = np.linspace(-50.0, 50.0, n_bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    if kind == "cauchy":
        sample = rng.uniform(1.0, 10.0) * rng.standard_cauchy(100 + 50 * level)
        counts = np.histogram(sample, bins=edges)[0].astype(float)
    elif kind == "flat":
        counts = np.full(n_bins, float(level))
    else:
        counts = np.zeros(n_bins)
        counts[rng.integers(n_bins)] = float(level)
    cumulative = np.cumsum(counts) / max(counts.sum(), 1.0)
    q25, q50, q75 = (
        centers[min(np.searchsorted(cumulative, q), n_bins - 1)] for q in (0.25, 0.5, 0.75)
    )
    fwhm0 = max(q75 - q25, edges[1] - edges[0])
    x0 = np.array([q50, fwhm0, max(counts.max(), 1.0) * (fwhm0 / 2.0) ** 2, 0.0])
    wall = wall_factor * fwhm0

    def fun(x):
        f0, fwhm, amp, off = x
        r = amp / ((centers - f0) ** 2 + (fwhm / 2.0) ** 2) + off - counts
        return r if fwhm <= wall else np.full(n_bins, np.inf)

    def jac(x):
        f0, fwhm, amp, off = x
        den = (centers - f0) ** 2 + (fwhm / 2.0) ** 2
        return np.stack(
            [amp * 2.0 * (centers - f0) / den**2, -amp * (fwhm / 2.0) / den**2,
             1.0 / den, np.ones_like(centers)],
            axis=1,
        )

    return centers, counts, x0, fun, jac


def _solve_stacked(problems, max_nfev):
    """All problems, of one bin count, in one solve."""

    def fun(x, rows):
        return np.array([problems[i][3](xi) for i, xi in zip(rows, x)])

    def jac(x, rows):
        return np.array([problems[i][4](xi) for i, xi in zip(rows, x)])

    return least_squares(fun, [p[2] for p in problems], jac, LORENTZIAN_BOUNDS,
                         xtol=1e-10, ftol=1e-10, max_nfev=max_nfev)


def _scipy_fit(problem, max_nfev):
    _, _, x0, fun, jac = problem
    return scipy.optimize.least_squares(
        fun, x0, jac=jac, bounds=LORENTZIAN_BOUNDS, xtol=1e-10, ftol=1e-10, max_nfev=max_nfev
    )


def _fit_problems(n_bins):
    problem = st.builds(
        _fit_problem,
        kind=st.sampled_from(["cauchy", "flat", "spike"]),
        n_bins=st.just(n_bins),
        seed=st.integers(0, 2**32 - 1),
        level=st.integers(0, 100),
        wall_factor=st.one_of(st.just(np.inf), st.floats(1.0, 1.1)),
    )
    return st.lists(problem, min_size=1, max_size=3)


@settings(max_examples=25, deadline=None)
@given(problems=st.integers(8, 120).flatmap(_fit_problems), max_nfev=st.sampled_from([3, 400]))
@example(problems=[_fit_problem("flat", 23, 0, 5)], max_nfev=400)
@example(problems=[_fit_problem("spike", 50, 1, 100)], max_nfev=400)
@example(problems=[_fit_problem("cauchy", 38, 1, 60, wall_factor=1.05)], max_nfev=400)
@example(problems=[_fit_problem("cauchy", 60, 3, 58)], max_nfev=3)
@example(
    problems=[_fit_problem("cauchy", 38, 3, 58), _fit_problem("flat", 38, 0, 5),
              _fit_problem("cauchy", 38, 1, 60, wall_factor=1.05)],
    max_nfev=400,
)
def test_property_stacked_fit_matches_scipy(problems, max_nfev):
    result = _solve_stacked(problems, max_nfev)
    refs = [_scipy_fit(p, max_nfev) for p in problems]
    for i, ref in enumerate(refs):
        assert result.nfevs[i] == ref.nfev
        assert result.status[i] == ref.status
        np.testing.assert_allclose(result.x[i], ref.x, rtol=1e-12, atol=0)
        np.testing.assert_allclose(result.fun[i], ref.fun, rtol=1e-12, atol=0)
    assert result.nfev == sum(ref.nfev for ref in refs)


def test_drawn_cases_reach_every_branch(monkeypatch):
    """The explicit examples above take the branches scipy takes rarely."""
    seen = {"reflected": 0, "damped": 0, "non-finite": 0}
    quadratic_1d, damped = core._quadratic_1d, core._damped_steps

    def spy_quadratic_1d(*args, s0=None):
        seen["reflected"] += s0 is not None
        return quadratic_1d(*args, s0=s0)

    def spy_damped(*args):
        seen["damped"] += 1
        return damped(*args)

    monkeypatch.setattr(core, "_quadratic_1d", spy_quadratic_1d)
    monkeypatch.setattr(core, "_damped_steps", spy_damped)

    def count(problem):
        fun = problem[3]

        def counted(x):
            r = fun(x)
            seen["non-finite"] += not np.isfinite(r).all()
            return r

        return problem[:3] + (counted,) + problem[4:]

    flat = _solve_stacked([_fit_problem("flat", 23, 0, 5)], 400)
    assert seen["reflected"] > 0 and flat.x[0, 2] < 1e-9  # amplitude at its bound
    spike = _solve_stacked([_fit_problem("spike", 50, 1, 100)], 400)
    # the FWHM heads for its bound: 3 % of a 2 kHz bin when the budget ends
    assert seen["damped"] > 0 and spike.x[0, 1] < 0.06 and spike.status[0] == 0
    walled = _solve_stacked([count(_fit_problem("cauchy", 38, 1, 60, wall_factor=1.05))], 400)
    assert seen["non-finite"] > 0 and walled.status[0] > 0
    short = _solve_stacked([_fit_problem("cauchy", 60, 3, 58)], 3)
    assert short.nfevs[0] == 3 and short.status[0] == 0


def test_stacked_solver_refuses_a_start_outside_the_bounds_or_non_finite():
    problem = _fit_problem("cauchy", 40, 0, 10)
    negative_amplitude = problem[2] * [1.0, 1.0, -1.0, 1.0]
    with pytest.raises(ValueError, match="outside the bounds"):
        _solve_stacked([problem[:2] + (negative_amplitude,) + problem[3:]], 10)
    with pytest.raises(ValueError, match="not finite at the initial guess"):
        _solve_stacked([_fit_problem("cauchy", 40, 0, 10, wall_factor=0.5)], 10)
