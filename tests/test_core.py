
import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nvsk import core
from nvsk.core import (
    DiamondSample,
    PhysicalConstants,
    capped_count,
    finite,
    in_range,
    least_squares,
    non_negative,
    positive,
)
from nvsk.errors import ValidationError
from nvsk.photophysics import saturation_parameter
from nvsk.sensitivity import PhotonModel


def test_concentration_validation():
    sample = DiamondSample(0.8, 108.0, 0.39, 0.2)
    assert (sample.ns0_as_grown, sample.c13, sample.nv_total) == (0.8, 108.0, 0.39)
    assert DiamondSample(0.8, 0.0, 0.0, 0.2).c13 == 0.0
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="c13 must be finite and >= 0 ppm, got"):
            DiamondSample(0.8, bad, 0.39, 0.2)
    with pytest.raises(ValidationError, match="ns0_as_grown must be finite and >= 0 ppm"):
        DiamondSample(-1.0, 108.0, 0.0, 0.2)


def test_intensity_validation():
    # the intensity boundaries that took a core.Intensity
    assert saturation_parameter(0.24, 2.0) == 0.12
    message = r"^intensity must be finite and >= 0 mW/um\^2, got -1.0$"
    for refuse in (lambda: saturation_parameter(-1.0, 2.0), lambda: PhotonModel().rate_kcps(-1.0)):
        with pytest.raises(ValidationError, match=message):
            refuse()


def test_constants_gamma_e():
    assert PhysicalConstants().gamma_e == pytest.approx(2.8024)
    for bad in (0.0, float("inf")):
        with pytest.raises(ValidationError, match="gamma_e must be finite and > 0 MHz/G"):
            PhysicalConstants(gamma_e=bad)


def test_validate_sample_accepts_paper_like_sample():
    sample = DiamondSample(0.8, 108.0, 0.39, 0.2)
    assert (sample.charge_fraction_psi, sample.n_orientations_sensing) == (0.2, 1)


def test_validate_sample_accepts_empty_lattice():
    assert DiamondSample(0.0, 0.0, 0.0, 0.0).nv_total == 0.0


def test_validate_sample_rejects_nv_exceeding_nitrogen():
    with pytest.raises(ValidationError, match="NV exceeds nitrogen"):
        DiamondSample(0.3, 108.0, 0.39, 0.2)


def test_validate_sample_rejects_bad_psi():
    for bad in (1.3, -0.1, float("nan")):
        with pytest.raises(ValidationError, match=r"psi must be in \[0, 1\], got"):
            DiamondSample(0.8, 108.0, 0.39, bad)


def test_sample_orientation_bookkeeping():
    message = r"^n_orientations_sensing must be in \[1, 4\], got 5$"
    with pytest.raises(ValidationError, match=message):
        DiamondSample(0.8, 108.0, 0.39, 0.2, 5)
    assert DiamondSample(0.8, 108.0, 0.39, 0.2, 3).n_orientations_sensing == 3


def test_validators_return_a_float_and_name_quantity_and_unit():
    for check in (finite, positive, non_negative, in_range(0, 2)):
        value = check("x", np.float64(1.5))
        assert value == 1.5 and type(value) is float
    assert capped_count("grid", 4, 4, "points") == 4.0
    refusals = [
        (lambda: finite("detuning", float("nan")), "detuning must be finite, got nan"),
        (lambda: positive("t_end", 0, "us"), "t_end must be finite and > 0 us, got 0"),
        (lambda: positive("tau", np.float64("inf")), "tau must be finite and > 0, got inf"),
        (lambda: non_negative("t_overhead", float("inf"), "us"),
         "t_overhead must be finite and >= 0 us, got inf"),
        (lambda: in_range(0.0, 1.0)("psi", 1.5), "psi must be in [0, 1], got 1.5"),
        (lambda: in_range(0.5, 3)("p", 4, "us"), "p must be in [0.5, 3] us, got 4"),
        (lambda: capped_count("grid", 5.5, 5, "points"),
         "grid must be at most 5 points, got 6"),
        (lambda: capped_count("grid", 1e300 / 1e-300, 5, "points", "use fewer"),
         "grid must be at most 5 points, got inf; use fewer"),
    ]
    for refuse, message in refusals:
        with pytest.raises(ValidationError) as caught:
            refuse()
        assert str(caught.value) == message


def test_validators_take_an_int_beyond_the_float_range():
    huge = 10**400
    with pytest.raises(ValidationError, match=r"^x must be finite and > 0, got 1000"):
        positive("x", huge)
    with pytest.raises(ValidationError, match="got -1000"):
        non_negative("x", -huge)
    with pytest.raises(ValidationError, match="got inf$"):
        capped_count("grid", huge, 5, "points")


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
