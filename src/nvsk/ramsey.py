"""Ramsey free-induction signals: synthesis and fitting.

Signal model: a stretched-exponential decay envelope multiplying a sum of
equally weighted hyperfine-split cosine lines,

    S(tau) = baseline + amplitude * exp(-(tau/T2*)^p)
             * (1/n) * sum_j cos(2*pi*(detuning + j*a_hf)*tau)

with the line index j centered on zero. Fitting is one core.least_squares
solve of the full model with its closed-form Jacobian, from T2* by
log-envelope regression and from the reading of the spectrum's (detuning,
splitting) that variable projection scores best; deterministic, and numpy
alone: scipy's least_squares is only the tests' oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import MAX_TRACE_SAMPLES, capped_count, finite, in_range, least_squares, non_negative
from .errors import ValidationError

DEFAULT_HYPERFINE_MHZ = 2.16  # 14N triplet splitting, configurable

_MIN_PERIODS = 8.0
_MIN_SAMPLES_PER_PERIOD = 4.0
_MAX_LINES = 8  # most lines `fit` takes: 4n(n-1) readings of n cosines per sample
# fit bounds on (baseline, amplitude, T2* in us, p, detuning, splitting)
_LOWER = np.array([-np.inf, 0.0, 1e-3, 0.5, 0.0, 0.0])
_UPPER = np.array([np.inf, np.inf, 1e7, 3.0, np.inf, np.inf])


@dataclass(frozen=True)
class RamseyModel:
    """Parameters of the synthetic free-induction signal."""

    t2_star: float
    detuning: float
    amplitude: float
    baseline: float = 0.0
    p: float = 1.0
    hyperfine_splitting: float = DEFAULT_HYPERFINE_MHZ
    n_hyperfine: int = 3

    def __post_init__(self):
        if not self.t2_star > 0:  # inf: no decay
            raise ValidationError(f"t2_star must be > 0 us, got {self.t2_star!r}")
        in_range(0.5, 3.0)("p", self.p)
        if self.n_hyperfine < 1:
            raise ValidationError(f"n_hyperfine must be >= 1, got {self.n_hyperfine}")
        for name in ("detuning", "amplitude", "baseline"):
            finite(name, getattr(self, name))
        non_negative("hyperfine_splitting", self.hyperfine_splitting, "MHz")

    def line_frequencies(self) -> np.ndarray:
        j = np.arange(self.n_hyperfine) - (self.n_hyperfine - 1) / 2.0
        return self.detuning + j * self.hyperfine_splitting

    def envelope(self, tau) -> np.ndarray:
        tau = np.asarray(tau, dtype=float)
        return np.exp(-((tau / self.t2_star) ** self.p))

    def evaluate(self, tau) -> np.ndarray:
        tau = np.asarray(tau, dtype=float)
        freqs = self.line_frequencies()
        osc = np.cos(2.0 * np.pi * np.outer(tau, freqs)).mean(axis=1)
        return self.baseline + self.amplitude * self.envelope(tau) * osc


def synthesize(
    model: RamseyModel,
    tau,
    noise_sigma: float = 0.0,
    seed: Optional[int] = None,
) -> np.ndarray:
    """Evaluate the model on a grid, optionally adding Gaussian noise.

    A grid whose samples times lines pass MAX_TRACE_SAMPLES, the size of
    the phase matrix the model builds, is refused, and so is a signal that
    is not all finite."""
    tau = np.asarray(tau, dtype=float)
    if tau.ndim != 1 or len(tau) < 2:
        raise ValidationError("tau grid must be a 1-D array with >= 2 points")
    if np.any(tau <= 0) or np.any(np.diff(tau) <= 0):
        raise ValidationError("tau grid must be positive and increasing")
    non_negative("noise_sigma", noise_sigma)
    capped_count(
        f"synthetic signal ({len(tau):,} samples x {model.n_hyperfine:,} lines)",
        len(tau) * model.n_hyperfine, MAX_TRACE_SAMPLES, "values",
    )
    with np.errstate(over="ignore", invalid="ignore"):
        signal = model.evaluate(tau)
        if noise_sigma > 0:
            rng = np.random.default_rng(seed)
            signal = signal + rng.normal(0.0, noise_sigma, size=tau.shape)
    if not np.isfinite(signal).all():
        raise ValidationError(
            f"synthetic signal is not all finite at detuning {model.detuning:g} MHz, "
            f"amplitude {model.amplitude:g} and noise sigma {noise_sigma:g}"
        )
    return signal


@dataclass(frozen=True)
class RamseyFitResult:
    t2_star: float
    t2_star_sigma: float
    p: float
    p_sigma: float
    detuning: float
    hyperfine_splitting: float
    frequencies: tuple
    amplitude: float
    baseline: float
    residual_rms: float
    envelope_samples: np.ndarray
    n_evaluations: int

    def as_dict(self) -> dict:
        return {
            "t2_star_us": self.t2_star,
            "t2_star_sigma_us": self.t2_star_sigma,
            "p": self.p,
            "p_sigma": self.p_sigma,
            "detuning_mhz": self.detuning,
            "hyperfine_splitting_mhz": self.hyperfine_splitting,
            "line_frequencies_mhz": list(self.frequencies),
            "amplitude": self.amplitude,
            "baseline": self.baseline,
            "residual_rms": self.residual_rms,
        }


def _spectral_peaks(tau, resid, n_lines):
    """Strongest spectral peaks (MHz), for frequency seeding."""
    n = len(tau)
    dt = float(np.median(np.diff(tau)))
    nfft = 8 * n
    mag = np.abs(np.fft.rfft(resid * np.hanning(n), nfft))
    freqs = np.fft.rfftfreq(nfft, dt)
    interior = slice(1, len(mag) - 1)
    is_peak = (
        (mag[1:-1] > mag[:-2])
        & (mag[1:-1] > mag[2:])
        & (mag[1:-1] > 0.15 * mag.max())
    )
    peak_f = freqs[interior][is_peak]
    peak_m = mag[interior][is_peak]
    if peak_f.size == 0:
        return np.array([])
    order = np.argsort(peak_m)[::-1][:n_lines]
    return np.sort(peak_f[order])


def _readings(peaks, j):
    """Every (detuning, splitting) >= 0 that puts the two peaks on two lines
    |detuning + j*splitting|; a single peak is the detuning, with the 14N splitting."""
    if peaks.size == 1:
        return [(float(peaks[0]), DEFAULT_HYPERFINE_MHZ)]
    readings = []
    for j1, j2 in itertools.permutations(j, 2):
        for f1, f2 in itertools.product((peaks[0], -peaks[0]), (peaks[1], -peaks[1])):
            split = (f2 - f1) / (j2 - j1)
            det = f1 - j1 * split
            if det >= 0 and split >= 0:
                readings.append((float(det), float(split)))
    return readings


def _reading_cost(tau, signal, j, t2, reading):
    """Squared residual of the reading at T2* = t2 and p = 1, with the
    baseline and amplitude solved linearly (variable projection)."""
    _, osc, _, envelope = _model_terms(tau, j, (0.0, 0.0, t2, 1.0, *reading))
    basis = np.column_stack([np.ones_like(tau), envelope * osc])
    coef = np.linalg.lstsq(basis, signal, rcond=None)[0]
    return float(np.sum((basis @ coef - signal) ** 2))


def _envelope_seed(tau, resid):
    """Rough (amplitude, T2*) from block maxima of |signal - baseline|."""
    n = len(tau)
    edges = np.linspace(0, n, 17).astype(int)
    centers, ext = [], []
    for a, b in zip(edges, edges[1:]):
        if b - a < 3:
            continue
        centers.append(float(tau[a:b].mean()))
        ext.append(float(np.abs(resid[a:b]).max()))
    centers = np.array(centers)
    ext = np.array(ext)
    amp0 = float(ext.max()) if ext.size else float(np.abs(resid).max())
    t2_0 = float(tau[-1] / 2.0)
    good = ext > 0.05 * amp0
    if good.sum() >= 2:
        slope, _ = np.polyfit(centers[good], np.log(ext[good]), 1)
        if slope < 0:
            t2_0 = float(np.clip(-1.0 / slope, tau[1], 100.0 * tau[-1]))
    return amp0, t2_0


def _model_terms(tau, j, x):
    """The parts of the fitted model that its Jacobian reuses, at
    x = (baseline, amplitude, T2*, p, detuning, splitting): the phase matrix
    2*pi*outer(tau, detuning + j*splitting), the mean of its cosines over the
    lines, (tau/T2*)^p and the envelope exp(-(tau/T2*)^p)."""
    _, _, t2, p, det, split = x
    phase = 2.0 * np.pi * np.outer(tau, det + j * split)
    stretched = (tau / t2) ** p
    return phase, np.cos(phase).mean(axis=1), stretched, np.exp(-stretched)


def _model(x, terms):
    """The fitted model at x, from `_model_terms(tau, j, x)`."""
    base, amp = x[0], x[1]
    _, osc, _, envelope = terms
    return base + amp * envelope * osc


def _jacobian(tau, j, x, terms):
    """Closed-form d model / d x, one column per parameter of x, from
    `_model_terms(tau, j, x)`."""
    _, amp, t2, p, _, _ = x
    phase, osc, stretched, envelope = terms
    sin = np.sin(phase)
    r = tau / t2
    # the p column is the limit of r^p ln r, 0, at tau = 0
    log_r = np.log(r, out=np.zeros_like(r), where=r > 0)
    decay = amp * envelope * osc
    beat = -2.0 * np.pi * tau * amp * envelope
    jac = np.empty((len(tau), 6))
    jac[:, 0] = 1.0
    jac[:, 1] = envelope * osc
    jac[:, 2] = decay * p * stretched / t2
    jac[:, 3] = -decay * stretched * log_r
    jac[:, 4] = beat * sin.mean(axis=1)
    jac[:, 5] = beat * (sin * j).mean(axis=1)
    return jac


def fit(tau, signal, n_hyperfine: int = 3) -> RamseyFitResult:
    """Least-squares fit of the free-induction model to a signal.

    Deterministic initialization (the best-scoring reading of the two
    strongest spectral peaks for the frequencies, log-envelope regression
    for T2*), then one trust-region least-squares solve over (baseline,
    amplitude, T2*, p, detuning, splitting) with the model's closed-form
    Jacobian; one line does not depend on the splitting, which then keeps
    its seed. Uncertainties come from the local curvature at the optimum.
    `n_evaluations` counts the residual evaluations of that one solve;
    Jacobian evaluations are not counted.

    tau must be finite, >= 0 and non-decreasing with a positive median
    step (a first delay of 0 and some repeated delays are accepted); the
    signal must be finite; n_hyperfine must lie in [1, 8]. The T2* seed
    must lie within the fit's bounds, [1e-3, 1e7] us.
    """
    in_range(1, _MAX_LINES)("n_hyperfine", n_hyperfine)
    tau = np.asarray(tau, dtype=float)
    signal = np.asarray(signal, dtype=float)
    if tau.shape != signal.shape or tau.ndim != 1:
        raise ValidationError("tau and signal must be matching 1-D arrays")
    if len(tau) < 16:
        raise ValidationError("too few samples to fit")
    if not np.all(np.isfinite(tau)):
        raise ValidationError("tau must be finite")
    if not np.all(np.isfinite(signal)):
        raise ValidationError("signal must be finite")
    steps = np.diff(tau)
    if tau[0] < 0 or np.any(steps < 0):
        raise ValidationError("tau must be >= 0 and non-decreasing")
    dt = float(np.median(steps))  # the spectrum's sampling step
    if not dt > 0:
        raise ValidationError("tau repeats too often: its median step is 0")

    baseline0 = float(np.mean(signal))
    resid0 = signal - baseline0
    peaks = _spectral_peaks(tau, resid0, min(n_hyperfine, 2))
    if peaks.size == 0:
        raise ValidationError("no oscillation found in signal spectrum")
    amp0, t2_0 = _envelope_seed(tau, resid0)
    j = np.arange(n_hyperfine) - (n_hyperfine - 1) / 2.0
    det0, a0 = min(_readings(peaks, j), key=lambda r: _reading_cost(tau, signal, j, t2_0, r))

    # sampling sanity against the fastest line of the chosen reading
    f_fast = det0 + (n_hyperfine - 1) / 2.0 * a0
    span = tau[-1] - tau[0]
    if f_fast > 0 and span * f_fast < _MIN_PERIODS:
        raise ValidationError(
            f"under-sampled input: {span * f_fast:.1f} periods of the fastest "
            f"line covered, need >= {_MIN_PERIODS:g}"
        )
    if f_fast > 0 and dt * f_fast > 1.0 / _MIN_SAMPLES_PER_PERIOD:
        raise ValidationError(
            "under-sampled input: fewer than "
            f"{_MIN_SAMPLES_PER_PERIOD:g} samples per period of the fastest line"
        )

    if not _LOWER[2] <= t2_0 <= _UPPER[2]:
        raise ValidationError(
            f"T2* seed {t2_0:.3g} us lies outside the fit's bounds "
            f"[{_LOWER[2]:g}, {_UPPER[2]:g}] us: tau must be in microseconds"
        )
    x0 = np.array([baseline0, amp0, t2_0, 1.0, max(det0, 1e-6), max(a0, 1e-6)])
    # one line does not depend on the splitting, whose zero Jacobian column
    # would stall the solve: it is left out and keeps its seed
    n = 6 if n_hyperfine > 1 else 5

    # the solver asks for the Jacobian at the x whose residual it has just
    # evaluated, so the terms of that evaluation are kept and reused
    last = [None, None]  # x and the model terms at x

    def terms(free):
        x = np.concatenate([free[0], x0[n:]])
        if not np.array_equal(x, last[0]):
            last[:] = x, _model_terms(tau, j, x)
        return last

    def residuals(free, rows):
        return (_model(*terms(free)) - signal)[None]

    def jacobian(free, rows):
        return _jacobian(tau, j, *terms(free))[None, :, :n]

    best = least_squares(residuals, x0[None, :n], jacobian, (_LOWER[:n], _UPPER[:n]),
                         xtol=1e-12, ftol=1e-12, gtol=1e-12, max_nfev=200 * (n + 1))
    x, best_terms = terms(best.x)
    base, amp, t2, p, det, split = x
    residual = best.fun[0]
    dof = max(1, len(signal) - n)
    s2 = np.dot(residual, residual) / dof
    jac = jacobian(best.x, None)[0]
    cov = s2 * np.linalg.pinv(jac.T @ jac)
    sigmas = np.sqrt(np.clip(np.diag(cov), 0.0, np.inf))
    freqs = det + j * split
    return RamseyFitResult(
        t2_star=float(t2),
        t2_star_sigma=float(sigmas[2]),
        p=float(p),
        p_sigma=float(sigmas[3]),
        detuning=float(det),
        hyperfine_splitting=float(split),
        frequencies=tuple(float(f) for f in freqs),
        amplitude=float(amp),
        baseline=float(base),
        residual_rms=float(np.sqrt(np.mean(residual**2))),
        envelope_samples=best_terms[3],
        n_evaluations=best.nfev,
    )
