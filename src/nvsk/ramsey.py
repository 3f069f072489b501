"""Ramsey free-induction signals: synthesis and fitting.

Signal model: a stretched-exponential decay envelope multiplying a sum of
equally weighted hyperfine-split cosine lines,

    S(tau) = baseline + amplitude * exp(-(tau/T2*)^p)
             * (1/n) * sum_j cos(2*pi*(detuning + j*a_hf)*tau + phi_j)

with the line index j centered on zero. Fitting separates the decay
envelope from the beating by fitting the full model; frequencies are seeded
from the signal spectrum and T2* from a log-envelope regression, making the
whole procedure deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import least_squares

from .errors import ComputationError, ValidationError

DEFAULT_HYPERFINE_MHZ = 2.16  # 14N triplet splitting, configurable

_MIN_PERIODS = 8.0
_MIN_SAMPLES_PER_PERIOD = 4.0


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
    phases: Optional[tuple] = None  # per-line, radians; None = all zero

    def __post_init__(self):
        if not self.t2_star > 0:
            raise ValidationError(f"t2_star must be > 0, got {self.t2_star}")
        if not 0.5 <= self.p <= 3.0:
            raise ValidationError(f"p out of [0.5, 3]: {self.p}")
        if self.n_hyperfine < 1:
            raise ValidationError(f"n_hyperfine must be >= 1, got {self.n_hyperfine}")
        if self.hyperfine_splitting < 0:
            raise ValidationError(
                f"hyperfine_splitting must be >= 0, got {self.hyperfine_splitting}"
            )
        if self.phases is not None:
            if len(self.phases) != self.n_hyperfine:
                raise ValidationError(
                    f"expected {self.n_hyperfine} phases, got {len(self.phases)}"
                )
            object.__setattr__(self, "phases", tuple(float(x) for x in self.phases))

    def line_frequencies(self) -> np.ndarray:
        j = np.arange(self.n_hyperfine) - (self.n_hyperfine - 1) / 2.0
        return self.detuning + j * self.hyperfine_splitting

    def envelope(self, tau) -> np.ndarray:
        tau = np.asarray(tau, dtype=float)
        return np.exp(-((tau / self.t2_star) ** self.p))

    def evaluate(self, tau) -> np.ndarray:
        tau = np.asarray(tau, dtype=float)
        freqs = self.line_frequencies()
        phases = np.zeros(self.n_hyperfine) if self.phases is None else np.asarray(self.phases)
        osc = np.cos(2.0 * np.pi * np.outer(tau, freqs) + phases).mean(axis=1)
        return self.baseline + self.amplitude * self.envelope(tau) * osc


def synthesize(
    model: RamseyModel,
    tau,
    noise_sigma: float = 0.0,
    seed: Optional[int] = None,
) -> np.ndarray:
    """Evaluate the model on a grid, optionally adding Gaussian noise."""
    tau = np.asarray(tau, dtype=float)
    if tau.ndim != 1 or len(tau) < 2:
        raise ValidationError("tau grid must be a 1-D array with >= 2 points")
    if np.any(tau <= 0) or np.any(np.diff(tau) <= 0):
        raise ValidationError("tau grid must be positive and increasing")
    signal = model.evaluate(tau)
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        signal = signal + rng.normal(0.0, noise_sigma, size=tau.shape)
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


def _frequency_hypotheses(peaks):
    """Candidate (detuning, splitting) seeds from observed spectral peaks.

    Lines live at |detuning + j*a|, so for a triplet with detuning < a/2 the
    lowest peak is the detuning itself and the outer pair straddles the
    splitting; for detuning > a/2 the peaks are equally spaced. Both
    readings are tried and the cheapest fit wins. A single peak is paired
    with the 14N splitting.
    """
    if peaks.size >= 3:
        folded = (float(peaks[0]), float(0.5 * (peaks[1] + peaks[2])))
        spaced = (float(np.mean(peaks)), float(np.mean(np.diff(peaks))))
        return [folded, spaced]
    if peaks.size == 2:
        return [
            (float(np.mean(peaks)), float(peaks[1] - peaks[0])),
            (float(peaks[0]), float(peaks[1])),
        ]
    if peaks.size == 1:
        return [(float(peaks[0]), DEFAULT_HYPERFINE_MHZ)]
    return []


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


def fit(tau, signal, n_hyperfine: int = 3) -> RamseyFitResult:
    """Least-squares fit of the free-induction model to a signal.

    Deterministic initialization (spectral peak picking for frequencies,
    log-envelope regression for T2*), then trust-region least squares over
    (baseline, amplitude, T2*, p, detuning, splitting) with phases fixed at
    zero. Uncertainties come from the local curvature at the optimum.
    """
    tau = np.asarray(tau, dtype=float)
    signal = np.asarray(signal, dtype=float)
    if tau.shape != signal.shape or tau.ndim != 1:
        raise ValidationError("tau and signal must be matching 1-D arrays")
    if len(tau) < 16:
        raise ValidationError("too few samples to fit")

    baseline0 = float(np.mean(signal))
    resid0 = signal - baseline0
    peaks = _spectral_peaks(tau, resid0, n_hyperfine)
    if peaks.size == 0:
        raise ValidationError("no oscillation found in signal spectrum")
    hypotheses = _frequency_hypotheses(peaks)
    amp0, t2_0 = _envelope_seed(tau, resid0)

    # sampling sanity against the fastest plausible line
    f_fast = max(
        abs(d) + (n_hyperfine - 1) / 2.0 * a for d, a in hypotheses
    )
    span = tau[-1] - tau[0]
    dt = float(np.median(np.diff(tau)))
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

    j = np.arange(n_hyperfine) - (n_hyperfine - 1) / 2.0

    def model(x):
        base, amp, t2, p, det, split = x
        osc = np.cos(2.0 * np.pi * np.outer(tau, det + j * split)).mean(axis=1)
        return base + amp * np.exp(-((tau / t2) ** p)) * osc

    lower = [-np.inf, 0.0, 1e-3, 0.5, 0.0, 0.0]
    upper = [np.inf, np.inf, 1e7, 3.0, np.inf, np.inf]
    best = None
    nfev = 0
    for det0, a0 in hypotheses:
        x0 = [baseline0, amp0, t2_0, 1.0, max(det0, 1e-6), max(a0, 1e-6)]
        result = least_squares(
            lambda x: model(x) - signal,
            x0,
            bounds=(lower, upper),
            xtol=1e-12,
            ftol=1e-12,
            gtol=1e-12,
            max_nfev=200 * (len(x0) + 1),
        )
        nfev += result.nfev
        if best is None or result.cost < best.cost:
            best = result
    if best is None or not np.all(np.isfinite(best.x)):
        raise ComputationError(f"fit did not converge after {nfev} evaluations")

    base, amp, t2, p, det, split = best.x
    dof = max(1, len(signal) - 6)
    s2 = 2.0 * best.cost / dof
    jtj = best.jac.T @ best.jac
    cov = s2 * np.linalg.pinv(jtj)
    sigmas = np.sqrt(np.clip(np.diag(cov), 0.0, np.inf))
    freqs = det + j * split
    residual = model(best.x) - signal
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
        envelope_samples=np.exp(-((tau / t2) ** p)),
        n_evaluations=nfev,
    )
