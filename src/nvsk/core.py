"""Shared value types, unit conventions and the stacked least-squares solver.

Internal unit system: time in microseconds, frequency in MHz, rates in 1/us,
concentrations in ppm of carbon sites, optical intensity in mW/um^2.
File interfaces carry explicit unit strings so nothing crosses a boundary
with an implied unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import ValidationError

# Carbon-site number density of diamond: 1 ppm of sites = 1.76e17 cm^-3.
PPM_TO_PER_CM3 = 1.76e17

# Electron gyromagnetic ratio over 2*pi, in MHz/G. Configurable everywhere it
# is used.
GAMMA_E_MHZ_PER_G = 2.8024

# Largest time grid a full-resolution trace (evolve, contrast_trace, the
# ramsey synth command) materializes.
MAX_TRACE_SAMPLES = 5_000_000


# --- validators ---
#
# Each checks one scalar at a boundary, returns it as a float, and refuses
# it with one message form, "<name> must be <rule>, got <value>", whose
# rule carries the unit.


def _number(value) -> float:
    """value as a float; an int past the float range becomes +-inf."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _refusal(name: str, rule: str, value) -> ValidationError:
    shown = value if type(value) is int else _number(value)
    return ValidationError(f"{name} must be {rule}, got {shown!r}")


def _with_unit(rule: str, unit: str) -> str:
    return f"{rule} {unit}" if unit else rule


def finite(name: str, value) -> float:
    v = _number(value)
    if not math.isfinite(v):
        raise _refusal(name, "finite", value)
    return v


def positive(name: str, value, unit: str = "") -> float:
    v = _number(value)
    if not 0.0 < v < math.inf:
        raise _refusal(name, _with_unit("finite and > 0", unit), value)
    return v


def non_negative(name: str, value, unit: str = "") -> float:
    v = _number(value)
    if not 0.0 <= v < math.inf:
        raise _refusal(name, _with_unit("finite and >= 0", unit), value)
    return v


def in_range(lo: float, hi: float):
    """Validator of the closed interval [lo, hi]."""

    def check(name: str, value, unit: str = "") -> float:
        v = _number(value)
        if not lo <= v <= hi:
            raise _refusal(name, _with_unit(f"in [{lo:g}, {hi:g}]", unit), value)
        return v

    return check


def capped_count(name: str, count, limit: int, unit: str, hint: str = "") -> float:
    """A count of at most limit. It is taken as a float, so a caller can
    pass a ratio such as span / step + 1 unrounded, and no ratio or
    product overflows before it is compared. A refused count from 1e15 up
    is shown in :g form, since its digits past 2**53 are not exact."""
    n = _number(count)
    if not n <= limit:
        shown = f"{n:,.0f}" if n < 1e15 else f"{n:g}"
        message = f"{name} must be at most {limit:,} {unit}, got {shown}"
        raise ValidationError(f"{message}; {hint}" if hint else message)
    return n


@dataclass(frozen=True)
class PhysicalConstants:
    """Numerical constants.

    gamma_e is the electron gyromagnetic ratio over 2pi in MHz/G (the
    2.8024 literature number); the sensitivity's G*sqrt(us*cm^3) unit
    assumes that convention, and there is no other.
    """

    gamma_e: float = GAMMA_E_MHZ_PER_G

    def __post_init__(self):
        object.__setattr__(self, "gamma_e", positive("gamma_e", self.gamma_e, "MHz/G"))


@dataclass(frozen=True)
class DiamondSample:
    """Material description of one NV-diamond sensor, concentrations in ppm.

    ns0_as_grown is the substitutional nitrogen content before irradiation
    and annealing; nv_total the total NV content after treatment, at most
    ns0_as_grown; charge_fraction_psi the NV- share of all NVs, in [0, 1].
    n_orientations_sensing counts how many of the four NV axes contribute
    signal (usually 1).
    """

    ns0_as_grown: float
    c13: float
    nv_total: float
    charge_fraction_psi: float
    n_orientations_sensing: int = 1

    def __post_init__(self):
        for name in ("ns0_as_grown", "c13", "nv_total"):
            object.__setattr__(self, name, non_negative(name, getattr(self, name), "ppm"))
        psi = in_range(0.0, 1.0)("psi", self.charge_fraction_psi)
        object.__setattr__(self, "charge_fraction_psi", psi)
        in_range(1, 4)("n_orientations_sensing", self.n_orientations_sensing)
        if self.nv_total > self.ns0_as_grown:
            raise ValidationError(
                "NV exceeds nitrogen: nv_total "
                f"{self.nv_total} ppm > ns0_as_grown {self.ns0_as_grown} ppm"
            )


# --- stacked trust-region least squares ---
#
# least_squares below is a numpy port of scipy.optimize.least_squares'
# 'trf' method with the 'exact' trust-region solver, x_scale=1 and linear
# loss (scipy/optimize/_lsq/trf.py, trf_bounds, and its helpers in
# common.py), run on many problems at once. Each helper does for every
# row what its scipy namesake does for one problem, in the same order of
# floating-point operations: row dot products go through matmul, which
# makes the same BLAS call per row as np.dot, and the SVD is LAPACK's
# gesdd as in scipy.linalg.svd. Rows a scipy branch would not reach are
# left out of it, so no row computes what scipy would not.

_EPS = np.finfo(float).eps


def scalar_pow(a, exponent):
    """a ** exponent for each element as numpy computes it for one float64
    scalar (the C library's pow), not as for an array (a square, a square
    root or a vectorized pow), which can differ in the last bit. scipy's
    least_squares raises scalars to powers where this solver has rows."""
    return np.array([value**exponent for value in np.ravel(a)]).reshape(np.shape(a))


@dataclass(frozen=True)
class LeastSquaresResult:
    """Solutions of a stack of problems, one row each."""

    x: np.ndarray  # (k, n) parameters
    fun: np.ndarray  # (k, m) residuals at x
    status: np.ndarray  # (k,) scipy's status: 0 max_nfev, 1 gtol, 2 ftol, 3 xtol, 4 both
    nfevs: np.ndarray  # (k,) residual evaluations of each problem

    @property
    def nfev(self) -> int:
        """Residual evaluations of the whole stack."""
        return int(self.nfevs.sum())


def least_squares(fun, x0, jac, bounds, *, xtol, ftol, gtol=1e-8, max_nfev) -> LeastSquaresResult:
    """Bounded nonlinear least squares for a stack of independent problems.

    Each row of x0 (shape (k, n)) starts one problem, and each runs
    exactly the iteration scipy.optimize.least_squares(method='trf') runs
    with the exact trust-region solver, x_scale=1 and linear loss: the
    trust-region reflective method of Branch, Coleman & Li (SIAM J. Sci.
    Comput. 1999), with each trust-region subproblem solved by More's
    (1977) iteration on an SVD of the scaled Jacobian. Every problem keeps
    its own radius, damping and step, and stops where scipy stops. The
    stack advances one residual evaluation per running problem per pass;
    a problem that stops leaves it.

    fun(x, rows) returns the residuals (len(rows), m) and jac(x, rows) the
    Jacobian (len(rows), m, n) of problems `rows` (indices into x0) at
    parameters x. Every problem has the same number m of residuals:
    padding shorter ones with zero residuals would change the order of the
    sums over them, and on ill-conditioned problems the paths part. Each
    problem then gets scipy's x bit for bit wherever numpy's LAPACK SVD
    agrees with scipy's, as it does for numpy 2.4 with scipy 1.17. bounds
    is (lower, upper), each a scalar or one value per parameter.

    It is the one bounded solver of nvsk: ramsey.fit runs it on a stack
    of one problem, and strainmap's tile fits call it as
    strainmap.least_squares, the name perfbench's tracer wraps. It is
    defined here because the tracer also wraps every public function
    strainmap defines, which would wrap it twice and count each fit twice.
    """
    x = np.array(x0, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"x0 must have shape (problems, parameters), got {x.shape}")
    k, n = x.shape
    lb, ub = (np.broadcast_to(np.asarray(b, dtype=float), (n,)) for b in bounds)
    if not (np.all(x >= lb) and np.all(x <= ub)):
        raise ValueError("initial guess is outside the bounds")
    x = _strictly_feasible(x, lb, ub, rstep=1e-10)
    rows = np.arange(k)
    f = fun(x, rows)
    if not np.isfinite(f).all():
        raise ValueError("residuals are not finite at the initial guess")
    m = f.shape[1]
    J = jac(x, rows)
    g = _vecmat(f, J)
    v, _ = _scaling_vector(x, g, lb, ub)
    Delta = _norm(x / v**0.5)
    Delta[Delta == 0] = 1.0
    # Per running problem. J holds J*d from the top of an outer iteration
    # on: the step loop needs only that, and a loop that ends without a
    # new point ends the solve.
    s = SimpleNamespace(
        rows=rows, x=x, f=f, J=J, g=g, cost=0.5 * _dot(f, f), Delta=Delta,
        alpha=np.zeros(k), nfev=np.ones(k, dtype=int), status=np.zeros(k, dtype=int),
        top=np.ones(k, dtype=bool), reduction=np.zeros(k), theta=np.zeros(k),
        d=np.zeros((k, n)), diag_h=np.zeros((k, n)), g_h=np.zeros((k, n)),
        sv=np.zeros((k, n)), V=np.zeros((k, n, n)), uf=np.zeros((k, n)),
    )
    out_x, out_f = np.empty((k, n)), np.empty_like(f)
    out_status, out_nfev = np.zeros(k, dtype=int), np.zeros(k, dtype=int)
    while True:
        # top of scipy's outer loop: gradient test and evaluation budget
        top = np.flatnonzero(s.top)
        v, dv = _scaling_vector(s.x[top], s.g[top], lb, ub)
        g_norm = np.max(np.abs(s.g[top] * v), axis=1)
        s.status[top[g_norm < gtol]] = 1
        ends = (s.status[top] != 0) | (s.nfev[top] == max_nfev)
        if ends.any():
            stop = np.zeros(s.rows.size, dtype=bool)
            stop[top[ends]] = True
            done = s.rows[stop]
            out_x[done], out_f[done] = s.x[stop], s.f[stop]
            out_status[done], out_nfev[done] = s.status[stop], s.nfev[stop]
            top = (np.cumsum(~stop) - 1)[top[~ends]]
            v, dv, g_norm = v[~ends], dv[~ends], g_norm[~ends]
            for name, value in vars(s).items():
                setattr(s, name, value[~stop])
            if not s.rows.size:
                break
        if top.size:
            _scale_and_decompose(s, top, v, dv, g_norm)
        # one pass of scipy's inner loop for every running problem
        p_h, s.alpha = _trust_region_steps(m, s.uf, s.sv, s.V, s.Delta, s.alpha)
        step, step_h, predicted = _select_steps(
            s.x, s.J, s.diag_h, s.g_h, s.d * p_h, p_h, s.d, s.Delta, lb, ub, s.theta)
        x_new = _strictly_feasible(s.x + step, lb, ub, rstep=0.0)
        f_new = fun(x_new, s.rows)
        s.nfev += 1
        step_h_norm = _norm(step_h)
        # a step to non-finite residuals shrinks the radius and is retried
        finite = np.isfinite(f_new).all(axis=1)
        s.Delta[~finite] = 0.25 * step_h_norm[~finite]
        i = np.flatnonzero(finite)
        f_i = f_new if i.size == s.rows.size else f_new[i]
        cost_new = np.zeros(s.rows.size)
        cost_new[i] = 0.5 * _dot(f_i, f_i)
        reduction = s.cost[i] - cost_new[i]
        Delta_new, ratio = _update_radius(
            s.Delta[i], reduction, predicted[i], step_h_norm[i],
            step_h_norm[i] > 0.95 * s.Delta[i])
        status = _termination(
            reduction, s.cost[i], _norm(step[i]), _norm(s.x[i]), ratio, ftol, xtol)
        s.reduction[i], s.status[i] = reduction, status
        going = status == 0
        i = i[going]
        s.alpha[i] *= s.Delta[i] / Delta_new[going]
        s.Delta[i] = Delta_new[going]
        # the inner loop ends on a termination test, a lower cost or the budget
        s.top = (s.status != 0) | (s.reduction > 0) | (s.nfev >= max_nfev)
        better = np.flatnonzero(s.top & (s.reduction > 0))
        if better.size:
            s.x[better], s.f[better] = x_new[better], f_new[better]
            s.cost[better] = cost_new[better]
            s.J[better] = jac(s.x[better], s.rows[better])
            s.g[better] = _vecmat(s.f[better], s.J[better])
    return LeastSquaresResult(x=out_x, fun=out_f, status=out_status, nfevs=out_nfev)


def _dot(a, b):
    """Row-wise dot products, each the BLAS call np.dot makes for one row."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _norm(a):
    return np.sqrt(_dot(a, a))


def _matvec(A, b):
    return (A @ b[:, :, None])[:, :, 0]


def _vecmat(b, A):
    """A[i].T @ b[i] for each row: the gradient J.T f."""
    return (b[:, None, :] @ A)[:, 0, :]


def _first_max(a, b):
    """Python's max(a, b) elementwise: a unless b is larger."""
    return np.where(b > a, b, a)


def _scaling_vector(x, g, lb, ub):
    """CL_scaling_vector: Coleman-Li scaling v and its derivative dv."""
    upper = (g < 0) & np.isfinite(ub)
    lower = (g > 0) & np.isfinite(lb)
    v = np.where(lower, x - lb, np.where(upper, ub - x, 1.0))
    dv = np.where(lower, 1.0, np.where(upper, -1.0, 0.0))
    return v, dv


def _strictly_feasible(x, lb, ub, rstep):
    """make_strictly_feasible: move points on or past a bound inside it."""
    lb, ub = np.broadcast_to(lb, x.shape), np.broadcast_to(ub, x.shape)
    x_new = x.copy()
    if rstep == 0:
        lower, upper = x <= lb, x >= ub
        x_new[lower] = np.nextafter(lb[lower], ub[lower])
        x_new[upper] = np.nextafter(ub[upper], lb[upper])
    else:
        # find_active_constraints; infinite bounds are never active
        lower_dist, upper_dist = x - lb, ub - x
        lower = np.isfinite(lb) & (
            lower_dist <= np.minimum(upper_dist, rstep * np.maximum(1, np.abs(lb))))
        upper = np.isfinite(ub) & (
            upper_dist <= np.minimum(lower_dist, rstep * np.maximum(1, np.abs(ub))))
        lower &= ~upper
        x_new[lower] = lb[lower] + rstep * np.maximum(1, np.abs(lb[lower]))
        x_new[upper] = ub[upper] - rstep * np.maximum(1, np.abs(ub[upper]))
    tight = (x_new < lb) | (x_new > ub)
    x_new[tight] = 0.5 * (lb[tight] + ub[tight])
    return x_new


def _scale_and_decompose(s, top, v, dv, g_norm):
    """The scaled ("hat") problem of each problem `top` and its SVD."""
    d = v**0.5
    diag_h = s.g[top] * dv
    J_h = s.J[top] * d[:, None, :]
    k, m, n = J_h.shape
    augmented = np.zeros((k, m + n, n))
    augmented[:, :m] = J_h
    augmented[:, m + np.arange(n), np.arange(n)] = diag_h**0.5
    U, sv, Vt = np.linalg.svd(augmented, full_matrices=False)
    f_augmented = np.zeros((k, m + n))
    f_augmented[:, :m] = s.f[top]
    s.J[top] = J_h
    s.d[top], s.diag_h[top], s.g_h[top] = d, diag_h, d * s.g[top]
    s.sv[top], s.V[top] = sv, Vt.transpose(0, 2, 1)
    # U.T laid out as scipy's, so the BLAS call sums in its order
    s.uf[top] = _matvec(np.ascontiguousarray(U.transpose(0, 2, 1)), f_augmented)
    s.theta[top] = _first_max(0.995, 1 - g_norm)
    s.reduction[top] = -1.0


def _trust_region_steps(m, uf, sv, V, Delta, alpha):
    """solve_lsq_trust_region: the Gauss-Newton step if it is full rank and
    fits the radius, else More's iteration for the damping alpha."""
    n = sv.shape[1]
    full_rank = (m >= n) & (sv[:, -1] > _EPS * m * sv[:, 0])
    p = np.empty_like(uf)
    alpha = alpha.copy()
    damped = np.ones(len(sv), dtype=bool)
    i = np.flatnonzero(full_rank)
    if i.size:
        p_gn = -_matvec(V[i], uf[i] / sv[i])
        inside = _norm(p_gn) <= Delta[i]
        p[i[inside]], alpha[i[inside]] = p_gn[inside], 0.0
        damped[i[inside]] = False
    i = np.flatnonzero(damped)
    if i.size:
        p[i], alpha[i] = _damped_steps(
            full_rank[i], uf[i], sv[i], V[i], Delta[i], alpha[i])
    return p, alpha


def _damped_steps(full_rank, uf, sv, V, Delta, alpha, rtol=0.01, max_iter=10):
    def phi_and_derivative(alpha, suf, sv, Delta):
        denom = sv**2 + alpha[:, None]
        p_norm = _norm(suf / denom)
        return p_norm - Delta, -np.sum(suf**2 / denom**3, axis=1) / p_norm

    suf = sv * uf
    upper = _norm(suf) / Delta
    lower = np.zeros(len(sv))
    i = np.flatnonzero(full_rank)
    if i.size:
        phi, phi_prime = phi_and_derivative(np.zeros(i.size), suf[i], sv[i], Delta[i])
        lower[i] = -phi / phi_prime
    restart = ~full_rank & (alpha == 0)
    alpha[restart] = _first_max(0.001 * upper, scalar_pow(lower * upper, 0.5))[restart]
    i = np.arange(len(sv))
    for _ in range(max_iter):
        a, lo, up, D = alpha[i], lower[i], upper[i], Delta[i]
        reset = (a < lo) | (a > up)
        a[reset] = _first_max(0.001 * up, scalar_pow(lo * up, 0.5))[reset]
        phi, phi_prime = phi_and_derivative(a, suf[i], sv[i], D)
        upper[i] = np.where(phi < 0, a, up)
        ratio = phi / phi_prime
        lower[i] = _first_max(lo, a - ratio)
        alpha[i] = a - (phi + D) * ratio / D
        i = i[~(np.abs(phi) < rtol * D)]
        if not i.size:
            break
    p = -_matvec(V, suf / (sv**2 + alpha[:, None]))
    return p * (Delta / _norm(p))[:, None], alpha


def _select_steps(x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta):
    """select_step: the trust-region step if it stays within the bounds;
    else the best of that step cut back from the first bound it meets,
    its reflection there, and the cut-back scaled gradient step. Returns
    the steps in both spaces and their predicted cost reductions."""
    out = ~np.all((x + p >= lb) & (x + p <= ub), axis=1)
    if not out.any():
        return p, p_h, -_quadratic(J_h, g_h, p_h, diag_h)
    step, step_h, value = p.copy(), p_h.copy(), np.empty(len(x))
    i = np.flatnonzero(~out)
    value[i] = _quadratic(J_h[i], g_h[i], p_h[i], diag_h[i])
    o = np.flatnonzero(out)
    step[o], step_h[o], value[o] = _bounded_steps(
        x[o], J_h[o], diag_h[o], g_h[o], p[o], p_h[o], d[o], Delta[o], lb, ub, theta[o])
    return step, step_h, -value


def _bounded_steps(x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta):
    p_stride, hits = _step_to_bound(x, p, lb, ub)
    r_h = np.where(hits != 0, -p_h, p_h)
    r = d * r_h
    p = p * p_stride[:, None]
    p_h = p_h * p_stride[:, None]
    to_tr = _trust_region_exit(p_h, r_h, Delta)
    to_bound, _ = _step_to_bound(x + p, r, lb, ub)
    # stride bounds along the reflection, kept strictly feasible
    r_stride = np.where(to_tr < to_bound, to_tr, to_bound)
    positive = r_stride > 0
    r_lo = np.zeros(len(x))
    r_lo[positive] = (1 - theta[positive]) * p_stride[positive] / r_stride[positive]
    r_up = np.where(positive, np.where(r_stride == to_bound, theta * to_bound, to_tr), -1.0)
    r_value = np.full(len(x), np.inf)
    i = np.flatnonzero(r_lo <= r_up)
    if i.size:
        a, b, c = _quadratic_1d(J_h[i], g_h[i], r_h[i], diag_h[i], s0=p_h[i])
        t, r_value[i] = _minimize_1d(a, b, r_lo[i], r_up[i], c)
        r_h[i] = r_h[i] * t[:, None] + p_h[i]
        r[i] = r_h[i] * d[i]
    p = p * theta[:, None]
    p_h = p_h * theta[:, None]
    p_value = _quadratic(J_h, g_h, p_h, diag_h)
    ag_h = -g_h
    ag = d * ag_h
    to_tr = Delta / _norm(ag_h)
    to_bound, _ = _step_to_bound(x, ag, lb, ub)
    ag_stride = np.where(to_bound < to_tr, theta * to_bound, to_tr)
    a, b = _quadratic_1d(J_h, g_h, ag_h, diag_h)
    ag_stride, ag_value = _minimize_1d(a, b, np.zeros(len(x)), ag_stride, 0.0)
    ag_h = ag_h * ag_stride[:, None]
    ag = ag * ag_stride[:, None]
    take_p = (p_value < r_value) & (p_value < ag_value)
    take_r = ~take_p & (r_value < p_value) & (r_value < ag_value)
    choice = np.where(take_p, 0, np.where(take_r, 1, 2)), np.arange(len(x))
    return (np.stack([p, r, ag])[choice], np.stack([p_h, r_h, ag_h])[choice],
            np.stack([p_value, r_value, ag_value])[choice])


def _step_to_bound(x, s, lb, ub):
    """step_size_to_bound: the stride along s to the first bound, and
    which components meet it."""
    moving = s != 0
    s_safe = np.where(moving, s, 1.0)
    with np.errstate(over="ignore"):
        steps = np.maximum((lb - x) / s_safe, (ub - x) / s_safe)
    steps = np.where(moving, steps, np.inf)
    stride = steps.min(axis=1)
    return stride, (steps == stride[:, None]) * np.sign(s).astype(int)


def _trust_region_exit(x, s, Delta):
    """intersect_trust_region: the positive t with ||x + t s|| = Delta."""
    a = _dot(s, s)
    if np.any(a == 0):
        raise ValueError("`s` is zero.")
    b = _dot(x, s)
    c = _dot(x, x) - scalar_pow(Delta, 2)
    if np.any(c > 0):
        raise ValueError("`x` is not within the trust region.")
    d = np.sqrt(b * b - a * c)
    q = -(b + np.copysign(d, b))
    t1, t2 = q / a, c / q
    return np.where(t1 < t2, t2, t1)


def _quadratic(J, g, s, diag):
    """evaluate_quadratic: 0.5 s.(J^T J + diag) s + g.s for each row."""
    Js = _matvec(J, s)
    q = _dot(Js, Js) + _dot(s * diag, s)
    return 0.5 * q + _dot(s, g)


def _quadratic_1d(J, g, s, diag, s0=None):
    """build_quadratic_1d: the quadratic model along s0 + t s as a t^2 + b t + c."""
    v = _matvec(J, s)
    a = 0.5 * (_dot(v, v) + _dot(s * diag, s))
    b = _dot(g, s)
    if s0 is None:
        return a, b
    u = _matvec(J, s0)
    b = b + _dot(u, v)
    c = 0.5 * _dot(u, u) + _dot(g, s0)
    b = b + _dot(s0 * diag, s)
    c = c + 0.5 * _dot(s0 * diag, s0)
    return a, b, c


def _minimize_1d(a, b, lo, up, c):
    """minimize_quadratic_1d: the least of a t^2 + b t + c at lo, at up and,
    when it lies between them, at the vertex."""
    vertex = np.full(len(a), np.nan)
    curved = a != 0
    vertex[curved] = -0.5 * b[curved] / a[curved]
    t = np.stack([lo, up, vertex], axis=1)
    y = t * (a[:, None] * t + b[:, None]) + np.reshape(c, (-1, 1))
    y[~(curved & (lo < vertex) & (vertex < up)), 2] = np.inf
    best = np.argmin(y, axis=1)
    rows = np.arange(len(a))
    return t[rows, best], y[rows, best]


def _update_radius(Delta, reduction, predicted, step_norm, bound_hit):
    """update_tr_radius: shrink the radius after a poor step, double it
    after a good one that reached it."""
    ratio = np.where((predicted == reduction) & (reduction == 0), 1.0, 0.0)
    positive = predicted > 0
    ratio[positive] = reduction[positive] / predicted[positive]
    Delta = np.where(ratio < 0.25, 0.25 * step_norm,
                     np.where((ratio > 0.75) & bound_hit, Delta * 2.0, Delta))
    return Delta, ratio


def _termination(dF, F, dx_norm, x_norm, ratio, ftol, xtol):
    """check_termination: 4 both, 2 ftol, 3 xtol, 0 neither."""
    ftol_met = (dF < ftol * F) & (ratio > 0.25)
    xtol_met = dx_norm < xtol * (xtol + x_norm)
    return np.where(ftol_met & xtol_met, 4, np.where(ftol_met, 2, np.where(xtol_met, 3, 0)))
