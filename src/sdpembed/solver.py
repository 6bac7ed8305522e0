"""Solver for  max Tr(rho K)  s.t.  rho >= 0, diag(rho) = diag(K)  on a
factor rho = H_Xi H_Xi^T of width p whose row i has length sqrt(K_ii).  The
rows of Y = R^{-1} H_Xi, R = ddiag(K)^{1/2}, are unit vectors (the oblique
manifold), and E = Tr(rho K) = Tr(Y^T J Y) with J = R K R.

1. The paper's projected power steps Y <- P(J Y), P scaling rows to unit
   length, from a random start at p = 2 or a given one; row i of J Y is
   sqrt(K_ii) (K H_Xi)_i, so a step is one product with K, and E never
   falls for p.s.d. K.
2. Once they are too slow, a Riemannian trust region (Absil, Baker &
   Gallivan 2007): with D_i = (K rho)_ii, the gradient of -E is
   2 (D Y - J Y) and the Hessian U -> 2 proj_Y(D U - J U); truncated CG
   solves each step on it shifted by ||grad||, one product with K a step.
   (The probes of ``pipeline.embed_points``'s bandwidth path stop there.)
3. A rank staircase (Boumal 2015): where ``check_optimality`` finds
   lambda_min(L) < -1e-8 max_i K_ii at a stationary point, a column along
   its eigenvector is added, up to width ``cfg.r0``, and step 2 resumes.
   (The levels of the bandwidth path above its sigma stop at the stationary
   point, with neither certificate nor staircase.)

All stop on the ``slackness_residual`` of ``check_optimality``, bit for bit.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .certificate import (CertificateReport, _eigenvalue_holds, _least_eigenpairs, _slackness,
                          check_optimality)
from .embedding import _RANK_TOL, _check_rank_tol
from .kernels import _one_blas_thread, _times

# rows of norm below this are re-randomized; a power step that lowers E by
# more than _MONOTONE_RTOL Tr(K)^2 (which bounds |E|) is an internal error
_ZERO_ROW = 1e-300
_MONOTONE_RTOL = 1e-9

# power steps end once the residual's rate over the last _WINDOW steps needs
# more than _POWER_BUDGET steps to reach the tolerance (about 50 in all on
# the clusters at sigma = 5, whose first ten steps can be slow)
_WINDOW = 20
_POWER_BUDGET = 200

# truncated CG stops at a residual of _TCG_KAPPA ||grad||; Absil et al.'s
# min(||grad||, 0.1) ||grad|| took 1.3-3.1 times the products on the paper's
# 308 points at sigma = 0.5 and 0.3 (seeds 0-5)
_TCG_KAPPA = 0.1

# a step is taken when E gains at least _ACCEPT of the model's gain, both
# with a slack of _RATIO_SLACK eps |E| for gains lost in the rounding of E
# (Manopt uses 1e3).  At sigma = 0.3 the trust region walks a long path on
# which E rises by 5e-12 of itself: 1e5 took 2k-8k products, 1e3 8k-34k
_ACCEPT = 0.1
_RATIO_SLACK = 1e5


@dataclass(frozen=True, kw_only=True)
class SolverConfig:
    """Every setting of a run but sigma, checked when made, in the order of
    ``embedding.json``.  ``seed`` draws the random start; the solver stops at
    a slackness residual of ``tol_conv`` max_i K_ii (floor 1e-16 to 1e-14 of
    it) or after ``max_iters`` power and trust-region steps; ``r0`` caps the
    width, which starts at 2; ``rank_tol`` is the relative singular-value
    cutoff of the rank."""

    seed: int = 0
    tol_conv: float = 1e-12
    max_iters: int = 15000
    r0: int = 10
    rank_tol: float = _RANK_TOL

    def __post_init__(self):
        _check_integer("r0", self.r0)
        if self.r0 < 2:
            raise ValueError("r0 must be at least 2")
        _check_integer("max_iters", self.max_iters)
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not 0 < self.tol_conv < np.inf:
            raise ValueError(f"tol_conv must be positive and finite, got {self.tol_conv}")
        _check_rank_tol(self.rank_tol)
        _check_integer("seed", self.seed)
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")


def _check_integer(name, value):
    # bool is a subclass of int, but True is no count
    if isinstance(value, bool) or not isinstance(value, int | np.integer):
        raise ValueError(f"{name} must be an integer, got {value}")


@dataclass
class FactorState:
    """``H_Xi`` has rows of length sqrt(K_ii) and 2 to ``r0`` columns;
    ``converged``: the residual reached ``tol_conv`` max K_ii in ``max_iters``
    steps (``iterations``), which took ``products`` products of K with an
    N x p block; ``certificate``: the report on ``H_Xi`` if it is stationary."""

    H_Xi: np.ndarray
    objective: float
    iterations: int
    converged: bool
    slackness_residual: float
    products: int
    certificate: CertificateReport | None


def _unit_rows(M, rng):
    """M with unit rows; a zero row has no direction to keep, and a fixed
    one would bias the iteration, so it gets a random one from ``rng``."""
    norms = np.sqrt(np.einsum("ij,ij->i", M, M))
    zero = norms < _ZERO_ROW
    if np.any(zero):
        if rng is None:
            raise ValueError("zero row encountered and no rng supplied")
        M = M.copy()
        for i in np.flatnonzero(zero):
            M[i] = rng.standard_normal(M.shape[1])
        norms = np.sqrt(np.einsum("ij,ij->i", M, M))
    return M / norms[:, None]


def init_factor(n_points, cfg, rng=None):
    """Random factor of ``cfg.r0`` unit rows, entries uniform in [-1, 1]
    before scaling, from ``cfg.seed`` unless ``rng`` is given.  ``solve``
    draws its cold start the same way at width 2; the benchmark's tests
    (``bench/tests``) take random feasible factors from it."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    return _unit_rows(rng.uniform(-1.0, 1.0, (n_points, cfg.r0)), rng)


@_one_blas_thread()
def objective(K, H_Xi):
    """Tr(rho K) for rho = H_Xi H_Xi^T, summed over (K rho)_ii as the solver does."""
    K = np.asarray(K, dtype=float)
    if H_Xi.shape[0] != K.shape[0]:
        raise ValueError(f"shape mismatch: K is {K.shape}, H_Xi is {H_Xi.shape}")
    return float(np.einsum("ij,ij->i", _times(K, H_Xi), H_Xi).sum())


class _Point:
    """Y with H_Xi, K H_Xi, and from ``diag K`` the (K rho)_ii, E and residual
    of ``check_optimality``'s report, bit for bit; the gradient of -E, formed
    when first read (the power steps never do), has terms that cancel near
    the optimum, so the normal part of their rounding error is projected out."""

    def __init__(self, K, diag, root, Y):
        self.Y, self.H, self.root = Y, root[:, None] * Y, root
        self.KH = _times(K, self.H)
        self.k_rho, self.residual = _slackness(self.KH, self.H, diag)
        self.energy = float(self.k_rho.sum())

    @cached_property
    def grad(self):
        grad = 2.0 * (self.k_rho[:, None] * self.Y - self.root[:, None] * self.KH)
        return grad - np.einsum("ij,ij->i", self.Y, grad)[:, None] * self.Y

    @cached_property
    def grad_norm(self):
        return float(np.sqrt(np.vdot(self.grad, self.grad)))


def _tcg(K, root, x, radius):
    """Truncated CG (Steihaug-Toint) for the step at ``x`` within ``radius``: the
    step, the shifted model's decrease (from the CG scalars) and the products.
    The loop writes into buffers made once per call and keeps the CG scalars
    as Python floats; each value has the bits of the plain expressions."""
    Y = x.Y
    scaled = np.repeat(root[:, None], Y.shape[1], axis=1)
    twice = 2.0 * scaled
    shifted = np.repeat((2.0 * x.k_rho + x.grad_norm)[:, None], Y.shape[1], axis=1)
    r = x.grad.copy()
    delta, eta = -r, np.zeros_like(Y)
    hd, term, rows = np.empty_like(Y), np.empty_like(Y), np.empty(Y.shape[0])
    r_r = d_pd = x.grad_norm**2
    e_pe = e_pd = decrease = 0.0
    products = 0
    while products < Y.size:
        # proj(2 D delta - 2 J delta + mu delta): the projection also keeps
        # rounding in delta off the normal space, where D is large
        product = _times(K, np.multiply(scaled, delta, out=term))
        np.subtract(np.multiply(shifted, delta, out=hd), np.multiply(twice, product, out=product), out=hd)
        np.einsum("ij,ij->i", Y, hd, out=rows)
        hd -= np.multiply(rows[:, None], Y, out=term)
        products += 1
        curv = float(np.vdot(delta, hd))
        alpha = r_r / curv if curv > 0 else math.inf
        if curv <= 0 or e_pe + 2 * alpha * e_pd + alpha**2 * d_pd >= radius**2:
            tau = (math.sqrt(e_pd**2 + d_pd * (radius**2 - e_pe)) - e_pd) / d_pd
            eta += np.multiply(tau, delta, out=term)
            decrease += tau * r_r - 0.5 * tau**2 * curv
            break
        eta += np.multiply(alpha, delta, out=term)
        decrease += 0.5 * alpha * r_r
        e_pe += 2 * alpha * e_pd + alpha**2 * d_pd
        r += np.multiply(alpha, hd, out=term)
        r_r_next = float(np.vdot(r, r))
        if math.sqrt(r_r_next) <= _TCG_KAPPA * x.grad_norm:
            break
        beta, r_r = r_r_next / r_r, r_r_next
        delta *= beta
        delta -= r
        e_pd = beta * (e_pd + alpha * d_pd)
        d_pd = r_r + beta**2 * d_pd
    return eta, decrease, products


@_one_blas_thread()
def solve(K, cfg, start=None):
    """Solve for the (N, N) p.s.d. kernel ``K``; returns a ``FactorState``.

    ``start`` is an (N, p) factor with 2 <= p <= ``cfg.r0`` whose rows,
    scaled to unit length, are the first iterate; by default it is random
    at width 2, drawn from ``cfg.seed``.

    Raises ``ValueError`` if some K_ii is not positive (that point cannot
    carry an embedding constraint), ``cfg.r0`` exceeds N or ``start`` does
    not fit, and ``RuntimeError`` if a power step lowers E by more than
    1e-9 Tr(K)^2, which cannot happen for p.s.d. K and so signals a
    corrupted input.
    """
    return _solve(K, cfg, start, cfg.max_iters)[0]


def _solve(K, cfg, start, budget, probe=False, certify=True):
    """``solve`` within ``budget`` steps (0 only evaluates the start), and
    whether the power steps stalled: with ``probe`` a run whose power steps
    stall stops there, unconverged, before the trust region.  Without
    ``certify`` a run stops at the stopping rule, uncertified, and never
    climbs the staircase."""
    K = np.asarray(K, dtype=float)
    n, diag = K.shape[0], np.diag(K)
    bad = np.flatnonzero(diag <= 0)
    if bad.size:
        raise ValueError(
            f"kernel diagonal must be strictly positive; first offending point "
            f"index {bad[0]} with K[i,i] = {diag[bad[0]]:.3e}"
        )
    if cfg.r0 > n:
        raise ValueError(f"r0 = {cfg.r0} exceeds the number of points {n}")
    root, scale, rng = np.sqrt(diag), diag.max(), np.random.default_rng(cfg.seed)
    if start is None:
        start = rng.uniform(-1.0, 1.0, (n, 2))
    start = np.asarray(start, dtype=float)
    if start.ndim != 2 or start.shape[0] != n or not 2 <= start.shape[1] <= cfg.r0:
        raise ValueError(f"start must be (N, p) with N = {n} and 2 <= p <= r0 = {cfg.r0}, "
                         f"got shape {start.shape}")
    if not np.all(np.isfinite(start)):
        raise ValueError("start must be finite")
    threshold = cfg.tol_conv * scale
    x = _Point(K, diag, root, _unit_rows(start, rng))
    steps, products, history = 0, 1, [x.residual]
    while x.residual > threshold and steps < budget:
        if steps >= _WINDOW:
            rate = (x.residual / history[-1 - _WINDOW]) ** (1.0 / _WINDOW)
            if rate >= 1 or np.log(threshold / x.residual) < _POWER_BUDGET * np.log(rate):
                if probe:
                    stalled = FactorState(x.H, x.energy, steps, False, x.residual, products, None)
                    return stalled, True
                break
        y = _Point(K, diag, root, _unit_rows(x.KH, rng))
        if y.energy < x.energy - _MONOTONE_RTOL * diag.sum() ** 2:
            raise RuntimeError(f"objective decreased from {x.energy!r} to {y.energy!r}; "
                               "the kernel is not p.s.d.")
        x, steps, products = y, steps + 1, products + 1
        history.append(x.residual)
    radius_max = np.pi * np.sqrt(n)
    radius, report = radius_max / 8, None
    while steps < budget or x.residual <= threshold:
        if x.residual <= threshold:
            if not certify:
                break
            report = check_optimality(K, x.H)
            if _eigenvalue_holds(report.least_eigenvalues[0], scale) or x.Y.shape[1] >= cfg.r0:
                break
            # a column along the least eigenvector v of L, with a step from
            # max_i |v_i| / sqrt(K_ii) = 1 halved until E rises
            u = _least_eigenpairs(K, report.D_diagonal, scale, vectors=True)[1][:, 0] / root
            step = 1.0 / np.max(np.abs(u))
            for _ in range(60):
                y = _Point(K, diag, root, _unit_rows(np.column_stack([x.Y, step * u]), rng))
                products, step = products + 1, step / 2
                if y.energy > x.energy:
                    break
            x, radius, report = y, radius_max / 8, None
            continue
        eta, decrease, spent = _tcg(K, root, x, radius)
        y = _Point(K, diag, root, _unit_rows(x.Y + eta, None))
        products, steps = products + spent + 1, steps + 1
        slack = _RATIO_SLACK * np.finfo(float).eps * abs(x.energy)
        ratio = (y.energy - x.energy + slack) / max(decrease + slack, np.finfo(float).tiny)
        if ratio < 0.25:
            radius /= 4
        elif ratio > 0.75 and np.vdot(eta, eta) >= (0.99 * radius) ** 2:
            radius = min(2 * radius, radius_max)
        if ratio > _ACCEPT:
            x = y
    done = bool(x.residual <= threshold)
    return FactorState(x.H, x.energy, steps, done, x.residual, products, report), False
