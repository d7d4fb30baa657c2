"""Shared test utilities: independent oracles and config helpers.

aug_lagrangian is the one-point reference of the augmented Lagrangian,
step_rows_reference that of the certifier's per-step rows and
merit_columns_reference that of the trace's merit columns.  The seed-program
oracles here are deliberately independent of the library's
closed-form path: one solves the full KKT system of the program in the
original (dy, dlam) variables with a pseudoinverse, the other runs exact-step
projected gradient descent from many random starts.  The assumption-probe
reference evaluates the smooth oracle one point at a time, independent of
the batched evaluation in validate_assumptions, and adds a per-coordinate
central difference as a gradient check of its own.
"""

from __future__ import annotations

import numpy as np

from admmcert import (LinearizedG, SolverConfig, ZeroG, min_admissible_beta,
                      spectral_summary)
from admmcert.certify import ABS_TOL, INCLUSION_TOL, INNER_SLACK, INNER_TOL, _tolerance
from admmcert.params import c1
from admmcert.serialize import resolve_start

INF = float("inf")


def seed_qp_data(B, theta, beta, tau, m):
    """Objective H and constraint C of the seed program in z = (dy, dlam)."""
    B = np.asarray(B, dtype=float)
    l, p = B.shape
    spec = spectral_summary(B)
    kap = (beta * spec.sigma_min + tau - m) / 4.0
    c1_val = c1(theta, beta, spec.sigma_plus)
    zeta = 1.0 - 1.0 / theta
    H = np.zeros((p + l, p + l))
    H[:p, :p] = 2.0 * kap * np.eye(p)
    H[p:, p:] = c1_val * (B @ B.T)
    C = np.hstack([tau * np.eye(p), zeta * B.T])
    return H, C


def eta0_kkt_oracle(B, v, theta, beta, tau, m):
    """Seed-program value via a dense pseudoinverse KKT solve; inf if infeasible."""
    H, C = seed_qp_data(B, theta, beta, tau, m)
    v = np.asarray(v, dtype=float)
    z_ls, *_ = np.linalg.lstsq(C, v, rcond=None)
    if np.linalg.norm(C @ z_ls - v) > 1e-8 * max(1.0, np.linalg.norm(v)):
        return INF
    d = H.shape[0]
    K = np.block([[H, C.T], [C, np.zeros((C.shape[0], C.shape[0]))]])
    rhs = np.concatenate([np.zeros(d), v])
    sol = np.linalg.pinv(K) @ rhs
    z = sol[:d]
    assert np.linalg.norm(C @ z - v) <= 1e-7 * max(1.0, np.linalg.norm(v))
    return float(0.5 * z @ (H @ z))


def eta0_pgd_oracle(B, v, theta, beta, tau, m, starts=50, iters=4000, seed=0):
    """Seed-program value via exact-step projected gradient from random starts."""
    H, C = seed_qp_data(B, theta, beta, tau, m)
    v = np.asarray(v, dtype=float)
    Cp = np.linalg.pinv(C)
    z_part = Cp @ v
    if np.linalg.norm(C @ z_part - v) > 1e-8 * max(1.0, np.linalg.norm(v)):
        return INF
    d = H.shape[0]
    ker_proj = np.eye(d) - Cp @ C
    rng = np.random.default_rng(seed)
    Z = z_part[:, None] + ker_proj @ rng.standard_normal((d, starts))
    for _ in range(iters):
        grad = H @ Z
        D = -(ker_proj @ grad)
        dnorm2 = np.sum(D * D, axis=0)
        gnorm2 = np.sum(grad * grad, axis=0)
        # columns whose projected gradient is rounding noise are converged
        active = dnorm2 > 1e-28 * np.maximum(1.0, gnorm2)
        if not active.any():
            break
        den = np.sum(D * (H @ D), axis=0)
        num = np.sum(grad * D, axis=0)
        step = np.where(active & (den > 0), -num / np.where(den > 0, den, 1.0), 0.0)
        Z = Z + step[None, :] * D
        # re-project to kill feasibility drift
        Z = Z - Cp @ (C @ Z - v[:, None])
    vals = 0.5 * np.sum(Z * (H @ Z), axis=0)
    return float(vals.min())


def aug_lagrangian(inst, beta, x, y, lam) -> float:
    """f(x) + g(y) - <lam, Ax+By-b> + (beta/2)||Ax+By-b||^2, the tests' hand-value
    reference, evaluated at one point; +inf when x lies outside dom f."""
    x, y, lam = (np.asarray(v, dtype=float) for v in (x, y, lam))
    fx = inst.f.value(x)
    if fx == INF:
        return INF
    r = inst.A @ x + inst.B @ y - inst.b
    return float(fx + inst.g.value(y) - lam @ r + 0.5 * beta * (r @ r))


def step_rows_reference(inst, constants, start, G, records) -> np.ndarray:
    """Slack and tolerance of each step check but trace-consistency (the first
    14 of certify.STEP_CHECKS), as an (iterations, 14, 2) array, evaluated one
    step at a time from the on_iterate records, the run's start, constants
    and proximal metric G: one-point oracle calls and matrix-vector products,
    the previous step's dy, w and merit carried in scalars and vectors."""
    c, A, B, b, f, g = constants, inst.A, inst.B, inst.b, inst.f, inst.g
    beta, theta, tau = c.beta, c.theta, c.tau
    if not getattr(f, "is_quadratic", False):   # the prox route's scalar metric
        M = G + beta * (A.T @ A)
        alpha = float(np.trace(0.5 * (M + M.T)) / A.shape[1])
    x_p, y_p, lam_p, dy_p, w_p = start.x, start.y, start.lam, start.dy, start.w
    merit_p, merit_scale = start.merit, 1.0 + abs(start.merit)
    bound_3m, cum, out = 3.0 * max(start.delta, start.eta), 0.0, []
    for rec in records:
        x, y, lam = rec.x, rec.y, rec.lam
        dx, dy, dlam = x - x_p, y - y_p, lam - lam_p
        lam_hat = lam_p - beta * (A @ x + B @ y_p - b)
        L_prev = aug_lagrangian(inst, beta, x_p, y_p, lam_p)
        L_mid_x = aug_lagrangian(inst, beta, x, y_p, lam_p)
        L_mid_y = aug_lagrangian(inst, beta, x, y, lam_p)
        L_new = aug_lagrangian(inst, beta, x, y, lam)
        dx_g_sq, dy_sq, dlam_sq = float(dx @ (G @ dx)), float(dy @ dy), float(dlam @ dlam)
        dy_pair = dy_sq + float(dy_p @ dy_p)
        grad = g.gradient(y)
        u = grad - g.gradient(y_p) + tau * (dy - dy_p)
        w = B.T @ dlam
        u_sq, w_sq, w_prev_sq = float(u @ u), float(w @ w), float(w_p @ w_p)
        bound_y = 0.5 * (g.weak_convexity - beta * c.spectral.sigma_min - tau) * dy_sq
        lam_gain = dlam_sq / (theta * beta)
        theta1 = dlam_sq / (beta * theta) + 0.5 * c.c1 * (w_sq - w_prev_sq)
        drift = c.gamma / (beta * c.spectral.sigma_plus) * u_sq
        coupling = 3.0 * (g.lipschitz ** 2 + tau ** 2) * dy_pair
        eta = 0.5 * c.c1 * w_sq + c.kappa * dy_sq
        merit = L_new - inst.objective_floor + eta
        res_primal = float(np.linalg.norm(A @ x + B @ y - b))
        dual_vec = grad - B.T @ lam_hat + beta * (B.T @ (B @ dy)) + tau * dy
        s = A.T @ lam_hat - G @ dx
        if getattr(f, "is_quadratic", False):
            inclusion = (-np.linalg.norm(f.P @ x + f.q - s),
                         _tolerance(max(1.0, np.linalg.norm(s))))
        else:
            inclusion = (-np.linalg.norm(f.scaled_prox(x + s / alpha, alpha) - x),
                         INCLUSION_TOL)
        cum += 0.5 * dx_g_sq + c.delta1 * dy_sq + c.delta2 * dlam_sq
        out.append([
            ((L_prev - L_mid_x) - 0.5 * dx_g_sq,
             _tolerance(max(1.0, abs(L_prev), abs(L_mid_x), dx_g_sq))),
            (bound_y - (L_mid_y - L_mid_x),
             _tolerance(max(1.0, abs(L_mid_x), abs(L_mid_y), abs(bound_y)))),
            (-abs((L_new - L_mid_y) - lam_gain),
             _tolerance(max(1.0, abs(L_new), abs(L_mid_y), lam_gain))),
            (-np.linalg.norm(w - (1.0 - theta) * w_p - theta * u),
             _tolerance(max(1.0, np.sqrt(w_sq), np.sqrt(w_prev_sq), np.sqrt(u_sq)))),
            (drift - theta1, _tolerance(max(1.0, abs(theta1), drift))),
            (coupling - u_sq, _tolerance(max(1.0, u_sq, coupling))),
            ((merit_p - merit) - 0.5 * dx_g_sq - c.delta1 * dy_pair,
             _tolerance(merit_scale)),
            (merit, _tolerance(merit_scale)), (eta, _tolerance(1.0)),
            (c.kappa * dy_pair, _tolerance(1.0)),
            (-abs(res_primal - np.sqrt(dlam_sq) / (beta * theta)),
             1e-9 * max(1.0, res_primal)),
            (-np.linalg.norm(dual_vec), ABS_TOL + INNER_SLACK * max(
                rec.inner_budget, INNER_TOL * max(1.0, np.linalg.norm(grad)))),
            inclusion,
            (bound_3m - cum, _tolerance(max(1.0, bound_3m)))])
        x_p, y_p, lam_p, dy_p, w_p, merit_p = x, y, lam, dy, w, merit
    return np.array(out, dtype=float)


def merit_columns_reference(inst, constants, start, G, records) -> np.ndarray:
    """The trace's L_beta, delta, eta, dx_g_sq, dy_sq and dlam_sq columns, as
    an (iterations, 6) array, evaluated one step at a time from the
    on_iterate records and the run's start: aug_lagrangian at each iterate,
    G @ dx and w = B^T dlam as matrix-vector products."""
    c, out = constants, []
    x_p, y_p, lam_p = start.x, start.y, start.lam
    for rec in records:
        dx, dy, dlam = rec.x - x_p, rec.y - y_p, rec.lam - lam_p
        L_beta = aug_lagrangian(inst, c.beta, rec.x, rec.y, rec.lam)
        w = inst.B.T @ dlam
        dy_sq = float(dy @ dy)
        out.append((L_beta, L_beta - inst.objective_floor,
                    0.5 * c.c1 * float(w @ w) + c.kappa * dy_sq,
                    float(dx @ (G @ dx)), dy_sq, float(dlam @ dlam)))
        x_p, y_p, lam_p = rec.x, rec.y, rec.lam
    return np.array(out, dtype=float)


def auto_config(inst, theta, tau=None, g_kind="zero", rho=1e-6, max_iters=2000,
                certify=True):
    """Admissible config with an auto penalty.

    tau=None picks a tau that keeps the run well posed from an arbitrary
    start: above m for singular B^T B (admissibility) and positive at
    theta=1 (seed-program feasibility without a consistent multiplier).
    """
    spec = spectral_summary(inst.B)
    m = inst.g.weak_convexity
    if tau is None:
        if spec.sigma_min == 0:
            tau = m + 1.0
        elif theta == 1.0:
            tau = m + 0.5
        else:
            tau = 0.0
    beta = min_admissible_beta(theta, tau, m, inst.g.lipschitz,
                               spec.sigma_min, spec.sigma_plus,
                               beta_bar=inst.beta_bar)
    if g_kind == "linearized":
        ata = inst.A.T @ inst.A
        alpha = 1.05 * beta * float(np.linalg.eigvalsh(ata)[-1])
        G = LinearizedG(alpha)
    elif g_kind == "zero":
        G = ZeroG()
    else:
        G = g_kind
    return SolverConfig(theta=theta, beta=beta, tau=tau, G=G, rho=rho,
                        max_iters=max_iters, certify=certify)


def default_start(inst):
    """The library's default start policy ("zeros")."""
    return resolve_start(None, inst)


def reference_probes(inst, samples=200, seed=0):
    """The sampled assumption probes, evaluated one point at a time.

    Draws the same sample pairs and Taylor directions as validate_assumptions
    and returns (worst secant ratio, worst curvature slack, worst Taylor
    ratio, worst coordinate finite-difference ratio) from per-point
    ``gradient`` / ``value`` calls.  The last is an independent gradient
    check: a central difference per coordinate, with its own budget.
    """
    rng = np.random.default_rng(seed)
    p = inst.dims[1]
    g = inst.g
    # Row-space basis from a factorization of its own, not the library's.
    _, s, Vt = np.linalg.svd(inst.B, full_matrices=False)
    basis = Vt[s > 1e-12 * s.max(initial=0.0)].T

    def proj(v):
        return basis @ (basis.T @ v) if basis.shape[1] else np.zeros_like(v)

    L, m = float(g.lipschitz), float(g.weak_convexity)
    worst_secant = worst_curv = worst_fd = 0.0
    taylor_points = []
    for i in range(samples):
        radius = 10.0 ** rng.uniform(-1.0, 1.0)
        y = radius * rng.standard_normal(p)
        y2 = y + radius * rng.standard_normal(p)
        dy = y2 - y
        nrm = np.linalg.norm(dy)
        if nrm == 0.0:
            continue
        gy, gy2 = g.gradient(y), g.gradient(y2)
        secant = np.linalg.norm(proj(gy2) - proj(gy))
        worst_secant = max(worst_secant, secant / max(L * nrm, 1e-300))
        curv = g.value(y2) - g.value(y) - gy @ dy + (0.5 * m + 1e-8) * nrm ** 2
        worst_curv = min(worst_curv, curv) if i else curv
        if i < 8:
            taylor_points.append((i, y))
            worst_fd = max(worst_fd, _fd_gradient_ratio(g, y))
    # The directions are drawn after all sample pairs, 4 per sample point.
    directions = rng.standard_normal((min(samples, 8), 4, p))
    worst_taylor = max((_taylor_ratio(g, y, d / np.linalg.norm(d))
                        for i, y in taylor_points for d in directions[i]), default=0.0)
    return float(worst_secant), float(worst_curv), float(worst_taylor), float(worst_fd)


def _taylor_ratio(g, y, d):
    """The Taylor test of grad g at y along the unit direction d, as a
    multiple of its budget: the Richardson extrapolation of the forward
    differences at steps h, h/2 and h/4 against <grad g(y), d>."""
    h = 1e-4 * max(1.0, np.linalg.norm(y) / np.sqrt(y.shape[0]))
    g0, slope = float(g.value(y)), float(g.gradient(y) @ d)
    steps = (h, h / 2, h / 4)
    vals = [float(g.value(y + s * d)) for s in steps]
    f1, f2, f4 = ((v - g0) / s for v, s in zip(vals, steps))
    err = abs((8.0 * f4 - 6.0 * f2 + f1) / 3.0 - slope)
    budget = 1e-8 * abs(slope) + 1024 * np.finfo(float).eps * (
        max(abs(v) for v in vals) + abs(g0)) / (h / 4)
    return err / max(budget, 1e-300)


def _fd_gradient_ratio(g, y):
    grad = g.gradient(y)
    fd = np.empty_like(grad)
    for i in range(y.shape[0]):
        h = 1e-6 * (1.0 + abs(y[i]))
        e = np.zeros_like(y)
        e[i] = h
        fd[i] = (g.value(y + e) - g.value(y - e)) / (2.0 * h)
    budget = max(1e-6, 1e-4 * np.linalg.norm(grad))
    return float(np.linalg.norm(fd - grad) / budget)


def newton_reference(g, H0, e, y0, iters=50):
    """Minimizer of g(y) + 0.5 y^T H0 y + <e, y> by damped Newton that forms
    and solves hess g(y) + H0 afresh at every step, with no held factor and
    no stopping budget: it stops once the gradient norm stops decreasing.
    Returns the iterate and its gradient norm."""
    def phi(y):
        return g.value(y) + 0.5 * float(y @ (H0 @ y)) + float(e @ y)

    def grad(y):
        return g.gradient(y) + H0 @ y + e

    y = np.array(y0, dtype=float)
    gnorm = np.linalg.norm(grad(y))
    for _ in range(iters):
        step = -np.linalg.solve(g.hessian(y) + H0, grad(y))
        t = 1.0
        while phi(y + t * step) > phi(y) + 1e-4 * t * float(grad(y) @ step) \
                and t > 1e-10:
            t *= 0.5
        y_next = y + t * step
        gnorm_next = np.linalg.norm(grad(y_next))
        if not gnorm_next < gnorm:
            break
        y, gnorm = y_next, gnorm_next
    return y, float(gnorm)
