"""Runtime certification of the per-iteration inequalities and rate bounds.

Every analytic statement the convergence guarantee rests on is re-evaluated
numerically on the trace: the three-way descent split of the augmented
Lagrangian, the dual-step recursion, the drift and coupling bounds, merit
monotonicity and nonnegativity, the cumulative step-energy bound, the
stationarity inclusion of the first block, and the best-iterate rate bounds.

Tolerance model: a check passes when its slack is at least
-(1e-10 + 1e-8 * scale + 10 * inner_tol * scale), where scale is the natural
magnitude of the quantities compared.  Statements that hold in exact
arithmetic are checked in floating point, and the inner solver of the smooth
subproblem is exact only to inner_tol; the model absorbs both.  Three checks
have budgets of their own: primal-residual-identity 1e-9 * max(1, res_primal);
dual-residual-identity 1e-10 + 10 * max(inner_budget, inner_tol *
max(1, ||grad g(y+)||)); and x-inclusion on the prox route INCLUSION_TOL.
Equalities are encoded with slack = -|lhs - rhs| so that "pass iff
slack >= -tolerance" holds uniformly.  Each check is a problem.CheckResult,
the row type assumption validation returns too; whole-run checks have
iteration None.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .params import DerivedConstants, strong_penalty_check
from .problem import CheckResult, ProblemInstance, _aug_lagrangian_value

if TYPE_CHECKING:
    from .solver import IterateRecord, StartRecord, StepProducts, _XStep

# Absolute and relative floors of the tolerance model.
ABS_TOL = 1e-10
REL_TOL = 1e-8
INNER_SLACK = 10.0

# Literal budget of the prox fixed-point stationarity certificate.
INCLUSION_TOL = 1e-9


def _tolerance(scale: float, inner_tol: float) -> float:
    """Tolerance of a check whose compared quantities have magnitude scale."""
    return ABS_TOL + REL_TOL * scale + INNER_SLACK * inner_tol * scale


def _step_energy(c: DerivedConstants, dx_g_sq: float, dy_sq: float,
                 dlam_sq: float) -> float:
    """0.5 ||dx||_G^2 + delta1 ||dy||^2 + delta2 ||dlam||^2 of one iteration."""
    return 0.5 * dx_g_sq + c.delta1 * dy_sq + c.delta2 * dlam_sq


def summarize(checks) -> dict:
    worst = min(checks, key=lambda c: c.slack + c.tolerance, default=None)
    return {
        "checks": len(checks),
        "passed": sum(1 for c in checks if c.passed),
        "failed": sum(1 for c in checks if not c.passed),
        "worst_check": worst.name if worst else None,
        "worst_margin": (worst.slack + worst.tolerance) if worst else None,
    }


class Certifier:
    """Streaming checker; feed records in order, then finalize on the trace."""

    def __init__(self, inst: ProblemInstance, constants: DerivedConstants,
                 start: StartRecord, xstep: _XStep, inner_tol: float):
        self.inst = inst
        self.c = constants
        self.start = start
        self.xstep = xstep
        self.inner_tol = inner_tol
        self.merit_scale = 1.0 + abs(start.merit)
        self.bound_3m = 3.0 * max(start.delta, start.eta)
        self._cum = 0.0
        self._energies: list[float] = []   # per-iteration step energies
        # The previous step's record, products and (||dy||^2, ||w||^2); the
        # start is step 0, the previous step of step 1.
        self._prev = start, start, (float(start.dy @ start.dy),
                                    float(start.w @ start.w))
        self.results = [CheckResult(
            "merit-nonneg", start.merit, self._tol(self.merit_scale), 0)]

    def _tol(self, scale: float) -> float:
        return _tolerance(scale, self.inner_tol)

    def observe(self, rec: IterateRecord, products: StepProducts) -> None:
        """Run all per-iteration checks against the newest record.

        products holds what the step computed for rec; no oracle is called
        here, and each squared norm is formed once.  The identity checks keep
        an independent side: the y-step identity forms beta B^T (B dy) + tau dy,
        the x-inclusion forms P x + q (or re-solves the prox) and A^T lam_hat,
        and the primal identity takes ||dlam|| itself.
        """
        # One extend per step, not an append per check: growing the long list
        # between the step's array temporaries raised peak RSS by 1.5 MB on
        # box-cos at p = l = 300 (glibc heap layout, CPython 3.11).
        checks = []
        add = checks.append
        c, inst = self.c, self.inst
        beta, theta, tau = c.beta, c.theta, c.tau
        prev, prev_products, (prev_dy_sq, w_prev_sq) = self._prev
        k = rec.k

        # Descent split of the augmented Lagrangian across the three updates.
        L_mid_x = _aug_lagrangian_value(products.f_value, prev_products.g_value,
                                        prev.lam, products.r_half, beta)
        L_mid_y = _aug_lagrangian_value(products.f_value, products.g_value,
                                        prev.lam, products.r, beta)
        dx_g_sq = float(rec.dx @ products.g_dx)
        dy_sq = float(rec.dy @ rec.dy)
        dlam_sq = float(rec.dlam @ rec.dlam)
        m = inst.g.weak_convexity
        scale_a = max(1.0, abs(prev.L_beta), abs(L_mid_x), dx_g_sq)
        add(CheckResult("descent-x", (prev.L_beta - L_mid_x) - 0.5 * dx_g_sq,
                        self._tol(scale_a), k))
        bound_y = 0.5 * (m - beta * c.spectral.sigma_min - tau) * dy_sq
        scale_b = max(1.0, abs(L_mid_x), abs(L_mid_y), abs(bound_y))
        add(CheckResult("descent-y", bound_y - (L_mid_y - L_mid_x),
                        self._tol(scale_b), k))
        lam_gain = dlam_sq / (theta * beta)
        scale_c = max(1.0, abs(rec.L_beta), abs(L_mid_y), lam_gain)
        add(CheckResult("ascent-lambda", -abs((rec.L_beta - L_mid_y) - lam_gain),
                        self._tol(scale_c), k))

        # Dual-step recursion seeded by the dual-seed program.
        grad, w, w_prev = products.grad, products.w, prev_products.w
        u = grad - prev_products.grad + tau * (rec.dy - prev.dy)
        u_sq = float(u @ u)
        w_sq = float(w @ w)
        rec_resid = float(np.linalg.norm(w - (1.0 - theta) * w_prev - theta * u))
        scale_r = max(1.0, math.sqrt(w_sq), math.sqrt(w_prev_sq), math.sqrt(u_sq))
        add(CheckResult("dual-recursion", -rec_resid, self._tol(scale_r), k))

        # Drift bound on the dual increment and coupling bound on u.
        theta1 = dlam_sq / (beta * theta) + 0.5 * c.c1 * (w_sq - w_prev_sq)
        drift_bound = c.gamma / (beta * c.spectral.sigma_plus) * u_sq
        add(CheckResult("drift-bound", drift_bound - theta1,
                        self._tol(max(1.0, abs(theta1), drift_bound)), k))
        L_g = inst.g.lipschitz
        coupling_bound = 3.0 * (L_g ** 2 + tau ** 2) * (dy_sq + prev_dy_sq)
        add(CheckResult("coupling-bound", coupling_bound - u_sq,
                        self._tol(max(1.0, u_sq, coupling_bound)), k))

        # Merit monotonicity with the admissibility margin, and nonnegativity.
        theta2 = -c.kappa * (dy_sq + prev_dy_sq)
        decrease = (prev.merit - rec.merit) \
            - 0.5 * dx_g_sq - c.delta1 * (dy_sq + prev_dy_sq)
        add(CheckResult("merit-decrease", decrease, self._tol(self.merit_scale), k))
        add(CheckResult("merit-nonneg", rec.merit, self._tol(self.merit_scale), k))
        add(CheckResult("eta-nonneg", rec.eta, self._tol(1.0), k))
        add(CheckResult("theta2-nonpos", -theta2, self._tol(1.0), k))

        # Exact identities linking residuals to step differences.
        prim_id = abs(rec.res_primal - math.sqrt(dlam_sq) / (beta * theta))
        add(CheckResult("primal-residual-identity", -prim_id,
                        1e-9 * max(1.0, rec.res_primal), k))
        dual_vec = (products.dual_resid
                    + beta * (inst.B.T @ (inst.B @ rec.dy)) + tau * rec.dy)
        add(CheckResult("dual-residual-identity", -float(np.linalg.norm(dual_vec)),
                        ABS_TOL + INNER_SLACK * max(
                            rec.inner_budget,
                            self.inner_tol * max(1.0, float(np.linalg.norm(grad)))),
                        k))

        # Stationarity inclusion of the first block, certified through the
        # route that solved the subproblem.
        add(self._inclusion_check(rec, products.g_dx))

        # Cumulative step-energy bound.
        energy = _step_energy(c, dx_g_sq, dy_sq, dlam_sq)
        self._energies.append(energy)
        self._cum += energy
        add(CheckResult("cumulative-bound", self.bound_3m - self._cum,
                        self._tol(max(1.0, self.bound_3m)), k))

        self._prev = rec, products, (dy_sq, w_sq)
        self.results.extend(checks)

    def _inclusion_check(self, rec: IterateRecord, g_dx) -> CheckResult:
        s = -g_dx + self.inst.A.T @ rec.lam_hat
        f = self.inst.f
        if self.xstep.route == "quadratic":
            resid = float(np.linalg.norm(f.P @ rec.x + f.q - s))
            return CheckResult("x-inclusion", -resid,
                               self._tol(max(1.0, float(np.linalg.norm(s)))), rec.k)
        again = f.scaled_prox(rec.x + s / self.xstep.alpha, self.xstep.alpha)
        resid = float(np.linalg.norm(again - rec.x))
        return CheckResult("x-inclusion", -resid, INCLUSION_TOL, rec.k)

    def finalize(self, trace: list[IterateRecord]) -> list[CheckResult]:
        """Whole-run checks: rate bounds at the final index, special regimes."""
        if trace:
            self.results.extend(_rate_bounds(
                trace, self.c, self.xstep.G, self._energies, self.start.delta,
                self.inner_tol))
        self.results.extend(self._strong_regime_checks())
        return self.results

    def _strong_regime_checks(self) -> list[CheckResult]:
        c = self.c
        n, p, l = self.inst.dims
        if not (c.tau == 0.0 and not self.xstep.G.any()
                and l == p and c.spectral.sigma_min > 0):
            return []
        grad0 = self.start.grad
        incons = float(np.linalg.norm(self.inst.B.T @ self.start.lam - grad0))
        if incons > 1e-8 * max(1.0, float(np.linalg.norm(grad0))):
            return []
        if not strong_penalty_check(c.beta, c.spectral.sigma_min,
                                    self.inst.g.weak_convexity, c.gamma,
                                    self.inst.g.lipschitz).passed:
            return []
        out = [CheckResult("init-gap-nonneg", self.start.delta,
                           self._tol(self.merit_scale))]
        beta_sigma = c.beta * c.spectral.sigma_min   # delta1's bracket: [/8, /4]
        lo, hi = beta_sigma / 8.0, beta_sigma / 4.0
        out.append(CheckResult("delta1-bracket", min(c.delta1 - lo, hi - c.delta1),
                               self._tol(max(1.0, hi))))
        inv_d2 = 1.0 / c.delta2
        bt = c.beta * c.theta
        out.append(CheckResult("delta2-bracket", min(inv_d2 - bt, 3.0 * bt - inv_d2),
                               self._tol(max(1.0, 3.0 * bt))))
        return out


def rate_bound_checks(trace: list[IterateRecord], constants: DerivedConstants,
                      G: np.ndarray, delta0_value: float, k: int,
                      inner_tol: float = 1e-12) -> list[CheckResult]:
    """Best-iterate bounds after k iterations, at the minimum-energy index.

    The certified index is the argmin over j <= k of the weighted step
    energy (ties resolved to the smallest j); all three residual bounds with
    the constant max(eta0, delta0) must hold there, together with the
    cumulative energy bound.
    """
    if not 1 <= k <= len(trace):
        raise ValueError(f"k must lie in [1, {len(trace)}], got {k}")
    energies = [_step_energy(constants, float(r.dx @ (G @ r.dx)),
                             float(r.dy @ r.dy), float(r.dlam @ r.dlam))
                for r in trace[:k]]
    return _rate_bounds(trace, constants, G, energies, delta0_value, inner_tol)


def _rate_bounds(trace, c: DerivedConstants, G, energies: list[float],
                 delta0_value: float, inner_tol: float) -> list[CheckResult]:
    """rate_bound_checks at k = len(energies), given the step energy of
    each of the first k records."""
    k = len(energies)
    big_m = max(c.eta0, delta0_value)
    j_star = int(np.argmin(energies)) + 1
    rec = trace[j_star - 1]

    bound_x = math.sqrt(6.0 * big_m / k)
    obs_x = math.sqrt(max(0.0, float(rec.dx @ (G @ rec.dx))))
    bound_dual = (c.beta * c.spectral.norm_mtm + c.tau) \
        * math.sqrt(3.0 * big_m / (c.delta1 * k))
    bound_primal = math.sqrt(3.0 * big_m / (c.delta2 * k)) / (c.beta * c.theta)
    return [
        CheckResult(f"rate-x@{k}", bound_x - obs_x,
                    _tolerance(max(1.0, bound_x), inner_tol)),
        CheckResult(f"rate-dual@{k}", bound_dual - rec.res_dual_y,
                    _tolerance(max(1.0, bound_dual), inner_tol)),
        CheckResult(f"rate-primal@{k}", bound_primal - rec.res_primal,
                    _tolerance(max(1.0, bound_primal), inner_tol)),
        CheckResult(f"cumulative-bound@{k}", 3.0 * big_m - float(np.sum(energies)),
                    _tolerance(max(1.0, 3.0 * big_m), inner_tol)),
    ]
