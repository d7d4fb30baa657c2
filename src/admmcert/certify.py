"""Runtime certification of the per-iteration inequalities and rate bounds.

Every analytic statement the convergence guarantee rests on is re-evaluated
numerically on the trace: the three-way descent split of the augmented
Lagrangian, the dual-step recursion, the drift and coupling bounds, merit
monotonicity and nonnegativity, the cumulative step-energy bound, the
stationarity inclusion of the first block, and the best-iterate rate bounds.

Tolerance model: every check passes when its slack is at least
-(1e-10 + 1e-8 * scale + 10 * inner_tol * scale), where scale is the natural
magnitude of the quantities compared.  Statements that hold in exact
arithmetic are checked in floating point, and the inner solver of the smooth
subproblem is exact only to inner_tol; the model absorbs both.  Equalities
are encoded with slack = -|lhs - rhs| so that "pass iff slack >= -tolerance"
holds uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import DerivedConstants, strong_penalty_check
from .problem import ProblemInstance, _aug_lagrangian_value
from .solver import IterateRecord, SolverConfig, StartRecord, StepProducts, _XStep

# Absolute and relative floors of the tolerance model.
ABS_TOL = 1e-10
REL_TOL = 1e-8
INNER_SLACK = 10.0

# Literal budget of the prox fixed-point stationarity certificate.
INCLUSION_TOL = 1e-9


@dataclass(frozen=True)
class CheckResult:
    """One certified statement; passes iff slack >= -tolerance."""

    name: str
    slack: float
    tolerance: float
    passed: bool
    iteration: int | None = None   # None marks a whole-run check

    @staticmethod
    def of(name: str, slack: float, tolerance: float,
           iteration: int | None = None) -> "CheckResult":
        return CheckResult(name=name, slack=float(slack), tolerance=float(tolerance),
                           passed=bool(slack >= -tolerance), iteration=iteration)


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

    def __init__(self, inst: ProblemInstance, config: SolverConfig,
                 constants: DerivedConstants, G: np.ndarray,
                 start: StartRecord, xstep: _XStep):
        self.inst = inst
        self.config = config
        self.c = constants
        self.G = G
        self.start = start
        self.xstep = xstep
        self.results: list[CheckResult] = []
        self.merit_scale = 1.0 + abs(start.merit)
        self.bound_3m = 3.0 * max(start.delta, start.eta)
        self._cum = 0.0
        self._energies: list[float] = []   # per-iteration step energies
        self._prev_lam = start.lam
        self._prev_gval = start.g_value
        self._prev_L = start.L_beta
        self._prev_merit = start.merit
        self._prev_grad = start.grad
        self._prev_dy = start.dy0
        self._w_prev = start.w0
        self.results.append(CheckResult.of(
            "merit-nonneg", start.merit, self._tol(self.merit_scale), iteration=0))

    def _tol(self, scale: float) -> float:
        return _tolerance(scale, self.config.inner_tol)

    def observe(self, rec: IterateRecord, products: StepProducts) -> list[CheckResult]:
        """Run all per-iteration checks against the newest record.

        products holds what the step computed for rec; no oracle is called
        here.  The identity checks keep an independent side: the y-step
        identity forms beta B^T (B dy) + tau dy, the x-inclusion forms P x + q
        (or re-solves the prox) and A^T lam_hat, and the primal identity
        takes ||dlam|| itself.
        """
        out = []
        c, inst = self.c, self.inst
        beta, theta, tau = c.beta, c.theta, c.tau
        k = rec.k

        # Descent split of the augmented Lagrangian across the three updates.
        L_mid_x = _aug_lagrangian_value(products.f_value, self._prev_gval,
                                        self._prev_lam, products.r_half, beta)
        L_mid_y = _aug_lagrangian_value(products.f_value, products.g_value,
                                        self._prev_lam, products.r, beta)
        dx_g_sq = float(rec.dx @ products.g_dx)
        dy_sq = float(rec.dy @ rec.dy)
        dlam_sq = float(rec.dlam @ rec.dlam)
        m = inst.g.weak_convexity
        scale_a = max(1.0, abs(self._prev_L), abs(L_mid_x), dx_g_sq)
        out.append(CheckResult.of(
            "descent-x", (self._prev_L - L_mid_x) - 0.5 * dx_g_sq,
            self._tol(scale_a), k))
        bound_y = 0.5 * (m - beta * c.spectral.sigma_min - tau) * dy_sq
        scale_b = max(1.0, abs(L_mid_x), abs(L_mid_y), abs(bound_y))
        out.append(CheckResult.of(
            "descent-y", bound_y - (L_mid_y - L_mid_x), self._tol(scale_b), k))
        lam_gain = dlam_sq / (theta * beta)
        scale_c = max(1.0, abs(rec.L_beta), abs(L_mid_y), lam_gain)
        out.append(CheckResult.of(
            "ascent-lambda", -abs((rec.L_beta - L_mid_y) - lam_gain),
            self._tol(scale_c), k))

        # Dual-step recursion seeded by the dual-seed program.
        grad = products.grad
        u = grad - self._prev_grad + tau * (rec.dy - self._prev_dy)
        w = products.w
        rec_resid = float(np.linalg.norm(w - (1.0 - theta) * self._w_prev - theta * u))
        scale_r = max(1.0, float(np.linalg.norm(w)),
                      float(np.linalg.norm(self._w_prev)), float(np.linalg.norm(u)))
        out.append(CheckResult.of("dual-recursion", -rec_resid, self._tol(scale_r), k))

        # Drift bound on the dual increment and coupling bound on u.
        u_sq = float(u @ u)
        theta1 = (dlam_sq / (beta * theta)
                  + 0.5 * c.c1 * (float(w @ w) - float(self._w_prev @ self._w_prev)))
        drift_bound = c.gamma / (beta * c.spectral.sigma_plus) * u_sq
        out.append(CheckResult.of(
            "drift-bound", drift_bound - theta1,
            self._tol(max(1.0, abs(theta1), drift_bound)), k))
        prev_dy_sq = float(self._prev_dy @ self._prev_dy)
        L_g = inst.g.lipschitz
        coupling_bound = 3.0 * (L_g ** 2 + tau ** 2) * (dy_sq + prev_dy_sq)
        out.append(CheckResult.of(
            "coupling-bound", coupling_bound - u_sq,
            self._tol(max(1.0, u_sq, coupling_bound)), k))

        # Merit monotonicity with the admissibility margin, and nonnegativity.
        theta2 = -c.kappa * (dy_sq + prev_dy_sq)
        decrease = (self._prev_merit - rec.merit) \
            - 0.5 * dx_g_sq - c.delta1 * (dy_sq + prev_dy_sq)
        out.append(CheckResult.of(
            "merit-decrease", decrease, self._tol(self.merit_scale), k))
        out.append(CheckResult.of(
            "merit-nonneg", rec.merit, self._tol(self.merit_scale), k))
        out.append(CheckResult.of("eta-nonneg", rec.eta, self._tol(1.0), k))
        out.append(CheckResult.of("theta2-nonpos", -theta2, self._tol(1.0), k))

        # Exact identities linking residuals to step differences.
        prim_id = abs(rec.res_primal - float(np.linalg.norm(rec.dlam)) / (beta * theta))
        out.append(CheckResult.of(
            "primal-residual-identity", -prim_id,
            1e-9 * max(1.0, rec.res_primal), k))
        dual_vec = (products.dual_resid
                    + beta * (inst.B.T @ (inst.B @ rec.dy)) + tau * rec.dy)
        out.append(CheckResult.of(
            "dual-residual-identity", -float(np.linalg.norm(dual_vec)),
            ABS_TOL + INNER_SLACK * max(rec.inner_budget,
                                        self.config.inner_tol
                                        * max(1.0, float(np.linalg.norm(grad)))), k))

        # Stationarity inclusion of the first block, certified through the
        # route that solved the subproblem.
        out.append(self._inclusion_check(rec, products.g_dx))

        # Cumulative step-energy bound.
        energy = _step_energy(c, dx_g_sq, dy_sq, dlam_sq)
        self._energies.append(energy)
        self._cum += energy
        out.append(CheckResult.of(
            "cumulative-bound", self.bound_3m - self._cum,
            self._tol(max(1.0, self.bound_3m)), k))

        self._prev_lam, self._prev_gval = rec.lam, products.g_value
        self._prev_L, self._prev_merit = rec.L_beta, rec.merit
        self._prev_grad, self._prev_dy, self._w_prev = grad, rec.dy, w
        self.results.extend(out)
        return out

    def _inclusion_check(self, rec: IterateRecord, g_dx) -> CheckResult:
        s = -g_dx + self.inst.A.T @ rec.lam_hat
        f = self.inst.f
        if self.xstep.route == "quadratic":
            resid = float(np.linalg.norm(f.P @ rec.x + f.q - s))
            return CheckResult.of("x-inclusion", -resid,
                                  self._tol(max(1.0, float(np.linalg.norm(s)))),
                                  rec.k)
        again = f.scaled_prox(rec.x + s / self.xstep.alpha, self.xstep.alpha)
        resid = float(np.linalg.norm(again - rec.x))
        return CheckResult.of("x-inclusion", -resid, INCLUSION_TOL, rec.k)

    def finalize(self, trace: list[IterateRecord]) -> list[CheckResult]:
        """Whole-run checks: rate bounds at the final index, special regimes."""
        if trace:
            self.results.extend(_rate_bounds(
                trace, self.c, self.G, self._energies, self.start.delta,
                self.config.inner_tol))
        self.results.extend(self._strong_regime_checks())
        return self.results

    def _strong_regime_checks(self) -> list[CheckResult]:
        c = self.c
        n, p, l = self.inst.dims
        if not (self.config.tau == 0.0 and not self.G.any()
                and l == p and c.spectral.sigma_min > 0):
            return []
        grad0 = self.start.grad
        incons = float(np.linalg.norm(self.inst.B.T @ self.start.lam - grad0))
        if incons > 1e-8 * max(1.0, float(np.linalg.norm(grad0))):
            return []
        _, passed = strong_penalty_check(c.beta, c.spectral.sigma_min,
                                         self.inst.g.weak_convexity, c.gamma,
                                         self.inst.g.lipschitz)
        if not passed:
            return []
        out = [CheckResult.of("init-gap-nonneg", self.start.delta,
                              self._tol(self.merit_scale))]
        beta_sigma = c.beta * c.spectral.sigma_min   # delta1's bracket: [/8, /4]
        lo, hi = beta_sigma / 8.0, beta_sigma / 4.0
        out.append(CheckResult.of(
            "delta1-bracket", min(c.delta1 - lo, hi - c.delta1),
            self._tol(max(1.0, hi))))
        inv_d2 = 1.0 / c.delta2
        bt = c.beta * c.theta
        out.append(CheckResult.of(
            "delta2-bracket", min(inv_d2 - bt, 3.0 * bt - inv_d2),
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

    out = []
    bound_x = math.sqrt(6.0 * big_m / k)
    obs_x = math.sqrt(max(0.0, float(rec.dx @ (G @ rec.dx))))
    out.append(CheckResult.of(f"rate-x@{k}", bound_x - obs_x,
                              _tolerance(max(1.0, bound_x), inner_tol)))
    bound_dual = (c.beta * c.spectral.norm_mtm + c.tau) \
        * math.sqrt(3.0 * big_m / (c.delta1 * k))
    out.append(CheckResult.of(f"rate-dual@{k}", bound_dual - rec.res_dual_y,
                              _tolerance(max(1.0, bound_dual), inner_tol)))
    bound_primal = math.sqrt(3.0 * big_m / (c.delta2 * k)) / (c.beta * c.theta)
    out.append(CheckResult.of(f"rate-primal@{k}", bound_primal - rec.res_primal,
                              _tolerance(max(1.0, bound_primal), inner_tol)))
    out.append(CheckResult.of(f"cumulative-bound@{k}",
                              3.0 * big_m - float(np.sum(energies)),
                              _tolerance(max(1.0, 3.0 * big_m), inner_tol)))
    return out
