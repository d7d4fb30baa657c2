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
slack >= -tolerance" holds uniformly.  The checks of a run form one
columnar Checks value, a sequence of problem.CheckResult rows (the row type
assumption validation returns too); whole-run checks have iteration None.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
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

# The checks of one iteration, in certificate order.
STEP_CHECKS = ("descent-x", "descent-y", "ascent-lambda", "dual-recursion",
               "drift-bound", "coupling-bound", "merit-decrease", "merit-nonneg",
               "eta-nonneg", "theta2-nonpos", "primal-residual-identity",
               "dual-residual-identity", "x-inclusion", "cumulative-bound")


def _tolerance(scale, inner_tol: float):
    """Tolerance of a check whose compared quantities have magnitude scale
    (a float, or an array of them)."""
    return ABS_TOL + REL_TOL * scale + INNER_SLACK * inner_tol * scale


def _norm(v: np.ndarray) -> float:
    """||v||, the same bits as np.linalg.norm for a real vector."""
    return math.sqrt(float(v @ v))


def _step_energy(c: DerivedConstants, dx_g_sq: float, dy_sq: float,
                 dlam_sq: float) -> float:
    """0.5 ||dx||_G^2 + delta1 ||dy||^2 + delta2 ||dlam||^2 of one iteration."""
    return 0.5 * dx_g_sq + c.delta1 * dy_sq + c.delta2 * dlam_sq


class Checks(Sequence):
    """Certificate rows as columns: row i is CheckResult(names[name[i]],
    slack[i], tolerance[i], iteration[i]), an iteration below 0 standing for
    None.  Iterating or indexing yields CheckResult rows."""

    def __init__(self, names, name, iteration, slack, tolerance):
        self.names = tuple(names)
        self.name = np.asarray(name, dtype=np.intp)
        self.iteration = np.asarray(iteration, dtype=np.int64)
        self.slack = np.asarray(slack, dtype=float)
        self.tolerance = np.asarray(tolerance, dtype=float)

    @classmethod
    def from_rows(cls, rows) -> Checks:
        """The Checks of a list of CheckResult rows."""
        rows = list(rows)
        return cls([r.name for r in rows], range(len(rows)),
                   [-1 if r.iteration is None else r.iteration for r in rows],
                   [r.slack for r in rows], [r.tolerance for r in rows])

    @property
    def passed(self) -> np.ndarray:
        return self.slack >= -self.tolerance

    def __len__(self) -> int:
        return len(self.slack)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        k = int(self.iteration[i])
        return CheckResult(self.names[self.name[i]], float(self.slack[i]),
                           float(self.tolerance[i]), None if k < 0 else k)

    def __iter__(self):
        for n, k, s, t in zip(self.name.tolist(), self.iteration.tolist(),
                              self.slack.tolist(), self.tolerance.tolist()):
            yield CheckResult(self.names[n], s, t, None if k < 0 else k)


def summarize(checks: Checks) -> dict:
    """Counts and the worst margin slack + tolerance; the worst is the row
    min(checks, key=margin) picks: a NaN first margin, else the first least
    of the others (a later NaN never compares below)."""
    with np.errstate(invalid="ignore"):   # -inf + inf is NaN, as for floats
        margin = checks.slack + checks.tolerance
    passed = int(np.count_nonzero(checks.passed))
    worst = None if not len(checks) else 0 if math.isnan(margin[0]) \
        else int(np.nanargmin(margin))
    return {"checks": len(checks), "passed": passed, "failed": len(checks) - passed,
            "worst_check": None if worst is None else checks.names[checks.name[worst]],
            "worst_margin": None if worst is None else float(margin[worst])}


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
        # Per step and check of STEP_CHECKS: its slack, then the scale of its
        # model tolerance or, where _model is False, its own budget.
        self._cols = array("d")
        own = {"primal-residual-identity", "dual-residual-identity"} \
            | ({"x-inclusion"} if xstep.route == "prox" else set())
        self._model = np.array([name not in own for name in STEP_CHECKS])

    def observe(self, rec: IterateRecord, products: StepProducts) -> None:
        """Run all per-iteration checks against the newest record.

        products holds what the step computed for rec; no oracle is called
        here, and each squared norm is formed once.  The identity checks keep
        an independent side: the y-step identity forms beta B^T (B dy) + tau dy,
        the x-inclusion forms P x + q (or re-solves the prox) and A^T lam_hat,
        and the primal identity takes ||dlam|| itself.
        """
        c, inst = self.c, self.inst
        beta, theta, tau = c.beta, c.theta, c.tau
        prev, prev_products, (prev_dy_sq, w_prev_sq) = self._prev
        L_mid_x = _aug_lagrangian_value(products.f_value, prev_products.g_value,
                                        prev.lam, products.r_half, beta)
        L_mid_y = _aug_lagrangian_value(products.f_value, products.g_value,
                                        prev.lam, products.r, beta)
        dx_g_sq = float(rec.dx @ products.g_dx)
        dy_sq = float(rec.dy @ rec.dy)
        dlam_sq = float(rec.dlam @ rec.dlam)
        bound_y = 0.5 * (inst.g.weak_convexity - beta * c.spectral.sigma_min - tau) * dy_sq
        lam_gain = dlam_sq / (theta * beta)
        grad, w = products.grad, products.w
        u = grad - prev_products.grad + tau * (rec.dy - prev.dy)
        u_sq, w_sq = float(u @ u), float(w @ w)
        theta1 = dlam_sq / (beta * theta) + 0.5 * c.c1 * (w_sq - w_prev_sq)
        drift_bound = c.gamma / (beta * c.spectral.sigma_plus) * u_sq
        coupling_bound = 3.0 * (inst.g.lipschitz ** 2 + tau ** 2) * (dy_sq + prev_dy_sq)
        dual_vec = (products.dual_resid
                    + beta * (inst.B.T @ (inst.B @ rec.dy)) + tau * rec.dy)
        energy = _step_energy(c, dx_g_sq, dy_sq, dlam_sq)
        self._energies.append(energy)
        self._cum += energy
        # (slack, scale or budget) of each of STEP_CHECKS, in one extend per
        # step: an append per check, growing a long list between the step's
        # array temporaries, raised peak RSS by 1.5 MB on box-cos at p = l = 300.
        self._cols.extend((
            # Descent split of the augmented Lagrangian across the three updates.
            (prev.L_beta - L_mid_x) - 0.5 * dx_g_sq,
            max(1.0, abs(prev.L_beta), abs(L_mid_x), dx_g_sq),
            bound_y - (L_mid_y - L_mid_x), max(1.0, abs(L_mid_x), abs(L_mid_y), abs(bound_y)),
            -abs((rec.L_beta - L_mid_y) - lam_gain),
            max(1.0, abs(rec.L_beta), abs(L_mid_y), lam_gain),
            # Dual-step recursion seeded by the dual-seed program, drift bound on
            # the dual increment and coupling bound on u.
            -_norm(w - (1.0 - theta) * prev_products.w - theta * u),
            max(1.0, math.sqrt(w_sq), math.sqrt(w_prev_sq), math.sqrt(u_sq)),
            drift_bound - theta1, max(1.0, abs(theta1), drift_bound),
            coupling_bound - u_sq, max(1.0, u_sq, coupling_bound),
            # Merit monotonicity with the admissibility margin, nonnegativity,
            # and Theta2 = -kappa (||dy||^2 + ||dy_prev||^2) <= 0.
            (prev.merit - rec.merit) - 0.5 * dx_g_sq - c.delta1 * (dy_sq + prev_dy_sq),
            self.merit_scale, rec.merit, self.merit_scale, rec.eta, 1.0,
            c.kappa * (dy_sq + prev_dy_sq), 1.0,
            # Exact identities linking residuals to step differences.
            -abs(rec.res_primal - math.sqrt(dlam_sq) / (beta * theta)),
            1e-9 * max(1.0, rec.res_primal), -_norm(dual_vec),
            ABS_TOL + INNER_SLACK * max(rec.inner_budget,
                                        self.inner_tol * max(1.0, _norm(grad))),
            *self._inclusion(rec, products.g_dx),
            self.bound_3m - self._cum, max(1.0, self.bound_3m)))
        self._prev = rec, products, (dy_sq, w_sq)

    def _inclusion(self, rec: IterateRecord, g_dx) -> tuple[float, float]:
        """Slack and scale (or budget) of the first block's stationarity
        inclusion, certified through the route that solved the subproblem."""
        s = -g_dx + self.inst.A.T @ rec.lam_hat
        f = self.inst.f
        if self.xstep.route == "quadratic":
            return -_norm(f.P @ rec.x + f.q - s), max(1.0, _norm(s))
        again = f.scaled_prox(rec.x + s / self.xstep.alpha, self.xstep.alpha)
        return -_norm(again - rec.x), INCLUSION_TOL

    def finalize(self, trace: list[IterateRecord]) -> Checks:
        """All checks: the start's merit-nonneg row, the steps observed, then
        the whole-run checks (rate bounds at the final index, special regimes)."""
        ends = [CheckResult("merit-nonneg", self.start.merit,
                            _tolerance(self.merit_scale, self.inner_tol), 0)]
        if trace:
            ends += _rate_bounds(trace, self.c, self.xstep.G, self._energies,
                                 self.start.delta, self.inner_tol)
        ends = Checks.from_rows(ends + self._strong_regime_checks())
        n = len(STEP_CHECKS)
        steps = np.frombuffer(self._cols, dtype=float).reshape(-1, n, 2)
        k, scale = len(steps), steps[:, :, 1]
        tol = np.where(self._model, _tolerance(scale, self.inner_tol), scale)
        # The step rows go between the start row and the whole-run rows.
        return Checks(STEP_CHECKS + ends.names,
                      np.insert(ends.name + n, 1, np.tile(np.arange(n), k)),
                      np.insert(ends.iteration, 1, np.repeat(np.arange(1, k + 1), n)),
                      np.insert(ends.slack, 1, steps[:, :, 0].ravel()),
                      np.insert(ends.tolerance, 1, tol.ravel()))

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
        t = self.inner_tol
        out = [CheckResult("init-gap-nonneg", self.start.delta,
                           _tolerance(self.merit_scale, t))]
        beta_sigma = c.beta * c.spectral.sigma_min   # delta1's bracket: [/8, /4]
        lo, hi = beta_sigma / 8.0, beta_sigma / 4.0
        out.append(CheckResult("delta1-bracket", min(c.delta1 - lo, hi - c.delta1),
                               _tolerance(max(1.0, hi), t)))
        inv_d2 = 1.0 / c.delta2
        bt = c.beta * c.theta
        out.append(CheckResult("delta2-bracket", min(inv_d2 - bt, 3.0 * bt - inv_d2),
                               _tolerance(max(1.0, 3.0 * bt), t)))
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
