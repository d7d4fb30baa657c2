"""Runtime certification of the per-iteration inequalities and rate bounds.

Every analytic statement the convergence guarantee rests on is re-evaluated
numerically on the trace: the three-way descent split of the augmented
Lagrangian, the dual-step recursion, the drift and coupling bounds, merit
monotonicity and nonnegativity, the cumulative step-energy bound, the
stationarity inclusion of the first block, the best-iterate rate bounds, and
the residuals the loop reports.  One function, check_block, takes a block of
steps: it forms every product from the iterates, then the trace's merit
columns and, for a certified run, every check row from the products.  Every
run, certified or not, buffers its iterates in these blocks.

Tolerance model: a check passes when its slack is at least
-(ABS_TOL + REL_TOL * scale + INNER_SLACK * INNER_TOL * scale), where scale
is the natural magnitude of the quantities compared.  Statements that hold in
exact arithmetic are checked in floating point, and the inner solver of the
smooth subproblem is exact only to INNER_TOL; the model absorbs both, and
every term of it is a constant.  Three checks have budgets of their own:
primal-residual-identity 1e-9 * max(1, res_primal); dual-residual-identity
ABS_TOL + INNER_SLACK * max(inner_budget, INNER_TOL * max(1, ||grad g(y+)||));
and x-inclusion on the prox route INCLUSION_TOL.  Equalities are encoded
with slack = -|lhs - rhs| so that "pass iff slack >= -tolerance" holds
uniformly.  The checks of a run form one columnar Checks value, a sequence
of problem.CheckResult rows (the row type assumption validation returns
too); whole-run checks have iteration None.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING

import numpy as np

from .params import DerivedConstants
from .problem import CheckResult, ProblemInstance

if TYPE_CHECKING:
    from .solver import _XStep

# Absolute and relative floors of the tolerance model, and the relative
# gradient target of the Newton y-step, which it absorbs INNER_SLACK times.
ABS_TOL = 1e-10
REL_TOL = 1e-8
INNER_SLACK = 10.0
INNER_TOL = 1e-12

# Literal budget of the prox fixed-point stationarity certificate.
INCLUSION_TOL = 1e-9

# Bytes of (x, y, lam, inner budget) rows in one block of steps; the block's
# temporaries are a small multiple of it.
BLOCK_BYTES = 1 << 20

# The checks of one iteration, in certificate order.
STEP_CHECKS = ("descent-x", "descent-y", "ascent-lambda", "dual-recursion",
               "drift-bound", "coupling-bound", "merit-decrease", "merit-nonneg",
               "eta-nonneg", "theta2-nonpos", "primal-residual-identity",
               "dual-residual-identity", "x-inclusion", "cumulative-bound",
               "trace-consistency")


def _tolerance(scale):
    """Tolerance of a check whose compared quantities have magnitude scale
    (a float, or an array of them)."""
    return ABS_TOL + REL_TOL * scale + INNER_SLACK * INNER_TOL * scale


def _step_energy(c: DerivedConstants, dx_g_sq, dy_sq, dlam_sq):
    """0.5 ||dx||_G^2 + delta1 ||dy||^2 + delta2 ||dlam||^2 of one iteration
    (floats), or of each of several (arrays)."""
    return 0.5 * dx_g_sq + c.delta1 * dy_sq + c.delta2 * dlam_sq


def _rowdot(U, V) -> np.ndarray:
    return np.einsum("ij,ij->i", U, V)


def _rownorm(U) -> np.ndarray:
    return np.sqrt(_rowdot(U, U))


def _max1(*values):   # max(1, values...) elementwise, passing over a NaN as max()
    return reduce(np.fmax, values, 1.0)


class Trace:
    """A run's per-iteration scalars, one float array per name in COLUMNS, from
    rows: a flat float buffer of them row by row.  Entry i is iteration i + 1.
    The loop reports the first four columns; check_block forms the rest."""

    COLUMNS = ("res_primal", "res_dual_y", "res_dual_x", "inner_budget",
               "L_beta", "delta", "eta", "dx_g_sq", "dy_sq", "dlam_sq")

    def __init__(self, rows):
        table = np.frombuffer(rows, dtype=float).reshape(-1, len(self.COLUMNS))
        for name, column in zip(self.COLUMNS, table.T.copy()):   # contiguous columns
            setattr(self, name, column)

    @property
    def merit(self) -> np.ndarray:
        return self.delta + self.eta

    def __len__(self) -> int:
        return len(self.delta)


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


def check_block(inst: ProblemInstance, c: DerivedConstants, start: StartRecord | None,
                xstep: _XStep, X, Y, Lam, T, carry, certify: bool = True):
    """The trace columns, and with certify the check rows, of the m steps
    whose iterates are rows 1..m of X, Y and Lam (row 0: the iterate before
    them).  T holds the same rows of the trace table: the loop reported its
    first four columns, and the other six are written here from the
    iterates.  carry is the dy, the B^T dlam and the summed step energy of
    the step before the block (before step 1: the seed program's dy0 and w0,
    and 0).  Returns the slack and tolerance as a (2, m, len(STEP_CHECKS))
    array, None without certify or without a step, and the next carry."""
    A, B, b, f, g, G = inst.A, inst.B, inst.b, inst.f, inst.g, xstep.G
    beta, theta, tau, m, tol = c.beta, c.theta, c.tau, len(X) - 1, _tolerance
    R, BY = X @ A.T, Y @ B.T   # R holds A x until B y - b is added
    r_half = R[1:] + BY[:-1] - b if certify else None
    R += BY
    R -= b
    del BY
    if xstep.route == "quadratic":
        PX = X @ f.P   # P is symmetric: row i is (P x_i)^T
        f_value = 0.5 * _rowdot(PX, X) + X @ f.q
    else:
        f_value = f.value(X)
    grad = g.gradient(Y)
    # g(y) = 0.5 y . (grad g(y) + c) on the quadratic route: Q is applied once.
    g_value = 0.5 * _rowdot(Y, grad + g.c) if getattr(g, "is_quadratic", False) \
        else g.value(Y)

    def lagrangian(fv, gv, lam, res):
        return fv + gv - _rowdot(lam, res) + 0.5 * beta * _rowdot(res, res)

    L_beta = lagrangian(f_value, g_value, Lam, R)
    if not certify:   # only the check rows read them again
        del R, grad
    dx, dlam = X[1:] - X[:-1], Lam[1:] - Lam[:-1]
    dy, w = np.empty((2, m + 1, B.shape[1]))   # the carry in row 0
    dy[0], w[0] = carry[0], carry[1]
    np.subtract(Y[1:], Y[:-1], out=dy[1:])
    np.matmul(dlam, B, out=w[1:])
    # G = 0: one row of zeros, broadcast; dx . G dx keeps its bits, NaN included.
    g_dx = np.broadcast_to(np.zeros(dx.shape[1]), dx.shape) if G is None else dx @ G.T
    dy_sq_all, w_sq_all = _rowdot(dy, dy), _rowdot(w, w)
    dy_sq, dx_g_sq, dlam_sq = dy_sq_all[1:], _rowdot(dx, g_dx), _rowdot(dlam, dlam)
    eta_all = 0.5 * c.c1 * w_sq_all + c.kappa * dy_sq_all
    T[:, 4], T[:, 5], T[:, 6] = L_beta, L_beta - inst.objective_floor, eta_all
    T[1:, 7], T[1:, 8], T[1:, 9] = dx_g_sq, dy_sq, dlam_sq
    # cumsum adds in sequence from the carried sum, as a running sum does.
    cum = np.cumsum(np.concatenate(([carry[2]], _step_energy(c, dx_g_sq, dy_sq, dlam_sq))))
    carry = (dy[-1].copy(), w[-1].copy(), float(cum[-1]))
    if not (certify and m):
        return None, carry

    # Each product is released once the last row it feeds is formed.
    L_mid_x = lagrangian(f_value[1:], g_value[:-1], Lam[:-1], r_half)
    r, lam_hat = R[1:], Lam[:-1] - beta * r_half
    L_mid_y = lagrangian(f_value[1:], g_value[1:], Lam[:-1], r)
    res_primal = _rownorm(r)
    del f_value, g_value, r_half, R, r
    dual_resid = grad[1:] - lam_hat @ B
    dual_gap = _rownorm(dual_resid + beta * ((dy[1:] @ B.T) @ B) + tau * dy[1:])
    dual_norm, grad_norm = _rownorm(dual_resid), _rownorm(grad[1:])
    # x-inclusion through the route that solved the subproblem: with s =
    # A^T lam_hat - G dx, P x + q should equal s (quadratic route), and the
    # prox re-solve at x + s / alpha should be x (prox route).
    s = lam_hat @ A - g_dx
    if xstep.route == "quadratic":
        inclusion = -_rownorm(PX[1:] + f.q - s), tol(_max1(_rownorm(s)))
        del PX
    else:
        inclusion = -_rownorm(f.scaled_prox(X[1:] + s / xstep.alpha, xstep.alpha)
                              - X[1:]), INCLUSION_TOL
    u = grad[1:] - grad[:-1] + tau * (dy[1:] - dy[:-1])
    recursion, u_sq = _rownorm(w[1:] - (1.0 - theta) * w[:-1] - theta * u), _rowdot(u, u)
    # trace-consistency: of the reported residual columns, the one that uses
    # the largest share of its tolerance around the checker's own value.
    own = np.stack((res_primal, dual_norm, _rownorm(g_dx)))
    del dual_resid, lam_hat, s, u, grad, dy, w, g_dx, dx, dlam
    rep = T[1:, :3].T
    gap = np.where(rep == own, 0.0, np.abs(rep - own))
    own_scale = _max1(np.abs(own))
    worst = np.argmax(gap / tol(own_scale), axis=0), np.arange(m)
    w_sq, w_prev_sq = w_sq_all[1:], w_sq_all[:-1]
    dy_pair = dy_sq + dy_sq_all[:-1]   # ||dy||^2 + ||dy_prev||^2
    merit_all = L_beta - inst.objective_floor + eta_all
    L_prev, L_new = L_beta[:-1], L_beta[1:]
    bound_y = 0.5 * (g.weak_convexity - beta * c.spectral.sigma_min - tau) * dy_sq
    lam_gain = dlam_sq / (theta * beta)
    theta1 = dlam_sq / (beta * theta) + 0.5 * c.c1 * (w_sq - w_prev_sq)
    drift_bound = c.gamma / (beta * c.spectral.sigma_plus) * u_sq
    coupling_bound = 3.0 * (g.lipschitz ** 2 + tau ** 2) * dy_pair
    merit_scale, bound_3m = 1.0 + abs(start.merit), 3.0 * max(start.delta, start.eta)
    rows = (   # (slack, tolerance) of each of STEP_CHECKS
        # Descent split of the augmented Lagrangian across the three updates.
        ((L_prev - L_mid_x) - 0.5 * dx_g_sq,
         tol(_max1(np.abs(L_prev), np.abs(L_mid_x), dx_g_sq))),
        (bound_y - (L_mid_y - L_mid_x),
         tol(_max1(np.abs(L_mid_x), np.abs(L_mid_y), np.abs(bound_y)))),
        (-np.abs((L_new - L_mid_y) - lam_gain),
         tol(_max1(np.abs(L_new), np.abs(L_mid_y), lam_gain))),
        # Dual-step recursion seeded by the dual-seed program, drift bound on
        # the dual increment and coupling bound on u.
        (-recursion, tol(_max1(np.sqrt(w_sq), np.sqrt(w_prev_sq), np.sqrt(u_sq)))),
        (drift_bound - theta1, tol(_max1(np.abs(theta1), drift_bound))),
        (coupling_bound - u_sq, tol(_max1(u_sq, coupling_bound))),
        # Merit monotonicity with the admissibility margin, nonnegativity,
        # and Theta2 = -kappa (||dy||^2 + ||dy_prev||^2) <= 0.
        ((merit_all[:-1] - merit_all[1:]) - 0.5 * dx_g_sq - c.delta1 * dy_pair,
         tol(merit_scale)),
        (merit_all[1:], tol(merit_scale)), (eta_all[1:], tol(1.0)),
        (c.kappa * dy_pair, tol(1.0)),
        # Exact identities linking residuals to step differences, with budgets
        # of their own.
        (-np.abs(res_primal - np.sqrt(dlam_sq) / (beta * theta)),
         1e-9 * _max1(res_primal)),
        (-dual_gap, ABS_TOL + INNER_SLACK * np.fmax(
            T[1:, 3], INNER_TOL * _max1(grad_norm))),
        inclusion,
        (bound_3m - cum[1:], tol(max(1.0, bound_3m))),
        (-gap[worst], tol(own_scale[worst])))
    table = np.empty((2, m, len(rows)))
    for i, (slack, tolerance) in enumerate(rows):
        table[0, :, i], table[1, :, i] = slack, tolerance
    return table, carry


@dataclass(frozen=True)
class StartRecord:
    """Iteration 0: the iterate before the first step, and the seed
    program's virtual step, which the certifier takes as step 0's."""

    x: np.ndarray
    y: np.ndarray
    lam: np.ndarray
    L_beta: float
    delta: float
    eta: float   # optimal value of the seed program
    dy: np.ndarray   # the seed program's virtual step: dy0 and w0 = B^T dlam0
    w: np.ndarray

    @property
    def merit(self) -> float:
        return self.delta + self.eta


class Certifier:
    """A run's blocks of steps, certified or not: push each step's iterate and
    what the loop reports for it.  Every K steps, and at finalize, check_block
    forms the block's trace columns and, with certify, its check rows; a
    block of the start alone gives the start's L_beta.  The trace ends at
    the first step whose L_beta is not finite, nonfinite_at."""

    def __init__(self, inst: ProblemInstance, constants: DerivedConstants,
                 xstep: _XStep, start, seed, certify: bool):
        self.inst, self.c, self.xstep, self.certify = inst, constants, xstep, certify
        k = max(1, BLOCK_BYTES // (8 * (sum(inst.dims) + 1)))
        # Row 0 holds the iterate before the block, rows 1..k its steps'.
        self._X, self._Y, self._Lam = (np.empty((k + 1, d)) for d in inst.dims)
        self._T = np.empty((k + 1, len(Trace.COLUMNS)))   # the block's trace rows
        self._X[0], self._Y[0], self._Lam[0] = start
        self._m, self._carry = 0, (seed.dy0, seed.w0, 0.0)
        # The checked blocks' trace rows, and their (slack, tolerance), flat.
        self._rows, self._blocks = array("d"), []
        self.start = self.nonfinite_at = None
        self._check()   # a block of no step: row 0's L_beta and delta
        self.start = StartRecord(*start, L_beta=float(self._T[0, 4]),
                                 delta=float(self._T[0, 5]), eta=seed.value,
                                 dy=seed.dy0, w=seed.w0)

    def push(self, x, y, lam, reported) -> bool:
        """Buffer one step; True once a checked block ended the trace."""
        m = self._m = self._m + 1
        self._X[m], self._Y[m], self._Lam[m] = x, y, lam
        self._T[m, :4] = reported
        return m == len(self._X) - 1 and self._check()

    def _check(self) -> bool:
        m, bufs = self._m, (self._X, self._Y, self._Lam, self._T)
        with np.errstate(all="ignore"):   # a non-finite row fails its checks
            table, self._carry = check_block(
                self.inst, self.c, self.start, self.xstep,
                *(buf[:m + 1] for buf in bufs), self._carry, self.certify)
        bad = np.flatnonzero(~np.isfinite(self._T[1:m + 1, 4]))
        if len(bad):
            m = int(bad[0]) + 1
            self.nonfinite_at = len(self._rows) // len(Trace.COLUMNS) + m
        self._rows.frombytes(self._T[1:m + 1].tobytes())
        if table is not None:
            self._blocks.append((table[0, :m].ravel(), table[1, :m].ravel()))
        for buf in bufs:
            buf[0] = buf[m]
        self._m = 0
        return bool(len(bad))

    def finalize(self):
        """The run's Trace, its last iterate (x, y, lam) (None when no step
        completed) and, with certify, its Checks: the start's merit-nonneg
        row, every step's rows, then the whole-run checks (rate bounds at the
        final index, special regimes)."""
        if self._m:
            self._check()
        trace = Trace(self._rows)
        final = tuple(buf[0].copy() for buf in (self._X, self._Y, self._Lam)) \
            if len(trace) else None
        self._X = self._Y = self._Lam = self._T = None   # released before the columns
        if not self.certify:
            return trace, final, None
        merit_scale = 1.0 + abs(self.start.merit)
        ends = [CheckResult("merit-nonneg", self.start.merit, _tolerance(merit_scale), 0)]
        if len(trace):
            ends += rate_bound_checks(trace, self.c, self.start.delta, len(trace))
        ends += self._strong_regime_checks(merit_scale)
        n, k, blocks = len(STEP_CHECKS), len(trace), self._blocks
        # Each column in one concatenation: the start row, the steps', the rest.
        return trace, final, Checks(
            STEP_CHECKS + tuple(r.name for r in ends),
            np.concatenate(([n], np.tile(np.arange(n), k),
                            np.arange(n + 1, n + len(ends)))),
            np.concatenate(([0], np.repeat(np.arange(1, k + 1), n),
                            [-1] * (len(ends) - 1))),
            np.concatenate([[ends[0].slack], *(s for s, _ in blocks),
                            [r.slack for r in ends[1:]]]),
            np.concatenate([[ends[0].tolerance], *(t for _, t in blocks),
                            [r.tolerance for r in ends[1:]]]))

    def _strong_regime_checks(self, merit_scale) -> list[CheckResult]:
        c = self.c
        n, p, l = self.inst.dims
        if not (c.tau == 0.0 and self.xstep.G is None
                and l == p and c.spectral.sigma_min > 0):
            return []
        grad0 = self.inst.g.gradient(self.start.y)
        incons = float(np.linalg.norm(self.inst.B.T @ self.start.lam - grad0))
        if incons > 1e-8 * max(1.0, float(np.linalg.norm(grad0))):
            return []
        # The stronger penalty condition (beta sigma_min - 2m)/8 >= 3 gamma L^2 /
        # (beta sigma_min), under which delta1 and 1/delta2 obey the brackets below.
        beta_sigma = c.beta * c.spectral.sigma_min
        m, L = self.inst.g.weak_convexity, self.inst.g.lipschitz
        if not ((beta_sigma - 2.0 * m) / 8.0 - 3.0 * c.gamma * L ** 2 / beta_sigma
                >= -1e-12 * max(1.0, beta_sigma)):
            return []
        out = [CheckResult("init-gap-nonneg", self.start.delta, _tolerance(merit_scale))]
        lo, hi = beta_sigma / 8.0, beta_sigma / 4.0
        out.append(CheckResult("delta1-bracket", min(c.delta1 - lo, hi - c.delta1),
                               _tolerance(max(1.0, hi))))
        inv_d2 = 1.0 / c.delta2
        bt = c.beta * c.theta
        out.append(CheckResult("delta2-bracket", min(inv_d2 - bt, 3.0 * bt - inv_d2),
                               _tolerance(max(1.0, 3.0 * bt))))
        return out


def rate_bound_checks(trace: Trace, constants: DerivedConstants,
                      delta0_value: float, k: int) -> list[CheckResult]:
    """Best-iterate bounds after k iterations, at the minimum-energy index.

    The certified index is the argmin over j <= k of the weighted step
    energy (ties resolved to the smallest j); all three residual bounds with
    the constant max(eta0, delta0) must hold there, together with the
    cumulative energy bound.  The trace's energy and residual columns are
    all it reads.
    """
    if not 1 <= k <= len(trace):
        raise ValueError(f"k must lie in [1, {len(trace)}], got {k}")
    c = constants
    energies = _step_energy(c, trace.dx_g_sq[:k], trace.dy_sq[:k], trace.dlam_sq[:k])
    big_m = max(c.eta0, delta0_value)
    j = int(np.argmin(energies))   # iteration j + 1

    bound_x = math.sqrt(6.0 * big_m / k)
    obs_x = math.sqrt(max(0.0, float(trace.dx_g_sq[j])))
    bound_dual = (c.beta * c.spectral.norm_mtm + c.tau) \
        * math.sqrt(3.0 * big_m / (c.delta1 * k))
    bound_primal = math.sqrt(3.0 * big_m / (c.delta2 * k)) / (c.beta * c.theta)
    return [
        CheckResult(f"rate-x@{k}", bound_x - obs_x,
                    _tolerance(max(1.0, bound_x))),
        CheckResult(f"rate-dual@{k}", bound_dual - float(trace.res_dual_y[j]),
                    _tolerance(max(1.0, bound_dual))),
        CheckResult(f"rate-primal@{k}", bound_primal - float(trace.res_primal[j]),
                    _tolerance(max(1.0, bound_primal))),
        CheckResult(f"cumulative-bound@{k}", 3.0 * big_m - float(np.sum(energies)),
                    _tolerance(max(1.0, 3.0 * big_m))),
    ]
