"""Over-relaxed proximal splitting loop with exact subproblem solves.

One iteration minimizes the augmented Lagrangian in the first block (with an
optional proximal metric G), then in the second block (with an isotropic
proximal weight tau), and finally moves the multiplier by theta * beta times
the constraint residual, theta in (0, 2).  The auxiliary multiplier reported
for stationarity is the one implied by the first-block optimality conditions,
evaluated before the second block moves.

Subproblems are solved exactly: by a Cholesky factorization for quadratic
terms (one that is not positive definite is refused at set-up), and by the
prox map when the quadratic part is a positive multiple of the identity.
The smooth-block subproblem for non-quadratic terms uses damped Newton with
backtracking down to ``inner_tol``; the certifier's tolerance model absorbs
that inner error.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .certify import Certifier, Checks
from .errors import ConfigurationError, InnerSolveError, OracleError
from .linalg import as_matrix, as_vector
from .params import DerivedConstants, derive_constants, eta0_seed
from .problem import ProblemInstance, _aug_lagrangian_value

# Abort when the multiplier grows past this factor over its start size.
DIVERGENCE_FACTOR = 1e12

# Max inner Newton iterations for the non-quadratic smooth subproblem.
NEWTON_CAP = 100


@dataclass(frozen=True)
class ZeroG:
    """G = 0, the plain first-block subproblem."""


@dataclass(frozen=True)
class ExplicitG:
    matrix: np.ndarray


@dataclass(frozen=True)
class LinearizedG:
    """G = alpha I - beta A^T A, which turns the first subproblem into a prox."""

    alpha: float


def resolve_g_matrix(spec, A: np.ndarray, beta: float) -> np.ndarray:
    """Materialize the proximal metric for the first block and validate PSD."""
    n = A.shape[1]
    if isinstance(spec, ZeroG):
        return np.zeros((n, n))
    if isinstance(spec, LinearizedG):
        ata = A.T @ A
        lam_max = float(np.linalg.eigvalsh(ata)[-1]) if n else 0.0
        bound = beta * lam_max
        if spec.alpha < bound * (1.0 - 1e-12):
            raise ConfigurationError(
                f"linearized metric needs alpha >= beta*||A^T A|| = {bound:.6g}, "
                f"got alpha={spec.alpha:.6g}")
        return spec.alpha * np.eye(n) - beta * ata
    if isinstance(spec, ExplicitG):
        G = as_matrix(spec.matrix, "G")
        if G.shape != (n, n):
            raise ConfigurationError(f"G must be {n}x{n}, got {G.shape}")
        if np.max(np.abs(G - G.T)) > 1e-10 * max(1.0, float(np.max(np.abs(G)))):
            raise ConfigurationError("G must be symmetric")
        G = 0.5 * (G + G.T)
        if n and float(np.linalg.eigvalsh(G)[0]) < -1e-10:
            raise ConfigurationError("G must be positive semidefinite")
        return G
    raise ConfigurationError(f"unknown G specification: {spec!r}")


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters for the splitting loop.

    beta must be numeric here; automatic penalty selection lives in
    serialize.solver_config_from_doc.  rho is the termination tolerance on
    the largest of the three residuals, and inner_tol the relative gradient
    target of the smooth-block inner solver.
    """

    theta: float
    beta: float
    tau: float = 0.0
    G: object = field(default_factory=ZeroG)
    rho: float = 1e-6
    max_iters: int = 1000
    certify: bool = True
    inner_tol: float = 1e-12

    def validate(self):
        if not 0.0 < self.theta < 2.0:
            raise ConfigurationError(f"theta must lie in (0, 2), got {self.theta}")
        if not 0.0 <= self.tau < math.inf:
            raise ConfigurationError(f"tau must lie in [0, inf), got {self.tau}")
        for name in ("beta", "rho", "inner_tol"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigurationError(
                    f"{name} must lie in (0, inf), got {getattr(self, name)}")
        if self.max_iters < 1:
            raise ConfigurationError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class IterateRecord:
    """One iteration: points, differences, residuals, and merit ingredients."""

    k: int
    x: np.ndarray
    y: np.ndarray
    lam: np.ndarray
    lam_hat: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    dlam: np.ndarray
    L_beta: float
    delta: float
    eta: float
    res_primal: float
    res_dual_y: float
    res_dual_x: float
    inner_budget: float = 0.0   # certified accuracy of the second-block solve

    @property
    def merit(self) -> float:
        return self.delta + self.eta

    @property
    def res_max(self) -> float:
        return max(self.res_primal, self.res_dual_y, self.res_dual_x)


@dataclass(frozen=True)
class StartRecord:
    """Iteration 0, which the certifier reads as its step 0."""

    x: np.ndarray
    y: np.ndarray
    lam: np.ndarray
    L_beta: float
    delta: float
    eta: float   # optimal value of the seed program
    dy: np.ndarray      # the seed program's virtual step: dy0 and w0 = B^T dlam0
    w: np.ndarray
    g_value: float      # g(y0)
    grad: np.ndarray    # grad g(y0)

    @property
    def merit(self) -> float:
        return self.delta + self.eta


@dataclass(frozen=True)
class StepProducts:
    """Products one iteration computed, handed to the certifier with its record.

    They are not kept on the trace.  With y, lam the iteration's start and
    x+, y+ its output: r_half = A x+ + B y - b, r = A x+ + B y+ - b.
    """

    f_value: float           # f(x+)
    g_value: float           # g(y+)
    r_half: np.ndarray
    r: np.ndarray
    grad: np.ndarray         # grad g(y+)
    w: np.ndarray            # B^T dlam
    dual_resid: np.ndarray   # grad g(y+) - B^T lam_hat
    g_dx: np.ndarray         # G dx


class _XStep:
    """First-block subproblem: min f(x) + 0.5 x^T (G + beta A^T A) x + <d, x>."""

    def __init__(self, inst: ProblemInstance, beta: float, G: np.ndarray):
        self.inst = inst
        self.beta = beta
        self.G = G
        self._G_any = bool(G.any())
        A = inst.A
        n = A.shape[1]
        M = G + beta * (A.T @ A)
        M = 0.5 * (M + M.T)
        f = inst.f
        diag_mean = float(np.trace(M) / n) if n else 0.0
        is_scalar = bool(
            n and np.max(np.abs(M - diag_mean * np.eye(n)))
            <= 1e-12 * max(1.0, abs(diag_mean)) and diag_mean > 0)
        if getattr(f, "is_quadratic", False):
            self.route = "quadratic"
            self._solve = _make_spd_solver(f.P + M, "first-block subproblem")
        elif is_scalar:
            self.route = "prox"
            self.alpha = diag_mean
        else:
            raise ConfigurationError(
                "first-block subproblem is not solvable exactly: the prox term "
                "needs G + beta A^T A to be a positive multiple of the identity "
                "(use the linearized metric)")

    def metric(self, v) -> np.ndarray:
        """G v; a zero vector, without the product, when G has no nonzero entry."""
        return self.G @ v if self._G_any else np.zeros_like(v)

    def linear_term(self, x_prev, By_prev, lam_prev) -> np.ndarray:
        A, b = self.inst.A, self.inst.b
        d = -(A.T @ lam_prev) + self.beta * (A.T @ (By_prev - b))
        # Subtracting an exact +0 vector changes no bit, so a zero G is skipped.
        return d - self.G @ x_prev if self._G_any else d

    def __call__(self, x_prev, By_prev, lam_prev) -> np.ndarray:
        """x+ from the previous x, the previous B y and the previous lam."""
        d = self.linear_term(x_prev, By_prev, lam_prev)
        f = self.inst.f
        if self.route == "quadratic":
            return self._solve(-(f.q + d))
        return f.scaled_prox(-d / self.alpha, self.alpha)


class _YStep:
    """Second-block subproblem: min g(y) + 0.5 y^T (tau I + beta B^T B) y + <e, y>.

    After each solve, ``last_budget`` holds the accuracy the returned iterate
    is certified to: the a-posteriori residual norm for the direct route, the
    accepted gradient budget for the Newton route.  The certifier's slack
    model consumes it.
    """

    def __init__(self, inst: ProblemInstance, beta: float, tau: float,
                 inner_tol: float):
        self.inst = inst
        self.beta = beta
        self.tau = tau
        self.inner_tol = inner_tol
        self.last_budget = 0.0
        B = inst.B
        p = B.shape[1]
        self.H0 = tau * np.eye(p) + beta * (B.T @ B)
        g = inst.g
        if getattr(g, "is_quadratic", False):
            self.route = "quadratic"
            self._H = g.Q + self.H0
            self._solve = _make_spd_solver(
                self._H, "second-block subproblem (needs beta*sigma_min + tau > m)")
        else:
            self.route = "newton"

    def linear_term(self, Ax_next, y_prev, lam_prev) -> np.ndarray:
        B, b = self.inst.B, self.inst.b
        return (-(B.T @ lam_prev) + self.beta * (B.T @ (Ax_next - b))
                - self.tau * y_prev)

    def _grad(self, y, e) -> tuple[np.ndarray, float]:
        """Subproblem gradient at y and the rounding floor of its evaluation;
        below the floor the iterate is exact to machine precision and
        demanding more is meaningless."""
        gy = self.inst.g.gradient(y)
        H0y = self.H0 @ y
        floor = 64.0 * float(np.finfo(float).eps) * (float(np.linalg.norm(gy))
                                                     + float(np.linalg.norm(H0y))
                                                     + float(np.linalg.norm(e)))
        return gy + H0y + e, floor

    def _value(self, y, e) -> float:
        return self.inst.g.value(y) + 0.5 * float(y @ (self.H0 @ y)) + float(e @ y)

    def _newton_step(self, y, grad) -> np.ndarray:
        """Solve (hess g(y) + H0) step = -grad by Cholesky."""
        try:
            factor = scipy.linalg.cho_factor(self.inst.g.hessian(y) + self.H0,
                                             lower=True)
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise InnerSolveError(
                "second-block Newton Hessian is not positive definite "
                "(needs beta*sigma_min + tau > m)") from exc
        return _cho_solver(factor)(-grad)

    def __call__(self, Ax_next, y_prev, lam_prev) -> np.ndarray:
        """y+ from the new A x, the previous y and the previous lam."""
        e = self.linear_term(Ax_next, y_prev, lam_prev)
        g = self.inst.g
        if self.route == "quadratic":
            y = self._solve(-(g.c + e))
            self.last_budget = float(np.linalg.norm(self._H @ y + (g.c + e)))
            return y
        # Damped Newton on a strongly convex objective, warm-started at y_prev.
        y = np.array(y_prev, dtype=float)
        grad, floor = self._grad(y, e)
        target = self.inner_tol * max(1.0, float(np.linalg.norm(grad)))
        val = self._value(y, e)
        for it in range(NEWTON_CAP + 1):
            gnorm = float(np.linalg.norm(grad))
            budget = max(target, floor)
            if gnorm <= budget:
                self.last_budget = budget
                return y
            if it == NEWTON_CAP:
                raise InnerSolveError(
                    f"second-block Newton stalled at gradient norm {gnorm:.3e} "
                    f"(target {target:.3e})")
            step = self._newton_step(y, grad)
            descent = float(grad @ step)
            if abs(descent) <= 1e-13 * (1.0 + abs(val)):
                # Predicted decrease is below value-rounding noise; the
                # full step contracts locally, a value-based search cannot.
                y = y + step
                val = self._value(y, e)
            else:
                t = 1.0
                while True:
                    y_new = y + t * step
                    val_new = self._value(y_new, e)
                    if val_new <= val + 1e-4 * t * descent or t < 1e-14:
                        break
                    t *= 0.5
                y, val = y_new, val_new
            grad, floor = self._grad(y, e)


def _cho_solver(factor):
    """rhs -> H^-1 rhs for cho_factor's (c, lower) of H, through LAPACK potrs
    directly.  Only the right-hand side is checked for non-finite entries;
    cho_factor already checked the matrix the factor came from."""
    c, lower = factor
    potrs, = scipy.linalg.get_lapack_funcs(("potrs",), (c,))

    def solve(rhs) -> np.ndarray:
        x, info = potrs(c, np.asarray_chkfinite(rhs), lower=lower)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of potrs")
        return x
    return solve


def _make_spd_solver(H, what: str):
    """Cholesky-backed solver; an H that is not positive definite is refused."""
    try:
        factor = scipy.linalg.cho_factor(0.5 * (H + H.T), lower=True)
    except np.linalg.LinAlgError as exc:
        raise ConfigurationError(f"{what} is not positive definite") from exc
    except ValueError as exc:
        raise ConfigurationError(f"{what} has invalid entries") from exc
    return _cho_solver(factor)


@dataclass
class RunResult:
    outcome: str                       # "converged" | "iteration-cap" | "error"
    trace: list[IterateRecord]
    start: StartRecord
    constants: DerivedConstants
    delta0: float
    G: np.ndarray
    converged_at: int | None = None
    message: str = ""
    checks: Checks | None = None
    wall_time: float = 0.0

    @property
    def iterations(self) -> int:
        return len(self.trace)

    @property
    def final(self) -> IterateRecord | None:
        return self.trace[-1] if self.trace else None


def run(inst: ProblemInstance, config: SolverConfig, start,
        on_iterate=None) -> RunResult:
    """Run the splitting loop from start = (x0, y0, lam0).

    Stops when max(primal residual, smooth dual residual, ||G dx||) falls to
    config.rho, at the iteration cap, or on a defect (divergence, inner-solver
    failure).  With config.certify, every per-iteration inequality and the
    whole-run rate bounds are checked and attached to the result.

    Raises ConfigurationError for inadmissible constants, an infeasible seed
    program, a start outside dom f, or a quadratic subproblem that is not
    positive definite; defects arising mid-run are reported in the outcome.
    """
    t0 = time.perf_counter()
    config.validate()
    n, p, l = inst.dims
    x0 = as_vector(np.asarray(start[0], dtype=float), n, "x0")
    y0 = as_vector(np.asarray(start[1], dtype=float), p, "y0")
    lam0 = as_vector(np.asarray(start[2], dtype=float), l, "lam0")
    if config.beta < inst.beta_bar:
        raise ConfigurationError(
            f"beta={config.beta} is below the instance's beta_bar={inst.beta_bar}")

    G = resolve_g_matrix(config.G, inst.A, config.beta)
    spectral = inst.spectral
    g0, grad0 = inst.g.value(y0), inst.g.gradient(y0)
    seed = eta0_seed(inst.B, lam0, grad0, config.theta,
                     config.beta, config.tau, inst.g.weak_convexity,
                     spectral=spectral)
    if not seed.feasible:
        raise ConfigurationError(
            "the dual-seed program is infeasible for this start; choose tau > 0 "
            "or a multiplier start with B^T lam0 = grad g(y0)")
    constants = derive_constants(spectral, config.theta, config.beta, config.tau,
                                 inst.g.lipschitz, inst.g.weak_convexity,
                                 seed.value)
    # delta0 is affine in the floor: a conservative floor only loosens bounds.
    L0 = _aug_lagrangian_value(inst.f.value(x0), g0, lam0,
                               inst.residual(x0, y0), config.beta)
    d0 = L0 - inst.objective_floor
    if not math.isfinite(d0):
        raise ConfigurationError("start x0 lies outside the domain of f")

    start_rec = StartRecord(
        x=x0, y=y0, lam=lam0, L_beta=L0, delta=d0, eta=seed.value,
        dy=seed.dy0, w=seed.w0, g_value=g0, grad=grad0)

    xstep = _XStep(inst, config.beta, G)
    ystep = _YStep(inst, config.beta, config.tau, config.inner_tol)
    certifier = Certifier(inst, constants, start_rec, xstep, config.inner_tol) \
        if config.certify else None

    trace: list[IterateRecord] = []
    A, B, b = inst.A, inst.B, inst.b
    x, y, lam = x0, y0, lam0
    By = B @ y0   # carried from one iteration to the next
    lam0_norm = float(np.linalg.norm(lam0))
    outcome, converged_at, message = "iteration-cap", None, ""

    # Each product below is computed once per iteration; the certifier gets
    # them through StepProducts instead of evaluating them again.
    for k in range(1, config.max_iters + 1):
        try:
            x_next = xstep(x, By, lam)
            Ax = A @ x_next
            r_half = Ax + By - b
            lh = lam - config.beta * r_half
            y_next = ystep(Ax, y, lam)
            By_next = B @ y_next
            r = Ax + By_next - b
            lam_next = lam - config.theta * config.beta * r
            dx, dy, dlam = x_next - x, y_next - y, lam_next - lam
            fval, gval = inst.f.value(x_next), inst.g.value(y_next)
            L_val = _aug_lagrangian_value(fval, gval, lam_next, r, config.beta)
            grad = inst.g.gradient(y_next)
            w = B.T @ dlam
            dual_resid = grad - B.T @ lh
            g_dx = xstep.metric(dx)
            eta_k = (0.5 * constants.c1 * float(np.sum(w ** 2))
                     + constants.kappa * float(dy @ dy))
            rec = IterateRecord(
                k=k, x=x_next, y=y_next, lam=lam_next, lam_hat=lh,
                dx=dx, dy=dy, dlam=dlam,
                L_beta=L_val, delta=L_val - inst.objective_floor, eta=eta_k,
                res_primal=float(np.linalg.norm(r)),
                res_dual_y=float(np.linalg.norm(dual_resid)),
                res_dual_x=float(np.linalg.norm(g_dx)),
                inner_budget=ystep.last_budget)
            trace.append(rec)
            if certifier is not None:
                certifier.observe(rec, StepProducts(
                    f_value=fval, g_value=gval, r_half=r_half, r=r, grad=grad,
                    w=w, dual_resid=dual_resid, g_dx=g_dx))
        except (InnerSolveError, OracleError) as exc:
            # Oracle overflow on a runaway trajectory is a divergence
            # symptom, not a crash.
            outcome, message = "error", str(exc)
            break
        if on_iterate is not None:
            on_iterate(rec)
        x, y, lam, By = x_next, y_next, lam_next, By_next

        if not (math.isfinite(L_val) and math.isfinite(rec.res_max)):
            outcome, message = "error", f"non-finite values at iteration {k}"
            break
        if float(np.linalg.norm(lam)) > DIVERGENCE_FACTOR * (1.0 + lam0_norm):
            outcome, message = ("error",
                                f"multiplier diverged at iteration {k}; "
                                "the penalty parameters look inadmissible")
            break
        if rec.res_max <= config.rho:
            outcome, converged_at = "converged", k
            break

    checks = certifier.finalize(trace) if certifier is not None else None
    return RunResult(outcome=outcome, trace=trace, start=start_rec,
                     constants=constants, delta0=d0, G=G,
                     converged_at=converged_at, message=message,
                     checks=checks, wall_time=time.perf_counter() - t0)
