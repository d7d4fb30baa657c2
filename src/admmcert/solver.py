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
backtracking down to the constant relative gradient target
``certify.INNER_TOL``; the certifier's tolerance model absorbs that inner
error.  Its Cholesky factor is held across inner steps and iterations, and
made again only once a step with it stops contracting (the chord /
Shamanskii scheme).

The loop forms only what the next step and the stopping rule need, and
hands each step's (x, y, lam), its three residual norms and its inner
budget to the run's blocks (certify.Certifier).  They form the trace's merit
columns from the iterates a block at a time, and with certification on
check every step there too; no product the step forms reaches them.  The
smooth dual residual comes from the y-step's own subproblem residual, so a
step calls g only inside the Newton solve.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .certify import INNER_TOL, Certifier, Checks, StartRecord, Trace
from .errors import ConfigurationError, InnerSolveError, OracleError
from .linalg import _norm, as_matrix, as_vector, dpotrf, dtrsv
from .params import DerivedConstants, derive_constants, eta0_seed, min_admissible_beta
from .problem import ProblemInstance

# Abort when the multiplier grows past this factor over its start size.
DIVERGENCE_FACTOR = 1e12

# Max inner Newton iterations for the non-quadratic smooth subproblem.
NEWTON_CAP = 100

# The held Newton factor is made again at the next inner step once a step
# with it leaves the subproblem gradient norm above this share of its
# previous value.
REFRESH_RATIO = 1e-3

# Rounding floor of a Newton subproblem gradient, per unit norm of its terms.
ROUNDING_FLOOR = 64.0 * float(np.finfo(float).eps)


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

    run resolves beta "auto", the default, to min_admissible_beta at the
    instance's beta_bar.  rho is the termination tolerance on the largest of
    the three residuals.  The smooth-block inner solver's target is the
    constant certify.INNER_TOL, not a setting: the tolerance model absorbs
    it, so a looser target would loosen every check.
    """

    theta: float
    beta: float | str = "auto"
    tau: float = 0.0
    G: object = field(default_factory=ZeroG)
    rho: float = 1e-6
    max_iters: int = 1000
    certify: bool = True

    def validate(self):
        """Refuse a value out of range by name; beta may still be "auto" here."""
        if not 0.0 < self.theta < 2.0:
            raise ConfigurationError(f"theta must lie in (0, 2), got {self.theta}")
        if 1.0 - abs(self.theta - 1.0) == 0.0:   # the derived constants divide by it
            raise ConfigurationError(
                f"theta {self.theta} is too close to 0: 1 - |theta - 1| rounds to 0")
        if not 0.0 <= self.tau < math.inf:
            raise ConfigurationError(f"tau must lie in [0, inf), got {self.tau}")
        if self.tau * self.tau == math.inf:   # tau ** 2 raises OverflowError there
            raise ConfigurationError(f"tau {self.tau} is too large: tau^2 overflows")
        for name in ("beta", "rho"):
            value = getattr(self, name)
            if not (name == "beta" and value == "auto" or 0.0 < value < math.inf):
                raise ConfigurationError(f"{name} must lie in (0, inf), got {value}")
        k = self.max_iters   # a bool is an int to isinstance, not a count
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
            raise ConfigurationError(f"max_iters must be an integer, got {k!r}")
        if k < 1:
            raise ConfigurationError(f"max_iters must be >= 1, got {k}")


class IterateRecord(NamedTuple):
    """One step: its points, its x-step dx and its residuals."""

    k: int
    x: np.ndarray
    y: np.ndarray
    lam: np.ndarray
    lam_hat: np.ndarray
    dx: np.ndarray
    res_primal: float
    res_dual_y: float
    res_dual_x: float
    inner_budget: float   # certified accuracy of the second-block solve

    @property
    def res_max(self) -> float:
        return max(self.res_primal, self.res_dual_y, self.res_dual_x)


class _XStep:
    """First-block subproblem: min f(x) + 0.5 x^T (G + beta A^T A) x + <d, x>."""

    def __init__(self, inst: ProblemInstance, beta: float, G: np.ndarray):
        self.beta, self.G = beta, G
        self._G_any = bool(G.any())
        A, f = inst.A, inst.f
        self._At, self._b = A.T, inst.b
        n = A.shape[1]
        # G + beta A^T A in one buffer.  BLAS forms A^T A by syrk, exactly
        # symmetric as G is, so the sum needs no symmetrization.
        M = A.T @ A
        M *= beta
        M += G
        if getattr(f, "is_quadratic", False):
            self.route = "quadratic"
            self._q = f.q
            M += f.P
            self._solve = _make_spd_solver(M, "first-block subproblem")
            return
        diag_mean = float(np.trace(M) / n) if n else 0.0
        M.flat[::n + 1] -= diag_mean   # M - diag_mean I, in place
        if not (n and diag_mean > 0 and np.abs(M, out=M).max()
                <= 1e-12 * max(1.0, abs(diag_mean))):
            raise ConfigurationError(
                "first-block subproblem is not solvable exactly: the prox term "
                "needs G + beta A^T A to be a positive multiple of the identity "
                "(use the linearized metric)")
        self.route = "prox"
        self.alpha = diag_mean
        self._prox = f.scaled_prox

    def __call__(self, x_prev, By_prev, lam_prev) -> np.ndarray:
        """x+ from the previous x, the previous B y and the previous lam."""
        d = self._At @ (self.beta * (By_prev - self._b) - lam_prev)
        if self._G_any:   # subtracting an exact +0 vector changes no bit
            d -= self.G @ x_prev
        if self.route == "quadratic":
            return self._solve(-(self._q + d))
        return self._prox(-d / self.alpha, self.alpha)


@dataclass
class InnerWork:
    """Inner Newton work of a run's second-block solves: steps taken,
    Cholesky factorizations made and Armijo backtracks.  All zero on the
    quadratic route."""

    steps: int = 0
    factorizations: int = 0
    backtracks: int = 0


class _YStep:
    """Second-block subproblem: min g(y) + 0.5 y^T (tau I + beta B^T B) y + <e, y>.

    After each solve, ``residual`` holds the subproblem gradient at the
    returned iterate and ``last_budget`` the accuracy the iterate is
    certified to: the residual's norm for the direct route, the accepted
    gradient budget for the Newton route.  The certifier's slack model
    consumes it.  ``work`` counts the Newton route's inner work.
    """

    def __init__(self, inst: ProblemInstance, beta: float, tau: float):
        self.beta, self.tau = beta, tau
        self.last_budget, self.residual = 0.0, None
        self.work = InnerWork()
        B, g = inst.B, inst.g
        self._Bt, self._b = B.T, inst.b
        p = B.shape[1]
        # tau I + beta B^T B in one buffer.  BLAS sums B^T B from +0, so no
        # entry is -0 and tau on the diagonal alone keeps the bits of + tau I.
        H = B.T @ B
        H *= beta
        H.flat[::p + 1] += tau
        if getattr(g, "is_quadratic", False):
            self.route = "quadratic"
            H += g.Q
            self._H, self._c = H, g.c
            self._solve = _make_spd_solver(
                H, "second-block subproblem (needs beta*sigma_min + tau > m)")
        else:
            self.route = "newton"
            self.H0 = H   # read at every inner step, so held for the run
            self._gradient, self._value, self._hessian = g.gradient, g.value, g.hessian
            # The held Newton factor, made in place; _stale asks for a new one.
            self._factor = np.empty((p, p), order="F")
            self._stale = True
            self._solve = _cho_solver(self._factor)

    def _grad(self, y, e, H0y, e_norm) -> tuple[np.ndarray, float]:
        """Subproblem gradient at y, given H0 @ y and ||e||, and the rounding
        floor of its evaluation; below the floor the iterate is exact to
        machine precision and demanding more is meaningless."""
        gy = self._gradient(y)
        floor = ROUNDING_FLOOR * (_norm(gy) + _norm(H0y) + e_norm)
        return gy + H0y + e, floor

    def _objective(self, y, e, H0y) -> float:
        return self._value(y) + 0.5 * float(y @ H0y) + float(e @ y)

    def _newton_step(self, y, grad) -> np.ndarray:
        """Solve (hess g + H0) step = -grad with the held Cholesky factor,
        first factoring hess g(y) + H0 in place when none is held or the
        last step with it stopped contracting."""
        if self._stale:
            buf = self._factor
            np.add(self._hessian(y), self.H0, out=buf)
            # potrf takes an infinite diagonal entry, so finiteness is checked.
            if not np.isfinite(buf).all() or dpotrf(
                    buf, lower=True, overwrite_a=True, clean=False)[1] != 0:
                raise InnerSolveError(
                    "second-block Newton Hessian is not positive definite "
                    "(needs beta*sigma_min + tau > m)")
            self._stale = False
            self.work.factorizations += 1
        return self._solve(-grad)

    def __call__(self, Ax_next, y_prev, lam_prev) -> np.ndarray:
        """y+ from the new A x, the previous y and the previous lam."""
        e = self._Bt @ (self.beta * (Ax_next - self._b) - lam_prev)
        if self.tau:   # at tau = 0, tau y_prev is a vector of zeros
            e -= self.tau * y_prev
        if self.route == "quadratic":
            e += self._c
            y = self._solve(-e)
            self.residual = self._H @ y + e
            self.last_budget = _norm(self.residual)
            return y
        # Damped Newton on a strongly convex objective, warm-started at y_prev.
        work, H0 = self.work, self.H0
        y = np.array(y_prev, dtype=float)
        e_norm = _norm(e)
        H0y = H0 @ y
        grad, floor = self._grad(y, e, H0y, e_norm)
        gnorm = _norm(grad)
        target = INNER_TOL * max(1.0, gnorm)
        val = self._objective(y, e, H0y)
        for it in range(NEWTON_CAP + 1):
            budget = max(target, floor)
            if gnorm <= budget:
                self.last_budget, self.residual = budget, grad
                return y
            if it == NEWTON_CAP:
                raise InnerSolveError(
                    f"second-block Newton stalled at gradient norm {gnorm:.3e} "
                    f"(target {target:.3e})")
            step = self._newton_step(y, grad)
            work.steps += 1
            descent = float(grad @ step)
            if abs(descent) <= 1e-13 * (1.0 + abs(val)):
                # Predicted decrease is below value-rounding noise; the
                # full step contracts locally, a value-based search cannot.
                y = y + step
                H0y = H0 @ y
                val = self._objective(y, e, H0y)
            else:
                t, y_new = 1.0, y + step
                while True:
                    H0y = H0 @ y_new
                    val_new = self._objective(y_new, e, H0y)
                    if val_new <= val + 1e-4 * t * descent or t < 1e-14:
                        break
                    t *= 0.5
                    work.backtracks += 1
                    y_new = y + t * step
                y, val = y_new, val_new
            grad, floor = self._grad(y, e, H0y, e_norm)
            gnorm, gnorm_prev = _norm(grad), gnorm
            # A step that lands within the budget says nothing of the factor.
            self._stale = gnorm > max(REFRESH_RATIO * gnorm_prev, target, floor)


def _cho_solver(c):
    """rhs -> H^-1 rhs for the lower Cholesky factor c of H, by forward and
    back substitution in two BLAS trsv passes (the backward-error bound of
    potrs).  Only the right-hand side is checked for non-finite entries; the
    factorization already checked the matrix the factor came from.  The
    solver reads c at each call, so a factor made again in place is used."""
    def solve(rhs) -> np.ndarray:
        if not np.isfinite(rhs).all():   # as np.asarray_chkfinite raises
            raise ValueError("array must not contain infs or NaNs")
        if rhs.shape != c.shape[:1]:   # trsv takes longer and 2-D arrays
            raise ValueError(f"right-hand side of shape {rhs.shape}, not {c.shape[:1]}")
        return dtrsv(c, dtrsv(c, rhs, lower=1), lower=1, trans=1, overwrite_x=1)
    return solve


def _make_spd_solver(H, what: str):
    """Cholesky-backed solver; an H that is not positive definite is refused.
    0.5 (H + H^T) is formed in one Fortran buffer and factored there."""
    c = np.add(H, H.T, order="F")
    c *= 0.5
    if not np.isfinite(c).all():
        raise ConfigurationError(f"{what} has invalid entries")
    if dpotrf(c, lower=1, clean=0, overwrite_a=1)[1] != 0:
        raise ConfigurationError(f"{what} is not positive definite")
    return _cho_solver(c)


@dataclass
class RunResult:
    outcome: str                       # "converged" | "iteration-cap" | "error"
    trace: Trace
    final: tuple | None                # the last traced iterate (x, y, lam)
    start: StartRecord
    constants: DerivedConstants
    G: np.ndarray
    converged_at: int | None = None
    message: str = ""
    checks: Checks | None = None
    wall_time: float = 0.0
    inner: InnerWork = field(default_factory=InnerWork)


def run(inst: ProblemInstance, config: SolverConfig, start,
        on_iterate=None) -> RunResult:
    """Run the splitting loop from start = (x0, y0, lam0).

    Stops when max(primal residual, smooth dual residual, ||G dx||) falls to
    config.rho, at the iteration cap, or on a defect (divergence, inner-solver
    failure, a non-finite value).  With config.certify, every per-iteration
    inequality and the whole-run rate bounds are checked and attached to the
    result.  The result keeps a Trace and the last traced iterate (x, y,
    lam); on_iterate(record) receives each step's IterateRecord.  The block
    that finds a non-finite L_beta ends the trace at that step, which
    on_iterate may have passed by up to a block of steps.

    Raises ConfigurationError for inadmissible constants, an infeasible seed
    program, a start outside dom f, or a quadratic subproblem that is not
    positive definite; defects arising mid-run are reported in the outcome.
    """
    t0 = time.perf_counter()
    config.validate()
    if config.beta == "auto":
        config = replace(config, beta=min_admissible_beta(
            config.theta, config.tau, inst.g.weak_convexity, inst.g.lipschitz,
            inst.spectral.sigma_min, inst.spectral.sigma_plus,
            beta_bar=inst.beta_bar))
    n, p, l = inst.dims
    x0 = as_vector(np.asarray(start[0], dtype=float), n, "x0")
    y0 = as_vector(np.asarray(start[1], dtype=float), p, "y0")
    lam0 = as_vector(np.asarray(start[2], dtype=float), l, "lam0")
    if config.beta < inst.beta_bar:
        raise ConfigurationError(
            f"beta={config.beta} is below the instance's beta_bar={inst.beta_bar}")

    G = resolve_g_matrix(config.G, inst.A, config.beta)
    spectral = inst.spectral
    seed = eta0_seed(inst.B, lam0, inst.g.gradient(y0), config.theta,
                     config.beta, config.tau, inst.g.weak_convexity,
                     spectral=spectral)
    if not seed.feasible:
        raise ConfigurationError(
            "the dual-seed program is infeasible for this start; choose tau > 0 "
            "or a multiplier start with B^T lam0 = grad g(y0)")
    constants = derive_constants(spectral, config.theta, config.beta, config.tau,
                                 inst.g.lipschitz, inst.g.weak_convexity,
                                 seed.value)
    xstep = _XStep(inst, config.beta, G)
    blocks = Certifier(inst, constants, xstep, (x0, y0, lam0), seed, config.certify)
    # delta0 is affine in the floor: a conservative floor only loosens bounds.
    if not math.isfinite(blocks.start.delta):
        raise ConfigurationError("start (x0, y0) lies outside the domain of f or g")
    ystep = _YStep(inst, config.beta, config.tau)
    A, B, Bt, b = inst.A, inst.B, inst.B.T, inst.b
    beta, tau, theta_beta = config.beta, config.tau, config.theta * config.beta
    x, y, lam = x0, y0, lam0
    By = B @ y0   # carried from one iteration to the next
    lam0_norm = _norm(lam0)
    outcome, converged_at, message = "iteration-cap", None, ""

    for k in range(1, config.max_iters + 1):
        try:
            x_next = xstep(x, By, lam)
            Ax = A @ x_next
            y_next = ystep(Ax, y, lam)
        except (InnerSolveError, OracleError) as exc:
            # Oracle overflow on a runaway trajectory is a divergence
            # symptom, not a crash.
            outcome, message = "error", str(exc)
            break
        By_next = B @ y_next
        r = Ax + By_next - b
        lam_next = lam - theta_beta * r
        # grad g(y+) - B^T lam_hat by the y-step's optimality condition.
        dual = ystep.residual - beta * (Bt @ (By_next - By))
        if tau:
            dual -= tau * (y_next - y)
        dx = x_next - x if xstep._G_any or on_iterate is not None else None
        reported = (_norm(r), _norm(dual), _norm(G @ dx) if xstep._G_any else 0.0,
                    ystep.last_budget)
        if on_iterate is not None:
            lh = lam - beta * (Ax + By - b)   # by the half-step residual
            on_iterate(IterateRecord(k, x_next, y_next, lam_next, lh, dx, *reported))
        x, y, lam, By = x_next, y_next, lam_next, By_next

        ended = blocks.push(x_next, y_next, lam_next, reported)   # L_beta not finite
        res_max = max(reported[:3])
        if ended or not math.isfinite(res_max):
            outcome, message = "error", f"non-finite values at iteration {k}"
            break
        if _norm(lam) > DIVERGENCE_FACTOR * (1.0 + lam0_norm):
            outcome, message = ("error",
                                f"multiplier diverged at iteration {k}; "
                                "the penalty parameters look inadmissible")
            break
        if res_max <= config.rho:
            outcome, converged_at = "converged", k
            break

    trace, final, checks = blocks.finalize()
    if blocks.nonfinite_at is not None:   # the trace ends at that step
        outcome, converged_at = "error", None
        message = f"non-finite values at iteration {blocks.nonfinite_at}"
    return RunResult(outcome=outcome, trace=trace, final=final, start=blocks.start,
                     constants=constants, G=G,
                     converged_at=converged_at, message=message,
                     checks=checks, wall_time=time.perf_counter() - t0,
                     inner=ystep.work)
