"""Derived constants of the over-relaxed method and the seeding program.

The admissibility condition delta1 > 0 ties the penalty beta, the proximal
weight tau, the over-relaxation stepsize theta and the curvature constants
of the smooth block together; everything else (c1, delta2, kappa, the rate
constant eta0) follows from it.  All functions are pure and cheap; the
seeding program needs the row-space basis of B, which it takes from a
spectral_summary (computed when the caller has none).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .linalg import SpectralSummary, as_matrix, as_vector, spectral_summary

# Relative residual up to which the seed program counts as feasible at tau = 0.
SEED_FEAS_TOL = 1e-8

# Factor on the smallest admissible penalty that beta "auto" resolves to: it
# keeps delta1 bounded away from zero, since delta1 divides downstream.
BETA_MARGIN = 1.1


def gamma(theta: float) -> float:
    """Over-relaxation amplification factor theta / (1 - |theta-1|)^2.

    Finite and positive exactly on (0, 2); it blows up like 1/theta near 0
    and like 1/(2-theta)^2 near 2, with minimum value 1 at theta = 1.
    """
    if not 0.0 < theta < 2.0:
        raise ConfigurationError(f"theta must lie in (0, 2), got {theta}")
    return theta / (1.0 - abs(theta - 1.0)) ** 2


def c1(theta: float, beta: float, sigma_plus: float) -> float:
    """Dual-drift weight 2|theta-1| / (beta theta (1-|theta-1|) sigma_plus).

    Zero exactly at theta = 1, where the multiplier update keeps no memory of
    the previous dual step.
    """
    if not 0.0 < theta < 2.0:
        raise ConfigurationError(f"theta must lie in (0, 2), got {theta}")
    if beta <= 0 or sigma_plus <= 0:
        raise ConfigurationError("beta and sigma_plus must be positive")
    return 2.0 * abs(theta - 1.0) / (beta * theta * (1.0 - abs(theta - 1.0)) * sigma_plus)


def delta1(beta: float, tau: float, m: float, L: float, gamma_value: float,
           sigma_min: float, sigma_plus: float) -> float:
    """Admissibility margin (beta sigma_min + tau - m)/4 - 3 gamma (L^2+tau^2)/(beta sigma_plus).

    May be nonpositive; the caller decides whether the configuration is
    admissible.
    """
    if beta <= 0 or sigma_plus <= 0:
        raise ConfigurationError("beta and sigma_plus must be positive")
    if tau < 0 or m < 0 or L < 0 or sigma_min < 0:
        raise ConfigurationError("tau, m, L and sigma_min must be nonnegative")
    return ((beta * sigma_min + tau - m) / 4.0
            - 3.0 * gamma_value * (L ** 2 + tau ** 2) / (beta * sigma_plus))


def kappa(beta: float, tau: float, m: float, sigma_min: float) -> float:
    """Weight (beta sigma_min + tau - m)/4 on squared y-steps in the merit term."""
    return (beta * sigma_min + tau - m) / 4.0


def min_admissible_beta(theta: float, tau: float, m: float, L: float,
                        sigma_min: float, sigma_plus: float,
                        beta_bar: float = 0.0) -> float:
    """BETA_MARGIN times the smallest penalty, at least beta_bar, with delta1 > 0.

    delta1 > 0 is a quadratic condition in beta:
    sigma_min sigma_plus beta^2 + (tau - m) sigma_plus beta > 12 gamma (L^2+tau^2).
    With sigma_min = 0 the condition is linear and solvable only when
    tau > m.
    """
    if not 0.0 <= tau < math.inf:
        raise ConfigurationError(f"tau must lie in [0, inf), got {tau}")
    gam = gamma(theta)
    rhs = 12.0 * gam * (L ** 2 + tau ** 2)
    if sigma_min > 0:
        a = sigma_min * sigma_plus
        bb = (tau - m) * sigma_plus
        root = (-bb + math.sqrt(bb * bb + 4.0 * a * rhs)) / (2.0 * a)
    elif tau > m:
        root = rhs / ((tau - m) * sigma_plus)
    else:
        raise ConfigurationError(
            "no admissible penalty exists: sigma_min = 0 and tau <= m; "
            "increase tau above the weak-convexity constant")
    beta = BETA_MARGIN * max(beta_bar, root)
    if not math.isfinite(beta):
        raise ConfigurationError(f"no finite admissible penalty at theta {theta}: g's "
                                 f"lipschitz {L} and weak_convexity {m} are too large")
    if delta1(beta, tau, m, L, gam, sigma_min, sigma_plus) <= 0:
        raise ConfigurationError("internal error: derived beta is not admissible")
    return beta


@dataclass(frozen=True)
class Eta0Solution:
    """Optimal value and minimizer of the dual-seed program.

    The program picks a virtual step pair (dy0, dlam0) reproducing the
    initial dual inconsistency v = B^T lam0 - grad g(y0); only w0 = B^T dlam0
    matters downstream, so the null-space component of dlam0 is dropped.
    'value' is +inf when the program is infeasible.
    """

    value: float
    dy0: np.ndarray
    w0: np.ndarray
    case: str

    @property
    def feasible(self) -> bool:
        return math.isfinite(self.value)


def eta0_from_rhs(B, v, theta: float, beta: float, tau: float, m: float,
                  spectral: SpectralSummary | None = None) -> Eta0Solution:
    """Solve the seed program for a given right-hand side v.

    minimize  (c1/2) ||w||^2 + kappa ||dy0||^2
    subject to  tau dy0 + (1 - 1/theta) w = v,   w in the row space of B.

    Solved in the reduced variable w = B^T dlam0, which removes the
    null-space degeneracy of the multiplier step.  Infeasibility (tau = 0
    with either theta = 1 and v != 0, or v outside the row space of B) is
    reported as value +inf, not an error.
    """
    B = as_matrix(B, "B")
    v = as_vector(v, B.shape[1], "v")
    if spectral is None:
        spectral = spectral_summary(B)
    kap = kappa(beta, tau, m, spectral.sigma_min)
    if kap < 0:
        # Negative weight on the y-part makes the program unbounded below;
        # admissible configurations always have kappa > 0.
        raise ConfigurationError(f"seed program needs beta*sigma_min + tau >= m "
                                 f"= g's weak_convexity {m}, got kappa={kap}")
    c1_val = c1(theta, beta, spectral.sigma_plus)
    zeta = 1.0 - 1.0 / theta
    p = B.shape[1]
    scale = max(1.0, float(np.linalg.norm(v)))

    row_basis = spectral.right
    pi = row_basis @ (row_basis.T @ v)

    if tau == 0.0:
        if theta == 1.0:
            if np.linalg.norm(v) <= SEED_FEAS_TOL * scale:
                return Eta0Solution(0.0, np.zeros(p), np.zeros(p), "consistent")
            return Eta0Solution(float("inf"), np.zeros(p), np.zeros(p), "infeasible")
        if np.linalg.norm(v - pi) > SEED_FEAS_TOL * scale:
            return Eta0Solution(float("inf"), np.zeros(p), np.zeros(p), "infeasible")
        w0 = pi / zeta
        value = 0.5 * c1_val * float(w0 @ w0)
        return Eta0Solution(value, np.zeros(p), w0, "pinned")

    if theta == 1.0:
        # c1 = 0 and the constraint decouples from w; minimum-norm w is zero.
        dy0 = v / tau
        value = kap * float(dy0 @ dy0)
        return Eta0Solution(value, dy0, np.zeros(p), "tau-only")

    s = (2.0 * kap * zeta / tau ** 2) / (c1_val + 2.0 * kap * zeta ** 2 / tau ** 2)
    w0 = s * pi
    dy0 = (v - zeta * w0) / tau
    value = 0.5 * c1_val * float(w0 @ w0) + kap * float(dy0 @ dy0)
    return Eta0Solution(value, dy0, w0, "coupled")


def eta0_seed(B, lam0, grad_g_y0, theta: float, beta: float, tau: float, m: float,
              spectral: SpectralSummary | None = None) -> Eta0Solution:
    """Seed program with v = B^T lam0 - grad g(y0)."""
    B = as_matrix(B, "B")
    lam0 = as_vector(lam0, B.shape[0], "lam0")
    grad_g_y0 = as_vector(grad_g_y0, B.shape[1], "grad_g_y0")
    v = B.T @ lam0 - grad_g_y0
    return eta0_from_rhs(B, v, theta, beta, tau, m, spectral=spectral)


@dataclass(frozen=True)
class DerivedConstants:
    """All run-level constants derived from a configuration and an instance."""

    theta: float
    beta: float
    tau: float
    gamma: float
    c1: float
    delta1: float
    delta2: float
    kappa: float
    eta0: float
    spectral: SpectralSummary

    def as_dict(self) -> dict:
        return {
            "theta": self.theta, "beta": self.beta, "tau": self.tau,
            "gamma": self.gamma, "c1": self.c1,
            "delta1": self.delta1, "delta2": self.delta2,
            "kappa": self.kappa, "eta0": self.eta0,
            "sigma_min": self.spectral.sigma_min,
            "sigma_plus": self.spectral.sigma_plus,
            "norm_btb": self.spectral.norm_mtm,
            "rank_B": self.spectral.rank,
        }


def derive_constants(spectral: SpectralSummary, theta: float, beta: float,
                     tau: float, L: float, m: float,
                     eta0_value: float) -> DerivedConstants:
    """Assemble the constants; raises when the configuration is inadmissible."""
    gam = gamma(theta)
    c1_val = c1(theta, beta, spectral.sigma_plus)
    d1 = delta1(beta, tau, m, L, gam, spectral.sigma_min, spectral.sigma_plus)
    if not d1 > 0:
        # Names lipschitz and weak_convexity when no finite beta makes d1 > 0.
        min_admissible_beta(theta, tau, m, L, spectral.sigma_min, spectral.sigma_plus)
        raise ConfigurationError(
            f"inadmissible configuration: delta1={d1:.6g} <= 0; "
            f"increase beta (or tau) until "
            f"(beta*sigma_min + tau - m)/4 exceeds 3*gamma*(L^2+tau^2)/(beta*sigma_plus)")
    # The dual-step weight delta2 lies in (0, 1/(beta theta)].
    d2 = 1.0 / (beta * theta
                + 6.0 * theta * gam * (L ** 2 + tau ** 2) / (spectral.sigma_plus * d1))
    return DerivedConstants(
        theta=float(theta), beta=float(beta), tau=float(tau), gamma=gam,
        c1=c1_val, delta1=d1, delta2=d2,
        kappa=kappa(beta, tau, m, spectral.sigma_min),
        eta0=float(eta0_value), spectral=spectral)
