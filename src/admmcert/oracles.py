"""Objective oracles for the two blocks of the constrained model.

First-block oracles (the nonsmooth term) expose ``value`` and
``scaled_prox(center, weight)`` returning a global minimizer of
f(x) + (weight/2)||x - center||^2.  Second-block oracles (the smooth term)
expose ``value``, ``gradient``, ``hessian`` and the curvature constants
``lipschitz`` and ``weak_convexity``.  ``value``, ``gradient`` and
``scaled_prox`` take one point (1-D) or a stack of points, one per row
(2-D), and answer row by row; ``hessian`` takes one point.  All families
below have exact global prox maps or exact constants; the convergence
certificates rely on that exactness.
"""

from __future__ import annotations

import numpy as np

from .linalg import _norm, as_matrix, as_vector

# Slack used when testing membership in an indicator's domain.
DOMAIN_TOL = 1e-8


def _symmetrize(M, name: str) -> np.ndarray:
    M = as_matrix(M, name)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    return 0.5 * (M + M.T)


class ConvexQuadratic:
    """f(x) = 0.5 x^T P x + q^T x with P symmetric positive semidefinite."""

    is_quadratic = True

    def __init__(self, P, q):
        P = _symmetrize(P, "P")
        q = as_vector(q, P.shape[0], "q")
        eigs = np.linalg.eigvalsh(P)
        if eigs[0] < -1e-10 * max(1.0, abs(eigs[-1])):
            raise ValueError(f"P must be positive semidefinite, min eig {eigs[0]}")
        self.P = P
        self.q = q
        self.dim = P.shape[0]

    def value(self, x):
        x = np.asarray(x, dtype=float)   # P is symmetric: x P is (P x)^T
        return 0.5 * np.einsum("...i,...i->...", x @ self.P, x) + x @ self.q

    def scaled_prox(self, center, weight) -> np.ndarray:
        center = np.asarray(center, dtype=float)
        H = self.P + weight * np.eye(self.dim)
        return np.linalg.solve(H, (weight * center - self.q).T).T   # stack rows as columns


class BoxIndicator:
    """Indicator of the box [lo, hi]; prox clamps coordinatewise."""

    is_quadratic = False

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise ValueError("lo and hi must be 1-D with equal shape")
        if not np.all(self.lo <= self.hi):
            raise ValueError("box requires lo <= hi")
        self.dim = self.lo.shape[0]

    def value(self, x):
        x = np.asarray(x, dtype=float)
        slack = DOMAIN_TOL * (1.0 + np.abs(self.lo) + np.abs(self.hi))
        inside = np.all((x >= self.lo - slack) & (x <= self.hi + slack), axis=-1)
        return np.where(inside, 0.0, np.inf)[()]   # [()]: a scalar for one point

    def scaled_prox(self, center, weight) -> np.ndarray:
        return np.clip(np.asarray(center, dtype=float), self.lo, self.hi)


class L0Penalty:
    """f(x) = mu * nnz(x); prox is hard thresholding.

    Coordinates with |c| strictly above sqrt(2 mu / weight) survive; the tie
    at the threshold is resolved to zero so traces are reproducible.
    """

    is_quadratic = False

    def __init__(self, mu, dim):
        if not 0.0 < mu < np.inf:
            raise ValueError(f"mu must lie in (0, inf), got {mu}")
        self.mu = float(mu)
        self.dim = int(dim)

    def value(self, x):
        return self.mu * np.count_nonzero(np.asarray(x, dtype=float), axis=-1)

    def scaled_prox(self, center, weight) -> np.ndarray:
        center = np.asarray(center, dtype=float)
        thresh = np.sqrt(2.0 * self.mu / weight)
        out = np.where(np.abs(center) > thresh, center, 0.0)
        return out


class SphereIndicator:
    """Indicator of the unit sphere; prox normalizes, exact zero maps to e_1.
    The prox of a 2-D stack normalizes each row."""

    is_quadratic = False

    def __init__(self, dim):
        self.dim = int(dim)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        inside = np.abs(np.linalg.norm(x, axis=-1) - 1.0) <= DOMAIN_TOL
        return np.where(inside, 0.0, np.inf)[()]

    def scaled_prox(self, center, weight) -> np.ndarray:
        center = np.asarray(center, dtype=float)
        # Row by row, so a row of a stack gets the bits it gets alone.
        nrm = np.reshape([_norm(c) for c in center.reshape(-1, self.dim)],
                         center.shape[:-1] + (1,))
        zero = nrm == 0.0
        return np.where(zero, np.eye(1, self.dim)[0], center / np.where(zero, 1.0, nrm))


class QuadraticSmooth:
    """g(y) = 0.5 y^T Q y + c^T y with symmetric Q, possibly indefinite.

    The Lipschitz constant defaults to the spectral norm of Q and the weak
    convexity constant to max(0, -lambda_min(Q)); both can be overridden to
    model mis-stated curvature in validation tests.
    """

    is_quadratic = True

    def __init__(self, Q, c, lipschitz=None, weak_convexity=None):
        Q = _symmetrize(Q, "Q")
        c = as_vector(c, Q.shape[0], "c")
        eigs = np.linalg.eigvalsh(Q)
        self.Q = Q
        self.c = c
        self.dim = Q.shape[0]
        self.lipschitz = float(max(abs(eigs[0]), abs(eigs[-1]))
                               if lipschitz is None else lipschitz)
        self.weak_convexity = float(max(0.0, -eigs[0])
                                    if weak_convexity is None else weak_convexity)

    def value(self, y):
        y = np.asarray(y, dtype=float)
        return 0.5 * np.einsum("...i,...i->...", y @ self.Q, y) + y @ self.c

    def gradient(self, y) -> np.ndarray:
        # Q is symmetric, so y Q is (Q y)^T, row by row for a stack.
        return np.asarray(y, dtype=float) @ self.Q + self.c

    def hessian(self, y) -> np.ndarray:
        return self.Q


class CosineQuadratic:
    """g(y) = 0.5 ||y||^2 + a * sum(cos(y_i)).

    Curvature lies in [1 - a, 1 + a], so lipschitz = 1 + a and
    weak_convexity = max(0, a - 1); the term is genuinely nonconvex for a > 1.
    """

    is_quadratic = False

    def __init__(self, a, dim):
        if not 0.0 <= a < np.inf:
            raise ValueError(f"a must lie in [0, inf), got {a}")
        self.a = float(a)
        self.dim = int(dim)
        self.lipschitz = 1.0 + self.a
        self.weak_convexity = max(0.0, self.a - 1.0)

    def value(self, y):
        y = np.asarray(y, dtype=float)
        return 0.5 * np.einsum("...i,...i->...", y, y) + self.a * np.cos(y).sum(axis=-1)

    def gradient(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        return y - self.a * np.sin(y)

    def hessian(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        return np.diag(1.0 - self.a * np.cos(y))
