"""Seeded random problem generators with known objective floors.

Each family builds an instance that satisfies the structural assumptions by
construction: the constraint right-hand side and the columns of the first
coupling matrix are drawn inside the range of the second coupling matrix, and
curvature constants come from exact eigenvalue computations.  The penalized
objective floor is exact for the jointly coercive quadratic family (a
Cholesky test of the penalized Hessian with a 1e-8 relative margin, then two
triangular solves) and a conservative lower bound for the families with
compact or separable nonsmooth terms; a conservative floor only enlarges the
certified initial gap.
"""

from __future__ import annotations

import numpy as np

from .errors import GeneratorError
from .linalg import as_bool, as_float, as_int, dpotrf, dpotrs, read_object
from .oracles import (BoxIndicator, ConvexQuadratic, CosineQuadratic, L0Penalty,
                      QuadraticSmooth, SphereIndicator)
from .problem import ProblemInstance

# Each family's params and their kinds; the defaults live with the builders.
_COMMON = {"rank": as_int, "ortho_a": as_bool}
PARAMS = {"quad-quad": {**_COMMON, "nonconvex": as_bool},
          "l0-ls": {**_COMMON, "mu": as_float},
          "box-cos": {**_COMMON, "a": as_float, "box_radius": as_float},
          "sphere-quad": _COMMON}

_FLOOR_PD_MARGIN = 1e-8
_BETA_BAR_CAP = 2.0 ** 20


def generate_instance(family: str, n: int, p: int, l: int, seed: int,
                      params: dict | None = None) -> ProblemInstance:
    """Draw a seeded instance of one of the built-in families.

    params (all optional; an unknown key or a value of the wrong kind is refused):
      rank        column rank of B, default min(l, p); below p forces a
                  singular B^T B, which downstream needs tau above the
                  weak-convexity constant
      ortho_a     draw A with orthonormal columns (needs rank(B) >= n);
                  makes the standard splitting prox-exact for indicator f
      nonconvex   quad-quad only: make the smooth block indefinite (default true)
      mu          l0-ls only: sparsity weight (default 0.3)
      a           box-cos only: cosine weight (default 2.0, weakly convex)
      box_radius  box-cos only: half-width scale (default 1.0)

    quad-quad at dimensions (1, 1, 1) returns the canonical scalar instance
    used across the diagnostics (identity couplings, unit quadratics,
    objective floor exactly 0).
    """
    if family not in PARAMS:
        raise GeneratorError(f"unknown family {family!r}; choose from {tuple(PARAMS)}")
    if min(n, p, l) < 1:
        raise GeneratorError("dimensions must be >= 1")
    params = read_object({} if params is None else params, "params", PARAMS[family])
    rng = np.random.default_rng(seed)

    if family == "quad-quad" and (n, p, l) == (1, 1, 1):
        return scalar_fixture()

    rank = params.pop("rank", min(l, p))
    if not 1 <= rank <= min(l, p):
        raise GeneratorError(f"rank must lie in [1, {min(l, p)}], got {rank}")
    B = _matrix_with_rank(rng, l, p, rank)
    A, b = _coupled_data(rng, B, n, rank, params.pop("ortho_a", False))

    if family == "quad-quad":
        return _quad_quad(rng, A, B, b, **params)
    if family == "l0-ls":
        return _prox_family(rng, A, B, b, L0Penalty(params.get("mu", 0.3), n))
    if family == "box-cos":
        return _box_cos(rng, A, B, b, **params)
    return _prox_family(rng, A, B, b, SphereIndicator(n))


def scalar_fixture() -> ProblemInstance:
    """The canonical 1x1x1 quadratic instance (couplings 1, floor 0)."""
    one = np.ones((1, 1))
    return ProblemInstance(
        A=one, B=one.copy(), b=np.zeros(1),
        f=ConvexQuadratic(one.copy(), np.zeros(1)),
        g=QuadraticSmooth(one.copy(), np.zeros(1)),
        beta_bar=0.0, objective_floor=0.0)


def _orthonormal(rng, rows: int, cols: int) -> np.ndarray:
    return np.linalg.qr(rng.standard_normal((rows, max(cols, 1))))[0][:, :cols]


def _matrix_with_rank(rng, rows: int, cols: int, rank: int) -> np.ndarray:
    U = _orthonormal(rng, rows, rank)
    V = _orthonormal(rng, cols, rank)
    s = np.sort(rng.uniform(0.8, 2.0, rank))[::-1]
    return U @ (s[:, None] * V.T)


def _coupled_data(rng, B, n, rank, ortho_a):
    """A with columns in range(B), b in range(B)."""
    l, p = B.shape
    if ortho_a:
        if rank < n:
            raise GeneratorError(
                f"ortho_a needs rank(B) >= n, got rank {rank} and n {n}")
        basis = np.linalg.qr(B @ rng.standard_normal((p, rank)))[0][:, :rank]
        A = basis @ _orthonormal(rng, rank, n)
    else:
        A = B @ (rng.standard_normal((p, n)) / np.sqrt(p))
    b = B @ (rng.standard_normal(p) / np.sqrt(p))
    return A, b


def _spd(rng, dim: int, lo: float, hi: float) -> np.ndarray:
    V = _orthonormal(rng, dim, dim)
    return V @ (rng.uniform(lo, hi, dim)[:, None] * V.T)


def _quad_quad(rng, A, B, b, nonconvex: bool = True):
    n, p = A.shape[1], B.shape[1]
    P = _spd(rng, n, 0.5, 2.0)
    q = rng.standard_normal(n)
    eigs = rng.uniform(0.3, 2.5, p)
    neg = rng.uniform(0.1, 0.8) if nonconvex else 0.0
    basis = _orthonormal(rng, p, p)
    c = rng.standard_normal(p)
    f = ConvexQuadratic(P, q)
    # One negative mode makes the smooth block weakly convex.  Too much
    # negative curvature can leave the penalized objective unbounded no
    # matter the penalty; shrink it deterministically until coercivity holds.
    for shrink in (1.0, 0.25, 0.05, 0.0):
        e = eigs.copy()
        if neg * shrink > 0.0:
            e[0] = -neg * shrink
        Q = basis @ (e[:, None] * basis.T)
        try:   # with a negative mode diag(P, Q) is indefinite: skip level 0
            beta_bar, floor = _exact_quadratic_floor(A, B, b, P, q, Q, c,
                                                     1.0 if e[0] < 0 else 0.0)
        except GeneratorError:
            if shrink > 0.0:
                continue
            raise
        return ProblemInstance(A=A, B=B, b=b, f=f, g=QuadraticSmooth(Q, c),
                               beta_bar=beta_bar, objective_floor=floor)


def _exact_quadratic_floor(A, B, b, P, q, Q, c, beta_bar=0.0):
    """Smallest dyadic beta_bar from the given start with a jointly coercive
    penalized objective, and the exact infimum there.  A level passes when
    potrf factors, in one Fortran-ordered buffer, the upper triangle of
    H - 1e-8 max(1, ||H||_F) I (H = diag(P, Q) + beta_bar [A B]^T [A B];
    ||H||_F >= lambda_max), then the lower triangle of H, restored from the
    untouched strict lower triangle and the saved diagonal.  That factor gives
    the floor by two triangular solves."""
    n = A.shape[1]
    H = np.zeros((n + B.shape[1],) * 2, order="F")   # diag(P, Q) needs no products
    blocks = ((H[:n, :n], A, A), (H[n:, :n], B, A), (H[n:, n:], B, B))
    while True:
        if beta_bar > 0.0:
            for out, X, Y in blocks:
                np.multiply(np.matmul(X.T, Y, out=out), beta_bar, out=out)
        H[:n, :n] += P
        H[n:, n:] += Q
        H[:n, n:] = H[n:, :n].T
        diag = H.diagonal().copy()
        np.fill_diagonal(H, diag - _FLOOR_PD_MARGIN * max(1.0, np.linalg.norm(H)))
        if dpotrf(H, lower=0, clean=0, overwrite_a=1)[1] == 0:
            np.fill_diagonal(H, diag)
            if dpotrf(H, lower=1, clean=0, overwrite_a=1)[1] == 0:
                break
        beta_bar = max(1.0, 2.0 * beta_bar)
        if beta_bar > _BETA_BAR_CAP:
            raise GeneratorError(
                "penalized objective stays unbounded below: the smooth block "
                "is indefinite on the null space of the couplings")
    w = np.concatenate([q - beta_bar * (A.T @ b), c - beta_bar * (B.T @ b)])
    z = dpotrs(H, -w, lower=1)[0]
    return beta_bar, 0.5 * float(z @ w) + 0.5 * beta_bar * float(b @ b)


def _prox_family(rng, A, B, b, f):
    """Families with nonnegative nonsmooth term and strongly convex smooth term.

    With f >= 0 and the penalty >= 0, min_y g(y) lower-bounds the penalized
    objective at beta_bar = 0.
    """
    p = B.shape[1]
    Q = _spd(rng, p, 0.4, 2.2)
    c = rng.standard_normal(p)
    floor = -0.5 * float(c @ np.linalg.solve(Q, c))
    return ProblemInstance(A=A, B=B, b=b, f=f, g=QuadraticSmooth(Q, c),
                           beta_bar=0.0, objective_floor=floor)


def _box_cos(rng, A, B, b, a: float = 2.0, box_radius: float = 1.0):
    if not 0.0 <= box_radius < np.inf:
        raise GeneratorError(f"box_radius must lie in [0, inf), got {box_radius}")
    n, p = A.shape[1], B.shape[1]
    lower = -box_radius * rng.uniform(0.5, 1.5, n)
    upper = box_radius * rng.uniform(0.5, 1.5, n)
    # 0.5||y||^2 >= 0 and each cosine term >= -a, so -a*p floors the objective.
    floor = -a * p
    return ProblemInstance(A=A, B=B, b=b, f=BoxIndicator(lower, upper),
                           g=CosineQuadratic(a, p),
                           beta_bar=0.0, objective_floor=floor)
