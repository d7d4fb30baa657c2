"""Problem container and assumption validation.

A ProblemInstance packages the linear coupling (A, B, b), the two objective
oracles, a reference penalty level beta_bar at which the penalized objective
is known to be bounded below, and a finite lower bound on that infimum
(objective_floor).  Supplying a lower bound instead of the exact infimum only
enlarges the initial optimality gap, which keeps every certified bound valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .linalg import (SpectralSummary, as_matrix, as_vector, range_inclusion_gap,
                     spectral_summary)

# A range-inclusion gap at or below this level counts as satisfied.
RANGE_GAP_TOL = 1e-8


@dataclass(frozen=True)
class ProblemInstance:
    """min f(x) + g(y)  subject to  A x + B y = b."""

    A: np.ndarray
    B: np.ndarray
    b: np.ndarray
    f: object
    g: object
    beta_bar: float = 0.0
    objective_floor: float = 0.0

    def __post_init__(self):
        A = as_matrix(self.A, "A")
        B = as_matrix(self.B, "B")
        b = as_vector(self.b, B.shape[0], "b")
        if A.shape[0] != B.shape[0]:
            raise ValueError("A and B must have equal row counts")
        for name, oracle, dim in (("f", self.f, A.shape[1]), ("g", self.g, B.shape[1])):
            if oracle.dim != dim:
                raise ValueError(f"{name}.dim must be {dim}, got {oracle.dim}")
        L, m = self.g.lipschitz, self.g.weak_convexity
        if not math.isfinite(L * L):   # the derived constants square L; L ** 2 raises
            raise ValueError(f"g.lipschitz must be finite with a finite square, got {L}")
        if not math.isfinite(m):
            raise ValueError(f"g.weak_convexity must be finite, got {m}")
        for arr in (A, B, b):
            arr.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "beta_bar", float(self.beta_bar))
        object.__setattr__(self, "objective_floor", float(self.objective_floor))
        if self.beta_bar < 0:
            raise ValueError("beta_bar must be nonnegative")
        if not math.isfinite(self.objective_floor):
            raise ValueError("objective_floor must be finite")

    def __setstate__(self, state: dict) -> None:
        # Unpickling (a sweep sends the instance to its workers) gives
        # writable arrays; keep them read-only so a cached spectral stays valid.
        for key in ("A", "B", "b"):
            state[key].setflags(write=False)
        self.__dict__.update(state)

    @cached_property
    def spectral(self) -> SpectralSummary:
        """The one factorization of B that validation, penalty selection and
        the seed program share; B is read-only, so it never goes stale."""
        return spectral_summary(self.B)

    @property
    def dims(self) -> tuple[int, int, int]:
        """(n, p, l): first block, second block, constraint dimensions."""
        return self.A.shape[1], self.B.shape[1], self.B.shape[0]


class CheckResult(NamedTuple):
    """One named inequality and its margin; passes iff slack >= -tolerance.

    Assumption validation and the certificate record their checks as these
    rows; iteration=None marks a row not tied to an iteration."""

    name: str
    slack: float
    tolerance: float
    iteration: int | None = None

    @property
    def passed(self) -> bool:
        return bool(self.slack >= -self.tolerance)


def validate_assumptions(inst: ProblemInstance, samples: int = 200,
                         tol: float = 1e-6, seed: int = 0) -> list[CheckResult]:
    """Numerically probe the structural assumptions the analysis relies on.

    Universally quantified conditions (the projected-gradient secant bound and
    the lower-curvature bound) are sampled at `samples` random pairs drawn
    over mixed radii, and the gradient against the values by a Taylor test at
    the first 8 points; declared constants are taken from the oracles.  Returns
    one row per assumption; failures are reported, not raised, so
    mis-specified instances can be inspected.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    n, p, _ = inst.dims

    # Nonsmooth block: proper and prox-capable, prox output lands in the domain.
    try:
        proper = math.isfinite(inst.f.value(inst.f.scaled_prox(np.zeros(n), 1.0)))
    except Exception:  # noqa: BLE001 - report, never raise
        proper = False
    checks = [CheckResult("nonsmooth-proper", 0.0 if proper else -math.inf, 0.0)]

    # Coupling: B nonzero and {b} united with the range of A inside range of B.
    b_nonzero = bool(inst.B.any())
    gap = (range_inclusion_gap(inst.B, inst.A, inst.b, inst.spectral)
           if b_nonzero else math.inf)
    checks.append(CheckResult("range-inclusion", RANGE_GAP_TOL - gap, 0.0))

    # Basis of the row space of B for the projected secant bound.
    basis = inst.spectral.right if b_nonzero else np.zeros((p, 0))

    def proj(V):
        return (V @ basis) @ basis.T if basis.shape[1] else np.zeros_like(V)

    # All sample pairs are drawn first, in the order of one pair per sample,
    # and then every probe runs on the whole stack at once.
    Y = np.empty((samples, p))
    Y2 = np.empty((samples, p))
    for i in range(samples):
        radius = 10.0 ** rng.uniform(-1.0, 1.0)
        Y[i] = radius * rng.standard_normal(p)
        Y2[i] = Y[i] + radius * rng.standard_normal(p)
    dY = Y2 - Y
    nrm = np.linalg.norm(dY, axis=1)
    kept = nrm != 0.0   # a pair with y2 == y probes nothing

    L = float(inst.g.lipschitz)
    m = float(inst.g.weak_convexity)
    G1 = inst.g.gradient(Y)
    secant = np.linalg.norm(proj(inst.g.gradient(Y2) - G1), axis=1)
    worst_secant = float(np.max(secant[kept] / np.maximum(L * nrm[kept], 1e-300),
                                initial=0.0))
    gY = inst.g.value(Y)
    curv = (inst.g.value(Y2) - gY - np.einsum("ij,ij->i", G1, dY)
            + (0.5 * m + 1e-8) * nrm ** 2)[kept]
    # The first sample's slack starts the minimum; when it was skipped, 0 does.
    worst_curv = float(curv.min() if kept[0] else curv.min(initial=0.0))
    # Taylor test at the kept points among the first 8, along 4 unit
    # directions d each: Richardson extrapolation of the forward differences
    # at steps h, h/2 and h/4 estimates <grad g(y), d> to O(h^3).  Its budget
    # is mostly the rounding of the values it differences, magnified by 1/h.
    t = np.flatnonzero(kept[:8])
    D = rng.standard_normal((min(samples, 8), 4, p))[t]
    D /= np.linalg.norm(D, axis=2, keepdims=True)
    h = 1e-4 * np.maximum(1.0, np.linalg.norm(Y[t], axis=1) / math.sqrt(p))
    H = h[:, None, None] * np.array([1.0, 0.5, 0.25])
    V = inst.g.value((Y[t, None, None] + H[..., None] * D[:, :, None]).reshape(-1, p))
    V = V.reshape(t.size, 4, 3)
    F = (V - gY[t, None, None]) / H
    slope = np.einsum("kjp,kp->kj", D, G1[t])
    err = np.abs((8.0 * F[..., 2] - 6.0 * F[..., 1] + F[..., 0]) / 3.0 - slope)
    budget = 1e-8 * np.abs(slope) + 16 * 64 * np.finfo(float).eps * (
        np.abs(V).max(axis=2) + np.abs(gY[t, None])) / (h[:, None] / 4)
    worst_grad = float(np.max(err / np.maximum(budget, 1e-300), initial=0.0))
    checks.append(CheckResult("projected-secant", 1.0 - worst_secant, tol))
    checks.append(CheckResult("lower-curvature", worst_curv, 1e-10))
    checks.append(CheckResult("gradient-consistency", 1.0 - worst_grad, 0.0))
    return checks

