"""Dense spectral helpers and the readers of document values.

The linear algebra is plain dense double precision, aimed at desk-scale
certification runs (dimensions up to a couple of thousand).
"""

from __future__ import annotations

import difflib
import inspect
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

# Singular values at or below RANK_RTOL * s_max count as zero for rank decisions.
RANK_RTOL = 1e-12


@dataclass(frozen=True)
class SpectralSummary:
    """Spectral constants of M^T M for a dense matrix M.

    sigma_min is the smallest eigenvalue of M^T M (zero whenever the column
    rank is deficient), sigma_plus the smallest positive one, and norm_mtm
    the largest, i.e. the squared spectral norm of M.  left and right are
    orthonormal bases of the column space and the row space of M, and values
    its positive singular values: M = left @ diag(values) @ right.T.  Range
    projections and minimum-norm solves reuse this one factorization.
    """

    sigma_min: float
    sigma_plus: float
    norm_mtm: float
    rank: int
    left: np.ndarray = field(compare=False, repr=False)
    right: np.ndarray = field(compare=False, repr=False)
    values: np.ndarray = field(compare=False, repr=False)


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {M.shape}")
    if M.size and not np.all(np.isfinite(M)):
        raise ValueError(f"{name} has non-finite entries")
    return M


def as_vector(v, dim: int | None = None, name: str = "vector") -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"{name} must have length {dim}, got {v.shape[0]}")
    if v.size and not np.all(np.isfinite(v)):
        raise ValueError(f"{name} has non-finite entries")
    return v


def as_object(value, key: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{key} must be an object, got {type(value).__name__}")
    return value


def _quoted(value) -> str:   # a refused value, cut short for a one-line error
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def as_float(value, key: str) -> float:
    try:
        if isinstance(value, bool):
            raise ValueError(value)
        return float(value)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ValueError(f"{key} must be a number, got {_quoted(value)}") from exc


def as_int(value, key: str) -> int:   # an int or an integral float
    try:
        if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
            raise ValueError(value)
        return int(value)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{key} must be an integer, got {_quoted(value)}") from exc


def as_bool(value, key: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be true or false, got {_quoted(value)}")
    return value


def read_object(doc, name: str, kinds: dict) -> dict:
    """The members of object name, each read by its kind in kinds: a function
    of (value, key), or None for a value its receiver checks (an array, a tag).
    An unknown key is refused, naming the nearest known key.  Only members
    present are returned, so each default stays with its receiver."""
    for key in as_object(doc, name):
        if key not in kinds:
            near = difflib.get_close_matches(key, kinds, n=1)
            hint = f" (did you mean {near[0]!r}?)" if near else ""
            raise ValueError(f"unknown {name} key {key!r}{hint}")
    return {key: value if kinds[key] is None else kinds[key](value, key)
            for key, value in doc.items()}


def build(receiver, name: str, members: dict):
    """receiver(**members), refusing a missing member by the first parameter
    of receiver that has no default and is absent from members."""
    for param in inspect.signature(receiver).parameters.values():
        if (param.default is param.empty and param.name not in members
                and param.kind not in (param.VAR_POSITIONAL, param.VAR_KEYWORD)):
            raise ValueError(f"{name} is missing key {param.name!r}")
    return receiver(**members)


def _truncated_svd(M) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """M = left @ diag(vals) @ right.T over the strictly positive singular
    values only; a zero or empty M gives rank 0 (empty factors)."""
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    r = int(np.count_nonzero(s > RANK_RTOL * s.max(initial=0.0)))
    return U[:, :r].copy(), s[:r].copy(), Vt[:r].T.copy()


def spectral_summary(B) -> SpectralSummary:
    """Extreme eigenvalues of B^T B, the rank of B and its range bases.

    One reduced SVD of B yields all of them.  Raises ConfigurationError for
    B = 0: a zero coupling matrix makes the splitting meaningless and every
    admissibility constant degenerate.
    """
    B = as_matrix(B, "B")
    if B.size == 0 or not B.any():
        raise ConfigurationError("coupling matrix B must be nonzero")
    left, s, right = _truncated_svd(B)
    r = s.shape[0]
    sigma_plus = float(s[-1] ** 2)
    norm_mtm = float(s[0] ** 2)
    sigma_min = sigma_plus if r == B.shape[1] else 0.0
    return SpectralSummary(sigma_min=sigma_min, sigma_plus=sigma_plus,
                           norm_mtm=norm_mtm, rank=r, left=left, right=right,
                           values=s)


def project_onto_range(S, u) -> np.ndarray:
    """Euclidean projection of u onto the column space of S."""
    S = as_matrix(S, "S")
    u = as_vector(u, S.shape[0], "u")
    left = _truncated_svd(S)[0]
    return left @ (left.T @ u)


def range_inclusion_gap(B, A, b, spectral: SpectralSummary | None = None) -> float:
    """Worst relative distance of b and the columns of A from the range of B.

    Returns max over v in {b, columns of A} of ||v - P_B(v)|| / max(1, ||v||);
    a value at numerical zero certifies that the constraint right-hand side
    and the first block's range are reachable through the second block.
    A precomputed spectral_summary(B) supplies the range basis without
    factoring B again.
    """
    B = as_matrix(B, "B")
    A = as_matrix(A, "A")
    b = as_vector(b, B.shape[0], "b")
    if A.shape[0] != B.shape[0]:
        raise ValueError(
            f"A and B must have equal row counts, got {A.shape[0]} and {B.shape[0]}")
    left = _truncated_svd(B)[0] if spectral is None else spectral.left
    gap = float(np.linalg.norm(b - left @ (left.T @ b))
                / max(1.0, np.linalg.norm(b)))
    if A.shape[1]:
        resid = A - left @ (left.T @ A)
        col_gaps = np.linalg.norm(resid, axis=0) / np.maximum(
            1.0, np.linalg.norm(A, axis=0))
        gap = max(gap, float(col_gaps.max()))
    return gap
