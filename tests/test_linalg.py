"""Spectral helpers: spectral constants, range bases, projections."""

import json
import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admmcert import (ConfigurationError, project_onto_range, range_inclusion_gap,
                      spectral_summary)
from admmcert.cli import execute_config, prepare_instance, theta_sweep
from admmcert.linalg import _norm


def _random_rank_matrix(rng, rows, cols, rank):
    U = np.linalg.qr(rng.standard_normal((rows, rank)))[0]
    V = np.linalg.qr(rng.standard_normal((cols, rank)))[0]
    s = rng.uniform(0.1, 3.0, rank)
    return U @ (s[:, None] * V.T)


def _assert_orthonormal(M, rank):
    assert M.shape[1] == rank
    assert np.allclose(M.T @ M, np.eye(rank), atol=1e-12)


class TestReducedSvd:
    """The reduced SVD behind spectral_summary: its rank and its range bases."""

    def test_identity(self):
        s = spectral_summary(np.eye(2))
        assert s.rank == 2
        assert s.left.shape == (2, 2) and s.right.shape == (2, 2)
        _assert_orthonormal(s.left, 2)
        _assert_orthonormal(s.right, 2)

    def test_diagonal_rank_one(self):
        s = spectral_summary(np.diag([3.0, 0.0]))
        assert s.rank == 1
        assert np.abs(s.left[:, 0]) == pytest.approx([1.0, 0.0])
        assert np.abs(s.right[:, 0]) == pytest.approx([1.0, 0.0])
        assert s.norm_mtm == pytest.approx(9.0)

    def test_rank_one_against_eig_oracle(self):
        M = np.array([[1.0, 1.0], [0.0, 0.0]])
        # Independent oracle: M^T M = [[1,1],[1,1]] has eigenvalues {0, 2};
        # the eigenvector of 2 spans the row space, e_1 spans the column space.
        eigs, vecs = np.linalg.eigh(M.T @ M)
        assert eigs == pytest.approx([0.0, 2.0], abs=1e-12)
        s = spectral_summary(M)
        assert s.rank == 1
        assert abs(float(s.right[:, 0] @ vecs[:, 1])) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(s.left[:, 0]) == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_zero_matrix_is_rank_zero(self):
        # spectral_summary rejects B = 0; the projections see an empty range.
        Z = np.zeros((3, 2))
        with pytest.raises(ConfigurationError):
            spectral_summary(Z)
        u = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(project_onto_range(Z, u), np.zeros(3))
        b = np.array([0.0, 3.0, 4.0])
        assert range_inclusion_gap(Z, np.eye(3)[:, :1], b) == pytest.approx(1.0)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(1)
        for rows, cols, rank in [(5, 3, 2), (3, 6, 3), (4, 4, 1), (7, 7, 7)]:
            M = _random_rank_matrix(rng, rows, cols, rank)
            s = spectral_summary(M)
            assert s.rank == rank
            _assert_orthonormal(s.left, rank)
            _assert_orthonormal(s.right, rank)
            # In these bases M is diagonal, with the singular values on the
            # diagonal: the largest squared is ||M^T M||, the smallest sigma_plus.
            core = s.left.T @ M @ s.right
            vals = np.abs(np.diag(core))
            off_diagonal = core - np.diag(np.diag(core))
            assert np.linalg.norm(off_diagonal) <= 1e-10 * np.linalg.norm(M)
            recon = s.left @ core @ s.right.T
            assert np.linalg.norm(recon - M) <= 1e-10 * np.linalg.norm(M)
            assert vals.max() ** 2 == pytest.approx(s.norm_mtm, rel=1e-10)
            assert vals.min() ** 2 == pytest.approx(s.sigma_plus, rel=1e-10)


class TestSpectralSummary:
    def test_identity(self):
        s = spectral_summary(np.eye(2))
        assert (s.sigma_min, s.sigma_plus, s.norm_mtm) == (1.0, 1.0, 1.0)
        assert s.rank == 2

    def test_singular_diagonal(self):
        s = spectral_summary(np.diag([2.0, 0.0]))
        assert s.sigma_min == 0.0
        assert s.sigma_plus == pytest.approx(4.0)
        assert s.norm_mtm == pytest.approx(4.0)
        assert s.rank == 1

    def test_rank_one_against_eig_oracle(self):
        B = np.array([[1.0, 1.0], [0.0, 0.0]])
        eigs = np.sort(np.linalg.eigvalsh(B.T @ B))   # {0, 2} by brute force
        s = spectral_summary(B)
        assert s.sigma_min == 0.0
        assert s.sigma_plus == pytest.approx(eigs[-1], rel=1e-9)
        assert s.norm_mtm == pytest.approx(eigs[-1], rel=1e-9)

    def test_square_invertible_has_equal_sigmas(self):
        rng = np.random.default_rng(2)
        B = _random_rank_matrix(rng, 4, 4, 4)
        s = spectral_summary(B)
        assert s.sigma_min == pytest.approx(s.sigma_plus)
        assert s.sigma_min <= s.sigma_plus <= s.norm_mtm

    def test_zero_matrix_rejected(self):
        with pytest.raises(ConfigurationError):
            spectral_summary(np.zeros((2, 2)))


class TestProjection:
    def test_full_range_is_identity(self):
        u = np.array([1.5, -2.0, 0.25])
        assert project_onto_range(np.eye(3), u) == pytest.approx(u)

    def test_axis_projection(self):
        S = np.array([[1.0], [0.0]])
        assert project_onto_range(S, np.array([3.0, 4.0])) == pytest.approx([3.0, 0.0])

    def test_against_normal_equations_oracle(self):
        rng = np.random.default_rng(3)
        S = rng.standard_normal((4, 2))
        u = rng.standard_normal(4)
        proj = project_onto_range(S, u)
        # Least-squares oracle: the projection solves the normal equations.
        w, *_ = np.linalg.lstsq(S, u, rcond=None)
        assert proj == pytest.approx(S @ w, abs=1e-10)
        assert S.T @ (u - proj) == pytest.approx(np.zeros(2), abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            project_onto_range(np.eye(3), np.ones(2))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_idempotence(self, seed):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        rank = int(rng.integers(1, min(rows, cols) + 1))
        S = _random_rank_matrix(rng, rows, cols, rank)
        u = rng.standard_normal(rows)
        once = project_onto_range(S, u)
        twice = project_onto_range(S, once)
        assert np.linalg.norm(twice - once) <= 1e-10 * max(1.0, np.linalg.norm(u))


class TestRangeInclusionGap:
    def test_full_range(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((3, 2))
        b = rng.standard_normal(3)
        assert range_inclusion_gap(np.eye(3), A, b) <= 1e-12

    def test_orthogonal_column(self):
        B = np.array([[1.0], [0.0]])
        A = np.array([[0.0], [1.0]])
        assert range_inclusion_gap(B, A, np.zeros(2)) == pytest.approx(1.0)

    def test_span_inclusion_by_projection_oracle(self):
        B = np.array([[1.0], [1.0]])
        A = np.array([[2.0], [2.0]])
        b = np.array([3.0, 3.0])
        # Projection oracle: both A's column and b are multiples of B's column.
        for v in (A[:, 0], b):
            proj = project_onto_range(B, v)
            assert np.linalg.norm(v - proj) <= 1e-12
        assert range_inclusion_gap(B, A, b) <= 1e-10


class TestRowSpaceProjectionBound:
    def test_projection_bounded_by_scaled_image_norm(self):
        # ||P_{S^T}(u)|| <= ||S u|| / sqrt(sigma_plus(S)) on mixed-rank draws;
        # the 1000-pair version is in the acceptance suite.
        rng = np.random.default_rng(5)
        for _ in range(200):
            rows = int(rng.integers(1, 8))
            cols = int(rng.integers(1, 8))
            rank = int(rng.integers(1, min(rows, cols) + 1))
            S = _random_rank_matrix(rng, rows, cols, rank)
            u = rng.standard_normal(cols) * 10.0 ** rng.uniform(-2, 2)
            sigma_plus = spectral_summary(S).sigma_plus
            lhs = np.linalg.norm(project_onto_range(S.T, u))
            rhs = np.linalg.norm(S @ u) / np.sqrt(sigma_plus)
            assert lhs <= rhs + 1e-8


class TestSingleFactorization:
    """A run factors B once; every consumer shares that factorization."""

    DOC = {"instance": {"generator": {"family": "quad-quad", "n": 4, "p": 5,
                                      "l": 6, "seed": 8}},
           "solver": {"theta": 1.3, "beta": "auto", "tau": 0.0, "rho": 1e-6,
                      "max_iters": 30},
           "start": {"policy": "zeros"}}

    @pytest.fixture
    def svd_calls(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counting(*args, **kwargs):
            if sys._getframe(1).f_globals["__name__"] == "admmcert.linalg":
                calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        return calls

    def test_one_svd_per_execution(self, svd_calls):
        doc = json.loads(json.dumps(self.DOC))
        inst = prepare_instance(doc)
        result = execute_config(doc, inst)
        assert svd_calls == [(6, 5)]
        fresh = spectral_summary(inst.B)
        assert result.constants.spectral == fresh
        assert np.array_equal(result.constants.spectral.left, fresh.left)
        assert np.array_equal(result.constants.spectral.right, fresh.right)

    def test_consistent_multiplier_reads_the_factorization(self, svd_calls,
                                                           monkeypatch):
        lstsq_calls = []
        lstsq = np.linalg.lstsq

        def counting(*args, **kwargs):
            if sys._getframe(1).f_globals["__name__"].startswith("admmcert"):
                lstsq_calls.append(args[0].shape)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counting)
        doc = json.loads(json.dumps(self.DOC))
        doc["start"] = {"policy": "consistent-multiplier"}
        inst = prepare_instance(doc)
        result = execute_config(doc, inst)
        assert svd_calls == [(6, 5)] and lstsq_calls == []
        grad = inst.g.gradient(np.zeros(5))
        reference = lstsq(inst.B.T, grad, rcond=None)[0]
        lam0 = result.start.lam
        assert np.linalg.norm(lam0 - reference) <= 1e-12 * np.linalg.norm(reference)

    def test_one_svd_per_sweep(self, svd_calls, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(self.DOC))
        theta_sweep(cfg, [0.8, 1.2], out_path=tmp_path / "sweep.csv", workers=1)
        assert len(svd_calls) == 1

    def test_range_gap_from_shared_factorization(self):
        rng = np.random.default_rng(9)
        B = _random_rank_matrix(rng, 6, 4, 3)
        A = B @ rng.standard_normal((4, 2))
        b = rng.standard_normal(6)
        assert range_inclusion_gap(B, A, b, spectral_summary(B)) == \
            range_inclusion_gap(B, A, b)


class TestNorm:
    """_norm, the loop's and the certifier's vector norm, gives the bits of
    np.linalg.norm without its dispatch."""

    @pytest.mark.parametrize("v", [
        [], [0.0, 0.0, 0.0], [-0.0], [3.0, 4.0], [math.inf, 1.0], [-math.inf],
        [math.nan, 1.0], [1.0, -math.inf, math.nan], [1e200, -1e200],
        [1e154, 1e154], [1e-200] * 4, [5e-324, -5e-324],
        list(np.random.default_rng(3).standard_normal(301) * 1e150),
    ], ids=["empty", "zero", "negative-zero", "three-four", "inf", "minus-inf",
            "nan", "inf-and-nan", "overflow", "near-overflow", "underflow",
            "subnormal", "random-1e150"])
    def test_same_bits_as_numpy(self, v):
        v = np.array(v, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            ours, numpy_norm = _norm(v), float(np.linalg.norm(v))
        assert struct.pack("<d", ours) == struct.pack("<d", numpy_norm)
