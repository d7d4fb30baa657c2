"""Objective oracles: prox exactness, tie-breaking, curvature constants."""

import numpy as np
import pytest

from admmcert import (BoxIndicator, ConvexQuadratic, CosineQuadratic, L0Penalty,
                      QuadraticSmooth, SphereIndicator)


def _prox_objective(f, x, center, weight):
    return f.value(x) + 0.5 * weight * float((x - center) @ (x - center))


def _all_oracles(rng, dim):
    P = rng.standard_normal((dim, dim))
    P = P @ P.T / dim + 0.1 * np.eye(dim)
    lo = -rng.uniform(0.2, 1.0, dim)
    hi = rng.uniform(0.2, 1.0, dim)
    return [
        ConvexQuadratic(P, rng.standard_normal(dim)),
        BoxIndicator(lo, hi),
        L0Penalty(0.4, dim),
        SphereIndicator(dim),
    ]


class TestProxGlobalOptimality:
    def test_random_perturbations_never_improve(self):
        # Spot check of global prox optimality: nudging the output in 20
        # random directions at size 1e-4 never improves the prox objective.
        rng = np.random.default_rng(7)
        for f in _all_oracles(rng, 4):
            for _ in range(5):
                center = rng.standard_normal(4) * rng.uniform(0.1, 3.0)
                weight = rng.uniform(0.2, 5.0)
                x = f.scaled_prox(center, weight)
                base = _prox_objective(f, x, center, weight)
                assert base <= _prox_objective(f, center, center, weight) + 1e-12
                for _ in range(20):
                    d = rng.standard_normal(4)
                    d /= np.linalg.norm(d)
                    for sign in (1.0, -1.0):
                        trial = _prox_objective(f, x + sign * 1e-4 * d, center, weight)
                        assert trial >= base - 1e-9


class TestConvexQuadratic:
    def test_prox_solves_stationarity(self):
        rng = np.random.default_rng(8)
        P = np.diag([1.0, 2.0, 0.0])
        f = ConvexQuadratic(P, np.array([1.0, -1.0, 0.5]))
        center = rng.standard_normal(3)
        x = f.scaled_prox(center, 2.0)
        assert P @ x + f.q + 2.0 * (x - center) == pytest.approx(np.zeros(3), abs=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            ConvexQuadratic(np.diag([1.0, -0.5]), np.zeros(2))

    @pytest.mark.parametrize("make", [ConvexQuadratic, QuadraticSmooth])
    def test_rejects_non_square(self, make):
        # M + M.T would broadcast a 1x2 matrix to 2x2.
        with pytest.raises(ValueError, match="must be square"):
            make([[1.0, 0.0]], [0.0, 0.0])


class TestBoxIndicator:
    def test_prox_is_clamp(self):
        f = BoxIndicator(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        assert f.scaled_prox(np.array([2.0, -0.5]), 3.0) == pytest.approx([1.0, 0.0])

    def test_value_inside_and_outside(self):
        f = BoxIndicator(np.array([-1.0]), np.array([1.0]))
        assert f.value(np.array([0.5])) == 0.0
        assert f.value(np.array([1.5])) == float("inf")


class TestL0Penalty:
    def test_hard_threshold(self):
        f = L0Penalty(mu=0.5, dim=3)
        # threshold sqrt(2*0.5/1) = 1
        x = f.scaled_prox(np.array([2.0, 0.5, -1.5]), 1.0)
        assert x == pytest.approx([2.0, 0.0, -1.5])

    def test_tie_resolves_to_zero(self):
        f = L0Penalty(mu=0.5, dim=1)
        x = f.scaled_prox(np.array([1.0]), 1.0)   # exactly at threshold
        assert x[0] == 0.0

    def test_value_counts_nonzeros(self):
        f = L0Penalty(mu=0.25, dim=4)
        assert f.value(np.array([1.0, 0.0, -2.0, 0.0])) == pytest.approx(0.5)


class TestSphereIndicator:
    def test_prox_normalizes(self):
        f = SphereIndicator(3)
        x = f.scaled_prox(np.array([0.0, 3.0, 4.0]), 2.0)
        assert x == pytest.approx([0.0, 0.6, 0.8])

    def test_zero_maps_to_first_basis_vector(self):
        f = SphereIndicator(3)
        assert f.scaled_prox(np.zeros(3), 1.0) == pytest.approx([1.0, 0.0, 0.0])


class TestSmoothOracles:
    def test_quadratic_constants_from_eigenvalues(self):
        Q = np.diag([2.0, -0.5])
        g = QuadraticSmooth(Q, np.zeros(2))
        assert g.lipschitz == pytest.approx(2.0)
        assert g.weak_convexity == pytest.approx(0.5)

    def test_quadratic_constant_overrides(self):
        g = QuadraticSmooth(np.eye(2), np.zeros(2), lipschitz=0.5)
        assert g.lipschitz == 0.5

    def test_cosine_constants(self):
        g = CosineQuadratic(a=2.0, dim=3)
        assert g.lipschitz == pytest.approx(3.0)
        assert g.weak_convexity == pytest.approx(1.0)
        convex = CosineQuadratic(a=0.5, dim=3)
        assert convex.weak_convexity == 0.0

    def test_cosine_gradient_matches_finite_differences(self):
        g = CosineQuadratic(a=1.7, dim=4)
        rng = np.random.default_rng(10)
        y = rng.standard_normal(4)
        grad = g.gradient(y)
        h = 1e-6
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            fd = (g.value(y + e) - g.value(y - e)) / (2 * h)
            assert grad[i] == pytest.approx(fd, abs=1e-8)

    def test_cosine_hessian_bounds(self):
        g = CosineQuadratic(a=2.0, dim=3)
        rng = np.random.default_rng(11)
        for _ in range(10):
            eigs = np.linalg.eigvalsh(g.hessian(rng.standard_normal(3)))
            assert eigs[0] >= 1.0 - g.a - 1e-12
            assert eigs[-1] <= 1.0 + g.a + 1e-12


class TestBlockProx:
    """The prox of a 2-D stack is the prox of each row, bit for bit, for the
    families whose prox the certifier re-solves a block at a time (the
    quadratic family's first block is certified through P x + q instead)."""

    @pytest.mark.parametrize("f", [
        L0Penalty(0.25, 4), BoxIndicator(-np.ones(4), 0.5 * np.ones(4)),
        SphereIndicator(4)], ids=["l0", "box", "sphere"])
    def test_block_prox_equals_the_row_by_row_prox(self, f):
        rng = np.random.default_rng(11)
        weight = 2.0
        threshold = np.sqrt(2.0 * 0.25 / weight)   # L0's hard threshold, 0.5
        C = rng.standard_normal((7, 4)) * rng.uniform(0.1, 3.0, (7, 1))
        C[2] = 0.0                                       # an exact zero row
        C[4] = [threshold, -threshold, 0.3, -2.0]        # a row at the threshold
        block = f.scaled_prox(C, weight)
        assert block.shape == C.shape
        for center, row in zip(C, block):
            alone = f.scaled_prox(center, weight)
            assert alone.tobytes() == row.tobytes()
        if isinstance(f, SphereIndicator):
            assert block[2].tolist() == [1.0, 0.0, 0.0, 0.0]
        if isinstance(f, L0Penalty):
            assert block[4].tolist() == [0.0, 0.0, 0.0, -2.0]
