"""Instance generators: assumption compliance and floor validity."""

import numpy as np
import pytest

from admmcert import (GeneratorError, generate_instance, scalar_fixture,
                      spectral_summary, validate_assumptions)
from admmcert.generators import _exact_quadratic_floor


def _penalized_objective(inst, x, y):
    r = inst.residual(x, y)
    return (inst.f.value(x) + inst.g.value(y)
            + 0.5 * inst.beta_bar * float(r @ r))


class TestFamilies:
    @pytest.mark.parametrize("family", ["quad-quad", "l0-ls", "box-cos",
                                        "sphere-quad"])
    def test_generated_instances_validate(self, family):
        for seed in (0, 1, 2):
            inst = generate_instance(family, 4, 5, 5, seed=seed)
            checks = validate_assumptions(inst, samples=80, seed=seed)
            assert all(c.passed for c in checks), f"{family} seed {seed}: {checks}"

    def test_scalar_dims_return_canonical_instance(self):
        inst = generate_instance("quad-quad", 1, 1, 1, seed=123)
        ref = scalar_fixture()
        assert inst.A == pytest.approx(ref.A)
        assert inst.B == pytest.approx(ref.B)
        assert inst.objective_floor == 0.0
        assert inst.f.P == pytest.approx(np.ones((1, 1)))
        assert inst.g.Q == pytest.approx(np.ones((1, 1)))

    def test_same_seed_reproduces(self):
        a = generate_instance("l0-ls", 3, 4, 4, seed=9)
        b = generate_instance("l0-ls", 3, 4, 4, seed=9)
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.g.Q, b.g.Q)
        assert a.objective_floor == b.objective_floor

    def test_rank_parameter_controls_sigma_min(self):
        full = generate_instance("quad-quad", 3, 4, 5, seed=2)
        assert spectral_summary(full.B).sigma_min > 0
        deficient = generate_instance("quad-quad", 3, 4, 5, seed=2,
                                      params={"rank": 2, "nonconvex": False})
        s = spectral_summary(deficient.B)
        assert s.sigma_min == 0.0
        assert s.rank == 2

    def test_ortho_a_gives_orthonormal_columns_inside_range(self):
        inst = generate_instance("l0-ls", 3, 5, 5, seed=4,
                                 params={"ortho_a": True})
        assert inst.A.T @ inst.A == pytest.approx(np.eye(3), abs=1e-12)
        from admmcert import range_inclusion_gap
        assert range_inclusion_gap(inst.B, inst.A, inst.b) <= 1e-10

    def test_ortho_a_needs_enough_rank(self):
        with pytest.raises(GeneratorError):
            generate_instance("l0-ls", 5, 3, 3, seed=0, params={"ortho_a": True})

    def test_unknown_family_and_bad_dims(self):
        with pytest.raises(GeneratorError):
            generate_instance("nope", 2, 2, 2, seed=0)
        with pytest.raises(GeneratorError):
            generate_instance("quad-quad", 0, 2, 2, seed=0)


class TestObjectiveFloors:
    def test_quad_quad_floor_matches_minimize_oracle(self):
        import scipy.optimize
        inst = generate_instance("quad-quad", 3, 3, 3, seed=5)

        def obj(z):
            return _penalized_objective(inst, z[:3], z[3:])

        best = min(
            scipy.optimize.minimize(obj, x0, method="BFGS",
                                    options={"gtol": 1e-12, "maxiter": 500}).fun
            for x0 in np.random.default_rng(0).standard_normal((5, 6)))
        assert best == pytest.approx(inst.objective_floor, abs=1e-6)

    def test_quad_quad_nonconvex_smooth_block(self):
        # full-rank draws keep one negative mode in the smooth block
        inst = generate_instance("quad-quad", 4, 4, 4, seed=7,
                                 params={"nonconvex": True})
        assert inst.g.weak_convexity > 0

    @pytest.mark.parametrize("family", ["l0-ls", "box-cos", "sphere-quad"])
    def test_floor_is_a_lower_bound_by_sampling(self, family):
        inst = generate_instance(family, 4, 5, 5, seed=11)
        rng = np.random.default_rng(1)
        n, p, _ = inst.dims
        for _ in range(300):
            x = rng.standard_normal(n) * 10.0 ** rng.uniform(-1, 1)
            if inst.f.value(x) == float("inf"):
                x = inst.f.scaled_prox(x, 1.0)
            y = rng.standard_normal(p) * 10.0 ** rng.uniform(-1, 1)
            assert _penalized_objective(inst, x, y) >= inst.objective_floor - 1e-9

    def test_large_sparsity_weight_zeroes_the_first_block(self):
        # a dominant hard-threshold weight keeps every coordinate at zero
        from helpers import auto_config, default_start
        from admmcert import run
        inst = generate_instance("l0-ls", 4, 5, 5, seed=17, params={"mu": 50.0})
        cfg = auto_config(inst, 1.0, g_kind="linearized", rho=1e-8,
                          max_iters=4000)
        res = run(inst, cfg, default_start(inst))
        assert res.outcome == "converged"
        assert np.count_nonzero(res.final.x) == 0
        assert not [c for c in res.checks if not c.passed]

    def test_unbounded_penalized_objective_is_an_error(self):
        # smooth block indefinite on the null space of the couplings
        A = np.zeros((2, 1))
        B = np.array([[1.0, 0.0], [0.0, 0.0]])
        b = np.zeros(2)
        P = np.eye(1)
        q = np.zeros(1)
        Q = np.diag([1.0, -1.0])
        c = np.zeros(2)
        with pytest.raises(GeneratorError, match="unbounded"):
            _exact_quadratic_floor(A, B, b, P, q, Q, c)


def _reference_quadratic_floor(A, B, b, P, q, Q, c):
    """_exact_quadratic_floor with the full joint eigen solve at every level,
    and H0 + beta_bar C^T C formed afresh from a dense H0 at each use."""
    n, p = A.shape[1], B.shape[1]
    C = np.hstack([A, B])
    H0 = np.zeros((n + p, n + p))
    H0[:n, :n] = P
    H0[n:, n:] = Q
    beta_bar = 0.0
    while True:
        eigs = np.linalg.eigvalsh(H0 + beta_bar * (C.T @ C))
        if eigs[0] > 1e-8 * max(1.0, eigs[-1]):
            break
        beta_bar = max(1.0, 2.0 * beta_bar)
    w = np.concatenate([q - beta_bar * (A.T @ b), c - beta_bar * (B.T @ b)])
    z = np.linalg.solve(H0 + beta_bar * (C.T @ C), -w)
    return beta_bar, 0.5 * float(z @ w) + 0.5 * beta_bar * float(b @ b)


class TestBlockDiagonalSpectrum:
    """At beta_bar = 0 the floor search reads the spectrum block by block."""

    @pytest.mark.parametrize("nonconvex", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 7, 19])
    def test_same_floor_as_full_eigen_solve(self, nonconvex, seed):
        inst = generate_instance("quad-quad", 5, 7, 9, seed=seed,
                                 params={"nonconvex": nonconvex})
        args = (inst.A, inst.B, inst.b, inst.f.P, inst.f.q, inst.g.Q, inst.g.c)
        assert _exact_quadratic_floor(*args) == _reference_quadratic_floor(*args)
        assert (inst.beta_bar == 0.0) == (not nonconvex)

    def test_in_place_hessian_over_several_doublings(self):
        # The penalized Hessian is made again in one buffer at each level;
        # Q's mode of -3 is seen only through B, so beta_bar climbs 0, 1, 2, 4.
        rng = np.random.default_rng(5)
        args = (np.zeros((2, 1)), np.eye(2), rng.standard_normal(2), np.eye(1),
                rng.standard_normal(1), np.diag([1.0, -3.0]), rng.standard_normal(2))
        got = _exact_quadratic_floor(*args)
        assert got[0] == 4.0
        assert [v.hex() for v in got] == [
            v.hex() for v in _reference_quadratic_floor(*args)]
