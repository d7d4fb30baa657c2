"""Instance generators: assumption compliance and floor validity."""

import numpy as np
import pytest

from admmcert import (GeneratorError, generate_instance, scalar_fixture,
                      spectral_summary, validate_assumptions)
from admmcert.generators import _exact_quadratic_floor


def _penalized_objective(inst, x, y):
    r = inst.A @ x + inst.B @ y - inst.b
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
        x, _, _ = res.final
        assert np.count_nonzero(x) == 0
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
    """_exact_quadratic_floor by another route: the full joint eigen solve at
    every level, H0 + beta_bar C^T C formed afresh from a dense H0 at each
    use, and an LU solve for the floor."""
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


def _quad_args(inst):
    return (inst.A, inst.B, inst.b, inst.f.P, inst.f.q, inst.g.Q, inst.g.c)


def _assert_matches_reference(args):
    """The same beta_bar, and the floor up to rounding: Cholesky and LU
    round differently, so the two floors need not agree bit for bit."""
    beta_bar, floor = _exact_quadratic_floor(*args)
    ref_beta_bar, ref_floor = _reference_quadratic_floor(*args)
    assert beta_bar == ref_beta_bar
    assert abs(floor - ref_floor) <= 1e-11 * max(1.0, abs(ref_floor))
    return beta_bar


class TestBlockDiagonalSpectrum:
    """The Cholesky floor search, whose beta_bar = 0 level is the block
    diagonal diag(P, Q), against the eigen-solve reference."""

    @pytest.mark.parametrize("nonconvex", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 7, 19])
    def test_same_floor_as_full_eigen_solve(self, nonconvex, seed):
        inst = generate_instance("quad-quad", 5, 7, 9, seed=seed,
                                 params={"nonconvex": nonconvex})
        _assert_matches_reference(_quad_args(inst))
        assert (inst.beta_bar == 0.0) == (not nonconvex)

    @pytest.mark.parametrize("seed", [0, 1, 7, 19])
    def test_climb_from_one_gives_the_same_bits(self, seed):
        # A negative mode makes diag(P, Q) indefinite, so the generator starts
        # the climb at beta_bar = 1.  Level 1 rewrites the whole buffer, so
        # that climb ends bit for bit where the climb from 0 does.
        inst = generate_instance("quad-quad", 5, 7, 9, seed=seed)
        assert np.linalg.eigvalsh(inst.g.Q)[0] < 0
        args = _quad_args(inst)
        assert _exact_quadratic_floor(*args, 1.0) == _exact_quadratic_floor(*args)

    def test_in_place_hessian_over_several_doublings(self):
        # The penalized Hessian is made again in one buffer at each level;
        # Q's mode of -3 is seen only through B, so beta_bar climbs 0, 1, 2, 4.
        rng = np.random.default_rng(5)
        args = (np.zeros((2, 1)), np.eye(2), rng.standard_normal(2), np.eye(1),
                rng.standard_normal(1), np.diag([1.0, -3.0]), rng.standard_normal(2))
        assert _assert_matches_reference(args) == 4.0

    def test_rank_deficient_coupling(self):
        inst = generate_instance("quad-quad", 3, 6, 6, seed=6, params={"rank": 4})
        assert np.linalg.matrix_rank(inst.B) == 4
        assert _assert_matches_reference(_quad_args(inst)) == 4.0

    def test_nonconvex_shrink_path(self, monkeypatch):
        # rank(B) = 1 leaves Q's negative mode on the null space of the
        # couplings, so the first draw is refused and the mode shrinks.
        from admmcert import generators
        outcomes = []

        def spy(*args):
            try:
                got = _exact_quadratic_floor(*args)
            except GeneratorError:
                outcomes.append("refused")
                raise
            outcomes.append("accepted")
            return got

        monkeypatch.setattr(generators, "_exact_quadratic_floor", spy)
        inst = generate_instance("quad-quad", 2, 8, 8, seed=9, params={"rank": 1})
        assert outcomes == ["refused", "accepted"]
        assert inst.g.weak_convexity > 0
        assert _assert_matches_reference(_quad_args(inst)) == inst.beta_bar == 8.0

    def test_level_inside_the_margin_is_refused(self):
        # diag(P, Q) at beta_bar = 0 is positive definite, but its
        # lambda_min / lambda_max = 1e-9 lies inside the 1e-8 margin: that
        # level is refused and the climb goes on to beta_bar = 1.
        P, Q = np.array([[1e4]]), np.array([[1e-5]])
        assert 0.0 < Q[0, 0] < 1e-8 * P[0, 0]
        args = (np.zeros((1, 1)), np.eye(1), np.ones(1), P, np.ones(1), Q,
                np.ones(1))
        assert _assert_matches_reference(args) == 1.0


class TestFloorMemory:
    def test_traced_peak_is_one_hessian_buffer(self):
        # The floor search holds one (n+p) x (n+p) buffer and vectors; no
        # block product, copy of H or concatenated coupling is made beside it.
        import tracemalloc
        n = p = 200
        args = _quad_args(generate_instance("quad-quad", n, p, 200, seed=3))
        tracemalloc.start()
        try:
            _exact_quadratic_floor(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * (n + p) ** 2
