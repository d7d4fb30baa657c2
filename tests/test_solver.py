"""Splitting loop: subproblem steps, residual identities, full runs."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

import admmcert.solver
from admmcert import (BoxIndicator, ConfigurationError, ConvexQuadratic,
                      CosineQuadratic, ExplicitG, LinearizedG, ProblemInstance,
                      QuadraticSmooth, SolverConfig, ZeroG, generate_instance,
                      run)
from admmcert import certify
from admmcert.certify import STEP_CHECKS, _max1, _tolerance
from admmcert.errors import InnerSolveError
from admmcert.params import c1, gamma
from admmcert.solver import InnerWork, Trace, _XStep, _YStep, _make_spd_solver
from helpers import (auto_config, aug_lagrangian, default_start,
                     merit_columns_reference, metric_matrix, newton_reference,
                     step_rows_reference)


def _run_records(inst, config, start):
    """The run and the full record of each of its iterations."""
    records = []
    return run(inst, config, start, on_iterate=records.append), records


@pytest.fixture
def first_record(scalar_instance, scalar_config, scalar_start):
    return _run_records(scalar_instance, scalar_config, scalar_start)[1][0]


class TestScalarRecursion:
    """Hand-evaluated first sweep on the canonical scalar instance.

    From (x0, y0, lam0) = (0, 1, 1) with beta = 4, theta = 1, tau = 0 and
    L(x, y, lam) = x^2/2 + y^2/2 - lam (x + y) + 2 (x + y)^2.
    """

    def test_x_step(self, first_record):
        # 5 x + 3 = 0
        assert first_record.x == pytest.approx([-0.6], abs=1e-14)

    def test_y_step(self, first_record):
        # 5 y - 3.4 = 0 at x1 = -0.6
        assert first_record.y == pytest.approx([0.68], abs=1e-14)

    def test_lambda_step(self, first_record):
        # lam1 = lam0 - theta * beta * (x1 + y1) = 1 - 4 * 0.08
        assert first_record.lam == pytest.approx([0.68], abs=1e-14)
        assert first_record.lam - 1.0 == pytest.approx([-0.32], abs=1e-14)

    def test_lambda_hat(self, first_record):
        # lam_hat1 = lam0 - beta * (x1 + y0) = 1 - 4 * 0.4
        assert first_record.lam_hat == pytest.approx([-0.6], abs=1e-14)

    def test_auxiliary_multiplier_identity_first_sweep(self, scalar_instance):
        # grad g(y1) - B^T lam_hat1 = -(beta B^T B + tau) dy1: 1.28 = -4*(-0.32)
        assert 0.68 - (-0.6) == pytest.approx(-4.0 * (0.68 - 1.0))


class TestXStepRoutes:
    def test_smooth_least_squares_when_f_vanishes(self):
        # f = 0 and G = 0: stationarity is beta A^T A x = A^T(lam - beta(By - b))
        rng = np.random.default_rng(20)
        A = rng.standard_normal((4, 3))
        B = np.eye(4)
        inst = ProblemInstance(A=A, B=B, b=rng.standard_normal(4),
                               f=ConvexQuadratic(np.zeros((3, 3)), np.zeros(3)),
                               g=QuadraticSmooth(np.eye(4), np.zeros(4)),
                               objective_floor=-100.0)
        xstep = _XStep(inst, 2.0, ZeroG())
        assert xstep.route == "quadratic"
        y, lam = rng.standard_normal(4), rng.standard_normal(4)
        x = xstep(np.zeros(3), B @ y, lam)
        rhs = A.T @ (lam - 2.0 * (B @ y - inst.b))
        assert 2.0 * (A.T @ A) @ x == pytest.approx(rhs, abs=1e-10)

    def test_box_clamp_against_grid_search(self):
        # 1-D box subproblem under the linearized metric; dense grid oracle
        A = np.array([[1.5]])
        inst = ProblemInstance(A=A, B=np.eye(1), b=np.array([0.3]),
                               f=BoxIndicator(np.array([0.0]), np.array([1.0])),
                               g=QuadraticSmooth(np.eye(1), np.zeros(1)),
                               objective_floor=-10.0)
        beta = 3.0
        alpha = 1.2 * beta * 1.5 ** 2
        xstep = _XStep(inst, beta, LinearizedG(alpha))
        x_prev, y, lam = np.array([0.9]), np.array([-0.4]), np.array([0.7])
        x = xstep(x_prev, inst.B @ y, lam)

        grid = np.linspace(0.0, 1.0, 100001)
        G = alpha * np.eye(1) - beta * (A.T @ A)
        objective = [aug_lagrangian(inst, beta, np.array([t]), y, lam)
                     + 0.5 * G[0, 0] * (t - x_prev[0]) ** 2 for t in grid]
        best = grid[int(np.argmin(objective))]
        assert x[0] == pytest.approx(best, abs=2e-5)

    def test_prox_route_detected_for_orthonormal_columns(self):
        # A^T A = I and G = 0 turn the subproblem into a plain prox
        rng = np.random.default_rng(21)
        A = np.linalg.qr(rng.standard_normal((5, 3)))[0]
        inst = ProblemInstance(A=A, B=np.eye(5), b=np.zeros(5),
                               f=BoxIndicator(-np.ones(3), np.ones(3)),
                               g=QuadraticSmooth(np.eye(5), np.zeros(5)),
                               objective_floor=-10.0)
        xstep = _XStep(inst, 2.0, ZeroG())
        assert xstep.route == "prox"
        x = xstep(np.zeros(3), np.zeros(5), np.zeros(5))
        assert np.all(np.abs(x) <= 1.0 + 1e-12)

    def test_indicator_with_general_coupling_rejected(self):
        # general A with G = 0 leaves no exact route for an indicator term
        rng = np.random.default_rng(22)
        A = rng.standard_normal((4, 3)) + np.vstack([np.eye(3), np.zeros((1, 3))])
        inst = ProblemInstance(A=A, B=np.eye(4), b=np.zeros(4),
                               f=BoxIndicator(-np.ones(3), np.ones(3)),
                               g=QuadraticSmooth(np.eye(4), np.zeros(4)),
                               objective_floor=-10.0)
        with pytest.raises(ConfigurationError, match="not solvable exactly"):
            _XStep(inst, 2.0, ZeroG())


class TestMetricValue:
    """The x-step owns the proximal metric: the linearized prox weight is the
    spec's alpha, and a zero metric is None whichever spec states it."""

    @pytest.mark.parametrize("dims", [(20, 30, 30), (100, 300, 300)])
    @pytest.mark.parametrize("family", ["l0-ls", "box-cos"])
    def test_linearized_weight_is_alpha_bit_for_bit(self, family, dims):
        # A diagonal mean of beta A^T A + (alpha I - beta A^T A) differs from
        # alpha in the last bits on 13 of these 20 draws.
        for seed in range(5):
            inst = generate_instance(family, *dims, seed=seed)
            cfg = auto_config(inst, 1.5, g_kind="linearized")
            xstep = _XStep(inst, cfg.beta, cfg.G)
            assert xstep.route == "prox"
            assert xstep.alpha == cfg.G.alpha
            assert np.array_equal(xstep.G, metric_matrix(inst, cfg))

    @pytest.mark.parametrize("family,params", [("quad-quad", {}),
                                               ("l0-ls", {"ortho_a": True})])
    def test_all_zero_explicit_metric_is_the_zero_metric(self, family, params):
        inst = generate_instance(family, 4, 5, 6, seed=8, params=params)
        n = inst.dims[0]
        runs = []
        for spec in (ZeroG(), ExplicitG(np.zeros((n, n)))):
            cfg = auto_config(inst, 1.4, g_kind=spec, rho=1e-300, max_iters=30)
            assert _XStep(inst, cfg.beta, spec).G is None
            runs.append(run(inst, cfg, default_start(inst)))
        zero, explicit = runs
        assert zero.outcome == explicit.outcome == "iteration-cap"
        for name in Trace.COLUMNS:
            assert np.array_equal(getattr(zero.trace, name),
                                  getattr(explicit.trace, name)), name
        assert list(zero.checks) == list(explicit.checks)
        assert zero.checks.passed.all()


def _assert_cholesky_backward_error(H, x, rhs):
    """|H x - rhs| <= gamma_{3p+1} |L| |L^T| |x| componentwise, the bound of
    a Cholesky solve with the computed factor L of the symmetrized H
    (Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.4).  The
    residual is formed in exact rational arithmetic, so only the solve's
    rounding is measured."""
    H = 0.5 * (H + H.T)
    L = scipy.linalg.cholesky(H, lower=True)
    x_exact = [Fraction(v) for v in x.tolist()]
    resid = np.array([
        float(sum(map(Fraction.__mul__, map(Fraction, row), x_exact), -Fraction(r)))
        for row, r in zip(H.tolist(), rhs.tolist())])
    k_u = (3 * len(x) + 1) * 2.0 ** -53
    bound = k_u / (1.0 - k_u) * (np.abs(L) @ (np.abs(L.T) @ np.abs(x)))
    assert np.all(np.abs(resid) <= bound), np.max(np.abs(resid) / bound)


class TestYStep:
    def test_quadratic_matches_dense_solve(self):
        rng = np.random.default_rng(23)
        B = rng.standard_normal((4, 4)) + 2 * np.eye(4)
        Q = np.diag([1.0, 2.0, 0.5, 1.5])
        c = rng.standard_normal(4)
        inst = ProblemInstance(A=np.eye(4), B=B, b=rng.standard_normal(4),
                               f=ConvexQuadratic(np.eye(4), np.zeros(4)),
                               g=QuadraticSmooth(Q, c), objective_floor=-100.0)
        beta, tau = 2.0, 0.3
        ystep = _YStep(inst, beta, tau)
        assert ystep.route == "quadratic"
        x, y_prev, lam = (rng.standard_normal(4) for _ in range(3))
        y = ystep(inst.A @ x, y_prev, lam)
        H = Q + tau * np.eye(4) + beta * B.T @ B
        rhs = B.T @ lam - beta * B.T @ (inst.A @ x - inst.b) + tau * y_prev - c
        assert y == pytest.approx(np.linalg.solve(H, rhs), abs=1e-10)

    def test_newton_reaches_gradient_target(self):
        # finite-difference oracle on the subproblem gradient at the output
        rng = np.random.default_rng(24)
        B = np.eye(3)
        inst = ProblemInstance(A=np.eye(3), B=B, b=np.zeros(3),
                               f=ConvexQuadratic(np.eye(3), np.zeros(3)),
                               g=CosineQuadratic(2.0, 3), objective_floor=-6.0)
        beta, tau = 8.0, 0.0
        ystep = _YStep(inst, beta, tau)
        assert ystep.route == "newton"
        x, y_prev, lam = (rng.standard_normal(3) for _ in range(3))
        y = ystep(inst.A @ x, y_prev, lam)

        def phi(yy):
            return (aug_lagrangian(inst, beta, x, yy, lam)
                    + 0.5 * tau * float((yy - y_prev) @ (yy - y_prev)))

        h = 1e-7
        fd = np.array([(phi(y + h * e) - phi(y - h * e)) / (2 * h)
                       for e in np.eye(3)])
        assert np.linalg.norm(fd) <= 1e-5   # limited by differencing noise
        grad = (inst.g.gradient(y) - B.T @ lam
                + beta * B.T @ (inst.A @ x + B @ y - inst.b) + tau * (y - y_prev))
        assert np.linalg.norm(grad) <= 1e-10

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_right_hand_side_raises(self, bad):
        # The factor is checked once when it is made; every solve still
        # checks its right-hand side.
        rng = np.random.default_rng(25)
        M = rng.standard_normal((5, 5))
        H = M @ M.T + 5.0 * np.eye(5)
        solve = _make_spd_solver(H, "test system")
        rhs = rng.standard_normal(5)
        _assert_cholesky_backward_error(H, solve(rhs), rhs)
        rhs[2] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve(rhs)
        inst = ProblemInstance(A=np.eye(3), B=np.eye(3), b=np.zeros(3),
                               f=ConvexQuadratic(np.eye(3), np.zeros(3)),
                               g=CosineQuadratic(2.0, 3), objective_floor=-6.0)
        ystep = _YStep(inst, 8.0, 0.0)
        with pytest.raises(ValueError, match="infs or NaNs"):
            ystep._newton_step(np.zeros(3), np.array([1.0, bad, 0.0]))

    @pytest.mark.parametrize("p", [1, 5, 30, 300])
    def test_solve_meets_the_cholesky_backward_error_bound(self, p):
        rng = np.random.default_rng(26)
        M = rng.standard_normal((p, p))
        H = M @ M.T + p * np.eye(p)
        rhs = rng.standard_normal(p)
        _assert_cholesky_backward_error(H, _make_spd_solver(H, "test system")(rhs), rhs)

    @pytest.mark.parametrize("H,message", [
        (np.array([[1.0, 2.0], [2.0, 1.0]]), "is not positive definite"),
        (np.array([[1.0, np.nan], [0.0, 1.0]]), "has invalid entries"),
        (np.array([[1.0, 0.0], [0.0, np.inf]]), "has invalid entries")])
    def test_refused_system_keeps_its_message(self, H, message):
        # A symmetric indefinite H fails the factorization; a NaN or an inf
        # anywhere in H is refused before it.
        with pytest.raises(ConfigurationError, match=f"^test system {message}$"):
            _make_spd_solver(H, "test system")

    @pytest.mark.parametrize("shape", [(4,), (6,), (5, 1), (1, 5), ()])
    def test_right_hand_side_of_the_wrong_shape_raises(self, shape):
        # BLAS trsv would read the first 5 entries of a longer vector and
        # flatten a 2-D array.
        solve = _make_spd_solver(np.eye(5), "test system")
        with pytest.raises(ValueError, match="shape"):
            solve(np.ones(shape))


class TestSolverConfigValidate:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["theta", "beta", "tau", "rho"])
    def test_non_finite_float_field_is_refused(self, field, value):
        config = SolverConfig(**{"theta": 1.0, "beta": 4.0, field: value})
        with pytest.raises(ConfigurationError, match=field):
            config.validate()

    # 1 - |theta - 1| rounds to 0 at theta = 2**-54, and tau ** 2 overflows
    # past sqrt(max float): the derived constants would divide by zero or
    # raise OverflowError on either beta path.
    @pytest.mark.parametrize("field,value", [("theta", 2.0 ** -54), ("theta", 1e-300),
                                             ("tau", 1e160)])
    def test_value_the_derived_constants_cannot_take_is_refused(self, field, value):
        for beta in (4.0, "auto"):
            config = SolverConfig(**{"theta": 1.0, "beta": beta, field: value})
            with pytest.raises(ConfigurationError, match=f"^{field} "):
                config.validate()

    # A float cap would reach range() only after set-up, and True would run
    # one iteration: both are refused by name before any work.
    @pytest.mark.parametrize("value", [10.0, 1.9, math.inf, True, False, "10", None])
    def test_max_iters_that_is_not_an_integer_is_refused(self, value):
        config = SolverConfig(theta=1.5, beta=4.0, max_iters=value)
        with pytest.raises(ConfigurationError, match="^max_iters must be an integer"):
            config.validate()

    @pytest.mark.parametrize("value", [1, 7, np.int64(7), np.int32(1)])
    def test_integer_max_iters_is_accepted(self, value):
        SolverConfig(theta=1.5, beta=4.0, max_iters=value).validate()

    def test_library_run_refuses_a_float_cap_before_set_up(self, scalar_instance,
                                                           monkeypatch):
        def no_set_up(*args, **kwargs):
            raise AssertionError("set-up ran")

        monkeypatch.setattr(admmcert.solver, "derive_constants", no_set_up)
        with pytest.raises(ConfigurationError, match="max_iters"):
            run(scalar_instance, SolverConfig(theta=1.5, max_iters=10.0),
                (np.zeros(1), np.zeros(1), np.zeros(1)))

    def test_smallest_accepted_theta_gives_finite_constants(self):
        SolverConfig(theta=2.0 ** -53, beta="auto", tau=1e154).validate()
        assert math.isfinite(gamma(2.0 ** -53))
        assert math.isfinite(c1(2.0 ** -53, 1e-3, 1e-3))


class TestRun:
    def test_scalar_first_record_and_convergence(self, scalar_instance,
                                                 scalar_config, scalar_start):
        res, records = _run_records(scalar_instance, scalar_config, scalar_start)
        assert res.outcome == "converged"
        rec = records[0]
        assert rec.x == pytest.approx([-0.6], abs=1e-12)
        assert rec.y == pytest.approx([0.68], abs=1e-12)
        assert rec.lam == pytest.approx([0.68], abs=1e-12)
        assert rec.lam_hat == pytest.approx([-0.6], abs=1e-12)
        # merit ingredients: delta1 = L(x1,y1,lam1) - floor, eta1 = 0.1024
        assert res.trace.delta[0] == pytest.approx(0.3696, abs=1e-12)
        assert res.trace.eta[0] == pytest.approx(0.1024, abs=1e-12)
        assert rec.res_primal == pytest.approx(0.08, abs=1e-12)
        assert rec.res_dual_y == pytest.approx(1.28, abs=1e-12)
        assert rec.res_dual_x == 0.0
        assert records[-1].res_max <= 1e-6

    def test_start_at_critical_point_converges_immediately(self, scalar_instance):
        cfg = SolverConfig(theta=1.0, beta=4.0, tau=0.0, rho=1e-6, max_iters=10)
        res = run(scalar_instance, cfg, (np.zeros(1), np.zeros(1), np.zeros(1)))
        assert res.outcome == "converged"
        assert res.converged_at == 1
        t = res.trace
        assert max(t.res_primal[-1], t.res_dual_y[-1], t.res_dual_x[-1]) <= 1e-12

    def test_residual_identities_along_trace(self, scalar_instance, scalar_config,
                                             scalar_start):
        res, records = _run_records(scalar_instance, scalar_config, scalar_start)
        c = res.constants
        for prev, rec in zip([res.start] + records, records):
            assert rec.res_primal == pytest.approx(
                np.linalg.norm(rec.lam - prev.lam) / (c.beta * c.theta), rel=1e-9)
            lhs = scalar_instance.g.gradient(rec.y) - scalar_instance.B.T @ rec.lam_hat
            rhs = -(c.beta * scalar_instance.B.T @ scalar_instance.B
                    + c.tau * np.eye(1)) @ (rec.y - prev.y)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_inadmissible_beta_rejected(self, scalar_instance):
        cfg = SolverConfig(theta=1.0, beta=1.0, tau=0.0)
        with pytest.raises(ConfigurationError, match="delta1"):
            run(scalar_instance, cfg, (np.zeros(1), np.zeros(1), np.zeros(1)))

    def test_infeasible_seed_rejected(self, scalar_instance):
        # theta=1, tau=0, inconsistent multiplier start
        cfg = SolverConfig(theta=1.0, beta=4.0, tau=0.0)
        with pytest.raises(ConfigurationError, match="seed"):
            run(scalar_instance, cfg, (np.zeros(1), np.ones(1), np.zeros(1)))

    def test_start_outside_domain_rejected(self):
        from admmcert import SphereIndicator
        inst = ProblemInstance(A=np.eye(2), B=np.eye(2), b=np.zeros(2),
                               f=SphereIndicator(2),
                               g=QuadraticSmooth(np.eye(2), np.zeros(2)),
                               objective_floor=-10.0)
        cfg = auto_config(inst, 1.5)
        with pytest.raises(ConfigurationError, match="domain"):
            run(inst, cfg, (np.zeros(2), np.zeros(2), np.zeros(2)))

    def test_beta_below_instance_reference_rejected(self, scalar_instance):
        inst = ProblemInstance(A=scalar_instance.A, B=scalar_instance.B,
                               b=scalar_instance.b, f=scalar_instance.f,
                               g=scalar_instance.g, beta_bar=10.0,
                               objective_floor=0.0)
        cfg = SolverConfig(theta=1.0, beta=4.0, tau=0.0)
        with pytest.raises(ConfigurationError, match="beta_bar"):
            run(inst, cfg, (np.zeros(1), np.zeros(1), np.zeros(1)))

    def test_wide_stepsize_converges_on_scalar_instance(self, scalar_instance):
        cfg = auto_config(scalar_instance, 1.9, rho=1e-6, max_iters=20000)
        res = run(scalar_instance, cfg, (np.zeros(1), np.ones(1), np.ones(1)))
        assert res.outcome == "converged"
        assert not [c for c in res.checks if not c.passed]

    def test_iteration_cap_outcome(self, scalar_instance, scalar_start):
        cfg = SolverConfig(theta=1.0, beta=4.0, tau=0.5, rho=1e-13, max_iters=3)
        res = run(scalar_instance, cfg, scalar_start)
        assert res.outcome == "iteration-cap"
        assert len(res.trace) == 3

    def test_trace_callback_streams_records(self, scalar_instance, scalar_config,
                                            scalar_start):
        seen = []
        res = run(scalar_instance, scalar_config, scalar_start,
                  on_iterate=seen.append)
        assert len(seen) == len(res.trace)
        assert seen[0].k == 1
        for a, b in zip(res.final, (seen[-1].x, seen[-1].y, seen[-1].lam)):
            assert np.array_equal(a, b)
        reported = Trace.COLUMNS[:4]   # the trace holds each record's residuals
        assert reported == ("res_primal", "res_dual_y", "res_dual_x", "inner_budget")
        for i, rec in enumerate(seen):
            assert [getattr(rec, name) for name in reported] == \
                [getattr(res.trace, name)[i] for name in reported]

    def test_bitwise_determinism(self):
        from admmcert import generate_instance
        inst = generate_instance("box-cos", 6, 5, 5, seed=42)
        cfg = auto_config(inst, 1.4, g_kind="linearized", max_iters=60, rho=1e-300)
        res1, records1 = _run_records(inst, cfg, default_start(inst))
        res2, records2 = _run_records(inst, cfg, default_start(inst))
        for a, b in zip(records1, records2):
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.y, b.y)
            assert np.array_equal(a.lam, b.lam)
        assert np.array_equal(res1.trace.L_beta, res2.trace.L_beta)
        assert np.array_equal(res1.trace.eta, res2.trace.eta)

    def test_explicit_metric_with_quadratic_f(self):
        rng = np.random.default_rng(25)
        G = np.diag(rng.uniform(0.1, 1.0, 3))
        inst = ProblemInstance(A=rng.standard_normal((3, 3)) / 2, B=np.eye(3),
                               b=np.zeros(3),
                               f=ConvexQuadratic(np.eye(3), rng.standard_normal(3)),
                               g=QuadraticSmooth(np.eye(3), rng.standard_normal(3)),
                               objective_floor=-50.0)
        cfg = auto_config(inst, 0.9, g_kind=ExplicitG(G), max_iters=4000)
        res = run(inst, cfg, default_start(inst))
        assert res.outcome == "converged"
        assert not [c for c in res.checks if not c.passed]

    def test_dishonest_curvature_constants_are_flagged(self):
        # True smooth curvature -4 declared as weakly convex with m=0: the
        # penalized objective is unbounded below for every penalty, so the
        # run must not end quietly.  The divergence guard and the merit
        # checks both catch it.
        inst = ProblemInstance(
            A=np.ones((1, 1)), B=np.ones((1, 1)), b=np.zeros(1),
            f=ConvexQuadratic(np.ones((1, 1)), np.zeros(1)),
            g=QuadraticSmooth(np.array([[-4.0]]), np.zeros(1), lipschitz=4.0,
                              weak_convexity=0.0),
            objective_floor=0.0)
        cfg = auto_config(inst, 1.0, tau=0.5, rho=1e-10, max_iters=3000)
        res = run(inst, cfg, (np.zeros(1), np.ones(1), np.zeros(1)))
        assert res.outcome == "error"
        assert "diverged" in res.message
        failed_names = {c.name for c in res.checks if not c.passed}
        assert "merit-nonneg" in failed_names
        assert "descent-y" in failed_names

    def test_stepsize_near_two_certifies(self, scalar_instance):
        # gamma blows up like 1/(2-theta)^2, forcing a large auto penalty;
        # the run still converges and every certificate holds
        cfg = auto_config(scalar_instance, 1.99, rho=1e-6, max_iters=200000)
        assert cfg.beta > 100.0
        res = run(scalar_instance, cfg, (np.zeros(1), np.ones(1), np.ones(1)))
        assert res.outcome == "converged"
        assert not [c for c in res.checks if not c.passed]

    def test_asymmetric_metric_rejected(self, scalar_instance):
        bad = np.array([[1.0, 0.5], [0.0, 1.0]])
        inst = ProblemInstance(A=np.eye(2), B=np.eye(2), b=np.zeros(2),
                               f=ConvexQuadratic(np.eye(2), np.zeros(2)),
                               g=QuadraticSmooth(np.eye(2), np.zeros(2)),
                               objective_floor=0.0)
        cfg = SolverConfig(theta=1.0, beta=6.0, tau=0.5, G=ExplicitG(bad))
        with pytest.raises(ConfigurationError, match="symmetric"):
            run(inst, cfg, (np.zeros(2), np.zeros(2), np.zeros(2)))

    def test_linearized_alpha_below_bound_rejected(self, scalar_instance):
        cfg = SolverConfig(theta=1.0, beta=4.0, tau=0.5, G=LinearizedG(1.0))
        with pytest.raises(ConfigurationError, match="alpha"):
            run(scalar_instance, cfg, (np.zeros(1), np.zeros(1), np.zeros(1)))


# One small instance per built-in family, with the first-block route it takes:
# quadratic (quad-quad), prox under G = 0 (l0-ls with orthonormal A) and prox
# under the linearized metric (box-cos, which also runs Newton, and sphere-quad).
_FAMILY_RUNS = [("quad-quad", {}, "zero"), ("l0-ls", {"ortho_a": True}, "zero"),
                ("box-cos", {}, "linearized"), ("sphere-quad", {}, "linearized")]


def _family_run(family, params, g_kind, certify=True, max_iters=15, on_iterate=None):
    inst = generate_instance(family, 4, 5, 6, seed=8, params=params)
    cfg = auto_config(inst, 1.4, g_kind=g_kind, rho=1e-300,
                      max_iters=max_iters, certify=certify)
    return inst, cfg, run(inst, cfg, default_start(inst), on_iterate=on_iterate)


class TestCachedProducts:
    """The certifier forms its own products from the iterates, a block at a
    time; the loop's trace is the same with certification on or off."""

    @pytest.mark.parametrize("family,params,g_kind", _FAMILY_RUNS)
    def test_products_equal_fresh_evaluations(self, monkeypatch, family,
                                              params, g_kind):
        # The run's one block holds every iterate, and each of its step rows
        # but trace-consistency matches the one-point reference of that step,
        # in slack and in tolerance, within 1e-3 of the row's tolerance.
        seen = []
        check_block = certify.check_block

        def spy(*args, **kwargs):   # the block buffers are reused: keep copies
            seen.append(([a.copy() if isinstance(a, np.ndarray) else a for a in args],
                         check_block(*args, **kwargs)))
            return seen[-1][1]

        monkeypatch.setattr(certify, "check_block", spy)
        records = []
        inst, cfg, res = _family_run(family, params, g_kind, on_iterate=records.append)
        # Set-up forms the start's L_beta from a block of the start alone.
        assert res.outcome == "iteration-cap" and len(seen) == 2
        assert len(seen[0][0][4]) == 1 and seen[0][1][0] is None
        (_, _, _, _, X, Y, Lam, _, _, _), (table, _) = seen[1]
        slack, tolerance = table
        points = [(res.start.x, res.start.y, res.start.lam)] + \
            [(r.x, r.y, r.lam) for r in records]
        assert len(points) == len(X) == 16
        for j, (x, y, lam) in enumerate(points):
            assert np.array_equal(X[j], x) and np.array_equal(Y[j], y) \
                and np.array_equal(Lam[j], lam)
        ref = step_rows_reference(inst, res.constants, res.start,
                                  metric_matrix(inst, cfg), records)
        n = STEP_CHECKS.index("trace-consistency")
        assert ref.shape == (15, n, 2)
        for block, point in ((slack, ref[:, :, 0]), (tolerance, ref[:, :, 1])):
            assert np.all(np.abs(block[:, :n] - point) <= 1e-3 * tolerance[:, :n])

    @pytest.mark.parametrize("family,params,g_kind", _FAMILY_RUNS)
    def test_certified_and_uncertified_traces_equal(self, family, params, g_kind):
        on_records, off_records = [], []
        _, _, on = _family_run(family, params, g_kind, certify=True,
                               on_iterate=on_records.append)
        _, _, off = _family_run(family, params, g_kind, certify=False,
                                on_iterate=off_records.append)
        assert off.checks is None and on.checks
        assert len(on.trace) == len(off.trace) == 15
        for name in Trace.COLUMNS:
            assert np.array_equal(getattr(on.trace, name), getattr(off.trace, name))
        for a, b in zip(on_records, off_records):
            for name in ("x", "y", "lam", "lam_hat", "dx"):
                assert np.array_equal(getattr(a, name), getattr(b, name))
            for name in ("res_primal", "res_dual_y", "res_dual_x", "inner_budget"):
                assert getattr(a, name) == getattr(b, name)

    def test_quadratic_run_oracle_calls_per_iteration(self, monkeypatch):
        inst = generate_instance("quad-quad", 4, 5, 6, seed=8)
        names = ("value", "gradient")
        calls = dict.fromkeys(("f.value",) + names, 0)

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        start = default_start(inst)
        monkeypatch.setattr(inst.f, "value", counting("f.value", inst.f.value))
        for name in names:
            monkeypatch.setattr(inst.g, name, counting(name, getattr(inst.g, name)))
        # A step calls no oracle: the quadratic routes solve with P and Q
        # factored at set-up, and the dual residual comes from the y-step's
        # own residual.
        per_iteration = {"f.value": 0, "value": 0, "gradient": 0}
        # Set-up evaluates grad g(y0) for the seed program and forms L_beta at
        # the start in a block of the start alone.  Each block makes one
        # gradient call on its stack, and g's values come from it: the
        # quadratic routes form f from P and g from Q y, so no value call is
        # made.
        setup = {"f.value": 0, "value": 0, "gradient": 2}
        for certified in (True, False):
            cfg = auto_config(inst, 1.4, rho=1e-300, max_iters=12, certify=certified)
            calls.update(dict.fromkeys(calls, 0))
            snapshots = []
            res = run(inst, cfg, start,
                      on_iterate=lambda rec: snapshots.append(dict(calls)))
            assert bool(res.checks) == certified and len(snapshots) == 12
            for before, after in zip(snapshots, snapshots[1:]):
                assert {k: after[k] - before[k] for k in calls} == per_iteration
            # The first snapshot also holds iteration 1's own calls.
            assert snapshots[0] == {k: setup[k] + per_iteration[k] for k in calls}
            # The 12 steps fit one block, which finalize forms.
            assert calls == {k: setup[k] + 12 * per_iteration[k] + (k == "gradient")
                             for k in calls}

    @pytest.mark.parametrize("certified", [True, False])
    def test_prox_route_values_f_once_per_block(self, monkeypatch, certified):
        # Blocks of 5 steps: 12 steps make blocks of 5, 5 and 2 after the
        # block of the start alone, and each is one f.value call on its stack.
        inst = generate_instance("l0-ls", 4, 5, 6, seed=8, params={"ortho_a": True})
        monkeypatch.setattr(certify, "BLOCK_BYTES", 8 * (sum(inst.dims) + 1) * 5)
        start, value, shapes = default_start(inst), inst.f.value, []

        def spying(x):
            shapes.append(np.shape(x))
            return value(x)

        monkeypatch.setattr(inst.f, "value", spying)
        cfg = auto_config(inst, 1.4, rho=1e-300, max_iters=12, certify=certified)
        res = run(inst, cfg, start)
        assert len(res.trace) == 12 and bool(res.checks) == certified
        assert shapes == [(1, 4), (6, 4), (6, 4), (3, 4)]

    def test_non_positive_definite_newton_hessian_is_a_run_error(self, monkeypatch):
        # An oracle whose Hessian contradicts its declared curvature: the
        # Newton system is indefinite, which Cholesky reports.
        inst = generate_instance("box-cos", 4, 5, 6, seed=8)
        cfg = auto_config(inst, 1.4, g_kind="linearized", rho=1e-300, max_iters=5)
        big = 10.0 * (cfg.beta * float(np.linalg.norm(inst.B, 2)) ** 2 + 1.0)
        monkeypatch.setattr(inst.g, "hessian", lambda y: -big * np.eye(5))
        res = run(inst, cfg, default_start(inst))
        assert res.outcome == "error"
        assert "not positive definite" in res.message

    @pytest.mark.parametrize("cap", [0, 1])
    def test_newton_budget_exhausted_is_a_run_error(self, monkeypatch, cap):
        # The budget test that ends the inner loop also ends it at the cap.
        monkeypatch.setattr(admmcert.solver, "NEWTON_CAP", cap)
        inst = generate_instance("box-cos", 4, 5, 6, seed=8)
        cfg = auto_config(inst, 1.4, g_kind="linearized", rho=1e-300, max_iters=5)
        res = run(inst, cfg, default_start(inst))
        assert res.outcome == "error" and len(res.trace) == 0
        assert res.message.startswith("second-block Newton stalled at gradient norm")


class TestReportedDualResidual:
    """The loop reports res_dual_y = ||grad g(y+) - B^T lam_hat|| from the
    y-subproblem's residual v, as ||v - beta B^T (B y+ - B y) - tau dy||, and
    calls g for it no more; on every route it is the direct formula to
    rounding."""

    @pytest.mark.parametrize("family,params,g_kind,tau", [
        ("quad-quad", {}, "zero", None),
        ("l0-ls", {"ortho_a": True}, "zero", None),             # prox route
        ("box-cos", {"ortho_a": True}, "zero", None),           # Newton route
        ("quad-quad", {}, "zero", 0.5),
        ("box-cos", {"ortho_a": True}, "zero", 0.5),
        ("box-cos", {}, "linearized", None)])
    def test_matches_the_direct_formula(self, family, params, g_kind, tau):
        inst = generate_instance(family, 4, 5, 6, seed=8, params=params)
        cfg = auto_config(inst, 1.4, tau=tau, g_kind=g_kind, rho=1e-300, max_iters=30)
        res, records = _run_records(inst, cfg, default_start(inst))
        assert res.outcome == "iteration-cap" and len(records) == 30
        assert (cfg.tau > 0) == (tau is not None)
        for rec in records:
            grad, w = inst.g.gradient(rec.y), inst.B.T @ rec.lam_hat
            direct = np.linalg.norm(grad - w)
            scale = max(1.0, np.linalg.norm(grad), np.linalg.norm(w))
            assert abs(rec.res_dual_y - direct) <= 1e-12 * scale, rec.k

    def test_newton_route_calls_gradient_only_in_the_y_step(self, monkeypatch):
        inst = generate_instance("box-cos", 4, 5, 6, seed=8, params={"ortho_a": True})
        cfg = auto_config(inst, 1.4, tau=0.5, rho=1e-300, max_iters=20)
        gradient, call = inst.g.gradient, _YStep.__call__
        inside, calls = [False], {True: 0, False: 0}

        def counting(y):
            calls[inside[0]] += 1
            return gradient(y)

        def solving(self, *args):
            inside[0] = True
            try:
                return call(self, *args)
            finally:
                inside[0] = False

        monkeypatch.setattr(inst.g, "gradient", counting)
        monkeypatch.setattr(_YStep, "__call__", solving)
        snapshots = []
        res = run(inst, cfg, default_start(inst),
                  on_iterate=lambda rec: snapshots.append(dict(calls)))
        assert res.outcome == "iteration-cap" and len(snapshots) == 20
        # The 20 steps fit one block, which finalize forms: between two
        # steps only the Newton solve evaluates the gradient.
        for before, after in zip(snapshots, snapshots[1:]):
            assert after[False] == before[False]
            assert after[True] > before[True]


def _with_block_rows(monkeypatch, inst, k):
    """Make the certifier's blocks hold k steps of inst."""
    n, p, l = inst.dims
    monkeypatch.setattr(certify, "BLOCK_BYTES", 8 * (n + p + l + 1) * k)


class TestBlocks:
    """Where the blocks end does not change the certificate."""

    @pytest.mark.parametrize("family,params,g_kind", _FAMILY_RUNS)
    def test_block_boundaries_give_the_same_certificate(self, monkeypatch, family,
                                                        params, g_kind):
        runs = []
        for k in (1, 3, 1000):
            inst = generate_instance(family, 4, 5, 6, seed=8, params=params)
            _with_block_rows(monkeypatch, inst, k)
            cfg = auto_config(inst, 1.4, g_kind=g_kind, rho=1e-300, max_iters=10)
            runs.append(run(inst, cfg, default_start(inst)).checks)
        ref = runs[-1]
        assert len(ref) == 1 + 10 * len(STEP_CHECKS) + 4
        # trace-consistency takes the tolerance of the column whose gap uses
        # the largest share of its own; between gaps at rounding level, which
        # column that is can change with the block, so only its slack is
        # compared.
        model = np.array([c.name != "trace-consistency" for c in ref])
        for checks in runs[:-1]:
            assert [(c.name, c.iteration) for c in checks] == \
                [(c.name, c.iteration) for c in ref]
            assert np.array_equal(checks.passed, ref.passed)
            for column, rows in (("slack", slice(None)), ("tolerance", model)):
                a, b = getattr(checks, column)[rows], getattr(ref, column)[rows]
                assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.abs(b)))

    def test_a_run_stopped_mid_block_certifies_every_completed_step(self,
                                                                    monkeypatch):
        # Blocks of 4 steps; the y-step of step 7 fails, so steps 5 and 6 are
        # in the open block when the run stops.
        inst = generate_instance("box-cos", 4, 5, 6, seed=8)
        _with_block_rows(monkeypatch, inst, 4)
        cfg = auto_config(inst, 1.4, g_kind="linearized", rho=1e-300, max_iters=20)
        call, steps = _YStep.__call__, []

        def failing(self, *args):
            steps.append(1)
            if len(steps) == 7:
                raise InnerSolveError("second-block Newton stalled (injected)")
            return call(self, *args)

        monkeypatch.setattr(_YStep, "__call__", failing)
        res = run(inst, cfg, default_start(inst))
        assert res.outcome == "error" and "injected" in res.message
        assert len(res.trace) == 6
        for name in STEP_CHECKS:   # merit-nonneg also has the start's row
            assert [c.iteration for c in res.checks if c.name == name
                    and c.iteration != 0] == list(range(1, 7))
        assert len(res.checks) == 1 + 6 * len(STEP_CHECKS) + 4
        assert res.checks.passed.all()


class TestMeritColumns:
    """The trace's merit columns, which the blocks form from the iterates,
    against one-point formulas, wherever the blocks end."""

    @pytest.mark.parametrize("rows", [1, 3, None])   # None: BLOCK_BYTES
    @pytest.mark.parametrize("family,params,g_kind", _FAMILY_RUNS)
    def test_columns_match_one_point_formulas(self, monkeypatch, family, params,
                                              g_kind, rows):
        inst = generate_instance(family, 4, 5, 6, seed=8, params=params)
        if rows is not None:
            _with_block_rows(monkeypatch, inst, rows)
        cfg = auto_config(inst, 1.4, g_kind=g_kind, rho=1e-300, max_iters=15)
        records = []
        res = run(inst, cfg, default_start(inst), on_iterate=records.append)
        assert res.outcome == "iteration-cap" and len(records) == 15
        start = res.start
        L0 = aug_lagrangian(inst, cfg.beta, start.x, start.y, start.lam)
        assert abs(start.L_beta - L0) <= _tolerance(max(1.0, abs(L0)))
        ref = merit_columns_reference(inst, res.constants, start,
                                      metric_matrix(inst, cfg), records)
        for i, name in enumerate(("L_beta", "delta", "eta", "dx_g_sq", "dy_sq",
                                  "dlam_sq")):
            own, point = getattr(res.trace, name), ref[:, i]
            assert np.all(np.abs(own - point) <= _tolerance(_max1(np.abs(point)))), name


def _boxcos_run(max_iters):
    """A certified box-cos run on the Newton route (prox route for x)."""
    inst = generate_instance("box-cos", 6, 20, 20, seed=3, params={"ortho_a": True})
    cfg = auto_config(inst, 1.5, rho=1e-300, max_iters=max_iters)
    return inst, cfg


class TestHeldNewtonFactor:
    """The Newton y-step keeps its Cholesky factor across inner steps and
    iterations and makes it again only once a step stops contracting; the
    stopping rule, and so each y+'s certified accuracy, is unchanged."""

    def test_every_y_step_meets_its_budget(self, monkeypatch):
        solves = []
        call = _YStep.__call__

        def spy(self, Ax_next, y_prev, lam_prev):
            y = call(self, Ax_next, y_prev, lam_prev)
            solves.append((Ax_next, y_prev, lam_prev, y, self.last_budget))
            return y

        monkeypatch.setattr(_YStep, "__call__", spy)
        inst, cfg = _boxcos_run(30)
        res = run(inst, cfg, default_start(inst))
        assert res.outcome == "iteration-cap" and len(solves) == 30
        assert all(c.passed for c in res.checks)
        assert res.inner.factorizations < res.inner.steps   # the factor was held
        g, B, b = inst.g, inst.B, inst.b
        beta, tau = cfg.beta, cfg.tau
        H0 = tau * np.eye(B.shape[1]) + beta * (B.T @ B)
        # The subproblem is mu-strongly convex: hess g >= (1 - a) I.
        mu = float(np.linalg.eigvalsh(H0)[0]) + 1.0 - g.a
        assert mu > 0
        eps = np.finfo(float).eps
        for Ax, y_prev, lam, y, budget in solves:
            e = -(B.T @ lam) + beta * (B.T @ (Ax - b)) - tau * y_prev
            gy, H0y = g.gradient(y), H0 @ y
            # Recomputing the gradient rounds differently from the solver.
            slack = 4 * eps * (np.linalg.norm(gy) + np.linalg.norm(H0y)
                               + np.linalg.norm(e))
            gnorm = np.linalg.norm(gy + H0y + e)
            assert gnorm <= budget + slack
            # Both points are within their gradient norm / mu of the minimizer.
            y_ref, ref_gnorm = newton_reference(g, H0, e, y_prev)
            assert np.linalg.norm(y - y_ref) <= (budget + slack + ref_gnorm) / mu

    def test_a_hessian_that_changes_sharply_forces_a_refresh(self, monkeypatch):
        inst, cfg = _boxcos_run(40)
        base = run(inst, cfg, default_start(inst))
        assert base.inner.factorizations >= 2
        hessian, calls = inst.g.hessian, [0]
        # The true Newton matrix is at least mu I, so a shift by mu leaves a
        # chord step contracting by 1/2 at worst: slow, but inside NEWTON_CAP.
        shift = cfg.beta * inst.spectral.sigma_min + 1.0 - inst.g.a
        assert shift > 0

        def changing(y):   # exact for the first factor only
            calls[0] += 1
            h = hessian(y)
            return h if calls[0] == 1 else h + shift * np.eye(h.shape[0])

        monkeypatch.setattr(inst.g, "hessian", changing)
        res = run(inst, cfg, default_start(inst))
        # A shifted factor contracts poorly, so it is made again each step.
        assert res.inner.factorizations > 10 * base.inner.factorizations
        assert res.inner.factorizations >= res.inner.steps // 2
        assert res.outcome == "iteration-cap" and len(res.trace) == 40
        assert all(c.passed for c in res.checks)

    def test_a_hessian_that_turns_indefinite_raises_at_the_refresh(self, monkeypatch):
        inst, cfg = _boxcos_run(40)
        hessian, calls = inst.g.hessian, [0]
        big = 10.0 * (cfg.beta * inst.spectral.norm_mtm + 1.0)

        def turning(y):   # exact for the first factor only
            calls[0] += 1
            return hessian(y) if calls[0] == 1 else -big * np.eye(y.shape[0])

        monkeypatch.setattr(inst.g, "hessian", turning)
        res = run(inst, cfg, default_start(inst))
        assert res.outcome == "error" and len(res.trace) > 0
        assert "not positive definite" in res.message
        assert calls[0] == 2 and res.inner.factorizations == 1
        with pytest.raises(InnerSolveError, match="not positive definite"):
            _YStep(inst, cfg.beta, cfg.tau)(
                np.ones(20), np.zeros(20), np.zeros(20))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_hessian_is_refused(self, monkeypatch, bad):
        # An infinite diagonal entry passes potrf, so finiteness is checked.
        inst, cfg = _boxcos_run(5)
        hessian = inst.g.hessian

        def broken(y):
            h = hessian(y)
            h[0, 0] = bad
            return h

        monkeypatch.setattr(inst.g, "hessian", broken)
        res = run(inst, cfg, default_start(inst))
        assert res.outcome == "error" and len(res.trace) == 0
        assert "not positive definite" in res.message

    def test_long_run_factors_less_than_once_per_iteration(self):
        inst, cfg = _boxcos_run(100)
        res = run(inst, cfg, default_start(inst))
        assert len(res.trace) == 100
        assert res.inner.factorizations < len(res.trace) <= res.inner.steps

    def test_quadratic_route_does_no_inner_work(self):
        inst = generate_instance("quad-quad", 4, 5, 6, seed=8)
        res = run(inst, auto_config(inst, 1.4, rho=1e-300, max_iters=10),
                  default_start(inst))
        assert res.inner == InnerWork(0, 0, 0)


class TestRunMemory:
    def test_result_holds_scalars_per_iteration(self):
        # A finished run keeps ten floats per iteration (80 bytes) and the last
        # iterate; 1800 iterations more may add at most 256 bytes each.
        inst = generate_instance("l0-ls", 20, 30, 30, seed=5, params={"ortho_a": True})
        start = default_start(inst)

        def held(iters) -> int:
            cfg = auto_config(inst, 1.5, rho=1e-300, max_iters=iters, certify=False)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                res = run(inst, cfg, start)
                assert res.outcome == "iteration-cap" and len(res.trace) == iters
                return tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()

        held(200)   # the first run also fills caches, such as inst.spectral
        short, long = held(200), held(2000)
        assert (long - short) / 1800 <= 256, (short, long)
