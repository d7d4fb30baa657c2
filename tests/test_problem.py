"""Augmented Lagrangian evaluation, initial gap, assumption validation."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admmcert import (ConfigurationError, ConvexQuadratic, CosineQuadratic,
                      ProblemInstance, QuadraticSmooth, SolverConfig,
                      SphereIndicator, generate_instance, run, scalar_fixture,
                      validate_assumptions)
from conftest import _campaign_spec
from helpers import aug_lagrangian, reference_probes


class TestAugLagrangian:
    def test_scalar_hand_value_at_start(self, scalar_instance):
        # 0.5*y^2 - lam*(x+y) + 2*(x+y)^2 at (0, 1, 1): 0.5 - 1 + 2
        val = aug_lagrangian(scalar_instance, 4.0, np.zeros(1), np.ones(1), np.ones(1))
        assert val == pytest.approx(1.5, abs=1e-15)

    def test_scalar_hand_value_after_one_sweep(self, scalar_instance):
        val = aug_lagrangian(scalar_instance, 4.0, np.array([-0.6]),
                             np.array([0.68]), np.array([0.68]))
        assert val == pytest.approx(0.3696, abs=1e-15)

    def test_feasible_point_reduces_to_objective(self, scalar_instance):
        # zero residual kills the multiplier and penalty terms
        x, y = np.array([0.7]), np.array([-0.7])
        lam = np.array([123.0])
        expected = scalar_instance.f.value(x) + scalar_instance.g.value(y)
        assert aug_lagrangian(scalar_instance, 4.0, x, y, lam) == pytest.approx(expected)

    def test_outside_domain_is_infinite(self):
        inst = ProblemInstance(A=np.eye(2), B=np.eye(2), b=np.zeros(2),
                               f=SphereIndicator(2),
                               g=QuadraticSmooth(np.eye(2), np.zeros(2)))
        assert aug_lagrangian(inst, 1.0, np.zeros(2), np.zeros(2),
                              np.zeros(2)) == float("inf")

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_affine_in_multiplier(self, seed):
        # L(x,y,lam) - L(x,y,lam') = -<lam - lam', Ax + By - b>
        rng = np.random.default_rng(seed)
        inst = scalar_fixture()
        x, y = rng.standard_normal(1), rng.standard_normal(1)
        lam, lam2 = rng.standard_normal(1), rng.standard_normal(1)
        r = inst.A @ x + inst.B @ y - inst.b
        lhs = aug_lagrangian(inst, 4.0, x, y, lam) - aug_lagrangian(inst, 4.0, x, y, lam2)
        assert lhs == pytest.approx(-float((lam - lam2) @ r), abs=1e-10)

    def test_monotone_in_beta(self):
        rng = np.random.default_rng(12)
        inst = scalar_fixture()
        for _ in range(20):
            x, y, lam = (rng.standard_normal(1) for _ in range(3))
            lo = aug_lagrangian(inst, 1.0, x, y, lam)
            hi = aug_lagrangian(inst, 3.5, x, y, lam)
            assert hi >= lo - 1e-12


class TestDelta0:
    """delta0 = L_beta(x0, y0, lam0) - floor, as run() records it on its start."""

    @staticmethod
    def _delta0(inst, config, start):
        res = run(inst, replace(config, max_iters=1), start)
        return res.start.delta

    def test_scalar_hand_value(self, scalar_instance, scalar_config):
        val = self._delta0(scalar_instance, scalar_config,
                           (np.zeros(1), np.ones(1), np.ones(1)))
        assert val == pytest.approx(1.5, abs=1e-15)

    def test_zero_at_optimum_with_exact_floor(self, scalar_instance, scalar_config):
        # the penalized infimum 0 is attained at the origin
        assert self._delta0(scalar_instance, scalar_config,
                            (np.zeros(1), np.zeros(1), np.zeros(1))) == \
            pytest.approx(0.0, abs=1e-15)

    def test_affine_in_floor(self, scalar_instance, scalar_config):
        start = (np.zeros(1), np.ones(1), np.ones(1))
        base = self._delta0(scalar_instance, scalar_config, start)
        lowered = replace(scalar_instance,
                          objective_floor=scalar_instance.objective_floor - 1.0)
        assert self._delta0(lowered, scalar_config, start) == \
            pytest.approx(base + 1.0, abs=1e-15)

    def test_infinite_outside_domain(self, scalar_config):
        # L_beta is +inf at an x0 outside dom f, which run refuses at set-up.
        inst = ProblemInstance(A=np.eye(2), B=np.eye(2), b=np.zeros(2),
                               f=SphereIndicator(2),
                               g=QuadraticSmooth(np.eye(2), np.zeros(2)))
        with pytest.raises(ConfigurationError, match="outside the domain of f"):
            run(inst, scalar_config, (np.zeros(2), np.zeros(2), np.zeros(2)))

    def test_infeasible_seed_is_reported_before_the_domain(self, scalar_config):
        # x0 = 0 is outside the sphere and lam0 is inconsistent at tau = 0;
        # the seed program is checked first.
        inst = ProblemInstance(A=np.eye(2), B=np.eye(2), b=np.zeros(2),
                               f=SphereIndicator(2),
                               g=QuadraticSmooth(np.eye(2), np.zeros(2)))
        with pytest.raises(ConfigurationError, match="dual-seed program is infeasible"):
            run(inst, scalar_config, (np.zeros(2), np.zeros(2), np.ones(2)))

    def test_requires_beta_at_least_beta_bar(self, scalar_instance):
        inst = replace(scalar_instance, beta_bar=2.0)
        with pytest.raises(ConfigurationError, match="below the instance's beta_bar"):
            run(inst, SolverConfig(theta=1.0, beta=1.0),
                (np.zeros(1), np.zeros(1), np.zeros(1)))


def _rows(inst, **options):
    """validate_assumptions' rows, indexed by check name."""
    return {c.name: c for c in validate_assumptions(inst, **options)}


class TestProblemInstance:
    @pytest.mark.parametrize("floor", [np.inf, -np.inf, np.nan])
    def test_refuses_non_finite_floor(self, scalar_instance, floor):
        with pytest.raises(ValueError, match="objective_floor must be finite"):
            replace(scalar_instance, objective_floor=floor)

    def test_refuses_negative_beta_bar(self, scalar_instance):
        with pytest.raises(ValueError, match="beta_bar must be nonnegative"):
            replace(scalar_instance, beta_bar=-1e-12)

    def test_refuses_oracle_dims_that_disagree_with_the_couplings(self):
        # A is 2x3 (n = 3) and B is 2x4 (p = 4).
        A, B, b = np.ones((2, 3)), np.ones((2, 4)), np.zeros(2)
        g = CosineQuadratic(2.0, 4)
        with pytest.raises(ValueError, match=r"^f\.dim must be 3, got 5$"):
            ProblemInstance(A=A, B=B, b=b, f=SphereIndicator(5), g=g)
        with pytest.raises(ValueError, match=r"^g\.dim must be 4, got 6$"):
            ProblemInstance(A=A, B=B, b=b, f=SphereIndicator(3),
                            g=CosineQuadratic(2.0, 6))
        assert ProblemInstance(A=A, B=B, b=b, f=SphereIndicator(3), g=g).dims == (3, 4, 2)


class TestValidateAssumptions:
    def test_scalar_instance_passes(self, scalar_instance):
        checks = validate_assumptions(scalar_instance)
        assert all(c.passed for c in checks), checks

    def test_zero_coupling_fails_range_check(self, scalar_instance):
        inst = ProblemInstance(A=np.zeros((1, 1)), B=np.zeros((1, 1)),
                               b=np.zeros(1), f=scalar_instance.f,
                               g=scalar_instance.g, objective_floor=0.0)
        assert not _rows(inst)["range-inclusion"].passed

    def test_understated_lipschitz_fails_secant_check(self):
        # declare half the true constant; sampled secants expose it
        Q = np.diag([4.0, 0.1, 0.1])
        g = QuadraticSmooth(Q, np.zeros(3), lipschitz=2.0)
        inst = ProblemInstance(A=np.eye(3), B=np.eye(3), b=np.zeros(3),
                               f=scalar_fixture().f.__class__(np.eye(3), np.zeros(3)),
                               g=g, objective_floor=-10.0)
        check = _rows(inst, samples=200, seed=0)["projected-secant"]
        assert not check.passed
        assert check.slack < 0.0

    def test_understated_weak_convexity_fails_curvature_check(self):
        g = QuadraticSmooth(np.diag([1.0, -1.0]), np.zeros(2), weak_convexity=0.2)
        inst = ProblemInstance(A=np.eye(2), B=np.eye(2), b=np.zeros(2),
                               f=scalar_fixture().f.__class__(np.eye(2), np.zeros(2)),
                               g=g, objective_floor=-100.0)
        assert not _rows(inst, samples=200, seed=0)["lower-curvature"].passed

    def test_report_summary_mentions_each_check(self, scalar_instance):
        names = [c.name for c in validate_assumptions(scalar_instance)]
        assert names == ["nonsmooth-proper", "range-inclusion", "projected-secant",
                         "lower-curvature", "gradient-consistency"]


class _OffInOneCoordinate(QuadraticSmooth):
    """Gradient off by 20 gradient-check budgets in its first coordinate."""

    def gradient(self, y):
        grad = super().gradient(y)
        grad[0] += 20.0 * max(1e-6, 1e-4 * np.linalg.norm(grad))
        return grad


class _FlippedSine(CosineQuadratic):
    """Gradient of 0.5||y||^2 - a sum(cos y): the sine term's sign flipped."""

    def gradient(self, y):
        y = np.asarray(y, dtype=float)
        return y + self.a * np.sin(y)


def _identity_coupled(g, p):
    return ProblemInstance(A=np.eye(p), B=np.eye(p), b=np.zeros(p),
                           f=ConvexQuadratic(np.eye(p), np.zeros(p)), g=g,
                           objective_floor=-1e6)


class TestGradientConsistency:
    @pytest.mark.parametrize("p", [3, 200])
    def test_gradient_off_in_one_coordinate_fails(self, p):
        rng = np.random.default_rng(p)
        g = _OffInOneCoordinate(np.diag(rng.uniform(0.5, 2.0, p)), np.ones(p))
        check = _rows(_identity_coupled(g, p), seed=0)["gradient-consistency"]
        assert not check.passed
        assert check.slack < -9.0

    def test_flipped_sine_sign_fails(self):
        rows = _rows(_identity_coupled(_FlippedSine(2.0, 5), 5))
        assert not rows["gradient-consistency"].passed

    def test_honest_oracles_pass(self):
        rng = np.random.default_rng(3)
        for g, p in [(QuadraticSmooth(np.diag(rng.uniform(0.5, 2.0, 200)),
                                      np.ones(200)), 200),
                     (CosineQuadratic(2.0, 5), 5)]:
            assert _rows(_identity_coupled(g, p))["gradient-consistency"].passed


def _campaign_subset():
    """Members 0, 3 and 5 of each campaign family: full and deficient rank B,
    and the square orthonormal-A variant of the prox families."""
    picked = []
    for label, family, n, p, l, seed, _, params in _campaign_spec():
        if int(label.rsplit("-", 1)[1]) in (0, 3, 5):
            picked.append(pytest.param(family, n, p, l, seed, params, id=label))
    return picked


class TestBatchedProbesMatchReference:
    """The batched probes reproduce the one-point-at-a-time evaluation."""

    @pytest.mark.parametrize("family, n, p, l, seed, params", _campaign_subset())
    def test_validation_matches_reference(self, family, n, p, l, seed, params):
        inst = generate_instance(family, n, p, l, seed, params=params)
        rows = _rows(inst, samples=60, seed=seed)
        secant, curv, grad = reference_probes(inst, samples=60, seed=seed)
        assert rows["projected-secant"].passed == (secant <= 1.0 + 1e-6)
        assert rows["lower-curvature"].passed == (curv >= -1e-10)
        assert rows["gradient-consistency"].passed == (grad <= 1.0)
        assert 1.0 - rows["projected-secant"].slack == pytest.approx(secant, rel=1e-9)
        assert rows["lower-curvature"].slack == pytest.approx(curv, rel=1e-9)
        assert 1.0 - rows["gradient-consistency"].slack == pytest.approx(grad, abs=1e-3)

    @pytest.mark.parametrize("family, n, p, l, seed, params", _campaign_subset())
    def test_batched_oracles_match_rows(self, family, n, p, l, seed, params):
        """Every stack call of the family's oracles answers as the one-point
        calls on its rows do."""
        inst = generate_instance(family, n, p, l, seed, params=params)
        f, g = inst.f, inst.g
        rng = np.random.default_rng(seed)
        Y = rng.standard_normal((7, p)) * 3.0
        _assert_stack_matches_rows(g.value, Y)
        _assert_stack_matches_rows(g.gradient, Y)
        # n rows: a square stack, which a solve must not take for a matrix.
        C = rng.standard_normal((n, n)) * 3.0
        _assert_stack_matches_rows(f.scaled_prox, C, 2.0)
        inside = np.array([f.scaled_prox(c, 2.0) for c in C])
        outside, zero = np.full(n, 1e6), np.zeros(n)
        values = _assert_stack_matches_rows(f.value, np.vstack([inside, outside, zero]))
        assert np.all(np.isfinite(values[:n]))
        if family in ("box-cos", "sphere-quad"):   # indicators
            assert values[n] == np.inf
        if family == "l0-ls":   # an all-zero row costs nothing
            assert values[n + 1] == 0.0


def _assert_stack_matches_rows(fn, stack, *args):
    """fn on a 2-D stack equals fn on each row alone: inf where the row's is,
    elsewhere to rounding."""
    rows, block = np.array([fn(row, *args) for row in stack]), fn(stack, *args)
    assert block.shape == rows.shape
    finite = np.isfinite(rows)
    assert np.array_equal(np.isfinite(block), finite)
    assert np.array_equal(block[~finite], rows[~finite])
    scale = np.max(np.abs(rows[finite]), initial=1.0)
    assert np.max(np.abs(block[finite] - rows[finite]), initial=0.0) <= 1e-12 * scale
    return block
