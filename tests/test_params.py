"""Derived constants, admissible-penalty selection, and the seed program."""

import numpy as np
import pytest

from admmcert import (ConfigurationError, SolverConfig, eta0_from_rhs, eta0_seed,
                      gamma, min_admissible_beta, run, scalar_fixture,
                      spectral_summary)
from admmcert.params import c1, delta1, derive_constants, kappa
from helpers import eta0_kkt_oracle, eta0_pgd_oracle


class TestGamma:
    @pytest.mark.parametrize("theta,expected", [(1.0, 1.0), (0.5, 2.0), (1.5, 6.0)])
    def test_values(self, theta, expected):
        assert gamma(theta) == pytest.approx(expected)

    @pytest.mark.parametrize("theta", [0.0, 2.0, -0.3, 2.5])
    def test_domain(self, theta):
        with pytest.raises(ConfigurationError):
            gamma(theta)

    def test_minimized_at_one_on_grid(self):
        grid = np.linspace(0.01, 1.99, 397)
        vals = np.array([gamma(t) for t in grid])
        assert vals.min() >= 1.0 - 1e-12
        assert gamma(1.0) == 1.0
        # the factor is asymmetric around 1: 1/theta below, theta/(2-theta)^2 above
        assert gamma(0.5) != gamma(1.5)


class TestC1:
    def test_zero_at_unit_stepsize(self):
        assert c1(1.0, 3.0, 2.0) == 0.0

    def test_value_below_one(self):
        assert c1(0.5, 1.0, 1.0) == pytest.approx(4.0)

    def test_value_above_one(self):
        assert c1(1.5, 2.0, 1.0) == pytest.approx(2.0 / 3.0)

    def test_domain(self):
        with pytest.raises(ConfigurationError):
            c1(1.0, 0.0, 1.0)


def _constants(beta, theta, L, m=0.0, sigma=1.0):
    """derive_constants at tau 0 with B = sqrt(sigma): sigma_min = sigma_plus = sigma."""
    return derive_constants(spectral_summary(np.sqrt(sigma) * np.ones((1, 1))),
                            theta, beta, 0.0, L, m, 0.0)


class TestDelta1Delta2:
    def test_delta1_values(self):
        assert delta1(10.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0) == pytest.approx(2.2)
        assert delta1(4.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0) == pytest.approx(0.25)
        assert delta1(1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0) == pytest.approx(-2.75)

    def test_delta2_value(self):
        # beta 4, theta 1, L 1, sigma 1: delta1 = 0.25 and delta2 = 1/(4 + 24)
        assert _constants(4.0, 1.0, 1.0).delta2 == pytest.approx(1.0 / 28.0)

    def test_delta2_needs_positive_delta1(self):
        with pytest.raises(ConfigurationError):
            _constants(1.0, 1.0, 1.0)   # delta1 = -2.75

    def test_delta2_limit_and_cap(self):
        # second term vanishes as delta1 grows; the cap 1/(beta*theta) binds
        val = _constants(4.0, 1.5, 1e-6).delta2
        assert val == pytest.approx(1.0 / 6.0, rel=1e-6)
        for beta in (10.0, 20.0, 100.0):
            assert _constants(beta, 1.5, 1.0).delta2 * beta * 1.5 <= 1.0


class TestMinAdmissibleBeta:
    def test_full_rank_case_against_root_oracle(self):
        beta = min_admissible_beta(1.0, 0.0, 0.0, 1.0, 1.0, 1.0, beta_bar=0.0)
        # quadratic-root oracle for sigma*sigma_plus*b^2 + (tau-m)*sigma_plus*b
        # - 12*gamma*(L^2+tau^2) = 0
        roots = np.roots([1.0, 0.0, -12.0])
        root = roots[roots > 0][0]
        assert beta == pytest.approx(1.1 * root)
        assert beta == pytest.approx(1.1 * np.sqrt(12.0))
        assert delta1(beta, 0.0, 0.0, 1.0, gamma(1.0), 1.0, 1.0) > 0

    def test_singular_case_linear_formula(self):
        beta = min_admissible_beta(1.0, 2.0, 1.0, 1.0, 0.0, 1.0, beta_bar=0.0)
        assert beta == pytest.approx(1.1 * 60.0)
        assert delta1(beta, 2.0, 1.0, 1.0, gamma(1.0), 0.0, 1.0) > 0

    def test_no_admissible_penalty(self):
        with pytest.raises(ConfigurationError):
            min_admissible_beta(1.0, 0.0, 0.0, 1.0, 0.0, 1.0)

    def test_beta_bar_floor_respected(self):
        beta = min_admissible_beta(1.0, 0.0, 0.0, 1.0, 1.0, 1.0, beta_bar=100.0)
        assert beta == pytest.approx(110.0)

    @pytest.mark.parametrize("theta,L,m", [(1.999999, 1e154, 0.0), (1.5, 1.0, 1e300)])
    def test_no_finite_penalty_names_the_constants(self, theta, L, m):
        # 12 gamma (L^2 + tau^2) overflows in the first case and
        # (tau - m)^2 sigma_plus^2 in the second: the root is inf.
        with pytest.raises(ConfigurationError, match="lipschitz.*weak_convexity"):
            min_admissible_beta(theta, 0.0, m, L, 1.0, 1.0)


def _regime_rows(beta):
    """Names of the strong-regime rows in a short certified run of the scalar
    instance (L 1, m 0, sigma 1, a consistent start) at theta 1 and beta."""
    inst = scalar_fixture()
    res = run(inst, SolverConfig(theta=1.0, beta=beta, rho=1e-300, max_iters=3),
              (np.zeros(1), np.zeros(1), np.zeros(1)))
    return {c.name for c in res.checks} & {"init-gap-nonneg", "delta1-bracket",
                                           "delta2-bracket"}


class TestStrongPenaltyCheck:
    """The certifier adds its regime rows (engaged) exactly when (beta
    sigma_min - 2m)/8 >= 3 gamma L^2 / (beta sigma_min), to a 1e-12 relative
    tolerance, and none otherwise (not engaged)."""

    def test_pass_case(self):
        assert len(_regime_rows(10.0)) == 3   # slack 1.25 - 0.3: engaged

    def test_fail_case(self):
        assert _regime_rows(4.0) == set()     # slack 0.5 - 0.75: not engaged

    def test_boundary_root(self):
        assert len(_regime_rows(np.sqrt(24.0))) == 3   # slack 0 to rounding: engaged

    def test_sandwiches_when_passing(self):
        # with the penalty condition holding, delta1 and 1/delta2 are bracketed
        rng = np.random.default_rng(13)
        for _ in range(30):
            theta = float(rng.uniform(0.2, 1.8))
            m = float(rng.uniform(0.0, 1.0))
            L = float(rng.uniform(0.3, 2.0))
            sigma = float(rng.uniform(0.5, 2.0))
            gam = gamma(theta)
            beta_root = (2.0 * m + np.sqrt(4.0 * m * m + 96.0 * gam * L * L)) / (2.0 * sigma)
            beta = 1.05 * beta_root
            assert (beta * sigma - 2.0 * m) / 8.0 >= 3.0 * gam * L * L / (beta * sigma)
            c = _constants(beta, theta, L, m, sigma)
            assert beta * sigma / 8.0 - 1e-12 <= c.delta1 <= beta * sigma / 4.0 + 1e-12
            assert beta * theta - 1e-9 <= 1.0 / c.delta2 <= 3.0 * beta * theta + 1e-9


class TestSeedProgram:
    def test_consistent_start_value_zero(self):
        B = np.array([[1.0, 0.2], [0.0, 1.5]])
        sol = eta0_from_rhs(B, np.zeros(2), theta=1.0, beta=2.0, tau=0.0, m=0.0)
        assert sol.value == 0.0
        assert sol.case == "consistent"

    def test_inconsistent_unit_stepsize_infeasible(self):
        B = np.eye(2)
        sol = eta0_from_rhs(B, np.array([1.0, 0.0]), theta=1.0, beta=2.0,
                            tau=0.0, m=0.0)
        assert sol.value == float("inf")
        assert not sol.feasible

    def test_tau_only_hand_value(self):
        # theta=1 decouples the reduced variable; eta0 = kappa ||v/tau||^2 = 2
        B = np.eye(2)
        sol = eta0_from_rhs(B, np.array([2.0, 0.0]), theta=1.0, beta=1.0,
                            tau=1.0, m=0.0)
        assert kappa(1.0, 1.0, 0.0, 1.0) == pytest.approx(0.5)
        assert sol.value == pytest.approx(2.0, abs=1e-12)
        assert sol.dy0 == pytest.approx([2.0, 0.0])
        assert np.all(sol.w0 == 0.0)

    def test_coupled_hand_value(self):
        # two-variable stationarity gives w = 0.6 v, dy = 0.8 v, value 0.6
        B = np.eye(2)
        v = np.array([1.0, 0.0])
        sol = eta0_from_rhs(B, v, theta=1.5, beta=2.0, tau=1.0, m=0.0)
        assert sol.value == pytest.approx(0.6, abs=1e-12)
        assert sol.w0 == pytest.approx(0.6 * v)
        assert sol.dy0 == pytest.approx(0.8 * v)
        # cross-check with both independent oracles
        assert eta0_kkt_oracle(B, v, 1.5, 2.0, 1.0, 0.0) == pytest.approx(0.6, rel=1e-9)
        assert eta0_pgd_oracle(B, v, 1.5, 2.0, 1.0, 0.0,
                               starts=20, iters=500) == pytest.approx(0.6, rel=1e-7)

    def test_pinned_case_requires_row_space_membership(self):
        B = np.array([[1.0, 0.0]])           # row space is span(e1)
        inside = eta0_from_rhs(B, np.array([1.0, 0.0]), theta=1.5, beta=2.0,
                               tau=0.0, m=0.0)
        assert inside.feasible and inside.case == "pinned"
        outside = eta0_from_rhs(B, np.array([0.0, 1.0]), theta=1.5, beta=2.0,
                                tau=0.0, m=0.0)
        assert not outside.feasible

    def test_zero_rhs_always_zero(self):
        rng = np.random.default_rng(14)
        for theta, tau in [(0.7, 0.0), (1.0, 0.3), (1.6, 0.5)]:
            B = rng.standard_normal((3, 3))
            sol = eta0_from_rhs(B, np.zeros(3), theta=theta, beta=2.0, tau=tau, m=0.0)
            assert sol.value == pytest.approx(0.0, abs=1e-20)

    def test_seed_satisfies_program_constraint(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            p = int(rng.integers(1, 5))
            l = int(rng.integers(1, 5))
            B = rng.standard_normal((l, p))
            theta = float(rng.uniform(0.2, 1.8))
            tau = float(rng.choice([0.0, rng.uniform(0.2, 2.0)]))
            v = rng.standard_normal(p)
            if tau == 0.0:
                if theta == 1.0:
                    continue
                basis = spectral_summary(B).right   # row-space basis
                v = basis @ (basis.T @ v)   # force feasibility
            sol = eta0_from_rhs(B, v, theta=theta, beta=3.0, tau=tau, m=0.0)
            assert sol.feasible
            resid = tau * sol.dy0 + (1.0 - 1.0 / theta) * sol.w0 - v
            assert np.linalg.norm(resid) <= 1e-8 * max(1.0, np.linalg.norm(v))

    def test_wrapper_builds_rhs_from_multiplier_and_gradient(self):
        B = np.array([[2.0, 0.0], [0.0, 1.0]])
        lam0 = np.array([0.5, -1.0])
        grad = np.array([0.3, 0.7])
        direct = eta0_from_rhs(B, B.T @ lam0 - grad, 1.5, 2.0, 1.0, 0.0)
        wrapped = eta0_seed(B, lam0, grad, 1.5, 2.0, 1.0, 0.0)
        assert wrapped.value == pytest.approx(direct.value)

    def test_kappa_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            eta0_from_rhs(np.eye(2), np.ones(2), theta=1.5, beta=1.0,
                          tau=0.0, m=5.0)
