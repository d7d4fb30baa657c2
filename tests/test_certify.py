"""Certifier checks: hand-evaluated slacks, stationary runs, rate bounds."""

import json
import math
from collections.abc import Sequence

import numpy as np
import pytest

from admmcert import (SolverConfig, generate_instance, rate_bound_checks, run,
                      scalar_fixture)
from admmcert.certify import CheckResult, Checks, summarize
from admmcert.problem import aug_lagrangian
from admmcert.solver import _XStep, _YStep
from helpers import auto_config, default_start


def _by_name(checks, name, iteration=None):
    found = [c for c in checks if c.name == name
             and (iteration is None or c.iteration == iteration)]
    assert found, f"no check named {name} at iteration {iteration}"
    return found


@pytest.fixture(scope="module")
def scalar_run():
    inst = scalar_fixture()
    cfg = SolverConfig(theta=1.0, beta=4.0, tau=0.0, rho=1e-6, max_iters=500)
    return inst, run(inst, cfg, (np.zeros(1), np.ones(1), np.ones(1)))


class TestCheckResult:
    def test_pass_iff_slack_at_least_minus_tolerance(self):
        assert CheckResult("x", 0.0, 1e-10).passed
        assert CheckResult("x", -5e-11, 1e-10).passed
        assert not CheckResult("x", -2e-10, 1e-10).passed


class TestChecksColumns:
    ROWS = [CheckResult("merit-nonneg", 1.5, 1e-10, 0),
            CheckResult("descent-x", -0.0, 2.0, 1),
            CheckResult("rate-x@1", -3.0, 1.0),
            CheckResult("descent-x", 0.25, 5e-324, 2 ** 40)]

    def test_sequence_protocol(self):
        checks = Checks.from_rows(self.ROWS)
        assert isinstance(checks, Sequence)
        assert len(checks) == 4
        assert list(checks) == self.ROWS
        assert checks[0] == self.ROWS[0] and checks[-1] == self.ROWS[-1]
        assert checks[-2].iteration is None
        assert checks[1:3] == self.ROWS[1:3] and checks[::-2] == self.ROWS[::-2]
        assert all(type(c.slack) is float for c in checks)
        with pytest.raises(IndexError):
            checks[4]

    @staticmethod
    def _reference(rows):
        worst = min(rows, key=lambda c: c.slack + c.tolerance, default=None)
        passed = sum(1 for c in rows if c.passed)
        return {"checks": len(rows), "passed": passed, "failed": len(rows) - passed,
                "worst_check": worst.name if worst else None,
                "worst_margin": (worst.slack + worst.tolerance) if worst else None}

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("slacks", [
        [], [math.nan, 1.0, -2.0], [1.0, math.nan, -2.0], [-2.0, 1.0, math.nan],
        [math.inf, -math.inf, 0.0], [math.nan, -math.inf], [math.nan, math.nan],
        [0.0, -0.0, 5.0], [3.0, -1.0, -1.0], [2.0, (-math.inf, math.inf), 1.0]],
        ids=["empty", "nan-first", "nan-later", "nan-last", "infinities",
             "nan-before-minus-inf", "all-nan", "signed-zeros", "tie",
             "infinite-tolerance"])
    def test_summary_matches_min_over_rows(self, slacks):
        # summarize reduces the columns; min() over the rows, with its NaN
        # rule (a NaN first key stays, a later one is never picked), is the
        # reference.  json.dumps compares the NaN margins too.  A pair is
        # (slack, tolerance); -inf + inf gives a NaN margin, quietly.
        rows = [CheckResult(f"check-{i}", *(s if isinstance(s, tuple) else (s, 0.5)), i)
                for i, s in enumerate(slacks)]
        assert json.dumps(summarize(Checks.from_rows(rows))) == \
            json.dumps(self._reference(rows))

    def test_run_columns_give_the_rows_summary(self, scalar_run):
        _, res = scalar_run
        assert isinstance(res.checks, Checks)
        rows = list(res.checks)
        assert summarize(res.checks) == self._reference(rows)
        assert summarize(Checks.from_rows(rows)) == summarize(res.checks)


class TestScalarFirstIterationSlacks:
    """Frozen hand evaluations of the first sweep on the scalar instance."""

    def test_descent_x_slack(self, scalar_run):
        # L(x0,y0,lam0)=1.5, L(x1,y0,lam0)=0.6, ||dx||_G^2 = 0 (G=0)
        inst, res = scalar_run
        assert aug_lagrangian(inst, 4.0, np.array([-0.6]), np.ones(1),
                              np.ones(1)) == pytest.approx(0.6, abs=1e-15)
        chk = _by_name(res.checks, "descent-x", 1)[0]
        assert chk.passed
        assert chk.slack == pytest.approx(0.9, abs=1e-12)

    def test_descent_y_slack(self, scalar_run):
        # L(x1,y1,lam0)=0.344, bound (m - beta*sigma - tau)/2*dy^2 = -0.2048
        inst, res = scalar_run
        assert aug_lagrangian(inst, 4.0, np.array([-0.6]), np.array([0.68]),
                              np.ones(1)) == pytest.approx(0.344, abs=1e-15)
        chk = _by_name(res.checks, "descent-y", 1)[0]
        assert chk.passed
        assert chk.slack == pytest.approx(-0.2048 - (0.344 - 0.6), abs=1e-12)

    def test_multiplier_ascent_identity(self, scalar_run):
        # L(x1,y1,lam1) - L(x1,y1,lam0) = (1/(theta*beta))*dlam^2 = 0.0256
        inst, res = scalar_run
        lhs = (aug_lagrangian(inst, 4.0, np.array([-0.6]), np.array([0.68]),
                              np.array([0.68]))
               - aug_lagrangian(inst, 4.0, np.array([-0.6]), np.array([0.68]),
                                np.ones(1)))
        assert lhs == pytest.approx(0.0256, abs=1e-15)
        chk = _by_name(res.checks, "ascent-lambda", 1)[0]
        assert chk.passed
        assert chk.slack == pytest.approx(0.0, abs=1e-12)

    def test_dual_recursion_collapses_at_unit_stepsize(self, scalar_run):
        # theta=1: B^T dlam_1 = u_1 exactly; -0.32 on both sides
        _, res = scalar_run
        chk = _by_name(res.checks, "dual-recursion", 1)[0]
        assert chk.passed
        assert chk.slack == pytest.approx(0.0, abs=1e-12)

    def test_drift_bound_tight_at_unit_stepsize(self, scalar_run):
        # Theta1 = 0.0256 equals gamma/(beta sigma_plus)*||u||^2 = 0.0256
        _, res = scalar_run
        chk = _by_name(res.checks, "drift-bound", 1)[0]
        assert chk.passed
        assert chk.slack == pytest.approx(0.0, abs=1e-12)

    def test_coupling_bound_slack(self, scalar_run):
        # ||u1||^2 = 0.1024 <= 3*(L^2+tau^2)*(dy1^2 + dy0^2) = 0.3072
        _, res = scalar_run
        chk = _by_name(res.checks, "coupling-bound", 1)[0]
        assert chk.passed
        assert chk.slack == pytest.approx(0.3072 - 0.1024, abs=1e-12)

    def test_merit_decrease_slack(self, scalar_run):
        # merit0 = 1.5, merit1 = 0.472, rhs = -delta1*(dy1^2 + dy0^2) = -0.0256
        _, res = scalar_run
        chk = _by_name(res.checks, "merit-decrease", 1)[0]
        assert chk.passed
        assert chk.slack == pytest.approx(1.5 - 0.472 - 0.0256, abs=1e-12)

    def test_merit_nonneg_at_zero_and_one(self, scalar_run):
        _, res = scalar_run
        assert _by_name(res.checks, "merit-nonneg", 0)[0].slack == pytest.approx(1.5)
        assert _by_name(res.checks, "merit-nonneg", 1)[0].slack == pytest.approx(0.472)

    def test_inclusion_certificate_via_gradient(self, scalar_run):
        _, res = scalar_run
        chk = _by_name(res.checks, "x-inclusion", 1)[0]
        assert chk.passed
        assert chk.slack == pytest.approx(0.0, abs=1e-12)

    def test_theta2_nonpos_slack(self, scalar_run):
        # Theta2 = -kappa*(dy1^2 + dy0^2) = -0.1024
        _, res = scalar_run
        chk = _by_name(res.checks, "theta2-nonpos", 1)[0]
        assert chk.passed
        assert chk.slack == pytest.approx(0.1024, abs=1e-12)


class TestRateBounds:
    def test_scalar_bounds_at_k1(self, scalar_run):
        # M = 1.5: bounds (sqrt(6M), (beta|B^T B|)sqrt(3M/delta1),
        # sqrt(3M/delta2)/(beta theta)) = (3, 4*sqrt(18), 0.25*sqrt(126))
        inst, res = scalar_run
        checks = rate_bound_checks(res.trace, res.constants, res.G, res.delta0, 1)
        named = {c.name: c for c in checks}
        assert named["rate-x@1"].slack == pytest.approx(3.0 - 0.0, abs=1e-12)
        assert named["rate-dual@1"].slack == pytest.approx(
            4.0 * np.sqrt(18.0) - 1.28, abs=1e-12)
        assert named["rate-primal@1"].slack == pytest.approx(
            0.25 * np.sqrt(126.0) - 0.08, abs=1e-12)
        assert all(c.passed for c in checks)

    def test_bounds_hold_at_every_index(self, scalar_run):
        _, res = scalar_run
        for k in (1, 2, 5, len(res.trace)):
            checks = rate_bound_checks(res.trace, res.constants, res.G,
                                       res.delta0, k)
            assert all(c.passed for c in checks), [c for c in checks if not c.passed]

    def test_stationary_run_has_zero_slack_everywhere(self):
        inst = scalar_fixture()
        cfg = SolverConfig(theta=1.0, beta=4.0, tau=0.0, rho=1e-6, max_iters=4)
        res = run(inst, cfg, (np.zeros(1), np.zeros(1), np.zeros(1)))
        assert res.converged_at == 1
        for chk in res.checks:
            assert chk.passed
            if chk.name.startswith(("descent", "ascent", "dual-recursion",
                                    "drift", "merit")):
                assert chk.slack == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("family,params,g_kind", [
        ("quad-quad", {}, "zero"), ("quad-quad", {}, "linearized"),
        ("l0-ls", {"ortho_a": True}, "zero")])
    def test_finalize_matches_rate_bound_checks(self, family, params, g_kind):
        # finalize reuses the energies observe formed; rate_bound_checks forms
        # them from the trace; both give the same bits.
        inst = generate_instance(family, 4, 5, 6, seed=8, params=params)
        cfg = auto_config(inst, 1.4, g_kind=g_kind, rho=1e-300, max_iters=25)
        res = run(inst, cfg, default_start(inst))
        k = len(res.trace)
        whole_run = [c for c in res.checks if c.name.endswith(f"@{k}")]
        assert len(whole_run) == 4
        assert whole_run == rate_bound_checks(res.trace, res.constants, res.G,
                                              res.delta0, k,
                                              inner_tol=cfg.inner_tol)

    def test_k_out_of_range_rejected(self, scalar_run):
        _, res = scalar_run
        with pytest.raises(ValueError):
            rate_bound_checks(res.trace, res.constants, res.G, res.delta0, 0)
        with pytest.raises(ValueError):
            rate_bound_checks(res.trace, res.constants, res.G, res.delta0,
                              len(res.trace) + 1)


class TestDualRecursionAccuracy:
    def test_fifty_iterations_of_a_random_instance(self):
        from admmcert import generate_instance
        from helpers import auto_config, default_start
        inst = generate_instance("quad-quad", 5, 5, 5, seed=55)
        cfg = auto_config(inst, 1.3, rho=1e-300, max_iters=50)
        res = run(inst, cfg, default_start(inst))
        slacks = [abs(c.slack) for c in res.checks if c.name == "dual-recursion"]
        assert len(slacks) == 50
        assert max(slacks) <= 1e-9


class TestCertifierCoverage:
    def test_every_iteration_gets_full_check_set(self, scalar_run):
        _, res = scalar_run
        per_iter = ("descent-x", "descent-y", "ascent-lambda", "dual-recursion",
                    "drift-bound", "coupling-bound", "merit-decrease",
                    "merit-nonneg", "eta-nonneg", "theta2-nonpos",
                    "primal-residual-identity", "dual-residual-identity",
                    "x-inclusion", "cumulative-bound")
        ks = {rec.k for rec in res.trace}
        for name in per_iter:
            have = {c.iteration for c in res.checks if c.name == name}
            assert ks <= have, f"{name} missing at iterations {ks - have}"

    def test_whole_run_rate_checks_present(self, scalar_run):
        _, res = scalar_run
        k = len(res.trace)
        names = {c.name for c in res.checks}
        assert {f"rate-x@{k}", f"rate-dual@{k}", f"rate-primal@{k}"} <= names


class TestIdentityChecksStayIndependent:
    """The identity checks evaluate their own side: a step output that is off
    by 1e-6 fails them, although the loop's cached products follow the
    perturbed iterate consistently."""

    @staticmethod
    def _run_with(monkeypatch, step_cls, family, params):
        call = step_cls.__call__

        def perturbed(self, *args):
            out = call(self, *args)
            out = out.copy()
            out[0] += 1e-6
            return out

        monkeypatch.setattr(step_cls, "__call__", perturbed)
        inst = generate_instance(family, 4, 5, 6, seed=8, params=params)
        cfg = auto_config(inst, 1.4, rho=1e-300, max_iters=10)
        res = run(inst, cfg, default_start(inst))
        return {c.name for c in res.checks if not c.passed}

    @pytest.mark.parametrize("family,params", [("quad-quad", {}),
                                               ("l0-ls", {"ortho_a": True})])
    def test_clean_runs_pass_both_identities(self, family, params):
        inst = generate_instance(family, 4, 5, 6, seed=8, params=params)
        res = run(inst, auto_config(inst, 1.4, rho=1e-300, max_iters=10),
                  default_start(inst))
        failed = {c.name for c in res.checks if not c.passed}
        assert not failed & {"dual-residual-identity", "x-inclusion"}

    @pytest.mark.parametrize("family,params", [("quad-quad", {}),
                                               ("l0-ls", {"ortho_a": True})])
    def test_perturbed_y_step_fails_dual_residual_identity(self, monkeypatch,
                                                           family, params):
        failed = self._run_with(monkeypatch, _YStep, family, params)
        assert "dual-residual-identity" in failed

    @pytest.mark.parametrize("family,params", [("quad-quad", {}),
                                               ("l0-ls", {"ortho_a": True})])
    def test_perturbed_x_step_fails_x_inclusion(self, monkeypatch, family, params):
        failed = self._run_with(monkeypatch, _XStep, family, params)
        assert "x-inclusion" in failed
