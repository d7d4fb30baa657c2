"""Certifier checks: hand-evaluated slacks, stationary runs, rate bounds."""

import json
import math
import os
import shutil
import subprocess
import sys
from collections.abc import Sequence
from pathlib import Path

import numpy as np
import pytest

import admmcert
from admmcert import (SolverConfig, generate_instance, rate_bound_checks, run,
                      scalar_fixture)
from admmcert.certify import CheckResult, Checks, _tolerance, summarize
from admmcert.solver import _XStep, _YStep
from helpers import auto_config, aug_lagrangian, default_start, metric_matrix


def _by_name(checks, name, iteration=None):
    found = [c for c in checks if c.name == name
             and (iteration is None or c.iteration == iteration)]
    assert found, f"no check named {name} at iteration {iteration}"
    return found


def _rate_bounds_from_records(records, c, G, start):
    """The whole-run rate rows at k = len(records), each step energy formed
    from the record's own vectors and the previous point's."""
    k = len(records)
    points = [start] + records
    energies = [0.5 * float(r.dx @ (G @ r.dx))
                + c.delta1 * float((r.y - q.y) @ (r.y - q.y))
                + c.delta2 * float((r.lam - q.lam) @ (r.lam - q.lam))
                for q, r in zip(points, records)]
    delta0 = start.delta
    big_m = max(c.eta0, delta0)
    rec = records[int(np.argmin(energies))]
    bound_x = math.sqrt(6.0 * big_m / k)
    obs_x = math.sqrt(max(0.0, float(rec.dx @ (G @ rec.dx))))
    bound_dual = (c.beta * c.spectral.norm_mtm + c.tau) \
        * math.sqrt(3.0 * big_m / (c.delta1 * k))
    bound_primal = math.sqrt(3.0 * big_m / (c.delta2 * k)) / (c.beta * c.theta)
    return [CheckResult(f"rate-x@{k}", bound_x - obs_x,
                        _tolerance(max(1.0, bound_x))),
            CheckResult(f"rate-dual@{k}", bound_dual - rec.res_dual_y,
                        _tolerance(max(1.0, bound_dual))),
            CheckResult(f"rate-primal@{k}", bound_primal - rec.res_primal,
                        _tolerance(max(1.0, bound_primal))),
            CheckResult(f"cumulative-bound@{k}", 3.0 * big_m - float(np.sum(energies)),
                        _tolerance(max(1.0, 3.0 * big_m)))]


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
        checks = rate_bound_checks(res.trace, res.constants, res.start.delta, 1)
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
            checks = rate_bound_checks(res.trace, res.constants, res.start.delta, k)
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
        # finalize and rate_bound_checks read the trace's energy columns; the
        # reference forms each energy from the records' vectors, and both
        # give its bits.
        inst = generate_instance(family, 4, 5, 6, seed=8, params=params)
        cfg = auto_config(inst, 1.4, g_kind=g_kind, rho=1e-300, max_iters=25)
        records = []
        res = run(inst, cfg, default_start(inst), on_iterate=records.append)
        k = len(res.trace)
        whole_run = [c for c in res.checks if c.name.endswith(f"@{k}")]
        assert len(whole_run) == 4
        reference = _rate_bounds_from_records(records, res.constants,
                                              metric_matrix(inst, cfg), res.start)
        assert whole_run == reference
        assert rate_bound_checks(res.trace, res.constants, res.start.delta, k) == reference

    def test_k_out_of_range_rejected(self, scalar_run):
        _, res = scalar_run
        with pytest.raises(ValueError):
            rate_bound_checks(res.trace, res.constants, res.start.delta, 0)
        with pytest.raises(ValueError):
            rate_bound_checks(res.trace, res.constants, res.start.delta,
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
        ks = set(range(1, len(res.trace) + 1))
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

    def test_wrong_linearized_prox_weight_fails_x_inclusion(self, monkeypatch):
        # The x-step's alpha is off by a relative 1e-7 and the checker's prox
        # re-solve takes the same alpha; its s = A^T lam_hat - G dx holds the
        # spec's G, so the inclusion is judged against alpha I all the same.
        init = _XStep.__init__

        def scaled(self, *args):
            init(self, *args)
            self.alpha *= 1.0 + 1e-7

        inst = generate_instance("box-cos", 4, 5, 6, seed=8)
        cfg = auto_config(inst, 1.4, g_kind="linearized", rho=1e-300, max_iters=10)
        clean = run(inst, cfg, default_start(inst))
        assert clean.checks.passed.all()
        monkeypatch.setattr(_XStep, "__init__", scaled)
        res = run(inst, cfg, default_start(inst))
        assert "x-inclusion" in {c.name for c in res.checks if not c.passed}


class TestTraceConsistency:
    """The checker compares the residuals the loop reports with its own
    values: a textual mutant of solver.py that misreports the primal or the
    smooth dual residual by a relative 1e-7, or that drops the beta B^T B dy
    term from the smooth dual residual and so reports the y-subproblem's
    residual, a budget-sized number, fails trace-consistency.  Each runs on
    a copy of the package."""

    MUTANTS = {
        "res-primal-times-1+1e-7": ("reported = (_norm(r),",
                                    "reported = (_norm(r) * (1 + 1e-7),"),
        "res-dual-y-times-1+1e-7": ("_norm(dual)", "_norm(dual) * (1 + 1e-7)"),
        "res-dual-y-without-beta-term": (
            "dual = ystep.residual - beta * (Bt @ (By_next - By))",
            "dual = ystep.residual")}

    @pytest.mark.parametrize("mutant", MUTANTS)
    def test_mutant_fails_trace_consistency(self, tmp_path, mutant):
        target, replacement = self.MUTANTS[mutant]
        shutil.copytree(Path(admmcert.__file__).parent, tmp_path / "admmcert",
                        ignore=shutil.ignore_patterns("__pycache__"))
        solver = tmp_path / "admmcert" / "solver.py"
        text = solver.read_text()
        assert text.count(target) == 1
        solver.write_text(text.replace(target, replacement))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "instance": {"generator": {"family": "quad-quad", "n": 5, "p": 8, "l": 8,
                                       "seed": 3}},
            "solver": {"theta": 1.5, "rho": 1e-300, "max_iters": 60}}))
        proc = subprocess.run([sys.executable, "-m", "admmcert", "run", str(config)],
                              env=dict(os.environ, PYTHONPATH=str(tmp_path)),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3, proc.stderr   # the iteration cap
        entries = json.loads((tmp_path / "certificate.json").read_text())
        assert "trace-consistency" in {e["name"] for e in entries if not e["pass"]}
