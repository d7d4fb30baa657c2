"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
The campaign fixture (100 certified runs, dims up to 50) is shared with the
per-iteration criteria; it is built once per session.
"""

import time

import numpy as np
import pytest

from admmcert import (SolverConfig, ZeroG, generate_instance, project_onto_range,
                      rate_bound_checks, run, scalar_fixture, spectral_summary,
                      validate_assumptions)
from admmcert.certify import INCLUSION_TOL
from helpers import default_start, eta0_kkt_oracle, eta0_pgd_oracle, metric_matrix

from admmcert import eta0_from_rhs


def _verdict(criterion: str, ok: bool, detail: str = ""):
    line = f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


class TestCriterion1ScalarFixture:
    def test_first_iterate_exact(self):
        t0 = time.perf_counter()
        inst = scalar_fixture()
        cfg = SolverConfig(theta=1.0, beta=4.0, tau=0.0, G=ZeroG(), rho=1e-6,
                           max_iters=200)
        records = []
        res = run(inst, cfg, (np.zeros(1), np.ones(1), np.ones(1)),
                  on_iterate=records.append)
        rec, delta, eta = records[0], res.trace.delta[0], res.trace.eta[0]
        elapsed = time.perf_counter() - t0
        ok = (abs(rec.x[0] - (-0.6)) <= 1e-12
              and abs(rec.y[0] - 0.68) <= 1e-12
              and abs(rec.lam[0] - 0.68) <= 1e-12
              and abs(rec.lam_hat[0] - (-0.6)) <= 1e-12
              and abs(delta - 0.3696) <= 1e-12
              and abs(eta - 0.1024) <= 1e-12
              and elapsed < 1.0)
        _verdict("1 scalar-fixture", ok,
                 f"iterate ({rec.x[0]}, {rec.y[0]}, {rec.lam[0]}, "
                 f"{rec.lam_hat[0]}), gap {delta}, eta {eta}, "
                 f"{elapsed:.3f}s")


class TestCriterion2MeritMonotone:
    def test_campaign_merit_monotone_and_nonnegative(self, campaign):
        t0 = time.perf_counter()
        violations = []
        for member in campaign:
            res = member.result
            tol = 1e-8 * (1.0 + abs(res.start.merit))
            merits = [res.start.merit] + res.trace.merit.tolist()
            for k in range(1, len(merits)):
                if merits[k] > merits[k - 1] + tol:
                    violations.append((member.label, k, "increase"))
                if merits[k] < -tol:
                    violations.append((member.label, k, "negative"))
            if merits[0] < -tol:
                violations.append((member.label, 0, "negative"))
        elapsed = campaign.build_seconds + (time.perf_counter() - t0)
        _verdict("2 merit-monotone", not violations and elapsed < 120.0,
                 f"{len(campaign)} runs, violations {violations[:3]}, "
                 f"{elapsed:.1f}s incl. campaign build")


class TestCriterion3LemmaSuite:
    LEMMA_CHECKS = ("descent-x", "descent-y", "ascent-lambda", "dual-recursion",
                    "drift-bound", "coupling-bound")

    def test_campaign_per_iteration_checks_all_pass(self, campaign):
        failures = []
        seen = 0
        for member in campaign:
            for chk in member.result.checks:
                if chk.name in self.LEMMA_CHECKS:
                    seen += 1
                    if not chk.passed:
                        failures.append((member.label, chk.name, chk.iteration,
                                         chk.slack))
        _verdict("3 lemma-suite", seen > 0 and not failures,
                 f"{seen} lemma checks, failures {failures[:3]}")

    def test_campaign_full_certificates_pass(self, campaign):
        failures = [(m.label, c.name, c.iteration)
                    for m in campaign for c in m.result.checks if not c.passed]
        _verdict("3b full-certificates", not failures, f"failures {failures[:3]}")


class TestCriterion4RateBounds:
    def test_rate_bounds_at_selected_indices(self, campaign):
        failures = []
        ratios = []
        for member in campaign:
            res = member.result
            k_final = len(res.trace)
            for k in sorted({1, 10, 100, k_final}):
                checks = rate_bound_checks(res.trace, res.constants, res.start.delta, k)
                for chk in checks:
                    if not chk.passed:
                        failures.append((member.label, chk.name, chk.slack))
                if k == 100:
                    named = {c.name.split("@")[0]: c for c in checks}
                    primal = named["rate-primal"]
                    bound = primal.slack  # slack = bound - observed >= 0
                    ratios.append(bound)
        decayed = all(np.isfinite(r) for r in ratios) and len(ratios) == len(campaign)
        _verdict("4 rate-bounds", not failures and decayed,
                 f"failures {failures[:3]}, k=100 evaluated on "
                 f"{len(ratios)} runs")

    def test_sqrt_k_decay_observed_at_k100(self, campaign):
        # the observed best residual at k=100 sits at or below the k=100
        # bound, which is 10x tighter than the k=1 bound
        bad = []
        for member in campaign:
            res = member.result
            c = res.constants
            big_m = max(c.eta0, res.start.delta)
            bound100 = np.sqrt(3.0 * big_m / (c.delta2 * 100)) / (c.beta * c.theta)
            points = [res.start] + member.records[:100]
            G = metric_matrix(member.inst, member.config)
            energies = [0.5 * float(r.dx @ (G @ r.dx))
                        + c.delta1 * float((r.y - q.y) @ (r.y - q.y))
                        + c.delta2 * float((r.lam - q.lam) @ (r.lam - q.lam))
                        for q, r in zip(points, points[1:])]
            j = int(np.argmin(energies))
            observed = member.records[j].res_primal
            ratio = bound100 / observed if observed > 0 else float("inf")
            if not (np.isfinite(bound100) and observed <= bound100 + 1e-10):
                bad.append((member.label, observed, bound100))
            if observed > 0 and not np.isfinite(ratio):
                bad.append((member.label, "ratio", ratio))
        _verdict("4b sqrt-k-decay", not bad, f"bad {bad[:3]}")


class TestCriterion5SeedOracleEquivalence:
    def test_closed_form_matches_brute_force(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(505)
        mismatches = []
        count = 0

        def compare(B, v, theta, beta, tau, m, expect=None):
            nonlocal count
            count += 1
            sol = eta0_from_rhs(B, v, theta, beta, tau, m)
            kkt = eta0_kkt_oracle(B, v, theta, beta, tau, m)
            scale = max(1.0, abs(kkt) if np.isfinite(kkt) else 1.0)
            if not np.isfinite(sol.value) or not np.isfinite(kkt):
                if np.isfinite(sol.value) != np.isfinite(kkt):
                    mismatches.append(("feasibility", theta, tau, sol.value, kkt))
                return
            if abs(sol.value - kkt) > 1e-6 * scale:
                mismatches.append(("kkt", theta, tau, sol.value, kkt))
            pgd = eta0_pgd_oracle(B, v, theta, beta, tau, m, starts=50,
                                  iters=3000, seed=count)
            if abs(sol.value - pgd) > 1e-6 * scale:
                mismatches.append(("pgd", theta, tau, sol.value, pgd))
            if expect is not None and abs(sol.value - expect) > 1e-9:
                mismatches.append(("expect", theta, tau, sol.value, expect))

        # case (i): no proximal weight, consistent multiplier, value exactly 0
        for i in range(34):
            p = int(rng.integers(1, 4))
            l = int(rng.integers(1, 4))
            B = rng.standard_normal((l, p))
            theta = float(rng.uniform(0.3, 1.7))
            sol = eta0_from_rhs(B, np.zeros(p), theta, float(rng.uniform(0.5, 4.0)),
                                0.0, 0.0)
            count += 1
            if sol.value != 0.0:
                mismatches.append(("case-i", theta, 0.0, sol.value, 0.0))

        # case (ii): no proximal weight, non-unit stepsize, invertible B^T B
        for i in range(34):
            p = int(rng.integers(1, 4))
            B = rng.standard_normal((p + 1, p)) + 2 * np.eye(p + 1, p)
            theta = float(rng.choice([rng.uniform(0.3, 0.9), rng.uniform(1.1, 1.7)]))
            compare(B, rng.standard_normal(p), theta,
                    float(rng.uniform(0.5, 4.0)), 0.0, 0.0)

        # case (iii): positive proximal weight, mixed ranks and stepsizes
        for i in range(34):
            p = int(rng.integers(1, 4))
            l = int(rng.integers(1, 4))
            B = rng.standard_normal((l, p))
            theta = float(rng.choice([1.0, rng.uniform(0.3, 1.7)]))
            tau = float(rng.uniform(0.2, 2.0))
            m = float(rng.uniform(0.0, 0.5)) * min(
                1.0, spectral_summary(B).sigma_min)
            compare(B, rng.standard_normal(p), theta,
                    float(rng.uniform(0.5, 4.0)), tau, m)

        # the two pinned reference values
        compare(np.eye(2), np.array([1.0, 0.0]), 1.5, 2.0, 1.0, 0.0, expect=0.6)
        sol0 = eta0_from_rhs(np.eye(2), np.zeros(2), 1.0, 2.0, 0.0, 0.0)
        count += 1
        if sol0.value != 0.0:
            mismatches.append(("exact-zero", 1.0, 0.0, sol0.value, 0.0))

        elapsed = time.perf_counter() - t0
        _verdict("5 seed-oracle", count >= 100 and not mismatches
                 and elapsed < 30.0,
                 f"{count} configurations, mismatches {mismatches[:3]}, "
                 f"{elapsed:.1f}s")


class TestCriterion6StrongPenaltyRegime:
    def _strong_regime_run(self, family, dims, seed, params=None):
        inst = generate_instance(family, *dims, seed, params=params)
        spec = spectral_summary(inst.B)
        assert spec.sigma_min > 0
        m = inst.g.weak_convexity
        L = inst.g.lipschitz
        theta = 1.0 + 0.4 * ((seed % 3) - 1)   # 0.6, 1.0, 1.4
        from admmcert import gamma as gamma_fn
        gam = gamma_fn(theta)
        beta = 1.05 * max((m + np.sqrt(m * m + 24.0 * gam * L * L)) / spec.sigma_min,
                          inst.beta_bar)
        cfg = SolverConfig(theta=theta, beta=beta, tau=0.0, G=ZeroG(),
                           rho=1e-7, max_iters=30000)
        x0, y0, _ = default_start(inst)
        lam0 = np.linalg.solve(inst.B.T, inst.g.gradient(y0))
        return inst, run(inst, cfg, (x0, y0, lam0))

    def test_twenty_instances(self):
        cases = ([("quad-quad", (4, 4, 4)), ("quad-quad", (6, 6, 6)),
                  ("quad-quad", (3, 5, 5))] * 4
                 + [("l0-ls", (3, 4, 4)), ("sphere-quad", (3, 4, 4))] * 4)
        bad = []
        for i, (family, dims) in enumerate(cases[:20]):
            params = {"ortho_a": True} if family != "quad-quad" else None
            inst, res = self._strong_regime_run(family, dims, 600 + i, params=params)
            names = {c.name for c in res.checks}
            wanted = {"init-gap-nonneg", "delta1-bracket", "delta2-bracket"}
            if not wanted <= names:
                bad.append((family, i, "regime checks not engaged"))
                continue
            for c in res.checks:
                if c.name in wanted and not c.passed:
                    bad.append((family, i, c.name, c.slack))
            if res.start.delta < -1e-10:
                bad.append((family, i, "delta0", res.start.delta))
            incl = [c for c in res.checks if c.name == "x-inclusion"]
            if not incl or any(not c.passed for c in incl):
                bad.append((family, i, "inclusion"))
            if family != "quad-quad":
                # prox fixed-point certificate at the literal budget
                if any(c.slack < -INCLUSION_TOL for c in incl):
                    bad.append((family, i, "inclusion budget"))
        _verdict("6 strong-penalty-regime", not bad, f"20 runs, bad {bad[:3]}")


class TestCriterion7WideStepsizes:
    @pytest.mark.parametrize("theta", [1.7, 1.9])
    def test_wide_theta_converges_with_certificates(self, theta):
        from helpers import auto_config
        for seed, dims in ((71, (1, 1, 1)), (72, (6, 6, 6)), (73, (4, 5, 5))):
            inst = generate_instance("quad-quad", *dims, seed)
            cfg = auto_config(inst, theta, rho=1e-6, max_iters=120000)
            res = run(inst, cfg, default_start(inst))
            failed = [c for c in res.checks if not c.passed]
            ok = res.outcome == "converged" and not failed
            if not ok:
                _verdict("7 wide-stepsize", False,
                         f"theta {theta} dims {dims}: {res.outcome}, "
                         f"{len(failed)} check failures")
        _verdict(f"7 wide-stepsize theta={theta}", True, "3 instances converged")


class TestCriterion8RowSpaceProjectionBound:
    def test_thousand_mixed_rank_pairs(self):
        rng = np.random.default_rng(808)
        violations = 0
        for _ in range(1000):
            rows = int(rng.integers(1, 9))
            cols = int(rng.integers(1, 9))
            rank = int(rng.integers(1, min(rows, cols) + 1))
            U = np.linalg.qr(rng.standard_normal((rows, rank)))[0]
            V = np.linalg.qr(rng.standard_normal((cols, rank)))[0]
            s = rng.uniform(0.05, 5.0, rank)
            S = U @ (s[:, None] * V.T)
            u = rng.standard_normal(cols) * 10.0 ** rng.uniform(-2, 2)
            sigma_plus = spectral_summary(S).sigma_plus
            lhs = np.linalg.norm(project_onto_range(S.T, u))
            rhs = np.linalg.norm(S @ u) / np.sqrt(sigma_plus)
            if lhs > rhs + 1e-8:
                violations += 1
        _verdict("8 projection-bound", violations == 0,
                 f"1000 pairs, {violations} violations")


class TestCriterion9Reproducibility:
    def test_byte_identical_traces(self, tmp_path):
        import json
        from admmcert.cli import main
        from admmcert.serialize import instance_to_doc

        inst = generate_instance("quad-quad", 5, 5, 5, seed=99)
        doc = {"instance": instance_to_doc(inst),
               "solver": {"theta": 1.4, "beta": "auto", "tau": 0.0,
                          "rho": 1e-8, "max_iters": 20000},
               "outputs": {"trace": "first.csv"}}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        code1 = main(["run", str(cfg)])
        doc["outputs"]["trace"] = "second.csv"
        cfg.write_text(json.dumps(doc))
        code2 = main(["run", str(cfg)])
        first = (tmp_path / "first.csv").read_bytes()
        second = (tmp_path / "second.csv").read_bytes()
        ok = code1 == code2 and first == second and len(first) > 0
        _verdict("9 reproducibility", ok,
                 f"{len(first)} bytes, exit codes ({code1}, {code2})")
