"""Shared fixtures: the scalar instance and the certified random campaign."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from admmcert import (ExplicitG, ProblemInstance, SolverConfig, run,
                      scalar_fixture, spectral_summary)
from admmcert.solver import RunResult
from helpers import auto_config, default_start

CAMPAIGN_ITERS = 120


@pytest.fixture
def scalar_instance() -> ProblemInstance:
    return scalar_fixture()


@pytest.fixture
def scalar_config() -> SolverConfig:
    return SolverConfig(theta=1.0, beta=4.0, tau=0.0, rho=1e-6, max_iters=500)


@pytest.fixture
def scalar_start():
    return np.zeros(1), np.ones(1), np.ones(1)


@dataclass
class CampaignMember:
    label: str
    family: str
    inst: ProblemInstance
    config: SolverConfig
    start: tuple
    result: RunResult
    records: list   # the full record of each iteration, through on_iterate


def _campaign_spec():
    """100 deterministic members across the four families, dims up to 50."""
    rng = np.random.default_rng(20260810)
    thetas = (0.6, 1.0, 1.4, 1.9)
    members = []
    plan = [("quad-quad", 28), ("l0-ls", 24), ("box-cos", 24), ("sphere-quad", 24)]
    i = 0
    for family, count in plan:
        for j in range(count):
            n = int(rng.integers(2, 51))
            p = int(rng.integers(2, 51))
            l = int(rng.integers(2, 51))
            theta = thetas[i % 4]
            params = {}
            if family == "quad-quad":
                if j % 4 == 3:
                    params = {"rank": max(1, min(l, p) - 1), "nonconvex": False}
                else:
                    l = max(l, p)          # full column rank B
                    params = {"nonconvex": True}
            else:
                if j % 6 == 5:
                    # square invertible B with orthonormal A: prox-exact
                    # first block under the plain splitting
                    l = p = max(n, p)
                    params = {"ortho_a": True}
                else:
                    l = max(l, p)
            members.append((f"{family}-{j}", family, n, p, l, 1000 + i, theta,
                            params))
            i += 1
    return members


class Campaign(list):
    """Campaign members plus the wall time spent building them."""

    build_seconds: float = 0.0


@pytest.fixture(scope="session")
def campaign():
    """Certified 120-iteration runs on 100 seeded admissible instances.

    The residual target is set unreachably small so that every trace has the
    full 120 iterations; the rate-bound criteria need indices up to 100.
    """
    import time

    from admmcert import generate_instance, validate_assumptions

    t0 = time.perf_counter()
    members = Campaign()
    for label, family, n, p, l, seed, theta, params in _campaign_spec():
        inst = generate_instance(family, n, p, l, seed, params=params)
        checks = validate_assumptions(inst, samples=60, seed=seed)
        assert all(c.passed for c in checks), f"{label}: {checks}"
        spec = spectral_summary(inst.B)
        if family == "quad-quad":
            if params.get("rank") is not None or spec.sigma_min == 0:
                g_kind = "zero"
            elif seed % 3 == 0:
                rng = np.random.default_rng(seed)
                V = np.linalg.qr(rng.standard_normal((n, n)))[0]
                G = V @ (rng.uniform(0.1, 1.0, n)[:, None] * V.T)
                g_kind = ExplicitG(0.5 * (G + G.T))
            elif seed % 3 == 1:
                g_kind = "linearized"
            else:
                g_kind = "zero"
        else:
            g_kind = "zero" if params.get("ortho_a") else "linearized"
        config = auto_config(inst, theta, g_kind=g_kind, rho=1e-300,
                             max_iters=CAMPAIGN_ITERS, certify=True)
        start = default_start(inst)
        records = []
        result = run(inst, config, start, on_iterate=records.append)
        assert result.outcome == "iteration-cap", \
            f"{label}: {result.outcome} {result.message}"
        assert len(result.trace) == CAMPAIGN_ITERS
        members.append(CampaignMember(label, family, inst, config, start, result,
                                      records))
    members.build_seconds = time.perf_counter() - t0
    assert len(members) == 100
    return members
