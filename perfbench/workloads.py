"""The benchmark's workloads: generated configs and the outcome each must reach.

Every workload is a generator spec with ``beta: "auto"``, ``tau: 0``, the
``zeros`` start, a positive but unreachable ``rho`` and a fixed
``max_iters``, so every run stops at the iteration cap and iteration counts
cannot drift between seeds or commits.  The program sees only the config
files written here; the generator seed is derived from the workload seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path

# Positive, so the config is valid, but no residual reaches it: runs end at
# the iteration cap.
UNREACHABLE_RHO = 1e-300

EXIT_ITERATION_CAP = 3
# theta_sweep exits 0 only when every member converged with no failed check;
# every member of the sweep workload stops at the cap by construction, so
# the expected sweep exit code is 2.
EXIT_SWEEP_NOT_ALL_CONVERGED = 2

# Artifacts that must be byte-identical across executions of one workload.
# report.json is left out: it records the run's wall time.
RUN_ARTIFACTS = ("trace.csv", "certificate.json")
SWEEP_ARTIFACTS = ("sweep.csv",)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    family: str
    dims: tuple[int, int, int]      # (n, p, l)
    params: dict
    max_iters: int
    certify: bool
    thetas: tuple[float, ...]       # one entry: "run"; several: "sweep"
    tiny_dims: tuple[int, int, int]
    tiny_iters: int

    @property
    def is_sweep(self) -> bool:
        return len(self.thetas) > 1

    def tiny(self) -> "Workload":
        """A seconds-long variant with the same routes, for the smoke test."""
        return replace(self, dims=self.tiny_dims, max_iters=self.tiny_iters)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="quad600-run",
        why=("run on quad-quad at n=p=l=600, certified, 200 iterations. "
             "Set-up dominates here (generate + validate + SVDs are about 60% "
             "of wall), so work on the set-up pass shows. Newton and the "
             "long-run certificate cost are absent."),
        family="quad-quad", dims=(600, 600, 600), params={},
        max_iters=200, certify=True, thetas=(1.5,),
        tiny_dims=(20, 20, 20), tiny_iters=20),
    Workload(
        name="boxcos-newton-run",
        why=("run on box-cos at n=100, p=l=300, ortho_a, certified, 300 "
             "iterations. It is the only non-quadratic smooth block, so the "
             "y-step runs damped Newton with a dense solve, and the loop is "
             "about 85% of wall. n < l keeps the instance from converging in "
             "one iteration."),
        family="box-cos", dims=(100, 300, 300), params={"ortho_a": True},
        max_iters=300, certify=True, thetas=(1.5,),
        tiny_dims=(10, 30, 30), tiny_iters=30),
    Workload(
        name="l0-small-run",
        why=("run on l0-ls at n=20, p=l=30, ortho_a (prox route), certified, "
             "3000 iterations. Python overhead per iteration, the certifier's "
             "observe and writing the certificate dominate, and set-up is "
             "negligible: certifier caching and serialization show here."),
        family="l0-ls", dims=(20, 30, 30), params={"ortho_a": True},
        max_iters=3000, certify=True, thetas=(1.5,),
        tiny_dims=(5, 8, 8), tiny_iters=60),
    Workload(
        name="l0-sweep-nocert",
        why=("sweep over theta in {0.6, 1.2, 1.6, 1.9} on l0-ls at n=100, "
             "p=l=300, ortho_a, certify off, 400 iterations per member. The "
             "only workload where the step kernel runs without the certifier, "
             "and the only one on the sweep path, which regenerates, "
             "revalidates and refactors B per member. theta=1.0 is left out: "
             "with tau=0 and the zeros start its dual-seed program is "
             "infeasible."),
        family="l0-ls", dims=(100, 300, 300), params={"ortho_a": True},
        max_iters=400, certify=False, thetas=(0.6, 1.2, 1.6, 1.9),
        tiny_dims=(10, 30, 30), tiny_iters=20),
)}


def generator_seed(workload: Workload, seed: int) -> int:
    """Instance seed derived from the benchmark seed and the workload name."""
    digest = hashlib.sha256(f"{workload.name}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def config_doc(workload: Workload, seed: int) -> dict:
    n, p, l = workload.dims
    return {
        "instance": {"generator": {
            "family": workload.family, "n": n, "p": p, "l": l,
            "seed": generator_seed(workload, seed),
            "params": dict(workload.params)}},
        "solver": {
            "theta": workload.thetas[0], "beta": "auto", "tau": 0.0,
            "rho": UNREACHABLE_RHO, "max_iters": workload.max_iters,
            "certify": workload.certify},
        "start": {"policy": "zeros"},
    }


def write_config(workload: Workload, seed: int, workdir: Path) -> Path:
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "config.json"
    path.write_text(json.dumps(config_doc(workload, seed), indent=1) + "\n")
    return path


def cli_argv(workload: Workload, config: Path) -> list[str]:
    if workload.is_sweep:
        return ["sweep", str(config), "--theta", *map(repr, workload.thetas),
                "--out", str(config.parent / "sweep.csv"), "--workers", "1"]
    return ["run", str(config)]


def artifacts(workload: Workload) -> tuple[str, ...]:
    return SWEEP_ARTIFACTS if workload.is_sweep else RUN_ARTIFACTS


def clear_artifacts(workdir: Path) -> None:
    for name in RUN_ARTIFACTS + SWEEP_ARTIFACTS + ("report.json",):
        (workdir / name).unlink(missing_ok=True)


def artifact_digest(workload: Workload, workdir: Path) -> str:
    h = hashlib.sha256()
    for name in artifacts(workload):
        path = workdir / name
        h.update(name.encode())
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


def check_outcome(workload: Workload, exit_code: int, stderr: str,
                  workdir: Path) -> tuple[list[str], dict]:
    """Compare one execution's outputs with the expected outcome.

    Returns the list of problems (empty when the execution is as expected)
    and the facts read from its outputs: total iterations and checks.
    """
    try:
        if workload.is_sweep:
            return _check_sweep(workload, exit_code, stderr, workdir)
        return _check_run(workload, exit_code, stderr, workdir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable outputs: {exc!r}"], {"iterations": 0, "checks": 0}


def _check_run(workload, exit_code, stderr, workdir):
    cap = workload.max_iters
    problems = []
    if exit_code != EXIT_ITERATION_CAP:
        problems.append(f"exit code {exit_code}, expected {EXIT_ITERATION_CAP}")
    if stderr:
        problems.append(f"stderr: {stderr.strip()[:200]}")
    report = json.loads((workdir / "report.json").read_text())
    if report["outcome"] != "iteration-cap":
        problems.append(f"outcome {report['outcome']!r}")
    if report["iterations"] != cap:
        problems.append(f"{report['iterations']} iterations, expected {cap}")
    cert = report["certificate"]
    if cert is None or cert["failed"] != 0:
        problems.append(f"certificate {cert!r}")
    rows = (workdir / "trace.csv").read_text().splitlines()[1:]
    if [int(r.split(",", 1)[0]) for r in rows] != list(range(1, cap + 1)):
        problems.append("trace rows are not k = 1..cap")
    checks = json.loads((workdir / "certificate.json").read_text())
    if len(checks) != cert["checks"] or not all(c["pass"] for c in checks):
        problems.append("certificate file disagrees with the report")
    return problems, {"iterations": report["iterations"], "checks": len(checks)}


def _check_sweep(workload, exit_code, stderr, workdir):
    cap = workload.max_iters
    problems = []
    if exit_code != EXIT_SWEEP_NOT_ALL_CONVERGED:
        problems.append(
            f"exit code {exit_code}, expected {EXIT_SWEEP_NOT_ALL_CONVERGED}")
    if stderr:
        problems.append(f"stderr: {stderr.strip()[:200]}")
    with open(workdir / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if [float(r["theta"]) for r in rows] != sorted(workload.thetas):
        problems.append("sweep rows do not match the thetas")
    iterations = checks = 0
    for row in rows:
        if (row["outcome"] != "iteration-cap" or int(row["iterations"]) != cap
                or int(row["checks_failed"]) != 0 or row["error"]):
            problems.append(f"sweep row {row!r}")
        iterations += int(row["iterations"] or 0)
        checks += int(row["checks_passed"] or 0) + int(row["checks_failed"] or 0)
    return problems, {"iterations": iterations, "checks": checks}
