"""Command-line interface and exit-code contract."""

import contextlib
import copy
import csv
import functools
import io
import json
import math
import operator
import os
import pickle
import subprocess
import sys
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import admmcert
import admmcert.cli
import admmcert.serialize
import admmcert.solver
from admmcert import generate_instance
from admmcert.cli import main, prepare_instance
from admmcert.serialize import instance_to_doc, read_trace_csv


def _write_config(tmp_path, instance_doc, solver=None, start=None, outputs=None,
                  name="config.json"):
    doc = {"instance": instance_doc,
           "solver": solver or {"theta": 1.2, "beta": "auto", "tau": 0.0,
                                "rho": 1e-6, "max_iters": 5000}}
    if start is not None:
        doc["start"] = start
    if outputs is not None:
        doc["outputs"] = outputs
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def _largest_budget(cfg) -> float:
    """max(rec.inner_budget) over the records of a library run of cfg."""
    doc = admmcert.serialize.load_config(cfg)
    inst = prepare_instance(doc)
    records = []
    admmcert.run(inst, admmcert.serialize.solver_config_from_doc(doc["solver"]),
                 admmcert.serialize.resolve_start(doc.get("start"), inst),
                 on_iterate=records.append)
    return max(rec.inner_budget for rec in records)


@pytest.fixture
def quad_config(tmp_path):
    inst = generate_instance("quad-quad", 3, 3, 3, seed=21)
    return _write_config(tmp_path, instance_to_doc(inst))


class TestRunCommand:
    def test_successful_run_writes_artifacts(self, tmp_path, quad_config):
        code = main(["run", str(quad_config)])
        assert code == 0
        trace = read_trace_csv(tmp_path / "trace.csv")
        assert trace[-1]["res_primal"] <= 1e-6 or trace[-1]["res_dual_y"] <= 1e-6
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert cert and all(entry["pass"] for entry in cert)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["outcome"] == "converged"
        assert report["certificate"]["failed"] == 0
        assert report["constants"]["delta1"] > 0
        inner = report["inner"]
        assert math.isfinite(inner["largest_budget"])
        assert inner.pop("largest_budget") == _largest_budget(quad_config)
        assert inner == {"steps": 0, "factorizations": 0, "backtracks": 0}

    def test_report_counts_inner_newton_work(self, tmp_path):
        inst = generate_instance("box-cos", 4, 12, 12, seed=3, params={"ortho_a": True})
        cfg = _write_config(tmp_path, instance_to_doc(inst),
                            solver={"theta": 1.5, "beta": "auto", "rho": 1e-300,
                                    "max_iters": 60})
        assert main(["run", str(cfg)]) == 3
        inner = json.loads((tmp_path / "report.json").read_text())["inner"]
        assert set(inner) == {"steps", "factorizations", "backtracks",
                              "largest_budget"}
        assert 0 < inner["factorizations"] < inner["steps"]
        assert math.isfinite(inner["largest_budget"])
        assert inner["largest_budget"] == _largest_budget(cfg)

    def test_custom_output_paths(self, tmp_path):
        inst = generate_instance("quad-quad", 2, 2, 2, seed=5)
        cfg = _write_config(tmp_path, instance_to_doc(inst),
                            outputs={"trace": "t.csv", "certificate": "c.json",
                                     "report": "r.json"})
        assert main(["run", str(cfg)]) == 0
        for name in ("t.csv", "c.json", "r.json"):
            assert (tmp_path / name).exists()

    def test_generator_instance_config(self, tmp_path):
        cfg = _write_config(tmp_path, {"generator": {
            "family": "quad-quad", "n": 2, "p": 2, "l": 2, "seed": 77}})
        assert main(["run", str(cfg)]) == 0

    def test_inadmissible_beta_exits_4(self, tmp_path, capsys):
        inst = generate_instance("quad-quad", 1, 1, 1, seed=0)
        cfg = _write_config(tmp_path, instance_to_doc(inst),
                            solver={"theta": 1.0, "beta": 1.0})
        assert main(["run", str(cfg)]) == 4
        assert "delta1" in capsys.readouterr().err

    def test_infeasible_seed_exits_4(self, tmp_path, capsys):
        # unit stepsize, no proximal weight, inconsistent multiplier start
        inst = generate_instance("quad-quad", 1, 1, 1, seed=0)
        cfg = _write_config(tmp_path, instance_to_doc(inst),
                            solver={"theta": 1.0, "beta": 4.0, "tau": 0.0},
                            start={"x0": [0.0], "y0": [1.0], "lambda0": [0.0]})
        assert main(["run", str(cfg)]) == 4
        assert "seed" in capsys.readouterr().err

    def test_iteration_cap_exits_3(self, tmp_path):
        inst = generate_instance("quad-quad", 3, 3, 3, seed=21)
        cfg = _write_config(tmp_path, instance_to_doc(inst),
                            solver={"theta": 1.2, "beta": "auto", "tau": 0.0,
                                    "rho": 1e-12, "max_iters": 2})
        assert main(["run", str(cfg)]) == 3

    def test_missing_config_exits_4(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.json")]) == 4

    def test_overstated_floor_exits_2(self, tmp_path):
        # A floor above the true penalized infimum cannot be caught by
        # validation (the infimum is declared, not computed), but the merit
        # nonnegativity certificate fails once the run descends past it:
        # converged yet uncertified.
        inst = generate_instance("quad-quad", 1, 1, 1, seed=0)
        doc = instance_to_doc(inst)
        doc["objective_floor"] = 0.3    # true infimum is 0
        cfg = _write_config(tmp_path, doc,
                            solver={"theta": 1.0, "beta": 4.0, "tau": 0.5,
                                    "rho": 1e-8, "max_iters": 5000})
        assert main(["run", str(cfg)]) == 2
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["outcome"] == "converged"
        assert report["certificate"]["failed"] > 0
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert any(e["name"] == "merit-nonneg" and not e["pass"] for e in cert)

    def test_run_with_no_iteration(self, tmp_path, monkeypatch, capsys):
        # The first Newton y-step stops at a cap of 0 inner steps, so the run
        # ends in error before any iteration completes.
        monkeypatch.setattr(admmcert.solver, "NEWTON_CAP", 0)
        inst = generate_instance("box-cos", 4, 5, 6, seed=8)
        spec = inst.spectral
        beta = admmcert.min_admissible_beta(1.4, 0.5, inst.g.weak_convexity,
                                            inst.g.lipschitz, spec.sigma_min,
                                            spec.sigma_plus, beta_bar=inst.beta_bar)
        alpha = 1.5 * beta * float(np.linalg.eigvalsh(inst.A.T @ inst.A)[-1])
        cfg = _write_config(tmp_path, instance_to_doc(inst),
                            solver={"theta": 1.4, "beta": "auto", "tau": 0.5,
                                    "rho": 1e-300, "max_iters": 5,
                                    "G": {"kind": "linearized", "alpha": alpha}})
        assert main(["run", str(cfg)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: second-block Newton stalled")
        header = ",".join(admmcert.serialize.TRACE_COLUMNS)
        assert (tmp_path / "trace.csv").read_text() == header + "\n"
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["outcome"] == "error" and report["iterations"] == 0
        assert report["final_residuals"] is None
        assert report["inner"]["largest_budget"] == 0.0
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert [(e["name"], e["iteration"]) for e in cert] == [("merit-nonneg", 0)]

    def test_assumption_failure_exits_4(self, tmp_path, capsys):
        # declared Lipschitz constant at half its true value
        inst = generate_instance("quad-quad", 2, 3, 3, seed=13)
        doc = instance_to_doc(inst)
        doc["g"]["lipschitz"] = inst.g.lipschitz / 2.0
        cfg = _write_config(tmp_path, doc)
        assert main(["run", str(cfg)]) == 4
        assert "projected-secant" in capsys.readouterr().err


class TestGenCommand:
    def test_gen_then_run(self, tmp_path):
        out = tmp_path / "inst.json"
        assert main(["gen", "l0-ls", "--n", "3", "--p", "4", "--l", "4",
                     "--seed", "9", "--out", str(out),
                     "--params", '{"mu": 0.5}']) == 0
        doc = json.loads(out.read_text())
        assert doc["f"]["family"] == "l0" and doc["f"]["mu"] == 0.5
        beta_doc = {"theta": 1.3, "beta": "auto", "tau": 0.0,
                    "rho": 1e-6, "max_iters": 8000,
                    "G": {"kind": "linearized", "alpha": "auto"}}
        # linearized alpha must be numeric; compute one from the instance
        from admmcert import spectral_summary, min_admissible_beta
        from admmcert.serialize import instance_from_doc
        inst = instance_from_doc(doc)
        spec = spectral_summary(inst.B)
        beta = min_admissible_beta(1.3, 0.0, inst.g.weak_convexity,
                                   inst.g.lipschitz, spec.sigma_min,
                                   spec.sigma_plus)
        alpha = 1.05 * beta * float(np.linalg.eigvalsh(inst.A.T @ inst.A)[-1])
        beta_doc["G"] = {"kind": "linearized", "alpha": alpha}
        cfg = _write_config(tmp_path, doc, solver=beta_doc)
        assert main(["run", str(cfg)]) == 0

    def test_gen_sphere_quad_then_run_from_zeros(self, tmp_path):
        # The origin lies outside the sphere; "zeros" starts x0 at its prox.
        inst_path = tmp_path / "instance.json"
        assert main(["gen", "sphere-quad", "--n", "3", "--p", "8", "--l", "8",
                     "--seed", "3", "--params", '{"ortho_a": true}',
                     "--out", str(inst_path)]) == 0
        cfg = _write_config(tmp_path, json.loads(inst_path.read_text()),
                            solver={"theta": 1.5, "max_iters": 5000},
                            start={"policy": "zeros"})
        assert main(["run", str(cfg)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["outcome"] == "converged"
        assert report["certificate"]["failed"] == 0

    def test_gen_bad_dims_exits_4(self, tmp_path):
        assert main(["gen", "quad-quad", "--n", "0", "--p", "2", "--l", "2",
                     "--seed", "1", "--out", str(tmp_path / "x.json")]) == 4


class TestSweepCommand:
    @pytest.fixture
    def sweep_config(self, tmp_path):
        # the consistent-multiplier start keeps the unit stepsize feasible
        # without a proximal weight
        inst = generate_instance("quad-quad", 3, 3, 3, seed=21)
        return _write_config(tmp_path, instance_to_doc(inst),
                             start={"policy": "consistent-multiplier"})

    def test_single_theta_sweep_matches_run(self, tmp_path, sweep_config):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", str(sweep_config), "--theta", "1.0", "--out",
                     str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("theta,beta,outcome,iterations")
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert float(cells[0]) == 1.0
        assert cells[2] == "converged"
        assert int(cells[11]) == 0   # checks_failed

    def test_multi_theta_rows_sorted_and_converged(self, tmp_path, sweep_config):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", str(sweep_config), "--theta", "1.5", "0.5", "1.0",
                     "--out", str(out)])
        assert code == 0
        rows = out.read_text().strip().splitlines()[1:]
        thetas = [float(r.split(",")[0]) for r in rows]
        assert thetas == sorted(thetas) == [0.5, 1.0, 1.5]
        assert all(r.split(",")[2] == "converged" for r in rows)

    def test_out_of_range_theta_exits_4(self, tmp_path, quad_config):
        assert main(["sweep", str(quad_config), "--theta", "2.5"]) == 4

    def test_parallel_workers_match_sequential(self, tmp_path, sweep_config):
        seq = tmp_path / "seq.csv"
        par = tmp_path / "par.csv"
        assert main(["sweep", str(sweep_config), "--theta", "0.8", "1.2",
                     "--out", str(seq)]) == 0
        assert main(["sweep", str(sweep_config), "--theta", "0.8", "1.2",
                     "--out", str(par), "--workers", "2"]) == 0
        assert seq.read_bytes() == par.read_bytes()

    def test_worker_count_from_environment(self, tmp_path, sweep_config,
                                           monkeypatch):
        # --workers is the only worker setting: the environment variable that
        # once set it is not read, so a value it refused runs with the default.
        monkeypatch.setenv("ADMMCERT_WORKERS", "0")
        out = tmp_path / "env.csv"
        assert main(["sweep", str(sweep_config), "--theta", "0.8", "1.2",
                     "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 3

    def test_member_error_recorded_in_row(self, tmp_path):
        # rank-deficient coupling with tau=0 has no admissible penalty
        inst = generate_instance("quad-quad", 2, 4, 4, seed=3,
                                 params={"rank": 2, "nonconvex": False})
        cfg = _write_config(tmp_path, instance_to_doc(inst),
                            solver={"theta": 1.0, "beta": "auto", "tau": 0.0})
        out = tmp_path / "sweep.csv"
        code = main(["sweep", str(cfg), "--theta", "1.0", "--out", str(out)])
        assert code == 2
        row = out.read_text().strip().splitlines()[1]
        assert "error" in row


class TestSweepPreparesOnce:
    """A sweep resolves, validates and factors its instance once for every theta."""

    @pytest.fixture
    def l0_config(self, tmp_path):
        # ortho_a puts the x-step on the prox route; theta = 1 is left out,
        # where the zeros start has no feasible dual seed with tau = 0.
        return _write_config(
            tmp_path,
            {"generator": {"family": "l0-ls", "n": 4, "p": 8, "l": 8, "seed": 5,
                           "params": {"ortho_a": True}}},
            solver={"theta": 1.5, "beta": "auto", "tau": 0.0, "rho": 1e-300,
                    "max_iters": 40},
            start={"policy": "zeros"})

    def test_generate_and_validate_once_per_sweep(self, tmp_path, l0_config,
                                                  monkeypatch):
        calls = {"generate_instance": 0, "validate_assumptions": 0}
        for module, name in ((admmcert.serialize, "generate_instance"),
                             (admmcert.cli, "validate_assumptions")):
            def counting(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counting)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(l0_config), "--theta", "0.6", "1.6",
                     "--out", str(out), "--workers", "1"]) == 2
        assert calls == {"generate_instance": 1, "validate_assumptions": 1}
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["outcome"] for r in rows] == ["iteration-cap"] * 2
        assert rows[0]["beta"] != rows[1]["beta"]

    def test_two_workers_write_the_same_bytes(self, tmp_path, l0_config):
        seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
        for out, workers in ((seq, "1"), (par, "2")):
            assert main(["sweep", str(l0_config), "--theta", "0.6", "1.2", "1.9",
                         "--out", str(out), "--workers", workers]) == 2
        assert seq.read_bytes() == par.read_bytes()
        assert seq.read_text().count(",iteration-cap,40,") == 3

    def test_prepared_instance_carries_its_factorization(self):
        inst = prepare_instance({"instance": {"generator": {
            "family": "l0-ls", "n": 4, "p": 8, "l": 8, "seed": 5}}})
        clone = pickle.loads(pickle.dumps(inst))
        assert vars(clone)["spectral"] == inst.spectral
        assert not any(a.flags.writeable for a in (clone.A, clone.B, clone.b))

    def test_failed_validation_is_an_error_row_per_theta(self, tmp_path, capsys):
        # declared Lipschitz constant at half its true value
        inst = generate_instance("quad-quad", 2, 3, 3, seed=13)
        doc = instance_to_doc(inst)
        doc["g"]["lipschitz"] = inst.g.lipschitz / 2.0
        cfg = _write_config(tmp_path, doc)
        assert main(["run", str(cfg)]) == 4
        message = capsys.readouterr().err.strip().removeprefix("error: ")
        assert "projected-secant=FAIL" in message
        out = tmp_path / "sweep.csv"
        for workers in ("1", "2"):
            assert main(["sweep", str(cfg), "--theta", "1.6", "0.4", "1.1",
                         "--out", str(out), "--workers", workers]) == 2
            with open(out, newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert [float(r["theta"]) for r in rows] == [0.4, 1.1, 1.6]
            assert all(r["outcome"] == "error" and r["error"] == message
                       and r["beta"] == "" for r in rows)

    def test_malformed_solver_section_errors_every_row(self, tmp_path, capsys):
        doc = {"instance": _generator_doc(),
               "solver": {"theta": 1.2, "beta": "auto", "tau": "abc",
                          "rho": 1e-6, "max_iters": 50}}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", str(cfg)]) == 4
        message = capsys.readouterr().err.strip().removeprefix("error: ")
        assert message.startswith("malformed solver config")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(cfg), "--theta", "0.8", "1.2",
                     "--out", str(out)]) == 2
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["outcome"], r["error"]) for r in rows] == [("error", message)] * 2


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:   # argparse usage errors
        return exc.code


_SWEEP = ["sweep", "{cfg}", "--theta", "0.6", "1.2"]


class TestUsageErrors:
    """Malformed invocations exit 4 with a single 'error:' line on stderr."""

    @pytest.mark.parametrize("argv", [
        _SWEEP + ["--workers", "two"],
        _SWEEP + ["--workers", "0"],
        _SWEEP + ["--workers", "-1"],
        ["sweep", "{cfg}", "--theta", "x"],
        ["run"],
        ["gen", "quad-quad"],
        [],
    ], ids=["flag-two", "flag-0", "flag-minus-1", "non-numeric-theta",
            "run-without-config", "gen-without-dims", "no-command"])
    def test_exits_4_with_one_error_line(self, quad_config, capsys, argv):
        assert _exit_code([a.replace("{cfg}", str(quad_config)) for a in argv]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert not (quad_config.parent / "sweep.csv").exists()

    def test_help_still_exits_0(self, capsys):
        assert _exit_code(["run", "--help"]) == 0
        assert "config" in capsys.readouterr().out


class TestCertifyCommand:
    def test_certify_reproduced_trace(self, tmp_path, quad_config):
        assert main(["run", str(quad_config)]) == 0
        code = main(["certify", str(tmp_path / "trace.csv"), str(quad_config),
                     "--out", str(tmp_path / "cert2.json")])
        assert code == 0
        cert = json.loads((tmp_path / "cert2.json").read_text())
        assert all(entry["pass"] for entry in cert)

    def test_certify_detects_tampering(self, tmp_path, quad_config, capsys):
        assert main(["run", str(quad_config)]) == 0
        trace_path = tmp_path / "trace.csv"
        lines = trace_path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[4] = format(float(cells[4]) + 1e-3, ".17g")
        lines[1] = ",".join(cells)
        trace_path.write_text("\n".join(lines) + "\n")
        assert main(["certify", str(trace_path), str(quad_config)]) == 2
        assert "mismatch" in capsys.readouterr().err.lower()


class TestReproducibility:
    def test_two_executions_identical_trace_bytes(self, tmp_path):
        inst = generate_instance("box-cos", 3, 4, 4, seed=31)
        alpha_doc = instance_to_doc(inst)
        from admmcert import spectral_summary, min_admissible_beta
        spec = spectral_summary(inst.B)
        beta = min_admissible_beta(1.4, 0.0, inst.g.weak_convexity,
                                   inst.g.lipschitz, spec.sigma_min,
                                   spec.sigma_plus)
        alpha = 1.05 * beta * float(np.linalg.eigvalsh(inst.A.T @ inst.A)[-1])
        cfg = _write_config(
            tmp_path, alpha_doc,
            solver={"theta": 1.4, "beta": "auto", "tau": 0.0, "rho": 1e-8,
                    "max_iters": 300,
                    "G": {"kind": "linearized", "alpha": alpha}},
            outputs={"trace": "a.csv"})
        assert main(["run", str(cfg)]) in (0, 3)
        first = (tmp_path / "a.csv").read_bytes()
        cfg2 = _write_config(
            tmp_path, alpha_doc,
            solver={"theta": 1.4, "beta": "auto", "tau": 0.0, "rho": 1e-8,
                    "max_iters": 300,
                    "G": {"kind": "linearized", "alpha": alpha}},
            outputs={"trace": "b.csv"}, name="config2.json")
        assert main(["run", str(cfg2)]) in (0, 3)
        assert first == (tmp_path / "b.csv").read_bytes()

    def test_library_run_derives_the_auto_penalty_the_cli_derives(self, tmp_path):
        # SolverConfig's beta defaults to "auto", which run itself resolves.
        inst = generate_instance("l0-ls", 4, 12, 12, seed=5, params={"ortho_a": True})
        result = admmcert.run(inst, admmcert.SolverConfig(theta=1.5, rho=1e-300,
                                                          max_iters=50),
                              (np.zeros(4), np.zeros(12), np.zeros(12)))
        spec = inst.spectral
        assert result.constants.beta == admmcert.min_admissible_beta(
            1.5, 0.0, inst.g.weak_convexity, inst.g.lipschitz, spec.sigma_min,
            spec.sigma_plus, beta_bar=inst.beta_bar)
        cfg = _write_config(tmp_path, instance_to_doc(inst),
                            solver={"theta": 1.5, "rho": 1e-300, "max_iters": 50})
        assert main(["run", str(cfg)]) == 3
        assert (tmp_path / "trace.csv").read_text() == "\n".join(
            admmcert.serialize.trace_csv_lines(result)) + "\n"


# A fresh interpreter generates a quad-quad instance (the floor's dpotrf and
# dpotrs), runs it (the Cholesky solver and dtrsv) and a box-cos instance (the
# Newton dpotrf), sweeps an l0-ls instance in this process, and writes the
# bits of one factor and its two solves.  It reports which modules the
# commands imported, then imports scipy.linalg and runs the commands again.
# With "fallback", the file lookup of scipy finds nothing, so the routines
# come from scipy.linalg.
_LAPACK_PROGRAM = r"""
import importlib.util, json, sys
from pathlib import Path
import numpy as np
out, mode = Path(sys.argv[1]), sys.argv[2]
if mode == "fallback":
    find_spec = importlib.util.find_spec
    importlib.util.find_spec = lambda name, *args: (
        None if name == "scipy" else find_spec(name, *args))
from admmcert import linalg
from admmcert.cli import main

def commands(where):
    where.mkdir()
    instance = str(where / "quad.json")
    codes = [main(["gen", "quad-quad", "--n", "3", "--p", "4", "--l", "4",
                   "--seed", "3", "--out", instance])]
    for name, inst in (
            ("quad", json.loads(Path(instance).read_text())),
            ("boxcos", {"generator": {"family": "box-cos", "n": 3, "p": 6, "l": 6,
                                      "seed": 3, "params": {"ortho_a": True}}}),
            ("l0", {"generator": {"family": "l0-ls", "n": 2, "p": 4, "l": 4,
                                  "seed": 5, "params": {"ortho_a": True}}})):
        (where / name).mkdir()
        cfg = where / name / "config.json"
        cfg.write_text(json.dumps({"instance": inst, "start": {"policy": "zeros"},
                                   "solver": {"theta": 1.5, "rho": 1e-300,
                                              "max_iters": 30}}))
        codes.append(main(["sweep", str(cfg), "--theta", "0.8", "1.2", "--workers", "1"]
                          if name == "l0" else ["run", str(cfg)]))
    return codes

rng = np.random.default_rng(7)
M = rng.standard_normal((6, 6))
H, rhs = M @ M.T + 6.0 * np.eye(6), rng.standard_normal(6)
c, info = linalg.dpotrf(H, lower=1, clean=0)
bits = np.concatenate([c.ravel(), linalg.dpotrs(c, rhs, lower=1)[0],
                       linalg.dtrsv(c, rhs, lower=1)])
(out / "bits.hex").write_text(bits.tobytes().hex())
facts = {"codes": commands(out / "first"),
         "imported": [name for name in ("scipy.linalg", "concurrent.futures")
                      if name in sys.modules]}
import scipy.linalg
facts["scipy routines"] = (linalg.dpotrf is scipy.linalg.lapack.dpotrf
                           and linalg.dpotrs is scipy.linalg.lapack.dpotrs
                           and linalg.dtrsv is scipy.linalg.blas.dtrsv)
facts["cho_factor bits"] = (np.tril(scipy.linalg.cho_factor(H, lower=True)[0]).tobytes()
                            == np.tril(c).tobytes())
facts["codes again"] = commands(out / "again")
print(json.dumps(facts))
"""

_LAPACK_ARTIFACTS = ("quad.json", "quad/trace.csv", "quad/certificate.json",
                     "boxcos/trace.csv", "boxcos/certificate.json", "l0/sweep.csv")


@pytest.fixture(scope="module")
def lapack_runs(tmp_path_factory):
    """The facts and the output directory of _LAPACK_PROGRAM, by mode."""
    env = dict(os.environ, PYTHONPATH=str(Path(admmcert.__file__).parents[1]))
    runs = {}
    for mode in ("direct", "fallback"):
        out = tmp_path_factory.mktemp(mode)
        proc = subprocess.run([sys.executable, "-c", _LAPACK_PROGRAM, str(out), mode],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs[mode] = json.loads(proc.stdout.splitlines()[-1]), out
    return runs


class TestLapackBlasLoading:
    """dpotrf, dpotrs and dtrsv come from scipy's f2py modules without
    scipy.linalg's import chain, or from scipy.linalg when those cannot be
    loaded by file; both give the same routines and the same artifacts."""

    def test_commands_never_import_scipy_linalg(self, lapack_runs):
        # pytest's own process has imported scipy.linalg already, so only a
        # fresh interpreter shows what the commands import.
        facts, _ = lapack_runs["direct"]
        assert facts["codes"] == [0, 3, 3, 2]
        assert facts["imported"] == []

    def test_fallback_gives_the_scipy_routines_and_the_same_bits(self, lapack_runs):
        (direct, direct_out), (fallback, fallback_out) = (
            lapack_runs["direct"], lapack_runs["fallback"])
        assert "scipy.linalg" in fallback["imported"]
        assert fallback["scipy routines"] and fallback["cho_factor bits"]
        assert fallback["codes"] == direct["codes"]
        assert ((fallback_out / "bits.hex").read_text()
                == (direct_out / "bits.hex").read_text())
        for name in _LAPACK_ARTIFACTS:
            assert ((fallback_out / "first" / name).read_bytes()
                    == (direct_out / "first" / name).read_bytes()), name

    def test_scipy_linalg_imported_later_reuses_the_routines(self, lapack_runs):
        facts, out = lapack_runs["direct"]
        assert facts["scipy routines"] and facts["cho_factor bits"]
        assert facts["codes again"] == facts["codes"]
        for name in _LAPACK_ARTIFACTS:
            assert ((out / "again" / name).read_bytes()
                    == (out / "first" / name).read_bytes()), name


def _generator_doc():
    return {"generator": {"family": "quad-quad", "n": 3, "p": 3, "l": 3,
                          "seed": 21}}


def _malformed(case):
    """A small valid config with one malformed entry, as a document."""
    doc = {"instance": _generator_doc(),
           "solver": {"theta": 1.2, "beta": "auto", "tau": 0.0,
                      "rho": 1e-6, "max_iters": 50}}
    if case == "theta-not-a-number":
        doc["solver"]["theta"] = "abc"
    elif case == "max-iters-null":
        doc["solver"]["max_iters"] = None
    elif case == "generator-n-not-a-number":
        doc["instance"]["generator"]["n"] = "x"
    elif case == "x0-wrong-length":
        doc["start"] = {"x0": [0.0, 0.0], "y0": [0.0] * 3, "lambda0": [0.0] * 3}
    elif case == "inline-b-wrong-length":
        inline = instance_to_doc(generate_instance("quad-quad", 3, 3, 3, seed=21))
        inline["b"] = inline["b"][:2]
        doc["instance"] = inline
    elif case == "validation-zero-samples":   # the section is gone: an unknown key
        doc["validation"] = {"samples": 0}
    elif case == "G-matrix-scalar":
        doc["solver"]["G"] = {"kind": "explicit", "matrix": 1}
    elif case in _SOLVER_VALUES:
        key, value = _SOLVER_VALUES[case]
        doc["solver"][key] = value
    elif case == "generator-n-fractional":
        doc["instance"]["generator"]["n"] = 2.7
    else:
        raise AssertionError(case)
    return doc


# Solver entries the config parser or SolverConfig.validate refuses.  The
# sweep sets beta to "auto", so an explicit beta is not a sweep case.
# inner_tol and beta_margin are no longer settings, so any value of either is
# an unknown key.
_SOLVER_VALUES = {
    "max-iters-fractional": ("max_iters", 1.9),
    "max-iters-bool": ("max_iters", True),
    "rho-nan": ("rho", math.nan),
    "rho-infinite": ("rho", math.inf),
    "inner-tol-nan": ("inner_tol", math.nan),
    "beta-infinite": ("beta", math.inf),
    "beta-margin-nan": ("beta_margin", math.nan),
    "certify-string": ("certify", "false"),
    "max-iter-typo": ("max_iter", 5),
    "theta-typo": ("thetaa", 1.2),
    "G-alpha-typo": ("G", {"kind": "linearized", "alpha": 50.0, "alpah": 2}),
    "rho-bool": ("rho", True),
    "tau-bool": ("tau", False),
    "tau-null": ("tau", None),
    "rho-huge": ("rho", 10 ** 400),
    "G-alpha-missing": ("G", {"kind": "linearized"}),
    "tau-huge": ("tau", 1e160),
}

_MALFORMED = ["theta-not-a-number", "max-iters-null", "generator-n-not-a-number",
              "x0-wrong-length", "inline-b-wrong-length", "validation-zero-samples",
              "G-matrix-scalar", "generator-n-fractional",
              *(case for case in _SOLVER_VALUES
                if case != "beta-infinite")]


class TestMalformedConfigs:
    """A malformed config is a configuration error, never a traceback."""

    @pytest.mark.parametrize("case", _MALFORMED)
    def test_run_exits_4_with_one_error_line(self, tmp_path, capsys, case):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(_malformed(case)))
        assert main(["run", str(cfg)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert not (tmp_path / "trace.csv").exists()

    # The sweep sets theta itself, so a malformed theta in the file is
    # overridden there and is not a sweep case.  An unknown top-level key
    # ends the sweep at once, so validation-zero-samples is not one either.
    @pytest.mark.parametrize("case", [case for case in _MALFORMED[1:]
                                      if case != "validation-zero-samples"])
    def test_sweep_records_an_error_row_per_member(self, tmp_path, capsys, case):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(_malformed(case)))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(cfg), "--theta", "0.8", "1.2",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == ""
        rows = out.read_text().strip().splitlines()[1:]
        assert len(rows) == 2
        assert all(r.split(",")[2] == "error" and r.split(",")[-1] for r in rows)

    def test_sweep_error_cells_are_quoted(self, tmp_path, capsys):
        # The error text holds a comma; the row still has 13 cells and the
        # text reads back as the run command reports it.
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(_malformed("inline-b-wrong-length")))
        assert main(["run", str(cfg)]) == 4
        message = capsys.readouterr().err.strip().removeprefix("error: ")
        assert "," in message
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(cfg), "--theta", "0.8", "1.2",
                     "--out", str(out)]) == 2
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(r) for r in rows] == [13, 13, 13]
        assert rows[0][-1] == "error"
        assert [r[-1] for r in rows[1:]] == [message, message]


def _inline(family, n, p, l, seed, block=None, **entries):
    """A setter putting an inline instance, with entries set in one block, in a doc."""
    def put(doc):
        inline = instance_to_doc(generate_instance(family, n, p, l, seed=seed,
                                                   params={"ortho_a": True}))
        (inline if block is None else inline[block]).update(entries)
        doc["instance"] = inline
    return put


def _generator(**entries):
    return lambda doc: doc["instance"]["generator"].update(entries)


def _floor_typo(doc):
    _inline("quad-quad", 3, 3, 3, 21)(doc)
    doc["instance"]["objective_flor"] = doc["instance"].pop("objective_floor")


def _dropped(put, block, key):
    """A setter: put, then key dropped from one block (None: the instance)."""
    def drop(doc):
        put(doc)
        (doc["instance"] if block is None else doc["instance"][block]).pop(key)
    return drop


# A finite start so large that numpy overflows on it: without the CLI's
# errstate it printed RuntimeWarning lines before its error line.
_EXTREME_START = {"instance": {"generator": {"family": "box-cos", "n": 2, "p": 3,
                                             "l": 3, "seed": 2}}}


# Config edits that ran silently, or failed later on something else or with
# a message naming no key, before every section was read through its table,
# every receiver's required keys were named and every oracle range checked.
_DOC_EDITS = {
    "validation-typo": lambda doc: doc.update(validaton={"samples": 10}),
    "outputs-typo": lambda doc: doc.update(outputs={"certficate": "c.json"}),
    "start-typo": lambda doc: doc.update(start={"polcy": "zeros"}),
    "generator-typo": _generator(sed=3),
    "params-typo": _generator(params={"nonconvx": False}),
    "inline-floor-typo": _floor_typo,
    "validation-tol-bool": lambda doc: doc.update(validation={"tol": True}),
    "inline-lipschitz-bool": _inline("quad-quad", 3, 3, 3, 21, "g", lipschitz=True),
    "params-ortho-a-string": _generator(params={"ortho_a": "false"}),
    "params-rank-fractional": _generator(params={"rank": 2.7}),
    "inline-g-dim": _inline("box-cos", 2, 6, 6, 4, "g", dim=4),
    "inline-f-dim-sphere": _inline("sphere-quad", 3, 4, 4, 4, "f", dim=5),
    "inline-f-dim-l0": _inline("l0-ls", 3, 4, 4, 4, "f", dim=50),
    "theta-string": lambda doc: doc["solver"].update(theta="abc"),
    "theta-missing": lambda doc: doc.update(solver={"beta": 9.0, "max_iters": 20}),
    "theta-missing-beta-auto": lambda doc: doc.update(solver={"beta": "auto",
                                                              "max_iters": 20}),
    "theta-missing-beta-default": lambda doc: doc.update(solver={"max_iters": 20}),
    "generator-seed-missing": lambda doc: doc["instance"]["generator"].pop("seed"),
    "inline-f-mu-missing": _dropped(_inline("l0-ls", 3, 4, 4, 4), "f", "mu"),
    "inline-b-missing": _dropped(_inline("quad-quad", 3, 3, 3, 21), None, "b"),
    "beta-margin-numeric-beta": lambda doc: doc["solver"].update(beta=9.0,
                                                                 beta_margin=3.0),
    "start-policy-and-vectors": lambda doc: doc.update(start={
        "policy": "zeros", "x0": [0.0] * 3, "y0": [0.0] * 3, "lambda0": [0.0] * 3}),
    "l0-mu-nan": _generator(family="l0-ls", params={"mu": math.nan}),
    "l0-mu-infinite": _generator(family="l0-ls", params={"mu": math.inf}),
    "box-cos-a-nan": _generator(family="box-cos", params={"a": math.nan}),
    "box-cos-radius-nan": _generator(family="box-cos", params={"box_radius": math.nan}),
    "box-cos-radius-negative": _generator(family="box-cos", params={"box_radius": -1.0}),
    "inline-box-lo-nan": _inline("box-cos", 2, 6, 6, 4, "f", lo=[math.nan, -1.0]),
    "theta-tiny": lambda doc: doc["solver"].update(theta=1e-300),
    "theta-tiny-beta-numeric": lambda doc: doc["solver"].update(theta=1e-17, beta=9.0),
    "tau-huge-beta-numeric": lambda doc: doc["solver"].update(tau=1e160, beta=9.0),
    "y0-extreme": lambda doc: doc.update(_EXTREME_START, start={
        "x0": [0.0] * 2, "y0": [1e200, 0.0, 0.0], "lambda0": [0.0] * 3}),
    "lambda0-extreme": lambda doc: doc.update(_EXTREME_START, start={
        "x0": [0.0] * 2, "y0": [0.0] * 3, "lambda0": [1e200, 0.0, 0.0]}),
}


def _boundary_case(case, tmp_path):
    """argv of one malformed invocation; its files are written under tmp_path."""
    doc = {"instance": _generator_doc(),
           "solver": {"theta": 1.2, "beta": "auto", "tau": 0.0,
                      "rho": 1e-6, "max_iters": 20}}
    cfg = tmp_path / "config.json"
    sweep = ["sweep", str(cfg), "--theta", "0.8", "1.2"]
    if case in ("certify-non-numeric-cell", "certify-short-row", "certify-out-unwritable"):
        cfg.write_text(json.dumps(doc))
        assert main(["run", str(cfg)]) == 3
        trace = tmp_path / "trace.csv"
        lines = trace.read_text().splitlines()
        cells = lines[3].split(",")
        if case == "certify-non-numeric-cell":
            lines[3] = ",".join(cells[:2] + ["abc"] + cells[3:])
        elif case == "certify-short-row":
            lines[3] = ",".join(cells[:-1])
        trace.write_text("\n".join(lines) + "\n")
        argv = ["certify", str(trace), str(cfg)]
        return argv + (["--out", str(tmp_path / "nodir" / "c.json")]
                       if case == "certify-out-unwritable" else [])
    if case in ("gen-params-list", "gen-params-not-json", "gen-params-typo"):
        family, params = {"gen-params-list": ("l0-ls", "[1]"),
                          "gen-params-not-json": ("l0-ls", "not json"),
                          "gen-params-typo": ("quad-quad", '{"nonconvx": false}')}[case]
        return ["gen", family, "--n", "2", "--p", "3", "--l", "3", "--seed", "1",
                "--out", str(tmp_path / "x.json"), "--params", params]
    if case == "start-string":
        doc["start"] = "zeros"
    elif case == "validation-list":   # the removed section, of any type, is unknown
        doc["validation"] = [1]
    elif case == "outputs-string":
        doc["outputs"] = "x"
    elif case == "outputs-unwritable":
        doc["outputs"] = {"trace": "nodir/t.csv"}
    elif case == "certificate-unwritable":
        doc["outputs"] = {"certificate": "nodir/c.json"}
    elif case == "sweep-solver-string":
        doc["solver"] = "abc"
    elif case == "solver-G-string":
        doc["solver"]["G"] = "x"
    elif case == "G-matrix-scalar":
        doc["solver"]["G"] = {"kind": "explicit", "matrix": 1}
    elif case in ("validation-seed-negative", "validation-seed-infinite"):
        doc["validation"] = {"seed": -1 if case.endswith("negative") else math.inf}
    elif case in ("generator-seed-infinite", "generator-seed-nan"):
        doc["instance"]["generator"]["seed"] = (math.inf if case.endswith("infinite")
                                                else math.nan)
    elif case == "max-iters-infinite":
        doc["solver"]["max_iters"] = math.inf
    elif case in _SOLVER_VALUES:
        key, value = _SOLVER_VALUES[case]
        doc["solver"][key] = value
    elif case == "generator-n-fractional":
        doc["instance"]["generator"]["n"] = 2.7
    elif case == "generator-string":
        doc["instance"]["generator"] = "x"
    elif case in ("inline-f-string", "inline-g-string"):
        inline = instance_to_doc(generate_instance("quad-quad", 2, 2, 2, seed=3))
        inline[case[7]] = "x"
        doc["instance"] = inline
    elif case == "inline-q-not-square":
        inline = instance_to_doc(generate_instance("quad-quad", 2, 2, 2, seed=3))
        inline["g"]["Q"] = [[1.0, 0.0]]
        doc["instance"] = inline
    elif case in _DOC_EDITS:
        _DOC_EDITS[case](doc)
    elif case != "sweep-out-unwritable":
        raise AssertionError(case)
    cfg.write_text(json.dumps(doc))
    if case == "sweep-solver-string":
        return sweep
    if case == "sweep-out-unwritable":
        return sweep + ["--out", str(tmp_path / "nodir" / "s.csv")]
    return ["run", str(cfg)]


_BOUNDARY = ["start-string", "validation-list", "outputs-string",
             "sweep-solver-string", "outputs-unwritable", "certificate-unwritable",
             "sweep-out-unwritable",
             "certify-out-unwritable", "certify-non-numeric-cell",
             "certify-short-row", "inline-q-not-square", "solver-G-string",
             "inline-f-string", "inline-g-string", "gen-params-list",
             "G-matrix-scalar", "validation-seed-negative",
             "validation-seed-infinite", "generator-seed-infinite",
             "max-iters-infinite", "generator-string", "generator-seed-nan",
             "gen-params-not-json", "generator-n-fractional", "gen-params-typo",
             *_SOLVER_VALUES, *_DOC_EDITS]

# The start of the error line: the section, and the key where the document
# names one.
_BOUNDARY_MESSAGES = {
    "solver-G-string": "malformed solver config: G must be an object, got str",
    "inline-f-string": "malformed instance: f must be an object, got str",
    "inline-g-string": "malformed instance: g must be an object, got str",
    "generator-string": "malformed instance: generator must be an object, got str",
    "G-matrix-scalar": "malformed solver config: G must be 2-D, got shape ()",
    "validation-list": "malformed config: unknown config key 'validation'",
    "validation-seed-negative": "malformed config: unknown config key 'validation'",
    "validation-seed-infinite": "malformed config: unknown config key 'validation'",
    "generator-seed-infinite": "malformed instance: seed must be an integer, got inf",
    "generator-seed-nan": "malformed instance: seed must be an integer, got nan",
    "max-iters-infinite": "malformed solver config: max_iters must be an integer, got inf",
    "gen-params-not-json": "--params is not JSON: Expecting value: line 1 column 1 (char 0)",
    "generator-n-fractional": "malformed instance: n must be an integer, got 2.7",
    "max-iters-fractional": "malformed solver config: max_iters must be an integer, got 1.9",
    "max-iters-bool": "malformed solver config: max_iters must be an integer, got True",
    "rho-nan": "rho must lie in (0, inf), got nan",
    "rho-infinite": "rho must lie in (0, inf), got inf",
    "inner-tol-nan": "malformed solver config: unknown solver key 'inner_tol'",
    "beta-infinite": "beta must lie in (0, inf), got inf",
    "beta-margin-nan": "malformed solver config: unknown solver key 'beta_margin'",
    "certify-string": "malformed solver config: certify must be true or false, got 'false'",
    "max-iter-typo": "malformed solver config: unknown solver key 'max_iter' "
                     "(did you mean 'max_iters'?)",
    "theta-typo": "malformed solver config: unknown solver key 'thetaa' "
                  "(did you mean 'theta'?)",
    "G-alpha-typo": "malformed solver config: unknown G key 'alpah' (did you mean 'alpha'?)",
    "rho-bool": "malformed solver config: rho must be a number, got True",
    "tau-bool": "malformed solver config: tau must be a number, got False",
    "validation-typo": "malformed config: unknown config key 'validaton'",
    "outputs-typo": "malformed config: unknown outputs key 'certficate' "
                    "(did you mean 'certificate'?)",
    "start-typo": "malformed start: unknown start key 'polcy' (did you mean 'policy'?)",
    "generator-typo": "malformed instance: unknown generator key 'sed' (did you mean 'seed'?)",
    "params-typo": "malformed instance: unknown params key 'nonconvx' "
                   "(did you mean 'nonconvex'?)",
    "gen-params-typo": "unknown params key 'nonconvx' (did you mean 'nonconvex'?)",
    "inline-floor-typo": "malformed instance: unknown instance key 'objective_flor' "
                         "(did you mean 'objective_floor'?)",
    "validation-tol-bool": "malformed config: unknown config key 'validation'",
    "inline-lipschitz-bool": "malformed instance: lipschitz must be a number, got True",
    "params-ortho-a-string": "malformed instance: ortho_a must be true or false, got 'false'",
    "params-rank-fractional": "malformed instance: rank must be an integer, got 2.7",
    "inline-g-dim": "malformed instance: g.dim must be 6, got 4",
    "inline-f-dim-sphere": "malformed instance: f.dim must be 3, got 5",
    "inline-f-dim-l0": "malformed instance: f.dim must be 3, got 50",
    "theta-string": "malformed solver config: theta must be a number, got 'abc'",
    "tau-null": "malformed solver config: tau must be a number, got None",
    "rho-huge": "malformed solver config: rho must be a number, got 1000",
    "G-alpha-missing": "malformed solver config: G is missing key 'alpha'",
    "theta-missing": "malformed solver config: solver is missing key 'theta'",
    "theta-missing-beta-auto": "malformed solver config: solver is missing key 'theta'",
    "theta-missing-beta-default": "malformed solver config: solver is missing key 'theta'",
    "generator-seed-missing": "malformed instance: generator is missing key 'seed'",
    "inline-f-mu-missing": "malformed instance: f is missing key 'mu'",
    "inline-b-missing": "malformed instance: instance is missing key 'b'",
    "beta-margin-numeric-beta": "malformed solver config: unknown solver key "
                                "'beta_margin'",
    "start-policy-and-vectors": "malformed start: policy cannot be given with x0, "
                                "y0 or lambda0",
    "l0-mu-nan": "malformed instance: mu must lie in (0, inf), got nan",
    "l0-mu-infinite": "malformed instance: mu must lie in (0, inf), got inf",
    "box-cos-a-nan": "malformed instance: a must lie in [0, inf), got nan",
    "box-cos-radius-nan": "box_radius must lie in [0, inf), got nan",
    "box-cos-radius-negative": "box_radius must lie in [0, inf), got -1.0",
    "inline-box-lo-nan": "malformed instance: box requires lo <= hi",
    "theta-tiny": "theta 1e-300 is too close to 0: 1 - |theta - 1| rounds to 0",
    "theta-tiny-beta-numeric": "theta 1e-17 is too close to 0",
    "tau-huge": "tau 1e+160 is too large: tau^2 overflows",
    "tau-huge-beta-numeric": "tau 1e+160 is too large: tau^2 overflows",
    "y0-extreme": "the dual-seed program is infeasible for this start",
    "lambda0-extreme": "the dual-seed program is infeasible for this start",
}


class TestErrorBoundary:
    """Wrong-typed sections, unwritable artifacts and broken traces: exit 4
    with a single 'error:' line from the installed entry point, no traceback."""

    @pytest.mark.parametrize("case", _BOUNDARY)
    def test_exits_4_with_one_error_line(self, tmp_path, case):
        argv = _boundary_case(case, tmp_path)
        env = dict(os.environ, PYTHONPATH=str(Path(admmcert.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "admmcert", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        err = proc.stderr.splitlines()
        assert proc.returncode == 4, proc.stderr
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert "Traceback" not in proc.stderr
        if "unwritable" in case:
            assert err[0].startswith("error: cannot write ") and "nodir" in err[0]
        if case in ("certify-non-numeric-cell", "certify-short-row"):
            assert "line 4" in err[0]
        if case in _BOUNDARY_MESSAGES:
            assert err[0].startswith("error: " + _BOUNDARY_MESSAGES[case]), err
        if case == "rho-huge":   # the 401-digit value is quoted cut short
            assert len(err[0]) <= 100 and err[0].endswith("..."), err

    def test_sweep_members_print_no_float_warnings(self, tmp_path):
        # Every member overflows on the extreme start; members in worker
        # processes keep numpy's warnings off as the command does.
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**_EXTREME_START, "solver": {"max_iters": 20},
                                   "start": {"x0": [0.0] * 2, "y0": [1e200, 0.0, 0.0],
                                             "lambda0": [0.0] * 3}}))
        env = dict(os.environ, PYTHONPATH=str(Path(admmcert.__file__).parents[1]))
        for workers in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "admmcert", "sweep", str(cfg), "--theta", "0.8",
                 "1.2", "--workers", workers], capture_output=True, text=True,
                env=env, timeout=120)
            assert proc.returncode == 2 and proc.stderr == "", proc.stderr
            rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
            assert [r.split(",")[2] for r in rows] == ["error", "error"]

    def test_understated_lipschitz_is_refused_whatever_the_config(self, tmp_path, capsys):
        # g.lipschitz at a quarter of its true value fails projected-secant at
        # validate_assumptions' fixed settings; no config section loosens them.
        inst = generate_instance("quad-quad", 4, 6, 6, seed=3)
        doc = instance_to_doc(inst)
        doc["g"]["lipschitz"] = inst.g.lipschitz / 4.0
        solver = {"theta": 1.5, "max_iters": 200}
        for extra, message in (({}, "projected-secant=FAIL"),
                               ({"validation": {"tol": 1e9}},
                                "unknown config key 'validation'")):
            cfg = tmp_path / "config.json"
            cfg.write_text(json.dumps({"instance": doc, "solver": solver, **extra}))
            assert main(["run", str(cfg)]) == 4
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,beta", [
        ("lipschitz", 1e160, 9.0), ("lipschitz", 1e160, "auto"),
        ("lipschitz", math.inf, "auto"), ("weak_convexity", 1e300, "auto"),
        ("weak_convexity", 1e300, 9.0), ("lipschitz", 1e154, 9.0)])
    def test_curvature_constants_that_break_the_formulas_are_named(
            self, tmp_path, capsys, key, value, beta):
        # The derived constants square g.lipschitz, and the auto penalty's
        # root is inf once 12 gamma L^2 or (tau - m)^2 overflows: each is
        # refused naming the constant, in a run and in every sweep row.  At
        # a numeric beta, m = 1e300 leaves the seed program's kappa negative,
        # and L = 1e154 (a finite square) makes delta1 -inf, which no finite
        # beta mends.
        doc = instance_to_doc(generate_instance("quad-quad", 3, 3, 3, seed=21))
        doc["g"][key] = value
        cfg = _write_config(tmp_path, doc, solver={"theta": 1.5, "beta": beta,
                                                   "max_iters": 20})
        assert main(["run", str(cfg)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and key in err[0], err
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(cfg), "--theta", "0.8", "1.9", "--out", str(out)]) == 2
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [r[2] for r in rows] == ["error", "error"]
        assert all(key in r[-1] for r in rows), rows

    def test_null_start_is_the_default_policy(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"instance": _generator_doc(), "start": None,
                                   "solver": {"theta": 1.2, "max_iters": 5000}}))
        assert main(["run", str(cfg)]) == 0

    def test_singular_first_block_is_a_setup_error(self, tmp_path, capsys):
        # P + beta A^T A = diag(1 + beta, 0) with G = 0 has no Cholesky factor;
        # the first-block subproblem has no unique minimizer.
        doc = {"A": [[1.0, 0.0], [0.0, 0.0]], "B": [[1.0, 0.0], [0.0, 1.0]],
               "b": [0.0, 0.0],
               "f": {"family": "quadratic", "P": [[1.0, 0.0], [0.0, 0.0]],
                     "q": [0.0, 0.0]},
               "g": {"family": "quadratic", "Q": [[1.0, 0.0], [0.0, 1.0]],
                     "c": [1.0, 0.5]}}
        cfg = _write_config(tmp_path, doc, solver={"theta": 1.5, "beta": "auto"})
        assert main(["run", str(cfg)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: first-block subproblem is not positive definite"]
        assert not (tmp_path / "trace.csv").exists()


# Values a mutation puts in place of a config entry.  Every finite number
# here is at most 1, so a mutated dimension or iteration cap stays tiny.
_FUZZ_POOL = (None, "x", [1], [], {}, math.nan, math.inf, -math.inf, -1, 0,
              True, [[1.0]])

_FUZZ_BASES = (
    {"instance": {"generator": {"family": "l0-ls", "n": 2, "p": 3, "l": 3,
                                "seed": 1, "params": {"ortho_a": True}}},
     "solver": {"theta": 1.2, "beta": "auto", "tau": 0.0, "rho": 1e-6,
                "max_iters": 20},
     "start": {"policy": "zeros"}},
    {"instance": instance_to_doc(generate_instance("quad-quad", 2, 2, 2, seed=3)),
     "solver": {"theta": 1.2, "beta": "auto", "tau": 0.0, "rho": 1e-6,
                "max_iters": 20,
                "G": {"kind": "explicit", "matrix": [[1.0, 0.0], [0.0, 1.0]]}},
     "start": {"x0": [0.0, 0.0], "y0": [0.0, 0.0], "lambda0": [0.0, 0.0]},
     "outputs": {"trace": "t.csv"}},
    {"instance": {"generator": {"family": "box-cos", "n": 2, "p": 3, "l": 3,
                                "seed": 2}},
     "solver": {"theta": 1.5, "rho": 1e-6, "max_iters": 20, "certify": True}},
)


def _entry_paths(doc, prefix=()):
    """The key path of every object member and array item in a document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return []
    return [path for key, value in items
            for path in [prefix + (key,), *_entry_paths(value, prefix + (key,))]]


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@st.composite
def _mutated_configs(draw):
    """A valid tiny config with one or two entries dropped, replaced, renamed
    (a letter appended to an object key) or, for a number, made a boolean."""
    doc = copy.deepcopy(draw(st.sampled_from(_FUZZ_BASES)))
    for _ in range(draw(st.integers(1, 2))):
        *head, last = draw(st.sampled_from(_entry_paths(doc)))
        parent = functools.reduce(operator.getitem, head, doc)
        mutation = draw(st.sampled_from(("drop", "replace", "rename", "boolean")))
        if mutation == "drop":
            del parent[last]
        elif mutation == "rename" and isinstance(last, str):
            parent[last + draw(st.sampled_from("asx"))] = parent.pop(last)
        elif mutation == "boolean" and _is_number(parent[last]):
            parent[last] = draw(st.booleans())
        else:
            parent[last] = copy.deepcopy(draw(st.sampled_from(_FUZZ_POOL)))
    return doc


class TestConfigFuzz:
    """Whatever a config holds, run and sweep end in a contract exit code."""

    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(doc=_mutated_configs())
    def test_mutated_config_ends_in_a_contract_exit_code(self, doc):
        with TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "config.json"
            cfg.write_text(json.dumps(doc))
            for argv in (["run", str(cfg)],
                         ["sweep", str(cfg), "--theta", "0.8", "1.2",
                          "--workers", "1", "--out", str(Path(tmp) / "s.csv")]):
                err = io.StringIO()
                with contextlib.redirect_stderr(err), \
                        contextlib.redirect_stdout(io.StringIO()):
                    code = main(argv)
                assert code in (0, 2, 3, 4), (argv[0], code)
                lines = err.getvalue().splitlines()
                if code == 4:
                    assert len(lines) == 1 and lines[0].startswith("error:"), lines

    @pytest.mark.parametrize("base", range(len(_FUZZ_BASES)))
    def test_each_renamed_key_and_boolean_number_is_refused_by_name(self, tmp_path,
                                                                    base):
        """Every object member of a config is read through a table: renaming
        its key, or putting a boolean where it holds a number, exits 4 with
        an error naming the key."""
        def run(doc):
            cfg = tmp_path / "config.json"
            cfg.write_text(json.dumps(doc))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert main(["run", str(cfg)]) == 4, doc
            return err.getvalue()

        members = [path for path in _entry_paths(_FUZZ_BASES[base])
                   if isinstance(path[-1], str)]
        for *head, last in members:
            doc = copy.deepcopy(_FUZZ_BASES[base])
            parent = functools.reduce(operator.getitem, head, doc)
            value = parent.pop(last)
            parent[last + "x"] = value
            # A tag (family, kind) that goes missing is reported by its name.
            message = run(doc)
            assert any(name in message for name in (
                f"'{last}x'", f"'{last}'", f"{last} None")), message
            if _is_number(value):
                del parent[last + "x"]
                parent[last] = True
                assert f"{last} must be " in run(doc)
