"""Interchange formats: instance documents, configs, traces."""

import json
import re
from array import array
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from admmcert import (BoxIndicator, ConfigurationError, CosineQuadratic,
                      ExplicitG, L0Penalty, LinearizedG, SolverConfig,
                      SphereIndicator, ZeroG, generate_instance, run,
                      scalar_fixture)
from admmcert import serialize
from admmcert.certify import CheckResult
from admmcert.generators import PARAMS
from admmcert.solver import Trace
from admmcert.serialize import (checks_to_doc, g_spec_from_doc,
                                instance_from_doc, instance_to_doc, load_config,
                                read_trace_csv, resolve_start,
                                solver_config_from_doc, write_certificate,
                                write_trace_csv)
from helpers import auto_config, default_start


class TestInstanceRoundTrip:
    @pytest.mark.parametrize("family", ["quad-quad", "l0-ls", "box-cos",
                                        "sphere-quad"])
    def test_exact_round_trip(self, family, tmp_path):
        inst = generate_instance(family, 3, 4, 4, seed=6)
        doc = instance_to_doc(inst)
        text = json.dumps(doc)          # floats round-trip via repr
        back = instance_from_doc(json.loads(text))
        assert np.array_equal(back.A, inst.A)
        assert np.array_equal(back.B, inst.B)
        assert np.array_equal(back.b, inst.b)
        assert back.objective_floor == inst.objective_floor
        assert back.beta_bar == inst.beta_bar
        assert type(back.f) is type(inst.f)
        assert type(back.g) is type(inst.g)

    def test_oracle_parameters_survive(self):
        inst = generate_instance("l0-ls", 3, 4, 4, seed=1, params={"mu": 0.7})
        back = instance_from_doc(instance_to_doc(inst))
        assert isinstance(back.f, L0Penalty) and back.f.mu == 0.7
        assert back.g.lipschitz == inst.g.lipschitz
        assert back.g.weak_convexity == inst.g.weak_convexity

    def test_indicator_families(self):
        for f in (BoxIndicator(-np.ones(2), np.ones(2)), SphereIndicator(2)):
            inst = scalar_fixture()
            doc = instance_to_doc(
                type(inst)(A=np.eye(2), B=np.eye(2), b=np.zeros(2), f=f,
                           g=CosineQuadratic(0.5, 2), objective_floor=-1.0))
            back = instance_from_doc(doc)
            assert type(back.f) is type(f)
            assert isinstance(back.g, CosineQuadratic) and back.g.a == 0.5

    @pytest.mark.parametrize("f, g", [
        ({"family": "quadratic", "P": [[2.0, 0.5], [0.5, 1.0]], "q": [0.25, -1.0]},
         {"family": "quadratic", "Q": [[1.0, 0.0], [0.0, -0.5]], "c": [0.0, 1.5],
          "lipschitz": 1.0, "weak_convexity": 0.5}),
        ({"family": "box", "lo": [-1.0, -2.0], "hi": [1.0, 0.5]},
         {"family": "cosine-quadratic", "a": 2.5, "dim": 2}),
        ({"family": "l0", "mu": 0.3, "dim": 2},
         {"family": "quadratic", "Q": [[1.5, 0.0], [0.0, 1.0]], "c": [1.0, 0.0],
          "lipschitz": 1.5, "weak_convexity": 0.0}),
        ({"family": "sphere", "dim": 2},
         {"family": "cosine-quadratic", "a": 0.0, "dim": 2}),
    ], ids=["quadratic-quadratic", "box-cosine", "l0-quadratic", "sphere-cosine"])
    def test_document_round_trip(self, f, g):
        """The writer gives back an inline document, keys in order, for
        every oracle family."""
        doc = {"A": [[1.0, 0.0], [0.0, 1.0]], "B": [[1.0, 0.0], [1.0, 2.0]],
               "b": [0.5, -0.25], "f": f, "g": g, "beta_bar": 1.5,
               "objective_floor": -3.0}
        back = instance_to_doc(instance_from_doc(doc))
        assert back == doc and json.dumps(back) == json.dumps(doc)

    def test_missing_field_rejected(self):
        with pytest.raises(ConfigurationError):
            instance_from_doc({"A": [[1.0]], "B": [[1.0]], "b": [0.0]})

    def test_generator_spec_resolution(self):
        doc = {"generator": {"family": "quad-quad", "n": 2, "p": 2, "l": 2,
                             "seed": 3}}
        inst = instance_from_doc(doc)
        assert inst.dims == (2, 2, 2)
        with pytest.raises(ConfigurationError):
            instance_from_doc({"generator": {"family": "quad-quad", "n": 2,
                                            "p": 2, "l": 2}})   # no seed


class TestSolverConfigDoc:
    def test_auto_beta_is_admissible(self):
        inst = scalar_fixture()
        cfg = solver_config_from_doc({"theta": 1.0, "beta": "auto"})
        assert cfg.beta == "auto"
        res = run(inst, cfg, default_start(inst))
        assert res.constants.beta == pytest.approx(1.1 * np.sqrt(12.0))

    def test_numeric_beta_passthrough(self):
        cfg = solver_config_from_doc({"theta": 1.5, "beta": 9.0, "tau": 0.25,
                                      "rho": 1e-8, "max_iters": 50})
        assert (cfg.theta, cfg.beta, cfg.tau) == (1.5, 9.0, 0.25)
        assert cfg.rho == 1e-8 and cfg.max_iters == 50

    def test_g_spec_round_trip(self):
        docs = ({"kind": "zero"}, {"kind": "linearized", "alpha": 3.5},
                {"kind": "explicit", "matrix": [[1.0, 0.0], [0.0, 1.0]]})
        for doc, kind in zip(docs, (ZeroG, LinearizedG, ExplicitG)):
            assert type(g_spec_from_doc(doc)) is kind
        assert g_spec_from_doc(docs[1]).alpha == 3.5
        assert np.array_equal(g_spec_from_doc(docs[2]).matrix, np.eye(2))
        assert g_spec_from_doc(None) == ZeroG()
        with pytest.raises(ConfigurationError):
            g_spec_from_doc({"kind": "mystery"})

    def test_integral_float_counts_stay_accepted(self):
        for value in (5, 5.0, "5"):
            doc = {"theta": 1.5, "beta": 9.0, "max_iters": value}
            assert solver_config_from_doc(doc).max_iters == 5

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf"), 1e9])
    def test_non_finite_validation_tol_is_refused(self, tmp_path, tol):
        # The validation section is gone: the assumption probes run at fixed
        # settings, so a config naming any tol, finite or not, is refused.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"instance": {}, "solver": {},
                                    "validation": {"tol": tol}}))
        with pytest.raises(ConfigurationError, match="unknown config key 'validation'"):
            load_config(path)


class TestSchema:
    """The declared tables are the config reference that README gives."""

    def test_readme_quotes_exactly_the_declared_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = "".join(
            readme.split(heading, 1)[1].split("```json", 1)[1].split("```", 1)[0]
            for heading in ("## Config file schema", "### Instance document"))
        declared = set()
        for table in (serialize._CONFIG, serialize._OUTPUTS, serialize._SOLVER,
                      serialize._START, serialize._GENERATED,
                      serialize._GENERATOR, serialize._INSTANCE, *PARAMS.values()):
            declared.update(table)
        for tag, variants in (("kind", serialize._METRICS),
                              ("family", serialize._NONSMOOTH),
                              ("family", serialize._SMOOTH)):
            declared.add(tag)
            for label, (_, kinds) in variants.items():
                declared.update(kinds)
                assert f'"{label}"' in blocks, label
        assert set(re.findall(r'"(\w+)"\s*:', blocks)) == declared

    def test_generate_instance_docstring_lists_each_familys_params(self):
        text = generate_instance.__doc__.split("params (", 1)[1].split("\n\n", 1)[0]
        listed = dict(re.findall(r"^ {6}(\w+) +(.*)$", text, re.M))
        for family, kinds in PARAMS.items():
            takes = {key for key, line in listed.items()
                     if " only:" not in line or line.startswith(f"{family} only:")}
            assert takes == set(kinds), family


class TestStartPolicies:
    def test_zeros(self):
        inst = scalar_fixture()
        x0, y0, lam0 = resolve_start({"policy": "zeros"}, inst)
        assert not x0.any() and not y0.any() and not lam0.any()

    def test_zeros_maps_x0_into_dom_f(self):
        # Only the sphere excludes the origin; its prox there is e_1.
        for family in ("quad-quad", "l0-ls", "box-cos", "sphere-quad"):
            inst = generate_instance(family, 3, 4, 4, seed=8)
            x0, y0, lam0 = resolve_start({"policy": "zeros"}, inst)
            expected = np.eye(3)[0] if family == "sphere-quad" else np.zeros(3)
            assert np.array_equal(x0, expected), family
            assert not y0.any() and not lam0.any()
            assert inst.f.value(x0) < float("inf")

    def test_explicit(self):
        inst = scalar_fixture()
        x0, y0, lam0 = resolve_start(
            {"x0": [1.0], "y0": [2.0], "lambda0": [3.0]}, inst)
        assert (x0[0], y0[0], lam0[0]) == (1.0, 2.0, 3.0)
        with pytest.raises(ConfigurationError):
            resolve_start({"x0": [1.0]}, inst)

    def test_consistent_multiplier_solves_least_squares(self):
        inst = generate_instance("quad-quad", 3, 4, 4, seed=8)
        x0, y0, lam0 = resolve_start({"policy": "consistent-multiplier"}, inst)
        grad = inst.g.gradient(y0)
        assert np.linalg.norm(inst.B.T @ lam0 - grad) <= 1e-8 * max(
            1.0, np.linalg.norm(grad))

    def test_consistent_multiplier_unavailable_reported(self):
        # rank-deficient coupling whose gradient leaves the row space
        inst = generate_instance("quad-quad", 2, 4, 4, seed=3,
                                 params={"rank": 2, "nonconvex": False})
        with pytest.raises(ConfigurationError, match="consistent"):
            resolve_start({"policy": "consistent-multiplier"}, inst)

    def test_unknown_policy(self):
        with pytest.raises(ConfigurationError):
            resolve_start({"policy": "telepathy"}, scalar_fixture())


class TestTraceCsv:
    def test_round_trip_and_column_order(self, tmp_path):
        inst = generate_instance("quad-quad", 3, 3, 3, seed=4)
        cfg = auto_config(inst, 1.2, max_iters=25, rho=1e-300)
        records = []
        result = run(inst, cfg, default_start(inst), on_iterate=records.append)
        path = tmp_path / "trace.csv"
        write_trace_csv(result, path)
        header = path.read_text().splitlines()[0]
        assert header == "k,res_primal,res_dual_y,res_dual_x,L_beta,delta_k,eta_k,merit"
        rows = read_trace_csv(path)
        assert len(rows) == len(result.trace) == len(records)
        for row, rec, merit in zip(rows, records, result.trace.merit):
            assert row["k"] == rec.k
            assert row["res_primal"] == rec.res_primal   # 17 digits: exact
            assert row["merit"] == merit

    def test_rows_match_the_per_cell_formatter(self):
        # One template call per row gives the bytes of str(k) and _fmt per cell.
        inf, nan, tiny = float("inf"), float("nan"), 5e-324
        cells = [(1, 0.1, 1e-300, 0.0, -0.0, -0.0, -0.0),
                 (2, nan, inf, -inf, 1.0, nan, 0.0),
                 (2 ** 40, tiny, -tiny, 2.2250738585072014e-308, 1e308, -1e308, 1.5),
                 (10 ** 18, 1 / 3, -2 / 3, 123456789.123456789, 1e16, 1e-5, 1e17)]

        def per_cell(k, rp, ry, rx, L, d, eta):
            return ",".join([str(k)] + [serialize._fmt(v) for v in (
                rp, ry, rx, L, d, eta, d + eta)])

        # A Trace numbers its rows 1, 2, ...; the unused columns hold 7.0.
        trace = Trace(array("d", [v for _, rp, ry, rx, L, d, eta in cells
                                  for v in (rp, ry, rx, 7.0, L, d, eta, 7.0, 7.0, 7.0)]))
        lines = list(serialize.trace_csv_lines(SimpleNamespace(trace=trace)))
        assert lines[0] == ",".join(serialize.TRACE_COLUMNS)
        assert lines[1:] == [per_cell(i, *row[1:]) for i, row in enumerate(cells, 1)]
        assert lines[1] == "1,0.10000000000000001,1e-300,0,-0,-0,-0,-0"
        # Iteration numbers past 2^31 and 2^53 format as str(k) does.
        for row in cells[2:]:
            assert serialize._TRACE_ROW % (*row, row[5] + row[6]) == per_cell(*row)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "not_a_trace.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ConfigurationError):
            read_trace_csv(path)


class TestCertificateJson:
    """The certificate writer gives the bytes of json.dumps(..., indent=1)."""

    @staticmethod
    def _reference(checks):
        return json.dumps(checks_to_doc(checks), indent=1) + "\n"

    @pytest.mark.parametrize("checks", [
        [],
        [CheckResult("descent-x", float("nan"), 1e-10, 3)],
        [CheckResult("merit-nonneg", float("inf"), 1e-10, 0),
         CheckResult("merit-nonneg", float("-inf"), float("inf"), 1)],
        [CheckResult("rate-x@7", -0.0, 1.0000000150000001e-08),
         CheckResult("rate-dual@7", 1e300, 5e-324)],
        [CheckResult("Schranke \u2264 \u00e9t\u00e9 \"q\"\\", 0.25, 1e-9, 12),
         CheckResult("descent-y", -3.5e-17, 2.0, 2 ** 40)],
    ], ids=["empty", "nan-slack", "infinite-slack", "whole-run", "non-ascii-name"])
    def test_bytes_equal_json_dumps(self, tmp_path, checks):
        path = tmp_path / "certificate.json"
        write_certificate(checks, path)
        assert path.read_text() == self._reference(checks)

    def test_bytes_equal_json_dumps_for_a_run(self, tmp_path):
        inst = generate_instance("l0-ls", 3, 4, 4, seed=5, params={"ortho_a": True})
        res = run(inst, auto_config(inst, 1.4, rho=1e-300, max_iters=30),
                  default_start(inst))
        path = tmp_path / "certificate.json"
        write_certificate(res.checks, path)
        assert path.read_text() == self._reference(res.checks)
        assert len(json.loads(path.read_text())) == len(res.checks) > 400

    def test_bytes_equal_json_dumps_for_a_run_driven_to_non_finite_values(
            self, tmp_path, monkeypatch):
        # A prox that leaves the box puts f(x+) = inf into the step: the
        # descent and merit rows get infinite and NaN slacks and tolerances.
        inst = generate_instance("box-cos", 3, 6, 6, seed=4, params={"ortho_a": True})
        cfg = auto_config(inst, 1.5, g_kind="linearized", rho=1e-300, max_iters=20)
        monkeypatch.setattr(inst.f, "scaled_prox", lambda center, weight: center + 10.0)
        res = run(inst, cfg, default_start(inst))
        assert res.outcome == "error" and "non-finite" in res.message
        cells = np.concatenate([res.checks.slack, res.checks.tolerance])
        assert np.isnan(cells).any() and np.isinf(cells).any()
        path = tmp_path / "certificate.json"
        write_certificate(res.checks, path)
        assert path.read_text() == json.dumps(checks_to_doc(list(res.checks)),
                                              indent=1) + "\n"

    def test_entries_span_several_chunks(self, tmp_path, monkeypatch):
        # Chunks of 14 entries: the separators between chunks, and a last
        # chunk that is not full, give the bytes json.dumps gives.
        monkeypatch.setattr(serialize, "_CHUNK", 14)
        inst = generate_instance("l0-ls", 3, 4, 4, seed=5, params={"ortho_a": True})
        res = run(inst, auto_config(inst, 1.4, rho=1e-300, max_iters=5),
                  default_start(inst))
        assert len(res.checks) % 14 not in (0, 1)
        path = tmp_path / "certificate.json"
        write_certificate(res.checks, path)
        assert path.read_text() == self._reference(res.checks)
