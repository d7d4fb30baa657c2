"""JSON and CSV interchange for instances, run configs, traces and reports.

Matrices are nested row-major arrays.  CSV cells carry 17 significant digits
so traces round-trip exactly; JSON floats use Python's shortest round-trip
representation.  The trace column order is part of the interface:

    k,res_primal,res_dual_y,res_dual_x,L_beta,delta_k,eta_k,merit
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from .certify import Checks, summarize
from .errors import ConfigurationError
from .generators import generate_instance
from .linalg import (as_bool, as_float, as_int, as_matrix, as_object, as_vector,
                     build, read_object)
from .oracles import (BoxIndicator, ConvexQuadratic, CosineQuadratic, L0Penalty,
                      QuadraticSmooth, SphereIndicator)
from .params import min_admissible_beta
from .problem import ProblemInstance
from .solver import ExplicitG, LinearizedG, RunResult, SolverConfig, ZeroG

TRACE_COLUMNS = ("k", "res_primal", "res_dual_y", "res_dual_x",
                 "L_beta", "delta_k", "eta_k", "merit")

# Residual budget for the consistent-multiplier start policy.
CONSISTENT_TOL = 1e-8


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@contextmanager
def _section(name: str):
    """Report a malformed config section as a ConfigurationError naming it:
    where a section is read, a ValueError, TypeError, KeyError (a missing key),
    AttributeError or OverflowError means the document is wrong."""
    try:
        yield
    except ConfigurationError:
        raise
    except (ValueError, TypeError, KeyError, AttributeError, OverflowError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ConfigurationError(f"malformed {name}: {detail}") from exc


def _or_null(kind):   # kind, but a JSON null reads as None
    return lambda value, key: None if value is None else kind(value, key)


def _tagged(doc, name: str, tag: str, variants: dict):
    """A tagged object: variants maps each tag value to (receiver, other kinds)."""
    label = as_object(doc, name).get(tag)
    if not isinstance(label, str) or label not in variants:
        raise ConfigurationError(f"unknown {name} {tag} {label!r}")
    receiver, kinds = variants[label]
    members = read_object({k: v for k, v in doc.items() if k != tag}, name, kinds)
    return build(receiver, name, members)


def _string(value, key: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{key} must be a string, got {type(value).__name__}")
    return value


# Each config section's keys and their kinds, and those of each tagged object.
_CONFIG = {"instance": as_object, "solver": as_object,
           "start": _or_null(as_object), "validation": as_object,
           "outputs": lambda value, key: read_object(value, key, _OUTPUTS)}
_OUTPUTS = dict.fromkeys(("trace", "certificate", "report"), _string)
_SOLVER = {"theta": as_float, "beta_margin": as_float, "tau": as_float,
           "beta": lambda value, key: value if value == "auto" else as_float(value, key),
           "G": lambda value, key: g_spec_from_doc(value), "rho": as_float,
           "max_iters": as_int, "certify": as_bool, "inner_tol": as_float}
_METRICS = {"zero": (ZeroG, {}),
            "explicit": (ExplicitG, {"matrix": lambda value, key: as_matrix(value, "G")}),
            "linearized": (LinearizedG, {"alpha": as_float})}
_START = dict.fromkeys(("policy", "x0", "y0", "lambda0"))
_VALIDATION = {"samples": as_int, "tol": as_float, "seed": as_int}
_GENERATED = {"generator": lambda value, key: read_object(value, key, _GENERATOR)}
_GENERATOR = {"family": _string, "n": as_int, "p": as_int, "l": as_int,
              "seed": as_int, "params": None}
_INSTANCE = {"A": None, "B": None, "b": None,
             "f": lambda value, key: _tagged(value, key, "family", _NONSMOOTH),
             "g": lambda value, key: _tagged(value, key, "family", _SMOOTH),
             "beta_bar": as_float, "objective_floor": as_float}
_NONSMOOTH = {"quadratic": (ConvexQuadratic, {"P": None, "q": None}),
              "box": (BoxIndicator, {"lo": None, "hi": None}),
              "l0": (L0Penalty, {"mu": as_float, "dim": as_int}),
              "sphere": (SphereIndicator, {"dim": as_int})}
_SMOOTH = {"quadratic": (QuadraticSmooth, {"Q": None, "c": None,
                                           "lipschitz": _or_null(as_float),
                                           "weak_convexity": _or_null(as_float)}),
           "cosine-quadratic": (CosineQuadratic, {"a": as_float, "dim": as_int})}


# ---------------------------------------------------------------------------
# instances

def _to_doc(value):   # an array as nested lists, an oracle as its object
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value if isinstance(value, (int, float, type(None))) else oracle_to_doc(value)


def oracle_to_doc(oracle) -> dict:   # keyed by the first family table naming its class
    for family, (cls, kinds) in [*_NONSMOOTH.items(), *_SMOOTH.items()]:
        if isinstance(oracle, cls):
            return {"family": family, **{key: _to_doc(getattr(oracle, key)) for key in kinds}}
    raise ConfigurationError(f"cannot serialize oracle of type {type(oracle).__name__}")


def instance_to_doc(inst: ProblemInstance) -> dict:
    return {key: _to_doc(getattr(inst, key)) for key in _INSTANCE}


@_section("instance")
def instance_from_doc(doc: dict) -> ProblemInstance:
    """An inline instance document, or a {"generator": {...}} spec."""
    if "generator" in doc:
        spec = read_object(doc, "instance", _GENERATED)["generator"]
        return build(generate_instance, "generator", spec)
    return build(ProblemInstance, "instance", read_object(doc, "instance", _INSTANCE))


# ---------------------------------------------------------------------------
# solver config and start

def g_spec_from_doc(doc) -> object:
    """A proximal-metric spec; null means G = 0."""
    return ZeroG() if doc is None else _tagged(doc, "G", "kind", _METRICS)


@_section("solver config")
def solver_config_from_doc(doc: dict, inst: ProblemInstance) -> SolverConfig:
    """Build a SolverConfig; beta may be the string "auto", the default."""
    members = read_object(doc, "solver", _SOLVER)
    margin = {"margin": members.pop("beta_margin")} if "beta_margin" in members else {}
    config = build(SolverConfig, "solver", {"beta": "auto", **members})
    if config.beta == "auto":
        return replace(config, beta=min_admissible_beta(
            config.theta, config.tau, inst.g.weak_convexity, inst.g.lipschitz,
            inst.spectral.sigma_min, inst.spectral.sigma_plus,
            beta_bar=inst.beta_bar, **margin))
    if margin:
        raise ValueError(f"beta_margin applies to beta 'auto' only, got beta {config.beta}")
    return config


@_section("start")
def resolve_start(doc: dict | None, inst: ProblemInstance):
    """Explicit (x0, y0, lambda0) or a named policy.

    "zeros" starts every block at the origin, but x0 at the prox of f there
    when the origin lies outside dom f.  "consistent-multiplier" starts the
    primal blocks at zero and picks, from the one factorization of B, the
    minimum-norm least-squares multiplier reproducing the smooth gradient;
    when the residual of that fit exceeds the budget, consistency is out of
    reach and the policy raises.
    """
    n, p, l = inst.dims
    doc = read_object({} if doc is None else doc, "start", _START)
    if doc.keys() - {"policy"}:   # explicit: all three vectors
        if "policy" in doc:
            raise ValueError("policy cannot be given with x0, y0 or lambda0")
        return (as_vector(doc["x0"], n, "x0"), as_vector(doc["y0"], p, "y0"),
                as_vector(doc["lambda0"], l, "lambda0"))
    policy = doc.get("policy", "zeros")
    if policy == "zeros":
        x0 = np.zeros(n)
        if inst.f.value(x0) == math.inf:
            x0 = inst.f.scaled_prox(x0, 1.0)
        return x0, np.zeros(p), np.zeros(l)
    if policy == "consistent-multiplier":
        y0 = np.zeros(p)
        grad = inst.g.gradient(y0)
        spec = inst.spectral   # B^T = right diag(values) left^T
        lam0 = spec.left @ ((spec.right.T @ grad) / spec.values)
        resid = float(np.linalg.norm(inst.B.T @ lam0 - grad))
        if resid > CONSISTENT_TOL * max(1.0, float(np.linalg.norm(grad))):
            raise ConfigurationError(
                f"consistent-multiplier start is unavailable: the smooth "
                f"gradient at the origin leaves residual {resid:.3e} outside "
                f"the row space of B; use tau > 0 with another policy")
        return np.zeros(n), y0, lam0
    raise ConfigurationError(f"unknown start policy {policy!r}")


# ---------------------------------------------------------------------------
# run artifacts

def trace_csv_lines(result: RunResult):
    yield ",".join(TRACE_COLUMNS)
    for rec in result.trace:
        yield ",".join([str(rec.k)] + [_fmt(v) for v in (
            rec.res_primal, rec.res_dual_y, rec.res_dual_x,
            rec.L_beta, rec.delta, rec.eta, rec.merit)])


def write_text(path, text) -> None:
    """Write an artifact, a str or its str pieces in order; a path that cannot
    be written is a ConfigurationError."""
    try:
        with open(path, "w") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc.strerror or exc}") from exc


def write_trace_csv(result: RunResult, path) -> None:
    write_text(path, "\n".join(trace_csv_lines(result)) + "\n")


def read_trace_csv(path) -> list[dict]:
    try:
        lines = Path(path).read_text().strip().splitlines()
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read trace {path}: {exc}") from exc
    if not lines or lines[0].split(",") != list(TRACE_COLUMNS):
        raise ConfigurationError(f"{path} is not a trace file (bad header)")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        try:
            if len(cells) != len(TRACE_COLUMNS):
                raise ValueError(f"{len(cells)} cells, expected {len(TRACE_COLUMNS)}")
            rows.append(dict(zip(TRACE_COLUMNS, [int(cells[0])]
                                 + [float(cell) for cell in cells[1:]])))
        except ValueError as exc:
            raise ConfigurationError(f"{path} line {number}: {exc}") from exc
    return rows


def checks_to_doc(checks) -> list[dict]:
    return [{"name": c.name, "iteration": c.iteration, "slack": c.slack,
             "tolerance": c.tolerance, "pass": c.passed} for c in checks]


# One certificate entry, laid out as json.dumps(checks_to_doc(...), indent=1)
# lays out each object; the writer fills _CHUNK of them at once.
_CHECK_ENTRY = (' {\n  "name": %s,\n  "iteration": %s,\n  "slack": %s,\n'
                '  "tolerance": %s,\n  "pass": %s\n }')
_CHUNK = 14 * 256


def _json_floats(values: np.ndarray) -> np.ndarray:
    """json.dumps of each float, formatted once per distinct bit pattern: a
    run repeats most tolerances."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    return np.array([float.__repr__(x) if math.isfinite(x) else json.dumps(x)
                     for x in bits.view(float).tolist()], dtype=object)[inverse]


def write_certificate(checks, path) -> None:
    """Write the checks (a Checks, or CheckResult rows) as
    json.dumps(checks_to_doc(checks), indent=1) would, from the columns, in
    chunks of _CHUNK entries that one % call each fills in: the json module's
    pure-Python indenting encoder builds millions of pieces for a long run."""
    if not isinstance(checks, Checks):
        checks = Checks.from_rows(checks)
    names = np.array([json.dumps(name) for name in checks.names], dtype=object)
    cells = np.stack([names[checks.name],
                      np.where(checks.iteration < 0, "null", checks.iteration.astype(object)),
                      _json_floats(checks.slack), _json_floats(checks.tolerance),
                      np.where(checks.passed, "true", "false")], axis=1)

    def chunks():
        for lo in range(0, len(cells), _CHUNK):
            part = cells[lo:lo + _CHUNK]
            yield (",\n" if lo else "[\n") + ",\n".join(
                [_CHECK_ENTRY] * len(part)) % tuple(part.ravel().tolist())
        yield "\n]\n" if len(cells) else "[]\n"
    write_text(path, chunks())


def report_doc(result: RunResult) -> dict:
    final = result.final
    doc = {
        "outcome": result.outcome,
        "iterations": result.iterations,
        "converged_at": result.converged_at,
        "message": result.message,
        "final_residuals": None if final is None else {
            "primal": final.res_primal,
            "dual_y": final.res_dual_y,
            "dual_x": final.res_dual_x,
        },
        "constants": dict(result.constants.as_dict(), delta0=result.delta0),
        "certificate": None if result.checks is None else summarize(result.checks),
        "wall_time_s": result.wall_time,
    }
    return doc


def write_report(result: RunResult, path) -> None:
    write_text(path, json.dumps(report_doc(result), indent=1) + "\n")


@_section("validation")
def validation_options(doc: dict) -> dict:
    """Keyword arguments of validate_assumptions from a config's 'validation'."""
    options = read_object(doc.get("validation", {}), "validation", _VALIDATION)
    if "seed" in options and options["seed"] < 0:
        raise ValueError(f"seed must be >= 0, got {options['seed']}")
    if "tol" in options and not math.isfinite(options["tol"]):
        raise ValueError(f"tol must be finite, got {options['tol']}")
    return options


def load_config(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:   # ValueError: bad JSON or encoding
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict) or "instance" not in doc or "solver" not in doc:
        raise ConfigurationError(
            f"config {path} must be an object with 'instance' and 'solver'")
    with _section("config"):
        read_object(doc, "config", _CONFIG)
    return doc
