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
from pathlib import Path

import numpy as np

from .certify import summarize
from .errors import ConfigurationError
from .generators import generate_instance
from .linalg import as_matrix, as_vector
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
    """Report a malformed config section as a ConfigurationError naming it.

    Decorates the function that parses the section.  Parsing a document
    value (a float, an int, an array of the right length) raises ValueError,
    TypeError, KeyError, AttributeError or, for a float from a huge int,
    OverflowError; at this boundary they all mean the document is wrong, not
    the program.
    """
    try:
        yield
    except ConfigurationError:
        raise
    except (ValueError, TypeError, KeyError, AttributeError, OverflowError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ConfigurationError(f"malformed {name}: {detail}") from exc


def _spec(value, key: str) -> dict:
    """A nested spec of a config document, which must be an object."""
    if not isinstance(value, dict):
        raise ValueError(f"{key} must be an object, got {type(value).__name__}")
    return value


def _int(value, key: str) -> int:
    """A count or seed of a config document: an int or an integral float."""
    try:
        if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
            raise ValueError(value)
        return int(value)
    except (ValueError, OverflowError, TypeError) as exc:
        raise ValueError(f"{key} must be an integer, got {value!r}") from exc


# ---------------------------------------------------------------------------
# instances

def oracle_to_doc(oracle) -> dict:
    if isinstance(oracle, ConvexQuadratic):
        return {"family": "quadratic", "P": oracle.P.tolist(), "q": oracle.q.tolist()}
    if isinstance(oracle, BoxIndicator):
        return {"family": "box", "lo": oracle.lower.tolist(), "hi": oracle.upper.tolist()}
    if isinstance(oracle, L0Penalty):
        return {"family": "l0", "mu": oracle.mu, "dim": oracle.dim}
    if isinstance(oracle, SphereIndicator):
        return {"family": "sphere", "dim": oracle.dim}
    if isinstance(oracle, QuadraticSmooth):
        return {"family": "quadratic", "Q": oracle.Q.tolist(), "c": oracle.c.tolist(),
                "lipschitz": oracle.lipschitz, "weak_convexity": oracle.weak_convexity}
    if isinstance(oracle, CosineQuadratic):
        return {"family": "cosine-quadratic", "a": oracle.a, "dim": oracle.dim}
    raise ConfigurationError(f"cannot serialize oracle of type {type(oracle).__name__}")


def f_from_doc(doc: dict):
    family = _spec(doc, "f").get("family")
    if family == "quadratic":
        return ConvexQuadratic(doc["P"], doc["q"])
    if family == "box":
        return BoxIndicator(doc["lo"], doc["hi"])
    if family == "l0":
        return L0Penalty(doc["mu"], doc["dim"])
    if family == "sphere":
        return SphereIndicator(doc["dim"])
    raise ConfigurationError(f"unknown nonsmooth family {family!r}")


def g_from_doc(doc: dict):
    family = _spec(doc, "g").get("family")
    if family == "quadratic":
        return QuadraticSmooth(doc["Q"], doc["c"],
                               lipschitz=doc.get("lipschitz"),
                               weak_convexity=doc.get("weak_convexity"))
    if family == "cosine-quadratic":
        return CosineQuadratic(doc["a"], doc["dim"])
    raise ConfigurationError(f"unknown smooth family {family!r}")


def instance_to_doc(inst: ProblemInstance) -> dict:
    return {
        "A": inst.A.tolist(),
        "B": inst.B.tolist(),
        "b": inst.b.tolist(),
        "f": oracle_to_doc(inst.f),
        "g": oracle_to_doc(inst.g),
        "beta_bar": inst.beta_bar,
        "objective_floor": inst.objective_floor,
    }


def instance_from_doc(doc: dict) -> ProblemInstance:
    for key in ("A", "B", "b", "f", "g"):
        if key not in doc:
            raise ConfigurationError(f"instance document is missing {key!r}")
    return ProblemInstance(
        A=np.asarray(doc["A"], dtype=float),
        B=np.asarray(doc["B"], dtype=float),
        b=np.asarray(doc["b"], dtype=float),
        f=f_from_doc(doc["f"]),
        g=g_from_doc(doc["g"]),
        beta_bar=float(doc.get("beta_bar", 0.0)),
        objective_floor=float(doc.get("objective_floor", 0.0)))


@_section("instance")
def resolve_instance(doc: dict) -> ProblemInstance:
    """Inline instance document, or {"generator": {...}} spec."""
    if "generator" in doc:
        gen = _spec(doc["generator"], "generator")
        counts = (_int(gen[key], key) for key in ("n", "p", "l", "seed"))
        return generate_instance(gen["family"], *counts, params=gen.get("params"))
    return instance_from_doc(doc)


# ---------------------------------------------------------------------------
# solver config and start

def g_spec_from_doc(doc) -> object:
    if doc is None:
        return ZeroG()
    kind = _spec(doc, "G").get("kind")
    if kind == "zero":
        return ZeroG()
    if kind == "explicit":
        return ExplicitG(as_matrix(doc["matrix"], "G"))
    if kind == "linearized":
        return LinearizedG(float(doc["alpha"]))
    raise ConfigurationError(f"unknown G kind {kind!r}")


@_section("solver config")
def solver_config_from_doc(doc: dict, inst: ProblemInstance) -> SolverConfig:
    """Build a SolverConfig; beta may be the string "auto"."""
    theta = float(doc["theta"])
    tau = float(doc.get("tau", 0.0))
    beta = doc.get("beta", "auto")
    certify = doc.get("certify", True)
    if not isinstance(certify, bool):
        raise ValueError(f"certify must be true or false, got {certify!r}")
    if beta == "auto":
        spec = inst.spectral
        beta = min_admissible_beta(theta, tau, inst.g.weak_convexity,
                                   inst.g.lipschitz, spec.sigma_min,
                                   spec.sigma_plus, beta_bar=inst.beta_bar,
                                   margin=float(doc.get("beta_margin", 1.1)))
    return SolverConfig(
        theta=theta, beta=float(beta), tau=tau,
        G=g_spec_from_doc(doc.get("G")),
        rho=float(doc.get("rho", 1e-6)),
        max_iters=_int(doc.get("max_iters", 1000), "max_iters"),
        certify=certify,
        inner_tol=float(doc.get("inner_tol", 1e-12)))


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
    doc = doc or {"policy": "zeros"}
    if "x0" in doc or "y0" in doc or "lambda0" in doc:
        if not all(key in doc for key in ("x0", "y0", "lambda0")):
            raise ConfigurationError("explicit start needs all of x0, y0, lambda0")
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


def write_text(path, text: str) -> None:
    """Write an artifact; a path that cannot be written is a ConfigurationError."""
    try:
        Path(path).write_text(text)
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
# lays out each object.
_CHECK_ENTRY = (' {{\n  "name": {},\n  "iteration": {},\n  "slack": {},\n'
                '  "tolerance": {},\n  "pass": {}\n }}')


def _json_float(x: float) -> str:
    """A float as the json module writes it."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def write_certificate(checks, path) -> None:
    """Write the checks as json.dumps(checks_to_doc(checks), indent=1) would.

    Each entry is filled into a fixed template: the json module's pure-Python
    indenting encoder builds millions of string pieces for a long run.
    """
    names = {}   # few distinct names; each is encoded once
    entries = []
    for c in checks:
        name = names.get(c.name)
        if name is None:
            name = names[c.name] = json.dumps(c.name)
        entries.append(_CHECK_ENTRY.format(
            name, "null" if c.iteration is None else int.__repr__(c.iteration),
            _json_float(c.slack), _json_float(c.tolerance),
            "true" if c.passed else "false"))
    text = "[\n" + ",\n".join(entries) + "\n]\n" if entries else "[]\n"
    write_text(path, text)


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
    vdoc = doc.get("validation", {})
    samples = _int(vdoc.get("samples", 200), "samples")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    seed = _int(vdoc.get("seed", 0), "seed")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    tol = float(vdoc.get("tol", 1e-6))
    if not math.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol}")
    return {"samples": samples, "tol": tol, "seed": seed}


def load_config(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:   # ValueError: bad JSON or encoding
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict) or "instance" not in doc or "solver" not in doc:
        raise ConfigurationError(
            f"config {path} must be an object with 'instance' and 'solver'")
    for name in ("instance", "solver", "start", "validation", "outputs"):
        section = doc.get(name, {})
        if not (isinstance(section, dict) or name == "start" and section is None):
            raise ConfigurationError(f"malformed {name}: expected an object, "
                                     f"got {type(section).__name__}")
    if not all(isinstance(v, str) for v in doc.get("outputs", {}).values()):
        raise ConfigurationError("malformed outputs: every path must be a string")
    return doc
