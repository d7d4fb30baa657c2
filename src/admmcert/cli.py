"""Command-line interface: run, sweep, gen, certify.

Exit-code contract (process level, exhaustive):
  0  converged and every certificate check passed (or checking was disabled)
  2  converged but at least one check failed, or a stored trace disagreed
  3  iteration cap reached before the residual target
  4  configuration, assumption, or runtime defect (divergence, inner solver)

Input errors are ValueErrors (ConfigurationError and GeneratorError among
them).  main turns one into exit 4 and one ``error:`` line; a sweep turns one
raised while preparing the instance or running a member into ``error`` rows.
Commands and sweep members run under np.errstate(all="ignore"), so an
extreme but finite input prints no warning before its ``error:`` line.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

import numpy as np

from .certify import Checks, summarize
from .errors import ConfigurationError
from .generators import PARAMS, generate_instance
from .problem import ProblemInstance, validate_assumptions
from .serialize import (_TRACE_ROW, TRACE_COLUMNS, _fmt, final_residuals,
                        instance_from_doc, instance_to_doc, load_config,
                        read_trace_csv, resolve_start, solver_config_from_doc,
                        trace_csv_lines, write_certificate, write_report,
                        write_text, write_trace_csv)
from .solver import RunResult, run

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_ITERATION_CAP = 3
EXIT_CONFIG_ERROR = 4

SWEEP_COLUMNS = ("theta", "beta", "outcome", "iterations",
                 "res_primal", "res_dual_y", "res_dual_x",
                 "delta1", "delta2", "eta0",
                 "checks_passed", "checks_failed", "error")


def prepare_instance(doc: dict) -> ProblemInstance:
    """Resolve the instance section; validate its assumptions at fixed settings."""
    inst = instance_from_doc(doc["instance"])
    checks = validate_assumptions(inst)
    if not all(c.passed for c in checks):
        raise ConfigurationError("instance fails assumption validation: " + "; ".join(
            f"{c.name}={'pass' if c.passed else 'FAIL'}" for c in checks))
    return inst


def execute_config(doc: dict, inst: ProblemInstance) -> RunResult:
    """Config and start resolution and one run on inst = prepare_instance(doc).

    A sweep prepares the instance once and passes it to every member, so B is
    factored once per sweep.
    """
    config = solver_config_from_doc(doc["solver"])
    start = resolve_start(doc.get("start"), inst)
    return run(inst, config, start)


def _exit_code(result) -> int:
    if result.outcome == "converged":
        if result.checks is not None and not result.checks.passed.all():
            return EXIT_CHECK_FAILED
        return EXIT_OK
    if result.outcome == "iteration-cap":
        return EXIT_ITERATION_CAP
    return EXIT_CONFIG_ERROR


def run_config(path) -> int:
    """Execute one config file, write its artifacts, map to an exit code."""
    doc = load_config(path)
    result = execute_config(doc, prepare_instance(doc))
    base = Path(path).resolve().parent
    outputs = {"trace": "trace.csv", "certificate": "certificate.json",
               "report": "report.json", **doc.get("outputs", {})}
    write_trace_csv(result, base / outputs["trace"])
    if result.checks is not None:
        write_certificate(result.checks, base / outputs["certificate"])
    write_report(result, base / outputs["report"])
    if result.outcome == "error":
        print(f"error: {result.message}", file=sys.stderr)
    return _exit_code(result)


def _sweep_member(payload) -> dict:
    doc, inst, theta = payload
    solver = dict(doc["solver"])
    solver["theta"] = theta
    solver["beta"] = "auto"   # the admissible penalty depends on theta
    try:
        with np.errstate(all="ignore"):   # also in a worker process
            result = execute_config(dict(doc, solver=solver), inst)
    except ValueError as exc:
        return _error_row(theta, str(exc))
    final = final_residuals(result) or dict.fromkeys(("primal", "dual_y", "dual_x"), "")
    summary = summarize(result.checks or Checks.from_rows([]))
    return dict(
        theta=theta, beta=result.constants.beta, outcome=result.outcome,
        iterations=len(result.trace), res_primal=final["primal"],
        res_dual_y=final["dual_y"], res_dual_x=final["dual_x"],
        delta1=result.constants.delta1, delta2=result.constants.delta2,
        eta0=result.constants.eta0,
        checks_passed=summary["passed"], checks_failed=summary["failed"],
        error=result.message)


def _error_row(theta: float, message: str) -> dict:
    row = {name: "" for name in SWEEP_COLUMNS}
    row.update(theta=theta, outcome="error", error=message)
    return row


def theta_sweep(path, thetas, out_path=None, workers: int = 1) -> int:
    """Run the config once per stepsize with a per-theta admissible penalty.

    The instance is resolved, validated and factored once; each member only
    re-derives the penalty and the constants for its theta.  Per-run failures
    are recorded in their row and the sweep continues; a failed preparation
    gives every row its error.  Rows are emitted sorted by theta.  Up to
    workers members run at once in worker processes; 1 runs them here.
    """
    if workers < 1:
        raise ConfigurationError(f"--workers must be a positive integer, got {workers}")
    doc = load_config(path)
    for theta in thetas:
        if not 0.0 < theta < 2.0:
            raise ConfigurationError(f"sweep theta {theta} outside (0, 2)")

    thetas = [float(t) for t in sorted(thetas)]
    try:
        inst = prepare_instance(doc)
    except ValueError as exc:
        rows = [_error_row(theta, str(exc)) for theta in thetas]
    else:
        inst.spectral   # factor B here, so workers receive the factorization
        payloads = [(doc, inst, theta) for theta in thetas]
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(_sweep_member, payloads))
        else:
            rows = [_sweep_member(p) for p in payloads]

    if out_path is None:
        out_path = Path(path).resolve().parent / "sweep.csv"
    # csv quotes a cell only when it holds a comma, quote or line break (an
    # error message can), so plain rows read exactly as comma-joined cells.
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for row in rows:
        cells = (row[name] for name in SWEEP_COLUMNS)
        writer.writerow([_fmt(v) if isinstance(v, float) else str(v) for v in cells])
    write_text(out_path, text.getvalue())
    bad = [r for r in rows if r["outcome"] != "converged" or r["checks_failed"]]
    return EXIT_OK if not bad else EXIT_CHECK_FAILED


def certify_trace(trace_path, config_path, out_path=None) -> int:
    """Re-run a config deterministically and certify a stored trace against it.

    The stored rows must match the recomputed ones exactly (a trace reproduces
    under the same numpy/BLAS build and BLAS thread count); the full check
    suite then runs on the recomputed trace.
    """
    doc = load_config(config_path)
    stored = read_trace_csv(trace_path)
    solver = dict(doc["solver"])
    solver["certify"] = True
    doc = dict(doc, solver=solver)
    result = execute_config(doc, prepare_instance(doc))
    if out_path is not None:
        write_certificate(result.checks, out_path)

    fresh = list(trace_csv_lines(result))[1:]
    stored_lines = [_TRACE_ROW % tuple(r[c] for c in TRACE_COLUMNS) for r in stored]
    mismatch = stored_lines != fresh
    if mismatch:
        print(f"trace mismatch: stored {len(stored_lines)} rows do not "
              f"reproduce under this config", file=sys.stderr)
    failed = [c for c in result.checks if not c.passed]
    print(f"checks: {len(result.checks)} run, {len(result.checks) - len(failed)} "
          f"passed, {len(failed)} failed; trace "
          f"{'MISMATCH' if mismatch else 'reproduced'}")
    for c in failed[:20]:
        print(f"  FAIL {c.name} at k={c.iteration}: slack={c.slack:.3e} "
              f"tol={c.tolerance:.3e}")
    if mismatch or failed:
        return EXIT_CHECK_FAILED
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Usage errors print one line and take the configuration-error exit code."""
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_CONFIG_ERROR)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="admmcert",
        description="Over-relaxed proximal splitting solver with runtime "
                    "certification of its convergence guarantees.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one run config")
    p_run.add_argument("config", help="path to a run config JSON file")

    p_sweep = sub.add_parser("sweep", help="run a config over several stepsizes")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--theta", nargs="+", type=float, required=True,
                         help="stepsizes in (0, 2); the penalty is re-derived "
                              "per stepsize")
    p_sweep.add_argument("--out", default=None, help="summary CSV path")
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="parallel runs (default 1)")

    p_gen = sub.add_parser("gen", help="generate a seeded instance JSON")
    p_gen.add_argument("family", choices=PARAMS)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--p", type=int, required=True)
    p_gen.add_argument("--l", type=int, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--params", default=None,
                       help="extra generator parameters as a JSON object")

    p_cert = sub.add_parser("certify",
                            help="re-run a config and certify a stored trace")
    p_cert.add_argument("trace", help="trace CSV produced by 'run'")
    p_cert.add_argument("config", help="the config that produced it")
    p_cert.add_argument("--out", default=None, help="certificate JSON path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):
            if args.command == "run":
                return run_config(args.config)
            if args.command == "sweep":
                return theta_sweep(args.config, args.theta, out_path=args.out,
                                   workers=args.workers)
            if args.command == "gen":
                try:
                    params = json.loads(args.params) if args.params else None
                except ValueError as exc:
                    raise ValueError(f"--params is not JSON: {exc}") from exc
                inst = generate_instance(args.family, args.n, args.p, args.l,
                                         args.seed, params=params)
                write_text(args.out, json.dumps(instance_to_doc(inst), indent=1) + "\n")
                return EXIT_OK
            return certify_trace(args.trace, args.config, out_path=args.out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
