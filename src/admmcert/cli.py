"""Command-line interface: run, sweep, gen, certify."""

from __future__ import annotations

import argparse
import json
import sys

from .bench import EXIT_CONFIG_ERROR, certify_trace, run_config, theta_sweep
from .generators import FAMILIES, generate_instance
from .serialize import instance_to_doc, write_text


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
    p_sweep.add_argument("--workers", type=int, default=None,
                         help="parallel runs (default: ADMMCERT_WORKERS or 1)")

    p_gen = sub.add_parser("gen", help="generate a seeded instance JSON")
    p_gen.add_argument("family", choices=FAMILIES)
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
    if args.command == "run":
        return run_config(args.config)
    if args.command == "sweep":
        return theta_sweep(args.config, args.theta, out_path=args.out,
                           workers=args.workers)
    if args.command == "gen":
        try:
            params = json.loads(args.params) if args.params else None
            inst = generate_instance(args.family, args.n, args.p, args.l,
                                     args.seed, params=params)
            write_text(args.out, json.dumps(instance_to_doc(inst), indent=1) + "\n")
        except ValueError as exc:   # also bad JSON, ConfigurationError, GeneratorError
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG_ERROR
        return 0
    if args.command == "certify":
        return certify_trace(args.trace, args.config, out_path=args.out)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
