"""admmcert benchmark: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the script locates ``src/admmcert``
next to its own directory and refuses to run without it).  It writes the
workload's config, generated from ``--seed``, under ``perfbench/out/NAME``,
then calls ``admmcert.cli.main`` on it repeatedly, in this one process, for
``--seconds`` seconds, checking every execution's outcome.

End-to-end metrics are medians over those executions: ``wall_s`` and
``cpu_s`` of one ``cli.main`` call, the process's ``peak_rss_mb``, and
``setup_s``, the time from interpreter start to the first timed call
(imports and the config), measured in five fresh interpreters.

With ``--trace 0`` the result line carries the end-to-end metrics; with
``--trace 1`` the same untraced executions run first (a third of the time)
and traced executions follow, and the result line carries the per-layer
metrics.  Either way a table of every metric measured, with units and sample
counts, and the environment block are printed before the result line, which
is the last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``failed`` counts executions whose outcome differs from the expected one
(``failed_share`` = failed / attempted).  Spans of the traced executions go
to ``perfbench/out/NAME/spans.csv``.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are pinned before anything can import numpy, so timings do not
# depend on the size of the BLAS thread pool.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PINNED_BEFORE_NUMPY = "numpy" not in sys.modules
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from tracing import PER_LAYER_UNITS, Tracer, layer_metrics, write_spans  # noqa: E402
from workloads import (WORKLOADS, artifact_digest, check_outcome,  # noqa: E402
                       clear_artifacts, cli_argv, write_config)

SETUP_PROBES = 5
TRACED_SHARE = 2 / 3        # of --seconds, in a traced run
MIN_EXECUTIONS = 3          # floor of an untraced run, whatever --seconds says
MIN_TRACE_PHASE = 2         # floor of each phase of a traced run
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test variant: small instances, one set-up probe")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def monotonic() -> float:
    # CLOCK_MONOTONIC is system wide, so a set-up probe's reading can be
    # compared with its parent's.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_program():
    """Import admmcert from this checkout's src/, and nothing else."""
    if not (SRC / "admmcert" / "cli.py").is_file():
        sys.exit(f"perfbench: {SRC / 'admmcert'} not found; run the benchmark "
                 f"from a source checkout of admmcert")
    sys.path.insert(0, str(SRC))
    import admmcert.cli
    if Path(admmcert.cli.__file__).resolve().parent != SRC / "admmcert":
        sys.exit(f"perfbench: imported admmcert from {admmcert.cli.__file__}, "
                 f"not from {SRC}")
    return admmcert.cli


def set_up(args):
    """Everything before the first timed call: imports and the config."""
    cli = import_program()
    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = workload.tiny()
    workdir = OUT / (args.workload + ("-tiny" if args.tiny else "")
                     + ("-probe" if args.setup_probe else ""))
    return cli, workload, write_config(workload, args.seed, workdir)


def probe_setup(args, count: int) -> list[float]:
    """Set-up time of fresh interpreters, from spawn to ready for the first call."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
            args.workload, "--seed", str(args.seed), "--seconds", "0",
            "--trace", "0", "--setup-probe"] + (["--tiny"] if args.tiny else [])
    samples = []
    for _ in range(count):
        start = monotonic()
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True, cwd=ROOT)
        samples.append(float(proc.stdout.split()[-1]) - start)
    return samples


def execute(cli, workload, config):
    """One timed cli.main call and its outcome check."""
    workdir = config.parent
    clear_artifacts(workdir)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        w0, c0 = time.perf_counter(), time.process_time()
        code = cli.main(cli_argv(workload, config))
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    problems, facts = check_outcome(workload, code, err.getvalue(), workdir)
    return {"wall_s": wall, "cpu_s": cpu, "problems": problems,
            "digest": artifact_digest(workload, workdir), **facts}


def run_phase(cli, workload, config, seconds, minimum, tracer=None):
    """Execute until the time is up (the last one must fit), at least `minimum` times."""
    done = []
    start = time.perf_counter()
    while True:
        if len(done) >= minimum:
            typical = statistics.median(e["wall_s"] for e in done)
            if time.perf_counter() - start + typical > seconds:
                return done
        record = execute(cli, workload, config)
        if tracer is not None:
            record["spans"] = tracer.take()
        done.append(record)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads() -> dict:
    """Thread counts reported by every OpenBLAS loaded in this process."""
    import ctypes
    found = {}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "scipy_openblas_get_num_threads64_"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def environment() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401 - loads scipy's BLAS for blas_threads()
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    threads = blas_threads()
    model = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        model = next((line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")), model)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "blas_threads_reported": threads,
        "blas_threads_pinned": PINNED_BEFORE_NUMPY
        and all(n == 1 for n in threads.values()),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
    }


def median_metric(values, unit):
    return {"value": statistics.median(values), "unit": unit, "samples": len(values)}


def main(argv=None) -> int:
    args = parse_args(argv)
    cli, workload, config = set_up(args)
    if args.setup_probe:
        print(monotonic(), flush=True)
        return 0
    probes = probe_setup(args, 1 if args.tiny else SETUP_PROBES)

    traced_s = args.seconds * TRACED_SHARE if args.trace else 0.0
    minimum = MIN_TRACE_PHASE if args.trace else MIN_EXECUTIONS
    plain = run_phase(cli, workload, config, args.seconds - traced_s, minimum)
    end_to_end = {
        "wall_s": median_metric([e["wall_s"] for e in plain], "s"),
        "cpu_s": median_metric([e["cpu_s"] for e in plain], "s"),
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB", "samples": 1},
        "setup_s": median_metric(probes, "s"),
    }
    executions = list(plain)

    per_layer = {}
    missing = []
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_phase(cli, workload, config, traced_s, minimum, tracer)
        finally:
            tracer.uninstall()
        missing = tracer.missing()
        executions += traced
        rows = [layer_metrics(e["spans"], tracer.smooth_classes, e["checks"])
                for e in traced]
        for name, unit in PER_LAYER_UNITS.items():
            if name != "trace.overhead_s":
                per_layer[name] = median_metric([row[name] for row in rows], unit)
        traced_wall = median_metric([e["wall_s"] for e in traced], "s")
        per_layer["trace.overhead_s"] = dict(
            traced_wall, value=traced_wall["value"] - end_to_end["wall_s"]["value"])
        write_spans(config.parent / "spans.csv", [e["spans"] for e in traced])

    failures = [e["problems"] for e in executions if e["problems"]]
    digests = {e["digest"] for e in executions}
    failed = sum(1 for e in executions
                 if e["problems"] or e["digest"] != executions[0]["digest"])
    env = environment()
    print_table(args, end_to_end, per_layer, failed, len(executions))
    if failures:
        print(f"# first failure: {failures[0]}")
    if len(digests) > 1:
        print(f"# artifacts differ between executions: {len(digests)} variants")
    if missing:
        print(f"# functions not found in the program: {', '.join(missing)}")
    if not env["blas_threads_pinned"]:
        print("# WARNING: BLAS threads could not be pinned to 1", file=sys.stderr)
    print(json.dumps({"environment": env}))
    (config.parent / "result.json").write_text(json.dumps(
        {"environment": env, "end_to_end": end_to_end, "per_layer": per_layer,
         "attempted": len(executions), "failed": failed,
         "executions": [{k: e[k] for k in ("wall_s", "cpu_s", "problems")}
                        for e in executions]}, indent=1) + "\n")
    metrics = per_layer if args.trace else end_to_end
    print(json.dumps({
        "correct": failed == 0, "attempted": len(executions), "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()}}))
    return 0


def print_table(args, end_to_end, per_layer, failed, attempted) -> None:
    print(f"# workload {args.workload} seed {args.seed} "
          f"trace {args.trace}{' tiny' if args.tiny else ''}")
    rows = dict(end_to_end)
    rows["failed_share"] = {"value": failed / attempted, "unit": "ratio",
                            "samples": attempted}
    rows.update(per_layer)
    for name, m in rows.items():
        print(f"{name:34s} {m['value']:>14.6g} {m['unit']:6s} n={m['samples']}")


if __name__ == "__main__":
    sys.exit(main())
