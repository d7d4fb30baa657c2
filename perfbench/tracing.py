"""Spans recorded from outside the program, and the per-layer metrics from them.

The tracer wraps public names of the ``admmcert`` package without changing
its source:

- every public module function, replaced in every module that binds it;
- the oracle protocol methods ``value``, ``gradient``, ``hessian`` and
  ``scaled_prox`` on the oracle classes;
- ``Certifier.observe`` and ``Certifier.finalize``.

Each wrapper records a span (name, start, end, parent) in memory; spans of
one execution are written out when the benchmark ends.  A span's self time is
its duration minus the time its child spans cover (the program is single
threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time

PACKAGE = "admmcert"
ORACLE_METHODS = ("value", "gradient", "hessian", "scaled_prox")
CERTIFIER_METHODS = ("observe", "finalize")

# Functions the per-layer metrics are derived from, by short name.  A name
# missing from the program makes its metrics read 0; the benchmark reports it.
REQUIRED = ("main", "generate_instance", "validate_assumptions",
            "aug_lagrangian", "delta0", "reduced_svd", "spectral_summary",
            "eta0_seed", "run", "execute_config", "load_config",
            "solver_config_from_doc", "write_trace_csv", "write_certificate",
            "write_report", "Certifier.observe", "Certifier.finalize")
SVD_FUNCTIONS = ("reduced_svd", "spectral_summary")
WRITE_FUNCTIONS = ("write_trace_csv", "write_certificate", "write_report")
CONFIG_FUNCTIONS = ("load_config", "solver_config_from_doc")

# Per-layer metrics: name -> unit.  Each is the median over traced executions.
PER_LAYER_UNITS = {
    "generators.generate_s": "s",
    "problem.validate_s": "s",
    "problem.validate_g_value_calls": "count",
    "problem.aug_lagrangian_per_iter": "count",
    "linalg.svd_calls": "count",
    "linalg.svd_s": "s",
    "params.seed_s": "s",
    "oracles.g_value_per_iter": "count",
    "oracles.g_gradient_per_iter": "count",
    "oracles.g_hessian_per_iter": "count",
    "oracles.f_prox_per_iter": "count",
    "solver.self_ms_per_iter": "ms",
    "solver.iterations": "count",
    "solver.base_s": "s",
    "certify.observe_ms_per_iter": "ms",
    "certify.finalize_s": "s",
    "certify.checks": "count",
    "certify.cost_s": "s",
    "certify.overhead_ratio": "ratio",
    "serialize.write_s": "s",
    "serialize.bytes_written": "bytes",
    "serialize.config_s": "s",
    "bench.member_setup_s": "s",
    "bench.members": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    """Records spans of the wrapped calls; install() patches, uninstall() undoes."""

    def __init__(self):
        self.spans: list = []   # [name, start_ns, end_ns, parent, count]
        self._stack: list[int] = []
        self._restore: list = []
        self.wrapped: set[str] = set()
        self.smooth_classes: set[str] = set()   # second-block oracles

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name: str, fn, count=None):
        stack, clock = self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(args, result)
            return result

        self.wrapped.add(name.split(".", 1)[1])
        return traced

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")
                        and not inspect.isgeneratorfunction(obj)):
                    count = _written_bytes if attr in WRITE_FUNCTIONS else \
                        _iterations if attr == "run" else None
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj, count)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, obj, wrappers[obj])
        for cls, methods in self._classes():
            short = cls.__module__.rpartition(".")[2]
            if "hessian" in vars(cls):
                self.smooth_classes.add(cls.__name__)
            for meth in methods:
                fn = vars(cls).get(meth)
                if inspect.isfunction(fn):
                    self._patch(cls, meth, fn, self._wrap(
                        f"{short}.{cls.__name__}.{meth}", fn))

    @staticmethod
    def _classes():
        oracles = sys.modules[PACKAGE + ".oracles"]
        for obj in vars(oracles).values():
            if inspect.isclass(obj) and obj.__module__ == oracles.__name__:
                yield obj, ORACLE_METHODS
        yield sys.modules[PACKAGE + ".certify"].Certifier, CERTIFIER_METHODS

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def missing(self) -> list[str]:
        return [name for name in REQUIRED if name not in self.wrapped]


def _written_bytes(args, result) -> int:
    return os.path.getsize(args[-1])


def _iterations(args, result) -> int:
    return len(result.trace)


def layer_metrics(spans: list, smooth_classes: set[str], checks: int) -> dict:
    """Per-layer figures of one traced execution (one cli.main call).

    smooth_classes names the second-block oracle classes (those with a
    hessian); ``checks`` is the number of certificate checks the execution
    wrote.
    """
    def fname(span):
        # "module.function" -> "function"; "oracles.Class.method" -> "Class.method"
        return span[0].split(".", 1)[1]

    names = [fname(s) for s in spans]
    dur = [s[2] - s[1] for s in spans]
    child_ns = [0] * len(spans)
    # Nearest enclosing span of interest, by index (-1 when none).
    in_run, in_validate, in_delta0, in_exec = ([-1] * len(spans) for _ in range(4))
    # run evaluates the augmented Lagrangian for its start record (once
    # through delta0, once directly) before the first iteration; those calls
    # are left out of the per-iteration count.
    first_direct = {}   # run span -> its first direct aug_lagrangian child
    for i, s in enumerate(spans):
        parent = s[3]
        if parent >= 0:
            child_ns[parent] += dur[i]
            in_run[i], in_validate[i] = in_run[parent], in_validate[parent]
            in_delta0[i], in_exec[i] = in_delta0[parent], in_exec[parent]
            name = names[parent]
            if name == "run":
                in_run[i] = parent
                if names[i] == "aug_lagrangian":
                    first_direct.setdefault(parent, i)
            elif name == "validate_assumptions":
                in_validate[i] = parent
            elif name == "delta0":
                in_delta0[i] = parent
            elif name == "execute_config":
                in_exec[i] = parent

    def total_s(*wanted):
        return sum(d for n, d in zip(names, dur) if n in wanted) / 1e9

    def outermost_s(wanted):
        # Time in spans named `wanted` that are not inside another of them.
        out = 0
        for i, n in enumerate(names):
            if n in wanted:
                p = spans[i][3]
                while p >= 0 and names[p] not in wanted:
                    p = spans[p][3]
                if p < 0:
                    out += dur[i]
        return out / 1e9

    runs = [i for i, n in enumerate(names) if n == "run"]
    iterations = sum(spans[i][4] or 0 for i in runs)
    members = sum(1 for n in names if n == "execute_config")
    run_s = sum(dur[i] for i in runs) / 1e9
    run_self_s = sum(dur[i] - child_ns[i] for i in runs) / 1e9
    observe_s = total_s("Certifier.observe")
    finalize_s = total_s("Certifier.finalize")
    base_s = run_s - observe_s - finalize_s
    exec_s = total_s("execute_config")
    exec_run_s = sum(dur[i] for i in runs if in_exec[i] >= 0) / 1e9

    def per_iter(pred):
        n = sum(1 for i, name in enumerate(names) if in_run[i] >= 0 and pred(i, name))
        return n / iterations if iterations else 0.0

    def oracle(i, name, method, smooth=True):
        cls, _, meth = name.partition(".")
        return spans[i][0].startswith("oracles.") and meth == method and \
            (cls in smooth_classes) == smooth

    svd_calls = sum(1 for n in names if n in SVD_FUNCTIONS)
    start_calls = set(first_direct.values())
    return {
        "generators.generate_s": total_s("generate_instance"),
        "problem.validate_s": total_s("validate_assumptions"),
        "problem.validate_g_value_calls": float(sum(
            1 for i, n in enumerate(names)
            if in_validate[i] >= 0 and oracle(i, n, "value"))),
        "problem.aug_lagrangian_per_iter": per_iter(
            lambda i, n: n == "aug_lagrangian" and in_delta0[i] < 0
            and i not in start_calls),
        "linalg.svd_calls": float(svd_calls),
        "linalg.svd_s": outermost_s(SVD_FUNCTIONS),
        "params.seed_s": total_s("eta0_seed"),
        "oracles.g_value_per_iter": per_iter(lambda i, n: oracle(i, n, "value")),
        "oracles.g_gradient_per_iter": per_iter(
            lambda i, n: oracle(i, n, "gradient")),
        "oracles.g_hessian_per_iter": per_iter(lambda i, n: oracle(i, n, "hessian")),
        "oracles.f_prox_per_iter": per_iter(
            lambda i, n: oracle(i, n, "scaled_prox", smooth=False)),
        "solver.self_ms_per_iter": 1e3 * run_self_s / iterations if iterations else 0.0,
        "solver.iterations": (statistics.median(spans[i][4] or 0 for i in runs)
                              if runs else 0.0),
        "solver.base_s": base_s,
        "certify.observe_ms_per_iter": 1e3 * observe_s / iterations if iterations else 0.0,
        "certify.finalize_s": finalize_s,
        "certify.checks": float(checks),
        "certify.cost_s": observe_s + finalize_s,
        "certify.overhead_ratio": (observe_s + finalize_s) / base_s if base_s > 0 else 0.0,
        "serialize.write_s": total_s(*WRITE_FUNCTIONS),
        "serialize.bytes_written": float(sum(
            s[4] or 0 for s, n in zip(spans, names) if n in WRITE_FUNCTIONS)),
        "serialize.config_s": outermost_s(CONFIG_FUNCTIONS),
        "bench.member_setup_s": (exec_s - exec_run_s) / members if members else 0.0,
        "bench.members": float(members),
    }


def write_spans(path, executions: list[list]) -> None:
    """One CSV row per span: execution, index, name, start, end, parent, count."""
    with open(path, "w") as fh:
        fh.write("execution,index,name,start_ns,end_ns,parent,count\n")
        for e, spans in enumerate(executions):
            for i, (name, start, end, parent, count) in enumerate(spans):
                fh.write(f"{e},{i},{name},{start},{end},{parent},"
                         f"{'' if count is None else count}\n")
