"""Traced run: per-layer metrics of one workload, measured in this process.

Each layer is a relbell module.  While tracing, the public functions below
are replaced by wrappers under every name a caller looks them up by (for
example ``relbell.search.chsh_operator`` as well as
``relbell.bell.chsh_operator``).  A wrapper appends one span
``(name, start, end, parent, run_id)`` to an in-memory list; the list is
written out when the run ends.  A span's self time is its duration minus the
part of it that its child spans cover.

The run alternates an untraced and a traced pass over the same commands, both
through ``relbell.cli.main``; the tracing overhead is the difference of their
median wall times.  Layer microbenchmarks on seeded inputs complete the
figures: the Jacobi eigensolver on dense random Hermitian matrices (checked
against LAPACK ``eigvalsh``, whose time is printed for reference), ``kron``,
``kron3`` and ``effective_direction``.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random
import statistics
import sys
import time
from collections import defaultdict

import workloads

#: (module, function) pairs wrapped while tracing.
TRACED = (
    ("linalg", "hermitian_eigensystem"), ("linalg", "kron"), ("linalg", "kron3"),
    ("observables", "effective_direction"), ("observables", "observable_matrix"),
    ("bell", "chsh_operator"), ("bell", "mermin_operator"), ("bell", "max_violation"),
    ("scenarios", "scenario_curve"), ("verify", "run_all_checks"),
    ("search", "optimize_chsh"), ("search", "optimize_mermin"),
    ("sampling", "joint_distribution"), ("sampling", "sample"),
)
EIGEN = "linalg.hermitian_eigensystem"
EIGEN_DIMS = (2, 4, 8)
#: Calls per microbenchmark batch, and batches per figure (median of batches).
MICRO_CALLS = {
    "linalg.jacobi_dense2_us": 100, "linalg.jacobi_dense4_us": 40,
    "linalg.jacobi_dense8_us": 10, "linalg.kron_us": 200, "linalg.kron3_us": 100,
    "observables.effective_direction_us": 200, "bell.chsh_operator_us": 50,
    "bell.mermin_operator_us": 20, "scenarios.scenario_curve_us": 10,
    "sampling.joint_distribution_us": 10, "sampling.sample_1e6_us": 1,
}
MICRO_BATCHES = 5
#: Span figures that read 0 on every run of a workload that does not reach
#: the layer.  They are printed, but kept out of the result line, where a
#: time that never changes would read as not measured.
REPORT_ONLY = frozenset({
    "linalg.kron.self_s", "linalg.kron3.self_s", "bell.chsh_operator.self_s",
    "bell.mermin_operator.self_s", "bell.max_violation.self_s",
    "scenarios.scenario_curve.self_s", "sampling.joint_distribution.self_s",
    "verify.run_all_checks.s", "search.evals_per_s", "sampling.sample.shots_per_s",
})
#: Largest accepted |Jacobi - eigvalsh| eigenvalue gap, relative to the norm.
EIGEN_AGREEMENT = 1e-10


class Tracer:
    """Records spans in memory while its wrappers are installed."""

    def __init__(self):
        self.spans: list = []
        self.run_id = ""
        self._stack: list[int] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.run_id)

    def _wrapper(self, name: str, fn):
        if name == EIGEN:
            def traced(matrix, *args, **kwargs):
                return self.span(f"{name}#{len(matrix)}", fn, matrix, *args, **kwargs)
        else:
            def traced(*args, **kwargs):
                return self.span(name, fn, *args, **kwargs)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every module-level reference to a traced function inside
        relbell by its wrapper; restore them on exit."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "relbell" or key.startswith("relbell.")]
        patched = []
        for module_name, function_name in TRACED:
            original = getattr(importlib.import_module(f"relbell.{module_name}"),
                               function_name)
            wrapper = self._wrapper(f"{module_name}.{function_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patched.append((module, attr, value))
                        setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, value in reversed(patched):
                setattr(module, attr, value)


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for index, (name, start, end, parent, _) in enumerate(spans):
        covered, reach = 0.0, start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start, child_end = max(child_start, reach), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        result.append(end - start - covered)
    return result


def layer_metrics(spans, shots: int, bytes_out: int) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    own = self_times(spans)
    calls, self_s, total_s = defaultdict(int), defaultdict(float), defaultdict(float)
    in_search = []
    for (name, start, end, parent, _), own_s in zip(spans, own):
        in_search.append(name.startswith("search.") or (parent >= 0 and in_search[parent]))
        calls[name] += 1
        base = name.split("#")[0]
        if base != name:
            calls[base] += 1
        self_s[base] += own_s
        total_s[base] += end - start
    evals = sum(1 for (name, *_), searching in zip(spans, in_search) if searching
                and name in ("bell.chsh_operator", "bell.mermin_operator"))
    search_s = total_s["search.optimize_chsh"] + total_s["search.optimize_mermin"]
    metrics = {
        f"{EIGEN}.calls": calls[EIGEN],
        f"{EIGEN}.self_s": self_s[EIGEN],
        **{f"{EIGEN}.calls_d{d}": calls[f"{EIGEN}#{d}"] for d in EIGEN_DIMS},
    }
    for layer in ("linalg.kron", "linalg.kron3", "observables.effective_direction",
                  "observables.observable_matrix"):
        metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.self_s"] = self_s[layer]
    for layer in ("bell.chsh_operator", "bell.mermin_operator", "bell.max_violation",
                  "scenarios.scenario_curve", "sampling.joint_distribution"):
        metrics[f"{layer}.self_s"] = self_s[layer]
    metrics["verify.run_all_checks.s"] = total_s["verify.run_all_checks"]
    metrics["search.evals"] = evals
    metrics["search.evals_per_s"] = evals / search_s if search_s else 0.0
    sample_s = total_s["sampling.sample"]
    metrics["sampling.sample.shots_per_s"] = shots / sample_s if sample_s else 0.0
    metrics["cli.self_s"] = self_s["cli.main"]
    metrics["cli.bytes_out"] = bytes_out
    return metrics


class _CountingWriter(io.StringIO):
    def __init__(self):
        super().__init__()
        self.bytes_out = 0

    def write(self, text):
        self.bytes_out += len(text.encode())
        return super().write(text)


def _run_pass(commands, tracer: Tracer | None, label: str):
    """Run one pass in process; return wall time, failures and bytes written."""
    from relbell import cli
    wall, failures, bytes_out = 0.0, [], 0
    for index, command in enumerate(commands):
        sink = _CountingWriter()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            if tracer is None:
                code = cli.main(list(command.argv))
            else:
                tracer.run_id = f"{label}.{index}.{command.kind}"
                code = tracer.span("cli.main", cli.main, list(command.argv))
        wall += time.perf_counter() - start
        bytes_out += sink.bytes_out
        problem = workloads.check(command, code, sink.getvalue())
        if problem:
            failures.append(f"{' '.join(command.argv)}: {problem}")
    return wall, failures, bytes_out


def _per_call_us(fn, inputs, calls: int) -> float:
    """Median over MICRO_BATCHES batches of the mean time of one call, in
    microseconds; batch b uses inputs[b * calls:(b + 1) * calls]."""
    batches = []
    for batch in range(MICRO_BATCHES):
        chunk = inputs[batch * calls:(batch + 1) * calls]
        start = time.perf_counter()
        for args in chunk:
            fn(*args)
        batches.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(batches)


def microbenchmarks(seed: int):
    """Layer figures on seeded inputs; returns (metrics, reference, failures)."""
    import numpy as np
    from relbell.bell import ChshSettings, MerminSettings, chsh_operator, \
        mermin_operator, mermin_terms
    from relbell.linalg import hermitian_eigensystem, kron, kron3
    from relbell.observables import Boost, effective_direction
    from relbell.sampling import joint_distribution, sample
    from relbell.scenarios import SCENARIO_KINDS, Scenario, scenario_curve
    from relbell.states import ghz_plus

    rng = np.random.default_rng([seed, 2012])
    metrics, reference, failures = {}, {}, []

    def inputs(name, make):
        return [make() for _ in range(MICRO_CALLS[name] * MICRO_BATCHES)]

    def time_layer(name, fn, cases):
        metrics[name] = _per_call_us(fn, cases, MICRO_CALLS[name])

    def hermitian(dim):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return (0.5 * (m + m.conj().T),)

    for dim in EIGEN_DIMS:
        name = f"linalg.jacobi_dense{dim}_us"
        matrices = inputs(name, lambda: hermitian(dim))
        for (m,) in matrices[:MICRO_CALLS[name]]:
            gap = np.max(np.abs(hermitian_eigensystem(m)[0] - np.linalg.eigvalsh(m)))
            if not gap <= EIGEN_AGREEMENT * max(1.0, np.linalg.norm(m)):
                failures.append(f"jacobi d{dim}: eigenvalues off eigvalsh by {gap:g}")
        time_layer(name, hermitian_eigensystem, matrices)
        reference[f"lapack.eigvalsh_dense{dim}_us"] = _per_call_us(
            np.linalg.eigvalsh, matrices, MICRO_CALLS[name])

    def matrix_2x2():
        return rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))

    def unit():
        v = rng.normal(size=3)
        return v / np.linalg.norm(v)

    def boost():
        return Boost(unit(), float(rng.uniform(0.0, 0.9)))

    def chsh_settings():
        return ChshSettings(unit(), unit(), unit(), unit(), boost(), boost())

    def mermin_settings():
        return MerminSettings(*(unit() for _ in range(6)), boost(), boost(), boost())

    def scenario():
        return (Scenario(SCENARIO_KINDS[int(rng.integers(3))],
                         float(rng.uniform(0.0, 0.99))),)

    def ghz_observables():
        return ghz_plus(), mermin_terms(mermin_settings())[0][2]

    time_layer("linalg.kron_us", kron,
               inputs("linalg.kron_us", lambda: (matrix_2x2(), matrix_2x2())))
    time_layer("linalg.kron3_us", kron3,
               inputs("linalg.kron3_us",
                      lambda: (matrix_2x2(), matrix_2x2(), matrix_2x2())))
    time_layer("observables.effective_direction_us", effective_direction,
               inputs("observables.effective_direction_us", lambda: (unit(), boost())))
    time_layer("bell.chsh_operator_us", chsh_operator,
               inputs("bell.chsh_operator_us", lambda: (chsh_settings(),)))
    time_layer("bell.mermin_operator_us", mermin_operator,
               inputs("bell.mermin_operator_us", lambda: (mermin_settings(),)))
    time_layer("scenarios.scenario_curve_us", scenario_curve,
               inputs("scenarios.scenario_curve_us", scenario))
    cases = inputs("sampling.joint_distribution_us", ghz_observables)
    time_layer("sampling.joint_distribution_us", joint_distribution, cases)
    distributions = [joint_distribution(*case) for case in cases]
    time_layer("sampling.sample_1e6_us", sample,
               [(dist, 1_000_000, index) for index, dist in
                enumerate(distributions[:MICRO_CALLS["sampling.sample_1e6_us"]
                                        * MICRO_BATCHES])])
    return metrics, reference, failures


def write_spans(path, spans) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("name\tstart_s\tend_s\tparent\trun_id\n")
        for name, start, end, parent, run_id in spans:
            handle.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{run_id}\n")


def traced_run(workload: str, seed: int, seconds: float, work_dir):
    """Traced run of one workload for ``seconds``; returns (attempted,
    failures, per-layer metrics, report)."""
    import relbell.cli  # noqa: F401  (loads every layer before patching)

    micro, reference, failures = microbenchmarks(seed)
    rng = random.Random(f"{workload}/{seed}")
    tracer = Tracer()
    untraced, traced, per_pass, attempted = [], [], [], len(EIGEN_DIMS)
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        commands = workloads.one_pass(workload, rng)
        label = f"pass{len(traced)}"
        wall, failed, _ = _run_pass(commands, None, label)
        untraced.append(wall)
        failures += failed
        first = len(tracer.spans)
        with tracer.installed():
            wall, failed, bytes_out = _run_pass(commands, tracer, label)
        traced.append(wall)
        failures += failed
        attempted += 2 * len(commands)
        shots = sum(workloads.shots_of(c) for c in commands)
        spans = [(name, start, end, parent - first if parent >= 0 else -1, run_id)
                 for name, start, end, parent, run_id in tracer.spans[first:]]
        per_pass.append(layer_metrics(spans, shots, bytes_out))

    spans_path = work_dir / f"spans-{workload}.tsv"
    write_spans(spans_path, tracer.spans)
    note = f"median of {len(per_pass)} traced passes"
    report = {}
    for name in per_pass[0]:
        unit = _unit(name)
        # A count stays a whole number: the lower median, not a midpoint.
        median = statistics.median_low if unit in ("count", "B") else statistics.median
        report[name] = (median(p[name] for p in per_pass), unit, note)
    report.update({name: (value, "us", "median of batches") for name, value in micro.items()})
    report["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced),
                                  "s", "median traced pass minus median untraced pass")
    values = {name: figure for name, figure in report.items() if name not in REPORT_ONLY}
    report.update({name: (value, "us", "reference") for name, value in reference.items()})
    report["trace.untraced_wall_s"] = (statistics.median(untraced), "s",
                                       f"median of {len(untraced)} passes")
    report["trace.traced_wall_s"] = (statistics.median(traced), "s",
                                     f"median of {len(traced)} passes")
    report["trace.spans"] = (len(tracer.spans), "count", f"written to {spans_path.name}")
    return attempted, failures, values, report


def _unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("bytes_out"):
        return "B"
    return "count"
