"""Traced in-process run of one generated workload.

Run from a generated workload directory with the checkout's ``src`` on
``PYTHONPATH``:

    python3 trace_run.py explain|degree|check

It times ``import nshapley``, loads ``run.json`` and calls the same
``config.run_explain`` / ``run_degree`` / ``run_check`` the CLI calls,
with spans and counts recorded around the public functions that
function calls. The spans are installed from here by swapping the names
in ``nshapley.config`` (and ``delta_all`` in ``nshapley.core``) for
timed wrappers, so no code under ``src/`` changes; model rows and
calls are counted by a delegating ``PredictFn``. The result is written
to ``traced.out`` for the caller to compare with the CLI's output.

After the traced pass, and never inside a timed span, it runs three
more passes over what the traced pass produced: ``lattice.moebius_transform``
on each value table alone, a ``tracemalloc`` pass over the first
order-n call and the first serialization, and the kernel layer (the
kernels ``benchmarks/bench_kernels.py`` times) on this workload's
dimension. The last stdout line is JSON: the per-layer metrics and the
``time.monotonic()`` reading taken when the traced pipeline ended.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import replace
from pathlib import Path
from unittest import mock

# name -> (unit, better, the end-to-end metric and workload it should move)
LAYER_METRICS: dict[str, tuple[str, str, str]] = {
    "process.import_s": ("s", "lower", "setup_s, all workloads"),
    "datasets.load_csv_s": ("s", "lower", "setup_s, all workloads"),
    "config.build_model_s": ("s", "lower", "setup_s, all workloads"),
    "config.build_value_function_s": (
        "s", "lower", "setup_s, all workloads; largest on explain-observational-d14"),
    "models.predict_s": (
        "s", "lower", "points_per_s on explain-additive-d16 and degree-external-d12"),
    "models.predict_rows": (
        "count", "lower", "points_per_s on explain-additive-d16 and degree-external-d12"),
    "models.predict_calls": (
        "count", "lower", "points_per_s on explain-additive-d16 and degree-external-d12"),
    "models.rows_per_s": (
        "1/s", "higher", "points_per_s on explain-additive-d16 and degree-external-d12"),
    "valuefn.build_value_table_s": (
        "s", "lower", "points_per_s on explain-additive-d16 (structured tables) and "
        "explain-observational-d14 (bucketed exact-match); no change on degree-external-d12"),
    "valuefn.table_entries": ("count", "lower", "points_per_s, as above"),
    "valuefn.rows_per_entry": (
        "rows/entry", "lower", "points_per_s on explain-additive-d16 (structured tables)"),
    "models.external.batch_s": ("s", "lower", "points_per_s on degree-external-d12"),
    "models.external.child_s": ("s", "lower", "points_per_s on degree-external-d12"),
    "models.external.engine_s": ("s", "lower", "points_per_s on degree-external-d12"),
    "models.external.request_bytes": (
        "B", "lower", "points_per_s on degree-external-d12 (computed from the wire format)"),
    "lattice.moebius_s": ("s", "lower", "nothing measurable: <= 0.1% of every run"),
    "lattice.sweep_adds": ("count", "lower", "nothing measurable (computed)"),
    "lattice.bytes_moved": ("B", "lower", "nothing measurable (computed)"),
    "core.shapley_gam_s": ("s", "lower", "run_s on explain-additive-d16 (dense indices)"),
    "core.orders_s": (
        "s", "lower", "run_s and peak_rss_mb on explain-additive-d16 (dense indices)"),
    "core.index_entries": ("count", "lower", "run_s on explain-additive-d16"),
    "core.orders_peak_mb": ("MB", "lower", "peak_rss_mb on explain-additive-d16"),
    "core.check_routes_s": (
        "s", "lower", "run_s on check-checkerboard-d10 (numba deletion criterion)"),
    "core.delta_all_s": ("s", "lower", "run_s on check-checkerboard-d10"),
    "analysis.interaction_degree_s": (
        "s", "lower", "run_s on degree-external-d12; predicted to stay negligible"),
    "serialize.dumps_s": ("s", "lower", "run_s on explain-additive-d16 (streamed output)"),
    "serialize.bytes": ("B", "lower", "run_s and peak_rss_mb on explain-additive-d16"),
    "serialize.mb_per_s": ("MB/s", "higher", "run_s on explain-additive-d16"),
    "serialize.peak_mb": ("MB", "lower", "peak_rss_mb on explain-additive-d16"),
    "config.residual_s": (
        "s", "lower", "run_s, all workloads (residual: orchestration and CSV formatting)"),
    "process.cpu_s": ("s", "lower", "context for run_s: user+sys of the CLI and its child"),
    "trace.overhead_s": ("s", "lower", "none: traced total minus the untraced run_s"),
    "kernel.zeta_subsets_s": ("s", "lower", "nothing measurable: one call at the workload's d"),
    "kernel.moebius_subsets_s": ("s", "lower", "nothing measurable: one call at the workload's d"),
    "kernel.zeta_supersets_s": ("s", "lower", "nothing measurable: one call at the workload's d"),
    "kernel.interp_multilinear_s": (
        "s", "lower", "nothing measurable: 2^d rows, 3 axes, one call"),
    "kernel.delta_weighted_s": (
        "s", "lower", "run_s on check-checkerboard-d10: one call at min(d, 10)"),
}

# Filled in by the caller (run.py) from the paired untraced CLI run.
MEASURED_BY_CALLER = ("process.cpu_s", "trace.overhead_s")

TRACED_OUT = "traced.out"
CHECK_ROUTES = (
    "n_shapley_recursive",
    "n_shapley_explicit",
    "classic_shapley_oracle",
    "recovery_check",
)
KERNEL_REPEATS = 5
MiB = float(1 << 20)


class Tracer:
    """Spans with self time, counts, and the results of chosen calls."""

    def __init__(self):
        self.spans: list[tuple[str, float, float]] = []  # name, duration, self time
        self._stack: list[list] = []  # [name, time covered by child spans]
        self.counts: Counter = Counter()
        self.results: dict[str, list] = defaultdict(list)
        self.first_call: dict[str, tuple] = {}
        self.model = None  # the counting wrapper around the run's model
        self.external = False  # whether that model is an ExternalModel

    @contextlib.contextmanager
    def span(self, name: str):
        frame = [name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += duration
            self.spans.append((name, duration, duration - frame[1]))

    def parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def wrap(self, name: str, fn, keep: bool = False):
        """``fn`` inside a span; ``keep`` also records its result and first call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if keep:
                self.results[name].append(result)
                self.first_call.setdefault(name, (fn, args, kwargs))
            return result

        return traced

    def durations(self, name: str) -> list[float]:
        return [d for n, d, _ in self.spans if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_time(self, name: str) -> float:
        return sum(s for n, _, s in self.spans if n == name)


def counting_model(tracer: Tracer, inner, predict_base):
    """A ``PredictFn`` that delegates to ``inner`` and counts rows and calls.

    For an external model it also keeps every batch, so that the wire
    bytes of its requests can be computed after the run.
    """

    class CountingModel(predict_base):
        dim = inner.dim

        def __init__(self):
            self.inner = inner
            self.batches = []

        def predict_batch(self, points):
            parent = tracer.parent()
            with tracer.span("models.predict"):
                out = inner.predict_batch(points)
            rows = len(points)
            tracer.counts["models.predict_rows"] += rows
            tracer.counts["models.predict_calls"] += 1
            tracer.counts[f"rows_in:{parent}"] += rows
            if tracer.external:
                self.batches.append(points)
            return out

    return CountingModel()


def request_bytes(rows, dim: int) -> int:
    """Size of one ``NSHAP-MODEL-V1`` request for ``rows`` (computed, not observed)."""
    lines = [f"NSHAP-MODEL-V1 {dim} {len(rows)}"]
    lines.extend(",".join(repr(v) for v in row) for row in rows.tolist())
    lines.append("END")
    return len("\n".join(lines)) + 1


def median_time(fn, *args) -> float:
    samples = []
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter()
        fn(*args)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def peak_mb(call) -> float:
    fn, args, kwargs = call
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / MiB
    finally:
        tracemalloc.stop()


def traced_pipeline(subcommand: str, tracer: Tracer):
    """Import nshapley and run ``subcommand`` with spans; returns (import_s, end mark, result)."""
    start = time.perf_counter()
    import nshapley
    from nshapley import config, core

    import_s = time.perf_counter() - start
    from workloads import CONFIG_NAME

    real_build_model = config.build_model

    def build_model(spec, dataset):
        with tracer.span("config.build_model"):
            model = real_build_model(spec, dataset)
        tracer.external = isinstance(model, nshapley.ExternalModel)
        tracer.model = counting_model(tracer, model, nshapley.PredictFn)
        return tracer.model

    patches = {
        "load_csv": tracer.wrap("datasets.load_csv", config.load_csv),
        "build_model": build_model,
        "build_value_function": tracer.wrap(
            "config.build_value_function", config.build_value_function
        ),
        "build_value_table": tracer.wrap(
            "valuefn.build_value_table", config.build_value_table, keep=True
        ),
        "shapley_gam": tracer.wrap("core.shapley_gam", config.shapley_gam, keep=True),
        "n_shapley_all_orders": tracer.wrap("core.orders", config.n_shapley_all_orders, keep=True),
        "n_shapley_from_gam": tracer.wrap("core.orders", config.n_shapley_from_gam, keep=True),
        "dumps_records": tracer.wrap("serialize.dumps", config.dumps_records, keep=True),
        "interaction_degree": tracer.wrap("analysis.interaction_degree", config.interaction_degree),
    }
    for name in CHECK_ROUTES:
        patches[name] = tracer.wrap("core.check_routes", getattr(config, name))
    run = {"explain": config.run_explain, "degree": config.run_degree, "check": config.run_check}
    cfg = config.load_config(CONFIG_NAME)
    if cfg.out:
        cfg = replace(cfg, out=TRACED_OUT)
    with contextlib.ExitStack() as stack:
        for name, wrapper in patches.items():
            stack.enter_context(mock.patch.object(config, name, wrapper))
        stack.enter_context(
            mock.patch.object(core, "delta_all", tracer.wrap("core.delta_all", core.delta_all))
        )
        with tracer.span("config.run"):
            result = run[subcommand](cfg)
        if tracer.external:  # the CLI's model is closed when run_* drops it
            tracer.model.inner.close()
    return import_s, time.monotonic(), result


def external_metrics(tracer: Tracer, dim: int) -> dict:
    """Per-batch engine and child time; zeros for an in-process model."""
    if not tracer.external:
        return {
            "models.external.batch_s": 0.0,
            "models.external.child_s": 0.0,
            "models.external.engine_s": 0.0,
            "models.external.request_bytes": 0,
        }
    import numpy as np

    from workloads import CHILD_LOG_NAME

    batches = tracer.durations("models.predict")
    child = [float(v) for v in Path(CHILD_LOG_NAME).read_text(encoding="utf-8").split()]
    if len(child) != len(batches):
        raise RuntimeError(f"{len(batches)} batches but {len(child)} child timings")
    return {
        "models.external.batch_s": statistics.median(batches),
        "models.external.child_s": statistics.median(child),
        "models.external.engine_s": statistics.median(b - c for b, c in zip(batches, child)),
        "models.external.request_bytes": sum(
            request_bytes(np.asarray(b), dim) for b in tracer.model.batches
        ),
    }


def kernel_metrics(values, dim: int) -> dict:
    """The kernels ``benchmarks/bench_kernels.py`` times, one call each at ``dim``."""
    import numpy as np

    from nshapley import _kernels

    rng = np.random.default_rng(0)
    delta_dim = min(dim, 10)  # delta_weighted is O(4^d)
    interp_args = (
        rng.uniform(-0.2, 1.2, size=(1 << dim, 3)),
        np.zeros(3),
        np.full(3, 0.25),
        np.full(3, 5, dtype=np.int64),
        rng.normal(size=125),
    )
    delta_args = (
        values[: 1 << delta_dim],
        delta_dim,
        np.abs(rng.normal(size=(delta_dim + 1, delta_dim + 1))) + 0.1,
    )
    return {
        "kernel.zeta_subsets_s": median_time(_kernels.zeta_subsets, values, dim),
        "kernel.moebius_subsets_s": median_time(_kernels.moebius_subsets, values, dim),
        "kernel.zeta_supersets_s": median_time(_kernels.zeta_supersets, values, dim),
        "kernel.interp_multilinear_s": median_time(_kernels.interp_multilinear, *interp_args),
        "kernel.delta_weighted_s": median_time(_kernels.delta_weighted, *delta_args),
    }


def layer_metrics(tracer: Tracer, import_s: float) -> dict:
    """Every per-layer metric this process measures, from the spans and extra passes."""
    from nshapley import lattice

    tables = tracer.results["valuefn.build_value_table"]
    dim = tables[0].dim
    entries = sum(t.values.size for t in tables)
    rows = tracer.counts["models.predict_rows"]
    predict_s = tracer.total("models.predict")
    orders = []
    for res in tracer.results["core.orders"]:
        orders.extend(res if isinstance(res, list) else [res])
    texts = tracer.results["serialize.dumps"]
    dumps_s = tracer.total("serialize.dumps")
    dumps_bytes = sum(len(t.encode("utf-8")) for t in texts)
    first = tracer.first_call
    return {
        "process.import_s": import_s,
        "datasets.load_csv_s": tracer.total("datasets.load_csv"),
        "config.build_model_s": tracer.total("config.build_model"),
        "config.build_value_function_s": tracer.total("config.build_value_function"),
        "models.predict_s": predict_s,
        "models.predict_rows": rows,
        "models.predict_calls": tracer.counts["models.predict_calls"],
        "models.rows_per_s": rows / predict_s if predict_s else 0.0,
        "valuefn.build_value_table_s": tracer.self_time("valuefn.build_value_table"),
        "valuefn.table_entries": entries,
        "valuefn.rows_per_entry": tracer.counts["rows_in:valuefn.build_value_table"] / entries,
        **external_metrics(tracer, dim),
        "lattice.moebius_s": sum(median_time(lattice.moebius_transform, t.table) for t in tables),
        # one pass per bit: half the entries get one add each
        "lattice.sweep_adds": len(tables) * dim * (1 << (dim - 1)),
        # the copy (read + write 2^d) plus, per bit, read 2 and write 1 of each pair
        "lattice.bytes_moved": len(tables) * 8 * ((2 << dim) + dim * 3 * (1 << (dim - 1))),
        "core.shapley_gam_s": tracer.total("core.shapley_gam"),
        "core.orders_s": tracer.total("core.orders"),
        "core.index_entries": sum(
            len(ix.values) for ix in tracer.results["core.shapley_gam"] + orders
        ),
        "core.orders_peak_mb": peak_mb(first["core.orders"]) if "core.orders" in first else 0.0,
        "core.check_routes_s": tracer.total("core.check_routes"),
        "core.delta_all_s": tracer.total("core.delta_all"),
        "analysis.interaction_degree_s": tracer.total("analysis.interaction_degree"),
        "serialize.dumps_s": dumps_s,
        "serialize.bytes": dumps_bytes,
        "serialize.mb_per_s": dumps_bytes / MiB / dumps_s if dumps_s else 0.0,
        "serialize.peak_mb": peak_mb(first["serialize.dumps"]) if texts else 0.0,
        "config.residual_s": tracer.self_time("config.run"),
        **kernel_metrics(tables[0].values, dim),
    }


def main() -> int:
    subcommand = sys.argv[1]
    tracer = Tracer()
    import_s, pipeline_end, result = traced_pipeline(subcommand, tracer)
    if subcommand == "check":  # the CLI prints this report on stdout
        Path(TRACED_OUT).write_text(result[0], encoding="utf-8")
    metrics = layer_metrics(tracer, import_s)
    missing = set(LAYER_METRICS) - set(metrics) - set(MEASURED_BY_CALLER)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    print(json.dumps({"pipeline_end": pipeline_end, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
