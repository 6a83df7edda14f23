"""Declarative run configuration and the pipelines it drives.

A run is described by a JSON object (or the equivalent CLI flags):

    {
      "data": "rows.csv",
      "model": {"type": "knn", "k": 3, "label": "y"},
      "value_fn": {"type": "interventional"},
      "background": "all",          // or "start:stop" or [start, stop];
                                    // interventional only
      "order": "all",               // or an integer 1..d
      "points": [0, 2],             // or "all" or "sample:N"
      "seed": 0,
      "out": "results.json",
      "format": "json"
    }

Every value function explains the configured model: ``interventional``
over the background rows, ``observational`` over the data rows, and
``gam`` through an additive model's own components. Unknown keys
anywhere in the document are errors; a typo never passes silently.
Identical configuration bytes produce byte-identical output files:
backgrounds are taken in row order, point sampling is seeded, and
every float is serialized in round-trip form.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import signal
import tempfile
from dataclasses import dataclass, fields, replace
from typing import BinaryIO, Callable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from . import core
from .analysis import DependenceSeries, interaction_degree, partial_dependence
from .core import (
    InteractionIndex,
    ShapleyGam,
    classic_shapley_oracle,
    n_shapley_all_orders,
    n_shapley_explicit,
    n_shapley_from_gam,
    n_shapley_recursive,
    recovery_check,
    shapley_gam,
)
from .datasets import Dataset, load_csv
from .figures import emit_dependence, emit_stacked_bars
from .lattice import MAX_DIM
from .models import (
    CheckerboardModel,
    ComponentMap,
    ConstantComponent,
    ExternalModel,
    KnnModel,
    LookupComponent,
    PolyFactor,
    PredictFn,
    ProcessFailed,
    ProductComponent,
    ProtocolTimeout,
    SineFactor,
    StepFactor,
)
from .serialize import (
    WrittenPart,
    dumps_csv,
    dumps_records,
    emit_csv,
    emit_records,
    results_file,
)
from .valuefn import (
    GamInducedValueFunction,
    InterventionalValueFunction,
    NoMatchingRows,
    NonFiniteValue,
    ObservationalExactMatchValueFunction,
    ValueFunction,
    ValueTable,
    build_value_table,
)

__all__ = [
    "ConfigError",
    "RunError",
    "RunConfig",
    "read_config_document",
    "load_config",
    "parse_components",
    "build_model",
    "build_value_function",
    "run_explain",
    "run_degree",
    "run_check",
    "run_plot",
]


class ConfigError(ValueError):
    """The configuration document is malformed."""


class RunError(RuntimeError):
    """A configured run failed; the message carries point/subset context."""


def _require_keys(mapping: Mapping, allowed: set[str], required: set[str], where: str):
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(mapping)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _number(raw, where: str, kind: type = float):
    """A finite float or int setting: a JSON number or a numeric string."""
    try:
        value = kind(raw)
        ok = not isinstance(raw, bool) and math.isfinite(value)
        ok = ok and (kind is float or not isinstance(raw, float) or value == raw)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        expected = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{where}: expected {expected}, got {raw!r}")
    return value


def _list(raw, where: str) -> Sequence:
    if isinstance(raw, (str, bytes)) or not isinstance(raw, Sequence):
        raise ConfigError(f"{where}: expected a list, got {raw!r}")
    return raw


def _numbers(raw, where: str, kind: type = float) -> tuple:
    return tuple(_number(item, where, kind) for item in _list(raw, where))


def _grid(raw, where: str, axes: int) -> tuple:
    """Numbers nested ``axes`` lists deep, such as a lookup's values."""
    if axes <= 1:
        return _numbers(raw, where)
    return tuple(_grid(item, where, axes - 1) for item in _list(raw, where))


@dataclass(frozen=True)
class RunConfig:
    data: str
    model: Mapping
    value_fn: Mapping
    background: str | tuple[int, int] = "all"
    order: int | str = "all"
    points: str | tuple[int, ...] = "all"
    seed: int = 0
    out: str | None = None
    format: str = "json"

    @classmethod
    def from_mapping(cls, mapping: Mapping) -> "RunConfig":
        _require_keys(mapping, _CONFIG_KEYS, {"data", "model", "value_fn"}, "config")
        background = _parse_background(mapping.get("background", "all"))
        order = _parse_order(mapping.get("order", "all"))
        points = _parse_points(mapping.get("points", "all"))
        fmt = mapping.get("format", "json")
        if fmt not in {"json", "csv"}:
            raise ConfigError(f"config: format must be json|csv, got {fmt!r}")
        out = mapping.get("out")
        if out is not None and not isinstance(out, str):
            raise ConfigError(f"out: expected a path string or null, got {out!r}")
        value_fn = _typed_spec(mapping["value_fn"], "value_fn")
        if "background" in mapping and value_fn["type"] != "interventional":
            raise ConfigError(
                "background: only the interventional value function reads one,"
                f" not {value_fn['type']!r}"
            )
        return cls(
            data=str(mapping["data"]),
            model=_typed_spec(mapping["model"], "model"),
            value_fn=value_fn,
            background=background,
            order=order,
            points=points,
            seed=_parse_seed(mapping.get("seed", 0)),
            out=out,
            format=fmt,
        )


_CONFIG_KEYS = {f.name for f in fields(RunConfig)}


def _typed_spec(raw, where: str) -> dict:
    spec = {"type": raw} if isinstance(raw, str) else raw
    if not isinstance(spec, Mapping) or "type" not in spec:
        raise ConfigError(f"config: {where} must be an object with a 'type'")
    return dict(spec)


def _parse_background(raw) -> str | tuple[int, int]:
    if raw == "all":
        return "all"
    parts = raw.split(":") if isinstance(raw, str) else raw
    if isinstance(parts, Sequence) and len(parts) == 2:
        return _numbers(parts, "background", int)
    raise ConfigError(f"background: expected 'all', 'start:stop' or [start, stop], got {raw!r}")


def _parse_order(raw) -> int | str:
    if raw == "all":
        return "all"
    order = _number(raw, "order", int)
    if order < 1:
        raise ConfigError(f"order: must be >= 1, got {order}")
    return order


def _parse_points(raw) -> str | tuple[int, ...]:
    if raw == "all":
        return "all"
    if isinstance(raw, str) and raw.startswith("sample:"):
        if _number(raw.split(":", 1)[1], "points: sample size", int) < 1:
            raise ConfigError("points: sample size must be >= 1")
        return raw
    points = _numbers(raw.split(",") if isinstance(raw, str) else raw, "points", int)
    if not points:
        raise ConfigError("points: the list selects no rows")
    seen = set()
    for idx in points:
        if idx in seen:
            raise ConfigError(f"points: row {idx} is listed more than once")
        seen.add(idx)
    return points


def _parse_seed(raw) -> int:
    seed = _number(raw, "seed", int)
    if seed < 0:
        raise ConfigError(f"seed: must be >= 0, got {seed}")
    return seed


def read_config_document(path) -> dict:
    """The JSON object in a config file; an unreadable file is a ``ConfigError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: the config document must be a JSON object")
    return payload


def load_config(path) -> RunConfig:
    return RunConfig.from_mapping(read_config_document(path))


# ---------------------------------------------------------------------------
# Component grammar parsing
# ---------------------------------------------------------------------------


def _parse_factor(spec: Mapping, where: str):
    if not isinstance(spec, Mapping) or "kind" not in spec:
        raise ConfigError(f"{where}: each factor needs a 'kind'")
    kind = spec["kind"]
    if kind == "poly":
        _require_keys(spec, {"kind", "coeffs"}, {"coeffs"}, where)
        return PolyFactor(_numbers(spec["coeffs"], f"{where}: coeffs"))
    if kind == "sine":
        _require_keys(spec, {"kind", "frequency", "phase"}, set(), where)
        return SineFactor(
            _number(spec.get("frequency", 1.0), f"{where}: frequency"),
            _number(spec.get("phase", 0.0), f"{where}: phase"),
        )
    if kind == "step":
        _require_keys(spec, {"kind", "threshold"}, set(), where)
        return StepFactor(_number(spec.get("threshold", 0.0), f"{where}: threshold"))
    raise ConfigError(f"{where}: unknown factor kind {kind!r}")


def _parse_component(spec: Mapping, index: int):
    where = f"components[{index}]"
    if not isinstance(spec, Mapping) or "type" not in spec:
        raise ConfigError(f"{where}: each component needs a 'type'")
    ctype = spec["type"]
    if ctype == "constant":
        _require_keys(spec, {"type", "value"}, {"value"}, where)
        return ConstantComponent(_number(spec["value"], f"{where}: value"))
    if ctype == "term":
        _require_keys(spec, {"type", "features", "factors", "coefficient"}, {"features", "factors"}, where)
        features = _numbers(spec["features"], f"{where}: features", int)
        factors = tuple(_parse_factor(f, where) for f in _list(spec["factors"], f"{where}: factors"))
        coefficient = _number(spec.get("coefficient", 1.0), f"{where}: coefficient")
        return ProductComponent(features, factors, coefficient)
    if ctype == "lookup":
        _require_keys(spec, {"type", "features", "lo", "hi", "values"}, {"features", "lo", "hi", "values"}, where)
        features = _numbers(spec["features"], f"{where}: features", int)
        if len(features) > MAX_DIM:  # also bounds the nesting _grid descends
            raise ConfigError(f"{where}: a lookup takes at most {MAX_DIM} features")
        lo = _numbers(spec["lo"], f"{where}: lo")
        hi = _numbers(spec["hi"], f"{where}: hi")
        values = _grid(spec["values"], f"{where}: values", len(features))
        return LookupComponent(features, lo, hi, values)
    raise ConfigError(f"{where}: unknown component type {ctype!r}")


def parse_components(specs, dim: int) -> ComponentMap:
    if not isinstance(specs, Sequence) or isinstance(specs, (str, bytes)):
        raise ConfigError("components must be a list of component objects")
    try:
        return ComponentMap(dim, [_parse_component(spec, i) for i, spec in enumerate(specs)])
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"components: {exc}") from exc


# ---------------------------------------------------------------------------
# Model and value-function construction
# ---------------------------------------------------------------------------


def model_label_column(model_spec: Mapping) -> str | None:
    """The dataset column a model trains on, if any."""
    if model_spec.get("type") == "knn":
        label = model_spec.get("label")
        if not label:
            raise ConfigError("model: knn requires a 'label' column name")
        return str(label)
    return None


def _construct(build, *args, **kwargs):
    """Call a model constructor; a value it rejects is a config error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc


def build_model(spec: Mapping, dataset: Dataset) -> PredictFn:
    mtype = spec.get("type")
    where = "model"
    if mtype == "additive":
        _require_keys(spec, {"type", "components"}, {"components"}, where)
        return parse_components(spec["components"], dataset.dim)
    if mtype == "checkerboard":
        _require_keys(spec, {"type", "granularity", "active"}, set(), where)
        granularity = _number(spec.get("granularity", 2), "model: granularity", int)
        active = spec.get("active")
        active = None if active is None else _numbers(active, "model: active", int)
        return _construct(CheckerboardModel, dataset.dim, granularity, active)
    if mtype == "knn":
        _require_keys(spec, {"type", "k", "label"}, {"k", "label"}, where)
        if dataset.labels is None:
            raise ConfigError("model: knn needs the dataset loaded with its label column")
        return _construct(KnnModel, dataset.rows, dataset.labels, _number(spec["k"], "model: k", int))
    if mtype == "external":
        _require_keys(spec, {"type", "command", "timeout"}, {"command"}, where)
        timeout = _number(spec.get("timeout", 60.0), "model: timeout")
        return _construct(ExternalModel, str(spec["command"]), dataset.dim, timeout=timeout)
    raise ConfigError(f"model: unknown type {mtype!r}")


def build_value_function(
    spec: Mapping, model: PredictFn, dataset: Dataset, background: np.ndarray
) -> ValueFunction:
    vtype = spec.get("type")
    where = "value_fn"
    if vtype == "interventional":
        _require_keys(spec, {"type"}, set(), where)
        return InterventionalValueFunction(model, background)
    if vtype == "observational":
        _require_keys(spec, {"type"}, set(), where)
        return ObservationalExactMatchValueFunction(model, dataset.rows)
    if vtype == "gam":
        _require_keys(spec, {"type"}, set(), where)
        if not isinstance(model, ComponentMap):
            raise ConfigError(
                "value_fn: gam decomposes the model's own components; it needs an additive model"
            )
        return GamInducedValueFunction(model)
    raise ConfigError(f"value_fn: unknown type {vtype!r}")


def _resolve_background(config: RunConfig, dataset: Dataset) -> np.ndarray:
    if config.background == "all":
        return dataset.rows
    start, stop = config.background
    if not 0 <= start < stop <= len(dataset):
        raise ConfigError(
            f"background: row range {start}:{stop} needs 0 <= start < stop <= {len(dataset)}"
            f" (the dataset has {len(dataset)} rows)"
        )
    return dataset.rows[start:stop]


def _resolve_points(config: RunConfig, dataset: Dataset) -> list[int]:
    if config.points == "all":
        return list(range(len(dataset)))
    if isinstance(config.points, str):  # "sample:N"
        count = int(config.points.split(":", 1)[1])
        if count > len(dataset):
            raise ConfigError(
                f"points: cannot sample {count} of {len(dataset)} rows"
            )
        rng = np.random.default_rng(config.seed)
        return sorted(int(i) for i in rng.choice(len(dataset), size=count, replace=False))
    out = []
    for idx in config.points:
        if not 0 <= idx < len(dataset):
            raise ConfigError(f"points: row {idx} out of range (dataset has {len(dataset)})")
        out.append(idx)
    return out


def _resolve_orders(config: RunConfig, dim: int) -> list[int]:
    if config.order == "all":
        return list(range(1, dim + 1))
    if config.order > dim:
        raise ConfigError(f"order: {config.order} exceeds the data dimension {dim}")
    return [config.order]


@dataclass(frozen=True)
class _Prepared:
    dataset: Dataset
    model: PredictFn
    value_fn: ValueFunction
    point_ids: list[int]
    orders: list[int]


def _prepare(config: RunConfig) -> _Prepared:
    label = model_label_column(config.model)
    dataset = load_csv(config.data, label_column=label)
    if not 1 <= dataset.dim <= MAX_DIM:
        raise ConfigError(
            f"data: {config.data} has {dataset.dim} feature columns"
            f"{' besides the label' if label else ''}, expected 1 to {MAX_DIM}"
        )
    model = build_model(config.model, dataset)
    background = _resolve_background(config, dataset)
    value_fn = build_value_function(config.value_fn, model, dataset, background)
    return _Prepared(
        dataset=dataset,
        model=model,
        value_fn=value_fn,
        point_ids=_resolve_points(config, dataset),
        orders=_resolve_orders(config, dataset.dim),
    )


@contextlib.contextmanager
def _point(point_id: int) -> Iterator[None]:
    """The one boundary of a point's computation: a documented failure inside names the point."""
    try:
        yield
    except (NoMatchingRows, NonFiniteValue, ProcessFailed, ProtocolTimeout) as exc:
        raise RunError(f"point {point_id}: {exc}") from exc


def _value_table(prepared: _Prepared, point_id: int) -> ValueTable:
    return build_value_table(prepared.value_fn, prepared.dataset.rows[point_id])


def _explain_point(prepared: _Prepared, point_id: int) -> ShapleyGam:
    with _point(point_id):
        return shapley_gam(_value_table(prepared, point_id))


def _indices_for_gam(
    gam: ShapleyGam, orders: list[int], part: list[int] | None = None
) -> list[InteractionIndex]:
    """The indices of ``part``, a slice of ``orders`` (all of it by default).

    Each takes the route the whole list takes, so the indices of a part
    are those the whole list gives: every order shares the layer sweeps
    of ``n_shapley_all_orders``, whose order-d record is "from-gam".
    """
    part = orders if part is None else part
    if orders == list(range(1, gam.dim + 1)):
        return n_shapley_all_orders(gam, part)
    return [gam if order == gam.dim else n_shapley_from_gam(gam, order) for order in part]


def _indices_for_point(prepared: _Prepared, point_id: int) -> list[InteractionIndex]:
    with _point(point_id):  # the table is freed before the orders' arrays are built
        return _indices_for_gam(shapley_gam(_value_table(prepared, point_id)), prepared.orders)


# A point's orders are split between this process and a forked child
# only when its records cover at least this many coalitions over at
# least two orders; below it a fork costs more than the child saves.
# Each configured order 1..n covers sum(comb(d, k), k = 1..n) coalitions.
_SPLIT_COALITIONS = 2**15
# The parent computes and writes the lowest orders whose records hold
# at most this share of the point's coalitions (at least one order);
# the child computes and writes the rest. Measured on one d=16 point
# with `order: all` (589,807 coalitions) on two cores: orders 1-10
# (199,966 coalitions) took 0.27-0.28 s in the parent and 0.28-0.34 s
# in the child; with orders 1-9 the child took 0.36-0.43 s, with orders
# 1-11 the parent took 0.32-0.40 s.
_HEAD_SHARE = 0.4


def _head_orders(dim: int, orders: list[int]) -> int:
    """How many of ``orders``, from the first, this process computes: all unless split."""
    sizes = [sum(math.comb(dim, k) for k in range(1, order + 1)) for order in orders]
    if len(orders) < 2 or sum(sizes) < _SPLIT_COALITIONS or not _two_cpus():
        return len(orders)
    bound = _HEAD_SHARE * sum(sizes)
    return max(1, sum(covered <= bound for covered in itertools.accumulate(sizes)))


def _two_cpus() -> bool:
    """Whether ``os.fork`` exists and this process may run on two CPUs."""
    affinity = getattr(os, "sched_getaffinity", None)
    return hasattr(os, "fork") and affinity is not None and len(affinity(0)) >= 2


@contextlib.contextmanager
def _forked(write: Callable[[TextIO], None], flush: Callable[[], None]):
    """Run ``write`` on an unlinked temporary file in a forked child.

    Yields ``join``, which reaps the child and returns the file it
    wrote, or None when fork failed or the child did not exit 0. The
    child calls no model and no BLAS routine, and leaves by ``os._exit``
    alone: no atexit handler, buffer flush or finalizer runs in it. A
    child not reaped when the block ends (the parent raised) is killed
    and reaped before the exception leaves.
    """
    with tempfile.TemporaryFile() as part:
        flush()
        try:
            pid = os.fork()
        except OSError:
            yield lambda: None
            return
        if pid == 0:
            code = 1
            try:
                with open(part.fileno(), "w", encoding="utf-8", newline="\n", closefd=False) as fh:
                    write(fh)
                code = 0
            finally:
                os._exit(code)
        reaped = False

        def join() -> BinaryIO | None:
            nonlocal reaped
            status = os.waitpid(pid, 0)[1]
            reaped = True
            return part if os.waitstatus_to_exitcode(status) == 0 else None

        try:
            yield join
        finally:
            if not reaped:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _handed_over(pid: int, gam: ShapleyGam, orders: list[int], part: list[int]):
    """(point, index) of the orders in ``part``, each dropped here once handed over."""
    with _point(pid):
        indices = _indices_for_gam(gam, orders, part)
    while indices:
        yield pid, indices.pop(0)


def _labelled_items(prepared: _Prepared, write_part, flush=lambda: None):
    """(point, item) of every configured point and order, one point computed at a time.

    An item is an index; the writer holds the only reference and frees
    it once its record is written. A point split by ``_head_orders``
    has its upper orders computed in a forked child, which writes them
    with ``write_part(labelled, fh)`` while this process computes and
    hands over the lower ones; they then come as one ``WrittenPart``.
    Should the child fail, this process computes them itself, so every
    error is the one a serial run raises.
    """
    orders = prepared.orders
    for pid in prepared.point_ids:
        with _point(pid):
            gam = shapley_gam(_value_table(prepared, pid))
        head = _head_orders(gam.dim, orders)
        tail = orders[head:]
        if not tail:
            yield from _handed_over(pid, gam, orders, orders)
            continue
        with _forked(
            lambda fh: write_part(_handed_over(pid, gam, orders, tail), fh), flush
        ) as join:
            yield from _handed_over(pid, gam, orders, orders[:head])
            written = join()
            if written is None:
                yield from _handed_over(pid, gam, orders, tail)
            else:
                yield pid, WrittenPart(written)


def run_explain(config: RunConfig, full_order_only: bool = False) -> str | None:
    """Compute the configured indices and write or return them.

    Output is a JSON array of per-point, per-order records (or a flat
    CSV), deterministic given the configuration bytes. Points are
    computed and written one at a time; the upper orders of a large
    point are computed and written by a forked child (``_labelled_items``).
    With ``config.out`` the records stream into that file, which is
    replaced only when the whole run succeeds, and the result is None;
    otherwise the text is returned.
    """
    prepared = _prepare(config)
    if full_order_only:
        prepared = replace(prepared, orders=[prepared.dataset.dim])
    csv = config.format == "csv"

    def items(labelled):  # what the format's writer takes
        return labelled if csv else (index for _, index in labelled)

    def write_part(labelled, fh):
        (emit_csv if csv else emit_records)(items(labelled), fh, continued=True)

    with prepared.model:
        if not config.out:
            with contextlib.closing(_labelled_items(prepared, write_part)) as labelled:
                return (dumps_csv if csv else dumps_records)(items(labelled))
        with results_file(config.out) as fh:
            with contextlib.closing(_labelled_items(prepared, write_part, fh.flush)) as labelled:
                (emit_csv if csv else emit_records)(items(labelled), fh)
    return None


def run_gam(config: RunConfig) -> str | None:
    """Indices at full order only: the decomposition per point."""
    return run_explain(config, full_order_only=True)


def run_degree(config: RunConfig) -> str:
    """Interaction-degree report over the selected points."""
    prepared = _prepare(config)
    with prepared.model:
        if not config.out:
            return _degree_text(config, prepared)
        with results_file(config.out) as fh:
            text = _degree_text(config, prepared)
            fh.write(text)
    return text


def _degree_text(config: RunConfig, prepared: _Prepared) -> str:
    report = interaction_degree(_explain_point(prepared, pid) for pid in prepared.point_ids)
    if config.format == "csv":
        lines = ["point,degree"]
        lines.extend(
            f"{pid},{deg!r}"
            for pid, deg in zip(prepared.point_ids, report.per_point.tolist())
        )
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "count": report.per_point.size,
            "mean_degree": report.mean_degree,
            "pooled_degree": report.pooled_degree,
            "quantiles": dict(report.quantiles),
            "order_mass_share": [float(v) for v in report.order_mass_share],
            "per_point": {
                str(pid): float(deg)
                for pid, deg in zip(prepared.point_ids, report.per_point)
            },
        }
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    return text


def run_check(config: RunConfig) -> tuple[str, bool]:
    """Efficiency, dual-path and recovery suites on the configured run.

    Returns the report text and whether every check passed, each within
    1e-9 times max(1, |v(full)|) of its point. The slow cross-validation
    routes run once per point, up to dim 10, and the brute-force
    per-feature oracle up to dim 12.
    """
    prepared = _prepare(config)
    with prepared.model:
        if not config.out:
            return _check_report(prepared)
        with results_file(config.out) as fh:
            text, ok = _check_report(prepared)
            fh.write(text)
    return text, ok


def _check_report(prepared: _Prepared) -> tuple[str, bool]:
    d = prepared.dataset.dim
    tol = 1e-9
    lines = []
    ok = True

    def record(name: str, passed: bool, detail: str):
        nonlocal ok
        ok = ok and passed
        lines.append(f"{'PASS' if passed else 'FAIL'}  {name}  {detail}")

    def check_point(pid: int, table: ValueTable):
        gam = shapley_gam(table)
        v_gap = float(table.values[-1] - table.values[0])
        scale = max(1.0, abs(float(table.values[-1])))
        indices = dict(zip(prepared.orders, _indices_for_gam(gam, prepared.orders)))
        for order, phi in indices.items():
            eff = abs(phi.total() - v_gap)
            record(
                f"efficiency point={pid} order={order}",
                eff <= tol * scale,
                f"gap={eff:.3e}",
            )
        recon = abs(gam.prediction() - float(table.values[-1]))
        record(f"decomposition-sum point={pid}", recon <= tol * scale, f"gap={recon:.3e}")
        if d <= 10:
            deltas = core.delta_all(table)  # one measure serves both routes
            recursive = n_shapley_recursive(table, max(prepared.orders), deltas)
            explicit = n_shapley_explicit(table, max(prepared.orders), deltas)
            for order, combined in indices.items():
                direct = recursive[order - 1].values
                unrolled = explicit[order - 1].values
                gap = float(
                    max(np.abs(direct - combined.values).max(), np.abs(direct - unrolled).max())
                )
                record(
                    f"dual-path point={pid} order={order}", gap <= tol * scale, f"gap={gap:.3e}"
                )
        if d <= 12:
            oracle = classic_shapley_oracle(table)
            order_one = indices[1] if 1 in indices else n_shapley_from_gam(gam, 1)
            gap = float(np.abs(order_one.values[1 << np.arange(d)] - oracle).max())
            record(f"order-1-oracle point={pid}", gap <= tol * scale, f"gap={gap:.3e}")
        for order, phi in indices.items():
            if order < d:
                report = recovery_check(gam, phi)
                lines.append(
                    f"INFO  recovery point={pid} order={order}  "
                    f"max-above-order={report.max_component_above_order:.3e} "
                    f"attribution-gap={report.max_attribution_gap:.3e}"
                )

    for pid in prepared.point_ids:
        with _point(pid):
            check_point(pid, _value_table(prepared, pid))
    return "\n".join(lines) + "\n", ok


def run_plot(config: RunConfig, mode: str, feature: int | None) -> list[str]:
    """Render bar or dependence figures into ``config.out``; returns the paths written.

    Every point is computed before any figure is written, so a failed
    point leaves none. ``dependence`` keeps one (x_f, Phi_f) pair per
    point and order, not the points' indices. An ``out`` ending in
    ``.svg`` names the one figure of a run that makes one (bars: points
    x orders, dependence: orders); for more it is an error, raised
    before any point is computed.
    """
    out = config.out
    if not out:
        raise ConfigError("plot: --out is required")
    if mode not in ("bars", "dependence"):
        raise ConfigError(f"plot: unknown mode {mode!r} (expected bars|dependence)")
    if mode == "bars" and feature is not None:
        raise ConfigError(f"plot: bars takes no feature index, got {feature}")
    prepared = _prepare(config)
    dim = prepared.dataset.dim
    if mode == "dependence" and (feature is None or not 0 <= feature < dim):
        raise ConfigError(f"plot: dependence needs a feature index in 0..{dim - 1}, got {feature}")
    count = len(prepared.orders) * (len(prepared.point_ids) if mode == "bars" else 1)
    single = out.endswith(".svg")
    if single and count > 1:
        raise ConfigError(
            f"plot: --out {out} names one .svg file, but this run makes {count} figures; "
            "give a directory"
        )
    figures: dict = {}  # file stem -> its index (bars), or its pair of each point
    with prepared.model:
        for pid in prepared.point_ids:
            for index in _indices_for_point(prepared, pid):
                if mode == "bars":
                    figures[f"bars_point{pid}_order{index.order}"] = index
                else:
                    stem = f"dependence_feature{feature}_order{index.order}"
                    figures.setdefault(stem, []).append(partial_dependence([index], feature))
    if not single:
        os.makedirs(out, exist_ok=True)
    written: list[str] = []
    for stem, figure in figures.items():
        svg_path = out if single else os.path.join(out, stem + ".svg")
        if mode == "bars":
            emit_stacked_bars(figure, svg_path, feature_names=prepared.dataset.columns)
            written.append(svg_path)
            continue
        csv_path = svg_path[: -len(".svg")] + ".csv"
        x = np.concatenate([pair.x for pair in figure])
        phi = np.concatenate([pair.phi for pair in figure])
        emit_dependence(DependenceSeries(feature, figure[0].order, x, phi), csv_path, svg_path)
        written.extend([csv_path, svg_path])
    return written
