"""Output checks for the pipeline benchmark's workloads.

Every check works with tolerances rather than golden digests, so a
change that only moves the last bits of a result (a different
summation order, a structured value table) still passes, while a wrong
value fails. ``check_output`` returns a list of problems; an empty list
means the output is correct.
"""

from __future__ import annotations

import csv
import io
import json
from math import comb
from pathlib import Path

import numpy as np

from workloads import DATA_NAME, WEIGHTS_NAME, Generated

TOL = 1e-9
DEGREE_TOL = 1e-12


def load_rows(directory: Path) -> np.ndarray:
    return np.loadtxt(directory / DATA_NAME, delimiter=",", skiprows=1, ndmin=2)


def _masks(keys) -> tuple[np.ndarray, np.ndarray]:
    """Bitmasks and cardinalities of comma-joined subset keys."""
    members = [[int(i) for i in key.split(",")] for key in keys]
    masks = np.array([sum(1 << i for i in m) for m in members], dtype=np.int64)
    sizes = np.array([len(m) for m in members], dtype=np.int64)
    return masks, sizes


def _expected_entries(dim: int, order: int) -> int:
    return sum(comb(dim, k) for k in range(1, order + 1))


def _check_explain_additive(gen: Generated, data: bytes) -> list[str]:
    rows = load_rows(gen.directory)
    dim = rows.shape[1]
    point_ids = gen.config["points"]
    records = json.loads(data)
    if len(records) != len(point_ids) * dim:
        return [f"expected {len(point_ids) * dim} records, got {len(records)}"]
    problems = []
    for p, pid in enumerate(point_ids):
        group = records[p * dim : (p + 1) * dim]
        if [rec["order"] for rec in group] != list(range(1, dim + 1)):
            problems.append(f"point {pid}: records are not orders 1..{dim}")
            continue
        if any(rec["point"] != rows[pid].tolist() for rec in group):
            problems.append(f"point {pid}: record point differs from data row {pid}")
        for rec in group:
            if len(rec["values"]) != _expected_entries(dim, rec["order"]):
                problems.append(f"point {pid} order {rec['order']}: wrong entry count")
        full = group[-1]
        masks, sizes = _masks(full["values"])
        comps = np.array(list(full["values"].values()))
        scale = max(1.0, abs(full["baseline"]), float(np.abs(comps).max()))
        above = float(np.abs(comps[sizes > 3]).max())
        if above > TOL * scale:
            problems.append(f"point {pid}: component of size > 3 is {above:.3e}")
        prediction = full["baseline"] + float(comps.sum())
        for rec in group:
            total = rec["baseline"] + float(np.sum(list(rec["values"].values())))
            if abs(total - prediction) > TOL * scale:
                problems.append(
                    f"point {pid} order {rec['order']}: baseline + total {total!r} "
                    f"differs from the decomposition's {prediction!r}"
                )
        bits = (masks[:, None] >> np.arange(dim)) & 1
        even_split = bits.T @ (comps / sizes)
        order_one = np.array([group[0]["values"][str(i)] for i in range(dim)])
        gap = float(np.abs(order_one - even_split).max())
        if gap > TOL * scale:
            problems.append(f"point {pid}: order-1 values miss the even split by {gap:.3e}")
    return problems


def _check_degree_external(gen: Generated, data: bytes) -> list[str]:
    # The in-process route: the same MLP as a PredictFn, no pipe.
    from nshapley import (
        InterventionalValueFunction,
        PredictFn,
        build_value_table,
        interaction_degree,
        shapley_gam,
    )

    from mlp_child import mlp

    rows = load_rows(gen.directory)
    weights = json.loads((gen.directory / WEIGHTS_NAME).read_text(encoding="utf-8"))

    class InProcessMlp(PredictFn):
        dim = rows.shape[1]

        def predict_batch(self, points):
            return mlp(weights, np.asarray(points, dtype=np.float64))

    start, stop = (int(v) for v in gen.config["background"].split(":"))
    value_fn = InterventionalValueFunction(InProcessMlp(), rows[start:stop])
    point_ids = gen.config["points"]
    report = interaction_degree(
        [shapley_gam(build_value_table(value_fn, rows[pid])) for pid in point_ids]
    )
    payload = json.loads(data)
    if payload["count"] != len(point_ids) or set(payload["per_point"]) != {
        str(pid) for pid in point_ids
    }:
        return ["degree report does not cover exactly the configured points"]
    problems = []
    for pid, expected in zip(point_ids, report.per_point.tolist()):
        got = payload["per_point"][str(pid)]
        if abs(got - expected) > DEGREE_TOL:
            problems.append(f"point {pid}: degree {got!r}, in-process route gives {expected!r}")
    if abs(payload["mean_degree"] - report.mean_degree) > DEGREE_TOL:
        problems.append("mean degree differs from the in-process route")
    return problems


def additive_predictions(components: list[dict], rows: np.ndarray) -> np.ndarray:
    """Independent evaluation of constant and polynomial-product components."""
    out = np.zeros(rows.shape[0])
    for comp in components:
        if comp["type"] == "constant":
            out += comp["value"]
            continue
        term = np.full(rows.shape[0], comp.get("coefficient", 1.0))
        for feature, factor in zip(comp["features"], comp["factors"]):
            if factor["kind"] != "poly":
                raise ValueError(f"no reference evaluation for factor kind {factor['kind']!r}")
            term *= np.polynomial.polynomial.polyval(rows[:, feature], factor["coeffs"])
        out += term
    return out


def _check_explain_observational(gen: Generated, data: bytes) -> list[str]:
    rows = load_rows(gen.directory)
    dim = rows.shape[1]
    order = gen.config["order"]
    preds = additive_predictions(gen.config["model"]["components"], rows)
    scale = max(1.0, float(np.abs(preds).max()))
    table = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    if table[0] != ["point", "order", "set", "value"]:
        return ["CSV header is not point,order,set,value"]
    by_point: dict[int, dict[str, float]] = {}
    for pid, row_order, key, value in table[1:]:
        if int(row_order) != order:
            return [f"CSV row of order {row_order}, expected {order}"]
        by_point.setdefault(int(pid), {})[key] = float(value)
    if sorted(by_point) != sorted(gen.config["points"]):
        return ["CSV does not cover exactly the configured points"]
    problems = []
    for pid, entries in by_point.items():
        if len(entries) != 1 + _expected_entries(dim, order):
            problems.append(f"point {pid}: wrong entry count")
            continue
        baseline = entries.pop("")
        if abs(baseline - preds.mean()) > TOL * scale:
            problems.append(f"point {pid}: baseline {baseline!r} is not the mean prediction")
        matching = preds[np.all(rows == rows[pid], axis=1)].mean()
        total = baseline + float(np.sum(list(entries.values())))
        if abs(total - matching) > TOL * scale:
            problems.append(
                f"point {pid}: baseline + total {total!r} is not the mean prediction "
                f"over matching rows {matching!r}"
            )
    return problems


def _check_check_checkerboard(gen: Generated, data: bytes) -> list[str]:
    dim = load_rows(gen.directory).shape[1]
    lines = data.decode("utf-8").splitlines()
    # per point: efficiency and dual-path at every order, decomposition-sum, oracle
    expected = len(gen.config["points"]) * (2 * dim + 2)
    passes = sum(line.startswith("PASS") for line in lines)
    fails = [line for line in lines if line.startswith("FAIL")]
    problems = [f"FAIL line: {line}" for line in fails]
    if passes != expected:
        problems.append(f"expected {expected} PASS lines, got {passes}")
    return problems


_CHECKS = {
    "explain-additive-d16": _check_explain_additive,
    "degree-external-d12": _check_degree_external,
    "explain-observational-d14": _check_explain_observational,
    "check-checkerboard-d10": _check_check_checkerboard,
}


def check_output(gen: Generated, data: bytes) -> list[str]:
    """Problems found in one run's output (file bytes, or stdout for ``check``)."""
    try:
        return _CHECKS[gen.workload.name](gen, data)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
