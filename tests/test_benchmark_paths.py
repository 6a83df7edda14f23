"""What the pipeline benchmark runs and patches, pinned in tier-1.

``perfbench/`` runs the CLI on workloads that reach parts of
``nshapley.config`` no other test runs (an observational CSV run, a
``lookup`` component, ``check --out``). Its traced pass swaps names in
``nshapley.config`` and ``nshapley.core`` for timed wrappers and calls
a few kernels and helpers directly, so those names are part of the
surface a refactor has to keep; the tests below fail when one goes.
"""

import contextlib
import json
from collections import Counter
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from nshapley import _kernels, config, core, datasets, lattice
from nshapley.cli import main
from nshapley.core import n_shapley_all_orders, n_shapley_from_gam, shapley_gam
from nshapley.models import (
    ComponentMap,
    ConstantComponent,
    LookupComponent,
    PolyFactor,
    ProductComponent,
)
from nshapley.serialize import dumps_csv, dumps_records
from nshapley.valuefn import (
    InterventionalValueFunction,
    ObservationalExactMatchValueFunction,
    ValueTable,
    build_value_table,
)

GOLDEN = Path(__file__).resolve().parent / "golden"

# the names perfbench/trace_run.py swaps in nshapley.config, then the ones it calls there
PATCHED_CONFIG_NAMES = [
    "load_csv",
    "build_model",
    "build_value_function",
    "build_value_table",
    "shapley_gam",
    "n_shapley_all_orders",
    "n_shapley_from_gam",
    "dumps_records",
    "interaction_degree",
    "n_shapley_recursive",
    "n_shapley_explicit",
    "classic_shapley_oracle",
    "recovery_check",
]
CALLED_CONFIG_NAMES = ["run_explain", "run_degree", "run_check", "load_config", "model_label_column"]
TIMED_KERNELS = [
    "zeta_subsets",
    "moebius_subsets",
    "zeta_supersets",
    "interp_multilinear",
    "delta_weighted",
]


def _write_rows(path: Path, rows: np.ndarray) -> None:
    header = ",".join(f"f{i}" for i in range(rows.shape[1]))
    lines = [header] + [",".join(repr(v) for v in row) for row in rows.tolist()]
    path.write_text("\n".join(lines) + "\n")


def _run(capsys, *argv) -> tuple[int, str]:
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


def test_observational_csv_run_equals_the_library_pipeline(tmp_path, capsys):
    rows = np.random.default_rng(0).integers(0, 3, size=(40, 4)).astype(np.float64)
    data = tmp_path / "data.csv"
    _write_rows(data, rows)
    spec = {
        "type": "additive",
        "components": [
            {"type": "constant", "value": 0.25},
            *[
                {"type": "term", "features": [i], "factors": [{"kind": "poly", "coeffs": [0, 1, -0.5]}]}
                for i in range(4)
            ],
            {
                "type": "term",
                "features": [1, 3],
                "factors": [{"kind": "poly", "coeffs": [0.5, 1]}] * 2,
                "coefficient": -1.5,
            },
        ],
    }
    out = tmp_path / "out.csv"
    code, _ = _run(
        capsys, "explain", "--data", data, "--model", json.dumps(spec),
        "--value-fn", "observational", "--order", 2, "--points", "3,17,29",
        "--format", "csv", "--out", out,
    )
    assert code == 0
    square = PolyFactor((0.0, 1.0, -0.5))
    model = ComponentMap(4, [
        ConstantComponent(0.25),
        *[ProductComponent((i,), (square,)) for i in range(4)],
        ProductComponent((1, 3), (PolyFactor((0.5, 1.0)),) * 2, -1.5),
    ])
    value_fn = ObservationalExactMatchValueFunction(model, rows)
    expected = dumps_csv(
        (pid, n_shapley_from_gam(shapley_gam(build_value_table(value_fn, rows[pid])), 2))
        for pid in (3, 17, 29)
    )
    assert out.read_text() == expected


def test_interventional_run_with_a_lookup_term_equals_the_library_records(tmp_path, capsys):
    rows = np.round(np.random.default_rng(1).uniform(-1.2, 1.2, size=(10, 3)), 4)
    data = tmp_path / "data.csv"
    _write_rows(data, rows)
    grid = np.round(np.random.default_rng(2).normal(size=(4, 3)), 6)
    spec = {
        "type": "additive",
        "components": [
            {"type": "term", "features": [1], "factors": [{"kind": "poly", "coeffs": [0, 2]}]},
            {
                "type": "lookup",
                "features": [0, 2],
                "lo": [-1.0, -1.0],
                "hi": [1.0, 1.0],
                "values": grid.tolist(),
            },
        ],
    }
    code, text = _run(
        capsys, "explain", "--data", data, "--model", json.dumps(spec),
        "--value-fn", "interventional", "--background", "0:6", "--points", "6,7,8,9",
    )
    assert code == 0
    model = ComponentMap(3, [
        ProductComponent((1,), (PolyFactor((0.0, 2.0)),)),
        LookupComponent((0, 2), (-1.0, -1.0), (1.0, 1.0), grid),
    ])
    value_fn = InterventionalValueFunction(model, rows[:6])
    expected = dumps_records(
        index
        for pid in range(6, 10)
        for index in n_shapley_all_orders(shapley_gam(build_value_table(value_fn, rows[pid])))
    )
    assert text == expected
    assert model.components[1].clamped_evaluations > 0  # rows beyond the grid took part


# Model values near 1e9: the dual-path and order-1-oracle gaps reach about
# 1e-7, which the tolerance scaled by |v(full)| accepts as rounding.
LARGE_PRODUCT = {
    "type": "additive",
    "components": [
        {
            "type": "term",
            "features": [0, 1, 2],
            "factors": [{"kind": "poly", "coeffs": [0.3, 1]}] * 3,
            "coefficient": 1e9,
        }
    ],
}


@pytest.mark.parametrize("case", ["golden", "large-product"])
def test_check_out_writes_the_report_it_prints(case, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    argv = ["check", "--config", "run.json"]
    if case == "large-product":
        argv += ["--model", json.dumps(LARGE_PRODUCT), "--order", "all"]
    code, printed = _run(capsys, *argv)
    out = tmp_path / "check.txt"
    code_out, printed_out = _run(capsys, *argv, "--out", out)
    assert (code_out, printed_out) == (code, printed)
    assert out.read_text() == printed
    assert code == 0 and "FAIL" not in printed


def test_the_names_the_benchmark_uses_are_there(monkeypatch):
    for name in PATCHED_CONFIG_NAMES + CALLED_CONFIG_NAMES:
        assert callable(getattr(config, name)), name
    for name in TIMED_KERNELS:
        assert callable(getattr(_kernels, name)), name
    assert callable(core.delta_all)
    # setup_probe.py: set-up only, through these calls
    monkeypatch.chdir(GOLDEN)
    cfg = config.load_config("run.json")
    dataset = datasets.load_csv(cfg.data, label_column=config.model_label_column(cfg.model))
    model = config.build_model(cfg.model, dataset)
    start, stop = cfg.background
    value_fn = config.build_value_function(cfg.value_fn, model, dataset, dataset.rows[start:stop])
    # trace_run.py: the table's SubsetTable through moebius_transform, then the kernels
    table = build_value_table(value_fn, dataset.rows[cfg.points[0]])
    assert isinstance(table, ValueTable)
    components = lattice.moebius_transform(table.table)
    assert np.array_equal(components.values[1:], shapley_gam(table).values[1:])
    values, dim = table.values, table.dim
    for sweep in (_kernels.zeta_subsets, _kernels.moebius_subsets, _kernels.zeta_supersets):
        assert sweep(values, dim).shape == values.shape
    interp_args = (
        np.zeros((4, 3)), np.zeros(3), np.full(3, 0.25), np.full(3, 5, dtype=np.int64),
        np.zeros(125),
    )
    out, clamped = _kernels.interp_multilinear(*interp_args)
    assert out.shape == (4,) and clamped == 0
    weights = np.ones((dim + 1, dim + 1))
    assert _kernels.delta_weighted(values, dim, weights).shape == values.shape


def test_names_patched_as_the_benchmark_patches_them_are_the_ones_runs_call(
    tmp_path, monkeypatch
):
    monkeypatch.chdir(GOLDEN)
    calls = Counter()

    def counted(name, fn):
        return lambda *args, **kwargs: calls.update([name]) or fn(*args, **kwargs)

    with contextlib.ExitStack() as stack:
        for name in PATCHED_CONFIG_NAMES:
            stack.enter_context(
                mock.patch.object(config, name, counted(name, getattr(config, name)))
            )
        stack.enter_context(
            mock.patch.object(core, "delta_all", counted("delta_all", core.delta_all))
        )
        cfg = config.load_config("run.json")
        config.run_explain(cfg)  # all orders, returned as text
        config.run_explain(replace(cfg, order=2, out=str(tmp_path / "out.json")))
        config.run_degree(cfg)
        config.run_check(cfg)
    assert set(calls) == {*PATCHED_CONFIG_NAMES, "delta_all"}
    # the golden run explains two points; check builds one measure per point
    assert calls["build_value_table"] == 8 and calls["delta_all"] == 2
