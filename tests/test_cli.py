"""The command line surface, end to end."""

import json
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from nshapley.cli import main
from nshapley.config import ConfigError, RunConfig, load_config, run_explain
from nshapley.serialize import read_records

REPO_ROOT = Path(__file__).resolve().parent.parent

PRODUCT_MODEL = {
    "type": "additive",
    "components": [
        {
            "type": "term",
            "features": [0, 1],
            "factors": [
                {"kind": "poly", "coeffs": [0, 1]},
                {"kind": "poly", "coeffs": [0, 1]},
            ],
        }
    ],
}


@pytest.fixture
def product_fixture(tmp_path):
    """Centered two-feature product background plus the explained point (3, 4)."""
    data = tmp_path / "data.csv"
    data.write_text(
        "f0,f1\n1,1\n1,-1\n-1,1\n-1,-1\n3,4\n"
    )
    return data


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_explain_product_fixture(product_fixture, tmp_path, capsys):
    out = tmp_path / "results.json"
    code = run_cli(
        "explain",
        "--data", product_fixture,
        "--model", json.dumps(PRODUCT_MODEL),
        "--value-fn", "interventional",
        "--background", "0:4",
        "--order", "1",
        "--points", "4",
        "--out", out,
    )
    assert code == 0
    records = read_records(out)
    assert len(records) == 1
    phi = records[0]
    assert phi.order == 1
    assert phi.value(0b01) == pytest.approx(6.0, abs=1e-12)  # ab/2 with a=3, b=4
    assert phi.value(0b10) == pytest.approx(6.0, abs=1e-12)
    assert list(phi.point) == [3.0, 4.0]


def test_explain_all_orders_yields_one_record_per_order(tmp_path):
    data = tmp_path / "d4.csv"
    rows = ["a,b,c,d"]
    rng = np.random.default_rng(0)
    for _ in range(10):
        rows.append(",".join(repr(v) for v in rng.uniform(-1, 1, 4).tolist()))
    data.write_text("\n".join(rows) + "\n")
    out = tmp_path / "results.json"
    model = {
        "type": "additive",
        "components": [
            {"type": "term", "features": [0], "factors": [{"kind": "sine"}]},
            {
                "type": "term",
                "features": [1, 2],
                "factors": [{"kind": "step"}, {"kind": "poly", "coeffs": [0, 1]}],
            },
        ],
    }
    code = run_cli(
        "explain",
        "--data", data,
        "--model", json.dumps(model),
        "--value-fn", "interventional",
        "--order", "all",
        "--points", "0",
        "--out", out,
    )
    assert code == 0
    records = read_records(out)
    assert [r.order for r in records] == [1, 2, 3, 4]
    # efficiency carries through the serialized records
    for r in records:
        assert r.total() == pytest.approx(records[-1].total(), abs=1e-9)


def test_rerun_is_byte_identical(product_fixture, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = [
        "explain",
        "--data", product_fixture,
        "--model", json.dumps(PRODUCT_MODEL),
        "--value-fn", "interventional",
        "--background", "0:4",
        "--order", "all",
        "--points", "4",
    ]
    assert run_cli(*args, "--out", out1) == 0
    assert run_cli(*args, "--out", out2) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_config_file_with_flag_override(product_fixture, tmp_path):
    config = {
        "data": str(product_fixture),
        "model": PRODUCT_MODEL,
        "value_fn": {"type": "interventional"},
        "background": "0:4",
        "order": 2,
        "points": [4],
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "results.json"
    assert run_cli("explain", "--config", cfg_path, "--order", "1", "--out", out) == 0
    records = read_records(out)
    assert [r.order for r in records] == [1]


def test_unknown_config_key_is_an_error(product_fixture, tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(
        json.dumps(
            {
                "data": str(product_fixture),
                "model": PRODUCT_MODEL,
                "value_fn": "interventional",
                "ordre": 1,
            }
        )
    )
    assert run_cli("explain", "--config", cfg_path) == 2
    assert "ordre" in capsys.readouterr().err


def test_svg_is_not_a_results_format(product_fixture, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(
            "degree",
            "--data", product_fixture,
            "--model", json.dumps(PRODUCT_MODEL),
            "--value-fn", "interventional",
            "--format", "svg",
        )
    assert exc.value.code == 2
    config = {
        "data": str(product_fixture),
        "model": PRODUCT_MODEL,
        "value_fn": "interventional",
        "format": "svg",
    }
    with pytest.raises(ConfigError, match=r"json\|csv,"):
        RunConfig.from_mapping(config)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli("explain", "--config", cfg_path) == 2
    assert "format" in capsys.readouterr().err


def test_value_fn_types_have_no_aliases(product_fixture, tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(
        json.dumps(
            {
                "data": str(product_fixture),
                "model": PRODUCT_MODEL,
                "value_fn": "observational-exactmatch",
                "points": [4],
            }
        )
    )
    with pytest.raises(ConfigError, match="unknown type 'observational-exactmatch'"):
        run_explain(load_config(cfg_path))
    assert run_cli("explain", "--config", cfg_path) == 2
    assert "observational-exactmatch" in capsys.readouterr().err


def _product_config(product_fixture, **changes):
    config = {
        "data": str(product_fixture),
        "model": PRODUCT_MODEL,
        "value_fn": "interventional",
        "background": "0:4",
        "order": 1,
        "points": [4],
    }
    config.update(changes)
    return config


def _poly_model(coeffs):
    factor = {"kind": "poly", "coeffs": coeffs}
    term = {"type": "term", "features": [0], "factors": [factor]}
    return {"type": "additive", "components": [term]}


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"model": {"type": "checkerboard", "granularity": "x"}}, "granularity"),
        ({"model": {"type": "checkerboard", "granularity": 3}}, "granularity"),
        ({"model": _poly_model([0, "q"])}, "'q'"),
        ({"background": [0, "z"]}, "'z'"),
        ({"seed": "abc"}, "'abc'"),
        ({"order": 2.7}, "2.7"),
        ({"points": [0.9]}, "0.9"),
        ({"model": {"type": "additive", "components": [
            {"type": "term", "features": [0], "factors": 7}]}}, "factors: expected a list"),
        ({"model": {"type": "additive", "components": [
            {"type": "lookup", "features": [0], "lo": {"a": 1}, "hi": [1], "values": [0, 1]}]}},
         "lo: expected a list"),
        ({"model": {"type": "additive", "components": [
            {"type": "lookup", "features": [0], "lo": [0], "hi": [1], "values": {"a": 1}}]}},
         "values: expected a list"),
        ({"model": {"type": "additive", "components": [
            {"type": "lookup", "features": [0], "lo": [0], "hi": [1], "values": [1, True]}]}},
         "values: expected a finite number, got True"),
        ({"model": {"type": "additive", "components": [
            {"type": "lookup", "features": list(range(900)), "lo": [0] * 900, "hi": [1] * 900,
             "values": json.loads("[" * 900 + "1" + "]" * 900)}]}},
         "a lookup takes at most 24 features"),
        ({"points": []}, "points: the list selects no rows"),
        ({"seed": -1, "points": "sample:2"}, "seed: must be >= 0, got -1"),
        ({"background": "-2:-1"},
         "row range -2:-1 needs 0 <= start < stop <= 5 (the dataset has 5 rows)"),
        ({"background": "2:99"}, "row range 2:99 needs 0 <= start < stop <= 5"),
        ({"background": [3, 3]}, "row range 3:3 needs 0 <= start < stop <= 5"),
        ({"value_fn": "observational"},
         "background: only the interventional value function reads one, not 'observational'"),
        ({"value_fn": {"type": "gam"}},
         "background: only the interventional value function reads one, not 'gam'"),
    ],
    ids=["granularity-x", "granularity-3", "coeff-q", "background-z", "seed-abc",
         "order-2.7", "points-0.9", "factors-7", "lookup-lo-object", "lookup-values-object",
         "lookup-values-bool", "lookup-features-900", "points-empty", "seed-negative",
         "background-negative", "background-past-the-rows", "background-empty",
         "background-observational", "background-gam"],
)
def test_config_values_of_the_wrong_type_or_range_are_clean_errors(
    changes, message, product_fixture, tmp_path, capsys
):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(_product_config(product_fixture, **changes)))
    assert run_cli("gam", "--config", cfg_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("nshapley: error: ")
    assert message in err


@pytest.mark.parametrize("kind", ["truncated", "directory", "missing", "array"])
def test_unreadable_config_files_are_clean_errors(kind, product_fixture, tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    text = json.dumps(_product_config(product_fixture))
    if kind == "truncated":
        cfg_path.write_text(text[: len(text) // 2])
    elif kind == "directory":
        cfg_path.mkdir()
    elif kind == "array":
        cfg_path.write_text(json.dumps([text]))
    with pytest.raises(ConfigError):
        load_config(cfg_path)
    assert run_cli("gam", "--config", cfg_path) == 2
    assert capsys.readouterr().err.startswith(f"nshapley: error: {cfg_path}: ")


def test_csv_format(product_fixture, tmp_path):
    out = tmp_path / "results.csv"
    assert (
        run_cli(
            "explain",
            "--data", product_fixture,
            "--model", json.dumps(PRODUCT_MODEL),
            "--value-fn", "interventional",
            "--background", "0:4",
            "--order", "1",
            "--points", "4",
            "--format", "csv",
            "--out", out,
        )
        == 0
    )
    lines = out.read_text().splitlines()
    assert lines[0] == "point,order,set,value"
    assert '4,1,"0",6.0' in lines


def test_gam_subcommand(product_fixture, tmp_path):
    out = tmp_path / "gam.json"
    assert (
        run_cli(
            "gam",
            "--data", product_fixture,
            "--model", json.dumps(PRODUCT_MODEL),
            "--value-fn", "interventional",
            "--background", "0:4",
            "--points", "4",
            "--out", out,
        )
        == 0
    )
    records = read_records(out)
    assert len(records) == 1
    gam = records[0]
    assert gam.order == 2
    assert gam.value(0b11) == pytest.approx(12.0, abs=1e-12)
    assert gam.value(0b01) == pytest.approx(0.0, abs=1e-12)


def test_degree_subcommand(tmp_path):
    data = tmp_path / "grid.csv"
    lines = ["x0,x1"]
    for a in (0.25, 0.75):
        for b in (0.25, 0.75):
            lines.append(f"{a},{b}")
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "degree.json"
    assert (
        run_cli(
            "degree",
            "--data", data,
            "--model", json.dumps({"type": "checkerboard", "granularity": 2}),
            "--value-fn", "interventional",
            "--points", "all",
            "--out", out,
        )
        == 0
    )
    payload = json.loads(out.read_text())
    assert payload["mean_degree"] == pytest.approx(2.0, abs=1e-9)
    assert payload["order_mass_share"][2] == pytest.approx(1.0, abs=1e-9)
    assert payload["count"] == 4
    csv_out = tmp_path / "degree.csv"
    assert (
        run_cli(
            "degree",
            "--data", data,
            "--model", json.dumps({"type": "checkerboard", "granularity": 2}),
            "--value-fn", "interventional",
            "--points", "all",
            "--format", "csv",
            "--out", csv_out,
        )
        == 0
    )
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "point,degree"
    assert lines[1] == "0,2.0"


def test_check_subcommand_passes(product_fixture, capsys):
    code = run_cli(
        "check",
        "--data", product_fixture,
        "--model", json.dumps(PRODUCT_MODEL),
        "--value-fn", "interventional",
        "--background", "0:4",
        "--order", "all",
        "--points", "4",
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out
    assert "dual-path" in out
    assert "order-1-oracle" in out


def test_single_order_check_lines_appear_in_the_all_orders_check(monkeypatch, capsys):
    # the golden fixture: 5 features, two points, all orders
    monkeypatch.chdir(REPO_ROOT / "tests" / "golden")
    assert run_cli("check", "--config", "run.json") == 0
    everything = capsys.readouterr().out.splitlines()
    for order in range(1, 6):
        assert run_cli("check", "--config", "run.json", "--order", order) == 0
        single = capsys.readouterr().out.splitlines()
        assert any(f"order={order}" in line for line in single)
        remaining = iter(everything)
        assert all(line in remaining for line in single), order


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_explain_frees_each_index_once_its_record_is_written(monkeypatch, tmp_path, fmt):
    import weakref

    from nshapley import config

    alive = []  # when index k arrives: how many earlier indices are still referenced

    def watched(items):
        refs = []
        for item in items:
            alive.append(sum(ref() is not None for ref in refs))
            index = item[1] if fmt == "csv" else item
            refs.append(weakref.ref(index))
            del index
            yield item

    for name in ("emit_records", "emit_csv"):
        real = getattr(config, name)
        monkeypatch.setattr(config, name, lambda items, fh, real=real: real(watched(items), fh))
    monkeypatch.chdir(REPO_ROOT / "tests" / "golden")
    out = tmp_path / f"out.{fmt}"
    assert run_cli("explain", "--config", "run.json", "--format", fmt, "--out", out) == 0
    # two points, five orders; only the record just written is still held by the writer
    assert alive == [0] + [1] * 9


def test_check_runs_each_cross_check_route_once_per_point(monkeypatch, capsys):
    from nshapley import config

    calls = []
    for name in ("n_shapley_recursive", "n_shapley_explicit"):
        route = getattr(config, name)
        monkeypatch.setattr(
            config, name, lambda *args, name=name, route=route: calls.append(name) or route(*args)
        )
    monkeypatch.chdir(REPO_ROOT / "tests" / "golden")
    assert run_cli("check", "--config", "run.json") == 0
    assert calls == ["n_shapley_recursive", "n_shapley_explicit"] * 2  # two points


def test_check_builds_one_contribution_measure_per_point(monkeypatch, capsys):
    from nshapley import config, core

    measures, handed = [], []
    delta_all = core.delta_all
    monkeypatch.setattr(
        core, "delta_all", lambda table: measures.append(delta_all(table)) or measures[-1]
    )
    for name in ("n_shapley_recursive", "n_shapley_explicit"):
        route = getattr(config, name)
        monkeypatch.setattr(
            config, name, lambda table, order, deltas, route=route: handed.append(deltas)
            or route(table, order, deltas)
        )
    monkeypatch.chdir(REPO_ROOT / "tests" / "golden")
    assert run_cli("check", "--config", "run.json") == 0
    assert [m.size for m in measures] == [1 << 5] * 2  # two points, one measure each
    assert [id(d) for d in handed] == [id(m) for m in measures for _ in range(2)]


def test_plot_bars_single_file(product_fixture, tmp_path):
    out = tmp_path / "bars.svg"
    assert (
        run_cli(
            "plot", "bars",
            "--data", product_fixture,
            "--model", json.dumps(PRODUCT_MODEL),
            "--value-fn", "interventional",
            "--background", "0:4",
            "--order", "2",
            "--points", "4",
            "--out", out,
        )
        == 0
    )
    text = out.read_text()
    assert text.startswith("<svg")
    assert ">f0<" in text  # dataset column names label the bars


def test_plot_bars_escapes_column_names(tmp_path):
    from xml.dom import minidom

    data = tmp_path / "marks.csv"
    data.write_text("a<b,c&d\n1,1\n1,-1\n-1,1\n-1,-1\n3,4\n")
    out = tmp_path / "bars.svg"
    assert (
        run_cli(
            "plot", "bars",
            "--data", data,
            "--model", json.dumps(PRODUCT_MODEL),
            "--value-fn", "interventional",
            "--background", "0:4",
            "--order", "2",
            "--points", "4",
            "--out", out,
        )
        == 0
    )
    texts = minidom.parse(str(out)).getElementsByTagName("text")
    labels = [node.firstChild.data for node in texts]
    assert labels[:2] == ["a<b", "c&d"]


def test_plot_bars_svg_parses_with_odd_legal_column_names(tmp_path):
    from xml.dom import minidom

    names = ["a<b&c", "x\ty\x7f\ufffd"]
    data = tmp_path / "odd.csv"
    data.write_text(",".join(names) + "\n1,1\n1,-1\n-1,1\n-1,-1\n3,4\n", encoding="utf-8")
    out = tmp_path / "bars.svg"
    assert (
        run_cli(
            "plot", "bars",
            "--data", data,
            "--model", json.dumps(PRODUCT_MODEL),
            "--value-fn", "interventional",
            "--background", "0:4",
            "--order", "2",
            "--points", "4",
            "--out", out,
        )
        == 0
    )
    texts = minidom.parse(str(out)).getElementsByTagName("text")
    assert [node.firstChild.data for node in texts[:2]] == names


@pytest.mark.parametrize(
    "command",
    [["explain"], ["gam"], ["degree"], ["check"], ["plot", "bars"], ["plot", "dependence", "0"]],
    ids=["explain", "gam", "degree", "check", "plot-bars", "plot-dependence"],
)
def test_a_column_name_xml_cannot_carry_is_a_clean_error(command, tmp_path, capsys):
    data = tmp_path / "ctrl.csv"
    data.write_text("a\x01b,c\n1,1\n1,-1\n3,4\n")
    started = tmp_path / "started"
    stub = tmp_path / "stub.py"
    stub.write_text(f"open({str(started)!r}, 'w').close()\n")
    model = {"type": "external", "command": f"{sys.executable} {stub}"}
    out = tmp_path / "figs"
    code = run_cli(
        *command,
        "--data", data,
        "--model", json.dumps(model),
        "--value-fn", "interventional",
        "--background", "0:2",
        "--points", "2",
        "--out", out,
    )
    assert code == 2
    _one_error_line(capsys, f"{data}: column 1 of the header, 'a\\x01b', holds")
    assert not started.exists()
    assert not out.exists()


def test_plot_bars_takes_no_feature_index(product_fixture, tmp_path, capsys):
    # computing a point would try to spawn this missing command
    model = {"type": "external", "command": str(tmp_path / "no-such-model"), "timeout": 5}
    out = tmp_path / "figs"
    code = run_cli(
        "plot", "bars", "3",
        "--data", product_fixture,
        "--model", json.dumps(model),
        "--value-fn", "interventional",
        "--background", "0:4",
        "--points", "4",
        "--out", out,
    )
    assert code == 2
    _one_error_line(capsys, "nshapley: error: plot: bars takes no feature index, got 3\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "mode, orders, points, count",
    [
        (["bars"], "2", "all", 5),
        (["bars"], "all", "4", 2),
        (["dependence", "0"], "all", "4", 2),
    ],
    ids=["bars-points", "bars-orders", "dependence-orders"],
)
def test_one_svg_path_for_many_figures_is_an_error_before_any_point(
    mode, orders, points, count, product_fixture, tmp_path, capsys
):
    # computing a point would try to spawn this missing command
    model = {"type": "external", "command": str(tmp_path / "no-such-model"), "timeout": 5}
    out = tmp_path / "many.svg"
    code = run_cli(
        "plot", *mode,
        "--data", product_fixture,
        "--model", json.dumps(model),
        "--value-fn", "interventional",
        "--background", "0:4",
        "--order", orders,
        "--points", points,
        "--out", out,
    )
    assert code == 2
    _one_error_line(
        capsys,
        f"plot: --out {out} names one .svg file, but this run makes {count} figures",
    )
    assert not out.exists()


def test_plot_bars_directory(product_fixture, tmp_path):
    out_dir = tmp_path / "figs"
    assert (
        run_cli(
            "plot", "bars",
            "--data", product_fixture,
            "--model", json.dumps(PRODUCT_MODEL),
            "--value-fn", "interventional",
            "--background", "0:4",
            "--order", "all",
            "--points", "4",
            "--out", out_dir,
        )
        == 0
    )
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["bars_point4_order1.svg", "bars_point4_order2.svg"]


def test_plot_dependence(tmp_path):
    data = tmp_path / "grid.csv"
    lines = ["u,v"]
    rng = np.random.default_rng(1)
    for _ in range(8):
        lines.append(",".join(repr(v) for v in rng.uniform(0, 1, 2).tolist()))
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "dep.svg"
    model = {
        "type": "additive",
        "components": [
            {"type": "term", "features": [0], "factors": [{"kind": "poly", "coeffs": [0, 1, 1]}]}
        ],
    }
    assert (
        run_cli(
            "plot", "dependence", "0",
            "--data", data,
            "--model", json.dumps(model),
            "--value-fn", "interventional",
            "--order", "1",
            "--points", "all",
            "--out", out,
        )
        == 0
    )
    assert out.exists()
    csv_lines = (tmp_path / "dep.csv").read_text().splitlines()
    assert csv_lines[0] == "x,phi"
    assert len(csv_lines) == 9


@pytest.mark.parametrize("feature", [["99"], ["-1"], []], ids=["99", "minus-1", "missing"])
def test_plot_dependence_checks_the_feature_before_any_point(
    feature, product_fixture, tmp_path, capsys
):
    # computing a point would try to spawn this missing command
    model = {"type": "external", "command": str(tmp_path / "no-such-model"), "timeout": 5}
    out = tmp_path / "figs"
    code = run_cli(
        "plot", "dependence", *feature,
        "--data", product_fixture,
        "--model", json.dumps(model),
        "--value-fn", "interventional",
        "--background", "0:4",
        "--points", "all",
        "--out", out,
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("nshapley: error: plot: dependence needs a feature index in 0..1")
    assert "spawn" not in err
    assert not out.exists()


@pytest.mark.parametrize("mode", [["bars"], ["dependence", "0"]], ids=["bars", "dependence"])
def test_plot_without_out_is_an_error_before_any_point(mode, product_fixture, tmp_path, capsys):
    # computing a point would try to spawn this missing command
    model = {"type": "external", "command": str(tmp_path / "no-such-model"), "timeout": 5}
    code = run_cli(
        "plot", *mode,
        "--data", product_fixture,
        "--model", json.dumps(model),
        "--value-fn", "interventional",
        "--background", "0:4",
        "--points", "all",
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "nshapley: error: plot: --out is required\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [product_fixture]


def test_plot_dependence_memory_does_not_grow_with_the_points(tmp_path):
    import tracemalloc

    dim = 14
    rng = np.random.default_rng(3)
    data = tmp_path / "wide.csv"
    rows = [",".join(f"x{i}" for i in range(dim))]
    rows.extend(",".join(repr(v) for v in row) for row in rng.normal(size=(20, dim)).tolist())
    data.write_text("\n".join(rows) + "\n")
    x = {"kind": "poly", "coeffs": [0, 1]}
    components = [
        {"type": "term", "features": sorted({i, (i + 1) % dim, (i + 4) % dim}), "factors": [x] * 3}
        for i in range(dim)
    ]
    args = [
        "plot", "dependence", "0",
        "--data", data,
        "--model", json.dumps({"type": "additive", "components": components}),
        "--value-fn", json.dumps({"type": "gam"}),
        "--order", "all",
    ]

    def peak(count):
        tracemalloc.start()
        try:
            points = ",".join(map(str, range(count)))
            assert run_cli(*args, "--points", points, "--out", tmp_path / f"figs{count}") == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # fills the per-dimension caches
    small, large = peak(5), peak(20)
    assert abs(large - small) < 2**20  # every order's index of a point takes 1.8 MB
    assert len(list((tmp_path / "figs20").iterdir())) == 2 * dim


def test_degree_memory_does_not_grow_with_the_points(tmp_path):
    import tracemalloc

    dim = 14
    rng = np.random.default_rng(4)
    data = tmp_path / "wide.csv"
    rows = [",".join(f"x{i}" for i in range(dim))]
    rows.extend(",".join(repr(v) for v in row) for row in rng.normal(size=(40, dim)).tolist())
    data.write_text("\n".join(rows) + "\n")
    x = {"kind": "poly", "coeffs": [0, 1]}
    components = [{"type": "term", "features": [i], "factors": [x]} for i in range(dim)]
    args = [
        "degree",
        "--data", data,
        "--model", json.dumps({"type": "additive", "components": components}),
        "--value-fn", json.dumps({"type": "gam"}),
    ]

    def peak(count):
        tracemalloc.start()
        try:
            points = ",".join(map(str, range(count)))
            assert run_cli(*args, "--points", points, "--out", tmp_path / f"degree{count}.json") == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # fills the per-dimension caches
    small, large = peak(10), peak(40)
    assert abs(large - small) < 2**20  # a point's decomposition takes 128 KiB
    assert json.loads((tmp_path / "degree40.json").read_text())["count"] == 40


def test_point_sampling_is_seeded(product_fixture, tmp_path):
    out1 = tmp_path / "s1.json"
    out2 = tmp_path / "s2.json"
    args = [
        "explain",
        "--data", product_fixture,
        "--model", json.dumps(PRODUCT_MODEL),
        "--value-fn", "interventional",
        "--order", "1",
        "--points", "sample:2",
        "--seed", "7",
    ]
    assert run_cli(*args, "--out", out1) == 0
    assert run_cli(*args, "--out", out2) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_external_model_through_cli(product_fixture, tmp_path):
    stub = tmp_path / "stub.py"
    stub.write_text(
        "import sys\n"
        "while True:\n"
        "    header = sys.stdin.readline()\n"
        "    if not header:\n"
        "        break\n"
        "    _, dim, count = header.split()\n"
        "    rows = [sys.stdin.readline() for _ in range(int(count))]\n"
        "    assert sys.stdin.readline().strip() == 'END'\n"
        "    for row in rows:\n"
        "        a, b = map(float, row.split(','))\n"
        "        sys.stdout.write(repr(a * b) + '\\n')\n"
        "    sys.stdout.write('END\\n')\n"
        "    sys.stdout.flush()\n"
    )
    out = tmp_path / "ext.json"
    model = {"type": "external", "command": f"{sys.executable} {stub}", "timeout": 30}
    assert (
        run_cli(
            "explain",
            "--data", product_fixture,
            "--model", json.dumps(model),
            "--value-fn", "interventional",
            "--background", "0:4",
            "--order", "1",
            "--points", "4",
            "--out", out,
        )
        == 0
    )
    phi = read_records(out)[0]
    assert phi.value(0b01) == pytest.approx(6.0, abs=1e-12)


def test_gam_value_function_recovers_declared_components(tmp_path):
    # value_fn "gam" decomposes the additive model's own components:
    # the full-order record reproduces the declared component values
    data = tmp_path / "pts.csv"
    data.write_text("p,q\n0.5,2.0\n1.5,-1.0\n")
    components = [
        {"type": "constant", "value": 1.0},
        {"type": "term", "features": [0], "factors": [{"kind": "poly", "coeffs": [0, 2]}]},
        {
            "type": "term",
            "features": [0, 1],
            "factors": [
                {"kind": "poly", "coeffs": [0, 1]},
                {"kind": "poly", "coeffs": [0, 1]},
            ],
        },
    ]
    out = tmp_path / "gam.json"
    assert (
        run_cli(
            "gam",
            "--data", data,
            "--model", json.dumps({"type": "additive", "components": components}),
            "--value-fn", json.dumps({"type": "gam"}),
            "--points", "0",
            "--out", out,
        )
        == 0
    )
    gam = read_records(out)[0]
    assert gam.baseline == pytest.approx(1.0, abs=1e-12)
    assert gam.value(0b01) == pytest.approx(2 * 0.5, abs=1e-12)
    assert gam.value(0b10) == pytest.approx(0.0, abs=1e-12)
    assert gam.value(0b11) == pytest.approx(0.5 * 2.0, abs=1e-12)


def test_gam_value_function_takes_no_components_of_its_own(tmp_path, capsys):
    data = tmp_path / "pts.csv"
    data.write_text("p,q\n0.5,2.0\n")
    components = [{"type": "constant", "value": 3.0}]
    code = run_cli(
        "gam",
        "--data", data,
        "--model", json.dumps({"type": "additive", "components": components}),
        "--value-fn", json.dumps({"type": "gam", "components": components}),
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "nshapley: error: value_fn: unknown keys ['components']\n"


@pytest.mark.parametrize("kind", ["checkerboard", "knn", "external"])
def test_gam_value_function_needs_an_additive_model(kind, tmp_path, capsys):
    data = tmp_path / "pts.csv"
    data.write_text("p,q,y\n0.25,0.75,0\n0.75,0.25,1\n")
    started = tmp_path / "started"
    stub = tmp_path / "stub.py"
    stub.write_text(f"open({str(started)!r}, 'w').close()\n")
    model = {
        "checkerboard": {"type": "checkerboard"},
        "knn": {"type": "knn", "k": 1, "label": "y"},
        "external": {"type": "external", "command": f"{sys.executable} {stub}"},
    }[kind]
    code = run_cli("explain", "--data", data, "--model", json.dumps(model), "--value-fn", "gam")
    assert code == 2
    _one_error_line(
        capsys,
        "value_fn: gam decomposes the model's own components; it needs an additive model",
    )
    assert not started.exists()


def test_knn_model_with_label_column(tmp_path):
    data = tmp_path / "labeled.csv"
    lines = ["a,b,y"]
    for i in range(8):
        bits = [(i >> j) & 1 for j in range(2)]
        lines.append(f"{bits[0]},{bits[1]},{bits[0] ^ bits[1]}")
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "deg.json"
    assert (
        run_cli(
            "degree",
            "--data", data,
            "--model", json.dumps({"type": "knn", "k": 2, "label": "y"}),
            "--value-fn", "interventional",
            "--points", "all",
            "--out", out,
        )
        == 0
    )
    payload = json.loads(out.read_text())
    assert payload["count"] == 8
    assert payload["mean_degree"] > 1.0  # the XOR labels force interaction


def test_a_repeated_point_is_a_clean_error(product_fixture, capsys):
    code = run_cli(
        "degree",
        "--data", product_fixture,
        "--model", json.dumps(PRODUCT_MODEL),
        "--value-fn", "interventional",
        "--background", "0:4",
        "--points", "4,4,0",
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "nshapley: error: points: row 4 is listed more than once\n"


def test_errors_exit_with_code_two(tmp_path, capsys):
    assert run_cli("explain", "--data", tmp_path / "missing.csv",
                   "--model", "checkerboard", "--value-fn", "interventional") == 2
    assert "error" in capsys.readouterr().err


def _one_error_line(capsys, *fragments):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("nshapley: error: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    for fragment in fragments:
        assert fragment in captured.err


def test_more_features_than_the_cap_is_a_clean_error(tmp_path, capsys):
    data = tmp_path / "wide.csv"
    header = [f"f{i}" for i in range(25)] + ["y"]
    rows = [",".join(str((i + j) % 2) for j in range(26)) for i in range(4)]
    data.write_text("\n".join([",".join(header), *rows]) + "\n")
    code = run_cli(
        "explain",
        "--data", data,
        "--model", json.dumps({"type": "knn", "k": 1, "label": "y"}),
        "--value-fn", "interventional",
        "--points", "0",
    )
    assert code == 2
    _one_error_line(capsys, "25 feature columns besides the label, expected 1 to 24")


@pytest.mark.parametrize("value_fn", ["interventional", "observational"])
def test_a_csv_with_only_the_label_column_is_a_clean_error(value_fn, tmp_path, capsys):
    data = tmp_path / "labels.csv"
    data.write_text("y\n0\n1\n")
    code = run_cli(
        "explain",
        "--data", data,
        "--model", json.dumps({"type": "knn", "k": 1, "label": "y"}),
        "--value-fn", value_fn,
        "--points", "0",
    )
    assert code == 2
    _one_error_line(capsys, "0 feature columns besides the label, expected 1 to 24")


def test_a_csv_that_is_not_utf8_is_a_clean_error(tmp_path, capsys):
    data = tmp_path / "utf16.csv"
    data.write_bytes(b"f0,f1\n1,2\n\xff\xfe,3\n")
    code = run_cli(
        "explain",
        "--data", data,
        "--model", json.dumps(PRODUCT_MODEL),
        "--value-fn", "interventional",
        "--points", "0",
    )
    assert code == 2
    _one_error_line(capsys, f"{data}: not UTF-8 text")


@pytest.mark.parametrize("timeout", [0, -1, 3e6], ids=["zero", "negative", "3e6"])
def test_a_timeout_out_of_range_is_a_clean_error(timeout, product_fixture, capsys):
    model = {"type": "external", "command": "no-such-command", "timeout": timeout}
    code = run_cli(
        "explain",
        "--data", product_fixture,
        "--model", json.dumps(model),
        "--value-fn", "interventional",
        "--points", "4",
    )
    assert code == 2
    _one_error_line(capsys, "model: timeout must be > 0 and at most 1000000 seconds")


def test_order_beyond_dimension_rejected(product_fixture, capsys):
    assert (
        run_cli(
            "explain",
            "--data", product_fixture,
            "--model", json.dumps(PRODUCT_MODEL),
            "--value-fn", "interventional",
            "--order", "9",
            "--points", "4",
        )
        == 2
    )
    assert "exceeds" in capsys.readouterr().err


def run_module(*argv):
    """Run ``python -m nshapley`` from the repository's source tree."""
    return subprocess.run(
        [sys.executable, "-m", "nshapley", *(str(a) for a in argv)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )


def test_module_entry_point(product_fixture, tmp_path):
    out = tmp_path / "results.json"
    proc = run_module(
        "explain",
        "--data", product_fixture,
        "--model", json.dumps(PRODUCT_MODEL),
        "--value-fn", "interventional",
        "--background", "0:4",
        "--order", "1",
        "--points", "4",
        "--out", out,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


NAN_CHILD = """\
import sys
while True:
    header = sys.stdin.readline()
    if not header:
        break
    count = int(header.split()[2])
    for _ in range(count + 1):
        sys.stdin.readline()
    sys.stdout.write("nan\\n" * count + "END\\n")
    sys.stdout.flush()
"""


@pytest.mark.parametrize("command", ["explain", "check"])
def test_non_finite_model_output_is_a_clean_error(command, product_fixture, tmp_path):
    child = tmp_path / "nan_child.py"
    child.write_text(NAN_CHILD)
    model = {"type": "external", "command": f"{sys.executable} {child}", "timeout": 30}
    proc = run_module(
        command,
        "--data", product_fixture,
        "--model", json.dumps(model),
        "--value-fn", "interventional",
        "--background", "0:4",
        "--order", "1",
        "--points", "4",
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("nshapley: error: point 4: ")
    assert "not finite" in proc.stderr
    assert "Traceback" not in proc.stderr


# finite model values whose decomposition overflows: f_{0} = 1e308 - (-1e308)
OVERFLOW_MODEL = {
    "type": "additive",
    "components": [
        {"type": "constant", "value": -1e308},
        *[
            {
                "type": "term",
                "features": [0],
                "factors": [{"kind": "step", "threshold": 0.5}],
                "coefficient": 1e308,
            }
        ] * 2,
    ],
}


@pytest.mark.parametrize(
    "command",
    [["explain"], ["gam"], ["degree"], ["check"], ["plot", "bars"]],
    ids=["explain", "gam", "degree", "check", "plot-bars"],
)
def test_an_overflowing_decomposition_is_one_clean_error_line(command, tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("a,b\n0,0\n1,1\n")
    results = tmp_path / "results"
    results.mkdir()
    proc = run_module(
        *command,
        "--data", data,
        "--model", json.dumps(OVERFLOW_MODEL),
        "--value-fn", "interventional",
        "--background", "0:1",
        "--points", "1",
        "--out", results / "out",
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "nshapley: error: point 1: value on subset {0} is not finite (inf)\n"
    assert proc.stdout == ""
    assert list(results.iterdir()) == []


def _poly_term(features, *coeffs):
    factors = [{"kind": "poly", "coeffs": list(c)} for c in coeffs]
    return {"type": "term", "features": features, "factors": factors}


# finite components whose order-weighted mass sums overflow: per point
# (f_{0} = 1e308, f_{1} = -1e308 at row 1), or only pooled over rows 1
# and 2 (masses 5e307 + 5e307 at order 1 and 5e307 at order 2)
DEGREE_OVERFLOWS = {
    "per-point": (
        "a,b\n0,0\n1,1\n",
        [_poly_term([0], [0, 1e308]), _poly_term([1], [0, -1e308])],
        "1",
        {"1": 1.0},
        1.0,
        [0.0, 1.0, 0.0],
    ),
    "pooled": (
        "a,b\n0,0\n1,1\n1,0\n",
        [_poly_term([0], [0, 5e307]), _poly_term([0, 1], [0, 5e307], [0, 1])],
        "1,2",
        {"1": 1.5, "2": 1.0},
        4 / 3,
        [0.0, 2 / 3, 1 / 3],
    ),
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("case", sorted(DEGREE_OVERFLOWS))
def test_degree_of_components_whose_masses_overflow(case, fmt, tmp_path):
    text, components, points, per_point, pooled, shares = DEGREE_OVERFLOWS[case]
    data = tmp_path / "data.csv"
    data.write_text(text)
    proc = run_module(
        "degree",
        "--data", data,
        "--model", json.dumps({"type": "additive", "components": components}),
        "--value-fn", "interventional",
        "--background", "0:1",
        "--points", points,
        "--format", fmt,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    if fmt == "csv":
        lines = [f"{pid},{deg!r}" for pid, deg in per_point.items()]
        assert proc.stdout == "\n".join(["point,degree", *lines]) + "\n"
        return
    report = json.loads(proc.stdout)
    assert report["per_point"] == per_point
    assert report["pooled_degree"] == pooled
    assert report["order_mass_share"] == pytest.approx(shares, rel=1e-15)


@pytest.mark.parametrize("where", ["config-int", "config-list", "directory", "missing-directory"])
def test_results_file_errors_are_clean(where, product_fixture, tmp_path, monkeypatch, capsys):
    from nshapley import config

    tables = []
    build = config.build_value_table
    monkeypatch.setattr(config, "build_value_table", lambda *a: tables.append(1) or build(*a))
    out = {"config-int": 5, "config-list": ["a"]}.get(where)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(_product_config(product_fixture, out=out)))
    flags = []
    if where == "directory":
        flags = ["--out", tmp_path]
    elif where == "missing-directory":
        flags = ["--out", tmp_path / "nowhere" / "results.json"]
    assert run_cli("gam", "--config", cfg_path, *flags) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("nshapley: error: ")
    assert "Traceback" not in captured.err and captured.out == ""
    assert tables == []  # failed before the first value table
    if where.startswith("config"):
        with pytest.raises(ConfigError, match="out: expected a path string"):
            load_config(cfg_path)


SECOND_BATCH_FAILS_CHILD = """\
import sys
batches = 0
while True:
    header = sys.stdin.readline()
    if not header:
        break
    count = int(header.split()[2])
    for _ in range(count + 1):
        sys.stdin.readline()
    batches += 1
    if batches == 2:
        sys.exit(3)
    sys.stdout.write("0.5\\n" * count + "END\\n")
    sys.stdout.flush()
"""


@pytest.mark.parametrize("out_state", ["absent", "existing", "stdout"])
@pytest.mark.parametrize("command, fmt", [("explain", "json"), ("explain", "csv"), ("degree", "json")])
def test_a_failed_run_leaves_no_results_file(command, fmt, out_state, product_fixture, tmp_path, capsys):
    child = tmp_path / "child.py"
    child.write_text(SECOND_BATCH_FAILS_CHILD)
    model = {"type": "external", "command": f"{sys.executable} {child}", "timeout": 30}
    results = tmp_path / "results" / f"out.{fmt}"
    results.parent.mkdir()
    if out_state == "existing":
        results.write_bytes(b"earlier results\n")
    flags = [] if out_state == "stdout" else ["--out", results]
    code = run_cli(
        command,
        "--data", product_fixture,
        "--model", json.dumps(model),
        "--value-fn", "interventional",
        "--background", "0:4",
        "--order", "all",
        "--points", "3,4",  # point 3 is computed (and streamed) before point 4 fails
        "--format", fmt,
        *flags,
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("nshapley: error: point 4: ")
    assert captured.out == ""
    if out_state == "existing":
        assert [p.name for p in results.parent.iterdir()] == [results.name]
        assert results.read_bytes() == b"earlier results\n"
    else:
        assert list(results.parent.iterdir()) == []


def _gam_text(product_fixture, tmp_path, capsys):
    """The config path of a small gam run and the text it prints without --out."""
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(_product_config(product_fixture)))
    assert run_cli("gam", "--config", cfg_path) == 0
    return cfg_path, capsys.readouterr().out.encode()


@pytest.mark.parametrize("kind", ["symlink", "dangling-symlink", "hard-link"])
def test_results_file_keeps_links_and_mode(kind, product_fixture, tmp_path, capsys):
    cfg_path, expected = _gam_text(product_fixture, tmp_path, capsys)
    target = tmp_path / "store" / "results.json"
    target.parent.mkdir()
    out = tmp_path / "results.json"
    if kind != "dangling-symlink":
        target.write_bytes(b"earlier results\n")
        target.chmod(0o640)
    if kind == "hard-link":
        os.link(target, out)
    else:
        out.symlink_to(target)
    assert run_cli("gam", "--config", cfg_path, "--out", out) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == expected
    if kind == "hard-link":
        assert os.path.samefile(out, target)
    else:
        assert out.is_symlink() and os.readlink(out) == str(target)
    if kind != "dangling-symlink":
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert list(tmp_path.rglob("*.tmp")) == []


def test_results_file_can_be_a_fifo(product_fixture, tmp_path, capsys):
    cfg_path, expected = _gam_text(product_fixture, tmp_path, capsys)
    fifo = tmp_path / "results.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    code = run_cli("gam", "--config", cfg_path, "--out", fifo)
    reader.join(timeout=30)
    assert code == 0
    assert received == [expected]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)  # written through, not replaced
    assert list(tmp_path.rglob("*.tmp")) == []


BRIDGE_CHILD = """\
import os
import sys
mode, pid_file, marker = sys.argv[1:]
with open(pid_file, "w") as fh:
    fh.write(str(os.getpid()))
while True:
    header = sys.stdin.readline()
    if not header:
        break
    count = int(header.split()[2])
    rows = [sys.stdin.readline() for _ in range(count)]
    sys.stdin.readline()
    if mode == "exits-before-replying":
        sys.exit(5)
    if mode == "raises":
        raise RuntimeError("weights file is missing")
    if mode == "exits-mid-reply":
        sys.stdout.write("0.5\\n" * (count // 2))
        sys.stdout.flush()
        sys.exit(5)
    if mode == "garbage-line":
        sys.stdout.write("0.5\\nnot-a-number\\n")
    elif mode == "nan":
        sys.stdout.write("nan\\n" * count + "END\\n")
    else:
        products = "".join(repr(float(a) * float(b)) + "\\n" for a, b in (r.split(",") for r in rows))
        tail = "7.0\\n" if mode == "line-after-end" else ""
        sys.stdout.write(products + "END\\n" + tail)
    sys.stdout.flush()
open(marker, "w").close()
"""


def _degree_through_bridge(mode, product_fixture, tmp_path, out, timeout=30):
    child = tmp_path / "bridge_child.py"
    child.write_text(BRIDGE_CHILD)
    pid_file, marker = tmp_path / "child.pid", tmp_path / "stdin-closed"
    command = f"{sys.executable} {child} {mode} {pid_file} {marker}"
    code = run_cli(
        "degree",
        "--data", product_fixture,
        "--model", json.dumps({"type": "external", "command": command, "timeout": timeout}),
        "--value-fn", "interventional",
        "--background", "0:4",
        "--points", "4",
        "--out", out,
    )
    return code, int(pid_file.read_text()), marker


@pytest.mark.parametrize("mode", ["ok", "nan"])
def test_the_cli_closes_the_model_when_a_run_ends(mode, product_fixture, tmp_path, monkeypatch):
    from nshapley import config

    built = []  # holds the model, so only an explicit close can end the child
    build = config.build_model
    monkeypatch.setattr(config, "build_model", lambda *a: built.append(build(*a)) or built[-1])
    out = tmp_path / "degree.json"
    code, _, marker = _degree_through_bridge(mode, product_fixture, tmp_path, out)
    assert code == (0 if mode == "ok" else 2)
    assert out.exists() == (mode == "ok")
    assert marker.exists()  # the child saw its stdin close before main returned
    assert built[0]._proc is None


@pytest.mark.parametrize(
    "mode, reason",
    [
        ("exits-mid-reply", "closed its output mid-batch"),
        ("garbage-line", "malformed reply line 2: 'not-a-number'"),
        ("line-after-end", "sent output after END"),
        ("exits-before-replying", "closed its output mid-batch"),
    ],
)
def test_a_misbehaving_child_is_a_clean_point_error(mode, reason, product_fixture, tmp_path, capsys):
    out = tmp_path / "degree.json"
    code, pid, _ = _degree_through_bridge(mode, product_fixture, tmp_path, out)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("nshapley: error: point 4: model ")
    assert reason in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not out.exists()
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)  # exited and reaped


def test_a_child_traceback_is_one_clean_error_line(product_fixture, tmp_path, capfd):
    # capfd, not capsys: the child's stderr is a file descriptor, not sys.stderr
    out = tmp_path / "degree.json"
    code, pid, _ = _degree_through_bridge("raises", product_fixture, tmp_path, out)
    assert code == 2
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("nshapley: error: point 4: model ")
    assert captured.err.endswith(
        "closed its output mid-batch (exit status 1); "
        "stderr: 'RuntimeError: weights file is missing'\n"
    )
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not out.exists()
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


D12_RECORDER = """\
import sys
log = sys.argv[1]
while True:
    header = sys.stdin.readline()
    if not header:
        break
    count = int(header.split()[2])
    rows = [sys.stdin.readline() for _ in range(count)]
    sys.stdin.readline()
    with open(log, "a") as fh:
        fh.write(f"{count}\\n")
    sys.stdout.write("".join(r.split(",", 1)[0] + "\\n" for r in rows) + "END\\n")
    sys.stdout.flush()
"""


def test_a_d12_degree_run_sends_requests_of_at_most_8192_rows(tmp_path):
    dim, n_bg = 12, 16
    rng = np.random.default_rng(12)
    data = tmp_path / "d12.csv"
    rows = [",".join(f"f{j}" for j in range(dim))]
    rows += [",".join(map(repr, rng.normal(size=dim).tolist())) for _ in range(n_bg + 1)]
    data.write_text("\n".join(rows) + "\n")
    child, log = tmp_path / "recorder.py", tmp_path / "requests.log"
    child.write_text(D12_RECORDER)
    out = tmp_path / "degree.json"
    code = run_cli(
        "degree",
        "--data", data,
        "--model", json.dumps({"type": "external", "command": f"{sys.executable} {child} {log}"}),
        "--value-fn", "interventional",
        "--background", f"0:{n_bg}",
        "--points", str(n_bg),
        "--out", out,
    )
    assert code == 0
    assert log.read_text().split() == ["8192"] * ((1 << dim) * n_bg // 8192)
    assert json.loads(out.read_text())["count"] == 1


def test_the_longest_timeout_serves_a_batch(product_fixture, tmp_path):
    from nshapley.models import MAX_TIMEOUT

    assert MAX_TIMEOUT * 1000 <= 2**31 - 1  # the selector's millisecond limit
    out = tmp_path / "degree.json"
    code, _, marker = _degree_through_bridge("ok", product_fixture, tmp_path, out, MAX_TIMEOUT)
    assert code == 0
    assert json.loads(out.read_text())["count"] == 1
    assert marker.exists()
