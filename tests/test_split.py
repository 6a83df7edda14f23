"""Work computed by a forked child: the last points of a run, or a large point's upper orders.

A run of two or more points whose model is ``fork_safe`` is split when
the child's value tables ask for at least ``config._SPLIT_POINT_ROWS``
rows: it forks once, the child computes the last half of the points
and hands them back (``explain``/``gam`` records, ``degree`` order
masses, ``check`` report lines), and the parent adds them after its
own. Otherwise ``explain`` splits a point whose records cover at least
``config._SPLIT_COALITIONS`` coalitions over two or more orders: a
forked child computes and writes the upper orders while the parent does
the lower ones, then the parent copies the child's bytes in. The tests
lower these thresholds to 0, so every small run is split, and compare
with the serial run of the same configuration byte for byte.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from nshapley import config
from nshapley.cli import main
from nshapley.lattice import NonFiniteValue
from nshapley.models import PredictFn
from nshapley.valuefn import NoMatchingRows, ObservationalExactMatchValueFunction

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the split needs os.fork")


def _components(dim: int) -> list:
    rng = np.random.default_rng(dim)
    specs = [{"type": "constant", "value": 0.25}]
    for features in [[i] for i in range(dim)] + [[0, dim - 1], [i for i in range(0, dim, 2)]]:
        coeffs = np.round(rng.normal(size=3), 4).tolist()
        specs.append({
            "type": "term",
            "features": features,
            "factors": [{"kind": "poly", "coeffs": coeffs}] * len(features),
            "coefficient": round(float(rng.normal()), 4),
        })
    return specs


def _settings(tmp_path, dim: int, points, fmt: str = "json", model=None) -> dict:
    rows = np.round(np.random.default_rng(100 + dim).uniform(-1, 1, size=(8, dim)), 6)
    data = tmp_path / f"d{dim}.csv"
    lines = [",".join(f"f{i}" for i in range(dim))]
    lines += [",".join(repr(v) for v in row) for row in rows.tolist()]
    data.write_text("\n".join(lines) + "\n")
    return {
        "data": str(data),
        "model": model or {"type": "additive", "components": _components(dim)},
        "value_fn": {"type": "interventional"},
        "background": "0:4",
        "points": points,
        "format": fmt,
    }


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs whatever the host has, and a count of the forks."""
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def _explain(settings: dict, orders, split: bool, out=None) -> str:
    """The run's text, split at every point or serial, with ``orders`` configured."""
    cfg = config.RunConfig.from_mapping({**settings, "out": str(out) if out else None})
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(config, "_resolve_orders", lambda _, dim: list(orders))
        if split:
            patch.setattr(config, "_SPLIT_COALITIONS", 0)
        text = config.run_explain(cfg)
    if out is None:
        return text
    assert text is None
    return out.read_text()


def _order_lists(dim: int) -> dict:
    return {
        "all": list(range(1, dim + 1)),
        "1-3-d": sorted({1, min(3, dim), dim}),
        "top-two": [dim - 1, dim],
    }


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("orders", ["all", "1-3-d", "top-two"])
@pytest.mark.parametrize("dim", range(2, 9))
def test_a_split_run_writes_the_serial_bytes(dim, orders, two_cpus, tmp_path):
    chosen = _order_lists(dim)[orders]
    for fmt in ("json", "csv"):
        for points in ([5], [4, 6, 7]):
            settings = _settings(tmp_path, dim, points, fmt)
            serial = _explain(settings, chosen, split=False)
            assert not two_cpus  # below the threshold nothing forks
            for out in (None, tmp_path / f"out.{fmt}"):
                assert _explain(settings, chosen, split=True, out=out) == serial
                assert len(two_cpus) == len(points)  # every point was split
                two_cpus.clear()
    _no_child_left()


def test_the_split_keeps_the_route_of_the_whole_order_list(two_cpus, tmp_path):
    settings = _settings(tmp_path, 4, [5])
    text = _explain(settings, range(1, 5), split=True)
    assert [r["provenance"] for r in json.loads(text)] == ["from-gam"] * 4
    text = _explain(settings, [2, 4], split=True)
    assert [r["provenance"] for r in json.loads(text)] == ["from-gam", "direct"]
    assert len(two_cpus) == 2


def test_the_head_takes_the_lowest_orders_up_to_forty_percent(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    # d=16, all orders: 589,807 coalitions, of which orders 1-10 cover 199,966
    assert config._head_orders(16, list(range(1, 17))) == 10
    assert config._head_orders(16, [16]) == 1  # one order is never split
    assert config._head_orders(16, [2, 3]) == 2  # 832 coalitions: below the threshold
    assert config._head_orders(16, [15, 16]) == 1  # at least one order in the head
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert config._head_orders(16, list(range(1, 17))) == 16


def _fail_in_the_child(monkeypatch, exc):
    parent = os.getpid()
    for name in ("n_shapley_all_orders", "n_shapley_from_gam"):
        real = getattr(config, name)

        def failing(*args, real=real):
            if os.getpid() != parent:
                raise exc
            return real(*args)

        monkeypatch.setattr(config, name, failing)


@pytest.mark.parametrize("exc", [RuntimeError("boom"), MemoryError(), KeyboardInterrupt()])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_failed_child_leaves_the_tail_to_the_parent(fmt, exc, two_cpus, tmp_path, monkeypatch):
    settings = _settings(tmp_path, 5, [4, 6], fmt)
    serial = _explain(settings, range(1, 6), split=False)
    _fail_in_the_child(monkeypatch, exc)
    assert _explain(settings, range(1, 6), split=True) == serial
    assert _explain(settings, range(1, 6), split=True, out=tmp_path / "out") == serial
    assert len(two_cpus) == 4
    _no_child_left()


def test_a_failed_fork_leaves_the_tail_to_the_parent(tmp_path, monkeypatch):
    settings = _settings(tmp_path, 5, [4, 6])
    serial = _explain(settings, range(1, 6), split=False)

    def no_fork():
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", no_fork)
    assert _explain(settings, range(1, 6), split=True, out=tmp_path / "out") == serial


def _cli(capsys, run_json, split: bool) -> tuple[int, str, str]:
    with pytest.MonkeyPatch.context() as patch:
        if split:
            patch.setattr(config, "_SPLIT_COALITIONS", 0)
        code = main(["explain", "--config", str(run_json)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_an_error_in_the_upper_orders_is_the_serial_error(two_cpus, tmp_path, capsys, monkeypatch):
    settings = {**_settings(tmp_path, 5, [4, 6]), "order": "all", "out": str(tmp_path / "out.json")}
    (tmp_path / "run.json").write_text(json.dumps(settings))
    real = config.n_shapley_all_orders

    def overflowing(gam, orders=None):  # in either process, whenever order 5 is asked for
        if orders is None or 5 in orders:
            raise NonFiniteValue(0b11111, float("inf"))
        return real(gam, orders)

    monkeypatch.setattr(config, "n_shapley_all_orders", overflowing)
    serial = _cli(capsys, tmp_path / "run.json", split=False)
    assert serial[0] == 2 and "point 4: value on subset {0,1,2,3,4} is not finite" in serial[2]
    assert _cli(capsys, tmp_path / "run.json", split=True) == serial
    assert len(two_cpus) == 1  # the first point failed, so the second was never reached
    assert not (tmp_path / "out.json").exists()
    _no_child_left()


@pytest.mark.parametrize("out", [False, True], ids=["stdout", "file"])
def test_an_interrupt_in_the_head_kills_and_reaps_the_child(out, two_cpus, tmp_path, monkeypatch):
    settings = _settings(tmp_path, 6, [4, 6])
    parent = os.getpid()
    real = config.n_shapley_all_orders

    def interrupted(gam, orders=None):
        if os.getpid() == parent and 6 not in orders:  # the head, in the parent only
            raise KeyboardInterrupt
        return real(gam, orders)

    monkeypatch.setattr(config, "n_shapley_all_orders", interrupted)
    target = tmp_path / "out.json" if out else None
    with pytest.raises(KeyboardInterrupt):
        _explain(settings, range(1, 7), split=True, out=target)
    assert len(two_cpus) == 1
    _no_child_left()
    assert sorted(os.listdir(tmp_path)) == ["d6.csv"]  # no results file, no temporary one


def test_an_error_in_the_writer_kills_and_reaps_the_child(two_cpus, tmp_path, monkeypatch):
    settings = _settings(tmp_path, 6, [4])
    real = config.emit_records

    def failing_writer(indices, fh, continued=False):
        if not continued:  # the parent's writer fails after its first record
            indices = iter(indices)
            real([next(indices)], fh)
            raise OSError(28, "No space left on device")
        return real(indices, fh, continued)

    monkeypatch.setattr(config, "emit_records", failing_writer)
    with pytest.raises(OSError, match="No space"):
        _explain(settings, range(1, 7), split=True, out=tmp_path / "out.json")
    assert len(two_cpus) == 1
    _no_child_left()


def test_with_one_usable_cpu_nothing_forks(tmp_path, monkeypatch):
    settings = _settings(tmp_path, 6, [4, 6])
    serial = _explain(settings, range(1, 7), split=False)

    def no_fork():
        raise AssertionError("os.fork was called")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    monkeypatch.setattr(os, "fork", no_fork)
    assert _explain(settings, range(1, 7), split=True) == serial
    assert _explain(settings, range(1, 7), split=True, out=tmp_path / "out.json") == serial


STUB = """\
import os, sys
with open(sys.argv[1], "a") as log:
    log.write(f"{os.getpid()}\\n")
while True:
    header = sys.stdin.readline()
    if not header:
        break
    _, dim, count = header.split()
    rows = [list(map(float, sys.stdin.readline().split(","))) for _ in range(int(count))]
    assert sys.stdin.readline().strip() == "END"
    for row in rows:
        sys.stdout.write(repr(row[0] * row[1] - 0.5 * row[2] + row[0] * row[2] * row[3]) + "\\n")
    sys.stdout.write("END\\n")
    sys.stdout.flush()
"""


def test_an_external_model_run_with_a_split_point(two_cpus, tmp_path):
    stub = tmp_path / "stub.py"
    stub.write_text(STUB)
    log = tmp_path / "children.log"
    model = {"type": "external", "command": f"{sys.executable} {stub} {log}", "timeout": 30}
    settings = _settings(tmp_path, 4, [4, 5, 6], model=model)
    serial = _explain(settings, range(1, 5), split=False)
    assert len(log.read_text().split()) == 1
    log.unlink()
    assert _explain(settings, range(1, 5), split=True, out=tmp_path / "out.json") == serial
    assert len(two_cpus) == 3
    assert len(log.read_text().split()) == 1  # one model child for the whole run
    _no_child_left()


# ---------------------------------------------------------------------------
# Runs split by points
# ---------------------------------------------------------------------------

POINTS = [1, 3, 4, 6, 7]
COMMANDS = [
    ("explain", "json"),
    ("explain", "csv"),
    ("gam", "json"),
    ("gam", "csv"),
    ("degree", "json"),
    ("degree", "csv"),
    ("check", "json"),
]


def _run(capsys, tmp_path, command: str, settings: dict, split: bool) -> tuple:
    """Exit code, stdout, stderr and the results file (None if absent) of a CLI run.

    ``split`` lowers the point-split threshold to 0; the order split
    keeps its threshold, which these small points are below.
    """
    run_json = tmp_path / "run.json"
    run_json.write_text(json.dumps(settings))
    out = settings.get("out")
    with pytest.MonkeyPatch.context() as patch:
        if split:
            patch.setattr(config, "_SPLIT_POINT_ROWS", 0)
        code = main([command, "--config", str(run_json)])
    captured = capsys.readouterr()
    written = open(out).read() if out and os.path.exists(out) else None
    return code, captured.out, captured.err, written


def _serial_and_split(capsys, tmp_path, command, settings, forks) -> tuple:
    serial = _run(capsys, tmp_path, command, settings, split=False)
    assert not forks  # below the threshold nothing forks
    return serial, _run(capsys, tmp_path, command, settings, split=True)


@pytest.mark.parametrize("count", [2, 3, 5])
@pytest.mark.parametrize("command, fmt", COMMANDS)
def test_a_run_split_by_points_gives_the_serial_bytes(command, fmt, count, two_cpus, tmp_path, capsys):
    for out in (None, str(tmp_path / f"out.{fmt}")):
        settings = {**_settings(tmp_path, 5, POINTS[:count], fmt), "out": out}
        serial, split = _serial_and_split(capsys, tmp_path, command, settings, two_cpus)
        assert split == serial
        assert serial[0] == 0 and serial[1 if out is None else 3]
        assert len(two_cpus) == 1  # one fork for the whole run
        two_cpus.clear()
    _no_child_left()


@pytest.mark.parametrize("count", [2, 3, 5])
def test_the_child_computes_the_last_half_of_the_points_rounded_down(
    count, two_cpus, tmp_path, capsys, monkeypatch
):
    log = tmp_path / "points.log"
    real = config._value_table

    def logged(prepared, point_id):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {point_id}\n")
        return real(prepared, point_id)

    monkeypatch.setattr(config, "_value_table", logged)
    _run(capsys, tmp_path, "degree", _settings(tmp_path, 5, POINTS[:count]), split=True)
    computed = [line.split() for line in log.read_text().splitlines()]
    child = [int(point) for pid, point in computed if int(pid) != os.getpid()]
    assert child == POINTS[(count + 1) // 2 : count]
    assert len(computed) == count and len(two_cpus) == 1


def test_a_failed_check_in_the_child_gives_the_serial_report_and_exit_code(
    two_cpus, tmp_path, capsys, monkeypatch
):
    settings = _settings(tmp_path, 5, POINTS[:3], "json")
    rows = np.loadtxt(settings["data"], delimiter=",", skiprows=1)
    real = config.classic_shapley_oracle

    def wrong_at_the_last_point(table):  # in either process
        oracle = real(table)
        return oracle + 1.0 if np.array_equal(table.point, rows[POINTS[2]]) else oracle

    monkeypatch.setattr(config, "classic_shapley_oracle", wrong_at_the_last_point)
    serial, split = _serial_and_split(capsys, tmp_path, "check", settings, two_cpus)
    assert split == serial
    assert serial[0] == 1 and f"FAIL  order-1-oracle point={POINTS[2]}" in serial[1]
    assert serial[1].count("FAIL") == 1
    assert len(two_cpus) == 1


def test_a_run_split_by_points_splits_no_point_by_orders(two_cpus, tmp_path, capsys, monkeypatch):
    settings = _settings(tmp_path, 6, POINTS[:3])
    monkeypatch.setattr(config, "_SPLIT_COALITIONS", 0)
    serial = _run(capsys, tmp_path, "explain", settings, split=False)
    assert len(two_cpus) == 3  # without the point split, every point is split by orders
    two_cpus.clear()
    assert _run(capsys, tmp_path, "explain", settings, split=True) == serial
    assert len(two_cpus) == 1  # with it, the one fork of the run and no other
    _no_child_left()


def test_a_one_point_run_is_split_by_orders_only(two_cpus, tmp_path, capsys, monkeypatch):
    settings = _settings(tmp_path, 6, [4])
    monkeypatch.setattr(config, "_SPLIT_COALITIONS", 0)
    serial = _run(capsys, tmp_path, "explain", settings, split=False)
    assert _run(capsys, tmp_path, "explain", settings, split=True) == serial
    assert len(two_cpus) == 2  # the point's upper orders, in each run


def _fail_in_the_point_child(monkeypatch, exc):
    parent = os.getpid()
    real = config.shapley_gam

    def failing(table):
        if os.getpid() != parent:
            raise exc
        return real(table)

    monkeypatch.setattr(config, "shapley_gam", failing)


@pytest.mark.parametrize("exc", [RuntimeError("boom"), MemoryError(), KeyboardInterrupt()])
@pytest.mark.parametrize("command, fmt", COMMANDS)
def test_a_failed_point_child_leaves_its_points_to_the_parent(
    command, fmt, exc, two_cpus, tmp_path, capsys, monkeypatch
):
    settings = {**_settings(tmp_path, 5, POINTS[:3], fmt), "out": str(tmp_path / "out")}
    serial = _run(capsys, tmp_path, command, settings, split=False)
    _fail_in_the_point_child(monkeypatch, exc)
    assert _run(capsys, tmp_path, command, settings, split=True) == serial
    assert len(two_cpus) == 1
    _no_child_left()


@pytest.mark.parametrize("command, fmt", COMMANDS)
def test_a_failed_fork_leaves_every_point_to_the_parent(command, fmt, tmp_path, capsys, monkeypatch):
    settings = _settings(tmp_path, 5, POINTS[:3], fmt)
    serial = _run(capsys, tmp_path, command, settings, split=False)

    def no_fork():
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", no_fork)
    assert _run(capsys, tmp_path, command, settings, split=True) == serial


@pytest.mark.parametrize("command, fmt", COMMANDS)
def test_no_matching_rows_at_a_child_point_is_the_serial_error(
    command, fmt, two_cpus, tmp_path, capsys, monkeypatch
):
    rows = np.random.default_rng(7).integers(0, 3, size=(12, 4)).astype(np.float64)
    data = tmp_path / "discrete.csv"
    data.write_text("f0,f1,f2,f3\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows.tolist()))
    out = tmp_path / "out"
    out.write_text("kept\n")
    settings = {
        **_settings(tmp_path, 4, [2, 5, 8, 11], fmt),
        "data": str(data),
        "value_fn": {"type": "observational"},
        "out": str(out),
    }
    del settings["background"]
    real = ObservationalExactMatchValueFunction.batch_evaluate

    def unmatched_at_point_eleven(self, point):  # in either process
        if np.array_equal(point, rows[11]):
            raise NoMatchingRows(0b0101)
        return real(self, point)

    monkeypatch.setattr(ObservationalExactMatchValueFunction, "batch_evaluate", unmatched_at_point_eleven)
    serial, split = _serial_and_split(capsys, tmp_path, command, settings, two_cpus)
    assert split == serial
    assert serial == (2, "", "nshapley: error: point 11: no rows match the explained point on subset {0,2}\n", "kept\n")
    assert len(two_cpus) == 1
    _no_child_left()


@pytest.mark.parametrize("command, fmt", COMMANDS + [("explain-stdout", "json")])
def test_an_interrupt_in_the_parent_leaves_no_child(command, fmt, two_cpus, tmp_path, monkeypatch):
    out = None if command.endswith("stdout") else str(tmp_path / "out")
    cfg = config.RunConfig.from_mapping({**_settings(tmp_path, 5, POINTS[:4], fmt), "out": out})
    parent = os.getpid()
    real = config.shapley_gam
    calls = []

    def interrupted(table):  # at the parent's second point, while the child still runs
        calls.append(1)
        if os.getpid() != parent:
            time.sleep(30)
        elif len(calls) == 2:
            raise KeyboardInterrupt
        return real(table)

    monkeypatch.setattr(config, "shapley_gam", interrupted)
    monkeypatch.setattr(config, "_SPLIT_POINT_ROWS", 0)
    run = {"explain": config.run_explain, "gam": config.run_gam, "degree": config.run_degree,
           "check": config.run_check}[command.split("-")[0]]
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run(cfg)
    assert time.monotonic() - start < 20  # the child was killed, not waited for
    assert len(two_cpus) == 1
    _no_child_left()
    assert sorted(os.listdir(tmp_path)) == ["d5.csv"]  # no results file, no temporary one


@pytest.mark.parametrize("command, fmt", COMMANDS)
def test_with_one_usable_cpu_no_run_forks(command, fmt, tmp_path, capsys, monkeypatch):
    settings = _settings(tmp_path, 5, POINTS[:3], fmt)
    serial = _run(capsys, tmp_path, command, settings, split=False)

    def no_fork():
        raise AssertionError("os.fork was called")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    monkeypatch.setattr(os, "fork", no_fork)
    assert _run(capsys, tmp_path, command, settings, split=True) == serial


class Delegating(PredictFn):
    """A wrapper that calls another model, as a tracing or caching wrapper would."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim

    def predict_batch(self, points):
        return self.inner.predict_batch(points)


@pytest.mark.parametrize("command", ["explain", "degree", "check"])
def test_a_delegating_model_never_forks(command, two_cpus, tmp_path, capsys, monkeypatch):
    settings = _settings(tmp_path, 5, POINTS)
    serial = _run(capsys, tmp_path, command, settings, split=False)
    real = config.build_model
    monkeypatch.setattr(config, "build_model", lambda spec, data: Delegating(real(spec, data)))
    assert _run(capsys, tmp_path, command, settings, split=True) == serial
    assert not two_cpus


@pytest.mark.parametrize("command", ["explain", "degree", "check"])
def test_an_external_model_run_never_forks_by_points(command, two_cpus, tmp_path, capsys):
    stub = tmp_path / "stub.py"
    stub.write_text(STUB)
    log = tmp_path / "children.log"
    model = {"type": "external", "command": f"{sys.executable} {stub} {log}", "timeout": 30}
    settings = _settings(tmp_path, 4, POINTS, model=model)
    serial = _run(capsys, tmp_path, command, settings, split=False)
    assert _run(capsys, tmp_path, command, settings, split=True) == serial
    assert serial[0] == 0
    assert not two_cpus
    assert len(log.read_text().split()) == 2  # one model child per run


BLAS_CHECK = """\
import os, sys
import numpy as np
from nshapley import config
np.ones((256, 256)) @ np.ones((256, 256))  # BLAS has run in the parent before the fork
forks = []
real_fork = os.fork
os.fork = lambda: forks.append(1) or real_fork()
os.sched_getaffinity = lambda pid: {0, 1}
config._SPLIT_POINT_ROWS = int(sys.argv[2])
text, ok = config.run_check(config.load_config(sys.argv[1]))
sys.stdout.write(f"{len(forks)} {ok}\\n{text}")
"""


def test_a_split_check_at_d10_calls_blas_in_the_child_without_a_deadlock(tmp_path):
    rows = np.round(np.random.default_rng(10).uniform(0, 1, size=(20, 10)), 4)
    data = tmp_path / "d10.csv"
    data.write_text(
        ",".join(f"f{i}" for i in range(10)) + "\n"
        + "".join(",".join(map(repr, r)) + "\n" for r in rows.tolist())
    )
    settings = {
        "data": str(data),
        "model": {"type": "checkerboard", "granularity": 2, "active": [1, 4, 6, 8]},
        "value_fn": {"type": "interventional"},
        "background": "0:16",
        "points": [16, 17, 18, 19],
    }
    (tmp_path / "run.json").write_text(json.dumps(settings))
    script = tmp_path / "check.py"
    script.write_text(BLAS_CHECK)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}

    def run(threshold: int) -> str:
        # a deadlocked child would hang the run: the timeout fails the test instead
        done = subprocess.run(
            [sys.executable, str(script), str(tmp_path / "run.json"), str(threshold)],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    serial, split = run(2**62), run(0)
    assert serial.startswith("0 True\n") and split.startswith("1 True\n")
    assert split.split("\n", 1)[1] == serial.split("\n", 1)[1]
    assert "dual-path point=19 order=10" in serial and "order-1-oracle point=19" in serial
