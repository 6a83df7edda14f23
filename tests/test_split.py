"""A large point's upper orders, computed and written by a forked child.

``explain`` splits a point whose records cover at least
``config._SPLIT_COALITIONS`` coalitions over two or more orders: a
forked child computes and writes the upper orders while the parent does
the lower ones, then the parent copies the child's bytes in. The tests
lower that threshold to 0, so every point of a small run is split, and
compare with the serial run of the same configuration byte for byte.
"""

import json
import os
import sys

import numpy as np
import pytest

from nshapley import config
from nshapley.cli import main
from nshapley.lattice import NonFiniteValue

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
