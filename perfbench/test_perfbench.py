"""Tests for the benchmark's own generator, checks and declaration.

Run from the repository root:

    python3 -m pytest perfbench

The check tests run the real CLI once per workload (about 25 s in all)
and then require each check to accept that output and to reject a copy
with one value perturbed; two more tests run one short benchmark
invocation each, untraced and traced (about 20 s).
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from checks import check_output
from run import END_TO_END, Runner, output_of
from trace_run import LAYER_METRICS
from workloads import WORKLOADS, generate

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _tree(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_byte_deterministic_per_seed(name, tmp_path):
    first = _tree(generate(name, 7, tmp_path / "a").directory)
    again = _tree(generate(name, 7, tmp_path / "b").directory)
    other = _tree(generate(name, 8, tmp_path / "c").directory)
    assert first == again
    assert first.keys() == other.keys()
    assert first["data.csv"] != other["data.csv"]


def test_declaration_matches_the_code():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _) in LAYER_METRICS.items()
    ]
    assert all(len(w["why"]) <= 200 for w in declared["workloads"])


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One real CLI run per workload: name -> (generated workload, output bytes)."""
    result = {}
    for name in WORKLOADS:
        gen = generate(name, 3, tmp_path_factory.mktemp(name))
        run = Runner(ROOT, gen.directory, time.monotonic()).cli(gen)
        assert run.returncode == 0, run.stderr.decode()
        result[name] = (gen, output_of(gen, run))
    return result


def _perturb_json(data: bytes, edit) -> bytes:
    payload = json.loads(data)
    edit(payload)
    return (json.dumps(payload, indent=2) + "\n").encode()


def _perturb_csv_row(data: bytes, row: int, delta: float) -> bytes:
    table = list(csv.reader(io.StringIO(data.decode())))
    table[row][3] = repr(float(table[row][3]) + delta)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(table)
    return out.getvalue().encode()


def _bump(mapping: dict, key, delta: float) -> None:
    mapping[key] += delta


PERTURBATIONS = {
    "explain-additive-d16": [
        # an order-1 value: breaks the totals and the even split
        lambda d: _perturb_json(d, lambda recs: _bump(recs[0]["values"], "0", 1e-3)),
        # a component of size 5 in the decomposition
        lambda d: _perturb_json(d, lambda recs: _bump(recs[15]["values"], "0,1,2,3,4", 1e-3)),
        # the baseline of a middle order
        lambda d: _perturb_json(d, lambda recs: _bump(recs[7], "baseline", 1e-3)),
    ],
    "degree-external-d12": [
        lambda d: _perturb_json(
            d, lambda rep: _bump(rep["per_point"], next(iter(rep["per_point"])), 1e-9)
        ),
    ],
    "explain-observational-d14": [
        lambda d: _perturb_csv_row(d, 1, 1e-3),  # a baseline
        lambda d: _perturb_csv_row(d, 2, 1e-3),  # an attribution
    ],
    "check-checkerboard-d10": [
        lambda d: d.replace(b"PASS", b"FAIL", 1),
        lambda d: b"\n".join(l for l in d.split(b"\n") if not l.startswith(b"PASS  dual-path")),
    ],
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_check_accepts_the_programs_output(name, outputs):
    gen, data = outputs[name]
    assert check_output(gen, data) == []


@pytest.mark.parametrize(
    "name,case",
    [(name, i) for name, cases in PERTURBATIONS.items() for i in range(len(cases))],
)
def test_check_rejects_a_perturbed_copy(name, case, outputs):
    gen, data = outputs[name]
    perturbed = PERTURBATIONS[name][case](data)
    assert perturbed != data
    assert check_output(gen, perturbed) != []


def test_check_reports_unreadable_output(outputs):
    gen, data = outputs["explain-additive-d16"]
    assert check_output(gen, data[: len(data) // 2]) != []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    proc = subprocess.run(
        [*declared["command"], "--workload", "check-checkerboard-d10", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""


@pytest.mark.parametrize("trace", [0, 1])
def test_one_invocation_reports_every_declared_metric(trace):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    proc = subprocess.run(
        [*declared["command"], "--workload", "degree-external-d12", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    wanted = declared["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
