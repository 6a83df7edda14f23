"""Seeded inputs for the pipeline benchmark's workloads.

``generate(name, seed, directory)`` writes every file the program reads
for one workload: the CSV data, the run configuration with its model
and component specs, and for the external workload the child script
with its weights. The same seed gives the same bytes. The program is
then run as ``python3 -m nshapley <subcommand> --config run.json`` from
inside that directory and sees nothing else.

Each workload records why it was chosen: every one of them exercises a
layer that the others bypass, so a change to that layer shows up on
one workload and is predicted to leave the others unchanged.
"""

from __future__ import annotations

import itertools
import json
import shlex
import shutil
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

CONFIG_NAME = "run.json"
DATA_NAME = "data.csv"
WEIGHTS_NAME = "weights.json"
CHILD_NAME = "mlp_child.py"
CHILD_LOG_NAME = "child_times.log"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    subcommand: str
    points: int
    build: Callable[["Workload", np.random.Generator, Path], dict]


@dataclass(frozen=True)
class Generated:
    """One generated workload instance in its own directory."""

    workload: Workload
    directory: Path
    config: dict

    @property
    def argv(self) -> list[str]:
        """Arguments after ``python3 -m nshapley``; run with cwd=directory."""
        return [self.workload.subcommand, "--config", CONFIG_NAME]

    @property
    def output(self) -> str | None:
        """The output file the run writes, or None when it reports on stdout."""
        return self.config.get("out")


def _write_csv(path: Path, rows: np.ndarray) -> None:
    header = ",".join(f"f{i}" for i in range(rows.shape[1]))
    lines = [header] + [",".join(repr(v) for v in row) for row in rows.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _num(rng: np.random.Generator, scale: float = 1.0) -> float:
    return round(float(rng.normal(0.0, scale)), 6)


def _poly(coeffs) -> dict:
    return {"kind": "poly", "coeffs": list(coeffs)}


def _term(features, factors, coefficient: float) -> dict:
    return {
        "type": "term",
        "features": [int(f) for f in features],
        "factors": factors,
        "coefficient": coefficient,
    }


def _singles(rng: np.random.Generator, dim: int) -> list[dict]:
    return [
        _term([i], [_poly([0.0, _num(rng), _num(rng, 0.5)])], 1.0) for i in range(dim)
    ]


def _products(rng: np.random.Generator, dim: int, size: int, count: int) -> list[dict]:
    subsets = list(itertools.combinations(range(dim), size))
    picks = sorted(rng.choice(len(subsets), size=count, replace=False).tolist())
    return [
        _term(subsets[k], [_poly([_num(rng, 0.3), 1.0]) for _ in range(size)], _num(rng))
        for k in picks
    ]


def _explained_rows(first: int, count: int) -> list[int]:
    return list(range(first, first + count))


def _build_explain_additive(w: Workload, rng: np.random.Generator, out: Path) -> dict:
    dim, n_bg = 16, 64
    _write_csv(out / DATA_NAME, np.round(rng.uniform(-1.0, 1.0, (n_bg + w.points, dim)), 4))
    lookup_features = sorted(rng.choice(dim, size=2, replace=False).tolist())
    components = (
        [{"type": "constant", "value": _num(rng)}]
        + _singles(rng, dim)
        + _products(rng, dim, 2, 12)
        + _products(rng, dim, 3, 6)
        + [
            {
                "type": "lookup",
                "features": lookup_features,
                "lo": [-1.0, -1.0],
                "hi": [1.0, 1.0],
                "values": np.round(rng.normal(size=(5, 5)), 6).tolist(),
            }
        ]
    )
    return {
        "data": DATA_NAME,
        "model": {"type": "additive", "components": components},
        "value_fn": {"type": "interventional"},
        "background": f"0:{n_bg}",
        "order": "all",
        "points": _explained_rows(n_bg, w.points),
        "out": "out.json",
        "format": "json",
    }


def _build_degree_external(w: Workload, rng: np.random.Generator, out: Path) -> dict:
    dim, n_bg, hidden = 12, 16, 32
    _write_csv(out / DATA_NAME, np.round(rng.uniform(-1.0, 1.0, (n_bg + w.points, dim)), 4))
    weights = {
        "w1": (rng.normal(size=(dim, hidden)) / np.sqrt(dim)).tolist(),
        "b1": (0.5 * rng.normal(size=hidden)).tolist(),
        "w2": (rng.normal(size=hidden) / np.sqrt(hidden)).tolist(),
        "b2": float(rng.normal()),
    }
    (out / WEIGHTS_NAME).write_text(json.dumps(weights) + "\n", encoding="utf-8")
    shutil.copyfile(Path(__file__).with_name(CHILD_NAME), out / CHILD_NAME)
    command = " ".join(
        shlex.quote(part) for part in (sys.executable, CHILD_NAME, WEIGHTS_NAME, CHILD_LOG_NAME)
    )
    return {
        "data": DATA_NAME,
        "model": {"type": "external", "command": command, "timeout": 120.0},
        "value_fn": {"type": "interventional"},
        "background": f"0:{n_bg}",
        "points": _explained_rows(n_bg, w.points),
        "out": "out.json",
        "format": "json",
    }


def _build_explain_observational(w: Workload, rng: np.random.Generator, out: Path) -> dict:
    dim, n_rows = 14, 2000
    rows = rng.integers(0, 3, size=(n_rows, dim)).astype(np.float64)
    _write_csv(out / DATA_NAME, rows)
    components = (
        [{"type": "constant", "value": _num(rng)}]
        + _singles(rng, dim)
        + _products(rng, dim, 2, 6)
    )
    points = sorted(rng.choice(n_rows, size=w.points, replace=False).tolist())
    return {
        "data": DATA_NAME,
        "model": {"type": "additive", "components": components},
        "value_fn": {"type": "observational"},
        "order": 2,
        "points": points,
        "out": "out.csv",
        "format": "csv",
    }


def _build_check_checkerboard(w: Workload, rng: np.random.Generator, out: Path) -> dict:
    dim, n_bg = 10, 32
    _write_csv(out / DATA_NAME, np.round(rng.uniform(0.0, 1.0, (n_bg + w.points, dim)), 4))
    active = sorted(rng.choice(dim, size=4, replace=False).tolist())
    return {
        "data": DATA_NAME,
        "model": {"type": "checkerboard", "granularity": 2, "active": active},
        "value_fn": {"type": "interventional"},
        "background": f"0:{n_bg}",
        "order": "all",
        "points": _explained_rows(n_bg, w.points),
    }


# Point counts keep one CLI run at 2-4 s on a 2-core x86 host, so that a
# 25 s run holds several; one d16 point alone takes 7-10 s there.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "explain-additive-d16",
            "full-report path: a 4.2M-row value table, all 16 orders and 30 MB of JSON "
            "per point; dense indices, streamed output and structured tables show here",
            "explain",
            1,
            _build_explain_additive,
        ),
        Workload(
            "degree-external-d12",
            "black-box route and the only one through the subprocess pipe; tiny output "
            "and no exploitable structure, so index and table changes should not move it",
            "degree",
            2,
            _build_degree_external,
        ),
        Workload(
            "explain-observational-d14",
            "observational exact-match value function: per-mask scans over 2000 discrete "
            "rows; bucketed exact-match shows here and nowhere else",
            "explain",
            4,
            _build_explain_observational,
        ),
        Workload(
            "check-checkerboard-d10",
            "cross-check routes (recursive, explicit, delta_weighted) do ~95% of the work; "
            "the deletion criterion for the numba flavour, bypassed by every other workload",
            "check",
            2,
            _build_check_checkerboard,
        ),
    )
}


def generate(name: str, seed: int, directory: Path) -> Generated:
    """Write a fresh instance of workload ``name`` for ``seed`` into ``directory``."""
    workload = WORKLOADS[name]
    directory = Path(directory)
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    config = workload.build(workload, rng, directory)
    (directory / CONFIG_NAME).write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")
    return Generated(workload, directory, config)
