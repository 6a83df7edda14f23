"""Pipeline benchmark for the ``nshapley`` CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs every workload in turn and exits with code 1
if any output check failed.

The workload's inputs are generated from the seed into a fresh
directory under ``.perfbench_work/`` (see ``workloads.py``), removed
again at the end, and the program runs from there as
``python3 -m nshapley`` with the checkout's ``src`` on ``PYTHONPATH``.
The load is one closed-loop client: one CLI process at a time (plus
the external model's child in ``degree-external-d12``). Every measured
process is started through ``spawn.py``.

``--trace 0`` alternates whole CLI runs with set-up-only runs
(``setup_probe.py``) for ``--seconds`` seconds, with at least
``MIN_RUNS`` of the first and ``MIN_SETUPS`` of the second. It checks
the output of the first run (``checks.py``) and that every later run
wrote the same bytes, and reports medians over the runs:

* ``run_s``        wall time of one whole CLI process
* ``setup_s``      wall time of one set-up-only process
* ``points_per_s`` explained points / (``run_s`` - ``setup_s``)
* ``peak_rss_mb``  peak RSS of the CLI process and its child (``wait4``)

``--trace 1`` pairs an untraced CLI run with a traced in-process run
(``trace_run.py``) of the same configuration, repeated for
``--seconds`` seconds, and reports the per-layer metrics as medians
over the pairs. The traced output must equal the CLI's byte for byte.

Human-readable lines come first: every metric by name and unit (and,
traced, the end-to-end metric it should move), the error rate (runs
that exited nonzero or failed a check, over runs attempted; it is the
``failed``/``attempted`` pair of the result, not a metric, because it
is 0 on a healthy program), and an ``env`` record (Python and numpy
versions, cores, whether numba is present, and a fixed numpy
calibration loop timed before and after the runs, to tell host drift
from a regression). The last line is the JSON result ``{"correct",
"attempted", "failed", "metrics"}`` (one per workload). The exit code
is 0 when a result is printed, 2 when the benchmark cannot run at all
(for example without ``src/nshapley``).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import check_output
from trace_run import LAYER_METRICS, TRACED_OUT
from workloads import CHILD_LOG_NAME, CONFIG_NAME, WORKLOADS, Generated, generate

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"
MIN_RUNS = 2
MIN_SETUPS = 5
# Every process is killed once the invocation has run this long, so the
# whole invocation stays inside its 180 s allowance.
HARD_LIMIT_S = 170.0

END_TO_END = {
    "run_s": "s",
    "points_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class ProcessRun:
    started: float  # time.monotonic() when the process was started
    wall_s: float
    returncode: int
    maxrss_mb: float
    cpu_s: float
    stdout: bytes
    stderr: bytes


class Runner:
    """Runs one measured process at a time through ``spawn.py``."""

    def __init__(self, root: Path, directory: Path, started: float):
        self.directory = directory
        self.deadline = started + HARD_LIMIT_S
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )

    def run(self, argv: list[str]) -> ProcessRun:
        out_path = self.directory / "proc.stdout"
        err_path = self.directory / "proc.stderr"
        timeout = max(1.0, self.deadline - time.monotonic())
        spawn = [sys.executable, str(BENCH_DIR / "spawn.py"), f"{timeout:.1f}"]
        report = subprocess.run(
            [*spawn, str(out_path), str(err_path), *argv],
            cwd=self.directory,
            env=self.env,
            stdin=subprocess.DEVNULL,
            capture_output=True,
            check=True,
            timeout=timeout + 5.0,
        )
        return ProcessRun(
            **json.loads(report.stdout),
            stdout=out_path.read_bytes(),
            stderr=err_path.read_bytes(),
        )

    def cli(self, gen: Generated) -> ProcessRun:
        if gen.output is not None:  # a run that writes nothing must not pass on a stale file
            (gen.directory / gen.output).unlink(missing_ok=True)
        return self.run([sys.executable, "-m", "nshapley", *gen.argv])

    def setup(self) -> ProcessRun:
        return self.run([sys.executable, str(BENCH_DIR / "setup_probe.py"), CONFIG_NAME])


def calibration_s() -> float:
    """A fixed numpy loop, timed: 40 sorts of the same 400k doubles."""
    values = np.random.default_rng(0).random(400_000)
    start = time.perf_counter()
    for _ in range(40):
        np.sort(values)
    return time.perf_counter() - start


def output_of(gen: Generated, run: ProcessRun) -> bytes:
    if gen.output is None:
        return run.stdout
    path = gen.directory / gen.output
    return path.read_bytes() if path.exists() else b""


class Outcomes:
    """Attempted and failed runs, and the first output every later one must equal."""

    def __init__(self, gen: Generated):
        self.gen = gen
        self.attempted = 0
        self.problems: list[str] = []
        self.reference: bytes | None = None
        self.failed = 0

    def record(self, label: str, run: ProcessRun, data: bytes | None = None) -> None:
        self.attempted += 1
        problems = []
        if run.returncode != 0:
            tail = run.stderr.decode("utf-8", "replace").strip().splitlines()[-3:]
            problems.append(f"exit code {run.returncode}: {' | '.join(tail)}")
        else:
            if data is None:
                data = output_of(self.gen, run)
            if self.reference is None:
                problems = check_output(self.gen, data)
                if not problems:
                    self.reference = data
            elif data != self.reference:
                problems.append("output bytes differ from the first run's")
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


def another_round(rounds: list[float], end: float) -> bool:
    """Start another round only if it should end less than half a round after ``end``."""
    return time.monotonic() + statistics.median(rounds) / 2 < end


def measure(gen: Generated, runner: Runner, seconds: float, outcomes: Outcomes) -> dict:
    runs: list[ProcessRun] = []
    setups: list[float] = []
    rounds: list[float] = []
    end = time.monotonic() + seconds
    while len(runs) < MIN_RUNS or another_round(rounds, end):
        started = time.monotonic()
        run = runner.cli(gen)
        outcomes.record(f"run {len(runs) + 1}", run)
        runs.append(run)
        setups.append(runner.setup().wall_s)
        rounds.append(time.monotonic() - started)
    while len(setups) < MIN_SETUPS:
        setups.append(runner.setup().wall_s)
    run_s = statistics.median(r.wall_s for r in runs)
    setup_s = statistics.median(setups)
    print(f"{len(runs)} CLI runs (s): {' '.join(f'{r.wall_s:.3f}' for r in runs)}")
    print(f"{len(setups)} set-up runs (s): {' '.join(f'{s:.3f}' for s in setups)}")
    return {
        "run_s": run_s,
        "points_per_s": gen.workload.points / (run_s - setup_s),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(r.maxrss_mb for r in runs),
    }


def measure_traced(gen: Generated, runner: Runner, seconds: float, outcomes: Outcomes) -> dict:
    samples: dict[str, list[float]] = {name: [] for name in LAYER_METRICS}
    rounds: list[float] = []
    end = time.monotonic() + seconds
    pairs = 0
    while pairs < 1 or another_round(rounds, end):
        started = time.monotonic()
        pairs += 1
        run = runner.cli(gen)
        outcomes.record(f"CLI run {pairs}", run)
        for stale in (CHILD_LOG_NAME, TRACED_OUT):
            (gen.directory / stale).unlink(missing_ok=True)
        traced = runner.run(
            [sys.executable, str(BENCH_DIR / "trace_run.py"), gen.workload.subcommand]
        )
        layers = None
        if traced.returncode == 0:
            report = json.loads(traced.stdout.decode("utf-8").splitlines()[-1])
            layers = report["metrics"]
            layers["process.cpu_s"] = run.cpu_s
            layers["trace.overhead_s"] = report["pipeline_end"] - traced.started - run.wall_s
            for name in LAYER_METRICS:
                samples[name].append(layers[name])
        data = (gen.directory / TRACED_OUT).read_bytes() if layers is not None else None
        outcomes.record(f"traced run {pairs}", traced, data)
        rounds.append(time.monotonic() - started)
    print(f"{pairs} pairs of CLI and traced runs")
    return {name: statistics.median(vals) for name, vals in samples.items() if vals}


def environment(calibrations: list[float]) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "numba": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
        "calibration_s": calibrations,
    }


def run_workload(name: str, args: argparse.Namespace, root: Path, directory: Path) -> dict | None:
    """One workload's runs; prints its lines and returns the result (None if it cannot run)."""
    gen = generate(name, args.seed, directory)
    print(f"workload {gen.workload.name} seed {args.seed}: {gen.workload.why}")
    runner = Runner(root, gen.directory, time.monotonic())
    calibrations = [calibration_s()]
    warm = runner.setup()  # compiles bytecode and fills the file cache
    if warm.returncode != 0:
        sys.stderr.write(warm.stderr.decode("utf-8", "replace"))
        sys.stderr.write("perfbench: the program cannot be set up from this checkout\n")
        return None

    outcomes = Outcomes(gen)
    if args.trace:
        metrics = measure_traced(gen, runner, args.seconds, outcomes)
        units = {m: unit for m, (unit, _, _) in LAYER_METRICS.items()}
        notes = {m: f"  -> {moves}" for m, (_, _, moves) in LAYER_METRICS.items()}
    else:
        metrics = measure(gen, runner, args.seconds, outcomes)
        units = END_TO_END
        notes = {}
    calibrations.append(calibration_s())

    for problem in outcomes.problems:
        print(f"FAILED {problem}")
    for metric, value in metrics.items():
        print(f"{metric} {value:.6g} {units[metric]}{notes.get(metric, '')}")
    print(f"error_rate {outcomes.failed / outcomes.attempted:.6g} ratio "
          f"({outcomes.failed} of {outcomes.attempted} runs)")
    print(json.dumps({"env": environment(calibrations)}))
    result = {
        "correct": not outcomes.problems and len(metrics) == len(units),
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {m: {"value": value, "unit": units[m]} for m, value in metrics.items()},
    }
    print(json.dumps(result))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=[*WORKLOADS, "all"],
        help="one workload, or 'all': each in turn, exit code 1 if any output check fails",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path.cwd()
    if not (root / "src" / "nshapley" / "__init__.py").is_file():
        sys.stderr.write("perfbench: run from a checkout root; src/nshapley is missing\n")
        return 2
    sys.path.insert(0, str(root / "src"))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    all_correct = True
    for name in names:
        directory = root / WORK_DIR / f"{name}-{args.seed}-{os.getpid()}"
        try:
            result = run_workload(name, args, root, directory)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        if result is None:
            return 2
        all_correct = all_correct and result["correct"]
    return 0 if all_correct or args.workload != "all" else 1


if __name__ == "__main__":
    sys.exit(main())
