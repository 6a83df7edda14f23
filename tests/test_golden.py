"""Byte-for-byte output contract on a small committed fixture.

``golden/run.json`` explains two points of a 5-feature additive model
with single, pair and triple terms. Every CLI output below must equal
the committed file in ``golden/expected/`` byte for byte: a change to
any of them is a change of the documented output, not a refactor.

To regenerate the expected files after an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
from pathlib import Path

import pytest

from nshapley.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
EXPECTED = GOLDEN / "expected"

# expected file name -> CLI arguments; "{out}" is the output path, and a
# run without it is compared on its stdout.
RUNS = {
    "explain.json": ["explain", "--config", "run.json", "--out", "{out}"],
    "explain.csv": ["explain", "--config", "run.json", "--format", "csv", "--out", "{out}"],
    "gam.json": ["gam", "--config", "run.json", "--out", "{out}"],
    "degree.json": ["degree", "--config", "run.json", "--out", "{out}"],
    "check.txt": ["check", "--config", "run.json"],
    "bars_point6_order1.svg": [
        "plot", "bars", "--config", "run.json", "--points", "6", "--order", "1",
        "--out", "{out}",
    ],
    "bars_point6_order2.svg": [
        "plot", "bars", "--config", "run.json", "--points", "6", "--order", "2",
        "--out", "{out}",
    ],
    "bars_point6_order3.svg": [
        "plot", "bars", "--config", "run.json", "--points", "6", "--order", "3",
        "--out", "{out}",
    ],
    "bars_point6_order4.svg": [
        "plot", "bars", "--config", "run.json", "--points", "6", "--order", "4",
        "--out", "{out}",
    ],
    "bars_point6_order5.svg": [
        "plot", "bars", "--config", "run.json", "--points", "6", "--order", "5",
        "--out", "{out}",
    ],
    "dependence_feature2_order2.svg": [
        "plot", "dependence", "2", "--config", "run.json", "--order", "2", "--out", "{out}",
    ],
}
# expected file name -> the RUNS entry whose run writes it beside its output
BESIDE = {"dependence_feature2_order2.csv": "dependence_feature2_order2.svg"}


def produce(name: str, workdir: Path) -> bytes:
    """Run one golden command from the fixture directory; return its output bytes."""
    if name in BESIDE:
        produce(BESIDE[name], workdir)
        return (workdir / name).read_bytes()
    out = workdir / name
    argv = [arg.replace("{out}", str(out)) for arg in RUNS[name]]
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code == 0, f"{name}: exit code {code}"
    if "{out}" in RUNS[name]:
        return out.read_bytes()
    return stdout.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(RUNS | BESIDE))
def test_output_matches_golden_bytes(name, tmp_path):
    assert produce(name, tmp_path) == (EXPECTED / name).read_bytes()


if __name__ == "__main__":
    import tempfile

    EXPECTED.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(RUNS | BESIDE):
            (EXPECTED / name).write_bytes(produce(name, Path(tmp)))
            print(EXPECTED / name)
