"""Hypothesis-generated child models driven through the CLI.

Each example starts one child process, which serves the requests of two
points and misbehaves, if at all, on one of them: it exits, truncates its
reply, swaps a reply line for a malformed, non-finite or over-1-MB one,
adds a line, writes after END, or floods its stderr. Every run must end
in one of two ways: exit 0 with the bytes of the in-process route, or
exit 2 with exactly one ``nshapley: error: point N: ...`` line and no
results file. Either way no child is left running.
"""

import contextlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from nshapley import config
from nshapley.cli import main
from nshapley.models import PredictFn

CHILD = """\
import json
import os
import sys

pid_file, plan_file = sys.argv[1:]
with open(pid_file, "w") as fh:
    fh.write(str(os.getpid()))
with open(plan_file) as fh:
    plan = json.load(fh)
text = plan["text"].encode("latin-1")
out = sys.stdout.buffer
batch = 0
while True:
    header = sys.stdin.readline()
    if not header:
        break
    if batch == plan["batch"] and plan["fault"] == "exit-unread":
        sys.exit(plan["status"])
    count = int(header.split()[2])
    rows = [sys.stdin.readline() for _ in range(count)]
    sys.stdin.readline()
    lines = [repr(float(a) * float(b)).encode() for a, b in (r.split(",") for r in rows)]
    tail = b""
    if batch == plan["batch"]:
        sys.stderr.buffer.write(plan["stderr"].encode("latin-1") * plan["flood"])
        sys.stderr.flush()
        fault, at = plan["fault"], plan["at"] % count
        if fault == "exit":
            sys.exit(plan["status"])
        if fault == "truncate":
            out.write(b"".join(line + b"\\n" for line in lines[:at]))
            out.flush()
            sys.exit(plan["status"])
        if fault in ("malformed", "non-finite", "long"):
            lines[at] = text
        elif fault == "pad":  # over 1 MB, and still the right number
            lines[at] = b" " * (1 << 20) + lines[at]
        elif fault == "extra":
            lines.insert(at, text)
        elif fault == "after-end":
            tail = text
    out.write(b"".join(line + b"\\n" for line in lines) + b"END\\n" + tail)
    out.flush()
    batch += 1
"""

DATA = "f0,f1\n1,1\n1,-1\n-1,1\n-1,-1\n3,4\n0.5,-2.25\n"
POINTS = (4, 5)  # one request, and so one batch, per point

# the faults after which the run must fail, and those after which it must succeed
FAILING = {"exit", "exit-unread", "truncate", "malformed", "non-finite", "long", "extra"}
SUCCEEDING = {"none", "pad"}


class InProcessProduct(PredictFn):
    """The child's model: the product of the two features, in Python floats."""

    dim = 2

    def predict_batch(self, points):
        return np.array([a * b for a, b in np.asarray(points).tolist()])


def _run(workdir: Path, command: str, out: Path) -> tuple[int, str]:
    model = {"type": "external", "command": command, "timeout": 20}
    argv = [
        "explain",
        "--data", str(workdir / "data.csv"),
        "--model", json.dumps(model),
        "--value-fn", "interventional",
        "--background", "0:4",
        "--points", ",".join(map(str, POINTS)),
        "--out", str(out),
    ]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert stdout.getvalue() == ""
    return code, stderr.getvalue()


def _parses(line: bytes) -> bool:
    try:
        float(line)
    except ValueError:
        return False
    return True


# reply lines float() rejects, so no malformed line can pass for a number
malformed = st.binary(min_size=1, max_size=40).filter(
    lambda b: b"\n" not in b and b"\r" not in b and not _parses(b)
)
non_finite = st.sampled_from([b"nan", b"inf", b"-inf", b"+Infinity", b"NaN", b"1e999"])


@st.composite
def plans(draw, fault):
    text = b""
    if fault == "malformed":
        text = draw(malformed)
    elif fault == "non-finite":
        text = draw(non_finite)
    elif fault == "long":  # a line over 1 MB that is no finite number
        text = draw(st.sampled_from([b"9", b"x"])) * ((1 << 20) + draw(st.integers(1, 4096)))
    elif fault == "extra":
        text = draw(st.one_of(st.just(b"0.5"), st.just(b"END"), malformed))
    elif fault == "after-end":
        text = draw(st.binary(min_size=1, max_size=40))
    return {
        "fault": fault,
        "batch": draw(st.integers(0, len(POINTS) - 1)),
        "at": draw(st.integers(0, 64)),
        "status": draw(st.integers(0, 9)),
        "text": text.decode("latin-1"),
        "stderr": draw(st.binary(min_size=1, max_size=64)).decode("latin-1"),
        "flood": draw(st.sampled_from([0, 1, 1 << 15])),  # copies of the stderr text
    }


# four examples for each of ten faults: 40 children, one at a time; a
# failing example is reported as found, not shrunk by starting more
@pytest.mark.parametrize("fault", sorted(FAILING | SUCCEEDING | {"after-end"}))
@settings(max_examples=4, deadline=None, derandomize=True, phases=[Phase.generate])
@given(data=st.data())
def test_a_generated_child_ends_in_success_or_one_clean_error(fault, data):
    plan = data.draw(plans(fault))
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        (workdir / "data.csv").write_text(DATA)
        (workdir / "child.py").write_text(CHILD)
        (workdir / "plan.json").write_text(json.dumps(plan))
        pid_file = workdir / "child.pid"
        command = f"{sys.executable} {workdir / 'child.py'} {pid_file} {workdir / 'plan.json'}"
        out = workdir / "results.json"
        code, err = _run(workdir, command, out)
        with pytest.raises(ProcessLookupError):
            os.kill(int(pid_file.read_text()), 0)  # exited and reaped
        if code == 0:
            assert plan["fault"] not in FAILING
            assert err == ""
            in_process = workdir / "in-process.json"
            with mock.patch.object(config, "build_model", lambda *_: InProcessProduct()):
                assert _run(workdir, "unused", in_process) == (0, "")
            assert out.read_bytes() == in_process.read_bytes()
        else:
            assert plan["fault"] not in SUCCEEDING
            assert code == 2
            assert re.fullmatch(r"nshapley: error: point [45]: [^\n]*\n", err), err[:300]
            assert len(err) < 1 << 14  # echoes at most a line's head and stderr's 2 KiB tail
            assert "Traceback" not in err
            assert sorted(p.name for p in workdir.iterdir()) == [
                "child.pid", "child.py", "data.csv", "plan.json"
            ]  # no results file, whole or partial
