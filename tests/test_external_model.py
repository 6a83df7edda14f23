"""The child-process model protocol."""

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from _exact_oracle import oracle_request
from nshapley.models import (
    MAX_TIMEOUT,
    ExternalModel,
    PredictFn,
    ProcessFailed,
    ProtocolTimeout,
)
from nshapley.valuefn import ObservationalExactMatchValueFunction

ECHO_FIRST = """\
import sys
import threading
import time

def main():
    while True:
        header = sys.stdin.readline()
        if not header:
            return
        tag, dim, count = header.split()
        assert tag == "NSHAP-MODEL-V1"
        rows = [sys.stdin.readline() for _ in range(int(count))]
        end = sys.stdin.readline().strip()
        assert end == "END"
        for row in rows:
            sys.stdout.write(repr(float(row.split(",")[0])) + "\\n")
        sys.stdout.write("END\\n")
        sys.stdout.flush()

main()
"""

MALFORMED = """\
import sys
import threading
import time
header = sys.stdin.readline()
tag, dim, count = header.split()
for _ in range(int(count)):
    sys.stdin.readline()
sys.stdin.readline()
sys.stdout.write("0.5\\n")
sys.stdout.write("not-a-number\\n")
sys.stdout.flush()
sys.exit(3)
"""

SLEEPY = """\
import sys, time
sys.stdin.readline()
time.sleep(30)
"""

CRASH = """\
import sys
import threading
import time
sys.stdin.readline()
sys.exit(9)
"""


def _stub(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(source)
    return f"{sys.executable} {path}"


def test_echo_first_coordinate(tmp_path):
    command = _stub(tmp_path, "echo.py", ECHO_FIRST)
    with ExternalModel(command, dim=3) as model:
        pts = np.array([[1.5, 0.0, 0.0], [-2.25, 9.0, 4.0]])
        assert list(model.predict_batch(pts)) == [1.5, -2.25]
        assert model.predict(np.array([0.125, 7.0, 7.0])) == 0.125


def test_large_batch_preserves_order(tmp_path):
    command = _stub(tmp_path, "echo.py", ECHO_FIRST)
    rng = np.random.default_rng(4)
    pts = np.column_stack([rng.normal(size=1000), rng.normal(size=1000)])
    with ExternalModel(command, dim=2) as model:
        out = model.predict_batch(pts)
    assert out.shape == (1000,)
    assert np.array_equal(out, pts[:, 0])  # round-trip floats survive exactly


def test_multiple_batches_reuse_one_process(tmp_path):
    command = _stub(tmp_path, "echo.py", ECHO_FIRST)
    with ExternalModel(command, dim=1) as model:
        first = model.predict_batch(np.array([[1.0], [2.0]]))
        proc = model._proc
        second = model.predict_batch(np.array([[3.0]]))
        assert model._proc is proc
    assert list(first) == [1.0, 2.0]
    assert list(second) == [3.0]


def test_malformed_reply_cites_line(tmp_path):
    command = _stub(tmp_path, "bad.py", MALFORMED)
    model = ExternalModel(command, dim=2)
    with pytest.raises(ProcessFailed, match="reply line 2"):
        model.predict_batch(np.zeros((3, 2)))
    assert model._proc is None  # reaped


def test_timeout(tmp_path):
    command = _stub(tmp_path, "sleepy.py", SLEEPY)
    model = ExternalModel(command, dim=2, timeout=0.5)
    with pytest.raises(ProtocolTimeout):
        model.predict_batch(np.zeros((2, 2)))
    assert model._proc is None


@pytest.mark.parametrize(
    "timeout", [0.0, -1.0, np.nextafter(MAX_TIMEOUT, np.inf), 1e10, np.inf, np.nan]
)
def test_timeout_outside_the_selectable_range_is_rejected(timeout):
    with pytest.raises(ValueError, match="timeout must be > 0 and at most 1000000 seconds"):
        ExternalModel("unused", dim=1, timeout=timeout)


def test_timeout_range_ends_at_the_cap():
    assert ExternalModel("unused", dim=1, timeout=MAX_TIMEOUT).timeout == MAX_TIMEOUT
    assert ExternalModel("unused", dim=1, timeout=1e-3).timeout == 1e-3


def test_nonzero_exit_reported(tmp_path):
    command = _stub(tmp_path, "crash.py", CRASH)
    model = ExternalModel(command, dim=2)
    with pytest.raises(ProcessFailed, match="exit status 9"):
        model.predict_batch(np.zeros((2, 2)))
    assert model._proc is None


def test_unspawnable_command():
    with pytest.raises(ProcessFailed):
        ExternalModel("/no/such/binary-xyz", dim=2).predict_batch(np.zeros((1, 2)))


def test_close_is_idempotent(tmp_path):
    command = _stub(tmp_path, "echo.py", ECHO_FIRST)
    model = ExternalModel(command, dim=1)
    model.predict_batch(np.array([[1.0]]))
    model.close()
    model.close()


SLEEP_ONCE = """\
import sys, time, os
flag = sys.argv[1]
while True:
    header = sys.stdin.readline()
    if not header:
        break
    _, dim, count = header.split()
    rows = [sys.stdin.readline() for _ in range(int(count))]
    assert sys.stdin.readline().strip() == "END"
    if not os.path.exists(flag):
        open(flag, "w").close()
        time.sleep(30)
    for row in rows:
        sys.stdout.write(repr(float(row.split(",")[0])) + "\\n")
    sys.stdout.write("END\\n")
    sys.stdout.flush()
"""


def test_recovers_cleanly_after_timeout(tmp_path):
    # the replacement process must not see stale lines from the killed one
    flag = tmp_path / "slept-once"
    command = _stub(tmp_path, "sleep_once.py", SLEEP_ONCE) + f" {flag}"
    model = ExternalModel(command, dim=1, timeout=0.5)
    with pytest.raises(ProtocolTimeout):
        model.predict_batch(np.array([[1.0]]))
    out = model.predict_batch(np.array([[2.5], [3.5]]))
    assert list(out) == [2.5, 3.5]
    model.close()


HEADER_ONLY = """\
import sys, time
sys.stdin.readline()
time.sleep(60)
"""


def test_timeout_covers_a_blocked_write(tmp_path):
    # the child stops reading after the header, so the request (far larger
    # than a pipe buffer) can never be written in full
    command = _stub(tmp_path, "header_only.py", HEADER_ONLY)
    model = ExternalModel(command, dim=4, timeout=1.0)
    outcome = []

    def call():
        try:
            model.predict_batch(np.zeros((200_000, 4)))
        except Exception as exc:
            outcome.append(exc)

    start = time.monotonic()
    worker = threading.Thread(target=call, daemon=True)
    worker.start()
    worker.join(20)
    assert not worker.is_alive(), "predict_batch blocked past its deadline"
    assert len(outcome) == 1 and isinstance(outcome[0], ProtocolTimeout)
    assert time.monotonic() - start < 10
    assert model._proc is None


DUPLICATE_REPLY = """\
import sys
import threading
import time
while True:
    header = sys.stdin.readline()
    if not header:
        break
    _, dim, count = header.split()
    rows = [sys.stdin.readline() for _ in range(int(count))]
    sys.stdin.readline()
    reply = "".join(repr(float(r.split(",")[0])) + "\\n" for r in rows)
    sys.stdout.write(reply + "END\\n7.0\\nEND\\n")
    sys.stdout.flush()
"""


def test_reply_after_end_fails_its_batch(tmp_path):
    command = _stub(tmp_path, "duplicate.py", DUPLICATE_REPLY)
    model = ExternalModel(command, dim=1)
    with pytest.raises(ProcessFailed, match="after END"):
        model.predict_batch(np.array([[3.0]]))
    assert model._proc is None
    # the next batch talks to a fresh child and never sees the stray 7.0
    with pytest.raises(ProcessFailed, match="after END"):
        model.predict_batch(np.array([[4.0]]))
    assert model._proc is None


def test_protocol_failure_closes_stdin_before_waiting(tmp_path):
    # the child still reads its stdin, so end-of-input lets it exit on its own
    # instead of being killed after the grace period
    command = _stub(tmp_path, "duplicate.py", DUPLICATE_REPLY)
    model = ExternalModel(command, dim=1)
    with pytest.raises(ProcessFailed, match=r"after END \(exit status 0\)"):
        model.predict_batch(np.array([[3.0]]))


STRAY_BETWEEN_BATCHES = """\
import sys, time
while True:
    header = sys.stdin.readline()
    if not header:
        break
    _, dim, count = header.split()
    rows = [sys.stdin.readline() for _ in range(int(count))]
    sys.stdin.readline()
    sys.stdout.write("".join(repr(float(r.split(",")[0])) + "\\n" for r in rows) + "END\\n")
    sys.stdout.flush()
    time.sleep(0.1)
    sys.stdout.write("7.0\\nEND\\n")
    sys.stdout.flush()
"""


def test_output_between_batches_fails_the_next_batch(tmp_path):
    command = _stub(tmp_path, "stray.py", STRAY_BETWEEN_BATCHES)
    model = ExternalModel(command, dim=1)
    assert list(model.predict_batch(np.array([[3.0]]))) == [3.0]
    time.sleep(1.0)
    with pytest.raises(ProcessFailed, match="outside a batch's reply"):
        model.predict_batch(np.array([[4.0]]))
    assert model._proc is None


EARLY_REPLY = """\
import sys, time
_, dim, count = sys.stdin.readline().split()
sys.stdout.write("0.0\\n" * int(count) + "END\\n")
sys.stdout.flush()
time.sleep(60)
"""


def test_reply_before_request_is_read_fails(tmp_path):
    command = _stub(tmp_path, "early.py", EARLY_REPLY)
    model = ExternalModel(command, dim=4, timeout=20.0)
    start = time.monotonic()
    with pytest.raises(ProcessFailed, match="before reading its whole request"):
        model.predict_batch(np.zeros((50_000, 4)))
    assert time.monotonic() - start < 10
    assert model._proc is None


MALFORMED_THEN_SLEEP = """\
import sys, time
_, dim, count = sys.stdin.readline().split()
for _ in range(int(count) + 1):
    sys.stdin.readline()
sys.stdout.write("0.5\\noops\\n")
sys.stdout.flush()
time.sleep(60)
"""


def test_malformed_line_fails_before_the_deadline(tmp_path):
    command = _stub(tmp_path, "oops.py", MALFORMED_THEN_SLEEP)
    model = ExternalModel(command, dim=2, timeout=30.0)
    start = time.monotonic()
    with pytest.raises(ProcessFailed, match="reply line 2: 'oops'"):
        model.predict_batch(np.zeros((3, 2)))
    assert time.monotonic() - start < 10
    assert model._proc is None


CRLF = """\
import sys
import threading
import time
while True:
    header = sys.stdin.buffer.readline()
    if not header:
        break
    _, dim, count = header.split()
    rows = [sys.stdin.buffer.readline() for _ in range(int(count))]
    sys.stdin.buffer.readline()
    reply = b"".join(r.split(b",")[0] + b"\\r\\n" for r in rows)
    sys.stdout.buffer.write(reply + b"END\\r\\n")
    sys.stdout.buffer.flush()
"""


def test_crlf_replies_round_trip(tmp_path):
    command = _stub(tmp_path, "crlf.py", CRLF)
    pts = np.array([[0.1, 5.0], [-3.75, 5.0], [1e-300, 5.0]])
    with ExternalModel(command, dim=2) as model:
        assert np.array_equal(model.predict_batch(pts), pts[:, 0])
        assert np.array_equal(model.predict_batch(pts[::-1]), pts[::-1, 0])


STDERR_FLOOD = """\
import sys
err = sys.stderr.buffer
while True:
    header = sys.stdin.readline()
    if not header:
        break
    _, dim, count = header.split()
    rows = [sys.stdin.readline() for _ in range(int(count))]
    sys.stdin.readline()
    err.write((b"w" * 1023 + b"\\n") * 512)  # half a MiB before the reply ...
    err.flush()
    sys.stdout.write("".join(repr(float(r.split(",")[0])) + "\\n" for r in rows) + "END\\n")
    sys.stdout.flush()
    err.write((b"w" * 1023 + b"\\n") * 512)  # ... and half after it
    err.flush()
"""


def test_a_child_flooding_stderr_serves_batches_and_exits_on_close(tmp_path):
    command = _stub(tmp_path, "flood.py", STDERR_FLOOD)
    model = ExternalModel(command, dim=1, timeout=30.0)
    assert list(model.predict_batch(np.array([[1.5], [2.5]]))) == [1.5, 2.5]
    proc = model._proc
    assert list(model.predict_batch(np.array([[-3.0]]))) == [-3.0]
    model.close()
    assert proc.returncode == 0  # exited on its own once its stderr was read
    assert len(model._stderr) == 2048 and model._stderr.endswith(b"w\n")


LAST_WORDS = """\
import sys
sys.stdin.readline()
sys.stderr.write("loading weights\\n" * 300 + "fatal: weights.bin is missing\\n  \\n")
sys.exit(3)
"""


def test_a_failure_names_the_last_line_the_child_wrote_to_stderr(tmp_path):
    command = _stub(tmp_path, "last_words.py", LAST_WORDS)
    model = ExternalModel(command, dim=2)
    with pytest.raises(ProcessFailed) as info:
        model.predict_batch(np.zeros((2, 2)))
    assert str(info.value).endswith(
        "(exit status 3); stderr: 'fatal: weights.bin is missing'"
    )
    assert model._proc is None


BINARY_LAST_WORDS = """\
import sys
sys.stdin.readline()
line = bytes(range(256)).replace(b"\\n", b"n").replace(b"\\r", b"r") * 8
sys.stderr.buffer.write(line)  # one 2,048-byte line, the whole kept tail
sys.stderr.flush()
sys.exit(1)
"""


def test_a_long_binary_stderr_line_is_quoted_as_a_reply_line_is(tmp_path):
    command = _stub(tmp_path, "b.py", BINARY_LAST_WORDS)
    model = ExternalModel(command, dim=2)
    with pytest.raises(ProcessFailed) as info:
        model.predict_batch(np.zeros((2, 2)))
    message = str(info.value)
    assert "\n" not in message and len(message) < 400, message
    assert message.endswith("'...")
    # the first 80 bytes, decoded as a reply line is
    quoted = repr(bytes(range(80)).replace(b"\n", b"n").replace(b"\r", b"r").decode())
    assert message.endswith(f"; stderr: {quoted}...")


PRODUCT_RECORDER = """\
import sys
log = sys.argv[1]
while True:
    header = sys.stdin.readline()
    if not header:
        break
    count = int(header.split()[2])
    rows = [sys.stdin.readline().split(",") for _ in range(count)]
    sys.stdin.readline()
    with open(log, "a") as fh:
        fh.write(f"{count}\\n")
    sys.stdout.write("".join(repr(float(a) * float(b) - float(c)) + "\\n" for a, b, c in rows))
    sys.stdout.write("END\\n")
    sys.stdout.flush()
"""


class ProductMinus(PredictFn):
    dim = 3

    def predict_batch(self, points):
        return points[:, 0] * points[:, 1] - points[:, 2]


def test_observational_predictions_come_in_calls_of_at_most_8192_rows(tmp_path):
    log = tmp_path / "requests.log"
    command = _stub(tmp_path, "product.py", PRODUCT_RECORDER) + f" {log}"
    data = np.random.default_rng(20).integers(-3, 4, size=(20_000, 3)).astype(np.float64)
    with ExternalModel(command, dim=3) as model:
        external = ObservationalExactMatchValueFunction(model, data)
    assert log.read_text().split() == ["8192", "8192", "3616"]
    in_process = ProductMinus()
    assert np.array_equal(external._predictions, in_process.predict_batch(data))
    x = data[7]
    assert np.array_equal(
        external.batch_evaluate(x),
        ObservationalExactMatchValueFunction(in_process, data).batch_evaluate(x),
    )


RECORDER = """\
import sys
log = sys.argv[1]
inp, out = sys.stdin.buffer, sys.stdout.buffer
while True:
    header = inp.readline()
    if not header:
        break
    count = int(header.split()[2])
    body = b"".join(inp.readline() for _ in range(count + 1))
    with open(log, "wb") as fh:
        fh.write(header + body)
    out.write(b"0\\n" * count + b"END\\n")
    out.flush()
"""


@pytest.fixture(scope="module")
def sent_request(tmp_path_factory):
    """``sent_request(points)``: the bytes one recording child received for them."""
    root = tmp_path_factory.mktemp("recorder")
    stub = root / "recorder.py"
    stub.write_text(RECORDER)
    log = root / "request.bin"
    models = {}

    def send(points):
        dim = points.shape[1]
        if dim not in models:
            models[dim] = ExternalModel(f"{sys.executable} {stub} {log}", dim=dim)
        assert list(models[dim].predict_batch(points)) == [0.0] * points.shape[0]
        return log.read_bytes()

    yield send
    for model in models.values():
        model.close()


_SPECIAL = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072009e-308]
_SEVENTEEN_DIGITS = [0.1 + 0.2, 1.0000000000000002, 1 / 3, 2.0 / 3.0, 1e23, -9007199254740993.0]

REQUEST_CASES = {
    "zero-rows": np.zeros((0, 3)),
    "one-row": np.array([[1.5, -2.0, 0.125]]),
    "one-column": np.array([[0.5], [-0.0], [0.5], [7.0]]),
    "one-column-zero-rows": np.zeros((0, 1)),
    "signed-zeros-in-one-column": np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [-0.0, 0.0]]),
    "non-finite-and-subnormal": np.array([_SPECIAL, _SPECIAL[::-1]]),
    "seventeen-digits": np.array([_SEVENTEEN_DIGITS, [-v for v in _SEVENTEEN_DIGITS]]),
    "repeated-rows": np.tile(np.array([[0.1, -0.0, 3.0], [2.5, 0.0, -1e-300]]), (50, 1)),
    "hybrid-rows": np.where(
        (np.arange(64)[:, None] >> np.arange(6) & 1).astype(bool)[:, None, :],
        np.linspace(-1.0, 1.0, 6),
        np.random.default_rng(5).normal(size=(4, 6)),
    ).reshape(-1, 6),
}


@pytest.mark.parametrize("case", list(REQUEST_CASES))
def test_request_bytes_match_the_per_value_encoder(case, sent_request):
    points = REQUEST_CASES[case]
    assert sent_request(points) == oracle_request(points)


def test_zero_row_request_is_header_and_end(sent_request):
    assert sent_request(np.zeros((0, 2))) == b"NSHAP-MODEL-V1 2 0\nEND\n"


@settings(max_examples=60, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(0, 12), st.integers(1, 4)),
        elements=st.one_of(st.sampled_from(_SPECIAL), st.floats(allow_subnormal=True)),
    )
)
def test_request_bytes_match_on_any_float_matrix(sent_request, points):
    assert sent_request(points) == oracle_request(points)
