"""Prediction functions that can be explained.

Every model is a ``PredictFn``: it has a ``dim`` and a deterministic
``predict_batch`` mapping an (n, dim) array of points to n float64
outputs, with ``predict`` the single-point convenience. Two calls with
identical input bytes produce identical output bytes. Each model kind is
one class that callers construct directly:

* ``ComponentMap(dim, components)``, the additive model: a sum of terms
  from a tiny closed-form component grammar (constants, per-feature
  polynomials up to degree 4, sines, step functions, products across
  features) or gridded lookup tables with multilinear interpolation,
* ``CheckerboardModel(dim, granularity, active)``, a pure order-n
  interaction benchmark,
* ``KnnModel(train, labels, k)``, a k-nearest-neighbour
  regressor/probability scorer,
* ``ExternalModel(command, dim, timeout)``, a line-oriented subprocess
  bridge for attaching external models.
"""

from __future__ import annotations

import abc
import os
import selectors
import shlex
import subprocess
import threading
import time
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .lattice import MAX_DIM, mask_from_indices, popcount

__all__ = [
    "PredictFn",
    "Component",
    "ConstantComponent",
    "ProductComponent",
    "LookupComponent",
    "PolyFactor",
    "SineFactor",
    "StepFactor",
    "ComponentMap",
    "CheckerboardModel",
    "KnnModel",
    "ExternalModel",
    "ProcessFailed",
    "ProtocolTimeout",
]


def as_points(points, dim: int) -> np.ndarray:
    """Coerce to a contiguous (n, dim) float64 matrix."""
    arr = np.ascontiguousarray(points, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"expected points of dimension {dim}, got shape {arr.shape}")
    return arr


class PredictFn(abc.ABC):
    """Deterministic real-valued function of dim features."""

    dim: int

    @abc.abstractmethod
    def predict_batch(self, points) -> np.ndarray:
        """Predictions for an (n, dim) array, elementwise equal to predict."""

    def predict(self, point) -> float:
        return float(self.predict_batch(as_points(point, self.dim))[0])

    def close(self):
        """Release what the model holds; in-process models hold nothing."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


# ---------------------------------------------------------------------------
# Component grammar
# ---------------------------------------------------------------------------


class Component(abc.ABC):
    """One additive term g_S: reads only the feature columns in ``features``."""

    features: tuple[int, ...]

    @property
    def mask(self) -> int:
        return mask_from_indices(self.features)

    @abc.abstractmethod
    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Values on an (n, d) matrix of full points; uses only own columns."""


def _check_features(features) -> tuple[int, ...]:
    feats = tuple(int(i) for i in features)
    if any(b <= a for a, b in zip(feats, feats[1:])):
        raise ValueError(f"feature indices must be strictly ascending, got {feats}")
    if feats and feats[0] < 0:
        raise ValueError(f"feature indices must be >= 0, got {feats}")
    return feats


@dataclass(frozen=True)
class ConstantComponent(Component):
    value: float
    features = ()

    def evaluate(self, points):
        return np.full(points.shape[0], float(self.value))


@dataclass(frozen=True)
class PolyFactor:
    """Polynomial in one feature, degree at most 4: coeffs[k] * x**k."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        if not 1 <= len(coeffs) <= 5:
            raise ValueError("polynomial factors support degree 0..4")
        object.__setattr__(self, "coeffs", coeffs)

    def __call__(self, col: np.ndarray) -> np.ndarray:
        out = np.full(col.shape, self.coeffs[-1])
        for c in self.coeffs[-2::-1]:
            out = out * col + c
        return out


@dataclass(frozen=True)
class SineFactor:
    frequency: float = 1.0
    phase: float = 0.0

    def __call__(self, col: np.ndarray) -> np.ndarray:
        return np.sin(self.frequency * col + self.phase)


@dataclass(frozen=True)
class StepFactor:
    """1 where x >= threshold, else 0."""

    threshold: float = 0.0

    def __call__(self, col: np.ndarray) -> np.ndarray:
        return np.where(col >= self.threshold, 1.0, 0.0)


@dataclass(frozen=True)
class ProductComponent(Component):
    """coefficient * product over features of a per-feature factor."""

    features: tuple[int, ...]
    factors: tuple
    coefficient: float = 1.0

    def __post_init__(self):
        feats = _check_features(self.features)
        if not feats:
            raise ValueError("product components need at least one feature")
        factors = tuple(self.factors)
        if len(factors) != len(feats):
            raise ValueError("need exactly one factor per feature")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "coefficient", float(self.coefficient))

    def evaluate(self, points):
        out = np.full(points.shape[0], self.coefficient)
        for idx, factor in zip(self.features, self.factors):
            out = out * factor(points[:, idx])
        return out


class LookupComponent(Component):
    """Gridded term: multilinear interpolation on a uniform per-axis grid.

    Queries outside the grid are clamped to the boundary; every batch
    that clamps at least one row bumps ``clamped_evaluations`` by the
    number of affected rows (advisory diagnostics, not thread-exact).
    The count is over the rows the component is given: for an
    interventional value table of a ``ComponentMap`` those are its
    2**|L| * n_bg reduced rows, not the 2**d * n_bg hybrid rows.
    """

    def __init__(self, features, lo, hi, values):
        self.features = _check_features(features)
        if not self.features:
            raise ValueError("lookup components need at least one feature")
        m = len(self.features)
        grid = np.ascontiguousarray(values, dtype=np.float64)
        if grid.ndim != m:
            raise ValueError(f"grid must have {m} axes, got {grid.ndim}")
        if any(n < 2 for n in grid.shape):
            raise ValueError("grid needs at least 2 points per axis")
        if not np.all(np.isfinite(grid)):
            raise ValueError("grid values must be finite")
        self._lo = np.ascontiguousarray(lo, dtype=np.float64)
        hi_arr = np.ascontiguousarray(hi, dtype=np.float64)
        if self._lo.shape != (m,) or hi_arr.shape != (m,):
            raise ValueError(f"lo/hi must have {m} entries")
        if np.any(hi_arr <= self._lo):
            raise ValueError("hi must exceed lo on every axis")
        self._npts = np.array(grid.shape, dtype=np.int64)
        self._step = (hi_arr - self._lo) / (self._npts - 1)
        self._flat = grid.ravel()
        self.clamped_evaluations = 0

    def evaluate(self, points):
        cols = np.ascontiguousarray(points[:, list(self.features)], dtype=np.float64)
        out, clamped = _kernels.interp_multilinear(
            cols, self._lo, self._step, self._npts, self._flat
        )
        if clamped:
            self.clamped_evaluations += clamped
        return out


class ComponentMap(PredictFn):
    """The additive model f(x) = sum over subsets S of g_S(x_S).

    Multiple components on the same subset simply add; the empty map is
    identically 0. The map is immutable once built and safe to evaluate
    concurrently.
    """

    def __init__(self, dim: int, components):
        if not 0 <= dim <= MAX_DIM:
            raise ValueError(f"dim must be in [0, {MAX_DIM}], got {dim}")
        self.dim = dim
        components = tuple(components)
        for comp in components:
            if comp.mask >> dim:
                raise ValueError(
                    f"component over features {comp.features} does not fit dim={dim}"
                )
        # the order predict_batch adds them in: ascending mask, and the
        # declaration order among components on the same mask
        self.components = tuple(sorted(components, key=lambda c: c.mask))
        self.order = max((popcount(c.mask) for c in self.components), default=0)

    @property
    def clamped_evaluations(self) -> int:
        """Total boundary clamps across all lookup components.

        Counted over the rows the components are evaluated on. An
        interventional value table evaluates a component on L only on
        its 2**|L| * n_bg reduced rows, so a clamping query counts once
        per reduced row, not once for every one of the 2**d * n_bg
        hybrid rows that share it (unless the map's reduced tables are
        too large and the table takes the generic route).
        """
        return sum(
            comp.clamped_evaluations
            for comp in self.components
            if isinstance(comp, LookupComponent)
        )

    def component_table(self, point) -> np.ndarray:
        """Dense per-subset values g_S(x) at a single point (zeros off support)."""
        row = as_points(point, self.dim)
        table = np.zeros(1 << self.dim)
        for comp in self.components:
            table[comp.mask] += float(comp.evaluate(row)[0])
        return table

    def predict_batch(self, points):
        pts = as_points(points, self.dim)
        out = np.zeros(pts.shape[0])
        for comp in self.components:
            out += comp.evaluate(pts)
        return out


# ---------------------------------------------------------------------------
# Checkerboard
# ---------------------------------------------------------------------------

_EDGE = np.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class CheckerboardModel(PredictFn):
    """Parity-product benchmark on [0,1]**dim.

    f(x) = (1 + product of per-axis cell parities over ``active``) / 2,
    inputs clamped to [0,1]; ``active`` defaults to every feature.
    granularity is the number of cells per axis and must be even: with
    even granularity each parity factor averages to exactly zero over
    the per-axis cell centers, which concentrates the whole interaction
    on the full active set.
    """

    dim: int
    granularity: int = 2
    active: tuple[int, ...] | None = None

    def __post_init__(self):
        if not 1 <= self.dim <= MAX_DIM:
            raise ValueError(f"dim must be in [1, {MAX_DIM}], got {self.dim}")
        if self.granularity < 2 or self.granularity % 2:
            raise ValueError(
                f"granularity must be even and >= 2, got {self.granularity}"
            )
        active = self.active
        if active is None:
            active = tuple(range(self.dim))
        else:
            active = _check_features(active)
            if not active:
                raise ValueError("active feature list must be nonempty")
            if active[-1] >= self.dim:
                raise ValueError(f"active features {active} out of range for dim={self.dim}")
        object.__setattr__(self, "active", active)

    def predict_batch(self, points):
        pts = as_points(points, self.dim)
        cols = np.clip(pts[:, list(self.active)], 0.0, _EDGE)
        parity = np.floor(cols * self.granularity).astype(np.int64) & 1
        signs = 1.0 - 2.0 * parity
        return 0.5 * (1.0 + signs.prod(axis=1))


# ---------------------------------------------------------------------------
# k-nearest neighbours
# ---------------------------------------------------------------------------


class KnnModel(PredictFn):
    """Mean label of the k nearest training rows under Euclidean distance.

    Distance ties break toward the lower row index, so predictions are
    deterministic. Returns the label mean (a probability-like score for
    0/1 labels), never a hard class. Queries are taken in blocks sized
    from the training set, so each block's (queries, n_train, dim)
    differences take about 8 MiB, however large the batch.
    """

    def __init__(self, train, labels, k: int):
        self.train = np.array(train, dtype=np.float64)
        if self.train.ndim != 2 or self.train.shape[0] == 0:
            raise ValueError("training set must be a nonempty (n, dim) matrix")
        self.labels = np.array(labels, dtype=np.float64)
        if self.labels.shape != (self.train.shape[0],):
            raise ValueError("labels must align with training rows")
        if not 1 <= k <= self.train.shape[0]:
            raise ValueError(f"k must be in [1, {self.train.shape[0]}], got {k}")
        self.k = int(k)
        self.dim = self.train.shape[1]

    def predict_batch(self, points):
        pts = as_points(points, self.dim)
        out = np.empty(pts.shape[0])
        rows = max(1, (1 << 20) // max(1, self.train.size))
        for start in range(0, pts.shape[0], rows):
            block = pts[start : start + rows]
            d2 = ((block[:, None, :] - self.train[None, :, :]) ** 2).sum(axis=2)
            nearest = np.argsort(d2, axis=1, kind="stable")[:, : self.k]
            out[start : start + block.shape[0]] = self.labels[nearest].mean(axis=1)
        return out


# ---------------------------------------------------------------------------
# External models over a child-process pipe
# ---------------------------------------------------------------------------


class ProcessFailed(RuntimeError):
    """The child process exited abnormally or sent a malformed reply."""


class ProtocolTimeout(RuntimeError):
    """The child process did not answer a batch within the deadline."""


_PROTOCOL_HEADER = "NSHAP-MODEL-V1"

# Longest batch timeout, in seconds. The selector waits in whole
# milliseconds and epoll takes at most 2**31 - 1 of them (~24.8 days).
MAX_TIMEOUT = 1_000_000.0
# Bytes of the child's stderr kept for failure messages.
_STDERR_TAIL = 2048


def _quoted(line: bytes) -> str:
    """A reply line for a failure message: its first 80 bytes, and '...' if there are more."""
    return repr(line[:80].decode(errors="replace")) + ("..." if len(line) > 80 else "")


class ExternalModel(PredictFn):
    """Batch bridge to a model running in a child process.

    Wire protocol, line oriented over the child's stdin/stdout:

        engine -> model   "NSHAP-MODEL-V1 <dim> <row_count>"
                          row_count lines of dim comma-separated floats
                          "END"
        model -> engine   row_count lines, one float each
                          "END"

    Request floats are Python ``repr`` text, the shortest decimal that
    round-trips (up to 17 significant digits; ``-0.0``, ``nan``, ``inf``
    and ``-inf`` as written). Each column's distinct values are formatted
    once per batch and shared by the rows that hold them. Reply floats
    are anything ``float()`` parses; reply lines end in ``\n`` or
    ``\r\n``. A process serves any number of batches and is shut down by
    closing its stdin. The timeout covers a whole batch, write and read;
    it must be > 0 and at most ``MAX_TIMEOUT`` (10**6 s). Output sent
    outside a batch's reply fails that batch, and every failure ends the
    child (stdin closed, killed if still running after a grace period).
    The child's stderr is read whenever the engine waits on it, during a
    batch and while it exits; its last 2 KiB are kept, and every failure
    message ends with their last non-empty line. A message quotes a
    reply line or that stderr line by ``_quoted``: at most its first 80
    bytes, and '...' if there are more. Access is serialised internally.
    """

    def __init__(self, command: str, dim: int, timeout: float = 60.0):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.command = command
        self.dim = dim
        self.timeout = float(timeout)
        if not 0.0 < self.timeout <= MAX_TIMEOUT:
            raise ValueError(
                f"timeout must be > 0 and at most {MAX_TIMEOUT:.0f} seconds, got {timeout!r}"
            )
        self._argv = shlex.split(command)
        if not self._argv:
            raise ValueError("empty command")
        self._lock = threading.Lock()
        self._proc: subprocess.Popen | None = None
        self._stderr = b""  # the last _STDERR_TAIL bytes of the child's stderr

    def _start(self):
        try:
            self._proc = subprocess.Popen(
                self._argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                bufsize=0,
            )
        except OSError as exc:
            raise ProcessFailed(f"could not spawn {self.command!r}: {exc}") from exc
        self._stderr = b""
        # a child that stops reading must not block a write past the deadline
        os.set_blocking(self._proc.stdin.fileno(), False)

    def _read_stderr(self, fd: int) -> bool:
        """Keep the tail of what the child wrote to stderr; False once it is closed."""
        chunk = os.read(fd, 1 << 16)
        self._stderr = (self._stderr + chunk)[-_STDERR_TAIL:]
        return bool(chunk)

    def _stderr_line(self) -> str:
        """``; stderr: `` and its last non-empty line, quoted as a reply line is; or nothing."""
        lines = [ln.strip() for ln in self._stderr.splitlines() if ln.strip()]
        return f"; stderr: {_quoted(lines[-1])}" if lines else ""

    def _reap(self, grace: float) -> int:
        """Close stdin, give the child ``grace`` seconds to exit, then kill it; forget it.

        Its stderr is read until closed or the grace period ends, so a
        child blocked writing there can still exit.
        """
        proc, self._proc = self._proc, None
        proc.stdin.close()
        deadline = time.monotonic() + grace
        err = proc.stderr.fileno()
        try:
            with selectors.DefaultSelector() as sel:
                sel.register(err, selectors.EVENT_READ)
                while (remaining := deadline - time.monotonic()) > 0 and sel.select(remaining):
                    if not self._read_stderr(err):
                        break
            return proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            return proc.wait()
        finally:
            proc.stdout.close()
            proc.stderr.close()

    def _fail(self, message: str) -> ProcessFailed:
        status = self._reap(1.0)
        return ProcessFailed(
            f"model {self.command!r} {message} (exit status {status}){self._stderr_line()}"
        )

    def _exchange(self, request: memoryview, n: int) -> np.ndarray:
        """``Popen.communicate`` over open pipes: write, and parse as lines arrive."""
        deadline = time.monotonic() + self.timeout
        stdin, stdout = self._proc.stdin.fileno(), self._proc.stdout.fileno()
        stderr = self._proc.stderr.fileno()
        out, partial = np.empty(n), b""
        sent = lines_read = 0  # request bytes written; reply lines seen, END included
        with selectors.DefaultSelector() as sel:
            sel.register(stdout, selectors.EVENT_READ)
            if sel.select(0):  # output waiting before the request belongs to no batch
                stray = os.read(stdout, 80)
                raise self._fail(
                    f"sent {stray!r} outside a batch's reply" if stray else "closed its output"
                )
            sel.register(stdin, selectors.EVENT_WRITE)
            sel.register(stderr, selectors.EVENT_READ)
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._reap(0.0)
                    raise ProtocolTimeout(
                        f"model {self.command!r} exceeded {self.timeout}s for one batch"
                        f"{self._stderr_line()}"
                    )
                for key, _ in sel.select(remaining):
                    if key.fd == stderr:
                        if not self._read_stderr(stderr):
                            sel.unregister(stderr)
                        continue
                    if key.fd == stdin:
                        try:
                            sent += os.write(stdin, request[sent:])
                        except BlockingIOError:
                            continue
                        except OSError:
                            raise self._fail("closed its input") from None
                        if sent == len(request):
                            sel.unregister(stdin)
                        continue
                    chunk = os.read(stdout, 1 << 16)
                    if not chunk:
                        raise self._fail("closed its output mid-batch")
                    data = partial + chunk
                    cut = data.rfind(b"\n") + 1
                    partial = data[cut:]
                    for line in data[:cut].splitlines():  # \n, \r\n or \r, as text mode
                        if lines_read < n:
                            try:
                                out[lines_read] = float(line)
                            except ValueError:
                                raise self._fail(
                                    f"sent malformed reply line {lines_read + 1}: {_quoted(line)}"
                                ) from None
                        elif lines_read == n and line != b"END":
                            raise self._fail(
                                f"sent {_quoted(line)} where END was expected "
                                f"(reply line {n + 1})"
                            )
                        lines_read += 1
                    if lines_read > n:
                        if lines_read > n + 1 or partial:
                            raise self._fail("sent output after END")
                        if sent < len(request):
                            raise self._fail("replied before reading its whole request")
                        return out

    def predict_batch(self, points):
        pts = as_points(points, self.dim)
        n = pts.shape[0]
        # hybrid rows repeat few values per column: repr each distinct bit
        # pattern once (so -0.0 keeps its sign) and gather the strings
        cols = []
        for column in pts.T:
            uniq, inv = np.unique(column.view(np.uint64), return_inverse=True)
            text = np.array([repr(v) for v in uniq.view(np.float64).tolist()], dtype=object)
            cols.append(text[inv].tolist())
        lines = [f"{_PROTOCOL_HEADER} {self.dim} {n}"]
        lines.extend(map(",".join, zip(*cols)))
        lines.append("END\n")
        request = memoryview("\n".join(lines).encode("ascii"))
        with self._lock:
            if self._proc is None:
                self._start()
            return self._exchange(request, n)

    def close(self):
        """Close the child's stdin and wait for it to exit."""
        with self._lock:
            if self._proc is not None:
                self._reap(5.0)

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass
