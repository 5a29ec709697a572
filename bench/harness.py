"""Measurement plumbing for the benchmark: a span tracer that wraps the
program's functions from outside, attribute patching, and the in-memory
stdin/stdout that time each streamed step."""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Aggregated spans around calls into the program.

    Each wrapped call adds one span under its name.  A span's self time is
    its duration minus the time covered by spans that started and ended
    inside it.  Spans are aggregated as they close (calls, seconds, self
    seconds) so a long run holds no per-call list, except for the names in
    ``keep``, whose per-call durations are kept in order.
    """

    def __init__(self, keep: tuple[str, ...] = ()):
        self.totals: dict[str, list] = {}
        self.durations: dict[str, list[float]] = {name: [] for name in keep}
        self._children: list[float] = []

    def wrap(self, name: str, fn):
        kept = self.durations.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._children.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = self._children.pop()
                entry = self.totals.setdefault(name, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - child
                if self._children:
                    self._children[-1] += elapsed
                if kept is not None:
                    kept.append(elapsed)

        return traced

    def calls(self, name: str) -> int:
        return self.totals.get(name, [0, 0.0, 0.0])[0]

    def seconds(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[1]

    def self_seconds(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[2]

    def install(self, targets):
        """Patch every (owner, attribute, span name) target with a span."""
        return patched([(owner, attr, self.wrap(name, getattr(owner, attr)))
                        for owner, attr, name in targets])


@contextmanager
def patched(replacements):
    """Set (owner, attribute, value) triples, restoring the old values on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class StepFeed:
    """Stands in for stdin: hands out encoded step records one line at a
    time and notes when each was handed out."""

    def __init__(self, lines: list[str]):
        self._lines = lines
        self.handed: list[float] = []

    def __iter__(self):
        for line in self._lines:
            self.handed.append(perf_counter())
            yield line


class RecordSink:
    """Stands in for stdout: keeps what is written and notes each flush."""

    def __init__(self):
        self._parts: list[str] = []
        self.flushed: list[float] = []

    def write(self, text: str) -> int:
        self._parts.append(text)
        return len(text)

    def flush(self) -> None:
        self.flushed.append(perf_counter())

    def getvalue(self) -> str:
        return "".join(self._parts)


class HostGauge:
    """Gauges the host's speed with a fixed task that belongs to the benchmark.

    On a shared host the same code runs up to 1.7x slower for minutes at a
    time, and interpreter-bound code slows more than array-bound code.  The
    gauge task therefore has two halves of about equal time: JSON decoding
    and encoding with small matrix-vector products and ufuncs (like a
    streamed step), and einsums, log-sum-exps and a small solve over a few
    hundred rows (like an EM iteration).  It is timed between units of the
    program's work, and each unit's time is scaled by ``REFERENCE_S`` over
    the gauge's median time within ``WINDOW_S`` of the unit.  The program
    never runs the task, so a change to the program cannot move it.
    """

    REFERENCE_S = 5e-3        # the task's time at the reference speed
    WINDOW_S = 10.0
    MIN_SAMPLES = 5

    def __init__(self):
        import json

        import numpy as np

        rng = np.random.default_rng(0)
        self._np, self._json = np, json
        self._w = rng.standard_normal((256, 96))
        self._x = rng.standard_normal(96)
        self._lines = [json.dumps({"x": rng.standard_normal(6).tolist(),
                                   "z": rng.standard_normal(9).tolist()}) for _ in range(16)]
        self._rows = rng.standard_normal((400, 9))
        self._coef = rng.standard_normal((3, 3, 9))
        self._logs = rng.standard_normal((400, 3, 3))
        self.times: list[float] = []
        self.durations: list[float] = []

    def _interpreted(self) -> None:
        np, json = self._np, self._json
        x = self._x
        for i in range(80):
            record = json.loads(self._lines[i % 16])
            g = self._w @ x
            h = np.tanh(g[:64]) * (1.0 / (1.0 + np.exp(-g[64:128])))
            x = np.concatenate([h, x[64:]])
            json.dumps({"t": i, "p": h[: len(record["z"])].tolist()})

    def _arrays(self) -> None:
        np = self._np
        rows = self._rows
        gram = rows.T @ rows + np.eye(rows.shape[1])
        for _ in range(9):
            logits = np.einsum("ijk,tk->tij", self._coef, rows)
            shifted = logits - logits.max(axis=2, keepdims=True)
            logp = shifted - np.log(np.exp(shifted).sum(axis=2, keepdims=True))
            np.logaddexp.reduce(self._logs + logp, axis=1)
            np.linalg.solve(gram, rows.T @ rows[:, 0])

    def sample(self, count: int = 3) -> None:
        for _ in range(count):
            start = perf_counter()
            self._interpreted()
            self._arrays()
            end = perf_counter()
            self.times.append(0.5 * (start + end))
            self.durations.append(end - start)

    def scale(self, t: float) -> float:
        """Factor that brings a time measured around ``t`` to the reference speed."""
        np = self._np
        times, durations = np.asarray(self.times), np.asarray(self.durations)
        near = np.abs(times - t) <= self.WINDOW_S
        if near.sum() < self.MIN_SAMPLES:
            near = np.ones_like(near)
        return self.REFERENCE_S / float(np.median(durations[near]))
