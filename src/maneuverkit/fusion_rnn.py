"""Two-stream sensory-fusion recurrent network for event anticipation.

Fusion mode runs the outside stream x and the inside stream z through
separate LSTM cells, concatenates their hidden states at every step,
squashes the concatenation through a tanh fusion layer, and applies a
softmax output head:

    e_t = tanh(W_f [h_t^x; h_t^z] + b_f)
    y_t = softmax(W_y e_t + b_y)

Concat mode is the single-stream baseline: one LSTM over the per-step
concatenation [x_t; z_t] with the softmax head reading the hidden state
directly (no fusion layer).

All parameters live in one contiguous float64 vector ``theta``; every
parameter array is a reshaped view into it.  The order is lstm_x (W, U, V,
b), lstm_z (W, U, V, b), W_f, b_f, W_y, b_y, which is also the order of the
per-gate blocks that :func:`param_blocks` names and checkpoints store.
Gradients are flat vectors with the same layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .lstm import (
    LstmParams,
    LstmTape,
    gate_blocks,
    init_lstm_params,
    lstm_backward,
    lstm_forward,
    lstm_shapes,
)
from .numerics import softmax_rows

ARCH_FUSION = "fusion"
ARCH_CONCAT = "concat"


@dataclass
class FusionRnnModel:
    """Parameters of the full network, as views of ``theta``.

    ``theta=None`` allocates a zero vector.  In concat mode ``lstm_z``,
    ``W_f`` and ``b_f`` are None and ``lstm_x`` consumes the concatenated
    input of size input_x + input_z.
    """

    arch: str
    input_x: int
    input_z: int
    hidden: int
    fusion: int
    events: tuple[str, ...]
    theta: np.ndarray | None = None
    lstm_x: LstmParams = field(init=False, repr=False)
    lstm_z: LstmParams | None = field(init=False, repr=False)
    W_f: np.ndarray | None = field(init=False, repr=False)
    b_f: np.ndarray | None = field(init=False, repr=False)
    W_y: np.ndarray = field(init=False, repr=False)
    b_y: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.arch not in (ARCH_FUSION, ARCH_CONCAT):
            raise ValueError(f"unknown arch {self.arch!r}")
        if min(self.input_x, self.input_z, self.hidden, self.k) < 1:
            raise ValueError("all model dimensions must be positive")
        fused = self.arch == ARCH_FUSION
        if fused and self.fusion < 1:
            raise ValueError("fusion width must be positive")
        H = self.hidden
        if fused:
            shapes = lstm_shapes(self.input_x, H) + lstm_shapes(self.input_z, H)
            shapes += [(self.fusion, 2 * H), (self.fusion,)]
        else:
            shapes = lstm_shapes(self.input_x + self.input_z, H)
        shapes += [(self.k, self.fusion if fused else H), (self.k,)]
        size = sum(math.prod(s) for s in shapes)
        if self.theta is None:
            self.theta = np.zeros(size)
        theta = self.theta
        if theta.shape != (size,) or theta.dtype != np.float64 or not theta.flags.c_contiguous:
            raise ValueError(
                f"theta must be a contiguous float64 vector of {size} entries, got "
                f"{theta.dtype} {theta.shape}"
            )
        views, offset = [], 0
        for shape in shapes:
            n = math.prod(shape)
            views.append(theta[offset : offset + n].reshape(shape))
            offset += n
        self.lstm_x = LstmParams(*views[:4])
        self.lstm_z = LstmParams(*views[4:8]) if fused else None
        self.W_f, self.b_f = views[8:10] if fused else (None, None)
        self.W_y, self.b_y = views[-2:]

    @property
    def k(self) -> int:
        return len(self.events)

    def copy(self) -> "FusionRnnModel":
        return replace(self, theta=self.theta.copy())


@dataclass
class FusionTape:
    """Forward-pass cache consumed by :func:`backward`."""

    tape_x: LstmTape
    tape_z: LstmTape | None
    hcat: np.ndarray | None   # (T, 2*hidden), fusion mode only
    e: np.ndarray | None      # (T, fusion), fusion mode only
    probs: np.ndarray         # (T, K)


def init_fusion_model(
    arch: str,
    input_x: int,
    input_z: int,
    hidden: int,
    events: tuple[str, ...],
    rng: np.random.Generator,
    fusion: int | None = None,
) -> FusionRnnModel:
    """Build a model with uniform [-1/sqrt(fan_in), +...] weights."""
    k = len(events)
    if k < 2:
        raise ValueError("need at least two events")

    def uni(rows: int, cols: int) -> np.ndarray:
        r = 1.0 / np.sqrt(cols)
        return rng.uniform(-r, r, size=(rows, cols))

    if arch == ARCH_FUSION:
        if fusion is not None and fusion < 1:  # checked before any draw: uni() divides by it
            raise ValueError(f"fusion width must be positive, got {fusion}")
        fusion = hidden if fusion is None else fusion
        cells = [init_lstm_params(input_x, hidden, rng), init_lstm_params(input_z, hidden, rng)]
        head = [uni(fusion, 2 * hidden), np.zeros(fusion), uni(k, fusion), np.zeros(k)]
    elif arch == ARCH_CONCAT:
        fusion = 0
        cells = [init_lstm_params(input_x + input_z, hidden, rng)]
        head = [uni(k, hidden), np.zeros(k)]
    else:
        raise ValueError(f"unknown arch {arch!r}")
    parts = [a for p in cells for a in (p.W, p.U, p.V, p.b)] + head
    return FusionRnnModel(
        arch=arch, input_x=input_x, input_z=input_z, hidden=hidden, fusion=fusion,
        events=tuple(events), theta=np.concatenate([a.ravel() for a in parts]),
    )


def forward(m: FusionRnnModel, xs: np.ndarray, zs: np.ndarray) -> tuple[np.ndarray, FusionTape]:
    """Per-step event probabilities (T, K) for paired streams.

    The forward pass is pure: identical arguments give bit-identical output.
    """
    xs = np.asarray(xs, dtype=float)
    zs = np.asarray(zs, dtype=float)
    if xs.ndim != 2 or zs.ndim != 2 or xs.shape[0] != zs.shape[0]:
        raise ValueError(f"stream length mismatch: xs {xs.shape} vs zs {zs.shape}")
    if xs.shape[0] == 0:
        raise ValueError("empty sequences are rejected")
    if xs.shape[1] != m.input_x or zs.shape[1] != m.input_z:
        raise ValueError(
            f"stream dims ({xs.shape[1]}, {zs.shape[1]}) do not match model "
            f"({m.input_x}, {m.input_z})"
        )

    if m.arch == ARCH_CONCAT:
        tape_x = lstm_forward(m.lstm_x, np.concatenate([xs, zs], axis=1))
        probs = softmax_rows(tape_x.h @ m.W_y.T + m.b_y)
        return probs, FusionTape(tape_x=tape_x, tape_z=None, hcat=None, e=None, probs=probs)

    tape_x = lstm_forward(m.lstm_x, xs)
    tape_z = lstm_forward(m.lstm_z, zs)
    hcat = np.concatenate([tape_x.h, tape_z.h], axis=1)
    e = np.tanh(hcat @ m.W_f.T + m.b_f)
    probs = softmax_rows(e @ m.W_y.T + m.b_y)
    return probs, FusionTape(tape_x=tape_x, tape_z=tape_z, hcat=hcat, e=e, probs=probs)


def backward(m: FusionRnnModel, tape: FusionTape, dlogits: np.ndarray) -> np.ndarray:
    """Exact gradient, laid out like ``m.theta``, given per-step gradients
    on the pre-softmax logits."""
    dlogits = np.asarray(dlogits, dtype=float)
    T = tape.probs.shape[0]
    if dlogits.shape != (T, m.k):
        raise ValueError(f"dlogits has shape {dlogits.shape}, expected {(T, m.k)}")
    g = replace(m, theta=np.zeros_like(m.theta))  # views of the gradient vector

    np.sum(dlogits, axis=0, out=g.b_y)
    if m.arch == ARCH_CONCAT:
        np.matmul(dlogits.T, tape.tape_x.h, out=g.W_y)
        lstm_backward(m.lstm_x, tape.tape_x, dlogits @ m.W_y, g.lstm_x)
        return g.theta

    np.matmul(dlogits.T, tape.e, out=g.W_y)
    da_f = (dlogits @ m.W_y) * (1.0 - tape.e * tape.e)
    np.matmul(da_f.T, tape.hcat, out=g.W_f)
    np.sum(da_f, axis=0, out=g.b_f)
    dcat = da_f @ m.W_f
    # The fusion gradient splits at the concatenation boundary.
    lstm_backward(m.lstm_x, tape.tape_x, dcat[:, : m.hidden], g.lstm_x)
    lstm_backward(m.lstm_z, tape.tape_z, dcat[:, m.hidden :], g.lstm_z)
    return g.theta


def param_blocks(m: FusionRnnModel) -> list[tuple[str, np.ndarray]]:
    """Named per-gate parameter views of ``m.theta``, in storage order
    (used by serialization and the gradient checker)."""
    blocks: list[tuple[str, np.ndarray]] = []
    for stream, lp in (("lstm_x", m.lstm_x), ("lstm_z", m.lstm_z)):
        if lp is not None:
            blocks += [(f"{stream}.{name}", arr) for name, arr in gate_blocks(lp)]
    for name in ("W_f", "b_f", "W_y", "b_y"):
        arr = getattr(m, name)
        if arr is not None:
            blocks.append((name, arr))
    return blocks


def param_count(m: FusionRnnModel) -> dict[str, int]:
    """Exact scalar parameter count by block, plus a 'total' entry."""
    counts = {name: int(arr.size) for name, arr in param_blocks(m)}
    counts["total"] = sum(counts.values())
    return counts
