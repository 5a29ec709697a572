"""Two-stream sensory-fusion recurrent network for event anticipation.

A network is a list of LSTM cells plus an optional tanh fusion layer.  The
cells' hidden states are concatenated at every step into h_t, and one
readout turns h_t into event probabilities:

    e_t = tanh(W_f h_t + b_f)       (or e_t = h_t without a fusion layer)
    y_t = softmax(W_y e_t + b_y)

Fusion mode has two cells, ``lstm_x`` over the outside stream x and
``lstm_z`` over the inside stream z, and the fusion layer, as wide as one
cell's hidden state.  Concat mode is the single-stream baseline:
``lstm_x`` alone over the per-step concatenation [x_t; z_t], read out with
no fusion layer.  The cells run in lockstep through the kernels of
:mod:`~maneuverkit.lstm`, so their hidden states come as (T, C, H) for a
sequence and (C, H) for a step, and h_t is their reshape.
:func:`cell_inputs` and :func:`readout` serve the forward pass, the
streaming step and the predictor's block trajectory alike, so ``arch`` is
decided here only.  :func:`forward` takes one (T, ·) sequence; blocks of
sequences are stepped cell-major by
:class:`~maneuverkit.anticipation.FusionRnnPredictor`, with no tape.

All parameters live in one contiguous float64 vector ``theta``; every
parameter array is a reshaped view into it.  The order is lstm_x (W, U, V,
b), lstm_z (W, U, V, b), W_f, b_f, W_y, b_y, which is also the order of the
per-gate blocks that :func:`param_blocks` names.  Checkpoints store
``theta`` itself, and gradients are flat vectors with the same layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .events import validate_events
from .lstm import (
    LstmParams,
    LstmTape,
    gate_blocks,
    init_lstm_params,
    lstm_backward,
    lstm_forward,
    lstm_shapes,
)
from .numerics import softmax

ARCH_FUSION = "fusion"
ARCH_CONCAT = "concat"
CELL_NAMES = ("lstm_x", "lstm_z")


@dataclass
class FusionRnnModel:
    """Parameters of the full network, as views of ``theta``.

    ``theta=None`` allocates a zero vector.  ``cells`` holds ``lstm_x`` and
    ``lstm_z`` in fusion mode, whose fusion layer is ``hidden`` wide, and
    ``lstm_x`` alone, over input_x + input_z inputs, in concat mode, where
    ``W_f`` and ``b_f`` are None.  ``layout`` records each array's (slice of
    theta, shape) in storage order, once; :meth:`views` lays any vector of
    that layout out the same way.  The constructor is the one check of a
    network's arch, events, sizes and ``theta``, and raises ValueError.
    """

    arch: str
    input_x: int
    input_z: int
    hidden: int
    events: tuple[str, ...]
    theta: np.ndarray | None = None
    cells: list[LstmParams] = field(init=False, repr=False)
    W_f: np.ndarray | None = field(init=False, repr=False)
    b_f: np.ndarray | None = field(init=False, repr=False)
    W_y: np.ndarray = field(init=False, repr=False)
    b_y: np.ndarray = field(init=False, repr=False)
    layout: list[tuple[slice, tuple[int, ...]]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.arch not in (ARCH_FUSION, ARCH_CONCAT):
            raise ValueError(f"unknown arch {self.arch!r}")
        validate_events(self.events)
        if min(self.input_x, self.input_z, self.hidden) < 1:
            raise ValueError("all model dimensions must be positive")
        H, fused = self.hidden, self.arch == ARCH_FUSION
        sizes = [self.input_x, self.input_z] if fused else [self.input_x + self.input_z]
        shapes = [s for d in sizes for s in lstm_shapes(d, H)]
        if fused:
            shapes += [(H, 2 * H), (H,)]
        shapes += [(self.k, H), (self.k,)]
        self.layout, size = [], 0
        for shape in shapes:
            n = math.prod(shape)
            self.layout.append((slice(size, size + n), shape))
            size += n
        if self.theta is None:
            self.theta = np.zeros(size)
        theta = self.theta
        if theta.shape != (size,) or theta.dtype != np.float64 or not theta.flags.c_contiguous:
            raise ValueError(
                f"field 'theta' does not fit the declared sizes (theta must be a contiguous "
                f"float64 vector of {size} entries, got {theta.dtype} {theta.shape})"
            )
        self.cells, self.W_f, self.b_f, self.W_y, self.b_y = self.views(theta)

    def views(self, vec: np.ndarray) -> tuple:
        """(cells, W_f, b_f, W_y, b_y) as reshaped views of ``vec``, a vector
        laid out like ``theta``; W_f and b_f are None in concat mode."""
        arrays = [vec[block].reshape(shape) for block, shape in self.layout]
        fused = self.arch == ARCH_FUSION
        cells = [LstmParams(*arrays[4 * c : 4 * c + 4]) for c in range(2 if fused else 1)]
        W_f, b_f = arrays[-4:-2] if fused else (None, None)
        return cells, W_f, b_f, arrays[-2], arrays[-1]

    @property
    def k(self) -> int:
        return len(self.events)

    def copy(self) -> "FusionRnnModel":
        return replace(self, theta=self.theta.copy())


@dataclass
class FusionTape:
    """Forward-pass cache of one sequence, consumed by :func:`backward`."""

    lstm: LstmTape         # every cell, in lockstep
    hcat: np.ndarray       # (T, cells * hidden)
    e: np.ndarray          # (T, hidden); hcat itself without a fusion layer
    probs: np.ndarray      # (T, K)


def init_fusion_model(
    arch: str,
    input_x: int,
    input_z: int,
    hidden: int,
    events: tuple[str, ...],
    rng: np.random.Generator,
) -> FusionRnnModel:
    """Build a model with uniform [-1/sqrt(fan_in), +...] weights and zero
    biases, drawn cell by cell, then W_f, then W_y."""
    if len(events) < 2:
        raise ValueError("need at least two events")
    # Every size is checked here, before any draw.
    m = FusionRnnModel(arch=arch, input_x=input_x, input_z=input_z, hidden=hidden,
                       events=tuple(events))
    for cell in m.cells:
        drawn = init_lstm_params(cell.input_size, hidden, rng)
        cell.W[...], cell.U[...], cell.V[...] = drawn.W, drawn.U, drawn.V
    for W in (m.W_f, m.W_y):
        if W is not None:
            r = 1.0 / np.sqrt(W.shape[1])
            W[...] = rng.uniform(-r, r, size=W.shape)
    return m


def cell_inputs(m: FusionRnnModel, x: np.ndarray, z: np.ndarray) -> list[np.ndarray]:
    """What each cell of ``m`` reads: x and z apart, or [x; z] joined along
    the last axis, for streams with any leading axes."""
    if m.arch == ARCH_CONCAT:
        return [np.concatenate([x, z], axis=-1)]
    return [x, z]


def readout(m: FusionRnnModel, h: np.ndarray) -> tuple[np.ndarray, ...]:
    """(hcat, e, probs) from the cells' hidden states ``h`` (..., C, H):
    (T, C, H) for a sequence or (C, H) for a step, with any leading axes."""
    hcat = h.reshape(*h.shape[:-2], -1)
    e = hcat if m.W_f is None else np.tanh(hcat @ m.W_f.T + m.b_f)
    return hcat, e, softmax(e @ m.W_y.T + m.b_y)


def forward(m: FusionRnnModel, xs: np.ndarray, zs: np.ndarray) -> tuple[np.ndarray, FusionTape]:
    """Per-step event probabilities (T, K) for one sequence of paired
    (T, ·) streams, and its tape.

    The forward pass is pure: identical arguments give bit-identical output.
    """
    xs = np.asarray(xs, dtype=float)
    zs = np.asarray(zs, dtype=float)
    if xs.ndim != 2 or zs.ndim != 2:
        raise ValueError(f"forward takes one (T, ·) sequence, got xs {xs.shape} and zs {zs.shape}")
    if xs.shape[0] != zs.shape[0]:
        raise ValueError(f"stream length mismatch: xs {xs.shape} vs zs {zs.shape}")
    if xs.shape[0] == 0:
        raise ValueError("empty sequences are rejected")
    if xs.shape[1] != m.input_x or zs.shape[1] != m.input_z:
        raise ValueError(
            f"stream dims ({xs.shape[1]}, {zs.shape[1]}) do not match model "
            f"({m.input_x}, {m.input_z})"
        )
    lstm = lstm_forward(m.cells, cell_inputs(m, xs, zs))
    hcat, e, probs = readout(m, lstm.h)
    return probs, FusionTape(lstm=lstm, hcat=hcat, e=e, probs=probs)


def backward(m: FusionRnnModel, tape: FusionTape, dlogits: np.ndarray) -> np.ndarray:
    """Exact gradient, laid out like ``m.theta``, given per-step gradients
    on the pre-softmax logits of one sequence's tape."""
    dlogits = np.asarray(dlogits, dtype=float)
    T = tape.probs.shape[0]
    if dlogits.shape != (T, m.k):
        raise ValueError(f"dlogits has shape {dlogits.shape}, expected {(T, m.k)}")
    grad = np.zeros_like(m.theta)
    cells, W_f, b_f, W_y, b_y = m.views(grad)

    np.sum(dlogits, axis=0, out=b_y)
    np.matmul(dlogits.T, tape.e, out=W_y)
    dcat = dlogits @ m.W_y
    if m.W_f is not None:
        da_f = dcat * (1.0 - tape.e * tape.e)
        np.matmul(da_f.T, tape.hcat, out=W_f)
        np.sum(da_f, axis=0, out=b_f)
        dcat = da_f @ m.W_f
    lstm_backward(tape.lstm, dcat.reshape(tape.lstm.h.shape), cells)
    return grad


def param_blocks(m: FusionRnnModel) -> list[tuple[str, np.ndarray]]:
    """Named per-gate parameter views of ``m.theta``, in storage order
    (used by the gradient checker and :func:`param_count`)."""
    blocks = [(f"{stream}.{name}", arr)
              for stream, cell in zip(CELL_NAMES, m.cells) for name, arr in gate_blocks(cell)]
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
