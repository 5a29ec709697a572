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
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .lstm import (
    LstmParams,
    LstmTape,
    init_lstm_params,
    lstm_backward,
    lstm_forward,
)
from .numerics import softmax_rows

ARCH_FUSION = "fusion"
ARCH_CONCAT = "concat"


@dataclass
class FusionRnnModel:
    """Parameters of the full network.

    In concat mode ``lstm_z``, ``W_f`` and ``b_f`` are None and ``lstm_x``
    consumes the concatenated input of size input_x + input_z.
    """

    arch: str
    input_x: int
    input_z: int
    hidden: int
    fusion: int
    events: tuple[str, ...]
    lstm_x: LstmParams
    lstm_z: LstmParams | None
    W_f: np.ndarray | None
    b_f: np.ndarray | None
    W_y: np.ndarray
    b_y: np.ndarray

    @property
    def k(self) -> int:
        return len(self.events)

    def validate(self) -> None:
        if self.arch not in (ARCH_FUSION, ARCH_CONCAT):
            raise ValueError(f"unknown arch {self.arch!r}")
        if min(self.input_x, self.input_z, self.hidden, self.k) < 1:
            raise ValueError("all model dimensions must be positive")
        self.lstm_x.validate()
        if self.arch == ARCH_FUSION:
            if self.lstm_z is None or self.W_f is None or self.b_f is None:
                raise ValueError("fusion mode requires lstm_z and the fusion layer")
            self.lstm_z.validate()
            if self.fusion < 1:
                raise ValueError("fusion width must be positive")
            if self.W_f.shape != (self.fusion, 2 * self.hidden):
                raise ValueError(f"W_f has shape {self.W_f.shape}, expected {(self.fusion, 2 * self.hidden)}")
            if self.W_y.shape != (self.k, self.fusion):
                raise ValueError(f"W_y has shape {self.W_y.shape}, expected {(self.k, self.fusion)}")
        else:
            if self.lstm_z is not None or self.W_f is not None or self.b_f is not None:
                raise ValueError("concat mode must not carry a second stream or fusion layer")
            if self.lstm_x.input_size != self.input_x + self.input_z:
                raise ValueError("concat LSTM input size must be input_x + input_z")
            if self.W_y.shape != (self.k, self.hidden):
                raise ValueError(f"W_y has shape {self.W_y.shape}, expected {(self.k, self.hidden)}")
        if self.b_y.shape != (self.k,):
            raise ValueError(f"b_y has shape {self.b_y.shape}, expected {(self.k,)}")

    def copy(self) -> "FusionRnnModel":
        def cp(v):
            if isinstance(v, np.ndarray):
                return v.copy()
            if isinstance(v, LstmParams):
                return v.copy()
            return v

        return FusionRnnModel(**{f.name: cp(getattr(self, f.name)) for f in fields(self)})


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
        fusion = hidden if fusion is None else fusion
        model = FusionRnnModel(
            arch=arch, input_x=input_x, input_z=input_z, hidden=hidden,
            fusion=fusion, events=tuple(events),
            lstm_x=init_lstm_params(input_x, hidden, rng),
            lstm_z=init_lstm_params(input_z, hidden, rng),
            W_f=uni(fusion, 2 * hidden), b_f=np.zeros(fusion),
            W_y=uni(k, fusion), b_y=np.zeros(k),
        )
    elif arch == ARCH_CONCAT:
        model = FusionRnnModel(
            arch=arch, input_x=input_x, input_z=input_z, hidden=hidden,
            fusion=0, events=tuple(events),
            lstm_x=init_lstm_params(input_x + input_z, hidden, rng),
            lstm_z=None, W_f=None, b_f=None,
            W_y=uni(k, hidden), b_y=np.zeros(k),
        )
    else:
        raise ValueError(f"unknown arch {arch!r}")
    model.validate()
    return model


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
        cat = np.concatenate([xs, zs], axis=1)
        _, tape_x = lstm_forward(m.lstm_x, cat)
        logits = tape_x.h @ m.W_y.T + m.b_y
        probs = softmax_rows(logits)
        return probs, FusionTape(tape_x=tape_x, tape_z=None, hcat=None, e=None, probs=probs)

    _, tape_x = lstm_forward(m.lstm_x, xs)
    _, tape_z = lstm_forward(m.lstm_z, zs)
    hcat = np.concatenate([tape_x.h, tape_z.h], axis=1)
    e = np.tanh(hcat @ m.W_f.T + m.b_f)
    logits = e @ m.W_y.T + m.b_y
    probs = softmax_rows(logits)
    return probs, FusionTape(tape_x=tape_x, tape_z=tape_z, hcat=hcat, e=e, probs=probs)


@dataclass
class FusionGrads:
    """Gradients mirroring FusionRnnModel's parameter blocks."""

    lstm_x: LstmParams
    lstm_z: LstmParams | None
    W_f: np.ndarray | None
    b_f: np.ndarray | None
    W_y: np.ndarray
    b_y: np.ndarray


def backward(m: FusionRnnModel, tape: FusionTape, dlogits: np.ndarray) -> FusionGrads:
    """Exact gradients given per-step gradients on the pre-softmax logits."""
    dlogits = np.asarray(dlogits, dtype=float)
    T = tape.probs.shape[0]
    if dlogits.shape != (T, m.k):
        raise ValueError(f"dlogits has shape {dlogits.shape}, expected {(T, m.k)}")

    if m.arch == ARCH_CONCAT:
        dW_y = dlogits.T @ tape.tape_x.h
        db_y = dlogits.sum(axis=0)
        dh = dlogits @ m.W_y
        gx, _ = lstm_backward(m.lstm_x, tape.tape_x, dh)
        return FusionGrads(lstm_x=gx, lstm_z=None, W_f=None, b_f=None, W_y=dW_y, b_y=db_y)

    dW_y = dlogits.T @ tape.e
    db_y = dlogits.sum(axis=0)
    de = dlogits @ m.W_y
    da_f = de * (1.0 - tape.e * tape.e)
    dW_f = da_f.T @ tape.hcat
    db_f = da_f.sum(axis=0)
    dcat = da_f @ m.W_f
    # The fusion gradient splits at the concatenation boundary.
    dhx = dcat[:, : m.hidden]
    dhz = dcat[:, m.hidden :]
    gx, _ = lstm_backward(m.lstm_x, tape.tape_x, dhx)
    gz, _ = lstm_backward(m.lstm_z, tape.tape_z, dhz)
    return FusionGrads(lstm_x=gx, lstm_z=gz, W_f=dW_f, b_f=db_f, W_y=dW_y, b_y=db_y)


def param_blocks(m: FusionRnnModel | FusionGrads) -> list[tuple[str, np.ndarray]]:
    """Named parameter arrays in a fixed order (used by the optimizer,
    serialization, and the gradient checker)."""
    blocks: list[tuple[str, np.ndarray]] = []
    for stream, lp in (("lstm_x", m.lstm_x), ("lstm_z", m.lstm_z)):
        if lp is None:
            continue
        for f in fields(LstmParams):
            blocks.append((f"{stream}.{f.name}", getattr(lp, f.name)))
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


def flatten_params(m: FusionRnnModel | FusionGrads) -> np.ndarray:
    return np.concatenate([arr.ravel() for _, arr in param_blocks(m)])


def set_flat_params(m: FusionRnnModel, flat: np.ndarray) -> None:
    """Write a flat vector back into the model's arrays, in block order."""
    offset = 0
    for _, arr in param_blocks(m):
        n = arr.size
        arr.flat[:] = flat[offset : offset + n]
        offset += n
    if offset != flat.size:
        raise ValueError(f"flat vector has {flat.size} entries, model holds {offset}")

