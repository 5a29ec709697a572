"""Peephole LSTM cells run in lockstep, plus BPTT.

Gate layout per step (sigma is the elementwise logistic, * is elementwise):

    i_t = sigma(W_i x_t + U_i h_{t-1} + V_i * c_{t-1} + b_i)
    f_t = sigma(W_f x_t + U_f h_{t-1} + V_f * c_{t-1} + b_f)
    g_t = tanh (W_c x_t + U_c h_{t-1} + b_c)
    c_t = f_t * c_{t-1} + i_t * g_t
    o_t = sigma(W_o x_t + U_o h_{t-1} + V_o * c_t + b_o)
    h_t = o_t * tanh(c_t)

The output gate peeks at the updated cell c_t; the input and forget gates
peek at c_{t-1}.  The peephole weights V_* are diagonal, stored as vectors.
The initial state is (h_0, c_0) = (0, 0).

The four gates of a cell are stored stacked (Appleyard et al. 2016): ``W``
is (4H, input) with row blocks W_i, W_f, W_c, W_o; ``U`` is (4H, H) and
``b`` is (4H,) in the same order; ``V`` is (3H,) holding V_i, V_f, V_o.
Laid end to end, W, U, V and b are exactly the per-gate blocks W_i .. b_o
in that order.

A network runs C cells of one hidden size H side by side.  Their input
widths may differ, so each cell's input projection W u + b is computed
apart, once for a whole sequence, outside the time loop.  The recurrence is
shared: :func:`lstm_step` advances every cell at once from the recurrent
weights stacked as (C, 4H, H), the peepholes as (C, 3, H), the projections
as (C, 4H) and the states as (C, H), with gates laid out (C, 4, H) as
[i, f, g, o].  The forward unroll and the streaming predictor both call
it, and BPTT mirrors it over the same axes.

BPTT takes the stacked U and V from the tape and builds every factor that
depends on the tape alone once per sequence, before its reverse loop.  Its
gradients stay bit-identical to the step by step form because only exact
elementwise operations (multiply, add, subtract) moved, and every product
keeps its reference order, left to right.

Sequences are time-major: (T, input) for one sequence, or (T, B, input)
for a zero-padded batch of B sequences run side by side.  A batch axis
sits in front of the cell axis everywhere, so a step's projections and
states are (B, C, ·), and each sequence of a batch gets the states it
would get alone, to within rounding.  The pass is causal: padding after a
sequence's end never reaches its real steps.  Calls without a batch axis
run exactly the single-sequence arithmetic.  BPTT takes one sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


@dataclass
class LstmParams:
    """All weights of one cell, gate-stacked: W (4H, input), U (4H, H),
    V (3H,) and b (4H,).  There is no V_c: the candidate has no peephole."""

    W: np.ndarray
    U: np.ndarray
    V: np.ndarray
    b: np.ndarray

    @property
    def hidden_size(self) -> int:
        return self.U.shape[1]

    @property
    def input_size(self) -> int:
        return self.W.shape[1]


def lstm_shapes(input_size: int, hidden_size: int) -> list[tuple[int, ...]]:
    """Shapes of W, U, V and b, in storage order."""
    H = hidden_size
    return [(4 * H, input_size), (4 * H, H), (3 * H,), (4 * H,)]


def gate_blocks(p: LstmParams) -> list[tuple[str, np.ndarray]]:
    """The per-gate arrays W_i .. b_o, as views of the stacked fields."""
    H = p.hidden_size
    blocks = []
    for field, gates in (("W", "ifco"), ("U", "ifco"), ("V", "ifo"), ("b", "ifco")):
        stacked = getattr(p, field)
        blocks += [(f"{field}_{g}", stacked[k * H : (k + 1) * H]) for k, g in enumerate(gates)]
    return blocks


def stack_recurrent(cells: list[LstmParams]) -> tuple[np.ndarray, np.ndarray]:
    """The cells' recurrent weights (C, 4H, H) and peepholes (C, 3, H)."""
    return np.stack([p.U for p in cells]), np.stack([p.V.reshape(3, -1) for p in cells])


def input_projections(cells: list[LstmParams], inputs: list[np.ndarray]) -> np.ndarray:
    """W u + b of every cell, stacked on the cell axis: (T, C, 4H) for
    (T, input) sequences, (C, 4H) for (input,) steps, and (..., C, 4H) for
    inputs with any other leading axes."""
    return np.stack([u @ p.W.T + p.b for p, u in zip(cells, inputs)], axis=-2)


@dataclass
class LstmTape:
    """Per-step activations cached by the forward pass for BPTT.

    ``inputs`` holds each cell's (T, input) sequence and ``U``/``V`` the
    stacked recurrent weights the unroll ran with; every other array has
    leading axes (T, C), or (T, B, C) for a batch.  ``gates`` is
    (T, C, 4, H) with [i, f, g, o] on the axis after the cells.
    ``c_prev``/``h_prev`` are the states entering each step (row 0 is the
    zero initial state).
    """

    inputs: list[np.ndarray]
    U: np.ndarray
    V: np.ndarray
    gates: np.ndarray
    c: np.ndarray
    h: np.ndarray
    tanh_c: np.ndarray
    c_prev: np.ndarray
    h_prev: np.ndarray


def init_lstm_params(input_size: int, hidden_size: int, rng: np.random.Generator) -> LstmParams:
    """Uniform [-r, r] weights with r = 1/sqrt(fan_in); zero biases.

    The stacked draws consume the generator exactly as four per-gate draws
    of W, then of U, then three of V would.
    """
    if input_size < 1 or hidden_size < 1:
        raise ValueError("input_size and hidden_size must be positive")
    H = hidden_size
    r_x, r_h = 1.0 / np.sqrt(input_size), 1.0 / np.sqrt(H)
    return LstmParams(
        W=rng.uniform(-r_x, r_x, size=(4 * H, input_size)),
        U=rng.uniform(-r_h, r_h, size=(4 * H, H)),
        V=rng.uniform(-r_h, r_h, size=3 * H),
        b=np.zeros(4 * H),
    )


def lstm_step(
    U: np.ndarray, V: np.ndarray, a: np.ndarray, h: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Advance C cells one step from their input projections ``a`` (C, 4H)
    and states ``h``, ``c`` (C, H), given ``U`` (C, 4H, H) and ``V``
    (C, 3, H).  Returns (gates (C, 4, H), c, tanh(c), h).  Any leading axes
    of ``a``, ``h`` and ``c`` are a batch, and the outputs gain them too."""
    a = (a + (U @ h[..., None])[..., 0]).reshape(c.shape[:-1] + (4, -1))
    gates = np.empty_like(a)
    gates[..., :2, :] = sigmoid(a[..., :2, :] + V[:, :2] * c[..., None, :])
    gates[..., 2, :] = np.tanh(a[..., 2, :])
    c = gates[..., 1, :] * c + gates[..., 0, :] * gates[..., 2, :]
    gates[..., 3, :] = sigmoid(a[..., 3, :] + V[:, 2] * c)
    tanh_c = np.tanh(c)
    return gates, c, tanh_c, gates[..., 3, :] * tanh_c


def lstm_forward(cells: list[LstmParams], inputs: list[np.ndarray]) -> LstmTape:
    """Unroll the cells in lockstep over their (T, input) sequences, or
    (T, B, input) batches, from the zero state."""
    A = input_projections(cells, inputs)
    T, H = A.shape[0], cells[0].hidden_size
    if T == 0:
        raise ValueError("empty sequences are rejected")
    U, V = stack_recurrent(cells)
    state = A.shape[1:-1] + (H,)  # (C, H), or (B, C, H) for a batch
    gates = np.empty((T, *state[:-1], 4, H))
    # Row t of c/h is the state entering step t; row t + 1 the state it makes.
    c = np.zeros((T + 1, *state))
    h = np.zeros((T + 1, *state))
    tanh_c = np.empty((T, *state))
    for t in range(T):
        gates[t], c[t + 1], tanh_c[t], h[t + 1] = lstm_step(U, V, A[t], h[t], c[t])
    return LstmTape(inputs=inputs, U=U, V=V, gates=gates, c=c[1:], h=h[1:], tanh_c=tanh_c,
                    c_prev=c[:-1], h_prev=h[:-1])


def lstm_backward(tape: LstmTape, dh: np.ndarray, grads: list[LstmParams]) -> None:
    """Reverse-mode gradients of sum_t dh_t . h_t, for ``dh`` (T, C, H).

    Writes each cell's parameter gradients into the matching entry of
    ``grads`` (same shapes as the cell; typically views of a flat gradient
    vector).

    Before the reverse loop, once per sequence over (T, C, ·): 1 - o,
    1 - tanh^2 c, and the i/f/g factors stacked (T, C, 3, H) as
    [g, c_prev, i], [i, f, 1 - g^2] and [1 - i, 1 - f, 1].  The loop keeps
    the recurrence only.  The gradients equal, bit for bit, forming
    ``dct * g * i * (1 - i)``, ``dct * c_prev * f * (1 - f)`` and
    ``dct * i * (1 - g^2)`` step by step: only exact operations moved, each
    product keeps its left-to-right order, and the g row's third factor is
    exactly 1.
    """
    if dh.shape != tape.h.shape:
        raise ValueError(f"dh has shape {dh.shape}, expected {tape.h.shape}")
    T, C, H = dh.shape
    gates = tape.gates
    i, f, g, o = (gates[:, :, k] for k in range(4))
    one_minus_o = 1.0 - o
    dtanh = 1.0 - tape.tanh_c * tape.tanh_c
    first = np.stack((g, tape.c_prev, i), axis=2)
    second = np.empty((T, C, 3, H))
    second[:, :, :2] = gates[:, :, :2]
    second[:, :, 2] = 1.0 - g * g
    third = np.ones((T, C, 3, H))
    np.subtract(1.0, gates[:, :, :2], out=third[:, :, :2])
    UT = tape.U.transpose(0, 2, 1)
    V_i, V_f, V_o = tape.V.transpose(1, 0, 2)
    da = np.empty((C, T, 4, H))  # gradients on the pre-activations, cell-major
    dh_next = np.zeros((C, H))   # gradient flowing into h_t from step t+1
    dc_next = np.zeros((C, H))   # gradient flowing into c_t from step t+1
    for t in range(T - 1, -1, -1):
        dht = dh[t] + dh_next
        dat = da[:, t]
        dao = dat[:, 3]
        np.multiply(dht, tape.tanh_c[t], out=dao)
        dao *= o[t]
        dao *= one_minus_o[t]
        # c_t feeds h_t through tanh, the future through dc_next, and the
        # output gate through its peephole.
        dct = dht * o[t] * dtanh[t] + dc_next + V_o * dao
        dai_f_g = dat[:, :3]
        np.multiply(dct[:, None], first[t], out=dai_f_g)
        dai_f_g *= second[t]
        dai_f_g *= third[t]
        dh_next = (UT @ dat.reshape(C, 4 * H, 1))[..., 0]
        dc_next = dct * f[t] + V_i * dat[:, 0] + V_f * dat[:, 1]

    # Each cell's gradients come from contiguous (T, ·) operands: a strided
    # one can round the matmuls differently, and then a cell run in lockstep
    # would not match the same cell run alone bit for bit.
    for k, (u, grad) in enumerate(zip(tape.inputs, grads)):
        dak = da[k].reshape(T, 4 * H)
        np.matmul(dak.T, u, out=grad.W)
        np.matmul(dak.T, np.ascontiguousarray(tape.h_prev[:, k]), out=grad.U)
        (da[k, :, :2] * tape.c_prev[:, k, None]).sum(axis=0, out=grad.V[: 2 * H].reshape(2, H))
        (da[k, :, 3] * tape.c[:, k]).sum(axis=0, out=grad.V[2 * H :])
        dak.sum(axis=0, out=grad.b)
