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
apart, outside the recurrence, and stacked on a leading cell axis.
:func:`lstm_step` advances every cell at once from the recurrent weights
stacked as (C, 4H, H) and the peepholes as (C, 3, H).  Its states are
cell-major, (C, H) for one sequence or (C, B, H) for B sequences stepped
together, so its recurrent product is one (B, H) @ (H, 4H) product per
cell, with B = 1 for one sequence.  :func:`lstm_forward` and the streaming
predictor step one sequence, the predictor's block trajectory B at once;
BPTT mirrors the step over the same axes.

BPTT takes the stacked U and V from the tape and groups every factor that
depends on the tape and V alone once per sequence, before its reverse loop,
so each reverse step makes six elementwise operations and one matmul.  Its
gradients are exact to that grouped per-step form and within 1e-12 of the
step by step and per-gate forms, which associate the same products
differently.  The factors are elementwise over the cell axis, so cells run
in lockstep still equal each cell run alone, bit for bit.  The unroll and
BPTT take one time-major (T, input) sequence per cell.
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
    """W u + b of every cell, stacked on a leading cell axis: (C, T, 4H)
    for (T, input) sequences, (C, 4H) for (input,) steps, and (C, ..., 4H)
    for inputs with any leading axes.

    The result is allocated once and each cell's product is written into
    its slice in place, then its bias added there, so no per-cell temporary
    is made; the arithmetic is that of ``u @ W.T + b``, bit for bit."""
    a = np.empty((len(cells),) + inputs[0].shape[:-1] + (cells[0].b.shape[0],))
    for p, u, ak in zip(cells, inputs, a):
        np.matmul(u, p.W.T, out=ak)
        ak += p.b
    return a


@dataclass
class LstmTape:
    """Per-step activations cached by the forward pass for BPTT.

    ``inputs`` holds each cell's (T, input) sequence and ``U``/``V`` the
    stacked recurrent weights the unroll ran with; every other array has
    leading axes (T, C).  ``gates`` is (T, C, 4, H) with [i, f, g, o] on
    the axis after the cells.
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
    (C, 3, H).  Returns (gates (C, 4, H), c, tanh(c), h).  B sequences step
    together as ``a`` (C, B, 4H) and states (C, B, H), and the outputs gain
    the B axis after the cells too."""
    C, H = c.shape[0], c.shape[-1]
    a = a + (h.reshape(C, -1, H) @ U.transpose(0, 2, 1)).reshape(a.shape)
    a = a.reshape(a.shape[:-1] + (4, H))
    if c.ndim == 3:  # the peepholes broadcast over the B axis
        V = V[:, None]
    gates = np.empty_like(a)
    gates[..., :2, :] = sigmoid(a[..., :2, :] + V[..., :2, :] * c[..., None, :])
    gates[..., 2, :] = np.tanh(a[..., 2, :])
    c = gates[..., 1, :] * c + gates[..., 0, :] * gates[..., 2, :]
    gates[..., 3, :] = sigmoid(a[..., 3, :] + V[..., 2, :] * c)
    tanh_c = np.tanh(c)
    return gates, c, tanh_c, gates[..., 3, :] * tanh_c


def lstm_forward(cells: list[LstmParams], inputs: list[np.ndarray]) -> LstmTape:
    """Unroll the cells in lockstep over their (T, input) sequences from
    the zero state."""
    A = input_projections(cells, inputs)  # (C, T, 4H)
    C, T, H = A.shape[0], A.shape[1], cells[0].hidden_size
    if T == 0:
        raise ValueError("empty sequences are rejected")
    U, V = stack_recurrent(cells)
    gates = np.empty((T, C, 4, H))
    # Row t of c/h is the state entering step t; row t + 1 the state it makes.
    c = np.zeros((T + 1, C, H))
    h = np.zeros((T + 1, C, H))
    tanh_c = np.empty((T, C, H))
    for t in range(T):
        gates[t], c[t + 1], tanh_c[t], h[t + 1] = lstm_step(U, V, A[:, t], h[t], c[t])
    return LstmTape(inputs=inputs, U=U, V=V, gates=gates, c=c[1:], h=h[1:], tanh_c=tanh_c,
                    c_prev=c[:-1], h_prev=h[:-1])


def lstm_backward(tape: LstmTape, dh: np.ndarray, grads: list[LstmParams]) -> None:
    """Reverse-mode gradients of sum_t dh_t . h_t, for ``dh`` (T, C, H).

    Writes each cell's parameter gradients into the matching entry of
    ``grads`` (same shapes as the cell; typically views of a flat gradient
    vector).

    Before the reverse loop, every factor fixed by the tape and V alone is
    grouped once per sequence over (T, C, ·):

        k_o   = tanh c * o * (1 - o)
        k_c   = o * (1 - tanh^2 c) + V_o * k_o
        k_ifg = [g * i * (1 - i), c_prev * f * (1 - f), i * (1 - g^2)]
        k_cc  = f + V_i * k_ifg[i] + V_f * k_ifg[f]

    so each reverse step keeps the recurrence only: six elementwise
    operations and the one recurrent matmul.  The gradients are exact to
    this grouped form and within 1e-12 of the step by step form, which
    multiplies the same factors in a different association.  Every factor
    is elementwise over the cell axis, so cells run in lockstep still equal
    each cell run alone, bit for bit.
    """
    if dh.shape != tape.h.shape:
        raise ValueError(f"dh has shape {dh.shape}, expected {tape.h.shape}")
    T, C, H = dh.shape
    i, f, g, o = (tape.gates[:, :, k] for k in range(4))
    V_i, V_f, V_o = tape.V.transpose(1, 0, 2)
    k_o = tape.tanh_c * o * (1.0 - o)
    k_c = o * (1.0 - tape.tanh_c * tape.tanh_c) + V_o * k_o
    k_ifg = np.empty((T, C, 3, H))
    k_ifg[:, :, 0] = g * i * (1.0 - i)
    k_ifg[:, :, 1] = tape.c_prev * f * (1.0 - f)
    k_ifg[:, :, 2] = i * (1.0 - g * g)
    k_cc = f + V_i * k_ifg[:, :, 0] + V_f * k_ifg[:, :, 1]
    UT = tape.U.transpose(0, 2, 1)
    da = np.empty((C, T, 4, H))  # gradients on the pre-activations, cell-major
    dh_next = np.zeros((C, H))   # gradient flowing into h_t from step t+1
    dc_next = np.zeros((C, H))   # gradient flowing into c_t from step t+1
    for t in range(T - 1, -1, -1):
        dht = dh[t] + dh_next
        dat = da[:, t]
        np.multiply(dht, k_o[t], out=dat[:, 3])
        # c_t feeds h_t through tanh, the future through dc_next, and the
        # output gate through its peephole (folded into k_c).
        dct = dht * k_c[t]
        dct += dc_next
        np.multiply(dct[:, None], k_ifg[t], out=dat[:, :3])
        dh_next = (UT @ dat.reshape(C, 4 * H, 1))[..., 0]
        dc_next = dct * k_cc[t]

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
