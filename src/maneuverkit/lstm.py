"""A single LSTM cell with diagonal peephole connections, plus BPTT.

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

The four gates are stored stacked (Appleyard et al. 2016): ``W`` is
(4H, input) with row blocks W_i, W_f, W_c, W_o; ``U`` is (4H, H) and ``b``
is (4H,) in the same order; ``V`` is (3H,) holding V_i, V_f, V_o.  A step
is then one ``W @ x`` and one ``U @ h`` for all gates, and the gate
activations travel as one (4H,) vector [i; f; g; o].  Laid end to end,
W, U, V and b are exactly the per-gate blocks W_i .. b_o in that order.
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


@dataclass
class LstmState:
    """Hidden representation h and memory cell c, both (hidden,)."""

    h: np.ndarray
    c: np.ndarray


@dataclass
class LstmTape:
    """Per-step activations cached by the forward pass for BPTT.

    All arrays have leading dimension T; ``gates`` holds [i; f; g; o] per
    step.  ``c_prev``/``h_prev`` are the states entering each step (row 0
    is the zero initial state).
    """

    xs: np.ndarray
    gates: np.ndarray
    c: np.ndarray
    h: np.ndarray
    tanh_c: np.ndarray
    c_prev: np.ndarray
    h_prev: np.ndarray

    def __len__(self) -> int:
        return self.xs.shape[0]


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


def zero_state(hidden_size: int) -> LstmState:
    return LstmState(h=np.zeros(hidden_size), c=np.zeros(hidden_size))


def lstm_cell(p: LstmParams, a: np.ndarray, c_prev: np.ndarray) -> tuple[np.ndarray, ...]:
    """Activate the stacked pre-activation a = W x + b + U h_prev, (4H,).

    Adds the peepholes and returns (gates [i; f; g; o], c, tanh(c), h).
    """
    H = c_prev.shape[0]
    gates = np.empty_like(a)
    gates[: 2 * H] = sigmoid(a[: 2 * H] + p.V[: 2 * H] * np.tile(c_prev, 2))
    gates[2 * H : 3 * H] = np.tanh(a[2 * H : 3 * H])
    i, f, g = gates[:H], gates[H : 2 * H], gates[2 * H : 3 * H]
    c = f * c_prev + i * g
    gates[3 * H :] = sigmoid(a[3 * H :] + p.V[2 * H :] * c)
    tanh_c = np.tanh(c)
    return gates, c, tanh_c, gates[3 * H :] * tanh_c


def lstm_step(p: LstmParams, x: np.ndarray, prev: LstmState) -> tuple[LstmState, dict]:
    """One cell update; returns the new state and the step's activations."""
    x = np.asarray(x, dtype=float)
    if x.shape != (p.input_size,):
        raise ValueError(f"input has shape {x.shape}, expected {(p.input_size,)}")
    if prev.h.shape != (p.hidden_size,) or prev.c.shape != (p.hidden_size,):
        raise ValueError(
            f"state has shapes h={prev.h.shape} c={prev.c.shape}, expected {(p.hidden_size,)}"
        )
    gates, c, _, h = lstm_cell(p, p.W @ x + p.b + p.U @ prev.h, prev.c)
    H = p.hidden_size
    cache = {"x": x, "i": gates[:H], "f": gates[H : 2 * H], "g": gates[2 * H : 3 * H],
             "o": gates[3 * H :], "c": c, "h": h, "c_prev": prev.c, "h_prev": prev.h}
    return LstmState(h=h, c=c), cache


def lstm_forward(p: LstmParams, xs: np.ndarray) -> LstmTape:
    """Unroll the cell over a (T, input) sequence from the zero state."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[0] == 0:
        raise ValueError(f"expected a nonempty (T, input) sequence, got shape {xs.shape}")
    if xs.shape[1] != p.input_size:
        raise ValueError(f"sequence has input size {xs.shape[1]}, params expect {p.input_size}")
    T, H = xs.shape[0], p.hidden_size

    A = xs @ p.W.T + p.b  # input projections for the whole sequence at once
    gates = np.empty((T, 4 * H))
    # Row t of c/h is the state entering step t; row t + 1 the state it makes.
    c = np.zeros((T + 1, H))
    h = np.zeros((T + 1, H))
    tanh_c = np.empty((T, H))
    for t in range(T):
        gates[t], c[t + 1], tanh_c[t], h[t + 1] = lstm_cell(p, A[t] + p.U @ h[t], c[t])
    return LstmTape(xs=xs, gates=gates, c=c[1:], h=h[1:], tanh_c=tanh_c,
                    c_prev=c[:-1], h_prev=h[:-1])


def lstm_backward(p: LstmParams, tape: LstmTape, dh: np.ndarray, grads: LstmParams) -> np.ndarray:
    """Reverse-mode gradients of sum_t dh_t . h_t.

    Writes the parameter gradients into ``grads`` (same shapes as ``p``;
    typically views of a flat gradient vector) and returns the (T, input)
    per-step input gradients.  ``dh`` is the (T, hidden) upstream gradient
    on each hidden state.
    """
    dh = np.asarray(dh, dtype=float)
    T, H = len(tape), p.hidden_size
    if dh.shape != (T, H):
        raise ValueError(f"dh has shape {dh.shape}, expected {(T, H)}")

    V_i, V_f, V_o = p.V[:H], p.V[H : 2 * H], p.V[2 * H :]
    UT = p.U.T
    da = np.empty((T, 4 * H))  # gradients on the pre-activations [i; f; g; o]
    dh_next = np.zeros(H)   # gradient flowing into h_t from step t+1
    dc_next = np.zeros(H)   # gradient flowing into c_t from step t+1
    for t in range(T - 1, -1, -1):
        dht = dh[t] + dh_next
        gt = tape.gates[t]
        i, f, g, o = gt[:H], gt[H : 2 * H], gt[2 * H : 3 * H], gt[3 * H :]
        tc = tape.tanh_c[t]
        dao = dht * tc * o * (1.0 - o)
        # c_t feeds h_t through tanh, the future through dc_next, and the
        # output gate through its peephole.
        dct = dht * o * (1.0 - tc * tc) + dc_next + V_o * dao
        dat = da[t]
        dat[:H] = dct * g * i * (1.0 - i)
        dat[H : 2 * H] = dct * tape.c_prev[t] * f * (1.0 - f)
        dat[2 * H : 3 * H] = dct * i * (1.0 - g * g)
        dat[3 * H :] = dao
        dh_next = UT @ dat
        dc_next = dct * f + V_i * dat[:H] + V_f * dat[H : 2 * H]

    np.matmul(da.T, tape.xs, out=grads.W)
    np.matmul(da.T, tape.h_prev, out=grads.U)
    np.sum(da[:, : 2 * H] * np.tile(tape.c_prev, 2), axis=0, out=grads.V[: 2 * H])
    np.sum(da[:, 3 * H :] * tape.c, axis=0, out=grads.V[2 * H :])
    np.sum(da, axis=0, out=grads.b)
    return da @ p.W
