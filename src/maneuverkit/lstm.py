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
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

GATE_NAMES = ("i", "f", "c", "o")


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


@dataclass
class LstmParams:
    """All weights of one cell. W_*: (hidden, input); U_*: (hidden, hidden);
    V_* and b_*: (hidden,).  There is no V_c: the candidate has no peephole."""

    W_i: np.ndarray
    W_f: np.ndarray
    W_c: np.ndarray
    W_o: np.ndarray
    U_i: np.ndarray
    U_f: np.ndarray
    U_c: np.ndarray
    U_o: np.ndarray
    V_i: np.ndarray
    V_f: np.ndarray
    V_o: np.ndarray
    b_i: np.ndarray
    b_f: np.ndarray
    b_c: np.ndarray
    b_o: np.ndarray

    @property
    def hidden_size(self) -> int:
        return self.W_i.shape[0]

    @property
    def input_size(self) -> int:
        return self.W_i.shape[1]

    def validate(self) -> None:
        h, d = self.hidden_size, self.input_size
        for name in GATE_NAMES:
            w = getattr(self, f"W_{name}")
            u = getattr(self, f"U_{name}")
            b = getattr(self, f"b_{name}")
            if w.shape != (h, d):
                raise ValueError(f"W_{name} has shape {w.shape}, expected {(h, d)}")
            if u.shape != (h, h):
                raise ValueError(f"U_{name} has shape {u.shape}, expected {(h, h)}")
            if b.shape != (h,):
                raise ValueError(f"b_{name} has shape {b.shape}, expected {(h,)}")
        for name in ("i", "f", "o"):
            v = getattr(self, f"V_{name}")
            if v.shape != (h,):
                raise ValueError(f"V_{name} has shape {v.shape}, expected {(h,)}")

    def copy(self) -> "LstmParams":
        return LstmParams(**{f.name: getattr(self, f.name).copy() for f in fields(self)})


@dataclass
class LstmState:
    """Hidden representation h and memory cell c, both (hidden,)."""

    h: np.ndarray
    c: np.ndarray


@dataclass
class LstmTape:
    """Per-step activations cached by the forward pass for BPTT.

    All arrays have leading dimension T.  ``c_prev``/``h_prev`` are the
    states entering each step (row 0 is the zero initial state).
    """

    xs: np.ndarray
    i: np.ndarray
    f: np.ndarray
    g: np.ndarray
    o: np.ndarray
    c: np.ndarray
    h: np.ndarray
    tanh_c: np.ndarray
    c_prev: np.ndarray
    h_prev: np.ndarray

    def __len__(self) -> int:
        return self.xs.shape[0]


def init_lstm_params(input_size: int, hidden_size: int, rng: np.random.Generator) -> LstmParams:
    """Uniform [-r, r] weights with r = 1/sqrt(fan_in); zero biases."""
    if input_size < 1 or hidden_size < 1:
        raise ValueError("input_size and hidden_size must be positive")

    def uni(rows: int, cols: int, fan_in: int) -> np.ndarray:
        r = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-r, r, size=(rows, cols))

    def univ(n: int, fan_in: int) -> np.ndarray:
        r = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-r, r, size=n)

    return LstmParams(
        W_i=uni(hidden_size, input_size, input_size),
        W_f=uni(hidden_size, input_size, input_size),
        W_c=uni(hidden_size, input_size, input_size),
        W_o=uni(hidden_size, input_size, input_size),
        U_i=uni(hidden_size, hidden_size, hidden_size),
        U_f=uni(hidden_size, hidden_size, hidden_size),
        U_c=uni(hidden_size, hidden_size, hidden_size),
        U_o=uni(hidden_size, hidden_size, hidden_size),
        V_i=univ(hidden_size, hidden_size),
        V_f=univ(hidden_size, hidden_size),
        V_o=univ(hidden_size, hidden_size),
        b_i=np.zeros(hidden_size),
        b_f=np.zeros(hidden_size),
        b_c=np.zeros(hidden_size),
        b_o=np.zeros(hidden_size),
    )


def zero_state(hidden_size: int) -> LstmState:
    return LstmState(h=np.zeros(hidden_size), c=np.zeros(hidden_size))


def lstm_step(p: LstmParams, x: np.ndarray, prev: LstmState) -> tuple[LstmState, dict]:
    """One cell update; returns the new state and the step's activations."""
    x = np.asarray(x, dtype=float)
    if x.shape != (p.input_size,):
        raise ValueError(f"input has shape {x.shape}, expected {(p.input_size,)}")
    if prev.h.shape != (p.hidden_size,) or prev.c.shape != (p.hidden_size,):
        raise ValueError(
            f"state has shapes h={prev.h.shape} c={prev.c.shape}, expected {(p.hidden_size,)}"
        )
    i = sigmoid(p.W_i @ x + p.U_i @ prev.h + p.V_i * prev.c + p.b_i)
    f = sigmoid(p.W_f @ x + p.U_f @ prev.h + p.V_f * prev.c + p.b_f)
    g = np.tanh(p.W_c @ x + p.U_c @ prev.h + p.b_c)
    c = f * prev.c + i * g
    o = sigmoid(p.W_o @ x + p.U_o @ prev.h + p.V_o * c + p.b_o)
    h = o * np.tanh(c)
    cache = {"x": x, "i": i, "f": f, "g": g, "o": o, "c": c, "h": h,
             "c_prev": prev.c, "h_prev": prev.h}
    return LstmState(h=h, c=c), cache


def lstm_forward(p: LstmParams, xs: np.ndarray) -> tuple[list[LstmState], LstmTape]:
    """Unroll the cell over a (T, input) sequence from the zero state."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[0] == 0:
        raise ValueError(f"expected a nonempty (T, input) sequence, got shape {xs.shape}")
    if xs.shape[1] != p.input_size:
        raise ValueError(f"sequence has input size {xs.shape[1]}, params expect {p.input_size}")
    T, H = xs.shape[0], p.hidden_size

    # Input projections for the whole sequence at once.
    pre_i = xs @ p.W_i.T + p.b_i
    pre_f = xs @ p.W_f.T + p.b_f
    pre_g = xs @ p.W_c.T + p.b_c
    pre_o = xs @ p.W_o.T + p.b_o

    I = np.empty((T, H))
    F = np.empty((T, H))
    G = np.empty((T, H))
    O = np.empty((T, H))
    C = np.empty((T, H))
    Hh = np.empty((T, H))
    tanh_c = np.empty((T, H))
    c_prev_arr = np.empty((T, H))
    h_prev_arr = np.empty((T, H))

    h = np.zeros(H)
    c = np.zeros(H)
    for t in range(T):
        c_prev_arr[t] = c
        h_prev_arr[t] = h
        i = sigmoid(pre_i[t] + p.U_i @ h + p.V_i * c)
        f = sigmoid(pre_f[t] + p.U_f @ h + p.V_f * c)
        g = np.tanh(pre_g[t] + p.U_c @ h)
        c = f * c + i * g
        o = sigmoid(pre_o[t] + p.U_o @ h + p.V_o * c)
        tc = np.tanh(c)
        h = o * tc
        I[t], F[t], G[t], O[t], C[t], Hh[t], tanh_c[t] = i, f, g, o, c, h, tc

    tape = LstmTape(xs=xs, i=I, f=F, g=G, o=O, c=C, h=Hh, tanh_c=tanh_c,
                    c_prev=c_prev_arr, h_prev=h_prev_arr)
    states = [LstmState(h=Hh[t], c=C[t]) for t in range(T)]
    return states, tape


def lstm_backward(
    p: LstmParams, tape: LstmTape, dh: np.ndarray
) -> tuple[LstmParams, np.ndarray]:
    """Reverse-mode gradients of sum_t dh_t . h_t.

    Returns (parameter gradients, per-step input gradients).  ``dh`` is the
    (T, hidden) upstream gradient on each hidden state.
    """
    dh = np.asarray(dh, dtype=float)
    T, H = len(tape), p.hidden_size
    if dh.shape != (T, H):
        raise ValueError(f"dh has shape {dh.shape}, expected {(T, H)}")

    da_i = np.empty((T, H))
    da_f = np.empty((T, H))
    da_g = np.empty((T, H))
    da_o = np.empty((T, H))

    dh_next = np.zeros(H)   # gradient flowing into h_t from step t+1
    dc_next = np.zeros(H)   # gradient flowing into c_t from step t+1
    for t in range(T - 1, -1, -1):
        dht = dh[t] + dh_next
        o, i, f, g = tape.o[t], tape.i[t], tape.f[t], tape.g[t]
        tc = tape.tanh_c[t]
        dot = dht * tc
        dao = dot * o * (1.0 - o)
        # c_t feeds h_t through tanh, the future through dc_next, and the
        # output gate through its peephole.
        dct = dht * o * (1.0 - tc * tc) + dc_next + p.V_o * dao
        dit = dct * g
        dft = dct * tape.c_prev[t]
        dgt = dct * i
        dai = dit * i * (1.0 - i)
        daf = dft * f * (1.0 - f)
        dag = dgt * (1.0 - g * g)
        da_i[t], da_f[t], da_g[t], da_o[t] = dai, daf, dag, dao
        dh_next = p.U_i.T @ dai + p.U_f.T @ daf + p.U_c.T @ dag + p.U_o.T @ dao
        dc_next = dct * f + p.V_i * dai + p.V_f * daf

    grads = LstmParams(
        W_i=da_i.T @ tape.xs, W_f=da_f.T @ tape.xs,
        W_c=da_g.T @ tape.xs, W_o=da_o.T @ tape.xs,
        U_i=da_i.T @ tape.h_prev, U_f=da_f.T @ tape.h_prev,
        U_c=da_g.T @ tape.h_prev, U_o=da_o.T @ tape.h_prev,
        V_i=np.sum(da_i * tape.c_prev, axis=0),
        V_f=np.sum(da_f * tape.c_prev, axis=0),
        V_o=np.sum(da_o * tape.c, axis=0),
        b_i=np.sum(da_i, axis=0), b_f=np.sum(da_f, axis=0),
        b_c=np.sum(da_g, axis=0), b_o=np.sum(da_o, axis=0),
    )
    dx = da_i @ p.W_i + da_f @ p.W_f + da_g @ p.W_c + da_o @ p.W_o
    return grads, dx
