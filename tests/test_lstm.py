import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maneuverkit.anticipation import FusionRnnPredictor
from maneuverkit.events import EVENTS
from maneuverkit.fusion_rnn import cell_inputs, init_fusion_model, readout
from maneuverkit.lstm import (
    LstmParams,
    gate_blocks,
    init_lstm_params,
    input_projections,
    lstm_backward,
    lstm_forward,
    lstm_step,
    sigmoid,
    stack_recurrent,
)
from maneuverkit.numerics import finite_diff_grad, make_rng


def zero_params(input_size: int, hidden: int) -> LstmParams:
    rng = make_rng(0)
    p = init_lstm_params(input_size, hidden, rng)
    for name in vars(p):
        getattr(p, name)[...] = 0.0
    return p


def cell_step(p: LstmParams, x, h, c):
    """One step of a lone cell through the lockstep kernel (C = 1); returns
    (gates (4, H) as [i, f, g, o], h, c)."""
    gates, c, _, h = lstm_step(*stack_recurrent([p]), input_projections([p], [x]), h[None], c[None])
    return gates[0], h[0], c[0]


def unroll(p: LstmParams, xs: np.ndarray):
    """The lockstep unroll of a lone cell; tape arrays have a cell axis of 1."""
    return lstm_forward([p], [xs])


def reference_step(p: LstmParams, x, h_prev, c_prev):
    """Straight-line transcription of the cell equations, written without
    reuse of the library's step code: every gate spelled out with loops.
    Gate k of i, f, c, o sits at rows k, H + k, 2H + k, 3H + k of the
    stacked W, U and b; V holds V_i, V_f, V_o at k, H + k, 2H + k."""
    H = p.hidden_size
    i = np.empty(H)
    f = np.empty(H)
    g = np.empty(H)
    o = np.empty(H)
    c = np.empty(H)
    h = np.empty(H)
    for k in range(H):
        ai = p.b[k] + p.V[k] * c_prev[k]
        af = p.b[H + k] + p.V[H + k] * c_prev[k]
        ag = p.b[2 * H + k]
        for d in range(p.input_size):
            ai += p.W[k, d] * x[d]
            af += p.W[H + k, d] * x[d]
            ag += p.W[2 * H + k, d] * x[d]
        for d in range(H):
            ai += p.U[k, d] * h_prev[d]
            af += p.U[H + k, d] * h_prev[d]
            ag += p.U[2 * H + k, d] * h_prev[d]
        i[k] = 1.0 / (1.0 + np.exp(-ai))
        f[k] = 1.0 / (1.0 + np.exp(-af))
        g[k] = np.tanh(ag)
        c[k] = f[k] * c_prev[k] + i[k] * g[k]
    for k in range(H):
        ao = p.b[3 * H + k] + p.V[2 * H + k] * c[k]
        for d in range(p.input_size):
            ao += p.W[3 * H + k, d] * x[d]
        for d in range(H):
            ao += p.U[3 * H + k, d] * h_prev[d]
        o[k] = 1.0 / (1.0 + np.exp(-ao))
        h[k] = o[k] * np.tanh(c[k])
    return h, c


def reference_forward(p: LstmParams, xs: np.ndarray) -> dict:
    """The per-gate unroll: four input projections and four recurrent
    matvecs per step, one array per gate."""
    G = dict(gate_blocks(p))
    T, H = xs.shape[0], p.hidden_size
    pre_i = xs @ G["W_i"].T + G["b_i"]
    pre_f = xs @ G["W_f"].T + G["b_f"]
    pre_g = xs @ G["W_c"].T + G["b_c"]
    pre_o = xs @ G["W_o"].T + G["b_o"]
    tape = {key: np.empty((T, H)) for key in ("i", "f", "g", "o", "c", "h", "tanh_c", "c_prev", "h_prev")}
    h = np.zeros(H)
    c = np.zeros(H)
    for t in range(T):
        tape["c_prev"][t] = c
        tape["h_prev"][t] = h
        i = sigmoid(pre_i[t] + G["U_i"] @ h + G["V_i"] * c)
        f = sigmoid(pre_f[t] + G["U_f"] @ h + G["V_f"] * c)
        g = np.tanh(pre_g[t] + G["U_c"] @ h)
        c = f * c + i * g
        o = sigmoid(pre_o[t] + G["U_o"] @ h + G["V_o"] * c)
        tc = np.tanh(c)
        h = o * tc
        for key, value in (("i", i), ("f", f), ("g", g), ("o", o), ("c", c), ("h", h), ("tanh_c", tc)):
            tape[key][t] = value
    tape["xs"] = xs
    return tape


def reference_backward(p: LstmParams, tape: dict, dh: np.ndarray) -> dict:
    """Per-gate BPTT of sum_t dh_t . h_t: returns {W_i: ..., b_o: ...}."""
    G = dict(gate_blocks(p))
    T, H = dh.shape
    da = {gate: np.empty((T, H)) for gate in "ifco"}
    dh_next = np.zeros(H)
    dc_next = np.zeros(H)
    for t in range(T - 1, -1, -1):
        dht = dh[t] + dh_next
        o, i, f, g = tape["o"][t], tape["i"][t], tape["f"][t], tape["g"][t]
        tc = tape["tanh_c"][t]
        dao = dht * tc * o * (1.0 - o)
        dct = dht * o * (1.0 - tc * tc) + dc_next + G["V_o"] * dao
        dai = dct * g * i * (1.0 - i)
        daf = dct * tape["c_prev"][t] * f * (1.0 - f)
        dag = dct * i * (1.0 - g * g)
        da["i"][t], da["f"][t], da["c"][t], da["o"][t] = dai, daf, dag, dao
        dh_next = G["U_i"].T @ dai + G["U_f"].T @ daf + G["U_c"].T @ dag + G["U_o"].T @ dao
        dc_next = dct * f + G["V_i"] * dai + G["V_f"] * daf
    grads = {}
    for gate in "ifco":
        grads[f"W_{gate}"] = da[gate].T @ tape["xs"]
        grads[f"U_{gate}"] = da[gate].T @ tape["h_prev"]
        grads[f"b_{gate}"] = np.sum(da[gate], axis=0)
    grads["V_i"] = np.sum(da["i"] * tape["c_prev"], axis=0)
    grads["V_f"] = np.sum(da["f"] * tape["c_prev"], axis=0)
    grads["V_o"] = np.sum(da["o"] * tape["c"], axis=0)
    return grads


def lockstep_backward_reference(cells: list[LstmParams], tape, dh: np.ndarray, grads: list[LstmParams]) -> None:
    """The lockstep BPTT with the grouped factors k_o, k_c, k_ifg and k_cc
    formed inside the reverse loop, step by step, and the recurrent weights
    stacked from the cells: the reference that ``lstm_backward``, which
    forms them once per sequence, must match bit for bit."""
    T, C, H = dh.shape
    U, V = stack_recurrent(cells)
    UT = U.transpose(0, 2, 1)
    da = np.empty((C, T, 4, H))  # gradients on the pre-activations, cell-major
    dh_next = np.zeros((C, H))   # gradient flowing into h_t from step t+1
    dc_next = np.zeros((C, H))   # gradient flowing into c_t from step t+1
    for t in range(T - 1, -1, -1):
        i, f, g, o = tape.gates[t].transpose(1, 0, 2)
        tc = tape.tanh_c[t]
        k_o = tc * o * (1.0 - o)
        k_c = o * (1.0 - tc * tc) + V[:, 2] * k_o
        k_i = g * i * (1.0 - i)
        k_f = tape.c_prev[t] * f * (1.0 - f)
        k_g = i * (1.0 - g * g)
        k_cc = f + V[:, 0] * k_i + V[:, 1] * k_f
        dht = dh[t] + dh_next
        dct = dht * k_c + dc_next
        dat = da[:, t]
        dat[:, 0] = dct * k_i
        dat[:, 1] = dct * k_f
        dat[:, 2] = dct * k_g
        dat[:, 3] = dht * k_o
        dh_next = (UT @ dat.reshape(C, 4 * H, 1))[..., 0]
        dc_next = dct * k_cc

    for k, (u, grad) in enumerate(zip(tape.inputs, grads)):
        dak = da[k].reshape(T, 4 * H)
        np.matmul(dak.T, u, out=grad.W)
        np.matmul(dak.T, np.ascontiguousarray(tape.h_prev[:, k]), out=grad.U)
        np.sum(da[k, :, :2] * tape.c_prev[:, k, None], axis=0, out=grad.V[: 2 * H].reshape(2, H))
        np.sum(da[k, :, 3] * tape.c[:, k], axis=0, out=grad.V[2 * H :])
        np.sum(dak, axis=0, out=grad.b)


def parent_backward_reference(cells: list[LstmParams], tape, dh: np.ndarray, grads: list[LstmParams]) -> None:
    """The lockstep BPTT with every gate product formed inside the reverse
    loop in the step by step association, and the recurrent weights stacked
    from the cells: the earlier kernel's form, which ``lstm_backward`` must
    match within 1e-12."""
    T, C, H = dh.shape
    U, V = stack_recurrent(cells)
    UT = U.transpose(0, 2, 1)
    da = np.empty((C, T, 4, H))  # gradients on the pre-activations, cell-major
    dh_next = np.zeros((C, H))   # gradient flowing into h_t from step t+1
    dc_next = np.zeros((C, H))   # gradient flowing into c_t from step t+1
    for t in range(T - 1, -1, -1):
        dht = dh[t] + dh_next
        i, f, g, o = tape.gates[t].transpose(1, 0, 2)
        tc = tape.tanh_c[t]
        dao = dht * tc * o * (1.0 - o)
        # c_t feeds h_t through tanh, the future through dc_next, and the
        # output gate through its peephole.
        dct = dht * o * (1.0 - tc * tc) + dc_next + V[:, 2] * dao
        dat = da[:, t]
        dat[:, 0] = dct * g * i * (1.0 - i)
        dat[:, 1] = dct * tape.c_prev[t] * f * (1.0 - f)
        dat[:, 2] = dct * i * (1.0 - g * g)
        dat[:, 3] = dao
        dh_next = (UT @ dat.reshape(C, 4 * H, 1))[..., 0]
        dc_next = dct * f + V[:, 0] * dat[:, 0] + V[:, 1] * dat[:, 1]

    for k, (u, grad) in enumerate(zip(tape.inputs, grads)):
        dak = da[k].reshape(T, 4 * H)
        np.matmul(dak.T, u, out=grad.W)
        np.matmul(dak.T, np.ascontiguousarray(tape.h_prev[:, k]), out=grad.U)
        np.sum(da[k, :, :2] * tape.c_prev[:, k, None], axis=0, out=grad.V[: 2 * H].reshape(2, H))
        np.sum(da[k, :, 3] * tape.c[:, k], axis=0, out=grad.V[2 * H :])
        np.sum(dak, axis=0, out=grad.b)


def matvec_step(U, V, a, h, c):
    """The lockstep step as one matrix-vector product per cell: the
    kernel's earlier form, which the cell-major step must match bit for bit
    on one sequence's (C, ·) projections and states."""
    a = (a + (U @ h[..., None])[..., 0]).reshape(c.shape[:-1] + (4, -1))
    gates = np.empty_like(a)
    gates[..., :2, :] = sigmoid(a[..., :2, :] + V[:, :2] * c[..., None, :])
    gates[..., 2, :] = np.tanh(a[..., 2, :])
    c = gates[..., 1, :] * c + gates[..., 0, :] * gates[..., 2, :]
    gates[..., 3, :] = sigmoid(a[..., 3, :] + V[:, 2] * c)
    tanh_c = np.tanh(c)
    return gates, c, tanh_c, gates[..., 3, :] * tanh_c


def matvec_forward(cells: list[LstmParams], inputs: list[np.ndarray]) -> dict:
    """The lockstep unroll through :func:`matvec_step`, with the projections
    stacked time-major (T, C, 4H): the tape the training pass must equal."""
    A = np.stack([u @ p.W.T + p.b for p, u in zip(cells, inputs)], axis=-2)
    T, C, H = A.shape[0], A.shape[1], cells[0].hidden_size
    U, V = stack_recurrent(cells)
    tape = {"gates": np.empty((T, C, 4, H)), "c": np.zeros((T + 1, C, H)),
            "h": np.zeros((T + 1, C, H)), "tanh_c": np.empty((T, C, H))}
    for t in range(T):
        tape["gates"][t], tape["c"][t + 1], tape["tanh_c"][t], tape["h"][t + 1] = matvec_step(
            U, V, A[t], tape["h"][t], tape["c"][t])
    tape["c"], tape["h"] = tape["c"][1:], tape["h"][1:]
    return tape


def run_backward(p: LstmParams, tape, dh) -> LstmParams:
    """The lockstep BPTT of a lone cell, for dh (T, H)."""
    grads = LstmParams(*(np.zeros_like(a) for a in (p.W, p.U, p.V, p.b)))
    lstm_backward(tape, dh[:, None], [grads])
    return grads


class TestStep:
    def test_zero_params_zero_state(self):
        p = zero_params(3, 4)
        gates, h, c = cell_step(p, np.array([0.7, -1.2, 0.4]), np.zeros(4), np.zeros(4))
        i, f, _, o = gates
        np.testing.assert_allclose(i, 0.5)
        np.testing.assert_allclose(f, 0.5)
        np.testing.assert_allclose(o, 0.5)
        np.testing.assert_array_equal(c, np.zeros(4))
        np.testing.assert_array_equal(h, np.zeros(4))

    def test_zero_params_nonzero_cell(self):
        p = zero_params(3, 4)
        c0 = np.array([1.0, -0.5, 2.0, 0.0])
        _, h, c = cell_step(p, np.zeros(3), np.array([0.3, 0.1, -0.2, 0.9]), c0)
        np.testing.assert_allclose(c, 0.5 * c0, atol=1e-15)
        np.testing.assert_allclose(h, 0.5 * np.tanh(0.5 * c0), atol=1e-15)

    def test_matches_straight_line_transcription(self):
        rng = make_rng(7)
        p = init_lstm_params(3, 4, rng)
        h0, c0 = rng.standard_normal(4) * 0.5, rng.standard_normal(4) * 0.5
        x = rng.standard_normal(3)
        _, h, c = cell_step(p, x, h0, c0)
        h_ref, c_ref = reference_step(p, x, h0, c0)
        np.testing.assert_allclose(h, h_ref, atol=1e-12, rtol=0)
        np.testing.assert_allclose(c, c_ref, atol=1e-12, rtol=0)

    def test_dimension_mismatch_rejected(self):
        p = zero_params(3, 4)
        with pytest.raises(ValueError):
            cell_step(p, np.zeros(2), np.zeros(4), np.zeros(4))
        with pytest.raises(ValueError):
            cell_step(p, np.zeros(3), np.zeros(5), np.zeros(5))


class TestForward:
    def test_length_one_equals_single_step(self):
        rng = make_rng(3)
        p = init_lstm_params(2, 3, rng)
        x = rng.standard_normal((1, 2))
        tape = unroll(p, x)
        _, h, c = cell_step(p, x[0], np.zeros(3), np.zeros(3))
        np.testing.assert_array_equal(tape.h[0, 0], h)
        np.testing.assert_array_equal(tape.c[0, 0], c)

    def test_zero_params_all_zero_hidden(self):
        p = zero_params(2, 3)
        tape = unroll(p, make_rng(1).standard_normal((6, 2)))
        np.testing.assert_array_equal(tape.h, np.zeros((6, 1, 3)))

    def test_constant_input_converges(self):
        rng = make_rng(5)
        p = init_lstm_params(2, 4, rng)
        xs = np.tile(np.array([0.4, -0.3]), (201, 1))
        h = unroll(p, xs).h[:, 0]
        early = np.max(np.abs(h[5] - h[4]))
        late = np.max(np.abs(h[200] - h[199]))
        assert late < early

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            unroll(zero_params(2, 3), np.zeros((0, 2)))

    def test_gates_strictly_inside_unit_interval(self):
        rng = make_rng(9)
        p = init_lstm_params(3, 5, rng)
        tape = unroll(p, rng.standard_normal((20, 3)))
        for k in (0, 1, 3):  # i, f, o
            arr = tape.gates[:, :, k]
            assert np.all(arr > 0.0) and np.all(arr < 1.0)

    def test_cell_update_reproducible_from_cached_gates(self):
        rng = make_rng(13)
        p = init_lstm_params(3, 5, rng)
        tape = unroll(p, rng.standard_normal((12, 3)))
        i, f, g = (tape.gates[:, :, k] for k in range(3))
        rebuilt = f * tape.c_prev + i * g
        np.testing.assert_array_equal(rebuilt, tape.c)

    def test_determinism_forward_and_backward(self):
        rng = make_rng(21)
        p = init_lstm_params(3, 4, rng)
        xs = rng.standard_normal((7, 3))
        dh = rng.standard_normal((7, 4))
        t1 = unroll(p, xs)
        t2 = unroll(p, xs)
        np.testing.assert_array_equal(t1.h, t2.h)
        np.testing.assert_array_equal(t1.c, t2.c)
        g1 = run_backward(p, t1, dh)
        g2 = run_backward(p, t2, dh)
        for name in vars(g1):
            np.testing.assert_array_equal(getattr(g1, name), getattr(g2, name))


def flatten(p: LstmParams) -> np.ndarray:
    return np.concatenate([arr.ravel() for _, arr in gate_blocks(p)])


def unflatten_into(p: LstmParams, flat: np.ndarray) -> None:
    offset = 0
    for _, arr in gate_blocks(p):
        arr.flat[:] = flat[offset : offset + arr.size]
        offset += arr.size


def bptt_error(seed: int, T: int, hidden: int, input_size: int = 3) -> float:
    """Blockwise max relative error of BPTT vs central differences on the
    objective sum_t dh_t . h_t."""
    rng = make_rng(seed)
    p = init_lstm_params(input_size, hidden, rng)
    xs = rng.standard_normal((T, input_size))
    dh = rng.standard_normal((T, hidden))

    def objective(flat: np.ndarray) -> float:
        work = LstmParams(*(a.copy() for a in (p.W, p.U, p.V, p.b)))
        unflatten_into(work, flat)
        return float(np.sum(dh * unroll(work, xs).h[:, 0]))

    numeric = finite_diff_grad(objective, flatten(p), 1e-5)
    grads = run_backward(p, unroll(p, xs), dh)
    analytic = flatten(grads)

    worst = 0.0
    offset = 0
    for _, arr in gate_blocks(p):
        n = arr.size
        a = analytic[offset : offset + n]
        m = numeric[offset : offset + n]
        offset += n
        scale = max(np.max(np.abs(a)), np.max(np.abs(m)))
        diff = np.max(np.abs(a - m))
        worst = max(worst, diff if scale < 1e-6 else diff / scale)
    return worst


class TestBackward:
    def test_zero_upstream_gives_zero_gradients(self):
        rng = make_rng(2)
        p = init_lstm_params(2, 3, rng)
        tape = unroll(p, rng.standard_normal((4, 2)))
        grads = run_backward(p, tape, np.zeros((4, 3)))
        for name in vars(grads):
            np.testing.assert_array_equal(getattr(grads, name), 0.0)

    def test_single_step_matches_finite_differences(self):
        assert bptt_error(seed=1, T=1, hidden=4) <= 1e-6

    def test_long_sequence_matches_finite_differences(self):
        assert bptt_error(seed=11, T=8, hidden=8) <= 1e-4

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_gradients_across_shapes(self, seed):
        rng = make_rng(100 + seed)
        T = int(rng.integers(3, 11))
        hidden = int(rng.choice([4, 8]))
        assert bptt_error(seed=seed, T=T, hidden=hidden) <= 1e-4

    def test_shape_mismatch_rejected(self):
        rng = make_rng(2)
        p = init_lstm_params(2, 3, rng)
        tape = unroll(p, rng.standard_normal((4, 2)))
        with pytest.raises(ValueError):
            run_backward(p, tape, np.zeros((5, 3)))


class TestStackedMatchesPerGate:
    """The gate-stacked lockstep kernels against the per-gate reference
    unroll, at the stream widths of fusion mode (6, 9) and concat mode (15)."""

    @pytest.mark.parametrize("hidden", [1, 16, 64])
    @pytest.mark.parametrize("input_size", [6, 9, 15])
    def test_forward_and_backward(self, hidden, input_size):
        rng = make_rng(300 + hidden + input_size)
        p = init_lstm_params(input_size, hidden, rng)
        p.b[...] = rng.uniform(-0.5, 0.5, size=p.b.shape)
        xs = rng.standard_normal((9, input_size))
        dh = rng.standard_normal((9, hidden))
        tape = unroll(p, xs)
        ref = reference_forward(p, xs)
        ref_gates = np.stack([ref[key] for key in ("i", "f", "g", "o")], axis=1)
        np.testing.assert_allclose(tape.gates[:, 0], ref_gates, rtol=0, atol=1e-12)
        for key in ("c", "h", "tanh_c", "c_prev", "h_prev"):
            np.testing.assert_allclose(getattr(tape, key)[:, 0], ref[key], rtol=0, atol=1e-12)
        grads = run_backward(p, tape, dh)
        ref_grads = reference_backward(p, ref, dh)
        for name, arr in gate_blocks(grads):
            np.testing.assert_allclose(arr, ref_grads[name], rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("hidden", [1, 16, 64])
    def test_streamed_steps_match_the_unroll(self, hidden):
        rng = make_rng(400 + hidden)
        p = init_lstm_params(6, hidden, rng)
        xs = rng.standard_normal((9, 6))
        tape = unroll(p, xs)
        h, c = np.zeros(hidden), np.zeros(hidden)
        for t in range(9):
            _, h, c = cell_step(p, xs[t], h, c)
            np.testing.assert_allclose(h, tape.h[t, 0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(c, tape.c[t, 0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("hidden", [1, 16, 64])
    def test_cells_in_lockstep_equal_each_cell_alone(self, hidden):
        rng = make_rng(500 + hidden)
        cells = [init_lstm_params(d, hidden, rng) for d in (6, 9)]
        for p in cells:
            p.b[...] = rng.uniform(-0.5, 0.5, size=p.b.shape)
        xs = [rng.standard_normal((9, d)) for d in (6, 9)]
        dh = rng.standard_normal((9, 2, hidden))
        tape = lstm_forward(cells, xs)
        grads = [LstmParams(*(np.zeros_like(a) for a in (p.W, p.U, p.V, p.b))) for p in cells]
        lstm_backward(tape, dh, grads)
        for k, p in enumerate(cells):
            alone = unroll(p, xs[k])
            for key in ("gates", "c", "h", "tanh_c"):
                np.testing.assert_array_equal(getattr(tape, key)[:, k], getattr(alone, key)[:, 0])
            for name in vars(p):
                np.testing.assert_array_equal(
                    getattr(grads[k], name), getattr(run_backward(p, alone, dh[:, k]), name)
                )

    @pytest.mark.parametrize("hidden", [1, 16])
    def test_cell_major_block_equals_each_sequence_alone(self, hidden):
        # Zero-padded sequences stepped together over (C, B, ·) states: each
        # one's real steps match its own unroll; the padding after its end
        # does not reach them.
        rng = make_rng(600 + hidden)
        cells = [init_lstm_params(d, hidden, rng) for d in (6, 9)]
        lengths = [4, 1, 7]
        seqs = [[rng.standard_normal((n, d)) for d in (6, 9)] for n in lengths]
        block = [np.zeros((len(lengths), 7, d)) for d in (6, 9)]
        for b, (n, seq) in enumerate(zip(lengths, seqs)):
            for padded, u in zip(block, seq):
                padded[b, :n] = u
        U, V = stack_recurrent(cells)
        h = c = np.zeros((2, len(lengths), hidden))
        steps = []
        for t in range(7):
            gates, c, tanh_c, h = lstm_step(U, V, input_projections(cells, [u[:, t] for u in block]), h, c)
            assert gates.shape == (2, 3, 4, hidden)
            steps.append({"gates": gates, "c": c, "tanh_c": tanh_c, "h": h})
        for b, (n, seq) in enumerate(zip(lengths, seqs)):
            alone = lstm_forward(cells, seq)
            for t in range(n):
                for key, got in steps[t].items():
                    np.testing.assert_allclose(got[:, b], getattr(alone, key)[t],
                                               rtol=0, atol=1e-12, err_msg=key)

    def test_init_draws_in_per_gate_order(self):
        p = init_lstm_params(3, 4, make_rng(8))
        rng = make_rng(8)
        draws = [rng.uniform(-1 / np.sqrt(3), 1 / np.sqrt(3), size=(4, 3)) for _ in range(4)]
        draws += [rng.uniform(-0.5, 0.5, size=(4, 4)) for _ in range(4)]
        draws += [rng.uniform(-0.5, 0.5, size=4) for _ in range(3)]
        np.testing.assert_array_equal(flatten(p)[: sum(d.size for d in draws)],
                                      np.concatenate([d.ravel() for d in draws]))
        np.testing.assert_array_equal(p.b, 0.0)


def saturated_backward_case(widths, hidden, T, scale, seed):
    """Cells with weights scaled by ``scale`` and biases drawn from
    [-scale, scale], which push the gates towards saturation; returns
    (cells, tape, dh, gradients from ``lstm_backward``, zeroed gradients)."""
    rng = make_rng(seed)
    cells = [init_lstm_params(d, hidden, rng) for d in widths]
    for p in cells:
        for arr in (p.W, p.U, p.V):
            arr *= scale
        p.b[...] = rng.uniform(-scale, scale, size=p.b.shape)
    tape = lstm_forward(cells, [rng.standard_normal((T, d)) for d in widths])
    dh = rng.standard_normal((T, len(widths), hidden))
    zeros = lambda: [LstmParams(*(np.zeros_like(a) for a in (p.W, p.U, p.V, p.b))) for p in cells]
    grads = zeros()
    lstm_backward(tape, dh, grads)
    return cells, tape, dh, grads, zeros()


class TestHoistedBackward:
    """``lstm_backward`` groups its tape-only factors before the reverse loop:
    every gradient block must equal the same grouping formed step by step
    bit for bit, and the earlier step by step association within 1e-12."""

    @settings(max_examples=60, deadline=None)
    @given(
        widths=st.lists(st.sampled_from([6, 9, 15]), min_size=1, max_size=2),
        hidden=st.integers(1, 16),
        T=st.integers(1, 12),
        scale=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_per_step_reference(self, widths, hidden, T, scale, seed):
        cells, tape, dh, grads, ref = saturated_backward_case(widths, hidden, T, scale, seed)
        lockstep_backward_reference(cells, tape, dh, ref)
        for k, (got, want) in enumerate(zip(grads, ref)):
            for name in ("W", "U", "V", "b"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name),
                                              err_msg=f"cell {k} {name}")

    @settings(max_examples=60, deadline=None)
    @given(
        widths=st.lists(st.sampled_from([6, 9, 15]), min_size=1, max_size=2),
        hidden=st.integers(1, 64),
        T=st.integers(1, 12),
        scale=st.floats(1.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_within_1e12_of_the_step_by_step_association(self, widths, hidden, T, scale, seed):
        cells, tape, dh, grads, ref = saturated_backward_case(widths, hidden, T, scale, seed)
        parent_backward_reference(cells, tape, dh, ref)
        for k, (got, want) in enumerate(zip(grads, ref)):
            for name in ("W", "U", "V", "b"):
                np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=0, atol=1e-12,
                                           err_msg=f"cell {k} {name}")


class TestCellMajorStep:
    """The cell-major step, on one sequence, against :func:`matvec_step`:
    every bit of the step, the training tape and the streamed predictor."""

    @settings(max_examples=60, deadline=None)
    @given(
        arch=st.sampled_from(["fusion", "concat"]),
        hidden=st.integers(1, 64),
        T=st.integers(1, 8),
        scale=st.floats(1.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_matvec_reference(self, arch, hidden, T, scale, seed):
        rng = make_rng(seed)
        model = init_fusion_model(arch, 6, 9, hidden, EVENTS, rng)
        model.theta[...] *= scale  # scaled weights drive the gates into saturation
        xs, zs = rng.standard_normal((T, 6)), rng.standard_normal((T, 9))
        cells, inputs = model.cells, cell_inputs(model, xs, zs)
        U, V = stack_recurrent(cells)
        C = len(cells)

        a = input_projections(cells, [u[0] for u in inputs])
        h, c = rng.standard_normal((C, hidden)), rng.standard_normal((C, hidden))
        for got, want in zip(lstm_step(U, V, a, h, c), matvec_step(U, V, a, h, c)):
            np.testing.assert_array_equal(got, want)

        tape, ref = lstm_forward(cells, inputs), matvec_forward(cells, inputs)
        for key, want in ref.items():
            np.testing.assert_array_equal(getattr(tape, key), want, err_msg=key)

        # The streamed step projects each step's inputs on their own.
        predictor = FusionRnnPredictor(model)
        state = predictor.begin()
        h = c = np.zeros((C, hidden))
        for t in range(T):
            state, probs = predictor.step(state, xs[t], zs[t])
            _, c, _, h = matvec_step(U, V, input_projections(cells, [u[t] for u in inputs]), h, c)
            np.testing.assert_array_equal(state[0], h)
            np.testing.assert_array_equal(state[1], c)
            np.testing.assert_array_equal(probs, readout(model, h)[-1])
