from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maneuverkit.fusion_rnn import (
    FusionRnnModel,
    backward,
    forward,
    init_fusion_model,
    param_blocks,
    param_count,
)
from maneuverkit.lstm import lstm_backward, lstm_forward
from maneuverkit.numerics import make_rng, softmax
from maneuverkit.training import TrainConfig, gradient_check

from test_lstm import lockstep_backward_reference, reference_backward, reference_forward

EVENTS5 = ("left_lane", "right_lane", "left_turn", "right_turn", "straight")


def make_model(arch="fusion", hidden=6, seed=3):
    return init_fusion_model(arch, 6, 9, hidden, EVENTS5, make_rng(seed))


def zeroed(model):
    m = model.copy()
    for _, arr in param_blocks(m):
        arr[...] = 0.0
    return m


def random_streams(seed, T):
    rng = make_rng(seed)
    return rng.standard_normal((T, 6)), rng.standard_normal((T, 9))


class TestForward:
    def test_zero_params_give_uniform(self):
        xs, zs = random_streams(0, 5)
        for arch in ("fusion", "concat"):
            probs, _ = forward(zeroed(make_model(arch)), xs, zs)
            np.testing.assert_allclose(probs, 0.2, atol=1e-15)

    def test_rows_normalized(self):
        xs, zs = random_streams(1, 8)
        probs, _ = forward(make_model(), xs, zs)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_fusion_and_concat_differ(self):
        xs, zs = random_streams(2, 6)
        pf, _ = forward(make_model("fusion", hidden=8), xs, zs)
        pc, _ = forward(make_model("concat", hidden=8), xs, zs)
        assert np.max(np.abs(pf - pc)) > 1e-3

    def test_fusion_with_silenced_inside_stream_still_differs_from_concat(self):
        xs, zs = random_streams(4, 6)
        pf, _ = forward(make_model("fusion", hidden=8), xs, np.zeros_like(zs))
        pc, _ = forward(make_model("concat", hidden=8), xs, np.zeros_like(zs))
        assert np.max(np.abs(pf - pc)) > 1e-6

    def test_length_mismatch_rejected(self):
        xs, zs = random_streams(3, 6)
        with pytest.raises(ValueError):
            forward(make_model(), xs[:5], zs)

    def test_batch_input_rejected(self):
        # Blocks of sequences go through the predictor; forward takes one.
        xs, zs = random_streams(3, 6)
        with pytest.raises(ValueError, match=r"forward takes one \(T, ·\) sequence"):
            forward(make_model(), np.stack([xs, xs]), np.stack([zs, zs]))
        with pytest.raises(ValueError, match=r"forward takes one \(T, ·\) sequence"):
            forward(make_model(), np.stack([xs, xs]), zs)
        with pytest.raises(ValueError, match="empty"):
            forward(make_model(), np.zeros((0, 6)), np.zeros((0, 9)))

    def test_forward_is_pure(self):
        xs, zs = random_streams(5, 7)
        m = make_model()
        p1, _ = forward(m, xs, zs)
        p2, _ = forward(m, xs, zs)
        np.testing.assert_array_equal(p1, p2)


class TestBackward:
    def test_zero_upstream_gives_zero(self):
        xs, zs = random_streams(6, 5)
        m = make_model()
        _, tape = forward(m, xs, zs)
        grads = backward(m, tape, np.zeros((5, 5)))
        assert grads.shape == m.theta.shape
        np.testing.assert_array_equal(grads, 0.0)

    @pytest.mark.parametrize("arch", ["fusion", "concat"])
    def test_full_model_gradient_check(self, arch):
        xs, zs = random_streams(7, 6)
        report = gradient_check(make_model(arch, hidden=6), xs, zs, 2, TrainConfig())
        assert report.passed, report.block_errors

    def test_per_step_gradients_add_up(self):
        xs, zs = random_streams(8, 4)
        m = make_model()
        _, tape = forward(m, xs, zs)
        rng = make_rng(9)
        dlogits = rng.standard_normal((4, 5))
        total = backward(m, tape, dlogits)
        parts = np.zeros_like(total)
        for t in range(4):
            only_t = np.zeros_like(dlogits)
            only_t[t] = dlogits[t]
            parts += backward(m, tape, only_t)
        np.testing.assert_allclose(total, parts, atol=1e-12)


class TestParamCount:
    def test_hand_counted_minimal_model(self):
        m = init_fusion_model("fusion", 1, 1, 1, EVENTS5, make_rng(0))
        counts = param_count(m)
        # per LSTM: 4 W (1x1) + 4 U (1x1) + 3 V + 4 b = 15; two streams = 30
        # fusion: W_f 1x2 + b_f 1 = 3; output: W_y 5x1 + b_y 5 = 10
        assert counts["total"] == 30 + 3 + 10
        assert counts["lstm_x.W_i"] == 1
        assert counts["W_f"] == 2
        assert counts["W_y"] == 5

    def test_doubling_hidden_more_than_doubles(self):
        small = param_count(make_model(hidden=8))["total"]
        big = param_count(make_model(hidden=16))["total"]
        assert big > 2 * small

    def test_zero_size_model_rejected(self):
        with pytest.raises(ValueError):
            init_fusion_model("fusion", 6, 9, 0, EVENTS5, make_rng(0))

    def test_default_architecture_count_is_documented(self):
        # hidden 64 per stream, fusion width 64, |x|=6, |z|=9, K=5
        m = init_fusion_model("fusion", 6, 9, 64, EVENTS5, make_rng(0))
        assert param_count(m)["total"] == 46085


def test_flat_round_trip():
    m = make_model()
    flat = np.concatenate([arr.ravel() for _, arr in param_blocks(m)])
    np.testing.assert_array_equal(flat, m.theta)
    m2 = make_model(seed=99)
    m2.theta[...] = flat
    for (name, a), (name2, b) in zip(param_blocks(m), param_blocks(m2)):
        assert name == name2
        np.testing.assert_array_equal(a, b)


def reference_init(arch, hidden, seed):
    """The per-gate initialization: every block drawn on its own, in
    param_blocks order, and laid end to end."""
    rng = make_rng(seed)

    def draw(shape, fan_in):
        r = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-r, r, size=shape)

    def cell(d):
        W = [draw((hidden, d), d) for _ in range(4)]
        U = [draw((hidden, hidden), hidden) for _ in range(4)]
        V = [draw(hidden, hidden) for _ in range(3)]
        return W + U + V + [np.zeros(hidden)] * 4

    def uni(rows, cols):
        return draw((rows, cols), cols)

    if arch == "fusion":
        blocks = cell(6) + cell(9) + [uni(hidden, 2 * hidden), np.zeros(hidden), uni(5, hidden)]
    else:
        blocks = cell(15) + [uni(5, hidden)]
    return np.concatenate([b.ravel() for b in blocks] + [np.zeros(5)])


def reference_pass(m, xs, zs, dlogits):
    """Probabilities and the gradient in theta order, from the per-gate
    reference LSTM unroll and BPTT."""
    H = m.hidden
    if m.arch == "concat":
        (lstm_x,) = m.cells
        tx = reference_forward(lstm_x, np.concatenate([xs, zs], axis=1))
        probs = softmax(tx["h"] @ m.W_y.T + m.b_y)
        cells = {"lstm_x": reference_backward(lstm_x, tx, dlogits @ m.W_y)}
        head = {"W_y": dlogits.T @ tx["h"], "b_y": dlogits.sum(axis=0)}
    else:
        lstm_x, lstm_z = m.cells
        tx = reference_forward(lstm_x, xs)
        tz = reference_forward(lstm_z, zs)
        hcat = np.concatenate([tx["h"], tz["h"]], axis=1)
        e = np.tanh(hcat @ m.W_f.T + m.b_f)
        probs = softmax(e @ m.W_y.T + m.b_y)
        da_f = (dlogits @ m.W_y) * (1.0 - e * e)
        dcat = da_f @ m.W_f
        cells = {
            "lstm_x": reference_backward(lstm_x, tx, dcat[:, :H]),
            "lstm_z": reference_backward(lstm_z, tz, dcat[:, H:]),
        }
        head = {"W_f": da_f.T @ hcat, "b_f": da_f.sum(axis=0),
                "W_y": dlogits.T @ e, "b_y": dlogits.sum(axis=0)}
    for stream, grads in cells.items():
        head.update({f"{stream}.{name}": g for name, g in grads.items()})
    return probs, np.concatenate([head[name].ravel() for name, _ in param_blocks(m)])


def two_branch_forward(m, xs, zs):
    """The forward pass as it was written before the one readout: a concat
    branch and a fusion branch, each with its own head, and each cell
    unrolled alone.  Returns the probabilities and what two_branch_backward
    needs."""
    if m.arch == "concat":
        (lstm_x,) = m.cells
        tape_x = lstm_forward([lstm_x], [np.concatenate([xs, zs], axis=1)])
        return softmax(tape_x.h[:, 0] @ m.W_y.T + m.b_y), {"tape_x": tape_x}
    lstm_x, lstm_z = m.cells
    tape_x = lstm_forward([lstm_x], [xs])
    tape_z = lstm_forward([lstm_z], [zs])
    hcat = np.concatenate([tape_x.h[:, 0], tape_z.h[:, 0]], axis=1)
    e = np.tanh(hcat @ m.W_f.T + m.b_f)
    probs = softmax(e @ m.W_y.T + m.b_y)
    return probs, {"tape_x": tape_x, "tape_z": tape_z, "hcat": hcat, "e": e}


def two_branch_backward(m, cache, dlogits):
    """The backward pass with its own concat and fusion branches."""
    g = replace(m, theta=np.zeros_like(m.theta))
    np.sum(dlogits, axis=0, out=g.b_y)
    if m.arch == "concat":
        np.matmul(dlogits.T, cache["tape_x"].h[:, 0], out=g.W_y)
        lstm_backward(cache["tape_x"], (dlogits @ m.W_y)[:, None], g.cells[:1])
        return g.theta
    np.matmul(dlogits.T, cache["e"], out=g.W_y)
    da_f = (dlogits @ m.W_y) * (1.0 - cache["e"] * cache["e"])
    np.matmul(da_f.T, cache["hcat"], out=g.W_f)
    np.sum(da_f, axis=0, out=g.b_f)
    dcat = da_f @ m.W_f
    lstm_backward(cache["tape_x"], dcat[:, None, : m.hidden], g.cells[:1])
    lstm_backward(cache["tape_z"], dcat[:, None, m.hidden :], g.cells[1:])
    return g.theta


def rebuilt_model_backward(m, tape, dlogits):
    """The backward pass through a whole model rebuilt on a zero gradient
    vector, with the per-step reference BPTT: what :func:`backward` must
    equal bit for bit."""
    g = replace(m, theta=np.zeros_like(m.theta))
    np.sum(dlogits, axis=0, out=g.b_y)
    np.matmul(dlogits.T, tape.e, out=g.W_y)
    dcat = dlogits @ m.W_y
    if m.W_f is not None:
        da_f = dcat * (1.0 - tape.e * tape.e)
        np.matmul(da_f.T, tape.hcat, out=g.W_f)
        np.sum(da_f, axis=0, out=g.b_f)
        dcat = da_f @ m.W_f
    lockstep_backward_reference(m.cells, tape.lstm, dcat.reshape(tape.lstm.h.shape), g.cells)
    return g.theta


@settings(max_examples=40, deadline=None)
@given(
    arch=st.sampled_from(["fusion", "concat"]),
    hidden=st.integers(1, 16),
    T=st.integers(1, 12),
    scale=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_backward_equals_rebuilt_model_reference(arch, hidden, T, scale, seed):
    rng = make_rng(seed)
    m = init_fusion_model(arch, 6, 9, hidden, EVENTS5, rng)
    m.theta[...] = scale * (m.theta + rng.uniform(-0.2, 0.2, size=m.theta.shape))
    xs, zs = rng.standard_normal((T, 6)), rng.standard_normal((T, 9))
    dlogits = rng.standard_normal((T, 5))
    _, tape = forward(m, xs, zs)
    got, want = backward(m, tape, dlogits), rebuilt_model_backward(m, tape, dlogits)
    offset = 0
    for name, arr in param_blocks(m):
        block = slice(offset, offset + arr.size)
        np.testing.assert_array_equal(got[block], want[block], err_msg=name)
        offset += arr.size


@pytest.mark.parametrize("arch", ["fusion", "concat"])
@pytest.mark.parametrize("hidden", [1, 16, 64])
def test_one_pass_equals_two_branch_reference(arch, hidden):
    m = make_model(arch, hidden=hidden, seed=hidden)
    rng = make_rng(70 + hidden)
    m.theta[...] += rng.uniform(-0.2, 0.2, size=m.theta.shape)
    xs, zs = random_streams(hidden + 1, 11)
    dlogits = rng.standard_normal((11, 5))
    probs, tape = forward(m, xs, zs)
    ref_probs, cache = two_branch_forward(m, xs, zs)
    np.testing.assert_array_equal(probs, ref_probs)
    np.testing.assert_array_equal(backward(m, tape, dlogits), two_branch_backward(m, cache, dlogits))


class TestFlatLayout:
    @pytest.mark.parametrize("arch", ["fusion", "concat"])
    @pytest.mark.parametrize("hidden", [1, 16, 64])
    def test_matches_per_gate_reference(self, arch, hidden):
        m = make_model(arch, hidden=hidden, seed=hidden)
        rng = make_rng(50 + hidden)
        m.theta[...] += rng.uniform(-0.1, 0.1, size=m.theta.shape)  # nonzero biases too
        xs, zs = random_streams(hidden, 9)
        dlogits = rng.standard_normal((9, 5))
        probs, tape = forward(m, xs, zs)
        ref_probs, ref_grad = reference_pass(m, xs, zs, dlogits)
        np.testing.assert_allclose(probs, ref_probs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(backward(m, tape, dlogits), ref_grad, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("arch", ["fusion", "concat"])
    def test_init_matches_per_gate_draws(self, arch):
        m = make_model(arch, hidden=3, seed=11)
        np.testing.assert_array_equal(m.theta, reference_init(arch, 3, 11))

    @pytest.mark.parametrize("arch", ["fusion", "concat"])
    def test_every_block_is_a_view_of_theta(self, arch):
        m = make_model(arch)
        assert len(m.cells) == (2 if arch == "fusion" else 1)
        stacked = [a for p in m.cells for a in (p.W, p.U, p.V, p.b)]
        for arr in [a for _, a in param_blocks(m)] + stacked:
            assert np.shares_memory(arr, m.theta)
        c = m.copy()
        for (_, a), (_, b) in zip(param_blocks(c), param_blocks(m)):
            assert np.shares_memory(a, c.theta) and not np.shares_memory(a, m.theta)
            np.testing.assert_array_equal(a, b)
        c.theta[...] = 0.0
        assert np.all(c.W_y == 0.0) and np.any(m.W_y != 0.0)

    # Each used to be built, and saved by save_model, and refused only by load_model.
    @pytest.mark.parametrize("events, message", [
        (("left_lane", "right_lane"), "'straight' must be the last event"),
        (("straight", "left_lane"), "'straight' must be the last event"),
        (("left_lane", "left_lane", "straight"), "duplicate event labels"),
        (("u_turn", "straight"), "unknown event labels"),
    ], ids=["no-straight", "straight-first", "duplicate", "unknown"])
    @pytest.mark.parametrize("arch", ["fusion", "concat"])
    def test_invalid_event_tuple_rejected(self, arch, events, message):
        with pytest.raises(ValueError, match=message):
            FusionRnnModel(arch=arch, input_x=6, input_z=9, hidden=2, events=events)

    def test_wrong_theta_size_rejected(self):
        m = make_model()
        with pytest.raises(ValueError, match="theta"):
            type(m)(arch="fusion", input_x=6, input_z=9, hidden=6,
                    events=EVENTS5, theta=m.theta[:-1].copy())
