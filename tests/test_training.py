import math

import numpy as np
import pytest

from maneuverkit import training
from maneuverkit.events import EVENTS
from maneuverkit.fusion_rnn import forward, init_fusion_model, param_blocks
from maneuverkit.numerics import make_rng
from maneuverkit.synth import ScenarioConfig, SequenceSample, generate
from maneuverkit.training import (
    LOSS_EXPONENTIAL,
    LOSS_UNIFORM,
    RMSPROP_DECAY,
    RMSPROP_EPSILON,
    RmsProp,
    TrainConfig,
    anticipation_loss,
    augment,
    gradient_check,
    loss_logit_grads,
    loss_weights,
    map_label_to_model,
    rmsprop_apply,
    train,
)

from test_fusion_rnn import rebuilt_model_backward


def rmsprop_update(param, grad, acc, learning_rate, decay, epsilon):
    """The functional reference of ``rmsprop_apply``: the step on copies,
    returning (new_param, new_acc)."""
    new_param, new_acc = param.copy(), acc.copy()
    rmsprop_apply(new_param, grad, new_acc, learning_rate, decay, epsilon)
    return new_param, new_acc


class TestLoss:
    def test_single_step_both_modes(self):
        probs = np.array([[0.2, 0.5, 0.3]])
        expected = -math.log(0.5)
        assert abs(anticipation_loss(probs, 1, LOSS_EXPONENTIAL) - expected) < 1e-15
        assert abs(anticipation_loss(probs, 1, LOSS_UNIFORM) - expected) < 1e-15

    def test_constant_half_probability(self):
        probs = np.full((3, 4), 0.5)
        expected = math.log(2.0) * (1.0 + math.exp(-1.0) + math.exp(-2.0))
        assert abs(anticipation_loss(probs, 0, LOSS_EXPONENTIAL) - expected) <= 1e-12

    def test_exponential_never_exceeds_uniform(self):
        rng = make_rng(0)
        for _ in range(1000):
            T = int(rng.integers(1, 15))
            probs = rng.uniform(1e-6, 1.0, size=(T, 5))
            probs /= probs.sum(axis=1, keepdims=True)
            k = int(rng.integers(0, 5))
            exp_loss = anticipation_loss(probs, k, LOSS_EXPONENTIAL)
            uni_loss = anticipation_loss(probs, k, LOSS_UNIFORM)
            assert exp_loss <= uni_loss + 1e-12

    def test_weights_monotone_and_end_at_one(self):
        for T in (1, 2, 5, 40):
            w = loss_weights(T, LOSS_EXPONENTIAL)
            assert w[-1] == 1.0
            assert np.all(np.diff(w) > 0) or T == 1

    def test_floor_keeps_loss_finite(self):
        probs = np.zeros((4, 3))
        probs[:, 0] = 1.0
        loss = anticipation_loss(probs, 2, LOSS_EXPONENTIAL)
        assert np.isfinite(loss)

    def test_target_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            anticipation_loss(np.full((2, 3), 1 / 3), 3, LOSS_UNIFORM)

    @pytest.mark.parametrize("fn", [anticipation_loss, loss_logit_grads])
    @pytest.mark.parametrize("probs, target, match", [
        (np.full((2, 3), 1 / 3), -1, "target index -1 out of range for K=3"),
        (np.full((2, 3), 1 / 3), 3, "target index 3 out of range for K=3"),
        (np.full(3, 1 / 3), 0, r"expected a \(T, K\) trajectory, got shape \(3,\)"),
        (np.zeros((0, 3)), 0, r"expected a \(T, K\) trajectory, got shape \(0, 3\)"),
    ])
    def test_loss_and_gradient_check_inputs_alike(self, fn, probs, target, match):
        with pytest.raises(ValueError, match=match):
            fn(probs, target)


class TestRmsProp:
    def test_zero_gradient_leaves_params(self):
        p, acc = np.array([1.0, -2.0]), np.array([0.5, 0.5])
        new_p, new_acc = rmsprop_update(p, np.zeros(2), acc, 0.1, 0.9, 1e-8)
        np.testing.assert_array_equal(new_p, p)
        np.testing.assert_allclose(new_acc, 0.45)

    def test_first_scalar_step(self):
        p, acc = np.array([0.0]), np.array([0.0])
        new_p, new_acc = rmsprop_update(p, np.array([1.0]), acc, 0.1, 0.9, 1e-8)
        expected = -0.1 * 1.0 / (math.sqrt(0.1) + 1e-8)
        assert abs(new_p[0] - expected) < 1e-15
        assert abs(new_acc[0] - 0.1) < 1e-15

    def test_non_finite_gradient_rejected(self):
        with pytest.raises(FloatingPointError):
            rmsprop_update(np.zeros(1), np.array([np.nan]), np.zeros(1), 0.1, 0.9, 1e-8)

    def test_update_rounds_as_the_two_line_formula(self):
        rng = make_rng(4)
        for scale in (1e-6, 1.0, 1e3):
            p, g = rng.standard_normal(500), scale * rng.standard_normal(500)
            acc = np.abs(rng.standard_normal(500)) * scale
            acc[:50] = 0.0
            g[:10] = 0.0
            for lr, decay, eps in ((1e-4, 0.9, 1e-8), (2e-3, 0.95, 1e-6)):
                want_acc = decay * acc + (1.0 - decay) * g * g
                want_p = p - lr * g / (np.sqrt(want_acc) + eps)
                new_p, new_acc = rmsprop_update(p, g, acc, lr, decay, eps)
                np.testing.assert_array_equal(new_acc, want_acc)
                np.testing.assert_array_equal(new_p, want_p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected_step_writes_nothing(self, bad):
        rng = make_rng(5)
        model = init_fusion_model("fusion", 6, 9, 5, EVENTS, rng)
        opt = RmsProp(model, TrainConfig(learning_rate=1e-2))
        opt.step(model, rng.standard_normal(model.theta.shape))
        theta, acc = model.theta.copy(), opt.acc.copy()
        grad = rng.standard_normal(model.theta.shape)
        grad[-1] = bad
        with pytest.raises(FloatingPointError):
            opt.step(model, grad)
        np.testing.assert_array_equal(model.theta, theta)
        np.testing.assert_array_equal(opt.acc, acc)

    @pytest.mark.parametrize("arch", ["fusion", "concat"])
    def test_flat_step_equals_per_block_updates(self, arch):
        rng = make_rng(12)
        model = init_fusion_model(arch, 6, 9, 5, EVENTS, rng)
        ref = model.copy()
        cfg = TrainConfig(learning_rate=1e-2)
        opt = RmsProp(model, cfg)
        acc = {name: np.zeros_like(arr) for name, arr in param_blocks(ref)}
        for _ in range(3):
            grad = rng.standard_normal(model.theta.shape)
            opt.step(model, grad)
            offset = 0
            for name, arr in param_blocks(ref):
                g = grad[offset : offset + arr.size].reshape(arr.shape)
                offset += arr.size
                arr[...], acc[name] = rmsprop_update(
                    arr, g, acc[name], cfg.learning_rate, RMSPROP_DECAY, RMSPROP_EPSILON
                )
        np.testing.assert_array_equal(model.theta, ref.theta)
        np.testing.assert_array_equal(opt.acc, np.concatenate([a.ravel() for a in acc.values()]))


def toy_dataset(n=24, seed=0):
    """Two linearly separable classes over constant streams, T=4."""
    rng = make_rng(seed)
    samples = []
    for i in range(n):
        label = i % 2
        shift = 1.0 if label == 0 else -1.0
        xs = np.tile(rng.normal(shift, 0.1, size=6), (4, 1))
        zs = np.tile(rng.normal(-shift, 0.1, size=9), (4, 1))
        canonical = 0 if label == 0 else 4  # left_lane vs straight
        samples.append(SequenceSample(id=f"toy-{i}", xs=xs, zs=zs, label=canonical))
    return samples


class TestAugmentation:
    def test_factor_one_is_identity(self):
        data = toy_dataset()
        out = augment(data, 1.0, seed=0)
        assert out == data

    def test_reaches_target_size(self):
        data = toy_dataset(n=700 // 7)  # keep runtime small; same arithmetic
        out = augment(data, 2250 / 700, seed=1)
        assert len(out) == math.ceil(2250 / 700 * len(data))

    def test_augmented_items_are_contiguous_slices(self):
        data = toy_dataset(n=10, seed=3)
        out = augment(data, 3.0, seed=5)
        by_id = {s.id: s for s in data}
        for s in out[len(data):]:
            src = by_id[s.meta["source"]]
            i, j = s.meta["start"], s.meta["stop"]
            assert 0 <= i < j < src.length
            assert s.label == src.label
            np.testing.assert_array_equal(s.xs, src.xs[i : j + 1])
            np.testing.assert_array_equal(s.zs, src.zs[i : j + 1])
            assert s.xs.shape[0] >= 2

    def test_originals_retained(self):
        data = toy_dataset(n=8)
        out = augment(data, 2.0, seed=2)
        assert out[: len(data)] == data

    @pytest.mark.parametrize("factor", [0.5, math.nan, math.inf])
    def test_bad_factor_rejected(self, factor):
        with pytest.raises(ValueError, match="finite and >= 1"):
            augment(toy_dataset(), factor, seed=0)

    # used to append samples until the process was killed
    def test_factor_beyond_the_sample_bound_is_refused_before_any_draw(self, monkeypatch):
        data = toy_dataset(n=20)
        monkeypatch.setattr(training, "make_rng", lambda seed: pytest.fail("drew a sample"))
        with pytest.raises(ValueError, match=r"factor 1e\+12 would grow 20 samples to 20000000000000, "
                                             r"more than the 1000000 allowed"):
            augment(data, 1e12, seed=0)

    def test_sample_bound_is_inclusive(self, monkeypatch):
        data = toy_dataset(n=20)
        monkeypatch.setattr(training, "MAX_AUGMENTED_SAMPLES", 30)
        assert len(augment(data, 1.5, seed=0)) == 30
        with pytest.raises(ValueError, match="to 31, more than the 30 allowed"):
            augment(data, 1.55, seed=0)


class TestTrain:
    def test_zero_epochs_returns_initial_model(self):
        data = toy_dataset()
        model = init_fusion_model("fusion", 6, 9, 4, EVENTS, make_rng(1))
        report = train(data, model, TrainConfig(epochs=0))
        np.testing.assert_array_equal(report.model.theta, model.theta)

    def test_loss_decreases_on_separable_data(self):
        data = toy_dataset(seed=1)
        model = init_fusion_model("fusion", 6, 9, 6, EVENTS, make_rng(1))
        report = train(data, model, TrainConfig(epochs=10, learning_rate=2e-3, seed=1))
        losses = report.epoch_losses
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_same_seed_reproduces_parameters(self):
        data = toy_dataset(seed=2)
        model = init_fusion_model("fusion", 6, 9, 4, EVENTS, make_rng(5))
        cfg = TrainConfig(epochs=3, learning_rate=1e-3, seed=9)
        r1 = train(data, model, cfg)
        r2 = train(data, model, cfg)
        np.testing.assert_array_equal(r1.model.theta, r2.model.theta)

    # a NaN or infinite rate or factor used to train a full pass, then abort
    @pytest.mark.parametrize("field, value", [
        ("learning_rate", float("nan")), ("learning_rate", float("inf")), ("learning_rate", 0.0),
        ("augmentation_factor", float("nan")), ("augmentation_factor", float("inf")),
        ("augmentation_factor", 0.5), ("epochs", -1),
    ])
    def test_bad_setting_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            TrainConfig(**{field: value}).validate()

    def test_empty_dataset_rejected(self):
        model = init_fusion_model("fusion", 6, 9, 4, EVENTS, make_rng(5))
        with pytest.raises(ValueError):
            train([], model, TrainConfig())

    def test_non_finite_loss_aborts_with_checkpoint(self):
        data = toy_dataset(n=4)
        model = init_fusion_model("fusion", 6, 9, 4, EVENTS, make_rng(5))
        model.W_y[0, 0] = np.nan
        report = train(data, model, TrainConfig(epochs=3))
        assert report.aborted
        assert report.epoch_losses == []
        assert report.model is not None

    # NaN probabilities give a non-finite loss, and a NaN gradient is one that RmsProp.step
    # rejects; either, met in epoch 2, must return the state of the one complete epoch
    @pytest.mark.parametrize("stage, message", [
        ("forward", "non-finite loss"),
        ("backward", "non-finite gradient"),
    ])
    def test_abort_in_epoch_two_returns_the_first_epoch(self, monkeypatch, caplog, stage, message):
        data = toy_dataset(n=6)
        model = init_fusion_model("fusion", 6, 9, 4, EVENTS, make_rng(5))
        one_epoch = train(data, model, TrainConfig(epochs=1, learning_rate=1e-3, seed=9))
        real, calls = getattr(training.fusion_rnn, stage), []

        def poisoned(*args):
            out = real(*args)
            calls.append(args)
            if len(calls) <= len(data) + 2:  # the first epoch and two samples of the second
                return out
            if stage == "forward":
                return np.full_like(out[0], np.nan), out[1]
            return np.full_like(out, np.nan)

        monkeypatch.setattr(training.fusion_rnn, stage, poisoned)
        report = train(data, model, TrainConfig(epochs=3, learning_rate=1e-3, seed=9))
        assert report.aborted
        assert report.epoch_losses == one_epoch.epoch_losses
        np.testing.assert_array_equal(report.model.theta, one_epoch.model.theta)
        assert len(calls) == len(data) + 3
        assert message in caplog.text and "aborting" in caplog.text


class TestGradientCheck:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_passes_for_exponential_loss(self, seed):
        rng = make_rng(seed)
        model = init_fusion_model("fusion", 6, 9, 6, EVENTS, rng)
        xs = rng.standard_normal((6, 6))
        zs = rng.standard_normal((6, 9))
        report = gradient_check(model, xs, zs, int(rng.integers(0, 5)), TrainConfig())
        assert report.passed, report.block_errors

    def test_passes_for_uniform_loss(self):
        rng = make_rng(40)
        model = init_fusion_model("fusion", 6, 9, 6, EVENTS, rng)
        xs = rng.standard_normal((6, 6))
        zs = rng.standard_normal((6, 9))
        report = gradient_check(model, xs, zs, 1, TrainConfig(loss_mode=LOSS_UNIFORM))
        assert report.passed, report.block_errors


def replayed_training(dataset, model, config):
    """Per-sample RMSprop written out from the forward pass, the two loss
    functions, the rebuilt-model reference backward and the functional
    update: (theta, epoch_losses) that ``train`` must reproduce bit for bit."""
    theta = model.theta.copy()
    work = model.copy()
    acc = np.zeros_like(theta)
    rng = make_rng(config.seed)
    losses = []
    for _ in range(config.epochs):
        total = 0.0
        for idx in rng.permutation(len(dataset)):
            sample = dataset[int(idx)]
            target = map_label_to_model(sample.label, model.events)
            work.theta[...] = theta
            probs, tape = forward(work, sample.xs, sample.zs)
            args = (target, config.loss_mode)
            loss = anticipation_loss(probs, *args)
            grad = rebuilt_model_backward(work, tape, loss_logit_grads(probs, *args))
            theta, acc = rmsprop_update(theta, grad, acc, config.learning_rate,
                                        RMSPROP_DECAY, RMSPROP_EPSILON)
            total += loss
        losses.append(total / len(dataset))
    return theta, losses


@pytest.mark.parametrize("arch", ["fusion", "concat"])
@pytest.mark.parametrize("loss_mode", [LOSS_EXPONENTIAL, LOSS_UNIFORM])
def test_train_replays_the_reference_loop_bit_for_bit(arch, loss_mode):
    data = generate(ScenarioConfig(seed=6), 16)
    model = init_fusion_model(arch, 6, 9, 7, EVENTS, make_rng(4))
    config = TrainConfig(loss_mode=loss_mode, epochs=2, learning_rate=1e-2, seed=9)
    report = train(data, model, config)
    theta, losses = replayed_training(data, model, config)
    assert not report.aborted
    np.testing.assert_array_equal(report.model.theta, theta)
    assert report.epoch_losses == losses


def test_generated_data_trains_end_to_end():
    data = generate(ScenarioConfig(seed=8), 80)
    model = init_fusion_model("fusion", 6, 9, 8, EVENTS, make_rng(2))
    report = train(data, model, TrainConfig(epochs=3, learning_rate=2e-3, seed=3))
    assert report.epoch_losses[-1] < report.epoch_losses[0]
    assert not report.aborted
