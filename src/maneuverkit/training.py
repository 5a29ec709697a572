"""Sequence-to-sequence anticipation training.

Every step of a training sequence carries the same target: the event that
happens at the end.  The per-step cross-entropy is weighted by
exp(-(T - t)), so mistakes made with the full context in view cost e^0 = 1
while mistakes made early, when little context exists, cost exponentially
less.  ``uniform`` mode weights every step 1.

Updates are per-sample RMSprop with decay ``RMSPROP_DECAY`` and epsilon
``RMSPROP_EPSILON``; sample order is reshuffled each epoch by a seeded
generator, so a (seed, config) pair replays bit-identically.  The loss
floors each target probability at ``PROB_FLOOR``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import fusion_rnn
from .fusion_rnn import FusionRnnModel
from .numerics import finite_diff_grad, make_rng

log = logging.getLogger(__name__)

LOSS_EXPONENTIAL = "exponential"
LOSS_UNIFORM = "uniform"

RMSPROP_DECAY = 0.9
RMSPROP_EPSILON = 1e-8
PROB_FLOOR = 1e-12  # smallest target probability the loss takes the log of
MAX_AUGMENTED_SAMPLES = 1_000_000  # about 1.1 GB at the synthetic data's 1080 bytes per sample


@dataclass
class TrainConfig:
    loss_mode: str = LOSS_EXPONENTIAL
    learning_rate: float = 1e-4
    epochs: int = 10
    seed: int = 0
    augmentation_factor: float = 1.0

    def validate(self) -> None:
        if self.loss_mode not in (LOSS_EXPONENTIAL, LOSS_UNIFORM):
            raise ValueError(f"unknown loss mode {self.loss_mode!r}")
        # written as "not (ok)", so NaN fails them too
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate!r}")
        if not self.epochs >= 0:
            raise ValueError(f"epochs must be non-negative, got {self.epochs!r}")
        if not 1.0 <= self.augmentation_factor < math.inf:
            raise ValueError(f"augmentation_factor must be finite and >= 1, got {self.augmentation_factor!r}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrainReport:
    model: FusionRnnModel
    epoch_losses: list[float]
    aborted: bool = False


def loss_weights(T: int, mode: str) -> np.ndarray:
    """Per-step weights exp(-(T - t)) for t = 1..T, or all 1 in ``uniform``
    mode; monotone increasing, exactly 1 at t = T."""
    if T < 1:
        raise ValueError("empty trajectories have no loss")
    if mode == LOSS_UNIFORM:
        return np.ones(T)
    t = np.arange(1, T + 1, dtype=float)
    return np.exp(-(T - t))


def _checked_trajectory(probs: np.ndarray, target: int) -> np.ndarray:
    """``probs`` as a float (T, K) array with T >= 1 and 0 <= target < K."""
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 2 or probs.shape[0] == 0:
        raise ValueError(f"expected a (T, K) trajectory, got shape {probs.shape}")
    if not 0 <= target < probs.shape[1]:
        raise ValueError(f"target index {target} out of range for K={probs.shape[1]}")
    return probs


def anticipation_loss(probs: np.ndarray, target: int, mode: str = LOSS_EXPONENTIAL) -> float:
    """sum_t -w_t log(y_t[target]) with the probabilities floored."""
    probs = _checked_trajectory(probs, target)
    w = loss_weights(probs.shape[0], mode)
    p = np.maximum(probs[:, target], PROB_FLOOR)
    return float(np.sum(-w * np.log(p)))


def loss_logit_grads(probs: np.ndarray, target: int, mode: str = LOSS_EXPONENTIAL) -> np.ndarray:
    """Gradient of anticipation_loss w.r.t. the pre-softmax logits, (T, K).

    Steps whose target probability sits below the floor contribute zero
    gradient (the floored loss is locally constant there), keeping the
    analytic gradient consistent with finite differences of the loss.
    """
    probs = _checked_trajectory(probs, target)
    w = loss_weights(probs.shape[0], mode)
    grads = probs.copy()
    grads[:, target] -= 1.0
    grads *= w[:, None]
    grads[probs[:, target] < PROB_FLOOR] = 0.0
    return grads


# ---------------------------------------------------------------------------
# RMSprop
# ---------------------------------------------------------------------------


def rmsprop_apply(
    param: np.ndarray,
    grad: np.ndarray,
    acc: np.ndarray,
    learning_rate: float,
    decay: float,
    epsilon: float,
) -> None:
    """One RMSprop step on a single array, overwriting ``param`` and ``acc``.

    acc <- decay*acc + (1-decay)*grad^2;  p <- p - lr*grad/(sqrt(acc)+eps)

    Each operation rounds as the expressions above do, left to right.  A
    shape mismatch or a non-finite gradient raises before anything is
    written.
    """
    if param.shape != grad.shape or param.shape != acc.shape:
        raise ValueError(
            f"shape mismatch: param {param.shape}, grad {grad.shape}, acc {acc.shape}"
        )
    if not np.isfinite(grad).all():
        raise FloatingPointError("non-finite gradient; step rejected")
    scratch = (1.0 - decay) * grad
    scratch *= grad
    acc *= decay
    acc += scratch
    np.sqrt(acc, out=scratch)
    scratch += epsilon
    step = learning_rate * grad
    step /= scratch
    param -= step


class RmsProp:
    """RMSprop over a FusionRnnModel's parameter vector (in place)."""

    def __init__(self, model: FusionRnnModel, config: TrainConfig):
        self.config = config
        self.acc = np.zeros_like(model.theta)

    def step(self, model: FusionRnnModel, grad: np.ndarray) -> None:
        """Apply one update from a gradient laid out like ``model.theta``;
        a rejected gradient leaves ``model.theta`` and ``acc`` untouched."""
        rmsprop_apply(model.theta, grad, self.acc,
                      self.config.learning_rate, RMSPROP_DECAY, RMSPROP_EPSILON)


# ---------------------------------------------------------------------------
# Data augmentation
# ---------------------------------------------------------------------------


def augment(dataset: list, factor: float, seed: int) -> list:
    """Grow a dataset to ceil(factor * n) by sampling contiguous subsequences.

    Each added sample is (x_i..x_j, z_i..z_j) of a uniformly chosen source
    sequence with 1 <= i < j <= T (so length >= 2), carrying the source
    label.  Originals are always retained, in order, at the front.  A
    target above ``MAX_AUGMENTED_SAMPLES`` is refused before any draw.
    """
    from .synth import SequenceSample  # local import to avoid a cycle

    if not 1.0 <= factor < math.inf:
        raise ValueError(f"augmentation factor must be finite and >= 1, got {factor}")
    n = len(dataset)
    target = math.ceil(factor * n)
    if target > MAX_AUGMENTED_SAMPLES:
        raise ValueError(f"augmentation factor {factor:g} would grow {n} samples to {target}, "
                         f"more than the {MAX_AUGMENTED_SAMPLES} allowed")
    if target <= n:
        return list(dataset)
    for s in dataset:
        if len(s.xs) < 2:
            raise ValueError(f"sample {s.id!r} is too short to augment (T={len(s.xs)})")
    rng = make_rng(seed)
    out = list(dataset)
    count = 0
    while len(out) < target:
        src = dataset[int(rng.integers(0, n))]
        T = len(src.xs)
        i = int(rng.integers(0, T - 1))
        j = int(rng.integers(i + 1, T))
        out.append(
            SequenceSample(
                id=f"{src.id}#aug{count}",
                xs=src.xs[i : j + 1].copy(),
                zs=src.zs[i : j + 1].copy(),
                label=src.label,
                meta={"source": src.id, "start": i, "stop": j},
            )
        )
        count += 1
    return out


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def train(dataset: list, model: FusionRnnModel, config: TrainConfig) -> TrainReport:
    """Train a copy of ``model`` on the dataset; the argument is untouched.

    Samples carry canonical label indices; they are mapped onto the model's
    own event tuple.  Each epoch takes one RMSprop step per sample, in a
    freshly shuffled order.  A non-finite loss, or a gradient that
    ``RmsProp.step`` rejects, aborts training: the report then carries the
    model as it stood after the last complete epoch, and the losses of the
    complete epochs.
    """
    config.validate()
    if not dataset:
        raise ValueError("cannot train on an empty dataset")
    model = model.copy()
    targets = [map_label_to_model(s.label, model.events) for s in dataset]
    rng = make_rng(config.seed)
    optimizer = RmsProp(model, config)
    epoch_losses: list[float] = []
    last_good = model.copy()

    for epoch in range(config.epochs):
        total = 0.0
        for idx in rng.permutation(len(dataset)):
            sample, target = dataset[int(idx)], targets[int(idx)]
            probs, tape = fusion_rnn.forward(model, sample.xs, sample.zs)
            loss = anticipation_loss(probs, target, config.loss_mode)
            try:
                if not np.isfinite(loss):
                    raise FloatingPointError("non-finite loss")
                dlogits = loss_logit_grads(probs, target, config.loss_mode)
                optimizer.step(model, fusion_rnn.backward(model, tape, dlogits))
            except FloatingPointError as err:
                log.error("epoch %d sample %s: %s; aborting", epoch, sample.id, err)
                return TrainReport(model=last_good, epoch_losses=epoch_losses, aborted=True)
            total += loss
        epoch_losses.append(total / len(dataset))
        last_good = model.copy()

    return TrainReport(model=model, epoch_losses=epoch_losses)


def map_label_to_model(canonical_label: int, model_events: tuple[str, ...]) -> int:
    """Translate a canonical label index into a model's event index."""
    from .events import EVENTS

    name = EVENTS[canonical_label]
    try:
        return model_events.index(name)
    except ValueError:
        raise ValueError(f"label {name!r} not among model events {model_events!r}") from None


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


@dataclass
class GradCheckReport:
    block_errors: dict[str, float]
    tolerance: float
    passed: bool = field(init=False)
    worst_block: str = field(init=False)

    def __post_init__(self) -> None:
        self.worst_block = max(self.block_errors, key=self.block_errors.get)
        self.passed = self.block_errors[self.worst_block] <= self.tolerance


def _block_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max deviation within a block, relative to the block's gradient scale.

    Blocks whose gradients are essentially zero (scale < 1e-6) are compared
    absolutely, since a relative measure there only amplifies finite-
    difference noise.
    """
    diff = float(np.max(np.abs(analytic - numeric))) if analytic.size else 0.0
    scale = max(
        float(np.max(np.abs(analytic))) if analytic.size else 0.0,
        float(np.max(np.abs(numeric))) if numeric.size else 0.0,
    )
    if scale < 1e-6:
        return diff
    return diff / scale


def gradient_check(
    model: FusionRnnModel,
    xs: np.ndarray,
    zs: np.ndarray,
    target: int,
    config: TrainConfig,
    eps: float = 1e-5,
    tol: float = 1e-4,
) -> GradCheckReport:
    """Compare analytic gradients of the training loss to central differences."""
    work = model.copy()

    def objective(theta: np.ndarray) -> float:
        work.theta[...] = theta
        probs, _ = fusion_rnn.forward(work, xs, zs)
        return anticipation_loss(probs, target, config.loss_mode)

    numeric = finite_diff_grad(objective, model.theta, eps)
    work.theta[...] = model.theta

    probs, tape = fusion_rnn.forward(work, xs, zs)
    dlogits = loss_logit_grads(probs, target, config.loss_mode)
    analytic = fusion_rnn.backward(work, tape, dlogits)

    errors: dict[str, float] = {}
    offset = 0
    for name, arr in fusion_rnn.param_blocks(work):
        block = slice(offset, offset + arr.size)
        errors[name] = _block_error(analytic[block], numeric[block])
        offset += arr.size
    return GradCheckReport(block_errors=errors, tolerance=tol)
