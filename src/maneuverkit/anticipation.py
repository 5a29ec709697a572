"""Streaming threshold-based event prediction.

A predictor turns a growing prefix of the two feature streams into a
probability vector over events at every step.  The anticipation walk takes
the argmax at each step and commits to the first non-straight event whose
probability strictly exceeds the threshold; otherwise it concludes straight
driving.  Ties in the argmax resolve to the lowest event index.
:func:`first_commits` applies this rule to any stack of trajectories, where
a crossing in a sequence's padding is no commitment, and :func:`anticipate`
walks one sequence or a padded block from one ``trajectory`` pass.

``CommitTracker`` applies the same rule to a long timeline with known event
onsets, one step at a time: after committing, it sticks with its prediction
and stays silent for 5 seconds (7 steps of 0.8 s) or until an event starts,
whichever comes first, and scores each commitment/onset as a true, false,
false-positive, or missed prediction.  ``run_session`` and the CLI's
``anticipate --stream`` both drive it.

A predictor gives probabilities two ways: ``step`` advances one stream by
one step, for ``anticipate --stream``, and ``trajectory`` returns every
step's row for a zero-padded block of whole sequences at once, for
evaluation.  :func:`trajectory` is the entry point for both shapes: one
(T, ·) sequence gives (T, K), and a (B, T, ·) block with per-sequence
lengths gives (B, T, K), whose rows past a sequence's end are padding.

``FusionRnnPredictor`` streams either network arch through the cell inputs
and the readout of :mod:`~maneuverkit.fusion_rnn` and the lockstep step of
:mod:`~maneuverkit.lstm`, so it holds no arch logic or head arithmetic of
its own.  It runs a block through the same step over a cell-major
(C, B, H) state, keeping only the hidden states, and reads them out once.
``AioHmmPredictor`` streams the per-class model ensemble through the
log-space forward step of :mod:`~maneuverkit.aiohmm`, with all classes
stacked into one filter, and runs a block through the E-step's own block
forward pass, :func:`~maneuverkit.aiohmm.block_forward`.  Both block paths
match streaming each sequence through ``step`` to within rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Protocol

import numpy as np

from .aiohmm import (
    AioHmmEnsemble,
    AioHmmModel,
    block_forward,
    emission_factors,
    emission_logprobs,
    log_forward_step,
    log_transitions,
    transition_inputs,
)
from .events import straight_index
from .fusion_rnn import FusionRnnModel, cell_inputs, readout
from .lstm import input_projections, lstm_step, stack_recurrent
from .numerics import as_block, softmax

STEP_SECONDS = 0.8
STICK_SECONDS = 5.0
STICK_STEPS = math.ceil(STICK_SECONDS / STEP_SECONDS)  # 7


class Predictor(Protocol):
    """Per-step probability source over a fixed event tuple: ``begin`` and
    ``step`` stream one sequence, and ``trajectory`` scores a checked
    (B, T, ·) block with its lengths, as :func:`trajectory` describes."""

    events: tuple[str, ...]

    def begin(self) -> Any: ...

    def step(self, state: Any, x: np.ndarray, z: np.ndarray) -> tuple[Any, np.ndarray]: ...

    def trajectory(self, xs: np.ndarray, zs: np.ndarray, lengths: np.ndarray) -> np.ndarray: ...


class FusionRnnPredictor:
    """Streams a fusion or concat network one step at a time.

    The constructor takes a snapshot of the model and stacks its cells'
    recurrent and peephole weights once; later changes to the model's
    weights are not seen by the predictor.  The state is the cells' (C, H)
    hidden and memory states and carries over between steps, so evaluating
    the prefix at step t costs one :func:`~maneuverkit.lstm.lstm_step` for
    all cells, not a recomputation from t=1.  Each step feeds the cells
    through :func:`~maneuverkit.fusion_rnn.cell_inputs` and reads them out
    through :func:`~maneuverkit.fusion_rnn.readout`, as the forward pass
    does.  A block's trajectory runs the same step over (C, B, H) states,
    projecting each step's (B, ·) rows, keeps only the hidden states and
    reads them out once; padding never reaches a real row.
    """

    def __init__(self, model: FusionRnnModel):
        self.model = model.copy()
        self.events = model.events
        self._recurrent = stack_recurrent(self.model.cells)

    def begin(self):
        zeros = np.zeros((len(self.model.cells), self.model.hidden))
        return zeros, zeros  # (h, c)

    def step(self, state, x: np.ndarray, z: np.ndarray):
        m = self.model
        a = input_projections(m.cells, cell_inputs(m, x, z))
        _, c, _, h = lstm_step(*self._recurrent, a, *state)
        return (h, c), readout(m, h)[-1]

    def trajectory(self, xs: np.ndarray, zs: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        m = self.model
        B, T = xs.shape[:2]
        h = c = np.zeros((len(m.cells), B, m.hidden))
        hs = np.empty((T,) + h.shape)  # (T, C, B, H)
        for t in range(T):
            a = input_projections(m.cells, cell_inputs(m, xs[:, t], zs[:, t]))
            _, c, _, h = lstm_step(*self._recurrent, a, h, c)
            hs[t] = h
        return readout(m, hs.transpose(2, 0, 1, 3))[-1]


class AioHmmPredictor:
    """Streams the per-class model ensemble as one stacked log-space filter.

    The constructor takes a snapshot of the ensemble's parameters: every
    class's states become one K*S-state emission model whose inverse
    Cholesky factors are computed once and whose variant, the ensemble's one
    variant, sets the transition inputs; the K classes' transition weights
    and log initial probabilities are stacked into (K, S, S, dt) and (K, S)
    arrays, which the ensemble's one state count allows.  Later changes to
    the ensemble's models are not seen by the predictor.

    A step is one emission call for all classes, one
    :func:`~maneuverkit.aiohmm.log_transitions` over the stacked weights and
    one :func:`~maneuverkit.aiohmm.log_forward_step`, the kernels of the EM
    forward pass; the class posterior is the shifted softmax of the prefix
    log-likelihoods plus the log prior.  Working in log space keeps the
    filter finite even for classes whose model assigns essentially no
    density to the observed prefix.

    A block's trajectory is one :func:`~maneuverkit.aiohmm.block_forward`
    over the (K, B) chains; the prefix log-likelihood at step t is the
    log-sum-exp of the alphas at t, reduced over their time-major memory,
    and a padding row repeats its sequence's last real one.
    """

    def __init__(self, ensemble: AioHmmEnsemble):
        self.events = ensemble.events
        models = [ensemble.models[e] for e in self.events]
        mu = np.concatenate([m.mu for m in models])
        a = np.concatenate([m.a for m in models])
        n = mu.shape[0]
        self._emission = AioHmmModel(
            variant=models[0].variant, mu=mu, a=a, b=np.concatenate([m.b for m in models]),
            sigma=np.concatenate([m.sigma for m in models]),
            w=np.zeros((n, n, a.shape[1])), pi=np.full(n, 1.0 / n),  # transitions unused
        )
        self._factors = emission_factors(self._emission.sigma)
        self._w = np.stack([m.w for m in models])  # (K, S, S, dt)
        with np.errstate(divide="ignore"):  # pi and prior entries may be exactly zero
            self._log_pi = np.log(np.stack([m.pi for m in models]))  # (K, S)
            self._log_prior = np.log(ensemble.prior)

    def begin(self):
        return None  # after a step: ((K, S) log alphas, z)

    def step(self, state, x: np.ndarray, z: np.ndarray):
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        z_prev = np.zeros_like(z) if state is None else state[1]
        logb = emission_logprobs(
            self._emission, x[None, :], z[None, :], z_prev=z_prev[None, :], factors=self._factors
        )[0].reshape(self._log_pi.shape)
        if state is None:
            log_alpha = self._log_pi + logb
        else:
            log_a = log_transitions(self._w, transition_inputs(self._emission, x[None, :]))[..., 0]
            log_alpha = log_forward_step(state[0], log_a, logb)
        logliks = np.logaddexp.reduce(log_alpha, axis=1)
        return (log_alpha, z), softmax(logliks + self._log_prior)

    def trajectory(self, xs: np.ndarray, zs: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        _, _, la = block_forward(self._emission, self._w, self._log_pi, xs, zs, lengths, self._factors)
        logliks = np.logaddexp.reduce(la, axis=-1).transpose(1, 2, 0)  # (B, T, K)
        return softmax(logliks + self._log_prior)


@dataclass
class AnticipationResult:
    maneuver: int                       # committed event index; straight if none
    t_pred: int | None                  # 1-based commitment step
    time_to_maneuver_steps: int | None  # T - t_pred
    trajectory: np.ndarray              # (T, K) per-step probabilities

    @property
    def time_to_maneuver_seconds(self) -> float | None:
        if self.time_to_maneuver_steps is None:
            return None
        return self.time_to_maneuver_steps * STEP_SECONDS


def trajectory(
    predictor: Predictor, xs: np.ndarray, zs: np.ndarray, lengths: np.ndarray | None = None
) -> np.ndarray:
    """Per-step probabilities over the growing prefix: (T, K) for one
    (T, ·) sequence, or (B, T, K) for a zero-padded (B, T, ·) block whose
    sequences run ``lengths`` steps each (all T when omitted).  Rows past a
    sequence's end are padding."""
    block, single = as_block(xs, zs, lengths)
    out = predictor.trajectory(*block)
    return out[0] if single else out


def check_threshold(p_th: float) -> float:
    """Return ``p_th`` if it lies in (0, 1], else raise ValueError."""
    if not 0.0 < p_th <= 1.0:
        raise ValueError(f"threshold must lie in (0, 1], got {p_th}")
    return p_th


def _crossings(
    probs: np.ndarray, straight: int, p_th: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per probability row (last axis): the argmax event, and whether it is a
    maneuver whose probability strictly exceeds p_th, which broadcasts
    against the rows.  Ties in the argmax go to the lowest event index."""
    best = probs.argmax(axis=-1)
    return best, (best != straight) & (probs.max(axis=-1) > p_th)


def first_commits(
    probs: np.ndarray, straight: int, p_th: float | list[float], lengths: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per (..., T, K) trajectory, with any leading axes: the 1-based first
    step whose argmax is a maneuver with probability > p_th (0 if none), and
    the argmax at that step.  With ``lengths``, one per trajectory, a
    crossing at or past a trajectory's end lies in its padding and is no
    commitment.  The inequality is strict, so p_th = 1.0 never commits.

    ``p_th`` may also be a grid of thresholds, whose axis then leads both
    results: every threshold is replayed from one argmax and max per row."""
    grid = np.asarray(p_th, dtype=float)
    for g in grid.ravel().tolist():
        check_threshold(g)
    best, hit = _crossings(probs, straight, grid.reshape(grid.shape + (1,) * (probs.ndim - 1)))
    if lengths is not None:
        hit &= np.arange(hit.shape[-1]) < np.asarray(lengths)[..., None]
    first = hit.argmax(axis=-1)
    event = np.take_along_axis(np.broadcast_to(best, hit.shape), first[..., None], axis=-1)[..., 0]
    return np.where(hit.any(axis=-1), first + 1, 0), event


def anticipate(
    predictor: Predictor, xs: np.ndarray, zs: np.ndarray, p_th: float,
    lengths: np.ndarray | None = None,
) -> AnticipationResult | list[AnticipationResult]:
    """Run the threshold walk over the shapes :func:`trajectory` takes: one
    result for a (T, ·) sequence, or a list of one result per sequence of a
    zero-padded (B, T, ·) block, each with its trajectory cut to its
    sequence's length.  The block makes one ``trajectory`` pass and one
    :func:`first_commits` replay."""
    (xs, zs, lengths), single = as_block(xs, zs, lengths)
    probs = predictor.trajectory(xs, zs, lengths)
    straight = straight_index(predictor.events)
    steps, events = first_commits(probs, straight, p_th, lengths)
    results = [
        AnticipationResult(
            maneuver=e if t else straight, t_pred=t or None,
            time_to_maneuver_steps=n - t if t else None, trajectory=traj[:n],
        )
        for traj, t, e, n in zip(probs, steps.tolist(), events.tolist(), lengths.tolist())
    ]
    return results[0] if single else results


@dataclass
class PredictionEvent:
    """One scored outcome from a session run."""

    kind: str                 # "tp" | "fp" | "fpp" | "mp"
    step: int                 # 1-based commitment step (onset step for mp)
    predicted: int | None     # committed event index, None for mp
    actual: int | None        # onset event index, None for fpp
    ttm_steps: int | None     # onset - commitment, tp only


class CommitTracker:
    """The stick rule over a timeline, fed one step at a time.

    At step t, with no commitment pending, the tracker commits to the
    argmax event if it is a maneuver whose probability exceeds p_th.  A
    pending commitment is then resolved by an onset at t (same event: a
    true prediction with time-to-maneuver onset - commitment; another event:
    a false one), or after STICK_STEPS steps without an onset (a false
    positive).  An onset with nothing pending is a missed prediction.  So
    an onset step never commits while a commitment is pending, and one made
    on the onset step itself is resolved by that onset at once; either way
    the next commitment can come no earlier than the following step.
    """

    def __init__(self, events: tuple[str, ...], p_th: float):
        self.straight = straight_index(events)
        self.p_th = check_threshold(p_th)
        self.pending: tuple[int, int] | None = None  # (commit step, event index)

    def step(
        self, t: int, probs: np.ndarray, onset: int | None
    ) -> tuple[int | None, PredictionEvent | None]:
        """Feed the probabilities of 1-based step t and the index of the
        event starting there, if any.  Returns the event committed to at
        this step (or None) and the outcome this step closes (or None)."""
        commit = None
        if self.pending is None:
            best, hit = _crossings(probs, self.straight, self.p_th)
            if hit:
                commit = int(best)
                self.pending = (t, commit)
        if onset is not None:
            if self.pending is None:
                missed = PredictionEvent(kind="mp", step=t, predicted=None, actual=onset, ttm_steps=None)
                return commit, missed
            commit_t, predicted = self.pending
            self.pending = None
            tp = predicted == onset
            return commit, PredictionEvent(
                kind="tp" if tp else "fp", step=commit_t, predicted=predicted, actual=onset,
                ttm_steps=t - commit_t if tp else None,
            )
        if self.pending is not None and t - self.pending[0] >= STICK_STEPS:
            return commit, self.close()
        return commit, None

    def close(self) -> PredictionEvent | None:
        """End the timeline: a commitment still pending is a false positive."""
        if self.pending is None:
            return None
        commit_t, predicted = self.pending
        self.pending = None
        return PredictionEvent(kind="fpp", step=commit_t, predicted=predicted, actual=None, ttm_steps=None)


def run_session(
    predictor: Predictor,
    xs: np.ndarray,
    zs: np.ndarray,
    onsets: list[tuple[int, int]],
    p_th: float,
) -> list[PredictionEvent]:
    """Score a timeline with known event onsets under the stick rule.

    ``onsets`` is a list of (1-based step, event index), strictly increasing
    in step, each the onset of a maneuver: a ``straight`` onset would count
    as a missed maneuver, so it raises ValueError.  The outcomes are those
    of :class:`CommitTracker` fed the timeline's trajectory, in the order
    they close.
    """
    tracker = CommitTracker(predictor.events, p_th)
    T = len(xs)
    steps = [s for s, _ in onsets]
    if any(b <= a for a, b in zip(steps, steps[1:])):
        raise ValueError("onsets must be strictly increasing; overlapping onsets are rejected")
    if any(not 1 <= s <= T for s in steps):
        raise ValueError("onset steps must lie within the timeline")
    if any(event == tracker.straight for _, event in onsets):
        raise ValueError(f"onset events must be maneuvers, not {predictor.events[tracker.straight]!r}")
    onset_at = dict(onsets)

    outcomes = [tracker.step(t, probs, onset_at.get(t))[1]
                for t, probs in enumerate(trajectory(predictor, xs, zs), 1)]
    outcomes.append(tracker.close())
    return [e for e in outcomes if e is not None]
