"""Evaluation: outcome counts, both precision/recall definitions, confusion
matrices, threshold sweeps, and cross-validated reporting.

Session-outcome scores follow the prediction protocol: Pr = tp/(tp+fp+fpp)
and Re = tp/(tp+fp+mp), where fpp counts maneuver predictions during
straight driving and mp counts maneuvers that passed unpredicted.  The
macro scores average per-maneuver precision TP_m/P_m and recall TP_m/N_m
over the maneuver classes, excluding straight (predicting straight is the
default, not a claim).

Undefined ratios (zero denominators) surface as None, never as silent
zeros: a sweep that silently zeroed empty cells would distort the argmax.

Every evaluation walks the dataset in the zero-padded blocks of
``SWEEP_BLOCK`` held-out sequences that :func:`padded_blocks` yields, so the
padded arrays stay a fixed size however large the dataset.
``evaluate_dataset`` makes one ``anticipate`` call per block, and a
threshold sweep one ``trajectory`` call per block, whose commitments it
replays at every threshold; both score through :func:`score_outcomes` and
stop at the first sample whose probabilities are not finite.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .anticipation import (
    AnticipationResult, Predictor, anticipate, check_threshold, first_commits, trajectory,
)
from .events import straight_index
from .numerics import Padded, pad_sequences
from .synth import SequenceSample, split_folds
from .training import map_label_to_model

log = logging.getLogger(__name__)

SWEEP_BLOCK = 32  # held-out sequences per padded trajectory call


@dataclass
class OutcomeCounts:
    tp: int = 0
    fp: int = 0
    fpp: int = 0
    mp: int = 0


def precision_recall(c: OutcomeCounts) -> tuple[float | None, float | None]:
    """Session-outcome precision and recall; None marks a 0/0 ratio."""
    denom_p = c.tp + c.fp + c.fpp
    denom_r = c.tp + c.fp + c.mp
    pr = c.tp / denom_p if denom_p > 0 else None
    re = c.tp / denom_r if denom_r > 0 else None
    return pr, re


def f1_score(pr: float | None, re: float | None) -> float | None:
    if pr is None or re is None or pr + re == 0.0:
        return None
    return 2.0 * pr * re / (pr + re)


def macro_precision_recall(
    tp_m: np.ndarray, p_m: np.ndarray, n_m: np.ndarray
) -> tuple[float | None, float | None]:
    """Unweighted per-maneuver means of TP_m/P_m and TP_m/N_m.

    The arrays cover maneuver classes only (straight already excluded).
    Terms with a zero denominator are dropped with a warning; if every term
    is undefined the score is None.
    """
    tp_m = np.asarray(tp_m, dtype=float)
    p_m = np.asarray(p_m, dtype=float)
    n_m = np.asarray(n_m, dtype=float)

    def mean_ratio(num: np.ndarray, den: np.ndarray, what: str) -> float | None:
        ok = den > 0
        if not np.all(ok):
            log.warning("%d %s term(s) undefined (zero denominator); excluded", int((~ok).sum()), what)
        if not np.any(ok):
            return None
        return float(np.mean(num[ok] / den[ok]))

    return mean_ratio(tp_m, p_m, "precision"), mean_ratio(tp_m, n_m, "recall")


@dataclass
class DatasetEval:
    """Evaluation of one predictor at one threshold on one dataset.

    The confusion matrix is (K, K) with rows = predicted event and columns
    = actual event, in the predictor's event order (straight last); its
    row-normalized diagonal is the per-maneuver precision.
    """

    events: tuple[str, ...]
    counts: OutcomeCounts
    confusion: np.ndarray
    ttm_steps: list[int] = field(default_factory=list)

    @property
    def precision(self) -> float | None:
        return precision_recall(self.counts)[0]

    @property
    def recall(self) -> float | None:
        return precision_recall(self.counts)[1]

    @property
    def f1(self) -> float | None:
        return f1_score(*precision_recall(self.counts))

    @property
    def mean_ttm_steps(self) -> float | None:
        """Average time-to-maneuver over true predictions only."""
        if not self.ttm_steps:
            return None
        return float(np.mean(self.ttm_steps))

    def macro_scores(self) -> tuple[float | None, float | None]:
        straight = straight_index(self.events)
        keep = [i for i in range(len(self.events)) if i != straight]
        tp_m = np.array([self.confusion[i, i] for i in keep])
        p_m = np.array([self.confusion[i, :].sum() for i in keep])
        n_m = np.array([self.confusion[:, i].sum() for i in keep])
        return macro_precision_recall(tp_m, p_m, n_m)


def score_outcomes(
    events: tuple[str, ...],
    decisions: list[tuple[int, int | None]],
    actuals: list[int],
) -> DatasetEval:
    """Score one decision per sample against its actual event index.

    A decision is (predicted event index, time-to-maneuver steps or None),
    with straight as the prediction when nothing was committed to.
    """
    K = len(events)
    straight = straight_index(events)
    counts = OutcomeCounts()
    confusion = np.zeros((K, K))
    ttm: list[int] = []
    for (predicted, ttm_steps), actual in zip(decisions, actuals):
        confusion[predicted, actual] += 1
        if actual != straight:
            if predicted == actual:
                counts.tp += 1
                ttm.append(ttm_steps)
            elif predicted != straight:
                counts.fp += 1
            else:
                counts.mp += 1
        elif predicted != straight:
            counts.fpp += 1
    return DatasetEval(events=events, counts=counts, confusion=confusion, ttm_steps=ttm)


def padded_blocks(dataset: list[SequenceSample]) -> Iterator[Padded]:
    """The dataset's (xs, zs) streams in order, as zero-padded blocks of up
    to ``SWEEP_BLOCK`` samples."""
    for lo in range(0, len(dataset), SWEEP_BLOCK):
        yield pad_sequences([(s.xs, s.zs) for s in dataset[lo : lo + SWEEP_BLOCK]])


def check_finite(samples: list[SequenceSample], trajectories: list[np.ndarray]) -> None:
    """Raise a ValueError naming the first sample, and its 1-based step, whose
    real (T, K) rows are not finite (a finite but extreme record can overflow
    a model).  This check is the guard, so the walks that call it ignore
    NumPy's overflow and invalid-value warnings."""
    if trajectories and not np.isfinite(np.concatenate(trajectories)).all():
        i = next(i for i, probs in enumerate(trajectories) if not np.isfinite(probs).all())
        step = int(np.isfinite(trajectories[i]).all(axis=1).argmin()) + 1
        raise ValueError(f"sample {samples[i].id!r} step {step}: the probabilities are not finite")


def anticipate_dataset(
    predictor: Predictor, dataset: list[SequenceSample], p_th: float
) -> list[AnticipationResult]:
    """The anticipation walk's result for every sample, in dataset order,
    from one ``anticipate`` call per padded block."""
    with np.errstate(over="ignore", invalid="ignore"):
        results = [r for xs, zs, lengths in padded_blocks(dataset)
                   for r in anticipate(predictor, xs, zs, p_th, lengths)]
    check_finite(dataset, [r.trajectory for r in results])
    return results


def evaluate_dataset(
    predictor: Predictor, dataset: list[SequenceSample], p_th: float
) -> DatasetEval:
    """Run the anticipation walk on every sample and score the outcomes."""
    return score_outcomes(
        predictor.events,
        [(r.maneuver, r.time_to_maneuver_steps) for r in anticipate_dataset(predictor, dataset, p_th)],
        [map_label_to_model(s.label, predictor.events) for s in dataset],
    )


@dataclass
class FoldScore:
    precision: float | None
    recall: float | None
    f1: float | None
    mean_ttm_steps: float | None
    p_th: float


@dataclass
class SweepResult:
    points: list[FoldScore]
    best_index: int | None

    @property
    def best(self) -> FoldScore | None:
        return None if self.best_index is None else self.points[self.best_index]


def threshold_sweep(
    predictor: Predictor, dataset: list[SequenceSample], grid: list[float]
) -> SweepResult:
    """Evaluate every threshold in the grid and flag the best-F1 point.

    Trajectories are computed once per sample, one padded block per
    ``trajectory`` call; each threshold only replays the commitment rule
    over every block at once.  Ties on F1 go to the lowest threshold.
    """
    if len(grid) == 0:
        raise ValueError("threshold grid must be nonempty")
    for g in grid:
        check_threshold(g)
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = [(trajectory(predictor, *block), block.lengths) for block in padded_blocks(dataset)]
    check_finite(dataset, [p[:n] for probs, lengths in blocks for p, n in zip(probs, lengths.tolist())])
    actuals = [map_label_to_model(s.label, predictor.events) for s in dataset]
    straight = straight_index(predictor.events)
    points = []
    for g in grid:
        decisions = []
        for probs, lengths in blocks:
            steps, maneuvers = first_commits(probs, straight, g, lengths)
            decisions += [(m, n - t) if t else (straight, None)
                          for t, m, n in zip(steps.tolist(), maneuvers.tolist(), lengths.tolist())]
        ev = score_outcomes(predictor.events, decisions, actuals)
        points.append(FoldScore(ev.precision, ev.recall, ev.f1, ev.mean_ttm_steps, g))
    defined = [i for i, p in enumerate(points) if p.f1 is not None]
    best = max(defined, key=lambda i: points[i].f1) if defined else None
    return SweepResult(points=points, best_index=best)


@dataclass
class EvalReport:
    """Cross-validated scores: per-fold rows plus mean and standard error."""

    events: tuple[str, ...]
    folds: list[FoldScore]
    confusion: np.ndarray  # summed over folds, at each fold's best threshold

    def _agg(self, values: list[float | None]) -> tuple[float | None, float | None]:
        defined = [v for v in values if v is not None]
        if len(defined) < len(values):
            log.warning("%d fold value(s) undefined; aggregating the rest", len(values) - len(defined))
        if not defined:
            return None, None
        mean = float(np.mean(defined))
        if len(defined) < 2:
            return mean, 0.0
        stderr = float(np.std(defined, ddof=1) / np.sqrt(len(defined)))
        return mean, stderr

    def precision_mean_stderr(self) -> tuple[float | None, float | None]:
        return self._agg([f.precision for f in self.folds])

    def recall_mean_stderr(self) -> tuple[float | None, float | None]:
        return self._agg([f.recall for f in self.folds])

    def f1_mean_stderr(self) -> tuple[float | None, float | None]:
        return self._agg([f.f1 for f in self.folds])

    def ttm_mean_stderr(self) -> tuple[float | None, float | None]:
        return self._agg([f.mean_ttm_steps for f in self.folds])


def cross_validate(
    dataset: list[SequenceSample],
    k: int,
    trainer,
    seed: int,
    grid: list[float],
) -> EvalReport:
    """k-fold evaluation with per-fold threshold selection.

    ``trainer(train_samples, fold_index) -> Predictor`` owns training (and
    any augmentation of the training folds); test folds are passed through
    verbatim.  Each fold is scored at its own best-F1 threshold from the
    grid, matching how headline numbers are tabulated.  A fold with no
    defined best point keeps a row of None scores at ``grid[0]``, and its
    decisions at that threshold still enter the summed confusion matrix.
    """
    folds = split_folds(dataset, k, seed)
    scores: list[FoldScore] = []
    confusion_total: np.ndarray | None = None
    for fold_idx, test in enumerate(folds):
        train_samples = [s for j, f in enumerate(folds) if j != fold_idx for s in f]
        predictor = trainer(train_samples, fold_idx)
        best = threshold_sweep(predictor, test, grid).best
        p_th = grid[0] if best is None else best.p_th
        ev = evaluate_dataset(predictor, test, p_th)
        if best is None:
            log.warning("fold %d: F1 undefined at every threshold", fold_idx)
            scores.append(FoldScore(None, None, None, None, p_th))
        else:
            scores.append(FoldScore(ev.precision, ev.recall, ev.f1, ev.mean_ttm_steps, p_th))
        confusion_total = ev.confusion if confusion_total is None else confusion_total + ev.confusion
    if confusion_total is None:
        raise ValueError("cross-validation produced no folds")
    return EvalReport(events=predictor.events, folds=scores, confusion=confusion_total)

