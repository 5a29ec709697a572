import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maneuverkit.aiohmm import AioHmmEnsemble, EmConfig, fit_em
from maneuverkit.anticipation import AioHmmPredictor, FusionRnnPredictor, stepwise_trajectory
from maneuverkit.events import EVENTS, straight_index
from maneuverkit.fusion_rnn import init_fusion_model
from maneuverkit.metrics import (
    SWEEP_BLOCK,
    FoldScore,
    OutcomeCounts,
    cross_validate,
    evaluate_dataset,
    f1_score,
    macro_precision_recall,
    precision_recall,
    score_outcomes,
    threshold_sweep,
)
from maneuverkit.numerics import make_rng
from maneuverkit.synth import ScenarioConfig, SequenceSample, generate
from maneuverkit.training import map_label_to_model

from test_anticipation import ScriptedPredictor, commit_step


class TestPrecisionRecall:
    def test_documented_counts(self):
        pr, re = precision_recall(OutcomeCounts(tp=8, fp=1, fpp=1, mp=2))
        assert pr == pytest.approx(0.8)
        assert re == pytest.approx(8 / 11)

    def test_perfect_counts(self):
        assert precision_recall(OutcomeCounts(tp=5)) == (1.0, 1.0)

    def test_zero_denominators_marked_undefined(self):
        pr, re = precision_recall(OutcomeCounts())
        assert pr is None and re is None
        pr, re = precision_recall(OutcomeCounts(mp=3))
        assert pr is None and re == 0.0

    def test_f1_identity(self):
        rng = make_rng(0)
        for _ in range(200):
            pr, re = rng.uniform(0.01, 1.0, 2)
            f1 = f1_score(pr, re)
            assert abs(f1 - 2 * pr * re / (pr + re)) <= 1e-12
        assert f1_score(None, 0.5) is None
        assert f1_score(0.0, 0.0) is None


class TestMacroScores:
    def test_two_maneuver_example(self):
        pr, re = macro_precision_recall(tp_m=[3, 1], p_m=[4, 2], n_m=[5, 2])
        assert pr == pytest.approx((0.75 + 0.5) / 2)
        assert pr == pytest.approx(0.625)

    def test_perfect_scores(self):
        pr, re = macro_precision_recall([4, 6], [4, 6], [4, 6])
        assert (pr, re) == (1.0, 1.0)

    def test_single_maneuver_reduces_to_ratio(self):
        pr, re = macro_precision_recall([3], [4], [6])
        assert pr == pytest.approx(0.75)
        assert re == pytest.approx(0.5)

    def test_zero_denominator_terms_excluded(self):
        pr, re = macro_precision_recall([3, 0], [4, 0], [6, 0])
        assert pr == pytest.approx(0.75)
        assert re == pytest.approx(0.5)
        pr, re = macro_precision_recall([0], [0], [0])
        assert pr is None and re is None


def scripted_dataset(rows_by_label):
    """One sample per (label, scripted trajectory) pair."""
    samples, predictor_rows = [], []
    for i, (label, rows) in enumerate(rows_by_label):
        T = len(rows)
        samples.append(
            SequenceSample(
                id=f"s{i}", xs=np.zeros((T, 6)), zs=np.zeros((T, 9)), label=EVENTS.index(label)
            )
        )
        predictor_rows.append(rows)
    return samples, predictor_rows


class SequencePredictor:
    """Scripted per-sample trajectories, advanced per evaluate() call order."""

    def __init__(self, tables):
        self.tables = [np.asarray(t, float) for t in tables]
        self.events = EVENTS
        self.calls = -1

    def begin(self):
        self.calls += 1
        return 0

    def step(self, state, x, z):
        return state + 1, self.tables[self.calls][state]

    trajectory = stepwise_trajectory


class CyclingPredictor(SequencePredictor):
    """Scripted trajectories that start over after the last sample."""

    def begin(self):
        self.calls = (self.calls + 1) % len(self.tables)
        return 0


def row_normalized(confusion):
    """Confusion rows divided by their sums (zero rows stay zero)."""
    sums = confusion.sum(axis=1, keepdims=True)
    out = np.zeros_like(confusion, dtype=float)
    np.divide(confusion, sums, out=out, where=sums > 0)
    return out


def confident(label, p=0.9):
    row = [(1 - p) / 4] * 5
    row[EVENTS.index(label)] = p
    return row


class TestEvaluateDataset:
    def test_confusion_diagonal_row_normalized_is_precision(self):
        # 3 correct left_lane, 1 left_lane predicted as right_lane,
        # 2 correct right_turn, 1 straight predicted as left_lane (fpp)
        plan = [
            ("left_lane", [confident("left_lane")] * 4),
            ("left_lane", [confident("left_lane")] * 4),
            ("left_lane", [confident("left_lane")] * 4),
            ("left_lane", [confident("right_lane")] * 4),
            ("right_turn", [confident("right_turn")] * 4),
            ("right_turn", [confident("right_turn")] * 4),
            ("straight", [confident("left_lane")] * 4),
        ]
        samples, tables = scripted_dataset(plan)
        ev = evaluate_dataset(SequencePredictor(tables), samples, 0.7)
        assert ev.counts == OutcomeCounts(tp=5, fp=1, fpp=1, mp=0)
        norm = row_normalized(ev.confusion)
        tp_m = np.array([ev.confusion[i, i] for i in range(4)])
        p_m = ev.confusion[:4].sum(axis=1)
        for i in range(4):
            if p_m[i] > 0:
                assert norm[i, i] == pytest.approx(tp_m[i] / p_m[i])
        macro_pr, _ = ev.macro_scores()
        diag = [norm[i, i] for i in range(4) if p_m[i] > 0]
        assert macro_pr == pytest.approx(np.mean(diag))

    def test_session_and_macro_agree_on_single_maneuver_corpus(self):
        # only left_lane events, all predictions correct or missed: both
        # definitions reduce to the same two ratios
        plan = [
            ("left_lane", [confident("left_lane")] * 3),
            ("left_lane", [confident("left_lane")] * 3),
            ("left_lane", [[0.2] * 5] * 3),  # missed
        ]
        samples, tables = scripted_dataset(plan)
        ev = evaluate_dataset(SequencePredictor(tables), samples, 0.7)
        macro_pr, macro_re = ev.macro_scores()
        assert ev.precision == pytest.approx(macro_pr)
        assert ev.recall == pytest.approx(macro_re)

    def test_time_to_maneuver_averages_true_predictions_only(self):
        plan = [
            ("left_lane", [confident("left_lane")] * 5),   # commit at 1, ttm 4
            ("right_lane", [confident("left_lane")] * 5),  # fp, no ttm
            ("straight", [confident("left_lane")] * 5),    # fpp, no ttm
        ]
        samples, tables = scripted_dataset(plan)
        ev = evaluate_dataset(SequencePredictor(tables), samples, 0.7)
        assert ev.ttm_steps == [4]
        assert ev.mean_ttm_steps == pytest.approx(4.0)


class TestThresholdSweep:
    def test_structure_and_argmax_contract(self):
        data = generate(ScenarioConfig(seed=20), 40)
        rows = [[0.04, 0.84, 0.04, 0.04, 0.04]]
        predictor = ScriptedPredictor(rows)
        grid = [round(0.1 * i, 2) for i in range(2, 10)]
        sweep = threshold_sweep(predictor, data, grid)
        assert len(sweep.points) == 8
        best = sweep.best
        for p in sweep.points:
            if p.f1 is not None and best.f1 is not None:
                assert best.f1 >= p.f1

    def test_perfect_predictor_saturates_below_confidence(self):
        plan = [(name, [confident(name, p=0.9)] * 4) for name in EVENTS if name != "straight"]
        plan.append(("straight", [[0.2] * 5] * 4))
        samples, tables = scripted_dataset(plan)

        grid = [0.3, 0.5, 0.7]
        sweep = threshold_sweep(CyclingPredictor(tables), samples, grid)
        for p in sweep.points:
            assert p.f1 == pytest.approx(1.0)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_every_point_equals_evaluate_dataset(self, data):
        n = data.draw(st.integers(1, 12))
        plan = []
        for _ in range(n):
            T = data.draw(st.integers(1, 8))
            row = st.lists(st.integers(0, 10).map(lambda i: i / 10), min_size=5, max_size=5)
            table = data.draw(st.lists(row, min_size=T, max_size=T))
            plan.append((data.draw(st.sampled_from(EVENTS)), table))
        samples, tables = scripted_dataset(plan)
        grid = [0.1, 0.3, 0.5, 0.6, 0.9, 1.0]
        sweep = threshold_sweep(CyclingPredictor(tables), samples, grid)
        for point in sweep.points:
            ev = evaluate_dataset(CyclingPredictor(tables), samples, point.p_th)
            assert (point.precision, point.recall, point.f1, point.mean_ttm_steps) == (
                ev.precision, ev.recall, ev.f1, ev.mean_ttm_steps
            )

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            threshold_sweep(ScriptedPredictor([[0.2] * 5]), [], [])

    @pytest.mark.parametrize("family", ["aiohmm", "fusion", "concat"])
    def test_blocked_sweep_equals_stepwise_scoring(self, family):
        # More samples than two blocks hold, of mixed lengths, with weak cues
        # so that the thresholds commit differently.
        weak = {"cue_strength": 1.0, "noise_sigma": 0.5}
        dataset = generate(ScenarioConfig(seed=5, **weak), 2 * SWEEP_BLOCK + 7)
        if family == "aiohmm":
            train = generate(ScenarioConfig(seed=6, **weak), 100)
            config = EmConfig(states=2, max_iter=3, seed=1)
            models = {e: fit_em([(s.xs, s.zs) for s in train if s.label == k], config)[0]
                      for k, e in enumerate(EVENTS)}
            predictor = AioHmmPredictor(AioHmmEnsemble(events=EVENTS, models=models))
        else:
            model = init_fusion_model(family, 6, 9, 4, EVENTS, make_rng(7))
            model.theta[...] *= 3.0
            predictor = FusionRnnPredictor(model)
        grid = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
        points = threshold_sweep(predictor, dataset, grid).points
        references = stepwise_evals(predictor, dataset, grid)
        assert points == stepwise_sweep_points(references, grid)
        assert len({(p.precision, p.recall) for p in points}) > 1
        for g, reference in zip(grid, references):
            ev = evaluate_dataset(predictor, dataset, g)
            assert (ev.counts, ev.ttm_steps) == (reference.counts, reference.ttm_steps)
            np.testing.assert_array_equal(ev.confusion, reference.confusion)


def stepwise_evals(predictor, dataset, grid):
    """The evaluation at each threshold, scored from each sample's per-step
    trajectory with the one-sequence commit rule."""
    straight = straight_index(predictor.events)
    actuals = [map_label_to_model(s.label, predictor.events) for s in dataset]
    trajs = [stepwise_trajectory(predictor, s.xs[None], s.zs[None], [s.length])[0] for s in dataset]
    evals = []
    for g in grid:
        decisions = []
        for traj in trajs:
            t_pred, maneuver = commit_step(traj, straight, g)
            decisions.append((straight, None) if t_pred is None else (maneuver, len(traj) - t_pred))
        evals.append(score_outcomes(predictor.events, decisions, actuals))
    return evals


def stepwise_sweep_points(evals, grid):
    """The sweep points of :func:`stepwise_evals`."""
    return [FoldScore(ev.precision, ev.recall, ev.f1, ev.mean_ttm_steps, g) for g, ev in zip(grid, evals)]


class TestCrossValidate:
    def test_identical_fold_scores_have_zero_stderr(self):
        from maneuverkit.metrics import EvalReport, FoldScore

        report = EvalReport(
            events=EVENTS,
            folds=[FoldScore(0.9, 0.8, 0.85, 2.5, 0.7) for _ in range(5)],
            confusion=np.zeros((5, 5)),
        )
        mean, stderr = report.f1_mean_stderr()
        assert mean == pytest.approx(0.85)
        assert stderr == 0.0

    def test_training_folds_never_contain_test_samples(self):
        data = generate(ScenarioConfig(seed=22), 30)
        seen = []

        def trainer(train_samples, fold_idx):
            seen.append({s.id for s in train_samples})
            return ScriptedPredictor([[0.2] * 5])

        report = cross_validate(data, 5, trainer, seed=2, grid=[0.5])
        all_ids = {s.id for s in data}
        assert len(report.folds) == 5
        for train_ids in seen:
            test_ids = all_ids - train_ids
            assert len(test_ids) == 6
            assert train_ids | test_ids == all_ids

    def test_never_committing_folds_count_in_the_confusion(self):
        # A uniform row never crosses p_th, so F1 is undefined in every fold
        # and every test sample is predicted straight.
        data = generate(ScenarioConfig(seed=23), 30)
        report = cross_validate(
            data, 3, lambda train, k: ScriptedPredictor([[0.2] * 5]), seed=2, grid=[0.5, 0.7]
        )
        assert [(f.f1, f.p_th) for f in report.folds] == [(None, 0.5)] * 3
        expected = np.zeros((5, 5))
        expected[EVENTS.index("straight")] = np.bincount([s.label for s in data], minlength=5)
        np.testing.assert_array_equal(report.confusion, expected)

    def test_exact_stderr_formula(self):
        values = [0.8, 0.9, 1.0, 0.7, 0.6]
        from maneuverkit.metrics import EvalReport, FoldScore

        report = EvalReport(
            events=EVENTS,
            folds=[FoldScore(v, v, v, 2.0, 0.5) for v in values],
            confusion=np.zeros((5, 5)),
        )
        mean, stderr = report.f1_mean_stderr()
        assert mean == pytest.approx(np.mean(values))
        assert stderr == pytest.approx(np.std(values, ddof=1) / np.sqrt(5))
