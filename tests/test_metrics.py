import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maneuverkit.aiohmm import AioHmmEnsemble, EmConfig, fit_em
from maneuverkit.anticipation import AioHmmPredictor, FusionRnnPredictor
from maneuverkit.events import EVENTS, map_label_to_model, straight_index
from maneuverkit.fusion_rnn import init_fusion_model
from maneuverkit.metrics import (
    SWEEP_BLOCK,
    FoldScore,
    OutcomeCounts,
    anticipate_dataset,
    cross_validate,
    evaluate_dataset,
    f1_score,
    macro_precision_recall,
    padded_blocks,
    precision_recall,
    score_outcomes,
    threshold_sweep,
)
from maneuverkit.numerics import make_rng
from maneuverkit.synth import ScenarioConfig, SequenceSample, generate

from test_anticipation import ScriptedPredictor, commit_step, stepwise_trajectory


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
    """One sample per (label, scripted trajectory) pair; every x row of
    sample i starts with i, which names its table."""
    samples, predictor_rows = [], []
    for i, (label, rows) in enumerate(rows_by_label):
        T = len(rows)
        xs = np.zeros((T, 6))
        xs[:, 0] = i
        samples.append(SequenceSample(id=f"s{i}", xs=xs, zs=np.zeros((T, 9)), label=EVENTS.index(label)))
        predictor_rows.append(rows)
    return samples, predictor_rows


class SequencePredictor:
    """Scripted per-sample trajectories, each read from the table that its
    sample's x features name, so the order of the walk does not matter."""

    def __init__(self, tables):
        self.tables = [np.asarray(t, float) for t in tables]
        self.events = EVENTS

    def begin(self):
        return 0

    def step(self, state, x, z):
        return state + 1, self.tables[int(x[0])][state]

    trajectory = stepwise_trajectory


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


class MarkedRowsPredictor:
    """Uniform block probabilities, NaN at every step whose x[0] is 99 and on
    every padding row."""

    events = EVENTS

    def trajectory(self, xs, zs, lengths):
        probs = np.full(xs.shape[:2] + (len(EVENTS),), 0.2)
        probs[xs[..., 0] == 99] = np.nan
        probs[np.arange(xs.shape[1]) >= lengths[:, None]] = np.nan
        return probs


BLOCK_WALKS = [
    pytest.param(lambda p, d: evaluate_dataset(p, d, 0.5), id="evaluate_dataset"),
    pytest.param(lambda p, d: anticipate_dataset(p, d, 0.5), id="anticipate_dataset"),
    pytest.param(lambda p, d: threshold_sweep(p, d, [0.5]), id="threshold_sweep"),
]


class TestNonFiniteTrajectory:
    @staticmethod
    def dataset(marks=()):
        """Three blocks of samples of 3 to 7 steps; x[0] is 99 at each (sample, 0-based step)."""
        samples = [SequenceSample(id=f"s{i}", xs=np.zeros((3 + i % 5, 6)), zs=np.zeros((3 + i % 5, 9)),
                                  label=EVENTS.index("straight")) for i in range(2 * SWEEP_BLOCK + 3)]
        for i, t in marks:
            samples[i].xs[t, 0] = 99
        return samples

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("walk", BLOCK_WALKS)
    def test_first_sample_in_dataset_order_is_named(self, walk):
        data = self.dataset(marks=[(2 * SWEEP_BLOCK + 1, 0), (SWEEP_BLOCK + 7, 4), (SWEEP_BLOCK + 7, 3)])
        with pytest.raises(ValueError, match=rf"^sample 's{SWEEP_BLOCK + 7}' step 4: "
                                             r"the probabilities are not finite$"):
            walk(MarkedRowsPredictor(), data)

    @pytest.mark.parametrize("walk", BLOCK_WALKS)
    def test_padding_rows_are_not_checked(self, walk):
        walk(MarkedRowsPredictor(), self.dataset())


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
        sweep = threshold_sweep(SequencePredictor(tables), samples, grid)
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
        sweep = threshold_sweep(SequencePredictor(tables), samples, grid)
        for point in sweep.points:
            ev = evaluate_dataset(SequencePredictor(tables), samples, point.p_th)
            assert (point.precision, point.recall, point.f1, point.mean_ttm_steps) == (
                ev.precision, ev.recall, ev.f1, ev.mean_ttm_steps
            )

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            threshold_sweep(ScriptedPredictor([[0.2] * 5]), [], [])

    @pytest.mark.parametrize("family, hidden", [
        pytest.param("aiohmm", None, id="aiohmm"),
        pytest.param("fusion", 4, id="fusion"),
        pytest.param("concat", 4, id="concat"),
        pytest.param("fusion", 32, id="fusion-hidden32"),
    ])
    def test_blocked_sweep_equals_stepwise_scoring(self, family, hidden):
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
            model = init_fusion_model(family, 6, 9, hidden, EVENTS, make_rng(7))
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


@functools.lru_cache(maxsize=None)
def small_predictor(family):
    """A fusion net with sharpened random weights, or a 2-state AIO-HMM
    ensemble fitted for 3 EM iterations, so the grid's thresholds commit
    differently."""
    if family == "aiohmm":
        train = generate(ScenarioConfig(seed=6, **WEAK), 100)
        config = EmConfig(states=2, max_iter=3, seed=1)
        models = {e: fit_em([(s.xs, s.zs) for s in train if s.label == k], config)[0]
                  for k, e in enumerate(EVENTS)}
        return AioHmmPredictor(AioHmmEnsemble(events=EVENTS, models=models))
    model = init_fusion_model("fusion", 6, 9, 4, EVENTS, make_rng(7))
    model.theta[...] *= 3.0
    return FusionRnnPredictor(model)


WEAK = {"cue_strength": 1.0, "noise_sigma": 0.5}
POOL = generate(ScenarioConfig(seed=5, **WEAK), 12)


@st.composite
def permuted_datasets(draw):
    """(dataset, permutation): up to one block and a half of samples, each a
    pool sample cut to a drawn length of at least 1 step."""
    samples = []
    for i in range(draw(st.integers(1, SWEEP_BLOCK + 16))):
        source = POOL[draw(st.integers(0, len(POOL) - 1))]
        T = draw(st.integers(1, source.length))
        samples.append(SequenceSample(id=f"s{i}", xs=source.xs[:T], zs=source.zs[:T], label=source.label))
    return samples, draw(st.permutations(range(len(samples))))


SWEEP_GRID = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


class TestDatasetOrder:
    @pytest.mark.parametrize("family", ["fusion", "aiohmm"])
    @settings(max_examples=50, deadline=None)
    @given(problem=permuted_datasets())
    def test_scores_do_not_depend_on_dataset_order(self, family, problem):
        dataset, order = problem
        shuffled = [dataset[i] for i in order]
        predictor = small_predictor(family)
        sweep, shuffled_sweep = (threshold_sweep(predictor, d, SWEEP_GRID) for d in (dataset, shuffled))
        assert (sweep.points, sweep.best_index) == (shuffled_sweep.points, shuffled_sweep.best_index)
        ev, shuffled_ev = (evaluate_dataset(predictor, d, 0.5) for d in (dataset, shuffled))
        assert (ev.counts, ev.mean_ttm_steps) == (shuffled_ev.counts, shuffled_ev.mean_ttm_steps)
        np.testing.assert_array_equal(ev.confusion, shuffled_ev.confusion)
        results = anticipate_dataset(predictor, dataset, 0.5)
        for i, r in zip(order, anticipate_dataset(predictor, shuffled, 0.5)):
            assert (r.maneuver, r.t_pred, r.time_to_maneuver_steps) == (
                results[i].maneuver, results[i].t_pred, results[i].time_to_maneuver_steps)
            np.testing.assert_allclose(r.trajectory, results[i].trajectory, rtol=0, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(lengths=st.lists(st.integers(1, 6), max_size=3 * SWEEP_BLOCK))
    def test_blocks_cover_every_sample_once_in_length_order(self, lengths):
        dataset = [SequenceSample(id=f"s{i}", xs=np.full((T, 6), float(i)), zs=np.zeros((T, 9)), label=0)
                   for i, T in enumerate(lengths)]
        blocks = list(padded_blocks(dataset))
        walked = np.concatenate([index for index, _ in blocks]) if blocks else np.zeros(0, int)
        assert sorted(walked.tolist()) == list(range(len(dataset)))
        assert [(lengths[i], i) for i in walked] == sorted((T, i) for i, T in enumerate(lengths))
        for index, (xs, zs, block_lengths) in blocks:
            assert 1 <= len(index) <= SWEEP_BLOCK
            assert block_lengths.tolist() == [lengths[i] for i in index]
            assert xs.shape[1] == max(block_lengths)
            for i, x, n in zip(index, xs, block_lengths):
                np.testing.assert_array_equal(x[:n], dataset[i].xs)


def stepwise_evals(predictor, dataset, grid):
    """The evaluation at each threshold, scored from each sample's per-step
    trajectory with the one-sequence commit rule."""
    straight = straight_index(predictor.events)
    actuals = [map_label_to_model(s.label, predictor.events) for s in dataset]
    trajs = [stepwise_trajectory(predictor, s.xs[None], s.zs[None], [s.length])[0] for s in dataset]
    evals = []
    for g in grid:
        predicted, ttm = [], []
        for traj in trajs:
            t_pred, maneuver = commit_step(traj, straight, g)
            predicted.append(straight if t_pred is None else maneuver)
            ttm.append(0 if t_pred is None else len(traj) - t_pred)
        evals.append(score_outcomes(predictor.events, predicted, actuals, ttm))
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

    def test_one_defined_fold_has_zero_stderr(self, caplog):
        from maneuverkit.metrics import EvalReport, FoldScore

        report = EvalReport(
            events=EVENTS,
            folds=[FoldScore(None, None, None, None, 0.5), FoldScore(0.9, 0.8, 0.85, 2.5, 0.7)],
            confusion=np.zeros((5, 5)),
        )
        assert report.f1_mean_stderr() == (0.85, 0.0)
        assert "1 fold value(s) undefined; aggregating the rest" in caplog.text

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
