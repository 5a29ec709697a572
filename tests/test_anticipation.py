import io
import json
import re
import sys
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maneuverkit.aiohmm import (
    VARIANTS,
    AioHmmEnsemble,
    emission_logprobs,
    emissions,
)
from maneuverkit.anticipation import (
    STICK_STEPS,
    AioHmmPredictor,
    FusionRnnPredictor,
    Predictor,
    anticipate,
    first_commits,
    run_session,
    trajectory,
)
from maneuverkit.cli import _stream_loop, main
from maneuverkit.dataio import DataFormatError, load_model, save_model
from maneuverkit.events import EVENTS, events_for_setting
from maneuverkit.fusion_rnn import forward, init_fusion_model
from maneuverkit.metrics import SWEEP_BLOCK
from maneuverkit.numerics import make_rng, pad_sequences, softmax

from test_aiohmm import random_model
from test_dataio import read_checkpoint, write_checkpoint


def stepwise_trajectory(
    predictor: Predictor, xs: np.ndarray, zs: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """The per-step reference for ``Predictor.trajectory``: each sequence of
    the block is streamed through ``begin``/``step`` over its own length,
    in block order.  Rows past a sequence's end stay zero."""
    out = np.zeros(xs.shape[:2] + (len(predictor.events),))
    for b, n in enumerate(lengths):
        state = predictor.begin()
        for t in range(n):
            state, out[b, t] = predictor.step(state, xs[b, t], zs[b, t])
    return out


def per_class_filter(ensemble, xs, zs):
    """Reference (T, K) trajectory: one log-space forward vector per class,
    each advanced with that class's own emissions and its own einsum
    log-softmax of the transition logits."""
    models = [ensemble.models[e] for e in ensemble.events]
    with np.errstate(divide="ignore"):
        alphas = [np.log(m.pi) for m in models]
    rows = []
    for t in range(xs.shape[0]):
        z_prev = zs[t - 1 : t] if t else np.zeros((1, zs.shape[1]))
        logliks = []
        for k, m in enumerate(models):
            logb = emission_logprobs(emissions([m]), xs[t : t + 1], zs[t : t + 1], z_prev)[0]
            if t == 0:
                alphas[k] = alphas[k] + logb
            else:
                x_eff = xs[t] if m.variant != "hmm" else np.ones(1)
                logits = np.einsum("ijk,k->ij", m.w, x_eff)
                hi = logits.max(axis=1, keepdims=True)
                log_a = logits - hi - np.log(np.exp(logits - hi).sum(axis=1, keepdims=True))
                alphas[k] = np.logaddexp.reduce(alphas[k][:, None] + log_a, axis=0) + logb
            logliks.append(np.logaddexp.reduce(alphas[k]))
        rows.append(softmax(np.array(logliks) + np.log(ensemble.prior)))
    return np.array(rows)


class ScriptedPredictor:
    """Replays a fixed (T, K) probability table; ignores the features."""

    sizes = (6, 9)  # those of dummy_streams

    def __init__(self, rows, events=EVENTS):
        self.rows = np.asarray(rows, dtype=float)
        self.events = events

    def begin(self):
        return 0

    def step(self, state, x, z):
        return state + 1, self.rows[state % len(self.rows)]

    trajectory = stepwise_trajectory


def dummy_streams(T):
    return np.zeros((T, 6)), np.zeros((T, 9))


MANEUVER_ROW = [0.1, 0.6, 0.1, 0.1, 0.1]  # argmax = right_lane (index 1)
UNIFORM_ROW = [0.2] * 5


class TestCommitRule:
    def test_commits_first_crossing(self):
        xs, zs = dummy_streams(5)
        result = anticipate(ScriptedPredictor([MANEUVER_ROW]), xs, zs, 0.5)
        assert result.maneuver == 1
        assert result.t_pred == 1
        assert result.time_to_maneuver_steps == 4
        assert abs(result.time_to_maneuver_seconds - 3.2) < 1e-12

    def test_threshold_one_never_commits(self):
        xs, zs = dummy_streams(5)
        sure = np.zeros(5)
        sure[0] = 1.0
        result = anticipate(ScriptedPredictor([sure]), xs, zs, 1.0)
        assert result.maneuver == EVENTS.index("straight")
        assert result.t_pred is None and result.time_to_maneuver_steps is None

    def test_uniform_rows_stay_straight(self):
        xs, zs = dummy_streams(6)
        result = anticipate(ScriptedPredictor([UNIFORM_ROW]), xs, zs, 0.25)
        assert result.maneuver == EVENTS.index("straight")

    def test_strict_inequality_at_threshold(self):
        xs, zs = dummy_streams(3)
        result = anticipate(ScriptedPredictor([MANEUVER_ROW]), xs, zs, 0.6)
        assert result.t_pred is None  # 0.6 > 0.6 is false

    def test_crossing_only_in_padding_is_no_commitment(self):
        straight = EVENTS.index("straight")
        probs = np.array([[UNIFORM_ROW, UNIFORM_ROW, MANEUVER_ROW],
                          [UNIFORM_ROW, MANEUVER_ROW, MANEUVER_ROW]])
        assert first_commits(probs, straight, 0.5)[0].tolist() == [3, 2]
        steps, events = first_commits(probs, straight, 0.5, lengths=np.array([2, 2]))
        assert steps.tolist() == [0, 2] and events[1] == 1

    def test_argmax_ties_take_lowest_index(self):
        row = [0.4, 0.4, 0.1, 0.05, 0.05]
        t, maneuver = commit_step(np.array([row]), EVENTS.index("straight"), 0.3)
        assert (t, maneuver) == (1, 0)

    def test_trajectory_covers_full_length(self):
        xs, zs = dummy_streams(7)
        result = anticipate(ScriptedPredictor([MANEUVER_ROW]), xs, zs, 0.5)
        assert result.trajectory.shape == (7, 5)

    def test_empty_streams_rejected(self):
        with pytest.raises(ValueError):
            anticipate(ScriptedPredictor([UNIFORM_ROW]), np.zeros((0, 6)), np.zeros((0, 9)), 0.5)

    def test_bad_threshold_rejected(self):
        xs, zs = dummy_streams(3)
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                anticipate(ScriptedPredictor([UNIFORM_ROW]), xs, zs, bad)

    def test_threshold_monotonicity_on_random_trajectories(self):
        rng = make_rng(0)
        straight = EVENTS.index("straight")
        for _ in range(100):
            T = int(rng.integers(1, 15))
            traj = rng.uniform(0, 1, size=(T, 5))
            traj /= traj.sum(axis=1, keepdims=True)
            previous = None
            for p_th in (0.2, 0.4, 0.6, 0.8, 0.99):
                t, _ = commit_step(traj, straight, p_th)
                if previous is not None and previous[1] is not None:
                    # raising the threshold never commits earlier
                    assert t is None or t >= previous[1]
                previous = (p_th, t)


def commit_step(traj, straight, p_th):
    """:func:`first_commits` of one (T, K) trajectory: (1-based step, event
    index), or (None, None) if it never commits."""
    step, event = first_commits(traj, straight, p_th)
    return (None, None) if step == 0 else (int(step), int(event))


def reference_commit_step(traj, straight, p_th):
    """The commit rule written as a plain per-step loop."""
    for t in range(traj.shape[0]):
        best = int(np.argmax(traj[t]))
        if best != straight and traj[t, best] > p_th:
            return t + 1, best
    return None, None


# Coarse probabilities and thresholds, so argmax ties and values equal to the
# threshold come up often.
TENTHS = st.integers(0, 10).map(lambda i: i / 10)
THRESHOLDS = st.sampled_from([0.1, 0.3, 0.5, 0.6, 0.9, 1.0])


class RowFeaturePredictor:
    """Reads each step's probability row from its x features, and fills a
    block's padding with a certain maneuver, which crosses every threshold
    below 1."""

    events = EVENTS

    def trajectory(self, xs, zs, lengths):
        out = xs.copy()
        out[np.arange(xs.shape[1]) >= lengths[:, None]] = np.eye(len(EVENTS))[1]
        return out


class TestBlockAnticipation:
    @settings(max_examples=100, deadline=None)
    @given(
        tables=st.lists(st.integers(1, 10).flatmap(lambda T: st.lists(
            st.lists(TENTHS, min_size=5, max_size=5), min_size=T, max_size=T)), min_size=1, max_size=6),
        p_th=THRESHOLDS,
    )
    @example(tables=[[[0.2] * 5], [[0.2] * 5] * 4], p_th=0.5)  # crossings in padding only
    @example(tables=[[[0.0, 1.0, 0.0, 0.0, 0.0]] * 3, [[0.2] * 5]], p_th=1.0)
    def test_block_results_equal_per_sequence_results(self, tables, p_th):
        predictor = RowFeaturePredictor()
        block = pad_sequences([(np.array(t), np.zeros((len(t), 9))) for t in tables])
        results = anticipate(predictor, *block[:2], p_th, block.lengths)
        assert len(results) == len(tables)
        for table, result in zip(tables, results):
            alone = anticipate(predictor, np.array(table), np.zeros((len(table), 9)), p_th)
            assert (result.maneuver, result.t_pred, result.time_to_maneuver_steps) == (
                alone.maneuver, alone.t_pred, alone.time_to_maneuver_steps
            )
            np.testing.assert_array_equal(result.trajectory, alone.trajectory)


@st.composite
def replay_problems(draw):
    """(B, T, K) tenths probabilities, one length per row (None: every row
    runs T steps), and a grid of thresholds that repeats and includes 1.0."""
    B, T = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    probs = np.array(draw(st.lists(st.lists(st.lists(TENTHS, min_size=5, max_size=5), min_size=T, max_size=T),
                                   min_size=B, max_size=B)))
    lengths = draw(st.none() | st.lists(st.integers(1, T), min_size=B, max_size=B).map(np.array))
    grid = draw(st.lists(st.sampled_from([0.1, 0.2, 0.3, 0.5, 0.6, 0.9, 1.0]), min_size=1, max_size=8))
    return probs, lengths, grid


class TestGridReplay:
    @settings(max_examples=200, deadline=None)
    @given(replay_problems())
    @example(problem=(np.array([[[0.5, 0.5, 0.0, 0.0, 0.0], [0.0, 0.6, 0.0, 0.0, 0.4]]]), None, [0.5, 0.6, 1.0]))
    @example(problem=(np.array([[[0.0, 0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0, 0.0]]]), np.array([1]), [1.0, 0.9]))
    def test_grid_equals_one_call_per_threshold(self, problem):
        """Rows exactly at a threshold, argmax ties and p_th = 1.0 come up
        often on tenths."""
        probs, lengths, grid = problem
        straight = EVENTS.index("straight")
        steps, events = first_commits(probs, straight, grid, lengths)
        assert steps.shape == events.shape == (len(grid), probs.shape[0])
        for g, s, e in zip(grid, steps, events):
            one_s, one_e = first_commits(probs, straight, g, lengths)
            np.testing.assert_array_equal(s, one_s)
            np.testing.assert_array_equal(e, one_e)
        single_s, single_e = first_commits(probs[0], straight, grid)
        for g, s, e in zip(grid, single_s.tolist(), single_e.tolist()):
            assert commit_step(probs[0], straight, g) == ((None, None) if s == 0 else (s, e))

    def test_bad_threshold_in_grid_rejected(self):
        with pytest.raises(ValueError, match="threshold must lie in"):
            first_commits(np.full((2, 5), 0.2), EVENTS.index("straight"), [0.5, 0.0])


@st.composite
def timelines(draw):
    """(events, (T, K) table, strictly increasing onsets, p_th)."""
    events = draw(st.sampled_from([events_for_setting(s) for s in ("all", "lane", "turn")]))
    T = draw(st.integers(1, 30))
    table = draw(st.lists(st.lists(TENTHS, min_size=len(events), max_size=len(events)),
                          min_size=T, max_size=T))
    steps = draw(st.sets(st.integers(1, T), max_size=T))
    onsets = [(s, draw(st.integers(0, len(events) - 2))) for s in sorted(steps)]  # maneuvers: straight is last
    return events, table, onsets, draw(THRESHOLDS)


def streamed_commits(predictor, T, onsets, p_th):
    """(step, event index) of every commit printed by ``anticipate --stream``."""
    onset_at = dict(onsets)
    lines = []
    for t in range(1, T + 1):
        record = {"x": [0.0] * 6, "z": [0.0] * 9}
        if t in onset_at:
            record["onset"] = predictor.events[onset_at[t]]
        lines.append(json.dumps(record) + "\n")
    saved, sys.stdin = sys.stdin, io.StringIO("".join(lines))
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            assert _stream_loop(predictor, p_th) == 0
    finally:
        sys.stdin = saved
    records = [json.loads(line) for line in out.getvalue().splitlines()]
    assert [r["t"] for r in records] == list(range(1, T + 1))
    return [(r["t"], predictor.events.index(r["commit"]["event"])) for r in records if "commit" in r]


def session_commits(predictor, T, onsets, p_th):
    """(step, event index) of every commitment that run_session scores."""
    events = run_session(predictor, *dummy_streams(T), onsets=onsets, p_th=p_th)
    return sorted((e.step, e.predicted) for e in events if e.kind != "mp")


class TestOneStickRule:
    @settings(max_examples=200, deadline=None)
    @given(timelines())
    def test_commit_step_matches_per_step_loop(self, timeline):
        events, table, _, p_th = timeline
        traj = np.array(table)
        straight = events.index("straight")
        assert commit_step(traj, straight, p_th) == reference_commit_step(traj, straight, p_th)

    @settings(max_examples=200, deadline=None)
    @given(timelines())
    def test_stream_commits_equal_run_session_commits(self, timeline):
        events, table, onsets, p_th = timeline
        predictor = ScriptedPredictor(table, events)
        T = len(table)
        assert streamed_commits(predictor, T, onsets, p_th) == session_commits(predictor, T, onsets, p_th)

    def test_onset_while_pending_defers_the_next_commit(self):
        # 0.92 on right_lane at every step; right_lane starts at step 3 while
        # the commitment of step 1 is pending.  The onset resolves it and
        # commits nothing itself; the next commitment comes at step 4.
        row = [0.02, 0.92, 0.02, 0.02, 0.02]
        predictor = ScriptedPredictor([row])
        events = run_session(predictor, *dummy_streams(12), onsets=[(3, 1)], p_th=0.5)
        assert [(e.kind, e.step) for e in events] == [("tp", 1), ("fpp", 4), ("fpp", 12)]
        assert streamed_commits(predictor, 12, [(3, 1)], 0.5) == [(1, 1), (4, 1), (12, 1)]

    def test_commit_on_onset_step_is_resolved_at_once(self):
        rows = [UNIFORM_ROW, MANEUVER_ROW, MANEUVER_ROW]
        predictor = ScriptedPredictor(rows)
        events = run_session(predictor, *dummy_streams(3), onsets=[(2, 1)], p_th=0.5)
        assert [(e.kind, e.step, e.ttm_steps) for e in events] == [("tp", 2, 0), ("fpp", 3, None)]
        assert streamed_commits(predictor, 3, [(2, 1)], 0.5) == [(2, 1), (3, 1)]


class TestRunSession:
    def test_true_prediction_with_time_to_maneuver(self):
        rows = [UNIFORM_ROW] * 2 + [MANEUVER_ROW] + [UNIFORM_ROW] * 10
        pred = ScriptedPredictor(rows)
        xs, zs = dummy_streams(10)
        events = run_session(pred, xs, zs, onsets=[(7, 1)], p_th=0.5)
        assert len(events) == 1
        ev = events[0]
        assert ev.kind == "tp" and ev.step == 3 and ev.ttm_steps == 4
        assert ev.ttm_steps * 0.8 == pytest.approx(3.2)

    def test_commitment_without_onset_is_false_positive(self):
        rows = [MANEUVER_ROW] + [UNIFORM_ROW] * 20
        events = run_session(ScriptedPredictor(rows), *dummy_streams(15), onsets=[], p_th=0.5)
        assert [e.kind for e in events] == ["fpp"]
        assert events[0].step == 1

    def test_silent_predictor_misses_maneuver(self):
        events = run_session(ScriptedPredictor([UNIFORM_ROW]), *dummy_streams(10), onsets=[(6, 2)], p_th=0.5)
        assert [e.kind for e in events] == ["mp"]
        assert events[0].actual == 2

    def test_wrong_maneuver_is_false_prediction(self):
        rows = [MANEUVER_ROW] + [UNIFORM_ROW] * 20
        events = run_session(ScriptedPredictor(rows), *dummy_streams(10), onsets=[(4, 2)], p_th=0.5)
        assert [e.kind for e in events] == ["fp"]

    def test_stick_rule_suppresses_for_seven_steps(self):
        assert STICK_STEPS == 7
        # scripted to commit at every un-suppressed step
        rows = [MANEUVER_ROW] * 40
        events = run_session(ScriptedPredictor(rows), *dummy_streams(17), onsets=[], p_th=0.5)
        # commits at 1 and (after the 7-step window ends at 8) again at 9;
        # the trailing commitment at 17 is closed by the end of the timeline
        assert [(e.kind, e.step) for e in events] == [("fpp", 1), ("fpp", 9), ("fpp", 17)]

    def test_onset_lifts_suppression_early(self):
        rows = [MANEUVER_ROW] * 40
        events = run_session(ScriptedPredictor(rows), *dummy_streams(12), onsets=[(3, 1)], p_th=0.5)
        # commit at 1 -> tp at onset 3 -> resume, commit at 4 -> fpp at 11
        kinds = [(e.kind, e.step) for e in events]
        assert kinds[0] == ("tp", 1)
        assert kinds[1] == ("fpp", 4)

    def test_overlapping_onsets_rejected(self):
        with pytest.raises(ValueError):
            run_session(ScriptedPredictor([UNIFORM_ROW]), *dummy_streams(10), onsets=[(4, 1), (4, 2)], p_th=0.5)
        with pytest.raises(ValueError):
            run_session(ScriptedPredictor([UNIFORM_ROW]), *dummy_streams(10), onsets=[(5, 1), (3, 2)], p_th=0.5)

    @pytest.mark.parametrize("step", [0, 11])
    def test_onset_outside_the_timeline_rejected(self, step):
        with pytest.raises(ValueError, match="^onset steps must lie within the timeline$"):
            run_session(ScriptedPredictor([UNIFORM_ROW]), *dummy_streams(10), onsets=[(step, 1)], p_th=0.5)

    # used to be scored as a missed maneuver, PredictionEvent(kind="mp", actual=4)
    def test_straight_onset_rejected(self):
        with pytest.raises(ValueError, match="^onset events must be maneuvers, not 'straight'$"):
            run_session(ScriptedPredictor([UNIFORM_ROW]), *dummy_streams(10), onsets=[(2, 1), (3, 4)], p_th=0.5)

    def test_determinism(self):
        rows = [MANEUVER_ROW, UNIFORM_ROW] * 10
        a = run_session(ScriptedPredictor(rows), *dummy_streams(14), onsets=[(9, 1)], p_th=0.5)
        b = run_session(ScriptedPredictor(rows), *dummy_streams(14), onsets=[(9, 1)], p_th=0.5)
        assert a == b


class TestPredictors:
    @settings(max_examples=60, deadline=None)
    @given(
        arch=st.sampled_from(["fusion", "concat"]),
        hidden=st.integers(1, 32),
        T=st.integers(1, 15),
        scale=st.floats(1.0, 3.0),
        seed=st.integers(0, 2**16),
    )
    def test_rnn_incremental_matches_batch_forward(self, arch, hidden, T, scale, seed):
        # Weights scaled up to 3x drive the gates into saturation.
        model = init_fusion_model(arch, 6, 9, hidden, EVENTS, make_rng(seed))
        model.theta[...] *= scale
        rng = make_rng(seed + 1)
        xs = rng.standard_normal((T, 6))
        zs = rng.standard_normal((T, 9))
        batch, _ = forward(model, xs, zs)
        stream = trajectory(FusionRnnPredictor(model), xs, zs)
        np.testing.assert_allclose(stream, batch, rtol=0, atol=1e-12)

    def test_predictors_report_their_input_sizes(self):
        rng = make_rng(4)
        assert FusionRnnPredictor(init_fusion_model("fusion", 6, 9, 2, EVENTS, rng)).sizes == (6, 9)
        assert FusionRnnPredictor(init_fusion_model("concat", 3, 5, 2, EVENTS, rng)).sizes == (3, 5)
        models = {name: random_model(rng, 2, 3, 4) for name in EVENTS}
        assert AioHmmPredictor(AioHmmEnsemble(events=EVENTS, models=models)).sizes == (4, 3)

    def test_aiohmm_incremental_matches_full_prefix_inference(self):
        rng = make_rng(3)
        models = {name: random_model(rng, 2, 3, 4) for name in EVENTS}
        ens = AioHmmEnsemble(events=EVENTS, models=models)
        xs = rng.standard_normal((6, 4))
        zs = rng.standard_normal((6, 3))
        stream = trajectory(AioHmmPredictor(ens), xs, zs)
        for t in range(1, 7):
            full = ens.posterior(xs[:t], zs[:t])
            np.testing.assert_allclose(stream[t - 1], full, atol=1e-10)

    @pytest.mark.parametrize("variant", ["aio", "io", "hmm"])
    def test_stacked_aiohmm_matches_per_class_filter(self, variant):
        rng = make_rng(6)
        for trial in range(6):
            S = int(rng.integers(1, 4))
            models = {name: random_model(rng, S, 3, 4, variant=variant) for name in EVENTS}
            models[EVENTS[trial % len(EVENTS)]].pi = np.eye(S)[-1]  # zero entries unless S == 1
            prior = rng.uniform(0.5, 1.0, len(EVENTS))
            ens = AioHmmEnsemble(events=EVENTS, models=models, prior=prior / prior.sum())
            T = int(rng.integers(1, 12))
            xs, zs = rng.standard_normal((T, 4)), rng.standard_normal((T, 3))
            stream = trajectory(AioHmmPredictor(ens), xs, zs)
            np.testing.assert_allclose(stream, per_class_filter(ens, xs, zs), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("states, variant, message, declared, refusal", [
        (3, "aio", r"models disagree on their state counts \[2, 3\]", {"states": 3},
         r"field 'theta' does not fit the declared sizes "
         r"\(theta must be a vector of 1865 entries, got shape \(1185,\)\)"),
        (2, "io", r"models disagree on their variants \['aio', 'io'\]", {"variant": "io"},
         r"model 'left_lane': variant 'io' requires b = 0"),
    ], ids=["states", "variant"])
    def test_mixed_ensembles_rejected(self, tmp_path, monkeypatch, capsys, caplog, states, variant, message,
                                      declared, refusal):
        # One 2-state aio ensemble with one class of another state count or
        # variant: the constructor refuses it.  A checkpoint declares one state
        # count and variant for every class, so one declaring another fails to
        # load with the file named, through the loader and the command line.
        rng = make_rng(7)
        models = {name: random_model(rng, 2, 9, 6) for name in EVENTS}
        ens = AioHmmEnsemble(events=EVENTS, models=models)
        odd = random_model(rng, states, 9, 6, variant)
        with pytest.raises(ValueError, match=message):
            AioHmmEnsemble(events=EVENTS, models={**models, EVENTS[1]: odd})

        path = tmp_path / "mixed.json"
        save_model(ens, {}, path)
        header, theta = read_checkpoint(path)
        header["params"].update(declared)
        write_checkpoint(path, header, theta)
        with pytest.raises(DataFormatError, match=r"mixed\.json: " + refusal + "$"):
            load_model(path)

        data = tmp_path / "d.jsonl"
        assert main(["synth", "--n", "5", "--seed", "1", "--out", str(data)]) == 0
        steps = json.loads(data.read_text(encoding="utf-8").splitlines()[0])["steps"]
        monkeypatch.setattr("sys.stdin", io.StringIO("".join(json.dumps(s) + "\n" for s in steps)))
        capsys.readouterr()
        for argv in (["anticipate", "--stream"], ["eval", "--data", str(data)]):
            caplog.clear()
            assert main([*argv, "--model", str(path), "--pth", "0.8"]) == 1
            assert capsys.readouterr().out == ""
            assert re.search(re.escape(f"{path}: ") + refusal, caplog.text)
            assert "Traceback" not in caplog.text

    def test_stacked_aiohmm_finite_when_a_class_gives_no_density(self):
        rng = make_rng(8)
        models = {name: random_model(rng, 2, 3, 4) for name in EVENTS}
        far = models[EVENTS[0]]
        far.mu = far.mu + 1e4
        far.sigma = np.stack([1e-6 * np.eye(3)] * 2)
        ens = AioHmmEnsemble(events=EVENTS, models=models)
        xs, zs = rng.standard_normal((10, 4)), rng.standard_normal((10, 3))
        stream = trajectory(AioHmmPredictor(ens), xs, zs)
        assert np.all(np.isfinite(stream))
        np.testing.assert_allclose(stream.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(stream[:, 0] < 1e-300)
        np.testing.assert_allclose(stream, per_class_filter(ens, xs, zs), rtol=0, atol=1e-12)


def random_block(rng, lengths, dx, dz):
    """A zero-padded block of standard-normal streams of the given lengths."""
    return pad_sequences([(rng.standard_normal((n, dx)), rng.standard_normal((n, dz))) for n in lengths])


def assert_block_matches_stepwise(predictor, block):
    """The batched trajectory of ``block`` equals the per-step reference on
    every real row, and its one-sequence form equals each row of it."""
    batched = trajectory(predictor, *block)
    reference = stepwise_trajectory(predictor, *block)
    assert batched.shape == reference.shape
    for k, n in enumerate(block.lengths):
        np.testing.assert_allclose(batched[k, :n], reference[k, :n], rtol=0, atol=1e-12)
        single = trajectory(predictor, block.xs[k, :n], block.zs[k, :n])
        np.testing.assert_allclose(single, reference[k, :n], rtol=0, atol=1e-12)


# Mixed lengths, with T = 1 and a block of one sequence among the draws.
BLOCK_LENGTHS = st.lists(st.integers(1, 10), min_size=1, max_size=6)
FULL_BLOCK_LENGTHS = [6 + (5 * k) % 7 for k in range(SWEEP_BLOCK)]  # 6..12


class TestBatchedTrajectory:
    @settings(max_examples=60, deadline=None)
    @given(
        arch=st.sampled_from(["fusion", "concat"]),
        hidden=st.integers(1, 16),
        lengths=BLOCK_LENGTHS,
        scale=st.floats(1.0, 3.0),
        seed=st.integers(0, 2**16),
    )
    @example(arch="fusion", hidden=3, lengths=[1], scale=1.0, seed=0)
    @example(arch="concat", hidden=3, lengths=[1, 10, 1, 4], scale=3.0, seed=1)
    # A full sweep block, at the cross-validation width and the CLI default.
    @example(arch="fusion", hidden=32, lengths=FULL_BLOCK_LENGTHS, scale=1.0, seed=2)
    @example(arch="fusion", hidden=64, lengths=FULL_BLOCK_LENGTHS, scale=1.0, seed=3)
    def test_network_block_matches_stepwise(self, arch, hidden, lengths, scale, seed):
        # Weights scaled up to 3x drive the gates into saturation.
        model = init_fusion_model(arch, 6, 9, hidden, EVENTS, make_rng(seed))
        model.theta[...] *= scale
        block = random_block(make_rng(seed + 1), lengths, 6, 9)
        assert_block_matches_stepwise(FusionRnnPredictor(model), block)

    @settings(max_examples=60, deadline=None)
    @given(
        states=st.integers(1, 3),
        variant=st.sampled_from(VARIANTS),
        lengths=BLOCK_LENGTHS,
        sparse_pi=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @example(states=1, variant="hmm", lengths=[1], sparse_pi=True, seed=0)
    @example(states=3, variant="aio", lengths=[7, 1, 10], sparse_pi=True, seed=1)
    def test_aiohmm_block_matches_stepwise(self, states, variant, lengths, sparse_pi, seed):
        # One (S, variant) per ensemble, as the ensemble requires.
        rng = make_rng(seed)
        models = {name: random_model(rng, states, 3, 4, variant=variant) for name in EVENTS}
        if sparse_pi:  # log pi = -inf on all but the last state
            models[EVENTS[0]].pi = np.eye(states)[-1]
        prior = rng.uniform(0.5, 1.0, len(EVENTS))
        ens = AioHmmEnsemble(events=EVENTS, models=models, prior=prior / prior.sum())
        assert_block_matches_stepwise(AioHmmPredictor(ens), random_block(rng, lengths, 4, 3))

    @settings(max_examples=60, deadline=None)
    @given(
        states=st.integers(1, 3),
        variant=st.sampled_from(VARIANTS),
        lengths=BLOCK_LENGTHS,
        seed=st.integers(0, 2**16),
    )
    @example(states=2, variant="aio", lengths=[1], seed=0)
    @example(states=2, variant="aio", lengths=[1, 6, 1], seed=1)
    def test_aiohmm_block_scores_real_rows_as_the_all_rows_form(self, states, variant, lengths, seed):
        # A block's padding gets no emissions; with every row counted as
        # real, all of them are scored, and the real rows come out the same.
        rng = make_rng(seed)
        models = {name: random_model(rng, states, 3, 4, variant=variant) for name in EVENTS}
        predictor = AioHmmPredictor(AioHmmEnsemble(events=EVENTS, models=models))
        xs, zs, lengths = random_block(rng, lengths, 4, 3)
        real = predictor.trajectory(xs, zs, lengths)
        all_rows = predictor.trajectory(xs, zs, np.full(len(lengths), xs.shape[1]))
        for k, n in enumerate(lengths):
            np.testing.assert_array_equal(real[k, :n], all_rows[k, :n])

    @pytest.mark.parametrize(
        "xs, zs, lengths, message",
        [
            (np.zeros((2, 3, 6)), np.zeros((2, 4, 9)), None, "need equal-length nonempty streams"),
            (np.zeros((2, 3, 6)), np.zeros((3, 9)), None, "need equal-length nonempty streams"),
            (np.zeros((0, 3, 6)), np.zeros((0, 3, 9)), None, "need equal-length nonempty streams"),
            (np.zeros((2, 3, 6)), np.zeros((2, 3, 9)), [3], r"one length in \[1, 3\]"),
            (np.zeros((2, 3, 6)), np.zeros((2, 3, 9)), [0, 3], r"one length in \[1, 3\]"),
            (np.zeros((2, 3, 6)), np.zeros((2, 3, 9)), [2, 4], r"one length in \[1, 3\]"),
        ],
        ids=["steps", "ranks", "no-sequences", "lengths-shape", "zero-length", "too-long"],
    )
    def test_bad_blocks_rejected(self, xs, zs, lengths, message):
        with pytest.raises(ValueError, match=message):
            trajectory(ScriptedPredictor([UNIFORM_ROW]), xs, zs, lengths)


class TestZeroClassPrior:
    """A class of prior 0 gets probability exactly 0 and is never committed
    to, and taking its log warns nowhere."""

    @pytest.mark.filterwarnings("error")
    def test_zero_prior_classes_never_win(self):
        rng = make_rng(31)
        models = {name: random_model(rng, 2, 3, 4) for name in EVENTS}
        prior = np.array([0.5, 0.5, 0.0, 0.0, 0.0])
        ens = AioHmmEnsemble(events=EVENTS, models=models, prior=prior)
        predictor = AioHmmPredictor(ens)
        block = random_block(rng, [6, 1, 4], 4, 3)
        for probs in (trajectory(predictor, *block), stepwise_trajectory(predictor, *block)):
            np.testing.assert_array_equal(probs[..., 2:], 0.0)
        single = trajectory(predictor, block.xs[0], block.zs[0])
        np.testing.assert_array_equal(single[:, 2:], 0.0)
        posterior = ens.posterior(block.xs[0], block.zs[0])
        np.testing.assert_array_equal(posterior[2:], 0.0)
        np.testing.assert_allclose(posterior, single[-1], rtol=0, atol=1e-10)
        for result in anticipate(predictor, block.xs, block.zs, 0.2, block.lengths):
            assert result.maneuver in (0, 1, EVENTS.index("straight"))
