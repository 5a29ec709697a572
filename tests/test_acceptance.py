"""Acceptance suite: every release gate in one module, at pinned tolerances.

Each test prints one PASS/FAIL line (criterion number plus the measured
quantities) before asserting, so a full run reads as a checklist.  The
heavier gates also enforce their wall-clock budgets.
"""

import itertools
import math
import time

import numpy as np

from maneuverkit import aiohmm, anticipation, cli, fusion_rnn, metrics, synth, training
from maneuverkit.dataio import load_dataset, load_model, save_dataset, save_model
from maneuverkit.events import EVENTS
from maneuverkit.lstm import init_lstm_params
from maneuverkit.numerics import make_rng

from test_aiohmm import enumeration_loglik, random_model
from test_anticipation import MANEUVER_ROW, UNIFORM_ROW, ScriptedPredictor, commit_step, dummy_streams
from test_lstm import cell_step, reference_step, zero_params


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion:>2}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------


def test_criterion_01_gradient_correctness():
    start = time.monotonic()
    worst = 0.0
    for seed in range(5):
        hidden = 6 + seed % 3
        T = 3 + (2 * seed) % 8
        rng = make_rng(1000 + seed)
        xs = rng.standard_normal((T, 6))
        zs = rng.standard_normal((T, 9))
        target = int(rng.integers(0, 5))
        for loss_mode in (training.LOSS_EXPONENTIAL, training.LOSS_UNIFORM):
            model = fusion_rnn.init_fusion_model("fusion", 6, 9, hidden, EVENTS, make_rng(seed))
            check = training.gradient_check(
                model, xs, zs, target, training.TrainConfig(loss_mode=loss_mode), tol=1e-4
            )
            worst = max(worst, check.block_errors[check.worst_block])
    elapsed = time.monotonic() - start
    ok = worst <= 1e-4 and elapsed < 30.0
    report(1, ok, f"worst blockwise relative error {worst:.3e}, {elapsed:.1f}s")
    assert worst <= 1e-4
    assert elapsed < 30.0


def test_criterion_02_lstm_forward_exactness():
    rng = make_rng(7)
    p = init_lstm_params(3, 4, rng)
    h0, c0 = rng.standard_normal(4) * 0.5, rng.standard_normal(4) * 0.5
    x = rng.standard_normal(3)
    _, h, c = cell_step(p, x, h0, c0)  # lstm_step at C = 1
    h_ref, c_ref = reference_step(p, x, h0, c0)
    transcription_err = max(np.max(np.abs(h - h_ref)), np.max(np.abs(c - c_ref)))

    pz = zero_params(3, 4)
    (zi, zf, _, zo), zh, zc = cell_step(pz, rng.standard_normal(3), np.zeros(4), np.zeros(4))
    forced = (
        np.allclose(zi, 0.5, atol=0)
        and np.allclose(zf, 0.5, atol=0)
        and np.allclose(zo, 0.5, atol=0)
        and np.all(zh == 0.0)
        and np.all(zc == 0.0)
    )
    ok = transcription_err <= 1e-12 and forced
    report(2, ok, f"transcription error {transcription_err:.2e}, forced zero-case {'ok' if forced else 'bad'}")
    assert transcription_err <= 1e-12
    assert forced


def test_criterion_03_loss_exactness():
    probs = np.full((3, 4), 0.5)
    expected = math.log(2.0) * (1.0 + math.exp(-1.0) + math.exp(-2.0))
    got = training.anticipation_loss(probs, 2, training.LOSS_EXPONENTIAL)
    err = abs(got - expected)

    rng = make_rng(3)
    dominated = True
    for _ in range(1000):
        T = int(rng.integers(1, 12))
        traj = rng.uniform(1e-6, 1.0, size=(T, 5))
        traj /= traj.sum(axis=1, keepdims=True)
        k = int(rng.integers(0, 5))
        e = training.anticipation_loss(traj, k, training.LOSS_EXPONENTIAL)
        u = training.anticipation_loss(traj, k, training.LOSS_UNIFORM)
        dominated &= e <= u + 1e-12
    ok = err <= 1e-12 and dominated
    report(3, ok, f"closed-form error {err:.2e}, exponential<=uniform on 1000 trajectories: {dominated}")
    assert err <= 1e-12
    assert dominated


def test_criterion_04_forward_backward_matches_enumeration():
    rng = make_rng(44)
    combos = list(itertools.product(range(2, 7), (2, 3)))  # T x S grid
    cases = combos + [
        (int(rng.integers(2, 7)), int(rng.choice([2, 3]))) for _ in range(20 - len(combos))
    ]
    worst_rel = 0.0
    worst_gamma = 0.0
    for T, S in cases:
        m = random_model(rng, S, 2, 2)
        xs = rng.standard_normal((T, 2))
        zs = rng.standard_normal((T, 2))
        stats = aiohmm.forward_backward(m, xs, zs)
        ref = enumeration_loglik(m, xs, zs)
        worst_rel = max(worst_rel, abs(stats.loglik - ref) / abs(ref))
        worst_gamma = max(worst_gamma, float(np.max(np.abs(stats.gamma.sum(axis=1) - 1.0))))
    ok = worst_rel <= 1e-9 and worst_gamma <= 1e-10
    report(4, ok, f"likelihood rel err {worst_rel:.2e} over {len(cases)} models, gamma dev {worst_gamma:.2e}")
    assert worst_rel <= 1e-9
    assert worst_gamma <= 1e-10


def test_criterion_05_em_monotonicity_and_recovery():
    start = time.monotonic()
    rng = make_rng(5)
    generator = aiohmm.AioHmmModel(
        variant="aio",
        mu=np.array([[1.5, -0.5], [-1.0, 1.0]]),
        a=np.array([[0.3, -0.2], [0.1, 0.25]]),
        b=np.array([[0.15, 0.05], [-0.1, 0.2]]),
        sigma=np.stack(
            [np.array([[0.5, 0.1], [0.1, 0.4]]), np.array([[0.3, -0.05], [-0.05, 0.6]])]
        ),
        w=np.array([[[0.8, -0.5], [-0.8, 0.5]], [[-0.6, 0.4], [0.6, -0.4]]]),
        pi=np.array([0.6, 0.4]),
    )
    generator.validate()
    train_seqs = [aiohmm.sample_sequence(generator, 50, rng) for _ in range(500)]
    held = [aiohmm.sample_sequence(generator, 50, rng) for _ in range(200)]

    config = aiohmm.EmConfig(states=2, variant="aio", max_iter=50, tol=0.0, seed=1)
    fitted, trace = aiohmm.fit_em(train_seqs, config)
    dips = float(np.min(np.diff(trace))) if len(trace) > 1 else 0.0

    gen_held = float(np.mean([aiohmm.sequence_loglik(generator, xs, zs) for xs, zs in held]))
    fit_held = float(np.mean([aiohmm.sequence_loglik(fitted, xs, zs) for xs, zs in held]))
    gap = abs(fit_held - gen_held) / abs(gen_held)
    elapsed = time.monotonic() - start

    ok = dips >= -1e-8 and gap <= 0.02 and elapsed < 120.0
    report(
        5, ok,
        f"worst loglik step {dips:.2e} across {len(trace)} iterations, "
        f"held-out gap {gap * 100:.3f}%, {elapsed:.1f}s",
    )
    assert dips >= -1e-8
    assert gap <= 0.02
    assert elapsed < 120.0


GRID = [round(0.1 * i, 2) for i in range(2, 10)]


def xval_trainer(*flags):
    """The trainer `maneuverkit xval <flags>` hands to cross_validate: fold k
    trains with seed + k.  It never reads --data."""
    return cli.fold_trainer(cli.build_parser().parse_args(["xval", "--data", "-", *flags]))


def rnn_trainer(arch, seed):
    return xval_trainer(
        "--arch", arch, "--hidden", "16", "--epochs", "6", "--lr", "2e-3", "--seed", str(seed)
    )


def test_criterion_06_synthetic_end_to_end():
    start = time.monotonic()
    dataset = synth.generate(synth.ScenarioConfig(seed=42), 1000)

    rnn_report = metrics.cross_validate(dataset, 5, rnn_trainer("frnn-el", 11), seed=13, grid=GRID)
    rnn_pr, _ = rnn_report.precision_mean_stderr()
    rnn_re, _ = rnn_report.recall_mean_stderr()
    rnn_ttm, _ = rnn_report.ttm_mean_stderr()

    hmm_trainer = xval_trainer("--arch", "aiohmm", "--states", "3", "--em-iters", "20", "--seed", "11")
    hmm_report = metrics.cross_validate(dataset, 5, hmm_trainer, seed=13, grid=GRID)
    hmm_pr, _ = hmm_report.precision_mean_stderr()

    elapsed = time.monotonic() - start
    ok = (
        rnn_pr >= 0.85 and rnn_re >= 0.80 and hmm_pr >= 0.70
        and rnn_ttm >= 1.0 and elapsed < 600.0
    )
    report(
        6, ok,
        f"fusion Pr {rnn_pr:.3f} Re {rnn_re:.3f} ttm {rnn_ttm:.2f} steps; "
        f"hmm Pr {hmm_pr:.3f}; {elapsed:.0f}s",
    )
    assert rnn_pr >= 0.85
    assert rnn_re >= 0.80
    assert hmm_pr >= 0.70
    assert rnn_ttm >= 1.0
    assert elapsed < 600.0


def test_criterion_07_architecture_ordering():
    scores = {name: [] for name in ("frnn-el", "frnn-ul", "srnn")}
    for seed in range(5):
        config = synth.ScenarioConfig(
            seed=100 + seed, noise_sigma=0.25, inside_nuisance=1.0, outside_nuisance=1.0
        )
        data = synth.generate(config, 400)
        folds = synth.split_folds(data, 5, seed=7)
        test, train_set = folds[0], [s for f in folds[1:] for s in f]
        for name in scores:
            predictor = rnn_trainer(name, 50 + seed)(train_set, 0)
            sweep = metrics.threshold_sweep(predictor, test, GRID)
            scores[name].append(sweep.best.f1 if sweep.best else 0.0)
    means = {name: float(np.mean(v)) for name, v in scores.items()}
    ok = means["frnn-el"] >= means["srnn"] and means["frnn-el"] >= means["frnn-ul"] - 0.02
    report(
        7, ok,
        f"mean F1: fusion-exp {means['frnn-el']:.3f}, fusion-uniform {means['frnn-ul']:.3f}, "
        f"concat {means['srnn']:.3f}",
    )
    assert means["frnn-el"] >= means["srnn"]
    assert means["frnn-el"] >= means["frnn-ul"] - 0.02


def test_criterion_08_protocol_exactness():
    checks = []

    result = anticipation.anticipate(ScriptedPredictor([MANEUVER_ROW]), *dummy_streams(5), 0.5)
    checks.append(result.t_pred == 1 and result.maneuver == 1 and result.time_to_maneuver_steps == 4)

    checks.append(
        anticipation.anticipate(ScriptedPredictor([MANEUVER_ROW]), *dummy_streams(5), 1.0).t_pred
        is None
    )
    checks.append(
        anticipation.anticipate(ScriptedPredictor([UNIFORM_ROW]), *dummy_streams(5), 0.25).maneuver
        == EVENTS.index("straight")
    )

    rows = [UNIFORM_ROW] * 2 + [MANEUVER_ROW] + [UNIFORM_ROW] * 10
    session = anticipation.run_session(
        ScriptedPredictor(rows), *dummy_streams(10), onsets=[(7, 1)], p_th=0.5
    )
    checks.append([e.kind for e in session] == ["tp"] and session[0].ttm_steps == 4)

    fpp = anticipation.run_session(
        ScriptedPredictor([MANEUVER_ROW] + [UNIFORM_ROW] * 30), *dummy_streams(15), onsets=[], p_th=0.5
    )
    checks.append([e.kind for e in fpp] == ["fpp"])

    mp = anticipation.run_session(
        ScriptedPredictor([UNIFORM_ROW]), *dummy_streams(12), onsets=[(8, 3)], p_th=0.5
    )
    checks.append([e.kind for e in mp] == ["mp"])

    stick = anticipation.run_session(
        ScriptedPredictor([MANEUVER_ROW] * 40), *dummy_streams(17), onsets=[], p_th=0.5
    )
    checks.append([(e.kind, e.step) for e in stick] == [("fpp", 1), ("fpp", 9), ("fpp", 17)])

    rng = make_rng(8)
    straight = EVENTS.index("straight")
    monotone = True
    for _ in range(100):
        T = int(rng.integers(1, 15))
        traj = rng.uniform(0, 1, size=(T, 5))
        traj /= traj.sum(axis=1, keepdims=True)
        commit_steps = []
        for p_th in (0.25, 0.5, 0.75, 0.95):
            t, _ = commit_step(traj, straight, p_th)
            commit_steps.append(math.inf if t is None else t)
        monotone &= all(a <= b for a, b in zip(commit_steps, commit_steps[1:]))
    checks.append(monotone)

    ok = all(checks)
    report(8, ok, f"{sum(checks)}/{len(checks)} protocol checks, threshold monotonicity on 100 trajectories")
    assert all(checks)


def test_criterion_09_metrics_exactness():
    pr, re = metrics.precision_recall(metrics.OutcomeCounts(tp=8, fp=1, fpp=1, mp=2))
    counts_ok = abs(pr - 0.8) < 1e-15 and abs(re - 8 / 11) < 1e-15

    macro_pr, _ = metrics.macro_precision_recall([3, 1], [4, 2], [5, 2])
    macro_ok = abs(macro_pr - 0.625) < 1e-15

    rng = make_rng(9)
    f1_ok = True
    for _ in range(100):
        p, r = rng.uniform(0.01, 1.0, 2)
        f1_ok &= abs(metrics.f1_score(p, r) - 2 * p * r / (p + r)) <= 1e-12

    from test_metrics import SequencePredictor, confident, row_normalized, scripted_dataset

    plan = [
        ("left_lane", [confident("left_lane")] * 4),
        ("left_lane", [confident("left_lane")] * 4),
        ("left_lane", [confident("right_lane")] * 4),
        ("right_turn", [confident("right_turn")] * 4),
        ("straight", [confident("left_lane")] * 4),
    ]
    samples, tables = scripted_dataset(plan)
    ev = metrics.evaluate_dataset(SequencePredictor(tables), samples, 0.7)
    norm = row_normalized(ev.confusion)
    confusion_ok = True
    for i in range(4):
        p_m = ev.confusion[i].sum()
        if p_m > 0:
            confusion_ok &= abs(norm[i, i] - ev.confusion[i, i] / p_m) < 1e-15

    ok = counts_ok and macro_ok and f1_ok and confusion_ok
    report(
        9, ok,
        f"counts {'ok' if counts_ok else 'bad'}, macro {'ok' if macro_ok else 'bad'}, "
        f"f1 identity {'ok' if f1_ok else 'bad'}, confusion diagonal {'ok' if confusion_ok else 'bad'}",
    )
    assert ok


def test_criterion_10_pipeline_reproducibility(tmp_path):
    outputs = []
    for run in ("a", "b"):
        base = tmp_path / run
        base.mkdir()
        d, m, r = base / "d.jsonl", base / "m.json", base / "r.json"
        assert cli.main(["synth", "--n", "120", "--seed", "21", "--out", str(d)]) == 0
        assert cli.main(
            ["train", "--data", str(d), "--arch", "frnn-el", "--hidden", "8",
             "--epochs", "3", "--lr", "2e-3", "--seed", "4", "--out", str(m)]
        ) == 0
        assert cli.main(
            ["eval", "--model", str(m), "--data", str(d), "--pth", "0.7", "--out", str(r)]
        ) == 0
        outputs.append((d.read_bytes(), m.read_bytes(), r.read_bytes()))

    identical = all(x == y for x, y in zip(outputs[0], outputs[1]))

    d = tmp_path / "a" / "d.jsonl"
    reloaded = tmp_path / "roundtrip.jsonl"
    save_dataset(load_dataset(d), reloaded)
    dataset_exact = reloaded.read_bytes() == d.read_bytes()

    m = tmp_path / "a" / "m.json"
    model, _, config = load_model(m)
    resaved = tmp_path / "resaved.json"
    save_model(model, config, resaved)
    checkpoint_exact = resaved.read_bytes() == m.read_bytes()

    ok = identical and dataset_exact and checkpoint_exact
    report(
        10, ok,
        f"pipeline bytes identical: {identical}, dataset round trip exact: {dataset_exact}, "
        f"checkpoint round trip exact: {checkpoint_exact}",
    )
    assert identical
    assert dataset_exact
    assert checkpoint_exact
