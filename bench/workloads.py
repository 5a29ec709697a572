"""The benchmark's workloads: set-up, one repetition of each job, and the
checks on their outputs.

Both workloads cross-validate one model family on a synthetic dataset made
from the run's seed and, between the folds or fits of the cross-validation,
stream timelines of that dataset through ``cli anticipate --stream`` with a
checkpoint trained in set-up:

fusion  ``cli xval --arch frnn-el`` in-process, and a fusion checkpoint
        (hidden 64, the CLI default) for streaming.
aiohmm  the same folds fitted with one ``aiohmm.fit_em`` per class, as
        ``cli xval --arch aiohmm`` would, but each fit is called here so a
        fit that raises is counted instead of ending the run; each complete
        fold is scored with ``metrics.threshold_sweep`` and
        ``metrics.evaluate_dataset``.  Streaming uses a 5-class x 3-state
        AIO-HMM checkpoint.
"""

from __future__ import annotations

import io
import json
import logging
import sys
from contextlib import redirect_stdout
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from harness import RecordSink, StepFeed, patched
from maneuverkit import aiohmm, anticipation, cli, dataio, fusion_rnn, metrics, synth, training
from maneuverkit.events import EVENTS, STRAIGHT

XVAL_SEED = 2             # fold split; fold k trains with seed XVAL_SEED + k
EM_STATES = 3
EM_ITERS = 10
SESSION_SAMPLES = 12      # synth samples concatenated into one streamed timeline
STREAM_TRAIN_N = 100
STREAM_TRAIN_SEED = 0     # the streaming checkpoint is the same model in every run
P_TH = 0.8
GRID = [round(0.1 * i, 2) for i in range(2, 10)]  # the CLI's default threshold grid

DIP_TOL = 1e-8            # criterion 05: an EM trace may not drop by more than this
FUSION_TOL = 1e-12        # streamed vs fusion_rnn.forward
AIOHMM_TOL = 1e-10        # streamed vs AioHmmEnsemble.posterior on each prefix
SUM_TOL = 1e-9            # a streamed probability vector sums to 1 within this

# Criterion-06 floors on cross-validated session scores.
FLOORS = {
    "fusion": {"precision": 0.85, "recall": 0.80, "ttm_steps": 1.0},
    "aiohmm": {"precision": 0.70},
}

FUSION_STEP = "anticipation.FusionRnnPredictor.step"
AIOHMM_STEP = "anticipation.AioHmmPredictor.step"

# Every function is wrapped at the name its caller looks it up by.
TRACE_TARGETS = [
    (metrics, "cross_validate", "metrics.cross_validate"),
    (metrics, "threshold_sweep", "metrics.threshold_sweep"),
    (metrics, "evaluate_dataset", "metrics.evaluate_dataset"),
    (metrics, "trajectory", "metrics.trajectory"),
    (metrics, "anticipate", "metrics.anticipate"),
    (training, "train", "training.train"),
    (training.RmsProp, "step", "training.RmsProp.step"),
    (training, "anticipation_loss", "training.loss"),
    (training, "loss_logit_grads", "training.loss"),
    (fusion_rnn, "forward", "fusion_rnn.forward"),
    (fusion_rnn, "backward", "fusion_rnn.backward"),
    (fusion_rnn, "lstm_forward", "lstm.lstm_forward"),
    (fusion_rnn, "lstm_backward", "lstm.lstm_backward"),
    (anticipation, "lstm_step", "lstm.lstm_step"),
    (anticipation.FusionRnnPredictor, "step", FUSION_STEP),
    (anticipation.AioHmmPredictor, "step", AIOHMM_STEP),
    (anticipation, "emission_logprobs", "aiohmm.emission_logprobs.step"),
    (aiohmm, "emission_logprobs", "aiohmm.emission_logprobs.seq"),
    (aiohmm, "fit_em", "aiohmm.fit_em"),
    (aiohmm, "forward_backward", "aiohmm.forward_backward"),
    (aiohmm, "m_step", "aiohmm.m_step"),
    (dataio, "load_dataset", "dataio.load_dataset"),
    (dataio, "load_model", "dataio.load_model"),
    (synth, "generate", "synth.generate"),
]

_EVAL_SPANS = (
    "metrics.threshold_sweep", "metrics.evaluate_dataset", "metrics.trajectory",
    "metrics.anticipate", "dataio.load_dataset", "dataio.load_model",
)


@dataclass(frozen=True)
class Workload:
    name: str
    samples: int                        # cross-validation dataset, made from the run's seed
    folds: int
    checkpoint_flags: tuple[str, ...]   # `cli train` flags of the streaming checkpoint
    sessions: int                       # distinct timelines
    sessions_per_slot: int              # streamed after each fold's training (fusion) or fit (aiohmm)
    checked_sessions: int               # timelines compared with whole-sequence references
    step_span: str
    mapped: tuple[str, ...]             # spans that must record calls in a traced run


WORKLOADS = {
    "fusion": Workload(
        name="fusion",
        samples=600,
        folds=5,
        checkpoint_flags=("--arch", "frnn-el", "--hidden", "64", "--epochs", "2",
                          "--lr", "2e-3", "--seed", "2"),
        sessions=16,
        sessions_per_slot=2,
        checked_sessions=2,
        step_span=FUSION_STEP,
        mapped=(
            "training.train", "training.RmsProp.step", "training.loss", "fusion_rnn.forward",
            "fusion_rnn.backward", "lstm.lstm_forward", "lstm.lstm_backward", "lstm.lstm_step",
            FUSION_STEP, "metrics.cross_validate",
        ) + _EVAL_SPANS,
    ),
    "aiohmm": Workload(
        name="aiohmm",
        samples=240,
        folds=3,
        checkpoint_flags=("--arch", "aiohmm", "--states", str(EM_STATES),
                          "--em-iters", str(EM_ITERS), "--seed", "2"),
        sessions=8,
        sessions_per_slot=1,
        checked_sessions=1,
        step_span=AIOHMM_STEP,
        mapped=(
            "aiohmm.fit_em", "aiohmm.forward_backward", "aiohmm.m_step",
            "aiohmm.emission_logprobs.seq", "aiohmm.emission_logprobs.step", AIOHMM_STEP,
        ) + _EVAL_SPANS,
    ),
}


class SetupError(RuntimeError):
    pass


def _cli(argv: list[str]) -> None:
    with redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SetupError(f"`maneuverkit {' '.join(argv)}` exited with {code}")


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


@dataclass
class Context:
    workload: Workload
    data_path: Path
    model_path: Path
    checkpoint: object                  # the streaming model, as dataio loads it
    timelines: list                     # (xs, zs) per streamed session
    sessions: list                      # encoded step records per session
    outputs: tuple[bytes, ...]          # set-up files, compared across set-ups


def set_up(workload: Workload, work: Path, seed: int) -> Context:
    """Synthesize the dataset, train the streaming checkpoint, encode the timelines."""
    data = work / "data.jsonl"
    train_data = work / "stream_train.jsonl"
    model = work / "stream_model.json"
    _cli(["synth", "--n", str(workload.samples), "--seed", str(seed), "--out", str(data)])
    _cli(["synth", "--n", str(STREAM_TRAIN_N), "--seed", str(STREAM_TRAIN_SEED),
          "--out", str(train_data)])
    _cli(["train", "--data", str(train_data), *workload.checkpoint_flags, "--out", str(model)])
    dataset = dataio.load_dataset(data)
    checkpoint, _kind, _config = dataio.load_model(model)

    timelines, sessions = [], []
    for s in range(workload.sessions):
        chunk = dataset[s * SESSION_SAMPLES : (s + 1) * SESSION_SAMPLES]
        lines = []
        for sample in chunk:
            last = sample.length - 1
            for t in range(sample.length):
                record = {"x": sample.xs[t].tolist(), "z": sample.zs[t].tolist()}
                if t == last and EVENTS[sample.label] != STRAIGHT:
                    record["onset"] = EVENTS[sample.label]
                lines.append(json.dumps(record) + "\n")
        timelines.append((np.concatenate([c.xs for c in chunk]), np.concatenate([c.zs for c in chunk])))
        sessions.append(lines)
    return Context(
        workload=workload, data_path=data, model_path=model, checkpoint=checkpoint,
        timelines=timelines, sessions=sessions, outputs=(data.read_bytes(), model.read_bytes()),
    )


# ---------------------------------------------------------------------------
# One repetition
# ---------------------------------------------------------------------------


@dataclass
class Xval:
    report: bytes                       # byte-compared across repetitions
    quality: dict                       # mean session scores over folds; None if undefined
    train_units: list[tuple[float, float]]  # per fold: (when, seconds per sample-epoch or EM iteration)
    eval_units: list[tuple[float, float]]   # per scored fold: (when, sweep + evaluation seconds per sequence)
    attempted: int                      # folds (fusion) or per-class fits (aiohmm)
    failed: int
    test_seqs: int = 0                  # held-out sequences scored
    sample_epochs: int = 0
    em_iterations: int = 0
    failed_fits: int = 0
    dipping_fits: int = 0
    ridge_solves: int = 0
    floored_covariances: int = 0
    errors: list[str] = field(default_factory=list)


def xval_fusion(ctx: Context, between) -> Xval:
    """``cli xval`` in-process; ``between()`` runs after each fold's training."""
    trains: list[tuple[float, float, int, bool]] = []
    evals: list[tuple[str, float, float, int]] = []

    def probe_train(fn):
        def probed(dataset, model, config):
            start = perf_counter()
            report = fn(dataset, model, config)
            trains.append((start, perf_counter() - start, len(dataset) * config.epochs, report.aborted))
            between()
            return report
        return probed

    def probe_eval(fn, kind):
        def probed(predictor, dataset, arg):
            start = perf_counter()
            result = fn(predictor, dataset, arg)
            evals.append((kind, start, perf_counter() - start, len(dataset)))
            return result
        return probed

    out = ctx.data_path.parent / "xval_report.json"
    argv = ["xval", "--data", str(ctx.data_path), "--arch", "frnn-el", "--folds", str(ctx.workload.folds),
            "--hidden", "32", "--epochs", "3", "--lr", "2e-3", "--seed", str(XVAL_SEED),
            "--out", str(out)]
    out.unlink(missing_ok=True)
    with patched([
        (training, "train", probe_train(training.train)),
        (metrics, "threshold_sweep", probe_eval(metrics.threshold_sweep, "sweep")),
        (metrics, "evaluate_dataset", probe_eval(metrics.evaluate_dataset, "eval")),
    ]), redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0 or not out.exists():
        folds = ctx.workload.folds
        return Xval(b"", {}, [], [], folds, folds, errors=[f"cli xval exited with {code}"])

    report = out.read_bytes()
    doc = json.loads(report)
    eval_units, scored = [], 0
    for kind, start, seconds, n in evals:
        if kind == "sweep":
            eval_units.append([start, seconds, n])
            scored += n
        else:
            eval_units[-1][1] += seconds
    failed = sum(
        1 for (*_, aborted), fold in zip(trains, doc["folds"]) if aborted or fold["f1"] is None
    )
    return Xval(
        report=report,
        quality=dict(doc["mean"]),
        train_units=[(start, seconds / units) for start, seconds, units, _ in trains],
        eval_units=[(start, seconds / n) for start, seconds, n in eval_units],
        attempted=ctx.workload.folds,
        failed=failed,
        test_seqs=scored,
        sample_epochs=sum(units for _, _, units, _ in trains),
    )


class FitSummaries(logging.Handler):
    """Collects the (ridge solves, floored covariances) arguments of the
    summary record that ``aiohmm.fit_em`` logs at the end of a fit."""

    def __init__(self):
        super().__init__(level=logging.DEBUG)
        self.counts: list[tuple[int, int]] = []

    def emit(self, record: logging.LogRecord) -> None:
        if record.funcName == "fit_em" and isinstance(record.args, tuple) and len(record.args) == 2:
            self.counts.append((int(record.args[0]), int(record.args[1])))


def _finite_model(m: aiohmm.AioHmmModel) -> bool:
    return all(np.all(np.isfinite(getattr(m, name))) for name in ("mu", "a", "b", "sigma", "w", "pi"))


def xval_aiohmm(ctx: Context, between) -> Xval:
    """Per-class fits and per-fold scoring; ``between()`` runs after each fit."""
    summaries = FitSummaries()
    hmm_log = logging.getLogger(aiohmm.__name__)
    hmm_log.addHandler(summaries)
    try:
        return _xval_aiohmm(ctx, summaries, between)
    finally:
        hmm_log.removeHandler(summaries)


def _fit(seqs, config, summaries: FitSummaries, fit: dict, result: Xval):
    """One per-class EM fit; returns (usable model or None, seconds, iterations)."""
    summaries.counts.clear()
    start = perf_counter()
    try:
        model, trace = aiohmm.fit_em(seqs, config)
    except Exception as err:  # a crashed fit is a failed operation, not the end of the run
        fit["status"] = f"raised {type(err).__name__}: {err}"
        result.failed_fits += 1
        return None, 0.0, 0
    elapsed = perf_counter() - start
    ridge, floored = summaries.counts[-1] if summaries.counts else (0, 0)
    result.ridge_solves += ridge
    result.floored_covariances += floored
    fit.update(iterations=len(trace), ridge=ridge, floored=floored)
    if not (_finite_model(model) and np.all(np.isfinite(trace))):
        fit["status"] = "nonfinite"
        result.failed_fits += 1
        model = None
    elif len(trace) > 1 and float(np.min(np.diff(trace))) < -DIP_TOL:
        fit["status"] = f"dipped by {-float(np.min(np.diff(trace))):.3e}"
        result.dipping_fits += 1
    else:
        fit["status"] = "ok"
    return model, elapsed, len(trace)


def _xval_aiohmm(ctx: Context, summaries: FitSummaries, between) -> Xval:
    dataset = dataio.load_dataset(ctx.data_path)
    folds = synth.split_folds(dataset, ctx.workload.folds, XVAL_SEED)
    result = Xval(b"", {}, [], [], attempted=0, failed=0)
    fits, scores = [], []
    for k, test in enumerate(folds):
        train = [s for j, f in enumerate(folds) if j != k for s in f]
        config = aiohmm.EmConfig(
            states=EM_STATES, variant=aiohmm.VARIANT_AIO, max_iter=EM_ITERS, seed=XVAL_SEED + k
        )
        models, em_seconds, em_iterations = {}, 0.0, 0
        fold_start = perf_counter()
        for label, name in enumerate(EVENTS):
            seqs = [(s.xs, s.zs) for s in train if s.label == label]
            fit = {"fold": k, "event": name}
            model, seconds, iterations = _fit(seqs, config, summaries, fit, result)
            fits.append(fit)
            em_seconds += seconds
            em_iterations += iterations
            if model is not None:
                models[name] = model
            between()
        if em_iterations:
            result.train_units.append((fold_start, em_seconds / em_iterations))
        result.em_iterations += em_iterations
        if len(models) < len(EVENTS):
            continue  # no ensemble to score without a model for every class
        predictor = anticipation.AioHmmPredictor(aiohmm.AioHmmEnsemble(events=EVENTS, models=models))
        start = perf_counter()
        sweep = metrics.threshold_sweep(predictor, test, GRID)
        best = sweep.best
        if best is None:
            scores.append(metrics.FoldScore(None, None, None, None, GRID[0]))
        else:
            ev = metrics.evaluate_dataset(predictor, test, best.p_th)
            scores.append(metrics.FoldScore(ev.precision, ev.recall, ev.f1, ev.mean_ttm_steps, best.p_th))
        result.eval_units.append((start, (perf_counter() - start) / len(test)))
        result.test_seqs += len(test)

    result.attempted = len(fits)
    result.failed = result.failed_fits + result.dipping_fits
    result.report = json.dumps(
        {"folds": [asdict(s) for s in scores], "fits": fits}, sort_keys=True
    ).encode()
    if scores:
        agg = metrics.EvalReport(events=EVENTS, folds=scores, confusion=np.zeros((0, 0)))
        result.quality = {
            "precision": agg.precision_mean_stderr()[0], "recall": agg.recall_mean_stderr()[0],
            "f1": agg.f1_mean_stderr()[0], "ttm_steps": agg.ttm_mean_stderr()[0],
        }
    else:
        result.errors.append("no fold had a model for every class, so none was scored")
    return result


XVAL = {"fusion": xval_fusion, "aiohmm": xval_aiohmm}


class Streamer:
    """Streams the timelines through one `anticipate --stream` session each.

    Sessions run in slots of ``sessions_per_slot`` between the units of the
    cross-validation, cycling through the timelines, so the step latencies
    sample the whole measured window instead of one burst.  Each timeline's
    records must come out byte-identical every time it is streamed.
    """

    def __init__(self, ctx: Context, gauge):
        self.ctx = ctx
        self.gauge = gauge
        self.argv = ["anticipate", "--model", str(ctx.model_path), "--pth", str(P_TH), "--stream"]
        self.next_session = 0
        self.first_outputs: dict[int, str] = {}
        self.probs: dict[int, np.ndarray] = {}   # checked sessions, first run
        self.latencies: list[tuple[float, np.ndarray]] = []  # (session start, step latencies)
        self.ready: list[tuple[float, float]] = []
        self.overheads: list[float] = []         # latency minus predictor step (traced slots)
        self.steps = 0                           # over each distinct session's first run
        self.failed = 0
        self.commits = 0
        self.mismatches = 0

    def slot(self, tracer=None) -> None:
        for _ in range(self.ctx.workload.sessions_per_slot):
            self._session(self.next_session, tracer)
            self.next_session = (self.next_session + 1) % len(self.ctx.sessions)

    def _session(self, index: int, tracer) -> None:
        lines = self.ctx.sessions[index]
        feed, sink = StepFeed(lines), RecordSink()
        kept = tracer.durations[self.ctx.workload.step_span] if tracer is not None else None
        before = len(kept) if kept is not None else 0
        self.gauge.sample()
        saved_stdin = sys.stdin
        sys.stdin = feed
        start = perf_counter()
        try:
            with redirect_stdout(sink):
                cli.main(self.argv)
        finally:
            sys.stdin = saved_stdin
        if feed.handed:
            self.ready.append((start, feed.handed[0] - start))
        n = min(len(feed.handed), len(sink.flushed))
        latencies = np.asarray(sink.flushed[:n]) - np.asarray(feed.handed[:n])
        self.latencies.append((start, latencies))
        if kept is not None and len(kept) - before == n:
            self.overheads.extend((latencies - np.asarray(kept[before:])).tolist())

        text = sink.getvalue()
        if index in self.first_outputs:
            self.mismatches += text != self.first_outputs[index]
            return
        self.first_outputs[index] = text
        events = self.ctx.checkpoint.events
        probs = np.full((len(lines), len(events)), np.nan)
        for i, line in enumerate(text.splitlines()[: len(lines)]):
            try:
                record = json.loads(line)
                row = np.array([float(record["probs"][e]) for e in events])
                if record["t"] != i + 1:
                    continue
            except (ValueError, KeyError, TypeError):
                continue
            if np.all(np.isfinite(row)) and abs(float(row.sum()) - 1.0) <= SUM_TOL:
                probs[i] = row
            if "commit" in record:
                self.commits += 1
        self.steps += len(lines)
        self.failed += int(np.sum(np.isnan(probs[:, 0])))
        if index < self.ctx.workload.checked_sessions:
            self.probs[index] = probs


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_quality(workload: Workload, quality: dict) -> list[str]:
    problems = []
    for key, floor in FLOORS[workload.name].items():
        value = quality.get(key)
        if value is None or not value >= floor:
            problems.append(f"cross-validated {key} {value} is below the floor {floor}")
    return problems


def check_stream(streamer: Streamer) -> list[str]:
    """Compare streamed probabilities with independent whole-sequence references."""
    ctx = streamer.ctx
    problems = []
    if streamer.mismatches:
        problems.append(f"{streamer.mismatches} streamed session(s) differ from their first run")
    if len(streamer.probs) < ctx.workload.checked_sessions:
        problems.append("the checked sessions were not all streamed")
    for s, probs in sorted(streamer.probs.items()):
        xs, zs = ctx.timelines[s]
        if ctx.workload.name == "fusion":
            ref, _ = fusion_rnn.forward(ctx.checkpoint, xs, zs)
            tol = FUSION_TOL
        else:
            ref = np.array([ctx.checkpoint.posterior(xs[:t], zs[:t]) for t in range(1, len(xs) + 1)])
            tol = AIOHMM_TOL
        worst = float(np.max(np.abs(probs - ref)))
        if not worst <= tol:
            problems.append(f"session {s}: streamed probabilities differ from the reference by {worst:.3e}")
    return problems
