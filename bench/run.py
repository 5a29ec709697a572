"""maneuverkit benchmark.

    python3 bench/run.py --workload {fusion,aiohmm} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  The run sets up once, then repeats the workload's
cross-validation until ``--seconds`` have passed (at least twice), with
streaming sessions between its folds and one more set-up after each
repetition (``setup_s`` is the median set-up).  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it alternates untraced
and traced repetitions and reports per-layer metrics from the traced ones.
Outputs are checked in both modes.  The last line of stdout is the result;
the line before it is the run record.  See README.md.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # single-threaded BLAS, set before NumPy loads
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "maneuverkit"


def _median(values):
    return float(statistics.median(values))


def _src_lines() -> int:
    return sum(
        1 for path in sorted(PACKAGE.rglob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines() if line.strip()
    )


def _end_to_end(scale, setups, reps, streamer, peak_rss_mb):
    """End-to-end metrics, each timing scaled by ``scale(when)``."""
    import numpy as np

    def scaled(units):
        # No units means no scored fold, which the checks already report.
        return _median([value * scale(t) for t, value in units]) if units else 0.0

    sessions = np.array([np.percentile(lat, [50, 90]) * scale(t)
                         for t, lat in streamer.latencies if len(lat)])
    return {
        "setup_s": (scaled(setups), "s"),
        "train_unit_ms": (1e3 * scaled([u for rep in reps for u in rep.xval.train_units]), "ms"),
        "eval_seq_ms": (1e3 * scaled([u for rep in reps for u in rep.xval.eval_units]), "ms"),
        "step_p50_us": (1e6 * float(np.median(sessions[:, 0])), "us"),
        "step_p90_us": (1e6 * float(np.median(sessions[:, 1])), "us"),
        "stream_ready_ms": (1e3 * scaled(streamer.ready), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _per_layer(tracer, setup_tracer, setups, streamer, traced, untraced, cpu_ratio):
    from maneuverkit.anticipation import STEP_SECONDS
    from workloads import AIOHMM_STEP, FUSION_STEP

    n = len(traced)
    first = traced[0]

    def s(span):
        return tracer.seconds(span) / n

    def self_s(span):
        return tracer.self_seconds(span) / n

    def calls(span):
        return tracer.calls(span) / n

    quality = first.xval.quality
    overheads = streamer.overheads
    train_s = tracer.seconds("training.train")
    sample_epochs = sum(rep.xval.sample_epochs for rep in traced)
    scored = first.xval.test_seqs
    trajectories = calls("metrics.trajectory") + calls("metrics.anticipate")
    overhead = _median([r.wall for r in traced]) - _median([r.wall for r in untraced])
    return {
        "training.train.s": (s("training.train"), "s"),
        "training.train.self_s": (self_s("training.train"), "s"),
        "training.RmsProp.step.s": (s("training.RmsProp.step"), "s"),
        "training.RmsProp.step.calls": (calls("training.RmsProp.step"), "count"),
        "training.loss.s": (s("training.loss"), "s"),
        "training.sample_epochs_per_s": (sample_epochs / train_s if train_s else 0.0, "1/s"),
        "fusion_rnn.forward.s": (s("fusion_rnn.forward"), "s"),
        "fusion_rnn.forward.self_s": (self_s("fusion_rnn.forward"), "s"),
        "fusion_rnn.forward.calls": (calls("fusion_rnn.forward"), "count"),
        "fusion_rnn.backward.s": (s("fusion_rnn.backward"), "s"),
        "fusion_rnn.backward.self_s": (self_s("fusion_rnn.backward"), "s"),
        "lstm.lstm_forward.s": (s("lstm.lstm_forward"), "s"),
        "lstm.lstm_backward.s": (s("lstm.lstm_backward"), "s"),
        "lstm.lstm_step.s": (s("lstm.lstm_step"), "s"),
        "lstm.lstm_step.calls": (calls("lstm.lstm_step"), "count"),
        "anticipation.FusionRnnPredictor.step.s": (s(FUSION_STEP), "s"),
        "anticipation.FusionRnnPredictor.step.self_s": (self_s(FUSION_STEP), "s"),
        "cli.stream_overhead_us": (1e6 * _median(overheads) if overheads else 0.0, "us"),
        "aiohmm.fit_em.s": (s("aiohmm.fit_em"), "s"),
        "aiohmm.fit_em.calls": (calls("aiohmm.fit_em"), "count"),
        "aiohmm.em_iterations": (first.xval.em_iterations, "count"),
        "aiohmm.forward_backward.s": (s("aiohmm.forward_backward"), "s"),
        "aiohmm.forward_backward.self_s": (self_s("aiohmm.forward_backward"), "s"),
        "aiohmm.m_step.s": (s("aiohmm.m_step"), "s"),
        "aiohmm.emission_logprobs.seq_s": (s("aiohmm.emission_logprobs.seq"), "s"),
        "anticipation.AioHmmPredictor.step.s": (s(AIOHMM_STEP), "s"),
        "anticipation.AioHmmPredictor.step.self_s": (self_s(AIOHMM_STEP), "s"),
        "anticipation.AioHmmPredictor.step.calls": (calls(AIOHMM_STEP), "count"),
        "aiohmm.emission_logprobs.step_s": (s("aiohmm.emission_logprobs.step"), "s"),
        "metrics.cross_validate.s": (s("metrics.cross_validate"), "s"),
        "metrics.threshold_sweep.s": (s("metrics.threshold_sweep"), "s"),
        "metrics.evaluate_dataset.s": (s("metrics.evaluate_dataset"), "s"),
        "anticipation.trajectories_per_test_seq": (trajectories / scored if scored else 0.0, "ratio"),
        "aiohmm.failed_fits": (first.xval.failed_fits, "count"),
        "aiohmm.dipping_fits": (first.xval.dipping_fits, "count"),
        "aiohmm.ridge_solves": (first.xval.ridge_solves, "count"),
        "aiohmm.floored_covariances": (first.xval.floored_covariances, "count"),
        "dataio.load_dataset.s": (s("dataio.load_dataset"), "s"),
        "dataio.load_model.s": (s("dataio.load_model"), "s"),
        "synth.generate.s": (setup_tracer.seconds("synth.generate") / setups, "s"),
        "anticipation.commits": (streamer.commits, "count"),
        "metrics.precision": (quality.get("precision") or 0.0, "ratio"),
        "metrics.recall": (quality.get("recall") or 0.0, "ratio"),
        "metrics.f1": (quality.get("f1") or 0.0, "ratio"),
        "metrics.ttm_s": ((quality.get("ttm_steps") or 0.0) * STEP_SECONDS, "s"),
        "run.cpu_wall_ratio": (cpu_ratio, "ratio"),
        "run.tracing_overhead": (overhead, "s"),
        "run.src_lines": (_src_lines(), "count"),
    }


@dataclass
class Rep:
    xval: object
    wall: float
    traced: bool


def run(args) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    import numpy as np

    import workloads
    from harness import HostGauge, Tracer

    wl = workloads.WORKLOADS[args.workload]
    tracer = Tracer(keep=(workloads.FUSION_STEP, workloads.AIOHMM_STEP))
    setup_tracer = Tracer()
    problems: list[str] = []
    unscaled = None

    def set_up():
        gauge.sample()
        start = perf_counter()
        if args.trace:
            with setup_tracer.install(workloads.TRACE_TARGETS):
                ctx = workloads.set_up(wl, work, args.seed)
        else:
            ctx = workloads.set_up(wl, work, args.seed)
        setups.append((start, perf_counter() - start))
        gauge.sample()
        return ctx

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=scratch))
    try:
        gauge = HostGauge()
        setups: list[tuple[float, float]] = []
        ctx = set_up()
        streamer = workloads.Streamer(ctx, gauge)
        xval = workloads.XVAL[wl.name]
        reps: list[Rep] = []
        start, cpu_start = perf_counter(), process_time()
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            rep_start = perf_counter()
            if traced:
                # Streaming inside a traced cross-validation would land in its
                # spans, so a traced repetition streams its slots afterwards.
                slots = []
                with tracer.install(workloads.TRACE_TARGETS):
                    result = xval(ctx, lambda: slots.append(None))
                    for _ in slots:
                        streamer.slot(tracer)
            else:
                result = xval(ctx, streamer.slot)
            reps.append(Rep(result, perf_counter() - rep_start, traced))
            if set_up().outputs != ctx.outputs:
                problems.append("set-up outputs differ between set-ups")
            if len(reps) >= 2 and perf_counter() - start >= args.seconds:
                break
        cpu_ratio = (process_time() - cpu_start) / (perf_counter() - start)

        first = reps[0]
        problems += first.xval.errors
        if any(r.xval.report != first.xval.report for r in reps):
            problems.append("cross-validation reports differ between repetitions")
        if first.xval.quality:
            problems += workloads.check_quality(wl, first.xval.quality)
        problems += workloads.check_stream(streamer)

        if args.trace:
            for span in wl.mapped:
                if tracer.calls(span) == 0:
                    problems.append(f"traced run recorded no calls to {span}")
            if setup_tracer.calls("synth.generate") == 0:
                problems.append("traced run recorded no calls to synth.generate")
            metrics = _per_layer(tracer, setup_tracer, len(setups), streamer,
                                 [r for r in reps if r.traced], [r for r in reps if not r.traced],
                                 cpu_ratio)
        else:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = _end_to_end(gauge.scale, setups, reps, streamer, peak)
            unscaled = {name: value for name, (value, _unit) in
                        _end_to_end(lambda t: 1.0, setups, reps, streamer, peak).items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "repetitions": len(reps),
        "traced_repetitions": sum(r.traced for r in reps),
        "setups": len(setups),
        "stream_sessions": len(streamer.ready),
        "gauge_samples": len(gauge.durations),
        "gauge_median_s": _median(gauge.durations),
        "unscaled": unscaled,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "cpu_wall_ratio": cpu_ratio,
        "src_lines": _src_lines(),
        "quality": first.xval.quality,
        "xval_attempted": first.xval.attempted,
        "xval_failed": first.xval.failed,
        "stream_steps": streamer.steps,
        "stream_failed": streamer.failed,
        "report": json.loads(first.xval.report) if first.xval.report else None,
        "problems": problems,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not problems,
        "attempted": first.xval.attempted + streamer.steps,
        "failed": first.xval.failed + streamer.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fusion", "aiohmm"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (PACKAGE / "__init__.py").is_file():
        print(f"maneuverkit sources not found under {PACKAGE.parent}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
