"""Command-line pipeline: synth, train, eval, anticipate, sweep, xval,
gradcheck, and report.

Every command logs its fully resolved configuration (including the seed) to
stderr before doing any work, so a run can be reproduced from its log line.
Relative data paths are also tried under $MANEUVERKIT_DATA_DIR when they do
not resolve directly.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import aiohmm, anticipation, dataio, fusion_rnn, metrics, synth, training
from .events import EVENTS, events_for_setting
from .numerics import make_rng

log = logging.getLogger("maneuverkit")

RNN_ARCHS = {
    "frnn-el": ("fusion", training.LOSS_EXPONENTIAL),
    "frnn-ul": ("fusion", training.LOSS_UNIFORM),
    "srnn": ("concat", training.LOSS_EXPONENTIAL),
}
HMM_ARCHS = {
    "aiohmm": aiohmm.VARIANT_AIO,
    "iohmm": aiohmm.VARIANT_IO,
    "hmm": aiohmm.VARIANT_HMM,
}
NETWORK_FLAGS = {"hidden": 64, "epochs": 10, "lr": 1e-4, "augment_factor": 1.0}  # read by the networks only
HMM_FLAGS = {"states": 3, "em_iters": 30}  # and by the latent-state archs only, each at its default
GRADCHECK_HIDDEN = 6  # hidden size of the network gradcheck draws


def _resolve_data(path: str) -> Path:
    p = Path(path)
    if p.exists():
        return p
    root = os.environ.get("MANEUVERKIT_DATA_DIR")
    if root and (Path(root) / path).exists():
        return Path(root) / path
    raise FileNotFoundError(f"data file not found: {path}")


def _log_config(command: str, args: argparse.Namespace) -> None:
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    log.info("%s config: %s", command, json.dumps(resolved, default=str))


def _grid(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad threshold grid {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("threshold grid is empty")
    return values


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    _log_config("synth", args)
    dataset = synth.generate(_scenario_config(args.config, args.seed), args.n)
    dataio.save_dataset(dataset, args.out)
    log.info("wrote %d samples to %s", len(dataset), args.out)
    return 0


def _scenario_config(path: str | None, seed: int) -> synth.ScenarioConfig:
    """The defaults, overridden by the JSON object of ScenarioConfig fields
    in the file at ``path`` when given; ``seed`` unless the file sets one.
    A bad file raises a DataFormatError that names it and the field."""
    if path is None:
        return synth.ScenarioConfig(seed=seed)
    try:
        overrides = json.loads(Path(path).read_text(encoding="utf-8"))
        if isinstance(overrides, dict):
            overrides = {"seed": seed, **overrides}
        return synth.ScenarioConfig.from_dict(overrides)
    except ValueError as err:
        raise dataio.DataFormatError(f"{path}: {err}") from None


@np.errstate(over="ignore", invalid="ignore")
def train_model(args, dataset, seed: int):
    """Train the ``args.arch`` model on ``dataset``; ``seed`` seeds everything
    random: the network's initialization, sample order and augmentation, or
    EM's starting point.

    Returns (model, checkpoint meta, training curve rows, aborted).  A
    diverged network comes back with its last finite state and aborted set.
    A flag of the other family of archs off its default is an error, as is
    an EM fit whose forward pass degenerates; overflow alone warns nowhere.
    """
    for name, default in (NETWORK_FLAGS if args.arch in HMM_ARCHS else HMM_FLAGS).items():
        if getattr(args, name) != default:  # NaN too
            raise ValueError(f"--{name.replace('_', '-')} does not apply to --arch {args.arch}, "
                             f"got {getattr(args, name)!r}")
    events = events_for_setting(args.setting)
    if args.arch in HMM_ARCHS:
        config = aiohmm.EmConfig(
            states=args.states, variant=HMM_ARCHS[args.arch], max_iter=args.em_iters, seed=seed
        )
        models = {}
        curve = [("event", "iteration", "loglik")]
        for name in events:
            label = EVENTS.index(name)
            seqs = [(s.xs, s.zs) for s in dataset if s.label == label]
            if not seqs:
                raise ValueError(f"dataset has no samples for event {name!r}")
            try:
                models[name], trace = aiohmm.fit_em(seqs, config)
            except FloatingPointError as err:
                raise ValueError(f"fit of event {name!r}: {err}") from None
            curve.extend((name, i, v) for i, v in enumerate(trace))
            log.info("fit %s: %d EM iterations, final loglik %.2f", name, len(trace), trace[-1])
        meta = {"arch": args.arch, "setting": args.setting, "em": config.to_dict()}
        return aiohmm.AioHmmEnsemble(events=events, models=models), meta, curve, False

    arch, loss_mode = RNN_ARCHS[args.arch]
    dataset = [s for s in dataset if EVENTS[s.label] in events]
    if not dataset:
        raise ValueError(f"dataset has no samples for the {args.setting!r} events {list(events)}")
    config = training.TrainConfig(loss_mode=loss_mode, learning_rate=args.lr, epochs=args.epochs,
                                  seed=seed, augmentation_factor=args.augment_factor)
    config.validate()
    if config.augmentation_factor > 1.0:
        dataset = training.augment(dataset, config.augmentation_factor, seed)
    model = fusion_rnn.init_fusion_model(arch, dataset[0].xs.shape[1], dataset[0].zs.shape[1],
                                         args.hidden, events, make_rng(seed))
    report = training.train(dataset, model, config)
    meta = {"arch": args.arch, "setting": args.setting, "train": config.to_dict(), "hidden": args.hidden}
    curve = [("epoch", "mean_loss")] + list(enumerate(report.epoch_losses))
    return report.model, meta, curve, report.aborted


def fold_trainer(args):
    """The ``cross_validate`` trainer for ``args``: fold k trains with seed
    ``args.seed + k``, and a diverged network is scored with its last
    finite state."""

    def trainer(train_samples, fold: int) -> anticipation.Predictor:
        return _predictor(train_model(args, train_samples, args.seed + fold)[0])

    return trainer


def cmd_train(args) -> int:
    _log_config("train", args)
    dataset = dataio.load_dataset(_resolve_data(args.data))
    if not dataset:
        raise ValueError("training dataset is empty")
    model, meta, curve, aborted = train_model(args, dataset, args.seed)
    if aborted:
        raise RuntimeError("training diverged; checkpoint holds the last finite state")
    dataio.save_model(model, meta, args.out)
    log.info("checkpoint written to %s", args.out)
    if args.curve_out:
        with open(args.curve_out, "w", encoding="utf-8", newline="\n") as fh:
            for row in curve:
                fh.write(",".join(str(v) for v in row) + "\n")
        log.info("training curve written to %s", args.curve_out)
    return 0


def _predictor(model) -> anticipation.Predictor:
    """The predictor for a fusion network or an AIO-HMM ensemble."""
    if isinstance(model, fusion_rnn.FusionRnnModel):
        return anticipation.FusionRnnPredictor(model)
    return anticipation.AioHmmPredictor(model)


def _load_predictor(path: str) -> tuple[anticipation.Predictor, tuple[int, int]]:
    """The checkpoint's predictor, over the full prefix of its streams, and
    its (x, z) input sizes."""
    model, kind, _config = dataio.load_model(path)
    if kind == dataio.KIND_FUSION:
        sizes = (model.input_x, model.input_z)
    else:
        first = model.models[model.events[0]]
        sizes = (first.dim_x, first.dim_z)
    return _predictor(model), sizes


def _load_model_data(model_path: str, sizes: tuple[int, int], data_path: str) -> list:
    """The dataset at ``data_path``, checked against the (x, z) input sizes
    of the checkpoint at ``model_path``."""
    path = _resolve_data(data_path)
    dataset = dataio.load_dataset(path)
    if dataset:
        found = (dataset[0].xs.shape[1], dataset[0].zs.shape[1])
        if found != sizes:
            raise ValueError(
                f"{path} has (x, z) sizes {found}, but the model {model_path} "
                f"expects {sizes}"
            )
    return dataset


def _eval_report_dict(ev: metrics.DatasetEval, p_th: float) -> dict:
    macro_pr, macro_re = ev.macro_scores()
    return {
        "kind": "eval",
        "events": list(ev.events),
        "p_th": p_th,
        "counts": {"tp": ev.counts.tp, "fp": ev.counts.fp, "fpp": ev.counts.fpp, "mp": ev.counts.mp},
        "ttm_steps": ev.mean_ttm_steps,
        "confusion": ev.confusion.tolist(),
        "session": {"precision": ev.precision, "recall": ev.recall, "f1": ev.f1},
        "macro": {"precision": macro_pr, "recall": macro_re, "f1": metrics.f1_score(macro_pr, macro_re)},
    }


def cmd_eval(args) -> int:
    _log_config("eval", args)
    predictor, sizes = _load_predictor(args.model)
    dataset = _load_model_data(args.model, sizes, args.data)
    ev = metrics.evaluate_dataset(predictor, dataset, args.pth)
    _emit_report(_eval_report_dict(ev, args.pth), args.out)
    return 0


def _emit_report(doc: dict, out: str | None) -> None:
    """Print a report as ``report --format text`` renders it, and save it to
    ``out`` when given."""
    print(_report_text(doc))
    if out:
        dataio.save_report(doc, out)
        log.info("report written to %s", out)


def cmd_anticipate(args) -> int:
    _log_config("anticipate", args)
    predictor, sizes = _load_predictor(args.model)
    if args.stream:
        return _stream_loop(predictor, args.pth, sizes)
    if not args.data:
        raise ValueError("anticipate needs --data unless --stream is given")
    dataset = _load_model_data(args.model, sizes, args.data)
    for sample, result in zip(dataset, metrics.anticipate_dataset(predictor, dataset, args.pth)):
        print(json.dumps({
            "id": sample.id, "predicted": predictor.events[result.maneuver],
            "actual": EVENTS[sample.label], "t_pred": result.t_pred,
            "ttm_steps": result.time_to_maneuver_steps,
            "ttm_seconds": result.time_to_maneuver_seconds,
        }))
    return 0


def _stream_loop(predictor: anticipation.Predictor, p_th: float, sizes: tuple[int, int]) -> int:
    """Read step records from stdin, emit one probability record per step.

    Input lines: {"x": [...], "z": [...]} with an optional "onset": label
    key marking the start of one of the predictor's events.  A step record
    carries a "commit" entry exactly when ``anticipation.CommitTracker``, the
    stick rule of session scoring, commits at that step.  The first
    malformed record, or the first step whose probabilities are not finite
    (a finite but extreme record can overflow the model, and every later
    step would carry the NaN), ends the stream with a ValueError that names
    its 1-based input line.  That check is the guard against overflow, so
    NumPy's overflow and invalid-value warnings are off for the whole stream.
    """
    tracker = anticipation.CommitTracker(predictor.events, p_th)
    state = predictor.begin()
    t = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for lineno, line in enumerate(sys.stdin, 1):
            line = line.strip()
            if not line:
                continue
            x, z, onset = _parse_step(line, lineno, sizes, predictor.events)
            t += 1
            state, probs = predictor.step(state, x, z)
            values = probs.tolist()
            if not all(map(math.isfinite, values)):  # cheaper than np.isfinite here
                raise ValueError(f"stdin line {lineno}: the step's probabilities are not finite")
            out = {"t": t, "probs": dict(zip(predictor.events, values))}
            commit, _ = tracker.step(t, probs, onset)
            if commit is not None:
                out["commit"] = {"event": predictor.events[commit], "p": values[commit]}
            print(json.dumps(out), flush=True)
    return 0


def _parse_step(
    line: str, lineno: int, sizes: tuple[int, int], events: tuple[str, ...]
) -> tuple[np.ndarray, np.ndarray, int | None]:
    """Decode one stream record into (x, z, onset event index or None), or
    raise a ValueError that names the input line and the offending field."""
    where = f"stdin line {lineno}"
    try:
        record = json.loads(line)
    except json.JSONDecodeError as err:
        raise ValueError(f"{where}: not a JSON record ({err.msg})") from None
    if not isinstance(record, dict):
        raise ValueError(f"{where}: expected a JSON object with fields 'x' and 'z'")
    vectors = []
    for field, size in zip(("x", "z"), sizes):
        if field not in record:
            raise ValueError(f"{where}: missing field {field!r}")
        try:
            vectors.append(dataio.parse_vector(record[field], field, (size,)))
        except dataio.DataFormatError as err:
            raise ValueError(f"{where}: {err}") from None
    onset = record.get("onset")
    if onset is not None and onset not in events:
        raise ValueError(f"{where}: field 'onset' is {onset!r}, not one of {list(events)}")
    return vectors[0], vectors[1], None if onset is None else events.index(onset)


def cmd_sweep(args) -> int:
    _log_config("sweep", args)
    predictor, sizes = _load_predictor(args.model)
    dataset = _load_model_data(args.model, sizes, args.data)
    sweep = metrics.threshold_sweep(predictor, dataset, args.grid)
    rows = [
        {
            "p_th": p.p_th, "precision": p.precision, "recall": p.recall,
            "f1": p.f1, "ttm_steps": p.mean_ttm_steps, "best": i == sweep.best_index,
        }
        for i, p in enumerate(sweep.points)
    ]
    _emit_report({"kind": "sweep", "points": rows}, args.out)
    return 0


def cmd_xval(args) -> int:
    _log_config("xval", args)
    dataset = dataio.load_dataset(_resolve_data(args.data))
    events = events_for_setting(args.setting)
    dataset = [s for s in dataset if EVENTS[s.label] in events]
    report = metrics.cross_validate(dataset, args.folds, fold_trainer(args), args.seed, args.grid)
    _emit_report(_xval_report_dict(report, args), args.out)
    return 0


def _xval_report_dict(report: metrics.EvalReport, args) -> dict:
    pr, pr_se = report.precision_mean_stderr()
    re_, re_se = report.recall_mean_stderr()
    f1, f1_se = report.f1_mean_stderr()
    ttm, ttm_se = report.ttm_mean_stderr()
    return {
        "kind": "xval",
        "arch": args.arch,
        "events": list(report.events),
        "folds": [
            {
                "precision": f.precision, "recall": f.recall, "f1": f.f1,
                "ttm_steps": f.mean_ttm_steps, "p_th": f.p_th,
            }
            for f in report.folds
        ],
        "mean": {"precision": pr, "recall": re_, "f1": f1, "ttm_steps": ttm},
        "stderr": {"precision": pr_se, "recall": re_se, "f1": f1_se, "ttm_steps": ttm_se},
        "confusion": report.confusion.tolist(),
    }


def cmd_gradcheck(args) -> int:
    _log_config("gradcheck", args)
    if args.arch not in RNN_ARCHS:
        raise ValueError(f"gradcheck applies to the network archs, not {args.arch!r}")
    arch, loss_mode = RNN_ARCHS[args.arch]
    rng = make_rng(args.seed)
    model = fusion_rnn.init_fusion_model(arch, 6, 9, GRADCHECK_HIDDEN, EVENTS, rng)
    xs = rng.standard_normal((args.steps, 6))
    zs = rng.standard_normal((args.steps, 9))
    target = int(rng.integers(0, len(EVENTS)))
    config = training.TrainConfig(loss_mode=loss_mode, seed=args.seed)
    report = training.gradient_check(model, xs, zs, target, config, tol=args.tol)
    for name, err in sorted(report.block_errors.items()):
        print(f"{name:>14}  {err:.3e}")
    status = "PASS" if report.passed else "FAIL"
    print(
        f"{status}: worst block {report.worst_block} at "
        f"{report.block_errors[report.worst_block]:.3e} (tol {report.tolerance:.1e})"
    )
    return 0 if report.passed else 1


def cmd_report(args) -> int:
    _log_config("report", args)
    doc = dataio.load_report(args.infile)
    render = _report_text if args.format == "text" else _report_csv
    try:
        text = render(doc)
    except KeyError as err:
        raise dataio.DataFormatError(
            f"{args.infile}: {doc.get('kind')!r} report lacks field {err.args[0]!r}"
        ) from None
    except (TypeError, ValueError, AttributeError) as err:
        raise dataio.DataFormatError(f"{args.infile}: malformed report ({err})") from None
    print(text)
    return 0


SCORES = ("precision", "recall", "f1", "ttm_steps")


def _report_text(doc: dict) -> str:
    """The text rendering of a report; also the stdout of eval, sweep and xval."""
    kind = doc.get("kind", "?")
    if kind == "eval":
        lines = [f"evaluation at p_th={doc['p_th']}"]
        c = doc["counts"]
        lines.append(f"  counts: tp={c['tp']} fp={c['fp']} fpp={c['fpp']} mp={c['mp']}")
        for section in ("session", "macro"):
            if section in doc:
                s = doc[section]
                lines.append(
                    f"  {section}: precision={_num(s['precision'])} "
                    f"recall={_num(s['recall'])} f1={_num(s['f1'])}"
                )
        lines.append(f"  time-to-maneuver: {_num(doc['ttm_steps'])} steps")
    elif kind == "xval":
        lines = [f"cross-validation ({doc.get('arch', '?')})"]
        for i, f in enumerate(doc["folds"]):
            lines.append(
                f"  fold {i}: precision={_num(f['precision'])} recall={_num(f['recall'])} "
                f"f1={_num(f['f1'])} ttm={_num(f['ttm_steps'])} @ p_th={f['p_th']}"
            )
        m, s = doc["mean"], doc["stderr"]
        lines += [f"  {key}: {_num(m[key])} +/- {_num(s[key])}" for key in SCORES]
    elif kind == "sweep":
        lines = [
            f"  p_th={p['p_th']} precision={_num(p['precision'])} "
            f"recall={_num(p['recall'])} f1={_num(p['f1'])}" + (" *" if p["best"] else "")
            for p in doc["points"]
        ]
    else:
        return json.dumps(doc, indent=2)
    events, confusion = doc.get("events"), doc.get("confusion")
    if events and confusion is not None:
        lines.append("  confusion (rows = predicted, cols = actual):")
        lines.append(_confusion_row("", [e[:10] for e in events]))
        lines += [_confusion_row(e[:10], [int(v) for v in row]) for e, row in zip(events, confusion)]
    return "\n".join(lines)


def _confusion_row(head: str, cells: list) -> str:
    return f"    {head:>10} " + " ".join(f"{v:>10}" for v in cells)


def _report_csv(doc: dict) -> str:
    kind = doc.get("kind", "?")
    if kind == "eval":
        lines = ["metric,value"]
        c = doc["counts"]
        lines += [f"{k},{c[k]}" for k in ("tp", "fp", "fpp", "mp")]
        for section in ("session", "macro"):
            if section in doc:
                lines += [f"{section}_{k},{_num(v)}" for k, v in doc[section].items()]
        lines.append(f"ttm_steps,{_num(doc['ttm_steps'])}")
    elif kind == "xval":
        lines = ["fold,precision,recall,f1,ttm_steps,p_th"]
        lines += [
            f"{i}," + ",".join(_num(f[key]) for key in SCORES) + f",{f['p_th']}"
            for i, f in enumerate(doc["folds"])
        ]
        lines += [f"{row}," + ",".join(_num(doc[row][key]) for key in SCORES) + ","
                  for row in ("mean", "stderr")]
    elif kind == "sweep":
        lines = ["p_th,precision,recall,f1,ttm_steps,best"]
        lines += [
            f"{p['p_th']}," + ",".join(_num(p[key]) for key in SCORES) + f",{int(p['best'])}"
            for p in doc["points"]
        ]
    else:
        raise ValueError(f"cannot render report of kind {kind!r} as CSV")
    events, confusion = doc.get("events"), doc.get("confusion")
    if events and confusion is not None:
        lines.append("confusion," + ",".join(events))
        lines += [f"{e}," + ",".join(str(int(v)) for v in row) for e, row in zip(events, confusion)]
    return "\n".join(lines)


def _num(v) -> str:
    return "undef" if v is None else f"{v:.6g}"


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--arch", required=True, choices=sorted(list(RNN_ARCHS) + list(HMM_ARCHS)))
    p.add_argument("--hidden", type=int, help="LSTM hidden size per stream")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--augment-factor", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--setting", choices=("all", "lane", "turn"), default="all")
    p.add_argument("--states", type=int, help="latent states for the HMM-family archs")
    p.add_argument("--em-iters", type=int)
    p.set_defaults(**NETWORK_FLAGS, **HMM_FLAGS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="maneuverkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scenario dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="JSON file of ScenarioConfig overrides")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--curve-out", help="CSV of the training loss / loglik curve")
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--pth", type=float, default=0.7)
    p.add_argument("--out", help="write a JSON report")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("anticipate", help="run streaming anticipation")
    p.add_argument("--model", required=True)
    p.add_argument("--pth", type=float, default=0.7)
    p.add_argument("--data", help="dataset file (one decision per sample)")
    p.add_argument("--stream", action="store_true", help="read step records from stdin")
    p.set_defaults(func=cmd_anticipate)

    p = sub.add_parser("sweep", help="sweep the prediction threshold")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--grid", type=_grid, default=[round(0.1 * i, 2) for i in range(2, 10)])
    p.add_argument("--out", help="write a JSON report")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("xval", help="k-fold cross-validated evaluation")
    p.add_argument("--data", required=True)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--grid", type=_grid, default=[round(0.1 * i, 2) for i in range(2, 10)])
    p.add_argument("--out", help="write a JSON report")
    _add_train_flags(p)
    p.set_defaults(func=cmd_xval)

    p = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    p.add_argument("--arch", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--steps", type=int, default=6)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("report", help="render a saved JSON report")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=("csv", "text"), default="text")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, dataio.DataFormatError, RuntimeError) as err:
        log.error("%s", err)
        return 1


if __name__ == "__main__":
    sys.exit(main())
