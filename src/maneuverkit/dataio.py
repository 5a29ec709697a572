"""On-disk formats: JSONL datasets, model checkpoints, JSON reports.

Datasets are one JSON object per line:

    {"id": "...", "label": "left_lane", "steps": [{"x": [6 numbers],
     "z": [9 or 12 numbers]}, ...], "meta": {...}}

A line ends at a newline (LF); a carriage return, before it or between JSON
tokens, is whitespace.  The file is read once, as bytes, and each line is
decoded as UTF-8 where it is read, so the first fault in file order is the
one named.

Checkpoints are one line of JSON, the header, then the parameters' raw
bytes:

    {"format_version": 6, "kind": "fusion_rnn" | "aio_hmm", "config": {...}, "params": {...}}
    <8 * len(theta) bytes>

The header is ASCII without a newline, so ``head -n 1`` shows the sizes,
events and config.  A model's parameters are one vector ``theta``, written
after the header as little-endian IEEE-754 doubles in C order: the bytes are
the doubles themselves, so save/load round trips are bit-exact.  A fusion
network's ``params`` hold ``arch``, ``input_x``, ``input_z``, ``hidden`` and
``events``; its ``theta`` runs in the layout of
:class:`~maneuverkit.fusion_rnn.FusionRnnModel` (the order of
:func:`~maneuverkit.fusion_rnn.param_blocks`).  An AIO-HMM ensemble's hold
``variant``, ``states``, ``input_x``, ``input_z`` and ``events``; its
``theta`` is the class prior (one value per event), then, for each event in
``events`` order, its ``mu``, ``a``, ``b``, ``sigma``, ``w`` and ``pi``, each
in C order with the shapes of :func:`~maneuverkit.aiohmm.param_shapes`.
The readers only parse and cut: each model's constructor is the one check
of a valid model, each class of an ensemble included, so ``save_model``
cannot write a checkpoint that ``load_model`` refuses.  A header key the
loader does not read is refused.  A payload that is not a whole number of
doubles is refused, and so is a ``theta`` whose length is not the one the
declared sizes lay out, before anything is allocated.  NaN or Inf
anywhere in a model is a save-time error, and a load-time one.  A
checkpoint of any other ``format_version``, including every older file (a
single indented JSON document), is refused with a message to retrain.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

from .aiohmm import AioHmmEnsemble, AioHmmModel, param_shapes
from .events import EVENTS, validate_events
from .fusion_rnn import FusionRnnModel
from .synth import SequenceSample

FORMAT_VERSION = 6
KIND_FUSION = "fusion_rnn"
KIND_AIOHMM = "aio_hmm"


class DataFormatError(ValueError):
    """A file violated the dataset or checkpoint contract."""


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


def save_dataset(dataset: list[SequenceSample], path: str | Path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for s in dataset:
            record = {
                "id": s.id,
                "label": EVENTS[s.label],
                "steps": [
                    {"x": x, "z": z}
                    for x, z in zip(np.asarray(s.xs, dtype=float).tolist(),
                                    np.asarray(s.zs, dtype=float).tolist())
                ],
            }
            if s.meta:
                record["meta"] = s.meta
            fh.write(json.dumps(record, allow_nan=False) + "\n")


def load_dataset(path: str | Path) -> list[SequenceSample]:
    """Parse and validate a JSONL dataset in one pass over its bytes; each
    line is decoded as UTF-8 where it is read, so the first fault in file
    order is the one named, with its line number."""
    path = Path(path)
    samples: list[SequenceSample] = []
    z_dim: int | None = None
    with path.open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as err:
                raise DataFormatError(f"{path}:{lineno}: not UTF-8 text ({err})") from None
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                raise DataFormatError(f"{path}:{lineno}: malformed JSON ({err})") from None
            samples.append(_parse_sample(record, path, lineno))
            z_now = samples[-1].zs.shape[1]
            if z_dim is None:
                z_dim = z_now
            elif z_now != z_dim:
                raise DataFormatError(
                    f"{path}:{lineno}: z has length {z_now}, but earlier lines use {z_dim}"
                )
    return samples


def _parse_sample(record: dict, path: Path, lineno: int) -> SequenceSample:
    def fail(msg: str) -> DataFormatError:
        return DataFormatError(f"{path}:{lineno}: {msg}")

    if not isinstance(record, dict):
        raise fail("each line must be a JSON object")
    for key in ("id", "label", "steps"):
        if key not in record:
            raise fail(f"missing required key {key!r}")
    label = record["label"]
    if label not in EVENTS:
        raise fail(f"unknown label {label!r}; expected one of {list(EVENTS)}")
    steps = record["steps"]
    if not isinstance(steps, list) or not steps:
        raise fail("'steps' must be a nonempty list")
    xs, zs = [], []
    for i, step in enumerate(steps):
        if not isinstance(step, dict) or "x" not in step or "z" not in step:
            raise fail(f"step {i} must be an object with 'x' and 'z'")
        try:
            x = parse_vector(step["x"], "x", (6,))
            z = parse_vector(step["z"], "z", (9, 12))
        except DataFormatError as err:
            raise fail(f"step {i}: {err}") from None
        if zs and len(z) != len(zs[0]):
            raise fail(f"step {i}: z has length {len(z)}, but earlier steps use {len(zs[0])}")
        xs.append(x)
        zs.append(z)
    return SequenceSample(
        id=str(record["id"]), xs=np.array(xs), zs=np.array(zs), label=EVENTS.index(label),
        meta=record.get("meta", {}),
    )


_NUMBER_TYPES = {int, float}


def parse_vector(value, field: str, sizes: tuple[int, ...]) -> np.ndarray:
    """``value``, a JSON list of numbers, as a finite float vector whose
    length is one of ``sizes``.  JSON strings and booleans are not numbers
    here, although NumPy would convert them.

    A fault raises DataFormatError naming the field; callers prefix it with
    the location (file, line and step, or stream line).  The list's own
    elements are checked before its one conversion to an array.
    """
    finite = None
    if isinstance(value, list) and len(value) in sizes and _NUMBER_TYPES.issuperset(map(type, value)):
        try:  # every element, so an integer beyond the float range is found wherever it is
            finite = list(map(math.isfinite, value))
        except OverflowError:
            pass
    if finite is None:
        raise DataFormatError(
            f"field {field!r} must be a list of {' or '.join(map(str, sizes))} numbers"
        )
    if not all(finite):
        raise DataFormatError(f"field {field!r} must be finite")
    return np.array(value, float)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


HEADER_FIELDS = {"format_version", "kind", "config", "params"}
PARAM_FIELDS = {
    KIND_FUSION: {"arch", "input_x", "input_z", "hidden", "events"},
    KIND_AIOHMM: {"variant", "states", "input_x", "input_z", "events"},
}


def save_model(model, config: dict, path: str | Path) -> None:
    """Write a fusion network or an AIO-HMM ensemble checkpoint."""
    if isinstance(model, FusionRnnModel):
        kind, theta = KIND_FUSION, model.theta
        params = {"arch": model.arch, "input_x": model.input_x, "input_z": model.input_z,
                  "hidden": model.hidden}
    elif isinstance(model, AioHmmEnsemble):  # every class shares the first one's variant and sizes
        first = model.models[model.events[0]]
        kind, params = KIND_AIOHMM, {"variant": first.variant, "states": first.states,
                                     "input_x": first.dim_x, "input_z": first.dim_z}
        theta = np.concatenate([model.prior] + [getattr(model.models[event], name).ravel()
                                                for event in model.events for name in first.shapes()])
    else:
        raise TypeError(f"cannot checkpoint object of type {type(model).__name__}")
    if not np.isfinite(theta).all():
        raise DataFormatError("refusing to save non-finite parameters in theta")
    params["events"] = list(model.events)
    header = {"format_version": FORMAT_VERSION, "kind": kind, "config": config, "params": params}
    Path(path).write_bytes(json.dumps(header, allow_nan=False).encode("ascii") + b"\n"
                           + np.asarray(theta, "<f8").tobytes())


def load_model(path: str | Path):
    """Read a checkpoint; returns (model, kind, config)."""
    path = Path(path)
    data = path.read_bytes()
    cut = data.find(b"\n")
    if cut < 0:  # no newline: the whole file is the header line
        cut = len(data)
    line, payload = data[:cut], memoryview(data)[cut + 1:]  # a view: the payload is not copied
    try:
        header = json.loads(line.decode("utf-8"))
    except UnicodeDecodeError as err:
        raise DataFormatError(f"{path}: not UTF-8 text ({err})") from None
    except json.JSONDecodeError:  # an older checkpoint's first line, "{", or no checkpoint at all
        header = None
    version = header.get("format_version") if isinstance(header, dict) else None
    if version != FORMAT_VERSION:
        raise DataFormatError(
            f"{path}: checkpoint format_version {version!r} cannot be read; this build reads "
            f"format_version {FORMAT_VERSION} only, so retrain the model to write one"
        )
    _refuse_unexpected(header, HEADER_FIELDS, path)
    kind = header.get("kind")
    if kind not in (KIND_FUSION, KIND_AIOHMM):
        raise DataFormatError(f"{path}: unknown checkpoint kind {kind!r}")
    params = header.get("params")
    if not isinstance(params, dict):
        raise DataFormatError(f"{path}: field 'params' must be an object")
    _refuse_unexpected(params, PARAM_FIELDS[kind], path)
    build = _fusion_from_dict if kind == KIND_FUSION else _ensemble_from_dict
    return build(params, payload, path), kind, header.get("config", {})


def _refuse_unexpected(d: dict, fields: set, path: Path) -> None:
    """Refuse a key the loader would not read, so a stray field cannot pass."""
    unexpected = sorted(d.keys() - fields)
    if unexpected:
        raise DataFormatError(f"{path}: unexpected field {unexpected[0]!r}")


def _read_params(d: dict, payload: memoryview, path: Path, what: str, size_fields: tuple[str, ...]):
    """A checkpoint's events, its declared sizes ``size_fields`` (each an
    integer of at least 1) by name, and its finite ``theta``, read from the
    raw little-endian doubles of ``payload``.

    ``theta`` is bounded by the bytes the file holds, and each caller checks
    its length against the layout of the declared sizes before it allocates
    anything, so a huge declared size costs nothing.
    """
    try:
        events = tuple(d["events"])
        validate_events(events)
    except (KeyError, TypeError, ValueError) as err:
        raise DataFormatError(f"{path}: bad 'events' entry ({err!r})") from None
    try:
        sizes = {name: d[name] for name in size_fields}
    except KeyError as err:
        raise DataFormatError(f"{path}: bad {what} description ({err!r})") from None
    for name, value in sizes.items():
        if type(value) is not int or value < 1:
            raise DataFormatError(
                f"{path}: field {name!r} must be an integer of at least 1, got {value!r}"
            )
    if len(payload) % 8:
        raise DataFormatError(f"{path}: field 'theta' is not a whole number of doubles "
                              f"(the payload holds {len(payload)} bytes)")
    theta = np.frombuffer(payload, "<f8").astype(np.float64)  # a writable native copy
    if not np.isfinite(theta).all():
        raise DataFormatError(f"{path}: field 'theta' contains non-finite values")
    return events, sizes, theta


def _fusion_from_dict(d: dict, payload: memoryview, path: Path) -> FusionRnnModel:
    """Build the network around ``theta``; the model checks itself."""
    events, sizes, theta = _read_params(d, payload, path, "fusion network", ("input_x", "input_z", "hidden"))
    try:
        return FusionRnnModel(arch=d.get("arch"), events=events, theta=theta, **sizes)
    except ValueError as err:
        raise DataFormatError(f"{path}: {err}") from None


def _ensemble_from_dict(d: dict, payload: memoryview, path: Path) -> AioHmmEnsemble:
    """Cut ``theta`` into the prior and each class's arrays, as views, once
    its length fits the declared sizes; the ensemble checks itself."""
    events, sizes, theta = _read_params(d, payload, path, "AIO-HMM ensemble", ("states", "input_x", "input_z"))
    variant = d.get("variant")
    try:
        shapes = param_shapes(variant, sizes["states"], sizes["input_x"], sizes["input_z"])
    except ValueError as err:
        raise DataFormatError(f"{path}: {err}") from None
    counts = [math.prod(shape) for shape in shapes.values()]
    need = len(events) * (1 + sum(counts))
    if theta.shape != (need,):
        raise DataFormatError(f"{path}: field 'theta' does not fit the declared sizes (theta must be "
                              f"a vector of {need} entries, got shape {theta.shape})")
    bounds = [0, *itertools.accumulate([len(events)] + counts * len(events))]
    blocks = (theta[start:end] for start, end in itertools.pairwise(bounds))
    prior = next(blocks)
    models = {event: AioHmmModel(variant, **{name: next(blocks).reshape(shape) for name, shape in shapes.items()})
              for event in events}
    try:
        return AioHmmEnsemble(events=events, models=models, prior=prior)
    except ValueError as err:
        raise DataFormatError(f"{path}: {err}") from None


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def save_report(report: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report, allow_nan=False, indent=1) + "\n", encoding="utf-8")


def load_report(path: str | Path) -> dict:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as err:
        raise DataFormatError(f"{path}: not UTF-8 text ({err})") from None
    except json.JSONDecodeError as err:
        raise DataFormatError(f"{path}: malformed JSON ({err})") from None
    if not isinstance(doc, dict):
        raise DataFormatError(f"{path}: a report must be a JSON object")
    return doc

