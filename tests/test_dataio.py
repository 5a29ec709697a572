import copy
import hashlib
import json
import math
import struct
import tempfile
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maneuverkit.aiohmm import VARIANTS, AioHmmEnsemble, param_shapes
from maneuverkit.anticipation import AioHmmPredictor
from maneuverkit.dataio import (
    FORMAT_VERSION,
    KIND_AIOHMM,
    DataFormatError,
    load_dataset,
    load_model,
    load_report,
    save_dataset,
    save_model,
)
from maneuverkit.events import EVENTS, validate_events
from maneuverkit.fusion_rnn import FusionRnnModel, init_fusion_model, param_count
from maneuverkit.numerics import make_rng
from maneuverkit.synth import ScenarioConfig, generate

from test_aiohmm import random_model

DATA = Path(__file__).parent / "data"
AIOHMM_FIELDS = tuple(param_shapes("aio", 1, 1, 1))  # mu, a, b, sigma, w, pi


class TestDatasetRoundTrip:
    def test_save_load_identity(self, tmp_path):
        data = generate(ScenarioConfig(seed=0), 25)
        path = tmp_path / "d.jsonl"
        save_dataset(data, path)
        loaded = load_dataset(path)
        assert len(loaded) == len(data)
        for a, b in zip(data, loaded):
            assert a.id == b.id and a.label == b.label
            np.testing.assert_array_equal(a.xs, b.xs)
            np.testing.assert_array_equal(a.zs, b.zs)

    def test_round_trip_is_bit_exact(self, tmp_path):
        data = generate(ScenarioConfig(seed=1), 10)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(data, p1)
        save_dataset(load_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_writer_bytes_equal_per_step_float_writer(self, tmp_path):
        # the per-step writer that whole-array tolist() replaced; float32
        # and integer streams must still come out as JSON floats
        data = generate(ScenarioConfig(seed=2), 12)
        data[0].xs = data[0].xs.astype(np.float32)
        data[1].zs = np.rint(data[1].zs).astype(np.int64)
        path = tmp_path / "d.jsonl"
        save_dataset(data, path)
        lines = []
        for s in data:
            record = {"id": s.id, "label": EVENTS[s.label],
                      "steps": [{"x": list(map(float, x)), "z": list(map(float, z))}
                                for x, z in zip(s.xs, s.zs)]}
            if s.meta:
                record["meta"] = s.meta
            lines.append(json.dumps(record, allow_nan=False) + "\n")
        assert path.read_bytes() == "".join(lines).encode("utf-8")

    def test_empty_file_is_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert load_dataset(path) == []

    def test_bad_z_length_names_the_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = {"id": "a", "label": "straight", "steps": [{"x": [0] * 6, "z": [0] * 9}]}
        bad = {"id": "b", "label": "straight", "steps": [{"x": [0] * 6, "z": [0] * 7}]}
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=r":2:"):
            load_dataset(path)

    def test_unknown_label_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        rec = {"id": "a", "label": "u_turn", "steps": [{"x": [0] * 6, "z": [0] * 9}]}
        path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="u_turn"):
            load_dataset(path)

    def test_malformed_json_names_the_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a"\n', encoding="utf-8")
        with pytest.raises(DataFormatError, match=r":1:"):
            load_dataset(path)

    def test_mixed_z_widths_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        nine = {"id": "a", "label": "straight", "steps": [{"x": [0] * 6, "z": [0] * 9}]}
        twelve = {"id": "b", "label": "straight", "steps": [{"x": [0] * 6, "z": [0] * 12}]}
        path.write_text(json.dumps(nine) + "\n" + json.dumps(twelve) + "\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=r":2:"):
            load_dataset(path)

    def test_non_finite_values_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        rec = {"id": "a", "label": "straight", "steps": [{"x": [0] * 6, "z": ["NaN"] + [0] * 8}]}
        path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
        with pytest.raises(DataFormatError):
            load_dataset(path)

    def test_non_utf8_line_is_named(self, tmp_path):
        # blank line 2 counts, so the line with the 0xff byte is line 3
        path = tmp_path / "bad.jsonl"
        good = json.dumps(VALID_RECORD).encode("utf-8")
        path.write_bytes(good + b"\n\n" + good.replace(b'"a"', b'"a\xff"') + b"\n" + good + b"\n")
        with pytest.raises(DataFormatError, match=r"^\S*bad\.jsonl:3: not UTF-8 text \('utf-8' codec "
                                                  r"can't decode byte 0xff in position \d+"):
            load_dataset(path)

    def test_first_fault_in_file_order_is_named(self, tmp_path):
        # malformed JSON on line 2 comes before the 0xff byte on line 4, and
        # the whole file fits in one 8 KB read, so a reader that decodes
        # ahead meets line 4's fault first
        path = tmp_path / "bad.jsonl"
        good = json.dumps(VALID_RECORD).encode("utf-8")
        path.write_bytes(b"\n".join([good, b'{"id": "a"', good, good.replace(b'"a"', b'"a\xff"')]) + b"\n")
        assert path.stat().st_size < 8192
        with pytest.raises(DataFormatError, match=r"^\S*bad\.jsonl:2: malformed JSON \("):
            load_dataset(path)

    def test_raw_carriage_return_between_tokens_is_whitespace(self, tmp_path):
        lf, cr = tmp_path / "lf.jsonl", tmp_path / "crws.jsonl"
        text = json.dumps(VALID_RECORD)
        lf.write_text(text + "\n", encoding="utf-8")
        cr.write_bytes(text.replace(", ", ",\r ").encode("utf-8") + b"\n")
        assert cr.read_bytes().count(b"\r") > 3
        assert_same_samples(load_dataset(cr), load_dataset(lf))

    def test_crlf_copy_loads_the_same_samples(self, tmp_path):
        lf, crlf = tmp_path / "lf.jsonl", tmp_path / "crlf.jsonl"
        save_dataset(generate(ScenarioConfig(seed=1), 12), lf)
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        assert_same_samples(load_dataset(crlf), load_dataset(lf))

    def test_lines_ended_by_a_bare_carriage_return_are_refused_at_line_1(self, tmp_path):
        # a line ends at "\n" only, so the whole file is line 1
        lf, cr = tmp_path / "lf.jsonl", tmp_path / "cr.jsonl"
        save_dataset(generate(ScenarioConfig(seed=1), 12), lf)
        cr.write_bytes(lf.read_bytes().replace(b"\n", b"\r"))
        with pytest.raises(DataFormatError, match=r"^\S*cr\.jsonl:1: malformed JSON \(Extra data"):
            load_dataset(cr)


def assert_same_samples(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.id, a.label, a.meta) == (b.id, b.label, b.meta)
        np.testing.assert_array_equal(a.xs, b.xs)
        np.testing.assert_array_equal(a.zs, b.zs)


VALID_RECORD = {
    "id": "a", "label": "left_turn", "meta": {"k": 1},
    "steps": [{"x": [0.5] * 6, "z": [0.1] * 9}, {"x": [0.0] * 6, "z": [0.2] * 9}],
}


def write_dataset(path, *records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def with_step(step_index, **fields):
    record = copy.deepcopy(VALID_RECORD)
    record["steps"][step_index].update(fields)
    return record


class TestDatasetStepFaults:
    """Each malformed step names the file, the line, the step and the field."""

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"x": 5}, "field 'x' must be a list of 6 numbers"),
            ({"x": None}, "field 'x' must be a list of 6 numbers"),
            ({"x": [[1]] * 6}, "field 'x' must be a list of 6 numbers"),
            ({"x": ["a"] * 6}, "field 'x' must be a list of 6 numbers"),
            ({"x": ["1.5"] * 6}, "field 'x' must be a list of 6 numbers"),
            ({"z": [True] * 9}, "field 'z' must be a list of 9 or 12 numbers"),
            ({"x": [0.5] * 5 + [False]}, "field 'x' must be a list of 6 numbers"),
            ({"z": [0.0] * 10}, "field 'z' must be a list of 9 or 12 numbers"),
            ({"z": [0.0] * 8 + [float("inf")]}, "field 'z' must be finite"),
            ({"z": [0.0] * 12}, "z has length 12, but earlier steps use 9"),
        ],
        ids=["number", "null", "nested", "strings", "numeric-strings", "booleans",
             "boolean-among-numbers", "z-width", "infinite", "z-width-changes"],
    )
    def test_fault_is_located(self, tmp_path, fields, message):
        path = tmp_path / "bad.jsonl"
        write_dataset(path, VALID_RECORD, with_step(1, **fields))
        with pytest.raises(DataFormatError) as err:
            load_dataset(path)
        assert str(err.value) == f"{path}:2: step 1: {message}"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=13) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=20,
)
MUTATION_PATHS = [
    (), ("id",), ("label",), ("meta",), ("steps",), ("steps", 0), ("steps", 1, "x"),
    ("steps", 0, "z"), ("steps", 1, "x", 3), ("steps", 0, "z", 8),
]


def mutated(doc, where, value, delete):
    """A deep copy of ``doc`` with the entry at path ``where`` deleted or
    replaced by ``value``; the empty path replaces the whole document."""
    if not where:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    if delete:
        del parent[where[-1]]
    else:
        parent[where[-1]] = value
    return doc


@settings(max_examples=300, deadline=None)
@given(
    where=st.sampled_from(MUTATION_PATHS),
    value=JSON_VALUES,
    delete=st.booleans(),
    cut=st.none() | st.integers(0, 200),
)
def test_mutated_dataset_line_loads_or_raises_data_format_error(where, value, delete, cut):
    line = json.dumps(mutated(VALID_RECORD, where, value, delete))[:cut]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.jsonl"
        path.write_text(json.dumps(VALID_RECORD) + "\n" + line + "\n", encoding="utf-8")
        try:
            load_dataset(path)
        except DataFormatError:
            pass


def read_checkpoint(path) -> tuple[dict, np.ndarray]:
    """A checkpoint file's parsed header line and its payload as a writable
    float64 ``theta``."""
    line, _, payload = Path(path).read_bytes().partition(b"\n")
    return json.loads(line), np.frombuffer(payload, "<f8").copy()


def write_checkpoint(path, header, theta) -> None:
    """Write ``header`` as one JSON line, then ``theta`` as little-endian
    doubles; ``theta`` may also be the raw payload bytes, whole doubles or not."""
    payload = theta if isinstance(theta, bytes) else np.asarray(theta, "<f8").tobytes()
    Path(path).write_bytes(json.dumps(header).encode("ascii") + b"\n" + payload)


def retrain_message(path, version) -> str:
    return (f"{path}: checkpoint format_version {version!r} cannot be read; this build reads "
            "format_version 6 only, so retrain the model to write one")


class TestCheckpoints:
    def test_fusion_round_trip_bit_exact(self, tmp_path):
        model = init_fusion_model("fusion", 6, 9, 7, EVENTS, make_rng(3))
        path = tmp_path / "m.json"
        save_model(model, {"seed": 3}, path)
        loaded, kind, config = load_model(path)
        assert kind == "fusion_rnn" and config == {"seed": 3}
        np.testing.assert_array_equal(loaded.theta, model.theta)

    def test_concat_round_trip(self, tmp_path):
        model = init_fusion_model("concat", 6, 9, 5, EVENTS, make_rng(4))
        path = tmp_path / "m.json"
        save_model(model, {}, path)
        loaded, _, _ = load_model(path)
        np.testing.assert_array_equal(loaded.theta, model.theta)
        assert len(loaded.cells) == 1 and loaded.W_f is None

    def test_ensemble_round_trip_bit_exact(self, tmp_path):
        rng = make_rng(5)
        ens = AioHmmEnsemble(
            events=EVENTS, models={name: random_model(rng, 2, 9, 6) for name in EVENTS}
        )
        path = tmp_path / "e.json"
        save_model(ens, {"states": 2}, path)
        loaded, kind, _ = load_model(path)
        assert kind == "aio_hmm"
        for name in EVENTS:
            for field in AIOHMM_FIELDS:
                np.testing.assert_array_equal(
                    getattr(loaded.models[name], field), getattr(ens.models[name], field)
                )

    @pytest.mark.parametrize("name, params", [
        ("fusion_h2", ["arch", "input_x", "input_z", "hidden", "events"]),
        ("aiohmm_s2", ["variant", "states", "input_x", "input_z", "events"]),
    ], ids=["fusion", "aiohmm"])
    def test_file_is_one_ascii_header_line_then_theta_bytes(self, tmp_path, name, params):
        model, _, config = load_model(DATA / f"{name}.json")
        path = tmp_path / "m.json"
        save_model(model, config, path)
        line, newline, payload = path.read_bytes().partition(b"\n")
        header = json.loads(line.decode("ascii"))
        assert newline == b"\n" and list(header) == ["format_version", "kind", "config", "params"]
        assert header["format_version"] == FORMAT_VERSION == 6 and list(header["params"]) == params
        theta = model.theta if isinstance(model, FusionRnnModel) else np.concatenate(
            [model.prior] + [getattr(model.models[e], f).ravel() for e in model.events for f in AIOHMM_FIELDS])
        assert payload == theta.astype("<f8").tobytes() and len(payload) == 8 * len(theta)
        loaded, _, _ = load_model(path)
        arrays = [loaded.theta] if isinstance(loaded, FusionRnnModel) else [loaded.prior]
        assert all(a.dtype == np.float64 and a.dtype.isnative and a.flags.writeable for a in arrays)

    # The loader splits the file at its first newline, so payload bytes that
    # read as a newline, a carriage return or a NUL must stay the payload's.
    @pytest.mark.parametrize("raw", [b"\n" * 8, b"\n\r\x00\x00\x00\x00\xf0\x3f", b"\r\n" * 4],
                             ids=["newline-bytes", "newline-cr-nul", "crlf-bytes"])
    def test_payload_bytes_that_read_as_newlines_round_trip(self, tmp_path, raw):
        model = init_fusion_model("concat", 6, 9, 2, EVENTS, make_rng(10))
        model.theta[::2] = struct.unpack("<d", raw)[0]
        path = tmp_path / "m.json"
        save_model(model, {}, path)
        line, _, payload = path.read_bytes().partition(b"\n")
        assert json.loads(line)["params"]["hidden"] == 2 and len(payload) == 8 * 165
        assert raw in payload and load_model(path)[0].theta.tobytes() == model.theta.tobytes()

    def test_non_ascii_config_saved_as_an_ascii_header(self, tmp_path):
        model = init_fusion_model("concat", 6, 9, 2, EVENTS, make_rng(11))
        config = {"note": "Spurwechsel \u2192 links", "place": "K\u00f6ln"}
        path = tmp_path / "m.json"
        save_model(model, config, path)
        line = path.read_bytes().partition(b"\n")[0]
        assert line.isascii() and b"\\u2192" in line
        assert load_model(path)[2] == config

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_ensemble_theta_is_the_prior_then_each_class_in_event_order(self, tmp_path, variant):
        rng = make_rng(7)
        events = ("right_turn", "left_lane", "straight")
        models = {name: random_model(rng, 3, 4, 2, variant) for name in reversed(events)}
        prior = np.array([0.5, 0.3, 0.2])
        path = tmp_path / "e.json"
        save_model(AioHmmEnsemble(events=events, models=models, prior=prior), {}, path)
        header, theta = read_checkpoint(path)
        params = header["params"]
        want = np.concatenate([prior] + [getattr(models[e], f).ravel() for e in events for f in AIOHMM_FIELDS])
        assert list(params) == ["variant", "states", "input_x", "input_z", "events"]
        assert params["variant"] == variant and (params["states"], params["input_x"], params["input_z"]) == (3, 2, 4)
        assert params["events"] == list(events) and theta.tobytes() == want.tobytes()

    def test_ensemble_with_a_list_prior_saves(self, tmp_path):
        rng = make_rng(6)
        models = {name: random_model(rng, 2, 9, 6) for name in EVENTS}
        path = tmp_path / "e.json"
        save_model(AioHmmEnsemble(events=EVENTS, models=models, prior=[0.2] * 5), {}, path)
        np.testing.assert_array_equal(load_model(path)[0].prior, np.full(5, 0.2))

    @pytest.mark.parametrize("load", [load_model, load_report])
    def test_non_utf8_file_is_named(self, tmp_path, load):
        path = tmp_path / "m.json"
        path.write_bytes(b'{"format_version": 4, "kind": "\xff"}\n')
        with pytest.raises(DataFormatError, match=r"^\S*m\.json: not UTF-8 text \('utf-8' codec "
                                                  r"can't decode byte 0xff in position 31"):
            load(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"format_version": 99, "kind": "fusion_rnn"}), encoding="utf-8")
        with pytest.raises(DataFormatError, match="format_version"):
            load_model(path)

    # used to say only "unsupported format_version 1"
    def test_format_1_refused_with_the_reason(self, tmp_path):
        path = tmp_path / "old.json"
        doc = {"format_version": 1, "kind": "aio_hmm", "config": {},
               "params": {"events": ["straight"], "prior": [1.0], "models": {}}}
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataFormatError) as err:
            load_model(path)
        assert str(err.value) == retrain_message(path, 1)

    # format 2 stored a fusion network's theta as per-gate blocks, format 3
    # stored every parameter payload as base64, format 4 stored each AIO-HMM
    # class as its own object of six arrays, and format 5 stored theta as hex
    # inside the JSON document
    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("name", ["fusion_h2", "aiohmm_s2"])
    def test_older_format_refused_with_the_reason(self, tmp_path, name, version):
        header, theta = read_checkpoint(DATA / f"{name}.json")
        header["format_version"] = version
        path = tmp_path / "old.json"
        write_checkpoint(path, header, theta)
        with pytest.raises(DataFormatError) as err:
            load_model(path)
        assert str(err.value) == retrain_message(path, version)

    # A format-5 file is one indented JSON document, so its first line is "{";
    # so is any file whose first line is not a JSON object.
    @pytest.mark.parametrize("content", [
        (DATA / "format5_fusion_h2.json").read_bytes(), b"{\n", b"[1, 2]\n", b'"fusion_rnn"\n', b"null", b"",
        b"\n", b"\n\x00\x00\x00\x00\x00\x00\xf0\x3f",
    ], ids=["format-5-fixture", "open-brace", "array", "string", "null", "empty", "newline-only",
            "payload-only"])
    def test_first_line_not_a_json_object_refused_with_the_reason(self, tmp_path, content):
        path = tmp_path / "old.json"
        path.write_bytes(content)
        with pytest.raises(DataFormatError) as err:
            load_model(path)
        assert str(err.value) == retrain_message(path, None)

    @pytest.mark.parametrize("where", [("params", "prior"), ("params", "theta"), ("prior",), ("theta",)],
                             ids=["params-prior", "params-theta", "top-prior", "top-theta"])
    @pytest.mark.parametrize("name", ["fusion_h2", "aiohmm_s2"])
    def test_unexpected_field_refused(self, tmp_path, name, where):
        header, theta = read_checkpoint(DATA / f"{name}.json")
        (header["params"] if where[0] == "params" else header)[where[-1]] = [0.5, 0.5, 0.0, 0.0, 0.0]
        path = tmp_path / "stray.json"
        write_checkpoint(path, header, theta)
        with pytest.raises(DataFormatError) as err:
            load_model(path)
        assert str(err.value) == f"{path}: unexpected field {where[-1]!r}"

    # each kind's params refuse the other kind's fields
    @pytest.mark.parametrize("name, key, value", [
        ("fusion_h2", "states", 2), ("fusion_h2", "variant", "aio"),
        ("aiohmm_s2", "hidden", 2), ("aiohmm_s2", "arch", "fusion"),
    ])
    def test_other_kinds_field_refused(self, tmp_path, name, key, value):
        header, theta = read_checkpoint(DATA / f"{name}.json")
        header["params"][key] = value
        path = tmp_path / "stray.json"
        write_checkpoint(path, header, theta)
        with pytest.raises(DataFormatError) as err:
            load_model(path)
        assert str(err.value) == f"{path}: unexpected field {key!r}"

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            json.dumps({"format_version": FORMAT_VERSION, "kind": "boosted_trees", "params": {}}),
            encoding="utf-8",
        )
        with pytest.raises(DataFormatError, match="kind"):
            load_model(path)

    def test_nan_parameters_refused_on_save(self, tmp_path):
        model = init_fusion_model("fusion", 6, 9, 4, EVENTS, make_rng(6))
        model.W_y[0, 0] = np.nan
        with pytest.raises(DataFormatError, match="non-finite"):
            save_model(model, {}, tmp_path / "m.json")

    def test_non_checkpoint_file_rejected(self, tmp_path):
        data = generate(ScenarioConfig(seed=7), 3)
        path = tmp_path / "d.jsonl"
        save_dataset(data, path)
        with pytest.raises(DataFormatError):
            load_model(path)

    def test_reload_preserves_predictions(self, tmp_path):
        model = init_fusion_model("fusion", 6, 9, 6, EVENTS, make_rng(8))
        rng = make_rng(9)
        xs, zs = rng.standard_normal((5, 6)), rng.standard_normal((5, 9))
        from maneuverkit.fusion_rnn import forward

        before, _ = forward(model, xs, zs)
        path = tmp_path / "m.json"
        save_model(model, {}, path)
        loaded, _, _ = load_model(path)
        after, _ = forward(loaded, xs, zs)
        np.testing.assert_array_equal(before, after)


EDGE_DOUBLES = [-0.0, 0.0, 5e-324, -2.2250738585072009e-308, 1.7e308, -1.7e308, float(np.nextafter(1.0, 2.0))]


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_DOUBLES),
                       min_size=165, max_size=165))
def test_any_finite_theta_round_trips_bit_exactly(values):
    # 165 entries: a concat network of hidden size 2 over (6, 9) inputs
    model = FusionRnnModel(arch="concat", events=EVENTS, input_x=6, input_z=9, hidden=2, theta=np.array(values))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.json"
        save_model(model, {}, path)
        loaded, _, _ = load_model(path)
    assert loaded.theta.tobytes() == model.theta.tobytes()


def parameter_sha256(model) -> str:
    """SHA-256 of a model's parameters as little-endian float64 bytes: a
    fusion network's theta, or an ensemble's prior, then each event's
    AIO-HMM fields."""
    if isinstance(model, FusionRnnModel):
        arrays = [model.theta]
    else:
        arrays = [model.prior] + [getattr(model.models[e], f) for e in model.events for f in AIOHMM_FIELDS]
    return hashlib.sha256(b"".join(np.asarray(a, "<f8").tobytes() for a in arrays)).hexdigest()


# Computed from the format-1 files these fixtures were converted from, as the
# format-1 loader read them: neither conversion changed a parameter bit.
PARAMETER_SHA256 = {
    "fusion_h2": "01b1ae164e34a12344809f75e9da196195e0cae287a5b8275d95004364db3d6e",
    "concat_h2": "66f713c9e07a5f104ce536e0d05db072faaf7bc2e472981c7ba9017b57d57558",
    "aiohmm_s2": "6d604057e073a69d3b5f2c8a617262bdbe52bb649424b2899fc16475ce2c1ad9",
}


class TestParentCheckpoints:
    """Checkpoints written by earlier versions, converted to format 2 by
    loading each with the format-1 loader and saving it again, then to
    format 3 by joining each fusion network's per-gate blocks, in order,
    into its theta, then to format 4 by writing each base64 payload's bytes
    as hex, then to format 5 by joining an AIO-HMM ensemble's prior and each
    class's arrays, in order, into its theta, then to format 6 by writing the
    document without theta as one header line, followed by theta's hex
    payload as raw bytes: the fusion ones from before the parameters moved
    into one flat vector (hidden 2, one epoch on `synth --n 20 --seed 4`)."""

    @pytest.mark.parametrize("name, total", [("fusion_h2", 205), ("concat_h2", 165)])
    def test_load_and_resave_byte_identically(self, tmp_path, name, total):
        src = DATA / f"{name}.json"
        model, kind, config = load_model(src)
        assert parameter_sha256(model) == PARAMETER_SHA256[name]
        save_model(model, config, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == src.read_bytes()
        assert param_count(model)["total"] == total == read_checkpoint(src)[1].size

    def test_aiohmm_checkpoint_loads_resaves_and_streams(self, tmp_path):
        """An AIO-HMM ensemble written while the EM settings were still
        config fields (2 states, 3 EM iterations on `synth --n 60 --seed 1`);
        its `em` meta still records `cov_floor` and `w_iters`."""
        src = DATA / "aiohmm_s2.json"
        ensemble, kind, config = load_model(src)
        assert kind == KIND_AIOHMM and config["em"]["w_iters"] == 25
        assert parameter_sha256(ensemble) == PARAMETER_SHA256["aiohmm_s2"]
        save_model(ensemble, config, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == src.read_bytes()
        predictor = AioHmmPredictor(ensemble)
        for sample in generate(ScenarioConfig(seed=3), 6):
            state = predictor.begin()
            for t in range(sample.length):
                state, row = predictor.step(state, sample.xs[t], sample.zs[t])
                want = ensemble.posterior(sample.xs[: t + 1], sample.zs[: t + 1])
                np.testing.assert_allclose(row, want, rtol=0, atol=1e-10)


# A checkpoint edit is a function ``edit(params, theta)`` of the header's
# params and a writable copy of theta; it edits them in place, or returns
# the payload to write instead of theta (an array, or raw bytes).  Any other
# return value, such as that of ``dict.pop``, is ignored.


def write_edited(tmp_path, header, theta, edit) -> Path:
    """Write copies of ``header`` and ``theta`` as edited by ``edit``."""
    header, theta = copy.deepcopy(header), theta.copy()
    payload = edit(header["params"], theta)
    path = tmp_path / "edited.json"
    write_checkpoint(path, header, payload if isinstance(payload, (bytes, np.ndarray)) else theta)
    return path


def edited_checkpoint(tmp_path, edit, name="fusion_h2") -> Path:
    return write_edited(tmp_path, *read_checkpoint(DATA / f"{name}.json"), edit)


def theta_set(index, value):
    """An edit that sets ``theta[index]`` to ``value``."""
    def edit(params, theta):
        theta[index] = value
    return edit


def theta_edit(event, field, value):
    """An edit of an AIO-HMM checkpoint that sets ``field`` of ``event``'s
    class (``"prior"`` for the prior) to ``value`` inside ``theta``, in the
    layout of the declared sizes."""
    def edit(params, theta):
        events = params["events"]
        shapes = param_shapes(params["variant"], params["states"], params["input_x"], params["input_z"])
        counts = [math.prod(shape) for shape in shapes.values()]
        start, count = 0, len(events)
        if field != "prior":
            i = AIOHMM_FIELDS.index(field)
            start, count = len(events) + events.index(event) * sum(counts) + sum(counts[:i]), counts[i]
        theta_set(slice(start, start + count), np.ravel(value))(params, theta)
    return edit


def cut_payload(n_bytes):
    """An edit that writes theta's bytes without the last ``n_bytes``, or,
    for a negative ``n_bytes``, with that many zero bytes more."""
    def edit(params, theta):
        raw = theta.tobytes()
        return raw[:-n_bytes] if n_bytes > 0 else raw + bytes(-n_bytes)
    return edit


class TestFusionCheckpointErrors:
    @pytest.mark.parametrize(
        "name, field, value, message",
        [
            ("fusion_h2", "events", ["left_lane", "left_lane", "left_turn", "right_turn", "straight"],
             r"bad 'events' entry .*duplicate event labels"),
            ("fusion_h2", "events", ["left_lane", "right_lane", "u_turn", "right_turn", "straight"],
             r"bad 'events' entry .*unknown event labels"),
            ("fusion_h2", "arch", "lstm", r"unknown arch 'lstm'"),
            ("concat_h2", "hidden", "abc", r"field 'hidden' must be an integer of at least 1, got 'abc'"),
            ("fusion_h2", "hidden", True, r"field 'hidden' must be an integer of at least 1, got True"),
            ("fusion_h2", "hidden", 0, r"field 'hidden' must be an integer of at least 1, got 0"),
            ("fusion_h2", "hidden", 10**8, r"field 'theta' does not fit the declared sizes \(theta must be a "
                                           r"contiguous float64 vector of 100000008000000005 entries, "
                                           r"got float64 \(205,\)\)"),
            ("fusion_h2", "input_z", 10**12, r"field 'theta' does not fit the declared sizes \(theta must be a "
                                             r"contiguous float64 vector of 8000000000133 entries, "
                                             r"got float64 \(205,\)\)"),
            ("concat_h2", "input_x", False, r"field 'input_x' must be an integer of at least 1, got False"),
        ],
        ids=["duplicate-events", "unknown-events", "unknown-arch",
             "concat-string-hidden", "bool-hidden", "zero-hidden", "huge-hidden", "huge-input", "bool-input"],
    )
    def test_bad_description_names_the_file(self, tmp_path, name, field, value, message):
        path = edited_checkpoint(tmp_path, lambda p, t: p.update({field: value}), name)
        with pytest.raises(DataFormatError, match=r"edited\.json: " + message):
            load_model(path)

    # A declared size whose parameter vector would not fit in memory is
    # refused by the length check on the small theta, which allocates nothing.
    @pytest.mark.parametrize("field, value, want", [
        ("hidden", 10**8, 40000007200000005), ("input_z", 10**12, 8000000000093), ("hidden", 3, 257),
        ("arch", "fusion", 205),
    ], ids=["huge-hidden", "huge-input", "hidden-plus-one", "wrong-arch"])
    def test_declared_sizes_refused_before_allocation(self, tmp_path, field, value, want):
        path = edited_checkpoint(tmp_path, lambda p, t: p.update({field: value}), "concat_h2")
        tracemalloc.start()
        try:
            with pytest.raises(DataFormatError, match=r"edited\.json: field 'theta' does not fit the declared sizes "
                                                      rf"\(theta must be a contiguous float64 vector of {want} "
                                                      r"entries, got float64 \(165,\)\)$"):
                load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    # The loader's refusal of a network is the constructor's, prefixed with
    # the file, so save_model cannot write a network that load_model refuses.
    @pytest.mark.parametrize("edit, change", [
        (lambda p, t: p.update(arch="lstm"), lambda m: {"arch": "lstm"}),
        (lambda p, t: t[:-1], lambda m: {"theta": m.theta[:-1].copy()}),
        (lambda p, t: p.update(hidden=3), lambda m: {"hidden": 3}),
    ], ids=["arch", "short-theta", "hidden-plus-one"])
    def test_loader_refuses_a_network_as_the_constructor_does(self, tmp_path, edit, change):
        with pytest.raises(DataFormatError) as loaded:
            load_model(edited_checkpoint(tmp_path, edit))
        m = load_model(DATA / "fusion_h2.json")[0]
        fields = {"arch": m.arch, "input_x": m.input_x, "input_z": m.input_z, "hidden": m.hidden,
                  "events": m.events, "theta": m.theta}
        with pytest.raises(ValueError) as built:
            FusionRnnModel(**{**fields, **change(m)})
        assert str(loaded.value) == f"{tmp_path / 'edited.json'}: {built.value}"

    @pytest.mark.parametrize("tail", [b"\n", b""], ids=["newline", "no-newline"])
    def test_header_without_payload_names_file_and_field(self, tmp_path, tail):
        path = tmp_path / "edited.json"
        path.write_bytes((DATA / "fusion_h2.json").read_bytes().partition(b"\n")[0] + tail)
        with pytest.raises(DataFormatError, match=r"edited\.json: field 'theta' does not fit the declared sizes "
                                                  r"\(theta must be a contiguous float64 vector of 205 entries, "
                                                  r"got float64 \(0,\)\)$"):
            load_model(path)

    @pytest.mark.parametrize("edit, got", [
        (lambda p, t: t[:-1], r"\(204,\)"),
        (lambda p, t: np.append(t, 0.5), r"\(206,\)"),
    ], ids=["one-short", "one-long"])
    def test_misshaped_theta_names_file_field_and_both_counts(self, tmp_path, edit, got):
        path = edited_checkpoint(tmp_path, edit)
        with pytest.raises(
            DataFormatError,
            match=r"edited\.json: field 'theta' does not fit the declared sizes "
                  r"\(theta must be a contiguous float64 vector of 205 entries, got float64 " + got + r"\)$",
        ):
            load_model(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_theta_names_file_and_field(self, tmp_path, value):
        path = edited_checkpoint(tmp_path, theta_set(203, value))
        with pytest.raises(DataFormatError, match=r"edited\.json: field 'theta' contains non-finite values$"):
            load_model(path)

    @pytest.mark.parametrize("index", [0, -1], ids=["first", "last"])
    def test_non_finite_first_or_last_double_names_file_and_field(self, tmp_path, index):
        path = edited_checkpoint(tmp_path, theta_set(index, float("nan")))
        with pytest.raises(DataFormatError, match=r"edited\.json: field 'theta' contains non-finite values$"):
            load_model(path)

    @pytest.mark.parametrize("n_bytes, held", [(2, 1638), (7, 1633), (-1, 1641)],
                             ids=["cut-2-bytes", "cut-7-bytes", "one-byte-more"])
    def test_partial_double_names_file_and_field(self, tmp_path, n_bytes, held):
        path = edited_checkpoint(tmp_path, cut_payload(n_bytes))
        with pytest.raises(DataFormatError, match=r"edited\.json: field 'theta' is not a whole number of doubles "
                                                  rf"\(the payload holds {held} bytes\)$"):
            load_model(path)


HMM_EVENTS = ("left_lane", "right_lane", "straight")


@pytest.fixture(scope="module")
def hmm_parts(tmp_path_factory):
    """A saved three-class AIO-HMM ensemble (2 states, dx = 2, dz = 3) as
    its parsed header and theta, which holds 3 + 3 * 44 = 135 values."""
    rng = make_rng(30)
    ensemble = AioHmmEnsemble(events=HMM_EVENTS, models={e: random_model(rng, 2, 3, 2) for e in HMM_EVENTS})
    path = tmp_path_factory.mktemp("hmm") / "hmm.json"
    save_model(ensemble, {}, path)
    return read_checkpoint(path)


class TestAioHmmCheckpointErrors:
    def test_unedited_checkpoint_loads(self, tmp_path, hmm_parts):
        ensemble, kind, _ = load_model(write_edited(tmp_path, *hmm_parts, lambda p, t: None))
        assert kind == "aio_hmm" and ensemble.events == HMM_EVENTS

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_theta_names_file_and_field(self, tmp_path, hmm_parts, value):
        mu = np.ones((2, 3))
        mu[1, 2] = value
        path = write_edited(tmp_path, *hmm_parts, theta_edit("right_lane", "mu", mu))
        with pytest.raises(DataFormatError, match=r"edited\.json: field 'theta' contains non-finite values$"):
            load_model(path)

    # NaN or Inf in any block of the layout, the prior included, is refused
    @pytest.mark.parametrize("field", ("prior",) + AIOHMM_FIELDS)
    def test_non_finite_block_names_file_and_field(self, tmp_path, hmm_parts, field):
        path = write_edited(tmp_path, *hmm_parts, theta_edit("straight", field, math.inf))
        with pytest.raises(DataFormatError, match=r"edited\.json: field 'theta' contains non-finite values$"):
            load_model(path)

    @pytest.mark.parametrize("n_bytes, held", [(2, 1078), (-3, 1083)], ids=["cut-2-bytes", "three-bytes-more"])
    def test_partial_double_names_file_and_field(self, tmp_path, hmm_parts, n_bytes, held):
        path = write_edited(tmp_path, *hmm_parts, cut_payload(n_bytes))
        with pytest.raises(DataFormatError, match=r"edited\.json: field 'theta' is not a whole number of doubles "
                                                  rf"\(the payload holds {held} bytes\)$"):
            load_model(path)

    @pytest.mark.parametrize("field, message", [
        ("states", r"bad AIO-HMM ensemble description \(KeyError\('states'\)\)"),
        ("input_z", r"bad AIO-HMM ensemble description \(KeyError\('input_z'\)\)"),
        ("variant", r"unknown variant None"),
        ("events", r"bad 'events' entry \(KeyError\('events'\)\)"),
    ])
    def test_missing_field_names_file_and_field(self, tmp_path, hmm_parts, field, message):
        path = write_edited(tmp_path, *hmm_parts, lambda p, t: p.pop(field))
        with pytest.raises(DataFormatError, match=r"edited\.json: " + message + "$"):
            load_model(path)

    def test_empty_payload_names_file_and_field(self, tmp_path, hmm_parts):
        path = write_edited(tmp_path, *hmm_parts, lambda p, t: b"")
        with pytest.raises(DataFormatError, match=r"edited\.json: field 'theta' does not fit the declared sizes "
                                                  r"\(theta must be a vector of 135 entries, got shape \(0,\)\)$"):
            load_model(path)

    @pytest.mark.parametrize("field, value", [
        ("states", "2"), ("states", True), ("states", 0), ("input_x", 2.0), ("input_z", -3), ("input_z", None),
    ])
    def test_bad_size_names_file_and_field(self, tmp_path, hmm_parts, field, value):
        path = write_edited(tmp_path, *hmm_parts, lambda p, t: p.update({field: value}))
        with pytest.raises(DataFormatError, match=rf"edited\.json: field '{field}' must be an integer of at "
                                                  rf"least 1, got {value!r}$"):
            load_model(path)

    # A declared size whose arrays would not fit in memory is refused by the
    # length check on the small theta, which allocates nothing; so is one size
    # more, or a variant of another transition width.
    @pytest.mark.parametrize("field, value, want", [
        ("states", 10**8, 60000005400000003), ("input_z", 10**12, 6000000000012000000000045),
        ("input_x", 10**6, 18000099), ("states", 3, 219), ("input_z", 4, 189), ("variant", "hmm", 123),
    ], ids=["huge-states", "huge-input-z", "huge-input-x", "states-plus-one", "input-z-plus-one", "hmm-variant"])
    def test_declared_sizes_refused_before_allocation(self, tmp_path, hmm_parts, field, value, want):
        path = write_edited(tmp_path, *hmm_parts, lambda p, t: p.update({field: value}))
        tracemalloc.start()
        try:
            with pytest.raises(DataFormatError, match=r"edited\.json: field 'theta' does not fit the declared sizes "
                                                      rf"\(theta must be a vector of {want} entries, got shape "
                                                      r"\(135,\)\)$"):
                load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("edit, message", [
        (theta_edit("straight", "sigma", -np.ones((2, 3, 3))),
         r"model 'straight': sigma\[0\] is not positive definite"),
        (theta_edit("right_lane", "pi", [1.5, -0.5]), r"model 'right_lane': pi must be a distribution over states"),
        (lambda p, t: p.update(variant="io"), r"model 'left_lane': variant 'io' requires b = 0"),
        (lambda p, t: p.update(variant="lstm"), r"unknown variant 'lstm'"),
        (lambda p, t: p.update(variant=["aio"]), r"unknown variant \['aio'\]"),
    ], ids=["sigma", "pi", "io-variant", "unknown-variant", "variant-not-a-string"])
    def test_invalid_class_names_file_and_event(self, tmp_path, hmm_parts, edit, message):
        path = write_edited(tmp_path, *hmm_parts, edit)
        with pytest.raises(DataFormatError, match=r"edited\.json: " + message + "$"):
            load_model(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p, t: p.update(events=["straight", "left_lane", "right_lane"]),
             r"bad 'events' entry .*must be the last"),
            (lambda p, t: p.update(events=7), r"bad 'events' entry \(TypeError"),
            (lambda p, t: p.update(events=[]), r"bad 'events' entry .*must be the last"),
            (lambda p, t: p.update(events=["left_lane", "left_lane", "straight"]),
             r"bad 'events' entry .*duplicate event labels"),
            (lambda p, t: p.update(events=["left_lane", "straight"]),
             r"field 'theta' does not fit the declared sizes \(theta must be a vector of 90 entries"),
            (theta_edit(None, "prior", [0.5, 0.5, 0.5]), r"'prior' must be a distribution over the 3 events$"),
            (theta_edit(None, "prior", [1.5, -0.5, 0.0]), r"'prior' must be a distribution over the 3 events$"),
        ],
        ids=["straight-not-last", "events-not-a-list", "no-event", "duplicate-event", "event-dropped",
             "prior-sum", "prior-negative"],
    )
    def test_bad_ensemble_entry_names_file(self, tmp_path, hmm_parts, edit, message):
        with pytest.raises(DataFormatError, match=r"edited\.json: " + message):
            load_model(write_edited(tmp_path, *hmm_parts, edit))

    def test_models_with_different_sizes_rejected(self, tmp_path, hmm_parts):
        # An ensemble built in code refuses a class of another z size; a
        # checkpoint can only declare one, so one that does not fit is refused.
        rng = make_rng(31)
        models = {e: random_model(rng, 2, 3, 2) for e in HMM_EVENTS}
        with pytest.raises(ValueError, match=r"models disagree on their \(x, z\) sizes \[\(2, 3\), \(2, 4\)\]"):
            AioHmmEnsemble(events=HMM_EVENTS, models={**models, "straight": random_model(rng, 2, 4, 2)})
        path = write_edited(tmp_path, *hmm_parts, lambda p, t: p.update(input_z=4))
        with pytest.raises(DataFormatError, match=r"edited\.json: field 'theta' does not fit the declared sizes"):
            load_model(path)

    def test_only_bad_covariance_is_named(self, tmp_path):
        # the batched check fails for the whole stack; the message must still
        # name the one state whose covariance is not positive definite, when
        # the ensemble is built and when a checkpoint's payload holds it
        rng = make_rng(32)
        models = {e: random_model(rng, 4, 3, 2) for e in EVENTS}
        sigma = models["left_turn"].sigma.copy()
        sigma[2] = np.diag([1.0, -1.0, 1.0])
        with pytest.raises(ValueError, match=r"^model 'left_turn': sigma\[2\] is not positive definite$"):
            AioHmmEnsemble(events=EVENTS, models={**models, "left_turn": replace(models["left_turn"], sigma=sigma)})
        path = tmp_path / "m.json"
        save_model(AioHmmEnsemble(events=EVENTS, models=models), {}, path)
        path = write_edited(tmp_path, *read_checkpoint(path), theta_edit("left_turn", "sigma", sigma))
        with pytest.raises(DataFormatError,
                           match=r"edited\.json: model 'left_turn': sigma\[2\] is not positive definite$"):
            load_model(path)

    # The loader's refusal of a class is the constructor's, prefixed with the
    # file, so save_model cannot write an ensemble that load_model refuses.
    @pytest.mark.parametrize("event, field, value", [
        ("straight", "sigma", -np.ones((2, 3, 3))),
        ("right_lane", "pi", [1.5, -0.5]),
        ("left_lane", "sigma", [np.eye(3), np.diag([1.0, 0.0, 1.0])]),
    ], ids=["sigma", "pi", "singular-sigma"])
    def test_loader_refuses_a_class_as_the_constructor_does(self, tmp_path, hmm_parts, event, field, value):
        with pytest.raises(DataFormatError) as loaded:
            load_model(write_edited(tmp_path, *hmm_parts, theta_edit(event, field, value)))
        ensemble = load_model(write_edited(tmp_path, *hmm_parts, lambda p, t: None))[0]
        bad = replace(ensemble.models[event], **{field: np.array(value, dtype=float)})
        with pytest.raises(ValueError) as built:
            AioHmmEnsemble(events=ensemble.events, models={**ensemble.models, event: bad}, prior=ensemble.prior)
        assert str(loaded.value) == f"{tmp_path / 'edited.json'}: {built.value}"

    @pytest.mark.parametrize("doc", [[1, 2], {"format_version": FORMAT_VERSION, "kind": "aio_hmm"}])
    def test_document_without_params_rejected(self, tmp_path, doc):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataFormatError, match=r"m\.json: "):
            load_model(path)


FUSION_PARTS = read_checkpoint(DATA / "fusion_h2.json")
FUSION_PATHS = [
    (), ("format_version",), ("kind",), ("config",), ("params",), ("params", "arch"),
    ("params", "input_x"), ("params", "input_z"), ("params", "hidden"),
    ("params", "events"), ("params", "events", 2), ("params", "events", 4), ("params", "theta"), ("theta",),
]
HMM_PATHS = [
    (), ("kind",), ("params",), ("params", "events"), ("params", "events", 1), ("params", "events", 2),
    ("params", "variant"), ("params", "states"), ("params", "input_x"), ("params", "input_z"),
    ("params", "prior"), ("prior",),
]
# Declared sizes get small values, values of the wrong type, and huge values
# whose parameters would not fit in memory.  The payload is kept, cut or
# extended by any number of bytes, or has a run of its doubles overwritten by
# doubles of any bits (NaN, Inf, subnormal or huge ones among them), so that
# the per-class checks see covariances, initial distributions and priors of
# any value; or it is replaced by such a run.
SIZE_FIELDS = ("input_x", "input_z", "hidden", "states")
STRAY_FIELDS = ("theta", "prior")  # fields the loader does not read: only ever added
SIZES = st.integers(-2, 10) | st.sampled_from(
    [None, True, 2.0, "2", [2], 10**8, 10**12, 1e8, 1e12, -(10**12)]
)
DOUBLES = st.lists(
    st.binary(min_size=8, max_size=8)
    | st.sampled_from([math.nan, math.inf, -math.inf, 5e-324, 1e308, -0.0]).map(lambda v: struct.pack("<d", v)),
    max_size=16,
).map(b"".join)


def payloads(raw: bytes):
    """Strategy: the payload ``raw`` kept, cut, extended, or with a run of
    its doubles overwritten (its length kept), or one of DOUBLES."""
    n = len(raw)
    return (
        st.just(raw)
        | st.integers(0, n - 1).map(lambda k: raw[:k])
        | st.binary(min_size=1, max_size=24).map(lambda tail: raw + tail)
        | st.tuples(st.integers(0, n // 8 - 1), DOUBLES).map(
            lambda cut: (raw[: 8 * cut[0]] + cut[1] + raw[8 * cut[0] + len(cut[1]):])[:n])
        | DOUBLES
    )


@st.composite
def checkpoint_mutations(draw, parts, paths):
    """A (header, payload) pair: ``parts``'s header with one entry deleted or
    replaced (or none), and its theta's bytes mutated (or not)."""
    header, theta = parts
    where = draw(st.none() | st.sampled_from(paths))
    if where is not None:
        key = where[-1] if where else None
        if key in SIZE_FIELDS:
            values = SIZES
        elif key == "variant":
            values = st.sampled_from(VARIANTS) | JSON_VALUES
        else:
            values = JSON_VALUES
        header = mutated(header, where, draw(values), key not in STRAY_FIELDS and draw(st.booleans()))
    return header, draw(payloads(theta.tobytes()))


def load_mutated_checkpoint(header, payload):
    """Load ``header`` and ``payload`` as a checkpoint file.  It must raise
    DataFormatError or give finite float64 parameters over a valid event
    tuple."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.json"
        write_checkpoint(path, header, payload)
        try:
            model, _, _ = load_model(path)
        except DataFormatError:
            return
    if isinstance(model, FusionRnnModel):
        arrays = [model.theta]
    else:
        arrays = [model.prior] + [getattr(m, f) for m in model.models.values() for f in AIOHMM_FIELDS]
    for arr in arrays:
        assert arr.dtype == np.float64 and np.all(np.isfinite(arr))
    validate_events(model.events)


@settings(max_examples=300, deadline=None)
@given(mutation=checkpoint_mutations(FUSION_PARTS, FUSION_PATHS))
def test_mutated_fusion_checkpoint_loads_or_raises_data_format_error(mutation):
    load_mutated_checkpoint(*mutation)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_aiohmm_checkpoint_loads_or_raises_data_format_error(hmm_parts, data):
    load_mutated_checkpoint(*data.draw(checkpoint_mutations(hmm_parts, HMM_PATHS)))


def test_train_config_round_trips_through_checkpoint(tmp_path):
    from maneuverkit.aiohmm import EmConfig
    from maneuverkit.training import TrainConfig

    model = init_fusion_model("fusion", 6, 9, 4, EVENTS, make_rng(1))
    cfg = TrainConfig(loss_mode="uniform", learning_rate=3e-4, epochs=7, seed=42)
    em = EmConfig(states=4, variant="io", max_iter=12, seed=8)
    path = tmp_path / "m.json"
    save_model(model, {"train": asdict(cfg), "em": asdict(em)}, path)
    _, _, loaded = load_model(path)
    assert loaded == {"train": asdict(cfg), "em": asdict(em)}
