import copy
import hashlib
import json
import math
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis.extra import numpy as hnp
from hypothesis import strategies as st

from maneuverkit.aiohmm import VARIANTS, AioHmmEnsemble, param_shapes
from maneuverkit.anticipation import AioHmmPredictor
from maneuverkit.dataio import (
    FORMAT_VERSION,
    KIND_AIOHMM,
    DataFormatError,
    decode_array,
    encode_array,
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
        # the reader decodes ahead in chunks, so the fault surfaces before
        # line 3 is read; the error must still name line 3 (blank line 2 counts)
        path = tmp_path / "bad.jsonl"
        good = json.dumps(VALID_RECORD).encode("utf-8")
        path.write_bytes(good + b"\n\n" + good.replace(b'"a"', b'"a\xff"') + b"\n" + good + b"\n")
        with pytest.raises(DataFormatError, match=r"^\S*bad\.jsonl:3: not UTF-8 text \('utf-8' codec "
                                                  r"can't decode byte 0xff in position \d+"):
            load_dataset(path)


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

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_ensemble_theta_is_the_prior_then_each_class_in_event_order(self, tmp_path, variant):
        rng = make_rng(7)
        events = ("right_turn", "left_lane", "straight")
        models = {name: random_model(rng, 3, 4, 2, variant) for name in reversed(events)}
        prior = np.array([0.5, 0.3, 0.2])
        path = tmp_path / "e.json"
        save_model(AioHmmEnsemble(events=events, models=models, prior=prior), {}, path)
        params = json.loads(path.read_text(encoding="utf-8"))["params"]
        want = np.concatenate([prior] + [getattr(models[e], f).ravel() for e in events for f in AIOHMM_FIELDS])
        assert list(params) == ["variant", "states", "input_x", "input_z", "events", "theta"]
        assert params["variant"] == variant and (params["states"], params["input_x"], params["input_z"]) == (3, 2, 4)
        assert params["events"] == list(events) and params["theta"] == encode_array(want)

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
        assert str(err.value) == (
            f"{path}: checkpoint format_version 1 cannot be read; this build reads "
            "format_version 5 only, so retrain the model to write one"
        )

    # format 2 stored a fusion network's theta as per-gate blocks, format 3
    # stored every parameter payload as base64, and format 4 stored each
    # AIO-HMM class as its own object of six arrays
    @pytest.mark.parametrize("version", [2, 3, 4])
    @pytest.mark.parametrize("name", ["fusion_h2", "aiohmm_s2"])
    def test_older_format_refused_with_the_reason(self, tmp_path, name, version):
        doc = json.loads((DATA / f"{name}.json").read_text(encoding="utf-8"))
        doc["format_version"] = version
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataFormatError) as err:
            load_model(path)
        assert str(err.value) == (
            f"{path}: checkpoint format_version {version} cannot be read; this build reads "
            "format_version 5 only, so retrain the model to write one"
        )

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


ENCODED_EDGES = np.array([-0.0, 0.0, 5e-324, -2.2250738585072009e-308, 1.7e308, -1.7e308, np.nextafter(1.0, 2.0)])


class TestArrayEncoding:
    @settings(max_examples=200, deadline=None)
    @given(array=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
                            elements=st.floats(width=64) | st.sampled_from(ENCODED_EDGES.tolist())))
    @example(array=ENCODED_EDGES)
    @example(array=np.array(-0.0))
    @example(array=np.zeros((2, 0, 3)))
    def test_round_trip_is_bit_exact_and_writable(self, array):
        entry = json.loads(json.dumps(encode_array(array)))
        assert entry["shape"] == list(array.shape)
        assert len(entry["float64"]) == 16 * array.size and set(entry["float64"]) <= set("0123456789abcdef")
        back = decode_array(entry)
        assert back.dtype == np.float64 and back.dtype.isnative and back.flags.writeable
        assert back.shape == array.shape and back.tobytes() == array.tobytes()

    def test_payload_is_little_endian_doubles_in_c_order(self):
        array = np.arange(6.0).reshape(2, 3).T
        entry = encode_array(array)
        raw = b"".join(struct.pack("<d", v) for v in [0.0, 3.0, 1.0, 4.0, 2.0, 5.0])
        assert entry == {"shape": [3, 2], "float64": raw.hex()}

    GOOD = encode_array(np.arange(4.0).reshape(2, 2))

    @pytest.mark.parametrize("entry, reason", [
        ({"shape": [2, 2], "float64": bytes(31).hex()}, r"payload holds 31 bytes; shape \[2, 2\] needs 32"),
        ({"shape": [2, 2], "float64": bytes(33).hex()}, r"payload holds 33 bytes; shape \[2, 2\] needs 32"),
        ({"shape": [2, 2], "float64": GOOD["float64"][:-4]}, r"payload holds 30 bytes; shape \[2, 2\] needs 32"),
        ({"shape": [2, 2], "float64": GOOD["float64"][:-1]}, r"payload is not hex \(Odd-length string\)"),
        ({"shape": [2, 2], "float64": GOOD["float64"][:20] + "g" + GOOD["float64"][21:]},
         r"payload is not hex \(Non-hexadecimal digit found\)"),
        ({"shape": [2, 2], "float64": GOOD["float64"][:20] + "  " + GOOD["float64"][22:]},
         r"payload is not hex \(Non-hexadecimal digit found\)"),
        ({"shape": [2, 2], "float64": GOOD["float64"][:20] + "\n" + GOOD["float64"][21:]},
         r"payload is not hex \(Non-hexadecimal digit found\)"),
        ({"shape": [2, 2], "float64": GOOD["float64"][:20] + " " + GOOD["float64"][20:]},
         r"payload is not hex \(Odd-length string\)"),
        ({"shape": [2, 2], "float64": GOOD["float64"][:20] + "\u00e9" + GOOD["float64"][21:]},
         r"payload is not hex \(string argument should contain only ASCII characters\)"),
        ({"shape": [2, 2], "float64": GOOD["float64"], "dtype": "float64"},
         r"entry has keys \['dtype', 'float64', 'shape'\], expected \['float64', 'shape'\]"),
        ({"shape": [2, 2]}, r"entry has keys \['shape'\], expected \['float64', 'shape'\]"),
        ({"float64": GOOD["float64"]}, r"entry has keys \['float64'\], expected \['float64', 'shape'\]"),
        ({"shape": [4, True], "float64": GOOD["float64"]}, r"shape entry True is not a non-negative integer"),
        ({"shape": [-4, -1], "float64": GOOD["float64"]}, r"shape entry -4 is not a non-negative integer"),
        ({"shape": [-2, -2], "float64": GOOD["float64"]}, r"shape entry -2 is not a non-negative integer"),
        ({"shape": [2, 2.0], "float64": GOOD["float64"]}, r"shape entry 2\.0 is not a non-negative integer"),
        ({"shape": 4, "float64": GOOD["float64"]}, r"shape is a number, not an array"),
        ({"shape": [2, 2], "float64": [GOOD["float64"]]}, r"payload is an array, not a hex string"),
        ([[0.0, 1.0], [2.0, 3.0]], r"entry is an array, not an object with keys 'float64' and 'shape'"),
        (None, r"entry is null, not an object with keys 'float64' and 'shape'"),
    ], ids=["byte-short", "byte-long", "cut-4-characters", "odd-length", "non-hex-digit", "embedded-spaces",
            "embedded-newline", "inserted-space", "non-ascii", "extra-key",
            "no-payload", "no-shape", "bool-dimension", "negative-dimension", "negative-pair", "float-dimension",
            "shape-not-a-list", "payload-not-a-string", "format-1-list", "null"])
    # The product of each bad shape is 4, as many doubles as the payload holds.
    def test_malformed_entry_refused(self, entry, reason):
        with pytest.raises(ValueError, match=rf"^{reason}$"):
            decode_array(entry)

    @pytest.mark.parametrize("shape", [[2**32, 2**32], [2**62, 2**62, 4], [0, 2**63], [0, 2**40, 2**40], [0] * 65])
    def test_overflowing_shape_refused_without_allocating(self, shape):
        tracemalloc.start()
        try:
            for payload in (bytes(8).hex(), ""):
                with pytest.raises(ValueError, match=r"^payload holds \d+ bytes; shape .* needs \d+$"
                                                     r"|^shape .* is not one NumPy holds \(.+\)$"):
                    decode_array({"shape": shape, "float64": payload})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestParentCheckpoints:
    """Checkpoints written by earlier versions, converted to format 2 by
    loading each with the format-1 loader and saving it again, then to
    format 3 by joining each fusion network's per-gate blocks, in order,
    into its theta, then to format 4 by writing each base64 payload's bytes
    as hex, then to format 5 by joining an AIO-HMM ensemble's prior and each
    class's arrays, in order, into its theta: the fusion ones from before
    the parameters moved into one flat vector (hidden 2, one epoch on
    `synth --n 20 --seed 4`)."""

    @pytest.mark.parametrize("name, total", [("fusion_h2", 205), ("concat_h2", 165)])
    def test_load_and_resave_byte_identically(self, tmp_path, name, total):
        src = DATA / f"{name}.json"
        model, kind, config = load_model(src)
        assert parameter_sha256(model) == PARAMETER_SHA256[name]
        save_model(model, config, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == src.read_bytes()
        theta = decode_array(json.loads(src.read_text(encoding="utf-8"))["params"]["theta"])
        assert param_count(model)["total"] == total == theta.size

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


def set_entry(entries: dict, name: str, index: tuple, value: float) -> None:
    """Set one value of the encoded array ``entries[name]``."""
    array = decode_array(entries[name])
    array[index] = value
    entries[name] = encode_array(array)


def edited_checkpoint(tmp_path, edit, name="fusion_h2") -> Path:
    doc = json.loads((DATA / f"{name}.json").read_text(encoding="utf-8"))
    edit(doc["params"])
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def theta_of(params: dict) -> np.ndarray:
    return decode_array(params["theta"])


class TestFusionCheckpointErrors:
    def test_numeric_strings_name_file_and_field(self, tmp_path):
        path = edited_checkpoint(tmp_path, lambda p: p.update(theta=[str(v) for v in theta_of(p).tolist()]))
        with pytest.raises(DataFormatError, match=r"edited\.json: field 'theta' is not an array of numbers"):
            load_model(path)

    @pytest.mark.parametrize(
        "name, field, value, message",
        [
            ("fusion_h2", "events", ["left_lane", "left_lane", "left_turn", "right_turn", "straight"],
             r"bad 'events' entry .*duplicate event labels"),
            ("fusion_h2", "events", ["left_lane", "right_lane", "u_turn", "right_turn", "straight"],
             r"bad 'events' entry .*unknown event labels"),
            ("fusion_h2", "theta", 5, r"field 'theta' is not an array of numbers "
                                      r"\(entry is a number, not an object with keys 'float64' and 'shape'\)"),
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
        ids=["duplicate-events", "unknown-events", "theta-not-an-object", "unknown-arch",
             "concat-string-hidden", "bool-hidden", "zero-hidden", "huge-hidden", "huge-input", "bool-input"],
    )
    def test_bad_description_names_the_file(self, tmp_path, name, field, value, message):
        path = edited_checkpoint(tmp_path, lambda p: p.update({field: value}), name)
        with pytest.raises(DataFormatError, match=r"edited\.json: " + message):
            load_model(path)

    # A declared size whose parameter vector would not fit in memory is
    # refused by the length check on the small theta, which allocates nothing.
    @pytest.mark.parametrize("field, value, want", [
        ("hidden", 10**8, 40000007200000005), ("input_z", 10**12, 8000000000093), ("hidden", 3, 257),
        ("arch", "fusion", 205),
    ], ids=["huge-hidden", "huge-input", "hidden-plus-one", "wrong-arch"])
    def test_declared_sizes_refused_before_allocation(self, tmp_path, field, value, want):
        path = edited_checkpoint(tmp_path, lambda p: p.update({field: value}), "concat_h2")
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

    def test_missing_theta_names_file_and_field(self, tmp_path):
        path = edited_checkpoint(tmp_path, lambda p: p.pop("theta"))
        with pytest.raises(DataFormatError, match=r"edited\.json: bad fusion network description \(KeyError\('theta'\)\)$"):
            load_model(path)

    @pytest.mark.parametrize("reshape, got", [
        (lambda t: t.reshape(41, 5), r"\(41, 5\)"),
        (lambda t: t[:-1], r"\(204,\)"),
        (lambda t: np.append(t, 0.5), r"\(206,\)"),
    ], ids=["2-d", "one-short", "one-long"])
    def test_misshaped_theta_names_file_field_and_both_counts(self, tmp_path, reshape, got):
        path = edited_checkpoint(tmp_path, lambda p: p.update(theta=encode_array(reshape(theta_of(p)))))
        with pytest.raises(
            DataFormatError,
            match=r"edited\.json: field 'theta' does not fit the declared sizes "
                  r"\(theta must be a contiguous float64 vector of 205 entries, got float64 " + got + r"\)$",
        ):
            load_model(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_theta_names_file_and_field(self, tmp_path, value):
        path = edited_checkpoint(tmp_path, lambda p: set_entry(p, "theta", (203,), value))
        with pytest.raises(DataFormatError, match=r"edited\.json: field 'theta' contains non-finite values$"):
            load_model(path)

    # theta's hex payload cut by 4 characters, i.e. 2 bytes
    def test_short_payload_names_file_and_field(self, tmp_path):
        path = edited_checkpoint(tmp_path, lambda p: p["theta"].update(float64=p["theta"]["float64"][:-4]))
        with pytest.raises(DataFormatError, match=r"edited\.json: field 'theta' is not an array of numbers "
                                                  r"\(payload holds 1638 bytes; shape \[205\] needs 1640\)$"):
            load_model(path)


HMM_EVENTS = ("left_lane", "right_lane", "straight")


@pytest.fixture(scope="module")
def hmm_doc(tmp_path_factory):
    """A saved three-class AIO-HMM ensemble (2 states, dx = 2, dz = 3) as
    parsed JSON; its theta holds 3 + 3 * 44 = 135 values."""
    rng = make_rng(30)
    ensemble = AioHmmEnsemble(events=HMM_EVENTS, models={e: random_model(rng, 2, 3, 2) for e in HMM_EVENTS})
    path = tmp_path_factory.mktemp("hmm") / "hmm.json"
    save_model(ensemble, {}, path)
    return json.loads(path.read_text(encoding="utf-8"))


def edited_hmm_checkpoint(tmp_path, doc, edit) -> Path:
    doc = json.loads(json.dumps(doc))
    edit(doc["params"])
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def theta_edit(event, field, value):
    """An edit of an AIO-HMM checkpoint's params that sets ``field`` of
    ``event``'s class (``"prior"`` for the prior) to ``value`` inside
    ``theta``, in the layout of the declared sizes."""
    def edit(params):
        events = params["events"]
        shapes = param_shapes(params["variant"], params["states"], params["input_x"], params["input_z"])
        counts = [math.prod(shape) for shape in shapes.values()]
        start, count = 0, len(events)
        if field != "prior":
            i = AIOHMM_FIELDS.index(field)
            start, count = len(events) + events.index(event) * sum(counts) + sum(counts[:i]), counts[i]
        theta = decode_array(params["theta"])
        theta[start : start + count] = np.ravel(value)
        params["theta"] = encode_array(theta)
    return edit


class TestAioHmmCheckpointErrors:
    def test_unedited_checkpoint_loads(self, tmp_path, hmm_doc):
        ensemble, kind, _ = load_model(edited_hmm_checkpoint(tmp_path, hmm_doc, lambda p: None))
        assert kind == "aio_hmm" and ensemble.events == HMM_EVENTS

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_theta_names_file_and_field(self, tmp_path, hmm_doc, value):
        mu = np.ones((2, 3))
        mu[1, 2] = value
        path = edited_hmm_checkpoint(tmp_path, hmm_doc, theta_edit("right_lane", "mu", mu))
        with pytest.raises(DataFormatError, match=r"edited\.json: field 'theta' contains non-finite values$"):
            load_model(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda p: p["theta"].update(shape=[-135]), r"shape entry -135 is not a non-negative integer"),
        (lambda p: p.update(theta=decode_array(p["theta"]).tolist()),
         r"entry is an array, not an object with keys 'float64' and 'shape'"),
        (lambda p: p["theta"].update(float64=p["theta"]["float64"][:-4]),
         r"payload holds 1078 bytes; shape \[135\] needs 1080"),
    ], ids=["negative-shape", "number-list", "cut-payload"])
    def test_refused_theta_gives_the_reason(self, tmp_path, hmm_doc, edit, message):
        path = edited_hmm_checkpoint(tmp_path, hmm_doc, edit)
        with pytest.raises(DataFormatError, match=r"edited\.json: field 'theta' is not an array of numbers \("
                                                  + message + r"\)$"):
            load_model(path)

    @pytest.mark.parametrize("field, message", [
        ("theta", r"bad AIO-HMM ensemble description \(KeyError\('theta'\)\)"),
        ("states", r"bad AIO-HMM ensemble description \(KeyError\('states'\)\)"),
        ("input_z", r"bad AIO-HMM ensemble description \(KeyError\('input_z'\)\)"),
        ("variant", r"unknown variant None"),
        ("events", r"bad 'events' entry \(KeyError\('events'\)\)"),
    ])
    def test_missing_field_names_file_and_field(self, tmp_path, hmm_doc, field, message):
        path = edited_hmm_checkpoint(tmp_path, hmm_doc, lambda p: p.pop(field))
        with pytest.raises(DataFormatError, match=r"edited\.json: " + message + "$"):
            load_model(path)

    @pytest.mark.parametrize(
        "value", ["abc", [[1.0, 2.0], [3.0]], {"x": 1}, [["0.5"] * 2] * 2, [[True] * 2] * 2,
                  {"shape": [135], "float64": encode_array(np.ones(3))["float64"]}]
    )
    def test_non_numeric_theta_names_file_and_field(self, tmp_path, hmm_doc, value):
        path = edited_hmm_checkpoint(tmp_path, hmm_doc, lambda p: p.update(theta=value))
        with pytest.raises(DataFormatError, match=r"edited\.json: field 'theta' is not an array of numbers"):
            load_model(path)

    @pytest.mark.parametrize("field, value", [
        ("states", "2"), ("states", True), ("states", 0), ("input_x", 2.0), ("input_z", -3), ("input_z", None),
    ])
    def test_bad_size_names_file_and_field(self, tmp_path, hmm_doc, field, value):
        path = edited_hmm_checkpoint(tmp_path, hmm_doc, lambda p: p.update({field: value}))
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
    def test_declared_sizes_refused_before_allocation(self, tmp_path, hmm_doc, field, value, want):
        path = edited_hmm_checkpoint(tmp_path, hmm_doc, lambda p: p.update({field: value}))
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
        (lambda p: p.update(variant="io"), r"model 'left_lane': variant 'io' requires b = 0"),
        (lambda p: p.update(variant="lstm"), r"unknown variant 'lstm'"),
        (lambda p: p.update(variant=["aio"]), r"unknown variant \['aio'\]"),
    ], ids=["sigma", "pi", "io-variant", "unknown-variant", "variant-not-a-string"])
    def test_invalid_class_names_file_and_event(self, tmp_path, hmm_doc, edit, message):
        path = edited_hmm_checkpoint(tmp_path, hmm_doc, edit)
        with pytest.raises(DataFormatError, match=r"edited\.json: " + message + "$"):
            load_model(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: p.update(events=["straight", "left_lane", "right_lane"]),
             r"bad 'events' entry .*must be the last"),
            (lambda p: p.update(events=7), r"bad 'events' entry \(TypeError"),
            (lambda p: p.update(events=[]), r"bad 'events' entry .*must be the last"),
            (lambda p: p.update(events=["left_lane", "left_lane", "straight"]),
             r"bad 'events' entry .*duplicate event labels"),
            (lambda p: p.update(events=["left_lane", "straight"]),
             r"field 'theta' does not fit the declared sizes \(theta must be a vector of 90 entries"),
            (theta_edit(None, "prior", [0.5, 0.5, 0.5]), r"'prior' must be a distribution over the 3 events$"),
            (theta_edit(None, "prior", [1.5, -0.5, 0.0]), r"'prior' must be a distribution over the 3 events$"),
        ],
        ids=["straight-not-last", "events-not-a-list", "no-event", "duplicate-event", "event-dropped",
             "prior-sum", "prior-negative"],
    )
    def test_bad_ensemble_entry_names_file(self, tmp_path, hmm_doc, edit, message):
        with pytest.raises(DataFormatError, match=r"edited\.json: " + message):
            load_model(edited_hmm_checkpoint(tmp_path, hmm_doc, edit))

    def test_models_with_different_sizes_rejected(self, tmp_path, hmm_doc):
        # An ensemble built in code refuses a class of another z size; a
        # checkpoint can only declare one, so one that does not fit is refused.
        rng = make_rng(31)
        models = {e: random_model(rng, 2, 3, 2) for e in HMM_EVENTS}
        with pytest.raises(ValueError, match=r"models disagree on their \(x, z\) sizes \[\(2, 3\), \(2, 4\)\]"):
            AioHmmEnsemble(events=HMM_EVENTS, models={**models, "straight": random_model(rng, 2, 4, 2)})
        path = edited_hmm_checkpoint(tmp_path, hmm_doc, lambda p: p.update(input_z=4))
        with pytest.raises(DataFormatError, match=r"edited\.json: field 'theta' does not fit the declared sizes"):
            load_model(path)

    def test_only_bad_covariance_is_named(self, tmp_path):
        # the batched check fails for the whole stack; the message must still
        # name the one state whose covariance is not positive definite
        rng = make_rng(32)
        models = {e: random_model(rng, 4, 3, 2) for e in EVENTS}
        models["left_turn"].sigma[2] = np.diag([1.0, -1.0, 1.0])
        path = tmp_path / "m.json"
        save_model(AioHmmEnsemble(events=EVENTS, models=models), {}, path)
        with pytest.raises(DataFormatError,
                           match=r"m\.json: model 'left_turn': sigma\[2\] is not positive definite$"):
            load_model(path)

    @pytest.mark.parametrize("doc", [[1, 2], {"format_version": FORMAT_VERSION, "kind": "aio_hmm"}])
    def test_document_without_params_rejected(self, tmp_path, doc):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataFormatError, match=r"m\.json: "):
            load_model(path)


FUSION_DOC = json.loads((DATA / "fusion_h2.json").read_text(encoding="utf-8"))
FUSION_PATHS = [
    (), ("format_version",), ("kind",), ("config",), ("params",), ("params", "arch"),
    ("params", "input_x"), ("params", "input_z"), ("params", "hidden"),
    ("params", "events"), ("params", "events", 2), ("params", "events", 4), ("params", "theta"),
    ("params", "theta", "shape"), ("params", "theta", "shape", 0), ("params", "theta", "float64"),
]
HMM_PATHS = [
    (), ("kind",), ("params",), ("params", "events"), ("params", "events", 1), ("params", "events", 2),
    ("params", "variant"), ("params", "states"), ("params", "input_x"), ("params", "input_z"),
    ("params", "theta"), ("params", "theta", "shape"), ("params", "theta", "shape", 0),
    ("params", "theta", "float64"),
]
# Declared sizes and array shape entries get small values, values of the
# wrong type, and huge values whose parameters would not fit in memory.
# Payloads are hex of whole doubles, any bits and any count, so some match
# their shape and hold NaN, Inf, subnormal or huge values; or the file's own
# payload with a run of its doubles overwritten, so that the per-class checks
# see covariances, initial distributions and priors of any value.
SIZE_FIELDS = ("input_x", "input_z", "hidden", "states")
SIZES = st.integers(-2, 10) | st.sampled_from(
    [None, True, 2.0, "2", [2], 10**8, 10**12, 1e8, 1e12, -(10**12)]
)
PAYLOADS = st.integers(0, 16).flatmap(lambda n: st.binary(min_size=8 * n, max_size=8 * n)).map(
    lambda raw: raw.hex()
)


def overwritten(payload: str):
    """Strategy: the hex ``payload`` with a run of its doubles overwritten
    by one of PAYLOADS, its length kept."""
    n = len(payload) // 16
    return st.tuples(st.integers(0, n - 1), PAYLOADS).map(
        lambda cut: (payload[: 16 * cut[0]] + cut[1] + payload[16 * cut[0] + len(cut[1]):])[: 16 * n]
    )


@st.composite
def checkpoint_mutations(draw, doc, paths):
    where = draw(st.sampled_from(paths))
    key = where[-1] if where else None
    if key in SIZE_FIELDS or "shape" in where[-2:-1]:
        values = SIZES
    elif key == "shape":
        values = st.lists(SIZES, max_size=3) | JSON_VALUES
    elif key == "float64":
        values = overwritten(doc["params"]["theta"]["float64"]) | PAYLOADS | JSON_VALUES
    elif key == "variant":
        values = st.sampled_from(VARIANTS) | JSON_VALUES
    else:
        values = JSON_VALUES
    return where, draw(values), draw(st.booleans())


def load_mutated_checkpoint(doc):
    """Load ``doc`` as a checkpoint file.  It must raise DataFormatError or
    give finite float64 parameters over a valid event tuple."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
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
@given(mutation=checkpoint_mutations(FUSION_DOC, FUSION_PATHS))
def test_mutated_fusion_checkpoint_loads_or_raises_data_format_error(mutation):
    load_mutated_checkpoint(mutated(FUSION_DOC, *mutation))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_aiohmm_checkpoint_loads_or_raises_data_format_error(hmm_doc, data):
    load_mutated_checkpoint(mutated(hmm_doc, *data.draw(checkpoint_mutations(hmm_doc, HMM_PATHS))))


def test_train_config_round_trips_through_checkpoint(tmp_path):
    from maneuverkit.aiohmm import EmConfig
    from maneuverkit.training import TrainConfig

    model = init_fusion_model("fusion", 6, 9, 4, EVENTS, make_rng(1))
    cfg = TrainConfig(loss_mode="uniform", learning_rate=3e-4, epochs=7, seed=42)
    em = EmConfig(states=4, variant="io", max_iter=12, seed=8)
    path = tmp_path / "m.json"
    save_model(model, {"train": cfg.to_dict(), "em": em.to_dict()}, path)
    _, _, loaded = load_model(path)
    assert loaded == {"train": cfg.to_dict(), "em": em.to_dict()}
