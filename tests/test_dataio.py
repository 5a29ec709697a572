import copy
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maneuverkit.aiohmm import AioHmmEnsemble
from maneuverkit.anticipation import AioHmmPredictor
from maneuverkit.dataio import (
    AIOHMM_ARRAYS,
    KIND_AIOHMM,
    DataFormatError,
    load_dataset,
    load_model,
    save_dataset,
    save_model,
)
from maneuverkit.events import EVENTS, validate_events
from maneuverkit.fusion_rnn import FusionRnnModel, init_fusion_model, param_blocks, param_count
from maneuverkit.numerics import make_rng
from maneuverkit.synth import ScenarioConfig, generate

from test_aiohmm import random_model

DATA = Path(__file__).parent / "data"


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
            for field in ("mu", "a", "b", "sigma", "w", "pi"):
                np.testing.assert_array_equal(
                    getattr(loaded.models[name], field), getattr(ens.models[name], field)
                )

    def test_ensemble_with_a_list_prior_saves(self, tmp_path):
        rng = make_rng(6)
        models = {name: random_model(rng, 2, 9, 6) for name in EVENTS}
        path = tmp_path / "e.json"
        save_model(AioHmmEnsemble(events=EVENTS, models=models, prior=[0.2] * 5), {}, path)
        np.testing.assert_array_equal(load_model(path)[0].prior, np.full(5, 0.2))

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"format_version": 99, "kind": "fusion_rnn"}), encoding="utf-8")
        with pytest.raises(DataFormatError, match="format_version"):
            load_model(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            json.dumps({"format_version": 1, "kind": "boosted_trees", "params": {}}),
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


class TestParentCheckpoints:
    """Checkpoints written by earlier versions: the fusion ones before the
    parameters moved into one flat vector (hidden 2, one epoch on
    `synth --n 20 --seed 4`)."""

    @pytest.mark.parametrize("name, total", [("fusion_h2", 205), ("concat_h2", 165)])
    def test_load_and_resave_byte_identically(self, tmp_path, name, total):
        src = DATA / f"{name}.json"
        model, kind, config = load_model(src)
        save_model(model, config, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == src.read_bytes()
        blocks = json.loads(src.read_text(encoding="utf-8"))["params"]["blocks"]
        counts = param_count(model)
        assert [name for name, _ in param_blocks(model)] == list(blocks)
        assert counts.pop("total") == total
        assert counts == {name: np.asarray(value).size for name, value in blocks.items()}

    def test_aiohmm_checkpoint_loads_resaves_and_streams(self, tmp_path):
        """An AIO-HMM ensemble written while the EM settings were still
        config fields (2 states, 3 EM iterations on `synth --n 60 --seed 1`);
        its `em` meta still records `cov_floor` and `w_iters`."""
        src = DATA / "aiohmm_s2.json"
        ensemble, kind, config = load_model(src)
        assert kind == KIND_AIOHMM and config["em"]["w_iters"] == 25
        save_model(ensemble, config, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == src.read_bytes()
        predictor = AioHmmPredictor(ensemble)
        for sample in generate(ScenarioConfig(seed=3), 6):
            state = predictor.begin()
            for t in range(sample.length):
                state, row = predictor.step(state, sample.xs[t], sample.zs[t])
                want = ensemble.posterior(sample.xs[: t + 1], sample.zs[: t + 1])
                np.testing.assert_allclose(row, want, rtol=0, atol=1e-10)


def edited_checkpoint(tmp_path, edit) -> Path:
    doc = json.loads((DATA / "fusion_h2.json").read_text(encoding="utf-8"))
    edit(doc["params"]["blocks"])
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestCheckpointBlockErrors:
    def test_numeric_strings_name_file_and_block(self, tmp_path):
        path = edited_checkpoint(tmp_path, lambda b: b.update(b_y=[str(v) for v in b["b_y"]]))
        with pytest.raises(DataFormatError, match=r"edited\.json: block 'b_y' is not an array of numbers"):
            load_model(path)

    @pytest.mark.parametrize(
        "name, field, value, message",
        [
            ("fusion_h2", "events", ["left_lane", "left_lane", "left_turn", "right_turn", "straight"],
             r"bad 'events' entry .*duplicate event labels"),
            ("fusion_h2", "events", ["left_lane", "right_lane", "u_turn", "right_turn", "straight"],
             r"bad 'events' entry .*unknown event labels"),
            ("fusion_h2", "blocks", 5, r"field 'blocks' must be an object"),
            ("fusion_h2", "arch", "lstm", r"unknown arch 'lstm'"),
            ("concat_h2", "fusion", "abc", r"field 'fusion' must be an integer of at least 0, got 'abc'"),
            ("concat_h2", "fusion", 3, r"bad fusion network description .*fusion must be 0, got 3"),
            ("fusion_h2", "hidden", True, r"field 'hidden' must be an integer of at least 1, got True"),
            ("fusion_h2", "hidden", 0, r"field 'hidden' must be an integer of at least 1, got 0"),
            ("fusion_h2", "hidden", 10**8,
             r"block 'lstm_x\.b_i' has shape \(2,\), expected \(100000000,\)"),
            ("fusion_h2", "input_z", 10**12,
             r"block 'lstm_z\.W_i' has shape \(2, 9\), expected \(2, 1000000000000\)"),
            ("fusion_h2", "fusion", 10**8, r"block 'b_f' has shape \(2,\), expected \(100000000,\)"),
        ],
        ids=["duplicate-events", "unknown-events", "blocks-not-an-object", "unknown-arch",
             "concat-fusion", "concat-fusion-width", "bool-hidden", "zero-hidden", "huge-hidden",
             "huge-input", "huge-fusion"],
    )
    def test_bad_description_names_the_file(self, tmp_path, name, field, value, message):
        doc = json.loads((DATA / f"{name}.json").read_text(encoding="utf-8"))
        doc["params"][field] = value
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataFormatError, match=r"edited\.json: " + message):
            load_model(path)

    def test_huge_hidden_with_a_matching_bias_block_is_refused_before_allocation(self, tmp_path):
        # The declared size agrees with lstm_x.b_i, so only the (H, H)
        # recurrent block stands between it and a terabyte parameter vector.
        H = 200_000
        doc = json.loads((DATA / "fusion_h2.json").read_text(encoding="utf-8"))
        doc["params"]["hidden"] = H
        doc["params"]["blocks"]["lstm_x.b_i"] = [0.0] * H
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(
            DataFormatError,
            match=r"edited\.json: block 'lstm_x\.U_i' has shape \(2, 2\), expected \(200000, 200000\)",
        ):
            load_model(path)

    def test_missing_block_names_file_and_block(self, tmp_path):
        path = edited_checkpoint(tmp_path, lambda b: b.pop("lstm_z.V_f"))
        with pytest.raises(DataFormatError, match=r"edited\.json: block 'lstm_z\.V_f' is missing"):
            load_model(path)

    def test_misshaped_block_names_file_and_block(self, tmp_path):
        path = edited_checkpoint(tmp_path, lambda b: b.update({"lstm_x.U_c": [[0.5]]}))
        with pytest.raises(
            DataFormatError,
            match=r"edited\.json: block 'lstm_x\.U_c' has shape \(1, 1\), expected \(2, 2\)",
        ):
            load_model(path)

    def test_non_finite_block_names_file_and_block(self, tmp_path):
        path = edited_checkpoint(tmp_path, lambda b: b["W_y"][0].__setitem__(1, float("nan")))
        with pytest.raises(DataFormatError, match=r"edited\.json: block 'W_y' contains non-finite"):
            load_model(path)


@pytest.fixture(scope="module")
def hmm_doc(tmp_path_factory):
    """A saved three-class AIO-HMM ensemble (2 states, dx = 2, dz = 3) as
    parsed JSON."""
    rng = make_rng(30)
    events = ("left_lane", "right_lane", "straight")
    ensemble = AioHmmEnsemble(events=events, models={e: random_model(rng, 2, 3, 2) for e in events})
    path = tmp_path_factory.mktemp("hmm") / "hmm.json"
    save_model(ensemble, {}, path)
    return json.loads(path.read_text(encoding="utf-8"))


def edited_hmm_checkpoint(tmp_path, doc, edit) -> Path:
    doc = json.loads(json.dumps(doc))
    edit(doc["params"])
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestAioHmmCheckpointErrors:
    def test_unedited_checkpoint_loads(self, tmp_path, hmm_doc):
        ensemble, kind, _ = load_model(edited_hmm_checkpoint(tmp_path, hmm_doc, lambda p: None))
        assert kind == "aio_hmm" and ensemble.events == ("left_lane", "right_lane", "straight")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_field_names_file_class_and_field(self, tmp_path, hmm_doc, value):
        path = edited_hmm_checkpoint(
            tmp_path, hmm_doc, lambda p: p["models"]["right_lane"]["mu"][1].__setitem__(2, value)
        )
        with pytest.raises(
            DataFormatError, match=r"edited\.json: model 'right_lane': field 'mu' contains non-finite"
        ):
            load_model(path)

    def test_missing_field_names_file_class_and_field(self, tmp_path, hmm_doc):
        path = edited_hmm_checkpoint(tmp_path, hmm_doc, lambda p: p["models"]["straight"].pop("sigma"))
        with pytest.raises(DataFormatError, match=r"edited\.json: model 'straight': field 'sigma' is missing"):
            load_model(path)

    @pytest.mark.parametrize(
        "value", ["abc", [[1.0, 2.0], [3.0]], {"x": 1}, [[["0.5"] * 2] * 2] * 2, [[[True] * 2] * 2] * 2]
    )
    def test_non_numeric_field_names_file_class_and_field(self, tmp_path, hmm_doc, value):
        path = edited_hmm_checkpoint(tmp_path, hmm_doc, lambda p: p["models"]["left_lane"].update(w=value))
        with pytest.raises(
            DataFormatError, match=r"edited\.json: model 'left_lane': field 'w' is not an array of numbers"
        ):
            load_model(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("sigma", np.zeros((1, 1, 1)).tolist(), r"sigma has shape \(1, 1, 1\), expected \(2, 3, 3\)"),
            ("b", [[0.0, 0.0, 0.0]], r"b has shape \(1, 3\), expected \(2, 3\)"),
            ("mu", [1.0, 2.0], r"mu and a must be 2-D"),
            ("pi", [1.5, -0.5], r"pi must be a distribution"),
            ("sigma", (-np.ones((2, 3, 3))).tolist(), r"sigma\[0\] is not positive definite"),
            ("variant", "lstm", r"unknown variant 'lstm'"),
        ],
    )
    def test_invalid_field_names_file_and_class(self, tmp_path, hmm_doc, field, value, message):
        path = edited_hmm_checkpoint(tmp_path, hmm_doc, lambda p: p["models"]["straight"].update({field: value}))
        with pytest.raises(DataFormatError, match=r"edited\.json: model 'straight': " + message):
            load_model(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: p.pop("events"), r"bad 'events' entry \(KeyError"),
            (lambda p: p.update(events=["straight", "left_lane"]), r"bad 'events' entry .*must be the last"),
            (lambda p: p.update(events=7), r"bad 'events' entry \(TypeError"),
            (lambda p: p.update(events=[]), r"bad 'events' entry .*must be the last"),
            (lambda p: p.update(prior=["a", "b", "c"]), r"bad 'prior' entry"),
            (lambda p: p.update(prior=["0.25", "0.25", "0.5"]), r"bad 'prior' entry"),
            (lambda p: p.update(prior=[0.5, 0.5]), r"'prior' must be a distribution over the 3 events"),
            (lambda p: p.update(prior=[0.5, float("nan"), 0.5]), r"'prior' must be a distribution"),
            (lambda p: p.update(models=[]), r"'models' must be an object keyed by event"),
            (lambda p: p["models"].pop("right_lane"), r"'models' has no model for events \['right_lane'\]"),
            (lambda p: p["models"].update(right_lane=[1, 2]), r"model 'right_lane' must be an object"),
            (lambda p: p["models"].update(bogus=p["models"]["straight"]),
             r"'models' has models for keys outside the events \['bogus'\]"),
            (lambda p: p.update(prior=[1.5, -0.5, 0.0]), r"'prior' must be a distribution over the 3 events"),
        ],
        ids=["no-events", "straight-not-last", "events-not-a-list", "no-event", "prior-not-numbers",
             "prior-numeric-strings", "prior-misshaped", "prior-nan", "models-not-an-object",
             "model-missing", "model-not-an-object", "stray-model-key", "prior-negative"],
    )
    def test_bad_ensemble_entry_names_file(self, tmp_path, hmm_doc, edit, message):
        with pytest.raises(DataFormatError, match=r"edited\.json: " + message):
            load_model(edited_hmm_checkpoint(tmp_path, hmm_doc, edit))

    def test_models_with_different_sizes_rejected(self, tmp_path, hmm_doc):
        other = random_model(make_rng(31), 2, 4, 2)
        entry = {"variant": "aio", **{k: getattr(other, k).tolist() for k in ("mu", "a", "b", "sigma", "w", "pi")}}
        path = edited_hmm_checkpoint(tmp_path, hmm_doc, lambda p: p["models"].update(straight=entry))
        with pytest.raises(DataFormatError, match=r"edited\.json: models disagree on their \(x, z\) sizes"):
            load_model(path)

    @pytest.mark.parametrize("doc", [[1, 2], {"format_version": 1, "kind": "aio_hmm"}])
    def test_document_without_params_rejected(self, tmp_path, doc):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataFormatError, match=r"m\.json: "):
            load_model(path)


FUSION_DOC = json.loads((DATA / "fusion_h2.json").read_text(encoding="utf-8"))
FUSION_PATHS = [
    (), ("format_version",), ("kind",), ("config",), ("params",), ("params", "arch"),
    ("params", "input_x"), ("params", "input_z"), ("params", "hidden"), ("params", "fusion"),
    ("params", "events"), ("params", "events", 2), ("params", "events", 4), ("params", "blocks"),
    ("params", "blocks", "lstm_x.W_i"), ("params", "blocks", "lstm_x.W_i", 1, 3),
    ("params", "blocks", "lstm_z.V_o"), ("params", "blocks", "lstm_z.V_o", 0),
    ("params", "blocks", "W_f", 1), ("params", "blocks", "b_y"), ("params", "blocks", "b_y", 4),
]
HMM_MODEL = ("params", "models", "right_lane")
HMM_PATHS = [
    (), ("kind",), ("params",), ("params", "events"), ("params", "events", 1), ("params", "events", 2),
    ("params", "prior"), ("params", "prior", 0), ("params", "models"), ("params", "models", "straight"),
    HMM_MODEL + ("variant",), HMM_MODEL + ("mu",), HMM_MODEL + ("mu", 1), HMM_MODEL + ("a", 0, 1),
    HMM_MODEL + ("b",), HMM_MODEL + ("b", 1, 2), HMM_MODEL + ("sigma",), HMM_MODEL + ("sigma", 1),
    HMM_MODEL + ("sigma", 0, 2, 2), HMM_MODEL + ("w",), HMM_MODEL + ("w", 1, 0), HMM_MODEL + ("pi",),
    HMM_MODEL + ("pi", 1),
]
# Declared network sizes get small values, values of the wrong type, and huge
# values whose parameter vector would not fit in memory.
SIZE_FIELDS = ("input_x", "input_z", "hidden", "fusion")
SIZES = st.integers(-2, 10) | st.sampled_from(
    [None, True, 2.0, "2", [2], 10**8, 10**12, 1e8, 1e12, -(10**12)]
)


@st.composite
def checkpoint_mutations(draw, paths):
    where = draw(st.sampled_from(paths))
    sizes = bool(where) and where[-1] in SIZE_FIELDS
    return where, draw(SIZES if sizes else JSON_VALUES), draw(st.booleans())


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
        arrays = [model.prior] + [getattr(m, f) for m in model.models.values() for f in AIOHMM_ARRAYS]
    for arr in arrays:
        assert arr.dtype == np.float64 and np.all(np.isfinite(arr))
    validate_events(model.events)


@settings(max_examples=300, deadline=None)
@given(mutation=checkpoint_mutations(FUSION_PATHS))
def test_mutated_fusion_checkpoint_loads_or_raises_data_format_error(mutation):
    load_mutated_checkpoint(mutated(FUSION_DOC, *mutation))


@settings(max_examples=300, deadline=None)
@given(mutation=checkpoint_mutations(HMM_PATHS))
def test_mutated_aiohmm_checkpoint_loads_or_raises_data_format_error(hmm_doc, mutation):
    load_mutated_checkpoint(mutated(hmm_doc, *mutation))


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
