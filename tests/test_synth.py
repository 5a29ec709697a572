from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maneuverkit.events import EVENTS, LEFT_LANE, RIGHT_LANE, STRAIGHT
from maneuverkit.synth import (
    ScenarioConfig,
    generate,
    oracle_classify,
    split_folds,
)


class TestGenerate:
    def test_determinism(self):
        cfg = ScenarioConfig(seed=7)
        a = generate(cfg, 50)
        b = generate(cfg, 50)
        for s, t in zip(a, b):
            assert s.id == t.id and s.label == t.label
            np.testing.assert_array_equal(s.xs, t.xs)
            np.testing.assert_array_equal(s.zs, t.zs)

    def test_left_lane_changes_have_left_lane(self):
        data = generate(ScenarioConfig(seed=1), 200)
        for s in data:
            if EVENTS[s.label] == LEFT_LANE:
                assert np.all(s.xs[:, 0] == 1.0)
            if EVENTS[s.label] == RIGHT_LANE:
                assert np.all(s.xs[:, 1] == 1.0)

    def test_inside_features_unit_norm(self):
        data = generate(ScenarioConfig(seed=2), 60)
        for s in data:
            norms = np.linalg.norm(s.zs, axis=1)
            np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_speed_ordering_invariant(self):
        data = generate(ScenarioConfig(seed=3, outside_nuisance=1.0), 60)
        for s in data:
            assert np.all(s.xs[:, 5] <= s.xs[:, 3] + 1e-12)
            assert np.all(s.xs[:, 3] <= s.xs[:, 4] + 1e-12)

    def test_lengths_in_configured_range(self):
        cfg = ScenarioConfig(seed=4, t_min=6, t_max=12)
        data = generate(cfg, 100)
        lengths = {s.length for s in data}
        assert lengths <= set(range(6, 13))

    def test_cue_onset_respects_lead_times(self):
        cfg = ScenarioConfig(seed=5)
        for s in generate(cfg, 100):
            if EVENTS[s.label] == STRAIGHT:
                assert s.meta["cue_onset"] is None
            else:
                lead = s.length - s.meta["cue_onset"]
                assert cfg.lead_min <= lead <= cfg.lead_max

    def test_noiseless_cues_are_perfectly_decodable(self):
        cfg = ScenarioConfig(seed=6, noise_sigma=0.0)
        data = generate(cfg, 150)
        hits = [oracle_classify(s.zs, cfg) == s.label for s in data]
        assert all(hits)

    def test_zero_cue_strength_is_uninformative(self):
        cfg = ScenarioConfig(seed=7, cue_strength=0.0)
        data = generate(cfg, 400)
        # no cue is embedded at all
        assert all(s.meta["cue_onset"] is None for s in data)
        # the oracle cannot beat the majority class (straight ~ 42%)
        acc = np.mean([oracle_classify(s.zs, cfg) == s.label for s in data])
        assert acc <= 0.5
        # outside streams are label-independent: per-class artifact rates agree
        rates = {}
        for s in data:
            rates.setdefault(s.label, []).append(float(s.xs[:, 2].mean()))
        means = [np.mean(v) for v in rates.values()]
        assert max(means) - min(means) < 0.25

    def test_bad_configs_rejected(self):
        with pytest.raises(ValueError):
            generate(ScenarioConfig(seed=0, lead_max=6, t_min=6), 5)
        with pytest.raises(ValueError):
            generate(ScenarioConfig(seed=0), 0)
        with pytest.raises(ValueError):
            ScenarioConfig(events=("left_lane",))

    # each rule, broken on construction and through replace; a repeated
    # event used to make generate return fewer samples than asked
    @pytest.mark.parametrize("overrides, message", [
        ({"t_min": 1}, "need 2 <= t_min <= t_max"),
        ({"t_max": 5}, "need 2 <= t_min <= t_max"),
        ({"lead_min": 0}, "need 1 <= lead_min <= lead_max"),
        ({"lead_max": 6}, "lead times must stay below the shortest sequence"),
        ({"events": (LEFT_LANE, "bogus", STRAIGHT)}, "unknown events"),
        ({"events": (LEFT_LANE,)}, "must include straight driving"),
        ({"events": (LEFT_LANE, STRAIGHT, STRAIGHT)}, "field 'events' names 'straight' more than once"),
        ({"events": (STRAIGHT, LEFT_LANE, RIGHT_LANE, LEFT_LANE)},
         "field 'events' names 'left_lane' more than once"),
    ])
    def test_broken_rule_rejected_when_made(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            ScenarioConfig(**overrides)
        with pytest.raises(ValueError, match=message):
            replace(ScenarioConfig(), **overrides)

    def test_config_is_frozen(self):
        with pytest.raises(FrozenInstanceError):
            ScenarioConfig().events = (STRAIGHT, STRAIGHT)

    @settings(max_examples=40, deadline=None)
    @given(events=st.lists(st.sampled_from(EVENTS), min_size=1, unique=True).filter(lambda e: STRAIGHT in e),
           n=st.integers(1, 30))
    def test_any_order_of_distinct_events_gives_n_samples(self, events, n):
        data = generate(ScenarioConfig(events=tuple(events)), n)
        assert len(data) == n
        assert {EVENTS[s.label] for s in data} <= set(events)

    # noise_sigma=nan used to generate noiseless data, cue_strength=nan to
    # fail at write, outside_nuisance=-1 inside NumPy's normal draw
    @pytest.mark.parametrize("field, value", [
        ("noise_sigma", float("nan")), ("cue_strength", float("nan")), ("outside_nuisance", -1.0),
        ("inside_nuisance", float("inf")), ("noise_sigma", True), ("t_min", 6.0), ("seed", -1),
    ])
    def test_bad_field_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"field '{field}' must be"):
            ScenarioConfig(**{field: value})
        with pytest.raises(ValueError, match=f"field '{field}' must be"):
            replace(ScenarioConfig(), **{field: value})

    def test_class_mix_matches_weights(self):
        data = generate(ScenarioConfig(seed=8), 700)
        from collections import Counter

        counts = Counter(EVENTS[s.label] for s in data)
        assert counts[STRAIGHT] == 295
        assert counts[LEFT_LANE] == counts[RIGHT_LANE] == 137


class TestSplitFolds:
    def test_even_split(self):
        data = generate(ScenarioConfig(seed=9), 10)
        folds = split_folds(data, 5, seed=1)
        assert [len(f) for f in folds] == [2, 2, 2, 2, 2]

    def test_disjoint_and_exhaustive(self):
        data = generate(ScenarioConfig(seed=10), 23)
        folds = split_folds(data, 4, seed=2)
        ids = [s.id for f in folds for s in f]
        assert sorted(ids) == sorted(s.id for s in data)
        assert len(set(ids)) == len(ids)

    def test_same_seed_same_partition(self):
        data = generate(ScenarioConfig(seed=11), 20)
        a = split_folds(data, 5, seed=3)
        b = split_folds(data, 5, seed=3)
        assert [[s.id for s in f] for f in a] == [[s.id for s in f] for f in b]

    def test_bad_k_rejected(self):
        data = generate(ScenarioConfig(seed=12), 5)
        with pytest.raises(ValueError):
            split_folds(data, 6, seed=0)
        with pytest.raises(ValueError):
            split_folds(data, 1, seed=0)
