import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

_spec = importlib.util.spec_from_file_location("ab", Path(__file__).parents[1] / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
sys.modules["ab"] = ab
_spec.loader.exec_module(ab)


class TestCompare:
    def test_quartiles_match_numpy_percentile(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
        assert ab.quartiles(values) == pytest.approx(tuple(np.percentile(values, [25, 50, 75])))
        assert ab.quartiles([2.0]) == (2.0, 2.0, 2.0)

    def test_lower_is_better_gain(self):
        base = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
        change = [b * 0.8 for b in base]
        m = ab.compare(base, change, "lower", 0.25)
        assert m["wins"] == 10 and m["verdict"] == "gain"
        assert m["ratio"] == pytest.approx(0.8)

    def test_higher_is_better_gain_and_regression(self):
        base = [10.0, 10.5, 9.5, 10.2, 9.8]
        m = ab.compare(base, [b + 2.0 for b in base], "higher", 0.05)
        assert m["wins"] == 5 and m["verdict"] == "gain"
        # Lower is worse for a 'higher' metric: 20% down breaks a 5% bound.
        m = ab.compare(base, [b * 0.8 for b in base], "higher", 0.05)
        assert m["wins"] == 0 and m["verdict"] == "regression"

    def test_eight_wins_of_ten_are_not_a_gain(self):
        base = [1.0] * 10
        change = [0.5] * 8 + [1.5] * 2
        m = ab.compare(base, change, "lower", 0.25)
        assert m["wins"] == 8 and m["verdict"] == "within noise"

    def test_gap_inside_the_base_iqr_is_not_a_gain(self):
        base = [8.0, 8.5, 9.0, 9.5, 10.0, 10.0, 10.5, 11.0, 11.5, 12.0]  # IQR 1.75, bound 2.5
        m = ab.compare(base, [b - 1.0 for b in base], "lower", 0.25)
        assert m["wins"] == 10 and m["verdict"] == "within noise"

    def test_base_spread_wider_than_the_bound_is_unresolved(self):
        base = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]  # IQR 4.5, bound 1.375
        # 10% worse in the median, inside the bound, but the spread hides it.
        m = ab.compare(base, [b * 1.1 for b in base], "lower", 0.25)
        assert m["wins"] == 0 and m["verdict"] == "unresolved"
        # 1 better in every pair, but not better than every base run.
        assert ab.compare(base, [b - 1.0 for b in base], "lower", 0.25)["verdict"] == "unresolved"
        # Unless every change run beats every base run.
        assert ab.compare(base, [0.5] * 10, "lower", 0.25)["verdict"] == "gain"
        m = ab.compare(base, [10.5] * 10, "higher", 0.25)
        assert m["wins"] == 10 and m["verdict"] == "gain"

    def test_ties_count_for_neither_side(self):
        m = ab.compare([2.0, 2.1, 2.2], [2.0, 2.1, 2.2], "lower", 0.25)
        assert m["wins"] == 0 and m["verdict"] == "within noise"

    def test_regression_only_past_the_bound(self):
        base = [1.0, 1.0, 1.0]
        assert ab.compare(base, [1.2] * 3, "lower", 0.25)["verdict"] == "within noise"
        assert ab.compare(base, [1.3] * 3, "lower", 0.25)["verdict"] == "regression"

    def test_bad_input_is_rejected(self):
        with pytest.raises(ValueError):
            ab.compare([1.0], [1.0, 2.0], "lower", 0.25)
        with pytest.raises(ValueError):
            ab.compare([1.0], [1.0], "faster", 0.25)


def test_summarize_reads_every_end_to_end_metric():
    spec = {"end_to_end": [{"name": "a_ms", "unit": "ms", "better": "lower", "bound": 0.25},
                           {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.05}]}

    def run(a, rate):
        return {"result": {"metrics": {"a_ms": {"value": a}, "rate": {"value": rate}}}}

    runs = {"base": [run(2.0, 5.0), run(2.1, 5.1)], "change": [run(1.0, 5.0), run(1.1, 4.0)]}
    out = ab.summarize(runs, spec)
    assert out["a_ms"]["unit"] == "ms" and out["a_ms"]["change"]["runs"] == [1.0, 1.1]
    assert out["a_ms"]["verdict"] == "gain"
    assert out["rate"]["wins"] == 0 and out["rate"]["verdict"] == "regression"


def comparison(correct, attempted, failed):
    """The run fields of a comparison, per side from (base, change) lists."""
    return {key: dict(zip(("base", "change"), value)) for key, value in
            (("correct", correct), ("attempted", attempted), ("failed", failed))}


class TestBroken:
    def test_clean_runs_pass(self):
        assert ab.broken(comparison(([True] * 3, [True] * 3), ([100] * 3, [100] * 3),
                                    ([0] * 3, [0] * 3))) == []

    def test_an_incorrect_run_is_named(self):
        reasons = ab.broken(comparison(([True, True], [True, False]), ([10, 10], [10, 10]),
                                       ([0, 0], [0, 0])))
        assert reasons == ["change run(s) [1] report correct: false"]
        reasons = ab.broken(comparison(([False, True], [True, True]), ([10, 10], [10, 10]),
                                       ([0, 0], [0, 0])))
        assert reasons == ["base run(s) [0] report correct: false"]

    def test_a_larger_failed_share_is_reported(self):
        # 2 of 200 against 1 of 200
        reasons = ab.broken(comparison(([True] * 2, [True] * 2), ([100, 100], [100, 100]),
                                       ([1, 0], [1, 1])))
        assert reasons == ["the change fails 0.01 of its operations, the base 0.005"]

    def test_the_share_not_the_count_decides(self):
        # the change fails more operations, but of more attempted: 2/400 < 2/200
        assert ab.broken(comparison(([True] * 2, [True] * 2), ([100, 100], [200, 200]),
                                    ([1, 1], [1, 1]))) == []
        # fewer failures than the base passes
        assert ab.broken(comparison(([True] * 2, [True] * 2), ([100, 100], [100, 100]),
                                    ([2, 0], [1, 0]))) == []


def test_main_exits_1_after_writing_a_broken_comparison(tmp_path, monkeypatch, capsys):
    spec = {"command": ["bench"], "run_seconds": 1,
            "end_to_end": [{"name": "a_ms", "unit": "ms", "better": "lower", "bound": 0.25}]}
    record = {key: 0 for key in ab.HOST_FIELDS + ab.RUN_FIELDS}

    def fake_run(tree, command, workload, seed, seconds):
        ok = tree.name == "base"
        return {"record": record, "result": {"correct": ok, "attempted": 10, "failed": 0 if ok else 3,
                                             "metrics": {"a_ms": {"value": 1.0}}}}

    def fake_export(rev, into):
        into.mkdir(parents=True)
        (into / "BENCHMARK.json").write_text(json.dumps(spec), encoding="utf-8")
        return {"commit": rev}

    monkeypatch.setattr(ab, "run_bench", fake_run)
    monkeypatch.setattr(ab, "export", fake_export)
    monkeypatch.setattr(ab.tempfile, "mkdtemp", lambda prefix: str(tmp_path / "work"))
    out = tmp_path / "bench.json"
    assert ab.main(["--base", "a", "--change", "b", "--workload", "w", "--pairs", "2",
                    "--out", str(out)]) == 1
    doc = json.loads(out.read_text(encoding="utf-8"))["comparisons"][0]
    assert doc["attempted"] == {"base": [10, 10], "change": [10, 10]}
    assert doc["failed"] == {"base": [0, 0], "change": [3, 3]}
    err = capsys.readouterr().err
    assert "change run(s) [0, 1] report correct: false" in err
    assert "the change fails 0.3 of its operations, the base 0" in err
