import importlib.util
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
