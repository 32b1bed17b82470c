import pytest

from tests.bench_pairs import summarise

END_TO_END = [
    {"name": "fit_rows_per_s", "unit": "rows/s", "better": "higher", "bound": 0.15},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def record(rows_per_s: float, setup_s: float) -> dict:
    return {"metrics": {"fit_rows_per_s": {"value": rows_per_s, "unit": "rows/s"},
                        "setup_s": {"value": setup_s, "unit": "s"}}}


def test_summarise_canned_pairs():
    records = {
        "parent": [record(v, s) for v, s in ((100, 0.060), (110, 0.070), (90, 0.050),
                                              (105, 0.065), (95, 0.055))],
        "change": [record(v, s) for v, s in ((120, 0.061), (100, 0.058), (115, 0.052),
                                              (110, 0.064), (125, 0.054))],
    }
    entry = summarise(records, END_TO_END)
    assert entry["pairs"] == 5 and entry["records"] is records

    rows = entry["medians"]["fit_rows_per_s"]
    # Exclusive quartiles of 90, 95, 100, 105, 110 and of 100, 110, 115, 120, 125.
    assert rows["parent"] == {"median": 100, "q1": 92.5, "q3": 107.5}
    assert rows["change"] == {"median": 115, "q1": 105, "q3": 122.5}
    assert rows["change_over_parent"] == pytest.approx(1.15)
    assert rows["change_better_pairs"] == 4  # higher is better; pair 2 read 100 < 110

    setup = entry["medians"]["setup_s"]
    assert setup["change_over_parent"] == pytest.approx(0.058 / 0.060)
    assert setup["change_better_pairs"] == 3  # lower is better; pairs 1 and 3 read higher
