import pytest

from tests.bench_pairs import summarise, summary_line

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
    assert not rows["resolved"]  # 4 of 5 pairs is below 9 of 10

    setup = entry["medians"]["setup_s"]
    assert setup["change_over_parent"] == pytest.approx(0.058 / 0.060)
    assert setup["change_better_pairs"] == 3  # lower is better; pairs 1 and 3 read higher


def test_resolved_needs_nine_in_ten_pairs_and_a_gap_beyond_the_parent_iqr():
    # Parent 100..109: exclusive quartiles 101.75 and 107.25, IQR 5.5, median 104.5.
    parent = list(range(100, 110))
    # Rows: better in 9 pairs (pair 10 reads 109 against 109), median 110.5,
    # a gap of 6 > 5.5. Set-up: lower in all 10 pairs, but its median gap of
    # 0.0005 s is inside the parent's IQR of 0.00275 s.
    change = [v + 7 for v in parent[:9]] + [109]
    setups = [0.0500 + 0.0005 * i for i in range(10)]
    records = {
        "parent": [record(v, s) for v, s in zip(parent, setups)],
        "change": [record(v, s - 0.0005) for v, s in zip(change, setups)],
    }
    entry = summarise(records, END_TO_END)
    rows, setup = entry["medians"]["fit_rows_per_s"], entry["medians"]["setup_s"]
    assert (rows["change_better_pairs"], rows["resolved"]) == (9, True)
    assert (setup["change_better_pairs"], setup["resolved"]) == (10, False)
    assert summary_line("calibrate_fits", entry) == (
        "calibrate_fits, 10 pairs: fit_rows_per_s x1.0574 better 9/10 resolved; "
        "setup_s x0.9904 better 10/10 unresolved")
