"""The scaling harness's comparison of two checkouts (`scaling.py --parent`)."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

import scaling  # noqa: E402


def test_summary_gives_medians_and_quartiles_and_flags_a_changed_answer():
    run = [{"input": "K", "flavor": "hat", "s": 0, "seconds": t, "answer": {"total_dim": 3}}
           for t in (0.4, 0.1, 0.3, 0.2)]
    rows, agree = scaling.summary([[row] for row in run])
    (row,) = rows.values()
    assert agree and row["runs_s"] == [0.4, 0.1, 0.3, 0.2]
    assert row["seconds"] == 0.25 and row["quartiles_s"] == [0.175, 0.325]
    changed = dict(run[0], answer={"total_dim": 4})
    assert not scaling.summary([[run[1]], [changed]])[1]


def test_quartiles_keep_microseconds():
    """Five runs within 0.05 ms of each other, which rounding to 0.1 ms
    would give one quartile, keep distinct quartiles."""
    run = [{"input": "K", "flavor": "twisted", "s": 1, "seconds": t, "answer": {}}
           for t in (0.008945, 0.008901, 0.008934, 0.008912, 0.008923)]
    rows, _ = scaling.summary([[row] for row in run])
    (row,) = rows.values()
    assert row["seconds"] == 0.008923 and row["quartiles_s"] == [0.008912, 0.008934]


def test_parent_runs_both_sides_and_agrees_with_itself(tmp_path):
    out = tmp_path / "bench.json"
    argv = ["--parent", str(ROOT / "src"), "--runs", "2", "--max-generators", "343", "--out", str(out)]
    assert scaling.main(argv) == 0
    report = json.loads(out.read_text())
    assert report["runs_per_side"] == 2
    assert {row["flavor"] for row in report["rows"]} == {
        "plus", "hat", "twisted", "red", "genus", "prop0check", "load"}
    for row in report["rows"]:
        assert row["peak_mb"] > 0 and row["baseline_peak_mb"] > 0
        assert len(row["runs_s"]) == len(row["baseline_runs_s"]) == 2
        low, high = row["baseline_quartiles_s"]
        assert min(row["baseline_runs_s"]) <= low <= row["baseline_s"] <= high


def test_the_slice_row_times_prop0check_past_s_0():
    """T(2,31) # mT(2,31) passes clauses (c) and (b) at s = 0, so its one
    row, prop0check, reaches the pencil and fails (c) at s = 1."""
    (row,) = [row for row in scaling.rows(961) if row["input"] == "T(2,31)#mT(2,31)"]
    assert row["flavor"] == "prop0check"
    assert row["answer"]["witness"] == {"clause": "c", "s": 1, "spinc": "0", "dim_A": 31, "dim_B": 1}
