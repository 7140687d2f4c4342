"""The answer checker accepts the recorded answers and rejects corrupted ones."""

import copy
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import workloads  # noqa: E402

GOLDEN = checks.load_golden()
WORKLOADS = workloads.every_input()


def _checker():
    inputs = {}
    for wl in WORKLOADS:
        inputs.update(wl.inputs)
    return checks.Checker(GOLDEN, inputs)


def _op(label, argv):
    return workloads.Op(label, argv)


def test_golden_covers_every_op():
    for wl in WORKLOADS:
        assert _checker().missing(wl.cycle) == [], wl.name


def test_golden_answers_pass():
    checker = _checker()
    for key in list(GOLDEN)[::7]:
        label, _, rest = key.partition(" ")
        op = _op(label, tuple(rest.split(" ")))
        assert checker.errors(op, copy.deepcopy(GOLDEN[key])) == [], key


def test_corrupted_twisted_answer_is_rejected():
    op = _op("T2_3+F8", workloads.TWISTED)
    records = copy.deepcopy(GOLDEN[op.key])
    records[1]["novikov_dim"] += 2
    errs = _checker().errors(op, records)
    assert any("golden" in e for e in errs)
    assert any("laurent_free_rank" in e for e in errs)


def test_closed_forms_catch_what_golden_would_miss():
    """A wrong answer recorded as golden still fails its closed form."""
    cases = [
        (_op("T2_3+F8", workloads.GENUS), "genus", 3),
        (_op("T2_5", workloads.ALEX), "polynomial", "T^-2 + 1 + T^2"),
        (_op("Y1+T2_3", workloads.RED), "reduced", []),
        (_op("T2_3+T2_3+F8", workloads.DETECT), "kind", "DoesNotFire"),
        (_op("T2_3+T2_3+F8", workloads.PROP0), "kind", "Fires"),
        (_op("UNKNOT.noflip", workloads.CHECK), "flip", True),
    ]
    for op, field, bad in cases:
        records = copy.deepcopy(GOLDEN[op.key])
        records[0][field] = bad
        golden = dict(GOLDEN, **{op.key: records})
        checker = _checker()
        checker.golden = golden
        assert checker.errors(op, records), op.key


def test_mirror_relation_on_hat_totals():
    op = _op("T2_5", workloads.HAT)
    records = copy.deepcopy(GOLDEN[op.key])
    records[2]["total_dim"] += 2
    errs = _checker().errors(op, records)
    assert any("mirror" in e for e in errs)


def test_auto_truncation_keeps_only_stable_fields():
    rec = {"command": "cone", "file": "x", "name": "y", "s": 0, "flavor": "plus",
           "graded_dims": [["-2", 1]], "total_dim": 9, "rank_v": 3, "truncation": 40}
    assert checks.normalize(workloads.PLUS_S0, [rec]) == [
        {"s": 0, "flavor": "plus", "graded_dims": [["-2", 1]]}]
    rec1 = dict(rec, s=1, graded_dims=None)
    assert checks.normalize(workloads.PLUS_S1, [rec1]) == [
        {"s": 1, "flavor": "plus", "total_dim": 9}]
