"""Answer checker: a wrong answer is a failed op.

Every op's JSON records are reduced to the part that is an answer (file
and block names dropped; for truncation "auto", only what does not depend
on the truncation height the library picked) and compared with

- closed forms, where they exist:
  - `check` reports the generator and term counts and the flip presence of
    the input;
  - genus is additive under connected sum; T(2,2k+1) has genus k, the
    figure-eight 1, the unknot 0, and mirrors keep the genus;
  - the mod-2 Alexander polynomial is multiplicative; T(2,2k+1) gives
    T^-k + ... + T^k, the figure-eight T^-1 + 1 + T, the unknot and the
    Y1SIGMA pattern 1, and mirroring inverts T;
  - `red` reads the ambient manifold: empty in the three-sphere, {-1: 1}
    with one Y1SIGMA summand;
  - for knots in the three-sphere, `detect-sphere` Fires and `prop0check`
    DoesNotFire exactly when the knot is nontrivial;
  - the twisted cone's Novikov dimension equals its Laurent free rank;
  - K and its mirror have equal hat total dimensions for every s;
- golden answers recorded from the library at the commit that introduced
  the benchmark (`golden.json`, rebuilt by `record_golden.py`), for
  everything else: plus graded dimensions, torsion factors, ranks.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _auto_truncation(argv) -> bool:
    return "--truncation" in argv and argv[argv.index("--truncation") + 1] == "auto"


def normalize(argv, records) -> list:
    """The answer part of an op's records."""
    out = []
    auto = argv[0] == "cone" and _auto_truncation(argv)
    for rec in records:
        rec = {k: v for k, v in rec.items() if k not in ("file", "name")}
        if auto:
            keep = ("s", "flavor", "graded_dims") if rec["s"] == 0 else ("s", "flavor", "total_dim")
            rec = {k: rec[k] for k in keep}
        out.append(rec)
    return out


# ---------------------------------------------------------------------------
# Closed forms over factor names: U, Y1, F8, T2_<n>, m<factor>


def _base(factor: str) -> tuple:
    """(underlying factor, mirrored?)"""
    mirrored = factor.startswith("m")
    return (factor[1:] if mirrored else factor), mirrored


def factor_genus(factor: str):
    base, _ = _base(factor)
    if base.startswith("T2_"):
        return (int(base[3:]) - 1) // 2
    return {"U": 0, "F8": 1}.get(base)


def factor_alexander(factor: str) -> frozenset:
    base, mirrored = _base(factor)
    if base.startswith("T2_"):
        k = (int(base[3:]) - 1) // 2
        exps = range(-k, k + 1)
    else:
        exps = {"U": (0,), "Y1": (0,), "F8": (-1, 0, 1)}[base]
    return frozenset(-e if mirrored else e for e in exps)


def poly_mul(a: frozenset, b: frozenset) -> frozenset:
    acc: set = set()
    for x in a:
        for y in b:
            acc ^= {x + y}
    return frozenset(acc)


def poly_str(support: frozenset) -> str:
    if not support:
        return "0"
    return " + ".join("1" if e == 0 else "T" if e == 1 else f"T^{e}" for e in sorted(support))


def mirror_label(factors) -> str:
    return "+".join(f[1:] if f.startswith("m") else "m" + f for f in factors)


def _in_s3(factors) -> bool:
    return bool(factors) and all(_base(f)[0] != "Y1" for f in factors)


def _nontrivial(factors) -> bool:
    return any(_base(f)[0] != "U" for f in factors)


def closed_form_errors(inp, argv, records) -> list:
    """Violations of the closed forms that apply to this input and command."""
    cmd, factors, errs = argv[0], inp.factors, []
    if cmd == "check":
        c = inp.complex
        want = {"generators": len(c.generators), "diff_terms": len(c.differential),
                "flip": c.flip is not None, "valid": True}
        for rec in records:
            got = {k: rec.get(k) for k in want}
            if got != want:
                errs.append(f"check: {got} != {want}")
    if cmd == "cone":
        s_arg = argv[argv.index("--s") + 1] if "--s" in argv else "0"
        lo, _, hi = s_arg.rpartition("..") if ".." in s_arg else (s_arg, "", s_arg)
        want_s = list(range(int(lo), int(hi) + 1))
        if [rec.get("s") for rec in records] != want_s:
            errs.append(f"cone: s values {[rec.get('s') for rec in records]} != {want_s}")
    if cmd == "cone" and "--twisted" in argv:
        for rec in records:
            if rec["novikov_dim"] != rec["laurent_free_rank"]:
                errs.append(f"twisted s={rec['s']}: novikov_dim {rec['novikov_dim']} "
                            f"!= laurent_free_rank {rec['laurent_free_rank']}")
    if not factors:
        return errs
    if cmd == "genus":
        genera = [factor_genus(f) for f in factors]
        if None not in genera and records[0]["genus"] != sum(genera):
            errs.append(f"genus {records[0]['genus']} != {sum(genera)} (additive)")
    elif cmd == "alex":
        support = frozenset({0})
        for f in factors:
            support = poly_mul(support, factor_alexander(f))
        want = {"polynomial": poly_str(support), "trivial_mod_2": support <= {0}}
        got = {k: records[0][k] for k in want}
        if got != want:
            errs.append(f"alex {got} != {want} (multiplicative)")
    elif cmd == "red":
        y1 = sum(1 for f in factors if _base(f)[0] == "Y1")
        want = [] if y1 == 0 else [["-1", 1]] if y1 == 1 else None
        if want is not None and records[0]["reduced"] != want:
            errs.append(f"red {records[0]['reduced']} != {want}")
    elif cmd in ("detect-sphere", "prop0check") and _in_s3(factors):
        fires = _nontrivial(factors) == (cmd == "detect-sphere")
        want = "Fires" if fires else "DoesNotFire"
        if records[0]["kind"] != want:
            errs.append(f"{cmd} {records[0]['kind']} != {want}")
    return errs


class Checker:
    """Checks an op's records against the golden answers and the closed forms."""

    def __init__(self, golden: dict, inputs: dict):
        self.golden = golden
        self.inputs = inputs

    def missing(self, ops) -> list:
        return sorted({op.key for op in ops if op.key not in self.golden})

    def errors(self, op, records) -> list:
        inp = self.inputs[op.input]
        got = normalize(op.argv, records)
        errs = closed_form_errors(inp, op.argv, records)
        want = self.golden.get(op.key)
        if want is None:
            errs.append("no golden answer")
        elif got != want:
            errs.append(f"answer {got} != golden {want}")
        if op.argv == ("cone", "--s", "-2..2") and inp.factors:
            partner = " ".join((mirror_label(inp.factors),) + op.argv)
            if partner in self.golden:
                mine = [r["total_dim"] for r in got]
                theirs = [r["total_dim"] for r in self.golden[partner]]
                if mine != theirs:
                    errs.append(f"hat total dims {mine} != mirror's {theirs}")
        return errs


def parse_records(text: str) -> list:
    return [json.loads(line) for line in text.splitlines() if line.strip()]
