"""Command-line frontend.

Exit codes: 0 success, 1 the unknotting verdict reports an impossible
surgery description, 2 input or usage error, or a failed internal check.
With --machine every result is one JSON object per line with sorted keys;
human output is aligned text.  Output is deterministic for a given input.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import lru_cache

from floercone.cone import cone_homology_hat, cone_homology_plus_truncated
from floercone.detect import (
    NotHomologySphere,
    alexander_polynomial,
    genus,
    hf_red_obstruction,
    sphere_necessary_conditions,
    sphere_obstruction,
    unknotting_verdict,
)
from floercone.io_format import DuplicateName, ParseError, load_path
from floercone.linalg import CompositionNonzero, InvariantViolated, NotAChainMap
from floercone.model import NoFlipFound, ValidationError
from floercone.subquotient import TruncationUnstable, hf_red_graded
from floercone.twisted import twisted_homology_laurent


def _s_range(text: str):
    parts = text.split("..")
    try:
        if len(parts) == 1:
            v = int(parts[0])
            return [v]
        if len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
            if lo > hi:
                raise ValueError
            return list(range(lo, hi + 1))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"bad s range {text!r}; use <n> or <a>..<b>")


def _height(text: str, hint: str = "a count") -> int:
    try:
        n = int(text)
        if n < 0:
            raise ValueError
        return n
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad truncation {text!r}; use {hint}")


def _truncation(text: str):
    return "auto" if text == "auto" else _height(text, "a count or 'auto'")


def _red_dims(text: str):
    out = {}
    if not text.strip():
        return out
    for chunk in text.split(","):
        try:
            grading, count = chunk.strip().split(":")
            out[Fraction(grading)] = int(count)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad reduced-homology entry {chunk.strip()!r}; use <grading>:<count>")
    return out


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _graded_pairs(d: dict | None):
    if d is None:
        return None
    return [[str(k), v] for k, v in sorted(d.items())]


def _graded_str(d: dict | None) -> str:
    if d is None:
        return "-"
    if not d:
        return "(empty)"
    return " ".join(f"{k}:{v}" for k, v in sorted(d.items()))


def _emit(args, record: dict, human: str | None):
    if args.machine:
        print(json.dumps(_jsonable(record), sort_keys=True))
    elif human is not None:
        print(human)


def _print_verdict(args, command: str, verdict, extra: dict | None = None) -> None:
    record = {
        "command": command,
        "kind": verdict.kind.value,
        "statement": verdict.statement,
        "witness": _jsonable(verdict.witness) if verdict.witness is not None else None,
    }
    if extra:
        record.update(extra)
    if args.machine:
        print(json.dumps(record, sort_keys=True))
        return
    print(f"{verdict.kind.value}: {verdict.statement}")
    if verdict.witness:
        parts = ", ".join(
            f"{k}={_jsonable(v)}" for k, v in sorted(verdict.witness.items()))
        print(f"  witness: {parts}")


def _load_entries(paths):
    out = []
    for path in paths:
        doc = load_path(path)
        for entry in doc.entries:
            out.append((path, entry))
    return out


def cmd_check(args) -> int:
    for path, entry in _load_entries(args.files):
        c = entry.complex
        record = {
            "command": "check",
            "file": path,
            "name": entry.name,
            "spinc": c.spinc_label,
            "generators": len(c.generators),
            "diff_terms": len(c.differential),
            "flip": c.flip is not None,
            "valid": True,
        }
        human = (f"{entry.name} (spinc {c.spinc_label}): "
                 f"{len(c.generators)} generators, {len(c.differential)} differential terms, "
                 f"flip {'present' if c.flip is not None else 'absent'}: OK")
        _emit(args, record, human)
    return 0


def cmd_cone(args) -> int:
    truncation = args.truncation
    if args.twisted and args.flavor != "hat":
        return _usage("--twisted requires --flavor hat")
    if args.flavor == "hat" and truncation is not None:
        return _usage("--truncation applies to --flavor plus only")
    if truncation is None:
        truncation = "auto"
    for path, entry in _load_entries(args.files):
        c = entry.complex
        rows = []
        for s in args.s:
            if args.twisted:
                res = twisted_homology_laurent(c, s)
                rows.append((s, res))
                _emit(args, {
                    "command": "cone",
                    "twisted": True,
                    "file": path,
                    "name": entry.name,
                    "spinc": c.spinc_label,
                    "s": s,
                    "novikov_dim": res.novikov_dim,
                    "laurent_free_rank": res.laurent_free_rank,
                    "torsion_factors": [str(p) for p in res.torsion_factors],
                }, None)
            else:
                if args.flavor == "hat":
                    res = cone_homology_hat(c, s)
                else:
                    res = cone_homology_plus_truncated(c, s, truncation)
                rows.append((s, res))
                _emit(args, {
                    "command": "cone",
                    "twisted": False,
                    "file": path,
                    "name": entry.name,
                    "spinc": c.spinc_label,
                    "s": s,
                    "flavor": res.flavor,
                    "total_dim": res.total_dim,
                    "rank_v": res.rank_v,
                    "rank_h": res.rank_h,
                    "rank_v_plus_h": res.rank_v_plus_h,
                    "graded_dims": _graded_pairs(res.graded_dims),
                    "truncation": res.truncation,
                }, None)
        if not args.machine:
            if args.twisted:
                print(f"complex {entry.name} (spinc {c.spinc_label}), twisted")
                print(f"{'s':>5}  {'novikov':>7}  {'free_rank':>9}  torsion")
                for s, res in rows:
                    torsion = "; ".join(str(p) for p in res.torsion_factors) or "-"
                    print(f"{s:>5}  {res.novikov_dim:>7}  {res.laurent_free_rank:>9}  {torsion}")
            else:
                print(f"complex {entry.name} (spinc {c.spinc_label}), flavor {args.flavor}")
                print(f"{'s':>5}  {'total':>5}  {'rank_v':>6}  {'rank_h':>6}  {'rank_v+h':>8}  graded")
                for s, res in rows:
                    print(f"{s:>5}  {res.total_dim:>5}  {res.rank_v:>6}  "
                          f"{res.rank_h:>6}  {res.rank_v_plus_h:>8}  {_graded_str(res.graded_dims)}")
    return 0


def cmd_genus(args) -> int:
    for path in args.files:
        doc = load_path(path)
        g = genus(list(doc.complexes))
        human = f"genus {g}" if len(args.files) == 1 else f"{path}: genus {g}"
        _emit(args, {"command": "genus", "file": path, "genus": g}, human)
    return 0


def cmd_alex(args) -> int:
    for path, entry in _load_entries(args.files):
        c = entry.complex
        res = alexander_polynomial(c)
        flag = "trivial" if res.trivial_mod_2 else "nontrivial"
        _emit(args, {
            "command": "alex",
            "file": path,
            "name": entry.name,
            "spinc": c.spinc_label,
            "polynomial": str(res.polynomial),
            "trivial_mod_2": res.trivial_mod_2,
        }, f"{entry.name} (spinc {c.spinc_label}): {res.polynomial} ({flag} mod 2)")
    return 0


def cmd_detect_sphere(args) -> int:
    for path in args.files:
        doc = load_path(path)
        verdict = sphere_obstruction(list(doc.complexes))
        if not args.machine and len(args.files) > 1:
            print(f"== {path}")
        _print_verdict(args, "detect-sphere", verdict, {"file": path})
    return 0


def cmd_prop0check(args) -> int:
    for path in args.files:
        doc = load_path(path)
        verdict = sphere_necessary_conditions(list(doc.complexes))
        if not args.machine and len(args.files) > 1:
            print(f"== {path}")
        _print_verdict(args, "prop0check", verdict, {"file": path})
    return 0


def cmd_red(args) -> int:
    for path, entry in _load_entries(args.files):
        c = entry.complex
        red = hf_red_graded(c, args.truncation)
        _emit(args, {
            "command": "red",
            "file": path,
            "name": entry.name,
            "spinc": c.spinc_label,
            "reduced": _graded_pairs(red),
        }, f"{entry.name} (spinc {c.spinc_label}): {_graded_str(red)}")
    return 0


def cmd_verdict(args) -> int:
    verdict = unknotting_verdict(args.dim_y, args.dim_n)
    _print_verdict(args, "verdict", verdict)
    return 1 if verdict.witness.get("outcome") == "impossible" else 0


def cmd_red1(args) -> int:
    if args.from_file is not None:
        entries = _load_entries([args.from_file])
        if len(entries) != 1:
            return _usage("red1 --from-file expects a single-complex file")
        red = hf_red_graded(entries[0][1].complex)
    else:
        red = args.red
    verdict = hf_red_obstruction(red, homology_sphere=args.homology_sphere)
    _print_verdict(args, "red1", verdict, {"reduced": _graded_pairs(red)})
    return 0


def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="floercone",
        description="Floer homology of 0-surgery from finite knot complex models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_common(p, files=True):
        if files:
            p.add_argument("files", nargs="+", help="input .cfk files")
        p.add_argument("--machine", action="store_true",
                       help="JSON-lines output instead of tables")
        return p

    p = with_common(sub.add_parser("check", help="parse and validate input files"))
    p.set_defaults(handler=cmd_check)

    p = with_common(sub.add_parser("cone", help="cone homology per Spin^c structure s"))
    # let "--s -2..2" pass: values like -2..2 start with '-' but are not flags
    p._negative_number_matcher = re.compile(r"^-\d")
    p.add_argument("--s", type=_s_range, default=[0], help="single s or range a..b")
    p.add_argument("--flavor", choices=("hat", "plus"), default="hat")
    p.add_argument("--truncation", type=_truncation, default=None,
                   help="plus-flavor height, or 'auto'")
    p.add_argument("--twisted", action="store_true",
                   help="twisted coefficients (hat flavor only)")
    p.set_defaults(handler=cmd_cone)

    p = with_common(sub.add_parser("genus", help="genus bound from the v maps"))
    p.set_defaults(handler=cmd_genus)

    p = with_common(sub.add_parser("alex", help="mod-2 Alexander polynomial"))
    p.set_defaults(handler=cmd_alex)

    p = with_common(sub.add_parser("detect-sphere",
                                   help="twisted obstruction to a non-separating sphere"))
    p.set_defaults(handler=cmd_detect_sphere)

    p = with_common(sub.add_parser("red", help="graded reduced plus-flavor homology"))
    p.add_argument("--truncation", type=_height, default=None,
                   help="starting truncation height (stabilization still applies)")
    p.set_defaults(handler=cmd_red)

    p = with_common(sub.add_parser("prop0check",
                                   help="necessary conditions for a non-separating sphere"))
    p.set_defaults(handler=cmd_prop0check)

    p = sub.add_parser("verdict", help="compare ambient and surgered Floer dimensions")
    p.add_argument("--dim-y", type=int, required=True)
    p.add_argument("--dim-n", type=int, required=True)
    p.add_argument("--machine", action="store_true")
    p.set_defaults(handler=cmd_verdict)

    p = sub.add_parser("red1", help="reduced-homology obstruction for homology spheres")
    # let "--red -1:1" pass: negative gradings start with '-' but are not flags
    p._negative_number_matcher = re.compile(r"^-\d")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--from-file", default=None,
                       help="single-complex file; reduced homology is computed")
    group.add_argument("--red", type=_red_dims, default=None,
                       help="explicit graded dims: <grading>:<count>,...")
    p.add_argument("--homology-sphere", action="store_true",
                   help="certify that the ambient manifold is a homology sphere")
    p.add_argument("--machine", action="store_true")
    p.set_defaults(handler=cmd_red1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, DuplicateName, ValidationError, NoFlipFound,
            NotHomologySphere, TruncationUnstable, CompositionNonzero, NotAChainMap,
            InvariantViolated, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
