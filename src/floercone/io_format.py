"""Line-oriented input format for knot complexes.

    complex <name> spinc=<label>
    gen <name> A=<int> M=<int or p/q, q > 0>
    d <src> : U^<n> <dst>[, U^<n> <dst> ...]
    flip <src> : U^<n> <dst>[, ...]
    end

'#' starts a comment, blank lines are ignored.  A document describes one
manifold and holds one block per Spin^c structure; block names and spinc
labels must both be unique within the document.  Differential U-powers
must be nonnegative; flip U-powers may be negative.  Every parsed
complex must pass the validator.

serialize produces the canonical form: generators sorted by name,
differential and flip lines sorted by source with terms sorted by
(target, U-power), blocks separated by a blank line.  Parsing a canonical
document and serializing it again is byte-identical.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from floercone.model import (
    DiffTerm,
    FlipTerm,
    Generator,
    KnotComplex,
    require_valid,
)


class ParseError(Exception):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class DuplicateName(Exception):
    pass


@dataclass(frozen=True)
class DocumentEntry:
    name: str
    complex: KnotComplex


@dataclass(frozen=True)
class InputDocument:
    entries: tuple

    @property
    def complexes(self) -> tuple:
        return tuple(e.complex for e in self.entries)


_COMPLEX_RE = re.compile(r"^complex\s+(\S+)\s+spinc=(\S+)$")
_GEN_RE = re.compile(r"^gen\s+(\S+)\s+A=(-?\d+)\s+M=(-?\d+(?:/\d*[1-9]\d*)?)$")
_LINE_RE = re.compile(r"^(d|flip)\s+(\S+)\s*:\s*(.+)$")
_TERM_RE = re.compile(r"^U\^(-?\d+)\s+(\S+)$")


def parse(text: str) -> InputDocument:
    entries: list[DocumentEntry] = []
    seen_spinc: set[str] = set()
    seen_names: set[str] = set()
    name = spinc = None
    gens: list[Generator] = []
    diffs: list[DiffTerm] = []
    flips: list[FlipTerm] = []
    has_flip = False

    def finish(line_no: int):
        nonlocal name, spinc, gens, diffs, flips, has_flip
        c = KnotComplex(
            spinc_label=spinc,
            generators=tuple(gens),
            differential=tuple(diffs),
            flip=tuple(flips) if has_flip else None,
        )
        require_valid(c)
        entries.append(DocumentEntry(name, c))
        name = spinc = None
        gens, diffs, flips, has_flip = [], [], [], False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split(None, 1)[0]
        if head == "complex":
            if name is not None:
                raise ParseError(line_no, "previous complex block not closed with 'end'")
            m = _COMPLEX_RE.match(line)
            if not m:
                raise ParseError(line_no, "expected: complex <name> spinc=<label>")
            name, spinc = m.group(1), m.group(2)
            if name in seen_names:
                raise DuplicateName(f"line {line_no}: complex name {name!r} reused")
            if spinc in seen_spinc:
                raise DuplicateName(f"line {line_no}: spinc label {spinc!r} reused")
            seen_names.add(name)
            seen_spinc.add(spinc)
            continue
        if name is None:
            raise ParseError(line_no, f"{head!r} outside a complex block")
        if head == "end":
            if line != "end":
                raise ParseError(line_no, "expected bare 'end'")
            finish(line_no)
        elif head == "gen":
            m = _GEN_RE.match(line)
            if not m:
                raise ParseError(line_no, "expected: gen <name> A=<int> M=<int or p/q, q > 0>")
            gens.append(Generator(m.group(1), int(m.group(2)), Fraction(m.group(3))))
        elif head in ("d", "flip"):
            m = _LINE_RE.match(line)
            if not m:
                raise ParseError(line_no, f"expected: {head} <src> : U^<n> <dst>[, ...]")
            src, rest = m.group(2), m.group(3)
            for chunk in rest.split(","):
                t = _TERM_RE.match(chunk.strip())
                if not t:
                    raise ParseError(line_no, f"bad term {chunk.strip()!r}; expected U^<n> <dst>")
                power = int(t.group(1))
                if head == "d":
                    if power < 0:
                        raise ParseError(line_no, "differential U-powers must be >= 0")
                    diffs.append(DiffTerm(src, t.group(2), power))
                else:
                    has_flip = True
                    flips.append(FlipTerm(src, t.group(2), power))
        else:
            raise ParseError(line_no, f"unrecognized directive {head!r}")
    if name is not None:
        raise ParseError(len(text.splitlines()), "unterminated complex block")
    if not entries:
        raise ParseError(0, "document contains no complexes")
    return InputDocument(tuple(entries))


def _fmt_terms(terms) -> str:
    ordered = sorted(terms, key=lambda t: (t.target, t.u_power))
    return ", ".join(f"U^{t.u_power} {t.target}" for t in ordered)


def serialize(doc: InputDocument) -> str:
    blocks = []
    for entry in doc.entries:
        c = entry.complex
        require_valid(c)
        lines = [f"complex {entry.name} spinc={c.spinc_label}"]
        for g in sorted(c.generators, key=lambda g: g.name):
            lines.append(f"gen {g.name} A={g.alexander} M={g.maslov}")
        by_src: dict[str, list] = {}
        for t in c.differential:
            by_src.setdefault(t.source, []).append(t)
        for src in sorted(by_src):
            lines.append(f"d {src} : {_fmt_terms(by_src[src])}")
        if c.flip is not None:
            by_src = {}
            for t in c.flip:
                by_src.setdefault(t.source, []).append(t)
            for src in sorted(by_src):
                lines.append(f"flip {src} : {_fmt_terms(by_src[src])}")
        lines.append("end")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def load_path(path: str) -> InputDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())
