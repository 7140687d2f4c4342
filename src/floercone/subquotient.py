"""Subquotient complexes of a knot Floer model, as free F2[U]-complexes.

Regions of the (i, j) plane used here, with j = i + A(generator):

    B_hat    i = 0
    A_hat    max(i, j - s) = 0
    B_plus   0 <= i <= N
    A_plus   0 <= max(i, j - s) <= N

Each plus region is a free F2[U]-complex, one basis element per generator
g at its lowest height lo(g) (0 in B, min(0, s - A(g)) in A_s), tensored
with F2[U]/U^(N+1) (`free_plus_complex`).  Every complex and map here is
graded, so the gradings fix the U-power of each entry: a differential or
map is one GF(2) column mask per basis element, as in `F2Matrix`, with
no power written out, and its F2[U] products are mask products, exact
since every path between two basis elements has the same power.  A hat
region is the same complex read modulo U, its entries of power 0 (`cone`).

The graded Smith form over F2[U] is a GF(2) column reduction
(Zomorodian-Carlsson, "Computing persistent homology", 2005): with rows
and columns in descending grading order, each column reduced on one
`F2Span` pairs with its leading row, the lowest grading and so the least
power left in it, in a block U^v read off the gradings (`reduce_free`),
in one clearing pass that skips the column of each pivot row (`_clearing`).
It is exact and needs no precision: a pivot U^v with v >= N + 1 gives
the Jordan blocks of U at height N (`GradedUModule`) that two towers at
its gradings give.  Its unpaired gradings are the towers.  The same pass
gives every least model with its inclusion and projection (`_smith_model`):
of A_s and B, placed in descending grading from d's triples (`_placed`,
`_in_grading_order`), and of A_0 and B modulo U, in index coordinates, for
the pencil of `twisted`; the reduced part is read off B's (`hf_red_graded`),
as the plus cone reads it.  A precision remains for the one ungraded cone
alone, one proven rule (`cone._plus_reductions`).

The free models are built from a validated complex and not checked again;
they rest on the clauses `validate` proves (the `model` docstring).  A_s
and B are d conjugated by the diagonal U^lo, so d^2 = 0 (d-squared)
carries over; each power n + lo(t) - lo(g) is >= 0, since min(0, s - A)
drops from g to t by at most max(0, A(t) - A(g)) <= n (filtration), and by
maslov-drop it has the grading its mask bit stands for.  So B modulo U is
d's terms of power 0, lo being 0: a table built once per complex, with one
echelon basis of its span (`KnotComplex._b_modulo_u`, `_b_echelon`); A_s
modulo U is d's terms U^n t in d g with n = lo(g) - lo(t), of power 0 in
A_s, read by one rule (`cone._a_modulo_u`).  v : A_s -> B is that
conjugation, the identity on masks, so it commutes with d identically; of
power -lo(g) = max(0, A(g) - s) at y_g, modulo U it is the identity on
the generators with A <= s.  h : A_s -> B is the projection onto
C{j >= s}, a chain map since d never raises j (filtration), then U^s and
the flip, a chain map (flip-chain-map); by flip-term its powers
max(0, s - A(g)), one per flip term, have the gradings its masks stand
for, and it lowers them by 2s; modulo U it is the flip's masks on the
generators with A >= s (`cone._modulo_u_maps`).  So `free_plus_complex`
and `cone._h_map` build masks alone, `cone._reduced_maps` places v and h
from their triples, and A_s, B, v and h modulo U are read by rule.  The
checks they made live on in `tests/oracles.py` (`checked_free_model`),
and so does the grading filter (`oracle_modulo_u_maps`), which keeps the
terms one grading below their column: by maslov-drop a term of power p
moves the grading by 2p - 1, so the filter keeps the rule's terms and no
other.  The reduced models and the maps carried onto them are checked
(`_smith_model`, `cone._reduced_maps`), and so is the pencil read off
homology bases (`cone._pencil_maps`).

Every grading here is an int, M - offset with the offset shared by the
Maslov gradings of the complex (`KnotComplex._int_maslov`); the offset is
added back only where a grading is reported (`_reported`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from floercone.linalg import (
    CompositionNonzero,
    F2Matrix,
    F2Span,
    InvariantViolated,
    NotAChainMap,
    _combine,
    smith_pivots_u,
)
from floercone.model import KnotComplex, require_valid

# The most dimensions of HF_red that `hf_red_graded` lists grading by grading,
# and the largest U-power the ungraded plus cone writes out (`cone._powers`).
_RED_DIM_LIMIT = 10 ** 6


class ReducedHomologyTooLarge(Exception):
    """HF_red is too large to list grading by grading."""


# ---------------------------------------------------------------------------
# Plus flavor: free complexes over F2[U]


@dataclass(frozen=True)
class FreeUComplex:
    """A plus region as a free F2[U]-complex: basis element k is the plane
    element (g_k, lo[k] + N) at height N, of grading gradings[k] + 2N, and
    columns[k] is the mask of the rows r in its differential, each with the
    power (gradings[r] - gradings[k] + 1) / 2."""

    lo: tuple
    gradings: tuple
    columns: tuple

    def __post_init__(self):
        d = F2Matrix._from_masks(len(self.columns), len(self.columns), self.columns)
        if not d.mul(d).is_zero():  # graded, so the GF(2) product decides d^2 = 0
            raise CompositionNonzero("F2[U] differential does not square to zero")

    @classmethod
    def _trusted(cls, lo: tuple, gradings: tuple, columns: tuple) -> FreeUComplex:
        """Trusted constructor, for a complex whose d^2 = 0 a check already made implies."""
        free = object.__new__(cls)
        free.__dict__.update(lo=lo, gradings=gradings, columns=columns)
        return free


def free_plus_complex(c: KnotComplex, s: int | None = None) -> FreeUComplex:
    """B (s None), the region 0 <= i, or A_s, the region 0 <= max(i, j - s):
    lo is 0 or min(0, s - A(g)), and U^n * t in d g is U^(n + lo(t) - lo(g)).
    Read off the complex's tables; checked by `validate` alone (module docstring)."""
    require_valid(c)
    maslov = c._int_maslov[1]
    if s is None:
        return FreeUComplex._trusted((0,) * len(maslov), maslov, c._masks[0])
    lo = tuple([0 if a <= s else s - a for a in c._alexander_gradings])
    return FreeUComplex._trusted(lo, tuple([m + 2 * low for m, low in zip(maslov, lo)]), c._masks[0])


def _check_commutes(f, source: FreeUComplex, target: FreeUComplex) -> None:
    """Raise NotAChainMap unless f d = d f: both sides are graded alike, so
    their mask products decide it."""
    if any(_combine(f, d) != _combine(target.columns, fc) for d, fc in zip(source.columns, f)):
        raise NotAChainMap("F2[U] map does not commute with the differentials")


def _spanned(blocks) -> dict:
    """Graded dimensions of {(top, length): multiplicity} blocks."""
    out: Counter = Counter()
    for (top, length), count in blocks.items():
        for k in range(length):
            out[top - 2 * k] += count
    return {d: out[d] for d in sorted(out)}


class GradedUModule:
    """A graded F2[U]-module given by its Jordan blocks of U: (top, length)
    is F2[U]/U^length generated at grading top, with ker(U) at its bottom."""

    def __init__(self, blocks):
        self._blocks = Counter(blocks)

    def dims(self) -> dict:
        return _spanned(self._blocks)

    def socle_dims(self, cutoff) -> dict:
        """Per-grading dimension of ker(U), at gradings <= cutoff: one per
        block, at its bottom."""
        bottoms: Counter = Counter()
        for (top, length), count in self._blocks.items():
            bottoms[top - 2 * length + 2] += count
        return {d: bottoms[d] for d in sorted(bottoms) if d <= cutoff}


@dataclass(frozen=True)
class FreeReduction:
    """Smith pivots of a free F2[U]-complex, read at heights below precision
    (at every height for None): (row grading, column grading, v) per pivot
    U^v, and the gradings of the towers.  An ungraded reduction records no
    towers and has no module."""

    size: int
    pairs: tuple
    towers: tuple
    precision: int | None = None
    graded: bool = True

    def homology_dim(self, n: int) -> int:
        """Each pivot U^v leaves 2 min(v, n + 1) of its 2(n + 1) dimensions."""
        self._check_height(n)
        return self.size * (n + 1) - 2 * sum(n + 1 - min(v, n + 1) for *_, v in self.pairs)

    def module(self, n: int) -> GradedUModule:
        """Per pivot two blocks of length min(v, n + 1), one from the top of its
        row, one down to the bottom of its column; per tower one of n + 1."""
        self._check_height(n)
        if not self.graded:
            raise ValueError("an ungraded reduction has no graded module")
        blocks = [(g + 2 * n, n + 1) for g in self.towers]
        for row, col, v in self.pairs:
            length = min(v, n + 1)
            if length:
                blocks += [(row + 2 * n, length), (col + 2 * length - 2, length)]
        return GradedUModule(blocks)

    def _check_height(self, n: int) -> None:
        if n < 0 or self.precision is not None and n >= self.precision:
            raise ValueError(f"height {n} is negative or not below precision {self.precision}")


def _descending(gradings) -> list:
    """The basis indices in descending grading, ties by index."""
    return sorted(range(len(gradings)), key=gradings.__getitem__, reverse=True)


def _moved(place, mask: int) -> int:
    """mask with each bit r moved to bit place[r]."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << place[low.bit_length() - 1]
        mask ^= low
    return out


def _clearing(order, columns) -> tuple:
    """A graded Smith basis of a differential by column masks: one clearing
    pass (Chen-Kerber, "Persistent homology computation with a twist",
    2011) of the column reduction on one `F2Span` (module docstring).

    Column j, packed as d e_j << n | e_j, is reduced in `order`, in
    coordinates where every row of a residue's d part, and every column it
    is reduced with, comes before its top bit.  A residue with d part 0 is
    a cycle with top bit j; any other pairs j with the top row r of its d
    part d c, c having top bit j.  Column r is skipped if it comes later
    (clearing): d^2 = 0 makes d e_r the sum of the d e_t over the other
    rows t of d c, so it would only give the cycle d c again; if it came
    earlier, its cycle gives way to d c.  Returns the basis vector per top
    bit (c at j, d c at r, a cycle at each tower), unitriangular and so a
    basis, the (column, row) pairs and the towers; InvariantViolated
    unless towers + 2 pairs = n."""
    n, span, basis, pairs, towers = len(columns), F2Span(), {}, [], {}
    low = (1 << n) - 1
    for j in order:
        if j in basis:  # a pivot row: before its column, only rows are keys
            continue
        residue = span.add(columns[j] << n | 1 << j)
        if boundary := residue >> n:
            row = boundary.bit_length() - 1
            basis[j], basis[row] = residue & low, boundary
            pairs.append((j, row))
            towers.pop(row, None)  # a row met before its column is no tower
        else:
            top = residue.bit_length() - 1
            basis[top] = towers[top] = residue
    if len(towers) + 2 * len(pairs) != n:
        raise InvariantViolated("a clearing pass skipped a column that is no pivot row")
    return basis, pairs, list(towers)


def reduce_free(gradings, columns) -> FreeReduction:
    """The exact Smith reduction of a graded free F2[U]-complex by column
    masks (module docstring), good at every height: one clearing pass in
    descending grading, each pivot U^v pairing gr[row] - 2v = gr[col] - 1."""
    order = _descending(gradings)
    place = {k: p for p, k in enumerate(order)}
    _, pairs, towers = _clearing(range(len(order)), [_moved(place, columns[k]) for k in order])
    out = []
    for col, row in pairs:
        twice = gradings[order[row]] - gradings[order[col]] + 1
        if twice < 0 or twice % 2:
            raise InvariantViolated("Smith pivot of a graded complex breaks the grading")
        out.append((gradings[order[row]], gradings[order[col]], twice // 2))
    return FreeReduction(len(order), tuple(out), tuple(sorted(gradings[order[t]] for t in towers)))


def _placed(triples, into, place) -> list:
    """Column masks with bit place[y] in column into[x] per triple (x, y, _)."""
    columns = [0] * len(into)
    for x, y, _ in triples:
        columns[into[x]] |= 1 << place[y]
    return columns


def _in_grading_order(c: KnotComplex, s: int | None = None) -> tuple:
    """A_s (B for None) in descending grading, ties by index, as `reduce_free`
    reduces it, and each index's place: lo and the gradings of
    `free_plus_complex`, the columns placed from d's triples (`_placed`)."""
    free = free_plus_complex(c, s)
    order = _descending(free.gradings)
    place = [0] * len(order)
    for p, k in enumerate(order):
        place[k] = p
    lo, gradings = tuple([free.lo[k] for k in order]), tuple([free.gradings[k] for k in order])
    return FreeUComplex._trusted(lo, gradings, tuple(_placed(c._index_form[0], place, place))), place


def _smith_model(free: FreeUComplex) -> tuple:
    """A', the least model of a graded free complex, its inclusion i and its
    projection p, from one clearing pass in descending grading (`_clearing`)
    on free's coordinates, which must put each residue's least-power row on top.

    The basis splits free into towers and pairs x, y = d c / U^v with
    d x = U^v y.  A' keeps the towers and the pairs with v >= 1, unchecked
    (a caller that reads d' checks it), and drops the unit pairs, which are
    acyclic; so i, onto the basis vectors, and p, the coordinates on A'
    solved for top bit by top bit, are chain maps with p i = 1.  p also
    tells whether it drops a coordinate on a pair's column end, which a
    cycle has none of."""
    gradings = free.gradings
    basis, pairs, towers = _clearing(_descending(gradings), free.columns)
    arrows = {x: y for x, y in pairs if gradings[y] - gradings[x] + 1}  # column end: row end
    kept = sorted(towers + [*arrows, *arrows.values()])
    place = {k: p for p, k in enumerate(kept)}
    columns = tuple([1 << place[arrows[k]] if k in arrows else 0 for k in kept])
    reduced = FreeUComplex._trusted(tuple([free.lo[k] for k in kept]), tuple([gradings[k] for k in kept]),
                                    columns)
    weight = {x: 1 for x, _ in pairs}  # bit 0 flags a column end; A's coordinates sit above it
    weight.update({k: 2 << p for k, p in place.items()})

    def project(w: int) -> tuple:
        out = 0
        while w:
            out |= weight.get(t := w.bit_length() - 1, 0)
            w ^= basis[t]
        return out >> 1, out & 1

    return reduced, [basis[k] for k in kept], project


def _reduce_ungraded(gradings, columns, precision: int) -> FreeReduction:
    """The Smith reduction modulo U^precision of a free F2[U]-complex that is
    not graded, given by columns {row: U-power bitmask} (`smith_pivots_u`)."""
    pairs = [(gradings[r], gradings[c], v) for r, c, v in smith_pivots_u(columns, precision)]
    return FreeReduction(len(gradings), tuple(pairs), (), precision, False)


# ---------------------------------------------------------------------------
# Reduced homology


def _artifact_cutoff(c: KnotComplex, n: int) -> int:
    """Gradings above n + max Maslov, where an explicit height n reports
    nothing: the reporting convention of `--truncation N`, on the int
    gradings M - offset.

    A finite block of U keeps its top grading as n grows, while a block cut
    from a tower or from a pivot longer than n + 1 has its top at a grading
    that grows like 2n, so past the grading spread this line drops exactly
    the latter.  Below that the cut is a convention, not a theorem.
    """
    return max(c._int_maslov[1], default=0) + n


def hf_red_graded(c: KnotComplex) -> dict:
    """Graded dimensions of the finite (U-torsion) part of plus-flavor homology:
    per pivot U^v (v >= 1) of B, one block F2[U]/U^v from grading col + 2v - 2
    down to col, read off B's least model B' as the plus cone reads it
    (`_smith_model`, `reduce_free`): B' lacks only the unit pivots, which add
    no block.  Past _RED_DIM_LIMIT dimensions in all, ReducedHomologyTooLarge."""
    b = _smith_model(_in_grading_order(c)[0])[0]
    pairs = reduce_free(b.gradings, b.columns).pairs
    blocks = Counter((col + 2 * v - 2, v) for _, col, v in pairs if v)
    if (total := sum(v for *_, v in pairs)) > _RED_DIM_LIMIT:
        raise ReducedHomologyTooLarge(f"HF_red of complex {c.spinc_label!r} has dimension "
                                      f"{total}, past the {_RED_DIM_LIMIT} listed by grading")
    return _reported(c, _spanned(blocks))


def _reported(c: KnotComplex, dims: dict) -> dict:
    """Dimensions keyed by int gradings, keyed by the Maslov gradings they stand for."""
    offset = c._int_maslov[0]
    return {offset + d: n for d, n in dims.items()}
