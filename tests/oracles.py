"""Independent slow-path implementations used to cross-check the library.

Everything here recomputes results from first principles with deliberately
different machinery: dense list-of-list Gaussian elimination instead of
bitmask sets, direct assembly of cone differentials from the plane-level
definitions instead of the v/h chain-map objects, the Novikov dimension
via evaluation at points of GF(2^8) and via Smith pivots over F2[[T]]
instead of the free rank of the Laurent Smith form, the hat complexes and
maps from plane-element regions
instead of the free F2[U] model read modulo U, the plus flavor from
truncated GF(2) complexes with an explicit U matrix, decomposed through
cycle representatives, instead of the free F2[U] model's Smith pivots,
those pivots by a scan of every entry per pivot instead of a heap, the
twisted cone on all of A_s, and on its retract onto H(A_s) through
lifted cycles, instead of the pencil on homology bases modulo U, and that
pencil off the reduced models modulo U left once every unit arrow is
cancelled instead of off one clearing pass per model,
plus-flavor auto mode by raising the height until two heights agree
instead of reading every answer off the pivots at a proven precision,
hat-flavor induced ranks (and with them genus and the prop0check clauses)
by lifting a homology basis to cycles and counting images modulo
boundaries instead of reading them off cone dimensions by rank-nullity,
the hat cone from cone dimensions and per-grading ranks on the full A_s
and B, or off the reduced models modulo U left once every unit arrow is
cancelled, instead of ranks of the power-0 masks of the free models,
the flip (and every flip bijection) by a search that checks the
chain-map condition only on full assignments instead of pruning each
partial one, validation on name-keyed term maps composed as dicts of
U-power sets instead of the index form and the F2[U] product of `linalg`,
and the plus flavor and reduced homology from Smith reductions of the
full A_s, B and cones instead of the least models read off one clearing
pass, each with every U-power written out and reduced by
`smith_pivots_u` at a precision above every graded pivot instead of
stored as GF(2) masks and reduced on `F2Span` in grading order, the
reduced models of the plus flavor left once every unit arrow is
cancelled (`cancel_units`, `reduced_model`) instead of read off one
clearing pass, A_s and B, and v and h on them, moved into descending
grading one bit at a time (`moved_into_grading_order`, `_v_map`) instead
of placed there from their triples (`subquotient._in_grading_order`,
`subquotient._placed`), the graded Smith reduction with every column reduced
(`reduce_free_without_clearing`) instead of the column of each pivot row
skipped,
A_s, B, v and h with every U-power written out and checked on each build
(powers against the gradings, d^2 = 0, chain maps, over F2[U]) instead of
built as masks from what `validate` proves, the hat complexes as
plane-element bases with a differential checked on each build
(`SubquotientComplex`, `hat_view`) instead of homology modulo U read off
the masks of a free model or a cone (`subquotient._hat_dim`,
`cone._hat_cone_dim`), A_s, B, v and h read modulo U by the grading
filter (`u0`, `modulo_u`, `filtered_hat_dim`) on the full free models and
maps (`oracle_modulo_u_maps`) instead of off the complex's tables and by
rule (`cone._a_modulo_u`, `cone._modulo_u_maps`), and the parser with a
`Fraction` per generator instead of one per distinct M= text.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter, deque
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple

from floercone.cone import (
    ChainMapF2,
    ConeResult,
    _h_map,
    _induced_rank,
    _plus_reductions,
    _rank_nullity,
    ensure_flip,
)
from floercone.io_format import DocumentEntry, DuplicateName, InputDocument, ParseError
from floercone.linalg import (
    CompositionNonzero,
    F2Matrix,
    F2Span,
    InvariantViolated,
    LaurentMatrix,
    LaurentPoly,
    NotAChainMap,
    _clmul,
    _combine,
    _mask_bits,
    _minor_degree_bound,
    rank_f2,
    smith_invariants_laurent,
    smith_pivots_u,
)
from floercone.model import (
    DiffTerm,
    FlipTerm,
    Generator,
    KnotComplex,
    NoFlipFound,
    PlaneElement,
    ValidationReport,
    Violation,
    _flip_terms_of,
    require_valid,
)
from floercone.subquotient import (
    FreeReduction,
    FreeUComplex,
    _moved,
    _reported,
    _spanned,
    free_plus_complex,
    reduce_free,
)

# ---------------------------------------------------------------------------
# dense exact linear algebra, written without bitmasks on purpose


def dense_rank_f2(rows) -> int:
    """Row echelon over GF(2) on plain 0/1 lists."""
    mat = [list(r) for r in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, len(mat)):
            if mat[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        for r in range(len(mat)):
            if r != row and mat[r][col]:
                mat[r] = [(a + b) % 2 for a, b in zip(mat[r], mat[row])]
        row += 1
        rank += 1
    return rank


def _gf256_tables():
    """Exponent and log tables of the unit group of GF(2^8) =
    GF(2)[x] / (x^8 + x^4 + x^3 + x + 1), which x + 1 = 3 generates."""
    exp, log, x = [0] * 510, [0] * 256, 1
    for k in range(255):
        exp[k] = exp[k + 255] = x
        log[x] = k
        x ^= (x << 1) ^ (0x11B if x & 0x80 else 0)
    return exp, log


GF256_EXP, GF256_LOG = _gf256_tables()


def gf256_mul(a: int, b: int) -> int:
    return GF256_EXP[GF256_LOG[a] + GF256_LOG[b]] if a and b else 0


def dense_rank_gf256(rows) -> int:
    """Row echelon over GF(2^8) on plain lists of field elements."""
    mat = [list(r) for r in rows]
    if not mat:
        return 0
    rank = 0
    for col in range(len(mat[0])):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = GF256_EXP[255 - GF256_LOG[mat[rank][col]]]
        mat[rank] = [gf256_mul(x, inv) for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a ^ gf256_mul(f, b) for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def vector_mask(vec) -> int:
    """Pack an index set (or iterable of indices) into a bitmask."""
    out = 0
    for i in vec:
        out |= 1 << i
    return out


def kernel_basis_f2(m: F2Matrix) -> list[frozenset]:
    """Basis of ker(m); each vector is the frozenset of coordinates equal to 1.

    Deterministic: columns are processed left to right, so the basis is
    ordered by the leading (rightmost new) column index.
    """
    pivots: dict[int, tuple[int, int]] = {}
    basis: list[frozenset] = []
    for j, col in enumerate(m.column_masks()):
        combo = 1 << j
        placed = False
        while col:
            lead = col.bit_length() - 1
            hit = pivots.get(lead)
            if hit is None:
                pivots[lead] = (col, combo)
                placed = True
                break
            col ^= hit[0]
            combo ^= hit[1]
        if not placed:
            basis.append(frozenset(_mask_bits(combo)))
    return basis


def brute_force_homology_dim(rows) -> int:
    """dim ker - dim im of a square GF(2) matrix by enumerating all vectors.

    Exponential; callers keep the dimension at 12 or below.
    """
    n = len(rows)
    assert n <= 12, "brute force enumeration is for small complexes only"
    kernel = 0
    images = set()
    for x in range(1 << n):
        vec = [(x >> k) & 1 for k in range(n)]
        out = tuple(sum(rows[r][k] * vec[k] for k in range(n)) % 2 for r in range(n))
        if not any(out):
            kernel += 1
        images.add(out)
    kernel_dim = kernel.bit_length() - 1
    image_dim = len(images).bit_length() - 1
    return kernel_dim - image_dim


# ---------------------------------------------------------------------------
# Smith reduction over GF(2)[U] / U^P by a scan of every entry per pivot


def oracle_smith_pivots_u(columns, precision: int) -> list[tuple[int, int, int]]:
    """Smith reduction over GF(2)[U] / U^precision; returns (row, col, v) per
    pivot, the invariant factors being the U^v.

    columns[c] maps row r to the nonzero entry (r, c), whose bit k is the
    coefficient of U^k.  Each step pivots on an entry u * U^v of least
    valuation (u a unit), sets col' <- u * col' + (e >> v) * col for each
    other column col' with entry e in the pivot row, and drops the pivot
    row and column (row operations would only clear the dropped column).
    """
    full = (1 << precision) - 1
    cols = {c: {r: e & full for r, e in col.items() if e & full}
            for c, col in enumerate(columns)}
    pivots = []
    while True:
        best = min((((e & -e).bit_length() - 1, r, c)
                    for c, col in cols.items() for r, e in col.items()), default=None)
        if best is None:
            return pivots
        v, r, c = best
        pivot_col = cols.pop(c)
        unit = pivot_col.pop(r) >> v
        for col in cols.values():
            e = col.pop(r, 0)
            if not e:
                continue
            if unit != 1:
                for r2, x in col.items():
                    col[r2] = _clmul(x, unit) & full
            q = e >> v
            for r2, p in pivot_col.items():
                x = col.pop(r2, 0) ^ _clmul(p, q) & full
                if x:
                    col[r2] = x
        pivots.append((r, c, v))


# ---------------------------------------------------------------------------
# hat complexes as plane-element bases with a checked differential, the
# representation the library used before it read every hat homology off
# the masks of its free models


@dataclass(frozen=True)
class SubquotientComplex:
    """A hat complex: plane elements, the differential modulo U among them,
    and their int gradings; the constructor checks d^2 = 0 and that every
    entry drops the grading by one."""

    basis: tuple
    differential: F2Matrix
    maslov: tuple

    def __post_init__(self):
        d = self.differential
        if d.rows != len(self.basis) or d.cols != len(self.basis):
            raise ValueError("differential shape does not match basis")
        if not d.mul(d).is_zero():
            raise ValueError("induced differential does not square to zero")
        for m, col in zip(self.maslov, d.column_masks()):
            if any(self.maslov[r] != m - 1 for r in _mask_bits(col)):
                raise ValueError("differential entry does not drop Maslov by 1")

    @property
    def dim(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class HatMap:
    """A map of hat complexes with the grading change common to its entries
    (None when two disagree)."""

    source: SubquotientComplex
    target: SubquotientComplex
    matrix: F2Matrix
    maslov_shift: int | None


def u0(columns, source_gradings, target_gradings, degree: int) -> tuple:
    """The grading filter: the power-0 part of a graded map of this degree,
    by column masks, the entries whose row sits at the source's grading
    plus degree."""
    level: dict = {}  # the rows at each grading
    for r, g in enumerate(target_gradings):
        level[g] = level.get(g, 0) | 1 << r
    return tuple([col & level.get(g + degree, 0) for g, col in zip(source_gradings, columns)])


def modulo_u(free: FreeUComplex) -> FreeUComplex:
    """A checked free complex read modulo U by the grading filter."""
    return FreeUComplex._trusted(free.lo, free.gradings, u0(free.columns, free.gradings, free.gradings, -1))


def filtered_hat_dim(gradings, columns) -> int:
    """dim H of a graded free complex read modulo U by the grading filter:
    n - 2 rank(d modulo U)."""
    n = len(columns)
    return n - 2 * rank_f2(F2Matrix._from_masks(n, n, u0(columns, gradings, gradings, -1)))


def hat_view(c: KnotComplex, free: FreeUComplex) -> SubquotientComplex:
    """A free complex read modulo U, on its plane elements (g, lo(g))."""
    basis = tuple(PlaneElement(g.name, low) for g, low in zip(c.generators, free.lo))
    matrix = F2Matrix._from_masks(len(basis), len(basis), modulo_u(free).columns)
    return SubquotientComplex(basis, matrix, free.gradings)


def build_B_hat(c: KnotComplex) -> SubquotientComplex:
    return hat_view(c, free_plus_complex(c))


def build_A_hat(c: KnotComplex, s: int) -> SubquotientComplex:
    """One element per generator: (g, min(0, s - A(g)))."""
    return hat_view(c, free_plus_complex(c, s))


def build_v_hat(c: KnotComplex, s: int) -> HatMap:
    """The library's v : A_s -> B, the projection onto the i = 0 part of B,
    read modulo U on the hat views."""
    a, b = free_plus_complex(c, s), free_plus_complex(c)
    matrix = u0(_v_map(a), a.gradings, b.gradings, 0)
    return HatMap(hat_view(c, a), hat_view(c, b), F2Matrix._from_masks(len(b.lo), len(a.lo), matrix), 0)


def v_modulo_u(c: KnotComplex, s: int) -> ChainMapF2:
    """The library's v : A_s -> B read modulo U, as the pinned `induces_iso` takes it."""
    a, b = free_plus_complex(c, s), free_plus_complex(c)
    return ChainMapF2(modulo_u(a), modulo_u(b), build_v_hat(c, s).matrix)


def cone_dim(a: SubquotientComplex, b: SubquotientComplex, f: F2Matrix) -> int:
    """dim H(cone f) for f : a -> b; zero exactly when f_* is an isomorphism."""
    total, _ = cone_parts(a, b, f)
    return total.cols - 2 * rank_f2(total)


# ---------------------------------------------------------------------------
# induced ranks by lifting cycles, as the hat flavor computed them before
# reading every rank off the dimension of a cone


def hat_homology_dim(sub: SubquotientComplex) -> int:
    """dim H of a hat complex: its dimension less twice the rank of d."""
    return sub.dim - 2 * rank_f2(sub.differential)


def hat_maps(c: KnotComplex, s: int) -> tuple:
    """The library's v and h on one build of A_s and B, read modulo U: v of
    degree 0, h of degree -2s, a zero map of degree 0."""
    v = build_v_hat(c, s)
    a, b = v.source, v.target
    matrix = F2Matrix._from_masks(b.dim, a.dim, u0(_h_map(c), a.maslov, b.maslov, -2 * s))
    return v, HatMap(a, b, matrix, 0 if matrix.is_zero() else -2 * s)


def oracle_modulo_u_maps(c: KnotComplex, s: int) -> tuple:
    """`cone._modulo_u_maps` by the grading filter: A_s and B read modulo U,
    the power-0 masks of their free models, and of v and h between them,
    the entries of each map's masks (`_v_map`, `_h_map`) whose gradings
    give them power 0, v of degree 0 and h of degree -2s."""
    c = ensure_flip(c)
    a, b = free_plus_complex(c, s), free_plus_complex(c)
    return (modulo_u(a), modulo_u(b), u0(_v_map(a), a.gradings, b.gradings, 0),
            u0(_h_map(c), a.gradings, b.gradings, -2 * s))


def make_chain_map(source: SubquotientComplex, target: SubquotientComplex,
                   matrix: F2Matrix) -> HatMap:
    """Wrap a matrix as a chain map, verifying commutation with differentials."""
    if matrix.rows != target.dim or matrix.cols != source.dim:
        raise ValueError("matrix shape does not match source/target")
    if matrix.mul(source.differential) != target.differential.mul(matrix):
        raise NotAChainMap("matrix does not commute with the differentials")
    return HatMap(source, target, matrix, _maslov_shift(source, target, matrix))


def _maslov_shift(source: SubquotientComplex, target: SubquotientComplex,
                  matrix: F2Matrix) -> int | None:
    """The grading change common to every entry of matrix: 0 when there are
    no entries, None when two entries disagree."""
    shift = None
    for m, col in zip(source.maslov, matrix.column_masks()):
        if not col:
            continue
        if shift is None:
            shift = target.maslov[col.bit_length() - 1] - m
        image = m + shift
        while col:
            low = col & -col
            if target.maslov[low.bit_length() - 1] != image:
                return None
            col ^= low
    return 0 if shift is None else shift


def rank_f2_modulo(masks, base_masks) -> int:
    """dim(span(masks + base) / span(base))."""
    span = F2Span()
    for b in base_masks:
        span.add(b)
    count = 0
    for v in masks:
        if span.add(v):
            count += 1
    return count


def induced_rank(cm: HatMap) -> int:
    """Rank of the induced map on homology.

    Lifts a homology basis of the source to cycles, maps them, and counts
    images that stay independent modulo boundaries of the target.
    """
    cycles = kernel_basis_f2(cm.source.differential)
    images = [_combine(cm.matrix.column_masks(), vector_mask(z)) for z in cycles]
    return rank_f2_modulo(images, cm.target.differential.column_masks())


def oracle_hat_ranks(c: KnotComplex, s: int) -> tuple:
    """rank v_*, rank h_* and rank (v + h)_* on the region-built hat maps of
    `oracle_hat_parts`, by lifting cycles; c must carry a flip."""
    a, b, v, h = oracle_hat_parts(c, s)
    return induced_rank(v), induced_rank(h), induced_rank(make_chain_map(a, b, v.matrix + h.matrix))


def oracle_genus(complexes) -> int:
    """Smallest s >= 0 with every v_i, i >= s, an isomorphism on homology, by
    lifting cycles through the region-built v; every complex carries a flip."""
    worst = -1
    for i in range(max(c.a_max() for c in complexes) + 1):
        for c in complexes:
            a, b, v, _ = oracle_hat_parts(c, i)
            if not induced_rank(v) == hat_homology_dim(a) == hat_homology_dim(b):
                worst = i
    return worst + 1


def oracle_necessary_conditions_witness(complexes) -> dict | None:
    """The witness of the first failed clause of `sphere_necessary_conditions`,
    None when all hold: clauses (c) and (a) on the region-built hat parts by
    lifting cycles, clause (b) by counting F2[[T]] pivots of the twisted cone
    on all of A_s; every complex carries a flip."""
    bound = max(c.a_bound() for c in complexes)
    for s in [0] + [x for k in range(1, bound + 1) for x in (k, -k)]:
        parts = [(c, *oracle_hat_parts(c, s)) for c in complexes]
        for c, a, b, _, _ in parts:
            if hat_homology_dim(a) != hat_homology_dim(b):
                return {"clause": "c", "s": s, "spinc": c.spinc_label,
                        "dim_A": hat_homology_dim(a), "dim_B": hat_homology_dim(b)}
        for c, a, b, v, h in parts if s else ():
            rank = induced_rank(make_chain_map(a, b, v.matrix + h.matrix))
            if not rank == hat_homology_dim(a) == hat_homology_dim(b):
                return {"clause": "a", "s": s, "spinc": c.spinc_label, "rank": rank,
                        "dim_A": hat_homology_dim(a), "dim_B": hat_homology_dim(b)}
        for c in complexes:
            if dim := oracle_twisted_homology(c, s).novikov_dim:
                return {"clause": "b", "s": s, "spinc": c.spinc_label, "novikov_dim": dim}
    return None


# ---------------------------------------------------------------------------
# the hat cone on the full hat complexes, as `cone_homology_hat` computed it
# before reading its answers off the reduced models: three cone dimensions
# by rank-nullity, and per-grading ranks of the cone of v + h at s = 0


def submatrix(m: F2Matrix, row_indices, col_indices) -> F2Matrix:
    """Restriction of m to the given rows and columns, reindexed from 0.

    Indices are distinct; one outside the matrix gives a zero row or column.
    """
    masks = m.column_masks()
    cols = [masks[c] if 0 <= c < m.cols else 0 for c in col_indices]
    if row_indices == range(m.rows):
        return F2Matrix._from_masks(m.rows, len(cols), tuple(cols))
    new_row = {r: i for i, r in enumerate(row_indices)}
    keep = vector_mask(r for r in new_row if 0 <= r < m.rows)
    out = []
    for mask in cols:
        acc = 0
        for r in _mask_bits(mask & keep):
            acc |= 1 << new_row[r]
        out.append(acc)
    return F2Matrix._from_masks(len(new_row), len(out), tuple(out))


def graded_homology_dims(maslovs, differential: F2Matrix) -> dict:
    """Homology dimensions per grading for a grading-homogeneous differential."""
    by_grading: dict = {}
    for k, m in enumerate(maslovs):
        by_grading.setdefault(m, []).append(k)
    # the rank on grading d counts non-cycles there and boundaries at d - 1
    rows = range(differential.rows)
    ranks = {d: rank_f2(submatrix(differential, rows, idx)) for d, idx in by_grading.items()}
    out = {}
    for d in sorted(by_grading):
        dim = len(by_grading[d]) - ranks[d] - ranks.get(d + 1, 0)
        if dim:
            out[d] = dim
    return out


def cone_parts(a: SubquotientComplex, b: SubquotientComplex, f: F2Matrix):
    """Total differential and gradings of the cone of f : a -> b."""
    na, n = a.dim, a.dim + b.dim
    columns = [da | fm << na for da, fm in zip(a.differential.column_masks(), f.column_masks())]
    columns += [db << na for db in b.differential.column_masks()]
    return F2Matrix._from_masks(n, n, tuple(columns)), list(a.maslov) + [m - 1 for m in b.maslov]


def oracle_cone_homology_hat(c: KnotComplex, s: int) -> ConeResult:
    """The hat cone on the full A_s and B modulo U: each rank read off the
    dimension of a cone, the graded dimensions off per-grading ranks."""
    c = ensure_flip(c)
    v, h = hat_maps(c, s)
    a, b = v.source, v.target
    ha, hb = hat_homology_dim(a), hat_homology_dim(b)
    vh = v.matrix + h.matrix
    dim_v, dim_h, total_dim = (cone_dim(a, b, f) for f in (v.matrix, h.matrix, vh))
    graded = None
    if s == 0:
        total, maslovs = cone_parts(a, b, vh)
        graded = _reported(c, graded_homology_dims(maslovs, total))
    return ConeResult(s, "hat", total_dim, _rank_nullity(ha, hb, dim_v),
                      _rank_nullity(ha, hb, dim_h), _rank_nullity(ha, hb, total_dim), graded)


# ---------------------------------------------------------------------------
# the reduced models by unit cancellation, as the plus flavor, `red` and
# the s = 0 pencil built them before one clearing pass built every reduced
# model (`subquotient._smith_model`), and the Smith reduction with no
# clearing


def cancel_units(columns, gradings) -> tuple[list, list]:
    """Cancel every unit arrow of a graded free F2[U]-complex, exactly.

    columns[:size], size = len(gradings), are the differential of a complex
    on basis 0..size-1 as column masks, entry (r, c) of U-power
    (gradings[r] - gradings[c] + 1) / 2: a unit has gradings[r] =
    gradings[c] - 1.  For each unit at (y, x), the cancellation lemma
    (Gaussian elimination, Bar-Natan 2007) sets d z += <d z, y> d x for
    every other column z, one XOR of masks whose powers the gradings fix
    again, and drops x and y: the result is homotopy equivalent to the
    complex, with differential 0 modulo U once no unit is left.  The
    equivalence is z -> z + <d z, y> x into the complex and
    w -> w_Z + <w, y> (d x)_Z out of it, Z the basis left.  So
    - rows at index >= size below the first size columns (a map out of the
      complex) take the column steps and come out composed with the
      inclusion, and
    - the first size rows of columns[size:] (maps into the complex) take
      them too, but never pivot, and come out composed with the projection.

    Returns the kept basis indices in order, and the kept columns followed
    by columns[size:], with each row below size renumbered to its place
    among the kept and the rows from size on moved down to follow them.
    """
    size = len(gradings)
    low = (1 << size) - 1
    cols = dict(enumerate(columns))
    holders: dict[int, set] = {}
    units = deque()  # first in, first out: on the sums tried, a third of the steps of a stack

    def hold(z: int, rows: int) -> None:
        """Index the rows of z below size, and queue its units among them."""
        for r in _mask_bits(rows & low):
            holders.setdefault(r, set()).add(z)
            if z < size and gradings[r] == gradings[z] - 1:
                units.append((r, z))

    for c, col in cols.items():
        hold(c, col)
    while units:
        y, x = units.popleft()
        pivot = cols.get(x)
        if pivot is None or not pivot >> y & 1:
            continue
        del cols[x]
        cols.pop(y, None)
        for z in holders.pop(y):
            col = cols.get(z)
            if col is not None and col >> y & 1:
                cols[z] = col ^ pivot
                hold(z, pivot & ~col)
        for z in holders.pop(x, ()):
            if z in cols:
                cols[z] &= ~(1 << x)
    kept = [k for k in range(size) if k in cols]
    place = {k: i for i, k in enumerate(kept)}
    out = []
    for c in kept + list(range(size, len(columns))):
        col = cols[c]
        mask = col >> size << len(kept)
        for r in _mask_bits(col & low):
            mask |= 1 << place[r]
        out.append(mask)
    return kept, out


def reduced_model(free: FreeUComplex, out=(), into=()) -> tuple:
    """The complex with every unit arrow cancelled (`cancel_units`),
    which is homotopy equivalent to it by an inclusion i and a projection p,
    with each map f out of it as f i and each map g into it as p g; maps
    are graded and given by their column masks."""
    columns, n = list(free.columns), len(free.columns)
    widths = [max((fcol.bit_length() for fcol in f), default=0) for f in out]
    starts = list(itertools.accumulate(widths, initial=0))  # map k's rows ride below the columns
    for f, start in zip(out, starts):
        columns = [col | fcol << n + start for col, fcol in zip(columns, f)]
    kept, cols = cancel_units(columns + [col for g in into for col in g], free.gradings)
    m, low = len(kept), (1 << len(kept)) - 1
    outs = [tuple(col >> m + start & (1 << width) - 1 for col in cols[:m])
            for start, width in zip(starts, widths)]
    rest = iter([col & low for col in cols[m:]])
    intos = [tuple(itertools.islice(rest, len(g))) for g in into]
    reduced = FreeUComplex(tuple([free.lo[k] for k in kept]),
                           tuple([free.gradings[k] for k in kept]),
                           tuple(col & low for col in cols[:m]))
    return reduced, outs, intos


def _v_map(a: FreeUComplex) -> tuple:
    """v : A_s -> B in index coordinates, as the plus flavor built it before
    `cone._reduced_maps` placed it in grading coordinates from the pairs
    (k, k): y_g to U^(-lo(g)) x_g, the identity on masks, and a chain map,
    since A_s is d conjugated by the diagonal U^lo (`subquotient`)."""
    return tuple([1 << k for k in range(len(a.lo))])


def moved_into_grading_order(free: FreeUComplex) -> tuple:
    """free moved into descending grading, ties by index, one bit at a time,
    as the plus flavor moved A_s and B before `subquotient._in_grading_order`
    built them there from d's triples; with the order and each index's place."""
    order = sorted(range(len(free.gradings)), key=free.gradings.__getitem__, reverse=True)
    place = {k: p for p, k in enumerate(order)}
    moved = FreeUComplex._trusted(tuple([free.lo[k] for k in order]),
                                  tuple([free.gradings[k] for k in order]),
                                  tuple([_moved(place, free.columns[k]) for k in order]))
    return moved, order, place


def reduce_free_without_clearing(gradings, columns) -> FreeReduction:
    """`reduce_free` as the column reduction on `F2Span` with no clearing:
    every column reduced, in descending grading, each pivot U^v pairing
    gr[row] - 2v = gr[col] - 1, and the towers the gradings left unpaired."""
    order = sorted(range(len(gradings)), key=gradings.__getitem__, reverse=True)
    place = {k: p for p, k in enumerate(order)}
    span, left, pairs = F2Span(), Counter(gradings), []
    for col in order:
        mask = sum(1 << place[r] for r in _mask_bits(columns[col]))
        if mask and (residue := span.add(mask)):
            row = order[residue.bit_length() - 1]
            twice = gradings[row] - gradings[col] + 1
            if twice < 0 or twice % 2:
                raise InvariantViolated("Smith pivot of a graded complex breaks the grading")
            left.subtract((gradings[row], gradings[col]))
            pairs.append((gradings[row], gradings[col], twice // 2))
    return FreeReduction(len(gradings), tuple(pairs), tuple(sorted(left.elements())))


def _cancelled(a: FreeUComplex, b: FreeUComplex, maps) -> tuple:
    """A' and B' with every unit arrow cancelled, A's first with the maps
    carried below it, then B's with f i_A carried into it (`reduced_model`),
    and the maps f' = p_B f i_A."""
    a, maps, _ = reduced_model(a, out=maps)          # A' and v i_A, h i_A
    b, _, (v, h) = reduced_model(b, into=maps)       # B' and v', h'
    return a, b, v, h


def cancelled_reduced_maps(c: KnotComplex, s: int) -> tuple:
    """`cone._reduced_maps` by unit cancellation: A' and B', the reduced
    models of A_s and B, and the column masks of v' and h' between them."""
    a, b = free_plus_complex(c, s), free_plus_complex(c)
    return _cancelled(a, b, (_v_map(a), _h_map(c)))


def cancelled_maps_modulo_u(c: KnotComplex, s: int) -> tuple:
    """A' and B', the reduced models of A_s and B read modulo U, and the
    power-0 masks of v' and h' between them (`_cancelled`).  Every
    differential left is 0, which is checked, so f' d = 0 = d f' needs no
    check."""
    a, b, *maps = oracle_modulo_u_maps(c, s)
    a, b, v, h = _cancelled(a, b, maps)
    if any(a.columns) or any(b.columns):
        raise InvariantViolated("a reduced model modulo U keeps a differential")
    return a, b, v, h


def oracle_hat_from_reduced_models(c: KnotComplex, s: int) -> ConeResult:
    """The hat cone read off the reduced models modulo U
    (`cancelled_maps_modulo_u`), whose differentials are 0: dim H(A_s) =
    |A'|, dim H(B) = |B'| and rank f_* = rank f' modulo U.  At s = 0 the
    cone holds A'_g and B'_(g+1) at grading g, and the columns of v' + h' at
    grading g, of rank r_g, land in B'_g, so its homology there has dimension
    |A'_g| - r_g + |B'_(g+1)| - r_(g+1)."""
    c = ensure_flip(c)
    a, b, v, h = cancelled_maps_modulo_u(c, s)
    rows, cols = len(b.gradings), len(a.gradings)
    v, h, vh = (F2Matrix._from_masks(rows, cols, tuple(f)) for f in (v, h, map(int.__xor__, v, h)))
    rank_vh = rank_f2(vh)
    graded = None
    if s == 0:
        by_grading: dict = {}
        for g, mask in zip(a.gradings, vh.column_masks()):
            by_grading.setdefault(g, []).append(mask)
        ranks = {g: rank_f2(F2Matrix._from_masks(rows, len(m), tuple(m)))
                 for g, m in by_grading.items()}
        dims = Counter(a.gradings) + Counter(g - 1 for g in b.gradings)
        dims.subtract(ranks)
        dims.subtract({g - 1: r for g, r in ranks.items()})
        graded = _reported(c, {g: n for g, n in sorted(dims.items()) if n})
    return ConeResult(s, "hat", cols + rows - 2 * rank_vh, rank_f2(v), rank_f2(h), rank_vh, graded)


# ---------------------------------------------------------------------------
# plane-level differential and flip, straight from the defining data


def maslov_offset(c: KnotComplex) -> Fraction:
    """The fractional part of the Maslov gradings, from the first generator."""
    m = c.generators[0].maslov if c.generators else Fraction(0)
    return m - m.numerator // m.denominator


def maslov_cutoff(c: KnotComplex, n: int) -> Fraction:
    """n + max Maslov: the reporting line of `--truncation N`, on Fractions."""
    return max((g.maslov for g in c.generators), default=Fraction(0)) + n


def plane_maslov(c: KnotComplex, e: PlaneElement) -> Fraction:
    g = c.generator(e.generator)
    return g.maslov + 2 * e.i


def _make_sub(c: KnotComplex, elements) -> SubquotientComplex:
    """The region spanned by plane elements, terms leaving it dropped; the
    checked SubquotientComplex constructor proves d^2 = 0 and the gradings."""
    elements = tuple(sorted(elements, key=lambda e: (e.generator, e.i)))
    index = {(e.generator, e.i): k for k, e in enumerate(elements)}
    heights: dict[str, list] = {}
    for (g, i), col in index.items():
        heights.setdefault(g, []).append((i, col))
    entries = []
    for t in c.differential:
        for i, col in heights.get(t.source, ()):
            row = index.get((t.target, i - t.u_power))
            if row is not None:
                entries.append((row, col))
    diff = F2Matrix.from_entries(len(elements), len(elements), entries)
    maslov = tuple(plane_maslov(c, e) for e in elements)
    return SubquotientComplex(elements, diff, maslov)


def _basis_index(sub: SubquotientComplex) -> dict:
    return {(e.generator, e.i): k for k, e in enumerate(sub.basis)}


def plane_diff_targets(c: KnotComplex, name: str, i: int):
    """Differential of the plane element (name, i) as a set of elements."""
    out = set()
    for t in c.differential:
        if t.source == name:
            tgt = (t.target, i - t.u_power)
            if tgt in out:
                out.discard(tgt)
            else:
                out.add(tgt)
    return out


def plane_flip_targets(c: KnotComplex, name: str, i: int):
    assert c.flip is not None
    out = set()
    for t in c.flip:
        if t.source == name:
            tgt = (t.target, i - t.u_power)
            if tgt in out:
                out.discard(tgt)
            else:
                out.add(tgt)
    return out


def in_A_hat(c: KnotComplex, s: int, name: str, i: int) -> bool:
    return max(i, i + c.alexander(name) - s) == 0


def in_B_hat(name: str, i: int) -> bool:
    return i == 0


def a_hat_elements(c: KnotComplex, s: int):
    out = []
    for g in sorted(c.generators, key=lambda g: g.name):
        for i in range(-3 * (c.a_bound() + abs(s) + 1), 1):
            if in_A_hat(c, s, g.name, i):
                out.append((g.name, i))
    return out


def b_hat_elements(c: KnotComplex):
    return [(g.name, 0) for g in sorted(c.generators, key=lambda g: g.name)]


def oracle_hat_parts(c: KnotComplex, s: int):
    """A_s, B and the chain maps v, h : A_s -> B of the hat flavor, from the
    plane regions: v is the identity on the i = 0 slice, h takes the j = s
    slice through the flip and U^s; c must carry a flip."""
    assert c.flip is not None
    a = _make_sub(c, [PlaneElement(g, i) for g, i in a_hat_elements(c, s)])
    b = _make_sub(c, [PlaneElement(g, i) for g, i in b_hat_elements(c)])
    bindex = _basis_index(b)
    phi = flip_map(c)
    v_entries, h_entries = [], []
    for col, e in enumerate(a.basis):
        if e.i == 0:
            v_entries.append((bindex[(e.generator, 0)], col))
        if e.i + c.alexander(e.generator) == s:
            h_entries += [(bindex[(t, 0)], col) for t in phi.get(e.generator, ())]
    v = make_chain_map(a, b, F2Matrix.from_entries(b.dim, a.dim, v_entries))
    h = make_chain_map(a, b, F2Matrix.from_entries(b.dim, a.dim, h_entries))
    return a, b, v, h


def oracle_cone_hat(c: KnotComplex, s: int):
    """Total and graded homology dims of the hat-flavor surgery cone.

    Assembles the full cone differential from the plane-level differential
    and flip, never constructing the v/h chain maps, then reduces densely.
    Returns (total_dim, graded_dims) with graded_dims a dict at s = 0 and
    None otherwise.
    """
    assert c.flip is not None
    a_elems = a_hat_elements(c, s)
    b_elems = b_hat_elements(c)
    basis = [("A",) + e for e in a_elems] + [("B",) + e for e in b_elems]
    index = {e: k for k, e in enumerate(basis)}
    n = len(basis)
    rows = [[0] * n for _ in range(n)]

    for part, name, i in basis:
        col = index[(part, name, i)]
        # internal differential, restricted to the region
        for tname, ti in plane_diff_targets(c, name, i):
            inside = in_A_hat(c, s, tname, ti) if part == "A" else in_B_hat(tname, ti)
            if inside:
                rows[index[(part, tname, ti)]][col] ^= 1
        if part != "A":
            continue
        # v: identity on the i = 0 slice
        if i == 0:
            rows[index[("B", name, 0)]][col] ^= 1
        # h: U^s after the flip on the j = s slice
        if i + c.alexander(name) == s:
            for tname, ti in plane_flip_targets(c, name, i):
                rows[index[("B", tname, ti - s)]][col] ^= 1

    rank = dense_rank_f2(rows)
    total = n - 2 * rank
    if s != 0:
        return total, None

    def maslov(entry) -> Fraction:
        part, name, i = entry
        m = c.maslov(name) + 2 * i
        return m if part == "A" else m - 1

    graded = {}
    gradings = sorted({maslov(e) for e in basis})
    for d in gradings:
        cols_d = [k for k, e in enumerate(basis) if maslov(e) == d]
        cols_up = [k for k, e in enumerate(basis) if maslov(e) == d + 1]
        sub = [[rows[r][k] for k in cols_d] for r in range(n)]
        cycles = len(cols_d) - dense_rank_f2(sub)
        up = [[rows[r][k] for k in cols_up] for r in range(n)]
        boundaries = dense_rank_f2(up)
        if cycles - boundaries:
            graded[d] = cycles - boundaries
    return total, graded


def oracle_novikov_dim(c: KnotComplex, s: int) -> int:
    """Twisted cone homology dim over the fraction field, by evaluation.

    Builds the full twisted cone differential D over GF(2)[T], with the
    T-weight on the h edges and entries summed mod 2, evaluates T at points
    of GF(2^8) outside GF(2), and takes the largest rank.  No evaluation
    raises the rank; D^2 = 0 bounds it by n // 2, and a nonzero minor of that
    size has degree at most n // 2 in T, so n // 2 + 1 points find it.
    """
    assert c.flip is not None
    a_elems = a_hat_elements(c, s)
    b_elems = b_hat_elements(c)
    basis = [("A",) + e for e in a_elems] + [("B",) + e for e in b_elems]
    index = {e: k for k, e in enumerate(basis)}
    n = len(basis)
    assert n // 2 + 1 <= 254, "more points than GF(2^8) has outside GF(2)"

    best = 0
    for point in range(2, n // 2 + 3):
        rows = [[0] * n for _ in range(n)]
        for part, name, i in basis:
            col = index[(part, name, i)]
            for tname, ti in plane_diff_targets(c, name, i):
                inside = in_A_hat(c, s, tname, ti) if part == "A" else in_B_hat(tname, ti)
                if inside:
                    rows[index[(part, tname, ti)]][col] ^= 1
            if part != "A":
                continue
            if i == 0:
                rows[index[("B", name, 0)]][col] ^= 1
            if i + c.alexander(name) == s:
                for tname, ti in plane_flip_targets(c, name, i):
                    rows[index[("B", tname, ti - s)]][col] ^= point
        best = max(best, dense_rank_gf256(rows))
    return n - 2 * best


T = LaurentPoly.monomial(1)


def laurent_from_f2(m: F2Matrix, scale: LaurentPoly = LaurentPoly.one()) -> LaurentMatrix:
    """A GF(2) matrix lifted to L, every entry scaled by one polynomial."""
    return LaurentMatrix.from_dict(m.rows, m.cols, {(r, c): scale for r, c in m.entries})


@dataclass(frozen=True)
class FullTwistedCone:
    map_matrix: LaurentMatrix
    cone_matrix: LaurentMatrix


def oracle_twisted_cone(c: KnotComplex, s: int) -> FullTwistedCone:
    """The twisted cone on all of A_s: the block matrix [[d_A, 0], [v + T h, d_B]]
    on A_s (+) B, which the library transfers to the pencil on A' (+) B'."""
    v, h = hat_maps(ensure_flip(c), s)
    a, b = v.source, v.target
    w = laurent_from_f2(v.matrix) + laurent_from_f2(h.matrix, T)
    na = a.dim
    total = {(r, col): LaurentPoly.one() for r, col in a.differential.entries}
    for r, col in b.differential.entries:
        total[(na + r, na + col)] = LaurentPoly.one()
    for r, col, p in w.entries:
        total[(na + r, col)] = p
    return FullTwistedCone(w, LaurentMatrix.from_dict(na + b.dim, na + b.dim, total))


@dataclass(frozen=True)
class RetractTwistedCone:
    a: SubquotientComplex
    b: SubquotientComplex
    cycles: tuple
    map_matrix: LaurentMatrix
    cone_matrix: LaurentMatrix


def homology_cycles(a: SubquotientComplex) -> tuple:
    """Cycles of a, as bitmasks, whose classes form a basis of its homology:
    the kernel vectors that stay independent modulo the boundaries."""
    span = F2Span()
    for boundary in a.differential.column_masks():
        span.add(boundary)
    return tuple(z for z in map(vector_mask, kernel_basis_f2(a.differential)) if span.add(z))


def retract_twisted_cone(c: KnotComplex, s: int) -> RetractTwistedCone:
    """The twisted cone on H(A_s) (+) B: the block matrix [[0, 0], [W i, d_B]],
    for W = v + T h and i the lift of H(A_s) to the cycles `homology_cycles`;
    the perturbation lemma makes it homotopy equivalent to the cone on all of
    A_s, since k delta = 0 for a retract with k = 0 on B."""
    v, h = hat_maps(ensure_flip(c), s)
    a, b = v.source, v.target
    cycles = homology_cycles(a)
    lift = F2Matrix._from_masks(a.dim, len(cycles), cycles)
    w = laurent_from_f2(v.matrix.mul(lift)) + laurent_from_f2(h.matrix.mul(lift), T)
    n = len(cycles)
    total = {(n + r, n + col): LaurentPoly.one() for r, col in b.differential.entries}
    for r, col, p in w.entries:
        total[(n + r, col)] = p
    return RetractTwistedCone(a, b, cycles, w,
                              LaurentMatrix.from_dict(n + b.dim, n + b.dim, total))


def _novikov_rank(m: LaurentMatrix, rank: int) -> int:
    """Rank over the Novikov field of a matrix whose entries are 1, T or 1 + T
    and whose rank is at most `rank`.

    It is the pivot count of a Smith reduction over F2[[T]] modulo T^P, at
    the precision P of `_minor_degree_bound`, which loses no invariant
    factor; every entry has degree at most 1, so P <= rank + 1.
    """
    columns = [{} for _ in range(m.cols)]
    for r, col, p in m.entries:
        if p.min_exp < 0 or p.max_exp > 1:
            raise InvariantViolated(f"twisted cone entry {p} is not 1, T or 1 + T")
        columns[col][r] = p._mask << p._low
    return len(smith_pivots_u(columns, _minor_degree_bound(columns, rank)))


class TwistedHomology(NamedTuple):
    novikov_dim: int
    laurent_free_rank: int
    torsion_factors: tuple


def oracle_twisted_homology(c: KnotComplex, s: int) -> TwistedHomology:
    """Novikov dimension, by F2[[T]] pivots, and free rank and torsion
    factors, by the Laurent Smith form, of the cone on all of A_s; the cone
    differential D squares to 0, so its rank is at most m // 2."""
    cone = oracle_twisted_cone(c, s).cone_matrix
    m = cone.rows
    invariants = smith_invariants_laurent(cone)
    torsion = sorted((p for p in invariants if p != LaurentPoly.one()),
                     key=lambda p: (p.span, tuple(sorted(p.support))))
    return TwistedHomology(m - 2 * _novikov_rank(cone, m // 2),
                           m - 2 * len(invariants), tuple(torsion))


# ---------------------------------------------------------------------------
# Laurent determinant expansion, for checking Smith invariants by minors


def _poly_mul(a: dict, b: dict) -> dict:
    out: set[int] = set()
    for ea in a:
        for eb in b:
            e = ea + eb
            if e in out:
                out.discard(e)
            else:
                out.add(e)
    return {e: 1 for e in out}


def _poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e in b:
        if e in out:
            del out[e]
        else:
            out[e] = 1
    return out


def laurent_product(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """p q from the exponent sets, one term per pair of exponents, where the
    library multiplies the masks."""
    return LaurentPoly.from_exponents(a + b for a in p.support for b in q.support)


def laurent_det(entries: dict, idx_rows, idx_cols) -> dict:
    """Determinant over GF(2)[T, T^-1] by Laplace expansion on the first row.

    entries maps (r, c) to an exponent-set dict; absent means zero.
    """
    idx_rows = list(idx_rows)
    idx_cols = list(idx_cols)
    if not idx_rows:
        return {0: 1}
    r = idx_rows[0]
    acc: dict[int, int] = {}
    for k, c0 in enumerate(idx_cols):
        e = entries.get((r, c0))
        if not e:
            continue
        minor = laurent_det(entries, idx_rows[1:], idx_cols[:k] + idx_cols[k + 1:])
        acc = _poly_add(acc, _poly_mul(e, minor))
    return acc


def minor_gcd_spans(entries: dict, rows: int, cols: int, k: int):
    """All nonzero k x k minors of the matrix, as exponent-set dicts."""
    import itertools

    out = []
    for rr in itertools.combinations(range(rows), k):
        for cc in itertools.combinations(range(cols), k):
            d = laurent_det(entries, rr, cc)
            if d:
                out.append(d)
    return out


# ---------------------------------------------------------------------------
# plus flavor from truncated GF(2) complexes with an explicit U action


class TaggedSpan:
    """Incremental GF(2) span with reduction tracking.

    Vectors are bitmask ints.  Vectors added with a tag are remembered, and
    `coords` later expresses a dependent vector as a combination of tagged
    vectors modulo the untagged ones.  This is exactly the "reduce against
    boundaries, read off homology coordinates" step, provided untagged
    (boundary) vectors are added before tagged (representative) ones.
    """

    def __init__(self):
        self._pivots: dict[int, tuple[int, int]] = {}
        self.size = 0

    def reduce(self, vec: int) -> tuple[int, int]:
        combo = 0
        while vec:
            lead = vec.bit_length() - 1
            hit = self._pivots.get(lead)
            if hit is None:
                return vec, combo
            vec ^= hit[0]
            combo ^= hit[1]
        return 0, combo

    def add(self, vec: int, tag: int | None = None) -> bool:
        """Add vec to the span; returns True if it was independent."""
        residue, combo = self.reduce(vec)
        if residue == 0:
            return False
        if tag is not None:
            combo ^= 1 << tag
        self._pivots[residue.bit_length() - 1] = (residue, combo)
        self.size += 1
        return True

    def contains(self, vec: int) -> bool:
        return self.reduce(vec)[0] == 0

    def coords(self, vec: int) -> int | None:
        """Tag-combination expressing vec, or None if vec is independent."""
        residue, combo = self.reduce(vec)
        return combo if residue == 0 else None


@dataclass(frozen=True)
class UAction:
    matrix: F2Matrix
    truncation: int


def _plus_elements(c: KnotComplex, region: str, n: int, s: int | None):
    for g in c.generators:
        if region == "B" or g.alexander <= s:
            lo = 0
        else:
            lo = s - g.alexander
        for i in range(lo, lo + n + 1):
            yield PlaneElement(g.name, i)


def build_plus_truncated(c: KnotComplex, region: str, n: int, s: int | None = None):
    """Truncated plus-flavor complex and its U-action.

    region "B": 0 <= i <= n.  region "A": 0 <= max(i, j - s) <= n, which
    per generator is an interval of n + 1 consecutive heights.
    """
    require_valid(c)
    if region not in ("A", "B"):
        raise ValueError("region must be 'A' or 'B'")
    if region == "A" and s is None:
        raise ValueError("region 'A' requires s")
    if n < 0:
        raise ValueError("truncation must be >= 0")
    sub = _make_sub(c, list(_plus_elements(c, region, n, s)))
    index = _basis_index(sub)
    entries = []
    for (g, i), col in index.items():
        row = index.get((g, i - 1))
        if row is not None:
            entries.append((row, col))
    u = F2Matrix.from_entries(sub.dim, sub.dim, entries)
    if u.mul(sub.differential) != sub.differential.mul(u):
        raise NotAChainMap("U does not commute with the differential")
    _check_nilpotent(u, n)
    return sub, UAction(u, n)


def _check_nilpotent(u: F2Matrix, n: int) -> None:
    """Raise InvariantViolated unless U^(n+1) = 0.

    The power is formed by repeated squaring: at most
    ceil(log2(n + 1)) + popcount(n + 1) products instead of n.
    """
    e, square, power = n + 1, u, None
    while True:
        if e & 1:
            power = square if power is None else power.mul(square)
        e >>= 1
        if not e:
            break
        square = square.mul(square)
    if not power.is_zero():
        raise InvariantViolated(f"U^{n + 1} is not zero on the truncation at height {n}")


class GradedUModule:
    """Homology of a graded complex with a degree -2 nilpotent U-action.

    Exposes the per-grading dimensions, the matrices of U between homology
    gradings (on cycle representatives), and the resulting Jordan block
    decomposition from the ranks of U powers.
    """

    def __init__(self, maslovs, differential: F2Matrix, u_matrix: F2Matrix):
        self._u = u_matrix
        by_grading: dict[Fraction, list] = {}
        for k, m in enumerate(maslovs):
            by_grading.setdefault(m, []).append(k)
        cols = differential.column_masks()
        self.reps: dict[Fraction, list] = {}
        self._spans: dict[Fraction, TaggedSpan] = {}
        for d, idx in by_grading.items():
            span = TaggedSpan()
            for k in by_grading.get(d + 1, ()):
                span.add(cols[k])
            sub = submatrix(differential, range(differential.rows), idx)
            reps = []
            for vec in kernel_basis_f2(sub):
                mask = vector_mask(idx[j] for j in vec)
                if span.add(mask, tag=len(reps)):
                    reps.append(mask)
            self.reps[d] = reps
            self._spans[d] = span
        self._u_mats: dict[Fraction, F2Matrix] = {}

    def gradings(self):
        return sorted(d for d, reps in self.reps.items() if reps)

    def dims(self) -> dict:
        return {d: len(reps) for d, reps in self.reps.items() if reps}

    def u_matrix(self, d) -> F2Matrix:
        """Matrix of U from homology at grading d to grading d - 2."""
        if d in self._u_mats:
            return self._u_mats[d]
        src = self.reps.get(d, [])
        tgt = self.reps.get(d - 2, [])
        span = self._spans.get(d - 2, TaggedSpan())
        columns = []
        for mask in src:
            image = _combine(self._u.column_masks(), mask)
            combo = span.coords(image)
            if combo is None:
                raise NotAChainMap("U image of a cycle is not a cycle")
            columns.append(combo)
        mat = F2Matrix._from_masks(len(tgt), len(src), tuple(columns))
        self._u_mats[d] = mat
        return mat

    def socle_dims(self, cutoff) -> dict:
        """Per-grading dimension of ker(U) on homology, at gradings <= cutoff."""
        out = {}
        for d in self.gradings():
            if d > cutoff:
                continue
            dim = len(self.reps[d]) - rank_f2(self.u_matrix(d))
            if dim:
                out[d] = dim
        return out

    def _rank_power(self, d, k) -> int:
        """Rank of U^k restricted to homology at grading d."""
        reps = self.reps.get(d, [])
        if not reps:
            return 0
        if k == 0:
            return len(reps)
        prod = self.u_matrix(d)
        for step in range(1, k):
            prod = self.u_matrix(d - 2 * step).mul(prod)
        return rank_f2(prod)

    def block_multiplicities(self) -> dict:
        """Jordan blocks of U: (top grading, length) -> multiplicity."""
        out = {}
        total = sum(len(reps) for reps in self.reps.values())
        for d in self.gradings():
            # at step k: number of blocks with top d and length >= k + 1
            prev = None
            for k in range(0, total + 1):
                tops_ge = self._rank_power(d, k) - self._rank_power(d + 2, k + 1)
                if prev is not None and prev - tops_ge:
                    out[(d, k)] = prev - tops_ge
                prev = tops_ge
                if tops_ge == 0:
                    break
        return out

    def reduced_dims(self, cutoff) -> dict:
        """Graded dims of the blocks whose top grading is <= cutoff."""
        out: dict = {}
        for (top, length), count in self.block_multiplicities().items():
            if top > cutoff:
                continue
            for step in range(length):
                d = top - 2 * step
                out[d] = out.get(d, 0) + count
        return {d: out[d] for d in sorted(out)}


def oracle_reduced_part(c: KnotComplex, n: int) -> dict:
    """Reduced part of the truncated B at height n."""
    sub, u = build_plus_truncated(c, "B", n)
    module = GradedUModule(sub.maslov, sub.differential, u.matrix)
    return module.reduced_dims(maslov_cutoff(c, n))


def oracle_cone_plus(c: KnotComplex, s: int, n: int) -> dict:
    """Plus cone of v + h on the truncated complexes at height n.

    Returns total_dim, the three induced ranks (lifted through cycles, the
    rank of v + h also checked by rank-nullity) and, at s = 0, the socle
    below the artifact cutoff; c must carry a flip.
    """
    a, ua = build_plus_truncated(c, "A", n, s)
    b, ub = build_plus_truncated(c, "B", n)
    bindex = _basis_index(b)
    phi = flip_map(c)
    v_entries, h_entries = [], []
    for col, e in enumerate(a.basis):
        if e.i >= 0:
            v_entries.append((bindex[(e.generator, e.i)], col))
        j = e.i + c.alexander(e.generator)
        if j >= s:
            for target in phi.get(e.generator, ()):
                h_entries.append((bindex[(target, j - s)], col))
    v = make_chain_map(a, b, F2Matrix.from_entries(b.dim, a.dim, v_entries))
    h = make_chain_map(a, b, F2Matrix.from_entries(b.dim, a.dim, h_entries))
    vh = make_chain_map(a, b, v.matrix + h.matrix)
    total, maslovs = cone_parts(a, b, vh.matrix)
    total_dim = a.dim + b.dim - 2 * rank_f2(total)
    rank_vh = induced_rank(vh)
    assert total_dim == hat_homology_dim(a) + hat_homology_dim(b) - 2 * rank_vh
    graded = None
    if s == 0:
        na = a.dim
        u_columns = ua.matrix.column_masks() + tuple(m << na for m in ub.matrix.column_masks())
        u_total = F2Matrix._from_masks(total.rows, total.cols, u_columns)
        assert u_total.mul(total) == total.mul(u_total)
        module = GradedUModule(maslovs, total, u_total)
        graded = module.socle_dims(maslov_cutoff(c, n))
    return {"total_dim": total_dim, "rank_v": induced_rank(v), "rank_h": induced_rank(h),
            "rank_v_plus_h": rank_vh, "graded_dims": graded}


# ---------------------------------------------------------------------------
# auto mode by truncate-and-stabilize, as the plus flavor computed it before
# reading the answers off the pivots at a proven precision: one reduction
# modulo U^(truncation_cap + 2), then heights probed until two agree


class TruncationUnstable(Exception):
    """Truncated computation failed to stabilize below the height cap."""


def maslov_spread_ceil(c: KnotComplex) -> int:
    """max M - min M, rounded up to an integer; 0 when empty."""
    if not c.generators:
        return 0
    ms = [g.maslov for g in c.generators]
    spread = max(ms) - min(ms)
    return -((-spread.numerator) // spread.denominator) if spread else 0


def default_truncation(c: KnotComplex) -> int:
    return 2 * len(c.generators) + maslov_spread_ceil(c)


def truncation_cap(c: KnotComplex) -> int:
    return 4 * len(c.generators) + maslov_spread_ceil(c)


def stabilize(c: KnotComplex, compute, start_n: int | None = None):
    """Run compute(n) at n and n + 1, doubling n until the results agree.

    Returns (result, n).  Raises TruncationUnstable once n passes the cap,
    and ValueError for a negative start.
    """
    n = default_truncation(c) if start_n is None else start_n
    if n < 0:
        raise ValueError("truncation must be >= 0")
    cap = truncation_cap(c)
    while n <= cap:
        now, ahead = compute(n), compute(n + 1)
        if now == ahead:
            return now, n
        n = max(n + 1, 2 * n)
    raise TruncationUnstable(
        f"no stabilization at or below truncation {cap} for complex {c.spinc_label!r}")


def _reduced_dims(module, cutoff) -> dict:
    """Graded dims of the blocks whose top grading is <= cutoff."""
    return _spanned({block: count for block, count in module._blocks.items()
                     if block[0] <= cutoff})


def _reduced_part(c: KnotComplex):
    """Reduced part of B as a function of the height, from one reduction
    on the Maslov gradings offset + (the library's int gradings)."""
    b = free_plus_complex(c)
    offset = maslov_offset(c)
    reduction = reduce_free(tuple(offset + g for g in b.gradings), b.columns)
    return lambda n: _reduced_dims(reduction.module(n), maslov_cutoff(c, n))


def reduced_part_at(c: KnotComplex, n: int) -> dict:
    return _reduced_part(c)(n)


def oracle_hf_red_graded(c: KnotComplex) -> dict:
    """`hf_red_graded` on the full B with its U-powers written out, with no
    unit arrow cancelled first: one block per pivot U^v, v >= 1, of one
    `smith_pivots_u` reduction at a precision above every pivot."""
    require_valid(c)
    b = power_plus_complex(c)
    reduction = power_reduction(b.gradings, b.columns, graded_precision(b.gradings))
    return _reported(c, _spanned(Counter((col + 2 * v - 2, v) for _, col, v in reduction.pairs if v)))


def stabilized_hf_red_graded(c: KnotComplex, start_n: int | None = None) -> dict:
    """Graded dimensions of the finite (U-torsion) part of plus-flavor homology,
    read off one reduction of B at heights N until two consecutive agree."""
    require_valid(c)
    result, _ = stabilize(c, _reduced_part(c), start_n)
    return result


def stabilized_cone_plus(c: KnotComplex, s: int) -> ConeResult:
    """The plus cone with truncation "auto": the height is raised until the
    reported data stabilizes, at s = 0 the socle below the artifact cutoff,
    otherwise the total dimension."""
    c = ensure_flip(c)
    precision = truncation_cap(c) + 2
    ra, rb, rv, rh, rvh = _plus_reductions(c, s, precision)

    offset = maslov_offset(c)

    def socle(k: int) -> dict:  # ker(U) below the line of chopped-off tower tops
        dims = rvh.module(k).socle_dims(maslov_cutoff(c, k) - offset)
        return {offset + d: count for d, count in dims.items()}

    if s == 0:
        graded, n = stabilize(c, socle)
    else:
        graded, n = None, stabilize(c, rvh.homology_dim)[1]
    return ConeResult(s, "plus", rvh.homology_dim(n), _induced_rank(ra, rb, rv, n),
                      _induced_rank(ra, rb, rh, n), _induced_rank(ra, rb, rvh, n), graded, n)


def plus_at_height_0(c: KnotComplex, s: int, reductions) -> ConeResult:
    """The plus answer at height 0, the cone read modulo U, off reductions of
    A_s, B and the cones of v, h and v + h at any precision."""
    ra, rb, rv, rh, rvh = reductions
    graded = None
    if s == 0:
        offset = maslov_offset(c)
        dims = rvh.module(0).socle_dims(maslov_cutoff(c, 0) - offset)
        graded = {offset + d: count for d, count in dims.items()}
    return ConeResult(s, "plus", rvh.homology_dim(0), _induced_rank(ra, rb, rv, 0),
                      _induced_rank(ra, rb, rh, 0), _induced_rank(ra, rb, rvh, 0), graded, 0)


# ---------------------------------------------------------------------------
# the free F2[U] model with every U-power written out, as columns
# {row: U-power bitmask}, reduced by `smith_pivots_u` at a precision above
# every graded pivot: the library's graded complexes before they became
# GF(2) masks whose powers the gradings fix


class PowerComplex(NamedTuple):
    lo: tuple
    gradings: tuple
    columns: tuple


def power_columns(size: int, terms, source_gradings, target_gradings, degree,
                  precision=None) -> tuple:
    """Columns {row: U-power bitmask} of the F2[U] map whose terms (col, row, k)
    put U^k * row in the image of col; each k must be >= 0 and move gradings
    by degree.  With a precision, terms with k >= precision are dropped after
    the check."""
    columns = [{} for _ in range(size)]
    for col, row, k in terms:
        if k < 0 or target_gradings[row] - source_gradings[col] != 2 * k + degree:
            raise InvariantViolated(f"U-power {k} is negative or breaks the gradings")
        if precision is not None and k >= precision:
            continue
        e = columns[col].pop(row, 0) ^ 1 << k
        if e:
            columns[col][row] = e
    return tuple(columns)


def power_plus_complex(c: KnotComplex, s: int | None = None,
                       precision: int | None = None) -> PowerComplex:
    """B (s None) or A_s: lo is 0 or min(0, s - A(g)), and U^n * t in d g is
    U^(n + lo(t) - lo(g)), modulo U^precision."""
    require_valid(c)
    lo = tuple(0 if s is None else min(0, s - g.alexander) for g in c.generators)
    gradings = tuple(m + 2 * low for m, low in zip(c._int_maslov[1], lo))
    terms = [(x, y, n + lo[y] - lo[x]) for x, y, n in c._index_form[0]]
    return PowerComplex(lo, gradings, power_columns(len(lo), terms, gradings, gradings, -1,
                                                    precision))


def power_maps(c: KnotComplex, s: int, a: PowerComplex, b: PowerComplex, precision) -> tuple:
    """v and h : A_s -> B modulo U^precision, y_g to U^(-lo(g)) x_g and to
    U^max(0, s - A(g)) x_t per flip target t."""
    size, gens = len(a.lo), c.generators
    v = power_columns(size, [(k, k, -low) for k, low in enumerate(a.lo)],
                      a.gradings, b.gradings, 0, precision)
    h = power_columns(size, [(x, y, max(0, s - gens[x].alexander)) for x, y, _ in c._index_form[1]],
                      a.gradings, b.gradings, -2 * s, precision)
    return v, h


def power_cone(a: PowerComplex, b: PowerComplex, f) -> tuple:
    """Gradings and columns of the cone of f : A -> B, with B one degree below A."""
    na = len(a.gradings)
    columns = [{**da, **{na + r: e for r, e in fa.items()}} for da, fa in zip(a.columns, f)]
    columns += [{na + r: e for r, e in db.items()} for db in b.columns]
    return a.gradings + tuple(g - 1 for g in b.gradings), columns


def powers_of(gradings, columns, source_gradings=None, degree: int = -1) -> list:
    """The graded map given by column masks with its U-powers written out,
    each read off the gradings."""
    source_gradings = gradings if source_gradings is None else source_gradings
    return [{r: 1 << (gradings[r] - g - degree) // 2 for r in _mask_bits(col)}
            for g, col in zip(source_gradings, columns)]


def graded_precision(gradings) -> int:
    """A precision above every pivot of a graded reduction on these gradings:
    a pivot U^v pairs gr[row] - 2v = gr[col] - 1, so 2v <= max - min + 1."""
    return (max(gradings) - min(gradings) + 1) // 2 + 1 if gradings else 1


def power_reduction(gradings, columns, precision: int, graded: bool = True) -> FreeReduction:
    """One Smith reduction of a free F2[U]-complex modulo U^precision by
    `smith_pivots_u`.  With graded, each pivot U^v must pair gradings
    gr[row] - 2v = gr[col] - 1."""
    left = Counter(gradings)
    pairs = []
    for row, col, v in smith_pivots_u(columns, precision):
        if graded and gradings[row] - 2 * v != gradings[col] - 1:
            raise InvariantViolated("Smith pivot of a graded complex breaks the grading")
        left.subtract((gradings[row], gradings[col]))
        pairs.append((gradings[row], gradings[col], v))
    towers = tuple(sorted(left.elements())) if graded else ()
    return FreeReduction(len(gradings), tuple(pairs), towers, precision, graded)


def oracle_plus_reductions(c: KnotComplex, s: int, precision: int | None = None):
    """Reductions of A_s, B and the cones of v, h and v + h modulo U^precision,
    on the full complexes with every U-power written out, with no unit arrow
    cancelled first; in auto mode the cone of v + h is reduced once at its
    minor-degree bound (`linalg._minor_degree_bound`), above every one of its
    pivots, and the other four at one above the largest of them."""
    a, b = power_plus_complex(c, s), power_plus_complex(c)
    v, h = power_maps(c, s, a, b, precision)
    vh = [{r: x for r in cv.keys() | ch.keys() if (x := cv.get(r, 0) ^ ch.get(r, 0))}
          for cv, ch in zip(v, h)]
    (gv, cv), (gh, ch), (gvh, cvh) = (power_cone(a, b, f) for f in (v, h, vh))
    if precision is None:
        rvh = power_reduction(gvh, cvh, _minor_degree_bound(cvh, len(cvh) // 2), s == 0)
        precision = max([1] + [p for *_, p in rvh.pairs])
    else:
        rvh = power_reduction(gvh, cvh, precision, s == 0)
    return (power_reduction(a.gradings, a.columns, precision),
            power_reduction(b.gradings, b.columns, precision),
            power_reduction(gv, cv, precision), power_reduction(gh, ch, precision, s == 0), rvh)


# ---------------------------------------------------------------------------
# the checks of A_s, B, v and h that `validate` implies, which the library
# made on every build before it relied on the implication (`subquotient`)


def _u_product(outer, inner) -> list:
    """outer o inner, F2[U] maps given by their columns {row: U-power bitmask}."""
    out = []
    for col in inner:
        acc: dict[int, int] = {}
        for mid, e in col.items():
            for row, e2 in outer[mid].items():
                x = acc.pop(row, 0) ^ _clmul(e2, e)
                if x:
                    acc[row] = x
        out.append(acc)
    return out


def checked_free_model(c: KnotComplex, s: int) -> tuple:
    """The gradings of A_s and B and the column masks of d_A, d_B, v and h,
    built from the terms with every U-power written out and checked: each
    power >= 0 and of the grading its mask stands for (`power_columns`,
    InvariantViolated), d^2 = 0 (CompositionNonzero), and v and h chain
    maps (NotAChainMap), both over F2[U] by `_u_product`."""
    a, b = power_plus_complex(c, s), power_plus_complex(c)
    for free in (a, b):
        if any(_u_product(free.columns, free.columns)):
            raise CompositionNonzero("F2[U] differential does not square to zero")
    maps = power_maps(c, s, a, b, None)
    for f in maps:
        if _u_product(f, a.columns) != _u_product(b.columns, f):
            raise NotAChainMap("F2[U] map does not commute with the differentials")
    masks = (tuple(sum(1 << r for r in col) for col in f) for f in (a.columns, b.columns, *maps))
    return (a.gradings, b.gradings, *masks)


# ---------------------------------------------------------------------------
# the parser, with a Fraction per generator


_ORACLE_COMPLEX_RE = re.compile(r"^complex\s+(\S+)\s+spinc=(\S+)$")
_ORACLE_GEN_RE = re.compile(r"^gen\s+(\S+)\s+A=(-?\d+)\s+M=(-?\d+(?:/\d*[1-9]\d*)?)$")
_ORACLE_LINE_RE = re.compile(r"^(d|flip)\s+(\S+)\s*:\s*(.+)$")
_ORACLE_TERM_RE = re.compile(r"^U\^(-?\d+)\s+(\S+)$")


def oracle_parse(text: str) -> InputDocument:
    """`io_format.parse` as it read each input before it made one Fraction
    per distinct M= text: a Fraction per generator, a group call per field."""
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
            m = _ORACLE_COMPLEX_RE.match(line)
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
            m = _ORACLE_GEN_RE.match(line)
            if not m:
                raise ParseError(line_no, "expected: gen <name> A=<int> M=<int or p/q, q > 0>")
            gens.append(Generator(m.group(1), int(m.group(2)), Fraction(m.group(3))))
        elif head in ("d", "flip"):
            m = _ORACLE_LINE_RE.match(line)
            if not m:
                raise ParseError(line_no, f"expected: {head} <src> : U^<n> <dst>[, ...]")
            src, rest = m.group(2), m.group(3)
            for chunk in rest.split(","):
                t = _ORACLE_TERM_RE.match(chunk.strip())
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


# ---------------------------------------------------------------------------
# validation on name-keyed term maps


def _term_map(terms) -> dict:
    """(source -> target -> frozenset of U-powers with odd multiplicity)."""
    acc: dict[str, dict[str, set]] = {}
    for t in terms:
        powers = acc.setdefault(t.source, {}).setdefault(t.target, set())
        if t.u_power in powers:
            powers.discard(t.u_power)
        else:
            powers.add(t.u_power)
    return {
        src: {tgt: frozenset(p) for tgt, p in tgts.items() if p}
        for src, tgts in acc.items()
    }


def _compose(outer: dict, inner: dict) -> dict:
    """Formal composition of U-power term maps over F2[U, U^-1]."""
    acc: dict[str, dict[str, set]] = {}
    for src, mids in inner.items():
        for mid, inner_powers in mids.items():
            for tgt, outer_powers in outer.get(mid, {}).items():
                sink = acc.setdefault(src, {}).setdefault(tgt, set())
                for p1 in inner_powers:
                    for p2 in outer_powers:
                        n = p1 + p2
                        if n in sink:
                            sink.discard(n)
                        else:
                            sink.add(n)
    return {
        src: {tgt: frozenset(p) for tgt, p in tgts.items() if p}
        for src, tgts in acc.items()
    }


def _maps_equal(a: dict, b: dict) -> bool:
    keys = set(a) | set(b)
    for k in keys:
        ta, tb = a.get(k, {}), b.get(k, {})
        if set(ta) != set(tb):
            return False
        for t in ta:
            if ta[t] != tb[t]:
                return False
    return True


def differential_map(c: KnotComplex) -> dict:
    return _term_map(c.differential)


def flip_map(c: KnotComplex) -> dict:
    return _term_map(c.flip or ())



def oracle_validate(c: KnotComplex) -> ValidationReport:
    """`validate` on name-keyed term maps; raises KeyError on a flip term
    that names an undeclared generator."""
    bad: list[Violation] = []
    names = [g.name for g in c.generators]
    by_name = {}
    for g in c.generators:
        if g.name in by_name:
            bad.append(Violation("duplicate-name", g.name, "generator name reused"))
        by_name[g.name] = g
    if len(set(names)) != len(names):
        # containers keyed by name are unreliable; stop before deriving more
        return ValidationReport(tuple(bad))

    split = c._int_maslov
    if split is None:
        bad.append(Violation(
            "maslov-offset", "gradings",
            "Maslov gradings of one Spin^c structure must all differ by integers"))
    # the int gradings M - offset; the Maslov checks need them
    grade = dict(zip(names, split[1])) if split is not None else None

    def known(term, role) -> bool:
        ok = True
        for who in (term.source, term.target):
            if who not in by_name:
                bad.append(Violation("unknown-generator", f"{role} {term.source}->{term.target}", f"no generator named {who!r}"))
                ok = False
        return ok

    seen_terms = set()
    for t in c.differential:
        if not known(t, "d"):
            continue
        key = (t.source, t.target, t.u_power)
        label = f"d {t.source} -> U^{t.u_power} {t.target}"
        if key in seen_terms:
            bad.append(Violation("duplicate-term", label, "term listed twice"))
        seen_terms.add(key)
        src, tgt = by_name[t.source], by_name[t.target]
        if t.u_power < 0:
            bad.append(Violation("negative-u-power", label, "differential U-powers must be >= 0"))
        if t.u_power < tgt.alexander - src.alexander:
            bad.append(Violation(
                "filtration", label,
                f"U-power {t.u_power} < A(target) - A(source) = {tgt.alexander - src.alexander}"))
        if grade is not None and grade[t.target] - 2 * t.u_power != grade[t.source] - 1:
            bad.append(Violation(
                "maslov-drop", label,
                f"M(target) - 2n = {tgt.maslov - 2 * t.u_power}, expected M(source) - 1 = {src.maslov - 1}"))

    d = differential_map(c)
    dd = _compose(d, d)
    for src in sorted(dd):
        for tgt in sorted(dd[src]):
            for n in sorted(dd[src][tgt]):
                bad.append(Violation("d-squared", f"{src} -> U^{n} {tgt}", "d o d has this odd term"))

    if c.flip is not None:
        seen_flip = set()
        for t in c.flip:
            if not known(t, "flip"):
                continue
            key = (t.source, t.target, t.u_power)
            label = f"flip {t.source} -> U^{t.u_power} {t.target}"
            if key in seen_flip:
                bad.append(Violation("duplicate-term", label, "term listed twice"))
            seen_flip.add(key)
            src, tgt = by_name[t.source], by_name[t.target]
            if t.u_power != -src.alexander:
                bad.append(Violation(
                    "flip-term", label,
                    f"U-power must be -A(source) = {-src.alexander} to exchange coordinates"))
            if tgt.alexander != -src.alexander:
                bad.append(Violation(
                    "flip-term", label,
                    f"A(target) = {tgt.alexander}, expected -A(source) = {-src.alexander}"))
            if grade is not None and grade[t.target] != grade[t.source] - 2 * src.alexander:
                bad.append(Violation(
                    "flip-term", label,
                    f"M(target) = {tgt.maslov}, expected M(source) - 2A(source) = {src.maslov - 2 * src.alexander}"))

        phi = flip_map(c)
        index = {n: k for k, n in enumerate(names)}
        entries = []
        for src, tgts in phi.items():
            for tgt in tgts:
                entries.append((index[tgt], index[src]))
        mat = F2Matrix(len(names), len(names), frozenset(entries))
        if rank_f2(mat) != len(names):
            bad.append(Violation("flip-not-invertible", "flip", "generator matrix of the flip is singular"))
        if not _maps_equal(_compose(phi, d), _compose(d, phi)):
            bad.append(Violation("flip-chain-map", "flip", "flip does not commute with the differential"))

    return ValidationReport(tuple(bad))


# ---------------------------------------------------------------------------
# flip search that checks only full assignments


def _sigma_is_chain_map(c: KnotComplex, sigma: dict) -> bool:
    phi = _term_map(_flip_terms_of(c, sigma))
    d = differential_map(c)
    return _maps_equal(_compose(phi, d), _compose(d, phi))


def oracle_derive_flip(c: KnotComplex) -> KnotComplex:
    """The lexicographically first involution flip, by a search that tests
    phi d = d phi only at the leaves."""
    require_valid(c)
    if c.flip is not None:
        raise ValueError("flip already present")
    gens = c.generators  # in name order
    by_name = {g.name: g for g in gens}
    grade = {g.name: m for g, m in zip(gens, c._int_maslov[1])}

    def candidates(g: Generator) -> list:
        out = []
        for h in gens:
            if h.alexander == -g.alexander and grade[h.name] == grade[g.name] - 2 * g.alexander:
                out.append(h.name)
        return out

    sigma: dict[str, str] = {}

    def search() -> bool:
        free = [g.name for g in gens if g.name not in sigma]
        if not free:
            return _sigma_is_chain_map(c, sigma)
        g = by_name[free[0]]
        for h in candidates(g):
            if h != g.name and h in sigma:
                continue
            sigma[g.name] = h
            sigma[h] = g.name
            if search():
                return True
            del sigma[g.name]
            if h != g.name:
                del sigma[h]
        return False

    if not search():
        raise NoFlipFound(f"no involution flip exists for complex {c.spinc_label!r}")
    out = replace(c, flip=_flip_terms_of(c, sigma))
    require_valid(out)
    return out


def oracle_enumerate_flips(c: KnotComplex) -> list:
    """Every valid flip bijection, by testing each element of the product
    of the grading candidate lists."""
    require_valid(c)
    gens = c.generators  # in name order
    grade = c._int_maslov[1]
    pools = []
    for g, m in zip(gens, grade):
        pool = [
            h.name for h, mh in zip(gens, grade)
            if h.alexander == -g.alexander and mh == m - 2 * g.alexander
        ]
        pools.append(pool)
    found = []
    for choice in itertools.product(*pools):
        if len(set(choice)) != len(choice):
            continue
        sigma = {g.name: h for g, h in zip(gens, choice)}
        if _sigma_is_chain_map(c, sigma):
            found.append(_flip_terms_of(c, sigma))
    return found
