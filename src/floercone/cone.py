"""Mapping cones computing the Floer homology of 0-surgery.

For each integer s the complex A_s (hat or truncated plus flavor) maps to
the corresponding B complex by two chain maps: v projects to the i = 0
part, h projects to the j = s part and carries it to B through U^s and
the flip.  The cone of v + h computes the surgery group in the Spin^c
structure labeled s.

Only relative gradings are exposed: the B summand of a cone sits one
degree below the A summand, and the A summand keeps the Maslov grading
of the model.  Graded output is reported for s = 0 only, where v and h
shift gradings equally; for s != 0 the two shifts differ and only the
total dimension is well defined without extra normalization.

In the hat flavor v and h are GF(2) matrices.  In the plus flavor they
are F2[U] maps between the free models of A_s and B (see `subquotient`);
A_s, B and the cones of v, h and v + h are each reduced once, every
truncation height is read off the pivots, and the rank of f_* follows
from dim H(cone f) = dim H(A) + dim H(B) - 2 rank f_*.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from floercone.linalg import (
    F2Matrix,
    InvariantViolated,
    NotAChainMap,
    kernel_basis_f2,
    rank_f2,
    rank_f2_modulo,
    vector_mask,
)
from floercone.model import KnotComplex, derive_flip, flip_map, require_valid
from floercone.subquotient import (
    FreeReduction,
    FreeUComplex,
    SubquotientComplex,
    _artifact_cutoff,
    build_A_hat,
    build_B_hat,
    free_chain_map,
    free_plus_complex,
    graded_homology_dims,
    reduce_free,
    stabilize,
    truncation_cap,
)


class FlipMissing(Exception):
    """The operation needs a flip map and the complex has none."""


def ensure_flip(c: KnotComplex) -> KnotComplex:
    require_valid(c)
    return c if c.flip is not None else derive_flip(c)


@dataclass(frozen=True)
class ChainMapF2:
    source: SubquotientComplex
    target: SubquotientComplex
    matrix: F2Matrix
    maslov_shift: Fraction | None


def make_chain_map(source: SubquotientComplex, target: SubquotientComplex,
                   matrix: F2Matrix) -> ChainMapF2:
    """Wrap a matrix as a chain map, verifying commutation with differentials."""
    if matrix.rows != target.dim or matrix.cols != source.dim:
        raise ValueError("matrix shape does not match source/target")
    if matrix.mul(source.differential) != target.differential.mul(matrix):
        raise NotAChainMap("matrix does not commute with the differentials")
    return ChainMapF2(source, target, matrix, _maslov_shift(source, target, matrix))


def _maslov_shift(source: SubquotientComplex, target: SubquotientComplex,
                  matrix: F2Matrix) -> Fraction | None:
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
    return Fraction(0) if shift is None else shift


def induced_rank(cm: ChainMapF2) -> int:
    """Rank of the induced map on homology.

    Lifts a homology basis of the source to cycles, maps them, and counts
    images that stay independent modulo boundaries of the target.
    """
    cycles = kernel_basis_f2(cm.source.differential)
    images = [cm.matrix.apply(vector_mask(z)) for z in cycles]
    return rank_f2_modulo(images, cm.target.differential.column_masks())


def induces_iso(cm: ChainMapF2) -> bool:
    r = induced_rank(cm)
    return r == cm.source.homology_dim() == cm.target.homology_dim()


def build_v_hat(c: KnotComplex, s: int) -> ChainMapF2:
    """Projection of A_s onto the i = 0 part of B."""
    src = build_A_hat(c, s)
    tgt = build_B_hat(c)
    tindex = tgt.index()
    entries = []
    for col, e in enumerate(src.basis):
        if e.i == 0:
            entries.append((tindex[(e.generator, 0)], col))
    return make_chain_map(src, tgt, F2Matrix.from_entries(tgt.dim, src.dim, entries))


def build_h_hat(c: KnotComplex, s: int) -> ChainMapF2:
    """Projection of A_s onto the j = s part, carried to B by U^s and the flip."""
    require_valid(c)
    if c.flip is None:
        raise FlipMissing("complex has no flip map; derive or supply one")
    src = build_A_hat(c, s)
    tgt = build_B_hat(c)
    tindex = tgt.index()
    phi = flip_map(c)
    entries = []
    for col, e in enumerate(src.basis):
        if e.i + c.alexander(e.generator) != s:
            continue
        for target_name in phi.get(e.generator, ()):
            entries.append((tindex[(target_name, 0)], col))
    return make_chain_map(src, tgt, F2Matrix.from_entries(tgt.dim, src.dim, entries))


def project_A(c: KnotComplex, s: int, s_prime: int) -> ChainMapF2:
    """The projection A_s -> A_{s'} through which v_s factors, for s <= s'.

    Identity on the plane elements the two bases share (the generators
    with A <= s), zero on the rest; v_s = v_{s'} composed with this map.
    """
    if s > s_prime:
        raise ValueError("requires s <= s'")
    src = build_A_hat(c, s)
    tgt = build_A_hat(c, s_prime)
    tindex = tgt.index()
    entries = []
    for col, e in enumerate(src.basis):
        row = tindex.get((e.generator, e.i))
        if row is not None:
            entries.append((row, col))
    return make_chain_map(src, tgt, F2Matrix.from_entries(tgt.dim, src.dim, entries))


@dataclass(frozen=True)
class ConeResult:
    s: int
    flavor: str
    total_dim: int
    rank_v: int
    rank_h: int
    rank_v_plus_h: int
    graded_dims: dict | None
    truncation: int | None = None


def _cone_parts(a: SubquotientComplex, b: SubquotientComplex, f: F2Matrix):
    """Total differential and gradings of the cone of f : a -> b."""
    na, n = a.dim, a.dim + b.dim
    columns = [da | fm << na for da, fm in zip(a.differential.column_masks(), f.column_masks())]
    columns += [db << na for db in b.differential.column_masks()]
    total = F2Matrix._from_masks(n, n, tuple(columns))
    maslovs = list(a.maslov) + [m - 1 for m in b.maslov]
    return total, maslovs


def cone_homology_hat(c: KnotComplex, s: int) -> ConeResult:
    """Homology of the cone of v_s + h_s on the hat subquotients."""
    c = ensure_flip(c)
    v = build_v_hat(c, s)
    h = build_h_hat(c, s)
    a, b = v.source, v.target
    vh = make_chain_map(a, b, v.matrix.add(h.matrix))
    total, maslovs = _cone_parts(a, b, vh.matrix)
    total_dim = (a.dim + b.dim) - 2 * rank_f2(total)
    rank_vh = induced_rank(vh)
    if total_dim != a.homology_dim() + b.homology_dim() - 2 * rank_vh:
        raise InvariantViolated("rank-nullity identity violated")
    graded = graded_homology_dims(maslovs, total) if s == 0 else None
    return ConeResult(s, "hat", total_dim, induced_rank(v), induced_rank(h), rank_vh, graded)


def _free_cone(a: FreeUComplex, b: FreeUComplex, f, precision: int, graded: bool) -> FreeReduction:
    """Reduction of the cone of f : A -> B, with B one degree below A."""
    na = len(a.gradings)
    columns = [{**da, **{na + r: e for r, e in fa.items()}} for da, fa in zip(a.columns, f)]
    columns += [{na + r: e for r, e in db.items()} for db in b.columns]
    gradings = a.gradings + tuple(g - 1 for g in b.gradings)
    return reduce_free(gradings, columns, precision, graded)


def _plus_reductions(c: KnotComplex, s: int, precision: int):
    """Reductions of A_s, B and the cones of v, h and v + h modulo U^precision.

    v sends y_g to U^(-lo(g)) x_g and h sends it to U^max(0, s - A(g)) x_t
    per flip target t; h lowers gradings by 2s: its cones are graded at s = 0.
    """
    a, b = free_plus_complex(c, s), free_plus_complex(c)
    index = {g.name: k for k, g in enumerate(c.generators)}
    phi = flip_map(c)
    v = free_chain_map(a, b, [(k, k, -low) for k, low in enumerate(a.lo)], 0)
    h_terms = [(k, index[t], max(0, s - g.alexander))
               for k, g in enumerate(c.generators) for t in phi.get(g.name, ())]
    h = free_chain_map(a, b, h_terms, -2 * s)
    vh = [{r: x for r in cv.keys() | ch.keys() if (x := cv.get(r, 0) ^ ch.get(r, 0))}
          for cv, ch in zip(v, h)]
    return (reduce_free(a.gradings, a.columns, precision),
            reduce_free(b.gradings, b.columns, precision),
            _free_cone(a, b, v, precision, True),
            _free_cone(a, b, h, precision, s == 0),
            _free_cone(a, b, vh, precision, s == 0))


def _induced_rank(ra: FreeReduction, rb: FreeReduction, cone: FreeReduction, n: int) -> int:
    """Rank of f_* at height n, from dim H(cone f) = dim H(A) + dim H(B) - 2 rank."""
    ha, hb = ra.homology_dim(n), rb.homology_dim(n)
    twice = ha + hb - cone.homology_dim(n)
    if twice % 2 or not 0 <= twice <= 2 * min(ha, hb):
        raise InvariantViolated("cone dimension gives no valid rank for the induced map")
    return twice // 2


def cone_homology_plus_truncated(c: KnotComplex, s: int, truncation="auto") -> ConeResult:
    """Cone of the truncated plus-flavor maps.

    With truncation "auto" the height is raised until the reported data
    stabilizes: at s = 0 the graded U-torsion part (see ConeResult
    graded_dims), otherwise the total dimension.  An explicit integer
    truncation skips stabilization.  total_dim always refers to the
    truncated complex at the reported height and grows with it whenever
    the cone carries U-towers.  Every height is read off the same reductions.
    """
    c = ensure_flip(c)
    if truncation == "auto":
        precision = truncation_cap(c) + 2
    else:
        n = int(truncation)
        if n < 0:
            raise ValueError("truncation must be >= 0")
        precision = n + 2
    ra, rb, rv, rh, rvh = _plus_reductions(c, s, precision)

    def socle(k: int) -> dict:  # ker(U) below the line of chopped-off tower tops
        return rvh.module(k).socle_dims(_artifact_cutoff(c, k))

    if truncation != "auto":
        graded = socle(n) if s == 0 else None
    elif s == 0:
        graded, n = stabilize(c, socle)
    else:
        graded, n = None, stabilize(c, rvh.homology_dim)[1]
    return ConeResult(s, "plus", rvh.homology_dim(n), _induced_rank(ra, rb, rv, n),
                      _induced_rank(ra, rb, rh, n), _induced_rank(ra, rb, rvh, n), graded, n)
