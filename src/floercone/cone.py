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

Both flavors start from one construction: v and h are F2[U] maps
between the free models of A_s and B (see `subquotient`), built and
checked once modulo U^P, P the precision, so that no U^|s| is written
out and every builder stays bounded in |s|.  The hat flavor (P = 1)
reads them as GF(2) matrices.  In the plus flavor A_s, B and the cones
of v, h and v + h are each reduced once, every truncation height is read
off the pivots, and the rank of f_* follows from
dim H(cone f) = dim H(A) + dim H(B) - 2 rank f_*.  In auto mode the
precision provably exceeds every pivot of the cone of v + h, so its towers
and blocks U^v, and with them its homology at every height, are read off
in closed form (`_plus_reductions`, `cone_homology_plus_truncated`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from floercone.linalg import (
    F2Matrix,
    InvariantViolated,
    NotAChainMap,
    _minor_degree_bound,
    kernel_basis_f2,
    rank_f2,
    rank_f2_modulo,
    smith_pivots_u,
    vector_mask,
)
from floercone.model import KnotComplex, derive_flip, flip_map, require_valid
from floercone.subquotient import (
    FreeReduction,
    FreeUComplex,
    SubquotientComplex,
    _artifact_cutoff,
    _graded_precision,
    _hat_view,
    _mod_u,
    build_A_hat,
    free_chain_map,
    free_plus_complex,
    graded_homology_dims,
    reduce_free,
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


def _v_map(a: FreeUComplex, b: FreeUComplex, precision: int) -> tuple:
    """v : A_s -> B sends y_g to U^(-lo(g)) x_g."""
    return free_chain_map(a, b, [(k, k, -low) for k, low in enumerate(a.lo)], 0, precision)


def _h_map(c: KnotComplex, s: int, a: FreeUComplex, b: FreeUComplex, precision: int) -> tuple:
    """h : A_s -> B sends y_g to U^max(0, s - A(g)) x_t per flip target t;
    it lowers gradings by 2s."""
    index = {g.name: k for k, g in enumerate(c.generators)}
    phi = flip_map(c)
    terms = [(k, index[t], max(0, s - g.alexander))
             for k, g in enumerate(c.generators) for t in phi.get(g.name, ())]
    return free_chain_map(a, b, terms, -2 * s, precision)


def _hat_map(a: SubquotientComplex, b: SubquotientComplex, f, degree: int) -> ChainMapF2:
    """The F2[U] map f modulo U; a zero map has degree 0."""
    matrix = _mod_u(f, b.dim)
    return ChainMapF2(a, b, matrix, Fraction(0 if matrix.is_zero() else degree))


def _hat_maps(c: KnotComplex, s: int) -> tuple:
    """v and h on one build of A_s and B: v projects A_s onto the i = 0 part
    of B, h projects it onto the j = s part and carries it to B by U^s and
    the flip."""
    a, b = free_plus_complex(c, s), free_plus_complex(c)
    if c.flip is None:
        raise FlipMissing("complex has no flip map; derive or supply one")
    a_hat, b_hat = _hat_view(c, a), _hat_view(c, b)
    return (_hat_map(a_hat, b_hat, _v_map(a, b, 1), 0),
            _hat_map(a_hat, b_hat, _h_map(c, s, a, b, 1), -2 * s))


def build_v_hat(c: KnotComplex, s: int) -> ChainMapF2:
    """Projection of A_s onto the i = 0 part of B."""
    a, b = free_plus_complex(c, s), free_plus_complex(c)
    return _hat_map(_hat_view(c, a), _hat_view(c, b), _v_map(a, b, 1), 0)


def project_A(c: KnotComplex, s: int, s_prime: int) -> ChainMapF2:
    """The projection A_s -> A_{s'} through which v_s factors, for s <= s'.

    Identity on the plane elements the two bases share (the generators
    with A <= s), zero on the rest; v_s = v_{s'} composed with this map.
    """
    if s > s_prime:
        raise ValueError("requires s <= s'")
    src = build_A_hat(c, s)
    tgt = build_A_hat(c, s_prime)
    tindex = {(e.generator, e.i): k for k, e in enumerate(tgt.basis)}
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
    v, h = _hat_maps(c, s)
    a, b = v.source, v.target
    vh = make_chain_map(a, b, v.matrix.add(h.matrix))
    total, maslovs = _cone_parts(a, b, vh.matrix)
    total_dim = (a.dim + b.dim) - 2 * rank_f2(total)
    rank_vh = induced_rank(vh)
    if total_dim != a.homology_dim() + b.homology_dim() - 2 * rank_vh:
        raise InvariantViolated("rank-nullity identity violated")
    graded = graded_homology_dims(maslovs, total) if s == 0 else None
    return ConeResult(s, "hat", total_dim, induced_rank(v), induced_rank(h), rank_vh, graded)


def _free_cone(a: FreeUComplex, b: FreeUComplex, f) -> tuple:
    """Gradings and columns of the cone of f : A -> B, with B one degree below A."""
    na = len(a.gradings)
    columns = [{**da, **{na + r: e for r, e in fa.items()}} for da, fa in zip(a.columns, f)]
    columns += [{na + r: e for r, e in db.items()} for db in b.columns]
    return a.gradings + tuple(g - 1 for g in b.gradings), columns


def _plus_reductions(c: KnotComplex, s: int, precision: int | None = None):
    """Reductions of A_s, B and the cones of v, h and v + h modulo U^precision;
    h lowers gradings by 2s, so its cones are graded at s = 0 only.

    Without a precision, P is one above every pivot of the cone of v + h:
    - s = 0: the cone is graded, and `_graded_precision` bounds its pivots.
    - 0 < |s| <= a_bound: every U-power of v and h is at most 2 a_bound, so
      the maps are built exactly, modulo U^(2 a_bound + 1).  The m x m cone
      differential D has D^2 = 0, so it has at most m / 2 invariant factors;
      a reduction that finds m / 2 pivots modulo U^P has found them all, each
      below P.  So P is first the cheap grading bound plus |s|, and where that
      finds fewer, the minor-degree bound of `linalg._minor_degree_bound`,
      which is above every invariant factor (if it finds fewer too, the cone
      has a U-tower).
    - |s| > a_bound: v + h is the identity (s > 0) or the flip (s < 0)
      modulo U, so the cone is acyclic modulo U and every pivot is a unit:
      P = 1, and no U^|s| is written out.
    """
    a, b = free_plus_complex(c, s), free_plus_complex(c)
    far = abs(s) > c.a_bound()
    build = (1 if far else 2 * c.a_bound() + 1) if precision is None else precision
    v, h = _v_map(a, b, build), _h_map(c, s, a, b, build)
    vh = [{r: x for r in cv.keys() | ch.keys() if (x := cv.get(r, 0) ^ ch.get(r, 0))}
          for cv, ch in zip(v, h)]
    cones = [_free_cone(a, b, f) for f in (v, h, vh)]
    if precision is None:
        gradings, columns = cones[2]
        precision = 1 if far else _graded_precision(gradings) + abs(s)
        if s and not far and 2 * len(smith_pivots_u(columns, precision)) != len(columns):
            precision = _minor_degree_bound(columns, len(columns) // 2)
    return (reduce_free(a.gradings, a.columns, precision),
            reduce_free(b.gradings, b.columns, precision),
            *(reduce_free(gr, cols, precision, graded) for (gr, cols), graded
              in zip(cones, (True, s == 0, s == 0))))


def _induced_rank(ra: FreeReduction, rb: FreeReduction, cone: FreeReduction, n: int) -> int:
    """Rank of f_* at height n, from dim H(cone f) = dim H(A) + dim H(B) - 2 rank."""
    ha, hb = ra.homology_dim(n), rb.homology_dim(n)
    twice = ha + hb - cone.homology_dim(n)
    if twice % 2 or not 0 <= twice <= 2 * min(ha, hb):
        raise InvariantViolated("cone dimension gives no valid rank for the induced map")
    return twice // 2


def cone_homology_plus_truncated(c: KnotComplex, s: int, truncation="auto") -> ConeResult:
    """Cone of the truncated plus-flavor maps at height n: total_dim counts
    the homology of the complex truncated at U^(n + 1), and grows with n
    whenever the cone carries U-towers.

    An explicit integer truncation is the height n; at s = 0 graded_dims is
    ker(U) below the line of `_artifact_cutoff`.  With "auto" the reductions
    at a precision above every pivot of the cone of v + h
    (`_plus_reductions`) give the answers in closed form:
    - s = 0: graded_dims is ker(U) at every large height, one per tower at
      its grading and one per pivot U^v, v >= 1, at its column's grading;
    - s != 0: the cone has no towers, which is checked (InvariantViolated
      otherwise), so total_dim is 2 sum(v), twice the HF^+ rank;
    - the reported height is the least one at which every block U^v of the
      cone of v + h is whole, max(1, largest v) - 1; total_dim at s = 0 and
      the three ranks are read there.
    """
    c = ensure_flip(c)
    if truncation == "auto":
        ra, rb, rv, rh, rvh = _plus_reductions(c, s)
        n = max([1] + [v for *_, v in rvh.pairs]) - 1
        if s != 0 and rvh.size != 2 * len(rvh.pairs):
            raise InvariantViolated(f"the plus cone at s = {s} has a U-tower")
        socle = Counter(rvh.towers + tuple(col for _, col, v in rvh.pairs if v))
        graded = dict(sorted(socle.items())) if s == 0 else None
    else:
        n = int(truncation)
        if n < 0:
            raise ValueError("truncation must be >= 0")
        ra, rb, rv, rh, rvh = _plus_reductions(c, s, n + 2)
        graded = rvh.module(n).socle_dims(_artifact_cutoff(c, n)) if s == 0 else None
    return ConeResult(s, "plus", rvh.homology_dim(n), _induced_rank(ra, rb, rv, n),
                      _induced_rank(ra, rb, rh, n), _induced_rank(ra, rb, rvh, n), graded, n)
