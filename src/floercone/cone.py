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
    GradedUModule,
    SubquotientComplex,
    build_A_hat,
    build_B_hat,
    build_plus_truncated,
    _artifact_cutoff,
    graded_homology_dims,
    stabilize,
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


def _build_v_plus(a: SubquotientComplex, b: SubquotientComplex) -> ChainMapF2:
    tindex = b.index()
    entries = []
    for col, e in enumerate(a.basis):
        row = tindex.get((e.generator, e.i))
        if row is not None and e.i >= 0:
            entries.append((row, col))
    return make_chain_map(a, b, F2Matrix.from_entries(b.dim, a.dim, entries))


def _build_h_plus(c: KnotComplex, s: int, a: SubquotientComplex,
                  b: SubquotientComplex) -> ChainMapF2:
    if c.flip is None:
        raise FlipMissing("complex has no flip map; derive or supply one")
    tindex = b.index()
    phi = flip_map(c)
    entries = []
    for col, e in enumerate(a.basis):
        j = e.i + c.alexander(e.generator)
        if j < s:
            continue
        for target_name in phi.get(e.generator, ()):
            row = tindex.get((target_name, j - s))
            if row is None:
                raise InvariantViolated("h image left the truncated region")
            entries.append((row, col))
    return make_chain_map(a, b, F2Matrix.from_entries(b.dim, a.dim, entries))


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


def _assemble(c: KnotComplex, s: int, flavor: str, a, b, v: ChainMapF2, h: ChainMapF2,
              graded: dict | None, truncation: int | None) -> ConeResult:
    f = v.matrix.add(h.matrix)
    vh = make_chain_map(a, b, f)
    rank_vh = induced_rank(vh)
    total, _ = _cone_parts(a, b, f)
    rk = rank_f2(total)
    total_dim = (a.dim + b.dim) - 2 * rk
    by_rank_nullity = a.homology_dim() + b.homology_dim() - 2 * rank_vh
    if total_dim != by_rank_nullity:
        raise InvariantViolated("rank-nullity identity violated")
    return ConeResult(
        s=s,
        flavor=flavor,
        total_dim=total_dim,
        rank_v=induced_rank(v),
        rank_h=induced_rank(h),
        rank_v_plus_h=rank_vh,
        graded_dims=graded,
        truncation=truncation,
    )


def cone_homology_hat(c: KnotComplex, s: int) -> ConeResult:
    """Homology of the cone of v_s + h_s on the hat subquotients."""
    c = ensure_flip(c)
    v = build_v_hat(c, s)
    h = build_h_hat(c, s)
    a, b = v.source, v.target
    graded = None
    if s == 0:
        total, maslovs = _cone_parts(a, b, v.matrix.add(h.matrix))
        graded = graded_homology_dims(maslovs, total)
    return _assemble(c, s, "hat", a, b, v, h, graded, None)


def _plus_data(c: KnotComplex, s: int, n: int):
    a, ua = build_plus_truncated(c, "A", n, s)
    b, ub = build_plus_truncated(c, "B", n)
    v = _build_v_plus(a, b)
    h = _build_h_plus(c, s, a, b)
    return a, b, ua, ub, v, h


def _plus_socle(c: KnotComplex, s: int, n: int) -> dict:
    """Stable bottoms of the truncated plus cone: ker(U) below the artifact line.

    Every class of the truncated module is killed by some U power, so the
    U-torsion part that survives as the truncation grows is read off as the
    per-grading kernel of U, ignoring gradings above the artifact cutoff
    (where chopped-off tower tops accumulate).
    """
    a, b, ua, ub, v, h = _plus_data(c, s, n)
    f = v.matrix.add(h.matrix)
    total, maslovs = _cone_parts(a, b, f)
    na = a.dim
    u_columns = ua.matrix.column_masks() + tuple(m << na for m in ub.matrix.column_masks())
    u_total = F2Matrix._from_masks(total.rows, total.cols, u_columns)
    if u_total.mul(total) != total.mul(u_total):
        raise NotAChainMap("U does not commute with the cone differential")
    module = GradedUModule(maslovs, total, u_total)
    return module.socle_dims(_artifact_cutoff(c, n))


def _plus_total(c: KnotComplex, s: int, n: int) -> int:
    a, b, _, _, v, h = _plus_data(c, s, n)
    total, _ = _cone_parts(a, b, v.matrix.add(h.matrix))
    return (a.dim + b.dim) - 2 * rank_f2(total)


def cone_homology_plus_truncated(c: KnotComplex, s: int, truncation="auto") -> ConeResult:
    """Cone of the truncated plus-flavor maps.

    With truncation "auto" the height is raised until the reported data
    stabilizes: at s = 0 the graded U-torsion part (see ConeResult
    graded_dims), otherwise the total dimension.  An explicit integer
    truncation skips stabilization.  total_dim always refers to the
    truncated complex at the reported height and grows with it whenever
    the cone carries U-towers.
    """
    c = ensure_flip(c)
    if truncation == "auto":
        if s == 0:
            graded, n = stabilize(c, lambda k: _plus_socle(c, s, k))
        else:
            _, n = stabilize(c, lambda k: _plus_total(c, s, k))
            graded = None
    else:
        n = int(truncation)
        if n < 0:
            raise ValueError("truncation must be >= 0")
        graded = _plus_socle(c, s, n) if s == 0 else None
    a, b, _, _, v, h = _plus_data(c, s, n)
    return _assemble(c, s, "plus", a, b, v, h, graded, n)
