"""Independent slow-path implementations used to cross-check the library.

Everything here recomputes results from first principles with deliberately
different machinery: dense list-of-list Gaussian elimination instead of
bitmask sets, direct assembly of cone differentials from the plane-level
definitions instead of the v/h chain-map objects, rank over the fraction
field via evaluation at points of GF(2^8) instead of Smith pivots over
F2[[T]], the hat complexes and maps from plane-element regions
instead of the free F2[U] model read modulo U, the plus flavor from
truncated GF(2) complexes with an explicit U matrix, decomposed through
cycle representatives, instead of the free F2[U] model's Smith pivots,
those pivots by a scan of every entry per pivot instead of a heap, and
plus-flavor auto mode by raising the height until two heights agree
instead of reading every answer off the pivots at a proven precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from floercone.cone import (
    ConeResult,
    _cone_parts,
    _induced_rank,
    _plus_reductions,
    ensure_flip,
    induced_rank,
    make_chain_map,
)
from floercone.linalg import (
    F2Matrix,
    InvariantViolated,
    NotAChainMap,
    _clmul,
    kernel_basis_f2,
    rank_f2,
    submatrix,
    vector_mask,
)
from floercone.model import KnotComplex, PlaneElement, flip_map, require_valid
from floercone.subquotient import (
    SubquotientComplex,
    _artifact_cutoff,
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
# plane-level differential and flip, straight from the defining data


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
            image = self._u.apply(mask)
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
    return module.reduced_dims(_artifact_cutoff(c, n))


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
    vh = make_chain_map(a, b, v.matrix.add(h.matrix))
    total, maslovs = _cone_parts(a, b, vh.matrix)
    total_dim = a.dim + b.dim - 2 * rank_f2(total)
    rank_vh = induced_rank(vh)
    assert total_dim == a.homology_dim() + b.homology_dim() - 2 * rank_vh
    graded = None
    if s == 0:
        na = a.dim
        u_columns = ua.matrix.column_masks() + tuple(m << na for m in ub.matrix.column_masks())
        u_total = F2Matrix._from_masks(total.rows, total.cols, u_columns)
        assert u_total.mul(total) == total.mul(u_total)
        module = GradedUModule(maslovs, total, u_total)
        graded = module.socle_dims(_artifact_cutoff(c, n))
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


def _reduced_part(c: KnotComplex, precision: int):
    """Reduced part of B as a function of the height, from one reduction."""
    b = free_plus_complex(c)
    reduction = reduce_free(b.gradings, b.columns, precision)
    return lambda n: _reduced_dims(reduction.module(n), _artifact_cutoff(c, n))


def reduced_part_at(c: KnotComplex, n: int) -> dict:
    return _reduced_part(c, n + 2)(n)


def stabilized_hf_red_graded(c: KnotComplex, start_n: int | None = None) -> dict:
    """Graded dimensions of the finite (U-torsion) part of plus-flavor homology,
    read off one reduction of B at heights N until two consecutive agree."""
    require_valid(c)
    result, _ = stabilize(c, _reduced_part(c, truncation_cap(c) + 2), start_n)
    return result


def stabilized_cone_plus(c: KnotComplex, s: int) -> ConeResult:
    """The plus cone with truncation "auto": the height is raised until the
    reported data stabilizes, at s = 0 the socle below the artifact cutoff,
    otherwise the total dimension."""
    c = ensure_flip(c)
    precision = truncation_cap(c) + 2
    ra, rb, rv, rh, rvh = _plus_reductions(c, s, precision)

    def socle(k: int) -> dict:  # ker(U) below the line of chopped-off tower tops
        return rvh.module(k).socle_dims(_artifact_cutoff(c, k))

    if s == 0:
        graded, n = stabilize(c, socle)
    else:
        graded, n = None, stabilize(c, rvh.homology_dim)[1]
    return ConeResult(s, "plus", rvh.homology_dim(n), _induced_rank(ra, rb, rv, n),
                      _induced_rank(ra, rb, rh, n), _induced_rank(ra, rb, rvh, n), graded, n)
