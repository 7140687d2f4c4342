"""Exact linear algebra over GF(2), over GF(2)[U]/U^P and over the Laurent
ring GF(2)[T, T^-1].

GF(2) matrices store one Python-int bitmask per column; products and
elimination run on those masks, so every computation is exact, and the set
of (row, col) positions equal to 1 is a view derived on request.  Laurent
polynomials are stored as (mask, low): bit k of the int mask is the
coefficient of T^(low + k), with the mask odd (or both zero), so sums are
shifted XORs, products are carry-less, and the set of exponents whose
coefficient is 1 is again a view derived on request.  The Laurent ring is
Euclidean once unit powers of T are stripped, which is what the Smith
reduction and the division steps rely on.  The one elimination kernel over
GF(2)[U]/U^P, `smith_pivots_u`, serves any power series ring in one
variable, so it also gives ranks over F2[[T]].

No floating point is used anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush


class CompositionNonzero(Exception):
    """Raised when d_out composed with d_in is not the zero map."""


class NotAChainMap(Exception):
    """A built map failed to commute with the differentials."""


class InvariantViolated(Exception):
    """A computed object broke an identity that the construction guarantees."""


def _mask_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def vector_mask(vec) -> int:
    """Pack an index set (or iterable of indices) into a bitmask."""
    out = 0
    for i in vec:
        out |= 1 << i
    return out


def _mask_rank(masks) -> int:
    pivots: dict[int, int] = {}
    rank = 0
    for m in masks:
        while m:
            lead = m.bit_length() - 1
            p = pivots.get(lead)
            if p is None:
                pivots[lead] = m
                rank += 1
                break
            m ^= p
    return rank


class F2Span:
    """Incremental GF(2) span of bitmask vectors, one stored vector per
    leading bit."""

    def __init__(self):
        self._pivots: dict[int, int] = {}
        self.size = 0

    def reduce(self, vec: int) -> int:
        """The residue of vec modulo the span; 0 when vec lies in it."""
        while vec:
            hit = self._pivots.get(vec.bit_length() - 1)
            if hit is None:
                return vec
            vec ^= hit
        return 0

    def add(self, vec: int) -> bool:
        """Add vec to the span; returns True if it was independent."""
        residue = self.reduce(vec)
        if residue == 0:
            return False
        self._pivots[residue.bit_length() - 1] = residue
        self.size += 1
        return True

    def contains(self, vec: int) -> bool:
        return self.reduce(vec) == 0


def _combine(masks, select: int) -> int:
    """XOR of masks[k] over the set bits k of select."""
    acc = 0
    while select:
        low = select & -select
        acc ^= masks[low.bit_length() - 1]
        select ^= low
    return acc


def _check_shape(rows: int, cols: int) -> None:
    if rows < 0 or cols < 0:
        raise ValueError("negative matrix dimensions")


def _cell(rows: int, cols: int, pos) -> tuple[int, int]:
    """(column, row bit) of a position, bounds-checked."""
    r, c = int(pos[0]), int(pos[1])
    if not (0 <= r < rows and 0 <= c < cols):
        raise ValueError(f"entry {(r, c)} outside {rows}x{cols} matrix")
    return c, 1 << r


@dataclass(frozen=True, init=False)
class F2Matrix:
    """GF(2) matrix stored as one bitmask per column.

    Bit r of column mask c is the entry (r, c).  The masks are one
    immutable tuple built at construction, and every operation reads it
    directly.  `entries`, the frozenset of (row, col) positions equal to 1,
    is derived from the masks on request and never stored.
    """

    rows: int
    cols: int
    _masks: tuple

    def __init__(self, rows: int, cols: int, entries=frozenset()):
        """Matrix with a 1 at each given (row, col) position; repeats are harmless."""
        _check_shape(rows, cols)
        masks = [0] * cols
        for pos in entries:
            c, bit = _cell(rows, cols, pos)
            masks[c] |= bit
        self._fill(rows, cols, tuple(masks))

    def _fill(self, rows: int, cols: int, masks: tuple) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_masks", masks)

    @classmethod
    def _from_masks(cls, rows: int, cols: int, masks: tuple) -> "F2Matrix":
        """Trusted constructor: masks is a tuple of cols ints below 2**rows."""
        m = object.__new__(cls)
        m._fill(rows, cols, masks)
        return m

    @classmethod
    def from_entries(cls, rows: int, cols: int, positions) -> "F2Matrix":
        """Strict constructor: a repeated position is an error, not a cancellation."""
        _check_shape(rows, cols)
        masks = [0] * cols
        for pos in positions:
            c, bit = _cell(rows, cols, pos)
            if masks[c] & bit:
                raise ValueError(f"duplicate position {(bit.bit_length() - 1, c)}")
            masks[c] |= bit
        return cls._from_masks(rows, cols, tuple(masks))

    @classmethod
    def from_toggles(cls, rows: int, cols: int, positions) -> "F2Matrix":
        """XOR-accumulating constructor: repeated positions cancel mod 2."""
        _check_shape(rows, cols)
        masks = [0] * cols
        for pos in positions:
            c, bit = _cell(rows, cols, pos)
            masks[c] ^= bit
        return cls._from_masks(rows, cols, tuple(masks))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "F2Matrix":
        _check_shape(rows, cols)
        return cls._from_masks(rows, cols, (0,) * cols)

    @classmethod
    def identity(cls, n: int) -> "F2Matrix":
        _check_shape(n, n)
        return cls._from_masks(n, n, tuple(1 << i for i in range(n)))

    @property
    def entries(self) -> frozenset:
        """The (row, col) positions equal to 1, derived from the column masks."""
        return frozenset(
            (r, c) for c, mask in enumerate(self._masks) for r in _mask_bits(mask))

    def entry(self, r: int, c: int) -> bool:
        return 0 <= r < self.rows and 0 <= c < self.cols and bool(self._masks[c] >> r & 1)

    def is_zero(self) -> bool:
        return not any(self._masks)

    def column_masks(self) -> tuple:
        return self._masks

    def row_masks(self) -> list[int]:
        out = [0] * self.rows
        for c, mask in enumerate(self._masks):
            for r in _mask_bits(mask):
                out[r] |= 1 << c
        return out

    def transpose(self) -> "F2Matrix":
        return F2Matrix._from_masks(self.cols, self.rows, tuple(self.row_masks()))

    def add(self, other: "F2Matrix") -> "F2Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        return F2Matrix._from_masks(
            self.rows, self.cols, tuple(a ^ b for a, b in zip(self._masks, other._masks)))

    __add__ = add

    def mul(self, other: "F2Matrix") -> "F2Matrix":
        """Matrix product self @ other over GF(2)."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch in mul")
        mine = self._masks
        return F2Matrix._from_masks(
            self.rows, other.cols, tuple(_combine(mine, om) for om in other._masks))

    __matmul__ = mul

    def apply(self, col_mask: int) -> int:
        """Image of a column vector given as a bitmask over column indices."""
        return _combine(self._masks, col_mask)


def submatrix(m: F2Matrix, row_indices, col_indices) -> F2Matrix:
    """Restriction of m to the given rows and columns, reindexed from 0.

    Indices are distinct; one outside the matrix gives a zero row or column.
    """
    masks = m._masks
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


def rank_f2(m: F2Matrix) -> int:
    return _mask_rank(m._masks)


def rank_f2_span(masks) -> int:
    """Rank of the span of the given bitmask vectors."""
    return _mask_rank(masks)


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


def kernel_basis_f2(m: F2Matrix) -> list[frozenset]:
    """Basis of ker(m); each vector is the frozenset of coordinates equal to 1.

    Deterministic: columns are processed left to right, so the basis is
    ordered by the leading (rightmost new) column index.
    """
    pivots: dict[int, tuple[int, int]] = {}
    basis: list[frozenset] = []
    for j, col in enumerate(m._masks):
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


def homology_dim_f2(d_in: F2Matrix, d_out: F2Matrix) -> int:
    """dim ker(d_out) - rank(d_in) for a two-step complex  . --d_in--> . --d_out--> .

    Raises CompositionNonzero unless d_out @ d_in = 0.
    """
    if d_out.cols != d_in.rows:
        raise ValueError("middle dimensions disagree")
    if not d_out.mul(d_in).is_zero():
        raise CompositionNonzero("d_out . d_in != 0")
    return (d_out.cols - rank_f2(d_out)) - rank_f2(d_in)


# ---------------------------------------------------------------------------
# Matrices over GF(2)[U] / U^P


def _clmul(a: int, b: int) -> int:
    """Carry-less product of two bitmask polynomials; fastest with b sparse."""
    acc = 0
    while b:
        bit = b & -b
        acc ^= a * bit
        b ^= bit
    return acc


def _valuation(e: int) -> int:
    return (e & -e).bit_length() - 1


def smith_pivots_u(columns, precision: int) -> list[tuple[int, int, int]]:
    """Smith reduction over GF(2)[U] / U^precision; returns (row, col, v) per
    pivot, the invariant factors being the U^v.

    columns[c] maps row r to the nonzero entry (r, c), whose bit k is the
    coefficient of U^k.  Each step pivots on the live entry u * U^v (u a
    unit) of least key (v, row, col), sets col' <- u * col' + (e >> v) * col
    for each other column col' with entry e in the pivot row, and drops the
    pivot row and column (row operations would only clear the dropped
    column).  This is the column reduction of persistent homology: the keys
    sit in a heap, where a key whose entry has since changed is skipped when
    popped, and each row lists the columns that may hold it, so a pivot
    touches only those columns.  Multiplying by the unit u keeps every
    valuation, and each new entry gets a fresh key.
    """
    full = (1 << precision) - 1
    cols: dict[int, dict[int, int]] = {}
    holders: dict[int, set] = {}
    heap = []
    for c, col in enumerate(columns):
        cols[c] = kept = {r: x for r, e in col.items() if (x := e & full)}
        for r, x in kept.items():
            holders.setdefault(r, set()).add(c)
            heap.append((_valuation(x), r, c))
    heapify(heap)
    pivots = []
    while heap:
        v, r, c = heappop(heap)
        pivot_col = cols.get(c)
        e = pivot_col and pivot_col.get(r)
        if not e or _valuation(e) != v:
            continue
        del cols[c]
        unit = pivot_col.pop(r) >> v
        for c2 in holders.pop(r):
            col = cols.get(c2)
            e = col and col.pop(r, 0)
            if not e:
                continue
            if unit != 1:
                for r2, x in col.items():
                    col[r2] = _clmul(x, unit) & full
            q = e >> v
            for r2, p in pivot_col.items():
                old = col.pop(r2, 0)
                x = old ^ _clmul(p, q) & full
                if x:
                    col[r2] = x
                    holders[r2].add(c2)
                    if (vx := _valuation(x)) != _valuation(old):  # the zero old one is at -1
                        heappush(heap, (vx, r2, c2))
        pivots.append((r, c, v))
    return pivots


def _minor_degree_bound(columns, rank: int) -> int:
    """A precision P above every invariant factor U^v of a matrix of rank at
    most `rank` over F2[U], given by its columns {row: U-power bitmask}: one
    more than the sum of the `rank` largest column degrees.

    Proof: over the discrete valuation ring F2[[U]] the valuations of the
    first r invariant factors sum to the least valuation of a nonzero r x r
    minor.  A nonzero polynomial has valuation at most its degree, and an
    r x r minor has degree at most the sum of the degrees of its r columns.
    So even the sum of all the v is below P, and `smith_pivots_u` at P finds
    every invariant factor.  A square differential (D^2 = 0) of size m has
    rank at most m // 2; with entries of degree at most 1, P <= rank + 1.
    """
    degrees = sorted((max(col.values()).bit_length() - 1 for col in columns if col),
                     reverse=True)
    return 1 + sum(degrees[:rank])


# ---------------------------------------------------------------------------
# Laurent polynomials over GF(2)


@dataclass(frozen=True, init=False)
class LaurentPoly:
    """Polynomial in T and T^-1 over GF(2), stored as a bitmask and a shift.

    Bit k of `_mask` is the coefficient of T^(_low + k).  `_mask` is odd,
    or (`_mask`, `_low`) is (0, 0) for the zero polynomial, so every
    polynomial has one stored form.  `support`, the frozenset of exponents
    whose coefficient is 1, is derived from the mask on request and never
    stored.
    """

    _mask: int
    _low: int

    def __init__(self, support=frozenset()):
        """Polynomial with coefficient 1 at each given exponent."""
        exps = frozenset(support)
        for e in exps:
            if not isinstance(e, int) or isinstance(e, bool):
                raise ValueError("exponents must be ints")
        low = min(exps, default=0)
        object.__setattr__(self, "_mask", vector_mask(e - low for e in exps))
        object.__setattr__(self, "_low", low)

    @classmethod
    def _from_mask(cls, mask: int, low: int) -> "LaurentPoly":
        """Trusted constructor: mask is odd, or (mask, low) is (0, 0)."""
        p = object.__new__(cls)
        object.__setattr__(p, "_mask", mask)
        object.__setattr__(p, "_low", low)
        return p

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls._from_mask(0, 0)

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls._from_mask(1, 0)

    @classmethod
    def t(cls) -> "LaurentPoly":
        return cls._from_mask(1, 1)

    @classmethod
    def monomial(cls, k: int) -> "LaurentPoly":
        return cls(frozenset({k}))

    @classmethod
    def from_exponents(cls, exponents) -> "LaurentPoly":
        """Build from an exponent list; repeats cancel mod 2."""
        acc: set[int] = set()
        for e in exponents:
            if e in acc:
                acc.discard(e)
            else:
                acc.add(e)
        return cls(frozenset(acc))

    @property
    def support(self) -> frozenset:
        """The exponents whose coefficient is 1, derived from the mask."""
        return frozenset(self._low + k for k in _mask_bits(self._mask))

    @property
    def is_zero(self) -> bool:
        return not self._mask

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        a, b = self._mask, other._mask
        if not b:
            return self
        if not a:
            return other
        # unless the shifts are equal, the lower term of one operand survives
        shift = other._low - self._low
        if shift > 0:
            return LaurentPoly._from_mask(a ^ (b << shift), self._low)
        if shift < 0:
            return LaurentPoly._from_mask(b ^ (a << -shift), other._low)
        return _normalized(a ^ b, self._low)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        """Carry-less product, one shifted XOR per term of the sparser factor."""
        a, b = self._mask, other._mask
        if not a or not b:
            return _ZERO
        if a.bit_count() > b.bit_count():
            a, b = b, a
        acc = 0
        while a:
            bit = a & -a
            acc ^= b * bit
            a ^= bit
        # both constant terms are 1, so the product's is too
        return LaurentPoly._from_mask(acc, self._low + other._low)

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiplication by the unit T^k."""
        if not self._mask:
            return self
        return LaurentPoly._from_mask(self._mask, self._low + k)

    @property
    def min_exp(self) -> int:
        if not self._mask:
            raise ValueError("zero polynomial has no exponents")
        return self._low

    @property
    def max_exp(self) -> int:
        return self._low + self.span

    @property
    def span(self) -> int:
        """max_exp - min_exp; the Euclidean size up to units."""
        if not self._mask:
            raise ValueError("zero polynomial has no exponents")
        return self._mask.bit_length() - 1

    def unit_normalized(self) -> "LaurentPoly":
        """Strip the unit T^k so the constant term is nonzero."""
        return self.shifted(-self._low)

    def at_one(self) -> int:
        """Value at T = 1 in GF(2)."""
        return self._mask.bit_count() & 1

    def __str__(self) -> str:
        if not self._mask:
            return "0"
        parts = []
        for k in _mask_bits(self._mask):
            e = self._low + k
            if e == 0:
                parts.append("1")
            elif e == 1:
                parts.append("T")
            else:
                parts.append(f"T^{e}")
        return " + ".join(parts)


_ZERO = LaurentPoly.zero()


def _normalized(mask: int, low: int) -> LaurentPoly:
    """The polynomial sum of T^(low + k) over the set bits k of any mask."""
    if not mask:
        return _ZERO
    zeros = (mask & -mask).bit_length() - 1
    return LaurentPoly._from_mask(mask >> zeros, low + zeros)


def laurent_divmod(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Division a = q*b + r with span(r) < span(b) (or r = 0).

    Long division in GF(2)[T] on the masks, which already have the unit
    shifts stripped; the shifts are restored on the quotient and remainder.
    """
    if b.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    rem, divisor = a._mask, b._mask
    width = divisor.bit_length()
    q = 0
    while rem.bit_length() >= width:
        shift = rem.bit_length() - width
        q ^= 1 << shift
        rem ^= divisor << shift
    return _normalized(q, a._low - b._low), _normalized(rem, a._low)


def laurent_divides(b: LaurentPoly, a: LaurentPoly) -> bool:
    """True when b divides a in GF(2)[T, T^-1]."""
    if b.is_zero:
        return a.is_zero
    return laurent_divmod(a, b)[1].is_zero


@dataclass(frozen=True)
class LaurentMatrix:
    """Sparse matrix with LaurentPoly entries; zero entries are omitted."""

    rows: int
    cols: int
    entries: tuple = ()

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        seen = set()
        for r, c, p in self.entries:
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ValueError(f"entry {(r, c)} outside {self.rows}x{self.cols} matrix")
            if (r, c) in seen:
                raise ValueError(f"duplicate position {(r, c)}")
            seen.add((r, c))
            if not isinstance(p, LaurentPoly) or p.is_zero:
                raise ValueError("entries must be nonzero LaurentPoly values")

    @classmethod
    def from_dict(cls, rows: int, cols: int, d) -> "LaurentMatrix":
        ents = tuple(
            (r, c, p)
            for (r, c), p in sorted(d.items())
            if not p.is_zero
        )
        return cls(rows, cols, ents)

    @classmethod
    def from_f2(cls, m: F2Matrix, scale: LaurentPoly | None = None) -> "LaurentMatrix":
        """Lift a GF(2) matrix, optionally scaling every entry by one polynomial."""
        if scale is None:
            scale = LaurentPoly.one()
        if scale.is_zero:
            return cls(m.rows, m.cols, ())
        return cls.from_dict(m.rows, m.cols, {(r, c): scale for r, c in m.entries})

    def to_dict(self) -> dict:
        return {(r, c): p for r, c, p in self.entries}

    def entry(self, r: int, c: int) -> LaurentPoly:
        for rr, cc, p in self.entries:
            if (rr, cc) == (r, c):
                return p
        return LaurentPoly.zero()

    def is_zero(self) -> bool:
        return not self.entries

    def add(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        d = self.to_dict()
        for (r, c), p in other.to_dict().items():
            d[(r, c)] = d.get((r, c), LaurentPoly.zero()) + p
        return LaurentMatrix.from_dict(self.rows, self.cols, d)

    __add__ = add

    def mul(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in mul")
        acc: dict = {}
        mine = self.to_dict()
        by_col: dict[int, list] = {}
        for (r, c), p in mine.items():
            by_col.setdefault(c, []).append((r, p))
        out: dict = {}
        for (r2, c2), q in other.to_dict().items():
            for r1, p in by_col.get(r2, ()):
                key = (r1, c2)
                out[key] = out.get(key, LaurentPoly.zero()) + p * q
        return LaurentMatrix.from_dict(self.rows, other.cols, out)

    __matmul__ = mul

    def at_one(self) -> F2Matrix:
        """Specialization T = 1: each entry becomes its coefficient parity."""
        return F2Matrix(
            self.rows,
            self.cols,
            frozenset((r, c) for r, c, p in self.entries if p.at_one()),
        )


def smith_invariants_laurent(m: LaurentMatrix) -> list[LaurentPoly]:
    """Nonzero invariant factors of m over GF(2)[T, T^-1].

    Each factor is unit-normalized (a polynomial in T with nonzero constant
    term); consecutive factors divide each other.  The number of factors
    equals the fraction-field rank.  Zero invariant factors are omitted.
    """
    a: list[dict[int, LaurentPoly]] = [dict() for _ in range(m.rows)]
    for r, c, p in m.entries:
        a[r][c] = p

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]

    def swap_cols(i, j):
        if i == j:
            return
        for row in a:
            vi, vj = row.pop(i, None), row.pop(j, None)
            if vj is not None:
                row[i] = vj
            if vi is not None:
                row[j] = vi

    def row_addmul(dst, src, q):
        # row dst += q * row src   (GF(2): addition is subtraction)
        if q.is_zero:
            return
        for c, v in list(a[src].items()):
            nv = a[dst].get(c, LaurentPoly.zero()) + q * v
            if nv.is_zero:
                a[dst].pop(c, None)
            else:
                a[dst][c] = nv

    def col_addmul(dst, src, q):
        if q.is_zero:
            return
        for row in a:
            v = row.get(src)
            if v is None:
                continue
            nv = row.get(dst, LaurentPoly.zero()) + q * v
            if nv.is_zero:
                row.pop(dst, None)
            else:
                row[dst] = nv

    invariants: list[LaurentPoly] = []
    n = min(m.rows, m.cols)
    k = 0
    while k < n:
        # locate a pivot of minimal span in the trailing submatrix
        best = None
        for r in range(k, m.rows):
            for c, v in a[r].items():
                if c < k:
                    continue
                key = (v.span, r, c)
                if best is None or key < best[0]:
                    best = (key, r, c)
            if best is not None and best[0][0] == 0:
                break  # a unit: no later row holds a smaller key
        if best is None:
            break
        swap_rows(best[1], k)
        swap_cols(best[2], k)

        while True:
            touched = False
            # clear the pivot column
            r = k + 1
            while r < m.rows:
                v = a[r].get(k)
                if v is not None:
                    q, rem = laurent_divmod(v, a[k][k])
                    row_addmul(r, k, q)
                    if not rem.is_zero:
                        swap_rows(r, k)
                        touched = True
                        break
                r += 1
            if touched:
                continue
            # clear the pivot row
            cleared = True
            for c in range(k + 1, m.cols):
                v = a[k].get(c)
                if v is not None:
                    q, rem = laurent_divmod(v, a[k][k])
                    col_addmul(c, k, q)
                    if not rem.is_zero:
                        swap_cols(c, k)
                        cleared = False
                        break
            if not cleared:
                continue
            # pivot row and column below/right of (k,k) are now zero; a unit
            # pivot divides every entry, so only a nonunit needs the sweep
            pivot = a[k][k]
            if pivot.span == 0:
                break
            offender = None
            for r in range(k + 1, m.rows):
                for c, v in a[r].items():
                    if c <= k:
                        continue
                    if not laurent_divides(pivot, v):
                        offender = r
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_addmul(k, offender, LaurentPoly.one())
        invariants.append(a[k][k].unit_normalized())
        k += 1
    return invariants
