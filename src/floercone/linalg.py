"""Exact linear algebra over GF(2), over GF(2)[U]/U^P and over the Laurent
ring GF(2)[T, T^-1].

GF(2) matrices store one Python-int bitmask per column; products and
elimination run on those masks, so every computation is exact, and the set
of (row, col) positions equal to 1 is a view derived on request.  A graded
F2[U]-complex or map is stored the same way, since the gradings of its row
and column fix the U-power of an entry: graded maps compose as masks, and
`F2Span`, the one GF(2) echelon loop, is the graded Smith reduction over
F2[U], and gives every reduced model, in one clearing pass in descending
grading, on a model built in that order or read modulo U
(`subquotient._clearing`).  Only an ungraded F2[U] matrix writes its
powers out, as columns {row: bitmask of U-powers} modulo U^P, for
`smith_pivots_u`, its Smith reduction.  Laurent polynomials are stored as
(mask, low): bit k of the int mask is the coefficient of T^(low + k), with
the mask odd (or both zero), so sums are shifted XORs, products are
carry-less, and the set of exponents whose coefficient is 1 is again a
view derived on request.  The Laurent ring is Euclidean once unit powers
of T are stripped, which is what the Smith reduction and the division
steps rely on.

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


class F2Span:
    """Incremental GF(2) span of bitmask vectors, one stored vector per
    leading bit: the one GF(2) echelon loop (see `subquotient._clearing`)."""

    def __init__(self):
        self._pivots: dict[int, int] = {}
        self.size = 0

    def add(self, vec: int) -> int:
        """Add vec to the span; returns its residue, 0 when it lay in the span."""
        pivots = self._pivots
        while vec and (hit := pivots.get(vec.bit_length() - 1)):
            vec ^= hit
        if vec:
            pivots[vec.bit_length() - 1] = vec
            self.size += 1
        return vec

    def contains(self, vec: int) -> bool:
        pivots = self._pivots
        while vec and (hit := pivots.get(vec.bit_length() - 1)):
            vec ^= hit
        return not vec


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

    def __add__(self, other: "F2Matrix") -> "F2Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        return F2Matrix._from_masks(
            self.rows, self.cols, tuple(a ^ b for a, b in zip(self._masks, other._masks)))

    def mul(self, other: "F2Matrix") -> "F2Matrix":
        """Matrix product self @ other over GF(2)."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch in mul")
        mine = self._masks
        return F2Matrix._from_masks(
            self.rows, other.cols, tuple(_combine(mine, om) for om in other._masks))

    __matmul__ = mul


def rank_f2(m: F2Matrix) -> int:
    return rank_f2_span(m._masks)


def rank_f2_span(masks) -> int:
    """Rank of the span of the given bitmask vectors."""
    span = F2Span()
    for mask in filter(None, masks):  # a zero vector adds nothing to the span
        span.add(mask)
    return span.size


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


def _cut(x: int, precision: int) -> int:
    """x modulo U^precision; no P-bit mask is built unless x reaches U^P."""
    return x if not x >> precision else x & ((1 << precision) - 1)


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
    valuation, and each new entry gets a fresh key.  Entries are cut modulo
    U^P only where they reach U^P, so no P-bit mask is built.
    """
    cols: dict[int, dict[int, int]] = {}
    holders: dict[int, set] = {}
    heap = []
    for c, col in enumerate(columns):
        cols[c] = kept = {r: x for r, e in col.items() if (x := _cut(e, precision))}
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
                    col[r2] = _cut(_clmul(x, unit), precision)
            q = e >> v
            for r2, p in pivot_col.items():
                old = col.pop(r2, 0)
                if x := _cut(old ^ _clmul(p, q), precision):
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
    rank at most m // 2.
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
        object.__setattr__(self, "_mask", sum(1 << (e - low) for e in exps))
        object.__setattr__(self, "_low", low)

    @classmethod
    def _from_mask(cls, mask: int, low: int) -> "LaurentPoly":
        """Trusted constructor: mask is odd, or (mask, low) is (0, 0)."""
        p = object.__new__(cls)
        object.__setattr__(p, "_mask", mask)
        object.__setattr__(p, "_low", low)
        return p

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls._from_mask(1, 0)

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


_ZERO = LaurentPoly()


def _normalized(mask: int, low: int) -> LaurentPoly:
    """The polynomial sum of T^(low + k) over the set bits k of any mask."""
    if not mask:
        return _ZERO
    zeros = (mask & -mask).bit_length() - 1
    return LaurentPoly._from_mask(mask >> zeros, low + zeros)


def _laurent_sum(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """p + q: one XOR of the masks, the one with the higher shift moved up."""
    a, b = p._mask, q._mask
    if not b:
        return p
    if not a:
        return q
    # unless the shifts are equal, the lower term of one operand survives
    shift = q._low - p._low
    if shift > 0:
        return LaurentPoly._from_mask(a ^ (b << shift), p._low)
    if shift < 0:
        return LaurentPoly._from_mask(b ^ (a << -shift), q._low)
    return _normalized(a ^ b, p._low)


def _laurent_product(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """p q: one carry-less product of the masks, stepping through the sparser;
    both constant terms are 1, so the product's is too."""
    a, b = p._mask, q._mask
    if not a or not b:
        return _ZERO
    if a.bit_count() < b.bit_count():
        a, b = b, a
    return LaurentPoly._from_mask(_clmul(a, b), p._low + q._low)


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

    def entry(self, r: int, c: int) -> LaurentPoly:
        for rr, cc, p in self.entries:
            if (rr, cc) == (r, c):
                return p
        return _ZERO

    def __add__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        d = {(r, c): p for r, c, p in self.entries}
        for r, c, p in other.entries:
            d[(r, c)] = _laurent_sum(d.get((r, c), _ZERO), p)
        return LaurentMatrix.from_dict(self.rows, self.cols, d)

    def __matmul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in mul")
        by_col: dict[int, list] = {}
        for r, c, p in self.entries:
            by_col.setdefault(c, []).append((r, p))
        out: dict = {}
        for r2, c2, q in other.entries:
            for r1, p in by_col.get(r2, ()):
                out[(r1, c2)] = _laurent_sum(out.get((r1, c2), _ZERO), _laurent_product(p, q))
        return LaurentMatrix.from_dict(self.rows, other.cols, out)

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
    term), and each divides the next; their number is the fraction-field
    rank.  The reduction follows `smith_pivots_u` with span for valuation:
    it pops the live entry of least key (span, row, col) from a heap, where
    a key whose entry has since changed is skipped, and each row lists the
    columns that may hold it.  Column operations divide the rest of the
    pivot row by the pivot.  A nonzero remainder has a smaller span, so it
    goes on the heap and is popped before the pivot is tried again.  Once
    the row is clear, a unit pivot leaves with its row and column (row
    operations would only clear the dropped column).  A nonunit pivot first
    clears its column by row operations, which touch that column alone
    since the pivot row holds nothing else; remainders again go on the
    heap.  Every pivot that leaves is a diagonal entry, and one pairwise
    (gcd, lcm) pass turns the nonunit ones into a divisibility chain.
    """
    cols: dict[int, dict[int, LaurentPoly]] = {}
    holders: dict[int, set] = {}
    heap = []
    for r, c, p in m.entries:
        cols.setdefault(c, {})[r] = p
        holders.setdefault(r, set()).add(c)
        heap.append((p.span, r, c))
    heapify(heap)
    units, diagonal = [], []
    while heap:
        span, r, c = heappop(heap)
        pivot_col = cols.get(c)
        pivot = pivot_col and pivot_col.get(r)
        if not pivot or pivot.span != span:
            continue
        settled = True
        for c2 in holders[r]:
            col = cols.get(c2)
            e = c2 != c and col and col.get(r)
            if not e:
                continue
            q, rem = laurent_divmod(e, pivot)
            for r2, x in pivot_col.items():
                old = col.get(r2, _ZERO)
                new = rem if r2 == r else _laurent_sum(old, _laurent_product(x, q))
                if new.is_zero:
                    del col[r2]
                    continue
                col[r2] = new
                holders[r2].add(c2)
                if old.is_zero or new.span != old.span:
                    heappush(heap, (new.span, r2, c2))
            settled = settled and rem.is_zero
        if settled and span:
            for r2, x in list(pivot_col.items()):
                if r2 == r:
                    continue
                rem = laurent_divmod(x, pivot)[1]
                if rem.is_zero:
                    del pivot_col[r2]
                else:
                    pivot_col[r2] = rem
                    heappush(heap, (rem.span, r2, c))
                    settled = False
        if not settled:
            heappush(heap, (span, r, c))
            continue
        del cols[c], holders[r]
        (diagonal if span else units).append(pivot)
    for i, a in enumerate(diagonal):
        for j in range(i + 1, len(diagonal)):
            b = diagonal[j]
            g = a
            while not b.is_zero:
                g, b = b, laurent_divmod(g, b)[1]
            a, diagonal[j] = g, laurent_divmod(_laurent_product(a, diagonal[j]), g)[0]
        diagonal[i] = a
    return [p.unit_normalized() for p in units + diagonal]
