"""Finite free models of knot Floer complexes.

A model is a list of generators with an Alexander grading A (an integer)
and a Maslov grading M (an exact rational), a differential given by terms
U^n * target, and an optional flip map realizing the symmetry that
exchanges the two lattice coordinates.  Within one Spin^c structure the
gradings differ by integers: they all lie in offset + Z for one rational
offset in [0, 1), and everything below the model runs on the integers
M - offset (`KnotComplex._int_maslov`).

Below the model, d and the flip are read in one index form
(`KnotComplex._index_form`): each term a (source, target, U-power) triple
of ints, generator k being the k-th in name order.  A name that a term uses
but no generator declares is numbered after the generators, in sorted
order, so a malformed complex still has an index form to validate.
`validate` reads d o d and phi d + d phi off these triples as the terms
that an odd number of paths reach (`_odd_paths`), so both checks are exact
whatever the U-powers, and nothing is sized by a power.

What `validate` proves of a valid complex, which the free models of
`subquotient` and the maps v and h of `cone` rely on instead of checking
it again:
- every term names declared generators and is listed once;
- each term U^n t in d g has n >= 0 (negative-u-power), n >= A(t) - A(g)
  (filtration) and M(t) - 2n = M(g) - 1 (maslov-drop), so d holds at most
  one term per (g, t);
- d o d = 0 over F2[U] (d-squared);
- each term U^n t in the flip image of g has n = -A(g), A(t) = -A(g) and
  M(t) = M(g) - 2A(g) (flip-term), so the flip too holds at most one
  term per (g, t);
- phi d = d phi over F2[U] (flip-chain-map).

The validation report and the derived flip are per-complex tables, like
the index form and the masks (`KnotComplex._report`, `_flipped`): each is
computed on first use and lives exactly as long as its complex, and no
module-level cache keeps a complex alive.

The plane element (g, i) stands for U^{-i} * g.  It sits at lattice
position (i, i + A(g)) and has Maslov grading M(g) + 2i.  The differential
acts by translation: a term U^n * h in the differential of g contributes
(h, i - n) to the differential of (g, i).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import attrgetter, itemgetter
from typing import NamedTuple

from floercone.linalg import F2Matrix, F2Span, rank_f2


# Assigned pairs that derive_flip tries before it gives up.
_FLIP_SEARCH_NODES = 100_000


class NoFlipFound(Exception):
    """No generator involution satisfies the flip constraints."""


class FlipSearchExhausted(Exception):
    """The flip search hit its node budget before it found a flip or ruled
    every involution out; whether a flip exists is unknown."""


class ValidationError(Exception):
    def __init__(self, label: str, report: "ValidationReport"):
        self.label = label
        self.report = report
        lines = "; ".join(str(v) for v in report.violations)
        super().__init__(f"complex {label!r} is invalid: {lines}")


@dataclass(frozen=True)
class Generator:
    name: str
    alexander: int
    maslov: Fraction

    def __post_init__(self):
        if not isinstance(self.alexander, int):
            raise TypeError("alexander grading must be an integer")
        if not isinstance(self.maslov, Fraction):
            object.__setattr__(self, "maslov", Fraction(self.maslov))


class DiffTerm(NamedTuple):
    """The term U^{u_power} * target inside the differential of source."""

    source: str
    target: str
    u_power: int


class FlipTerm(NamedTuple):
    """The term U^{u_power} * target inside the flip image of source."""

    source: str
    target: str
    u_power: int


class PlaneElement(NamedTuple):
    """U^{-i} * generator, at lattice position (i, i + A), Maslov M + 2i."""

    generator: str
    i: int


@dataclass(frozen=True)
class Violation:
    kind: str
    subject: str
    detail: str

    def __str__(self):
        return f"[{self.kind}] {self.subject}: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return "valid"
        return "\n".join(str(v) for v in self.violations)


@dataclass(frozen=True)
class KnotComplex:
    """A complex in canonical order: generators sorted by name, terms by
    (source, target, U-power), their tuple order.  Equality is therefore
    order-insensitive in the inputs."""

    spinc_label: str
    generators: tuple = ()
    differential: tuple = ()
    flip: tuple | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "generators",
            tuple(sorted(self.generators, key=attrgetter("name"))))
        object.__setattr__(self, "differential", tuple(sorted(self.differential)))
        if self.flip is not None:
            object.__setattr__(self, "flip", tuple(sorted(self.flip)))

    @cached_property
    def _hash(self) -> int:
        """The hash of the label, the generator names and the terms; equality
        also compares the gradings, which the hash leaves out."""
        names = tuple([g.name for g in self.generators])
        return hash((self.spinc_label, names, self.differential, self.flip))

    def __hash__(self) -> int:  # cached: it walks every name and term
        return self._hash

    def __getstate__(self) -> dict:  # no cached hash: str hashes differ between processes
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    @cached_property
    def _int_maslov(self) -> tuple | None:
        """(offset, gradings): the fractional part in [0, 1) shared by every
        Maslov grading, and M - offset per generator, as ints; None when two
        gradings do not differ by an integer.  Each M = p / q, split once, gives
        p // q and (p mod q) / q, in lowest terms, with no rational arithmetic."""
        ratios = [g.maslov.as_integer_ratio() for g in self.generators]
        parts = {(p % q, q) for p, q in ratios}
        if len(parts) > 1:
            return None
        offset = Fraction(*parts.pop()) if parts else Fraction(0)
        return offset, tuple([p // q for p, q in ratios])

    @cached_property
    def _index_names(self) -> tuple:
        """Generator names, then the undeclared names that terms use, sorted."""
        declared = [g.name for g in self.generators]
        terms = self.differential + (self.flip or ())
        used = set(map(itemgetter(0), terms))
        used.update(map(itemgetter(1), terms))
        return tuple(declared + sorted(used.difference(declared)))

    @cached_property
    def _index_form(self) -> tuple:
        """(d, flip) in the index form: each term, in term order, as a (source,
        target, U-power) triple of ints, numbered as in `_index_names`, which is
        read only when a term names an undeclared generator; flip is None without a flip."""
        index = {g.name: k for k, g in enumerate(self.generators)}
        terms = (self.differential, self.flip or ())
        try:
            d, flip = [tuple([(index[x], index[y], n) for x, y, n in t]) for t in terms]
        except KeyError:
            index = {name: k for k, name in enumerate(self._index_names)}
            d, flip = [tuple([(index[x], index[y], n) for x, y, n in t]) for t in terms]
        return d, None if self.flip is None else flip

    @cached_property
    def _alexander_gradings(self) -> tuple:
        """The Alexander gradings, per generator."""
        return tuple([g.alexander for g in self.generators])

    @cached_property
    def _masks(self) -> tuple:
        """(d, flip) as one column mask per generator, the rows its terms reach,
        the powers left to the gradings (a valid complex has one term per
        (source, target)); flip is None without a flip.  The free models of
        `subquotient` and the map h of `cone` share them at every s."""
        d, flip = self._index_form
        size = len(self.generators)
        return _column_masks(d, size), None if flip is None else _column_masks(flip, size)

    @cached_property
    def _b_modulo_u(self) -> tuple:
        """B modulo U, lo being 0 in B: the masks of d's terms of U-power 0."""
        return _column_masks([t for t in self._index_form[0] if not t[2]], len(self.generators))

    @cached_property
    def _b_echelon(self) -> tuple:
        """An echelon basis of the span of `_b_modulo_u`, as many as its rank."""
        return tuple(filter(None, map(F2Span().add, self._b_modulo_u)))

    @cached_property
    def _report(self) -> ValidationReport:
        """The validation report (`validate`)."""
        return validate(self)

    @cached_property
    def _flipped(self) -> KnotComplex:
        """A copy with the derived flip (`derive_flip`); a failed search
        raises and stores nothing."""
        return _search_flip(self)

    def names(self) -> tuple:
        return tuple(g.name for g in self.generators)

    def generator(self, name: str) -> Generator:
        for g in self.generators:
            if g.name == name:
                return g
        raise KeyError(name)

    def alexander(self, name: str) -> int:
        return self.generator(name).alexander

    def maslov(self, name: str) -> Fraction:
        return self.generator(name).maslov

    def a_max(self) -> int:
        """Largest Alexander grading present, clamped below at 0."""
        return max([0] + [g.alexander for g in self.generators])

    def a_bound(self) -> int:
        """Largest |A| over the generators (0 for an empty complex)."""
        return max([0] + [abs(g.alexander) for g in self.generators])


def _column_masks(terms, size: int) -> tuple:
    """Per source index, the mask of the targets of its terms."""
    columns = [0] * size
    for col, row, _ in terms:
        columns[col] |= 1 << row
    return tuple(columns)


def _targets(terms, size: int) -> list:
    """Per source index, the (target, U-power) pairs of its terms."""
    out = [[] for _ in range(size)]
    for x, y, n in terms:
        out[x].append((y, n))
    return out


def _odd(triples) -> set:
    """The triples listed an odd number of times."""
    odd: set = set()
    for t in triples:
        odd ^= {t}
    return odd


def _odd_paths(*compositions) -> set:
    """The (source, target, U-power) triples that an odd number of paths
    reach, over the pairs (outer, inner) of `_targets` lists and index
    triples: a path is a term (x, m, k) of inner followed by a pair (y, j)
    of outer[m], and it reaches (x, y, k + j).  Over one pair these are the
    terms of outer o inner over F2[U, U^-1]; over two, of their sum."""
    return _odd((x, y, k + j) for outer, inner in compositions for x, m, k in inner for y, j in outer[m])


def _products_vanish(size: int, *compositions) -> bool:
    """Whether the sum of outer o inner over the pairs (outer, inner) of
    column masks and index triples is zero over GF(2)."""
    acc = [0] * size
    for outer, inner in compositions:
        for x, m, _ in inner:
            acc[x] ^= outer[m]
    return not any(acc)


@lru_cache(maxsize=0)  # stores nothing; keeps cache_info() for bench/tracer.py
def validate(c: KnotComplex) -> ValidationReport:
    """Full structural check; returns every violation found, never raises.

    A term that names an undeclared generator is listed as
    unknown-generator, once per undeclared end, and gets no further per-term
    check.  It still counts in d o d and in phi d = d phi, where the
    undeclared name acts as one more generator, so their odd terms and a
    flip-chain-map failure are listed as for any term; flip-not-invertible
    reads only the flip terms between declared generators.  Both composites
    are read off the index triples (`_odd_paths`), so they are exact on
    every input, whatever its U-powers.  Where every term is declared, listed
    once and holds, d lowers M - 2n by one and the flip keeps it, so M(x)
    and M(y) fix the U-power of every path x -> y, and the GF(2) products
    of the masks decide both (`_products_vanish`)."""
    bad: list[Violation] = []
    gens = c.generators
    size = len(gens)
    declared = [g.name for g in gens]
    if len(set(declared)) < size:  # containers keyed by name are unreliable: stop here
        seen: set = set()
        return ValidationReport(tuple(Violation("duplicate-name", name, "generator name reused")
                                      for name in declared if name in seen or seen.add(name)))

    split = c._int_maslov
    if split is None:
        bad.append(Violation(
            "maslov-offset", "gradings",
            "Maslov gradings of one Spin^c structure must all differ by integers"))
    # the int gradings M - offset; the Maslov checks need them
    grade = split[1] if split is not None else None
    d, phi = c._index_form
    alex = c._alexander_gradings
    # the terms with an undeclared end or a broken rule, in term order
    d_fails = [(x, y, n) for x, y, n in d if not (
        x < size and y < size and n >= 0 and n >= alex[y] - alex[x]
        and (grade is None or grade[y] - 2 * n == grade[x] - 1))]
    phi_fails = [(x, y, n) for x, y, n in phi or () if not (
        x < size and y < size and n == alex[y] == -alex[x]
        and (grade is None or grade[y] == grade[x] - 2 * alex[x]))]
    once = len(set(d)) == len(d) and (phi is None or len(set(phi)) == len(phi))
    clean = once and not (d_fails or phi_fails) and grade is not None
    names = None if clean else c._index_names  # the labels of a clean complex need none

    def listed(triples, fails, role, broken) -> None:
        """Lists the violations of the terms fails, or of every term when a
        term repeats, in term order: its undeclared ends, or else a repeat
        and the (kind, detail) pairs of broken(x, y, n), checked on the int
        gradings."""
        seen = set()
        for term in fails if once else triples:
            x, y, n = term
            if x >= size or y >= size:
                bad.extend(Violation("unknown-generator", f"{role} {names[x]}->{names[y]}",
                                     f"no generator named {names[k]!r}") for k in (x, y) if k >= size)
                continue
            label = f"{role} {names[x]} -> U^{n} {names[y]}"
            if term in seen:
                bad.append(Violation("duplicate-term", label, "term listed twice"))
            seen.add(term)
            bad.extend(Violation(kind, label, detail) for kind, detail in broken(x, y, n))

    def d_rules(x: int, y: int, n: int) -> list:
        found, lift = [], alex[y] - alex[x]
        if n < 0:
            found.append(("negative-u-power", "differential U-powers must be >= 0"))
        if n < lift:
            found.append(("filtration", f"U-power {n} < A(target) - A(source) = {lift}"))
        if grade is not None and grade[y] - 2 * n != grade[x] - 1:
            found.append(("maslov-drop", f"M(target) - 2n = {gens[y].maslov - 2 * n}, "
                                         f"expected M(source) - 1 = {gens[x].maslov - 1}"))
        return found

    def flip_rules(x: int, y: int, n: int) -> list:
        found, a = [], alex[x]
        if n != -a:
            found.append(("flip-term", f"U-power must be -A(source) = {-a} to exchange coordinates"))
        if alex[y] != -a:
            found.append(("flip-term", f"A(target) = {alex[y]}, expected -A(source) = {-a}"))
        if grade is not None and grade[y] != grade[x] - 2 * a:
            found.append(("flip-term", f"M(target) = {gens[y].maslov}, expected M(source) - 2A(source) "
                                       f"= {gens[x].maslov - 2 * a}"))
        return found

    listed(d, d_fails, "d", d_rules)

    if not (clean and _products_vanish(size, (c._masks[0], d))):
        names = c._index_names
        odd = _odd_paths((_targets(d, len(names)), d))
        for src, tgt, n in sorted((names[x], names[y], n) for x, y, n in odd):
            bad.append(Violation("d-squared", f"{src} -> U^{n} {tgt}", "d o d has this odd term"))

    if phi is not None:
        listed(phi, phi_fails, "flip", flip_rules)
        odd = phi if clean else [t for t in _odd(phi) if t[0] < size and t[1] < size]
        if rank_f2(F2Matrix(size, size, [(y, x) for x, y, _ in odd])) != size:
            bad.append(Violation("flip-not-invertible", "flip", "generator matrix of the flip is singular"))
        if (not _products_vanish(size, (c._masks[1], d), (c._masks[0], phi)) if clean else
                _odd_paths((_targets(phi, len(names)), d), (_targets(d, len(names)), phi))):
            bad.append(Violation("flip-chain-map", "flip", "flip does not commute with the differential"))

    return ValidationReport(tuple(bad))


def require_valid(c: KnotComplex) -> None:
    report = c._report
    if not report.ok:
        raise ValidationError(c.spinc_label, report)


def _flip_terms_of(c: KnotComplex, sigma: dict) -> tuple:
    return tuple(
        FlipTerm(name, sigma[name], -c.alexander(name))
        for name in sorted(sigma)
    )


def _named(c: KnotComplex, sigma: list) -> dict:
    """sigma, a list of generator indices in name order, as names."""
    gens = c.generators
    return {g.name: gens[h].name for g, h in zip(gens, sigma)}


def _flip_problem(c: KnotComplex) -> tuple:
    """The flip search over generator indices in name order:
    (alex, out, watch, cands).  out[x] maps each target y of d x to
    its U-power; watch[g] lists g and the sources whose d holds g, that is
    every x whose component of phi d = d phi reads sigma(g); cands[g] lists
    the h with A(h) = -A(g) and M(h) = M(g) - 2 A(g), in name order."""
    gens = c.generators
    alex = c._alexander_gradings
    grade = c._int_maslov[1]
    out = [{} for _ in gens]
    watch = [[k] for k in range(len(gens))]
    for x, y, n in c._index_form[0]:
        out[x][y] = n
        watch[y].append(x)
    by_grading: dict[tuple, list] = {}
    for k, (a, m) in enumerate(zip(alex, grade)):
        by_grading.setdefault((a, m), []).append(k)
    cands = [by_grading.get((-a, m - 2 * a), []) for a, m in zip(alex, grade)]
    return alex, out, watch, cands


def _can_hold(x: int, sigma: list, taken: list, alex, out) -> bool:
    """False when no completion of sigma makes the component of
    phi d = d phi at source x hold, phi(g) = U^(-A(g)) sigma(g).

    That component reads sigma only on x and on the targets of d x:
    d phi(x) has the terms U^(m - A(x)) t of d sigma(x), phi(d x) the terms
    U^(n - A(y)) sigma(y) of d x.  sigma is injective, so both sides have
    distinct terms and must agree term by term.  With sigma(x) set and every
    target assigned, this is a full check.  With one target y free, the one
    term of d sigma(x) left unmatched must be U^(n - A(y)) sigma(y), so
    sigma(y) is forced: no generator may map to it yet (taken[t] < 0), and
    its A must be -A(y); its M is then M(y) - 2 A(y), read off the
    U-powers.  With two or more free, nothing is decided."""
    image = out[sigma[x]]
    targets = out[x]
    if len(image) != len(targets):
        return False
    shift = alex[x]
    free = -1
    for y, n in targets.items():
        sy = sigma[y]
        if sy < 0:
            if free >= 0:
                return True
            free, power = y, n - alex[y] + shift
        elif image.get(sy) != n - alex[y] + shift:
            return False
    if free < 0:
        return True
    matched = {sigma[y] for y in targets if y != free}
    t = next(t for t in image if t not in matched)
    return image[t] == power and taken[t] < 0 and alex[t] == -alex[free]


def derive_flip(c: KnotComplex) -> KnotComplex:
    """Search for an involution flip; returns a copy with flip populated.
    The search (`_search_flip`) runs once per complex, whose
    `KnotComplex._flipped` keeps the copy.

    Pairing constraints: A(sigma g) = -A(g) and M(sigma g) = M(g) - 2 A(g).
    The constraints are symmetric in g and sigma g, so assignments are made
    in mutually consistent pairs.  Among valid involutions the
    lexicographically first assignment (by generator name) is returned:
    the search branches on the first unassigned generator by name and tries
    its candidates in name order.

    Pruning: after each assigned pair, every source whose component of
    phi d = d phi reads one of the pair is re-checked (`_can_hold`), which
    fails only when no completion of the partial assignment satisfies that
    component.  A pruned subtree therefore holds no valid involution, and
    the first valid leaf is the one an unpruned search finds.

    Budget: the search tries at most _FLIP_SEARCH_NODES pairs.  Past that
    it raises FlipSearchExhausted, which says nothing about whether a flip
    exists; NoFlipFound means the whole tree was ruled out.
    """
    return c._flipped


def _search_flip(c: KnotComplex) -> KnotComplex:
    """The search that `derive_flip` describes."""
    require_valid(c)
    if c.flip is not None:
        raise ValueError("flip already present")
    alex, out, watch, cands = _flip_problem(c)
    size = len(alex)
    sigma = [-1] * size
    nodes = 0

    def search(g: int) -> bool:
        nonlocal nodes
        while g < size and sigma[g] >= 0:
            g += 1
        if g == size:
            return True
        for h in cands[g]:
            if sigma[h] >= 0:
                continue
            nodes += 1
            if nodes > _FLIP_SEARCH_NODES:
                raise FlipSearchExhausted(
                    f"flip search for complex {c.spinc_label!r} gave up after "
                    f"{_FLIP_SEARCH_NODES} assignments")
            sigma[g], sigma[h] = h, g
            touched = watch[g] if h == g else watch[g] + watch[h]
            if all(sigma[x] < 0 or _can_hold(x, sigma, sigma, alex, out)
                   for x in touched) and search(g + 1):
                return True
            sigma[g] = sigma[h] = -1
        return False

    try:
        found = search(0)
    finally:
        del search  # it refers to itself: break the cycle, so c dies with its last reference
    if not found:
        raise NoFlipFound(f"no involution flip exists for complex {c.spinc_label!r}")
    flipped = replace(c, flip=_flip_terms_of(c, _named(c, sigma)))
    require_valid(flipped)
    return flipped


def enumerate_flips(c: KnotComplex) -> list:
    """All generator bijections that are valid flips, as FlipTerm tuples.

    Exhaustive over bijections sigma with A(sigma g) = -A(g) and
    M(sigma g) = M(g) - 2 A(g) whose induced map commutes with the
    differential.  Involutions are not required here.  Deterministic order:
    lexicographic in the assignment vector over name-sorted generators.
    The search assigns generators in name order, candidates in name order,
    and drops a partial assignment as soon as the per-source check of
    derive_flip rules it out.
    """
    require_valid(c)
    alex, out, watch, cands = _flip_problem(c)
    size = len(alex)
    sigma = [-1] * size
    taken = [-1] * size  # taken[h] = g when sigma(g) = h
    found = []

    def search(g: int) -> None:
        if g == size:
            found.append(_flip_terms_of(c, _named(c, sigma)))
            return
        for h in cands[g]:
            if taken[h] >= 0:
                continue
            sigma[g], taken[h] = h, g
            if all(sigma[x] < 0 or _can_hold(x, sigma, taken, alex, out)
                   for x in watch[g]):
                search(g + 1)
            sigma[g] = taken[h] = -1

    search(0)
    return found


def lattice_window(c: KnotComplex, i_min: int, i_max: int):
    """Plane elements with i_min <= i <= i_max and the induced differential.

    Returns (elements, matrix) where matrix[(r, k)] = 1 means the
    differential of elements[k] contains elements[r].  Terms whose image
    leaves the window are dropped.
    """
    require_valid(c)
    if i_min > i_max:
        raise ValueError("i_min must not exceed i_max")
    window = range(i_min, i_max + 1)
    elements = tuple(PlaneElement(g.name, i) for g in c.generators for i in window)
    # (g_k, i) is elements[k * len(window) + i - i_min]
    entries = [(y * len(window) + i - n - i_min, x * len(window) + i - i_min)
               for x, y, n in c._index_form[0] for i in window if i - n in window]
    return elements, F2Matrix.from_entries(len(elements), len(elements), entries)


def plane_position(c: KnotComplex, e: PlaneElement) -> tuple:
    g = c.generator(e.generator)
    return (e.i, e.i + g.alexander)
