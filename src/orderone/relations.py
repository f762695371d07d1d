"""Cyclotomic relations: multisets of signed roots of unity with vanishing
(or mod-2 vanishing) sum, their classification at small weight, sign lifts,
and conjugation-stable partitions.

Every exact search is one meet-in-the-middle, `_vanishing_masks`: subsets of
a multiset (each entry taken 0 or 1 times) and sign lifts (each entry taken
+1 or -1 times, the first sign fixed) both ask which assignments of a choice
set make a sum of power-basis vectors vanish.  Vectors are packed into one
Python int each, so a vector sum is one integer addition; the packing width
is derived from the inputs, so every sum the search forms packs injectively.
The halves are lists of bare sums in a fixed order, and a hit's mask is
looked up by its indices, so a first-hit search (a lift, a vanishing subset)
returns the same answer on every run.  An exact conjugation-stable partition
runs the subset search once and recurses on index masks.  The mod-2
searches are linear algebra over GF(2) and do not use it.

The weight <= 8 classes are enumerated on exponent tuples x mod 2n (values
zeta_2n^x in +-mu_n) and become `Relation`s only when they survive: (a)
parts holding an antipodal pair are never listed, (b) one member per
rotation class is tested, (c) on rows of the level's reduction table.  The
parts are matched once per multiset of part sizes, not per composition.

Element values live in the group of roots of unity; an entry is stored as
(root, sign) with the canonical split convention that sign = -1 is used
exactly when the value is minus a root of odd order.  This matches the
classical tables, keeps rotation canonicalization unambiguous, and absorbs
the prime 2 into signs during enumeration.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .arith import factorize
from .cyclo import CycInt, _reduction_table, reduced_root_vector, root_sum
from .roots import RootOfUnity


class CapacityError(Exception):
    """A request exceeded a documented search bound."""


def _split_value(v: RootOfUnity) -> tuple[RootOfUnity, int]:
    """Canonical (root, sign) split of a root-of-unity value."""
    if v.den % 4 == 2:  # v = -w with w of odd order
        return v.negated(), -1
    return v, 1


def _entry_key(entry: tuple[RootOfUnity, int]):
    r, s = entry
    return (r.den, r.num, 0 if s > 0 else 1)


@dataclass(frozen=True)
class Relation:
    """Multiset of signed roots of unity, entries sorted canonically."""

    entries: tuple[tuple[RootOfUnity, int], ...]

    @staticmethod
    def make(entries) -> "Relation":
        normalized = []
        for r, s in entries:
            if s not in (1, -1):
                raise ValueError("signs must be +-1")
            v = r if s > 0 else r.negated()
            normalized.append(_split_value(v))
        normalized.sort(key=_entry_key)
        return Relation(tuple(normalized))

    @staticmethod
    def from_values(values) -> "Relation":
        return Relation.make([(v, 1) for v in values])

    @property
    def weight(self) -> int:
        return len(self.entries)

    def values(self) -> list[RootOfUnity]:
        return [r if s > 0 else r.negated() for r, s in self.entries]

    def sum(self) -> CycInt:
        return root_sum([(s, r) for r, s in self.entries])

    def is_valid(self, mod2: bool = False) -> bool:
        return self.sum().is_even() if mod2 else self.sum().is_zero()

    def conjugate(self) -> "Relation":
        return Relation.from_values([v.conjugate() for v in self.values()])

    def rotate(self, zeta: RootOfUnity) -> "Relation":
        return Relation.from_values([v * zeta for v in self.values()])

    def _rotations(self):
        """The rotation taking each entry's value to +1, in entry order."""
        return (self.rotate(v.inverse()) for v in self.values())

    def canonical(self) -> "Relation":
        """Lexicographically minimal rotation; always contains the entry +1."""
        return min(self._rotations(), key=lambda rot: tuple(map(_entry_key, rot.entries)), default=self)

    def level(self) -> int:
        """Odd part of the lcm of element orders, minimized over rotations.

        Surrogate conductor for mod-2 relations: tested properties are that it
        is odd and squarefree on every classified input.
        """
        lcms = (math.lcm(*(w.den for w in rot.values())) for rot in self._rotations())
        return min((m // (m & -m) for m in lcms), default=1)

    def union(self, other: "Relation") -> "Relation":
        return Relation.make(list(self.entries) + list(other.entries))

    def __repr__(self):
        parts = [f"{'-' if s < 0 else ''}{r}" for r, s in self.entries]
        return f"Relation[{', '.join(parts)}]"


@dataclass(frozen=True)
class RelationClass:
    representative: Relation
    type_label: str

    @staticmethod
    def of(rel: Relation) -> "RelationClass":
        rep = rel.canonical()
        return RelationClass(rep, _type_label(rep))


def _type_label(rel: Relation) -> str:
    w, level = rel.weight, rel.level()
    if w == 2:
        return "R2"
    if level == w:
        return f"R{level}"
    if level == 15:
        k = w - 5
        return "(R5:R3)" if k == 1 else f"(R5:{k}R3)"
    if level == 21:
        k = w - 7
        return "(R7:R3)" if k == 1 else f"(R7:{k}R3)"
    return f"W{w}L{level}"


# -- vector forms ------------------------------------------------------------


def _vectors(values: list[RootOfUnity]) -> list[tuple[int, ...]]:
    """Power-basis integer vectors of the values at their common level."""
    level = math.lcm(*(v.den for v in values))
    return [reduced_root_vector(v, level) for v in values]


def _vanishes(vecs, mod2: bool) -> bool:
    """The vectors sum to zero (to an even vector if mod2).

    Exact: the power basis is a Z-basis of Z[zeta_N], the full ring of
    integers, so even coordinates decide divisibility by 2 at any level.
    """
    return not any(sum(col) % 2 if mod2 else sum(col) for col in zip(*vecs))


def _bitmask(vec: tuple[int, ...]) -> int:
    m = 0
    for i, x in enumerate(vec):
        if x % 2:
            m |= 1 << i
    return m


def _sums(packed: list[int], choices) -> list[int]:
    """Packed sum of every assignment of two choices to the vectors, in
    lexicographic order: vector 0 most significant, choices in the given
    order."""
    sums = [0]
    for v in packed:
        moves = [c * v for c in choices]
        sums = [s + d for s in sums for d in moves]
    return sums


@lru_cache(maxsize=None)
def _masks(width: int) -> tuple[int, ...]:
    """Mask of every assignment of `width` vectors (bit i for vector i), in
    the order `_sums` lists them: index j read backwards as width bits."""
    masks = [0]
    for pos in range(width):
        masks = [m | (bit << pos) for m in masks for bit in (0, 1)]
    return tuple(masks)


@lru_cache(maxsize=4096)
def _pack(vec: tuple[int, ...], b: int) -> int:
    return sum(x << (b * i) for i, x in enumerate(vec) if x)


def _vanishing_masks(vectors, choices, offset=None):
    """Yield every mask whose assignment makes offset + sum c_i * v_i vanish.

    c_i is choices[(mask >> i) & 1], and each of the two choices is 0, 1 or
    -1: (0, 1) searches subsets, (1, -1) signs.  Meet-in-the-middle: the
    assignments of the first len // 2 vectors are tabled by sum; those of
    the rest but the last are listed, and each is completed by every choice
    for the last vector and looked up as it is formed, so a caller that
    stops at its first hit stops early.  Both halves run in lexicographic
    order (vector 0 first, choices in the given order), so the first hit
    pairs the first right half that has a completion with the first such
    completion.  The halves are bare sums and the table holds the left
    indices of each sum; a mask is formed only for a hit, from the `_masks`
    of its left and right indices.

    Each vector x is packed as the int sum x_i * 2^(b*i).  With n rows (the
    vectors and the offset) and M the largest |coordinate|, every coordinate
    of every sum compared lies in [-nM, nM], and b = (nM).bit_length() + 1
    gives nM < 2^(b-1).  Two such sums that pack equal differ by digits of
    size below 2^b, which must all be zero, so equal packs mean equal
    vectors.  Python ints are unbounded, so no width can overflow.
    """
    rows = list(vectors) if offset is None else [*vectors, offset]
    height = max(map(abs, itertools.chain.from_iterable(rows)), default=0)
    b = (len(rows) * height).bit_length() + 1
    packed = [_pack(v, b) for v in vectors]
    target = -_pack(offset, b) if offset is not None else 0
    if not packed:
        if target == 0:
            yield 0
        return
    half, top = len(packed) // 2, len(packed) - 1
    left: dict[int, list[int]] = {}
    for i, s in enumerate(_sums(packed[:half], choices)):
        left.setdefault(s, []).append(i)
    left_masks, right_masks = _masks(half), _masks(top - half)
    last = [(target - c * packed[top], bit << top) for bit, c in enumerate(choices)]
    for j, s in enumerate(_sums(packed[half:top], choices)):
        for need, step in last:
            for i in left.get(need - s, ()):
                yield left_masks[i] | (right_masks[j] << half) | step


def _proper_vanishing_subsets(vectors):
    """Masks of the nonempty proper index subsets with exact zero sum."""
    full = (1 << len(vectors)) - 1
    return (m for m in _vanishing_masks(vectors, (0, 1)) if m not in (0, full))


def _gf2_kernel(masks: list[int]) -> list[int]:
    """Basis of {x : xor of masks[i] over set bits of x is 0}, as selector ints."""
    rows = [(m, 1 << i) for i, m in enumerate(masks)]
    basis: list[tuple[int, int]] = []  # (reduced mask, selector)
    kernel = []
    for m, sel in rows:
        for bm, bs in basis:
            low = bm & -bm
            if m & low:
                m ^= bm
                sel ^= bs
        if m == 0:
            kernel.append(sel)
        else:
            basis.append((m, sel))
    return kernel


def _find_even_subset(masks: list[int]) -> int | None:
    """Selector of a proper nonempty subset with even sum (mod-2 vanishing), or None.

    Kernel vectors are nonzero and independent, so at most one is the full
    mask, and any second one is a proper subset."""
    full = (1 << len(masks)) - 1
    return next((v for v in _gf2_kernel(masks) if v != full), None)


MAX_SUBSET_SEARCH_WEIGHT = 24
MAX_LIFT_WEIGHT = 20
MAX_PARTITION_WEIGHT = 18


def _checked(r: Relation, search: str, cap: int | None, mod2: bool, kind: str = "a valid relation"):
    """Values and power-basis vectors of r, the input of one search.

    Raises CapacityError when r is over the search's cap (None: uncapped),
    before it looks at the values, then ValueError unless the vectors vanish
    (are even, if mod2)."""
    if cap is not None and r.weight > cap:
        raise CapacityError(f"{search} capped at weight {cap}")
    values = r.values()
    vecs = _vectors(values)
    if not _vanishes(vecs, mod2):
        raise ValueError(f"input is not {kind}")
    return values, vecs


def is_indecomposable(r: Relation, mod2: bool = False) -> bool:
    """No nonempty proper sub-multiset has vanishing (resp. even) sum."""
    _, vecs = _checked(r, "subset search", MAX_SUBSET_SEARCH_WEIGHT, mod2)
    if r.weight == 0:
        return False
    if mod2:
        return _find_even_subset([_bitmask(v) for v in vecs]) is None
    return next(_proper_vanishing_subsets(vecs), None) is None


# -- enumeration of indecomposable relations at weight <= 8 -------------------

# Rotation classes of indecomposable relations of weight w rotate into +-mu_N
# for squarefree odd N with sum over p | N of (p - 2) at most w - 2 (classical
# bound, used as a pruning licence, not re-derived here).
ENUM_LEVELS = (1, 3, 5, 7, 15, 21)


@lru_cache(maxsize=None)
def _parts_by_sum(m: int, k: int) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """Power-basis sum at level 2m -> size-k exponent multisets a mod 2m
    (values zeta_2m^a in +-mu_m) holding no antipodal pair a, a + m."""
    rows = _reduction_table(2 * m)
    zero = (0,) * len(rows[0])
    out: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for part in itertools.combinations_with_replacement(range(2 * m), k):
        if not any((a + m) % (2 * m) in part for a in part):
            out.setdefault(tuple(map(sum, zip(zero, *(rows[a] for a in part)))), []).append(part)
    return out


def _vanishing_exponents(n: int, weight: int):
    """Exponents x mod 2n of the vanishing weight-w multisets {zeta_2n^x} over
    +-mu_n with no antipodal pair (w >= 3), or of {1, -1} (n = 1, w = 2).

    With p the largest prime of n and m = n / p, x = a * zeta_p^i for one a
    in +-mu_m and 0 <= i < p, and sum_i zeta_p^i S_i vanishes iff the part
    sums S_i agree.  (a) -x = (-a) * zeta_p^i lies in the same part, and
    {x, -x} is a proper vanishing sub-multiset at weight >= 3, so parts with
    an antipodal pair are skipped; over +-1 every multiset of weight >= 4
    holds one.  The common part sums of a composition of w into p part sizes
    depend only on the multiset of its sizes, so they are intersected once
    per non-increasing size tuple, whose orderings are expanded only when
    some sum is common to all its sizes."""
    if n == 1:
        if weight == 2:
            yield (0, 1)
        return
    p = max(factorize(n))
    m = n // p
    for sizes in _size_multisets(weight, p, weight):
        tables = {k: _parts_by_sum(m, k) for k in sizes}
        keys = set.intersection(*map(set, tables.values()))
        if not keys:
            continue
        for comp in dict.fromkeys(itertools.permutations(sizes)):
            for key in keys:
                for choice in itertools.product(*(tables[k][key] for k in comp)):
                    # zeta_2m^a zeta_p^i = zeta_2n^(a p + 2 m i)
                    yield tuple((a * p + 2 * m * i) % (2 * n) for i, part in enumerate(choice) for a in part)


def _size_multisets(total: int, parts: int, largest: int):
    """Non-increasing tuples of `parts` ints in 0..largest summing to total."""
    if parts == 1:
        if total <= largest:
            yield (total,)
        return
    for first in range(min(total, largest), -(-total // parts) - 1, -1):
        for rest in _size_multisets(total - first, parts - 1, first):
            yield (first,) + rest


@lru_cache(maxsize=8)
def enumerate_indecomposable(max_weight: int) -> tuple[RelationClass, ...]:
    """All rotation classes of indecomposable relations of weight <= max_weight.

    Memoized per weight bound, one entry for each of 1..8; the tuple and its
    frozen classes are shared by every caller."""
    if max_weight < 1:
        raise ValueError(f"max_weight must be in 1..8, got {max_weight}")
    if max_weight > 8:
        raise CapacityError(f"enumeration is supported for max_weight 1..8, got {max_weight}")
    found: dict[Relation, RelationClass] = {}
    for n in ENUM_LEVELS:
        level = 2 * n
        rows = _reduction_table(level)
        tested = set()
        bound = 2 + sum(p - 2 for p in factorize(n))
        for w in range(bound, max_weight + 1):
            for xs in _vanishing_exponents(n, w):
                # (b) indecomposability and canonical() are rotation invariant:
                # test one member per class under rotation by mu_2n
                key = min(tuple(sorted((x - e) % level for x in xs)) for e in set(xs))
                if key in tested:
                    continue
                tested.add(key)
                # (c) exact test on table rows; of() canonicalizes survivors once
                if next(_proper_vanishing_subsets([rows[x] for x in xs]), None) is None:
                    cls = RelationClass.of(Relation.from_values(RootOfUnity.make(x, level) for x in xs))
                    found.setdefault(cls.representative, cls)
    return tuple(sorted(found.values(), key=lambda c: (c.representative.weight, tuple(_entry_key(e) for e in c.representative.entries))))


# -- sign lifts of mod-2 relations --------------------------------------------


def _lifts(vecs):
    """Sign vectors sigma (sigma_0 = +1) with vanishing signed sum, first hit
    first; the empty relation's one lift is the empty sign vector.  Bit i of
    a mask, so bit i + 1 of mask << 1, negates vector i + 1."""
    for mask in _vanishing_masks(vecs[1:], (1, -1), offset=vecs[0] if vecs else None):
        yield [-1 if (mask << 1) >> i & 1 else 1 for i in range(len(vecs))]


def lift_mod2(r: Relation) -> Relation | None:
    """Re-sign the elements so the sum is exactly zero; None if no lift exists.

    Guaranteed to succeed for valid mod-2 relations of weight <= 18; the
    search space is the full 2^(weight-1) sign vectors with the global sign
    fixed, explored meet-in-the-middle.
    """
    values, vecs = _checked(r, "lift search", MAX_LIFT_WEIGHT, True, "a mod-2 relation")
    sigma = next(_lifts(vecs), None)
    if sigma is None:
        return None
    return Relation.make([(v, s) for v, s in zip(values, sigma)])


def lift_is_unique(r: Relation) -> bool:
    """Exactly one lift up to multiplying all signs by -1."""
    _, vecs = _checked(r, "lift search", MAX_LIFT_WEIGHT, True, "a mod-2 relation")
    return len(list(itertools.islice(_lifts(vecs), 2))) == 1


# -- conjugation-stable partitions ---------------------------------------------


def _conjugation_involution(values: list[RootOfUnity]) -> list[int]:
    """Index involution c with value[c[i]] = conjugate(value[i])."""
    by_value: dict[RootOfUnity, list[int]] = {}
    for i, v in enumerate(values):
        by_value.setdefault(v, []).append(i)
    c = [-1] * len(values)
    for v, idxs in by_value.items():
        vb = v.conjugate()
        if vb == v:
            for i in idxs:
                c[i] = i
        else:
            partners = by_value.get(vb)
            if partners is None or len(partners) != len(idxs):
                raise ValueError("relation is not stable under complex conjugation")
            for i, j in zip(idxs, partners):
                c[i] = j
    return c


def _find_indecomposable_part(masks, indices: frozenset[int]) -> frozenset[int]:
    """Shrink to an indecomposable mod-2 sub-relation of the given even-sum index set."""
    current = indices
    while True:
        order = sorted(current)
        sel = _find_even_subset([masks[i] for i in order])
        if sel is None:
            return current
        subset = frozenset(order[k] for k in range(len(order)) if (sel >> k) & 1)
        current = subset if len(subset) <= len(current) - len(subset) else current - subset


def _mod2_partition(masks, c, indices: frozenset[int]) -> list[frozenset[int]]:
    """Conjugation-stable partition into indecomposable mod-2 parts (index sets)."""
    if not indices:
        return []
    t = _find_indecomposable_part(masks, indices)
    tbar = frozenset(c[i] for i in t)
    if t == tbar or not (t & tbar):
        parts = [t] if t == tbar else [t, tbar]
        return parts + _mod2_partition(masks, c, indices - t - tbar)
    sym = t ^ tbar
    return _mod2_partition(masks, c, sym) + _mod2_partition(masks, c, indices - sym)


def conjugation_stable_partition(r: Relation, mod2: bool = False) -> list[Relation]:
    """Partition into indecomposable (mod-2) relations, the set of parts being
    stable under complex conjugation.

    The mod-2 case follows the inductive symmetric-difference argument.  The
    exact case peels the smallest vanishing sub-multiset that is either
    self-conjugate (recurse on it) or has a conjugate copy in the rest (peel
    both; it is indecomposable, as each vanishing subset of it would have
    been a smaller candidate).  A lift-based route through the mod-2
    partition is unsound: there are self-conjugate indecomposable mod-2
    relations whose unique sign lift pairs conjugate elements with opposite
    signs, so no conjugation-equivariant lift exists.

    The exact case runs the subset search once: a vanishing subset of a part
    is a vanishing subset of the whole relation, so every level of the
    recursion is an index mask, and its candidates are the whole relation's
    vanishing masks inside it, in the same (size, mask) order.
    """
    cap = None if mod2 else MAX_PARTITION_WEIGHT
    values, vecs = _checked(r, "exact conjugation-stable partition", cap, mod2)
    c = _conjugation_involution(values)
    if mod2:
        masks = [_bitmask(v) for v in vecs]
        parts = _mod2_partition(masks, c, frozenset(range(len(values))))
        return [Relation.from_values([values[i] for i in sorted(p)]) for p in parts]
    out: list[list[RootOfUnity]] = []
    _exact_partition(values, _zero_sum_subsets(vecs), (1 << len(values)) - 1, out)
    return [Relation.from_values(vs) for vs in out]


def _zero_sum_subsets(vectors) -> list[int]:
    """All proper nonempty index subsets with exact zero sum, as masks, smallest first."""
    masks = sorted(_proper_vanishing_subsets(vectors))
    masks.sort(key=int.bit_count)  # stable: (size, mask) order
    return masks


def _inside(subsets: list[int], mask: int) -> list[int]:
    """The masks of `subsets` that are proper subsets of mask, in their order."""
    return [m for m in subsets if m & mask == m and m != mask]


def _picked(values, mask: int) -> list:
    return [v for i, v in enumerate(values) if (mask >> i) & 1]


def _multiset(values) -> dict:
    out: dict = {}
    for v in values:
        out[v] = out.get(v, 0) + 1
    return out


def _exact_partition(values, subsets, mask: int, out: list[list[RootOfUnity]]) -> None:
    """Conjugation-stable refinement of the masked values, a conjugation-stable
    exact relation; subsets hold every vanishing mask inside mask, in (size,
    mask) order, and each level hands its children the ones inside it."""
    if not mask:
        return
    inner = _inside(subsets, mask)
    if not inner:
        out.append(_picked(values, mask))
        return
    total = _multiset(_picked(values, mask))
    for m in inner:
        part = _picked(values, m)
        part_ms = _multiset(part)
        conj_ms = _multiset([v.conjugate() for v in part])
        if part_ms == conj_ms:
            _exact_partition(values, inner, m, out)
            _exact_partition(values, inner, mask & ~m, out)
            return
        remainder = dict(total)
        for v, k in part_ms.items():
            remainder[v] -= k
        if all(remainder.get(v, 0) >= k for v, k in conj_ms.items()):
            # peel the part and a conjugate copy carved out of the complement.
            # The part is indecomposable: a vanishing subset s of it is
            # smaller, so it came first, and it qualified, as conj(s) lies in
            # conj(part), hence in the complement of s.
            rest = mask & ~m
            need = dict(conj_ms)
            for i, v in enumerate(values):
                if (rest >> i) & 1 and need.get(v, 0) > 0:
                    need[v] -= 1
                    rest &= ~(1 << i)
            out.append(part)
            out.append([v.conjugate() for v in part])
            _exact_partition(values, inner, rest, out)
            return
    raise ArithmeticError("no conjugation-compatible vanishing sub-multiset found")
