"""Cyclotomic relations: multisets of signed roots of unity with vanishing
(or mod-2 vanishing) sum, their classification at small weight, sign lifts,
and conjugation-stable partitions.

Every exact search is one meet-in-the-middle, `_vanishing_masks`: subsets of
a multiset (each entry taken 0 or 1 times) and sign lifts (each entry taken
+1 or -1 times, the first sign fixed) both ask which assignments of a choice
set make a sum of power-basis vectors vanish.  Vectors are packed into one
Python int each, so a vector sum is one integer addition; the packing width
is derived from the inputs, so every sum the search forms packs injectively.
The tables and the scan keep a fixed order, so a first-hit search (a lift, a
vanishing subset) returns the same answer on every run.  The mod-2 searches
are linear algebra over GF(2) and do not use it.

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

from .cyclo import CycInt, reduced_root_vector, root_sum
from .roots import ROOT_ONE, RootOfUnity


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
        if not self.entries:
            return CycInt.zero()
        return root_sum([(s, r) for r, s in self.entries])

    def is_valid(self, mod2: bool = False) -> bool:
        return self.sum().is_even() if mod2 else self.sum().is_zero()

    def conjugate(self) -> "Relation":
        return Relation.from_values([v.conjugate() for v in self.values()])

    def rotate(self, zeta: RootOfUnity) -> "Relation":
        return Relation.from_values([v * zeta for v in self.values()])

    def canonical(self) -> "Relation":
        """Lexicographically minimal rotation; always contains the entry +1."""
        if not self.entries:
            return self
        best = None
        for v in self.values():
            cand = self.rotate(v.inverse())
            key = tuple(_entry_key(e) for e in cand.entries)
            if best is None or key < best[0]:
                best = (key, cand)
        return best[1]

    def level(self) -> int:
        """Odd part of the lcm of element orders, minimized over rotations.

        Surrogate conductor for mod-2 relations: tested properties are that it
        is odd and squarefree on every classified input.
        """
        if not self.entries:
            return 1
        best = None
        for v in self.values():
            rot = self.rotate(v.inverse())
            m = math.lcm(*(w.den for w in rot.values()))
            while m % 2 == 0:
                m //= 2
            best = m if best is None else min(best, m)
        return best

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


def _bitmask(vec: tuple[int, ...]) -> int:
    m = 0
    for i, x in enumerate(vec):
        if x % 2:
            m |= 1 << i
    return m


def _assignments(packed: list[int], choices) -> list[tuple[int, int]]:
    """(packed sum, mask) of every assignment, bit i picking choices[bit] for vector i.

    Lexicographic order, vector 0 most significant and choices in the given order.
    """
    sums = [(0, 0)]
    for pos, v in enumerate(packed):
        moves = [(c * v, bit << pos) for bit, c in enumerate(choices)]
        sums = [(s + d, m | step) for s, m in sums for d, step in moves]
    return sums


@lru_cache(maxsize=4096)
def _pack(vec: tuple[int, ...], b: int) -> int:
    return sum(x << (b * i) for i, x in enumerate(vec) if x)


def _vanishing_masks(vectors, choices, offset=None):
    """Yield every mask whose assignment makes offset + sum c_i * v_i vanish.

    c_i is choices[(mask >> i) & 1], and each choice is 0, 1 or -1: (0, 1)
    searches subsets, (1, -1) signs.  Meet-in-the-middle: the assignments of
    the first len // 2 vectors are tabled by sum; those of the rest but the
    last are listed, and each is completed by every choice for the last
    vector and looked up as it is formed, so a caller that stops at its
    first hit stops early.  Both halves run in lexicographic order (vector 0
    first, choices in the given order), so the first hit pairs the first
    right half that has a completion with the first such completion.

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
    for s, m in _assignments(packed[:half], choices):
        left.setdefault(s, []).append(m)
    last = [(target - c * packed[top], bit << top) for bit, c in enumerate(choices)]
    for s, mr in _assignments(packed[half:top], choices):
        for need, step in last:
            for ml in left.get(need - s, ()):
                yield ml | (mr << half) | step


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
    """Selector of a proper nonempty subset with even sum (mod-2 vanishing), or None."""
    w = len(masks)
    full = (1 << w) - 1
    kernel = _gf2_kernel(masks)
    for v in kernel:
        if v not in (0, full):
            return v
    if len(kernel) >= 2:
        v = kernel[0] ^ kernel[1]
        if v not in (0, full):
            return v
    return None


MAX_SUBSET_SEARCH_WEIGHT = 24
MAX_LIFT_WEIGHT = 20


def is_indecomposable(r: Relation, mod2: bool = False) -> bool:
    """No nonempty proper sub-multiset has vanishing (resp. even) sum."""
    if r.weight > MAX_SUBSET_SEARCH_WEIGHT:
        raise CapacityError(f"subset search capped at weight {MAX_SUBSET_SEARCH_WEIGHT}")
    if not r.is_valid(mod2):
        raise ValueError("input is not a valid relation")
    if r.weight == 0:
        return False
    vecs = _vectors(r.values())
    if mod2:
        return _find_even_subset([_bitmask(v) for v in vecs]) is None
    return next(_proper_vanishing_subsets(vecs), None) is None


# -- enumeration of indecomposable relations at weight <= 8 -------------------

# Rotation classes of indecomposable relations of weight w rotate into +-mu_N
# for squarefree odd N with sum over p | N of (p - 2) at most w - 2 (classical
# bound, used as a pruning licence, not re-derived here).
ENUM_LEVELS = (1, 3, 5, 7, 15, 21)
_LARGEST_PRIME = {3: 3, 5: 5, 7: 7, 15: 5, 21: 7}


def _pm_elements(m: int) -> list[RootOfUnity]:
    out = []
    for k in range(m):
        r = RootOfUnity.make(k, m)
        out.append(r)
        out.append(r.negated())
    return sorted(set(out))


@lru_cache(maxsize=None)
def _sums_by_size(m: int, k: int):
    """dict: reduced-sum key at level 2m -> list of size-k multisets over +-mu_m."""
    level = 2 * m if m % 2 else m
    elements = _pm_elements(m)
    out: dict[tuple[int, ...], list[tuple[RootOfUnity, ...]]] = {}
    zero = root_sum([], level).reduced()
    if k == 0:
        return {zero: [()]}
    for combo in itertools.combinations_with_replacement(elements, k):
        key = root_sum([(1, v) for v in combo], level).reduced()
        out.setdefault(key, []).append(combo)
    return out


def _relations_at_level(n: int, weight: int) -> list[Relation]:
    """All vanishing-sum multisets of the given weight over +-mu_n."""
    if n == 1:
        if weight % 2:
            return []
        half = weight // 2
        return [Relation.make([(ROOT_ONE, 1)] * half + [(ROOT_ONE, -1)] * half)]
    p = _LARGEST_PRIME[n]
    m = n // p
    out = []
    zeta_p = RootOfUnity.make(1, p)
    for comp in _compositions(weight, p):
        tables = [_sums_by_size(m, k) for k in comp]
        common = set(tables[0].keys())
        for t in tables[1:]:
            common &= set(t.keys())
            if not common:
                break
        for key in common:
            for choice in itertools.product(*(t[key] for t in tables)):
                values = []
                for i, part in enumerate(choice):
                    shift = zeta_p ** i
                    values.extend(v * shift for v in part)
                out.append(Relation.from_values(values))
    return out


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_indecomposable(max_weight: int) -> list[RelationClass]:
    """All rotation classes of indecomposable relations of weight <= max_weight."""
    if not 1 <= max_weight <= 8:
        raise CapacityError("enumeration is supported up to weight 8")
    seen: dict[tuple, RelationClass] = {}
    for n in ENUM_LEVELS:
        bound = 2 + sum(p - 2 for p in _prime_factors(n))
        for w in range(2, max_weight + 1):
            if w < bound:
                continue
            for rel in _relations_at_level(n, w):
                if not is_indecomposable(rel):
                    continue
                canon = rel.canonical()
                key = tuple(_entry_key(e) for e in canon.entries)
                if key not in seen:
                    seen[key] = RelationClass.of(canon)
    return sorted(seen.values(), key=lambda c: (c.representative.weight, tuple(_entry_key(e) for e in c.representative.entries)))


def _prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


# -- sign lifts of mod-2 relations --------------------------------------------


def _lifts(values: list[RootOfUnity]):
    """Sign vectors sigma (sigma_0 = +1) with vanishing signed sum, first hit first."""
    vecs = _vectors(values)
    for mask in _vanishing_masks(vecs[1:], (1, -1), offset=vecs[0]):
        yield [1] + [-1 if (mask >> i) & 1 else 1 for i in range(len(values) - 1)]


def lift_mod2(r: Relation) -> Relation | None:
    """Re-sign the elements so the sum is exactly zero; None if no lift exists.

    Guaranteed to succeed for valid mod-2 relations of weight <= 18; the
    search space is the full 2^(weight-1) sign vectors with the global sign
    fixed, explored meet-in-the-middle.
    """
    if r.weight > MAX_LIFT_WEIGHT:
        raise CapacityError(f"lift search capped at weight {MAX_LIFT_WEIGHT}")
    if not r.is_valid(mod2=True):
        raise ValueError("input is not a mod-2 relation")
    if r.weight == 0:
        return r
    values = r.values()
    sigma = next(_lifts(values), None)
    if sigma is None:
        return None
    return Relation.make([(v, s) for v, s in zip(values, sigma)])


def lift_is_unique(r: Relation) -> bool:
    """Exactly one lift up to multiplying all signs by -1."""
    if r.weight > MAX_LIFT_WEIGHT:
        raise CapacityError(f"lift search capped at weight {MAX_LIFT_WEIGHT}")
    if not r.is_valid(mod2=True):
        raise ValueError("input is not a mod-2 relation")
    if r.weight == 0:
        return True
    return len(list(itertools.islice(_lifts(r.values()), 2))) == 1


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
    exact case peels vanishing sub-multisets that are either self-conjugate
    (recurse on them) or value-disjoint from their conjugate (mirror an
    arbitrary indecomposable refinement onto the conjugate copy).  A lift-based
    route through the mod-2 partition is unsound: there are self-conjugate
    indecomposable mod-2 relations whose unique sign lift pairs conjugate
    elements with opposite signs, so no conjugation-equivariant lift exists.
    """
    if not r.is_valid(mod2=mod2):
        raise ValueError("input is not a valid relation")
    values = r.values()
    c = _conjugation_involution(values)
    vecs = _vectors(values)
    masks = [_bitmask(v) for v in vecs]
    if mod2:
        parts = _mod2_partition(masks, c, frozenset(range(len(values))))
        return [Relation.from_values([values[i] for i in sorted(p)]) for p in parts]
    if r.weight > 18:
        raise CapacityError("exact conjugation-stable partition capped at weight 18")
    out: list[list[RootOfUnity]] = []
    _exact_partition(values, out)
    return [Relation.from_values(vs) for vs in out]


def _zero_sum_subsets(vectors) -> list[int]:
    """All proper nonempty index subsets with exact zero sum, as masks, smallest first."""
    return sorted(_proper_vanishing_subsets(vectors), key=lambda m: (bin(m).count("1"), m))


def _plain_partition(values: list[RootOfUnity], out: list[list[RootOfUnity]]) -> None:
    """Partition into indecomposable exact relations, no conjugation constraint."""
    if not values:
        return
    vecs = _vectors(values)
    subsets = _zero_sum_subsets(vecs)
    if not subsets:
        out.append(list(values))
        return
    m = subsets[0]  # minimal size, hence indecomposable
    part = [v for i, v in enumerate(values) if (m >> i) & 1]
    rest = [v for i, v in enumerate(values) if not (m >> i) & 1]
    out.append(part)
    _plain_partition(rest, out)


def _multiset(values) -> dict:
    out: dict = {}
    for v in values:
        out[v] = out.get(v, 0) + 1
    return out


def _exact_partition(values: list[RootOfUnity], out: list[list[RootOfUnity]]) -> None:
    """Conjugation-stable refinement of a conjugation-stable exact relation."""
    if not values:
        return
    vecs = _vectors(values)
    subsets = _zero_sum_subsets(vecs)
    if not subsets:
        out.append(list(values))
        return
    total = _multiset(values)
    for m in subsets:
        part = [v for i, v in enumerate(values) if (m >> i) & 1]
        part_ms = _multiset(part)
        conj_ms = _multiset([v.conjugate() for v in part])
        if part_ms == conj_ms:
            rest = [v for i, v in enumerate(values) if not (m >> i) & 1]
            _exact_partition(part, out)
            _exact_partition(rest, out)
            return
        remainder = dict(total)
        for v, k in part_ms.items():
            remainder[v] -= k
        if all(remainder.get(v, 0) >= k for v, k in conj_ms.items()):
            # carve a conjugate copy out of the complement, mirror the refinement
            rest = []
            need = dict(conj_ms)
            mirror: list[RootOfUnity] = []
            for i, v in enumerate(values):
                if (m >> i) & 1:
                    continue
                if need.get(v, 0) > 0:
                    need[v] -= 1
                    mirror.append(v)
                else:
                    rest.append(v)
            sub: list[list[RootOfUnity]] = []
            _plain_partition(part, sub)
            out.extend(sub)
            out.extend([[v.conjugate() for v in p] for p in sub])
            _exact_partition(rest, out)
            return
    raise ArithmeticError("no conjugation-compatible vanishing sub-multiset found")
