import itertools
import random
from collections import Counter
from functools import lru_cache, reduce

import numpy as np
import pytest

from conftest import equivariant_sign_flip, random_conjugation_stable_relation
from orderone.arith import factorize
from orderone.cyclo import _reduction_table, root_sum
from orderone import relations
from orderone.relations import (
    MAX_PARTITION_WEIGHT,
    CapacityError,
    Relation,
    RelationClass,
    conjugation_stable_partition,
    enumerate_indecomposable,
    is_indecomposable,
    lift_is_unique,
    lift_mod2,
    _pack,
    _vanishing_exponents,
    _vanishing_masks,
    _vectors,
    _zero_sum_subsets,
)
from orderone.roots import ROOT_ONE, RootOfUnity

r = RootOfUnity.make

R2 = Relation.make([(ROOT_ONE, 1), (ROOT_ONE, -1)])
R3 = Relation.from_values([r(0, 1), r(1, 3), r(2, 3)])
R5 = Relation.from_values([r(0, 1), r(1, 5), r(2, 5), r(3, 5), r(4, 5)])
R5R3 = Relation.make(
    [(r(1, 5), 1), (r(2, 5), 1), (r(3, 5), 1), (r(4, 5), 1), (r(1, 3), -1), (r(2, 3), -1)]
)


def test_relation_sum_examples():
    assert R2.sum().is_zero()
    assert R3.sum().is_zero()
    assert not Relation.from_values([r(0, 1), r(1, 5)]).sum().is_zero()


def test_split_convention():
    # a value of order 2 mod 4 is stored as minus an odd-order root
    rel = Relation.from_values([r(5, 6)])
    assert rel.entries == ((r(1, 3), -1),)
    rel8 = Relation.from_values([r(5, 8)])
    assert rel8.entries == ((r(5, 8), 1),)


def brute_force_indecomposable(rel: Relation, mod2=False) -> bool:
    values = rel.values()
    w = len(values)
    for size in range(1, w):
        for subset in itertools.combinations(range(w), size):
            s = root_sum([(1, values[i]) for i in subset])
            if (s.is_even() if mod2 else s.is_zero()):
                return False
    return True


def test_indecomposable_examples():
    assert is_indecomposable(R2)
    assert not is_indecomposable(R3.union(R2))
    assert is_indecomposable(R5R3)


@pytest.mark.parametrize("mod2", [False, True])
def test_indecomposable_against_brute_force(mod2):
    rng = random.Random(5)
    pool = [R2, R3, R5, R5R3]
    for _ in range(40):
        base = rng.choice(pool)
        zeta = r(rng.randrange(8), 8)
        rel = base.rotate(zeta)
        if rng.random() < 0.5:
            rel = rel.union(rng.choice(pool).rotate(r(rng.randrange(5), 5)))
        if mod2 and not rel.is_valid(mod2=True):
            continue
        if not mod2 and not rel.is_valid():
            continue
        assert is_indecomposable(rel, mod2=mod2) == brute_force_indecomposable(rel, mod2=mod2)


def test_non_relations_are_rejected():
    odd = Relation.from_values([r(0, 1), r(1, 5), r(4, 5)])  # -zeta^2 - zeta^3: not even
    two = Relation.from_values([r(0, 1), r(0, 1)])  # 2: a mod-2 relation only
    for mod2 in (False, True):
        with pytest.raises(ValueError, match="not a valid relation"):
            is_indecomposable(odd, mod2=mod2)
        with pytest.raises(ValueError, match="not a valid relation"):
            conjugation_stable_partition(odd, mod2=mod2)
    for search in (lift_mod2, lift_is_unique):
        with pytest.raises(ValueError, match="not a mod-2 relation"):
            search(odd)
    with pytest.raises(ValueError, match="not a valid relation"):
        is_indecomposable(two)
    with pytest.raises(ValueError, match="not a valid relation"):
        conjugation_stable_partition(two)
    assert is_indecomposable(two, mod2=True)
    assert conjugation_stable_partition(two, mod2=True) == [two]
    assert lift_mod2(two) == R2 and lift_is_unique(two)


def test_capacity_error():
    big = Relation.from_values([r(k, 29) for k in range(25)])
    with pytest.raises(CapacityError):
        is_indecomposable(big)


def test_canonicalization():
    assert R3.rotate(r(3, 7)).canonical() == R3.canonical()
    canon = R5R3.canonical()
    assert any(v.is_one() for v in canon.values())
    # canonical form is a fixed point
    assert canon.canonical() == canon


from hypothesis import given, settings
from hypothesis import strategies as st


@given(
    st.sampled_from([0, 1, 2, 3]),
    st.integers(min_value=0, max_value=104),
    st.integers(min_value=1, max_value=105),
)
@settings(max_examples=60)
def test_canonical_is_rotation_invariant(which, num, den):
    base = [R2, R3, R5, R5R3][which]
    zeta = r(num, den)
    assert base.rotate(zeta).canonical() == base.canonical()


def test_levels_are_odd_and_squarefree(weight8_classes):
    for cls in weight8_classes:
        lv = cls.representative.level()
        assert lv % 2 == 1
        for p in (3, 5, 7):
            assert lv % (p * p) != 0


EXPECTED_COUNTS = {2: 1, 3: 2, 4: 2, 5: 3, 6: 4, 7: 7, 8: 10}


@pytest.mark.parametrize("w, count", sorted(EXPECTED_COUNTS.items()))
def test_enumeration_counts(w, count):
    assert len(enumerate_indecomposable(w)) == count


def test_enumeration_smallest_cases():
    assert [c.type_label for c in enumerate_indecomposable(2)] == ["R2"]
    assert [c.type_label for c in enumerate_indecomposable(5)] == ["R2", "R3", "R5"]


def test_enumeration_is_one_shared_immutable_table(weight8_classes):
    assert enumerate_indecomposable(8) is weight8_classes
    assert isinstance(weight8_classes, tuple)
    with pytest.raises(AttributeError):
        weight8_classes.append(weight8_classes[0])


def test_enumeration_rejects_large_weight():
    with pytest.raises(CapacityError, match=r"1\.\.8, got 9$"):
        enumerate_indecomposable(9)
    with pytest.raises(ValueError, match=r"1\.\.8, got 0$"):
        enumerate_indecomposable(0)


# -- the generate-then-filter enumeration, kept as the oracle -----------------
#
# Every vanishing multiset over +-mu_n, each part a multiset over +-mu_m with
# m = n / p taken from a table keyed by its reduced sum, built as a Relation
# and tested with is_indecomposable.

ORACLE_LARGEST_PRIME = {3: 3, 5: 5, 7: 7, 15: 5, 21: 7}


def oracle_compositions(total: int, parts: int):
    """Tuples of `parts` nonnegative ints summing to total, by stars and bars."""
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        edges = (-1, *bars, total + parts - 1)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


@lru_cache(maxsize=None)
def oracle_sums_by_size(m: int, k: int):
    """Reduced sum at level 2m -> every size-k multiset over +-mu_m."""
    elements = sorted({v for j in range(m) for v in (r(j, m), r(j, m).negated())})
    out = {}
    for combo in itertools.combinations_with_replacement(elements, k):
        out.setdefault(root_sum([(1, v) for v in combo], 2 * m).reduced(), []).append(combo)
    return out


@lru_cache(maxsize=None)
def oracle_relations_at_level(n: int, weight: int) -> tuple[Relation, ...]:
    """Every vanishing multiset of the given weight over +-mu_n."""
    if n == 1:
        half = weight // 2
        return () if weight % 2 else (Relation.make([(ROOT_ONE, 1)] * half + [(ROOT_ONE, -1)] * half),)
    p = ORACLE_LARGEST_PRIME[n]
    out = []
    for comp in oracle_compositions(weight, p):
        tables = [oracle_sums_by_size(n // p, k) for k in comp]
        for key in set(tables[0]).intersection(*tables[1:]):
            for choice in itertools.product(*(t[key] for t in tables)):
                out.append(Relation.from_values(
                    v * r(i, p) for i, part in enumerate(choice) for v in part
                ))
    return tuple(out)


@lru_cache(maxsize=None)
def oracle_classes_at_level(n: int, weight: int) -> dict:
    """Canonical representative -> class of each indecomposable one."""
    out = {}
    for rel in oracle_relations_at_level(n, weight):
        if is_indecomposable(rel):
            canon = rel.canonical()
            out.setdefault(canon, RelationClass.of(canon))
    return out


def oracle_enumerate(max_weight: int) -> tuple[RelationClass, ...]:
    seen = {}
    for n in (1, *ORACLE_LARGEST_PRIME):
        bound = 2 + sum(p - 2 for p in factorize(n))
        for w in range(bound, max_weight + 1):
            for canon, cls in oracle_classes_at_level(n, w).items():
                seen.setdefault(canon, cls)
    return tuple(sorted(
        seen.values(),
        key=lambda c: (c.representative.weight, [(e.den, e.num, s < 0) for e, s in c.representative.entries]),
    ))


@pytest.mark.parametrize("w", range(1, 9))
def test_enumeration_equals_generate_then_filter_oracle(w):
    assert repr(enumerate_indecomposable(w)) == repr(oracle_enumerate(w))


def _has_antipodal_pair(rel: Relation) -> bool:
    values = set(rel.values())
    return any(v.negated() in values for v in values)


@pytest.mark.parametrize("n", [3, 5, 7, 15, 21])
def test_multisets_with_an_antipodal_pair_are_decomposable(n):
    """At weight >= 3 an antipodal pair {x, -x} is a proper vanishing
    sub-multiset; the multisets without one are those the library lists."""
    level = 2 * n
    for w in range(3, 9):
        free = []
        for rel in oracle_relations_at_level(n, w):
            if _has_antipodal_pair(rel):
                assert not is_indecomposable(rel)
            else:
                free.append(sorted(rel.values()))
        listed = [sorted(r(x, level) for x in xs) for xs in _vanishing_exponents(n, w)]
        assert sorted(listed) == sorted(free)


def test_indecomposability_is_rotation_invariant(weight8_classes):
    reps = [c.representative for c in weight8_classes]
    rng = random.Random(21)
    corpus = reps + [random_conjugation_stable_relation(rng, reps) for _ in range(60)]
    seen = set()
    for rel in corpus:
        for mod2 in (False, True):
            answer = is_indecomposable(rel, mod2=mod2)
            seen.add(answer)
            for _ in range(3):
                zeta = r(rng.randrange(840), 840)
                assert is_indecomposable(rel.rotate(zeta), mod2=mod2) == answer
    assert seen == {False, True}


def test_enumeration_outputs_are_valid(weight8_classes):
    for cls in weight8_classes:
        rel = cls.representative
        assert rel.sum().is_zero()
        assert is_indecomposable(rel)
        # classified relations at this weight have pairwise distinct elements
        values = rel.values()
        assert len(set(values)) == len(values)


def brute_force_lifts(rel: Relation):
    values = rel.values()
    w = len(values)
    found = []
    for signs in itertools.product((1, -1), repeat=w - 1):
        sigma = (1,) + signs
        if root_sum([(s, v) for s, v in zip(sigma, values)]).is_zero():
            found.append(sigma)
    return found


def test_lift_examples():
    two = Relation.make([(ROOT_ONE, 1), (ROOT_ONE, 1)])
    lifted = lift_mod2(two)
    assert lifted == R2
    m = Relation.make([(ROOT_ONE, 1), (r(1, 3), 1), (r(2, 3), -1)])
    assert lift_mod2(m) == R3


def test_lift_matches_brute_force():
    rng = random.Random(9)
    pool = [R2, R3, R5, R5R3]
    for _ in range(40):
        rel = rng.choice(pool).rotate(r(rng.randrange(15), 15))
        flipped = Relation.make([(v, rng.choice([1, -1])) for v in rel.values()])
        lifts = brute_force_lifts(flipped)
        got = lift_mod2(flipped)
        if lifts:
            assert got is not None and got.sum().is_zero()
        else:
            assert got is None
        assert lift_is_unique(flipped) == (len(lifts) == 1)


def test_no_lift_case():
    # five fifth roots shifted to a non-relation parity: 1 + 1 has the lift 1 - 1,
    # but a single root has none
    assert lift_mod2(Relation.from_values([r(0, 1), r(0, 1)])) is not None
    # {1, 1, 1, -1}: sum 2 is even; flipping one sign gives sum 0
    rel = Relation.make([(ROOT_ONE, 1)] * 3 + [(ROOT_ONE, -1)])
    assert lift_mod2(rel) is not None
    assert not lift_is_unique(rel)


def test_unique_lift_on_table(weight8_classes):
    for cls in weight8_classes:
        assert lift_is_unique(cls.representative)
        assert not lift_is_unique(cls.representative.union(R2))


def _rel(text: str) -> Relation:
    """Relation from signed roots such as "0/1 -1/3 2/3"."""
    return Relation.make(
        [(RootOfUnity.parse(t.lstrip("-")), -1 if t.startswith("-") else 1) for t in text.split()]
    )


# Relations with several lifts, and the lift the search returns first.
PINNED_LIFTS = [
    ("0/1 0/1 0/1 -0/1", "0/1 0/1 -0/1 -0/1"),
    ("0/1 0/1 0/1 -1/3 2/3", "0/1 -0/1 -0/1 -1/3 -2/3"),
    ("-0/1 1/3 1/3 1/3 -2/3", "-0/1 1/3 -1/3 -1/3 -2/3"),
    ("-0/1 -0/1 1/3 1/3 2/3 -2/3", "0/1 -0/1 1/3 -1/3 2/3 -2/3"),
    (" ".join(["0/1"] * 12), " ".join(["0/1"] * 6 + ["-0/1"] * 6)),
    ("0/1 1/5 -1/5 2/5 -2/5 -2/5 3/5 4/5 -8/15 13/15",
     "0/1 1/5 -1/5 2/5 2/5 -2/5 3/5 4/5 -8/15 -13/15"),
    ("-0/1 -0/1 1/5 1/5 2/5 -2/5 -3/5 -3/5 4/5 4/5",
     "-0/1 -0/1 -1/5 -1/5 -2/5 -2/5 -3/5 -3/5 -4/5 -4/5"),
]


@pytest.mark.parametrize("given, lifted", PINNED_LIFTS)
def test_first_lift_is_pinned(given, lifted):
    rel = _rel(given)
    assert rel.is_valid(mod2=True)
    assert lift_mod2(rel) == _rel(lifted)
    assert lift_is_unique(rel) is False


def test_many_lifts_are_not_unique():
    six_pairs = Relation.make([(ROOT_ONE, 1)] * 12)
    assert len(brute_force_lifts(six_pairs)) == 462  # C(12, 6) / 2
    assert lift_is_unique(six_pairs) is False


def brute_force_masks(vectors, choices, offset=None):
    """Every mask whose assignment vanishes, by itertools.product over all of them."""
    n = len(vectors)
    bits = np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.int64)
    sums = np.array(choices, dtype=np.int64)[bits] @ np.array(vectors, dtype=np.int64)
    if offset is not None:
        sums += np.array(offset, dtype=np.int64)
    masks = bits @ (1 << np.arange(n, dtype=np.int64))
    return sorted(masks[~sums.any(axis=1)].tolist())


def random_vectors(rng: random.Random, level: int) -> list[tuple[int, ...]]:
    """Power-basis vectors at the level, shuffled: three of a rotated R3, a
    rotated R5, the root with the tallest reduction row twice, a random root
    twice and (at even levels) a root with its negative; a third of the time
    one more random root, which leaves no vanishing sign assignment."""
    table = _reduction_table(level)
    tallest = max(range(level), key=lambda k: max(map(abs, table[k])))
    shift, k = rng.randrange(level), rng.randrange(level)
    pieces = [[(shift + j * level // p) % level for j in range(p)] for p in (3, 5)]
    pieces += [[tallest, tallest], [k, k]]
    if level % 2 == 0:
        pieces.append([k, (k + level // 2) % level])
    ks = [i for piece in rng.sample(pieces, 3) for i in piece]
    if rng.random() < 1 / 3:
        ks.append(rng.randrange(level))
    rng.shuffle(ks)
    return [table[i] for i in ks]


@pytest.mark.parametrize("level, height", [(105, 2), (420, 2), (1155, 9)])
@pytest.mark.parametrize("choices", [(0, 1), (1, -1)])
@pytest.mark.parametrize("with_offset", [False, True])
def test_vanishing_masks_against_brute_force(level, height, choices, with_offset):
    assert max(abs(x) for row in _reduction_table(level) for x in row) == height
    rng = random.Random(level * 4 + choices[1] * 2 + with_offset)
    hits = 0
    for _ in range(8):
        vecs = random_vectors(rng, level)
        offset = vecs.pop(0) if with_offset else None
        got = list(_vanishing_masks(vecs, choices, offset))
        assert len(got) == len(set(got))
        assert sorted(got) == brute_force_masks(vecs, choices, offset)
        hits += sum(1 for m in got if m)
    assert hits >= 4  # not only the empty subset


# -- the tuple scan, kept as the oracle of the scan order ----------------------
#
# Every assignment carried as a (packed sum, mask) tuple; the library carries
# bare sums and decodes a mask from its index only on a hit.


def tuple_assignments(packed, choices):
    """(packed sum, mask) of every assignment, bit i picking choices[bit] for vector i.

    Lexicographic order, vector 0 most significant and choices in the given order.
    """
    sums = [(0, 0)]
    for pos, v in enumerate(packed):
        moves = [(c * v, bit << pos) for bit, c in enumerate(choices)]
        sums = [(s + d, m | step) for s, m in sums for d, step in moves]
    return sums


def tuple_vanishing_masks(vectors, choices, offset=None):
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
    left = {}
    for s, m in tuple_assignments(packed[:half], choices):
        left.setdefault(s, []).append(m)
    last = [(target - c * packed[top], bit << top) for bit, c in enumerate(choices)]
    for s, mr in tuple_assignments(packed[half:top], choices):
        for need, step in last:
            for ml in left.get(need - s, ()):
                yield ml | (mr << half) | step


@pytest.mark.parametrize("level", [105, 420, 1155])
@pytest.mark.parametrize("choices", [(0, 1), (1, -1)])
@pytest.mark.parametrize("with_offset", [False, True])
def test_vanishing_masks_scan_order_is_the_tuple_scan(level, choices, with_offset):
    """Same masks in the same order, so every first hit (a lift, a vanishing
    subset) is the one the tuple scan finds first."""
    rng = random.Random(level * 4 + choices[1] * 2 + with_offset)
    hits = 0
    for _ in range(16):
        vecs = random_vectors(rng, level)
        offset = vecs.pop(0) if with_offset else None
        want = list(tuple_vanishing_masks(vecs, choices, offset))
        assert list(_vanishing_masks(vecs, choices, offset)) == want
        hits += len(want) > 1
    assert hits >= 2  # orders of several hits are compared


def test_vanishing_masks_edges():
    assert list(_vanishing_masks([], (0, 1))) == [0]
    assert list(_vanishing_masks([], (1, -1), offset=(1, 0))) == []
    assert list(_vanishing_masks([(1, 0)], (1, -1), offset=(1, 0))) == [1]
    # nonzero sums that pack to 0 at too narrow a width: (8, -1) at the width
    # 3 that the row count alone gives, (4, -1) at the width 2 that M alone gives
    assert list(_vanishing_masks([(8, 0), (0, -1)], (0, 1))) == [0]
    assert list(_vanishing_masks([(1, 0)] * 4 + [(0, -1)], (0, 1))) == [0]


def test_lift_capacity():
    big = Relation.from_values([r(k, 23) for k in range(21)])
    with pytest.raises(CapacityError):
        lift_mod2(big)


def test_anti_equivariant_unique_lift_exists():
    """A self-conjugate indecomposable mod-2 relation whose unique lift gives
    conjugate elements opposite signs; lift-based conjugation-stable splitting
    would fail on it, which is why the partition peels sub-relations instead."""
    rel = Relation.from_values(
        [r(5, 12), r(7, 12), r(9, 28), r(19, 28)]
        + [r(k, 84) for k in (11, 23, 25, 37, 47, 59, 61, 73)]
    )
    assert rel.is_valid(mod2=True)
    assert is_indecomposable(rel, mod2=True)
    assert lift_is_unique(rel)
    values = rel.values()
    from orderone.relations import _lifts, _vectors

    sigma = dict(zip(values, next(_lifts(_vectors(values)))))
    assert all(sigma[v.conjugate()] == -sigma[v] for v in values)
    # the conjugation-stable partition still succeeds: the relation is one part
    parts = conjugation_stable_partition(rel, mod2=True)
    assert len(parts) == 1


def _check_partition(rel, parts, mod2):
    total = []
    for q in parts:
        assert q.is_valid(mod2=mod2)
        assert is_indecomposable(q, mod2=mod2)
        total.extend(q.values())
    assert sorted(total) == sorted(rel.values())
    canon = sorted(tuple(sorted(q.values())) for q in parts)
    conj = sorted(tuple(sorted(v.conjugate() for v in q.values())) for q in parts)
    assert canon == conj


def test_partition_examples():
    assert conjugation_stable_partition(R2) == [R2]
    parts = conjugation_stable_partition(R3.union(R2))
    assert sorted(p.weight for p in parts) == [2, 3]
    _check_partition(R3.union(R2), parts, mod2=False)


def test_partition_rejects_unstable():
    with pytest.raises(ValueError):
        conjugation_stable_partition(R5R3.rotate(r(1, 7)))


def test_partitions_on_random_corpus(weight8_classes):
    reps = [c.representative for c in weight8_classes]
    rng = random.Random(12)
    for _ in range(150):
        rel = random_conjugation_stable_relation(rng, reps)
        parts = conjugation_stable_partition(rel)
        _check_partition(rel, parts, mod2=False)
        flipped = equivariant_sign_flip(rng, rel)
        mparts = conjugation_stable_partition(flipped, mod2=True)
        _check_partition(flipped, mparts, mod2=True)


# -- the value-recursive partition, kept as the oracle ------------------------
#
# Every level of the recursion is a list of values and runs its own subset
# search; the library runs one search per relation and recurses on masks.


def oracle_zero_sum_subsets(values) -> list[int]:
    full = (1 << len(values)) - 1
    masks = [m for m in _vanishing_masks(_vectors(values), (0, 1)) if m not in (0, full)]
    return sorted(masks, key=lambda m: (bin(m).count("1"), m))


def oracle_plain_partition(values, out) -> None:
    if not values:
        return
    subsets = oracle_zero_sum_subsets(values)
    if not subsets:
        out.append(list(values))
        return
    m = subsets[0]
    out.append([v for i, v in enumerate(values) if (m >> i) & 1])
    oracle_plain_partition([v for i, v in enumerate(values) if not (m >> i) & 1], out)


def oracle_exact_partition(values, out) -> None:
    if not values:
        return
    subsets = oracle_zero_sum_subsets(values)
    if not subsets:
        out.append(list(values))
        return
    total = Counter(values)
    for m in subsets:
        part = [v for i, v in enumerate(values) if (m >> i) & 1]
        part_ms = Counter(part)
        conj_ms = Counter([v.conjugate() for v in part])
        if part_ms == conj_ms:
            oracle_exact_partition(part, out)
            oracle_exact_partition([v for i, v in enumerate(values) if not (m >> i) & 1], out)
            return
        remainder = dict(total)
        for v, k in part_ms.items():
            remainder[v] -= k
        if all(remainder.get(v, 0) >= k for v, k in conj_ms.items()):
            rest, need = [], dict(conj_ms)
            for i, v in enumerate(values):
                if (m >> i) & 1:
                    continue
                if need.get(v, 0) > 0:
                    need[v] -= 1
                else:
                    rest.append(v)
            sub = []
            oracle_plain_partition(part, sub)
            out.extend(sub)
            out.extend([[v.conjugate() for v in p] for p in sub])
            oracle_exact_partition(rest, out)
            return
    raise ArithmeticError("no conjugation-compatible vanishing sub-multiset found")


# repeated values, as in the relations of the 16 terms of g at its zeros:
# thousands of vanishing subsets, and parts of several types
MANY_SUBSETS = [
    reduce(Relation.union, [R2] * 8),
    reduce(Relation.union, [R2] * 4 + [R2.rotate(r(1, 4))] * 4),
    reduce(Relation.union, [R3] * 2 + [R3.rotate(r(1, 2))] * 2 + [R2] * 3),
    reduce(Relation.union, [R5, R5.rotate(r(1, 2))] + [R2] * 4),
]


def test_partition_equals_value_recursive_oracle(weight8_classes):
    reps = [c.representative for c in weight8_classes]
    rng = random.Random(24)
    corpus = MANY_SUBSETS + [random_conjugation_stable_relation(rng, reps) for _ in range(320)]
    assert len(_zero_sum_subsets(_vectors(MANY_SUBSETS[0].values()))) > 10000
    peeled = 0
    for rel in corpus:
        out = []
        oracle_exact_partition(rel.values(), out)
        want = [Relation.from_values(vs) for vs in out]
        assert repr(conjugation_stable_partition(rel)) == repr(want)
        peeled += len(want) >= 3
    assert peeled >= 50  # many relations recurse more than one level


def test_partition_searches_subsets_once(monkeypatch):
    calls = []
    search = relations._vanishing_masks

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(relations, "_vanishing_masks", counted)
    r3 = R3.rotate(r(1, 7))
    rel = r3.union(r3.conjugate()).union(R2.rotate(r(1, 4))).union(R5)
    parts = conjugation_stable_partition(rel)
    assert len(calls) == 1
    assert len(parts) == 4
    _check_partition(rel, parts, mod2=False)


def test_partition_weight_cap():
    assert MAX_PARTITION_WEIGHT == 18
    ten = Relation.make([(ROOT_ONE, 1), (ROOT_ONE, -1)] * 10)
    with pytest.raises(CapacityError, match="capped at weight 18"):
        conjugation_stable_partition(ten)
    assert [p.weight for p in conjugation_stable_partition(ten, mod2=True)] == [2] * 10
    # the cap is checked before the input is: not a relation, not stable
    with pytest.raises(CapacityError):
        conjugation_stable_partition(Relation.from_values([r(k, 29) for k in range(19)]))
    nine = Relation.make([(ROOT_ONE, 1), (ROOT_ONE, -1)] * 9)
    assert conjugation_stable_partition(nine) == [R2] * 9


def test_relation_class_labels(weight8_classes):
    labels = sorted(c.type_label for c in weight8_classes)
    assert labels == sorted(
        ["R2", "R3", "R5", "(R5:R3)", "R7", "(R5:2R3)", "(R5:2R3)",
         "(R5:3R3)", "(R5:3R3)", "(R7:R3)"]
    )
