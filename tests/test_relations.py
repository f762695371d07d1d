import itertools
import random

import numpy as np
import pytest

from conftest import equivariant_sign_flip, random_conjugation_stable_relation
from orderone.cyclo import _reduction_table, root_sum
from orderone.relations import (
    CapacityError,
    Relation,
    conjugation_stable_partition,
    enumerate_indecomposable,
    is_indecomposable,
    lift_is_unique,
    lift_mod2,
    _vanishing_masks,
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


def test_enumeration_rejects_large_weight():
    with pytest.raises(CapacityError):
        enumerate_indecomposable(9)


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
    from orderone.relations import _lifts

    sigma = dict(zip(values, next(_lifts(values))))
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


def test_relation_class_labels(weight8_classes):
    labels = sorted(c.type_label for c in weight8_classes)
    assert labels == sorted(
        ["R2", "R3", "R5", "(R5:R3)", "R7", "(R5:2R3)", "(R5:2R3)",
         "(R5:3R3)", "(R5:3R3)", "(R7:R3)"]
    )
