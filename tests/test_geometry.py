import math
import random
import sys

import pytest

from orderone import geometry
from orderone.arith import divisors
from orderone.geometry import (
    EXPECTED_GEOM_PAIRS,
    build_reports,
    default_m_set,
    f_from_formula,
    f_oracle,
    geom_isogenous,
    geometric_isogeny_pairs,
    ordinary_xor_geom_simple,
)
from orderone.intpoly import IntPoly, radical
from orderone.madanpal import build_record
from orderone.weil import base_extension, real_to_weil, F2
from polyroutes import from_power_sums_mod_p


def test_formula_case_split():
    assert f_from_formula(8) == 1
    assert f_from_formula(16) == 1
    assert f_from_formula(2) == 1
    assert f_from_formula(4) == 2
    assert f_from_formula(7) == 3
    assert f_from_formula(30) == 4
    for n in (3, 5, 6, 9, 10, 11, 12, 15):
        assert f_from_formula(n) == 2
    # the n = 1 class is supersingular of dimension 2, geometrically a square
    assert f_from_formula(1) == 2


def test_default_m_set_contains_parametric_orders():
    for n in (11, 22, 25, 29, 31):
        ms = default_m_set(n)
        assert 2520 in ms, n
        assert any(m % (2 * n) == 0 or m % n == 0 for m in ms), n


def naive_oracle(weil, m_set):
    """Plain radical-degree profile, expanded exactly for every m."""
    from orderone.geometry import _extension_exponent

    d = weil.degree()
    best, best_m = 1, 1
    for m in sorted(m_set):
        ext = base_extension(weil, m)
        rad = radical(ext)
        em = _extension_exponent(rad, m)
        fm = d // (em * rad.degree())
        if fm > best:
            best, best_m = fm, m
    return best, best_m


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_oracle_matches_naive_profile(n):
    rec = build_record(n)
    for factor in set(rec.simple_factors):
        weil = real_to_weil(factor, F2)
        small = [m for m in default_m_set(n) if m <= 64]
        got = f_oracle(weil, small)
        want = naive_oracle(weil, small)
        assert got[0] == want[0]
        assert got[1] == want[1]


def test_oracle_exceptional_class():
    # Weil polynomial (x^2-2)^2: exponent 2 over the prime field, and the
    # extension at m = 2 is the square of a rational point class.  Its radical
    # x^2 - 2 is no simple class's Weil polynomial: the multiplicity at m = 1
    # would be 2 / (2 * 2), which is not an integer.
    ms = [1, 2, 3, 4, 6, 8]
    assert f_oracle(IntPoly([4, 0, -4, 0, 1]), ms) == (2, 2)
    with pytest.raises(ArithmeticError, match="not an integer"):
        f_oracle(IntPoly([-2, 0, 1]), ms)


def test_only_the_first_class_has_a_non_squarefree_weil_polynomial():
    """Every factor's Weil polynomial for n <= 64 is squarefree, by the PRS
    radical, except n = 1's (x^2 - 2)^2; the oracle reads both kinds as they are."""
    square = {
        (n, r.weil) for n in range(1, 65) for r in build_reports(n) if radical(r.weil) != r.weil
    }
    assert square == {(1, IntPoly([4, 0, -4, 0, 1]))}


def test_oracle_examples_from_reports():
    for rep in build_reports(7):
        assert rep.f_oracle == 3
        assert rep.stabilizing_m == 7
    (rep3,) = build_reports(3)
    assert rep3.f_oracle == 2
    (rep8,) = build_reports(8)
    assert rep8.f_oracle == 1 and rep8.geom_simple


@pytest.mark.parametrize("n", list(range(1, 33)))
def test_formula_equals_oracle(n):
    for rep in build_reports(n):
        assert rep.f_formula == rep.f_oracle, (n, rep)


def test_formula_equals_oracle_up_to_64():
    mismatches = [(n, r.f_formula, r.f_oracle) for n in range(1, 65) for r in build_reports(n)
                  if not r.consistent]
    assert mismatches == []


def test_geom_isogenous_examples():
    assert geom_isogenous(1, 2) is True
    assert geom_isogenous(6, 7) is True
    assert geom_isogenous(3, 5) is False
    assert geom_isogenous(7, 7) is True
    assert geom_isogenous(2, 2) is False  # both factors are the same class


def test_geom_isogenous_symmetric():
    assert geom_isogenous(1, 4) == geom_isogenous(4, 1)
    assert geom_isogenous(3, 30) == geom_isogenous(30, 3)


def _clear_geometry_caches():
    """Empty every geometry memo: the lru_caches and the screen's extensions."""
    for cached in [f for f in vars(geometry).values() if hasattr(f, "cache_clear")]:
        cached.cache_clear()
    geometry._SCREEN_MEMO.clear()


def test_decompose_pass_runs_no_prs_radical(monkeypatch):
    """The reports for n <= 32 and the pair table for n <= 30 read each
    factor's Weil polynomial as it is: the PRS radical runs nowhere, counted at
    every orderone name it is bound to, from cold geometry caches on."""
    calls = []
    for name, mod in list(sys.modules.items()):
        if (name == "orderone" or name.startswith("orderone.")) and getattr(mod, "radical", None) is radical:
            monkeypatch.setattr(mod, "radical", lambda f: calls.append(f) or radical(f))
    assert geometry.radical is not radical
    _clear_geometry_caches()
    for n in range(1, 33):
        build_reports(n)
    assert geometric_isogeny_pairs(30) == set(EXPECTED_GEOM_PAIRS)
    assert calls == []


@pytest.mark.parametrize("n", list(range(1, 33)))
def test_ordinary_xor_geom_simple(n):
    assert ordinary_xor_geom_simple(n)


def test_np_geom_simple_powers_of_two():
    from orderone.weil import np_forces_geom_simple

    for n in (8, 16, 32, 64):
        rec = build_record(n)
        assert np_forces_geom_simple(rec.newton), n


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert len(divisors(2520)) == 48


def test_modular_radical_degree_matches_exact():
    """The modular profile must never exceed the exact radical degree, and for
    good primes it matches exactly; both facts are what the certification uses."""
    from orderone.geometry import PROFILE_PRIMES, _radical_degree_profile
    from orderone.intpoly import radical as exact_radical

    ms = (1, 2, 3, 4, 6, 7, 8, 12, 14, 24, 30)
    for n in (1, 2, 3, 4, 5, 7, 8, 12):
        rec = build_record(n)
        for factor in set(rec.simple_factors):
            q0 = radical(real_to_weil(factor, F2))
            profiles = [_radical_degree_profile(q0, ms, p) for p in PROFILE_PRIMES]
            for m in ms:
                exact = exact_radical(base_extension(q0, m)).degree()
                for p, profile in zip(PROFILE_PRIMES, profiles):
                    modular = profile[m]
                    assert modular <= exact
                    assert modular == exact, (n, m, p)


# -- independent per-m route: x^m mod (q0, p) by repeated squaring ---------------


def _poly_mulmod(a, b, mod_coeffs, p):
    """Product of coefficient lists a*b modulo (monic mod_coeffs, p)."""
    d = len(mod_coeffs) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    for k in range(len(out) - 1, d - 1, -1):
        c = out[k]
        if c:
            out[k] = 0
            for j in range(d):
                out[k - d + j] = (out[k - d + j] - c * mod_coeffs[j]) % p
    return [c % p for c in out[:d]] + [0] * max(0, d - len(out))


def _powmod_x(m, mod_coeffs, p):
    d = len(mod_coeffs) - 1
    result = [1] + [0] * (d - 1)
    base = ([0, 1] + [0] * (d - 2))[:d] if d >= 2 else [(-mod_coeffs[0]) % p]
    while m:
        if m & 1:
            result = _poly_mulmod(result, base, mod_coeffs, p)
        base = _poly_mulmod(base, base, mod_coeffs, p)
        m >>= 1
    return result


def _radical_degree_mod_p(q0, m, p):
    """Degree of the squarefree part of the m-th base extension, modulo p,
    with the traces of x^(m j) taken from x^m mod q0."""
    from orderone.geometry import _gcd_degree_mod_p
    from orderone.intpoly import power_sums

    d = q0.degree()
    mod_coeffs = [c % p for c in q0.coeffs]
    base_ps = [s % p for s in power_sums(q0, d)]
    traces = [d % p] + base_ps[: d - 1]
    xm = _powmod_x(m, mod_coeffs, p)
    cur = [1] + [0] * (d - 1)
    ext_ps = []
    for _ in range(d):
        cur = _poly_mulmod(cur, xm, mod_coeffs, p)
        ext_ps.append(sum(c * t for c, t in zip(cur, traces)) % p)
    coeffs = [1] + [0] * d
    for k in range(1, d + 1):
        acc = ext_ps[k - 1]
        for i in range(1, k):
            acc = (acc + coeffs[i] * ext_ps[k - i - 1]) % p
        coeffs[k] = (-acc * pow(k, p - 2, p)) % p
    ext = [coeffs[d - i] for i in range(d + 1)]
    der = [(i * c) % p for i, c in enumerate(ext)][1:]
    gdeg = _gcd_degree_mod_p(ext, der, p)
    return d - max(gdeg, 0)


def _class_radicals(n):
    return [radical(real_to_weil(f, F2)) for f in dict.fromkeys(build_record(n).simple_factors)]


@pytest.mark.parametrize("n", list(range(1, 17)))
def test_profile_table_matches_per_m_route(n):
    from orderone.geometry import PROFILE_PRIMES, _radical_degree_profile

    ms = default_m_set(n)
    for q0 in _class_radicals(n):
        for p in PROFILE_PRIMES:
            profile = _radical_degree_profile(q0, ms, p)
            assert profile == {m: _radical_degree_mod_p(q0, m, p) for m in ms}, (n, p)


BLOCK = 256  # power sums produced per matrix-vector product


def power_sum_table(q0, count, p):
    """Dense power sums p_0..p_count of the roots of monic q0 mod p, as int64;
    past p_d they follow p_j = -(c_0 p_{j-d} + ... + c_{d-1} p_{j-1}), one
    block per matrix-vector product.  The oracle for the sparse reader."""
    import numpy as np

    from orderone.intpoly import power_sums

    d = q0.degree()
    table = np.empty(count + 1, dtype=np.int64)
    table[0] = d % p
    table[1:d + 1] = [s % p for s in power_sums(q0, min(d, count))]
    # row t expresses p_{k-d+1+t} through the state (p_{k-d+1}, ..., p_k)
    rows = np.eye(d + BLOCK, d, dtype=np.int64)
    step = np.array([-c % p for c in q0.coeffs[:d]], dtype=np.int64)
    for t in range(d, d + BLOCK):
        rows[t] = (step @ rows[t - d:t]) % p
    rows = rows[d:]
    for k in range(d, count, BLOCK):
        size = min(BLOCK, count - k)
        table[k + 1:k + 1 + size] = (rows[:size] @ table[k - d + 1:k + 1]) % p
    return table


def newton_gcd_profile(q0, m_set, p):
    """Radical-degree profile by the per-m route: Newton inversion of
    p_m, ..., p_dm mod p to the m-th extension, then d - deg gcd(ext, ext')."""
    from orderone.geometry import _gcd_degree_mod_p

    d = q0.degree()
    table = power_sum_table(q0, d * max(m_set), p)
    out = {}
    for m in m_set:
        ext = from_power_sums_mod_p(table[m:m * d + 1:m].tolist(), p)
        der = [(i * c) % p for i, c in enumerate(ext)][1:]
        out[m] = d - max(_gcd_degree_mod_p(ext, der, p), 0)
    return out


@pytest.mark.parametrize("n", list(range(1, 65)))
def test_profile_matches_newton_gcd_route(n):
    """Berlekamp-Massey on the power sums gives the per-m profile: at all three
    primes for n <= 32, at PROFILE_PRIMES[0] up to n = 64."""
    from orderone.geometry import PROFILE_PRIMES, _radical_degree_profile

    ms = sorted(set(default_m_set(n)) | {1})
    for q0 in _class_radicals(n):
        for p in PROFILE_PRIMES if n <= 32 else PROFILE_PRIMES[:1]:
            assert _radical_degree_profile(q0, ms, p) == newton_gcd_profile(q0, ms, p), (n, p)


def hankel_rank_mod_p(seq, p):
    """Rank mod p of the Hankel matrix (seq[i + j]) of size len(seq) // 2, by
    Gaussian elimination."""
    size = len(seq) // 2
    rows = [[seq[i + j] % p for j in range(size)] for i in range(size)]
    rank = 0
    for col in range(size):
        pivot = next((r for r in range(rank, size) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        top = [c * inv % p for c in rows[rank][col:]]
        for r in range(rank + 1, size):
            c = rows[r][col]
            if c:
                rows[r][col:] = [(x - c * y) % p for x, y in zip(rows[r][col:], top)]
        rank += 1
    return rank


def _power_sum_sequence(nodes, mults, count, p):
    """s_k = sum mu_i gamma_i^k mod p for k < count (0^0 = 1)."""
    terms, out = [mu % p for mu in mults], []
    for _ in range(count):
        out.append(sum(terms) % p)
        terms = [t * g % p for t, g in zip(terms, nodes)]
    return out


def _is_connection_polynomial(lam, length, seq, p):
    """lam (lowest coefficient first) has a unit constant term and degree at
    most length, and generates seq: sum_i lam_i s_(k-i) = 0 mod p for
    length <= k < len(seq)."""
    lam = [int(c) for c in lam]
    if lam[0] % p == 0 or any(lam[length + 1:]):
        return False
    return all(sum(lam[i] * seq[k - i] for i in range(length + 1)) % p == 0
               for k in range(length, len(seq)))


def test_linear_complexity_kernel_matches_hankel_rank():
    """One batch mixing rows of different complexity: the all-zero row, a node
    0, multiplicities up to d, a row of complexity exactly count / 2, a row at
    count / 2 - 1, and rows whose first terms vanish, so that the complexity
    jumps by more than one; nothing can leak across rows.  Each row's
    connection polynomial generates the row."""
    import numpy as np

    from orderone.geometry import PROFILE_PRIMES, _linear_complexities_mod_p

    p = PROFILE_PRIMES[0]
    d = 12
    count = 2 * d
    rng = random.Random(10)
    specs = [
        ([], []),
        ([0], [1]),
        ([0, 5, 7], [3, 1, d - 4]),
        ([3], [d]),
        ([p - 1, 1], [d // 2, d // 2]),
        (rng.sample(range(1, p), d), [1] * d),
        (rng.sample(range(p - 10 ** 6, p), d - 1), [rng.randint(1, d) for _ in range(d - 1)]),
        ([0] + rng.sample(range(2, 1000), d - 1), [rng.randint(1, d) for _ in range(d)]),
        ([2, 4, 8, 16, 32], [1, 2, 3, 4, 2]),
        ([1, 2, 3], [1, -2, 1]),  # s_0 = s_1 = 0
        # an (d - 1)-th finite difference: s_k = 0 for k < d - 1, complexity d
        (list(range(1, d + 1)), [(-1) ** (d - 1 - j) * math.comb(d - 1, j) for j in range(d)]),
    ]
    seqs = [_power_sum_sequence(nodes, mults, count, p) for nodes, mults in specs]
    want = [hankel_rank_mod_p(s, p) for s in seqs]
    assert want == [len(nodes) for nodes, _ in specs]
    lam, got = _linear_complexities_mod_p(np.array(seqs, dtype=np.int64), p)
    assert got.tolist() == want
    assert lam.shape == (len(seqs), d + 1)
    for s, w, row in zip(seqs, want, lam):
        assert _is_connection_polynomial(row, w, s, p)
        one_lam, one = _linear_complexities_mod_p(np.array([s], dtype=np.int64), p)
        assert one.tolist() == [w] and one_lam.tolist() == [row.tolist()]


@pytest.mark.parametrize("p", [33554393, 3037000493])
def test_linear_complexity_kernel_does_not_wrap(p):
    """d around 200 with residues near p - 1, at PROFILE_PRIMES[0] and at the
    largest prime with (p - 1)^2 < 2^63, where an unreduced discrepancy sum
    would wrap int64."""
    import numpy as np

    from orderone.geometry import PROFILE_PRIMES, _linear_complexities_mod_p

    d = 200
    assert p in PROFILE_PRIMES[:1] or (p - 1) ** 2 < 2 ** 63 <= 2 * (p - 1) ** 2
    rng = random.Random(p)
    specs = [
        (rng.sample(range(p - 10 ** 7, p), d), [rng.randint(1, d) for _ in range(d)]),
        (rng.sample(range(p - 10 ** 7, p), d - 37), [rng.randint(1, d) for _ in range(d - 37)]),
    ]
    seqs = [_power_sum_sequence(nodes, mults, 2 * d, p) for nodes, mults in specs]
    lam, got = _linear_complexities_mod_p(np.array(seqs, dtype=np.int64), p)
    assert got.tolist() == [hankel_rank_mod_p(s, p) for s in seqs] == [d, d - 37]
    assert all(_is_connection_polynomial(*args, p) for args in zip(lam, got.tolist(), seqs))


def test_power_sum_table_matches_exact_power_sums():
    from orderone.geometry import PROFILE_PRIMES
    from orderone.intpoly import power_sums

    p = PROFILE_PRIMES[0]
    for n in (1, 3, 7, 31):
        for q0 in _class_radicals(n):
            d = q0.degree()
            for count in (1, d - 1, d, 2 * BLOCK, 3 * BLOCK + 5, d + BLOCK):
                if count < 1:
                    continue
                table = power_sum_table(q0, count, p)
                assert table.dtype.name == "int64" and len(table) == count + 1
                want = [d % p] + [s % p for s in power_sums(q0, count)]
                assert table.tolist() == want, (n, count)


@pytest.mark.parametrize("n", [1, 3, 7, 31])
def test_power_sums_at_matches_exact_power_sums(n):
    """The sparse reader against the exact power sums mod p, at the seams of
    its baby steps and giant steps: j < d, j = d, B - 1, B, B + 1, multiples
    of B and the top index, repeated and unsorted indices, [0] alone and a 2-D
    index array.  Every set holds the top index, so B = isqrt(top) + 1 is the
    same for all; the small top gives B < d for n = 31."""
    import numpy as np

    from orderone.geometry import PROFILE_PRIMES, _power_sums_at
    from orderone.intpoly import power_sums

    for q0 in _class_radicals(n):
        d = q0.degree()
        for top in (3 * d + 1, 2 * 2520 + 3):
            exact = [d] + power_sums(q0, top)
            b = math.isqrt(top) + 1
            index_sets = [
                list(range(d)) + [top],
                [d, top],
                [b - 1, b, b + 1, top],
                list(range(0, top + 1, b)) + [top],
                [top, 5, b, 0, top, 5, d, b + 1],
                [[0, b - 1, top], [b, d, b + 1]],
            ]
            for p in PROFILE_PRIMES:
                for idx in index_sets:
                    got = _power_sums_at(q0, idx, p)
                    want = np.array([exact[j] % p for j in np.ravel(idx)]).reshape(np.shape(idx))
                    assert got.dtype.name == "int64" and got.shape == want.shape
                    assert got.tolist() == want.tolist(), (n, top, p, idx)
        for p in PROFILE_PRIMES:
            assert _power_sums_at(q0, [0], p).tolist() == [d]


@pytest.mark.parametrize("n", list(range(1, 65)))
def test_power_sums_at_matches_dense_table(n):
    """The profile grid k m (k < 2d, m in the class's m_set) and the
    2520-screen sums p_2520k (1 <= k <= d) equal the dense table's entries."""
    import numpy as np

    from orderone.geometry import PROFILE_PRIMES, SPORADIC_LCM, _power_sums_at

    p = PROFILE_PRIMES[0]
    ms = sorted(set(default_m_set(n)) | {1})
    for q0 in _class_radicals(n):
        d = q0.degree()
        table = power_sum_table(q0, (2 * d - 1) * max(ms), p)
        grid = np.outer(ms, np.arange(2 * d))
        assert _power_sums_at(q0, grid, p).tolist() == table[grid].tolist(), n
        screen = SPORADIC_LCM * np.arange(1, d + 1)
        assert _power_sums_at(q0, screen, p).tolist() == table[screen].tolist(), n


def test_profile_guard_rejects_primes_that_could_wrap():
    from orderone.geometry import _power_sums_at, _radical_degree_profile

    q0 = _class_radicals(7)[0]
    d = q0.degree()
    for p in (2 ** 61 - 1, 2 ** 31 - 1, 3037000493):  # d (p-1)^2 >= 2^63
        assert d * (p - 1) ** 2 >= 2 ** 63
        with pytest.raises(ValueError):
            _power_sums_at(q0, [0, 4 * d], p)
        with pytest.raises(ValueError):
            _radical_degree_profile(q0, [1, 2], p)
    for p in (2, 5):  # p <= d: a multiplicity up to d need not be a unit mod p
        assert p <= d
        with pytest.raises(ValueError):
            _power_sums_at(q0, [0, 4 * d], p)


def test_f_oracle_moves_past_a_degenerate_prime(monkeypatch):
    """A radical degree of 0 at PROFILE_PRIMES[0] sends the oracle to
    PROFILE_PRIMES[1], with the same result; degenerate at every prime, it
    raises."""
    from orderone import geometry

    q0, ms = _class_radicals(7)[0], default_m_set(7)
    want = geometry.f_oracle(q0, ms)
    real, asked = geometry._radical_degree_profile, []

    def degenerate_first(q, m_set, p):
        asked.append(p)
        profile = real(q, m_set, p)
        if p == geometry.PROFILE_PRIMES[0]:
            profile[max(m_set)] = 0
        return profile

    monkeypatch.setattr(geometry, "_radical_degree_profile", degenerate_first)
    assert geometry.f_oracle(q0, ms) == want
    assert asked == list(geometry.PROFILE_PRIMES[:2])

    asked.clear()

    def degenerate(q, m_set, p):
        asked.append(p)
        return dict.fromkeys(m_set, 0)

    monkeypatch.setattr(geometry, "_radical_degree_profile", degenerate)
    with pytest.raises(ArithmeticError, match="degenerate modular radical degree for every profile prime"):
        geometry.f_oracle(q0, ms)
    assert asked == list(geometry.PROFILE_PRIMES)


def test_f_oracle_does_not_retry_exact_failures(monkeypatch):
    from orderone import geometry

    calls = []

    def failing_drop(q0, m, rdeg):
        calls.append(m)
        raise ArithmeticError("exact route failed")

    monkeypatch.setattr(geometry, "_exact_drop", failing_drop)
    q0 = _class_radicals(3)[0]
    with pytest.raises(ArithmeticError, match="exact route failed"):
        geometry.f_oracle(q0, default_m_set(3))
    assert calls == [1]


def _prefiltered_factor_pairs(max_n):
    """(n1, n2, w1, w2), with the two factors' Weil polynomials, for every
    factor pair n1 <= n2 <= max_n, of distinct factors, that passes the
    dimension prefilter of geom_isogenous."""
    for n2 in range(1, max_n + 1):
        for n1 in range(1, n2 + 1):
            reps1, reps2 = build_reports(n1), build_reports(n2)
            for i, r1 in enumerate(reps1):
                for j, r2 in enumerate(reps2):
                    if n1 == n2 and i >= j:
                        continue
                    if r1.dimension * r2.f_oracle != r2.dimension * r1.f_oracle:
                        continue
                    yield n1, n2, r1.weil, r2.weil


def test_fold_agrees_with_direct_division():
    """Folding mod x^dd - 1 before dividing by Phi_dd gives the same verdict as
    dividing directly, for every order on every pair the prefilter passes."""
    from orderone.cyclo import cyclotomic_poly
    from orderone.geometry import _RATIO_ORDERS, _cyclotomic_divides, _scaled_ratio_poly

    tested = hits = 0
    for n1, n2, w1, w2 in _prefiltered_factor_pairs(30):
        scaled = _scaled_ratio_poly(w1, w2)
        for dd in _RATIO_ORDERS:
            direct = (scaled % cyclotomic_poly(dd)).is_zero()
            assert _cyclotomic_divides(scaled, dd) == direct, (n1, n2, dd)
            tested += 1
            hits += direct
    assert tested > 0 and hits > 0


# -- certificates for the fast exact side --------------------------------------


def _counting_radical(monkeypatch):
    """Replace the PRS radical inside geometry by a wrapper recording its inputs."""
    from orderone import geometry

    seen = []

    def counting(f):
        seen.append(f)
        return radical(f)

    monkeypatch.setattr(geometry, "radical", counting)
    return seen


@pytest.mark.parametrize("n", [7, 23, 30])
def test_exact_drop_falls_back_below_the_radical_degree(monkeypatch, n):
    """A degree below the true radical degree has no certificate: the PRS
    radical decides, and agrees with the radical of the extension."""
    from orderone.geometry import _exact_drop

    for rep in build_reports(n):
        q0, m = radical(rep.weil), rep.stabilizing_m
        ext = base_extension(q0, m)
        want = radical(ext)
        assert want.degree() < q0.degree()
        seen = _counting_radical(monkeypatch)
        assert _exact_drop(q0, m, want.degree()) == want
        assert seen == []
        assert _exact_drop(q0, m, want.degree() - 1) == want
        assert seen == [ext]


def test_exact_drop_rejects_a_wrong_power(monkeypatch):
    """(x-1)(x-3) has integral halved power sums, of (x-2); (x-2)^2 differs, so
    the PRS radical decides."""
    from orderone.geometry import _exact_drop, _power_sum_radical

    q0 = IntPoly([3, -4, 1])
    assert _power_sum_radical(q0, 1) == IntPoly([-2, 1])
    seen = _counting_radical(monkeypatch)
    assert _exact_drop(q0, 1, 1) == q0
    assert seen == [q0]


def test_pair_screen_negatives_are_exact_negatives():
    """The screen at the one degree 2520 covers every ratio order dividing it,
    and a pair it proves apart has no such ratio in the exact test."""
    from orderone.geometry import (
        EXPECTED_GEOM_PAIRS,
        PROFILE_PRIMES,
        SPORADIC_LCM,
        _RATIO_ORDERS,
        _has_root_of_unity_ratio,
        _no_shared_root_mod_p,
    )

    assert SPORADIC_LCM == 2520 and _RATIO_ORDERS == tuple(divisors(2520))
    passed, negatives = set(), 0
    for n1, n2, w1, w2 in _prefiltered_factor_pairs(30):
        if _no_shared_root_mod_p(w1, w2, PROFILE_PRIMES[0]):
            negatives += 1
            assert not _has_root_of_unity_ratio(w1, w2), (n1, n2)
        else:
            passed.add(frozenset((n1, n2)))
    assert negatives > 0
    assert EXPECTED_GEOM_PAIRS <= passed


# -- one read of each power sum: the profile feeds the pair screen ----------------


@pytest.mark.parametrize("chunk", [1, 3, 7])
@pytest.mark.parametrize("n", [1, 7, 31])
def test_power_sums_at_gathers_in_blocks(monkeypatch, n, chunk):
    """Blocks of chunk indices, while every profile row holds 2d of them, so
    block seams fall inside an m-row; the reader still gives the exact power
    sums mod p."""
    import numpy as np

    from orderone.geometry import PROFILE_PRIMES, _power_sums_at
    from orderone.intpoly import power_sums

    ms = [1, 2, 3, 5, 12]
    for q0 in _class_radicals(n):
        d = q0.degree()
        monkeypatch.setattr(geometry, "GATHER_BLOCK", chunk * d + d - 1)
        assert chunk % (2 * d)  # the seam at chunk falls inside the first row
        grid = np.outer(ms, np.arange(2 * d))
        exact = [d] + power_sums(q0, int(grid.max()))
        for p in PROFILE_PRIMES:
            got = _power_sums_at(q0, grid, p)
            want = [[exact[j] % p for j in row] for row in grid.tolist()]
            assert got.tolist() == want, (n, chunk, p)


def _screen_extension_by_reader(q, p):
    """The 2520-th extension of q mod p, lowest coefficient first, by Newton
    inversion of p_2520k (1 <= k <= d) from the sparse reader."""
    import numpy as np

    from orderone.geometry import SPORADIC_LCM, _power_sums_at

    ps = _power_sums_at(q, SPORADIC_LCM * np.arange(1, q.degree() + 1), p)
    return from_power_sums_mod_p(ps.tolist(), p)


def _monic_mod_p(v, p):
    """Nonzero coefficient list v mod p, trimmed and made monic."""
    v = [c % p for c in v]
    while not v[-1]:
        v.pop()
    inv = pow(v[-1], -1, p)
    return [c * inv % p for c in v]


def _divmod_mod_p(a, b, p):
    """(quotient, remainder) of a by monic b over F_p, lowest coefficient first."""
    r = [c % p for c in a]
    q = [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = r[i + len(b) - 1]
        for j, y in enumerate(b):
            r[i + j] = (r[i + j] - c * y) % p
    r = r[:len(b) - 1]
    while r and not r[-1]:
        r.pop()
    return q, r


def _squarefree_part_mod_p(ext, p):
    """ext / gcd(ext, ext') over F_p, monic, for monic ext of degree below p."""
    a, b = list(ext), _monic_mod_p([i * c for i, c in enumerate(ext)][1:], p)
    while b:
        a, b = b, _divmod_mod_p(a, b, p)[1]
        b = _monic_mod_p(b, p) if b else b
    return _divmod_mod_p(ext, a, p)[0]


@pytest.mark.parametrize("n", list(range(1, 17)))
def test_connection_polynomial_is_the_extension_radical(n):
    """On each profile row, over the dense table, of every factor's Weil
    polynomial as the screen reads it, the reversed connection polynomial is
    proportional to ext / gcd(ext, ext') mod p, ext the m-th extension mod p
    by Newton inversion: for every m in default_m_set(n), at every profile
    prime."""
    import numpy as np

    from orderone.geometry import PROFILE_PRIMES, _linear_complexities_mod_p

    ms = default_m_set(n)
    for weil in dict.fromkeys(rep.weil for rep in build_reports(n)):
        d = weil.degree()
        for p in PROFILE_PRIMES:
            table = power_sum_table(weil, (2 * d - 1) * max(ms), p)
            lam, length = _linear_complexities_mod_p(table[np.outer(ms, np.arange(2 * d))], p)
            for m, row, r in zip(ms, lam.tolist(), length.tolist()):
                ext = from_power_sums_mod_p(table[m:m * d + 1:m].tolist(), p)
                assert _monic_mod_p(row[:r + 1][::-1], p) == _squarefree_part_mod_p(ext, p), (n, m, p)


@pytest.mark.parametrize("n", list(range(1, 65)))
def test_profile_row_gives_the_screen_extension(monkeypatch, n):
    """For every factor the oracle reads, the profile at PROFILE_PRIMES[0]
    leaves a tuple in _SCREEN_MEMO, the connection polynomial of its row
    m = 2520, whose reversal is the squarefree part of the 2520-th extension
    mod p that the reader and Newton inversion give; the screen reads it
    without reading again."""
    from orderone.geometry import PROFILE_PRIMES, _no_shared_root_mod_p, _radical_degree_profile
    from orderone.weil import np_forces_geom_simple, newton_polygon

    p = PROFILE_PRIMES[0]
    ms = sorted(set(default_m_set(n)) | {1})
    monkeypatch.setattr(geometry, "_SCREEN_MEMO", {})
    for rep in build_reports(n):
        if np_forces_geom_simple(newton_polygon(rep.weil, F2)):
            continue  # the oracle does not run on this factor
        want = _squarefree_part_mod_p(_screen_extension_by_reader(rep.weil, p), p)
        _radical_degree_profile(rep.weil, ms, p)
        lam = geometry._SCREEN_MEMO[rep.weil, p]
        assert type(lam) is tuple and all(type(c) is int for c in lam)
        assert _monic_mod_p(lam[::-1], p) == want, n
        with monkeypatch.context() as m:
            m.setattr(geometry, "_power_sums_at", lambda *a: pytest.fail("the screen read again"))
            assert not _no_shared_root_mod_p(rep.weil, rep.weil, p)


def test_pair_screen_matches_the_inversion_route():
    """On every prefiltered factor pair with n <= 32, the screen's verdict
    equals a constant gcd of the two 2520-th extensions mod p by Newton
    inversion."""
    from orderone.geometry import PROFILE_PRIMES, _gcd_degree_mod_p, _no_shared_root_mod_p

    p, exts, pairs = PROFILE_PRIMES[0], {}, 0
    for n1, n2, w1, w2 in _prefiltered_factor_pairs(32):
        for w in (w1, w2):
            if w not in exts:
                exts[w] = _screen_extension_by_reader(w, p)
        want = _gcd_degree_mod_p(exts[w1], exts[w2], p) == 0
        assert _no_shared_root_mod_p(w1, w2, p) == want, (n1, n2)
        pairs += 1
    assert pairs == 57


def test_decompose_pass_reads_each_power_sum_once(monkeypatch):
    """From cold geometry caches, the reports for n <= 32 and the pair table
    for n <= 30 call the reader once per factor: once per profile (31
    factors), and for the screen, as the one row m = 2520 of shape (1, 2d),
    only on the factors the oracle skipped that pass the dimension prefilter:
    those of n = 8 and n = 16.  Every screen memo entry is a tuple."""
    from collections import Counter

    import numpy as np

    reads, real = [], geometry._power_sums_at

    def counting(q, idx, p):
        reads.append((q, np.shape(idx)))
        return real(q, idx, p)

    monkeypatch.setattr(geometry, "_power_sums_at", counting)
    _clear_geometry_caches()
    for n in range(1, 33):
        build_reports(n)
    assert geometric_isogeny_pairs(30) == set(EXPECTED_GEOM_PAIRS)
    assert len(reads) == 33 and set(Counter(q for q, _ in reads).values()) == {1}
    screen_only = {q for q, shape in reads if shape == (1, 2 * q.degree())}
    assert screen_only == {rep.weil for n in (8, 16) for rep in build_reports(n)}
    assert all(type(v) is tuple for v in geometry._SCREEN_MEMO.values())


def test_exact_drop_at_full_radical_degree_needs_no_radical(monkeypatch):
    """A modular radical degree of d makes the extension its own radical: no
    power-sum radical and no PRS radical runs."""
    from orderone.geometry import PROFILE_PRIMES, _exact_drop, _radical_degree_profile

    weils = [rep.weil for n in (3, 5, 7, 30) for rep in build_reports(n)]
    seen = _counting_radical(monkeypatch)
    tried = []
    monkeypatch.setattr(geometry, "_power_sum_radical", lambda ext, rdeg: tried.append(ext))
    ms, checked = [1, 2, 3, 4, 6, 7, 15], 0
    for weil in weils:
        d = weil.degree()
        profile = _radical_degree_profile(weil, ms, PROFILE_PRIMES[0])
        for m in ms:
            if profile[m] == d:
                ext = base_extension(weil, m)
                assert _exact_drop(weil, m, d) == ext == radical(ext), (weil, m)
                checked += 1
    assert checked > 0
    assert seen == [] and tried == []


def test_decompose_pass_exact_steps_are_pinned(monkeypatch):
    """From cold geometry caches, the reports for n <= 32 run 63 exact steps
    in the ascending scan under the divisor bound F(r): n = 1 runs 2, n = 2
    runs 1, n = 4 runs 2, n = 7 runs 4 and n = 30 runs 6."""
    from collections import Counter

    calls, real, current = Counter(), geometry._exact_f, [0]

    def counting(weil, m, rdeg):
        calls[current[0]] += 1
        return real(weil, m, rdeg)

    monkeypatch.setattr(geometry, "_exact_f", counting)
    _clear_geometry_caches()
    for n in range(1, 33):
        current[0] = n
        build_reports(n)
    want = {n: 2 for n in range(3, 33) if n not in (4, 8, 16, 32)}
    want.update({1: 2, 2: 1, 4: 2, 7: 4, 30: 6})
    assert dict(calls) == want
    assert sum(calls.values()) == 63
    _clear_geometry_caches()


def test_oracle_runs_each_exact_step_once(monkeypatch):
    """For n <= 64 no factor reaches the exact step twice at the same m: the
    scan visits each m once, m = 1 included, and keeps no rescan."""
    from collections import Counter

    steps, real = Counter(), geometry._exact_f

    def counting(weil, m, rdeg):
        steps[weil, m] += 1
        return real(weil, m, rdeg)

    monkeypatch.setattr(geometry, "_exact_f", counting)
    _clear_geometry_caches()
    for n in range(1, 65):
        build_reports(n)
    assert sum(steps.values()) == 125
    assert [key for key, count in steps.items() if count > 1] == []
    _clear_geometry_caches()


def _f_oracle_by_degree_bound(weil: IntPoly, m_set) -> tuple[int, int]:
    """f_oracle with d / profile[m] as the bound at m in both loops: the scan
    before the divisor bound, kept as a test oracle."""
    from orderone.geometry import PROFILE_PRIMES, _exact_f, _radical_degree_profile

    m_set = sorted(set(m_set))
    d = weil.degree()
    for p in PROFILE_PRIMES:
        profile = _radical_degree_profile(weil, sorted(set(m_set) | {1}), p) if p > d else {}
        if profile and min(profile.values()) > 0:
            break
    best_f, best_m = _exact_f(weil, 1, profile[1]), 1
    for m in sorted(m_set, key=lambda m: (profile[m], m)):
        if d <= best_f * profile[m]:
            break
        fm = _exact_f(weil, m, profile[m])
        if fm > best_f:
            best_f, best_m = fm, m
    for m in m_set:
        if m >= best_m:
            break
        if d >= best_f * profile[m] and _exact_f(weil, m, profile[m]) == best_f:
            best_m = m
            break
    return best_f, best_m


def test_divisor_bound_keeps_every_multiplicity():
    """(f, m*) of every report for n <= 64 on which the oracle runs equals
    the d / r scan's."""
    from orderone.weil import np_forces_geom_simple, newton_polygon

    checked = 0
    for n in range(1, 65):
        for rep in build_reports(n):
            if np_forces_geom_simple(newton_polygon(rep.weil, F2)):
                continue
            want = _f_oracle_by_degree_bound(rep.weil, default_m_set(n))
            assert (rep.f_oracle, rep.stabilizing_m) == want, n
            checked += 1
    assert checked == 62


@pytest.mark.parametrize("n", [1, 2, 3, 7, 12, 30, 31])
def test_reports_reuse_the_record_weil_data(monkeypatch, n):
    """A factor equal to the record's real Weil polynomial takes the record's
    Weil polynomial and polygon; only the split classes 2, 7 and 30 transform
    their factors again."""
    calls = []
    monkeypatch.setattr(geometry, "real_to_weil", lambda f, ctx: calls.append(f) or real_to_weil(f, ctx))
    reports = build_reports.__wrapped__(n)
    rec = build_record(n)
    split = [f for f in rec.simple_factors if f != rec.real_weil]
    assert calls == list(dict.fromkeys(split))
    assert bool(split) == (n in (2, 7, 30))
    assert reports == build_reports(n)
