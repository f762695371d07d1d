"""Geometric decomposition multiplicities and geometric isogeny between the
order-1 isogeny classes over F_2.

Everything here works over F_2 (weil.F2): the family is P_n(3 - x) with
3 = q + 1 for q = 2, and no other field gives these classes order 1.

Two independent routes are reconciled for every class: a closed-form case
split on n, and an oracle that measures the collapse of the eigenvalue field
under base extension through exact radical degrees.

The oracle and the isogeny test read each factor's Weil polynomial w as it
is.  By Honda-Tate w = q0^e for an irreducible q0, so every extension of w is
the e-th power of the same extension of q0, with the same roots and the same
radical: no squarefree part of w is taken.

The oracle first bounds every m-th extension's radical degree mod a prime p.
Row m, w's power sums p_0, p_m, ..., p_(2d-1)m mod p (d = deg w), holds the
power sums s_k of the m-th extension ext mod p.  Only these entries are read,
by baby steps and giant steps over w's companion shift C: for the largest
index N = (2d - 1) max(m_set) and B = isqrt(N) + 1, p_(aB+b) is the row
e_0^T C^(aB) times the window (p_b, ..., p_(b+d-1)), so about 2 sqrt(N) sums
and rows are built in int64, not all N sums; the entries are gathered in blocks
of GATHER_BLOCK residues, which bounds the memory one gather holds.  Residues
stay below p and every product sums d terms below (p-1)^2, so nothing wraps
while d (p-1)^2 < 2^63; the reader also refuses p <= d.  Over F_p-bar,
s_k = sum mu_g g^k over the distinct roots g of ext, with multiplicities
1 <= mu_g <= d < p, so
every mu_g is a unit: the minimal recurrence of (s_k) is prod (x - g), and the
linear complexity of the row is the number of distinct roots,
d - deg gcd(ext, ext') mod p.  Berlekamp-Massey finds a complexity L <= d
exactly from these 2d terms, for all rows in one pass.  Its update
gamma lam - delta x prev is one difference of two products of residues, each
below (p-1)^2 < 2^63, reduced once; its discrepancy reduces every product mod p
before summing, so nothing wraps there either.
Reduction mod p can merge roots but never split them, so the modular radical
degree r is at most the exact one, and the multiplicity at m is at most
F(r), the largest d / (e s) over the divisors s >= r of d (e = 2 at s = 1,
else 1).  One ascending scan over m runs the exact step only where F(r)
beats the best multiplicity so far, so the first m to reach the final one is
the smallest attaining m.  An exact step builds the extension ext over Z
by weil.base_extension.  Since w satisfies the Weil functional
equation x^d w(q/x) = a_0 w(x), a_0 = +-q^(d/2), which base_extension detects
from the coefficients, each prime step p reads (d/2) p power sums, not d p,
and fills in the lower half of the coefficients from the upper half.  When r
divides d, the monic rad of degree r with power sums
p_k(ext) / (d / r) is tried: rad^(d/r) = ext certifies it, as the exact radical
degree is then at most r, hence equal to it, and rad is the radical.  Without
that certificate (a non-integral quotient or power sum inversion, or an unequal
power) the PRS radical of ext decides, so the PRS gcd runs only on such
fallbacks.

The isogeny test looks for a root ratio alpha/beta that is a root of unity of
order dividing SPORADIC_LCM = 2520, which every sporadic ratio order divides.
A ratio has such an order exactly when alpha^2520 = beta^2520, that is, when
the 2520-th extensions of the two Weil polynomials share a root.  The screen
reads each extension mod p = PROFILE_PRIMES[0] as the connection polynomial
that Berlekamp-Massey ends with on the profile's row m = 2520, which is
c prod (1 - g x) over the distinct roots g of the extension mod p, every g a
unit as w(0) = +-2^(d/2) and p is odd.  The profile leaves that polynomial in
_SCREEN_MEMO, so each power sum is read once; the row runs for the screen
alone only on a factor the oracle skipped or read at another prime.  The gcd
degree of two such polynomials mod p counts the common roots of the two
extensions mod p.  An exact common root divides 2^2520, so it is a unit at p
and survives reduction, and a constant gcd mod p proves the pair not
isogenous.  Every other pair gets the exact test over the divisors dd of
2520, which folds T(q x) mod x^dd - 1 before dividing by Phi_dd, which
divides x^dd - 1.

The multiplicity at m is one formula, deg w / (e_m * deg rad ext_m(w)), where
e_m is the Honda-Tate exponent of the extended class: 2 whenever the extended
radical is a real Weil polynomial (linear, or x^2 - q^m with m odd), else 1.
The degree-4 class with Weil polynomial (x^2-2)^2 is an instance: its exponent
2 over the prime field is the e_1 = 2 of its real radical x^2 - 2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .arith import divisors, is_power_of_two
from .cyclo import cyclotomic_poly
from .intpoly import IntPoly, from_power_sums, power_sums
from .madanpal import build_record
from .weil import (
    F2,
    base_extension,
    newton_polygon,
    np_forces_geom_simple,
    radical,
    real_to_weil,
)

# primes below 2^25: a sum of d products of residues stays below 2^63 up to degree 8191
PROFILE_PRIMES = (33554393, 33554383, 33554371)
# residues the power-sum reader gathers per block: 128 KiB per int64 operand
GATHER_BLOCK = 2 ** 14

# every sporadic ratio order divides it; the pair test probes its divisors
SPORADIC_LCM = 2520
_RATIO_ORDERS = tuple(divisors(SPORADIC_LCM))


def default_m_set(n: int) -> list[int]:
    """Base-extension degrees to probe for the n-th class.

    Divisors of SPORADIC_LCM cover every sporadic ratio order; the
    one-parameter family contributes ratios of order ord(-zeta_n), which need
    not divide 2520 (for example 2n = 62 when n = 31), so the divisors of
    lcm(2n, 24) are added.
    """
    return sorted(set(_RATIO_ORDERS) | set(divisors(math.lcm(2 * n, 24))))


# -- modular radical-degree profile -------------------------------------------

def _gcd_degree_mod_p(f, fp, p):
    """Degree of gcd of coefficient lists f, fp over F_p."""

    def trim(v):
        v = [c % p for c in v]
        while v and v[-1] == 0:
            v.pop()
        return v

    a, b = trim(f), trim(fp)
    while b:
        inv = pow(b[-1], p - 2, p)
        monic = [(c * inv) % p for c in b]
        r, low = list(a), monic[:-1]
        while len(r) >= len(monic):
            c = r.pop()
            if c:
                off = len(r) - len(low)
                r[off:] = [(x - c * y) % p for x, y in zip(r[off:], low)]
            while r and r[-1] == 0:
                r.pop()
        a, b = monic, r
    return len(a) - 1 if a else -1


def _power_sums_at(q0: IntPoly, idx, p: int) -> np.ndarray:
    """Power sums p_j of the roots of monic q0 mod p, for every j in idx, a
    nonnegative integer array of one or more dimensions, as int64 of its shape.

    Baby steps and giant steps over the companion shift C, which takes a state
    (p_j, ..., p_(j+d-1)) to (p_(j+1), ..., p_(j+d)): with B = isqrt(max idx) + 1,
    p_(aB+b) = r_a . (p_b, ..., p_(b+d-1)) for the row r_a = e_0^T C^(aB).  The
    baby sums p_0, ..., p_(B+d-2) and the giant rows r_0, r_1, ... each double
    per matrix product, so only about 2 sqrt(max idx) + d sums and rows are
    built.  Every residue is below p, so a product sums d terms below (p-1)^2
    and cannot wrap while d (p-1)^2 < 2^63; p > d keeps every root
    multiplicity, at most d, a unit mod p.
    """
    d = q0.degree()
    if p <= d or d * (p - 1) ** 2 >= 2 ** 63:
        raise ValueError(f"prime {p} out of range for int64 power sums of degree {d}")
    idx = np.asarray(idx, dtype=np.int64)
    top = int(idx.max())
    step = math.isqrt(top) + 1
    shift = np.eye(d, k=1, dtype=np.int64)
    shift[-1] = [-c % p for c in q0.coeffs[:d]]
    sums = np.array([d] + [s % p for s in power_sums(q0, d - 1)], dtype=np.int64)
    # C^B by square-and-multiply.  Each square C^(2^t) also doubles the baby
    # sums, as the last row of C^k continues each of the k windows by k, and
    # B < 2^(bit length of B), so the squares reach the B + d - 1 sums needed.
    square, jump = shift, np.eye(d, dtype=np.int64)
    for t in range(step.bit_length()):
        if t:
            square = (square @ square) % p
        if step >> t & 1:
            jump = (jump @ square) % p
        if len(sums) < step + d - 1:
            sums = np.concatenate([sums, (sliding_window_view(sums, d) @ square[-1]) % p])
    rows = np.eye(1, d, dtype=np.int64)
    while len(rows) <= top // step:
        rows = np.concatenate([rows, (rows @ jump) % p])
        jump = (jump @ jump) % p
    windows = sliding_window_view(sums, d)
    flat = idx.ravel()
    out = np.empty(flat.shape, dtype=np.int64)
    chunk = max(1, GATHER_BLOCK // d)
    for lo in range(0, len(flat), chunk):  # bounded blocks keep the gathered rows small
        a, b = np.divmod(flat[lo:lo + chunk], step)
        out[lo:lo + chunk] = np.einsum("ij,ij->i", rows[a], windows[b]) % p
    return out.reshape(idx.shape)


def _linear_complexities_mod_p(seqs: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(lam, length): the final connection polynomial of each row of seqs
    (int64 residues mod p), lowest coefficient first and of degree at most
    its length, and the row's linear complexity, by an inversion-free
    Berlekamp-Massey run on all rows at once.

    Each step replaces the connection polynomial lam by
    gamma lam - delta x prev, a nonzero multiple of the textbook update
    lam - (delta / gamma) x prev, so no inverse mod p is taken.  The update
    is reduced once: gamma lam and delta x prev are products of two residues,
    each at most (p - 1)^2 < 2^63, so their difference fits in int64.  The
    discrepancy delta sums up to deg lam + 1 such products, so each of them is
    reduced mod p before it is summed.  Every intermediate thus stays in int64
    for any p with (p - 1)^2 < 2^63.  A complexity above half the row length is
    not fixed by the row and raises.
    """
    rows, count = seqs.shape
    width = count // 2 + 1
    rev = seqs[:, ::-1]
    lam = np.zeros((rows, width), dtype=np.int64)
    lam[:, 0] = 1
    prev = lam.copy()  # lam before the last length change, shifted once per later step
    gamma = np.ones((rows, 1), dtype=np.int64)
    length = np.zeros((rows, 1), dtype=np.int64)
    shifted = np.zeros_like(prev)
    for k in range(count):
        top = min(k + 1, width)
        # delta = lam_0 s_k + lam_1 s_(k-1) + ..., as deg lam < top
        window = rev[:, count - 1 - k:count - 1 - k + top]
        delta = ((lam[:, :top] * window) % p).sum(axis=1, keepdims=True) % p
        shifted[:, 1:] = prev[:, :-1]
        grow = (delta != 0) & (2 * length <= k)
        new = (gamma * lam - delta * shifted) % p
        prev = np.where(grow, lam, shifted)
        gamma = np.where(grow, delta, gamma)
        length = np.where(grow, k + 1 - length, length)
        lam = new
    if (2 * length > count).any():
        raise ArithmeticError("linear complexity above half the sequence length")
    return lam, length[:, 0]


# {(q, p): the connection polynomial of q's profile row m = SPORADIC_LCM mod p,
# lowest coefficient first, which the pair screen reads (_no_shared_root_mod_p)}
_SCREEN_MEMO: dict[tuple[IntPoly, int], tuple[int, ...]] = {}


def _radical_degree_profile(q0: IntPoly, m_set, p: int) -> dict[int, int]:
    """{m: degree of the squarefree part of the m-th base extension mod p}, as
    the linear complexity of p_0, p_m, ..., p_(2d-1)m of q0 mod p.

    The connection polynomial of the row m = SPORADIC_LCM is left in
    _SCREEN_MEMO for the pair screen."""
    m_set = list(m_set)
    d = q0.degree()
    lam, length = _linear_complexities_mod_p(
        _power_sums_at(q0, np.outer(m_set, np.arange(2 * d)), p), p)
    if SPORADIC_LCM in m_set:
        row = m_set.index(SPORADIC_LCM)
        _SCREEN_MEMO.setdefault((q0, p), tuple(lam[row, :length[row] + 1].tolist()))
    return dict(zip(m_set, length.tolist()))


# -- exact verification at a chosen extension degree ---------------------------


def _power_sum_radical(ext: IntPoly, rdeg: int) -> IntPoly | None:
    """The monic rad of degree rdeg with rad^f = ext (f = deg ext / rdeg), if
    ext is such a power: each root of rad is then f roots of ext, so
    p_k(rad) = p_k(ext) / f.  None where that cannot hold; the caller still
    has to check the power."""
    d = ext.degree()
    if d % rdeg:
        return None
    f = d // rdeg
    ps = power_sums(ext, rdeg)
    if any(s % f for s in ps):
        return None
    try:
        return from_power_sums([s // f for s in ps], rdeg)
    except ValueError:
        return None


def _exact_drop(q0: IntPoly, m: int, rdeg: int) -> IntPoly:
    """Radical of the m-th base extension, exactly, given its radical degree
    rdeg mod a profile prime, which is never above the exact one.

    A monic rad of degree rdeg with rad^f = ext certifies itself: the exact
    radical degree is then at most rdeg, hence equal to it, so rad is
    squarefree with the roots of ext.  Otherwise the PRS radical decides.
    The extension must be a perfect power of its radical; anything else is a
    violated structural expectation and raises.

    At rdeg = d no certificate is needed: rdeg is at most the exact radical
    degree, which is at most deg ext = d, so ext has d distinct roots and is
    its own radical.
    """
    d = q0.degree()
    ext = base_extension(q0, m)
    if rdeg == d:
        return ext
    rad = _power_sum_radical(ext, rdeg)
    if rad is not None and rad ** (d // rdeg) == ext:
        return rad
    rad = radical(ext)
    rdeg = rad.degree()
    if d % rdeg:
        raise ArithmeticError(f"extension degree {d} not a multiple of radical degree {rdeg}")
    if rad ** (d // rdeg) != ext:
        raise ArithmeticError("extension is not a perfect power of its radical")
    return rad


def _extension_exponent(rad: IntPoly, m: int) -> int:
    """Honda-Tate exponent of the extended class: 2 for real Weil numbers."""
    if rad.degree() == 1:
        return 2
    if rad == IntPoly([-(F2.q ** m), 0, 1]):
        return 2
    return 1


def _exact_f(weil: IntPoly, m: int, rdeg: int) -> int:
    """Corrected multiplicity deg weil / (e_m * deg rad) at extension degree m,
    rdeg being the radical degree there mod a profile prime.  A quotient that
    is not an integer means weil is not a simple class's Weil polynomial."""
    rad = _exact_drop(weil, m, rdeg)
    num, den = weil.degree(), _extension_exponent(rad, m) * rad.degree()
    if num % den:
        raise ArithmeticError("corrected multiplicity is not an integer")
    return num // den


def f_oracle(weil: IntPoly, m_set) -> tuple[int, int]:
    """Geometric multiplicity from radical degrees: (f, smallest attaining m).

    weil is the Weil polynomial of a simple class, a power of an irreducible,
    squarefree or not.  The profile over m_set and m = 1 is bounded above
    modulo one prime (the next only if it degenerates), and one ascending
    scan over those m runs the exact step only where the divisor bound of
    the modular radical degree can beat the best multiplicity so far, so
    the result is exact while only those extensions are expanded over Z.
    """
    # m = 1 too: a real radical or a non-squarefree weil may act already
    m_set = sorted(set(m_set) | {1})
    d = weil.degree()

    for p in PROFILE_PRIMES:
        # only a degenerate prime moves on: p <= d, or a radical degree of 0
        profile = _radical_degree_profile(weil, m_set, p) if p > d else {}
        if profile and min(profile.values()) > 0:
            break
    else:
        raise ArithmeticError("degenerate modular radical degree for every profile prime")
    # The exact radical degree s at m divides d and is at least profile[m],
    # and the multiplicity there is d / (e_m s), with e_m = 2 when s = 1 (a
    # linear radical is real) and e_m >= 1 otherwise.  So bound[r], the
    # largest d / (e_s s) over the divisors s >= r of d (e_1 = 2, else 1),
    # floored as multiplicities are integers, bounds the multiplicity at every
    # m with profile[m] = r, and an m whose bound cannot beat best_f is
    # skipped.  The scan runs up m and keeps only a strictly larger
    # multiplicity, so the first m that reaches the final f is the smallest
    # attaining m: no m before it reached f, so its bound was above best_f.
    bound = {r: max(d // (2 * s if s == 1 else s) for s in divisors(d) if s >= r)
             for r in set(profile.values())}
    best_f = best_m = 0
    for m in m_set:
        if bound[profile[m]] <= best_f:
            continue
        fm = _exact_f(weil, m, profile[m])
        if fm > best_f:
            best_f, best_m = fm, m
    return best_f, best_m


def f_from_formula(n: int) -> int:
    """Closed-form geometric multiplicity.

    Powers of 2 here means 2, 4, 8, ...; the n = 1 class is supersingular of
    dimension 2 and splits as the square of an elliptic curve geometrically,
    consistently with the pair {1, 2} being geometrically isogenous.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n >= 2 and is_power_of_two(n):
        return 2 if n == 4 else 1
    if n == 7:
        return 3
    if n == 30:
        return 4
    return 2


@dataclass(frozen=True)
class DecompositionReport:
    n: int
    simple_factor: IntPoly         # real Weil polynomial of the factor
    weil: IntPoly                  # Weil polynomial of the simple class, as the oracle reads it
    dimension: int
    ordinary: bool
    f_formula: int
    f_oracle: int
    stabilizing_m: int
    geom_simple: bool

    @property
    def consistent(self) -> bool:
        return self.f_formula == self.f_oracle


@lru_cache(maxsize=None)
def build_reports(n: int) -> tuple[DecompositionReport, ...]:
    """One report per distinct simple isogeny factor of the n-th class.

    A factor whose Newton polygon is {1/g, 1-1/g} with g > 2 is geometrically
    simple outright, so its report has f = 1 at m = 1 without the oracle: for
    those the raw drop measures a division-algebra thickening, not an actual
    splitting.  The same polygon decides whether the factor is ordinary.
    """
    rec = build_record(n)
    out = []
    for factor in dict.fromkeys(rec.simple_factors):
        if factor == rec.real_weil:
            weil, polygon = rec.weil, rec.newton
        else:
            weil = real_to_weil(factor, F2)
            polygon = newton_polygon(weil, F2)
        if np_forces_geom_simple(polygon):
            f_o, m_star = 1, 1
        else:
            f_o, m_star = f_oracle(weil, default_m_set(n))
        out.append(
            DecompositionReport(
                n=n,
                simple_factor=factor,
                weil=weil,
                dimension=weil.degree() // 2,
                ordinary=polygon.is_ordinary(),
                f_formula=f_from_formula(n),
                f_oracle=f_o,
                stabilizing_m=m_star,
                geom_simple=(f_o == 1),
            )
        )
    return tuple(out)


# -- geometric isogeny ----------------------------------------------------------


def _scaled_ratio_poly(q1: IntPoly, q2: IntPoly) -> IntPoly:
    """T(q x), whose roots are the ratios alpha/beta = alpha conj(beta) / q;
    q2 is real, so T is the composed product with power sums p_k(q1) p_k(q2)."""
    deg = q1.degree() * q2.degree()
    ps1 = power_sums(q1, deg)
    ps2 = power_sums(q2, deg)
    composed = from_power_sums([ps1[k] * ps2[k] for k in range(deg)], deg)
    return IntPoly([c * F2.q ** i for i, c in enumerate(composed.coeffs)])


def _cyclotomic_divides(poly: IntPoly, dd: int) -> bool:
    """True iff Phi_dd divides nonzero poly, tested on poly folded mod x^dd - 1."""
    cyc = cyclotomic_poly(dd)
    if cyc.degree() > poly.degree():
        return False
    folded = [0] * dd
    for i, c in enumerate(poly.coeffs):
        folded[i % dd] += c
    return (IntPoly(folded) % cyc).is_zero()


def _has_root_of_unity_ratio(q1: IntPoly, q2: IntPoly) -> bool:
    """True iff some root ratio alpha/beta (alpha of q1, beta of q2) is a root
    of unity of order dd dividing SPORADIC_LCM, that is, iff Phi_dd divides
    T(q x)."""
    scaled = _scaled_ratio_poly(q1, q2)
    return any(_cyclotomic_divides(scaled, dd) for dd in _RATIO_ORDERS)


def _no_shared_root_mod_p(q1: IntPoly, q2: IntPoly, p: int) -> bool:
    """True only if no ratio alpha/beta (alpha of q1, beta of q2) has order
    dividing SPORADIC_LCM = M, that is, if the M-th extensions ext1, ext2
    share no root; p must exceed both degrees.

    Each qi is read as the connection polynomial lam_i of its profile row
    s_k = p_Mk(qi) mod p, k < 2d: for a factor the oracle skipped or read at
    another prime, that row alone is run here.  Over F_p-bar,
    s_k = sum mu_g g^k over the distinct roots g of ext_i mod p, every mu_g is
    at most d < p, so a unit, and every g is a unit, as qi(0) = +-2^(d/2) and p
    is odd.  So lam_i = c prod (1 - g x) with c != 0, and deg gcd(lam1, lam2)
    counts the common roots of ext1 and ext2 mod p.  One-sided: an exact
    common root alpha^M = beta^M divides 2^M, so it is a unit at p and reduces
    to a common root mod p, and a gcd of degree 0 rules the pair out."""
    for q in (q1, q2):
        if (q, p) not in _SCREEN_MEMO:
            _radical_degree_profile(q, [SPORADIC_LCM], p)
    return _gcd_degree_mod_p(_SCREEN_MEMO[q1, p], _SCREEN_MEMO[q2, p], p) == 0


def geom_isogenous(n1: int, n2: int) -> bool:
    """Nonzero geometric homomorphisms between some simple factors of the two
    classes, detected through a shared Frobenius-power eigenvalue.

    Equal geometric dimension of the simple geometric factors is a necessary
    condition and is used as a sound prefilter; the decisive test finds a root
    ratio of unity of order dividing SPORADIC_LCM.  A factor pair whose
    SPORADIC_LCM-th extensions share no root mod PROFILE_PRIMES[0] has no such
    ratio and skips the exact test.
    """
    p = PROFILE_PRIMES[0]
    reps1, reps2 = build_reports(n1), build_reports(n2)
    for i, r1 in enumerate(reps1):
        for j, r2 in enumerate(reps2):
            if n1 == n2 and i >= j:
                continue  # same class is trivially isogenous; need distinct factors
            if r1.dimension * r2.f_oracle != r2.dimension * r1.f_oracle:
                continue  # geometric simple factors have different dimensions
            w1, w2 = r1.weil, r2.weil
            if p > max(w1.degree(), w2.degree()) and _no_shared_root_mod_p(w1, w2, p):
                continue
            if _has_root_of_unity_ratio(w1, w2):
                return True
    return False


EXPECTED_GEOM_PAIRS = frozenset(
    frozenset(p) for p in [(1, 2), (1, 4), (2, 4), (3, 30), (6, 7), (7, 7), (30, 30)]
)


def geometric_isogeny_pairs(max_n: int = 30) -> set[frozenset]:
    """All unordered pairs {n1, n2} (n1 != n2, or same n across distinct simple
    factors) with nonzero geometric homomorphisms, for n up to max_n."""
    out = set()
    for n1 in range(1, max_n + 1):
        for n2 in range(n1, max_n + 1):
            if geom_isogenous(n1, n2):
                out.add(frozenset((n1, n2)))
    return out


def ordinary_xor_geom_simple(n: int) -> bool:
    """No simple factor is both ordinary and geometrically simple; factors of
    dimension at least 3 are exactly one of the two."""
    for rep in build_reports(n):
        if rep.ordinary and rep.geom_simple:
            return False
        if rep.dimension >= 3 and not (rep.ordinary ^ rep.geom_simple):
            return False
    return True
