"""Exact evaluators for every sum in scope: the shifted-prime sum, its
restricted variant, short and double character sums, Burgess moments, the
congruence-solution census and the weighted-decomposition identity.

Every character sum is sum_r W_r chi(r) over exact weights W_r per residue
class r (or per prime power), reduced by the one exact reduction,
``util.exact_dot``: the correctly rounded exact sum of the products, computed
in integers from the weights' digits and the values' fixed-point limbs.  The
Lambda sums (``_lambda_sum``) bin Lambda by n mod L once per modulus and
keep the bins, which a larger x grows by binning only its new prime
powers; the window sums count their n per class, the bilinear sum adds
a_m b_n per class.  ``util.digits`` splits the weights of the prime-power,
window and bilinear rows, and the bins are carried into digits as they are
built.
``abs_term_sum`` is the exact sum of |w| over the terms w chi(.) with
chi(.) != 0; equality tolerances downstream scale with it.  The
decomposition identity is weight 1 times the stacked rows of its parts,
one ``exact_dot`` for all.  Since the roots of unity are
conjugate-symmetric, T(conj chi) = conj T(chi) bit for bit, and T is real
for a real chi.  No value depends on a block size.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .characters import DirichletCharacter, induce_primitive
from .integers import (
    coprime_count,
    dirichlet_convolve,
    divisors,
    euler_phi,
    factor,
    mangoldt_sieve,
    mobius,
    mobius_sieve,
)
from .util import (
    DIGIT,
    PreconditionError,
    SplitMix64,
    WorkBudgetError,
    check_work,
    complex_fsum,
    digits,
    exact_dot,
    exact_sum,
    physical_memory,
    require,
)

# indices per block of generated terms: bounds the temporaries of one block
BLOCK = 1 << 14


@dataclass(frozen=True)
class SumValue:
    """An exactly computed sum plus audit data.

    ``term_count`` is the number of summands enumerated (zero character
    values included); ``abs_term_sum`` is their total absolute mass, which
    equality checks scale their tolerance with.
    """

    value: complex
    term_count: int
    abs_term_sum: float


# Bytes per prime power n <= x budgeted for growing the Lambda cache to x.
# The growth holds the old m, then the grown n and m, filled one at a time
# (at most 24 per prime power up to x), beside residue bins that outweigh
# the old n and m (16) only while one entry is kept alone; the sieve holds
# 16 per new prime power before that.  The rest is margin.
LAMBDA_BYTES = 48


class _LambdaCache:
    """The prime powers n <= ``top``, for the largest x read so far, with
    Lambda(n) as m = fl(log p) * 2**53, and residue bins of them per
    modulus.  log 2 > 1/2, so m is an integer, below 2**58 for p < 2**40,
    and np.ldexp(m, -53) is fl(log p) exactly.  The arrays are replaced,
    never written, so views handed out stay valid; the locks serialise
    growth and binning, since theorem_report's pool threads read the cache
    concurrently.  ``bins`` maps a modulus L to (x, digits, count) from
    ``_residue_bins``, least recently used first."""

    def __init__(self):
        self.lock = threading.Lock()
        self.top = 1
        self.n = np.zeros(0, dtype=np.int64)
        self.m = np.zeros(0, dtype=np.int64)
        self.bins_lock = threading.Lock()
        self.bins = {}


_LAMBDA = _LambdaCache()


def prime_power_bound(x: int) -> int:
    """An upper bound on the number of prime powers n <= x: pi(x) <
    1.25506 x / ln x (Rosser & Schoenfeld 1962), and sqrt(x) covers the
    higher prime powers."""
    return int(1.25506 * x / math.log(x) + math.isqrt(x)) if x >= 2 else 0


def _check_lambda_memory(x: int) -> None:
    """WorkBudgetError, before anything is allocated, when the Lambda arrays
    up to x could outgrow physical memory."""
    estimate = LAMBDA_BYTES * prime_power_bound(x)
    limit = physical_memory()
    if estimate > limit:
        raise WorkBudgetError(
            f"Lambda up to x = {x} needs about {estimate} bytes, "
            f"more than the {limit} bytes of physical memory"
        )


def _mangoldt_arrays(x: int):
    """(n, m) arrays over prime powers n <= x, m = fl(log p) * 2**53 as
    int64; prefix views of one shared cache, treat as read-only.  A larger
    x than any before sieves only the new part of the range and appends it
    to n; m grows next, taken block by block from the new n itself, then
    set from p at the few higher prime powers p^k, so no array of primes is
    held."""
    cache = _LAMBDA
    with cache.lock:
        if x > cache.top:
            _check_lambda_memory(x)
            table = mangoldt_sieve(cache.top + 1, x)
            higher, higher_prime = table.higher, table.higher_prime
            size = cache.n.size
            # one array at a time, so the old n is freed before m grows
            cache.n = np.concatenate((cache.n, table.n)) if size else table.n
            del table
            try:
                m = np.empty_like(cache.n)
                m[:size] = cache.m
                for a in range(size, m.size, BLOCK):
                    np.ldexp(np.log(cache.n[a : a + BLOCK]), 53, out=m[a : a + BLOCK], casting="unsafe")
                m[size + higher] = np.ldexp(np.log(higher_prime), 53)
            except MemoryError:
                cache.n = cache.n[:size]
                raise
            cache.m = m
            cache.top = x
        n, m = cache.n, cache.m
    cut = int(np.searchsorted(n, x, side="right"))
    return n[:cut], m[:cut]


def mangoldt_terms(x: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, Lambda(n)) over the prime powers n <= x: n is a read-only view
    of the cache, Lambda(n) a fresh float64 array."""
    n, m = _mangoldt_arrays(x)
    return n, np.ldexp(m, -53)


def mangoldt_weights(x: int) -> np.ndarray:
    """Lambda(0..x) as float64."""
    out = np.zeros(x + 1, dtype=np.float64)
    n, lam = mangoldt_terms(x)
    out[n] = lam
    return out


# ---------------------------------------------------------------------------
# The Lambda kernel: exact residue bins and an exactly rounded dot product

# Sums of the DIGIT-bit digits of the cached m < 2**58 stay exact in float64
# (below 2**53) over fewer than 2**33 prime powers.
_DIGIT_MASK = (1 << DIGIT) - 1
# The binning weighs each prime power by the two halves of m, below and from
# bit HALF; up to CARRY such halves sum exactly in float64 before they are
# carried into the digit rows.
HALF, CARRY = 29, 1 << 24


def _residue_bins(x: int, L: int) -> tuple[np.ndarray, np.ndarray]:
    """(digits, count) over the residues r mod L: S_r * 2**53 = sum_k
    digits[k, r] << (DIGIT * k), digits below 2**DIGIT, where S_r sums
    Lambda(n) over the prime powers n <= x, n = r (mod L), and count[r] is
    their number.  The bins stay cached, one entry per modulus, and serve
    every L that divides it: the classes mod L are unions of its classes,
    so their digit rows fold by summing and carrying again.  An entry at a
    smaller x0 grows to x by binning only the prime powers in (x0, x] and
    adding the two carried forms.  So every character mod L at one x, and
    every divisor of L, reads one binning, and a larger x bins only the new
    prime powers.  Folded and grown bins are bit for bit those a binning of
    every prime power up to x mod L would give: all hold the one carried
    base-2**DIGIT form of the same integers in the same rows.  The least
    recently used entries are dropped while the bins outweigh the cached
    n and m they summarize; the entry just read stays."""
    cache = _LAMBDA
    with cache.bins_lock:
        held = [M for M, (x0, _, _) in cache.bins.items() if M % L == 0 and x0 <= x]
        if held:
            M = max(held, key=lambda M: (cache.bins[M][0], -M))  # the latest x0, then the smallest M
            x0, digits, count = cache.bins.pop(M)
            if x0 < x:
                grown, more = _bin_residues(x, M, x0)
                grown[: len(digits)] += digits
                more += count
                digits, count = _carry(grown), more
        else:
            cache.bins.pop(L, None)  # free an entry at a larger x before binning
            M, (digits, count) = L, _bin_residues(x, L)
        cache.bins[M] = (x, digits, count)
        weight = cache.n.nbytes + cache.m.nbytes
        while len(cache.bins) > 1 and sum(d.nbytes + c.nbytes for _, d, c in cache.bins.values()) > weight:
            del cache.bins[next(iter(cache.bins))]
    if M == L:
        return digits, count
    folds = M // L
    return _carry(digits.reshape(len(digits), folds, L).sum(axis=1)), count.reshape(folds, L).sum(axis=0)


def _bin_residues(x: int, L: int, after: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The binning behind ``_residue_bins``, of the prime powers n with
    after < n <= x: one pass over them, three bincounts per block (the
    count and the two HALF-bit halves of m), whose sums are carried into the
    digit rows every CARRY prime powers.  The rows are as many as the
    prime powers up to x need, whatever ``after``, so bins of (after, x]
    and of (1, after] add row by row."""
    n, m = _mangoldt_arrays(x)
    if n.size >= 1 << 33:
        raise WorkBudgetError(f"{n.size} prime powers up to x = {x}: bins are exact below 2**33")
    # S_r * 2**53 < count[r] * 2**58 bounds the rows the carries reach
    digits = np.zeros((-(-(58 + n.size.bit_length()) // DIGIT), L))
    count = np.zeros(L)
    start = int(np.searchsorted(n, after, side="right"))
    n, m = n[start:], m[start:]
    step = min(4 * BLOCK, CARRY)
    for c in range(0, n.size, CARRY):
        low, high = np.zeros(L), np.zeros(L)
        for a in range(c, min(c + CARRY, n.size), step):
            b = min(a + step, c + CARRY)
            r = n[a:b] - L * (n[a:b] // L)  # n mod L: numpy's // by a scalar is the fast one
            count += np.bincount(r, minlength=L)
            low += np.bincount(r, m[a:b] & ((1 << HALF) - 1), L)
            high += np.bincount(r, m[a:b] >> HALF, L)
        # low + high * 2**HALF in DIGIT-bit digits, DIGIT < HALF < 2 DIGIT
        low, high = low.astype(np.int64), high.astype(np.int64)
        digits[0] += low & _DIGIT_MASK
        digits[1] += (low >> DIGIT) + ((high << (HALF - DIGIT)) & _DIGIT_MASK)
        digits[2] += high >> (2 * DIGIT - HALF)
        _carry(digits)
    return digits, count


def _carry(digits: np.ndarray) -> np.ndarray:
    """Carry digit rows, in place, into DIGIT-bit digits below the top row;
    exact while every entry stays below 2**53."""
    for k in range(len(digits) - 1):
        high = np.floor(digits[k] / (1 << DIGIT))
        digits[k + 1] += high
        digits[k] -= high * (1 << DIGIT)
    return digits


def bin_lambda(x: int, L: int) -> None:
    """Bin Lambda up to x by n mod L ahead of Lambda sums mod divisors of L,
    which then fold these bins instead of binning again; cached bins mod L,
    or mod a multiple of L, up to a smaller x grow to x.  Does nothing when
    L is not below the number of prime powers up to x, since sums with that
    many residues take the prime powers as rows."""
    if x >= 2 and L < _mangoldt_arrays(x)[0].size:
        _residue_bins(x, L)


def _character_dot(rows: np.ndarray, weights_of, values_of, scale: int = 53) -> tuple[complex, float]:
    """``exact_dot`` with the real and imaginary parts of the character values
    values_of(i) as lanes; never None, since those are roots of unity."""
    (re, im), mass = exact_dot(rows, weights_of, lambda i: np.stack(((g := values_of(i)).real, g.imag)), scale)
    return complex(re, im), mass


def _lambda_sum(x: int, L: int, chi: DirichletCharacter, l: int, includes=(None,)) -> list[SumValue]:
    """Per mask of ``includes``, the sum of Lambda(n) chi(n - l) over the
    prime powers n <= x with include(n) (all when None), where chi's
    modulus q divides L and include maps an int64 array to a bool mask that
    depends only on each entry mod L; term_count counts them, zero
    character values included.  The dot product's rows are the residue bins
    or the prime powers themselves, whichever are fewer.  Either way chi is
    read once for every mask, by ``values_at`` at the rows' points minus l,
    and include sees those min(L, pi*(x)) points: no value table is kept,
    and the prime-power rows build nothing of q entries.  l is reduced mod L
    as a Python int first, so any integer shift works."""
    if x < 2:
        return [SumValue(0j, 0, 0.0)] * len(includes)
    n, m = _mangoldt_arrays(x)
    if L < n.size:  # row i: the residue class i mod L
        bins, count = _residue_bins(x, L)
        points, digits_of = np.arange(L, dtype=np.int64), (lambda i: bins.take(i, axis=1))
    else:  # row i: the prime power n[i]
        count, points, digits_of = None, n, (lambda i: digits(m[i]))
    values = chi.values_at(points - l % L)
    out = []
    for include in includes:
        keep = values != 0
        terms = n.size
        if include is not None:
            inside = include(points)
            keep &= inside
            terms = int(np.count_nonzero(inside) if count is None else count.sum(where=inside))
        value, mass = _character_dot(np.flatnonzero(keep), digits_of, lambda i: values[i])
        out.append(SumValue(value, terms, mass))
    return out


def check_lambda_work(L: int, x: int, characters: int) -> None:
    """WorkBudgetError, before anything is sieved, when the Lambda arrays up
    to x could outgrow physical memory, or when ``characters`` sums mod L up
    to x exceed the work budget: one binning pass over the prime powers, then
    per character L weights and 16 products per row over min(L, pi*(x)) rows."""
    _check_lambda_memory(x)
    rows = prime_power_bound(x)
    check_work(rows + characters * (L + 16 * min(L, rows)), f"summing {characters} characters mod {L} up to x = {x}")


# ---------------------------------------------------------------------------
# Coefficient families for bilinear sums


def coeff_one(n: int) -> int:
    return 1


def coeff_mobius(n: int) -> int:
    return mobius(factor(n))


def coeff_tau5_family(seed: int):
    """Deterministic integer coefficients with |a_m| <= tau_5(m)."""

    def coeff(n: int) -> int:
        t5 = 1
        for _, a in factor(n).factors:
            t5 *= math.comb(a + 4, 4)
        u = SplitMix64(seed ^ (n * 0x9E3779B97F4A7C15)).next_u64()
        mag = u % (t5 + 1)
        return mag if (u >> 63) == 0 else -mag

    return coeff


def coefficient_family(name: str):
    """Resolve a serializable coefficient-family name to a callable."""
    if name == "one":
        return coeff_one
    if name == "mobius":
        return coeff_mobius
    if name.startswith("tau5:"):
        return coeff_tau5_family(int(name.split(":", 1)[1]))
    raise PreconditionError("coefficients", f"unknown family {name!r}")


# ---------------------------------------------------------------------------
# Main evaluators


def shifted_prime_sum(chi: DirichletCharacter, l: int, x: int) -> SumValue:
    """Sum of Lambda(n) chi(n - l) over n <= x."""
    D = chi.modulus
    require(math.gcd(l, D) == 1, "l", f"need gcd(l, D) = 1, got gcd({l}, {D}) > 1")
    return _lambda_sum(x, D, chi, l)[0]


def restricted_sum(chi_q: DirichletCharacter, nu: int, l: int, x: int) -> SumValue:
    """Sum of Lambda(n) chi_q(n - l) over n <= x with (n, q) = 1, n = l (mod nu).

    Both conditions depend only on n mod q nu, so one residue class mod
    L = q nu decides them and the character value."""
    q = chi_q.modulus
    require(nu >= 1, "nu", f"need nu >= 1, got {nu}")
    require(math.gcd(nu, q) == 1, "nu", f"need gcd(nu, q) = 1, got gcd({nu}, {q}) > 1")
    require(math.gcd(l, q * nu) == 1, "l", f"need gcd(l, q*nu) = 1")
    res = l % nu
    return _lambda_sum(x, q * nu, chi_q, l, (lambda r: (np.gcd(r, q) == 1) & (r % nu == res),))[0]


# The window and bilinear sums take their n in int64.  Every factor is
# reduced mod q (or nu) before it is multiplied, and they need q**2 < 2**63,
# so products stay in int64.
INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1


def _require_int64(name: str, lo: int, hi: int) -> None:
    """PreconditionError naming ``name`` unless every n in [lo, hi] fits in int64."""
    require(INT64_MIN <= lo and hi <= INT64_MAX, name, f"need {lo} <= n <= {hi} to fit in int64")


def _periodic_sum(chi_q: DirichletCharacter, count: int, args: np.ndarray, inside=None) -> SumValue:
    """Sum of chi_q(a_t) over 0 <= t < count with inside_t (all when None),
    where a_t and inside_t depend on t mod q only and are args[j] and
    inside[j] at t = j < min(count, q).  Row j is met count // q times, once
    more when j < count % q: ``weights`` holds the digits of both counts."""
    full, extra = divmod(count, chi_q.modulus)
    inside = np.ones(args.size, dtype=bool) if inside is None else inside
    values = chi_q.values_at(args)
    weights = digits([full, full + 1])
    value, mass = _character_dot(np.flatnonzero(inside & (values != 0)),
                                 lambda i: weights.take((i < extra).astype(np.intp), axis=1),
                                 lambda i: values[i], scale=0)
    terms = full * int(np.count_nonzero(inside)) + int(np.count_nonzero(inside[:extra]))
    return SumValue(value, terms, mass)


def short_sum(chi_q: DirichletCharacter, M: int, N: int, d: int, k: int, eta: int) -> SumValue:
    """Sum of chi_q(n*d + eta*k) over the window M - N < n <= M."""
    q = chi_q.modulus
    require(q * q <= INT64_MAX, "q", f"need q^2 < 2^63, got q={q}")
    require(math.gcd(eta, q) == 1, "eta", "need gcd(eta, q) = 1")
    require(math.gcd(d, k) == 1, "d,k", "need gcd(d, k) = 1")
    require(N >= 1, "N", "need N >= 1")
    _require_int64("M,N", M - N + 1, M)
    n = ((M - N + 1) % q + np.arange(min(N, q), dtype=np.int64)) % q
    return _periodic_sum(chi_q, N, (n * (d % q) + eta * k % q) % q)


def sy_sum(chi_q: DirichletCharacter, u, y, eta: int, nu: int) -> SumValue:
    """Sum of chi_q(n - eta) over u - y < n <= u with (n, q) = 1, n = eta (mod nu)."""
    q = chi_q.modulus
    require(q * q <= INT64_MAX, "q", f"need q^2 < 2^63, got q={q}")
    require(math.gcd(eta * nu, q) == 1, "eta*nu", "need gcd(eta*nu, q) = 1")
    lo = math.floor(u - y) + 1
    hi = math.floor(u)
    if hi < lo:
        return SumValue(0j, 0, 0.0)
    _require_int64("u,y", lo, hi)
    require(nu <= INT64_MAX, "nu", f"need nu < 2^63, got {nu}")
    # the window's n = eta (mod nu) are n0 + nu t, 0 <= t < count
    n0 = lo + (eta - lo) % nu
    count = (hi - n0) // nu + 1
    n = (n0 % q + nu % q * np.arange(min(count, q), dtype=np.int64)) % q
    return _periodic_sum(chi_q, count, (n - eta % q) % q, np.gcd(n, q) == 1)


def double_sum(
    chi_q: DirichletCharacter,
    a_m,
    b_n,
    M: int,
    N: int,
    U: int,
    nu: int,
    l: int,
    x: int,
) -> SumValue:
    """Bilinear sum over M < m <= 2M, U < n <= min(x/m, 2N) of
    a_m b_n chi_q(mn - l), with (mn, q) = 1 and mn = l (mod nu).  The
    products a_m b_n, each coefficient evaluated once, are added per class
    (mn - l) mod q, exactly while sum |a_m b_n| < 2**53; then one exact dot
    product."""
    q = chi_q.modulus
    require(q * q <= INT64_MAX, "q", f"need q^2 < 2^63, got q={q}")
    require(N <= U < 2 * N, "U", f"need N <= U < 2N, got N={N}, U={U}")
    top = min(x // max(M + 1, 1), 2 * N)
    _require_int64("x,N", U + 1, top)
    require(nu * nu <= INT64_MAX, "nu", f"need nu^2 < 2^63, got nu={nu}")
    a_m, b_n = (coefficient_family(c) if isinstance(c, str) else c for c in (a_m, b_n))
    ns = np.arange(U + 1, top + 1, dtype=np.int64)
    bs = np.array([b_n(v) for v in ns.tolist()], dtype=np.float64)
    keep = (bs != 0) & (np.gcd(ns, q) == 1)
    ns, bs = ns[keep], bs[keep]
    n_q, n_nu, l_q, l_nu = ns % q, ns % nu, l % q, l % nu
    weight, mass, terms = np.zeros(q), np.zeros(q), 0
    for m in range(M + 1, 2 * M + 1):
        if math.gcd(m, q) != 1:
            continue
        am = a_m(m)
        if am == 0:
            continue
        cut = int(np.searchsorted(ns, min(x // m, top), side="right"))  # n <= x / m
        sel = np.flatnonzero(m % nu * n_nu[:cut] % nu == l_nu)
        r = (m % q * n_q[sel] - l_q) % q
        w = am * bs[sel]
        np.add.at(weight, r, w)
        np.add.at(mass, r, np.abs(w))
        terms += sel.size
    # rounding is monotone: the float total reaches 2**53 when the exact one does
    require(mass.sum() < 1 << 53, "a_m,b_n",
            f"need sum |a_m b_n| < 2^53 for exact weights, got about {mass.sum():.6g}")
    rows = np.flatnonzero(mass)
    values = chi_q.values_at(rows)
    rows, values = rows[values != 0], values[values != 0]
    value, _ = _character_dot(np.arange(rows.size), lambda i: digits(weight[rows[i]].astype(np.int64)),
                              lambda i: values[i], scale=0)
    return SumValue(value, terms, float(mass[rows].sum()))


# ---------------------------------------------------------------------------
# Burgess moment sums


def burgess_moment_2r(chi_q: DirichletCharacter, Z: int, r: int) -> float:
    """Sum over all window starts of |sum_{z<=Z} chi_q(start + z)|^(2r), exact."""
    require(Z >= 1, "Z", "need Z >= 1")
    require(r >= 1, "r", "need r >= 1")
    starts = np.arange(chi_q.modulus, dtype=np.int64)[:, None]
    windows = chi_q.values_at(starts + np.arange(1, Z + 1, dtype=np.int64)).sum(axis=1)
    return exact_sum(np.abs(windows) ** (2 * r))


# ---------------------------------------------------------------------------
# Congruence-solution census


@dataclass(frozen=True)
class CongruenceInstance:
    """Parameters and solution census of the two-window congruence
    (n d + eta k) y = (n1 d + eta k) y1 (mod q).

    ``diagonal`` counts solutions with y = y1; kappa1..3 classify the
    off-diagonal (y < y1) solutions by the three proof cases, each counted
    once, so K = diagonal + 2 (kappa1 + kappa2 + kappa3).
    """

    q: int
    d: int
    eta: int
    k: int
    M: int
    N: int
    Y: int
    K: int
    diagonal: int
    kappa1: int
    kappa2: int
    kappa3: int
    rho: int

    @property
    def kappa_total(self) -> int:
        return self.kappa1 + self.kappa2 + self.kappa3


def validate_census_preconditions(q, d, eta, k, M, N, Y):
    require(q >= 2, "q", "need q >= 2")
    require(d >= 1 and q % d == 0, "d|q", f"need d | q, got d={d}, q={q}")
    require(math.gcd(eta, q) == 1, "eta", "need gcd(eta, q) = 1")
    require(math.gcd(k, d) == 1, "k", "need gcd(k, d) = 1")
    require(N >= 1, "N", "need N >= 1")
    require(Y >= 1, "Y", "need Y >= 1")
    require(M >= 0, "M", "need M >= 0")
    require(2 * N * Y < q, "2NY<q", f"need 2NY < q, got 2*{N}*{Y} >= {q}")
    require(d < Y, "d<Y", f"need d < Y, got d={d}, Y={Y}")


def rho_divisor_count(q: int, d: int, Y: int) -> int:
    """Divisors beta of q/d with q/Y <= beta < q/d and gcd(beta, d) = 1."""
    require(d >= 1 and q % d == 0, "d|q", f"need d | q, got d={d}, q={q}")
    qd = q // d
    count = 0
    for beta in divisors(factor(qd)):
        if beta * Y >= q and beta < qd and math.gcd(beta, d) == 1:
            count += 1
    return count


def congruence_census(q, d, eta, k, M, N, Y, coprime=None) -> CongruenceInstance:
    """Exact enumeration of the congruence solutions with the case split
    applied literally to the off-diagonal solutions.

    Pairs (n, y) are grouped by the residue (nd + eta k) y mod q; K is the
    number of ordered pairs of colliding entries.  Within one residue group
    the y values are pairwise distinct (a consequence of 2NY < q), so the
    diagonal consists exactly of the identity pairs.  The N*Y_q pairs are
    checked against the work budget first; ``coprime``, Y_q = #{y <= Y :
    gcd(y, q) = 1}, is counted when not given.
    """
    validate_census_preconditions(q, d, eta, k, M, N, Y)
    if coprime is None:
        coprime = coprime_count(Y, q)
    check_work(N * coprime, f"the census at q = {q}, N = {N}, Y = {Y} (N*Y_q pairs)")
    ys = [y for y in range(1, Y + 1) if math.gcd(y, q) == 1]
    groups: dict[int, list[tuple[int, int]]] = {}
    shift = eta * k
    for n in range(M + 1, M + N + 1):
        base = (n * d + shift) % q
        for y in ys:
            groups.setdefault(base * y % q, []).append((n, y))
    qd = q // d
    K = diagonal = kappa1 = kappa2 = kappa3 = 0
    for sols in groups.values():
        s = len(sols)
        K += s * s
        diagonal += s
        if s == 1:
            continue
        sols.sort(key=lambda ny: ny[1])
        for j in range(1, s):
            n1, y1 = sols[j]
            w = (n1 * d + shift) % qd
            for i in range(j):
                y = sols[i][1]
                delta = y1 - y
                assert delta > 0 and delta % d == 0, "off-diagonal gap must be a multiple of d"
                t = delta // d
                if w == 0:
                    kappa1 += 1
                elif (w * t) % qd == 0:
                    kappa2 += 1
                else:
                    kappa3 += 1
    assert K == diagonal + 2 * (kappa1 + kappa2 + kappa3)
    return CongruenceInstance(
        q, d, eta, k, M, N, Y, K, diagonal, kappa1, kappa2, kappa3,
        rho_divisor_count(q, d, Y),
    )


# ---------------------------------------------------------------------------
# Weighted-decomposition identity (exact splitting of Lambda-weighted sums)


@dataclass
class HBDecomposition:
    """Parts of the exact identity splitting sum Lambda(n) f(n), n <= x.

    ``parts`` holds one value per head depth k = 1..r (sign and binomial
    coefficient folded in) plus the final alternating tail, so their sum
    ``total`` reproduces ``lhs`` up to rounding; ``residual`` is that defect.
    """

    parts: list[complex]
    lhs: complex
    total: complex
    residual: float


def char_twist_weight(chi_q: DirichletCharacter, l: int, x: int) -> np.ndarray:
    """Weight f(n) = chi_q(n - l) gated by (n, q) = 1, on 0..x."""
    q = chi_q.modulus
    require(math.gcd(l, q) == 1, "l", "need gcd(l, q) = 1")
    ns = np.arange(x + 1, dtype=np.int64)
    out = chi_q.values_at(ns - l % q)
    out[np.gcd(ns, q) != 1] = 0
    out[0] = 0
    return out


def hb_decompose(f, x: int, u1: int, r: int) -> HBDecomposition:
    """Decompose sum_{n<=x} Lambda(n) f(n), for f given as an array on
    0..x, into r truncated-Mobius head groups and one alternating tail; the
    identity is exact, so the reported residual is pure floating-point
    rounding.  The r head coefficient rows, the tail row and Lambda are
    multiplied by f as one stack, and one ``exact_dot`` of weight 1 rounds
    the real and imaginary parts of every row's sum."""
    require(1 <= u1 <= x, "u1", f"need 1 <= u1 <= x, got u1={u1}, x={x}")
    require(r >= 1, "r", "need r >= 1")
    farr = np.asarray(f, dtype=np.complex128)
    require(len(farr) >= x + 1, "f", "weight array must cover 0..x")
    farr = farr[: x + 1].copy()
    farr[0] = 0

    ones = np.ones(x + 1, dtype=np.float64)
    ones[0] = 0.0
    logs = np.zeros(x + 1, dtype=np.float64)
    logs[1:] = np.log(np.arange(1, x + 1, dtype=np.float64))
    lam_w = mangoldt_weights(x)
    g = mobius_sieve(x).astype(np.float64)
    g[u1 + 1 :] = 0.0

    tail_w = dirichlet_convolve(g, ones)
    tail_w[: u1 + 1] = 0.0

    rows = []
    gk, pk = g, logs
    for k in range(1, r + 1):
        if k > 1:
            gk, pk = dirichlet_convolve(gk, g), dirichlet_convolve(pk, ones)
        rows.append(dirichlet_convolve(gk, pk))
    tail = tail_w
    for _ in range(r - 1):
        tail = dirichlet_convolve(tail, tail_w)
    rows += [dirichlet_convolve(tail, lam_w), lam_w]

    terms = np.stack(rows) * farr
    lanes = np.concatenate((terms.real, terms.imag))
    sums, _ = exact_dot(range(x + 1), None, lambda i: lanes[:, i.start : i.stop])
    *raw, lhs = (complex(re, im) for re, im in zip(sums[: len(rows)], sums[len(rows) :]))
    signs = [(-1) ** (k + 1) * math.comb(r, k) for k in range(1, r + 1)] + [(-1) ** r]
    parts = [sign * v for sign, v in zip(signs, raw, strict=True)]
    total = complex_fsum(parts)
    return HBDecomposition(parts, lhs, total, abs(total - lhs))


# ---------------------------------------------------------------------------
# Coprime counting (exact rational deviation)


def coprime_count_sweep(q_max: int, u_max: int) -> tuple[int, Fraction]:
    """Exact-integer sweep of the deviation bound over the full grid.

    Returns (number of checked pairs, worst deviation/bound ratio); the
    bound holds where the ratio is at most 1, and a larger one is returned
    like any other for the record to fail.  Each row q is one integer pass
    over U = 1..u_max: counts by cumulative sum of gcd(U, q) == 1,
    deviations cross-multiplied by q, no floats involved.  The denominator
    is fixed within a row, so the row's worst ratio is one Fraction of its
    largest deviation.
    """
    if u_max < 1:
        return 0, Fraction(0)
    U = np.arange(1, u_max + 1, dtype=np.int64)
    checked = 0
    worst = Fraction(0)
    for q in range(1, q_max + 1):
        f = factor(q)
        bound = 2 ** len(f.factors)
        lhs_num = np.abs(q * np.cumsum(np.gcd(U, q) == 1) - euler_phi(f) * U)  # deviation * q
        checked += U.size
        worst = max(worst, Fraction(int(lhs_num.max()), bound * q))
    return checked, worst


# ---------------------------------------------------------------------------
# Mobius recombination of the restricted sums


@dataclass
class MobiusRecombination:
    """Both sides of the divisor-recombination identity for T(chi)."""

    lhs: SumValue
    recombined: complex
    correction: complex
    residual: float
    abs_mass: float
    nus: list[int]


def recombination_nus(D: int, q: int) -> list[int]:
    """The nu of the recombination identity, ascending: every divisor of q1,
    the product of the primes of D that do not divide q (so each nu is
    squarefree)."""
    return divisors(factor(math.prod(p for p in factor(D).primes if q % p != 0)))


def mobius_recombination(chi: DirichletCharacter, l: int, x: int) -> MobiusRecombination:
    """T(chi) equals sum over squarefree nu | q1 of mu(nu) T(chi_q, nu)
    plus the exactly-computed contribution of terms with (n, q) > 1."""
    D = chi.modulus
    require(not chi.is_principal, "chi", "need a non-principal character")
    require(math.gcd(l, D) == 1, "l", "need gcd(l, D) = 1")
    chi_q = induce_primitive(chi)
    q = chi_q.modulus

    # T(chi, l), and the terms with (n, q) > 1 evaluated against chi itself:
    # one read of chi at the same points for both
    lhs, corr = _lambda_sum(x, D, chi, l, (None, lambda r: np.gcd(r, q) != 1))

    pieces = []
    masses = [lhs.abs_term_sum, corr.abs_term_sum]
    nus = recombination_nus(D, q)
    for nu in nus:
        mu_nu = mobius(factor(nu))
        part = restricted_sum(chi_q, nu, l, x)
        pieces.append(mu_nu * part.value)
        masses.append(part.abs_term_sum)
    recombined = complex_fsum(pieces)

    residual = abs(lhs.value - (recombined + corr.value))
    return MobiusRecombination(lhs, recombined, corr.value, residual, exact_sum(masses), nus)
