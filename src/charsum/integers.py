"""Exact integer substrate: factorization, multiplicative functions, the von
Mangoldt sieve and smooth counting.

Everything here is exact integer arithmetic; the sieved tables of mu, tau
and tau_r come from one vectorized least-prime-factor walk.  The von
Mangoldt sieve streams one boolean segment at a time and keeps only the
prime powers it finds, so its memory grows per prime power, not per
integer.  ``MangoldtTable`` stores those prime powers exactly, as n with
the primes of the few higher powers beside it; the log values are taken
by its readers, so no floating point enters this module's tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .util import require

_SMALL_PRIME_LIMIT = 10**6

# mangoldt_sieve covers n < 2^MANGOLDT_CAP_BITS, sieving SEGMENT odd integers at a time
MANGOLDT_CAP_BITS = 40
SEGMENT = 1 << 20

# Deterministic Miller-Rabin witnesses, valid for all n < 3.3e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _eratosthenes(n: int) -> np.ndarray:
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve)


@lru_cache(maxsize=1)
def _small_primes() -> np.ndarray:
    return _eratosthenes(_SMALL_PRIME_LIMIT)


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n, ascending."""
    table = _small_primes() if n <= _SMALL_PRIME_LIMIT else _eratosthenes(n)
    return table[table <= n]


def trial_divisions(n: int) -> int:
    """The most trial divisions ``factor`` makes for any q <= n: one per
    table prime up to sqrt(n), and the one that ends the loop."""
    return primes_up_to(min(math.isqrt(n), _SMALL_PRIME_LIMIT)).size + 1


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for the 64-bit range."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Brent-cycle Pollard rho; deterministic over an increasing c sequence."""
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise RuntimeError(f"pollard rho failed on {n}")  # unreachable at 64-bit scale


@dataclass(frozen=True)
class FactoredInteger:
    """A positive integer with its prime-power factorization.

    Invariants: primes strictly increasing, exponents >= 1, product of
    prime powers equals ``value``; 1 carries an empty factor list.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        require(self.value >= 1, "value", "must be a positive integer")
        acc = 1
        last = 0
        for p, a in self.factors:
            require(p > last, "factors", "primes must be strictly increasing")
            require(a >= 1, "factors", "exponents must be >= 1")
            acc *= p**a
            last = p
        require(acc == self.value, "factors", "prime powers must multiply to value")

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def __int__(self) -> int:
        return self.value


def as_factored(n) -> FactoredInteger:
    """Coerce an int (or pass through a FactoredInteger)."""
    if isinstance(n, FactoredInteger):
        return n
    return factor(n)


def factor(n: int) -> FactoredInteger:
    """Factor n: trial division over a fixed prime table, Pollard rho fallback."""
    require(isinstance(n, int) and 1 <= n < 2**63, "n", f"need integer in [1, 2^63), got {n!r}")
    rest = n
    found: dict[int, int] = {}
    for p in _small_primes():
        p = int(p)
        if p * p > rest:
            break
        while rest % p == 0:
            found[p] = found.get(p, 0) + 1
            rest //= p
    stack = [rest] if rest > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            found[m] = found.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    factors = tuple(sorted(found.items()))
    return FactoredInteger(n, factors)


def euler_phi(f) -> int:
    """phi(n) = prod p^(a-1) (p-1)."""
    f = as_factored(f)
    out = 1
    for p, a in f.factors:
        out *= p ** (a - 1) * (p - 1)
    return out


def mobius(f) -> int:
    """mu(n): 0 on non-squarefree n, else (-1)^(number of prime factors)."""
    f = as_factored(f)
    if any(a >= 2 for _, a in f.factors):
        return 0
    return -1 if len(f.factors) % 2 else 1


def omega(f) -> int:
    """Number of distinct prime divisors."""
    return len(as_factored(f).factors)


def tau_r(n: int, r: int) -> int:
    """Number of ordered r-tuples with product n; tau_r(p^a) = C(a+r-1, r-1)."""
    require(r >= 2, "r", "need r >= 2")
    f = as_factored(n)
    out = 1
    for _, a in f.factors:
        out *= math.comb(a + r - 1, r - 1)
    return out


def coprime_count(n: int, f) -> int:
    """#{1 <= y <= n : gcd(y, m) = 1} for m given by f, without listing the
    y: the sum of mu(d) floor(n / d) over the squarefree divisors d of m."""
    terms = [(1, 1)]
    for p in as_factored(f).primes:
        terms += [(d * p, -mu) for d, mu in terms]
    return sum(mu * (n // d) for d, mu in terms)


def divisors(f) -> list[int]:
    """All divisors, ascending (mixed-radix expansion over the exponents)."""
    divs = [1]
    for p, a in as_factored(f).factors:
        divs = [d * p**e for d in divs for e in range(a + 1)]
    return sorted(divs)


def smooth_count(x: int, z: int, b=1) -> int:
    """Count n < x (strictly) coprime to b whose prime divisors are all < z.

    Both inequalities are strict, matching the counting function's wording
    "less than x" / "less than z"; n = 1 always counts.
    """
    require(z >= 2, "z", "need z >= 2")
    b = as_factored(b)
    if x <= 1:
        return 0
    banned = set(b.primes)
    plist = [int(p) for p in primes_up_to(z - 1) if int(p) not in banned]
    count = 0
    stack = [(1, 0)]
    while stack:
        prod, i = stack.pop()
        count += 1
        for j in range(i, len(plist)):
            nxt = prod * plist[j]
            if nxt >= x:
                break
            stack.append((nxt, j))
    return count


# ---------------------------------------------------------------------------
# Sieved tables: one least-prime-factor walk (Gries & Misra 1978) for every
# multiplicative f, and a gathered Dirichlet convolution for general arrays.

_PAIR_CHUNK = 1 << 20  # dirichlet_convolve adds < _PAIR_CHUNK + x pairs per pass


def _multiplicative(n: int, local, dtype) -> np.ndarray:
    """f(0..n) for the multiplicative f with f(p^a) = local(a); f(0) = 0.

    Each m >= 2 is p^a c, p its least prime factor and p not dividing c, so
    f(m) = f(p^a) f(c).  m / p lies in an earlier octave [2^k, 2^(k+1)) and
    gives the split of m, so one vectorized pass per octave fills a, c, f."""
    if n < 1:
        return np.zeros(n + 1, dtype=dtype)
    m = np.arange(n + 1, dtype=np.int32 if n < 2**31 else np.int64)
    lpf = np.zeros_like(m)
    for p in primes_up_to(math.isqrt(n))[::-1].tolist():
        lpf[p * p :: p] = p  # descending, so the least prime factor writes last
    np.copyto(lpf, m, where=lpf == 0)
    head = np.array([local(e) for e in range(n.bit_length())], dtype=dtype)
    a, c = np.zeros(n + 1, dtype=np.int8), np.ones_like(m)
    out = (m == 1).astype(dtype)
    for k in range(1, n.bit_length()):
        octave = slice(1 << k, 2 << k)
        p = lpf[octave]
        rest = m[octave] // p
        again = lpf[rest] == p
        a[octave] = np.where(again, a[rest] + 1, 1)
        c[octave] = np.where(again, c[rest], rest)
        out[octave] = head[a[octave]] * out[c[octave]]
    return out


def mobius_sieve(n: int) -> np.ndarray:
    """mu(0..n) as int8 (mu(0) set to 0)."""
    return _multiplicative(n, lambda a: (1, -1, 0)[min(a, 2)], np.int8)


def divisor_count_sieve(n: int) -> np.ndarray:
    """tau(0..n) as int64 (tau(0) = 0)."""
    return _multiplicative(n, lambda a: a + 1, np.int64)


def tau_r_sieve(x: int, r: int) -> np.ndarray:
    """tau_r(0..x) as int64 (tau_r(0) = 0) from tau_r(p^a) = C(a+r-1, r-1)."""
    require(r >= 2, "r", "need r >= 2")
    return _multiplicative(x, lambda a: math.comb(a + r - 1, r - 1), np.int64)


def dirichlet_convolve(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(f * g)(n) = sum_{ab=n} f(a) g(b) for arrays indexed 0..x.

    Pairs with ab <= x and f(a) != 0 are gathered by ascending a, then b;
    ``np.add.at`` adds them into out[ab] in that order, so each out[n] sums
    by ascending a whatever the chunking, and integer sums stay exact."""
    x = len(f) - 1
    out = np.zeros(x + 1, dtype=np.result_type(f, g))
    idx = np.int32 if x < 2**31 else np.int64
    a = np.flatnonzero(f[1:] != 0).astype(idx) + 1
    counts = x // a
    # one pass per run of a whose cumulative pair counts share a multiple of _PAIR_CHUNK
    cuts = np.flatnonzero(np.diff(np.cumsum(counts) // _PAIR_CHUNK)) + 1
    for ca, cc in zip(np.split(a, cuts), np.split(counts, cuts)):
        starts = np.repeat(np.cumsum(cc, dtype=idx) - cc, cc)
        b = np.arange(1, starts.size + 1, dtype=idx) - starts
        np.add.at(out, np.repeat(ca, cc) * b, np.repeat(f[ca], cc) * g[b])
    return out


@dataclass
class MangoldtTable:
    """Von Mangoldt values on [lo, hi], stored exactly as the prime powers.

    ``n`` lists the prime powers in the range, ascending; every other
    integer in the range has Lambda = 0.  n[i] is prime except at the few
    indices ``higher``, where n[higher[j]] = p^k, k >= 2, for the prime
    p = higher_prime[j].  ``prime`` derives the prime of every n[i], so
    Lambda(n[i]) = log(prime[i]); no rounding is baked into the table.
    """

    lo: int
    hi: int
    n: np.ndarray
    higher: np.ndarray
    higher_prime: np.ndarray

    @property
    def prime(self) -> np.ndarray:
        """The prime of each n[i], as a fresh array of n's length."""
        prime = self.n.copy()
        prime[self.higher] = self.higher_prime
        return prime


def mangoldt_sieve(lo: int, hi: int) -> MangoldtTable:
    """Segmented sieve of Lambda over [lo, hi] (Bays & Hudson 1977).

    The odd integers of the range are sieved ``SEGMENT`` at a time, one
    byte each, by the odd primes up to sqrt(hi), and each segment keeps only
    the primes it leaves.  The powers p^k, k >= 2, of the primes up to
    sqrt(hi) are merged in once at the end.  Memory is one segment plus
    about 16 bytes per prime power, and the table does not depend on the
    segmentation."""
    require(1 <= lo, "lo", "need lo >= 1")
    require(lo <= hi, "hi", f"need lo <= hi, got [{lo}, {hi}]")
    require(hi < 2**MANGOLDT_CAP_BITS, "hi", f"range capped at 2^{MANGOLDT_CAP_BITS}")
    base = primes_up_to(math.isqrt(hi))
    odd = base[1:]
    squares = odd * odd
    found = [np.array([2] if lo <= 2 <= hi else [], dtype=np.int64)]
    first = lo | 1
    size = max(1, min(SEGMENT, (hi - first) // 2 + 1))  # odd integers per segment
    for seg_lo in range(first, hi + 1, 2 * size):
        seg_hi = min(seg_lo + 2 * size - 2, hi)
        alive = np.ones((seg_hi - seg_lo) // 2 + 1, dtype=bool)  # alive[i]: seg_lo + 2i
        if seg_lo == 1:
            alive[0] = False
        start = -(-seg_lo // odd) * odd
        start += odd * (start % 2 == 0)  # least odd multiple >= seg_lo
        np.maximum(start, squares, out=start)
        hit = start <= seg_hi
        for p, i in zip(odd[hit].tolist(), ((start[hit] - seg_lo) // 2).tolist()):
            alive[i::p] = False
        found.append(np.flatnonzero(alive) * 2 + seg_lo)
    primes = np.concatenate(found)
    del found
    higher = []  # (p^k, p) with k >= 2 inside the range
    for p in base.tolist():
        q = p * p
        while q <= hi:
            if q >= lo:
                higher.append((q, p))
            q *= p
    pk, pp = np.array(sorted(higher), dtype=np.int64).reshape(-1, 2).T
    at = np.searchsorted(primes, pk)
    n = np.insert(primes, at, pk)
    del primes
    return MangoldtTable(lo, hi, n, at + np.arange(at.size), pp)  # where np.insert put them
