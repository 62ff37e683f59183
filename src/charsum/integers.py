"""Exact integer substrate: factorization, multiplicative functions, the von
Mangoldt sieve, smooth counting and modular inverses.

Everything here is exact integer arithmetic.  Floating point enters only
through ``MangoldtTable`` log values, which are derived on demand from the
stored (prime, exponent) pairs so the table itself stays exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .util import exact_sum, require

_SMALL_PRIME_LIMIT = 10**6

# Deterministic Miller-Rabin witnesses, valid for all n < 3.3e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class NotInvertibleError(ValueError):
    """Requested modular inverse does not exist: gcd(a, m) > 1."""


@lru_cache(maxsize=1)
def _small_primes() -> np.ndarray:
    sieve = np.ones(_SMALL_PRIME_LIMIT + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(_SMALL_PRIME_LIMIT) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve)


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n, ascending."""
    if n <= _SMALL_PRIME_LIMIT:
        table = _small_primes()
        return table[table <= n]
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve)


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
        if m == 1:
            continue
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


def divisors(f) -> list[int]:
    """All divisors, ascending (mixed-radix expansion over the exponents)."""
    f = as_factored(f)
    divs = [1]
    for p, a in f.factors:
        pk = 1
        block = []
        for _ in range(a):
            pk *= p
            block.extend(d * pk for d in divs)
        divs.extend(block)
    divs.sort()
    return divs


def truncated_mobius(n: int, u1: int) -> int:
    """Sum of mu(d) over divisors d of n with d <= u1.

    Equals [n == 1] once u1 >= n (full Mobius sum).  Only squarefree
    divisors contribute, so we walk subsets of the distinct primes.
    """
    require(n >= 1, "n", "must be positive")
    require(u1 >= 1, "u1", "must be positive")
    primes = as_factored(n).primes
    total = 0
    stack = [(0, 1, 1)]  # (next prime index, product so far, mu sign)
    while stack:
        i, prod, sign = stack.pop()
        total += sign
        for j in range(i, len(primes)):
            nxt = prod * primes[j]
            if nxt <= u1:
                stack.append((j + 1, nxt, -sign))
    return total


def mod_inverse(a: int, m: int) -> int:
    """Least nonnegative x with a*x = 1 (mod m); raises NotInvertibleError."""
    require(m >= 1, "m", "modulus must be positive")
    try:
        return pow(a, -1, m)
    except ValueError as exc:
        raise NotInvertibleError(f"{a} has no inverse modulo {m}") from exc


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
# Sieved tables


def mobius_sieve(n: int) -> np.ndarray:
    """mu(0..n) as int8 (mu(0) set to 0), linear sieve."""
    mu = np.zeros(n + 1, dtype=np.int8)
    if n >= 1:
        mu[1] = 1
    primes: list[int] = []
    is_comp = np.zeros(n + 1, dtype=bool)
    for i in range(2, n + 1):
        if not is_comp[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            ip = i * p
            if ip > n:
                break
            is_comp[ip] = True
            if i % p == 0:
                mu[ip] = 0
                break
            mu[ip] = -mu[i]
    return mu


def divisor_count_sieve(n: int) -> np.ndarray:
    """tau(0..n) as int64 (tau(0) = 0)."""
    tau = np.zeros(n + 1, dtype=np.int64)
    for d in range(1, n + 1):
        tau[d::d] += 1
    return tau


def dirichlet_convolve(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(f * g)(n) = sum_{ab=n} f(a) g(b) for arrays indexed 0..x."""
    x = len(f) - 1
    out = np.zeros(x + 1, dtype=np.result_type(f, g))
    for a in range(1, x + 1):
        fa = f[a]
        if fa == 0:
            continue
        top = x // a
        out[a :: a] += fa * g[1 : top + 1]
    return out


def tau_r_sieve(x: int, r: int) -> np.ndarray:
    """tau_r(0..x) as int64 via repeated convolution with the all-ones array."""
    require(r >= 2, "r", "need r >= 2")
    ones = np.ones(x + 1, dtype=np.int64)
    ones[0] = 0
    out = ones.copy()
    for _ in range(r - 1):
        out = dirichlet_convolve(out, ones)
    return out


@dataclass
class MangoldtTable:
    """Von Mangoldt values on [lo, hi], stored exactly as (prime, exponent).

    ``prime[i]`` is p when lo+i = p^a (a = ``power[i]``), else 0.  Log values
    are produced on demand so no rounding is baked into the table.
    """

    lo: int
    hi: int
    prime: np.ndarray
    power: np.ndarray

    def value(self, n: int) -> float:
        require(self.lo <= n <= self.hi, "n", "outside the sieved range")
        p = int(self.prime[n - self.lo])
        return math.log(p) if p else 0.0

    def log_values(self) -> np.ndarray:
        """Lambda(n) for n in [lo, hi] as float64 (0 where not a prime power)."""
        out = np.zeros(len(self.prime), dtype=np.float64)
        mask = self.prime > 0
        out[mask] = np.log(self.prime[mask].astype(np.float64))
        return out

    def prime_power_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(n, p, a) arrays over the prime powers in the range, ascending n."""
        idx = np.flatnonzero(self.prime)
        return idx + self.lo, self.prime[idx], self.power[idx].astype(np.int64)

    def total(self) -> float:
        """Chebyshev psi over the range, exactly rounded."""
        return exact_sum(self.log_values())


def mangoldt_sieve(lo: int, hi: int, segment_size: int = 1 << 16) -> MangoldtTable:
    """Segmented sieve of Lambda over [lo, hi]; the output is independent of
    the segmentation, so segments may be produced concurrently."""
    require(1 <= lo, "lo", "need lo >= 1")
    require(lo <= hi, "hi", f"need lo <= hi, got [{lo}, {hi}]")
    require(hi < 2**40, "hi", "range capped at 2^40")
    size = hi - lo + 1
    prime = np.zeros(size, dtype=np.int64)
    power = np.zeros(size, dtype=np.int16)
    base = [int(p) for p in primes_up_to(math.isqrt(hi))]
    for seg_lo in range(lo, hi + 1, segment_size):
        seg_hi = min(seg_lo + segment_size - 1, hi)
        _sieve_segment(seg_lo, seg_hi, base, prime, power, lo)
    return MangoldtTable(lo, hi, prime, power)


def _sieve_segment(seg_lo, seg_hi, base_primes, prime, power, table_lo):
    n = seg_hi - seg_lo + 1
    composite = np.zeros(n, dtype=bool)
    off = seg_lo - table_lo
    for p in base_primes:
        start = max(p * p, ((seg_lo + p - 1) // p) * p)
        if start <= seg_hi:
            composite[start - seg_lo :: p] = True
        # all powers of p inside the segment, including p itself
        pk, a = p, 1
        while pk <= seg_hi:
            if pk >= seg_lo:
                prime[off + pk - seg_lo] = p
                power[off + pk - seg_lo] = a
            pk *= p
            a += 1
    # what survives the composite marks and is >= 2 is a prime > sqrt(hi)
    idx = np.flatnonzero(~composite)
    vals = idx + seg_lo
    fresh = (vals >= 2) & (prime[off + idx] == 0)
    sel = idx[fresh]
    prime[off + sel] = sel + seg_lo
    power[off + sel] = 1
