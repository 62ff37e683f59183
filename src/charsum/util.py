"""Shared plumbing: named preconditions, a deterministic RNG, exactly rounded
summation and the thread pool that ``bounds.theorem_report`` runs its moduli
on.

Summation policy: every sum that feeds an equality check goes through one
exact accumulator, ``ExactSum``: the character sums through the exact dot
product of ``sums._exact_dot``, float terms through ``exact_sum`` and
``complex_fsum``.  It bins the float64 terms by binary exponent into buckets
whose float64 sums stay exact, moves the buckets into a Python integer
before they could round, and rounds that integer once at the end.  The
result is the correctly rounded sum, equal to ``math.fsum`` of the same
terms, so it does not depend on term order or on how the terms are split
across ``add`` calls.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

MASK64 = (1 << 64) - 1


class PreconditionError(ValueError):
    """A named precondition was violated; ``name`` identifies which one."""

    def __init__(self, name: str, message: str):
        super().__init__(f"precondition '{name}' violated: {message}")
        self.name = name


class WorkBudgetError(RuntimeError):
    """Requested computation exceeds the configured work budget."""


def require(condition, name: str, message: str) -> None:
    if not condition:
        raise PreconditionError(name, message)


class SplitMix64:
    """Deterministic 64-bit generator; the stream depends only on the seed.

    Used instead of ``random.Random`` so that sampled choices are stable
    across Python versions, which the byte-identical report contract needs.
    """

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Unbiased integer in [0, n)."""
        require(n > 0, "n", "sampling range must be nonempty")
        threshold = ((MASK64 + 1) // n) * n
        while True:
            u = self.next_u64()
            if u < threshold:
                return u % n

    def randint(self, lo: int, hi: int) -> int:
        """Integer in [lo, hi], endpoints included."""
        return lo + self.below(hi - lo + 1)

    def choice(self, seq):
        return seq[self.below(len(seq))]

    def distinct(self, lo: int, hi: int, count: int, accept=None) -> list:
        """First ``count`` distinct accepted values drawn from [lo, hi].

        Raises PreconditionError once every value in [lo, hi] has been drawn
        and fewer than ``count`` of them were accepted.
        """
        seen: set[int] = set()
        out: list[int] = []
        while len(out) < count:
            if len(seen) > hi - lo:
                raise PreconditionError(
                    "count", f"only {len(out)} accepted values in [{lo}, {hi}], need {count}"
                )
            v = self.randint(lo, hi)
            if v in seen:
                continue
            seen.add(v)
            if accept is None or accept(v):
                out.append(v)
        return out


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def physical_memory() -> int:
    """Bytes of physical memory in the machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def map_blocks(fn, items) -> list:
    """Apply ``fn`` to every item on min(len(items), usable CPUs) threads;
    results come back in item order regardless of scheduling."""
    width = min(len(items), usable_cpus())
    if width <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=width) as pool:
        return list(pool.map(fn, items))


# np.frexp writes a finite nonzero x as m * 2**e with 0.5 <= |m| < 1 and
# -1073 <= e <= 1024 (zero, inf and nan come back with e = 0); bucket k of a
# lane holds exponent e = k - _EXP_OFFSET.
_EXP_OFFSET = 1073
_NBUCKETS = 2098
# a term is m * 2**e = (hi + lo) * 2**(e - 26) with hi = trunc(m * 2**26),
# |hi| < 2**26, and lo * 2**27 an integer below 2**27 in magnitude
_HI_SCALE = float(1 << 26)
_LO_SCALE = float(1 << 27)
# flushed sums are integers in units of the smallest subnormal's lowest bit
_UNIT = 1 << (_EXP_OFFSET + 53)
# a bucket that has received at most this many parts, each below 2**27 in
# its unit, sums to less than 2**52 units, so its float64 sum is exact
FLUSH_TERMS = 1 << 25
# below this many terms the one-shot helpers call math.fsum directly, which
# is faster there (the crossover is ~1000-2000 terms on a 2-CPU x86 box);
# both paths return the same correctly rounded value
SMALL_SUM = 1024


class ExactSum:
    """Exactly rounded sum of float64 values in ``lanes`` independent lanes
    (a small superaccumulator, Neal 2015).

    ``add`` bins every term by its binary exponent, as a 26-bit integer part
    and a 27-bit fraction part, with ``np.bincount``.  The float64 buckets
    stay exact until FLUSH_TERMS terms have arrived; before that they are
    moved into one Python int per lane.  ``values`` rounds each int once with
    int / int true division, which is correctly rounded, so every lane equals
    ``math.fsum`` of its terms, however they were split across ``add`` calls.

    inf and nan follow ``math.fsum``: nan wins, and inf + -inf raises
    ValueError.  A finite sum that overflows raises OverflowError, as fsum
    does; fsum also raises when a running sum overflows and a later term
    cancels it, where this accumulator returns the exact result.
    """

    def __init__(self, lanes: int = 1):
        self.lanes = lanes
        self.count = 0  # terms added per lane
        self._pending = 0  # terms per lane held in the float buckets
        self._buckets = np.zeros((lanes, 2, _NBUCKETS))
        self._exact = [0] * lanes  # flushed sums in units of 1 / _UNIT
        self._special = np.zeros((lanes, 3), dtype=bool)  # +inf, -inf, nan seen
        self._base = np.arange(lanes)[:, None] * (2 * _NBUCKETS) + _EXP_OFFSET

    def add(self, values) -> "ExactSum":
        """Add terms: shape (lanes, n), or (n,) for a single lane."""
        values = np.asarray(values, dtype=np.float64).reshape(self.lanes, -1)
        n = values.shape[1]
        for a in range(0, n, FLUSH_TERMS):
            chunk = values[:, a : a + FLUSH_TERMS]
            if self._pending + chunk.shape[1] > FLUSH_TERMS:
                self._flush()
            self._bin(chunk)
        self.count += n
        return self

    def _bin(self, chunk: np.ndarray) -> None:
        m, e = np.frexp(chunk)
        scaled = m * _HI_SCALE
        hi = np.trunc(scaled)
        idx = (e + self._base).ravel()
        size = self.lanes * 2 * _NBUCKETS
        with np.errstate(invalid="ignore"):  # inf - inf in a poisoned lane
            lo = scaled - hi
        sums = np.bincount(idx, hi.ravel(), size)
        sums += np.bincount(idx + _NBUCKETS, lo.ravel(), size)
        sums = sums.reshape(self._buckets.shape)
        # finite terms keep every bucket finite; inf and nan poison theirs
        bad = ~np.isfinite(sums).all(axis=(1, 2))
        for lane in np.flatnonzero(bad):
            v = chunk[lane]
            self._special[lane] |= (np.isposinf(v).any(), np.isneginf(v).any(), np.isnan(v).any())
            sums[lane] = 0.0
        self._buckets += sums
        self._pending += chunk.shape[1]

    def _flush(self) -> None:
        """Move the float buckets into the per-lane Python ints."""
        hi = self._buckets[:, 0]
        lo = self._buckets[:, 1] * _LO_SCALE
        for lane in range(self.lanes):
            nz = np.flatnonzero((hi[lane] != 0) | (lo[lane] != 0))
            total = self._exact[lane]
            for k, h, f in zip(nz.tolist(), hi[lane, nz].tolist(), lo[lane, nz].tolist()):
                total += ((int(h) << 27) + int(f)) << k
            self._exact[lane] = total
        self._buckets[:] = 0.0
        self._pending = 0

    def values(self) -> list[float]:
        """The correctly rounded sum of every lane."""
        self._flush()
        out = []
        for total, (pos, neg, nan) in zip(self._exact, self._special.tolist()):
            if pos and neg:
                raise ValueError("-inf + inf in fsum")
            if nan:
                out.append(math.nan)
            elif pos or neg:
                out.append(math.inf if pos else -math.inf)
            else:
                out.append(total / _UNIT)
        return out


def exact_sum(values) -> float:
    """Exactly rounded sum of real values, equal to ``math.fsum``."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size < SMALL_SUM:
        return math.fsum(arr.tolist())
    return ExactSum().add(arr).values()[0]


def complex_fsum(values) -> complex:
    """Exactly rounded complex sum (real and imaginary parts independently)."""
    arr = np.asarray(values, dtype=np.complex128).ravel()
    if arr.size < SMALL_SUM:
        return complex(math.fsum(arr.real.tolist()), math.fsum(arr.imag.tolist()))
    re, im = ExactSum(2).add(np.stack((arr.real, arr.imag))).values()
    return complex(re, im)
