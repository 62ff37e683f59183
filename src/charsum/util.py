"""Shared plumbing: named preconditions, the work budget, a deterministic
RNG, exactly rounded summation and the thread pool that
``bounds.theorem_report`` runs its moduli on.

Summation policy: every sum that feeds an equality check goes through one
exact reduction in integers, ``exact_dot``: integer weights (the character
sums' counts and Lambda values, as ``digits`` rows) or weight 1
(``weights_of=None``: ``exact_sum``, ``complex_fsum``, the Gauss sums and
the decomposition identity) times float64 lanes.  ``fixed_point`` scales a
chunk of the lanes by a power of two into exact integers split into int64
limbs; one int64 product multiplies them by the weights' digits (weight 1
sums the limbs over the chunk's rows instead), the chunks are added in a
Python integer per lane, and one int / int division rounds each total
once.  The result is the correctly rounded sum, equal to ``math.fsum`` of
the same terms, whatever their order or the chunk size; where fsum raises
on a running sum that overflows and later terms cancel, the limbs return
the exact sum.  A chunk with a non-finite entry, or exponents that span
more than one float64 scaling holds, has no fixed-point form: weight 1
then falls back to ``math.fsum`` per lane inside ``exact_dot``, the one
place that calls it, and integer weights return None.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

MASK64 = (1 << 64) - 1

DEFAULT_WORK_BUDGET = 10**9  # operations per command; read only by check_work


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


def check_work(work: int, what: str) -> None:
    """WorkBudgetError naming ``what`` when ``work``, an entry point's estimate
    of its operations made before it builds anything, exceeds the budget."""
    if work > DEFAULT_WORK_BUDGET:
        raise WorkBudgetError(f"{what} needs {work} operations, more than the budget of {DEFAULT_WORK_BUDGET}")


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

    def unit(self, n: int, m: int) -> int:
        """1 + below(n), drawn again until it is coprime to m."""
        v = 1 + self.below(n)
        while math.gcd(v, m) != 1:
            v = 1 + self.below(n)
        return v

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


# base-2**LIMB digits of the scaled parts in ``fixed_point``
LIMB = 25
# every finite float64 is a multiple of 2**-1074, so fixed_point scales by at
# most 2**UNIT (53 minus the least frexp exponent, -1073), and sums kept in
# units of 2**-UNIT are integers
UNIT = 1126
# exact_dot reads integer weights as DIGIT-bit digits, at most CHUNK rows at a
# time: a chunk's products, each at most 2**(DIGIT + LIMB), sum below 2**63
DIGIT, CHUNK = 20, 1 << 14


def fixed_point(parts: np.ndarray) -> tuple[np.ndarray, int] | None:
    """(limbs, s) with parts * 2**s = sum_k limbs[k] * 2**(LIMB k) exactly,
    for a float64 array ``parts``; limbs is int64 of shape (K,) + parts.shape,
    every limb in [0, 2**LIMB) but the signed top one, which is at most
    2**LIMB in magnitude.  s = 53 - the least frexp exponent of the nonzero
    entries, so parts * 2**s are integers; np.floor peels them into limbs
    exactly.  None when an entry is not finite, or when the exponents span
    too much for the scaled parts to stay below float64's 2**1024."""
    mag = np.abs(parts)
    top = float(mag.max(initial=0.0))
    if not math.isfinite(top):
        return None
    low = math.frexp(float(mag.min(initial=top, where=mag > 0)))[1]  # 0 when all are 0
    bits = math.frexp(top)[1] - low + 53  # |parts| * 2**s < 2**bits
    if bits > 1024:
        return None
    s = 53 - low
    v = np.ldexp(parts, s)
    limbs = np.empty((-(-bits // LIMB),) + parts.shape, dtype=np.int64)
    for k in range(len(limbs) - 1):
        high = np.floor(v * 2.0**-LIMB)
        limbs[k] = v - high * 2.0**LIMB
        v = high
    limbs[-1] = v
    return limbs, s


def digits(w) -> np.ndarray:
    """The integers w, an int64 array or Python ints of any size, as
    ``exact_dot`` weight rows: signed DIGIT-bit digits, one row per digit,
    each row in [0, 2**DIGIT) but the top one, which is signed and at most
    2**DIGIT in magnitude; as many rows as the largest |w| needs."""
    w = w if isinstance(w, np.ndarray) else np.array(w, dtype=object)  # Python ints stay exact
    top = max(int(w.max(initial=0)), -int(w.min(initial=0)))  # |w| without int64's abs(-2**63) < 0
    rows = max(1, -(-top.bit_length() // DIGIT))
    low = [(w >> (DIGIT * k)) & ((1 << DIGIT) - 1) for k in range(rows - 1)]
    return np.stack(low + [w >> (DIGIT * (rows - 1))]).astype(np.int64, copy=False)


def exact_dot(rows, weights_of, parts_of, scale: int = 0) -> tuple[list[float], float] | None:
    """([per lane, the correctly rounded sum over i in ``rows`` of S_i *
    parts_of(i)[lane]], the correctly rounded sum of the S_i).  weights_of(i)
    holds S_i * 2**scale as ``digits`` rows and parts_of(i) the float64
    lanes of a chunk i of ``rows``: an index array, or a range, whose chunks
    are ranges to read as slices.  weights_of None is weight 1 at every row,
    where only scale = 0 is meaningful: each chunk's limbs are summed over
    its rows and the mass is the row count.  When a chunk has no
    ``fixed_point`` form, integer weights give None and weight 1 gives
    ``math.fsum`` of each lane of parts_of(rows), raising what it raises.
    An empty ``rows`` still makes one empty chunk, which tells the number
    of lanes.  A chunk takes at most CHUNK rows and at most 2 CHUNK lane
    entries, so its limbs stay as small with many lanes as with two; the
    lane count is read from parts_of(rows[:0])."""
    totals, mass = None, 0
    step = min(CHUNK, max(1, 2 * CHUNK // len(parts_of(rows[:0]))))
    for a in range(0, max(len(rows), 1), step):
        i = rows[a : a + step]
        if (fixed := fixed_point(np.asarray(parts_of(i), dtype=np.float64))) is None:
            if weights_of is not None:
                return None
            lanes = np.asarray(parts_of(rows), dtype=np.float64).tolist()
            return [math.fsum(lane) for lane in lanes], float(len(rows))
        limbs, s = fixed
        totals = totals or [0] * limbs.shape[1]
        if weights_of is None:
            mass += len(i)
            products = limbs.sum(axis=2)[None]  # digit, limb, lane
        else:
            d = np.ascontiguousarray(weights_of(i), dtype=np.int64)
            mass += sum(t << (DIGIT * k) for k, t in enumerate(d.sum(axis=1).tolist()))
            products = np.einsum("kr,mlr->kml", d, limbs)
        for k, by_limb in enumerate(products.tolist()):
            for m, row in enumerate(by_limb):
                shift = DIGIT * k + LIMB * m + UNIT - s
                totals = [t + (v << shift) for t, v in zip(totals, row)]
    unit = 1 << (UNIT + scale)
    return [t / unit for t in totals], mass / (1 << scale)


def exact_sum(values) -> float:
    """Exactly rounded sum of real values, equal to ``math.fsum``."""
    arr = np.asarray(values, dtype=np.float64).reshape(1, -1)
    return exact_dot(range(arr.shape[1]), None, lambda i: arr[:, i.start : i.stop])[0][0]


def complex_fsum(values) -> complex:
    """Exactly rounded complex sum (real and imaginary parts independently)."""
    arr = np.asarray(values, dtype=np.complex128).ravel()
    lanes = np.stack((arr.real, arr.imag))
    return complex(*exact_dot(range(arr.size), None, lambda i: lanes[:, i.start : i.stop])[0])
