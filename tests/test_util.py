"""The exact accumulator against math.fsum on generated inputs (full exponent
range, subnormals, cancellation, zeros, specials), invariance under how the
terms are split across ``add`` calls and under flushes, the one-shot helpers
on both sides of the small-input cutoff, map_blocks, and
SplitMix64.distinct."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charsum import util
from charsum.util import (
    ExactSum,
    PreconditionError,
    SplitMix64,
    complex_fsum,
    exact_sum,
)

INF = math.inf
MAX = sys.float_info.max

# integer mantissa times 2**e reaches every finite float64, subnormals included
scaled = st.builds(
    math.ldexp, st.integers(-(2**53) + 1, 2**53 - 1), st.integers(-1074, 971)
)
finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False), scaled)
moderate = st.floats(min_value=-1e300, max_value=1e300)


@st.composite
def cancelling(draw):
    """±1e300-sized terms that cancel exactly, mixed with small ones."""
    big = draw(st.lists(st.floats(min_value=1e299, max_value=1e300), max_size=20))
    small = draw(st.lists(st.floats(min_value=-1.0, max_value=1.0), max_size=20))
    return draw(st.permutations(big + [-v for v in big] + small))


zeros = st.lists(st.sampled_from([0.0, -0.0]), max_size=30)
inputs = st.one_of(st.lists(finite, max_size=60), cancelling(), zeros)


def same(a: float, b: float) -> bool:
    """Bit-for-bit equality, sign of zero included (nan excluded)."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def check_like_fsum(xs, compute) -> None:
    """``compute()`` must return math.fsum(xs), or raise what it raises."""
    try:
        want = math.fsum(xs)
    except OverflowError:
        # fsum also fails when a running sum overflows and later terms
        # cancel it; the accumulator then returns the correctly rounded
        # exact sum, and fails only when that overflows too
        try:
            want = float(sum(map(Fraction, xs), Fraction(0)))
        except OverflowError:
            with pytest.raises(OverflowError):
                compute()
            return
    assert same(compute(), want)


@given(inputs)
def test_exact_sum_equals_fsum(xs):
    check_like_fsum(xs, lambda: ExactSum().add(np.array(xs, dtype=np.float64)).values()[0])


def test_exact_sum_empty_and_zeros():
    assert same(ExactSum().values()[0], math.fsum([]))
    assert same(ExactSum().add([]).values()[0], 0.0)
    assert same(ExactSum().add([-0.0, -0.0]).values()[0], math.fsum([-0.0, -0.0]))
    tiny = math.ldexp(1.0, -1074)
    assert same(ExactSum().add([tiny, -tiny]).values()[0], math.fsum([tiny, -tiny]))


def test_exact_sum_extremes():
    tiny = math.ldexp(1.0, -1074)
    xs = [MAX, -MAX, tiny, tiny, 1e-310, -0.0, 2.0**-1022]
    assert same(ExactSum().add(xs).values()[0], math.fsum(xs))
    with pytest.raises(OverflowError):
        ExactSum().add([MAX, MAX]).values()
    # halfway cases round to even exactly as fsum does
    for xs in ([1.0, 2.0**-53], [1.0, 2.0**-53, 2.0**-105], [1.0 + 2.0**-52, 2.0**-53]):
        assert same(ExactSum().add(xs).values()[0], math.fsum(xs))


@given(inputs, st.lists(st.integers(0, 60), max_size=6), st.randoms(use_true_random=False))
def test_successive_adds_in_any_order_and_partition(xs, cuts, rnd):
    arr = np.array(xs, dtype=np.float64)
    edges = sorted({0, len(arr), *(c for c in cuts if c <= len(arr))})
    parts = [arr[a:b] for a, b in zip(edges, edges[1:])]
    rnd.shuffle(parts)
    total = ExactSum()
    for p in parts:
        total.add(p)
    assert total.count == len(xs)
    check_like_fsum(xs, lambda: total.values()[0])


special = st.sampled_from([INF, -INF, math.nan])


@given(st.lists(st.one_of(moderate, special), max_size=40), st.integers(0, 40))
def test_specials_follow_fsum(xs, cut):
    halves = (np.array(xs[:cut], dtype=np.float64), np.array(xs[cut:], dtype=np.float64))
    acc = ExactSum().add(halves[0]).add(halves[1])
    try:
        want = math.fsum(xs)
    except ValueError:  # inf + -inf
        with pytest.raises(ValueError):
            acc.values()
        return
    got = acc.values()[0]
    assert (math.isnan(got) and math.isnan(want)) or same(got, want)


def test_specials_in_one_lane_leave_the_others_exact():
    acc = ExactSum(3).add(np.array([[1.0, INF, 2.0], [0.1, 0.2, 0.3], [1.0, -INF, math.nan]]))
    re, mid, bad = acc.values()
    assert re == INF and mid == math.fsum([0.1, 0.2, 0.3]) and math.isnan(bad)
    with pytest.raises(ValueError, match="inf"):
        ExactSum().add([INF]).add([-INF]).values()


@settings(max_examples=60)
@given(st.lists(finite, min_size=1, max_size=60), st.integers(1, 7), st.integers(1, 4))
def test_flush_path_matches_fsum(xs, limit, pieces):
    """Past FLUSH_TERMS the float buckets move into the exact ints; lower the
    limit so that a short input crosses it many times, within one add and
    between successive adds."""
    arr = np.array(xs, dtype=np.float64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(util, "FLUSH_TERMS", limit)
        one = ExactSum().add(arr)
        split = ExactSum()
        for chunk in np.array_split(arr, pieces):
            split.add(chunk)
        assert one._pending <= limit and split._pending <= limit
        check_like_fsum(xs, lambda: one.values()[0])
        check_like_fsum(xs, lambda: split.values()[0])


@pytest.mark.parametrize("n", [0, 1, 255, 1023, 1024, 5000])
def test_one_shot_helpers_both_paths(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-200, 200, n)
    z = x + 1j * rng.standard_normal(n)
    want = math.fsum(x.tolist())
    want_z = complex(math.fsum(z.real.tolist()), math.fsum(z.imag.tolist()))
    for cutoff in (0, n + 1):  # accumulator path, then the math.fsum path
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(util, "SMALL_SUM", cutoff)
            assert same(exact_sum(x), want)
            got = complex_fsum(z)
            assert same(got.real, want_z.real) and same(got.imag, want_z.imag)


# ---------------------------------------------------------------------------
# map_blocks


@pytest.mark.parametrize("cpus, items, width", [(1, 5, 1), (4, 3, 3), (4, 9, 4), (2, 0, 0)])
def test_map_blocks_order_and_width(cpus, items, width, monkeypatch):
    """Results come back in item order; the pool is min(len(items), CPUs)
    wide, and a width of at most 1 runs on the calling thread."""
    monkeypatch.setattr(util, "usable_cpus", lambda: cpus)
    pools = []

    def pool(max_workers):
        pools.append(max_workers)
        return ThreadPoolExecutor(max_workers)

    monkeypatch.setattr(util, "ThreadPoolExecutor", pool)
    assert util.map_blocks(lambda i: i * i, list(range(items))) == [i * i for i in range(items)]
    assert pools == ([width] if width > 1 else [])


def test_usable_cpus_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(util.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(util.os, "cpu_count", lambda: 3)
    assert util.usable_cpus() == 3
    monkeypatch.setattr(util.os, "cpu_count", lambda: None)
    assert util.usable_cpus() == 1


# ---------------------------------------------------------------------------
# SplitMix64.distinct


def test_distinct_stream_unchanged():
    """Drawing every value at most once returns what the plain rejection
    loop returns, so seeded reports keep their bytes."""

    def reference(rng, lo, hi, count, accept):
        seen, out = set(), []
        while len(out) < count:
            v = rng.randint(lo, hi)
            if v in seen or not accept(v):
                continue
            seen.add(v)
            out.append(v)
        return out

    odd = lambda v: v % 2 == 1
    for seed in range(20):
        assert SplitMix64(seed).distinct(1, 200, 64, accept=odd) == reference(
            SplitMix64(seed), 1, 200, 64, odd
        )


def test_distinct_exhausted_range_raises():
    assert sorted(SplitMix64(3).distinct(1, 10, 10)) == list(range(1, 11))
    with pytest.raises(PreconditionError) as exc:
        SplitMix64(3).distinct(1, 10, 11)
    assert exc.value.name == "count"
    with pytest.raises(PreconditionError):
        SplitMix64(3).distinct(1, 10, 6, accept=lambda v: v % 2 == 0)
    assert SplitMix64(3).distinct(1, 10, 0) == []
