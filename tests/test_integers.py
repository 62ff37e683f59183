"""Integer substrate tests; expected values frozen from independent oracles."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charsum import integers, oracles
from charsum.integers import (
    FactoredInteger,
    coprime_count,
    dirichlet_convolve,
    divisor_count_sieve,
    divisors,
    euler_phi,
    factor,
    mangoldt_sieve,
    mobius,
    mobius_sieve,
    omega,
    smooth_count,
    tau_r,
    tau_r_sieve,
)
from charsum.util import PreconditionError, SplitMix64


def trial_factor(n):
    """Oracle: trial division to sqrt(n)."""
    out = []
    d = 2
    while d * d <= n:
        a = 0
        while n % d == 0:
            n //= d
            a += 1
        if a:
            out.append((d, a))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def test_factor_small_cases():
    assert factor(1).factors == ()
    assert factor(12).factors == ((2, 2), (3, 1))
    # 2^31 - 1 is prime; oracle = trial division
    m31 = 2**31 - 1
    assert trial_factor(m31) == ((m31, 1),)
    assert factor(m31).factors == ((m31, 1),)


def test_factor_rejects_zero_and_range():
    with pytest.raises(PreconditionError):
        factor(0)
    with pytest.raises(PreconditionError):
        factor(2**63)


def test_factor_reassembles_up_to_1e5():
    for n in range(1, 10**5 + 1):
        f = factor(n)
        acc = 1
        for p, a in f.factors:
            acc *= p**a
        assert acc == n


def test_factor_matches_trial_division_samples():
    rng = SplitMix64(101)
    for _ in range(200):
        n = rng.randint(1, 10**9)
        assert factor(n).factors == trial_factor(n)


def test_factored_integer_invariants_enforced():
    with pytest.raises(PreconditionError):
        FactoredInteger(12, ((3, 1), (2, 2)))  # primes out of order
    with pytest.raises(PreconditionError):
        FactoredInteger(12, ((2, 1), (3, 1)))  # product mismatch


def test_euler_phi():
    assert euler_phi(factor(1)) == 1
    assert euler_phi(factor(12)) == 4
    # oracle: count units below 5^4
    n = 5**4
    direct = sum(1 for u in range(1, n + 1) if math.gcd(u, n) == 1)
    assert direct == 500
    assert euler_phi(factor(n)) == 500


def test_mobius():
    assert mobius(factor(1)) == 1
    assert mobius(factor(30)) == -1
    assert mobius(factor(12)) == 0


def test_omega():
    assert omega(factor(1)) == 0
    assert omega(factor(12)) == 2
    assert omega(factor(30030)) == 6


def ordered_tuples_with_product(n, r):
    """Oracle: enumerate ordered r-tuples of positive integers with product n."""
    if r == 1:
        return 1
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += ordered_tuples_with_product(n // d, r - 1)
    return total


def test_tau_r():
    assert tau_r(1, 2) == 1
    assert tau_r(1, 5) == 1
    assert ordered_tuples_with_product(4, 3) == 6
    assert tau_r(4, 3) == 6
    assert tau_r(10, 2) == 4
    rng = SplitMix64(7)
    for _ in range(50):
        n = rng.randint(1, 400)
        r = rng.randint(2, 4)
        assert tau_r(n, r) == ordered_tuples_with_product(n, r)


def test_multiplicativity_on_coprime_pairs():
    rng = SplitMix64(13)
    pairs = 0
    while pairs < 60:
        m = rng.randint(1, 5000)
        n = rng.randint(1, 5000)
        if math.gcd(m, n) != 1:
            continue
        pairs += 1
        assert euler_phi(factor(m * n)) == euler_phi(factor(m)) * euler_phi(factor(n))
        assert mobius(factor(m * n)) == mobius(factor(m)) * mobius(factor(n))
        assert tau_r(m * n, 3) == tau_r(m, 3) * tau_r(n, 3)


def test_divisors():
    assert divisors(factor(1)) == [1]
    assert divisors(factor(12)) == [1, 2, 3, 4, 6, 12]
    d60 = [d for d in range(1, 61) if 60 % d == 0]
    assert len(d60) == 12
    assert divisors(factor(60)) == d60
    f = factor(2**10 * 3**4)
    assert len(divisors(f)) == 11 * 5


def test_coprime_count_matches_listing():
    for m in [1, 2, 12, 30, 97, 2**5 * 3**2, 30030]:
        for n in range(0, 200):
            assert coprime_count(n, factor(m)) == sum(math.gcd(y, m) == 1 for y in range(1, n + 1))


def test_mobius_divisor_sum_is_unit_indicator():
    for n in range(1, 10**4 + 1):
        s = sum(mobius(factor(d)) for d in divisors(factor(n)))
        assert s == (1 if n == 1 else 0)


def _lambda_at(table, n: int) -> float:
    """Lambda(n) read from a table's prime-power arrays."""
    assert table.lo <= n <= table.hi
    i = int(np.searchsorted(table.n, n))
    return math.log(int(table.prime[i])) if i < table.n.size and table.n[i] == n else 0.0


def _prime_exponent(n: int, p: int) -> int | None:
    """k with n = p^k, found by dividing p out of n; None when n is no power of p."""
    k = 0
    while n % p == 0:
        n, k = n // p, k + 1
    return k if n == 1 else None


def test_mangoldt_point_values():
    table = mangoldt_sieve(1, 100)
    assert _lambda_at(table, 8) == pytest.approx(math.log(2))
    assert _lambda_at(table, 6) == 0.0
    assert _lambda_at(table, 1) == 0.0
    # oracle: direct sum of ln p over prime powers <= 100
    direct = 0.0
    for n in range(2, 101):
        f = trial_factor(n)
        if len(f) == 1:
            direct += math.log(f[0][0])
    psi = math.fsum(np.log(table.prime.astype(np.float64)))
    assert psi == pytest.approx(direct, rel=1e-12)
    assert psi == pytest.approx(94.0453112, abs=1e-6)


def test_mangoldt_matches_trial_factorization_random():
    with mock.patch.object(integers, "SEGMENT", 1 << 15):
        table = mangoldt_sieve(1, 10**6)
    rng = SplitMix64(23)
    for _ in range(1000):
        n = rng.randint(1, 10**6)
        f = trial_factor(n)
        i = int(np.searchsorted(table.n, n))
        if len(f) == 1:
            p, a = f[0]
            assert int(table.n[i]) == n
            assert int(table.prime[i]) == p
            assert _prime_exponent(int(table.n[i]), int(table.prime[i])) == a
            assert _lambda_at(table, n) == pytest.approx(math.log(p), rel=1e-14)
        else:
            assert i == table.n.size or int(table.n[i]) != n
            assert _lambda_at(table, n) == 0.0


def test_mangoldt_segmentation_invariance():
    with mock.patch.object(integers, "SEGMENT", 1 << 16):
        a = mangoldt_sieve(1, 30000)
    with mock.patch.object(integers, "SEGMENT", 101):
        b = mangoldt_sieve(1, 30000)
    assert np.array_equal(a.n, b.n)
    assert np.array_equal(a.prime, b.prime)
    with mock.patch.object(integers, "SEGMENT", 64):
        c = mangoldt_sieve(5000, 6000)
    for n in range(5000, 6001):
        assert _lambda_at(c, n) == _lambda_at(a, n)


def test_mangoldt_rejects_bad_range():
    with pytest.raises(PreconditionError):
        mangoldt_sieve(10, 5)


PRIME_POWERS = [n for n in range(2, 5000) if len(trial_factor(n)) == 1]


@st.composite
def sieve_ranges(draw):
    """(lo, hi, SEGMENT) with lo >= 1 (1 and 2 included), each end free,
    on a prime power or on a segment edge, and segments from 1 odd integer up."""
    seg = draw(st.integers(1, 200))
    lo = draw(st.one_of(st.just(1), st.just(2), st.sampled_from(PRIME_POWERS), st.integers(1, 3000)))
    end = draw(st.sampled_from(("free", "prime power", "segment edge")))
    if end == "free":
        hi = lo + draw(st.integers(0, 1500))
    elif end == "prime power":
        hi = draw(st.sampled_from([q for q in PRIME_POWERS if lo <= q <= lo + 1500] or [lo]))
    else:
        # segment k ends on the odd integer (lo | 1) + 2 k seg - 2; the even one after it is
        # the last integer before segment k + 1
        hi = (lo | 1) + 2 * draw(st.integers(1, 8)) * seg - 2 + draw(st.integers(0, 1))
    return lo, max(lo, hi), seg


@settings(max_examples=120, deadline=None)
@given(sieve_ranges())
@example((1, 1, 1))
@example((1, 2, 1))
@example((2, 2, 1))
@example((4, 4, 3))
@example((1, 10, 1))
def test_mangoldt_sieve_matches_oracle(case):
    lo, hi, seg = case
    with mock.patch.object(integers, "SEGMENT", seg):
        table = mangoldt_sieve(lo, hi)
    want = [n for n in range(lo, hi + 1) if oracles.mangoldt_value(n)]
    assert table.n.dtype == np.int64 and table.n.tolist() == want
    assert all(_prime_exponent(n, p) for n, p in zip(table.n.tolist(), table.prime.tolist()))
    assert all(_lambda_at(table, n) == oracles.mangoldt_value(n) for n in range(lo, hi + 1))


def smooth_oracle(x, z, b):
    count = 0
    for n in range(1, x):
        if math.gcd(n, b) != 1:
            continue
        f = trial_factor(n)
        if all(p < z for p, _ in f):
            count += 1
    return count


def test_smooth_count_examples():
    assert smooth_oracle(10, 3, 1) == 4  # 1, 2, 4, 8
    assert smooth_count(10, 3, 1) == 4
    assert smooth_oracle(100, 5, 1) == 20
    assert smooth_count(100, 5, 1) == 20
    for x in (2, 17, 1000):
        assert smooth_count(x, 2, 1) == 1  # only n = 1


def test_smooth_count_with_coprimality_and_monotonicity():
    rng = SplitMix64(3)
    for _ in range(30):
        x = rng.randint(2, 2000)
        z = rng.randint(2, 50)
        b = rng.randint(1, 210)
        assert smooth_count(x, z, b) == smooth_oracle(x, z, b)
    prev = 0
    for x in range(2, 400, 7):
        cur = smooth_count(x, 7, 1)
        assert cur >= prev
        prev = cur
    prev = 0
    for z in range(2, 40):
        cur = smooth_count(500, z, 1)
        assert cur >= prev
        prev = cur


def test_sieved_tables_match_pointwise_definitions():
    mu = mobius_sieve(3000)
    tau = divisor_count_sieve(3000)
    t3 = tau_r_sieve(3000, 3)
    for n in range(1, 3001):
        f = factor(n)
        assert int(mu[n]) == mobius(f)
        assert int(tau[n]) == tau_r(n, 2)
        assert int(t3[n]) == tau_r(n, 3)


def same_array(got, want):
    return got.dtype == want.dtype and np.array_equal(got, want)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 5000), st.integers(2, 6))
@example(0, 2)
@example(1, 3)
@example(2, 6)
def test_sieves_match_loop_oracles(n, r):
    assert same_array(mobius_sieve(n), oracles.mobius_sieve_oracle(n))
    assert same_array(divisor_count_sieve(n), oracles.tau_r_sieve_oracle(n, 2))
    assert same_array(tau_r_sieve(n, r), oracles.tau_r_sieve_oracle(n, r))


small_floats = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e6, 1e6, allow_nan=False))


@st.composite
def convolution_pairs(draw):
    """(f, g) of equal length: float64 with zeros and negatives (f sometimes
    all zero), int64, or the int8 by float64 mix the decomposition uses."""
    size = draw(st.integers(0, 300))
    kind = draw(st.sampled_from(["float", "int", "mixed"]))
    ints = st.lists(st.integers(-50, 50), min_size=size, max_size=size)
    floats = st.lists(small_floats, min_size=size, max_size=size)
    if kind == "int":
        return np.array(draw(ints), dtype=np.int64), np.array(draw(ints), dtype=np.int64)
    g = np.array(draw(floats), dtype=np.float64)
    if kind == "mixed":
        return np.array(draw(ints), dtype=np.int64).clip(-1, 1).astype(np.int8), g
    f = np.array(draw(floats), dtype=np.float64)
    if draw(st.booleans()):
        f[:] = 0.0
    return f, g


@settings(max_examples=150, deadline=None)
@given(convolution_pairs(), st.sampled_from([1, 2, 7, 64, integers._PAIR_CHUNK]))
def test_dirichlet_convolve_matches_loop_oracle_bytes(fg, chunk):
    f, g = fg
    want = oracles.dirichlet_convolve_oracle(f, g)
    with mock.patch.object(integers, "_PAIR_CHUNK", chunk):
        got = dirichlet_convolve(f, g)
    assert got.dtype == want.dtype == np.result_type(f, g)
    assert got.tobytes() == want.tobytes()
