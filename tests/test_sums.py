"""Evaluator tests: frozen example values, oracle agreement on seeded cases,
exactness of the decomposition identity, census classification."""

import ast
import json
import math
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charsum.characters import (
    DirichletCharacter,
    character_at,
    conductor,
    enumerate_characters,
    induce_primitive,
    unit_group_basis,
)
from charsum.integers import divisor_count_sieve, divisors, euler_phi, factor, mangoldt_sieve
from charsum import bounds, cli, integers, oracles, sums, util
from charsum.sums import (
    CongruenceInstance,
    burgess_moment_2r,
    char_twist_weight,
    coeff_mobius,
    coeff_one,
    coeff_tau5_family,
    congruence_census,
    coprime_count_sweep,
    double_sum,
    hb_decompose,
    mangoldt_weights,
    mobius_recombination,
    restricted_sum,
    rho_divisor_count,
    shifted_prime_sum,
    short_sum,
    sy_sum,
)
from charsum.util import PreconditionError, SplitMix64, WorkBudgetError, complex_fsum, exact_dot, exact_sum


def chars(D):
    return list(enumerate_characters(unit_group_basis(D)))


def close(a, b, mass):
    return abs(a - b) <= 1e-9 * max(1.0, mass)


# ---------------------------------------------------------------------------
# The Lambda cache


def _fresh_lambda(x):
    """A fresh sieve's n and fl(log p) * 2**53, as bytes."""
    table = mangoldt_sieve(1, x)
    return table.n.tobytes(), (np.log(table.prime.astype(np.float64)) * 2.0**53).astype(np.int64).tobytes()


def _read_lambda(read, cpus=1):
    """``read()`` against an empty Lambda cache with ``cpus`` usable CPUs;
    returns its result and the (lo, hi) ranges the cache sieved."""
    sieved = []

    def recording_sieve(lo, hi, *args):
        sieved.append((lo, hi))
        return mangoldt_sieve(lo, hi, *args)

    with mock.patch.object(sums, "_LAMBDA", sums._LambdaCache()), \
            mock.patch.object(sums, "mangoldt_sieve", recording_sieve), \
            mock.patch.object(util, "usable_cpus", lambda: cpus):
        return read(), sieved


def _tiles(sieved, top):
    """The sieved ranges cover [2, top] end to end, with no overlap."""
    ends = [v for lo, hi in sorted(sieved) for v in (lo, hi)]
    if top < 2:
        return ends == []
    return ends[0] == 2 and ends[-1] == top and all(b + 1 == c for b, c in zip(ends[1::2], ends[2::2]))


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(1, 40000), min_size=1, max_size=6))
@example([1, 2, 3])
@example([30000, 10, 30001, 2])
def test_mangoldt_cache_prefixes_equal_fresh_sieve(xs):
    """Every read equals a fresh sieve, byte for byte, in the drawn order,
    smallest first, largest first and from two map_blocks threads, and the
    cache sieves each integer at most once."""
    want = {x: _fresh_lambda(x) for x in xs}
    for order in (xs, sorted(xs), sorted(xs, reverse=True)):
        got, sieved = _read_lambda(lambda: {x: sums._mangoldt_arrays(x) for x in order})
        assert {x: (n.tobytes(), m.tobytes()) for x, (n, m) in got.items()} == want
        assert _tiles(sieved, max(xs))
    got, sieved = _read_lambda(lambda: util.map_blocks(sums._mangoldt_arrays, xs), cpus=2)
    assert [(n.tobytes(), m.tobytes()) for n, m in got] == [want[x] for x in xs]
    assert _tiles(sieved, max(xs))


def test_mangoldt_cache_grows_once_under_concurrent_reads():
    """Eight threads on two CPUs, switching every microsecond, read 64
    shuffled x: each sieved range starts where the cache ended, so a lost
    update (two threads growing from the same end) shows as an overlap."""
    xs = [2000 * k for k in range(1, 65)]
    n_all, m_all = _fresh_lambda(max(xs))
    for trial in range(20):
        order = sorted(xs, key=lambda x: SplitMix64(trial ^ x).next_u64())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got, sieved = _read_lambda(lambda: util.map_blocks(sums._mangoldt_arrays, order), cpus=8)
        finally:
            sys.setswitchinterval(interval)
        assert _tiles(sieved, max(xs))
        for n, m in got:
            assert n.tobytes() == n_all[: n.nbytes] and m.tobytes() == m_all[: m.nbytes]


def test_mangoldt_arrays_peak_memory_per_prime_power():
    """A fresh read holds the prime powers, not the integers, up to x: the
    traced peak stays below 16 bytes per prime power plus two segments."""
    with mock.patch.object(sums, "_LAMBDA", sums._LambdaCache()):
        tracemalloc.start()
        try:
            n, _ = sums._mangoldt_arrays(4 * 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert n.size == 283146 + 393  # pi(4e6) primes and the higher prime powers
    assert peak < 16 * n.size + 2 * integers.SEGMENT


def test_mangoldt_growth_holds_no_array_of_primes():
    """Growing a cache of the prime powers up to 2e6 to 4e6 holds, beyond
    the old arrays, the grown n and m and one block of logs: the traced
    peak stays below 16 bytes per prime power up to 4e6 plus half a
    segment, less than an array of the new primes (8 bytes per new prime
    power, 1.07 MB) would add."""
    with mock.patch.object(sums, "_LAMBDA", sums._LambdaCache()):
        old = sums._mangoldt_arrays(2 * 10**6)[0].size
        tracemalloc.start()
        try:
            n, m = sums._mangoldt_arrays(4 * 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert (old, n.size) == (148933 + 302, 283146 + 393)
    assert n.tobytes() + m.tobytes() == b"".join(_fresh_lambda(4 * 10**6))
    assert peak < 16 * n.size + integers.SEGMENT // 2


def test_mangoldt_growth_out_of_memory_keeps_the_cache():
    """A MemoryError while m grows leaves n, m and top as they were, and
    the next read grows the cache like a fresh sieve."""
    def no_memory(*args, **kwargs):
        raise MemoryError

    with mock.patch.object(sums, "_LAMBDA", sums._LambdaCache()):
        sums._mangoldt_arrays(5000)
        with mock.patch.object(np, "log", no_memory), pytest.raises(MemoryError):
            sums._mangoldt_arrays(9000)
        cache = sums._LAMBDA
        assert (cache.top, cache.n.size, cache.m.size) == (5000, 669 + 42, 669 + 42)
        n, m = sums._mangoldt_arrays(9000)
    assert (n.tobytes(), m.tobytes()) == _fresh_lambda(9000)


def test_mangoldt_arrays_rejects_x_beyond_physical_memory():
    """The estimate is checked before anything is sieved, and the message
    names x, the estimate and the limit."""
    sieved = []
    with mock.patch.object(sums, "_LAMBDA", sums._LambdaCache()), \
            mock.patch.object(sums, "physical_memory", lambda: 10**5), \
            mock.patch.object(sums, "mangoldt_sieve", lambda *a: sieved.append(a)):
        with pytest.raises(WorkBudgetError, match=r"x = 100000 .* about \d+ bytes.* 100000 bytes"):
            sums._mangoldt_arrays(10**5)
        assert sums._mangoldt_arrays(1)[0].size == 0
    assert sieved == []


# ---------------------------------------------------------------------------
# shifted_prime_sum


def test_shifted_prime_sum_frozen_example():
    chi = [c for c in chars(3) if not c.is_principal][0]
    got = shifted_prime_sum(chi, 1, 10)
    assert got.value.imag == pytest.approx(0.0, abs=1e-12)
    assert got.value.real == pytest.approx(math.log(20.0 / 9.0), rel=1e-12)


def test_shifted_prime_sum_principal_real_nonnegative():
    chi0 = character_at(unit_group_basis(12), 0)
    got = shifted_prime_sum(chi0, 5, 300)
    assert got.value.imag == 0.0
    assert got.value.real >= 0.0
    direct = oracles.shifted_prime_sum_oracle(chi0, 5, 300)
    assert close(got.value, direct, got.abs_term_sum)


def test_shifted_prime_sum_empty_below_two():
    chi = [c for c in chars(5) if not c.is_principal][0]
    assert shifted_prime_sum(chi, 1, 1).value == 0j
    assert shifted_prime_sum(chi, 1, 0).term_count == 0


def test_shifted_prime_sum_rejects_noncoprime_shift():
    chi = [c for c in chars(10) if not c.is_principal][0]
    with pytest.raises(PreconditionError):
        shifted_prime_sum(chi, 5, 100)


@pytest.mark.parametrize("D", [999983 * 999979, 2 * 7**5 * 999983, 100003 * 100019 * 100043])
def test_shifted_prime_sum_beyond_table_size_reads_points_only(D):
    """With pi*(x) <= D the kernel evaluates chi at the prime powers only:
    at D near 1e12 and 1e15 (every component within the discrete-log table
    limit) nothing of D entries is allocated, and the sum matches the
    oracle.  At 1e15 the last character's phases, summed unreduced over
    the three components, pass 2^63."""
    basis = unit_group_basis(D)
    sums._mangoldt_arrays(3000)
    for index in (12345, basis.phi - 1):
        chi = character_at(basis, index)
        tracemalloc.start()
        try:
            got = shifted_prime_sum(chi, 3, 3000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10**6
        assert close(got.value, oracles.shifted_prime_sum_oracle(chi, 3, 3000), got.abs_term_sum)


# ---------------------------------------------------------------------------
# The Lambda kernel against the exact-product oracle


def _kernel_oracle(x, L, weight, include) -> tuple:
    """Sum of Lambda(n) weight(n) over n <= x with include(n), by Fraction
    over the dense Lambda weights, one n at a time; as ``_bits``."""
    lam = mangoldt_weights(max(x, 1))
    ns = [n for n in range(2, x + 1) if lam[n] and include(n)]
    return _exact_reference(lam[ns], [weight(n) for n in ns])


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 300), st.integers(0, 10**6), st.integers(-900, 900),
       st.integers(0, 5000), st.integers(0, 100))
@example(3, 0, 1, 5000, 0)  # L = 3 at the largest x: carries into a 4th digit row
@example(293, 5, 7, 1000, 0)  # L = 293 > pi*(1000) = 193: the prime powers are the rows
@example(210, 3, 11, 2000, 3)  # composite D, nu > 1, (n, q) > 1 terms in the correction
@example(7, 1, 3, 1, 0)  # x < 2: every sum is empty
def test_lambda_sums_equal_exact_product_oracle(D, pick, l, x, nu_pick):
    """shifted_prime_sum, restricted_sum and the (n, q) > 1 correction of
    mobius_recombination equal the correctly rounded exact sum of the
    exact products fl(log p) * chi, bit for bit, whichever rows the kernel
    uses (residue bins when L < pi*(x), else the prime powers)."""
    basis = unit_group_basis(D)
    chi = character_at(basis, 1 + pick % (basis.phi - 1))
    l = next(v for v in range(l, l + D) if math.gcd(v, D) == 1)
    chi_q = induce_primitive(chi)
    q = chi_q.modulus
    nus = divisors(factor(math.prod(p for p in factor(D).primes if q % p)))
    nu = nus[nu_pick % len(nus)]
    table, table_q = chi.value_table(), chi_q.value_table()

    got = shifted_prime_sum(chi, l, x)
    assert _bits(got) == _kernel_oracle(x, D, lambda n: table[(n - l) % D], lambda n: True)
    got = restricted_sum(chi_q, nu, l, x)
    want = _kernel_oracle(x, q * nu, lambda n: table_q[(n - l) % q],
                          lambda n: math.gcd(n, q) == 1 and n % nu == l % nu)
    assert _bits(got) == want
    corr = mobius_recombination(chi, l, x).correction
    want = _kernel_oracle(x, D, lambda n: table[(n - l) % D], lambda n: math.gcd(n, q) > 1)
    assert (corr.real.hex(), corr.imag.hex()) == want[:2]


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 2000), st.integers(0, 10**6), st.integers(-900, 900), st.integers(0, 6000))
@example(45, 1, 2, 5000)  # D = 45 < pi*(5000) = 711: the residue bins are the rows
@example(1009, 5, 2, 3000)  # D = 1009 > pi*(3000) = 446: the prime powers are the rows
@example(12600, 7, 1, 2000)  # a real character mod D with a 2-part of order 8
def test_conjugate_and_real_characters_are_exact(D, pick, l, x):
    """T(conj chi, l) == conj T(chi, l) bit for bit, and Im T == 0.0 for a
    real chi, whichever rows the kernel uses: the weights are real and the
    roots of unity conjugate-symmetric.  (== tells floats apart bit for
    bit, except 0.0 from -0.0.)"""
    basis = unit_group_basis(D)
    l = next(v for v in range(l, l + D) if math.gcd(v, D) == 1)
    chi = character_at(basis, pick % basis.phi)
    negate = lambda e: tuple(-a % m for a, m in zip(e, basis.orders))  # noqa: E731
    got, bar = shifted_prime_sum(chi, l, x), shifted_prime_sum(DirichletCharacter(basis, negate(chi.exponents)), l, x)
    assert bar.value == got.value.conjugate()
    assert (bar.term_count, bar.abs_term_sum) == (got.term_count, got.abs_term_sum)
    # exponent m/2 or 0 on each factor, by the bits of pick: a real character
    real = DirichletCharacter(basis, [m // 2 * (pick >> j & 1) for j, m in enumerate(basis.orders)])
    assert real.exponents == negate(real.exponents)
    assert shifted_prime_sum(real, l, x).value.imag == 0.0


def test_residue_bins_are_exact_digit_rows():
    """Each residue class's digits hold exactly the sum of fl(log p) * 2**53
    over its prime powers, in 20-bit digits, and at L = 3, x = 5000 the
    carries reach a 4th row."""
    x, L = 5000, 3
    digits, count = sums._residue_bins(x, L)
    table = mangoldt_sieve(1, x)
    n, lam = table.n, np.log(table.prime.astype(np.float64))
    assert len(digits) == 4 and digits[3].any()
    assert ((digits >= 0) & (digits < 2**20) & (digits == np.floor(digits))).all()
    for r in range(L):
        want = sum(Fraction(v) for v in lam[n % L == r].tolist()) * 2**53
        assert sum(int(d) << (20 * k) for k, d in enumerate(digits[:, r])) == want
        assert count[r] == np.count_nonzero(n % L == r)


class _TableCharacter:
    """Any complex weight table mod L, read as the kernel reads a character:
    values_at the rows' points, residue classes or prime powers, minus l."""

    def __init__(self, table):
        self.table = table

    def values_at(self, residues):
        return self.table[residues % len(self.table)]


def test_sums_read_characters_through_values_at_only():
    """No code in sums.py builds or reads a table of every character value:
    each sum reads chi through values_at, at its own points."""
    tree = ast.parse(Path(sums.__file__).read_text())
    names = {getattr(node, "attr", getattr(node, "id", None)) for node in ast.walk(tree)}
    assert "values_at" in names
    assert not names & {"value_table", "all_character_tables", "_character_values"}


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 3000), st.integers(0, 3000), st.integers(1, 1200), st.integers(-50, 50),
       st.integers(1, 4), st.integers(1, 64), st.integers(0, 2**32 - 1))
@example(1000, 4000, 7, 3, 4, 1 << 24, 0)  # L < pi*(x): the residue bins are the rows
@example(1000, 4000, 1200, 3, 4, 1 << 24, 0)  # L >= pi*(5000) = 711: the prime powers are the rows
@example(0, 2, 1, 0, 1, 1, 1)  # growth from an empty cache, L = 1, a carry per prime power
@example(3000, 0, 5, 1, 1, 10, 2)  # blocks of 4 cut at carries every 10 prime powers
def test_integer_lambda_cache_matches_fraction_oracle(x1, grow, L, l, block, carry, seed):
    """The Lambda cache grown from x1 to x2 = x1 + grow in one process holds
    m = fl(log p) * 2**53 exactly, with np.ldexp(m, -53) equal to np.log(p)
    bit for bit; at both x the residue bins (digits and counts, with carries
    every ``carry`` prime powers) equal the exact Fraction sums, and
    _lambda_sum equals the exact-product oracle on both row paths."""
    x2 = x1 + grow
    rng = np.random.default_rng(seed)
    table = (rng.standard_normal(L) + 1j * rng.standard_normal(L)) * (rng.random(L) < 0.8)
    with mock.patch.object(sums, "_LAMBDA", sums._LambdaCache()), \
            mock.patch.object(sums, "BLOCK", block), mock.patch.object(util, "CHUNK", block), \
            mock.patch.object(sums, "CARRY", carry):
        for x in (x1, x2):
            n, m = sums._mangoldt_arrays(x)
            fresh = mangoldt_sieve(1, max(x, 1))
            log_p = np.log(fresh.prime.astype(np.float64))
            assert n.tobytes() == fresh.n.tobytes()
            assert m.dtype == np.int64 and m.tolist() == [int(Fraction(v) * 2**53) for v in log_p.tolist()]
            assert np.ldexp(m, -53).tobytes() == log_p.tobytes()

            sums._LAMBDA.bins.clear()
            digits, count = sums._residue_bins(x, L)
            for r in range(L):
                want = sum(Fraction(v) for v in log_p[n % L == r].tolist()) * 2**53
                assert sum(int(d) << (20 * k) for k, d in enumerate(digits[:, r].tolist())) == want
                assert count[r] == np.count_nonzero(n % L == r)
            assert ((digits[:-1] >= 0) & (digits[:-1] < 2**20)).all()

            inside = lambda r: r % L % 3 != 1  # noqa: E731
            [got] = sums._lambda_sum(x, L, _TableCharacter(table), l, (inside,))
            want = _kernel_oracle(x, L, lambda n: table[(n - l) % L], inside)
            assert _bits(got) == want


def test_residue_bins_fold_from_a_multiple(monkeypatch):
    """Bins mod every divisor L of the cached modulus fold from that one
    binning and equal, bit for bit, a fresh binning mod L; the cache keeps
    the multiple, and a non-divisor is binned afresh beside it (at this x
    the Lambda arrays outweigh both entries)."""
    x, big = 200000, 4725
    binned = []
    bin_residues = sums._bin_residues
    monkeypatch.setattr(sums, "_LAMBDA", sums._LambdaCache())
    monkeypatch.setattr(sums, "_bin_residues", lambda *a: binned.append(a) or bin_residues(*a))
    cached, _ = sums._residue_bins(x, big)
    for L in divisors(factor(big)):
        digits, count = sums._residue_bins(x, L)
        want_digits, want_count = bin_residues(x, L)
        assert np.array_equal(digits, want_digits) and np.array_equal(count, want_count)
    assert binned == [(x, big)] and sums._LAMBDA.bins.keys() == {big}
    sums._residue_bins(x, 2)  # not a divisor: binned afresh
    assert binned == [(x, big), (x, 2)]
    assert sums._LAMBDA.bins[big][1] is cached and sums._LAMBDA.bins[2][0] == x


# x for the request sequences below: 4 -> 5 adds a digit row (3 prime
# powers up to 4, then 4), and 3000 -> 3001 adds no prime power
_BIN_XS = (1, 4, 5, 60, 3000, 3001, 9000)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(_BIN_XS) - 1), st.sampled_from([1, 2, 3, 4, 6, 12, 36, 5, 60, 7])),
                min_size=1, max_size=10),
       st.integers(1, 4), st.integers(1, 64))
@example([(1, 12), (2, 12), (6, 12), (6, 4), (4, 36), (5, 3)], 4, 1 << 24)  # 4 -> 5 grows a row
@example([(3, 1), (6, 1), (4, 2), (6, 6)], 1, 7)  # carries every 7 prime powers while growing
@example([(6, 60), (4, 12), (5, 60), (6, 5), (0, 7), (6, 7), (6, 7)], 2, 64)  # x falls, repeats
def test_residue_bins_equal_a_fresh_binning(requests, block, carry):
    """Along any sequence of (x, L), x rising, falling and repeating and L
    with its divisors and multiples, the bins (digits and counts) equal a
    fresh binning of every prime power up to x mod L, bit for bit, with
    carries every ``carry`` prime powers.  Every binning is fresh mod L, or
    bins only (x0, x] mod a multiple of L that the cache held at x0 < x."""
    calls = []
    bin_residues = sums._bin_residues
    with mock.patch.object(sums, "_LAMBDA", sums._LambdaCache()), \
            mock.patch.object(sums, "_bin_residues", lambda *a: calls.append(a) or bin_residues(*a)), \
            mock.patch.object(sums, "BLOCK", block), mock.patch.object(sums, "CARRY", carry):
        for i, L in requests:
            x = _BIN_XS[i]
            held = {M: x0 for M, (x0, _, _) in sums._LAMBDA.bins.items()}
            calls.clear()
            digits, count = sums._residue_bins(x, L)
            want_digits, want_count = bin_residues(x, L)
            assert digits.shape == want_digits.shape and digits.tobytes() == want_digits.tobytes()
            assert count.tobytes() == want_count.tobytes()
            for call_x, M, *after in calls:
                assert call_x == x and M % L == 0
                assert (M, after) == (L, []) if not after else held.get(M) == after[0] < x


def test_residue_bins_under_concurrent_reads():
    """Eight threads on two CPUs, switching every microsecond, read the bins
    of 45 shuffled (x, L), x rising and falling and L with its divisors and
    multiples, 200 times: each read equals a fresh binning, bit for bit, and
    no scan of the cached entries meets another thread's update."""
    requests = [(x, L) for x in (3000, 6000, 9000) for L in (2, 4, 12, 36, 5, 60, 7, 14, 1, 3, 6, 18, 9, 30, 10)]
    want = [tuple(a.tobytes() for a in sums._bin_residues(x, L)) for x, L in requests]
    for trial in range(200):
        order = sorted(range(len(requests)), key=lambda i: SplitMix64(trial ^ i).next_u64())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got, _ = _read_lambda(lambda: util.map_blocks(lambda i: sums._residue_bins(*requests[i]), order), cpus=8)
        finally:
            sys.setswitchinterval(interval)
        assert [tuple(a.tobytes() for a in bins) for bins in got] == [want[i] for i in order]


def test_restricted_report_bins_lambda_once(monkeypatch):
    """report restricted bins Lambda once, mod q lcm(nu) = 7 * 15 for
    D = 4725, and every record equals a restricted sum that binned on its
    own."""
    x = 20000
    binned = []
    bin_residues = sums._bin_residues
    monkeypatch.setattr(sums, "_LAMBDA", sums._LambdaCache())
    monkeypatch.setattr(sums, "_bin_residues", lambda x, L, *after: binned.append(L) or bin_residues(x, L, *after))
    records = bounds.restricted_report(4725, x)
    assert binned == [105]
    chi_q = induce_primitive(character_at(unit_group_basis(4725), 1))
    assert [r.parameters["nu"] for r in records] == [1, 3, 5, 15]
    for rec in records:
        sums._LAMBDA.bins.clear()
        val = restricted_sum(chi_q, rec.parameters["nu"], rec.parameters["l"], x)
        assert rec.lhs == abs(val.value)
    assert binned == [105, 7, 21, 35, 105]


def test_tsum_plan_bins_each_prime_power_once_per_modulus(tmp_path, monkeypatch, capsys):
    """A small copy of the bench tsum plan in one process (two sum T per
    modulus and x, four moduli, report restricted at each x) bins each
    prime power at most once per modulus: the prime powers up to the first
    x, then only those between the two, and report restricted folds the
    bins mod 4725.  Every command prints the same bytes against
    a fresh cache as in the warm sequence."""
    moduli, xs = (4725, 1024, 2310, 7919), (10**6, 2 * 10**6)
    commands = []
    for x in xs:
        for D in moduli:
            commands += [["sum", "T", "--D", str(D), "--l", "1", "--x", str(x), "--chi-index", str(i)]
                         for i in (1, 7)]
        commands.append(["report", "restricted", "--D", "4725", "--x", str(x)])
    binned = []
    bin_residues = sums._bin_residues
    monkeypatch.setattr(sums, "_bin_residues", lambda *a: binned.append(a) or bin_residues(*a))
    monkeypatch.setattr(sums, "_LAMBDA", sums._LambdaCache())

    def outputs(argv, name):
        path = tmp_path / name
        assert cli.main(argv + ["--output", str(path)] if argv[0] == "report" else argv) == 0
        return capsys.readouterr(), path.read_bytes() if argv[0] == "report" else b""

    warm = [outputs(argv, f"warm-{i}") for i, argv in enumerate(commands)]
    assert binned == [(xs[0], D) for D in moduli] + [(xs[1], D, xs[0]) for D in moduli]
    for i, argv in enumerate(commands):
        monkeypatch.setattr(sums, "_LAMBDA", sums._LambdaCache())
        assert outputs(argv, f"fresh-{i}") == warm[i]


def test_lambda_sum_peak_memory_is_bounded_by_chunks(monkeypatch):
    """One shifted_prime_sum at D = 99991, x = 4e6 (binned: L < pi*(x)) with
    a warm Lambda cache and value table stays below 160 bytes per residue:
    the dot product turns the values into limbs and multiplies them by the
    digits in chunks of util.CHUNK rows, not all L rows at once."""
    x = 4 * 10**6
    sums._mangoldt_arrays(x)
    chi = character_at(unit_group_basis(99991), 7)
    chi.value_table()
    monkeypatch.setattr(sums._LAMBDA, "bins", {})
    tracemalloc.start()
    try:
        got = shifted_prime_sum(chi, 2, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.term_count == 283146 + 393
    assert peak < 160 * 99991


@pytest.mark.parametrize("nu", [10**6 + 3, 10**9 + 7])
def test_restricted_sum_memory_does_not_grow_with_nu(nu):
    """restricted_sum with L = q nu far above pi*(x) looks only at the
    prime powers: its tracemalloc peak stays far below one byte per residue
    mod q nu, and its value is the oracle's, bit for bit."""
    chi_q = character_at(unit_group_basis(7), 1)
    table, l, x = chi_q.value_table(), 997 + 2 * nu, 1000
    sums._mangoldt_arrays(x)
    tracemalloc.start()
    try:
        got = restricted_sum(chi_q, nu, l, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.term_count == 1  # n = 997
    assert _bits(got) == _kernel_oracle(x, 7 * nu, lambda n: table[(n - l) % 7],
                                        lambda n: n % 7 != 0 and n % nu == l % nu)
    assert peak < 10**6


# ---------------------------------------------------------------------------
# restricted_sum


def test_restricted_sum_nu_one_matches_unrestricted_coprime_part():
    chi = [c for c in chars(45) if not c.is_principal][1]
    chi_q = induce_primitive(chi)
    got = restricted_sum(chi_q, 1, 2, 2000)
    direct = oracles.restricted_sum_oracle(chi_q, 1, 2, 2000)
    assert close(got.value, direct, got.abs_term_sum)


def test_restricted_sum_rejects_bad_coprimality():
    chi_q = induce_primitive([c for c in chars(5) if not c.is_principal][0])
    with pytest.raises(PreconditionError):
        restricted_sum(chi_q, 10, 1, 100)  # gcd(nu, q) > 1
    with pytest.raises(PreconditionError):
        restricted_sum(chi_q, 3, 3, 100)  # gcd(l, nu) > 1


def test_restricted_sum_empty():
    chi_q = induce_primitive([c for c in chars(5) if not c.is_principal][0])
    assert restricted_sum(chi_q, 2, 1, 1).value == 0j


# ---------------------------------------------------------------------------
# short_sum / sy_sum


def test_short_sum_single_term():
    chi_q = induce_primitive([c for c in chars(13) if not c.is_principal][0])
    got = short_sum(chi_q, M=20, N=1, d=3, k=2, eta=5)
    assert got.term_count == 1
    assert got.value == pytest.approx(oracles.character_value(chi_q(20 * 3 + 5 * 2)))


def test_short_sum_full_period_vanishes():
    for D in (13, 45):
        for chi in chars(D):
            if chi.is_principal or conductor(chi).value != D:
                continue
            got = short_sum(chi, M=D, N=D, d=1, k=1, eta=1)
            assert abs(got.value) < 1e-9 * D


def test_short_sum_full_period_vanishes_with_coprime_step():
    # n over q consecutive values with (d, q) = 1 covers a full residue system
    for chi in chars(45):
        if chi.is_principal:
            continue
        got = short_sum(chi, M=17, N=45, d=4, k=3, eta=2)
        assert abs(got.value) < 1e-9 * 45


def _exact_reference(w, g) -> tuple:
    """The evaluators' contract by Fraction: the exact products w * g
    summed and rounded once (real and imaginary parts), the exact sum of
    |w| where g != 0, and the number of terms."""
    w = np.asarray(w, dtype=np.float64).tolist()
    g = np.asarray(g, dtype=np.complex128)
    re = sum((Fraction(a) * Fraction(b) for a, b in zip(w, g.real.tolist())), Fraction(0))
    im = sum((Fraction(a) * Fraction(b) for a, b in zip(w, g.imag.tolist())), Fraction(0))
    mass = sum((abs(Fraction(a)) for a, b in zip(w, g.tolist()) if b != 0), Fraction(0))
    return float(re).hex(), float(im).hex(), float(mass).hex(), len(w)


def _bits(got) -> tuple:
    return got.value.real.hex(), got.value.imag.hex(), got.abs_term_sum.hex(), got.term_count


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("block", [1, 17, 4096, None, 1 << 20])
def test_evaluators_equal_fsum_reference_exactly(block, width, monkeypatch):
    """Every evaluator equals the exact-product reference bit for bit: the
    Lambda sums with weights Lambda(n), the window sums with weight 1 per n
    and the bilinear sum with weight a_m b_n per (m, n).  This holds
    whatever the block and chunk size (None keeps the defaults; 1 << 20
    puts every term in one block and every row in one chunk), also when
    ``width`` copies run at once on util.map_blocks threads, as the
    evaluators do inside theorem_report."""
    if block is not None:
        monkeypatch.setattr(sums, "BLOCK", block)
        monkeypatch.setattr(util, "CHUNK", block)
    monkeypatch.setattr(util, "usable_cpus", lambda: width)
    chi = [c for c in chars(63) if not c.is_principal][4]
    chi_q = induce_primitive(chi)
    q, D = chi_q.modulus, chi.modulus
    want = []

    x, l = 3000, 5
    lam = mangoldt_weights(x)
    n = np.flatnonzero(lam)
    want.append(_exact_reference(lam[n], chi.value_table()[(n - l) % D]))

    nu = 4
    sel = n[(np.gcd(n, q) == 1) & (n % nu == l % nu)]
    want.append(_exact_reference(lam[sel], chi_q.value_table()[(sel - l) % q]))

    M, N, d, k, eta = 900, 700, 3, 2, 5
    ns = np.arange(M - N + 1, M + 1)
    want.append(_exact_reference(np.ones(ns.size), chi_q.value_table()[(ns * d + eta * k) % q]))

    u, y = 1500.5, 700
    ns = np.arange(math.floor(u - y) + 1, math.floor(u) + 1)
    ns = ns[(np.gcd(ns, q) == 1) & (ns % nu == eta % nu)]
    want.append(_exact_reference(np.ones(ns.size), chi_q.value_table()[(ns - eta) % q]))

    a_m, b_n = coeff_tau5_family(7), coeff_mobius
    M2, N2, U, nu2, x2 = 20, 25, 30, 2, 900
    weights, args = [], []
    for m in range(M2 + 1, 2 * M2 + 1):
        for v in range(U + 1, min(x2 // m, 2 * N2) + 1):
            if math.gcd(m * v, q) == 1 and (m * v - l) % nu2 == 0 and a_m(m) and b_n(v):
                weights.append(a_m(m) * b_n(v))
                args.append((m * v - l) % q)
    want.append(_exact_reference(weights, chi_q.value_table()[args]))

    def evaluate(_):
        return [
            _bits(shifted_prime_sum(chi, l, x)),
            _bits(restricted_sum(chi_q, nu, l, x)),
            _bits(short_sum(chi_q, M, N, d, k, eta)),
            _bits(sy_sum(chi_q, u, y, eta, nu)),
            _bits(double_sum(chi_q, a_m, b_n, M2, N2, U, nu2, l, x2)),
        ]

    runs = util.map_blocks(evaluate, list(range(width)))
    assert len(runs) == width
    for got in runs:
        assert got == want


def test_sy_sum_examples():
    for chi in chars(15):
        assert sy_sum(chi, 10, 0.5, 1, 2).value == 0j  # empty window
        # q=15, u=15, y=15, eta=1, nu=2: all window arguments share a factor
        got = sy_sum(chi, 15, 15, 1, 2)
        assert got.value == 0j
        assert oracles.sy_sum_oracle(chi, 15, 15, 1, 2) == 0j


def test_sy_sum_nu_one_vacuous():
    chi_q = induce_primitive([c for c in chars(7) if not c.is_principal][0])
    a = sy_sum(chi_q, 50, 20, 3, 1)
    b = oracles.sy_sum_oracle(chi_q, 50, 20, 3, 1)
    assert close(a.value, b, a.abs_term_sum)


# ---------------------------------------------------------------------------
# double_sum


def test_double_sum_zero_coefficients():
    chi_q = induce_primitive([c for c in chars(11) if not c.is_principal][0])
    zero = lambda n: 0
    got = double_sum(chi_q, zero, zero, 4, 8, 9, 1, 1, 1000)
    assert got.value == 0j and got.term_count == 0


def test_double_sum_degenerate_outer_range():
    chi_q = induce_primitive([c for c in chars(11) if not c.is_principal][0])
    # M-range (1, 2] has the single m = 2
    got = double_sum(chi_q, coeff_one, coeff_one, 1, 8, 9, 1, 1, 10**6)
    inner = sum(
        oracles.character_value(chi_q(2 * n - 1))
        for n in range(10, 17)
        if math.gcd(2 * n, 11) == 1
    )
    assert close(got.value, inner, got.abs_term_sum)


def test_double_sum_mobius_weights_match_oracle():
    chi_q = induce_primitive([c for c in chars(23) if not c.is_principal][0])
    got = double_sum(chi_q, coeff_mobius, coeff_one, 12, 30, 40, 3, 1, 2500)
    want = oracles.double_sum_oracle(chi_q, coeff_mobius, coeff_one, 12, 30, 40, 3, 1, 2500)
    assert close(got.value, want, got.abs_term_sum)


def test_double_sum_precondition():
    chi_q = induce_primitive([c for c in chars(11) if not c.is_principal][0])
    with pytest.raises(PreconditionError):
        double_sum(chi_q, coeff_one, coeff_one, 4, 8, 20, 1, 1, 1000)  # U >= 2N


def test_double_sum_rejects_coefficient_mass_beyond_exact_weights():
    """The per-class weights are exact while sum |a_m b_n| < 2^53: at 2^53
    the sum is a precondition error naming the coefficients, just below it
    the value equals the exact-product reference."""
    chi_q = character_at(unit_group_basis(11), 3)
    M, N, U, x = 4, 8, 9, 1000
    pairs = [(m, n) for m in range(M + 1, 2 * M + 1) for n in range(U + 1, min(x // m, 2 * N) + 1)
             if m * n % 11]
    big = 2**53 // len(pairs)
    with pytest.raises(PreconditionError, match="'a_m,b_n'"):
        double_sum(chi_q, lambda m: -big - 1, coeff_one, M, N, U, 1, 1, x)
    got = double_sum(chi_q, lambda m: -big, coeff_one, M, N, U, 1, 1, x)
    table = chi_q.value_table()
    want = _exact_reference([-big] * len(pairs), table[[(m * n - 1) % 11 for m, n in pairs]])
    assert _bits(got) == want


# ---------------------------------------------------------------------------
# Window and bilinear sums near the int64 limit

NEAR_INT64 = st.one_of(st.integers(2**62, 2**63 - 1), st.integers(-(2**63) + 64, -(2**62)))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([7, 45, 101, 1024]), st.integers(0, 10**6), NEAR_INT64, st.integers(1, 40),
       st.integers(-(2**64), 2**64), st.integers(-(2**64), 2**64), st.integers(1, 6), st.integers(1, 3))
@example(7, 0, 2**62, 5, 3, 1, 1, 1)  # chi(3n + 1) over 5 n: the product 3n overflowed
@example(7, 0, 2**63 - 1, 40, 2**63, -(2**63), 5, 3)  # the top of int64, factors beyond it
@example(45, 3, -(2**63) + 64, 40, 7, 2**63 + 1, 2, 1)  # the bottom of int64
def test_window_and_bilinear_sums_near_int64_match_oracles(D, pick, M, N, d, eta, nu, M2):
    """short_sum, sy_sum and double_sum with n, m n, d, eta and l near or
    beyond 2^63 equal the Python-integer oracles: every factor is reduced
    mod q (or nu) before it is multiplied in int64."""
    basis = unit_group_basis(D)
    chi = character_at(basis, 1 + pick % (basis.phi - 1))
    eta = next(v for v in range(eta, eta + D) if math.gcd(v, D) == 1)
    nu = next(v for v in range(nu, nu + D) if math.gcd(v, D) == 1)

    got = short_sum(chi, M, N, d, 1, eta)
    assert close(got.value, oracles.short_sum_oracle(chi, M, N, d, 1, eta), got.abs_term_sum)
    got = sy_sum(chi, M, N, eta, nu)
    assert close(got.value, oracles.sy_sum_oracle(chi, M, N, eta, nu), got.abs_term_sum)
    # m in (M2, 2 M2] and n in (U, x // m]: about N terms for m = M2 + 1
    big, l = abs(M) // 2, eta * d
    x = (M2 + 1) * (big + N)
    got = double_sum(chi, coeff_mobius, coeff_one, M2, big, big, nu, l, x)
    want = oracles.double_sum_oracle(chi, coeff_mobius, coeff_one, M2, big, big, nu, l, x)
    assert close(got.value, want, got.abs_term_sum)


def test_window_sums_over_long_windows_weigh_each_class_by_its_count():
    """short_sum over N = 10^12 and sy_sum over y = 10^13 with nu = 10^9 + 7
    weigh each class mod q by its count of n: each equals the exact-product
    reference over the classes, in under a second and with memory that
    grows with q, not with the window."""
    q = 1009
    chi = character_at(unit_group_basis(q), 123)
    table = chi.value_table()
    M, N, d, k, eta = 5 * 10**12 + 3, 10**12, 3, 2, 5
    lo = M - N + 1
    counts = [(M - r) // q - (lo - 1 - r) // q for r in range(q)]
    short_want = _exact_reference(counts, table[[(r * d + eta * k) % q for r in range(q)]])
    u, y, nu = 3 * 10**13 + 17, 10**13, 10**9 + 7
    per_class = [0] * q
    for n in range(u - y + 1 + (eta - (u - y + 1)) % nu, u + 1, nu):
        per_class[n % q] += math.gcd(n, q) == 1
    sy_want = _exact_reference(per_class, table[[(r - eta) % q for r in range(q)]])

    tracemalloc.start()
    try:
        start = time.perf_counter()
        short, sy = short_sum(chi, M, N, d, k, eta), sy_sum(chi, u, y, eta, nu)
        seconds = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _bits(short)[:3] == short_want[:3] and short.term_count == N
    assert _bits(sy)[:3] == sy_want[:3] and sy.term_count == sum(per_class)
    assert seconds < 1.0
    assert peak < 2**20 + 1024 * q


def test_window_and_bilinear_sums_reject_n_beyond_int64():
    """A window or range of n that int64 cannot hold is a precondition
    error naming the inputs that set it."""
    chi = character_at(unit_group_basis(7), 1)
    for call, name in (
        (lambda: short_sum(chi, 2**63, 5, 1, 1, 1), "'M,N'"),
        (lambda: short_sum(chi, -(2**63) + 2, 5, 1, 1, 1), "'M,N'"),
        (lambda: sy_sum(chi, 2**63 + 5, 10, 1, 1), "'u,y'"),
        (lambda: sy_sum(chi, 100, 10, 1, 2**63 + 1), "'nu'"),
        (lambda: double_sum(chi, coeff_one, coeff_one, 1, 2**63, 2**63, 1, 1, 2**70), "'x,N'"),
        (lambda: double_sum(chi, coeff_one, coeff_one, 1, 8, 9, 2**32 + 1, 1, 100), "'nu'"),
    ):
        with pytest.raises(PreconditionError, match=name):
            call()


# ---------------------------------------------------------------------------
# Burgess moments


def test_burgess_moment_window_one():
    for q in (13, 45):
        for chi in chars(q):
            if chi.is_principal:
                continue
            for r in (1, 2):
                got = burgess_moment_2r(chi, 1, r)
                assert got == pytest.approx(euler_phi(factor(q)), rel=1e-12)


def test_burgess_moment_r1_equals_expanded_oracle():
    for q in (13, 44):
        for chi in chars(q)[1:3]:
            for Z in (2, 5):
                got = burgess_moment_2r(chi, Z, 1)
                want = oracles.burgess_moment_2_expanded_oracle(chi, Z)
                assert abs(got - want) < 1e-9 * q * Z * Z


def test_burgess_moment_direct_loop_q13():
    chi = [c for c in chars(13) if not c.is_principal][0]
    got = burgess_moment_2r(chi, 3, 2)
    want = oracles.burgess_moment_2r_oracle(chi, 3, 2)
    assert got == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# Congruence census


def test_census_minimal_instance_matches_quadruple_loop():
    inst = congruence_census(15, 3, 1, 1, 0, 1, 7)
    want = oracles.congruence_census_oracle(15, 3, 1, 1, 0, 1, 7)
    assert inst.K == want["K"]
    assert inst.diagonal == want["diagonal"]
    assert (inst.kappa1, inst.kappa2, inst.kappa3) == (
        want["kappa1"], want["kappa2"], want["kappa3"],
    )


def test_census_random_instances_match_oracle():
    rng = SplitMix64(42)
    done = 0
    while done < 12:
        q = rng.randint(20, 400)
        ds = [d for d in range(1, q) if q % d == 0]
        d = rng.choice(ds)
        Y = rng.randint(d + 1, max(d + 1, min(q // 3, 40)))
        if 2 * Y >= q:
            continue
        N = rng.randint(1, max(1, (q - 1) // (2 * Y)))
        if 2 * N * Y >= q or d >= Y:
            continue
        eta = next(e for e in range(1 + rng.below(q), 2 * q) if math.gcd(e, q) == 1)
        k = next(v for v in range(1 + rng.below(10), 40) if math.gcd(v, d) == 1)
        M = rng.below(50)
        inst = congruence_census(q, d, eta, k, M, N, Y)
        want = oracles.congruence_census_oracle(q, d, eta, k, M, N, Y)
        assert inst.K == want["K"]
        assert inst.diagonal == want["diagonal"]
        assert (inst.kappa1, inst.kappa2, inst.kappa3) == (
            want["kappa1"], want["kappa2"], want["kappa3"],
        )
        assert inst.K == inst.diagonal + 2 * inst.kappa_total
        done += 1


def test_census_diagonal_lower_bound_and_kappa1_vanishing():
    inst = congruence_census(101, 1, 3, 5, 7, 5, 9)
    y_q = sum(1 for y in range(1, 10) if math.gcd(y, 101) == 1)
    assert inst.diagonal == 5 * y_q
    assert inst.K >= inst.diagonal
    # (d, q/d) > 1 forces the first case to be empty
    inst2 = congruence_census(36, 6, 5, 5, 0, 1, 8)  # wait: need d < Y and 2NY < q
    assert math.gcd(6, 6) > 1
    assert inst2.kappa1 == 0


def test_census_preconditions_named():
    with pytest.raises(PreconditionError) as e:
        congruence_census(15, 3, 5, 1, 0, 1, 7)  # gcd(eta, q) > 1
    assert e.value.name == "eta"
    with pytest.raises(PreconditionError) as e:
        congruence_census(15, 3, 1, 9, 0, 1, 7)  # gcd(k, d) > 1
    assert e.value.name == "k"
    with pytest.raises(PreconditionError) as e:
        congruence_census(15, 4, 1, 1, 0, 1, 7)  # d does not divide q
    assert e.value.name == "d|q"
    with pytest.raises(PreconditionError) as e:
        congruence_census(15, 3, 1, 1, 0, 2, 7)  # 2NY >= q
    assert e.value.name == "2NY<q"
    with pytest.raises(PreconditionError) as e:
        congruence_census(35, 7, 1, 1, 0, 2, 5)  # d >= Y
    assert e.value.name == "d<Y"


def test_census_beyond_work_budget(monkeypatch):
    monkeypatch.setattr(util, "DEFAULT_WORK_BUDGET", 10)
    with pytest.raises(WorkBudgetError, match=r"census at q = 101, N = 5, Y = 9 \(N\*Y_q pairs\) "
                       r"needs 45 operations, more than the budget of 10"):
        congruence_census(101, 1, 3, 5, 7, 5, 9)


def test_rho_divisor_count_examples():
    assert rho_divisor_count(15, 3, 7) == 0
    assert rho_divisor_count(30, 2, 10) == 2
    rng = SplitMix64(9)
    for _ in range(40):
        q = rng.randint(2, 600)
        ds = [d for d in range(1, q + 1) if q % d == 0]
        d = rng.choice(ds)
        Y = rng.randint(1, 50)
        assert rho_divisor_count(q, d, Y) == oracles.rho_divisor_count_oracle(q, d, Y)


# ---------------------------------------------------------------------------
# Decomposition identity


def test_hb_constant_weight_example():
    dec = hb_decompose(np.ones(21), 20, 2, 1)
    psi20 = mangoldt_weights(20).sum()
    assert psi20 == pytest.approx(19.2656, abs=5e-4)
    assert dec.lhs == pytest.approx(psi20, rel=1e-12)
    assert dec.total == pytest.approx(dec.lhs, abs=1e-10)
    assert dec.residual < 1e-8 * 20


def test_hb_zero_weight():
    dec = hb_decompose(np.zeros(101), 100, 4, 2)
    assert dec.lhs == 0j
    assert all(p == 0j for p in dec.parts)
    assert dec.residual == 0.0


def test_hb_part_structure():
    dec = hb_decompose(np.ones(201), 200, 5, 3)
    assert len(dec.parts) == 4  # three head depths plus the tail
    assert dec.residual < 1e-8 * 200


def test_hb_reduces_every_part_in_one_exact_dot(monkeypatch):
    """One exact_dot of weight 1 reduces the r head parts, the tail and the
    left-hand side together: 2 (r + 2) lanes, the real and imaginary parts
    of each; only ``total`` is summed after it, from the parts."""
    calls = []

    def counting(rows, weights_of, parts_of, scale=0):
        got = exact_dot(rows, weights_of, parts_of, scale)
        calls.append((weights_of, len(got[0])))
        return got

    monkeypatch.setattr(sums, "exact_dot", counting)
    for r in (1, 3):
        calls.clear()
        dec = hb_decompose(np.ones(201), 200, 5, r)
        assert calls == [(None, 2 * (r + 2))]
        assert len(dec.parts) == r + 1 and dec.total == complex_fsum(dec.parts)


def test_hb_peak_memory_is_bounded_by_lane_chunks(monkeypatch):
    """exact_dot reads the 10 lanes of hb_decompose at x = 10^4, r = 3 in
    chunks of at most 2 util.CHUNK lane entries, not all 10^4 rows at once:
    the tracemalloc peak stays below 7 MiB (10.2 MiB as one chunk), and the
    parts have the bits of a single chunk."""
    x, r = 10**4, 3
    f = np.ones(x + 1)
    u1 = math.ceil(x ** (1 / 3))
    hb_decompose(f, x, u1, r)  # warm the Lambda cache
    tracemalloc.start()
    try:
        dec = hb_decompose(f, x, u1, r)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 7 * 2**20
    monkeypatch.setattr(util, "CHUNK", 1 << 20)
    whole = hb_decompose(f, x, u1, r)
    assert [repr(v) for v in dec.parts + [dec.lhs]] == [repr(v) for v in whole.parts + [whole.lhs]]
    assert repr(dec.residual) == repr(whole.residual)


def test_hb_random_weights_residual():
    rng = SplitMix64(1234)
    for _ in range(10):
        x = rng.randint(50, 3000)
        u1 = rng.randint(1, math.isqrt(x))
        r = rng.randint(1, 3)
        f = np.array(
            [complex(rng.below(2001) - 1000, rng.below(2001) - 1000) / 1000.0 for _ in range(x + 1)]
        )
        dec = hb_decompose(f, x, u1, r)
        assert dec.residual < 1e-8 * x


def test_hb_char_twist_instance():
    chi = [c for c in chars(45) if not c.is_principal][3]
    chi_q = induce_primitive(chi)
    x = 4000
    f = char_twist_weight(chi_q, 2, x)
    dec = hb_decompose(f, x, math.ceil(x ** (1 / 3)), 3)
    direct = oracles.restricted_sum_oracle(chi_q, 1, 2, x)
    mass = exact_sum(np.abs(mangoldt_weights(x) * f))  # sum |Lambda f|
    assert abs(dec.lhs - direct) < 1e-9 * max(1.0, mass)
    assert dec.residual < 1e-8 * x


def test_hb_rejects_bad_window():
    with pytest.raises(PreconditionError):
        hb_decompose(np.ones(11), 10, 11, 1)


# ---------------------------------------------------------------------------
# Coprime counting


def test_coprime_count_sweep_small():
    checked, worst = coprime_count_sweep(60, 60)
    assert checked == 60 * 60
    assert worst <= 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 60), st.integers(0, 60))
@example(0, 0)
@example(0, 60)
@example(60, 0)
def test_coprime_count_sweep_matches_loop_oracle(q_max, u_max):
    got = coprime_count_sweep(q_max, u_max)
    want = oracles.coprime_count_sweep_oracle(q_max, u_max)
    assert got == want
    assert type(got[0]) is int and type(got[1]) is Fraction


def test_coprime_count_sweep_failure_fails_its_record(monkeypatch, tmp_path):
    """An overstated phi makes the deviation grow with U past the bound:
    the sweep still returns its worst ratio, as the oracle does, and
    `verify identities` writes COPRIME_COUNT as a failed ASSERT and exits
    1, not 3."""
    wrong_phi = lambda f: euler_phi(f) + 1  # noqa: E731
    monkeypatch.setattr(sums, "euler_phi", wrong_phi)
    monkeypatch.setattr(oracles, "euler_phi", wrong_phi)
    got = coprime_count_sweep(5, 60)
    assert got == oracles.coprime_count_sweep_oracle(5, 60)
    assert got[1] > 1
    path = tmp_path / "identities.jsonl"
    argv = ["verify", "identities", "--max-D", "5", "--gauss-max-q", "5", "--hb-cases", "1",
            "--coprime-max", "5", "--recombination-cases", "1", "--output", str(path)]
    assert cli.main(argv) == 1
    verdicts = {r["lemma_tag"]: r["verdict"] for r in map(json.loads, path.read_text().splitlines()[1:])}
    assert verdicts == {"HB_DECOMP": "pass", "ORTHOGONALITY": "pass", "GAUSS_MODULUS": "pass",
                        "COPRIME_COUNT": "fail", "T_RECOMBINATION": "pass"}


# ---------------------------------------------------------------------------
# Mobius recombination


def test_mobius_recombination_small_cases():
    rng = SplitMix64(2024)
    done = 0
    while done < 6:
        D = rng.randint(6, 400)
        cs = [c for c in chars(D) if not c.is_principal]
        if not cs:
            continue
        chi = cs[rng.below(len(cs))]
        l = next(v for v in range(1 + rng.below(D), 2 * D) if math.gcd(v, D) == 1)
        rec = mobius_recombination(chi, l, rng.randint(50, 3000))
        assert rec.residual <= 1e-9 * max(1.0, rec.abs_mass)
        done += 1


@pytest.mark.parametrize("x", [20000, 300])  # L = 4725 below pi*(x): bins as rows; above: prime powers
def test_mobius_recombination_reads_chi_mod_D_once(x, monkeypatch):
    """T(chi, l) and the (n, q) > 1 correction come from one values_at call
    at modulus D (chi 7 mod 4725 has conductor 175, so the restricted sums
    read chi_q mod 175 nu, never mod D), with the bits of shifted_prime_sum
    and of the correction summed on its own."""
    D, l = 4725, 2
    chi = character_at(unit_group_basis(D), 7)
    lhs = shifted_prime_sum(chi, l, x)
    [corr] = sums._lambda_sum(x, D, chi, l, (lambda r: np.gcd(r, 175) != 1,))
    moduli = []
    values_at = DirichletCharacter.values_at
    monkeypatch.setattr(DirichletCharacter, "values_at",
                        lambda self, residues: moduli.append(self.modulus) or values_at(self, residues))
    rec = mobius_recombination(chi, l, x)
    assert moduli.count(D) == 1 and len(moduli) == 1 + len(rec.nus)
    assert _bits(rec.lhs) == _bits(lhs) and rec.correction == corr.value


# ---------------------------------------------------------------------------
# Coefficient families


def test_tau5_family_is_bounded_and_deterministic():
    fam = coeff_tau5_family(7)
    t5 = lambda n: math.prod(math.comb(a + 4, 4) for _, a in factor(n).factors)
    for n in range(1, 300):
        v = fam(n)
        assert abs(v) <= t5(n)
        assert v == fam(n)
