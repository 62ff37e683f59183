"""The exact reduction against math.fsum on generated inputs (full exponent
range, subnormals, cancellation, zeros, specials, overflow), for
``exact_sum`` and ``complex_fsum`` alike; invariance under term order and
under how the chunks cut the terms; ``fixed_point`` and ``digits``
themselves; ``exact_dot`` against Fraction, its int64 headroom and its
weight-1 fallback to math.fsum; both paths of the one-shot helpers;
map_blocks, SplitMix64.distinct and .unit, and check_work."""

import ast
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charsum import util
from charsum.util import (
    PreconditionError,
    SplitMix64,
    WorkBudgetError,
    check_work,
    complex_fsum,
    exact_dot,
    exact_sum,
    fixed_point,
)

INF = math.inf
MAX = sys.float_info.max
TINY = math.ldexp(1.0, -1074)

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
# real and imaginary parts, the same number of each
complex_inputs = inputs.flatmap(
    lambda xs: st.tuples(st.just(xs), st.lists(finite, min_size=len(xs), max_size=len(xs)))
)


def same(a: float, b: float) -> bool:
    """Bit-for-bit equality, sign of zero included (nan excluded)."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def as_complex(re, im) -> np.ndarray:
    """The complex array with these parts, bit for bit (re + 1j * im turns
    -0.0 into 0.0 and inf into nan)."""
    z = np.empty(len(re), dtype=np.complex128)
    z.real, z.imag = re, im
    return z


def check_like_fsum(lanes, compute) -> None:
    """``compute()`` must return math.fsum of every lane, or raise what it
    raises.  fsum also fails when a running sum overflows and later terms
    cancel it; the limbs then give the correctly rounded exact sum, and
    fail only when that overflows too, or when the lanes have no
    fixed-point form and fsum is the fallback."""
    limbs = fixed_point(np.array(lanes, dtype=np.float64).reshape(len(lanes), -1)) is not None
    want = []
    for xs in lanes:
        try:
            want.append(math.fsum(xs))
        except OverflowError:
            try:
                if not limbs:
                    raise
                want.append(float(sum(map(Fraction, xs), Fraction(0))))
            except OverflowError:
                with pytest.raises(OverflowError):
                    compute()
                return
    got = compute()
    assert all(same(g, w) for g, w in zip(got, want))


@given(inputs)
def test_exact_sum_equals_fsum(xs):
    check_like_fsum([xs], lambda: [exact_sum(xs)])


@given(complex_inputs)
def test_complex_fsum_equals_fsum(parts):
    z = as_complex(*parts)
    check_like_fsum(parts, lambda: (lambda v: [v.real, v.imag])(complex_fsum(z)))


def test_exact_sum_empty_and_zeros():
    assert same(exact_sum([]), math.fsum([]))
    assert same(exact_sum([-0.0, -0.0]), math.fsum([-0.0, -0.0]))
    assert same(exact_sum([TINY, -TINY]), math.fsum([TINY, -TINY]))
    got = complex_fsum(as_complex([-0.0] * 3, [-0.0] * 3))
    assert same(got.real, math.fsum([-0.0] * 3)) and same(got.imag, math.fsum([-0.0] * 3))


def test_exact_sum_extremes():
    xs = [MAX, -MAX, TINY, TINY, 1e-310, -0.0, 2.0**-1022]
    assert same(exact_sum(xs), math.fsum(xs))
    with pytest.raises(OverflowError):
        exact_sum([MAX, MAX])
    with pytest.raises(OverflowError):
        complex_fsum(as_complex([1.0, 1.0], [MAX, MAX]))
    # a running sum past MAX that later terms cancel: fsum raises, the limbs
    # give the exact sum
    assert exact_sum([MAX, MAX, -MAX]) == MAX
    # halfway cases round to even exactly as fsum does
    for xs in ([1.0, 2.0**-53], [1.0, 2.0**-53, 2.0**-105], [1.0 + 2.0**-52, 2.0**-53]):
        assert same(exact_sum(xs), math.fsum(xs))


@given(inputs, st.integers(1, 61), st.randoms(use_true_random=False))
def test_exact_sum_any_order_and_blocks(xs, rows, rnd):
    """The sum depends neither on the order of the terms nor on how the
    chunks of CHUNK terms cut them."""
    xs = list(xs)
    rnd.shuffle(xs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(util, "CHUNK", rows)
        check_like_fsum([xs], lambda: [exact_sum(xs)])


special = st.sampled_from([INF, -INF, math.nan])


@given(st.lists(st.one_of(moderate, special), max_size=40))
def test_specials_follow_fsum(xs):
    try:
        want = math.fsum(xs)
    except ValueError:  # inf + -inf
        with pytest.raises(ValueError):
            exact_sum(xs)
        return
    got = exact_sum(xs)
    assert (math.isnan(got) and math.isnan(want)) or same(got, want)


def test_specials_in_one_lane_leave_the_others_exact():
    got = complex_fsum(as_complex([1.0, INF, 2.0], [0.1, 0.2, 0.3]))
    assert got.real == INF and got.imag == math.fsum([0.1, 0.2, 0.3])
    got = complex_fsum(as_complex([0.1, 0.2, 0.3], [1.0, -INF, math.nan]))
    assert got.real == math.fsum([0.1, 0.2, 0.3]) and math.isnan(got.imag)
    with pytest.raises(ValueError, match="inf"):
        complex_fsum(as_complex([INF, -INF], [0.0, 0.0]))


@pytest.mark.parametrize("n", [0, 1, 255, 1023, 1024, 5000])
def test_one_shot_helpers_both_paths(n):
    """The limbs, in one chunk and in chunks of 1000, and the math.fsum
    fallback give the same bits."""
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-100, 100, n)
    z = x + 1j * rng.standard_normal(n)
    want = math.fsum(x.tolist())
    want_z = complex(math.fsum(z.real.tolist()), math.fsum(z.imag.tolist()))
    for patch in ({}, {"CHUNK": 1000}, {"fixed_point": lambda parts: None}):
        with pytest.MonkeyPatch.context() as mp:
            for name, value in patch.items():
                mp.setattr(util, name, value)
            assert same(exact_sum(x), want)
            got = complex_fsum(z)
            assert same(got.real, want_z.real) and same(got.imag, want_z.imag)


@given(st.lists(finite, max_size=40), st.integers(1, 3))
def test_fixed_point_limbs_are_exact(xs, lanes):
    """parts * 2**s = sum_k limbs[k] * 2**(LIMB k) exactly, limbs in
    [0, 2**LIMB) but the signed top one; None exactly when the scaled parts
    would pass float64's range."""
    parts = np.array(xs * lanes, dtype=np.float64).reshape(lanes, -1)
    got = fixed_point(parts)
    nonzero = [abs(v) for v in xs if v != 0]
    if nonzero and math.frexp(max(nonzero))[1] - math.frexp(min(nonzero))[1] + 53 > 1024:
        assert got is None
        return
    limbs, s = got
    assert limbs.shape[1:] == parts.shape and limbs.dtype == np.int64
    assert (limbs[:-1] >= 0).all() and (limbs[:-1] < 2**util.LIMB).all()
    assert (abs(limbs[-1]) <= 2**util.LIMB).all()
    for lane in range(lanes):
        for j, v in enumerate(xs):
            value = sum(int(limbs[k, lane, j]) << (util.LIMB * k) for k in range(len(limbs)))
            assert Fraction(value) == Fraction(v) * Fraction(2) ** s


def test_fixed_point_refuses_specials_and_wide_spans():
    for bad in ([1.0, INF], [math.nan], [-INF], [MAX, TINY]):
        assert fixed_point(np.array(bad)) is None
    limbs, _ = fixed_point(np.array([0.0, -0.0]))
    assert limbs.shape[1:] == (2,) and not limbs.any()


def test_exact_dot_int64_headroom():
    """A digit times a limb is at most 2**(DIGIT + LIMB) in magnitude, so a
    chunk of CHUNK such products sums below 2**63."""
    assert util.CHUNK << (util.DIGIT + util.LIMB) < 2**63


# the parts of a root of unity exp(2 pi i k / E) for E up to 2**64: down to 2**-62
root_parts = st.builds(lambda f, k, E: f(2 * math.pi * (k % E) / E), st.sampled_from([math.cos, math.sin]),
                       st.integers(0, 2**64), st.sampled_from([3, 7, 1 << 20, 10**12 + 39, 2**62, 2**64]))
# from 2**-250 to 2**253 in magnitude, or 0
moderate_parts = st.builds(math.ldexp, st.integers(-(2**53) + 1, 2**53 - 1), st.integers(-250, 200))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([1, 2, 9]), st.sampled_from([None, 1, 2, 4]), st.integers(0, 60), st.sampled_from([0, 53]),
       st.sampled_from([1, 8, 64, None]), st.data())
def test_exact_dot_equals_fraction_oracle(lanes, digits, rows, scale, chunk, data):
    """exact_dot against Fraction: weight 1 (``digits`` None, weights_of
    None, scale 0) or signed digits up to 2**DIGIT - 1 in magnitude; one
    lane, the real and imaginary pair, or many (the Gauss sums' shape) of
    parts from roots of unity of large order or moderate floats; chunks of
    ``chunk`` rows."""
    if digits is None:
        d, scale = np.ones((1, rows), dtype=np.int64), 0
    else:
        digit = st.integers(-(2**util.DIGIT) + 1, 2**util.DIGIT - 1)
        d = np.array(data.draw(st.lists(st.lists(digit, min_size=rows, max_size=rows),
                                        min_size=digits, max_size=digits)), dtype=np.int64).reshape(digits, rows)
    g = np.array(data.draw(st.lists(st.lists(st.one_of(root_parts, moderate_parts), min_size=rows, max_size=rows),
                                    min_size=lanes, max_size=lanes)), dtype=np.float64).reshape(lanes, rows)
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(util, "CHUNK", chunk)
        got, mass = exact_dot(np.arange(rows), None if digits is None else lambda i: d[:, i], lambda i: g[:, i], scale)
    S = [sum(Fraction(int(d[k, r]) << (util.DIGIT * k)) for k in range(len(d))) / 2**scale for r in range(rows)]
    want = [sum((S[r] * Fraction(g[lane, r]) for r in range(rows)), Fraction(0)) for lane in range(lanes)]
    assert [v.hex() for v in got] == [float(w).hex() for w in want]
    assert mass.hex() == float(sum(S, Fraction(0))).hex()


def test_exact_dot_none_without_fixed_point(monkeypatch):
    """Digit weights: None when any chunk, not only the first, has no
    fixed-point form."""
    parts = np.array([[1.0, 2.0, INF], [0.5, 0.25, 0.0]])
    ones = lambda i: util.digits(np.ones(len(i), dtype=np.int64))  # noqa: E731
    assert exact_dot(np.arange(3), ones, lambda i: parts[:, i]) is None
    monkeypatch.setattr(util, "CHUNK", 2)
    assert exact_dot(np.arange(3), ones, lambda i: parts[:, i]) is None
    assert exact_dot(np.arange(2), ones, lambda i: parts[:, i]) == ([3.0, 0.75], 2.0)


@pytest.mark.parametrize("chunk", [2, 1000])
def test_exact_dot_weight_one_falls_back_to_fsum(chunk, monkeypatch):
    """Weight 1: a chunk without fixed-point form, the first or a later one,
    gives math.fsum of each lane over every row, with fsum's inf, NaN and
    OverflowError; the mass is still the row count."""
    monkeypatch.setattr(util, "CHUNK", chunk)
    parts = np.array([[0.1, 0.2, INF], [0.1, 0.2, 0.3], [1.0, 2.0, math.nan]])
    got, mass = exact_dot(np.arange(3), None, lambda i: parts[:, i])
    assert got[0] == INF and same(got[1], math.fsum([0.1, 0.2, 0.3])) and math.isnan(got[2])
    assert mass == 3.0
    # exponents too wide for one scaling: fsum, and the same bits
    wide = np.array([[MAX, TINY, -MAX, 1.0]])
    assert util.fixed_point(wide) is None
    assert exact_dot(range(4), None, lambda i: wide[:, i.start : i.stop]) == ([math.fsum(wide[0].tolist())], 4.0)
    with pytest.raises(OverflowError):
        exact_dot(np.arange(3), None, lambda i: np.array([[MAX, MAX, 0.0], [0.0, 0.0, math.nan]])[:, i])
    with pytest.raises(ValueError, match="inf"):
        exact_dot(np.arange(3), None, lambda i: np.array([[INF, 1.0, -INF]])[:, i])


@given(st.lists(st.one_of(st.integers(-(2**63), 2**63 - 1), st.integers(-(2**90), 2**90)), max_size=8))
def test_digits_rebuild_the_integers(ws):
    """digits(w) rows rebuild w exactly, for int64 arrays and for Python
    ints past int64; every row in [0, 2**DIGIT) but the signed top one,
    which is at most 2**DIGIT in magnitude; as many rows as the largest
    |w| needs, at least one."""
    arrays = [ws] + ([np.array(ws, dtype=np.int64)] if all(-(2**63) <= w < 2**63 for w in ws) else [])
    for w in arrays:
        d = util.digits(w)
        rows = max(1, -(-max(map(abs, ws), default=0).bit_length() // util.DIGIT))
        assert d.dtype == np.int64 and d.shape == (rows, len(ws))
        assert (d[:-1] >= 0).all() and (d[:-1] < 2**util.DIGIT).all() and (abs(d[-1]) <= 2**util.DIGIT).all()
        assert [sum(int(d[k, j]) << (util.DIGIT * k) for k in range(len(d))) for j in range(len(ws))] == ws


def _identifiers(tree: ast.AST) -> set[str]:
    """Every name a module binds or reads: names, attributes, imports,
    definitions and arguments."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out |= {node.name, node.asname}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.arg):
            out.add(node.arg)
    return out


def _fsum_calls(tree: ast.AST) -> int:
    return sum(isinstance(n, ast.Attribute) and n.attr == "fsum" and isinstance(n.value, ast.Name)
               and n.value.id == "math" for n in ast.walk(tree))


def test_one_exact_reduction_is_a_checked_rule():
    """Across src/charsum, math.fsum and fixed_point are referenced in
    util.py only, math.fsum there only inside exact_dot, and no module
    names weight_one: every exactly rounded sum goes through exact_dot."""
    paths = sorted(Path(util.__file__).parent.glob("*.py"))
    assert len(paths) > 1
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        names = _identifiers(tree)
        assert "weight_one" not in names, path.name
        if path.name != "util.py":
            assert "fixed_point" not in names and "fsum" not in names, path.name
            continue
        inside = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "exact_dot"]
        assert _fsum_calls(tree) == _fsum_calls(inside[0]) >= 1


def test_no_module_imports_a_private_name_of_another():
    """No module under src/charsum imports an underscore name from another
    charsum module, relatively or by the package name: what one module
    reads of another is its public interface."""
    found = []
    for path in sorted(Path(util.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("charsum")):
                found += [(path.name, alias.name) for alias in node.names if alias.name.startswith("_")]
    assert found == []


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
# SplitMix64.distinct and .unit


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


def test_unit_draws_like_the_rejection_loop():
    """unit(n, m) is the hand-written loop it replaced, draw for draw: the
    value, and the stream left for the draws after it."""
    for seed in range(50):
        for n, m in ((1000, 1000), (999, 1000), (1000, 30), (7, 1)):
            ref = SplitMix64(seed)
            v = 1 + ref.below(n)
            while math.gcd(v, m) != 1:
                v = 1 + ref.below(n)
            rng = SplitMix64(seed)
            assert rng.unit(n, m) == v and math.gcd(v, m) == 1 and 1 <= v <= n
            assert rng.next_u64() == ref.next_u64()


def test_check_work_refuses_only_above_the_budget():
    budget = util.DEFAULT_WORK_BUDGET
    check_work(budget, "a sweep")
    with pytest.raises(WorkBudgetError) as exc:
        check_work(budget + 1, "a sweep of q_max = 7")
    assert str(exc.value) == f"a sweep of q_max = 7 needs {budget + 1} operations, more than the budget of {budget}"
