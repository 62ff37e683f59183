"""Bound-side tests: RHS formulas against independent high-precision
evaluation, record semantics, and the dual-route check of the whole-group
transform against per-character evaluation."""

import ast
import math
import textwrap
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charsum import bounds, characters, cli, oracles, sums
from charsum.bounds import (
    ASSERT,
    MONITOR,
    big_divisor_tail,
    burgess_check_2r,
    census_records,
    constants_report,
    divisor_moment_report,
    double_sum_report,
    gauss_modulus_record,
    identities_verify,
    lemma8_rhs,
    lemma8_verify,
    make_record,
    orthogonality_record,
    random_census_instances,
    restricted_envelope_rhs,
    short_sum_report,
    smooth_bound_check,
    smooth_report,
    tail_report,
    theorem_report,
    theorem_rhs,
)
from charsum.characters import (
    character_at,
    conductor,
    enumerate_characters,
    unit_group_basis,
    unit_group_transform,
)
from charsum.integers import (
    coprime_count,
    divisor_count_sieve,
    divisors,
    euler_phi,
    factor,
    mobius,
    primes_up_to,
    tau_r,
)
from charsum.reports import render_records
from charsum.sums import burgess_moment_2r, congruence_census, shifted_prime_sum
from charsum.util import PreconditionError, SplitMix64, WorkBudgetError


def test_theorem_rhs_closed_form_and_monotonicity():
    # oracle: high-precision evaluation via mpmath
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    want = float(10**4 * mp.exp(-mp.mpf("0.6") * mp.sqrt(mp.log(10**4))))
    got = theorem_rhs(10**4, 10**4)
    assert got == pytest.approx(want, rel=1e-12)
    assert theorem_rhs(10**4, 2 * 10**4) > got  # increasing in x
    assert theorem_rhs(10**5, 10**4) < got  # decreasing in D


def test_lemma8_rhs_examples():
    inst = congruence_census(30, 2, 1, 1, 0, 1, 10)
    assert inst.rho == 2
    got = lemma8_rhs(inst, 1e-4)
    want = 10 + 100 + 200 + (2 * 10 ** (1 + 1e-4)) / 2
    assert got == pytest.approx(want, rel=1e-14)
    # delta -> 0 limit
    assert lemma8_rhs(inst, 1e-12) == pytest.approx(10 + 2 * 100 * (1 + 2) / 2 + 2 * 10 / 2, rel=1e-9)
    # rho = 0 drops one term
    inst0 = congruence_census(15, 3, 1, 1, 0, 1, 7)
    assert inst0.rho == 0
    assert lemma8_rhs(inst0, 1e-4) == pytest.approx(
        7 + 2 * 49 / 3 + 2 * 7 ** (1 + 1e-4) / 3, rel=1e-14
    )


def test_big_divisor_tail_oracle():
    lhs, rhs = big_divisor_tail(30030, 30030)
    threshold = math.exp(math.sqrt(2 * math.log(30030)))
    direct = sum(
        Fraction(1, d)
        for d in divisors(factor(30030))
        if d > threshold and mobius(factor(d)) != 0
    )
    assert lhs == pytest.approx(float(direct), rel=1e-12)
    assert rhs == pytest.approx(math.exp(-0.7 * math.sqrt(math.log(30030))), rel=1e-12)
    # threshold rises with D, so the tail shrinks
    lhs2, _ = big_divisor_tail(30030, 30030 * 17)
    assert lhs2 <= lhs
    # all divisors below the threshold: empty tail
    assert big_divisor_tail(6, 30030 * 17 * 19)[0] == 0.0


def test_big_divisor_tail_requires_divisibility():
    with pytest.raises(PreconditionError):
        big_divisor_tail(7, 100)


def test_divisor_moment_check_small_values():
    recs = {(r.parameters["x"], r.parameters["r"], r.parameters["k"]): r
            for r in divisor_moment_report(x_grid=(2, 10, 1000)) if "summary" not in r.parameters}
    assert recs[2, 2, 1].lhs == 3  # tau(1) + tau(2)
    assert recs[10, 2, 1].lhs == 27
    assert recs[10, 2, 1].mode == MONITOR
    rec3 = recs[1000, 3, 1]
    assert rec3.lhs == sum(tau_r(n, 3) for n in range(1, 1001))
    assert math.isfinite(rec3.ratio) and rec3.ratio > 0


def test_divisor_moment_report_fitted_constant(monkeypatch):
    monkeypatch.setattr(bounds, "MOMENT_R", (2,))
    monkeypatch.setattr(bounds, "MOMENT_K", (1,))
    recs = divisor_moment_report(x_grid=(100, 1000))
    summary = recs[-1]
    assert summary.verdict == "observed-max"
    assert summary.lhs == pytest.approx(max(r.ratio for r in recs[:-1]), rel=1e-12)


def test_divisor_moment_report_refuses_int64_overflow(monkeypatch):
    """The tau^k prefix sums are taken in int64, so x_max * max tau^k >=
    2^63 is refused, naming x_max, before that power is taken."""
    tau = np.full(101, 2**29, dtype=np.int64)
    tau[0] = 0
    monkeypatch.setattr(bounds, "tau_r_sieve", lambda x, r: tau)
    with pytest.raises(PreconditionError, match="'x_max'"):
        divisor_moment_report(x_grid=(100,))  # k = 1 fits, k = 2 needs 2^58 * 100


def test_smooth_bound_check_window_and_monotonicity():
    rec = smooth_bound_check(10**4, 10, 1)
    assert rec.mode == MONITOR and math.isfinite(rec.ratio)
    with pytest.raises(PreconditionError):
        smooth_bound_check(10**4, 5, 1)  # z < ln x
    with pytest.raises(PreconditionError):
        smooth_bound_check(10**4, 100, 1)  # z > x^(1/e)
    lo = smooth_bound_check(10**4, 10, 1).lhs
    hi = smooth_bound_check(10**4, 25, 1).lhs
    assert hi >= lo


def test_smooth_report_grid_is_admissible():
    recs = smooth_report()
    assert len(recs) >= 12
    assert all(math.isfinite(r.ratio) and r.rhs > 0 for r in recs)


def test_burgess_check_matches_per_character_moment():
    """The transform only searches: lhs is the largest burgess_moment_2r over
    the primitive characters, bit for bit, at every modulus 3 <= q <= 64 with
    primitive characters (primes, powers of 2 and of odd primes, composites
    such as 12 and 45), windows from 1 to past q, and r = 1, 2, 3."""
    cases = 0
    for q in range(3, 65):
        basis = unit_group_basis(q)
        prim = [chi for chi in enumerate_characters(basis) if conductor(chi).value == q]
        for Z in sorted({1, 2, 5, q - 1, q, q + 3}):
            for r in (1, 2, 3) if mobius(factor(q)) != 0 else (2,):
                if not prim:
                    with pytest.raises(PreconditionError, match="no primitive characters"):
                        burgess_check_2r(q, Z, r)
                    continue
                rec = burgess_check_2r(q, Z, r)
                assert rec.lhs == max(burgess_moment_2r(chi, Z, r) for chi in prim), (q, Z, r)
                cases += 1
    assert cases > 300
    assert burgess_check_2r(13, 1, 2).lhs == 12.0  # phi(q) at Z = 1


def test_burgess_report_builds_no_character_table(monkeypatch):
    monkeypatch.setattr(bounds, "phase_index",
                        lambda *a: pytest.fail("burgess_report built the phases of every character"))
    records = bounds.burgess_report(q_max=50)
    assert len(records) == 15 and all(math.isfinite(rec.ratio) for rec in records)


def test_burgess_check_memory_stays_below_the_tables():
    """One batch of the transform at a time: the tables of every character
    mod 2003 alone would take 64 MB."""
    basis = unit_group_basis(2003)
    basis.conductor_grid()
    tracemalloc.start()
    try:
        burgess_check_2r(2003, 20, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_burgess_check_hypothesis_guard():
    with pytest.raises(PreconditionError):
        burgess_check_2r(12, 2, 3)  # 12 not squarefree and r != 2
    rec = burgess_check_2r(12, 2, 2)  # r = 2 allowed
    assert math.isfinite(rec.ratio)


def test_census_records_assert_and_monitor():
    inst = congruence_census(101, 1, 3, 5, 7, 5, 9)
    NY = inst.N * inst.Y
    recs = census_records(inst, 1e-4, int(bounds._tau_prefix_max(NY - 1)[NY - 1]))
    assert recs[0].mode == ASSERT and recs[0].verdict == "pass"
    assert recs[1].mode == MONITOR
    assert recs[1].lhs == inst.K


def test_lemma8_verify_seeded_all_pass():
    records = lemma8_verify(random_count=40, seed=11, q_max=2000)
    asserts = [r for r in records if r.mode == ASSERT]
    assert len(asserts) == 40
    assert all(r.verdict == "pass" for r in asserts)


def render_untimed(records, *args):
    """The report bytes of ``records`` as the CLI writes them without
    --timings: every runtime_ms cleared."""
    return render_records([replace(r, runtime_ms=None) for r in records], *args)


def test_lemma8_batch_renders_like_single_instances():
    instances = random_census_instances(30, 23, q_max=3000)
    batch = lemma8_verify(instances)
    single = [rec for inst in instances for rec in lemma8_verify([inst])]
    assert render_untimed(batch) == render_untimed(single)
    for (q, d, eta, k, M, N, Y), rec in zip(instances, batch[::2]):
        assert rec.parameters["tau_max"] == int(divisor_count_sieve(N * Y - 1).max())


def test_lemma8_rejects_bad_instance_before_any_tau_sieve(monkeypatch):
    calls = []

    def recording_sieve(n):
        calls.append(n)
        return divisor_count_sieve(n)

    monkeypatch.setattr(bounds, "divisor_count_sieve", recording_sieve)
    big = (200003, 1, 3, 5, 0, 300, 150)  # valid; its tau sieve runs to NY - 1
    bad = (101, 2, 3, 5, 7, 5, 9)  # 2 does not divide 101
    with pytest.raises(PreconditionError) as exc:
        lemma8_verify([big, bad])
    assert exc.value.name == "d|q"
    assert calls == []
    lemma8_verify([big])
    assert calls == [300 * 150 - 1]


def test_lemma8_checks_the_batch_work_before_any_census(monkeypatch):
    """N*Y_q = 2e9 pairs at q = 10000000019, Y = 10^7: the batch estimate
    counts its y without listing them and refuses before the first census."""
    calls = []
    monkeypatch.setattr(bounds, "congruence_census", lambda *a: calls.append(a))
    small, huge = (101, 1, 3, 5, 7, 5, 9), (10000000019, 1, 1, 1, 0, 200, 10**7)
    factor(huge[0])  # the small-prime table is built once per process
    tracemalloc.start()
    try:
        with pytest.raises(WorkBudgetError, match="verify lemma8 over 2 instances"):
            lemma8_verify([small, huge])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == []
    assert peak < 2**20


def test_lemma8_counts_each_instance_once(monkeypatch):
    """lemma8_verify counts Y_q once per instance, for its batch estimate,
    and hands it to the census, which does not count it again."""
    calls = []

    def counting(n, f):
        calls.append((n, f))
        return coprime_count(n, f)

    def results():
        return [(r.parameters, r.lhs, r.rhs, r.verdict) for r in lemma8_verify(instances)]

    instances = random_census_instances(20, 3)
    want = results()
    monkeypatch.setattr(bounds, "coprime_count", counting)
    monkeypatch.setattr(sums, "coprime_count", lambda *a: pytest.fail("the census counted Y_q again"))
    assert results() == want
    assert calls == [(Y, q) for q, *_, Y in instances]


def test_random_census_instances_satisfy_preconditions():
    for (q, d, eta, k, M, N, Y) in random_census_instances(60, 3):
        assert q % d == 0 and math.gcd(eta, q) == 1 and math.gcd(k, d) == 1
        assert 2 * N * Y < q and d < Y and M >= 0 and N >= 1


def test_theorem_report_record_shape():
    recs = theorem_report([105], epsilon=0.05, seed=0)
    assert len(recs) == 1
    rec = recs[0]
    assert rec.mode == MONITOR and math.isfinite(rec.ratio) and rec.rhs > 0
    assert rec.parameters["x"] == math.ceil(105 ** (5 / 6 + 0.05))
    assert rec.parameters["lhs_unfiltered"] >= rec.lhs


def _theorem_maxima(D, x, ls):
    """Brute force: (|T|, chi_index, l) maxima over every non-principal
    character, and over those past the conductor filter, each with the
    smallest (chi_index, l) among its ties."""
    threshold = math.exp(math.sqrt(2.0 * math.log(D)))
    every, past = [], []
    for i, chi in enumerate(enumerate_characters(unit_group_basis(D))):
        if chi.is_principal:
            continue
        for l in ls:
            entry = (abs(shifted_prime_sum(chi, l, x).value), i, l)
            every.append(entry)
            if conductor(chi).value > threshold:
                past.append(entry)
    return [min(entries, key=lambda e: (-e[0], e[1], e[2])) for entries in (past, every)]


def _report_shifts(D, seed):
    """The shifts theorem_report takes at D: every coprime l when phi <= 64,
    else 64 seeded ones."""
    if euler_phi(factor(D)) <= 64:
        return [l for l in range(1, D) if math.gcd(l, D) == 1]
    rng = SplitMix64(SplitMix64(seed ^ D).next_u64())
    return rng.distinct(1, D - 1, 64, accept=lambda v: math.gcd(v, D) == 1)


def test_theorem_report_matches_per_character_maximum():
    # dual-route check: certified group transform vs direct per-character evaluation
    D = 45
    recs = theorem_report([D], epsilon=0.05, seed=0)
    rec = recs[0]
    past, every = _theorem_maxima(D, rec.parameters["x"], _report_shifts(D, 0))
    assert (rec.lhs, rec.parameters["chi_index"], rec.parameters["l"]) == past
    assert rec.parameters["lhs_unfiltered"] == every[0]


@pytest.mark.parametrize("D", [85, 99])
def test_theorem_report_takes_the_smaller_index_of_a_conjugate_pair(D):
    """The transform holds one character of each conjugate pair; at these
    moduli the maximiser's partner has the smaller index, which the report
    must name, as the brute force over every character does.  They are the
    only odd D < 400 with phi <= 64 where this happens (an even D takes no
    transform)."""
    rec = theorem_report([D], epsilon=0.05, seed=0)[0]
    past, every = _theorem_maxima(D, rec.parameters["x"], _report_shifts(D, 0))
    assert (rec.lhs, rec.parameters["chi_index"], rec.parameters["l"]) == past
    assert rec.parameters["lhs_unfiltered"] == every[0]


def test_theorem_report_certifies_sampled_shifts():
    """phi > 64: the report samples 64 shifts.  Its lhs is the exact
    maximum over every character at those shifts, and |shifted_prime_sum|
    at the reported (chi_index, l), bit for bit."""
    D = 91
    rec = theorem_report([D], epsilon=0.05, seed=3)[0]
    p = rec.parameters
    assert p["n_characters"] + 1 > 64 and p["l_count"] == 64
    past, every = _theorem_maxima(D, p["x"], _report_shifts(D, 3))
    assert (rec.lhs, p["chi_index"], p["l"]) == past
    assert p["lhs_unfiltered"] == every[0]
    # at 945 = 3^3 5 7 the conductor filter excludes the unfiltered maximiser
    for D in (945, 10007):
        rec = theorem_report([D], epsilon=0.05, seed=1)[0]
        p = rec.parameters
        chi = character_at(unit_group_basis(D), p["chi_index"])
        assert rec.lhs == abs(shifted_prime_sum(chi, p["l"], p["x"]).value)
        assert conductor(chi).value > p["conductor_threshold"]


def _search_by_class_copies(values, classes, gap):
    """The search of one batch as it was first written: per class, a copy
    of the class's columns and a 2-D nonzero over the copy; (value, row,
    half index) of every entry within gap of the copy's top."""
    out = []
    for mask in classes:
        cols = np.flatnonzero(mask)
        sub = values[:, cols]
        r, c = np.nonzero(sub >= sub.max() - gap)
        out.append((sub[r, c], r, cols[c]))
    return out


def _pair_index(basis, column):
    """The smaller enumeration index of the character at a half-lattice
    column and of its conjugate, one column at a time."""
    orders = basis.orders
    e = np.unravel_index(column, orders[:-1] + (orders[-1] // 2 + 1,))
    conj = [(-int(a)) % m for a, m in zip(e, orders)]
    return min(int(np.ravel_multi_index(e, orders)), int(np.ravel_multi_index(conj, orders)))


def _recording(basis, exact):
    """An evaluator of exact[chi_index, label] that records every call."""
    calls = []

    def evaluate(chi, label):
        calls.append((int(np.ravel_multi_index(chi.exponents, basis.orders)), label))
        return exact[calls[-1]]

    return evaluate, calls


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 5, 7, 8, 12, 15, 16, 21, 45, 63, 101, 105]), st.integers(1, 12),
       st.integers(0, 2**32 - 1), st.integers(0, 30), st.sets(st.integers(1, 11)))
@example(3, 1, 0, 0, set())  # one character besides the principal one
@example(105, 12, 7, 30, {3, 4, 9})
def test_certified_max_equals_class_copies(D, rows, seed, ties, cuts):
    """_certified_max evaluates exactly the (chi_index, label) pairs of the
    hits of copying each class out of the batch, each pair once, and
    returns each class's largest exact value at the smallest (chi_index,
    label): planted values at the top, on the 2 bound floor (included) and
    one ulp below it (excluded), inside and outside the classes.  Exact
    values take four levels, so ties are common, and the labels fall as
    the rows rise, so a tie goes to the later row.  Cut into batches
    anywhere, the same rows give the same result and evaluate the same
    pairs."""
    basis = unit_group_basis(D)
    rng = np.random.default_rng(seed)
    half = basis.orders[-1] // 2 + 1
    cols = math.prod(basis.orders[:-1]) * half
    values = rng.random((rows, cols))
    wide = np.arange(cols) > 0  # every character but the principal one
    narrow = wide & (rng.random(cols) < 0.6)
    narrow[rng.choice(np.flatnonzero(wide))] = True
    classes = (wide, narrow)
    gap = 1e-3
    top = values.max()
    floor = top - gap
    for value in rng.choice([top, floor, np.nextafter(floor, -np.inf), top + gap / 2], ties):
        values[rng.integers(rows), rng.integers(cols)] = value
    labels = [100 - 3 * b for b in range(rows)]
    exact = {(i, label): float(rng.integers(4)) for i in range(basis.phi) for label in labels}
    # a planted tie above every other exact value, in the first and the last
    # row: the smaller label, the last row's, must win
    tie = rng.choice(np.flatnonzero(narrow))
    values[[0, -1], tie] = top
    exact[_pair_index(basis, tie), labels[0]] = exact[_pair_index(basis, tie), labels[-1]] = 4.0

    want, pairs = [], set()
    for _, r, c in _search_by_class_copies(values, classes, gap):
        keys = {(_pair_index(basis, col), labels[row]) for row, col in zip(r.tolist(), c.tolist())}
        pairs |= keys
        k = min(keys, key=lambda k: (-exact[k], k))
        want.append((exact[k], *k))
    assert [w[1:] for w in want] == [(_pair_index(basis, tie), labels[-1])] * 2
    cut_at = [0, *sorted(b for b in cuts if b < rows), rows]
    for batches in ([(0, values.copy())],
                    [(a, values[a:b].copy()) for a, b in zip(cut_at, cut_at[1:])]):
        evaluate, calls = _recording(basis, exact)
        assert bounds._certified_max(basis, batches, classes, gap, evaluate, labels) == want
        assert sorted(calls) == sorted(pairs)


def _engine_rule_breaks(source):
    """The callers, by innermost function, of unit_group_transform, and
    what in ``source`` breaks the one-engine rule: only _certified_max calls
    _chi_index, and every caller of unit_group_transform calls
    _certified_max."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    called = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            while node in parents and not isinstance(node, ast.FunctionDef):
                node = parents[node]
            called.setdefault(getattr(node, "name", None), set()).add(name)
    transforms = sorted(fn for fn, names in called.items() if "unit_group_transform" in names)
    breaks = [f"{fn} calls _chi_index" for fn, names in called.items()
              if "_chi_index" in names and fn != "_certified_max"]
    breaks += [f"{fn} transforms outside the engine" for fn in transforms
               if "_certified_max" not in called[fn]]
    return transforms, sorted(breaks)


def test_one_search_engine_is_a_checked_rule():
    """In bounds.py every transform search goes through _certified_max:
    report theorem (its per-modulus ``one``) and report burgess call it,
    and a second, hand-made search added to the module breaks the rule."""
    source = Path(bounds.__file__).read_text()
    assert _engine_rule_breaks(source) == (["burgess_check_2r", "one"], [])
    hand_made = source + textwrap.dedent("""
        def another_search(basis, residues, weights):
            for a, values in unit_group_transform(basis, residues, weights):
                top = np.flatnonzero(values.reshape(-1) >= values.max())
            return _chi_index(top, basis.orders)
        """)
    assert _engine_rule_breaks(hand_made)[1] == ["another_search calls _chi_index",
                                                 "another_search transforms outside the engine"]


def _clock_readers(source):
    """The innermost function (None at module level) of every use of the
    time module in ``source``: an attribute of ``time``, or a name imported
    from it."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "time" for alias in node.names}
    readers = []
    for node in ast.walk(tree):
        if ((isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "time")
                or (isinstance(node, ast.Name) and node.id in imported)):
            while node in parents and not isinstance(node, ast.FunctionDef):
                node = parents[node]
            readers.append(getattr(node, "name", None))
    return readers


def test_one_clock_is_a_checked_rule():
    """Across src/charsum, only bounds._timed reads a clock: every runtime
    is one _timed call around one check.  A hand timer added back to
    bounds.py, by ``time.`` or by a name imported from time, breaks the
    rule."""
    readers = [(path.name, fn) for path in sorted(Path(bounds.__file__).parent.glob("*.py"))
               for fn in _clock_readers(path.read_text())]
    assert readers == [("bounds.py", "_timed")] * 2
    hand_timed = Path(bounds.__file__).read_text() + textwrap.dedent("""
        from time import monotonic_ns

        def hand_timed(q):
            t0 = time.perf_counter_ns()
            record = burgess_check_2r(q, 5, 2)
            record.runtime_ms = (monotonic_ns() - t0) // 1_000_000
            return record
        """)
    assert _clock_readers(hand_timed).count("hand_timed") == 2


def test_theorem_report_builds_no_value_table(monkeypatch):
    """At x = D^(5/6 + 0.05) < D the certified candidates take the
    prime-power rows of the Lambda kernel, which evaluate each character at
    n - l only: no value table of D entries is built, neither through
    value_table nor by the phase kernel at every residue."""
    kernel = characters._character_values

    def no_table(*args):
        raise AssertionError("a character value table was built")

    def points_only(basis, exponents, residues=None):
        return no_table() if residues is None else kernel(basis, exponents, residues)

    monkeypatch.setattr(characters.DirichletCharacter, "value_table", no_table)
    monkeypatch.setattr(characters, "_character_values", points_only)
    assert len(theorem_report([945, 10007], seed=1)) == 2


def test_theorem_report_keeps_no_basis():
    """report theorem builds each modulus's basis itself and drops it with
    the record: the basis cache does not grow, and once numpy.fft is
    imported (by a first report) and the Lambda arrays are cached, what
    tracemalloc still holds after the report at D = 99991 stays under 64
    KiB (the flat index alone takes 400 KB)."""
    D = 99991
    theorem_report([1009])
    sums._mangoldt_arrays(math.ceil(D ** (5 / 6 + 0.05)))
    characters._cached_basis.cache_clear()
    tracemalloc.start()
    try:
        theorem_report([D])
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert characters._cached_basis.cache_info().currsize == 0
    assert held < 64 * 2**10


def test_theorem_report_bytes_do_not_depend_on_batch(monkeypatch):
    """report theorem and report burgess give the same bytes whether each
    transform batch holds one row or every row."""
    moduli = [10007, 945, 2187]
    header = {"command": "report theorem"}
    base = render_untimed(theorem_report(moduli, seed=1), "jsonl", header)
    burgess = render_untimed(bounds.burgess_report(q_max=60), "jsonl", {"command": "report burgess"})
    for batch in (1, 64 * 10006):  # one shift (or window start) per transform, all at once
        monkeypatch.setattr(characters, "TRANSFORM_BATCH", batch)
        assert render_untimed(theorem_report(moduli, seed=1), "jsonl", header) == base
        assert render_untimed(bounds.burgess_report(q_max=60), "jsonl", {"command": "report burgess"}) == burgess


def test_theorem_report_tolerates_fft_error_within_its_bound(monkeypatch):
    """Perturbing every FFT value by up to half the documented bound, far
    more than the transform's own rounding, leaves the report bytes as
    they are: the exact re-evaluation of every near-maximal candidate
    decides the result, ties included."""
    moduli = [91, 10007, 945]
    header = {"command": "report theorem"}
    base = render_untimed(theorem_report(moduli, seed=1), "jsonl", header)
    transform = bounds.unit_group_transform
    rng = np.random.default_rng(5)

    def perturbed(basis, residues, weights):
        D, phi = basis.modulus.value, basis.phi
        x = math.ceil(D ** (5 / 6 + 0.05))
        bound = bounds._fft_error(phi, x // D, weights.sum())
        for a, values in transform(basis, residues, weights):
            yield a, values + rng.uniform(-bound / 2, bound / 2, values.shape)

    monkeypatch.setattr(bounds, "unit_group_transform", perturbed)
    assert render_untimed(theorem_report(moduli, seed=1), "jsonl", header) == base


def test_theorem_report_bytes_do_not_depend_on_the_lattice_layout(monkeypatch):
    """557 (phi = 4 * 139), 787 (phi = 6 * 131) and 49999 (phi = 78 * 641)
    run on a split lattice; forcing every factor back to one axis leaves
    the report bytes as they are."""
    moduli = [557, 787, 49999]
    header = {"command": "report theorem"}
    characters._cached_basis.cache_clear()
    try:
        assert all(unit_group_basis(D).transform_plan().gather is not None for D in moduli)
        base = render_untimed(theorem_report(moduli, seed=1), "jsonl", header)
        monkeypatch.setattr(characters, "SPLIT_MIN_PRIME", 2**62)
        characters._cached_basis.cache_clear()
        assert all(unit_group_basis(D).transform_plan().gather is None for D in moduli)
        assert render_untimed(theorem_report(moduli, seed=1), "jsonl", header) == base
    finally:
        # no basis planned under the patched threshold outlives the test
        characters._cached_basis.cache_clear()


@pytest.mark.parametrize("D", [557, 1283, 2520])
def test_fft_error_bound_holds_with_margin(D):
    """|FFT value - exact value| over every character at four shifts stays
    below 1/64 of theorem_report's bound, i.e. below log2(phi) u M.
    phi(557) = 4 * 139 is laid out as the lattice (139, 4), as phi(100489)
    = 4 * 79 * 317 is as (317, 316); phi(1283) = 2 * 641 stays one axis,
    through pocketfft's Bluestein path."""
    x = math.ceil(D ** (5 / 6 + 0.05))
    basis = unit_group_basis(D)
    n, m = sums._mangoldt_arrays(x)
    lam = np.ldexp(m, -53)
    bound = bounds.FFT_ERROR_C * (math.log2(basis.phi) + x // D) * 2.0**-53 * lam.sum()
    ls = [l for l in range(2, D) if math.gcd(l, D) == 1][:4]
    values = np.concatenate([v.copy() for _, v in unit_group_transform(basis, n[None, :] - np.array(ls)[:, None], lam)])
    half = values.shape[1:]
    worst = 0.0
    for chi in enumerate_characters(basis):
        e = chi.exponents
        if e[-1] >= half[-1]:
            continue
        for row, l in zip(values, ls):
            worst = max(worst, abs(row[e] - abs(shifted_prime_sum(chi, l, x).value)))
    assert 0 < worst <= bound / 64


@settings(max_examples=8, deadline=None)
@given(st.one_of(st.integers(2, 150).map(lambda m: 2 * m),
                 st.sampled_from([2**k for k in range(2, 9)]),
                 st.sampled_from([2 * p**k for p in (3, 5, 7, 11, 13) for k in (1, 2, 3, 4) if 2 * p**k <= 300]),
                 st.integers(0, 37).map(lambda m: 4 * (2 * m + 1))),
       st.integers(0, 3))
@example(210, 0)
@example(256, 1)
@example(186, 0)  # three unit terms on one rounded root: |T| is an ulp above 3 log 2
def test_theorem_report_even_modulus_is_the_2k_support_bound(D, seed):
    """For an even D every shift l is odd, so only n = 2^k can add to T.
    The record's lhs is the largest, over the report's shifts, sum of
    Lambda(n) over n <= x with gcd(n - l, D) = 1, exactly, and so the
    exact abs_term_sum of every (chi, l); it bounds the brute-force |T| of
    every non-principal chi up to the rounding of T itself (the rounded
    roots of unity, whose modulus may pass 1, the two exactly rounded
    parts and their hypot: 4 u)."""
    recs = theorem_report([D], epsilon=0.05, seed=seed)
    if not recs:  # the conductor filter leaves no character, as at D = 4
        return
    rec = recs[0]
    p = rec.parameters
    x, ls = p["x"], _report_shifts(D, seed)
    assert p["l_count"] == len(ls) and p["chi_index"] is None
    assert p["lhs_unfiltered"] == rec.lhs == p["support_k"] * math.log(2)
    support = [math.fsum(oracles.mangoldt_value(n) for n in range(2, x + 1) if math.gcd(n - l, D) == 1) for l in ls]
    assert rec.lhs == max(support)
    assert p["l"] == min(l for l, v in zip(ls, support) if v == rec.lhs)
    worst, widest = 0.0, 0.0
    for chi in enumerate_characters(unit_group_basis(D)):
        if chi.is_principal:
            continue
        for l in ls:
            r = shifted_prime_sum(chi, l, x)
            worst, widest = max(worst, abs(r.value)), max(widest, r.abs_term_sum)
    assert widest == rec.lhs
    assert worst <= rec.lhs * (1 + 4 * 2.0**-53)


def test_theorem_report_skips_when_no_conductor_passes():
    # D = 4: only character has conductor 4 < exp(sqrt(2 ln 4)) ~ 5.3
    recs = theorem_report([4], epsilon=0.05, seed=0)
    assert recs == []


def test_identities_verify_small_all_pass():
    clean = identities_verify(
        max_D=20, gauss_max_q=20, hb_cases=2, coprime_max=20,
        recombination_cases=2, seed=1,
    )
    assert all(r.verdict == "pass" for r in clean if r.mode == ASSERT)


def test_character_table_records_pin_their_lhs():
    """The wrong phase counts over D <= 500, exactly none, and the worst
    Gauss modulus defect over q <= 200, as this code writes it: every phase
    and every primitive value the two checks read enters these numbers."""
    records = [orthogonality_record(), gauss_modulus_record()]
    assert [(r.lemma_tag, r.lhs, r.verdict) for r in records] == [
        ("ORTHOGONALITY", 0.0, "pass"),
        ("GAUSS_MODULUS", 1.3253646884644356e-15, "pass"),
    ]
    assert records[0].parameters == {"max_D": 500, "worst_D": 1}


def test_table_checks_build_each_basis_once():
    """orthogonality_record sweeps D downward, so the bases of q <= 200 are
    still cached when gauss_modulus_record reads them: 500 bases built for
    the two checks at their defaults, not 700."""
    characters._cached_basis.cache_clear()
    orthogonality_record()
    gauss_modulus_record()
    info = characters._cached_basis.cache_info()
    assert (info.misses, info.hits) == (500, 200)


def test_a_moved_phase_fails_orthogonality_and_exits_1(tmp_path, monkeypatch):
    """A kernel that moves one phase by 1 (as bounds reads it) empties one
    count and fills another: at D = 45 the record fails with 2 wrong counts
    at worst_D 45 and verify identities exits 1, and at D = 499 a residue
    past the first block of counts shows the same 2."""
    kernel = characters.phase_index
    moves = {45: (1, 2), 499: (5, 400)}  # D: (character, residue)

    def moved(basis, *args):
        index = kernel(basis, *args)
        if basis.modulus.value in moves:
            index[moves[basis.modulus.value]] += 1
        return index

    monkeypatch.setattr(bounds, "phase_index", moved)
    rec = orthogonality_record(50)
    assert (rec.lhs, rec.verdict, rec.parameters["worst_D"]) == (2.0, "fail", 45)
    assert cli.main(["verify", "identities", "--max-D", "50", "--output", str(tmp_path / "r.jsonl")]) == 1
    assert bounds.COUNT_SLOTS // 499 < 400
    assert bounds._phase_count_errors(unit_group_basis(499)) == 2


@settings(max_examples=25, deadline=None)
@given(st.one_of(
    st.sampled_from([2**k for k in range(9, 12)]),
    st.integers(126, 999).map(lambda n: 2 * (2 * n + 1)),
    st.sampled_from([int(p) for p in primes_up_to(499) if p > 127]).map(lambda p: 4 * p),
    st.sampled_from([3**6, 3**7, 5**4, 7**4, 11**3, 23**2, 31**2, 13**3]),
    st.sampled_from([840, 1320, 1560, 2520, 2184, 4620]),
))
@example(2 * 3 * 5 * 7 * 11 * 4)
def test_phase_counts_are_exact_beyond_500(D):
    """The exact orthogonality check finds no wrong count mod generated D
    past the record's default sweep: powers of 2, twice an odd number, 4 p,
    odd prime powers, and moduli with t >= 4 cyclic factors."""
    assert bounds._phase_count_errors(unit_group_basis(D)) == 0


def test_restricted_envelope_formula():
    q, nu, x = 7, 3, 20000
    tau_q = 2
    want = 10 * x * math.log(x) ** 5 * (
        math.sqrt(1 / (q * nu**2) + q / x)
        + x ** (-1 / 6) / math.sqrt(nu)
        + x ** (-1 / 3) * q ** (1 / 6) * nu ** (-1 / 3)
    ) * tau_q
    assert restricted_envelope_rhs(q, nu, x) == pytest.approx(want, rel=1e-12)


def test_short_and_double_reports_have_finite_ratios():
    for rec in short_sum_report(seed=5) + double_sum_report(seed=5):
        assert rec.mode == MONITOR
        assert math.isfinite(rec.ratio) and rec.rhs > 0


def test_constants_report_defaults_hold_on_desk_grid():
    recs = constants_report(1000)
    omega_rec, phi_rec = recs
    assert omega_rec.lhs <= omega_rec.rhs  # fitted c_omega below configured
    assert (omega_rec.rhs, phi_rec.rhs) == (bounds.C_OMEGA, bounds.C_PHI) == (1.5, 1.0)
    assert phi_rec.lhs <= phi_rec.rhs
    assert omega_rec.parameters["worst_q"] == 210


def test_make_record_ratio_and_verdicts():
    rec = make_record("X", {}, 2.0, 1.0, ASSERT)
    assert rec.verdict == "fail" and rec.ratio == 2.0
    rec2 = make_record("X", {}, 0.5, 1.0, ASSERT)
    assert rec2.verdict == "pass"
    rec3 = make_record("X", {}, 5.0, 1.0, MONITOR)
    assert rec3.verdict == "observed"
    rec4 = make_record("X", {}, 1.0, 0.0, MONITOR)
    assert rec4.ratio == math.inf


def test_tail_report_default_grid():
    recs = tail_report()
    assert len(recs) == 4
    assert all(math.isfinite(r.ratio) for r in recs)
