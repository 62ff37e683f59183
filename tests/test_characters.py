"""Character algebra tests: basis structure, exact evaluation, conductor,
induction, Gauss sums.  Oracles are definition-level loops."""

import ast
import cmath
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charsum import characters, oracles
from charsum.characters import (
    DLOG_TABLE_LIMIT,
    DirichletCharacter,
    UnitGroupBasis,
    _dlog_table_cyclic,
    _least_primitive_root,
    _two_part_factors,
    all_character_tables,
    character_at,
    conductor,
    enumerate_characters,
    gauss_sums,
    induce_primitive,
    roots_of_unity,
    unit_group_basis,
    unit_group_transform,
)
from charsum.integers import divisors, euler_phi, factor, primes_up_to
from charsum.util import PreconditionError, SplitMix64


def chars(D):
    return list(enumerate_characters(unit_group_basis(D)))


def conjugate_exponents(chi):
    """The exponent vector of conj chi: each exponent negated mod its order."""
    return tuple(-a % m for a, m in zip(chi.exponents, chi.basis.orders))


def times(a, b):
    """The phase of a product of character values: phases add mod 1, and a
    non-unit (None) makes the product 0."""
    return None if a is None or b is None else (a + b) % 1


def conductor_oracle(chi):
    """Definition: smallest q | D with chi trivial on units = 1 (mod q)."""
    D = chi.modulus
    for q in divisors(factor(D)):
        if all(
            chi(u) == 0
            for u in range(1, max(D, 1) + 1, q)
            if math.gcd(u, max(D, 1)) == 1
        ):
            return q
    raise AssertionError("no divisor worked")


def test_basis_trivial_modulus():
    b = unit_group_basis(1)
    assert b.orders == ()
    assert b.phi == 1
    assert b.exponents_of(0) == ()  # everything is a unit mod 1


def test_basis_mod_8_structure():
    b = unit_group_basis(8)
    assert b.orders == (2, 2)
    gens = b.generators
    assert gens[0][0] == 7  # -1 mod 8
    assert gens[1][0] == 5


def test_basis_generator_orders():
    for D in (4, 8, 16, 24, 45, 360, 7200, 2 * 3**4 * 25):
        b = unit_group_basis(D)
        assert math.prod(b.orders) == euler_phi(factor(D)) == b.phi
        for (g, m), f in zip(b.generators, b.factors):
            assert pow(g, m, f.pe) == 1
            for q, _ in factor(m).factors:
                assert pow(g, m // q, f.pe) != 1


def test_exponent_vectors_unique_mod_45():
    b = unit_group_basis(45)
    seen = {}
    for u in range(45):
        ev = b.exponents_of(u)
        if math.gcd(u, 45) != 1:
            assert ev is None
        else:
            assert ev is not None
            assert all(0 <= e < m for e, m in zip(ev, b.orders))
            assert ev not in seen, f"duplicate vector for {u} and {seen.get(ev)}"
            seen[ev] = u
    assert len(seen) == 24


def test_enumerate_counts_and_distinctness():
    assert len(chars(1)) == 1
    assert len(chars(5)) == 4
    cs = chars(12)
    assert len(cs) == 4
    assert cs[0].is_principal
    assert sum(1 for c in cs if not c.is_principal) == 3
    tables = [tuple(np.round(c.value_table(), 9)) for c in cs]
    assert len(set(tables)) == 4


def test_character_at_matches_enumeration():
    for D in range(1, 301):
        basis = unit_group_basis(D)
        for index, chi in enumerate(enumerate_characters(basis)):
            assert character_at(basis, index) == chi
        for bad in (-1, basis.phi):
            with pytest.raises(PreconditionError) as exc:
                character_at(basis, bad)
            assert exc.value.name == "chi-index"


def test_character_count_matches_phi_sampled():
    for D in (2, 3, 16, 17, 100, 243, 512, 1023):
        assert len(chars(D)) == euler_phi(factor(D))


def test_eval_examples():
    chi0 = character_at(unit_group_basis(12), 0)
    assert chi0(7) == 0
    assert chi0(6) is None
    # quadratic character mod 5 via Euler criterion oracle
    quad = [c for c in chars(5) if not c.is_principal and 2 * c(2) % 1 == 0]
    assert len(quad) == 1
    chi = quad[0]
    assert chi(2) == Fraction(1, 2)
    assert oracles.character_value(chi(2)) == pytest.approx(-1.0)
    for n in range(1, 5):
        ls = pow(n, (5 - 1) // 2, 5)  # Euler criterion
        assert chi(n) == (0 if ls == 1 else Fraction(1, 2))


def test_eval_zero_exactly_on_shared_factors():
    for D in (12, 45, 40):
        for chi in chars(D):
            for n in range(-5, 2 * D):
                v = chi(n)
                assert (v is None) == (math.gcd(n % D, D) > 1)
                # otherwise a phase k / E in [0, 1)
                assert v is None or (0 <= v < 1 and chi.basis.exponent % v.denominator == 0)


def test_complete_multiplicativity_exact():
    rng = SplitMix64(5)
    for D in (9, 24, 35, 280):
        cs = chars(D)
        for _ in range(40):
            chi = cs[rng.below(len(cs))]
            u = rng.randint(1, 10 * D)
            v = rng.randint(1, 10 * D)
            assert chi(u * v) == times(chi(u), chi(v))


def test_character_value_arithmetic():
    """chi(n) conj chi(n) = 1 on units: the phases add up to 0 mod 1."""
    for D in (7, 24, 45):
        for chi in chars(D):
            bar = DirichletCharacter(chi.basis, conjugate_exponents(chi))
            for n in range(D):
                assert times(chi(n), bar(n)) == (None if math.gcd(n, D) > 1 else 0)


def test_conductor_examples_and_oracle():
    assert conductor(character_at(unit_group_basis(12), 0)).value == 1
    # quadratic character mod 8 viewed mod 24: match values, expect conductor 8
    chi8 = [c for c in chars(8) if c.exponents == (0, 1)][0]
    assert conductor(chi8).value == 8
    lifted = [
        c
        for c in chars(24)
        if all(
            c(u) == chi8(u)
            for u in range(1, 24)
            if math.gcd(u, 24) == 1
        )
    ]
    assert len(lifted) == 1
    assert conductor(lifted[0]).value == 8
    for p in (3, 7, 13):
        for chi in chars(p):
            assert conductor(chi).value == (1 if chi.is_principal else p)


def test_conductor_formula_matches_definition():
    for D in (1, 2, 4, 8, 16, 32, 12, 24, 45, 60, 72, 100, 120, 200):
        for chi in chars(D):
            assert conductor(chi).value == conductor_oracle(chi)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3000))
@example(4096)
@example(8 * 9 * 25 * 7)
def test_conductor_of_one_character_equals_the_grid(D):
    """conductor(chi) reads each cyclic factor at chi's own exponent; it is
    the grid's entry at every character."""
    basis = unit_group_basis(D)
    grid = basis.conductor_grid().reshape(-1)
    assert [conductor(chi).value for chi in enumerate_characters(basis)] == grid.tolist()


def test_conductor_of_one_character_builds_no_grid():
    """At D = 10^7 + 19 the grid would hold phi(D) int64 entries (80 MB);
    one character's conductor stays below 1 MiB."""
    chi = character_at(unit_group_basis(10**7 + 19), 12345)
    tracemalloc.start()
    try:
        value = conductor(chi).value
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == 10**7 + 19 and peak < 1 << 20
    assert chi.basis._conductor_grid is None


def test_induce_primitive_fixed_point_and_agreement():
    chi8 = [c for c in chars(8) if c.exponents == (0, 1)][0]
    assert induce_primitive(chi8) is chi8
    lifted = [
        c
        for c in chars(24)
        if not c.is_principal
        and all(c(u) == chi8(u) for u in range(1, 24) if math.gcd(u, 24) == 1)
    ][0]
    back = induce_primitive(lifted)
    assert back.modulus == 8
    assert back == chi8
    with pytest.raises(PreconditionError):
        induce_primitive(character_at(unit_group_basis(24), 0))


def test_induce_primitive_value_agreement_sampled():
    """chi and its primitive chi_q agree at 100 sampled units each, over
    every character of four hand-picked moduli and six seeded characters of
    each of 40 seeded D <= 2000."""
    rng = SplitMix64(77)
    bases = [unit_group_basis(rng.randint(3, 2000)) for _ in range(40)]
    cases = [chi for D in (24, 45, 120, 360) for chi in chars(D) if not chi.is_principal]
    cases += [character_at(b, 1 + rng.below(b.phi - 1)) for b in bases if b.phi > 1 for _ in range(6)]
    induced = 0
    for chi in cases:
        D = chi.modulus
        chi_q = induce_primitive(chi)
        assert conductor(chi_q).value == chi_q.modulus
        assert conductor(chi).value == chi_q.modulus
        induced += chi_q.modulus < D
        picked = 0
        while picked < 100:
            n = rng.randint(1, 50 * D)
            if math.gcd(n, D) != 1:
                continue
            picked += 1
            assert chi(n) == chi_q(n)
    assert induced >= 100  # cases where chi lifts from a proper divisor of D


def test_induced_character_has_period_q():
    chi = [c for c in chars(45) if not c.is_principal][3]
    chi_q = induce_primitive(chi)
    q = chi_q.modulus
    for n in range(1, q + 1):
        base = chi_q(n)
        assert chi_q(n + q) == base
        assert chi_q(n + 17 * q) == base


def test_gauss_sum_trivial_and_quadratic():
    assert gauss_sums(unit_group_basis(1)) == [1.0]
    # no primitive character mod 2, nor mod any q = 2 (mod 4)
    for q in (2, 6, 10, 30, 1002):
        assert gauss_sums(unit_group_basis(q)) == []
    # every non-principal character mod 5 is primitive, so tau_i is chi_(i + 1)'s
    [quad] = [i for i, c in enumerate(chars(5)) if not c.is_principal and 2 * c(2) % 1 == 0]
    tau = gauss_sums(unit_group_basis(5))[quad - 1]
    # classical value sqrt(5) for the quadratic character mod 5
    assert tau == pytest.approx(math.sqrt(5.0), abs=1e-12)
    assert abs(tau) ** 2 == pytest.approx(5.0, rel=1e-12)


def test_gauss_sum_modulus_sweep_small():
    """gauss_sums builds only the primitive characters, yet gives the
    primitive rows of the full tables at every q <= 200, 256, 512 and 4p:
    each tau is, part by part, the math.fsum of that row times e(a/q), and
    |tau|^2 = q."""
    for q in [*range(1, 201), 256, 512, 4 * 97, 4 * 251]:
        basis = unit_group_basis(q)
        prim = basis.conductor_grid().reshape(-1) == q
        products = all_character_tables(basis)[prim] * roots_of_unity(np.arange(q), q)
        taus = gauss_sums(basis)
        assert taus == [complex(math.fsum(row.real), math.fsum(row.imag)) for row in products], q
        assert all(abs(abs(tau) ** 2 - q) < 1e-6 * q for tau in taus)


def test_orthogonality_small_sweep():
    for D in (1, 2, 3, 8, 12, 45, 90):
        basis = unit_group_basis(D)
        tables = all_character_tables(basis)
        phi = basis.phi
        sums = tables.sum(axis=0)
        for n in range(D):
            want = phi if n % D == 1 % D else 0.0
            assert abs(sums[n] - want) < 1e-9 * phi


def test_all_character_tables_match_value_table():
    for D in (1, 2, 7, 16, 24, 45, 180):
        basis = unit_group_basis(D)
        stacked = all_character_tables(basis)
        assert stacked.shape == (basis.phi, D)
        for i, chi in enumerate(enumerate_characters(basis)):
            assert stacked[i].tobytes() == chi.value_table().tobytes()


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(1, 5000), st.sampled_from([2**k for k in range(1, 18)]),
                 st.sampled_from([3**9, 5**6, 7**5, 101**2, 180000])),
       st.integers(0, 2**32), st.lists(st.integers(-(2**62), 2**62), min_size=1, max_size=50))
@example(180000, 7, [0, 1, 2, 3, 6, 179999, 180000, -1, 2**62])
@example(12, 1, [-12, -11, 0, 2, 3, 4, 6, 9])  # non-units of every component
def test_values_at_equals_value_table_bits(D, pick, residues):
    """DirichletCharacter.values_at gives, at any int64 residues (negative,
    beyond D, non-units included), the bits of value_table() at those
    residues mod D, and 0 exactly where the scalar path finds a non-unit."""
    basis = unit_group_basis(D)
    chi = character_at(basis, pick % basis.phi)
    u = np.array(residues, dtype=np.int64)
    got = chi.values_at(u)
    assert got.tobytes() == chi.value_table()[u % D].tobytes()
    assert (got == 0).tolist() == [chi(r) is None for r in residues]


@pytest.mark.parametrize("D, shape", [(45, (2, 3)), (45, (0, 4)), (45, ()), (4725, (7, 1, 5)), (2**12, (3, 64))])
def test_values_at_keeps_its_input_shape(D, shape):
    """values_at on an array of any shape, negative entries and non-units
    included, returns values of that shape: the bits of value_table() at
    the residues mod D."""
    basis = unit_group_basis(D)
    rng = np.random.default_rng(D)
    residues = rng.integers(-3 * D, 3 * D, shape)
    for index in (1, basis.phi // 2, basis.phi - 1):
        chi = character_at(basis, index)
        got = chi.values_at(residues)
        assert got.shape == residues.shape
        assert got.tobytes() == chi.value_table()[residues % D].tobytes()


@pytest.mark.parametrize("D", [100003 * 100019 * 100043, 2 * 7**5 * 999983, 4 * 999983 * 999979])
def test_values_at_beyond_table_size_equals_scalar_phases(D):
    """Where no value table can be built, values_at gives roots_of_unity
    at the exact phase k / E of the scalar path, bit for bit, and 0 where
    it finds a non-unit; at D near 1e15 an unreduced sum of the phase
    terms of the last characters would pass 2^63."""
    basis = unit_group_basis(D)
    rng = np.random.default_rng(7)
    nonunits = [p * 7 for p in factor(D).primes] + [D - p for p in factor(D).primes]
    residues = np.array(rng.integers(0, D, 300).tolist() + [0, 1, D - 1] + nonunits, dtype=np.int64)
    for index in (1, basis.phi // 3, basis.phi - 1):
        chi = character_at(basis, index)
        assert chi.values_at(residues).tobytes() == scalar_values(chi, residues).tobytes()


def scalar_values(chi, residues):
    """roots_of_unity at k = chi(r) E, the exact phase of the scalar path,
    for each r of ``residues``, and 0 where that path returns None."""
    E = chi.basis.exponent
    phases = [chi(int(r)) for r in residues]
    want = roots_of_unity(np.array([0 if v is None else int(v * E) for v in phases], dtype=np.int64), E)
    want[[v is None for v in phases]] = 0
    return want


# primes in (46341, 2 10^5): the order m = D - 1 has m^2 >= 2^31, so the
# kernel's e dlog products need int64
LARGE_ORDER_PRIMES = [int(p) for p in primes_up_to(200_000) if p > 46341]


@settings(max_examples=120, deadline=None)
@given(st.one_of(st.integers(1, 400),
                 st.integers(3, 12).map(lambda k: 1 << k),
                 st.integers(0, 250).map(lambda m: 2 * (2 * m + 1)),
                 st.tuples(st.integers(2, 4), st.sampled_from([3, 9]), st.sampled_from([5, 7, 11, 25]))
                 .map(lambda t: (1 << t[0]) * t[1] * t[2]),
                 st.sampled_from(LARGE_ORDER_PRIMES)),
       st.integers(0, 2**32), st.integers(0, 2**32))
@example(99991, 99989 * 50000, 0)
@example(117649, 100841 * 70000, 1)
@example(199999, 199997, 2)
@example(2 * 3 * 5 * 7 * 11, 17, 3)
def test_phase_kernel_equals_the_scalar_phases_bit_for_bit(D, pick, seed):
    """all_character_tables, value_table and values_at all give
    roots_of_unity(chi(n) E, E), with chi(n) from the scalar path, bit for
    bit, and 0 where it finds a non-unit.  The moduli cover t >= 3 cyclic
    factors, the (sign, five) pair of 2^k, D = 2 (mod 4), and primes whose
    order m has m^2 >= 2^31; above D = 1024 the residues are sampled."""
    basis = UnitGroupBasis(factor(D))
    index = pick % basis.phi
    chi = character_at(basis, index)
    if D <= 1024:
        residues = np.arange(D, dtype=np.int64)
    else:
        rng = np.random.default_rng(seed)
        nonunits = [p * int(rng.integers(D // p)) for p in factor(D).primes]
        residues = np.array(rng.integers(0, D, 256).tolist() + [0, 1, D - 1] + nonunits, dtype=np.int64)
    want = scalar_values(chi, residues).tobytes()
    assert chi.values_at(residues).tobytes() == want
    assert chi.value_table()[residues].tobytes() == want
    if basis.phi * D <= 1 << 21:
        assert all_character_tables(basis)[index, residues].tobytes() == want


def test_one_phase_kernel_is_a_checked_rule():
    """Across src/charsum, the phase index is computed in one function,
    phase_index: only the one gather _character_values and the exact
    orthogonality count read it.  roots_of_unity is called only by that
    gather and by gauss_sums, for the additive characters e(a/q), so every
    Dirichlet character value comes from the one kernel; and no module
    but characters.py names a complex table of every value."""
    callers, tables = {"roots_of_unity": [], "phase_index": []}, []
    for path in sorted(Path(characters.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        if {getattr(node, k, None) for node in ast.walk(tree) for k in ("id", "attr", "name")} & {
                "all_character_tables", "value_table"}:
            tables.append(path.name)
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            called = getattr(func, "id", getattr(func, "attr", None))
            if isinstance(node, ast.Call) and called in callers:
                while node in parents and not isinstance(node, ast.FunctionDef):
                    node = parents[node]
                callers[called].append((path.name, getattr(node, "name", None)))
    assert sorted(callers["roots_of_unity"]) == [("characters.py", "_character_values")] * 2 + [
        ("characters.py", "gauss_sums")]
    assert sorted(callers["phase_index"]) == [("bounds.py", "_phase_count_errors"),
                                              ("characters.py", "_character_values")]
    assert tables == ["characters.py"]


def whole_transform(basis, residues, weights):
    """Every row of ``unit_group_transform``, its batches copied out (each
    yielded array is overwritten by the next batch) and concatenated."""
    return np.concatenate([values.copy() for _, values in unit_group_transform(basis, residues, weights)])


def test_unit_group_transform_matches_direct_sums():
    rng = SplitMix64(11)
    for D in (1, 2, 12, 45, 101):
        basis = unit_group_basis(D)
        weights = np.array([[rng.below(1000) / 997.0 for _ in range(D)] for _ in range(2)])
        # row 1 names its residues by representatives in [D, 2D)
        residues = np.arange(D)[None, :] + np.array([[0], [D]])
        spectrum = whole_transform(basis, residues, weights)
        orders = basis.orders or (1,)
        assert spectrum.shape == (2, *orders[:-1], orders[-1] // 2 + 1)
        for i, chi in enumerate(enumerate_characters(basis)):
            # the transform keeps the half of the lattice whose last exponent
            # is at most half its order; the rest are conjugates
            e = chi.exponents or (0,)
            if e[-1] > orders[-1] // 2:
                e = conjugate_exponents(chi)
            for row, w in zip(spectrum, weights):
                direct = sum(
                    oracles.character_value(chi(u)) * w[u]
                    for u in range(D)
                    if math.gcd(u, max(D, 1)) == 1
                )
                assert abs(row[e] - abs(direct)) < 1e-9 * (1 + np.abs(w).sum())


@pytest.mark.parametrize("D", [557, 1671])
def test_split_transform_matches_direct_sums(D):
    """phi(557) = 4 * 139: the factor of order 556 is laid out as the
    lattice (139, 4), on its own (D = 557) and beside an order-2 factor
    (D = 1671 = 3 * 557).  Each value equals |sum of chi(u) w(u)| from the
    value tables, at the character or its conjugate."""
    basis = UnitGroupBasis(factor(D))
    assert basis.transform_plan().shape == basis.orders[:-1] + (139, 4)
    rng = np.random.default_rng(D)
    weights = rng.random((2, D))
    residues = np.broadcast_to(np.arange(D), (2, D))
    spectrum = whole_transform(basis, residues, weights)
    orders = basis.orders
    assert spectrum.shape == (2, *orders[:-1], orders[-1] // 2 + 1)
    direct = np.abs(weights @ all_character_tables(basis).T)
    for i, chi in enumerate(enumerate_characters(basis)):
        e = chi.exponents if chi.exponents[-1] <= orders[-1] // 2 else conjugate_exponents(chi)
        assert np.allclose(spectrum[(slice(None), *e)], direct[:, i], rtol=0, atol=1e-12 * D)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 20000), st.sampled_from([3, 5, 7, 11, 128]), st.sampled_from([2, 4]))
@example(557, 128, 4)
@example(2 * 5 * 7 * 11 * 13, 3, 2)
def test_split_and_one_dimensional_layouts_agree(D, min_prime, min_cofactor):
    """The transform on the lattice the split thresholds give equals the
    one-dimensional layout's, within rounding.  Lowering the thresholds
    splits most cyclic factors of the generated moduli; the 1-D layout is
    forced by a threshold no prime reaches."""
    rng = np.random.default_rng(D)
    residues = rng.integers(0, 3 * D, (3, 200))
    weights = rng.random(200)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(characters, "SPLIT_MIN_PRIME", min_prime)
        mp.setattr(characters, "SPLIT_MIN_COFACTOR", min_cofactor)
        split = whole_transform(UnitGroupBasis(factor(D)), residues, weights)
        mp.setattr(characters, "SPLIT_MIN_PRIME", 2**62)
        flat = UnitGroupBasis(factor(D))
        assert flat.transform_plan().gather is None
    one_axis = whole_transform(flat, residues, weights)
    assert np.allclose(split, one_axis, rtol=0, atol=1e-12 * weights.sum())


def fresh_transform(basis, residues, weights, batch):
    """The transform with fresh arrays per batch of max(1, batch // phi)
    rows: one np.bincount scatter, np.fft.rfftn, np.abs and, on a split
    plan, np.take, each allocating its result."""
    plan, phi = basis.transform_plan(), basis.phi
    orders = basis.orders or (1,)
    rows = max(1, batch // phi)
    parts = []
    for a in range(0, len(residues), rows):
        res = residues[a : a + rows]
        idx = basis.unit_flat_index()[res % basis.modulus.value]
        keep = idx >= 0
        idx = idx + phi * np.arange(len(res), dtype=np.int64)[:, None]
        w = np.broadcast_to(weights[a : a + rows] if weights.ndim == 2 else weights, idx.shape)
        lattice = np.bincount(idx[keep], weights=w[keep], minlength=len(res) * phi)
        values = np.abs(np.fft.rfftn(lattice.reshape(len(res), *plan.shape), axes=tuple(range(1, 1 + len(plan.shape)))))
        if plan.gather is not None:
            values = np.take(values.reshape(len(res), -1), plan.gather, axis=1)
        parts.append(values.reshape(len(res), *orders[:-1], orders[-1] // 2 + 1))
    return np.concatenate(parts)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5000), st.integers(1, 9), st.integers(1, 60), st.booleans(),
       st.sampled_from([1, 7, 2**18]), st.integers(0, 2**32))
@example(557, 5, 40, True, 7, 0)
@example(49, 3, 60, False, 1, 1)
def test_transform_batches_have_the_bits_of_a_fresh_transform(D, rows, k, per_row, batch, seed):
    """The generator's reused buffers (np.add.at into a lattice zeroed
    once and reset only where each batch scattered, rfftn, |.| and the
    gather written in place) give the bits of a fresh
    bincount and rfftn per batch, for any batch size, with residues in
    [0, 3D), so that repeats mod D add up in input order, and with one
    weight row for all rows or one per row."""
    rng = np.random.default_rng(seed)
    residues = rng.integers(0, 3 * D, (rows, k))
    weights = rng.standard_normal((rows, k) if per_row else k) * 10.0 ** rng.integers(-8, 9, (rows, k) if per_row else k)
    basis = UnitGroupBasis(factor(D))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(characters, "TRANSFORM_BATCH", batch)
        got = whole_transform(basis, residues, weights)
    assert got.tobytes() == fresh_transform(basis, residues, weights, batch).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5000))
@example(4096)
@example(2 * 3 * 5 * 7 * 11)
def test_vectorized_basis_matches_loop_oracles(D):
    """The conductor grid and the discrete-log tables equal the loops in
    charsum.oracles exactly."""
    basis = UnitGroupBasis(factor(D))
    grid = basis.conductor_grid()
    assert grid.dtype == np.int64 and np.array_equal(grid, oracles.conductor_grid_oracle(basis))
    for f in basis.factors:
        if f.kind == "odd":
            assert np.array_equal(f.dlog, oracles.dlog_table_cyclic_oracle(f.pe, f.generator, f.order))
    if D % 8 == 0:
        k = (D & -D).bit_length() - 1
        sign, five = oracles.two_part_factors_oracle(k)
        assert np.array_equal(basis.factors[0].dlog, sign)
        assert np.array_equal(basis.factors[1].dlog, five)


# the moduli of the bench theorem plan
BENCH_THEOREM_MODULI = (10007, 49999, 99991, 163841, 30030, 46189, 111111, 19683,
                        78125, 117649, 100489, 16384, 131072, 12600, 55440, 180000)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(1, 5000), st.sampled_from([2**k for k in range(1, 18)]),
                 st.integers(0, 2500).map(lambda m: 2 * (2 * m + 1)),
                 st.integers(0, 1250).map(lambda m: 4 * (2 * m + 1)),
                 st.sampled_from(BENCH_THEOREM_MODULI)))
@example(1)
@example(2)
@example(180000)
def test_tiled_residue_tables_match_residue_wise_construction(D):
    """unit_flat_index, exponent_matrix and unit_mask, which tile each
    component's discrete-log table over 0..D-1, equal the residue-wise
    construction from _log_rows and units_at at every residue; the unit
    mask is gcd(u, D) = 1, and the index arrays are int32."""
    basis = UnitGroupBasis(factor(D))
    residues = np.arange(D, dtype=np.int64)
    emat = np.array(list(basis._log_rows(residues)), dtype=np.int32).reshape(-1, D)
    units = basis.units_at(residues, emat)
    assert np.array_equal(units, np.gcd(residues, D) == 1)
    plan = basis.transform_plan()
    coords = [e % length for e, axes in zip(emat, plan.axes) for length, _ in axes]
    want = np.ravel_multi_index(coords, plan.shape) if coords else np.zeros(D, dtype=np.int64)
    want[~units] = -1
    flat = basis.unit_flat_index()
    assert flat.dtype == np.int32 and np.array_equal(flat, want)
    assert all(f.dlog.dtype == np.int32 for f in basis.factors)
    assert basis.exponent_matrix().dtype == np.int32 and np.array_equal(basis.exponent_matrix(), emat)
    assert np.array_equal(basis.unit_mask(), units)


def test_vectorized_basis_at_the_table_limit():
    """Pinned cases at the largest tables: pe = 999983 just below
    DLOG_TABLE_LIMIT, and 2^19."""
    pe = 999983
    assert pe <= DLOG_TABLE_LIMIT
    g = _least_primitive_root(pe, pe)
    assert np.array_equal(_dlog_table_cyclic(pe, g, pe - 1), oracles.dlog_table_cyclic_oracle(pe, g, pe - 1))
    sign, five = oracles.two_part_factors_oracle(19)
    factors = _two_part_factors(19)
    assert np.array_equal(factors[0].dlog, sign) and np.array_equal(factors[1].dlog, five)
    for D in (1 << 19, 999983):
        basis = UnitGroupBasis(factor(D))
        assert np.array_equal(basis.conductor_grid(), oracles.conductor_grid_oracle(basis))


def test_json_round_trip():
    chi = [c for c in chars(45) if not c.is_principal][5]
    blob = chi.to_json_dict()
    assert blob == {"modulus": 45, "exponents": list(chi.exponents)}
    back = DirichletCharacter(unit_group_basis(blob["modulus"]), tuple(blob["exponents"]))
    assert back == chi


def test_basis_rejects_bad_exponents():
    basis = unit_group_basis(12)
    with pytest.raises(PreconditionError):
        DirichletCharacter(basis, (99, 0))


def test_large_component_uses_bsgs_fallback():
    p = 1_000_003  # prime > table limit: scalar path only
    basis = unit_group_basis(p)
    f = basis.factors[0]
    assert f.dlog is None
    g = f.generator
    rng = SplitMix64(17)
    for _ in range(10):
        k = rng.below(p - 1)
        assert basis.exponents_of(pow(g, k, p)) == (k,)
    chi = DirichletCharacter(basis, (1,))
    u, v = 123456, 654321
    assert chi(u * v) == times(chi(u), chi(v))
    assert chi(p + 1) == 0
    with pytest.raises(PreconditionError):
        basis.exponent_matrix()
