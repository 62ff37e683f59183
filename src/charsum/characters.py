"""Dirichlet characters mod composite D over an explicit unit-group basis.

Conventions
-----------
The unit group (Z/D)* is decomposed into cyclic factors in a fixed canonical
order: the 2-part first (nothing for 2, one order-2 factor generated by -1
for 4, the pair (-1, 5) with orders (2, 2^{k-2}) for 2^k with k >= 3), then
one factor per odd prime power p^a generated by its least primitive root.
A character is an exponent vector against that basis.  ``chi(n)`` returns
the exact phase of chi(n), a Fraction k / E in [0, 1) for the group
exponent E with chi(n) = e(k / E), or None on a non-unit.  Every value
table and every value of ``values_at`` comes from one phase kernel,
``phase_index``, whose integer index is exact: each factor's reduced term
is below E, so with t factors a unit's index is below t E and a
non-unit's is t E, and int32 holds it when max(m_j^2, (t + 1) E) < 2^31.
One gather, ``_character_values``, from the roots of ``roots_of_unity``,
the one root formula, with a 0 in slot t E, gives the values: floating
point only enters there and when sums are accumulated.  Exact identities
read the index itself: ``bounds.orthogonality_record`` counts its phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .integers import FactoredInteger, as_factored, factor
from .util import exact_dot, require


# components up to this size get a full lookup table; beyond it the scalar
# path falls back to baby-step/giant-step per query
DLOG_TABLE_LIMIT = 10**6


@dataclass
class _CyclicFactor:
    """One cyclic factor of (Z/D)*, living inside the prime power p^k."""

    prime: int
    power: int
    pe: int
    order: int
    generator: int  # residue mod pe
    kind: str  # "odd" | "four" | "sign" | "five"
    dlog: np.ndarray | None  # int32, residue mod pe -> exponent, -1 on non-units

    def dlog_of(self, r: int) -> int:
        if self.dlog is not None:
            return int(self.dlog[r])
        if self.kind == "sign":
            # r is +-5^j mod 2^k; the sign bit is decided by r mod 4
            return 0 if r % 4 == 1 else 1
        if self.kind == "five":
            target = r if r % 4 == 1 else (self.pe - r) % self.pe
            return _bsgs(5, target, self.pe, self.order)
        return _bsgs(self.generator, r, self.pe, self.order)


def _bsgs(g: int, h: int, modulus: int, order: int) -> int:
    """Discrete log of h in <g> (order known), meet-in-the-middle."""
    m = math.isqrt(order - 1) + 1
    baby = {}
    acc = 1
    for j in range(m):
        baby.setdefault(acc, j)
        acc = acc * g % modulus
    giant = pow(acc, -1, modulus)  # acc = g^m, a unit
    cur = h % modulus
    for i in range(m + 1):
        if cur in baby:
            return (i * m + baby[cur]) % order
        cur = cur * giant % modulus
    raise ValueError(f"{h} is not in the subgroup generated by {g} mod {modulus}")


def _least_primitive_root(pe: int, p: int) -> int:
    phi = pe // p * (p - 1)
    prime_divs = [q for q, _ in factor(phi).factors]
    g = 2
    while True:
        if math.gcd(g, pe) == 1 and all(pow(g, phi // q, pe) != 1 for q in prime_divs):
            return g
        g += 1


def _power_table(g: int, count: int, modulus: int) -> np.ndarray:
    """g^j mod modulus for 0 <= j < count, as int64, in blocks of
    B = isqrt(count) + 1: g^(j + kB) = g^j * (g^B)^k, so about 2 sqrt(count)
    scalar steps and one vector product.  With modulus <= DLOG_TABLE_LIMIT
    every product stays below 10**12."""
    B = math.isqrt(count) + 1
    base = [1]
    for _ in range(B - 1):
        base.append(base[-1] * g % modulus)
    step = base[-1] * g % modulus
    giant = [1]
    for _ in range(-(-count // B) - 1):
        giant.append(giant[-1] * step % modulus)
    table = np.array(giant, dtype=np.int64)[:, None] * np.array(base, dtype=np.int64) % modulus
    return table.reshape(-1)[:count]


def _dlog_table_cyclic(pe: int, g: int, order: int) -> np.ndarray:
    dl = np.full(pe, -1, dtype=np.int32)
    dl[_power_table(g, order, pe)] = np.arange(order, dtype=np.int32)
    return dl


def _two_part_factors(k: int) -> list[_CyclicFactor]:
    pe = 1 << k
    if k == 1:
        return []
    if k == 2:
        dl = np.full(4, -1, dtype=np.int32)
        dl[1], dl[3] = 0, 1
        return [_CyclicFactor(2, 2, 4, 2, 3, "four", dl)]
    half = 1 << (k - 2)
    if pe > DLOG_TABLE_LIMIT:
        return [
            _CyclicFactor(2, k, pe, 2, pe - 1, "sign", None),
            _CyclicFactor(2, k, pe, half, 5, "five", None),
        ]
    # the units are +-5^j: 5^j = 1 and -5^j = 3 (mod 4), so no entry is hit twice
    acc = _power_table(5, half, pe)
    j = np.arange(half, dtype=np.int32)
    dl_sign = np.full(pe, -1, dtype=np.int32)
    dl_five = np.full(pe, -1, dtype=np.int32)
    dl_sign[acc], dl_five[acc] = 0, j
    dl_sign[pe - acc], dl_five[pe - acc] = 1, j
    return [
        _CyclicFactor(2, k, pe, 2, pe - 1, "sign", dl_sign),
        _CyclicFactor(2, k, pe, half, 5, "five", dl_five),
    ]


def _crt_pair(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int]:
    m = m1 * m2
    u = pow(m1, -1, m2)
    return (r1 + m1 * ((r2 - r1) * u % m2)) % m, m


class UnitGroupBasis:
    """Canonical cyclic decomposition of (Z/D)* with discrete-log tables.

    Immutable after construction; safe to share across threads.  The lazy
    numpy caches are derived data and idempotent to rebuild.
    """

    def __init__(self, modulus: FactoredInteger):
        self.modulus = modulus
        facs: list[_CyclicFactor] = []
        for p, a in modulus.factors:
            if p == 2:
                facs.extend(_two_part_factors(a))
            else:
                pe = p**a
                g = _least_primitive_root(pe, p)
                order = pe // p * (p - 1)
                table = _dlog_table_cyclic(pe, g, order) if pe <= DLOG_TABLE_LIMIT else None
                facs.append(_CyclicFactor(p, a, pe, order, g, "odd", table))
        self.factors = tuple(facs)
        self.orders = tuple(f.order for f in facs)
        self.phi = math.prod(self.orders) if facs else 1
        self.exponent = math.lcm(*self.orders) if facs else 1
        self._flat_index = None
        self._plan = None
        self._conductor_grid = None

    # -- exact per-integer path ------------------------------------------

    def exponents_of(self, n: int) -> tuple[int, ...] | None:
        """Exponent vector of n, or None when gcd(n, D) > 1."""
        D = self.modulus.value
        r = n % D
        if math.gcd(r, D) != 1:
            return None
        return tuple(f.dlog_of(r % f.pe) for f in self.factors)

    @property
    def generators(self) -> tuple[tuple[int, int], ...]:
        """(residue mod D, order) per cyclic factor, via CRT against the
        other prime-power components (where each generator acts as 1)."""
        out = []
        D = self.modulus.value
        for f in self.factors:
            r, m = f.generator % f.pe, f.pe
            for p, a in self.modulus.factors:
                pe = p**a
                if pe != f.pe:
                    r, m = _crt_pair(r, m, 1, pe)
            out.append((r if D > 1 else 0, f.order))
        return tuple(out)

    # -- vectorized caches -----------------------------------------------

    def _log_rows(self, residues: np.ndarray | None = None):
        """Component by component, the int32 discrete logs (-1 on non-units)
        of the non-negative int64 ``residues``, or of every residue 0..D-1
        when None: there component j's table is tiled D / pe_j times, and no
        residue is reduced or gathered."""
        D = self.modulus.value
        for f in self.factors:
            require(f.dlog is not None, "modulus", f"component {f.pe} exceeds the discrete-log table "
                    f"limit ({DLOG_TABLE_LIMIT}); only scalar evaluation is available")
            yield np.tile(f.dlog, D // f.pe) if residues is None else f.dlog[residues % f.pe]

    def exponent_matrix(self) -> np.ndarray:
        """Shape (t, D), int32; column u is the exponent vector of u (-1 on
        non-units).  Built afresh from ``_log_rows`` on each call."""
        return np.array(list(self._log_rows()), dtype=np.int32).reshape(len(self.factors), self.modulus.value)

    def units_at(self, residues: np.ndarray | None, rows) -> np.ndarray:
        """Which of the non-negative int64 ``residues`` (every residue
        0..D-1 when None) are units, given their discrete-log rows ``rows``
        (``_log_rows``): those where every component
        has a discrete log and, when 2 || D, which are odd, since then the
        2-part contributes no cyclic factor.  The one rule for unit-ness,
        read by ``unit_mask``, ``unit_flat_index`` and the phase kernel
        ``phase_index``."""
        units = np.ones(self.modulus.value if residues is None else len(residues), dtype=bool)
        for row in rows:
            units &= row >= 0
        if self.modulus.value % 4 == 2:  # the even residues: every other one of 0..D-1
            units[np.s_[::2] if residues is None else (residues & 1) == 0] = False
        return units

    def unit_mask(self) -> np.ndarray:
        """``units_at`` every residue, built afresh on each call."""
        return self.units_at(None, self._log_rows())

    def transform_plan(self) -> "TransformPlan":
        """The lattice ``unit_group_transform`` lays the unit group out on."""
        if self._plan is None:
            self._plan = _transform_plan(self.orders)
        return self._plan

    def unit_flat_index(self) -> np.ndarray:
        """Residue -> int32 flat index into the ``transform_plan()`` lattice
        (-1 on non-units); every entry is below phi."""
        if self._flat_index is None:
            # a non-unit's logs may hold -1s; the mask overwrites its entry
            flat = np.zeros(self.modulus.value, dtype=np.int32)
            for logs, axes in zip(self._log_rows(), self.transform_plan().axes):
                for length, stride in axes:
                    flat += logs % length * stride
            flat[~self.unit_mask()] = -1
            self._flat_index = flat
        return self._flat_index

    def conductor_grid(self) -> np.ndarray:
        """Conductor of every character, indexed by exponent vector: the
        product over the cyclic factors of ``_factor_conductor``."""
        if self._conductor_grid is None:
            grid = np.ones(self.orders if self.factors else (1,), dtype=np.int64)
            t = len(self.factors)

            def axis(n, at):  # range(n) along axis ``at`` of the grid
                return np.arange(n).reshape([n if j == at else 1 for j in range(t)])

            for i, f in enumerate(self.factors):
                sign = axis(2, i - 1) if f.kind == "five" else 0
                grid = grid * _factor_conductor(f, axis(f.order, i), sign)
            self._conductor_grid = grid
        return self._conductor_grid


def _factor_conductor(f: _CyclicFactor, e, sign=0):
    """The conductor that cyclic factor f contributes at exponent e (an int
    or an int64 array; ``sign`` is the exponent of the "sign" factor before
    a "five" one, which it contributes for both).  A component with exponent
    e has order order / gcd(e, order), so its conductor depends only on
    v = min(v_p(e), v_p(order)): p^(a - v) on an odd p^a and on 4 (1 at
    e = 0), and 4 * 2^(k - 2 - v) on the (sign, five) pair of 2^k, k >= 3
    (1 when the sign exponent is 0 too)."""
    if f.kind == "sign":
        return 1  # folded into the "five" factor that follows it
    p, cap = (2, f.power - 2) if f.kind == "five" else (f.prime, f.power - 1)
    v = sum(e % p**k == 0 for k in range(1, cap + 1))
    if f.kind == "five":
        return np.where((e == 0) & (sign == 0), 1, 4 << (f.power - 2 - v))
    return np.where(e == 0, 1, p ** (f.power - v))


@lru_cache(maxsize=256)
def _cached_basis(D: int) -> UnitGroupBasis:
    return UnitGroupBasis(factor(D))


def unit_group_basis(D) -> UnitGroupBasis:
    """Canonical basis for (Z/D)*; cached per modulus."""
    f = as_factored(D)
    return _cached_basis(f.value)


class DirichletCharacter:
    """A character mod D as an exponent vector over the canonical basis."""

    __slots__ = ("basis", "exponents", "_table")

    def __init__(self, basis: UnitGroupBasis, exponents: tuple[int, ...]):
        exponents = tuple(int(e) for e in exponents)
        require(len(exponents) == len(basis.orders), "exponents", "length must match basis")
        for e, m in zip(exponents, basis.orders):
            require(0 <= e < m, "exponents", f"need 0 <= {e} < {m}")
        self.basis = basis
        self.exponents = exponents
        self._table = None

    @property
    def modulus(self) -> int:
        return self.basis.modulus.value

    @property
    def is_principal(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def __call__(self, n: int) -> Fraction | None:
        """The phase of chi(n): the Fraction k / E in [0, 1) with chi(n) =
        e(k / E), or None when gcd(n, D) > 1."""
        ev = self.basis.exponents_of(n)
        if ev is None:
            return None
        E = self.basis.exponent
        return Fraction(sum(a * e * (E // m) for a, e, m in zip(self.exponents, ev, self.basis.orders)) % E, E)

    def value_table(self) -> np.ndarray:
        """chi on residues 0..D-1 as complex128 (cached on the character)."""
        if self._table is None:
            self._table = _character_values(self.basis, [(e,) for e in self.exponents])[0]
        return self._table

    def values_at(self, residues: np.ndarray) -> np.ndarray:
        """chi at each int64 entry of ``residues`` (taken mod D), any shape,
        as complex128 of the same shape: the bits of
        ``value_table()[residues % D]``, without a table."""
        residues = np.asarray(residues, dtype=np.int64)
        flat = residues.reshape(-1) % self.modulus
        return _character_values(self.basis, [(e,) for e in self.exponents], flat)[0].reshape(residues.shape)

    def to_json_dict(self) -> dict:
        return {"modulus": self.modulus, "exponents": list(self.exponents)}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DirichletCharacter)
            and self.modulus == other.modulus
            and self.exponents == other.exponents
        )

    def __hash__(self) -> int:
        return hash((self.modulus, self.exponents))

    def __repr__(self) -> str:
        return f"DirichletCharacter(mod {self.modulus}, exponents={self.exponents})"


def enumerate_characters(basis: UnitGroupBasis):
    """All phi(D) characters, lexicographic over exponent vectors, principal
    first, decoded one at a time: nothing of size phi is built."""
    return (character_at(basis, i) for i in range(basis.phi))


def character_at(basis: UnitGroupBasis, index: int) -> DirichletCharacter:
    """The character at position ``index`` of ``enumerate_characters(basis)``,
    decoded in mixed radix over ``basis.orders`` (last coordinate fastest)."""
    require(0 <= index < basis.phi, "chi-index", f"need 0 <= index < {basis.phi}")
    exps = []
    for m in reversed(basis.orders):
        index, e = divmod(index, m)
        exps.append(e)
    return DirichletCharacter(basis, tuple(reversed(exps)))


def conductor(chi: DirichletCharacter) -> FactoredInteger:
    """Smallest q | D such that chi is trivial on units congruent to 1 mod q."""
    exps = chi.exponents
    return factor(math.prod(int(_factor_conductor(f, e, exps[i - 1]))
                            for i, (f, e) in enumerate(zip(chi.basis.factors, exps))))


def induce_primitive(chi: DirichletCharacter) -> DirichletCharacter:
    """The primitive character mod conductor(chi) generating chi."""
    require(not chi.is_principal, "chi", "principal characters are not induced")
    q = conductor(chi).value
    if q == chi.modulus:
        return chi
    basis_q = unit_group_basis(q)
    D = chi.modulus
    exps = []
    for (g, m) in basis_q.generators:
        # chi is induced from chi_q, so chi(u) = chi_q(g) at the first unit u
        # of g, g + q, g + 2q, ... mod D, an m-th root of unity
        k = chi(next(u for u in range(g % q, D, q) if math.gcd(u, D) == 1)) * m
        require(k.denominator == 1, "chi", "value is not an order-m root")  # cannot happen
        exps.append(int(k))
    out = DirichletCharacter(basis_q, tuple(exps))
    assert conductor(out).value == q
    return out


def gauss_sums(basis: UnitGroupBasis) -> list[complex]:
    """tau(chi) = sum_a chi(a) e(a/q) for every primitive character mod q,
    in enumeration order ([] when there is none).  A character is primitive
    when each component is, so the primitive ones are the product of one
    exponent list per cyclic factor (a "sign" factor keeps both exponents),
    and one phase-kernel call builds their values.  Both parts of each tau
    are exactly rounded: one ``exact_dot`` of weight 1 reduces the real and
    the imaginary parts of the products as stacked lanes."""
    q = basis.modulus.value
    prim = basis.conductor_grid() == q
    if not prim.any():
        return []
    axes = range(len(basis.factors))
    exponents = [np.flatnonzero(prim.any(axis=tuple(k for k in axes if k != j))) for j in axes]
    products = _character_values(basis, exponents) * roots_of_unity(np.arange(q), q)
    lanes = np.concatenate((products.real, products.imag))
    sums, _ = exact_dot(range(q), None, lambda i: lanes[:, i.start : i.stop])
    return [complex(re, im) for re, im in zip(sums[: len(products)], sums[len(products) :])]


def roots_of_unity(k: np.ndarray, E: int) -> np.ndarray:
    """exp(2 pi i k / E) for int64 k in [0, E), element by element: np.exp
    at min(k, E - k), conjugated where k > E / 2, so the root at E - k is
    bit for bit the conjugate of the one at k; 1, i, -1 and -i are exact."""
    k = np.asarray(k, dtype=np.int64)
    j = np.minimum(k, E - k)
    z = np.exp((2j * np.pi / E) * j)
    z[4 * j == E] = 1j
    z[2 * j == E] = -1.0
    return np.conjugate(z, out=z, where=k > E - k)


# ---------------------------------------------------------------------------
# The phase kernel: every character value of a table or of ``values_at``


def phase_index(basis: UnitGroupBasis, exponents, residues: np.ndarray | None = None) -> np.ndarray:
    """The exact phases, shape (characters, points), of the characters on
    the grid of ``exponents`` (one 1-D sequence per cyclic factor; row r is
    the r-th vector of their product, last factor fastest) at the
    non-negative int64 ``residues``, or at every residue 0..D-1 when None.

    chi_e(u) = e(k / E), k = sum_j e_j dlog_j(u) (E / m_j) mod E.  The index
    adds, as an outer sum, the terms (e_j dlog_j(u) mod m_j) (E / m_j) < E,
    so a unit's is below t E and congruent to k mod E (t factors, at least
    1); a non-unit's logs count as 0 and its index is exactly t E.  It is
    int32 when max(m_j^2, (t + 1) E) < 2^31 (e_j dlog_j < m_j^2), and int64
    otherwise."""
    E, orders = basis.exponent, basis.orders
    t = max(1, len(orders))
    logs = list(basis._log_rows(residues))
    units = basis.units_at(residues, logs)
    dtype = np.int32 if max([m * m for m in orders] + [(t + 1) * E]) < 1 << 31 else np.int64
    index = np.where(units, 0, t * E).astype(dtype)
    for e, m, row in zip(exponents, orders, logs):
        term = np.asarray(e, dtype=dtype)[:, None] * np.where(units, row, 0).astype(dtype, copy=False)
        term -= term // m * m  # mod m: numpy's // by a scalar is the fast one
        term *= E // m
        index = index[..., None, :] + term
    return index.reshape(math.prod(map(len, exponents)), units.size)


def _character_values(basis: UnitGroupBasis, exponents, residues: np.ndarray | None = None) -> np.ndarray:
    """Values of the characters of ``phase_index`` at its points, in its
    shape: one gather from t copies of the E roots of unity with a 0, for
    a non-unit, at slot t E.  With fewer indices than E each root is
    computed itself, at the index mod E: the same bits, as
    ``roots_of_unity`` works element by element."""
    E, t = basis.exponent, max(1, len(basis.orders))
    index = phase_index(basis, exponents, residues)
    if index.size < E:
        return np.where(index < t * E, roots_of_unity(index % E, E), 0)
    roots = np.zeros(t * E + 1, dtype=np.complex128)
    ring, half = roots[:-1].reshape(t, E), E // 2 + 1
    # roots_of_unity gives the root at E - k as the conjugate of the one at k
    ring[:, :half] = roots_of_unity(np.arange(half), E)
    ring[:, half:] = np.conjugate(ring[0, E - half : 0 : -1])
    return roots[index]


def all_character_tables(basis: UnitGroupBasis) -> np.ndarray:
    """Matrix of shape (phi(D), D): row i is the value table of the i-th
    character in enumeration order.  Intended for small moduli."""
    return _character_values(basis, [np.arange(m) for m in basis.orders])


# unit_group_transform gives a cyclic factor of order m = q c, where q = p^a
# is the power of m's largest prime p, two axes (q, c) instead of one when
# p >= SPLIT_MIN_PRIME and c >= SPLIT_MIN_COFACTOR: the prime-factor mapping
# of Good (1958) and Thomas (1963).  pocketfft's plan for a length with a
# large prime factor runs up to 7x slower than the same transform on the
# coprime lattice.  Timed on the theorem batches at 48 primes D in [10^4,
# 2 10^5] (m = D - 1, one thread, 2-CPU x86 host), 1-D time / split time
# was 1.07-7.0 (median 4.6) at the 16 with p >= 500 and c >= 4, 0.89-3.2
# (median 1.7) at the 16 with 128 <= p < 500, 0.74-1.26 (median 0.93) at 8
# with p < 128, and 0.88-1.40 (median 1.18) at 8 safe primes (c = 2); the
# last two groups keep one axis.
SPLIT_MIN_PRIME = 128
SPLIT_MIN_COFACTOR = 4

# lattice entries per unit_group_transform batch: a 2 MB float64 lattice, and
# about as much complex spectrum when the last lattice axis is long, below
# the 4 MB from which numpy asks for transparent huge pages, so the batches
# add no huge pages to the peak RSS
TRANSFORM_BATCH = 1 << 18


@dataclass(frozen=True)
class TransformPlan:
    """The lattice ``unit_group_transform`` transforms for one basis.

    ``axes[j]`` holds the (length, stride) of each lattice axis of cyclic
    factor j: its order, or the pair (q, c) of a split factor, which an
    exponent d enters as (d mod q, d mod c).  ``shape`` is the lattice's.
    The spectrum entry (k1, k2) of a split factor is its exponent (k1 c + k2
    q) mod m.  ``gather`` maps each half-lattice index of the result (last
    exponent at most half its order) to the flat index of the rfftn output
    holding it or its conjugate; None when no factor is split, where the
    two layouts coincide."""

    shape: tuple[int, ...]
    axes: tuple[tuple[tuple[int, int], ...], ...]
    gather: np.ndarray | None


def _transform_plan(orders: tuple[int, ...]) -> TransformPlan:
    lengths = []
    for m in orders:
        p, a = factor(m).factors[-1]  # every order is at least 2
        q = p**a
        split = p >= SPLIT_MIN_PRIME and m // q >= SPLIT_MIN_COFACTOR
        lengths.append((q, m // q) if split else (m,))
    shape = tuple(n for axes in lengths for n in axes) or (1,)
    strides = iter([math.prod(shape[i + 1 :]) for i in range(len(shape))])
    axes = tuple(tuple((n, next(strides)) for n in f) for f in lengths)
    if all(len(f) == 1 for f in lengths):
        return TransformPlan(shape, axes, None)
    # spectrum coordinates of every half-lattice exponent vector: a split
    # factor's exponent e sits at (e c^-1 mod q, e q^-1 mod c)
    half = orders[:-1] + (orders[-1] // 2 + 1,)
    coords = []
    for e, f in zip(np.unravel_index(np.arange(math.prod(half)), half), lengths):
        if len(f) == 1:
            coords.append(e)
        else:
            q, c = f
            coords += [e * pow(c, -1, q) % q, e * pow(q, -1, c) % c]
    # rfftn keeps the last axis up to half its length; past that, the
    # conjugate exponent vector holds the same |T|
    flip = coords[-1] > shape[-1] // 2
    coords = [np.where(flip, -k % n, k) for k, n in zip(coords, shape)]
    gather = np.ravel_multi_index(coords, shape[:-1] + (shape[-1] // 2 + 1,))
    return TransformPlan(shape, axes, gather)


def unit_group_transform(basis: UnitGroupBasis, residues: np.ndarray, weights):
    """|sum over units u of chi(u) w_b(u)| for every row b of ``residues``
    and every character chi on half of the exponent lattice, where w_b puts
    the real weights[j] (or weights[b, j] for 2-D weights) on the residue
    residues[b, j] mod D (non-units are dropped, repeated residues add up).

    A generator over batches of ``TRANSFORM_BATCH // phi`` rows (at least
    one): it yields (first_row, values), values of shape (rows in the
    batch, *basis.orders[:-1], basis.orders[-1] // 2 + 1).  The values are
    the call's own buffer, overwritten by the next batch: a caller may
    change them in place, but keeps nothing of them past its turn.

    Each batch's rows are scattered into a (batch, *plan.shape) float64
    lattice (``basis.transform_plan()``) by ``np.add.at``, which adds in
    input order and so gives ``np.bincount``'s bits, and transformed with
    ``np.fft.rfftn`` over the lattice axes.  Since the weights are real, the
    entry at exponent vector e is the conjugate of T(chi_e), so the values
    hold |T(chi_e)| for every e whose last coordinate is at most half its
    order; every other character is the conjugate of one of these, with the
    same |T|.  On a split lattice the plan's gather puts each value there.
    The values carry FFT rounding, not exactly rounded sums.

    The lattice, spectrum, |.| and gather buffers are allocated once per
    call and reused by every batch, so no batch refaults their pages.  The
    lattice is zeroed once; each batch resets only the entries it scattered
    to, as x < D leaves most of every row empty.
    """
    residues = np.asarray(residues)
    weights = np.asarray(weights, dtype=np.float64)
    total, phi, D = residues.shape[0], basis.phi, basis.modulus.value
    plan = basis.transform_plan()
    flat_index = basis.unit_flat_index()
    orders = basis.orders or (1,)
    half = orders[:-1] + (orders[-1] // 2 + 1,)
    batch = max(1, min(total, TRANSFORM_BATCH // phi))
    axes = tuple(range(1, 1 + len(plan.shape)))
    lattice = np.zeros((batch, *plan.shape))
    flat = lattice.reshape(-1)
    spectrum = np.empty((batch, *plan.shape[:-1], plan.shape[-1] // 2 + 1), dtype=np.complex128)
    mags = np.empty(spectrum.shape)
    out = None if plan.gather is None else np.empty((batch, plan.gather.size))
    for a in range(0, total, batch):
        rows = min(batch, total - a)
        idx = flat_index[residues[a : a + rows] % D]
        keep = idx >= 0
        idx = idx + phi * np.arange(rows, dtype=np.int64)[:, None]  # row b's lattice, in int64
        w = np.broadcast_to(weights[a : a + rows] if weights.ndim == 2 else weights, idx.shape)
        scattered = idx[keep]
        np.add.at(flat, scattered, w[keep])
        np.fft.rfftn(lattice[:rows], axes=axes, out=spectrum[:rows])
        flat[scattered] = 0.0
        values = np.abs(spectrum[:rows], out=mags[:rows])
        if out is not None:
            # a gather into C order keeps the row search fast; mode="clip"
            # writes straight into out, where "raise" would buffer it
            values = np.take(values.reshape(rows, -1), plan.gather, axis=1, out=out[:rows], mode="clip")
        yield a, values.reshape(rows, *half)
