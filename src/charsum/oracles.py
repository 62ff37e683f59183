"""Naive single-threaded oracles for every evaluator.

These follow the defining formulas term by term, calling the exact
character evaluation for each summand and accumulating in plain order.
They are deliberately independent of the table/FFT fast paths so that
agreement between the two routes is a meaningful check.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .characters import DirichletCharacter, UnitGroupBasis
from .integers import euler_phi, factor
from .util import check_work


def character_value(phase) -> complex:
    """e(phase) = exp(2 pi i phase) for a character's phase, 0 for None (a
    non-unit): the oracles' own root formula, independent of
    ``characters.roots_of_unity``."""
    return 0j if phase is None else cmath.exp(2j * math.pi * phase)


def mangoldt_value(n: int) -> float:
    """Lambda(n) by direct factorization."""
    if n < 2:
        return 0.0
    f = factor(n)
    if len(f.factors) == 1:
        return math.log(f.factors[0][0])
    return 0.0


def shifted_prime_sum_oracle(chi: DirichletCharacter, l: int, x: int) -> complex:
    total = 0j
    for n in range(2, x + 1):
        lam = mangoldt_value(n)
        if lam:
            total += lam * character_value(chi(n - l))
    return total


def restricted_sum_oracle(chi_q: DirichletCharacter, nu: int, l: int, x: int) -> complex:
    q = chi_q.modulus
    total = 0j
    for n in range(2, x + 1):
        if math.gcd(n, q) != 1 or (n - l) % nu != 0:
            continue
        lam = mangoldt_value(n)
        if lam:
            total += lam * character_value(chi_q(n - l))
    return total


def short_sum_oracle(chi_q: DirichletCharacter, M: int, N: int, d: int, k: int, eta: int) -> complex:
    total = 0j
    for n in range(M - N + 1, M + 1):
        total += character_value(chi_q(n * d + eta * k))
    return total


def sy_sum_oracle(chi_q: DirichletCharacter, u, y, eta: int, nu: int) -> complex:
    q = chi_q.modulus
    total = 0j
    lo = math.floor(u - y) + 1
    hi = math.floor(u)
    for n in range(lo, hi + 1):
        if math.gcd(n, q) == 1 and n % nu == eta % nu:
            total += character_value(chi_q(n - eta))
    return total


def double_sum_oracle(chi_q, a_m, b_n, M, N, U, nu, l, x) -> complex:
    """Triple-condition loop over (m, n)."""
    q = chi_q.modulus
    total = 0j
    for m in range(M + 1, 2 * M + 1):
        for n in range(U + 1, 2 * N + 1):
            if m * n > x:
                break
            if math.gcd(m * n, q) != 1 or (m * n - l) % nu != 0:
                continue
            total += a_m(m) * b_n(n) * character_value(chi_q(m * n - l))
    return total


def burgess_moment_2r_oracle(chi_q: DirichletCharacter, Z: int, r: int) -> float:
    q = chi_q.modulus
    total = 0.0
    for start in range(q):
        inner = 0j
        for z in range(1, Z + 1):
            inner += character_value(chi_q(start + z))
        total += abs(inner) ** (2 * r)
    return total


def burgess_moment_2_expanded_oracle(chi_q: DirichletCharacter, Z: int) -> float:
    """r = 1 moment via the expanded double sum over (z1, z2)."""
    q = chi_q.modulus
    total = 0j
    for z1 in range(1, Z + 1):
        for z2 in range(1, Z + 1):
            for start in range(q):
                total += character_value(chi_q(start + z1)) * character_value(chi_q(start + z2)).conjugate()
    return total.real


def congruence_census_oracle(q, d, eta, k, M, N, Y):
    """Literal quadruple loop over (n, n1, y, y1); returns the same census
    fields as the grouped path.  A second pass with the loops reordered
    re-counts K as an internal consistency check."""
    ys = [y for y in range(1, Y + 1) if math.gcd(y, q) == 1]
    n_range = range(M + 1, M + N + 1)
    check_work((len(ys) * N) ** 2, "the census oracle's quadruple loop")
    qd = q // d
    shift = eta * k
    K = diagonal = kappa1 = kappa2 = kappa3 = 0
    for n in n_range:
        for y in ys:
            lhs = (n * d + shift) * y % q
            for n1 in n_range:
                for y1 in ys:
                    if (n1 * d + shift) * y1 % q != lhs:
                        continue
                    K += 1
                    if y1 == y:
                        diagonal += 1
                    elif y < y1:
                        t = (y1 - y) // d
                        assert (y1 - y) % d == 0
                        w = (n1 * d + shift) % qd
                        if w == 0:
                            kappa1 += 1
                        elif (w * t) % qd == 0:
                            kappa2 += 1
                        else:
                            kappa3 += 1
    # independent re-count with the loop order reversed
    K2 = 0
    for y1 in ys:
        for n1 in n_range:
            rhs = (n1 * d + shift) * y1 % q
            for y in ys:
                for n in n_range:
                    if (n * d + shift) * y % q == rhs:
                        K2 += 1
    assert K2 == K, "reordered re-count disagrees"
    return {
        "K": K,
        "diagonal": diagonal,
        "kappa1": kappa1,
        "kappa2": kappa2,
        "kappa3": kappa3,
    }


def rho_divisor_count_oracle(q: int, d: int, Y: int) -> int:
    qd = q // d
    count = 0
    for beta in range(1, qd + 1):
        if qd % beta == 0 and beta * Y >= q and beta < qd and math.gcd(beta, d) == 1:
            count += 1
    return count


def mobius_sieve_oracle(n: int) -> np.ndarray:
    """mu(0..n) as int8 (mu(0) = 0) by the linear sieve, one n at a time."""
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


def dirichlet_convolve_oracle(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(f * g)(n) = sum_{ab=n} f(a) g(b), one a at a time in ascending order."""
    x = len(f) - 1
    out = np.zeros(x + 1, dtype=np.result_type(f, g))
    for a in range(1, x + 1):
        fa = f[a]
        if fa == 0:
            continue
        top = x // a
        out[a :: a] += fa * g[1 : top + 1]
    return out


def tau_r_sieve_oracle(x: int, r: int) -> np.ndarray:
    """tau_r(0..x) as int64 by r - 1 convolutions with the all-ones array."""
    ones = np.ones(x + 1, dtype=np.int64)
    ones[0] = 0
    out = ones.copy()
    for _ in range(r - 1):
        out = dirichlet_convolve_oracle(out, ones)
    return out


def coprime_count_sweep_oracle(q_max: int, u_max: int) -> tuple[int, Fraction]:
    """One Fraction per (q, U) pair; same result as the row-wise sweep."""
    checked = 0
    worst = Fraction(0)
    for q in range(1, q_max + 1):
        f = factor(q)
        phi = euler_phi(f)
        bound = 2 ** len(f.factors)
        count = 0
        for U in range(1, u_max + 1):
            if math.gcd(U, q) == 1:
                count += 1
            lhs_num = abs(q * count - phi * U)  # deviation * q
            checked += 1
            ratio = Fraction(lhs_num, bound * q)
            if ratio > worst:
                worst = ratio
    return checked, worst


def conductor_grid_oracle(basis: UnitGroupBasis) -> np.ndarray:
    """Conductor of every character on the exponent lattice, one exponent
    at a time, stripping powers of p from each component's order."""
    shape = basis.orders if basis.factors else (1,)
    grid = np.ones(shape, dtype=np.int64)
    t = len(basis.factors)
    i = 0
    while i < t:
        f = basis.factors[i]
        if f.kind == "sign":
            five = basis.factors[i + 1]
            block = np.ones((2, five.order), dtype=np.int64)
            block[1, 0] = 4
            for e1 in range(1, five.order):
                d1 = five.order // math.gcd(e1, five.order)
                block[0, e1] = block[1, e1] = 4 * d1
            dims = [1] * t
            dims[i], dims[i + 1] = 2, five.order
            grid = grid * block.reshape(dims)
            i += 2
            continue
        contrib = np.ones(f.order, dtype=np.int64)
        if f.kind == "four":
            contrib[1] = 4
        else:
            for e in range(1, f.order):
                d = f.order // math.gcd(e, f.order)
                s = 0
                while d % f.prime == 0:
                    d //= f.prime
                    s += 1
                contrib[e] = f.prime ** (s + 1)
        dims = [1] * t
        dims[i] = f.order
        grid = grid * contrib.reshape(dims)
        i += 1
    return grid


def dlog_table_cyclic_oracle(pe: int, g: int, order: int) -> np.ndarray:
    """Residue mod pe -> discrete log to base g (-1 off the subgroup), one
    power of g at a time."""
    dl = np.full(pe, -1, dtype=np.int64)
    acc = 1
    for j in range(order):
        dl[acc] = j
        acc = acc * g % pe
    return dl


def two_part_factors_oracle(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(sign, five) discrete-log tables mod 2^k, k >= 3, over the units
    +-5^j, one power of 5 at a time."""
    pe = 1 << k
    dl_sign = np.full(pe, -1, dtype=np.int64)
    dl_five = np.full(pe, -1, dtype=np.int64)
    acc = 1
    for j in range(1 << (k - 2)):
        dl_sign[acc], dl_five[acc] = 0, j
        dl_sign[pe - acc], dl_five[pe - acc] = 1, j
        acc = acc * 5 % pe
    return dl_sign, dl_five
