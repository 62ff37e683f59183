"""Right-hand sides of every bound in scope, and the ASSERT/MONITOR record
machinery that compares them against exactly computed left-hand sides.

Policy: only exact identities and explicit-constant inequalities are
asserted (test-failing).  Bounds stated with an implied constant for
sufficiently large moduli are monitored: the record carries the observed
lhs/rhs ratio and never fails the run.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .characters import (
    UnitGroupBasis,
    character_at,
    gauss_sums,
    induce_primitive,
    phase_index,
    unit_group_basis,
    unit_group_transform,
)
from .integers import (
    MANGOLDT_CAP_BITS,
    coprime_count,
    divisor_count_sieve,
    divisors,
    euler_phi,
    factor,
    mobius,
    omega,
    primes_up_to,
    smooth_count,
    tau_r,
    tau_r_sieve,
    trial_divisions,
)
from .sums import (
    CongruenceInstance,
    bin_lambda,
    burgess_moment_2r,
    char_twist_weight,
    congruence_census,
    coprime_count_sweep,
    double_sum,
    hb_decompose,
    mangoldt_terms,
    mobius_recombination,
    prime_power_bound,
    recombination_nus,
    restricted_sum,
    shifted_prime_sum,
    short_sum,
    sy_sum,
    validate_census_preconditions,
)
from .util import (
    SplitMix64,
    check_work,
    map_blocks,
    require,
)

log = logging.getLogger("charsum")

ASSERT = "ASSERT"
MONITOR = "MONITOR"


# The absolute constants of the omega(q) and phi(q)/2q envelopes, and the
# dyadic window exponent of the bilinear-sum corollaries.  The reports'
# ``delta`` is the small fixed exponent perturbation, <= 1e-4 in the source
# statements.
C_OMEGA = 1.5
C_PHI = 1.0
THETA = 1.0 / 12.0

# The smooth-count envelope is taken at its worst-case theta
SMOOTH_THETA = 1.0

# Largest x and D of the seeded identity cases
CASE_X_MAX = 10**4
CASE_D_MAX = 10**3

# divisor_moment_report's orders r of tau_r and moment exponents k
MOMENT_R = (2, 3, 4, 5)
MOMENT_K = (1, 2)

# restricted_report checks the first RESTRICTED_MAX_NU squarefree nu | q1
RESTRICTED_MAX_NU = 8


@dataclass
class BoundCheckRecord:
    """One bound check: exact LHS, evaluated RHS, ratio, and a verdict."""

    lemma_tag: str
    parameters: dict
    lhs: float
    rhs: float
    ratio: float
    mode: str
    verdict: str
    runtime_ms: int | None = None


def make_record(lemma_tag, parameters, lhs, rhs, mode, passed=None, runtime_ms=None) -> BoundCheckRecord:
    lhs = float(lhs)
    rhs = float(rhs)
    ratio = lhs / rhs if rhs > 0 else math.inf
    if mode == ASSERT:
        ok = passed if passed is not None else ratio <= 1.0
        verdict = "pass" if (ok and ratio <= 1.0) else "fail"
    else:
        verdict = "observed"
    return BoundCheckRecord(lemma_tag, dict(parameters), lhs, rhs, ratio, mode, verdict, runtime_ms)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter_ns()
    out = fn(*args, **kwargs)
    return out, (time.perf_counter_ns() - t0) // 1_000_000


# ---------------------------------------------------------------------------
# Plain right-hand sides


def theorem_rhs(D: int, x) -> float:
    """x * exp(-0.6 sqrt(ln D))."""
    require(D >= 3, "D", "need D >= 3")
    require(x >= 2, "x", "need x >= 2")
    return x * math.exp(-0.6 * math.sqrt(math.log(D)))


def lemma8_rhs(inst: CongruenceInstance, delta: float) -> float:
    """NY + 2Y^2/d + (2Y^2/d) rho + 2 (NY)^(1+delta) / d."""
    NY = inst.N * inst.Y
    return (
        NY
        + 2.0 * inst.Y**2 / inst.d
        + 2.0 * inst.Y**2 / inst.d * inst.rho
        + 2.0 * NY ** (1.0 + delta) / inst.d
    )


def big_divisor_tail(q: int, D: int) -> tuple[float, float]:
    """Exact tail sum of mu^2(d)/d over divisors d of q above exp(sqrt(2 ln D)),
    paired with the monitored envelope exp(-0.7 sqrt(ln D))."""
    require(D >= 3, "D", "need D >= 3")
    fq = factor(q)
    require(D % q == 0, "q|D", f"need q | D, got q={q}, D={D}")
    threshold = math.exp(math.sqrt(2.0 * math.log(D)))
    acc = Fraction(0)
    for d in divisors(fq):
        if d > threshold and mobius(factor(d)) != 0:
            acc += Fraction(1, d)
    rhs = math.exp(-0.7 * math.sqrt(math.log(D)))
    return float(acc), rhs


def burgess_2r_rhs(q: int, Z: int, r: int, delta: float) -> float:
    return float(Z) ** r * q + float(Z) ** (2 * r) * q ** (0.5 + delta)


def divisor_moment_rhs(x: int, r: int, k: int) -> float:
    return x * math.log(x) ** (r**k - 1)


def short_sum_rhs(N: int, q: int, d: int, delta: float) -> float:
    return N ** (2 / 3) * q ** (1 / 9 + delta / 2) * d ** (2 / 3)


def sy_rhs(y, nu: int, D: int) -> float:
    """y / nu exp(-0.7 sqrt(ln D)): the S_y envelope, and at y = x the
    bilinear corollaries'."""
    return y / nu * math.exp(-0.7 * math.sqrt(math.log(D)))


def double_sum_rhs(M: int, N: int, q: int, B: float, c1: float, c2: float, D: int, delta: float) -> float:
    Lg = math.log(D)
    return (
        B
        * (M ** 0.75 * N**0.5 * q**0.25 + M ** 0.75 * N * q ** (0.125 + delta / 4))
        * Lg ** ((2 * c1 + c2) / 4 + 1)
    )


def restricted_envelope_rhs(q: int, nu: int, x: int) -> float:
    """Envelope 10 x ln^5 x (sqrt(1/(q nu^2) + q/x) + x^(-1/6) nu^(-1/2)
    + x^(-1/3) q^(1/6) nu^(-1/3)) tau(q)."""
    bracket = (
        math.sqrt(1.0 / (q * nu * nu) + q / x)
        + x ** (-1 / 6) * nu ** (-0.5)
        + x ** (-1 / 3) * q ** (1 / 6) * nu ** (-1 / 3)
    )
    return 10.0 * x * math.log(x) ** 5 * bracket * tau_r(q, 2)


# ---------------------------------------------------------------------------
# Single-check records


def smooth_rhs_product(b: int) -> float:
    """prod over p | b of (1 - 1/p)."""
    out = 1.0
    for p in factor(b).primes:
        out *= 1.0 - 1.0 / p
    return out


def smooth_bound_check(x: int, z: int, b: int = 1) -> BoundCheckRecord:
    """Exact smooth count against the sieve envelope at the worst-case
    theta = SMOOTH_THETA."""
    require(math.log(x) <= z <= x ** (1 / math.e), "z",
            f"need ln x <= z <= x^(1/e), got x={x}, z={z}")
    (lhs, ms) = _timed(smooth_count, x, z, b)
    alpha = math.log(z) / math.log(x)
    la = math.log(1.0 / alpha)
    rhs = (
        x
        * smooth_rhs_product(b)
        * math.exp(-(la + math.log(la)) / alpha + 1.0 / alpha + 2.0 * SMOOTH_THETA / (alpha * la))
    )
    return make_record(
        "SMOOTH_COUNT", {"x": x, "z": z, "b": b, "theta": SMOOTH_THETA}, lhs, rhs, MONITOR, runtime_ms=ms,
    )


def burgess_check_2r(q: int, Z: int, r: int, delta: float = 1e-4) -> BoundCheckRecord:
    """Max over primitive chi of ``burgess_moment_2r`` against Z^r q + Z^(2r)
    q^(1/2+delta).  A ``unit_group_transform`` of the windows (row s:
    residues s + 1..s + Z) gives every chi's sum over s of |W|^(2r), and
    ``_certified_max``, the engine of ``theorem_report`` too, takes those
    moments as one row, with the primitive chi (conductor q) as its class:
    every one within twice the error bound of the top is evaluated exactly."""
    require(mobius(factor(q)) != 0 or r == 2, "q", "need squarefree q or r = 2")
    _require_finite_moments(q, Z, r)
    basis = unit_group_basis(q)
    primitive = _half_lattice(basis.conductor_grid()) == q
    require(primitive.any(), "q", f"no primitive characters mod {q}")
    # a row's mass is Z and its counts are exact, so each |W| is off by at
    # most e, and each moment, q powers below (Z + e)^(2r), by at most bound;
    # FFT_ERROR_C's margin also covers the rounding of the powers' sums
    e = _fft_error(basis.phi, 0, Z)
    bound = 2 * r * q * (Z + e) ** (2 * r - 1) * e
    moments = 0.0
    for _, values in unit_group_transform(basis, np.arange(q)[:, None] + np.arange(1, Z + 1), 1.0):
        values **= 2 * r  # the batch's own buffer: same bits as values ** (2 r)
        moments = moments + values.sum(axis=0)
    [(lhs, _, _)] = _certified_max(basis, [(0, moments.reshape(1, -1))], [primitive], 2 * bound,
                                   lambda chi, _: burgess_moment_2r(chi, Z, r), [0])
    return make_record("BURGESS_2R", {"q": q, "Z": Z, "r": r, "delta": delta},
                       lhs, burgess_2r_rhs(q, Z, r, delta), MONITOR)


def _require_finite_moments(q: int, Z: int, r: int) -> None:
    """The 2r-th moments of q windows of length Z are at most q Z^(2r); below
    2^1023 they stay finite, with a bit to spare for the search's rounding."""
    require(Z >= 1 and r >= 1, "Z,r", "need Z >= 1 and r >= 1")
    require(math.log2(q) + 2 * r * math.log2(Z) < 1023, "r", f"need q Z^(2r) < 2^1023, got q={q}, Z={Z}, r={r}")


def _tau_prefix_max(n: int) -> np.ndarray:
    """max(tau(1..m)) at index m, for m = 0..max(n, 1)."""
    return np.maximum.accumulate(divisor_count_sieve(max(n, 1)))


def census_records(inst: CongruenceInstance, delta: float, tau_max: int) -> list[BoundCheckRecord]:
    """Two records per instance: the asserted explicit sub-bounds (worst
    normalized quotient vs 1) and the monitored full K envelope.  tau_max
    is the largest tau(m) over m < NY (1 when NY < 2)."""
    NY = inst.N * inst.Y
    checks = (
        ("diagonal", inst.diagonal, NY),
        ("kappa1", inst.kappa1 * inst.d, 2 * inst.Y**2),
        ("kappa2", inst.kappa2 * inst.d, 2 * inst.Y**2 * inst.rho),
        ("kappa3", inst.kappa3 * inst.d, inst.N * (inst.Y + inst.d) * tau_max),
    )
    worst = 0.0
    ok = inst.K == inst.diagonal + 2 * inst.kappa_total
    for _, num, den in checks:
        quotient = num / den if den else (math.inf if num else 0.0)
        worst = max(worst, quotient)
        if num > den:
            ok = False
    params = vars(inst) | {"tau_max": tau_max, "worst_bound": worst}
    assert_rec = make_record("CONGRUENCE_CENSUS", params, worst, 1.0, ASSERT, passed=ok)
    monitor_rec = make_record(
        "CONGRUENCE_K", vars(inst) | {"delta": delta},
        inst.K, lemma8_rhs(inst, delta), MONITOR,
    )
    return [assert_rec, monitor_rec]


# ---------------------------------------------------------------------------
# Seeded instance generation


def random_census_instances(count: int, seed: int, q_max: int = 5000) -> list[tuple]:
    """Deterministic valid parameter tuples (q, d, eta, k, M, N, Y)."""
    require(q_max >= 16, "q_max", f"need q_max >= 16, got {q_max}")
    rng = SplitMix64(seed)
    out = []
    while len(out) < count:
        q = rng.randint(16, q_max)
        d = rng.choice(divisors(factor(q)))
        y_hi = min((q - 1) // 2, 150)
        if d + 1 > y_hi:
            continue
        Y = rng.randint(d + 1, y_hi)
        n_hi = (q - 1) // (2 * Y)
        if n_hi < 1:
            continue
        N = rng.randint(1, min(n_hi, 300))
        if 2 * N * Y >= q:
            continue
        eta = rng.unit(q, q)
        k = rng.unit(1000, d)
        M = rng.below(1000)
        out.append((q, d, eta, k, M, N, Y))
    return out


def lemma8_verify(instances=None, *, random_count=0, seed=0, q_max=5000,
                  delta=1e-4) -> list[BoundCheckRecord]:
    """Census sub-bound assertions over explicit or seeded instances.

    Before the first census, every instance's preconditions and one work
    estimate of the batch are checked: N*Y_q per census (the y counted, not
    listed) plus the max N*Y entries of the one tau sieve for the batch."""
    if instances is None:
        instances = random_census_instances(random_count, seed, q_max)
    for inst in instances:
        validate_census_preconditions(*inst)
    coprime = [coprime_count(Y, q) for q, *_, Y in instances]
    check_work(sum(N * c for (*_, N, _), c in zip(instances, coprime))
               + max((N * Y for *_, N, Y in instances), default=0),
               f"verify lemma8 over {len(instances)} instances (N*Y_q pairs and the tau sieve)")
    timed = [_timed(congruence_census, *inst, c) for inst, c in zip(instances, coprime)]
    tau_max = _tau_prefix_max(max((inst.N * inst.Y - 1 for inst, _ in timed), default=1))
    records = []
    for inst, ms in timed:
        recs = census_records(inst, delta, int(tau_max[max(inst.N * inst.Y - 1, 1)]))
        for r in recs:
            r.runtime_ms = ms
        records.extend(recs)
    return records


# ---------------------------------------------------------------------------
# Identity verification sweeps (all ASSERT)


def hb_identity_records(cases: int = 50, seed: int = 0) -> list[BoundCheckRecord]:
    """Seeded decomposition-identity cases; residual < 1e-8 x asserted."""
    rng = SplitMix64(seed)
    records = []
    for i in range(cases):
        x = rng.randint(30, CASE_X_MAX)
        u1 = math.ceil(x ** (1 / 3)) if rng.below(2) == 0 else math.ceil(math.sqrt(x))
        r = rng.randint(1, 3)
        twist = rng.below(2) == 1
        params = {"case": i, "x": x, "u1": u1, "r": r}
        if twist:
            D = rng.randint(3, CASE_D_MAX)
            basis = unit_group_basis(D)
            chi = character_at(basis, 1 + rng.below(basis.phi - 1))
            chi_q = induce_primitive(chi)
            l = rng.unit(D, D)
            f = char_twist_weight(chi_q, l, x)
            params |= {"weight": "char-twist", "D": D, "q": chi_q.modulus, "l": l}
        else:
            f = np.ones(x + 1)
            params |= {"weight": "one"}
        dec, ms = _timed(hb_decompose, f, x, u1, r)
        records.append(
            make_record("HB_DECOMP", params, dec.residual, 1e-8 * x, ASSERT, runtime_ms=ms)
        )
    return records


def orthogonality_record(max_D: int = 500) -> BoundCheckRecord:
    """ORTHOGONALITY: sum_chi chi(n) = phi [n = 1] for every residue n mod
    every D <= max_D, asserted exactly on the integer phases of
    ``phase_index`` by ``_phase_count_errors``.  The lhs is the number of
    phase counts that differ, and the record passes only at 0; worst_D is
    the smallest D with the most (1 when there are none).  D runs downward,
    so the bases of the small moduli, which ``gauss_modulus_record`` reads
    next, are the last ones cached."""
    wrong, most, worst_D = 0, 0, 1
    for D in range(max_D, 0, -1):
        w = _phase_count_errors(unit_group_basis(D))
        if w and w >= most:
            most, worst_D = w, D
        wrong += w
    return make_record("ORTHOGONALITY", {"max_D": max_D, "worst_D": worst_D}, wrong, 1.0, ASSERT,
                       passed=wrong == 0)


# residues per bincount of _phase_count_errors: at most 2**15 count slots
# (256 KB of int64), which stay in cache.  At D = 499 one bincount over every
# residue (2 MB of slots) took 2.2 ms, and blocks of 64 residues 1.1 ms in all
# (2-CPU x86-64 host).
COUNT_SLOTS = 1 << 15


def _phase_count_errors(basis: UnitGroupBasis) -> int:
    """How many phase counts of the characters mod D break orthogonality.
    A bincount per block of residues counts the phases of every character
    at every residue n, t E + 1 slots per n, and the t copies of the E
    phases are folded.  A unit n of multiplicative order d must hold phi /
    d at each multiple of E / d and nothing elsewhere, so its values sum to
    phi at n = 1 and to 0 at every other unit; a non-unit must hold all phi
    at the slot t E, where its value is 0."""
    D, E, phi = basis.modulus.value, basis.exponent, basis.phi
    t = max(1, len(basis.orders))
    width = t * E + 1
    # the expected counts: one row per order d that occurs, 0 for a non-unit
    orders = _unit_orders(basis)
    kinds = np.flatnonzero(np.bincount(orders))
    expect = np.zeros((kinds.size, E + 1), dtype=np.int64)
    for row, d in zip(expect, kinds.tolist()):
        if d:
            row[: E : E // d] = phi // d
        else:
            row[E] = phi
    row_of = np.searchsorted(kinds, orders)
    index = phase_index(basis, [np.arange(m) for m in basis.orders])
    step = max(1, COUNT_SLOTS // width)
    wrong = 0
    for a in range(0, D, step):
        n = min(step, D - a)
        counts = np.bincount((index[:, a : a + n] + np.arange(0, n * width, width)).ravel(),
                             minlength=n * width).reshape(n, width)
        observed = counts[:, : E + 1]  # the E phases, then the slot of a non-unit
        for c in range(1, t):
            observed[:, :E] += counts[:, c * E : (c + 1) * E]
        observed[:, E] = counts[:, -1]
        wrong += np.count_nonzero(observed != expect[row_of[a : a + n]])
    return wrong


def _unit_orders(basis: UnitGroupBasis) -> np.ndarray:
    """The multiplicative order of every residue mod D, 0 on a non-unit,
    from the basis's generators and multiplication mod D alone, not its
    discrete logs: the unit g_1^k_1 ... g_t^k_t has order lcm_j m_j /
    gcd(k_j, m_j).  Generators that fail to generate leave units at 0.
    Products stay below D^2, exact in int64 at every D the work budget
    admits."""
    D = basis.modulus.value
    residues, orders = np.array([1 % D]), np.ones(1, dtype=np.int64)
    for g, m in basis.generators:
        powers = np.ones(m, dtype=np.int64)  # g^k mod D, the block [k, 2k) from [0, k)
        k = 1
        while k < m:
            powers[k : 2 * k] = powers[: min(k, m - k)] * pow(g, k, D) % D
            k *= 2
        residues = (residues[:, None] * powers % D).ravel()
        orders = np.lcm(orders[:, None], m // np.gcd(np.arange(m), m)).ravel()
    out = np.zeros(D, dtype=np.int64)
    out[residues] = orders
    return out


def gauss_modulus_record(max_q: int = 200) -> BoundCheckRecord:
    """GAUSS_MODULUS: | |tau(chi)|^2 - q | / q over every primitive character
    mod q <= max_q, asserted at 1e-6, with tau exactly rounded by
    ``gauss_sums``."""
    dev, worst_q, count = 0.0, 1, 0
    for q in range(1, max_q + 1):
        taus = np.array(gauss_sums(unit_group_basis(q)))
        if taus.size:
            count += taus.size
            d = float((np.abs(np.abs(taus) ** 2 - q) / q).max())
            if d > dev:
                dev, worst_q = d, q
    return make_record("GAUSS_MODULUS", {"max_q": max_q, "worst_q": worst_q, "characters": count},
                       dev, 1e-6, ASSERT)


def coprime_count_records(q_max: int = 1000, u_max: int = 1000) -> list[BoundCheckRecord]:
    """Exact-rational deviation bound over the full (q, U) grid."""
    (checked, worst), ms = _timed(coprime_count_sweep, q_max, u_max)
    return [
        make_record(
            "COPRIME_COUNT", {"q_max": q_max, "u_max": u_max, "pairs": checked},
            float(worst), 1.0, ASSERT, runtime_ms=ms,
        )
    ]


def recombination_records(cases: int = 20, seed: int = 0) -> list[BoundCheckRecord]:
    """Seeded divisor-recombination identity checks, asserted at 1e-9 mass."""
    rng = SplitMix64(seed)
    records = []
    done = 0
    while done < cases:
        D = rng.randint(6, CASE_D_MAX)
        basis = unit_group_basis(D)
        chi = character_at(basis, 1 + rng.below(basis.phi - 1))
        l = 1 + rng.below(D)
        if math.gcd(l, D) != 1:
            continue
        x = rng.randint(50, CASE_X_MAX)
        rec, ms = _timed(mobius_recombination, chi, l, x)
        records.append(
            make_record(
                "T_RECOMBINATION",
                {"case": done, "D": D, "q": induce_primitive(chi).modulus,
                 "l": l, "x": x, "nu_count": len(rec.nus)},
                rec.residual, 1e-9 * max(1.0, rec.abs_mass), ASSERT, runtime_ms=ms,
            )
        )
        done += 1
    return records


def identities_verify(max_D: int = 500, gauss_max_q: int = 200, hb_cases: int = 50,
                      coprime_max: int = 1000, recombination_cases: int = 20,
                      seed: int = 0) -> list[BoundCheckRecord]:
    """The full ASSERT suite: decomposition identity, orthogonality (exact,
    on integer phase counts), Gauss moduli, coprime-count deviation,
    divisor recombination.  A size that would leave an ASSERT record with
    no case to check, a negative case count, or phases, tables or a coprime
    sweep over the work budget is rejected before any work."""
    for name, value in (("max_D", max_D), ("gauss_max_q", gauss_max_q), ("coprime_max", coprime_max)):
        require(value >= 1, name, f"need {name} >= 1, so that its ASSERT checks at least one case, got {value}")
    for name, value in (("hb_cases", hb_cases), ("recombination_cases", recombination_cases)):
        require(value >= 0, name, f"need {name} >= 0, got {value}")
    # orthogonality_record builds phi(D) x D integer phases for every D <=
    # max_D, and gauss_modulus_record at most as many complex values, its
    # primitive rows, for every q <= gauss_max_q; the sum grows as D^3, so
    # it is checked per D
    name, top = ("max_D", max_D) if max_D >= gauss_max_q else ("gauss_max_q", gauss_max_q)
    entries = 0
    for D in range(1, top + 1):
        entries += euler_phi(factor(D)) * D * ((D <= max_D) + (D <= gauss_max_q))
        check_work(entries, f"{name} = {top} needs character phases and values (phi(D) x D integer phases "
                   f"per D <= max_D = {max_D}, at most as many values per q <= gauss_max_q = {gauss_max_q}); "
                   f"counting those of D <= {D}")
    check_work(coprime_max**2, f"the coprime-count sweep of coprime_max = {coprime_max} over (q, U) pairs")
    records = hb_identity_records(hb_cases, seed)
    for check, size in ((orthogonality_record, max_D), (gauss_modulus_record, gauss_max_q)):
        record, ms = _timed(check, size)
        records.append(replace(record, runtime_ms=ms))
    records.extend(coprime_count_records(coprime_max, coprime_max))
    records.extend(recombination_records(recombination_cases, seed))
    return records


# ---------------------------------------------------------------------------
# Monitored reports


# |FFT value - exact-kernel value| <= FFT_ERROR_C (log2(phi) + x // D) u M for
# every character and shift, where u = 2**-53 and M = sum of Lambda(n) over
# n <= x, which bounds the row's sum of |S_r|.  Per pass of a Cooley-Tukey
# FFT each output gains a few u times the input mass, so the error grows
# like log2(phi) u M (Higham, Accuracy and Stability of Numerical Algorithms,
# 2nd ed., 2002, sec. 24.1); a residue gathers at most x // D + 1 prime
# powers before the transform.  The constant is generous: it also covers
# pocketfft's Bluestein path for a prime length (three transforms and two
# chirp products, taken on the prime axes 641 and 317 of the split lattices
# (641, 78) of phi(49999) and (317, 316) of phi(100489)), the rounding of
# the character values and of log p in the exact kernel, and the final |.|.
# The largest |FFT - exact| / (log2(phi) u M) seen is 0.075 over every
# character at two shifts at D = 49999 and 100489 (150,000 values), and
# 0.18 at D = 1283, whose factor of order 2 * 641 keeps one axis.
FFT_ERROR_C = 64.0


def _fft_error(phi: int, gathered: int, mass: float) -> float:
    """The bound FFT_ERROR_C (log2(phi) + gathered) u mass on |FFT value -
    exact value| of a transform over phi characters whose residues each
    gather at most ``gathered`` + 1 terms of total absolute ``mass``."""
    return FFT_ERROR_C * (math.log2(phi) + gathered) * 2.0**-53 * mass


def _half_lattice(grid: np.ndarray) -> np.ndarray:
    """A lattice grid cut to the half lattice of ``unit_group_transform``, flat."""
    return grid[..., : grid.shape[-1] // 2 + 1].reshape(-1)


def _chi_index(idx: np.ndarray, orders: tuple[int, ...]) -> np.ndarray:
    """The smaller enumeration index of chi and conj chi at each half-lattice index."""
    e = np.unravel_index(idx, orders[:-1] + (orders[-1] // 2 + 1,))
    conj = tuple((-c) % m for c, m in zip(e, orders))
    return np.minimum(np.ravel_multi_index(e, orders), np.ravel_multi_index(conj, orders))


def _certified_max(basis: UnitGroupBasis, batches, classes, gap: float, evaluate, labels) -> list[tuple]:
    """Certify a transform search: per class of characters, (value,
    chi_index, label) of the exact maximum, ties to the smallest
    (chi_index, label).  ``batches`` yields (first_row, values) as
    ``unit_group_transform`` does, row b named ``labels[b]``; each class is
    a non-empty half-lattice mask inside the one before.  Per batch, widest
    class first, the columns outside the class are set to -inf in place
    (no class is copied) and the entries within ``gap`` of the batch's top
    are hits.  The hits within ``gap`` of the top over every batch, which
    no batch split changes, are taken at the smaller index of chi and conj
    chi and evaluated by ``evaluate(chi, label)``, once per pair."""
    outside = [np.flatnonzero(~mask) for mask in classes]
    found = [[] for _ in classes]
    for first_row, values in batches:
        values = values.reshape(len(values), -1)
        for cols, hits in zip(outside, found):
            values[:, cols] = -np.inf
            top = values.max(axis=1)
            floor = top.max() - gap
            rows = np.flatnonzero(top >= floor)
            r, c = np.nonzero(values[rows] >= floor)
            hits.append((values[rows[r], c], first_row + rows[r], c))
    labels = np.asarray(labels)
    keys = []
    for hits in found:
        vals, pos, idx = (np.concatenate(parts) for parts in zip(*hits))
        sel = vals >= vals.max() - gap
        keys.append(set(zip(_chi_index(idx[sel], basis.orders).tolist(), labels[pos[sel]].tolist())))
    exact, chi_at = {}, None
    for chi_index, label in sorted(set().union(*keys)):
        if chi_index != chi_at:
            chi, chi_at = character_at(basis, chi_index), chi_index
        exact[chi_index, label] = evaluate(chi, label)
    best = [min(ks, key=lambda k: (-exact[k], k)) for ks in keys]
    return [(exact[k], *k) for k in best]


def theorem_report(D_list, epsilon: float = 0.05, seed: int = 0) -> list[BoundCheckRecord]:
    """For each modulus: max of |T(chi, l)| over non-principal characters
    and a seeded sample of shifts l, against x exp(-0.6 sqrt(ln D)).

    The lhs is exact: |``shifted_prime_sum``| at a certified maximiser,
    whose ``chi_index`` and ``l`` go into the parameters (ties go to the
    smallest (chi_index, l)).  A batched real unit-group transform
    (``unit_group_transform``) only searches, and ``_certified_max``, the
    engine of ``report burgess`` too, evaluates exactly every (chi, l)
    whose |FFT value| lies within twice its error bound (FFT_ERROR_C) of
    the largest: the exact maximum over them is the maximum over all
    characters and shifts.  A hit stands for chi and conj chi, whose exact
    |T| are equal bit for bit.  The report bytes therefore depend neither
    on the FFT's rounding nor on the batch size.  For epsilon < 1/6, x <
    D, so each exact evaluation reads its character at the prime powers
    only (``sums._lambda_sum``): no value table is built, and for an odd D
    the transform is nearly all of the cost.

    Characters are additionally filtered by conductor > exp(sqrt(2 ln D));
    both the filtered and unfiltered maxima are recorded, each certified
    this way.  Moduli where no character passes the filter are skipped and
    logged.  Every modulus is checked (D >= 3, epsilon, x >= 2 and the work
    budget) before the first one is computed.

    An even D takes no Lambda sieve, transform or search.  Every shift l
    is odd, so chi(n - l) = 0 at each odd n and only the n = 2^k <= x with
    gcd(2^k - l, D) = 1 can add to T.  The record's ``support_k`` is the
    most such k at one of the same shifts, its ``l`` the smallest shift
    with that many, and ``lhs`` = ``lhs_unfiltered`` = support_k log 2: a
    proven bound on every |T(chi, l)| at those shifts, not a value of T,
    so ``chi_index`` is null.
    """
    exponent = 5.0 / 6.0 + epsilon
    moduli = []
    for D in D_list:
        require(D >= 3, "D", "need D >= 3")
        require(math.isfinite(epsilon) and exponent * math.log2(D) < MANGOLDT_CAP_BITS, "epsilon",
                f"need a finite epsilon with x = D^(5/6 + epsilon) below 2^{MANGOLDT_CAP_BITS}, "
                f"the Lambda sieve's cap; got epsilon={epsilon} at D={D}")
        x = math.ceil(D**exponent)
        require(x >= 2, "epsilon", f"need x = D^(5/6 + epsilon) >= 2 for a Lambda sum, "
                f"got x = {x} at D={D}, epsilon={epsilon}")
        f = factor(D)
        phi = euler_phi(f)
        # per shift: a Lambda gather and a transform over phi at an odd D, and
        # floor(log2 x) gcds at an even D, which builds only its basis and grid
        shifts, gcds = min(phi, 64), x.bit_length() - 1
        work = shifts * (prime_power_bound(x) + phi * int(math.log2(phi))) if D % 2 else phi + shifts * gcds
        check_work(work, f"report theorem at D = {D} ({shifts} shifts over phi = {phi} characters)")
        moduli.append((D, f, x))

    def one(modulus) -> BoundCheckRecord | None:
        D, f, x = modulus
        # not the cached unit_group_basis: each modulus is visited once, so
        # its tables go when its record is made
        basis = UnitGroupBasis(f)
        phi = basis.phi
        if phi <= 64:
            ls = [l for l in range(1, D) if math.gcd(l, D) == 1]
        else:
            rng = SplitMix64(SplitMix64(seed ^ D).next_u64())
            ls = rng.distinct(1, D - 1, 64, accept=lambda v: math.gcd(v, D) == 1)
        threshold = math.exp(math.sqrt(2.0 * math.log(D)))
        cond = basis.conductor_grid()
        pass_filter = cond.reshape(-1) > threshold
        pass_filter[0] = False  # principal
        if not pass_filter.any():
            log.warning("theorem_report: no conductor above %.3f for D=%d, skipped", threshold, D)
            return None
        params = {
            "D": D, "x": x, "epsilon": epsilon, "seed": seed,
            "l_count": len(ls), "conductor_threshold": threshold,
            "n_characters": phi - 1, "n_pass_filter": int(pass_filter.sum()),
        }
        if D % 2 == 0:
            # every shift is odd, so chi(n - l) = 0 at odd n and only the
            # n = 2^k <= x whose n - l is a unit can add Lambda(2) = log 2
            support = {l: sum(math.gcd(2**k - l, D) == 1 for k in range(1, x.bit_length())) for l in ls}
            s = max(support.values())
            lhs = s * math.log(2)
            l = min(l for l in ls if support[l] == s)
            params.update(lhs_unfiltered=lhs, chi_index=None, l=l, support_k=s)
            return make_record("THEOREM_T", params, lhs, theorem_rhs(D, x), MONITOR)
        n, lam = mangoldt_terms(x)
        bound = _fft_error(phi, x // D, float(lam.sum()))
        # int32 residues mod D, as D < 2^31 (the budget caps phi near 8 10^5):
        # the transform reads this shifts x pi*(x) array whole, and int64
        # would add up to 2 MB per modulus to the peak RSS
        shifts = np.array(ls, dtype=np.int32)
        residues = ((n % D).astype(np.int32)[None, :] - shifts[:, None]) % D
        half = _half_lattice(cond)
        (lhs_unfiltered, _, _), (lhs, chi_index, l) = _certified_max(
            basis, unit_group_transform(basis, residues, lam), (half > 1, half > threshold), 2 * bound,
            lambda chi, l: abs(shifted_prime_sum(chi, l, x).value), ls,
        )
        params.update(lhs_unfiltered=lhs_unfiltered, chi_index=chi_index, l=l)
        return make_record("THEOREM_T", params, lhs, theorem_rhs(D, x), MONITOR)

    results = map_blocks(lambda modulus: _timed(one, modulus), moduli)
    return [replace(r, runtime_ms=ms) for r, ms in results if r is not None]


def burgess_report(q_max: int = 300, Z: int = 20, r: int = 2, delta: float = 1e-4) -> list[BoundCheckRecord]:
    """Moment-vs-envelope ratios over primes q <= q_max, plus a summary
    record carrying the observed maximum ratio.  Finite moments and the
    phi(q) x q transform lattice entries are checked before any basis."""
    require(q_max >= 3, "q_max", f"need q_max >= 3, so that at least one prime is checked, got {q_max}")
    primes = [int(p) for p in primes_up_to(q_max) if p >= 3]
    _require_finite_moments(primes[-1], min(Z, primes[-1] - 1), r)
    entries = sum((q - 1) * q for q in primes)
    check_work(entries, f"q_max = {q_max} needs {entries} lattice entries of the unit-group transform "
               "(phi(q) x q over the primes q); transforming them")
    records = []
    for q in primes:
        record, ms = _timed(burgess_check_2r, q, min(Z, q - 1), r, delta)
        records.append(replace(record, runtime_ms=ms))
    worst = max(rec.ratio for rec in records)
    records.append(
        make_record(
            "BURGESS_2R", {"summary": True, "q_max": q_max, "Z": Z, "r": r, "max_ratio": worst},
            worst, 1.0, MONITOR,
        )
    )
    records[-1].verdict = "observed-max"
    return records


def divisor_moment_report(x_grid=(100, 1000, 10**4, 10**5)) -> list[BoundCheckRecord]:
    """Moment records over an x-grid, for each r in MOMENT_R and k in
    MOMENT_K, with the fitted constant (the observed max ratio, i.e. the
    least constant making the envelope hold there)."""
    records = []
    x_max = max(x_grid)
    for r in MOMENT_R:
        tau = tau_r_sieve(x_max, r)
        for k in MOMENT_K:
            # every prefix sum is at most x_max max(tau)^k, so int64 holds it
            need = int(tau.max()) ** k * x_max
            require(need < 2**63, "x_max", f"the tau_{r}^{k} sums need x_max * max tau_{r}^{k} = "
                    f"{need} below 2^63 at x_max = {x_max}")
            csum = np.cumsum(tau**k)
            fitted = 0.0
            group = []
            for x in sorted(x_grid):
                lhs = int(csum[x])
                rec = make_record(
                    "DIVISOR_MOMENT", {"x": x, "r": r, "k": k},
                    lhs, divisor_moment_rhs(x, r, k), MONITOR,
                )
                fitted = max(fitted, rec.ratio)
                group.append(rec)
            summary = make_record(
                "DIVISOR_MOMENT",
                {"summary": True, "r": r, "k": k, "fitted_constant": fitted,
                 "x_grid": list(sorted(x_grid))},
                fitted, 1.0, MONITOR,
            )
            summary.verdict = "observed-max"
            records.extend(group)
            records.append(summary)
    return records


def smooth_report() -> list[BoundCheckRecord]:
    """Smooth-count envelope over a fixed admissible (x, z, b) grid."""
    records = []
    for x in (10**3, 10**4, 10**5):
        z_lo = math.ceil(math.log(x))
        z_hi = math.floor(x ** (1 / math.e))
        for z in sorted({z_lo, (z_lo + z_hi) // 2, z_hi}):
            records.extend(smooth_bound_check(x, z, b) for b in (1, 30))
    return records


def tail_report(pairs=((30030, 30030), (510510, 510510), (9699690, 9699690), (30030, 9699690))) -> list[BoundCheckRecord]:
    """Big-divisor tail sums on a fixed (q, D) grid."""
    records = []
    for q, D in pairs:
        (pair, ms) = _timed(big_divisor_tail, q, D)
        lhs, rhs = pair
        records.append(
            make_record("BIG_DIVISOR_TAIL", {"q": q, "D": D}, lhs, rhs, MONITOR, runtime_ms=ms)
        )
    return records


def restricted_report(D: int, x: int, seed: int = 0) -> list[BoundCheckRecord]:
    """|T(chi_q, nu)| against the quoted intermediate envelope, for the
    first non-principal character and squarefree nu | q1."""
    require(x >= 2, "x", f"need x >= 2, where the envelope 10 x ln^5 x is positive, got {x}")
    basis = unit_group_basis(D)
    require(basis.phi > 1, "D", "need a non-principal character")
    chi = character_at(basis, 1)
    chi_q = induce_primitive(chi)
    q = chi_q.modulus
    l = SplitMix64(seed).unit(D, D)
    nus = recombination_nus(D, q)[:RESTRICTED_MAX_NU]
    bin_lambda(x, q * math.lcm(*nus))  # every restricted sum below folds these bins
    records = []
    for nu in nus:
        val, ms = _timed(restricted_sum, chi_q, nu, l, x)
        records.append(
            make_record(
                "T_RESTRICTED", {"D": D, "q": q, "nu": nu, "l": l, "x": x},
                abs(val.value), restricted_envelope_rhs(q, nu, x), MONITOR, runtime_ms=ms,
            )
        )
    return records


def short_sum_report(seed: int = 0, delta: float = 1e-4) -> list[BoundCheckRecord]:
    """Window-sum ratios for the two short-sum envelopes on seeded
    admissible parameters (D = q prime, d = nu = 1)."""
    require(delta <= 5 / 12, "delta", f"need delta <= 5/12, so that q^(1/3 + 8 delta/5) <= q, got {delta}")
    rng = SplitMix64(seed)
    records = []
    for q in (541, 1009, 2003):
        D = q
        basis = unit_group_basis(q)
        chi_q = character_at(basis, 1)
        d = 1
        n_cap = math.floor(q ** (7 / 12) / math.sqrt(d)) - 1
        N = rng.randint(max(2, n_cap // 2), n_cap)
        M = rng.below(q)
        eta = rng.unit(q - 1, q)
        k = 1
        val, ms = _timed(short_sum, chi_q, M, N, d, k, eta)
        records.append(
            make_record(
                "SHORT_S", {"D": D, "q": q, "M": M, "N": N, "d": d, "k": k, "eta": eta,
                            "delta": delta},
                abs(val.value), short_sum_rhs(N, q, d, delta), MONITOR, runtime_ms=ms,
            )
        )
        y_lo = math.ceil(q ** (1 / 3 + 8 * delta / 5))
        y = rng.randint(y_lo, q)
        u = rng.randint(y, 3 * q)
        val, ms = _timed(sy_sum, chi_q, u, y, eta, 1)
        records.append(
            make_record(
                "SHORT_SY", {"D": D, "q": q, "u": u, "y": y, "eta": eta, "nu": 1},
                abs(val.value), sy_rhs(y, 1, D), MONITOR, runtime_ms=ms,
            )
        )
    return records


def double_sum_report(seed: int = 0, delta: float = 1e-4) -> list[BoundCheckRecord]:
    """Bilinear-sum ratios: averaged-coefficient envelope plus the two
    corollary envelopes on their own admissible windows (D = q prime, nu=1)."""
    rng = SplitMix64(seed)
    records = []
    for q in (1009, 4001):
        D = q
        basis = unit_group_basis(q)
        chi_q = character_at(basis, 1)
        # quartic-route window: N around q^(1/4)
        N = max(4, math.floor(q ** 0.25))
        U = N + rng.below(N - 1) + 1 if N > 1 else N
        U = min(U, 2 * N - 1)
        M = rng.randint(8, 40)
        x = 4 * M * N
        a_m = "tau5:" + str(seed)
        val, ms = _timed(double_sum, chi_q, a_m, "one", M, N, U, 1, 1, x)
        rhs = double_sum_rhs(M, N, q, 1.0, 4.0, 24.0, D, delta)
        records.append(
            make_record(
                "DOUBLE_W", {"D": D, "q": q, "M": M, "N": N, "U": U, "x": x,
                             "a_m": a_m, "b_n": "one", "delta": delta},
                abs(val.value), rhs, MONITOR, runtime_ms=ms,
            )
        )
        # corollary envelope x/nu exp(-0.7 sqrt(ln D)) on the same window
        x_cor = math.ceil(q ** (0.75 + THETA + 1.1 * delta))
        val2, ms2 = _timed(double_sum, chi_q, a_m, "one", M, N, U, 1, 1, x_cor)
        records.append(
            make_record(
                "DOUBLE_W_COROLLARY",
                {"D": D, "q": q, "M": M, "N": N, "U": U, "x": x_cor, "theta": THETA,
                 "a_m": a_m, "b_n": "one"},
                abs(val2.value), sy_rhs(x_cor, 1, D), MONITOR, runtime_ms=ms2,
            )
        )
    return records


def constants_report(q_max: int = 1000) -> list[BoundCheckRecord]:
    """Fitted constants for the omega(q) envelope and the phi(q)/2q display.

    Emits, per envelope, the observed extreme constant on the grid (the
    least c_omega making omega(q) <= c ln q / ln ln q hold, and both the
    least upper and greatest lower constant for phi(q) ln ln q / 2q).
    """
    require(q_max >= 3, "q_max", f"need q_max >= 3, the first modulus of the grid, got {q_max}")
    check_work(q_max * trial_divisions(q_max), f"factoring every q <= q_max = {q_max}")
    worst_omega, worst_omega_q, max_phi, min_phi = 0.0, 3, 0.0, math.inf
    for q in range(3, q_max + 1):
        f = factor(q)
        lq = math.log(q)
        llq = math.log(lq)  # > 0 from q = 3 on
        c_om = omega(f) * llq / lq
        if c_om > worst_omega:
            worst_omega, worst_omega_q = c_om, q
        ratio = euler_phi(f) * llq / (2.0 * q)
        max_phi = max(max_phi, ratio)
        min_phi = min(min_phi, ratio)
    rec1 = make_record(
        "OMEGA_ENVELOPE",
        {"q_max": q_max, "worst_q": worst_omega_q, "fitted_c_omega": worst_omega,
         "configured_c_omega": C_OMEGA},
        worst_omega, C_OMEGA, MONITOR,
    )
    rec2 = make_record(
        "PHI_RATIO",
        {"q_max": q_max, "fitted_c_phi_upper": max_phi, "fitted_c_phi_lower": min_phi,
         "configured_c_phi": C_PHI},
        max_phi, C_PHI, MONITOR,
    )
    return [rec1, rec2]
