"""Acceptance criteria, one test per criterion.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them live) and produces a canonical bytes artifact; the final criterion
re-runs the one criterion with a parallel path, the monitored reports, at
two thread-pool widths and demands byte identity.  Exact identities and
explicit-constant bounds are asserted at the stated tolerances; asymptotic
envelopes only need finite ratios.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from charsum import oracles, util
from charsum.bounds import (
    burgess_report,
    divisor_moment_report,
    hb_identity_records,
    lemma8_verify,
    recombination_records,
    smooth_report,
    tail_report,
    theorem_report,
)
from charsum.characters import (
    all_character_tables,
    enumerate_characters,
    unit_group_basis,
)
from charsum.integers import euler_phi, factor
from charsum.reports import records_to_jsonl
from charsum.sums import (
    coeff_mobius,
    coeff_one,
    coprime_count_sweep,
    double_sum,
    restricted_sum,
    shifted_prime_sum,
    short_sum,
    sy_sum,
)
from charsum.util import SplitMix64

ACCEPT_SEED = 7

# D grid for the main-sum report: twelve primes and ten composites up to
# 1e5.  557, 40009 and 49999 run the transform on a split lattice (the
# factors 139, 1667 and 641 of phi get their own axis)
THEOREM_MODULI = (
    101, 211, 401, 557, 1009, 2003, 5003, 10007, 20011, 40009, 49999, 99991,
    105, 729, 1024, 1155, 4725, 9240, 15015, 30030, 45045, 99990,
)

_ARTIFACTS: dict[int, bytes] = {}


def _run_criterion(number, budget_s, fn):
    """Run one criterion body, print its PASS/FAIL line, cache the artifact."""
    t0 = time.monotonic()
    ok, detail, artifact = fn()
    elapsed = time.monotonic() - t0
    verdict = "PASS" if ok and elapsed < budget_s else "FAIL"
    print(f"ACCEPTANCE {number}: {verdict} ({detail}, {elapsed:.1f}s < {budget_s:.0f}s)")
    if ok:
        _ARTIFACTS[number] = artifact
    assert ok, f"criterion {number}: {detail}"
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s (budget {budget_s}s)"


# ---------------------------------------------------------------------------
# criterion bodies (the seventh is reused by the determinism criterion)


def _c1_body():
    records = hb_identity_records(cases=50, seed=ACCEPT_SEED)
    bad = [r for r in records if r.verdict != "pass"]
    worst = max(r.ratio for r in records)
    return (
        not bad,
        f"50 decomposition cases, worst residual/tolerance {worst:.2e}",
        records_to_jsonl(records, {"criterion": 1}),
    )


def _c2_body():
    pairs, worst = coprime_count_sweep(1000, 1000)
    artifact = json.dumps({"pairs": pairs, "worst": str(worst)}, sort_keys=True).encode()
    return (
        pairs == 10**6,
        f"10^6 exact-rational deviation checks, worst deviation/bound {float(worst):.4f}",
        artifact,
    )


def _c3_body():
    records = lemma8_verify(random_count=500, seed=ACCEPT_SEED, q_max=5000)
    asserts = [r for r in records if r.mode == "ASSERT"]
    bad = [r for r in asserts if r.verdict != "pass"]
    worst = max(r.lhs for r in asserts)
    return (
        len(asserts) == 500 and not bad,
        f"500 census instances, worst sub-bound quotient {worst:.3f}",
        records_to_jsonl(records, {"criterion": 3}),
    )


def _c4_body():
    worst_orth = 0.0
    for D in range(1, 501):
        basis = unit_group_basis(D)
        sums = all_character_tables(basis).sum(axis=0)
        want = np.zeros(D)
        want[1 % D] = basis.phi
        worst_orth = max(worst_orth, float(np.abs(sums - want).max()) / (1e-9 * basis.phi))
    worst_gauss = 0.0
    n_prim = 0
    for q in range(1, 201):
        basis = unit_group_basis(q)
        tables = all_character_tables(basis)
        prim = basis.conductor_grid().reshape(-1) == q
        if not prim.any():
            continue
        phases = np.exp((2j * np.pi / q) * np.arange(q))
        taus = (tables[prim] * phases[None, :]).sum(axis=1)
        n_prim += int(prim.sum())
        worst_gauss = max(worst_gauss, float((np.abs(np.abs(taus) ** 2 - q) / (1e-6 * q)).max()))
    counts_ok = True
    total = 0
    for D in range(1, 2001):
        basis = unit_group_basis(D)
        n = sum(1 for _ in enumerate_characters(basis))
        total += n
        if n != euler_phi(factor(D)):
            counts_ok = False
            break
    ok = worst_orth < 1.0 and worst_gauss < 1.0 and counts_ok
    artifact = json.dumps(
        {
            "worst_orthogonality": repr(worst_orth),
            "worst_gauss": repr(worst_gauss),
            "primitive_characters": n_prim,
            "character_total_to_2000": total,
        },
        sort_keys=True,
    ).encode()
    return (
        ok,
        f"orthogonality x{worst_orth:.2e}, gauss x{worst_gauss:.2e}, "
        f"{total} characters counted",
        artifact,
    )


def _c5_cases():
    rng = SplitMix64(ACCEPT_SEED + 5)

    def pick_modulus(lo, hi):
        while True:
            D = rng.randint(lo, hi)
            basis = unit_group_basis(D)
            if basis.phi > 1:
                return D, basis

    def pick_char(basis):
        cs = list(enumerate_characters(basis))
        return cs[1 + rng.below(len(cs) - 1)]

    def pick_unit(D):
        while True:
            l = rng.randint(1, D - 1)
            if math.gcd(l, D) == 1:
                return l

    def size(i):
        # five large cases per evaluator reach 1e5, the rest stay moderate
        return rng.randint(10**4, 10**5) if i % 4 == 0 else rng.randint(100, 10**4)

    cases = {"shifted": [], "restricted": [], "short": [], "sy": [], "double": []}
    for i in range(20):
        D, basis = pick_modulus(3, 500)
        chi = pick_char(basis)
        cases["shifted"].append((chi, pick_unit(D), size(i)))
    for i in range(20):
        D, basis = pick_modulus(3, 500)
        chi = pick_char(basis)
        nu = rng.randint(1, 8)
        while math.gcd(nu, D) != 1:
            nu = rng.randint(1, 8)
        l = pick_unit(D * nu)
        cases["restricted"].append((chi, nu, l, size(i)))
    for i in range(20):
        D, basis = pick_modulus(3, 500)
        chi = pick_char(basis)
        eta = pick_unit(D)
        d = rng.randint(1, 12)
        k = rng.randint(1, 12)
        while math.gcd(d, k) != 1:
            k = rng.randint(1, 12)
        cases["short"].append((chi, rng.randint(0, 10**5), size(i), d, k, eta))
    for i in range(20):
        D, basis = pick_modulus(3, 500)
        chi = pick_char(basis)
        nu = rng.randint(1, 8)
        while math.gcd(nu * D, nu) != nu or math.gcd(nu, D) != 1:
            nu = rng.randint(1, 8)
        eta = pick_unit(D)
        while math.gcd(eta, nu * D) != 1:
            eta = pick_unit(D)
        y = size(i)
        cases["sy"].append((chi, y + rng.below(10**4), y, eta, nu))
    for i in range(20):
        D, basis = pick_modulus(3, 300)
        chi = pick_char(basis)
        N = rng.randint(4, 250)
        U = N + rng.below(N - 1)
        M = rng.randint(2, 200)
        x = rng.randint(M * N // 2, min(4 * M * N, 10**5))
        nu = rng.randint(1, 6)
        a = coeff_mobius if i % 2 else coeff_one
        cases["double"].append((chi, a, coeff_one, M, N, U, nu, 1, x))
    return cases


def _c5_body():
    cases = _c5_cases()
    results = []
    checked = 0

    def ok_pair(fast, slow, mass):
        return abs(fast - slow) <= 1e-9 * max(1.0, mass)

    all_ok = True
    for (chi, l, x) in cases["shifted"]:
        fast = shifted_prime_sum(chi, l, x)
        slow = oracles.shifted_prime_sum_oracle(chi, l, x)
        all_ok &= ok_pair(fast.value, slow, fast.abs_term_sum)
        results.append(("shifted", chi.modulus, l, x, repr(fast.value.real), repr(fast.value.imag)))
        checked += 1
    for (chi, nu, l, x) in cases["restricted"]:
        fast = restricted_sum(chi, nu, l, x)
        slow = oracles.restricted_sum_oracle(chi, nu, l, x)
        all_ok &= ok_pair(fast.value, slow, fast.abs_term_sum)
        results.append(("restricted", chi.modulus, nu, l, x, repr(fast.value.real)))
        checked += 1
    for (chi, M, N, d, k, eta) in cases["short"]:
        fast = short_sum(chi, M, N, d, k, eta)
        slow = oracles.short_sum_oracle(chi, M, N, d, k, eta)
        all_ok &= ok_pair(fast.value, slow, fast.abs_term_sum)
        results.append(("short", chi.modulus, M, N, d, k, eta, repr(fast.value.real)))
        checked += 1
    for (chi, u, y, eta, nu) in cases["sy"]:
        fast = sy_sum(chi, u, y, eta, nu)
        slow = oracles.sy_sum_oracle(chi, u, y, eta, nu)
        all_ok &= ok_pair(fast.value, slow, fast.abs_term_sum)
        results.append(("sy", chi.modulus, u, y, eta, nu, repr(fast.value.real)))
        checked += 1
    for (chi, a, b, M, N, U, nu, l, x) in cases["double"]:
        fast = double_sum(chi, a, b, M, N, U, nu, l, x)
        slow = oracles.double_sum_oracle(chi, a, b, M, N, U, nu, l, x)
        all_ok &= ok_pair(fast.value, slow, fast.abs_term_sum)
        results.append(("double", chi.modulus, M, N, U, nu, x, repr(fast.value.real)))
        checked += 1
    artifact = json.dumps(results, sort_keys=True).encode()
    return all_ok, f"{checked} evaluator-vs-oracle cases (5 evaluators x 20)", artifact


def _c6_body():
    records = recombination_records(cases=20, seed=ACCEPT_SEED)
    bad = [r for r in records if r.verdict != "pass"]
    worst = max((r.ratio for r in records), default=0.0)
    return (
        len(records) == 20 and not bad,
        f"20 recombination identities, worst residual/tolerance {worst:.2e}",
        records_to_jsonl(records, {"criterion": 6}),
    )


def _c7_records():
    recs = []
    recs.extend(theorem_report(THEOREM_MODULI, epsilon=0.05, seed=ACCEPT_SEED))
    recs.extend(burgess_report(q_max=300, Z=20, r=2))
    recs.extend(divisor_moment_report())
    recs.extend(tail_report())
    recs.extend(smooth_report())
    # as the CLI writes them without --timings, so that reruns compare equal
    return [replace(r, runtime_ms=None) for r in recs]


def _c7_body():
    records = _c7_records()
    blob = records_to_jsonl(records, {"criterion": 7, "seed": ACCEPT_SEED})
    blob_again = records_to_jsonl(_c7_records(), {"criterion": 7, "seed": ACCEPT_SEED})
    theorem_recs = [r for r in records if r.lemma_tag == "THEOREM_T"]
    finite = all(
        math.isfinite(r.lhs) and math.isfinite(r.ratio) and r.rhs > 0 for r in records
    )
    ok = (
        len(theorem_recs) == len(THEOREM_MODULI)
        and finite
        and blob == blob_again
        and all(r.mode == "MONITOR" for r in records)
    )
    return (
        ok,
        f"{len(records)} monitored records over {len(theorem_recs)} moduli, rerun byte-identical",
        blob,
    )


def test_criterion_1_decomposition_identity():
    _run_criterion(1, 60, _c1_body)


def test_criterion_2_coprime_count_exact():
    _run_criterion(2, 60, _c2_body)


def test_criterion_3_census_sub_bounds():
    _run_criterion(3, 300, _c3_body)


def test_criterion_4_character_algebra():
    _run_criterion(4, 120, _c4_body)


def test_criterion_5_oracle_equivalence():
    _run_criterion(5, 120, _c5_body)


def test_criterion_6_mobius_recombination():
    _run_criterion(6, 60, _c6_body)


def test_criterion_7_monitored_reports():
    _run_criterion(7, 600, _c7_body)


def test_criterion_8_determinism_across_pool_widths(monkeypatch):
    """theorem_report runs its moduli on a pool as wide as the CPUs; the
    criterion 7 reports, split-lattice moduli among them, must not depend
    on that width."""
    t0 = time.monotonic()
    artifacts = {}
    for width in (1, 4):
        monkeypatch.setattr(util, "usable_cpus", lambda: width)
        ok, _, artifacts[width] = _c7_body()
        assert ok
    elapsed = time.monotonic() - t0
    # criterion 7 itself ran at the default width, min(moduli, CPUs)
    same = artifacts[1] == artifacts[4] == _ARTIFACTS.get(7, artifacts[1])
    print(
        f"ACCEPTANCE 8: {'PASS' if same else 'FAIL'} (criterion 7 byte-identical for "
        f"pool widths 1 and 4, {elapsed:.1f}s)"
    )
    assert same, "criterion 7 reports depend on the pool width"
