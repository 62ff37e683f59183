"""One repetition of a benchmark workload, in a fresh interpreter.

Usage: python3 bench/worker.py SPEC.json SPAWNED_NS

SPEC.json is written by bench/run.py; SPAWNED_NS is the CLOCK_MONOTONIC
reading the parent took just before starting this process, so set-up time
covers interpreter start, ``import charsum`` and loading the inputs.  The
commands run through ``charsum.cli.main`` one after another in this process,
as one timed region.  Results go to ``result.json`` (and ``spans.json`` when
traced) next to SPEC.json.
"""

import io
import json
import math
import os
import random
import resource
import sys
import time
import traceback
from contextlib import redirect_stdout

import charsum
import charsum.cli
import numpy


def run_commands(commands) -> tuple[list, int]:
    ops = []
    t0 = time.perf_counter_ns()
    for argv in commands:
        buf = io.StringIO()
        error = None
        code = None
        t_cmd = time.perf_counter_ns()
        try:
            with redirect_stdout(buf):
                code = charsum.cli.main(argv)
        except Exception:  # a crash is a failed operation, not a failed run
            error = traceback.format_exc()
        ops.append({"exit": code, "error": error, "stdout": buf.getvalue(),
                    "seconds": (time.perf_counter_ns() - t_cmd) / 1e9})
    return ops, time.perf_counter_ns() - t0


def random_character(rng, D):
    basis = charsum.unit_group_basis(D)
    while True:
        exps = tuple(rng.randrange(m) for m in basis.orders)
        if any(exps):
            return charsum.DirichletCharacter(basis, exps)


def oracle_checks(seed: int, moduli: list, x_lo: int) -> list:
    """Fast evaluators against charsum.oracles on seeded cases, with the
    tolerance the test suite uses: 1e-9 of the absolute term mass."""
    from charsum import oracles
    from charsum.sums import restricted_sum, shifted_prime_sum

    rng = random.Random(seed)
    checks = []
    for _ in range(2):
        D = rng.choice(moduli)
        chi = random_character(rng, D)
        l = rng.randrange(1, D)
        while math.gcd(l, D) != 1:
            l = rng.randrange(1, D)
        x = x_lo + rng.randrange(1000)
        chi_q = charsum.induce_primitive(chi)
        q = chi_q.modulus
        q1 = math.prod(p for p in charsum.factor(D).primes if q % p)
        nu = rng.choice(charsum.divisors(q1))
        cases = (
            ("shifted_prime_sum", {"D": D, "exponents": chi.exponents, "l": l, "x": x},
             lambda: shifted_prime_sum(chi, l, x), lambda: oracles.shifted_prime_sum_oracle(chi, l, x)),
            ("restricted_sum", {"q": q, "exponents": chi_q.exponents, "nu": nu, "l": l, "x": x},
             lambda: restricted_sum(chi_q, nu, l, x),
             lambda: oracles.restricted_sum_oracle(chi_q, nu, l, x)),
        )
        for name, params, fast_fn, slow_fn in cases:
            entry = {"evaluator": name, "params": params, "ok": False}
            try:
                fast = fast_fn()
                slow = slow_fn()
                entry["error"] = abs(fast.value - slow)
                entry["tolerance"] = 1e-9 * max(1.0, fast.abs_term_sum)
                entry["ok"] = entry["error"] <= entry["tolerance"]
            except Exception:
                entry["exception"] = traceback.format_exc()
            checks.append(entry)
    return checks


def main() -> None:
    spec_path, spawned_ns = sys.argv[1], int(sys.argv[2])
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    ready_ns = time.monotonic_ns()

    workdir = os.path.dirname(spec_path)
    result = {
        "setup_s": (ready_ns - spawned_ns) / 1e9,
        "charsum_file": charsum.__file__,
        "charsum_version": charsum.__version__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if not spec["setup_only"]:
        import tracer  # bench/tracer.py, imported after the set-up clock stopped

        recorder = tracer.Tracer() if spec["trace"] else None
        if recorder is not None:
            recorder.install()
        try:
            ops, wall_ns = run_commands(spec["commands"])
        finally:
            if recorder is not None:
                recorder.restore()
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["wall_s"] = wall_ns / 1e9
        result["ops"] = ops
        result["wrappers_left"] = tracer.installed_wrappers()
        if recorder is not None:
            with open(os.path.join(workdir, "spans.json"), "w", encoding="utf-8") as fh:
                json.dump(recorder.spans, fh)
        if spec["oracle"]:
            result["oracle"] = oracle_checks(**spec["oracle"])
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
