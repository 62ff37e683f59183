"""charsum benchmark: one workload per invocation, each repetition in a fresh
interpreter that runs the workload's CLI commands through ``charsum.cli``.

    python3 bench/run.py --workload tsum|verify|theorem --seed N --seconds S --trace 0|1

The inputs (the argv of every command) come from the seed alone.  With
``--trace 0`` the run repeats the workload untraced for about S seconds
(three repetitions at least) and reports the end-to-end metrics as
medians.  With ``--trace 1`` it alternates untraced and traced repetitions
and reports the per-layer metrics; see bench/README.md for every metric and
the change each one is meant to detect.

Every repetition is checked: each command exits 0, each ASSERT record is
``pass``, each report or printed result is byte-identical across all
repetitions of the run, ``sum T`` enumerates exactly the prime powers up to
x, the untraced repetitions hold no wrapper and the traced ones leave none
behind.  On the first repetition, after its timed region, the fast
evaluators are compared with ``charsum.oracles``.  The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a manifest of versions and settings is printed before it and
written to bench/results/ with every sample.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_REPS = 3
SETUP_PROBES = 2  # before each repetition
SETUP_TIMEOUT_S = 30
RUN_DEADLINE_S = 150  # no new repetition starts after this; runs end < 180 s
CHILD_TIMEOUT_S = 175

# tsum: the README `sum T` and `report restricted` commands at large x
TSUM_MODULI = (4725, 9216, 30030, 99991)
TSUM_X = (10**7, 2 * 10**7)
TSUM_RESTRICTED_D = 4725

# theorem: fixed moduli in [1e4, 2e5], all with phi > 64 so the seed picks
# only the 64 shifts.  Primes (one with a non-smooth phi), squarefree
# composites, odd prime powers, powers of two and mixed shapes.
THEOREM_MODULI = (10007, 49999, 99991, 163841, 30030, 46189, 111111, 19683,
                  78125, 117649, 100489, 16384, 131072, 12600, 55440, 180000)
THEOREM_THREADS = 2

ORACLE_X = 20000
OUT = "{output}"  # replaced by a per-repetition report path


class Plan(NamedTuple):
    """A workload's generated inputs."""

    commands: list[list[str]]
    threads: int
    oracle_moduli: list[int]


def _phi(n: int) -> int:
    out, p, rest = n, 2, n
    while p * p <= rest:
        if rest % p == 0:
            out -= out // p
            while rest % p == 0:
                rest //= p
        p += 1
    return out - out // rest if rest > 1 else out


def _report(*argv) -> list[str]:
    return [*map(str, argv), "--output", OUT]


def tsum_plan(seed: int) -> Plan:
    rng = random.Random(f"tsum:{seed}")
    commands = []
    for x in TSUM_X:
        for D in TSUM_MODULI:
            l = rng.randrange(1, D)
            while math.gcd(l, D) != 1:
                l = rng.randrange(1, D)
            for index in sorted(rng.sample(range(1, _phi(D)), 2)):
                commands.append(["sum", "T", "--D", str(D), "--l", str(l), "--x", str(x),
                                 "--chi-index", str(index)])
        # the report's own seed stays at its default, so every seed does the same work
        commands.append(_report("report", "restricted", "--D", TSUM_RESTRICTED_D, "--x", x))
    return Plan(commands, 1, list(TSUM_MODULI))


def verify_plan(seed: int) -> Plan:
    # identities keeps its default seed: its 20 recombination cases set the
    # Lambda terms, which would otherwise swing by +-20% from seed to seed
    commands = [
        _report("verify", "identities", "--max-D", 500),
        _report("verify", "lemma8", "--random", 500, "--seed", seed),
        _report("report", "divisor-moments"),
    ]
    return Plan(commands, 1, list(range(3, 501)))


def theorem_plan(seed: int) -> Plan:
    commands = [
        _report("report", "theorem", "--D-list", ",".join(map(str, THEOREM_MODULI)),
                "--seed", seed),
        _report("report", "burgess", "--q-max", 300),
    ]
    return Plan(commands, THEOREM_THREADS, list(THEOREM_MODULI))


PLANS = {"tsum": tsum_plan, "verify": verify_plan, "theorem": theorem_plan}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("terms_per_s", "1/s"),
    ("checks_per_s", "1/s"),
)


class Failure(Exception):
    """The benchmark cannot run here: nothing is reported."""


# ---------------------------------------------------------------------------
# Repetitions


class Runner:
    def __init__(self, workdir: Path, plan: Plan, seed: int):
        self.workdir = workdir
        self.plan = plan
        self.seed = seed
        self.count = 0
        env = {k: v for k, v in os.environ.items() if not k.startswith("CHARSUM_")}
        env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", CHARSUM_THREADS=str(plan.threads),
                   OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.env = env

    def run(self, *, trace=False, setup_only=False, oracle=False, timeout=SETUP_TIMEOUT_S):
        """One fresh worker process; returns (result dict or None, rep dir, error)."""
        self.count += 1
        rep = self.workdir / f"rep-{self.count}"
        rep.mkdir()
        commands = [[str(rep / f"cmd-{i}.out") if a == OUT else a for a in argv]
                    for i, argv in enumerate(self.plan.commands)]
        spec = {
            "commands": commands,
            "trace": trace,
            "setup_only": setup_only,
            "oracle": {"seed": self.seed, "moduli": self.plan.oracle_moduli, "x_lo": ORACLE_X}
            if oracle else None,
        }
        (rep / "spec.json").write_text(json.dumps(spec))
        argv = [sys.executable, str(BENCH / "worker.py"), str(rep / "spec.json")]
        try:
            proc = subprocess.run(argv + [str(time.monotonic_ns())], cwd=ROOT, env=self.env,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, rep, f"worker timed out after {timeout:.0f} s"
        result_path = rep / "result.json"
        if proc.returncode != 0 or not result_path.exists():
            return None, rep, f"worker exited {proc.returncode}: {proc.stderr.decode()[-2000:]}"
        result = json.loads(result_path.read_text())
        if Path(result["charsum_file"]).resolve().parent != SRC / "charsum":
            raise Failure(f"imported charsum from {result['charsum_file']}, not {SRC}")
        return result, rep, None


def prime_power_counts(xs) -> dict[int, int]:
    """Number of prime powers p^k <= x, for each x: the terms a Lambda
    kernel enumerates up to x."""
    top = max(xs)
    sieve = np.ones(top + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(top) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    primes = np.flatnonzero(sieve)
    out = {}
    for x in xs:
        count = int(np.searchsorted(primes, x, side="right"))
        for p in primes[: np.searchsorted(primes, math.isqrt(x), side="right")]:
            pk = int(p) * int(p)
            while pk <= x:
                count += 1
                pk *= int(p)
        out[x] = count
    return out


class Checker:
    """Correctness gate: counts operations and failures over a run."""

    def __init__(self, plan: Plan):
        self.plan = plan
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: list[str | None] = [None] * len(plan.commands)
        self.outputs: list[bytes | None] = [None] * len(plan.commands)

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def rep(self, result, rep: Path, error, traced: bool) -> bool:
        """Check one repetition; True when its timings may be used."""
        if not self.op(result is not None, f"worker process: {error}"):
            return False
        good = self.op(not result["wrappers_left"],
                       f"worker process: wrappers left in place {result['wrappers_left']}")
        for i, (argv, op) in enumerate(zip(self.plan.commands, result["ops"])):
            label = " ".join(argv[:2])
            if op["exit"] != 0:
                good &= self.op(False, f"{label}: exit {op['exit']} {op['error'] or ''}")
                continue
            data = (rep / f"cmd-{i}.out").read_bytes() if OUT in argv else op["stdout"].encode()
            digest = hashlib.sha256(data).hexdigest()
            problems = []
            if self.digests[i] is None:
                self.digests[i], self.outputs[i] = digest, data
            elif digest != self.digests[i]:
                problems.append("output differs from the first repetition"
                                + (" (traced)" if traced else ""))
            if OUT in argv:
                problems += assert_failures(data)
            good &= self.op(not problems, f"{label}: {'; '.join(problems)}")
        for check in result.get("oracle", ()):
            self.op(check["ok"], f"oracle {check['evaluator']} {check['params']}: "
                                 f"{check.get('exception') or check.get('error')}")
        return good


def parse_report(data: bytes) -> tuple[dict, list[dict]]:
    lines = data.decode().splitlines()
    return json.loads(lines[0]), [json.loads(line) for line in lines[1:]]


def assert_failures(data: bytes) -> list[str]:
    header, records = parse_report(data)
    problems = [] if header.get("schema") == "charsum.report/1" else ["bad report header"]
    problems += [f"ASSERT {r['lemma_tag']} {r['verdict']}" for r in records
                 if r["mode"] == "ASSERT" and r["verdict"] != "pass"]
    return problems


TERMS_RE = re.compile(r"\bterms=(\d+)\b")


def work_counts(plan: Plan, outputs, checker: Checker) -> tuple[int, int]:
    """(Lambda terms, checks) one repetition does, from its outputs.

    Terms are the prime powers n <= x each Lambda-weighted evaluation
    enumerates: the ``terms=`` of every ``sum T`` line, x's prime powers
    for every restricted sum, ``l_count`` times them for a THEOREM_T record,
    and 2 + ``nu_count`` times them for a recombination identity (the full
    sum, one restricted sum per nu, and the correction term).  Checks are
    report records plus ``sum T`` result lines.
    """
    reads = []  # (multiplicity, x)
    checks = 0
    printed = []  # (terms printed, x) per sum T line
    for argv, data in zip(plan.commands, outputs):
        if data is None:
            continue
        if OUT not in argv:
            x = int(argv[argv.index("--x") + 1])
            for line in data.decode().splitlines():
                printed.append((int(TERMS_RE.search(line).group(1)), x))
                checks += 1
            continue
        for r in parse_report(data)[1]:
            checks += 1
            p = r["parameters"]
            if r["lemma_tag"] == "T_RESTRICTED":
                reads.append((1, p["x"]))
            elif r["lemma_tag"] == "THEOREM_T":
                reads.append((p["l_count"], p["x"]))
            elif r["lemma_tag"] == "T_RECOMBINATION":
                reads.append((2 + p["nu_count"], p["x"]))
    xs = {x for _, x in reads} | {x for _, x in printed}
    pp = prime_power_counts(xs) if xs else {}
    for terms, x in printed:
        checker.op(terms == pp[x], f"sum T at x={x}: terms={terms}, prime powers {pp[x]}")
    terms = sum(t for t, _ in printed) + sum(m * pp[x] for m, x in reads)
    return terms, checks


# ---------------------------------------------------------------------------
# Reporting


def percentile_note(samples) -> str:
    """Sample count and the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    best = None
    for p in (50, 90, 99, 99.9):
        if n * (1 - p / 100) >= 10:
            best = p
    if best is None:
        return f"n={n}; no percentile has 10 samples beyond it"
    value = statistics.quantiles(samples, n=1000)[int(best * 10) - 1]
    return f"n={n}; p{best:g}={value:.6g}"


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "charsum").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "charsum" / "__init__.py").is_file():
        raise Failure(f"no charsum sources under {SRC}")
    start = time.monotonic()
    plan = PLANS[args.workload](args.seed)
    (BENCH / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / ".work"))
    try:
        runner = Runner(workdir, plan, args.seed)
        checker = Checker(plan)
        # the first start compiles bytecode; it is not a sample
        result, _, error = runner.run(setup_only=True)
        if result is None:
            raise Failure(error)
        info = {k: result[k] for k in ("charsum_version", "python", "numpy")}
        setups = []
        walls, rss, traced_walls, layer, command_s = [], [], [], [], []
        reps = 0
        cycle = 0.0  # duration of the last probes-plus-repetition cycle
        while True:
            elapsed = time.monotonic() - start
            # start another cycle only if at least half of it fits in --seconds
            enough = (reps >= (2 if args.trace else MIN_REPS)
                      and elapsed + cycle / 2 >= args.seconds)
            if enough or (reps and elapsed >= RUN_DEADLINE_S):
                break
            # set-up probes are spread over the run, like the repetitions
            for _ in range(SETUP_PROBES):
                result, _, error = runner.run(setup_only=True)
                if checker.op(result is not None, f"set-up probe: {error}"):
                    setups.append(result["setup_s"])
            traced = bool(args.trace) and reps % 2 == 1
            timeout = max(10.0, CHILD_TIMEOUT_S - elapsed)
            result, rep, error = runner.run(trace=traced, oracle=reps == 0, timeout=timeout)
            reps += 1
            cycle = time.monotonic() - start - elapsed
            if not checker.rep(result, rep, error, traced):
                continue
            setups.append(result["setup_s"])
            if traced:
                traced_walls.append(result["wall_s"])
                layer.append(tracer.layer_metrics(json.loads((rep / "spans.json").read_text())))
            else:
                walls.append(result["wall_s"])
                rss.append(result["maxrss_kb"] / 1024)
                command_s.append([op["seconds"] for op in result["ops"]])
            shutil.rmtree(rep)
        terms, checks = work_counts(plan, checker.outputs, checker)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not walls or (args.trace and not traced_walls):
        print(f"no usable repetition: {checker.failures[:5]}", file=sys.stderr)
        return 1
    wall = statistics.median(walls)
    if args.trace:
        units = {name: unit for name, unit, _ in tracer.LAYER_METRICS}
        values = {name: statistics.median(m[name] for m in layer) for name in layer[0]}
        values["trace.overhead_ratio"] = statistics.median(traced_walls) / wall
    else:
        units = dict(END_TO_END)
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "peak_rss_mb": statistics.median(rss),
            "terms_per_s": terms / wall,
            "checks_per_s": checks / wall,
        }
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    failed = len(checker.failures)
    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **info,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "CHARSUM_THREADS": plan.threads,
        "commands": plan.commands,
        "report_sha256": checker.digests,
        "terms": terms,
        "checks": checks,
        "samples": {"setup_s": setups, "wall_s": walls, "peak_rss_mb": rss,
                    "traced_wall_s": traced_walls, "command_s": command_s},
        "failed_ratio": failed / checker.attempted,
        "failures": checker.failures,
    }
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    out_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(manifest | {"metrics": metrics}, indent=1) + "\n")

    print("manifest " + json.dumps({k: manifest[k] for k in (
        "workload", "seed", "charsum_version", "python", "numpy", "nproc", "git_sha",
        "src_sha256", "CHARSUM_THREADS", "commands")}))
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(f"{'wall_s samples':32s} {percentile_note(walls)}")
    print(f"{'setup_s samples':32s} {percentile_note(setups)}")
    print(f"{'failed_ratio':32s} {failed}/{checker.attempted} = {failed / checker.attempted:.6g} 1")
    for what in checker.failures:
        print(f"FAILED {what}")
    print(f"correct {not failed}; samples and manifest in {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": not failed, "attempted": checker.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not failed else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Failure as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
