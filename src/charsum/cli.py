"""Command-line front end: evaluators, identity verification, bound reports.

Exit codes: 0 when every ASSERT check passes, 1 on any ASSERT failure,
2 on usage or precondition errors, work beyond a budget and memory
exhaustion, and 3 (EXIT_INTERNAL) on any other uncaught exception, an
internal error; exit 1 means only that an ASSERT failed.  Report files
are written atomically and are byte-identical for a fixed (command, seed),
whatever the number of CPUs ``report theorem`` spreads its moduli over.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import os
import sys

from . import bounds, reports
from .characters import DirichletCharacter, character_at, conductor, enumerate_characters, unit_group_basis
from .integers import euler_phi, factor
from .sums import check_lambda_work, restricted_sum, shifted_prime_sum
from .util import PreconditionError, WorkBudgetError, check_work, require

log = logging.getLogger("charsum")

EXIT_INTERNAL = 3


def _delta(text: str) -> float:
    """argparse type: the exponent perturbation delta, 0 < delta <= 1."""
    value = float(text)
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"need 0 < delta <= 1, got {text!r}")
    return value


def _add_output_options(p: argparse.ArgumentParser, *, seed: bool = False, delta: bool = False) -> None:
    """The report options; ``--seed`` and ``--delta`` only on the commands
    that read them."""
    p.add_argument("--output", help="report file path (default: stdout)")
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    if seed:
        p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timings", action="store_true",
                   help="include measured runtimes (breaks byte-identical reruns)")
    if delta:
        p.add_argument("--delta", type=_delta, default=1e-4)


def _int_list(text: str) -> list[int]:
    """argparse type: comma-separated integers (empty items skipped)."""
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"need comma-separated integers, got {text!r}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="charsum",
        description="Exact character-sum evaluation and bound verification.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    p_factor = top.add_parser("factor", help="factor an integer")
    p_factor.add_argument("n", type=int)

    p_chars = top.add_parser("chars", help="character inspection")
    chars_sub = p_chars.add_subparsers(dest="subcommand", required=True)
    p_list = chars_sub.add_parser("list", help="list characters mod D")
    p_list.add_argument("--D", type=int, required=True)
    p_cond = chars_sub.add_parser("conductor", help="conductor of one character")
    p_cond.add_argument("--D", type=int, required=True)
    p_cond.add_argument("--exponents", type=_int_list, required=True,
                        help="comma-separated exponent vector")

    p_sum = top.add_parser("sum", help="evaluate one sum")
    sum_sub = p_sum.add_subparsers(dest="subcommand", required=True)
    p_t = sum_sub.add_parser("T", help="shifted-prime sum")
    p_t.add_argument("--D", type=int, required=True)
    p_t.add_argument("--l", type=int, required=True)
    p_t.add_argument("--x", type=int, required=True)
    p_t.add_argument("--chi-index", type=int, default=None)
    p_r = sum_sub.add_parser("restricted", help="restricted shifted-prime sum")
    p_r.add_argument("--q", type=int, required=True)
    p_r.add_argument("--nu", type=int, required=True)
    p_r.add_argument("--l", type=int, required=True)
    p_r.add_argument("--x", type=int, required=True)
    p_r.add_argument("--chi-index", type=int, default=None)

    p_verify = top.add_parser("verify", help="ASSERT suites")
    verify_sub = p_verify.add_subparsers(dest="subcommand", required=True)
    p_ident = verify_sub.add_parser("identities", help="exact identities and explicit bounds")
    p_ident.add_argument("--max-D", type=int, default=500)
    p_ident.add_argument("--gauss-max-q", type=int, default=200)
    p_ident.add_argument("--hb-cases", type=int, default=50)
    p_ident.add_argument("--coprime-max", type=int, default=1000)
    p_ident.add_argument("--recombination-cases", type=int, default=20)
    _add_output_options(p_ident, seed=True)
    p_l8 = verify_sub.add_parser("lemma8", help="congruence census sub-bounds")
    p_l8.add_argument("--instances", help="JSONL file of instance parameter dicts")
    p_l8.add_argument("--random", type=int, default=0, help="number of seeded instances")
    p_l8.add_argument("--q-max", type=int, default=5000)
    _add_output_options(p_l8, seed=True, delta=True)

    p_report = top.add_parser("report", help="MONITOR ratio reports")
    report_sub = p_report.add_subparsers(dest="subcommand", required=True)
    p_th = report_sub.add_parser("theorem", help="main-sum ratios per modulus")
    p_th.add_argument("--D-list", type=_int_list, required=True, help="comma-separated moduli")
    p_th.add_argument("--eps", type=float, default=0.05)
    _add_output_options(p_th, seed=True)
    p_bu = report_sub.add_parser("burgess", help="window-moment ratios over primes")
    p_bu.add_argument("--q-max", type=int, default=300)
    p_bu.add_argument("--Z", type=int, default=20)
    p_bu.add_argument("--r", type=int, default=2)
    _add_output_options(p_bu, delta=True)
    p_dm = report_sub.add_parser("divisor-moments", help="tau_r^k moment ratios")
    p_dm.add_argument("--x-max", type=int, default=10**5)
    _add_output_options(p_dm)
    p_sm = report_sub.add_parser("smooth", help="smooth-count envelope ratios")
    _add_output_options(p_sm)
    p_tail = report_sub.add_parser("tail", help="big-divisor tail ratios")
    p_tail.add_argument("--q", type=int, default=None)
    p_tail.add_argument("--D", type=int, default=None)
    _add_output_options(p_tail)
    p_restr = report_sub.add_parser("restricted", help="restricted-sum envelope ratios")
    p_restr.add_argument("--D", type=int, required=True)
    p_restr.add_argument("--x", type=int, required=True)
    _add_output_options(p_restr, seed=True)
    p_ss = report_sub.add_parser("shortsums", help="short-window envelope ratios")
    _add_output_options(p_ss, seed=True, delta=True)
    p_ds = report_sub.add_parser("doublesums", help="bilinear-sum envelope ratios")
    _add_output_options(p_ds, seed=True, delta=True)
    p_cn = report_sub.add_parser("constants", help="fitted envelope constants")
    p_cn.add_argument("--q-max", type=int, default=1000)
    _add_output_options(p_cn)

    return parser


def _emit(records, args, header: dict) -> int:
    """Render ``records`` under a header of the command, the format, the
    ``--seed`` and ``--delta`` the command takes and ``header``; exit 1 on
    any ASSERT failure.  Runtimes are written only with ``--timings``, so
    that default reruns are byte-identical."""
    header = {"command": f"{args.command} {args.subcommand}", "format": args.format} | header
    header |= {k: getattr(args, k) for k in ("seed", "delta") if hasattr(args, k)}
    if not args.timings:
        records = [dataclasses.replace(r, runtime_ms=None) for r in records]
    data = reports.render_records(records, args.format, header)
    if args.output:
        reports.write_atomic(args.output, data)
    else:
        sys.stdout.buffer.write(data)
    return 1 if reports.any_assert_failure(records) else 0


def _characters(D: int, chi_index, L: int, x: int):
    """(index, character) pairs mod D: the one at ``chi_index``, or else, once
    their Lambda sums mod L up to x fit the work budget (checked before the
    basis is built), every non-principal one, lazily."""
    f = factor(D)
    if chi_index is not None:
        return [(chi_index, character_at(unit_group_basis(f), chi_index))]
    check_lambda_work(L, x, euler_phi(f) - 1)
    return ((i, c) for i, c in enumerate(enumerate_characters(unit_group_basis(f))) if not c.is_principal)


def _cmd_factor(args) -> int:
    f = factor(args.n)
    pretty = " * ".join(f"{p}^{a}" if a > 1 else str(p) for p, a in f.factors) or "1"
    print(f"{f.value} = {pretty}")
    return 0


def _cmd_chars(args) -> int:
    if args.subcommand == "list":
        f = factor(args.D)
        check_work(euler_phi(f), f"listing the characters mod {args.D}")
        for i, chi in enumerate(enumerate_characters(unit_group_basis(f))):
            blob = chi.to_json_dict() | {
                "index": i,
                "conductor": conductor(chi).value,
                "principal": chi.is_principal,
            }
            print(json.dumps(blob, sort_keys=True))
        return 0
    chi = DirichletCharacter(unit_group_basis(args.D), tuple(args.exponents))
    print(conductor(chi).value)
    return 0


def _cmd_sum(args) -> int:
    if args.subcommand == "T":
        D, L, name, evaluate, nu = args.D, args.D, "T", shifted_prime_sum, ()
    else:
        D, L, name, evaluate, nu = args.q, args.q * args.nu, "T_nu", restricted_sum, (args.nu,)
    for i, chi in _characters(D, args.chi_index, L, args.x):
        val = evaluate(chi, *nu, args.l, args.x)
        print(
            f"chi_index={i} exponents={list(chi.exponents)} "
            f"{name}={val.value.real!r}{val.value.imag:+}j abs={abs(val.value)!r} "
            f"terms={val.term_count}"
        )
    return 0


INSTANCE_KEYS = ("q", "d", "eta", "k", "M", "N", "Y")


def _read_instances(path: str) -> list[tuple]:
    """Census parameter tuples from a JSONL file of INSTANCE_KEYS dicts;
    every fault is a PreconditionError naming the file or 1-based line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise PreconditionError("instances", f"cannot read {path}: {exc}") from exc
    instances = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        where = f"{path} line {lineno}"
        try:
            d = json.loads(line)
        except json.JSONDecodeError as exc:
            raise PreconditionError("instances", f"{where}: invalid JSON ({exc.msg})") from exc
        if not isinstance(d, dict):
            raise PreconditionError("instances", f"{where}: need a JSON object")
        for key in INSTANCE_KEYS:
            if key not in d:
                raise PreconditionError("instances", f"{where}: missing key {key!r}")
            if type(d[key]) is not int:
                raise PreconditionError("instances", f"{where}: {key!r} must be an integer, got {d[key]!r}")
        instances.append(tuple(d[key] for key in INSTANCE_KEYS))
    return instances


def _cmd_verify(args) -> int:
    if args.subcommand == "identities":
        sizes = {
            "max_D": args.max_D,
            "gauss_max_q": args.gauss_max_q,
            "hb_cases": args.hb_cases,
            "coprime_max": args.coprime_max,
            "recombination_cases": args.recombination_cases,
        }
        return _emit(bounds.identities_verify(**sizes, seed=args.seed), args, sizes)
    instances = None
    if args.instances:
        instances = _read_instances(args.instances)
    elif args.random <= 0:
        raise PreconditionError("instances", "need --instances FILE or --random N > 0")
    records = bounds.lemma8_verify(
        instances, random_count=args.random, seed=args.seed, q_max=args.q_max, delta=args.delta,
    )
    extra = {"random": args.random, "q_max": args.q_max, "instances_file": bool(args.instances)}
    return _emit(records, args, extra)


def _cmd_report(args) -> int:
    sub = args.subcommand
    if sub == "theorem":
        require(args.D_list, "D_list", "need at least one modulus, got none")
        records = bounds.theorem_report(args.D_list, epsilon=args.eps, seed=args.seed)
        if not records:
            raise PreconditionError("D_list", f"every modulus in {args.D_list} was skipped, "
                                    "so the report would be empty")
        extra = {"D_list": args.D_list, "eps": args.eps}
    elif sub == "burgess":
        records = bounds.burgess_report(args.q_max, args.Z, args.r, args.delta)
        extra = {"q_max": args.q_max, "Z": args.Z, "r": args.r}
    elif sub == "divisor-moments":
        grid = tuple(x for x in (100, 1000, 10**4, 10**5) if x <= args.x_max)
        if not grid:
            raise PreconditionError("x_max", f"need x_max >= 100, the smallest grid point, got {args.x_max}")
        records = bounds.divisor_moment_report(x_grid=grid)
        extra = {"x_max": args.x_max}
    elif sub == "smooth":
        records = bounds.smooth_report()
        extra = {}
    elif sub == "tail":
        if (args.q is None) != (args.D is None):
            raise PreconditionError("q,D", "give both --q and --D, or neither")
        pairs = ((args.q, args.D),) if args.q is not None else None
        records = bounds.tail_report(pairs) if pairs else bounds.tail_report()
        extra = {"pairs": list(pairs) if pairs else "default"}
    elif sub == "restricted":
        records = bounds.restricted_report(args.D, args.x, seed=args.seed)
        extra = {"D": args.D, "x": args.x}
    elif sub == "shortsums":
        records = bounds.short_sum_report(seed=args.seed, delta=args.delta)
        extra = {}
    elif sub == "doublesums":
        records = bounds.double_sum_report(seed=args.seed, delta=args.delta)
        extra = {}
    else:
        records = bounds.constants_report(args.q_max)
        extra = {"q_max": args.q_max}
    return _emit(records, args, extra)


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr, format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        if getattr(args, "output", None):  # checked before any report work
            out = os.path.abspath(args.output)
            require(not os.path.isdir(out) and os.access(os.path.dirname(out), os.W_OK | os.X_OK), "output",
                    f"cannot write {args.output}: need a file name in a writable directory")
        if args.command == "factor":
            return _cmd_factor(args)
        if args.command == "chars":
            return _cmd_chars(args)
        if args.command == "sum":
            return _cmd_sum(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_report(args)
    except PreconditionError as exc:
        print(f"charsum: {exc}", file=sys.stderr)
        return 2
    except WorkBudgetError as exc:
        print(f"charsum: work budget exceeded: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"charsum: out of memory: {exc!r}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"charsum: internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
