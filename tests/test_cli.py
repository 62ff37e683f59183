"""CLI contract tests: subcommand surface, exit codes, determinism of
report files, named precondition diagnostics."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from charsum import bounds, characters, cli, sums

CLI = [sys.executable, "-m", "charsum.cli"]


def run(*args, timeout=240):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, timeout=timeout)


def test_factor_command():
    out = run("factor", "360")
    assert out.returncode == 0
    assert out.stdout.strip() == "360 = 2^3 * 3^2 * 5"


def test_chars_list_and_conductor():
    out = run("chars", "list", "--D", "8")
    assert out.returncode == 0
    lines = [json.loads(s) for s in out.stdout.strip().split("\n")]
    assert len(lines) == 4
    assert lines[0]["principal"] is True and lines[0]["conductor"] == 1
    out2 = run("chars", "conductor", "--D", "24", "--exponents", "0,1,0")
    assert out2.returncode == 0
    assert out2.stdout.strip() == "8"


def test_sum_T_prints_quadratic_value():
    out = run("sum", "T", "--D", "3", "--l", "1", "--x", "10")
    assert out.returncode == 0
    assert "0.7985" in out.stdout


@pytest.mark.parametrize("l", ["-9223372036854775806", "99999999999999999999"])
def test_sum_shift_beyond_int64_is_taken_mod_D(l, capsys):
    """A shift outside int64 prints the line of the shift it is congruent
    to mod D (both are 1 mod 7, as 8 is) and exits 0."""
    argv = ["sum", "T", "--D", "7", "--x", "100", "--chi-index", "1", "--l"]
    assert cli.main(argv + [l]) == 0
    got = capsys.readouterr().out
    assert "T=8.85922894152671-2.5748545508569998j" in got
    assert cli.main(argv + ["8"]) == 0
    assert capsys.readouterr().out == got


def test_sum_precondition_exit_2_names_violation():
    out = run("sum", "T", "--D", "10", "--l", "5", "--x", "100")
    assert out.returncode == 2
    assert "'l'" in out.stderr


def test_unknown_flag_exits_2():
    out = run("verify", "identities", "--bogus-flag")
    assert out.returncode == 2


def test_verify_identities_small_exit_0(tmp_path):
    out = run(
        "verify", "identities", "--max-D", "40", "--gauss-max-q", "30",
        "--hb-cases", "2", "--coprime-max", "40", "--recombination-cases", "2",
        "--output", str(tmp_path / "r.jsonl"),
    )
    assert out.returncode == 0
    lines = (tmp_path / "r.jsonl").read_text().strip().split("\n")
    head = json.loads(lines[0])
    assert head["schema"] == "charsum.report/1"
    assert all(json.loads(s)["verdict"] == "pass" for s in lines[1:])


def test_forced_assert_failure_exits_1(tmp_path, monkeypatch):
    """One failing ASSERT record among passing ones makes the run exit 1,
    and the report is still written."""
    identities_verify = bounds.identities_verify

    def failing(*args, **kwargs):
        return identities_verify(*args, **kwargs) + [
            bounds.make_record("INJECTED", {}, 2.0, 1.0, bounds.ASSERT)
        ]

    monkeypatch.setattr(bounds, "identities_verify", failing)
    path = tmp_path / "r.jsonl"
    code = cli.main([
        "verify", "identities", "--max-D", "20", "--gauss-max-q", "20",
        "--hb-cases", "1", "--coprime-max", "20", "--recombination-cases", "1",
        "--output", str(path),
    ])
    assert code == 1
    text = path.read_text()
    assert "INJECTED" in text and '"fail"' in text


def test_verify_identities_builds_no_value_table(tmp_path, monkeypatch):
    """verify identities reads no complex table of every character value:
    orthogonality counts integer phases, the sums read values_at."""

    def forbidden(*args):
        raise AssertionError("a character value table was built")

    for module in (bounds, characters, cli, sums):  # wherever the name is held
        if hasattr(module, "all_character_tables"):
            monkeypatch.setattr(module, "all_character_tables", forbidden)
    monkeypatch.setattr(characters.DirichletCharacter, "value_table", forbidden)
    argv = ["verify", "identities", "--max-D", "500", "--hb-cases", "5", "--coprime-max", "20",
            "--recombination-cases", "2", "--output", str(tmp_path / "r.jsonl")]
    assert cli.main(argv) == 0


def test_report_theorem_even_moduli_take_no_transform_and_no_lambda(tmp_path, monkeypatch):
    """An even D is bounded by its 2^k support: report theorem neither
    sieves Lambda nor transforms, and still writes one record per modulus."""

    def forbidden(*args):
        raise AssertionError("an even modulus reached the transform or the Lambda sieve")

    monkeypatch.setattr(bounds, "unit_group_transform", forbidden)
    monkeypatch.setattr(bounds, "mangoldt_terms", forbidden)
    path = tmp_path / "r.jsonl"
    assert cli.main(["report", "theorem", "--D-list", "30030,16384,12600,1024", "--output", str(path)]) == 0
    records = [json.loads(s) for s in path.read_text().strip().split("\n")[1:]]
    assert [r["parameters"]["D"] for r in records] == [30030, 16384, 12600, 1024]
    assert all(r["parameters"]["chi_index"] is None and r["parameters"]["support_k"] > 0 for r in records)


def test_report_theorem_charges_an_even_modulus_only_what_it_runs(tmp_path, monkeypatch, capsys):
    """An even D is charged its basis, its conductor grid and floor(log2 x)
    gcds per shift, not the transforms of an odd D: D = 2 * 999983 (phi =
    999982) exits 0 with its record, while the odd 999983 is still over the
    budget and exits 2 before any basis is built."""
    path = tmp_path / "r.jsonl"
    assert cli.main(["report", "theorem", "--D-list", "1999966", "--output", str(path)]) == 0
    records = [json.loads(s) for s in path.read_text().strip().split("\n")[1:]]
    assert [(r["lemma_tag"], r["parameters"]["D"]) for r in records] == [("THEOREM_T", 1999966)]
    monkeypatch.setattr(bounds, "UnitGroupBasis", lambda *a: _raise(AssertionError("basis built")))
    assert cli.main(["report", "theorem", "--D-list", "999983"]) == 2
    err = capsys.readouterr().err
    assert "more than the budget of 1000000000" in err and "Traceback" not in err


def test_lemma8_random_byte_identical(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    out1 = run("verify", "lemma8", "--random", "25", "--seed", "7", "--output", str(a))
    out2 = run("verify", "lemma8", "--random", "25", "--seed", "7", "--output", str(b))
    assert out1.returncode == 0 and out2.returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_lemma8_instances_file(tmp_path):
    path = tmp_path / "inst.jsonl"
    path.write_text(
        json.dumps({"q": 101, "d": 1, "eta": 3, "k": 5, "M": 7, "N": 5, "Y": 9}) + "\n"
    )
    out = run("verify", "lemma8", "--instances", str(path))
    assert out.returncode == 0
    assert "CONGRUENCE_CENSUS" in out.stdout


def test_lemma8_bad_instances_file_exits_2(tmp_path):
    missing = tmp_path / "missing.jsonl"
    out = run("verify", "lemma8", "--instances", str(missing))
    assert out.returncode == 2
    assert "instances" in out.stderr and "missing.jsonl" in out.stderr
    assert "Traceback" not in out.stderr

    good = {"q": 101, "d": 1, "eta": 3, "k": 5, "M": 7, "N": 5, "Y": 9}
    no_d = tmp_path / "no_d.jsonl"
    no_d.write_text(json.dumps(good) + "\n\n" + json.dumps({k: v for k, v in good.items() if k != "d"}) + "\n")
    out = run("verify", "lemma8", "--instances", str(no_d))
    assert out.returncode == 2
    assert "line 3" in out.stderr and "'d'" in out.stderr
    assert "Traceback" not in out.stderr

    for text in ("{not json\n", json.dumps(good | {"N": 5.0}) + "\n", json.dumps(good | {"M": "7"}) + "\n"):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(text)
        out = run("verify", "lemma8", "--instances", str(bad))
        assert out.returncode == 2
        assert "line 1" in out.stderr and "Traceback" not in out.stderr


def test_lemma8_requires_source():
    out = run("verify", "lemma8")
    assert out.returncode == 2
    assert "instances" in out.stderr


def test_report_theorem_single_modulus():
    out = run("report", "theorem", "--D", "105", "--eps", "0.05")
    assert out.returncode == 0
    lines = out.stdout.strip().split("\n")
    rec = json.loads(lines[1])
    assert rec["lemma_tag"] == "THEOREM_T" and rec["mode"] == "MONITOR"
    assert rec["parameters"]["D"] == 105


def test_report_theorem_every_modulus_skipped_exits_2():
    out = run("report", "theorem", "--D-list", "3")
    assert out.returncode == 2
    assert "'D_list'" in out.stderr and "[3]" in out.stderr
    assert out.stdout == "" and "Traceback" not in out.stderr
    partial = run("report", "theorem", "--D-list", "3,105")
    assert partial.returncode == 0
    lines = partial.stdout.strip().split("\n")
    assert [json.loads(line)["parameters"]["D"] for line in lines[1:]] == [105]


def test_sum_beyond_physical_memory_exits_2():
    # Lambda up to 1e12 (below the 2^40 cap) is estimated at ~2.2 TB, beyond
    # any machine this suite runs on; 1e11 (~238 GB) already is on an 8 GB one
    out = run("sum", "T", "--D", "7", "--l", "1", "--x", "1000000000000")
    assert out.returncode == 2
    assert "x = 1000000000000" in out.stderr and "physical memory" in out.stderr
    assert out.stdout == "" and "Traceback" not in out.stderr


def test_report_tail_flag_pairing():
    out = run("report", "tail", "--q", "30030")
    assert out.returncode == 2
    out2 = run("report", "tail", "--q", "30030", "--D", "30030")
    assert out2.returncode == 0
    rec = json.loads(out2.stdout.strip().split("\n")[1])
    assert rec["lemma_tag"] == "BIG_DIVISOR_TAIL"


def test_csv_format(tmp_path):
    out = run(
        "report", "constants", "--q-max", "100",
        "--format", "csv", "--output", str(tmp_path / "c.csv"),
    )
    assert out.returncode == 0
    lines = (tmp_path / "c.csv").read_text().strip().split("\n")
    assert lines[0] == "lemma_tag,params,lhs,rhs,ratio,mode,verdict,runtime_ms"
    assert lines[1].startswith("OMEGA_ENVELOPE,")


def test_timings_flag_populates_runtime(tmp_path):
    out = run(
        "report", "tail", "--q", "30030", "--D", "30030", "--timings",
        "--output", str(tmp_path / "t.jsonl"),
    )
    assert out.returncode == 0
    rec = json.loads((tmp_path / "t.jsonl").read_text().strip().split("\n")[1])
    assert isinstance(rec["runtime_ms"], int)


@pytest.mark.parametrize("argv, timed", [
    (["verify", "identities", "--max-D", "20", "--gauss-max-q", "20", "--hb-cases", "2",
      "--coprime-max", "20", "--recombination-cases", "2"],
     ["HB_DECOMP"] * 2 + ["ORTHOGONALITY", "GAUSS_MODULUS", "COPRIME_COUNT"] + ["T_RECOMBINATION"] * 2),
    (["report", "theorem", "--D-list", "4,105,1009,30"], ["THEOREM_T"] * 3),  # 4 is skipped
    (["report", "burgess", "--q-max", "20"], ["BURGESS_2R"] * 7 + [None]),  # not the summary
])
def test_timings_give_each_timed_check_an_integer_runtime(tmp_path, argv, timed):
    """With --timings, every record of a timed check carries an integer
    runtime_ms and a summary record none; without it, every runtime is null."""
    path = tmp_path / "t.jsonl"
    for flag, want in ((["--timings"], timed), ([], [None] * len(timed))):
        assert cli.main(argv + ["--output", str(path)] + flag) == 0
        recs = [json.loads(line) for line in path.read_text().splitlines()[1:]]
        assert [r["lemma_tag"] if type(r["runtime_ms"]) is int else r["runtime_ms"] for r in recs] == want


def _raise(exc):
    raise exc


@pytest.mark.parametrize("argv, code, message", [
    (["chars", "conductor", "--D", "24", "--exponents", "0,x"], 2, "argument --exponents"),
    (["chars", "conductor", "--D", "24", "--exponents", "0,1,0"], 0, ""),
    (["report", "theorem", "--D-list", "3,y"], 2, "argument --D-list"),
    (["sum", "T", "--D", "10", "--l", "5", "--x", "100"], 2, "'l'"),
    (["sum", "T", "--D", "99991", "--l", "2", "--x", "1000"], 2, "99989 characters mod 99991"),
    (["sum", "restricted", "--q", "99991", "--nu", "2", "--l", "3", "--x", "1000"], 2,
     "99989 characters mod 199982"),
    (["sum", "restricted", "--q", "7", "--nu", "-1", "--l", "1", "--x", "1000", "--chi-index", "1"], 2,
     "need nu >= 1"),
    (["sum", "restricted", "--q", "7", "--nu", "-1", "--l", "1", "--x", "1000"], 2, "need nu >= 1"),
    # `factor` is made to raise the exception the message names
    (["factor", "30"], 2, "out of memory: MemoryError"),
    (["factor", "30"], cli.EXIT_INTERNAL, "internal error: RuntimeError('injected fault')"),
    (["report", "theorem", "--D", "105", "--eps", "nan"], 2, "'epsilon'"),
    (["report", "theorem", "--D", "105", "--eps", "inf"], 2, "'epsilon'"),
    (["report", "theorem", "--D", "105", "--eps=-inf"], 2, "'epsilon'"),
    (["report", "theorem", "--D", "105", "--eps", "1000"], 2, "below 2^40, the Lambda sieve's cap"),
    (["report", "divisor-moments", "--x-max", "99"], 2, "'x_max'"),
    (["verify", "lemma8", "--random", "5", "--q-max", "15"], 2, "'q_max'"),
    *[(argv + ["--delta", value], 2, "argument --delta")
      for argv in (["verify", "lemma8", "--random", "5"], ["report", "burgess"],
                   ["report", "shortsums"], ["report", "doublesums"])
      for value in ("0", "nan", "1.5")],
    (["report", "shortsums", "--delta", "0.42"], 2, "'delta'"),
    (["report", "theorem", "--D", "105", "--delta", "0.5"], 2, "unrecognized arguments: --delta"),
    (["report", "burgess", "--seed", "1"], 2, "unrecognized arguments: --seed"),
    (["report", "restricted", "--D", "105", "--x", "1"], 2, "'x'"),
    (["report", "restricted", "--D", "105", "--x", "-5"], 2, "'x'"),
    (["verify", "identities", "--max-D", "0", "--gauss-max-q", "0", "--hb-cases", "0",
      "--coprime-max", "0", "--recombination-cases", "0"], 2, "'max_D'"),
    (["verify", "identities", "--max-D", "0"], 2, "'max_D'"),
    (["verify", "identities", "--gauss-max-q", "0"], 2, "'gauss_max_q'"),
    (["verify", "identities", "--coprime-max", "-1"], 2, "'coprime_max'"),
    # phi(D) x D phases over D <= 5000: about 2.5e10, checked before any is built
    (["verify", "identities", "--max-D", "5000"], 2, "max_D = 5000 needs character phases and values"),
    (["verify", "identities", "--gauss-max-q", "2000"], 2, "gauss_max_q = 2000 needs character phases and values"),
    # phi = 10^9 + 6: the conductor grid alone would take 8 GB
    (["report", "theorem", "--D-list", "1000000007"], 2, "more than the budget of 1000000000"),
    # a report path in a missing directory is refused before the report is made
    (["report", "smooth", "--output", "/nonexistent/dir/r.jsonl"], 2, "'output'"),
    (["report", "restricted", "--D", "105", "--x", "1000", "--output", "/nonexistent/dir/r.jsonl"], 2,
     "cannot write /nonexistent/dir/r.jsonl"),
    # x = ceil(100003^(5/6 - 1)) = 1: no Lambda sum, refused before the basis
    (["report", "theorem", "--D", "100003", "--eps", "-1"], 2, "'epsilon'"),
    # phi(q) x q transform lattice entries over the primes q <= 5000: about 5e9
    (["report", "burgess", "--q-max", "5000"], 2, "q_max = 5000 needs 5048342006 lattice entries"),
    # grids with no modulus to check: no prime q >= 3, no q >= 3
    (["report", "burgess", "--q-max", "2"], 2, "'q_max'"),
    (["report", "constants", "--q-max", "2"], 2, "'q_max'"),
    # 19 * 18^400 > 2^1023 at the largest prime, Z = 18: moments beyond float64
    (["report", "burgess", "--q-max", "20", "--r", "200"], 2, "'r'"),
    (["verify", "identities", "--hb-cases", "-1"], 2, "'hb_cases'"),
    (["verify", "identities", "--recombination-cases", "-1"], 2, "'recombination_cases'"),
    # every modulus of a D-list is checked before the first is computed
    (["report", "theorem", "--D-list", "105,1000000007"], 2, "more than the budget of 1000000000"),
    (["report", "theorem", "--D-list", "105,2"], 2, "'D'"),
    # 40000^2 (q, U) pairs of the coprime sweep, checked before any record
    (["verify", "identities", "--coprime-max", "40000"], 2, "coprime_max"),
    # phi = 10^9 + 6 characters, refused before the basis is built
    (["chars", "list", "--D", "1000000007"], 2, "more than the budget of 1000000000"),
    # 10^7 q times pi(3162) + 1 = 447 trial divisions each: 4.47e9
    (["report", "constants", "--q-max", "10000000"], 2, "more than the budget of 1000000000"),
    (["report", "theorem", "--D-list", ""], 2, "'D_list'"),
])
def test_exit_codes(argv, code, message, capsys, monkeypatch):
    """Bad input, work beyond the budget and memory exhaustion exit 2 with
    a message and no traceback, before any Lambda is sieved or character
    phase index or conductor grid built; any other crash exits 3; exit 1
    stays for ASSERT failures."""
    sieved, phases = [], []
    monkeypatch.setattr(sums, "_LAMBDA", sums._LambdaCache())
    monkeypatch.setattr(sums, "mangoldt_sieve", lambda *a: sieved.append(a))
    monkeypatch.setattr(bounds, "phase_index", lambda *a: phases.append(a))
    if code == 2:
        monkeypatch.setattr(characters.UnitGroupBasis, "conductor_grid",
                            lambda basis: _raise(AssertionError("conductor grid built before the check")))
    for fault in (MemoryError(), RuntimeError("injected fault")):
        if type(fault).__name__ in message:
            monkeypatch.setattr(cli, "_cmd_factor", lambda args, fault=fault: _raise(fault))
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert sieved == [] and phases == []


@pytest.mark.parametrize("argv, seed, delta", [
    (["verify", "identities", "--max-D", "20", "--gauss-max-q", "20", "--hb-cases", "1",
      "--coprime-max", "20", "--recombination-cases", "1"], True, False),
    (["verify", "lemma8", "--random", "3"], True, True),
    (["report", "theorem", "--D", "105"], True, False),
    (["report", "burgess", "--q-max", "30"], False, True),
    (["report", "divisor-moments", "--x-max", "1000"], False, False),
    (["report", "smooth"], False, False),
    (["report", "tail", "--q", "30030", "--D", "30030"], False, False),
    (["report", "restricted", "--D", "105", "--x", "1000"], True, False),
    (["report", "shortsums"], True, True),
    (["report", "doublesums"], True, True),
    (["report", "constants", "--q-max", "100"], False, False),
])
def test_report_header_records_seed_and_delta_where_taken(argv, seed, delta, tmp_path, capsys):
    """Each verify/report command takes --seed and --delta only if it reads
    them, and its header records exactly the ones it takes."""
    taken = {"seed": ("--seed", "3", 3), "delta": ("--delta", "0.001", 0.001)}
    flags = {k: v for k, v in taken.items() if {"seed": seed, "delta": delta}[k]}
    path = tmp_path / "r.jsonl"
    extra = [a for flag, text, _ in flags.values() for a in (flag, text)]
    assert cli.main(argv + extra + ["--output", str(path)]) == 0
    header = json.loads(path.read_text().splitlines()[0])
    assert {k: header[k] for k in taken if k in header} == {k: v[2] for k, v in flags.items()}
    for key in taken.keys() - flags.keys():
        assert cli.main(argv + list(taken[key][:2])) == 2
        assert f"unrecognized arguments: {taken[key][0]}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, count", [
    (["sum", "T", "--D", "45", "--l", "2", "--x", "1000"], 23),
    (["sum", "restricted", "--q", "15", "--nu", "2", "--l", "1", "--x", "1000"], 7),
])
def test_sum_without_chi_index_prints_every_character(argv, count, capsys, monkeypatch):
    """With no --chi-index, one line per non-principal character, each equal
    to the line its --chi-index prints; all of them read one binning."""
    read = []
    residue_bins = sums._residue_bins
    monkeypatch.setattr(sums._LAMBDA, "bins", {})
    monkeypatch.setattr(sums, "_residue_bins", lambda *a: read.append(residue_bins(*a)) or read[-1])
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(read) == count
    assert all(digits is read[0][0] for digits, _ in read)
    for i, line in enumerate(lines, 1):
        assert cli.main(argv + ["--chi-index", str(i)]) == 0
        assert capsys.readouterr().out == line + "\n"


def test_main_reuses_one_parser(capsys, monkeypatch):
    """cli.main builds its parser once per process, and a usage error, a
    valid ``sum T`` and ``--help`` run in one process exit and print as
    each does in a fresh process."""
    monkeypatch.setenv("COLUMNS", "100")
    calls = (["sum", "T", "--D", "7", "--l", "1"],
             ["sum", "T", "--D", "7", "--l", "1", "--x", "1000", "--chi-index", "1"],
             ["--help"])
    got = []
    for argv in calls:
        code = cli.main(argv)
        out = capsys.readouterr()
        got.append((code, out.out, out.err))
    fresh = [run(*argv) for argv in calls]
    assert got == [(p.returncode, p.stdout, p.stderr) for p in fresh]
    assert [code for code, _, _ in got] == [2, 0, 0]
    assert cli.build_parser() is cli.build_parser()


def test_benchmark_tracer_hooks_still_exist(tmp_path, capsys):
    """bench/tracer.py patches charsum by name (the Lambda cache, the
    sieves, the basis views, DirichletCharacter.value_table and its _table
    slot, the evaluators, util.map_blocks and the report entry points), so
    a renamed or deleted hook fails here and not only in the benchmark: it
    installs, records spans over small commands of each bench workload
    (`sum T` and `report restricted` of tsum, `verify identities` of
    verify, `report burgess` and `report theorem` at an odd and an even D
    of theorem, and `report shortsums`, whose short_sum and sy_sum wrappers
    count terms), and restores every original."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    trace = tracer.Tracer()
    reports = [
        ["report", "restricted", "--D", "4725", "--x", "20000"],
        ["report", "shortsums"],
        ["verify", "identities", "--max-D", "30", "--gauss-max-q", "30", "--hb-cases", "2",
         "--coprime-max", "30", "--recombination-cases", "2"],
        ["report", "burgess", "--q-max", "30"],
        ["report", "theorem", "--D-list", "1009,1024"],
    ]
    trace.install()
    try:
        assert cli.main(["sum", "T", "--D", "45", "--l", "2", "--x", "1000", "--chi-index", "1"]) == 0
        for k, argv in enumerate(reports):
            assert cli.main(argv + ["--output", str(tmp_path / f"{k}.jsonl")]) == 0, argv
        characters.character_at(characters.unit_group_basis(45), 1).value_table()
    finally:
        trace.restore()
    capsys.readouterr()
    assert tracer.installed_wrappers() == []
    metrics = tracer.layer_metrics(trace.spans)
    assert metrics["trace.spans"] > 0 and metrics["sums.terms"] > 0 and metrics["bounds.records"] > 0
    assert metrics["characters.table_entries"] > 0
    assert {"sums.short_sum", "sums.sy_sum", "bounds.short_sum_report"} <= {span[2] for span in trace.spans}
