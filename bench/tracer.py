"""Layer tracing for the benchmark, installed from outside the package.

Each traced public function is replaced, in every charsum namespace that
holds it, by a wrapper that records one span: (id, parent id, name, bucket,
start ns, end ns, counters).  ``math`` inside the charsum modules is
replaced by a copy of the module whose ``fsum`` is traced, so the exact
reductions are seen where the charsum code reaches them.  Spans stay in
memory until the run ends; ``restore`` puts every original object back.

A bucket is the layer a span's self time is charged to.  Self time is the
span's duration minus the union of its children's intervals, so blocks that
run in parallel under ``map_blocks`` are each charged in full to the caller
that dispatched them.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import threading
import types
from time import perf_counter_ns

MODULES = (
    "charsum",
    "charsum.integers",
    "charsum.characters",
    "charsum.sums",
    "charsum.util",
    "charsum.bounds",
    "charsum.reports",
    "charsum.cli",
)

_MARK = "__bench_traced__"


def _one(bucket_count):
    return lambda args, kwargs, result, pre: {bucket_count: 1}


def _terms(args, kwargs, result, pre):
    return {"terms": result.term_count}


def _sieved(args, kwargs, result, pre):
    return {"sieved_n": result.hi - result.lo + 1}


def _fsum_terms(args, kwargs, result, pre):
    return {"reduce_terms": pre}


def _records(args, kwargs, result, pre):
    return {"records": len(result)}


def _theorem_records(args, kwargs, result, pre):
    return {"records": len(result), "skipped": pre - len(result)}


def _basis_modulus(args, kwargs, result, pre):
    return {"modulus": result.modulus.value}


def _entries(args, kwargs, result, pre):
    return {"table_entries": int(result.size)}


def _built_entries(args, kwargs, result, pre):
    return {"table_entries": int(result.size) if pre else 0}


def _bytes(args, kwargs, result, pre):
    data = args[1] if len(args) > 1 else kwargs["data"]
    return {"bytes": len(data)}


# (defining module, attribute, bucket, counter, pre-call hook).  Functions
# are patched under every name a charsum module holds them by.
FUNCTIONS = (
    ("charsum.integers", "mangoldt_sieve", "integers.mangoldt", _sieved, None),
    ("charsum.sums", "_mangoldt_arrays", "integers.mangoldt", _one("lambda_reads"), None),
    ("charsum.integers", "mobius_sieve", "integers.mult_sieve", _one("mult_calls"), None),
    ("charsum.integers", "divisor_count_sieve", "integers.mult_sieve", _one("mult_calls"), None),
    ("charsum.integers", "tau_r_sieve", "integers.mult_sieve", _one("mult_calls"), None),
    ("charsum.integers", "dirichlet_convolve", "integers.mult_sieve", _one("mult_calls"), None),
    ("charsum.integers", "factor", "integers.factor", _one("factor_calls"), None),
    ("charsum.characters", "unit_group_basis", "characters.basis", _basis_modulus, None),
    ("charsum.characters", "all_character_tables", "characters.tables", _entries, None),
    ("charsum.sums", "shifted_prime_sum", "sums.kernel", _terms, None),
    ("charsum.sums", "restricted_sum", "sums.kernel", _terms, None),
    ("charsum.sums", "short_sum", "sums.kernel", _terms, None),
    ("charsum.sums", "sy_sum", "sums.kernel", _terms, None),
    ("charsum.sums", "double_sum", "sums.kernel", _terms, None),
    ("charsum.sums", "mobius_recombination", "sums.kernel", None, None),
    ("charsum.sums", "coprime_count_sweep", "sums.coprime_sweep", None, None),
    ("charsum.sums", "congruence_census", "sums.census", None, None),
    ("charsum.sums", "hb_decompose", "sums.hb", None, None),
    ("charsum.util", "complex_fsum", "util.reduce", None, None),
    ("charsum.bounds", "theorem_report", "bounds", _theorem_records, lambda a, k: len(a[0])),
    ("charsum.reports", "render_records", "reports", None, None),
    ("charsum.reports", "write_atomic", "reports", _bytes, None),
    ("charsum.cli", "main", "cli", None, None),
)

# (defining module, class, method, bucket, counter, pre-call hook)
METHODS = (
    ("charsum.characters", "UnitGroupBasis", "exponent_matrix", "characters.basis", None, None),
    ("charsum.characters", "UnitGroupBasis", "unit_mask", "characters.basis", None, None),
    ("charsum.characters", "UnitGroupBasis", "unit_flat_index", "characters.basis", None, None),
    ("charsum.characters", "UnitGroupBasis", "conductor_grid", "characters.basis", None, None),
    ("charsum.characters", "DirichletCharacter", "value_table", "characters.tables",
     _built_entries, lambda a, k: a[0]._table is None),
)


def _bounds_entry_points():
    """The report and verify functions the CLI calls in ``charsum.bounds``."""
    mod = sys.modules["charsum.bounds"]
    for name, obj in sorted(vars(mod).items()):
        if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                and not name.startswith("_") and name != "theorem_report"
                and (name.endswith("_report") or name.endswith("_verify"))):
            yield name


class Tracer:
    """Span recorder plus the patch table that installs and removes it."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, fn, name, bucket, counter, pre, args, kwargs, parent):
        stack = self._stack()
        sid = next(self._ids)
        par = stack[-1][0] if stack else parent
        state = pre(args, kwargs) if pre else None
        stack.append((sid, name, bucket))
        counts = None
        returned = False
        t0 = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            returned = True
            return result
        finally:
            t1 = perf_counter_ns()
            stack.pop()
            if counter is not None and returned:
                counts = counter(args, kwargs, result, state)
            self.spans.append((sid, par, name, bucket, t0, t1, counts))

    def wrap(self, fn, name, bucket, counter=None, pre=None, parent=0):
        """``fn`` recording one span per call; ``parent`` is used on threads
        where no span is open."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(fn, name, bucket, counter, pre, args, kwargs, parent)

        setattr(traced, _MARK, True)
        return traced

    def _map_blocks(self, original):
        """``map_blocks`` whose blocks are spans of the layer that called it."""

        @functools.wraps(original)
        def map_blocks(fn, blocks, *args, **kwargs):
            stack = self._stack()
            own = stack[-1][0]
            caller, bucket = stack[-2][1:] if len(stack) > 1 else ("?", "?")
            # blocks run on pool threads whose own stacks are empty, so they
            # name this span as parent explicitly
            block = self.wrap(fn, caller + ".block", bucket, parent=own)
            return original(block, blocks, *args, **kwargs)

        return self.wrap(map_blocks, "util.map_blocks", "util.dispatch",
                         lambda args, kwargs, result, pre: {"blocks": len(args[1])})

    def _math_module(self):
        proxy = types.ModuleType("math")
        proxy.__dict__.update(math.__dict__)
        traced = self.wrap(math.fsum, "math.fsum", "util.reduce", _fsum_terms,
                           lambda a, k: len(a[0]))

        def fsum(values):
            # generators are drained first so that their length can be counted
            return traced(values if hasattr(values, "__len__") else list(values))

        proxy.fsum = fsum
        setattr(proxy, _MARK, True)
        return proxy

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, original, replacement):
        for modname in MODULES:
            mod = sys.modules[modname]
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, replacement)

    def install(self) -> None:
        mods = {m: sys.modules[m] for m in MODULES}
        targets = list(FUNCTIONS)
        targets += [("charsum.bounds", n, "bounds", _records, None) for n in _bounds_entry_points()]
        for modname, attr, bucket, counter, pre in targets:
            original = getattr(mods[modname], attr)
            name = f"{modname.split('.')[-1]}.{attr}"
            self._patch_everywhere(original, self.wrap(original, name, bucket, counter, pre))
        for modname, cls, attr, bucket, counter, pre in METHODS:
            owner = getattr(mods[modname], cls)
            original = vars(owner)[attr]
            self._patch(owner, attr, self.wrap(original, f"{cls}.{attr}", bucket, counter, pre))
        util = mods["charsum.util"]
        self._patch_everywhere(util.map_blocks, self._map_blocks(util.map_blocks))
        proxy = self._math_module()
        for mod in mods.values():
            if vars(mod).get("math") is math:
                self._patch(mod, "math", proxy)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def installed_wrappers() -> list[str]:
    """Names in the charsum namespaces that still hold a benchmark wrapper."""
    found = []
    for modname in MODULES:
        mod = sys.modules.get(modname)
        if mod is None:
            continue
        for attr, value in vars(mod).items():
            if getattr(value, _MARK, False) is True:
                found.append(f"{modname}.{attr}")
            if isinstance(value, type) and value.__module__.startswith("charsum"):
                found += [f"{modname}.{attr}.{m}" for m, v in vars(value).items()
                          if getattr(v, _MARK, False) is True]
    return found


# Per-layer metrics: (name, unit, better).  bench/README.md gives, for each,
# the end-to-end metric it should move and the workloads where it stays flat.
LAYER_METRICS = (
    ("integers.mangoldt_sieve_s", "s", "lower"),
    ("integers.sieved_n", "count", "lower"),
    ("integers.mult_sieve_s", "s", "lower"),
    ("integers.mult_sieve_calls", "count", "lower"),
    ("integers.factor_s", "s", "lower"),
    ("integers.factor_calls", "count", "lower"),
    ("characters.basis_s", "s", "lower"),
    ("characters.basis_reuse_ratio", "ratio", "higher"),
    ("characters.tables_s", "s", "lower"),
    ("characters.table_entries", "count", "lower"),
    ("sums.kernel_s", "s", "lower"),
    ("sums.terms", "count", "lower"),
    ("sums.lambda_reuse_ratio", "ratio", "higher"),
    ("sums.coprime_sweep_s", "s", "lower"),
    ("sums.census_s", "s", "lower"),
    ("sums.hb_s", "s", "lower"),
    ("util.reduce_s", "s", "lower"),
    ("util.reduce_terms", "count", "lower"),
    ("util.blocks", "count", "lower"),
    ("util.dispatch_s", "s", "lower"),
    ("bounds.self_s", "s", "lower"),
    ("bounds.records", "count", "higher"),
    ("bounds.skipped", "count", "lower"),
    ("reports.render_s", "s", "lower"),
    ("reports.bytes", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

SELF_TIME = {
    "integers.mangoldt": "integers.mangoldt_sieve_s",
    "integers.mult_sieve": "integers.mult_sieve_s",
    "integers.factor": "integers.factor_s",
    "characters.basis": "characters.basis_s",
    "characters.tables": "characters.tables_s",
    "sums.kernel": "sums.kernel_s",
    "sums.coprime_sweep": "sums.coprime_sweep_s",
    "sums.census": "sums.census_s",
    "sums.hb": "sums.hb_s",
    "util.reduce": "util.reduce_s",
    "util.dispatch": "util.dispatch_s",
    "bounds": "bounds.self_s",
    "reports": "reports.render_s",
    "cli": "cli.self_s",
}

COUNTS = {
    "sieved_n": "integers.sieved_n",
    "mult_calls": "integers.mult_sieve_calls",
    "factor_calls": "integers.factor_calls",
    "table_entries": "characters.table_entries",
    "terms": "sums.terms",
    "reduce_terms": "util.reduce_terms",
    "blocks": "util.blocks",
    "records": "bounds.records",
    "skipped": "bounds.skipped",
    "bytes": "reports.bytes",
}


def _covered(intervals, lo, hi) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_metrics(spans) -> dict:
    """Per-layer metrics (all but trace.overhead_ratio) from a span list."""
    children: dict[int, list] = {}
    for _sid, par, _name, _bucket, t0, t1, _counts in spans:
        children.setdefault(par, []).append((t0, t1))
    out = {name: 0 for name, _, _ in LAYER_METRICS if name != "trace.overhead_ratio"}
    moduli: list[int] = []
    lambda_reads = sieves = 0
    for sid, _par, name, bucket, t0, t1, counts in spans:
        metric = SELF_TIME.get(bucket)
        if metric is not None:
            out[metric] += (t1 - t0 - _covered(children.get(sid, ()), t0, t1)) / 1e9
        if name == "integers.mangoldt_sieve":
            sieves += 1
        for key, value in (counts or {}).items():
            if key == "modulus":
                moduli.append(value)
            elif key == "lambda_reads":
                lambda_reads += value
            else:
                out[COUNTS[key]] += value
    out["characters.basis_reuse_ratio"] = 1 - len(set(moduli)) / len(moduli) if moduli else 0.0
    out["sums.lambda_reuse_ratio"] = 1 - sieves / lambda_reads if lambda_reads else 0.0
    out["trace.spans"] = len(spans)
    return out
