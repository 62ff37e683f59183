"""Report serialization: versioned JSON-lines and a fixed-column CSV,
written atomically (temp file + rename) so interrupted sweeps never leave
truncated output.

Byte-identical reruns are part of the contract, so serialization is fully
deterministic: keys sorted, floats via repr, no timestamps.  A record's
``runtime_ms`` is written as it stands; the CLI clears it (null) unless
``--timings`` is given.
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction

from .bounds import BoundCheckRecord

SCHEMA = "charsum.report/1"

CSV_COLUMNS = ("lemma_tag", "params", "lhs", "rhs", "ratio", "mode", "verdict", "runtime_ms")


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, bool) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalars
        return value.item()
    if isinstance(value, float) and value != value:  # NaN has no JSON form
        return "nan"
    return value


def record_to_dict(record: BoundCheckRecord) -> dict:
    return {
        "lemma_tag": record.lemma_tag,
        "parameters": _jsonable(record.parameters),
        "lhs": _jsonable(record.lhs),
        "rhs": _jsonable(record.rhs),
        "ratio": _jsonable(record.ratio),
        "mode": record.mode,
        "verdict": record.verdict,
        "runtime_ms": record.runtime_ms,
    }


def records_to_jsonl(records, header: dict | None = None) -> bytes:
    head = {"schema": SCHEMA}
    if header:
        head.update(_jsonable(header))
    lines = [json.dumps(head, sort_keys=True)]
    for rec in records:
        lines.append(json.dumps(record_to_dict(rec), sort_keys=True))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _csv_quote(text: str) -> str:
    if any(c in text for c in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def records_to_csv(records) -> bytes:
    rows = [",".join(CSV_COLUMNS)]
    for rec in records:
        d = record_to_dict(rec)
        params = json.dumps(d["parameters"], sort_keys=True)
        cells = (
            d["lemma_tag"],
            _csv_quote(params),
            repr(d["lhs"]),
            repr(d["rhs"]),
            repr(d["ratio"]),
            d["mode"],
            str(d["verdict"]),
            "" if d["runtime_ms"] is None else str(d["runtime_ms"]),
        )
        rows.append(",".join(cells))
    return ("\n".join(rows) + "\n").encode("utf-8")


def render_records(records, fmt: str = "jsonl", header: dict | None = None) -> bytes:
    if fmt == "jsonl":
        return records_to_jsonl(records, header)
    if fmt == "csv":
        return records_to_csv(records)
    raise ValueError(f"unknown format {fmt!r}")


def write_atomic(path: str, data: bytes) -> None:
    """Write via a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".charsum-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def any_assert_failure(records) -> bool:
    return any(r.mode == "ASSERT" and r.verdict == "fail" for r in records)
