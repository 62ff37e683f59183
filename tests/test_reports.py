"""Serialization tests: schema header, fixed CSV columns, atomic writes,
runtimes written as the records carry them."""

import json
import os

from charsum.bounds import make_record
from charsum.reports import (
    CSV_COLUMNS,
    SCHEMA,
    any_assert_failure,
    records_to_csv,
    records_to_jsonl,
    render_records,
    write_atomic,
)


def sample_records():
    a = make_record("ORTHOGONALITY", {"max_D": 10}, 1e-12, 1e-9, "ASSERT")
    b = make_record("THEOREM_T", {"D": 105, "x": 62}, 16.8, 17.0, "MONITOR")
    b.runtime_ms = 12
    return [a, b]


def test_jsonl_header_and_lines():
    data = records_to_jsonl(sample_records(), {"command": "test"})
    lines = data.decode().strip().split("\n")
    head = json.loads(lines[0])
    assert head["schema"] == SCHEMA
    assert head["command"] == "test"
    rec = json.loads(lines[1])
    assert rec["lemma_tag"] == "ORTHOGONALITY"
    assert rec["mode"] == "ASSERT" and rec["verdict"] == "pass"
    assert rec["runtime_ms"] is None  # an untimed record
    rec2 = json.loads(lines[2])
    assert rec2["runtime_ms"] == 12  # written as it stands: the CLI clears it without --timings


def test_jsonl_deterministic_bytes():
    assert records_to_jsonl(sample_records(), {"a": 1}) == records_to_jsonl(
        sample_records(), {"a": 1}
    )


def test_csv_columns_fixed():
    data = records_to_csv(sample_records()).decode()
    lines = data.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1].startswith("ORTHOGONALITY,")
    assert lines[1].endswith(",pass,")  # empty runtime cell
    assert '""' not in lines[0]


def test_render_dispatch_and_unknown_format():
    assert render_records(sample_records(), "jsonl").startswith(b"{")
    assert render_records(sample_records(), "csv").startswith(b"lemma_tag")
    try:
        render_records(sample_records(), "xml")
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError")


def test_write_atomic(tmp_path):
    path = tmp_path / "out.jsonl"
    write_atomic(str(path), b"hello\n")
    assert path.read_bytes() == b"hello\n"
    write_atomic(str(path), b"replaced\n")
    assert path.read_bytes() == b"replaced\n"
    leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
    assert leftovers == []


def test_any_assert_failure():
    recs = sample_records()
    assert not any_assert_failure(recs)
    recs.append(make_record("X", {}, 2.0, 1.0, "ASSERT"))
    assert any_assert_failure(recs)
