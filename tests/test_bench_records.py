"""Every `BENCH_<n>.json` record at the root of the repository parses and
carries the fields that a benchmark record states: what changed, what was
claimed, the command, the layer that moved, the source size, the verdict
and the per-workload numbers.  The records are only read."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
FIELDS = {"change", "claim", "command", "layer_moved", "src_ttkit_lines", "verdict", "workloads"}


def test_there_are_bench_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_bench_record_carries_the_required_fields(path):
    assert path.stem.split("_", 1)[1].isdigit()
    record = json.loads(path.read_text())
    assert isinstance(record, dict)
    assert sorted(FIELDS - set(record)) == []
    assert isinstance(record["workloads"], dict) and record["workloads"]
