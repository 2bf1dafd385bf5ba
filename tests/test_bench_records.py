"""The benchmark records at the root of the repository: each BENCH_*.json
names the change it measured, the two commits, the machine, the command
and how its statistics were taken, next to the numbers themselves."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
FIELDS = (
    "label",
    "change",
    "parent_commit",
    "change_commit",
    "machine",
    "command",
    "statistics",
    "workloads",
)


def test_records_exist():
    assert len(RECORDS) >= 12


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_has_the_shared_fields(path):
    record = json.loads(path.read_text())
    assert isinstance(record, dict)
    assert [f for f in FIELDS if f not in record] == []
    assert record["workloads"]
