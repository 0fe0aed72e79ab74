"""The before/after benchmark records, ``BENCH_pr*.json`` at the root."""
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
RECORDS = sorted(ROOT.glob("BENCH_pr*.json"))


def _runs(node):
    """Every run result under node: each dict with a ``correct`` field."""
    if isinstance(node, dict):
        if "correct" in node:
            yield node
        else:
            for item in node.values():
                yield from _runs(item)
    elif isinstance(node, list):
        for item in node:
            yield from _runs(item)


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_covers_every_workload_with_correct_runs(path):
    # a record is read as evidence only if every run it stores checked its
    # answers and lost no op, on each workload the benchmark defines
    record = json.loads(path.read_text(encoding="utf-8"))
    assert WORKLOADS <= set(record["workloads"])
    for name in WORKLOADS:
        assert list(_runs(record["workloads"][name])), name
    for run in _runs(record):
        assert run["correct"] is True and run["failed"] == 0, run


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_claims_a_defined_end_to_end_metric(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    claim = record.get("claim")
    if claim is not None:
        assert claim["workload"] in WORKLOADS
        assert claim["metric"] in END_TO_END
