"""The benchmark records at the repository root say what they measured and how."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_names_its_parent_environment_and_commands(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record["label"] == path.stem[len("BENCH_"):]
    for key in ("parent", "environment", "how"):
        assert record[key], key
    assert record["end_to_end"]
    for workload, seeds in record["end_to_end"].items():
        assert seeds, workload
        for seed, entry in seeds.items():
            command = entry["command"]
            assert command.startswith("python3 perfbench/run.py "), (workload, seed)
            assert f"--workload {workload} " in command and f"--seed {seed} " in command
