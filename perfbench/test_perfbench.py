"""The benchmark's own tests: tiny (``--smoke``) runs of every workload.

    python3 -m pytest perfbench -q

Each run must print every configured metric by name with its unit, and
both correctness checks (the chunked-reference oracle on ``eval-4t``, the
bit-exact harness comparison on the serve workloads) must fire when one
answer is deliberately wrong.  A few minutes in total: the serve runs
start real servers.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]


def bench(workload: str, *extra: str, trace: int = 0, seconds: int = 3,
          cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", str(seconds), "--trace", str(trace),
         "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert isinstance(line["failed"], int)
    return line


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    # A traced serve run drives four segments; give each a few requests.
    line = result_line(bench(workload, trace=trace, seconds=8 if trace else 3))
    specs = CONFIG["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [spec["name"] for spec in specs]
    for spec in specs:
        value = line["metrics"][spec["name"]]
        assert value["unit"] == spec["unit"]
        assert isinstance(value["value"], float)
    assert line["correct"] and line["failed"] == 0, line
    if not trace:
        for spec in specs:
            assert line["metrics"][spec["name"]]["value"] > 0, spec["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_correctness_check_fires_on_wrong_output(workload):
    line = result_line(bench(workload, "--inject-wrong-output"))
    assert line["correct"] is False
    assert line["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
