"""A short traced run of every workload in BENCHMARK.json ends with a result
line that a strict JSON reader accepts, reports a correct run and carries
every declared per-layer metric."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    """src/, benchmark/ and BENCHMARK.json in a fresh directory, so the run
    writes its .bench_run/ there."""
    root = tmp_path_factory.mktemp("checkout")
    for name in ("src", "benchmark"):
        shutil.copytree(ROOT / name, root / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".bench_run"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_traced_run_ends_with_an_accepted_result_line(checkout, workload):
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "2", "--trace", "1"],
        cwd=checkout, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_refuse_constant)
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert sorted(result["metrics"]) == sorted(m["name"] for m in DECLARED["per_layer"])
