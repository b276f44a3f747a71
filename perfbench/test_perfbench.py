"""Self-test of the benchmark: determinism, result shape, refusal without sources.

    python3 -m pytest -q perfbench

Each test runs the tiny configuration (``--scale tiny``) in a subprocess.
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
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "2", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _parse(done) -> tuple[dict, dict]:
    assert done.returncode == 0, done.stderr
    *_, detail, result = done.stdout.strip().splitlines()
    return json.loads(detail.removeprefix("detail ")), json.loads(result)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_runs_repeat_exactly(workload):
    first, result = _parse(_run(workload, 1))
    second, _ = _parse(_run(workload, 1))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {name for name, _ in run.LAYER}
    assert first["counts"] == second["counts"]
    assert first["digest"] == second["digest"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_plain_run_reports_end_to_end_metrics(workload):
    detail, result = _parse(_run(workload, 0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert detail["environment"]["src_lines"] > 0


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("ore-exact", 0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert done.returncode != 0
    assert done.stdout == ""
