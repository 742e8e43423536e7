"""Tests of the benchmark itself, on the smoke size of every workload.

    python3 -m pytest -q perfbench
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
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def smoke(workload: str, trace: int) -> tuple[dict, dict]:
    rc, lines = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                      "--trace", str(trace), "--size", "smoke")
    assert rc == 0, lines
    return json.loads(lines[1])["report"], json.loads(lines[-1])


def test_benchmark_json_matches_the_catalogue():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.per_layer_units()
    built = workloads.build("full")
    assert {w["name"]: w["why"] for w in BENCH["workloads"]} == {
        name: w.why for name, w in built.items()
    }
    assert BENCH["paths"] == ["perfbench"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric_and_traced_output_matches(workload):
    report0, result0 = smoke(workload, 0)
    report1, result1 = smoke(workload, 1)
    for result, section in ((result0, "end_to_end"), (result1, "per_layer")):
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 2
        expected = {m["name"]: m["unit"] for m in BENCH[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    named = set(run.E2E_EXTRA_UNITS) | set(run.E2E_UNITS) | set(run.per_layer_units())
    assert named <= set(report1["metrics"])
    assert report0["report_sha256"] == report1["report_sha256"]
    assert len(report0["report_sha256"]) == 1
    assert report1["traced_repeats"] >= 1


def test_refuses_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    rc, lines = bench("--workload", "desk", "--seed", "0", "--seconds", "1",
                      "--trace", "0", cwd=tmp_path)
    assert rc != 0
    assert not any('"correct"' in line for line in lines)


def test_refuses_when_numpy_loaded_before_the_pin():
    code = (
        "import numpy, runpy, sys; "
        "sys.argv = ['run.py', '--workload', 'desk', '--seed', '0', "
        "'--seconds', '1', '--size', 'smoke']; "
        "runpy.run_path('perfbench/run.py', run_name='__main__')"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "refused" in proc.stderr


def test_tracer_patches_where_names_are_looked_up_and_restores_them():
    from tkgdistill import evaluation, trainer

    before = (trainer.reasoning_loss_fwd, evaluation.EncodingCache.__dict__["at"])
    tr = tracer.Tracer()
    with tr:
        assert trainer.reasoning_loss_fwd is not before[0]
        assert evaluation.EncodingCache.__dict__["at"] is not before[1]
    assert (trainer.reasoning_loss_fwd, evaluation.EncodingCache.__dict__["at"]) == before
    assert tr.missing == []
