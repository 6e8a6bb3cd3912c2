"""Tiny-size checks of the benchmark itself.

Outside the package's test paths, so they add nothing to the main suite;
run them with ``python3 -m pytest benchmarks`` (about a minute).
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = ("count", "points/call")
# Per-layer metrics (by name prefix) that each workload moves, as the
# benchmark's design maps them; a layer a workload never enters reads 0.
EVERYWHERE = ("density.build", "cli.import_s")
MOVES = {
    "rate": ("density.kernel", "density.points", "quadrature.quad", "quadrature.self",
             "ratefn."),
    "paths": ("density.kernel", "density.points", "quadrature.", "ratefn.tilt",
              "sampler.tilted", "sampler.is_", "paths.path", "paths.scan", "paths.self"),
    "gibbs": ("quadrature.table", "sampler.pair", "sampler.gibbs", "sampler.self"),
    "oracle": ("density.g_calls", "variational.", "smalln.", "conditions.", "cli."),
}


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result(workload: str, trace: int) -> dict:
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, proc.stderr
    return out


def units(out: dict) -> dict:
    return {name: m["unit"] for name, m in out["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_match_the_spec(workload):
    out = result(workload, 0)
    assert units(out) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0.0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_and_entered_layers_move(workload):
    first, second = result(workload, 1), result(workload, 1)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert units(first) == declared
    for name, unit in declared.items():
        value = first["metrics"][name]["value"]
        if unit in COUNT_UNITS:
            assert value == second["metrics"][name]["value"], name
        if name.startswith(EVERYWHERE + MOVES[workload]):
            assert value > 0.0, name


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
