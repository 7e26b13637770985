"""Self-test of the benchmark at a tiny input size.

Run from the repository root:

    python3 -m pytest perfbench -q

It checks that the input-derived counts repeat exactly across two runs with
one seed, that every metric named in BENCHMARK.json is printed with its
unit, and that the benchmark refuses to run without the package source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Counts that depend only on the inputs, with the workloads where they must
# be non-zero.
INPUT_COUNTS = {
    "boundary.estimate.pairs": ("decide-small", "decide-dense"),
    "boundary.estimate.max_window": ("decide-small", "decide-dense"),
    "cloud.voxel.keep_ratio": ("decide-small", "decide-dense"),
    "cloud.ransac.inlier_ratio": ("decide-small", "decide-dense"),
    "drive.track.steps": ("sim-loop",),
    "actuate.magnet.steps": ("sim-loop",),
}


def bench(workload, trace, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def parsed(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_input_counts_repeat_with_one_seed(workload):
    first = parsed(bench(workload, 1))[1]["metrics"]
    second = parsed(bench(workload, 1))[1]["metrics"]
    for name, nonzero_on in INPUT_COUNTS.items():
        assert first[name]["value"] == second[name]["value"], name
        if workload in nonzero_on:
            assert first[name]["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_printed_with_its_unit(workload, trace, section):
    lines, result = parsed(bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    named = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == named
    for name, unit in named.items():
        assert any(line.startswith(f"{name} = ") and line.split()[3] == unit for line in lines), name


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("sim-loop", 0, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
