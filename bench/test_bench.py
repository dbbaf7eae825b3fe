"""The benchmark's own tests: smoke runs, gate teeth, and the bare-directory refusal.

    python3 -m pytest -q -p no:cacheprovider bench/test_bench.py

The smoke runs use the tiny sizes and one second per run.  Everything the
tests write goes under .bench-out/ in the checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench-out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
import child  # noqa: E402
import workloads  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in wanted:
        assert any(line.split()[1:2] == [m["name"]] and line.endswith(" " + m["unit"])
                   for line in lines[:-1]), m["name"]


def run_in_process(workload_name: str, sabotage) -> dict:
    """One short untraced run at tiny size after ``sabotage(workload)``."""
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="teeth-", dir=OUT))
    try:
        workload = workloads.WORKLOADS[workload_name](5, "tiny", workdir)
        workload.setup()
        sabotage(workload)
        return child.measure(workload, 0.2, False, lambda: (0.1, 0.2, True, 0.15))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def wrong_wep_reference(w):
    right = w.analytic_fixed_deviation()
    w.analytic_fixed_deviation = lambda: right + 1e-7  # ten times the 1e-8 tolerance


def wrong_trajectory_reference(w):
    prepare = w.prepare

    def wrong_prepare():
        problems = prepare()
        w.reference.states[-1, 0] += 1e-9
        return problems

    w.prepare = wrong_prepare


def wrong_closure_expectation(w):
    expected = w.expected
    w.expected = lambda plan: dict(expected(plan), closes=not expected(plan)["closes"])


def wrong_report_bytes(w):
    w.reference = {name: b"{}\n" for name in w.names}


@pytest.mark.parametrize("workload_name, sabotage", [
    ("wep-sweep", wrong_wep_reference),
    ("nbody-cli", wrong_trajectory_reference),
    ("com-verify", wrong_closure_expectation),
    ("cli-bundled", wrong_report_bytes),
])
def test_a_wrong_reference_raises_failed_ratio(workload_name, sabotage):
    honest = run_in_process(workload_name, lambda w: None)
    assert honest["failed"] == 0, honest["failures"]
    broken = run_in_process(workload_name, sabotage)
    assert broken["failed"] > 0 and broken["failures"]
    assert broken["failed"] / broken["attempted"] > 0


def test_refuses_a_directory_without_the_program():
    OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=OUT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
