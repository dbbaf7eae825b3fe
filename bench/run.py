"""liephase benchmark: one command, every metric by name and unit.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each workload runs in its own fresh process (bench/child.py), one at a
time, with the BLAS thread count pinned to 1.  With --trace 0 the last
stdout line is a JSON object holding the end-to-end metrics; with --trace 1
it holds the per-layer metrics of a traced run, whose spans are written to
.bench-out/trace-<workload>.json.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench-out"
WORKLOADS = ("wep-sweep", "nbody-cli", "com-verify", "cli-bundled")
# the workload's throughput, under the name each workload's docs use
ITEM_METRIC = {"particle_steps": "particle_steps_per_s", "systems": "systems_per_s",
               "scenarios": "scenarios_per_s"}
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    cmd = [sys.executable, str(BENCH / "child.py"), "run", workload, str(seed), size,
           str(workdir), str(seconds), "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        raise BenchError(f"{workload} timed out after {CHILD_TIMEOUT_S} s") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """Run one workload and return the contract's result plus details."""
    result = run_child(workload, seed, seconds, trace, size)
    attempted, failed = result["attempted"], result["failed"]
    detail = {k: result[k] for k in ("passes", "tail_percentile", "tail_samples_beyond",
                                     "own_setup_s", "failures")}
    detail[ITEM_METRIC[result["item"]]] = result["items_per_s"]
    detail["failed_ratio"] = failed / attempted
    if trace:
        metrics = result["layers"]
        spans_path = OUT / f"trace-{workload}.json"
        spans_path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "size"], "spans": result["spans"]}))
        detail.update(traced_passes=result["traced_passes"],
                      untraced_pass_p50_s=result["wall_pass_p50_s"],
                      traced_pass_p50_s=result["traced_pass_p50_s"],
                      spans=str(spans_path.relative_to(ROOT)))
    else:
        # times are at the reference machine speed; the wall_* details are unscaled
        metrics = {
            "setup_s": (statistics.median(result["setup_samples"]), "s"),
            "pass_p50_s": (result["pass_p50_s"], "s"),
            "pass_tail_s": (result["pass_tail_s"], "s"),
            "items_per_s": (result["items_per_s"], "1/s"),
            "cold_run_s": (statistics.median(result["cold_run_samples"]), "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
        detail.update({k: result[k] for k in (
            "reference_p50_s", "fresh_reference_p50_s", "wall_pass_p50_s", "wall_items_per_s", "setup_samples",
            "wall_setup_samples", "cold_run_samples", "wall_cold_run_samples")})
    return {
        "env": dict(result["env"], seed=seed, workload=workload, seconds=seconds, size=size),
        "detail": detail,
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": metrics},
    }


def print_block(measured: dict) -> None:
    env = measured["env"]
    print(f"# {env['workload']}: seed {env['seed']}, {env['seconds']} s, size {env['size']}")
    print("# env " + json.dumps({k: v for k, v in env.items() if k != "workload"}))
    print("# detail " + json.dumps(measured["detail"]))
    res = measured["result"]
    print(f"#   {'failed_ratio':40s} {measured['detail']['failed_ratio']:.6g} "
          f"({res['failed']} of {res['attempted']} items)")
    for name, m in res["metrics"].items():
        print(f"#   {name:40s} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the smoke-test sizes")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "liephase" / "__init__.py").is_file():
        print(f"no liephase sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            measured = measure(name, args.seed, args.seconds, bool(args.trace), args.size)
            print_block(measured)
            results[name] = measured["result"]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
