"""What the timing sweeps in this directory share: one BLAS thread, one
timing loop and one command line, which writes the JSON record of their
rows with the machine's description.

Import it before numpy, so the thread pinning takes effect.  Not a test:
pytest does not collect it.
"""

import argparse
import gc
import json
import os
import platform
import time
from pathlib import Path

# one BLAS thread, as the benchmark pins it, so the timings are per core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def best_times(makers, repeats: int) -> tuple[list[float], list]:
    """Minimum wall time of ``repeats`` calls of each case of a group, and
    what each case's last call returned.

    Each maker returns the function to time, so what it builds first is
    not timed.  The calls are made in rounds, each round calling every case
    once, so a slow spell of a shared host weighs on every case alike.  The
    cyclic garbage collector is off while they run, as ``timeit`` has it, so
    a collection that earlier cases' garbage sets off is not timed in a
    later case; its previous state is restored afterwards.
    """
    best, results = [np.inf] * len(makers), [None] * len(makers)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            for k, make in enumerate(makers):
                timed = make()
                start = time.perf_counter()
                results[k] = timed()
                best[k] = min(best[k], time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return best, results


def back_to_back(call, calls: int):
    """A ``best_times`` maker that times ``calls`` calls of ``call`` back to
    back and returns the last one's result.  A case of tens of microseconds
    is timed so, and recorded as one call's share: a lone call between
    heavier cases can read several times its cost in a loop."""
    def timed():
        for _ in range(calls - 1):
            call()
        return call()
    return lambda: timed


def main(argv, rows, what: str, out: str, repeats: int) -> int:
    """The command line of a sweep: tag each row of ``rows(--repeats)`` with
    ``--label``, a name for the code measured, and ``"gc": "off"``, as
    ``best_times`` times them, print it, and write the rows
    with the machine's description to ``--out`` (``out`` at the repository
    root), keeping the rows of every other label already there, and the
    unlabelled rows of earlier records, so two checkouts can share one."""
    parser = argparse.ArgumentParser(description=what)
    parser.add_argument("--label", required=True)
    parser.add_argument("--repeats", type=int, default=repeats)
    parser.add_argument("--out", default=str(ROOT / out))
    args = parser.parse_args(argv)

    new = []
    for row in rows(args.repeats):
        new.append({"label": args.label, "gc": "off", **row})
        print(json.dumps(new[-1]), flush=True)
    path = Path(args.out)
    kept = []
    if path.exists():
        kept = [row for row in json.loads(path.read_text())["rows"]
                if row.get("label") != args.label]
    record = {
        "what": f"{what}: minimum wall time of {args.repeats} calls, made in rounds "
                "over the cases of a group, per label of the code measured",
        "command": f"PYTHONPATH=src python tests/{Path(rows.__code__.co_filename).name} "
                   "--label <name>",
        "machine": {
            "cpu": cpu_model(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        },
        "rows": kept + new,
    }
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0
