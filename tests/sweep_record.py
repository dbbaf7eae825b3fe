"""What the timing sweeps in this directory share: one BLAS thread, one
timing loop and one command line, which writes the JSON record of their
rows with the machine's description.  A sweep whose ``rows`` takes
``against`` also times this checkout against another one in one process
(``--against DIR``, ``interleaved``).

Import it before numpy, so the thread pinning takes effect.  Not a test:
pytest does not collect it.
"""

import argparse
import gc
import importlib.util
import inspect
import json
import os
import platform
import sys
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


def interleaved(call, against, rounds: int) -> dict:
    """Time ``call`` (this checkout) against ``against`` (another tree) in
    ``rounds`` rounds, each calling both once, ``call`` first in even rounds
    and ``against`` first in odd ones, so a slow spell of a shared host and
    any cost of going first or second weigh on both alike.  Returns both
    minima, the median per-round ratio ``call / against`` and the share of
    rounds each side was the faster.  The cyclic garbage collector is off
    while a round runs, as in ``best_times``, and collects between rounds.
    """
    times = np.empty((rounds, 2))
    was_enabled = gc.isenabled()
    try:
        for r in range(rounds):
            gc.collect()
            gc.disable()
            for k in (0, 1) if r % 2 == 0 else (1, 0):
                start = time.perf_counter()
                (call, against)[k]()
                times[r, k] = time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
    return {
        "rounds": rounds,
        "this_min_s": round(float(times[:, 0].min()), 6),
        "against_min_s": round(float(times[:, 1].min()), 6),
        "median_ratio": round(float(np.median(times[:, 0] / times[:, 1])), 4),
        "this_won": round(float(np.mean(times[:, 0] < times[:, 1])), 3),
        "against_won": round(float(np.mean(times[:, 1] < times[:, 0])), 3),
    }


def load_against(root):
    """The package ``src/liephase`` of the checkout at ``root``, loaded as a
    second package, ``liephase_against``, next to this checkout's
    ``liephase``: its modules are distinct objects, so their caches do not
    mix.  A package loaded before under that name is dropped first."""
    src = Path(root).resolve() / "src" / "liephase"
    name = "liephase_against"
    for loaded in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[loaded]
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def main(argv, rows, what: str, out: str, repeats: int) -> int:
    """The command line of a sweep: tag each row of ``rows(--repeats)`` with
    ``--label``, a name for the code measured, and ``"gc": "off"``, as
    ``best_times`` times them, print it, and write the rows
    with the machine's description to ``--out`` (``out`` at the repository
    root), keeping the rows of every other label already there, and the
    unlabelled rows of earlier records, so two checkouts can share one.

    ``--against DIR`` names the root of another checkout, which is loaded
    as a second package (``load_against``) and handed to
    ``rows(--repeats, against=...)``; a sweep whose ``rows`` takes no
    ``against`` refuses it.  The rows of such a run record the other
    tree's directory name as ``"against"``."""
    parser = argparse.ArgumentParser(description=what)
    parser.add_argument("--label", required=True)
    parser.add_argument("--repeats", type=int, default=repeats)
    parser.add_argument("--out", default=str(ROOT / out))
    parser.add_argument("--against", metavar="DIR")
    args = parser.parse_args(argv)

    tag = {"label": args.label, "gc": "off"}
    if args.against is None:
        made = rows(args.repeats)
    elif "against" not in inspect.signature(rows).parameters:
        parser.error("--against: this sweep times one checkout only")
    elif not (Path(args.against) / "src" / "liephase" / "__init__.py").is_file():
        parser.error(f"--against: no src/liephase package under {args.against}")
    else:
        made = rows(args.repeats, against=load_against(args.against))
        tag["against"] = Path(args.against).resolve().name
    new = []
    for row in made:
        new.append({**tag, **row})
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
                   "--label <name>" + (" --against <dir>" if args.against else ""),
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
