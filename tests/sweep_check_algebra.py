"""Time the ``check-algebra`` task on its sample states.

For the bundled scenarios ``spacetime_eom`` (SpaceTime, one particle, a
Newtonian field) and ``miao1_jacobi`` (MiaoTypeI, one particle, no field),
each with ``options.samples`` set to 25 (the bundled count), 200 and 1000,
records the minimum wall time of the task's run in process: the checks a
``liephase run`` makes, without parsing the file or writing the report.

With ``--against DIR``, each case times this checkout against the checkout
at ``DIR`` (``sweep_record.interleaved``) on the same scenario, built by
each tree's ``cli.scenario_from_dict`` from this checkout's scenario data.
Its row records both minima, the median per-round ratio and the rounds each
side won, and whether the two trees' checks agree value for value.  The
rows, tagged with ``--label`` (the code measured), are written to
``BENCH_check_algebra.json`` at the repository root, keeping the rows of
every other label::

    PYTHONPATH=src python tests/sweep_check_algebra.py --label <name> [--repeats 40] [--against DIR]

Not a test: pytest does not collect it.
"""

import importlib
import sys
import tempfile
from pathlib import Path

import sweep_record  # first: it pins the BLAS threads
from sweep_record import best_times, interleaved

from liephase import cli

SCENARIOS = ("spacetime_eom", "miao1_jacobi")
SAMPLES = (25, 200, 1000)


def task(package, data: dict, out: Path):
    """A call of ``package``'s check-algebra task on the scenario ``data``,
    returning its checks as (name, value, passed) triples."""
    tree = importlib.import_module(f"{package.__name__}.cli") if package else cli
    scenario = tree.scenario_from_dict(data)
    run = tree._TASKS["check-algebra"].run

    def call():
        runner = tree._CheckRunner()
        run(scenario, None, runner, out)
        return [(c.name, c.computed, c.passed) for c in runner.checks]
    return call


def rows(repeats: int, against=None):
    with tempfile.TemporaryDirectory(prefix="sweep_check_algebra-") as work:
        for name in SCENARIOS:
            data = cli.load_scenario(name).to_dict()
            for samples in SAMPLES:
                data["options"] = {**data["options"], "samples": samples}
                this = task(None, data, Path(work))
                row = {"scenario": name, "samples": samples}
                if against is None:
                    (s,), _ = best_times([lambda: this], repeats)
                    yield {**row, "min_s": round(s, 6)}
                    continue
                theirs = task(against, data, Path(work))
                agree = this() == theirs()
                yield {**row, **interleaved(this, theirs, repeats), "checks_agree": agree}


def main(argv=None) -> int:
    return sweep_record.main(
        argv, rows,
        "check-algebra task in process over its sample states, in s; with --against "
        "interleaved with another checkout",
        "BENCH_check_algebra.json", repeats=40,
    )


if __name__ == "__main__":
    sys.exit(main())
