"""Time building and lowering the WEP runs as the number of masses B grows.

For the three single-particle cases of the benchmark's WEP sweep (see
``sweep_wep_report``), both scaling modes and B in (16, 256, 1024) seeded
masses, records the minimum wall time of a few calls of ``wep_runs``
followed by ``lower`` of each mode's runs: the cost of the runs before any
integration.  The calls of each B are made in rounds
(``sweep_record.best_times``), and the B are timed one after another, so no
call pays for memory that a larger B's call freed.  A B of at most
``SMALL`` masses is timed as ``SMALL_CALLS`` calls back to back
(``sweep_record.back_to_back``), of which the row records one call's share;
each row says how many calls it timed.  The rows, tagged with
``--label`` (the code measured), are written to ``BENCH_wep_runs.json`` at
the repository root, keeping the rows of every other label::

    PYTHONPATH=src python tests/sweep_wep_runs.py --label change [--repeats 20]

Only public calls are timed (``lower`` passes an already lowered stack
through).  ``wep_runs`` is called with one mode, as it takes it since both
modes share one lowering, so the script does not run on earlier versions
of the package, whose ``wep_runs`` took a tuple of modes.  Not a test:
pytest does not collect it.
"""

import sys

import sweep_record  # first: it pins the BLAS threads
from sweep_record import back_to_back, best_times

import numpy as np

import liephase as lp
from liephase.algebra import lower
from sweep_wep_report import CASES, MODES, templates

MASSES = (16, 256, 1024)
# at most this many masses take tens of microseconds: timed back to back
SMALL, SMALL_CALLS = 16, 20


def rows(repeats: int):
    scenarios = templates()
    cases = [(case, mode) for case in CASES for mode in MODES]
    for count in MASSES:
        masses = [float(m) for m in np.random.default_rng(count).uniform(0.5, 5.0, count)]
        calls = SMALL_CALLS if count <= SMALL else 1
        times, lowered = best_times(
            [back_to_back(lambda case=case, mode=mode:
                          lower(lp.wep_runs(scenarios[case], masses, mode)[1]), calls)
             for case, mode in cases], repeats)
        assert all(len(runs) == count for runs in lowered)
        for (case, mode), s in zip(cases, times):
            yield {"case": case, "mode": mode, "masses": count, "calls": calls,
                   "ms": round(s / calls * 1e3, 4)}


def main(argv=None) -> int:
    return sweep_record.main(
        argv, rows,
        "wep_runs then lower of the runs, for three single-particle cases, both modes "
        "and B seeded masses, in ms",
        "BENCH_wep_runs.json", repeats=20,
    )


if __name__ == "__main__":
    sys.exit(main())
