"""Time building and lowering the WEP runs as the number of masses B grows.

For the three single-particle cases of the benchmark's WEP sweep (see
``sweep_wep_report``), both scaling modes and B in (16, 256, 1024) seeded
masses, records the minimum wall time of a few calls of ``wep_runs``
followed by ``lower`` of each mode's runs: the cost of the runs before any
integration.  The calls are made in rounds, each round calling every case
of one B once, so a case's calls spread over its B's run and a slow spell
of a shared host weighs on every case alike.  The B are timed one after
another, so no call pays for memory that a larger B's call freed.

Each row carries ``--label``, a name for the code measured.  The rows are
written with the machine's description to ``BENCH_wep_runs.json`` at the
repository root; rows of other labels already in that file are kept, so
running the script on two checkouts records both::

    PYTHONPATH=src python tests/sweep_wep_runs.py --label change [--repeats 20]

Only public calls are timed (``lower`` passes an already lowered stack
through).  ``wep_runs`` is called with one mode, as it takes it since both
modes share one lowering, so the script does not run on earlier versions
of the package, whose ``wep_runs`` took a tuple of modes.  Not a test:
pytest does not collect it.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from sweep_record import ROOT, write_record  # first: it pins the BLAS threads

import numpy as np

import liephase as lp
from liephase.algebra import lower
from sweep_wep_report import CASES, DT, MODES, STEPS

MASSES = (16, 256, 1024)


def rows(repeats: int) -> list[dict]:
    templates = {
        case: lp.GravityScenario(
            system=lp.ParticleSystem.from_pairs([1.3], [spec]), potential=potential,
            initial=lp.PhaseState(x=[[1.2, -1.1, 1.4]], p=[[0.2, -0.3, 0.1]], t=0.0),
            t0=0.0, t_end=STEPS * DT, dt=DT,
        )
        for case, (spec, potential) in CASES.items()
    }
    cases = [(case, mode) for case in CASES for mode in MODES]
    out = []
    for count in MASSES:
        masses = [float(m) for m in np.random.default_rng(count).uniform(0.5, 5.0, count)]
        best = [np.inf] * len(cases)
        for _ in range(repeats):
            for k, (case, mode) in enumerate(cases):
                start = time.perf_counter()
                _, runs = lp.wep_runs(templates[case], masses, mode)
                lowered = lower(runs)
                best[k] = min(best[k], time.perf_counter() - start)
                assert len(lowered) == count
        out += [{"case": case, "mode": mode, "masses": count, "ms": round(b * 1e3, 4)}
                for (case, mode), b in zip(cases, best)]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--out", default=str(ROOT / "BENCH_wep_runs.json"))
    args = parser.parse_args(argv)

    new = []
    for row in rows(args.repeats):
        row = {"label": args.label, **row}
        new.append(row)
        print(json.dumps(row), flush=True)
    out = Path(args.out)
    kept = []
    if out.exists():
        kept = [row for row in json.loads(out.read_text())["rows"] if row["label"] != args.label]
    write_record(
        args.out,
        "wep_runs then lower of the runs, for three single-particle cases, both modes and "
        f"B seeded masses: minimum wall time of {args.repeats} calls, one per round over "
        "all cases, in ms, per label of the code measured",
        "PYTHONPATH=src python tests/sweep_wep_runs.py --label <name>",
        kept + new,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
