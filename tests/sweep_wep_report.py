"""Time ``wep_deviation`` as the number of masses B grows.

For the three single-particle cases of the benchmark's WEP sweep
(SpaceTime in a uniform field, MiaoTypeII in a quartic polynomial field and
a Generalized encoding of MiaoTypeI in a Newtonian field), both scaling
modes and B in (2, 16, 64, 256) seeded masses, records the minimum wall
time of a few calls of ``wep_deviation`` over 24 steps, and the largest
position deviation it reports.  The calls are made in rounds, each round
calling every case of one B once, so a case's calls spread over its B's
run and a slow spell of a shared host weighs on every case alike.  The B
are timed one after another, so no call pays for memory that a larger B's
call freed.

Each row carries ``--label``, a name for the code measured.  The rows are
written with the machine's description to ``BENCH_wep_report.json`` at the
repository root; rows of other labels already in that file are kept, so
running the script on two checkouts records both::

    PYTHONPATH=src python tests/sweep_wep_report.py --label change [--repeats 20]

Only public calls are timed, so the script runs on earlier versions of the
package too.  Not a test: pytest does not collect it.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from sweep_record import ROOT, write_record  # first: it pins the BLAS threads

import numpy as np

import liephase as lp

CASES = {
    "SpaceTime/Uniform": (lp.SpaceTime(kappa=1.7, rho=2, tau=3), lp.Uniform(g=[0.4, -1.1, 0.3])),
    "MiaoTypeII/Polynomial": (
        lp.MiaoTypeII(kappa=3.0, kappa_tilde=4.5, kappa_bar=2.5, k=3, l=1, gamma=2),
        lp.Polynomial(coefficients={(2, 0, 0): 0.3, (0, 2, 0): 0.5, (0, 0, 2): 0.4,
                                    (1, 1, 1): 0.02, (4, 0, 0): 0.01, (0, 4, 0): 0.015}),
    ),
    "Generalized/Newtonian": (
        lp.as_generalized(lp.MiaoTypeI(kappa=2.5, kappa_tilde=3.5, k=2, l=3, gamma=1)),
        lp.Newtonian(strength=1.2),
    ),
}
MODES = ("fixed", "mass_scaled")
MASSES = (2, 16, 64, 256)
STEPS, DT = 24, 0.01


def rows(repeats: int) -> list[dict]:
    cases = []
    for case, (spec, potential) in CASES.items():
        template = lp.GravityScenario(
            system=lp.ParticleSystem.from_pairs([1.3], [spec]), potential=potential,
            initial=lp.PhaseState(x=[[1.2, -1.1, 1.4]], p=[[0.2, -0.3, 0.1]], t=0.0),
            t0=0.0, t_end=STEPS * DT, dt=DT,
        )
        for count in MASSES:
            masses = [float(m) for m in np.random.default_rng(count).uniform(0.5, 5.0, count)]
            for mode in MODES:
                report = lp.wep_deviation(template, masses, mode)
                row = {"case": case, "mode": mode, "masses": count, "steps": STEPS,
                       "max_position_deviation": report.max_position_deviation}
                cases.append((row, template, masses, mode))
    best = [np.inf] * len(cases)
    for count in MASSES:
        rounds = [k for k, (row, *_) in enumerate(cases) if row["masses"] == count]
        for _ in range(repeats):
            for k in rounds:
                _, template, masses, mode = cases[k]
                start = time.perf_counter()
                lp.wep_deviation(template, masses, mode)
                best[k] = min(best[k], time.perf_counter() - start)
    return [{**row, "ms": round(b * 1e3, 4)} for (row, *_), b in zip(cases, best)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--out", default=str(ROOT / "BENCH_wep_report.json"))
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
        f"wep_deviation over {STEPS} steps for three single-particle cases, both modes "
        f"and B seeded masses: minimum wall time of {args.repeats} calls, one per round "
        "over the cases of one B, in ms, per label of the code measured",
        "PYTHONPATH=src python tests/sweep_wep_report.py --label <name>",
        kept + new,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
