"""Time ``wep_deviation`` as the number of masses B grows.

For the three single-particle cases of the benchmark's WEP sweep
(SpaceTime in a uniform field, MiaoTypeII in a quartic polynomial field and
a Generalized encoding of MiaoTypeI in a Newtonian field), both scaling
modes and B in (2, 16, 64, 256) seeded masses, records the minimum wall
time of a few calls of ``wep_deviation`` over 24 steps, and the largest
position deviation it reports.  The calls of each B are made in rounds
(``sweep_record.best_times``), and the B are timed one after another, so no
call pays for memory that a larger B's call freed.  The rows, tagged with
``--label`` (the code measured), are written to ``BENCH_wep_report.json``
at the repository root, keeping the rows of every other label::

    PYTHONPATH=src python tests/sweep_wep_report.py --label change [--repeats 20]

Only public calls are timed, so the script runs on earlier versions of the
package too.  Not a test: pytest does not collect it.
"""

import sys

import sweep_record  # first: it pins the BLAS threads
from sweep_record import best_times

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


def templates() -> dict:
    """Each case's one-particle scenario, of mass 1.3, over ``STEPS`` steps."""
    return {
        case: lp.GravityScenario(
            system=lp.ParticleSystem.from_pairs([1.3], [spec]), potential=potential,
            initial=lp.PhaseState(x=[[1.2, -1.1, 1.4]], p=[[0.2, -0.3, 0.1]], t=0.0),
            t0=0.0, t_end=STEPS * DT, dt=DT,
        )
        for case, (spec, potential) in CASES.items()
    }


def rows(repeats: int) -> list[dict]:
    scenarios = templates()
    cases = [(case, mode) for case in CASES for mode in MODES]
    out = []
    for count in MASSES:
        masses = [float(m) for m in np.random.default_rng(count).uniform(0.5, 5.0, count)]
        times, reports = best_times(
            [lambda case=case, mode=mode: lambda: lp.wep_deviation(scenarios[case], masses, mode)
             for case, mode in cases], repeats)
        out += [{"case": case, "mode": mode, "masses": count, "steps": STEPS,
                 "max_position_deviation": report.max_position_deviation,
                 "ms": round(s * 1e3, 4)}
                for (case, mode), s, report in zip(cases, times, reports)]
    # case by case, as the earlier rows of the record are listed
    return sorted(out, key=lambda row: list(CASES).index(row["case"]))


def main(argv=None) -> int:
    return sweep_record.main(
        argv, rows,
        f"wep_deviation over {STEPS} steps for three single-particle cases, both modes "
        "and B seeded masses, in ms",
        "BENCH_wep_report.json", repeats=20,
    )


if __name__ == "__main__":
    sys.exit(main())
