"""Time ``com_bracket_report`` on fresh and warm systems.

For particle counts N in (2, 8, 20, 64), builds a mass-scaled MiaoTypeII
system of seeded masses and a seeded phase point, and records the minimum
wall time of a few calls of ``composition.com_bracket_report`` in two cases:

- fresh: each call gets a new ``ParticleSystem`` of the same particles, so
  the call also builds what the system caches for it (the COM frame W and
  the lowered tensors; the report's keys are built only when read);
- fresh_dict: as fresh, followed by the report's ``to_dict()``, which builds
  the keys: what one ``liephase run`` of a com-brackets scenario pays;
- warm: every call reuses one system that has made a report before.

The calls of each N are made in rounds (``sweep_record.best_times``).  It
also records the report's entry count, 27 (1 + N + N^2), and writes the
rows, tagged with ``--label`` (the code measured), to
``BENCH_com_bracket_report.json`` at the repository root, keeping the rows
of every other label::

    PYTHONPATH=src python tests/sweep_com_report.py --label <name> [--repeats 20]

Only public calls are timed, so the script runs on earlier versions of the
package too.  Not a test: pytest does not collect it.
"""

import sys

import sweep_record  # first: it pins the BLAS threads
from sweep_record import best_times

import numpy as np

import liephase as lp
from liephase import composition

PARTICLES = (2, 8, 20, 64)


def rows(repeats: int):
    for n in PARTICLES:
        rng = np.random.default_rng(n)
        masses = rng.uniform(0.5, 3.0, n)
        particles = lp.ParticleSystem.from_pairs(
            masses,
            [lp.MiaoTypeII(kappa=2.0 * m, kappa_tilde=3.0 * m, kappa_bar=4.0, k=1, l=2, gamma=3)
             for m in masses],
        ).particles
        state = lp.PhaseState(x=rng.uniform(-1.0, 1.0, (n, 3)),
                              p=rng.uniform(-1.0, 1.0, (n, 3)), t=0.7)
        warm = lp.ParticleSystem(particles)
        entries = len(composition.com_bracket_report(warm, state).computed)

        def fresh():
            system = lp.ParticleSystem(particles)
            return lambda: composition.com_bracket_report(system, state)

        def fresh_dict():
            system = lp.ParticleSystem(particles)
            return lambda: composition.com_bracket_report(system, state).to_dict()

        times, _ = best_times(
            [fresh, fresh_dict, lambda: lambda: composition.com_bracket_report(warm, state)],
            repeats)
        yield {"particles": n, "entries": entries,
               **{name: round(s * 1e3, 4)
                  for name, s in zip(("fresh_ms", "fresh_dict_ms", "warm_ms"), times)}}


def main(argv=None) -> int:
    return sweep_record.main(
        argv, rows,
        "composition.com_bracket_report on a mass-scaled MiaoTypeII system: on a fresh "
        "system (each call builds the system's frame and lowered tensors), on a fresh "
        "system followed by to_dict(), and on a warm one, in ms",
        "BENCH_com_bracket_report.json", repeats=20,
    )


if __name__ == "__main__":
    sys.exit(main())
