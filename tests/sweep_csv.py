"""Time ``Trajectory.write_csv`` against the per-row ``%`` loop it replaced.

For particle count N in (1, 8, 64, 256), step count in (50, 1000) and
reduced momenta off and on, integrates a seeded canonical system in a
harmonic field, and writes the trajectory by ``Trajectory.write_csv`` and by
``row_loop``, the writer before it: the whole table stacked by ``np.hstack``,
each row formatted by one ``'%.17g'`` call.  The bundled ``body_composition``
scenario's trajectory is one more case, with its own ``reduced_momentum``.
Both writers write to a sink that drops the text, so only formatting is
timed; a second, untimed write of each hashes its text, and ``identical``
records whether the SHA-256 digests agree.  Records the minimum wall time
of a few calls of each, made in rounds (``sweep_record.best_times``), and
the speed-up.  The rows, tagged with ``--label`` (the code measured), are
written to ``BENCH_csv.json`` at the repository root, keeping the rows of
every other label::

    PYTHONPATH=src python tests/sweep_csv.py --label <name> [--repeats 5]

Not a test: pytest does not collect it.
"""

import hashlib
import sys

import sweep_record  # first: it pins the BLAS threads
from sweep_record import best_times

import numpy as np

import liephase as lp
from liephase import cli

PARTICLES = (1, 8, 64, 256)
STEPS = (50, 1000)
BUNDLED = ("body_composition",)
HARMONIC = lp.Polynomial(coefficients={(2, 0, 0): 0.5, (0, 2, 0): 0.3, (0, 0, 2): 0.4})


def row_loop(traj, fh, include_reduced_momentum=False):
    """The CSV writer ``write_csv`` replaced, kept here as the baseline."""
    n = traj.n_particles
    suffix = (lambda a: f"[{a}]") if n > 1 else (lambda a: "")
    header = ["t"]
    for a in range(n):
        header += [f"{c}{suffix(a)}" for c in ("X1", "X2", "X3", "P1", "P2", "P3")]
    columns = [traj.times[:, None], traj.states]
    if include_reduced_momentum:
        for a in range(n):
            header += [f"Pr{i}{suffix(a)}" for i in (1, 2, 3)]
        momenta = traj.states.reshape(-1, n, 6)[:, :, 3:]
        columns.append((momenta / traj.masses[:, None]).reshape(-1, 3 * n))
    table = np.hstack(columns)
    row_format = ",".join(["%.17g"] * len(header)) + "\n"
    fh.write(",".join(header) + "\n")
    for row in table:
        fh.write(row_format % tuple(row.tolist()))


class Drop:
    def write(self, text):
        pass


class Digest:
    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode())


def digest(write, traj, reduced) -> str:
    sink = Digest()
    write(traj, sink, include_reduced_momentum=reduced)
    return sink.sha.hexdigest()


def seeded(n: int, steps: int) -> lp.Trajectory:
    rng = np.random.default_rng(n)
    system = lp.ParticleSystem.from_pairs(rng.uniform(0.5, 4.0, n).tolist(),
                                          [lp.Canonical() for _ in range(n)])
    initial = lp.PhaseState(x=rng.uniform(-1.0, 1.0, (n, 3)),
                            p=rng.uniform(-0.5, 0.5, (n, 3)), t=0.0)
    return lp.integrate(lp.GravityScenario(system=system, potential=HARMONIC, initial=initial,
                                           t0=0.0, t_end=steps * 0.01, dt=0.01))


def cases():
    for n in PARTICLES:
        for steps in STEPS:
            traj = seeded(n, steps)
            for reduced in (False, True):
                yield {"case": "seeded", "particles": n, "steps": steps,
                       "reduced": reduced}, traj, reduced
    for name in BUNDLED:
        scenario = cli.load_scenario(name)
        traj = lp.integrate(scenario.gravity_scenario())
        reduced = bool(scenario.settings["reduced_momentum"])
        yield {"case": name, "particles": traj.n_particles, "steps": len(traj.times) - 1,
               "reduced": reduced}, traj, reduced


def rows(repeats: int):
    for row, traj, reduced in cases():
        def maker(write):
            return lambda: lambda: write(traj, Drop(), include_reduced_momentum=reduced)
        (loop_s, block_s), _ = best_times(
            [maker(row_loop), maker(lp.Trajectory.write_csv)], repeats)
        cols = 1 + (9 if reduced else 6) * traj.n_particles
        yield {
            **row, "cells": len(traj.times) * cols,
            "row_loop_s": round(loop_s, 6), "write_csv_s": round(block_s, 6),
            "speedup": round(loop_s / block_s, 2),
            "identical": digest(row_loop, traj, reduced)
            == digest(lp.Trajectory.write_csv, traj, reduced),
        }


def main(argv=None) -> int:
    return sweep_record.main(
        argv, rows,
        "Trajectory CSV: Trajectory.write_csv against the per-row '%.17g' loop it "
        "replaced, writing to a sink that drops the text, in s",
        "BENCH_csv.json", repeats=5,
    )


if __name__ == "__main__":
    sys.exit(main())
