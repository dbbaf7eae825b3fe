"""Time setting up a wide system, and its quartic field, over N particles.

For particle counts N in (64, 256, 1024), builds the document of a
mass-scaled SpaceSpace scenario, each particle with its own ``kappa_tilde``,
in a seeded quartic field (the shape of the ``nbody-cli`` benchmark's), and
records the minimum wall time of a few calls of each step a run pays before
and around its integration:

- parse_ms: ``cli.scenario_from_dict`` of the document;
- lower_ms: ``lower`` of the N specs of a freshly parsed scenario, which
  builds every spec's blocks;
- fingerprint_ms: ``scenario_fingerprint`` of a parsed scenario whose specs
  are lowered, as a run reads it after integrating;
- gradient_us: the field's ``gradient`` at the N positions;
- value_us: the field's ``value`` on a (51, N) stack of positions, the
  energies of a 50-step trajectory.

The calls of each N are made in rounds (``sweep_record.best_times``); a
field case times ``FIELD_CALLS`` calls back to back and records one call's
share (``sweep_record.back_to_back``).  It writes the rows, tagged with
``--label`` (the code measured), to ``BENCH_setup.json`` at the repository
root, keeping the rows of every other label::

    PYTHONPATH=src python tests/sweep_setup.py --label <name> [--repeats 20]

Only public calls are timed, so the script runs on earlier versions of the
package too.  Not a test: pytest does not collect it.
"""

import sys

import sweep_record  # first: it pins the BLAS threads
from sweep_record import back_to_back, best_times

import numpy as np

import liephase as lp
from liephase import cli
from liephase.algebra import lower

PARTICLES = (64, 256, 1024)
FIELD_CALLS = 20
QUARTIC = ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1), (4, 0, 0), (0, 4, 0), (2, 0, 2))


def document(n: int) -> dict:
    rng = np.random.default_rng(n)
    masses = rng.uniform(0.5, 3.0, n)
    gamma = float(rng.uniform(1.0, 3.0))
    return {
        "schema_version": 1,
        "task": "simulate",
        "algebra": {"variant": "space_space", "kappa_tilde": gamma * float(masses[0]),
                    "k": 1, "l": 2, "gamma": 3},
        "particles": [{"mass": float(m), "kappa_tilde": gamma * float(m)} for m in masses],
        "initial": {"x": rng.uniform(-1.0, 1.0, (n, 3)).tolist(),
                    "p_reduced": rng.uniform(-0.5, 0.5, (n, 3)).tolist()},
        "grid": {"t0": 0.0, "t_end": 0.5, "dt": 0.01},
        "potential": {"variant": "polynomial", "coefficients": {
            ",".join(map(str, exps)): float(rng.uniform(0.005, 0.5)) for exps in QUARTIC}},
        "options": {"reduced_momentum": True},
    }


def rows(repeats: int):
    for n in PARTICLES:
        doc = document(n)
        field = cli.scenario_from_dict(doc).potential
        rng = np.random.default_rng(n + 1)
        points, stack = rng.uniform(-1.0, 1.0, (n, 3)), rng.uniform(-1.0, 1.0, (51, n, 3))

        def fresh_lower():
            specs = cli.scenario_from_dict(doc).system.specs
            return lambda: lower(specs)

        def fingerprint():
            scenario = cli.scenario_from_dict(doc)
            lower(scenario.system.specs)
            return lambda: lp.scenario_fingerprint(scenario)

        times, _ = best_times([
            lambda: lambda: cli.scenario_from_dict(doc), fresh_lower, fingerprint,
            back_to_back(lambda: field.gradient(points), FIELD_CALLS),
            back_to_back(lambda: field.value(stack), FIELD_CALLS),
        ], repeats)
        yield {"particles": n,
               **{name: round(s * 1e3, 4) for name, s in
                  zip(("parse_ms", "lower_ms", "fingerprint_ms"), times[:3])},
               **{name: round(s / FIELD_CALLS * 1e6, 2) for name, s in
                  zip(("gradient_us", "value_us"), times[3:])}}


def main(argv=None) -> int:
    return sweep_record.main(
        argv, rows,
        "Setting up a mass-scaled SpaceSpace scenario of N particles in a quartic field: "
        "cli.scenario_from_dict, lower of freshly parsed specs and scenario_fingerprint "
        "in ms, the field's gradient at N points and value on a (51, N) stack in us",
        "BENCH_setup.json", repeats=20,
    )


if __name__ == "__main__":
    sys.exit(main())
