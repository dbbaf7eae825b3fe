"""Time the RK4 kernel against the step maps on linear flows.

For each flow (SpaceTime brackets in a uniform field, canonical brackets in
a quadratic one), particle count N in (1, 2, 16, 256) and step count in (1e3,
1e4, 1e5), integrates the same system from t0 = -0.37 with dt = 1e-3 by
``dynamics._rk4_kernel`` and by ``dynamics._integrate_flat``, which takes
the step maps for these flows.  Records the minimum wall time of a few runs
of each, made in rounds (``sweep_record.best_times``), the speed-up and the
largest deviation of the maps from the kernel, over every 100th grid point
and the last, as a share of max |z| there.  Each timed run keeps only those
states, so one trajectory is held at a time; the copy is timed with the
run.  The rows, tagged with ``--label`` (the code measured), are written to
``BENCH_linear_flow.json`` at the repository root, keeping the rows of
every other label::

    PYTHONPATH=src python tests/sweep_linear_flow.py --label <name> [--repeats 3]

The largest case's trajectory, 1e5 steps of 256 particles, takes about
1.2 GB.  Not a test: pytest does not collect it.
"""

import sys

import sweep_record  # first: it pins the BLAS threads
from sweep_record import best_times

import numpy as np

import liephase as lp
from liephase import dynamics

FLOWS = {
    "space_time/uniform": (lambda: lp.SpaceTime(kappa=2.0, rho=1, tau=2),
                           lp.Uniform(g=[0.0, 1.0, 0.0])),
    "canonical/quadratic": (lp.Canonical, lp.Polynomial(coefficients={
        (2, 0, 0): 0.5, (0, 2, 0): 0.3, (0, 0, 2): 0.4, (1, 1, 0): -0.2, (0, 0, 1): -0.1,
    })),
}
PARTICLES = (1, 2, 16, 256)
STEPS = (1_000, 10_000, 100_000)
T0, DT = -0.37, 1e-3


def sampled(integrate, call):
    """A maker of one run of ``integrate(*call)`` that returns every 100th
    state of its trajectory and the final state."""
    def run():
        _, states = integrate(*call)
        return np.concatenate([states[::100], states[-1:]])
    return lambda: run


def rows(repeats: int):
    for flow, (spec, field) in FLOWS.items():
        for n in PARTICLES:
            rng = np.random.default_rng(n)
            system = lp.ParticleSystem.from_pairs(rng.uniform(0.5, 4.0, n).tolist(),
                                                  [spec() for _ in range(n)])
            z0 = rng.uniform(-1.0, 1.0, 6 * n)
            for steps in STEPS:
                call = (system.masses, system.lowered, field, z0, T0, DT, steps)
                (kernel_s, maps_s), (kernel, maps) = best_times(
                    [sampled(dynamics._rk4_kernel, call), sampled(dynamics._integrate_flat, call)],
                    repeats)
                yield {
                    "flow": flow, "particles": n, "steps": steps,
                    "kernel_s": round(kernel_s, 6), "maps_s": round(maps_s, 6),
                    "speedup": round(kernel_s / maps_s, 2),
                    "max_deviation_over_max_abs_z":
                        float(np.abs(maps - kernel).max() / np.abs(kernel).max()),
                }


def main(argv=None) -> int:
    return sweep_record.main(
        argv, rows,
        "RK4 on linear flows: dynamics._rk4_kernel against the step maps "
        f"_integrate_flat takes for them, t0 = {T0}, dt = {DT}, in s; the deviation "
        "is taken over every 100th grid point and the last",
        "BENCH_linear_flow.json", repeats=3,
    )


if __name__ == "__main__":
    sys.exit(main())
