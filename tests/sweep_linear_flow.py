"""Time the RK4 kernel against the step maps on linear flows.

For each flow (SpaceTime brackets in a uniform field, canonical brackets in
a quadratic one), particle count N in (1, 16, 256) and step count in (1e3,
1e4, 1e5), integrates the same system from t0 = -0.37 with dt = 1e-3 by
``dynamics._rk4_kernel`` and by ``dynamics._integrate_flat``, which takes
the step maps for these flows.  Records the minimum wall time of a few runs
of each, the speed-up and the largest deviation of the maps from the kernel,
over every 100th grid point and the last, as a share of max |z| there, and
writes them with the machine's description to
``BENCH_linear_flow.json`` at the repository root::

    PYTHONPATH=src python tests/sweep_linear_flow.py [--repeats 3]

The largest case holds one trajectory of 1e5 steps of 256 particles at a
time, about 1.2 GB.  Not a test: pytest does not collect it.
"""

import argparse
import json
import sys
import time

from sweep_record import ROOT, write_record  # first: it pins the BLAS threads

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
PARTICLES = (1, 16, 256)
STEPS = (1_000, 10_000, 100_000)
T0, DT = -0.37, 1e-3


def best_time(run, repeats: int) -> tuple[float, np.ndarray]:
    """Minimum wall time of ``repeats`` calls of ``run``, and every 100th
    state of the last call's trajectory with its final state."""
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        _, states = run()
        best = min(best, time.perf_counter() - start)
        sample = np.concatenate([states[::100], states[-1:]])
        del states  # one trajectory at a time
    return best, sample


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default=str(ROOT / "BENCH_linear_flow.json"))
    args = parser.parse_args(argv)

    rows = []
    for flow, (spec, field) in FLOWS.items():
        for n in PARTICLES:
            rng = np.random.default_rng(n)
            system = lp.ParticleSystem.from_pairs(rng.uniform(0.5, 4.0, n).tolist(),
                                                  [spec() for _ in range(n)])
            z0 = rng.uniform(-1.0, 1.0, 6 * n)
            for steps in STEPS:
                call = (system.masses, system.lowered, field, z0, T0, DT, steps)
                kernel_s, kernel = best_time(lambda: dynamics._rk4_kernel(*call), args.repeats)
                maps_s, maps = best_time(lambda: dynamics._integrate_flat(*call), args.repeats)
                deviation = float(np.abs(maps - kernel).max() / np.abs(kernel).max())
                row = {
                    "flow": flow, "particles": n, "steps": steps,
                    "kernel_s": round(kernel_s, 6), "maps_s": round(maps_s, 6),
                    "speedup": round(kernel_s / maps_s, 2),
                    "max_deviation_over_max_abs_z": deviation,
                }
                rows.append(row)
                print(json.dumps(row), flush=True)

    write_record(
        args.out,
        "RK4 on linear flows: dynamics._rk4_kernel against the step maps "
        "_integrate_flat takes for them; minimum wall time of "
        f"{args.repeats} runs each, t0 = {T0}, dt = {DT}; the deviation is "
        "taken over every 100th grid point and the last",
        "PYTHONPATH=src python tests/sweep_linear_flow.py",
        rows,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
