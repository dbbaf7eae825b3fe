"""Time ``algebra.lower`` on fresh and lowered specs, the COM product W J W^T
and the four COM checks.

For particle counts N in (1, 16, 64) and the three spec templates of the
benchmark's WEP sweep (SpaceTime, MiaoTypeII and a Generalized encoding of
MiaoTypeI), records the minimum wall time of a few calls of
``algebra.lower`` in two cases:

- cold: each call gets N fresh specs, made by ``rescale`` from the template
  as a mass-scaled WEP sweep makes them, so the call also builds whatever
  the package keeps per spec;
- warm: every call lowers the same N specs, lowered before.  A call takes
  microseconds, so a timing is ``WARM_CALLS`` calls back to back
  (``sweep_record.back_to_back``), of which the row records one call's
  share.  A cold timing stays one call, since a repeat would lower specs
  that are already built.  Each row says how many calls it timed.

For N in (2, 8, 20, 64), on a mass-scaled MiaoTypeII system whose frame
and lowered tensors are built, it records the minimum wall time of

- ``composition._com_brackets(system, state)``, all of B = W J W^T, the
  product only ``com_bracket_report`` forms;
- each of the four COM checks, ``com_bracket_report``,
  ``reproduction_check``, ``com_relative_coupling`` and
  ``decoupling_check`` (in a uniform field), which form the blocks of B
  they read.

The cold and warm calls of each template and N, and the five calls of each
N, are made in rounds (``sweep_record.best_times``).  The rows, tagged with ``--label``, a name
for the code measured, are written to ``BENCH_com_checks.json`` at the
repository root, keeping the rows of every other label::

    PYTHONPATH=src python tests/sweep_com_checks.py --label change [--repeats 200]

Only calls that earlier versions of the package also have are timed, so
the script runs on them too.  Not a test: pytest does not collect it.
"""

import sys

import sweep_record  # first: it pins the BLAS threads
from sweep_record import back_to_back, best_times

import numpy as np

import liephase as lp
from liephase import algebra, composition, dynamics

LOWER_PARTICLES = (1, 16, 64)
PRODUCT_PARTICLES = (2, 8, 20, 64)
WARM_CALLS = 20
TEMPLATES = {
    "SpaceTime": lp.SpaceTime(kappa=1.7, rho=2, tau=3),
    "MiaoTypeII": lp.MiaoTypeII(kappa=3.0, kappa_tilde=4.5, kappa_bar=2.5, k=3, l=1, gamma=2),
    "Generalized": lp.as_generalized(lp.MiaoTypeI(kappa=2.5, kappa_tilde=3.5, k=2, l=3, gamma=1)),
}


def rows(repeats: int):
    for case, template in TEMPLATES.items():
        for n in LOWER_PARTICLES:
            masses = np.random.default_rng(n).uniform(0.5, 5.0, n)

            def fresh():
                specs = [algebra.rescale(template, m) for m in masses]
                return lambda: algebra.lower(specs)

            lowered = [algebra.rescale(template, m) for m in masses]
            algebra.lower(lowered)
            times, _ = best_times(
                [fresh, back_to_back(lambda: algebra.lower(lowered), WARM_CALLS)], repeats)
            for timing, calls, s in zip(("lower_cold", "lower_warm"), (1, WARM_CALLS), times):
                yield {"timing": timing, "case": case, "particles": n, "calls": calls,
                       "us": round(s / calls * 1e6, 2)}
    for n in PRODUCT_PARTICLES:
        rng = np.random.default_rng(n)
        masses = rng.uniform(0.5, 3.0, n)
        system = lp.ParticleSystem.from_pairs(
            masses,
            [lp.MiaoTypeII(kappa=2.0 * m, kappa_tilde=3.0 * m, kappa_bar=4.0, k=1, l=2, gamma=3)
             for m in masses],
        )
        state = lp.PhaseState(x=rng.uniform(-1.0, 1.0, (n, 3)),
                              p=rng.uniform(-1.0, 1.0, (n, 3)), t=0.7)
        field = lp.Uniform(g=[0.3, -1.2, 0.7])
        calls = {
            "com_brackets": lambda: composition._com_brackets(system, state),
            "com_bracket_report": lambda: composition.com_bracket_report(system, state),
            "reproduction_check": lambda: composition.reproduction_check(system, state),
            "com_relative_coupling": lambda: composition.com_relative_coupling(system, state),
            "decoupling_check": lambda: dynamics.decoupling_check(system, state, field),
        }
        for call in calls.values():
            call()  # builds what the system keeps for them
        times, _ = best_times([lambda call=call: call for call in calls.values()], repeats)
        for timing, s in zip(calls, times):
            yield {"timing": timing, "case": "MiaoTypeII", "particles": n, "us": round(s * 1e6, 2)}


def main(argv=None) -> int:
    return sweep_record.main(
        argv, rows,
        "algebra.lower on fresh (cold) and lowered (warm) specs made by rescale "
        "from each template, and composition._com_brackets and the four COM checks "
        "on a mass-scaled MiaoTypeII system, in us",
        "BENCH_com_checks.json", repeats=200,
    )


if __name__ == "__main__":
    sys.exit(main())
