"""The four benchmark workloads: seeded inputs, one fixed pass, gates.

Each workload is a closed loop with one client.  ``run_pass`` does a fixed
amount of work and returns one outcome per work item: the item's result, or
the exception it raised.  ``gate`` checks one outcome against an oracle that
does not share the code path under test and returns its problems; a raised
exception or a problem fails the item without stopping the run.  Inputs are
drawn from the seed alone, and liephase only ever sees the drawn values.

The library is always called through its module attributes
(``dynamics.wep_deviation``, ``cli.run``) so that the tracer's wrappers, which
replace those attributes, see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np

import liephase as lp
from liephase import algebra, cli, composition, dynamics, observables

# Pass sizes.  A full pass takes about half a second on one core, so a run of
# the benchmark's 25 seconds collects enough passes for a tail percentile
# with ten samples beyond it.  "tiny" is for the smoke test.
SIZES = {
    "full": {
        "wep-sweep": {"masses": 16, "steps": 24},
        "nbody-cli": {"particles": 64, "steps": 50},
        # particle counts of the twelve systems, in COM_SLOTS order: pass time
        # depends on which variant gets which N, so the pairing is fixed
        "com-verify": {"particles": (20, 16, 12, 8, 6, 2, 3, 4, 4, 12, 8, 6)},
        "cli-bundled": {"scenarios": None},
    },
    "tiny": {
        "wep-sweep": {"masses": 3, "steps": 4},
        "nbody-cli": {"particles": 3, "steps": 4},
        "com-verify": {"particles": (2, 3) * 6},
        "cli-bundled": {"scenarios": ("spacetime_eom", "effective_kappa", "spacespace_closure")},
    },
}

# (e1, e2, e3) exponents of the quartic field; coefficients are seeded.
QUARTIC = ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1), (4, 0, 0), (0, 4, 0), (2, 0, 2))


def quartic_coefficients(rng) -> dict:
    ranges = {2: (0.2, 0.6), 3: (-0.05, 0.05), 4: (0.005, 0.02)}
    return {e: float(rng.uniform(*ranges[sum(e)])) for e in QUARTIC}


def axes(rng) -> tuple[int, int, int]:
    return tuple(int(a) + 1 for a in rng.permutation(3))


def attempt(fn, *args):
    """Call one work item; a raised exception becomes its outcome."""
    try:
        return fn(*args)
    except Exception as exc:  # counted as a failed item by the caller
        return exc


def run_quiet(scenario: str, out_dir: str) -> int:
    """``cli.run`` with its console lines kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.run(scenario, out_dir=out_dir)


class Workload:
    name = ""
    item = ""  # what items_per_s counts, named as in bench/README.md
    max_n = 1  # largest particle count any call sees

    def __init__(self, seed: int, size: str, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.size = SIZES[size][self.name]
        self.workdir = workdir
        self.work_per_pass = 0

    def setup(self) -> None:
        """Build the program objects; timed as setup_s."""

    def prepare(self) -> list[list[str]]:
        """Untimed one-off oracle work; one problem list per checked item."""
        return []

    def run_pass(self) -> list:
        raise NotImplementedError

    def gate(self, index: int, outcome) -> list[str]:
        raise NotImplementedError

    def output_bytes(self) -> tuple[int, int]:
        """(CSV bytes, report bytes) written by the last pass."""
        return 0, 0

    def probe_cases(self) -> list[tuple]:
        """(GravityScenario, states) on which the layer probes are timed."""
        raise NotImplementedError


class WepSweep(Workload):
    """wep_deviation in both modes for three single-particle cases."""

    name = "wep-sweep"
    item = "particle_steps"
    modes = ("fixed", "mass_scaled")
    dt = 0.01

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        rng = self.rng
        self.steps = self.size["steps"]
        self.masses = [float(m) for m in rng.uniform(0.5, 5.0, self.size["masses"])]
        self.axes = axes(rng)
        self.kappa = float(rng.uniform(1.0, 3.0))
        self.g = rng.uniform(-1.5, 1.5, 3)
        self.miao2 = {k: float(rng.uniform(2.0, 6.0)) for k in ("kappa", "kappa_tilde", "kappa_bar")}
        self.coefficients = quartic_coefficients(rng)
        self.miao1 = {k: float(rng.uniform(2.0, 6.0)) for k in ("kappa", "kappa_tilde")}
        self.strength = float(rng.uniform(0.5, 2.0))
        # |X(0)| >= 1.5 keeps the point source well outside r_min
        self.x0 = rng.uniform(1.0, 1.5, 3) * rng.choice([-1.0, 1.0], 3)
        self.p0 = rng.uniform(-0.3, 0.3, 3)
        self.work_per_pass = len(self.modes) * 3 * len(self.masses) * self.steps

    def setup(self):
        k, l, g = self.axes
        cases = (
            ("SpaceTime/Uniform", lp.SpaceTime(kappa=self.kappa, rho=k, tau=l), lp.Uniform(g=self.g)),
            ("MiaoTypeII/Polynomial", lp.MiaoTypeII(**self.miao2, k=k, l=l, gamma=g),
             lp.Polynomial(coefficients=self.coefficients)),
            ("Generalized/Newtonian", lp.as_generalized(lp.MiaoTypeI(**self.miao1, k=k, l=l, gamma=g)),
             lp.Newtonian(strength=self.strength)),
        )
        self.cases = [
            (label, lp.GravityScenario(
                system=lp.ParticleSystem.from_pairs([1.0], [spec]),
                potential=potential,
                initial=lp.PhaseState(x=self.x0[None, :], p=self.p0[None, :], t=0.0),
                t0=0.0, t_end=self.steps * self.dt, dt=self.dt,
            ))
            for label, spec, potential in cases
        ]

    def run_pass(self):
        return [
            attempt(dynamics.wep_deviation, template, self.masses, mode)
            for _, template in self.cases
            for mode in self.modes
        ]

    def analytic_fixed_deviation(self) -> float:
        """(m_max - m_min) |g_perp| T^2 / (2 kappa) for SpaceTime in a uniform field.

        With common X(0) and P/m(0) the only mass-dependent terms are
        Xdot_rho += t m g_tau / kappa and Xdot_tau -= t m g_rho / kappa, so
        the widest pair separates by that amount at t = T.
        """
        rho, tau = self.axes[0] - 1, self.axes[1] - 1
        t_end = self.steps * self.dt
        spread = max(self.masses) - min(self.masses)
        return spread * math.hypot(self.g[rho], self.g[tau]) * t_end**2 / (2.0 * self.kappa)

    def gate(self, index, report):
        label = self.cases[index // 2][0]
        mode = self.modes[index % 2]
        n = len(self.masses)
        dev = report.max_position_deviation
        problems = []
        if len(report.pairs) != n * (n - 1) // 2:
            problems.append(f"{label} {mode}: {len(report.pairs)} pairs for {n} masses")
        if mode == "mass_scaled":
            if not dev <= 1e-8:
                problems.append(f"{label} mass_scaled: deviation {dev:.3e} > 1e-8")
        elif index == 0:
            expected = self.analytic_fixed_deviation()
            if not abs(dev - expected) <= 1e-8:
                problems.append(f"{label} fixed: deviation {dev!r}, analytic {expected!r}")
        elif not (math.isfinite(dev) and dev > 0.0):
            problems.append(f"{label} fixed: deviation {dev!r} is not finite and positive")
        return problems

    def probe_cases(self):
        cases = []
        for _, template in self.cases:
            traj = dynamics.integrate(template)
            picks = (0, len(traj.times) // 2, len(traj.times) - 1)
            cases.append((template, [lp.PhaseState.from_flat(traj.states[i], float(traj.times[i]))
                                     for i in picks]))
        return cases


class NbodyCli(Workload):
    """One wide mass-scaled simulate scenario through cli.run."""

    name = "nbody-cli"
    item = "particle_steps"
    dt = 0.01

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        rng = self.rng
        n, self.steps = self.size["particles"], self.size["steps"]
        masses = rng.uniform(0.5, 3.0, n)
        gamma = float(rng.uniform(1.0, 3.0))
        k, l, g = axes(rng)
        self.document = {
            "schema_version": 1,
            "task": "simulate",
            "algebra": {"variant": "space_space", "kappa_tilde": gamma * float(masses[0]),
                        "k": k, "l": l, "gamma": g},
            "particles": [{"mass": float(m), "kappa_tilde": gamma * float(m)} for m in masses],
            "initial": {"x": rng.uniform(-1.0, 1.0, (n, 3)).tolist(),
                        "p_reduced": rng.uniform(-0.5, 0.5, (n, 3)).tolist()},
            "grid": {"t0": 0.0, "t_end": self.steps * self.dt, "dt": self.dt},
            "potential": {"variant": "polynomial", "coefficients": {
                ",".join(str(e) for e in exps): c
                for exps, c in quartic_coefficients(rng).items()}},
            "options": {"reduced_momentum": True, "energy_drift_tol": 1e-6},
        }
        self.max_n = n
        self.work_per_pass = n * self.steps

    def setup(self):
        self.path = self.workdir / "nbody.scn"
        self.path.write_text(json.dumps(self.document))
        self.out = self.workdir / "nbody-out"
        self.gravity = cli.load_scenario(str(self.path)).gravity_scenario()

    def prepare(self):
        # the trajectory every pass's CSV must reproduce
        self.reference = dynamics.integrate(self.gravity)
        return [self.eom_problems()]

    def eom_problems(self) -> list[str]:
        """eom_rhs against the hand-written closed_form_rhs, per particle."""
        g, traj = self.gravity, self.reference
        problems = []
        for i in (0, len(traj.times) // 2, len(traj.times) - 1):
            state = lp.PhaseState.from_flat(traj.states[i], float(traj.times[i]))
            xdot, pdot = dynamics.eom_rhs(g, state)
            for a, particle in enumerate(g.system.particles):
                cx, cp = dynamics.closed_form_rhs(
                    particle.spec, particle.mass, g.potential, state.x[a], state.p[a], state.t)
                err = max(np.max(np.abs(xdot[a] - cx)), np.max(np.abs(pdot[a] - cp)))
                if not err <= 1e-12:
                    problems.append(f"eom_rhs vs closed form: particle {a} at t={state.t}: {err:.3e}")
        return problems

    def run_pass(self):
        return [attempt(run_quiet, str(self.path), str(self.out))]

    def gate(self, index, rc):
        if rc != 0:
            return [f"cli.run exit {rc}"]
        report = json.loads((self.out / "report.json").read_text())
        problems = [] if report.get("passed") is True else ["report.json: passed is not true"]
        return problems + self.csv_problems()

    def csv_problems(self) -> list[str]:
        traj = self.reference
        n = traj.n_particles
        with open(self.out / "trajectory.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        if len(header) != 1 + 9 * n:
            return [f"trajectory.csv: {len(header)} columns, expected {1 + 9 * n}"]
        if len(rows) != self.steps + 1:
            return [f"trajectory.csv: {len(rows)} rows, expected {self.steps + 1}"]
        values = np.array(rows, dtype=float)
        reduced = (traj.states.reshape(len(rows), n, 6)[:, :, 3:]
                   / traj.masses[None, :, None]).reshape(len(rows), 3 * n)
        if not (np.array_equal(values[:, 0], traj.times)
                and np.array_equal(values[:, 1:1 + 6 * n], traj.states)
                and np.array_equal(values[:, 1 + 6 * n:], reduced)):
            return ["trajectory.csv: values do not round-trip to Trajectory.states"]
        return []

    def output_bytes(self):
        return ((self.out / "trajectory.csv").stat().st_size,
                (self.out / "report.json").stat().st_size)

    def probe_cases(self):
        traj = self.reference
        picks = (0, len(traj.times) // 2, len(traj.times) - 1)
        return [(self.gravity, [lp.PhaseState.from_flat(traj.states[i], float(traj.times[i]))
                                for i in picks])]


VARIANTS = ("canonical", "space_time", "space_space", "miao_type_i", "miao_type_ii", "generalized")
# variants whose COM brackets close only under the mass-scaling rule
NEEDS_SCALING = ("space_space", "miao_type_i", "miao_type_ii")
COM_SLOTS = [(v, scaled) for scaled in (True, False) for v in VARIANTS]


def named_spec(variant, kappa, kappa_tilde, kappa_bar, axes):
    k, l, g = axes
    if variant == "canonical":
        return lp.Canonical()
    if variant == "space_time":
        return lp.SpaceTime(kappa=kappa, rho=k, tau=l)
    if variant == "space_space":
        return lp.SpaceSpace(kappa_tilde=kappa_tilde, k=k, l=l, gamma=g)
    if variant == "miao_type_i":
        return lp.MiaoTypeI(kappa=kappa, kappa_tilde=kappa_tilde, k=k, l=l, gamma=g)
    return lp.MiaoTypeII(kappa=kappa, kappa_tilde=kappa_tilde, kappa_bar=kappa_bar,
                         k=k, l=l, gamma=g)


class ComVerify(Workload):
    """Every non-integrating check on a batch of systems of all six variants."""

    name = "com-verify"
    item = "systems"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        rng = self.rng
        counts = self.size["particles"]
        self.plans = []
        for (variant, scaled), n in zip(COM_SLOTS, counts):
            masses = rng.uniform(0.5, 3.0, n)
            # unscaled systems break kappa_a / m_a = const particle by particle
            spread = (lambda: 1.0) if scaled else (lambda: float(rng.uniform(0.5, 1.5)))
            gamma_k, gamma_kt = rng.uniform(1.0, 4.0, 2)
            self.plans.append({
                "variant": variant,
                # a Generalized system is the exact tensor encoding of a named one
                "base": str(rng.choice(VARIANTS[1:5])) if variant == "generalized" else variant,
                "scaled": scaled,
                "masses": masses,
                "kappa": [float(gamma_k * m * spread()) for m in masses],
                "kappa_tilde": [float(gamma_kt * m * spread()) for m in masses],
                "kappa_bar": float(rng.uniform(2.0, 6.0)),
                "axes": axes(rng),
                "x": rng.uniform(-1.0, 1.0, (n, 3)),
                "p": rng.uniform(-1.0, 1.0, (n, 3)),
                "t": float(rng.uniform(0.2, 1.5)),
                "g": rng.uniform(-1.5, 1.5, 3),
                "brackets": [(kf, int(rng.integers(1, 4)), kg, int(rng.integers(1, 4)))
                             for kf, kg in (("Xcom", "Xcom"), ("Xcom", "Pcom"), ("Pcom", "Pcom"))],
            })
        self.max_n = max(counts)
        self.work_per_pass = len(self.plans)

    def setup(self):
        self.systems = []
        for plan in self.plans:
            specs = [named_spec(plan["base"], k, kt, plan["kappa_bar"], plan["axes"])
                     for k, kt in zip(plan["kappa"], plan["kappa_tilde"])]
            if plan["variant"] == "generalized":
                specs = [lp.as_generalized(s) for s in specs]
            system = lp.ParticleSystem.from_pairs(plan["masses"], specs)
            mu, n = system.mu, system.n_particles
            make = {"Xcom": lambda i: observables.com_coordinate(mu, i),
                    "Pcom": lambda i: observables.com_momentum(n, i)}
            self.systems.append({
                "system": system,
                "state": lp.PhaseState(x=plan["x"], p=plan["p"], t=plan["t"]),
                "potential": lp.Uniform(g=plan["g"]),
                "brackets": [(f"{{{kf}_{i},{kg}_{j}}}", make[kf](i), make[kg](j))
                             for kf, i, kg, j in plan["brackets"]],
            })

    @staticmethod
    def verify(entry) -> dict:
        system, state = entry["system"], entry["state"]
        out = {
            "jacobi": algebra.jacobi_residual(system.specs, state),
            "report": composition.com_bracket_report(system, state),
            "scaling": composition.satisfies_mass_scaling(system),
        }
        try:
            out["effective"] = composition.effective_parameters(system)
        except lp.ScalingRequiredError:
            out["effective"] = None
        out["closure"] = composition.reproduction_check(system, state)
        out["coupling"] = composition.com_relative_coupling(system, state)
        out["decoupling"] = dynamics.decoupling_check(system, state, entry["potential"])
        out["brackets"] = {label: algebra.bracket(f, g, system.specs, state)
                           for label, f, g in entry["brackets"]}
        return out

    def run_pass(self):
        return [attempt(self.verify, entry) for entry in self.systems]

    def expected(self, plan) -> dict:
        """Outcomes known from how the system was built."""
        holds = plan["scaled"] or plan["variant"] == "canonical"
        needs = plan["base"] in NEEDS_SCALING
        return {"holds": holds, "raises": needs and not holds, "closes": holds or not needs}

    def gate(self, index, out):
        plan = self.plans[index]
        tag = f"{plan['variant']}({plan['base']}) N={len(plan['masses'])} scaled={plan['scaled']}"
        want = self.expected(plan)
        problems = []

        def need(ok, message):
            if not ok:
                problems.append(f"{tag}: {message}")

        need(out["jacobi"] <= 1e-10, f"Jacobi residual {out['jacobi']:.3e} > 1e-10")
        diff = out["report"].max_abs_diff
        need(diff <= 1e-12, f"COM oracle difference {diff:.3e} > 1e-12")
        need(out["scaling"].holds == want["holds"], f"scaling holds={out['scaling'].holds}")
        need((out["effective"] is None) == want["raises"],
             f"ScalingRequiredError raised={out['effective'] is None}")
        need(out["closure"].closes == want["closes"], f"closes={out['closure'].closes}")
        if out["effective"] is not None and plan["variant"] in ("space_time",) + NEEDS_SCALING:
            # effective law 1/kappa_eff = sum_a mu_a^2 / kappa_a
            mu = plan["masses"] / plan["masses"].sum()
            for attr in ("kappa", "kappa_tilde"):
                if hasattr(out["effective"], attr):
                    law = 1.0 / float(np.sum(mu**2 / np.array(plan[attr])))
                    got = getattr(out["effective"], attr)
                    need(abs(got - law) <= 1e-12 * law, f"effective {attr} {got!r}, law {law!r}")
        decoupled = plan["base"] == "space_time" and plan["scaled"]
        for key in ("coupling", "decoupling"):
            value = out[key]
            need(value <= 1e-12 if decoupled else math.isfinite(value),
                 f"{key} {value:.3e} ({'<= 1e-12' if decoupled else 'finite'} expected)")
        for label, value in out["brackets"].items():
            closed = out["report"].closed_form[label]
            need(abs(value - closed) <= 1e-12, f"bracket {label} {value!r}, closed form {closed!r}")
        return problems

    def probe_cases(self):
        return [
            (lp.GravityScenario(system=e["system"], potential=e["potential"], initial=e["state"],
                                t0=e["state"].t, t_end=e["state"].t + 1.0, dt=1.0), [e["state"]])
            for e in self.systems
        ]


class CliBundled(Workload):
    """Every bundled scenario through cli.run, in a seeded order."""

    name = "cli-bundled"
    item = "scenarios"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        names = self.size["scenarios"] or [name for name, _ in cli.list_builtin()]
        self.names = [names[i] for i in self.rng.permutation(len(names))]
        self.reference: dict[str, bytes] = {}
        self.work_per_pass = len(self.names)

    def setup(self):
        self.scenarios = [cli.load_scenario(name) for name in self.names]
        self.max_n = max(s.system.n_particles for s in self.scenarios)

    def run_pass(self):
        return [attempt(run_quiet, name, str(self.workdir / name)) for name in self.names]

    def gate(self, index, rc):
        name = self.names[index]
        if rc != 0:
            return [f"{name}: exit {rc}"]
        report = (self.workdir / name / "report.json").read_bytes()
        # the first pass records each report; later passes must match it byte for byte
        if self.reference.setdefault(name, report) != report:
            return [f"{name}: report.json differs from the first pass"]
        return []

    def output_bytes(self):
        csvs = sum(f.stat().st_size for f in self.workdir.glob("*/*.csv"))
        reports = sum(f.stat().st_size for f in self.workdir.glob("*/report.json"))
        return csvs, reports

    def probe_cases(self):
        return [(s.gravity_scenario(), [s.initial]) for s in self.scenarios
                if s.potential is not None]


WORKLOADS = {w.name: w for w in (WepSweep, NbodyCli, ComVerify, CliBundled)}


def span_targets():
    """(span name, public function, size of the call) for the tracer."""
    return [
        ("cli.run", cli.run, None),
        ("cli.load_scenario", cli.load_scenario, None),
        ("dynamics.wep_deviation", dynamics.wep_deviation, None),
        ("dynamics.integrate", dynamics.integrate, lambda scenario: scenario.n_steps()),
        ("dynamics.write_csv", dynamics.Trajectory.write_csv,
         lambda traj, *args, **kwargs: len(traj.times)),
        ("dynamics.hamiltonian", dynamics.hamiltonian, None),
        ("dynamics.decoupling_check", dynamics.decoupling_check, None),
        ("algebra.jacobi_residual", algebra.jacobi_residual,
         lambda specs, *args, **kwargs: 1 if isinstance(specs, lp.AlgebraSpec) else len(specs)),
        ("algebra.bracket", algebra.bracket, None),
        ("composition.com_bracket_report", composition.com_bracket_report,
         lambda system, state: system.n_particles),
        ("composition.reproduction_check", composition.reproduction_check, None),
        ("composition.com_relative_coupling", composition.com_relative_coupling, None),
        ("composition.satisfies_mass_scaling", composition.satisfies_mass_scaling, None),
        ("composition.effective_parameters", composition.effective_parameters, None),
    ]


SPAN_NAMESPACES = (lp, algebra, composition, dynamics, cli, observables, dynamics.Trajectory)
