"""Batch front-end: scenario files in, reports and trajectory CSVs out.

A scenario file is a JSON document (conventionally ``*.scn``) with an
explicit ``schema_version``, one task name, an algebra block, the particle
list, an optional potential, the initial state and the time grid.

``_TASKS`` is the one table of the tasks: for each, its options with their
kinds and defaults, the rules it needs of a scenario beyond those kinds, and
the runner that computes it.  Every field is read through ``_read`` and one
kind table, ``_KINDS``, so a bad value names its field.  ``load_scenario``
applies all of it, and every rescaling the task will do, before anything is
computed; the runners only compute.  The ``run`` entry point writes a
deterministic ``report.json`` (plus CSVs for trajectory tasks) into the
output directory, and exits 0 only when every check passed (2 on validation
errors, always before the output directory is made, 3 on numerical failure,
1 on failed checks).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, fields, replace
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from .algebra import (
    AXIS,
    AlgebraSpec,
    Canonical,
    Generalized,
    MiaoTypeI,
    MiaoTypeII,
    PhaseState,
    SpaceSpace,
    SpaceTime,
    _checked_parameter,
    _phase_points,
    jacobi_residual,
    parameter_roles,
    rescale,
)
from .composition import (
    MassScalingRule,
    ParticleSystem,
    _candidate_effective,
    _decouples_exactly,
    _table_xp_deform,
    _table_xx,
    com_bracket_report,
    com_relative_coupling,
    com_transform,
    effective_parameters,
    reproduction_check,
    satisfies_mass_scaling,
)
from .dynamics import (
    GravityScenario,
    Newtonian,
    Polynomial,
    Potential,
    Uniform,
    _energies,
    _grid_steps,
    _integrate_together,
    closed_form_rhs,
    decoupling_check,
    eom_rhs,
    integrate,
    wep_deviation,
)
from .errors import (
    GridError,
    NonFiniteStateError,
    PotentialSingularityError,
    ScalingRequiredError,
)

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """Scenario validation failure; the message names the offending field."""


# --- serialization -------------------------------------------------------------


def _is_finite_number(value) -> bool:
    return (
        not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value)
    )


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _checked(expected: str, test, convert=lambda v: v):
    """A kind whose values ``test`` accepts as a whole and ``convert`` makes usable."""
    def read(value, name: str):
        if not test(value):
            raise ScenarioError(f"{name}: expected {expected}, got {value!r}")
        return convert(value)
    return read


def _array(value, shape: tuple[int, ...], name: str) -> np.ndarray:
    """Finite numbers in lists nested as ``shape``; a bad entry is named by its
    index, ``<name>[i][j]``."""
    if not isinstance(value, list) or len(value) != shape[0]:
        items = "numbers" if len(shape) == 1 else "lists"
        raise ScenarioError(f"{name}: expected a list of {shape[0]} {items}, got {value!r}")
    for i, entry in enumerate(value):
        if len(shape) > 1:
            _array(entry, shape[1:], f"{name}[{i}]")
        elif not _is_finite_number(entry):
            raise ScenarioError(f"{name}[{i}]: expected a finite number, got {entry!r}")
    return np.array(value, dtype=float)


# kind -> reader(value, name): the value to use, or ScenarioError naming the field
_KINDS = {
    "flag": _checked("true or false", lambda v: isinstance(v, bool)),
    "number": _checked("a finite number", _is_finite_number, float),
    "tolerance": _checked("a finite number >= 0",
                          lambda v: _is_finite_number(v) and v >= 0, float),
    "count": _checked("an integer >= 0", _is_count),
    "axis": _checked("an axis index 1, 2 or 3", lambda v: _is_count(v) and v in (1, 2, 3)),
    "masses": _checked("a non-empty list of positive finite masses",
                       lambda v: isinstance(v, list) and bool(v)
                       and all(_is_finite_number(m) and m > 0 for m in v),
                       lambda v: [float(m) for m in v]),
    "bounds": _checked("two finite numbers [lo, hi] with lo < hi",
                       lambda v: isinstance(v, list) and len(v) == 2
                       and all(map(_is_finite_number, v)) and v[0] < v[1],
                       lambda v: (float(v[0]), float(v[1]))),
    "scaling_mode": _checked("fixed, mass_scaled or both",
                             lambda v: v in ("fixed", "mass_scaled", "both")),
    "vector": lambda value, name: _array(value, (3,), name),
}

_REQUIRED = object()  # the default of a field that must be given


def _read(mapping: dict, key: str, path: str, kind, default=_REQUIRED):
    """``mapping[key]`` read as ``kind``, a key of ``_KINDS`` or, for a JSON
    container or string, its Python type; ``default`` when absent.  Errors
    name the field ``<path>.<key>``."""
    name = f"{path}.{key}" if path else key
    if key not in mapping:
        if default is _REQUIRED:
            noun = "option" if path == "options" else "field"
            raise ScenarioError(f"{name}: missing required {noun}")
        return default
    value = mapping[key]
    if not isinstance(kind, type):
        return _KINDS[kind](value, name)
    if not isinstance(value, kind):
        raise ScenarioError(f"{name}: expected {kind.__name__}, got {type(value).__name__}")
    return value


# scenario name of each algebra variant; its fields, read through their
# parameter roles, are the keys of its algebra block
_ALGEBRA_VARIANTS = {
    "canonical": Canonical,
    "space_time": SpaceTime,
    "space_space": SpaceSpace,
    "miao_type_i": MiaoTypeI,
    "miao_type_ii": MiaoTypeII,
    "generalized": Generalized,
}
_VARIANT_NAMES = {cls: name for name, cls in _ALGEBRA_VARIANTS.items()}


def algebra_from_dict(data: dict, path: str = "algebra") -> AlgebraSpec:
    """Scalars and axes are required; tensors default to zero when absent."""
    variant = _read(data, "variant", path, str)
    if variant not in _ALGEBRA_VARIANTS:
        raise ScenarioError(f"{path}.variant: unknown variant {variant!r}")
    cls = _ALGEBRA_VARIANTS[variant]
    params = {}
    for name, role in parameter_roles(cls):
        if role.kind == AXIS:
            params[name] = _read(data, name, path, "axis")
        elif not role.shape:
            params[name] = _read(data, name, path, "number")
        elif name in data:
            tensor = _array(data[name], role.shape, f"{path}.{name}")
            try:
                params[name] = _checked_parameter(name, tensor)
            except ValueError as exc:  # names its first bad entry, <name>[i][j]
                raise ScenarioError(f"{path}.{exc}") from exc
    try:
        return cls(**params)
    except (ValueError, TypeError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def algebra_to_dict(spec: AlgebraSpec) -> dict:
    if type(spec) not in _VARIANT_NAMES:
        raise TypeError(f"unknown algebra variant: {type(spec).__name__}")
    out: dict[str, Any] = {"variant": _VARIANT_NAMES[type(spec)]}
    for name, role in parameter_roles(spec):
        value = getattr(spec, name)
        out[name] = value.tolist() if role.shape else value
    return out


def potential_from_dict(data: dict, path: str = "potential") -> Potential:
    variant = _read(data, "variant", path, str)
    if variant == "uniform":
        cls, params = Uniform, {"g": _read(data, "g", path, "vector")}
    elif variant == "newtonian":
        cls, params = Newtonian, {
            "strength": _read(data, "strength", path, "number"),
            "center": _read(data, "center", path, "vector", np.zeros(3)),
        }
    elif variant == "polynomial":
        raw = _read(data, "coefficients", path, dict)
        coeffs = {}
        for key in raw:
            try:
                exps = tuple(int(part) for part in key.split(","))
            except ValueError as exc:
                raise ScenarioError(
                    f"{path}.coefficients: bad exponent key {key!r} (use 'e1,e2,e3')"
                ) from exc
            coeffs[exps] = _read(raw, key, f"{path}.coefficients", "number")
        cls, params = Polynomial, {"coefficients": coeffs}
    else:
        raise ScenarioError(f"{path}.variant: unknown variant {variant!r}")
    try:
        return cls(**params)
    except (ValueError, TypeError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def potential_to_dict(potential: Potential) -> dict:
    if isinstance(potential, Uniform):
        return {"variant": "uniform", "g": potential.g.tolist()}
    if isinstance(potential, Newtonian):
        return {
            "variant": "newtonian",
            "strength": potential.strength,
            "center": potential.center.tolist(),
        }
    if isinstance(potential, Polynomial):
        return {
            "variant": "polynomial",
            "coefficients": {
                ",".join(str(e) for e in exps): c
                for exps, c in sorted(potential.coefficients.items())
            },
        }
    raise TypeError(f"unknown potential variant: {type(potential).__name__}")


@dataclass
class Scenario:
    """A validated scenario file.

    ``options`` is the file's options object, which the report echoes;
    ``settings`` holds the options read through their kinds, with the task's
    defaults for those not given (an option with no default stays absent).
    """

    task: str
    system: ParticleSystem
    potential: Optional[Potential]
    initial: PhaseState
    t0: float
    t_end: float
    dt: float
    body_mode: bool
    neglect_relative_motion: bool
    options: dict
    settings: dict

    def to_dict(self) -> dict:
        base = algebra_to_dict(self.system.particles[0].spec)
        particles = []
        for p in self.system.particles:
            entry: dict[str, Any] = {"mass": p.mass}
            d = algebra_to_dict(p.spec)
            for key, value in d.items():
                if key != "variant" and value != base.get(key):
                    entry[key] = value
            particles.append(entry)
        out = {
            "schema_version": SCHEMA_VERSION,
            "task": self.task,
            "algebra": base,
            "particles": particles,
            "initial": {"x": self.initial.x.tolist(), "p": self.initial.p.tolist()},
            "grid": {"t0": self.t0, "t_end": self.t_end, "dt": self.dt},
            "body_mode": self.body_mode,
            "neglect_relative_motion": self.neglect_relative_motion,
            "options": self.options,
        }
        if self.potential is not None:
            out["potential"] = potential_to_dict(self.potential)
        return out

    def gravity_scenario(self) -> GravityScenario:
        # the fields of a GravityScenario are fields of this class too
        return GravityScenario(**{f.name: getattr(self, f.name) for f in fields(GravityScenario)})


def _points(initial: dict, key: str, n: int) -> np.ndarray:
    """``initial.<key>`` as an (n, 3) array: one row of three finite numbers
    per particle."""
    rows = _read(initial, key, "initial", list)
    if len(rows) != n:
        raise ScenarioError(f"initial.{key}: expected one row per particle ({n}), got {len(rows)}")
    return np.array([_array(row, (3,), f"initial.{key}[{a}]") for a, row in enumerate(rows)])


def scenario_from_dict(data: dict) -> Scenario:
    version = _read(data, "schema_version", "", "count")
    if version != SCHEMA_VERSION:
        raise ScenarioError(f"schema_version: expected {SCHEMA_VERSION}, got {version}")
    task = _read(data, "task", "", str)
    if task not in _TASKS:
        raise ScenarioError(f"task: unknown task {task!r} (expected one of {', '.join(_TASKS)})")

    algebra_dict = _read(data, "algebra", "", dict)
    base_spec = algebra_from_dict(algebra_dict, "algebra")

    raw_particles = _read(data, "particles", "", list)
    masses, specs = [], []
    # axes are shared by all particles; every other parameter may differ
    allowed = {name for name, role in parameter_roles(base_spec) if role.kind != AXIS}
    for idx, entry in enumerate(raw_particles):
        path = f"particles[{idx}]"
        if not isinstance(entry, dict):
            raise ScenarioError(f"{path}: expected an object")
        masses.append(_read(entry, "mass", path, "number"))
        overrides = {k: v for k, v in entry.items() if k != "mass"}
        for key in overrides:
            if key not in allowed:
                raise ScenarioError(f"{path}.{key}: not a parameter of this algebra variant")
        if overrides:
            merged = dict(algebra_dict)
            merged.update(overrides)
            specs.append(algebra_from_dict(merged, path))
        else:
            specs.append(base_spec)
    try:
        system = ParticleSystem.from_pairs(masses, specs)
    except ValueError as exc:
        raise ScenarioError(f"particles: {exc}") from exc

    potential = None
    if data.get("potential") is not None:
        potential = potential_from_dict(_read(data, "potential", "", dict), "potential")

    grid = _read(data, "grid", "", dict)
    t0, t_end, dt = (_read(grid, key, "grid", "number") for key in ("t0", "t_end", "dt"))
    try:
        _grid_steps(t0, t_end, dt)
    except GridError as exc:
        raise ScenarioError(f"grid.{exc.field}: {exc}") from exc

    initial_dict = _read(data, "initial", "", dict)
    n = system.n_particles
    x = _points(initial_dict, "x", n)
    if "p" in initial_dict and "p_reduced" in initial_dict:
        raise ScenarioError("initial: give either p or p_reduced, not both")
    if "p" in initial_dict:
        p = _points(initial_dict, "p", n)
    elif "p_reduced" in initial_dict:
        with np.errstate(over="ignore"):
            p = _points(initial_dict, "p_reduced", n) * np.array(masses)[:, None]
        if not np.all(np.isfinite(p)):
            raise ScenarioError("initial.p_reduced: a momentum (p_reduced times mass) overflows")
    else:
        raise ScenarioError("initial.p: missing required field (or initial.p_reduced)")
    initial = PhaseState(x=x, p=p, t=t0)

    options = data.get("options", {})
    if not isinstance(options, dict):
        raise ScenarioError("options: expected an object")
    declared = _TASKS[task].options
    unknown = set(options) - set(declared)
    if unknown:
        raise ScenarioError(f"options.{sorted(unknown)[0]}: unknown option for task {task}")
    # the given options first, in name order, then the defaults of the others
    settings = {key: _read(options, key, "options", *declared[key])
                for key in [*sorted(options), *(k for k in declared if k not in options)]}
    settings = {key: value for key, value in settings.items() if value is not None}

    body_mode = _read(data, "body_mode", "", "flag", False)
    neglect = _read(data, "neglect_relative_motion", "", "flag", False)
    if body_mode and not neglect and not _decouples_exactly(system):
        raise ScenarioError(
            "neglect_relative_motion: the center of mass of these particles does not "
            "decouple exactly from their relative motion; set it to true to accept "
            "the body run as an approximation"
        )
    scenario = Scenario(
        task=task,
        system=system,
        potential=potential,
        initial=initial,
        t0=t0,
        t_end=t_end,
        dt=dt,
        body_mode=body_mode,
        neglect_relative_motion=neglect,
        options=options,
        settings=settings,
    )
    _TASKS[task].check(scenario)
    return scenario


def load_scenario(path_or_name: str) -> Scenario:
    """Load a scenario from a file path or a bundled scenario name."""
    path = Path(path_or_name)
    if path.exists():
        try:
            text = path.read_text()
        except OSError as exc:
            raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    else:
        name = path_or_name.removesuffix(".scn")
        if name in BUILTIN_SCENARIOS:
            text = (
                resources.files("liephase").joinpath("scenarios", f"{name}.scn").read_text()
            )
        else:
            raise ScenarioError(f"no such scenario file or builtin: {path_or_name}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError("scenario: expected a JSON object")
    return scenario_from_dict(data)


# --- checks ---------------------------------------------------------------------


@dataclass
class Check:
    name: str
    computed: Optional[float]  # None when the value is undefined
    reference: float
    tolerance: float
    passed: bool
    wall_time: float
    undefined: str = ""  # why the value is undefined

    def to_dict(self) -> dict:
        # wall time is console-only: reports must be byte-identical across runs
        out = {
            "name": self.name,
            "computed": self.computed,
            "reference": self.reference,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }
        if self.computed is None:
            out["undefined"] = self.undefined
        return out


class _CheckRunner:
    """The checks of one task, in the order they were made.

    A check's wall time runs from the previous check (or from the runner's
    creation) to its own, so it covers the work that produced its value.
    ``tol_flag`` is the ``--tol`` value, None when not given.
    """

    def __init__(self, tol_flag: Optional[float] = None):
        self.checks: list[Check] = []
        self.tol_flag = tol_flag
        self._lap = time.perf_counter()

    def tolerance(self, default: float) -> float:
        """The ``--tol`` value when given (0 demands an exact result), else the check's default."""
        return default if self.tol_flag is None else self.tol_flag

    def add(
        self,
        name: str,
        computed: Optional[float],
        tolerance: float,
        reference: float = 0.0,
        undefined: str = "",
    ) -> Optional[float]:
        """Record one check.  A ``computed`` of None is an undefined value,
        ``undefined`` says why, and the check fails; so is a value that is not
        finite, which the report could not hold as strict JSON."""
        now = time.perf_counter()
        computed = None if computed is None else float(computed)
        if computed is not None and not math.isfinite(computed):
            computed, undefined = None, f"the computed value is {computed}, not a finite number"
        self.checks.append(
            Check(
                name=name,
                computed=computed,
                reference=float(reference),
                tolerance=float(tolerance),
                passed=computed is not None and bool(abs(computed - reference) <= tolerance),
                wall_time=now - self._lap,
                undefined=undefined if computed is None else "",
            )
        )
        self._lap = now
        return computed

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _scenario_rng(scenario: Scenario) -> np.random.Generator:
    digest = hashlib.sha256(
        json.dumps(scenario.to_dict(), sort_keys=True).encode()
    ).hexdigest()
    return np.random.default_rng(int(digest[:16], 16))


def _sample_states(scenario: Scenario, count: int) -> list[PhaseState]:
    """Deterministic sample states near the scenario's own state.

    Coordinates are drawn from [1, 3] so point-source potentials centred at
    the origin stay regular; momenta from [-3, 3]; times from [0, 2].
    """
    rng = _scenario_rng(scenario)
    n = scenario.system.n_particles
    states = [scenario.initial]
    for _ in range(count):
        states.append(
            PhaseState(
                x=rng.uniform(1.0, 3.0, (n, 3)),
                p=rng.uniform(-3.0, 3.0, (n, 3)),
                t=float(rng.uniform(0.0, 2.0)),
            )
        )
    return states


# --- task implementations ---------------------------------------------------------


def _rescaled(name: str, mass: float, build) -> None:
    """Build a spec the task will rescale to ``mass``, so that a parameter sent
    out of range (kappa to inf, say), or a system with no effective
    parameters, exits 2 at load naming ``name``, the field asking for it."""
    try:
        # an overflow is refused by the spec it produces
        with np.errstate(over="ignore"):
            build()
    except ValueError as exc:
        raise ScenarioError(f"{name}: the parameters rescaled to mass {mass!r}: {exc}") from exc
    except ScalingRequiredError as exc:
        raise ScenarioError(f"{name}: {exc}") from exc


def _scalar_parameters(variant: type) -> list[str]:
    return [name for name, role in parameter_roles(variant)
            if role.kind != AXIS and not role.shape]


def _run_check_algebra(scenario: Scenario, runner: _CheckRunner, out_dir: Path) -> dict:
    states = _sample_states(scenario, scenario.settings["samples"])
    specs = scenario.system.specs
    lowered = scenario.system.lowered
    # J is block-diagonal: its per-particle 6x6 blocks at each sampled state
    blocks = np.stack([lowered.blocks(_phase_points(st), st.t) for st in states])

    def roundtrip():
        # the evaluator's X-X and X-P corners against the named variant's
        # closed-form tables, relative where entries exceed one
        deviations = []
        for st, j in zip(states, blocks):
            for a, spec in enumerate(specs):
                block = j[a]
                args = (spec, st.x[a], st.p[a], st.t)
                for got, table in (
                    (block[:3, :3], _table_xx(*args)),
                    (block[:3, 3:], np.eye(3) + _table_xp_deform(*args)),
                ):
                    deviations.append(np.abs(got - table) / np.maximum(1.0, np.abs(table)))
        return np.max(deviations)

    def eom_agreement():
        deviations = []
        g = scenario.gravity_scenario()
        for st in states:
            xdot, pdot = eom_rhs(g, st)
            for a, particle in enumerate(scenario.system.particles):
                cx, cp = closed_form_rhs(
                    particle.spec, particle.mass, scenario.potential,
                    st.x[a], st.p[a], st.t,
                )
                deviations += [np.abs(xdot[a] - cx), np.abs(pdot[a] - cp)]
        return np.max(deviations)

    # each check is the np.max of its deviations, which keeps a NaN (inf - inf,
    # say) where Python's max would drop it: an overflow surfaces as a
    # non-finite value, which the runner records as undefined
    with np.errstate(over="ignore", invalid="ignore"):
        runner.add("antisymmetry", np.max(np.abs(blocks + np.swapaxes(blocks, -1, -2))),
                   tolerance=0.0)
        runner.add("jacobi-residual", np.max([jacobi_residual(lowered, st) for st in states]),
                   tolerance=runner.tolerance(1e-10))
        runner.add("generalized-encoding-roundtrip", roundtrip(), tolerance=1e-15)
        if scenario.potential is not None:
            runner.add("eom-closed-form", eom_agreement(), tolerance=runner.tolerance(1e-12))
    return {"sampled_states": len(states)}


def _rule_to_dict(rule: Optional[MassScalingRule]) -> Optional[dict]:
    if rule is None:
        return None
    out = {}
    for f in fields(rule):
        value = getattr(rule, f.name)
        if value is not None:
            out[f.name] = np.asarray(value).tolist()
    return out


def _check_com_brackets(scenario: Scenario) -> None:
    system = scenario.system
    if "expect_kappa_eff" in scenario.settings:
        scalars = _scalar_parameters(system.variant)
        if len(scalars) != 1:
            raise ScenarioError(
                f"options.expect_kappa_eff: needs an algebra with exactly one scalar "
                f"deformation parameter, {_VARIANT_NAMES[system.variant]} has {len(scalars)}"
            )
    # the effective parameters, reported whether or not the system is mass-scaled
    _rescaled("particles", system.total_mass, lambda: _candidate_effective(system))


def _run_com_brackets(scenario: Scenario, runner: _CheckRunner, out_dir: Path) -> dict:
    system = scenario.system
    state = scenario.initial
    settings = scenario.settings
    report = com_bracket_report(system, state)
    runner.add("com-bracket-oracle", report.max_abs_diff, tolerance=runner.tolerance(1e-12))

    com = com_transform(system, state)
    identity = max(
        float(np.max(np.abs(com.dp.sum(axis=0)))),
        float(np.max(np.abs(system.mu @ com.dx))),
    )
    runner.add("com-transform-identities", identity, tolerance=1e-13)

    scaling = satisfies_mass_scaling(system)
    repro = reproduction_check(system, state)
    coupling = com_relative_coupling(system, state)

    results: dict[str, Any] = {
        "brackets": report.to_dict(),
        "scaling_holds": scaling.holds,
        "scaling_worst_relative_deviation": scaling.worst_relative_deviation,
        "scaling_rule": _rule_to_dict(scaling.rule),
        "closes": repro.closes,
        "closure_max_abs_diff": repro.max_abs_diff,
        "com_relative_coupling": coupling,
    }
    try:
        results["effective_algebra"] = algebra_to_dict(effective_parameters(system))
        # without the scaling rule the effective parameters are still well
        # defined for t-valued deformations, but depend on the composition
        results["effective_composition_dependent"] = not scaling.holds
    except ScalingRequiredError as exc:
        results["effective_algebra"] = None
        results["effective_algebra_error"] = str(exc)

    expect_closes = settings.get("expect_closes")
    if expect_closes is not None:
        runner.add("closure-verdict", 1.0 if repro.closes else 0.0, tolerance=0.0,
                   reference=1.0 if expect_closes else 0.0)
    if "expect_kappa_eff" in settings:
        eff = results.get("effective_algebra") or {}
        runner.add(
            "effective-kappa",
            eff.get(_scalar_parameters(system.variant)[0]),
            tolerance=runner.tolerance(1e-12),
            reference=settings["expect_kappa_eff"],
            undefined="the system has no effective algebra (see effective_algebra_error)",
        )
    if scenario.potential is not None:
        # an overflow leaves the value NaN or infinite: null in the report
        with np.errstate(over="ignore", invalid="ignore"):
            value = decoupling_check(system, state, scenario.potential)
        results["decoupling"] = value
        decoupling_max = settings.get("expect_decoupling_max")
        if decoupling_max is not None:
            runner.add("decoupling", value, tolerance=decoupling_max)
    return results


def _check_simulate(scenario: Scenario) -> None:
    if scenario.potential is None:
        raise ScenarioError("potential: required for this task")
    system = scenario.system
    if scenario.body_mode:
        _rescaled("particles", system.total_mass, lambda: effective_parameters(system))
    partition = scenario.settings.get("compare_partition")
    if partition is not None:
        if not scenario.body_mode:
            raise ScenarioError("options.compare_partition: only meaningful with body_mode")
        if abs(sum(partition) - system.total_mass) > 1e-12:
            raise ScenarioError(
                "options.compare_partition: partition must preserve the total mass"
            )
        rule = satisfies_mass_scaling(system).rule
        if rule is None:
            raise ScenarioError(
                "options.compare_partition: partition comparison needs a mass-scaled "
                "system to define the rule"
            )
        template = system.particles[0].spec
        for i, m in enumerate(partition):
            _rescaled(f"options.compare_partition[{i}]", m,
                      lambda: rule.spec_for_mass(template, m))


def _run_simulate(scenario: Scenario, runner: _CheckRunner, out_dir: Path) -> dict:
    settings = scenario.settings
    g = scenario.gravity_scenario()
    runs = [g]
    alt_masses = settings.get("compare_partition")
    if alt_masses is not None:
        # the same body composed of the partition's masses, from the same
        # center-of-mass state: it shares the main run's grid and field, so
        # the two integrate as one stacked system
        rule = satisfies_mass_scaling(scenario.system).rule
        template = scenario.system.particles[0].spec
        alt_specs = [rule.spec_for_mass(template, m) for m in alt_masses]
        alt_system = ParticleSystem.from_pairs(alt_masses, alt_specs)
        com = com_transform(scenario.system, scenario.initial)
        alt_initial = PhaseState(
            x=np.tile(com.x_com, (len(alt_masses), 1)),
            p=np.outer(alt_system.mu, com.p_com),
            t=scenario.t0,
        )
        runs.append(replace(g, system=alt_system, initial=alt_initial, body_mode=True))
    trajectory, *partition = _integrate_together(runs)
    csv_path = out_dir / "trajectory.csv"
    trajectory.write_csv(str(csv_path), include_reduced_momentum=settings["reduced_momentum"])

    results: dict[str, Any] = {
        "trajectory_csv": csv_path.name,
        "samples": len(trajectory.times),
        "scenario_fingerprint": trajectory.metadata["scenario"],
    }

    # energy drift along the trajectory (informative for time-dependent
    # structure matrices, a check when a tolerance is configured); a body
    # run's trajectory holds its center of mass with the total mass.  An
    # energy that overflows leaves the drift undefined: null in the report
    with np.errstate(over="ignore", invalid="ignore"):
        energies = _energies(trajectory.masses, scenario.potential, trajectory.states)
        drift = float(np.max(np.abs(energies - energies[0])))
    undefined = ""
    if not math.isfinite(drift):
        bad = np.flatnonzero(~np.isfinite(energies))
        undefined = (
            f"the energy is not finite at sample {bad[0]} (t = {trajectory.times[bad[0]]:.6g})"
            if bad.size else "the energy drift overflows"
        )
        drift = None
    results["energy_drift"] = drift
    drift_tol = settings.get("energy_drift_tol")
    if drift_tol is not None:
        runner.add("energy-drift", drift, tolerance=drift_tol, undefined=undefined)
    runner.add(
        "finite-states",
        0.0 if np.all(np.isfinite(trajectory.states)) else 1.0,
        tolerance=0.0,
    )

    if settings["order_check"]:
        def halving_ratio():
            # the main run is the coarsest of the three grids
            ends = [trajectory.states[-1]] + [
                integrate(replace(g, dt=g.dt / factor)).states[-1] for factor in (2, 4)
            ]
            coarse = float(np.linalg.norm(ends[0] - ends[1]))
            fine = float(np.linalg.norm(ends[1] - ends[2]))
            return coarse / fine if fine else None

        lo, hi = settings["order_bounds"]
        mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        ratio = runner.add(
            "integrator-order-ratio", halving_ratio(), tolerance=half, reference=mid,
            undefined="the fine-grid error is 0 (the integrator is exact on this field), "
            "so the dt-halving ratio is undefined",
        )
        results["dt_halving_ratio"] = ratio

    if partition:
        (alt_traj,) = partition
        alt_csv = out_dir / "trajectory_partition.csv"
        alt_traj.write_csv(str(alt_csv))
        results["partition_csv"] = alt_csv.name
        deviation = float(np.max(np.abs(trajectory.states - alt_traj.states)))
        results["partition_deviation"] = deviation
        runner.add(
            "partition-independence",
            deviation,
            tolerance=settings.get("partition_tol", runner.tolerance(1e-10)),
        )
    return results


def _check_wep_test(scenario: Scenario) -> None:
    if scenario.potential is None:
        raise ScenarioError("potential: required for this task")
    if scenario.system.n_particles != 1:
        raise ScenarioError("particles: wep-test needs exactly one particle")
    if scenario.settings["scaling_mode"] != "fixed":
        base = scenario.system.particles[0]
        for i, m in enumerate(scenario.settings["masses"]):
            _rescaled(f"options.masses[{i}]", m, lambda: rescale(base.spec, m / base.mass))


def _run_wep_test(scenario: Scenario, runner: _CheckRunner, out_dir: Path) -> dict:
    settings = scenario.settings
    masses = settings["masses"]
    mode = settings["scaling_mode"]
    modes = ("fixed", "mass_scaled") if mode == "both" else (mode,)
    expected = settings.get("expect_position_deviation")

    g = scenario.gravity_scenario()
    results: dict[str, Any] = {"masses": masses, "modes": {}}
    for m in modes:
        report = wep_deviation(g, masses, m)
        results["modes"][m] = {
            "pairs": [
                {
                    "masses": list(p.masses),
                    "position": p.position,
                    "reduced_momentum": p.reduced_momentum,
                }
                for p in report.pairs
            ],
            "max_position_deviation": report.max_position_deviation,
            "max_reduced_momentum_deviation": report.max_reduced_momentum_deviation,
        }
        if m == "mass_scaled":
            runner.add("wep-recovery-deviation", report.max_position_deviation,
                       tolerance=settings.get("max_deviation", runner.tolerance(1e-8)))
        if m == "fixed" and expected is not None:
            runner.add(
                "wep-violation-magnitude",
                report.max_position_deviation,
                tolerance=settings["expect_deviation_tol"],
                reference=expected,
            )
    return results


@dataclass(frozen=True)
class _Task:
    """One task: ``options`` maps each option to ``(kind, default)``, where a
    None default leaves it absent (off) and ``_REQUIRED`` makes it required;
    ``check`` holds the rules beyond the options' kinds, applied at load;
    ``run`` only computes."""

    options: dict
    check: Callable[[Scenario], None]
    run: Callable[[Scenario, _CheckRunner, Path], dict]


_TASKS = {
    "check-algebra": _Task({"samples": ("count", 20)}, lambda scenario: None, _run_check_algebra),
    "com-brackets": _Task({
        "expect_closes": ("flag", None),
        "expect_kappa_eff": ("number", None),
        "expect_decoupling_max": ("tolerance", None),
    }, _check_com_brackets, _run_com_brackets),
    "simulate": _Task({
        "reduced_momentum": ("flag", False),
        "energy_drift_tol": ("tolerance", None),
        "order_check": ("flag", False),
        "order_bounds": ("bounds", (12.0, 20.0)),
        "compare_partition": ("masses", None),
        "partition_tol": ("tolerance", None),  # absent: --tol, else 1e-10
    }, _check_simulate, _run_simulate),
    "wep-test": _Task({
        "masses": ("masses", _REQUIRED),
        "scaling_mode": ("scaling_mode", "both"),
        "max_deviation": ("tolerance", None),  # absent: --tol, else 1e-8
        "expect_position_deviation": ("number", None),
        "expect_deviation_tol": ("tolerance", 1e-8),
    }, _check_wep_test, _run_wep_test),
}


# --- entry points ------------------------------------------------------------------

BUILTIN_SCENARIOS = {
    "miao1_jacobi": (
        "check-algebra: bracket antisymmetry, Jacobi residual and tensor-encoding "
        "round-trip for the first combined deformation type [criterion 1]"
    ),
    "spacetime_com_brackets": (
        "com-brackets: chain-rule COM/relative brackets against closed forms for "
        "three unequal particles with time-valued deformation [criterion 2]"
    ),
    "effective_kappa": (
        "com-brackets: effective parameter law kappa_eff = gamma * M for a "
        "mass-scaled pair [criterion 3]"
    ),
    "spacespace_closure": (
        "com-brackets: COM algebra closure under mass scaling for coordinate-"
        "valued deformation [criterion 4]"
    ),
    "spacetime_decoupling": (
        "com-brackets: COM/relative Hamiltonian bracket vanishes under mass "
        "scaling [criterion 5]"
    ),
    "spacetime_eom": (
        "check-algebra: structure-matrix equations of motion against closed "
        "forms in a point-source field [criterion 6]"
    ),
    "spacetime_wep": (
        "wep-test: mass-scaled runs of masses 1 and 10 share one trajectory "
        "[criterion 7]"
    ),
    "spacetime_wep_violation": (
        "wep-test: fixed parameters split masses 1 and 2 by the analytic 0.5 "
        "[criterion 8]"
    ),
    "body_composition": (
        "simulate: bodies (1,3) and (2,2) with one scaling constant share a COM "
        "trajectory [criterion 9]"
    ),
    "integrator_order": (
        "simulate: dt-halving error ratio of the fixed-step integrator lies in "
        "[12, 20] [criterion 10]"
    ),
}


def run(
    scenario_path: str,
    out_dir: Optional[str] = None,
    dt: Optional[float] = None,
    tol: Optional[float] = None,
) -> int:
    """Execute one scenario; returns the process exit status."""
    try:
        scenario = load_scenario(scenario_path)
        if dt is not None:
            try:
                _grid_steps(scenario.t0, scenario.t_end, dt)
            except GridError as exc:
                raise ScenarioError(f"--dt: {exc}") from exc
            scenario.dt = float(dt)
        if tol is not None:
            tol = _KINDS["tolerance"](tol, "--tol")
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2

    out = Path(out_dir) if out_dir else Path(f"{Path(scenario_path).stem}_out")
    out.mkdir(parents=True, exist_ok=True)

    runner = _CheckRunner(tol)
    start = time.perf_counter()
    try:
        results = _TASKS[scenario.task].run(scenario, runner, out)
    except (PotentialSingularityError, NonFiniteStateError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except GridError as exc:
        print(f"run failed: grid.{exc.field}: {exc}", file=sys.stderr)
        return 3
    total_time = time.perf_counter() - start

    report = {
        "schema_version": SCHEMA_VERSION,
        "task": scenario.task,
        "scenario": scenario.to_dict(),
        "checks": [c.to_dict() for c in runner.checks],
        "results": _finite_or_null(results),
        "passed": runner.all_passed,
    }
    report_path = out / "report.json"
    report_path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")

    for check in runner.checks:
        status = "PASS" if check.passed else "FAIL"
        computed = (
            f"undefined, {check.undefined}" if check.computed is None
            else f"{check.computed:.6g}"
        )
        print(
            f"{status} {check.name}: computed={computed} "
            f"reference={check.reference:.6g} tol={check.tolerance:.3g} "
            f"({check.wall_time:.3f}s)"
        )
    print(f"report: {report_path} ({total_time:.3f}s total)")
    return 0 if runner.all_passed else 1


def _finite_or_null(value):
    """``value`` with every non-finite float in it replaced by None, so the
    report is strict JSON."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def list_builtin() -> list[tuple[str, str]]:
    """Stable catalog of the bundled scenarios."""
    return list(BUILTIN_SCENARIOS.items())


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="liephase",
        description="Deformed-bracket mechanics: algebra checks, COM reports, "
        "simulations and WEP sweeps from scenario files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run a scenario file or builtin scenario")
    run_parser.add_argument("scenario", help="path to a .scn file or a builtin name")
    run_parser.add_argument("--out", default=None, help="output directory")
    run_parser.add_argument("--dt", type=float, default=None, help="override the grid step")
    run_parser.add_argument("--tol", type=float, default=None, help="override check tolerances")

    sub.add_parser("list-builtin", help="list bundled scenarios")

    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.scenario, out_dir=args.out, dt=args.dt, tol=args.tol)
    for name, description in list_builtin():
        print(f"{name:26s} {description}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
