"""Scenario loading, task dispatch, exit codes and report determinism."""

import ast
import copy
import dataclasses
import importlib
import json
import math
import shutil
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import liephase as lp
from liephase import cli, composition, dynamics

import sweep_check_algebra
import sweep_output
import sweep_record
from helpers import count_kernel_calls, strict_json, tensor_with


def write_scenario(tmp_path, name, payload):
    """``payload`` as a scenario file: a str is the file's text as it is."""
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


MINIMAL = {
    "schema_version": 1,
    "task": "check-algebra",
    "algebra": {"variant": "space_time", "kappa": 1.0, "rho": 1, "tau": 2},
    "particles": [{"mass": 1.0}],
    "initial": {"x": [[0, 0, 0]], "p": [[0, 0, 0]]},
    "grid": {"t0": 0.0, "t_end": 1.0, "dt": 0.1},
}


SIMULATE = {
    "schema_version": 1,
    "task": "simulate",
    "algebra": {"variant": "canonical"},
    "particles": [{"mass": 1.0}],
    "initial": {"x": [[0, 0, 0]], "p": [[1, 0, 0]]},
    "grid": {"t0": 0.0, "t_end": 0.1, "dt": 0.01},
    "potential": {"variant": "uniform", "g": [0, 1, 0]},
}


WEP = {
    "schema_version": 1,
    "task": "wep-test",
    "algebra": {"variant": "space_time", "kappa": 1.0, "rho": 1, "tau": 2},
    "particles": [{"mass": 1.0}],
    "initial": {"x": [[0, 0, 0]], "p": [[0, 0, 0]]},
    "grid": {"t0": 0.0, "t_end": 0.1, "dt": 0.01},
    "potential": {"variant": "uniform", "g": [0, 1, 0]},
    "options": {"masses": [1.0, 2.0]},
}


COM = dict(MINIMAL, task="com-brackets")


# an integer that no float holds
HUGE = 10**400


BODY_X = [[0.0, 0.0, 0.0], [1.0, 0.5, 0.0]]
BODY_P = [[0.2, 0.0, 0.0], [0.0, -0.1, 0.0]]
BODY = {
    "schema_version": 1,
    "task": "simulate",
    "algebra": {"variant": "space_time", "kappa": 2.0, "rho": 1, "tau": 2},
    "particles": [{"mass": 1.0}, {"mass": 3.0, "kappa": 6.0}],
    "initial": {"x": BODY_X, "p": BODY_P},
    "grid": {"t0": 0.0, "t_end": 1.0, "dt": 0.001},
    "potential": {"variant": "uniform", "g": [0.0, 1.0, 0.0]},
    "body_mode": True,
}


def _mutated(name, path, value):
    """The bundled scenario ``name`` as a dict, with the node at ``path`` set to ``value``."""
    payload = cli.load_scenario(name).to_dict()
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return payload


def _counted(fn, calls):
    """``fn``, appending the positional arguments of each call to ``calls``."""
    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return counted


def _encoded_body(spec, mass):
    """Generalized algebra block of ``spec`` and the override for ``mass``."""
    g = lp.as_generalized(spec)
    base = cli.algebra_to_dict(g)
    heavier = {name: (getattr(g, name) / mass).tolist()
               for name in ("theta0", "theta", "theta_tilde")}
    return base, heavier


# mass-scaled (1, 3) bodies per variant: the base algebra and the override
# of the mass-3 particle
SCALED_BODIES = {
    "space_space": (
        {"variant": "space_space", "kappa_tilde": 1.5, "k": 1, "l": 2, "gamma": 3},
        {"kappa_tilde": 4.5},
    ),
    "miao_type_i": (
        {"variant": "miao_type_i", "kappa": 2.0, "kappa_tilde": 1.5, "k": 2, "l": 3, "gamma": 1},
        {"kappa": 6.0, "kappa_tilde": 4.5},
    ),
    "miao_type_ii": (
        {"variant": "miao_type_ii", "kappa": 2.0, "kappa_tilde": -1.5, "kappa_bar": 5.0,
         "k": 1, "l": 2, "gamma": 3},
        {"kappa": 6.0, "kappa_tilde": -4.5},
    ),
    "generalized": _encoded_body(
        lp.MiaoTypeII(kappa=2.0, kappa_tilde=1.5, kappa_bar=5.0, k=3, l=1, gamma=2), 3.0
    ),
}


class TestScenarioParsing:
    def test_roundtrip_through_dict(self):
        scenario = cli.scenario_from_dict(MINIMAL)
        redone = cli.scenario_from_dict(scenario.to_dict())
        assert redone.to_dict() == scenario.to_dict()

    def test_per_particle_overrides(self):
        payload = dict(MINIMAL)
        payload["particles"] = [{"mass": 1.0}, {"mass": 2.0, "kappa": 3.0}]
        payload["initial"] = {"x": [[0, 0, 0], [1, 1, 1]], "p": [[0, 0, 0], [0, 0, 0]]}
        scenario = cli.scenario_from_dict(payload)
        assert scenario.system.particles[0].spec.kappa == 1.0
        assert scenario.system.particles[1].spec.kappa == 3.0

    def test_reduced_momentum_units(self):
        payload = dict(MINIMAL)
        payload["particles"] = [{"mass": 4.0}]
        payload["initial"] = {"x": [[0, 0, 0]], "p_reduced": [[0.5, 0, 0]]}
        scenario = cli.scenario_from_dict(payload)
        assert np.array_equal(scenario.initial.p, [[2.0, 0.0, 0.0]])

    def test_body_approximation_loads_with_flag(self):
        payload = dict(BODY, particles=[{"mass": 1.0}, {"mass": 3.0, "kappa": 5.0}],
                       neglect_relative_motion=True)
        assert cli.scenario_from_dict(payload).neglect_relative_motion is True
        assert cli.scenario_from_dict(BODY).neglect_relative_motion is False

    def test_bad_schema_version(self):
        payload = dict(MINIMAL, schema_version=2)
        with pytest.raises(cli.ScenarioError, match="schema_version"):
            cli.scenario_from_dict(payload)

    def test_unknown_task(self):
        payload = dict(MINIMAL, task="plot")
        with pytest.raises(cli.ScenarioError, match="task"):
            cli.scenario_from_dict(payload)

    def test_invariant_violation_names_field(self):
        payload = dict(MINIMAL)
        payload["algebra"] = {"variant": "space_time", "kappa": 1.0, "rho": 2, "tau": 2}
        with pytest.raises(cli.ScenarioError, match="rho"):
            cli.scenario_from_dict(payload)

    def test_override_of_foreign_parameter_rejected(self):
        payload = dict(MINIMAL)
        payload["particles"] = [{"mass": 1.0, "kappa_tilde": 2.0}]
        with pytest.raises(cli.ScenarioError, match="kappa_tilde"):
            cli.scenario_from_dict(payload)

    def test_unknown_option_rejected(self):
        payload = dict(MINIMAL, options={"tolerance_typo": 1.0})
        with pytest.raises(cli.ScenarioError, match="tolerance_typo"):
            cli.scenario_from_dict(payload)

    @pytest.mark.parametrize(
        "field, payload",
        [
            ("body_mode", dict(MINIMAL, body_mode="false")),
            ("neglect_relative_motion", dict(MINIMAL, neglect_relative_motion=1)),
            ("options.expect_closes",
             dict(MINIMAL, task="com-brackets", options={"expect_closes": "true"})),
            ("options.reduced_momentum", dict(SIMULATE, options={"reduced_momentum": "no"})),
            ("options.order_check", dict(SIMULATE, options={"order_check": None})),
        ],
    )
    def test_flags_must_be_json_booleans(self, field, payload, tmp_path, capsys):
        path = write_scenario(tmp_path, "flag.scn", payload)
        assert cli.run(path, out_dir=str(tmp_path / "out")) == 2
        assert f"scenario error: {field}: expected true or false" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, payload",
        [
            ("options.masses", dict(WEP, options={"masses": [1, -2]})),
            ("options.masses", dict(WEP, options={"masses": "abc"})),
            ("options.masses", dict(WEP, options={"masses": []})),
            ("options.masses", dict(WEP, options={"masses": [1.0, True]})),
            ("options.masses", dict(WEP, options={})),
            ("particles", dict(WEP, particles=[{"mass": 1.0}, {"mass": 2.0}],
                               initial={"x": [[0, 0, 0]] * 2, "p": [[0, 0, 0]] * 2})),
            ("options.order_bounds", dict(SIMULATE, options={"order_bounds": [12]})),
            ("options.order_bounds", dict(SIMULATE, options={"order_bounds": [20, 12]})),
            ("options.order_bounds",
             dict(SIMULATE, options={"order_check": True, "order_bounds": [12, "x"]})),
            ("grid.dt", dict(SIMULATE, grid={"t0": 0.0, "t_end": 1.0, "dt": 0.3})),
            ("grid.dt", dict(SIMULATE, grid={"t0": 0.0, "t_end": 1.0, "dt": float("nan")})),
            ("grid.t_end", dict(SIMULATE, grid={"t0": 0.0, "t_end": float("inf"), "dt": 0.1})),
            ("grid.t_end", dict(SIMULATE, grid={"t0": 1.0, "t_end": 1.0, "dt": 0.1})),
            *[(f"options.{key}", dict(base, options={key: value})) for key, value, base in (
                ("samples", "x", MINIMAL),
                ("samples", -5, MINIMAL),
                ("samples", 2.7, MINIMAL),
                ("samples", True, MINIMAL),
                ("compare_partition", "x", SIMULATE),
                ("compare_partition", "abc", SIMULATE),
                ("compare_partition", [2.0, -1.0], SIMULATE),
                ("compare_partition", [], SIMULATE),
                ("energy_drift_tol", "x", SIMULATE),
                ("energy_drift_tol", -1e-9, SIMULATE),
                ("partition_tol", "x", SIMULATE),
                ("max_deviation", "x", WEP),
                ("expect_position_deviation", "x", WEP),
                ("expect_deviation_tol", "x", WEP),
                ("scaling_mode", "sometimes", WEP),
                ("expect_kappa_eff", "x", COM),
                ("expect_decoupling_max", "x", COM),
                ("expect_decoupling_max", float("inf"), COM),
            )],
            # the effective algebra must have exactly one scalar parameter
            *[("options.expect_kappa_eff",
               dict(COM, algebra=algebra, options={"expect_kappa_eff": 1.0})) for algebra in (
                {"variant": "miao_type_i", "kappa": 1.0, "kappa_tilde": 2.0,
                 "k": 1, "l": 2, "gamma": 3},
                {"variant": "miao_type_ii", "kappa": 1.0, "kappa_tilde": 2.0, "kappa_bar": 3.0,
                 "k": 1, "l": 2, "gamma": 3},
                {"variant": "canonical"},
                {"variant": "generalized"},
            )],
            # a malformed Generalized tensor names its field
            *[(f"algebra.{key}", dict(MINIMAL, algebra={"variant": "generalized", key: value}))
              for key, value in (
                ("theta0", "abc"),
                ("theta0", [[0.0, 1.0], [-1.0, 0.0]]),
                ("theta0", [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
                ("theta", [[[float("nan")] * 3] * 3] * 3),
                ("theta", [[[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]] * 3),
                ("theta_bar", {"k": 1}),
                ("theta_tilde", [[[0.0] * 3] * 3] * 2),
            )],
            # ... and its first bad entry
            *[(field, dict(MINIMAL, algebra={"variant": "generalized", key: value}))
              for field, key, value in (
                ("algebra.theta[0][1][2]: expected a finite number, got nan",
                 "theta", tensor_with((3, 3, 3), (0, 1, 2), float("nan"))),
                ("algebra.theta_bar[2][0][1]: expected a finite number, got 'x'",
                 "theta_bar", tensor_with((3, 3, 3), (2, 0, 1), "x")),
                ("algebra.theta0[1]: expected a list of 3 numbers, got [0.0, 0.0]",
                 "theta0", [[0.0] * 3, [0.0] * 2, [0.0] * 3]),
                ("algebra.theta0[2][2]: must be antisymmetric in its lower index pair",
                 "theta0", tensor_with((3, 3), (2, 2), 5.0)),
                ("algebra.theta[1][0][2]: must be antisymmetric in its lower index pair",
                 "theta", tensor_with((3, 3, 3), (1, 2, 0), 1.0)),
            )],
            ("particles[1].theta_tilde[0][2][1]: expected a finite number, got inf",
             dict(MINIMAL, algebra={"variant": "generalized"},
                  particles=[{"mass": 1.0},
                             {"mass": 2.0,
                              "theta_tilde": tensor_with((3, 3, 3), (0, 2, 1), float("inf"))}],
                  initial={"x": [[0, 0, 0]] * 2, "p": [[0, 0, 0]] * 2})),
            # a mass is refused at its entry, not at the particle list
            *[(f"particles[1].mass: {message}",
               dict(MINIMAL, particles=[{"mass": 1.0}, {"mass": mass}],
                    initial={"x": [[0, 0, 0]] * 2, "p": [[0, 0, 0]] * 2}))
              for mass, message in (
                (-2.0, "particle mass must be positive, got -2.0"),
                (0, "particle mass must be positive, got 0.0"),
                (float("inf"), "expected a finite number, got inf"),
            )],
            ("particles[1].theta_tilde",
             dict(MINIMAL, algebra={"variant": "generalized"},
                  particles=[{"mass": 1.0}, {"mass": 2.0, "theta_tilde": "x"}],
                  initial={"x": [[0, 0, 0]] * 2, "p": [[0, 0, 0]] * 2})),
            ("particles[0].theta0",
             dict(MINIMAL, algebra={"variant": "generalized"},
                  particles=[{"mass": 1.0, "theta0": [[1.0, 0.0, 0.0]] * 3}])),
            # the initial state is read row by row, entry by entry
            *[(field, dict(BODY, initial=initial)) for field, initial in (
                ("initial.x[0]", {"x": [[0.0, 0.0], [1.0, 0.5, 0.0]], "p": BODY_P}),
                ("initial.x[1]", {"x": [[0.0, 0.0, 0.0], 1.0], "p": BODY_P}),
                ("initial.x[0][1]", {"x": [[0.0, "a", 0.0], [1.0, 0.5, 0.0]], "p": BODY_P}),
                ("initial.x[1][2]", {"x": [[0.0, 0.0, 0.0], [1.0, 0.5, {"k": 1}]], "p": BODY_P}),
                ("initial.x[0][0]", {"x": [[None, 0.0, 0.0], [1.0, 0.5, 0.0]], "p": BODY_P}),
                ("initial.x", {"x": [[0.0, 0.0, 0.0]], "p": BODY_P}),
                ("initial.p[1]", {"x": BODY_X, "p": [[0.2, 0.0, 0.0], [0.0, -0.1, 0.0, 1.0]]}),
                ("initial.p[0][2]", {"x": BODY_X, "p": [[0.2, 0.0, "x"], [0.0, -0.1, 0.0]]}),
                ("initial.p_reduced[0]", {"x": BODY_X, "p_reduced": [[0.2], [0.0, -0.1, 0.0]]}),
                ("initial.p_reduced[1][0]",
                 {"x": BODY_X, "p_reduced": [[0.2, 0.0, 0.0], [[0.0], -0.1, 0.0]]}),
                ("initial.p_reduced", {"x": BODY_X, "p_reduced": [[1e308, 0.0, 0.0]] * 2}),
            )],
            ("grid.t_end", dict(SIMULATE, grid={"t0": 0.0, "t_end": 1e308, "dt": 0.1})),
            # a body whose center of mass does not decouple exactly
            ("neglect_relative_motion",
             dict(BODY, particles=[{"mass": 1.0}, {"mass": 3.0, "kappa": 5.0}])),
            ("neglect_relative_motion",
             dict(BODY, algebra={"variant": "space_space", "kappa_tilde": 1.5,
                                 "k": 1, "l": 2, "gamma": 3},
                  particles=[{"mass": 1.0}, {"mass": 3.0, "kappa_tilde": 4.5}])),
            # a parameter that a rescaling of the task sends out of range
            ("options.masses[1]: the parameters rescaled to mass 10.0: kappa",
             dict(WEP, algebra=dict(WEP["algebra"], kappa=1e308), options={"masses": [1, 10]})),
            ("options.masses[2]: the parameters rescaled to mass 1e-10: kappa",
             dict(WEP, algebra=dict(WEP["algebra"], kappa=1e-300),
                  options={"masses": [1, 2, 1e-10], "scaling_mode": "mass_scaled"})),
            ("options.masses[0]: the parameters rescaled to mass 1e-10: theta0",
             dict(WEP, algebra={"variant": "generalized",
                                "theta0": [[0, 1e300, 0], [-1e300, 0, 0], [0, 0, 0]]},
                  options={"masses": [1e-10, 1]})),
            ("options.compare_partition[1]: the parameters rescaled to mass 1e-310: kappa",
             dict(BODY, options={"compare_partition": [4.0, 1e-310]})),
            ("particles: the parameters rescaled to mass 2.0: kappa",
             dict(BODY, algebra=dict(BODY["algebra"], kappa=1e308),
                  particles=[{"mass": 1.0}, {"mass": 1.0}])),
            ("particles: the parameters rescaled to mass 2.0: kappa",
             dict(COM, algebra=dict(COM["algebra"], kappa=1e308),
                  particles=[{"mass": 1.0}, {"mass": 1.0}],
                  initial={"x": [[0, 0, 0]] * 2, "p": [[0, 0, 0]] * 2})),
            ("algebra: kappa must have a finite inverse", dict(MINIMAL, algebra=dict(
                MINIMAL["algebra"], kappa=1e-310))),
            # rules a task needs of its scenario
            ("options.compare_partition: only meaningful with body_mode",
             dict(BODY, body_mode=False, options={"compare_partition": [2.0, 2.0]})),
            ("options.compare_partition: partition must preserve the total mass",
             dict(BODY, options={"compare_partition": [2.0, 2.5]})),
            ("options.compare_partition: partition comparison needs a mass-scaled system",
             dict(BODY, particles=[{"mass": 1.0}, {"mass": 3.0, "kappa": 5.0}],
                  neglect_relative_motion=True, options={"compare_partition": [2.0, 2.0]})),
            ("potential: required for this task", {k: v for k, v in SIMULATE.items()
                                                   if k != "potential"}),
            # a body run without a field cannot be told exact: the field is named
            ("potential: required for this task", {k: v for k, v in BODY.items()
                                                   if k != "potential"}),
            # a body whose center-of-mass momentum overflows, with a partition and without
            *[("initial: the body's center of mass (Xcom, Pcom) is not finite", payload)
              for payload in (_mutated("body_composition", ("initial", "p"), [[1e308, 0, 0]] * 2),
                              dict(BODY, initial={"x": BODY_X, "p": [[1e308, 0, 0]] * 2}))],
            ("particles: center-of-mass brackets do not close",
             dict(BODY, algebra={"variant": "space_space", "kappa_tilde": 1.5,
                                 "k": 1, "l": 2, "gamma": 3},
                  particles=[{"mass": 1.0}, {"mass": 3.0, "kappa_tilde": 2.0}],
                  neglect_relative_motion=True)),
            # potential fields name their bad element
            ("potential.g[1]: expected a finite number, got 'x'",
             dict(SIMULATE, potential={"variant": "uniform", "g": [0, "x", 0]})),
            ("potential.g: expected a list of 3 numbers",
             dict(SIMULATE, potential={"variant": "uniform", "g": [0, 1]})),
            ("potential.center[2]: expected a finite number, got None",
             dict(SIMULATE, potential={"variant": "newtonian", "strength": 1.0,
                                       "center": [5, 0, None]})),
            ("potential.coefficients.2,0,0: expected a finite number, got 'x'",
             dict(SIMULATE, potential={"variant": "polynomial",
                                       "coefficients": {"2,0,0": "x"}})),
            ("potential.variant: unknown variant 'lumpy'",
             dict(SIMULATE, potential={"variant": "lumpy"})),
            ("potential.coefficients: expected dict, got list",
             dict(SIMULATE, potential={"variant": "polynomial", "coefficients": [2, 0, 0]})),
            ("potential.coefficients: bad exponent key '2.0,0,0'",
             dict(SIMULATE, potential={"variant": "polynomial",
                                       "coefficients": {"2.0,0,0": 1.0}})),
            ("potential.strength: missing required field",
             dict(SIMULATE, potential={"variant": "newtonian", "center": [5, 0, 0]})),
            # a monomial the potential could not hold is refused by its key
            *[(f"potential.coefficients.{key}: expected three exponents >= 0 of total degree <= 4",
               dict(SIMULATE, potential={"variant": "polynomial", "coefficients": {key: 1.0}}))
              for key in ("3,2,0", "-1,0,0", "1,1", "1,0,0,0")],
            # two keys for one monomial: one of them would be dropped
            ("potential.coefficients.02,0,0: the same monomial as key '2,0,0'",
             dict(SIMULATE, potential={"variant": "polynomial",
                                       "coefficients": {"2,0,0": 1.0, "02,0,0": 2.0}})),
            # a run's initial momentum m P'(0) that overflows, in either mode
            *[("options.masses[1]: the initial momentum m P'(0) for mass 2.0 overflows",
               dict(WEP, initial={"x": [[0, 0, 0]], "p": [[1e308, 0, 0]]},
                    options={"masses": [1.0, 2.0], "scaling_mode": mode}))
              for mode in ("fixed", "mass_scaled", "both")],
            # 1e20 steps: numpy refuses to size the trajectory
            ("grid.t_end", dict(SIMULATE, grid={"t0": 0.0, "t_end": 1e17, "dt": 1e-3})),
            # true is not the integer 1
            ("schema_version: expected an integer >= 0, got True",
             dict(MINIMAL, schema_version=True)),
            ("task: expected str, got int", dict(MINIMAL, task=3)),
            # a misspelt field is refused, not left at its default
            ("algebra.thetta0: unknown field for variant generalized",
             dict(MINIMAL, algebra={"variant": "generalized",
                                    "thetta0": [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]})),
            ("algebra.kapa: unknown field for variant space_time",
             dict(MINIMAL, algebra=dict(MINIMAL["algebra"], kapa=2.0))),
            ("potential.strenght: unknown field for variant uniform",
             dict(SIMULATE, potential={"variant": "uniform", "g": [0, 1, 0], "strenght": 3})),
            ("potential.r_min: unknown field for variant newtonian",
             dict(SIMULATE, potential={"variant": "newtonian", "strength": 1.0, "r_min": 0.1})),
            ("particles[1].thetta0: not a parameter of this algebra variant",
             dict(MINIMAL, algebra={"variant": "generalized"},
                  particles=[{"mass": 1.0},
                             {"mass": 2.0, "thetta0": [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]}],
                  initial={"x": [[0, 0, 0], [1, 0, 0]], "p": [[0, 0, 0], [0, 0, 0]]})),
            ("particles[0].rho: not a parameter of this algebra variant",
             dict(MINIMAL, particles=[{"mass": 1.0, "rho": 2}])),
            ("options.sample: unknown option for task check-algebra",
             dict(MINIMAL, options={"sample": 3})),
            # every other block refuses an unknown key too
            ("body_mod: unknown field", dict(BODY, body_mod=True)),
            ("grid.dtt: unknown field", dict(SIMULATE, grid=dict(SIMULATE["grid"], dtt=0.05))),
            ("initial.pp: unknown field",
             dict(SIMULATE, initial=dict(SIMULATE["initial"], pp=[[5, 0, 0]]))),
            ("potentail: unknown field",
             dict(COM, potentail={"variant": "uniform", "g": [0, 1, 0]},
                  options={"expect_decoupling_max": 1e-12})),
            # without a potential the asked-for decoupling check could not run
            ("options.expect_decoupling_max: needs a potential",
             dict(COM, options={"expect_decoupling_max": 1e-12})),
            # an option given to a run that never reads it: its check would not run
            ("options.expect_position_deviation: only meaningful with the fixed runs",
             _mutated("spacetime_wep_violation", ("options", "scaling_mode"), "mass_scaled")),
            ("options.max_deviation: only meaningful with the mass-scaled runs",
             dict(WEP, options={"masses": [1.0, 2.0], "scaling_mode": "fixed",
                                "max_deviation": 1e-30})),
            ("options.expect_deviation_tol: only meaningful with expect_position_deviation",
             dict(WEP, options={"masses": [1.0, 2.0], "expect_deviation_tol": 1e-3})),
            ("options.order_bounds: only meaningful with order_check",
             dict(SIMULATE, options={"order_bounds": [12.0, 20.0]})),
            ("options.order_bounds: only meaningful with order_check",
             dict(SIMULATE, options={"order_check": False, "order_bounds": [12.0, 20.0]})),
            ("options.partition_tol: only meaningful with compare_partition",
             dict(SIMULATE, options={"partition_tol": 1e-10})),
            # a flag that no run reads: body_mode outside simulate, and
            # neglect_relative_motion without body_mode
            *[("body_mode: only meaningful with the simulate task",
               _mutated(name, ("body_mode",), True))
              for name in ("spacetime_com_brackets", "spacetime_wep", "miao1_jacobi")],
            ("body_mode: only meaningful with the simulate task",
             dict(_mutated("miao1_jacobi", ("body_mode",), True), neglect_relative_motion=True)),
            *[("neglect_relative_motion: only meaningful with body_mode",
               _mutated(name, ("neglect_relative_motion",), True))
              for name in ("spacetime_wep", "integrator_order", "spacetime_com_brackets")],
            ("neglect_relative_motion: only meaningful with body_mode",
             dict(BODY, body_mode=False, neglect_relative_motion=True)),
            # an integer beyond float range is not a finite number
            *[(f"{field}: expected {what}", payload) for field, what, payload in (
                ("particles[0].mass", "a finite number", dict(WEP, particles=[{"mass": HUGE}])),
                ("grid.t_end", "a finite number",
                 dict(WEP, grid={"t0": 0.0, "t_end": HUGE, "dt": 0.01})),
                ("options.max_deviation", "a finite number >= 0",
                 dict(WEP, options={"masses": [1.0, 2.0], "max_deviation": HUGE})),
                ("options.masses", "a non-empty list of positive finite masses",
                 dict(WEP, options={"masses": [1.0, HUGE]})),
                ("potential.g[1]", "a finite number",
                 dict(WEP, potential={"variant": "uniform", "g": [0, HUGE, 0]})),
                ("initial.x[0][1]", "a finite number",
                 dict(WEP, initial={"x": [[0, HUGE, 0]], "p": [[0, 0, 0]]})),
            )],
            # ... and one of more digits than Python converts
            ("scenario is not valid JSON: Exceeds the limit",
             json.dumps(WEP).replace('"t_end": 0.1', '"t_end": 1' + "0" * 5000)),
            # a key given twice in one object: a dict would keep the last value
            *[(f"{field}: key given twice in one object", json.dumps(WEP).replace(old, new))
              for field, old, new in (
                ("grid.dt", '"dt": 0.01', '"dt": 0.5, "dt": 0.01'),
                ("algebra.rho", '"rho": 1', '"rho": 1, "rho": 3'),
                ("particles[0].mass", '"mass": 1.0', '"mass": 1.0, "mass": 1.0'),
                ("task", '"task": "wep-test"', '"task": "wep-test", "task": "wep-test"'),
              )],
            # a 10,000-character key is cut short in the field's name
            ("grid." + "k" * 50 + "... (10000 characters): unknown field",
             dict(SIMULATE, grid=dict(SIMULATE["grid"], **{"k" * 10_000: 1}))),
            ("potential.coefficients." + "0" * 50
             + "... (10000 characters): the same monomial as key '2,0,0'",
             dict(SIMULATE, potential={"variant": "polynomial", "coefficients": {
                 "2,0,0": 1.0, ",".join(["0" * 3332 + "2", "0" * 3333, "0" * 3332]): 2.0}})),
            pytest.param(
                "grid." + "k" * 50 + "... (10000 characters): key given twice in one object",
                json.dumps(WEP).replace('"dt": 0.01', f'"{"k" * 10_000}": 1, "{"k" * 10_000}": 2, '
                                                     '"dt": 0.01'),
                id="long-key-given-twice"),
            ("initial: give either p or p_reduced, not both",
             dict(WEP, initial=dict(WEP["initial"], p_reduced=[[0, 0, 0]]))),
            ("scenario: expected a JSON object", [WEP]),
            ("potential: required for this task",
             {k: v for k, v in WEP.items() if k != "potential"}),
        ],
    )
    def test_bad_values_exit_2_naming_field(self, field, payload, tmp_path, capsys):
        path = write_scenario(tmp_path, "bad.scn", payload)
        assert cli.run(path, out_dir=str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"scenario error: {field}")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, payload", [
        ("grid.t_end", dict(WEP, grid={"t0": 0.0, "t_end": 10**400, "dt": 0.01})),
        ("particles[0].mass", dict(WEP, particles=[{"mass": 10**3999}])),
        ("initial.x[0]", dict(WEP, initial={"x": [[0.0] * 10_000], "p": [[0, 0, 0]]})),
        ("options.masses", dict(WEP, options={"masses": [1.0] * 9_999 + [-1.0]})),
        ("potential.coefficients." + "1" * 50 + "... (4004 characters)",
         dict(SIMULATE, potential={"variant": "polynomial",
                                   "coefficients": {"1" * 4000 + ",0,0": 1.0}})),
    ])
    def test_long_values_are_echoed_short(self, field, payload, tmp_path, capsys):
        # a 401- or 4000-digit integer, a 10,000-entry list or a monomial key of
        # degree 4000 is not echoed whole
        path = write_scenario(tmp_path, "long.scn", payload)
        assert cli.run(path, out_dir=str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"scenario error: {field}: expected ")
        assert err.count("\n") == 1 and len(err) < 200

    @pytest.mark.parametrize("name", list(cli.BUILTIN_SCENARIOS))
    def test_loaded_scenario_is_a_frozen_gravity_scenario(self, name):
        scenario = cli.load_scenario(name)
        assert isinstance(scenario, lp.GravityScenario)
        assert scenario.gravity_scenario() is scenario
        with pytest.raises(dataclasses.FrozenInstanceError):
            scenario.dt = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            scenario.task = "simulate"

    def test_scenario_declares_only_what_the_library_lacks(self):
        assert set(cli.Scenario.__annotations__) == {"task", "options", "settings"}
        assert [f.name for f in dataclasses.fields(cli.Scenario)] == [
            *(f.name for f in dataclasses.fields(lp.GravityScenario)),
            "task", "options", "settings",
        ]

    def test_potential_roundtrip(self):
        for pot in (
            lp.Uniform(g=[0, 1, 0]),
            lp.Newtonian(strength=2.0, center=[1, 0, 0]),
            lp.Polynomial(coefficients={(2, 0, 0): 0.5}),
        ):
            redone = cli.potential_from_dict(cli.potential_to_dict(pot))
            assert cli.potential_to_dict(redone) == cli.potential_to_dict(pot)
            # the scenario fingerprint hashes the repr
            assert repr(redone) == repr(pot)
        # an absent center is the origin
        bare = cli.potential_from_dict({"variant": "newtonian", "strength": 2.0})
        assert np.array_equal(bare.center, np.zeros(3))
        assert repr(bare) == repr(lp.Newtonian(strength=2.0, center=[0, 0, 0]))

    def test_user_potential_is_unknown_variant(self):
        class Flat(lp.Potential):
            def value(self, x):
                return 0.0

        with pytest.raises(TypeError, match="^unknown potential variant: Flat$"):
            cli.potential_to_dict(Flat())

    def test_algebra_roundtrip_all_variants(self):
        rng = np.random.default_rng(0)
        t = rng.uniform(-1, 1, (3, 3))
        specs = [
            lp.Canonical(),
            lp.SpaceTime(kappa=1.5, rho=2, tau=3),
            lp.SpaceSpace(kappa_tilde=-2.0, k=3, l=1, gamma=2),
            lp.MiaoTypeI(kappa=1.0, kappa_tilde=2.0),
            lp.MiaoTypeII(kappa=1.0, kappa_tilde=2.0, kappa_bar=3.0),
            lp.Generalized(theta0=t - t.T),
        ]
        for spec in specs:
            redone = cli.algebra_from_dict(cli.algebra_to_dict(spec))
            assert cli.algebra_to_dict(redone) == cli.algebra_to_dict(spec)


class TestRun:
    @pytest.mark.parametrize("name", [name for name, _ in cli.list_builtin()])
    def test_builtin_scenarios_pass(self, name, tmp_path):
        status = cli.run(name, out_dir=str(tmp_path / name))
        assert status == 0
        report = json.loads((tmp_path / name / "report.json").read_text())
        assert report["passed"] is True
        assert all(check["passed"] for check in report["checks"])

    def test_reports_byte_identical(self, tmp_path):
        for d in ("a", "b"):
            assert cli.run("spacetime_wep", out_dir=str(tmp_path / d)) == 0
        assert (tmp_path / "a" / "report.json").read_bytes() == (
            tmp_path / "b" / "report.json"
        ).read_bytes()

    def test_trajectory_csv_byte_identical(self, tmp_path):
        for d in ("a", "b"):
            assert cli.run("body_composition", out_dir=str(tmp_path / d)) == 0
        assert (tmp_path / "a" / "trajectory.csv").read_bytes() == (
            tmp_path / "b" / "trajectory.csv"
        ).read_bytes()

    @pytest.mark.parametrize("longer, shorter, output", [
        ("spacetime_com_brackets", "spacetime_eom", "report.json"),  # 27 KB, then 1.4 KB
        ("body_composition", "integrator_order", "trajectory.csv"),  # 100 KB, then 5 KB
        ("body_composition", "integrator_order", "report.json"),
    ])
    def test_shorter_output_over_longer_leaves_only_its_bytes(self, longer, shorter, output,
                                                              tmp_path):
        # outputs are rewritten in place, and cut where the new bytes end
        shared, fresh = tmp_path / "shared", tmp_path / "fresh"
        assert cli.run(longer, out_dir=str(shared)) == 0
        old = (shared / output).stat().st_size
        assert cli.run(shorter, out_dir=str(shared)) == 0
        assert cli.run(shorter, out_dir=str(fresh)) == 0
        new = (shared / output).read_bytes()
        assert len(new) < old and new == (fresh / output).read_bytes()

    def test_rerun_keeps_each_output_file(self, tmp_path):
        # a rerun writes into the files already there, as open(path, "w") does
        out = tmp_path / "out"
        outputs = ("report.json", "trajectory.csv", "trajectory_partition.csv")
        assert cli.run("body_composition", out_dir=str(out)) == 0
        before = {name: ((out / name).stat().st_ino, (out / name).read_bytes())
                  for name in outputs}
        assert cli.run("body_composition", out_dir=str(out)) == 0
        assert {name: ((out / name).stat().st_ino, (out / name).read_bytes())
                for name in outputs} == before

    def test_validation_error_exits_2(self, tmp_path):
        payload = dict(MINIMAL)
        payload["algebra"] = {"variant": "space_time", "kappa": 1.0, "rho": 2, "tau": 2}
        path = write_scenario(tmp_path, "bad.scn", payload)
        assert cli.run(path, out_dir=str(tmp_path / "out")) == 2

    def test_unreadable_file_exits_2(self, tmp_path):
        assert cli.run(str(tmp_path / "missing.scn"), out_dir=str(tmp_path / "out")) == 2

    def test_numerical_failure_exits_3(self, tmp_path):
        payload = {
            "schema_version": 1,
            "task": "simulate",
            "algebra": {"variant": "canonical"},
            "particles": [{"mass": 1.0}],
            "initial": {"x": [[1e-10, 0, 0]], "p": [[0, 0, 0]]},
            "grid": {"t0": 0.0, "t_end": 1.0, "dt": 0.001},
            "potential": {"variant": "newtonian", "strength": 1.0, "center": [0, 0, 0]},
        }
        path = write_scenario(tmp_path, "singular.scn", payload)
        assert cli.run(path, out_dir=str(tmp_path / "out")) == 3

    def test_failed_check_exits_1(self, tmp_path):
        payload = {
            "schema_version": 1,
            "task": "com-brackets",
            "algebra": {"variant": "space_time", "kappa": 2.0, "rho": 1, "tau": 2},
            "particles": [{"mass": 1.0}, {"mass": 3.0, "kappa": 6.0}],
            "initial": {"x": [[0, 0, 0], [1, 0, 0]], "p": [[0, 0, 0], [0, 0, 0]]},
            "grid": {"t0": 1.0, "t_end": 2.0, "dt": 0.1},
            "options": {"expect_kappa_eff": 7.5},
        }
        path = write_scenario(tmp_path, "wrong.scn", payload)
        assert cli.run(path, out_dir=str(tmp_path / "out")) == 1

    def test_dt_flag_overrides_grid(self, tmp_path):
        payload = {
            "schema_version": 1,
            "task": "simulate",
            "algebra": {"variant": "canonical"},
            "particles": [{"mass": 1.0}],
            "initial": {"x": [[0, 0, 0]], "p": [[1, 0, 0]]},
            "grid": {"t0": 0.0, "t_end": 0.1, "dt": 0.01},
            "potential": {"variant": "uniform", "g": [0, 1, 0]},
        }
        path = write_scenario(tmp_path, "sim.scn", payload)
        assert cli.run(path, out_dir=str(tmp_path / "out"), dt=0.05) == 0
        csv_lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert len(csv_lines) == 1 + 3  # header + floor(0.1/0.05) + 1 samples

    @pytest.mark.parametrize("dt", [0.03, float("nan"), -0.05])
    def test_dt_flag_must_divide_grid(self, dt, tmp_path, capsys):
        path = write_scenario(tmp_path, "sim.scn", SIMULATE)
        assert cli.run(path, out_dir=str(tmp_path / "out"), dt=dt) == 2
        assert capsys.readouterr().err.startswith("scenario error: --dt: dt")

    @pytest.mark.parametrize("where", ["a file", "under a file"])
    def test_out_flag_must_name_a_directory(self, where, tmp_path, capsys):
        path = write_scenario(tmp_path, "sim.scn", SIMULATE)
        blocker = tmp_path / "taken"
        blocker.write_text("kept\n")
        out = blocker if where == "a file" else blocker / "out"
        assert cli.run(path, out_dir=str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario error: --out: ") and "Traceback" not in err
        assert blocker.read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sim.scn", "taken"]

    @pytest.mark.parametrize("name, output", [("integrator_order", "trajectory.csv"),
                                              ("effective_kappa", "report.json")])
    def test_unwritable_output_names_out(self, name, output, tmp_path, capsys):
        # a directory where the run writes an output file
        out = tmp_path / "out"
        (out / output).mkdir(parents=True)
        assert cli.main(["run", name, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario error: --out: ") and output in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_tol_flag_must_be_finite_and_nonnegative(self, tol, tmp_path, capsys):
        assert cli.run("effective_kappa", out_dir=str(tmp_path / "out"), tol=tol) == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario error: --tol: expected a finite number >= 0")
        assert not (tmp_path / "out" / "report.json").exists()

    def test_undefined_order_ratio_fails(self, tmp_path, capsys):
        # a field-free particle is integrated exactly at every step size, so
        # the fine-grid error is 0 and the ratio 0/0
        payload = cli.load_scenario("integrator_order").to_dict()
        payload["potential"]["coefficients"] = {}
        path = write_scenario(tmp_path, "free.scn", payload)
        assert cli.run(path, out_dir=str(tmp_path / "out")) == 1
        out = capsys.readouterr()
        assert "FAIL integrator-order-ratio: computed=undefined" in out.out
        assert "dt-halving ratio is undefined" in out.out
        assert "Traceback" not in out.err
        report = strict_json(tmp_path / "out" / "report.json")
        check = report["checks"][-1]
        assert check["name"] == "integrator-order-ratio"
        assert check["computed"] is None and check["passed"] is False
        assert "undefined" in check["undefined"]
        assert report["results"]["dt_halving_ratio"] is None

    @pytest.mark.parametrize("name, path, check", [
        # inf - inf: the deviation is NaN, which Python's max would drop
        ("spacetime_eom", ("potential", "strength"), "eom-closed-form"),
        # an infinite deviation
        ("spacetime_eom", ("particles", 0, "mass"), "eom-closed-form"),
        ("spacetime_decoupling", ("initial", "p", 0, 0), "decoupling"),
        ("spacetime_decoupling", ("potential", "g", 0), "decoupling"),
    ])
    def test_non_finite_check_fails_as_undefined(self, name, path, check, tmp_path, capsys):
        scenario = write_scenario(tmp_path, "huge.scn", _mutated(name, path, 1e308))
        assert cli.run(scenario, out_dir=str(tmp_path / "out")) == 1
        assert f"FAIL {check}: computed=undefined" in capsys.readouterr().out
        report = strict_json(tmp_path / "out" / "report.json")
        (entry,) = [c for c in report["checks"] if c["name"] == check]
        assert entry["computed"] is None and entry["passed"] is False
        assert "not a finite number" in entry["undefined"]
        if check == "decoupling":
            assert report["results"]["decoupling"] is None

    def test_overflowing_com_momentum_leaves_identities_undefined(self, tmp_path, capsys):
        # sum_a p_a overflows: the identities are undefined, with no warning
        payload = _mutated("spacetime_com_brackets", ("initial", "p"), [[1e308, 0, 0]] * 3)
        path = write_scenario(tmp_path, "huge.scn", payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.run(path, out_dir=str(tmp_path / "out")) == 1
        out = capsys.readouterr()
        assert "FAIL com-transform-identities: computed=undefined" in out.out
        assert "Traceback" not in out.err
        report = strict_json(tmp_path / "out" / "report.json")
        (check,) = [c for c in report["checks"] if c["name"] == "com-transform-identities"]
        assert check["computed"] is None and "not a finite number" in check["undefined"]

    def test_unallocatable_grid_exits_3(self, tmp_path, capsys):
        # 1e16 steps: numpy can size the trajectory, but its 71 PiB exceed any
        # address space, so the allocation fails at once and touches no memory
        payload = _mutated("integrator_order", ("grid", "t_end"), 1e13)
        payload["grid"]["dt"] = 1e-3
        scenario = write_scenario(tmp_path, "long.scn", payload)
        assert cli.run(scenario, out_dir=str(tmp_path / "out")) == 3
        err = capsys.readouterr().err
        assert err.startswith("run failed: grid.t_end: a trajectory of 10000000000000001 grid")
        assert "Traceback" not in err

    def test_overflowing_energy_leaves_drift_null(self, tmp_path, capsys):
        payload = cli.load_scenario("body_composition").to_dict()
        payload["initial"]["p"][0][1] = 1e308
        path = write_scenario(tmp_path, "huge.scn", payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.run(path, out_dir=str(tmp_path / "out")) == 0
        report = strict_json(tmp_path / "out" / "report.json")
        assert report["results"]["energy_drift"] is None

        # a configured drift check fails and names the first non-finite sample
        payload["options"]["energy_drift_tol"] = 1.0
        path = write_scenario(tmp_path, "huge_checked.scn", payload)
        assert cli.run(path, out_dir=str(tmp_path / "checked")) == 1
        assert "FAIL energy-drift: computed=undefined" in capsys.readouterr().out
        report = strict_json(tmp_path / "checked" / "report.json")
        (check,) = [c for c in report["checks"] if c["name"] == "energy-drift"]
        assert check["computed"] is None and check["passed"] is False
        assert check["undefined"] == "the energy is not finite at sample 0 (t = 0)"

    @pytest.mark.parametrize("name, integrations", [
        # the body and its partition run as one stacked system
        ("body_composition", 1),
        # the order check reuses the main run for its coarsest grid
        ("integrator_order", 3),
    ])
    def test_integrations_per_run(self, name, integrations, tmp_path, monkeypatch):
        calls = count_kernel_calls(monkeypatch)
        assert cli.run(name, out_dir=str(tmp_path / "out")) == 0
        assert len(calls) == integrations

    @pytest.mark.parametrize("name, scaling_mode", [
        *[pytest.param(name, None, id=name) for name in cli.BUILTIN_SCENARIOS],
        # no bundled scenario runs both modes
        pytest.param("spacetime_wep", "both", id="spacetime_wep-both"),
    ])
    def test_one_build_per_object(self, name, scaling_mode, tmp_path, monkeypatch):
        # the plan builds each object the run integrates or reports, or the
        # system caches it, once; the runner builds none of them again
        if scaling_mode is not None:
            name = write_scenario(tmp_path, "both.scn",
                                  _mutated(name, ("options", "scaling_mode"), scaling_mode))
        calls = {}
        for fn in ("rescale", "_candidate_effective", "satisfies_mass_scaling", "wep_runs"):
            calls[fn] = []
            for module in (cli, dynamics, composition):
                if hasattr(module, fn):
                    monkeypatch.setattr(module, fn, _counted(getattr(module, fn), calls[fn]))
        loaded = []
        load = cli.load_scenario

        def load_and_keep(path):
            scenario = load(path)
            loaded.append((scenario, copy.deepcopy(scenario.settings)))
            return scenario

        monkeypatch.setattr(cli, "load_scenario", load_and_keep)
        assert cli.run(name, out_dir=str(tmp_path / "out")) == 0

        ((scenario, as_loaded),) = loaded
        settings = scenario.settings
        # the options as read, with no private key a plan or a run added
        assert settings == as_loaded
        assert not any(key.startswith("_") for key in settings)
        wep = scenario.task == "wep-test"
        # wep-test lowers its mass-scaled runs from the template, with no rescale
        assert len(calls["rescale"]) == len(settings.get("compare_partition", []))
        # one wep_runs call per mode: two for both
        modes = {"both": ["fixed", "mass_scaled"]}.get(settings.get("scaling_mode"),
                                                      [settings.get("scaling_mode")])
        assert [args[1:] for args in calls["wep_runs"]] == (
            [(settings["masses"], mode) for mode in modes] if wep else [])
        # the system whose effective parameters the task reads, and
        # simulate's partition body: one build each
        systems = (scenario.task == "com-brackets" or scenario.body_mode) + (
            "compare_partition" in settings)
        for fn in ("_candidate_effective", "satisfies_mass_scaling"):
            assert len(calls[fn]) == len({id(args[0]) for args in calls[fn]}) == systems

    @pytest.mark.parametrize("name, check", [
        ("body_composition", "partition-independence"),
        ("spacetime_wep", "wep-recovery-deviation"),
    ])
    def test_plan_holds_nothing_dt_changes(self, name, check, tmp_path):
        out = tmp_path / "out"
        assert cli.run(name, out_dir=str(out), dt=0.002) == 0
        report = strict_json(out / "report.json")
        assert [c["passed"] for c in report["checks"] if c["name"] == check] == [True]
        csvs = ["trajectory.csv", "trajectory_partition.csv"] if name == "body_composition" else []
        # 500 steps of dt = 0.002 from t0 = 0 to t_end = 1: a header and 501 samples
        assert [len((out / csv).read_text().splitlines()) for csv in csvs] == [502] * len(csvs)

    @pytest.mark.parametrize("name, scaling_mode", [
        ("spacetime_wep", None), ("spacetime_wep_violation", None), ("spacetime_wep", "both"),
    ])
    def test_wep_report_is_the_library_report(self, name, scaling_mode, tmp_path):
        # the CLI reports each mode as wep_deviation computes it, bit for bit
        if scaling_mode is not None:
            name = write_scenario(tmp_path, "both.scn",
                                  _mutated(name, ("options", "scaling_mode"), scaling_mode))
        assert cli.run(name, out_dir=str(tmp_path / "out")) == 0
        modes = strict_json(tmp_path / "out" / "report.json")["results"]["modes"]
        scenario = cli.load_scenario(name)
        settings = scenario.settings
        asked = settings["scaling_mode"]
        assert list(modes) == (["fixed", "mass_scaled"] if asked == "both" else [asked])
        for mode, got in modes.items():
            report = lp.wep_deviation(scenario, settings["masses"], mode)
            expected = {
                "pairs": [dataclasses.asdict(p) for p in report.pairs],
                "max_position_deviation": report.max_position_deviation,
                "max_reduced_momentum_deviation": report.max_reduced_momentum_deviation,
            }
            assert got == json.loads(json.dumps(expected))

    def test_undefined_effective_kappa_fails(self, tmp_path, capsys):
        # unscaled SpaceSpace has no effective algebra to read kappa_tilde from
        payload = dict(COM, algebra={"variant": "space_space", "kappa_tilde": 2.0,
                                     "k": 1, "l": 2, "gamma": 3},
                       particles=[{"mass": 1.0}, {"mass": 3.0, "kappa_tilde": 5.0}],
                       initial={"x": [[0, 0, 0], [1, 0, 0]], "p": [[0, 0, 0]] * 2},
                       options={"expect_kappa_eff": 7.5})
        path = write_scenario(tmp_path, "ss.scn", payload)
        assert cli.run(path, out_dir=str(tmp_path / "out")) == 1
        assert "FAIL effective-kappa: computed=undefined" in capsys.readouterr().out
        check = strict_json(tmp_path / "out" / "report.json")["checks"][-1]
        assert check["name"] == "effective-kappa" and check["computed"] is None

    def test_tol_flag_zero_means_exact(self, tmp_path):
        assert cli.run("effective_kappa", out_dir=str(tmp_path / "out"), tol=0.0) in (0, 1)
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        tolerances = {c["name"]: c["tolerance"] for c in report["checks"]}
        assert tolerances["com-bracket-oracle"] == 0.0
        assert tolerances["effective-kappa"] == 0.0

    @pytest.mark.parametrize("variant", list(SCALED_BODIES))
    def test_partition_independence_of_scaled_bodies(self, variant, tmp_path):
        algebra, heavier = SCALED_BODIES[variant]
        payload = dict(
            SIMULATE,
            algebra=algebra,
            particles=[{"mass": 1.0}, dict(heavier, mass=3.0)],
            initial={"x": [[0.0, 0.0, 0.0], [1.0, 0.5, -0.5]],
                     "p": [[0.2, 0.0, 0.1], [0.0, -0.1, 0.3]]},
            grid={"t0": 0.0, "t_end": 0.5, "dt": 0.01},
            body_mode=True,
            neglect_relative_motion=True,
            options={"compare_partition": [2.0, 2.0]},
        )
        path = write_scenario(tmp_path, "body.scn", payload)
        assert cli.run(path, out_dir=str(tmp_path / "out")) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        (check,) = [c for c in report["checks"] if c["name"] == "partition-independence"]
        assert check["tolerance"] == 1e-10
        assert check["passed"] is True

    @pytest.mark.parametrize("total, partition, status", [
        # one ulp off a heavy body's mass (1.5e-11): the same mass, accepted
        (124767.40552427132, [50906.659907353045, 124767.40552427132 - 50906.659907353045], 0),
        # a light body's mass changed a hundredfold, within an absolute 1e-12: refused
        (1e-15, [1e-13, 1e-15], 2),
    ])
    def test_partition_mass_relative_to_total(self, total, partition, status, tmp_path, capsys):
        # an absolute 1e-12 decides each case the other way
        assert (abs(sum(partition) - total) > 1e-12) is (status == 0)
        payload = dict(
            BODY,
            algebra=dict(BODY["algebra"], kappa=total),
            particles=[{"mass": 0.5 * total}, {"mass": 0.5 * total}],
            grid={"t0": 0.0, "t_end": 0.01, "dt": 0.001},
            options={"compare_partition": partition},
        )
        path = write_scenario(tmp_path, "body.scn", payload)
        assert cli.run(path, out_dir=str(tmp_path / "out")) == status
        if status:
            assert capsys.readouterr().err == ("scenario error: options.compare_partition: "
                                               "partition must preserve the total mass\n")
        else:
            report = json.loads((tmp_path / "out" / "report.json").read_text())
            assert [c["passed"] for c in report["checks"]
                    if c["name"] == "partition-independence"] == [True]

    def test_expect_kappa_eff_reads_the_one_scalar_parameter(self, tmp_path):
        payload = dict(
            COM,
            algebra={"variant": "space_space", "kappa_tilde": 1.5, "k": 1, "l": 2, "gamma": 3},
            particles=[{"mass": 1.0}, {"mass": 2.0, "kappa_tilde": 3.0}],
            initial={"x": [[0, 0, 0], [1, 0, 0]], "p": [[0, 0, 0], [0, 0, 0]]},
            options={"expect_kappa_eff": 4.5},
        )
        path = write_scenario(tmp_path, "kt.scn", payload)
        assert cli.run(path, out_dir=str(tmp_path / "out")) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        (check,) = [c for c in report["checks"] if c["name"] == "effective-kappa"]
        assert check["computed"] == pytest.approx(4.5, rel=1e-14)

    def test_check_wall_time_covers_the_work_before_it(self):
        runner = cli._CheckRunner()
        time.sleep(0.02)
        runner.add("slow", 0.0, tolerance=0.0)
        runner.add("fast", 0.0, tolerance=0.0)
        assert runner.checks[0].wall_time >= 0.02
        assert runner.checks[1].wall_time < runner.checks[0].wall_time

    def test_wall_time_kept_out_of_report(self, tmp_path):
        assert cli.run("miao1_jacobi", out_dir=str(tmp_path / "out")) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        for check in report["checks"]:
            assert "wall_time" not in check


def _finite_or_null(value):
    """``value`` with every non-finite float value in it as None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(member) for key, member in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(member) for member in value]
    return value


SINGULAR_OWN_STATE = {
    "schema_version": 1,
    "task": "check-algebra",
    "algebra": {"variant": "miao_type_i", "kappa": 1.0, "kappa_tilde": 2.0,
                "k": 1, "l": 2, "gamma": 3},
    "particles": [{"mass": 1.0}, {"mass": 2.0}],
    "initial": {"x": [[1, 1, 1], [2, 2, 2]], "p": [[0, 0, 0], [0, 0, 0]]},
    "grid": {"t0": 0.0, "t_end": 1.0, "dt": 0.1},
    "potential": {"variant": "newtonian", "strength": 1.0, "center": [2, 2, 2]},
}


class TestCheckAlgebra:
    def test_no_samples_checks_the_own_state(self, tmp_path):
        path = write_scenario(tmp_path, "own.scn",
                              _mutated("spacetime_eom", ("options", "samples"), 0))
        assert cli.run(path, out_dir=str(tmp_path / "out")) == 0
        report = strict_json(tmp_path / "out" / "report.json")
        assert report["results"] == {"sampled_states": 1}
        assert [c["name"] for c in report["checks"]] == [
            "antisymmetry", "jacobi-residual", "generalized-encoding-roundtrip", "eom-closed-form"]

    def test_sample_states_are_the_uniform_draws_state_by_state(self):
        scenario = cli.load_scenario("spacetime_com_brackets")  # three particles
        x, p, t = cli._sample_states(scenario, 5)
        assert x.shape == p.shape == (6, 3, 3) and t.shape == (6,)
        own = scenario.initial
        assert np.array_equal(x[0], own.x) and np.array_equal(p[0], own.p) and t[0] == own.t
        rng = cli._scenario_rng(scenario)
        for s in range(1, 6):
            assert x[s].tobytes() == rng.uniform(1.0, 3.0, (3, 3)).tobytes()
            assert p[s].tobytes() == rng.uniform(-3.0, 3.0, (3, 3)).tobytes()
            assert t[s] == rng.uniform(0.0, 2.0)

    def test_singular_own_state_exits_3_naming_its_particle(self, tmp_path, capsys):
        path = write_scenario(tmp_path, "singular.scn", SINGULAR_OWN_STATE)
        scenario = cli.load_scenario(path)
        with pytest.raises(lp.PotentialSingularityError) as alone:
            lp.eom_rhs(scenario, scenario.initial)
        assert cli.run(path, out_dir=str(tmp_path / "out")) == 3
        assert capsys.readouterr().err == f"numerical failure: {alone.value}\n"
        assert str(alone.value).endswith("for point 1")


class TestReportText:
    """``report.json`` is written by ``cli._json_text``, which must give the
    bytes of ``json.dumps(value, sort_keys=True, indent=2)`` with every
    non-finite float value written as null."""

    @pytest.mark.parametrize("value", [
        {}, [], (), {"a": {}, "b": [], "c": ()}, [[], {}, [[]]], {"a": [[{}]]},
        {"é": "ü\n\"\\\t\x00\u2028", "\x7f": "😀", "": ""}, ["naïve", {"clé": ["ß"]}],
        [-0.0, 1e-320, 1e16, 0.1, 5e-324, 1.7976931348623157e308],
        {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf")},
        {"a": [1.0, float("-inf"), 2], "b": {"c": "x"}},
        {"x": {1: 2, -3: {2: "a", 10: [None], 9: {}}}, "y": {2.5: [1], -0.0: 0}},
        {"a": {True: [1], False: 0}, "b": {None: [2]}},
        (1, (2, 3), None, True, False, [(), ("t",)]),
        [{"b": 1, "a": [2, {"d": (), "c": [3.5]}]}],
        5, -7, 2.5, float("nan"), "text", "ünï", None, True, False,
    ], ids=repr)
    def test_bytes_equal_json_dumps(self, value):
        assert cli._json_text(value) == json.dumps(
            _finite_or_null(value), sort_keys=True, indent=2)

    @pytest.mark.parametrize("value", [
        {"a": {(1, 2): [1]}},  # a key json refuses
        {"a": [object()]},  # a value json cannot write
        {"a": {1: [1], "b": [2]}},  # keys json cannot sort
    ], ids=repr)
    def test_refuses_what_json_refuses(self, value):
        with pytest.raises(TypeError) as expected:
            json.dumps(value, sort_keys=True, indent=2)
        with pytest.raises(TypeError) as got:
            cli._json_text(value)
        assert str(got.value) == str(expected.value)


class TestListBuiltin:
    def test_catalog_is_deterministic(self):
        assert cli.list_builtin() == cli.list_builtin()

    def test_expected_entries_present(self):
        names = [name for name, _ in cli.list_builtin()]
        for expected in ("spacetime_wep", "spacespace_closure", "body_composition",
                         "miao1_jacobi"):
            assert expected in names

    def test_every_entry_names_its_claim(self):
        for _, description in cli.list_builtin():
            assert "criterion" in description

    def test_main_list_builtin(self, capsys):
        assert cli.main(["list-builtin"]) == 0
        out = capsys.readouterr().out
        assert "spacetime_wep" in out

    def test_main_run_builtin(self, tmp_path, capsys):
        assert cli.main(["run", "effective_kappa", "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "PASS effective-kappa" in out


class TestLibraryImports:
    def test_cli_imports_only_four_private_names(self):
        # the oracle tables are check-algebra's independent side, the two
        # validators check a field where it is read, and the one writer of
        # output files writes report.json; every other name the CLI needs
        # is public, so a library caller can do what the CLI does
        tree = ast.parse(Path(cli.__file__).read_text())
        private = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("liephase")
            ):
                private |= {alias.name for alias in node.names if alias.name.startswith("_")}
        assert private == {"_tables", "_checked_parameter", "_grid_steps", "_rewrite"}


class TestSweepOutput:
    def test_writer_rows(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sweep_output, "SIZES", {100: "tiny", 1_000: "small"})
        monkeypatch.setattr(sweep_output, "CALLS", 2)
        out = tmp_path / "record.json"
        assert sweep_output.main(["--label", "a", "--repeats", "1", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert [(row["bytes"], row["state"]) for row in rows] == [
            (100, "overwrite"), (100, "fresh"), (1_000, "overwrite"), (1_000, "fresh")]
        assert all(row["identical"] and row["open_w_us"] > 0 and row["in_place_us"] > 0
                   for row in rows)

    def test_whole_pass_against_the_checkout_itself(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sweep_output, "SIZES", {100: "tiny"})
        monkeypatch.setattr(sweep_output, "CALLS", 1)
        out = tmp_path / "record.json"
        assert sweep_output.main(["--label", "a", "--repeats", "2", "--out", str(out),
                                  "--against", str(sweep_record.ROOT)]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert {row["against"] for row in rows} == {sweep_record.ROOT.name}
        [whole] = [row for row in rows if row["case"] == "cli_bundled_pass"]
        assert whole["scenarios"] == len(cli.list_builtin()) and whole["rounds"] == 2
        assert whole["identical"] and whole["exit_statuses_agree"]
        assert whole["this_min_s"] > 0 and whole["against_min_s"] > 0
        assert whole["this_won"] + whole["against_won"] <= 1

    def test_second_package_is_distinct(self):
        against = sweep_record.load_against(sweep_record.ROOT)
        assert against.__name__ == "liephase_against" and against.dynamics is not dynamics
        assert against.Trajectory is not lp.Trajectory

    def test_second_package_reads_its_own_scenarios(self, tmp_path):
        shutil.copytree(sweep_record.ROOT / "src", tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        edited = tmp_path / "src" / "liephase" / "scenarios" / "spacetime_eom.scn"
        edited.write_text(edited.read_text().replace('"samples": 25', '"samples": 3'))
        try:
            their = importlib.import_module(sweep_record.load_against(tmp_path).__name__ + ".cli")
            assert their.load_scenario("spacetime_eom").settings["samples"] == 3
        finally:  # the copy goes with tmp_path
            for name in [m for m in sys.modules if m.startswith("liephase_against")]:
                del sys.modules[name]
        assert cli.load_scenario("spacetime_eom").settings["samples"] == 25

    @pytest.mark.parametrize("rows, message", [
        (lambda repeats: iter(()), "this sweep times one checkout only"),
        (sweep_output.rows, "no src/liephase package under"),
    ])
    def test_against_refused(self, rows, message, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            sweep_record.main(["--label", "a", "--against", str(tmp_path)],
                              rows, "what", str(tmp_path / "out.json"), repeats=1)
        assert exit_info.value.code == 2
        assert f"--against: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()


class TestSweepCheckAlgebra:
    def test_rows(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sweep_check_algebra, "SAMPLES", (0, 3))
        out = tmp_path / "record.json"
        assert sweep_check_algebra.main(["--label", "a", "--repeats", "1", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert [(row["scenario"], row["samples"]) for row in rows] == [
            ("spacetime_eom", 0), ("spacetime_eom", 3), ("miao1_jacobi", 0), ("miao1_jacobi", 3)]
        assert all(row["min_s"] > 0 for row in rows)

    def test_against_the_checkout_itself(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sweep_check_algebra, "SCENARIOS", ("spacetime_eom",))
        monkeypatch.setattr(sweep_check_algebra, "SAMPLES", (2,))
        out = tmp_path / "record.json"
        assert sweep_check_algebra.main(["--label", "a", "--repeats", "2", "--out", str(out),
                                         "--against", str(sweep_record.ROOT)]) == 0
        [row] = json.loads(out.read_text())["rows"]
        assert row["against"] == sweep_record.ROOT.name and row["rounds"] == 2
        assert row["checks_agree"] and row["this_min_s"] > 0 and row["against_min_s"] > 0
        assert row["this_won"] + row["against_won"] <= 1
