"""Scenario loading, task dispatch, exit codes and report determinism."""

import json
import time
import warnings

import numpy as np
import pytest

import liephase as lp
from liephase import cli

from helpers import count_kernel_calls, strict_json, tensor_with


def write_scenario(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
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
            # 1e20 steps: numpy refuses to size the trajectory
            ("grid.t_end", dict(SIMULATE, grid={"t0": 0.0, "t_end": 1e17, "dt": 1e-3})),
            # true is not the integer 1
            ("schema_version: expected an integer >= 0, got True",
             dict(MINIMAL, schema_version=True)),
            ("task: expected str, got int", dict(MINIMAL, task=3)),
        ],
    )
    def test_bad_values_exit_2_naming_field(self, field, payload, tmp_path, capsys):
        path = write_scenario(tmp_path, "bad.scn", payload)
        assert cli.run(path, out_dir=str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"scenario error: {field}")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_potential_roundtrip(self):
        for pot in (
            lp.Uniform(g=[0, 1, 0]),
            lp.Newtonian(strength=2.0, center=[1, 0, 0]),
            lp.Polynomial(coefficients={(2, 0, 0): 0.5}),
        ):
            redone = cli.potential_from_dict(cli.potential_to_dict(pot))
            assert cli.potential_to_dict(redone) == cli.potential_to_dict(pot)

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
