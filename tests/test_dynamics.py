"""Equations of motion, integration, WEP sweeps and composite bodies."""

import dataclasses
import io

import numpy as np
import pytest

import liephase as lp
from liephase import cli, dynamics
from liephase.algebra import rescale

from helpers import (
    VARIANT_NAMES,
    count_kernel_calls,
    decoupling_check_closures,
    integrate_flat_reference,
    polynomial_gradient_loop,
    polynomial_value_loop,
    random_polynomial,
    random_spec,
    random_state,
    random_system,
    scaled_system,
    write_csv_cells,
)

G_FIELD = lp.Uniform(g=[0.0, 1.0, 0.0])
HARMONIC = lp.Polynomial(coefficients={(2, 0, 0): 0.5, (0, 2, 0): 0.5, (0, 0, 2): 0.5})


def one_particle(spec, mass=1.0, x=(0, 0, 0), p=(0, 0, 0), t_end=1.0, dt=1e-3,
                 potential=G_FIELD, t0=0.0, **kw):
    system = lp.ParticleSystem.from_pairs([mass], [spec])
    # a non-finite t0 is refused before the initial time is compared with it
    initial = lp.PhaseState(x=[list(x)], p=[list(p)], t=t0 if np.isfinite(t0) else 0.0)
    return lp.GravityScenario(
        system=system, potential=potential, initial=initial,
        t0=t0, t_end=t_end, dt=dt, **kw
    )


class TestPotentials:
    def test_uniform_value_and_gradient(self):
        pot = lp.Uniform(g=[0, -9.8, 0])
        assert pot.value([1, 2, 3]) == pytest.approx(-19.6)
        assert np.array_equal(pot.gradient([5, 5, 5]), [0, -9.8, 0])

    def test_newtonian_gradient_matches_finite_difference(self):
        pot = lp.Newtonian(strength=2.5, center=[1, 0, -1])
        x = np.array([2.0, 1.5, 0.5])
        grad = pot.gradient(x)
        eps = 1e-6
        for axis in range(3):
            dx = np.zeros(3)
            dx[axis] = eps
            fd = (pot.value(x + dx) - pot.value(x - dx)) / (2 * eps)
            assert grad[axis] == pytest.approx(fd, rel=1e-8)

    def test_newtonian_singular_region_guarded(self):
        pot = lp.Newtonian(strength=1.0)
        with pytest.raises(lp.PotentialSingularityError):
            pot.value([1e-10, 0, 0])

    def test_polynomial_value_and_gradient(self):
        pot = lp.Polynomial(coefficients={(2, 0, 0): 0.5, (1, 1, 0): 2.0, (0, 0, 3): -1.0})
        x = np.array([2.0, 3.0, 1.0])
        assert pot.value(x) == pytest.approx(0.5 * 4 + 2.0 * 6 - 1.0)
        assert np.allclose(pot.gradient(x), [2.0 + 6.0, 4.0, -3.0])

    def test_polynomial_degree_capped(self):
        with pytest.raises(ValueError, match="degree"):
            lp.Polynomial(coefficients={(3, 2, 0): 1.0})

    @pytest.mark.parametrize("make, message", [
        (lambda: lp.Uniform(g=[0.0, np.inf, 0.0]), r"^g\[1\]: must be finite"),
        (lambda: lp.Uniform(g=[0.0, "x", 0.0]), r"^g: could not convert"),
        (lambda: lp.Newtonian(strength=1.0, center=[0.0, 0.0]),
         r"^center: must have shape \(3,\)"),
        # finite, but 2 * 1e308, its weight in the gradient, is not
        (lambda: lp.Polynomial(coefficients={(2, 0, 0): 1e308}), "as must its derivative"),
    ])
    def test_bad_field_parameter_named(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_polynomial_stored_in_canonical_order(self):
        terms = [((2, 0, 0), 0.5), ((0, 1, 1), -1.0), ((0, 0, 4), 0.25)]
        a = lp.Polynomial(coefficients=dict(terms))
        b = lp.Polynomial(coefficients=dict(reversed(terms)))
        assert a == b
        assert repr(a) == repr(b)
        assert list(a.coefficients) == sorted(a.coefficients)
        fingerprints = {
            lp.integrate(one_particle(lp.Canonical(), x=(1, 0, 0), t_end=0.01, dt=0.005,
                                      potential=pot)).metadata["scenario"]
            for pot in (a, b)
        }
        assert len(fingerprints) == 1


# one of each potential, off-centre and with mixed monomials, so that every
# axis and factor order is exercised
POTENTIALS = {
    "uniform": lp.Uniform(g=[0.3, -1.2, 0.7]),
    "newtonian": lp.Newtonian(strength=1.7, center=[0.5, -0.25, 1.0]),
    "polynomial": lp.Polynomial(coefficients=random_polynomial(np.random.default_rng(31), 9)),
    "empty-polynomial": lp.Polynomial(coefficients={}),
}


class TestVectorisedPotentials:
    """Batched evaluation against point-by-point evaluation and independent oracles."""

    @pytest.mark.parametrize("name", list(POTENTIALS))
    def test_batched_gradient_equals_rows(self, name):
        pot = POTENTIALS[name]
        x = np.random.default_rng(32).uniform(-3.0, 3.0, (17, 3))
        rows = np.array([pot.gradient(row) for row in x])
        assert pot.gradient(x).shape == (17, 3)
        assert np.array_equal(pot.gradient(x), rows)
        # a single row, the one-particle integration's input
        assert np.array_equal(pot.gradient(x[:1]), rows[:1])

    @pytest.mark.parametrize("name", list(POTENTIALS))
    def test_gradient_matches_central_differences(self, name):
        pot = POTENTIALS[name]
        eps = 1e-6
        for x in np.random.default_rng(33).uniform(-2.0, 2.0, (10, 3)):
            grad = pot.gradient(x)
            for axis in range(3):
                dx = np.zeros(3)
                dx[axis] = eps
                fd = (pot.value(x + dx) - pot.value(x - dx)) / (2 * eps)
                assert abs(grad[axis] - fd) <= 1e-6 * max(1.0, abs(fd)), (name, x, axis)

    @pytest.mark.parametrize("name", list(POTENTIALS))
    def test_value_on_trajectory_stack_equals_points(self, name):
        pot = POTENTIALS[name]
        x = np.random.default_rng(34).uniform(-3.0, 3.0, (5, 4, 3))
        values = pot.value(x)
        assert values.shape == (5, 4)
        assert all(values[t, a] == pot.value(x[t, a]) for t in range(5) for a in range(4))
        assert isinstance(pot.value(x[0, 0]), float)
        assert pot.gradient(x).shape == (5, 4, 3)

    def test_polynomial_matches_monomial_loop(self):
        rng = np.random.default_rng(35)
        for n_terms in (1, 3, 7, 20):
            pot = lp.Polynomial(coefficients=random_polynomial(rng, n_terms))
            x = rng.uniform(-3.0, 3.0, (25, 3))
            loop_grad = [polynomial_gradient_loop(pot.coefficients, row) for row in x]
            loop_value = [polynomial_value_loop(pot.coefficients, row) for row in x]
            # same products in the same order: bit-equal to the loop
            assert np.array_equal(pot.gradient(x), loop_grad)
            assert np.array_equal(pot.value(x), loop_value)

    def test_newtonian_batch_singularity_names_point(self):
        pot = lp.Newtonian(strength=1.0)
        x = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        with pytest.raises(lp.PotentialSingularityError, match="point 1") as info:
            pot.gradient(x)
        assert info.value.index == 1
        with pytest.raises(lp.PotentialSingularityError) as info:
            pot.value(x[1])
        assert info.value.index is None

    def test_newtonian_nan_point_is_not_a_singularity(self):
        # a non-finite point is for the integrator's finiteness guard to report
        pot = lp.Newtonian(strength=1.0)
        grad = pot.gradient(np.array([[np.nan, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        assert np.isnan(grad[0]).all() and np.isfinite(grad[1]).all()

    @pytest.mark.parametrize("name", ["uniform", "newtonian", "polynomial"])
    def test_trajectory_energies_match_per_state_sum(self, name):
        pot = POTENTIALS[name]
        rng = np.random.default_rng(36)
        masses = rng.uniform(0.5, 3.0, 3)
        system = lp.ParticleSystem.from_pairs(masses.tolist(), [lp.Canonical()] * 3)
        states = rng.uniform(1.0, 2.0, (6, 18))
        energies = dynamics._energies(system.masses, pot, states)
        expected = []
        for z in states:
            total = 0.0
            for a, m in enumerate(masses):
                x, p = z[6 * a : 6 * a + 3], z[6 * a + 3 : 6 * a + 6]
                total += p @ p / (2 * m)
                total += m * pot.value(x)
            expected.append(total)
        assert np.array_equal(energies, expected)
        assert lp.hamiltonian(system, pot, lp.PhaseState.from_flat(states[2], 0.0)) == expected[2]


class TestEomRhs:
    def test_canonical_uniform_field(self):
        scen = one_particle(lp.Canonical(), potential=lp.Uniform(g=[0, -9.8, 0]))
        state = lp.PhaseState(x=[[0, 0, 0]], p=[[1, 0, 0]], t=0.0)
        xdot, pdot = lp.eom_rhs(scen, state)
        assert np.allclose(xdot[0], [1, 0, 0], atol=0)
        assert np.allclose(pdot[0], [0, 9.8, 0], atol=0)

    def test_spacetime_mass_dependent_velocity_term(self):
        scen = one_particle(lp.SpaceTime(kappa=1.0, rho=1, tau=2), mass=2.0)
        state = lp.PhaseState(x=[[0, 0, 0]], p=[[0, 0, 0]], t=1.0)
        xdot, _ = lp.eom_rhs(scen, state)
        assert xdot[0][0] == pytest.approx(2.0, abs=0)  # t m g / kappa

    def test_zero_tensors_reduce_to_canonical(self):
        scen_g = one_particle(lp.Generalized())
        scen_c = one_particle(lp.Canonical())
        state = random_state(np.random.default_rng(0), 1, box=3.0)
        xg, pg = lp.eom_rhs(scen_g, state)
        xc, pc = lp.eom_rhs(scen_c, state)
        assert np.array_equal(xg, xc)
        assert np.array_equal(pg, pc)

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_matches_closed_form(self, variant):
        rng = np.random.default_rng(1)
        pot = lp.Newtonian(strength=2.0)
        for _ in range(40):
            spec = random_spec(rng, variant)
            mass = float(rng.uniform(0.5, 3.0))
            scen = one_particle(spec, mass=mass, x=(2, 2, 2), potential=pot)
            state = lp.PhaseState(
                x=rng.uniform(1, 3, (1, 3)), p=rng.uniform(-3, 3, (1, 3)),
                t=float(rng.uniform(0, 2)),
            )
            xdot, pdot = lp.eom_rhs(scen, state)
            cx, cp = lp.closed_form_rhs(spec, mass, pot, state.x[0], state.p[0], state.t)
            assert np.max(np.abs(xdot[0] - cx)) <= 1e-12
            assert np.max(np.abs(pdot[0] - cp)) <= 1e-12

    def test_state_size_checked(self):
        scen = one_particle(lp.Canonical())
        with pytest.raises(ValueError, match="match"):
            lp.eom_rhs(scen, random_state(np.random.default_rng(2), 2))


class TestIntegrate:
    def test_canonical_parabola_exact(self):
        scen = one_particle(lp.Canonical(), p=(1, 0, 0))
        traj = lp.integrate(scen)
        # V = g . X with g = (0, 1, 0): Pdot = -m g, X(t) = X0 + P0 t - g t^2/2
        t = traj.times
        exact_x = np.stack([t, -0.5 * t**2, np.zeros_like(t)], axis=1)
        assert np.max(np.abs(traj.positions() - exact_x)) <= 1e-10

    def test_spacetime_quadratic_drift_law(self):
        # X1(t) = X1(0) + m g t^2 / (2 kappa) for P(0) = 0, rho=1, tau=2
        scen = one_particle(lp.SpaceTime(kappa=2.0, rho=1, tau=2), mass=3.0)
        traj = lp.integrate(scen)
        t = traj.times
        assert np.max(np.abs(traj.positions()[:, 0] - 3.0 * t**2 / 4.0)) <= 1e-10
        # Pdot_1 = 0: the deformation enters the velocity only
        assert np.max(np.abs(traj.momenta()[:, 0])) == 0.0

    def test_free_motion_preserves_momentum(self):
        pot = lp.Uniform(g=[0, 0, 0])
        spec = lp.MiaoTypeI(kappa=1.0, kappa_tilde=2.0)
        scen = one_particle(spec, x=(1, 2, 3), p=(0.5, -1, 2), potential=pot)
        traj = lp.integrate(scen)
        assert np.max(np.abs(traj.momenta() - traj.momenta()[0])) == 0.0

    def test_sample_count_and_uniform_grid(self):
        scen = one_particle(lp.Canonical(), t_end=1.0, dt=1e-3)
        traj = lp.integrate(scen)
        assert len(traj.times) == 1001
        assert np.allclose(np.diff(traj.times), 1e-3, atol=1e-15)
        assert traj.metadata["integrator"] == "rk4"
        assert traj.metadata["dt"] == 1e-3

    def test_deterministic_rerun(self):
        scen = one_particle(lp.SpaceTime(kappa=1.0), p=(0.3, 0.1, 0))
        a, b = lp.integrate(scen), lp.integrate(scen)
        assert np.array_equal(a.states, b.states)
        assert a.metadata == b.metadata

    def test_singularity_reported_with_step(self):
        pot = lp.Newtonian(strength=1.0)
        system = lp.ParticleSystem.from_pairs([1.0], [lp.Canonical()])
        initial = lp.PhaseState(x=[[1e-10, 0, 0]], p=[[0, 0, 0]], t=0.0)
        scen = lp.GravityScenario(system=system, potential=pot, initial=initial,
                                  t0=0.0, t_end=1.0, dt=1e-3)
        with pytest.raises(lp.PotentialSingularityError, match="step 0"):
            lp.integrate(scen)

    def test_singularity_names_step_and_particle(self):
        pot = lp.Newtonian(strength=1.0)
        system = lp.ParticleSystem.from_pairs([1.0, 2.0], [lp.Canonical(), lp.Canonical()])
        initial = lp.PhaseState(x=[[1.0, 0, 0], [0, 0, 0]], p=np.zeros((2, 3)), t=0.0)
        scen = lp.GravityScenario(system=system, potential=pot, initial=initial,
                                  t0=0.0, t_end=1.0, dt=1e-3)
        with pytest.raises(lp.PotentialSingularityError) as info:
            lp.integrate(scen)
        assert "step 0" in str(info.value) and "particle 1" in str(info.value)
        assert info.value.index == 1

    def test_nonfinite_state_names_particle(self):
        pot = lp.Polynomial(coefficients={(4, 0, 0): -1.0})
        system = lp.ParticleSystem.from_pairs([1.0, 1.0], [lp.Canonical(), lp.Canonical()])
        initial = lp.PhaseState(x=[[0.1, 0, 0], [2, 0, 0]], p=[[0, 0, 0], [5, 0, 0]], t=0.0)
        scen = lp.GravityScenario(system=system, potential=pot, initial=initial,
                                  t0=0.0, t_end=5.0, dt=0.01)
        with pytest.raises(lp.NonFiniteStateError, match="particle 1") as info:
            lp.integrate(scen)
        assert info.value.particle == 1 and info.value.step is not None

    def test_blowup_detected_as_nonfinite(self):
        pot = lp.Polynomial(coefficients={(4, 0, 0): -1.0})
        scen = one_particle(lp.Canonical(), x=(2, 0, 0), p=(5, 0, 0),
                            t_end=5.0, dt=0.01, potential=pot)
        with pytest.raises(lp.NonFiniteStateError):
            lp.integrate(scen)

    def test_halving_dt_shrinks_error_sixteenfold(self):
        pot = lp.Polynomial(coefficients={(2, 0, 0): 0.5, (0, 2, 0): 0.5, (0, 0, 2): 0.5})
        exact = np.concatenate([
            [np.cos(1.0), np.sin(1.0), 0.0],
            [-np.sin(1.0), np.cos(1.0), 0.0],
        ])
        errors = []
        for dt in (0.02, 0.01):
            scen = one_particle(lp.Canonical(), x=(1, 0, 0), p=(0, 1, 0),
                                dt=dt, potential=pot)
            traj = lp.integrate(scen)
            errors.append(np.linalg.norm(traj.states[-1] - exact))
        ratio = errors[0] / errors[1]
        assert 12.0 <= ratio <= 20.0

    def test_energy_conserved_for_time_independent_structure(self):
        # canonical and coordinate-valued variants have no explicit t in J,
        # so H is a constant of the exact flow; RK4 drift is O(dt^4)
        pot = lp.Newtonian(strength=1.0)
        for spec in (lp.Canonical(), lp.SpaceSpace(kappa_tilde=2.0)):
            scen = one_particle(spec, x=(2, 0, 0), p=(0, 0.7, 0), potential=pot)
            traj = lp.integrate(scen)
            system = scen.system
            energies = [lp.hamiltonian(system, pot, s) for _, s in traj.samples]
            drift = np.max(np.abs(np.array(energies) - energies[0]))
            assert drift <= 1e-10, type(spec).__name__

    def test_spacetime_energy_stays_finite(self):
        # only finiteness is asserted for the time-valued variant; note that
        # dH/dt = grad(H) . J grad(H) = 0 for any antisymmetric J, so H is in
        # fact conserved here too even though J carries an explicit t
        pot = lp.Newtonian(strength=1.0)
        scen = one_particle(lp.SpaceTime(kappa=0.5), x=(2, 0, 0), p=(0, 0.7, 0),
                            potential=pot)
        traj = lp.integrate(scen)
        energies = [lp.hamiltonian(scen.system, pot, s) for _, s in traj.samples]
        assert np.all(np.isfinite(energies))


KERNEL_FIELDS = {
    "uniform": lp.Uniform(g=[0.1, -0.3, 0.2]),
    "newtonian": lp.Newtonian(strength=1.5, center=[-5.0, -5.0, -5.0]),
    "polynomial": lp.Polynomial(coefficients={
        (2, 0, 0): 0.5, (0, 2, 0): 0.3, (0, 0, 2): 0.4, (1, 1, 1): -0.05, (0, 4, 0): 0.01,
    }),
}


def kernel_outcome(kernel, *args):
    """The bytes of a kernel's times and states, or its error's type,
    message and fields."""
    try:
        times, states = kernel(*args)
    except (lp.PotentialSingularityError, lp.NonFiniteStateError) as exc:
        return type(exc), str(exc), vars(exc)
    return times.tobytes(), states.tobytes()


class TestKernelMatchesReference:
    """``_integrate_flat`` reuses its buffers and shares the midpoint block;
    every step must round exactly as the expression-per-stage reference."""

    @pytest.mark.parametrize("field", list(KERNEL_FIELDS))
    @pytest.mark.parametrize("n", [1, 2, 16])
    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_bytes_equal_reference(self, variant, n, field):
        rng = np.random.default_rng([VARIANT_NAMES.index(variant), n])
        system = random_system(rng, variant, n)
        z0 = random_state(rng, n, box=1.0).flatten()
        # a negative t0 puts -0.0 entries into t * time
        args = (system.masses, system.lowered, KERNEL_FIELDS[field], z0, -0.37, 0.002, 40)
        got = kernel_outcome(dynamics._integrate_flat, *args)
        assert isinstance(got[0], bytes)  # the run completes
        assert got == kernel_outcome(integrate_flat_reference, *args)

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_singularity_same_as_reference(self, variant):
        rng = np.random.default_rng(5)
        system = random_system(rng, variant, 3)
        field = lp.Newtonian(strength=1.0, r_min=0.25)
        z0 = np.zeros((3, 6))
        z0[:, 0] = [2.0, 0.3, 1.5]
        z0[1, 3] = -3.0  # particle 1 falls into the guarded region
        args = (system.masses, system.lowered, field, z0.reshape(-1), -0.5, 0.01, 100)
        got = kernel_outcome(dynamics._integrate_flat, *args)
        assert got[0] is lp.PotentialSingularityError and got[2]["index"] == 1
        assert got == kernel_outcome(integrate_flat_reference, *args)

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_nonfinite_state_same_as_reference(self, variant):
        rng = np.random.default_rng(6)
        system = random_system(rng, variant, 2)
        field = lp.Polynomial(coefficients={(4, 0, 0): -1.0})
        z0 = np.zeros((2, 6))
        z0[:, 0] = [0.1, 2.0]
        z0[1, 3] = 5.0  # particle 1 runs away to infinity
        args = (system.masses, system.lowered, field, z0.reshape(-1), 0.0, 0.01, 500)
        got = kernel_outcome(dynamics._integrate_flat, *args)
        assert got[0] is lp.NonFiniteStateError and got[2]["particle"] == 1
        assert got == kernel_outcome(integrate_flat_reference, *args)


def assert_same_trajectories(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.times.tobytes() == b.times.tobytes()
        assert a.states.tobytes() == b.states.tobytes()
        assert a.masses.tobytes() == b.masses.tobytes()
        assert a.metadata == b.metadata


def scenario_pair(rng, variants, n, body_mode=False, potential=HARMONIC):
    """Two scenarios of the given variants on one field and grid."""
    scenarios = []
    for variant in variants:
        system = (scaled_system if body_mode else random_system)(rng, variant, n)
        state = random_state(rng, n, box=1.0)
        scenarios.append(lp.GravityScenario(
            system=system, potential=potential, initial=lp.PhaseState(state.x, state.p, 0.0),
            t0=0.0, t_end=0.3, dt=0.01, body_mode=body_mode, neglect_relative_motion=body_mode,
        ))
    return scenarios


class TestStackedIntegration:
    """Scenarios sharing a field and a grid integrate as one stacked system,
    each with exactly the states of its own integration."""

    def test_body_and_partition_equal_separate_runs(self, monkeypatch):
        body = body_scenario([1.0, 3.0], [2.0, 6.0], [0.3, -0.2, 0.1], [0.2, 0.1, -0.4])
        partition = body_scenario([2.0, 2.0], [4.0, 4.0], [0.3, -0.2, 0.1], [0.2, 0.1, -0.4])
        partition = dataclasses.replace(partition, potential=body.potential)
        expected = [lp.integrate(body), lp.integrate(partition)]
        calls = count_kernel_calls(monkeypatch)
        assert_same_trajectories(dynamics._integrate_together([body, partition]), expected)
        assert len(calls) == 1

    @pytest.mark.parametrize("body_mode", [False, True])
    def test_spacespace_runs_with_slopes_equal_separate_runs(self, body_mode, monkeypatch):
        runs = scenario_pair(np.random.default_rng(8), ["space_space"] * 2, 3, body_mode)
        assert runs[0].system.lowered.slope is not None
        expected = [lp.integrate(s) for s in runs]
        calls = count_kernel_calls(monkeypatch)
        assert_same_trajectories(dynamics._integrate_together(runs), expected)
        assert len(calls) == 1

    def test_unequal_slope_presence_integrates_apart(self, monkeypatch):
        runs = scenario_pair(np.random.default_rng(9), ["space_time", "space_space"], 3)
        assert [s.system.lowered.slope is None for s in runs] == [True, False]
        expected = [lp.integrate(s) for s in runs]
        calls = count_kernel_calls(monkeypatch)
        assert_same_trajectories(dynamics._integrate_together(runs), expected)
        assert len(calls) == 2

    def test_failure_names_the_scenario_as_its_own_run(self):
        field = lp.Polynomial(coefficients={(4, 0, 0): -1.0})
        calm = one_particle(lp.Canonical(), x=(0.1, 0, 0), t_end=5.0, dt=0.01, potential=field)
        runaway = one_particle(lp.Canonical(), x=(2, 0, 0), p=(5, 0, 0),
                               t_end=5.0, dt=0.01, potential=field)
        with pytest.raises(lp.NonFiniteStateError) as alone:
            lp.integrate(runaway)
        with pytest.raises(lp.NonFiniteStateError) as stacked:
            dynamics._integrate_together([calm, runaway])
        assert str(stacked.value) == str(alone.value)
        assert vars(stacked.value) == vars(alone.value) and alone.value.particle == 0

    def test_runs_must_share_field_and_grid(self):
        a = one_particle(lp.Canonical())
        for b in (dataclasses.replace(a, potential=lp.Uniform(g=[0.0, 1.0, 0.0])),
                  dataclasses.replace(a, dt=2e-3)):
            with pytest.raises(ValueError, match="share a potential and a grid"):
                dynamics._integrate_together([a, b])


class TestGrid:
    @pytest.mark.parametrize(
        "grid, field",
        [
            ((0.0, 1.0, 0.3), "dt"),
            ((0.0, 1.0, 2.0), "dt"),
            ((0.0, 1.0, float("nan")), "dt"),
            ((0.0, float("inf"), 0.1), "t_end"),
            ((float("nan"), 1.0, 0.1), "t0"),
            ((0.0, 1.0, -0.1), "dt"),
            ((1.0, 1.0, 0.1), "t_end"),
            # (t_end - t0) / dt overflows to an infinite step count
            ((0.0, 1e308, 0.1), "t_end"),
            ((-1e308, 1e308, 1.0), "t_end"),
            # 1e18 steps: a trajectory numpy cannot size
            ((0.0, 1e15, 1e-3), "t_end"),
        ],
    )
    def test_grid_must_end_at_t_end(self, grid, field):
        t0, t_end, dt = grid
        with pytest.raises(lp.GridError) as info:
            one_particle(lp.Canonical(), t_end=t_end, dt=dt, t0=t0)
        assert info.value.field == field

    def test_rounded_spans_accepted(self):
        # spans whose quotient by dt rounds to either side of the step count
        assert (1.0 - 0.3) / 0.1 < 7 and (1.0 - 0.7) / 0.1 > 3
        assert one_particle(lp.Canonical(), t0=0.3, t_end=1.0, dt=0.1).n_steps() == 7
        assert one_particle(lp.Canonical(), t0=0.7, t_end=1.0, dt=0.1).n_steps() == 3
        assert one_particle(lp.Canonical(), t_end=24 * 0.01, dt=0.01).n_steps() == 24


class TestTrajectoryCsv:
    def test_header_and_significant_digits(self):
        scen = one_particle(lp.Canonical(), p=(1 / 3, 0, 0), t_end=0.01, dt=0.005)
        traj = lp.integrate(scen)
        buf = io.StringIO()
        traj.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,X1,X2,X3,P1,P2,P3"
        assert len(lines) == 1 + 3
        # 17 significant digits reproduce the double exactly
        first_p1 = float(lines[1].split(",")[4])
        assert first_p1 == traj.states[0, 3]

    def test_reduced_momentum_columns(self):
        scen = one_particle(lp.Canonical(), mass=2.0, p=(1, 0, 0), t_end=0.01, dt=0.005)
        traj = lp.integrate(scen)
        buf = io.StringIO()
        traj.write_csv(buf, include_reduced_momentum=True)
        lines = buf.getvalue().splitlines()
        assert lines[0].endswith("Pr1,Pr2,Pr3")
        row = [float(v) for v in lines[1].split(",")]
        assert row[7] == pytest.approx(0.5, abs=0)  # P1/m

    def test_multi_particle_column_labels(self):
        system = lp.ParticleSystem.from_pairs([1.0, 2.0], [lp.Canonical(), lp.Canonical()])
        initial = lp.PhaseState(x=np.zeros((2, 3)), p=np.zeros((2, 3)), t=0.0)
        scen = lp.GravityScenario(system=system, potential=G_FIELD, initial=initial,
                                  t0=0.0, t_end=0.01, dt=0.005)
        buf = io.StringIO()
        lp.integrate(scen).write_csv(buf)
        header = buf.getvalue().splitlines()[0]
        assert "X1[0]" in header and "P3[1]" in header

    def test_byte_identical_reruns(self):
        scen = one_particle(lp.SpaceTime(kappa=1.5), p=(0.1, 0.2, 0.3), t_end=0.1, dt=0.01)
        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            lp.integrate(scen).write_csv(buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]


class TestCsvMatchesCellWriter:
    # values whose formatting is easy to get wrong: signed zeros, subnormals,
    # huge magnitudes and fractions without a short decimal form
    SPECIAL = np.array([-0.0, 0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1 / 3, -2 / 3, 0.1, 1e-300])

    def trajectory(self, n: int) -> lp.Trajectory:
        rng = np.random.default_rng(n)
        rows = 7
        states = rng.normal(size=(rows, 6 * n)) * 10.0 ** rng.integers(-8, 8, (rows, 6 * n))
        cells = rng.choice(states.size, self.SPECIAL.size, replace=False)
        states.ravel()[cells] = self.SPECIAL
        # P = -0.0, subnormal and 1/3 give reduced momenta of the same kinds
        states[0, 3:6] = [-0.0, 5e-324, 1 / 3]
        masses = rng.uniform(0.1, 10.0, n)
        masses[0] = 3.0
        times = np.arange(rows) / 3.0
        times[0] = -0.0
        return lp.Trajectory(times=times, states=states, masses=masses, metadata={})

    @pytest.mark.parametrize("reduced", [False, True])
    @pytest.mark.parametrize("n", [1, 3, 64])
    def test_bytes_equal_cell_writer(self, n, reduced):
        traj = self.trajectory(n)
        got, want = io.StringIO(), io.StringIO()
        traj.write_csv(got, include_reduced_momentum=reduced)
        write_csv_cells(traj, want, include_reduced_momentum=reduced)
        assert got.getvalue() == want.getvalue()
        assert "-0," in got.getvalue() and "4.9406564584124654e-324" in got.getvalue()


class TestScenarioFingerprint:
    # recorded before lowering and fingerprinting read the raw encoding
    # instead of building a validated Generalized per particle
    BUNDLED = {
        "spacetime_decoupling": "ad02bddc1528f10f",
        "spacetime_eom": "ee76f98b9b83b4fd",
        "spacetime_wep": "485bfbd123c89018",
        "spacetime_wep_violation": "485bfbd123c89018",
        "body_composition": "ba0cbc02158425df",
        "integrator_order": "1fe9620ec8120169",
    }

    def test_bundled_unchanged(self):
        with_field = [name for name in cli.BUILTIN_SCENARIOS
                      if cli.load_scenario(name).potential is not None]
        assert sorted(with_field) == sorted(self.BUNDLED)
        for name, digest in self.BUNDLED.items():
            gravity = cli.load_scenario(name).gravity_scenario()
            assert dynamics._scenario_fingerprint(gravity) == digest, name

    def test_signed_zero_tensors_and_miao_unchanged(self):
        theta0 = np.array([[0.0, -0.0, 0.5], [0.0, 0.0, 0.0], [-0.5, -0.0, 0.0]])
        theta_bar = np.full((3, 3, 3), -0.0)
        theta_bar[2, 0, 1] = 0.25
        specs = [lp.Generalized(theta0=theta0, theta_bar=theta_bar),
                 lp.Generalized(theta0=theta0 / 3.0, theta_bar=theta_bar)]
        mixed = lp.GravityScenario(
            system=lp.ParticleSystem.from_pairs([1.0, 3.0], specs),
            potential=G_FIELD,
            initial=lp.PhaseState(x=[[0.0, 1.0, 2.0], [1 / 3, -0.0, 1e-300]], p=np.zeros((2, 3))),
            t0=0.0, t_end=1.0, dt=0.25,
        )
        masses = [1.0, 2.0, 0.5]
        miao = lp.GravityScenario(
            system=lp.ParticleSystem.from_pairs(masses, [
                lp.MiaoTypeII(kappa=2.0 * m, kappa_tilde=-1.5 * m, kappa_bar=5.0, k=3, l=1, gamma=2)
                for m in masses
            ]),
            potential=lp.Newtonian(strength=1.5, center=[5.0, 0.0, 0.0]),
            initial=lp.PhaseState(x=np.eye(3), p=np.ones((3, 3)) / 3.0),
            t0=0.0, t_end=1.0, dt=0.5,
        )
        assert dynamics._scenario_fingerprint(mixed) == "7224322d6cfa4e3f"
        assert dynamics._scenario_fingerprint(miao) == "72ecf920873c9885"


# the benchmark's WEP sweep cases: variant and field pairs
WEP_CASES = {
    "spacetime-uniform": (lp.SpaceTime(kappa=1.7, rho=2, tau=3), lp.Uniform(g=[0.4, -1.1, 0.3])),
    "miao2-quartic": (
        lp.MiaoTypeII(kappa=3.0, kappa_tilde=4.5, kappa_bar=2.5, k=3, l=1, gamma=2),
        lp.Polynomial(coefficients={(2, 0, 0): 0.3, (0, 2, 0): 0.5, (0, 0, 2): 0.4,
                                    (1, 1, 1): 0.02, (4, 0, 0): 0.01, (0, 4, 0): 0.015,
                                    (2, 0, 2): 0.01}),
    ),
    "generalized-newtonian": (
        lp.as_generalized(lp.MiaoTypeI(kappa=2.5, kappa_tilde=3.5, k=2, l=3, gamma=1)),
        lp.Newtonian(strength=1.2),
    ),
}


class TestWepDeviation:
    def test_fixed_mode_matches_analytic_split(self):
        scen = one_particle(lp.SpaceTime(kappa=1.0, rho=1, tau=2))
        report = lp.wep_deviation(scen, [1.0, 2.0], "fixed")
        # X1 deviation at t = 1 is (m2 - m1) g / (2 kappa) = 0.5
        assert report.max_position_deviation == pytest.approx(0.5, abs=1e-8)

    def test_fixed_mode_deviation_linear_in_mass_difference(self):
        scen = one_particle(lp.SpaceTime(kappa=1.0, rho=1, tau=2))
        report = lp.wep_deviation(scen, [1.0, 2.0, 3.0], "fixed")
        dev = {p.masses: p.position for p in report.pairs}
        assert dev[(1.0, 3.0)] == pytest.approx(2.0 * dev[(1.0, 2.0)], rel=1e-10)

    def test_mass_scaled_mode_recovers_universality(self):
        scen = one_particle(lp.SpaceTime(kappa=1.0, rho=1, tau=2), p=(0.1, 0.3, 0.0))
        report = lp.wep_deviation(scen, [1.0, 2.0, 5.0, 10.0], "mass_scaled")
        assert report.max_position_deviation <= 1e-8
        assert report.max_reduced_momentum_deviation <= 1e-8

    def test_equal_masses_are_identical_runs(self):
        scen = one_particle(lp.MiaoTypeII(kappa=1.0, kappa_tilde=2.0, kappa_bar=1.5),
                            x=(1, 1, 1), p=(0.2, 0, 0))
        for mode in ("fixed", "mass_scaled"):
            report = lp.wep_deviation(scen, [2.0, 2.0], mode)
            assert report.max_position_deviation == 0.0

    def test_initial_reduced_momentum_shared(self):
        # template mass 2 with P = (1, 0, 0): every run starts from P' = 0.5
        scen = one_particle(lp.Canonical(), mass=2.0, p=(1, 0, 0))
        report = lp.wep_deviation(scen, [1.0, 4.0], "fixed")
        # canonical motion is mass-independent given X(0), P'(0)
        assert report.max_position_deviation <= 1e-13

    def test_requires_single_particle_template(self):
        system = lp.ParticleSystem.from_pairs([1.0, 1.0], [lp.Canonical(), lp.Canonical()])
        initial = lp.PhaseState(x=np.zeros((2, 3)), p=np.zeros((2, 3)), t=0.0)
        scen = lp.GravityScenario(system=system, potential=G_FIELD, initial=initial,
                                  t0=0.0, t_end=1.0, dt=0.01)
        with pytest.raises(ValueError, match="single-particle"):
            lp.wep_deviation(scen, [1.0, 2.0], "fixed")

    def test_unknown_mode_rejected(self):
        scen = one_particle(lp.Canonical())
        with pytest.raises(ValueError, match="scaling_mode"):
            lp.wep_deviation(scen, [1.0], "adaptive")

    @pytest.mark.parametrize(
        "masses", [[1.0, -2.0], [0.0], [1.0, float("nan")], [float("inf")], []]
    )
    def test_bad_masses_rejected(self, masses):
        with pytest.raises(ValueError, match="mass"):
            lp.wep_deviation(one_particle(lp.Canonical()), masses, "fixed")

    def test_failure_names_run_and_mass(self):
        # the nearly canonical light run escapes the quartic hill first
        pot = lp.Polynomial(coefficients={(4, 0, 0): -1.0, (0, 4, 0): -1.0})
        scen = one_particle(lp.SpaceTime(kappa=1.0, rho=2, tau=1), x=(2, 0, 0), p=(1, 0, 0),
                            dt=0.01, potential=pot)
        with pytest.raises(lp.NonFiniteStateError, match=r"run 1 \(mass 0\.01\)") as info:
            lp.wep_deviation(scen, [1.0, 0.01], "fixed")
        assert info.value.particle == 1

    @pytest.mark.parametrize("mode", ["fixed", "mass_scaled"])
    @pytest.mark.parametrize("case", list(WEP_CASES))
    def test_stacked_sweep_equals_sequential_runs(self, case, mode):
        spec, potential = WEP_CASES[case]
        template = one_particle(spec, mass=1.3, x=(1.2, -1.1, 1.4), p=(0.2, -0.3, 0.1),
                                t_end=24 * 0.01, dt=0.01, potential=potential)
        masses = [float(m) for m in np.random.default_rng(41).uniform(0.5, 5.0, 6)]
        report = lp.wep_deviation(template, masses, mode)

        # each mass integrated as its own single-particle scenario
        x0, p_reduced0 = template.initial.x[0], template.initial.p[0] / 1.3
        runs = []
        for m in masses:
            run_spec = rescale(spec, m / 1.3) if mode == "mass_scaled" else spec
            runs.append(lp.integrate(dataclasses.replace(
                template,
                system=lp.ParticleSystem.from_pairs([m], [run_spec]),
                initial=lp.PhaseState(x=[x0], p=[m * p_reduced0], t=0.0),
            )))
        pairs = [
            ((masses[i], masses[j]),
             np.max(np.linalg.norm(runs[i].positions() - runs[j].positions(), axis=1)),
             np.max(np.linalg.norm(runs[i].reduced_momenta() - runs[j].reduced_momenta(), axis=1)))
            for i in range(len(runs)) for j in range(i + 1, len(runs))
        ]
        assert [p.masses for p in report.pairs] == [masses for masses, _, _ in pairs]
        for got, (_, position, reduced_momentum) in zip(report.pairs, pairs):
            assert abs(got.position - position) <= 1e-14
            assert abs(got.reduced_momentum - reduced_momentum) <= 1e-14


def body_scenario(masses, kappas, x_com, p_com, neglect=False, dt=1e-3):
    specs = [lp.SpaceTime(kappa=k, rho=1, tau=2) for k in kappas]
    system = lp.ParticleSystem.from_pairs(masses, specs)
    initial = lp.PhaseState(
        x=np.tile(np.asarray(x_com, dtype=float), (len(masses), 1)),
        p=np.outer(system.mu, np.asarray(p_com, dtype=float)),
        t=0.0,
    )
    return lp.GravityScenario(
        system=system, potential=G_FIELD, initial=initial,
        t0=0.0, t_end=1.0, dt=dt, body_mode=True, neglect_relative_motion=neglect,
    )


class TestBodyDynamics:
    def test_body_rhs_equals_pseudo_particle_closed_form(self):
        scen = body_scenario([1.0, 3.0], [2.0, 6.0], [0.75, 0.375, 0], [0.2, -0.1, 0])
        com_state = lp.PhaseState(x=[[0.3, -0.8, 0.2]], p=[[1.0, 0.5, -0.2]], t=0.6)
        xdot, pdot = lp.body_com_rhs(scen, com_state)
        # closed COM equations: Xdot = P/M + t M (sum mu^2/kappa) T grad(V)
        total = 4.0
        mu = np.array([0.25, 0.75])
        kappas = np.array([2.0, 6.0])
        coeff = 0.6 * total * np.sum(mu**2 / kappas)
        v = np.array([0.0, 1.0, 0.0])
        expected_x = com_state.p[0] / total + coeff * np.array([v[1], -v[0], 0.0])
        assert np.max(np.abs(xdot - expected_x)) <= 1e-13
        assert np.max(np.abs(pdot + total * v)) <= 1e-13

    def test_composition_independent_under_scaling(self):
        x0, p0 = [0.75, 0.375, 0.0], [0.2, -0.1, 0.0]
        t13 = lp.integrate(body_scenario([1, 3], [2, 6], x0, p0))
        t22 = lp.integrate(body_scenario([2, 2], [4, 4], x0, p0))
        assert np.max(np.abs(t13.states - t22.states)) <= 1e-10

    def test_unscaled_bodies_feel_their_composition(self):
        x0, p0 = [0.75, 0.375, 0.0], [0.2, -0.1, 0.0]
        u13 = lp.integrate(body_scenario([1, 3], [1, 1], x0, p0, neglect=True))
        u22 = lp.integrate(body_scenario([2, 2], [1, 1], x0, p0, neglect=True))
        assert np.max(np.abs(u13.states - u22.states)) > 1e-3

    def test_unscaled_body_requires_approximation_flag(self):
        scen = body_scenario([1.0, 2.0], [1.0, 1.0], [0, 0, 0], [0, 0, 0])
        with pytest.raises(ValueError, match="neglect_relative_motion"):
            lp.integrate(scen)

    def test_time_valued_generalized_body_is_exact_under_scaling(self):
        # tensors with theta0 alone decouple like SpaceTime: no flag needed
        x0, p0 = [0.75, 0.375, 0.0], [0.2, -0.1, 0.0]
        spacetime = body_scenario([1, 3], [2, 6], x0, p0)
        system = lp.ParticleSystem.from_pairs(
            [1.0, 3.0], [lp.as_generalized(s) for s in spacetime.system.specs]
        )
        state = random_state(np.random.default_rng(21), 2, box=3.0)
        assert lp.decoupling_check(system, state, G_FIELD) <= 1e-12
        encoded = lp.integrate(dataclasses.replace(spacetime, system=system))
        assert np.max(np.abs(encoded.states - lp.integrate(spacetime).states)) <= 1e-12

    def test_spacespace_body_requires_scaling(self):
        system = lp.ParticleSystem.from_pairs(
            [1.0, 2.0], [lp.SpaceSpace(kappa_tilde=1.0), lp.SpaceSpace(kappa_tilde=1.0)]
        )
        initial = lp.PhaseState(x=np.zeros((2, 3)), p=np.zeros((2, 3)), t=0.0)
        scen = lp.GravityScenario(system=system, potential=G_FIELD, initial=initial,
                                  t0=0.0, t_end=1.0, dt=0.01,
                                  body_mode=True, neglect_relative_motion=True)
        with pytest.raises(lp.ScalingRequiredError):
            lp.integrate(scen)

    @pytest.mark.parametrize(
        "variant, potential, neglect, exact",
        [
            ("space_time", G_FIELD, False, True),
            ("space_time", HARMONIC, False, True),
            # exact too, although the body run calls it an approximation
            ("space_space", G_FIELD, True, True),
            ("miao_type_ii", HARMONIC, True, False),
        ],
    )
    def test_body_run_against_projected_full_run(self, variant, potential, neglect, exact):
        """The full N-body run projected onto (Xcom, Pcom) by the first rows of
        W, against the body-mode run on the same grid."""
        masses = [1.0, 2.0, 3.5]
        make = {
            "space_time": lambda m: lp.SpaceTime(kappa=2.0 * m, rho=1, tau=2),
            "space_space": lambda m: lp.SpaceSpace(kappa_tilde=1.5 * m, k=1, l=2, gamma=3),
            "miao_type_ii": lambda m: lp.MiaoTypeII(
                kappa=2.0 * m, kappa_tilde=1.5 * m, kappa_bar=5.0, k=1, l=2, gamma=3),
        }[variant]
        system = lp.ParticleSystem.from_pairs(masses, [make(m) for m in masses])
        rng = np.random.default_rng(3)
        initial = lp.PhaseState(x=rng.uniform(-1, 1, (3, 3)), p=rng.uniform(-1, 1, (3, 3)))
        full = lp.GravityScenario(system=system, potential=potential, initial=initial,
                                  t0=0.0, t_end=1.0, dt=1e-3)
        body = dataclasses.replace(full, body_mode=True, neglect_relative_motion=neglect)
        projected = lp.integrate(full).states @ system.frame[:6].T
        deviation = np.max(np.abs(projected - lp.integrate(body).states))
        if exact:
            assert deviation <= 1e-10
        else:
            assert deviation > 1e-3  # a real approximation error

    def test_body_rhs_needs_body_mode(self):
        scen = one_particle(lp.Canonical())
        with pytest.raises(ValueError, match="body"):
            lp.body_com_rhs(scen, lp.PhaseState(x=[[0, 0, 0]], p=[[0, 0, 0]]))


class TestDecouplingCheck:
    def test_scaled_spacetime_decouples(self):
        system = lp.ParticleSystem.from_pairs(
            [1.0, 2.0], [lp.SpaceTime(kappa=2.0), lp.SpaceTime(kappa=4.0)]
        )
        state = lp.PhaseState(x=[[0.5, 1, -0.5], [2, -1, 1.5]],
                              p=[[1, -0.5, 0.25], [-1.5, 2, 0.5]], t=0.7)
        assert lp.decoupling_check(system, state, G_FIELD) <= 1e-12

    def test_unscaled_counterexample_couples(self):
        system = lp.ParticleSystem.from_pairs(
            [1.0, 2.0], [lp.SpaceTime(kappa=1.0), lp.SpaceTime(kappa=1.0)]
        )
        state = lp.PhaseState(x=[[0.5, 1, -0.5], [2, -1, 1.5]],
                              p=[[1, -0.5, 0.25], [-1.5, 2, 0.5]], t=0.7)
        assert lp.decoupling_check(system, state, G_FIELD) > 1e-6

    def test_constant_potential_always_decouples(self):
        pot = lp.Uniform(g=[0, 0, 0])
        system = lp.ParticleSystem.from_pairs(
            [1.0, 2.0], [lp.SpaceTime(kappa=1.0), lp.SpaceTime(kappa=1.0)]
        )
        state = random_state(np.random.default_rng(20), 2, box=3.0)
        assert lp.decoupling_check(system, state, pot) <= 1e-12

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    @pytest.mark.parametrize("scaled", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_matches_closure_reference(self, variant, scaled, n):
        rng = np.random.default_rng([VARIANT_NAMES.index(variant), int(scaled), n])
        make = scaled_system if scaled else random_system
        for _ in range(4):
            system = make(rng, variant, n)
            state = random_state(rng, n)
            for pot in (lp.Uniform(g=rng.uniform(-1.0, 1.0, 3)),
                        lp.Newtonian(strength=2.0, center=[0.0, 0.0, 30.0])):
                value, scale = decoupling_check_closures(system, state, pot)
                # where the bracket cancels to zero both sides are rounding of
                # terms of size ``scale``, so the absolute bound scales with it
                assert lp.decoupling_check(system, state, pot) == pytest.approx(
                    value, rel=1e-12, abs=1e-15 * max(1.0, scale)
                )
