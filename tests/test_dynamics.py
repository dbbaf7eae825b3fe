"""Equations of motion, integration, WEP sweeps and composite bodies."""

import ast
import dataclasses
import gc
import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import liephase as lp
from liephase import algebra, cli, dynamics
from liephase.algebra import lower, rescale

import sweep_com_checks
import sweep_csv
import sweep_com_report
import sweep_linear_flow
import sweep_record
import sweep_setup
import sweep_wep_report
import sweep_wep_runs
from helpers import (
    VARIANT_NAMES,
    antisym,
    count_kernel_calls,
    decoupling_check_closures,
    integrate_flat_reference,
    lowered_bytes,
    pair_deviations_loop,
    package_calls,
    polynomial_gradient_loop,
    polynomial_value_loop,
    random_polynomial,
    random_spec,
    random_state,
    random_system,
    scaled_system,
    signed_zero_generalized,
    write_csv_cells,
)

G_FIELD = lp.Uniform(g=[0.0, 1.0, 0.0])
HARMONIC = lp.Polynomial(coefficients={(2, 0, 0): 0.5, (0, 2, 0): 0.5, (0, 0, 2): 0.5})
QUARTIC = lp.Polynomial(coefficients={(2, 0, 0): 0.3, (0, 2, 0): 0.5, (4, 0, 0): 0.01,
                                       (0, 0, 4): 0.02})


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

    @pytest.mark.parametrize("key", [(0.5, 0, 0), (2.9, 0, 0), (2.0, 0, 0), (True, 0, 0),
                                     (1, 0), (1, 0, 0, 0), "2,0,0", (-1, 0, 0)])
    def test_polynomial_refuses_exponents_it_would_misread(self, key):
        # int() once cut 0.5 to 0 and 2.9 to 2, so these were other monomials
        with pytest.raises(ValueError, match=re.escape(f"bad monomial exponents {key!r}")):
            lp.Polynomial(coefficients={(0, 1, 0): 1.0, key: 5.0})

    def test_polynomial_refuses_a_second_key_for_one_monomial(self):
        class Seven(int):  # an integer that hashes apart from 1
            def __hash__(self):
                return 7

        key = (Seven(1), 0, 0)
        with pytest.raises(ValueError, match=re.escape(f"{key!r}: the same monomial")):
            lp.Polynomial(coefficients={(1, 0, 0): 1.0, key: 5.0})
        # numpy integers are integers, and equal to (so one key with) Python's
        pot = lp.Polynomial(coefficients={(np.int64(2), 0, 0): 1.0, (2, 0, 0): 3.0})
        assert pot.coefficients == {(2, 0, 0): 3.0}

    @pytest.mark.parametrize("name", ["uniform", "newtonian", "polynomial", "empty-polynomial"])
    def test_empty_batch_gives_empty_results(self, name):
        pot = POTENTIALS[name]
        for shape in [(0, 3), (2, 0, 3)]:
            assert pot.value(np.zeros(shape)).shape == shape[:-1]
            assert pot.gradient(np.zeros(shape)).shape == shape

    @pytest.mark.parametrize("make, message", [
        (lambda: lp.Uniform(g=[0.0, np.inf, 0.0]), r"^g\[1\]: must be finite"),
        (lambda: lp.Uniform(g=[0.0, "x", 0.0]), r"^g: could not convert"),
        (lambda: lp.Newtonian(strength=1.0, center=[0.0, 0.0]),
         r"^center: must have shape \(3,\)"),
        # a NaN or non-positive r_min would switch the singularity guard off
        *[(lambda r_min=r_min: lp.Newtonian(strength=1.0, r_min=r_min),
           r"^r_min must be positive and finite") for r_min in (np.nan, -1.0, 0.0, np.inf)],
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
            lp.scenario_fingerprint(one_particle(lp.Canonical(), x=(1, 0, 0), t_end=0.01,
                                                 dt=0.005, potential=pot))
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


def test_array_fields_compare_by_value():
    # dataclass == compared the arrays as a tuple and raised on their truth value
    rng = np.random.default_rng(39)
    x, p = rng.uniform(-1.0, 1.0, (2, 3, 3))
    pairs = [
        (lambda: lp.Uniform(g=[0.0, 0.0, 1.0]), lambda: lp.Uniform(g=[0.0, 1.0, 0.0])),
        (lambda: lp.Newtonian(strength=1.0, center=[1.0, 0.0, 0.0]),
         lambda: lp.Newtonian(strength=1.0)),
        (lambda: lp.PhaseState(x=x, p=p, t=0.5), lambda: lp.PhaseState(x=x, p=-p, t=0.5)),
        (lambda: one_particle(lp.Canonical(), x=(1, 0, 0)),
         lambda: one_particle(lp.Canonical(), x=(0, 1, 0))),
        (lambda: cli.load_scenario("spacetime_eom"), lambda: cli.load_scenario("effective_kappa")),
    ]
    for make, other in pairs:
        a, b, c = make(), make(), other()
        assert a == b and not a != b and a in [c, b]
        assert a != c and c not in [a, b]
        assert a != lp.Uniform(g=[0.0, 0.0, 1.0]) or type(a) is lp.Uniform
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    assert lp.PhaseState(x=x, p=p) != lp.PhaseState(x=x, p=p, t=1.0)


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

    def test_polynomial_bit_equal_to_monomial_loop_at_special_points(self):
        # degree <= 4 with explicit zero weights, at points salted with signed
        # zeros, infinities, NaN and powers that overflow or underflow: a zero
        # weight times a real factor must stay a term (0 * inf is NaN)
        rng = np.random.default_rng(36)
        specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e200, -1e200, 1e-200, -1e-200]
        points = np.where(rng.random((300, 3)) < 0.4, rng.choice(specials, (300, 3)),
                          rng.uniform(-3.0, 3.0, (300, 3)))
        polynomials = [{}, {(0, 0, 0): -0.0}, {(0, 0, 0): 0.0, (1, 0, 0): -0.0},
                       {(4, 0, 0): 0.0, (0, 1, 0): -0.0, (0, 0, 0): -0.0}]
        for n_terms in (1, 3, 7, 20, 35):
            coefficients = random_polynomial(rng, n_terms)
            zeroed = rng.random(n_terms) < 0.3
            polynomials.append({e: float(rng.choice([0.0, -0.0])) if z else c
                                for (e, c), z in zip(coefficients.items(), zeroed)})
        for coefficients in polynomials:
            pot = lp.Polynomial(coefficients=coefficients)
            with np.errstate(all="ignore"):
                got = (pot.value(points), pot.gradient(points))
                loop = (np.array([polynomial_value_loop(pot.coefficients, x) for x in points]),
                        np.array([polynomial_gradient_loop(pot.coefficients, x) for x in points]))
            for g, want in zip(got, loop):
                # bit-equal where a number; NaN where the loop gives NaN
                nan = np.isnan(want)
                assert np.array_equal(np.isnan(g), nan), coefficients
                assert g[~nan].tobytes() == want[~nan].tobytes(), coefficients

    def test_quadratic_gradient_bit_equal_to_monomial_loop(self):
        rng = np.random.default_rng(37)
        quadratic = [e for e in itertools.product(range(3), repeat=3) if sum(e) <= 2]
        specials = [0.0, -0.0, np.inf, -np.inf, np.nan]
        # every triple of specials, then random points salted with them
        points = np.vstack([
            list(itertools.product(specials, repeat=3)),
            np.where(rng.random((40, 3)) < 0.3, rng.choice(specials, (40, 3)),
                     rng.uniform(-3.0, 3.0, (40, 3))),
        ])
        polynomials = [{(0, 0, 0): 1.5}, {(0, 0, 0): -0.0}]
        for _ in range(30):
            picked = rng.choice(len(quadratic), rng.integers(1, len(quadratic) + 1), replace=False)
            polynomials.append({quadratic[i]: float(rng.choice([rng.uniform(-2.0, 2.0), 0.0, -0.0]))
                                for i in picked})
        for coefficients in polynomials:
            pot = lp.Polynomial(coefficients=coefficients)
            assert pot._affine_gradient() is not None
            with np.errstate(invalid="ignore"):
                got = pot.gradient(points)
                loop = np.array([polynomial_gradient_loop(pot.coefficients, x) for x in points])
            # bit-equal where a number; NaN where the loop gives NaN, whose
            # sign neither the loop nor the power table pins
            nan = np.isnan(loop)
            assert np.array_equal(np.isnan(got), nan), coefficients
            assert got[~nan].tobytes() == loop[~nan].tobytes(), coefficients
        assert lp.Polynomial(coefficients={(1, 2, 0): 1.0})._affine_gradient() is None

    def test_affine_gradient_of_quadratic_matches_gradient(self):
        rng = np.random.default_rng(41)
        quadratic = [e for e in itertools.product(range(3), repeat=3) if sum(e) <= 2]
        polynomials = [
            {(1, 1, 0): rng.uniform(-2.0, 2.0)},
            {(0, 1, 1): rng.uniform(-2.0, 2.0), (1, 0, 1): rng.uniform(-2.0, 2.0)},
            {(1, 0, 0): 1.0, (0, 1, 1): 1.0},
            {(0, 0, 0): 1.5},
            {},
            {e: -0.0 for e in quadratic},
        ]
        for _ in range(30):
            picked = rng.choice(len(quadratic), rng.integers(1, len(quadratic) + 1), replace=False)
            polynomials.append({quadratic[i]: float(rng.choice([rng.uniform(-2.0, 2.0), -0.0]))
                                for i in picked})
        x = np.vstack([[1.0, -0.7, 1.1], rng.uniform(-3.0, 3.0, (20, 3))])
        for coefficients in polynomials:
            pot = lp.Polynomial(coefficients=coefficients)
            G, g0 = pot._affine_gradient()
            want = pot.gradient(x)
            # relative to the size of the terms, so a cancelling sum is not
            # held to its own small size
            scale = np.abs(x) @ np.abs(G).T + np.abs(g0)
            assert (np.abs(x @ G.T + g0 - want) <= 1e-13 * scale).all(), coefficients
        assert np.array_equal(lp.Polynomial(coefficients={(1, 0, 0): 1.0, (0, 1, 1): 1.0})
                              .gradient(x[0]), [1.0, 1.1, -0.7])
        for e in [e for e in itertools.product(range(5), repeat=3) if 3 <= sum(e) <= 4]:
            # a zero weight is still a monomial of its degree
            for weight in (1.0, 0.0):
                pot = lp.Polynomial(coefficients={(1, 0, 0): 1.0, e: weight})
                assert pot._affine_gradient() is None, e

    @pytest.mark.parametrize("name", list(POTENTIALS) + ["quadratic"])
    def test_gradient_into_buffer_equals_gradient(self, name):
        pot = POTENTIALS.get(name) or lp.Polynomial(
            coefficients={(1, 1, 0): 0.5, (0, 0, 2): -1.0, (0, 1, 0): 2.0})
        rng = np.random.default_rng(38)
        for shape in [(3,), (1, 3), (7, 3), (2, 4, 3)]:
            x = rng.uniform(-3.0, 3.0, shape)
            # a strided half of a wider buffer, as the kernel's grad(H) is
            buffer = np.full(shape[:-1] + (6,), np.nan)
            out = buffer[..., :3]
            assert pot.gradient_into(x, out) is out
            assert out.tobytes() == pot.gradient(x).tobytes()
            assert np.isnan(buffer[..., 3:]).all()

    def test_newtonian_batch_singularity_names_point(self):
        pot = lp.Newtonian(strength=1.0)
        x = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        with pytest.raises(lp.PotentialSingularityError, match="point 1") as info:
            pot.gradient(x)
        assert info.value.index == 1
        with pytest.raises(lp.PotentialSingularityError) as info:
            pot.value(x[1])
        assert info.value.index is None

    def test_newtonian_single_point_singularity_has_no_index(self):
        pot = lp.Newtonian(strength=1.0, center=[1.0, 2.0, 3.0])
        for evaluate in (pot.value, pot.gradient):
            with pytest.raises(lp.PotentialSingularityError) as info:
                evaluate(np.array([1.0, 2.0, 3.0]))
            assert info.value.index is None
            assert str(info.value) == "field evaluated at r = 0.000e+00 < r_min = 1.000e-09"

    def test_subclass_defines_value_and_one_gradient_method(self):
        class Bowl(lp.Potential):
            """V = |X|^2 / 2, with only the buffer path of its gradient."""

            def value(self, x):
                x = np.asarray(x, dtype=float)
                return (x * x).sum(axis=-1) / 2

            def gradient_into(self, x, out):
                out[...] = x
                return out

        class Flat(lp.Potential):
            def value(self, x):
                return np.zeros(np.shape(x)[:-1])

        x = np.random.default_rng(39).uniform(-3.0, 3.0, (4, 3))
        assert Bowl().gradient(x).tobytes() == x.tobytes()
        assert Bowl().gradient(x[0]).tobytes() == x[0].tobytes()
        for evaluate in (lambda: Flat().gradient(x), lambda: Flat().gradient_into(x, x.copy())):
            with pytest.raises(NotImplementedError, match="Flat defines no gradient"):
                evaluate()

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
        trajectory = lp.Trajectory(times=np.arange(6.0), states=states, masses=system.masses)
        assert np.array_equal(trajectory.energies(pot), expected)

    def test_hamiltonian_refuses_state_of_another_size(self):
        system = lp.ParticleSystem.from_pairs([2.0], [lp.Canonical()])
        state = lp.PhaseState(x=[[1.0, 0.0, 0.0]] * 2, p=[[1.0, 0.0, 0.0]] * 2, t=0.0)
        with pytest.raises(ValueError, match="state has 2 particles, system has 1"):
            lp.hamiltonian(system, POTENTIALS["uniform"], state)


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


STATES_FIELDS = {
    "uniform": lp.Uniform(g=[0.3, -1.2, 0.7]),
    "quartic": QUARTIC,
    "newtonian": lp.Newtonian(strength=1.7, center=[0.5, -0.25, 1.0]),
}


def scenario_and_states(rng, variant, field, n_particles=3, n_states=6):
    """A scenario of ``n_particles`` in ``field`` and a stack of states, at
    times below, at and above zero."""
    system = random_system(rng, variant, n_particles)
    initial = lp.PhaseState(x=rng.uniform(1.0, 3.0, (n_particles, 3)),
                            p=np.zeros((n_particles, 3)), t=0.0)
    scenario = lp.GravityScenario(system=system, potential=field, initial=initial,
                                  t0=0.0, t_end=1.0, dt=0.1)
    x = rng.uniform(1.0, 3.0, (n_states, n_particles, 3))
    p = rng.uniform(-3.0, 3.0, (n_states, n_particles, 3))
    t = np.array([-1.5, 0.0, 0.7, 2.0, -0.0, 3.1])[:n_states]
    return scenario, x, p, t


class TestEomRhsStates:
    @pytest.mark.parametrize("field", list(STATES_FIELDS))
    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_rows_equal_eom_rhs_per_state(self, variant, field):
        rng = np.random.default_rng(51)
        scenario, x, p, t = scenario_and_states(rng, variant, STATES_FIELDS[field])
        xdot, pdot = lp.eom_rhs_states(scenario, x, p, t)
        assert xdot.shape == pdot.shape == x.shape
        for s, ts in enumerate(t.tolist()):
            single = lp.eom_rhs(scenario, lp.PhaseState(x=x[s], p=p[s], t=ts))
            assert xdot[s].tobytes() == single[0].tobytes()
            assert pdot[s].tobytes() == single[1].tobytes()

    @pytest.mark.parametrize("shape", [(6, 2, 3), (6, 4, 3), (3, 3), (6, 3, 2)])
    def test_other_particle_count_refused(self, shape):
        scenario, x, p, t = scenario_and_states(np.random.default_rng(52), "space_time",
                                                STATES_FIELDS["uniform"])
        other = np.ones(shape)
        with pytest.raises(ValueError, match="state size does not match"):
            lp.eom_rhs_states(scenario, other, other, t)

    def test_singular_state_raises_as_eom_rhs_there(self):
        rng = np.random.default_rng(53)
        field = lp.Newtonian(strength=1.0, center=[2.0, 2.0, 2.0], r_min=0.1)
        scenario, x, p, t = scenario_and_states(rng, "miao_type_i", field)
        x[4, 0] = [2.0, 2.0, 2.001]  # the smallest radius, in a later state
        x[2, 1] = [2.0, 2.05, 2.0]  # the first singular state, at its particle 1
        with pytest.raises(lp.PotentialSingularityError) as alone:
            lp.eom_rhs(scenario, lp.PhaseState(x=x[2], p=p[2], t=t[2]))
        with pytest.raises(lp.PotentialSingularityError) as stacked:
            lp.eom_rhs_states(scenario, x, p, t)
        assert str(stacked.value) == str(alone.value)
        assert str(stacked.value).endswith("for point 1") and stacked.value.index == 1


class TestIntegrate:
    def test_tracks_index_particles_as_a_sequence(self):
        states = np.arange(36.0).reshape(3, 12)
        masses = np.array([2.0, 4.0])
        traj = lp.Trajectory(times=np.arange(3.0), states=states, masses=masses)
        for a in (0, 1):
            x, p = states[:, 6 * a : 6 * a + 3], states[:, 6 * a + 3 : 6 * a + 6]
            for particle in (a, a - 2):  # a negative index counts from the last
                assert np.array_equal(traj.positions(particle), x)
                assert np.array_equal(traj.momenta(particle), p)
                assert np.array_equal(traj.reduced_momenta(particle), p / masses[a])
        for track in (traj.positions, traj.momenta, traj.reduced_momenta):
            for particle in (2, -3):
                with pytest.raises(IndexError):
                    track(particle)

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

    def test_deterministic_rerun(self):
        scen = one_particle(lp.SpaceTime(kappa=1.0), p=(0.3, 0.1, 0))
        a, b = lp.integrate(scen), lp.integrate(scen)
        assert np.array_equal(a.states, b.states)

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
    # degree 2 with cross, linear and constant terms: the affine gradient
    "quadratic": lp.Polynomial(coefficients={
        (2, 0, 0): 0.5, (0, 2, 0): 0.3, (0, 0, 2): 0.4, (1, 1, 0): -0.2, (0, 1, 1): 0.15,
        (1, 0, 0): 0.3, (0, 0, 1): -0.1, (0, 0, 0): 2.0,
    }),
}


class Brittle(lp.Potential):
    """V = 0, refusing a point past X1 = 1 with a plain ValueError."""

    def value(self, x):
        return np.zeros(np.shape(x)[:-1])

    def gradient_into(self, x, out):
        if np.any(np.asarray(x)[..., 0] > 1.0):
            raise ValueError("no field past X1 = 1")
        out[...] = 0.0
        return out


class Tilted(lp.Potential):
    """V = X1^2 / 2 + 2 X2 - X3, with no buffer path of its own: an affine
    gradient it does not declare."""

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return x[..., 0] ** 2 / 2 + 2 * x[..., 1] - x[..., 2]

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        return np.stack([x[..., 0], np.full(x.shape[:-1], 2.0),
                         np.full(x.shape[:-1], -1.0)], axis=-1)


def kernel_outcome(kernel, *args):
    """The bytes of a kernel's times and states, or its error's type,
    message and fields."""
    try:
        times, states = kernel(*args)
    except (lp.PotentialSingularityError, lp.NonFiniteStateError) as exc:
        return type(exc), str(exc), vars(exc)
    return times.tobytes(), states.tobytes()


class TestKernelMatchesReference:
    """``_rk4_kernel`` reuses its buffers and shares the midpoint block;
    every step must round exactly as the expression-per-stage reference,
    linear flows included, which ``_integrate_flat`` sends to step maps."""

    @pytest.mark.parametrize("field", list(KERNEL_FIELDS))
    @pytest.mark.parametrize("n", [1, 2, 16])
    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_bytes_equal_reference(self, variant, n, field):
        rng = np.random.default_rng([VARIANT_NAMES.index(variant), n])
        system = random_system(rng, variant, n)
        z0 = random_state(rng, n, box=1.0).flatten()
        # a negative t0 puts -0.0 entries into t * time
        args = (system.masses, system.lowered, KERNEL_FIELDS[field], z0, -0.37, 0.002, 40)
        got = kernel_outcome(dynamics._rk4_kernel, *args)
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
        got = kernel_outcome(dynamics._rk4_kernel, *args)
        assert got[0] is lp.PotentialSingularityError and got[2]["index"] == 1
        assert got == kernel_outcome(integrate_flat_reference, *args)

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_single_particle_singularity_same_as_reference(self, variant):
        rng = np.random.default_rng(11)
        system = random_system(rng, variant, 1)
        field = lp.Newtonian(strength=1.0, center=[0.5, -0.25, 1.0], r_min=0.5)
        z0 = np.array([1.1, -0.25, 1.0, -1.0, 0.0, 0.0])  # falls into the guarded region
        args = (system.masses, system.lowered, field, z0, -0.5, 0.01, 100)
        got = kernel_outcome(dynamics._rk4_kernel, *args)
        assert got[0] is lp.PotentialSingularityError and got[2]["index"] == 0
        assert got[1].endswith("for point 0")
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
        got = kernel_outcome(dynamics._rk4_kernel, *args)
        assert got[0] is lp.NonFiniteStateError and got[2]["particle"] == 1
        assert got == kernel_outcome(integrate_flat_reference, *args)

    @pytest.mark.parametrize("place", ["first", "last"])
    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_nonfinite_at_block_edge_same_as_reference(self, variant, place, monkeypatch):
        rng = np.random.default_rng(7)
        system = random_system(rng, variant, 2)
        field = lp.Polynomial(coefficients={(4, 0, 0): -1.0})
        z0 = np.zeros((2, 6))
        z0[:, 0] = [0.1, 2.0]
        z0[1, 3] = 5.0
        args = (system.masses, system.lowered, field, z0.reshape(-1), 0.0, 0.01, 500)
        expected = kernel_outcome(integrate_flat_reference, *args)
        assert expected[0] is lp.NonFiniteStateError
        step = expected[2]["step"]
        assert step >= 2
        # blocks of `step` steps start one at it; blocks of `step + 1` end one there
        per_block = step if place == "first" else step + 1
        monkeypatch.setattr(dynamics, "_BLOCK_BYTES", per_block * system.lowered.time.nbytes)
        assert kernel_outcome(dynamics._rk4_kernel, *args) == expected

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_nonfinite_before_singularity_in_one_block(self, variant):
        rng = np.random.default_rng(8)
        system = random_system(rng, variant, 2)
        field = lp.Newtonian(strength=1.0, r_min=0.25)
        z0 = np.zeros((2, 6))
        z0[:, 0] = [3.0, 1.0]
        z0[0, 3] = 1e308  # particle 0 overflows in its first step
        z0[1, 3] = -3.0  # particle 1 later falls into the guarded region
        args = (system.masses, system.lowered, field, z0.reshape(-1), -0.5, 0.01, 100)
        second = lp.ParticleSystem(system.particles[1:])
        alone = kernel_outcome(integrate_flat_reference, second.masses, second.lowered,
                               field, z0[1], -0.5, 0.01, 100)
        assert alone[0] is lp.PotentialSingularityError
        singular_step = int(re.search(r"at step (\d+)", alone[1]).group(1))
        assert 0 < singular_step < dynamics._BLOCK_BYTES // system.lowered.time.nbytes
        got = kernel_outcome(dynamics._rk4_kernel, *args)
        assert got[0] is lp.NonFiniteStateError and got[2]["particle"] == 0
        assert got == kernel_outcome(integrate_flat_reference, *args)

    @pytest.mark.parametrize("overflow", [False, True])
    def test_other_potential_error_reraised_unless_a_step_before_failed(self, overflow):
        system = lp.ParticleSystem.from_pairs([1.0, 1.0], [lp.Canonical()] * 2)
        z0 = np.zeros((2, 6))
        z0[1, 3] = 2.0  # particle 1 passes X1 = 1 near step 50
        if overflow:
            z0[0, 4] = 1e308  # particle 0 overflows in its first step
        assert 50 < dynamics._BLOCK_BYTES // system.lowered.time.nbytes
        args = (system.masses, system.lowered, Brittle(), z0.reshape(-1), 0.0, 0.01, 100)
        if overflow:
            with pytest.raises(lp.NonFiniteStateError) as info:
                dynamics._rk4_kernel(*args)
            assert (info.value.step, info.value.particle) == (0, 0)
        else:
            with pytest.raises(ValueError, match="^no field past X1 = 1$") as info:
                dynamics._rk4_kernel(*args)
            assert type(info.value) is ValueError

    def test_block_of_one_step_at_large_n(self):
        n = 240
        rng = np.random.default_rng(9)
        system = random_system(rng, "miao_type_ii", n)
        assert dynamics._BLOCK_BYTES // system.lowered.time.nbytes == 0
        z0 = random_state(rng, n, box=1.0).flatten()
        args = (system.masses, system.lowered, KERNEL_FIELDS["quadratic"], z0, -0.37, 0.002, 3)
        got = kernel_outcome(dynamics._rk4_kernel, *args)
        assert isinstance(got[0], bytes)
        assert got == kernel_outcome(integrate_flat_reference, *args)

    def test_potential_defining_only_gradient_integrates(self):
        rng = np.random.default_rng(10)
        system = random_system(rng, "space_space", 2)
        z0 = random_state(rng, 2, box=1.0).flatten()
        args = (system.masses, system.lowered, Tilted(), z0, 0.25, 0.01, 30)
        got = kernel_outcome(dynamics._rk4_kernel, *args)
        assert isinstance(got[0], bytes)
        assert got == kernel_outcome(integrate_flat_reference, *args)


SLOPE_FREE = ("canonical", "space_time", "theta0_generalized")


def random_flow_system(rng, variant, n):
    """``random_system``, or for "theta0_generalized" one of Generalized
    brackets with theta0 alone, which have no slope."""
    if variant != "theta0_generalized":
        return random_system(rng, variant, n)
    specs = [lp.Generalized(theta0=antisym(rng, (3, 3))) for _ in range(n)]
    return lp.ParticleSystem.from_pairs(rng.uniform(0.5, 4.0, n).tolist(), specs)


class TestStepMapsMatchKernel:
    """A linear flow, with no slope and a field that declares an affine
    gradient, integrates by step maps, within rounding of the kernel; any
    other flow, or a map that leaves a non-finite state, takes the kernel."""

    @pytest.mark.parametrize("field", ["uniform", "quadratic"])
    @pytest.mark.parametrize("n", [1, 2, 16])
    @pytest.mark.parametrize("variant", SLOPE_FREE)
    def test_within_rounding_of_kernel(self, variant, n, field, monkeypatch):
        rng = np.random.default_rng([SLOPE_FREE.index(variant), n])
        system = random_flow_system(rng, variant, n)
        assert system.lowered.slope is None
        z0 = random_state(rng, n, box=1.0).flatten()
        args = (system.masses, system.lowered, KERNEL_FIELDS[field], z0, -0.37, 0.002, 400)
        kernel_times, kernel_states = dynamics._rk4_kernel(*args)
        calls = count_kernel_calls(monkeypatch, "_rk4_kernel")
        times, states = dynamics._integrate_flat(*args)
        assert calls == []
        assert times.tobytes() == kernel_times.tobytes()
        assert np.abs(states - kernel_states).max() <= 1e-12 * np.abs(kernel_states).max()

    def test_particle_bits_independent_of_stack_and_block(self, monkeypatch):
        rng = np.random.default_rng(12)
        system = random_flow_system(rng, "space_time", 5)
        field = KERNEL_FIELDS["quadratic"]
        z0 = random_state(rng, 5, box=1.0).flatten()
        _, stacked = dynamics._integrate_flat(
            system.masses, system.lowered, field, z0, -0.37, 0.002, 300
        )
        # blocks of 7 steps for one particle, where the stack had blocks of 39
        monkeypatch.setattr(dynamics, "_BLOCK_BYTES", 7 * 6 * 7 * 8)
        for a in range(5):
            one = lp.ParticleSystem(system.particles[a : a + 1])
            _, alone = dynamics._integrate_flat(
                one.masses, one.lowered, field, z0[6 * a : 6 * a + 6], -0.37, 0.002, 300
            )
            assert alone.tobytes() == np.ascontiguousarray(stacked[:, 6 * a : 6 * a + 6]).tobytes()

    @pytest.mark.parametrize("variant, field", [
        ("space_space", "uniform"),  # a slope
        ("canonical", "newtonian"),  # a field that is not affine
        # an affine field that does not declare it
        *[(variant, "tilted") for variant in SLOPE_FREE],
    ])
    def test_other_flows_take_kernel(self, variant, field, monkeypatch):
        rng = np.random.default_rng([13, len(variant), len(field)])
        system = random_flow_system(rng, variant, 2)
        z0 = random_state(rng, 2, box=1.0).flatten()
        potential = Tilted() if field == "tilted" else KERNEL_FIELDS[field]
        args = (system.masses, system.lowered, potential, z0, 0.25, 0.01, 30)
        calls = count_kernel_calls(monkeypatch, "_rk4_kernel")
        got = kernel_outcome(dynamics._integrate_flat, *args)
        assert isinstance(got[0], bytes) and len(calls) == 1
        assert got == kernel_outcome(integrate_flat_reference, *args)

    @pytest.mark.parametrize("kernel_fails", [False, True])
    def test_nonfinite_map_gives_kernel_outcome(self, kernel_fails):
        system = lp.ParticleSystem.from_pairs([1.0], [lp.Canonical()])
        if kernel_fails:
            # P1 = -g t runs past float range near t = 180
            field, z0, n_steps = lp.Uniform(g=[1e306, 0.0, 0.0]), np.zeros(6), 400
        else:
            # X1 + dt P1 overflows in the map's product; the kernel's stage
            # velocities P1, 0, 0 and -P1 sum to 0 first, and it lands finite
            field, n_steps = lp.Uniform(g=[0.2e308, 0.0, 0.0]), 1
            z0 = np.array([1.75e308, 0.0, 0.0, 0.1e308, 0.0, 0.0])
        args = (system.masses, system.lowered, field, z0, 0.0, 1.0, n_steps)
        with pytest.raises(lp.NonFiniteStateError), np.errstate(over="ignore", invalid="ignore"):
            dynamics._rk4_step_maps(
                system.masses, system.lowered, field._affine_gradient(), *args[3:]
            )
        expected = kernel_outcome(integrate_flat_reference, *args)
        assert isinstance(expected[0], bytes) is not kernel_fails
        assert kernel_outcome(dynamics._integrate_flat, *args) == expected


# prints, for a uniform and a quadratic field, the sha256 of step-map
# trajectories of 1, 2 and 16 SpaceTime particles, 2000 steps each
STEP_MAP_DIGEST_SCRIPT = """
import hashlib, json
import numpy as np
import liephase as lp
from liephase import dynamics
fields = {
    "uniform": lp.Uniform(g=[0.1, -0.3, 0.2]),
    "quadratic": lp.Polynomial(coefficients={(2, 0, 0): 0.5, (0, 2, 0): 0.3, (0, 0, 2): 0.4,
                                             (1, 1, 0): -0.2, (0, 0, 1): -0.1}),
}
digests = {}
for name, field in fields.items():
    digest = hashlib.sha256()
    for n in (1, 2, 16):
        rng = np.random.default_rng(n)
        system = lp.ParticleSystem.from_pairs(
            rng.uniform(0.5, 4.0, n).tolist(), [lp.SpaceTime(kappa=2.0, rho=1, tau=2)] * n)
        assert dynamics._step_map_field(system.lowered, field) is not None
        _, states = dynamics._integrate_flat(
            system.masses, system.lowered, field, rng.uniform(-1.0, 1.0, 6 * n), -0.37, 1e-3, 2000)
        digest.update(states.tobytes())
    digests[name] = digest.hexdigest()
print(json.dumps(digests))
"""


@pytest.fixture(scope="module")
def step_map_digests():
    """The kernel OpenBLAS took and the script's digests, with the default
    kernel (None) and with the AVX2 kernel (Haswell, which AMD Zen and
    pre-AVX-512 Intel hosts get) and the SSE3 one (Prescott) forced, each
    in its own subprocess."""
    src = str(Path(lp.__file__).resolve().parents[1])
    runs = {}
    for core in (None, "Haswell", "Prescott"):
        env = {**os.environ, "OPENBLAS_VERBOSE": "2", "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.pop("OPENBLAS_CORETYPE", None)
        if core is not None:
            env["OPENBLAS_CORETYPE"] = core
        runs[core] = subprocess.Popen([sys.executable, "-c", STEP_MAP_DIGEST_SCRIPT], env=env,
                                      text=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    outcomes = {}
    for core, process in runs.items():
        out, err = process.communicate(timeout=60)
        assert process.returncode == 0, err
        # OpenBLAS names the kernel it took on stderr, as "Core: <name>"
        taken = re.findall(r"^Core: (\S+)", err, re.MULTILINE)
        outcomes[core] = (taken[-1] if taken else None, json.loads(out))
    return outcomes


class TestStepMapBitsAcrossBlasKernels:
    """A step-map trajectory's bytes do not depend on which kernel OpenBLAS
    picks for the CPU, where the test can make it pick another; the one
    exception known is marked."""

    @pytest.mark.parametrize("core", ["Haswell", "Prescott"])
    @pytest.mark.parametrize("field", ["uniform", "quadratic"])
    def test_same_bytes_as_default_kernel(self, step_map_digests, field, core, request):
        default_core, default = step_map_digests[None]
        taken, forced = step_map_digests[core]
        if taken is None or taken == default_core:
            pytest.skip(f"OpenBLAS did not switch kernels: {core} forced, {taken} taken, "
                        f"{default_core} by default")
        if (field, core) == ("quadratic", "Prescott"):
            # a field whose gradient varies fills the maps, so their products
            # round as the kernel sums them, and the kernels without FMA
            # (Prescott, Sandybridge) sum otherwise: ROADMAP item 20
            request.applymarker(pytest.mark.xfail(strict=True, reason="ROADMAP item 20"))
        assert forced[field] == default[field]


def test_sweep_csv_smoke(tmp_path, monkeypatch):
    monkeypatch.setattr(sweep_csv, "PARTICLES", (1, 2))
    monkeypatch.setattr(sweep_csv, "STEPS", (5,))
    out = tmp_path / "record.json"
    assert sweep_csv.main(["--label", "a", "--repeats", "1", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [(row["case"], row["particles"], row["reduced"]) for row in rows] == [
        ("seeded", 1, False), ("seeded", 1, True), ("seeded", 2, False), ("seeded", 2, True),
        ("body_composition", 1, rows[-1]["reduced"])]
    assert all(row["identical"] and row["row_loop_s"] > 0 and row["write_csv_s"] > 0
               for row in rows)


def test_sweep_linear_flow_smoke(tmp_path, monkeypatch):
    monkeypatch.setattr(sweep_linear_flow, "PARTICLES", (1,))
    monkeypatch.setattr(sweep_linear_flow, "STEPS", (100,))
    out = tmp_path / "record.json"
    assert sweep_linear_flow.main(["--label", "a", "--repeats", "1", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [(row["flow"], row["particles"], row["steps"]) for row in rows] == [
        (flow, 1, 100) for flow in sweep_linear_flow.FLOWS]
    assert all(row["kernel_s"] > 0 and row["maps_s"] > 0 for row in rows)
    assert all(row["max_deviation_over_max_abs_z"] <= 1e-12 for row in rows)


def potential_gradient_calls():
    """The qualified name of the function around every call of ``.gradient``
    or ``.gradient_into`` in the package that may evaluate a potential: all
    such calls in ``dynamics``, and calls elsewhere on something named
    ``potential``.  Observables' gradients are the other calls."""
    return package_calls(
        lambda call, module: isinstance(call.func, ast.Attribute)
        and call.func.attr in ("gradient", "gradient_into")
        and (module == "dynamics" or "potential" in ast.unparse(call.func.value))
    )


def test_one_writer_of_hamiltonian_gradient():
    # grad(H) is written in one place and the oracle evaluates the field on
    # its own; the rest are potentials' own methods
    assert potential_gradient_calls() == {
        "dynamics._write_hamiltonian_gradient",
        "dynamics.closed_form_rhs",
        "dynamics.Potential.gradient_into",  # the fallback to gradient
        "dynamics.Potential.gradient",  # gradient_into a fresh array
    }


def calls_of(name):
    """The scopes around every call in the package of a function or method
    named ``name``."""
    return package_calls(
        lambda call, module: getattr(call.func, "attr", getattr(call.func, "id", None)) == name)


def test_one_owner_of_the_linear_flow_rule():
    # whether a flow is linear decides both its route (the step maps) and
    # whether a body run is exact, in one place, the only reader of a
    # field's affine gradient
    assert calls_of("_affine_gradient") == {"dynamics._step_map_field"}
    assert calls_of("_step_map_field") == {
        "dynamics._integrate_flat",
        "dynamics.integrate_together",
        "dynamics.GravityScenario.__post_init__",
    }


def file_writing_calls():
    """The scopes around every call in the package that opens a file for
    writing: ``os.open``, ``open`` or a ``.open`` method whose mode is not
    a literal read mode, and ``write_text`` or ``write_bytes``."""
    def writes(call, module):
        func = ast.unparse(call.func)
        if func == "os.open" or func.endswith(("write_text", "write_bytes")):
            return True
        if func != "open" and not func.endswith(".open"):
            return False
        position = 1 if func == "open" else 0  # open(file, mode), Path.open(mode)
        modes = [k.value for k in call.keywords if k.arg == "mode"] + call.args[position:][:1]
        if not modes:
            return False
        mode = modes[0]
        return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not set(mode.value) & set("wax+"))
    return package_calls(writes)


def test_one_writer_of_output_files():
    # report.json and the trajectory CSVs are rewritten in place by one
    # writer, which alone opens a file to write
    assert file_writing_calls() == {"dynamics._rewrite"}


def assert_same_trajectories(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.times.tobytes() == b.times.tobytes()
        assert a.states.tobytes() == b.states.tobytes()
        assert a.masses.tobytes() == b.masses.tobytes()


def on_one_grid(rng, systems, t0, potential):
    """Scenarios of the given systems, from random states, on one field and
    a grid of 30 steps from t0."""
    scenarios = []
    for system in systems:
        state = random_state(rng, system.n_particles, box=1.0)
        scenarios.append(lp.GravityScenario(
            system=system, potential=potential, initial=lp.PhaseState(state.x, state.p, t0),
            t0=t0, t_end=t0 + 0.3, dt=0.01,
        ))
    return scenarios


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
        assert_same_trajectories(dynamics.integrate_together([body, partition]), expected)
        assert len(calls) == 1

    @pytest.mark.parametrize("body_mode", [False, True])
    def test_spacespace_runs_with_slopes_equal_separate_runs(self, body_mode, monkeypatch):
        runs = scenario_pair(np.random.default_rng(8), ["space_space"] * 2, 3, body_mode)
        assert runs[0].system.lowered.slope is not None
        expected = [lp.integrate(s) for s in runs]
        calls = count_kernel_calls(monkeypatch)
        assert_same_trajectories(dynamics.integrate_together(runs), expected)
        assert len(calls) == 1

    def test_unequal_slope_presence_stacks(self, monkeypatch):
        runs = scenario_pair(np.random.default_rng(9), ["space_time", "space_space"], 3)
        assert [s.system.lowered.slope is None for s in runs] == [True, False]
        expected = [lp.integrate(s) for s in runs]
        calls = count_kernel_calls(monkeypatch)
        assert_same_trajectories(dynamics.integrate_together(runs), expected)
        # in a field with an affine gradient, runs with and without a slope stack apart
        assert len(calls) == 2

    @pytest.mark.parametrize("field", ["harmonic", "uniform", "quartic", "newtonian"])
    @pytest.mark.parametrize("t0", [-0.37, 0.41])
    @pytest.mark.parametrize("slope_free", ["canonical", "space_time", "theta0_generalized"])
    def test_slope_free_run_stacks_with_zero_slopes(self, slope_free, t0, field, monkeypatch):
        # t0 < 0 puts -0.0 into t * time; in a field with an affine gradient
        # the runs without a slope take the step maps, stacked apart from
        # those with one, and in any other field every run takes the kernel
        # in one stack, with zero slopes for the slope-free runs; all keep
        # every bit of their own runs
        rng = np.random.default_rng([len(slope_free), int(t0 > 0)])
        if slope_free == "theta0_generalized":
            specs = [lp.Generalized(theta0=antisym(rng, (3, 3))) for _ in range(2)]
            free = lp.ParticleSystem.from_pairs([1.5, 2.5], specs)
        else:
            free = random_system(rng, slope_free, 2)
        sloped = random_system(rng, "miao_type_ii", 3)
        assert free.lowered.slope is None and sloped.lowered.slope is not None
        potential = {"harmonic": HARMONIC, "uniform": G_FIELD, "quartic": QUARTIC,
                     "newtonian": POTENTIALS["newtonian"]}[field]
        runs = on_one_grid(rng, [free, sloped], t0, potential)
        expected = [lp.integrate(s) for s in runs]
        calls = count_kernel_calls(monkeypatch)
        assert_same_trajectories(dynamics.integrate_together(runs), expected)
        assert_same_trajectories(dynamics.integrate_together(runs[::-1]), expected[::-1])
        # two stacks per call where the maps apply, else one
        assert len(calls) == (4 if field in ("harmonic", "uniform") else 2)

    def test_run_failing_only_stacked_returns_own_runs(self, monkeypatch):
        # X1 + dt/2 P1 overflows at the first midpoint, where the canonical
        # J ignores it and the step lands finite; a zero slope times inf
        # would be NaN, but the free run is not stacked with the sloped one
        field = lp.Uniform(g=[0.2e308, 0.0, 0.0])
        free = one_particle(lp.Canonical(), x=(1.75e308, 0, 0), p=(0.1e308, 0, 0),
                            t_end=1.0, dt=1.0, potential=field)
        sloped = one_particle(lp.SpaceSpace(kappa_tilde=2.0, k=1, l=2, gamma=3),
                              t_end=1.0, dt=1.0, potential=field)
        expected = [lp.integrate(free), lp.integrate(sloped)]
        assert np.isfinite(expected[0].states).all()
        calls = count_kernel_calls(monkeypatch)
        assert_same_trajectories(dynamics.integrate_together([free, sloped]), expected)
        assert len(calls) == 2  # one stack per kind of run, and neither fails

    def test_failure_names_the_scenario_as_its_own_run(self):
        field = lp.Polynomial(coefficients={(4, 0, 0): -1.0})
        calm = one_particle(lp.Canonical(), x=(0.1, 0, 0), t_end=5.0, dt=0.01, potential=field)
        runaway = one_particle(lp.Canonical(), x=(2, 0, 0), p=(5, 0, 0),
                               t_end=5.0, dt=0.01, potential=field)
        with pytest.raises(lp.NonFiniteStateError) as alone:
            lp.integrate(runaway)
        with pytest.raises(lp.NonFiniteStateError) as stacked:
            dynamics.integrate_together([calm, runaway])
        assert str(stacked.value) == str(alone.value)
        assert vars(stacked.value) == vars(alone.value) and alone.value.particle == 0

    def test_empty_stack_integrates_to_no_trajectories(self):
        assert dynamics.integrate_together([]) == []

    def test_runs_must_share_field_and_grid(self):
        a = one_particle(lp.Canonical())
        for b in (dataclasses.replace(a, potential=lp.Uniform(g=[0.0, 1.0, 0.0])),
                  dataclasses.replace(a, dt=2e-3)):
            with pytest.raises(ValueError, match="share a potential and a grid"):
                dynamics.integrate_together([a, b])


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
            # 333333333.33 steps: refused however far the tolerance grows with the count
            ((0.0, 1000.0, 3e-6), "dt"),
            # half a step off: the tolerance stops at a quarter step however
            # large the count, where 4 eps per step alone would reach 0.5
            ((0.0, 1e15 + 0.5, 1.0), "dt"),
        ],
    )
    def test_grid_must_end_at_t_end(self, grid, field):
        t0, t_end, dt = grid
        with pytest.raises(lp.GridError) as info:
            one_particle(lp.Canonical(), t_end=t_end, dt=dt, t0=t0)
        assert info.value.field == field

    @pytest.mark.parametrize("initial, message", [
        (lp.PhaseState(x=[[0, 0, 0]], p=[[0, 0, 0]], t=0.5),
         r"^initial state time 0\.5 must equal t0 = 0\.0$"),
        (lp.PhaseState(x=np.zeros((2, 3)), p=np.zeros((2, 3)), t=0.0),
         "^initial state size does not match the system$"),
    ])
    def test_initial_state_must_fit_grid_and_system(self, initial, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(one_particle(lp.Canonical()), initial=initial)

    def test_neglect_relative_motion_needs_body_mode(self):
        # a flag that no run would read is refused, as the scenario file refuses it
        with pytest.raises(ValueError,
                           match="^neglect_relative_motion: only meaningful with body_mode$"):
            dataclasses.replace(one_particle(lp.Canonical()), neglect_relative_motion=True)

    def test_rounded_spans_accepted(self):
        # spans whose quotient by dt rounds to either side of the step count
        assert (1.0 - 0.3) / 0.1 < 7 and (1.0 - 0.7) / 0.1 > 3
        assert one_particle(lp.Canonical(), t0=0.3, t_end=1.0, dt=0.1).n_steps() == 7
        assert one_particle(lp.Canonical(), t0=0.7, t_end=1.0, dt=0.1).n_steps() == 3
        assert one_particle(lp.Canonical(), t_end=24 * 0.01, dt=0.01).n_steps() == 24
        assert 0.3 / 0.1 < 3
        assert one_particle(lp.Canonical(), t_end=0.3, dt=0.1).n_steps() == 3
        # one ulp below 1e8: the quotient's rounding outgrows a fixed 1e-9 of
        # a step from about 5e6 steps on.  Built only; integrating 1e8 steps
        # would allocate 4.8 GB
        assert 1000.0 / 1e-5 < 1e8
        assert one_particle(lp.Canonical(), t_end=1000.0, dt=1e-5).n_steps() == 10**8

    def test_numpy_scalar_grid_counts_in_int(self):
        # numpy < 2 rounds a float64 to a float64; the count must be an int
        scen = one_particle(lp.Canonical(), t0=np.float64(0.0), t_end=np.float64(0.3),
                            dt=np.float64(0.1))
        assert type(scen.n_steps()) is int and scen.n_steps() == 3


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

    def test_str_path_and_open_file_get_the_same_bytes(self, tmp_path):
        scen = one_particle(lp.SpaceTime(kappa=1.5), p=(0.1, 0.2, 0.3), t_end=0.1, dt=0.01)
        traj = lp.integrate(scen)
        buf = io.StringIO()
        traj.write_csv(buf, include_reduced_momentum=True)
        traj.write_csv(str(tmp_path / "str.csv"), include_reduced_momentum=True)
        traj.write_csv(tmp_path / "path.csv", include_reduced_momentum=True)
        text = buf.getvalue().encode()
        assert (tmp_path / "str.csv").read_bytes() == (tmp_path / "path.csv").read_bytes() == text

    def test_byte_identical_reruns(self):
        scen = one_particle(lp.SpaceTime(kappa=1.5), p=(0.1, 0.2, 0.3), t_end=0.1, dt=0.01)
        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            lp.integrate(scen).write_csv(buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]


class TestCsvRewrittenInPlace:
    """A path's CSV is rewritten in place: the new bytes over the old ones,
    cut where they end, in the file the path already names."""

    @staticmethod
    def trajectory(t_end):
        scen = one_particle(lp.SpaceTime(kappa=1.5), p=(0.1, 0.2, 0.3), t_end=t_end, dt=0.01)
        return lp.integrate(scen)

    def test_shorter_csv_over_longer_leaves_only_its_bytes(self, tmp_path):
        path = tmp_path / "trajectory.csv"
        self.trajectory(1.0).write_csv(path, include_reduced_momentum=True)
        short = self.trajectory(0.05)
        short.write_csv(path)
        buf = io.StringIO()
        short.write_csv(buf)
        assert path.read_bytes() == buf.getvalue().encode()

    def test_rerun_keeps_the_file_and_its_links(self, tmp_path):
        path, link = tmp_path / "trajectory.csv", tmp_path / "link.csv"
        self.trajectory(1.0).write_csv(path)
        os.link(path, link)
        inode = path.stat().st_ino
        self.trajectory(0.05).write_csv(str(path))
        assert path.stat().st_ino == inode
        assert link.read_bytes() == path.read_bytes()

    def test_old_bytes_stay_until_the_writing_ends(self, tmp_path):
        # not truncated on opening: mid-write, the new bytes lie over the old
        path = tmp_path / "out.txt"
        path.write_text("old old old\n")
        with dynamics._rewrite(path) as fh:
            fh.write("new")
            fh.flush()
            assert path.read_text() == "new old old\n"
        assert path.read_text() == "new"

    def test_devnull_is_written_and_not_cut(self):
        self.trajectory(0.05).write_csv(os.devnull)

    def test_pipe_is_written_and_not_cut(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        self.trajectory(0.05).write_csv(fifo)
        reader.join(timeout=30)
        assert not reader.is_alive()
        buf = io.StringIO()
        self.trajectory(0.05).write_csv(buf)
        assert got == [buf.getvalue().encode()]

    def test_open_file_is_written_at_its_position_and_left_open(self, tmp_path):
        path = tmp_path / "mine.csv"
        with open(path, "w", newline="") as fh:
            fh.write("# before\n")
            self.trajectory(0.05).write_csv(fh)
            assert not fh.closed
            fh.write("# after\n")
        buf = io.StringIO()
        self.trajectory(0.05).write_csv(buf)
        assert path.read_text() == "# before\n" + buf.getvalue() + "# after\n"

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_new_file_gets_the_mode_of_open_w(self, umask, tmp_path):
        previous = os.umask(umask)
        try:
            self.trajectory(0.05).write_csv(tmp_path / "new.csv")
            with open(tmp_path / "reference.csv", "w"):
                pass
        finally:
            os.umask(previous)
        assert (tmp_path / "new.csv").stat().st_mode == (tmp_path / "reference.csv").stat().st_mode

    def test_descriptor_closed_when_wrapping_fails(self, tmp_path):
        # POSIX hands out the lowest free descriptor, so a leaked one shows
        # as the next descriptor moving up
        probe = os.open(os.devnull, os.O_RDONLY)
        os.close(probe)
        with pytest.raises(ValueError):
            with dynamics._rewrite(tmp_path / "out.txt", newline="bogus"):
                pass
        again = os.open(os.devnull, os.O_RDONLY)
        os.close(again)
        assert again == probe


class TestTrajectoryShapes:
    # times (T,), states (T, 6N) and masses (N,), refused by the field at fault
    def test_times_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="^times"):
            lp.Trajectory(times=np.zeros((3, 1)), states=np.zeros((3, 6)), masses=np.ones(1))

    def test_states_need_a_row_per_time(self):
        with pytest.raises(ValueError, match="^states"):
            lp.Trajectory(times=np.zeros(3), states=np.zeros((4, 6)), masses=np.ones(1))

    def test_seven_state_columns_are_refused(self):
        with pytest.raises(ValueError, match="^states"):
            lp.Trajectory(times=np.zeros(3), states=np.zeros((3, 7)), masses=np.ones(1))

    def test_one_mass_for_two_particles_is_refused(self):
        with pytest.raises(ValueError, match="^masses"):
            lp.Trajectory(times=np.zeros(3), states=np.zeros((3, 12)), masses=np.ones(1))


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
        return lp.Trajectory(times=times, states=states, masses=masses)

    @pytest.mark.parametrize("reduced", [False, True])
    @pytest.mark.parametrize("n", [1, 3, 64])
    def test_bytes_equal_cell_writer(self, n, reduced):
        traj = self.trajectory(n)
        got, want = io.StringIO(), io.StringIO()
        traj.write_csv(got, include_reduced_momentum=reduced)
        write_csv_cells(traj, want, include_reduced_momentum=reduced)
        assert got.getvalue() == want.getvalue()
        assert "-0," in got.getvalue() and "4.9406564584124654e-324" in got.getvalue()

    @staticmethod
    def matches(values, n: int = 2, reduced: bool = True) -> str:
        """The CSV of ``values`` laid out row by row as the times and states of
        ``n`` particles of mass 3 (the last row padded with zeros), checked
        against the cell writer; the text it wrote."""
        width = 1 + 6 * n
        values = np.asarray(values, dtype=float).ravel()
        table = np.zeros(-(-values.size // width) * width)
        table[: values.size] = values
        table = table.reshape(-1, width)
        traj = lp.Trajectory(times=table[:, 0].copy(), states=table[:, 1:].copy(),
                             masses=np.full(n, 3.0))
        got, want = io.StringIO(), io.StringIO()
        traj.write_csv(got, include_reduced_momentum=reduced)
        write_csv_cells(traj, want, include_reduced_momentum=reduced)
        assert got.getvalue() == want.getvalue()
        return got.getvalue()

    def test_random_bit_patterns(self):
        # every double is equally likely to be drawn: NaNs, infinities,
        # subnormals and the extremes of both signs included; no reduced
        # momenta, as dividing a signalling NaN warns
        bits = np.random.default_rng(34).integers(0, 2**64, 120_000, dtype=np.uint64)
        self.matches(bits.view(np.float64), n=4, reduced=False)

    def test_zeros_infinities_nans_and_subnormals(self):
        subnormals = np.random.default_rng(5).integers(1, 2**52, 50, dtype=np.uint64)
        values = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                  2.2250738585072009e-308, 2.2250738585072014e-308, -2.2250738585072014e-308]
        text = self.matches(np.concatenate([values, subnormals.view(np.float64)]))
        cells = set(re.split("[,\n]", text))
        assert {"0", "-0", "inf", "-inf", "nan", "4.9406564584124654e-324"} <= cells

    def test_powers_of_ten_and_their_neighbours(self):
        powers = np.array([float(f"1e{k}") for k in range(-30, 31)])
        values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
        self.matches(np.concatenate([values, -values]))

    def test_rounding_that_carries_into_the_next_decade(self):
        # each double lies just below its power of ten, near enough that its
        # 17 significant digits round up to that power
        carries = [1e-243, 1e-176, 1e-79, 1e-70, 1e-14, 1e98, 1e129, 1e153, 1e220]
        for value in carries:
            k = round(math.log10(value))
            assert Fraction(value) < Fraction(10) ** k and f"{value:.17g}" == f"1e{k:+03d}"
        self.matches(np.concatenate([carries, np.negative(carries)]))

    def test_short_decimals(self):
        rng = np.random.default_rng(7)
        decimals = np.rint(rng.uniform(-1e6, 1e6, 4000)) / 10.0 ** rng.integers(0, 9, 4000)
        text = self.matches(np.concatenate([[0.1, 0.25, 1e-5, 123.456], decimals]))
        assert text.splitlines()[1].startswith("0.10000000000000001,0.25,1.0000000000000001e-05,")

    def test_integers_up_to_2_to_the_60(self):
        rng = np.random.default_rng(8)
        integers = rng.integers(-(2**60), 2**60, 4000, endpoint=True)
        powers = [2.0**j + d for j in range(61) for d in (-1.0, 0.0, 1.0)]
        self.matches(np.concatenate([integers.astype(float), powers]))

    def test_blocks_with_a_partial_last_block(self, monkeypatch):
        traj = self.trajectory(3)
        whole = io.StringIO()
        traj.write_csv(whole, include_reduced_momentum=True)
        # two of the seven rows of 1 + 6 * 3 + 3 * 3 values a block: 2, 2, 2, 1
        monkeypatch.setattr(dynamics, "_BLOCK_BYTES", 2 * 8 * 28 + 7)
        got, want = io.StringIO(), io.StringIO()
        traj.write_csv(got, include_reduced_momentum=True)
        write_csv_cells(traj, want, include_reduced_momentum=True)
        assert got.getvalue() == want.getvalue() == whole.getvalue()


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
            assert lp.scenario_fingerprint(gravity) == digest, name

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
        assert lp.scenario_fingerprint(mixed) == "7224322d6cfa4e3f"
        assert lp.scenario_fingerprint(miao) == "72ecf920873c9885"

    def test_array_fields_hashed_exactly(self):
        # numpy prints an array to 8 significant digits by default: two fields
        # that differ past them must not share a fingerprint, and the
        # caller's print options must not move one
        def fingerprint(potential):
            return lp.scenario_fingerprint(
                one_particle(lp.SpaceTime(kappa=1.0), potential=potential))

        third, near = [0.1, -9.81, 1 / 3], [0.1, -9.81, 1 / 3 + 1e-12]
        uniform = fingerprint(lp.Uniform(g=third))
        newtonian = fingerprint(lp.Newtonian(strength=1.0, center=third))
        assert fingerprint(lp.Uniform(g=near)) != uniform
        assert fingerprint(lp.Newtonian(strength=1.0, center=near)) != newtonian
        with np.printoptions(precision=2, floatmode="fixed", suppress=True, threshold=1,
                             sign="+", legacy="1.13"):
            assert fingerprint(lp.Uniform(g=third)) == uniform
            assert fingerprint(lp.Newtonian(strength=1.0, center=third)) == newtonian

    def test_wide_space_space_unchanged(self):
        # 64 particles, as the benchmark's N-body scenario: recorded before the
        # payload was encoded without the circular-reference check
        rng = np.random.default_rng(64)
        masses = rng.uniform(0.5, 3.0, 64)
        gamma = float(rng.uniform(1.0, 3.0))
        wide = lp.GravityScenario(
            system=lp.ParticleSystem.from_pairs(masses.tolist(), [
                lp.SpaceSpace(kappa_tilde=gamma * float(m), k=2, l=3, gamma=1) for m in masses]),
            potential=lp.Polynomial(coefficients={(2, 0, 0): 0.3, (0, 2, 0): 0.5,
                                                  (1, 1, 1): 0.02, (4, 0, 0): 0.01}),
            initial=lp.PhaseState(x=rng.uniform(-1.0, 1.0, (64, 3)),
                                  p=rng.uniform(-0.5, 0.5, (64, 3))),
            t0=0.0, t_end=0.5, dt=0.01,
        )
        assert lp.scenario_fingerprint(wide) == "e8735913e7ae4d96"

    def test_built_only_where_reported(self, monkeypatch, tmp_path):
        # integrating fingerprints nothing; the simulate report fingerprints
        # its main run once, and neither the dt-halving runs nor a partition body
        calls = []
        fingerprint = dynamics.scenario_fingerprint

        def counted(scenario):
            calls.append(scenario)
            return fingerprint(scenario)

        monkeypatch.setattr(dynamics, "scenario_fingerprint", counted)
        monkeypatch.setattr(cli, "scenario_fingerprint", counted)
        runs = scenario_pair(np.random.default_rng(14), ["space_time", "space_space"], 2)
        dynamics.integrate_together(runs)
        lp.integrate(runs[0])
        assert calls == []
        # integrator_order integrates its run at dt, dt/2 and dt/4 apart;
        # body_composition its body and partition body as one stack
        for name, integrations in (("integrator_order", 3), ("body_composition", 1)):
            kernel = count_kernel_calls(monkeypatch)
            assert cli.run(name, str(tmp_path / name)) == 0
            assert len(kernel) == integrations
            assert len(calls) == 1
            report = json.loads((tmp_path / name / "report.json").read_text())
            assert report["results"]["scenario_fingerprint"] == self.BUNDLED[name]
            calls.clear()


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

    def test_runs_of_both_modes_share_one_build(self, monkeypatch):
        scen = one_particle(lp.SpaceTime(kappa=1.0, rho=1, tau=2), mass=2.0, p=(0.4, 0, 0),
                            t_end=0.1, dt=0.01)
        spec, masses = scen.system.specs[0], [1.0, 4.0, 0.5]
        factors = []
        monkeypatch.setattr(algebra, "rescale",
                            lambda base, factor: factors.append(factor) or rescale(base, factor))
        runs = {mode: lp.wep_runs(scen, masses, mode) for mode in ("fixed", "mass_scaled")}
        assert factors == []  # the runs of both modes are lowered from the template alone
        for momenta, _ in runs.values():
            assert not momenta.flags.writeable
            assert np.array_equal(momenta, np.outer(masses, [0.2, 0.0, 0.0]))
        expected = (lower([spec] * 3), lower([rescale(spec, m / 2.0) for m in masses]))
        assert [lowered_bytes(got) for _, got in runs.values()] == [
            lowered_bytes(w) for w in expected]
        # wep_deviation is the builder and the report on its runs
        for mode, (momenta, lowered) in runs.items():
            assert (lp.wep_report(scen, masses, lowered, momenta, mode)
                    == lp.wep_deviation(scen, masses, mode))

    @pytest.mark.parametrize("runs", [1, 16, 1024])
    @pytest.mark.parametrize("variant", [*VARIANT_NAMES, "signed_zero"])
    def test_both_modes_lowered_as_mass_ratios(self, variant, runs, monkeypatch):
        # fixed mode is the template rescaled by (m / m0) ** 0 = 1: the same
        # bytes as the template's own blocks; mass_scaled is rescaled by m / m0
        rng = np.random.default_rng(runs)
        spec = signed_zero_generalized() if variant == "signed_zero" else random_spec(rng, variant)
        scen = one_particle(spec, mass=1.3, p=(0.2, -0.3, 0.1), t_end=0.1, dt=0.01)
        # ratios m / m0 log-uniform over [1e-6, 1e6], both ends included
        ratios = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), runs))
        ratios[: min(runs, 2)] = (1e-6, 1e6)[: min(runs, 2)]
        masses = (1.3 * ratios).tolist()
        expected = {"fixed": lower([spec] * runs),
                    "mass_scaled": lower([rescale(spec, m / 1.3) for m in masses])}
        lowered, factors = [], []
        monkeypatch.setattr(dynamics, "lower",
                            lambda *args, **kw: lowered.append((args, kw)) or lower(*args, **kw))
        monkeypatch.setattr(algebra, "rescale",
                            lambda base, factor: factors.append(factor) or rescale(base, factor))
        for mode, want in expected.items():
            _, got = lp.wep_runs(scen, masses, mode)
            assert lowered_bytes(got) == lowered_bytes(want), mode
            # one lowering per call, in its scaled form, and no spec per run
            (args, kw), = lowered
            assert args == (spec,) and list(kw) == ["mass_ratios"]
            assert len(kw["mass_ratios"]) == runs
            assert factors == []
            lowered.clear()

    @pytest.mark.parametrize("mode", ["fixed", "mass_scaled"])
    def test_overflowing_initial_momentum_names_run_and_mass(self, mode):
        # P(0) = m P'(0) = 2 * 1e308 is not a float
        scen = one_particle(lp.SpaceTime(kappa=1.0, rho=1, tau=2), p=(1e308, 0, 0))
        with pytest.raises(lp.WepRunError) as info:
            lp.wep_deviation(scen, [1.0, 2.0], mode)
        assert str(info.value) == (
            "WEP run 1 (mass 2.0): the initial momentum m P'(0) for mass 2.0 overflows")
        assert info.value.run == 1

    @pytest.mark.parametrize("spec, masses, message", [
        (lp.SpaceTime(kappa=1e-300), [1.0, 2.0, 1e-10],
         "WEP run 2 (mass 1e-10): the parameters rescaled to mass 1e-10: "
         "kappa must have a finite inverse, got 1e-310"),
        (lp.SpaceTime(kappa=1e308), [1.0, 10.0],
         "WEP run 1 (mass 10.0): the parameters rescaled to mass 10.0: "
         "kappa must be nonzero and finite, got inf"),
        # theta0 / 1e-10 overflows in numpy, which the spec refuses
        (lp.Generalized(theta0=[[0, 1e300, 0], [-1e300, 0, 0], [0, 0, 0]]), [1.0, 1e-10],
         "WEP run 1 (mass 1e-10): the parameters rescaled to mass 1e-10: "
         "theta0[0][1]: must be finite"),
    ])
    def test_failed_rescale_names_run_and_mass(self, spec, masses, message):
        with pytest.raises(ValueError) as info:
            lp.wep_deviation(one_particle(spec), masses, "mass_scaled")
        assert str(info.value) == message

    def test_failure_names_run_and_mass(self):
        # the nearly canonical light run escapes the quartic hill first
        pot = lp.Polynomial(coefficients={(4, 0, 0): -1.0, (0, 4, 0): -1.0})
        scen = one_particle(lp.SpaceTime(kappa=1.0, rho=2, tau=1), x=(2, 0, 0), p=(1, 0, 0),
                            dt=0.01, potential=pot)
        with pytest.raises(lp.NonFiniteStateError, match=r"run 1 \(mass 0\.01\)") as info:
            lp.wep_deviation(scen, [1.0, 0.01], "fixed")
        assert info.value.particle == 1

    def test_singularity_names_run_and_mass(self):
        # with fixed parameters the light run falls faster, into the guarded
        # region, while the heavy run 0 stays clear of it
        pot = lp.Newtonian(strength=1.0, r_min=0.5)
        scen = one_particle(lp.SpaceTime(kappa=1.0, rho=1, tau=2), x=(1, 0, 0),
                            dt=0.01, potential=pot)
        lp.integrate(dataclasses.replace(
            scen, system=lp.ParticleSystem.from_pairs([2.0], [scen.system.specs[0]])))
        with pytest.raises(lp.PotentialSingularityError) as info:
            lp.wep_deviation(scen, [2.0, 0.5], "fixed")
        assert str(info.value).startswith(
            "WEP run 1 (mass 0.5): singularity encountered at step 92 (t = 0.92) for particle 1"
        )
        assert info.value.index == 1

    def test_runs_far_apart_give_a_finite_deviation(self, tmp_path):
        # the runs end about 5e299 apart: the squared separation overflows,
        # the distance does not, and an overflow warning is an error here
        theta0 = [[0.0, 1e300, 0.0], [-1e300, 0.0, 0.0], [0.0, 0.0, 0.0]]
        masses = [1.0, 1.0, 1e-10]
        # X1 deviation at t = 1 is (m1 - m2) g theta0[0][1] / 2
        far = 0.5e300 * (1.0 - 1e-10)
        report = lp.wep_deviation(one_particle(lp.Generalized(theta0=theta0)), masses, "fixed")
        positions = [p.position for p in report.pairs]
        assert positions[0] == 0.0
        assert positions[1:] == [pytest.approx(far, rel=1e-12)] * 2

        scenario = {
            "schema_version": 1, "task": "wep-test",
            "algebra": {"variant": "generalized", "theta0": theta0},
            "particles": [{"mass": 1.0}], "initial": {"x": [[0, 0, 0]], "p": [[0, 0, 0]]},
            "grid": {"t0": 0.0, "t_end": 1.0, "dt": 1e-3},
            "potential": {"variant": "uniform", "g": [0, 1, 0]},
            "options": {"masses": masses, "scaling_mode": "fixed"},
        }
        path = tmp_path / "far.scn"
        path.write_text(json.dumps(scenario))
        assert cli.run(str(path), out_dir=str(tmp_path / "out")) == 0
        fixed = json.loads((tmp_path / "out" / "report.json").read_text())["results"]["modes"]
        assert [p["position"] for p in fixed["fixed"]["pairs"]] == positions

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

    @pytest.mark.parametrize("masses, specs, momenta, mode, message", [
        ([1.0, 2.0, 3.0], 2, (3, 3), "fixed", "3 masses need as many specs, got 2"),
        ([1.0, 2.0, 3.0], 3, (2, 3), "fixed",
         r"3 masses need momenta of shape \(3, 3\), got \(2, 3\)"),
        ([1.0, 2.0], 2, (2, 3), "adaptive",
         "scaling_mode must be 'fixed' or 'mass_scaled', got 'adaptive'"),
        ([], 0, (0, 3), "fixed", "need at least one mass"),
    ], ids=["specs", "momenta", "mode", "no-mass"])
    def test_report_refuses_mismatched_runs(self, masses, specs, momenta, mode, message):
        scen = one_particle(lp.SpaceTime(kappa=1.0, rho=1, tau=2), t_end=0.1, dt=0.01)
        with pytest.raises(ValueError, match=f"^{message}$"):
            lp.wep_report(scen, masses, scen.system.specs * specs, np.zeros(momenta), mode)

    @pytest.mark.parametrize("particles, masses, message", [
        (2, [1.0, 2.0], "WEP comparisons are defined for single-particle scenarios"),
        (1, [1.0, -2.0], "masses must be finite and positive, got -2.0 for run 1"),
        (1, [1.0, 0.0], "masses must be finite and positive, got 0.0 for run 1"),
    ], ids=["two-particles", "negative-mass", "zero-mass"])
    def test_report_refuses_what_wep_runs_refuses(self, particles, masses, message):
        spec = lp.SpaceTime(kappa=1.0, rho=1, tau=2)
        scen = dataclasses.replace(
            one_particle(spec, t_end=0.1, dt=0.01),
            system=lp.ParticleSystem.from_pairs([1.0] * particles, [spec] * particles),
            initial=lp.PhaseState(x=np.zeros((particles, 3)), p=np.zeros((particles, 3))),
        )
        with pytest.raises(ValueError, match=f"^{message}$"):
            lp.wep_runs(scen, masses, "fixed")
        with pytest.raises(ValueError, match=f"^{message}$"):
            lp.wep_report(scen, masses, [spec] * len(masses), np.zeros((len(masses), 3)), "fixed")


# (pairs, maxima) of WEP_CASES at 16 masses and 24 steps, as a report that
# held a tuple of PairDeviation made from one norm per run gave them: the
# first 16 hex digits of the sha256 of their repr
WEP_REPORT_DIGESTS = {
    ("spacetime-uniform", "fixed"): "a3fdd60de274fe7b",
    ("spacetime-uniform", "mass_scaled"): "c0f73236ef907da4",
    ("miao2-quartic", "fixed"): "e9f0cdccf15b1515",
    ("miao2-quartic", "mass_scaled"): "ac1c66e8551a85a2",
    ("generalized-newtonian", "fixed"): "5e95c411fbbd2074",
    ("generalized-newtonian", "mass_scaled"): "fc320e833843eda8",
}


def wep_case(case, masses=16):
    spec, potential = WEP_CASES[case]
    template = one_particle(spec, mass=1.3, x=(1.2, -1.1, 1.4), p=(0.2, -0.3, 0.1),
                            t_end=24 * 0.01, dt=0.01, potential=potential)
    return template, [float(m) for m in np.random.default_rng(41).uniform(0.5, 5.0, masses)]


class TestWepReportArray:
    @pytest.fixture
    def built(self, monkeypatch):
        """Counts the PairDeviation objects made."""
        made = []
        init = dynamics.PairDeviation.__init__
        monkeypatch.setattr(dynamics.PairDeviation, "__init__",
                            lambda self, *a, **kw: made.append(1) or init(self, *a, **kw))
        return made

    @pytest.mark.parametrize("mode", ["fixed", "mass_scaled"])
    @pytest.mark.parametrize("case", list(WEP_CASES))
    def test_pairs_made_on_access_equal_the_loop(self, case, mode, built):
        template, masses = wep_case(case)
        report = lp.wep_deviation(template, masses, mode)
        momenta, specs = lp.wep_runs(template, masses, mode)
        assert lp.wep_report(template, masses, specs, momenta, mode) == report
        maxima = report.max_position_deviation, report.max_reduced_momentum_deviation
        assert len(report.pairs) == 120
        pairs = tuple(report.pairs)
        assert len(built) == 120
        text = repr((pairs, *maxima))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == WEP_REPORT_DIGESTS[case, mode]
        assert [report.pairs[k] for k in (0, 7, -1)] == [pairs[0], pairs[7], pairs[-1]]

    def test_index_reads_make_one_pair(self):
        # the pairs are made once, on first read, in the loop's order
        template, masses = wep_case("spacetime-uniform", masses=6)
        report = lp.wep_deviation(template, masses, "fixed")
        assert report.pairs is report.pairs
        pairs = list(itertools.combinations(masses, 2))
        for k in (0, 1, 7, 14, -1, -15):
            got = report.pairs[k]
            assert got.masses == pairs[k]
            assert [got.position, got.reduced_momentum] == report.deviations[k].tolist()
        with pytest.raises(IndexError):
            report.pairs[-16]

    def test_deviations_read_only_in_pair_order(self):
        template, masses = wep_case("spacetime-uniform", masses=5)
        report = lp.wep_deviation(template, masses, "fixed")
        assert report.masses == tuple(masses)
        assert report.deviations.shape == (10, 2) and not report.deviations.flags.writeable
        assert [p.masses for p in report.pairs] == [
            (a, b) for a, b in itertools.combinations(masses, 2)]
        assert [[p.position, p.reduced_momentum] for p in report.pairs] == (
            report.deviations.tolist())
        assert report.pairs[2:4] == tuple(report.pairs)[2:4]
        with pytest.raises(IndexError):
            report.pairs[10]
        with pytest.raises(TypeError):
            hash(report)

    def test_equality_is_the_mode_and_the_pairs(self):
        template, masses = wep_case("spacetime-uniform", masses=3)
        report = lp.wep_deviation(template, masses, "fixed")
        same = dataclasses.replace(report, deviations=report.deviations.copy())
        assert same == report
        assert dataclasses.replace(report, scaling_mode="mass_scaled") != report
        assert dataclasses.replace(report, masses=(1.0, 2.0, 4.0)) != report
        assert dataclasses.replace(report, deviations=report.deviations * 2) != report
        # one run has no pair: only the mode is compared
        one = lp.wep_deviation(template, [1.0], "fixed")
        assert one == lp.wep_deviation(template, [2.0], "fixed")
        assert one.max_position_deviation == one.max_reduced_momentum_deviation == 0.0
        assert tuple(one.pairs) == ()


def random_runs(rng, times, count):
    """(T, B, 2, 3) entries from 1e-300 to 1e200, each triple of one order
    of magnitude (so the order of the sum of squares shows), some ±0.0, and
    the last run's last position so far out that its pairs overflow the
    square."""
    runs = rng.normal(size=(times, count, 2, 3)) * 10.0 ** rng.uniform(
        -300, 200, (times, count, 2, 1))
    runs[rng.random(runs.shape) < 0.05] = 0.0
    runs[rng.random(runs.shape) < 0.05] = -0.0
    if count > 1:
        runs[-1, count - 1, 0] = [1e300, -2e299, 0.0]
    return runs


class TestPairDeviations:
    @pytest.mark.parametrize("times", [1, 2, 25, 1001])
    @pytest.mark.parametrize("count", [1, 2, 3, 16, 64])
    def test_bytes_equal_the_norm_loop(self, count, times):
        runs = random_runs(np.random.default_rng(count * 7919 + times), times, count)
        got = dynamics._pair_deviations(runs)
        assert got.shape == (count * (count - 1) // 2, 2)
        assert got.tobytes() == pair_deviations_loop(runs).tobytes()
        if count > 1:
            assert 1e299 < got[count - 2, 0] < np.inf  # pair (0, B - 1) overflowed the square

    @pytest.mark.parametrize("fit", [1, 2, 3, 14, 15, 16, 29, 30, 119, 120, 240])
    def test_bytes_equal_across_block_edges(self, fit, monkeypatch):
        runs = random_runs(np.random.default_rng(fit), 25, 16)
        pair_bytes = 3 * 2 * 25 * 8
        for budget in (fit * pair_bytes, (fit + 1) * pair_bytes - 1):
            monkeypatch.setattr(dynamics, "_PAIR_BLOCK_BYTES", budget)
            assert dynamics._pair_deviations(runs).tobytes() == (
                pair_deviations_loop(runs).tobytes())

    @pytest.mark.parametrize("count", range(1, 9))
    def test_blocks_cover_each_pair_once_within_the_fit(self, count):
        for fit in range(0, 30):
            pairs = []
            for lo, hi, start, stop in dynamics._pair_blocks(count, fit):
                assert (hi - lo) * (stop - start) <= max(fit, 1)
                pairs += [(i, j) for i in range(lo, hi) for j in range(start, stop) if j > i]
            assert pairs == list(itertools.combinations(range(count), 2))

    @pytest.mark.parametrize("budget", [None, 64 << 10])
    def test_peak_memory_bounded_by_the_block(self, budget, monkeypatch):
        # all 32640 pairs at once would hold about 39 MB of separations
        if budget is not None:
            monkeypatch.setattr(dynamics, "_PAIR_BLOCK_BYTES", budget)
        runs = np.random.default_rng(5).normal(size=(25, 256, 2, 3))
        tracemalloc.start()
        try:
            dynamics._pair_deviations(runs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the component-major copy, the result, one block, and the small
        # arrays and ufunc buffers of a block
        copy, dev = runs.nbytes, 32640 * 2 * 8
        assert peak <= copy + dev + dynamics._PAIR_BLOCK_BYTES + (256 << 10)


def test_sweep_wep_runs_smoke(tmp_path, monkeypatch):
    monkeypatch.setattr(sweep_wep_runs, "MASSES", (2, 3))
    out = tmp_path / "record.json"
    assert sweep_wep_runs.main(["--label", "smoke", "--repeats", "1", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [(row["case"], row["mode"], row["masses"]) for row in rows] == [
        (case, mode, count) for count in (2, 3)
        for case in sweep_wep_report.CASES for mode in sweep_wep_report.MODES]
    assert all(row["label"] == "smoke" and row["ms"] > 0 for row in rows)
    # a few masses take tens of microseconds: timed back to back
    assert {row["calls"] for row in rows} == {sweep_wep_runs.SMALL_CALLS}


def test_sweep_wep_report_smoke(tmp_path, monkeypatch):
    monkeypatch.setattr(sweep_wep_report, "MASSES", (2, 3))
    out = tmp_path / "record.json"
    assert sweep_wep_report.main(["--label", "smoke", "--repeats", "1", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [(row["case"], row["mode"], row["masses"]) for row in rows] == [
        (case, mode, count) for case in sweep_wep_report.CASES
        for count in (2, 3) for mode in sweep_wep_report.MODES]
    assert all(row["label"] == "smoke" and row["ms"] > 0 for row in rows)
    assert all(row["max_position_deviation"] <= 1e-8 for row in rows if row["mode"] == "mass_scaled")


def test_sweep_setup_smoke(tmp_path, monkeypatch):
    monkeypatch.setattr(sweep_setup, "PARTICLES", (2, 3))
    out = tmp_path / "record.json"
    assert sweep_setup.main(["--label", "smoke", "--repeats", "1", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [row["particles"] for row in rows] == [2, 3]
    keys = ("parse_ms", "lower_ms", "fingerprint_ms", "gradient_us", "value_us")
    assert all(row["label"] == "smoke" and all(row[key] > 0 for key in keys) for row in rows)
    # the document is a valid run of the field the sweep times
    scenario = cli.scenario_from_dict(sweep_setup.document(3))
    assert scenario.system.scaling.holds and scenario.potential._affine_gradient() is None


# each sweep's sizes, made tiny
SWEEP_SIZES = {
    sweep_com_checks: {"LOWER_PARTICLES": (1,), "PRODUCT_PARTICLES": (2,)},
    sweep_com_report: {"PARTICLES": (2,)},
    sweep_linear_flow: {"PARTICLES": (1,), "STEPS": (100,)},
    sweep_setup: {"PARTICLES": (2,)},
    sweep_wep_report: {"MASSES": (2,)},
    sweep_wep_runs: {"MASSES": (2,)},
}


@pytest.mark.parametrize("sweep", list(SWEEP_SIZES), ids=lambda sweep: sweep.__name__)
def test_sweep_record_keeps_other_labels(sweep, tmp_path, monkeypatch):
    for name, value in SWEEP_SIZES[sweep].items():
        monkeypatch.setattr(sweep, name, value)
    out = tmp_path / "record.json"
    # an unlabelled row, as earlier versions wrote, and another label's row
    # are kept; the rows of the label measured are replaced
    kept = [{"ms": 1.0}, {"label": "b", "ms": 1.0}]
    out.write_text(json.dumps({"rows": [*kept, {"label": "a", "ms": 1.0}]}))
    assert sweep.main(["--label", "a", "--repeats", "1", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["command"] == f"PYTHONPATH=src python tests/{sweep.__name__}.py --label <name>"
    assert record["rows"][:2] == kept
    rows = record["rows"][2:]
    assert rows and all(row["label"] == "a" and row["gc"] == "off" for row in rows)
    assert {"label": "a", "ms": 1.0} not in rows


def test_sweep_record_times_with_the_collector_off():
    assert gc.isenabled()
    _, results = sweep_record.best_times([lambda: gc.isenabled], repeats=2)
    assert results == [False]
    assert gc.isenabled()


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

    @pytest.mark.parametrize("spec", [lp.SpaceTime(kappa=1.0, rho=1, tau=2),
                                      lp.SpaceSpace(kappa_tilde=1.0)],
                             ids=["space_time", "space_space"])
    def test_unscaled_body_requires_approximation_flag(self, spec):
        # refused when the scenario is built, with the scenario file's message
        system = lp.ParticleSystem.from_pairs([1.0, 2.0], [spec, spec])
        initial = lp.PhaseState(x=np.zeros((2, 3)), p=np.zeros((2, 3)), t=0.0)
        with pytest.raises(ValueError, match=(
                "^neglect_relative_motion: the center of mass of these particles does not "
                "decouple exactly from their relative motion; set it to true")):
            lp.GravityScenario(system=system, potential=G_FIELD, initial=initial,
                               t0=0.0, t_end=1.0, dt=0.01, body_mode=True)

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

    @staticmethod
    def two_body_run(variant, potential):
        """The full run of masses (1, 3), Canonical or mass-scaled SpaceTime,
        in ``potential`` on the grid t in [0, 2], dt 1e-3."""
        make = {"canonical": lambda m: lp.Canonical(),
                "space_time": lambda m: lp.SpaceTime(kappa=2.0 * m, rho=1, tau=2)}[variant]
        system = lp.ParticleSystem.from_pairs([1.0, 3.0], [make(1.0), make(3.0)])
        initial = lp.PhaseState(x=[[0.3, 0.0, 0.0], [-0.4, 0.2, 0.1]],
                                p=[[0.0, 0.2, 0.0], [0.3, -0.1, 0.0]])
        return lp.GravityScenario(system=system, potential=potential, initial=initial,
                                  t0=0.0, t_end=2.0, dt=1e-3)

    @staticmethod
    def body_deviation(full, body):
        """max |body run - full run projected onto (Xcom, Pcom)|."""
        projected = lp.integrate(full).states @ full.system.frame[:6].T
        return np.max(np.abs(projected - lp.integrate(body).states))

    @pytest.mark.parametrize("potential", [G_FIELD, HARMONIC], ids=["uniform", "harmonic"])
    @pytest.mark.parametrize("variant", ["canonical", "space_time"])
    def test_linear_flow_body_is_exact(self, variant, potential):
        full = self.two_body_run(variant, potential)
        body = dataclasses.replace(full, body_mode=True)
        assert self.body_deviation(full, body) <= 1e-10

    @pytest.mark.parametrize("potential", [
        lp.Newtonian(strength=1.0, center=[0.0, -5.0, 0.0]),
        lp.Polynomial(coefficients={(4, 0, 0): 0.1, (0, 2, 0): 0.5}),
    ], ids=["newtonian", "quartic"])
    @pytest.mark.parametrize("variant", ["canonical", "space_time"])
    def test_body_in_a_field_without_affine_gradient_needs_the_flag(self, variant, potential):
        # the field couples the center of mass to the body's shape, whatever the brackets
        full = self.two_body_run(variant, potential)
        with pytest.raises(ValueError, match=(
                "^neglect_relative_motion: the center of mass of these particles does not "
                f"decouple exactly from their relative motion in a {type(potential).__name__} "
                "field, whose gradient is not affine; set it to true")):
            dataclasses.replace(full, body_mode=True)
        body = dataclasses.replace(full, body_mode=True, neglect_relative_motion=True)
        assert self.body_deviation(full, body) > 1e-4  # a real approximation error

    def test_body_rhs_needs_body_mode(self):
        scen = one_particle(lp.Canonical())
        with pytest.raises(ValueError, match="body"):
            lp.body_com_rhs(scen, lp.PhaseState(x=[[0, 0, 0]], p=[[0, 0, 0]]))

    def test_body_rhs_needs_one_com_state(self):
        scen = body_scenario([1.0, 3.0], [2.0, 6.0], [0.0, 0.0, 0.0], [0.1, 0.0, 0.0])
        with pytest.raises(ValueError, match="exactly the COM coordinates"):
            lp.body_com_rhs(scen, scen.initial)


class TestCompositeBodiesFallAlike:
    """Full N-body runs of bodies of different composition and total mass,
    from one COM state in one field: under the mass-scaling condition their
    centers of mass fall alike, with fixed parameters they do not."""

    COMPOSITIONS = [(1, 2), (0.5, 1.5, 1), (0.3, 0.3, 0.4, 2), (5, 2.5), (0.1, 7)]
    FIELD = lp.Uniform(g=[1.3, -2.1, -9.81])
    X_COM, V_COM = np.array([0.2, -0.1, 1.0]), np.array([0.3, 0.5, 0.0])

    def bodies(self, spec, scaled, internal=1.0):
        """One body per composition; ``internal`` multiplies every internal
        offset and velocity."""
        rng = np.random.default_rng(15)
        scenarios = []
        for masses in self.COMPOSITIONS:
            masses = np.asarray(masses, dtype=float)
            system = lp.ParticleSystem.from_pairs(
                masses, [rescale(spec, m) if scaled else spec for m in masses])
            # internal offsets and velocities with no net offset or momentum
            dx, dv = internal * rng.uniform(-0.3, 0.3, (2, len(masses), 3))
            dx -= system.mu @ dx
            dv -= system.mu @ dv
            initial = lp.PhaseState(x=self.X_COM + dx, p=masses[:, None] * (self.V_COM + dv))
            scenarios.append(lp.GravityScenario(system=system, potential=self.FIELD,
                                                initial=initial, t0=0.0, t_end=2.0, dt=1e-3))
        return scenarios

    def com_spread(self, spec, scaled, internal=1.0):
        """max |Xcom(t) - Xcom_ref(t)| over the compositions, the first as reference."""
        scenarios = self.bodies(spec, scaled, internal)
        tracks = [run.states @ scenario.system.frame[:3].T
                  for scenario, run in zip(scenarios, lp.integrate_together(scenarios))]
        assert all(len(track) == 2001 for track in tracks)
        return max(np.max(np.abs(track - tracks[0])) for track in tracks[1:])

    @pytest.mark.parametrize("spec", [lp.SpaceTime(kappa=0.4, rho=1, tau=2),
                                      lp.SpaceSpace(kappa_tilde=0.4)],
                             ids=["space_time", "space_space"])
    def test_scaled_bodies_fall_alike(self, spec):
        assert self.com_spread(spec, scaled=True) <= 1e-10
        assert self.com_spread(spec, scaled=False) > 1e-3

    def test_miao_type_ii_bodies_fall_apart(self):
        spec = lp.MiaoTypeII(kappa=0.4, kappa_tilde=0.6, kappa_bar=0.9)
        assert self.com_spread(spec, scaled=False) > 1e-3
        # scaled MiaoTypeII bodies still fall apart (3.3e-3 here), and not by a
        # fault of the scaling rule: the bilinear term (X_l P_k + X_k P_l) / (kappa_bar m)
        # of X_gamma's velocity has kappa_bar shared, not scaled, and averaged over
        # a body it leaves the internal covariance sum_a mu_a dX_a dP'_a.  So the
        # spread is quadratic in the internal motion: a tenth of it, a hundredth
        spread = self.com_spread(spec, scaled=True)
        assert spread > 1e-3
        assert spread / self.com_spread(spec, scaled=True, internal=0.1) == pytest.approx(
            100, rel=0.01)


class TestSpaceTimeExponentLaws:
    """SpaceTime with kappa_a = kappa0 m_a^alpha, parameters scaling as m^-alpha:
    the COM-relative coupling and the WEP deviation against their closed
    forms, which vanish only at alpha = 1, the paper's scaling rule."""

    KAPPA0 = 0.4
    ALPHAS = [0.0, 0.5, 0.99, 1.0, 1.01, 2.0]

    @staticmethod
    def assert_law(got, want, alpha):
        if alpha == 1.0:
            assert abs(got) <= 1e-10 and want == pytest.approx(0.0, abs=1e-12)
        else:
            assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_com_relative_coupling(self, alpha):
        # {dX_rho^a, Xcom_tau} = t (mu_a theta_a - sum_b mu_b^2 theta_b), theta = 1/kappa,
        # and no other COM-relative bracket of SpaceTime is nonzero
        rng = np.random.default_rng(int(alpha * 100))
        masses = rng.uniform(0.5, 5.0, 4)
        kappas = self.KAPPA0 * masses**alpha
        system = lp.ParticleSystem.from_pairs(
            masses, [lp.SpaceTime(kappa=k, rho=3, tau=1) for k in kappas])
        t = 0.7
        state = lp.PhaseState(x=rng.uniform(-1, 1, (4, 3)), p=rng.uniform(-1, 1, (4, 3)), t=t)
        mu = masses / masses.sum()
        want = t * np.max(np.abs(mu / kappas - np.sum(mu**2 / kappas)))
        self.assert_law(lp.com_relative_coupling(system, state), want, alpha)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_wep_deviation_in_a_uniform_field(self, alpha):
        # X_rho drifts by m g_tau t^2 / (2 kappa) and X_tau by -m g_rho t^2 / (2 kappa),
        # P / m is mass-free, and RK4 is exact on the quadratic trajectory
        rng = np.random.default_rng(int(alpha * 100) + 1)
        masses = rng.uniform(0.5, 5.0, 5).tolist()
        g, t_end = np.array([1.3, -2.1, -9.81]), 1.0
        spec = lp.SpaceTime(kappa=self.KAPPA0, rho=2, tau=3)
        template = one_particle(spec, x=(0.2, -0.1, 1.0), p=(0.3, 0.5, 0.0), t_end=t_end,
                                dt=1e-3, potential=lp.Uniform(g=g))
        runs = [rescale(spec, m**alpha) for m in masses]
        momenta = np.outer(masses, [0.3, 0.5, 0.0])
        report = lp.wep_report(template, masses, runs, momenta, "fixed")
        drift = np.array(masses) ** (1.0 - alpha)
        want = ((drift.max() - drift.min()) * t_end**2 / (2 * self.KAPPA0)
                * np.hypot(g[2], -g[1]))
        self.assert_law(report.max_position_deviation, want, alpha)
        assert report.max_reduced_momentum_deviation <= 1e-10


class TestWepNeedsTheScalingRule:
    """SpaceSpace and MiaoTypeII runs whose parameters scale as m^-alpha, a
    scan of the scaling law's exponent: the WEP holds at alpha = 1, the
    paper's scaling rule, and fails at every other exponent."""

    @pytest.mark.parametrize("spec", [
        lp.SpaceSpace(kappa_tilde=0.4),
        lp.MiaoTypeII(kappa=0.4, kappa_tilde=0.6, kappa_bar=0.9),
    ], ids=["space_space", "miao_type_ii"])
    @pytest.mark.parametrize("alpha", TestSpaceTimeExponentLaws.ALPHAS)
    def test_only_alpha_one_keeps_the_wep(self, spec, alpha):
        masses = [1.0, 2.0, 5.0, 10.0]
        template = one_particle(spec, x=(0.2, -0.1, 1.0), p=(0.3, 0.5, 0.0), t_end=1.0,
                                dt=1e-3, potential=lp.Uniform(g=[1.3, -2.1, -9.81]))
        runs = [rescale(spec, m**alpha) for m in masses]
        momenta = np.outer(masses, [0.3, 0.5, 0.0])
        deviation = lp.wep_report(template, masses, runs, momenta,
                                  "fixed").max_position_deviation
        if alpha == 1.0:
            assert deviation <= 1e-10
        else:
            assert deviation > 1e-3


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
