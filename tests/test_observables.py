"""Observable gradients and arithmetic."""

import numpy as np
import pytest

import liephase as lp
from liephase import observables as obs

from helpers import com_frame_loops, random_state


MU = np.array([0.25, 0.75])


def grad_fd(observable, z, t, eps=1e-6):
    g = np.zeros_like(z)
    for i in range(len(z)):
        dz = np.zeros_like(z)
        dz[i] = eps
        g[i] = (observable.value(z + dz, t) - observable.value(z - dz, t)) / (2 * eps)
    return g


class TestProjections:
    def test_coordinate_projection(self):
        z = np.arange(12.0)
        f = obs.coordinate(1, 2)  # particle 1, axis 2 -> slot 6 + 1 = 7
        assert f.value(z) == 7.0
        g = f.gradient(z)
        assert g[7] == 1.0 and np.count_nonzero(g) == 1

    def test_momentum_projection(self):
        z = np.arange(12.0)
        f = obs.momentum(0, 3)  # slot 3 + 2 = 5
        assert f.value(z) == 5.0

    def test_com_coordinate_weights(self):
        mu = np.array([0.25, 0.75])
        f = obs.com_coordinate(mu, 1)
        z = np.zeros(12)
        z[0], z[6] = 4.0, 8.0
        assert f.value(z) == pytest.approx(0.25 * 4 + 0.75 * 8, abs=0)

    def test_com_momentum_sums_particles(self):
        f = obs.com_momentum(2, 2)
        z = np.zeros(12)
        z[4], z[10] = 1.5, 2.5
        assert f.value(z) == 4.0

    def test_relative_coordinate_vanishes_for_single_particle(self):
        f = obs.relative_coordinate(np.array([1.0]), 0, 1)
        z = np.arange(6.0)
        assert f.value(z) == 0.0
        assert np.all(f.gradient(z) == 0.0)

    def test_relative_momentum_weights(self):
        mu = np.array([0.25, 0.75])
        f = obs.relative_momentum(mu, 0, 1)
        z = np.zeros(12)
        z[3], z[9] = 2.0, 2.0  # P1 of both particles
        # dP^(0) = P^(0) - mu_0 (P^(0) + P^(1)) = 2 - 0.25 * 4
        assert f.value(z) == pytest.approx(1.0, abs=0)

    @pytest.mark.parametrize("make, args, name", [
        (obs.coordinate, (0, 4), "axis"),
        (obs.coordinate, (-1, 1), "particle"),
        (obs.momentum, (0, 0), "axis"),
        (obs.momentum, (-1, 2), "particle"),
        (obs.momentum, (0, 1.0), "axis"),
        (obs.com_coordinate, (MU, 4), "axis"),
        (obs.com_coordinate, (MU, 0), "axis"),
        (obs.com_momentum, (2, 4), "axis"),
        (obs.com_momentum, (0, 1), "n_particles"),
        (obs.relative_coordinate, (MU, -1, 1), "particle"),
        (obs.relative_coordinate, (MU, 2, 1), "particle"),
        (obs.relative_momentum, (MU, 0, 4), "axis"),
        (obs.relative_momentum, (MU, 2, 3), "particle"),
    ], ids=lambda v: getattr(v, "__name__", None))
    def test_index_outside_the_system_refused(self, make, args, name):
        # refused when made, not when first evaluated: at 2 particles,
        # com_coordinate(mu, 4) would read the Pcom_1 row
        with pytest.raises(ValueError, match=f"^{name} must be an integer in"):
            make(*args)

    def test_numpy_integer_indices_accepted(self):
        z = np.arange(12.0)
        one, three = np.int64(1), np.int64(3)
        for got, want in (
            (obs.coordinate(one, three), obs.coordinate(1, 3)),
            (obs.momentum(one, three), obs.momentum(1, 3)),
            (obs.com_coordinate(MU, three), obs.com_coordinate(MU, 3)),
            (obs.com_momentum(np.int64(2), three), obs.com_momentum(2, 3)),
            (obs.relative_coordinate(MU, one, three), obs.relative_coordinate(MU, 1, 3)),
            (obs.relative_momentum(MU, one, three), obs.relative_momentum(MU, 1, 3)),
        ):
            assert got.label == want.label
            assert got.gradient(z).tobytes() == want.gradient(z).tobytes()


def seeded_mu(seed, n):
    masses = np.random.default_rng(seed).uniform(0.1, 10.0, n)
    return masses / masses.sum()


class TestComFrame:
    @pytest.mark.parametrize("n", range(1, 21))
    def test_bytes_equal_weight_loops(self, n):
        for seed in range(3):
            mu = seeded_mu(seed, n)
            assert obs.com_frame(mu).tobytes() == com_frame_loops(mu).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 5, 20])
    def test_applied_to_state_matches_com_transform(self, n):
        rng = np.random.default_rng(n)
        system = lp.ParticleSystem.from_pairs(rng.uniform(0.5, 4.0, n), [lp.Canonical()] * n)
        state = random_state(rng, n)
        com = lp.com_transform(system, state)
        want = np.concatenate([com.x_com, com.p_com, com.dx.ravel(), com.dp.ravel()])
        got = system.frame @ state.flatten()
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_observables_read_rows(self):
        n = 4
        mu = seeded_mu(7, n)
        z = np.random.default_rng(8).uniform(-3.0, 3.0, 6 * n)
        w = obs.com_frame(mu)
        rows = (
            [obs.com_coordinate(mu, i) for i in (1, 2, 3)]
            + [obs.com_momentum(n, i) for i in (1, 2, 3)]
            + [obs.relative_coordinate(mu, a, i) for a in range(n) for i in (1, 2, 3)]
            + [obs.relative_momentum(mu, a, i) for a in range(n) for i in (1, 2, 3)]
        )
        for row, o in zip(w, rows):
            assert o.gradient(z).tobytes() == row.tobytes()
            assert o.value(z) == float(row @ z)

    @pytest.mark.parametrize("size", [6, 18])
    def test_wrong_phase_vector_length_rejected(self, size):
        mu = seeded_mu(1, 2)
        for o in (obs.com_coordinate(mu, 1), obs.com_momentum(2, 2),
                  obs.relative_coordinate(mu, 0, 3), obs.relative_momentum(mu, 1, 1)):
            with pytest.raises(ValueError, match="length 12"):
                o.gradient(np.zeros(size))

    def test_system_frame_is_cached_and_read_only(self):
        system = lp.ParticleSystem.from_pairs([1.0, 3.0], [lp.Canonical()] * 2)
        assert system.frame is system.frame
        with pytest.raises(ValueError):
            system.frame[0, 0] = 1.0


class TestArithmetic:
    def test_sum_and_scalar_multiple(self):
        z = np.arange(6.0)
        f = 2.0 * obs.coordinate(0, 1) + obs.momentum(0, 1) - 1.0
        assert f.value(z) == pytest.approx(2.0 * 0.0 + 3.0 - 1.0, abs=0)
        assert np.allclose(f.gradient(z), [2, 0, 0, 1, 0, 0])

    def test_product_gradient_is_leibniz(self):
        rng = np.random.default_rng(0)
        z = rng.uniform(-2, 2, 6)
        f = obs.coordinate(0, 1) * obs.momentum(0, 2)
        g = (obs.coordinate(0, 2) + obs.momentum(0, 3)) * obs.coordinate(0, 1)
        for o in (f, g, f * g, 0.5 * f + g):
            assert np.allclose(o.gradient(z, 0.0), grad_fd(o, z, 0.0), atol=1e-8)

    def test_user_supplied_smooth_function(self):
        def value(z, t):
            return float(np.sin(z[0]) * z[3] + t)

        def gradient(z, t):
            g = np.zeros_like(z)
            g[0] = np.cos(z[0]) * z[3]
            g[3] = np.sin(z[0])
            return g

        f = obs.Observable(value, gradient, label="sin(X1)*P1 + t")
        state = lp.PhaseState(x=[[0.7, 0, 0]], p=[[1.2, 0, 0]], t=0.5)
        z = state.flatten()
        assert np.allclose(f.gradient(z, 0.5), grad_fd(f, z, 0.5), atol=1e-8)
        # its bracket with a projection follows the chain rule
        value = lp.bracket(f, obs.momentum(0, 1), [lp.Canonical()], state)
        assert value == pytest.approx(np.cos(0.7) * 1.2, rel=1e-12)
