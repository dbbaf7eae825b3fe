"""Structure matrices, bracket evaluation and the Jacobi identity."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liephase as lp
from liephase import observables as obs
from liephase.algebra import AXIS, PARAMETER_ROLES, SCALED, SHARED, lower, parameter_roles, rescale
from liephase.composition import _table_xp_deform, _table_xx

from helpers import (
    DEFORMED_NAMED_VARIANTS,
    VARIANT_NAMES,
    antisym,
    lower_via_generalized,
    random_spec,
    random_state,
    tensor_with,
)


def single_state(x, p, t=0.0):
    return lp.PhaseState(x=[x], p=[p], t=t)


class TestStructureMatrix:
    def test_spacetime_time_valued_entry(self):
        spec = lp.SpaceTime(kappa=4.0, rho=1, tau=2)
        j = lp.structure_matrix([spec], single_state([0, 0, 0], [0, 0, 0], t=2.0)).matrix
        assert j[0, 1] == pytest.approx(0.5, abs=0)
        assert j[1, 2] == 0.0
        assert j[0, 2] == 0.0

    def test_canonical_is_standard_symplectic(self):
        j = lp.structure_matrix([lp.Canonical()], single_state([1, 2, 3], [4, 5, 6], t=7.0)).matrix
        expected = np.zeros((6, 6))
        expected[:3, 3:] = np.eye(3)
        expected[3:, :3] = -np.eye(3)
        assert np.array_equal(j, expected)

    def test_spacespace_table_entries(self):
        spec = lp.SpaceSpace(kappa_tilde=2.0, k=1, l=2, gamma=3)
        j = lp.structure_matrix([spec], single_state([5, 7, 0], [1, 1, 1])).matrix
        assert j[0, 2] == pytest.approx(3.5, abs=0)   # {X1, X3} = X2 / kt
        assert j[1, 2] == pytest.approx(-2.5, abs=0)  # {X2, X3} = -X1 / kt
        assert j[3, 2] == pytest.approx(0.5, abs=0)   # {P1, X3} = P2 / kt
        # the gamma column of the X-P block stays canonical
        assert j[0, 5] == 0.0
        assert j[1, 5] == 0.0
        assert j[2, 5] == 1.0

    def test_miao_type_i_time_terms(self):
        spec = lp.MiaoTypeI(kappa=2.0, kappa_tilde=4.0, k=1, l=2, gamma=3)
        j = lp.structure_matrix([spec], single_state([1, 2, 3], [0, 0, 0], t=1.0)).matrix
        assert j[0, 1] == pytest.approx(0.5)          # {X_k, X_l} = t / kappa
        assert j[0, 2] == pytest.approx(-0.5 + 0.5)   # -t/kappa + X_l/kt
        assert j[1, 2] == pytest.approx(0.5 - 0.25)   # t/kappa - X_k/kt

    def test_miao_type_ii_momentum_coordinate_terms(self):
        spec = lp.MiaoTypeII(kappa=2.0, kappa_tilde=4.0, kappa_bar=8.0, k=1, l=2, gamma=3)
        j = lp.structure_matrix([spec], single_state([1, 2, 3], [5, 6, 7], t=1.0)).matrix
        assert j[0, 1] == 0.0                         # {X_k, X_l} = 0 for type II
        # {P_k, X_gamma} = X_l/kb + P_l/kt
        assert j[3, 2] == pytest.approx(2.0 / 8.0 + 6.0 / 4.0)
        # {P_l, X_gamma} = X_k/kb - P_k/kt
        assert j[4, 2] == pytest.approx(1.0 / 8.0 - 5.0 / 4.0)

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_antisymmetric_exactly(self, variant):
        rng = np.random.default_rng(10)
        for _ in range(170):
            spec = random_spec(rng, variant)
            state = random_state(rng, 1)
            j = lp.structure_matrix([spec], state).matrix
            assert np.max(np.abs(j + j.T)) == 0.0

    def test_block_diagonal_across_particles(self):
        rng = np.random.default_rng(11)
        specs = [random_spec(rng, "miao_type_ii") for _ in range(3)]
        # shared axes are required within a system; rebuild with axis agreement
        first = specs[0]
        specs = [first] + [
            lp.MiaoTypeII(
                kappa=s.kappa, kappa_tilde=s.kappa_tilde, kappa_bar=s.kappa_bar,
                k=first.k, l=first.l, gamma=first.gamma,
            )
            for s in specs[1:]
        ]
        state = random_state(rng, 3)
        j = lp.structure_matrix(specs, state).matrix
        for a in range(3):
            for b in range(3):
                if a != b:
                    block = j[6 * a : 6 * a + 6, 6 * b : 6 * b + 6]
                    assert np.all(block == 0.0)

    def test_size_mismatch_rejected(self):
        state = random_state(np.random.default_rng(0), 2)
        with pytest.raises(ValueError, match="specs"):
            lp.structure_matrix([lp.Canonical()], state)


class TestSpecValidation:
    def test_rho_equals_tau_rejected(self):
        with pytest.raises(ValueError, match="rho"):
            lp.SpaceTime(kappa=1.0, rho=2, tau=2)

    def test_axes_must_be_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            lp.SpaceSpace(kappa_tilde=1.0, k=1, l=1, gamma=3)

    def test_nonpositive_kappa_rejected(self):
        with pytest.raises(ValueError, match="kappa"):
            lp.SpaceTime(kappa=0.0)
        with pytest.raises(ValueError, match="kappa"):
            lp.SpaceTime(kappa=-1.0)

    def test_zero_kappa_tilde_rejected(self):
        with pytest.raises(ValueError, match="kappa_tilde"):
            lp.SpaceSpace(kappa_tilde=0.0)

    def test_nonfinite_parameters_rejected(self):
        with pytest.raises(ValueError):
            lp.MiaoTypeII(kappa=1.0, kappa_tilde=1.0, kappa_bar=float("nan"))

    def test_theta0_antisymmetry_enforced(self):
        bad = np.zeros((3, 3))
        bad[0, 1] = 1.0  # no mirrored entry
        with pytest.raises(ValueError, match="theta0"):
            lp.Generalized(theta0=bad)

    def test_theta_slices_antisymmetry_enforced(self):
        bad = np.zeros((3, 3, 3))
        bad[0, 1, 2] = 1.0
        with pytest.raises(ValueError, match="theta"):
            lp.Generalized(theta=bad)

    @pytest.mark.parametrize("make, message", [
        (lambda: lp.Generalized(theta=tensor_with((3, 3, 3), (0, 1, 2), 1.0)),
         r"^theta\[0\]\[1\]\[2\]: must be antisymmetric in its lower index pair$"),
        (lambda: lp.Generalized(theta_bar=tensor_with((3, 3, 3), (2, 1, 0), np.nan)),
         r"^theta_bar\[2\]\[1\]\[0\]: must be finite"),
        (lambda: lp.Generalized(theta0=np.zeros((3, 2))), r"^theta0: must have shape \(3, 3\)"),
        (lambda: lp.MiaoTypeI(kappa=1.0, kappa_tilde=1.0, k=2, l=2, gamma=1),
         r"^\(k, l, gamma\) must be distinct axes"),
    ])
    def test_error_names_the_entry(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_phase_state_requires_finite_entries(self):
        with pytest.raises(ValueError, match="finite"):
            lp.PhaseState(x=[[np.inf, 0, 0]], p=[[0, 0, 0]])

    def test_phase_state_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            lp.PhaseState(x=[[0, 0, 0]], p=[[0, 0]])


class TestAsGeneralized:
    def test_canonical_maps_to_zero_tensors(self):
        g = lp.as_generalized(lp.Canonical())
        assert not np.any(g.theta0)
        assert not np.any(g.theta)
        assert not np.any(g.theta_bar)
        assert not np.any(g.theta_tilde)

    def test_spacetime_tensor_entries(self):
        g = lp.as_generalized(lp.SpaceTime(kappa=4.0, rho=1, tau=2))
        assert g.theta0[0, 1] == 0.25
        assert g.theta0[1, 0] == -0.25
        assert np.count_nonzero(g.theta0) == 2
        assert not np.any(g.theta)
        assert not np.any(g.theta_bar)
        assert not np.any(g.theta_tilde)

    def test_spacespace_coordinate_tensor_antisymmetric(self):
        spec = lp.SpaceSpace(kappa_tilde=2.0, k=1, l=2, gamma=3)
        g = lp.as_generalized(spec)
        # theta^l_{k gamma} = -theta^k_{l gamma} = 1/kt
        assert g.theta[1, 0, 2] == 0.5
        assert g.theta[0, 1, 2] == -0.5
        assert np.array_equal(g.theta, -np.swapaxes(g.theta, 1, 2))

    def test_spacespace_momentum_tensor_is_gamma_row_only(self):
        spec = lp.SpaceSpace(kappa_tilde=2.0, k=1, l=2, gamma=3)
        g = lp.as_generalized(spec)
        # deformation confined to the gamma row of the X-P table: the exact
        # encoding is one-sided, an antisymmetric slice would deform
        # {X_k, P_gamma} and violate Jacobi
        assert g.theta_tilde[1, 2, 0] == -0.5
        assert g.theta_tilde[0, 2, 1] == 0.5
        assert g.theta_tilde[1, 0, 2] == 0.0
        assert g.theta_tilde[0, 1, 2] == 0.0

    @pytest.mark.parametrize(
        "variant", ["space_time", "space_space", "miao_type_i", "miao_type_ii"]
    )
    def test_roundtrip_matches_table_exactly(self, variant):
        # the evaluator (through the tensor encoding) against the independent
        # closed-form tables; the tables divide by kappa where the encoding
        # multiplies by its reciprocal, so compare relative beyond one
        rng = np.random.default_rng(12)
        for _ in range(10):
            spec = random_spec(rng, variant)
            for _ in range(10):
                state = random_state(rng, 1)
                j = lp.structure_matrix([spec], state).matrix
                args = (spec, state.x[0], state.p[0], state.t)
                for got, table in (
                    (j[:3, :3], _table_xx(*args)),
                    (j[:3, 3:], np.eye(3) + _table_xp_deform(*args)),
                ):
                    assert np.max(np.abs(got - table) / np.maximum(1.0, np.abs(table))) <= 1e-15

    def test_generalized_passes_through(self):
        g = lp.Generalized(theta0=antisym(np.random.default_rng(0), (3, 3)))
        assert lp.as_generalized(g) is g


class TestLowering:
    @staticmethod
    def signed_zero_generalized() -> lp.Generalized:
        theta0 = np.array([[0.0, -0.0, 0.5], [0.0, 0.0, 0.0], [-0.5, -0.0, 0.0]])
        theta = np.full((3, 3, 3), -0.0)
        theta[1, 0, 2], theta[1, 2, 0] = 0.25, -0.25
        theta_bar = np.full((3, 3, 3), -0.0)
        theta_bar[2, 0, 1] = 0.75
        theta_tilde = np.zeros((3, 3, 3))
        theta_tilde[0, 2, 1] = -0.0
        return lp.Generalized(theta0=theta0, theta=theta, theta_bar=theta_bar,
                              theta_tilde=theta_tilde)

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_bytes_equal_validated_encoding(self, variant):
        rng = np.random.default_rng(21)
        for n in (1, 4):
            specs = [random_spec(rng, variant) for _ in range(n)]
            lowered = lower(specs)
            time, slope = lower_via_generalized(specs)
            assert lowered.time.tobytes() == time.tobytes()
            if lowered.slope is None:
                assert not slope.any()
            else:
                assert lowered.slope.tobytes() == slope.tobytes()

    def test_signed_zeros_kept(self):
        specs = [self.signed_zero_generalized(), lp.SpaceTime(kappa=2.0)]
        lowered = lower(specs)
        time, slope = lower_via_generalized(specs)
        assert lowered.time.tobytes() == time.tobytes()
        assert lowered.slope.tobytes() == slope.tobytes()
        assert np.signbit(lowered.time[0, 0, 1])

    def test_as_generalized_still_validates(self):
        g = lp.as_generalized(lp.MiaoTypeII(kappa=1.0, kappa_tilde=2.0, kappa_bar=3.0))
        assert isinstance(g, lp.Generalized)
        for tensor in (g.theta0, g.theta, g.theta_bar, g.theta_tilde):
            assert not tensor.flags.writeable
        bad = np.zeros((3, 3))
        bad[0, 1] = 1.0
        with pytest.raises(ValueError, match="theta0"):
            lp.Generalized(theta0=bad)

    def test_parameter_with_overflowing_inverse_rejected(self):
        # the encoding holds 1 / kappa, which a subnormal kappa overflows
        with pytest.raises(ValueError, match="kappa must have a finite inverse"):
            lp.SpaceTime(kappa=1e-310)
        with pytest.raises(ValueError, match="kappa_bar must have a finite inverse"):
            lp.MiaoTypeII(kappa=1.0, kappa_tilde=1.0, kappa_bar=-2e-309)
        assert lower([lp.SpaceSpace(kappa_tilde=1e-300)]).slope.max() == 1.0 / 1e-300


class TestBracket:
    def test_conjugate_pair(self):
        state = random_state(np.random.default_rng(1), 1)
        value = lp.bracket(obs.coordinate(0, 1), obs.momentum(0, 1), [lp.Canonical()], state)
        assert value == 1.0

    def test_cross_particle_brackets_vanish(self):
        rng = np.random.default_rng(2)
        specs = [lp.SpaceTime(kappa=1.0), lp.SpaceTime(kappa=2.0)]
        state = random_state(rng, 2)
        value = lp.bracket(obs.coordinate(0, 1), obs.coordinate(1, 2), specs, state)
        assert value == 0.0

    def test_bilinearity(self):
        spec = lp.SpaceTime(kappa=1.0, rho=1, tau=2)
        state = single_state([0, 0, 0], [0, 0, 0], t=3.0)
        f = obs.coordinate(0, 1) + obs.coordinate(0, 2)
        value = lp.bracket(f, obs.coordinate(0, 2), [spec], state)
        assert value == pytest.approx(3.0, abs=1e-15)

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_antisymmetry_under_swap(self, variant):
        rng = np.random.default_rng(3)
        spec = random_spec(rng, variant)
        state = random_state(rng, 1)
        fs = [obs.coordinate(0, 1), obs.momentum(0, 2),
              obs.coordinate(0, 3) * obs.momentum(0, 1)]
        gs = [obs.coordinate(0, 2) * obs.coordinate(0, 1), obs.momentum(0, 3)]
        for f in fs:
            for g in gs:
                fwd = lp.bracket(f, g, [spec], state)
                bwd = lp.bracket(g, f, [spec], state)
                assert abs(fwd + bwd) <= 1e-13 * max(1.0, abs(fwd))

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_leibniz_rule(self, variant):
        rng = np.random.default_rng(4)
        spec = random_spec(rng, variant)
        state = random_state(rng, 1, box=3.0)
        z, t = state.flatten(), state.t

        def poly(seed):
            r = np.random.default_rng(seed)
            terms = []
            for _ in range(3):
                factors = [
                    obs.coordinate(0, int(r.integers(1, 4))),
                    obs.momentum(0, int(r.integers(1, 4))),
                ]
                term = float(r.uniform(-1, 1)) * factors[0] * factors[1]
                terms.append(term)
            return terms[0] + terms[1] + terms[2]

        f, g, h = poly(10), poly(11), poly(12)
        lhs = lp.bracket(f * g, h, [spec], state)
        rhs = f.value(z, t) * lp.bracket(g, h, [spec], state) + g.value(z, t) * lp.bracket(
            f, h, [spec], state
        )
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @settings(max_examples=40, deadline=None)
    @given(
        kappa=st.floats(0.5, 5.0),
        t=st.floats(-10.0, 10.0),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_bracket_antisymmetry_property(self, kappa, t, seed):
        rng = np.random.default_rng(seed)
        spec = lp.MiaoTypeI(kappa=kappa, kappa_tilde=2.0)
        state = lp.PhaseState(x=rng.uniform(-5, 5, (1, 3)), p=rng.uniform(-5, 5, (1, 3)), t=t)
        f = obs.coordinate(0, 1) * obs.momentum(0, 2)
        g = obs.coordinate(0, 3)
        assert lp.bracket(f, g, [spec], state) == pytest.approx(
            -lp.bracket(g, f, [spec], state), abs=1e-13
        )


# per-particle spec factories: the named deformed variants, a
# Jacobi-consistent tensor encoding and unconstrained (non-Jacobi) tensors
FD_CASES = {
    **{v: (lambda rng, v=v: random_spec(rng, v)) for v in DEFORMED_NAMED_VARIANTS},
    "encoded_miao_type_ii": lambda rng: lp.as_generalized(random_spec(rng, "miao_type_ii")),
    "generalized": lambda rng: random_spec(rng, "generalized"),
}


class TestJacobi:
    def test_canonical_residual_is_zero(self):
        state = random_state(np.random.default_rng(5), 1)
        assert lp.jacobi_residual([lp.Canonical()], state) == 0.0

    @pytest.mark.parametrize(
        "variant", ["canonical", "space_time", "space_space", "miao_type_i", "miao_type_ii"]
    )
    def test_named_variants_satisfy_jacobi(self, variant):
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(100):
            spec = random_spec(rng, variant)
            state = random_state(rng, 1)
            worst = max(worst, lp.jacobi_residual([spec], state))
        assert worst <= 1e-10

    def test_unconstrained_tensors_violate_jacobi(self):
        theta = np.zeros((3, 3, 3))
        theta[0, 1, 2], theta[0, 2, 1] = 1.0, -1.0
        theta_bar = np.zeros((3, 3, 3))
        theta_bar[1, 0, 2], theta_bar[1, 2, 0] = 1.0, -1.0
        spec = lp.Generalized(theta=theta, theta_bar=theta_bar)
        state = single_state([1, 1, 1], [1, 1, 1], t=1.0)
        assert lp.jacobi_residual([spec], state) > 0.1

    @pytest.mark.parametrize("n_particles", [1, 3])
    @pytest.mark.parametrize("variant", list(FD_CASES))
    def test_finite_difference_path_agrees(self, variant, n_particles):
        rng = np.random.default_rng(7)
        specs = [FD_CASES[variant](rng) for _ in range(n_particles)]
        state = random_state(rng, n_particles, box=3.0)
        exact = lp.jacobi_residual(specs, state)
        fd = lp.jacobi_residual(specs, state, fd_step=1e-5, use_fd=True)
        assert abs(exact - fd) <= 1e-6

    def test_residual_is_worst_single_particle_residual(self):
        rng = np.random.default_rng(13)
        kinds = ["generalized", "miao_type_ii", "space_space"]
        specs = [random_spec(rng, kinds[a % 3]) for a in range(200)]
        state = random_state(rng, 200, box=3.0)
        singles = [
            lp.jacobi_residual(
                [spec], lp.PhaseState(x=state.x[a : a + 1], p=state.p[a : a + 1], t=state.t)
            )
            for a, spec in enumerate(specs)
        ]
        assert max(singles) > 0.1
        assert lp.jacobi_residual(specs, state) == max(singles)

    def test_fd_step_must_be_positive(self):
        state = random_state(np.random.default_rng(8), 1)
        with pytest.raises(ValueError, match="fd_step"):
            lp.jacobi_residual([lp.Canonical()], state, fd_step=0.0)

    def test_multi_particle_residual(self):
        rng = np.random.default_rng(9)
        spec = lp.MiaoTypeI(kappa=1.0, kappa_tilde=2.0)
        state = random_state(rng, 2)
        assert lp.jacobi_residual([spec, spec], state) <= 1e-10


class TestRescale:
    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_parameter_roles(self, variant):
        spec = random_spec(np.random.default_rng(14), variant)
        heavier = rescale(spec, 2.5)
        assert type(heavier) is type(spec)
        for name in ("kappa", "kappa_tilde"):
            if hasattr(spec, name):
                assert getattr(heavier, name) == getattr(spec, name) * 2.5
        for name in ("theta0", "theta", "theta_tilde"):
            if hasattr(spec, name):
                assert np.array_equal(getattr(heavier, name), getattr(spec, name) / 2.5)
        for name in ("kappa_bar", "theta_bar", "rho", "tau", "k", "l", "gamma"):
            if hasattr(spec, name):
                assert np.array_equal(getattr(heavier, name), getattr(spec, name))


VARIANT_CLASSES = (lp.Canonical, lp.SpaceTime, lp.SpaceSpace, lp.MiaoTypeI, lp.MiaoTypeII,
                   lp.Generalized)


class TestParameterRoles:
    @pytest.mark.parametrize("cls", VARIANT_CLASSES, ids=lambda c: c.__name__)
    def test_every_field_has_one_role(self, cls):
        names = [f.name for f in dataclasses.fields(cls)]
        assert [name for name, _ in parameter_roles(cls)] == names
        for name in names:
            role = PARAMETER_ROLES[name]
            assert role.kind in (SCALED, SHARED, AXIS)
            # a scaled parameter carries both directions, nothing else does
            assert (role.scale is not None) == (role.unscale is not None) == (role.kind == SCALED)
            assert (role.constant is None) == (role.kind == AXIS)

    def test_tensor_shapes_and_antisymmetry(self):
        # a named variant's encoding has the shapes the roles declare
        encoded = lp.as_generalized(lp.MiaoTypeII(kappa=1.0, kappa_tilde=2.0, kappa_bar=3.0))
        for name, role in parameter_roles(lp.Generalized):
            assert getattr(encoded, name).shape == role.shape
        # only the {X_i, X_j} tensors are antisymmetric; the X-P ones are one-sided
        assert {n for n, r in PARAMETER_ROLES.items() if r.antisymmetric} == {"theta0", "theta"}

    def test_table_has_no_unused_entries(self):
        used = {f.name for cls in VARIANT_CLASSES for f in dataclasses.fields(cls)}
        assert set(PARAMETER_ROLES) == used

    def test_rule_constants_are_the_rule_fields(self):
        constants = [r.constant for r in PARAMETER_ROLES.values() if r.constant is not None]
        assert sorted(constants) == sorted(f.name for f in dataclasses.fields(lp.MassScalingRule))

    @pytest.mark.parametrize(
        "name", sorted(n for n, r in PARAMETER_ROLES.items() if r.kind == SCALED)
    )
    def test_unscale_inverts_scale(self, name):
        role = PARAMETER_ROLES[name]
        assert role.unscale(role.scale(3.0, 2.0), 2.0) == 3.0
        # kappa-like scalars grow with the mass, theta-like tensors shrink
        assert (role.scale(3.0, 2.0) > 3.0) == (not role.shape)
