"""Structure matrices, bracket evaluation and the Jacobi identity."""

import ast
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liephase as lp
from liephase import algebra, cli, observables as obs
from liephase.algebra import AXIS, PARAMETER_ROLES, SCALED, SHARED, lower, parameter_roles, rescale
from liephase.composition import _tables

from helpers import (
    DEFORMED_NAMED_VARIANTS,
    VARIANT_NAMES,
    antisym,
    jacobi_residual_fd,
    lower_via_generalized,
    lowered_bytes,
    package_calls,
    random_spec,
    random_state,
    signed_zero_generalized,
    tensor_with,
)


def single_state(x, p, t=0.0):
    return lp.PhaseState(x=[x], p=[p], t=t)


class TestStructureMatrix:
    def test_spacetime_time_valued_entry(self):
        spec = lp.SpaceTime(kappa=4.0, rho=1, tau=2)
        j = lp.structure_matrix([spec], single_state([0, 0, 0], [0, 0, 0], t=2.0))[0]
        assert j[0, 1] == pytest.approx(0.5, abs=0)
        assert j[1, 2] == 0.0
        assert j[0, 2] == 0.0

    def test_canonical_is_standard_symplectic(self):
        j = lp.structure_matrix([lp.Canonical()], single_state([1, 2, 3], [4, 5, 6], t=7.0))[0]
        expected = np.zeros((6, 6))
        expected[:3, 3:] = np.eye(3)
        expected[3:, :3] = -np.eye(3)
        assert np.array_equal(j, expected)

    def test_spacespace_table_entries(self):
        spec = lp.SpaceSpace(kappa_tilde=2.0, k=1, l=2, gamma=3)
        j = lp.structure_matrix([spec], single_state([5, 7, 0], [1, 1, 1]))[0]
        assert j[0, 2] == pytest.approx(3.5, abs=0)   # {X1, X3} = X2 / kt
        assert j[1, 2] == pytest.approx(-2.5, abs=0)  # {X2, X3} = -X1 / kt
        assert j[3, 2] == pytest.approx(0.5, abs=0)   # {P1, X3} = P2 / kt
        # the gamma column of the X-P block stays canonical
        assert j[0, 5] == 0.0
        assert j[1, 5] == 0.0
        assert j[2, 5] == 1.0

    def test_miao_type_i_time_terms(self):
        spec = lp.MiaoTypeI(kappa=2.0, kappa_tilde=4.0, k=1, l=2, gamma=3)
        j = lp.structure_matrix([spec], single_state([1, 2, 3], [0, 0, 0], t=1.0))[0]
        assert j[0, 1] == pytest.approx(0.5)          # {X_k, X_l} = t / kappa
        assert j[0, 2] == pytest.approx(-0.5 + 0.5)   # -t/kappa + X_l/kt
        assert j[1, 2] == pytest.approx(0.5 - 0.25)   # t/kappa - X_k/kt

    def test_miao_type_ii_momentum_coordinate_terms(self):
        spec = lp.MiaoTypeII(kappa=2.0, kappa_tilde=4.0, kappa_bar=8.0, k=1, l=2, gamma=3)
        j = lp.structure_matrix([spec], single_state([1, 2, 3], [5, 6, 7], t=1.0))[0]
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
            j = lp.structure_matrix([spec], state)[0]
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
        j = lp.structure_matrix(specs, state)
        # brackets between particles vanish, so block a is particle a's own J
        for a, spec in enumerate(specs):
            alone = lp.structure_matrix([spec], lp.PhaseState(x=state.x[a:a + 1],
                                                               p=state.p[a:a + 1], t=state.t))
            assert np.array_equal(j[a], alone[0])

    @pytest.mark.parametrize("n", [1, 4])
    def test_block_stack_shape_and_read_only(self, n):
        rng = np.random.default_rng(13)
        j = lp.structure_matrix([random_spec(rng, "space_space") for _ in range(n)],
                                random_state(rng, n))
        assert j.shape == (n, 6, 6)
        assert not j.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            j[0, 0, 1] = 1.0

    @pytest.mark.parametrize("spec", [lp.SpaceTime(kappa=2.0), lp.SpaceSpace(kappa_tilde=2.0)],
                             ids=["space_time", "space_space"])
    @pytest.mark.parametrize("evaluate", [
        lp.structure_matrix,
        lp.jacobi_residual,
        # particle 1's coordinates, which a one-particle block would broadcast over
        lambda specs, state: lp.bracket(obs.coordinate(1, 1), obs.coordinate(1, 2), specs, state),
    ], ids=["structure_matrix", "jacobi_residual", "bracket"])
    def test_size_mismatch_rejected(self, evaluate, spec):
        state = random_state(np.random.default_rng(0), 2)
        with pytest.raises(ValueError, match="^state has 2 particles, system has 1$"):
            evaluate([spec], state)


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
        (lambda: lp.SpaceTime(kappa=1.0, rho=4), r"^rho must be one of \(1, 2, 3\), got 4$"),
        # equal to an axis, but not an integer axis
        (lambda: lp.SpaceTime(kappa=1.0, rho=1.0, tau=2.0),
         r"^rho must be one of \(1, 2, 3\), got 1.0$"),
        (lambda: lp.SpaceSpace(kappa_tilde=2.0, k=True, l=2, gamma=3),
         r"^k must be one of \(1, 2, 3\), got True$"),
    ])
    def test_error_names_the_entry(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_numpy_integer_axes_are_stored_as_int(self):
        spec = lp.SpaceSpace(kappa_tilde=2.0, k=np.int64(1), l=np.uint8(2), gamma=3)
        assert (type(spec.k), type(spec.l)) == (int, int)
        assert cli.algebra_from_dict(cli.algebra_to_dict(spec), "algebra") == spec

    def test_phase_state_requires_finite_entries(self):
        with pytest.raises(ValueError, match="finite"):
            lp.PhaseState(x=[[np.inf, 0, 0]], p=[[0, 0, 0]])

    def test_phase_state_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            lp.PhaseState(x=[[0, 0, 0]], p=[[0, 0]])

    def test_flat_phase_vector_length_checked(self):
        with pytest.raises(ValueError, match="^flat phase vector length must be a multiple of 6, got 7$"):
            lp.PhaseState.from_flat(np.zeros(7), 0.0)

    @pytest.mark.parametrize("use", [
        lambda spec: lower([spec]),
        lambda spec: lp.closed_form_rhs(spec, 1.0, lp.Uniform(g=[0, 1, 0]), np.zeros(3),
                                        np.zeros(3), 0.0),
        lambda spec: cli.algebra_to_dict(spec),
    ], ids=["lower", "closed_form_rhs", "algebra_to_dict"])
    def test_user_subclass_is_unknown_variant(self, use):
        @dataclasses.dataclass(frozen=True)
        class Custom(lp.AlgebraSpec):
            pass

        with pytest.raises(TypeError, match="^unknown algebra variant: Custom$"):
            use(Custom())


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
                j = lp.structure_matrix([spec], state)[0]
                xx, xp = _tables(spec, state.x[0], state.p[0], state.t)
                for got, table in ((j[:3, :3], xx), (j[:3, 3:], np.eye(3) + xp)):
                    assert np.max(np.abs(got - table) / np.maximum(1.0, np.abs(table))) <= 1e-15

    def test_generalized_passes_through(self):
        g = lp.Generalized(theta0=antisym(np.random.default_rng(0), (3, 3)))
        assert lp.as_generalized(g) is g


class TestLowering:
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
        specs = [signed_zero_generalized(), lp.SpaceTime(kappa=2.0)]
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

    def test_one_constructor_of_lowered_algebra(self):
        # stacked runs are lowered together from their specs, so no caller
        # assembles bracket tensors of its own
        assert package_calls(
            lambda call, module: ast.unparse(call.func).split(".")[-1] == "LoweredAlgebra"
        ) == {"algebra.lower"}

    def test_empty_list(self):
        lowered = lower([])
        assert lowered.time.shape == (0, 6, 6) and lowered.slope is None
        assert len(lowered) == 0 and not lowered.time.flags.writeable

    def test_refuses_input_it_would_not_lower_as_asked(self):
        # ratios with lowered input, or a bare spec without ratios, is neither form
        spec = lp.SpaceTime(kappa=2.0)
        lowered = lower([spec])
        for args, ratios in ((lowered, [2.0, 3.0]), (spec, None), ([spec], [2.0])):
            with pytest.raises(TypeError, match="a sequence of specs, a LoweredAlgebra, "
                                                "or one spec with mass_ratios"):
                lower(args, mass_ratios=ratios)
        assert lower(lowered) is lowered
        assert len(lower(spec, mass_ratios=[2.0, 3.0])) == 2

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_blocks_read_only(self, variant):
        spec = random_spec(np.random.default_rng(22), variant)
        lowered = lower([spec, spec])
        for array in (*spec._blocks, *algebra._encoding(spec), lowered.time):
            with pytest.raises(ValueError, match="read-only"):
                array[..., 0, 1] = 1.0

    def test_interleaved_variants_and_axes(self):
        rng = np.random.default_rng(23)
        specs = [random_spec(rng, variant) for _ in range(4) for variant in VARIANT_NAMES]
        specs += [signed_zero_generalized(), lp.SpaceTime(kappa=3.0, rho=3, tau=1),
                  lp.MiaoTypeII(kappa=1.0, kappa_tilde=-2.0, kappa_bar=3.0, k=2, l=3, gamma=1)]
        assert len({(s.k, s.l, s.gamma) for s in specs if hasattr(s, "gamma")}) > 1
        time, slope = lower_via_generalized(specs)
        for _ in range(2):  # fresh specs, then lowered ones
            lowered = lower(specs)
            assert lowered.time.tobytes() == time.tobytes()
            assert lowered.slope.tobytes() == slope.tobytes()

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_spec_unchanged_by_lowering(self, variant):
        spec = random_spec(np.random.default_rng(24), variant)
        twin = dataclasses.replace(spec)

        def identity():
            hashed = None if variant == "generalized" else hash(spec)
            return repr(spec), pickle.dumps(spec), spec == twin, hashed

        before = identity()
        lower([spec])
        assert identity() == before
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec and "_blocks" not in vars(copy)
        assert not copy._blocks[1].flags.writeable
        assert lower([copy]).time.tobytes() == lower([spec]).time.tobytes()

    def test_rescale_and_replace_build_their_own_blocks(self):
        spec = lp.MiaoTypeII(kappa=1.0, kappa_tilde=2.0, kappa_bar=3.0, k=3, l=1, gamma=2)
        lower([spec])
        for other in (rescale(spec, 2.0), dataclasses.replace(spec, kappa_bar=5.0),
                      dataclasses.replace(spec)):
            assert "_blocks" not in vars(other)
            assert lower([other]).slope.tobytes() == lower_via_generalized([other])[1].tobytes()
            assert other._blocks[1] is not spec._blocks[1]
        assert lower([rescale(spec, 2.0)]).time.max() == spec._blocks[0].max() / 2.0

    def test_ladder_runs_once_per_spec(self, monkeypatch):
        calls = []
        ladder = algebra._spec_blocks

        def counted(spec, values=None, runs=1):
            calls.append(runs)
            return ladder(spec, values, runs)

        monkeypatch.setattr(algebra, "_spec_blocks", counted)
        rng = np.random.default_rng(25)
        specs = [random_spec(rng, "miao_type_ii") for _ in range(3)]
        state = random_state(rng, 3)
        for _ in range(2):
            lower(specs)
            lp.structure_matrix(specs, state)
            lp.bracket(obs.coordinate(0, 1), obs.momentum(2, 3), specs, state)
            lp.jacobi_residual(specs, state)
            for spec in specs:
                lp.as_generalized(spec)
                algebra._encoding(spec)
        # one run per spec, each built by the first lower: alone or stacked
        assert sum(calls) == len(specs)

    def test_specs_sharing_variant_and_axes_build_in_one_call(self, monkeypatch):
        calls = []
        ladder = algebra._spec_blocks

        def counted(spec, values=None, runs=1):
            calls.append(runs)
            return ladder(spec, values, runs)

        rng = np.random.default_rng(26)
        base = random_spec(rng, "miao_type_ii")
        specs = [rescale(base, ratio) for ratio in rng.uniform(0.5, 2.0, 5)]
        specs += [specs[1], dataclasses.replace(base, kappa=np.float32(1.5))]
        alone = [lower([dataclasses.replace(spec)]) for spec in specs]
        monkeypatch.setattr(algebra, "_spec_blocks", counted)
        first = lower(specs)
        # the six distinct specs in one call, the float32 kappa stored as a
        # float, as a lone spec's is
        assert calls == [6]
        assert lower(specs).slope.tobytes() == first.slope.tobytes()
        assert calls == [6]  # the second lower builds nothing
        for i, spec in enumerate(specs):
            assert not spec._blocks[1].flags.writeable
            assert first.time[i].tobytes() == alone[i].time.tobytes()
            assert first.slope[i].tobytes() == alone[i].slope.tobytes()


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
        fd = jacobi_residual_fd(specs, state, fd_step=1e-5)
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

    def test_multi_particle_residual(self):
        rng = np.random.default_rng(9)
        spec = lp.MiaoTypeI(kappa=1.0, kappa_tilde=2.0)
        state = random_state(rng, 2)
        assert lp.jacobi_residual([spec, spec], state) <= 1e-10


STACK_TIMES = (-1.75, 0.0, 2.5, -0.3, 0.0, 4.0, -0.0)


def stacked_points(rng, n_particles):
    """Phase points (S, N, 6) and times (S,) of a stack of states, at times
    below, at and above zero."""
    z = rng.uniform(-3.0, 3.0, (len(STACK_TIMES), n_particles, 6))
    return z, np.array(STACK_TIMES)


class TestStackedStates:
    """A leading axis of states on ``LoweredAlgebra``: each state's rows are
    the bytes of that state evaluated alone."""

    @pytest.mark.parametrize("variant", VARIANT_NAMES + ("theta0_only",))
    def test_blocks_equal_single_state_calls(self, variant):
        rng = np.random.default_rng(41)
        if variant == "theta0_only":  # slope-free, as canonical and space_time
            specs = [lp.Generalized(theta0=antisym(rng, (3, 3))) for _ in range(3)]
        else:
            specs = [random_spec(rng, variant) for _ in range(3)]
        lowered = lower(specs)
        assert (lowered.slope is None) == (variant in ("canonical", "space_time", "theta0_only"))
        z, t = stacked_points(rng, 3)
        v = rng.uniform(-2.0, 2.0, z.shape)
        stacked = lowered.blocks(z, t)
        applied = lowered.apply(z.reshape(len(t), -1), t, v.reshape(len(t), -1))
        assert stacked.shape == (len(t), 3, 6, 6)
        for s, ts in enumerate(t.tolist()):
            assert stacked[s].tobytes() == lowered.blocks(z[s], ts).tobytes()
            state = lp.PhaseState(x=z[s, :, :3], p=z[s, :, 3:], t=ts)
            assert stacked[s].tobytes() == lp.structure_matrix(specs, state).tobytes()
            assert applied[s].tobytes() == lowered.apply(z[s].ravel(), ts, v[s].ravel()).tobytes()

    @pytest.mark.parametrize("variant", ["space_space", "miao_type_ii", "generalized"])
    @pytest.mark.parametrize("chunk_states", [1, 2, 100])
    def test_jacobi_residual_is_worst_single_state(self, variant, chunk_states, monkeypatch):
        rng = np.random.default_rng(43)
        specs = [random_spec(rng, variant) for _ in range(2)]
        lowered = lower(specs)
        z, t = stacked_points(rng, 2)
        singles = [lp.jacobi_residual(specs, lp.PhaseState(x=z[s, :, :3], p=z[s, :, 3:], t=ts))
                   for s, ts in enumerate(t.tolist())]
        # the residuals of chunk_states states at a time
        monkeypatch.setattr(algebra, "_BLOCK_BYTES", chunk_states * lowered.slope.nbytes)
        assert lowered.jacobi_residual(z, t) == max(singles)
        assert lowered.jacobi_residual(z[3], t[3]) == singles[3]

    def test_jacobi_residual_keeps_a_nan(self, monkeypatch):
        lowered = lower([lp.SpaceSpace(kappa_tilde=2.0)])
        monkeypatch.setattr(algebra, "_BLOCK_BYTES", lowered.slope.nbytes)  # one state a chunk
        z, t = stacked_points(np.random.default_rng(44), 1)
        z[2, 0, 1] = np.inf  # inf * 0 in that state's blocks
        with np.errstate(invalid="ignore"):
            assert np.isnan(lowered.jacobi_residual(z, t))

    @pytest.mark.parametrize("method", ["blocks", "jacobi_residual"])
    def test_wrong_particle_count_refused(self, method):
        lowered = lower([lp.MiaoTypeI(kappa=1.0, kappa_tilde=2.0)] * 2)
        z, t = stacked_points(np.random.default_rng(45), 3)
        with pytest.raises(ValueError, match="state has 3 particles, system has 2"):
            getattr(lowered, method)(z, t)


def scaled_or_refused(template, ratios):
    """``lower(template, mass_ratios=ratios)``'s bytes, or its WepRunError's
    (run, message)."""
    try:
        return lowered_bytes(lower(template, mass_ratios=ratios))
    except lp.WepRunError as exc:
        return exc.run, str(exc)


def rescaled_or_refused(template, ratios):
    """The same from one ``rescale``d spec per ratio, the spec path."""
    specs = []
    for run, ratio in enumerate(ratios):
        try:
            with np.errstate(over="ignore"):  # the spec refuses an overflow
                specs.append(rescale(template, ratio))
        except ValueError as exc:
            return run, str(exc)
    return lowered_bytes(lower(specs))


class TestScaledLowering:
    """``lower(template, mass_ratios)`` against ``lower`` of one rescaled spec per ratio."""

    @pytest.mark.parametrize("runs", [1, 16, 1024])
    @pytest.mark.parametrize("variant", [*VARIANT_NAMES, "signed_zero", "float32_kappa"])
    def test_bytes_equal_rescaled_specs(self, variant, runs, monkeypatch):
        rng = np.random.default_rng(runs)
        template = {
            "signed_zero": signed_zero_generalized,
            # a numpy scalar parameter, stored as a float on either path
            "float32_kappa": lambda: lp.SpaceTime(kappa=np.float32(1.3)),
        }.get(variant, lambda: random_spec(rng, variant))()
        # log-uniform over [1e-6, 1e6], both ends included
        ratios = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), runs))
        ratios[: min(runs, 2)] = (1e-6, 1e6)[: min(runs, 2)]
        want = rescaled_or_refused(template, ratios.tolist())
        made = []
        post_init = algebra.AlgebraSpec.__post_init__
        monkeypatch.setattr(algebra.AlgebraSpec, "__post_init__",
                            lambda spec: made.append(spec) or post_init(spec))
        got = lower(template, mass_ratios=ratios)
        assert made == []  # no spec is made per run
        assert lowered_bytes(got) == want
        assert len(got) == runs and not got.time.flags.writeable
        assert got.slope is None or not got.slope.flags.writeable

    @staticmethod
    def around(edge):
        """Ratios on both sides of an overflow edge."""
        return [edge * f for f in (0.5, 0.999, 1 - 1e-15, 1.0, 1 + 1e-15, 1.001, 2.0)]

    def assert_edges(self, template, ratios):
        outcomes = set()
        for ratio in ratios:
            # each ratio after an ordinary run, so a refusal names run 1
            got = scaled_or_refused(template, [1.0, ratio])
            assert got == rescaled_or_refused(template, [1.0, ratio]), ratio
            outcomes.add(got[1].split(", got")[0] if got[0] == 1 else "kept")
        assert len(outcomes) >= 2  # the edge was crossed
        # the first refused run is named, with its spec's message
        run, message = scaled_or_refused(template, [1.0, ratios[0], ratios[-1], ratios[0]])
        assert (run, message) == rescaled_or_refused(template, [1.0, ratios[0], ratios[-1]])

    @pytest.mark.parametrize("template", [
        lp.SpaceTime(kappa=1.5, rho=3, tau=1),
        lp.MiaoTypeII(kappa=2.0, kappa_tilde=-2.5, kappa_bar=3.0, k=3, l=1, gamma=2),
    ], ids=["spacetime", "miao_type_ii"])
    def test_kappa_overflow_edges(self, template):
        big = float(np.finfo(float).max)
        # kappa * ratio overflows past the first edge; its inverse, past the second
        for kappa in (getattr(template, name) for name in ("kappa", "kappa_tilde")
                      if hasattr(template, name)):
            self.assert_edges(template, self.around(big / abs(kappa)))
            self.assert_edges(template, self.around(1.0 / big / abs(kappa))[::-1])

    def test_theta_overflow_edges(self):
        theta0 = np.zeros((3, 3))
        theta0[0, 1], theta0[1, 0] = 1e300, -1e300
        theta_tilde = np.zeros((3, 3, 3))
        theta_tilde[2, 1, 0] = -1e305
        template = lp.Generalized(theta0=theta0, theta_tilde=theta_tilde,
                                  theta_bar=np.full((3, 3, 3), 1e307))
        big = float(np.finfo(float).max)
        # theta_tilde / ratio overflows first, then theta0, which is named first
        # as a spec checks its fields in order; theta_bar is shared
        for largest in (1e305, 1e300):
            self.assert_edges(template, self.around(largest / big)[::-1])
        assert scaled_or_refused(template, [1.0, 1e-10]) == (1, "theta0[0][1]: must be finite")
        assert scaled_or_refused(template, [1.0, 1e-4]) == (
            1, "theta_tilde[2][1][0]: must be finite")
        assert scaled_or_refused(template, [1.0, 1e300]) == rescaled_or_refused(
            template, [1.0, 1e300])  # underflows to zeros: kept


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
