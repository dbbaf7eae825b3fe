"""Center-of-mass reduction, bracket oracle and effective parameters."""

import json
import pickle
from collections.abc import Mapping
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liephase as lp
from liephase import algebra, cli, composition, dynamics, observables as obs
from liephase.composition import _candidate_effective, _scaled_values

import sweep_com_checks
import sweep_com_report
from helpers import (
    VARIANT_NAMES,
    com_report_stacked,
    dense_structure_matrix,
    random_state,
    random_system,
    scaled_system,
    signed_zero_generalized,
    strict_json,
)


def spacetime_system(masses, kappas, rho=1, tau=2):
    specs = [lp.SpaceTime(kappa=k, rho=rho, tau=tau) for k in kappas]
    return lp.ParticleSystem.from_pairs(masses, specs)


class TestParticleSystem:
    def test_mass_fractions_normalized(self):
        system = spacetime_system([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
        assert abs(system.mu.sum() - 1.0) <= 1e-15
        assert system.total_mass == 6.0

    def test_mixed_variants_rejected(self):
        with pytest.raises(ValueError, match="mixed"):
            lp.ParticleSystem.from_pairs(
                [1.0, 1.0], [lp.SpaceTime(kappa=1.0), lp.SpaceSpace(kappa_tilde=1.0)]
            )

    def test_mismatched_axes_rejected(self):
        with pytest.raises(ValueError, match="axes"):
            lp.ParticleSystem.from_pairs(
                [1.0, 1.0],
                [lp.SpaceTime(kappa=1.0, rho=1, tau=2), lp.SpaceTime(kappa=1.0, rho=1, tau=3)],
            )

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ValueError, match="mass"):
            lp.ParticleSystem.from_pairs([0.0], [lp.Canonical()])

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="^masses and specs must have equal length$"):
            lp.ParticleSystem.from_pairs([1.0, 2.0], [lp.Canonical()])

    def test_empty_system_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            lp.ParticleSystem(particles=())

    def test_masses_and_fractions_cached_read_only(self):
        system = spacetime_system([1.0, 2.0, 5.0], [1.0, 1.0, 1.0])
        assert system.masses is system.masses and system.mu is system.mu
        assert system.masses.tolist() == [1.0, 2.0, 5.0]
        assert system.mu.tobytes() == (np.array([1.0, 2.0, 5.0]) / 8.0).tobytes()
        for array in (system.masses, system.mu):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 3.0

    def test_pickle_holds_the_particles_alone(self):
        system = spacetime_system([1.0, 2.0], [1.0, 2.0])
        built = (system.masses, system.mu, system.frame, system.lowered.time)
        copy = pickle.loads(pickle.dumps(system))
        assert vars(copy) == {"particles": system.particles}
        for array, original in zip((copy.masses, copy.mu, copy.frame, copy.lowered.time), built):
            assert not array.flags.writeable
            assert array.tobytes() == original.tobytes()


class TestComTransform:
    def test_single_particle_is_its_own_com(self):
        system = spacetime_system([2.0], [1.0])
        state = lp.PhaseState(x=[[1, 2, 3]], p=[[4, 5, 6]])
        com = lp.com_transform(system, state)
        assert np.array_equal(com.x_com, [1, 2, 3])
        assert np.array_equal(com.p_com, [4, 5, 6])
        assert np.all(com.dx == 0.0)
        assert np.all(com.dp == 0.0)

    def test_equal_mass_midpoint(self):
        system = spacetime_system([1.0, 1.0], [1.0, 1.0])
        state = lp.PhaseState(x=[[0, 0, 0], [2, 0, 0]], p=[[0, 0, 0], [0, 0, 0]])
        com = lp.com_transform(system, state)
        assert np.array_equal(com.x_com, [1, 0, 0])
        assert np.array_equal(com.dx[0], [-1, 0, 0])

    def test_momentum_split(self):
        system = spacetime_system([1.0, 3.0], [1.0, 1.0])
        state = lp.PhaseState(x=np.zeros((2, 3)), p=[[4, 0, 0], [0, 0, 0]])
        com = lp.com_transform(system, state)
        assert np.array_equal(com.p_com, [4, 0, 0])
        assert np.allclose(com.dp[0], [3, 0, 0], atol=0)
        assert np.allclose(com.dp[1], [-3, 0, 0], atol=0)

    def test_size_mismatch_rejected(self):
        system = spacetime_system([1.0], [1.0])
        state = random_state(np.random.default_rng(0), 2)
        with pytest.raises(ValueError, match="particles"):
            lp.com_transform(system, state)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 5))
    def test_identities_hold(self, seed, n):
        rng = np.random.default_rng(seed)
        system = spacetime_system(rng.uniform(0.5, 4.0, n).tolist(), rng.uniform(0.5, 5.0, n))
        state = random_state(rng, n)
        com = lp.com_transform(system, state)
        assert np.max(np.abs(com.dp.sum(axis=0))) <= 1e-13
        assert np.max(np.abs(system.mu @ com.dx)) <= 1e-13


class TestComBracketReport:
    def test_two_equal_particles_time_valued(self):
        system = spacetime_system([1.0, 1.0], [1.0, 1.0])
        state = lp.PhaseState(x=np.zeros((2, 3)), p=np.zeros((2, 3)), t=1.0)
        report = lp.com_bracket_report(system, state)
        assert report.computed["{Xcom_1,Xcom_2}"] == pytest.approx(0.5, abs=1e-15)
        assert report.max_abs_diff <= 1e-15

    def test_reduction_by_particle_number(self):
        for n in (2, 4, 8):
            system = spacetime_system([1.0] * n, [1.0] * n)
            state = lp.PhaseState(x=np.zeros((n, 3)), p=np.zeros((n, 3)), t=1.0)
            report = lp.com_bracket_report(system, state)
            assert report.computed["{Xcom_1,Xcom_2}"] == pytest.approx(1.0 / n, abs=1e-14)

    def test_total_momenta_commute(self):
        rng = np.random.default_rng(1)
        for variant in VARIANT_NAMES:
            system = random_system(rng, variant, 3)
            state = random_state(rng, 3)
            report = lp.com_bracket_report(system, state)
            for i in (1, 2, 3):
                for j in (1, 2, 3):
                    assert report.computed[f"{{Pcom_{i},Pcom_{j}}}"] == 0.0

    def test_com_conjugate_pairs_for_spacetime(self):
        rng = np.random.default_rng(2)
        # dyadic mass fractions: mu sums to one without rounding, so the
        # conjugate-pair brackets come out exactly delta_ij
        system = spacetime_system([1.0, 1.0, 2.0], [1.0, 3.0, 0.5])
        state = random_state(rng, 3)
        report = lp.com_bracket_report(system, state)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                expected = 1.0 if i == j else 0.0
                assert report.computed[f"{{Xcom_{i},Pcom_{j}}}"] == expected
        # generic masses agree within the mass-fraction rounding slack
        system = spacetime_system([1.0, 2.5, 0.7], [1.0, 3.0, 0.5])
        report = lp.com_bracket_report(system, random_state(rng, 3))
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                expected = 1.0 if i == j else 0.0
                assert report.computed[f"{{Xcom_{i},Pcom_{j}}}"] == pytest.approx(
                    expected, abs=1e-15
                )

    def test_spacetime_relative_coupling_formula(self):
        # {dX_1^(0), Xcom_2} = t (mu_0/k_0 - sum mu_c^2/k_c) for rho=1, tau=2
        system = spacetime_system([1.0, 2.0], [1.0, 1.0])
        state = lp.PhaseState(x=np.zeros((2, 3)), p=np.zeros((2, 3)), t=1.0)
        report = lp.com_bracket_report(system, state)
        assert report.computed["{dX_1[0],Xcom_2}"] == pytest.approx(-2.0 / 9.0, abs=1e-15)

    def test_relative_momentum_relative_coordinate_includes_delta_ij(self):
        # {dX_i^(a), dP_j^(b)} carries a delta_ij factor (forced by
        # bilinearity from {X_i, P_j} = delta_ij); off-diagonal axis pairs
        # vanish for the time-valued variant
        system = spacetime_system([1.0, 3.0], [2.0, 5.0])
        state = random_state(np.random.default_rng(3), 2)
        report = lp.com_bracket_report(system, state)
        mu1 = 3.0 / 4.0
        assert report.computed["{dX_1[0],dP_1[1]}"] == pytest.approx(-mu1, abs=1e-15)
        assert report.computed["{dX_1[0],dP_2[1]}"] == 0.0
        assert report.computed["{dX_1[1],dP_1[1]}"] == pytest.approx(1.0 - mu1, abs=1e-15)

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_oracle_agreement_random_systems(self, variant):
        rng = np.random.default_rng(4)
        for _ in range(12):
            n = int(rng.integers(1, 6))
            system = random_system(rng, variant, n)
            state = random_state(rng, n)
            report = lp.com_bracket_report(system, state)
            assert report.max_abs_diff <= 1e-12

    def test_report_serialization_shape(self):
        system = spacetime_system([1.0, 2.0], [1.0, 2.0])
        state = random_state(np.random.default_rng(5), 2)
        d = lp.com_bracket_report(system, state).to_dict()
        assert set(d) == {"computed", "closed_form", "max_abs_diff"}
        assert set(d["computed"]) == set(d["closed_form"])

    def test_spacespace_total_momentum_coordinate_coupling(self):
        # {Pcom_k, Xcom_gamma} = sum_a mu_a P_l^(a) / kt_a
        system = lp.ParticleSystem.from_pairs(
            [1.0, 3.0], [lp.SpaceSpace(kappa_tilde=2.0), lp.SpaceSpace(kappa_tilde=5.0)]
        )
        state = lp.PhaseState(x=[[1, 2, 3], [4, 5, 6]], p=[[0.5, 1.5, 2.5], [-1.0, 2.0, 0.5]])
        report = lp.com_bracket_report(system, state)
        expected = 0.25 * 1.5 / 2.0 + 0.75 * 2.0 / 5.0
        assert -report.computed["{Xcom_3,Pcom_1}"] == pytest.approx(expected, rel=1e-14)

    def test_spacetime_relative_relative_bracket(self):
        # {dX_1^(a), dX_2^(b)} = t (d_ab/k_a - mu_a/k_a - mu_b/k_b + sum mu^2/k)
        system = spacetime_system([1.0, 3.0], [2.0, 5.0])
        state = lp.PhaseState(x=np.zeros((2, 3)), p=np.zeros((2, 3)), t=2.0)
        report = lp.com_bracket_report(system, state)
        mu = np.array([0.25, 0.75])
        kap = np.array([2.0, 5.0])
        s = np.sum(mu**2 / kap)
        for a in range(2):
            for b in range(2):
                expected = 2.0 * ((1.0 if a == b else 0.0) / kap[a] - mu[a] / kap[a]
                                  - mu[b] / kap[b] + s)
                assert report.computed[f"{{dX_1[{a}],dX_2[{b}]}}"] == pytest.approx(
                    expected, rel=1e-13, abs=1e-15
                )

    def test_scaled_spacespace_momentum_coupling_uses_per_particle_parameter(self):
        # under scaling {Pcom_k, dX_gamma^(a)} = dP_l^(a) / kt_a with the
        # particle's own kappa_tilde, unlike the dP couplings which carry
        # the effective one
        gamma_kt = 1.5
        masses = [1.0, 2.0]
        system = lp.ParticleSystem.from_pairs(
            masses, [lp.SpaceSpace(kappa_tilde=gamma_kt * m) for m in masses]
        )
        state = lp.PhaseState(x=[[1, 2, 0.5], [0, 1, -1]], p=[[2, 1, 0], [1, -1, 0.5]])
        report = lp.com_bracket_report(system, state)
        com = lp.com_transform(system, state)
        kt_eff = gamma_kt * system.total_mass
        for a, m in enumerate(masses):
            kt_a = gamma_kt * m
            got = report.computed[f"{{Pcom_1,dX_3[{a}]}}"]
            assert got == pytest.approx(com.dp[a][1] / kt_a, rel=1e-12)
            got = report.computed[f"{{dP_1[{a}],Xcom_3}}"]
            assert got == pytest.approx(com.dp[a][1] / kt_eff, rel=1e-12)


def spelled_out_keys(n):
    """The report's keys in its order, spelled out loop by loop: one index
    shape at a time, and for each index its three families."""
    def com(kind, i):
        return f"{kind}com_{i}"

    def rel(kind, i, a):
        return f"d{kind}_{i}[{a}]"

    keys = []
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            for left, right in ((com("X", i), com("X", j)), (com("X", i), com("P", j)),
                                (com("P", i), com("P", j))):
                keys.append("{" + left + "," + right + "}")
    for a in range(n):
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                for left, right in ((rel("X", i, a), com("X", j)), (com("P", i), rel("X", j, a)),
                                    (rel("P", i, a), com("X", j))):
                    keys.append("{" + left + "," + right + "}")
    for a in range(n):
        for b in range(n):
            for i in (1, 2, 3):
                for j in (1, 2, 3):
                    for left, right in ((rel("X", i, a), rel("X", j, b)),
                                        (rel("X", i, a), rel("P", j, b)),
                                        (rel("P", i, a), rel("P", j, b))):
                        keys.append("{" + left + "," + right + "}")
    return keys


def frame_row_names(n):
    """The names of the rows of W, in its row order (particle-major)."""
    return (
        [f"Xcom_{i}" for i in (1, 2, 3)]
        + [f"Pcom_{i}" for i in (1, 2, 3)]
        + [f"dX_{i}[{a}]" for a in range(n) for i in (1, 2, 3)]
        + [f"dP_{i}[{a}]" for a in range(n) for i in (1, 2, 3)]
    )


class TestComBracketKeys:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_keys_match_spelled_out_order(self, n):
        rng = np.random.default_rng(n)
        system = random_system(rng, "miao_type_ii", n)
        report = lp.com_bracket_report(system, random_state(rng, n))
        expected = spelled_out_keys(n)
        assert len(expected) == 27 + 27 * n + 27 * n * n
        assert list(report.computed) == expected
        assert list(report.closed_form) == expected
        d = report.to_dict()
        assert list(d["computed"]) == expected
        assert list(d["closed_form"]) == expected

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_values_are_entries_of_b(self, variant):
        rng = np.random.default_rng(11)
        for n in (1, 2, 4):
            system = random_system(rng, variant, n)
            state = random_state(rng, n)
            report = lp.com_bracket_report(system, state)
            brackets = composition._com_brackets(system, state)
            row = {name: r for r, name in enumerate(frame_row_names(n))}
            for key, value in report.computed.items():
                left, right = key[1:-1].split(",")
                assert value == brackets[row[left], row[right]], key
            assert report.max_abs_diff == max(
                abs(report.computed[k] - report.closed_form[k]) for k in report.computed
            )

    def test_keys_built_once_per_system(self):
        rng = np.random.default_rng(12)
        system = random_system(rng, "space_space", 3)
        state = random_state(rng, 3)
        first = lp.com_bracket_report(system, state)
        second = lp.com_bracket_report(system, random_state(rng, 3))
        keys = system.bracket_keys
        # both reports hold the very key objects the system built once
        for report in (first, second):
            assert all(a is k and b is k
                       for a, b, k in zip(report.computed, report.closed_form, keys))
        # a new system of the same particles builds its own, equal keys
        other = lp.ParticleSystem(system.particles)
        assert other.bracket_keys == keys and other.bracket_keys[0] is not keys[0]

    def test_nan_past_the_first_entry_is_not_hidden(self, monkeypatch, tmp_path, capsys):
        system = spacetime_system([1.0, 2.0], [1.0, 3.0])
        state = random_state(np.random.default_rng(13), 2)
        tables = composition._closed_form_tables

        def with_nan(system, state):
            a_tab, b_tab = tables(system, state)
            a_tab[0, 0, 1] = np.nan  # reaches {Xcom_1,Xcom_2}, the fourth entry
            return a_tab, b_tab

        monkeypatch.setattr(composition, "_closed_form_tables", with_nan)
        report = lp.com_bracket_report(system, state)
        values = list(report.closed_form.values())
        assert np.isfinite(values[0]) and np.isnan(values[3])
        assert np.isnan(report.max_abs_diff)
        # so the scenario's oracle check fails instead of passing
        assert cli.run("spacetime_com_brackets", out_dir=str(tmp_path)) == 1
        checks = {c["name"]: c for c in strict_json(tmp_path / "report.json")["checks"]}
        assert not checks["com-bracket-oracle"]["passed"]
        assert "FAIL com-bracket-oracle" in capsys.readouterr().out


def count_index_builds(monkeypatch) -> list:
    """Record each build of ``ParticleSystem.bracket_index`` from now on."""
    calls = []
    build = lp.ParticleSystem.bracket_index.func

    def counted(system):
        calls.append(system.n_particles)
        return build(system)

    index = cached_property(counted)
    index.__set_name__(lp.ParticleSystem, "bracket_index")
    monkeypatch.setattr(lp.ParticleSystem, "bracket_index", index)
    return calls


class TestComBracketMapping:
    @pytest.fixture
    def made(self):
        rng = np.random.default_rng(14)
        system = random_system(rng, "miao_type_i", 3)
        state = random_state(rng, 3)
        return system, state, lp.com_bracket_report(system, state)

    def test_is_a_read_only_mapping(self, made):
        _, _, report = made
        for side in (report.computed, report.closed_form):
            assert isinstance(side, Mapping)
            with pytest.raises(TypeError):
                side["{Xcom_1,Xcom_2}"] = 0.0
            with pytest.raises(TypeError):
                del side["{Xcom_1,Xcom_2}"]
            assert not side._values.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                side._values[0] = 0.0
            copied = pickle.loads(pickle.dumps(side))
            assert copied == side and not copied._values.flags.writeable

    def test_unknown_key_raises_key_error(self, made):
        _, _, report = made
        for key in ("{Xcom_1,Xcom_4}", "", 0):
            with pytest.raises(KeyError):
                report.computed[key]
            assert key not in report.computed
            assert report.closed_form.get(key) is None
        assert "{Xcom_1,Xcom_2}" in report.computed

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_length_and_keys(self, n):
        rng = np.random.default_rng(15)
        system = random_system(rng, "space_space", n)
        report = lp.com_bracket_report(system, random_state(rng, n))
        for side in (report.computed, report.closed_form):
            assert len(side) == 27 * (1 + n + n * n)
            assert all(a is k for a, k in zip(side, system.bracket_keys, strict=True))
            assert all(a is k for a, k in zip(side.keys(), system.bracket_keys, strict=True))

    def test_values_are_python_floats_equal_to_the_arrays(self, made):
        _, _, report = made
        for side in (report.computed, report.closed_form):
            values = side._values.tolist()
            assert list(side.values()) == values
            assert [side[k] for k in side] == values
            assert list(side.items()) == list(zip(side, values))
            assert all(type(side[k]) is float for k in list(side)[:30])
            assert all(type(v) is float for v in side.values())

    def test_to_dict_is_plain_dicts_in_key_order(self, made):
        system, _, report = made
        d = report.to_dict()
        for name in ("computed", "closed_form"):
            side = getattr(report, name)
            assert type(d[name]) is dict
            assert d[name] == dict(zip(system.bracket_keys, side._values.tolist()))
            assert list(d[name]) == list(system.bracket_keys)
        assert d["max_abs_diff"] == report.max_abs_diff

    def test_reports_of_the_same_inputs_are_equal(self, made):
        system, state, report = made
        again = lp.com_bracket_report(system, state)
        assert again == report
        assert lp.com_bracket_report(lp.ParticleSystem(system.particles), state) == report
        # and equal to a report built from plain dicts
        plain = lp.ComBracketReport(**report.to_dict())
        assert plain == report and report == plain
        assert plain.to_dict() == report.to_dict()
        other = lp.com_bracket_report(system, random_state(np.random.default_rng(16), 3))
        assert other != report

    def test_report_of_plain_dicts_keeps_working(self):
        report = lp.ComBracketReport(computed={"{a,b}": 1.0}, closed_form={"{a,b}": 1.5},
                                     max_abs_diff=0.5)
        assert report.to_dict() == {"computed": {"{a,b}": 1.0}, "closed_form": {"{a,b}": 1.5},
                                    "max_abs_diff": 0.5}

    def test_repr_reads_like_a_dict(self, made):
        _, _, report = made
        assert repr(report.computed) == repr(report.to_dict()["computed"])


class TestBracketIndexCache:
    def test_report_and_diff_build_no_index(self, monkeypatch):
        calls = count_index_builds(monkeypatch)
        rng = np.random.default_rng(17)
        system = scaled_system(rng, "miao_type_ii", 20)
        state = random_state(rng, 20)
        report = lp.com_bracket_report(system, state)
        assert report.max_abs_diff <= 1e-12
        assert len(report.computed) == 27 * (1 + 20 + 400)
        # neither the keys nor their index
        assert "bracket_keys" not in vars(system) and "bracket_index" not in vars(system)
        for _ in range(2):  # the keys once, then warm
            report = lp.com_bracket_report(system, state)
            list(report.computed.items())
            report.to_dict()
            assert report.max_abs_diff <= 1e-12
        assert calls == []
        assert "bracket_keys" in vars(system) and "bracket_index" not in vars(system)
        assert not isinstance(report.computed, dict)

    def test_lookups_across_two_reports_build_one_index(self, monkeypatch):
        calls = count_index_builds(monkeypatch)
        rng = np.random.default_rng(18)
        system = random_system(rng, "space_time", 4)
        first = lp.com_bracket_report(system, random_state(rng, 4))
        second = lp.com_bracket_report(system, random_state(rng, 4))
        assert first.computed["{Xcom_1,Xcom_2}"] != second.closed_form["{Xcom_1,Xcom_2}"]
        assert calls == [4]
        # a new system of the same particles builds its own
        other = lp.com_bracket_report(lp.ParticleSystem(system.particles), random_state(rng, 4))
        assert "{dX_1[3],dP_3[2]}" in other.computed
        assert calls == [4, 4]


def test_sweep_com_report_smoke(tmp_path):
    out = tmp_path / "record.json"
    # an unlabelled row, as earlier versions wrote, and another label's row
    # are kept; the rows of the label measured are replaced
    kept = [{"particles": 2, "fresh_ms": 1.0}, {"label": "b", "particles": 2, "fresh_ms": 1.0}]
    out.write_text(json.dumps({"rows": [*kept, {"label": "a", "particles": 2, "fresh_ms": 1.0}]}))
    assert sweep_com_report.main(["--label", "a", "--repeats", "1", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert rows[:2] == kept
    rows = rows[2:]
    assert [row["label"] for row in rows] == ["a"] * 4
    assert [row["particles"] for row in rows] == [2, 8, 20, 64]
    for row in rows:
        n = row["particles"]
        assert row["entries"] == 27 * (1 + n + n * n)
        assert row["fresh_ms"] > 0 and row["fresh_dict_ms"] > 0 and row["warm_ms"] > 0


def test_sweep_com_checks_smoke(tmp_path):
    out = tmp_path / "record.json"
    for label in ("a", "b", "a"):
        assert sweep_com_checks.main(["--label", label, "--repeats", "1", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [row["label"] for row in rows] == ["b"] * 38 + ["a"] * 38
    com = ("com_brackets", "com_bracket_report", "reproduction_check", "com_relative_coupling",
           "decoupling_check")
    assert {(row["timing"], row["particles"]) for row in rows} == {
        *((timing, n) for timing in ("lower_cold", "lower_warm") for n in (1, 16, 64)),
        *((timing, n) for timing in com for n in (2, 8, 20, 64)),
    }
    assert all(row["us"] > 0 for row in rows)
    # a warm lower takes microseconds: timed back to back; a cold one stays one call
    assert {(row["timing"], row["calls"]) for row in rows if "calls" in row} == {
        ("lower_cold", 1), ("lower_warm", sweep_com_checks.WARM_CALLS)}
    assert all("calls" in row for row in rows if row["timing"].startswith("lower"))


class TestComBracketsDense:
    """``_com_brackets`` against W J W^T with the dense 6N x 6N J."""

    @staticmethod
    def assert_dense(system, state):
        w = system.frame
        dense = (w @ dense_structure_matrix(system.lowered, state)) @ w.T
        assert composition._com_brackets(system, state).tobytes() == dense.tobytes()

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_bytes_equal_dense_product(self, variant, n):
        rng = np.random.default_rng(30 + n)
        for make in (random_system, scaled_system):
            system = make(rng, variant, n)
            for t in (0.8, -2.5):
                state = random_state(rng, n)
                self.assert_dense(system, lp.PhaseState(x=state.x, p=state.p, t=t))

    def test_signed_zero_particles(self):
        rng = np.random.default_rng(33)
        for n in (1, 2, 5):
            system = lp.ParticleSystem.from_pairs(
                rng.uniform(0.5, 3.0, n), [signed_zero_generalized() for _ in range(n)])
            state = random_state(rng, n)
            for t in (0.0, -0.0, -1.5):
                self.assert_dense(system, lp.PhaseState(x=state.x, p=state.p, t=t))


# the grid the COM blocks and the report layout are checked on: every
# variant, scaled and unscaled, and signed-zero Generalized particles
COM_KINDS = (*VARIANT_NAMES, "signed_zero")
COM_GRID = [(kind, n) for kind in COM_KINDS for n in (1, 2, 5, 20)]


def com_grid(kind, n):
    """The (system, state) cases of one grid point: unscaled and scaled
    systems at t = 0.8 and -2.5, or signed-zero particles at t = +-0.0."""
    rng = np.random.default_rng([n, COM_KINDS.index(kind)])
    if kind == "signed_zero":
        system = lp.ParticleSystem.from_pairs(
            rng.uniform(0.5, 3.0, n), [signed_zero_generalized() for _ in range(n)])
        systems, times = [system], (0.0, -0.0)
    else:
        systems = [make(rng, kind, n) for make in (random_system, scaled_system)]
        times = (0.8, -2.5)
    for system in systems:
        for t in times:
            state = random_state(rng, n)
            yield system, lp.PhaseState(x=state.x, p=state.p, t=t)


# the block of B = W J W^T that each COM check reads: rows, then columns
CHECK_BLOCKS = {
    "reproduction_check": (slice(6), slice(6)),
    "com_relative_coupling": (slice(6, None), slice(6)),
    "decoupling_check": (slice(6), slice(6, None)),
}


def run_check(name, system, state):
    if name == "decoupling_check":
        return lp.decoupling_check(system, state, lp.Uniform(g=[0.3, -1.2, 0.7]))
    return getattr(lp, name)(system, state)


def record_blocks(monkeypatch) -> list:
    """Record (N, block) for each block of B formed from now on by
    ``composition._com_brackets``, wherever it is called from."""
    blocks = []
    product = composition._com_brackets

    def recorded(system, *args):
        blocks.append((system.n_particles, product(system, *args)))
        return blocks[-1][1]

    monkeypatch.setattr(composition, "_com_brackets", recorded)
    monkeypatch.setattr(dynamics, "_com_brackets", recorded)
    return blocks


def term_scale(system, state, rows, cols) -> float:
    """The largest sum of |terms| over the entries of B[rows, cols], with the
    dense J: the size rounding is relative to, also where the terms cancel
    (the COM-relative brackets of canonical particles are sums to zero)."""
    w = np.abs(system.frame)
    dense = np.abs(dense_structure_matrix(system.lowered, state))
    return float(np.max(w[rows] @ dense @ w[cols].T))


def assert_close(got, want, scale):
    """Equal entry for entry within 1e-14 of ``scale``."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * scale


class TestComBlocks:
    """Each COM check forms only the block of B it reads, equal to the same
    slice of the whole product to rounding."""

    @pytest.mark.parametrize("kind, n", COM_GRID)
    def test_block_is_the_slice_of_b(self, monkeypatch, kind, n):
        cases = [(system, state, composition._com_brackets(system, state))
                 for system, state in com_grid(kind, n)]
        blocks = record_blocks(monkeypatch)
        for system, state, whole in cases:
            for name, (rows, cols) in CHECK_BLOCKS.items():
                blocks.clear()
                run_check(name, system, state)
                [(_, block)] = blocks
                assert_close(block, whole[rows, cols], term_scale(system, state, rows, cols))

    @pytest.mark.parametrize("kind, n", COM_GRID)
    def test_values_read_the_slice_of_b(self, kind, n):
        for system, state in com_grid(kind, n):
            whole = composition._com_brackets(system, state)
            com = lp.com_transform(system, state)
            point = np.concatenate([com.x_com, com.p_com])[None]
            single = algebra.lower([system.candidate_effective]).blocks(point, state.t)[0]
            repro = lp.reproduction_check(system, state).max_abs_diff
            want = np.max(np.abs(whole[:6, :6] - single))
            assert_close(np.array(repro), want, term_scale(system, state, slice(6), slice(6)))
            rel = whole[6:, :6]
            want = max(np.max(np.abs(rel[: 3 * n])), np.max(np.abs(rel[3 * n :, :3])))
            coupling = lp.com_relative_coupling(system, state)
            assert_close(np.array(coupling), want,
                         term_scale(system, state, slice(6, None), slice(6)))

    def test_wrong_particle_count_raises(self):
        rng = np.random.default_rng(34)
        system = scaled_system(rng, "miao_type_ii", 3)
        for state in (random_state(rng, 2), random_state(rng, 4)):
            for name in CHECK_BLOCKS:
                with pytest.raises(ValueError, match=(
                        f"state has {state.n_particles} particles, system has 3")):
                    run_check(name, system, state)


class TestReportLayout:
    @pytest.mark.parametrize("kind, n", COM_GRID)
    def test_sides_byte_equal_stacked_families(self, kind, n):
        for system, state in com_grid(kind, n):
            report = lp.com_bracket_report(system, state)
            got, want = com_report_stacked(system, state)
            assert report.computed._values.tobytes() == got.tobytes()
            assert report.closed_form._values.tobytes() == want.tobytes()
            assert report.max_abs_diff == float(np.max(np.abs(got - want)))


class TestDenseProductCount:
    def test_only_the_report_forms_all_of_b(self, monkeypatch, tmp_path):
        blocks = record_blocks(monkeypatch)

        def dense():
            return sum(block.shape == (6 + 6 * n,) * 2 for n, block in blocks)

        rng = np.random.default_rng(35)
        for n in (1, 3, 8):
            system = scaled_system(rng, "space_space", n)
            state = random_state(rng, n)
            for name in CHECK_BLOCKS:
                run_check(name, system, state)
            assert dense() == 0
            for count in (1, 2):
                lp.com_bracket_report(system, state)
                assert dense() == count
            blocks.clear()
        assert cli.run("spacetime_com_brackets", out_dir=str(tmp_path)) == 0
        # the report, the closure and the coupling (no potential, so no decoupling)
        assert dense() == 1 and len(blocks) == 3


class TestComFrameCache:
    def test_four_com_checks_build_one_frame(self, monkeypatch):
        calls = []
        build = obs.com_frame

        def counted(mu):
            calls.append(len(mu))
            return build(mu)

        monkeypatch.setattr(obs, "com_frame", counted)
        system = scaled_system(np.random.default_rng(4), "space_time", 5)
        state = random_state(np.random.default_rng(5), 5)
        lp.com_bracket_report(system, state)
        lp.reproduction_check(system, state)
        lp.com_relative_coupling(system, state)
        lp.decoupling_check(system, state, lp.Uniform(g=[0.0, 1.0, 0.0]))
        assert calls == [5]


class TestMassScaling:
    def test_exact_proportionality_holds(self):
        system = spacetime_system([1.0, 2.0], [2.0, 4.0])
        check = lp.satisfies_mass_scaling(system)
        assert check.holds
        assert check.rule.gamma_kappa == pytest.approx(2.0, abs=0)
        assert check.worst_relative_deviation == 0.0

    def test_detuned_parameters_fail(self):
        system = spacetime_system([1.0, 2.0], [2.0, 4.1])
        check = lp.satisfies_mass_scaling(system, tol=1e-6)
        assert not check.holds
        assert check.rule is None
        assert check.worst_relative_deviation == pytest.approx(0.025, rel=1e-12)

    def test_single_particle_trivially_scales(self):
        system = spacetime_system([2.0], [5.0])
        check = lp.satisfies_mass_scaling(system)
        assert check.holds
        assert check.rule.gamma_kappa == pytest.approx(2.5, abs=0)
        assert check.worst_relative_deviation == 0.0

    def test_canonical_always_scales(self):
        system = lp.ParticleSystem.from_pairs([1.0, 2.0], [lp.Canonical(), lp.Canonical()])
        assert lp.satisfies_mass_scaling(system).holds

    def test_miao_type_ii_requires_shared_kappa_bar(self):
        def sys_with(kb2):
            return lp.ParticleSystem.from_pairs(
                [1.0, 2.0],
                [
                    lp.MiaoTypeII(kappa=1.0, kappa_tilde=2.0, kappa_bar=3.0),
                    lp.MiaoTypeII(kappa=2.0, kappa_tilde=4.0, kappa_bar=kb2),
                ],
            )

        assert lp.satisfies_mass_scaling(sys_with(3.0)).holds
        assert not lp.satisfies_mass_scaling(sys_with(6.0)).holds

    def test_generalized_rule_carries_tensors(self):
        rng = np.random.default_rng(6)
        system = scaled_system(rng, "generalized", 3)
        check = lp.satisfies_mass_scaling(system)
        assert check.holds
        m0 = system.particles[0].mass
        assert np.allclose(check.rule.gamma0, system.particles[0].spec.theta0 * m0, atol=1e-13)

    @pytest.mark.parametrize("n", [1, 3])
    def test_direct_rule_arrays_read_only(self, n):
        # read-only as the rule is built, not only behind ParticleSystem.scaling
        rule = lp.satisfies_mass_scaling(scaled_system(np.random.default_rng(8), "generalized", n)).rule
        for name in ("gamma0", "gamma", "gamma_tilde", "theta_bar"):
            value = getattr(rule, name)
            assert not value.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                value[(0,) * value.ndim] = 1.0

    @pytest.mark.parametrize("variant, scaled", [("generalized", True), ("space_time", False)])
    def test_system_scaling_is_the_default_check_made_once(self, variant, scaled, monkeypatch):
        rng = np.random.default_rng(7)
        system = scaled_system(rng, variant, 3) if scaled else random_system(rng, variant, 3)
        expected = lp.satisfies_mass_scaling(system)
        calls = []
        check = composition.satisfies_mass_scaling
        monkeypatch.setattr(composition, "satisfies_mass_scaling",
                            lambda system: calls.append(system) or check(system))
        assert system.scaling is system.scaling
        assert calls == [system]
        got = system.scaling
        assert (got.holds, got.worst_relative_deviation) == (
            expected.holds, expected.worst_relative_deviation)
        assert got.holds is scaled
        if scaled:
            for name in ("gamma0", "gamma", "gamma_tilde", "theta_bar"):
                value = getattr(got.rule, name)
                assert value.tobytes() == getattr(expected.rule, name).tobytes()
                assert not value.flags.writeable
        with pytest.raises(AttributeError):
            system.scaling = expected

    def test_negative_tolerance_rejected(self):
        state = random_state(np.random.default_rng(3), 2)
        checks = [
            lp.satisfies_mass_scaling,
            lambda system, tol: lp.reproduction_check(system, state, tol=tol),
        ]
        # unscaled pairs: a NaN tolerance, which no deviation exceeds, made
        # the SpaceSpace rule hold and gave that pair effective parameters
        for spec in (lp.SpaceSpace(kappa_tilde=1.0), lp.SpaceTime(kappa=1.0)):
            system = lp.ParticleSystem.from_pairs([1.0, 2.0], [spec] * 2)
            for check in checks:
                for tol in (-1.0, np.nan):
                    with pytest.raises(ValueError, match="tol"):
                        check(system, tol=tol)

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_matches_pairwise_loop_bit_for_bit(self, variant):
        rng = np.random.default_rng(15)
        for trial in range(12):
            n = int(rng.integers(1, 9))
            if trial % 3 == 0:
                system = random_system(rng, variant, n)
            else:
                system = scaled_system(rng, variant, n)
            if trial % 3 == 2:  # detune the last particle slightly
                specs = system.specs
                specs[-1] = lp.algebra.rescale(specs[-1], 1.0 + 1e-7 * rng.uniform())
                system = lp.ParticleSystem.from_pairs(system.masses.tolist(), specs)
            tol = float(rng.choice([0.0, 1e-9, 1e-6]))
            check = lp.satisfies_mass_scaling(system, tol=tol)
            holds, worst = _scaling_loop(system, tol)
            assert check.holds == holds
            assert check.worst_relative_deviation == worst


def _deviation_loop(a, b) -> float:
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    diff = np.abs(a - b)
    denom = np.abs(b)
    rel = np.where(denom > 0.0, diff / np.where(denom > 0.0, denom, 1.0), diff)
    return float(rel.max()) if rel.size else 0.0


def _scaling_loop(system, tol):
    """The scaling verdict and worst pairwise deviation one particle pair at a
    time: the reference for the vectorised ``satisfies_mass_scaling``."""
    holds, worst = True, 0.0
    for vals in _scaled_values(system).values():
        mean = np.einsum("a,a...->...", system.mu, vals)
        n = len(vals)
        holds = holds and all(_deviation_loop(vals[a], mean) <= tol for a in range(n))
        for a in range(n):
            for b in range(n):
                if a != b:
                    worst = max(worst, _deviation_loop(vals[a], vals[b]))
    return holds, worst


class TestEffectiveParameters:
    def test_identical_particles_reduce_by_count(self):
        system = spacetime_system([1.0, 1.0, 1.0], [2.0, 2.0, 2.0])
        assert lp.effective_parameters(system).kappa == pytest.approx(6.0, abs=1e-14)

    def test_harmonic_sum_law(self):
        system = spacetime_system([1.0, 2.0], [3.0, 5.0])
        assert lp.effective_parameters(system).kappa == pytest.approx(135.0 / 17.0, rel=1e-15)

    def test_scaled_case_gives_gamma_times_total_mass(self):
        system = spacetime_system([1.0, 3.0], [2.0, 6.0])
        assert lp.effective_parameters(system).kappa == pytest.approx(8.0, abs=1e-14)

    def test_spacetime_allowed_without_scaling(self):
        system = spacetime_system([1.0, 2.0], [1.0, 1.0])
        spec = lp.effective_parameters(system)
        assert isinstance(spec, lp.SpaceTime)

    def test_spacespace_requires_scaling(self):
        system = lp.ParticleSystem.from_pairs(
            [1.0, 2.0], [lp.SpaceSpace(kappa_tilde=1.0), lp.SpaceSpace(kappa_tilde=1.0)]
        )
        with pytest.raises(lp.ScalingRequiredError):
            lp.effective_parameters(system)

    def test_spacespace_scaled_value(self):
        system = lp.ParticleSystem.from_pairs(
            [1.0, 2.0], [lp.SpaceSpace(kappa_tilde=1.5), lp.SpaceSpace(kappa_tilde=3.0)]
        )
        spec = lp.effective_parameters(system)
        assert spec.kappa_tilde == pytest.approx(4.5, rel=1e-14)  # gamma * M = 1.5 * 3

    def test_generalized_scaled_tensors(self):
        rng = np.random.default_rng(7)
        system = scaled_system(rng, "generalized", 4)
        eff = lp.effective_parameters(system)
        m0 = system.particles[0].mass
        gamma0 = system.particles[0].spec.theta0 * m0
        total = system.total_mass
        assert np.allclose(eff.theta0, gamma0 / total, atol=1e-14)
        assert np.allclose(eff.theta_bar, system.particles[0].spec.theta_bar, atol=1e-14)

    def test_generalized_t_valued_only_needs_no_scaling(self):
        rng = np.random.default_rng(8)
        theta0 = rng.uniform(-1, 1, (3, 3))
        theta0 = theta0 - theta0.T
        specs = [lp.Generalized(theta0=theta0), lp.Generalized(theta0=2.0 * theta0)]
        system = lp.ParticleSystem.from_pairs([1.0, 2.0], specs)
        eff = lp.effective_parameters(system)
        mu = system.mu
        assert np.allclose(eff.theta0, mu[0] ** 2 * theta0 + mu[1] ** 2 * 2.0 * theta0, atol=0)

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_scaled_laws_all_variants(self, variant):
        # kappa_a = gamma m_a gives 1 / sum mu_a^2 / kappa_a = gamma M, theta_a =
        # gamma / m_a gives sum mu_a^2 theta_a = gamma / M; shared values come
        # through up to rounding, axes exactly
        rng = np.random.default_rng(16)
        system = scaled_system(rng, variant, 4)
        eff = lp.effective_parameters(system)
        first, m0, total = system.particles[0].spec, system.particles[0].mass, system.total_mass
        assert type(eff) is type(first)
        for name in ("kappa", "kappa_tilde"):
            if hasattr(first, name):
                gamma = getattr(first, name) / m0
                assert getattr(eff, name) == pytest.approx(gamma * total, rel=1e-14)
        for name in ("theta0", "theta", "theta_tilde"):
            if hasattr(first, name):
                gamma = getattr(first, name) * m0
                assert np.max(np.abs(getattr(eff, name) - gamma / total)) <= 1e-14
        if hasattr(first, "kappa_bar"):
            assert eff.kappa_bar == pytest.approx(first.kappa_bar, rel=1e-14)
        if hasattr(first, "theta_bar"):
            assert np.max(np.abs(eff.theta_bar - first.theta_bar)) <= 1e-14
        for name in ("rho", "tau", "k", "l", "gamma"):
            if hasattr(first, name):
                assert getattr(eff, name) == getattr(first, name)

    def test_unequal_kappa_bar_law(self):
        masses, kappa_bars = [1.0, 2.0, 5.0], [3.0, -4.0, 7.0]
        specs = [lp.MiaoTypeII(kappa=2.0 * m, kappa_tilde=1.5 * m, kappa_bar=kb)
                 for m, kb in zip(masses, kappa_bars)]
        system = lp.ParticleSystem.from_pairs(masses, specs)
        mu = np.array(masses) / sum(masses)
        expected = 1.0 / sum(mu_a / kb for mu_a, kb in zip(mu, kappa_bars))
        eff = _candidate_effective(system)
        assert eff.kappa_bar == pytest.approx(expected, rel=1e-14)
        assert eff.kappa == pytest.approx(2.0 * sum(masses), rel=1e-14)
        with pytest.raises(lp.ScalingRequiredError):
            lp.effective_parameters(system)

    def test_unequal_theta_bar_law(self):
        rng = np.random.default_rng(17)
        masses = [1.0, 3.0]
        bars = [rng.uniform(-1, 1, (3, 3, 3)) for _ in masses]
        system = lp.ParticleSystem.from_pairs(
            masses, [lp.Generalized(theta_bar=b) for b in bars]
        )
        mu = np.array(masses) / sum(masses)
        expected = mu[0] * bars[0] + mu[1] * bars[1]
        assert np.max(np.abs(_candidate_effective(system).theta_bar - expected)) <= 1e-14

    def test_merging_preserves_effective_parameters(self):
        # under the scaling rule, replacing a subset by one pseudo-particle
        # of the summed mass leaves the effective parameters unchanged
        gamma = 1.7
        masses = [0.5, 1.5, 2.0]
        system = spacetime_system(masses, [gamma * m for m in masses])
        merged = spacetime_system([0.5, 3.5], [gamma * 0.5, gamma * 3.5])
        full = lp.effective_parameters(system).kappa
        reduced = lp.effective_parameters(merged).kappa
        assert full == pytest.approx(reduced, rel=1e-12)


class TestReproductionCheck:
    def test_spacetime_always_closes(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            system = random_system(rng, "space_time", 3)
            state = random_state(rng, 3)
            result = lp.reproduction_check(system, state)
            assert result.closes, result.max_abs_diff

    def test_scaled_spacespace_closes_onto_com_coordinates(self):
        system = lp.ParticleSystem.from_pairs(
            [1.0, 2.0], [lp.SpaceSpace(kappa_tilde=1.5), lp.SpaceSpace(kappa_tilde=3.0)]
        )
        state = lp.PhaseState(x=[[1, -0.5, 2], [-1.5, 2.5, 0.5]],
                              p=[[0.5, 1, -1], [2, -0.25, 0.75]])
        result = lp.reproduction_check(system, state)
        assert result.closes
        # {Xcom_k, Xcom_gamma} = Xcom_l / (gamma * M)
        report = lp.com_bracket_report(system, state)
        com = lp.com_transform(system, state)
        assert report.computed["{Xcom_1,Xcom_3}"] == pytest.approx(
            com.x_com[1] / 4.5, rel=1e-12
        )

    def test_unscaled_spacespace_does_not_close(self):
        system = lp.ParticleSystem.from_pairs(
            [1.0, 2.0], [lp.SpaceSpace(kappa_tilde=1.0), lp.SpaceSpace(kappa_tilde=1.0)]
        )
        state = lp.PhaseState(x=[[1, 0, 0], [0, 1, 0]], p=[[0, 0, 1], [1, 0, 0]])
        assert not lp.reproduction_check(system, state).closes

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        variant=st.sampled_from(VARIANT_NAMES),
        n=st.integers(2, 5),
    )
    def test_scaling_implies_closure(self, seed, variant, n):
        rng = np.random.default_rng(seed)
        system = scaled_system(rng, variant, n)
        state = random_state(rng, n)
        result = lp.reproduction_check(system, state)
        assert result.closes, (variant, result.max_abs_diff)


class TestComRelativeCoupling:
    def test_scaled_spacetime_decouples(self):
        system = spacetime_system([1.0, 3.0], [2.0, 6.0])
        state = random_state(np.random.default_rng(11), 2)
        assert lp.com_relative_coupling(system, state) <= 1e-13

    def test_unscaled_spacetime_coupling_value(self):
        system = spacetime_system([1.0, 2.0], [1.0, 1.0])
        state = lp.PhaseState(x=np.zeros((2, 3)), p=np.zeros((2, 3)), t=1.0)
        assert lp.com_relative_coupling(system, state) == pytest.approx(2.0 / 9.0, abs=1e-15)

    def test_scaled_spacespace_residual_coupling(self):
        # with dX_l^(a) = +-0.6, dP = 0 and kappa_tilde_eff = 3 the dominant
        # coupling is {dX_k^(a), Xcom_gamma} = dX_l^(a) / kappa_tilde_eff = 0.2
        system = lp.ParticleSystem.from_pairs(
            [1.0, 1.0], [lp.SpaceSpace(kappa_tilde=1.5), lp.SpaceSpace(kappa_tilde=1.5)]
        )
        state = lp.PhaseState(
            x=[[0.0, 0.6, 0.0], [0.0, -0.6, 0.0]],
            p=[[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]],
        )
        value = lp.com_relative_coupling(system, state)
        assert value == pytest.approx(0.2, rel=1e-12)
