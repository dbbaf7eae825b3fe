"""Center-of-mass reduction of N-particle systems.

Builds center-of-mass and relative variables, evaluates their brackets both
through the chain rule (one product W J W^T of the change of variables W
with the block-wise structure matrix J) and through hand-derived closed
forms, computes the effective deformation parameters of the
center-of-mass algebra, and tests the mass-scaling condition under which
that algebra closes into the single-particle form.

Conventions: Pcom = sum_a P^(a), Xcom = sum_a mu_a X^(a) with
mu_a = m_a / M, and dP^(a) = P^(a) - mu_a Pcom, dX^(a) = X^(a) - Xcom.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import observables as obs
from .algebra import (
    AXIS,
    SCALED,
    AlgebraSpec,
    Canonical,
    Generalized,
    MiaoTypeI,
    MiaoTypeII,
    PhaseState,
    SpaceSpace,
    SpaceTime,
    LoweredAlgebra,
    _phase_points,
    lower,
    parameter_roles,
    rescale,
)
from .errors import ScalingRequiredError

__all__ = [
    "Particle",
    "ParticleSystem",
    "ComVariables",
    "MassScalingRule",
    "ScalingCheck",
    "ComBracketReport",
    "ReproductionCheck",
    "com_transform",
    "com_bracket_report",
    "effective_parameters",
    "satisfies_mass_scaling",
    "reproduction_check",
    "com_relative_coupling",
]


@dataclass(frozen=True)
class Particle:
    mass: float
    spec: AlgebraSpec

    def __post_init__(self):
        if not np.isfinite(self.mass) or self.mass <= 0.0:
            raise ValueError(f"particle mass must be positive and finite, got {self.mass!r}")


def _structural_axes(spec: AlgebraSpec) -> tuple:
    return tuple(getattr(spec, name) for name, role in parameter_roles(spec) if role.kind == AXIS)


@dataclass(frozen=True)
class ParticleSystem:
    """N particles, each a mass plus a bracket-algebra spec.

    All particles must carry the same algebra variant (and, for the axis-
    pinned variants, the same distinguished axes); the deformation
    parameters may differ particle by particle.
    """

    particles: tuple[Particle, ...]

    def __post_init__(self):
        particles = tuple(self.particles)
        if not particles:
            raise ValueError("a particle system needs at least one particle")
        object.__setattr__(self, "particles", particles)
        first = particles[0].spec
        for p in particles[1:]:
            if type(p.spec) is not type(first):
                raise ValueError(
                    "mixed algebra variants in one system are not supported: "
                    f"{type(first).__name__} vs {type(p.spec).__name__}"
                )
            if _structural_axes(p.spec) != _structural_axes(first):
                raise ValueError("all particles must share the same distinguished axes")

    @classmethod
    def from_pairs(cls, masses: Sequence[float], specs: Sequence[AlgebraSpec]) -> "ParticleSystem":
        if len(masses) != len(specs):
            raise ValueError("masses and specs must have equal length")
        return cls(tuple(Particle(float(m), s) for m, s in zip(masses, specs)))

    @property
    def n_particles(self) -> int:
        return len(self.particles)

    @property
    def masses(self) -> np.ndarray:
        return np.array([p.mass for p in self.particles])

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    @property
    def mu(self) -> np.ndarray:
        """Mass fractions mu_a = m_a / M (sum to one)."""
        m = self.masses
        return m / m.sum()

    @property
    def specs(self) -> list[AlgebraSpec]:
        return [p.spec for p in self.particles]

    @property
    def variant(self) -> type:
        return type(self.particles[0].spec)

    @cached_property
    def lowered(self) -> LoweredAlgebra:
        """The particles' brackets in tensor form, lowered once per system."""
        return lower(self.specs)

    @cached_property
    def frame(self) -> np.ndarray:
        """The COM change of variables W (``observables.com_frame``), read-only."""
        w = obs.com_frame(self.mu)
        w.flags.writeable = False
        return w


@dataclass(frozen=True)
class ComVariables:
    """Center-of-mass and relative coordinates/momenta of one phase point."""

    x_com: np.ndarray  # (3,)
    p_com: np.ndarray  # (3,)
    dx: np.ndarray  # (N, 3)
    dp: np.ndarray  # (N, 3)


def _check_particle_count(system: ParticleSystem, state: PhaseState) -> None:
    if state.n_particles != system.n_particles:
        raise ValueError(
            f"state has {state.n_particles} particles, system has {system.n_particles}"
        )


def com_transform(system: ParticleSystem, state: PhaseState) -> ComVariables:
    """Split a phase point into center-of-mass and relative variables.

    Satisfies sum_a dP^(a) = 0 and sum_a mu_a dX^(a) = 0 identically.
    """
    _check_particle_count(system, state)
    mu = system.mu
    x_com = mu @ state.x
    p_com = state.p.sum(axis=0)
    dx = state.x - x_com
    dp = state.p - np.outer(mu, p_com)
    return ComVariables(x_com=x_com, p_com=p_com, dx=dx, dp=dp)


# --- closed-form bracket tables ---------------------------------------------
#
# Single-particle tables transcribed as 3x3 arrays:
#   A_ij = {X_i, X_j}           (antisymmetric)
#   B_ij = {X_i, P_j} - delta_ij
# These transcriptions are deliberately independent of the 6x6 block builder
# in the algebra module; the bracket report compares the two routes.


def _table_xx(spec: AlgebraSpec, x: np.ndarray, p: np.ndarray, t: float) -> np.ndarray:
    a = np.zeros((3, 3))
    if isinstance(spec, Canonical):
        return a
    if isinstance(spec, SpaceTime):
        r, s = spec.rho - 1, spec.tau - 1
        a[r, s] = t / spec.kappa
        a[s, r] = -t / spec.kappa
        return a
    if isinstance(spec, (SpaceSpace, MiaoTypeI, MiaoTypeII)):
        k, l, g = spec.k - 1, spec.l - 1, spec.gamma - 1
        a[k, g] = x[l] / spec.kappa_tilde
        a[l, g] = -x[k] / spec.kappa_tilde
        if isinstance(spec, (MiaoTypeI, MiaoTypeII)):
            a[k, g] -= t / spec.kappa
            a[l, g] += t / spec.kappa
        if isinstance(spec, MiaoTypeI):
            a[k, l] = t / spec.kappa
        a[g, k] = -a[k, g]
        a[g, l] = -a[l, g]
        a[l, k] = -a[k, l]
        return a
    if isinstance(spec, Generalized):
        return spec.theta0 * t + np.einsum("kij,k->ij", spec.theta, x)
    raise TypeError(f"unknown algebra variant: {type(spec).__name__}")


def _table_xp_deform(spec: AlgebraSpec, x: np.ndarray, p: np.ndarray, t: float) -> np.ndarray:
    b = np.zeros((3, 3))
    if isinstance(spec, (Canonical, SpaceTime)):
        return b
    if isinstance(spec, (SpaceSpace, MiaoTypeI, MiaoTypeII)):
        k, l, g = spec.k - 1, spec.l - 1, spec.gamma - 1
        b[g, k] = -p[l] / spec.kappa_tilde
        b[g, l] = p[k] / spec.kappa_tilde
        if isinstance(spec, MiaoTypeII):
            b[g, k] -= x[l] / spec.kappa_bar
            b[g, l] -= x[k] / spec.kappa_bar
        return b
    if isinstance(spec, Generalized):
        return np.einsum("kij,k->ij", spec.theta_bar, x) + np.einsum(
            "kij,k->ij", spec.theta_tilde, p
        )
    raise TypeError(f"unknown algebra variant: {type(spec).__name__}")


def _closed_form_tables(system: ParticleSystem, state: PhaseState):
    """Per-particle A and B tables, stacked to shape (N, 3, 3)."""
    a = np.stack(
        [_table_xx(p.spec, state.x[i], state.p[i], state.t) for i, p in enumerate(system.particles)]
    )
    b = np.stack(
        [
            _table_xp_deform(p.spec, state.x[i], state.p[i], state.t)
            for i, p in enumerate(system.particles)
        ]
    )
    return a, b


def _pair_key(left: str, right: str) -> str:
    return "{" + left + "," + right + "}"


@dataclass(frozen=True)
class ComBracketReport:
    """Chain-rule versus closed-form values of every COM/relative bracket."""

    computed: dict[str, float]
    closed_form: dict[str, float]
    max_abs_diff: float

    def to_dict(self) -> dict:
        return {
            "computed": dict(self.computed),
            "closed_form": dict(self.closed_form),
            "max_abs_diff": self.max_abs_diff,
        }


def _com_brackets(system: ParticleSystem, state: PhaseState) -> np.ndarray:
    """B = W J W^T: the brackets among all COM and relative variables.

    Entry (r, s) is the bracket of the variables of rows r and s of
    ``system.frame``.  J is block-diagonal, so W J is taken block by block;
    each row of W has one nonzero weight per particle, which makes W J equal
    to the dense product entry for entry.
    """
    _check_particle_count(system, state)
    w = system.frame
    blocks = system.lowered.blocks(_phase_points(state), state.t)
    wj = (w.reshape(len(w), -1, 1, 6) @ blocks).reshape(w.shape)
    return wj @ w.T


def com_bracket_report(system: ParticleSystem, state: PhaseState) -> ComBracketReport:
    """Evaluate all COM/relative brackets two independent ways.

    ``computed`` applies the chain rule grad(f) . J . grad(g) to the COM and
    relative observables; ``closed_form`` evaluates the hand-derived sums
    over single-particle bracket tables.  The two agree to rounding for all
    variants; this is the module's central correctness check.
    """
    n = system.n_particles
    mu = system.mu
    brackets = _com_brackets(system, state)
    x, p = slice(0, 3), slice(3, 6)
    dx, dp = slice(6, 6 + 3 * n), slice(6 + 3 * n, None)

    def per_particle(rows, cols):
        """B[rows, cols] for relative rows and COM columns, indexed [a, i, j]."""
        return brackets[rows, cols].reshape(n, 3, 3)

    def per_pair(rows, cols):
        """B[rows, cols] for relative rows and columns, indexed [a, b, i, j]."""
        return brackets[rows, cols].reshape(n, 3, n, 3).transpose(0, 2, 1, 3)

    # closed-form side: sums over the single-particle tables only
    a_tab, b_tab = _closed_form_tables(system, state)
    sum_mu2_a = np.einsum("a,aij->ij", mu**2, a_tab)
    sum_mu_b = np.einsum("a,aij->ij", mu, b_tab)
    eye = np.eye(3)
    pcom_dx = sum_mu_b.T - b_tab.transpose(0, 2, 1)
    # pair families broadcast particle a over axis 0 and b over axis 1
    delta = np.eye(n)[:, :, None, None]
    mu_a, mu_b = mu[:, None, None, None], mu[None, :, None, None]
    a_a, a_b = a_tab[:, None], a_tab[None, :]
    b_a, b_b = b_tab[:, None], b_tab[None, :]

    x_names = np.array([f"Xcom_{i}" for i in (1, 2, 3)])
    p_names = np.array([f"Pcom_{i}" for i in (1, 2, 3)])
    dx_names = np.array([[f"dX_{i}[{a}]" for i in (1, 2, 3)] for a in range(n)])
    dp_names = np.array([[f"dP_{i}[{a}]" for i in (1, 2, 3)] for a in range(n)])
    # left and right labels of the pair families, indexed [a, b, i, j]
    dx_left, dx_right = dx_names[:, None, :, None], dx_names[None, :, None, :]
    dp_left, dp_right = dp_names[:, None, :, None], dp_names[None, :, None, :]

    # (left labels, right labels, chain-rule view of B, closed form), in
    # groups of one index shape: [i, j], then [a, i, j], then [a, b, i, j]
    groups = (
        (
            (x_names[:, None], x_names, brackets[x, x], sum_mu2_a),
            (x_names[:, None], p_names, brackets[x, p], eye + sum_mu_b),
            (p_names[:, None], p_names, brackets[p, p], np.zeros((3, 3))),
        ),
        (
            (dx_names[:, :, None], x_names, per_particle(dx, x),
             mu[:, None, None] * a_tab - sum_mu2_a),
            (p_names[:, None], dx_names[:, None, :],
             brackets[p, dx].reshape(3, n, 3).transpose(1, 0, 2), pcom_dx),
            (dp_names[:, :, None], x_names, per_particle(dp, x), mu[:, None, None] * pcom_dx),
        ),
        (
            (dx_left, dx_right, per_pair(dx, dx), (delta - mu_a) * a_a - mu_b * a_b + sum_mu2_a),
            (dx_left, dp_right, per_pair(dx, dp),
             eye * (delta - mu_b) + delta * b_a - mu_b * (b_a + b_b - sum_mu_b)),
            (dp_left, dp_right, per_pair(dp, dp), np.zeros((n, n, 3, 3))),
        ),
    )

    computed: dict[str, float] = {}
    closed: dict[str, float] = {}
    for group in groups:
        shape = group[0][3].shape
        # stacked on a last axis, each index emits its group's families in turn
        lefts, rights, gots, wants = (
            np.stack([np.broadcast_to(v, shape) for v in column], axis=-1).ravel().tolist()
            for column in zip(*group)
        )
        for left, right, got, want in zip(lefts, rights, gots, wants):
            key = _pair_key(left, right)
            computed[key] = got
            closed[key] = want

    max_abs_diff = max(abs(computed[k] - closed[k]) for k in computed)
    return ComBracketReport(computed=computed, closed_form=closed, max_abs_diff=max_abs_diff)


# --- mass scaling ------------------------------------------------------------


@dataclass(frozen=True)
class MassScalingRule:
    """Consensus constants of the mass-scaling condition.

    For the scalar-parameter variants the scaled constants are
    gamma_kappa = kappa_a / m_a and gamma_kappa_tilde = kappa_tilde_a / m_a;
    kappa_bar is shared (not scaled).  For Generalized specs the tensor
    constants are gamma0 = theta0 * m, gamma = theta * m,
    gamma_tilde = theta_tilde * m, and theta_bar is shared.  Each field is
    the ``constant`` of one entry of ``algebra.PARAMETER_ROLES``.
    """

    gamma_kappa: Optional[float] = None
    gamma_kappa_tilde: Optional[float] = None
    kappa_bar: Optional[float] = None
    gamma0: Optional[np.ndarray] = None
    gamma: Optional[np.ndarray] = None
    gamma_tilde: Optional[np.ndarray] = None
    theta_bar: Optional[np.ndarray] = None

    def spec_for_mass(self, template: AlgebraSpec, mass: float) -> AlgebraSpec:
        """The template variant's spec for a particle of the given mass."""
        unit_mass = {
            name: getattr(self, role.constant)
            for name, role in parameter_roles(template)
            if role.constant is not None and getattr(self, role.constant) is not None
        }
        return rescale(replace(template, **unit_mass), mass)


@dataclass(frozen=True)
class ScalingCheck:
    holds: bool
    rule: Optional[MassScalingRule]
    worst_relative_deviation: float


def _scaled_values(system: ParticleSystem) -> dict[str, np.ndarray]:
    """Per-particle values that the scaling condition requires to be constant.

    Returns a mapping rule constant -> array of shape (N, ...): entry a is
    particle a's value at unit mass (kappa / m, theta * m) for scaled
    parameters, the bare parameter for shared ones.
    """
    m = system.masses
    out: dict[str, np.ndarray] = {}
    for name, role in parameter_roles(system.variant):
        if role.kind == AXIS:
            continue
        values = np.array([getattr(s, name) for s in system.specs])
        if role.kind == SCALED:
            values = role.unscale(values, m.reshape(-1, *(1,) * (values.ndim - 1)))
        out[role.constant] = values
    return out


def _relative(diff: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Entrywise diff / |ref|, absolute (diff itself) where ref is zero."""
    denom = np.abs(ref)
    return np.where(denom > 0.0, diff / np.where(denom > 0.0, denom, 1.0), diff)


def satisfies_mass_scaling(system: ParticleSystem, tol: float = 1e-9) -> ScalingCheck:
    """Test whether the deformation parameters scale inversely with mass.

    ``holds`` is true when every particle's scaled parameters agree with the
    mass-weighted consensus within ``tol`` (relative, absolute at zeros).
    ``worst_relative_deviation`` reports the largest pairwise disagreement
    between particles, which is the quantity that vanishes under exact
    scaling.
    """
    if tol < 0:
        raise ValueError(f"tol must be nonnegative, got {tol!r}")
    values = _scaled_values(system)
    mu = system.mu

    holds = True
    worst_pairwise = 0.0
    consensus: dict[str, np.ndarray] = {}
    for name, vals in values.items():
        mean = np.einsum("a,a...->...", mu, vals)
        consensus[name] = mean
        if np.any(_relative(np.abs(vals - mean), mean) > tol):
            holds = False
        # max over a of |v_a - v_b| is reached at the largest or the smallest
        # v_a, entry by entry; rounding is monotone, so this equals the
        # largest rounded pairwise difference without forming the N x N pairs
        spread = np.maximum(vals.max(axis=0) - vals, vals - vals.min(axis=0))
        worst_pairwise = max(worst_pairwise, float(_relative(spread, vals).max()))

    rule = None
    if holds:
        kwargs = {}
        for name, mean in consensus.items():
            kwargs[name] = float(mean) if np.ndim(mean) == 0 else mean
        rule = MassScalingRule(**kwargs)
    return ScalingCheck(holds=holds, rule=rule, worst_relative_deviation=worst_pairwise)


def _decouples_exactly(system: ParticleSystem) -> bool:
    """Does the COM motion decouple exactly from the relative motion?  Yes for
    purely time-valued brackets under the mass-scaling rule."""
    return system.lowered.slope is None and satisfies_mass_scaling(system).holds


def _needs_scaling(system: ParticleSystem) -> bool:
    """The t-valued part always closes; coordinate- or momentum-valued
    brackets (theta, theta_tilde) and unequal theta_bar need the scaling
    condition."""
    slope = system.lowered.slope
    if slope is None:
        return False
    # theta fills the X-X corner, theta_tilde the P slices; without either,
    # the slopes differ between particles only through theta_bar
    theta, theta_tilde = slope[:, :3, :3, :3], slope[:, 3:]
    return bool(np.any(theta) or np.any(theta_tilde) or np.any(slope != slope[0]))


def _candidate_effective(system: ParticleSystem) -> AlgebraSpec:
    """Consensus effective spec, defined with or without the scaling rule.

    Under exact scaling this reduces to the closed effective parameters
    (kappa_eff = gamma * M and tensors gamma / M); without scaling it is the
    mass-weighted consensus the COM brackets would have to close into.
    """
    mu = system.mu
    specs = system.specs
    first = specs[0]
    params = {}
    for name, role in parameter_roles(first):
        if role.kind == AXIS:
            params[name] = getattr(first, name)
            continue
        # weights mu_a^2 for scaled parameters, mu_a for shared ones; the
        # scalars are inverse strengths, so their law is harmonic
        power = 2 if role.kind == SCALED else 1
        if role.shape:
            idx = "kij"[3 - len(role.shape):]
            stack = np.stack([getattr(s, name) for s in specs])
            params[name] = np.einsum(f"a,a{idx}->{idx}", mu**power, stack)
        else:
            params[name] = 1.0 / sum(mu_a**power / getattr(s, name) for mu_a, s in zip(mu, specs))
    return type(first)(**params)


def effective_parameters(system: ParticleSystem, tol: float = 1e-9) -> AlgebraSpec:
    """Deformation parameters governing the center-of-mass brackets.

    For SpaceTime (and Canonical, and Generalized specs whose deformation is
    purely t-valued) the effective spec exists for any composition:
    1/kappa_eff = sum_a mu_a^2 / kappa_a, which depends on the composition
    unless the scaling rule holds.  Variants whose COM brackets close only
    under mass scaling (SpaceSpace, the Miao types, Generalized with
    coordinate/momentum-valued terms) require ``satisfies_mass_scaling``;
    ScalingRequiredError is raised otherwise.
    """
    if _needs_scaling(system):
        check = satisfies_mass_scaling(system, tol=tol)
        if not check.holds:
            raise ScalingRequiredError(
                "center-of-mass brackets do not close into the single-particle "
                "algebra form: deformation parameters are not inversely "
                f"proportional to the masses (worst pairwise deviation "
                f"{check.worst_relative_deviation:.3e})"
            )
    return _candidate_effective(system)


@dataclass(frozen=True)
class ReproductionCheck:
    closes: bool
    max_abs_diff: float


def reproduction_check(
    system: ParticleSystem, state: PhaseState, tol: float = 1e-12
) -> ReproductionCheck:
    """Do the COM brackets reproduce the single-particle algebra?

    Compares every chain-rule COM bracket ({Xcom, Xcom}, {Xcom, Pcom},
    {Pcom, Pcom}) against the single-particle bracket table of the
    consensus effective spec evaluated at the COM phase point.
    """
    com = com_transform(system, state)
    candidate = _candidate_effective(system)
    com_point = np.concatenate([com.x_com, com.p_com])[None, :]
    single = lower([candidate]).blocks(com_point, state.t)[0]
    com_brackets = _com_brackets(system, state)[:6, :6]  # (X1..X3, P1..P3) order

    max_abs_diff = float(np.max(np.abs(com_brackets - single)))
    return ReproductionCheck(closes=max_abs_diff <= tol, max_abs_diff=max_abs_diff)


def com_relative_coupling(system: ParticleSystem, state: PhaseState) -> float:
    """Largest bracket magnitude coupling COM and relative motion.

    Scans {dX_i^(a), Xcom_j} together with the momentum couplings
    {Pcom_i, dX_j^(a)} and {dP_i^(a), Xcom_j}.  Vanishes for SpaceTime
    systems under the mass-scaling rule; stays finite for SpaceSpace, where
    the scaled couplings reduce to dX_l^(a) / kappa_tilde_eff and friends.
    """
    n = system.n_particles
    coupling = _com_brackets(system, state)[6:, :6]  # relative rows, COM columns
    dx_com = coupling[: 3 * n]  # {dX, Xcom} and {dX, Pcom} = -{Pcom, dX}
    dp_xcom = coupling[3 * n :, :3]  # {dP, Xcom}
    return float(max(np.max(np.abs(dx_com)), np.max(np.abs(dp_xcom))))
