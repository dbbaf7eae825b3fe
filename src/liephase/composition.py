"""Center-of-mass reduction of N-particle systems.

Builds center-of-mass and relative variables, evaluates their brackets both
through the chain rule (B = W J W^T of the change of variables W and the
block-wise structure matrix J) and through hand-derived closed forms (B's
twin C), computes the effective deformation parameters of the center-of-mass
algebra, and tests the mass-scaling condition under which that algebra closes
into the single-particle form.

Conventions: Pcom = sum_a P^(a), Xcom = sum_a mu_a X^(a) with
mu_a = m_a / M, and dP^(a) = P^(a) - mu_a Pcom, dX^(a) = X^(a) - Xcom.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
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


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _structural_axes(spec: AlgebraSpec) -> tuple:
    return tuple(getattr(spec, name) for name, role in parameter_roles(spec) if role.kind == AXIS)


# the entries depend on N alone, so systems of one size share them
@lru_cache(maxsize=8)
def _bracket_entries(n: int) -> np.ndarray:
    """The entries of a (6 + 6N)^2 matrix over the rows of ``com_frame`` that
    ``com_bracket_report`` lists, as read-only flat indices in key order:
    one index shape at a time, [i, j], then [a, i, j], then [a, b, i, j],
    and each index its shape's three bracket families in turn."""
    size = 6 + 6 * n
    x, p, dx, dp = np.split(np.arange(size), [3, 6, 6 + 3 * n])
    dx, dp = dx.reshape(n, 3), dp.reshape(n, 3)
    groups = (
        ((x, x), (x, p), (p, p)),
        ((dx, x), (p, dx), (dp, x)),
        ((dx[:, None], dx), (dx[:, None], dp), (dp[:, None], dp)),
    )
    out = np.empty(27 * (1 + n + n * n), dtype=np.intp)
    views = (out[:27].reshape(3, 3, 3), out[27 : 27 * (1 + n)].reshape(n, 3, 3, 3),
             out[27 * (1 + n) :].reshape(n, n, 3, 3, 3))
    for view, group in zip(views, groups):
        for f, (left, right) in enumerate(group):
            np.add(left[..., None] * size, right[..., None, :], out=view[..., f])
    return _read_only(out)


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

    def __getstate__(self):
        # the cached arrays derive from the particles (and would unpickle writable)
        return {"particles": self.particles}

    @classmethod
    def from_pairs(cls, masses: Sequence[float], specs: Sequence[AlgebraSpec]) -> "ParticleSystem":
        if len(masses) != len(specs):
            raise ValueError("masses and specs must have equal length")
        return cls(tuple(Particle(float(m), s) for m, s in zip(masses, specs)))

    @property
    def n_particles(self) -> int:
        return len(self.particles)

    @cached_property
    def masses(self) -> np.ndarray:
        """The particles' masses, read-only."""
        return _read_only(np.array([p.mass for p in self.particles]))

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    @cached_property
    def mu(self) -> np.ndarray:
        """Mass fractions mu_a = m_a / M (sum to one), read-only."""
        return _read_only(self.masses / self.masses.sum())

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
        return _read_only(obs.com_frame(self.mu))

    @cached_property
    def bracket_keys(self) -> tuple[str, ...]:
        """The keys of ``com_bracket_report``, built once per system on a first
        read: ``{left,right}`` names the row and column of each ``_bracket_entries``."""
        names = obs.com_frame_rows(self.n_particles)
        rows, cols = np.divmod(_bracket_entries(self.n_particles), len(names))
        return tuple(f"{{{names[r]},{names[c]}}}" for r, c in zip(rows.tolist(), cols.tolist()))

    @cached_property
    def bracket_index(self) -> dict[str, int]:
        """Position of each of ``bracket_keys``, built on the first key lookup
        in a report of this system."""
        return {key: i for i, key in enumerate(self.bracket_keys)}

    @cached_property
    def scaling(self) -> "ScalingCheck":
        """``satisfies_mass_scaling`` at its default tolerance, checked once per system."""
        return satisfies_mass_scaling(self)

    @cached_property
    def candidate_effective(self) -> AlgebraSpec:
        """``_candidate_effective``, the consensus effective spec, built once per system."""
        return _candidate_effective(self)


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
    # a sum that overflows is left infinite, for the caller to refuse or report
    with np.errstate(over="ignore", invalid="ignore"):
        x_com = mu @ state.x
        p_com = state.p.sum(axis=0)
        dx = state.x - x_com
        dp = state.p - np.outer(mu, p_com)
    return ComVariables(x_com=x_com, p_com=p_com, dx=dx, dp=dp)


# --- closed-form bracket tables ---------------------------------------------
#
# Single-particle tables transcribed as 3x3 arrays, both from ``_tables``:
#   A_ij = {X_i, X_j}           (antisymmetric)
#   B_ij = {X_i, P_j} - delta_ij
# These transcriptions are deliberately independent of the 6x6 block builder
# in the algebra module; the bracket report, and ``closed_form_rhs`` through
# the chain rule, compare the two routes.


def _tables(spec: AlgebraSpec, x: np.ndarray, p: np.ndarray, t: float) -> tuple:
    a, b = np.zeros((2, 3, 3))
    if isinstance(spec, SpaceTime):
        r, s = spec.rho - 1, spec.tau - 1
        a[r, s] = t / spec.kappa
        a[s, r] = -t / spec.kappa
    elif isinstance(spec, (SpaceSpace, MiaoTypeI, MiaoTypeII)):
        k, l, g = spec.k - 1, spec.l - 1, spec.gamma - 1
        a[k, g] = x[l] / spec.kappa_tilde
        a[l, g] = -x[k] / spec.kappa_tilde
        b[g, k] = -p[l] / spec.kappa_tilde
        b[g, l] = p[k] / spec.kappa_tilde
        if isinstance(spec, (MiaoTypeI, MiaoTypeII)):
            a[k, g] -= t / spec.kappa
            a[l, g] += t / spec.kappa
        if isinstance(spec, MiaoTypeI):
            a[k, l] = t / spec.kappa
        if isinstance(spec, MiaoTypeII):
            b[g, k] -= x[l] / spec.kappa_bar
            b[g, l] -= x[k] / spec.kappa_bar
        a[g, k] = -a[k, g]
        a[g, l] = -a[l, g]
        a[l, k] = -a[k, l]
    elif isinstance(spec, Generalized):
        a = spec.theta0 * t + np.einsum("kij,k->ij", spec.theta, x)
        b = np.einsum("kij,k->ij", spec.theta_bar, x) + np.einsum("kij,k->ij", spec.theta_tilde, p)
    elif not isinstance(spec, Canonical):
        raise TypeError(f"unknown algebra variant: {type(spec).__name__}")
    return a, b


def _closed_form_tables(system: ParticleSystem, state: PhaseState):
    """Per-particle A and B tables, written into two (N, 3, 3) arrays."""
    a, b = np.empty((2, system.n_particles, 3, 3))
    for i, particle in enumerate(system.particles):
        a[i], b[i] = _tables(particle.spec, state.x[i], state.p[i], state.t)
    return a, b


class _BracketView(Mapping):
    """Read-only mapping of a system's ``bracket_keys`` to one flat array of
    bracket values, in key order.

    The view builds nothing itself.  Iteration yields the system's own key
    objects; a key lookup returns a Python float through
    ``system.bracket_index``, which the system builds on the first lookup;
    ``items()`` and ``values()`` take one ``tolist()`` of the array.
    """

    __slots__ = ("_system", "_values")

    def __init__(self, system: "ParticleSystem", values: np.ndarray):
        values.flags.writeable = False
        self._system = system
        self._values = values

    def __reduce__(self):
        # through __init__, since pickle does not keep the array read-only
        return _BracketView, (self._system, self._values)

    def __getitem__(self, key: str) -> float:
        return float(self._values[self._system.bracket_index[key]])

    def __iter__(self):
        return iter(self._system.bracket_keys)

    def __len__(self) -> int:
        return len(self._values)

    def items(self):
        return _ViewItems(self)

    def values(self):
        return _ViewValues(self)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class _ViewItems(ItemsView):
    def __iter__(self):
        return zip(self._mapping, self._mapping._values.tolist())


class _ViewValues(ValuesView):
    def __iter__(self):
        return iter(self._mapping._values.tolist())


@dataclass(frozen=True)
class ComBracketReport:
    """Chain-rule versus closed-form values of every COM/relative bracket.

    ``computed`` and ``closed_form`` map each bracket key to its value.
    ``com_bracket_report`` makes them read-only mappings over two flat,
    read-only arrays in the order of ``ParticleSystem.bracket_keys``; plain
    dicts work as well.  ``max_abs_diff`` is the largest
    |computed - closed_form| over all keys; it is NaN when any entry of
    either side is NaN, so a NaN bracket fails every tolerance.
    """

    computed: Mapping[str, float]
    closed_form: Mapping[str, float]
    max_abs_diff: float

    def to_dict(self) -> dict:
        """Plain dicts of both sides, in key order."""
        return {
            "computed": dict(self.computed.items()),
            "closed_form": dict(self.closed_form.items()),
            "max_abs_diff": self.max_abs_diff,
        }


def _com_brackets(system: ParticleSystem, state: PhaseState,
                  rows: slice = slice(None), cols: slice = slice(None)) -> np.ndarray:
    """B[rows, cols] of B = W J W^T, the brackets of the COM and relative variables.

    Entry (r, s) of B is the bracket of rows r and s of ``system.frame``.  Only
    the block is formed, as (W J)[rows] W[cols]^T: O(N^3) for all of B, O(N^2) or
    less for a block of the six COM rows or columns.  J is block-diagonal, so
    (W J)[rows] is one (R x 6) @ (6 x 6) product per particle; each row of W has
    one nonzero weight per particle, which makes it equal to the dense product entry for entry.
    """
    w = system.frame[rows]
    blocks = system.lowered.blocks(state.flatten().reshape(-1, 6), state.t)
    per_particle = w.reshape(len(w), len(blocks), 6).transpose(1, 0, 2)
    wj = (per_particle @ blocks).transpose(1, 0, 2).reshape(w.shape)
    return wj @ system.frame[cols].T


def com_bracket_report(system: ParticleSystem, state: PhaseState) -> ComBracketReport:
    """Evaluate all COM/relative brackets two independent ways.

    ``computed`` applies the chain rule grad(f) . J . grad(g) to the COM and
    relative observables; ``closed_form`` evaluates the hand-derived sums
    over single-particle bracket tables.  The two agree to rounding for all
    variants; this is the module's central correctness check, and the one
    COM check that forms all of B = W J W^T, its chain-rule side.  The
    closed forms fill C, B's twin over the rows of W, and both sides read
    ``_bracket_entries`` of their matrix into one flat array each, keyed by
    ``system.bracket_keys``; no per-key dict is built.
    """
    n = system.n_particles
    mu = system.mu
    entries = _bracket_entries(n)
    got, want = np.empty((2, len(entries)))  # one allocation for both sides
    c = _com_brackets(system, state)  # B; once read out, its array holds C
    # the entries are in range: "clip" only spares take's buffered copy
    c.take(entries, out=got, mode="clip")
    c.fill(0.0)
    x, p, dx, dp = slice(0, 3), slice(3, 6), slice(6, 6 + 3 * n), slice(6 + 3 * n, None)

    # closed-form side C: sums over the single-particle tables only, never W or
    # J, each family in its block; the other entries (their transposes) are +0.0
    a_tab, b_tab = _closed_form_tables(system, state)
    sum_mu2_a = np.einsum("a,aij->ij", mu**2, a_tab)
    sum_mu_b = np.einsum("a,aij->ij", mu, b_tab)
    eye = np.eye(3)
    pcom_dx = sum_mu_b.T - b_tab.transpose(0, 2, 1)  # {Pcom_i, dX_j[a]}, indexed [a, i, j]
    # pair families broadcast particle a over axis 0 and b over axis 1
    delta = np.eye(n)[:, :, None, None]
    mu_a, mu_b = mu[:, None, None, None], mu[None, :, None, None]
    a_a, a_b = a_tab[:, None], a_tab[None, :]
    b_a, b_b = b_tab[:, None], b_tab[None, :]

    # the relative block, viewed as [left dX or dP, right dX or dP, a, b, i, j]
    pairs = c[6:, 6:].reshape(2, n, 3, 2, n, 3).transpose(0, 3, 1, 4, 2, 5)
    c[x, x] = sum_mu2_a
    c[x, p] = eye + sum_mu_b
    c[dx, x] = (mu[:, None, None] * a_tab - sum_mu2_a).reshape(3 * n, 3)
    c[p, dx] = pcom_dx.transpose(1, 0, 2).reshape(3, 3 * n)
    c[dp, x] = (mu[:, None, None] * pcom_dx).reshape(3 * n, 3)
    pairs[0, 0] = (delta - mu_a) * a_a - mu_b * a_b + sum_mu2_a
    pairs[0, 1] = eye * (delta - mu_b) + delta * b_a - mu_b * (b_a + b_b - sum_mu_b)

    c.take(entries, out=want, mode="clip")
    max_abs_diff = float(np.max(np.abs(got - want)))
    return ComBracketReport(computed=_BracketView(system, got),
                            closed_form=_BracketView(system, want), max_abs_diff=max_abs_diff)


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


def _check_tolerance(tol: float) -> None:
    # written so that NaN, which no comparison holds for, is refused too
    if not tol >= 0:
        raise ValueError(f"tol must be nonnegative, got {tol!r}")


def satisfies_mass_scaling(system: ParticleSystem, tol: float = 1e-9) -> ScalingCheck:
    """Test whether the deformation parameters scale inversely with mass.

    ``holds`` is true when every particle's scaled parameters agree with the
    mass-weighted consensus within ``tol`` (relative, absolute at zeros).
    ``worst_relative_deviation`` reports the largest pairwise disagreement
    between particles, which is the quantity that vanishes under exact
    scaling.  The rule's tensor constants are read-only.
    """
    _check_tolerance(tol)
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
        rule = MassScalingRule(**{
            name: float(mean) if np.ndim(mean) == 0 else _read_only(mean)
            for name, mean in consensus.items()
        })
    return ScalingCheck(holds=holds, rule=rule, worst_relative_deviation=worst_pairwise)


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


def effective_parameters(system: ParticleSystem) -> AlgebraSpec:
    """Deformation parameters governing the center-of-mass brackets.

    For SpaceTime (and Canonical, and Generalized specs whose deformation is
    purely t-valued) the effective spec exists for any composition:
    1/kappa_eff = sum_a mu_a^2 / kappa_a, which depends on the composition
    unless the scaling rule holds.  Variants whose COM brackets close only
    under mass scaling (SpaceSpace, the Miao types, Generalized with
    coordinate/momentum-valued terms) require the scaling rule to hold, as
    ``system.scaling`` checks it at the default tolerance;
    ScalingRequiredError is raised otherwise.
    """
    if _needs_scaling(system) and not system.scaling.holds:
        raise ScalingRequiredError(
            "center-of-mass brackets do not close into the single-particle "
            "algebra form: deformation parameters are not inversely "
            f"proportional to the masses (worst pairwise deviation "
            f"{system.scaling.worst_relative_deviation:.3e})"
        )
    return system.candidate_effective


@dataclass(frozen=True)
class ReproductionCheck:
    closes: bool
    max_abs_diff: float


def reproduction_check(
    system: ParticleSystem, state: PhaseState, tol: float = 1e-12
) -> ReproductionCheck:
    """Do the COM brackets reproduce the single-particle algebra?

    Compares every chain-rule COM bracket ({Xcom, Xcom}, {Xcom, Pcom},
    {Pcom, Pcom}), B[:6, :6], the one block of B = W J W^T it forms, against
    the single-particle table of the consensus effective spec at the COM point.
    """
    _check_tolerance(tol)
    com = com_transform(system, state)
    candidate = system.candidate_effective
    com_point = np.concatenate([com.x_com, com.p_com])[None, :]
    single = lower([candidate]).blocks(com_point, state.t)[0]
    com_brackets = _com_brackets(system, state, slice(6), slice(6))  # (X1..X3, P1..P3) order

    max_abs_diff = float(np.max(np.abs(com_brackets - single)))
    return ReproductionCheck(closes=max_abs_diff <= tol, max_abs_diff=max_abs_diff)


def com_relative_coupling(system: ParticleSystem, state: PhaseState) -> float:
    """Largest bracket magnitude coupling COM and relative motion.

    Scans {dX_i^(a), Xcom_j} with the momentum couplings {Pcom_i, dX_j^(a)} and
    {dP_i^(a), Xcom_j} in B[6:, :6], the one block of B = W J W^T it forms.
    Vanishes for SpaceTime systems under the mass-scaling rule; stays finite for
    SpaceSpace, where the scaled couplings reduce to dX_l^(a) / kappa_tilde_eff and friends.
    """
    n = system.n_particles
    coupling = _com_brackets(system, state, slice(6, None), slice(6))  # relative rows, COM columns
    dx_com = coupling[: 3 * n]  # {dX, Xcom} and {dX, Pcom} = -{Pcom, dX}
    dp_xcom = coupling[3 * n :, :3]  # {dP, Xcom}
    return float(max(np.max(np.abs(dx_com)), np.max(np.abs(dp_xcom))))
