"""Bracket algebras on Lie-algebraic noncommutative phase spaces.

Every algebra variant is encoded as a position/time-dependent antisymmetric
structure matrix J with entries J_ab = {z_a, z_b}, where z is the flattened
phase vector ordered (X1, X2, X3, P1, P2, P3) per particle, particles
concatenated.  General brackets follow from the chain rule,
{f, g} = grad(f) . J . grad(g).

Variants
--------
Canonical
    The undeformed symplectic structure: {X_i, P_j} = delta_ij and all
    coordinate-coordinate brackets zero.
SpaceTime
    Coordinates close on time: {X_rho, X_tau} = t / kappa for one fixed
    axis pair (rho, tau); momenta and the X-P block stay canonical.
SpaceSpace
    Coordinates close on a coordinate: {X_k, X_gamma} = X_l / kappa_tilde,
    {X_l, X_gamma} = -X_k / kappa_tilde, with the matching momentum
    entries {P_k, X_gamma} = P_l / kappa_tilde and
    {P_l, X_gamma} = -P_k / kappa_tilde; (k, l, gamma) is a fixed
    permutation of the axes.
MiaoTypeI / MiaoTypeII
    The two Jacobi-consistent combinations of the time-valued and
    coordinate-valued deformations; type II adds coordinate-valued terms
    to the X-P block through kappa_bar.
Generalized
    Free tensor parametrization {X_i, X_j} = theta0_ij t + theta^k_ij X_k,
    {X_i, P_j} = delta_ij + theta_bar^k_ij X_k + theta_tilde^k_ij P_k.
    The tensors are evaluated exactly as given.

Evaluation
----------
Every variant is a special case of the Generalized form.  ``_encoding``
writes a named variant's exact tensor encoding (``as_generalized`` wraps it
in a validated Generalized spec), ``lower`` stacks the raw encodings of one
spec per particle into a time coefficient (N, 6, 6) and a slope dJ/dz
(N, 6, 6, 6), and one block evaluator (``LoweredAlgebra``) serves ``structure_matrix``, ``bracket``, the equations of motion and
``jacobi_residual``.  Brackets between particles vanish, so J is a stack
of per-particle 6x6 blocks, each affine in its own particle's phase point.

A note on tensor encodings: the X-X deformation tensors (theta0, theta)
must be antisymmetric in the lower index pair, since {X_i, X_j} is an
antisymmetric bracket.  The X-P tensors (theta_bar, theta_tilde) carry no
such constraint here: the exact tensor encodings of the SpaceSpace and
Miao tables confine the X-P deformation to the gamma row ({X_gamma, P_k}
deformed, {X_k, P_gamma} canonical), which is what the Jacobi identity
requires of those tables.  The encodings therefore hold one-sided
theta_bar/theta_tilde slices.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field, fields, replace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .observables import Observable

__all__ = [
    "AlgebraSpec",
    "Canonical",
    "SpaceTime",
    "SpaceSpace",
    "Generalized",
    "MiaoTypeI",
    "MiaoTypeII",
    "PhaseState",
    "StructureMatrix",
    "LoweredAlgebra",
    "structure_matrix",
    "as_generalized",
    "lower",
    "PARAMETER_ROLES",
    "ParameterRole",
    "parameter_roles",
    "rescale",
    "bracket",
    "jacobi_residual",
]

_AXES = (1, 2, 3)


class AlgebraSpec:
    """Base class for bracket-algebra variants: a variant is its fields, each
    checked by its role in ``PARAMETER_ROLES``, tensors stored read-only."""

    def __post_init__(self):
        axes = {}
        for name, role in parameter_roles(self):
            value = _checked_parameter(name, getattr(self, name))
            object.__setattr__(self, name, value)
            if role.kind == AXIS:
                axes[name] = value
        if len(set(axes.values())) < len(axes):
            raise ValueError(
                f"({', '.join(axes)}) must be distinct axes, a permutation of "
                f"{len(axes)} of {_AXES}, got {tuple(axes.values())}"
            )

    @property
    def variant(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class Canonical(AlgebraSpec):
    """Undeformed symplectic structure."""


@dataclass(frozen=True)
class SpaceTime(AlgebraSpec):
    """Coordinates close on time: {X_rho, X_tau} = t / kappa."""

    kappa: float
    rho: int = 1
    tau: int = 2

    def __post_init__(self):
        super().__post_init__()
        if self.kappa <= 0.0:
            raise ValueError(f"kappa must be positive, got {self.kappa!r}")


@dataclass(frozen=True)
class SpaceSpace(AlgebraSpec):
    """Coordinates close on a coordinate: {X_k, X_gamma} = X_l / kappa_tilde."""

    kappa_tilde: float
    k: int = 1
    l: int = 2
    gamma: int = 3


@dataclass(frozen=True)
class MiaoTypeI(AlgebraSpec):
    """Combined time-valued and coordinate-valued deformation, first type.

    {X_k, X_gamma} = -t/kappa + X_l/kappa_tilde,
    {X_l, X_gamma} = +t/kappa - X_k/kappa_tilde,
    {X_k, X_l} = t/kappa, plus the SpaceSpace momentum entries.
    """

    kappa: float
    kappa_tilde: float
    k: int = 1
    l: int = 2
    gamma: int = 3


@dataclass(frozen=True)
class MiaoTypeII(AlgebraSpec):
    """Second combined type: {X_k, X_l} = 0 and coordinate-valued X-P terms.

    {P_k, X_gamma} = X_l/kappa_bar + P_l/kappa_tilde,
    {P_l, X_gamma} = X_k/kappa_bar - P_k/kappa_tilde.
    """

    kappa: float
    kappa_tilde: float
    kappa_bar: float
    k: int = 1
    l: int = 2
    gamma: int = 3


@dataclass(frozen=True)
class Generalized(AlgebraSpec):
    """Free tensor parametrization of the Lie-type deformation.

    theta0 has shape (3, 3); theta, theta_bar and theta_tilde have shape
    (3, 3, 3) indexed [upper k][i][j].  theta0 and each slice theta[k] must
    be antisymmetric in (i, j); theta_bar/theta_tilde are used exactly as
    given (see module docstring).
    """

    theta0: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))
    theta: np.ndarray = field(default_factory=lambda: np.zeros((3, 3, 3)))
    theta_bar: np.ndarray = field(default_factory=lambda: np.zeros((3, 3, 3)))
    theta_tilde: np.ndarray = field(default_factory=lambda: np.zeros((3, 3, 3)))

    def __eq__(self, other):
        if not isinstance(other, Generalized):
            return NotImplemented
        return (
            np.array_equal(self.theta0, other.theta0)
            and np.array_equal(self.theta, other.theta)
            and np.array_equal(self.theta_bar, other.theta_bar)
            and np.array_equal(self.theta_tilde, other.theta_tilde)
        )

    __hash__ = None


@dataclass(frozen=True)
class PhaseState:
    """Positions, momenta and time for N particles.

    x and p have shape (N, 3); t is the evolution parameter, treated as an
    external parameter by all brackets.
    """

    x: np.ndarray
    p: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        x = np.atleast_2d(np.array(self.x, dtype=float))
        p = np.atleast_2d(np.array(self.p, dtype=float))
        if x.shape != p.shape or x.ndim != 2 or x.shape[1] != 3:
            raise ValueError(
                f"x and p must both have shape (N, 3), got {x.shape} and {p.shape}"
            )
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(p)) and np.isfinite(self.t)):
            raise ValueError("phase-space entries must be finite")
        x.flags.writeable = False
        p.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "t", float(self.t))

    @property
    def n_particles(self) -> int:
        return self.x.shape[0]

    def flatten(self) -> np.ndarray:
        """Flat phase vector (X1, X2, X3, P1, P2, P3) per particle."""
        return np.concatenate([self.x, self.p], axis=1).ravel()

    @classmethod
    def from_flat(cls, z: np.ndarray, t: float) -> "PhaseState":
        z = np.asarray(z, dtype=float)
        if z.size % 6:
            raise ValueError(f"flat phase vector length must be a multiple of 6, got {z.size}")
        blocks = z.reshape(-1, 6)
        return cls(x=blocks[:, :3].copy(), p=blocks[:, 3:].copy(), t=t)


@dataclass(frozen=True)
class StructureMatrix:
    """Antisymmetric bracket matrix J_ab = {z_a, z_b} at one phase point."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __getitem__(self, idx):
        return self.matrix[idx]


# --- generalized-tensor encodings ----------------------------------------

def _encoding(spec: AlgebraSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The tensors (theta0, theta, theta_bar, theta_tilde) whose structure
    matrix equals the variant's exactly, unvalidated.

    For SpaceSpace and the Miao types the X-P deformation lives only in the
    gamma row of the bracket table, so the emitted theta_bar/theta_tilde
    slices are one-sided rather than antisymmetric; symmetrizing them would
    change the bracket of X_k with P_gamma and break the Jacobi identity.
    A Generalized spec gives its own (validated, read-only) tensors.
    """
    if isinstance(spec, Generalized):
        return spec.theta0, spec.theta, spec.theta_bar, spec.theta_tilde
    theta0 = np.zeros((3, 3))
    theta = np.zeros((3, 3, 3))
    theta_bar = np.zeros((3, 3, 3))
    theta_tilde = np.zeros((3, 3, 3))
    if isinstance(spec, Canonical):
        pass
    elif isinstance(spec, SpaceTime):
        r, s = spec.rho - 1, spec.tau - 1
        theta0[r, s] = 1.0 / spec.kappa
        theta0[s, r] = -1.0 / spec.kappa
    elif isinstance(spec, (SpaceSpace, MiaoTypeI, MiaoTypeII)):
        k, l, g = spec.k - 1, spec.l - 1, spec.gamma - 1
        inv_kt = 1.0 / spec.kappa_tilde
        theta[l, k, g] = inv_kt
        theta[l, g, k] = -inv_kt
        theta[k, l, g] = -inv_kt
        theta[k, g, l] = inv_kt
        theta_tilde[l, g, k] = -inv_kt
        theta_tilde[k, g, l] = inv_kt
        if isinstance(spec, (MiaoTypeI, MiaoTypeII)):
            inv_k = 1.0 / spec.kappa
            theta0[k, g] = -inv_k
            theta0[g, k] = inv_k
            theta0[l, g] = inv_k
            theta0[g, l] = -inv_k
        if isinstance(spec, MiaoTypeI):
            theta0[k, l] = 1.0 / spec.kappa
            theta0[l, k] = -1.0 / spec.kappa
        if isinstance(spec, MiaoTypeII):
            inv_kb = 1.0 / spec.kappa_bar
            theta_bar[l, g, k] = -inv_kb
            theta_bar[k, g, l] = -inv_kb
    else:
        raise TypeError(f"unknown algebra variant: {type(spec).__name__}")
    return theta0, theta, theta_bar, theta_tilde


def as_generalized(spec: AlgebraSpec) -> Generalized:
    """The variant's exact tensor encoding (see ``_encoding``) as a validated,
    read-only Generalized spec; a Generalized spec is returned as is."""
    if isinstance(spec, Generalized):
        return spec
    return Generalized(*_encoding(spec))


# --- parameter roles ----------------------------------------------------------

SCALED, SHARED, AXIS = "scaled", "shared", "axis"


class ParameterRole(NamedTuple):
    """What one variant parameter is, and does under the mass-scaling condition.

    ``kind`` is SCALED (the parameter follows the particle's mass), SHARED
    (one value for all particles) or AXIS (a fixed coordinate index).
    ``shape`` is a theta-like tensor's shape, and () for the kappa-like
    scalars, inverse deformation strengths; ``antisymmetric`` marks the
    tensors of {X_i, X_j}, antisymmetric in their lower index pair.
    ``constant`` names the MassScalingRule field holding the parameter's
    value at unit mass (or its shared value).  ``scale(value, ratio)`` gives
    the value for a particle ``ratio`` times as heavy and
    ``unscale(value, mass)`` the value at unit mass.
    """

    kind: str
    shape: tuple[int, ...] = ()
    antisymmetric: bool = False
    constant: Optional[str] = None
    scale: Optional[Callable] = None
    unscale: Optional[Callable] = None


# The one place that says what each parameter of every variant is and how it
# relates to the particle's mass: kappa and kappa_tilde grow with m, theta0,
# theta and theta_tilde shrink as 1/m, kappa_bar and theta_bar are shared,
# the rest are axes.  Validation, scaling, effective parameters, axis checks
# and serialization all read their fields' roles from here.
_GROWS, _SHRINKS = (operator.mul, operator.truediv), (operator.truediv, operator.mul)
PARAMETER_ROLES = {
    "kappa": ParameterRole(SCALED, (), False, "gamma_kappa", *_GROWS),
    "kappa_tilde": ParameterRole(SCALED, (), False, "gamma_kappa_tilde", *_GROWS),
    "kappa_bar": ParameterRole(SHARED, (), False, "kappa_bar"),
    "theta0": ParameterRole(SCALED, (3, 3), True, "gamma0", *_SHRINKS),
    "theta": ParameterRole(SCALED, (3, 3, 3), True, "gamma", *_SHRINKS),
    "theta_tilde": ParameterRole(SCALED, (3, 3, 3), False, "gamma_tilde", *_SHRINKS),
    "theta_bar": ParameterRole(SHARED, (3, 3, 3), False, "theta_bar"),
    **{name: ParameterRole(AXIS) for name in ("rho", "tau", "k", "l", "gamma")},
}


def _refuse_entries(bad: np.ndarray, name: str, reason: str) -> None:
    """Raise ValueError naming the first True entry of ``bad``, ``name[i][j]: reason``."""
    if bad.any():
        raise ValueError(name + "".join(f"[{i}]" for i in np.argwhere(bad)[0]) + f": {reason}")


def _finite_array(value, shape: tuple[int, ...], name: str) -> np.ndarray:
    """``value`` as a read-only float array of ``shape`` with finite entries.

    A ValueError names the first non-finite entry, ``name[i][j]``, which is
    searched for only after the check has failed.
    """
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name}: {exc}") from exc
    if arr.shape != shape:
        raise ValueError(f"{name}: must have shape {shape}, got {arr.shape}")
    _refuse_entries(~np.isfinite(arr), name, "must be finite")
    arr.flags.writeable = False
    return arr


def _checked_parameter(name: str, value):
    """``value`` checked against the role of parameter ``name``, a tensor as a
    read-only array.  A ValueError names the parameter, or a tensor's first
    bad entry."""
    role = PARAMETER_ROLES[name]
    if role.kind == AXIS:
        if value not in _AXES:
            raise ValueError(f"{name} must be one of {_AXES}, got {value!r}")
    elif not role.shape:
        if not math.isfinite(value) or value == 0.0:
            raise ValueError(f"{name} must be nonzero and finite, got {value!r}")
        # the tensor encoding holds 1 / value, which overflows for a subnormal value
        if not math.isfinite(1.0 / float(value)):
            raise ValueError(f"{name} must have a finite inverse, got {value!r}")
    else:
        value = _finite_array(value, role.shape, name)
        if role.antisymmetric:
            _refuse_entries(value != -np.swapaxes(value, -1, -2), name,
                            "must be antisymmetric in its lower index pair")
    return value


def parameter_roles(spec: AlgebraSpec | type) -> tuple[tuple[str, ParameterRole], ...]:
    """(name, role) of each parameter of a spec or variant class, in field order."""
    return _variant_roles(spec if isinstance(spec, type) else type(spec))


# every spec made checks its fields through its roles, so they are read once per class
@functools.cache
def _variant_roles(variant: type) -> tuple[tuple[str, ParameterRole], ...]:
    return tuple((f.name, PARAMETER_ROLES[f.name]) for f in fields(variant))


def rescale(spec: AlgebraSpec, mass_ratio: float) -> AlgebraSpec:
    """Parameters of a particle ``mass_ratio`` times as heavy, under the scaling rule:
    kappa -> kappa * ratio, theta -> theta / ratio, shared parameters kept."""
    changes = {
        name: role.scale(getattr(spec, name), mass_ratio)
        for name, role in parameter_roles(spec)
        if role.kind == SCALED
    }
    return replace(spec, **changes)


# --- the tensor core -------------------------------------------------------------

# built by subtraction so its zeros are +0.0; a -0.0 would survive C + t*T for t < 0
_CANONICAL = np.eye(6, k=3) - np.eye(6, k=-3)
_CANONICAL.flags.writeable = False


@dataclass(frozen=True)
class LoweredAlgebra:
    """The brackets of N particles in tensor form, lowered once from their specs.

    Particle a's 6x6 block at its phase point z_a = (X, P) and time t is
    C + t time[a] + sum_d z_a[d] slope[a, d], with C the canonical block.
    ``time`` (N, 6, 6) carries theta0; ``slope`` (N, 6, 6, 6) is dJ_a/dz_d
    and carries theta, theta_bar and theta_tilde.  ``slope`` is None when no
    bracket depends on the phase point, which spares evaluation the
    contraction.
    """

    time: np.ndarray
    slope: np.ndarray | None

    def __len__(self) -> int:
        """Number of particles."""
        return self.time.shape[0]

    def blocks(self, z: np.ndarray, t: float) -> np.ndarray:
        """(N, 6, 6) bracket blocks at per-particle phase points z of shape (N, 6)."""
        j = _CANONICAL + t * self.time
        if self.slope is not None:
            j += np.einsum("ad,adij->aij", z, self.slope)
        return j

    def apply(self, z: np.ndarray, t: float, v: np.ndarray) -> np.ndarray:
        """J(z, t) v for flat phase vectors z and v of length 6N."""
        return (self.blocks(z.reshape(-1, 6), t) @ v.reshape(-1, 6, 1)).ravel()


def lower(specs: Sequence[AlgebraSpec] | LoweredAlgebra) -> LoweredAlgebra:
    """Stack the exact tensor encodings of one spec per particle.

    Already lowered input is returned as is, so callers that evaluate many
    states lower once and pass the result on.
    """
    if isinstance(specs, LoweredAlgebra):
        return specs
    encodings = [_encoding(s) for s in specs]
    time = np.zeros((len(encodings), 6, 6))
    slope = np.zeros((len(encodings), 6, 6, 6))
    for a, (theta0, theta, theta_bar, theta_tilde) in enumerate(encodings):
        time[a, :3, :3] = theta0
        slope[a, :3, :3, :3] = theta
        slope[a, :3, :3, 3:] = theta_bar
        slope[a, 3:, :3, 3:] = theta_tilde
    slope[..., 3:, :3] = -np.swapaxes(slope[..., :3, 3:], -1, -2)
    time.flags.writeable = slope.flags.writeable = False
    return LoweredAlgebra(time=time, slope=slope if slope.any() else None)


def _phase_points(state: PhaseState) -> np.ndarray:
    return state.flatten().reshape(-1, 6)


def structure_matrix(
    specs: Sequence[AlgebraSpec] | LoweredAlgebra, state: PhaseState
) -> StructureMatrix:
    """Assemble the full 6N x 6N structure matrix for N particles.

    One spec per particle, or their lowered form.  Brackets between
    different particles vanish, so the matrix is block-diagonal with one
    6x6 block per particle.
    """
    lowered = lower(specs)
    n = len(lowered)
    if n != state.n_particles:
        raise ValueError(f"got {n} algebra specs for {state.n_particles} particles")
    j = np.zeros((n, 6, n, 6))
    diag = np.arange(n)
    j[diag, :, diag, :] = lowered.blocks(_phase_points(state), state.t)
    return StructureMatrix(j.reshape(6 * n, 6 * n))


# --- bracket evaluation ----------------------------------------------------

def bracket(
    f: Observable,
    g: Observable,
    specs: Sequence[AlgebraSpec] | LoweredAlgebra,
    state: PhaseState,
) -> float:
    """{f, g} = grad(f) . J . grad(g) at the given state."""
    z = state.flatten()
    jg = lower(specs).apply(z, state.t, g.gradient(z, state.t))
    return float(f.gradient(z, state.t) @ jg)


# --- Jacobi identity --------------------------------------------------------

def jacobi_residual(
    specs: Sequence[AlgebraSpec] | AlgebraSpec | LoweredAlgebra,
    state: PhaseState,
    fd_step: float = 1e-5,
    use_fd: bool = False,
) -> float:
    """Worst Jacobi-identity violation over all index triples.

    Returns max over (a, b, c) of
    | sum_d ( J_ad dJ_bc/dz_d + J_bd dJ_ca/dz_d + J_cd dJ_ab/dz_d ) |.

    Each block depends only on its own particle's phase point, so triples
    that mix particles vanish and the maximum runs over per-particle 6x6x6
    residuals.  The derivatives dJ/dz are the lowered slope tensors, exact
    because every bracket is affine in z.  ``use_fd=True`` instead takes
    central differences of the blocks with step ``fd_step``, an independent
    oracle for the slopes.
    """
    if isinstance(specs, AlgebraSpec):
        specs = [specs]
    if fd_step <= 0:
        raise ValueError(f"fd_step must be positive, got {fd_step!r}")
    lowered = lower(specs)
    z = _phase_points(state)
    j = lowered.blocks(z, state.t)
    if use_fd:
        steps = fd_step * np.eye(6)
        dj = np.stack(
            [
                (lowered.blocks(z + h, state.t) - lowered.blocks(z - h, state.t)) / (2.0 * fd_step)
                for h in steps
            ],
            axis=1,
        )
    elif lowered.slope is None:
        return 0.0
    else:
        dj = lowered.slope
    r = np.einsum("nad,ndbc->nabc", j, dj)
    total = r + np.transpose(r, (0, 2, 3, 1)) + np.transpose(r, (0, 3, 1, 2))
    return float(np.max(np.abs(total)))
