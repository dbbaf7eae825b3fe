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


def _check_axis(name: str, value: int) -> None:
    if value not in _AXES:
        raise ValueError(f"{name} must be one of {_AXES}, got {value!r}")


def _check_nonzero(name: str, value: float, positive: bool = False) -> None:
    if not np.isfinite(value) or value == 0.0:
        raise ValueError(f"{name} must be nonzero and finite, got {value!r}")
    # the tensor encoding holds 1 / value, which overflows for a subnormal value
    if not math.isfinite(1.0 / float(value)):
        raise ValueError(f"{name} must have a finite inverse, got {value!r}")
    if positive and value <= 0.0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def _frozen_tensor(value, shape: tuple[int, ...], name: str) -> np.ndarray:
    arr = np.array(value, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.flags.writeable = False
    return arr


def _check_lower_antisymmetric(arr: np.ndarray, name: str) -> None:
    """Antisymmetry in the last two (lower) indices."""
    if not np.array_equal(arr, -np.swapaxes(arr, -1, -2)):
        raise ValueError(f"{name} must be antisymmetric in its lower index pair")


class AlgebraSpec:
    """Base class for bracket-algebra variants."""

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
        _check_nonzero("kappa", self.kappa, positive=True)
        _check_axis("rho", self.rho)
        _check_axis("tau", self.tau)
        if self.rho == self.tau:
            raise ValueError("rho must differ from tau")


@dataclass(frozen=True)
class SpaceSpace(AlgebraSpec):
    """Coordinates close on a coordinate: {X_k, X_gamma} = X_l / kappa_tilde."""

    kappa_tilde: float
    k: int = 1
    l: int = 2
    gamma: int = 3

    def __post_init__(self):
        _check_nonzero("kappa_tilde", self.kappa_tilde)
        for name in ("k", "l", "gamma"):
            _check_axis(name, getattr(self, name))
        if {self.k, self.l, self.gamma} != {1, 2, 3}:
            raise ValueError("(k, l, gamma) must be a permutation of (1, 2, 3)")


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

    def __post_init__(self):
        _check_nonzero("kappa", self.kappa)
        _check_nonzero("kappa_tilde", self.kappa_tilde)
        for name in ("k", "l", "gamma"):
            _check_axis(name, getattr(self, name))
        if {self.k, self.l, self.gamma} != {1, 2, 3}:
            raise ValueError("(k, l, gamma) must be a permutation of (1, 2, 3)")


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

    def __post_init__(self):
        _check_nonzero("kappa", self.kappa)
        _check_nonzero("kappa_tilde", self.kappa_tilde)
        _check_nonzero("kappa_bar", self.kappa_bar)
        for name in ("k", "l", "gamma"):
            _check_axis(name, getattr(self, name))
        if {self.k, self.l, self.gamma} != {1, 2, 3}:
            raise ValueError("(k, l, gamma) must be a permutation of (1, 2, 3)")


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

    def __post_init__(self):
        object.__setattr__(self, "theta0", _frozen_tensor(self.theta0, (3, 3), "theta0"))
        object.__setattr__(self, "theta", _frozen_tensor(self.theta, (3, 3, 3), "theta"))
        object.__setattr__(
            self, "theta_bar", _frozen_tensor(self.theta_bar, (3, 3, 3), "theta_bar")
        )
        object.__setattr__(
            self, "theta_tilde", _frozen_tensor(self.theta_tilde, (3, 3, 3), "theta_tilde")
        )
        _check_lower_antisymmetric(self.theta0, "theta0")
        _check_lower_antisymmetric(self.theta, "theta")

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
    """What one variant parameter does under the mass-scaling condition.

    ``kind`` is SCALED (the parameter follows the particle's mass), SHARED
    (one value for all particles) or AXIS (a fixed coordinate index).
    ``tensor`` marks the theta-like parameters; the scalars are kappa-like,
    inverse deformation strengths.  ``constant`` names the MassScalingRule
    field holding the parameter's value at unit mass (or its shared value).
    ``scale(value, ratio)`` gives the value for a particle ``ratio`` times
    as heavy and ``unscale(value, mass)`` the value at unit mass.
    """

    kind: str
    tensor: bool = False
    constant: Optional[str] = None
    scale: Optional[Callable] = None
    unscale: Optional[Callable] = None


# The one place that says how each parameter of every variant relates to the
# particle's mass: kappa and kappa_tilde grow with m, theta0, theta and
# theta_tilde shrink as 1/m, kappa_bar and theta_bar are shared, the rest are
# axes.  Scaling, effective parameters, axis checks and serialization all
# read their fields' roles from here.
PARAMETER_ROLES = {
    "kappa": ParameterRole(SCALED, False, "gamma_kappa", operator.mul, operator.truediv),
    "kappa_tilde": ParameterRole(
        SCALED, False, "gamma_kappa_tilde", operator.mul, operator.truediv
    ),
    "kappa_bar": ParameterRole(SHARED, False, "kappa_bar"),
    "theta0": ParameterRole(SCALED, True, "gamma0", operator.truediv, operator.mul),
    "theta": ParameterRole(SCALED, True, "gamma", operator.truediv, operator.mul),
    "theta_tilde": ParameterRole(SCALED, True, "gamma_tilde", operator.truediv, operator.mul),
    "theta_bar": ParameterRole(SHARED, True, "theta_bar"),
    **{name: ParameterRole(AXIS) for name in ("rho", "tau", "k", "l", "gamma")},
}


def parameter_roles(spec: AlgebraSpec | type) -> list[tuple[str, ParameterRole]]:
    """(name, role) of each parameter of a spec or variant class, in field order."""
    return [(f.name, PARAMETER_ROLES[f.name]) for f in fields(spec)]


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
