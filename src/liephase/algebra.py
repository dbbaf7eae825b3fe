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
Every variant is a special case of the Generalized form.  One table,
``_ENCODINGS``, lists each variant's exact tensor encoding entry by entry,
and one fill, ``_spec_blocks``, gathers the entries of a stack of runs into
6x6 time blocks and 6x6x6 slope blocks dJ/dz from parameter arrays with a
leading run axis.  A spec is one run, filled once and kept read-only
(``AlgebraSpec._blocks``), alone or as its row of one fill of the specs a
``lower`` call has not built yet; ``lower(template, mass_ratios)`` fills B runs of
a rescaled template with no spec per run.  ``lower`` stacks the blocks into
(N, 6, 6) and (N, 6, 6, 6), ``_encoding`` and ``as_generalized`` read the
four tensors back, and one block evaluator (``LoweredAlgebra``) serves
``structure_matrix``, ``bracket``, the equations of motion and
``jacobi_residual``.  Brackets between particles vanish, so J is a stack of
per-particle 6x6 blocks, each affine in its own particle's phase point.

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

from .errors import WepRunError
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


def _fields_equal(self, other) -> bool:
    """``==`` of a dataclass with array fields, declared eq=False so that it
    stays unhashable: the same class, and arrays equal entry by entry."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
               for f in fields(self) if f.compare)


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

    @functools.cached_property
    def _blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """The spec's lowered time and slope blocks (``_spec_blocks``), built
        once on first use from the frozen fields, read-only."""
        return _spec_blocks(self)

    def __getstate__(self):
        # the blocks are derived from the fields, so a pickle or copy holds the fields alone
        return {name: value for name, value in vars(self).items() if name != "_blocks"}


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


@dataclass(frozen=True, eq=False)
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

    __eq__ = _fields_equal


@dataclass(frozen=True, eq=False)
class PhaseState:
    """Positions, momenta and time for N particles.

    x and p have shape (N, 3); t is the evolution parameter, treated as an
    external parameter by all brackets.
    """

    x: np.ndarray
    p: np.ndarray
    t: float = 0.0

    __eq__ = _fields_equal

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


# --- generalized-tensor encodings ----------------------------------------

# Each variant's exact tensor encoding, entry by entry, as (slot, term).  A
# time slot "zi zj" holds d{z_i, z_j}/dt and a slope slot "zd zi zj" holds
# d{z_i, z_j}/dz_d.  "Xa" and "Pa" are the coordinate and the momentum along
# the spec's axis field ``a``; a bare "X" or "P" spans all three, which a
# tensor fills in its own index order.  A term is a sign and a parameter:
# its value, or with "1/" its inverse.  An entry whose bracket indices zi and
# zj differ also writes its mirror, the negated entry at (zj, zi).
_SPACE_SPACE = (
    ("Xl Xk Xgamma", "+1/kappa_tilde"), ("Xk Xl Xgamma", "-1/kappa_tilde"),
    ("Pl Xgamma Pk", "-1/kappa_tilde"), ("Pk Xgamma Pl", "+1/kappa_tilde"),
)
_MIAO_TIME = (("Xk Xgamma", "-1/kappa"), ("Xl Xgamma", "+1/kappa"))
_ENCODINGS = {
    Canonical: (),
    SpaceTime: (("Xrho Xtau", "+1/kappa"),),
    SpaceSpace: _SPACE_SPACE,
    MiaoTypeI: _SPACE_SPACE + _MIAO_TIME + (("Xk Xl", "+1/kappa"),),
    MiaoTypeII: _SPACE_SPACE + _MIAO_TIME + (
        ("Xl Xgamma Pk", "-1/kappa_bar"), ("Xk Xgamma Pl", "-1/kappa_bar")),
    Generalized: (("X X", "+theta0"), ("X X X", "+theta"), ("X X P", "+theta_bar"),
                  ("P X P", "+theta_tilde")),
}


@functools.cache
def _compiled(variant: type, axes: tuple) -> tuple:
    """``_ENCODINGS[variant]`` for the values ``axes`` of ``_AXIS_FIELDS``:
    its terms, each (parameter, inverse, column or columns) of a run's
    parameter vector, 0.0 then the terms' values, the vector's width, and
    the source column and sign of each slot of the slope blocks dJ/dz_d,
    d < 6, and the time block, 6, so one gather and one product fill all
    runs."""
    if variant not in _ENCODINGS:
        raise TypeError(f"unknown algebra variant: {variant.__name__}")
    axis, terms, width = dict(zip(_AXIS_FIELDS, axes)), {}, 1
    source, sign = np.zeros((7, 6, 6), np.intp), np.ones((7, 6, 6))
    sign[:6, 3:, :3] = -1.0  # a P-X zero of the slope is a negated X-P zero
    for slot, signed in _ENCODINGS[variant]:
        term = signed[1:]
        name = term.removeprefix("1/")
        shape = PARAMETER_ROLES[name].shape
        if term not in terms:
            size = math.prod(shape)
            terms[term] = (name, name != term, slice(width, width + size) if shape else width)
            width += size
        cols = np.arange(width)[terms[term][2]].reshape(shape)
        zs = slot.split()
        index = ((6,) if len(zs) == 2 else ()) + tuple(
            slice(o, o + 3) if not a else o + axis[a] - 1
            for o, a in ((3 * (z[0] == "P"), z[1:]) for z in zs))
        source[index], sign[index] = cols, float(signed[0] + "1")
        if zs[-2] != zs[-1]:  # the mirror
            source.swapaxes(-1, -2)[index], sign.swapaxes(-1, -2)[index] = cols, -sign[index]
    source.flags.writeable = sign.flags.writeable = False  # shared by every call
    return tuple(terms.values()), width, source, sign


def _spec_blocks(spec: AlgebraSpec, values=None, runs: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The read-only time (runs, 6, 6) and slope (runs, 6, 6, 6) stacks of
    ``runs`` runs of the spec's variant and axes: ``values`` maps each
    parameter to one value for all runs, or to the runs' values on a leading
    axis; by default it is the spec's own fields, one run."""
    values = vars(spec) if values is None else values
    terms, width, source, sign = _compiled(type(spec), tuple(map(values.get, _AXIS_FIELDS)))
    vec = np.zeros((runs, width))
    for name, inverse, cols in terms:
        value = 1.0 / values[name] if inverse else values[name]
        vec[:, cols] = value if type(cols) is int else value.reshape(-1, cols.stop - cols.start)
    blocks = vec.take(source, axis=1)
    blocks *= sign
    blocks.flags.writeable = False
    return blocks[:, 6], blocks[:, :6]


def _fill_blocks(specs: Sequence[AlgebraSpec]) -> None:
    """Build the blocks of the specs not yet built with one ``_spec_blocks``
    call per (variant, axes) group, each spec caching its run's rows as
    read-only views: the bytes ``AlgebraSpec._blocks`` builds alone."""
    groups: dict[tuple, dict[int, AlgebraSpec]] = {}
    for spec in specs:
        if "_blocks" not in spec.__dict__:
            key = (type(spec), *map(spec.__dict__.get, _AXIS_FIELDS))
            groups.setdefault(key, {})[id(spec)] = spec
    for group in groups.values():
        if len(group) > 1:
            group = list(group.values())
            values = {name: np.array([getattr(spec, name) for spec in group])
                      for name, role in parameter_roles(group[0]) if role.kind != AXIS}
            time, slope = _spec_blocks(group[0], vars(group[0]) | values, len(group))
            for i, spec in enumerate(group):
                spec.__dict__["_blocks"] = time[i:i + 1], slope[i:i + 1]


def _encoding(spec: AlgebraSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The tensors (theta0, theta, theta_bar, theta_tilde) whose structure
    matrix equals the variant's exactly: read-only views of the spec's blocks."""
    time, slope = spec._blocks
    return time[0, :3, :3], slope[0, :3, :3, :3], slope[0, :3, :3, 3:], slope[0, 3:, :3, 3:]


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
_AXIS_FIELDS = tuple(name for name, role in PARAMETER_ROLES.items() if role.kind == AXIS)


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
    """``value`` checked against the role of parameter ``name``, a scalar as a
    float and a tensor as a read-only array.  A ValueError names the
    parameter, or a tensor's first bad entry."""
    role = PARAMETER_ROLES[name]
    if role.kind == AXIS:
        # True == 1 and 1.0 == 1, but an axis indexes arrays: an integer alone
        if value is True or not isinstance(value, (int, np.integer)) or value not in _AXES:
            raise ValueError(f"{name} must be one of {_AXES}, got {value!r}")
        value = int(value)
    elif not role.shape:
        if not math.isfinite(value) or value == 0.0:
            raise ValueError(f"{name} must be nonzero and finite, got {value!r}")
        value = float(value)
        # the tensor encoding holds 1 / value, which overflows for a subnormal value
        if not math.isfinite(1.0 / value):
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


def _scaled_blocks(spec: AlgebraSpec, mass_ratios) -> tuple[np.ndarray, np.ndarray]:
    """``_spec_blocks`` of ``spec`` rescaled by each ratio, each SCALED
    parameter its role's ``scale`` on the array of ratios, as ``rescale``
    forms it for one, or the spec's cached blocks repeated when every ratio
    is 1.  The first run that ``rescale`` would refuse raises WepRunError
    with its message."""
    ratios = np.array(mass_ratios, dtype=float).reshape(-1)
    if (ratios == 1.0).all():  # v * 1 and v / 1 are v: the spec's own blocks, once per run
        time, slope = (np.repeat(block, len(ratios), axis=0) for block in spec._blocks)
        time.flags.writeable = slope.flags.writeable = False
        return time, slope
    values, bad = dict(vars(spec)), np.zeros(len(ratios), dtype=bool)
    with np.errstate(all="ignore"):  # refused below, as a spec refuses it
        for name, role in parameter_roles(spec):
            if role.kind == SCALED:
                by = ratios.reshape(-1, *[1] * len(role.shape))  # one ratio per run
                value = values[name] = role.scale(values[name], by)
                # a scalar enters the blocks as its inverse: both must be finite
                held = value if role.shape else value * (1.0 / value)
                bad |= ~np.isfinite(held).reshape(len(ratios), -1).all(axis=1)
        if bad.any():
            run = int(bad.argmax())
            try:
                rescale(spec, float(ratios[run]))
            except ValueError as exc:
                raise WepRunError(run, str(exc)) from exc
    return _spec_blocks(spec, values, len(ratios))


# --- the tensor core -------------------------------------------------------------

# built by subtraction so its zeros are +0.0; a -0.0 would survive C + t*T for t < 0
_CANONICAL = np.eye(6, k=3) - np.eye(6, k=-3)
_CANONICAL.flags.writeable = False
_NO_PARTICLES = np.zeros((0, 6, 6))
_NO_PARTICLES.flags.writeable = False

# bytes of the blocks C + t time at one stage time for a block of steps, of
# the (6, 7) step maps (M c) of a block of steps (whose homogeneous states
# (z, 1) take a seventh of that again), of the values of a block of CSV
# rows, or of the Jacobi residuals of a chunk of states: the RK4 kernel, the
# step maps, ``Trajectory.write_csv`` and ``LoweredAlgebra.jacobi_residual``
# build them for as many steps, rows or states as fit, one at large N
_BLOCK_BYTES = 64 * 1024


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

    def blocks(self, z: np.ndarray, t) -> np.ndarray:
        """(..., N, 6, 6) bracket blocks at per-particle phase points z (..., N, 6)
        and times t (...), a state's blocks the bytes of that state alone; a
        ValueError refuses points of another particle count."""
        if z.shape[-2] != len(self):
            raise ValueError(f"state has {z.shape[-2]} particles, system has {len(self)}")
        # an outer product for a stack of times; a lone time scales directly, faster
        j = _CANONICAL + (np.multiply.outer(t, self.time) if isinstance(t, np.ndarray)
                          else t * self.time)
        if self.slope is not None:
            j += np.einsum("...ad,adij->...aij", z, self.slope)
        return j

    def apply(self, z: np.ndarray, t, v: np.ndarray) -> np.ndarray:
        """J(z, t) v for phase vectors z and v of length 6N, or stacks of them
        of shape (..., 6N) at times t of shape (...)."""
        points = z.shape[:-1] + (-1, 6)
        return (self.blocks(z.reshape(points), t) @ v.reshape(points + (1,))).reshape(z.shape)

    def jacobi_residual(self, z: np.ndarray, t) -> float:
        """``jacobi_residual``, the worst over the states at points z (..., N, 6)
        and times t (...), its residuals formed for as many states at a time
        as ``_BLOCK_BYTES`` holds, one at large N."""
        j = self.blocks(z, t).reshape(-1, len(self), 6, 6)
        if self.slope is None:
            return 0.0
        per_chunk = max(1, _BLOCK_BYTES // self.slope.nbytes)
        worst = 0.0
        for start in range(0, len(j), per_chunk):
            r = np.einsum("snad,ndbc->snabc", j[start:start + per_chunk], self.slope)
            total = r + r.transpose(0, 1, 3, 4, 2) + r.transpose(0, 1, 4, 2, 3)
            # np.maximum keeps a NaN that Python's max would drop
            worst = np.maximum(worst, np.max(np.abs(total)))
        return float(worst)


def lower(specs: Sequence[AlgebraSpec] | LoweredAlgebra | AlgebraSpec,
          mass_ratios: Sequence[float] | None = None) -> LoweredAlgebra:
    """Stack the exact tensor encodings of one spec per particle, each
    spec's blocks built once (``AlgebraSpec._blocks``), those not yet built
    by one fill per (variant, axes) group (``_fill_blocks``).

    With ``mass_ratios``, ``specs`` is one template and particle b is the
    template rescaled by ``mass_ratios[b]``, byte for byte as ``rescale``
    makes it, with no spec made per particle (see ``_scaled_blocks``).

    Already lowered input is returned as is, so callers that evaluate many
    states lower once and pass the result on.  Any other input, such as
    ratios with lowered input or a bare spec without them, is a TypeError.
    """
    if isinstance(specs, AlgebraSpec) != (mass_ratios is not None):
        raise TypeError("lower takes a sequence of specs, a LoweredAlgebra, or one spec "
                        f"with mass_ratios; got {type(specs).__name__} and "
                        f"{'no ' if mass_ratios is None else ''}mass_ratios")
    if isinstance(specs, LoweredAlgebra):
        return specs
    if mass_ratios is not None:
        time, slope = _scaled_blocks(specs, mass_ratios)
    elif not specs:
        return LoweredAlgebra(time=_NO_PARTICLES, slope=None)
    elif len(specs) == 1:
        time, slope = specs[0]._blocks
    else:
        _fill_blocks(specs)
        times, slopes = zip(*[spec._blocks for spec in specs])
        time, slope = np.concatenate(times), np.concatenate(slopes)
        time.flags.writeable = slope.flags.writeable = False
    return LoweredAlgebra(time=time, slope=slope if slope.any() else None)


def structure_matrix(
    specs: Sequence[AlgebraSpec] | LoweredAlgebra, state: PhaseState
) -> np.ndarray:
    """The structure matrix J of N particles as its read-only (N, 6, 6) block
    stack: block a is {z_i, z_j} of particle a.

    One spec per particle, or their lowered form.  Brackets between
    different particles vanish, so these blocks are all of J.
    """
    j = lower(specs).blocks(state.flatten().reshape(-1, 6), state.t)
    j.flags.writeable = False
    return j


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
    specs: Sequence[AlgebraSpec] | LoweredAlgebra,
    state: PhaseState,
) -> float:
    """Worst Jacobi-identity violation over all index triples.

    Returns max over (a, b, c) of
    | sum_d ( J_ad dJ_bc/dz_d + J_bd dJ_ca/dz_d + J_cd dJ_ab/dz_d ) |.

    Each block depends only on its own particle's phase point, so triples
    that mix particles vanish and the maximum runs over per-particle 6x6x6
    residuals.  The derivatives dJ/dz are the lowered slope tensors, exact
    because every bracket is affine in z.  ``LoweredAlgebra.jacobi_residual``
    forms it, here at one state.
    """
    return lower(specs).jacobi_residual(state.flatten().reshape(-1, 6), state.t)
