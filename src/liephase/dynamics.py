"""Dynamics in gravitational fields: z' = J(z, t) grad(H).

Integrates the non-canonical Hamilton equations for point particles and for
composite bodies reduced to their center of mass, cross-checks the right
hand side against hand-transcribed closed-form equations of motion, and
measures weak-equivalence-principle deviations across masses.

The gravitational Hamiltonian is H = |P|^2 / 2m + m V(X1, X2, X3), with the
inertial mass in the kinetic term equal to the gravitational mass in the
potential term; a composite body uses H = |Pcom|^2 / 2M + M V(Xcom).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence, TextIO

import numpy as np

from .algebra import (
    AlgebraSpec,
    Canonical,
    Generalized,
    MiaoTypeI,
    MiaoTypeII,
    PhaseState,
    SpaceSpace,
    SpaceTime,
    LoweredAlgebra,
    _CANONICAL,
    _encoding,
    _finite_array,
    lower,
    rescale,
)
from .composition import (
    ParticleSystem,
    _com_brackets,
    _decouples_exactly,
    com_transform,
    effective_parameters,
)
from .errors import GridError, NonFiniteStateError, PotentialSingularityError

__all__ = [
    "Potential",
    "Uniform",
    "Newtonian",
    "Polynomial",
    "GravityScenario",
    "Trajectory",
    "eom_rhs",
    "closed_form_rhs",
    "integrate",
    "wep_deviation",
    "body_com_rhs",
    "decoupling_check",
    "hamiltonian",
    "PairDeviation",
    "WepReport",
]


# --- potentials --------------------------------------------------------------


class Potential:
    """Gravitational field V(X1, X2, X3) with an analytic gradient.

    Both methods take points ``x`` of shape (..., 3): ``value`` returns
    shape (...), a float for a single point, and ``gradient`` returns
    shape (..., 3).  Every point is evaluated on its own, so a row's result
    does not depend on the other rows.
    """

    def value(self, x: np.ndarray) -> float | np.ndarray:
        raise NotImplementedError

    def gradient(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of (..., 3) arrays, one BLAS dot per row.

    The same sum as ``a_row @ b_row``, so a row's result is independent of
    how many rows are evaluated together.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _scalar_or_array(v: np.ndarray) -> float | np.ndarray:
    return float(v) if v.ndim == 0 else v


@dataclass(frozen=True)
class Uniform(Potential):
    """Linear potential V = g . X (constant field gradient g)."""

    g: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "g", _finite_array(self.g, (3,), "g"))

    def value(self, x):
        return _scalar_or_array(_dot_rows(np.asarray(x, dtype=float), self.g))

    def gradient(self, x):
        # filling an empty array is cheaper than copying a broadcast view
        grad = np.empty(np.shape(x))
        grad[...] = self.g
        return grad


@dataclass(frozen=True)
class Newtonian(Potential):
    """Point-source potential V = -strength / |X - center|.

    Evaluation closer than ``r_min`` to the center raises
    PotentialSingularityError rather than returning a huge value.
    """

    strength: float
    center: np.ndarray = field(default_factory=lambda: np.zeros(3))
    r_min: float = 1e-9

    def __post_init__(self):
        if not np.isfinite(self.strength) or self.strength <= 0:
            raise ValueError(f"strength must be positive, got {self.strength!r}")
        object.__setattr__(self, "center", _finite_array(self.center, (3,), "center"))

    def _radius(self, x) -> tuple[np.ndarray, np.ndarray | float]:
        """Offsets from the center and their lengths, guarded by r_min.

        A single point, as in a one-particle integration, gets a float
        radius: the same value at a fraction of the array overhead.
        """
        d = np.asarray(x, dtype=float) - self.center
        if d.size == 3:
            flat = d.reshape(3)
            r = math.sqrt(flat @ flat)
            if r < self.r_min:
                self._singular(r, None if d.ndim == 1 else (0,) * (d.ndim - 1))
            return d, r
        r = np.sqrt(_dot_rows(d, d))
        # fmin skips NaN radii: a non-finite point is the integrator's to report
        if np.fmin.reduce(r, axis=None, initial=np.inf) < self.r_min:
            where = np.unravel_index(np.nanargmin(r), r.shape)
            self._singular(r[where], tuple(int(i) for i in where))
        return d, r

    def _singular(self, r: float, where: tuple | None):
        index = where[0] if where is not None and len(where) == 1 else where
        at = "" if where is None else f" for point {index}"
        raise PotentialSingularityError(
            f"field evaluated at r = {r:.3e} < r_min = {self.r_min:.3e}{at}", index=index
        )

    def value(self, x):
        d, r = self._radius(x)
        return _scalar_or_array(np.reshape(-self.strength / r, d.shape[:-1]))

    def gradient(self, x):
        d, r = self._radius(x)
        r3 = r**3 if isinstance(r, float) else np.float_power(r, 3)[..., None]
        return self.strength * d / r3


# the factors of d/dX_a of a monomial, per axis a: X_a first, then the
# other axes ascending, as the derivative is written out
_DERIVATIVE_AXES = np.array([[0, 1, 2], [1, 0, 2], [2, 0, 1]])
# every exponent a monomial of degree <= 4 can put on one coordinate
_POWERS = np.arange(5.0)


@dataclass(frozen=True)
class Polynomial(Potential):
    """Polynomial potential: coefficients map exponent triples to weights.

    Keys are (e1, e2, e3) monomial exponents with total degree at most 4;
    V = sum_c coeff * X1^e1 X2^e2 X3^e3.  The coefficients are stored
    sorted by exponent, so equal polynomials have equal reprs.

    Each term is multiplied out left to right, weight first, from a table
    of X_k^e for e = 0..4, and the terms are added in order to a running
    total from 0.0: every point gets exactly the sum a loop over monomials
    would.
    """

    coefficients: dict
    # a zero term, then one row per monomial: (M+1,) weights and (M+1, 3)
    # indices into a point's flattened (3, 5) power table, one per factor;
    # the zero term starts the running total at 0.0
    _weights: np.ndarray = field(init=False, repr=False, compare=False)
    _factors: np.ndarray = field(init=False, repr=False, compare=False)
    # the same per axis a for dV/dX_a: (3, M+1) weights coeff * e_a and
    # (3, M+1, 3) factor indices in _DERIVATIVE_AXES order; terms without
    # X_a become zero terms
    _grad_weights: np.ndarray = field(init=False, repr=False, compare=False)
    _grad_factors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        coeffs = {}
        for key, value in dict(self.coefficients).items():
            exps = tuple(int(e) for e in key)
            if len(exps) != 3 or any(e < 0 for e in exps) or sum(exps) > 4:
                raise ValueError(f"bad monomial exponents {key!r} (degree must be <= 4)")
            # the gradient weighs it by an exponent, which must not overflow it
            if not math.isfinite(float(value) * max(exps)):
                raise ValueError(f"coefficient for {key!r} must be finite, as must its derivative")
            coeffs[exps] = float(value)
        coeffs = dict(sorted(coeffs.items()))
        object.__setattr__(self, "coefficients", coeffs)

        exps = np.array([(0, 0, 0), *coeffs])
        weights = np.array([0.0, *coeffs.values()])
        grad_exps = np.zeros((3,) + exps.shape, dtype=int)
        grad_weights = np.zeros((3, len(exps)))
        for axis, order in enumerate(_DERIVATIVE_AXES):
            has = exps[:, axis] > 0
            grad_exps[axis, has] = exps[has][:, order] - [1, 0, 0]
            grad_weights[axis, has] = weights[has] * exps[has, axis]
        arrays = {
            "_weights": weights,
            "_factors": np.arange(3) * len(_POWERS) + exps,
            "_grad_weights": grad_weights,
            "_grad_factors": _DERIVATIVE_AXES[:, None, :] * len(_POWERS) + grad_exps,
        }
        for name, arr in arrays.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @staticmethod
    def _sum(x, weights: np.ndarray, factors: np.ndarray) -> np.ndarray:
        """sum_m w_m f_m0 f_m1 f_m2 at points x of shape (..., 3).

        The factors f are looked up in each point's power table; the result
        has shape (..., *weights.shape[:-1]).
        """
        x = np.asarray(x, dtype=float)
        # float_power is libm's pow, as the scalar x ** e; numpy's power may
        # take a vectorised pow that differs in the last bit
        table = np.float_power(x[..., None], _POWERS).reshape(x.shape[:-1] + (-1,))
        f = table[..., factors]
        return np.add.accumulate(weights * f[..., 0] * f[..., 1] * f[..., 2], axis=-1)[..., -1]

    def value(self, x):
        return _scalar_or_array(self._sum(x, self._weights, self._factors))

    def gradient(self, x):
        return self._sum(x, self._grad_weights, self._grad_factors)


# --- scenario and trajectory --------------------------------------------------


@dataclass(frozen=True)
class GravityScenario:
    """A system, a field, an initial state and a uniform time grid.

    ``body_mode`` evolves only the center of mass of the system, as a single
    pseudo-particle of total mass M with the effective algebra parameters.
    Unless the brackets are purely time-valued (Canonical, SpaceTime, or
    Generalized with theta0 alone) and the system is mass-scaled, the
    center of mass does not decouple exactly from the relative motion;
    ``neglect_relative_motion`` acknowledges that approximation and must be
    set for body runs of such systems.
    """

    system: ParticleSystem
    potential: Potential
    initial: PhaseState
    t0: float
    t_end: float
    dt: float
    body_mode: bool = False
    neglect_relative_motion: bool = False

    def __post_init__(self):
        _grid_steps(self.t0, self.t_end, self.dt)
        if self.initial.t != self.t0:
            raise ValueError(
                f"initial state time {self.initial.t!r} must equal t0 = {self.t0!r}"
            )
        if self.initial.n_particles != self.system.n_particles:
            raise ValueError("initial state size does not match the system")

    def n_steps(self) -> int:
        return _grid_steps(self.t0, self.t_end, self.dt)


# a trajectory holds at least one particle's six float64 phase coordinates per
# grid point, and numpy sizes no array of more bytes than an intp counts
_MAX_GRID_STEPS = np.iinfo(np.intp).max // (6 * 8) - 1


def _grid_steps(t0: float, t_end: float, dt: float) -> int:
    """Number of steps of size dt from t0 to t_end.

    The grid must end at t_end: dt has to divide t_end - t0 to within 1e-9
    of a step, and its trajectory must be an array numpy can size.  Raises
    GridError naming the offending field.
    """
    for name, value in (("t0", t0), ("t_end", t_end), ("dt", dt)):
        if not math.isfinite(value):
            raise GridError(name, f"{name} must be finite, got {value!r}")
    if dt <= 0:
        raise GridError("dt", f"dt must be positive, got {dt!r}")
    if t_end <= t0:
        raise GridError("t_end", "t_end must exceed t0")
    steps = (t_end - t0) / dt
    if steps > _MAX_GRID_STEPS:  # an infinite count too
        raise GridError(
            "t_end",
            f"t_end - t0 = {t_end - t0!r} takes {steps:.6g} steps of dt = {dt!r}, "
            "more than numpy can size a trajectory for",
        )
    n = int(np.floor(steps + 1e-9))
    if n < 1 or abs(steps - n) > 1e-9:
        raise GridError(
            "dt",
            f"dt = {dt!r} does not divide t_end - t0 = {t_end - t0!r} ({steps:.6g} steps); "
            "the grid would stop short of t_end",
        )
    return n


def _scenario_fingerprint(scenario: GravityScenario) -> str:
    spec_dump = []
    for p in scenario.system.particles:
        theta0, theta, theta_bar, theta_tilde = _encoding(p.spec)
        spec_dump.append(
            {
                "variant": type(p.spec).__name__,
                "mass": p.mass,
                "theta0": theta0.tolist(),
                "theta": theta.tolist(),
                "theta_bar": theta_bar.tolist(),
                "theta_tilde": theta_tilde.tolist(),
            }
        )
    payload = {
        "particles": spec_dump,
        "potential": repr(scenario.potential),
        "x": scenario.initial.x.tolist(),
        "p": scenario.initial.p.tolist(),
        "grid": [scenario.t0, scenario.t_end, scenario.dt],
        "body_mode": scenario.body_mode,
    }
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    return digest[:16]


@dataclass(frozen=True)
class Trajectory:
    """Uniform-grid samples of an integrated phase trajectory."""

    times: np.ndarray  # (n,)
    states: np.ndarray  # (n, 6 * n_particles)
    masses: np.ndarray  # (n_particles,)
    metadata: dict

    @property
    def n_particles(self) -> int:
        return self.states.shape[1] // 6

    @property
    def samples(self) -> Iterator[tuple[float, PhaseState]]:
        for t, z in zip(self.times, self.states):
            yield float(t), PhaseState.from_flat(z, float(t))

    def positions(self, particle: int = 0) -> np.ndarray:
        """(n, 3) coordinate track of one particle."""
        return self.states[:, 6 * particle : 6 * particle + 3]

    def momenta(self, particle: int = 0) -> np.ndarray:
        return self.states[:, 6 * particle + 3 : 6 * particle + 6]

    def reduced_momenta(self, particle: int = 0) -> np.ndarray:
        """P' = P / m of one particle."""
        return self.momenta(particle) / self.masses[particle]

    def write_csv(self, target: str | TextIO, include_reduced_momentum: bool = False) -> None:
        """Write the trajectory as CSV with 17-significant-digit values.

        Columns: t, then X1..X3, P1..P3 per particle (suffixed "[a]" when
        there is more than one particle); reduced-momentum columns Pr1..Pr3
        appended per particle when requested.  The table is built once; each
        row is written with one ``%.17g`` format call.
        """
        n = self.n_particles
        suffix = (lambda a: f"[{a}]") if n > 1 else (lambda a: "")
        header = ["t"]
        for a in range(n):
            header += [f"{c}{suffix(a)}" for c in ("X1", "X2", "X3", "P1", "P2", "P3")]
        columns = [self.times[:, None], self.states]
        if include_reduced_momentum:
            for a in range(n):
                header += [f"Pr{i}{suffix(a)}" for i in (1, 2, 3)]
            momenta = self.states.reshape(-1, n, 6)[:, :, 3:]
            columns.append((momenta / self.masses[:, None]).reshape(-1, 3 * n))
        table = np.hstack(columns)
        row_format = ",".join(["%.17g"] * len(header)) + "\n"

        own = isinstance(target, str)
        fh = open(target, "w", newline="") if own else target
        try:
            fh.write(",".join(header) + "\n")
            for row in table:
                fh.write(row_format % tuple(row.tolist()))
        finally:
            if own:
                fh.close()


# --- equations of motion -------------------------------------------------------


def _hamiltonian_gradient(
    masses: np.ndarray, potential: Potential, z: np.ndarray
) -> np.ndarray:
    """grad(H) for H = sum_a |P^a|^2 / 2 m_a + m_a V(X^a)."""
    blocks = z.reshape(-1, 6)
    m = masses[:, None]
    grad = np.empty_like(blocks)
    # out passed positionally: the keyword costs about 0.5 us a call at N=1
    np.multiply(m, potential.gradient(blocks[:, :3]), grad[:, :3])
    np.divide(blocks[:, 3:], m, grad[:, 3:])
    return grad.reshape(-1)


def _energies(masses: np.ndarray, potential: Potential, states: np.ndarray) -> np.ndarray:
    """H = sum_a |P^a|^2 / 2 m_a + m_a V(X^a) of each row of (T, 6N) states: shape (T,)."""
    blocks = states.reshape(len(states), -1, 6)
    terms = np.empty(blocks.shape[:2] + (2,))
    terms[..., 0] = _dot_rows(blocks[..., 3:], blocks[..., 3:]) / (2 * masses)
    terms[..., 1] = masses * potential.value(blocks[..., :3])
    # a running total, particle by particle, kinetic term first
    return np.cumsum(terms.reshape(len(states), -1), axis=1)[:, -1]


def _rhs_flat(
    masses: np.ndarray,
    lowered: LoweredAlgebra,
    potential: Potential,
    z: np.ndarray,
    t: float,
) -> np.ndarray:
    return lowered.apply(z, t, _hamiltonian_gradient(masses, potential, z))


def eom_rhs(scenario: GravityScenario, state: PhaseState) -> tuple[np.ndarray, np.ndarray]:
    """Phase velocity (Xdot, Pdot) = J grad(H) for the scenario's system."""
    if state.n_particles != scenario.system.n_particles:
        raise ValueError("state size does not match the scenario's system")
    z = state.flatten()
    system = scenario.system
    zdot = _rhs_flat(system.masses, system.lowered, scenario.potential, z, state.t)
    blocks = zdot.reshape(-1, 6)
    return blocks[:, :3].copy(), blocks[:, 3:].copy()


def closed_form_rhs(
    spec: AlgebraSpec,
    mass: float,
    potential: Potential,
    x: np.ndarray,
    p: np.ndarray,
    t: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Hand-transcribed single-particle equations of motion for one variant.

    Written independently of the structure-matrix route as a regression
    oracle for ``eom_rhs``.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    m = float(mass)
    v = potential.gradient(x)
    xdot = p / m
    pdot = -m * v
    if isinstance(spec, Canonical):
        return xdot, pdot
    if isinstance(spec, SpaceTime):
        r, s = spec.rho - 1, spec.tau - 1
        coeff = t * m / spec.kappa
        xdot = xdot.copy()
        xdot[r] += coeff * v[s]
        xdot[s] -= coeff * v[r]
        return xdot, pdot
    if isinstance(spec, (SpaceSpace, MiaoTypeI, MiaoTypeII)):
        k, l, g = spec.k - 1, spec.l - 1, spec.gamma - 1
        kt = spec.kappa_tilde
        xdot = xdot.copy()
        pdot = pdot.copy()
        xdot[k] += m * x[l] / kt * v[g]
        xdot[l] -= m * x[k] / kt * v[g]
        xdot[g] += -m * x[l] / kt * v[k] + m * x[k] / kt * v[l]
        pdot[k] += m * p[l] / kt * v[g]
        pdot[l] -= m * p[k] / kt * v[g]
        if isinstance(spec, (MiaoTypeI, MiaoTypeII)):
            ck = t * m / spec.kappa
            xdot[k] -= ck * v[g]
            xdot[l] += ck * v[g]
            xdot[g] += ck * v[k] - ck * v[l]
        if isinstance(spec, MiaoTypeI):
            ck = t * m / spec.kappa
            xdot[k] += ck * v[l]
            xdot[l] -= ck * v[k]
        if isinstance(spec, MiaoTypeII):
            kb = spec.kappa_bar
            xdot[g] -= (x[l] * p[k] + x[k] * p[l]) / (kb * m)
            pdot[k] += m * x[l] / kb * v[g]
            pdot[l] += m * x[k] / kb * v[g]
        return xdot, pdot
    if isinstance(spec, Generalized):
        # Xdot_i = P_i/m + theta_bar^k_ij P_j X_k / m + theta_tilde^k_ij P_j P_k / m
        #          + m (theta0_ij t + theta^k_ij X_k) dV/dX_j
        # Pdot_i = -m dV/dX_i - m (theta_bar^k_ji X_k + theta_tilde^k_ji P_k) dV/dX_j
        # The lower indices of the momentum equation's deformation term are
        # (j, i): this is forced by Pdot_i = {P_i, H} = -sum_j {X_j, P_i} m V_j
        # and reproduces the SpaceSpace momentum equations entrywise.
        bar_ij = np.einsum("kij,k->ij", spec.theta_bar, x)
        tilde_ij = np.einsum("kij,k->ij", spec.theta_tilde, p)
        a_ij = spec.theta0 * t + np.einsum("kij,k->ij", spec.theta, x)
        xdot = p / m + (bar_ij + tilde_ij) @ p / m + m * a_ij @ v
        pdot = -m * v - m * (bar_ij + tilde_ij).T @ v
        return xdot, pdot
    raise TypeError(f"unknown algebra variant: {type(spec).__name__}")


# --- integration ----------------------------------------------------------------


def _integrate_flat(
    masses: np.ndarray,
    lowered: LoweredAlgebra,
    potential: Potential,
    z0: np.ndarray,
    t0: float,
    dt: float,
    n_steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Classical fixed-step fourth-order Runge-Kutta.

    Computes ``k = J(z, t) grad(H)`` at the four stages and
    ``z + dt/6 (k1 + 2 k2 + 2 k3 + k4)`` in the order those expressions are
    written, so every step rounds as they would, but every ufunc writes
    into a buffer made once: the stages, grad(H), the stage state and the
    blocks.  Each step lands directly in its row of ``states``.  The block
    ``C + t time`` is built once per stage time, so k2 and k3 share the one
    at t + dt/2; the slope's contraction is added to a copy of it.
    """
    try:
        times = t0 + dt * np.arange(n_steps + 1)
        states = np.empty((n_steps + 1, z0.size))
    except MemoryError as exc:
        # a grid numpy can size (see _grid_steps) but this machine cannot hold
        raise GridError(
            "t_end", f"a trajectory of {n_steps + 1} grid points does not fit in memory: {exc}"
        ) from None
    states[0] = z0
    rows = states.reshape(n_steps + 1, -1, 6)
    m = masses[:, None]
    time, slope = lowered.time, lowered.slope
    half = dt / 2.0
    stage = np.empty(rows.shape[1:])
    grad = np.empty(rows.shape[1:])
    grad_x, grad_p, grad_column = grad[:, :3], grad[:, 3:], grad[..., None]
    k = np.empty((4,) + rows.shape[1:])
    k1, k2, k3, k4 = k
    k_columns = k[..., None]
    at_t, at_half, at_end = np.empty((3,) + time.shape)
    j = np.empty(time.shape)

    def rhs(z, base, out):
        """``out = J(z, t) grad(H)(z)`` as a column, for the block ``base = C + t time``."""
        # out passed positionally: the keyword costs about 0.5 us a call at N=1
        np.multiply(m, potential.gradient(z[:, :3]), grad_x)
        np.divide(z[:, 3:], m, grad_p)
        if slope is not None:
            np.einsum("ad,adij->aij", z, slope, out=j)
            base = np.add(base, j, j)
        np.matmul(base, grad_column, out)

    # blow-ups surface through the finiteness guard, not numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for step, t in enumerate(times[:-1].tolist()):
            z, z_next = rows[step], rows[step + 1]
            for block, at in ((at_t, t), (at_half, t + half), (at_end, t + dt)):
                np.multiply(at, time, block)
                np.add(_CANONICAL, block, block)
            try:
                rhs(z, at_t, k_columns[0])
                np.add(z, np.multiply(half, k1, stage), stage)
                rhs(stage, at_half, k_columns[1])
                np.add(z, np.multiply(half, k2, stage), stage)
                rhs(stage, at_half, k_columns[2])
                np.add(z, np.multiply(dt, k3, stage), stage)
                rhs(stage, at_end, k_columns[3])
            except PotentialSingularityError as exc:
                where = "" if exc.index is None else f" for particle {exc.index}"
                raise PotentialSingularityError(
                    f"singularity encountered at step {step} (t = {t:.6g}){where}: {exc}",
                    index=exc.index,
                ) from exc
            np.add(k1, np.multiply(2.0, k2, k2), k1)
            np.add(k1, np.multiply(2.0, k3, k3), k1)
            np.add(k1, k4, k1)
            np.add(z, np.multiply(dt / 6.0, k1, k1), z_next)
            if not np.isfinite(z_next).all():
                particle = int(np.argmin(np.isfinite(z_next).all(axis=1)))
                raise NonFiniteStateError(
                    f"non-finite state of particle {particle} after step {step} "
                    f"(t = {t + dt:.6g})",
                    step=step,
                    time=float(t + dt),
                    particle=particle,
                )
    return times, states


def _body_setup(scenario: GravityScenario) -> tuple[float, AlgebraSpec, np.ndarray]:
    """Total mass, effective spec, and initial COM phase vector of a body run."""
    system = scenario.system
    effective = effective_parameters(system)
    if not scenario.neglect_relative_motion and not _decouples_exactly(system):
        raise ValueError(
            "center-of-mass motion does not decouple exactly for this system; "
            "set neglect_relative_motion=True to accept the approximation"
        )
    com = com_transform(system, scenario.initial)
    z0 = np.concatenate([com.x_com, com.p_com])
    return system.total_mass, effective, z0


def integrate(scenario: GravityScenario) -> Trajectory:
    """Integrate the scenario on its uniform grid with fixed-step RK4.

    Deterministic for a given scenario.  Body-mode scenarios evolve the
    center of mass alone as a pseudo-particle of mass M with the system's
    effective algebra parameters.
    """
    return _integrate_together([scenario])[0]


def _flat_run(scenario: GravityScenario) -> tuple[np.ndarray, LoweredAlgebra, np.ndarray]:
    """Masses, lowered algebra and initial phase vector of the system the
    scenario integrates: its particles, or its body's center of mass."""
    if scenario.body_mode:
        total_mass, effective, z0 = _body_setup(scenario)
        return np.array([total_mass]), lower([effective]), z0
    return scenario.system.masses, scenario.system.lowered, scenario.initial.flatten()


def _integrate_together(scenarios: Sequence[GravityScenario]) -> list[Trajectory]:
    """Integrate scenarios sharing a potential, t0, dt and step count as one
    stacked system, and return each its own Trajectory.

    J of the stacked system is block-diagonal and H a sum of per-particle
    terms, and the kernel evaluates every particle on its own, so each
    scenario's states are exactly those of its own integration (as the runs
    of a WEP sweep).  Scenarios whose brackets differ in depending on the
    phase point are integrated apart: stacked, the runs without a slope
    would get a contraction of zeros, work and an addition to J that their
    own integration never makes.  On a singularity or non-finite state the
    scenarios are rerun apart, in order, so the error names the failing
    scenario's own step and particle.
    """
    first = scenarios[0]
    grid = (first.t0, first.dt, first.n_steps())
    for scenario in scenarios[1:]:
        if scenario.potential is not first.potential or (
            scenario.t0, scenario.dt, scenario.n_steps()
        ) != grid:
            raise ValueError("stacked scenarios must share a potential and a grid")
    runs = [_flat_run(s) for s in scenarios]
    if len({lowered.slope is None for _, lowered, _ in runs}) > 1:
        return [integrate(s) for s in scenarios]

    slopes = [lowered.slope for _, lowered, _ in runs]
    stacked = LoweredAlgebra(
        time=np.concatenate([lowered.time for _, lowered, _ in runs]),
        slope=None if slopes[0] is None else np.concatenate(slopes),
    )
    z0 = np.concatenate([z for _, _, z in runs])
    try:
        times, states = _integrate_flat(
            np.concatenate([m for m, _, _ in runs]), stacked, first.potential, z0, *grid
        )
    except (PotentialSingularityError, NonFiniteStateError):
        if len(runs) == 1:
            raise
        for scenario in scenarios:
            integrate(scenario)
        raise

    bounds = np.cumsum([0] + [z.size for _, _, z in runs]).tolist()
    return [
        Trajectory(
            times=times if i == 0 else times.copy(),
            states=np.ascontiguousarray(states[:, bounds[i] : bounds[i + 1]]),
            masses=masses,
            metadata={
                "scenario": _scenario_fingerprint(scenario),
                "integrator": "rk4",
                "dt": scenario.dt,
            },
        )
        for i, (scenario, (masses, _, _)) in enumerate(zip(scenarios, runs))
    ]


def body_com_rhs(scenario: GravityScenario, com_state: PhaseState) -> tuple[np.ndarray, np.ndarray]:
    """Phase velocity of (Xcom, Pcom) for a composite body.

    Equals the single-particle right hand side of a pseudo-particle of mass
    M with the system's effective deformation parameters.
    """
    if not scenario.body_mode:
        raise ValueError("body_com_rhs requires a body-mode scenario")
    if com_state.n_particles != 1:
        raise ValueError("com_state must hold exactly the COM coordinates and momenta")
    total_mass, effective, _ = _body_setup(scenario)
    z = com_state.flatten()
    zdot = _rhs_flat(
        np.array([total_mass]), lower([effective]), scenario.potential, z, com_state.t
    )
    return zdot[:3].copy(), zdot[3:].copy()


# --- weak equivalence principle ---------------------------------------------------


@dataclass(frozen=True)
class PairDeviation:
    masses: tuple[float, float]
    position: float
    reduced_momentum: float


@dataclass(frozen=True)
class WepReport:
    """Trajectory deviations across masses sharing X(0) and P'(0)."""

    scaling_mode: str
    pairs: tuple[PairDeviation, ...]

    @property
    def max_position_deviation(self) -> float:
        return max((p.position for p in self.pairs), default=0.0)

    @property
    def max_reduced_momentum_deviation(self) -> float:
        return max((p.reduced_momentum for p in self.pairs), default=0.0)


def wep_deviation(
    template: GravityScenario,
    masses: Sequence[float],
    scaling_mode: str,
) -> WepReport:
    """Compare trajectories of different masses with common X(0) and P'(0).

    In ``mass_scaled`` mode each run's deformation parameters are rescaled
    so that the scaling rule ties them to the run's mass; deviations are
    then bounded by integrator roundoff.  In ``fixed`` mode the parameters
    are held identical across masses and the deviations expose the
    mass-dependent deformation terms in the equations of motion.

    All runs are integrated together, as one particle each of a single
    system; a singularity or non-finite state names the run and its mass.
    """
    if scaling_mode not in ("fixed", "mass_scaled"):
        raise ValueError(f"scaling_mode must be 'fixed' or 'mass_scaled', got {scaling_mode!r}")
    if template.system.n_particles != 1:
        raise ValueError("WEP comparisons are defined for single-particle scenarios")
    masses = [float(m) for m in masses]
    if not masses:
        raise ValueError("need at least one mass")
    for run, m in enumerate(masses):
        if not (math.isfinite(m) and m > 0):
            raise ValueError(f"masses must be finite and positive, got {m!r} for run {run}")
    base = template.system.particles[0]
    if scaling_mode == "mass_scaled":
        specs = [rescale(base.spec, m / base.mass) for m in masses]
    else:
        specs = [base.spec] * len(masses)
    # runs sharing a grid and a field are independent (J is block-diagonal
    # and H a sum of per-particle terms): particle a of this system is run a
    system = ParticleSystem.from_pairs(masses, specs)
    m = system.masses[:, None]
    z0 = np.empty((len(masses), 6))
    z0[:, :3] = template.initial.x[0]
    z0[:, 3:] = m * (template.initial.p[0] / base.mass)
    try:
        _, states = _integrate_flat(
            system.masses, system.lowered, template.potential, z0.reshape(-1),
            template.t0, template.dt, template.n_steps(),
        )
    except PotentialSingularityError as exc:
        raise PotentialSingularityError(
            f"{_run_label(masses, exc.index)}: {exc}", index=exc.index
        ) from exc
    except NonFiniteStateError as exc:
        raise NonFiniteStateError(
            f"{_run_label(masses, exc.particle)}: {exc}",
            step=exc.step, time=exc.time, particle=exc.particle,
        ) from exc

    blocks = states.reshape(len(states), len(masses), 6)
    x = blocks[..., :3]
    p_reduced = blocks[..., 3:] / m
    pairs = []
    for i, m_i in enumerate(masses[:-1]):
        # every pair (i, j > i) in one broadcast over j: (T, B - i - 1, 3)
        dx = np.linalg.norm(x[:, i : i + 1] - x[:, i + 1 :], axis=-1).max(axis=0)
        dpr = np.linalg.norm(p_reduced[:, i : i + 1] - p_reduced[:, i + 1 :], axis=-1).max(axis=0)
        pairs += [
            PairDeviation(masses=(m_i, m_j), position=float(a), reduced_momentum=float(b))
            for m_j, a, b in zip(masses[i + 1 :], dx, dpr)
        ]
    return WepReport(scaling_mode=scaling_mode, pairs=tuple(pairs))


def _run_label(masses: list[float], run: int | None) -> str:
    return "WEP run" if run is None else f"WEP run {run} (mass {masses[run]!r})"


# --- decoupling of COM and relative motion ------------------------------------


def decoupling_check(
    system: ParticleSystem, state: PhaseState, potential: Potential
) -> float:
    """|{Hcom, Hrel}| for a representative quadratic relative Hamiltonian.

    Hcom = |Pcom|^2 / 2M + M V(Xcom) and
    Hrel = sum_a |dP^(a)|^2 / (2 mu_a m_a) + sum_a |dX^(a)|^2.
    Vanishes (to rounding) for SpaceTime systems under the mass-scaling
    rule, where the COM brackets with all relative variables are zero.

    Hcom depends on (Xcom, Pcom) and Hrel on (dX, dP), so the bracket is
    g_com . {COM, relative} . g_rel with the partial derivatives
    g_com = (M grad V(Xcom), Pcom / M) and g_rel = (2 dX^(a), dP^(a) / (mu_a m_a)).
    """
    com = com_transform(system, state)
    total_mass = system.total_mass
    g_com = np.concatenate([total_mass * potential.gradient(com.x_com), com.p_com / total_mass])
    g_rel = np.concatenate(
        [2.0 * com.dx.ravel(), (com.dp / (system.mu * system.masses)[:, None]).ravel()]
    )
    return float(abs(g_com @ _com_brackets(system, state)[:6, 6:] @ g_rel))


def hamiltonian(system: ParticleSystem, potential: Potential, state: PhaseState) -> float:
    """Total energy sum_a |P^a|^2 / 2 m_a + m_a V(X^a)."""
    return float(_energies(system.masses, potential, state.flatten()[None])[0])
