"""Dynamics in gravitational fields: z' = J(z, t) grad(H).

Integrates the non-canonical Hamilton equations for point particles and for
composite bodies reduced to their center of mass, cross-checks the right
hand side against the chain rule over hand-written bracket tables, and
measures weak-equivalence-principle deviations across masses.

The gravitational Hamiltonian is H = |P|^2 / 2m + m V(X1, X2, X3), with the
inertial mass in the kinetic term equal to the gravitational mass in the
potential term; a composite body uses H = |Pcom|^2 / 2M + M V(Xcom).
grad(H) has one writer, ``_write_hamiltonian_gradient``: the RK4 kernel
calls it on views of its buffers made once per run, ``_rhs_flat`` (behind
``eom_rhs`` and ``body_com_rhs``) and ``decoupling_check`` on the halves of
their own buffers, and only the oracle ``closed_form_rhs`` evaluates a
potential's gradient on its own.  The step maps of a linear flow evaluate
no gradient: they build grad(H) = A z + b once, as a matrix, from the
field's declared affine gradient.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import math
import numbers
import os
import stat
import sys
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from .algebra import (
    AlgebraSpec,
    PhaseState,
    LoweredAlgebra,
    _CANONICAL,
    _encoding,
    _fields_equal,
    _finite_array,
    lower,
)
from .composition import (
    ParticleSystem,
    _check_particle_count,
    _com_brackets,
    _tables,
    com_transform,
    effective_parameters,
)
from .csvformat import format_rows
from .errors import GridError, NonFiniteStateError, PotentialSingularityError, WepRunError

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
    "integrate_together",
    "scenario_fingerprint",
    "wep_runs",
    "wep_report",
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
    does not depend on the other rows.  ``gradient_into`` writes the
    gradient into a given float array of the points' shape.  A subclass
    defines ``value`` and either gradient method; the other derives from it.
    """

    def value(self, x: np.ndarray) -> float | np.ndarray:
        raise NotImplementedError

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.gradient_into(x, np.empty(np.shape(x)))

    def gradient_into(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        if type(self).gradient is Potential.gradient:
            raise NotImplementedError(f"{type(self).__name__} defines no gradient")
        out[...] = self.gradient(x)
        return out

    def _affine_gradient(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(G, g0) with grad V(x) = G x + g0, for a field that declares its
        gradient affine, else None: the integrator's step maps read it."""
        return None


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of (..., 3) arrays, one BLAS dot per row.

    The same sum as ``a_row @ b_row``, so a row's result is independent of
    how many rows are evaluated together.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _scalar_or_array(v: np.ndarray) -> float | np.ndarray:
    return float(v) if v.ndim == 0 else v


@dataclass(frozen=True, eq=False)
class Uniform(Potential):
    """Linear potential V = g . X (constant field gradient g)."""

    g: np.ndarray

    __eq__ = _fields_equal

    def __post_init__(self):
        object.__setattr__(self, "g", _finite_array(self.g, (3,), "g"))

    def value(self, x):
        return _scalar_or_array(_dot_rows(np.asarray(x, dtype=float), self.g))

    def gradient_into(self, x, out):
        out[...] = self.g
        return out

    def _affine_gradient(self):
        return np.zeros((3, 3)), self.g


@dataclass(frozen=True, eq=False)
class Newtonian(Potential):
    """Point-source potential V = -strength / |X - center|.

    Evaluation closer than ``r_min`` to the center raises
    PotentialSingularityError rather than returning a huge value.
    """

    strength: float
    center: np.ndarray = field(default_factory=lambda: np.zeros(3))
    r_min: float = 1e-9

    __eq__ = _fields_equal

    def __post_init__(self):
        if not np.isfinite(self.strength) or self.strength <= 0:
            raise ValueError(f"strength must be positive, got {self.strength!r}")
        if not np.isfinite(self.r_min) or self.r_min <= 0:
            raise ValueError(f"r_min must be positive and finite, got {self.r_min!r}")
        object.__setattr__(self, "center", _finite_array(self.center, (3,), "center"))

    def _radius(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Offsets from the center and their lengths, guarded by r_min."""
        d = np.asarray(x, dtype=float) - self.center
        r = np.sqrt(_dot_rows(d, d))
        # fmin skips NaN radii: a non-finite point is the integrator's to report
        if np.fmin.reduce(r, axis=None, initial=np.inf) < self.r_min:
            where = tuple(int(i) for i in np.unravel_index(np.nanargmin(r), r.shape))
            # a single point, of shape (3,), has no index
            index = where[0] if len(where) == 1 else where or None
            at = "" if index is None else f" for point {index}"
            raise PotentialSingularityError(
                f"field evaluated at r = {r[where]:.3e} < r_min = {self.r_min:.3e}{at}",
                index=index,
            )
        return d, r

    def value(self, x):
        d, r = self._radius(x)
        return _scalar_or_array(np.reshape(-self.strength / r, d.shape[:-1]))

    def gradient_into(self, x, out):
        d, r = self._radius(x)
        r3 = np.float_power(r, 3)[..., None]
        return np.divide(np.multiply(self.strength, d, out), r3, out)


# the factors of d/dX_a of a monomial, per axis a: X_a first, then the
# other axes ascending, as the derivative is written out
_DERIVATIVE_AXES = ((0, 1, 2), (1, 0, 2), (2, 0, 1))
_ZERO_TERM = (0.0, ((0, 0),) * 3)  # +0.0 times three factors X1^0 = 1.0


def _term_major(outputs: list) -> tuple:
    """``Polynomial._sum``'s power rows, weights and factor rows for outputs
    given as lists of terms (weight, three (axis, exponent) factors in
    multiplication order)."""
    # a zero weight times three factors 1.0 adds +-0.0, which leaves a total
    # that starts at +0.0 as it is: such terms are dropped, and pad the
    # shorter outputs; a zero weight times a real factor stays (0 * inf is NaN)
    kept = [[_ZERO_TERM] + [t for t in terms if t[0] or any(e for _, e in t[1])]
            for terms in outputs]
    width = max(map(len, kept))
    pairs = [(0, 0), (0, 1), (1, 1), (2, 1)]
    pairs += sorted({f for terms in kept for _, fs in terms for f in fs if f[1] > 1})
    row = {pair: i for i, pair in enumerate(pairs)}
    by_term = list(zip(*[t + [_ZERO_TERM] * (width - len(t)) for t in kept]))
    axes, exps = np.array(pairs).T
    compiled = (axes, exps[:, None],
                np.array([[[w] for w, _ in term] for term in by_term]),
                np.array([[[row[fs[i] if fs[i][1] else (0, 0)] for _, fs in term]
                           for term in by_term] for i in range(3)]))
    for arr in compiled:
        arr.flags.writeable = False
    return compiled


@dataclass(frozen=True)
class Polynomial(Potential):
    """Polynomial potential: coefficients map exponent triples to weights.

    Keys are (e1, e2, e3) tuples of integer exponents >= 0 with total degree
    at most 4, one key per monomial; V = sum_c coeff * X1^e1 X2^e2 X3^e3.
    The coefficients are stored sorted by exponent, so equal polynomials
    have equal reprs.

    The value and the gradient (weights coeff * e_a) are compiled once,
    term-major, for J = 1 and 3 outputs: power rows (axis, exponent) of a
    per-point table of 1.0, the coordinates and the X_k^e, e >= 2, that some
    factor reads; (M, J, 1) weights; and (3, M, J) factor rows into the
    table.  Each term is multiplied out left to right, weight first, and the
    terms are added in order from a +0.0 term: every point gets exactly the
    sum a loop over monomials would.
    """

    coefficients: dict
    # (power rows, weights, factor rows) of the value and of the gradient
    _value: tuple = field(init=False, repr=False, compare=False)
    _gradient: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        coeffs = {}
        for key, value in dict(self.coefficients).items():
            if not (isinstance(key, tuple) and len(key) == 3 and all(
                    isinstance(e, numbers.Integral) and not isinstance(e, bool) and e >= 0
                    for e in key) and sum(key) <= 4):
                raise ValueError(f"bad monomial exponents {key!r} (three integers >= 0 "
                                 "of total degree <= 4)")
            exps = tuple(map(int, key))
            if exps in coeffs:
                raise ValueError(f"monomial exponents {key!r}: the same monomial as another key")
            # the gradient weighs it by an exponent, which must not overflow it
            if not math.isfinite(float(value) * max(exps)):
                raise ValueError(f"coefficient for {key!r} must be finite, as must its derivative")
            coeffs[exps] = float(value)
        coeffs = dict(sorted(coeffs.items()))
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "_value", _term_major(
            [[(c, tuple(enumerate(exps))) for exps, c in coeffs.items()]]))
        object.__setattr__(self, "_gradient", _term_major([
            [(c * exps[a], tuple((k, exps[k] - (k == a)) for k in order))
             for exps, c in coeffs.items() if exps[a]]
            for a, order in enumerate(_DERIVATIVE_AXES)]))

    @staticmethod
    def _sum(points: np.ndarray, powers: np.ndarray, exponents: np.ndarray,
             weights: np.ndarray, factors: np.ndarray) -> np.ndarray:
        """sum_m w_m f_m0 f_m1 f_m2 per output at points of shape (3, P), as (J, P)."""
        # float_power is libm's pow, as the scalar x ** e, with pow(x, 0) = 1
        # and pow(x, 1) = x; numpy's power may take a vectorised pow that
        # differs in the last bit
        f = np.float_power(points[powers], exponents)[factors]
        return np.add.accumulate(weights * f[0] * f[1] * f[2])[-1]

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return _scalar_or_array(self._sum(x.reshape(-1, 3).T, *self._value).reshape(x.shape[:-1]))

    def gradient_into(self, x, out):
        x = np.asarray(x, dtype=float)
        out[...] = self._sum(x.reshape(-1, 3).T, *self._gradient).T.reshape(x.shape)
        return out

    def _affine_gradient(self):
        # up to degree 2, dV/dX_a of w X^e is e_a w times one X_k, or 1; no
        # two monomials meet in one entry, and each is added to +0.0, as _sum's
        # running total starts
        grad = np.zeros((3, 4))
        for exps, weight in self.coefficients.items():
            if sum(exps) > 2:
                return None
            for axis, e in enumerate(exps):
                if e:
                    rest = list(exps)
                    rest[axis] -= 1
                    grad[axis, rest.index(1) if 1 in rest else 3] += weight * e
        return grad[:, :3], grad[:, 3]


# --- scenario and trajectory --------------------------------------------------


@dataclass(frozen=True)
class GravityScenario:
    """A system, a field, an initial state and a uniform time grid.

    ``body_mode`` evolves only the center of mass of the system, as a single
    pseudo-particle of total mass M with the effective algebra parameters.
    The center of mass decouples exactly from the relative motion only for
    a linear flow (``_step_map_field``: purely time-valued brackets, as
    Canonical, SpaceTime or Generalized with theta0 alone, in a field whose
    gradient is affine) of a mass-scaled system.  ``neglect_relative_motion``
    acknowledges the approximation otherwise and must be set for body runs
    of such systems, and only for body runs: the scenario refuses either
    mismatch, and a body whose center of mass is not finite, when it is built.
    """

    system: ParticleSystem
    potential: Potential
    initial: PhaseState
    t0: float
    t_end: float
    dt: float
    body_mode: bool = False
    neglect_relative_motion: bool = False
    # the body's (Xcom, Pcom) as one read-only vector, formed once; None
    # without body_mode
    body_point: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        _grid_steps(self.t0, self.t_end, self.dt)
        if self.initial.t != self.t0:
            raise ValueError(
                f"initial state time {self.initial.t!r} must equal t0 = {self.t0!r}"
            )
        if self.initial.n_particles != self.system.n_particles:
            raise ValueError("initial state size does not match the system")
        if self.neglect_relative_motion and not self.body_mode:
            raise ValueError("neglect_relative_motion: only meaningful with body_mode")
        if self.body_mode:
            com = com_transform(self.system, self.initial)
            point = np.concatenate([com.x_com, com.p_com])
            if not np.isfinite(point).all():
                raise ValueError("initial: the body's center of mass (Xcom, Pcom) is not finite")
            point.flags.writeable = False
            object.__setattr__(self, "body_point", point)
        # a missing potential is the task's to name
        if self.body_mode and not self.neglect_relative_motion and self.potential is not None:
            linear = _step_map_field(self.system.lowered, self.potential) is not None
            if not (linear and self.system.scaling.holds):
                field = "" if linear or self.system.lowered.slope is not None else (
                    f" in a {type(self.potential).__name__} field, whose gradient is not affine")
                raise ValueError(
                    "neglect_relative_motion: the center of mass of these particles does not "
                    f"decouple exactly from their relative motion{field}; set it to true to "
                    "accept the body run as an approximation"
                )

    def n_steps(self) -> int:
        return _grid_steps(self.t0, self.t_end, self.dt)


# a trajectory holds at least one particle's six float64 phase coordinates per
# grid point, and numpy sizes no array of more bytes than an intp counts
_MAX_GRID_STEPS = np.iinfo(np.intp).max // (6 * 8) - 1
_EPS = np.finfo(float).eps


def _grid_steps(t0: float, t_end: float, dt: float) -> int:
    """Number of steps of size dt from t0 to t_end.

    The grid must end at t_end: dt has to divide t_end - t0 to within 1e-9
    of a step plus the quotient's rounding, 4 eps per step, but never to
    within more than a quarter step, and its trajectory must be an array
    numpy can size.  Raises GridError naming
    the offending field.
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
    n = int(round(steps))
    if n < 1 or abs(steps - n) > min(1e-9 + 4 * _EPS * steps, 0.25):
        raise GridError(
            "dt",
            f"dt = {dt!r} does not divide t_end - t0 = {t_end - t0!r} ({steps:.6g} steps); "
            "the grid would stop short of t_end",
        )
    return n


# every print option set, floats in full: an array field's repr neither rounds
# nor depends on the caller's options (numpy's defaults but these two)
_EXACT_PRINT = dict(precision=8, threshold=sys.maxsize, edgeitems=3, linewidth=75,
                    suppress=False, nanstr="nan", infstr="inf", sign="-", formatter=None,
                    floatmode="unique", legacy=False)
if "override_repr" in np.get_printoptions():  # an option since numpy 2.0
    _EXACT_PRINT["override_repr"] = None


def scenario_fingerprint(scenario: GravityScenario) -> str:
    """16 hex digits of the SHA-256 of the scenario's particles (variant,
    mass and exact tensor encoding), potential (its exact repr), initial
    state, grid and body mode: equal scenarios share it, and a changed
    input moves it."""
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
    with np.printoptions(**_EXACT_PRINT):
        potential = repr(scenario.potential)
    payload = {
        "particles": spec_dump,
        "potential": potential,
        "x": scenario.initial.x.tolist(),
        "p": scenario.initial.p.tolist(),
        "grid": [scenario.t0, scenario.t_end, scenario.dt],
        "body_mode": scenario.body_mode,
    }
    # a fresh acyclic payload: the circular-reference check finds nothing
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, check_circular=False).encode()).hexdigest()
    return digest[:16]


@contextlib.contextmanager
def _rewrite(path: str | os.PathLike, newline: str | None = None) -> Iterator[TextIO]:
    """The one writer of liephase's output files: a text file at ``path``,
    opened as ``open(path, "w", newline=newline)`` would open it, whose old
    bytes the new ones overwrite in place.

    The file is not truncated on opening: when the writing ends, it is cut
    at the final position if its old bytes run past it, and only if it is a
    regular file (a device such as ``os.devnull``, or a pipe, cannot be
    cut).  ``open(path, "w")`` empties an existing file, and ext4
    (``auto_da_alloc``) then starts writing the new data back inside
    ``close``, a stall that every rerun into the same output directory
    paid.  The file keeps its inode and links, and a new one gets the mode
    of ``open(path, "w")``.  Nothing is atomic and nothing is synced: a
    crash mid-write can leave the new bytes followed by the old ones.
    """
    # open's own flags less O_TRUNC: open closes the descriptor if the text
    # layer over it fails
    with open(path, "w", newline=newline,
              opener=lambda name, flags: os.open(name, flags & ~os.O_TRUNC, 0o666)) as fh:
        old = os.fstat(fh.fileno())
        try:
            yield fh
        finally:
            if stat.S_ISREG(old.st_mode) and fh.tell() < old.st_size:
                fh.truncate()


@dataclass(frozen=True)
class Trajectory:
    """Uniform-grid samples of an integrated phase trajectory."""

    times: np.ndarray  # (T,)
    states: np.ndarray  # (T, 6N)
    masses: np.ndarray  # (N,)

    def __post_init__(self):
        times, states, masses = np.shape(self.times), np.shape(self.states), np.shape(self.masses)
        if len(times) != 1:
            raise ValueError(f"times must have shape (T,), got {times}")
        if len(states) != 2 or states[0] != times[0] or states[1] % 6:
            raise ValueError(
                f"states must have shape (T, 6N) with T = {times[0]} samples, got {states}")
        if masses != (states[1] // 6,):
            raise ValueError(
                f"masses must have shape (N,) with N = {states[1] // 6} particles, got {masses}")

    @property
    def n_particles(self) -> int:
        return self.states.shape[1] // 6

    @property
    def samples(self) -> Iterator[tuple[float, PhaseState]]:
        for t, z in zip(self.times, self.states):
            yield float(t), PhaseState.from_flat(z, float(t))

    def positions(self, particle: int = 0) -> np.ndarray:
        """(n, 3) coordinate track of one particle, indexed as a sequence."""
        return self.states.reshape(len(self.states), self.n_particles, 6)[:, particle, :3]

    def momenta(self, particle: int = 0) -> np.ndarray:
        return self.states.reshape(len(self.states), self.n_particles, 6)[:, particle, 3:]

    def reduced_momenta(self, particle: int = 0) -> np.ndarray:
        """P' = P / m of one particle."""
        return self.momenta(particle) / self.masses[particle]

    def energies(self, potential: Potential) -> np.ndarray:
        """Total energy H of each sample in ``potential``: shape (n,)."""
        return _energies(self.masses, potential, self.states)

    def write_csv(
        self, target: str | os.PathLike | TextIO, include_reduced_momentum: bool = False
    ) -> None:
        """Write the trajectory as CSV with 17-significant-digit values.

        Columns: t, then X1..X3, P1..P3 per particle (suffixed "[a]" when
        there is more than one particle); reduced-momentum columns Pr1..Pr3
        appended per particle when requested.  ``target`` is a path, or an
        open text file, which is written and left open.  A path's file is
        rewritten in place (``_rewrite``): an existing file keeps its inode
        and is cut where the new text ends only once it is written, so a
        crash mid-write can leave the new bytes followed by old ones;
        nothing is atomic or synced.  Each cell is the bytes of
        ``'%.17g'``: ``csvformat.format_rows`` formats blocks of rows of at
        most ``_BLOCK_BYTES`` of values, read from slices of the times, the
        states and the reduced momenta, and sends the cells it cannot
        certify to ``'%.17g'`` itself.
        """
        n = self.n_particles
        suffix = (lambda a: f"[{a}]") if n > 1 else (lambda a: "")
        header = ["t"]
        for a in range(n):
            header += [f"{c}{suffix(a)}" for c in ("X1", "X2", "X3", "P1", "P2", "P3")]
        if include_reduced_momentum:
            for a in range(n):
                header += [f"Pr{i}{suffix(a)}" for i in (1, 2, 3)]
        block = np.empty((max(1, _BLOCK_BYTES // (8 * len(header))), len(header)))

        own = isinstance(target, (str, os.PathLike))
        with _rewrite(target, newline="") if own else contextlib.nullcontext(target) as fh:
            fh.write(",".join(header) + "\n")
            for start in range(0, len(self.times), len(block)):
                stop = min(start + len(block), len(self.times))
                rows = block[: stop - start]
                rows[:, 0] = self.times[start:stop]
                rows[:, 1 : 1 + 6 * n] = self.states[start:stop]
                if include_reduced_momentum:
                    momenta = self.states[start:stop].reshape(-1, n, 6)[:, :, 3:]
                    rows[:, 1 + 6 * n :] = (momenta / self.masses[:, None]).reshape(-1, 3 * n)
                fh.write(format_rows(rows))


# --- equations of motion -------------------------------------------------------


def _write_hamiltonian_gradient(
    m: np.ndarray, potential: Potential, x: np.ndarray, p: np.ndarray,
    out_x: np.ndarray, out_p: np.ndarray,
) -> None:
    """grad(H) = (m grad V(x), p / m) into ``out_x`` and ``out_p``, from the
    (N, 1) column of masses and the halves of the phase points and of
    grad(H)'s buffer, which a caller evaluating many points makes once."""
    # out passed positionally: the keyword costs about 0.5 us a call at N=1
    np.multiply(m, potential.gradient_into(x, out_x), out_x)
    np.divide(p, m, out_p)


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
    blocks = z.reshape(-1, 6)
    grad = np.empty_like(blocks)
    _write_hamiltonian_gradient(
        masses[:, None], potential, blocks[:, :3], blocks[:, 3:], grad[:, :3], grad[:, 3:]
    )
    return lowered.apply(z, t, grad)


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
    """Single-particle equations of motion from the hand-written bracket
    tables ``_tables``, by the chain rule.

    Written independently of the structure-matrix route as a regression
    oracle for ``eom_rhs``: with A_ij = {X_i, X_j}, B_ij = {X_i, P_j} - delta_ij
    and v = grad(V)(X), evaluated here,
      Xdot = P/m + B P/m + m A v,
      Pdot = -m v - m B^T v.
    The momentum equation's lower indices are (j, i): Pdot_i = {P_i, H} =
    -sum_j {X_j, P_i} m v_j.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    m = float(mass)
    v = potential.gradient(x)
    a, b = _tables(spec, x, p, t)
    xdot = p / m + b @ p / m + m * a @ v
    pdot = -m * v - m * b.T @ v
    return xdot, pdot


# --- integration ----------------------------------------------------------------


# bytes of the blocks C + t time at one stage time for a block of steps, of
# the (6, 7) step maps (M c) of a block of steps (whose homogeneous states
# (z, 1) take a seventh of that again), or of the values of a block of CSV
# rows: the kernel, the step maps and ``Trajectory.write_csv`` build them for
# as many steps or rows as fit, one at large N
_BLOCK_BYTES = 64 * 1024


def _integrate_flat(
    masses: np.ndarray,
    lowered: LoweredAlgebra,
    potential: Potential,
    z0: np.ndarray,
    t0: float,
    dt: float,
    n_steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Classical fixed-step fourth-order Runge-Kutta: the grid's times and
    the (n_steps + 1, 6N) states from ``z0``.

    A linear flow (see ``_step_map_field``) takes the step maps of
    ``_rk4_step_maps``; everything else takes ``_rk4_kernel``.  Where a step
    map leaves a non-finite state, the whole call is redone by the kernel,
    so every failure is the kernel's.
    """
    affine = _step_map_field(lowered, potential)
    if affine is not None:
        try:
            # blow-ups, in the maps or in the states, surface as non-finite states
            with np.errstate(over="ignore", invalid="ignore"):
                return _rk4_step_maps(masses, lowered, affine, z0, t0, dt, n_steps)
        except NonFiniteStateError:
            pass  # the kernel runs outside the handler, so the maps' states are freed
    return _rk4_kernel(masses, lowered, potential, z0, t0, dt, n_steps)


def _step_map_field(lowered: LoweredAlgebra, potential: Potential):
    """The field's affine gradient (G, g0) when the flow is linear and takes
    the step maps: no slope in J and a field that declares it; else None."""
    return potential._affine_gradient() if lowered.slope is None else None


def _grid_buffers(
    z0: np.ndarray, t0: float, dt: float, n_steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """The grid's times and a trajectory's states, the first row ``z0``."""
    try:
        times = t0 + dt * np.arange(n_steps + 1)
        states = np.empty((n_steps + 1, z0.size))
    except MemoryError as exc:
        # a grid numpy can size (see _grid_steps) but this machine cannot hold
        raise GridError(
            "t_end", f"a trajectory of {n_steps + 1} grid points does not fit in memory: {exc}"
        ) from None
    states[0] = z0
    return times, states


def _rk4_step_maps(
    masses: np.ndarray,
    lowered: LoweredAlgebra,
    affine: tuple[np.ndarray, np.ndarray],
    z0: np.ndarray,
    t0: float,
    dt: float,
    n_steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """RK4 for a linear flow, one affine map per step.

    With J = C + t time and grad(H) = A z + b (``affine`` is the field's
    (G, g0) with grad V = G x + g0), z' = (L0 + t L1) (z, 1), and each RK4
    stage k_i = K_i(t_n) (z, 1) with K_i a polynomial in t_n of degree i.
    The step ``z + dt/6 (k1 + 2 k2 + 2 k3 + k4)`` is then (M(t_n) c(t_n))
    (z, 1), of degree 4 in t_n, whose coefficients are built once.  Per
    block of steps M and c are evaluated at the step times by Horner's rule
    in elementwise ufuncs, so a particle's bits do not depend on its stack,
    and each step is one batched product of the (6, 7) maps with the
    homogeneous states (z, 1), written into the next row of a work buffer
    whose last column stays 1.  A block's rows are copied into ``states``
    at once, and finiteness is checked once per block of steps.
    """
    times, states = _grid_buffers(z0, t0, dt, n_steps)
    columns = states.reshape(n_steps + 1, -1, 6, 1)
    n = len(masses)
    g, g0 = affine
    # grad(H) = gradient @ (z, 1): (m G x + m g0, p / m)
    gradient = np.zeros((n, 6, 7))
    gradient[:, :3, :3] = masses[:, None, None] * g
    gradient[:, :3, 6] = masses[:, None] * g0
    gradient[:, 3:, 3:6] = np.eye(3) / masses[:, None, None]
    # the rate at t_n + s as a polynomial in t_n: (L0 + s L1) + t_n L1, with
    # a zero last row, so that (z, 1) maps to (z', 0)
    rate = np.zeros((2, n, 7, 7))
    rate[0, :, :6] = _CANONICAL @ gradient
    rate[1, :, :6] = lowered.time @ gradient
    unit = np.eye(7)

    def stage(s, k):
        """K_i = rate(t_n + s) (1 + s K_{i-1}), coefficients lowest first."""
        point = s * k
        point[0] += unit
        out = np.zeros((len(k) + 1,) + k.shape[1:])
        for i, coefficient in enumerate((rate[0] + s * rate[1], rate[1])):
            out[i : i + len(k)] += coefficient @ point
        return out

    stages = [rate]
    for s in (dt / 2.0, dt / 2.0, dt):
        stages.append(stage(s, stages[-1]))
    step = np.zeros((5, n, 7, 7))
    for weight, k in zip((1.0, 2.0, 2.0, 1.0), stages):
        step[: len(k)] += weight * k
    step *= dt / 6.0
    step[0] += unit
    step = np.ascontiguousarray(step[:, :, :6])
    per_block = max(1, min(n_steps, _BLOCK_BYTES // step[0].nbytes))
    maps = np.empty((per_block,) + step.shape[1:])
    # the homogeneous states (z, 1) of a block of steps, its first row the
    # state the block starts from
    work = np.ones((per_block + 1, n, 7, 1))
    work[0, :, :6] = columns[0]

    for start in range(0, n_steps, per_block):
        stop = min(start + per_block, n_steps)
        t = times[start:stop, None, None, None]
        block = maps[: stop - start]
        np.multiply(step[4], t, block)
        for coefficient in step[3:0:-1]:
            np.multiply(np.add(block, coefficient, block), t, block)
        np.add(block, step[0], block)
        for m, z, z_next in zip(block, work, work[1:, :, :6]):
            np.matmul(m, z, z_next)
        columns[start + 1 : stop + 1] = work[1 : stop - start + 1, :, :6]
        work[0] = work[stop - start]
        _check_finite(columns[..., 0], times, dt, start, stop)
    return times, states


def _rk4_kernel(
    masses: np.ndarray,
    lowered: LoweredAlgebra,
    potential: Potential,
    z0: np.ndarray,
    t0: float,
    dt: float,
    n_steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Classical fixed-step fourth-order Runge-Kutta for any flow.

    Computes ``k = J(z, t) grad(H)`` at the four stages and
    ``z + dt/6 (k1 + 2 k2 + 2 k3 + k4)`` in the order those expressions are
    written, so every step rounds as they would, but every ufunc writes
    into a buffer made once: the stages, grad(H), the stage state and the
    blocks, and grad(H) is written through views of them made once.  Each
    step lands directly in its row of ``states``.  The blocks
    ``C + t time`` are built for the three stage times of a whole block of
    steps at once, so k2 and k3 share the one at t + dt/2; the slope's
    contraction is added to a copy of it.  Finiteness is checked once per
    block of steps, and a failure names the block's first non-finite step,
    as a check after every step would.
    """
    times, states = _grid_buffers(z0, t0, dt, n_steps)
    rows = states.reshape(n_steps + 1, -1, 6)
    time, slope = lowered.time, lowered.slope
    half, sixth = dt / 2.0, dt / 6.0
    per_block = max(1, min(n_steps, _BLOCK_BYTES // time.nbytes))
    # C + t time at t, t + dt/2 and t + dt for each step of a block
    stage_blocks = np.empty((3, per_block) + time.shape)
    stage = np.empty(rows.shape[1:])
    grad = np.empty(rows.shape[1:])
    grad_column = grad[..., None]
    k = np.empty((4,) + rows.shape[1:])
    k1, k2, k3, k4 = k
    k23 = k[1:3]
    k1_out, k2_out, k3_out, k4_out = k[..., None]
    j = np.empty(time.shape)
    # the views grad(H) is read from and written to
    m = masses[:, None]
    grad_x, grad_p = grad[:, :3], grad[:, 3:]
    stage_x, stage_p = stage[:, :3], stage[:, 3:]
    rows_x, rows_p = rows[..., :3], rows[..., 3:]

    def rhs(z, x, p, base, out):
        """``out = J(z, t) grad(H)(z)`` as a column, for the block
        ``base = C + t time``; ``x`` and ``p`` are the halves of ``z``."""
        _write_hamiltonian_gradient(m, potential, x, p, grad_x, grad_p)
        if slope is not None:
            np.einsum("ad,adij->aij", z, slope, out=j)
            base = np.add(base, j, j)
        np.matmul(base, grad_column, out)

    # blow-ups surface through the finiteness guard, not numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_steps, per_block):
            stop = min(start + per_block, n_steps)
            t = times[start:stop, None, None, None]
            blocks = stage_blocks[:, : stop - start]
            at_t, at_half, at_end = blocks
            np.multiply(t, time, at_t)
            np.multiply(t + half, time, at_half)
            np.multiply(t + dt, time, at_end)
            np.add(_CANONICAL, blocks, blocks)
            step, failure = start, None
            try:
                for z, x, p, z_next, block_t, block_half, block_end in zip(
                    rows[start:stop], rows_x[start:stop], rows_p[start:stop],
                    rows[start + 1 : stop + 1], at_t, at_half, at_end,
                ):
                    rhs(z, x, p, block_t, k1_out)
                    np.add(z, np.multiply(half, k1, stage), stage)
                    rhs(stage, stage_x, stage_p, block_half, k2_out)
                    np.add(z, np.multiply(half, k2, stage), stage)
                    rhs(stage, stage_x, stage_p, block_half, k3_out)
                    np.add(z, np.multiply(dt, k3, stage), stage)
                    rhs(stage, stage_x, stage_p, block_end, k4_out)
                    np.multiply(2.0, k23, k23)
                    np.add(k1, k2, k1)
                    np.add(k1, k3, k1)
                    np.add(k1, k4, k1)
                    np.add(z, np.multiply(sixth, k1, k1), z_next)
                    step += 1
            except Exception as exc:  # re-raised below unless a step before it failed
                failure = exc
            # steps start..step - 1 are done; the block goes on past a
            # non-finite one, and a failure after it is its consequence
            _check_finite(rows, times, dt, start, step)
            if isinstance(failure, PotentialSingularityError):
                where = "" if failure.index is None else f" for particle {failure.index}"
                raise PotentialSingularityError(
                    f"singularity encountered at step {step} "
                    f"(t = {float(times[step]):.6g}){where}: {failure}",
                    index=failure.index,
                ) from failure
            if failure is not None:
                raise failure
    return times, states


def _check_finite(
    rows: np.ndarray, times: np.ndarray, dt: float, start: int, stop: int
) -> None:
    """Raise NonFiniteStateError for the first of steps ``start``..``stop - 1``
    whose result, a row of the (T, N, 6) ``rows``, is not finite."""
    done = rows[start + 1 : stop + 1]
    if np.isfinite(done).all():
        return
    finite = np.isfinite(done).all(axis=2)
    step = start + int(np.argmin(finite.all(axis=1)))
    particle = int(np.argmin(finite[step - start]))
    t = float(times[step]) + dt
    raise NonFiniteStateError(
        f"non-finite state of particle {particle} after step {step} (t = {t:.6g})",
        step=step,
        time=t,
        particle=particle,
    )


def integrate(scenario: GravityScenario) -> Trajectory:
    """Integrate the scenario on its uniform grid with fixed-step RK4.

    Deterministic for a given scenario.  Body-mode scenarios evolve the
    center of mass alone as a pseudo-particle of mass M with the system's
    effective algebra parameters.
    """
    return integrate_together([scenario])[0]


def _flat_run(scenario: GravityScenario) -> tuple[np.ndarray, Sequence[AlgebraSpec], np.ndarray]:
    """Masses, algebra specs and initial phase vector of the system the
    scenario integrates: its particles, or its body's center of mass as a
    pseudo-particle of mass M with the effective parameters."""
    system = scenario.system
    if not scenario.body_mode:
        return system.masses, system.specs, scenario.initial.flatten()
    return np.array([system.total_mass]), [effective_parameters(system)], scenario.body_point


def integrate_together(scenarios: Sequence[GravityScenario]) -> list[Trajectory]:
    """Integrate scenarios sharing a potential, t0, dt and step count as
    stacked systems, and return each its own Trajectory.

    J of a stacked system is block-diagonal and H a sum of per-particle
    terms, and both integration routes evaluate every particle on its own,
    so each scenario's states are exactly those of its own integration (as
    the runs of a WEP sweep).  The runs that take the step maps
    (``_step_map_field``) are stacked apart from those that take the RK4
    kernel, so a run takes the route its own integration takes, and at most
    two stacks are integrated; in a field without an affine gradient every
    run takes the kernel, in one stack.  Each run is lowered to find its
    route, and a stack of several runs is lowered from their specs by one
    more ``lower`` call.  On a singularity or non-finite state the
    scenarios are rerun apart, in order, so an error names the failing
    scenario's own step and particle.
    """
    if not scenarios:
        return []
    first = scenarios[0]
    grid = (first.t0, first.dt, first.n_steps())
    for scenario in scenarios[1:]:
        if scenario.potential is not first.potential or (
            scenario.t0, scenario.dt, scenario.n_steps()
        ) != grid:
            raise ValueError("stacked scenarios must share a potential and a grid")
    runs = [_flat_run(s) for s in scenarios]
    lowered = [lower(specs) for _, specs, _ in runs]
    stacks: dict[bool, list[int]] = {}
    for i, run in enumerate(lowered):
        stacks.setdefault(_step_map_field(run, first.potential) is not None, []).append(i)
    states = {}
    try:
        for members in stacks.values():
            times, stacked = _integrate_flat(
                np.concatenate([runs[i][0] for i in members]),
                lowered[members[0]] if len(members) == 1
                else lower([spec for i in members for spec in runs[i][1]]),
                first.potential, np.concatenate([runs[i][2] for i in members]), *grid,
            )
            bounds = np.cumsum([0] + [runs[i][2].size for i in members]).tolist()
            for i, lo, hi in zip(members, bounds, bounds[1:]):
                states[i] = np.ascontiguousarray(stacked[:, lo:hi])
    except (PotentialSingularityError, NonFiniteStateError):
        if len(runs) == 1:
            raise
        return [integrate(scenario) for scenario in scenarios]

    return [
        Trajectory(
            times=times if i == 0 else times.copy(),
            states=states[i],
            masses=masses,
        )
        for i, (masses, _, _) in enumerate(runs)
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
    masses, specs, _ = _flat_run(scenario)
    zdot = _rhs_flat(masses, lower(specs), scenario.potential, com_state.flatten(), com_state.t)
    return zdot[:3].copy(), zdot[3:].copy()


# --- weak equivalence principle ---------------------------------------------------


@dataclass(frozen=True)
class PairDeviation:
    masses: tuple[float, float]
    position: float
    reduced_momentum: float


@dataclass(frozen=True)
class WepReport:
    """Trajectory deviations across masses sharing X(0) and P'(0).

    ``deviations`` holds one row per pair of runs i < j, ordered by i, then
    j: the largest distance over time between their positions and between
    their reduced momenta P / m.  It is read-only.  ``pairs`` is the tuple
    of its rows as ``PairDeviation``, made on first read.  Two reports are
    equal when their modes and their pairs are.
    """

    scaling_mode: str
    masses: tuple[float, ...]
    deviations: np.ndarray

    @functools.cached_property
    def pairs(self) -> tuple[PairDeviation, ...]:
        return tuple(PairDeviation(masses, *row) for masses, row in zip(
            itertools.combinations(self.masses, 2), self.deviations.tolist()))

    @property
    def max_position_deviation(self) -> float:
        return max(self.deviations[:, 0].tolist(), default=0.0)

    @property
    def max_reduced_momentum_deviation(self) -> float:
        return max(self.deviations[:, 1].tolist(), default=0.0)

    def __eq__(self, other):
        if not isinstance(other, WepReport):
            return NotImplemented
        # without a pair the masses are not compared
        return (self.scaling_mode == other.scaling_mode
                and np.array_equal(self.deviations, other.deviations)
                and (self.masses == other.masses or not len(self.deviations)))

    __hash__ = None


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
    mass-dependent deformation terms in the equations of motion.  Both modes'
    runs are built alike, by ``wep_runs``, as the template scaled to mass ratios.

    All runs are integrated together, as one particle each of a single
    system; a bad run, a singularity or a non-finite state names the run and its mass.
    """
    masses = [float(m) for m in masses]
    try:
        momenta, lowered = wep_runs(template, masses, scaling_mode)
    except WepRunError as exc:
        raise WepRunError(exc.run, f"{_run_label(masses, exc.run)}: {exc}") from exc
    return wep_report(template, masses, lowered, momenta, scaling_mode)


_SCALING_MODES = {"fixed": 0.0, "mass_scaled": 1.0}  # each mode's exponent α, see wep_runs


def _wep_masses(template: GravityScenario, masses: Sequence[float],
                scaling_mode: str) -> list[float]:
    """``masses`` as floats, once the inputs of a WEP comparison are checked:
    a known mode, a single-particle template and at least one mass, each
    finite and positive."""
    if not (isinstance(scaling_mode, str) and scaling_mode in _SCALING_MODES):
        raise ValueError(f"scaling_mode must be 'fixed' or 'mass_scaled', got {scaling_mode!r}")
    if template.system.n_particles != 1:
        raise ValueError("WEP comparisons are defined for single-particle scenarios")
    masses = [float(m) for m in masses]
    if not masses:
        raise ValueError("need at least one mass")
    values = np.array(masses)
    bad = ~(np.isfinite(values) & (values > 0))
    if bad.any():
        run = int(bad.argmax())
        raise ValueError(f"masses must be finite and positive, got {masses[run]!r} for run {run}")
    return masses


def wep_runs(template: GravityScenario, masses: Sequence[float],
             scaling_mode: str) -> tuple[np.ndarray, LoweredAlgebra]:
    """The WEP runs of ``masses`` in one mode: their initial momenta m P'(0),
    read-only, and their lowered stack from one ``lower(spec, mass_ratios=...)``:
    run i is the template rescaled by (m_i / m_0) ** α, exactly the template
    for ``fixed`` (α = 0) and rescaled to m_i for ``mass_scaled`` (α = 1).  A
    run whose momentum or parameters overflow raises WepRunError naming it."""
    masses = _wep_masses(template, masses, scaling_mode)
    run_masses = np.array(masses)
    base = template.system.particles[0]
    with np.errstate(over="ignore"):
        momenta = run_masses[:, None] * (template.initial.p[0] / base.mass)
        ratios = (run_masses / base.mass) ** _SCALING_MODES[scaling_mode]
    momenta.flags.writeable = False
    bad = ~np.isfinite(momenta).all(axis=1)
    if bad.any():
        run = int(bad.argmax())
        raise WepRunError(run, f"the initial momentum m P'(0) for mass {masses[run]!r} overflows")
    try:
        return momenta, lower(base.spec, mass_ratios=ratios)
    except WepRunError as exc:
        raise WepRunError(
            exc.run, f"the parameters rescaled to mass {masses[exc.run]!r}: {exc}") from exc


def wep_report(template: GravityScenario, masses: Sequence[float],
               specs: Sequence[AlgebraSpec] | LoweredAlgebra,
               momenta: np.ndarray, scaling_mode: str) -> WepReport:
    """``wep_deviation``'s report on runs ``wep_runs`` built: run i has mass
    ``masses[i]``, spec ``specs[i]`` (or particle i of a lowered stack) and
    initial momentum ``momenta[i]``.  The template, masses and mode are
    refused as ``wep_runs`` refuses them."""
    masses = tuple(_wep_masses(template, masses, scaling_mode))
    if len(specs) != len(masses):
        raise ValueError(f"{len(masses)} masses need as many specs, got {len(specs)}")
    if np.shape(momenta) != (len(masses), 3):
        raise ValueError(f"{len(masses)} masses need momenta of shape ({len(masses)}, 3), "
                         f"got {np.shape(momenta)}")
    # runs sharing a grid and a field are independent (J is block-diagonal
    # and H a sum of per-particle terms): particle a of one stack is run a
    run_masses = np.array(masses)
    z0 = np.empty((len(masses), 6))
    z0[:, :3] = template.initial.x[0]
    z0[:, 3:] = momenta
    try:
        _, states = _integrate_flat(
            run_masses, lower(specs), template.potential, z0.reshape(-1),
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

    # each run's position and reduced momentum P / m, over time: (T, B, 2, 3)
    runs = states.reshape(len(states), len(masses), 2, 3)
    runs[:, :, 1] /= run_masses[:, None]
    deviations = _pair_deviations(runs)
    deviations.flags.writeable = False
    return WepReport(scaling_mode=scaling_mode, masses=masses, deviations=deviations)


# bytes of the separations one block of pairs holds in ``_pair_deviations``
_PAIR_BLOCK_BYTES = 1 << 20


def _pair_deviations(runs: np.ndarray) -> np.ndarray:
    """Largest distance over time |runs[:, i, k] - runs[:, j, k]| of every
    pair of runs i < j, ordered by i, then j, for each k: (pairs, K) from
    ``runs`` of shape (T, B, K, 3).

    The runs are copied component-major, so each component of a run is one
    contiguous (K, T) row.  ``_pair_blocks`` cuts the pairs into blocks of
    at most ``_PAIR_BLOCK_BYTES`` of separations (or of one pair, when one
    alone is larger).  Each block squares the components and sums them in
    norm's order, (x² + y²) + z², so the distances equal
    ``np.linalg.norm``'s bit for bit; the square root, which is monotone,
    is taken after the largest sum over time.

    The sum of squares overflows for runs more than about 1e154 apart; only
    those entries are measured again, with ``hypot``, which scales.  One
    check per call finds them.
    """
    count, k_count = runs.shape[1], runs.shape[2]
    comps = np.ascontiguousarray(runs.transpose(3, 1, 2, 0))  # (3, B, K, T)
    dev = np.empty((count * (count - 1) // 2, k_count))
    first = 0
    with np.errstate(over="ignore"):
        for lo, hi, start, stop in _pair_blocks(count, _PAIR_BLOCK_BYTES // comps[:, 0].nbytes):
            block = _block_deviations(comps, lo, hi, start, stop)
            dev[first : first + len(block)] = block
            first += len(block)
        pair, k = np.nonzero(np.isinf(dev))
        if len(pair):
            rows, cols = np.triu_indices(count, 1)
            d = runs[:, rows[pair], k] - runs[:, cols[pair], k]
            dev[pair, k] = np.hypot(np.hypot(d[..., 0], d[..., 1]), d[..., 2]).max(axis=0)
    return dev


def _block_deviations(comps: np.ndarray, lo: int, hi: int, start: int, stop: int) -> np.ndarray:
    """``_pair_deviations`` of the pairs j > i of rows ``lo:hi`` and columns
    ``start:stop`` of ``comps``, (3, B, K, T), in pair order: (pairs, K).
    Its separations are freed when it returns."""
    d = comps[:, lo:hi, None] - comps[:, None, start:stop]
    d *= d
    d[0] += d[1]
    d[0] += d[2]
    block = np.sqrt(d[0].max(axis=-1))
    return block[np.arange(start, stop) > np.arange(lo, hi)[:, None]]


def _pair_blocks(count: int, fit: int) -> Iterator[tuple[int, int, int, int]]:
    """Blocks of at most ``fit`` pairs (or of one) of ``count`` runs, in
    pair order: rows ``lo:hi`` against columns ``start:stop``.  A block of
    several rows takes every column after its first row; a row of more
    than ``fit`` pairs is split into ranges of columns."""
    fit, lo = max(fit, 1), 0
    while lo < count - 1:
        width = count - lo - 1  # row lo's pairs
        if fit >= width:
            hi = min(count - 1, lo + fit // width)
            yield lo, hi, lo + 1, count
            lo = hi
        else:
            for start in range(lo + 1, count, fit):
                yield lo, lo + 1, start, min(count, start + fit)
            lo += 1


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
    g_com . B[:6, 6:] . g_rel, the one block of B = W J W^T it forms, with partials
    g_com = (M grad V(Xcom), Pcom / M) and g_rel = (2 dX^(a), dP^(a) / (mu_a m_a)).
    """
    com = com_transform(system, state)
    # one point of shape (1, 3), so a singularity names it as point 0
    g_com = np.empty((1, 6))
    _write_hamiltonian_gradient(
        np.array([[system.total_mass]]), potential, com.x_com[None], com.p_com[None],
        g_com[:, :3], g_com[:, 3:],
    )
    g_rel = np.concatenate(
        [2.0 * com.dx.ravel(), (com.dp / (system.mu * system.masses)[:, None]).ravel()]
    )
    return float(abs(g_com[0] @ _com_brackets(system, state, slice(6), slice(6, None)) @ g_rel))


def hamiltonian(system: ParticleSystem, potential: Potential, state: PhaseState) -> float:
    """Total energy sum_a |P^a|^2 / 2 m_a + m_a V(X^a)."""
    _check_particle_count(system, state)
    return float(_energies(system.masses, potential, state.flatten()[None])[0])
