"""Phase-space observables with analytic gradients.

An observable is a smooth function f(z, t) of the flattened phase vector
z = (X1, X2, X3, P1, P2, P3) per particle, particles concatenated, together
with its gradient with respect to z.  Brackets of observables are evaluated
as grad(f) . J . grad(g), so the gradient is the only derivative ever needed.

Axis indices are 1-based (1..3, matching the algebra parameter indices);
particle indices are 0-based.
"""

from __future__ import annotations

import math
import numbers
from typing import Callable

import numpy as np

__all__ = [
    "Observable",
    "coordinate",
    "momentum",
    "com_frame",
    "com_frame_rows",
    "com_coordinate",
    "com_momentum",
    "relative_coordinate",
    "relative_momentum",
]


def coordinate_slot(particle: int, axis: int) -> int:
    """Flat index of X_axis of the given particle (axis 1-based)."""
    return 6 * particle + (axis - 1)


def momentum_slot(particle: int, axis: int) -> int:
    """Flat index of P_axis of the given particle (axis 1-based)."""
    return 6 * particle + 3 + (axis - 1)


class Observable:
    """A function of the phase vector with an analytic gradient.

    Supports +, -, * (with scalars and other observables); products use the
    Leibniz rule for their gradients, so polynomial observables built from
    projections carry exact gradients.
    """

    def __init__(
        self,
        value: Callable[[np.ndarray, float], float],
        gradient: Callable[[np.ndarray, float], np.ndarray],
        label: str = "",
    ):
        self._value = value
        self._gradient = gradient
        self.label = label

    def value(self, z: np.ndarray, t: float = 0.0) -> float:
        return float(self._value(z, t))

    def gradient(self, z: np.ndarray, t: float = 0.0) -> np.ndarray:
        return np.asarray(self._gradient(z, t), dtype=float)

    def __add__(self, other: "Observable | float") -> "Observable":
        other = _as_observable(other)
        return Observable(
            lambda z, t: self._value(z, t) + other._value(z, t),
            lambda z, t: self.gradient(z, t) + other.gradient(z, t),
            label=f"({self.label}+{other.label})",
        )

    __radd__ = __add__

    def __sub__(self, other: "Observable | float") -> "Observable":
        return self + (-1.0) * _as_observable(other)

    def __mul__(self, other: "Observable | float") -> "Observable":
        if isinstance(other, (int, float)):
            c = float(other)
            return Observable(
                lambda z, t: c * self._value(z, t),
                lambda z, t: c * self.gradient(z, t),
                label=f"({c}*{self.label})",
            )
        return Observable(
            lambda z, t: self._value(z, t) * other._value(z, t),
            lambda z, t: (
                self._value(z, t) * other.gradient(z, t)
                + other._value(z, t) * self.gradient(z, t)
            ),
            label=f"({self.label}*{other.label})",
        )

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"Observable({self.label or 'anonymous'})"


def _as_observable(x: "Observable | float") -> Observable:
    if isinstance(x, Observable):
        return x
    c = float(x)
    return Observable(lambda z, t: c, lambda z, t: np.zeros_like(z), label=str(c))


def _linear(weights_of: Callable[[int], np.ndarray], label: str) -> Observable:
    """Observable linear in z; ``weights_of(len(z))`` builds the weight vector."""

    def value(z, t):
        return float(weights_of(len(z)) @ z)

    def gradient(z, t):
        return weights_of(len(z))

    return Observable(value, gradient, label=label)


def _checked(name: str, value, lo: int, hi: float = math.inf) -> int:
    """``value`` as an int, or a ValueError naming ``name`` if not an integer in lo..hi."""
    if not isinstance(value, numbers.Integral) or not lo <= value <= hi:
        raise ValueError(f"{name} must be an integer in {lo}..{hi}, got {value!r}")
    return int(value)


def _projection(slot_of: Callable[[int, int], int], name: str, particle, axis) -> Observable:
    """Observable of the one slot ``slot_of(particle, axis)``, named name_axis[particle]."""
    particle, axis = _checked("particle", particle, 0), _checked("axis", axis, 1, 3)
    slot = slot_of(particle, axis)

    def weights(n):
        w = np.zeros(n)
        w[slot] = 1.0
        return w

    return _linear(weights, f"{name}_{axis}[{particle}]")


def coordinate(particle: int, axis: int) -> Observable:
    """Projection onto X_axis of one particle."""
    return _projection(coordinate_slot, "X", particle, axis)


def momentum(particle: int, axis: int) -> Observable:
    """Projection onto P_axis of one particle."""
    return _projection(momentum_slot, "P", particle, axis)


def com_frame(mu: np.ndarray) -> np.ndarray:
    """The COM change of variables W for mass fractions mu, shape (6 + 6N, 6N).

    Rows Xcom_i, Pcom_i, dX_i[a], dP_i[a] (particle-major) are, in the X or P
    slots, mu (x) I3, 1 (x) I3, (I - 1 mu^T) (x) I3 and (I - mu 1^T) (x) I3.
    Only the nonzero pattern is written, so every other entry is +0.0 (a
    Kronecker product with a 0/1 selector would leave -0.0 behind).
    """
    mu = np.asarray(mu, dtype=float)
    n = len(mu)
    w = np.zeros((6 + 6 * n, n, 6))
    ax = np.arange(3)
    w[ax, :, ax] = mu
    w[3 + ax, :, 3 + ax] = 1.0
    # relative rows, indexed [a, i, b, slot]
    dx = w[6 : 6 + 3 * n].reshape(n, 3, n, 6)
    dp = w[6 + 3 * n :].reshape(n, 3, n, 6)
    dx[:, ax, :, ax] = np.eye(n) - mu[None, :]
    dp[:, ax, :, 3 + ax] = np.eye(n) - mu[:, None]
    return w.reshape(6 + 6 * n, 6 * n)


def com_frame_rows(n: int) -> list[str]:
    """The names of the rows of ``com_frame`` for n particles, in its row order."""
    at = [("Xcom", ""), ("Pcom", "")] + [(d, f"[{a}]") for d in ("dX", "dP") for a in range(n)]
    return [f"{name}_{i}{suffix}" for name, suffix in at for i in (1, 2, 3)]


def _frame_row(mu: np.ndarray, kind: str, axis: int, particle: int | None = None) -> Observable:
    """Observable whose weights and name are one row of ``com_frame(mu)``:
    ``kind`` (Xcom, Pcom, dX or dP) of ``axis``, and of ``particle`` for the
    relative rows."""
    label = f"{kind}_{_checked('axis', axis, 1, 3)}"
    if particle is not None:
        label += f"[{_checked('particle', particle, 0, len(mu) - 1)}]"
    w = com_frame(mu)[com_frame_rows(len(mu)).index(label)].copy()

    def weights(n):
        if n != len(w):
            raise ValueError(f"{label} takes a phase vector of length {len(w)}, got {n}")
        return w.copy()

    return _linear(weights, label)


def com_coordinate(mu: np.ndarray, axis: int) -> Observable:
    """Center-of-mass coordinate: sum_a mu_a X_axis^(a)."""
    return _frame_row(mu, "Xcom", axis)


def com_momentum(n_particles: int, axis: int) -> Observable:
    """Total momentum: sum_a P_axis^(a)."""
    n = _checked("n_particles", n_particles, 1)
    # the Pcom rows do not depend on the mass fractions
    return _frame_row(np.full(n, 1.0 / n), "Pcom", axis)


def relative_coordinate(mu: np.ndarray, particle: int, axis: int) -> Observable:
    """Relative coordinate X^(a) - Xcom of one particle."""
    return _frame_row(mu, "dX", axis, particle)


def relative_momentum(mu: np.ndarray, particle: int, axis: int) -> Observable:
    """Relative momentum P^(a) - mu_a Pcom of one particle."""
    return _frame_row(mu, "dP", axis, particle)
