"""Shared factories for randomized tests."""

import json

import numpy as np

import liephase as lp
from liephase import dynamics
from liephase import observables as obs

VARIANT_NAMES = (
    "canonical",
    "space_time",
    "space_space",
    "miao_type_i",
    "miao_type_ii",
    "generalized",
)

DEFORMED_NAMED_VARIANTS = ("space_time", "space_space", "miao_type_i", "miao_type_ii")


def strict_json(path):
    """A report parsed as strict JSON: NaN and Infinity tokens raise."""
    def refuse(token):
        raise ValueError(f"{path}: non-standard JSON token {token}")
    return json.loads(path.read_text(), parse_constant=refuse)


def tensor_with(shape, index, value) -> list:
    """Nested lists of zeros of ``shape`` with ``value`` at ``index``."""
    tensor = np.zeros(shape).tolist()
    row = tensor
    for i in index[:-1]:
        row = row[i]
    row[index[-1]] = value
    return tensor


def antisym(rng: np.random.Generator, shape) -> np.ndarray:
    a = rng.uniform(-1.0, 1.0, shape)
    return a - np.swapaxes(a, -1, -2)


def random_axes(rng: np.random.Generator):
    perm = rng.permutation([1, 2, 3])
    return int(perm[0]), int(perm[1]), int(perm[2])


def random_spec(rng: np.random.Generator, variant: str) -> lp.AlgebraSpec:
    """One random algebra spec with parameters of order one."""
    if variant == "canonical":
        return lp.Canonical()
    if variant == "space_time":
        rho, tau, _ = random_axes(rng)
        return lp.SpaceTime(kappa=float(rng.uniform(0.5, 5.0)), rho=rho, tau=tau)
    if variant == "space_space":
        k, l, g = random_axes(rng)
        sign = rng.choice([-1.0, 1.0])
        return lp.SpaceSpace(kappa_tilde=float(sign * rng.uniform(0.5, 5.0)), k=k, l=l, gamma=g)
    if variant == "miao_type_i":
        k, l, g = random_axes(rng)
        return lp.MiaoTypeI(
            kappa=float(rng.uniform(0.5, 5.0)),
            kappa_tilde=float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 5.0)),
            k=k, l=l, gamma=g,
        )
    if variant == "miao_type_ii":
        k, l, g = random_axes(rng)
        return lp.MiaoTypeII(
            kappa=float(rng.uniform(0.5, 5.0)),
            kappa_tilde=float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 5.0)),
            kappa_bar=float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 5.0)),
            k=k, l=l, gamma=g,
        )
    if variant == "generalized":
        return lp.Generalized(
            theta0=antisym(rng, (3, 3)),
            theta=antisym(rng, (3, 3, 3)),
            theta_bar=antisym(rng, (3, 3, 3)),
            theta_tilde=antisym(rng, (3, 3, 3)),
        )
    raise ValueError(variant)


def random_state(rng: np.random.Generator, n_particles: int, box: float = 10.0) -> lp.PhaseState:
    return lp.PhaseState(
        x=rng.uniform(-box, box, (n_particles, 3)),
        p=rng.uniform(-box, box, (n_particles, 3)),
        t=float(rng.uniform(-box, box)),
    )


def random_system(rng: np.random.Generator, variant: str, n_particles: int) -> lp.ParticleSystem:
    """Unscaled system: independent random parameters, shared axes."""
    masses = rng.uniform(0.5, 4.0, n_particles)
    template = random_spec(rng, variant)
    specs = [template]
    for _ in range(n_particles - 1):
        specs.append(_with_random_parameters(rng, template))
    return lp.ParticleSystem.from_pairs(masses.tolist(), specs)


def _with_random_parameters(rng: np.random.Generator, template: lp.AlgebraSpec) -> lp.AlgebraSpec:
    if isinstance(template, lp.Canonical):
        return lp.Canonical()
    if isinstance(template, lp.SpaceTime):
        return lp.SpaceTime(kappa=float(rng.uniform(0.5, 5.0)), rho=template.rho, tau=template.tau)
    if isinstance(template, lp.SpaceSpace):
        return lp.SpaceSpace(
            kappa_tilde=float(np.sign(template.kappa_tilde) * rng.uniform(0.5, 5.0)),
            k=template.k, l=template.l, gamma=template.gamma,
        )
    if isinstance(template, lp.MiaoTypeI):
        return lp.MiaoTypeI(
            kappa=float(rng.uniform(0.5, 5.0)),
            kappa_tilde=float(np.sign(template.kappa_tilde) * rng.uniform(0.5, 5.0)),
            k=template.k, l=template.l, gamma=template.gamma,
        )
    if isinstance(template, lp.MiaoTypeII):
        return lp.MiaoTypeII(
            kappa=float(rng.uniform(0.5, 5.0)),
            kappa_tilde=float(np.sign(template.kappa_tilde) * rng.uniform(0.5, 5.0)),
            kappa_bar=float(np.sign(template.kappa_bar) * rng.uniform(0.5, 5.0)),
            k=template.k, l=template.l, gamma=template.gamma,
        )
    if isinstance(template, lp.Generalized):
        rng2 = rng
        return lp.Generalized(
            theta0=antisym(rng2, (3, 3)),
            theta=antisym(rng2, (3, 3, 3)),
            theta_bar=antisym(rng2, (3, 3, 3)),
            theta_tilde=antisym(rng2, (3, 3, 3)),
        )
    raise TypeError(type(template).__name__)


def scaled_system(rng: np.random.Generator, variant: str, n_particles: int) -> lp.ParticleSystem:
    """Mass-scaled system: parameters tied to each particle's mass."""
    masses = rng.uniform(0.5, 4.0, n_particles)
    if variant == "canonical":
        specs = [lp.Canonical() for _ in masses]
        return lp.ParticleSystem.from_pairs(masses.tolist(), specs)
    if variant == "space_time":
        rho, tau, _ = random_axes(rng)
        gamma_k = float(rng.uniform(0.5, 3.0))
        specs = [lp.SpaceTime(kappa=gamma_k * m, rho=rho, tau=tau) for m in masses]
        return lp.ParticleSystem.from_pairs(masses.tolist(), specs)
    if variant == "space_space":
        k, l, g = random_axes(rng)
        gamma_kt = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0))
        specs = [lp.SpaceSpace(kappa_tilde=gamma_kt * m, k=k, l=l, gamma=g) for m in masses]
        return lp.ParticleSystem.from_pairs(masses.tolist(), specs)
    if variant == "miao_type_i":
        k, l, g = random_axes(rng)
        gamma_k = float(rng.uniform(0.5, 3.0))
        gamma_kt = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0))
        specs = [
            lp.MiaoTypeI(kappa=gamma_k * m, kappa_tilde=gamma_kt * m, k=k, l=l, gamma=g)
            for m in masses
        ]
        return lp.ParticleSystem.from_pairs(masses.tolist(), specs)
    if variant == "miao_type_ii":
        k, l, g = random_axes(rng)
        gamma_k = float(rng.uniform(0.5, 3.0))
        gamma_kt = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0))
        kappa_bar = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0))
        specs = [
            lp.MiaoTypeII(
                kappa=gamma_k * m, kappa_tilde=gamma_kt * m, kappa_bar=kappa_bar,
                k=k, l=l, gamma=g,
            )
            for m in masses
        ]
        return lp.ParticleSystem.from_pairs(masses.tolist(), specs)
    if variant == "generalized":
        gamma0 = antisym(rng, (3, 3))
        gamma = antisym(rng, (3, 3, 3))
        gamma_tilde = antisym(rng, (3, 3, 3))
        theta_bar = antisym(rng, (3, 3, 3))
        specs = [
            lp.Generalized(
                theta0=gamma0 / m, theta=gamma / m,
                theta_bar=theta_bar, theta_tilde=gamma_tilde / m,
            )
            for m in masses
        ]
        return lp.ParticleSystem.from_pairs(masses.tolist(), specs)
    raise ValueError(variant)


def polynomial_value_loop(coefficients: dict, x) -> float:
    """V(x) of a Polynomial, one monomial at a time: the reference for the
    vectorised evaluation."""
    x = np.asarray(x, dtype=float)
    return float(
        sum(c * x[0] ** e1 * x[1] ** e2 * x[2] ** e3
            for (e1, e2, e3), c in coefficients.items())
    )


def polynomial_gradient_loop(coefficients: dict, x) -> np.ndarray:
    """grad V(x) of a Polynomial, one monomial and axis at a time."""
    x = np.asarray(x, dtype=float)
    g = np.zeros(3)
    for exps, c in coefficients.items():
        for axis in range(3):
            e = exps[axis]
            if e == 0:
                continue
            term = c * e * x[axis] ** (e - 1)
            for other in range(3):
                if other != axis:
                    term *= x[other] ** exps[other]
            g[axis] += term
    return g


def random_polynomial(rng: np.random.Generator, n_terms: int) -> dict:
    """Coefficients of n_terms random monomials of degree at most 4."""
    coefficients = {}
    while len(coefficients) < n_terms:
        exps = tuple(int(e) for e in rng.integers(0, 5, 3))
        if sum(exps) <= 4:
            coefficients[exps] = float(rng.uniform(-2.0, 2.0))
    return coefficients


def decoupling_check_closures(system, state, potential) -> float:
    """|{Hcom, Hrel}| from hand-written gradients of Hcom and Hrel and the dense
    structure matrix: the reference for ``decoupling_check``.

    Returns the value and the sum of the magnitudes of the terms that make it
    up, which sets the scale of its rounding error where the value cancels to
    zero.

    Hcom = |Pcom|^2 / 2M + M V(Xcom) and
    Hrel = sum_a |dP^(a)|^2 / (2 mu_a m_a) + sum_a |dX^(a)|^2.
    Vanishes (to rounding) for SpaceTime systems under the mass-scaling
    rule, where the COM brackets with all relative variables are zero.
    """
    masses = system.masses
    mu = system.mu
    total_mass = system.total_mass
    n = system.n_particles

    def split(z):
        blocks = z.reshape(-1, 6)
        return blocks[:, :3], blocks[:, 3:]

    def h_com_value(z, t):
        x, p = split(z)
        x_com = mu @ x
        p_com = p.sum(axis=0)
        return float(p_com @ p_com / (2 * total_mass) + total_mass * potential.value(x_com))

    def h_com_gradient(z, t):
        x, p = split(z)
        x_com = mu @ x
        p_com = p.sum(axis=0)
        v = potential.gradient(x_com)
        grad = np.zeros_like(z)
        for a in range(n):
            grad[6 * a : 6 * a + 3] = total_mass * mu[a] * v
            grad[6 * a + 3 : 6 * a + 6] = p_com / total_mass
        return grad

    def h_rel_value(z, t):
        x, p = split(z)
        x_com = mu @ x
        p_com = p.sum(axis=0)
        dx = x - x_com
        dp = p - np.outer(mu, p_com)
        kinetic = sum(dp[a] @ dp[a] / (2 * mu[a] * masses[a]) for a in range(n))
        return float(kinetic + np.sum(dx * dx))

    def h_rel_gradient(z, t):
        x, p = split(z)
        x_com = mu @ x
        p_com = p.sum(axis=0)
        dx = x - x_com
        dp = p - np.outer(mu, p_com)
        grad = np.zeros_like(z)
        c = dp / (mu * masses)[:, None]  # dHrel/d(dP^a)
        sum_c_mu = np.einsum("a,ai->i", mu, c)
        sum_dx = dx.sum(axis=0)
        for a in range(n):
            grad[6 * a : 6 * a + 3] = 2.0 * dx[a] - 2.0 * mu[a] * sum_dx
            grad[6 * a + 3 : 6 * a + 6] = c[a] - sum_c_mu
        return grad

    h_com = obs.Observable(h_com_value, h_com_gradient, label="Hcom")
    h_rel = obs.Observable(h_rel_value, h_rel_gradient, label="Hrel")
    z = state.flatten()
    j = lp.structure_matrix(system.lowered, state).matrix
    g_com, g_rel = h_com.gradient(z, state.t), h_rel.gradient(z, state.t)
    return float(abs(g_com @ j @ g_rel)), float(np.abs(g_com) @ np.abs(j) @ np.abs(g_rel))


def com_frame_loops(mu) -> np.ndarray:
    """The COM frame W from per-particle weight loops, one row per observable
    in the order Xcom_i, Pcom_i, dX_i[a], dP_i[a]: the reference for
    ``observables.com_frame``."""
    mu = np.asarray(mu, dtype=float)
    n = len(mu)
    axes = (1, 2, 3)
    rows = []
    for axis in axes:
        w = np.zeros(6 * n)
        for a, mu_a in enumerate(mu):
            w[obs.coordinate_slot(a, axis)] = mu_a
        rows.append(w)
    for axis in axes:
        w = np.zeros(6 * n)
        for a in range(n):
            w[obs.momentum_slot(a, axis)] = 1.0
        rows.append(w)
    for particle in range(n):
        for axis in axes:
            w = np.zeros(6 * n)
            for b, mu_b in enumerate(mu):
                w[obs.coordinate_slot(b, axis)] = -mu_b
            w[obs.coordinate_slot(particle, axis)] += 1.0
            rows.append(w)
    for particle in range(n):
        mu_a = float(mu[particle])
        for axis in axes:
            w = np.zeros(6 * n)
            for b in range(n):
                w[obs.momentum_slot(b, axis)] = -mu_a
            w[obs.momentum_slot(particle, axis)] += 1.0
            rows.append(w)
    return np.stack(rows)


def write_csv_cells(trajectory, fh, include_reduced_momentum: bool = False) -> None:
    """Trajectory CSV written one f-string per cell, with a slice and a
    division per particle per row: the reference for ``Trajectory.write_csv``."""
    n = trajectory.n_particles
    suffix = (lambda a: f"[{a}]") if n > 1 else (lambda a: "")
    header = ["t"]
    for a in range(n):
        header += [f"{c}{suffix(a)}" for c in ("X1", "X2", "X3", "P1", "P2", "P3")]
    if include_reduced_momentum:
        for a in range(n):
            header += [f"Pr{i}{suffix(a)}" for i in (1, 2, 3)]
    fh.write(",".join(header) + "\n")
    for row_idx in range(len(trajectory.times)):
        cells = [f"{trajectory.times[row_idx]:.17g}"]
        cells += [f"{v:.17g}" for v in trajectory.states[row_idx]]
        if include_reduced_momentum:
            for a in range(n):
                pr = trajectory.states[row_idx, 6 * a + 3 : 6 * a + 6] / trajectory.masses[a]
                cells += [f"{v:.17g}" for v in pr]
        fh.write(",".join(cells) + "\n")


def lower_via_generalized(specs) -> tuple[np.ndarray, np.ndarray]:
    """The time and slope stacks built from each spec's validated
    ``as_generalized`` encoding: the reference for ``algebra.lower``."""
    gens = [lp.as_generalized(s) for s in specs]
    time = np.zeros((len(gens), 6, 6))
    slope = np.zeros((len(gens), 6, 6, 6))
    for a, g in enumerate(gens):
        time[a, :3, :3] = g.theta0
        slope[a, :3, :3, :3] = g.theta
        slope[a, :3, :3, 3:] = g.theta_bar
        slope[a, 3:, :3, 3:] = g.theta_tilde
    slope[..., 3:, :3] = -np.swapaxes(slope[..., :3, 3:], -1, -2)
    return time, slope


def count_kernel_calls(monkeypatch) -> list:
    """Record each call of ``dynamics._integrate_flat`` in the returned list."""
    calls = []
    kernel = dynamics._integrate_flat

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(dynamics, "_integrate_flat", counted)
    return calls


def integrate_flat_reference(masses, lowered, potential, z0, t0, dt, n_steps):
    """Classical fixed-step RK4 with fresh arrays for every stage and every
    step, each expression written out: the reference for
    ``dynamics._integrate_flat``."""
    rhs = dynamics._rhs_flat
    times = t0 + dt * np.arange(n_steps + 1)
    states = np.empty((n_steps + 1, z0.size))
    states[0] = z0
    z = z0.astype(float).copy()
    half = dt / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(n_steps):
            t = times[step]
            try:
                k1 = rhs(masses, lowered, potential, z, t)
                k2 = rhs(masses, lowered, potential, z + half * k1, t + half)
                k3 = rhs(masses, lowered, potential, z + half * k2, t + half)
                k4 = rhs(masses, lowered, potential, z + dt * k3, t + dt)
            except lp.PotentialSingularityError as exc:
                where = "" if exc.index is None else f" for particle {exc.index}"
                raise lp.PotentialSingularityError(
                    f"singularity encountered at step {step} (t = {t:.6g}){where}: {exc}",
                    index=exc.index,
                ) from exc
            z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(z)):
                particle = int(np.argmin(np.isfinite(z.reshape(-1, 6)).all(axis=1)))
                raise lp.NonFiniteStateError(
                    f"non-finite state of particle {particle} after step {step} "
                    f"(t = {t + dt:.6g})",
                    step=step,
                    time=float(t + dt),
                    particle=particle,
                )
            states[step + 1] = z
    return times, states
