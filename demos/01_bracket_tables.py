#!/usr/bin/env python3
"""Tour of the bracket algebras: structure matrices, Jacobi checks, encodings.

Walks through each deformation variant, prints the nonzero entries of its
structure matrix at a sample phase point, verifies the Jacobi identity
numerically, and shows that the free-tensor encoding reproduces each named
table entry for entry.
"""

import numpy as np

import liephase as lp

np.set_printoptions(precision=4, suppress=True)

LABELS = ["X1", "X2", "X3", "P1", "P2", "P3"]


def show_nonzero(title, spec, state):
    j = lp.structure_matrix([spec], state)[0]  # the one particle's 6x6 block
    print(f"\n--- {title} ---")
    print(f"    at X = {state.x[0]}, P = {state.p[0]}, t = {state.t}")
    for a in range(6):
        for b in range(a + 1, 6):
            if j[a, b] != 0.0:
                print(f"    {{{LABELS[a]},{LABELS[b]}}} = {j[a, b]:+.4f}")
    residual = lp.jacobi_residual([spec], state)
    print(f"    Jacobi residual: {residual:.2e}")
    encoded = lp.structure_matrix([lp.as_generalized(spec)], state)[0]
    print(f"    tensor-encoding mismatch: {np.max(np.abs(j - encoded)):.1e}")


state = lp.PhaseState(x=[[5.0, 7.0, 0.5]], p=[[1.0, 1.0, 1.0]], t=2.0)

show_nonzero("canonical (undeformed)", lp.Canonical(), state)
show_nonzero("coordinates close on time (kappa = 4, axes 1-2)",
             lp.SpaceTime(kappa=4.0, rho=1, tau=2), state)
show_nonzero("coordinates close on a coordinate (kappa_tilde = 2)",
             lp.SpaceSpace(kappa_tilde=2.0, k=1, l=2, gamma=3), state)
show_nonzero("combined type I (kappa = 1, kappa_tilde = 2)",
             lp.MiaoTypeI(kappa=1.0, kappa_tilde=2.0), state)
show_nonzero("combined type II (adds kappa_bar = 1.5)",
             lp.MiaoTypeII(kappa=1.0, kappa_tilde=2.0, kappa_bar=1.5), state)

print("\n--- an unconstrained tensor choice breaks the Jacobi identity ---")
theta = np.zeros((3, 3, 3))
theta[0, 1, 2], theta[0, 2, 1] = 1.0, -1.0
theta_bar = np.zeros((3, 3, 3))
theta_bar[1, 0, 2], theta_bar[1, 2, 0] = 1.0, -1.0
loose = lp.Generalized(theta=theta, theta_bar=theta_bar)
probe = lp.PhaseState(x=[[1, 1, 1]], p=[[1, 1, 1]], t=1.0)
print(f"    residual = {lp.jacobi_residual([loose], probe):.3f}  (far from zero)")

print("\n--- brackets of arbitrary observables via the chain rule ---")
from liephase import observables as obs

spec = lp.SpaceTime(kappa=1.0, rho=1, tau=2)
probe = lp.PhaseState(x=[[0, 0, 0]], p=[[0, 0, 0]], t=3.0)
f = obs.coordinate(0, 1) + obs.coordinate(0, 2)
g = obs.coordinate(0, 2)
print(f"    {{X1 + X2, X2}} at t = 3: {lp.bracket(f, g, [spec], probe):+.4f} "
      "(equals {X1, X2} = t/kappa by bilinearity)")
