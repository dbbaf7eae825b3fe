"""Classical mechanics on Lie-algebraic noncommutative phase spaces.

The package evaluates deformed Poisson brackets through position- and
time-dependent structure matrices, composes many-particle systems into
center-of-mass and relative variables, computes the effective deformation
parameters of composite bodies, integrates motion in gravitational fields,
and quantifies weak-equivalence-principle violation and recovery under
mass-scaled deformation parameters.
"""

from .algebra import (
    AlgebraSpec,
    Canonical,
    Generalized,
    MiaoTypeI,
    MiaoTypeII,
    PhaseState,
    SpaceSpace,
    SpaceTime,
    StructureMatrix,
    as_generalized,
    bracket,
    jacobi_residual,
    structure_matrix,
)
from .composition import (
    ComBracketReport,
    ComVariables,
    MassScalingRule,
    Particle,
    ParticleSystem,
    ReproductionCheck,
    ScalingCheck,
    com_bracket_report,
    com_relative_coupling,
    com_transform,
    effective_parameters,
    reproduction_check,
    satisfies_mass_scaling,
)
from .dynamics import (
    GravityScenario,
    Newtonian,
    PairDeviation,
    Polynomial,
    Potential,
    Trajectory,
    Uniform,
    WepReport,
    body_com_rhs,
    closed_form_rhs,
    decoupling_check,
    eom_rhs,
    hamiltonian,
    integrate,
    wep_deviation,
)
from .errors import (
    GridError,
    NonFiniteStateError,
    PotentialSingularityError,
    ScalingRequiredError,
)
from . import observables

__version__ = "0.1.0"

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
    "structure_matrix",
    "as_generalized",
    "bracket",
    "jacobi_residual",
    "Particle",
    "ParticleSystem",
    "ComVariables",
    "ComBracketReport",
    "MassScalingRule",
    "ScalingCheck",
    "ReproductionCheck",
    "com_transform",
    "com_bracket_report",
    "effective_parameters",
    "satisfies_mass_scaling",
    "reproduction_check",
    "com_relative_coupling",
    "Potential",
    "Uniform",
    "Newtonian",
    "Polynomial",
    "GravityScenario",
    "Trajectory",
    "WepReport",
    "PairDeviation",
    "eom_rhs",
    "closed_form_rhs",
    "integrate",
    "wep_deviation",
    "body_com_rhs",
    "decoupling_check",
    "hamiltonian",
    "observables",
    "ScalingRequiredError",
    "PotentialSingularityError",
    "GridError",
    "NonFiniteStateError",
    "__version__",
]
