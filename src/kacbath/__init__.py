"""Kinetic Monte Carlo and verification toolkit for a pair-collision particle
system coupled to a finite heat bath."""

__version__ = "0.1.0"

from .discretize import (
    DiscreteAngleMeasure,
    SphereQuadrature,
    build_discrete_angle_measure,
    build_sphere_quadrature,
    fejer_smooth,
)
from .engine import (
    EnsembleConfig,
    EnsembleResult,
    InitialCondition,
    simulate_ensemble,
    simulate_trajectory,
    trajectory_rng,
)
from .entropy import (
    EntropyEstimate,
    decay_check,
    gaussian_initial_entropy,
    relative_entropy_to_thermal,
)
from .inequalities import (
    BLDatum,
    HeatFlowFunction,
    bl_inequality_check,
    entropic_nelson_check,
    entropy_dual_check,
    heat_flow_monotonicity_check,
    ou_apply,
)
from .model import (
    AngleDistribution,
    GeneratorParams,
    effective_coupling_rate,
)
from .moments import (
    DecayEnvelope,
    MomentPair,
    envelope,
    envelope_poisson_sum,
    propagate_moments,
    sum_rule_constant,
)
from .words import (
    SingularSpectrum,
    build_bl_datum,
    decompose,
    mc_sum_rule,
    sigma_subset_weights,
)
