"""Numerical engine for spatio-temporal visual processing on the
position-time-orientation-velocity manifold: Gabor energy lifting,
stochastic connectivity kernels, and facilitated population activity."""

from .gabor import (
    GaborBank,
    LiftedActivity,
    ManifoldGrid,
    StimulusVolume,
    energy_filter,
    scales_from_frequency,
    sigmoid,
    threshold_activity,
)
from .kernels import (
    KernelGrid,
    KernelLattice,
    SdeSpec,
    contour_lattice,
    estimate_kernel,
    fp_reference,
    kernel_lookup,
    trajectory_lattice,
)
from .population import (
    activity_steady,
    facilitate,
    facilitate_reference,
    facilitation_difference,
)
from .stimuli import (
    CircleStimulusSpec,
    TrajectoryStimulusSpec,
    dashed_circle,
    occluded_trajectory,
    plane_wave,
    translating_bar,
)

__version__ = "0.1.0"
