"""Numerical engine for spatio-temporal visual processing on the
position-time-orientation-velocity manifold: Gabor energy lifting,
stochastic connectivity kernels, and facilitated population activity."""

from .gabor import (
    GaborBank,
    GaborParams,
    LiftedActivity,
    ManifoldGrid,
    StimulusVolume,
    energy_filter,
    gabor_profile,
    lift_surface,
    scales_from_frequency,
    sigmoid,
    threshold_activity,
)
from .geometry import (
    ContourPoint,
    GalileiElement,
    ManifoldPoint,
    compose,
    compose_contour,
    contour_curve,
    embed_galilei,
    galilei_compose,
    inverse_contour,
    left_inverse,
    project_galilei,
    trajectory_curve,
)
from .kernels import (
    KernelGrid,
    KernelLattice,
    SdeSpec,
    contour_lattice,
    estimate_kernel,
    estimate_slice_densities,
    fp_reference,
    kernel_lookup,
    simulate_path,
    trajectory_lattice,
)
from .population import (
    FacilitationConfig,
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
