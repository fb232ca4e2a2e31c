"""Discrete Hodge theory on triangulated closed manifolds.

Admissible-ball coverings, partition-of-unity Poisson gluing (the
raising-steps iteration), spectral-gap Hodge decompositions, and
weighted Calderon-Zygmund verification, with a CLI for reproducible
report generation.
"""

__version__ = "0.1.0"

from .geometry import (SimplicialManifold, MeshError, generate_test_manifold,
                       generate_flat_torus_3d, load_mesh, save_mesh)
from .dec import (Cochain, FormOperator, NormSpec, exterior_derivative,
                  codifferential, hodge_laplacian, lr_norm, sobolev_norm,
                  sobolev_exponent)
from .covering import (RadiusField, AdmissibleCovering, WeightField,
                       compute_radius_field, vitali_cover, overlap_bound,
                       partition_of_unity, weight_from_radius)
from .rsm import (RsmConfig, RsmTrace, raising_steps, rsm_step,
                  threshold_steps)
from .analysis import (SpectrumReport, HodgeDecompositionResult, spectrum,
                       harmonic_projection, gap_solve, poisson_solve,
                       dual_poisson_solve, strong_decomposition,
                       weak_decomposition)
