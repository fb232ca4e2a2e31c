"""Discrete Hodge theory on triangulated closed manifolds.

Admissible-ball coverings, partition-of-unity Poisson gluing (the
raising-steps iteration), spectral-gap Hodge decompositions, and
weighted Calderon-Zygmund verification, with a CLI for reproducible
report generation.
"""

import importlib

__version__ = "0.1.0"

# each public name and the module that defines it, imported on first
# use (module __getattr__), so that importing the package, or running the
# CLI's `report`, loads no numpy
_EXPORTS = {
    "geometry": ["SimplicialManifold", "MeshError", "generate_test_manifold",
                 "generate_flat_torus_3d", "load_mesh", "save_mesh"],
    "dec": ["Cochain", "FormOperator", "NormSpec", "exterior_derivative",
            "codifferential", "hodge_laplacian", "lr_norm", "sobolev_norm",
            "sobolev_exponent"],
    "covering": ["RadiusField", "AdmissibleCovering", "WeightField",
                 "compute_radius_field", "vitali_cover", "overlap_bound",
                 "partition_of_unity", "weight_from_radius"],
    "rsm": ["RsmConfig", "RsmTrace", "raising_steps", "rsm_step",
            "threshold_steps"],
    "analysis": ["SpectrumReport", "HodgeDecompositionResult", "spectrum",
                 "harmonic_projection", "gap_solve", "poisson_solve",
                 "dual_poisson_solve", "strong_decomposition",
                 "weak_decomposition"],
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
