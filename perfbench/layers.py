"""Outside-in tracing of the seven modules of `hodge_rsm`.

For a traced run, every public name below is rebound to a timing
wrapper in each `hodge_rsm` module that holds it, so calls between
modules and within one module both open a span.  Three owners are not
module-level functions: `Patch.submesh` (a method), `splu` in
`scipy.sparse.linalg` (counts factorisations) and the callbacks of the
CLI commands.  No file of the program is changed.

`layer_metrics` turns the spans and counts of one run into the
per-layer metrics of one pass of the workload.
"""

from __future__ import annotations

import importlib
import statistics
import sys

from harness import Rebinder, Tracer, median_with_count, self_times, timed

LAYERS = ("geometry", "dec", "covering", "local_solver", "rsm", "analysis",
          "cli")

TRACED = {
    "geometry": ["generate_test_manifold", "generate_flat_torus_3d",
                 "ChartFrame", "geodesic_distance", "all_geodesic_distances"],
    "dec": ["exterior_derivative", "codifferential", "hodge_laplacian",
            "stiffness_matrix", "lr_norm", "sobolev_norm", "random_cochain"],
    "covering": ["compute_radius_field", "vitali_cover", "partition_of_unity",
                 "check_radius_lipschitz", "weight_from_radius",
                 "check_weight_relative", "save_covering"],
    "local_solver": ["extract_patch", "solve_local_dirichlet"],
    "rsm": ["cached_patches", "rsm_step", "raising_steps"],
    "analysis": ["spectrum", "harmonic_projection", "gap_solve",
                 "poisson_solve", "pipeline_matrix", "dual_poisson_solve",
                 "strong_decomposition", "rank_identity_check",
                 "weighted_czi_verify"],
    "cli": ["build_mesh", "build_covering"],
}
CLI_COMMANDS = ("cover", "solve", "decompose", "verify", "report")

# Counts per pass that repeat exactly from run to run of one workload.
EXACT = ("covering.balls", "covering.overlap", "geometry.chartframes",
         "local_solver.factorizations", "local_solver.dirichlet_solves",
         "rsm.sweeps", "cli.covering_builds", "geometry.dense_distance_bytes")


def _after_spectrum(tracer, rep, _args):
    analysis = sys.modules["hodge_rsm.analysis"]
    limit = getattr(analysis, "DENSE_LIMIT", 0)
    tracer.record("analysis.harmonic_dim", rep.harmonic_dim)
    tracer.record("analysis.gap", rep.gap)
    tracer.record("analysis.spectrum_dense",
                  int(rep.harmonic_basis.shape[0] <= limit))


AFTER = {
    "geometry.all_geodesic_distances":
        lambda t, out, a: t.record("geometry.distance_vertices", out.shape[0]),
    "covering.compute_radius_field":
        lambda t, out, a: t.record("covering.divisor_effective",
                                   out.divisor_effective),
    "covering.vitali_cover":
        lambda t, out, a: (t.record("covering.balls", len(out)),
                           t.record("covering.overlap",
                                    out.overlap_measured)),
    "local_solver.solve_local_dirichlet":
        lambda t, out, a: t.record("local_solver.unknowns", out[1].unknowns),
    # the patch itself is kept, so an id is never reused within a run
    "local_solver.submesh":
        lambda t, out, a: t.record("local_solver.submesh_patch", a[0]),
    "analysis.spectrum": _after_spectrum,
}


def install(tracer: Tracer) -> tuple[Rebinder, list[str]]:
    """Bind the wrappers; returns the rebinder and the names not found."""
    import scipy.sparse.linalg as spla

    modules = [mod for name, mod in sorted(sys.modules.items())
               if name == "hodge_rsm" or name.startswith("hodge_rsm.")]
    rb = Rebinder()
    missing = []

    def wrap(span, fn):
        return timed(tracer, span, fn, AFTER.get(span))

    for layer, names in TRACED.items():
        mod = importlib.import_module(f"hodge_rsm.{layer}")
        for name in names:
            fn = getattr(mod, name, None)
            if fn is None:
                missing.append(f"{layer}.{name}")
                continue
            rb.everywhere(modules, fn, wrap(f"{layer}.{name}", fn))
    rb.everywhere([spla] + modules, spla.splu,
                  wrap("local_solver.splu", spla.splu))
    local_solver = sys.modules["hodge_rsm.local_solver"]
    rb.attribute(local_solver.Patch, "submesh",
                 wrap("local_solver.submesh", local_solver.Patch.submesh))
    cli = importlib.import_module("hodge_rsm.cli")
    for cmd in CLI_COMMANDS:
        command = getattr(cli, cmd)
        rb.attribute(command, "callback",
                     wrap(f"cli.{cmd}", command.callback))
    return rb, missing


def layer_metrics(tracer: Tracer, passes: int,
                  degrees: int = 1) -> tuple[dict, dict]:
    """(metrics, bases): per-layer metrics, and for each median or ratio
    the sample count or base behind it.  Times and counts summed over
    the run are divided by `passes`, so they hold for one pass whatever
    the run's length."""
    spans = tracer.spans
    own = self_times(spans)
    dur: dict[str, list] = {}
    slf: dict[str, float] = {}
    for sid, _parent, name, start, end in spans:
        dur.setdefault(name, []).append(end - start)
        slf[name] = slf.get(name, 0.0) + own[sid]
    vals = tracer.values

    def total(*names):
        return sum(sum(dur.get(n, ())) for n in names) / passes

    def count(*names):
        return sum(len(dur.get(n, ())) for n in names) / passes

    def last(name, default=0):
        return vals[name][-1] if vals.get(name) else default

    out, bases = {}, {}
    for layer in LAYERS:
        prefix = layer + "."
        out[f"{layer}.self_s"] = sum(v for n, v in slf.items()
                                     if n.startswith(prefix)) / passes
        out[f"{layer}.calls"] = sum(len(v) for n, v in dur.items()
                                    if n.startswith(prefix)) / passes

    out["geometry.generate_s"] = total("geometry.generate_test_manifold",
                                       "geometry.generate_flat_torus_3d")
    out["geometry.chartframe_s"] = total("geometry.ChartFrame")
    out["geometry.chartframes"] = count("geometry.ChartFrame")
    out["geometry.all_distances_s"] = total("geometry.all_geodesic_distances")
    biggest = max(vals.get("geometry.distance_vertices", [0]))
    out["geometry.dense_distance_bytes"] = biggest * biggest * 8

    out["covering.radius_field_s"] = total("covering.compute_radius_field")
    out["covering.vitali_s"] = total("covering.vitali_cover")
    out["covering.partition_s"] = total("covering.partition_of_unity")
    out["covering.lipschitz_s"] = total("covering.check_radius_lipschitz")
    out["covering.balls"] = last("covering.balls")
    out["covering.overlap"] = last("covering.overlap")
    out["covering.divisor_effective"] = last("covering.divisor_effective")

    out["local_solver.extract_patch_s"] = total("local_solver.extract_patch")
    out["local_solver.patches"] = count("local_solver.extract_patch")
    out["local_solver.submesh_s"] = total("local_solver.submesh")
    built = len({id(p) for p in vals.get("local_solver.submesh_patch", ())})
    out["local_solver.submesh_builds"] = built / passes
    out["local_solver.dirichlet_s"] = total(
        "local_solver.solve_local_dirichlet")
    out["local_solver.dirichlet_solves"] = count(
        "local_solver.solve_local_dirichlet")
    out["local_solver.factorizations"] = count("local_solver.splu")
    factorizations = out["local_solver.factorizations"] * passes
    base = built * degrees
    out["local_solver.factorizations_per_patch"] = (
        factorizations / base if base else 0.0)
    bases["local_solver.factorizations_per_patch"] = (
        f"{factorizations:.0f} factorisations / "
        f"({built} patches x {degrees} degree)")
    unknowns = vals.get("local_solver.unknowns", [])
    out["local_solver.unknowns_p50"] = (
        float(statistics.median(unknowns)) if unknowns else 0.0)
    out["local_solver.unknowns_max"] = max(unknowns, default=0)
    bases["local_solver.unknowns_p50"] = len(unknowns)

    sweeps = dur.get("rsm.rsm_step", [])
    out["rsm.sweeps"] = len(sweeps) / passes
    out["rsm.sweep_first_s"] = sweeps[0] if sweeps else 0.0
    later = sweeps[1:] or sweeps
    out["rsm.sweep_p50_s"] = median_with_count(later)[0] if later else 0.0
    bases["rsm.sweep_p50_s"] = len(later)
    out["rsm.sweep_self_s"] = slf.get("rsm.rsm_step", 0.0) / passes

    out["analysis.spectrum_s"] = total("analysis.spectrum")
    out["analysis.spectrum_dense"] = last("analysis.spectrum_dense")
    out["analysis.gap_solve_s"] = total("analysis.gap_solve")
    out["analysis.poisson_self_s"] = (slf.get("analysis.poisson_solve", 0.0)
                                      / passes)
    out["analysis.pipeline_matrix_s"] = total("analysis.pipeline_matrix")
    out["analysis.strong_decomposition_s"] = total(
        "analysis.strong_decomposition")
    out["analysis.rank_identity_s"] = total("analysis.rank_identity_check")
    out["analysis.czi_verify_s"] = total("analysis.weighted_czi_verify")
    out["analysis.harmonic_dim"] = last("analysis.harmonic_dim")
    out["analysis.gap"] = last("analysis.gap", 0.0)

    out["dec.norm_calls"] = count("dec.lr_norm", "dec.sobolev_norm")
    out["dec.norm_s"] = total("dec.lr_norm", "dec.sobolev_norm")

    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}_s"] = total(f"cli.{cmd}")
    out["cli.covering_builds"] = count("cli.build_covering")
    return out, bases
