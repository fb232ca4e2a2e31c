"""Command-line driver: configuration, pipeline orchestration, reports.

Configuration comes from an optional JSON file with CLI overrides on
top (CLI > file > defaults).  All randomness flows from one seeded
generator recorded in the report; reports are written atomically and
are byte-identical across reruns up to the timestamp field.
"""

from __future__ import annotations

import datetime
import json
import os
import sys
import tempfile
from pathlib import Path

import click
import numpy as np

from . import analysis, covering, dec, geometry, local_solver, rsm

DEFAULTS = {
    "mesh": {"kind": "flat_torus", "resolution": 16, "distortion": 0.0,
             "path": None},
    "epsilon": 0.1,
    "divisor": 120.0,
    "r": 1.5,
    "s": 2.0,
    "k": None,
    "weight_power": 0,
    "degrees": [1],
    "harmonic_tol": 1e-8,
    "num_forms": 3,
    "seed": 1234,
    "bounded_radius": None,
    "neumann_series": False,
    "d_dstar": False,
    "out_dir": "runs",
}


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


# the test each config value must pass, and its wording; mesh first, so
# that the mesh keys are looked up in an object
_VALID = {
    "mesh": (lambda x: isinstance(x, dict), "an object"),
    "epsilon": (lambda x: _is_real(x) and 0 < x < 1, "a number in (0, 1)"),
    "divisor": (lambda x: _is_real(x) and x >= 8, "a number >= 8"),
    "r": (lambda x: _is_real(x) and 1 < x <= 2, "a number in (1, 2]"),
    "s": (_is_real, "a number"),
    "k": (lambda x: x is None or _is_count(x), "null or an integer >= 0"),
    "weight_power": (lambda x: _is_real(x) and x >= 0, "a number >= 0"),
    "degrees": (lambda x: isinstance(x, list) and all(map(_is_count, x)),
                "a list of integers >= 0"),
    "harmonic_tol": (lambda x: _is_real(x) and x >= 0, "a number >= 0"),
    "num_forms": (_is_count, "an integer >= 0"),
    "seed": (_is_count, "an integer >= 0"),
    "bounded_radius": (lambda x: x is None or isinstance(x, bool),
                       "null, true or false"),
    "neumann_series": (lambda x: isinstance(x, bool), "true or false"),
    "d_dstar": (lambda x: isinstance(x, bool), "true or false"),
    "out_dir": (lambda x: isinstance(x, str), "a string"),
    "mesh.kind": (lambda x: isinstance(x, str), "a string"),
    "mesh.resolution": (_is_count, "an integer >= 0"),
    "mesh.distortion": (lambda x: _is_real(x) and x >= 0, "a number >= 0"),
    "mesh.path": (lambda x: x is None or isinstance(x, str),
                  "null or a string"),
}


def load_config(path, **overrides) -> dict:
    """DEFAULTS updated by the JSON object at path, then by the overrides
    that are not None; a usage error for a key DEFAULTS does not hold or
    a value of wrong type or range."""
    cfg = json.loads(json.dumps(DEFAULTS))  # deep copy
    if path:
        try:
            with open(path) as f:
                user = json.load(f)
        except OSError as e:
            raise click.UsageError(f"cannot read config: {e}")
        except json.JSONDecodeError as e:
            raise click.UsageError(f"config is not valid JSON: {e}")
        if not isinstance(user, dict):
            raise click.UsageError("config must be a JSON object")
        for key, val in user.items():
            if key not in cfg:
                raise click.UsageError(f"unknown config key {key}")
            if key == "mesh" and isinstance(val, dict):
                for name in val:
                    if name not in cfg["mesh"]:
                        raise click.UsageError(
                            f"unknown config key mesh.{name}")
                cfg["mesh"].update(val)
            else:
                cfg[key] = val
    for key, val in overrides.items():
        if val is not None:
            cfg[key] = val
    for key, (test, wanted) in _VALID.items():
        section, _, name = key.rpartition(".")
        value = (cfg[section] if section else cfg)[name]
        if not test(value):
            raise click.UsageError(f"config value {key} must be {wanted}, "
                                   f"got {value!r}")
    if cfg["s"] < cfg["r"]:
        raise click.UsageError("config value s must be >= r")
    return cfg


def atomic_write_json(path, payload) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(payload, f, indent=1, sort_keys=True)
            f.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def build_mesh(cfg) -> geometry.SimplicialManifold:
    """The mesh of cfg; a usage error when it cannot be read or built,
    or when a configured degree exceeds its dimension."""
    mesh = cfg["mesh"]
    try:
        if mesh["path"]:
            m = geometry.load_mesh(mesh["path"])
        elif mesh["kind"] == "flat_torus_3d":
            m = geometry.generate_flat_torus_3d(mesh["resolution"])
        else:
            m = geometry.generate_test_manifold(
                mesh["kind"], mesh["resolution"], mesh["distortion"])
    except (OSError, ValueError) as e:   # MeshError is a ValueError
        raise click.UsageError(f"cannot read mesh: {e}" if mesh["path"]
                               else str(e))
    if max(cfg["degrees"], default=0) > m.n:
        raise click.UsageError(f"config value degrees must lie in "
                               f"[0, {m.n}] on this mesh")
    return m


def build_covering(m, cfg):
    rf = covering.compute_radius_field(m, cfg["epsilon"], cfg["divisor"])
    cov = covering.vitali_cover(m, rf)
    covering.partition_of_unity(m, cov)
    return rf, cov


def load_or_build_covering(m, cfg):
    """(rf, cov) from the covering.json `cover` wrote to out_dir, when its
    key says this program version built it from this mesh, epsilon and
    divisor; a fresh build_covering when the file is missing or cannot be
    read, is unparsable, lacks a field or is keyed to other inputs."""
    key = covering.covering_key(m, cfg["epsilon"], cfg["divisor"])
    try:
        rf, cov, saved = covering.load_covering(
            Path(cfg["out_dir"]) / "covering.json")
    except (OSError, ValueError, LookupError, TypeError):
        # no readable file, unparsable JSON, or JSON without the fields of
        # a covering
        saved = None
    if saved != key:
        return build_covering(m, cfg)
    return rf, cov


class Report:
    def __init__(self, cfg):
        self.payload = {"config": cfg, "checks": []}

    def check(self, name, passed, **details):
        self.payload["checks"].append(
            {"name": name, "passed": bool(passed), "details": details})

    def not_run(self, name, reason):
        """Record a check that was not run: passed is null, and
        all_passed is taken over the checks that ran."""
        self.payload["checks"].append(
            {"name": name, "passed": None, "details": {"not_run": reason}})

    def finish(self, path):
        ok = all(c["passed"] is not False for c in self.payload["checks"])
        self.payload["all_passed"] = ok
        out = dict(self.payload)
        out["timestamp"] = datetime.datetime.now(
            datetime.timezone.utc).isoformat()
        atomic_write_json(path, out)
        return 0 if ok else 1


def _round(x, nd=12):
    if isinstance(x, float):
        return float(f"{x:.{nd}e}")
    return x


class _Commands(click.Group):
    def invoke(self, ctx):
        # a covering or patch the input cannot support, or a path the
        # command cannot create or write, is a usage error (exit 2), not a
        # failed check (exit 1) or a traceback
        try:
            return super().invoke(ctx)
        except (covering.CoverageError, local_solver.PatchError) as e:
            raise click.UsageError(str(e))
        except OSError as e:
            raise click.UsageError(f"cannot use {e.filename}: {e.strerror}")


@click.group(cls=_Commands)
def main():
    """Discrete Hodge-theory toolkit: coverings, raising steps,
    spectral decompositions."""


_config_opt = click.option("--config", "config_path", default=None,
                           type=click.Path(), help="JSON config file")


@main.command()
@_config_opt
@click.option("--kind", default=None)
@click.option("--resolution", type=int, default=None)
@click.option("--distortion", type=float, default=None)
@click.option("--out", "out_path", default=None, type=click.Path())
def generate(config_path, kind, resolution, distortion, out_path):
    """Generate a test mesh and write it as an OFF file."""
    cfg = load_config(config_path)
    for key, val in (("kind", kind), ("resolution", resolution),
                     ("distortion", distortion)):
        if val is not None:
            cfg["mesh"][key] = val
    m = build_mesh(cfg)
    out = out_path or str(Path(cfg["out_dir"]) / "mesh.off")
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    geometry.save_mesh(m, out)
    click.echo(f"wrote {out}: {m.num_vertices} vertices, "
               f"{len(m.oriented_cells)} cells")


@main.command()
@_config_opt
@click.option("--epsilon", type=float, default=None)
@click.option("--divisor", type=float, default=None)
@click.option("--mesh-path", default=None, type=click.Path())
@click.option("--out", "out_path", default=None, type=click.Path())
def cover(config_path, epsilon, divisor, mesh_path, out_path):
    """Compute the admissible covering and partition of unity."""
    cfg = load_config(config_path, epsilon=epsilon, divisor=divisor)
    if mesh_path:
        cfg["mesh"]["path"] = mesh_path
    m = build_mesh(cfg)
    rf, cov = build_covering(m, cfg)
    local_solver.Patches.extract(m, cov)
    bound = covering.overlap_bound(cfg["epsilon"], m.n)
    out = out_path or str(Path(cfg["out_dir"]) / "covering.json")
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    covering.save_covering(cov, out, rf, covering.covering_key(
        m, cfg["epsilon"], cfg["divisor"]))
    click.echo(f"balls: {len(cov)}  T_meas: {cov.overlap_measured}  "
               f"overlap bound: {bound:g}")
    if cov.overlap_measured > bound:
        click.echo("overlap bound violated", err=True)
        sys.exit(1)


@main.command()
@_config_opt
@click.option("--r", "r_", type=float, default=None)
@click.option("--s", "s_", type=float, default=None)
@click.option("--k", "k_", type=int, default=None)
@click.option("--degree", "degrees", type=int, multiple=True)
@click.option("--out-dir", default=None, type=click.Path())
def solve(config_path, r_, s_, k_, degrees, out_dir):
    """Run the raising-steps sweep on seeded random test forms."""
    cfg = load_config(config_path, r=r_, s=s_, k=k_,
                      degrees=list(degrees) or None, out_dir=out_dir)
    m = build_mesh(cfg)
    rf, cov = load_or_build_covering(m, cfg)
    rng = np.random.default_rng(cfg["seed"])
    rep = Report(cfg)
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    for p in cfg["degrees"]:
        om = dec.random_cochain(m, p, rng)
        config = rsm.RsmConfig(cfg["r"], cfg["s"], k=cfg["k"])
        v, om_t, trace = rsm.raising_steps(m, cov, rf, om, config)
        lap = dec.hodge_laplacian(m, p)
        resid = dec.norm_l2(lap(v) - om - om_t) / dec.norm_l2(om)
        rep.check(f"rsm_identity_p{p}", resid <= 1e-10, residual=_round(resid))
        ledger_ok = all(
            sd.ledger[key]["margin"] >= 0
            for sd in trace.steps for key in ("5s4_i", "5s4_ii",
                                              "5s4_iii", "5s6"))
        rep.check(f"rsm_ledger_p{p}", ledger_ok)
        if cfg["neumann_series"]:
            patch = rsm.cached_patches(m, cov)[0]
            interior = patch.interior[p].indices
            loc = np.zeros(m.num_simplices(p))
            loc[interior] = om.values[interior]
            loc_c = dec.Cochain(m, p, loc)
            ud, _ = local_solver.solve_local_dirichlet(patch, loc_c, cfg["r"])
            un, nd = local_solver.neumann_series_solve(patch, loc_c,
                                                      r=cfg["r"])
            agree = dec.norm_l2(un - ud) / max(dec.norm_l2(ud), 1e-300)
            rep.check(f"neumann_agreement_p{p}",
                      agree <= 1e-8 and nd.eta < 1.0,
                      agreement=_round(agree), eta=_round(nd.eta))
        trace.save_json(out / f"trace_p{p}.json")
        trace.save_csv(out / f"trace_p{p}.csv")
    code = rep.finish(out / "solve_report.json")
    click.echo(f"solve report: {out / 'solve_report.json'}")
    sys.exit(code)


@main.command()
@_config_opt
@click.option("--r", "r_", type=float, default=None)
@click.option("--degree", "degrees", type=int, multiple=True)
@click.option("--harmonic-tol", type=float, default=None)
@click.option("--mode", type=click.Choice(["delta", "d_dstar"]),
              default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out-dir", default=None, type=click.Path())
def decompose(config_path, r_, degrees, harmonic_tol, mode, seed, out_dir):
    """Full decomposition pipeline with pass/fail report."""
    cfg = load_config(config_path, r=r_, harmonic_tol=harmonic_tol,
                      seed=seed, degrees=list(degrees) or None,
                      out_dir=out_dir)
    if mode:
        cfg["d_dstar"] = mode == "d_dstar"
    m = build_mesh(cfg)
    rf, cov = load_or_build_covering(m, cfg)
    rng = np.random.default_rng(cfg["seed"])
    rep = Report(cfg)
    out = Path(cfg["out_dir"])
    dmode = "d_dstar" if cfg["d_dstar"] else "delta"
    for p in cfg["degrees"]:
        sp = analysis.spectrum(m, p, 10, cfg["harmonic_tol"])
        rep.check(f"spectrum_p{p}", not sp.cluster_flag,
                  harmonic_dim=sp.harmonic_dim, gap=_round(sp.gap),
                  cluster_flag=sp.cluster_flag)
        ranks_ok = analysis.rank_identity_check(m, p, sp.harmonic_dim)
        if ranks_ok is None:
            rep.not_run(f"rank_identity_p{p}",
                        f"dense rank of d_1 above {analysis.DENSE_LIMIT} "
                        "edges")
        else:
            rep.check(f"rank_identity_p{p}", ranks_ok)
        if sp.cluster_flag:
            continue
        for i in range(cfg["num_forms"]):
            om = dec.random_cochain(m, p, rng)
            res = analysis.strong_decomposition(m, cov, rf, sp, om,
                                                cfg["r"], mode=dmode)
            orth = max(res.orthogonality.values())
            rep.check(f"strong_p{p}_form{i}",
                      res.residual <= 1e-8 and orth <= 1e-8,
                      residual=_round(res.residual),
                      max_orthogonality=_round(orth))
        # constructed test form Delta psi: harmonic part must vanish
        psi = dec.random_cochain(m, p, rng)
        om = dec.hodge_laplacian(m, p)(psi)
        h = analysis.harmonic_projection(m, sp, om)
        rel = dec.norm_l2(h) / max(dec.norm_l2(om), 1e-300)
        rep.check(f"exact_form_projection_p{p}", rel <= 1e-9,
                  harmonic_norm=_round(rel))
        atomic_write_json(out / f"spectrum_p{p}.json", sp.to_dict())
    code = rep.finish(out / "decompose_report.json")
    click.echo(f"decompose report: {out / 'decompose_report.json'}")
    sys.exit(code)


@main.command()
@_config_opt
@click.option("--r", "r_", type=float, default=None)
@click.option("--degree", "degrees", type=int, multiple=True)
@click.option("--out-dir", default=None, type=click.Path())
def verify(config_path, r_, degrees, out_dir):
    """Run the inequality suite with measured constants."""
    cfg = load_config(config_path, r=r_, degrees=list(degrees) or None,
                      out_dir=out_dir)
    m = build_mesh(cfg)
    rf, cov = load_or_build_covering(m, cfg)
    rng = np.random.default_rng(cfg["seed"])
    rep = Report(cfg)
    out = Path(cfg["out_dir"])

    rep.check("radius_lipschitz",
              len(covering.check_radius_lipschitz(m, rf)) == 0)
    bound = covering.overlap_bound(cfg["epsilon"], m.n)
    rep.check("overlap", cov.overlap_measured <= bound,
              T_meas=cov.overlap_measured, bound=bound)
    sums = np.asarray(cov.chi.sum(axis=1)).ravel()
    rep.check("partition_sums", float(np.abs(sums - 1).max()) <= 1e-12)

    w = covering.weight_from_radius(rf, cfg["weight_power"])
    for p in cfg["degrees"]:
        om = dec.random_cochain(m, p, rng)
        _, _, diag = rsm.rsm_step(m, cov, rf, om, cfg["r"], w)
        for key in ("5s4_i", "5s4_ii", "5s4_iii", "5s6"):
            led = diag.ledger[key]
            rep.check(f"{key}_p{p}", led["margin"] >= 0,
                      lhs=_round(led["lhs"]), rhs=_round(led["rhs"]))
        us = [dec.random_cochain(m, p, rng) for _ in range(10)]
        czi = analysis.weighted_czi_verify(m, cov, rf, us, cfg["r"], w,
                                           classical=cfg["bounded_radius"])
        rep.check(f"czi_p{p}", min(czi["margins"]) >= 0,
                  C1=_round(czi["C1"]), C2=_round(czi["C2"]))
    code = rep.finish(out / "verify_report.json")
    click.echo(f"verify report: {out / 'verify_report.json'}")
    sys.exit(code)


@main.command()
@_config_opt
@click.option("--out-dir", default=None, type=click.Path())
def report(config_path, out_dir):
    """Summarize all reports found in the output directory."""
    cfg = load_config(config_path, out_dir=out_dir)
    out = Path(cfg["out_dir"])
    if not out.is_dir():
        raise click.UsageError(f"no output directory {out}")
    any_fail = False
    found = False
    for path in sorted(out.glob("*_report.json")):
        found = True
        with open(path) as f:
            data = json.load(f)
        ok = data.get("all_passed", False)
        any_fail |= not ok
        click.echo(f"{path.name}: {'PASS' if ok else 'FAIL'} "
                   f"({len(data.get('checks', []))} checks)")
        for c in data.get("checks", []):
            if c["passed"] is None:
                click.echo(f"  NOT RUN {c['name']}: {c['details']}")
            elif not c["passed"]:
                click.echo(f"  FAILED {c['name']}: {c['details']}")
    if not found:
        click.echo("no reports found")
    sys.exit(1 if any_fail else 0)


if __name__ == "__main__":
    main()
