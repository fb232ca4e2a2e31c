"""The benchmark's workloads and the output checks made on them.

Every workload uses degree p = 1, epsilon = 0.1 and r = 1.5.  The
meshes are deterministic; the seed drives only the random test forms
and the CLI `seed`.  Each timed call into the program goes through
`Run.op`, each output check through `Run.check`; the checks run with
the tracer off, outside every timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
from pathlib import Path

import numpy as np

from harness import (Ledger, Tracer, exit_code, median_pass,
                     median_with_count)
from reference import reference_seconds
from hodge_rsm import analysis, cli, covering, dec, geometry, rsm

EPS, R, K, DEGREE = 0.1, 1.5, 2, 1
RESIDUAL_TOL = 1e-8
PARTITION_TOL = 1e-12
MIN_PASSES = 3        # samples behind the median of a once-a-pass step


def digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()


class Run:
    """Samples, checks and determinism digests of one benchmark run.

    Every timed call is bracketed by two runs of the reference work
    (`reference.py`).  `samples` keeps each call's seconds, `ref` the
    same calls in reference units: seconds over the mean of the two
    reference times around the call.
    """

    def __init__(self, seed: int, seconds: float, tracer: Tracer):
        self.seed = seed
        self.seconds = seconds
        self.passes = 0
        self.tracer = tracer
        self.ledger = Ledger()
        self.samples: dict[str, list[float]] = {}
        self.ref: dict[str, list[float]] = {}
        self.reference_s: list[float] = []
        self.digests: dict[str, str] = {}

    def op(self, name: str, fn, *args, **kwargs):
        """Timed call into the program; its result, or None if it raised."""
        with self.untraced():
            before = reference_seconds()
        got = self.ledger.call(name, fn, *args, **kwargs)
        with self.untraced():
            after = reference_seconds()
        self.reference_s += [before, after]
        if got is None:
            return None
        out, seconds = got
        self.samples.setdefault(name, []).append(seconds)
        self.ref.setdefault(name, []).append(seconds * 2 / (before + after))
        return out

    def each_pass(self):
        """Pass numbers until `seconds` have gone by since the first
        pass began, and at least MIN_PASSES of them."""
        end = time.perf_counter() + self.seconds
        while self.passes < MIN_PASSES or time.perf_counter() < end:
            yield self.passes
            self.passes += 1

    @contextlib.contextmanager
    def untraced(self):
        was, self.tracer.active = self.tracer.active, False
        try:
            yield
        finally:
            self.tracer.active = was

    def check(self, name: str, ok: bool, detail="") -> bool:
        return self.ledger.check(name, ok, detail)

    def same(self, name: str, value) -> bool:
        """Check that `value` repeats within the run; keep its digest for
        the check across runs at this seed."""
        d = digest(value)
        first = self.digests.setdefault(name, d)
        return self.check(f"{name} repeats within the run", d == first)

    def median(self, name: str, ref: bool = False):
        """(median, sample count) of a kind of call, in seconds or in
        reference units; None if it never ran."""
        vals = (self.ref if ref else self.samples).get(name)
        return median_with_count(vals) if vals else None

    def pass_median(self, steps: dict, ref: bool = False):
        """(value, samples) of one pass with each step at its median;
        `steps` maps a kind of call to how often a pass makes it."""
        return median_pass(self.ref if ref else self.samples, steps)

    def timings(self, setup: str, solve: str, steps: dict) -> dict:
        """The end-to-end timings {name: (value, samples)}, the medians of
        every kind of call in seconds and in reference units, and the
        median of the reference work in seconds."""
        out = {"setup_s": self.median(setup)}
        if not self.ledger.failures:
            out.update(solve_ref=self.median(solve, ref=True),
                       workload_ref=self.pass_median(steps, ref=True),
                       workload_s=self.pass_median(steps))
        for name in self.samples:
            out[f"{name}_median_s"] = self.median(name)
            out[f"{name}_median_ref"] = self.median(name, ref=True)
        out["reference_median_s"] = median_with_count(self.reference_s)
        return out


def check_covering(run: Run, m, cov) -> None:
    counts = cov.membership_counts(m.num_vertices)
    run.check("every vertex covered", counts.min() >= 1,
              f"min membership {counts.min()}")
    bound = covering.overlap_bound(EPS, m.n)
    run.check("overlap within bound", cov.overlap_measured <= bound,
              f"{cov.overlap_measured} > {bound}")
    sums = np.asarray(cov.chi.sum(axis=1)).ravel()
    err = float(np.abs(sums - 1.0).max())
    run.check("partition sums to 1", err <= PARTITION_TOL, f"error {err:.3e}")
    run.same("covering centres", [int(b.center) for b in cov.balls])


def check_residual(run: Run, name: str, m, u, omega) -> None:
    lap = dec.hodge_laplacian(m, omega.degree)
    rel = dec.norm_l2(lap(u) - omega) / dec.norm_l2(omega)
    run.check(f"{name} residual", rel <= RESIDUAL_TOL, f"{rel:.3e}")


def gap_orthogonal_form(m, spec, rng):
    om = dec.random_cochain(m, DEGREE, rng)
    om = om - analysis.harmonic_projection(m, spec, om)
    # second pass removes the roundoff the first one leaves
    return om - analysis.harmonic_projection(m, spec, om)


def _setup(make_mesh):
    m = make_mesh()
    rf = covering.compute_radius_field(m, EPS)
    cov = covering.vitali_cover(m, rf)
    covering.partition_of_unity(m, cov)
    rsm.cached_patches(m, cov)
    return m, rf, cov


def library(run: Run, make_mesh, n_forward: int, n_dual: int) -> dict:
    """Passes, each: set-up, spectrum, then a forward solve on
    each of n_forward seeded forms and an adjoint solve on the first
    n_dual of them.  The first forward solve of a pass pays the lazy
    patch build.

    Returns the end-to-end timings as {name: (value, samples)}.
    """
    rng = np.random.default_rng(run.seed)
    for _ in run.each_pass():
        got = run.op("setup", _setup, make_mesh)
        if got is None:
            return {}
        m, rf, cov = got
        with run.untraced():
            check_covering(run, m, cov)
        spec = run.op("spectrum", analysis.spectrum, m, DEGREE)
        if spec is None:
            return {}
        for i in range(max(n_forward, n_dual)):
            with run.untraced():
                om = gap_orthogonal_form(m, spec, rng)
            if i < n_forward:
                got = run.op("first_solve" if i == 0 else "solve",
                             analysis.poisson_solve, m, cov, rf, spec, om, R,
                             k=K)
                if got is not None:
                    with run.untraced():
                        check_residual(run, "forward", m, got[0], om)
            if i < n_dual:
                got = run.op("dual_solve", analysis.dual_poisson_solve, m,
                             cov, rf, spec, om, R, k=K)
                if got is not None:
                    with run.untraced():
                        check_residual(run, "adjoint", m, got[0], om)

    return run.timings("setup", "solve",
                       {"setup": 1, "spectrum": 1, "first_solve": 1,
                        "solve": n_forward - 1, "dual_solve": n_dual})


def _cli(argv: list[str]):
    """Exit code and captured output of one in-process CLI command."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = exit_code(cli.main, argv)
    return code, buf.getvalue()


def cli_pipeline(run: Run, name: str, mesh: dict) -> dict:
    """Passes of `cover`, `solve`, `decompose`, `verify` and
    `report` through the click entry point.  Every command after `cover`
    builds its own mesh and covering.

    The working directory is the same on every pass and run, because the
    reports record it and must repeat byte for byte.
    """
    work = Path("perfbench", "out", name)
    cfg = {"mesh": mesh, "epsilon": EPS, "r": R, "degrees": [DEGREE],
           "seed": run.seed, "out_dir": str(work)}
    args = ["--config", str(work / "config.json")]

    def command(cmd: str, sample: str) -> bool:
        got = run.op(sample, _cli, [cmd, *args])
        if got is None:
            return False
        code, text = got
        return run.check(f"cli {cmd} exit code", code == 0,
                         f"exit {code}: {text[-2000:]}")

    for _ in run.each_pass():
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        (work / "config.json").write_text(json.dumps(cfg, indent=1))
        if command("cover", "setup"):
            run.same("covering.json",
                     json.loads((work / "covering.json").read_text()))
        for cmd in ("solve", "decompose", "verify", "report"):
            command(cmd, cmd)
        for cmd in ("solve", "decompose", "verify"):
            path = work / f"{cmd}_report.json"
            if not run.check(f"{cmd} report written", path.is_file()):
                continue
            payload = json.loads(path.read_text())
            run.check(f"{cmd} report all_passed",
                      payload.get("all_passed") is True,
                      [c["name"] for c in payload.get("checks", [])
                       if not c["passed"]])
            payload.pop("timestamp", None)
            run.same(f"{cmd} report", payload)
    shutil.rmtree(work, ignore_errors=True)

    return run.timings("setup", "solve",
                       {"setup": 1, "solve": 1, "decompose": 1, "verify": 1,
                        "report": 1})


def _cli_torus12(run):
    return cli_pipeline(run, "cli_torus12",
                        {"kind": "flat_torus", "resolution": 12,
                         "distortion": 0.0, "path": None})


def _solve_bumpy16(run):
    return library(run, lambda: geometry.generate_test_manifold(
        "bumpy_torus", 16, 0.3), 3, 2)


WORKLOADS = {
    "cli_torus12": _cli_torus12,
    "solve_bumpy16": _solve_bumpy16,
}

# What each end-to-end metric times on the CLI workload.
CLI_MEANING = {
    "setup_s": "median wall time of the `cover` command",
    "solve_ref": "median `solve` command in reference units",
    "workload_ref": "one pass of the five commands, each at its median, "
                    "in reference units",
}
