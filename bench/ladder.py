"""The mesh ladder: wall seconds and peak memory of each pipeline stage.

    python3 bench/ladder.py --out BENCH_29.json
    python3 bench/ladder.py --rungs sphere8 --out /tmp/ladder.json
    python3 bench/ladder.py --parent-src ../parent/src --out BENCH_29.json

Run from the root of a source checkout; the program is imported from
`src/`.  Each rung (a mesh of the ladder) runs the public
stage functions in a fresh subprocess, under a wall cap of CAP_SECONDS
and an address-space cap (RLIMIT_AS) of AS_CAP_BYTES set in the child,
with one BLAS thread, at p = 1, epsilon = 0.1, divisor 120, r = 1.5 and
the constant weight.  The stages, in order: mesh build, radius field,
Vitali cover, partition of unity, covering save and load (a
covering.json in a temporary directory), patch extraction, the first
`rsm_step` (stacking, plans and one step) and a later one, `spectrum`,
and the first `gap_solve` (reusing the spectrum's factor).

A rung whose first run takes under REPEAT_BELOW seconds runs TRIALS
times, and each stage's seconds and the peak RSS are the medians.  Peak
RSS is the child's ru_maxrss, from its own rusage (os.wait4), which is
what RUSAGE_CHILDREN reports for that one child; the child also notes
its ru_maxrss at the end of each stage, the peak RSS through that stage
(stage_peak_rss_mb).  A rung that hits a cap
is recorded as not reached, with the stage it stopped in.  The file also
holds balls, S (the stacked interior p-simplices of the patches) and
S/N, and per family the exponent of each stage in V: the least-squares
slope of log seconds against log V over the measured rungs.

With `--parent-src`, each rung also runs, alternating with its own
trials, the covering stages of the other source tree (the parent
commit, say) up to the last one this tree's run finished, and the file
records that tree's seconds and peak RSS through each of those stages
next to this tree's, under "parent".
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CAP_SECONDS = 300
AS_CAP_BYTES = 3 << 30
REPEAT_BELOW = 60.0
TRIALS = 3
EPS, DIVISOR, R, DEGREE = 0.1, 120.0, 1.5, 1
RUNGS = {
    "torus32": ("flat_torus", 32), "torus64": ("flat_torus", 64),
    "torus128": ("flat_torus", 128), "torus256": ("flat_torus", 256),
    "sphere8": ("sphere", 8), "sphere16": ("sphere", 16),
    "sphere32": ("sphere", 32),
    "3-torus8": ("flat_torus_3d", 8), "3-torus16": ("flat_torus_3d", 16),
    "3-torus32": ("flat_torus_3d", 32),
}
# the stages a comparison with another source tree runs and records
COVERING_STAGES = ("mesh build", "radius field", "Vitali cover",
                   "partition of unity", "covering save", "covering load")


def child(kind: str, resolution: int, progress: str,
          until: str | None) -> None:
    """One rung, in this fresh process under the address-space cap, its
    stages logged to the progress file."""
    resource.setrlimit(resource.RLIMIT_AS, (AS_CAP_BYTES, AS_CAP_BYTES))
    with open(progress, "a") as log:
        run_stages(kind, resolution, until, log)


def run_stages(kind: str, resolution: int, until: str | None,
               log) -> None:
    """Time each stage, writing a JSON line to log per stage start, stage
    end and count; exit after the stage until, if given."""
    import numpy as np
    from hodge_rsm import analysis, covering, dec, geometry, rsm

    def note(**record):
        log.write(json.dumps(record) + "\n")
        log.flush()

    def stage(name, fn, *args):
        note(start=name)
        t = time.perf_counter()
        value = fn(*args)
        note(stage=name, seconds=time.perf_counter() - t,
             rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
             / 1024)
        if name == until:
            sys.exit(0)
        return value

    def build():
        if kind == "flat_torus_3d":
            return geometry.generate_flat_torus_3d(resolution)
        return geometry.generate_test_manifold(kind, resolution)

    m = stage("mesh build", build)
    note(count="V", value=m.num_vertices)
    rf = stage("radius field", covering.compute_radius_field, m, EPS,
               DIVISOR)
    cov = stage("Vitali cover", covering.vitali_cover, m, rf)
    note(count="balls", value=len(cov))
    stage("partition of unity", covering.partition_of_unity, m, cov)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "covering.json")
        stage("covering save", covering.save_covering, cov, path, rf,
              covering.covering_key(m, EPS, DIVISOR))
        stage("covering load", covering.load_covering, path)
    patches = stage("patch extraction", rsm.cached_patches, m, cov)
    S = int(patches.interior[DEGREE].nnz)
    note(count="S", value=S)
    note(count="S/N", value=S / m.num_simplices(DEGREE))
    w = covering.constant_weight(m.num_vertices)
    om = dec.random_cochain(m, DEGREE, np.random.default_rng(1))
    stage("first rsm_step", rsm.rsm_step, m, cov, rf, om, R, w)
    stage("later rsm_step", rsm.rsm_step, m, cov, rf, om, R, w)
    spec = stage("spectrum", analysis.spectrum, m, DEGREE)
    g = om - analysis.harmonic_projection(m, spec, om)
    stage("first gap_solve", analysis.gap_solve, m, spec, g)


def trial(rung: str, src: Path, until: str | None = None) -> dict:
    """One run of a rung in a fresh child, to the stage until if given:
    its stage seconds, counts and peak RSS, and, when it did not finish,
    the stage it stopped in."""
    kind, resolution = RUNGS[rung]
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        progress = os.path.join(tmp, "progress.jsonl")
        args = [sys.executable, __file__, "--child", kind, str(resolution),
                progress] + (["--until", until] if until else [])
        errors = os.path.join(tmp, "stderr.txt")
        t = time.perf_counter()
        with open(errors, "w") as err:
            proc = subprocess.Popen(args, env=env, stdout=subprocess.DEVNULL,
                                    stderr=err)
        # the cap kills by pid, which stays the child's until wait4 reaps
        # it: waitid(WNOWAIT) waits for the exit without reaping, and the
        # timer has finished or been cancelled before wait4 runs
        timer = threading.Timer(CAP_SECONDS, os.kill,
                                (proc.pid, signal.SIGKILL))
        timer.start()
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - t
        error = Path(errors).read_text(errors="replace").strip()
        lines = Path(progress).read_text().splitlines() \
            if os.path.exists(progress) else []
    out = {"stages": {}, "stage_peak_rss_mb": {}, "counts": {},
           "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024}
    current = None
    for rec in map(json.loads, lines):
        if "start" in rec:
            current = rec["start"]
        elif "stage" in rec:
            out["stages"][rec["stage"]] = rec["seconds"]
            out["stage_peak_rss_mb"][rec["stage"]] = rec["rss_mb"]
            current = None
        else:
            out["counts"][rec["count"]] = rec["value"]
    code = os.waitstatus_to_exitcode(status)
    if code:
        out["stopped_in"] = current
        out["reason"] = (f"wall cap {CAP_SECONDS} s" if wall >= CAP_SECONDS
                         else "address-space cap" if "MemoryError" in error
                         else f"exit {code}: {error[-300:]}")
    return out


def median_of(trials: list) -> dict:
    """Per-stage medians of finished trials (seconds and peak RSS through
    the stage), with their counts and median peak RSS."""
    first = trials[0]
    return {"stages": {s: statistics.median(t["stages"][s] for t in trials)
                       for s in first["stages"]},
            "stage_peak_rss_mb": {
                s: statistics.median(t["stage_peak_rss_mb"][s]
                                     for t in trials)
                for s in first["stages"]},
            "counts": first["counts"],
            "peak_rss_mb": statistics.median(t["peak_rss_mb"]
                                             for t in trials),
            "trials": len(trials)}


def run_rung(rung: str, src: Path, parent_src: Path | None) -> dict:
    print(f"{rung} ...", file=sys.stderr, flush=True)
    first = trial(rung, src)
    if "stopped_in" in first:
        rec = {"reached": False, "stopped_in": first["stopped_in"],
               "reason": first["reason"], "stages": first["stages"],
               "stage_peak_rss_mb": first["stage_peak_rss_mb"],
               "counts": first["counts"],
               "peak_rss_mb": first["peak_rss_mb"], "trials": 1}
    else:
        rec = {"reached": True}
    repeat = first["wall_s"] < REPEAT_BELOW
    # the other tree runs to the last covering stage this one finished
    done = [s for s in COVERING_STAGES if s in first["stages"]]
    compare = parent_src is not None and done
    mine, theirs = [first], []
    for i in range(TRIALS if repeat else 1):
        if compare:
            theirs.append(trial(rung, parent_src, until=done[-1]))
        if i and rec["reached"]:
            mine.append(trial(rung, src))
    if rec["reached"]:
        rec.update(median_of(mine))
    if compare:
        finished = [t for t in theirs if "stopped_in" not in t]
        if finished:
            parent = median_of(finished)
            rec["parent"] = {key: parent[key] for key in
                             ("stages", "stage_peak_rss_mb", "trials")}
    print(f"{rung}: {json.dumps(rec)}", file=sys.stderr, flush=True)
    return rec


def exponents(rungs: dict) -> dict:
    """Per family, the least-squares slope of log seconds against log V
    of each stage, over the rungs that measured it (two at least)."""
    out = {}
    for family in ("flat_torus", "sphere", "flat_torus_3d"):
        recs = [rec for name, rec in rungs.items()
                if RUNGS[name][0] == family and "V" in rec["counts"]]
        stages = {s for rec in recs for s in rec["stages"]}
        fits = {}
        for s in sorted(stages):
            pts = [(math.log(rec["counts"]["V"]),
                    math.log(rec["stages"][s])) for rec in recs
                   if rec["stages"].get(s, 0) > 0]
            if len(pts) >= 2:
                mx = statistics.fmean(x for x, _ in pts)
                my = statistics.fmean(y for _, y in pts)
                fits[s] = round(sum((x - mx) * (y - my) for x, y in pts)
                                / sum((x - mx) ** 2 for x, _ in pts), 3)
        out[family] = fits
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rungs", default=",".join(RUNGS),
                    help="comma-separated rungs, of: " + ", ".join(RUNGS))
    ap.add_argument("--parent-src", default=None,
                    help="source tree whose covering stages run "
                         "alongside, for comparison")
    ap.add_argument("--out", help="JSON file to write (required)")
    ap.add_argument("--child", nargs=3, help=argparse.SUPPRESS)
    ap.add_argument("--until", help=argparse.SUPPRESS)
    a = ap.parse_args()
    if a.child:
        kind, resolution, progress = a.child
        child(kind, int(resolution), progress, a.until)
        return
    if not a.out:
        ap.error("--out is required")
    names = a.rungs.split(",")
    unknown = [n for n in names if n not in RUNGS]
    if unknown:
        ap.error(f"unknown rungs {unknown}")
    parent = Path(a.parent_src).resolve() if a.parent_src else None
    rungs = {n: run_rung(n, ROOT / "src", parent) for n in names}
    result = {
        "settings": {"p": DEGREE, "epsilon": EPS, "divisor": DIVISOR,
                     "r": R, "weight": "constant", "blas_threads": 1,
                     "cap_seconds": CAP_SECONDS,
                     "as_cap_bytes": AS_CAP_BYTES,
                     "repeat_below_s": REPEAT_BELOW, "trials": TRIALS},
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "rungs": rungs,
        "exponents": exponents(rungs),
    }
    Path(a.out).write_text(json.dumps(result, indent=1) + "\n")
    missed = [n for n, rec in rungs.items() if not rec["reached"]]
    print(f"wrote {a.out}; not reached: {missed or 'none'}",
          file=sys.stderr)


if __name__ == "__main__":
    main()
