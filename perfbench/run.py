"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload solve_bumpy16 --seed 1 \
        --seconds 45 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  With `--trace 0` the last line of standard output is a JSON
object holding the end-to-end metrics named in BENCHMARK.json, with
`--trace 1` the per-layer metrics of a separate traced run.  Results,
trace files and the state kept across runs go to `perfbench/out/`.
`--workload all` runs every workload at the seed, each in its own
process, and prints one row per workload.  The exit code is 0 only if
every operation and output check succeeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

# BLAS and OpenMP pools are fixed before numpy is first imported.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
sys.path[:0] = [str(BENCH_DIR), str(SRC)]

from harness import Tracer  # noqa: E402


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(BENCH_DIR.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def run_record(args, sha: str) -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "git_commit": git_commit(), "source_sha256": sha,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "platform": platform.platform()}


def write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(obj, indent=1, default=float))
    os.replace(tmp, path)


def across_runs(run, kind: str, key: str, current: dict) -> None:
    """Compare `current` with what an earlier run stored under `key`."""
    path = OUT / "state.json"
    state = json.loads(path.read_text()) if path.is_file() else {}
    stored = state.setdefault(kind, {}).setdefault(key, {})
    for name, value in current.items():
        if name in stored:
            run.check(f"{name} repeats across runs ({kind})",
                      stored[name] == value, f"{value} != {stored[name]}")
        else:
            stored[name] = value
    write_json(path, state)


def load_benchmark() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def run_one(args, bench: dict) -> int:
    if not (SRC / "hodge_rsm" / "__init__.py").is_file():
        fail(f"no program source under {SRC}")
    import hodge_rsm
    if Path(hodge_rsm.__file__).resolve().parent != SRC / "hodge_rsm":
        fail(f"hodge_rsm imported from {hodge_rsm.__file__}, not {SRC}")
    import layers
    import workloads

    sha = src_digest()
    tracer = Tracer()
    run = workloads.Run(args.seed, args.seconds, tracer)
    rebinder = None
    if args.trace:
        rebinder, missing = layers.install(tracer)
        tracer.active = True
    t0 = time.perf_counter()
    try:
        timings = workloads.WORKLOADS[args.workload](run)
    finally:
        tracer.active = False
        if rebinder is not None:
            rebinder.restore()
    wall = time.perf_counter() - t0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tag = f"{args.workload}-seed{args.seed}"
    across_runs(run, "digests", f"{tag}/{sha}", run.digests)
    result = {"workload": args.workload, "record": run_record(args, sha),
              "run_wall_s": wall, "passes": run.passes,
              "sample_values": run.samples, "sample_refs": run.ref,
              "reference_s": run.reference_s}
    if args.trace:
        metrics, bases = layers.layer_metrics(tracer, run.passes)
        exact = {k: metrics[k] for k in layers.EXACT}
        across_runs(run, "exact_counts",
                    f"{args.workload}/{sha}", exact)
        untraced_path = OUT / f"{tag}-trace0.json"
        overhead = {}
        if untraced_path.is_file() and "workload_ref" in timings:
            before = json.loads(untraced_path.read_text())
            if before["record"]["source_sha256"] == sha:
                for name in ("workload_ref", "workload_s"):
                    overhead[name] = (timings[name][0]
                                      - before["timings"][name][0])
        trace_path = OUT / f"{tag}.trace.json"
        write_json(trace_path, {"columns": ["id", "parent", "name", "start",
                                            "end"],
                                "spans": tracer.spans})
        result.update(per_layer=metrics, bases=bases,
                      exact=list(layers.EXACT), untraced_names=missing,
                      timings=timings, tracing_overhead=overhead,
                      trace_file=str(trace_path))
        wanted = bench["per_layer"]
        values = {m["name"]: (metrics.get(m["name"]), None) for m in wanted}
    else:
        timings["peak_rss_mb"] = (peak_mb, 1)
        wanted = bench["end_to_end"]
        values = {m["name"]: timings.get(m["name"]) or (None, 0)
                  for m in wanted}
        result["timings"] = timings
        if args.workload == "cli_torus12":
            result["meaning"] = workloads.CLI_MEANING

    ledger = run.ledger
    correct = not ledger.failures and all(v[0] is not None
                                          for v in values.values())
    out_metrics = {m["name"]: {"value": values[m["name"]][0],
                               "unit": m["unit"]} for m in wanted}
    result.update(correct=correct, attempted=ledger.attempted,
                  failed=ledger.failed, failed_share=ledger.failed_share,
                  failures=ledger.failures, metrics=out_metrics,
                  sample_counts={k: v[1] for k, v in values.items()})
    write_json(OUT / f"{tag}-trace{args.trace}.json", result)

    for failure in ledger.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed} "
          f"{'traced' if args.trace else 'untraced'}: "
          f"{ledger.attempted} operations, {ledger.failed} failed "
          f"(failed_share {ledger.failed_share:.4g})")
    for name, m in out_metrics.items():
        n = values[name][1]
        shown = "missing" if m["value"] is None else f"{m['value']:.6g}"
        print(f"#   {name:40s} {shown:>14s} {m['unit']}"
              + (f"  ({n} samples)" if n and n > 1 else ""))
    for name, delta in result.get("tracing_overhead", {}).items():
        print(f"#   tracing overhead {delta:+.4g} on {name}")
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": out_metrics}))
    return 0 if correct else 1


def run_all(args, bench: dict) -> int:
    """Every workload at one seed, each in its own process."""
    names = [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"]]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    print("workload".ljust(18) + "".join(f"{m} [{units[m]}]".rjust(24)
                                         for m in metrics)
          + "failed_share".rjust(14))
    status = 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "0"], capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        try:
            res = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})")
            status = 1
            continue
        cells = "".join(
            f"{res['metrics'][m]['value']:.6g}".rjust(24)
            if res["metrics"][m]["value"] is not None else "missing".rjust(24)
            for m in metrics)
        share = res["failed"] / res["attempted"]
        print(name.ljust(18) + cells + f"{share:.4g}".rjust(14))
        if proc.returncode != 0 or not res["correct"]:
            status = 1
    return status


def main() -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args, bench)
    return run_one(args, bench)


if __name__ == "__main__":
    sys.exit(main())
