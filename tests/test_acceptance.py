"""Acceptance suite: one criterion per test, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
Heavy artifacts (meshes, coverings, spectra) come from session fixtures;
the per-criterion timings cover the checks themselves.
"""

import json
import time

import numpy as np
import pytest

from hodge_rsm import analysis, covering, dec, rsm

from conftest import (all_geodesic_distances, column, euler_characteristic,
                      harmonic_embedding_check, weak_decomposition_sequence)

RESULTS = {}
LINES = []


def _verdict(num, name, passed, detail=""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(flush=True)
    print(line, flush=True)
    RESULTS[num] = passed
    LINES.append(line)
    assert passed, line


def test_criterion_01_cochain_identities(torus16, sphere16, rng):
    t0 = time.perf_counter()
    worst_adj, worst_ray = 0.0, 0.0
    dd_ok = True
    for m in (torus16, sphere16):
        for p in range(m.n - 1):
            d1 = dec.exterior_derivative(m, p + 1).matrix
            d0 = dec.exterior_derivative(m, p).matrix
            prod = d1 @ d0
            dd_ok &= prod.nnz == 0 or np.all(prod.toarray() == 0)
        for p in range(m.n):
            d = dec.exterior_derivative(m, p)
            ds = dec.codifferential(m, p + 1)
            for _ in range(5):
                u = dec.random_cochain(m, p, rng)
                v = dec.random_cochain(m, p + 1, rng)
                a, b = dec.inner(d(u), v), dec.inner(u, ds(v))
                worst_adj = max(worst_adj,
                                abs(a - b) / max(abs(a), abs(b), 1e-30))
        for p in range(m.n + 1):
            lap = dec.hodge_laplacian(m, p)
            for _ in range(10):
                u = dec.random_cochain(m, p, rng)
                worst_ray = min(worst_ray, dec.inner(lap(u), u))
    dt = time.perf_counter() - t0
    ok = dd_ok and worst_adj <= 1e-12 and worst_ray >= -1e-12 and dt < 1.0
    _verdict(1, "cochain-identities", ok,
             f"dd=0 {dd_ok}, adj {worst_adj:.2e}, rayleigh {worst_ray:.2e}, "
             f"{dt:.2f}s")


def test_criterion_02_covering_soundness(torus16, cover16, torus32, cover32,
                                         bumpy16, cover_bumpy):
    t0 = time.perf_counter()
    ok = True
    details = []
    for m, (rf, cov) in ((torus16, cover16), (torus32, cover32),
                         (bumpy16, cover_bumpy)):
        D = all_geodesic_distances(m)
        cores = rf.core
        disjoint = all(
            D[a.center, b.center] > cores[a.center] + cores[b.center] - 1e-12
            for i, a in enumerate(cov.balls) for b in cov.balls[i + 1:])
        covered = np.zeros(m.num_vertices, dtype=bool)
        for b in cov.balls:
            covered[column(cov.members, b.index)] = True
        bound = covering.overlap_bound(0.1, m.n)
        sums = np.asarray(cov.chi.sum(axis=1)).ravel()
        lip = covering.check_radius_lipschitz(m, rf)
        ok &= (disjoint and covered.all() and cov.overlap_measured <= bound
               and np.abs(sums - 1).max() <= 1e-12 and not lip)
        details.append(f"V={m.num_vertices}:T={cov.overlap_measured}")
    dt = time.perf_counter() - t0
    ok &= dt < 10.0
    _verdict(2, "covering-soundness", ok, ", ".join(details) + f", {dt:.1f}s")


def test_criterion_03_harmonic_dimensions(torus16, sphere16, spec16_p0,
                                          spec16_p1):
    t0 = time.perf_counter()
    dims = {
        ("torus", 0): spec16_p0.harmonic_dim,
        ("torus", 1): spec16_p1.harmonic_dim,
        ("sphere", 0): analysis.spectrum(sphere16, 0, 8).harmonic_dim,
        ("sphere", 1): analysis.spectrum(sphere16, 1, 8).harmonic_dim,
    }
    ok = (dims[("torus", 0)] == 1 and dims[("torus", 1)] == 2
          and dims[("sphere", 0)] == 1 and dims[("sphere", 1)] == 0)
    # dense eigensolve oracle wherever the dense solver fits
    for m, key in ((torus16, ("torus", 0)), (torus16, ("torus", 1)),
                   (sphere16, ("sphere", 0))):
        p = key[1]
        Mw = dec.mass_diagonal(m, p)
        K = dec.stiffness_matrix(m, p).toarray()
        S = K / np.sqrt(Mw)[:, None] / np.sqrt(Mw)[None, :]
        vals = np.linalg.eigvalsh((S + S.T) / 2.0)
        count = int(np.sum(np.abs(vals) < 1e-8 * vals[-1]))
        ok &= count == dims[key]
    # sphere degree 1 exceeds the dense limit: independent topological
    # oracle b1 = b0 + b2 - Euler characteristic
    import scipy.sparse.csgraph as csgraph
    b0 = csgraph.connected_components(sphere16.graph, directed=False)[0]
    b1_top = b0 + b0 - euler_characteristic(sphere16)
    ok &= b1_top == dims[("sphere", 1)] == 0
    dt = time.perf_counter() - t0
    ok &= dt < 30.0
    _verdict(3, "harmonic-dimensions", ok, f"{dims}, {dt:.1f}s")


@pytest.fixture(scope="module")
def rsm_runs(torus16, cover16):
    rf, cov = cover16
    rng = np.random.default_rng(99)
    runs = {0: [], 1: []}
    for p in (0, 1):
        for _ in range(10):
            om = dec.random_cochain(torus16, p, rng)
            out = rsm.raising_steps(torus16, cov, rf, om,
                                    rsm.RsmConfig(1.5, 2.0, k=1))
            runs[p].append((om, *out))
    return runs


def test_criterion_04_rsm_identity(torus16, cover16, rsm_runs):
    rf, cov = cover16
    t0 = time.perf_counter()
    worst_resid, worst_super, worst_margin = 0.0, 0.0, np.inf
    for p in (0, 1):
        lap = dec.hodge_laplacian(torus16, p)
        for om, v, ot, trace in rsm_runs[p]:
            worst_resid = max(worst_resid,
                              dec.norm_l2(lap(v) - om - ot)
                              / dec.norm_l2(om))
            for step in trace.steps:
                for entry in step.ledger.values():
                    if "margin" in entry:
                        worst_margin = min(worst_margin, entry["margin"])
        # superposition over consecutive pairs
        for (o1, v1, t1, _), (o2, v2, t2, _) in zip(rsm_runs[p],
                                                    rsm_runs[p][1:]):
            v12, t12, _ = rsm.raising_steps(torus16, cov, rf, o1 + o2,
                                            rsm.RsmConfig(1.5, 2.0, k=1))
            sc = max(dec.norm_l2(v1), dec.norm_l2(v2))
            worst_super = max(worst_super,
                              dec.norm_l2(v12 - v1 - v2) / sc,
                              dec.norm_l2(t12 - t1 - t2)
                              / max(dec.norm_l2(t1), dec.norm_l2(t2)))
    dt = time.perf_counter() - t0
    ok = (worst_resid <= 1e-10 and worst_super <= 1e-9
          and worst_margin >= 0.0 and dt < 60.0)
    _verdict(4, "rsm-identity-linearity", ok,
             f"resid {worst_resid:.2e}, super {worst_super:.2e}, "
             f"min margin {worst_margin:.2e}, {dt:.1f}s")


def test_criterion_05_route_agreement(torus16, spec16_p0, spec16_p1,
                                      rsm_runs):
    worst = 0.0
    for p, rep in ((0, spec16_p0), (1, spec16_p1)):
        for om, v, ot, _ in rsm_runs[p]:
            h_spec = analysis.harmonic_projection(torus16, rep, om)
            h_rsm = analysis.harmonic_projection(torus16, rep, ot)
            num = dec.norm_l2(h_spec + h_rsm)
            worst = max(worst, num / max(dec.norm_l2(om), 1e-300))
    ok = worst <= 1e-8
    _verdict(5, "projection-route-agreement", ok, f"defect {worst:.2e}")


def test_criterion_06_poisson_solves(torus16, cover16, spec16_p1, rng):
    rf, cov = cover16
    lap = dec.hodge_laplacian(torus16, 1)
    worst_p, worst_d, bound_ok = 0.0, 0.0, True
    for _ in range(5):
        om = lap(dec.random_cochain(torus16, 1, rng))
        u, diags = analysis.poisson_solve(torus16, cov, rf, spec16_p1,
                                          om, 1.5)
        worst_p = max(worst_p, diags["residual"])
        ud, dd = analysis.dual_poisson_solve(torus16, cov, rf, spec16_p1,
                                             om, 1.5)
        worst_d = max(worst_d, dd["residual"])
    for _ in range(20):
        g = dec.random_cochain(torus16, 1, rng)
        try:
            f = analysis.gap_solve(torus16, spec16_p1, g)
        except analysis.AnalysisError:
            bound_ok = False
            break
        bound_ok &= dec.norm_l2(f) <= dec.norm_l2(g) / spec16_p1.gap + 1e-12
    ok = worst_p <= 1e-8 and worst_d <= 1e-8 and bound_ok
    _verdict(6, "poisson-solves", ok,
             f"poisson {worst_p:.2e}, dual {worst_d:.2e}, "
             f"gap bound {bound_ok}")


def test_criterion_07_strong_decomposition(torus16, cover16, spec16_p0,
                                           spec16_p1, rng):
    cov = cover16[1]
    worst_resid, worst_orth = 0.0, 0.0
    for p, rep in ((0, spec16_p0), (1, spec16_p1)):
        for _ in range(3):
            om = dec.random_cochain(torus16, p, rng)
            res = analysis.strong_decomposition(torus16, cov, rep, om,
                                                1.5)
            worst_resid = max(worst_resid, res.residual)
            worst_orth = max(worst_orth, max(res.orthogonality.values()))
    h = dec.Cochain(torus16, 1, spec16_p1.harmonic_basis @ [0.6, -0.8])
    probe = analysis.strong_decomposition(torus16, cov, spec16_p1, h,
                                          1.5)
    unique = dec.norm_l2(probe.harmonic - h)
    ranks = (analysis.rank_identity_check(torus16, 0, 1)
             and analysis.rank_identity_check(torus16, 1, 2)
             and analysis.rank_identity_check(torus16, 2, 1))
    ok = (worst_resid <= 1e-8 and worst_orth <= 1e-8 and unique <= 1e-9
          and ranks)
    _verdict(7, "strong-decomposition", ok,
             f"resid {worst_resid:.2e}, orth {worst_orth:.2e}, "
             f"uniqueness {unique:.2e}, ranks {ranks}")


def test_criterion_08_weak_decomposition(torus16, cover16, spec16_p1, rng):
    cov = cover16[1]
    om = dec.random_cochain(torus16, 1, rng)
    eps0 = 0.5 * dec.norm_l2(om)
    seq = weak_decomposition_sequence(torus16, cov, spec16_p1, om, 1.5,
                                      eps0=eps0, halvings=3)
    es = [r.extras["E_eps"] for r in seq]
    ok = all(b < a for a, b in zip(es, es[1:])) and \
        not any(r.extras.get("monotonicity_flag") for r in seq)
    _verdict(8, "weak-decomposition", ok,
             "E_eps " + " > ".join(f"{e:.3e}" for e in es))


def test_criterion_09_weighted_czi(torus16, cover16, torus32, cover32):
    rng = np.random.default_rng(1234)
    consts, margins = {}, []
    for m, (rf, _) in ((torus16, cover16), (torus32, cover32)):
        w = covering.weight_from_radius(rf, 0)
        us = [dec.random_cochain(m, 1, rng) for _ in range(100)]
        out = analysis.weighted_czi_verify(m, rf, us[:50], 1.5, w)
        held = [analysis.czi_terms(m, rf, u, 1.5, w, out["classical"])
                for u in us[50:]]
        margins.append(min(out["C1"] * t1 + out["C2"] * t2 - lhs
                           for lhs, t1, t2 in held))
        consts[m.num_vertices] = np.array([out["C1"], out["C2"]])
    drift = 0.0
    for a, b in zip(consts[256], consts[1024]):
        if max(a, b) > 0:
            drift = max(drift, abs(a - b) / max(a, b))
    ok = min(margins) >= 0.0 and drift <= 0.50
    if 0.25 < drift <= 0.50:
        import warnings
        warnings.warn(f"CZI constants drift {drift:.1%} between resolutions")
    _verdict(9, "weighted-czi", ok,
             f"held-out margin {min(margins):.3e}, drift {drift:.1%}")


def test_criterion_10_harmonic_embedding(torus16, torus32, spec16_p1,
                                         spec32_p1):
    s2 = harmonic_embedding_check(torus16, spec16_p1, 2.0)
    exact_one = all(r == 1.0 for r in s2["ratios"])
    stable = True
    detail = [("s=2", s2["ratios"])]
    for s in (4.0, 16.0):
        c16 = harmonic_embedding_check(torus16, spec16_p1, s)["C_s"]
        c32 = harmonic_embedding_check(torus32, spec32_p1, s)["C_s"]
        stable &= np.isfinite(c16) and np.isfinite(c32) and c16 > 0
        stable &= abs(c32 - c16) <= 0.10 * max(c16, c32)
        detail.append((s, round(c16, 4), round(c32, 4)))
    _verdict(10, "harmonic-embedding", exact_one and stable, str(detail))


def test_criterion_11_determinism(tmp_path):
    from click.testing import CliRunner
    from hodge_rsm.cli import main
    runner = CliRunner()
    reports = []
    for sub in ("one", "two"):
        d = tmp_path / sub
        d.mkdir()
        cfg = {"mesh": {"kind": "flat_torus", "resolution": 16,
                        "distortion": 0.0, "path": None},
               "degrees": [1], "num_forms": 1,
               "out_dir": str(d / "runs")}
        cp = d / "config.json"
        cp.write_text(json.dumps(cfg))
        res = runner.invoke(main, ["decompose", "--config", str(cp)])
        assert res.exit_code == 0, res.output
        rep = json.loads((d / "runs" / "decompose_report.json").read_text())
        rep.pop("timestamp", None)
        rep["config"].pop("out_dir", None)
        reports.append(json.dumps(rep, sort_keys=True))
    ok = reports[0] == reports[1]
    _verdict(11, "determinism", ok, "reports identical modulo timestamp")
