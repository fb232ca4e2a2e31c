import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from hodge_rsm import covering, dec, geometry, local_solver, rsm
from hodge_rsm.covering import (AdmissibleCovering, RadiusField,
                                partition_of_unity, vitali_cover)
from hodge_rsm.geometry import SimplicialManifold, simplex_average
from hodge_rsm.rsm import RsmConfig, raising_steps, rsm_step, threshold_steps

from conftest import (all_geodesic_distances,
                      assert_ledger_plan_matches_oracle, chi_gradient_constant,
                      column, oracle_column_norms, oracle_densities,
                      oracle_patches, oracle_raising_steps, oracle_rsm_step,
                      sweep, system_columns)


# -- the cutoff commutator bound and compact support of the raising steps
# (paper lemmas the program does not run), checked on its sweeps below


def gradient_density(u: dec.Cochain) -> np.ndarray:
    """First-order surrogate density (|du|^2 + |d*u|^2)^(1/2) per p-simplex."""
    return dec.densities(u.manifold, u.degree, u.values, 1)


def hessian_density(u: dec.Cochain) -> np.ndarray:
    """Second-order surrogate density (|Lap u|^2 + |dd*u|^2 + |d*du|^2)^(1/2)."""
    return dec.densities(u.manifold, u.degree, u.values, 2)


def multiply_scalar(m: SimplicialManifold, chi_vertex: np.ndarray,
                    u: dec.Cochain) -> dec.Cochain:
    """Multiply a p-cochain by a scalar field (vertex values averaged)."""
    return dec.Cochain(m, u.degree,
                       simplex_average(m, u.degree, chi_vertex) * u.values)


def commutator_defect(m: SimplicialManifold, chi_vertex: np.ndarray,
                      u: dec.Cochain) -> dec.Cochain:
    """Gluing defect B(chi, u) = Delta(chi u) - chi Delta(u)."""
    lap = dec.hodge_laplacian(m, u.degree)
    return lap(multiply_scalar(m, chi_vertex, u)) \
        - multiply_scalar(m, chi_vertex, lap(u))


def _row_max(pattern: sp.spmatrix, vals: np.ndarray) -> np.ndarray:
    """Max of vals >= 0 over the columns of each row of pattern (0 for
    an empty row)."""
    A = pattern.tocsr()
    A = sp.csr_matrix((vals[A.indices], A.indices, A.indptr), shape=A.shape)
    return A.max(axis=1).toarray().ravel()


def _stencil_max(m: SimplicialManifold, p: int, vals: np.ndarray,
                 rings: int = 2) -> np.ndarray:
    """Max of vals over the Laplacian stencil neighborhood, iterated."""
    # abs() sorts a matrix's indices in place: the copy keeps the cached
    # Laplacian's order, and so the rounding of every later product
    A = abs(dec.hodge_laplacian(m, p).matrix.copy()) > 0
    out = np.asarray(vals, dtype=float)
    for _ in range(rings):
        out = np.maximum(out, _row_max(A, out))
    return out


def _sharp_gradient(m: SimplicialManifold, u: dec.Cochain) -> np.ndarray:
    """First-difference density: sup over incident faces/cofaces.

    Sharper than the averaged surrogate; used for pointwise bounds where
    an in-star mean would underestimate the local variation.
    """
    p = u.degree
    g1 = g2 = np.zeros(m.num_simplices(p))
    if p < m.n:
        du = dec.exterior_derivative(m, p)(u)
        g1 = _row_max(m.boundary[p + 1], dec.density(du))
    if p > 0:
        ds = dec.codifferential(m, p)(u)
        g2 = _row_max(m.boundary[p].T, dec.density(ds))
    return np.hypot(g1, g2)


def commutator_pointwise_bound(m: SimplicialManifold,
                               cov: AdmissibleCovering, j: int,
                               u: dec.Cochain, slack: float = 0.5):
    """Densities (|B|, bound) of the cutoff commutator estimate.

    Bound: (|lap chi| |u| + 2 C |grad chi| |grad u|) (1 + slack), with
    every factor taken as a sup over the two-ring operator stencil (the
    commutator spreads one first-order stencil past supp chi, so the
    pointwise continuum estimate holds only against neighborhood sups).
    C is the partition gradient constant, floored at the exact-bump
    value 1.
    """
    p = u.degree
    chi = np.asarray(cov.chi[:, j].todense()).ravel()
    lhs = dec.density(commutator_defect(m, chi, u))
    chi_c = dec.Cochain(m, 0, chi)
    lap_chi = np.abs(dec.hodge_laplacian(m, 0)(chi_c).values)
    grad_chi = gradient_density(chi_c)
    verts = m.simplices[p]
    lap_e = _stencil_max(m, p, lap_chi[verts].max(axis=1))
    grad_e = _stencil_max(m, p, grad_chi[verts].max(axis=1))
    au = _stencil_max(m, p, dec.density(u))
    du = _stencil_max(m, p, _sharp_gradient(m, u))
    cchi = max(1.0, chi_gradient_constant(m, cov))
    rhs = (lap_e * au + 2.0 * cchi * grad_e * du) * (1.0 + slack)
    return lhs, rhs


def compact_support_check(omega: dec.Cochain, v: dec.Cochain,
                          omega_tilde: dec.Cochain,
                          cov: AdmissibleCovering,
                          tol: float = 1e-12) -> bool:
    """Supports of v and the residual stay near the support of omega.

    True when both lie inside the union of balls meeting supp(omega),
    dilated by one covering layer; vacuously true for global omega.
    """
    m = omega.manifold
    members = cov.members
    smask = np.zeros(m.num_vertices)
    smask[m.simplices[omega.degree][np.abs(omega.values) > tol]] = 1.0
    first = members.T @ smask > 0
    if not smask.any() or first.all():
        return True
    core = members @ first.astype(float) > 0
    allowed = members @ (members.T @ core.astype(float) > 0) > 0
    for c in (v, omega_tilde):
        simp = m.simplices[c.degree][np.abs(c.values) > tol]
        # every support simplex must touch the allowed region
        if simp.size and not allowed[simp].any(axis=1).all():
            return False
    return True


def test_threshold_steps_values():
    assert threshold_steps(2.0, 2.0, 3) == 0
    assert threshold_steps(1.5, 2.0, 3) == 1
    assert threshold_steps(1.2, 2.0, 3) == 1  # S_1(1.2) = 2 exactly
    assert threshold_steps(1.5, 2.0, 2) == 1
    with pytest.raises(ValueError):
        threshold_steps(1.5, 1.2, 3)


def test_commutator_trivial_cases(torus16, cover16, rng):
    _, cov = cover16
    u = dec.random_cochain(torus16, 1, rng)
    ones = np.ones(torus16.num_vertices)
    assert np.max(np.abs(commutator_defect(torus16, ones, u).values)) < 1e-10
    z = dec.Cochain(torus16, 1, np.zeros(torus16.num_simplices(1)))
    chi = np.asarray(cov.chi[:, 0].todense()).ravel()
    assert np.all(commutator_defect(torus16, chi, z).values == 0)


def test_commutator_pointwise_bound(torus16, cover16, rng):
    _, cov = cover16
    for p in (0, 1):
        u = dec.random_cochain(torus16, p, rng)
        for j in (0, 5, 19):
            lhs, rhs = commutator_pointwise_bound(torus16, cov, j, u)
            live = rhs > 1e-14
            assert np.all(lhs[~live] < 1e-12)
            assert np.all(lhs[live] <= rhs[live])


def test_rsm_step_identity(torus16, cover16, rng):
    rf, cov = cover16
    omega = dec.random_cochain(torus16, 1, rng)
    v0, omega1, diag = rsm_step(torus16, cov, rf, omega, 1.5,
                                rsm.RsmConfig(1.5).base_weight(
                                    torus16.num_vertices))
    lap = dec.hodge_laplacian(torus16, 1)(v0)
    resid = dec.norm_l2(lap - omega - omega1) / dec.norm_l2(omega)
    assert resid < 1e-10
    assert len(diag.balls) == len(cov.balls)
    for name, entry in diag.ledger.items():
        if "lhs" in entry:  # the leibniz entry is diagnostic-only
            assert entry["lhs"] <= entry["rhs"] + 1e-12, name


def test_raising_steps_zero(torus16, cover16):
    rf, cov = cover16
    z = dec.Cochain(torus16, 1, np.zeros(torus16.num_simplices(1)))
    v, ot, trace = raising_steps(torus16, cov, rf, z, RsmConfig(1.5))
    assert np.all(v.values == 0)
    assert np.all(ot.values == 0)
    assert all(np.all(np.asarray(n) == 0) for n in trace.v_norms)
    assert all(np.all(np.asarray(n) == 0) for n in trace.residual_norms)


def test_raising_steps_identity_various_k(torus16, cover16, rng):
    rf, cov = cover16
    omega = dec.random_cochain(torus16, 1, rng)
    for k in (1, 2, 3):
        v, ot, trace = raising_steps(torus16, cov, rf, omega,
                                     RsmConfig(1.5, k=k))
        lap = dec.hodge_laplacian(torus16, 1)(v)
        resid = dec.norm_l2(lap - omega - ot) / dec.norm_l2(omega)
        assert resid < 1e-10
        assert trace.k == k
        assert len(trace.steps) == k


def test_raising_steps_linearity(torus16, cover16, rng):
    rf, cov = cover16
    o1 = dec.random_cochain(torus16, 1, rng)
    o2 = dec.random_cochain(torus16, 1, rng)
    cfg = RsmConfig(1.5, k=1)
    v1, t1, _ = raising_steps(torus16, cov, rf, o1, cfg)
    v2, t2, _ = raising_steps(torus16, cov, rf, o2, cfg)
    v12, t12, _ = raising_steps(torus16, cov, rf, o1 + o2, cfg)
    dv = dec.norm_l2(v12 - v1 - v2) / max(dec.norm_l2(v1), dec.norm_l2(v2))
    dt = dec.norm_l2(t12 - t1 - t2) / max(dec.norm_l2(t1), dec.norm_l2(t2))
    assert dv < 1e-9 and dt < 1e-9


def test_raising_steps_r2_forced_step(torus16, cover16, rng):
    # threshold already met at r = 2; force one step anyway
    rf, cov = cover16
    omega = dec.random_cochain(torus16, 0, rng)
    v, ot, trace = raising_steps(torus16, cov, rf, omega, RsmConfig(2.0, k=1))
    lap = dec.hodge_laplacian(torus16, 0)(v)
    assert dec.norm_l2(lap - omega - ot) / dec.norm_l2(omega) < 1e-10
    assert all(np.isfinite(c) for c in trace.constants.values())


def test_rsm_exponent_ladder(torus16, cover16, rng):
    rf, cov = cover16
    omega = dec.random_cochain(torus16, 1, rng)
    _, _, trace = raising_steps(torus16, cov, rf, omega, RsmConfig(1.5, k=2))
    # ladder is nondecreasing in the step index
    assert all(a <= b + 1e-12 for a, b in
               zip(trace.exponent_ladder, trace.exponent_ladder[1:]))


def test_ledger_margins_nonnegative(torus16, cover16, rng):
    rf, cov = cover16
    for p in (0, 1):
        omega = dec.random_cochain(torus16, p, rng)
        _, _, trace = raising_steps(torus16, cov, rf, omega,
                                    RsmConfig(1.5, s=2.0, k=1))
        for step in trace.steps:
            for name, entry in step.ledger.items():
                if "margin" in entry:
                    assert entry["margin"] >= 0.0, (p, name, entry)


def _planted_cover(m, values, divisor_effective):
    rf = RadiusField(values, 0.1, 120, divisor_effective)
    cov = vitali_cover(m, rf)
    partition_of_unity(m, cov)
    return rf, cov


def _assert_sweeps_reject(m, rf, cov, match):
    w = covering.constant_weight(m.num_vertices)
    rng = np.random.default_rng(3)
    for p in range(m.n + 1):
        omega = dec.random_cochain(m, p, rng)
        for run in (lambda: rsm_step(m, cov, rf, omega, 1.5, w),
                    lambda: sweep(m, cov, omega),
                    lambda: rsm.sweep_adjoint(m, cov, omega)):
            with pytest.raises(local_solver.PatchError, match=match):
                run()


def test_single_ball_cover_gap_route(torus8):
    # one ball holding the whole manifold: no boundary to pin a
    # Dirichlet condition on, so no degree has a patch system
    rf, cov = _planted_cover(torus8, np.ones(torus8.num_vertices), 0.4)
    assert len(cov) == 1
    _assert_sweeps_reject(torus8, rf, cov, "ball 0: no boundary")


def test_whole_manifold_ball_in_multi_ball_cover(torus8):
    # one ball of many holds every vertex: its block would be singular,
    # so the sweeps name it instead of returning blown-up values
    values = np.full(torus8.num_vertices, 0.6)
    values[0] = 2.25
    rf, cov = _planted_cover(torus8, values, 5.0)
    assert len(cov) > 1
    assert cov.balls[0].members.size == torus8.num_vertices
    _assert_sweeps_reject(torus8, rf, cov, "ball 0")


def test_patch_system_build_constructions(torus16, cover16, monkeypatch):
    # a guard on the object churn of the first sweep's build: the compressed
    # sparse matrices patch_system makes for the stacked system, the
    # density plan and the ledger plan at p = 0, 1, 2, with the mesh's
    # operators cached by a first build (47, 81 and 59 before the in-place
    # scalings and the incidence products)
    cov = vitali_cover(torus16, cover16[0])
    partition_of_unity(torus16, cov)
    init = sp._compressed._cs_matrix.__init__
    made = []
    for p in range(3):
        rsm.patch_system(torus16, cov, p)
        del cov.systems[p]
        with monkeypatch.context() as mp:
            mp.setattr(sp._compressed._cs_matrix, "__init__",
                       lambda self, *a, **k: made.append(p)
                       or init(self, *a, **k))
            rsm.patch_system(torus16, cov, p)
    assert [made.count(p) for p in range(3)] == [45, 72, 44]


@pytest.mark.parametrize("mesh,p", [("torus16", 0), ("torus16", 1),
                                    ("bumpy16", 1)])
def test_sweep_adjoint_identity(request, mesh, p):
    m = request.getfixturevalue(mesh)
    cov = request.getfixturevalue({"torus16": "cover16",
                                   "bumpy16": "cover_bumpy"}[mesh])[1]
    rng = np.random.default_rng(11)
    x = dec.random_cochain(m, p, rng)
    y = dec.random_cochain(m, p, rng)
    Tx = sweep(m, cov, x)[0]
    Ty = rsm.sweep_adjoint(m, cov, y)
    scale = dec.norm_l2(Tx) * dec.norm_l2(y) + dec.norm_l2(x) * dec.norm_l2(Ty)
    assert abs(dec.inner(Tx, y) - dec.inner(x, Ty)) <= 1e-12 * scale


def test_sweeps_factor_once_per_degree(torus16, cover16, monkeypatch, rng):
    cov = dataclasses.replace(cover16[1], patches=None)
    calls = []
    splu = local_solver.spla.splu
    monkeypatch.setattr(local_solver.spla, "splu",
                        lambda A: calls.append(A.shape) or splu(A))
    rsm.cached_patches(torus16, cov)
    assert not calls
    for p in (0, 1):
        omega = dec.random_cochain(torus16, p, rng)
        for _ in range(2):
            sweep(torus16, cov, omega)
        rsm.sweep_adjoint(torus16, cov, omega)
    # one factorisation of the stacked system of all patches per degree
    system = {p: rsm.patch_system(torus16, cov, p)[0] for p in (0, 1)}
    assert calls == [system[0].K.shape, system[1].K.shape]
    assert system[1].offsets.size == len(cov.balls) + 1


def test_first_sweep_builds_no_manifold_or_chart(torus16, cover16,
                                                monkeypatch, rng):
    cov = dataclasses.replace(cover16[1], patches=None)
    built = []
    for cls in (geometry.SimplicialManifold, geometry.ChartFrames):
        def counted(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    omega = dec.random_cochain(torus16, 1, rng)
    sweep(torus16, cov, omega)
    assert built == []
    # the stacked system is built once: a second request is a no-op
    system = rsm.patch_system(torus16, cov, 1)
    assert rsm.patch_system(torus16, cov, 1) is system


@pytest.mark.parametrize("mesh,p", [("torus16", 0), ("torus16", 1),
                                    ("torus16", 2), ("bumpy16", 0),
                                    ("bumpy16", 1), ("bumpy16", 2),
                                    ("torus3d5", 1)])
def test_sweep_matches_per_patch_oracle(request, glued_oracle, mesh, p):
    m = request.getfixturevalue(mesh)
    cov = request.getfixturevalue({"torus16": "cover16",
                                   "bumpy16": "cover_bumpy",
                                   "torus3d5": "cover3d5"}[mesh])[1]
    omega = dec.random_cochain(m, p, np.random.default_rng(5))
    v0, U = sweep(m, cov, omega)
    ref = glued_oracle(m, cov, oracle_patches(m, cov), omega)
    assert np.linalg.norm(v0.values - ref) <= 1e-12 * np.linalg.norm(ref)
    # the columns of U are the local solutions, zero outside the interior
    for j in (0, len(cov.balls) // 2):
        col = U[:, j].toarray().ravel()
        outside = np.ones(col.size, dtype=bool)
        outside[column(cov.patches.interior[p], j)] = False
        assert not col[outside].any()


def test_gluing_ledger_matches_per_patch_definition(torus16, cover16,
                                                    weight16, rng):
    # the 5s4 bounds from the stacked columns against their definition
    # on one full-length Cochain per piece chi_j u_j
    rf, cov = cover16
    m, p, s = torus16, 1, 2.0
    omega = dec.random_cochain(m, p, rng)
    _, _, diag = rsm_step(m, cov, rf, omega, 1.5, weight16)
    _, U = sweep(m, cov, omega)
    chi = cov.chi.toarray()
    parts = [multiply_scalar(m, chi[:, j], dec.Cochain(
        m, p, U[:, j].toarray().ravel())) for j in range(U.shape[1])]
    total = parts[0]
    for pc in parts[1:]:
        total = total + pc
    w_simp = rsm.simplex_average(m, p, weight16.values)
    w_means = covering.check_weight_relative(weight16, cov, m)[0]
    mu = m.support_volumes[p]
    for key, dens in (("5s4_i", dec.density),
                      ("5s4_ii", gradient_density),
                      ("5s4_iii", hessian_density)):
        lhs = float(np.sum(mu * w_simp**s * dens(total) ** s)) ** (1 / s)
        counts = np.zeros(m.num_simplices(p), dtype=int)
        rhs_sum, c_sw = 0.0, 1.0
        for j, pc in enumerate(parts):
            g = dens(pc)
            supp = g > 1e-300
            counts += supp
            if supp.any():
                c_sw = max(c_sw, (w_simp[supp] / w_means[j]).max())
            rhs_sum += w_means[j] ** s * np.sum(
                mu[supp] * g[supp] ** s)
        T_eff = int(counts.max())
        rhs = (T_eff ** (s - 1) * c_sw**s * rhs_sum) ** (1 / s)
        led = diag.ledger[key]
        assert led["T_eff"] == T_eff
        assert led["c_sw_eff"] == c_sw
        assert abs(led["lhs"] - lhs) <= 1e-12 * lhs
        assert abs(led["rhs"] - rhs) <= 1e-12 * rhs


def test_one_weight_serves_two_coverings(torus16, cover16, rng):
    # the ball means are measured for the covering of each step, so one
    # weight serves coverings with different numbers of balls
    rf, cov = cover16
    rf3 = covering.compute_radius_field(torus16, 0.3)
    cov3 = vitali_cover(torus16, rf3)
    partition_of_unity(torus16, cov3)
    assert len(cov3) != len(cov)
    w = covering.weight_from_radius(rf, 1)
    omega = dec.random_cochain(torus16, 1, rng)
    for c, r in ((cov, rf), (cov3, rf3), (cov, rf)):
        fresh = covering.WeightField(w.values.copy())
        want = rsm_step(torus16, c, r, omega, 1.5, fresh)[2].ledger
        assert rsm_step(torus16, c, r, omega, 1.5, w)[2].ledger == want


def test_localized_source_recovery(torus16, cover16, rng):
    # omega = Delta psi with psi supported well inside one ball:
    # the glued solution reproduces psi near the support
    rf, cov = cover16
    ball = cov.balls[0]
    D = all_geodesic_distances(torus16)
    deep = D[ball.center] <= ball.covering_radius / 4.0
    psi_vals = np.zeros(torus16.num_simplices(1))
    vmask = np.zeros(torus16.num_vertices, dtype=bool)
    vmask[np.flatnonzero(deep)] = True
    emask = torus16.vertex_mask_to_simplex_mask(1, vmask)
    psi_vals[emask] = rng.standard_normal(int(emask.sum()))
    psi = dec.Cochain(torus16, 1, psi_vals)
    omega = dec.hodge_laplacian(torus16, 1)(psi)
    v0, omega1, _ = rsm_step(torus16, cov, rf, omega, 1.5,
                             covering.constant_weight(torus16.num_vertices))
    assert dec.norm_l2(omega1) <= 2.0 * dec.norm_l2(omega)
    # agreement with psi on the deep region up to the defect scale
    diff = (v0 - psi).values[emask]
    assert np.linalg.norm(diff) <= 0.5 * np.linalg.norm(psi.values[emask]) \
        + dec.norm_l2(omega1)


def test_compact_support_check(torus16, cover16, rng):
    rf, cov = cover16
    # global omega: vacuously true
    omega = dec.random_cochain(torus16, 1, rng)
    v, ot, _ = raising_steps(torus16, cov, rf, omega, RsmConfig(1.5, k=1))
    assert compact_support_check(omega, v, ot, cov)
    # zero omega: true
    z = dec.Cochain(torus16, 1, np.zeros(torus16.num_simplices(1)))
    assert compact_support_check(z, z, z, cov)
    # one-ball omega: supports confined to the neighbor union
    ball = cov.balls[0]
    vmask = np.zeros(torus16.num_vertices, dtype=bool)
    vmask[ball.members] = True
    emask = torus16.vertex_mask_to_simplex_mask(1, vmask)
    vals = np.zeros(torus16.num_simplices(1))
    vals[emask] = rng.standard_normal(int(emask.sum()))
    loc = dec.Cochain(torus16, 1, vals)
    v, ot, _ = raising_steps(torus16, cov, rf, loc, RsmConfig(1.5, k=1))
    assert compact_support_check(loc, v, ot, cov)


def test_weight_ladder_monotone(cover16):
    rf, _ = cover16
    cfg = RsmConfig(1.5, k=3)
    n = 2
    w0 = cfg.w0(rf, n)
    # R <= 1: the running weight only loses R^-2 factors as j increases
    for j in range(cfg.k + 1):
        wj = w0 * rf.values ** (2.0 * j)
        assert np.all(wj <= w0 + 1e-12)


def test_trace_serialization(tmp_path, torus16, cover16, rng):
    rf, cov = cover16
    omega = dec.random_cochain(torus16, 1, rng)
    _, _, trace = raising_steps(torus16, cov, rf, omega, RsmConfig(1.5, k=1))
    jp, cp = tmp_path / "trace.json", tmp_path / "trace.csv"
    trace.save_json(jp)
    trace.save_csv(cp)
    import json
    data = json.loads(jp.read_text())
    assert data["k"] == 1
    assert len(data["steps"]) == 1
    assert cp.read_text().count("\n") >= 2


def test_rsm_step_reuses_degree_constants(torus16, cover16, weight16, rng,
                                          monkeypatch):
    # the simplex-averaged partition and the ball mask are built with
    # the degree's patch system, not on every step
    rf, cov = cover16
    omega = dec.random_cochain(torus16, 1, rng)
    first = rsm_step(torus16, cov, rf, omega, 1.5, weight16)[2].ledger
    averaged = []
    real = rsm.simplex_average

    def counted(m, p, values):
        if sp.issparse(values):
            averaged.append(p)
        return real(m, p, values)

    monkeypatch.setattr(rsm, "simplex_average", counted)
    again = rsm_step(torus16, cov, rf, omega, 1.5, weight16)[2].ledger
    assert averaged == []
    assert again == first


def _sparse_product_counter(monkeypatch):
    """Count scipy's sparse x sparse products and elementwise multiplies,
    wrapped on every sparse class that defines them."""
    calls = []
    seen = set()
    for fmt in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix, sp.dia_matrix,
                sp.bsr_matrix, sp.csr_array, sp.csc_array, sp.coo_array):
        for cls in fmt.__mro__:
            for name in ("_matmul_sparse", "multiply"):
                if name in vars(cls) and (cls, name) not in seen:
                    seen.add((cls, name))

                    def counted(self, *args, _f=vars(cls)[name], _n=name,
                                **kwargs):
                        calls.append(_n)
                        return _f(self, *args, **kwargs)
                    monkeypatch.setattr(cls, name, counted)
    return calls


def test_membership_built_with_the_balls(torus16, cover16, weight16,
                                        monkeypatch, rng):
    # vitali_cover builds the one membership matrix of a covering; the
    # partition, the patches, the ledger plan and every step read it
    built = []
    real = covering.membership
    monkeypatch.setattr(covering, "membership",
                        lambda balls, V: built.append(V) or real(balls, V))
    rf = cover16[0]
    cov = vitali_cover(torus16, rf)
    assert built == [torus16.num_vertices]
    partition_of_unity(torus16, cov)
    for p in (0, 1):
        omega = dec.random_cochain(torus16, p, rng)
        for _ in range(2):
            rsm_step(torus16, cov, rf, omega, 1.5, weight16)
        assert compact_support_check(omega, omega, omega, cov)
    assert built == [torus16.num_vertices]
    assert rsm.patch_system(torus16, cov, 1)[1].members is cov.members
    with pytest.raises(ValueError, match="vertices"):
        cov.membership_counts(torus16.num_vertices + 1)


def test_ledger_plan_built_once_at_first_sweep(torus16, cover16, weight16,
                                               monkeypatch, rng):
    # the plan of a degree is built with its patch system at the first
    # sweep, never by the covering or cached_patches; a later step at
    # that degree makes no sparse x sparse product and no multiply
    rf = cover16[0]
    built = []
    init = dec.DensityPlan.__init__
    monkeypatch.setattr(dec.DensityPlan, "__init__",
                        lambda self, m, p, *a: built.append(p)
                        or init(self, m, p, *a))
    cov = vitali_cover(torus16, rf)
    partition_of_unity(torus16, cov)
    rsm.cached_patches(torus16, cov)
    assert built == [] and cov.systems == {}
    omega = dec.random_cochain(torus16, 1, rng)
    first = rsm_step(torus16, cov, rf, omega, 1.5, weight16)[2]
    assert built == [1]
    calls = _sparse_product_counter(monkeypatch)
    again = rsm_step(torus16, cov, rf, omega, 1.5, weight16)[2]
    rsm.sweep_adjoint(torus16, cov, omega)
    assert calls == [] and built == [1]
    assert again.ledger == first.ledger
    # the counter sees both kinds of call
    sp.eye(2, format="csr") @ sp.eye(2, format="csc").multiply(2.0)
    assert sorted(calls) == ["_matmul_sparse", "multiply"]
    rsm_step(torus16, cov, rf, dec.random_cochain(torus16, 0, rng), 1.5,
             weight16)
    assert built == [1, 0]


@pytest.mark.parametrize("mesh,p", [("torus16", 0), ("torus16", 1),
                                    ("torus16", 2), ("bumpy16", 1),
                                    ("torus3d5", 2)])
def test_step_norms_match_sparse_oracle(request, mesh, p):
    # c_j, 5s6, the Leibniz diagnostic and the two defect norms against
    # their definitions on the sparse simplices x balls matrices
    m = request.getfixturevalue(mesh)
    rf, cov = request.getfixturevalue({"torus16": "cover16",
                                       "bumpy16": "cover_bumpy",
                                       "torus3d5": "cover3d5"}[mesh])
    w = covering.weight_from_radius(rf, 1)
    r = 1.5
    omega = dec.random_cochain(m, p, np.random.default_rng(3))
    _, _, diag = rsm_step(m, cov, rf, omega, r, w)
    v0, U = sweep(m, cov, omega)
    system = rsm.patch_system(m, cov, p)[0]
    dens = [oracle_densities(m, p, U, k) for k in range(3)]
    lr = oracle_column_norms(m, p, oracle_densities(
        m, p, system_columns(system, omega.values[system.index]), 0), r)
    w2 = sum(oracle_column_norms(m, p, d, r, system.support) for d in dens)
    assert diag.c_j.tolist() == (w2 / lr).tolist()

    chi = rsm.simplex_average(m, p, cov.chi.tocsr())
    members = covering.membership(cov.balls, m.num_vertices)
    balls = rsm.simplex_average(m, p, members.tocsr()) >= 1.0
    w_means, _, c_sw = covering.check_weight_relative(w, cov, m)
    s = max(r, min(2.0, dec.sobolev_exponent(r, 2, m.n)))
    R = cov.radii()
    parts0 = oracle_densities(m, p, U.multiply(chi).tocsc(), 0)
    a = w_means * oracle_column_norms(m, p, parts0, s, balls)
    b = w_means * R**-2.0 * oracle_column_norms(
        m, p, balls.multiply(dec.density(omega)[:, None]), r)
    rf_max = members.multiply(rf.values[:, None])
    led = diag.ledger["5s6"]
    assert led["rho"] == float(np.max(
        rf_max.max(axis=0).toarray().ravel() / R, initial=1.0))
    assert led["C"] == float((a[b > 1e-300] / b[b > 1e-300]).max())
    assert led["lhs"] == float(np.sum(a**s)) ** (1 / s)

    # sum_j chi_j Lap u_j: the plan sums each row over balls in another
    # order than scipy's row sum, hence 1e-13 rather than bit for bit
    lap = dec.hodge_laplacian(m, p)
    chi_lap = np.asarray(chi.multiply(lap.matrix @ U).sum(axis=1)).ravel()
    for got, want in ((diag.defect_sum_norm,
                       np.linalg.norm(lap(v0).values - chi_lap)),
                      (diag.localization_deviation,
                       np.linalg.norm(chi_lap - omega.values))):
        assert abs(got - want) <= 1e-13 * want

    lr, gr = (oracle_column_norms(m, p, d, s, balls) for d in dens[:2])
    total = float(np.sum(w_means**s * (R**-s * lr**s + gr**s)))
    T, conj = cov.overlap_measured, s / (s - 1)
    assert diag.ledger["leibniz"]["rhs_paper"] == (
        2 ** (s / conj) * (1 + cov.eps) * T**s * c_sw**s * total) ** (1 / s)


@pytest.mark.parametrize("mesh,cover", [("torus16", "cover16"),
                                        ("bumpy16", "cover_bumpy"),
                                        ("sphere8", "cover_sphere8"),
                                        ("torus3d5", "cover3d5")])
def test_ledger_plan_matches_oracle(request, mesh, cover):
    # the ledger reads chi, the ball masks, members and radii of the plan
    # of every degree exactly as they were first built
    m = request.getfixturevalue(mesh)
    cov = request.getfixturevalue(cover)[1]
    for p in range(m.n + 1):
        assert_ledger_plan_matches_oracle(m, cov,
                                          rsm.patch_system(m, cov, p)[1])


def test_pointwise_bound_keeps_cached_laplacian(torus16, cover16, rng):
    # abs() of a scipy matrix sorts its indices in place; the bound must
    # not do that to the cached Laplacian, whose storage order sets the
    # rounding of every later product and of the ledger plans built on it
    L = dec.hodge_laplacian(torus16, 1).matrix
    indices, data = L.indices.copy(), L.data.copy()
    commutator_pointwise_bound(torus16, cover16[1], 0,
                               dec.random_cochain(torus16, 1, rng))
    assert np.array_equal(L.indices, indices)
    assert np.array_equal(L.data, data)


def _one_ball_form(m, cov, p, rng):
    """Random values on the p-simplices of one ball, zero elsewhere: the
    pieces chi_j u_j of the other balls vanish, so the gluing bounds take
    their partial-support path."""
    vmask = np.zeros(m.num_vertices, dtype=bool)
    vmask[cov.balls[len(cov) // 3].members] = True
    smask = m.vertex_mask_to_simplex_mask(p, vmask)
    return dec.Cochain(m, p, np.where(smask, rng.standard_normal(smask.size),
                                      0.0))


def _bitwise(got, want, path=()):
    """got equals want bit for bit: floats by value and type (NaN equal to
    NaN), ints, strings, arrays by bytes, dicts and lists by item."""
    if isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for k in want:
            _bitwise(got[k], want[k], path + (k,))
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), path
        for i, (x, y) in enumerate(zip(got, want)):
            _bitwise(x, y, path + (i,))
    elif isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), \
            path
    elif dataclasses.is_dataclass(want):
        _bitwise(dataclasses.asdict(got), dataclasses.asdict(want), path)
    else:
        assert type(got) is type(want), path
        assert got == want or (got != got and want != want), path


@pytest.mark.parametrize("mesh,cover", [("torus16", "cover16"),
                                        ("bumpy16", "cover_bumpy"),
                                        ("sphere8", "cover_sphere8"),
                                        ("torus3d5", "cover3d5")])
def test_step_and_trace_match_first_ledger(request, mesh, cover):
    # the ledger, the solves, both defect norms and the trace equal those
    # of the step as first written (conftest.oracle_rsm_step), at every
    # degree, for w = 1 and w = R^-2, on a generic form (every piece
    # nonzero on its pattern) and on a form supported on one ball
    m = request.getfixturevalue(mesh)
    rf, cov = request.getfixturevalue(cover)
    partial = 0
    for p in range(m.n + 1):
        rng = np.random.default_rng(17 + p)
        forms = (dec.random_cochain(m, p, rng),
                 _one_ball_form(m, cov, p, rng))
        for w in (covering.constant_weight(m.num_vertices),
                  covering.weight_from_radius(rf, 1)):
            for omega in forms:
                got, want = (step(m, cov, rf, omega, 1.5, w, 2)
                             for step in (rsm_step, oracle_rsm_step))
                _bitwise(got[0].values, want[0].values)
                _bitwise(got[1].values, want[1].values)
                _bitwise(got[2], want[2])
                partial += any(
                    got[2].ledger[key]["T_eff"]
                    < rsm.patch_system(m, cov, p)[1].overlap[k]
                    for k, key in enumerate(("5s4_i", "5s4_ii", "5s4_iii")))
                config = RsmConfig(1.5, k=2, weight=w)
                got, want = (run(m, cov, rf, omega, config) for run in
                             (raising_steps, oracle_raising_steps))
                _bitwise(got[0].values, want[0].values)
                _bitwise(got[1].values, want[1].values)
                _bitwise(got[2].to_dict(), want[2].to_dict())
    # the one-ball forms reach the partial-support path
    assert partial
