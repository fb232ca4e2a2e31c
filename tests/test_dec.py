import gc
import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings

from hodge_rsm import covering, dec, geometry, rsm
from hodge_rsm.local_solver import Patches
from hodge_rsm.dec import (Cochain, DegreeError, NormSpec, codifferential,
                           exterior_derivative, hodge_laplacian, inner,
                           lr_norm, mass_diagonal, norm_l2, random_cochain,
                           sobolev_exponent, sobolev_norm, stiffness_matrix)
from hodge_rsm.geometry import (SimplicialManifold, chord_lengths,
                                lumped_supports, simplex_volumes)

from conftest import (PERTURBED_MESHES, ROUNDOFF_BUDGET, Chart,
                      assert_plan_matches_step_oracle,
                      assert_ring_is_oracle_union, column, covering_of,
                      geodesic_distance, normal_chart, oracle_column_norms,
                      oracle_densities, oracle_operator, perturbed_mesh,
                      refused_balls, relabelled_mesh, total_volume,
                      vertex_mask_to_simplex_mask)

INF = dec.INF


def test_d_of_constant(torus16):
    u = Cochain(torus16, 0, np.ones(torus16.num_vertices))
    du = exterior_derivative(torus16, 0)(u)
    assert np.all(du.values == 0)


def test_dd_zero_exact(torus16, sphere4, rng):
    for m in (torus16, sphere4):
        d0 = exterior_derivative(m, 0).matrix
        d1 = exterior_derivative(m, 1).matrix
        # incidence entries are integers; the composition is exactly zero
        assert (d1 @ d0).nnz == 0 or np.all((d1 @ d0).toarray() == 0)


def test_torus_angular_cochain_closed(torus16):
    # edge value = winding increment in the first periodic direction
    N = 16
    verts = torus16.simplices[1]
    i1, i2 = verts[:, 0] // N, verts[:, 1] // N
    step = (i2 - i1 + N // 2) % N - N // 2  # wrapped difference in rows
    u = Cochain(torus16, 1, step * (2 * np.pi / N))
    du = exterior_derivative(torus16, 1)(u)
    assert np.max(np.abs(du.values)) < 1e-12
    # and it is not itself a differential of a single-valued function:
    # its harmonic + exact content is non-trivial
    assert norm_l2(u) > 0


def test_codifferential_zero(torus16):
    z = Cochain(torus16, 1, np.zeros(torus16.num_simplices(1)))
    assert np.all(codifferential(torus16, 1)(z).values == 0)
    # p = 0 codifferential is the zero map
    c = Cochain(torus16, 0, np.ones(torus16.num_vertices))
    assert np.all(codifferential(torus16, 0)(c).values == 0)


def test_adjointness_random_pairs(torus16, rng):
    worst = 0.0
    for p in range(torus16.n):
        d = exterior_derivative(torus16, p)
        ds = codifferential(torus16, p + 1)
        for _ in range(100):
            u = random_cochain(torus16, p, rng)
            v = random_cochain(torus16, p + 1, rng)
            a, b = inner(d(u), v), inner(u, ds(v))
            worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-30))
    assert worst < 1e-12


def test_codifferential_squared(torus16, rng):
    u = random_cochain(torus16, 2, rng)
    w = codifferential(torus16, 1)(codifferential(torus16, 2)(u))
    assert np.max(np.abs(w.values)) < 1e-12


def test_laplacian_constant(torus16):
    c = Cochain(torus16, 0, np.full(torus16.num_vertices, 3.7))
    lap = hodge_laplacian(torus16, 0)(c)
    assert np.max(np.abs(lap.values)) < 1e-12


def test_laplacian_smallest_eigenvalue_simple(torus16):
    # dense oracle: smallest eigenvalue 0 with multiplicity 1 (connected)
    Mw = mass_diagonal(torus16, 0)
    K = stiffness_matrix(torus16, 0).toarray()
    S = K / np.sqrt(Mw)[:, None] / np.sqrt(Mw)[None, :]
    vals = np.linalg.eigvalsh((S + S.T) / 2.0)
    assert abs(vals[0]) < 1e-10 * vals[-1]
    assert vals[1] > 1e-6 * vals[-1]


def cotan_stiffness(m: SimplicialManifold) -> sp.csr_matrix:
    """The P1 (cotan) stiffness of a surface at p = 0, from its edge
    lengths: edge ab gets (cot x + cot y) / 2 over the angles x, y
    opposite it, cot x = (|xa|^2 + |xb|^2 - |ab|^2) / (4 area)."""
    tri, area = m.simplices[2], m.volumes[2]

    def squared(a, b):
        edges = m._find(1, np.sort(np.stack([a, b], axis=1), axis=1))
        return m.edge_lengths[edges] ** 2

    K = sp.csr_matrix((m.num_vertices,) * 2)
    for c in range(3):
        x, a, b = tri[:, c], tri[:, (c + 1) % 3], tri[:, (c + 2) % 3]
        w = (squared(x, a) + squared(x, b) - squared(a, b)) / (8 * area)
        K = K + sp.csr_matrix((np.concatenate([w, w, -w, -w]),
                               (np.concatenate([a, b, a, b]),
                                np.concatenate([a, b, b, a]))), shape=K.shape)
    return K


@pytest.mark.parametrize("mesh,ratio", [
    ("torus16", 0.5000), ("torus32", 0.5000), ("sphere8", 0.4997)])
def test_gap_is_half_the_cotan_eigenvalue(request, mesh, ratio):
    # pins ROADMAP item 2's finding: with the same lumped vertex mass, the
    # gap of the p = 0 Laplacian (barycentric lumping, M_p = support share
    # / vol_p^2) is half the first eigenvalue of the P1 (cotan) stiffness,
    # which converges to the metric's: 2.7403 against 5.4807 on torus16,
    # 2.8564 against 5.7127 on torus32 and 2.7521 against 5.5070 on
    # sphere8.  A Hodge star that converges (item 2's switch) fails this
    m = request.getfixturevalue(mesh)
    mih = 1.0 / np.sqrt(mass_diagonal(m, 0))

    def first(K):
        S = K.toarray() * mih[:, None] * mih[None, :]
        return np.linalg.eigvalsh(S)[1]

    gap, cotan = first(stiffness_matrix(m, 0)), first(cotan_stiffness(m))
    assert gap / cotan == pytest.approx(ratio, abs=5e-5)


def test_rayleigh_nonnegative(torus16, rng):
    worst = 0.0
    for p in range(3):
        lap = hodge_laplacian(torus16, p)
        for _ in range(340):
            u = random_cochain(torus16, p, rng)
            worst = min(worst, inner(lap(u), u) / inner(u, u))
    assert worst >= -1e-12


def test_degree_mismatch_raises(torus16):
    u = Cochain(torus16, 1, np.zeros(torus16.num_simplices(1)))
    with pytest.raises(DegreeError):
        exterior_derivative(torus16, 0)(u)


# -- norms --------------------------------------------------------------


def test_lr_norm_zero(torus16):
    z = Cochain(torus16, 1, np.zeros(torus16.num_simplices(1)))
    assert lr_norm(torus16, z, NormSpec(1.5)) == 0.0


def test_lr_norm_r2_matches_mass(torus16, rng):
    u = random_cochain(torus16, 1, rng)
    assert lr_norm(torus16, u, NormSpec(2.0)) == pytest.approx(
        norm_l2(u), rel=1e-12)


def test_lr_norm_single_simplex_closed_form(torus16):
    vals = np.zeros(torus16.num_simplices(1))
    sigma = 11
    vals[sigma] = 0.83
    u = Cochain(torus16, 1, vals)
    r = 1.7
    mu_n = torus16.support_volumes[1][sigma]
    dens = 0.83 / torus16.volumes[1][sigma]
    assert lr_norm(torus16, u, NormSpec(r)) == pytest.approx(
        mu_n ** (1 / r) * dens, rel=1e-12)


def test_norms_refuse_a_cochain_of_another_mesh(torus16, rng):
    # a relabelled copy has the same simplex counts, so a cochain of
    # torus16 fits its arrays; the norm it would give there is another
    copy = relabelled_mesh(torus16, rng, normalize=False)[0]
    u = random_cochain(torus16, 1, rng)
    with pytest.raises(DegreeError):
        lr_norm(copy, u, NormSpec(1.5))
    for order in (1, 2):
        with pytest.raises(DegreeError):
            sobolev_norm(copy, u, NormSpec(1.5, order=order))


def test_sobolev_constant_reduces_to_lr(torus16):
    c = Cochain(torus16, 0, np.full(torus16.num_vertices, 2.0))
    for r in (1.5, 2.0, 3.0):
        assert sobolev_norm(torus16, c, NormSpec(r, order=1)) == \
            pytest.approx(lr_norm(torus16, c, NormSpec(r)), rel=1e-12)


def test_sobolev_dominates_lr(torus16, rng):
    for p in range(3):
        u = random_cochain(torus16, p, rng)
        for r in (1.5, 2.0):
            assert sobolev_norm(torus16, u, NormSpec(r, order=1)) >= \
                lr_norm(torus16, u, NormSpec(r))


def test_second_order_term_matches_eigenvalue(torus32):
    # low-frequency Delta_0 eigenform: |Delta u|_{L^2} = lambda |u|_{L^2}
    Mw = mass_diagonal(torus32, 0)
    K = stiffness_matrix(torus32, 0).toarray()
    S = K / np.sqrt(Mw)[:, None] / np.sqrt(Mw)[None, :]
    vals, vecs = np.linalg.eigh((S + S.T) / 2.0)
    lam = vals[1]
    u = Cochain(torus32, 0, vecs[:, 1] / np.sqrt(Mw))
    lap = hodge_laplacian(torus32, 0)(u)
    ratio = norm_l2(lap) / (lam * norm_l2(u))
    assert abs(ratio - 1.0) < 0.10


def test_holder_consistency_probability_measure(torus16, rng):
    # with the volume-normalized measure, r <= s implies |u|_r <= |u|_s
    vol = total_volume(torus16)
    w = np.full(torus16.num_vertices, 1.0 / vol)
    u = random_cochain(torus16, 1, rng)
    norms = [lr_norm(torus16, u, NormSpec(r, weight=w, power=1.0))
             for r in (1.2, 1.5, 2.0, 3.0, 6.0)]
    assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))


def test_sobolev_exponent_values():
    assert sobolev_exponent(2.0, 1, 4) == pytest.approx(4.0)
    assert sobolev_exponent(2.0, 2, 4) is INF
    assert sobolev_exponent(1.5, 1, 3) == pytest.approx(3.0)
    assert sobolev_exponent(1.5, 2, 2) is INF  # past threshold: sentinel
    with pytest.raises(ValueError):
        sobolev_exponent(1.0, 1, 2)


def test_embedding_check_3d(torus3d8, rng):
    # scaled embedding L^{S_2(r)}(B) <= C R^-2 W^{2,r}(B) on one covering
    # ball (S_2(r) is finite for n = 3 only)
    rf = covering.compute_radius_field(torus3d8, 0.1)
    cov = covering.vitali_cover(torus3d8, rf)
    ball, r = cov.balls[0], 1.2
    t = sobolev_exponent(r, 2, torus3d8.n)
    assert t is not INF
    vmask = np.zeros(torus3d8.num_vertices, dtype=bool)
    vmask[column(cov.members, 0)] = True
    mask = vertex_mask_to_simplex_mask(torus3d8, 1, vmask)
    ratios = []
    for _ in range(8):
        u = random_cochain(torus3d8, 1, rng)
        lhs = lr_norm(torus3d8, u, NormSpec(t), mask)
        rhs = sobolev_norm(torus3d8, u, NormSpec(r, order=2), mask)
        scaled = ball.covering_radius**-2 * rhs
        ratio = lhs / scaled if scaled > 0 else 0.0
        assert np.isfinite(ratio)
        ratios.append(ratio)
    # fitted constant: spread across random samples stays within +-25%
    C = max(ratios)
    assert min(ratios) > 0
    assert np.median(ratios) > 0.75 * C or C <= 1.0


def chart_norm_comparison(m: SimplicialManifold, chart: Chart, u: Cochain,
                          r: float) -> tuple[float, float]:
    """Intrinsic vs chart-coordinate L^r norm of u over the chart members.

    The chart norm takes every volume and lumped support by the mesh's
    own rules from the Euclidean edge lengths in chart coordinates; the
    pair quantifies the pullback comparison.
    """
    p, n = u.degree, m.n
    vmask = np.zeros(m.num_vertices, dtype=bool)
    vmask[chart.members] = True
    mask = vertex_mask_to_simplex_mask(m, p, vmask)
    intrinsic = lr_norm(m, u, NormSpec(r), mask)

    coords = np.full((m.num_vertices, n), np.nan)
    coords[chart.members] = chart.coordinates
    lengths = chord_lengths(coords, m.simplices[1])
    cells = vertex_mask_to_simplex_mask(m, n, vmask)
    support = lumped_supports(
        simplex_volumes(lengths[m._simplex_edges(m.simplices[n][cells])], n),
        m._cell_faces[p][cells], m.num_simplices(p))
    idx = np.flatnonzero(mask)
    vol = 1.0 if p == 0 else lengths[idx] if p == 1 else simplex_volumes(
        lengths[m._simplex_edges(m.simplices[p][idx])], p)
    chart_norm = float((support[idx] * (np.abs(u.values[idx]) / vol) ** r)
                       .sum()) ** (1.0 / r)
    return intrinsic, chart_norm


def test_chart_norm_comparison(torus16):
    chart = normal_chart(torus16, 0, 2.0 * torus16.mean_edge_length())
    # concentrate at the center so every contributing cell lies in-chart;
    # the chart-coordinate norm then matches the intrinsic one up to the
    # metric distortion of the chart
    vals = np.zeros(torus16.num_vertices)
    vals[0] = 1.0
    u = Cochain(torus16, 0, vals)
    intrinsic, flat = chart_norm_comparison(torus16, chart, u, 1.5)
    eps = max(chart.eps_metric, chart.eps_deriv)
    assert flat / intrinsic == pytest.approx(1.0, abs=2 * eps)


def test_normspec_validation():
    with pytest.raises(ValueError):
        NormSpec(1.0)
    with pytest.raises(ValueError):
        NormSpec(2.0, order=3)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(**PERTURBED_MESHES)
def test_dd_zero_on_perturbed_meshes(mesh, seed, amplitude):
    m = perturbed_mesh(*mesh, seed, amplitude)
    rng = np.random.default_rng(seed)
    for p in range(m.n - 1):
        # incidence entries are integers: the composition is exactly zero
        dd = exterior_derivative(m, p + 1).matrix \
            @ exterior_derivative(m, p).matrix
        assert not np.any(dd.toarray())
        # the codifferentials compose to zero up to rounding
        v = random_cochain(m, p + 2, rng)
        w = codifferential(m, p + 1)(codifferential(m, p + 2)(v))
        scale = np.abs(codifferential(m, p + 2)(v).values).max()
        assert np.abs(w.values).max() <= 1e-12 * scale / m.mean_edge_length()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(**PERTURBED_MESHES)
def test_adjointness_on_perturbed_meshes(mesh, seed, amplitude):
    m = perturbed_mesh(*mesh, seed, amplitude)
    rng = np.random.default_rng(seed)
    for p in range(m.n):
        u = random_cochain(m, p, rng)
        v = random_cochain(m, p + 1, rng)
        a = inner(exterior_derivative(m, p)(u), v)
        b = inner(u, codifferential(m, p + 1)(v))
        assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1e-30)


@pytest.mark.parametrize("mesh", ["torus16", "bumpy16", "sphere8",
                                  "torus3d5"])
def test_operators_match_sparse_product_oracle(request, mesh):
    # the codifferential, the face and coface averages and the scaled
    # stiffness hold the arrays, in the entry order, of the sparse products
    # that first formed them: the plan's steps and every density sum in
    # that order, and the spectrum's operator and factor
    m = request.getfixturevalue(mesh)
    for p in range(m.n + 1):
        names = ([("dstar", dec.codifferential(m, p).matrix),
                  ("face", dec._face_average(m, p))] if p > 0 else []) \
            + ([("coface", dec._coface_average(m, p))] if p < m.n else []) \
            + [("scaled_stiff", dec.scaled_stiffness(m, p))]
        for name, got in names:
            want = oracle_operator(m, name, p)
            assert (got.format, got.shape) == (want.format, want.shape)
            for attr in ("data", "indices", "indptr"):
                x, y = getattr(got, attr), getattr(want, attr)
                assert x.dtype == y.dtype and np.array_equal(x, y), \
                    (name, p, attr)


def _assert_plan_matches_oracle(m, p, plan, x, support):
    # densities of every order on the plan's patterns (0, 1, 1) against
    # the sparse products of the oracle: bit for bit at orders 0 and 1, to
    # the sum budget of each column's largest entry at order 2, where the
    # plan sums Lap from its halves and the oracle assembles it; a plan
    # entry off the oracle's pattern holds a zero the sparse product
    # dropped.  The same for the column norms over the support.
    shape = support.shape
    cols = sp.csc_matrix((x, plan.patterns[0][1], np.concatenate(
        [[0], np.cumsum(np.bincount(plan.patterns[0][0],
                                    minlength=shape[1]))])), shape=shape)
    assert len(plan.patterns) == 2
    for order, got in enumerate(plan.densities(x)):
        k = min(order, 1)
        col, row = plan.patterns[k]
        assert np.unique(col * shape[0] + row).size == col.size
        want = oracle_densities(m, p, cols, order)
        got_m = sp.csc_matrix((got, (row, col)), shape=shape).toarray()
        if order < 2:
            assert np.array_equal(got_m, want.toarray()), order
        else:
            scale = np.abs(want.toarray()).max(axis=0)
            assert np.all(np.abs(got_m - want.toarray())
                          <= ROUNDOFF_BUDGET["sum"] * scale)
        mask = plan.restriction(k, plan.gather(support, (k,))[0])
        norms = plan.column_norms(k, got, 1.5, mask)
        ref = oracle_column_norms(m, p, want, 1.5, support)
        if order < 2:
            assert np.array_equal(norms, ref), order
        else:
            assert np.allclose(norms, ref, rtol=ROUNDOFF_BUDGET["sum"],
                               atol=0)


@pytest.mark.parametrize("mesh,cover", [("torus16", "cover16"),
                                        ("bumpy16", "cover_bumpy"),
                                        ("sphere8", "cover_sphere8"),
                                        ("torus3d5", "cover3d5"),
                                        ("torus8", None)])
def test_density_plan_matches_sparse_oracle(request, mesh, cover):
    # the plan of every degree of a covering (torus8: one column holding
    # every simplex) against the oracle
    m = request.getfixturevalue(mesh)
    cov = None if cover is None else request.getfixturevalue(cover)[1]
    rng = np.random.default_rng(17)
    for p in range(m.n + 1):
        if cov is None:
            N = m.num_simplices(p)
            support = sp.csc_matrix(np.ones((N, 1), dtype=bool))
            plan = dec.DensityPlan(m, p, np.arange(N), np.array([0, N]))
        else:
            plan = rsm.ledger_plan(m, cov, p).dens
            support = cov.patches.simplices[p]
        x = rng.standard_normal(plan.patterns[0][0].size)
        _assert_plan_matches_oracle(m, p, plan, x, support)


@pytest.mark.parametrize("mesh,cover", [("torus16", "cover16"),
                                        ("bumpy16", "cover_bumpy"),
                                        ("sphere8", "cover_sphere8"),
                                        ("torus3d5", "cover3d5"),
                                        ("torus8", None), ("sphere4", None),
                                        ("torus3d8", None)])
def test_one_ring_is_union_of_oracle_patterns(request, mesh, cover):
    # orders 1 and 2 share the one ring: at every degree it is the union
    # of the patterns of the sparse oracle's densities of orders 1 and 2
    # (the face average has the sparsity of d_{p-1}, the coface average
    # that of d*_{p+1}, and Lap lies in their union); with no covering,
    # one column holds every simplex
    m = request.getfixturevalue(mesh)
    cov = None if cover is None else request.getfixturevalue(cover)[1]
    rng = np.random.default_rng(19)
    for p in range(m.n + 1):
        N = m.num_simplices(p)
        if cov is None:
            plan = dec.DensityPlan(m, p, np.arange(N), np.array([0, N]))
        else:
            plan = rsm.ledger_plan(m, cov, p).dens
        assert_ring_is_oracle_union(m, p, plan, rng.standard_normal(
            plan.patterns[0][0].size), (N, plan.ncols))


@pytest.mark.parametrize("mesh,cover", [("torus16", "cover16"),
                                        ("bumpy16", "cover_bumpy"),
                                        ("sphere8", "cover_sphere8"),
                                        ("torus3d5", "cover3d5")])
def test_density_plan_steps_match_argsort_oracle(request, mesh, cover):
    # the plan of a covering at every degree holds the argsort oracle's
    # steps and patterns bit for bit, so its densities and the traces sum
    # in the same order
    m = request.getfixturevalue(mesh)
    cov = request.getfixturevalue(cover)[1]
    for p in range(m.n + 1):
        system = rsm.patch_system(m, cov, p)
        assert_plan_matches_step_oracle(m, p, rsm.ledger_plan(m, cov, p).dens,
                                        system.index, system.offsets)


def test_density_plan_is_freed_without_the_cyclic_collector(torus8):
    # a plan that has computed densities is freed as soon as its last
    # reference goes, with its chain values: no reference cycle holds it
    N = torus8.num_simplices(1)
    plan = dec.DensityPlan(torus8, 1, np.arange(N), np.array([0, N]))
    plan.densities(np.ones(N))
    ref = weakref.ref(plan)
    gc.disable()
    try:
        del plan
        assert ref() is None
    finally:
        gc.enable()


@settings(max_examples=20, deadline=None)
@given(**PERTURBED_MESHES)
def test_density_plan_on_perturbed_meshes(mesh, seed, amplitude):
    # random balls (1 to 4 mean edges) on random meshes, as for the
    # batched patches; the columns are the patches' interior simplices
    m = perturbed_mesh(*mesh, seed, amplitude)
    rng = np.random.default_rng(seed)
    centers = rng.choice(m.num_vertices, size=min(12, m.num_vertices),
                         replace=False)
    radii = rng.uniform(1.0, 4.0, centers.size) * m.mean_edge_length()
    balls = [SimpleNamespace(index=j, center=int(c), covering_radius=R)
             for j, (c, R) in enumerate(zip(centers, radii))]
    members = [np.flatnonzero(geodesic_distance(m, b.center, b.covering_radius)
                              <= b.covering_radius) for b in balls]
    # the balls extraction refuses are left out
    refused = refused_balls(m, covering_of(m, balls, members))
    if len(refused) == len(balls):
        return
    keep = [j for j in range(len(balls)) if j not in refused]
    patches = Patches.extract(m, covering_of(
        m, [balls[j] for j in keep], [members[j] for j in keep]))
    for p in range(m.n + 1):
        interior = patches.interior[p]
        plan = dec.DensityPlan(m, p, interior.indices, interior.indptr)
        _assert_plan_matches_oracle(m, p, plan,
                                    rng.standard_normal(interior.nnz),
                                    patches.simplices[p])
        assert_plan_matches_step_oracle(m, p, plan, interior.indices,
                                        interior.indptr)
        assert_ring_is_oracle_union(m, p, plan,
                                    rng.standard_normal(interior.nnz),
                                    interior.shape)
