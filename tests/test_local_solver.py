from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings

from hodge_rsm import cli, dec, geometry, local_solver
from hodge_rsm.analysis import czi_fit
from hodge_rsm.covering import (RadiusField, partition_of_unity,
                                vitali_cover)
from hodge_rsm.local_solver import Patches, PatchError, neumann_series_solve
from hodge_rsm.rsm import cached_patches, rsm_step

from conftest import (PERTURBED_MESHES, assemble_oracle,
                      balls_without_whole_star, column, covering_of,
                      extract_patch,
                      flat_stiffness_oracle, geodesic_distance,
                      local_czi_check, oracle_ball_simplices, oracle_patches,
                      perturbed_mesh, refused_balls)


@pytest.fixture(scope="module")
def patch16(torus16, cover16):
    return cached_patches(torus16, cover16[1])[0]


def direct_solve(patch, omega):
    """The direct solve of a one-ball Patches: the solution of its
    PatchSystem (stack_patches) for omega, zero-extended."""
    f = local_solver.stack_patches(patch, omega.degree)
    return dec.Cochain(patch.manifold, omega.degree,
                       f.scatter(f.lu.solve(f.M * omega.values[f.index])))


def test_single_ball_patch_whole_manifold(torus8):
    # one ball holding every simplex, all of them interior: nothing to
    # pin a Dirichlet condition on, so extraction refuses it
    rf = RadiusField(np.ones(torus8.num_vertices), 0.1, 120, 0.4)
    cov = vitali_cover(torus8, rf)
    partition_of_unity(torus8, cov)
    assert len(cov) == 1
    oracle = extract_patch(torus8, cov, 0)
    assert oracle.cells.size == torus8.num_simplices(2)
    for p in range(3):
        assert oracle.boundary[p].size == 0
        assert oracle.interior[p].size == torus8.num_simplices(p)
    with pytest.raises(PatchError, match=r"^ball 0: no boundary \(the ball "
                       r"holds the whole manifold\)$"):
        Patches.extract(torus8, cov)


def test_interior_ball_patch(torus16, patch16):
    assert patch16.boundary[1].nnz > 0
    assert patch16.boundary[0].nnz > 0
    # interior/boundary partition the patch simplices
    for p in range(2):
        assert patch16.interior[p].multiply(patch16.boundary[p]).nnz == 0
        assert ((patch16.interior[p] + patch16.boundary[p])
                != patch16.simplices[p]).nnz == 0


def _assert_matches_oracle(m, cov, patches):
    # every ball's lists, bitwise, against the one-ball oracle
    for j in range(len(cov.balls)):
        oracle = extract_patch(m, cov, j)
        got = column(patches.simplices[m.n], j)
        assert np.array_equal(got, oracle.cells)
        for q in range(m.n + 1):
            for mats, lists in ((patches.interior, oracle.interior),
                                (patches.boundary, oracle.boundary)):
                got = column(mats[q], j)
                assert got.dtype.kind == lists[q].dtype.kind == "i"
                assert np.array_equal(got, lists[q])
            assert np.array_equal(column(patches.simplices[q], j),
                                  oracle.patch_simplices(q))


@pytest.fixture(scope="module")
def torus12():
    return geometry.generate_test_manifold("flat_torus", 12)


@pytest.mark.parametrize("mesh", ["torus12", "bumpy16", "sphere8",
                                  "torus3d5"])
def test_batched_patches_match_oracle(request, mesh):
    m = request.getfixturevalue(mesh)
    _, cov = cli.build_covering(m, {"epsilon": 0.1, "divisor": 120.0})
    patches = Patches.extract(m, cov)
    assert len(patches) == len(cov.balls)
    for mats in (patches.simplices, patches.interior, patches.boundary):
        assert all(A.format == "csc" and A.has_sorted_indices
                   and A.shape == (m.num_simplices(q), len(cov.balls))
                   for q, A in enumerate(mats))
    _assert_matches_oracle(m, cov, patches)
    # the one in-ball mask at every degree; at n, the patch cells
    for q in range(m.n + 1):
        balls = local_solver.ball_simplices(m, q, cov.members)
        want = oracle_ball_simplices(m, q, cov.members)
        assert balls.has_sorted_indices and balls.data.all()
        assert np.array_equal(balls.indices, want.indices)
        assert np.array_equal(balls.indptr, want.indptr)
    # a one-ball slice holds that ball's columns
    j = len(cov.balls) // 2
    one = patches[j]
    assert one.balls == [cov.balls[j]]
    for q in range(m.n + 1):
        assert np.array_equal(one.interior[q].indices,
                              column(patches.interior[q], j))


@settings(max_examples=25, deadline=None)
@given(**PERTURBED_MESHES)
def test_batched_patches_match_oracle_on_perturbed_meshes(mesh, seed,
                                                          amplitude):
    # balls of random centers and radii (1 to 4 mean edges) on random
    # meshes; the first ball without an interior vertex (the star rule)
    # or without boundary is the one extraction names, and the others
    # extract as the oracle has them
    m = perturbed_mesh(*mesh, seed, amplitude)
    rng = np.random.default_rng(seed)
    centers = rng.choice(m.num_vertices, size=min(12, m.num_vertices),
                         replace=False)
    radii = rng.uniform(1.0, 4.0, centers.size) * m.mean_edge_length()
    balls = [SimpleNamespace(index=j, center=int(c), covering_radius=R)
             for j, (c, R) in enumerate(zip(centers, radii))]
    members = [np.flatnonzero(geodesic_distance(m, b.center, b.covering_radius)
                              <= b.covering_radius) for b in balls]
    cov = covering_of(m, balls, members)
    starless = balls_without_whole_star(m, cov)
    assert starless == [j for j, P in enumerate(oracle_patches(m, cov))
                        if P.interior[0].size == 0]
    bad = refused_balls(m, cov)
    if bad:
        rule = "no interior vertex" if bad[0] in starless else "no boundary"
        with pytest.raises(PatchError, match=f"^ball {bad[0]}[ :].*{rule}"):
            Patches.extract(m, cov)
    if len(bad) == len(balls):
        return
    keep = [j for j in range(len(balls)) if j not in bad]
    cov = covering_of(m, [balls[j] for j in keep], [members[j] for j in keep])
    patches = Patches.extract(m, cov)
    _assert_matches_oracle(m, cov, patches)
    assert len(patches) == len(balls) - len(bad)


def _assert_bitwise(a, b):
    # two sparse matrices with the same format, dtype and sorted arrays
    assert a.format == b.format and a.dtype == b.dtype
    assert a.has_sorted_indices and b.has_sorted_indices
    for attr in ("data", "indices", "indptr"):
        x, y = getattr(a, attr), getattr(b, attr)
        assert x.dtype == y.dtype and np.array_equal(x, y)


@pytest.mark.parametrize("mesh,cover", [("torus16", "cover16"),
                                        ("bumpy16", "cover_bumpy"),
                                        ("sphere8", "cover_sphere8"),
                                        ("torus3d5", "cover3d5")])
def test_stacked_system_matches_oracle_assembly(request, mesh, cover):
    # the system of the batched patches, its stiffness formed on the
    # interior rows only, equals the interior block of the union
    # stiffness the per-patch concatenations of the oracle's index lists
    # assemble, field by field and bit for bit
    m = request.getfixturevalue(mesh)
    cov = request.getfixturevalue(cover)[1]
    patches = cached_patches(m, cov)
    oracle = oracle_patches(m, cov)
    for p in range(m.n + 1):
        got = local_solver._assemble(patches, p)
        want = assemble_oracle(oracle, p)
        for a, b in ((got.index, want.index), (got.offsets, want.offsets),
                     (got.owner, want.owner), (got.M, want.M)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        _assert_bitwise(got.K, want.K)
        _assert_bitwise(got.support, want.support)


def test_flat_assembly_matches_union_stiffness(bumpy16, cover_bumpy):
    # with chart lengths, the stiffness formed on the interior rows
    # equals dec's stiffness of the whole patch union on those rows, bit
    # for bit, at every degree (p = 0 has no lower term, p = n no upper)
    patches = cached_patches(bumpy16, cover_bumpy[1])
    for j in (0, 3, 112):
        one = patches[j]
        lengths = local_solver._chart_lengths(one)
        for p in range(bumpy16.n + 1):
            got = local_solver._assemble(one, p, lengths)
            union = local_solver._patch_complex(one, p, lengths)
            r = np.searchsorted(union.keys[p], one.interior[p].indices)
            _assert_bitwise(got.K,
                            dec.stiffness_matrix(union, p)[r][:, r].tocsc())
            want = dec.mass_diagonal(union, p)[r]
            assert got.M.dtype == want.dtype and np.array_equal(got.M, want)


def test_restrict_scatter_round_trip(torus16, patch16, rng):
    u = dec.random_cochain(torus16, 1, rng)
    system = local_solver.stack_patches(patch16, 1)
    back = dec.Cochain(torus16, 1, system.scatter(u.values[system.index]))
    idx = patch16.interior[1].indices
    assert np.allclose(back.values[idx], u.values[idx])
    mask = np.ones(torus16.num_simplices(1), dtype=bool)
    mask[idx] = False
    assert np.all(back.values[mask] == 0)


def test_face_classification_exhaustive(torus16, cover16):
    patches = cached_patches(torus16, cover16[1])
    for j in range(0, len(patches), 37):
        cells = column(patches.simplices[2], j)
        interior = set(column(patches.interior[1], j).tolist())
        boundary = set(column(patches.boundary[1], j).tolist())
        assert not interior & boundary
        for ci in cells:
            for e in torus16._cell_faces[1][ci]:
                assert int(e) in interior or int(e) in boundary
        # boundary edges belong to exactly one patch cell
        edge_cells = {}
        for ci in cells:
            for e in torus16._cell_faces[1][ci]:
                edge_cells[int(e)] = edge_cells.get(int(e), 0) + 1
        for e in boundary:
            assert edge_cells[e] == 1


def test_dirichlet_zero_rhs(torus16, cover16, patch16, weight16):
    z = dec.Cochain(torus16, 1, np.zeros(torus16.num_simplices(1)))
    u = direct_solve(patch16, z)
    assert np.all(u.values == 0)
    diag = rsm_step(torus16, cover16[1], cover16[0], z, 1.5, weight16)[2]
    assert np.all(diag.residuals == 0.0)


def test_dirichlet_residual_and_linearity(torus16, cover16, patch16,
                                          weight16, rng):
    u1v = dec.random_cochain(torus16, 1, rng)
    u2v = dec.random_cochain(torus16, 1, rng)
    s1 = direct_solve(patch16, u1v)
    s2 = direct_solve(patch16, u2v)
    s12 = direct_solve(patch16, u1v + u2v)
    defect = np.max(np.abs(s12.values - s1.values - s2.values))
    scale = max(np.max(np.abs(s1.values)), np.max(np.abs(s2.values)))
    assert defect <= 1e-10 * scale
    # every ball's residual and c_j, as the step records them
    d1 = rsm_step(torus16, cover16[1], cover16[0], u1v, 1.5, weight16)[2]
    assert d1.balls.tolist() == list(range(len(cover16[1])))
    assert np.all(d1.residuals < 1e-10)
    assert np.all(d1.c_j > 0) and np.all(np.isfinite(d1.c_j))


def _assert_submesh_blocks(m, cov, degrees):
    # the stacked assembly against each patch's own submesh complex
    patches = cached_patches(m, cov)
    for p in degrees:
        system = local_solver.stack_patches(patches, p)
        off_block = system.K.tolil()
        for j, patch in enumerate(oracle_patches(m, cov)):
            sub, _, rows = patch.submesh()
            r = rows[p]
            lo, hi = system.offsets[j], system.offsets[j + 1]
            assert np.array_equal(system.index[lo:hi], patch.interior[p])
            assert np.all(system.owner[lo:hi] == patch.ball.index)
            K_sub = dec.stiffness_matrix(sub, p)[np.ix_(r, r)]
            assert (system.K[lo:hi, lo:hi] != K_sub).nnz == 0
            assert np.array_equal(system.M[lo:hi],
                                  dec.mass_diagonal(sub, p)[r])
            off_block[lo:hi, lo:hi] = 0
        # block diagonal: no entry couples two patches
        assert off_block.tocsr().count_nonzero() == 0


def test_patch_operator_is_submesh_stiffness(torus16, cover16, patch16, rng):
    _assert_submesh_blocks(torus16, cover16[1], (0, 1, 2))
    for p in (0, 1):
        f = local_solver.stack_patches(patch16, p)
        omega = dec.random_cochain(torus16, p, rng)
        u = direct_solve(patch16, omega)
        rhs = f.M * omega.values[f.index]
        res = f.K @ u.values[f.index] - rhs
        assert np.linalg.norm(res) <= 1e-12 * np.linalg.norm(rhs)
    # not the interior block of the global stiffness
    I = patch16.interior[1].indices
    K_glob = dec.stiffness_matrix(torus16, 1)[np.ix_(I, I)]
    assert abs(K_glob - local_solver.stack_patches(patch16, 1).K).max() > 0


def test_patch_operator_is_submesh_stiffness_3d(torus3d5, cover3d5):
    _assert_submesh_blocks(torus3d5, cover3d5[1], (0, 1, 2, 3))


def test_stack_patches_names_ball_without_interior(torus16, cover16):
    # a hand-built ball holding one triangle: every vertex and edge of
    # the patch lies on its boundary, so extraction refuses it before
    # any system is stacked
    cell = torus16.simplices[2][0]
    ball = SimpleNamespace(index=99, center=int(cell[0]),
                           covering_radius=0.125)
    cov = covering_of(torus16, [cover16[1].balls[3], ball],
                      [column(cover16[1].members, 3), cell])
    assert extract_patch(torus16, cov, 1).interior[1].size == 0
    with pytest.raises(PatchError, match=rf"^ball 99 \(center {cell[0]}, "
                       r"radius 0\.125\) holds no vertex with all its "
                       "neighbours, so its patch has no interior vertex; "
                       r"radius floor R_min = 0\.\d+ "):
        Patches.extract(torus16, cov)


def test_extract_names_ball_without_full_cell(torus16, cover16):
    # a hand-built ball holding one edge: no triangle has all its
    # vertices in it, so no vertex has its whole star either
    edge = torus16.simplices[1][0]
    ball = SimpleNamespace(index=7, center=int(edge[0]),
                           covering_radius=0.0625)
    cov = covering_of(torus16, [cover16[1].balls[3], ball],
                      [column(cover16[1].members, 3), edge])
    assert extract_patch(torus16, cov, 1).cells.size == 0
    with pytest.raises(PatchError, match=rf"^ball 7 \(center {edge[0]}, "
                       r"radius 0\.0625\) .* no interior vertex;"):
        Patches.extract(torus16, cov)


def test_neumann_flat_override_one_step(torus16, patch16, rng):
    # metric perturbation A = 0: series terminates immediately
    omega = dec.random_cochain(torus16, 1, rng)
    u, diag = neumann_series_solve(patch16, omega,
                                   flat_edge_lengths=torus16.edge_lengths)
    assert diag.eta == 0.0
    assert diag.iterations == 1


def test_flat_assembly_matches_submesh_oracle(bumpy16, cover_bumpy,
                                              torus3d5, cover3d5):
    # the flat system from the patch union, with chart lengths or an
    # override, equals the one of a manifold rebuilt on the submesh bit
    # for bit, NaN entries of degenerate chart cells included
    for m, cov, balls, degrees in (
            (bumpy16, cover_bumpy[1], (0, 3, 112), range(3)),
            (torus3d5, cover3d5[1], (0, 3, 62), range(4))):
        override = m.edge_lengths * (1.0 + 0.01 * np.sin(
            np.arange(m.num_simplices(1))))
        for j in balls:
            patch = extract_patch(m, cov, j)
            one = cached_patches(m, cov)[j]
            for lengths, flat in (
                    (local_solver._chart_lengths(one), None),
                    (override[patch.patch_simplices(1)], override)):
                for p in degrees:
                    with np.errstate(divide="ignore", invalid="ignore"):
                        K, M = flat_stiffness_oracle(patch, p, flat)
                        f = local_solver._assemble(one, p, lengths)
                    assert np.array_equal(f.K.toarray(), K.toarray(),
                                          equal_nan=True)
                    assert np.array_equal(f.M, M, equal_nan=True)


def test_neumann_degenerate_chart_names_ball(torus3d5, cover3d5, rng):
    patch = cached_patches(torus3d5, cover3d5[1])[0]
    for p in (2, 3):
        omega = dec.random_cochain(torus3d5, p, rng)
        with pytest.raises(PatchError, match="ball 0: the chart metric"):
            neumann_series_solve(patch, omega)


def test_neumann_agrees_with_direct(bumpy16, cover_bumpy, rng):
    patch = cached_patches(bumpy16, cover_bumpy[1])[0]
    omega = dec.random_cochain(bumpy16, 1, rng)
    ud = direct_solve(patch, omega)
    un, diag = neumann_series_solve(patch, omega)
    assert diag.eta < 1.0
    assert diag.residual <= 1e-10
    idx = patch.interior[1].indices
    num = np.linalg.norm(un.values[idx] - ud.values[idx])
    assert num <= 1e-8 * np.linalg.norm(ud.values[idx])


def test_neumann_solve_factors_once(bumpy16, cover_bumpy, rng,
                                    monkeypatch):
    # only the flat operator is factored; the curved K_II is only applied
    import scipy.sparse.linalg as spla
    calls = []
    real = spla.splu
    monkeypatch.setattr(spla, "splu",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    patch = cached_patches(bumpy16, cover_bumpy[1])[0]
    neumann_series_solve(patch, dec.random_cochain(bumpy16, 1, rng))
    assert len(calls) == 1


def test_local_czi_constant(torus16, patch16):
    c = dec.Cochain(torus16, 0, np.ones(torus16.num_vertices))
    lhs, t1, t2 = local_czi_check(patch16, c, 1.5)
    assert t2 < 1e-12
    # derivative terms vanish: lhs is the L^r norm on the sub-ball,
    # bounded by the volume-ratio times the full-ball term
    assert lhs <= t1 * patch16.balls[0].covering_radius ** 2 * 1.0 + 1e-12


def test_local_czi_harmonic_interior(torus16, patch16, rng):
    # discrete harmonic extension of random boundary data (degree 0)
    import scipy.sparse.linalg as spla
    Kg = dec.stiffness_matrix(torus16, 0).tocsr()
    u = np.zeros(torus16.num_vertices)
    bset = patch16.boundary[0].indices
    u[bset] = rng.standard_normal(len(bset))
    I = patch16.interior[0].indices
    A = Kg[I][:, I].tocsc()
    b = -Kg[I][:, bset] @ u[bset]
    u[I] = spla.spsolve(A, b)
    lap = dec.hodge_laplacian(torus16, 0)(dec.Cochain(torus16, 0, u))
    # Delta u vanishes on the patch interior
    assert np.max(np.abs(lap.values[I])) <= 1e-9 * np.max(np.abs(u))


def test_local_czi_fit_refinement_stable(torus16, torus32, rng):
    # refinement study: identical physical ball (R = 0.4) on both meshes,
    # band-limited test forms so the ensembles are resolution-comparable
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    consts = {}
    for m in (torus16, torus32):
        rf = RadiusField(np.full(m.num_vertices, 0.4), 0.1, 120, 5.0)
        cov = vitali_cover(m, rf)
        partition_of_unity(m, cov)
        patch = cached_patches(m, cov)[0]
        K = dec.stiffness_matrix(m, 1)
        M = dec.mass_diagonal(m, 1)
        lu = spla.splu((sp.diags(M) + 0.01 * K).tocsc())
        samples = []
        for _ in range(50):
            noise = dec.random_cochain(m, 1, rng)
            sm = lu.solve(M * noise.values)
            omega = dec.Cochain(m, 1, sm / np.sqrt(sm @ (M * sm)))
            u = direct_solve(patch, omega)
            samples.append(local_czi_check(patch, u, 1.5))
        consts[m.num_vertices] = np.array(czi_fit(samples, headroom=1.0))
    c16, c32 = consts[256], consts[1024]
    assert np.all(c16 >= 0) and np.all(c32 >= 0) and c16.sum() > 0
    total16, total32 = c16.sum(), c32.sum()
    assert abs(total32 - total16) <= 0.25 * max(total16, total32)


def test_solver_reuses_cached_patches(torus16, cover16):
    _, cov = cover16
    patches = cached_patches(torus16, cov)
    assert len(patches) == len(cov.balls)
    assert cached_patches(torus16, cov) is patches
