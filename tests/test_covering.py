import dataclasses
import json
import logging
import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from hodge_rsm import cli, covering, dec, geometry, local_solver, rsm
from hodge_rsm.covering import (RadiusField, WeightField,
                                check_radius_lipschitz,
                                check_weight_relative, compute_radius_field,
                                constant_weight, covering_key,
                                covering_to_dict, load_covering,
                                overlap_bound, partition_of_unity,
                                save_covering, vitali_cover,
                                weight_from_radius)
from conftest import (ROUNDOFF_BUDGET, LoopChartFrame, all_geodesic_distances,
                      balls_without_whole_star, chi_gradient_constant,
                      column, covering_of, extract_patch, geodesic_distance,
                      local_czi_check, loop_admissible_radius,
                      loop_vitali_centers, old_layout_covering,
                      per_element_covering_json)


def admissible_radius(m, x: int, eps: float) -> float:
    """Largest R in [R_min, 1] whose chart at x stays within eps: the
    one-vertex case of the batched rounds of compute_radius_field."""
    return float(covering._admissible_radii(m, np.array([x]), eps)[0][0])


def test_flat_torus_radius_homogeneous(torus16, cover16):
    rf, _ = cover16
    assert rf.values.max() - rf.values.min() < 1e-6
    assert rf.values.min() >= 2.0 * torus16.mean_edge_length() - 1e-12
    assert rf.values.max() <= 1.0


def test_divisor_clamp_recorded_without_warning(torus16, caplog):
    with caplog.at_level(logging.DEBUG):
        rf = compute_radius_field(torus16, 0.1)
    assert rf.divisor_effective == 5
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


def test_admissible_radius_matches_field(torus16, cover16):
    rf, _ = cover16
    assert admissible_radius(torus16, 0, 0.1) == pytest.approx(rf.values[0])


@pytest.fixture(scope="module")
def radius_meshes(bumpy16, torus3d5):
    return {"torus16_d02": geometry.generate_test_manifold(
                "bumpy_torus", 16, 0.2),
            "bumpy16": bumpy16,
            "sphere8": geometry.generate_test_manifold("sphere", 8),
            "torus3d5": torus3d5}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(),
       name=st.sampled_from(["torus16_d02", "bumpy16", "sphere8",
                             "torus3d5"]),
       eps=st.floats(min_value=0.03, max_value=0.4))
def test_local_radius_matches_whole_mesh_frame(radius_meshes, data, name,
                                               eps):
    m = radius_meshes[name]
    x = data.draw(st.integers(0, m.num_vertices - 1))
    r_min = covering.RADIUS_FLOOR_EDGES * m.mean_edge_length()
    whole = LoopChartFrame(m, x).largest_radius_within(eps)
    assert admissible_radius(m, x, eps) == min(1.0, max(whole, r_min))


def _recorded_searches(monkeypatch):
    """Record (sources, limits, labels) of every batched search pass;
    a scipy Dijkstra search (whole-mesh or all-pairs) or an edge-graph
    rebuild fails the test."""
    passes = []
    real = geometry._search_pass

    def recorded(g, sources, limits):
        keys, dist = real(g, sources, limits)
        passes.append((sources.copy(), np.array(limits), keys.size))
        return keys, dist

    def forbidden(*args, **kwargs):
        raise AssertionError("whole-mesh search or edge-graph rebuild")

    monkeypatch.setattr(geometry, "_search_pass", recorded)
    monkeypatch.setattr(geometry, "dijkstra", forbidden)
    monkeypatch.setattr(geometry, "_edge_graph", forbidden)
    return passes


def _ball_sizes(m, passes):
    """Sum of |B(source, limit)| over the recorded searches, from one
    Dijkstra oracle search each."""
    return sum(int(np.isfinite(geodesic_distance(m, int(x), limit)).sum())
               for sources, limits, _ in passes
               for x, limit in zip(sources, limits))


def test_radius_field_searches_only_balls(torus16, monkeypatch):
    # bounded searches only, and a pass holds exactly the balls the
    # frames are fitted on
    passes = _recorded_searches(monkeypatch)
    fitted = []
    real = geometry.ChartFrames

    def counted(m, centers, searches):
        fitted.append(sum(f.size for f, _ in searches))
        return real(m, centers, searches)

    monkeypatch.setattr(geometry, "ChartFrames", counted)
    compute_radius_field(torus16, 0.1)
    limits = np.concatenate([limits for _, limits, _ in passes])
    assert limits.size >= torus16.num_vertices
    assert (limits <= 1.0).all()
    labels = sum(n for *_, n in passes)
    assert labels == sum(fitted) == _ball_sizes(torus16, passes)


_ORACLE_MESHES = {
    "torus12": lambda: geometry.generate_test_manifold("flat_torus", 12),
    "torus16": lambda: geometry.generate_test_manifold("flat_torus", 16),
    "bumpy16": lambda: geometry.generate_test_manifold("bumpy_torus", 16,
                                                       0.3),
    "sphere8": lambda: geometry.generate_test_manifold("sphere", 8),
    "torus3d5": lambda: geometry.generate_flat_torus_3d(5),
    "torus32": lambda: geometry.generate_test_manifold("flat_torus", 32),
}


@pytest.mark.parametrize("name,eps", [
    ("torus12", 0.1), ("torus16", 0.1), ("torus16", 0.3), ("bumpy16", 0.1),
    ("bumpy16", 0.3), ("sphere8", 0.1), ("sphere8", 0.3), ("torus3d5", 0.1),
    ("torus32", 0.1)])
def test_radius_field_matches_per_vertex_oracle(name, eps):
    # the batched rounds give the radii of one frame per vertex and reach
    m = _ORACLE_MESHES[name]()
    want = [loop_admissible_radius(m, x, eps) for x in range(m.num_vertices)]
    got = compute_radius_field(m, eps).values
    assert got.tobytes() == np.array(want).tobytes()


def test_radius_batches_stay_under_the_vertex_bound(bumpy16, monkeypatch):
    # batches of any size give the same radii; a batch exceeds the
    # bound only when one ball alone does
    want = compute_radius_field(bumpy16, 0.3).values
    real = geometry.ChartFrames
    for bound in (1, 40, 700):
        sizes = []

        def counted(m, centers, searches):
            sizes.append(sum(f.size for f, _ in searches))
            if sizes[-1] > bound:
                assert len(centers) == 1
            return real(m, centers, searches)

        monkeypatch.setattr(geometry, "FRAME_BATCH_VERTICES", bound)
        monkeypatch.setattr(geometry, "ChartFrames", counted)
        got = compute_radius_field(bumpy16, 0.3).values
        assert got.tobytes() == want.tobytes()
        assert len(sizes) > 1


def _balls_without_interior_vertex(m, cov):
    """The balls extraction refuses for want of an interior vertex, each
    extracted alone."""
    flagged = []
    for j, ball in enumerate(cov.balls):
        try:
            local_solver.Patches.extract(m, covering_of(
                m, [ball], [column(cov.members, j)]))
        except local_solver.PatchError as e:
            if "no interior vertex" in str(e):
                flagged.append(j)
    return flagged


def test_coarse_covering_names_the_radius_floor():
    # on the 3-torus 4 the floor, 2 mean edges, lies above the clamp 1,
    # and balls of radius 1 hold no vertex with its whole star
    m = geometry.generate_flat_torus_3d(4)
    cov = vitali_cover(m, compute_radius_field(m, 0.1))
    with pytest.raises(local_solver.PatchError, match=r"^ball 0 \(center 0, "
                       r"radius 1\) .* R_min = 1\.48 ") as info:
        local_solver.Patches.extract(m, cov)
    with pytest.raises(local_solver.PatchError,
                       match=f"^{re.escape(str(info.value))}$"):
        rsm.cached_patches(m, cov)
    assert extract_patch(m, cov, 0).interior[0].size == 0
    flagged = _balls_without_interior_vertex(m, cov)
    assert len(flagged) == 28 and flagged[0] == 0
    assert flagged == balls_without_whole_star(m, cov)


def test_interior_vertices_on_working_coverings(cover16, cover_bumpy,
                                                cover3d5, torus16, bumpy16,
                                                torus3d5):
    # extraction and the star rule flag the same balls: none
    for m, (_, cov) in ((torus16, cover16), (bumpy16, cover_bumpy),
                        (torus3d5, cover3d5)):
        patches = local_solver.Patches.extract(m, cov)
        assert np.diff(patches.interior[0].indptr).all()
        assert _balls_without_interior_vertex(m, cov) == []
        assert balls_without_whole_star(m, cov) == []


def test_bumpy_radius_nonconstant(bumpy16):
    rf = compute_radius_field(bumpy16, 0.3)
    assert rf.values.max() / rf.values.min() > 1.05


def test_tiny_eps_floor_binds(torus8):
    rf = compute_radius_field(torus8, 1e-6)
    floor = 2.0 * torus8.mean_edge_length()
    assert np.allclose(rf.values, floor)


def test_divisor_validation(torus8):
    with pytest.raises(ValueError):
        compute_radius_field(torus8, 0.1, divisor=4)


def test_lipschitz_empty_on_computed_fields(torus16, cover16):
    rf, _ = cover16
    assert check_radius_lipschitz(torus16, rf) == []


def _dense_lipschitz(m, rf, tol=1e-9):
    """check_radius_lipschitz as a scan of all pairs of the dense oracle."""
    D = all_geodesic_distances(m)
    R = rf.values
    close = D <= (R[:, None] + R[None, :]) / 4.0
    bad = close & (R[:, None] > 4.0 * R[None, :] * (1.0 + tol))
    return [(int(x), int(y)) for x, y in zip(*np.nonzero(bad)) if x != y]


def test_lipschitz_planted_violation(torus16, cover16, bumpy16):
    vals = np.full(torus16.num_vertices, 1.0)
    e = torus16.simplices[1][0]
    vals[e[1]] = 0.1  # adjacent vertex with a 10x radius drop
    rf = RadiusField(vals, 0.1, 120, 5.0)
    bad = check_radius_lipschitz(torus16, rf)
    assert any(set(pair) == {int(e[0]), int(e[1])} for pair in bad)
    assert bad == _dense_lipschitz(torus16, rf)
    for m, rf in ((torus16, cover16[0]),
                  (bumpy16, compute_radius_field(bumpy16, 0.3))):
        # radii of a few edges, so that neighbours lie within the scan
        vals = 4.0 * rf.values
        drops = np.random.default_rng(7).choice(m.num_vertices, 12,
                                                replace=False)
        vals[drops[:6]] /= 10.0
        vals[drops[6:10]] /= 3.0
        # just past and just inside the bound 4 (1 + tol)
        vals[drops[10]] /= 4.0 * (1.0 + 2e-9)
        vals[drops[11]] /= 4.0 * (1.0 + 0.5e-9)
        planted = RadiusField(vals, rf.eps, 120, rf.divisor_effective)
        bad = check_radius_lipschitz(m, planted)
        assert len(bad) > 6 * 3
        assert bad == _dense_lipschitz(m, planted)


def test_overlap_bound_values():
    assert overlap_bound(0.0, 2) == pytest.approx(14400.0)
    assert overlap_bound(0.1, 2) == pytest.approx(17600.0)
    assert overlap_bound(0.0, 3) == pytest.approx(1728000.0)


def test_vitali_cores_disjoint_cover_complete(torus16, cover16, bumpy16,
                                              cover_bumpy, torus3d5,
                                              cover3d5):
    for m, (rf, cov) in ((torus16, cover16), (bumpy16, cover_bumpy),
                         (torus3d5, cover3d5)):
        D = all_geodesic_distances(m)
        cores = rf.core
        for i, bi in enumerate(cov.balls):
            for bj in cov.balls[i + 1:]:
                assert D[bi.center, bj.center] > \
                    cores[bi.center] + cores[bj.center] - 1e-12
        covered = np.zeros(m.num_vertices, dtype=bool)
        for b in cov.balls:
            covered[column(cov.members, b.index)] = True
        assert covered.all()
        assert cov.overlap_measured <= overlap_bound(0.1, m.n)
        # the bounded searches give the oracle rows' balls, their
        # distances and bumps
        phi = np.zeros((m.num_vertices, len(cov)))
        for b in cov.balls:
            row = D[b.center]
            members = column(cov.members, b.index)
            assert np.array_equal(members,
                                  np.flatnonzero(row <= b.covering_radius))
            lo, hi = cov.members.indptr[b.index:b.index + 2]
            assert np.array_equal(cov.distances[lo:hi], row[members])
            t = row[members] / b.covering_radius
            phi[members, b.index] = np.maximum(1.0 - t**2, 0.0) ** 3
        phi = sp.csr_matrix(phi)
        chi = sp.diags(1.0 / np.asarray(phi.sum(axis=1)).ravel()) @ phi
        assert (cov.chi != chi).nnz == 0
    assert cover16[1].overlap_measured <= 30  # far below the bound


@pytest.mark.parametrize("window", [1, 3, 256])
def test_vitali_windows_equal_sequential_greedy(monkeypatch, window, torus16,
                                                cover16, bumpy16, cover_bumpy,
                                                sphere8, cover_sphere8,
                                                torus3d5, cover3d5):
    # windows of any size accept the centers of the one-at-a-time greedy,
    # also on a field of uneven radii, where many cores tie or nest
    monkeypatch.setattr(covering, "VITALI_WINDOW", window)
    rng = np.random.default_rng(11)
    uneven = RadiusField(rng.choice([2.0, 3.0, 6.0], torus16.num_vertices)
                         * torus16.mean_edge_length(), 0.1, 120, 5.0)
    for m, rf in ((torus16, cover16[0]), (bumpy16, cover_bumpy[0]),
                  (sphere8, cover_sphere8[0]), (torus3d5, cover3d5[0]),
                  (torus16, uneven)):
        cov = vitali_cover(m, rf)
        assert [b.center for b in cov.balls] == loop_vitali_centers(m, rf)


def test_covering_and_checks_search_single_sources(bumpy16, monkeypatch):
    # the covering build and both checks search bounded balls only, and
    # their passes hold exactly those balls
    passes = _recorded_searches(monkeypatch)
    rf, cov = cli.build_covering(bumpy16, {"epsilon": 0.1, "divisor": 120})
    n_build = len(passes)
    vals = rf.values.copy()
    vals[0] /= 10.0  # every other vertex then has a partner to search
    check_radius_lipschitz(bumpy16, RadiusField(vals, 0.1, 120, 5.0))
    n_lip = len(passes)
    patch = rsm.cached_patches(bumpy16, cov)[0]
    local_czi_check(
        patch, dec.Cochain(bumpy16, 0, np.ones(bumpy16.num_vertices)), 1.5)
    # one first-round search per vertex; Vitali cuts its balls from them
    assert sum(x.size for x, _, _ in passes[:n_build]) \
        == bumpy16.num_vertices
    assert sum(x.size for x, _, _ in passes[n_build:n_lip]) \
        == bumpy16.num_vertices - 1
    center = cov.balls[0].center
    assert [x.tolist() for x, _, _ in passes[n_lip:]] == [[center]]
    assert np.isfinite(np.concatenate([lim for _, lim, _ in passes])).all()
    assert sum(n for *_, n in passes) == _ball_sizes(bumpy16, passes)


def _searched_sources(passes):
    return sum(x.size for x, _, _ in passes)


def _assert_same_cover(got, want):
    """Members, distances, overlap and chi of two coverings, array for
    array."""
    for a, b in ((got.members, want.members), (got.chi, want.chi)):
        for attr in ("data", "indices", "indptr"):
            x, y = getattr(a, attr), getattr(b, attr)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), attr
    assert got.distances.tobytes() == want.distances.tobytes()
    assert got.overlap_measured == want.overlap_measured
    assert [b.center for b in got.balls] == [b.center for b in want.balls]


@pytest.mark.parametrize("mesh,cover", [
    ("torus16", "cover16"), ("bumpy16", "cover_bumpy"),
    ("sphere8", "cover_sphere8"), ("torus32", "cover32"),
    ("torus3d5", "cover3d5")])
def test_vitali_cut_balls_equal_searched_balls(request, monkeypatch, mesh,
                                               cover):
    # balls cut from the radius field's first-round balls are the
    # searched ones bit for bit; every window lies within that reach on
    # these meshes, and only the member balls beyond it are searched: on
    # sphere8 and torus32 all of them, so cut windows mix with searches
    m, rf = request.getfixturevalue(mesh), request.getfixturevalue(cover)[0]
    passes = _recorded_searches(monkeypatch)
    got = vitali_cover(m, rf)
    partition_of_unity(m, got)
    n_searched = _searched_sources(passes)
    want = vitali_cover(m, dataclasses.replace(rf, balls=None))
    partition_of_unity(m, want)
    assert n_searched < _searched_sources(passes) - n_searched
    beyond = 5.0 * rf.core[[b.center for b in got.balls]] > rf.balls.reach
    assert n_searched == beyond.sum()
    _assert_same_cover(got, want)


def test_vitali_searches_beyond_the_kept_reach(torus16, cover16,
                                               monkeypatch):
    # a field whose queries exceed the kept balls' reach searches them:
    # radii three times the field's, and a reach one ulp below 5 core,
    # which the member queries then exceed while the windows are cut
    rf = cover16[0]
    assert (5.0 * rf.core == rf.balls.reach).all()
    passes = _recorded_searches(monkeypatch)
    for field, cut_windows in (
            (dataclasses.replace(rf, values=3.0 * rf.values), False),
            (dataclasses.replace(rf, balls=rf.balls._replace(
                reach=np.nextafter(rf.balls.reach, 0.0))), True)):
        del passes[:]
        got = vitali_cover(torus16, field)
        n_searched = _searched_sources(passes)
        want = vitali_cover(torus16, dataclasses.replace(field, balls=None))
        assert n_searched == (len(got) if cut_windows
                              else _searched_sources(passes) - n_searched)
        partition_of_unity(torus16, got)
        partition_of_unity(torus16, want)
        _assert_same_cover(got, want)


def test_vitali_single_ball_cover(torus8):
    # core radius beyond the diameter: greedy keeps exactly one ball
    rf = RadiusField(np.ones(torus8.num_vertices), 0.1, 120, 0.4)
    cov = vitali_cover(torus8, rf)
    assert len(cov) == 1
    assert cov.overlap_measured == 1
    assert len(column(cov.members, 0)) == torus8.num_vertices
    partition_of_unity(torus8, cov)
    chi = np.asarray(cov.chi.todense()).ravel()
    assert np.allclose(chi, 1.0, atol=1e-12)


def test_vitali_greedy_order_two_peaks(torus16):
    vals = np.full(torus16.num_vertices, 0.4)
    vals[3] = 1.0
    vals[200] = 0.9
    rf = RadiusField(vals, 0.1, 120, 25.0)  # cores 0.016-0.04, fine packing
    cov = vitali_cover(torus16, rf)
    assert cov.balls[0].center == 3
    assert cov.balls[1].center == 200


def test_partition_sums_and_gradient(torus16, cover16):
    _, cov = cover16
    sums = np.asarray(cov.chi.sum(axis=1)).ravel()
    assert np.max(np.abs(sums - 1.0)) < 1e-12
    # sup edge gradient of chi_j scaled by R_j
    cchi = chi_gradient_constant(torus16, cov)
    assert cchi <= 6.0


def test_weight_from_radius(cover16):
    rf, _ = cover16
    w0 = weight_from_radius(rf, 0)
    assert np.all(w0.values == 1.0)
    half = RadiusField(np.full(8, 0.5), 0.1, 120, 5.0)
    assert np.allclose(weight_from_radius(half, 1).values, 4.0)


def test_weight_power_ratio(bumpy16):
    rf = compute_radius_field(bumpy16, 0.3)
    w = weight_from_radius(rf, 2)
    want = (rf.values.min() / rf.values.max()) ** -4.0
    assert w.values.max() / w.values.min() == pytest.approx(want, rel=1e-12)


def _weight_relative_loop(w, cov, m):
    """Ball means and comparability constants ball by ball (reference)."""
    dv = m.dual_volumes()
    members = [column(cov.members, b.index) for b in cov.balls]
    means = np.array([np.average(w.values[x], weights=dv[x])
                      for x in members])
    ratios = np.concatenate([w.values[x] / means[j]
                             for j, x in enumerate(members)])
    return means, ratios.min(), ratios.max()


def test_weight_relative_constant(torus16, cover16):
    _, cov = cover16
    w = constant_weight(torus16.num_vertices)
    means, c_iw, c_sw = check_weight_relative(w, cov, torus16)
    # exactly 1: the constant weight's ledger does not move
    assert np.all(means == 1.0) and c_iw == 1.0 and c_sw == 1.0


def test_weight_relative_radius_power(torus16, cover16):
    rf, cov = cover16
    w = weight_from_radius(rf, 1)
    c_iw, c_sw = check_weight_relative(w, cov, torus16)[1:]
    assert 0.9 <= c_iw <= 1.1 and 0.9 <= c_sw <= 1.1


def test_weight_relative_checkerboard(torus16, cover16):
    _, cov = cover16
    vals = np.where(np.arange(torus16.num_vertices) % 2 == 0, 1.0, 10.0)
    w = WeightField(vals)
    c_iw, c_sw = check_weight_relative(w, cov, torus16)[1:]
    assert c_sw / c_iw > 5.0  # reported, not rejected: caller decides


def test_weight_relative_matches_ball_loop(torus16, cover16, bumpy16,
                                           cover_bumpy):
    # sparse sums add in another order than np.average: the sum budget
    checker = np.where(np.arange(torus16.num_vertices) % 2 == 0, 1.0, 10.0)
    for m, (_, cov), w in (
            (torus16, cover16, WeightField(checker)),
            (bumpy16, cover_bumpy, weight_from_radius(cover_bumpy[0], 2))):
        got = check_weight_relative(w, cov, m)
        want = _weight_relative_loop(w, cov, m)
        for g, x in zip(got, want):
            assert np.allclose(g, x, rtol=ROUNDOFF_BUDGET["sum"], atol=0)


def test_weight_positivity_enforced():
    with pytest.raises(ValueError):
        WeightField(np.array([1.0, -1.0]))


def test_unweighted_bounded_by_weighted(torus16, cover16, rng):
    # R <= 1 so w_k = R^{-2k} >= 1: plain L^q is below the weighted norm
    rf, _ = cover16
    w = weight_from_radius(rf, 1)
    for _ in range(5):
        u = dec.random_cochain(torus16, 1, rng)
        for q in (1.5, 2.0):
            plain = dec.lr_norm(torus16, u, dec.NormSpec(q))
            weighted = dec.lr_norm(
                torus16, u, dec.NormSpec(q, weight=w.values, power=q))
            assert plain <= weighted + 1e-12


@pytest.mark.parametrize("mesh,cover", [("torus16", "cover16"),
                                        ("bumpy16", "cover_bumpy")])
def test_covering_file_matches_per_element_writer(request, tmp_path, mesh,
                                                  cover):
    # the array conversions of covering_to_dict write the bytes a writer
    # converting entry by entry writes
    m = request.getfixturevalue(mesh)
    rf, cov = request.getfixturevalue(cover)
    key = covering_key(m, 0.1, 120.0)
    save_covering(cov, tmp_path / "cov.json", rf, key)
    assert (tmp_path / "cov.json").read_text() == \
        per_element_covering_json(cov, rf, key)


def _assert_same_arrays(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


def test_covering_serialization_round_trip(request, tmp_path):
    # every loaded array equals the saved one, bit for bit
    for mesh, cover in [("torus16", "cover16"),
                        ("bumpy16", "cover_bumpy"),
                        ("sphere8", "cover_sphere8"),
                        ("torus3d5", "cover3d5"), ("torus32", "cover32")]:
        m = request.getfixturevalue(mesh)
        rf, cov = request.getfixturevalue(cover)
        key = covering_key(m, 0.1, 120.0)
        path = tmp_path / "cov.json"
        save_covering(cov, path, rf, key)
        rf2, cov2, key2 = load_covering(path)
        assert key2 == key
        assert cov2.overlap_measured == cov.overlap_measured
        assert cov2.eps == cov.eps
        assert [(b.index, b.center, b.core_radius, b.covering_radius,
                 b.admissible_radius) for b in cov2.balls] == \
            [(b.index, b.center, b.core_radius, b.covering_radius,
              b.admissible_radius) for b in cov.balls]
        # each ball's members are a column of members, compared below;
        # their distances are the built covering's alone
        assert cov.distances.size == cov.members.nnz \
            and cov2.distances is None
        # chi as the triplets of the earlier layout loaded it: canonical CSR
        chi = sp.coo_matrix(cov.chi).tocsr()
        for a, b in ((cov.members, cov2.members), (chi, cov2.chi)):
            assert a.shape == b.shape
            for name in ("data", "indices", "indptr"):
                _assert_same_arrays(getattr(a, name), getattr(b, name))
        _assert_same_arrays(rf.values, rf2.values)
        assert (rf2.eps, rf2.divisor, rf2.divisor_effective) == \
            (rf.eps, rf.divisor, rf.divisor_effective)
        # a member whose bump is 0 (torus32 has some, at distance R_j) keeps
        # its place in members and stores 0.0
        assert mesh != "torus32" or cov.chi.nnz < cov.members.nnz
        d = json.loads(path.read_text())
        assert len(d["chi"]) == cov.members.nnz
        assert d["chi"].count(0.0) == cov.members.nnz - cov.chi.nnz
        # a second save is byte-identical (determinism)
        path2 = tmp_path / "cov2.json"
        save_covering(cov, path2, rf, key)
        assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("mesh,cover", [("torus16", "cover16"),
                                        ("bumpy16", "cover_bumpy"),
                                        ("sphere8", "cover_sphere8"),
                                        ("torus3d5", "cover3d5")])
def test_built_chi_is_the_loaded_chi(request, tmp_path, mesh, cover):
    # partition_of_unity stores chi as canonical CSR, the storage
    # load_covering builds: the same data, indices and indptr, bit for
    # bit, so a loaded covering sums chi in the built one's order
    m = request.getfixturevalue(mesh)
    rf, cov = request.getfixturevalue(cover)
    path = tmp_path / "cov.json"
    save_covering(cov, path, rf, covering_key(m, 0.1, 120.0))
    chi = load_covering(path)[1].chi
    assert cov.chi.format == chi.format == "csr"
    for name in ("data", "indices", "indptr"):
        _assert_same_arrays(getattr(cov.chi, name), getattr(chi, name))
    assert cov.chi.has_canonical_format


def test_old_layout_covering_does_not_load(tmp_path, torus16, cover16):
    # a file of the layout of earlier versions (a list of balls, each
    # with doubled_members in older ones still, and partition triplets)
    # lacks the columns: a LookupError, so the CLI rebuilds it
    rf, cov = cover16
    old = old_layout_covering(cov, rf, covering_key(torus16, 0.1, 120.0))
    path = tmp_path / "cov.json"
    for doubled in (False, True):
        if doubled:
            for b in old["balls"]:
                b["doubled_members"] = b["members"] * 2
        path.write_text(json.dumps(old, sort_keys=True))
        with pytest.raises(LookupError):
            load_covering(path)


def test_covering_key_hashes_version_and_rule(torus16, monkeypatch):
    key = covering_key(torus16, 0.1, 120.0)
    assert key != covering_key(torus16, 0.2, 120.0)
    assert key != covering_key(torus16, 0.1, 60.0)
    with monkeypatch.context() as mp:
        mp.setattr(covering, "COVERING_RULE", covering.COVERING_RULE + 1)
        assert covering_key(torus16, 0.1, 120.0) != key
    with monkeypatch.context() as mp:
        mp.setattr(covering, "__version__", covering.__version__ + ".1")
        assert covering_key(torus16, 0.1, 120.0) != key
    assert covering_key(torus16, 0.1, 120.0) == key

