import heapq
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodge_rsm import geometry
from hodge_rsm.covering import covering_key
from hodge_rsm.geometry import (ChartFrames, MeshError, SimplicialManifold,
                                ball_search, ball_searches,
                                generate_test_manifold, load_mesh, save_mesh)

from conftest import (PERTURBED_MESHES, LoopChartFrame, LoopManifold,
                      all_geodesic_distances, euler_characteristic,
                      geodesic_distance, loop_kuhn_cells, loop_sphere_arrays,
                      loop_torus_cells, normal_chart, perturbed_mesh,
                      simplex_index)

TET_OFF = """OFF
4 4 0
0 0 0
1 0 0
0 1 0
0 0 1
3 0 2 1
3 0 1 3
3 1 2 3
3 0 3 2
"""


def test_tetrahedron_off(tmp_path):
    path = tmp_path / "tet.off"
    path.write_text(TET_OFF)
    m = load_mesh(path)
    assert m.n == 2
    assert m.num_simplices(2) == 4
    assert euler_characteristic(m) == 2
    # boundary of boundary vanishes identically
    dd = (m.boundary[1] @ m.boundary[2]).toarray()
    assert np.all(dd == 0)


def test_off_missing_vertex(tmp_path):
    path = tmp_path / "bad.off"
    path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 9\n")
    with pytest.raises(MeshError):
        load_mesh(path)


def test_save_load_round_trip(tmp_path, torus8):
    path = tmp_path / "t8.off"
    save_mesh(torus8, path)
    m2 = load_mesh(path)
    for p in range(torus8.n + 1):
        assert np.array_equal(torus8.simplices[p], m2.simplices[p])
        assert np.allclose(torus8.volumes[p], m2.volumes[p])


@pytest.mark.parametrize("args", [("sphere", 4), ("sphere", 8),
                                  ("bumpy_torus", 16, 0.3),
                                  ("flat_torus", 8)])
def test_saved_mesh_loads_bit_for_bit(tmp_path, args):
    # a generated mesh measures diameter 2 only to the last ulp (sphere 4:
    # 2.0000000000000004, sphere 8 and bumpy16: 1.9999999999999998);
    # loading it must not rescale it again, so its covering key holds
    m = generate_test_manifold(*args)
    path = tmp_path / "mesh.off"
    save_mesh(m, path)
    loaded = load_mesh(path)
    _assert_same_mesh(loaded, m)
    assert covering_key(loaded, 0.1, 120.0) == covering_key(m, 0.1, 120.0)


def test_flat_torus_counts(torus8):
    assert torus8.num_vertices == 64
    assert torus8.num_simplices(1) == 192
    assert torus8.num_simplices(2) == 128
    assert euler_characteristic(torus8) == 0


def test_sphere_counts(sphere4):
    assert euler_characteristic(sphere4) == 2


def test_flat_torus_3d_counts(torus3d8):
    assert torus3d8.n == 3
    assert torus3d8.num_vertices == 512
    assert torus3d8.num_simplices(3) == 6 * 512
    assert euler_characteristic(torus3d8) == 0


def test_volumes_positive(torus16, sphere4):
    for m in (torus16, sphere4):
        for p in range(1, m.n + 1):
            assert np.all(m.volumes[p] > 0)
        assert np.all(m.dual_volumes() > 0)
        # normalized to diameter <= 2 with unit-order size
        d = all_geodesic_distances(m)
        assert d.max() <= 2.0 + 1e-9


def test_nonmanifold_rejected():
    # two triangles sharing an edge plus a third on the same edge
    cells = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0],
                      [0, -1, 0], [0, 0, 1]])
    with pytest.raises(MeshError):
        SimplicialManifold(2, verts, cells)


def test_distance_to_self(torus8):
    assert geodesic_distance(torus8, 0)[0] == 0.0


def test_distance_one_hop(torus8):
    e = torus8.simplices[1][0]
    d = geodesic_distance(torus8, e[0])
    assert d[e[1]] == pytest.approx(torus8.volumes[1][0], rel=0, abs=0) or \
        d[e[1]] <= torus8.volumes[1][simplex_index(torus8, 1, e)] + 1e-12


def _dijkstra_oracle(m, src):
    # independent shortest-path implementation over the edge graph
    adj = {}
    for (a, b), L in zip(m.simplices[1], m.volumes[1]):
        adj.setdefault(int(a), []).append((int(b), float(L)))
        adj.setdefault(int(b), []).append((int(a), float(L)))
    dist = {src: 0.0}
    heap = [(0.0, src)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist.get(v, np.inf):
            continue
        for u, L in adj[v]:
            nd = d + L
            if nd < dist.get(u, np.inf):
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    return np.array([dist[i] for i in range(m.num_vertices)])


def test_distance_matches_oracle(torus8):
    got = geodesic_distance(torus8, 5)
    want = _dijkstra_oracle(torus8, 5)
    assert np.allclose(got, want, atol=1e-12)
    # antipodal vertex: between Euclidean chord and graph diameter
    far = int(np.argmax(want))
    chord = np.linalg.norm(torus8.vertices[far] - torus8.vertices[5])
    assert chord - 1e-12 <= want[far] <= want.max() + 1e-12


def test_distance_symmetry(torus8):
    D = all_geodesic_distances(torus8)
    assert np.allclose(D, D.T, atol=1e-12)


def _assert_searches_match_dijkstra(m, sources, limits):
    """ball_searches against one scipy Dijkstra search per source,
    bitwise."""
    got = list(ball_searches(m, sources, limits))
    assert len(got) == len(sources)
    for (fitted, dist), s, limit in zip(got, sources, limits):
        want = geodesic_distance(m, int(s), limit)
        inside = np.flatnonzero(np.isfinite(want))
        assert fitted.dtype == inside.dtype
        assert np.array_equal(fitted, inside)
        assert dist.tobytes() == want[inside].tobytes()


@pytest.mark.parametrize("mesh", ["torus12", "bumpy16", "sphere8",
                                  "torus3d5"])
def test_ball_searches_match_dijkstra(request, mesh):
    m = generate_test_manifold("flat_torus", 12) if mesh == "torus12" \
        else request.getfixturevalue(mesh)
    rng = np.random.default_rng(3)
    sources = rng.integers(0, m.num_vertices, 200)
    limits = rng.uniform(0.0, 6.0, 200) * m.mean_edge_length()
    limits[:3] = [0.0, np.inf, 1.0]
    _assert_searches_match_dijkstra(m, sources, limits)


def test_ball_searches_edge_cases(bumpy16):
    d = geodesic_distance(bumpy16, 9)
    # a limit equal to some vertex's distance keeps that vertex
    far = int(np.argsort(d)[20])
    fitted, dist = ball_search(bumpy16, 9, d[far])
    assert far in fitted and dist.max() == d[far]
    _assert_searches_match_dijkstra(bumpy16, [9, 9, 9], [d[far], 0.0, d[far]])
    # a limit of 0 holds the source alone; a repeated source repeats
    (f0, d0), (f1, d1), (f2, d2) = ball_searches(bumpy16, [9, 9, 9],
                                                 [d[far], 0.0, d[far]])
    assert f1.tolist() == [9] and d1.tolist() == [0.0]
    assert np.array_equal(f0, f2) and d0.tobytes() == d2.tobytes()
    assert list(ball_searches(bumpy16, [], 1.0)) == []
    # a scalar limit holds for every source
    assert [f.tolist() for f, _ in ball_searches(bumpy16, [3, 4], 0.0)] \
        == [[3], [4]]
    with pytest.raises(ValueError, match="invalid vertex"):
        list(ball_searches(bumpy16, [0, bumpy16.num_vertices], 1.0))
    with pytest.raises(ValueError, match="nonnegative"):
        list(ball_searches(bumpy16, [0], -1.0))


@pytest.mark.parametrize("labels", [1, 40, 700])
def test_ball_searches_split_into_passes(sphere8, monkeypatch, labels):
    # any label budget gives the same searches; a pass exceeds the
    # budget only when its first ball alone does
    passes = []
    real = geometry._search_pass

    def counted(g, sources, limits):
        keys, dist = real(g, sources, limits)
        passes.append((sources.size, keys.size))
        return keys, dist

    monkeypatch.setattr(geometry, "SEARCH_BATCH_LABELS", labels)
    monkeypatch.setattr(geometry, "_search_pass", counted)
    rng = np.random.default_rng(5)
    sources = rng.integers(0, sphere8.num_vertices, 60)
    limits = rng.uniform(0.0, 4.0, 60) * sphere8.mean_edge_length()
    _assert_searches_match_dijkstra(sphere8, sources, limits)
    assert sum(n for n, _ in passes) == 60 and len(passes) > 1
    assert passes[0][0] == max(1, labels // sphere8.num_vertices)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data(), **PERTURBED_MESHES)
def test_ball_searches_property(data, mesh, seed, amplitude):
    # random sources (repeats allowed) and limits up to the diameter
    m = perturbed_mesh(*mesh, seed, amplitude)
    sources = data.draw(st.lists(st.integers(0, m.num_vertices - 1),
                                 max_size=20))
    limits = data.draw(st.lists(st.floats(0.0, 2.5), min_size=len(sources),
                                max_size=len(sources)))
    _assert_searches_match_dijkstra(m, sources, limits)


def test_chart_zero_radius(torus16):
    c = normal_chart(torus16, 3, 0.0)
    assert c.members.tolist() == [3]
    assert c.eps_metric == 0.0
    assert c.eps_deriv == 0.0
    assert np.allclose(c.metric[0], np.eye(2))


def test_chart_flat_torus_small_radius(torus16):
    r = 1.2 * torus16.mean_edge_length()
    c = normal_chart(torus16, 0, r)
    assert c.eps_metric < 0.05
    assert c.eps_deriv < 0.05
    # center first, at the origin
    assert c.members[0] == 0
    assert np.allclose(c.coordinates[0], 0.0)


def test_chart_sphere_hemisphere(sphere16):
    D = all_geodesic_distances(sphere16)
    r = 0.45 * D.max()  # approaching hemisphere scale
    c = normal_chart(sphere16, 0, r)
    assert max(c.eps_metric, c.eps_deriv) > 0.1


def _frame(m, x, reach=np.inf):
    """The one-center ChartFrames of x fitted out to reach."""
    return ChartFrames(m, [x], [ball_search(m, x, reach)])


def _assert_frame_matches(frames, f, want):
    """Frame f of frames against the LoopChartFrame want, bitwise on the
    fitted rows and the touched vertices."""
    rows = slice(*frames.starts[f:f + 2])
    cols = slice(*frames.touched_starts[f:f + 2])
    edges = frames.edge_frame == f
    # index arrays by value (edges were int32 CSR indices)
    assert np.array_equal(frames.fitted[rows], want.fitted)
    assert np.array_equal(frames.touched[cols],
                          np.flatnonzero(~np.isnan(want.coordinates[:, 0])))
    assert np.array_equal(frames.edges[edges], want.edges)
    pairs = {"distances": (frames.distances[rows],
                           want.distances[want.fitted]),
             "coordinates": (frames.coordinates[cols],
                             want.coordinates[frames.touched[cols]]),
             "metric": (frames.metric[rows], want.metric),
             "vertex_deviation": (frames.vertex_deviation[rows],
                                  want.vertex_deviation),
             "edge_difference": (frames.edge_difference[edges],
                                 want.edge_difference)}
    for attr, (got, ref) in pairs.items():
        assert _bitwise(got, ref), attr
    assert frames.foldover_distance[f] == want.foldover_distance


def test_largest_radius_monotone(torus16):
    frame, want = _frame(torus16, 7), LoopChartFrame(torus16, 7)
    _assert_frame_matches(frame, 0, want)
    r_tight, r_loose = (frame.largest_radii_within(eps)[0]
                        for eps in (0.05, 0.2))
    assert r_tight == want.largest_radius_within(0.05)
    assert r_loose == want.largest_radius_within(0.2)
    assert 0 <= r_tight <= r_loose <= 1.0 + 1e-12


def test_foldover_three_way_collision():
    # three points collide; the first two of them (by distance) meet at 0.2
    coords = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    dist = np.array([5.0, 0.1, 0.2, 0.0])

    def foldover(coords, dist, frame=None):
        frame = np.zeros(len(dist), dtype=int) if frame is None else frame
        return geometry._foldover_distances(coords, dist, frame, 2)

    assert foldover(coords, dist)[0] == 0.2
    assert foldover(coords[1:], dist[1:])[0] == 0.2
    assert foldover(coords[2:], dist[2:])[0] == np.inf
    # points of different frames never collide
    assert foldover(coords, dist, np.array([0, 1, 0, 1])).tolist() == \
        [5.0, np.inf]


def _loop_chart(frame, r):
    """(members, eps_metric, eps_deriv) of the chart of radius r sliced
    from a LoopChartFrame: the vertices at distance < r by distance, and
    the edges with both ends there."""
    dist = frame.distances[frame.fitted]
    inside = np.flatnonzero(dist < r)
    members = frame.fitted[inside[np.argsort(dist[inside], kind="stable")]]
    ends = frame.distances[frame.m.simplices[1][frame.edges]].max(axis=1)
    return (members, frame.vertex_deviation[inside].max(),
            frame.edge_difference[ends < r].max(initial=0.0))


def test_local_frame_matches_whole_mesh(bumpy16):
    whole = LoopChartFrame(bumpy16, 9)
    _assert_frame_matches(_frame(bumpy16, 9), 0, whole)
    # a reach past the diameter fits every vertex: the same frame
    _assert_frame_matches(_frame(bumpy16, 9, 4.0), 0, whole)
    r = 2.5 * bumpy16.mean_edge_length()
    local = _frame(bumpy16, 9, r)
    _assert_frame_matches(local, 0, LoopChartFrame(bumpy16, 9, r))
    assert np.array_equal(local.fitted,
                          np.flatnonzero(whole.distances <= r))
    # the chart of radius r is the slice of the frame fitted on its ball,
    # also at the distance of the edge of largest difference within r:
    # that edge is left out
    ends = whole.distances[bumpy16.simplices[1][whole.edges]].max(axis=1)
    tie = ends[np.argmax(np.where(ends < r, whole.edge_difference, 0.0))]
    for radius in (r, tie):
        chart = normal_chart(bumpy16, 9, radius)
        members, eps_metric, eps_deriv = _loop_chart(
            LoopChartFrame(bumpy16, 9, radius), radius)
        assert np.array_equal(chart.members, members)
        assert (chart.eps_metric, chart.eps_deriv) == (eps_metric, eps_deriv)
    # against the slice of the whole-mesh frame: the Tikhonov weight
    # averages over the fitted ball only
    chart = normal_chart(bumpy16, 9, r)
    members, eps_metric, eps_deriv = _loop_chart(whole, r)
    assert np.array_equal(chart.members, members)
    assert np.allclose(chart.coordinates, whole.coordinates[members],
                       rtol=0, atol=1e-12)
    assert chart.eps_metric == pytest.approx(eps_metric, rel=1e-3)
    assert chart.eps_deriv == pytest.approx(eps_deriv, rel=1e-3)


@settings(max_examples=20, deadline=None)
@given(res=st.integers(min_value=4, max_value=10))
def test_torus_euler_characteristic_property(res):
    m = generate_test_manifold("flat_torus", res)
    assert euler_characteristic(m) == 0
    assert m.num_vertices == res * res


def test_bad_generator_kind():
    with pytest.raises(ValueError):
        generate_test_manifold("klein_bottle", 8)


# -- the array construction against the loop oracle ---------------------


def _recorded_build(monkeypatch, make):
    """The manifold make() returns and the arguments of the one
    SimplicialManifold it constructs."""
    calls = []
    real = geometry.SimplicialManifold

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(geometry, "SimplicialManifold", record)
        m = make()
    (args, kwargs), = calls
    return m, args, kwargs


def _bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


def _assert_same_mesh(m, o):
    assert _bitwise(m.vertices, o.vertices)
    assert _bitwise(m.oriented_cells, o.oriented_cells)
    assert _bitwise(m.edge_lengths, o.edge_lengths)
    for p in range(m.n + 1):
        assert _bitwise(m.simplices[p], o.simplices[p]), p
        assert _bitwise(m._cell_faces[p], o._cell_faces[p]), p
        assert _bitwise(m.volumes[p], o.volumes[p]), p
        assert _bitwise(m.support_volumes[p], o.support_volumes[p]), p
    for a, b in [(m.boundary[p], o.boundary[p]) for p in range(1, m.n + 1)] \
            + [(m.graph, o.graph)]:
        for attr in ("data", "indices", "indptr"):
            assert _bitwise(getattr(a, attr), getattr(b, attr)), attr


def _tetrahedron(tmp_path):
    path = tmp_path / "tet.off"
    path.write_text(TET_OFF)
    return load_mesh(path)


@pytest.mark.parametrize("make, loop_cells", [
    (lambda _: generate_test_manifold("flat_torus", 12),
     lambda: loop_torus_cells(12)),
    (lambda _: generate_test_manifold("bumpy_torus", 16, 0.3),
     lambda: loop_torus_cells(16)),
    (lambda _: generate_test_manifold("sphere", 8), None),
    (lambda _: geometry.generate_flat_torus_3d(5),
     lambda: loop_kuhn_cells(5)),
    (_tetrahedron, None),
], ids=["torus12", "bumpy16", "sphere8", "torus3d5", "tetrahedron"])
def test_construction_matches_loop_oracle(monkeypatch, tmp_path, make,
                                          loop_cells):
    m, args, kwargs = _recorded_build(monkeypatch, lambda: make(tmp_path))
    if loop_cells is not None:
        # the generators' cell arrays are byte-identical to the loops'
        assert _bitwise(args[2], loop_cells())
    _assert_same_mesh(m, LoopManifold(*args, **kwargs))
    for p in range(m.n + 1):
        for i in (0, m.num_simplices(p) // 2, m.num_simplices(p) - 1):
            row = m.simplices[p][i]
            assert simplex_index(m, p, row[::-1]) == i


def test_construction_matches_loop_oracle_supplied_lengths(bumpy16):
    # scaled, perturbed lengths on the mesh's own combinatorics, unchecked
    lengths = bumpy16.edge_lengths * np.linspace(0.9, 1.1,
                                                 bumpy16.num_simplices(1))
    for normalize in (False, True):
        args = (2, bumpy16.vertices, bumpy16.oriented_cells)
        kwargs = dict(edge_lengths=lengths, normalize=normalize,
                      validate=False)
        _assert_same_mesh(SimplicialManifold(*args, **kwargs),
                          LoopManifold(*args, **kwargs))


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("validate", [False, True])
def test_construction_options_match_loop_oracle(bumpy16, sphere8, torus3d5,
                                                normalize, validate):
    # every normalize/validate combination, on embeddings the
    # normalization rescales (a scaled copy) and leaves (the built mesh)
    for m in (bumpy16, sphere8, torus3d5):
        for scale in (1.0, 3.7):
            args = (m.n, m.vertices * scale, m.oriented_cells)
            kwargs = dict(normalize=normalize, validate=validate)
            _assert_same_mesh(SimplicialManifold(*args, **kwargs),
                              LoopManifold(*args, **kwargs))


def test_off_loaded_mesh_matches_loop_oracle(monkeypatch, tmp_path,
                                             bumpy16):
    # a saved mesh, loaded back: normalized already, so left as it is
    path = tmp_path / "bumpy16.off"
    save_mesh(bumpy16, path)
    m, args, kwargs = _recorded_build(monkeypatch, lambda: load_mesh(path))
    _assert_same_mesh(m, LoopManifold(*args, **kwargs))


def test_simplex_index_rejects_non_simplices(torus8):
    a, b, c = torus8.simplices[2][0]
    assert simplex_index(torus8, 2, (c, a, b)) == 0
    far = int(np.argmax(geodesic_distance(torus8, int(a))))
    for p, verts in [(1, (a, far)), (2, (a, b, far)), (1, (a, a)),
                     (1, (a, -1)), (1, (a, torus8.num_vertices)),
                     (0, (torus8.num_vertices,)), (2, (a, b))]:
        with pytest.raises(KeyError):
            simplex_index(torus8, p, verts)


# -- every MeshError branch on a hand-built mesh -------------------------

_TET_CELLS = np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]])
_TET_VERTS = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])


def _four_simplex_boundary():
    """The five tetrahedra of the boundary of a 4-simplex, oriented."""
    cells = []
    for i in range(5):
        face = [v for v in range(5) if v != i]
        if i % 2:
            face[0], face[1] = face[1], face[0]
        cells.append(face)
    return np.array(cells)


_BAD_MESHES = {
    "repeated vertex": (2, _TET_VERTS, np.vstack([_TET_CELLS[:3], [0, 3, 3]]),
                        None),
    "duplicate cells": (2, _TET_VERTS,
                        np.vstack([_TET_CELLS, _TET_CELLS[[2]]]), None),
    "non-manifold or open": (2, _TET_VERTS, _TET_CELLS[:3], None),
    # edge (2, 3) of the edges (0,1) (0,2) (0,3) (1,2) (1,3) (2,3) is
    # longer than the other two sides of triangles (0, 2, 3), (1, 2, 3)
    "triangle inequality": (2, _TET_VERTS, _TET_CELLS,
                            np.array([1.0, 1, 1, 1, 1, 2.5])),
    # the first tetrahedron spans the flat unit square
    "degenerate cell": (3, np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0],
                                     [0, 1, 0], [0.3, 0.2, 0.7]]),
                        _four_simplex_boundary(), None),
    "inconsistent orientation": (2, _TET_VERTS,
                                 np.vstack([_TET_CELLS[:3],
                                            _TET_CELLS[3, ::-1]]), None),
    "not connected": (2, np.vstack([_TET_VERTS, _TET_VERTS + 5.0]),
                      np.vstack([_TET_CELLS, _TET_CELLS + 4]), None),
}


@pytest.mark.parametrize("message", list(_BAD_MESHES))
def test_each_mesh_error_branch(message):
    dim, verts, cells, lengths = _BAD_MESHES[message]
    for cls in (SimplicialManifold, LoopManifold):
        with pytest.raises(MeshError, match=message):
            cls(dim, verts, cells, edge_lengths=lengths)


def test_good_counterparts_of_bad_meshes_build():
    # each bad mesh differs from one of these in its one defect
    SimplicialManifold(2, _TET_VERTS, _TET_CELLS)
    SimplicialManifold(2, _TET_VERTS, _TET_CELLS,
                       edge_lengths=np.array([1.0, 1, 1, 1, 1, 1.5]))
    SimplicialManifold(3, np.eye(5), _four_simplex_boundary())


def _induced_signs(cells, face):
    """Orientation each cell containing `face` induces on it, relative
    to the sorted face: the sign of the permutation sorting the cell,
    times (-1)^(position of the missing vertex in the sorted cell)."""
    signs = []
    for cell in cells:
        if set(face) <= set(cell.tolist()):
            s = sorted(cell.tolist())
            inversions = sum(x > y for i, x in enumerate(cell.tolist())
                             for y in cell.tolist()[i + 1:])
            missing = s.index((set(cell.tolist()) - set(face)).pop())
            signs.append((-1) ** inversions * (-1) ** missing)
    return signs


@pytest.mark.parametrize("flip", [0, 77, 127])
def test_orientation_error_names_disagreeing_face(torus8, flip):
    cells = torus8.oriented_cells.copy()
    cells[flip] = cells[flip, [1, 0, 2]]
    with pytest.raises(MeshError, match="inconsistent orientation") as err:
        SimplicialManifold(2, torus8.vertices, cells)
    face = tuple(int(v) for v in re.findall(r"\d+", str(err.value)))
    signs = _induced_signs(cells, face)
    assert len(signs) == 2 and signs[0] == signs[1]
    assert set(face) < set(cells[flip].tolist())


@pytest.mark.parametrize("f", [1, 2, 8, 16, 32])
def test_sphere_arrays_match_loop_oracle(f):
    vertices, cells = geometry._sphere_arrays(f)
    want_vertices, want_cells = loop_sphere_arrays(f)
    assert _bitwise(vertices, want_vertices)
    assert _bitwise(cells, want_cells)


@pytest.mark.parametrize("mesh", ["torus16", "bumpy16", "sphere4",
                                  "torus3d5"])
def test_chart_frame_matches_loop_oracle(request, mesh):
    m = request.getfixturevalue(mesh)
    edge = m.mean_edge_length()
    for x in (0, 7, m.num_vertices - 1):
        for reach in (0.0, 2.0 * edge, 5.0 * edge, np.inf):
            frame, want = _frame(m, x, reach), LoopChartFrame(m, x, reach)
            _assert_frame_matches(frame, 0, want)
            for eps in (0.02, 0.1, 0.3):
                assert frame.largest_radii_within(eps)[0] \
                    == want.largest_radius_within(eps), (x, reach, eps)


def test_chart_frames_batch_equals_single_frames(bumpy16, torus16, torus3d5):
    # one batched fit of several centers: each frame is the frame alone,
    # though the normalizing fit solves at the centers only; on the
    # 3-torus its normal equations have six entries
    for m in (bumpy16, torus16, torus3d5):
        reach = 3.0 * m.mean_edge_length()
        centers = [5, 0, m.num_vertices - 56, 5]
        frames = ChartFrames(m, centers,
                             [ball_search(m, c, reach) for c in centers])
        radii = frames.largest_radii_within(0.1)
        for f, c in enumerate(centers):
            one = LoopChartFrame(m, c, reach)
            _assert_frame_matches(frames, f, one)
            assert radii[f] == one.largest_radius_within(0.1)


def test_center_normalization_matches_per_frame_loop(bumpy16, monkeypatch):
    # the rows of a batch are normalized by one stacked Cholesky and one
    # batched product, bit for bit the per-frame loop; a center metric
    # with no Cholesky factor (planted in frame 1) leaves exactly that
    # frame's coordinates as projected
    reach = 3.0 * bumpy16.mean_edge_length()
    centers = [5, 0, 200, 5]
    seen = {}
    project, factors = ChartFrames._tangent_coordinates, \
        geometry._cholesky_factors

    def projected(self, tframe):
        coords = project(self, tframe)
        seen["coords"] = coords.copy()
        return coords

    def planted(G):
        seen["G"] = G = G.copy()
        G[1] = -G[1]
        return factors(G)

    monkeypatch.setattr(ChartFrames, "_tangent_coordinates", projected)
    monkeypatch.setattr(geometry, "_cholesky_factors", planted)
    frames = ChartFrames(bumpy16, centers,
                         [ball_search(bumpy16, c, reach) for c in centers])
    want, failed = seen["coords"], []
    for f, g in enumerate(seen["G"]):
        rows = slice(*frames.touched_starts[f:f + 2])
        try:
            want[rows] = want[rows] @ np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            failed.append(f)
    assert failed == [1]
    assert _bitwise(frames.coordinates, want)


def test_tikhonov_weight_effect_is_pinned(bumpy16):
    # the Tikhonov weight is 1e-8 times the mean trace over the fitted
    # ball, so a chart fitted on its ball differs slightly from the same
    # chart fitted on the whole mesh: at vertex 9, 2.5 mean edges,
    # eps_metric is 2.9085 against 2.9074 (3.5e-4 relative)
    r = 2.5 * bumpy16.mean_edge_length()
    chart = normal_chart(bumpy16, 9, r)
    ball, whole = _frame(bumpy16, 9, r), _frame(bumpy16, 9)
    rows = np.searchsorted(whole.fitted, chart.members)
    whole_metric = whole.vertex_deviation[rows].max()
    assert chart.eps_metric == pytest.approx(2.9085, abs=1e-4)
    assert abs(chart.eps_metric - whole_metric) < 1e-3 * whole_metric
    # the admissible radius does not move
    for eps in (0.1, 0.3):
        assert ball.largest_radii_within(eps)[0] \
            == whole.largest_radii_within(eps)[0] < np.inf


@settings(max_examples=30, deadline=None, derandomize=True)
@given(**PERTURBED_MESHES)
def test_off_round_trip_property(tmp_path_factory, mesh, seed, amplitude):
    # OFF I/O is lossless: the loaded mesh is the one built from the
    # arrays save_mesh wrote (vertices as repr floats, as-given cells)
    m = perturbed_mesh(*mesh, seed, amplitude)
    path = tmp_path_factory.mktemp("off") / "mesh.off"
    save_mesh(m, path)
    loaded = load_mesh(path)
    _assert_same_mesh(loaded,
                      SimplicialManifold(m.n, m.vertices, m.oriented_cells))
    assert _bitwise(loaded.oriented_cells, m.oriented_cells)
    for p in range(m.n + 1):
        assert _bitwise(loaded.simplices[p], m.simplices[p])
    assert np.allclose(loaded.vertices, m.vertices, rtol=1e-15, atol=0)
