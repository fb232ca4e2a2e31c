"""Shared fixtures: meshes, coverings, and spectra reused across modules.

Everything heavy is session-scoped; patch extraction and operator caches
live on the fixture objects, so later tests reuse earlier work.  The
per-item oracles the batched library code is checked against live here
too.
"""

import json
import math
import sys
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components, dijkstra

from hodge_rsm import analysis, covering, dec, geometry, local_solver, rsm


def pytest_terminal_summary(terminalreporter):
    # acceptance verdicts are printed inside (captured) tests; repeat
    # them where they are always visible
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


_DENSE_DISTANCES = weakref.WeakKeyDictionary()


def all_geodesic_distances(m):
    """Dense V x V geodesic distance oracle, one all-pairs search per
    mesh, cached for the mesh's lifetime.  Tests only: the library
    searches single sources within a bound."""
    if m not in _DENSE_DISTANCES:
        _DENSE_DISTANCES[m] = dijkstra(m.graph, directed=False)
    return _DENSE_DISTANCES[m]


def geodesic_distance(m, source, limit=None):
    """Single-source distances along weighted edges by one scipy Dijkstra
    search, inf beyond `limit`: the oracle of geometry.ball_searches,
    which searches many sources at once without a length-V array per
    source."""
    if not 0 <= source < m.num_vertices:
        raise ValueError(f"invalid vertex {source}")
    return dijkstra(m.graph, directed=True, indices=source,
                    limit=math.inf if limit is None else limit)


def euler_characteristic(m) -> int:
    """The alternating sum of the simplex counts of m."""
    return sum((-1) ** p * m.num_simplices(p) for p in range(m.n + 1))


def total_volume(m) -> float:
    """The n-volume of m."""
    return float(m.volumes[m.n].sum())


def simplex_index(m, p, vertices) -> int:
    """Index of the p-simplex of m with these vertices (any order), by
    the manifold's key lookup; raises KeyError when they span no
    p-simplex."""
    row = np.sort(np.asarray(vertices, dtype=np.int64))
    i = -1
    if row.shape == (p + 1,) and 0 <= row[0] and row[-1] < m.num_vertices:
        i = int(m._find(p, row[None])[0])
    if i < 0:
        raise KeyError(tuple(row.tolist()))
    return i


def vertex_mask_to_simplex_mask(m, p, vmask):
    """The p-simplices of m with every vertex inside the vertex mask."""
    return vmask[m.simplices[p]].all(axis=1)


def _perm_sign(seq) -> int:
    """Sign of the permutation sorting `seq` (distinct entries)."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def _cayley_menger_volume_sq(d2):
    """Squared p-volume from the (p+1)x(p+1) squared-distance matrix."""
    k = d2.shape[0]
    p = k - 1
    B = np.ones((k + 1, k + 1))
    B[0, 0] = 0.0
    B[1:, 1:] = d2
    coeff = (-1) ** (p + 1) / (2**p * math.factorial(p) ** 2)
    return coeff * np.linalg.det(B)


class LoopManifold:
    """Mesh construction oracle: the complex, metric and checks of
    geometry.SimplicialManifold computed one simplex at a time, with
    tuple-keyed index dicts and one determinant per simplex.  Tests only:
    the library builds the same arrays with batched array operations."""

    def __init__(self, dimension, vertices, cells, edge_lengths=None,
                 normalize=True, validate=True):
        MeshError = geometry.MeshError
        self.n = int(dimension)
        self.vertices = np.asarray(vertices, dtype=float)
        cells = np.asarray(cells, dtype=np.int64)
        if cells.ndim != 2 or cells.shape[1] != self.n + 1:
            raise MeshError("cell array must be (N, n+1)")
        V = self.vertices.shape[0]
        if cells.min(initial=0) < 0 or cells.max(initial=-1) >= V:
            raise MeshError("cell references a missing vertex")
        for row in cells:
            if len(set(row.tolist())) != self.n + 1:
                raise MeshError(f"degenerate cell with repeated vertex: {row}")
        self.oriented_cells = cells.copy()
        self._build_complex(cells)
        self._supplied_lengths = None
        if edge_lengths is not None:
            self._supplied_lengths = np.asarray(edge_lengths, dtype=float)
        self._build_metric()
        graph = self._edge_graph()
        if validate:
            self._validate(graph)
        diam = geometry.SimplicialManifold._approx_diameter(graph) \
            if normalize else 2.0
        # a diameter of 2 within a few ulps is left as it is
        if abs(diam - 2.0) > 4 * np.spacing(2.0):
            scale = 2.0 / diam
            self.vertices = self.vertices * scale
            if self._supplied_lengths is not None:
                self._supplied_lengths = self._supplied_lengths * scale
            self._build_metric()
            graph = self._edge_graph()
        self.graph = graph

    def _edge_graph(self):
        edges = self.simplices[1]
        V = self.vertices.shape[0]
        g = sp.csr_matrix((self.edge_lengths, (edges[:, 0], edges[:, 1])),
                          shape=(V, V))
        return g + g.T

    def _build_complex(self, cells):
        n = self.n
        simplices = [None] * (n + 1)
        simplices[n] = np.unique(np.sort(cells, axis=1), axis=0)
        if simplices[n].shape[0] != cells.shape[0]:
            raise geometry.MeshError("duplicate cells")
        for p in range(n, 0, -1):
            faces = [np.delete(simplices[p], drop, axis=1)
                     for drop in range(p + 1)]
            simplices[p - 1] = np.unique(np.vstack(faces), axis=0)
        simplices[0] = np.arange(self.vertices.shape[0], dtype=np.int64)[:, None]
        self.simplices = simplices
        self._index = [{tuple(row): i for i, row in enumerate(simplices[p])}
                       for p in range(n + 1)]
        self.boundary = [None] * (n + 1)
        for p in range(1, n + 1):
            rows, cols, vals = [], [], []
            lower = self._index[p - 1]
            for j, simp in enumerate(simplices[p]):
                for i in range(p + 1):
                    rows.append(lower[tuple(np.delete(simp, i))])
                    cols.append(j)
                    vals.append((-1) ** i)
            self.boundary[p] = sp.csr_matrix(
                (vals, (rows, cols)),
                shape=(simplices[p - 1].shape[0], simplices[p].shape[0]),
                dtype=np.int64)
        self._cell_faces = [None] * (n + 1)
        for p in range(n + 1):
            idx = self._index[p]
            table = np.empty(
                (simplices[n].shape[0], math.comb(n + 1, p + 1)),
                dtype=np.int64)
            for c, cell in enumerate(simplices[n]):
                for k, sub in enumerate(combinations(cell.tolist(), p + 1)):
                    table[c, k] = idx[sub]
            self._cell_faces[p] = table

    def _build_metric(self):
        n = self.n
        edges = self.simplices[1]
        if self._supplied_lengths is not None:
            self.edge_lengths = self._supplied_lengths.copy()
        else:
            d = self.vertices[edges[:, 1]] - self.vertices[edges[:, 0]]
            self.edge_lengths = np.linalg.norm(d, axis=1)
        if np.any(self.edge_lengths <= 0):
            raise geometry.MeshError("non-positive edge length")
        len_of = {tuple(e): l for e, l in zip(map(tuple, edges),
                                              self.edge_lengths)}
        self.volumes = [None] * (n + 1)
        self.volumes[0] = np.ones(self.vertices.shape[0])
        self.volumes[1] = self.edge_lengths.copy()
        for p in range(2, n + 1):
            simp = self.simplices[p]
            vols = np.empty(simp.shape[0])
            for i, s in enumerate(simp):
                k = p + 1
                d2 = np.zeros((k, k))
                for a in range(k):
                    for b in range(a + 1, k):
                        l = len_of[(s[a], s[b])]
                        d2[a, b] = d2[b, a] = l * l
                vols[i] = math.sqrt(max(_cayley_menger_volume_sq(d2), 0.0))
            self.volumes[p] = vols
        self.support_volumes = [None] * (n + 1)
        for p in range(n + 1):
            sv = np.zeros(self.simplices[p].shape[0])
            share = self.volumes[n] / math.comb(n + 1, p + 1)
            np.add.at(sv, self._cell_faces[p].ravel(),
                      np.repeat(share, self._cell_faces[p].shape[1]))
            self.support_volumes[p] = sv

    def _validate(self, graph):
        MeshError = geometry.MeshError
        n = self.n
        face_count = np.abs(self.boundary[n]).sum(axis=1).A1
        if np.any(face_count != 2):
            bad = int(np.argmax(face_count != 2))
            raise MeshError(f"non-manifold or open mesh: face {bad} lies in "
                            f"{int(face_count[bad])} cells")
        len_of = {tuple(e): l for e, l in
                  zip(map(tuple, self.simplices[1]), self.edge_lengths)}
        for s in self.simplices[2]:
            a = len_of[(s[0], s[1])]
            b = len_of[(s[1], s[2])]
            c = len_of[(s[0], s[2])]
            if a + b <= c or a + c <= b or b + c <= a:
                raise MeshError(f"triangle inequality fails on simplex {s}")
        mean_vol = self.volumes[n].mean()
        if np.any(self.volumes[n]
                  < geometry.DEGENERATE_VOLUME_FRACTION * mean_vol):
            raise MeshError("degenerate cell (volume below threshold)")
        induced = {}
        for cell in self.oriented_cells:
            sign_cell = _perm_sign(cell.tolist())
            scell = np.sort(cell)
            for i in range(n + 1):
                face = tuple(np.delete(scell, i))
                induced.setdefault(face, []).append(sign_cell * (-1) ** i)
        for face, signs in induced.items():
            if len(signs) != 2 or signs[0] + signs[1] != 0:
                raise MeshError(f"inconsistent orientation across face {face}")
        if connected_components(graph, directed=False)[0] != 1:
            raise MeshError("mesh is not connected")


def loop_torus_cells(N):
    """Cells of the flat-torus generator, built square by square."""
    cells = []
    for i in range(N):
        for j in range(N):
            a = i * N + j
            b = ((i + 1) % N) * N + j
            c = ((i + 1) % N) * N + (j + 1) % N
            d = i * N + (j + 1) % N
            cells.append((a, b, c))
            cells.append((a, c, d))
    return np.array(cells, dtype=np.int64)


def loop_kuhn_cells(N):
    """Cells of the 3-torus generator, built cube by cube and path by
    path (Kuhn split)."""
    def vid(i, j, k):
        return ((i % N) * N + j % N) * N + k % N

    cells = []
    for i in range(N):
        for j in range(N):
            for k in range(N):
                for perm in permutations(range(3)):
                    path = [(i, j, k)]
                    cur = [i, j, k]
                    for ax in perm:
                        cur = cur.copy()
                        cur[ax] += 1
                        path.append(tuple(cur))
                    tet = [vid(*p) for p in path]
                    if _perm_sign(perm) < 0:
                        tet[0], tet[1] = tet[1], tet[0]
                    cells.append(tet)
    return np.array(cells, dtype=np.int64)


@pytest.fixture(scope="session")
def torus8():
    return geometry.generate_test_manifold("flat_torus", 8)


@pytest.fixture(scope="session")
def torus16():
    return geometry.generate_test_manifold("flat_torus", 16)


@pytest.fixture(scope="session")
def torus32():
    return geometry.generate_test_manifold("flat_torus", 32)


@pytest.fixture(scope="session")
def sphere4():
    return geometry.generate_test_manifold("sphere", 4)


@pytest.fixture(scope="session")
def sphere16():
    return geometry.generate_test_manifold("sphere", 16)


@pytest.fixture(scope="session")
def sphere8():
    return geometry.generate_test_manifold("sphere", 8)


@pytest.fixture(scope="session")
def bumpy16():
    return geometry.generate_test_manifold("bumpy_torus", 16, 0.3)


@pytest.fixture(scope="session")
def torus3d8():
    return geometry.generate_flat_torus_3d(8)


def _cover_bundle(m, eps=0.1):
    rf = covering.compute_radius_field(m, eps)
    cov = covering.vitali_cover(m, rf)
    covering.partition_of_unity(m, cov)
    return rf, cov


@pytest.fixture(scope="session")
def cover16(torus16):
    return _cover_bundle(torus16)


@pytest.fixture(scope="session")
def cover32(torus32):
    return _cover_bundle(torus32)


@pytest.fixture(scope="session")
def cover_bumpy(bumpy16):
    return _cover_bundle(bumpy16)


@pytest.fixture(scope="session")
def cover_sphere8(sphere8):
    return _cover_bundle(sphere8)


@pytest.fixture(scope="session")
def torus3d5():
    return geometry.generate_flat_torus_3d(5)


@pytest.fixture(scope="session")
def cover3d5(torus3d5):
    return _cover_bundle(torus3d5)


@pytest.fixture(scope="session")
def weight16(cover16):
    return covering.weight_from_radius(cover16[0], 1)


@pytest.fixture(scope="session")
def spec16_p1(torus16):
    return analysis.spectrum(torus16, 1)


@pytest.fixture(scope="session")
def spec16_p0(torus16):
    return analysis.spectrum(torus16, 0)


@pytest.fixture(scope="session")
def spec32_p1(torus32):
    return analysis.spectrum(torus32, 1)


def oracle_spectrum(m, p, m_eigs=10,
                    harmonic_tol=analysis.HARMONIC_TOL_REL):
    """The dense spectrum `analysis.spectrum` once computed below
    DENSE_LIMIT: all N eigenpairs of S = M^-1/2 K M^-1/2 by `eigh`, with
    the tolerance relative to the computed top eigenvalue.  Cubic in N."""
    K = dec.stiffness_matrix(m, p)
    Mh = np.sqrt(dec.mass_diagonal(m, p))
    S = K.toarray() / Mh[:, None] / Mh[None, :]
    vals, vecs = np.linalg.eigh(S)
    scale = float(vals[-1])
    vals = vals[:m_eigs]
    vecs = vecs[:, :m_eigs]
    if vals[0] < -1e-12 * scale:
        raise analysis.AnalysisError("negative eigenvalue beyond tolerance")
    tol = harmonic_tol * scale
    dim = int(np.sum(vals < tol))
    above = vals[vals >= tol]
    gap = float(above[0]) if above.size else math.inf
    cluster = bool(np.any((vals >= tol) & (vals < 100 * tol))) \
        or (above.size > 0 and gap < 1e-6 * scale)
    # a threshold below the numerical-zero band cannot classify kernels
    zero_band = 1e-12 * scale
    if tol < zero_band and np.any(np.abs(vals) < zero_band):
        cluster = True
    basis = vecs[:, :dim] / Mh[:, None]
    # re-orthonormalize in the mass inner product
    if dim:
        G = (basis * dec.mass_diagonal(m, p)[:, None]).T @ basis
        L = np.linalg.cholesky(G)
        basis = basis @ np.linalg.inv(L).T
    return analysis.SpectrumReport(p, np.maximum(vals, 0.0), dim, gap, basis,
                                   tol, scale, cluster)


def oracle_gap_solve(m, rep, g, rtol: float = 1e-11,
                     max_iter=None):
    """The plain deflated conjugate gradient `analysis.gap_solve` ran
    before it was preconditioned, with the same contract (see there)."""
    p = g.degree
    K = dec.stiffness_matrix(m, p)
    Mw = dec.mass_diagonal(m, p)
    H = rep.harmonic_basis

    def project(x):
        if rep.harmonic_dim:
            return x - H @ (H.T @ (Mw * x))
        return x

    b = Mw * project(g.values)
    x = np.zeros_like(b)
    res = b.copy()
    d = res.copy()
    rs = res @ res
    tol = rtol * float(np.linalg.norm(Mw * g.values))
    if math.sqrt(rs) <= tol:
        return dec.Cochain(m, p, x)
    limit = max_iter or 20 * len(b)
    for it in range(limit):
        Kd = K @ d
        alpha = rs / (d @ Kd)
        x += alpha * d
        res -= alpha * Kd
        rs_new = res @ res
        if math.sqrt(rs_new) <= tol:
            break
        d = res + (rs_new / rs) * d
        rs = rs_new
    else:
        raise analysis.AnalysisError("gap_solve: residual stagnation")
    x = project(x)
    f = dec.Cochain(m, p, x)
    if rep.gap > 0 and math.isfinite(rep.gap):
        if dec.norm_l2(f) > dec.norm_l2(g) / rep.gap * (1 + 1e-8):
            raise analysis.AnalysisError("gap_solve: spectral bound violated")
    return f


# -- roundoff budget ----------------------------------------------------
# How far an output may move when only its evaluation order or method
# changes: one budget per output kind, each relative to the quantity
# named.  Integers (counts, ranks, dimensions) and verdicts have none:
# they are exact.  A move within its budget is not an output change; a
# move beyond it is.
ROUNDOFF_BUDGET = {
    # a norm, density, weight, residual, eigenvalue or solve summed in
    # another order: relative to its value, or to its column's or
    # vector's norm
    "sum": 1e-13,
    # a fitted constant (C1, C2 of the CZI fit): relative to C1 + C2
    "fit": 8 * np.finfo(float).eps,
}


def oracle_czi_fit(samples):
    """Exact optimum (C1, C2) of the CZI fit's linear program, without
    headroom, in rationals: min C1 + C2 over t1*C1 + t2*C2 >= lhs for
    every sample and C1, C2 >= 0.  Every pair of constraint lines with a
    nonzero determinant gives a vertex; the least feasible C1 + C2 wins,
    a tie going to the larger C1.  None when no vertex is feasible."""
    rows = [tuple(Fraction(x) for x in s) for s in samples]
    rows += [(Fraction(0), Fraction(1), Fraction(0)),
             (Fraction(0), Fraction(0), Fraction(1))]
    best = None
    for (li, ai, bi), (lj, aj, bj) in combinations(rows, 2):
        det = ai * bj - aj * bi
        if det == 0:
            continue
        c = ((li * bj - lj * bi) / det, (ai * lj - aj * li) / det)
        if all(a * c[0] + b * c[1] >= l for l, a, b in rows):
            if best is None or (sum(c), -c[0]) < (sum(best), -best[0]):
                best = c
    return best


def assert_czi_fit_within_budget(samples, got,
                                 headroom=analysis.CZI_HEADROOM):
    """`got` is the exact optimum times `headroom`, each constant to the
    "fit" budget."""
    want = [c * Fraction(headroom) for c in oracle_czi_fit(samples)]
    scale = ROUNDOFF_BUDGET["fit"] * sum(want)
    assert all(abs(Fraction(g) - w) <= scale for g, w in zip(got, want)), \
        (got, [float(w) for w in want])


@pytest.fixture()
def rng():
    return np.random.default_rng(20260826)


@dataclass
class Patch:
    """Simplices of one covering ball with interior/boundary split, as
    index lists.  Tests only: the library keeps the patches of all balls
    as columns of sparse matrices (local_solver.Patches)."""

    manifold: geometry.SimplicialManifold
    ball: object
    cells: np.ndarray                      # patch n-cell indices
    interior: dict = field(default_factory=dict)   # degree -> simplex idx
    boundary: dict = field(default_factory=dict)
    _sub: tuple | None = None

    def patch_simplices(self, p: int) -> np.ndarray:
        return np.sort(np.concatenate([self.interior[p], self.boundary[p]]))

    def submesh(self):
        """Patch cells as a standalone complex with the true edge lengths,
        placed by the chart frame at the ball's center fitted out to the
        doubled covering radius, which holds every patch vertex.

        The independent reference of the patch assembly
        (local_solver._assemble).  Returns (sub, verts, rows) where
        rows[p] maps this patch's global interior p-simplices to submesh
        row indices.
        """
        if self._sub is None:
            m = self.manifold
            cells = m.simplices[m.n][self.cells]
            verts = np.unique(cells)
            coords = LoopChartFrame(
                m, self.ball.center,
                2.0 * self.ball.covering_radius).coordinates[verts]
            # numbering the patch vertices by rank keeps the lexicographic
            # order of simplices: the submesh's p-simplices are the
            # patch's, in increasing global index
            sub = geometry.SimplicialManifold(
                m.n, coords, np.searchsorted(verts, cells),
                edge_lengths=m.edge_lengths[self.patch_simplices(1)],
                normalize=False, validate=False)
            rows = {p: np.searchsorted(self.patch_simplices(p),
                                       self.interior[p])
                    for p in range(m.n + 1)}
            self._sub = (sub, verts, rows)
        return self._sub


def extract_patch(m, cov, j):
    """The Patch of ball j, built with length-N masks and full incidence
    products for this one ball.  Tests only: the library extracts every
    patch in one batched pass (local_solver.Patches.extract).

    Boundary (n-1)-faces are those lying in exactly one patch n-cell;
    boundary p-simplices are their p-faces, found top down through the
    unsigned incidence: the faces of boundary (p+1)-simplices.
    """
    ball = cov.balls[j]
    n = m.n
    vmask = np.zeros(m.num_vertices, dtype=bool)
    vmask[column(cov.members, j)] = True
    cell_mask = vertex_mask_to_simplex_mask(m, n, vmask)
    cells = np.flatnonzero(cell_mask)
    patch = Patch(m, ball, cells)

    # faces of patch cells, per degree
    in_patch = [np.zeros(m.num_simplices(p), dtype=bool) for p in range(n + 1)]
    in_patch[n][cells] = True
    for p in range(n):
        in_patch[p][m._cell_faces[p][cells].ravel()] = True

    bnd = [None] * (n + 1)
    bnd[n] = np.zeros(m.num_simplices(n), dtype=bool)
    bnd[n - 1] = abs(m.boundary[n]) @ cell_mask.astype(np.int64) == 1
    for p in range(n - 2, -1, -1):
        bnd[p] = abs(m.boundary[p + 1]) @ bnd[p + 1].astype(np.int64) > 0
    for p in range(n + 1):
        patch.interior[p] = np.flatnonzero(in_patch[p] & ~bnd[p])
        patch.boundary[p] = np.flatnonzero(bnd[p])
    return patch


def covering_of(m, balls, members, eps=0.1):
    """An AdmissibleCovering of hand-picked balls of m and their member
    lists (each ascending), with their membership, and nothing else."""
    offsets = np.concatenate([[0], np.cumsum([x.size for x in members])])
    return covering.AdmissibleCovering(balls, eps, covering.membership(
        np.concatenate(members), offsets, m.num_vertices))


def searched_membership(m, cov) -> sp.csc_matrix:
    """The vertices x balls membership of cov rebuilt from one bounded
    search per ball (geometry.ball_search to its covering radius), by a
    COO build.  Tests only: vitali_cover concatenates one batched
    search and builds it with covering.membership."""
    found = [geometry.ball_search(m, b.center, b.covering_radius)[0]
             for b in cov.balls]
    cols = np.repeat(np.arange(len(found)), [x.size for x in found])
    return sp.coo_matrix((np.ones(cols.size), (np.concatenate(found), cols)),
                         shape=(m.num_vertices, len(found))).tocsc()


def per_element_covering_json(cov, rf, key) -> str:
    """The text save_covering writes, from a dict whose columns are
    converted entry by entry with int() and float(), ball by ball, and
    chi looked up member by member (0.0 where chi stores no entry).
    Tests only: the library converts whole arrays
    (covering.covering_to_dict)."""
    chi = cov.chi.todok()
    members = [column(cov.members, b.index) for b in cov.balls]
    return json.dumps({
        "eps": cov.eps,
        "overlap_measured": cov.overlap_measured,
        "centers": [int(b.center) for b in cov.balls],
        "member_offsets": [0] + np.cumsum(
            [x.size for x in members]).tolist(),
        "members": [int(v) for x in members for v in x],
        "chi": [float(chi.get((int(v), b.index), 0.0)) for b, x in
                zip(cov.balls, members) for v in x],
        "radius_field": {"values": [float(x) for x in rf.values],
                         "eps": rf.eps, "divisor": rf.divisor,
                         "divisor_effective": rf.divisor_effective},
        "key": key,
    }, sort_keys=True)


def old_layout_covering(cov, rf, key) -> dict:
    """The covering.json of earlier versions: a list of balls with their
    radii and members, and the partition of unity as (vertex, ball,
    value) triplets."""
    chi = sp.coo_matrix(cov.chi)
    return {
        "eps": cov.eps,
        "overlap_measured": cov.overlap_measured,
        "balls": [{
            "center": b.center,
            "core_radius": b.core_radius,
            "covering_radius": b.covering_radius,
            "admissible_radius": b.admissible_radius,
            "members": column(cov.members, b.index).tolist(),
        } for b in cov.balls],
        "partition_triplets": [[int(i), int(j), float(v)] for i, j, v
                               in zip(chi.row, chi.col, chi.data)],
        "radius_field": {"values": rf.values.tolist(), "eps": rf.eps,
                         "divisor": rf.divisor,
                         "divisor_effective": rf.divisor_effective},
        "key": key,
    }


def oracle_patches(m, cov):
    """The extract_patch oracle of every ball of cov."""
    return [extract_patch(m, cov, j) for j in range(len(cov.balls))]


def balls_without_whole_star(m, cov):
    """Indices of the balls of cov holding no vertex together with all
    its neighbours: the star rule, one length-V mask per ball.  Tests
    only: the library's rule is an empty column of Patches.interior[0],
    the same balls, since a vertex's link is connected."""
    g = m.graph.tocsr()
    flagged = []
    for j in range(len(cov.balls)):
        inside = np.zeros(m.num_vertices, dtype=bool)
        inside[column(cov.members, j)] = True
        whole = np.logical_and.reduceat(inside[g.indices], g.indptr[:-1])
        if not (inside & whole).any():
            flagged.append(j)
    return flagged


def refused_balls(m, cov):
    """Indices of the balls of cov that Patches.extract refuses, by the
    oracles: no vertex with its whole star, or no boundary (n-1)-face."""
    starless = balls_without_whole_star(m, cov)
    return [j for j, patch in enumerate(oracle_patches(m, cov))
            if j in starless or patch.boundary[m.n - 1].size == 0]


def assemble_oracle(patches, p):
    """The PatchSystem of a list of oracle Patches, not factored, through
    per-patch concatenations of their index lists into the PatchComplex.
    Tests only: the library reads the rows off the indices of the
    batched matrices (local_solver._assemble)."""
    m = patches[0].manifold
    n, J = m.n, len(patches)
    simplices, owner, starts, keys = [], [], [], []
    for q in range(n + 1):
        parts = [pt.patch_simplices(q) for pt in patches]
        sizes = [x.size for x in parts]
        simplices.append(np.concatenate(parts))
        owner.append(np.repeat(np.arange(J), sizes))
        starts.append(np.concatenate([[0], np.cumsum(sizes)]))
        keys.append(owner[q] * m.num_simplices(q) + simplices[q])

    def rows(q, own, glob):
        return np.searchsorted(keys[q], own * m.num_simplices(q) + glob)

    boundary = [None] * (n + 1)
    for q in range(1, n + 1):
        B = m.boundary[q].tocsc()[:, simplices[q]].tocoo()
        boundary[q] = sp.csr_matrix(
            (B.data, (rows(q - 1, owner[q][B.col], B.row), B.col)),
            shape=(simplices[q - 1].size, simplices[q].size))
    volumes = [m.volumes[q][simplices[q]] for q in range(n + 1)]
    cells = simplices[n]
    support = [geometry.lumped_supports(
        volumes[n], rows(q, owner[n][:, None], m._cell_faces[q][cells]),
        simplices[q].size) for q in range(n + 1)]
    union = local_solver.PatchComplex(n, keys, boundary, volumes, support)
    sizes = np.array([pt.interior[p].size for pt in patches])
    pos = np.repeat(np.arange(J), sizes)
    glob = np.concatenate([pt.interior[p] for pt in patches])
    r = rows(p, pos, glob)
    K = dec.stiffness_matrix(union, p)[r][:, r].tocsc()
    mask = sp.csc_matrix((np.ones(simplices[p].size, dtype=bool),
                          simplices[p], starts[p]),
                         shape=(m.num_simplices(p), J))
    balls = np.array([pt.ball.index for pt in patches])
    return local_solver.PatchSystem(
        glob, np.concatenate([[0], np.cumsum(sizes)]), balls[pos], K,
        dec.mass_diagonal(union, p)[r], mask)


def column(A, j):
    """The stored row indices of column j of a CSC matrix."""
    return A.indices[A.indptr[j]:A.indptr[j + 1]]


def flat_stiffness_oracle(patch, p, flat_edge_lengths=None):
    """(K_II, M_I): the interior stiffness and mass of the patch in the
    chart metric, from a manifold rebuilt on the patch submesh with the
    edge lengths of its chart coordinates (or of a per-global-edge
    override).  Tests only: the library assembles the same system on the
    patch union (local_solver._assemble with lengths)."""
    sub, _, rows = patch.submesh()
    lengths = None
    if flat_edge_lengths is not None:
        lengths = flat_edge_lengths[patch.patch_simplices(1)]
    flat = geometry.SimplicialManifold(sub.n, sub.vertices,
                                       sub.oriented_cells,
                                       edge_lengths=lengths, normalize=False,
                                       validate=False)
    r = rows[p]
    K_II = dec.stiffness_matrix(flat, p)[np.ix_(r, r)].tocsc()
    return K_II, dec.mass_diagonal(flat, p)[r]


def oracle_densities(m, p, values, order):
    """dec.densities of every column of a sparse simplices x cochains
    matrix, by sparse products.  Tests only: the library evaluates them
    on the stacked vector through a dec.DensityPlan."""
    def dens(q, x):
        x = abs(x).tocsr()
        x.data /= np.repeat(m.volumes[q], np.diff(x.indptr))
        return x

    if order == 0:
        return dens(p, values)
    # order 1: face average of |d*u|, coface average of |du|;
    # order 2: |Lap u|, |dd*u|, |d*du|
    terms = [dens(p, dec.hodge_laplacian(m, p).matrix @ values)] \
        if order == 2 else []
    if p > 0:
        dsu = dec.codifferential(m, p).matrix @ values
        terms.append(dec._face_average(m, p) @ dens(p - 1, dsu)
                     if order == 1 else
                     dens(p, dec.exterior_derivative(m, p - 1).matrix @ dsu))
    if p < m.n:
        du = dec.exterior_derivative(m, p).matrix @ values
        terms.append(dec._coface_average(m, p) @ dens(p + 1, du)
                     if order == 1 else
                     dens(p, dec.codifferential(m, p + 1).matrix @ du))
    return sum(t.multiply(t) for t in terms).sqrt()


def oracle_operator(m, name, p):
    """dec's codifferential (name "dstar"), face and coface averages and
    scaled stiffness ("scaled_stiff") of degree p as the sparse products
    with diagonal matrices that first formed them.  Tests only: the
    library scales the incidence arrays and a copy of the stiffness in
    place (dec.diag_product, dec._average), in the entry order of those
    products."""
    if name == "scaled_stiff":
        mih = sp.diags(1.0 / np.sqrt(dec.mass_diagonal(m, p)))
        return mih @ dec.stiffness_matrix(m, p) @ mih
    if name == "dstar":
        d = m.boundary[p].T.tocsr().astype(float)
        return (sp.diags(1.0 / dec.mass_diagonal(m, p - 1)) @ d.T
                @ sp.diags(dec.mass_diagonal(m, p))).tocsr()
    adj = abs(m.boundary[p + 1]).astype(float) if name == "coface" \
        else abs(m.boundary[p]).astype(float).T
    counts = np.asarray(adj.sum(axis=1)).ravel()
    return sp.diags(1.0 / np.maximum(counts, 1)) @ adj


def _oracle_half_operators(m, p):
    """((first, average, second), q, first, average, second matrices) of
    each half of the Laplacian at degree p, named one by one."""
    out = []
    if p > 0:
        out.append((("dstar", "face", "d"), p - 1,
                    dec.codifferential(m, p).matrix, dec._face_average(m, p),
                    dec.exterior_derivative(m, p - 1).matrix))
    if p < m.n:
        out.append((("d", "coface", "dstar"), p + 1,
                    dec.exterior_derivative(m, p).matrix,
                    dec._coface_average(m, p),
                    dec.codifferential(m, p + 1).matrix))
    return out


def oracle_plan_steps(m, p, index, offsets):
    """(steps, patterns) of dec.DensityPlan(m, p, index, offsets),
    each step built by one argsort of its (pattern entry, operator entry)
    pairs, the one ring by one sort of the keys the last steps reach, and
    each last step's rows placed on it by a search.  Tests only: the
    library gathers the operator's columns at the pattern and regroups
    them by one counting pass."""
    N = m.num_simplices(p)

    def step(A, col, row):
        # operator entries t that read simplex row[e], for every entry e
        by_col = np.argsort(A.indices, kind="stable")
        starts = np.concatenate([[0], np.cumsum(np.bincount(
            A.indices, minlength=A.shape[1]))])
        counts = starts[row + 1] - starts[row]
        src = np.repeat(np.arange(row.size), counts)
        t = by_col[np.arange(src.size)
                   + np.repeat(starts[row] - np.cumsum(counts) + counts,
                               counts)]
        a_row = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
        keys = col[src].astype(np.int64) * A.shape[0] + a_row[t]
        # one matrix row per key, its entries in the operator row's order
        order = np.argsort(keys * A.nnz + t) \
            if keys.max(initial=0) < np.iinfo(np.int64).max // A.nnz \
            else np.lexsort((t, keys))
        keys, src, t = keys[order], src[order], t[order]
        first = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
        keys = keys[first]
        return (A.data[t], src, first, keys.size, row.size), \
            keys // A.shape[0], keys % A.shape[0]

    def csr(data, indices, first, rows, width):
        return sp.csr_matrix((data, indices, np.append(first, data.size)),
                             shape=(rows, width))

    stacked = (np.repeat(np.arange(offsets.size - 1), np.diff(offsets)),
               np.asarray(index, dtype=np.int64))
    steps, last = {}, []
    for (first, average, second), _, A, avg, B in _oracle_half_operators(m,
                                                                          p):
        parts, col, row = step(A, *stacked)
        steps[first,] = csr(*parts)
        for name, op in ((average, avg), (second, B)):
            parts, c, a = step(op, col, row)
            last.append(((first, name), parts, c * N + a))
    ring = np.unique(np.concatenate([key for *_, key in last]))
    for chain, (data, src, first, _, width), key in last:
        rows = np.searchsorted(ring, key)
        counts = np.diff(np.append(first, data.size))
        steps[chain] = sp.csr_matrix(
            (data, src, np.concatenate([[0], np.cumsum(np.bincount(
                rows, counts, minlength=ring.size).astype(np.int64))])),
            shape=(ring.size, width))
    patterns = [tuple(x.astype(np.int32) for x in stacked),
                ((ring // N).astype(np.int32), (ring % N).astype(np.int32))]
    return steps, patterns


def assert_plan_matches_step_oracle(m, p, plan, index, offsets):
    """Every step and both patterns of plan equal the argsort oracle's
    bit for bit: format, dtype, data, indices and indptr."""
    steps, patterns = oracle_plan_steps(m, p, index, offsets)
    assert plan.steps.keys() == steps.keys()
    for chain, want in steps.items():
        got = plan.steps[chain]
        assert got.format == want.format and got.shape == want.shape
        for attr in ("data", "indices", "indptr"):
            x, y = getattr(got, attr), getattr(want, attr)
            assert x.dtype == y.dtype and np.array_equal(x, y), (chain, attr)
    assert len(plan.patterns) == len(patterns)
    for k, want in enumerate(patterns):
        for x, y in zip(plan.patterns[k], want, strict=True):
            assert x.dtype == y.dtype and np.array_equal(x, y), k


def assert_ring_is_oracle_union(m, p, plan, x, shape):
    """The one ring of plan is the union of the patterns of the sparse
    oracle's densities of orders 1 and 2 of the stacked vector x on
    pattern 0 (random values, so no entry cancels)."""
    col, row = plan.patterns[0]
    cols = sp.csc_matrix((x, (row, col)), shape=shape)
    union = (oracle_densities(m, p, cols, 1) != 0) \
        + (oracle_densities(m, p, cols, 2) != 0)
    want_col, want_row = union.tocsc().nonzero()[::-1]
    order = np.lexsort((want_row, want_col))
    assert np.array_equal(plan.patterns[1][0], want_col[order])
    assert np.array_equal(plan.patterns[1][1], want_row[order])


def oracle_restriction(dens, k, mask):
    """DensityPlan.restriction by its definition: None for a full mask,
    else the entries and cochains of pattern k where mask holds."""
    if mask.all():
        return None
    return np.flatnonzero(mask), dens.patterns[k][0][mask]


def oracle_ball_simplices(m, p, members):
    """p-simplices x balls mask, true where every vertex of the simplex
    is in the ball, from simplex_average of the membership; CSC with
    sorted indices.  Tests only: the library forms it as one incidence
    product (rsm.ball_simplices)."""
    balls = (geometry.simplex_average(m, p, members.tocsr()) >= 1.0).tocsc()
    balls.sort_indices()
    return balls


def oracle_gather(dens, A, keys):
    """dec.DensityPlan.gather as first written, by element indexing of a
    CSR copy of A.  Tests only: the library reads A in its own compressed
    order."""
    A = A.tocsr()
    return [np.asarray(A[row, col]).ravel()
            for col, row in (dens.patterns[k] for k in keys)]


def oracle_ledger_plan(m, cov, dens) -> dict:
    """The fields of rsm.LedgerPlan.build(m, cov, dens) but dens, as it
    first built them, and the chi of the patch system (which the plan
    held then): the partition weights and the ball masks formed as
    simplices x balls matrices (geometry.simplex_average) and sampled on
    the plan's two patterns, the patch simplices of the degree's patch
    system sampled there too, the membership rebuilt from one search per
    ball, the ball volumes and the pattern overlaps from it and from the
    patterns by sparse sums."""
    p = dens.p
    members = searched_membership(m, cov)
    chi = geometry.simplex_average(m, p, cov.chi.tocsr())
    balls = oracle_ball_simplices(m, p, members)
    chi0, chi_ring = oracle_gather(dens, chi, (0, 1))
    support = rsm.patch_system(m, cov, p).support

    def restrictions(mask):
        return [oracle_restriction(dens, k, x) for k, x in
                enumerate(oracle_gather(dens, mask, (0, 1)))]

    return {"system.chi": chi0, "chi_ring": chi_ring,
            "support": restrictions(support),
            "balls": restrictions(balls),
            "ball_rows": balls.indices,
            "ball_cols": np.repeat(np.arange(len(cov)),
                                   np.diff(balls.indptr)),
            "radii": cov.radii(),
            "volumes": members.T @ m.dual_volumes(),
            "overlap": [int(sp.csr_matrix(
                (np.ones(dens.patterns[k][1].size),
                 (dens.patterns[k][1], dens.patterns[k][0])),
                shape=(m.num_simplices(p), len(cov))).sum(axis=1).max())
                for k in range(2)]}


def _assert_same(got, want, name):
    """got equals want bit for bit: dtype and values of arrays, format
    and arrays of sparse matrices, items of lists and tuples, None."""
    if want is None or isinstance(want, int):
        assert got == want and type(got) is type(want), name
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), name
        for x, y in zip(got, want):
            _assert_same(x, y, name)
    elif sp.issparse(want):
        assert (got.format, got.shape) == (want.format, want.shape), name
        for a in ("data", "indices", "indptr"):
            _assert_same(getattr(got, a), getattr(want, a), name)
    else:
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def assert_ledger_plan_matches_oracle(m, cov, p):
    """Every field of the LedgerPlan of degree p, and the chi of its
    patch system, equals oracle_ledger_plan's bit for bit: dtype and
    values, and a sparse field's format and arrays."""
    plan = rsm.ledger_plan(m, cov, p)
    for name, want in oracle_ledger_plan(m, cov, plan.dens).items():
        got = rsm.patch_system(m, cov, p).chi if name == "system.chi" \
            else getattr(plan, name)
        _assert_same(got, want, name)


def oracle_column_norms(m, p, dens, r, mask=None):
    """Unweighted L^r norm of each column of a sparse matrix of p-simplex
    densities, over the rows of a sparse mask of its shape if given.
    Tests only: the library sums over pattern columns
    (dec.DensityPlan.column_norms)."""
    if mask is not None:
        dens = dens.multiply(mask)
    return np.asarray(dens.power(r).T @ m.support_volumes[p]).ravel() \
        ** (1 / r)


@pytest.fixture(scope="session")
def glued_oracle():
    return _glued_oracle


def _glued_oracle(m, cov, patches, omega):
    """T omega patch by patch, independent of the stacked system: a
    dense solve of each patch's submesh interior block K_II u = M_I
    omega_I, weighted by the vertex mean of chi_j and summed."""
    p = omega.degree
    out = np.zeros(m.num_simplices(p))
    chi = cov.chi.toarray()
    for j, patch in enumerate(patches):
        sub, _, rows = patch.submesh()
        r = rows[p]
        K_II = dec.stiffness_matrix(sub, p).toarray()[np.ix_(r, r)]
        M_I = dec.mass_diagonal(sub, p)[r]
        I = patch.interior[p]
        u = np.linalg.solve(K_II, M_I * omega.values[I])
        out[I] += chi[m.simplices[p][I], j].mean(axis=1) * u
    return out


class LoopChartFrame:
    """Chart frame oracle: the frame of one center, fitted on its own with
    its normal equations summed by np.add.at, its distances and
    coordinates kept in length-V arrays (NaN coordinates beyond the
    touched vertices).  Tests only: the library fits the frames of many
    centers in one batched pass (geometry.ChartFrames)."""

    def __init__(self, m, center, reach=math.inf):
        self.m = m
        self.center = center
        self.reach = float(reach)
        n = m.n
        self.distances = geodesic_distance(m, center, limit=reach)
        self.fitted = np.flatnonzero(np.isfinite(self.distances))
        nf = self.fitted.size
        eids = np.unique(geometry._csr_rows(m.boundary[1], self.fitted))
        ends = m.simplices[1][eids]
        touched = np.unique(ends)
        loc = np.searchsorted(touched, ends)
        row = np.searchsorted(self.fitted, ends)
        fitted_end = self.fitted[np.minimum(row, nf - 1)] == ends
        row[~fitted_end] = nf
        target = m.edge_lengths[eids] ** 2

        coords = self._build_coordinates(touched)
        packed = _loop_fit_metric(coords, loc, row, nf, target, n)
        c = np.searchsorted(self.fitted, center)
        try:
            L = np.linalg.cholesky(geometry._unpack_metric(packed[c], n))
            coords = coords @ L
            packed = _loop_fit_metric(coords, loc, row, nf, target, n)
        except np.linalg.LinAlgError:
            pass
        packed[c] = geometry._IDENTITY_PACKED[n]
        self.metric = geometry._unpack_metric(packed, n)
        eigs = np.linalg.eigvalsh(self.metric)
        self.vertex_deviation = np.abs(eigs - 1.0).max(axis=1)
        self.vertex_deviation[~(eigs[:, 0] > 0)] = np.inf
        both = fitted_end.all(axis=1)
        self.edges = eids[both]
        dg = np.abs(packed[row[both, 1]] - packed[row[both, 0]])
        self.edge_difference = dg.max(axis=1)
        self.coordinates = np.full((m.num_vertices, n), np.nan)
        self.coordinates[touched] = coords
        self.foldover_distance = _loop_foldover_distance(
            self.coordinates[self.fitted], self.distances[self.fitted])

    def _build_coordinates(self, verts):
        m, c = self.m, self.center
        g = m.graph
        nbrs = np.sort(g.indices[g.indptr[c]:g.indptr[c + 1]])
        _, _, vt = np.linalg.svd(m.vertices[nbrs] - m.vertices[c],
                                 full_matrices=False)
        basis = vt[: m.n]
        disp = m.vertices[verts] - m.vertices[c]
        proj = disp @ basis.T
        chord = np.linalg.norm(disp, axis=1)
        pnorm = np.linalg.norm(proj, axis=1)
        safe = pnorm > 1e-300
        unit = np.zeros_like(proj)
        unit[safe] = proj[safe] / pnorm[safe, None]
        return chord[:, None] * unit

    def largest_radius_within(self, eps):
        ends = self.distances[self.m.simplices[1][self.edges]].max(axis=1)
        first = min(
            self.distances[self.fitted][self.vertex_deviation > eps].min(
                initial=np.inf),
            ends[self.edge_difference > eps].min(initial=np.inf),
            self.foldover_distance)
        if np.isfinite(first):
            return float(first)
        if self.fitted.size == self.m.num_vertices:
            return float(self.distances.max())
        return np.inf


def _loop_fit_metric(coords, loc, row, nrows, target, n):
    k = 3 if n == 2 else 6
    diff = coords[loc[:, 1]] - coords[loc[:, 0]]
    feat = geometry._metric_feature(diff, n)
    ata = np.zeros((nrows + 1, k, k))
    atb = np.zeros((nrows + 1, k))
    outer = feat[:, :, None] * feat[:, None, :]
    fb = feat * target[:, None]
    np.add.at(ata, row.T.ravel(), np.concatenate([outer, outer]))
    np.add.at(atb, row.T.ravel(), np.concatenate([fb, fb]))
    ata, atb = ata[:nrows], atb[:nrows]
    lam = 1e-8 * max(np.trace(ata.mean(axis=0)), 1e-300)
    ata += lam * np.eye(k)
    atb += lam * geometry._IDENTITY_PACKED[n]
    return np.linalg.solve(ata, atb[:, :, None])[:, :, 0]


def _loop_foldover_distance(coordinates, distances):
    keys = np.round(coordinates / geometry.FOLDOVER_TOL).astype(np.int64)
    order = np.lexsort((distances, *keys.T))
    keys, dist = keys[order], distances[order]
    same = (keys[1:] == keys[:-1]).all(axis=1)
    return float(dist[1:][same].min(initial=np.inf))


def loop_admissible_radius(m, x, eps):
    """covering.admissible_radius one vertex at a time: a LoopChartFrame
    per reach, the reach doubling from R_min while the answer lies
    beyond it."""
    r_min = covering.RADIUS_FLOOR_EDGES * m.mean_edge_length()
    reach = r_min
    while True:
        r = LoopChartFrame(m, x, reach).largest_radius_within(eps)
        if r < math.inf or reach >= 1.0:
            return float(min(1.0, max(r, r_min)))
        reach = min(2.0 * reach, 1.0)


def loop_vitali_centers(m, rf):
    """Centers of covering.vitali_cover, one candidate at a time on the
    dense distance oracle: each candidate in decreasing core order (ties
    by index) not yet blocked is accepted and blocks every vertex y with
    d <= core(x) + core(y)."""
    D = all_geodesic_distances(m)
    core = rf.core
    blocked = np.zeros(m.num_vertices, dtype=bool)
    centers = []
    for x in np.lexsort((np.arange(m.num_vertices), -core)):
        if not blocked[x]:
            centers.append(int(x))
            blocked |= D[x] <= core + core[x]
    return centers


def loop_sphere_arrays(f):
    """(vertices, cells) of geometry._sphere_arrays, point by point with
    a dict of rounded coordinates."""
    ico_v, ico_f = geometry._ICO_VERTS, geometry._ICO_FACES
    verts, vert_index = [], {}

    def point(p):
        p = p / np.linalg.norm(p)
        key = tuple(np.round(p, 9))
        idx = vert_index.get(key)
        if idx is None:
            idx = len(verts)
            vert_index[key] = idx
            verts.append(p)
        return idx

    cells = []
    for fa, fb, fc in ico_f:
        A, B, C = ico_v[fa], ico_v[fb], ico_v[fc]
        grid = {}
        for i in range(f + 1):
            for j in range(f + 1 - i):
                k = f - i - j
                grid[(i, j)] = point((i * A + j * B + k * C) / f)
        for i in range(f):
            for j in range(f - i):
                cells.append((grid[(i, j)], grid[(i + 1, j)],
                              grid[(i, j + 1)]))
                if i + j < f - 1:
                    cells.append((grid[(i + 1, j)], grid[(i + 1, j + 1)],
                                  grid[(i, j + 1)]))
    return np.array(verts), np.array(cells, dtype=np.int64)


# perturbed_mesh arguments: a generator and resolution, a seed and an
# amplitude (in mean edges) small enough to keep every cell valid
PERTURBED_MESHES = dict(
    mesh=st.one_of(st.tuples(st.just("flat_torus"), st.integers(4, 9)),
                   st.tuples(st.just("sphere"), st.integers(4, 5)),
                   st.tuples(st.just("3-torus"), st.integers(3, 4))),
    seed=st.integers(0, 2**32 - 1), amplitude=st.floats(0.0, 0.2))


def perturbed_mesh(kind, resolution, seed, amplitude):
    """A random closed mesh: a generator mesh whose vertices are moved by
    up to `amplitude` mean edges, then relabelled (relabelled_mesh)."""
    m = geometry.generate_flat_torus_3d(resolution) if kind == "3-torus" \
        else geometry.generate_test_manifold(kind, resolution)
    rng = np.random.default_rng(seed)
    moved = m.vertices + amplitude * m.mean_edge_length() \
        * rng.uniform(-1.0, 1.0, m.vertices.shape)
    return relabelled_mesh(m, rng, moved)[0]


def relabelled_mesh(m, rng, vertices=None, normalize=True):
    """(copy, label): m on the given vertex coordinates (its own by
    default), its vertices relabelled at random (vertex i becomes
    label[i]), its cells shuffled and each cell's first three vertices
    rotated (an even permutation, so the orientation is kept)."""
    moved = m.vertices if vertices is None else vertices
    label = rng.permutation(m.num_vertices)
    vertices = np.empty_like(moved)
    vertices[label] = moved
    cells = label[m.oriented_cells[rng.permutation(len(m.oriented_cells))]]
    shift = rng.integers(0, 3, len(cells))
    head = np.take_along_axis(cells[:, :3],
                              (np.arange(3) + shift[:, None]) % 3, axis=1)
    cells = np.concatenate([head, cells[:, 3:]], axis=1)
    return geometry.SimplicialManifold(m.n, vertices, cells,
                                       normalize=normalize), label


# -- the raising step as first written: the ledger's oracle -------------
#
# rsm_step and raising_steps as they stood before the ledger read the
# covering's constants from the LedgerPlan: every step rebuilds the
# membership, the ball volumes and the boolean masks, walks each density
# with |x| on every term and sums squares from zeros, averages the weight
# for every bound and every norm, and evaluates the three gluing bounds
# through the support mask even when it is full.  The library must give
# the same ledger, solves, norms and trace bit for bit.


def _oracle_density_orders(steps, volumes, x, orders, values):
    # Lap x from its halves, summed from zero, then squares summed from
    # zeros
    values[()] = x
    halves = [h for h in (("dstar", "face", "d"), ("d", "coface", "dstar"))
              if (h[0],) in steps]
    out = []
    for order in orders:
        if order == 0:
            out.append(np.abs(x) / volumes[()])
            continue
        terms = []
        for first, average, second in halves:
            if (first,) not in values:
                values[first,] = steps[first,] @ x
            if order == 1:
                terms.append(steps[first, average]
                             @ (np.abs(values[first,]) / volumes[first,]))
                continue
            if (first, second) not in values:
                values[first, second] = steps[first, second] @ values[first,]
            terms.append(np.abs(values[first, second])
                         / volumes[first, second])
        if order == 2:
            lap = sum(values[first, second] for first, _, second in halves)
            terms.insert(0, np.abs(lap) / volumes[first, second])
        total = np.zeros(terms[0].size)
        for t in terms:
            total += t * t
        out.append(np.sqrt(total))
    return out


def _oracle_plan_densities(plan, x, orders=(0, 1, 2), values=None):
    return _oracle_density_orders(plan.steps, plan.volumes, x, orders,
                             {} if values is None else values)


def _oracle_column_norms(plan, k, dens, r, mask=None):
    col, w = plan.patterns[k][0], plan.mu[k] * dens**r
    if mask is not None:
        col, w = col[mask], w[mask]
    return np.bincount(col, w, minlength=plan.ncols) ** (1 / r)


def _oracle_global_densities(m, p, values, order):
    steps, volumes = {}, {(): m.volumes[p]}
    for (first, average, second), q, A, avg, B in _oracle_half_operators(m,
                                                                          p):
        steps.update({(first,): A, (first, average): avg, (first, second): B})
        volumes.update({(first,): m.volumes[q], (first, second): m.volumes[p]})
    return _oracle_density_orders(steps, volumes, values, (order,), {})[0]


def _oracle_weight_relative(w, cov, m):
    A = searched_membership(m, cov)
    dv = m.dual_volumes()
    means = (A.T @ (w.values * dv)) / (A.T @ dv)
    ratios = w.values[A.indices] / np.repeat(means, np.diff(A.indptr))
    return means, float(ratios.min()), float(ratios.max())


def _oracle_diagnostics(system, omega, u, plan, support, dens, r):
    om = omega.values[system.index]
    start = system.offsets[:-1]
    res = np.sqrt(np.add.reduceat((system.K @ u / system.M - om) ** 2,
                                  start))
    res /= np.sqrt(np.add.reduceat(om**2, start)) + 1e-300
    lr = _oracle_column_norms(plan, 0, _oracle_plan_densities(
        plan, om, (0,))[0], r)
    w2 = sum(_oracle_column_norms(plan, min(k, 1), d, r, support[min(k, 1)])
             for k, d in enumerate(dens))
    c = np.divide(w2, lr, out=np.zeros_like(w2), where=lr > 0)
    return (np.array([system.owner[e] for e in start]),
            np.diff(system.offsets), res, c)


def _oracle_gluing_bound(m, w, w_means, v0, plan, parts_dens, s, order):
    p = v0.degree
    w_simp = geometry.simplex_average(m, p, w.values)
    mu = m.support_volumes[p]
    lhs_s = float(np.sum(mu * w_simp**s * _oracle_global_densities(
        m, p, v0.values, order) ** s))
    cols, rows = plan.patterns[min(order, 1)]
    supp = parts_dens > 1e-300
    rows, cols, g = rows[supp], cols[supp], parts_dens[supp]
    T_eff = int(np.bincount(rows, minlength=mu.size).max())
    c_sw_eff = float(np.max(w_simp[rows] / w_means[cols], initial=1.0))
    per_ball = np.bincount(cols, mu[rows] * g**s, minlength=w_means.size)
    rhs_s = max(T_eff, 1) ** (s - 1) * c_sw_eff**s \
        * float(np.sum(w_means**s * per_ball))
    lhs, rhs = lhs_s ** (1 / s), rhs_s ** (1 / s)
    return {"lhs": lhs, "rhs": rhs, "T_eff": T_eff, "c_sw_eff": c_sw_eff,
            "margin": rsm._margin(lhs, rhs)}


def oracle_rsm_step(m, cov, rf, omega, r, w, step_index=0):
    """rsm.rsm_step as first written (see above): (v0, omega1,
    StepDiagnostics)."""
    p = omega.degree
    w_means, c_iw, c_sw = _oracle_weight_relative(w, cov, m)
    v0, U = sweep(m, cov, omega)
    u = U.data
    system, lplan = rsm.patch_system(m, cov, p), rsm.ledger_plan(m, cov, p)
    plan = lplan.dens
    members = searched_membership(m, cov)
    balls = oracle_ball_simplices(m, p, members)
    ball_masks = oracle_gather(plan, balls, (0, 1))
    ball_rows = balls.indices
    ball_cols = np.repeat(np.arange(len(cov)), np.diff(balls.indptr))
    support = oracle_gather(plan, system.support, range(2))
    R = cov.radii()
    chains = {}
    U_dens = _oracle_plan_densities(plan, u, values=chains)
    parts_dens = _oracle_plan_densities(plan, system.chi * u)
    solves = _oracle_diagnostics(system, omega, u, plan, support, U_dens, r)
    chi_lap = np.bincount(plan.patterns[1][1], lplan.chi_ring * sum(
        chains[c] for c in (("dstar", "d"), ("d", "dstar")) if c in chains),
        minlength=m.num_simplices(p))
    lap_v0 = dec.hodge_laplacian(m, p)(v0)
    s = max(r, min(2.0, dec.sobolev_exponent(r, 2, m.n)))
    ledger = {key: _oracle_gluing_bound(m, w, w_means, v0, plan,
                                        parts_dens[k], s, k)
              for k, key in enumerate(("5s4_i", "5s4_ii", "5s4_iii"))}
    # 5s6
    a = w_means * _oracle_column_norms(plan, 0, parts_dens[0], s,
                                       ball_masks[0])
    b = w_means * R ** (-rsm.GAMMA) * np.bincount(
        ball_cols, m.support_volumes[p][ball_rows]
        * dec.density(omega)[ball_rows] ** r, minlength=R.size) ** (1 / r)
    rf_max = np.maximum.reduceat(rf.values[members.indices],
                                 members.indptr[:-1])
    rho = float(np.max(rf_max / R, initial=1.0))
    c_iw = min(1.0, c_iw)
    nz = b > 1e-300
    C = float((a[nz] / b[nz]).max()) if nz.any() else 0.0
    I = float(np.sum(a**s)) ** (1 / s)
    w_tilde = rf.values ** (-rsm.GAMMA) * w.values
    om_norm = dec.lr_norm(m, omega, dec.NormSpec(r, weight=w_tilde, power=r))
    T = cov.overlap_measured
    rhs = rho**rsm.GAMMA / c_iw * C * T ** (s / r) * om_norm
    ledger["5s6"] = {"lhs": I, "rhs": rhs, "C": C, "rho": rho,
                     "c_iw_eff": c_iw, "margin": rsm._margin(I, rhs)}
    # Leibniz diagnostic
    lr, gr = (_oracle_column_norms(plan, k, U_dens[k], s, ball_masks[k])
              for k in (0, 1))
    total = float(np.sum(w_means**s * (R**-s * lr**s + gr**s)))
    conj = s / (s - 1)
    ledger["leibniz"] = {"rhs_paper": (2 ** (s / conj) * (1 + cov.eps) * T**s
                                       * c_sw**s * total) ** (1 / s)}
    diag = rsm.StepDiagnostics(step_index, *solves,
                               float(np.linalg.norm(lap_v0.values - chi_lap)),
                               float(np.linalg.norm(chi_lap - omega.values)),
                               ledger)
    return v0, lap_v0 - omega, diag


def oracle_raising_steps(m, cov, rf, omega, config):
    """rsm.raising_steps as first written, on oracle_rsm_step: (v,
    omega_tilde, trace), every weighted norm averaging the weight anew."""
    n = m.n
    k = config.steps(n)
    w = config.base_weight(m.num_vertices)
    r = config.r
    trace = rsm.RsmTrace(r, config.s, k)
    p = omega.degree
    q2 = min(2.0, dec.sobolev_exponent(r, 2, n))
    v = dec.Cochain(m, p, np.zeros(m.num_simplices(p)))
    cur = omega
    sign = 1.0
    trace.exponent_ladder.append(r)
    trace.residual_norms.append(dec.lr_norm(m, cur, dec.NormSpec(r)))
    for step in range(k):
        v_j, nxt, diag = oracle_rsm_step(m, cov, rf, cur, r, w, step)
        v = v + sign * v_j
        trace.steps.append(diag)
        t_next = min(dec.sobolev_exponent(r, step + 1, n), 64.0)
        trace.exponent_ladder.append(t_next)
        trace.v_norms.append(
            (dec.lr_norm(m, v_j, dec.NormSpec(r, weight=w, power=r)),
             dec.lr_norm(m, v_j, dec.NormSpec(q2, weight=w, power=q2))))
        trace.residual_norms.append(dec.lr_norm(m, nxt, dec.NormSpec(t_next)))
        cur = nxt
        sign = -sign
    omega_tilde = -1.0 * cur if k % 2 == 0 else cur
    w0 = config.w0(rf, n)
    denom = dec.lr_norm(m, omega, dec.NormSpec(r, weight=w0, power=r))
    if denom > 0:
        trace.constants = {
            "C_r": dec.lr_norm(m, v, dec.NormSpec(r, weight=w, power=r))
                / denom,
            "C_q": dec.lr_norm(m, v, dec.NormSpec(q2, weight=w, power=q2))
                / denom,
            "C_w2r": dec.sobolev_norm(m, v, dec.NormSpec(r, order=2,
                                                         weight=w, power=r))
                / denom,
            "C_s": dec.lr_norm(m, omega_tilde,
                               dec.NormSpec(config.s, weight=w,
                                            power=config.s)) / denom,
        }
    return v, omega_tilde, trace


# -- the paper's lemmas, checked on the program's own output ------------
#
# The program runs none of these: the tests check the charts, the
# partition of unity, the sweeps, the local solves, the spectrum and the
# weak decomposition against the paper's lemmas with them.


@dataclass
class Chart:
    """Normal-coordinate chart around a center vertex.

    Coordinates map the center to the origin and normalize the fitted
    metric there to the identity.  Distortions measure how far the fitted
    metric is from the identity in value (eps_metric) and in discrete
    first differences across chart edges (eps_deriv).
    """

    center: int
    radius: float
    members: np.ndarray          # vertex indices, center first
    coordinates: np.ndarray      # (len(members), n)
    metric: np.ndarray           # (len(members), n, n)
    eps_metric: float
    eps_deriv: float


def normal_chart(m: geometry.SimplicialManifold, center: int,
                 radius: float) -> Chart:
    """Chart around `center` of the vertices at distance < radius, center
    first, then by distance: a slice of the center's frame fitted on the
    ball of that radius.  Both distortions are inf when two chart points
    collide within the radius."""
    if radius > 2.0 + 1e-9:
        raise ValueError("chart radius exceeds mesh diameter")
    f = geometry.ChartFrames(m, [center],
                             [geometry.ball_search(m, center, radius)])
    member = f.distances < radius
    member[np.searchsorted(f.fitted, center)] = True
    rows = np.flatnonzero(member)
    rows = rows[np.argsort(f.distances[rows], kind="stable")]
    members = f.fitted[rows]
    eps_metric = float(f.vertex_deviation[rows].max())
    eps_deriv = float(f.edge_difference[f.edge_distance < radius].max(initial=0))
    if f.foldover_distance[0] < radius:
        eps_metric = eps_deriv = np.inf
    return Chart(
        center=center,
        radius=radius,
        members=members,
        coordinates=f.coordinates[np.searchsorted(f.touched, members)],
        metric=f.metric[rows],
        eps_metric=eps_metric,
        eps_deriv=eps_deriv,
    )


def chi_gradients(m, cov) -> np.ndarray:
    """The discrete gradient of each column of the partition of unity,
    max over edges ab of |chi_j(a) - chi_j(b)| / |ab|."""
    # |d0 chi| as a sparse edges x balls matrix; d0 = boundary[1]^T
    grad = abs(m.boundary[1].T @ cov.chi).tocoo()
    grad.data /= m.edge_lengths[grad.row]
    return grad.max(axis=0).toarray().ravel()


def chi_gradient_constant(m, cov) -> float:
    """Measured C_chi: sup over balls of (edge gradient of chi_j) * R_j."""
    return float((chi_gradients(m, cov) * cov.radii()).max())


def system_columns(system, x: np.ndarray) -> sp.csc_matrix:
    """Global simplices x patches matrix whose column j is patch j's
    part of the stacked vector x of a local_solver.PatchSystem,
    zero-extended."""
    return sp.csc_matrix((x, system.index, system.offsets),
                         shape=system.support.shape)


def sweep(m: geometry.SimplicialManifold, cov: covering.AdmissibleCovering,
          omega: dec.Cochain):
    """(v0, U): rsm.sweep's T omega, and the simplices x balls matrix of
    the local solutions u_j = K_j^-1 (M_j omega[G_j]) of
    rsm.patch_system, whose stored values are the stacked solution."""
    system = rsm.patch_system(m, cov, omega.degree)
    u = system.lu.solve(system.M * omega.values[system.index])
    return rsm.sweep(m, cov, omega)[0], system_columns(system, u)


def local_czi_check(patch: local_solver.Patches, u: dec.Cochain, r: float):
    """Interior regularity triplet of the local Calderon-Zygmund bound.

    lhs is the W^{2,r} norm on the half-radius sub-ball; the two right
    hand terms are R^-2 times the L^r norm of u, and the L^r norm of
    Delta u, both over the full ball of the one-ball patch.  Callers fit
    (c1, c2) over samples.
    """
    m, p = patch.manifold, u.degree
    ball = patch.balls[0]
    R = ball.covering_radius
    # the ball's members, and those within R / 2 (a search's distances
    # are exact, so they are a search to R / 2's)
    members, d = geometry.ball_search(m, ball.center, R)
    half = np.zeros(m.num_vertices, dtype=bool)
    half[members[d <= R / 2.0]] = True
    hmask = vertex_mask_to_simplex_mask(m, p, half)
    if not hmask.any():
        raise local_solver.PatchError("empty half-radius sub-ball")
    full = np.zeros(m.num_vertices, dtype=bool)
    full[members] = True
    fmask = vertex_mask_to_simplex_mask(m, p, full)

    lhs = dec.sobolev_norm(m, u, dec.NormSpec(r, order=2), hmask)
    term1 = R**-2 * dec.lr_norm(m, u, dec.NormSpec(r), fmask)
    lap = dec.hodge_laplacian(m, p)(u)
    term2 = dec.lr_norm(m, lap, dec.NormSpec(r), fmask)
    return lhs, term1, term2


def harmonic_embedding_check(m: geometry.SimplicialManifold,
                             rep: analysis.SpectrumReport, s: float) -> dict:
    """Ratios |h|_{L^s} / |h|_{L^2} over the harmonic space.

    ratios lists the basis elements; C_s is the sup over the unit sphere
    of the harmonic space (sampled on a fixed grid), which is invariant
    under the arbitrary basis rotation the eigensolver may apply inside
    the degenerate kernel.
    """
    def ratio(vec):
        h = dec.Cochain(m, rep.degree, vec)
        l2 = dec.lr_norm(m, h, dec.NormSpec(2.0))
        if l2 == 0:
            return 0.0
        ls = dec.lr_norm(m, h, dec.NormSpec(s)) if s != 2.0 else l2
        return ls / l2

    B = rep.harmonic_basis
    d = rep.harmonic_dim
    ratios = [ratio(B[:, i]) for i in range(d)]
    cs = max(ratios) if ratios else 0.0
    if d == 2:
        for th in np.linspace(0.0, np.pi, 360, endpoint=False):
            cs = max(cs, ratio(B @ [np.cos(th), np.sin(th)]))
    elif d > 2:
        dirs = np.random.default_rng(0).standard_normal((400, d))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        for c in dirs:
            cs = max(cs, ratio(B @ c))
    return {"s": s, "ratios": ratios, "C_s": cs}


def weak_decomposition_sequence(m, cov, rep, omega, r,
                                alpha=None, eps0: float = 1e-1,
                                halvings: int = 3,
                                mode: str = "delta_closure") -> list:
    """E_eps over successive halvings of eps_target; must decrease.

    When a halving fails to shrink E_eps strictly, the ball union is
    forced to grow by one more ball; three consecutive failures flag
    the run.
    """
    out = []
    eps = eps0
    min_balls = 1
    for _ in range(halvings + 1):
        res = analysis.weak_decomposition(m, cov, rep, omega, r, alpha,
                                          eps, mode, _min_balls=min_balls)
        min_balls = res.extras["balls_used"]
        # force strictness by growing the union when a halving stalls
        while out and res.extras["E_eps"] >= out[-1].extras["E_eps"]:
            if min_balls >= len(cov.balls):
                res.extras["monotonicity_flag"] = True
                break
            min_balls += 1
            res = analysis.weak_decomposition(m, cov, rep, omega, r,
                                              alpha, eps, mode,
                                              _min_balls=min_balls)
        out.append(res)
        eps /= 2.0
    return out
