"""Shared fixtures: meshes, coverings, and spectra reused across modules.

Everything heavy is session-scoped; patch extraction and operator caches
live on the fixture objects, so later tests reuse earlier work.
"""

import math
import sys
import weakref
from itertools import combinations, permutations

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, dijkstra

from hodge_rsm import analysis, covering, dec, geometry


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
        if normalize:
            diam = geometry.SimplicialManifold._approx_diameter(graph)
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


@pytest.fixture()
def rng():
    return np.random.default_rng(20260826)


def unit_form(m, p, rng):
    return dec.random_cochain(m, p, rng)


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
