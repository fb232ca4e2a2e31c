"""Triangulated closed manifolds: construction, metric queries, charts.

A mesh is a closed simplicial n-manifold (n = 2 or 3) embedded in some
ambient Euclidean space.  All metric data (edge lengths, simplex volumes,
dual volumes) is derived from the embedding unless edge lengths are
supplied explicitly.  After construction the geodesic diameter is
normalized to 2 so that radius clamps at 1 are meaningful.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, dijkstra

DEGENERATE_VOLUME_FRACTION = 1e-12
FOLDOVER_TOL = 1e-9


class MeshError(ValueError):
    """Invalid or non-manifold mesh data."""


def _simplex_keys(rows: np.ndarray, base: int) -> np.ndarray:
    """One int64 per row of vertex indices below `base`: the row's digits
    in that base (Horner), so ascending keys order sorted rows
    lexicographically, as np.unique(..., axis=0) does."""
    keys = np.zeros(rows.shape[0], dtype=np.int64)
    for col in rows.T:
        keys = keys * base + col
    return keys


def _permutation_signs(rows: np.ndarray) -> np.ndarray:
    """Sign of the permutation sorting each row (distinct entries), from
    the parity of its inversion count."""
    inversions = sum((rows[:, a] > rows[:, b]).astype(np.int64)
                     for a, b in combinations(range(rows.shape[1]), 2))
    return 1 - 2 * (inversions % 2)


class SimplicialManifold:
    """Closed oriented simplicial n-manifold with metric data.

    Attributes:
        n: intrinsic dimension (2 or 3).
        vertices: (V, m) ambient coordinates.
        simplices: list indexed by degree p of (N_p, p+1) int arrays with
            sorted vertex rows (canonical orientation), in lexicographic
            order.
        boundary: list of sparse signed incidence matrices; boundary[p]
            maps p-chains to (p-1)-chains, p = 1..n.
        volumes: per-degree p-volumes (from edge lengths, Cayley-Menger).
        support_volumes: per-degree array; entry sigma is the share of
            total n-volume supported on sigma (barycentric lumping).
        graph: symmetric sparse V x V matrix of edge lengths; its CSR
            pattern is formed once, and its data refilled if the diameter
            normalization rescales the lengths.

    Simplices are looked up by key: row r of simplices[p] has the int64
    key sum_i r[i] V^(p-i), and _keys[p] holds these keys ascending, so
    np.searchsorted finds the index of any batch of sorted rows (see
    _find).  Keys must fit in int64: V^(n+1) <= 2^63, that is up
    to 2097152 vertices for a surface and 55108 for a 3-manifold.
    The whole construction is array operations, one batch per degree,
    with one metric pass on the final (normalized) edge lengths.
    """

    def __init__(self, dimension, vertices, cells, edge_lengths=None,
                 normalize=True, validate=True):
        self.n = int(dimension)
        if self.n not in (2, 3):
            raise MeshError(f"dimension must be 2 or 3, got {self.n}")
        self.vertices = np.asarray(vertices, dtype=float)
        cells = np.asarray(cells, dtype=np.int64)
        if cells.ndim != 2 or cells.shape[1] != self.n + 1:
            raise MeshError("cell array must be (N, n+1)")
        V = self.vertices.shape[0]
        if cells.min(initial=0) < 0 or cells.max(initial=-1) >= V:
            raise MeshError("cell references a missing vertex")
        if V ** (self.n + 1) > 2**63:
            raise MeshError(f"{V} vertices exceed the int64 simplex keys "
                            f"of a {self.n}-manifold")
        ordered = np.sort(cells, axis=1)
        repeated = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        if repeated.any():
            raise MeshError("degenerate cell with repeated vertex: "
                            f"{cells[np.argmax(repeated)]}")
        self.oriented_cells = cells.copy()

        self._build_complex(ordered)
        supplied = None if edge_lengths is None \
            else np.asarray(edge_lengths, dtype=float)
        if supplied is not None and len(supplied) != self.num_simplices(1):
            raise MeshError("edge length array has wrong size")
        self.edge_lengths = self._lengths(supplied)
        self.graph, entry_edges = _edge_graph(self.simplices[1], V)
        self.graph.data = self.edge_lengths[entry_edges]
        if validate:
            self._validate_complex()
        if normalize:
            diam = self._approx_diameter(self.graph)
            if validate and not np.isfinite(diam):
                raise MeshError("mesh is not connected")
            # a diameter of 2 within a few ulps stays as it is, so that a
            # normalized mesh (saved and loaded, say) stays bit for bit
            if abs(diam - 2.0) > 4 * np.spacing(2.0):
                scale = 2.0 / diam
                self.vertices = self.vertices * scale
                self.edge_lengths = self._lengths(
                    None if supplied is None else supplied * scale)
                self.graph.data = self.edge_lengths[entry_edges]
        elif validate and connected_components(self.graph,
                                               directed=False)[0] != 1:
            raise MeshError("mesh is not connected")
        self._build_metric(validate)
        self._op_cache: dict = {}    # dec operators, keyed (name, degree)

    # -- construction ---------------------------------------------------

    def _build_complex(self, ordered):
        """Simplices, keys, boundary operators and cell-face tables from
        the (N, n+1) cell rows, each row sorted."""
        n, V = self.n, self.vertices.shape[0]
        simplices: list[np.ndarray] = [None] * (n + 1)
        self._keys: list[np.ndarray] = [None] * (n + 1)
        rows = ordered
        for p in range(n, 0, -1):
            self._keys[p], first = np.unique(_simplex_keys(rows, V),
                                             return_index=True)
            simplices[p] = rows[first]
            # dropping a column keeps each row sorted
            rows = np.concatenate([np.delete(simplices[p], i, axis=1)
                                   for i in range(p + 1)])
        if simplices[n].shape[0] != ordered.shape[0]:
            raise MeshError("duplicate cells")
        # 0-simplices must be single vertices in index order
        self._keys[0] = np.arange(V, dtype=np.int64)
        simplices[0] = self._keys[0][:, None].copy()
        self.simplices = simplices

        # signed boundary operators (canonical sorted orientation), in CSR
        # form straight away: entries ordered by face, then by coface
        self.boundary = [None] * (n + 1)
        for p in range(1, n + 1):
            N = simplices[p].shape[0]
            faces = np.stack([self._find(p - 1,
                                         np.delete(simplices[p], i, axis=1))
                              for i in range(p + 1)], axis=1).ravel()
            order = np.argsort(faces, kind="stable")
            rows = simplices[p - 1].shape[0]
            self.boundary[p] = sp.csr_matrix(
                (np.tile((-1) ** np.arange(p + 1), N)[order], order // (p + 1),
                 np.concatenate([[0], np.bincount(faces, minlength=rows)
                                 .cumsum()])), shape=(rows, N))

        # cell -> p-face index table (for support volumes), faces in the
        # lexicographic order of their vertex positions in the cell
        self._cell_faces = [
            np.stack([self._find(p, simplices[n][:, list(sub)])
                      for sub in combinations(range(n + 1), p + 1)], axis=1)
            for p in range(n + 1)
        ]

    def _find(self, p: int, rows: np.ndarray) -> np.ndarray:
        """Index of each sorted vertex row among the p-simplices, -1 where
        the row is no p-simplex.  Entries must lie in [0, V)."""
        table = self._keys[p]
        keys = _simplex_keys(rows, self.vertices.shape[0])
        idx = np.searchsorted(table, keys)
        found = idx < table.size
        found[found] = table[idx[found]] == keys[found]
        return np.where(found, idx, -1)

    def _simplex_edges(self, rows: np.ndarray) -> np.ndarray:
        """(N, C(k, 2)) edge indices of sorted vertex rows of width k,
        vertex pairs in lexicographic order of their positions."""
        return np.stack([self._find(1, rows[:, [a, b]])
                         for a, b in combinations(range(rows.shape[1]), 2)],
                        axis=1)

    def _lengths(self, supplied) -> np.ndarray:
        """The supplied edge lengths, or the embedding's chord lengths;
        a MeshError unless each is positive and finite."""
        lengths = chord_lengths(self.vertices, self.simplices[1]) \
            if supplied is None else supplied.copy()
        if not np.all(np.isfinite(lengths) & (lengths > 0)):
            raise MeshError("non-positive or non-finite edge length")
        return lengths

    def _build_metric(self, validate: bool):
        """Volumes and support volumes of the final edge lengths; with
        validate, the triangle inequality and the cell volumes checked."""
        n, lengths = self.n, self.edge_lengths
        # columns: the edges (s0, s1), (s0, s2), (s1, s2) of each triangle
        triangles = lengths[self._simplex_edges(self.simplices[2])]
        self.volumes = [np.ones(self.vertices.shape[0]), lengths.copy(),
                        simplex_volumes(triangles, 2)]
        if n == 3:
            self.volumes.append(simplex_volumes(
                lengths[self._simplex_edges(self.simplices[3])], 3))
        self.support_volumes = [
            lumped_supports(self.volumes[n], self._cell_faces[p],
                            self.num_simplices(p)) for p in range(n + 1)]
        if not validate:
            return
        l01, l02, l12 = triangles.T
        bad = (l01 + l12 <= l02) | (l01 + l02 <= l12) | (l12 + l02 <= l01)
        if bad.any():
            raise MeshError("triangle inequality fails on simplex "
                            f"{self.simplices[2][np.argmax(bad)]}")
        mean_vol = self.volumes[n].mean()
        if np.any(self.volumes[n] < DEGENERATE_VOLUME_FRACTION * mean_vol):
            raise MeshError("degenerate cell (volume below threshold)")

    def _validate_complex(self):
        """The checks that need no metric: dd = 0, every (n-1)-face in two
        cells, and consistently oriented cells."""
        n = self.n
        for p in range(2, n + 1):
            bb = self.boundary[p - 1] @ self.boundary[p]
            if bb.nnz and np.abs(bb.data).max() != 0:
                raise MeshError("incidence composition is not zero")
        face_count = np.abs(self.boundary[n]).sum(axis=1).A1
        if np.any(face_count != 2):
            bad = int(np.argmax(face_count != 2))
            raise MeshError(
                f"non-manifold or open mesh: face {bad} lies in "
                f"{int(face_count[bad])} cells"
            )
        self._check_orientation()

    def _check_orientation(self):
        """Each (n-1)-face must get opposite orientations from its two
        cells: with each sorted cell signed by the permutation that sorts
        its as-given row, the signed incidence sums to zero on a face."""
        n = self.n
        cells = self.oriented_cells
        sign = np.zeros(self.simplices[n].shape[0], dtype=np.int64)
        sign[self._find(n, np.sort(cells, axis=1))] = _permutation_signs(cells)
        induced = self.boundary[n] @ sign
        if induced.any():
            face = self.simplices[n - 1][np.argmax(induced != 0)]
            raise MeshError("inconsistent orientation across face "
                            f"{tuple(face.tolist())}")

    @staticmethod
    def _approx_diameter(g) -> float:
        """Two-sweep estimate of the graph's diameter; inf when the graph
        is not connected, as the first sweep then leaves some vertex at
        infinity."""
        d0 = dijkstra(g, directed=False, indices=0)
        u = int(np.argmax(d0))
        d1 = dijkstra(g, directed=False, indices=u)
        v = int(np.argmax(d1))
        d2 = dijkstra(g, directed=False, indices=v)
        return float(max(d1.max(), d2.max()))

    # -- queries --------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    def num_simplices(self, p: int) -> int:
        return self.simplices[p].shape[0]

    def dual_volumes(self) -> np.ndarray:
        """Lumped n-volume per vertex."""
        return self.support_volumes[0]

    def mean_edge_length(self) -> float:
        return float(self.edge_lengths.mean())


# -- metric rules shared by every layer ----------------------------------


def chord_lengths(coordinates: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Euclidean lengths of the edges (rows of two vertex indices)."""
    return np.linalg.norm(coordinates[edges[:, 1]] - coordinates[edges[:, 0]],
                          axis=1)


def simplex_volumes(lengths: np.ndarray, p: int) -> np.ndarray:
    """p-volumes (p >= 2) from edge lengths by one batched Cayley-Menger
    determinant, 0 where the lengths span no Euclidean simplex.  Row i of
    lengths holds simplex i's C(p+1, 2) edge lengths, vertex pairs in
    lexicographic order of their positions."""
    k = p + 1
    a, b = np.array(list(combinations(range(1, k + 1), 2))).T
    cm = np.ones((lengths.shape[0], k + 1, k + 1))
    cm[:, np.arange(k + 1), np.arange(k + 1)] = 0.0
    cm[:, a, b] = cm[:, b, a] = lengths ** 2
    coeff = (-1) ** (p + 1) / (2**p * math.factorial(p) ** 2)
    return np.sqrt(np.maximum(coeff * np.linalg.det(cm), 0.0))


def lumped_supports(cell_volumes: np.ndarray, cell_faces: np.ndarray,
                    size: int) -> np.ndarray:
    """Barycentric lumping: each cell's volume split equally among its
    q-faces (row i of cell_faces: cell i's face indices in [0, size)),
    summed per face in cell order."""
    k = cell_faces.shape[1]
    return np.bincount(cell_faces.ravel(), np.repeat(cell_volumes / k, k),
                       minlength=size)


def simplex_average(m: SimplicialManifold, p: int, vertex_values):
    """Mean of the vertex values over each p-simplex; vertex_values is a
    vector or a (sparse) matrix with one field per column."""
    verts = m.simplices[p]
    return sum((vertex_values[verts[:, k]] for k in range(1, p + 1)),
               vertex_values[verts[:, 0]]) / (p + 1)


def _edge_graph(edges: np.ndarray,
                num_vertices: int) -> tuple[sp.csr_matrix, np.ndarray]:
    """(graph, entry_edges): the CSR pattern of the symmetric edge graph,
    the one g + g.T forms from the upper triangle g of the sorted edges,
    and the edge of each stored entry, so graph.data = lengths[entry_edges]
    fills it.  A row's lower entries (i, j), i > j, come in the order of
    the edges (j, i), which is by j, and precede its upper entries, which
    come by column: a stable sort by row leaves each row ascending."""
    rows = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.argsort(rows, kind="stable")
    cols = np.concatenate([edges[:, 0], edges[:, 1]])[order]
    indptr = np.concatenate([[0], np.bincount(rows, minlength=num_vertices)
                             .cumsum()])
    graph = sp.csr_matrix((np.zeros(order.size), cols, indptr),
                          shape=(num_vertices, num_vertices))
    return graph, order % edges.shape[0]


SEARCH_BATCH_LABELS = 1 << 16   # labels held by one batched search pass


def ball_searches(m: SimplicialManifold, sources, limits):
    """Bounded shortest-path searches along weighted edges, batched.

    Yields, for each source in order, (fitted, distances): the vertices
    within that source's limit of it (a scalar limit holds for all),
    ascending, and their distances from it.  The searches run as
    label-correcting passes over many sources at once, with labels keyed
    source * V + vertex: each round relaxes the edges of the labels that
    improved in the last one, keeps candidates within their source's
    limit, takes the least per key and merges it into the label set,
    until no label improves.  Each label is the least left-to-right
    floating-point sum along a path, as in Dijkstra's search, because
    fl(d + w) is monotone in d: the distances are Dijkstra's bit for
    bit, those of scipy's dijkstra with the same limit.  The work is
    O(sum of the balls and their edges), not O(V) per source.  A pass
    holds about SEARCH_BATCH_LABELS labels: the first takes as many
    sources as whole-mesh balls would fit, each later one as many as the
    mean ball of the earlier passes lets fit.
    """
    sources = np.asarray(sources, dtype=np.int64)
    limits = np.broadcast_to(np.asarray(limits, dtype=float), sources.shape)
    V = m.num_vertices
    bad = sources[(sources < 0) | (sources >= V)]
    if bad.size:
        raise ValueError(f"invalid vertex {bad[0]}")
    if not (limits >= 0).all():
        raise ValueError("search limits must be nonnegative")
    # a ball holds at most V labels, so the first pass keeps the bound
    done, labels, count = 0, 0, max(1, SEARCH_BATCH_LABELS // V)
    while done < sources.size:
        stop = min(done + count, sources.size)
        keys, dist = _search_pass(m.graph, sources[done:stop],
                                  limits[done:stop])
        bounds = np.searchsorted(keys, np.arange(stop - done + 1) * V)
        fitted = keys - np.repeat(np.arange(stop - done) * V,
                                  np.diff(bounds))
        bounds = bounds.tolist()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            yield fitted[lo:hi], dist[lo:hi]
        done, labels = stop, labels + keys.size
        count = max(1, SEARCH_BATCH_LABELS * done // labels)


def _search_pass(g: sp.csr_matrix, sources: np.ndarray,
                 limits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Keys i * V + vertex, ascending, and distances of every vertex
    within limits[i] of sources[i]: one pass of ball_searches on the
    edge graph g."""
    V = g.shape[0]
    keys = np.arange(sources.size, dtype=np.int64) * V + sources
    dist = np.zeros(sources.size)
    front, front_dist = keys, dist
    while front.size:
        base = front // V * V
        pos, degree = _csr_positions(g, front - base)
        cand_dist = np.repeat(front_dist, degree) + g.data[pos]
        keep = cand_dist <= np.repeat(limits[base // V], degree)
        cand = (np.repeat(base, degree) + g.indices[pos])[keep]
        if not cand.size:
            break
        # the least distance per key
        order = np.argsort(cand)
        cand, cand_dist = cand[order], cand_dist[keep][order]
        first = np.flatnonzero(np.concatenate([[True],
                                               cand[1:] != cand[:-1]]))
        cand, cand_dist = cand[first], np.minimum.reduceat(cand_dist, first)
        # merge into the label set; the improved labels are the frontier
        at = np.searchsorted(keys, cand)
        known = np.minimum(at, keys.size - 1)
        new = keys[known] != cand
        better = ~new & (cand_dist < dist[known])
        dist[known[better]] = cand_dist[better]
        keys = np.insert(keys, at[new], cand[new])
        dist = np.insert(dist, at[new], cand_dist[new])
        front, front_dist = cand[new | better], cand_dist[new | better]
    return keys, dist


# -- charts -------------------------------------------------------------


def _metric_feature(diff: np.ndarray, n: int) -> np.ndarray:
    """Design row(s) so that feature . g_packed == diff^T g diff."""
    if n == 2:
        dx, dy = diff[..., 0], diff[..., 1]
        return np.stack([dx * dx, 2 * dx * dy, dy * dy], axis=-1)
    dx, dy, dz = diff[..., 0], diff[..., 1], diff[..., 2]
    return np.stack(
        [dx * dx, dy * dy, dz * dz, 2 * dx * dy, 2 * dx * dz, 2 * dy * dz],
        axis=-1,
    )


def _cholesky_factors(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of the stacked (F, n, n) matrices G, and a
    mask of those that have one; a stack with a matrix that has none is
    factored one matrix at a time."""
    try:
        return np.linalg.cholesky(G), np.ones(len(G), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    L, factored = np.zeros_like(G), np.ones(len(G), dtype=bool)
    for f, g in enumerate(G):
        try:
            L[f] = np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            factored[f] = False
    return L, factored


def _unpack_metric(packed: np.ndarray, n: int) -> np.ndarray:
    out = np.empty(packed.shape[:-1] + (n, n))
    if n == 2:
        out[..., 0, 0] = packed[..., 0]
        out[..., 0, 1] = out[..., 1, 0] = packed[..., 1]
        out[..., 1, 1] = packed[..., 2]
    else:
        out[..., 0, 0] = packed[..., 0]
        out[..., 1, 1] = packed[..., 1]
        out[..., 2, 2] = packed[..., 2]
        out[..., 0, 1] = out[..., 1, 0] = packed[..., 3]
        out[..., 0, 2] = out[..., 2, 0] = packed[..., 4]
        out[..., 1, 2] = out[..., 2, 1] = packed[..., 5]
    return out


_IDENTITY_PACKED = {2: np.array([1.0, 0.0, 1.0]),
                    3: np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])}


FRAME_BATCH_VERTICES = 1 << 10   # fitted vertices per batched frame fit


class ChartFrames:
    """Chart frames of several centers at one reach, fitted in one
    batched pass on arrays keyed by frame.

    Frame f belongs to centers[f] and is fitted on the vertices within
    the reach of it: searches[f] = (fitted, distances), the ascending
    vertex indices of that ball and their distances from the center.
    Each fitted vertex gets a metric, least-squares fitted to the
    squared lengths of all its incident edges, and that metric's largest
    eigen-deviation from the identity; each edge between two fitted
    vertices of a frame gets the first difference of the fit across it.
    The chart coordinates project the ambient displacement from the
    center onto the tangent plane of the center's star (its SVD) and
    rescale it to the chord length; the frame is then normalized so the
    fitted metric at the center is the identity.  The fit pulls toward
    the identity with a Tikhonov weight of 1e-8 times the mean trace of
    the normal matrices over the frame's fitted vertices, so a vertex's
    fit depends on the reach only through that weight.

    Each frame's arithmetic is that of a frame fitted alone: normal
    equations are summed per vertex with np.bincount in edge order
    (first ends, then second ends); the tangent projection is made one
    frame at a time, and the center normalization row by row.
    The work is O(sum of the balls and their incident edges).

    Attributes (rows of one frame are contiguous, frames in order):
        centers: (F,) center vertices.
        starts: (F+1,) offsets of each frame's rows in fitted.
        fitted, distances, frame: per fitted row, its vertex, distance
            from the center and frame.
        touched, coordinates: the vertices with an edge to a fitted
            vertex of the frame (ascending within a frame, offsets
            touched_starts) and their chart coordinates.
        metric, vertex_deviation: per fitted row.
        edges, edge_frame, edge_difference, edge_distance: the edges
            with both ends fitted in a frame, the largest change of a
            packed metric entry across each, and its farther end's
            distance from the center.
        foldover_distance: (F,) distance at which two fitted vertices
            first share chart coordinates (inf if never).
    """

    def __init__(self, m: SimplicialManifold, centers, searches):
        n, V, E = m.n, m.num_vertices, m.num_simplices(1)
        self.m = m
        self.centers = np.asarray(centers, dtype=np.int64)
        F = self.centers.size
        sizes = np.array([f.size for f, _ in searches], dtype=np.int64)
        self.starts = np.concatenate([[0], np.cumsum(sizes)])
        self.fitted = np.concatenate([f for f, _ in searches])
        self.distances = np.concatenate([d for _, d in searches])
        self.frame = np.repeat(np.arange(F), sizes)
        R = self.fitted.size
        fkey = self.frame * V + self.fitted           # ascending

        # edges with a fitted end, ascending within each frame
        inc = m.boundary[1]
        degree = np.diff(inc.indptr)[self.fitted]
        ekey = _sorted_unique(np.repeat(self.frame, degree) * E
                              + _csr_rows(inc, self.fitted))
        eframe, eids = np.divmod(ekey, E)
        ends = eframe[:, None] * V + m.simplices[1][eids]
        tkey = _sorted_unique(ends.ravel())
        tframe, self.touched = np.divmod(tkey, V)
        self.touched_starts = np.searchsorted(tframe, np.arange(F + 1))
        loc = np.searchsorted(tkey, ends)
        row = np.searchsorted(fkey, ends)
        fitted_end = fkey[np.minimum(row, R - 1)] == ends
        row[~fitted_end] = R     # scratch row for ends beyond the reach
        target = m.edge_lengths[eids] ** 2

        coords = self._tangent_coordinates(tframe)
        center_row = np.searchsorted(fkey, np.arange(F) * V + self.centers)
        # normalize so the fitted metric at each center is the identity;
        # a center metric with no Cholesky factor means a wildly folded
        # chart, which the distortions report: its rows keep their
        # coordinates
        L, factored = _cholesky_factors(_unpack_metric(
            self._fit(coords, loc, row, target, center_row), n))
        rows = factored[tframe]
        coords[rows] = np.matmul(coords[rows, None, :], L[tframe[rows]])[:, 0]
        packed = self._fit(coords, loc, row, target)
        packed[center_row] = _IDENTITY_PACKED[n]
        self.coordinates = coords
        self.metric = _unpack_metric(packed, n)
        eigs = np.linalg.eigvalsh(self.metric)
        self.vertex_deviation = np.abs(eigs - 1.0).max(axis=1)
        self.vertex_deviation[~(eigs[:, 0] > 0)] = np.inf

        # raw first difference across an edge (no division by length):
        # the mesh analogue of the sup-derivative bound on g_ij
        both = fitted_end.all(axis=1)
        r0, r1 = row[both].T
        self.edges, self.edge_frame = eids[both], eframe[both]
        self.edge_difference = np.abs(packed[r1] - packed[r0]).max(axis=1)
        self.edge_distance = np.maximum(self.distances[r0],
                                        self.distances[r1])
        self.foldover_distance = _foldover_distances(
            coords[np.searchsorted(tkey, fkey)], self.distances,
            self.frame, F)

    def _tangent_coordinates(self, tframe: np.ndarray) -> np.ndarray:
        """Chord length times the unit projection of each touched
        vertex's displacement onto its center's star plane."""
        m, centers = self.m, self.centers
        # the star planes by one batched SVD per vertex degree
        g = m.graph
        degree = np.diff(g.indptr)[centers]
        basis = np.empty((centers.size, m.n, m.vertices.shape[1]))
        for d in np.unique(degree):
            group = np.flatnonzero(degree == d)
            star = np.sort(_csr_rows(g, centers[group]).reshape(-1, d), axis=1)
            _, _, vt = np.linalg.svd(
                m.vertices[star] - m.vertices[centers[group], None],
                full_matrices=False)
            basis[group] = vt[:, : m.n]
        disp = m.vertices[self.touched] - m.vertices[centers[tframe]]
        proj = np.empty((disp.shape[0], m.n))
        for f in range(centers.size):
            rows = slice(*self.touched_starts[f:f + 2])
            proj[rows] = disp[rows] @ basis[f].T
        chord = np.linalg.norm(disp, axis=1)
        pnorm = np.linalg.norm(proj, axis=1)
        safe = pnorm > 1e-300
        unit = np.zeros_like(proj)
        unit[safe] = proj[safe] / pnorm[safe, None]
        return chord[:, None] * unit

    def _fit(self, coords, loc, row, target, rows=None) -> np.ndarray:
        """Packed least-squares metric at the given fitted rows, ascending
        (every row if None).

        Edge e joins coordinate rows loc[e] and fitted rows row[e] (the
        scratch row len(fitted) marks an end whose fit is not wanted);
        target[e] is its squared length.  The Tikhonov weight reads the
        diagonal of every row's normal matrix, so those sums run over
        every row; the rest of the normal equations, and the solves, only
        over the given rows.  Each row sums its edge ends in one order
        (first ends, then second ends), whichever rows are solved.
        """
        n, R, F = self.m.n, self.fitted.size, self.centers.size
        k = 3 if n == 2 else 6
        feat = _metric_feature(coords[loc[:, 1]] - coords[loc[:, 0]], n)
        feat, target = np.concatenate([feat, feat]), \
            np.concatenate([target, target])
        ends = row.T.ravel()     # first ends, then second ends

        def sums(at, w, size):
            return np.bincount(at, w, size + 1)[:size]

        diagonal = [sums(ends, feat[:, a] * feat[:, a], R) for a in range(k)]
        if rows is None:
            rows, at, size = slice(None), ends, R
        else:
            size = rows.size
            index = np.full(R + 1, size)
            index[rows] = np.arange(size)
            at = index[ends]
            keep = at < size
            at, feat, target = at[keep], feat[keep], target[keep]
        ata, atb = np.empty((size, k, k)), np.empty((size, k))
        for a in range(k):
            ata[:, a, a] = diagonal[a][rows]
            for b in range(a + 1, k):
                ata[:, a, b] = ata[:, b, a] = sums(at, feat[:, a] * feat[:, b],
                                                   size)
            atb[:, a] = sums(at, feat[:, a] * target, size)
        # tiny Tikhonov pull toward the identity guards low-degree
        # vertices: the trace of each frame's mean normal matrix
        diagonal_sums = np.stack([np.bincount(self.frame, d, F)
                                  for d in diagonal], axis=1)
        counts = np.diff(self.starts)[:, None]
        lam = 1e-8 * np.maximum((diagonal_sums / counts).sum(axis=1),
                                1e-300)[self.frame[rows]]
        ata += lam[:, None, None] * np.eye(k)
        atb += lam[:, None] * _IDENTITY_PACKED[n]
        return np.linalg.solve(ata, atb[:, :, None])[:, :, 0]

    def largest_radii_within(self, eps: float) -> np.ndarray:
        """Per frame, the largest chart radius whose distortions stay
        within eps.

        That is the smallest distance at which a distortion exceeds eps:
        a vertex deviation (at the vertex's distance), an edge difference
        (at its farther end's distance) or the foldover.  The answer is
        exact whenever that distance is at most the reach.  If no
        distortion within the reach exceeds eps, it is the largest
        distance from the center when the frame holds the whole mesh,
        and inf otherwise: the answer then lies beyond the reach.
        """
        first = self.foldover_distance.copy()
        bad = self.vertex_deviation > eps
        np.minimum.at(first, self.frame[bad], self.distances[bad])
        bad = self.edge_difference > eps
        np.minimum.at(first, self.edge_frame[bad], self.edge_distance[bad])
        whole = np.isinf(first) & (np.diff(self.starts)
                                   == self.m.num_vertices)
        for f in np.flatnonzero(whole):
            first[f] = self.distances[self.starts[f]:self.starts[f + 1]].max()
        return first


def ball_search(m: SimplicialManifold, center: int,
                reach: float) -> tuple[np.ndarray, np.ndarray]:
    """(fitted, distances): the vertices within `reach` of center,
    ascending, and their distances from it; the one-source case of
    ball_searches, and the search a one-center ChartFrames is fitted
    on."""
    return next(ball_searches(m, [center], reach))


def chart_radii(m: SimplicialManifold, centers, searches,
                eps: float) -> np.ndarray:
    """ChartFrames.largest_radii_within(eps) of each center's frame fitted
    on its search: searches yields (fitted, distances) per center, in
    order, as ball_searches does.

    The frames are fitted in batches of consecutive centers whose balls
    together hold at most FRAME_BATCH_VERTICES vertices (a larger ball is
    a batch of its own), which bounds the memory of a fit.
    """
    radii, batch, size = [], [], 0

    def fit():
        frames = ChartFrames(m, [c for c, _ in batch],
                             [s for _, s in batch])
        radii.append(frames.largest_radii_within(eps))

    for c, search in zip(centers, searches):
        if batch and size + search[0].size > FRAME_BATCH_VERTICES:
            fit()
            batch, size = [], 0
        batch.append((int(c), search))
        size += search[0].size
    if batch:
        fit()
    return np.concatenate(radii) if radii else np.empty(0)


class Balls(NamedTuple):
    """Balls of one reach as flat arrays: ball i, that of the i-th source
    searched, holds vertices[offsets[i]:offsets[i + 1]], ascending, at
    distances[offsets[i]:offsets[i + 1]] from its source."""

    reach: float
    offsets: np.ndarray
    vertices: np.ndarray
    distances: np.ndarray

    @classmethod
    def of(cls, searches: list, reach: float) -> "Balls":
        """The searches (fitted, distances) of ball_searches at reach."""
        return cls(float(reach),
                   np.concatenate([[0], np.cumsum([f.size
                                                   for f, _ in searches])]),
                   np.concatenate([f for f, _ in searches]),
                   np.concatenate([d for _, d in searches]))


def balls_within(m: SimplicialManifold, sources, limits,
                 kept: Balls | None = None):
    """(offsets, vertices, distances): ball_searches(m, sources, limits)
    as flat arrays, ball j at vertices[offsets[j]:offsets[j + 1]].

    kept, if given, holds one ball per vertex, in vertex order.  A ball
    whose limit is at most kept.reach is cut from the kept ball of its
    source at the limit: a label within a limit is a least left-to-right
    sum along a path whose prefixes all lie within it, so the cut holds
    the same vertices in the same order at the same distances, bit for
    bit.  The other balls are searched.
    """
    sources = np.asarray(sources, dtype=np.int64)
    limits = np.broadcast_to(np.asarray(limits, dtype=float), sources.shape)
    cut = np.zeros(sources.size, dtype=bool) if kept is None \
        else limits <= kept.reach
    searched = list(ball_searches(m, sources[~cut], limits[~cut]))
    sizes = np.empty(sources.size, dtype=np.int64)
    sizes[~cut] = [f.size for f, _ in searched]
    if cut.any():
        lo = kept.offsets[sources[cut]]
        width = kept.offsets[sources[cut] + 1] - lo
        pos = _ranges(lo, width)
        keep = kept.distances[pos] <= np.repeat(limits[cut], width)
        pos = pos[keep]
        sizes[cut] = np.bincount(np.repeat(np.arange(width.size),
                                           width)[keep],
                                 minlength=width.size)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    vertices = np.empty(offsets[-1], dtype=np.int64)
    distances = np.empty(offsets[-1])
    if cut.any():
        at = _ranges(offsets[:-1][cut], sizes[cut])
        vertices[at], distances[at] = kept.vertices[pos], kept.distances[pos]
    if searched:
        at = _ranges(offsets[:-1][~cut], sizes[~cut])
        vertices[at] = np.concatenate([f for f, _ in searched])
        distances[at] = np.concatenate([d for _, d in searched])
    return offsets, vertices, distances


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """np.unique of a 1-D integer array by one sort and a mask, several
    times faster than np.unique, which hashes before it sorts."""
    keys = np.sort(keys)
    return keys[np.concatenate([[True], keys[1:] != keys[:-1]])]


def _foldover_distances(coordinates: np.ndarray, distances: np.ndarray,
                        frame: np.ndarray, nframes: int) -> np.ndarray:
    """Per frame, the distance at which two of its chart points first
    collide (inf if never); row i is a point of frame frame[i].

    Points collide when their coordinates agree to FOLDOVER_TOL.  A
    group of colliding points first holds two of them at its second
    smallest distance; the answer is the least of these over groups.
    """
    keys = np.round(coordinates / FOLDOVER_TOL).astype(np.int64)
    # by frame, then key, then distance
    order = np.lexsort((distances, *keys.T, frame))
    keys, dist, frame = keys[order], distances[order], frame[order]
    same = (keys[1:] == keys[:-1]).all(axis=1) & (frame[1:] == frame[:-1])
    first = np.full(nframes, np.inf)
    np.minimum.at(first, frame[1:][same], dist[1:][same])
    return first


def _ranges(lo: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The ranges lo[i], ..., lo[i] + size[i] - 1, concatenated."""
    return np.repeat(lo - np.cumsum(size) + size, size) \
        + np.arange(size.sum())


def _csr_positions(a: sp.csr_matrix,
                   rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(positions, sizes): the storage positions of the entries of the
    given rows of a, concatenated, and the number in each row."""
    lo = a.indptr[rows]
    size = a.indptr[rows + 1] - lo
    return _ranges(lo, size), size


def _csr_rows(a: sp.csr_matrix, rows: np.ndarray) -> np.ndarray:
    """Column indices of the given rows of a, concatenated."""
    return a.indices[_csr_positions(a, rows)[0]]


# -- generators ---------------------------------------------------------


def _torus_cells(N: int) -> np.ndarray:
    """Two triangles (a, b, c), (a, c, d) per grid square, squares in
    row-major order."""
    i, j = np.divmod(np.arange(N * N), N)
    a = i * N + j
    b = (i + 1) % N * N + j
    c = (i + 1) % N * N + (j + 1) % N
    d = i * N + (j + 1) % N
    return np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)


def _flat_torus(N: int, distortion: float = 0.0):
    u = 2 * np.pi * np.arange(N) / N
    uu, vv = np.meshgrid(u, u, indexing="ij")
    uu, vv = uu.ravel(), vv.ravel()
    base = np.stack([np.cos(uu), np.sin(uu), np.cos(vv), np.sin(vv)], axis=1)
    scale = 1.0 + distortion * np.sin(2 * uu) * np.sin(2 * vv)
    verts = base * scale[:, None]
    return SimplicialManifold(2, verts, _torus_cells(N))


_ICO_T = (1.0 + math.sqrt(5.0)) / 2.0
_ICO_VERTS = np.array([
    (-1, _ICO_T, 0), (1, _ICO_T, 0), (-1, -_ICO_T, 0), (1, -_ICO_T, 0),
    (0, -1, _ICO_T), (0, 1, _ICO_T), (0, -1, -_ICO_T), (0, 1, -_ICO_T),
    (_ICO_T, 0, -1), (_ICO_T, 0, 1), (-_ICO_T, 0, -1), (-_ICO_T, 0, 1),
], dtype=float)
_ICO_FACES = np.array([
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
], dtype=np.int64)


def _sphere_arrays(f: int) -> tuple[np.ndarray, np.ndarray]:
    """(vertices, cells) of the icosahedron subdivided at frequency f and
    projected to the unit sphere.

    Face by face, grid point (i, j) of face (A, B, C) lies at
    (i A + j B + k C)/f with k = f - i - j, points in row order; points
    that agree to 9 decimals after projection are one vertex, numbered
    in order of first appearance.  Each grid square (i, j), i + j < f,
    gives the triangle (ij, i+1 j, i j+1), followed by
    (i+1 j, i+1 j+1, i j+1) when i + j < f - 1.
    """
    def grid(a, b):
        """Position of grid point (a, b) in row order."""
        return a * (f + 1) - a * (a - 1) // 2 + b

    i = np.repeat(np.arange(f + 1), np.arange(f + 1, 0, -1))
    j = np.arange(i.size) - grid(i, 0)
    A, B, C = (_ICO_VERTS[_ICO_FACES[:, c], None, :] for c in range(3))
    p = (i[:, None] * A + j[:, None] * B + (f - i - j)[:, None] * C) / f
    # sqrt of a dot product, rounded as np.linalg.norm of one point
    p = (p / np.sqrt(np.vecdot(p, p))[..., None]).reshape(-1, 3)
    # a vertex per point rounded to 9 decimals, in order of first
    # appearance
    keys = np.rint(p * 1e9).astype(np.int64)
    _, first, inverse = np.unique(keys, axis=0, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    index = rank[inverse.ravel()].reshape(len(_ICO_FACES), -1)
    up = np.stack([grid(i, j), grid(i + 1, j), grid(i, j + 1)], axis=1)
    down = np.stack([grid(i + 1, j), grid(i + 1, j + 1), grid(i, j + 1)],
                    axis=1)
    square = i + j < f
    pair = np.stack([up, down], axis=1)[square].reshape(-1, 3)
    keep = np.stack([square, i + j < f - 1], axis=1)[square].ravel()
    cells = index[:, pair[keep]].reshape(-1, 3)
    return p[first[order]], cells


def _subdivided_sphere(f: int) -> SimplicialManifold:
    """Icosahedron subdivided at frequency f, projected to the unit sphere."""
    return SimplicialManifold(2, *_sphere_arrays(f))


def generate_test_manifold(kind: str, resolution: int,
                           distortion: float = 0.0) -> SimplicialManifold:
    """Generate a closed test manifold.

    kind: flat_torus | sphere | bumpy_torus.  Resolution is the grid size
    for tori and the subdivision frequency for the sphere.
    """
    if not 4 <= resolution <= 256:
        raise ValueError(f"resolution {resolution} outside [4, 256]")
    if distortion < 0:
        raise ValueError("distortion must be >= 0")
    if kind == "flat_torus":
        return _flat_torus(resolution)
    if kind == "bumpy_torus":
        return _flat_torus(resolution, distortion=distortion)
    if kind == "sphere":
        return _subdivided_sphere(resolution)
    raise ValueError(f"unknown manifold kind {kind!r}")


def generate_flat_torus_3d(resolution: int) -> SimplicialManifold:
    """Flat 3-torus: periodic cube grid, each cell split into six tetrahedra."""
    if not 2 <= resolution <= 32:
        raise ValueError("resolution outside [2, 32]")
    N = resolution
    u = 2 * np.pi * np.arange(N) / N
    grid = np.stack(np.meshgrid(u, u, u, indexing="ij"), axis=-1).reshape(-1, 3)
    verts = np.concatenate(
        [np.cos(grid), np.sin(grid)], axis=1
    )[:, [0, 3, 1, 4, 2, 5]]

    # Kuhn split: six tets per cube, one per monotone lattice path through
    # it, paths in lexicographic order of their axis permutations; a path
    # of odd permutation swaps its first two vertices for orientation
    perms = np.array(list(permutations(range(3))))
    steps = np.cumsum(np.eye(3, dtype=np.int64)[perms], axis=1)
    steps = np.concatenate([np.zeros((6, 1, 3), dtype=np.int64), steps], axis=1)
    odd = _permutation_signs(perms) < 0
    steps[odd, :2] = steps[odd, 1::-1]
    corner = np.stack(np.unravel_index(np.arange(N**3), (N, N, N)), axis=1)
    path = (corner[:, None, None, :] + steps) % N
    cells = (path[..., 0] * N + path[..., 1]) * N + path[..., 2]
    return SimplicialManifold(3, verts, cells.reshape(-1, 4))


# -- OFF file I/O -------------------------------------------------------


def load_mesh(path) -> SimplicialManifold:
    """Load a closed manifold from an ASCII OFF file.

    Faces with 3 indices are triangles (n=2); with 4 indices, tetrahedra
    (n=3).  Mixed meshes are rejected.  Vertex lines may carry more than
    three coordinates (higher ambient dimension), inferred from the first
    vertex line.
    """
    try:
        with open(path) as fh:
            lines = [raw for raw in (ln.split("#", 1)[0].strip() for ln in fh)
                     if raw]
    except UnicodeDecodeError as exc:
        raise MeshError(f"{path}: not a text file ({exc})") from exc
    if not lines or lines[0] != "OFF":
        raise MeshError(f"{path}: not an OFF file")
    try:
        counts = lines[1].split()
        nv, nf = int(counts[0]), int(counts[1])
        vert_lines = lines[2:2 + nv]
        face_lines = lines[2 + nv:2 + nv + nf]
        if len(vert_lines) != nv or len(face_lines) != nf:
            raise MeshError(f"{path}: truncated file")
        ambient = len(vert_lines[0].split())
        coords = np.array([ln.split() for ln in vert_lines],
                          dtype=float).reshape(nv, ambient)
        cells = []
        arity = None
        for ln in face_lines:
            toks = ln.split()
            k = int(toks[0])
            if k not in (3, 4):
                raise MeshError(f"{path}: face with {k} vertices")
            if arity is None:
                arity = k
            elif arity != k:
                raise MeshError(f"{path}: mixed face arities")
            if len(toks) != k + 1:
                raise MeshError(f"{path}: malformed face line {ln!r}")
            cells.append([int(t) for t in toks[1:]])
        cells = np.array(cells, dtype=np.int64)
    except MeshError:
        raise
    except (ValueError, IndexError, OverflowError) as exc:
        raise MeshError(f"{path}: parse failure ({exc})") from exc
    dim = 2 if arity == 3 else 3
    return SimplicialManifold(dim, coords, cells)


def save_mesh(m: SimplicialManifold, path) -> None:
    """Write the manifold as ASCII OFF (using the as-given cell orientation)."""
    lines = ["OFF", f"{m.num_vertices} {len(m.oriented_cells)} 0"]
    for v in m.vertices:
        lines.append(" ".join(repr(float(x)) for x in v))
    for cell in m.oriented_cells:
        lines.append(f"{len(cell)} " + " ".join(str(int(i)) for i in cell))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
