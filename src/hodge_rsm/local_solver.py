"""Poisson solves on covering balls.

A patch collects the n-cells whose vertices all lie in one covering ball.
Degree-p unknowns live on the interior p-simplices (those not touching
the patch boundary); homogeneous Dirichlet data is imposed on the
boundary simplices.  The patch operator is the interior block of the
patch submesh stiffness, not of the global one (they differ near the
boundary through the boundary-face masses).  Two solvers are provided: a
direct factorization of it and a flat/curved Neumann series that splits
the patch Laplacian around the chart's identity metric.

The patches of a covering are extracted together (Patches.extract), as
simplices x balls sparse matrices from one sparse product per degree,
refusing a ball whose patch has no interior vertex or no boundary;
patches[j] is the one-ball Patches the single-ball solvers take.  Their
direct systems form one PatchSystem per degree (stack_patches): the
stiffness and mass are formed once, on the interior rows only of the
disjoint union of the patch subcomplexes sliced from the global complex
(PatchComplex, whose rows are the entries of those matrices); the
interior unknowns of all patches form one stacked vector, with one splu
factor of the block-diagonal stiffness.  Each block equals its patch's submesh
stiffness bit for bit, with no per-patch manifold or chart.  The
Neumann series assembles its flat operator the same way, with the edge
lengths of the ball's chart.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import dec
from .covering import RADIUS_FLOOR_EDGES
from .geometry import (ChartFrames, SimplicialManifold, ball_search,
                       chord_lengths, lumped_supports, simplex_volumes)

log = logging.getLogger(__name__)


class PatchError(RuntimeError):
    """A patch that cannot carry its local problem: no interior vertex or
    no boundary (Patches.extract) or a degenerate chart metric (the
    Neumann series)."""


@dataclass
class PatchSystem:
    """Interior systems of a list of patches at one degree, stacked.

    Entry e of the stacked vector is the global p-simplex index[e] of
    ball owner[e]; patch j owns entries offsets[j] to offsets[j + 1], its
    interior simplices in increasing order.  K is the block-diagonal
    stiffness (blocks: the patches' submesh interior stiffness), M its
    mass diagonal.  support is the simplices x patches mask of the patch
    simplices.  lu is the splu factor of K, None until stack_patches
    factors it.
    """

    index: np.ndarray
    offsets: np.ndarray
    owner: np.ndarray
    K: sp.csc_matrix
    M: np.ndarray
    support: sp.csc_matrix
    lu: spla.SuperLU | None = None

    def scatter(self, x: np.ndarray) -> np.ndarray:
        """Sum over patches of the zero-extended parts of x."""
        return np.bincount(self.index, x, minlength=self.support.shape[0])

    def diagnostics(self, omega: dec.Cochain, u: np.ndarray,
                    plan: dec.DensityPlan, dens: list, r: float) -> tuple:
        """(balls, unknowns, residuals, c_j), arrays with one entry per
        patch, for the solution u of K u = M omega[index]: the ball, the
        interior unknowns, the residual |K_II u_I / M_I - omega_I| /
        |omega_I| and c_j = |u_j|_{W^{2,r}} / |omega_I|_{L^r} over the
        patch.  plan is the DensityPlan of the stacked vector, with the
        patch simplices as support; dens holds its densities of order 0,
        1 and 2 of u."""
        om = omega.values[self.index]
        start = self.offsets[:-1]
        dev = self.K @ u
        dev /= self.M
        dev -= om
        dev *= dev
        res = np.sqrt(np.add.reduceat(dev, start))
        res /= np.sqrt(np.add.reduceat(om**2, start)) + 1e-300
        lr = plan.column_norms(0, plan.densities(om, (0,))[0], r)
        w2 = sum(plan.column_norms(k, d, r, plan.support[k])
                 for k, d in enumerate(dens))
        c = np.divide(w2, lr, out=np.zeros_like(w2), where=lr > 0)
        return self.owner[start], np.diff(self.offsets), res, c


@dataclass
class Patches:
    """The patches of a list of covering balls, column j ball j.

    simplices[q], interior[q] and boundary[q] are q-simplices x balls
    boolean CSC matrices with sorted indices: column j holds patch j's
    q-simplices in increasing order, split into interior and boundary.
    simplices[n] holds the patch cells.  patches[j] is the one-ball
    Patches of ball j.
    """

    manifold: SimplicialManifold
    balls: list
    simplices: list
    interior: list
    boundary: list

    def __len__(self) -> int:
        return len(self.balls)

    def __getitem__(self, j: int) -> Patches:
        return Patches(self.manifold, [self.balls[j]],
                       *([A[:, [j]] for A in mats] for mats in
                         (self.simplices, self.interior, self.boundary)))

    @classmethod
    def extract(cls, m: SimplicialManifold, cov) -> Patches:
        """The patches of every ball of cov, one sparse product per degree.

        The patch cells are the n-cells with all n + 1 vertices in the
        ball; the patch q-simplices are their q-faces.  Boundary
        (n-1)-faces lie in exactly one patch cell; boundary q-simplices
        are found top down through the unsigned incidence, as the faces
        of boundary (q+1)-simplices.  The one judge of a usable ball:
        raises PatchError naming the first ball whose patch has no
        interior vertex (none has its whole star in the ball; one would
        make its star interior, so each degree has unknowns) or else no
        boundary (n-1)-face (the ball holds the whole manifold).
        """
        n = m.n

        def faces(q):
            """Cells x q-simplices incidence (vertices at q = 0)."""
            table = m._cell_faces[q]
            indptr = np.arange(0, table.size + 1, table.shape[1])
            return sp.csr_matrix((np.ones(table.size), table.ravel(), indptr),
                                 shape=(table.shape[0], m.num_simplices(q)))

        def canonical(A):
            return A.tocsc().sorted_indices()

        cells = canonical(faces(0) @ cov.members == n + 1)
        # patch cells holding each q-face; an (n-1)-face in one of them
        # lies on the boundary
        counts = [faces(q).T @ cells for q in range(n)]
        simplices = [canonical(c > 0) for c in counts] + [cells]
        boundary = [None] * (n - 1) + [canonical(counts[n - 1] == 1),
                                       sp.csc_matrix(cells.shape, dtype=bool)]
        for q in range(n - 2, -1, -1):
            boundary[q] = canonical(abs(m.boundary[q + 1]) @ boundary[q + 1]
                                    > 0)
        interior = [canonical(s > b) for s, b in zip(simplices, boundary)]
        no_interior = np.diff(interior[0].indptr) == 0
        bad = np.flatnonzero(no_interior
                             | (np.diff(boundary[n - 1].indptr) == 0))
        if bad.size and no_interior[bad[0]]:
            b = cov.balls[bad[0]]
            r_min = RADIUS_FLOOR_EDGES * m.mean_edge_length()
            raise PatchError(
                f"ball {b.index} (center {b.center}, radius "
                f"{b.covering_radius:.4g}) holds no vertex with all its "
                "neighbours, so its patch has no interior vertex; radius "
                f"floor R_min = {r_min:.4g} ({RADIUS_FLOOR_EDGES:g} mean "
                "edges), radius clamp 1: the mesh is too coarse for its "
                "covering")
        if bad.size:
            raise PatchError(f"ball {cov.balls[bad[0]].index}: no boundary "
                             "(the ball holds the whole manifold)")
        return cls(m, list(cov.balls), simplices, interior, boundary)


class Patch:
    """Empty: perfbench/layers.py wraps Patch.submesh in traced runs."""
    submesh = None


@dataclass
class PatchComplex:
    """Disjoint union of patch subcomplexes, sliced from the global complex.

    Its degree-q rows are the stored entries of patches.simplices[q],
    column by column: patch j's q-simplices sorted by global index, as in
    its submesh.  keys[q] holds j * N_q + global index of each row,
    ascending.  The metric fields are those dec's operator functions read.
    """

    n: int
    keys: list
    boundary: list
    volumes: list
    support_volumes: list
    _op_cache: dict = field(default_factory=dict)

    def num_simplices(self, p: int) -> int:
        return self.keys[p].shape[0]


def _patch_complex(patches: Patches, p: int,
                   lengths: np.ndarray | None = None) -> PatchComplex:
    """The PatchComplex of patches, with only what the degree-p stiffness
    reads (None elsewhere): the boundaries into and out of degree p, the
    volumes and support volumes at degrees p - 1 to p + 1, volumes at n.

    The rows of the patch cells' faces are found through the sorted
    keys, so no dense patches x simplices table is built; each boundary
    (CSC, rows ascending in each column) reads a simplex's face rows off
    one cell holding it.  The volumes are sliced from the manifold's, or
    computed from lengths, one per edge row of the union; support volumes
    lump each patch's own cells in cell order, as a submesh of those
    cells does.
    """
    m = patches.manifold
    n = m.n
    near = range(max(p - 1, 0), min(p + 1, n) + 1)
    simplices = [S.indices for S in patches.simplices]
    owner = [np.repeat(np.arange(len(patches)), np.diff(S.indptr))
             for S in patches.simplices]
    keys = [owner[q] * m.num_simplices(q) + simplices[q]
            for q in range(n + 1)]

    def rows(q, own, glob):
        return np.searchsorted(keys[q], own * m.num_simplices(q) + glob)

    # union rows of each patch cell's q-faces (at q = n the cell itself);
    # a q-simplex's faces are read off one cell holding it, dropping
    # vertex i = q, ..., 0 (rows ascend)
    cells, cell_owner = simplices[n], owner[n][:, None]
    faces = {q: np.arange(cells.size)[:, None] if q == n
             else rows(q, cell_owner, m._cell_faces[q][cells]) for q in near}
    boundary = [None] * (n + 1)
    for q in near[1:]:
        at = np.empty(simplices[q].size, dtype=np.int64)
        at[faces[q].ravel()] = np.arange(faces[q].size)
        cell, k = np.divmod(at, faces[q].shape[1])
        drop = np.array([[list(combinations(range(n + 1), q)).index(
            c[:i] + c[i + 1:]) for i in range(q, -1, -1)]
            for c in combinations(range(n + 1), q + 1)])
        boundary[q] = sp.csc_matrix(
            (np.tile((-1.0) ** np.arange(q, -1, -1), at.size),
             faces[q - 1][cell[:, None], drop[k]].ravel(),
             np.arange(0, (q + 1) * at.size + 1, q + 1)),
            shape=(simplices[q - 1].size, at.size))

    volumes = [None] * (n + 1)
    for q in {*near, n}:
        volumes[q] = (m.volumes[q][simplices[q]] if lengths is None
                      else np.ones(simplices[0].size) if q == 0
                      else lengths if q == 1
                      else simplex_volumes(lengths[rows(
                          1, owner[q][:, None],
                          m._simplex_edges(m.simplices[q][simplices[q]]))], q))
    support = [lumped_supports(volumes[n], faces[q], simplices[q].size)
               if q in near else None for q in range(n + 1)]
    return PatchComplex(n, keys, boundary, volumes, support)


def _assemble(patches: Patches, p: int,
              lengths: np.ndarray | None = None) -> PatchSystem:
    """The degree-p PatchSystem of patches, not yet factored; with
    lengths, in the metric they give (see _patch_complex).

    The stacked unknowns are the interior rows r of the PatchComplex of
    the patches, taken patch by patch; no stiffness entry couples two
    patches.  The stiffness is formed on the rows r only: rows r of
    d*_{p+1} = M_p^-1 B_{p+1} M_{p+1} times columns r of d_p, plus rows r
    of d_{p-1} times columns r of d*_p, scaled by M_p[r], symmetrised.
    Every sum runs in dec's order on the whole union, so K is the union
    stiffness on rows and columns r bit for bit, symmetrised with one
    transposition; the diagonal scalings and the halving act in place.
    Patches.extract has already refused a patch without unknowns or
    without boundary.
    """
    interior = patches.interior[p]
    union = _patch_complex(patches, p, lengths)
    pos = np.repeat(np.arange(len(patches)), np.diff(interior.indptr))
    glob = interior.indices.astype(np.int64)
    N = patches.manifold.num_simplices(p)
    r = np.searchsorted(union.keys[p], pos * N + glob)
    mass = [None if v is None else dec.mass_diagonal(union, q)
            for q, v in enumerate(union.support_volumes)]
    lap = []
    if p < union.n:
        up = union.boundary[p + 1].tocsr()[r]
        lap.append(dec.diag_product(up.copy(), 1.0 / mass[p][r],
                                    mass[p + 1]) @ up.T)
    if p > 0:
        down = union.boundary[p][:, r].T
        lap.append(down @ dec.diag_product(down.T.tocsr(), 1.0 / mass[p - 1],
                                           mass[p][r]))
    K = dec.diag_product(sum(lap[1:], lap[0]), mass[p][r])
    # with sorted rows the sum is canonical CSR; it is symmetric bit for
    # bit, so its transpose (a view) is the same matrix in CSC
    K.sort_indices()
    K = K + K.T
    K.data *= 0.5
    balls = np.array([b.index for b in patches.balls])
    return PatchSystem(glob, interior.indptr.astype(np.int64), balls[pos],
                       K.T, mass[p][r], patches.simplices[p])


def stack_patches(patches: Patches, p: int) -> PatchSystem:
    """The degree-p PatchSystem of patches, with the one splu factor of
    its block-diagonal stiffness (see _assemble)."""
    system = _assemble(patches, p)
    system.lu = spla.splu(system.K)
    return system


@dataclass
class SolveDiagnostics:
    ball: int
    degree: int
    unknowns: int
    residual: float
    c_j: float = 0.0
    eta: float = 0.0
    iterations: int = 1


def solve_local_dirichlet(patch: Patches, omega: dec.Cochain,
                          r: float = 2.0) -> tuple[dec.Cochain, SolveDiagnostics]:
    """Solve the patch Hodge-Laplace problem with zero boundary values.

    Solves K_II u_I = M_I omega_I with the patch submesh stiffness K_II
    and mass M_I on the interior simplices, so the submesh Laplacian of
    u equals omega on the interior to machine precision; u is
    zero-extended outside.  patch is a one-ball Patches; the system is
    its PatchSystem, built and factored on each call, and the
    diagnostics are those the sweeps record (PatchSystem.diagnostics),
    on the DensityPlan of its one column.
    """
    m, p = patch.manifold, omega.degree
    f = stack_patches(patch, p)
    u_I = f.lu.solve(f.M * omega.values[f.index])
    plan = dec.DensityPlan(m, p, f.index, f.offsets, f.support)
    ball, n, res, c = (x.item() for x in f.diagnostics(
        omega, u_I, plan, plan.densities(u_I), r))
    return dec.Cochain(m, p, f.scatter(u_I)), SolveDiagnostics(ball, p, n,
                                                               res, c)


def _chart_lengths(patch: Patches) -> np.ndarray:
    """Lengths of the edges of a one-ball patch, ascending, in the chart
    of its ball: the frame at the ball's center fitted out to the
    doubled covering radius, which holds every patch vertex."""
    m, ball = patch.manifold, patch.balls[0]
    frame = ChartFrames(m, [ball.center], [ball_search(
        m, ball.center, 2.0 * ball.covering_radius)])
    ends = m.simplices[1][patch.simplices[1].indices]
    return chord_lengths(frame.coordinates,
                         np.searchsorted(frame.touched, ends))


def neumann_series_solve(patch: Patches, omega: dec.Cochain,
                         max_iter: int = 50, tol: float = 1e-12,
                         flat_edge_lengths: np.ndarray | None = None,
                         r: float = 2.0):
    """Flat/curved split iteration for the patch Dirichlet problem.

    Solves the same interior system as the direct mode by iterating
    v_k from Delta_flat v_k = gamma_k, gamma_{k+1} = (Delta - Delta_flat)
    v_k, and summing with alternating signs; returns (u, diagnostics).
    patch is a one-ball Patches.  Delta_flat has the edge lengths of the
    ball's chart, or those of flat_edge_lengths (one per global edge).
    Raises PatchError, naming the ball, when a zero chart volume leaves
    the flat interior system non-finite or its mass not positive.
    """
    m, p, ball = patch.manifold, omega.degree, patch.balls[0].index
    f = _assemble(patch, p)
    I, K_II, M_I = f.index, f.K, f.M
    with np.errstate(divide="ignore", invalid="ignore"):
        # a zero chart volume is reported below, not as a warning
        flat = _assemble(patch, p, _chart_lengths(patch)
                         if flat_edge_lengths is None
                         else flat_edge_lengths[patch.simplices[1].indices])
    Kf_II, Mf_I = flat.K, flat.M
    if not (np.isfinite(Kf_II.data).all() and np.isfinite(Mf_I).all()
            and (Mf_I > 0).all()):
        raise PatchError(f"ball {ball}: the chart metric "
                         f"degenerates on the patch at degree {p} "
                         "(zero chart volume)")
    lu = spla.splu(Kf_II)
    mu, vol = m.support_volumes[p][I], m.volumes[p][I]

    def lr_of(vals):
        return float(np.sum(mu * (np.abs(vals) / vol) ** r)) ** (1 / r)

    gamma = omega.values[I].copy()
    norm0 = lr_of(gamma)
    v = np.zeros_like(gamma)
    eta = 0.0
    prev = norm0
    grow = 0
    sign = 1.0
    k = 0
    while k < max_iter:
        vk = lu.solve(Mf_I * gamma)
        v += sign * vk
        # A v_k = (Delta - Delta_flat) v_k on the interior
        gamma = (K_II @ vk) / M_I - (Kf_II @ vk) / Mf_I
        k += 1
        cur = lr_of(gamma)
        if prev > 0:
            eta = max(eta, cur / prev)
        grow = grow + 1 if cur > prev else 0
        if eta >= 1.0 and grow >= 3:
            raise PatchError(
                f"ball {ball}: Neumann series diverging "
                "(eta >= 1); use a smaller eps")
        prev = cur
        if cur <= tol * max(norm0, 1e-300):
            break
        sign = -sign
    if eta >= 0.5:
        log.warning("ball %d: Neumann contraction eta=%.3f >= 0.5", ball, eta)
    u = dec.Cochain(m, p, f.scatter(v))
    return u, SolveDiagnostics(ball, p, int(I.size),
                               prev / max(norm0, 1e-300), eta=eta,
                               iterations=k)
