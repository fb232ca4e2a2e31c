"""Poisson solves on single covering balls.

A patch collects the n-cells whose vertices all lie in one covering ball.
Degree-p unknowns live on the interior p-simplices (those not touching
the patch boundary); homogeneous Dirichlet data is imposed on the
boundary simplices.  The patch operator is the interior block of the
patch submesh stiffness, not of the global one (they differ near the
boundary through the boundary-face masses).  Two solvers are provided: a
direct factorization of it, kept per degree on the patch, and a
flat/curved Neumann series that splits the patch Laplacian around the
chart's identity metric.

The direct systems of all patches are assembled at once, on the first
sweep at a degree (factor_patches): dec builds the stiffness and mass
one time on the disjoint union of the patch subcomplexes, sliced from
the global complex (PatchComplex), and each patch keeps its interior
block with its own LU factors.  The blocks equal those of each patch's
submesh stiffness bit for bit, with no per-patch manifold or chart.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import dec
from .geometry import ChartFrame, SimplicialManifold, all_geodesic_distances

log = logging.getLogger(__name__)


class PatchError(RuntimeError):
    """Degenerate patch: no interior simplex at the requested degree."""


@dataclass
class PatchFactor:
    """Interior block of the submesh stiffness and mass at one degree,
    with the global simplex indices of its rows and its LU factors."""

    interior: np.ndarray
    K_II: sp.csc_matrix
    M_I: np.ndarray
    lu: spla.SuperLU


@dataclass
class Patch:
    """Simplices of one covering ball with interior/boundary split."""

    manifold: SimplicialManifold
    ball: object
    doubled: bool
    cells: np.ndarray                      # patch n-cell indices
    interior: dict = field(default_factory=dict)   # degree -> simplex idx
    boundary: dict = field(default_factory=dict)
    _frame: ChartFrame | None = None
    _sub: tuple | None = None
    _factors: dict = field(default_factory=dict)   # degree -> PatchFactor

    def patch_simplices(self, p: int) -> np.ndarray:
        return np.sort(np.concatenate([self.interior[p], self.boundary[p]]))

    def restrict(self, c: dec.Cochain) -> np.ndarray:
        return c.values[self.interior[c.degree]]

    def extend(self, p: int, vals: np.ndarray) -> dec.Cochain:
        out = np.zeros(self.manifold.num_simplices(p))
        out[self.interior[p]] = vals
        return dec.Cochain(self.manifold, p, out)

    def vertex_mask(self) -> np.ndarray:
        mask = np.zeros(self.manifold.num_vertices, dtype=bool)
        members = self.ball.doubled_members if self.doubled else self.ball.members
        mask[members] = True
        return mask

    @property
    def frame(self) -> ChartFrame:
        """Chart frame at the ball's center, fitted out to the doubled
        covering radius, which holds every vertex of either patch."""
        if self._frame is None:
            self._frame = ChartFrame(self.manifold, self.ball.center,
                                     2.0 * self.ball.covering_radius)
        return self._frame

    def submesh(self):
        """Patch cells as a standalone complex with the true edge lengths.

        Only the Neumann-series flat operator builds it; the direct
        solver's blocks come from factor_patches and equal its own.
        Returns (sub, verts, rows) where rows[p] maps this patch's global
        interior p-simplices to submesh row indices.
        """
        if self._sub is None:
            m = self.manifold
            verts = np.unique(m.simplices[m.n][self.cells])
            local = {v: i for i, v in enumerate(verts)}
            lcells = np.vectorize(local.get)(m.simplices[m.n][self.cells])
            coords = self.frame.coordinates[verts]
            shape_only = SimplicialManifold(m.n, coords, lcells,
                                            normalize=False, validate=False)
            glob_edges = [m.simplex_index(1, verts[e])
                          for e in shape_only.simplices[1]]
            sub = SimplicialManifold(m.n, coords, lcells,
                                     edge_lengths=m.edge_lengths[glob_edges],
                                     normalize=False, validate=False)
            rows = {}
            for p in range(m.n + 1):
                order = {m.simplex_index(p, verts[s]): i
                         for i, s in enumerate(sub.simplices[p])}
                rows[p] = np.array([order[g] for g in self.interior[p]],
                                   dtype=int)
            self._sub = (sub, verts, rows)
        return self._sub

    def factor(self, p: int) -> PatchFactor:
        """The factored interior system at degree p, built on first use
        by factor_patches (the sweeps build those of all patches at once)."""
        factor_patches([self], p)
        return self._factors[p]


@dataclass
class PatchComplex:
    """Disjoint union of patch subcomplexes, sliced from the global complex.

    Row i at degree q is the global q-simplex simplices[q][i].  The rows
    of patch j are starts[q][j] to starts[q][j + 1], sorted by global
    index as in its submesh.  The metric fields are those dec's operator
    functions read.
    """

    n: int
    simplices: list          # degree -> global simplex index of each row
    starts: list             # degree -> first row of each patch, then total
    boundary: list
    volumes: list
    support_volumes: list
    _op_cache: dict = field(default_factory=dict)

    def num_simplices(self, p: int) -> int:
        return self.simplices[p].shape[0]


def _patch_complex(patches: list) -> PatchComplex:
    """The PatchComplex of patches sharing one manifold.

    Rows are found through the sorted keys j * N_q + global index, so no
    dense patches x simplices table is built.  Support volumes sum each
    patch's own cells in cell order, as a submesh of those cells does.
    """
    m = patches[0].manifold
    n = m.n
    simplices, owner, starts, keys = [], [], [], []
    for q in range(n + 1):
        parts = [pt.patch_simplices(q) for pt in patches]
        sizes = [x.size for x in parts]
        simplices.append(np.concatenate(parts))
        owner.append(np.repeat(np.arange(len(patches)), sizes))
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

    cells, cell_owner = simplices[n], owner[n][:, None]
    support = []
    for q in range(n + 1):
        faces = rows(q, cell_owner, m._cell_faces[q][cells])
        share = m.volumes[n][cells] / math.comb(n + 1, q + 1)
        sv = np.zeros(simplices[q].size)
        np.add.at(sv, faces.ravel(), np.repeat(share, faces.shape[1]))
        support.append(sv)
    return PatchComplex(n, simplices, starts, boundary,
                        [m.volumes[q][simplices[q]] for q in range(n + 1)],
                        support)


def factor_patches(patches: list, p: int) -> None:
    """Factor the degree-p interior system of every patch lacking one.

    The stiffness and mass are assembled once, on the PatchComplex of
    those patches; each patch keeps its interior block, equal bit for
    bit to that of its submesh stiffness and mass, and its own splu
    factors.  A no-op when every patch is already factored at p.
    """
    todo = [pt for pt in patches if p not in pt._factors]
    if not todo:
        return
    for pt in todo:
        if pt.interior[p].size == 0:
            raise PatchError(f"ball {pt.ball.index}: no interior {p}-simplex")
    union = _patch_complex(todo)
    K = dec.stiffness_matrix(union, p)
    M = dec.mass_diagonal(union, p)
    start = union.starts[p]
    for j, pt in enumerate(todo):
        lo, hi = start[j], start[j + 1]
        I = pt.interior[p]
        r = np.searchsorted(union.simplices[p][lo:hi], I)
        K_II = K[lo:hi, lo:hi][np.ix_(r, r)].tocsc()
        pt._factors[p] = PatchFactor(I, K_II, M[lo:hi][r], spla.splu(K_II))


def extract_patch(m: SimplicialManifold, cov, j: int,
                  doubled: bool = False) -> Patch:
    """Build the patch over ball j (or its doubled ball).

    Boundary (n-1)-faces are those lying in exactly one patch n-cell;
    boundary p-simplices are their p-faces, found top down through the
    unsigned incidence: the faces of boundary (p+1)-simplices.  Every
    face of an interior simplex is again a patch simplex.
    """
    ball = cov.balls[j]
    n = m.n
    members = ball.doubled_members if doubled else ball.members
    vmask = np.zeros(m.num_vertices, dtype=bool)
    vmask[members] = True
    cell_mask = m.vertex_mask_to_simplex_mask(n, vmask)
    cells = np.flatnonzero(cell_mask)
    if cells.size == 0:
        raise PatchError(f"ball {j} contains no full n-cell")

    patch = Patch(m, ball, doubled, cells)

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


@dataclass
class SolveDiagnostics:
    ball: int
    degree: int
    unknowns: int
    residual: float
    c_j: float = 0.0
    eta: float = 0.0
    iterations: int = 1


def solve_local_dirichlet(patch: Patch, omega: dec.Cochain,
                          r: float = 2.0) -> tuple[dec.Cochain, SolveDiagnostics]:
    """Solve the patch Hodge-Laplace problem with zero boundary values.

    Solves K_II u_I = M_I omega_I with the patch submesh stiffness K_II
    and mass M_I on the interior simplices, so the submesh Laplacian of
    u equals omega on the interior to machine precision; u is
    zero-extended outside.  K_II is factored once per degree (Patch.
    factor); the sweeps assemble the factors of all patches at once, on
    the first sweep at a degree (factor_patches).
    """
    m, p = patch.manifold, omega.degree
    f = patch.factor(p)
    I, K_II, M_I = f.interior, f.K_II, f.M_I
    u_I = f.lu.solve(M_I * omega.values[I])
    u = patch.extend(p, u_I)

    num = np.linalg.norm((K_II @ u_I) / M_I - omega.values[I])
    den = np.linalg.norm(omega.values[I]) + 1e-300
    mask = np.zeros(m.num_simplices(p), dtype=bool)
    mask[patch.patch_simplices(p)] = True
    w2 = dec.sobolev_norm(m, u, dec.NormSpec(r, order=2), mask)
    lr = dec.lr_norm(m, omega, dec.NormSpec(r), mask)
    c_j = w2 / lr if lr > 0 else 0.0
    return u, SolveDiagnostics(patch.ball.index, p, int(I.size),
                               num / den, c_j)


def _flat_stiffness(patch: Patch, p: int,
                    flat_edge_lengths: np.ndarray | None = None):
    """Interior stiffness of the patch assembled with the chart metric.

    The patch complex is rebuilt with edge lengths induced by the
    identity metric in chart coordinates (or by an explicit per-global-
    edge override), on the same combinatorics as the curved patch.
    """
    m = patch.manifold
    sub, verts, rows = patch.submesh()
    lengths = None
    if flat_edge_lengths is not None:
        lengths = flat_edge_lengths[[m.simplex_index(1, verts[e])
                                     for e in sub.simplices[1]]]
    flat = SimplicialManifold(m.n, sub.vertices, sub.oriented_cells,
                              edge_lengths=lengths, normalize=False,
                              validate=False)
    r = rows[p]
    K_II = dec.stiffness_matrix(flat, p)[np.ix_(r, r)].tocsc()
    return K_II, dec.mass_diagonal(flat, p)[r]


def neumann_series_solve(patch: Patch, omega: dec.Cochain,
                         max_iter: int = 50, tol: float = 1e-12,
                         flat_edge_lengths: np.ndarray | None = None,
                         r: float = 2.0):
    """Flat/curved split iteration for the patch Dirichlet problem.

    Solves the same interior system as the direct mode by iterating
    v_k from Delta_flat v_k = gamma_k, gamma_{k+1} = (Delta - Delta_flat)
    v_k, and summing with alternating signs; returns (u, diagnostics).
    """
    m, p = patch.manifold, omega.degree
    f = patch.factor(p)
    I, K_II, M_I = f.interior, f.K_II, f.M_I
    Kf_II, Mf_I = _flat_stiffness(patch, p, flat_edge_lengths)
    lu = spla.splu(Kf_II)

    def lr_of(vals):
        c = patch.extend(p, vals)
        mask = np.zeros(m.num_simplices(p), dtype=bool)
        mask[I] = True
        return dec.lr_norm(m, c, dec.NormSpec(r), mask)

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
                f"ball {patch.ball.index}: Neumann series diverging "
                "(eta >= 1); use a smaller eps")
        prev = cur
        if cur <= tol * max(norm0, 1e-300):
            break
        sign = -sign
    if eta >= 0.5:
        log.warning("ball %d: Neumann contraction eta=%.3f >= 0.5",
                    patch.ball.index, eta)
    u = patch.extend(p, v)
    return u, SolveDiagnostics(patch.ball.index, p, int(I.size),
                               prev / max(norm0, 1e-300), eta=eta,
                               iterations=k)


def local_czi_check(patch: Patch, u: dec.Cochain, r: float):
    """Interior regularity triplet of the local Calderon-Zygmund bound.

    lhs is the W^{2,r} norm on the half-radius sub-ball; the two right
    hand terms are R^-2 times the L^r norm of u, and the L^r norm of
    Delta u, both over the full ball.  Callers fit (c1, c2) over samples.
    """
    m, p = patch.manifold, u.degree
    ball = patch.ball
    D = all_geodesic_distances(m)
    R = ball.covering_radius
    half = np.zeros(m.num_vertices, dtype=bool)
    half[np.flatnonzero(D[ball.center] <= R / 2.0)] = True
    hmask = m.vertex_mask_to_simplex_mask(p, half)
    if not hmask.any():
        raise PatchError("empty half-radius sub-ball")
    full = np.zeros(m.num_vertices, dtype=bool)
    full[ball.members] = True
    fmask = m.vertex_mask_to_simplex_mask(p, full)

    lhs = dec.sobolev_norm(m, u, dec.NormSpec(r, order=2), hmask)
    term1 = R**-2 * dec.lr_norm(m, u, dec.NormSpec(r), fmask)
    lap = dec.hodge_laplacian(m, p)(u)
    term2 = dec.lr_norm(m, lap, dec.NormSpec(r), fmask)
    return lhs, term1, term2
