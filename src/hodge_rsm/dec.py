"""Discrete exterior calculus on simplicial cochains.

p-forms are real-valued cochains (one value per canonically oriented
p-simplex).  The coboundary d is the transpose of the signed incidence,
the codifferential is its adjoint for diagonal lumped mass matrices, and
all L^r / Sobolev norms integrate pointwise densities |omega|(sigma) =
|omega_sigma| / vol_p(sigma) against the per-simplex support n-volume.
The mass is barycentric lumping, M_p = (support share of the n-volume) /
vol_p^2 (mass_diagonal): the identities hold for it, but the Laplacian
does not converge to the Hodge Laplacian of the mesh's metric (at p = 0
its gap is half the cotan stiffness's first eigenvalue, same mass).
The densities of orders 1 and 2 follow one formula (density_orders) over
the two halves of the Laplacian, dd* and d*d, whose sum is Lap: for one
cochain with the operators themselves (densities), and for many stacked
in one vector with fixed patterns (DensityPlan).

The operator functions (mass, d, d*, Laplacian, stiffness) read only n,
num_simplices, boundary, volumes, support_volumes and _op_cache of the
complex, so they also run on local_solver.PatchComplex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import SimplicialManifold, simplex_average

INF = math.inf
SHIFT = 1e-6  # of the factored Laplacian, just past its harmonic zeros


class DegreeError(ValueError):
    """Cochain degree out of range or mismatched."""


@dataclass
class Cochain:
    """A discrete p-form: one value per oriented p-simplex."""

    manifold: SimplicialManifold
    degree: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not 0 <= self.degree <= self.manifold.n:
            raise DegreeError(f"degree {self.degree} outside [0, n]")
        if self.values.shape != (self.manifold.num_simplices(self.degree),):
            raise DegreeError("value array does not match simplex count")

    def copy(self) -> "Cochain":
        return Cochain(self.manifold, self.degree, self.values.copy())

    def __add__(self, other: "Cochain") -> "Cochain":
        return Cochain(self.manifold, self.degree, self.values + other.values)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return Cochain(self.manifold, self.degree, self.values - other.values)

    def __mul__(self, k: float) -> "Cochain":
        return Cochain(self.manifold, self.degree, self.values * k)

    __rmul__ = __mul__

    def __neg__(self) -> "Cochain":
        return Cochain(self.manifold, self.degree, -self.values)


@dataclass
class FormOperator:
    """Sparse linear map between cochain spaces."""

    matrix: sp.spmatrix
    source_degree: int
    target_degree: int

    def __call__(self, c: Cochain) -> Cochain:
        if c.degree != self.source_degree:
            raise DegreeError(
                f"operator expects degree {self.source_degree}, got {c.degree}"
            )
        return Cochain(c.manifold, self.target_degree, self.matrix @ c.values)


@dataclass
class NormSpec:
    """Exponent, Sobolev order, and optional pointwise weight.

    The weight is a per-vertex field applied as weight(x)**power inside
    the integral; simplices see the average of their vertex values
    (geometry.simplex_average).
    """

    r: float
    order: int = 0
    weight: np.ndarray | None = None
    power: float = 1.0

    def __post_init__(self):
        if self.r <= 1:
            raise ValueError("exponent r must exceed 1")
        if self.order not in (0, 1, 2):
            raise ValueError("Sobolev order must be 0, 1 or 2")
        if self.weight is not None:
            # accept either a raw per-vertex array or a WeightField
            self.weight = np.asarray(getattr(self.weight, "values", self.weight),
                                     dtype=float)


# -- operator caching ---------------------------------------------------


def _cached(m: SimplicialManifold, key: str, p: int, build):
    # cache lives on the complex so it cannot outlive (or alias) it
    out = m._op_cache.get((key, p))
    if out is None:
        out = m._op_cache[(key, p)] = build()
    return out


def mass_diagonal(m: SimplicialManifold, p: int) -> np.ndarray:
    """Diagonal of the lumped degree-p mass matrix."""
    return _cached(m, "mass", p,
                   lambda: m.support_volumes[p] / m.volumes[p] ** 2)


def inner(u: Cochain, v: Cochain) -> float:
    if u.degree != v.degree:
        raise DegreeError("inner product needs equal degrees")
    w = mass_diagonal(u.manifold, u.degree)
    return float(np.dot(u.values, w * v.values))


def norm_l2(u: Cochain) -> float:
    return math.sqrt(max(inner(u, u), 0.0))


def exterior_derivative(m: SimplicialManifold, p: int) -> FormOperator:
    """Coboundary from p-cochains to (p+1)-cochains (signed incidence)."""
    if not 0 <= p <= m.n:
        raise DegreeError(f"degree {p} outside [0, n]")
    if p == m.n:
        mat = sp.csr_matrix((m.num_simplices(m.n), m.num_simplices(m.n)))
    else:
        mat = _cached(m, "d", p, lambda: m.boundary[p + 1].T.tocsr().astype(float))
    return FormOperator(mat, p, min(p + 1, m.n))


def codifferential(m: SimplicialManifold, p: int) -> FormOperator:
    """Formal adjoint of d for the lumped mass inner products."""
    if not 0 <= p <= m.n:
        raise DegreeError(f"degree {p} outside [0, n]")
    if p == 0:
        mat = sp.csr_matrix((m.num_simplices(0), m.num_simplices(0)))
        return FormOperator(mat, 0, 0)

    def build():
        return diag_product(m.boundary[p].tocsr().astype(float),
                            1.0 / mass_diagonal(m, p - 1),
                            mass_diagonal(m, p))

    return FormOperator(_cached(m, "dstar", p, build).tocsr(), p, p - 1)


def hodge_laplacian(m: SimplicialManifold, p: int) -> FormOperator:
    """Hodge Laplacian on p-cochains: d d* + d* d."""

    def build():
        lap = sp.csr_matrix((m.num_simplices(p), m.num_simplices(p)))
        if p < m.n:
            lap = lap + codifferential(m, p + 1).matrix @ exterior_derivative(m, p).matrix
        if p > 0:
            lap = lap + exterior_derivative(m, p - 1).matrix @ codifferential(m, p).matrix
        return lap.tocsr()

    return FormOperator(_cached(m, "lap", p, build), p, p)


def stiffness_matrix(m: SimplicialManifold, p: int) -> sp.csr_matrix:
    """M_p @ Laplacian: symmetric positive semidefinite."""

    def build():
        K = sp.diags(mass_diagonal(m, p)) @ hodge_laplacian(m, p).matrix
        return ((K + K.T) * 0.5).tocsr()

    return _cached(m, "stiff", p, build)


def scaled_stiffness(m: SimplicialManifold, p: int) -> sp.csr_matrix:
    """S = M^-1/2 K M^-1/2, the mass-symmetrised stiffness, formed once
    per complex and degree (operator cache) for spectrum and the factor."""

    def build():
        mih = 1.0 / np.sqrt(mass_diagonal(m, p))
        return diag_product(stiffness_matrix(m, p).copy(), mih, mih)

    return _cached(m, "scaled_stiff", p, build)


def shifted_factor(m: SimplicialManifold, p: int) -> spla.SuperLU:
    """LU of S + SHIFT I (S = scaled_stiffness), once per complex and
    degree (operator cache), in the minimum-degree order of S^T + S with
    diagonal pivots: 3-4x less fill than SuperLU's default COLAMD."""
    return _cached(m, "shifted_lu", p, lambda: spla.splu(
        (scaled_stiffness(m, p) + SHIFT * sp.identity(m.num_simplices(p)))
        .tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
        options={"SymmetricMode": True}))


# -- densities and norms ------------------------------------------------


def density(u: Cochain) -> np.ndarray:
    """Pointwise density |u|(sigma) = |u_sigma| / vol_p(sigma)."""
    return densities(u.manifold, u.degree, u.values, (0,))[0]


# the two halves of the Laplacian, dd* and d*d, by their steps: (first
# step, average back onto p-simplices, second step)
HALVES = (("dstar", "face", "d"), ("d", "coface", "dstar"))


def _half_operators(m, p: int) -> list:
    """(names, q, first, average, second) of each half of the Laplacian
    at degree p (dd* for p > 0, d*d for p < n): HALVES' names, the degree
    q the first step reaches, and the matrices of its three steps."""
    out = []
    if p > 0:
        out.append((HALVES[0], p - 1, codifferential(m, p).matrix,
                    _face_average(m, p), exterior_derivative(m, p - 1).matrix))
    if p < m.n:
        out.append((HALVES[1], p + 1, exterior_derivative(m, p).matrix,
                    _coface_average(m, p), codifferential(m, p + 1).matrix))
    return out


def laplacian_from_halves(values: dict) -> np.ndarray:
    """Lap x = dd*x + d*dx, the sum of the second steps' values in values
    (see density_orders; one of them at p = 0 or n)."""
    halves = [values[first, second] for first, _, second in HALVES
              if (first, second) in values]
    return sum(halves[1:], halves[0])


def density_orders(steps: dict, volumes: dict, x: np.ndarray, orders,
                   values: dict) -> list:
    """The densities of the given orders (0, 1, 2) of the p-cochain
    values x: |x| / vol at order 0; at order 1 the root sum of squares
    of the face average of |d*x| / vol and the coface average of |dx| /
    vol; at order 2 that of |Lap x|, |dd*x| and |d*dx| over vol, Lap x
    from its two halves (laplacian_from_halves).  steps[chain] maps the
    values of chain[:-1] to those of chain, for the chains of HALVES:
    (first,), (first, average), applied to |values| / vol, and (first,
    second); a half without its first step (p = 0 or n) adds no term.
    volumes[chain] holds the volumes of the simplices the values of
    chain lie on, () those of x.  values receives the values of each
    chain applied, by chain, and may hold some already.  A term only
    squared skips |x|: (x/vol)^2 = (|x|/vol)^2; the sum of squares starts
    from the first term's squares, then adds the others in term order.
    This one formula serves dec.densities (one cochain, the operators
    themselves) and DensityPlan.densities (a stack, the plan's steps)."""
    values[()] = x
    halves = [h for h in HALVES if (h[0],) in steps]
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
                t = np.abs(values[first,])
                t /= volumes[first,]
                terms.append(steps[first, average] @ t)
            elif (first, second) not in values:
                values[first, second] = steps[first, second] @ values[first,]
        if order == 2:
            vol = volumes[halves[0][0], halves[0][2]]
            terms = [laplacian_from_halves(values) / vol] + [
                values[first, second] / vol for first, _, second in halves]
        total = terms[0]
        total *= total
        for t in terms[1:]:
            t *= t
            total += t
        out.append(np.sqrt(total, out=total))
    return out


def densities(m: SimplicialManifold, p: int, values: np.ndarray,
              orders=(0, 1, 2)) -> list:
    """The densities of the given orders (0, 1, 2) of the p-cochain
    values, which share their chain values (density_orders, here with
    the operators of m as its steps); DensityPlan.densities gives the
    same for many cochains."""
    steps, volumes = {}, {(): m.volumes[p]}
    if any(orders):
        for (first, average, second), q, A, avg, B in _half_operators(m, p):
            steps[first,], steps[first, average], steps[first, second] = \
                A, avg, B
            volumes[first,] = m.volumes[q]
            volumes[first, second] = m.volumes[p]
    return density_orders(steps, volumes, values, orders, {})


def _average(incidence: sp.csr_matrix) -> sp.csr_matrix:
    """diags(1 / row counts) @ |incidence| (sorted CSR) as that sparse
    product forms it: each row's entries in reverse order."""
    counts = np.diff(incidence.indptr)
    at = np.repeat(incidence.indptr[1:] - 1, counts) \
        - np.arange(incidence.nnz) + np.repeat(incidence.indptr[:-1], counts)
    return sp.csr_matrix((np.repeat(1.0 / np.maximum(counts, 1.0), counts),
                          incidence.indices[at], incidence.indptr),
                         shape=incidence.shape)


def _coface_average(m: SimplicialManifold, p: int) -> sp.csr_matrix:
    """Row-stochastic map taking (p+1)-simplex data to p-simplices."""
    return _cached(m, "coface_avg", p,
                   lambda: _average(m.boundary[p + 1].tocsr()))


def _face_average(m: SimplicialManifold, p: int) -> sp.csr_matrix:
    """Row-stochastic map taking (p-1)-simplex data to p-simplices."""
    return _cached(m, "face_avg", p,
                   lambda: _average(m.boundary[p].T.tocsr()))


def diag_product(A, left: np.ndarray, right: np.ndarray | None = None):
    """diags(left) @ A @ diags(right), in place on the CSR matrix A, as
    those two sparse products form it, in A's entry order: an entry is
    dropped where either product makes it 0 or where it meets a 0 of a
    diagonal (not stored: even inf * 0)."""
    lw = np.repeat(left, np.diff(A.indptr))
    A.data *= lw
    drop = (lw == 0) | (A.data == 0)
    if right is not None:
        rw = right[A.indices]
        A.data *= rw
        drop |= rw == 0
    A.data[drop] = 0.0
    A.eliminate_zeros()
    return A


class DensityPlan:
    """The densities of many p-cochains at once, from one stacked vector.

    Entry e of a stacked vector x is the value of cochain col[e] on the
    p-simplex index[e]; cochain j owns entries offsets[j] to offsets[j +
    1], its simplices in increasing order.  The plan has two patterns of
    p-simplex entries, patterns[k] = (col, row), keyed col * N_p + row
    ascending: pattern 0 the stacked entries, pattern 1 the one ring,
    each cochain's p-simplices that share a face or a coface with one of
    its entries.  Densities of order 0 lie on pattern 0, those of orders
    1 and 2 on the one ring: the face average has the sparsity of
    d_{p-1}, the coface average that of d*_{p+1}, and Lap lies in their
    union.  Each step of density_orders is one CSR matrix, steps[chain],
    built once: the first steps map the stacked values to the (p +/- 1)-
    simplices the cochains reach, and the averages and second steps map
    those onto the one ring, so Lap x is the sum of the second steps'
    values, with no scatter.  Each row sums in the order of the
    operator's row, as a sparse product does, so the densities of orders
    0 and 1 equal, entry for entry, those of the simplices x cochains
    matrix of x, but for the exact zeros a sparse product drops; order 2
    sums Lap x from its halves.  A step takes the operator's columns at
    the pattern's simplices in storage order (A[:, row]) and regroups
    them by cochain in one stable counting pass (a permuted
    transposition), so its rows keep the operator rows' order and
    nothing is sorted.
    """

    def __init__(self, m: SimplicialManifold, p: int, index: np.ndarray,
                 offsets: np.ndarray):
        self.p = p
        self.ncols = offsets.size - 1
        N = m.num_simplices(p)
        stacked = (self._cochains(offsets), np.asarray(index, dtype=np.int32))
        self.steps, self.volumes = {}, {(): m.volumes[p][stacked[1]]}
        last = []
        for (first, average, second), q, A, avg, B in _half_operators(m, p):
            self.steps[first,], col, row = self._step(A, *stacked)
            self.volumes[first,] = m.volumes[q][row]
            for name, op in ((average, avg), (second, B)):
                step, c, a = self._step(op, col, row)
                last.append(((first, name), step, c.astype(np.int64) * N + a))
        # the one ring is the union of what the last steps reach, merged
        # from their ascending keys (a stable sort of sorted runs); each
        # one's rows are spread onto it
        keys = np.sort(np.concatenate([key for *_, key in last]),
                       kind="stable")
        ring = keys[np.append(True, keys[1:] != keys[:-1])]
        self.patterns = [stacked, ((ring // N).astype(np.int32),
                                   (ring % N).astype(np.int32))]
        volumes = m.volumes[p][self.patterns[1][1]]
        for chain, step, key in last:
            indptr = np.zeros(ring.size + 1, dtype=np.int64)
            indptr[np.searchsorted(ring, key) + 1] = np.diff(step.indptr)
            self.steps[chain] = sp.csr_matrix(
                (step.data, step.indices, np.cumsum(indptr)),
                shape=(ring.size, step.shape[1]))
            self.volumes[chain] = volumes
        self.mu = [m.support_volumes[p][row] for _, row in self.patterns]

    def _cochains(self, indptr: np.ndarray) -> np.ndarray:
        """The cochain of each entry of a cochain-major layout."""
        return np.repeat(np.arange(self.ncols, dtype=np.int32),
                         np.diff(indptr))

    def _step(self, A: sp.csr_matrix, col: np.ndarray,
              row: np.ndarray) -> tuple:
        """(step, col, row): the matrix of the operator A on the entries
        (col, row), one row per entry of the simplices it reaches, and
        the pattern of those."""
        # reached simplices x pattern entries in the operator rows' order,
        # regrouped by cochain by one stable counting pass (csr_tocsc)
        G = A[:, row]
        by = sp.csr_matrix((np.arange(G.nnz), col[G.indices], G.indptr),
                           shape=(A.shape[0], self.ncols)).tocsc()
        t, a = by.data, by.indices
        c = self._cochains(by.indptr)
        first = np.flatnonzero(np.concatenate(
            [[True], (a[1:] != a[:-1]) | (c[1:] != c[:-1])]))
        return sp.csr_matrix((G.data[t], G.indices[t],
                              np.append(first, t.size)),
                             shape=(first.size, row.size)), c[first], a[first]

    def gather(self, A: sp.spmatrix, keys) -> list:
        """Values of the CSR or CSC p-simplices x cochains matrix A on
        each pattern of keys, 0 where A stores none (each read in A's own
        compressed order)."""
        return [np.asarray(A[row, col]).ravel()
                for col, row in (self.patterns[k] for k in keys)]

    def densities(self, x: np.ndarray, orders=(0, 1, 2),
                  values: dict | None = None) -> list:
        """The densities of the given orders of the cochains of the
        stacked vector x (density_orders on the plan's steps), order 0 on
        pattern 0 and orders 1 and 2 on the one ring.  values, if given,
        receives the values of every chain applied, by chain."""
        return density_orders(self.steps, self.volumes, x, orders,
                              {} if values is None else values)

    def restriction(self, k: int, mask: np.ndarray):
        """(entries, their cochains) of pattern k where the boolean mask
        holds, or None when it holds everywhere: the form column_norms
        takes a mask in."""
        if mask.all():
            return None
        return np.flatnonzero(mask), self.patterns[k][0][mask]

    def column_norms(self, k: int, dens: np.ndarray, r: float,
                     mask: tuple | None = None) -> np.ndarray:
        """Unweighted L^r norm of each cochain's density dens on pattern
        k (0 for order 0, 1 for orders 1 and 2), over the entries of the
        restriction mask if given."""
        col, mu = self.patterns[k][0], self.mu[k]
        if mask is not None:
            at, col = mask
            dens, mu = dens[at], mu[at]
        return np.bincount(col, mu * dens**r, minlength=self.ncols) ** (1 / r)


def integrand(m, p, dens, spec: NormSpec) -> np.ndarray:
    """Per p-simplex terms whose sum is the r-th power of the weighted
    L^r norm of the density dens."""
    mu = m.support_volumes[p]
    if spec.weight is not None:
        mu = mu * simplex_average(m, p, spec.weight) ** spec.power
    return mu * dens**spec.r


def _integrate(m, p, dens, spec: NormSpec, mask=None) -> float:
    term = integrand(m, p, dens, spec)
    if mask is not None:
        term = term[mask]
    return float(term.sum()) ** (1.0 / spec.r)


def lr_norm(m: SimplicialManifold, u: Cochain, spec: NormSpec, mask=None) -> float:
    """Weighted L^r norm of a p-cochain (optionally over a simplex mask)."""
    if u.manifold is not m:
        raise DegreeError("cochain does not belong to this manifold")
    if spec.order != 0:
        raise ValueError("lr_norm requires order 0")
    return _integrate(m, u.degree, density(u), spec, mask)


def sobolev_norm(m: SimplicialManifold, u: Cochain, spec: NormSpec, mask=None) -> float:
    """Weighted W^{k,r} norm, k = spec.order in {1, 2}: the sum of the
    L^r norms of the densities of orders 0 to k, which share their chain
    values."""
    if u.manifold is not m:
        raise DegreeError("cochain does not belong to this manifold")
    if spec.order not in (1, 2):
        raise ValueError("sobolev_norm requires order 1 or 2")
    p = u.degree
    return sum(_integrate(m, p, dens, spec, mask)
               for dens in densities(m, p, u.values, range(spec.order + 1)))


def sobolev_exponent(r: float, k: int, n: int):
    """Exponent gain of k orders of regularity; INF past the threshold."""
    if r <= 1 or k < 0 or n < 2:
        raise ValueError("need r > 1, k >= 0, n >= 2")
    inv = 1.0 / r - k / n
    if inv <= 0:
        return INF
    return 1.0 / inv


def random_cochain(m: SimplicialManifold, p: int,
                   rng: np.random.Generator) -> Cochain:
    """Unit-mass-norm random p-cochain (standard normal values)."""
    u = Cochain(m, p, rng.standard_normal(m.num_simplices(p)))
    nrm = norm_l2(u)
    return u * (1.0 / nrm) if nrm > 0 else u
