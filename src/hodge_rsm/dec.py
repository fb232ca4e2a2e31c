"""Discrete exterior calculus on simplicial cochains.

p-forms are real-valued cochains (one value per canonically oriented
p-simplex).  The coboundary d is the transpose of the signed incidence,
the codifferential is its adjoint for diagonal lumped mass matrices, and
all L^r / Sobolev norms integrate pointwise densities |omega|(sigma) =
|omega_sigma| / vol_p(sigma) against the per-simplex support n-volume.

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
# largest number of unknowns for which a dense rank is computed
DENSE_LIMIT = 3000
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
    (geometry.simplex_average).  averaged, when given, is that average on
    the simplices of the degree measured, so norms of one degree under
    one weight average it once.
    """

    r: float
    order: int = 0
    weight: np.ndarray | None = None
    power: float = 1.0
    averaged: np.ndarray | None = None

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


def mass_matrix(m: SimplicialManifold, p: int) -> sp.dia_matrix:
    return sp.diags(mass_diagonal(m, p))


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
        K = mass_matrix(m, p) @ hodge_laplacian(m, p).matrix
        return ((K + K.T) * 0.5).tocsr()

    return _cached(m, "stiff", p, build)


def scaled_stiffness(m: SimplicialManifold, p: int) -> sp.csr_matrix:
    """S = M^-1/2 K M^-1/2, the mass-symmetrised stiffness, formed once
    per complex and degree (operator cache) for spectrum and the factor."""

    def build():
        Mih = sp.diags(1.0 / np.sqrt(mass_diagonal(m, p)))
        return Mih @ stiffness_matrix(m, p) @ Mih

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
    return densities(u.manifold, u.degree, u.values, 0)


def density_terms(n: int, p: int, order: int) -> list:
    """The terms of the density of order 0, 1 or 2 of p-cochains on an
    n-manifold, as (chain, average) pairs: apply the operators of chain
    in turn ("d", "dstar", "lap"), take |x| / vol over the simplices of
    the degree reached, then average back onto p-simplices ("face",
    "coface") or not (None).  Orders 1 and 2 are the root sums of squares
    of their terms: order 1 the face average of |d*u| and the coface
    average of |du|, order 2 |Lap u|, |dd*u| and |d*du|."""
    if order == 0:
        return [((), None)]
    low = [(("dstar",), "face") if order == 1 else (("dstar", "d"), None)]
    high = [(("d",), "coface") if order == 1 else (("d", "dstar"), None)]
    return ([(("lap",), None)] if order == 2 else []) \
        + (low if p > 0 else []) + (high if p < n else [])


def _chain_operator(m, q: int, name: str):
    """(matrix, degree reached) of one step of a density term's chain,
    applied to q-simplex data."""
    if name == "face":
        return _face_average(m, q + 1), q + 1
    if name == "coface":
        return _coface_average(m, q - 1), q - 1
    op = {"d": exterior_derivative, "dstar": codifferential,
          "lap": hodge_laplacian}[name](m, q)
    return op.matrix, op.target_degree


def densities(m: SimplicialManifold, p: int, values: np.ndarray,
              order: int, chains: dict | None = None) -> np.ndarray:
    """Density of order 0, 1 or 2 of the p-cochain values (see
    density_terms); DensityPlan gives the same for many cochains.  chains,
    if given, holds the values of chains already applied to values, by
    chain, and receives those walked here, so the orders of one cochain
    share them.  A term only squared skips |x|: (x/vol)^2 = (|x|/vol)^2."""
    if order == 0:
        return np.abs(values) / m.volumes[p]
    chains = {} if chains is None else chains
    chains[()] = values
    total = None
    for chain, average in density_terms(m.n, p, order):
        q = p
        for k, name in enumerate(chain):
            A, q = _chain_operator(m, q, name)
            if chain[:k + 1] not in chains:
                chains[chain[:k + 1]] = A @ chains[chain[:k]]
        x = chains[chain]
        if average is None:
            t = x / m.volumes[q]
        else:
            t = np.abs(x)
            t /= m.volumes[q]
            t = _chain_operator(m, q, average)[0] @ t
        t *= t
        total = t if total is None else np.add(total, t, out=total)
    return np.sqrt(total, out=total)


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
    1], its simplices in increasing order.  patterns[key] = (col, row, q)
    lists the entries of q-simplex data the cochains reach, keyed col *
    N_q + row ascending, for key an order 0, 1, 2 or the chain ("lap",).
    Each step of a chain of density_terms is one CSR matrix, steps[chain],
    built once: it maps the values on the pattern before the step to
    those after it, each row summing in the order of the operator's row
    as a sparse product does.  So the densities equal, entry for entry,
    those of the simplices x cochains matrix of x, but for the exact
    zeros a sparse product drops.  A step takes the operator's columns at
    the pattern's simplices in storage order (A[:, row]) and regroups them
    by cochain in one stable counting pass (a permuted transposition), so
    its rows keep the operator rows' order and nothing is sorted.  An
    order's pattern is the merged union of its terms'.  support (a
    simplices x cochains mask) is gathered onto the pattern of each order
    and kept as its restriction (see restriction), for column_norms.
    """

    def __init__(self, m: SimplicialManifold, p: int, index: np.ndarray,
                 offsets: np.ndarray, support: sp.spmatrix):
        self.p = p
        self.ncols = offsets.size - 1
        self.patterns = {(): (self._cochains(offsets),
                              np.asarray(index, dtype=np.int32), p)}
        self.steps, self.volumes, self.terms = {}, {}, []
        for order in range(3):
            ends = []
            for i, (chain, average) in enumerate(density_terms(m.n, p, order)):
                end = chain if average is None else chain + (average,)
                self._step(m, end)
                _, row, q = self.patterns[chain]
                self.volumes[chain] = m.volumes[q][row]
                col, row, _ = self.patterns[end]  # term i: entries 2^i
                ends.append((chain, average, sp.csr_matrix(
                    (np.full(col.size, 2.0**i), row,
                     np.searchsorted(col, np.arange(self.ncols + 1))),
                    shape=(self.ncols, m.num_simplices(p)))))
            # sorted rows add by one merge into the sorted union, whose
            # indices may view a buffer sized for both: copied when kept
            union = sum((E for *_, E in ends[1:]), ends[0][2])
            flags = union.data.astype(np.int64)
            self.patterns[order] = (self._cochains(union.indptr),
                                    union.indices.copy(), p)
            # a term that fills the union needs no scatter (at = None)
            self.terms.append([(chain, average, None if E.nnz == union.nnz
                                else np.flatnonzero(flags >> i & 1))
                               for i, (chain, average, E) in enumerate(ends)])
        self.patterns = {k: self.patterns[k] for k in (0, 1, 2, ("lap",))}
        self.mu = [m.support_volumes[p][self.patterns[k][1]]
                   for k in range(3)]
        self.support = [self.restriction(k, mask) for k, mask in
                        enumerate(self.gather(support, range(3)))]

    def _cochains(self, indptr: np.ndarray) -> np.ndarray:
        """The cochain of each entry of a cochain-major layout."""
        return np.repeat(np.arange(self.ncols, dtype=np.int32),
                         np.diff(indptr))

    def _step(self, m: SimplicialManifold, chain: tuple) -> None:
        """The matrices and patterns of every step of chain."""
        if chain in self.patterns:
            return
        self._step(m, chain[:-1])
        col, row, q = self.patterns[chain[:-1]]
        A, reached = _chain_operator(m, q, chain[-1])
        # reached simplices x pattern entries in the operator rows' order,
        # regrouped by cochain by one stable counting pass (csr_tocsc)
        G = A[:, row]
        by = sp.csr_matrix((np.arange(G.nnz), col[G.indices], G.indptr),
                           shape=(A.shape[0], self.ncols)).tocsc()
        t, a = by.data, by.indices
        c = self._cochains(by.indptr)
        first = np.flatnonzero(np.concatenate(
            [[True], (a[1:] != a[:-1]) | (c[1:] != c[:-1])]))
        self.steps[chain] = sp.csr_matrix(
            (G.data[t], G.indices[t], np.append(first, t.size)),
            shape=(first.size, row.size))
        self.patterns[chain] = (c[first], a[first], reached)

    def gather(self, A: sp.spmatrix, keys) -> list:
        """Values of the CSR or CSC q-simplices x cochains matrix A on the
        pattern of each key of keys, 0 where A stores none (each read in
        A's own compressed order)."""
        return [np.asarray(A[row, col]).ravel()
                for col, row, _ in (self.patterns[k] for k in keys)]

    def densities(self, x: np.ndarray, orders=(0, 1, 2),
                  values: dict | None = None) -> list:
        """The densities of the given orders of the cochains of the
        stacked vector x, each on the pattern of its order.  values, if
        given, receives the values of every chain walked, by chain.  As
        in dec.densities, a term only squared skips |x|, and the sum of
        squares starts from the first term's squares, as 0 + t*t does,
        then adds the others in term order."""
        values = {} if values is None else values
        values[()] = x
        out = []
        for order in orders:
            if order == 0:
                out.append(np.abs(x) / self.volumes[()])
                continue
            total = None
            for chain, average, at in self.terms[order]:
                for k in range(len(chain)):  # each prefix, shortest first
                    step = chain[:k + 1]
                    if step not in values:
                        values[step] = self.steps[step] @ values[chain[:k]]
                if average is None:
                    t = values[chain] / self.volumes[chain]
                else:
                    t = np.abs(values[chain])
                    t /= self.volumes[chain]
                    t = self.steps[chain + (average,)] @ t
                t *= t
                if total is None and at is None:
                    total = t
                elif total is None:
                    total = np.zeros(self.patterns[order][0].size)
                    total[at] = t
                elif at is None:
                    total += t
                else:
                    total[at] += t
            out.append(np.sqrt(total, out=total))
        return out

    def restriction(self, order: int, mask: np.ndarray):
        """(entries, their cochains) of the pattern of order where the
        boolean mask holds, or None when it holds everywhere: the form
        column_norms takes a mask in."""
        if mask.all():
            return None
        return np.flatnonzero(mask), self.patterns[order][0][mask]

    def column_norms(self, order: int, dens: np.ndarray, r: float,
                     mask: tuple | None = None) -> np.ndarray:
        """Unweighted L^r norm of each cochain's order-`order` density
        (dens, on that order's pattern), over the entries of the
        restriction mask if given."""
        col, mu = self.patterns[order][0], self.mu[order]
        if mask is not None:
            at, col = mask
            dens, mu = dens[at], mu[at]
        return np.bincount(col, mu * dens**r, minlength=self.ncols) ** (1 / r)


def integrand(m, p, dens, spec: NormSpec) -> np.ndarray:
    """Per p-simplex terms whose sum is the r-th power of the weighted
    L^r norm of the density dens."""
    mu = m.support_volumes[p]
    if spec.weight is not None:
        mu = mu * (simplex_average(m, p, spec.weight)
                   if spec.averaged is None else spec.averaged) ** spec.power
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
    values and the weight's average."""
    if spec.order not in (1, 2):
        raise ValueError("sobolev_norm requires order 1 or 2")
    p = u.degree
    averaged = spec.averaged
    if spec.weight is not None and averaged is None:
        averaged = simplex_average(m, p, spec.weight)
    base = NormSpec(spec.r, 0, spec.weight, spec.power, averaged)
    chains = {}
    total = 0.0
    for order in range(spec.order + 1):
        total += _integrate(m, p, densities(m, p, u.values, order, chains),
                            base, mask)
    return total


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
