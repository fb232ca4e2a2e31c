"""Spectral layer: harmonic spaces, gap inverses, Hodge decompositions.

The generalized eigenproblem K y = lambda M y is symmetrized through the
diagonal mass matrix; eigenvalues below a relative tolerance span the
harmonic space, the first one above it is the spectral gap.  Poisson
solves combine the raising-steps sweeps, without their ledger, with a
preconditioned conjugate gradient on the gap; dual solves apply the
mass adjoint of that operator through adjoint gluing sweeps;
decompositions are certified by reconstruction residuals and
orthogonality tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from . import dec, rsm
from .covering import AdmissibleCovering, RadiusField, WeightField
from .geometry import SimplicialManifold

# largest number of unknowns for which a dense rank is computed
DENSE_LIMIT = 3000
HARMONIC_TOL_REL = 1e-8
CZI_HEADROOM = 1.25


class AnalysisError(RuntimeError):
    pass


@dataclass
class SpectrumReport:
    degree: int
    eigenvalues: np.ndarray
    harmonic_dim: int
    gap: float
    harmonic_basis: np.ndarray     # (num_simplices, harmonic_dim), M-orthonormal
    harmonic_tol: float            # absolute threshold, as in to_dict()
    # Gershgorin upper bound of the largest eigenvalue
    scale: float
    cluster_flag: bool = False

    def to_dict(self) -> dict:
        return {"degree": self.degree,
                "eigenvalues": self.eigenvalues.tolist(),
                "harmonic_dim": self.harmonic_dim,
                "gap": self.gap,
                "harmonic_tol": self.harmonic_tol,
                "cluster_flag": bool(self.cluster_flag)}


@dataclass
class HodgeDecompositionResult:
    omega: dec.Cochain
    mode: str
    harmonic: dec.Cochain
    exact: dec.Cochain = None
    coexact: dec.Cochain = None
    u: dec.Cochain = None
    mu: dec.Cochain = None
    nu: dec.Cochain = None
    residual: float = 0.0
    orthogonality: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)


def spectrum(m: SimplicialManifold, p: int, m_eigs: int = 10,
             harmonic_tol: float = HARMONIC_TOL_REL) -> SpectrumReport:
    """Lowest eigenpairs of the degree-p Hodge Laplacian.

    Shift-invert Lanczos on S = dec.scaled_stiffness (sigma = -dec.SHIFT)
    from a fixed pseudo-random start, so repeated runs agree bit for bit;
    at most N - 1 pairs are returned.  It inverts through the mesh's one
    dec.shifted_factor per degree, shared with gap_solve and built on the
    same cached S, and reports the
    Rayleigh quotients of the Lanczos vectors (ARPACK's own converge only
    relative to 1/SHIFT).  harmonic_tol is relative to the Gershgorin upper
    bound of the largest eigenvalue; the report keeps the absolute
    threshold.  A flag is raised when eigenvalues cluster suspiciously
    close to the harmonic threshold.
    """
    N = m.num_simplices(p)
    Mh = np.sqrt(dec.mass_diagonal(m, p))
    S = dec.scaled_stiffness(m, p)
    inverse = spla.LinearOperator((N, N), dec.shifted_factor(m, p).solve)
    v0 = np.random.default_rng(0).uniform(-1, 1, N)
    ritz, vecs = spla.eigsh(S, k=min(m_eigs, N - 1), sigma=-dec.SHIFT,
                            which="LM", v0=v0, OPinv=inverse)
    vecs = vecs[:, np.argsort(ritz)]
    vals = np.einsum("ij,ij->j", vecs, S @ vecs)
    # abs() sorts a matrix's indices in place: the copy keeps the cached
    # S in the order every later product of it (and the factor) reads
    scale = float(abs(S.copy()).sum(axis=1).max())
    if vals[0] < -1e-12 * scale:
        raise AnalysisError("negative eigenvalue beyond tolerance")
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
    G = (basis * dec.mass_diagonal(m, p)[:, None]).T @ basis
    basis = basis @ np.linalg.inv(np.linalg.cholesky(G)).T
    return SpectrumReport(p, np.maximum(vals, 0.0), dim, gap, basis,
                          tol, scale, cluster)


def harmonic_projection(m: SimplicialManifold, rep: SpectrumReport,
                        omega: dec.Cochain) -> dec.Cochain:
    """Mass-orthogonal projection onto the harmonic space."""
    if omega.degree != rep.degree:
        raise dec.DegreeError("spectrum degree does not match cochain")
    Mw = dec.mass_diagonal(m, omega.degree)
    coef = rep.harmonic_basis.T @ (Mw * omega.values)
    return dec.Cochain(m, omega.degree, rep.harmonic_basis @ coef)


def gap_solve(m: SimplicialManifold, rep: SpectrumReport,
              g: dec.Cochain, rtol: float = 1e-11) -> dec.Cochain:
    """Preconditioned conjugate gradient inverse on the spectral gap.

    Returns f, mass-orthogonal to the harmonic space, with
    |K f - M(g - Hg)| <= rtol |M g| (Euclidean norms; K the stiffness,
    M the diagonal mass, Hg the harmonic projection of g).  The
    tolerance is relative to the input g itself, harmonic part
    included: for a (nearly) harmonic g the projected right-hand side
    M(g - Hg) is roundoff whose kernel component CG cannot reduce.
    When that side is already within the tolerance, the zero cochain
    is returned.  The preconditioner M^-1/2 (S + SHIFT I)^-1 M^-1/2,
    projected off the harmonic space, puts the spectrum in
    [gap / (gap + SHIFT), 1), so PCG takes two or three iterations; it
    inverts through the mesh's one dec.shifted_factor per degree, built by
    spectrum or else by the first solve.  Raises AnalysisError when PCG
    does not reach the tolerance within 20 N iterations, or when the
    spectral bound |f| <= |g|/gap fails.
    """
    p = g.degree
    K = dec.stiffness_matrix(m, p)
    Mw = dec.mass_diagonal(m, p)
    H = rep.harmonic_basis

    def project(x):
        return x - H @ (H.T @ (Mw * x))

    b = Mw * project(g.values)
    x = np.zeros_like(b)
    res = b.copy()
    tol = rtol * float(np.linalg.norm(Mw * g.values))
    if math.sqrt(res @ res) <= tol:
        return dec.Cochain(m, p, x)
    Mih = 1.0 / np.sqrt(Mw)
    lu = dec.shifted_factor(m, p)

    def precondition(r):
        return project(Mih * lu.solve(Mih * r))

    d = precondition(res)
    rz = res @ d
    for _ in range(20 * len(b)):
        Kd = K @ d
        alpha = rz / (d @ Kd)
        x += alpha * d
        res -= alpha * Kd
        if math.sqrt(res @ res) <= tol:
            break
        z = precondition(res)
        rz, rz_old = res @ z, rz
        d = z + (rz / rz_old) * d
    else:
        raise AnalysisError("gap_solve: residual stagnation")
    x = project(x)
    f = dec.Cochain(m, p, x)
    if rep.gap > 0 and math.isfinite(rep.gap):
        if dec.norm_l2(f) > dec.norm_l2(g) / rep.gap * (1 + 1e-8):
            raise AnalysisError("gap_solve: spectral bound violated")
    return f


def _gap_orthogonal_norm(m: SimplicialManifold, rep: SpectrumReport,
                         x: dec.Cochain, message: str) -> float:
    """|x|, once x is (numerically) orthogonal to harmonics: its harmonic
    part is at most 1e-8 |x|, else AnalysisError(message)."""
    nrm = dec.norm_l2(x)
    if nrm > 0 and dec.norm_l2(harmonic_projection(m, rep, x)) > 1e-8 * nrm:
        raise AnalysisError(message)
    return nrm


def poisson_solve(m: SimplicialManifold, cov: AdmissibleCovering,
                  rf: RadiusField, rep: SpectrumReport,
                  omega: dec.Cochain, r: float,
                  alpha: WeightField | None = None, k: int | None = None):
    """Global Poisson solve: k bare gluing sweeps plus the gap inverse.

    Requires the input to be (numerically) orthogonal to harmonics.  The
    sweeps are those of rsm.raising_steps (rsm.step_loop over rsm.sweep,
    k = RsmConfig(r, 2, k).steps(n)) without their ledger; then u = v -
    L+(omega_tilde - H omega_tilde), bit for bit raising_steps' v minus
    that gap solve.  Returns (u, {"residual": |Delta u - omega| /
    |omega|}), Delta u = omega to solver precision; the ledger and trace
    come from rsm.raising_steps, as `hodge-rsm solve` books them.  rf
    and alpha are not read (only the ledger reads them) and keep the
    argument list that callers pass by position.
    """
    nrm = _gap_orthogonal_norm(m, rep, omega, "poisson_solve: project the "
                               "harmonic part first")
    steps = rsm.RsmConfig(r, 2.0, k=k).steps(m.n)
    v, om_t = rsm.step_loop(omega, steps,
                            lambda cur, _: rsm.sweep(m, cov, cur))
    f = gap_solve(m, rep, om_t - harmonic_projection(m, rep, om_t))
    u = v - f
    lap = dec.hodge_laplacian(m, omega.degree)
    resid = dec.norm_l2(lap(u) - omega) / (nrm + 1e-300)
    return u, {"residual": resid}


def dual_poisson_solve(m: SimplicialManifold, cov: AdmissibleCovering,
                       rf: RadiusField, rep: SpectrumReport,
                       phi: dec.Cochain, r: float, k: int = 1):
    """Solve by adjoint: u = G* phi, G the solve operator of poisson_solve.

    With T the gluing sweep, A = Delta T - I and L+ the gap inverse, G =
    sum_{i<k} (-1)^i T A^i - (-1)^(k-1) L+ A^k.  Delta and L+ are
    self-adjoint in the mass inner product, so G* phi = sum_{i<k} (-1)^i
    (A*)^i T* phi - (-1)^(k-1) (A*)^k L+ phi with A* = T* Delta - I.
    Horner's rule turns this into k adjoint sweeps (rsm.sweep_adjoint)
    from u = L+ phi: u <- u + T*(phi - Delta u).  The harmonic part of u
    is removed; for gap-orthogonal phi, Delta u = phi (finite-dimensional
    adjoint identity).  Returns (u, {"residual": |Delta u - phi| / |phi|});
    rf and r are not read, and keep poisson_solve's argument list.
    """
    nrm = _gap_orthogonal_norm(m, rep, phi, "dual_poisson_solve: project "
                               "first")
    lap = dec.hodge_laplacian(m, phi.degree)
    u = gap_solve(m, rep, phi)
    for _ in range(max(k, 1)):
        u = u + rsm.sweep_adjoint(m, cov, phi - lap(u))
    u = u - harmonic_projection(m, rep, u)
    return u, {"residual": dec.norm_l2(lap(u) - phi) / (nrm + 1e-300)}


# -- decompositions -----------------------------------------------------


def orthogonality_check(m: SimplicialManifold, h: dec.Cochain,
                        exact: dec.Cochain, coexact: dec.Cochain) -> dict:
    """Normalized pairwise mass inner products of the three components."""
    def entry(a, b):
        na, nb = dec.norm_l2(a), dec.norm_l2(b)
        if na == 0 or nb == 0:
            return 0.0
        return abs(dec.inner(a, b)) / (na * nb)
    return {"h_exact": entry(h, exact),
            "h_coexact": entry(h, coexact),
            "exact_coexact": entry(exact, coexact)}


def _split(m: SimplicialManifold, u: dec.Cochain, d_dstar: bool):
    """(mu, nu, exact, coexact), exact + coexact = Delta u.  With d_dstar,
    mu = d*u and nu = du (None at degree 0 and n), and the parts d mu and
    d* nu of Delta u (zero there); else mu = nu = None, exact = Delta u
    and coexact is zero."""
    p = u.degree
    zero = dec.Cochain(m, p, np.zeros(m.num_simplices(p)))
    if not d_dstar:
        return None, None, dec.hodge_laplacian(m, p)(u), zero
    mu = dec.codifferential(m, p)(u) if p > 0 else None
    nu = dec.exterior_derivative(m, p)(u) if p < m.n else None
    ex = zero if mu is None else dec.exterior_derivative(m, p - 1)(mu)
    co = zero if nu is None else dec.codifferential(m, p + 1)(nu)
    return mu, nu, ex, co


def strong_decomposition(m: SimplicialManifold, cov: AdmissibleCovering,
                         rep: SpectrumReport, omega: dec.Cochain, r: float,
                         k: int | None = None,
                         mode: str = "delta") -> HodgeDecompositionResult:
    """Direct decomposition omega = h + Delta u (optionally d/d* split).

    The harmonic part is the spectral projection of omega
    (harmonic_projection); u solves Delta u = omega - h by poisson_solve
    with k sweeps (RsmConfig's default when None), which books no
    ledger.  Mode "delta" reports Delta u as the exact part, mode
    "d_dstar" splits it into d(d*u) + d*(du) (_split); the residual is
    |omega - h - exact - coexact| / |omega|.
    """
    if mode not in ("delta", "d_dstar"):
        raise ValueError(f"unknown mode {mode!r}")
    p = omega.degree
    h = harmonic_projection(m, rep, omega)
    c = omega - h
    # re-project: roundoff in h leaves harmonic dust in the complement
    c = c - harmonic_projection(m, rep, c)
    if dec.norm_l2(c) <= 1e-12 * max(dec.norm_l2(omega), 1e-300):
        u = dec.Cochain(m, p, np.zeros(m.num_simplices(p)))
    else:
        u = poisson_solve(m, cov, None, rep, c, r, k=k)[0]
    mu, nu, ex, co = _split(m, u, mode == "d_dstar")
    return HodgeDecompositionResult(
        omega, f"strong_{mode}", h, exact=ex, coexact=co, u=u, mu=mu, nu=nu,
        residual=dec.norm_l2(omega - h - ex - co)
        / (dec.norm_l2(omega) + 1e-300),
        orthogonality=orthogonality_check(m, h, ex, co))


def weak_decomposition(m: SimplicialManifold, cov: AdmissibleCovering,
                       rep: SpectrumReport, omega: dec.Cochain, r: float,
                       alpha: WeightField | np.ndarray | None = None,
                       eps_target: float = 1e-2,
                       mode: str = "delta_closure",
                       _min_balls: int = 1) -> HodgeDecompositionResult:
    """Closure-style decomposition via compactly supported approximants.

    The gap-orthogonal part of omega is truncated to a growing union of
    covering balls until the truncation error (the computable content of
    "closure") drops below eps_target; the truncated form is solved as
    in the strong mode (poisson_solve, no ledger) and the leftover E_eps
    is reported.  alpha, a WeightField or a per-vertex array (as NormSpec
    takes), weights the L^r norms of the truncation tails and of E_eps.
    """
    if mode not in ("delta_closure", "d_dstar_closure"):
        raise ValueError(f"unknown mode {mode!r}")
    p = omega.degree
    h = harmonic_projection(m, rep, omega)
    om_c = omega - h
    spec_r = dec.NormSpec(r, weight=alpha, power=r) if alpha is not None \
        else dec.NormSpec(r)

    # order balls by captured mass around the support: the sum over each
    # ball's simplices, ascending
    dens = np.abs(om_c.values)
    members = cov.members
    balls = rsm.ball_simplices(m, p, members)
    mass = [-float(dens[balls.indices[a:b]].sum())
            for a, b in zip(balls.indptr[:-1], balls.indptr[1:])]
    # a vertex joins the union with the first ball in that order holding
    # it, a simplex with the last of its vertices; tails[k] is the r-th
    # power of the L^r norm of omega_c outside the union of k balls
    ranked = members[:, np.argsort(mass, kind="stable")].tocsr()
    first = np.minimum.reduceat(ranked.indices, ranked.indptr[:-1])
    joins = first[m.simplices[p]].max(axis=1)
    tails = np.cumsum(np.bincount(joins, dec.integrand(
        m, p, dec.density(om_c), spec_r), len(mass))[::-1])[::-1]
    lo = max(_min_balls, 1)
    used = lo + int(np.argmax(np.append(
        tails[lo:] ** (1.0 / r) <= eps_target, True)))
    om_eps = dec.Cochain(m, p, np.where(joins < used, om_c.values, 0.0))
    om_eps = om_eps - harmonic_projection(m, rep, om_eps)
    u = poisson_solve(m, cov, None, rep, om_eps, r)[0]
    mu, nu, ex, co = _split(m, u, mode == "d_dstar_closure")
    return HodgeDecompositionResult(
        omega, f"weak_{mode}", h, exact=ex, coexact=co, u=u, mu=mu, nu=nu,
        orthogonality=orthogonality_check(m, h, ex, co),
        extras={"E_eps": dec.lr_norm(m, omega - h - ex - co, spec_r),
                "eps_target": eps_target, "balls_used": used})


# -- inequality verification -------------------------------------------


def czi_terms(m: SimplicialManifold, rf: RadiusField, u: dec.Cochain,
              r: float, w: WeightField, classical: bool = False):
    """Terms of the weighted Calderon-Zygmund inequality for one u.

    lhs = |u|_{W^{2,r}(w)}; term1 = |u|_{L^r(w w0^r)} with w0 = R^-2
    (dropped in classical mode); term2 = |Delta u|_{L^r(w)}.
    """
    p = u.degree
    lhs = dec.sobolev_norm(m, u, dec.NormSpec(r, order=2, weight=w, power=r))
    if classical:
        t1_weight = w.values
    else:
        t1_weight = w.values * rf.values ** (-2.0 * r)
    term1 = dec.lr_norm(m, u, dec.NormSpec(r, weight=t1_weight, power=1.0))
    lap = dec.hodge_laplacian(m, p)(u)
    term2 = dec.lr_norm(m, lap, dec.NormSpec(r, weight=w, power=r))
    return lhs, term1, term2


def czi_fit(samples, headroom: float = CZI_HEADROOM):
    """Smallest (C1, C2) >= 0 with C1*t1 + C2*t2 >= lhs over all samples.

    The linear program min C1 + C2 has two unknowns, so it is solved in
    closed form by enumerating its vertices.  The bounds C1 >= 0 and
    C2 >= 0 join the samples as two more rows; every pair of rows whose
    2x2 determinant is nonzero meets in one point (Cramer's rule), which
    gives the axis points lhs/t1 and lhs/t2 and the pairwise
    intersections.  A point is feasible when every row holds to within
    1e-12 of its |lhs|, so C1, C2 >= 0 hold exactly; the terms are
    norms, nonnegative, so roundoff moves a row by a few ulps of its lhs
    at most.  Of the feasible points the least C1 + C2 wins; points
    within 4 ulps of that least sum tie, and the larger C1 wins a tie
    (the one sample (1, 1, 1) gives C1 = 1, C2 = 0).  The returned
    constants carry a headroom factor so they remain valid on held-out
    samples of the same law.  Raises AnalysisError on an empty sample
    set, a non-finite term, or rows no point satisfies.
    """
    rows = np.array(samples, dtype=float).reshape(-1, 3)
    if not len(rows):
        raise AnalysisError("CZI constant fit has no samples")
    if not np.isfinite(rows).all():
        raise AnalysisError("CZI constant fit has a non-finite term")
    lhs, t1, t2 = np.vstack([rows, [[0.0, 1.0, 0.0],
                                    [0.0, 0.0, 1.0]]]).T
    i, j = np.triu_indices(len(lhs), 1)
    det = t1[i] * t2[j] - t1[j] * t2[i]
    keep = np.flatnonzero(det)
    i, j, det = i[keep], j[keep], det[keep]
    # + 0.0 turns -0.0 into 0.0; a point that overflowed fails a bound
    # row (0 * inf is nan), so only finite points are feasible
    c1 = (lhs[i] * t2[j] - lhs[j] * t2[i]) / det + 0.0
    c2 = (t1[i] * lhs[j] - t1[j] * lhs[i]) / det + 0.0
    slack = t1[:, None] * c1 + t2[:, None] * c2 - lhs[:, None]
    feasible = (slack >= -1e-12 * np.abs(lhs)[:, None]).all(axis=0)
    if not feasible.any():
        raise AnalysisError("CZI constant fit infeasible")
    c1, c2 = c1[feasible], c2[feasible]
    total = c1 + c2
    tie = total <= total.min() * (1 + 4 * np.finfo(float).eps)
    k = np.flatnonzero(tie)[np.argmax(c1[tie])]
    return float(c1[k]) * headroom, float(c2[k]) * headroom


def weighted_czi_verify(m: SimplicialManifold, cov: AdmissibleCovering,
                        rf: RadiusField, us, r: float, w: WeightField,
                        classical: bool | None = None) -> dict:
    """Fit and evaluate the weighted CZI over a sample of cochains.

    classical defaults to the bounded-radius flag (min R >= max R / 4);
    the moreover clause at t = S_2(r) is evaluated when t is finite.
    """
    if classical is None:
        classical = bounded_radius_flag(rf)
    rows = [czi_terms(m, rf, u, r, w, classical) for u in us]
    c1, c2 = czi_fit(rows)
    margins = [c1 * t1 + c2 * t2 - lhs for lhs, t1, t2 in rows]
    out = {"C1": c1, "C2": c2, "rows": rows, "margins": margins,
           "classical": classical}
    t = dec.sobolev_exponent(r, 2, m.n)
    if t is not dec.INF:
        more = []
        for u in us:
            lhs2 = dec.lr_norm(m, u, dec.NormSpec(t, weight=w, power=t))
            wgt = w.values**r * rf.values ** (-2.0 * t)
            rhs2 = dec.sobolev_norm(m, u, dec.NormSpec(r, order=2,
                                                       weight=wgt,
                                                       power=1.0))
            more.append((lhs2, rhs2))
        out["moreover"] = more
        out["moreover_C"] = max((l / rr for l, rr in more if rr > 0),
                                default=0.0)
    else:
        out["moreover"] = "skipped: S_2(r) infinite"
    return out


def bounded_radius_flag(rf: RadiusField) -> bool:
    return bool(rf.values.min() >= 0.25 * rf.values.max())


def derivative_rank(m: SimplicialManifold, q: int) -> int | None:
    """Rank of d_q, exact on a closed oriented mesh for q = 0 (V minus the
    components of the edge graph) and q = n-1 (N_n minus the components
    of the cell-adjacency graph).  d_1 of a 3-manifold takes a dense
    matrix_rank, cubic in its size, so above DENSE_LIMIT edges it is not
    computed and the result is None."""
    if q == 0:
        return m.num_vertices - connected_components(m.graph,
                                                     directed=False)[0]
    if q == m.n - 1:
        B = abs(m.boundary[m.n])
        return m.num_simplices(m.n) - connected_components(
            B.T @ B, directed=False)[0]
    if m.num_simplices(q) > DENSE_LIMIT:
        return None
    return int(np.linalg.matrix_rank(
        dec.exterior_derivative(m, q).matrix.toarray()))


def rank_identity_check(m: SimplicialManifold, p: int,
                        harmonic_dim: int) -> bool | None:
    """harmonic + rank(d_{p-1}) + rank(d_p) must equal dim C^p; None when
    derivative_rank does not compute a rank the identity needs."""
    r_dn = derivative_rank(m, p - 1) if p > 0 else 0
    r_up = derivative_rank(m, p) if p < m.n else 0
    if r_dn is None or r_up is None:
        return None
    return harmonic_dim + r_dn + r_up == m.num_simplices(p)
