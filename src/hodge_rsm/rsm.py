"""Raising Steps Method: glue local solves, iterate on the residual.

One step solves the Poisson problem on every covering ball, glues the
solutions with the partition of unity, and books the exact global
residual.  Iterating k times raises the residual's integrability
exponent along the ladder S_j(r); the final residual is handed to the
spectral gap inverse by the analysis layer.  Every step evaluates the
gluing and weight-summation inequalities with measured constants.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import dec, local_solver
from .covering import (AdmissibleCovering, RadiusField, WeightField,
                       chi_gradient_constant, constant_weight)
from .geometry import SimplicialManifold

K_CAP = 8
GAMMA = 2.0  # weight-summation exponent used in the ledger


@dataclass
class RsmConfig:
    r: float
    s: float = 2.0
    k: int | None = None
    weight: WeightField | None = None

    def __post_init__(self):
        if not 1 < self.r <= 2:
            raise ValueError("exponent r must lie in (1, 2]")
        if self.s < self.r:
            raise ValueError("threshold s must be >= r")

    def steps(self, n: int) -> int:
        if self.k is not None:
            return self.k
        k = threshold_steps(self.r, self.s, n)
        return min(k, K_CAP)

    def base_weight(self, num_vertices: int) -> WeightField:
        return self.weight if self.weight is not None \
            else constant_weight(num_vertices)

    def w0(self, rf: RadiusField, n: int) -> np.ndarray:
        w = self.base_weight(rf.values.shape[0])
        return w.values * rf.values ** (-2.0 * self.steps(n))


@dataclass
class StepDiagnostics:
    step: int
    solves: list
    defect_sum_norm: float          # l2 norm of sum of commutator defects
    localization_deviation: float   # sum chi_j Delta u_j vs omega
    ledger: dict


@dataclass
class RsmTrace:
    r: float
    s: float
    k: int
    exponent_ladder: list = field(default_factory=list)
    v_norms: list = field(default_factory=list)       # per step, per q
    residual_norms: list = field(default_factory=list)
    steps: list = field(default_factory=list)         # StepDiagnostics
    constants: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "r": self.r, "s": self.s, "k": self.k,
            "exponent_ladder": self.exponent_ladder,
            "v_norms": self.v_norms,
            "residual_norms": self.residual_norms,
            "constants": self.constants,
            "steps": [{
                "step": sd.step,
                "defect_sum_norm": sd.defect_sum_norm,
                "localization_deviation": sd.localization_deviation,
                "ledger": sd.ledger,
                "solves": [{"ball": d.ball, "unknowns": d.unknowns,
                            "residual": d.residual, "c_j": d.c_j}
                           for d in sd.solves],
            } for sd in self.steps],
        }

    def save_json(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=1, sort_keys=True)

    def save_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            wr = csv.writer(f)
            wr.writerow(["step", "exponent", "v_norm_r", "v_norm_q",
                         "residual_norm"])
            for i in range(len(self.residual_norms)):
                vn = self.v_norms[i] if i < len(self.v_norms) else ("", "")
                wr.writerow([i, self.exponent_ladder[i], vn[0], vn[1],
                             self.residual_norms[i]])


def threshold_steps(r: float, s: float, n: int) -> int:
    """Smallest k with S_k(r) >= s (an infinite exponent counts)."""
    if s < r:
        raise ValueError("need s >= r")
    k = 0
    while True:
        t = dec.sobolev_exponent(r, k, n) if k else r
        if t >= s:
            return k
        k += 1


def simplex_average(m: SimplicialManifold, p: int,
                    vertex_values: np.ndarray) -> np.ndarray:
    return vertex_values[m.simplices[p]].mean(axis=1)


def multiply_scalar(m: SimplicialManifold, chi_vertex: np.ndarray,
                    u: dec.Cochain) -> dec.Cochain:
    """Multiply a p-cochain by a scalar field (vertex values averaged)."""
    return dec.Cochain(m, u.degree,
                       simplex_average(m, u.degree, chi_vertex) * u.values)


def commutator_defect(m: SimplicialManifold, chi_vertex: np.ndarray,
                      u: dec.Cochain) -> dec.Cochain:
    """Gluing defect B(chi, u) = Delta(chi u) - chi Delta(u)."""
    lap = dec.hodge_laplacian(m, u.degree)
    return lap(multiply_scalar(m, chi_vertex, u)) \
        - multiply_scalar(m, chi_vertex, lap(u))


def _stencil_max(m: SimplicialManifold, p: int, vals: np.ndarray,
                 rings: int = 2) -> np.ndarray:
    """Max of vals over the Laplacian stencil neighborhood, iterated."""
    A = (abs(dec.hodge_laplacian(m, p).matrix) > 0).astype(np.int8).tocsr()
    out = np.asarray(vals, dtype=float)
    for _ in range(rings):
        nxt = out.copy()
        for i in range(len(out)):
            cols = A.indices[A.indptr[i]:A.indptr[i + 1]]
            if cols.size:
                nxt[i] = max(nxt[i], out[cols].max())
        out = nxt
    return out


def _sharp_gradient(m: SimplicialManifold, u: dec.Cochain) -> np.ndarray:
    """First-difference density: sup over incident faces/cofaces.

    Sharper than the averaged surrogate; used for pointwise bounds where
    an in-star mean would underestimate the local variation.
    """
    p = u.degree
    N = m.num_simplices(p)
    g1 = np.zeros(N)
    g2 = np.zeros(N)
    if p < m.n:
        du = dec.exterior_derivative(m, p)(u)
        dens = np.abs(du.values) / m.volumes[p + 1]
        inc = abs(m.boundary[p + 1]).tocsr()  # rows: p-simplices
        for i in range(N):
            cols = inc.indices[inc.indptr[i]:inc.indptr[i + 1]]
            if cols.size:
                g1[i] = dens[cols].max()
    if p > 0:
        ds = dec.codifferential(m, p)(u)
        dens = np.abs(ds.values) / m.volumes[p - 1]
        inc = abs(m.boundary[p]).tocsc().T.tocsr()  # p-simplex -> faces
        for i in range(N):
            cols = inc.indices[inc.indptr[i]:inc.indptr[i + 1]]
            if cols.size:
                g2[i] = dens[cols].max()
    return np.hypot(g1, g2)


def commutator_pointwise_bound(m: SimplicialManifold,
                               cov: AdmissibleCovering, j: int,
                               u: dec.Cochain, slack: float = 0.5):
    """Densities (|B|, bound) of the cutoff commutator estimate.

    Bound: (|lap chi| |u| + 2 C |grad chi| |grad u|) (1 + slack), with
    every factor taken as a sup over the two-ring operator stencil (the
    commutator spreads one first-order stencil past supp chi, so the
    pointwise continuum estimate holds only against neighborhood sups).
    C is the partition gradient constant, floored at the exact-bump
    value 1.
    """
    p = u.degree
    chi = np.asarray(cov.chi[:, j].todense()).ravel()
    lhs = dec.density(commutator_defect(m, chi, u))
    chi_c = dec.Cochain(m, 0, chi)
    lap_chi = np.abs(dec.hodge_laplacian(m, 0)(chi_c).values)
    grad_chi = dec.gradient_density(chi_c)
    verts = m.simplices[p]
    lap_e = _stencil_max(m, p, lap_chi[verts].max(axis=1))
    grad_e = _stencil_max(m, p, grad_chi[verts].max(axis=1))
    au = _stencil_max(m, p, dec.density(u))
    du = _stencil_max(m, p, _sharp_gradient(m, u))
    cchi = max(1.0, chi_gradient_constant(cov))
    rhs = (lap_e * au + 2.0 * cchi * grad_e * du) * (1.0 + slack)
    return lhs, rhs


def cached_patches(m: SimplicialManifold, cov: AdmissibleCovering) -> list:
    """Patches of all balls, extracted once per covering; their interior
    systems are factored on the first sweep at a degree, not here."""
    if cov.patches is None:
        cov.patches = [local_solver.extract_patch(m, cov, j)
                       for j in range(len(cov.balls))]
    return cov.patches


def _whole_manifold_solve(m: SimplicialManifold, omega: dec.Cochain):
    """Pseudoinverse solve used when a 'ball' has no boundary.

    A covering ball equal to the whole closed manifold leaves nothing to
    pin a Dirichlet condition on; the minimum-norm solution of the
    singular system replaces it.  The map omega -> u is self-adjoint in
    the mass inner product, so the adjoint sweep reuses it.
    """
    p = omega.degree
    N = m.num_simplices(p)
    if N > 3000:
        raise local_solver.PatchError("whole-manifold ball too large for "
                                      "dense pseudoinverse solve")
    K = dec.stiffness_matrix(m, p).toarray()
    root = np.sqrt(dec.mass_diagonal(m, p))
    S = K / root[:, None] / root[None, :]
    # mass-symmetrized pseudoinverse: the unresolved residual is exactly
    # the harmonic component, as the gap solve would leave it
    u = np.linalg.pinv((S + S.T) / 2.0, hermitian=True) @ (root * omega.values)
    return dec.Cochain(m, p, u / root), local_solver.SolveDiagnostics(
        0, p, N, 0.0)


# -- the gluing sweep and its adjoint -----------------------------------


def _whole_manifold_cover(patches: list, p: int) -> bool:
    return len(patches) == 1 and patches[0].boundary[p].size == 0


def _chi_vertex(chi, j: int, num_vertices: int) -> np.ndarray:
    """Vertex values of partition function j from the CSC matrix chi."""
    out = np.zeros(num_vertices)
    lo, hi = chi.indptr[j], chi.indptr[j + 1]
    out[chi.indices[lo:hi]] = chi.data[lo:hi]
    return out


def sweep(m: SimplicialManifold, cov: AdmissibleCovering,
          omega: dec.Cochain, r: float = 2.0):
    """One gluing sweep T omega = sum_j E_j chi_j K_j^-1 (M_j omega|I_j).

    K_j, M_j: interior submesh stiffness and mass of patch j on its
    interior p-simplices I_j; E_j: zero extension; chi_j: simplex average
    of partition function j.  The first sweep at a degree assembles and
    factors K_j for all patches at once (local_solver.factor_patches);
    later sweeps reuse the factors.  Returns (v0, us, solves): T omega,
    the local solutions u_j and their diagnostics.  A cover by one
    boundaryless ball uses the whole-manifold pseudoinverse.
    """
    p = omega.degree
    patches = cached_patches(m, cov)
    whole = _whole_manifold_cover(patches, p)
    if not whole:
        local_solver.factor_patches(patches, p)
    chi = cov.chi.tocsc()
    v0 = np.zeros(m.num_simplices(p))
    us, solves = [], []
    for j, patch in enumerate(patches):
        I = patch.interior[p]
        if whole:
            u_j, diag = _whole_manifold_solve(m, omega)
        else:
            loc = np.zeros(m.num_simplices(p))
            loc[I] = omega.values[I]
            u_j, diag = local_solver.solve_local_dirichlet(
                patch, dec.Cochain(m, p, loc), r)
        chi_j = _chi_vertex(chi, j, m.num_vertices)
        v0[I] += chi_j[m.simplices[p][I]].mean(axis=1) * u_j.values[I]
        us.append(u_j)
        solves.append(diag)
    return dec.Cochain(m, p, v0), us, solves


def sweep_adjoint(m: SimplicialManifold, cov: AdmissibleCovering,
                  phi: dec.Cochain) -> dec.Cochain:
    """Mass adjoint of sweep: <T x, y>_M = <x, T* y>_M.

    T* phi = sum_j E_j (M_j / M|I_j) K_j^-T (chi_j M phi)|I_j with M the
    global mass diagonal; it reuses the factors of the forward sweep.
    """
    p = phi.degree
    patches = cached_patches(m, cov)
    chi = cov.chi.tocsc()
    if _whole_manifold_cover(patches, p):
        chi_s = simplex_average(m, p, _chi_vertex(chi, 0, m.num_vertices))
        u, _ = _whole_manifold_solve(m, dec.Cochain(m, p, chi_s * phi.values))
        return u
    local_solver.factor_patches(patches, p)
    Mw = dec.mass_diagonal(m, p)
    Mphi = Mw * phi.values
    out = np.zeros(m.num_simplices(p))
    for j, patch in enumerate(patches):
        f = patch.factor(p)
        I = f.interior
        chi_j = _chi_vertex(chi, j, m.num_vertices)
        rhs = chi_j[m.simplices[p][I]].mean(axis=1) * Mphi[I]
        out[I] += f.M_I / Mw[I] * f.lu.solve(rhs, trans="T")
    return dec.Cochain(m, p, out)


# -- ledger inequalities ------------------------------------------------


def _gluing_bound(m, cov, w: WeightField, parts, s: float, order: int) -> dict:
    """One part of the gluing inequality, in discretely rigorous form.

    parts are the glued pieces chi_j u_j.  The left side is the weighted
    L^s norm of the relevant surrogate density of their sum; the right
    side uses the measured effective overlap of the density supports and
    the weight-comparability constant measured over those supports, with
    the per-ball norms of the pieces themselves (the continuum proof's
    Leibniz split is reported separately by the caller).
    """
    p = parts[0].degree
    dens_fn = {0: dec.density, 1: dec.gradient_density,
               2: dec.hessian_density}[order]
    total = parts[0].copy()
    for pc in parts[1:]:
        total = total + pc
    w_simp = simplex_average(m, p, w.values)
    mu = m.support_volumes[p]

    lhs_s = float(np.sum(mu * w_simp**s * dens_fn(total) ** s))

    counts = np.zeros(m.num_simplices(p), dtype=int)
    rhs_sum = 0.0
    c_sw_eff = 1.0
    w_means = w.ball_means
    for j, pc in enumerate(parts):
        g = dens_fn(pc)
        supp = g > 1e-300
        if not supp.any():
            continue
        counts[supp] += 1
        c_sw_eff = max(c_sw_eff, (w_simp[supp] / w_means[j]).max())
        rhs_sum += w_means[j] ** s * float(np.sum(mu[supp] * g[supp] ** s))
    T_eff = int(counts.max()) if counts.size else 1
    rhs_s = max(T_eff, 1) ** (s - 1) * c_sw_eff**s * rhs_sum
    lhs, rhs = lhs_s ** (1 / s), rhs_s ** (1 / s)
    margin = rhs - lhs
    # the inequality is exact; tiny negatives are summation roundoff
    if margin < 0 and abs(margin) <= 1e-9 * max(lhs, rhs):
        margin = 0.0
    return {"lhs": lhs, "rhs": rhs,
            "T_eff": T_eff, "c_sw_eff": c_sw_eff,
            "margin": margin}


def _weight_summation_bound(m, cov, rf: RadiusField, w: WeightField,
                            parts, omega: dec.Cochain, r: float,
                            s: float) -> dict:
    """Weight-summation inequality I <= c_w T^(s/r) |omega|_{L^r(wtilde^r)}.

    All constants are measured: the per-ball comparison constant C from
    the hypothesis, the radius-comparability factor rho (the continuum
    value is 96 for divisor 120), and the tightest c_iw over the balls.
    gamma = GAMMA = 2 throughout.
    """
    p = omega.degree
    w_means = w.ball_means
    a = np.zeros(len(parts))
    b = np.zeros(len(parts))
    rho = 1.0
    c_iw = 1.0
    for j, pc in enumerate(parts):
        ball = cov.balls[j]
        vmask = np.zeros(m.num_vertices, dtype=bool)
        vmask[ball.members] = True
        mask = m.vertex_mask_to_simplex_mask(p, vmask)
        a[j] = w_means[j] * dec.lr_norm(m, pc, dec.NormSpec(s), mask)
        b[j] = w_means[j] * ball.covering_radius ** (-GAMMA) \
            * dec.lr_norm(m, omega, dec.NormSpec(r), mask)
        rho = max(rho, (rf.values[ball.members].max()
                        / ball.covering_radius))
        c_iw = min(c_iw, (w.values[ball.members] / w_means[j]).min())
    nz = b > 1e-300
    C = float((a[nz] / b[nz]).max()) if nz.any() else 0.0
    I = float(np.sum(a**s)) ** (1 / s)
    w_tilde = rf.values ** (-GAMMA) * w.values
    om_norm = dec.lr_norm(m, omega, dec.NormSpec(r, weight=w_tilde, power=r))
    T = cov.overlap_measured
    rhs = rho**GAMMA / c_iw * C * T ** (s / r) * om_norm
    margin = rhs - I
    if margin < 0 and abs(margin) <= 1e-9 * max(I, rhs):
        margin = 0.0
    return {"lhs": I, "rhs": rhs, "C": C, "rho": rho, "c_iw_eff": c_iw,
            "margin": margin}


def _leibniz_diagnostic(m, cov, w, us, s: float, eps: float) -> dict:
    """Continuum-form right side of the gluing bound (reported, not asserted)."""
    T = cov.overlap_measured
    c_sw = w.c_sw if w.c_sw is not None else 1.0
    w_means = w.ball_means
    total = 0.0
    for j, u in enumerate(us):
        ball = cov.balls[j]
        vmask = np.zeros(m.num_vertices, dtype=bool)
        vmask[ball.members] = True
        mask = m.vertex_mask_to_simplex_mask(u.degree, vmask)
        R = ball.covering_radius
        lr = dec.lr_norm(m, u, dec.NormSpec(s), mask)
        gr = float(np.sum(m.support_volumes[u.degree][mask]
                          * dec.gradient_density(u)[mask] ** s)) ** (1 / s)
        total += w_means[j] ** s * (R**-s * lr**s + gr**s)
    sp = s / (s - 1)
    return {"rhs_paper": (2 ** (s / sp) * (1 + eps) * T**s * c_sw**s
                          * total) ** (1 / s)}


# -- the step and the driver -------------------------------------------


def rsm_step(m: SimplicialManifold, cov: AdmissibleCovering,
             rf: RadiusField, omega: dec.Cochain, r: float,
             w: WeightField, step_index: int = 0):
    """One gluing sweep: local solves, partition gluing, exact residual.

    Returns (v0, omega1, StepDiagnostics) with omega1 = Delta v0 - omega
    computed globally, so the step identity is exact bookkeeping.
    """
    p = omega.degree
    if w.ball_means is None:
        from .covering import check_weight_relative
        check_weight_relative(w, cov, m)
    v0, us, solves = sweep(m, cov, omega, r)
    chi = cov.chi.tocsc()
    lap = dec.hodge_laplacian(m, p)

    parts = []
    defect_sum = np.zeros(m.num_simplices(p))
    chi_lap_sum = np.zeros(m.num_simplices(p))
    for j, u_j in enumerate(us):
        chi_j = _chi_vertex(chi, j, m.num_vertices)
        parts.append(multiply_scalar(m, chi_j, u_j))
        defect_sum += commutator_defect(m, chi_j, u_j).values
        chi_lap_sum += multiply_scalar(m, chi_j, lap(u_j)).values
    omega1 = lap(v0) - omega

    s = max(r, min(2.0, dec.sobolev_exponent(r, 2, m.n)))
    ledger = {
        "5s4_i": _gluing_bound(m, cov, w, parts, s, 0),
        "5s4_ii": _gluing_bound(m, cov, w, parts, s, 1),
        "5s4_iii": _gluing_bound(m, cov, w, parts, s, 2),
        "5s6": _weight_summation_bound(m, cov, rf, w, parts, omega, r, s),
        "leibniz": _leibniz_diagnostic(m, cov, w, us, s, cov.eps),
    }
    dev = chi_lap_sum - omega.values
    diag = StepDiagnostics(step_index, solves,
                           float(np.linalg.norm(defect_sum)),
                           float(np.linalg.norm(dev)), ledger)
    return v0, omega1, diag


def raising_steps(m: SimplicialManifold, cov: AdmissibleCovering,
                  rf: RadiusField, omega: dec.Cochain,
                  config: RsmConfig):
    """Iterate the gluing step k times with alternating signs.

    Returns (v, omega_tilde, trace); the identity Delta v = omega +
    omega_tilde holds to bookkeeping precision.
    """
    n = m.n
    k = config.steps(n)
    w = config.base_weight(m.num_vertices)
    r = config.r
    trace = RsmTrace(r, config.s, k)
    p = omega.degree

    q2 = min(2.0, dec.sobolev_exponent(r, 2, n))
    v = dec.Cochain(m, p, np.zeros(m.num_simplices(p)))
    cur = omega
    sign = 1.0
    trace.exponent_ladder.append(r)
    trace.residual_norms.append(dec.lr_norm(m, cur, dec.NormSpec(r)))
    for step in range(k):
        v_j, nxt, diag = rsm_step(m, cov, rf, cur, r, w, step)
        v = v + sign * v_j
        trace.steps.append(diag)
        # exponent ladder t_j = S_j(r); capped for norm evaluation
        t_next = min(dec.sobolev_exponent(r, step + 1, n), 64.0)
        trace.exponent_ladder.append(t_next)
        trace.v_norms.append(
            (dec.lr_norm(m, v_j, dec.NormSpec(r, weight=w, power=r)),
             dec.lr_norm(m, v_j, dec.NormSpec(q2, weight=w, power=q2))))
        trace.residual_norms.append(dec.lr_norm(m, nxt, dec.NormSpec(t_next)))
        cur = nxt
        sign = -sign
    # Delta v telescopes to omega + (-1)^(k-1) omega_k
    omega_tilde = -1.0 * cur if k % 2 == 0 else cur
    # measured theorem constants
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


def compact_support_check(omega: dec.Cochain, v: dec.Cochain,
                          omega_tilde: dec.Cochain,
                          cov: AdmissibleCovering,
                          tol: float = 1e-12) -> bool:
    """Supports of v and the residual stay near the support of omega.

    True when both lie inside the union of balls meeting supp(omega),
    dilated by one covering layer; vacuously true for global omega.
    """
    m = omega.manifold
    sverts = np.unique(
        m.simplices[omega.degree][np.abs(omega.values) > tol].ravel())
    if sverts.size == 0:
        return True
    smask = np.zeros(m.num_vertices, dtype=bool)
    smask[sverts] = True
    first = [b for b in cov.balls if smask[b.members].any()]
    if len(first) == len(cov.balls):
        return True
    core = np.zeros(m.num_vertices, dtype=bool)
    for b in first:
        core[b.members] = True
    allowed = np.zeros(m.num_vertices, dtype=bool)
    for b in cov.balls:
        if core[b.members].any():
            allowed[b.members] = True
    for c in (v, omega_tilde):
        simp = m.simplices[c.degree][np.abs(c.values) > tol]
        # every support simplex must touch the allowed region
        if simp.size and not allowed[simp].any(axis=1).all():
            return False
    return True
