"""Raising Steps Method: glue local solves, iterate on the residual.

One step solves the Poisson problem on every covering ball, glues the
solutions with the partition of unity, and books the exact global
residual.  Iterating k times raises the residual's integrability
exponent along the ladder S_j(r); the final residual is handed to the
spectral gap inverse by the analysis layer.  Every step evaluates the
gluing and weight-summation inequalities with measured constants.

The sweep is one linear operator on the stacked interior unknowns of all
patches (local_solver.PatchSystem), factored once per covering and
degree and shared with its adjoint.  The ledger and the per-solve
diagnostics read the stacked vector u of local solutions (the part of
ball j is its solution u_j) through a LedgerPlan, built with the patch
system: fixed patterns and one CSR matrix per step of each density term
(dec.DensityPlan), so a step's densities are matrix-vector products and
its per-ball norms bincounts over pattern columns.  What the ledger
reads of the covering alone (the membership, each ball's dual volume,
the ball masks and each pattern's overlap) is
held by the plan too, so a step computes only what depends on omega and
the weight, every inequality on every step.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import dec, local_solver
from .covering import (AdmissibleCovering, RadiusField, WeightField,
                       ball_volumes, check_weight_relative,
                       constant_weight)
from .geometry import SimplicialManifold, simplex_average

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
    """One step's records; balls, unknowns, residuals and c_j hold one
    entry per patch solve (local_solver.PatchSystem.diagnostics)."""

    step: int
    balls: np.ndarray
    unknowns: np.ndarray
    residuals: np.ndarray
    c_j: np.ndarray
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
                "solves": [{"ball": b, "unknowns": n, "residual": x,
                            "c_j": c} for b, n, x, c in zip(
                                sd.balls.tolist(), sd.unknowns.tolist(),
                                sd.residuals.tolist(), sd.c_j.tolist())],
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


def cached_patches(m: SimplicialManifold,
                   cov: AdmissibleCovering) -> local_solver.Patches:
    """The Patches of all balls, extracted once per covering in one
    batched pass; their interior systems are stacked on the first sweep
    at a degree, not here."""
    if cov.patches is None:
        cov.patches = local_solver.Patches.extract(m, cov)
        cov.systems = {}
    return cov.patches


def _vertex_incidence(m: SimplicialManifold, p: int) -> sp.csr_matrix:
    """The p-simplices x vertices incidence, each row's vertices
    ascending: its product with a vertices x balls matrix sums the vertex
    values of each simplex in the order simplex_average does."""
    N, k = m.num_simplices(p), p + 1
    return sp.csr_matrix((np.ones(N * k), m.simplices[p].ravel(),
                          np.arange(0, N * k + 1, k)),
                         shape=(N, m.num_vertices))


def ball_simplices(m: SimplicialManifold, p: int,
                   members: sp.spmatrix) -> sp.csc_matrix:
    """p-simplices x balls mask, true where every vertex of the simplex
    is in the ball (its p + 1 vertices count in the incidence product);
    members is the vertices x balls membership.  CSC with sorted indices,
    so column j lists ball j's simplices ascending."""
    return (_vertex_incidence(m, p) @ members).tocsc() == p + 1


@dataclass
class LedgerPlan:
    """What the ledger of a step reads at one degree, besides the patch
    system, all of it fixed by the covering: the DensityPlan of the
    stacked local solutions (dens, one column per ball, the patch
    simplices as support), the partition weight chi_j averaged over the
    simplex of each entry of the stacked vector (chi) and of the pattern
    of Lap U (chi_lap), the mask of simplices with all vertices in the
    ball as restrictions (DensityPlan.restriction) of the patterns of
    orders 0 and 1 (balls) and column by column (ball_rows, ball_cols),
    the vertices x balls membership
    (cov.members, CSC), the ball radii, each ball's dual volume
    (volumes, for check_weight_relative) and the largest number of
    entries on one simplex in the pattern of each order (overlap, the
    5s4 T_eff when every entry carries a piece)."""

    dens: dec.DensityPlan
    chi: np.ndarray
    chi_lap: np.ndarray
    balls: list
    ball_rows: np.ndarray
    ball_cols: np.ndarray
    members: sp.csc_matrix
    radii: np.ndarray
    volumes: np.ndarray
    overlap: list

    @classmethod
    def build(cls, m: SimplicialManifold, cov: AdmissibleCovering,
              dens: dec.DensityPlan) -> LedgerPlan:
        p, members = dens.p, cov.members
        N = m.num_simplices(p)
        chi = _vertex_incidence(m, p) @ cov.chi
        chi.data *= 1 / (p + 1)
        balls = ball_simplices(m, p, members)
        return cls(dens, *dens.gather(chi, (0, ("lap",))),
                   [dens.restriction(k, mask) for k, mask in
                    enumerate(dens.gather(balls, (0, 1)))], balls.indices,
                   np.repeat(np.arange(len(cov)), np.diff(balls.indptr)),
                   members, cov.radii(), ball_volumes(cov, m),
                   [int(np.bincount(dens.patterns[k][1], minlength=N).max())
                    for k in range(3)])


def patch_system(m: SimplicialManifold, cov: AdmissibleCovering, p: int):
    """(system, plan) of cov at degree p, built on first use per covering
    and degree: the PatchSystem of all patches and the LedgerPlan of its
    stacked vector."""
    patches = cached_patches(m, cov)
    if p not in cov.systems:
        system = local_solver.stack_patches(patches, p)
        dens = dec.DensityPlan(m, p, system.index, system.offsets,
                               patches.simplices[p])
        cov.systems[p] = (system, LedgerPlan.build(m, cov, dens))
    return cov.systems[p]


# -- the gluing sweep and its adjoint -----------------------------------


def _local_solutions(m: SimplicialManifold, cov: AdmissibleCovering,
                     omega: dec.Cochain):
    """(system, plan, u): patch_system at omega's degree and the stacked
    local solutions u = K^-1 (M omega[G]), with K, M the block-diagonal
    interior stiffness and mass and G the global simplex of each entry.
    The gluing sweep is T omega = scatter(chi u), chi the partition
    weights: the v0 of rsm_step."""
    system, plan = patch_system(m, cov, omega.degree)
    return system, plan, system.lu.solve(system.M
                                         * omega.values[system.index])


def sweep_adjoint(m: SimplicialManifold, cov: AdmissibleCovering,
                  phi: dec.Cochain) -> dec.Cochain:
    """Mass adjoint of the gluing sweep T (see _local_solutions):
    <T x, y>_M = <x, T* y>_M.

    T* phi = scatter((M / Mg[G]) K^-T (chi (Mg phi)[G])) with Mg the
    global mass diagonal; it reuses the factor of the forward sweep.
    """
    p = phi.degree
    system, plan = patch_system(m, cov, p)
    Mg = dec.mass_diagonal(m, p)[system.index]
    x = system.lu.solve(plan.chi * (Mg * phi.values[system.index]),
                        trans="T")
    return dec.Cochain(m, p, system.scatter(system.M / Mg * x))


# -- ledger inequalities ------------------------------------------------
#
# The pieces chi_j u_j and the local solutions u_j are the columns of the
# stacked vectors chi u and u; per-ball norms are column norms of their
# densities on the patterns of the degree's LedgerPlan.


def _margin(lhs: float, rhs: float) -> float:
    """rhs - lhs; the inequalities are exact, so a negative within 1e-9
    relative is summation roundoff and counts as 0."""
    margin = rhs - lhs
    return 0.0 if -1e-9 * max(lhs, rhs) <= margin < 0 else margin


def _gluing_bound(plan: LedgerPlan, w_simp, w_measure, w_means, v0_dens,
                  parts_dens, s: float, order: int) -> dict:
    """One part of the gluing inequality, in discretely rigorous form.

    parts_dens holds the order-`order` densities of the glued pieces
    chi_j u_j, on that order's pattern of plan.dens; v0_dens is that
    density of their sum v0.  The left side is the weighted L^s norm of
    v0_dens (w_measure: the support volumes times w_simp^s, w_simp the
    weight on the simplices); the right side uses the measured effective
    overlap of the density supports and the weight-comparability constant
    measured over those supports, with the per-ball norms of the pieces
    themselves (the continuum proof's Leibniz split is reported
    separately by the caller).  w_means are w's ball means.  When every
    pattern entry carries a piece, the support is the pattern and its
    overlap is the plan's.
    """
    lhs_s = float(np.sum(w_measure * v0_dens**s))
    cols, rows, _ = plan.dens.patterns[order]
    mu, g = plan.dens.mu[order], parts_dens
    if g.min() > 1e-300:  # a NaN fails this and goes the masked way
        T_eff = plan.overlap[order]
    else:
        supp = g > 1e-300
        rows, cols, g, mu = rows[supp], cols[supp], g[supp], mu[supp]
        T_eff = int(np.bincount(rows, minlength=w_simp.size).max())
    c_sw_eff = float(np.max(w_simp[rows] / w_means[cols], initial=1.0))
    per_ball = np.bincount(cols, mu * g**s, minlength=w_means.size)
    rhs_s = max(T_eff, 1) ** (s - 1) * c_sw_eff**s \
        * float(np.sum(w_means**s * per_ball))
    lhs, rhs = lhs_s ** (1 / s), rhs_s ** (1 / s)
    return {"lhs": lhs, "rhs": rhs, "T_eff": T_eff, "c_sw_eff": c_sw_eff,
            "margin": _margin(lhs, rhs)}


def _weight_summation_bound(m, cov, plan: LedgerPlan, rf: RadiusField,
                            w: WeightField, w_means, c_iw: float,
                            parts_dens, omega: dec.Cochain, r: float,
                            s: float) -> dict:
    """Weight-summation inequality I <= c_w T^(s/r) |omega|_{L^r(wtilde^r)}.

    All constants are measured: the per-ball comparison constant C from
    the hypothesis, the radius-comparability factor rho (the continuum
    value is 96 for divisor 120), and the tightest c_iw over the balls,
    which check_weight_relative gives with the ball means w_means.
    gamma = GAMMA = 2 throughout.  parts_dens holds the order-0 densities
    of the pieces chi_j u_j.  rho reads rf, which the step is given, so
    it is measured on every step.
    """
    R = plan.radii
    a = w_means * plan.dens.column_norms(0, parts_dens, s, plan.balls[0])
    b = w_means * R ** (-GAMMA) * np.bincount(
        plan.ball_cols, (m.support_volumes[omega.degree]
                         * dec.density(omega) ** r)[plan.ball_rows],
        minlength=R.size) \
        ** (1 / r)
    rf_max = np.maximum.reduceat(rf.values[plan.members.indices],
                                 plan.members.indptr[:-1])
    rho = float(np.max(rf_max / R, initial=1.0))
    c_iw = min(1.0, c_iw)
    nz = b > 1e-300
    C = float((a[nz] / b[nz]).max()) if nz.any() else 0.0
    I = float(np.sum(a**s)) ** (1 / s)
    w_tilde = rf.values ** (-GAMMA) * w.values
    om_norm = dec.lr_norm(m, omega, dec.NormSpec(r, weight=w_tilde, power=r))
    T = cov.overlap_measured
    rhs = rho**GAMMA / c_iw * C * T ** (s / r) * om_norm
    return {"lhs": I, "rhs": rhs, "C": C, "rho": rho, "c_iw_eff": c_iw,
            "margin": _margin(I, rhs)}


def _leibniz_diagnostic(cov, plan: LedgerPlan, w_means, c_sw: float,
                        U_dens, s: float, eps: float) -> dict:
    """Continuum-form right side of the gluing bound (reported, not
    asserted); w_means and c_sw are the weight's ball means and upper
    comparability constant, U_dens holds the order-0 and order-1
    densities of the local solutions."""
    T = cov.overlap_measured
    lr, gr = (plan.dens.column_norms(k, U_dens[k], s, plan.balls[k])
              for k in (0, 1))
    total = float(np.sum(w_means**s * (plan.radii**-s * lr**s + gr**s)))
    conj = s / (s - 1)
    return {"rhs_paper": (2 ** (s / conj) * (1 + eps) * T**s * c_sw**s
                          * total) ** (1 / s)}


# -- the step and the driver -------------------------------------------


def rsm_step(m: SimplicialManifold, cov: AdmissibleCovering,
             rf: RadiusField, omega: dec.Cochain, r: float,
             w: WeightField, step_index: int = 0):
    """One gluing sweep: local solves, partition gluing, exact residual.

    Returns (v0, omega1, StepDiagnostics) with omega1 = Delta v0 - omega
    computed globally, so the step identity is exact bookkeeping.  The
    ledger evaluates 5s4 i-iii, 5s6, the Leibniz diagnostic and each
    ball's c_j on every step; what they read of the covering alone comes
    from the degree's LedgerPlan, and each density is walked once: the
    orders 0-2 of U, of the pieces chi_j u_j and of v0 (whose Laplacian
    is the step's Lap v0), the weight averaged once onto the simplices.
    """
    p = omega.degree
    system, plan, u = _local_solutions(m, cov, omega)
    parts = plan.chi * u
    v0 = dec.Cochain(m, p, system.scatter(parts))
    w_means, c_iw, c_sw = check_weight_relative(w, cov, m, plan.volumes)
    dens = plan.dens
    # densities of orders 0-2 of U (the c_j, the Leibniz diagnostic) and
    # of the pieces chi_j u_j (5s4, 5s6), on the plan's patterns
    chains = {}
    U_dens = dens.densities(u, values=chains)
    parts_dens = dens.densities(parts)
    solves = system.diagnostics(omega, u, dens, U_dens, r)
    chi_lap = np.bincount(dens.patterns[("lap",)][1],
                          plan.chi_lap * chains[("lap",)],
                          minlength=m.num_simplices(p))
    lap_v0 = dec.hodge_laplacian(m, p)(v0)
    v0_chains = {("lap",): lap_v0.values}
    v0_dens = [dec.densities(m, p, v0.values, k, v0_chains)
               for k in range(3)]

    s = max(r, min(2.0, dec.sobolev_exponent(r, 2, m.n)))
    w_simp = simplex_average(m, p, w.values)
    w_measure = m.support_volumes[p] * w_simp**s
    ledger = {
        **{key: _gluing_bound(plan, w_simp, w_measure, w_means, v0_dens[k],
                              parts_dens[k], s, k)
           for k, key in enumerate(("5s4_i", "5s4_ii", "5s4_iii"))},
        "5s6": _weight_summation_bound(m, cov, plan, rf, w, w_means, c_iw,
                                       parts_dens[0], omega, r, s),
        "leibniz": _leibniz_diagnostic(cov, plan, w_means, c_sw, U_dens, s,
                                       cov.eps),
    }
    # sum_j B(chi_j, u_j) = Delta v0 - sum_j chi_j Delta u_j
    diag = StepDiagnostics(step_index, *solves,
                           float(np.linalg.norm(lap_v0.values - chi_lap)),
                           float(np.linalg.norm(chi_lap - omega.values)),
                           ledger)
    return v0, lap_v0 - omega, diag


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
    # the weight's simplex average, once for every norm under w below
    w_simp = simplex_average(m, p, w.values)
    spec_r = dec.NormSpec(r, weight=w, power=r, averaged=w_simp)
    spec_q = dec.NormSpec(q2, weight=w, power=q2, averaged=w_simp)
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
        trace.v_norms.append((dec.lr_norm(m, v_j, spec_r),
                              dec.lr_norm(m, v_j, spec_q)))
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
            "C_r": dec.lr_norm(m, v, spec_r) / denom,
            "C_q": dec.lr_norm(m, v, spec_q) / denom,
            "C_w2r": dec.sobolev_norm(m, v, dec.NormSpec(
                r, order=2, weight=w, power=r, averaged=w_simp)) / denom,
            "C_s": dec.lr_norm(m, omega_tilde, dec.NormSpec(
                config.s, weight=w, power=config.s, averaged=w_simp))
                / denom,
        }
    return v, omega_tilde, trace
