import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import subspace_angles

from conftest import (ROUNDOFF_BUDGET, _cover_bundle,
                      assert_czi_fit_within_budget, harmonic_embedding_check,
                      oracle_czi_fit, oracle_gap_solve, oracle_spectrum,
                      column, relabelled_mesh, total_volume,
                      vertex_mask_to_simplex_mask,
                      weak_decomposition_sequence)
from hodge_rsm import analysis, covering, dec, geometry, rsm
from hodge_rsm.analysis import (AnalysisError, derivative_rank,
                                dual_poisson_solve, gap_solve,
                                harmonic_projection, orthogonality_check,
                                poisson_solve, rank_identity_check, spectrum,
                                strong_decomposition, weak_decomposition,
                                weighted_czi_verify)


def test_spectrum_dimensions(torus16, sphere16, spec16_p0, spec16_p1):
    assert spec16_p0.harmonic_dim == 1
    assert spec16_p0.gap > 0
    assert spec16_p1.harmonic_dim == 2
    assert spec16_p1.gap > 0
    assert spectrum(sphere16, 1, 8).harmonic_dim == 0


@pytest.mark.parametrize("mesh,p", [
    ("torus16", 0), ("torus16", 1), ("torus16", 2), ("bumpy16", 1),
    ("bumpy16", 2), ("sphere8", 0), ("sphere8", 1)])
def test_spectrum_matches_dense_oracle(request, mesh, p):
    m = request.getfixturevalue(mesh)
    rep = spectrum(m, p)
    want = oracle_spectrum(m, p)
    assert rep.harmonic_dim == want.harmonic_dim
    above = rep.eigenvalues >= rep.harmonic_tol
    assert np.allclose(rep.eigenvalues[above], want.eigenvalues[above],
                       rtol=1e-11, atol=0.0)
    if rep.harmonic_dim:
        # principal angles in the mass inner product
        Mh = np.sqrt(dec.mass_diagonal(m, p))[:, None]
        angles = subspace_angles(Mh * rep.harmonic_basis,
                                 Mh * want.harmonic_basis)
        assert angles.max() <= 1e-10
    assert rep.scale >= want.scale


@pytest.mark.parametrize("mesh", ["torus32", "bumpy16"])
def test_spectrum_is_deterministic(request, mesh):
    m = request.getfixturevalue(mesh)
    a, b = spectrum(m, 1), spectrum(m, 1)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.harmonic_basis, b.harmonic_basis)
    assert (a.gap, a.scale) == (b.gap, b.scale)


@pytest.fixture(scope="session")
def numbering_reference(torus8, sphere4, torus3d5):
    """(mesh, spectra, rank identities) of each mesh of the numbering
    test, at every degree, as generated."""
    out = []
    for m in (torus8, sphere4, torus3d5):
        reps = [spectrum(m, p) for p in range(m.n + 1)]
        out.append((m, reps, [rank_identity_check(m, p, rep.harmonic_dim)
                              for p, rep in enumerate(reps)]))
    return out


@settings(max_examples=5, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_spectrum_does_not_depend_on_numbering(numbering_reference, seed):
    # a random relabelling of the vertices and the cells, built with
    # normalize=False so that the metric is the same: the harmonic
    # dimensions and rank identities agree exactly, and the gap and the
    # eigenvalues to the sum budget of the Gershgorin scale.  The
    # eigenvalues are compared as sets: under some numberings spectrum
    # returns one copy too few of a multiple eigenvalue (next test)
    for m, reps, ranks in numbering_reference:
        copy = relabelled_mesh(m, np.random.default_rng(seed),
                               normalize=False)[0]
        for p, want in enumerate(reps):
            got = spectrum(copy, p)
            assert got.harmonic_dim == want.harmonic_dim
            assert rank_identity_check(copy, p, got.harmonic_dim) == ranks[p]
            tol = ROUNDOFF_BUDGET["sum"] * want.scale
            assert abs(got.gap - want.gap) <= tol
            dist = np.abs(got.eigenvalues[:, None] - want.eigenvalues[None])
            assert dist.min(axis=0).max() <= tol
            assert dist.min(axis=1).max() <= tol


def test_spectrum_multiplicity_depends_on_numbering(sphere4):
    # pins a numbering dependence of spectrum (ROADMAP item 14): from its
    # one start vector, shift-invert Lanczos finds all five copies of the
    # five-fold eigenvalue of the sphere 4's 1-forms as generated (as the
    # dense oracle does), but only four in one relabelled copy, which
    # returns the next eigenvalue in place of the fifth.  When spectrum
    # finds every copy, this fails and the test above can compare the
    # eigenvalue lists entry by entry
    want = spectrum(sphere4, 1)
    copy = relabelled_mesh(sphere4, np.random.default_rng(0),
                           normalize=False)[0]
    got = spectrum(copy, 1)
    five = want.eigenvalues[3]

    def copies(vals):
        return int(np.sum(np.abs(vals - five)
                          <= ROUNDOFF_BUDGET["sum"] * want.scale))

    assert copies(oracle_spectrum(sphere4, 1).eigenvalues) == 5
    assert (copies(want.eigenvalues), copies(got.eigenvalues)) == (5, 4)
    assert np.abs(got.eigenvalues - want.eigenvalues).max() > 1e-4 * want.scale


def inertia_count(m, p, sigma):
    """The number of eigenvalues of the degree-p Laplacian below sigma, by
    Sylvester's law of inertia: K - sigma M is congruent to S - sigma I
    (M diagonal and positive), so it is the number of negative pivots of
    an LU of K - sigma M with dec.shifted_factor's SuperLU options.  Two
    guards: a symmetric permutation (perm_r == perm_c), so that U's
    diagonal is that of an LDL^T, and every |pivot| at least 1e-8 x the
    Gershgorin scale of K - sigma M.  When one fails, sigma moves up by a
    relative 1e-6 and the count is taken again, at most three times."""
    K, M = dec.stiffness_matrix(m, p), dec.mass_diagonal(m, p)
    for _ in range(3):
        A = (K - sp.diags(sigma * M)).tocsc()
        lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
        pivots = lu.U.diagonal()
        scale = float(abs(A).sum(axis=1).max())
        if np.array_equal(lu.perm_r, lu.perm_c) \
                and np.abs(pivots).min() >= 1e-8 * scale:
            return int(np.sum(pivots < 0))
        sigma *= 1 + 1e-6
    raise AssertionError(f"no guarded inertia count near sigma = {sigma}")


@pytest.mark.parametrize("mesh,degrees", [
    ("torus16", 3), ("sphere4", 3), ("sphere8", 3), ("bumpy16", 3),
    ("torus3d5", 4)])
def test_inertia_count_matches_dense_eigenvalues(request, mesh, degrees):
    # ROADMAP item 16, stage 1: at gap / 2 and just below the gap the
    # count is the dense count (the harmonic dimension, when spectrum
    # missed nothing); the smallest |pivot| was 8.7e-5 of the scale
    m = request.getfixturevalue(mesh)
    for p in range(degrees):
        gap = spectrum(m, p).gap
        dense = np.linalg.eigvalsh(dec.scaled_stiffness(m, p).toarray())
        for sigma in (gap / 2, 0.999 * gap):
            assert inertia_count(m, p, sigma) == np.sum(dense < sigma)


def test_inertia_count_sees_the_copy_spectrum_misses(sphere4):
    # pins the miss of the test above by an inertia count (ROADMAP items
    # 14 and 16): below 9.624, the midpoint of the five-fold 1-form
    # eigenvalue 8.03 and the next one, 11.22, the sphere 4 as generated
    # has 8 eigenvalues, and spectrum returns 8; on the relabelled copy
    # it returns 7 and the count is still 8.  When spectrum finds every
    # copy, this fails
    copy = relabelled_mesh(sphere4, np.random.default_rng(0),
                           normalize=False)[0]
    got = [(int(np.sum(spectrum(m, 1).eigenvalues < 9.624)),
            inertia_count(m, 1, 9.624)) for m in (sphere4, copy)]
    assert got == [(8, 8), (7, 8)]


def test_normalisation_depends_on_numbering(bumpy16):
    # pins today's dependence of the scale on numbering (ROADMAP item 14;
    # its step 2 inverts this): SimplicialManifold rescales a mesh to an
    # estimated diameter of 2, from a double Dijkstra sweep that starts
    # at vertex 0.  bumpy16 as generated estimates 2; one relabelled copy
    # estimates 2.1219, so every edge is scaled by 2 / 2.1219 = 0.9426 and
    # every nonzero eigenvalue of its 1-forms grows by 12.6 %
    want = spectrum(bumpy16, 1)
    raw = relabelled_mesh(bumpy16, np.random.default_rng(1),
                          normalize=False)[0]
    copy, label = relabelled_mesh(bumpy16, np.random.default_rng(1))
    ratio = 2.0 / geometry.SimplicialManifold._approx_diameter(raw.graph)
    assert ratio == pytest.approx(0.94255, abs=1e-5)
    edges = copy._find(1, np.sort(label[bumpy16.simplices[1]], axis=1))
    assert np.allclose(copy.edge_lengths[edges], ratio * bumpy16.edge_lengths,
                       rtol=ROUNDOFF_BUDGET["sum"], atol=0)
    got = spectrum(copy, 1)
    k = want.harmonic_dim
    assert got.harmonic_dim == k
    assert np.allclose(got.eigenvalues[k:] * ratio**2, want.eigenvalues[k:],
                       rtol=ROUNDOFF_BUDGET["sum"], atol=0)


def test_spectrum_with_more_eigs_than_unknowns():
    m = geometry.generate_test_manifold("flat_torus", 4)
    assert m.num_simplices(0) == 16
    rep = spectrum(m, 0, m_eigs=16)
    assert len(rep.eigenvalues) == 15
    assert rep.harmonic_dim == 1


def test_spectrum_cluster_flag(torus16):
    rep = spectrum(torus16, 1, harmonic_tol=1e-30)
    assert rep.cluster_flag


def test_harmonic_basis_orthonormal(torus16, spec16_p1):
    B = spec16_p1.harmonic_basis
    Mw = dec.mass_diagonal(torus16, 1)
    G = B.T @ (Mw[:, None] * B)
    assert np.allclose(G, np.eye(B.shape[1]), atol=1e-10)


def test_projection_idempotent_selfadjoint(torus16, spec16_p1, rng):
    for _ in range(10):
        u = dec.random_cochain(torus16, 1, rng)
        v = dec.random_cochain(torus16, 1, rng)
        Hu = harmonic_projection(torus16, spec16_p1, u)
        HHu = harmonic_projection(torus16, spec16_p1, Hu)
        assert dec.norm_l2(HHu - Hu) <= 1e-12 * max(dec.norm_l2(Hu), 1.0)
        a = dec.inner(Hu, v)
        b = dec.inner(u, harmonic_projection(torus16, spec16_p1, v))
        assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0)


def test_projection_kills_laplacian_range(torus16, spec16_p1, rng):
    lap = dec.hodge_laplacian(torus16, 1)
    for _ in range(10):
        psi = dec.random_cochain(torus16, 1, rng)
        h = harmonic_projection(torus16, spec16_p1, lap(psi))
        assert dec.norm_l2(h) <= 1e-10 * dec.norm_l2(lap(psi))


def test_gap_solve_harmonic_input(torus16, spec16_p1):
    h = dec.Cochain(torus16, 1, spec16_p1.harmonic_basis[:, 0])
    f = gap_solve(torus16, spec16_p1, h)
    assert dec.norm_l2(f) <= 1e-10


def test_gap_solve_nearly_harmonic_inputs(torus16, spec16_p1, rng):
    # which harmonic column leaves PCG a roundoff right-hand side it cannot
    # reduce depends on how the eigensolver rotates the basis: try every column
    K = dec.stiffness_matrix(torus16, 1)
    Mw = dec.mass_diagonal(torus16, 1)
    lap = dec.hodge_laplacian(torus16, 1)
    rtol = 1e-11
    d_psi = lap(dec.random_cochain(torus16, 1, rng))
    for j in range(spec16_p1.harmonic_dim):
        h = dec.Cochain(torus16, 1, spec16_p1.harmonic_basis[:, j])
        for eps in (0.0, 1.0, 1e-4, 1e-7, 1e-10):
            g = h + eps * d_psi
            f = gap_solve(torus16, spec16_p1, g, rtol=rtol)
            b = Mw * (g - harmonic_projection(torus16, spec16_p1, g)).values
            resid = np.linalg.norm(K @ f.values - b)
            assert resid <= rtol * np.linalg.norm(Mw * g.values), (j, eps)
            assert dec.norm_l2(
                harmonic_projection(torus16, spec16_p1, f)) <= 1e-12, (j, eps)


def test_gap_solve_inverts_laplacian(torus16, spec16_p1, rng):
    lap = dec.hodge_laplacian(torus16, 1)
    psi = dec.random_cochain(torus16, 1, rng)
    f = gap_solve(torus16, spec16_p1, lap(psi))
    want = psi - harmonic_projection(torus16, spec16_p1, psi)
    assert dec.norm_l2(f - want) <= 1e-9 * dec.norm_l2(want)


def test_gap_solve_spectral_bound(torus16, spec16_p1, rng):
    # the bound is asserted inside gap_solve; 100 random inputs
    for _ in range(100):
        g = dec.random_cochain(torus16, 1, rng)
        f = gap_solve(torus16, spec16_p1, g)
        assert dec.norm_l2(f) <= dec.norm_l2(g) / spec16_p1.gap + 1e-12


class CountingFactor:
    """Stands in for a cached LU and counts its solves."""

    def __init__(self, lu):
        self.lu, self.solves = lu, 0

    def solve(self, r):
        self.solves += 1
        return self.lu.solve(r)


@pytest.mark.parametrize("mesh", ["torus16", "bumpy16", "sphere8"])
@pytest.mark.parametrize("p", [0, 1])
def test_gap_solve_matches_cg_oracle(request, mesh, p, rng, monkeypatch):
    m = request.getfixturevalue(mesh)
    rep = spectrum(m, p)
    for _ in range(3):
        g = dec.random_cochain(m, p, rng)
        want = oracle_gap_solve(m, rep, g)
        gap_solve(m, rep, g)
        key = ("shifted_lu", p)
        counter = CountingFactor(m._op_cache[key])
        monkeypatch.setitem(m._op_cache, key, counter)
        f = gap_solve(m, rep, g)
        monkeypatch.undo()
        assert counter.solves <= 3
        assert dec.norm_l2(f - want) <= 1e-9 * dec.norm_l2(want)


def test_gap_solve_factor_belongs_to_the_mesh(torus16, spec16_p1, rng):
    # a report from another eigensolver rotates the harmonic basis but
    # shares the mesh's factor
    oracle = oracle_spectrum(torus16, 1)
    for _ in range(3):
        g = dec.random_cochain(torus16, 1, rng)
        a = gap_solve(torus16, spec16_p1, g)
        b = gap_solve(torus16, oracle, g)
        assert dec.norm_l2(a - b) <= 1e-12 * dec.norm_l2(a)


def test_gap_solve_factors_once_per_mesh_and_degree(rng, monkeypatch):
    # spectrum, gap_solve, poisson_solve and dual_poisson_solve share one
    # shifted factor per mesh and degree, with spectrum first or last
    calls = []
    real = dec.spla.splu
    for spectrum_last in (False, True):
        m = geometry.generate_test_manifold("flat_torus", 12)
        rf, cov = _cover_bundle(m)
        for p in (0, 1):
            rsm.patch_system(m, cov, p)  # its own factor is not counted
        monkeypatch.setattr(dec.spla, "splu",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        for p in (0, 1):
            before = len(calls)
            rep = oracle_spectrum(m, p) if spectrum_last else spectrum(m, p)
            om = dec.random_cochain(m, p, rng)
            om = om - harmonic_projection(m, rep, om)
            om = om - harmonic_projection(m, rep, om)
            gap_solve(m, rep, om)
            poisson_solve(m, cov, rf, rep, om, 1.5)
            dual_poisson_solve(m, cov, rf, rep, om, 1.5)
            last = spectrum(m, p)
            assert len(calls) == before + 1
            # the shared factor gives the spectrum of a fresh one, bit for bit
            fresh = spectrum(geometry.generate_test_manifold("flat_torus", 12),
                             p)
            assert np.array_equal(last.eigenvalues, fresh.eigenvalues)
            assert np.array_equal(last.harmonic_basis, fresh.harmonic_basis)
        monkeypatch.undo()


def test_spectrum_forms_scaled_stiffness_once(monkeypatch):
    # S is formed once per mesh and degree, for the spectrum and for the
    # shifted factor built from it
    m = geometry.generate_test_manifold("flat_torus", 8)
    formed = []
    real = dec.stiffness_matrix
    monkeypatch.setattr(dec, "stiffness_matrix",
                        lambda m, p: formed.append(p) or real(m, p))
    S = dec.scaled_stiffness(m, 1)
    indices, data = S.indices.copy(), S.data.copy()
    for p in (0, 1, 0, 1):
        spectrum(m, p)
    assert formed == [1, 0]
    assert dec.scaled_stiffness(m, 1) is S
    # abs() sorts a matrix's indices in place; the spectrum's Gershgorin
    # bound must not do that to the cached S, whose storage order sets the
    # rounding of every later product of it
    assert not S.has_sorted_indices
    assert np.array_equal(S.indices, indices)
    assert np.array_equal(S.data, data)


def test_poisson_zero(torus16, cover16, spec16_p1):
    rf, cov = cover16
    z = dec.Cochain(torus16, 1, np.zeros(torus16.num_simplices(1)))
    u, diags = poisson_solve(torus16, cov, rf, spec16_p1, z, 1.5)
    assert np.all(u.values == 0)


def test_poisson_laplacian_range_input(torus16, cover16, spec16_p1, rng):
    rf, cov = cover16
    lap = dec.hodge_laplacian(torus16, 1)
    psi = dec.random_cochain(torus16, 1, rng)
    omega = lap(psi)
    u, diags = poisson_solve(torus16, cov, rf, spec16_p1, omega, 1.5)
    assert diags["residual"] <= 1e-9
    # u - psi is harmonic up to solver tolerance
    assert dec.norm_l2(lap(u - psi)) <= 1e-7 * dec.norm_l2(omega)


def test_poisson_linearity(torus16, cover16, spec16_p1, rng):
    rf, cov = cover16
    lap = dec.hodge_laplacian(torus16, 1)
    o1, o2 = (lap(dec.random_cochain(torus16, 1, rng)) for _ in range(2))
    u1, _ = poisson_solve(torus16, cov, rf, spec16_p1, o1, 1.5)
    u2, _ = poisson_solve(torus16, cov, rf, spec16_p1, o2, 1.5)
    u12, _ = poisson_solve(torus16, cov, rf, spec16_p1, o1 + o2, 1.5)
    assert dec.norm_l2(u12 - u1 - u2) <= \
        1e-9 * max(dec.norm_l2(u1), dec.norm_l2(u2))


def test_poisson_rejects_harmonic_content(torus16, cover16, spec16_p1):
    rf, cov = cover16
    h = dec.Cochain(torus16, 1, spec16_p1.harmonic_basis[:, 0])
    with pytest.raises(AnalysisError):
        poisson_solve(torus16, cov, rf, spec16_p1, h, 1.5)


def _gap_form(m, rep, rng):
    """A random form with its harmonic part projected out (twice)."""
    om = dec.random_cochain(m, rep.degree, rng)
    om = om - harmonic_projection(m, rep, om)
    return om - harmonic_projection(m, rep, om)


@pytest.mark.parametrize("kind,args,p", [
    ("flat_torus", (16,), 0), ("flat_torus", (16,), 1),
    ("flat_torus", (16,), 2), ("bumpy_torus", (16, 0.3), 1),
    ("3-torus", (5,), 2)], ids=["torus16-0", "torus16-1", "torus16-2",
                               "bumpy16-1", "torus3d5-2"])
def test_poisson_solve_is_raising_steps_minus_gap_solve(kind, args, p):
    # poisson_solve runs the sweeps of raising_steps without their
    # ledger: its u is raising_steps' v - gap_solve(om_t - H om_t) bit
    # for bit, whether or not a ledger step built its plans first (a
    # fresh mesh and covering, so no plan of any covering exists yet)
    m = geometry.generate_flat_torus_3d(*args) if kind == "3-torus" \
        else geometry.generate_test_manifold(kind, *args)
    rf, cov = _cover_bundle(m)
    rep = spectrum(m, p)
    omega = _gap_form(m, rep, np.random.default_rng(29 + p))
    for k in (1, 2):
        first = poisson_solve(m, cov, rf, rep, omega, 1.5, k=k)[0]
        v, om_t, _ = rsm.raising_steps(m, cov, rf, omega,
                                       rsm.RsmConfig(1.5, 2.0, k=k))
        f = gap_solve(m, rep, om_t - harmonic_projection(m, rep, om_t))
        again = poisson_solve(m, cov, rf, rep, omega, 1.5, k=k)[0]
        for u in (first, again):
            assert u.values.tobytes() == (v - f).values.tobytes()


def test_solves_and_decompositions_build_no_density_plan(monkeypatch):
    # the solves and both decompositions run bare sweeps: on a fresh
    # covering they build no DensityPlan, so no ledger plan, at any
    # degree; a ledger step then builds its degree's plan
    m = geometry.generate_test_manifold("flat_torus", 12)
    rf, cov = _cover_bundle(m)
    built = []
    init = dec.DensityPlan.__init__
    monkeypatch.setattr(dec.DensityPlan, "__init__",
                        lambda self, m, p, *a: built.append(p)
                        or init(self, m, p, *a))
    rng = np.random.default_rng(31)
    for p in (0, 1):
        rep = spectrum(m, p)
        om = _gap_form(m, rep, rng)
        poisson_solve(m, cov, rf, rep, om, 1.5)
        dual_poisson_solve(m, cov, rf, rep, om, 1.5)
        strong_decomposition(m, cov, rep, om, 1.5, k=2)
        weak_decomposition(m, cov, rep, om, 1.5, eps_target=0.05)
    assert built == [] and cov.ledgers == {} and sorted(cov.systems) == [0, 1]
    rsm.rsm_step(m, cov, rf, om, 1.5, covering.constant_weight(m.num_vertices))
    assert built == [1] and list(cov.ledgers) == [1]


def test_dual_poisson_zero(torus16, cover16, spec16_p1):
    rf, cov = cover16
    z = dec.Cochain(torus16, 1, np.zeros(torus16.num_simplices(1)))
    u, diags = dual_poisson_solve(torus16, cov, rf, spec16_p1, z, 1.5)
    assert dec.norm_l2(u) == 0.0


def test_dual_poisson_residual_and_agreement(torus16, cover16, spec16_p1,
                                             rng):
    rf, cov = cover16
    lap = dec.hodge_laplacian(torus16, 1)
    phi = lap(dec.random_cochain(torus16, 1, rng))
    ud, diags = dual_poisson_solve(torus16, cov, rf, spec16_p1, phi, 1.5)
    assert diags["residual"] <= 1e-8
    up, _ = poisson_solve(torus16, cov, rf, spec16_p1, phi, 1.5)
    # both are right inverses on the gap: they differ by a harmonic form
    assert dec.norm_l2(lap(ud - up)) <= 1e-7 * dec.norm_l2(phi)


def test_dual_poisson_above_dense_limit(torus32, cover32, spec32_p1, rng):
    # N = 3072 edges exceeds analysis.DENSE_LIMIT
    rf, cov = cover32
    phi = dec.random_cochain(torus32, 1, rng)
    phi = phi - harmonic_projection(torus32, spec32_p1, phi)
    phi = phi - harmonic_projection(torus32, spec32_p1, phi)
    u, diags = dual_poisson_solve(torus32, cov, rf, spec32_p1, phi, 1.5)
    assert torus32.num_simplices(1) > analysis.DENSE_LIMIT
    assert diags["residual"] <= 1e-8


def test_strong_decomposition_harmonic_input(torus16, cover16, spec16_p1):
    cov = cover16[1]
    h = dec.Cochain(torus16, 1, spec16_p1.harmonic_basis[:, 1])
    res = strong_decomposition(torus16, cov, spec16_p1, h, 1.5)
    assert dec.norm_l2(res.harmonic - h) <= 1e-9
    assert dec.norm_l2(res.exact) + dec.norm_l2(res.coexact) <= 1e-8


def test_strong_decomposition_range_input(torus16, cover16, spec16_p1, rng):
    cov = cover16[1]
    lap = dec.hodge_laplacian(torus16, 1)
    omega = lap(dec.random_cochain(torus16, 1, rng))
    res = strong_decomposition(torus16, cov, spec16_p1, omega, 1.5)
    assert dec.norm_l2(res.harmonic) <= 1e-9 * dec.norm_l2(omega)


def test_strong_decomposition_random(torus16, cover16, spec16_p1, rng):
    cov = cover16[1]
    omega = dec.random_cochain(torus16, 1, rng)
    for mode in ("delta", "d_dstar"):
        res = strong_decomposition(torus16, cov, spec16_p1, omega, 1.5,
                                   mode=mode)
        assert res.residual <= 1e-8
        assert all(v <= 1e-8 for v in res.orthogonality.values())
        back = res.harmonic + res.exact + res.coexact
        assert dec.norm_l2(back - omega) <= 1e-8 * dec.norm_l2(omega)
        if mode == "d_dstar":
            d = dec.exterior_derivative(torus16, 0)
            ds = dec.codifferential(torus16, 2)
            assert dec.norm_l2(res.exact - d(res.mu)) <= 1e-10
            assert dec.norm_l2(res.coexact - ds(res.nu)) <= 1e-10


def test_uniqueness_probe(torus16, cover16, spec16_p1):
    # decomposition of a pure injected harmonic recovers it
    cov = cover16[1]
    h = dec.Cochain(
        torus16, 1,
        0.7 * spec16_p1.harmonic_basis[:, 0]
        - 0.3 * spec16_p1.harmonic_basis[:, 1])
    res = strong_decomposition(torus16, cov, spec16_p1, h, 1.5)
    assert dec.norm_l2(res.harmonic - h) <= 1e-9


def test_exact_coexact_orthogonal_to_harmonics(torus16, spec16_p1, rng):
    d = dec.exterior_derivative(torus16, 0)
    gamma = dec.random_cochain(torus16, 0, rng)
    dg = d(gamma)
    for i in range(2):
        h = dec.Cochain(torus16, 1, spec16_p1.harmonic_basis[:, i])
        assert abs(dec.inner(dg, h)) <= \
            1e-10 * dec.norm_l2(dg) * dec.norm_l2(h)


def test_rank_identity(torus16, sphere4, spec16_p0, spec16_p1):
    assert rank_identity_check(torus16, 0, spec16_p0.harmonic_dim)
    assert rank_identity_check(torus16, 1, spec16_p1.harmonic_dim)
    assert rank_identity_check(torus16, 2, 1)
    assert rank_identity_check(sphere4, 1, 0)


def test_exact_ranks_match_dense(torus8, sphere4, bumpy16):
    torus3d3 = geometry.generate_flat_torus_3d(3)
    for m in (torus8, sphere4, bumpy16, torus3d3):
        for q in range(m.n):
            dense = np.linalg.matrix_rank(
                dec.exterior_derivative(m, q).matrix.toarray())
            assert derivative_rank(m, q) == dense, (m.num_vertices, q)
    # Betti numbers of the 3-torus: 1, 3, 3, 1
    for p, b in enumerate((1, 3, 3, 1)):
        assert rank_identity_check(torus3d3, p, b)


def test_rank_identity_not_run_above_dense_limit(torus3d8):
    # d_1 of the 3-torus 8 has 3584 edges: no dense rank, so every
    # identity that needs it is not run (None), never passed
    assert torus3d8.num_simplices(1) > analysis.DENSE_LIMIT
    assert derivative_rank(torus3d8, 1) is None
    assert rank_identity_check(torus3d8, 1, 3) is None
    assert rank_identity_check(torus3d8, 2, 3) is None
    assert rank_identity_check(torus3d8, 0, 1) is True
    assert rank_identity_check(torus3d8, 3, 1) is True


def test_weak_decomposition_harmonic(torus16, cover16, spec16_p1):
    cov = cover16[1]
    h = dec.Cochain(torus16, 1, spec16_p1.harmonic_basis[:, 0])
    res = weak_decomposition(torus16, cov, spec16_p1, h, 1.5,
                             eps_target=1e-3)
    assert res.extras["E_eps"] <= 1e-10
    assert dec.norm_l2(res.harmonic - h) <= 1e-9


def test_weak_decomposition_sequence_decreasing(torus16, cover16, spec16_p1,
                                                rng):
    cov = cover16[1]
    omega = dec.random_cochain(torus16, 1, rng)
    eps0 = 0.5 * dec.norm_l2(omega)
    seq = weak_decomposition_sequence(torus16, cov, spec16_p1, omega,
                                      1.5, eps0=eps0, halvings=3)
    es = [r.extras["E_eps"] for r in seq]
    assert all(b < a for a, b in zip(es, es[1:]))
    assert not any(r.extras.get("monotonicity_flag") for r in seq)


def _loop_weak_decomposition(m, cov, rf, rep, omega, r, alpha, eps_target,
                             min_balls):
    """(balls_used, E_eps) of weak_decomposition in delta_closure mode,
    its ball union grown one ball at a time in order of captured mass,
    with one simplex mask and one L^r norm of the tail per ball."""
    p = omega.degree
    om_c = omega - harmonic_projection(m, rep, omega)
    spec = dec.NormSpec(r, weight=alpha, power=r) if alpha is not None \
        else dec.NormSpec(r)

    def simplices_in(vertices):
        vmask = np.zeros(m.num_vertices, dtype=bool)
        vmask[vertices] = True
        return vertex_mask_to_simplex_mask(m, p, vmask)

    members = [column(cov.members, b.index) for b in cov.balls]
    mass = [-np.abs(om_c.values)[simplices_in(x)].sum() for x in members]
    union = []
    for used, j in enumerate(np.argsort(mass, kind="stable"), start=1):
        union.append(members[j])
        inside = simplices_in(np.concatenate(union))
        tail = dec.Cochain(m, p, np.where(inside, 0.0, om_c.values))
        if used >= min_balls and (dec.lr_norm(m, tail, spec) <= eps_target
                                  or used == len(cov.balls)):
            break
    om_eps = dec.Cochain(m, p, np.where(inside, om_c.values, 0.0))
    om_eps = om_eps - harmonic_projection(m, rep, om_eps)
    u, _ = poisson_solve(m, cov, rf, rep, om_eps, r, alpha)
    e_eps = om_c - dec.hodge_laplacian(m, p)(u)
    return used, dec.lr_norm(m, e_eps, spec)


@pytest.mark.parametrize("mesh,cover,p,weighted,min_balls", [
    ("torus16", "cover16", 1, False, 1), ("torus16", "cover16", 0, True, 1),
    ("bumpy16", "cover_bumpy", 2, False, 1),
    ("bumpy16", "cover_bumpy", 1, True, 40)])
def test_weak_decomposition_matches_loop_oracle(request, mesh, cover, p,
                                                weighted, min_balls):
    m = request.getfixturevalue(mesh)
    rf, cov = request.getfixturevalue(cover)
    rep = spectrum(m, p)
    alpha = covering.weight_from_radius(rf, 1) if weighted else None
    rng = np.random.default_rng(7)
    for _ in range(2):
        omega = dec.random_cochain(m, p, rng)
        base = dec.norm_l2(omega)
        for t in (0.8, 0.3, 0.05, 1e-3):
            res = weak_decomposition(m, cov, rep, omega, 1.5, alpha,
                                     t * base, _min_balls=min_balls)
            assert (res.extras["balls_used"], res.extras["E_eps"]) == \
                _loop_weak_decomposition(m, cov, rf, rep, omega, 1.5, alpha,
                                         t * base, min_balls)


def test_weak_modes_agree_within_eps(torus16, cover16, spec16_p1, rng):
    cov = cover16[1]
    omega = dec.random_cochain(torus16, 1, rng)
    eps = 0.3 * dec.norm_l2(omega)
    ra = weak_decomposition(torus16, cov, spec16_p1, omega, 1.5,
                            eps_target=eps, mode="delta_closure")
    rb = weak_decomposition(torus16, cov, spec16_p1, omega, 1.5,
                            eps_target=eps, mode="d_dstar_closure")
    assert dec.norm_l2(ra.harmonic - rb.harmonic) <= 1e-8
    tol = ra.extras["E_eps"] + rb.extras["E_eps"] + 1e-8
    assert dec.norm_l2((ra.exact + ra.coexact)
                       - (rb.exact + rb.coexact)) <= 2 * tol + eps


def test_weak_decomposition_takes_an_array_weight(torus16, cover16,
                                                  spec16_p1, rng):
    # alpha may be a WeightField or its per-vertex values, as NormSpec
    # takes either
    values = 1.0 + rng.random(torus16.num_vertices)
    omega = dec.random_cochain(torus16, 1, rng)
    eps = 0.3 * dec.norm_l2(omega)
    got, want = (weak_decomposition(torus16, cover16[1], spec16_p1, omega,
                                    1.5, alpha, eps).extras
                 for alpha in (values, covering.WeightField(values)))
    assert (got["E_eps"], got["balls_used"]) == \
        (want["E_eps"], want["balls_used"])


def test_weighted_czi(torus16, cover16, weight16, spec16_p1, rng):
    rf, cov = cover16
    lap = dec.hodge_laplacian(torus16, 1)
    us = []
    for _ in range(20):
        omega = lap(dec.random_cochain(torus16, 1, rng))
        u, _ = poisson_solve(torus16, cov, rf, spec16_p1, omega, 1.5)
        us.append(u)
    out = weighted_czi_verify(torus16, cov, rf, us[:10], 1.5, weight16)
    assert out["C1"] >= 0 and out["C2"] >= 0
    assert all(mg >= -1e-12 for mg in out["margins"])
    # held-out: constants keep the inequality with margin >= 0
    c1, c2 = out["C1"], out["C2"]
    for u in us[10:]:
        lhs, t1, t2 = analysis.czi_terms(torus16, rf, u, 1.5, weight16,
                                         out["classical"])
        assert c1 * t1 + c2 * t2 >= lhs - 1e-12


def test_weighted_czi_constants_are_pinned(torus8):
    # harmonic forms plus growing noise, so that both constants bind;
    # the fit's C1 and C2 are the exact rational optimum of its linear
    # program, times the headroom, to the fit budget
    rf, cov = _cover_bundle(torus8)
    rep = spectrum(torus8, 1)
    rng = np.random.default_rng(20260826)
    us = []
    for k in range(8):
        u = dec.random_cochain(torus8, 1, rng)
        h = harmonic_projection(torus8, rep, u)
        us.append(h * (1.0 / dec.norm_l2(h)) + (k / 8) * u)
    out = weighted_czi_verify(torus8, cov, rf, us, 1.5,
                              covering.weight_from_radius(rf, 1))
    assert out["classical"]
    assert out["C1"] > 0 and out["C2"] > 0
    assert_czi_fit_within_budget(out["rows"], (out["C1"], out["C2"]))


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("samples,want", [
    ([(0.0, 0.0, 0.0)], (0.0, 0.0)),                    # all-zero row
    ([(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)], (1.25, 0.0)),  # and a live row
    ([(1.0, 1.0, 1.0)], (1.25, 0.0)),                   # tie: larger C1
    ([(1.0, 1.0, 1 + 2**-20)], (0.0, 1 / (1 + 2**-20) * 1.25)),  # no tie
    ([(3.0, 1.0, 2.0), (3.0, 1.0, 2.0)], (0.0, 1.875)),  # duplicate rows
    ([(1.0, 1.0, 2.0), (3.0, 2.0, 4.0)], (0.0, 0.9375)),  # parallel rows
    ([(3.0, 2.0, 1.0), (3.0, 1.0, 2.0)], (1.25, 1.25)),  # both bind
    ([(-1.0, 1.0, 1.0)], (0.0, 0.0)),                   # lhs below zero
])
def test_czi_fit_edge_cases(samples, want):
    got = analysis.czi_fit(samples)
    assert str(got) == str(want)  # and no -0.0 for the report to print
    assert_czi_fit_within_budget(samples, got)


@pytest.mark.parametrize("samples,match", [
    ([(1.0, 0.0, 0.0)], "infeasible"),
    ([(1.0, 1.0, 1.0), (2.0, 0.0, 0.0)], "infeasible"),
    ([(_NAN, 1.0, 1.0)], "non-finite"),
    ([(1.0, _INF, 1.0)], "non-finite"),
    ([(1.0, 1.0, -_INF)], "non-finite"),
    ([], "no samples"),
])
def test_czi_fit_rejects(samples, match):
    with pytest.raises(AnalysisError, match=match):
        analysis.czi_fit(samples)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rows=st.lists(st.tuples(st.integers(-5, 30), st.integers(0, 30),
                               st.integers(0, 30)), min_size=1, max_size=8))
def test_czi_fit_is_the_exact_optimum(rows):
    # integer terms make the exact optimum a small rational; HiGHS, a
    # second oracle, must reach the same C1 + C2 (it may pick another
    # vertex of a tie)
    from scipy.optimize import linprog
    samples = [tuple(map(float, row)) for row in rows]
    want = oracle_czi_fit(samples)
    res = linprog(c=[1.0, 1.0], A_ub=[[-t1, -t2] for _, t1, t2 in samples],
                  b_ub=[-lhs for lhs, _, _ in samples],
                  bounds=[(0, None)] * 2, method="highs")
    assert res.success == (want is not None)
    if want is None:
        with pytest.raises(AnalysisError, match="infeasible"):
            analysis.czi_fit(samples)
        return
    assert_czi_fit_within_budget(samples, analysis.czi_fit(samples))
    assert (abs(sum(map(Fraction, res.x)) - sum(want))
            <= ROUNDOFF_BUDGET["fit"] * sum(want))


def _modules_after(code, *args):
    """The last line a fresh interpreter prints running `code`: the
    modules of interest it holds at the end."""
    src = str(Path(analysis.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code),
                          *map(str, args)], env=env, check=True,
                         capture_output=True, text=True, timeout=300)
    return out.stdout.strip().split("\n")[-1]


def test_library_pass_loads_no_optimizer():
    # importing the package and its CLI, a library pass (spectrum,
    # Poisson and dual Poisson solves) and the CZI fit leave SciPy's
    # optimizer unloaded, in a fresh interpreter
    assert _modules_after("""\
        import sys
        import numpy as np
        import hodge_rsm, hodge_rsm.cli
        from hodge_rsm import analysis, covering, dec, geometry
        m = geometry.generate_test_manifold("flat_torus", 8)
        rf = covering.compute_radius_field(m, 0.1)
        cov = covering.vitali_cover(m, rf)
        covering.partition_of_unity(m, cov)
        rep = analysis.spectrum(m, 1)
        om = dec.random_cochain(m, 1, np.random.default_rng(1))
        om = om - analysis.harmonic_projection(m, rep, om)
        analysis.poisson_solve(m, cov, rf, rep, om, 1.5)
        analysis.dual_poisson_solve(m, cov, rf, rep, om, 1.5)
        analysis.czi_fit([(1.0, 1.0, 1.0), (3.0, 2.0, 1.0)])
        print(sorted(k for k in sys.modules if k.startswith("scipy.optimize")))
    """) == "[]"


def test_cover_and_verify_load_no_optimizer(tmp_path):
    # `cover` and `verify` run in-process, as the CI step runs them
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"mesh": {"kind": "flat_torus",
                                        "resolution": 8},
                               "out_dir": str(tmp_path)}))
    assert _modules_after("""\
        import sys
        from hodge_rsm import cli
        for cmd in ("cover", "verify"):
            try:
                cli.main([cmd, "--config", sys.argv[1]])
            except SystemExit as e:
                assert not e.code, (cmd, e.code)
        print(sorted(k for k in sys.modules if k.startswith("scipy.optimize")))
    """, cfg) == "[]"
    assert (tmp_path / "verify_report.json").exists()


def test_report_and_usage_error_load_no_numpy(tmp_path):
    # importing the package, `report` and a usage error (an unknown
    # config key) leave numpy unloaded, in a fresh interpreter
    (tmp_path / "solve_report.json").write_text(
        json.dumps({"all_passed": True, "checks": []}))
    cfg, bad = tmp_path / "config.json", tmp_path / "bad.json"
    cfg.write_text(json.dumps({"out_dir": str(tmp_path)}))
    bad.write_text(json.dumps({"out_dir": str(tmp_path), "no_such_key": 1}))
    assert _modules_after("""\
        import sys
        import hodge_rsm
        from hodge_rsm import cli
        for cmd, cfg, code in (("report", sys.argv[1], 0),
                               ("solve", sys.argv[2], 2)):
            try:
                cli.main([cmd, "--config", cfg])
            except SystemExit as e:
                assert e.code == code, (cmd, e.code)
        print(sorted(k for k in sys.modules if k.split(".")[0] == "numpy"))
    """, cfg, bad) == "[]"


def test_harmonic_embedding(torus16, spec16_p0, spec16_p1):
    chk = harmonic_embedding_check(torus16, spec16_p1, 2.0)
    assert chk["ratios"] == [1.0, 1.0]
    for s in (4.0, 16.0):
        chk = harmonic_embedding_check(torus16, spec16_p1, s)
        assert np.isfinite(chk["C_s"]) and chk["C_s"] > 0
    # constants on p=0: closed-form volume ratio
    chk0 = harmonic_embedding_check(torus16, spec16_p0, 4.0)
    vol = total_volume(torus16)
    want = vol ** (1 / 4.0) / vol ** (1 / 2.0)
    assert chk0["ratios"][0] == pytest.approx(want, rel=1e-10)


def test_spectrum_report_serialization(spec16_p1):
    d = spec16_p1.to_dict()
    assert d["harmonic_dim"] == 2
    assert len(d["eigenvalues"]) >= 3
