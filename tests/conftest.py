"""Shared fixtures: meshes, coverings, and spectra reused across modules.

Everything heavy is session-scoped; patch extraction and operator caches
live on the fixture objects, so later tests reuse earlier work.
"""

import sys
import weakref

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra

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
def weight16(torus16, cover16):
    rf, cov = cover16
    w = covering.weight_from_radius(rf, 1)
    covering.check_weight_relative(w, cov, torus16)
    return w


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
