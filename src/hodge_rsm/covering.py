"""Admissible radius fields, Vitali ball coverings, partitions of unity.

A vertex's admissible radius is the largest geodesic ball around it that
carries a near-identity chart (metric and first-difference deviation both
below epsilon).  Core balls of radius R/divisor are packed greedily; their
5-fold dilations cover every vertex and carry a C^2 partition of unity.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import __version__
from .geometry import SimplicialManifold, ball_searches, chart_radii

RADIUS_FLOOR_EDGES = 2.0   # R_min = this many mean edge lengths
MIN_DIVISOR = 5.0          # below this the 5r dilation stops making sense
VITALI_WINDOW = 256        # least Vitali candidates searched together
# hashed by covering_key: bump it with any change that can alter the
# covering built from some mesh, eps and divisor, so saved ones rebuild
COVERING_RULE = 1


class CoverageError(RuntimeError):
    """A vertex ended up outside every covering ball."""


@dataclass
class RadiusField:
    """Per-vertex admissible radius and the derived core radius."""

    values: np.ndarray          # R_eps(x), in (0, 1]
    eps: float
    divisor: float              # requested Vitali divisor
    divisor_effective: float    # actual divisor after resolution clamping

    @property
    def core(self) -> np.ndarray:
        return self.values / self.divisor_effective


@dataclass
class CoveringBall:
    index: int
    center: int
    core_radius: float
    covering_radius: float
    admissible_radius: float
    members: np.ndarray          # vertices within the covering radius
    distances: np.ndarray | None = None   # members' from the center,
                                          # None in a loaded covering


def membership(balls: list, num_vertices: int) -> sp.csc_matrix:
    """Vertices x balls matrix, 1.0 where the vertex is a ball member:
    column j lists ball j's members as stored (ascending)."""
    members = [b.members for b in balls]
    starts = np.concatenate([[0], np.cumsum([x.size for x in members])])
    return sp.csc_matrix((np.ones(starts[-1]), np.concatenate(members),
                          starts), shape=(num_vertices, len(balls)))


@dataclass
class AdmissibleCovering:
    """The balls with their vertices x balls membership matrix (members,
    built with them by vitali_cover or load_covering), the partition of
    unity, and what the sweeps build on first use."""

    balls: list
    eps: float
    members: sp.csc_matrix                      # vertices x balls
    overlap_measured: int = 0
    chi: sp.csr_matrix | None = None            # vertices x balls
    patches: object | None = None   # rsm.cached_patches: a Patches
    systems: dict | None = None   # rsm.patch_system: system and plan

    def __len__(self):
        return len(self.balls)

    def membership_counts(self, num_vertices: int) -> np.ndarray:
        """Balls holding each of the num_vertices vertices."""
        if num_vertices != self.members.shape[0]:
            raise ValueError(f"the covering has {self.members.shape[0]} "
                             f"vertices, not {num_vertices}")
        return np.asarray(self.members.sum(axis=1), dtype=int).ravel()

    def radii(self) -> np.ndarray:
        """Covering radius of each ball."""
        return np.array([b.covering_radius for b in self.balls])


@dataclass
class WeightField:
    """Positive per-vertex weight."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if np.any(self.values <= 0):
            raise ValueError("weight must be strictly positive")


def _admissible_radii(m: SimplicialManifold, centers: np.ndarray,
                      eps: float) -> np.ndarray:
    """Largest R in [R_min, 1] whose chart at each center stays within
    eps, in rounds of batched frame fits (geometry.chart_radii).

    The first round fits every center's frame on its ball of radius
    R_min, because a distortion exceeding eps below the floor gives R_min
    anyway.  A center whose first exceedance lies beyond the reach goes
    to the next round at twice the reach, up to the clamp 1.  The result
    is that of a whole-mesh frame, min(1, max(R, R_min)) with R the
    largest_radii_within(eps) of x's frame fitted on every vertex, up to
    the frame's Tikhonov weight, which averages over the fitted ball.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    r_min = RADIUS_FLOOR_EDGES * m.mean_edge_length()
    values = np.empty(centers.size)
    pending = np.arange(centers.size)
    reach = r_min
    while pending.size:
        r = chart_radii(m, centers[pending], reach, eps)
        done = np.isfinite(r) | (reach >= 1.0)
        values[pending[done]] = np.minimum(1.0, np.maximum(r[done], r_min))
        pending = pending[~done]
        reach = min(2.0 * reach, 1.0)
    return values


def compute_radius_field(m: SimplicialManifold, eps: float,
                         divisor: float = 120.0) -> RadiusField:
    """Admissible radius at every vertex plus the effective Vitali divisor.

    The radii come in rounds (see _admissible_radii): each round
    searches the balls of all pending vertices in one batched call
    (geometry.ball_searches) and fits their chart frames in batched
    passes (geometry.ChartFrames), so where radii stay within a few
    multiples of the floor R_min a vertex costs a share of one or two
    batched searches and fits on the edges of small balls.

    The divisor is reduced (never below MIN_DIVISOR) when R/divisor
    would fall under the mesh resolution, since core balls smaller than
    an edge cannot pack meaningfully; the divisor used is recorded in
    divisor_effective.
    """
    if divisor < 8:
        raise ValueError("Vitali divisor must be at least 8")
    values = _admissible_radii(m, np.arange(m.num_vertices), eps)
    mean_edge = m.mean_edge_length()
    resolvable = values.min() / mean_edge
    div_eff = float(min(divisor, max(MIN_DIVISOR, resolvable)))
    return RadiusField(values, eps, divisor, div_eff)


def check_radius_lipschitz(m: SimplicialManifold, rf: RadiusField,
                           tol: float = 1e-9) -> list:
    """Pairs violating the Harnack-type radius bound R(x) <= 4 R(y).

    Pairs (x, y), sorted, with d(x, y) <= (R(x) + R(y))/4; an empty list
    means nearby admissible radii are comparable on this field.  For
    tol >= 0, R(y) < R(x)/4, so a search to (R(x) + R(x)/4)/4 finds y;
    the searches of all x above 4 min R run as one batched call.
    """
    R = rf.values
    xs = np.flatnonzero(R > 4.0 * R.min() * (1.0 + tol))
    bad = []
    for x, (ys, d) in zip(xs, ball_searches(m, xs, (R[xs] + R[xs] / 4.0)
                                            / 4.0)):
        ys = ys[(d <= (R[x] + R[ys]) / 4.0)
                & (R[x] > 4.0 * R[ys] * (1.0 + tol))]
        bad += [(int(x), int(y)) for y in ys]
    return bad


def overlap_bound(eps: float, n: int) -> float:
    """Closed-form bound on the covering overlap count."""
    if not 0 <= eps < 1 or n < 2:
        raise ValueError("need eps in [0,1) and n >= 2")
    return ((1.0 + eps) / (1.0 - eps)) ** (n / 2.0) * 120.0**n


def vitali_cover(m: SimplicialManifold, rf: RadiusField) -> AdmissibleCovering:
    """Greedy Vitali covering from the core-radius field.

    Centers are taken in decreasing core-radius order (ties by index);
    a center is accepted when its core ball is disjoint from all accepted
    cores.  The 5-fold dilations then cover every vertex.

    The greedy pass goes through windows of the next unblocked
    candidates, searched together (geometry.ball_searches) to 2 core(x):
    that reaches every later candidate y an accepted x blocks, since
    d(x, y) <= core(x) + core(y) <= 2 core(x).  A candidate that an
    earlier ball of its window blocks is skipped, as in one candidate at
    a time.  The windows start at VITALI_WINDOW candidates and grow to
    twice the balls the last one accepted.  The accepted balls' members,
    within R_x = 5 core(x), and their distances, which partition_of_unity
    reads, come from one more search.
    """
    core = rf.core
    order = np.lexsort((np.arange(m.num_vertices), -core))
    blocked = np.zeros(m.num_vertices, dtype=bool)
    centers, window = [], VITALI_WINDOW
    while order.size:
        free = np.flatnonzero(~blocked[order])[:window]
        if not free.size:
            break
        candidates, order = order[free], order[free[-1] + 1:]
        near, d = zip(*ball_searches(m, candidates, 2.0 * core[candidates]))
        owner = np.repeat(np.arange(candidates.size), [x.size for x in near])
        near, d = np.concatenate(near), np.concatenate(d)
        # what each candidate blocks, if accepted: rows of one array
        hit = d <= core[near] + core[candidates][owner]
        near = near[hit]
        starts = np.searchsorted(owner[hit], np.arange(candidates.size + 1))
        accepted = 0
        for x, lo, hi in zip(candidates.tolist(), starts[:-1].tolist(),
                             starts[1:].tolist()):
            if not blocked[x]:
                blocked[near[lo:hi]] = True
                centers.append(x)
                accepted += 1
        window = max(VITALI_WINDOW, 2 * accepted)
    centers = np.array(centers, dtype=np.int64)
    radii = 5.0 * core[centers]
    searches = ball_searches(m, centers, radii)
    balls = [CoveringBall(j, x, c, R, a, members, d)
             for j, (x, c, R, a, (members, d)) in enumerate(zip(
                 centers.tolist(), core[centers].tolist(), radii.tolist(),
                 rf.values[centers].tolist(), searches))]

    cov = AdmissibleCovering(balls, rf.eps,
                             membership(balls, m.num_vertices))
    counts = cov.membership_counts(m.num_vertices)
    if counts.min() == 0:
        v = int(np.argmin(counts))
        raise CoverageError(
            f"vertex {v} lies in no covering ball; the radius floor is "
            "below mesh resolution")
    cov.overlap_measured = int(counts.max())
    return cov


def partition_of_unity(m: SimplicialManifold,
                       cov: AdmissibleCovering) -> sp.csr_matrix:
    """Normalized C^2 bumps chi_j = phi_j / sum phi, stored into cov.

    phi_j(x) = (1 - (d/R_j)^2)^3 inside the ball, zero outside, with d
    the member distances vitali_cover's search stored on each ball.
    """
    phi = cov.members.copy()
    t = np.concatenate([b.distances for b in cov.balls]) \
        / np.repeat(cov.radii(), np.diff(phi.indptr))
    phi.data = np.maximum(1.0 - t**2, 0.0) ** 3
    phi = phi.tocsr()
    phi.eliminate_zeros()
    total = np.asarray(phi.sum(axis=1)).ravel()
    if np.any(total <= 0):
        raise CoverageError("vertex with zero bump mass (coverage gap)")
    cov.chi = sp.diags(1.0 / total) @ phi
    return cov.chi


def weight_from_radius(rf: RadiusField, k: int) -> WeightField:
    """w(x) = R(x)^(-2k); k = 0 gives the constant weight."""
    if k < 0:
        raise ValueError("power k must be nonnegative")
    return WeightField(rf.values ** (-2 * k))


def constant_weight(num_vertices: int) -> WeightField:
    return WeightField(np.ones(num_vertices))


def ball_volumes(cov: AdmissibleCovering,
                 m: SimplicialManifold) -> np.ndarray:
    """Each ball's dual volume: members^T times the dual vertex volumes."""
    return cov.members.T @ m.dual_volumes()


def check_weight_relative(w: WeightField, cov: AdmissibleCovering,
                          m: SimplicialManifold,
                          volumes: np.ndarray | None = None) -> tuple:
    """(means, c_iw, c_sw): the mean w_j of w over each covering ball,
    weighted by dual vertex volumes, and the tightest constants with
    c_iw * w_j <= w(x) <= c_sw * w_j on every ball, stored nowhere.  The
    ball sums run over the entries of cov.members in storage order, as
    members^T x does.  volumes, ball_volumes(cov, m), depends on the
    covering only: rsm.LedgerPlan keeps it for the steps, and it is
    formed here when not given."""
    A = cov.members
    ball = np.repeat(np.arange(A.shape[1]), np.diff(A.indptr))
    wv = w.values[A.indices]
    means = np.bincount(ball, wv * m.dual_volumes()[A.indices],
                        minlength=A.shape[1]) \
        / (ball_volumes(cov, m) if volumes is None else volumes)
    ratios = wv / means[ball]
    return means, float(ratios.min()), float(ratios.max())


# -- serialization ------------------------------------------------------


def covering_key(m: SimplicialManifold, eps: float, divisor: float) -> str:
    """SHA-256 over what a covering is built from: the program version
    and COVERING_RULE, the mesh's vertices, oriented cells and edge
    lengths (with their dtypes and shapes), eps and the requested
    divisor.  Equal keys mean compute_radius_field, vitali_cover and
    partition_of_unity of this program version would build the saved
    covering again."""
    h = hashlib.sha256()
    h.update(f"hodge_rsm {__version__} covering rule {COVERING_RULE}"
             .encode())
    for a in (m.vertices, m.oriented_cells, m.edge_lengths,
              np.array([eps, divisor], dtype=float)):
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def covering_to_dict(cov: AdmissibleCovering, rf: RadiusField,
                     key: str) -> dict:
    chi = sp.coo_matrix(cov.chi)
    return {
        "eps": cov.eps,
        "overlap_measured": cov.overlap_measured,
        "balls": [{
            "center": b.center,
            "core_radius": b.core_radius,
            "covering_radius": b.covering_radius,
            "admissible_radius": b.admissible_radius,
            "members": b.members.tolist(),
        } for b in cov.balls],
        "partition_triplets": [[i, j, v] for i, j, v in zip(
            chi.row.tolist(), chi.col.tolist(), chi.data.tolist())],
        "radius_field": {"values": rf.values.tolist(), "eps": rf.eps,
                         "divisor": rf.divisor,
                         "divisor_effective": rf.divisor_effective},
        "key": key,
    }


def save_covering(cov: AdmissibleCovering, path, rf: RadiusField,
                  key: str) -> None:
    """Write cov, its partition of unity, radius field and covering_key as
    compact JSON (json.dumps: json.dump never runs the C encoder); floats
    round-trip exactly through load_covering."""
    with open(path, "w") as f:
        f.write(json.dumps(covering_to_dict(cov, rf, key), sort_keys=True))


def load_covering(path) -> tuple[RadiusField, AdmissibleCovering, str]:
    """(rf, cov, key) as save_covering wrote them; LookupError when a
    field is missing or null, as in a file written before the partition
    of unity.  Older files' doubled_members and chi_gradients are
    ignored."""
    with open(path) as f:
        d = json.load(f)
    if any(d[k] is None for k in ("balls", "eps", "overlap_measured",
                                  "partition_triplets", "radius_field",
                                  "key")):
        raise LookupError(f"{path}: a covering field is null")
    balls = [CoveringBall(i, bd["center"], bd["core_radius"],
                          bd["covering_radius"], bd["admissible_radius"],
                          np.array(bd["members"], dtype=int))
             for i, bd in enumerate(d["balls"])]
    # every vertex lies in some ball, the last one included
    V = int(max(b.members.max() for b in balls) + 1)
    cov = AdmissibleCovering(balls, d["eps"], membership(balls, V),
                             d["overlap_measured"])
    trip = np.array(d["partition_triplets"])
    cov.chi = sp.csr_matrix(
        (trip[:, 2], (trip[:, 0].astype(int), trip[:, 1].astype(int))),
        shape=(V, len(balls)))
    rd = d["radius_field"]
    rf = RadiusField(np.array(rd["values"], dtype=float), rd["eps"],
                     rd["divisor"], rd["divisor_effective"])
    return rf, cov, d["key"]
