"""Closed-form per-link maximum-likelihood estimation.

From a single measured 3x3 channel matrix between an agent and an anchor,
the agent orientation, the link direction (up to sign), the distance and two
candidate positions admit closed-form ML solutions built on the SVD of

    A = Im(H_meas)^T @ O_anchor^T.

The orientation solution is a sign-constrained Procrustes fit; the trace
score z = s1 + s2/2 + (s3/2) det(U V^T) inverts to the ML distance.  The
sign ambiguity of the direction (the dipole factor satisfies F(u) = F(-u))
is resolved by room membership, with a likelihood fallback for links whose
geometry leaves both candidates plausible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import CoincidentNodes, channel_gain_batch
from .geometry import Room

DIRECTION_GAP_TOL = 1e-12
DEGENERATE_SV_TOL = 1e-15

# Candidates within this distance outside the room still count as in-room
# when resolving the sign ambiguity; covers the noise-induced excursions of
# candidates for agents close to a wall.
DEFAULT_BOUNDARY_MARGIN = 0.10  # m

# A candidate wins the likelihood fallback only when its residual cost is
# smaller by at least this factor; weak links rarely reach it.
COST_RATIO_DECISIVE = 10.0


class ZeroScore(ValueError):
    """Trace score carries no distance information."""


class NoMeasurements(ValueError):
    """No usable agent-anchor measurement was provided."""


@dataclass(frozen=True)
class SvdTriple:
    """Canonicalized SVD A = U diag(s) V^T with descending singular values.

    Signs are fixed so the largest-magnitude entry of every column of V is
    positive (compensated in U); the downstream orientation and score are
    invariant to these flips.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


def canonical_svd(a: np.ndarray) -> SvdTriple:
    """Canonical SVD of one 3x3 matrix or of a (..., 3, 3) stack."""
    u, s, vt = np.linalg.svd(np.asarray(a, dtype=float))
    v = vt.swapaxes(-1, -2)
    # the largest-magnitude entry of each column of V, the first on ties
    lead = np.abs(v).argmax(axis=-2)[..., None, :] == np.arange(3)[:, None]
    sign = np.where((v * lead).sum(axis=-2, keepdims=True) < 0, -1.0, 1.0)
    return SvdTriple(u=u * sign, s=s, v=v * sign)


def decompose_links(y_imag: np.ndarray, anchor_rotations: np.ndarray):
    """SVD decomposition, ML orientation and trace score of stacked links.

    y_imag and anchor_rotations are (..., 3, 3) each.  Returns (svd, o_hat,
    z): the canonical SVD of A = Im(H)^T O_anchor^T, the agent orientation
    estimates (always proper rotations) and the scores
    z = s1 + s2/2 + (s3/2) det(U V^T) >= 0.  Degenerate links are not
    flagged; their leading singular value is zero.
    """
    a = np.asarray(y_imag).swapaxes(-1, -2) @ anchor_rotations.swapaxes(-1, -2)
    svd = canonical_svd(a)
    det_uv = np.linalg.det(svd.u @ svd.v.swapaxes(-1, -2))
    flips = np.ones(det_uv.shape + (1, 3))
    flips[..., 1] = -1.0
    flips[..., 2] = -det_uv[..., None]
    o_hat = (svd.v * flips) @ svd.u.swapaxes(-1, -2)
    z = svd.s[..., 0] + 0.5 * svd.s[..., 1] + 0.5 * svd.s[..., 2] * det_uv
    return svd, o_hat, z


def ml_distance(score, coupling: float):
    """Invert the trace score to the ML distance, r = (1.5 c / z)^(1/3).

    score is one float, which gives a float, or an array of scores, which
    gives the array of distances.  Every distance is computed in scalar
    arithmetic: numpy's vectorised power can differ from the C library's in
    the last bit, and a batch must agree with one-link calls.

    Raises:
        ZeroScore: some score <= 0 (no distance information).
    """
    scores = np.asarray(score, dtype=float)
    if np.any(scores <= 0.0):
        raise ZeroScore("trace score must be positive")
    distances = [(1.5 * coupling / z) ** (1.0 / 3.0) for z in scores.ravel().tolist()]
    if scores.ndim == 0:
        return float(distances[0])
    return np.array(distances).reshape(scores.shape)


def _candidates(anchor_positions, directions, distances, room: Room):
    """Candidates anchor +- direction * distance, (..., 2, 3), and their room membership (..., 2)."""
    step = directions * distances[..., None]
    candidates = np.stack([anchor_positions + step, anchor_positions - step], axis=-2)
    return candidates, room.contains(candidates, DEFAULT_BOUNDARY_MARGIN)


def _candidate_cost(position, rotation, y_imag, anchor_positions, anchor_rotations, coupling) -> float:
    """Residual cost of a candidate (position, orientation) over an agent's K anchor links."""
    count = len(anchor_positions)
    try:
        gains, *_ = channel_gain_batch(
            np.broadcast_to(position, (count, 3)), np.broadcast_to(rotation, (count, 3, 3)),
            anchor_positions, anchor_rotations, coupling,
        )
    except CoincidentNodes:
        return np.inf
    return float(np.sum((y_imag - gains) ** 2))


def pair_ml_estimate(
    y_imag: np.ndarray,
    anchor_positions: np.ndarray,
    anchor_rotations: np.ndarray,
    coupling: float,
    room: Room,
) -> np.ndarray:
    """Estimate the poses of M agents, each from its K anchor measurements.

    All M*K links are decomposed, ranged and given their two candidate
    positions in one batched pass; then each agent visits its usable links
    by ascending ML distance (best expected SNR first).  The first link with
    a unique in-room candidate wins.  A link whose two candidates are both
    plausible (or both outside) is resolved by comparing the residual cost
    of the two hypotheses over all of the agent's anchor links, accepted
    only when decisive; otherwise the next link is tried.  If no link
    resolves, the smallest-distance link falls back to the candidate closer
    to the room center (both inside) or the candidate closest to the room,
    clamped to it (both outside).

    Args:
        y_imag: (M, K, 3, 3) measured Im(H) of every agent's anchor links.
        anchor_positions, anchor_rotations: (M, K, 3) and (M, K, 3, 3), the
            anchor of every link.

    Returns (positions, rotations): the (M, 3) positions and the (M, 3, 3)
    orientations of the deciding links.

    Raises:
        NoMeasurements: some agent has no usable link.
    """
    y_imag = np.asarray(y_imag, dtype=float)
    anchor_positions = np.asarray(anchor_positions, dtype=float)
    anchor_rotations = np.asarray(anchor_rotations, dtype=float)
    if not y_imag.shape[:2] == anchor_positions.shape[:2] == anchor_rotations.shape[:2]:
        raise ValueError("measurements and anchors must align")
    svd, o_hat, z = decompose_links(y_imag, anchor_rotations)
    s = svd.s
    usable = (s[..., 0] >= DEGENERATE_SV_TOL) & (z > 0.0)
    usable &= s[..., 0] - s[..., 1] >= DIRECTION_GAP_TOL * s[..., 0]
    distances = np.zeros(z.shape)
    distances[usable] = ml_distance(z[usable], coupling)
    candidates, inside = _candidates(anchor_positions, svd.v[..., 0], distances, room)
    # usable links by ascending distance, link order on ties
    order = np.argsort(np.where(usable, distances, np.inf), axis=-1, kind="stable")

    positions, rotations = np.empty((len(y_imag), 3)), np.empty((len(y_imag), 3, 3))
    for m in range(len(y_imag)):
        links = order[m, : usable[m].sum()]
        if not links.size:
            raise NoMeasurements("no usable agent-anchor measurement")
        link, positions[m] = _resolve_agent(
            links, candidates[m], inside[m], o_hat[m], y_imag[m],
            anchor_positions[m], anchor_rotations[m], coupling, room,
        )
        rotations[m] = o_hat[m, link]
    return positions, rotations


def _resolve_agent(
    links, candidates, inside, rotations, y_imag, anchor_positions, anchor_rotations,
    coupling, room,
):
    """The deciding link of one agent and its position; links are visited in the given order."""
    for k in links:
        if inside[k].sum() == 1:
            return k, candidates[k, np.argmax(inside[k])]
        costs = [
            _candidate_cost(cand, rotations[k], y_imag, anchor_positions, anchor_rotations, coupling)
            for cand in candidates[k]
        ]
        low, high = sorted(costs)
        if low > 0.0 and high / low >= COST_RATIO_DECISIVE:
            return k, candidates[k, int(np.argmin(costs))]

    k = links[0]
    if inside[k].all():
        dist_to_center = np.linalg.norm(candidates[k] - room.center, axis=1)
        return k, candidates[k, int(np.argmin(dist_to_center))]
    overshoot = [np.linalg.norm(room.clamp(c) - c) for c in candidates[k]]
    return k, room.clamp(candidates[k, int(np.argmin(overshoot))])


def distance_estimates(y_imag: np.ndarray, anchor_rotations: np.ndarray, coupling: float):
    """ML distance estimate of every anchor link, for range-only processing.

    y_imag and anchor_rotations are (..., K, 3, 3); returns the (..., K)
    distances, NaN where a link is degenerate or its score is zero.

    Raises:
        NoMeasurements: some row of K links has no usable link.
    """
    svd, _, z = decompose_links(y_imag, np.asarray(anchor_rotations, dtype=float))
    usable = (svd.s[..., 0] >= DEGENERATE_SV_TOL) & (z > 0.0)
    if not np.all(np.any(usable, axis=-1)):
        raise NoMeasurements("no usable agent-anchor measurement")
    distances = np.full(z.shape, np.nan)
    distances[usable] = ml_distance(z[usable], coupling)
    return distances
