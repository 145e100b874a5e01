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
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .channel import LinkMeasurement, dipole_factor
from .geometry import Deployment, Room, rotation_to_euler

DIRECTION_GAP_TOL = 1e-12
DEGENERATE_SV_TOL = 1e-15

# Candidates within this distance outside the room still count as in-room
# when resolving the sign ambiguity; covers the noise-induced excursions of
# candidates for agents close to a wall.
DEFAULT_BOUNDARY_MARGIN = 0.10  # m

# A candidate wins the likelihood fallback only when its residual cost is
# smaller by at least this factor; weak links rarely reach it.
COST_RATIO_DECISIVE = 10.0


class DegenerateMeasurement(ValueError):
    """Imaginary part of the measurement is (numerically) zero."""


class ZeroScore(ValueError):
    """Trace score carries no distance information."""


class AmbiguousDirection(ValueError):
    """Leading singular value is not isolated; direction undefined."""


class NoMeasurements(ValueError):
    """No usable agent-anchor measurement was provided."""


class PositionValidity(Enum):
    UNIQUE_IN_ROOM = "unique"
    BOTH_IN_ROOM = "both"
    NONE_IN_ROOM = "none"


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


@dataclass(frozen=True)
class PairMlResult:
    """Closed-form estimates extracted from one agent-anchor link."""

    rotation: np.ndarray
    direction: np.ndarray
    score: float
    distance: float
    candidates: np.ndarray  # (2, 3): anchor +- direction * distance
    chosen: Optional[np.ndarray]
    validity: PositionValidity


def canonical_svd(a: np.ndarray) -> SvdTriple:
    """Canonical SVD of one 3x3 matrix or of a (..., 3, 3) stack."""
    u, s, vt = np.linalg.svd(np.asarray(a, dtype=float))
    v = vt.swapaxes(-1, -2)
    # the largest-magnitude entry of each column of V, the first on ties
    lead = np.abs(v).argmax(axis=-2)[..., None, :] == np.arange(3)[:, None]
    sign = np.where((v * lead).sum(axis=-2, keepdims=True) < 0, -1.0, 1.0)
    return SvdTriple(u=u * sign, s=s, v=v * sign)


def decompose_links(h_meas: np.ndarray, anchor_rotations: np.ndarray):
    """decompose_link for stacked links, (..., 3, 3) each; degenerate links are not flagged."""
    a = np.imag(np.asarray(h_meas)).swapaxes(-1, -2) @ anchor_rotations.swapaxes(-1, -2)
    svd = canonical_svd(a)
    det_uv = np.linalg.det(svd.u @ svd.v.swapaxes(-1, -2))
    flips = np.ones(det_uv.shape + (1, 3))
    flips[..., 1] = -1.0
    flips[..., 2] = -det_uv[..., None]
    o_hat = (svd.v * flips) @ svd.u.swapaxes(-1, -2)
    z = svd.s[..., 0] + 0.5 * svd.s[..., 1] + 0.5 * svd.s[..., 2] * det_uv
    return svd, o_hat, z


def decompose_link(h_meas: np.ndarray, anchor: Deployment):
    """SVD decomposition, ML orientation and trace score of one link.

    Returns:
        (svd, o_hat, z): canonical SVD of A = Im(H)^T O_anchor^T, the agent
        orientation estimate (always a proper rotation) and the score
        z = s1 + s2/2 + (s3/2) det(U V^T) >= 0.

    Raises:
        DegenerateMeasurement: all-zero imaginary part.
    """
    svd, o_hat, z = decompose_links(h_meas, anchor.rotation)
    if svd.s[0] < DEGENERATE_SV_TOL:
        raise DegenerateMeasurement("measurement has no imaginary content")
    return svd, o_hat, float(z)


def constrained_dipole_fit(svd: SvdTriple) -> np.ndarray:
    """ML estimate of the dipole factor, V diag(1, -1/2, -1/2) V^T.

    Only its principal eigenvector (the direction estimate) feeds the
    position pipeline; the full matrix is kept for structural checks.
    """
    return svd.v @ np.diag([1.0, -0.5, -0.5]) @ svd.v.T


def ml_distance(score: float, coupling: float) -> float:
    """Invert the trace score to the ML distance, r = (1.5 c / z)^(1/3).

    Raises:
        ZeroScore: score <= 0 (no distance information).
    """
    if score <= 0.0:
        raise ZeroScore("trace score must be positive")
    return float((1.5 * coupling / score) ** (1.0 / 3.0))


def direction_estimate(svd: SvdTriple) -> np.ndarray:
    """Unit direction estimate: the leading right singular vector, sign-free.

    Raises:
        AmbiguousDirection: s1 - s2 below tolerance, no unique principal
        direction.
    """
    if svd.s[0] - svd.s[1] < DIRECTION_GAP_TOL * svd.s[0]:
        raise AmbiguousDirection("leading singular value is not isolated")
    return svd.v[:, 0].copy()


def resolve_position(
    anchor_position: np.ndarray,
    direction: np.ndarray,
    distance: float,
    room: Room,
    margin: float = 0.0,
):
    """Form the two candidate positions and classify them by room membership.

    Returns:
        (candidates, chosen, validity): candidates (2, 3) symmetric about the
        anchor; chosen is set iff exactly one candidate lies inside the
        (margin-inflated) room.
    """
    anchor_position = np.asarray(anchor_position, dtype=float)
    step = np.asarray(direction, dtype=float) * float(distance)
    candidates = np.stack([anchor_position + step, anchor_position - step])
    inside = room.contains(candidates, margin).tolist()
    if sum(inside) == 1:
        chosen = candidates[0] if inside[0] else candidates[1]
        return candidates, chosen, PositionValidity.UNIQUE_IN_ROOM
    if sum(inside) == 2:
        return candidates, None, PositionValidity.BOTH_IN_ROOM
    return candidates, None, PositionValidity.NONE_IN_ROOM


def estimate_link(
    h_meas: np.ndarray,
    anchor: Deployment,
    coupling: float,
    room: Room,
    margin: float = 0.0,
) -> PairMlResult:
    """Full closed-form pipeline for a single agent-anchor measurement."""
    svd, o_hat, z = decompose_link(h_meas, anchor)
    return _link_result(svd, o_hat, z, anchor, coupling, room, margin)


def _link_result(svd, o_hat, z, anchor, coupling, room, margin) -> PairMlResult:
    distance = ml_distance(z, coupling)
    direction = direction_estimate(svd)
    candidates, chosen, validity = resolve_position(
        anchor.position, direction, distance, room, margin
    )
    return PairMlResult(
        rotation=o_hat,
        direction=direction,
        score=z,
        distance=distance,
        candidates=candidates,
        chosen=chosen,
        validity=validity,
    )


def _candidate_cost(
    position: np.ndarray,
    rotation: np.ndarray,
    measurements: Sequence[LinkMeasurement],
    anchors: Sequence[Deployment],
    coupling: float,
) -> float:
    """Residual cost of a candidate (position, orientation) over all links."""
    cost = 0.0
    for meas, anchor in zip(measurements, anchors):
        rvec = anchor.position - position
        r = np.linalg.norm(rvec)
        if r < 1e-9:
            return np.inf
        model = coupling / r**3 * (anchor.rotation.T @ dipole_factor(rvec / r) @ rotation)
        diff = np.imag(meas.h_meas) - model
        cost += float(np.sum(diff * diff))
    return cost


def pair_ml_estimate(
    measurements: Sequence[LinkMeasurement],
    anchors: Sequence[Deployment],
    coupling: float,
    room: Room,
    margin: float = DEFAULT_BOUNDARY_MARGIN,
    cost_ratio: float = COST_RATIO_DECISIVE,
) -> Deployment:
    """Estimate one agent's deployment from its anchor measurements.

    Links are visited by ascending ML distance (best expected SNR first).
    The first link with a unique in-room candidate wins.  A link whose two
    candidates are both plausible (or both outside) is resolved by comparing
    the residual cost of the two hypotheses over all anchor links, accepted
    only when decisive; otherwise the next link is tried.  If no link
    resolves, the smallest-distance link falls back to the candidate closer
    to the room center (both inside) or the candidate closest to the room,
    clamped to it (both outside).

    Args:
        measurements: agent-anchor measurements of a single agent.
        anchors: anchor deployments aligned with measurements.
        coupling: subcoil coupling constant.
        room: deployment region for ambiguity resolution.
        margin: room-membership slack during resolution (meters).
        cost_ratio: decisiveness threshold of the likelihood fallback.

    Raises:
        NoMeasurements: empty or fully degenerate input.
    """
    if len(measurements) != len(anchors):
        raise ValueError("measurements and anchors must align")
    if not measurements:
        raise NoMeasurements("no usable agent-anchor measurement")
    svd, o_hat, z = decompose_links(
        np.array([m.h_meas for m in measurements]), np.array([a.rotation for a in anchors])
    )
    results = []
    for i, anchor in enumerate(anchors):
        link = SvdTriple(svd.u[i], svd.s[i], svd.v[i])
        if link.s[0] < DEGENERATE_SV_TOL:
            continue
        try:
            results.append(
                _link_result(link, o_hat[i], float(z[i]), anchor, coupling, room, margin)
            )
        except (ZeroScore, AmbiguousDirection):
            continue
    if not results:
        raise NoMeasurements("no usable agent-anchor measurement")
    results.sort(key=lambda res: res.distance)

    for res in results:
        if res.validity is PositionValidity.UNIQUE_IN_ROOM:
            return Deployment(res.chosen, rotation_to_euler(res.rotation), res.rotation)
        costs = [
            _candidate_cost(cand, res.rotation, measurements, anchors, coupling)
            for cand in res.candidates
        ]
        low, high = sorted(costs)
        if low > 0.0 and high / low >= cost_ratio:
            pick = res.candidates[int(np.argmin(costs))]
            return Deployment(pick, rotation_to_euler(res.rotation), res.rotation)

    res = results[0]
    if res.validity is PositionValidity.BOTH_IN_ROOM:
        dist_to_center = np.linalg.norm(res.candidates - room.center, axis=1)
        pick = res.candidates[int(np.argmin(dist_to_center))]
    else:
        overshoot = [np.linalg.norm(room.clamp(c) - c) for c in res.candidates]
        pick = room.clamp(res.candidates[int(np.argmin(overshoot))])
    return Deployment(pick, rotation_to_euler(res.rotation), res.rotation)


def distance_estimates(
    measurements: Sequence[LinkMeasurement],
    anchors: Sequence[Deployment],
    coupling: float,
):
    """ML distance estimate per anchor link, for range-only processing.

    Returns:
        (anchor_positions, distances): arrays of shape (n, 3) and (n,);
        degenerate links are skipped.
    """
    positions, dists = [], []
    for meas, anchor in zip(measurements, anchors):
        try:
            _, _, z = decompose_link(meas.h_meas, anchor)
            dists.append(ml_distance(z, coupling))
        except (DegenerateMeasurement, ZeroScore):
            continue
        positions.append(anchor.position)
    if not positions:
        raise NoMeasurements("no usable agent-anchor measurement")
    return np.asarray(positions), np.asarray(dists)
