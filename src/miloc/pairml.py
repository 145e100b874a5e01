"""Closed-form per-link maximum-likelihood estimation.

From a single measured 3x3 channel matrix between an agent and an anchor,
the agent orientation, the link direction (up to sign), the distance and two
candidate positions admit closed-form ML solutions built on the SVD of

    A = Im(H_meas)^T @ O_anchor^T.

The orientation solution is a sign-constrained Procrustes fit; the trace
score z = s1 + s2/2 + (s3/2) det(U V^T) inverts to the ML distance.  Both
are exact under the SVD's sign freedom, so numpy's signs are used as they
come.  The sign ambiguity of the direction (the dipole factor satisfies
F(u) = F(-u)) is resolved by room membership, with a likelihood test for
links whose geometry leaves both candidates plausible.

pair_ml_estimate and distance_estimates work on a stack of one-agent
anchor problems (estimators.LsProblem.anchor_problem), whose link k goes to
anchor k; they read its measurements, anchors and coupling, and the
likelihood test scores candidate poses by that problem's residual.  Every
step is an array operation over all agents and links at once, the
decision included: the one-link steps and a loop that decides one agent at
a time are the references in the tests (tests/oracles.py).
"""

from __future__ import annotations

import numpy as np

from .channel import MIN_NODE_DISTANCE
from .geometry import Room, join_poses

DIRECTION_GAP_TOL = 1e-12
DEGENERATE_SV_TOL = 1e-15

# Candidates within this distance outside the room still count as in-room
# when resolving the sign ambiguity; covers the noise-induced excursions of
# candidates for agents close to a wall.
DEFAULT_BOUNDARY_MARGIN = 0.10  # m

# A candidate wins the likelihood test only when its residual cost is
# smaller by at least this factor; weak links rarely reach it.
COST_RATIO_DECISIVE = 10.0


class ZeroScore(ValueError):
    """Trace score carries no distance information."""


class NoMeasurements(ValueError):
    """No usable agent-anchor measurement was provided."""


def decompose_links(y_imag: np.ndarray, anchor_rotations: np.ndarray):
    """SVD decomposition, ML orientation and trace score of stacked links.

    y_imag and anchor_rotations are (..., 3, 3) each.  Returns (s, v, o_hat,
    z): the descending singular values and right singular vectors (columns
    of v) of A = Im(H)^T O_anchor^T, the agent orientation estimates (always
    proper rotations) and the scores z = s1 + s2/2 + (s3/2) det(U V^T) >= 0.
    The SVD's signs are numpy's: flipping a column of U with the same column
    of V leaves o_hat and z bit for bit, and the direction v[..., 0] is read
    up to sign.  Degenerate links are not flagged; their s1 is zero.
    """
    a = np.asarray(y_imag).swapaxes(-1, -2) @ anchor_rotations.swapaxes(-1, -2)
    u, s, vt = np.linalg.svd(a)
    v = vt.swapaxes(-1, -2)
    det_uv = np.linalg.det(u @ vt)
    flips = np.ones(det_uv.shape + (1, 3))
    flips[..., 1] = -1.0
    flips[..., 2] = -det_uv[..., None]
    o_hat = (v * flips) @ u.swapaxes(-1, -2)
    z = s[..., 0] + 0.5 * s[..., 1] + 0.5 * s[..., 2] * det_uv
    return s, v, o_hat, z


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


def _candidate_costs(alone, candidates, rotations, wanted):
    """Residual costs (n, K, 2) of the candidate poses of the links in wanted (n, K).

    Candidate c of link k of agent m is the pose (candidates[m, k, c],
    rotations[m, k]) of problem m of the one-agent stack alone, scored by
    the squared residual of that problem over all of its anchor links; all
    of them in one residual call.  A candidate closer than MIN_NODE_DISTANCE
    to an anchor, where the channel raises CoincidentNodes, scores inf, and
    so does every candidate of a link outside wanted.
    """
    gaps = np.linalg.norm(alone.anchor_positions - candidates[..., None, :], axis=-1)
    scored = wanted[..., None] & np.all(gaps >= MIN_NODE_DISTANCE, axis=-1)
    agent, link, side = np.nonzero(scored)
    rows = join_poses(candidates[agent, link, side][:, None], rotations[agent, link][:, None])
    costs = np.full(scored.shape, np.inf)
    costs[scored] = np.sum(alone.residual(rows, agent) ** 2, axis=-1)
    return costs


def pair_ml_estimate(alone, room: Room):
    """Estimate the poses of n agents, each from its K anchor links.

    alone is a stack of n one-agent problems whose link k goes to anchor k
    (estimators.LsProblem.anchor_problem), measured y_imag (n, K, 3, 3).
    All n*K links are decomposed, ranged and given their two candidate
    positions in one batched pass.  A usable link decides when exactly one
    of its candidates is in the room, or when the costs of its two
    hypotheses, the squared residuals of the agent's own problem over all of
    its anchor links, differ by at least COST_RATIO_DECISIVE.  Each agent
    takes the first deciding link by ascending ML distance (best expected
    SNR first, link order on ties).  If none decides, the smallest-distance
    link falls back to the candidate closer to the room center (both inside)
    or the candidate closest to the room, clamped to it (both outside).

    Returns (positions, rotations): the (n, 3) positions and the (n, 3, 3)
    orientations of the deciding links.

    Raises:
        NoMeasurements: some agent has no usable link.
    """
    s, v, o_hat, z = decompose_links(alone.y_imag, alone.anchor_rotations)
    usable = (s[..., 0] >= DEGENERATE_SV_TOL) & (z > 0.0)
    usable &= s[..., 0] - s[..., 1] >= DIRECTION_GAP_TOL * s[..., 0]
    if not np.all(np.any(usable, axis=-1)):
        raise NoMeasurements("no usable agent-anchor measurement")
    distances = np.zeros(z.shape)
    distances[usable] = ml_distance(z[usable], alone.coupling)
    step, anchors = v[..., 0] * distances[..., None], alone.anchor_positions
    candidates = np.stack([anchors + step, anchors - step], axis=-2)  # (n, K, 2, 3)
    inside = room.contains(candidates, DEFAULT_BOUNDARY_MARGIN)
    unique = usable & (inside.sum(axis=-1) == 1)
    costs = _candidate_costs(alone, candidates, o_hat, usable & ~unique)
    low, high = costs.min(axis=-1), costs.max(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        decisive = (low > 0.0) & (high / low >= COST_RATIO_DECISIVE)

    # the first deciding link by ascending distance; with none, argmax gives the nearest
    order = np.argsort(np.where(usable, distances, np.inf), axis=-1, kind="stable")
    first = np.argmax(np.take_along_axis(unique | decisive, order, axis=-1), axis=-1)
    agents = np.arange(len(z))
    k = order[agents, first]
    pair, inside, unique, decisive = (a[agents, k] for a in (candidates, inside, unique, decisive))
    outside = ~inside.any(axis=-1) & ~decisive  # the both-outside fallback
    side = np.select(
        [unique, decisive, outside],
        [
            np.argmax(inside, axis=-1),
            np.argmin(costs[agents, k], axis=-1),
            np.argmin(np.linalg.norm(room.clamp(pair) - pair, axis=-1), axis=-1),
        ],
        np.argmin(np.linalg.norm(pair - room.center, axis=-1), axis=-1),
    )
    positions = pair[agents, side]
    positions[outside] = room.clamp(positions[outside])
    return positions, o_hat[agents, k]


def distance_estimates(alone):
    """ML distance estimate of every anchor link, for range-only processing.

    alone is a stack of n one-agent problems as for pair_ml_estimate;
    returns the (n, K) distances, NaN where a link is degenerate or its
    score is zero.

    Raises:
        NoMeasurements: some agent has no usable link.
    """
    s, _, _, z = decompose_links(alone.y_imag, alone.anchor_rotations)
    usable = (s[..., 0] >= DEGENERATE_SV_TOL) & (z > 0.0)
    if not np.all(np.any(usable, axis=-1)):
        raise NoMeasurements("no usable agent-anchor measurement")
    distances = np.full(z.shape, np.nan)
    distances[usable] = ml_distance(z[usable], alone.coupling)
    return distances
