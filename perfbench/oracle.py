"""Reference computations made apart from miloc's estimators and bounds.

Both references use only the single-link ``channel.channel_matrix`` for the
physics, with their own Euler-angle rotation, link enumeration, derivative
and inversion code:

* ``fd_peb``: position error bounds from a Fisher matrix whose Jacobian is
  taken by central finite differences, inverted with ``numpy.linalg.inv``;
* ``reference_cost``: the least-squares cost minimum near the true pose,
  found by ``scipy.optimize.least_squares`` on a residual built here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

POSITION_STEP_M = 1e-6
ANGLE_STEP_RAD = 1e-6


@dataclass(frozen=True)
class Node:
    """Minimal stand-in for a deployment: what channel_matrix reads."""

    position: np.ndarray
    rotation: np.ndarray


def rotation_zyx(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """R = Rz(alpha) Ry(beta) Rx(gamma), written out independently."""
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    cg, sg = np.cos(gamma), np.sin(gamma)
    rz = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cb, 0.0, sb], [0.0, 1.0, 0.0], [-sb, 0.0, cb]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cg, -sg], [0.0, sg, cg]])
    return rz @ ry @ rx


def node_from_pose(pose: np.ndarray) -> Node:
    pose = np.asarray(pose, dtype=float)
    return Node(pose[:3].copy(), rotation_zyx(*pose[3:6]))


def links(n_agents: int, n_anchors: int, cooperative: bool) -> List[Tuple[int, int]]:
    """Ordered (tx, rx) pairs; anchors are ids n_agents.. onwards."""
    out = [(m, n_agents + a) for m in range(n_agents) for a in range(n_anchors)]
    if cooperative:
        out += [(m, n) for m in range(n_agents) for n in range(n_agents) if m != n]
    return out


def _im_channel(channel_matrix, tx: Node, rx: Node, coupling: float) -> np.ndarray:
    return np.imag(channel_matrix(tx, rx, coupling)).ravel()


def _pose_columns(channel_matrix, poses, nodes, coupling, tx, rx, endpoint):
    """(9, 6) central-difference derivatives w.r.t. one agent endpoint's pose."""
    steps = [POSITION_STEP_M] * 3 + [ANGLE_STEP_RAD] * 3
    cols = np.empty((9, 6))
    for k, step in enumerate(steps):
        values = []
        for sign in (1.0, -1.0):
            pose = poses[endpoint].copy()
            pose[k] += sign * step
            ends = {tx: nodes[tx], rx: nodes[rx], endpoint: node_from_pose(pose)}
            values.append(_im_channel(channel_matrix, ends[tx], ends[rx], coupling))
        cols[:, k] = (values[0] - values[1]) / (2.0 * step)
    return cols


def fd_fim(channel_matrix, poses, anchors, coupling, sigma, cooperative) -> np.ndarray:
    """Fisher matrix (2/sigma^2) sum_links J^T J with a finite-difference J."""
    m = len(poses)
    poses = [np.asarray(p, dtype=float) for p in poses]
    nodes = [node_from_pose(p) for p in poses] + list(anchors)
    fim = np.zeros((6 * m, 6 * m))
    for tx, rx in links(m, len(anchors), cooperative):
        jac = np.zeros((9, 6 * m))
        for endpoint in (tx, rx):
            if endpoint < m:
                jac[:, 6 * endpoint : 6 * endpoint + 6] = _pose_columns(
                    channel_matrix, poses, nodes, coupling, tx, rx, endpoint
                )
        fim += jac.T @ jac
    return (2.0 / sigma**2) * fim


def fd_peb(channel_matrix, poses, anchors, coupling, sigma, cooperative) -> np.ndarray:
    """Position error bound of every agent, in meters."""
    inverse = np.linalg.inv(fd_fim(channel_matrix, poses, anchors, coupling, sigma, cooperative))
    return np.array(
        [np.sqrt(np.trace(inverse[6 * a : 6 * a + 3, 6 * a : 6 * a + 3])) for a in range(len(poses))]
    )


def model_cost(channel_matrix, poses, anchors, coupling, measured, cooperative) -> float:
    """Sum over links of ||Im(H_meas) - Im(H(poses))||^2.

    measured maps (tx, rx) to the measured complex 3x3 matrix.
    """
    nodes = [node_from_pose(p) for p in poses] + list(anchors)
    total = 0.0
    for tx, rx in links(len(poses), len(anchors), cooperative):
        diff = np.imag(measured[(tx, rx)]).ravel() - _im_channel(
            channel_matrix, nodes[tx], nodes[rx], coupling
        )
        total += float(diff @ diff)
    return total


def reference_cost(
    channel_matrix,
    truth: Sequence[np.ndarray],
    anchors,
    coupling: float,
    measured,
    sigma: float,
    cooperative: bool,
) -> float:
    """Least-squares cost minimum reached by scipy from the true poses.

    A non-cooperative problem splits into one problem per agent, whose
    minima add up to the joint minimum.
    """
    from scipy.optimize import least_squares

    m = len(truth)
    groups = [list(range(m))] if cooperative else [[a] for a in range(m)]
    total = 0.0
    for agents in groups:
        link_list = [
            (tx, rx)
            for tx, rx in links(m, len(anchors), cooperative)
            if tx in agents
        ]

        def residual(theta, agents=agents, link_list=link_list):
            poses = [np.asarray(p, dtype=float) for p in truth]
            for slot, agent in enumerate(agents):
                poses[agent] = theta[6 * slot : 6 * slot + 6]
            nodes = [node_from_pose(p) for p in poses] + list(anchors)
            return np.concatenate(
                [
                    np.imag(measured[(tx, rx)]).ravel()
                    - _im_channel(channel_matrix, nodes[tx], nodes[rx], coupling)
                    for tx, rx in link_list
                ]
            ) / sigma

        x0 = np.concatenate([np.asarray(truth[a], dtype=float) for a in agents])
        fit = least_squares(
            residual, x0, jac="3-point", method="trf", xtol=1e-15, ftol=1e-15, gtol=1e-15
        )
        total += float(fit.fun @ fit.fun) * sigma**2
    return total
