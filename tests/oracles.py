"""Reference implementations the batched library code is checked against.

dipole_factor is the single-link F(u) of the channel model, and
constrained_dipole_fit the full ML dipole-factor estimate of pair-ML, whose
principal eigenvector is the library's direction estimate.  channel_gain
writes the dipole model out for one link, and euler_to_rotation_one the
z-y-x Euler convention for one triple.  deployment_from_euler and
deployment_from_rotation build the single-node records the one-link
oracles read, from either half of a pose.  retracted moves one deployment
by a position step and a local rotation R expm([phi]x), with scipy's matrix
exponential, and rotation_angle is the geodesic angle between rotations.
skew_stacked and exp_rotation_sinc are the rotation helpers written with
np.stack and np.sinc, which the library's skew and exp_rotation equal bit
for bit, and endpoint_columns_3x3 the link derivative columns with one
batched 3x3 product per column, which the library's kernels equal bit for
bit with fewer, larger products.
The channel Jacobians differentiate one link with explicit per-axis loops
w.r.t. those steps; test_channel validates them against central finite
differences of channel_matrix along retracted.  The information blocks
built from them give the per-link, per-pair assembly of the Fisher matrix,
which the library computes as (2 / sigma**2) J^T J, and peb_all calls the
library's bound for every agent of one matrix.  decompose_link,
direction_estimate and resolve_position are the one-link pair-ML steps:
SVD, orientation and score, the sign-free direction and the room test of
the two candidate positions.  candidate_cost scores a pair-ML candidate
pose link by link, and pair_ml_per_agent is pair-ML's decision one agent at
a time, each candidate pair scored by its own residual calls when its agent
reaches it.
residual_and_jacobian builds the dense residual Jacobian (..., 9L, 6M) of
an LsProblem, each link's derivative columns placed in its endpoints'
agent blocks, and normal_equations forms J^T J and J^T r from it: the
reference for LsProblem.normal_equations, which never forms J.
TwoPassProblem hands an LsProblem to the LM with its normal equations
evaluated afresh at the rows that go on: two link-geometry passes a round.
levenberg_marquardt solves one problem at a time with its own Python loop
on that dense Jacobian, into a 0-d StackedSolve with its stop reason, and
random_restarts_per_agent drives it through
the per-agent decomposition of a non-cooperative problem.  position_bound inverts the
information matrix through a full eigendecomposition.
sample_topology_per_agent is the topology sampler that draws, converts and
checks one agent orientation at a time, with the scalar quaternion, norm
and Euler formulas written out, and check_topology_per_pair validates a
topology with one room test per node and one distance per agent pair,
agent-anchor pair and anchor pair.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import fields
from enum import Enum

import numpy as np
from scipy.linalg import expm

from miloc.crlb import FIM_MAX_CONDITION, FisherInfo, SingularFim, peb
from miloc.estimators import (
    LM_COST_TOL,
    LM_INITIAL_DAMPING,
    LM_MAX_DAMPING,
    LM_MAX_ITERATIONS,
    LM_STEP_TOL,
    LsProblem,
    StackedSolve,
    StopReason,
)
from miloc.channel import channel_derivative_columns, channel_gain_batch
from miloc.geometry import Deployment, euler_to_rotation, rotation_to_euler, sample_uniform_rotation
from miloc.pairml import (
    COST_RATIO_DECISIVE,
    DEFAULT_BOUNDARY_MARGIN,
    DEGENERATE_SV_TOL,
    DIRECTION_GAP_TOL,
    decompose_links,
    ml_distance,
)


def dipole_factor(u: np.ndarray) -> np.ndarray:
    """F(u) = 1.5 u u^T - 0.5 I for a unit direction u.

    F has eigenvalues {1, -1/2, -1/2} and satisfies F(u) = F(-u), which is
    the root cause of the single-link sign ambiguity.
    """
    u = np.asarray(u, dtype=float)
    return 1.5 * np.outer(u, u) - 0.5 * np.eye(3)


def constrained_dipole_fit(svd) -> np.ndarray:
    """ML estimate of the dipole factor of one link, V diag(1, -1/2, -1/2) V^T."""
    return svd.v @ np.diag([1.0, -0.5, -0.5]) @ svd.v.T


def cross_matrix(v) -> np.ndarray:
    """[v]x, the matrix of w -> v x w."""
    x, y, z = np.asarray(v, dtype=float)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def skew_stacked(v) -> np.ndarray:
    """[v]x of a (..., 3) array as the nine entries stacked on a new last axis, (..., 3, 3)."""
    v = np.asarray(v, dtype=float)
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    zero = np.zeros_like(x)
    return np.stack([zero, -z, y, z, zero, -x, -y, x, zero], axis=-1).reshape(v.shape + (3,))


def exp_rotation_sinc(phi) -> np.ndarray:
    """exp([phi]x), (..., 3, 3), by Rodrigues' formula with np.sinc's coefficients."""
    k = skew_stacked(phi)
    t = np.sqrt(np.sum(np.asarray(phi, dtype=float) ** 2, axis=-1))[..., None, None]
    return np.eye(3) + np.sinc(t / np.pi) * k + 0.5 * np.sinc(t / (2 * np.pi)) ** 2 * (k @ k)


def endpoint_columns_3x3(r, u, gains, o_tx, o_rx, coupling):
    """Transmitter and receiver derivative columns, (L, 6, 3, 3) each, one 3x3 product at a time.

    dF/d[p_tx]_i is formed with the links first, and every column is its own
    batched 3x3 matrix product: O_rx^T dF_i O_tx, G [e_i]x and [e_i]x G.
    """
    generators = skew_stacked(np.eye(3))
    scale = (np.asarray(coupling, dtype=float) / r**3)[:, None, None, None]
    w = (u[:, :, None] * u[:, None, :] - np.eye(3)) / r[:, None, None]
    df = 1.5 * (u[:, None, :, None] * w[:, :, None, :] + w[:, :, :, None] * u[:, None, None, :])
    spatial = scale * (np.swapaxes(o_rx, 1, 2)[:, None] @ df @ o_tx[:, None])
    spatial += (3.0 * u / r[:, None])[:, :, None, None] * gains[:, None]
    tx = np.concatenate([spatial, gains[:, None] @ generators], axis=1)
    return tx, np.concatenate([-spatial, -(generators @ gains[:, None])], axis=1)


def deployment_from_euler(position, euler) -> Deployment:
    """The Deployment of a position and z-y-x Euler angles, its rotation from the library."""
    e = np.asarray(euler, dtype=float)
    return Deployment(np.asarray(position, dtype=float), e, euler_to_rotation(e))


def deployment_from_rotation(position, rotation) -> Deployment:
    """The Deployment of a position and a rotation matrix, its Euler angles canonical."""
    r = np.asarray(rotation, dtype=float)
    return Deployment(np.asarray(position, dtype=float), rotation_to_euler(r), r)


def retracted(deployment: Deployment, step) -> Deployment:
    """The deployment moved by step = [dp, phi]: position + dp, rotation expm([phi]x)."""
    step = np.asarray(step, dtype=float)
    return deployment_from_rotation(
        deployment.position + step[:3], deployment.rotation @ expm(cross_matrix(step[3:]))
    )


def euler_to_rotation_one(euler) -> np.ndarray:
    """Rz(alpha) @ Ry(beta) @ Rx(gamma) of one z-y-x angle triple, as a product of axis turns."""
    alpha, beta, gamma = np.asarray(euler, dtype=float)
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    cg, sg = np.cos(gamma), np.sin(gamma)
    rz = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cb, 0.0, sb], [0.0, 1.0, 0.0], [-sb, 0.0, cb]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cg, -sg], [0.0, sg, cg]])
    return rz @ ry @ rx


def rotation_angle(ra: np.ndarray, rb: np.ndarray) -> float:
    """Geodesic angle in radians between two rotations."""
    cos_val = (np.trace(ra.T @ rb) - 1.0) / 2.0
    return float(np.arccos(np.clip(cos_val, -1.0, 1.0)))


def candidate_cost(position, rotation, y_imag, anchors, coupling: float) -> float:
    """Residual cost of a candidate agent pose over its anchor links, one link at a time."""
    cost = 0.0
    for measured, anchor in zip(y_imag, anchors):
        rvec = anchor.position - position
        r = np.linalg.norm(rvec)
        if r < 1e-9:
            return np.inf
        model = coupling / r**3 * (anchor.rotation.T @ dipole_factor(rvec / r) @ rotation)
        diff = measured - model
        cost += float(np.sum(diff * diff))
    return cost


def split_poses(rows: np.ndarray):
    """Positions (..., M, 3) and rotations (..., M, 3, 3) of pose rows (..., 12M), as join_poses."""
    rows = np.asarray(rows, dtype=float)
    poses = rows.reshape(rows.shape[:-1] + (rows.shape[-1] // 12, 12))
    return poses[..., :3], poses[..., 3:].reshape(poses.shape[:-1] + (3, 3))


def residual_and_jacobian(problem: LsProblem, theta, index=None):
    """Residual (..., 9L) and dense Jacobian (..., 9L, 6M) of problem at pose rows theta (..., 12M).

    Every link's transmitter columns go to its agent's block, and its
    receiver columns too when the receiver is an agent; index is as for
    problem.residual.
    """
    theta = np.asarray(theta, dtype=float)
    agent_p, agent_o = split_poses(theta)
    batch, m = agent_p.shape[:-2], problem.n_agents
    positions = np.concatenate(
        [agent_p, np.broadcast_to(problem.anchor_positions, batch + problem.anchor_positions.shape)],
        axis=-2,
    )
    rotations = np.concatenate(
        [agent_o, np.broadcast_to(problem.anchor_rotations, batch + problem.anchor_rotations.shape)],
        axis=-3,
    )
    tx, rx = problem.links[:, 0], problem.links[:, 1]
    o_tx, o_rx = rotations[..., tx, :, :].reshape(-1, 3, 3), rotations[..., rx, :, :].reshape(-1, 3, 3)
    gains, r, u, f = channel_gain_batch(
        positions[..., tx, :].reshape(-1, 3), o_tx, positions[..., rx, :].reshape(-1, 3), o_rx,
        problem.coupling,
    )
    cols = channel_derivative_columns(r, u, f, gains, o_tx, o_rx, problem.coupling)
    cols = cols.reshape(-1, len(tx), 9, 12)
    jac = np.zeros((len(cols), len(tx), 9, m, 6))
    for link, (t, s) in enumerate(problem.links):
        jac[:, link, :, t] = -cols[:, link, :, :6]
        if s < m:
            jac[:, link, :, s] = -cols[:, link, :, 6:]
    jac = jac.reshape(batch + (9 * len(tx), 6 * m))
    return problem.residual(theta, index), jac


def normal_equations(residual: np.ndarray, jac: np.ndarray):
    """(residual, J^T J, J^T r) of residual rows (..., R) and their Jacobian (..., R, P)."""
    jac_t = np.swapaxes(jac, -1, -2)
    return residual, jac_t @ jac, (jac_t @ residual[..., None])[..., 0]


class TwoPassProblem:
    """An LsProblem stack whose normal equations the LM evaluates afresh from the pose rows.

    evaluate keeps only the rows and their problems, and normal_slices
    calls problem.normal_equations on the rows that go on: one link
    geometry pass for the trial residual and one for the sums.
    """

    def __init__(self, problem: LsProblem):
        self.problem = problem

    def evaluate(self, x, index):
        return self.problem.residual(x, index), (x, index)

    def normal_slices(self, point, rows):
        x, index = point
        yield (slice(None),) + self.problem.normal_equations(x[rows], index[rows])[1:]

    def retract(self, x, step):
        return self.problem.retract(x, step)


def _solved(x, cost, iteration, singular, reason) -> StackedSolve:
    """The 0-d StackedSolve of one problem."""
    return StackedSolve(
        x, np.array(cost), np.array(iteration), np.array(singular), np.array(reason, dtype=np.int8)
    )


def levenberg_marquardt(problem, x0: np.ndarray) -> StackedSolve:
    """One problem at a time: problem.residual(x), residual_and_jacobian(problem, x), retract(x, step).

    x is one 1-d pose row of an LsProblem; the result is a 0-d StackedSolve.

    The classic Marquardt schedule: lambda times 10 on every rejected step,
    divided by 10 after an accepted one; termination on a small step, a small
    relative cost decrease, the iteration budget or the damping ceiling.
    """
    x = np.asarray(x0, dtype=float).copy()
    residual, jac = residual_and_jacobian(problem, x)
    cost = float(residual @ residual)
    lam = LM_INITIAL_DAMPING
    singular = False

    for iteration in range(1, LM_MAX_ITERATIONS + 1):
        jtj = jac.T @ jac
        gradient = jac.T @ residual
        damping_scale = np.maximum(np.diag(jtj), 1e-30)
        accepted = False
        while lam <= LM_MAX_DAMPING:
            try:
                step = np.linalg.solve(jtj + lam * np.diag(damping_scale), -gradient)
            except np.linalg.LinAlgError:
                singular = True
                lam *= 10.0
                continue
            if not np.all(np.isfinite(step)):
                singular = True
                lam *= 10.0
                continue
            trial = problem.retract(x, step)
            trial_res = problem.residual(trial)
            trial_cost = float(trial_res @ trial_res)
            if trial_cost <= cost:
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            return _solved(x, cost, iteration, singular, StopReason.DAMPING_CEILING)

        decrease = cost - trial_cost
        x = trial
        cost = trial_cost
        lam = max(lam / 10.0, 1e-15)
        if np.linalg.norm(step) < LM_STEP_TOL:
            return _solved(x, cost, iteration, singular, StopReason.STEP_TOL)
        if decrease <= LM_COST_TOL * max(cost, 1e-300):
            return _solved(x, cost, iteration, singular, StopReason.COST_TOL)
        residual, jac = residual_and_jacobian(problem, x)

    return _solved(x, cost, LM_MAX_ITERATIONS, singular, StopReason.MAX_ITERATIONS)


def agent_problem(problem: LsProblem, agent: int) -> LsProblem:
    """Single-agent problem over one agent's anchor links."""
    rows = np.where(
        (problem.links[:, 0] == agent) & (problem.links[:, 1] >= problem.n_agents)
    )[0]
    links = problem.links[rows].copy()
    links[:, 0] = 0
    links[:, 1] -= problem.n_agents - 1
    return LsProblem(
        n_agents=1,
        anchor_positions=problem.anchor_positions,
        anchor_rotations=problem.anchor_rotations,
        links=links,
        y_imag=problem.y_imag[rows],
        coupling=problem.coupling,
    )


def random_restarts_per_agent(problem: LsProblem, restarts: int, room, rng):
    """Non-cooperative random restarts agent by agent, one LM solve each.

    Returns (solve, starts, picks): the (M,) StackedSolve of every agent's
    chosen restart (lowest final cost, first on ties), the (M, restarts, 12)
    starts in drawing order and the chosen restarts.
    """
    solves, starts, picks = [], [], []
    for agent in range(problem.n_agents):
        sub = agent_problem(problem, agent)
        best, pick, agent_starts = None, 0, []
        for restart in range(restarts):
            position = room.sample_point(rng)
            x0 = np.hstack([position, sample_uniform_rotation(rng).ravel()])
            agent_starts.append(x0)
            solve = levenberg_marquardt(sub, x0)
            if best is None or solve.final_cost < best.final_cost:
                best, pick = solve, restart
        solves.append(best)
        starts.append(agent_starts)
        picks.append(pick)
    joint = StackedSolve(
        *(np.stack([getattr(s, f.name) for s in solves]) for f in fields(StackedSolve))
    )
    return joint, np.array(starts), picks


def peb_all(info: FisherInfo) -> np.ndarray:
    """Position error bounds of every agent of one information matrix, agent by agent."""
    return np.array([peb(info, agent) for agent in range(info.n_agents)])


def position_bound(matrix: np.ndarray, agent: int) -> float:
    """PEB of one agent from the full eigendecomposition of the information matrix."""
    eigvals, eigvecs = np.linalg.eigh(matrix)
    scale = float(eigvals[-1])
    if scale <= 0.0 or eigvals[0] <= 0.0 or scale / eigvals[0] > FIM_MAX_CONDITION:
        raise SingularFim("singular information matrix", eigvecs[:, 0])
    inverse = (eigvecs / eigvals) @ eigvecs.T
    sl = slice(6 * agent, 6 * agent + 3)
    return float(np.sqrt(np.trace(inverse[sl, sl])))


def _link_geometry(tx: Deployment, rx: Deployment):
    rvec = rx.position - tx.position
    r = float(np.linalg.norm(rvec))
    return r, rvec / r


def channel_gain(tx: Deployment, rx: Deployment, coupling: float) -> np.ndarray:
    """Im(H) of one link, (c / r**3) O_rx^T F(u) O_tx, from 3x3 products."""
    r, u = _link_geometry(tx, rx)
    return coupling / r**3 * (rx.rotation.T @ dipole_factor(u) @ tx.rotation)


def channel_jacobian(tx: Deployment, rx: Deployment, coupling: float):
    """Analytic derivatives of the channel matrix w.r.t. the transmitter pose.

    Returns:
        (d_pos, d_ori): two complex arrays of shape (3, 3, 3); d_pos[i] is
        dH/d[p_tx]_i and d_ori[i] is dH/d[phi_tx]_i for the local rotation
        O_tx expm([phi]x) of the transmitter.

    With rvec = p_rx - p_tx the spatial chain rule gives
        du/d[p_tx]_i   = -(e_i - u_i u) / r,
        d(r^-3)/d[p_tx]_i = 3 u_i / r^4.
    """
    r, u = _link_geometry(tx, rx)
    f = dipole_factor(u)
    eye = np.eye(3)
    d_pos = np.empty((3, 3, 3), dtype=complex)
    for i in range(3):
        w = -(eye[i] - u[i] * u) / r
        df = 1.5 * (np.outer(u, w) + np.outer(w, u))
        d_pos[i] = 1j * coupling * (rx.rotation.T @ (df / r**3 + 3.0 * u[i] / r**4 * f) @ tx.rotation)
    d_ori = np.empty((3, 3, 3), dtype=complex)
    for i in range(3):
        d_rot = tx.rotation @ cross_matrix(eye[i])
        d_ori[i] = 1j * coupling / r**3 * (rx.rotation.T @ f @ d_rot)
    return d_pos, d_ori


def channel_jacobian_rx(tx: Deployment, rx: Deployment, coupling: float):
    """Derivatives of the same link w.r.t. the receiver pose.

    The channel depends on positions only through rvec = p_rx - p_tx, so the
    spatial part is the negated transmitter derivative; the orientation part
    differentiates the left factor O_rx^T along O_rx expm([phi]x).
    """
    r, u = _link_geometry(tx, rx)
    f = dipole_factor(u)
    d_pos_tx, _ = channel_jacobian(tx, rx, coupling)
    d_ori = np.empty((3, 3, 3), dtype=complex)
    for i in range(3):
        d_rot = rx.rotation @ cross_matrix(np.eye(3)[i])
        d_ori[i] = 1j * coupling / r**3 * (d_rot.T @ f @ tx.rotation)
    return -d_pos_tx, d_ori


def derivative_columns(jacobian) -> np.ndarray:
    """(9, 6) stacked imaginary-part columns of a (d_pos, d_ori) pair."""
    d_pos, d_ori = jacobian
    cols = [np.imag(d_pos[i]).ravel() for i in range(3)]
    cols += [np.imag(d_ori[i]).ravel() for i in range(3)]
    return np.array(cols).T


def link_information(
    tx: Deployment, rx: Deployment, coupling: float, sigma: float, rx_is_agent: bool
):
    """Information blocks of one measured link.

    Returns:
        (tx_block, rx_block, cross_block): 6x6 arrays; the receiver and cross
        blocks are None for anchor receivers.
    """
    g_tx = derivative_columns(channel_jacobian(tx, rx, coupling))
    weight = 2.0 / sigma**2
    tx_block = weight * (g_tx.T @ g_tx)
    if not rx_is_agent:
        return tx_block, None, None
    g_rx = derivative_columns(channel_jacobian_rx(tx, rx, coupling))
    return tx_block, weight * (g_rx.T @ g_rx), weight * (g_tx.T @ g_rx)


def fim_block(agent: Deployment, others, anchors, coupling: float, sigma: float):
    """Anchor-link and inter-agent diagonal blocks of one agent.

    others and anchors are sequences of Deployment; inter-agent information
    counts both ordered measurements of every pair the agent participates in.
    """
    anchor_block = np.zeros((6, 6))
    for anchor in anchors:
        blk, _, _ = link_information(agent, anchor, coupling, sigma, rx_is_agent=False)
        anchor_block += blk
    inter_block = np.zeros((6, 6))
    for other in others:
        tx_blk, _, _ = link_information(agent, other, coupling, sigma, rx_is_agent=True)
        _, rx_blk, _ = link_information(other, agent, coupling, sigma, rx_is_agent=True)
        inter_block += tx_blk + rx_blk
    return anchor_block, inter_block


def _quaternion_rotation_one(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def rotation_to_euler_one(m: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    orthogonal = np.abs(m.T @ m - np.eye(3)).max() <= tol
    if not (orthogonal and abs(np.linalg.det(m) - 1.0) <= tol):
        raise ValueError("input is not a proper rotation matrix")
    beta = np.arcsin(-np.clip(m[2, 0], -1.0, 1.0))
    if abs(np.cos(beta)) > 1e-9:
        alpha = np.arctan2(m[1, 0], m[0, 0])
        gamma = np.arctan2(m[2, 1], m[2, 2])
    else:
        alpha = np.arctan2(-m[0, 1], m[1, 1])
        gamma = 0.0
    return np.array([alpha, beta, gamma])


def sample_topology_per_agent(n_agents: int, room, anchors, min_distance: float, rng):
    """Agent positions (M, 3), Euler angles (M, 3) and rotations (M, 3, 3).

    The same rejection draw as scenario.sample_topology; once a placement is
    accepted each agent draws its own quaternion, normalized by its
    Euclidean norm, and converts it to a rotation and Euler angles alone.
    """
    anchor_pos = np.stack([a.position for a in anchors]) if len(anchors) else np.zeros((0, 3))
    while True:
        positions = rng.uniform(room.min_corner, room.max_corner, size=(n_agents, 3))
        if n_agents > 1:
            d_aa = np.linalg.norm(positions[:, None] - positions[None], axis=-1)
            d_aa[np.diag_indices(n_agents)] = np.inf
            if d_aa.min() < min_distance:
                continue
        if len(anchor_pos):
            d_an = np.linalg.norm(positions[:, None] - anchor_pos[None], axis=-1)
            if d_an.min() < min_distance:
                continue
        rotations = []
        for _ in range(n_agents):
            q = rng.standard_normal(4)
            rotations.append(_quaternion_rotation_one(q / np.linalg.norm(q)))
        eulers = [rotation_to_euler_one(r) for r in rotations]
        return positions, np.array(eulers).reshape(-1, 3), np.array(rotations).reshape(-1, 3, 3)


def check_topology_per_pair(topology, min_distance: float):
    """The violations scenario.check_topology lists, found pair by pair in Python loops."""
    problems = []
    for i, agent in enumerate(topology.agents):
        if not topology.room.contains(agent.position):
            problems.append(f"agent {i} outside the room")
    for k, anchor in enumerate(topology.anchors):
        if not topology.room.contains(anchor.position):
            problems.append(f"anchor {k} outside the room")
    positions = [a.position for a in topology.agents]
    for i in range(len(positions)):
        for j in range(i + 1, len(positions)):
            d = np.linalg.norm(positions[i] - positions[j])
            if d < min_distance:
                problems.append(f"agents {i},{j} distance {d:.4f} below minimum")
        for k, anchor in enumerate(topology.anchors):
            d = np.linalg.norm(positions[i] - anchor.position)
            if d < min_distance:
                problems.append(f"agent {i} anchor {k} distance {d:.4f} below minimum")
    anchors = [a.position for a in topology.anchors]
    for k in range(len(anchors)):
        for n in range(k + 1, len(anchors)):
            d = np.linalg.norm(anchors[k] - anchors[n])
            if d < min_distance:
                problems.append(f"anchors {k},{n} distance {d:.4f} below minimum")
    return problems


class DegenerateMeasurement(ValueError):
    """Imaginary part of the measurement is (numerically) zero."""


class AmbiguousDirection(ValueError):
    """Leading singular value is not isolated; direction undefined."""


class PositionValidity(Enum):
    UNIQUE_IN_ROOM = "unique"
    BOTH_IN_ROOM = "both"
    NONE_IN_ROOM = "none"


Svd = namedtuple("Svd", "s v")


def decompose_link(h_meas: np.ndarray, anchor: Deployment):
    """SVD, ML orientation and trace score of one link (pairml.decompose_links).

    Returns (svd, o_hat, z), svd holding the singular values s and the right
    singular vectors v (columns) with numpy's signs.

    Raises:
        DegenerateMeasurement: all-zero imaginary part.
    """
    s, v, o_hat, z = decompose_links(np.imag(h_meas), anchor.rotation)
    if s[0] < DEGENERATE_SV_TOL:
        raise DegenerateMeasurement("measurement has no imaginary content")
    return Svd(s, v), o_hat, float(z)


def direction_estimate(svd: Svd) -> np.ndarray:
    """Unit direction estimate of one link: the leading right singular vector, sign-free.

    Raises:
        AmbiguousDirection: s1 - s2 below tolerance, no unique principal
        direction.
    """
    if svd.s[0] - svd.s[1] < DIRECTION_GAP_TOL * svd.s[0]:
        raise AmbiguousDirection("leading singular value is not isolated")
    return svd.v[:, 0].copy()


def resolve_position(anchor_position, direction, distance: float, room, margin: float = 0.0):
    """The two candidates anchor +- direction * distance and their room test.

    Returns:
        (candidates, chosen, validity): chosen is set iff exactly one
        candidate lies inside the (margin-inflated) room.
    """
    step = np.asarray(direction, dtype=float) * distance
    candidates = np.array([anchor_position + step, anchor_position - step])
    inside = [room.contains(c, margin) for c in candidates]
    if sum(inside) == 1:
        return candidates, candidates[inside.index(True)], PositionValidity.UNIQUE_IN_ROOM
    if all(inside):
        return candidates, None, PositionValidity.BOTH_IN_ROOM
    return candidates, None, PositionValidity.NONE_IN_ROOM


def _candidate_cost(alone, index: int, position, rotation) -> float:
    """Residual cost of a candidate pose of problem index of the one-agent stack alone."""
    residual = alone.residual(np.concatenate([position, rotation.ravel()]), [index])
    cost = float(np.sum(residual**2))
    return cost if np.isfinite(cost) else np.inf  # NaN at a candidate on an anchor


def _resolve_agent(alone, index, links, candidates, inside, rotations, room):
    """The deciding link, position and branch of agent index of alone, visiting links in order."""
    for k in links:
        if inside[k].sum() == 1:
            return k, candidates[k, np.argmax(inside[k])], "unique"
        costs = [_candidate_cost(alone, index, cand, rotations[k]) for cand in candidates[k]]
        low, high = sorted(costs)
        if low > 0.0 and high / low >= COST_RATIO_DECISIVE:
            return k, candidates[k, int(np.argmin(costs))], "anchor" if high == np.inf else "cost"

    k = links[0]
    if inside[k].all():
        dist_to_center = np.linalg.norm(candidates[k] - room.center, axis=1)
        return k, candidates[k, int(np.argmin(dist_to_center))], "inside"
    overshoot = [np.linalg.norm(room.clamp(c) - c) for c in candidates[k]]
    return k, room.clamp(candidates[k, int(np.argmin(overshoot))]), "outside"


def pair_ml_per_agent(alone, room):
    """pairml.pair_ml_estimate deciding one agent at a time, and the branch each agent took.

    The links are decomposed, ranged and given their candidates as in the
    library; then each agent visits its usable links by ascending distance,
    scoring a link's two candidates (one residual call each) only when it
    reaches them.  branches[m] is "unique" (one candidate in the room),
    "cost" (a decisive cost ratio), "anchor" (a cost decision against a
    candidate on an anchor), "inside" or "outside" (the fallbacks, both
    candidates in the room or neither).

    Returns (positions (n, 3), rotations (n, 3, 3), branches).
    """
    s, v, o_hat, z = decompose_links(alone.y_imag, alone.anchor_rotations)
    usable = (s[..., 0] >= DEGENERATE_SV_TOL) & (z > 0.0)
    usable &= s[..., 0] - s[..., 1] >= DIRECTION_GAP_TOL * s[..., 0]
    distances = np.zeros(z.shape)
    distances[usable] = ml_distance(z[usable], alone.coupling)
    step = v[..., 0] * distances[..., None]
    candidates = np.stack([alone.anchor_positions + step, alone.anchor_positions - step], axis=-2)
    inside = room.contains(candidates, DEFAULT_BOUNDARY_MARGIN)
    order = np.argsort(np.where(usable, distances, np.inf), axis=-1, kind="stable")
    positions, rotations, branches = np.empty((len(z), 3)), np.empty((len(z), 3, 3)), []
    for m in range(len(z)):
        links = order[m, : usable[m].sum()]
        link, positions[m], branch = _resolve_agent(
            alone, m, links, candidates[m], inside[m], o_hat[m], room
        )
        rotations[m] = o_hat[m, link]
        branches.append(branch)
    return positions, rotations, branches
