"""Reference implementations the batched library code is checked against.

dipole_factor is the single-link F(u) of the channel model, and
constrained_dipole_fit the full ML dipole-factor estimate of pair-ML, whose
principal eigenvector is the library's direction estimate.  channel_gain
writes the dipole model out for one link.  The channel Jacobians
differentiate one link with explicit per-axis loops; test_channel validates
them against central finite differences of channel_matrix.  The information blocks built from them give the per-link,
per-pair assembly of the Fisher matrix, which the library computes as
(2 / sigma**2) J^T J.  euler_rotation_derivatives_one is the one-angle-triple
formula the stacked derivatives are checked against.  candidate_cost
scores a pair-ML candidate pose link by link.  levenberg_marquardt
solves one problem at a time with its own Python loop, and
random_restarts_per_agent drives it through the per-agent decomposition of
a non-cooperative problem.  position_bound inverts the information matrix
through a full eigendecomposition.
"""

from __future__ import annotations

import numpy as np

from miloc.crlb import FIM_MAX_CONDITION, SingularFim
from miloc.estimators import (
    LM_COST_TOL,
    LM_INITIAL_DAMPING,
    LM_MAX_DAMPING,
    LM_MAX_ITERATIONS,
    LM_STEP_TOL,
    LsProblem,
    SolveReport,
)
from miloc.geometry import (
    Deployment,
    euler_rotation_derivatives,
    rot_x,
    rot_y,
    rot_z,
    rotation_to_euler,
    sample_uniform_rotation,
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


def euler_rotation_derivatives_one(euler) -> np.ndarray:
    """dR/d(angle_i) of one z-y-x angle triple, shape (3, 3, 3)."""
    alpha, beta, gamma = np.asarray(euler, dtype=float)
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    cg, sg = np.cos(gamma), np.sin(gamma)
    dz = np.array([[-sa, -ca, 0.0], [ca, -sa, 0.0], [0.0, 0.0, 0.0]])
    dy = np.array([[-sb, 0.0, cb], [0.0, 0.0, 0.0], [-cb, 0.0, -sb]])
    dx = np.array([[0.0, 0.0, 0.0], [0.0, -sg, -cg], [0.0, cg, -sg]])
    ry, rx, rz = rot_y(beta), rot_x(gamma), rot_z(alpha)
    return np.stack([dz @ ry @ rx, rz @ dy @ rx, rz @ ry @ dx])


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


def levenberg_marquardt(
    problem,
    x0: np.ndarray,
    max_iterations: int = LM_MAX_ITERATIONS,
    step_tol: float = LM_STEP_TOL,
    cost_tol: float = LM_COST_TOL,
    initial_damping: float = LM_INITIAL_DAMPING,
    max_damping: float = LM_MAX_DAMPING,
) -> SolveReport:
    """One problem at a time: problem.residual(x) and residual_and_jacobian(x) on a 1-d x.

    The classic Marquardt schedule: lambda times 10 on every rejected step,
    divided by 10 after an accepted one; termination on a small step, a small
    relative cost decrease, the iteration budget or the damping ceiling.
    """
    x = np.asarray(x0, dtype=float).copy()
    residual, jac = problem.residual_and_jacobian(x)
    cost = float(residual @ residual)
    lam = initial_damping
    singular = False

    for iteration in range(1, max_iterations + 1):
        jtj = jac.T @ jac
        gradient = jac.T @ residual
        damping_scale = np.maximum(np.diag(jtj), 1e-30)
        accepted = False
        while lam <= max_damping:
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
            trial = x + step
            trial_res = problem.residual(trial)
            trial_cost = float(trial_res @ trial_res)
            if trial_cost <= cost:
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            return SolveReport(x, cost, iteration, False, normal_equations_singular=singular)

        decrease = cost - trial_cost
        x = trial
        cost = trial_cost
        lam = max(lam / 10.0, 1e-15)
        if np.linalg.norm(step) < step_tol or decrease <= cost_tol * max(cost, 1e-300):
            return SolveReport(x, cost, iteration, True, normal_equations_singular=singular)
        residual, jac = problem.residual_and_jacobian(x)

    return SolveReport(x, cost, max_iterations, False, normal_equations_singular=singular)


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

    Returns (report, starts, picks): the joint report, the (M, restarts, 6)
    starts in drawing order and the chosen restart of every agent (lowest
    final cost, first on ties).
    """
    reports, starts, picks = [], [], []
    for agent in range(problem.n_agents):
        sub = agent_problem(problem, agent)
        best, pick, agent_starts = None, 0, []
        for restart in range(restarts):
            position = room.sample_point(rng)
            x0 = np.hstack([position, rotation_to_euler(sample_uniform_rotation(rng))])
            agent_starts.append(x0)
            report = levenberg_marquardt(sub, x0)
            if best is None or report.final_cost < best.final_cost:
                best, pick = report, restart
        reports.append(best)
        starts.append(agent_starts)
        picks.append(pick)
    joint = SolveReport(
        estimate=np.hstack([r.estimate for r in reports]),
        final_cost=float(sum(r.final_cost for r in reports)),
        iterations=max(r.iterations for r in reports),
        converged=all(r.converged for r in reports),
        initializations_used=restarts,
        normal_equations_singular=any(r.normal_equations_singular for r in reports),
    )
    return joint, np.array(starts), picks


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
        dH/d[p_tx]_i and d_ori[i] is dH/d[angle_tx]_i for the z-y-x Euler
        angles of the transmitter.

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
    d_rot = euler_rotation_derivatives(tx.euler)
    d_ori = np.empty((3, 3, 3), dtype=complex)
    for i in range(3):
        d_ori[i] = 1j * coupling / r**3 * (rx.rotation.T @ f @ d_rot[i])
    return d_pos, d_ori


def channel_jacobian_rx(tx: Deployment, rx: Deployment, coupling: float):
    """Derivatives of the same link w.r.t. the receiver pose.

    The channel depends on positions only through rvec = p_rx - p_tx, so the
    spatial part is the negated transmitter derivative; the orientation part
    differentiates the left factor O_rx^T.
    """
    r, u = _link_geometry(tx, rx)
    f = dipole_factor(u)
    d_pos_tx, _ = channel_jacobian(tx, rx, coupling)
    d_rot = euler_rotation_derivatives(rx.euler)
    d_ori = np.empty((3, 3, 3), dtype=complex)
    for i in range(3):
        d_ori[i] = 1j * coupling / r**3 * (d_rot[i].T @ f @ tx.rotation)
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
