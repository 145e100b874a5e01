"""Single-link reference implementations the batched library code is checked against.

channel_gain writes the dipole model out for one link.  The channel
Jacobians differentiate one link with explicit per-axis loops;
test_channel validates them against central finite differences of
channel_matrix.  The information blocks built from them give the per-link,
per-pair assembly of the Fisher matrix, which the library computes as
(2 / sigma**2) J^T J.
"""

from __future__ import annotations

import numpy as np

from miloc.channel import dipole_factor
from miloc.geometry import Deployment, euler_rotation_derivatives


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
