"""Magneto-inductive channel model for pairs of three-axis coils.

A transmitting node m and a receiving node n, each carrying three mutually
orthogonal subcoils, are weakly coupled through the near field.  In the dipole
approximation the 3x3 channel matrix between the subcoil pairs is

    H = (j * c / r**3) * O_rx^T @ F(u) @ O_tx,
    F(u) = 1.5 * u u^T - 0.5 * I,

where r is the node distance, u the unit direction from transmitter to
receiver, O_* the node orientation matrices and c a coupling constant set by
the coil hardware.  H is purely imaginary; measurements add circularly
symmetric complex Gaussian noise per entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Deployment

VACUUM_PERMEABILITY = 4e-7 * np.pi  # H/m

MIN_NODE_DISTANCE = 1e-9  # m; below this the dipole model blows up


class CoincidentNodes(ValueError):
    """Raised when transmitter and receiver (nearly) coincide."""


@dataclass(frozen=True)
class CoilParams:
    """Per-node subcoil constants; all three subcoils of a node are equal.

    Attributes:
        turns: number of wire windings.
        diameter: coil diameter in meters.
        resistance: ohmic loss per subcoil in Ohm.
    """

    turns: int
    diameter: float
    resistance: float

    def __post_init__(self):
        if self.turns <= 0 or self.diameter <= 0 or self.resistance <= 0:
            raise ValueError("coil parameters must be positive")

    @property
    def area(self) -> float:
        """Surface area in m^2, consistent with the diameter by construction."""
        return np.pi * (self.diameter / 2.0) ** 2


@dataclass(frozen=True)
class GlobalParams:
    """System-wide constants: operating frequency, permeability, error level."""

    frequency: float = 500e3
    permeability: float = VACUUM_PERMEABILITY
    noise_sigma: float = 1e-5

    def __post_init__(self):
        if self.frequency <= 0 or self.permeability <= 0 or self.noise_sigma < 0:
            raise ValueError("frequency and permeability must be positive, sigma >= 0")


@dataclass(frozen=True)
class LinkMeasurement:
    """One measured 3x3 channel matrix for an ordered (tx, rx) node pair."""

    tx: int
    rx: int
    h_meas: np.ndarray


def coupling_coefficient(tx: CoilParams, rx: CoilParams, params: GlobalParams) -> float:
    """Scalar coupling constant of a subcoil pair.

    c = mu * A_rx * A_tx * nu_rx * nu_tx * f / sqrt(4 * R_rx * R_tx)
    """
    return (
        params.permeability
        * tx.area
        * rx.area
        * tx.turns
        * rx.turns
        * params.frequency
        / np.sqrt(4.0 * tx.resistance * rx.resistance)
    )


def channel_matrix(tx: Deployment, rx: Deployment, coupling: float) -> np.ndarray:
    """Noiseless complex 3x3 channel matrix of the ordered link tx -> rx.

    Rows index receiver subcoils, columns transmitter subcoils.  The result
    is purely imaginary; it is the one-link case of channel_gain_batch, so
    single-link and batched evaluations agree bit for bit.
    """
    gains, *_ = channel_gain_batch(
        tx.position[None], tx.rotation[None], rx.position[None], rx.rotation[None], coupling
    )
    return 1j * gains[0]


def add_noise(h: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Add i.i.d. circularly symmetric complex Gaussian errors.

    h is one 3x3 matrix or a (..., 3, 3) stack.  Each entry receives total
    variance sigma**2, i.e. sigma**2 / 2 per real dimension; each matrix
    draws its nine real parts, then its nine imaginary parts, so a stack
    consumes the generator exactly like one call per matrix in order.
    sigma = 0 returns the input unchanged.
    """
    h = np.asarray(h, dtype=complex)
    if sigma == 0.0:
        return h
    w = rng.standard_normal(h.shape[:-2] + (2, 3, 3))
    return h + (w[..., 0, :, :] + 1j * w[..., 1, :, :]) * (sigma / np.sqrt(2.0))


def channel_gain_batch(p_tx, o_tx, p_rx, o_rx, coupling):
    """Imaginary parts of H for stacked links.

    Args:
        p_tx, p_rx: (L, 3) positions; o_tx, o_rx: (L, 3, 3) orientations;
        coupling: scalar or (L,) couplings.
    Returns:
        (gains, r, u, f): gains (L, 3, 3) real, distances (L,), unit
        directions (L, 3) and dipole factors (L, 3, 3).
    Raises:
        CoincidentNodes: some link's endpoints (nearly) coincide.
    """
    rvec = p_rx - p_tx
    r = np.linalg.norm(rvec, axis=1)
    if np.any(r < MIN_NODE_DISTANCE):
        raise CoincidentNodes(f"node distance below {MIN_NODE_DISTANCE} m")
    u = rvec / r[:, None]
    f = 1.5 * u[:, :, None] * u[:, None, :] - 0.5 * np.eye(3)
    scale = np.asarray(coupling, dtype=float) / r**3
    gains = scale[:, None, None] * (np.swapaxes(o_rx, 1, 2) @ f @ o_tx)
    return gains, r, u, f


def channel_derivative_columns(r, u, f, gains, o_tx, o_rx, d_rot_tx, d_rot_rx, coupling):
    """Derivative columns of Im(H) w.r.t. both endpoints' poses.

    Inputs are the stacked quantities returned by channel_gain_batch plus the
    Euler-derivative stacks d_rot_tx, d_rot_rx of shape (L, 3, 3, 3).
    Returns an (L, 9, 12) array whose column k holds vec(d Im H / d theta_k)
    for theta = [p_tx, euler_tx, p_rx, euler_rx].

    With rvec = p_rx - p_tx the spatial chain rule gives
        du/d[p_tx]_i      = -(e_i - u_i u) / r,
        d(r^-3)/d[p_tx]_i = 3 u_i / r^4,
    and H depends on positions only through rvec, so the receiver position
    columns are the negated transmitter ones.
    """
    scale = (np.asarray(coupling, dtype=float) / r**3)[:, None, None, None]
    # w[l, i] = du/d[p_tx]_i and df[l, i] = dF/d[p_tx]_i
    w = (u[:, :, None] * u[:, None, :] - np.eye(3)) / r[:, None, None]
    df = 1.5 * (u[:, None, :, None] * w[:, :, None, :] + w[:, :, :, None] * u[:, None, None, :])
    o_rx_t = np.swapaxes(o_rx, 1, 2)[:, None]
    spatial = scale * (o_rx_t @ df @ o_tx[:, None]) + (
        3.0 * u / r[:, None]
    )[:, :, None, None] * gains[:, None]
    angular_tx = scale * ((o_rx_t @ f[:, None]) @ d_rot_tx)
    angular_rx = scale * (np.swapaxes(d_rot_rx, 2, 3) @ (f @ o_tx)[:, None])
    cols = np.concatenate([spatial, angular_tx, -spatial, angular_rx], axis=1)
    return cols.reshape(len(r), 12, 9).transpose(0, 2, 1)
