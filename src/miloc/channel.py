"""Magneto-inductive channel model for pairs of three-axis coils.

A transmitting node m and a receiving node n, each carrying three mutually
orthogonal subcoils, are weakly coupled through the near field.  In the dipole
approximation the 3x3 channel matrix between the subcoil pairs is

    H = (j * c / r**3) * O_rx^T @ F(u) @ O_tx,
    F(u) = 1.5 * u u^T - 0.5 * I,

where r is the node distance, u the unit direction from transmitter to
receiver, O_* the node orientation matrices and c a coupling constant set by
the coil hardware.  H is purely imaginary; measurements add circularly
symmetric complex Gaussian noise per entry.  Its derivatives are Jacobian rows
(jacobian_rows), a 9 x 6 block per link end, laid out as normal equations read them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Deployment, skew

VACUUM_PERMEABILITY = 4e-7 * np.pi  # H/m

MIN_NODE_DISTANCE = 1e-9  # m; below this the dipole model blows up

_IDENTITY = np.eye(3)
_HALF_IDENTITY = 0.5 * _IDENTITY
# [e_i]x for the three axes, (3, 3, 3): the generators of local rotations, and as
# one (3, 9) matrix whose column 3b + i is column b of [e_i]x: G times it is G [e_i]x in rows
_AXIS_GENERATORS = skew(_IDENTITY)
_GENERATOR_COLUMNS = np.ascontiguousarray(_AXIS_GENERATORS.transpose(1, 2, 0).reshape(3, 9))


class CoincidentNodes(ValueError):
    """Raised when the noiseless channel of (nearly) coincident nodes is asked for."""


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
    single-link and batched evaluations agree bit for bit.  Nodes closer
    than MIN_NODE_DISTANCE raise CoincidentNodes.
    """
    gains, r, *_ = channel_gain_batch(
        tx.position[None], tx.rotation[None], rx.position[None], rx.rotation[None], coupling
    )
    if np.isnan(r[0]):
        raise CoincidentNodes(f"node distance below {MIN_NODE_DISTANCE} m")
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
        directions (L, 3) and dipole factors (L, 3, 3).  All four are NaN for
        a link whose endpoints (nearly) coincide, closer than MIN_NODE_DISTANCE.
    """
    rvec = p_rx - p_tx
    r = np.sqrt(np.add.reduce(rvec * rvec, axis=1))  # np.linalg.norm(rvec, axis=1), bit for bit
    r[r < MIN_NODE_DISTANCE] = np.nan
    u = rvec / r[:, None]
    f = 1.5 * u[:, :, None] * u[:, None, :] - _HALF_IDENTITY
    scale = np.asarray(coupling, dtype=float) / r**3
    gains = scale[:, None, None] * (np.swapaxes(o_rx, 1, 2) @ f @ o_tx)
    return gains, r, u, f


def channel_derivative_columns(r, u, f, gains, o_tx, o_rx, coupling):
    """Derivative columns of Im(H) w.r.t. both endpoints' poses, (L, 9, 12).

    Column k holds vec(d Im H / d theta_k) for theta = [p_tx, phi_tx, p_rx, phi_rx]:
    the jacobian_rows of both ends of every link, side by side.
    """
    rows = jacobian_rows(r, u, gains, o_tx, o_rx, coupling, np.arange(len(r)))
    return np.concatenate(np.split(rows, 2), axis=2)


def jacobian_rows(r, u, gains, o_tx, o_rx, coupling, receivers):
    """Rows of d vec(Im H) / d theta, (L + K, 9, 6): every link's transmitter end, then receivers'.

    Inputs are those of channel_gain_batch; block L + k is the receiver end of link receivers[k].
    Row 3a + b of a block is entry (a, b) of H, and its columns are the end's position, then a
    local rotation O <- O exp([phi]x).  With rvec = p_rx - p_tx, du/d[p_tx]_i = -(e_i - u_i u) / r
    and d(r^-3)/d[p_tx]_i = 3 u_i / r^4; G is linear in O_tx, so the transmitter's rotation
    columns are G [e_i]x.  H depends on positions only through rvec and G is linear in O_rx^T,
    so a receiver's columns are the transmitter's spatial ones negated, and -[e_i]x G.
    """
    n = len(r)
    receivers = np.asarray(receivers, dtype=int)
    scale = (np.asarray(coupling, dtype=float) / r**3)[:, None, None]
    # w[i, a] = du_a/d[p_tx]_i and df[i] = dF/d[p_tx]_i with the links last, so that
    # each elementwise product runs along the links
    u_t = np.ascontiguousarray(u.T)
    w = (u_t[:, None] * u_t - _IDENTITY[..., None]) / r
    df = u_t[:, None] * w[:, None]
    df += w[:, :, None] * u_t
    df *= 1.5
    # O_rx^T [dF_0 dF_1 dF_2], then its three blocks stacked times O_tx: two 3x3-by-3x9
    # products a link, with the bits of the nine 3x3 ones
    df = np.ascontiguousarray(df.transpose(3, 1, 0, 2)).reshape(n, 3, 9)
    del u_t, w
    spatial = np.swapaxes(o_rx, 1, 2) @ df
    del df  # before the copies below, to bound the peak
    spatial = np.ascontiguousarray(spatial.reshape(n, 3, 3, 3).transpose(0, 2, 1, 3))
    spatial = (spatial.reshape(n, 9, 3) @ o_tx).reshape(n, 3, 9)  # (link, i, 3a + b)
    spatial *= scale
    spatial += (3.0 * u / r[:, None])[:, :, None] * gains.reshape(n, 1, 9)
    rows = np.empty((n + len(receivers), 9, 6))
    rows[:n, :, :3] = np.swapaxes(spatial, 1, 2)
    rows[:n, :, 3:] = (gains @ _GENERATOR_COLUMNS).reshape(n, 9, 3)
    if len(receivers):
        np.negative(np.swapaxes(spatial[receivers], 1, 2), out=rows[n:, :, :3])
        angular = (_AXIS_GENERATORS.reshape(9, 3) @ gains[receivers]).reshape(-1, 3, 9)
        np.negative(np.swapaxes(angular, 1, 2), out=rows[n:, :, 3:])
    return rows
