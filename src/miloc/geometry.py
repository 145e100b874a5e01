"""Poses, rotation/Euler conversions, the rotation exponential, random orientations and rooms."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class NotARotation(ValueError):
    """Raised when a matrix fails the proper-rotation check."""


def euler_to_rotation(euler) -> np.ndarray:
    """Rotation matrices (..., 3, 3) of a (..., 3) array of intrinsic z-y-x Euler angles.

    The convention used throughout this package is R = Rz(alpha) @ Ry(beta)
    @ Rx(gamma), with angles in radians.
    """
    e = np.asarray(euler, dtype=float)
    ca, sa = np.cos(e[..., 0]), np.sin(e[..., 0])
    cb, sb = np.cos(e[..., 1]), np.sin(e[..., 1])
    cg, sg = np.cos(e[..., 2]), np.sin(e[..., 2])
    r = np.empty(e.shape[:-1] + (3, 3))
    r[..., 0, 0] = ca * cb
    r[..., 0, 1] = ca * sb * sg - sa * cg
    r[..., 0, 2] = ca * sb * cg + sa * sg
    r[..., 1, 0] = sa * cb
    r[..., 1, 1] = sa * sb * sg + ca * cg
    r[..., 1, 2] = sa * sb * cg - ca * sg
    r[..., 2, 0] = -sb
    r[..., 2, 1] = cb * sg
    r[..., 2, 2] = cb * cg
    return r


def is_rotation(matrix: np.ndarray, tol: float = 1e-10):
    """True when the matrix is orthogonal with determinant +1 within tol.

    matrix is one 3x3 matrix (a bool is returned) or a (..., 3, 3) stack (a
    boolean array over its matrices).
    """
    m = np.asarray(matrix, dtype=float)
    if m.shape[-2:] != (3, 3):
        return False
    orthogonal = np.abs(np.swapaxes(m, -1, -2) @ m - np.eye(3)).max(axis=(-2, -1)) <= tol
    proper = np.abs(np.linalg.det(m) - 1.0) <= tol
    ok = orthogonal & proper
    return bool(ok) if ok.ndim == 0 else ok


def rotation_to_euler(matrix: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Recover z-y-x Euler angles from a proper rotation matrix.

    Angles are canonical: alpha, gamma in (-pi, pi], beta in [-pi/2, pi/2].
    At gimbal lock (|beta| = pi/2) gamma is set to zero and the remaining
    rotation folded into alpha, so the reconstruction is still exact.
    A (..., 3, 3) stack gives (..., 3) angle triples.

    Raises:
        NotARotation: orthogonality or determinant violated beyond tol, for
            any matrix of a stack.
    """
    m = np.asarray(matrix, dtype=float)
    if not np.all(is_rotation(m, tol)):
        raise NotARotation("input is not a proper rotation matrix")
    beta = np.arcsin(-np.clip(m[..., 2, 0], -1.0, 1.0))
    regular = np.abs(np.cos(beta)) > 1e-9
    # beta = +-pi/2: only alpha -+ gamma is determined; pick gamma = 0.
    alpha = np.where(
        regular, np.arctan2(m[..., 1, 0], m[..., 0, 0]), np.arctan2(-m[..., 0, 1], m[..., 1, 1])
    )
    gamma = np.where(regular, np.arctan2(m[..., 2, 1], m[..., 2, 2]), 0.0)
    return np.stack([alpha, beta, gamma], axis=-1)


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrices [v]x, (..., 3, 3), of a (..., 3) array: [v]x w = v x w."""
    v = np.asarray(v, dtype=float)
    k = np.zeros(v.shape + (3,))
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    k[..., 0, 1], k[..., 0, 2], k[..., 1, 2] = -z, y, -x
    k[..., 1, 0], k[..., 2, 0], k[..., 2, 1] = z, -y, x
    return k


_IDENTITY = np.eye(3)
# the angles that scale t to the arguments of np.sinc in exp_rotation
_SINC_SPANS = np.array([np.pi, 2 * np.pi])


def exp_rotation(phi: np.ndarray) -> np.ndarray:
    """Rotations exp([phi]x), (..., 3, 3), of (..., 3) rotation vectors (Rodrigues).

    exp([phi]x) = I + sin(t)/t [phi]x + (1 - cos t)/t^2 [phi]x^2 with t = |phi|;
    the second coefficient is written (sin(t/2)/(t/2))^2 / 2.  Both come from
    np.sinc's formula, sin(y)/y with y = pi (t / (pi, 2 pi)) and y = 0 replaced
    by the machine epsilon, bit for bit, which carries them through t = 0: a
    zero vector gives the identity exactly.
    """
    phi = np.asarray(phi, dtype=float)
    k = skew(phi)
    t = np.sqrt(np.add.reduce(phi * phi, axis=-1))[..., None, None]
    y = np.pi * (t / _SINC_SPANS)
    y[y == 0] = 2.0**-52  # the float64 machine epsilon, as np.sinc puts it
    sinc = np.sin(y) / y
    rotation = sinc[..., :1] * k
    rotation += _IDENTITY
    rotation += 0.5 * np.square(sinc[..., 1:]) * (k @ k)
    return rotation


def join_poses(positions: np.ndarray, rotations: np.ndarray) -> np.ndarray:
    """Pose rows (..., 12M) of M agents' positions (..., M, 3) and rotations (..., M, 3, 3).

    An agent's pose is twelve numbers, its position and then its rotation
    matrix row by row, and agent a's pose sits at entries 12a..12a+11.  A
    row reshaped to (..., M, 12) holds one agent per row, so the rows of
    groups of agents are a reshape; a one-agent row is
    [position, rotation.ravel()].
    """
    positions = np.asarray(positions, dtype=float)
    batch, m = positions.shape[:-2], positions.shape[-2]
    poses = np.concatenate([positions, np.reshape(rotations, batch + (m, 9))], axis=-1)
    return poses.reshape(batch + (12 * m,))


def split_poses(rows: np.ndarray):
    """Positions (..., M, 3) and rotations (..., M, 3, 3) of pose rows (..., 12M), as join_poses."""
    rows = np.asarray(rows, dtype=float)
    poses = rows.reshape(rows.shape[:-1] + (rows.shape[-1] // 12, 12))
    return poses[..., :3], poses[..., 3:].reshape(poses.shape[:-1] + (3, 3))


# Row-major rotation entries from the products p[4 i + j] = q_i q_j of a unit
# quaternion q = (w, x, y, z): 1 - 2 (p_a + p_b) on the diagonal and
# 2 (p_a +- p_b) off it, as (entries, a, b[, sign]).
_DIAGONAL = (np.array([0, 4, 8]), np.array([10, 5, 5]), np.array([15, 15, 10]))
_OFF_DIAGONAL = (
    np.array([1, 2, 3, 5, 6, 7]),
    np.array([6, 7, 6, 11, 7, 11]),
    np.array([3, 2, 3, 1, 2, 1]),
    np.array([-1.0, 1.0, 1.0, -1.0, -1.0, 1.0]),
)


def quaternion_to_rotation(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of the quaternion (w, x, y, z) scaled to unit length.

    (..., 4) gives (..., 3, 3); each quaternion is divided by
    sqrt(vecdot(q, q)), which matches np.linalg.norm of one quaternion bit for bit.
    """
    q = np.asarray(q, dtype=float)
    q = q / np.sqrt(np.vecdot(q, q))[..., None]
    batch = q.shape[:-1]
    products = (q[..., :, None] * q[..., None, :]).reshape(batch + (16,))
    out = np.empty(batch + (9,))
    entries, a, b = _DIAGONAL
    out[..., entries] = 1 - 2 * (products[..., a] + products[..., b])
    entries, a, b, sign = _OFF_DIAGONAL
    out[..., entries] = 2 * (products[..., a] + sign * products[..., b])
    return out.reshape(batch + (3, 3))


def sample_uniform_rotation(rng: np.random.Generator, size=None) -> np.ndarray:
    """Draw a rotation matrix uniformly (Haar) over SO(3); size n gives (n, 3, 3).

    Uses normalized 4-d Gaussian quaternions, which are exactly uniform.  A
    stack consumes the generator as n single draws in order would, and gives
    the same matrices bit for bit.
    """
    return quaternion_to_rotation(rng.standard_normal(4 if size is None else (size, 4)))


@dataclass(frozen=True)
class Room:
    """Axis-aligned box, corners in meters."""

    min_corner: np.ndarray
    max_corner: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "min_corner", np.asarray(self.min_corner, dtype=float))
        object.__setattr__(self, "max_corner", np.asarray(self.max_corner, dtype=float))
        if self.min_corner.shape != (3,) or self.max_corner.shape != (3,):
            raise ValueError("room corners must be 3-vectors")
        extent = self.max_corner - self.min_corner  # NaN fails both comparisons
        if not np.all((extent > 0) & (extent < np.inf)):
            raise ValueError("max_corner must exceed min_corner componentwise, by a finite amount")

    @classmethod
    def cube(cls, side: float) -> "Room":
        return cls(np.zeros(3), np.full(3, float(side)))

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.min_corner + self.max_corner)

    @property
    def diagonal(self) -> float:
        return float(np.linalg.norm(self.max_corner - self.min_corner))

    def contains(self, point: np.ndarray, margin: float = 0.0):
        """Closed-box membership; margin > 0 inflates the box on all sides.

        point is one 3-vector (a bool is returned) or a (..., 3) stack (a
        boolean array over its rows).
        """
        p = np.asarray(point, dtype=float)
        inside = np.all((p >= self.min_corner - margin) & (p <= self.max_corner + margin), axis=-1)
        return bool(inside) if inside.ndim == 0 else inside

    def clamp(self, point: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(point, dtype=float), self.min_corner, self.max_corner)

    def sample_point(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.min_corner, self.max_corner)


@dataclass(frozen=True)
class Deployment:
    """Pose of a node: position plus orientation (Euler angles and matrix)."""

    position: np.ndarray
    euler: np.ndarray
    rotation: np.ndarray = field(repr=False)

    @classmethod
    def identity(cls, position) -> "Deployment":
        return cls(np.asarray(position, dtype=float), np.zeros(3), np.eye(3))

    def as_vector(self) -> np.ndarray:
        """Six-parameter form [x, y, z, alpha, beta, gamma]."""
        return np.concatenate((self.position, self.euler))
