"""Poses, rotation/Euler conversions, random orientations and room geometry."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class NotARotation(ValueError):
    """Raised when a matrix fails the proper-rotation check."""


def rot_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rot_y(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_x(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def euler_to_rotation(euler) -> np.ndarray:
    """Build the orientation matrix from intrinsic z-y-x Euler angles.

    The convention used throughout this package is R = Rz(alpha) @ Ry(beta)
    @ Rx(gamma), with angles in radians.
    """
    alpha, beta, gamma = np.asarray(euler, dtype=float)
    return rot_z(alpha) @ rot_y(beta) @ rot_x(gamma)


def euler_to_rotation_batch(eulers: np.ndarray) -> np.ndarray:
    """Vectorized euler_to_rotation for a (..., 3) array of angle triples."""
    e = np.asarray(eulers, dtype=float)
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


def is_rotation(matrix: np.ndarray, tol: float = 1e-10) -> bool:
    """True when the matrix is orthogonal with determinant +1 within tol."""
    m = np.asarray(matrix, dtype=float)
    if m.shape != (3, 3):
        return False
    return (
        np.abs(m.T @ m - np.eye(3)).max() <= tol
        and abs(np.linalg.det(m) - 1.0) <= tol
    )


def rotation_to_euler(matrix: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Recover z-y-x Euler angles from a proper rotation matrix.

    Angles are canonical: alpha, gamma in (-pi, pi], beta in [-pi/2, pi/2].
    At gimbal lock (|beta| = pi/2) gamma is set to zero and the remaining
    rotation folded into alpha, so the reconstruction is still exact.

    Raises:
        NotARotation: orthogonality or determinant violated beyond tol.
    """
    m = np.asarray(matrix, dtype=float)
    if not is_rotation(m, tol):
        raise NotARotation("input is not a proper rotation matrix")
    beta = np.arcsin(-np.clip(m[2, 0], -1.0, 1.0))
    if abs(np.cos(beta)) > 1e-9:
        alpha = np.arctan2(m[1, 0], m[0, 0])
        gamma = np.arctan2(m[2, 1], m[2, 2])
    else:
        # beta = +-pi/2: only alpha -+ gamma is determined; pick gamma = 0.
        alpha = np.arctan2(-m[0, 1], m[1, 1])
        gamma = 0.0
    return np.array([alpha, beta, gamma])


def _matrices(shape, entries) -> np.ndarray:
    """(*shape, 3, 3) matrices with the given row-major {index: value} entries, zero elsewhere."""
    out = np.zeros(shape + (9,))
    for index, value in entries.items():
        out[..., index] = value
    return out.reshape(shape + (3, 3))


def euler_rotation_derivatives(euler) -> np.ndarray:
    """Derivatives of euler_to_rotation w.r.t. each angle.

    euler has shape (..., 3); the result has shape (..., 3, 3, 3) and entry
    [..., i, :, :] is dR/d(angle_i): the corresponding single-angle factor is
    replaced by its elementwise trigonometric derivative.
    """
    e = np.asarray(euler, dtype=float)
    shape = e.shape[:-1]
    ca, sa = np.cos(e[..., 0]), np.sin(e[..., 0])
    cb, sb = np.cos(e[..., 1]), np.sin(e[..., 1])
    cg, sg = np.cos(e[..., 2]), np.sin(e[..., 2])
    rz = _matrices(shape, {0: ca, 1: -sa, 3: sa, 4: ca, 8: 1.0})
    ry = _matrices(shape, {0: cb, 2: sb, 4: 1.0, 6: -sb, 8: cb})
    rx = _matrices(shape, {0: 1.0, 4: cg, 5: -sg, 7: sg, 8: cg})
    dz = _matrices(shape, {0: -sa, 1: -ca, 3: ca, 4: -sa})
    dy = _matrices(shape, {0: -sb, 2: cb, 6: -cb, 8: -sb})
    dx = _matrices(shape, {4: -sg, 5: -cg, 7: cg, 8: -sg})
    return np.stack([dz @ ry @ rx, rz @ dy @ rx, rz @ ry @ dx], axis=-3)


def quaternion_to_rotation(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a unit quaternion (w, x, y, z)."""
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def sample_uniform_rotation(rng: np.random.Generator) -> np.ndarray:
    """Draw a rotation matrix uniformly (Haar) over SO(3).

    Uses a normalized 4-d Gaussian quaternion, which is exactly uniform.
    """
    q = rng.standard_normal(4)
    return quaternion_to_rotation(q / np.linalg.norm(q))


def rotation_angle(ra: np.ndarray, rb: np.ndarray) -> float:
    """Geodesic angle in radians between two rotations."""
    cos_val = (np.trace(ra.T @ rb) - 1.0) / 2.0
    return float(np.arccos(np.clip(cos_val, -1.0, 1.0)))


@dataclass(frozen=True)
class Room:
    """Axis-aligned box, corners in meters."""

    min_corner: np.ndarray
    max_corner: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "min_corner", np.asarray(self.min_corner, dtype=float))
        object.__setattr__(self, "max_corner", np.asarray(self.max_corner, dtype=float))
        if not np.all(self.max_corner > self.min_corner):
            raise ValueError("max_corner must exceed min_corner componentwise")

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
    def from_euler(cls, position, euler) -> "Deployment":
        e = np.asarray(euler, dtype=float)
        return cls(np.asarray(position, dtype=float), e, euler_to_rotation(e))

    @classmethod
    def from_rotation(cls, position, rotation, tol: float = 1e-8) -> "Deployment":
        r = np.asarray(rotation, dtype=float)
        return cls(np.asarray(position, dtype=float), rotation_to_euler(r, tol), r)

    @classmethod
    def identity(cls, position) -> "Deployment":
        return cls(np.asarray(position, dtype=float), np.zeros(3), np.eye(3))

    def as_vector(self) -> np.ndarray:
        """Six-parameter form [x, y, z, alpha, beta, gamma]."""
        return np.hstack([self.position, self.euler])
