import numpy as np
import pytest

from miloc.geometry import (
    NotARotation,
    Room,
    euler_to_rotation,
    exp_rotation,
    is_rotation,
    join_poses,
    rotation_to_euler,
    sample_uniform_rotation,
    skew,
)

import oracles
from oracles import (
    cross_matrix, deployment_from_rotation, euler_to_rotation_one, rotation_angle, split_poses,
)


def test_identity_angles_give_identity():
    assert np.allclose(euler_to_rotation([0, 0, 0]), np.eye(3))


def test_quarter_turn_about_z_maps_axes():
    r = euler_to_rotation([np.pi / 2, 0, 0])
    assert np.allclose(r @ [1, 0, 0], [0, 1, 0], atol=1e-15)
    assert np.allclose(r @ [0, 1, 0], [-1, 0, 0], atol=1e-15)
    assert np.allclose(r @ [0, 0, 1], [0, 0, 1], atol=1e-15)


def test_euler_matrices_are_proper_rotations():
    rng = np.random.default_rng(1)
    for _ in range(200):
        r = euler_to_rotation(rng.uniform(-np.pi, np.pi, 3))
        assert np.abs(r.T @ r - np.eye(3)).max() < 1e-12
        assert abs(np.linalg.det(r) - 1.0) < 1e-12


def test_euler_roundtrip_away_from_gimbal_lock():
    rng = np.random.default_rng(2)
    for _ in range(500):
        euler = np.array(
            [
                rng.uniform(-np.pi, np.pi),
                rng.uniform(-np.pi / 2 + 1e-3, np.pi / 2 - 1e-3),
                rng.uniform(-np.pi, np.pi),
            ]
        )
        back = rotation_to_euler(euler_to_rotation(euler))
        assert np.allclose(back, euler, atol=1e-9)


def test_rotation_roundtrip_including_random_matrices():
    rng = np.random.default_rng(3)
    for _ in range(500):
        r = sample_uniform_rotation(rng)
        r2 = euler_to_rotation(rotation_to_euler(r))
        assert np.abs(r2 - r).max() < 1e-8


@pytest.mark.parametrize("beta", [np.pi / 2, -np.pi / 2])
def test_gimbal_lock_canonical_form(beta):
    rng = np.random.default_rng(4)
    for _ in range(20):
        alpha, gamma = rng.uniform(-np.pi, np.pi, 2)
        r = euler_to_rotation([alpha, beta, gamma])
        back = rotation_to_euler(r)
        assert back[2] == 0.0
        assert abs(abs(back[1]) - np.pi / 2) < 1e-12
        assert np.abs(euler_to_rotation(back) - r).max() < 1e-8


def test_rotation_to_euler_rejects_non_rotation():
    with pytest.raises(NotARotation):
        rotation_to_euler(np.diag([1.0, 1.0, 2.0]))
    with pytest.raises(NotARotation):
        rotation_to_euler(np.diag([1.0, 1.0, -1.0]))  # improper


def test_sampler_is_deterministic_and_valid():
    a = sample_uniform_rotation(np.random.default_rng(7))
    b = sample_uniform_rotation(np.random.default_rng(7))
    assert np.array_equal(a, b)
    assert is_rotation(a, tol=1e-12)
    rng = np.random.default_rng(8)
    for _ in range(100):
        r = sample_uniform_rotation(rng)
        assert is_rotation(r, tol=1e-10)
        assert np.allclose(np.linalg.norm(r, axis=0), 1.0, atol=1e-12)


def test_sampler_mean_is_zero_matrix():
    # Haar measure: E[R] = 0; Monte-Carlo bound 3/sqrt(n) per element.
    rng = np.random.default_rng(9)
    n = 10_000
    total = np.zeros((3, 3))
    for _ in range(n):
        total += sample_uniform_rotation(rng)
    assert np.abs(total / n).max() < 3.0 / np.sqrt(n)


def test_batch_matches_single():
    rng = np.random.default_rng(10)
    eulers = rng.uniform(-np.pi, np.pi, (50, 3))
    batch = euler_to_rotation(eulers)
    for e, r in zip(eulers, batch):
        assert np.allclose(r, euler_to_rotation_one(e), atol=1e-14)
        assert np.array_equal(euler_to_rotation(e), r)
    stacked = rng.uniform(-4.0, 4.0, (6, 5, 3))
    assert np.array_equal(
        euler_to_rotation(stacked).reshape(-1, 3, 3),
        euler_to_rotation(stacked.reshape(-1, 3)),
    )


def test_exp_rotation_matches_matrix_exponential():
    from scipy.linalg import expm

    rng = np.random.default_rng(11)
    vectors = np.vstack([rng.normal(0.0, 1.5, (40, 3)), rng.normal(0.0, 1e-9, (5, 3)), np.zeros(3)])
    rotations = exp_rotation(vectors)
    assert rotations.shape == (46, 3, 3)
    assert np.all(is_rotation(rotations, 1e-14))
    for phi, r in zip(vectors, rotations):
        assert np.array_equal(skew(phi), cross_matrix(phi))
        assert np.allclose(r, expm(cross_matrix(phi)), rtol=0.0, atol=1e-12)
        angle = np.arccos(np.cos(np.linalg.norm(phi)))  # |phi| folded into [0, pi]
        assert np.isclose(rotation_angle(np.eye(3), r), angle, rtol=0.0, atol=1e-7)
    assert np.array_equal(exp_rotation(np.zeros(3)), np.eye(3))


def test_rotation_helpers_equal_their_oracles_bit_for_bit():
    rng = np.random.default_rng(15)
    signs = np.where(rng.random((64, 3)) < 0.5, -1.0, 1.0)
    cases = [
        rng.normal(0.0, 1.5, 3),
        rng.normal(0.0, 1.5, (40, 3)),
        rng.normal(0.0, 1.5, (4, 5, 3)),
        np.zeros(3),
        np.zeros((2, 3, 3)),
        signs * 0.0,  # every mix of +0.0 and -0.0
        signs * rng.choice([0.0, 1e-300, 0.5], (64, 3)),
        # |phi| from 1e-300 to 1e-8, and up to 10 pi
        rng.normal(size=(300, 3)) * np.logspace(-300, -8, 300)[:, None],
        rng.normal(size=(5, 60, 3)) * np.linspace(0.0, 10 * np.pi, 60)[:, None] / np.sqrt(3),
    ]
    for phi in cases:
        for got, want in ((skew(phi), oracles.skew_stacked(phi)),
                          (exp_rotation(phi), oracles.exp_rotation_sinc(phi))):
            assert got.shape == want.shape == phi.shape + (3,)
            assert got.tobytes() == want.tobytes()


def test_pose_rows_are_agent_major():
    # agent a's twelve numbers sit at 12a..12a+11: a row reshaped to (M, 12)
    # is its agents' one-agent rows, so a group of agents is a reshape
    rng = np.random.default_rng(14)
    positions = rng.uniform(0.0, 1.5, (2, 4, 3))
    rotations = sample_uniform_rotation(rng, 8).reshape(2, 4, 3, 3)
    rows = join_poses(positions, rotations)
    assert rows.shape == (2, 48)
    for a in range(4):
        one = join_poses(positions[:, a : a + 1], rotations[:, a : a + 1])
        assert np.array_equal(rows.reshape(2, 4, 12)[:, a], one)
        assert np.array_equal(one, np.hstack([positions[:, a], rotations[:, a].reshape(2, 9)]))
    back_p, back_o = split_poses(rows)
    assert np.array_equal(back_p, positions) and np.array_equal(back_o, rotations)
    assert np.array_equal(join_poses(back_p, back_o), rows)


def test_rigid_rotation_preserves_pairwise_distances():
    rng = np.random.default_rng(12)
    points = rng.uniform(0, 1.5, (6, 3))
    q = sample_uniform_rotation(rng)
    rotated = points @ q.T
    d0 = np.linalg.norm(points[:, None] - points[None], axis=-1)
    d1 = np.linalg.norm(rotated[:, None] - rotated[None], axis=-1)
    assert np.allclose(d0, d1, atol=1e-12)


def test_rotation_angle():
    assert rotation_angle(np.eye(3), np.eye(3)) == 0.0
    r = euler_to_rotation([0.3, 0, 0])
    assert np.isclose(rotation_angle(np.eye(3), r), 0.3, atol=1e-12)


def test_room_membership_and_clamp():
    room = Room.cube(1.5)
    assert room.contains([0, 0, 0])
    assert room.contains([1.5, 1.5, 1.5])
    assert not room.contains([1.5001, 0.5, 0.5])
    assert room.contains([1.5001, 0.5, 0.5], margin=0.001)
    assert np.allclose(room.clamp([2.0, -1.0, 0.7]), [1.5, 0.0, 0.7])
    assert np.allclose(room.center, [0.75, 0.75, 0.75])
    with pytest.raises(ValueError):
        Room(np.zeros(3), np.zeros(3))


@pytest.mark.parametrize("corners", [(np.zeros(2), np.ones(2)), (np.zeros(3), np.ones(4))])
def test_room_corners_must_be_3_vectors(corners):
    with pytest.raises(ValueError, match="3-vectors"):
        Room(*corners)


def test_deployment_consistency():
    rng = np.random.default_rng(13)
    r = sample_uniform_rotation(rng)
    d = deployment_from_rotation(np.array([0.1, 0.2, 0.3]), r)
    assert np.abs(euler_to_rotation(d.euler) - d.rotation).max() < 1e-12
    assert np.allclose(d.as_vector()[:3], [0.1, 0.2, 0.3])
