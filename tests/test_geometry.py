import numpy as np
import pytest

from miloc.geometry import (
    Deployment,
    NotARotation,
    Room,
    euler_rotation_derivatives,
    euler_to_rotation,
    euler_to_rotation_batch,
    is_rotation,
    rotation_angle,
    rotation_to_euler,
    sample_uniform_rotation,
)

from oracles import euler_rotation_derivatives_one


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
    batch = euler_to_rotation_batch(eulers)
    for e, r in zip(eulers, batch):
        assert np.allclose(r, euler_to_rotation(e), atol=1e-14)


def test_euler_derivatives_match_finite_differences():
    rng = np.random.default_rng(11)
    h = 1e-7
    for _ in range(50):
        euler = rng.uniform(-1.2, 1.2, 3)
        analytic = euler_rotation_derivatives(euler)
        for i in range(3):
            step = np.zeros(3)
            step[i] = h
            fd = (euler_to_rotation(euler + step) - euler_to_rotation(euler - step)) / (2 * h)
            assert np.abs(fd - analytic[i]).max() < 1e-8


def test_stacked_euler_derivatives_match_one_angle_formula():
    rng = np.random.default_rng(14)
    eulers = rng.uniform(-4.0, 4.0, (6, 5, 3))
    stacked = euler_rotation_derivatives(eulers)
    assert stacked.shape == (6, 5, 3, 3, 3)
    for index in np.ndindex(6, 5):
        expected = euler_rotation_derivatives_one(eulers[index])
        assert np.allclose(stacked[index], expected, rtol=0.0, atol=1e-15)
    assert euler_rotation_derivatives(eulers[0, 0]).shape == (3, 3, 3)
    assert np.array_equal(
        euler_to_rotation_batch(eulers).reshape(-1, 3, 3),
        euler_to_rotation_batch(eulers.reshape(-1, 3)),
    )


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


def test_deployment_consistency():
    rng = np.random.default_rng(13)
    r = sample_uniform_rotation(rng)
    d = Deployment.from_rotation(np.array([0.1, 0.2, 0.3]), r)
    assert np.abs(euler_to_rotation(d.euler) - d.rotation).max() < 1e-12
    assert np.allclose(d.as_vector()[:3], [0.1, 0.2, 0.3])
