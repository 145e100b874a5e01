import numpy as np
import pytest

from miloc.channel import (
    CoilParams,
    CoincidentNodes,
    GlobalParams,
    add_noise,
    channel_derivative_columns,
    channel_gain_batch,
    channel_matrix,
    coupling_coefficient,
    receiver_columns,
    transmitter_columns,
)
from miloc.geometry import Deployment, sample_uniform_rotation

from conftest import random_deployment
from oracles import (
    channel_gain, channel_jacobian, channel_jacobian_rx, deployment_from_rotation, dipole_factor,
    endpoint_columns_3x3, retracted,
)


def test_coupling_value_for_reference_coils(coil, gparams):
    # Independent arithmetic: mu * A^2 * nu^2 * f / sqrt(4 R^2) with
    # A = pi (0.05/2)^2, nu = 5, f = 500 kHz, R = 1 Ohm.
    area = np.pi * 0.025**2
    expected = 4e-7 * np.pi * area * area * 25 * 5e5 / 2.0
    assert np.isclose(expected, 3.028e-5, rtol=1e-4)
    assert np.isclose(coupling_coefficient(coil, coil, gparams), expected, rtol=1e-12)


def test_coupling_scales_with_area_and_resistance(gparams):
    base = CoilParams(turns=5, diameter=0.05, resistance=1.0)
    double_area = CoilParams(turns=5, diameter=0.05 * np.sqrt(2), resistance=1.0)
    c0 = coupling_coefficient(base, base, gparams)
    assert np.isclose(coupling_coefficient(double_area, double_area, gparams), 4 * c0)
    high_r = CoilParams(turns=5, diameter=0.05, resistance=4.0)
    assert np.isclose(coupling_coefficient(high_r, high_r, gparams), c0 / 4.0)


def test_coil_params_validation():
    with pytest.raises(ValueError):
        CoilParams(turns=0, diameter=0.05, resistance=1.0)
    with pytest.raises(ValueError):
        CoilParams(turns=5, diameter=-0.05, resistance=1.0)
    with pytest.raises(ValueError):
        GlobalParams(frequency=-1.0)


def test_dipole_factor_structure():
    rng = np.random.default_rng(0)
    for _ in range(50):
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        f = dipole_factor(u)
        assert abs(np.trace(f)) < 1e-12
        assert np.allclose(np.sort(np.linalg.eigvalsh(f)), [-0.5, -0.5, 1.0], atol=1e-12)
        assert np.allclose(f, dipole_factor(-u), atol=1e-15)


def test_coaxial_channel_matrix(coupling):
    tx = Deployment.identity([0.0, 0.0, 0.0])
    rx = Deployment.identity([0.5, 0.0, 0.0])
    h = channel_matrix(tx, rx, coupling)
    scale = coupling / 0.125
    assert np.isclose(scale, 2.4224e-4, rtol=1e-4)
    assert np.allclose(h, 1j * scale * np.diag([1.0, -0.5, -0.5]), atol=1e-18)


def test_channel_is_purely_imaginary(coupling):
    rng = np.random.default_rng(1)
    for _ in range(50):
        tx, rx = random_deployment(rng), random_deployment(rng)
        h = channel_matrix(tx, rx, coupling)
        assert np.abs(np.real(h)).max() == 0.0


def test_swap_gives_transpose(coupling):
    rng = np.random.default_rng(2)
    for _ in range(20):
        tx, rx = random_deployment(rng), random_deployment(rng)
        assert np.allclose(
            channel_matrix(rx, tx, coupling), channel_matrix(tx, rx, coupling).T, atol=1e-18
        )


def test_inverse_cube_distance_scaling(coupling):
    tx = Deployment.identity([0.0, 0.0, 0.0])
    near = Deployment.identity([0.4, 0.1, 0.2])
    far = Deployment.identity([0.8, 0.2, 0.4])
    h_near = channel_matrix(tx, near, coupling)
    h_far = channel_matrix(tx, far, coupling)
    assert np.isclose(np.linalg.norm(h_far), np.linalg.norm(h_near) / 8.0, rtol=1e-12)


def test_frame_independence(coupling):
    # A global rigid rotation of all positions and orientations leaves H unchanged.
    rng = np.random.default_rng(3)
    for _ in range(20):
        tx, rx = random_deployment(rng), random_deployment(rng)
        q = sample_uniform_rotation(rng)
        tx_rot = deployment_from_rotation(q @ tx.position, q @ tx.rotation)
        rx_rot = deployment_from_rotation(q @ rx.position, q @ rx.rotation)
        assert np.allclose(
            channel_matrix(tx_rot, rx_rot, coupling),
            channel_matrix(tx, rx, coupling),
            atol=1e-16,
        )


def test_coincident_nodes_raise(coupling):
    tx = Deployment.identity([0.5, 0.5, 0.5])
    rx = Deployment.identity([0.5, 0.5, 0.5])
    with pytest.raises(CoincidentNodes):
        channel_matrix(tx, rx, coupling)


def test_noise_zero_sigma_is_identity(coupling):
    rng = np.random.default_rng(4)
    h = channel_matrix(random_deployment(rng), random_deployment(rng), coupling)
    assert np.array_equal(add_noise(h, 0.0, rng), h)


def test_noise_moments():
    rng = np.random.default_rng(5)
    sigma = 1e-5
    draws = 100_000
    h0 = np.zeros((3, 3), dtype=complex)
    samples = np.array([add_noise(h0, sigma, rng)[0, 0] for _ in range(draws)])
    power = np.mean(np.abs(samples) ** 2)
    assert abs(power / sigma**2 - 1.0) < 0.02
    # circular symmetry: real/imag parts uncorrelated, each of variance sigma^2/2
    corr = np.mean(samples.real * samples.imag)
    assert abs(corr) < 3.0 * sigma**2 / 2.0 / np.sqrt(draws)
    assert abs(np.mean(samples.real**2) / (sigma**2 / 2) - 1.0) < 0.03


def _fd_jacobian(tx, rx, coupling, h=1e-6):
    d_pos = np.empty((3, 3, 3), dtype=complex)
    d_ori = np.empty((3, 3, 3), dtype=complex)
    for i, out in enumerate([*d_pos, *d_ori]):
        step = np.zeros(6)
        step[i] = h
        plus, minus = retracted(tx, step), retracted(tx, -step)
        out[...] = channel_matrix(plus, rx, coupling) - channel_matrix(minus, rx, coupling)
        out /= 2 * h
    return d_pos, d_ori


def test_jacobian_matches_finite_differences(coupling):
    rng = np.random.default_rng(6)
    checked = 0
    worst = 0.0
    while checked < 1000:
        tx, rx = random_deployment(rng), random_deployment(rng)
        if np.linalg.norm(tx.position - rx.position) < 0.15:
            continue
        checked += 1
        d_pos, d_ori = channel_jacobian(tx, rx, coupling)
        fd_pos, fd_ori = _fd_jacobian(tx, rx, coupling)
        for i in range(3):
            worst = max(worst, np.abs(d_pos[i] - fd_pos[i]).max() / np.abs(fd_pos[i]).max())
            worst = max(worst, np.abs(d_ori[i] - fd_ori[i]).max() / max(np.abs(fd_ori[i]).max(), 1e-30))
    assert worst < 1e-5


def test_jacobian_is_purely_imaginary(coupling):
    rng = np.random.default_rng(7)
    tx, rx = random_deployment(rng), random_deployment(rng)
    d_pos, d_ori = channel_jacobian(tx, rx, coupling)
    assert np.abs(np.real(d_pos)).max() == 0.0
    assert np.abs(np.real(d_ori)).max() == 0.0


def test_coaxial_radial_derivative(coupling):
    # Along the link axis the (0,0) entry is c/r^3; moving the transmitter
    # away from the receiver differentiates to +3c/r^4 (r shrinks as p_tx,1 grows).
    r = 0.5
    tx = Deployment.identity([0.0, 0.0, 0.0])
    rx = Deployment.identity([r, 0.0, 0.0])
    d_pos, _ = channel_jacobian(tx, rx, coupling)
    assert np.isclose(np.imag(d_pos[0][0, 0]), 3.0 * coupling / r**4, rtol=1e-12)


def test_rx_jacobian_matches_finite_differences(coupling):
    rng = np.random.default_rng(8)
    h = 1e-6
    for _ in range(100):
        tx, rx = random_deployment(rng), random_deployment(rng)
        if np.linalg.norm(tx.position - rx.position) < 0.15:
            continue
        d_pos, d_ori = channel_jacobian_rx(tx, rx, coupling)
        for i in range(3):
            step = np.zeros(6)
            step[i] = h
            plus, minus = retracted(rx, step), retracted(rx, -step)
            fd = (channel_matrix(tx, plus, coupling) - channel_matrix(tx, minus, coupling)) / (2 * h)
            assert np.abs(fd - d_pos[i]).max() / np.abs(fd).max() < 1e-5
            step = np.roll(step, 3)
            plus, minus = retracted(rx, step), retracted(rx, -step)
            fd = (channel_matrix(tx, plus, coupling) - channel_matrix(tx, minus, coupling)) / (2 * h)
            assert np.abs(fd - d_ori[i]).max() / max(np.abs(fd).max(), 1e-30) < 1e-5


def test_batched_kernels_match_single_link(coupling):
    rng = np.random.default_rng(9)
    txs = [random_deployment(rng) for _ in range(40)]
    rxs = [random_deployment(rng) for _ in range(40)]
    pairs = [(t, r) for t, r in zip(txs, rxs) if np.linalg.norm(t.position - r.position) > 0.1]
    p_tx = np.stack([t.position for t, _ in pairs])
    o_tx = np.stack([t.rotation for t, _ in pairs])
    p_rx = np.stack([r.position for _, r in pairs])
    o_rx = np.stack([r.rotation for _, r in pairs])

    gains, r, u, f = channel_gain_batch(p_tx, o_tx, p_rx, o_rx, coupling)
    cols = channel_derivative_columns(r, u, f, gains, o_tx, o_rx, coupling)
    assert cols.shape == (len(pairs), 9, 12)

    for idx, (tx, rx) in enumerate(pairs):
        assert np.allclose(gains[idx], channel_gain(tx, rx, coupling), atol=1e-18)
        assert np.array_equal(channel_matrix(tx, rx, coupling), 1j * gains[idx])
        for offset, jacobian in ((0, channel_jacobian), (6, channel_jacobian_rx)):
            d_pos, d_ori = jacobian(tx, rx, coupling)
            for i in range(3):
                assert np.allclose(cols[idx, :, offset + i], np.imag(d_pos[i]).ravel(), atol=1e-16)
                assert np.allclose(
                    cols[idx, :, offset + 3 + i], np.imag(d_ori[i]).ravel(), atol=1e-16
                )


def test_endpoint_columns_are_the_full_kernels_halves(coupling):
    # bit for bit, on random links whose endpoints are all turned
    rng = np.random.default_rng(10)
    p_tx, p_rx = rng.uniform(0.0, 1.5, (2, 200, 3))
    o_tx, o_rx = sample_uniform_rotation(rng, 200), sample_uniform_rotation(rng, 200)
    assert np.all(np.abs(np.einsum("lii->l", o_rx) - 3.0) > 1e-3)
    gains, r, u, f = channel_gain_batch(p_tx, o_tx, p_rx, o_rx, coupling)
    full = channel_derivative_columns(r, u, f, gains, o_tx, o_rx, coupling)
    tx = transmitter_columns(r, u, gains, o_tx, o_rx, coupling)
    assert tx.shape == (200, 6, 3, 3)
    assert np.array_equal(np.swapaxes(tx.reshape(200, 6, 9), 1, 2), full[:, :, :6])
    rx = receiver_columns(tx, gains)
    assert np.array_equal(np.swapaxes(rx.reshape(200, 6, 9), 1, 2), full[:, :, 6:])


@pytest.mark.parametrize("links", [1, 4, 64, 256, 300])
def test_endpoint_columns_equal_the_3x3_products_bit_for_bit(links):
    rng = np.random.default_rng(11 + links)
    p_tx, p_rx = rng.uniform(0.0, 1.5, (2, links, 3))
    p_rx[0] = p_tx[0] + [0.3, 0.0, -0.0]  # a direction along an axis: zeros in u
    o_tx, o_rx = sample_uniform_rotation(rng, links), sample_uniform_rotation(rng, links)
    o_tx[-1], o_rx[-1] = np.eye(3), np.diag([1.0, -1.0, -1.0])
    for coupling in (3e-5, rng.uniform(1e-5, 5e-5, links)):
        gains, r, u, _ = channel_gain_batch(p_tx, o_tx, p_rx, o_rx, coupling)
        tx = transmitter_columns(r, u, gains, o_tx, o_rx, coupling)
        want_tx, want_rx = endpoint_columns_3x3(r, u, gains, o_tx, o_rx, coupling)
        assert tx.tobytes() == want_tx.tobytes()
        assert receiver_columns(tx, gains).tobytes() == want_rx.tobytes()
