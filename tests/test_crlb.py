import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miloc.channel import channel_gain_batch, channel_matrix
from miloc.crlb import FisherInfo, SingularFim, assemble_fim, fim_stack, peb, peb_stack
from miloc.geometry import Deployment, sample_uniform_rotation
from miloc.scenario import Scheme, network_problem, sample_topology, synthesize_measurements

from conftest import far_out, random_deployment
from oracles import (
    deployment_from_euler,
    deployment_from_rotation,
    fim_block,
    link_information,
    peb_all,
    position_bound,
    residual_and_jacobian,
    retracted,
)

SIGMA = 1e-5

_PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


def _fim_stack(poses, anchors, coupling, sigma, cooperative):
    """fim_stack of the network problem of the scheme, for pose rows (..., 12M)."""
    scheme = Scheme.COOP if cooperative else Scheme.NONCOOP
    return fim_stack(network_problem(poses.shape[-1] // 12, anchors, coupling, scheme), poses, sigma)


def _topology(m, seed, room, anchors):
    rng = np.random.default_rng(seed)
    return sample_topology(m, room, anchors, 0.15, rng)


def test_fim_matches_residual_normal_matrix(room, anchors, coil, gparams, coupling):
    # Independent route: every information matrix of a stack must equal
    # (2 / sigma^2) J^T J for the noiseless residual Jacobian at the truth.
    topos = [_topology(3, seed, room, anchors) for seed in range(4)]
    poses = np.array([t.pose_row for t in topos])
    stacked = _fim_stack(poses, anchors, coupling, SIGMA, cooperative=True)
    noiseless = dataclasses.replace(gparams, noise_sigma=0.0)
    ms = synthesize_measurements(topos[0], coil, noiseless, Scheme.COOP, np.random.default_rng(0))
    problem = network_problem(3, anchors, coupling, Scheme.COOP)
    problem = dataclasses.replace(problem, y_imag=np.imag(ms.h_meas))
    _, jac = residual_and_jacobian(problem, poses)
    for k, topo in enumerate(topos):
        expected = 2.0 / SIGMA**2 * (jac[k].T @ jac[k])
        assert np.allclose(stacked[k], expected, rtol=1e-9, atol=1e-6 * np.abs(expected).max())
        info = assemble_fim(topo.agents, anchors, coupling, SIGMA, cooperative=True)
        assert np.array_equal(stacked[k], info.matrix)


def _poses(m, seeds, room, anchors):
    return np.array([_topology(m, seed, room, anchors).pose_row for seed in seeds])


def test_folded_fim_equals_the_ordered_fim(room, anchors, coupling):
    # fim_stack assembles one link per agent pair; the sum over both ordered
    # links of every pair is the same matrix up to rounding
    for m in range(2, 11):
        problem = network_problem(m, anchors, coupling, Scheme.COOP)
        folded, _ = problem.folded()
        assert len(folded.links) == 4 * m + m * (m - 1) // 2 < len(problem.links)
        poses = _poses(m, [40 + m, 60 + m], room, anchors)
        ordered = dataclasses.replace(problem, y_imag=np.zeros(problem.y_imag.shape[1:]))
        expected = 2.0 / SIGMA**2 * ordered.normal_equations(poses)[1]
        stacked = fim_stack(problem, poses, SIGMA)
        assert np.abs(stacked - expected).max() <= 1e-13 * np.abs(expected).max(), m


def test_folded_cost_plus_the_dropped_constant_is_the_ordered_cost(
    room, anchors, coil, gparams, coupling
):
    # at random poses, for stacks of noisy sets, and with a pair measured one
    # way only (its link is kept as it is)
    rng = np.random.default_rng(81)
    for m in (2, 3, 10):
        topos = [_topology(m, 80 + k, room, anchors) for k in range(3)]
        sets = [synthesize_measurements(t, coil, gparams, Scheme.COOP, rng) for t in topos]
        ordered = network_problem(m, anchors, coupling, Scheme.COOP)
        ordered = dataclasses.replace(ordered, y_imag=np.stack([np.imag(s.h_meas) for s in sets]))
        one_way = ~((ordered.links[:, 0] == 1) & (ordered.links[:, 1] == 0))
        uneven = dataclasses.replace(
            ordered, links=ordered.links[one_way], y_imag=ordered.y_imag[:, one_way]
        )
        poses = _poses(m, [85, 86, 87], room, anchors)
        poses = ordered.retract(poses, rng.normal(0.0, 0.05, (3, 6 * m)))
        for problem in (ordered, uneven):
            folded, dropped = problem.folded()
            assert dropped.shape == (3,)
            assert np.array_equal(folded.links[: 4 * m], problem.links[: 4 * m])
            expected = np.sum(problem.residual(poses) ** 2, axis=-1)
            got = np.sum(folded.residual(poses) ** 2, axis=-1) + dropped
            assert np.abs(got - expected).max() <= 1e-12 * expected.min(), m


def test_a_problem_without_a_pair_measured_both_ways_is_its_own_fold(anchors, coupling):
    # fim_stack and agent0_bounds fold whatever problem they are given: an
    # anchor problem, or one folded already, comes back as it is
    rng = np.random.default_rng(83)
    for scheme in Scheme:
        network = network_problem(3, anchors, coupling, scheme)
        for sets in ((), (2,)):
            y_imag = rng.normal(size=sets + network.y_imag.shape[1:])
            measured = dataclasses.replace(network, y_imag=y_imag)
            for problem in (measured.anchor_problem(), measured.folded()[0]):
                folded, dropped = problem.folded()
                assert folded is problem, (scheme, sets)
                assert dropped.shape == problem.y_imag.shape[:-3] and not dropped.any()


@_PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-9, 1e3))
def test_channel_gains_are_swap_symmetric(seed, scale):
    # the gains of link (j, i) are the transpose of those of (i, j): the
    # invariant the folded cooperative links rest on
    rng = np.random.default_rng(seed)
    p_i, p_j = rng.uniform(-2.0, 2.0, (2, 16, 3))
    o_i, o_j = sample_uniform_rotation(rng, 16), sample_uniform_rotation(rng, 16)
    coupling = scale * rng.uniform(0.5, 2.0, 16)
    forward = channel_gain_batch(p_i, o_i, p_j, o_j, coupling)[0]
    backward = channel_gain_batch(p_j, o_j, p_i, o_i, coupling)[0]
    gap = np.linalg.norm(backward - np.swapaxes(forward, 1, 2), axis=(1, 2))
    assert np.all(gap <= 1e-15 * np.linalg.norm(forward, axis=(1, 2)))


def test_assembly_matches_per_link_reference(room, anchors, coupling):
    # Each diagonal block is the agent's anchor-link block plus its
    # inter-agent block; each off-diagonal block sums the cross blocks of the
    # pair's two ordered measurements.
    topo = _topology(3, 1, room, anchors)
    info = assemble_fim(topo.agents, anchors, coupling, SIGMA, cooperative=True)
    blocks = info.matrix.reshape(3, 6, 3, 6).transpose(0, 2, 1, 3)
    for i, agent in enumerate(topo.agents):
        others = [a for j, a in enumerate(topo.agents) if j != i]
        anchor_block, inter_block = fim_block(agent, others, anchors, coupling, SIGMA)
        assert np.allclose(blocks[i, i], anchor_block + inter_block, rtol=1e-10)
        for j in range(i + 1, 3):
            _, _, cross = link_information(agent, topo.agents[j], coupling, SIGMA, rx_is_agent=True)
            _, _, cross2 = link_information(topo.agents[j], agent, coupling, SIGMA, rx_is_agent=True)
            assert np.allclose(blocks[i, j], cross + cross2.T, rtol=1e-10)
            assert np.allclose(blocks[j, i], (cross + cross2.T).T, rtol=1e-10)


def test_sigma_scaling():
    rng = np.random.default_rng(2)
    tx, rx = random_deployment(rng), random_deployment(rng)
    blk = assemble_fim([tx], [rx], 1e-4, SIGMA, cooperative=False).matrix
    blk_half = assemble_fim([tx], [rx], 1e-4, SIGMA / 2, cooperative=False).matrix
    assert np.allclose(blk_half, 4.0 * blk, rtol=1e-12)


def test_m1_coop_equals_noncoop(room, anchors, coupling):
    topo = _topology(1, 3, room, anchors)
    coop = assemble_fim(topo.agents, anchors, coupling, SIGMA, cooperative=True)
    noncoop = assemble_fim(topo.agents, anchors, coupling, SIGMA, cooperative=False)
    assert np.array_equal(coop.matrix, noncoop.matrix)


def test_symmetry_and_positive_semidefiniteness(room, anchors, coupling):
    topo = _topology(3, 4, room, anchors)
    info = assemble_fim(topo.agents, anchors, coupling, SIGMA, cooperative=True)
    m = info.matrix
    assert np.allclose(m, m.T, rtol=1e-10)
    eigvals = np.linalg.eigvalsh(m)
    assert eigvals.min() >= -1e-10 * abs(eigvals.max())


def test_noncoop_block_diagonal_inverse_identity(room, anchors, coupling):
    topo = _topology(4, 5, room, anchors)
    info = assemble_fim(topo.agents, anchors, coupling, SIGMA, cooperative=False)
    # off-diagonal blocks are exactly zero
    for i in range(4):
        for j in range(4):
            if i != j:
                block = info.matrix[6 * i : 6 * i + 6, 6 * j : 6 * j + 6]
                assert np.abs(block).max() == 0.0
    full = peb_all(info)
    for i in range(4):
        block = info.matrix[6 * i : 6 * i + 6, 6 * i : 6 * i + 6]
        per_block = np.sqrt(np.trace(np.linalg.inv(block)[:3, :3]))
        assert abs(full[i] - per_block) < 1e-10 * per_block


def test_information_monotonicity(room, anchors, coupling):
    # agent-agent links never increase any agent's bound
    for seed in range(6, 11):
        topo = _topology(5, seed, room, anchors)
        coop = assemble_fim(topo.agents, anchors, coupling, SIGMA, cooperative=True)
        noncoop = assemble_fim(topo.agents, anchors, coupling, SIGMA, cooperative=False)
        assert np.all(peb_all(coop) <= peb_all(noncoop) + 1e-12)


def test_peb_ratio_invariant_under_coupling_rescale(room, anchors, coupling):
    topo = _topology(4, 11, room, anchors)

    def ratio(c):
        coop = assemble_fim(topo.agents, anchors, c, SIGMA, cooperative=True)
        noncoop = assemble_fim(topo.agents, anchors, c, SIGMA, cooperative=False)
        return peb(noncoop, 0) / peb(coop, 0)

    r1 = ratio(coupling)
    r2 = ratio(coupling * 17.3)
    assert np.isclose(r1, r2, rtol=1e-10)
    # and the bounds themselves scale inversely with the coupling
    coop_a = peb(assemble_fim(topo.agents, anchors, coupling, SIGMA, True), 0)
    coop_b = peb(assemble_fim(topo.agents, anchors, 2 * coupling, SIGMA, True), 0)
    assert np.isclose(coop_b, coop_a / 2, rtol=1e-12)


def test_singular_fim_reports_null_direction(room, coupling):
    topo = _topology(1, 12, room, [])
    info = assemble_fim(topo.agents, [], coupling, SIGMA, cooperative=False)
    with pytest.raises(SingularFim) as exc:
        peb(info, 0)
    assert exc.value.null_direction is not None


@pytest.mark.parametrize("cooperative", [True, False])
def test_peb_matches_eigendecomposition_reference(room, anchors, coupling, cooperative):
    for m in range(1, 11):
        topo = _topology(m, 40 + m, room, anchors)
        info = assemble_fim(topo.agents, anchors, coupling, SIGMA, cooperative)
        expected = [position_bound(info.matrix, agent) for agent in range(m)]
        assert np.allclose(peb_all(info), expected, rtol=1e-9, atol=0.0)
        assert np.isclose(peb(info, m - 1), expected[-1], rtol=1e-9, atol=0.0)


def test_singular_fim_null_direction_matches_reference():
    rng = np.random.default_rng(14)
    basis = np.linalg.qr(rng.standard_normal((12, 12)))[0]
    spectra = {
        "rank deficient": np.r_[np.zeros(1), np.logspace(0, 3, 11)],
        "condition above 1e14": np.r_[1e-3, np.logspace(11, 12, 11)],
    }
    for name, spectrum in spectra.items():
        crafted = FisherInfo(matrix=(basis * spectrum) @ basis.T, n_agents=2)
        for bound in (lambda i: peb(i, 1), peb_all):
            with pytest.raises(SingularFim) as exc:
                bound(crafted)
            with pytest.raises(SingularFim) as ref:
                position_bound(crafted.matrix, 1)
            assert np.array_equal(exc.value.null_direction, ref.value.null_direction), name


def test_fim_against_monte_carlo_likelihood_curvature(room, anchors, coil, gparams, coupling):
    """Single-agent information vs the averaged finite-difference Hessian of
    the log-likelihood over 10^4 noise draws, along steps p + dp and
    R expm([phi]x) from the true pose.

    The log-likelihood is quadratic in the noise, so the finite-difference
    Hessian averaged over draws equals the finite-difference Hessian of the
    draw-averaged log-likelihood; the latter is evaluated directly from the
    averaged measurements, which keeps the oracle exact and fast.
    """
    rng = np.random.default_rng(13)
    topo = _topology(1, 13, room, anchors)
    agent = topo.agents[0]
    info = assemble_fim(topo.agents, anchors, coupling, SIGMA, cooperative=False)
    n_draws = 10_000

    h_true = [channel_matrix(agent, a, coupling) for a in anchors]
    mean_meas = []
    for h0 in h_true:
        noise = (
            rng.standard_normal((n_draws, 3, 3)) + 1j * rng.standard_normal((n_draws, 3, 3))
        ) * (SIGMA / np.sqrt(2.0))
        mean_meas.append(h0 + noise.mean(axis=0))

    def log_lhf(step):
        dep = retracted(agent, step)
        total = 0.0
        for h_meas, anchor in zip(mean_meas, anchors):
            diff = h_meas - channel_matrix(dep, anchor, coupling)
            total += float(np.sum(np.abs(diff) ** 2))
        return -total / SIGMA**2

    steps = np.array([1e-4, 1e-4, 1e-4, 1e-4, 1e-4, 1e-4])
    hessian = np.empty((6, 6))
    for i in range(6):
        for j in range(i, 6):
            ei = np.zeros(6)
            ej = np.zeros(6)
            ei[i] = steps[i]
            ej[j] = steps[j]
            value = (
                log_lhf(ei + ej) - log_lhf(ei - ej) - log_lhf(-ei + ej) + log_lhf(-ei - ej)
            ) / (4 * steps[i] * steps[j])
            hessian[i, j] = hessian[j, i] = value

    estimate = -hessian
    scale = np.abs(info.matrix).max()
    dominant = np.abs(info.matrix) > 0.05 * scale
    rel = np.abs(estimate - info.matrix)[dominant] / np.abs(info.matrix)[dominant]
    assert rel.max() < 0.03


def test_single_link_spectrum_against_oracle(coupling):
    # Coaxial single-anchor link: the 6x6 information block must agree with
    # the curvature of the exact quadratic model; its spectrum reveals the
    # unobservable orientation direction (rotation about the link axis
    # composed with the x-axis Euler derivative structure).
    tx = Deployment.identity([0.0, 0.0, 0.0])
    rx = Deployment.identity([0.5, 0.0, 0.0])
    blk = assemble_fim([tx], [rx], coupling, SIGMA, cooperative=False).matrix
    oracle, _, _ = link_information(tx, rx, coupling, SIGMA, rx_is_agent=False)
    assert np.allclose(blk, oracle, rtol=1e-10)
    assert np.allclose(blk, blk.T, rtol=1e-12)
    eigvals = np.linalg.eigvalsh(blk)
    # rotating the transmitter about the link axis (gamma at this pose)
    # leaves H = diag(1, -1/2, -1/2) structure unchanged only up to first
    # order if the factor commutes; numerically the block is rank deficient
    h = 1e-6
    plus = deployment_from_euler(tx.position, [0, 0, h])
    minus = deployment_from_euler(tx.position, [0, 0, -h])
    dh = (channel_matrix(plus, rx, coupling) - channel_matrix(minus, rx, coupling)) / (2 * h)
    sensitivity = np.sum(np.imag(dh) ** 2)
    if sensitivity < 1e-20:
        assert eigvals[0] < 1e-6 * eigvals[-1]
    else:
        assert eigvals[0] > 0


def test_singular_topology_in_stack_leaves_the_others_alone(room, anchors, coupling):
    topos = [_topology(4, 60 + k, room, anchors) for k in range(5)]
    topos[2] = far_out(topos[2])
    poses = np.array([t.pose_row for t in topos])
    for cooperative in (True, False):
        bounds = peb_stack(_fim_stack(poses, anchors, coupling, SIGMA, cooperative))
        assert np.isnan(bounds[2]) and np.all(np.isfinite(np.delete(bounds, 2)))
        for k, topo in enumerate(topos):
            info = assemble_fim(topo.agents, anchors, coupling, SIGMA, cooperative)
            if k == 2:
                with pytest.raises(SingularFim):
                    peb(info, 0)
            else:
                assert bounds[k] == peb(info, 0)
        others = np.delete(poses, 2, axis=0)
        clean = peb_stack(_fim_stack(others, anchors, coupling, SIGMA, cooperative))
        assert np.array_equal(clean, np.delete(bounds, 2))


def test_peb_stack_matches_peb_of_every_agent(room, anchors, coupling):
    topos = [_topology(3, 70 + k, room, anchors) for k in range(3)]
    poses = np.array([t.pose_row for t in topos])
    matrices = _fim_stack(poses, anchors, coupling, SIGMA, cooperative=True)
    for agent in range(3):
        expected = [peb(FisherInfo(matrix, 3), agent) for matrix in matrices]
        assert np.array_equal(peb_stack(matrices, agent), expected)


# Property tests: the assembly follows the network, not the bookkeeping.


def _relative_gap(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@_PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 5), data=st.data())
def test_agent_permutation_permutes_fim_blocks(room, anchors, coupling, seed, m, data):
    topo = _topology(m, seed, room, anchors)
    order = data.draw(st.permutations(range(m)))
    for cooperative in (True, False):
        info = assemble_fim(topo.agents, anchors, coupling, SIGMA, cooperative)
        permuted = assemble_fim([topo.agents[k] for k in order], anchors, coupling, SIGMA, cooperative)
        index = np.concatenate([np.arange(6 * k, 6 * k + 6) for k in order])
        assert _relative_gap(permuted.matrix, info.matrix[np.ix_(index, index)]) < 1e-10


@_PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 5),
    shift=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
)
def test_common_translation_leaves_fim_unchanged(room, anchors, coupling, seed, m, shift):
    topo = _topology(m, seed, room, anchors)

    def moved(nodes):
        return [Deployment(n.position + np.array(shift), n.euler, n.rotation) for n in nodes]

    for cooperative in (True, False):
        info = assemble_fim(topo.agents, anchors, coupling, SIGMA, cooperative)
        shifted = assemble_fim(moved(topo.agents), moved(anchors), coupling, SIGMA, cooperative)
        assert _relative_gap(shifted.matrix, info.matrix) < 1e-10


@_PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 6))
def test_noncoop_fim_has_zero_off_diagonal_blocks(room, anchors, coupling, seed, m):
    topo = _topology(m, seed, room, anchors)
    blocks = assemble_fim(topo.agents, anchors, coupling, SIGMA, False).matrix.reshape(m, 6, m, 6)
    off_diagonal = ~np.eye(m, dtype=bool)
    assert np.all(blocks.transpose(0, 2, 1, 3)[off_diagonal] == 0.0)


@_PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6), data=st.data())
def test_permuting_the_stack_permutes_the_bounds(room, anchors, coupling, seed, m, data):
    poses = np.array([_topology(m, [seed, k], room, anchors).pose_row for k in range(4)])
    order = list(data.draw(st.permutations(range(4))))
    for cooperative in (True, False):
        bounds = peb_stack(_fim_stack(poses, anchors, coupling, SIGMA, cooperative))
        permuted = peb_stack(_fim_stack(poses[order], anchors, coupling, SIGMA, cooperative))
        assert np.array_equal(permuted, bounds[order], equal_nan=True)


def _reoriented(agents, rotations):
    return [deployment_from_rotation(a.position, r) for a, r in zip(agents, rotations)]


@_PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6))
def test_bounds_do_not_depend_on_agent_orientations(room, anchors, coupling, seed, m):
    # orientation is a nuisance: turning every agent leaves every position bound
    topo = _topology(m, seed, room, anchors)
    turned = _reoriented(topo.agents, sample_uniform_rotation(np.random.default_rng(seed), m))
    for cooperative in (True, False):
        bounds = peb_all(assemble_fim(topo.agents, anchors, coupling, SIGMA, cooperative))
        again = peb_all(assemble_fim(turned, anchors, coupling, SIGMA, cooperative))
        assert np.allclose(again, bounds, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("beta", [np.pi / 2, -np.pi / 2])
def test_gimbal_locked_agent_keeps_its_bound(room, anchors, coupling, beta):
    # Euler beta = +-pi/2 is no special orientation for the bound
    for m in (1, 3):
        topo = _topology(m, 80 + m, room, anchors)
        locked = [deployment_from_euler(topo.agents[0].position, [0.4, beta, 0.0])]
        locked += topo.agents[1:]
        for cooperative in (True, False):
            bounds = peb_all(assemble_fim(topo.agents, anchors, coupling, SIGMA, cooperative))
            turned = peb_all(assemble_fim(locked, anchors, coupling, SIGMA, cooperative))
            assert np.all(np.isfinite(turned))
            assert np.allclose(turned, bounds, rtol=1e-9, atol=0.0)


def test_noncooperative_bound_ignores_the_other_agents(room, anchors, coupling):
    # agent 0 shares no parameter with agent 2 without cooperation, so
    # moving agent 2 far out leaves agent 0's bound as it was, bit for bit
    topo = _topology(3, 3, room, anchors)
    agent = topo.agents[2]
    far = deployment_from_rotation(agent.position + [100.0, 0.0, 0.0], agent.rotation)
    moved = topo.agents[:2] + [far]
    expected = peb(assemble_fim(topo.agents, anchors, coupling, SIGMA, False), 0)
    assert peb(assemble_fim(moved, anchors, coupling, SIGMA, False), 0) == expected
    with pytest.raises(SingularFim):
        peb(assemble_fim(moved, anchors, coupling, SIGMA, True), 0)
