import numpy as np
import pytest

from miloc import pairml
from miloc.channel import channel_matrix
from miloc.estimators import LsProblem
from miloc.geometry import Deployment, join_poses, sample_uniform_rotation
from miloc.pairml import (
    ZeroScore,
    _candidate_costs,
    decompose_links,
    distance_estimates,
    ml_distance,
    pair_ml_estimate,
)

from conftest import random_deployment
from oracles import (
    AmbiguousDirection,
    DegenerateMeasurement,
    PositionValidity,
    candidate_cost,
    constrained_dipole_fit,
    decompose_link,
    deployment_from_rotation,
    dipole_factor,
    direction_estimate,
    pair_ml_per_agent,
    resolve_position,
)


def _noiseless_link(rng, coupling, min_r=0.1):
    while True:
        agent, anchor = random_deployment(rng), random_deployment(rng)
        if np.linalg.norm(agent.position - anchor.position) > min_r:
            return agent, anchor, channel_matrix(agent, anchor, coupling)


def test_noiseless_orientation_score_and_singular_values(coupling):
    rng = np.random.default_rng(0)
    for _ in range(200):
        agent, anchor, h = _noiseless_link(rng, coupling)
        svd, o_hat, z = decompose_link(h, anchor)
        r = np.linalg.norm(agent.position - anchor.position)
        scale = coupling / r**3
        assert np.allclose(svd.s, scale * np.array([1.0, 0.5, 0.5]), rtol=1e-9)
        assert np.abs(o_hat @ agent.rotation.T - np.eye(3)).max() < 1e-9
        assert np.isclose(z, 1.5 * coupling / r**3, rtol=1e-9)


def test_orientation_estimate_is_always_proper():
    # Holds for arbitrary measured matrices, not only model outputs.
    rng = np.random.default_rng(1)
    anchor = Deployment.identity([0.0, 0.0, 0.0])
    for _ in range(300):
        h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        _, o_hat, z = decompose_link(h, anchor)
        assert np.abs(o_hat.T @ o_hat - np.eye(3)).max() < 1e-12
        assert abs(np.linalg.det(o_hat) - 1.0) < 1e-12
        assert z >= 0.0


def test_score_is_constrained_trace_maximum():
    # Oracle: z must dominate trace(A F(u) O) over a large random sample of
    # feasible (direction, rotation) pairs, and must be attained by the
    # closed-form maximizers.
    rng = np.random.default_rng(2)
    anchor = Deployment.identity([0.0, 0.0, 0.0])
    for _ in range(5):
        a = rng.standard_normal((3, 3))
        svd, o_hat, z = decompose_link(1j * a.T, anchor)  # A = Im(H)^T = a
        f_hat = constrained_dipole_fit(svd)
        attained = np.trace(a @ f_hat @ o_hat)
        assert np.isclose(attained, z, rtol=1e-10)
        best = -np.inf
        for _ in range(10_000):
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            rot = sample_uniform_rotation(rng)
            best = max(best, np.trace(a @ dipole_factor(u) @ rot))
        assert best <= z + 1e-12


def test_constrained_dipole_fit_eigenstructure():
    rng = np.random.default_rng(3)
    anchor = Deployment.identity([0.0, 0.0, 0.0])
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    svd, _, _ = decompose_link(h, anchor)
    f_hat = constrained_dipole_fit(svd)
    assert np.allclose(np.sort(np.linalg.eigvalsh(f_hat)), [-0.5, -0.5, 1.0], atol=1e-12)


def test_degenerate_measurement_raises():
    anchor = Deployment.identity([0.0, 0.0, 0.0])
    with pytest.raises(DegenerateMeasurement):
        decompose_link(np.zeros((3, 3), dtype=complex), anchor)


def test_ml_distance_exact_inversion(coupling):
    r = 0.5
    z = 1.5 * coupling / r**3
    assert np.isclose(z, 3.634e-4, rtol=1e-3)
    assert np.isclose(ml_distance(z, coupling), r, rtol=1e-12)
    # power law: doubling the score divides the distance by 2^(1/3)
    assert np.isclose(ml_distance(2 * z, coupling), r / 2 ** (1 / 3), rtol=1e-12)
    with pytest.raises(ZeroScore):
        ml_distance(0.0, coupling)


def test_ml_distance_maximizes_link_likelihood(coupling):
    # 1-d oracle: r_hat is the global maximum of the distance-dependent part
    # of the log-likelihood, L(r) = -1.5 c^2 / r^6 + 2 c z / r^3.
    rng = np.random.default_rng(4)
    for _ in range(10):
        z = 10 ** rng.uniform(-5, -2)
        r_hat = ml_distance(z, coupling)
        grid = np.linspace(0.05 * r_hat, 5.0 * r_hat, 20_001)
        values = -1.5 * coupling**2 / grid**6 + 2.0 * coupling * z / grid**3
        best = grid[np.argmax(values)]
        assert abs(best - r_hat) < (grid[1] - grid[0]) * 1.01


def test_direction_estimate_coaxial(coupling):
    tx = Deployment.identity([0.0, 0.0, 0.0])
    rx = Deployment.identity([0.5, 0.0, 0.0])
    svd, _, _ = decompose_link(channel_matrix(tx, rx, coupling), rx)
    u = direction_estimate(svd)
    assert np.isclose(abs(u[0]), 1.0, atol=1e-12)
    assert np.isclose(np.linalg.norm(u), 1.0, atol=1e-12)


def test_direction_estimate_random_geometry(coupling):
    rng = np.random.default_rng(5)
    for _ in range(200):
        agent, anchor, h = _noiseless_link(rng, coupling)
        svd, _, _ = decompose_link(h, anchor)
        u_hat = direction_estimate(svd)
        u_true = anchor.position - agent.position
        u_true /= np.linalg.norm(u_true)
        assert abs(abs(u_hat @ u_true) - 1.0) < 1e-9
        assert np.isclose(np.linalg.norm(u_hat), 1.0, atol=1e-12)


def test_ambiguous_direction_raises():
    anchor = Deployment.identity([0.0, 0.0, 0.0])
    svd, _, _ = decompose_link(1j * np.eye(3), anchor)
    with pytest.raises(AmbiguousDirection):
        direction_estimate(svd)


def test_resolve_position_wall_anchor(room):
    anchor_pos = np.array([0.75, 0.0, 0.375])
    agent_pos = np.array([0.6, 0.9, 0.8])
    direction = agent_pos - anchor_pos
    distance = np.linalg.norm(direction)
    direction /= distance
    candidates, chosen, validity = resolve_position(anchor_pos, direction, distance, room)
    assert validity is PositionValidity.UNIQUE_IN_ROOM
    assert np.allclose(chosen, agent_pos, atol=1e-12)
    assert np.allclose(candidates.mean(axis=0), anchor_pos, atol=1e-12)


def test_resolve_position_center_anchor_is_ambiguous(room):
    candidates, chosen, validity = resolve_position(
        room.center, np.array([1.0, 0.0, 0.0]), 0.3, room
    )
    assert validity is PositionValidity.BOTH_IN_ROOM
    assert chosen is None


def test_resolve_position_outside_room(room):
    _, chosen, validity = resolve_position(
        np.array([0.75, 0.0, 0.375]), np.array([0.0, 1.0, 0.0]), room.diagonal * 1.5, room
    )
    assert validity is PositionValidity.NONE_IN_ROOM
    assert chosen is None


def _measurements_for(agent, anchors, coupling, rng=None, sigma=0.0):
    """Measured Im(H) of the agent's links to the anchors, (K, 3, 3)."""
    measurements = []
    for anchor in anchors:
        h = channel_matrix(agent, anchor, coupling)
        if sigma > 0:
            w = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            h = h + w * sigma / np.sqrt(2)
        measurements.append(np.imag(h))
    return np.array(measurements).reshape(-1, 3, 3)


def _anchor_arrays(anchors):
    positions = np.array([a.position for a in anchors]).reshape(-1, 3)
    return positions, np.array([a.rotation for a in anchors]).reshape(-1, 3, 3)


def _anchor_problems(measured, anchors, coupling):
    """The stack of one-agent problems of measurements (n, K, 3, 3), link k to anchor k."""
    positions, rotations = _anchor_arrays(anchors)
    return LsProblem(
        n_agents=1,
        anchor_positions=positions,
        anchor_rotations=rotations,
        links=[(0, 1 + k) for k in range(len(positions))],
        y_imag=measured,
        coupling=coupling,
    )


def _pair_ml_one(measurements, anchors, coupling, room):
    """pair_ml_estimate of one agent as a Deployment."""
    alone = _anchor_problems(measurements[None], anchors, coupling)
    position, rotation = pair_ml_estimate(alone, room)
    return deployment_from_rotation(position[0], rotation[0])


def test_pair_ml_noiseless_exact_recovery(room, anchors, coupling):
    rng = np.random.default_rng(7)
    for _ in range(100):
        agent = random_deployment(rng, room)
        if min(np.linalg.norm(agent.position - a.position) for a in anchors) < 0.15:
            continue
        measurements = _measurements_for(agent, anchors, coupling)
        est = _pair_ml_one(measurements, anchors, coupling, room)
        assert np.linalg.norm(est.position - agent.position) < 1e-8
        assert np.abs(est.rotation @ agent.rotation.T - np.eye(3)).max() < 1e-9


def test_pair_ml_single_anchor(room, anchors, coupling):
    rng = np.random.default_rng(8)
    agent = deployment_from_rotation([0.4, 0.9, 0.6], sample_uniform_rotation(rng))
    measurements = _measurements_for(agent, anchors[:1], coupling)
    est = _pair_ml_one(measurements, anchors[:1], coupling, room)
    assert np.linalg.norm(est.position - agent.position) < 1e-8


def test_pair_ml_no_measurements(room, anchors, coupling):
    alone = _anchor_problems(np.zeros((1, 0, 3, 3)), [], coupling)  # no anchor link at all
    positions, rotations = pair_ml_estimate(alone, room)
    assert np.isnan(positions).all() and np.isnan(rotations).all()
    # in a stack, an agent whose links are all zero is flagged, and the others are their own
    _, measured = _noisy_agents(3, room, anchors, coupling, np.random.default_rng(14), sigma=1e-6)
    measured[1] = 0.0
    positions, rotations = pair_ml_estimate(_anchor_problems(measured, anchors, coupling), room)
    assert np.isnan(positions[1]).all() and np.isnan(rotations[1]).all()
    for agent in (0, 2):
        one = pair_ml_estimate(_anchor_problems(measured[agent : agent + 1], anchors, coupling), room)
        assert np.array_equal(positions[agent], one[0][0])
        assert np.array_equal(rotations[agent], one[1][0])


def test_pair_ml_noisy_accuracy(room, anchors, coupling):
    # With reference noise the estimate should stay within a few centimeters
    # for interior agents; this is a sanity band, the CDF-level behavior is
    # covered by the acceptance suite.
    rng = np.random.default_rng(9)
    errors = []
    for _ in range(100):
        agent = random_deployment(rng, room)
        if min(np.linalg.norm(agent.position - a.position) for a in anchors) < 0.15:
            continue
        measurements = _measurements_for(agent, anchors, coupling, rng, sigma=1e-5 * 0.0545)
        est = _pair_ml_one(measurements, anchors, coupling, room)
        errors.append(np.linalg.norm(est.position - agent.position))
    assert np.median(errors) < 0.05


def test_scale_equivariance(room, anchors, coupling):
    rng = np.random.default_rng(10)
    agent = random_deployment(rng, room)
    h = channel_matrix(agent, anchors[0], coupling)
    svd, o_hat, z = decompose_link(h, anchors[0])
    lam = 3.7
    svd2, o_hat2, z2 = decompose_link(lam * h, anchors[0])
    assert np.isclose(z2, lam * z, rtol=1e-12)
    assert np.allclose(o_hat2, o_hat, atol=1e-12)
    assert np.allclose(direction_estimate(svd2), direction_estimate(svd), atol=1e-12)
    assert np.isclose(
        ml_distance(z2, coupling), ml_distance(z, coupling) * lam ** (-1 / 3), rtol=1e-12
    )


def test_estimate_link_reports_candidates(room, anchors, coupling):
    # one link's score, ML distance and direction put the agent on a candidate
    rng = np.random.default_rng(11)
    agent = random_deployment(rng, room)
    h = channel_matrix(agent, anchors[0], coupling)
    svd, _, score = decompose_link(h, anchors[0])
    distance = ml_distance(score, coupling)
    direction = direction_estimate(svd)
    candidates, _, _ = resolve_position(anchors[0].position, direction, distance, room)
    assert candidates.shape == (2, 3)
    assert score > 0
    errs = np.linalg.norm(candidates - agent.position, axis=1)
    assert errs.min() < 1e-9


def test_distance_estimates(room, anchors, coupling):
    rng = np.random.default_rng(12)
    agent = random_deployment(rng, room)
    measurements = _measurements_for(agent, anchors, coupling)
    distances = distance_estimates(_anchor_problems(measurements[None], anchors, coupling))
    assert distances.shape == (1, 4)
    true = [np.linalg.norm(agent.position - a.position) for a in anchors]
    assert np.allclose(distances[0], true, rtol=1e-9)


def _noisy_agents(count, room, anchors, coupling, rng, sigma):
    """count agents at least 0.15 m from every anchor and their (count, K, 3, 3) measurements."""
    agents, measured = [], []
    while len(agents) < count:
        agent = random_deployment(rng, room)
        if min(np.linalg.norm(agent.position - a.position) for a in anchors) < 0.15:
            continue
        agents.append(agent)
        measured.append(_measurements_for(agent, anchors, coupling, rng, sigma))
    return agents, np.array(measured)


def test_stacked_pair_ml_equals_one_agent_calls(room, anchors, coupling):
    # strong noise sends some agents (2 of these 40) to the both-inside
    # fallback; every agent must get its one-agent result exactly
    rng = np.random.default_rng(13)
    _, measured = _noisy_agents(40, room, anchors, coupling, rng, sigma=2e-3)
    stacked_p, stacked_o = pair_ml_estimate(_anchor_problems(measured, anchors, coupling), room)
    assert stacked_p.shape == (40, 3) and stacked_o.shape == (40, 3, 3)
    for agent in range(40):
        alone_p, alone_o = pair_ml_estimate(
            _anchor_problems(measured[agent : agent + 1], anchors, coupling), room
        )
        assert np.array_equal(stacked_p[agent], alone_p[0])
        assert np.array_equal(stacked_o[agent], alone_o[0])


def _every_branch_stack(anchors, coupling, room, rng):
    """A stack of one-agent problems whose agents reach every branch of the pair-ML decision.

    The anchors are the given ones and a fifth on the wall y = 0.  Agents in
    the room at noise levels from 1e-7 to 1e-2 decide by a unique candidate,
    by a cost ratio or by the both-inside fallback, many of them past their
    nearest link; an agent 30 m out, whose links carry little but noise,
    ranges far outside the room and falls back both outside; an agent
    on the wall y = 0 mirrored through an anchor onto the fifth anchor
    decides against a candidate on that anchor; and one agent has a
    zero (unusable) link.
    """
    anchors = list(anchors) + [Deployment.identity(np.array([0.3, 0.0, 0.6]))]
    agents = [random_deployment(rng, room) for _ in range(60)]
    sigmas = [(1e-7, 1e-4, 1e-3, 3e-3, 1e-2)[m % 5] for m in range(60)]
    agents.append(deployment_from_rotation([30.0, 0.7, 0.7], sample_uniform_rotation(rng)))
    sigmas.append(1e-8)
    # 2 * anchor 0 - agent = anchor 4, and anchor 0 is the nearest
    agents.append(deployment_from_rotation([1.2, 0.0, 0.15], sample_uniform_rotation(rng)))
    sigmas.append(1e-15)
    agents.append(random_deployment(rng, room))
    sigmas.append(1e-4)
    measured = np.array(
        [_measurements_for(a, anchors, coupling, rng, sigma) for a, sigma in zip(agents, sigmas)]
    )
    measured[-1, 1] = 0.0
    return _anchor_problems(measured, anchors, coupling)


def test_pair_ml_equals_per_agent_oracle_on_every_branch(room, anchors, coupling):
    # the batched decision against the loop that visits one agent, and one
    # link pair of candidates, at a time
    alone = _every_branch_stack(anchors, coupling, room, np.random.default_rng(17))
    positions, rotations = pair_ml_estimate(alone, room)
    expected_p, expected_o, branches = pair_ml_per_agent(alone, room)
    assert set(branches) == {"unique", "cost", "anchor", "inside", "outside"}
    assert branches[-3:-1] == ["outside", "anchor"]
    assert np.array_equal(positions, expected_p)
    assert np.array_equal(rotations, expected_o)


def test_svd_sign_flips_change_no_estimate(room, anchors, coupling, monkeypatch):
    # numpy's SVD fixes no signs; flipping a column of U with the same column
    # of V must leave the orientation, the score and every pair-ML pose bit for bit
    alone = _every_branch_stack(anchors, coupling, room, np.random.default_rng(18))
    s, v, o_hat, z = decompose_links(alone.y_imag, alone.anchor_rotations)
    positions, rotations = pair_ml_estimate(alone, room)

    svd, rng = np.linalg.svd, np.random.default_rng(19)

    def flipped(a):
        u, s, vt = svd(a)
        signs = rng.choice([-1.0, 1.0], size=s.shape)
        return u * signs[..., None, :], s, vt * signs[..., :, None]

    monkeypatch.setattr(pairml.np.linalg, "svd", flipped)
    s_f, v_f, o_hat_f, z_f = decompose_links(alone.y_imag, alone.anchor_rotations)
    assert not np.array_equal(v_f, v)
    assert np.array_equal(np.abs(v_f), np.abs(v))
    assert np.array_equal(s_f, s)
    assert np.array_equal(o_hat_f, o_hat)
    assert np.array_equal(z_f, z)
    positions_f, rotations_f = pair_ml_estimate(alone, room)
    assert np.array_equal(positions_f, positions)
    assert np.array_equal(rotations_f, rotations)


def test_candidate_cost_matches_per_link_oracle(room, anchors, coupling):
    rng = np.random.default_rng(14)
    agents, measured = _noisy_agents(20, room, anchors, coupling, rng, sigma=1e-4)
    positions, rotations = _anchor_arrays(anchors)
    alone = _anchor_problems(measured, anchors, coupling)
    candidates = np.array([[[room.sample_point(rng) for _ in range(2)]] for _ in agents])
    candidate_rotations = np.array([[sample_uniform_rotation(rng)] for _ in agents])
    wanted = np.ones((20, 1), dtype=bool)
    costs = _candidate_costs(alone, candidates, candidate_rotations, wanted)
    assert costs.shape == (20, 1, 2)
    for index, y_imag in enumerate(measured):
        for side in range(2):
            reference = candidate_cost(
                candidates[index, 0, side], candidate_rotations[index, 0], y_imag, anchors, coupling
            )
            assert abs(costs[index, 0, side] - reference) <= 1e-12 * reference
    # a candidate on an anchor scores inf in both, and its partner is still scored
    y_imag = measured[0]
    candidates[0, 0, 1] = positions[2]
    on_anchor = _candidate_costs(alone, candidates, candidate_rotations, wanted)
    assert on_anchor[0, 0, 1] == np.inf
    assert np.array_equal(np.delete(on_anchor.ravel(), 1), np.delete(costs.ravel(), 1))
    rotation = candidate_rotations[0, 0]
    assert candidate_cost(positions[2], rotation, y_imag, anchors, coupling) == np.inf
    # a link outside wanted is not scored
    wanted[3] = False
    assert np.all(_candidate_costs(alone, candidates, candidate_rotations, wanted)[3] == np.inf)


def test_distance_estimates_match_per_link_decomposition(room, anchors, coupling):
    rng = np.random.default_rng(15)
    _, measured = _noisy_agents(6, room, anchors, coupling, rng, sigma=1e-5)
    measured[1, 2] = 0.0
    measured[4, 0] = 0.0
    measured[4, 3] = 0.0
    distances = distance_estimates(_anchor_problems(measured, anchors, coupling))
    assert distances.shape == (6, 4)
    zero = ~measured.any(axis=(2, 3))
    assert np.array_equal(np.isnan(distances), zero)
    for agent in range(6):
        for k, anchor in enumerate(anchors):
            if zero[agent, k]:
                with pytest.raises(DegenerateMeasurement):
                    decompose_link(1j * measured[agent, k], anchor)
                continue
            _, _, z = decompose_link(1j * measured[agent, k], anchor)
            assert distances[agent, k] == ml_distance(z, coupling)
    # an agent without a single usable link is flagged, and the others are unchanged
    measured[3] = 0.0
    flagged = distance_estimates(_anchor_problems(measured, anchors, coupling))
    assert np.isnan(flagged[3]).all()
    others = [0, 1, 2, 4, 5]
    assert np.array_equal(flagged[others], distances[others], equal_nan=True)


def test_candidate_cost_is_the_agents_own_residual(room, anchors, coupling):
    # a candidate of agent index of a stack scores the squared residual norm
    # of that agent's own one-agent problem, and pairml has no gain path of its own
    rng = np.random.default_rng(16)
    _, measured = _noisy_agents(5, room, anchors, coupling, rng, sigma=1e-4)
    alone = _anchor_problems(measured, anchors, coupling)
    candidates = np.array([[[room.sample_point(rng) for _ in range(2)]] for _ in range(5)])
    rotations = np.array([[sample_uniform_rotation(rng)] for _ in range(5)])
    costs = _candidate_costs(alone, candidates, rotations, np.ones((5, 1), dtype=bool))
    for index in range(5):
        own = _anchor_problems(measured[index : index + 1], anchors, coupling)
        for side in range(2):
            residual = own.residual(join_poses(candidates[index, :, side], rotations[index]))
            assert costs[index, 0, side] == np.sum(residual**2)
    assert not hasattr(pairml, "channel_gain_batch")
