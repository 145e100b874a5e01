import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miloc.channel import channel_matrix
from miloc.crlb import FisherInfo, SingularFim, assemble_fim, peb, peb_all
from miloc.estimators import LsProblem, pack_deployments
from miloc.geometry import Deployment
from miloc.scenario import Scheme, sample_topology, synthesize_measurements

from conftest import random_deployment
from oracles import fim_block, link_information, position_bound

SIGMA = 1e-5


def _topology(m, seed, room, anchors):
    rng = np.random.default_rng(seed)
    return sample_topology(m, room, anchors, 0.15, rng)


def test_fim_matches_residual_normal_matrix(room, anchors, coil, gparams, coupling):
    # Independent route: the information matrix must equal (2 / sigma^2) J^T J
    # for the noiseless residual Jacobian at the truth.
    topo = _topology(3, 0, room, anchors)
    info = assemble_fim(topo.agents, anchors, coupling, SIGMA, cooperative=True)
    ms = synthesize_measurements(topo, coil, gparams, Scheme.COOP, np.random.default_rng(0), sigma=0.0)
    problem = LsProblem.from_measurements(ms, anchors, 3, coupling)
    _, jac = problem.residual_and_jacobian(pack_deployments(topo.agents))
    expected = 2.0 / SIGMA**2 * (jac.T @ jac)
    assert np.allclose(info.matrix, expected, rtol=1e-9, atol=1e-6 * np.abs(expected).max())


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
    the log-likelihood over 10^4 noise draws.

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

    def log_lhf(psi):
        dep = Deployment.from_euler(psi[:3], psi[3:])
        total = 0.0
        for h_meas, anchor in zip(mean_meas, anchors):
            diff = h_meas - channel_matrix(dep, anchor, coupling)
            total += float(np.sum(np.abs(diff) ** 2))
        return -total / SIGMA**2

    psi0 = agent.as_vector()
    steps = np.array([1e-4, 1e-4, 1e-4, 1e-4, 1e-4, 1e-4])
    hessian = np.empty((6, 6))
    for i in range(6):
        for j in range(i, 6):
            ei = np.zeros(6)
            ej = np.zeros(6)
            ei[i] = steps[i]
            ej[j] = steps[j]
            value = (
                log_lhf(psi0 + ei + ej)
                - log_lhf(psi0 + ei - ej)
                - log_lhf(psi0 - ei + ej)
                + log_lhf(psi0 - ei - ej)
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
    plus = Deployment.from_euler(tx.position, [0, 0, h])
    minus = Deployment.from_euler(tx.position, [0, 0, -h])
    dh = (channel_matrix(plus, rx, coupling) - channel_matrix(minus, rx, coupling)) / (2 * h)
    sensitivity = np.sum(np.imag(dh) ** 2)
    if sensitivity < 1e-20:
        assert eigvals[0] < 1e-6 * eigvals[-1]
    else:
        assert eigvals[0] > 0


# Property tests: the assembly follows the network, not the bookkeeping.

_PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


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
