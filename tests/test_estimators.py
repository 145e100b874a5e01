import numpy as np
import pytest

import oracles
from miloc import estimators
from miloc.channel import coupling_coefficient
from miloc.estimators import (
    DimensionMismatch,
    LsProblem,
    estimate,
    levenberg_marquardt,
    multilaterate,
    pack_deployments,
    parse_init_strategy,
    unpack_parameters,
)
from miloc.geometry import rotation_to_euler, sample_uniform_rotation
from miloc.scenario import Scheme, sample_topology, synthesize_measurements


def make_problem(m, scheme, seed, coil, gparams, room, anchors, sigma=None):
    rng = np.random.default_rng(seed)
    topo = sample_topology(m, room, anchors, 0.15, rng)
    ms = synthesize_measurements(topo, coil, gparams, scheme, rng, sigma=sigma)
    coupling = coupling_coefficient(coil, coil, gparams)
    problem = LsProblem.from_measurements(ms, anchors, m, coupling)
    return topo, problem


def test_pack_unpack_roundtrip(room, anchors, coil, gparams):
    topo, _ = make_problem(3, Scheme.COOP, 0, coil, gparams, room, anchors)
    theta = pack_deployments(topo.agents)
    assert theta.shape == (18,)
    back = unpack_parameters(theta)
    for dep, orig in zip(back, topo.agents):
        assert np.allclose(dep.position, orig.position)
        assert np.abs(dep.rotation - orig.rotation).max() < 1e-9
    with pytest.raises(DimensionMismatch):
        unpack_parameters(np.zeros(7))


def test_residual_zero_at_truth_noiseless(room, anchors, coil, gparams):
    topo, problem = make_problem(4, Scheme.COOP, 1, coil, gparams, room, anchors, sigma=0.0)
    res = problem.residual(pack_deployments(topo.agents))
    # nonzero only through the euler round trip of the true orientations
    assert np.abs(res).max() < 1e-15
    assert len(res) == 9 * (4 * 4 + 4 * 3)


def test_residual_dimension_check(room, anchors, coil, gparams):
    _, problem = make_problem(2, Scheme.COOP, 2, coil, gparams, room, anchors)
    with pytest.raises(DimensionMismatch):
        problem.residual(np.zeros(13))


def test_jacobian_matches_finite_differences(room, anchors, coil, gparams):
    topo, problem = make_problem(3, Scheme.COOP, 3, coil, gparams, room, anchors)
    rng = np.random.default_rng(4)
    theta = pack_deployments(topo.agents) + rng.normal(0, 0.02, 18)
    _, jac = problem.residual_and_jacobian(theta)
    h = 1e-7
    for k in range(18):
        step = np.zeros(18)
        step[k] = h
        fd = (problem.residual(theta + step) - problem.residual(theta - step)) / (2 * h)
        denom = max(np.abs(fd).max(), 1e-30)
        assert np.abs(fd - jac[:, k]).max() / denom < 1e-5


def test_noncooperative_jacobian_is_block_diagonal(room, anchors, coil, gparams):
    topo, problem = make_problem(3, Scheme.NONCOOP, 5, coil, gparams, room, anchors)
    _, jac = problem.residual_and_jacobian(pack_deployments(topo.agents))
    # rows of agent m's links must have zero columns for every other agent
    for row, (tx, _) in enumerate(problem.links):
        block = jac[9 * row : 9 * row + 9]
        for agent in range(3):
            cols = block[:, 6 * agent : 6 * agent + 6]
            if agent == tx:
                assert np.abs(cols).max() > 0
            else:
                assert np.abs(cols).max() == 0.0


class _Quadratic:
    """r(x) = x - target: one Gauss-Newton step solves it.

    x is one vector or a stack of rows; target broadcasts against it.
    """

    def __init__(self, target):
        self.target = target

    def residual(self, x, index=None):
        return x - self.target

    def residual_and_jacobian(self, x, index=None):
        size = x.shape[-1]
        return x - self.target, np.broadcast_to(np.eye(size), x.shape + (size,))


def test_lm_solves_linear_problem_immediately():
    # With damping 1e-3 the first accepted step lands within 0.1% of the
    # solution; the remaining iterations only polish to machine precision.
    target = np.array([1.0, -2.0, 3.0])
    first = levenberg_marquardt(_Quadratic(target), np.zeros(3), max_iterations=1)
    assert np.linalg.norm(first.estimate - target) < 2e-3 * np.linalg.norm(target)
    report = levenberg_marquardt(_Quadratic(target), np.zeros(3))
    assert report.converged
    assert report.iterations <= 5
    assert np.allclose(report.estimate, target, atol=1e-9)
    assert report.final_cost < 1e-18


class _BrokenJacobian:
    """Produces non-finite normal equations at every damping level."""

    def residual(self, x, index=None):
        return x - 1.0

    def residual_and_jacobian(self, x, index=None):
        return x - 1.0, np.full(x.shape + (x.shape[-1],), np.nan)


def test_lm_reports_singular_normal_equations():
    report = levenberg_marquardt(_BrokenJacobian(), np.zeros(2))
    assert not report.converged
    assert report.normal_equations_singular


def test_lm_perfect_init_noiseless(room, anchors, coil, gparams):
    topo, problem = make_problem(3, Scheme.COOP, 6, coil, gparams, room, anchors, sigma=0.0)
    truth = pack_deployments(topo.agents)
    report = levenberg_marquardt(problem, truth)
    assert report.converged
    assert report.iterations <= 2
    assert report.final_cost < 1e-20


def test_lm_accepted_costs_monotone(room, anchors, coil, gparams):
    topo, problem = make_problem(2, Scheme.COOP, 7, coil, gparams, room, anchors)
    rng = np.random.default_rng(8)
    x0 = pack_deployments(topo.agents) + rng.normal(0, 0.1, 12)

    costs = []
    original = problem.residual_and_jacobian

    def tracking(theta, index=None):
        res, jac = original(theta, index)
        costs.append(float(np.sum(res**2)))
        return res, jac

    problem.residual_and_jacobian = tracking
    levenberg_marquardt(problem, x0)
    # evaluations happen only at accepted iterates; the sequence never rises
    assert all(b <= a + 1e-300 for a, b in zip(costs, costs[1:]))


def test_perfect_init_exact_recovery(room, anchors, coil, gparams):
    topo, problem = make_problem(4, Scheme.COOP, 9, coil, gparams, room, anchors, sigma=0.0)
    truth = pack_deployments(topo.agents)
    report = estimate(problem, "perfect", truth=truth)
    for agent in range(4):
        est = report.estimate[6 * agent : 6 * agent + 3]
        assert np.linalg.norm(est - topo.agents[agent].position) < 1e-8


def test_noncoop_joint_equals_per_agent_decomposition(room, anchors, coil, gparams):
    # The anchor-only Jacobian is block diagonal, so the joint minimizer is
    # the concatenation of the per-agent minimizers.  Compared at a sharp
    # noiseless minimum, where solver termination slack does not blur the
    # solutions; the noisy variant below is bounded by the stopping tolerance.
    topo, problem = make_problem(3, Scheme.NONCOOP, 10, coil, gparams, room, anchors, sigma=0.0)
    truth = pack_deployments(topo.agents)
    rng = np.random.default_rng(20)
    start = truth + rng.normal(0, 0.01, truth.size)
    rep_joint = levenberg_marquardt(problem, start)
    rep_split = estimate(problem, "perfect", truth=start)
    assert np.abs(rep_joint.estimate - rep_split.estimate).max() < 1e-10

    topo_n, problem_n = make_problem(3, Scheme.NONCOOP, 21, coil, gparams, room, anchors)
    truth_n = pack_deployments(topo_n.agents)
    rep_joint_n = levenberg_marquardt(problem_n, truth_n)
    rep_split_n = estimate(problem_n, "perfect", truth=truth_n)
    # with noise both stop within termination tolerance of the same minimum
    assert np.isclose(rep_joint_n.final_cost, rep_split_n.final_cost, rtol=1e-9)
    assert np.abs(rep_joint_n.estimate - rep_split_n.estimate).max() < 1e-5


def test_coop_without_agent_links_equals_noncoop(room, anchors, coil, gparams):
    # noiseless, perturbed start: both paths converge to the same sharp minimum
    topo, coop_problem = make_problem(3, Scheme.COOP, 11, coil, gparams, room, anchors, sigma=0.0)
    truth = pack_deployments(topo.agents)
    rng = np.random.default_rng(22)
    truth = truth + rng.normal(0, 0.01, truth.size)
    anchor_rows = np.where(coop_problem.links[:, 1] >= 3)[0]
    stripped = LsProblem(
        n_agents=3,
        anchor_positions=coop_problem.anchor_positions,
        anchor_rotations=coop_problem.anchor_rotations,
        links=coop_problem.links[anchor_rows],
        y_imag=coop_problem.y_imag[anchor_rows],
        coupling=coop_problem.coupling,
    )
    rep_a = levenberg_marquardt(stripped, truth)
    rep_b = estimate(stripped, "perfect", truth=truth)
    assert np.abs(rep_a.estimate - rep_b.estimate).max() < 1e-10


def test_cooperative_follows_the_links(room, anchors, coil, gparams):
    topo, coop = make_problem(3, Scheme.COOP, 23, coil, gparams, room, anchors)
    _, noncoop = make_problem(3, Scheme.NONCOOP, 23, coil, gparams, room, anchors)
    assert coop.cooperative and not noncoop.cooperative
    # the joint solve uses every link, so its cost is the problem's cost
    report = estimate(coop, "perfect", truth=pack_deployments(topo.agents))
    assert np.isclose(report.final_cost, coop.cost(report.estimate), rtol=1e-12, atol=0.0)


def test_anchor_link_rows(room, anchors, coil, gparams):
    for scheme in (Scheme.NONCOOP, Scheme.COOP):
        _, problem = make_problem(3, scheme, 24, coil, gparams, room, anchors)
        rows = problem.anchor_link_rows()
        assert rows.shape == (3, 4)
        assert np.array_equal(problem.links[rows, 0], np.repeat([[0], [1], [2]], 4, axis=1))
        assert np.array_equal(problem.links[rows, 1], np.tile(np.arange(3, 7), (3, 1)))
    # agent 1 lacks its link to the last anchor
    keep = ~((problem.links[:, 0] == 1) & (problem.links[:, 1] == 6))
    uneven = LsProblem(
        n_agents=3,
        anchor_positions=problem.anchor_positions,
        anchor_rotations=problem.anchor_rotations,
        links=problem.links[keep],
        y_imag=problem.y_imag[keep],
        coupling=problem.coupling,
    )
    with pytest.raises(ValueError):
        uneven.anchor_link_rows()


def test_turbols_never_worse_than_its_init(room, anchors, coil, gparams):
    topo, problem = make_problem(4, Scheme.COOP, 12, coil, gparams, room, anchors)
    report = estimate(problem, "pairml", room=room)
    from miloc.estimators import pairml_initialization

    init_cost = problem.cost(pairml_initialization(problem, room))
    assert report.final_cost <= init_cost + 1e-18


def test_random_restarts_deterministic_and_best_of(room, anchors, coil, gparams):
    topo, problem = make_problem(1, Scheme.NONCOOP, 13, coil, gparams, room, anchors)
    rep1 = estimate(problem, "random:3", room=room, rng=np.random.default_rng(42))
    rep2 = estimate(problem, "random:3", room=room, rng=np.random.default_rng(42))
    assert np.array_equal(rep1.estimate, rep2.estimate)
    assert rep1.initializations_used == 3
    single = estimate(problem, "random:1", room=room, rng=np.random.default_rng(42))
    assert rep1.final_cost <= single.final_cost + 1e-18


def _anchor_stack(seeds, coil, gparams, room, anchors):
    """One single-agent problem stacked over every agent of several noisy networks."""
    singles = []
    for seed in seeds:
        _, problem = make_problem(4, Scheme.NONCOOP, seed, coil, gparams, room, anchors)
        singles += [oracles.agent_problem(problem, agent) for agent in range(4)]
    stack = LsProblem(
        n_agents=1,
        anchor_positions=singles[0].anchor_positions,
        anchor_rotations=singles[0].anchor_rotations,
        links=singles[0].links,
        y_imag=np.stack([p.y_imag for p in singles]),
        coupling=singles[0].coupling,
    )
    return stack, singles


def _random_starts(count, rng, lo, hi):
    return np.array(
        [
            np.hstack([rng.uniform(lo, hi, 3), rotation_to_euler(sample_uniform_rotation(rng))])
            for _ in range(count)
        ]
    )


def test_stacked_residual_and_jacobian_match_row_by_row(coil, gparams, room, anchors):
    stack, singles = _anchor_stack([30], coil, gparams, room, anchors)
    theta = _random_starts(len(singles), np.random.default_rng(31), 0.0, 1.5)
    index = np.array([3, 0, 2])
    res, jac = stack.residual_and_jacobian(theta[index], index)
    assert res.shape == (3, 9 * len(stack.links)) and jac.shape == res.shape + (6,)
    assert np.array_equal(stack.residual(theta[index], index), res)
    for row, b in enumerate(index):
        res_b, jac_b = singles[b].residual_and_jacobian(theta[b])
        assert res_b.shape == (9 * len(stack.links),) and jac_b.shape == (len(res_b), 6)
        assert np.allclose(res[row], res_b, rtol=0.0, atol=1e-18)
        assert np.allclose(jac[row], jac_b, rtol=1e-13, atol=1e-20)


def test_stacked_lm_matches_per_problem_oracle(coil, gparams, room, anchors):
    # starts inside the room and well outside it: some restarts run off
    stack, singles = _anchor_stack([32, 33, 34], coil, gparams, room, anchors)
    rng = np.random.default_rng(35)
    x0 = np.vstack(
        [
            _random_starts(len(singles) // 2, rng, 0.0, 1.5),
            _random_starts(len(singles) - len(singles) // 2, rng, -3.0, 4.5),
        ]
    )
    solve = levenberg_marquardt(stack, x0)
    assert solve.estimate.shape == x0.shape
    diverged = 0
    for b, (single, start) in enumerate(zip(singles, x0)):
        ref = oracles.levenberg_marquardt(single, start)
        assert solve.problem_iterations[b] == ref.iterations
        assert solve.converged[b] == ref.converged
        assert solve.normal_equations_singular[b] == ref.normal_equations_singular
        assert np.isclose(solve.final_cost[b], ref.final_cost, rtol=1e-12, atol=0.0)
        diverged += np.linalg.norm(ref.estimate[:3]) > 100.0
    assert diverged > 0
    assert isinstance(solve.iterations, int)
    assert solve.iterations == int(solve.problem_iterations.sum())


class _NanJacobianRows:
    """A stacked problem whose Jacobian is NaN for the listed problems."""

    def __init__(self, problem, broken):
        self.problem = problem
        self.broken = broken

    def residual(self, x, index):
        return self.problem.residual(x, index)

    def residual_and_jacobian(self, x, index):
        res, jac = self.problem.residual_and_jacobian(x, index)
        jac = jac.copy()
        jac[np.isin(index, self.broken)] = np.nan
        return res, jac


def test_nan_jacobian_problem_leaves_the_others_alone(coil, gparams, room, anchors):
    stack, singles = _anchor_stack([36], coil, gparams, room, anchors)
    x0 = _random_starts(len(singles), np.random.default_rng(37), 0.0, 1.5)
    solve = levenberg_marquardt(_NanJacobianRows(stack, [1]), x0)
    assert solve.normal_equations_singular[1] and not solve.converged[1]
    assert np.array_equal(solve.estimate[1], x0[1])
    for b in (0, 2, 3):
        alone = levenberg_marquardt(singles[b], x0[b])
        assert solve.problem_iterations[b] == alone.problem_iterations
        assert solve.converged[b] == alone.converged
        assert not solve.normal_equations_singular[b]
        assert np.isclose(solve.final_cost[b], alone.final_cost, rtol=1e-13, atol=0.0)
        assert np.allclose(solve.estimate[b], alone.estimate, rtol=1e-12, atol=1e-12)


def test_singular_system_in_stack_is_solved_apart():
    jtj = np.array([np.eye(2), [[1.0, 1.0], [1.0, 1.0]], 2.0 * np.eye(2)])
    gradient = np.array([[1.0, 2.0], [1.0, 1.0], [4.0, 2.0]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(jtj[1], -gradient[1])
    steps = estimators._damped_steps(jtj, gradient, np.array([1.0, 0.0, 1.0]))
    assert np.isnan(steps[1]).all()
    assert np.allclose(steps[0], -gradient[0] / 2.0)
    assert np.allclose(steps[2], -gradient[2] / 4.0)


def test_random_restarts_match_per_agent_oracle_loop(monkeypatch, coil, gparams, room, anchors):
    _, problem = make_problem(3, Scheme.NONCOOP, 38, coil, gparams, room, anchors)
    starts = []
    solver = estimators.levenberg_marquardt

    def recording(stack, x0):
        starts.append(np.array(x0))
        return solver(stack, x0)

    monkeypatch.setattr(estimators, "levenberg_marquardt", recording)
    rng, rng_ref = np.random.default_rng(39), np.random.default_rng(39)
    report = estimate(problem, "random:3", room=room, rng=rng)
    ref, ref_starts, picks = oracles.random_restarts_per_agent(problem, 3, room, rng_ref)
    # one stacked solve from the oracle's starts, agent-major and restart-minor
    assert len(starts) == 1
    assert np.array_equal(starts[0], ref_starts.reshape(-1, 6))
    assert rng.random() == rng_ref.random()
    assert report.iterations == ref.iterations
    assert report.converged == ref.converged
    assert report.initializations_used == 3
    assert np.isclose(report.final_cost, ref.final_cost, rtol=1e-12, atol=0.0)
    assert np.allclose(report.estimate, ref.estimate, rtol=0.0, atol=1e-9)


def test_parse_init_strategy():
    assert parse_init_strategy("perfect") == ("perfect", 1)
    assert parse_init_strategy("random") == ("random", 1)
    assert parse_init_strategy("random:5") == ("random", 5)
    assert parse_init_strategy("pairml") == ("pairml", 1)
    with pytest.raises(ValueError):
        parse_init_strategy("random:0")
    with pytest.raises(ValueError):
        parse_init_strategy("magic")


def test_imaginary_residual_equals_full_objective_up_to_constant(
    room, anchors, coil, gparams
):
    # The full Frobenius objective differs from the imaginary-part cost by
    # the parameter-independent power of the measured real parts.
    topo, problem = make_problem(2, Scheme.COOP, 14, coil, gparams, room, anchors)
    rng = np.random.default_rng(15)
    ms_rng = np.random.default_rng(14)
    topo2 = sample_topology(2, room, anchors, 0.15, ms_rng)

    ms = synthesize_measurements(topo, coil, gparams, Scheme.COOP, np.random.default_rng(99))
    coupling = coupling_coefficient(coil, coil, gparams)
    problem = LsProblem.from_measurements(ms, anchors, 2, coupling)
    real_power = sum(np.sum(np.real(m.h_meas) ** 2) for m in ms.measurements)

    from miloc.channel import channel_matrix
    from miloc.estimators import unpack_parameters

    for _ in range(5):
        theta = pack_deployments(topo.agents) + rng.normal(0, 0.05, 12)
        deployments = unpack_parameters(theta)
        nodes = deployments + list(anchors)
        full = sum(
            np.sum(np.abs(m.h_meas - channel_matrix(nodes[m.tx], nodes[m.rx], coupling)) ** 2)
            for m in ms.measurements
        )
        assert np.isclose(problem.cost(theta) + real_power, full, rtol=1e-12)


def test_multilateration_exact_distances(room, anchors):
    target = np.array([0.4, 0.8, 1.1])
    positions = np.stack([a.position for a in anchors])
    distances = np.linalg.norm(positions - target, axis=1)
    fix = multilaterate(positions, distances, room)
    assert not fix.underdetermined
    assert fix.report.converged
    assert np.linalg.norm(fix.position - target) < 1e-8


def test_multilateration_scaled_distances_robust(room, anchors):
    target = np.array([0.9, 0.3, 0.6])
    positions = np.stack([a.position for a in anchors])
    distances = np.linalg.norm(positions - target, axis=1) * 1.05
    fix = multilaterate(positions, distances, room)
    assert fix.report.converged
    assert np.linalg.norm(fix.position - target) < 0.2


def test_multilateration_stack_matches_single_fixes(room, anchors):
    positions = np.stack([a.position for a in anchors])
    rng = np.random.default_rng(40)
    targets = rng.uniform(0.1, 1.4, (3, 3))
    distances = np.linalg.norm(positions - targets[:, None], axis=2)
    distances *= rng.uniform(0.97, 1.03, (3, 4))
    distances[1, 2] = np.nan  # agent 1 has no usable range to anchor 2
    fix = multilaterate(np.broadcast_to(positions, (3, 4, 3)), distances, room)
    assert fix.position.shape == (3, 3)
    assert not fix.underdetermined.any()
    for b in range(3):
        usable = np.isfinite(distances[b])
        alone = multilaterate(positions[usable], distances[b, usable], room)
        assert np.allclose(fix.position[b], alone.position, rtol=0.0, atol=1e-12)


def test_multilateration_underdetermined_flag(room, anchors):
    positions = np.stack([a.position for a in anchors[:2]])
    fix = multilaterate(positions, np.array([0.5, 0.5]), room)
    assert fix.underdetermined
