import dataclasses

import numpy as np
import pytest

import oracles
from miloc import estimators
from miloc.channel import channel_matrix, coupling_coefficient
from miloc.estimators import (
    DimensionMismatch,
    LsProblem,
    estimate,
    levenberg_marquardt,
    multilaterate,
    parse_init_strategy,
)
from miloc.config import ConfigError, ExperimentConfig
from miloc.geometry import is_rotation, join_poses, sample_uniform_rotation, split_poses
from miloc.scenario import Scheme, network_problem, sample_topology, synthesize_measurements


def make_problem(m, scheme, seed, coil, gparams, room, anchors, sigma=None):
    rng = np.random.default_rng(seed)
    topo = sample_topology(m, room, anchors, 0.15, rng)
    if sigma is not None:
        gparams = dataclasses.replace(gparams, noise_sigma=sigma)
    ms = synthesize_measurements(topo, coil, gparams, scheme, rng)
    coupling = coupling_coefficient(coil, coil, gparams)
    problem = network_problem(m, anchors, coupling, scheme)
    problem = dataclasses.replace(problem, y_imag=np.imag(ms.h_meas))
    return topo, problem


def test_pack_unpack_roundtrip(room, anchors, coil, gparams):
    topo, problem = make_problem(3, Scheme.COOP, 0, coil, gparams, room, anchors)
    theta = topo.pose_row
    assert theta.shape == (36,)
    positions, rotations = split_poses(theta)
    for position, rotation, orig in zip(positions, rotations, topo.agents):
        assert np.array_equal(position, orig.position)
        assert np.array_equal(rotation, orig.rotation)
    with pytest.raises(DimensionMismatch):
        problem.retract(np.zeros(7), np.zeros(18))


def test_zero_step_retracts_to_the_same_poses(room, anchors, coil, gparams):
    topo, problem = make_problem(3, Scheme.COOP, 0, coil, gparams, room, anchors)
    step = np.random.default_rng(1).normal(0, 0.3, 18)
    theta = problem.retract(topo.pose_row, step)
    assert np.array_equal(problem.retract(theta, np.zeros(18)), theta)
    assert problem.retract(theta, np.zeros(18)).tobytes() == theta.tobytes()


def test_rotations_stay_rotations_along_many_steps(room, anchors, coil, gparams):
    topo, problem = make_problem(2, Scheme.COOP, 0, coil, gparams, room, anchors)
    rng = np.random.default_rng(2)
    theta = np.stack([topo.pose_row] * 5)
    for _ in range(1000):
        theta = problem.retract(theta, rng.normal(0.0, 0.5, (5, 12)))
    _, rotations = split_poses(theta)
    assert np.all(is_rotation(rotations, 1e-12))


def test_residual_zero_at_truth_noiseless(room, anchors, coil, gparams):
    topo, problem = make_problem(4, Scheme.COOP, 1, coil, gparams, room, anchors, sigma=0.0)
    res = problem.residual(topo.pose_row)
    # the true rotations enter unchanged, so the model reproduces the synthesis
    assert np.abs(res).max() == 0.0
    assert len(res) == 9 * (4 * 4 + 4 * 3)


def test_residual_dimension_check(room, anchors, coil, gparams):
    _, problem = make_problem(2, Scheme.COOP, 2, coil, gparams, room, anchors)
    with pytest.raises(DimensionMismatch):
        problem.residual(np.zeros(13))


def test_jacobian_matches_finite_differences(room, anchors, coil, gparams):
    topo, problem = make_problem(3, Scheme.COOP, 3, coil, gparams, room, anchors)
    rng = np.random.default_rng(4)
    theta = problem.retract(topo.pose_row, rng.normal(0, 0.02, 18))
    _, jac = oracles.residual_and_jacobian(problem, theta)
    h = 1e-7
    for k in range(18):
        step = np.zeros(18)
        step[k] = h
        plus, minus = problem.retract(theta, step), problem.retract(theta, -step)
        fd = (problem.residual(plus) - problem.residual(minus)) / (2 * h)
        denom = max(np.abs(fd).max(), 1e-30)
        assert np.abs(fd - jac[:, k]).max() / denom < 1e-5


def test_noncooperative_jacobian_is_block_diagonal(room, anchors, coil, gparams):
    topo, problem = make_problem(3, Scheme.NONCOOP, 5, coil, gparams, room, anchors)
    _, jac = oracles.residual_and_jacobian(problem, topo.pose_row)
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

    def normal_equations(self, x, index=None):
        size = x.shape[-1]
        return oracles.normal_equations(x - self.target, np.broadcast_to(np.eye(size), x.shape + (size,)))

    def retract(self, x, step):
        return x + step


def test_lm_solves_linear_problem_immediately(monkeypatch):
    # With damping 1e-3 the first accepted step lands within 0.1% of the
    # solution; the remaining iterations only polish to machine precision.
    target = np.array([1.0, -2.0, 3.0])
    with monkeypatch.context() as patch:
        patch.setattr(estimators, "LM_MAX_ITERATIONS", 1)
        first = levenberg_marquardt(_Quadratic(target), np.zeros(3))
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

    def normal_equations(self, x, index=None):
        return oracles.normal_equations(x - 1.0, np.full(x.shape + (x.shape[-1],), np.nan))

    def retract(self, x, step):
        return x + step


def test_lm_reports_singular_normal_equations():
    report = levenberg_marquardt(_BrokenJacobian(), np.zeros(2))
    assert not report.converged
    assert report.normal_equations_singular


def test_lm_perfect_init_noiseless(room, anchors, coil, gparams):
    topo, problem = make_problem(3, Scheme.COOP, 6, coil, gparams, room, anchors, sigma=0.0)
    truth = topo.pose_row
    report = levenberg_marquardt(problem, truth)
    assert report.converged
    assert report.iterations <= 2
    assert report.final_cost < 1e-20


def test_lm_accepted_costs_monotone(room, anchors, coil, gparams):
    topo, problem = make_problem(2, Scheme.COOP, 7, coil, gparams, room, anchors)
    rng = np.random.default_rng(8)
    x0 = problem.retract(topo.pose_row, rng.normal(0, 0.1, 12))

    costs = []
    original = problem.normal_equations

    def tracking(theta, index=None):
        res, jtj, gradient = original(theta, index)
        costs.append(float(np.sum(res**2)))
        return res, jtj, gradient

    problem.normal_equations = tracking
    levenberg_marquardt(problem, x0)
    # evaluations happen only at accepted iterates; the sequence never rises
    assert all(b <= a + 1e-300 for a, b in zip(costs, costs[1:]))


def test_perfect_init_exact_recovery(room, anchors, coil, gparams):
    topo, problem = make_problem(4, Scheme.COOP, 9, coil, gparams, room, anchors, sigma=0.0)
    truth = topo.pose_row
    [solve] = estimate(problem, ["perfect"], truth=truth)
    positions, _ = split_poses(solve.estimate[0])
    assert np.linalg.norm(positions - topo.positions, axis=-1).max() < 1e-8


def test_noncoop_joint_equals_per_agent_decomposition(room, anchors, coil, gparams):
    # The anchor-only Jacobian is block diagonal, so the joint minimizer is
    # the concatenation of the per-agent minimizers.  Compared at a sharp
    # noiseless minimum, where solver termination slack does not blur the
    # solutions; the noisy variant below is bounded by the stopping tolerance.
    topo, problem = make_problem(3, Scheme.NONCOOP, 10, coil, gparams, room, anchors, sigma=0.0)
    truth = topo.pose_row
    rng = np.random.default_rng(20)
    start = problem.retract(truth, rng.normal(0, 0.01, 18))
    rep_joint = levenberg_marquardt(problem, start)
    [rep_split] = estimate(problem, ["perfect"], truth=start)
    assert np.abs(rep_joint.estimate.reshape(3, 12) - rep_split.estimate).max() < 1e-10

    topo_n, problem_n = make_problem(3, Scheme.NONCOOP, 21, coil, gparams, room, anchors)
    truth_n = topo_n.pose_row
    rep_joint_n = levenberg_marquardt(problem_n, truth_n)
    [rep_split_n] = estimate(problem_n, ["perfect"], truth=truth_n)
    # with noise both stop within termination tolerance of the same minimum
    assert np.isclose(rep_joint_n.final_cost, rep_split_n.final_cost.sum(), rtol=1e-9)
    assert np.abs(rep_joint_n.estimate.reshape(3, 12) - rep_split_n.estimate).max() < 1e-5


def test_coop_without_agent_links_equals_noncoop(room, anchors, coil, gparams):
    # noiseless, perturbed start: both paths converge to the same sharp minimum
    topo, coop_problem = make_problem(3, Scheme.COOP, 11, coil, gparams, room, anchors, sigma=0.0)
    truth = topo.pose_row
    rng = np.random.default_rng(22)
    truth = coop_problem.retract(truth, rng.normal(0, 0.01, 18))
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
    [rep_b] = estimate(stripped, ["perfect"], truth=truth)
    assert np.abs(rep_a.estimate.reshape(3, 12) - rep_b.estimate).max() < 1e-10


def test_cooperative_follows_the_links(room, anchors, coil, gparams):
    topo, coop = make_problem(3, Scheme.COOP, 23, coil, gparams, room, anchors)
    _, noncoop = make_problem(3, Scheme.NONCOOP, 23, coil, gparams, room, anchors)
    assert coop.cooperative and not noncoop.cooperative
    # the joint solve uses every link, so its cost is the problem's cost
    [solve] = estimate(coop, ["perfect"], truth=topo.pose_row)
    assert solve.final_cost.shape == (1,)
    assert np.isclose(solve.final_cost[0], coop.cost(solve.estimate[0]), rtol=1e-12, atol=0.0)


def test_anchor_problem(room, anchors, coil, gparams):
    for scheme in (Scheme.NONCOOP, Scheme.COOP):
        _, problem = make_problem(3, scheme, 24, coil, gparams, room, anchors)
        # rows[a, k]: the row of agent a's link to anchor k
        links = problem.links.tolist()
        rows = np.array([[links.index([a, 3 + k]) for k in range(4)] for a in range(3)])
        other = make_problem(3, scheme, 25, coil, gparams, room, anchors)[1].y_imag
        stacked = dataclasses.replace(problem, y_imag=np.stack([problem.y_imag, other]))
        for sets, gathered in ((problem, problem.y_imag[rows]), (stacked, stacked.y_imag[:, rows])):
            alone = sets.anchor_problem()
            assert alone.n_agents == 1 and not alone.cooperative
            assert np.array_equal(alone.links, [[0, 1], [0, 2], [0, 3], [0, 4]])
            assert np.array_equal(alone.anchor_positions, problem.anchor_positions)
            assert alone.coupling == problem.coupling
            assert np.array_equal(alone.y_imag, gathered.reshape(-1, 4, 3, 3))
            # set-major, then agent-major, each agent's links in anchor order
            for t, measured in enumerate(sets.y_imag.reshape(-1, len(links), 3, 3)):
                for a in range(3):
                    assert np.array_equal(alone.y_imag[3 * t + a], measured[rows[a]])
    unmeasured = network_problem(3, anchors, problem.coupling, Scheme.COOP).anchor_problem()
    assert unmeasured.y_imag.shape == (0, 4, 3, 3)
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
    with pytest.raises(ValueError, match="one anchor-link pattern"):
        uneven.anchor_problem()


def test_anchor_problem_puts_link_k_on_anchor_k(room, anchors, coil, gparams):
    # rows that visit the anchors out of order, agents interleaved, give the
    # problem whose anchors are listed in the visiting order
    topo, problem = make_problem(3, Scheme.NONCOOP, 26, coil, gparams, room, anchors)
    visit = [2, 0, 3, 1]
    links = problem.links.tolist()
    rows = [links.index([a, 3 + k]) for k in visit for a in range(3)]
    shuffled = dataclasses.replace(
        problem, links=problem.links[rows], y_imag=problem.y_imag[rows]
    )
    in_order = dataclasses.replace(
        problem,
        anchor_positions=problem.anchor_positions[visit],
        anchor_rotations=problem.anchor_rotations[visit],
        links=[(a, 3 + k) for a in range(3) for k in range(4)],
        y_imag=problem.y_imag[[links.index([a, 3 + k]) for a in range(3) for k in visit]],
    )
    alone, expected = shuffled.anchor_problem(), in_order.anchor_problem()
    assert np.array_equal(alone.links, [[0, 1], [0, 2], [0, 3], [0, 4]])
    assert np.array_equal(alone.anchor_positions, problem.anchor_positions[visit])
    assert np.array_equal(alone.anchor_rotations, problem.anchor_rotations[visit])
    poses = topo.pose_row.reshape(3, 12)
    assert np.array_equal(alone.residual(poses), expected.residual(poses))


@pytest.mark.parametrize("scheme", [Scheme.NONCOOP, Scheme.COOP])
def test_gains_equal_the_one_link_channel(room, anchors, coil, gparams, scheme):
    coupling = coupling_coefficient(coil, coil, gparams)
    problem = network_problem(3, anchors, coupling, scheme)
    topos = [sample_topology(3, room, anchors, 0.15, np.random.default_rng(30 + k)) for k in range(2)]
    stacked = problem.gains(np.array([t.pose_row for t in topos]))
    assert stacked.shape == (2, len(problem.links), 3, 3)
    for topo, gains in zip(topos, stacked):
        assert np.array_equal(problem.gains(topo.pose_row), gains)
        nodes = topo.agents + topo.anchors
        for (tx, rx), gain in zip(problem.links.tolist(), gains):
            assert np.array_equal(gain, np.imag(channel_matrix(nodes[tx], nodes[rx], coupling)))


def test_turbols_never_worse_than_its_init(room, anchors, coil, gparams):
    topo, problem = make_problem(4, Scheme.COOP, 12, coil, gparams, room, anchors)
    [solve] = estimate(problem, ["pairml"], room=room)
    from miloc.estimators import pairml_initialization

    init_cost = problem.cost(pairml_initialization(problem, room))
    assert solve.final_cost[0] <= init_cost + 1e-18


def test_random_restarts_deterministic_and_best_of(room, anchors, coil, gparams):
    topo, problem = make_problem(1, Scheme.NONCOOP, 13, coil, gparams, room, anchors)
    [rep1] = estimate(problem, ["random:3"], room=room, rng=np.random.default_rng(42))
    [rep2] = estimate(problem, ["random:3"], room=room, rng=np.random.default_rng(42))
    assert np.array_equal(rep1.estimate, rep2.estimate)
    [single] = estimate(problem, ["random:1"], room=room, rng=np.random.default_rng(42))
    assert rep1.final_cost[0] <= single.final_cost[0] + 1e-18


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
            np.hstack([rng.uniform(lo, hi, 3), sample_uniform_rotation(rng).ravel()])
            for _ in range(count)
        ]
    )


def test_stacked_residual_and_jacobian_match_row_by_row(coil, gparams, room, anchors):
    stack, singles = _anchor_stack([30], coil, gparams, room, anchors)
    theta = _random_starts(len(singles), np.random.default_rng(31), 0.0, 1.5)
    index = np.array([3, 0, 2])
    res, jac = oracles.residual_and_jacobian(stack, theta[index], index)
    assert res.shape == (3, 9 * len(stack.links)) and jac.shape == res.shape + (6,)
    assert np.array_equal(stack.residual(theta[index], index), res)
    for row, b in enumerate(index):
        res_b, jac_b = oracles.residual_and_jacobian(singles[b], theta[b])
        assert res_b.shape == (9 * len(stack.links),) and jac_b.shape == (len(res_b), 6)
        assert np.allclose(res[row], res_b, rtol=0.0, atol=1e-18)
        assert np.allclose(jac[row], jac_b, rtol=1e-13, atol=1e-20)


def test_stacked_cost_is_one_cost_per_set(coil, gparams, room, anchors):
    # two measured sets of a cooperative network, at one pose row per set
    # and at one row for both; a single set's cost stays a float
    (topo_a, a), (topo_b, b) = (
        make_problem(3, Scheme.COOP, seed, coil, gparams, room, anchors) for seed in (35, 36)
    )
    stack = dataclasses.replace(a, y_imag=np.stack([a.y_imag, b.y_imag]))
    theta = np.array([topo_a.pose_row, topo_b.pose_row])
    theta = stack.retract(theta, np.random.default_rng(37).normal(0.0, 0.05, (2, 18)))
    assert stack.cost(theta).shape == (2,) and a.cost(theta[0]).shape == ()
    assert stack.cost(theta).tolist() == [a.cost(theta[0]), b.cost(theta[1])]
    assert stack.cost(theta[0]).tolist() == [a.cost(theta[0]), b.cost(theta[0])]


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
    """A stacked problem whose normal equations are NaN for the listed problems."""

    def __init__(self, problem, broken):
        self.problem = problem
        self.broken = broken

    def residual(self, x, index):
        return self.problem.residual(x, index)

    def normal_equations(self, x, index):
        res, jtj, gradient = self.problem.normal_equations(x, index)
        jtj[np.isin(index, self.broken)] = np.nan
        gradient[np.isin(index, self.broken)] = np.nan
        return res, jtj, gradient

    def retract(self, x, step):
        return self.problem.retract(x, step)


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
    [solve] = estimate(problem, ["random:3"], room=room, rng=rng)
    ref, ref_starts, picks = oracles.random_restarts_per_agent(problem, 3, room, rng_ref)
    # one stacked solve from the oracle's starts, agent-major and restart-minor
    assert len(starts) == 1
    assert np.array_equal(starts[0], ref_starts.reshape(-1, 12))
    assert rng.random() == rng_ref.random()
    assert isinstance(solve, estimators.StackedSolve)
    # one group per agent, each the agent's chosen restart
    assert solve.estimate.shape == (3, 12)
    assert np.array_equal(solve.problem_iterations, ref.problem_iterations)
    assert np.array_equal(solve.converged, ref.converged)
    assert np.allclose(solve.final_cost, ref.final_cost, rtol=1e-12, atol=0.0)
    assert np.allclose(solve.estimate, ref.estimate, rtol=0.0, atol=1e-9)


def test_parse_init_strategy():
    assert parse_init_strategy("perfect") == ("perfect", 1)
    assert parse_init_strategy("random") == ("random", 1)
    assert parse_init_strategy("random:5") == ("random", 5)
    assert parse_init_strategy("pairml") == ("pairml", 1)
    with pytest.raises(ValueError):
        parse_init_strategy("random:0")
    with pytest.raises(ValueError):
        parse_init_strategy("magic")
    assert parse_init_strategy("random:01") == ("random", 1)
    # a restart count is decimal digits alone: no sign, space, underscore or
    # other script's digits, and an argument only where one is taken
    misspelled = ["random:", "random: 3", "random:+3", "random:3 ", "random:1_0", "random:٣"]
    misspelled += ["random:-1", "random:3.0", "perfect:", "pairml:", "pairml:1"]
    # one spelling for the solver, the harness and the configuration
    for spelling in ["Random:3", " random", "PERFECT"] + misspelled:
        with pytest.raises(ValueError):
            parse_init_strategy(spelling)
        with pytest.raises(ConfigError):
            ExperimentConfig(init=spelling)


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
    problem = network_problem(2, anchors, coupling, Scheme.COOP)
    problem = dataclasses.replace(problem, y_imag=np.imag(ms.h_meas))
    real_power = sum(np.sum(np.real(m.h_meas) ** 2) for m in ms.measurements)

    from miloc.channel import channel_matrix

    for _ in range(5):
        theta = problem.retract(topo.pose_row, rng.normal(0, 0.05, 12))
        deployments = [oracles.deployment_from_rotation(*pose) for pose in zip(*split_poses(theta))]
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
    assert fix.converged
    assert np.linalg.norm(fix.estimate - target) < 1e-8


def test_multilateration_scaled_distances_robust(room, anchors):
    target = np.array([0.9, 0.3, 0.6])
    positions = np.stack([a.position for a in anchors])
    distances = np.linalg.norm(positions - target, axis=1) * 1.05
    fix = multilaterate(positions, distances, room)
    assert fix.converged
    assert np.linalg.norm(fix.estimate - target) < 0.2


def test_multilateration_stack_matches_single_fixes(room, anchors):
    positions = np.stack([a.position for a in anchors])
    rng = np.random.default_rng(40)
    targets = rng.uniform(0.1, 1.4, (3, 3))
    distances = np.linalg.norm(positions - targets[:, None], axis=2)
    distances *= rng.uniform(0.97, 1.03, (3, 4))
    distances[1, 2] = np.nan  # agent 1 has no usable range to anchor 2
    fix = multilaterate(positions, distances, room)
    assert fix.estimate.shape == (3, 3)
    for b in range(3):
        usable = np.isfinite(distances[b])
        alone = multilaterate(positions[usable], distances[b, usable], room)
        assert np.allclose(fix.estimate[b], alone.estimate, rtol=0.0, atol=1e-12)


def test_multilateration_underdetermined_fix_stays_in_the_room(room, anchors):
    # two ranges leave a circle of solutions: the fix is a point of the room,
    # not an error
    positions = np.stack([a.position for a in anchors[:2]])
    fix = multilaterate(positions, np.array([0.5, 0.5]), room)
    assert fix.estimate.shape == (3,)
    assert np.all(np.isfinite(fix.estimate))
    assert room.contains(fix.estimate)


def _stacked(problems):
    """One problem whose y_imag stacks the measurement sets of problems over the same links."""
    return dataclasses.replace(problems[0], y_imag=np.stack([p.y_imag for p in problems]))


def _coop_sets(m, seeds, coil, gparams, room, anchors):
    """Noisy cooperative measurement sets of count m stacked into one problem, and their truths."""
    problems, truths = [], []
    for seed in seeds:
        topo, problem = make_problem(m, Scheme.COOP, seed, coil, gparams, room, anchors)
        problems.append(problem)
        truths.append(topo.pose_row)
    stack = _stacked(problems)
    return stack, problems, np.array(truths)


@pytest.mark.parametrize("m", [3, 10])
def test_stacked_coop_problems_do_not_depend_on_each_other(m, coil, gparams, room, anchors):
    # bit for bit: each problem's normal equations are its own gemm and solve
    stack, problems, truths = _coop_sets(m, [50, 51, 52], coil, gparams, room, anchors)
    rng = np.random.default_rng(53)
    x0 = stack.retract(truths, rng.normal(0.0, 0.02, (len(truths), 6 * m)))
    solve = levenberg_marquardt(stack, x0)
    for b, (problem, start) in enumerate(zip(problems, x0)):
        alone = levenberg_marquardt(problem, start)
        assert np.array_equal(solve.estimate[b], alone.estimate)
        assert solve.final_cost[b] == alone.final_cost
        assert solve.problem_iterations[b] == alone.problem_iterations
        assert solve.converged[b] == alone.converged


@pytest.mark.parametrize("links", [0, 2048])
@pytest.mark.parametrize(
    "scheme, init",
    [(Scheme.COOP, "random:2"), (Scheme.NONCOOP, "random:3"), (Scheme.NONCOOP, "pairml")],
)
def test_estimate_on_a_stack_equals_each_set_alone(
    scheme, init, links, monkeypatch, coil, gparams, room, anchors
):
    # link columns formed one problem at a time (0), or for the whole stack at once
    monkeypatch.setattr(estimators, "LINKS_PER_SLICE", links)
    sets = [make_problem(3, scheme, seed, coil, gparams, room, anchors) for seed in (54, 55, 56)]
    problems = [problem for _, problem in sets]
    truths = np.array([topo.pose_row for topo, _ in sets])
    stack = _stacked(problems)
    rngs = [np.random.default_rng(57 + t) for t in range(3)]
    [solve] = estimate(stack, [init], room, truths, rngs)
    [reference] = estimate(stack, ["perfect"], truth=truths)
    groups = 1 if scheme is Scheme.COOP else 3
    assert solve.final_cost.shape == reference.final_cost.shape == (3, groups)
    for t, problem in enumerate(problems):
        rng = np.random.default_rng(57 + t)
        [alone] = estimate(problem, [init], room=room, truth=truths[t], rng=rng)
        [alone_reference] = estimate(problem, ["perfect"], truth=truths[t])
        for got, want in ((solve, alone), (reference, alone_reference)):
            for field in dataclasses.fields(got):
                assert np.array_equal(getattr(got, field.name)[t], getattr(want, field.name))


@pytest.mark.parametrize("scheme, init", [(Scheme.COOP, "random:2"), (Scheme.NONCOOP, "random:3")])
def test_several_inits_share_one_call_and_equal_each_init_alone(
    scheme, init, lm_calls, coil, gparams, room, anchors
):
    # an estimate and its references in one LM call, init-major: each init's
    # solve equals that init solved alone, bit for bit
    sets = [make_problem(3, scheme, seed, coil, gparams, room, anchors) for seed in (58, 59, 60)]
    stack = _stacked([problem for _, problem in sets])
    truths = np.array([topo.pose_row for topo, _ in sets])
    rngs = [np.random.default_rng(61 + t) for t in range(3)]
    solve, *references = estimate(stack, [init, "perfect", "perfect"], room, truths, rngs)
    groups, restarts = (1, 2) if scheme is Scheme.COOP else (3, 3)
    assert lm_calls == [3 * groups * (restarts + 2)]
    [alone] = estimate(stack, [init], room, truths, [np.random.default_rng(61 + t) for t in range(3)])
    [reference] = estimate(stack, ["perfect"], truth=truths)
    assert len(references) == 2
    for got, want in ((solve, alone), (references[0], reference), (references[1], reference)):
        assert got.final_cost.shape == (3, groups)
        for field in dataclasses.fields(got):
            assert np.array_equal(getattr(got, field.name), getattr(want, field.name))


def test_estimate_takes_a_sequence_of_inits(lm_calls, room, anchors, coil, gparams):
    topo, problem = make_problem(2, Scheme.NONCOOP, 67, coil, gparams, room, anchors)
    with pytest.raises(ValueError):
        estimate(problem, "perfect", truth=topo.pose_row)  # a string is not a list of inits
    # every init is checked before any is solved
    with pytest.raises(ValueError, match="requires the true parameters"):
        estimate(problem, ["pairml", "perfect"], room)
    assert lm_calls == []


@pytest.fixture
def lm_starts(monkeypatch, lm_calls):
    """Record the starts of every levenberg_marquardt call (after lm_calls)."""
    starts = []
    solver = estimators.levenberg_marquardt

    def recording(problem, x0):
        starts.append(np.array(x0))
        return solver(problem, x0)

    monkeypatch.setattr(estimators, "levenberg_marquardt", recording)
    return starts


def test_one_sets_restarts_share_one_lm_call(lm_calls, coil, gparams, room, anchors):
    # one cooperative M=10 set: its five restarts in one call
    topo, problem = make_problem(10, Scheme.COOP, 61, coil, gparams, room, anchors)
    truth = topo.pose_row
    rng = np.random.default_rng(62)
    estimate(problem, ["random:5"], room, truth, rng)
    assert lm_calls == [5]


def test_lm_call_holds_whole_sets_restart_minor(lm_calls, lm_starts, coil, gparams, room, anchors):
    # three non-cooperative M=2 sets, two restarts each: 3 x 2 x 2
    # single-agent estimates in one call, set-major, agent-major, restart-minor
    sets = [make_problem(2, Scheme.NONCOOP, s, coil, gparams, room, anchors) for s in (63, 64, 65)]
    stack = _stacked([problem for _, problem in sets])
    truths = np.array([topo.pose_row for topo, _ in sets])
    rngs = [np.random.default_rng(66 + t) for t in range(3)]
    estimate(stack, ["random:2"], room, truths, rngs)
    assert lm_calls == [12]
    # a set's four draws fill its two agents, then their two restarts
    drawn = [estimators._random_poses(4, room, np.random.default_rng(66 + t)) for t in range(3)]
    starts = [join_poses(p.reshape(2, 2, 1, 3), o.reshape(2, 2, 1, 3, 3)) for p, o in drawn]
    assert np.array_equal(lm_starts[0], np.reshape(starts, (12, 12)))


def _uneven(problem):
    """problem without agent 1's links to the last anchor and to agent 0.

    Its agents take part in unequal numbers of links, and a cooperative
    pair is measured in one direction only.
    """
    tx, rx = problem.links.T
    keep = ~((tx == 1) & ((rx == rx.max()) | (rx == 0)))
    return dataclasses.replace(problem, links=problem.links[keep], y_imag=problem.y_imag[..., keep, :, :])


@pytest.mark.parametrize("scheme", [Scheme.COOP, Scheme.NONCOOP])
def test_normal_equations_match_the_dense_oracle(scheme, coil, gparams, room, anchors):
    # residual, J^T J and J^T r of stacks, with and without index, against
    # the products of the dense Jacobian
    rng = np.random.default_rng(70)
    for m in range(1, 11):
        stack, _, truths = _coop_sets(m, [71, 72, 73], coil, gparams, room, anchors)
        if scheme is Scheme.NONCOOP:
            rows = stack.links[:, 1] >= m
            stack = dataclasses.replace(stack, links=stack.links[rows], y_imag=stack.y_imag[:, rows])
        theta = stack.retract(truths, rng.normal(0.0, 0.05, (3, 6 * m)))
        index = np.array([2, 0])
        problems = [stack] if m == 1 else [stack, _uneven(stack)]
        for problem in problems:
            for rows, pick in ((theta, None), (theta[index], index)):
                got = problem.normal_equations(rows, pick)
                want = oracles.normal_equations(*oracles.residual_and_jacobian(problem, rows, pick))
                for g, w in zip(got, want):
                    assert g.shape == w.shape
                    assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max(), (m, scheme)


@pytest.mark.parametrize("m", [1, 3, 10])
def test_normal_equations_do_not_depend_on_the_stack_or_the_slices(
    m, monkeypatch, coil, gparams, room, anchors
):
    # bit for bit: alone, inside a stack, and with slice boundaries between
    # the stack's problems
    stack, problems, truths = _coop_sets(m, [74, 75, 76, 77], coil, gparams, room, anchors)
    theta = stack.retract(truths, np.random.default_rng(78).normal(0.0, 0.05, (4, 6 * m)))
    whole = stack.normal_equations(theta)
    for per_slice in (1, 2, 3):
        monkeypatch.setattr(estimators, "LINKS_PER_SLICE", per_slice * len(stack.links))
        for got, want in zip(stack.normal_equations(theta), whole):
            assert np.array_equal(got, want)
    for b, problem in enumerate(problems):
        for got, want in zip(problem.normal_equations(theta[b]), whole):
            assert np.array_equal(got, want[b])


def test_range_normal_equations_match_finite_differences(room, anchors):
    positions = np.stack([a.position for a in anchors])
    rng = np.random.default_rng(79)
    distances = np.linalg.norm(positions - rng.uniform(0.1, 1.4, (3, 1, 3)), axis=2)
    distances[1, 2] = np.nan  # a padded anchor
    problem = estimators._RangeProblem(np.broadcast_to(positions, (3, 4, 3)), distances)
    p = rng.uniform(0.0, 1.5, (2, 3))
    index = np.array([1, 2])
    h = 1e-6
    jac = np.stack(
        [
            (problem.residual(p + h * e, index) - problem.residual(p - h * e, index)) / (2 * h)
            for e in np.eye(3)
        ],
        axis=-1,
    )
    for got, want in zip(problem.normal_equations(p, index), oracles.normal_equations(problem.residual(p, index), jac)):
        assert np.allclose(got, want, rtol=1e-7, atol=1e-9)


def test_agent_links_are_not_repeated(room, anchors, coil, gparams):
    topo, problem = make_problem(3, Scheme.COOP, 80, coil, gparams, room, anchors)
    links = np.vstack([problem.links, [1, 2]])
    repeated = dataclasses.replace(problem, links=links, y_imag=np.zeros((len(links), 3, 3)))
    with pytest.raises(ValueError, match="once per direction"):
        repeated.normal_equations(topo.pose_row)
