import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import PROPERTY_SETTINGS
from oracles import split_poses
from miloc import estimators
from miloc.channel import CoincidentNodes, channel_matrix, coupling_coefficient
from miloc.estimators import (
    DimensionMismatch,
    LsProblem,
    StopReason,
    estimate,
    levenberg_marquardt,
    multilaterate,
    parse_init_strategy,
)
from miloc.config import ConfigError, ExperimentConfig
from miloc.geometry import is_rotation, join_poses, sample_uniform_rotation
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

    def evaluate(self, x, index=None):
        return x - self.target, x

    def normal_slices(self, x, rows):
        x, size = x[rows], x.shape[-1]
        eye = np.broadcast_to(np.eye(size), x.shape + (size,))
        yield (slice(None),) + oracles.normal_equations(x - self.target, eye)[1:]

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

    def evaluate(self, x, index=None):
        return x - 1.0, x

    def normal_slices(self, x, rows):
        x = x[rows]
        nan = np.full(x.shape + (x.shape[-1],), np.nan)
        yield (slice(None),) + oracles.normal_equations(x - 1.0, nan)[1:]

    def retract(self, x, step):
        return x + step


def test_lm_reports_singular_normal_equations():
    report = levenberg_marquardt(_BrokenJacobian(), np.zeros(2))
    assert not report.converged
    assert report.normal_equations_singular


class _Toys:
    """A stack of small problems of two parameters, each its own residual r(x) and Jacobian J(x).

    parts lists (r, J) per problem; r returns 4 residuals and J their (4, 2) Jacobian.
    """

    def __init__(self, parts):
        self.parts = parts

    def evaluate(self, x, index):
        residual = np.array([self.parts[b][0](row) for b, row in zip(index, x)])
        return residual, (x, index, residual)

    def normal_slices(self, point, rows):
        x, index, residual = point
        jac = np.array([self.parts[index[k]][1](x[k]) for k in rows])
        jac_t = np.swapaxes(jac, -1, -2)
        yield slice(None), jac_t @ jac, (jac_t @ residual[rows][..., None])[..., 0]

    def retract(self, x, step):
        return x + step


_HALF = np.vstack([np.eye(2), np.zeros((2, 2))])
# one constructed problem per stop reason at a budget of 8 iterations, and its start
_TOYS = {
    # two inconsistent targets: the minimum keeps a cost of 4, so the relative
    # decrease falls below LM_COST_TOL while the steps are still about 1e-5
    "cost_tol": (
        lambda x: np.array([x[0] - 1.0, x[1] - 2.0, x[0] + 1.0, x[1]]),
        lambda x: np.vstack([np.eye(2), np.eye(2)]),
        (0.0, 0.0),
    ),
    # a zero-residual linear problem: the cost falls by orders of magnitude a
    # step, until the step itself is below LM_STEP_TOL
    "step_tol": (lambda x: np.array([x[0] - 1.0, x[1] - 2.0, 0.0, 0.0]), lambda x: _HALF, (0.0, 0.0)),
    # Rosenbrock's valley from (-1.2, 1): 25 accepted iterations to its minimum
    "max_iterations": (
        lambda x: np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0], 0.0, 0.0]),
        lambda x: np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
        (-1.2, 1.0),
    ),
    # a Jacobian of the wrong sign: every step goes uphill, at every damping
    "damping_ceiling": (
        lambda x: np.array([x[0] - 1.0, x[1] - 2.0, 0.0, 0.0]), lambda x: -_HALF, (0.0, 0.0)
    ),
    # NaN normal equations: every step is NaN, and the problem is flagged singular
    "singular": (
        lambda x: np.array([x[0] - 1.0, x[1] - 2.0, 0.0, 0.0]),
        lambda x: np.full((4, 2), np.nan),
        (0.0, 0.0),
    ),
}
_TOY_REASONS = {
    "cost_tol": StopReason.COST_TOL,
    "step_tol": StopReason.STEP_TOL,
    "max_iterations": StopReason.MAX_ITERATIONS,
    "damping_ceiling": StopReason.DAMPING_CEILING,
    "singular": StopReason.DAMPING_CEILING,
}


@pytest.mark.parametrize("name", list(_TOYS))
def test_each_stop_reason_on_a_constructed_problem(name, monkeypatch):
    monkeypatch.setattr(estimators, "LM_MAX_ITERATIONS", 8)
    residual, jacobian, start = _TOYS[name]
    solve = levenberg_marquardt(_Toys([(residual, jacobian)]), np.array([start]))
    assert solve.stop_reason.tolist() == [_TOY_REASONS[name]]
    assert solve.converged.tolist() == [name in ("cost_tol", "step_tol")]
    assert solve.normal_equations_singular.tolist() == [name == "singular"]
    if name == "cost_tol":  # stopped near, not at, the minimum (0, 1): the steps were not tiny
        assert 0.0 < np.abs(solve.estimate - [0.0, 1.0]).max() < 1e-3
    if name == "max_iterations":
        assert solve.problem_iterations.tolist() == [8]
        monkeypatch.setattr(estimators, "LM_MAX_ITERATIONS", 500)
        unbounded = levenberg_marquardt(_Toys([(residual, jacobian)]), np.array([start]))
        assert unbounded.converged.all() and unbounded.problem_iterations.tolist() == [25]


def _stop_reasons_agree(solve):
    """converged holds exactly where a tolerance stopped the problem."""
    tolerance = np.isin(solve.stop_reason, [StopReason.COST_TOL, StopReason.STEP_TOL])
    return solve.stop_reason.dtype == np.int8 and np.array_equal(solve.converged, tolerance)


def test_converged_exactly_when_a_tolerance_stopped_the_problem(
    monkeypatch, coil, gparams, room, anchors
):
    # every reason in one stack: each problem stops as it does alone
    monkeypatch.setattr(estimators, "LM_MAX_ITERATIONS", 8)
    toys = _Toys([part[:2] for part in _TOYS.values()])
    solve = levenberg_marquardt(toys, np.array([part[2] for part in _TOYS.values()]))
    assert solve.stop_reason.tolist() == list(_TOY_REASONS.values())
    assert _stop_reasons_agree(solve)
    # LM problems that converge and run out of the budget, through estimate's winner
    # selection and through multilaterate
    stack, _, x0 = _runaway_stack(coil, gparams, room, anchors)
    solve = levenberg_marquardt(stack, x0)
    assert set(solve.stop_reason.tolist()) == {StopReason.COST_TOL, StopReason.MAX_ITERATIONS}
    assert _stop_reasons_agree(solve)
    _, problem = make_problem(3, Scheme.NONCOOP, 41, coil, gparams, room, anchors)
    [restarts] = estimate(problem, ["random:3"], room, rng=np.random.default_rng(42))
    assert restarts.stop_reason.shape == restarts.converged.shape == (3,)
    assert _stop_reasons_agree(restarts)
    positions = np.stack([a.position for a in anchors])
    targets = np.array([[0.4, 0.8, 1.1], [0.2, 0.3, 0.9]])
    distances = np.linalg.norm(positions - targets[:, None], axis=2)
    assert _stop_reasons_agree(multilaterate(positions, distances, room))


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

    # the cost of every row whose normal equations the LM sums
    costs = []
    evaluate, normal_slices = problem.evaluate, problem.normal_slices

    def evaluating(theta, index=None):
        residual, point = evaluate(theta, index)
        return residual, (point, residual)

    def summing(point, rows):
        point, residual = point
        costs.extend(np.sum(residual[rows] ** 2, axis=-1).tolist())
        return normal_slices(point, rows)

    problem.evaluate, problem.normal_slices = evaluating, summing
    solve = levenberg_marquardt(problem, x0)
    # sums happen at the start and at each accepted iterate but the last,
    # which converged; the sequence never rises
    assert solve.converged and len(costs) == solve.iterations > 2
    assert all(b <= a + 1e-300 for a, b in zip(costs, costs[1:] + [solve.final_cost]))


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


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 5), data=st.data())
def test_relabeling_the_agents_permutes_the_coop_estimates(
    room, anchors, coil, gparams, seed, m, data
):
    # new agent i is agent order[i]: each link's measurement moves to its relabeled link
    order = data.draw(st.permutations(range(m)))
    topo, problem = make_problem(m, Scheme.COOP, seed, coil, gparams, room, anchors)
    label = np.concatenate([order, np.arange(m, m + len(anchors))])
    index = {link: k for k, link in enumerate(map(tuple, problem.links.tolist()))}
    moved = [index[(label[tx], label[rx])] for tx, rx in problem.links]
    relabeled = dataclasses.replace(problem, y_imag=problem.y_imag[moved])
    truth = topo.pose_row.reshape(m, 12)
    [solve] = estimate(problem, ["perfect"], truth=truth.ravel())
    [permuted] = estimate(relabeled, ["perfect"], truth=truth[order].ravel())
    # 1.65e-9 m at most over 20 coop M=5 sets; 4.4e-16 m over 160 sets of M=2..5 here
    poses = solve.estimate.reshape(m, 12)[order]
    assert np.abs(permuted.estimate.reshape(m, 12) - poses)[:, :3].max() < 1e-7
    assert np.isclose(permuted.final_cost[0], solve.final_cost[0], rtol=1e-12, atol=0.0)
    for name in ("stop_reason", "problem_iterations", "normal_equations_singular"):
        assert np.array_equal(getattr(permuted, name), getattr(solve, name))


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 5))
def test_coop_minimizer_without_agent_coupling_is_the_noncoop_one(
    room, anchors, coil, gparams, seed, m
):
    # zero coupling on the agent-agent links leaves their residuals constant, so the
    # cooperative and the per-agent solves minimize the same anchor-link cost; each
    # stops at LM_COST_TOL of its own cost, along its own damping path
    topo, coop = make_problem(m, Scheme.COOP, seed, coil, gparams, room, anchors)
    own = coop.links[:, 1] >= m
    coop = dataclasses.replace(coop, coupling=np.where(own, coop.coupling, 0.0))
    noncoop = dataclasses.replace(
        network_problem(m, anchors, coop.coupling[own][0], Scheme.NONCOOP), y_imag=coop.y_imag[own]
    )
    [joint] = estimate(coop, ["perfect"], truth=topo.pose_row)
    [alone] = estimate(noncoop, ["perfect"], truth=topo.pose_row)
    # over 1,200 sets of M=2..5: the anchor-link cost gap at most 3.15 LM_COST_TOL of the
    # cooperative cost, and positions apart by at most 9.7e-4 m; bounds about 10x those
    gap = noncoop.cost(joint.estimate[0]) - alone.final_cost.sum()
    assert abs(gap) <= 30 * estimators.LM_COST_TOL * joint.final_cost[0]
    positions = joint.estimate.reshape(m, 12)[:, :3] - alone.estimate[:, :3]
    assert np.abs(positions).max() < 1e-2


def _moved(rows, q, t):
    """Pose rows (..., 12M) under the rigid motion p -> q p + t, R -> q R."""
    poses = rows.reshape(rows.shape[:-1] + (-1, 4, 3))
    out = np.empty_like(poses)
    out[..., 0, :] = poses[..., 0, :] @ q.T + t
    out[..., 1:, :] = q @ poses[..., 1:, :]
    return out.reshape(rows.shape)


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 5), scheme=st.sampled_from(Scheme))
def test_a_rigid_motion_moves_the_estimates_with_it(room, anchors, coil, gparams, seed, m, scheme):
    # anchors, truths and starts moved by one rigid motion leave every gain, so the same
    # measurements; each LM path differs from the other only by rounding
    topo, problem = make_problem(m, scheme, seed, coil, gparams, room, anchors)
    rng = np.random.default_rng(seed)
    q, t = sample_uniform_rotation(rng), rng.uniform(-3.0, 3.0, 3)
    moved = dataclasses.replace(
        problem, anchor_positions=problem.anchor_positions @ q.T + t,
        anchor_rotations=q @ problem.anchor_rotations,
    )
    [solve] = estimate(problem, ["perfect"], truth=topo.pose_row)
    [solve_moved] = estimate(moved, ["perfect"], truth=_moved(topo.pose_row, q, t))
    # over 1,200 sets of M=1..5, both schemes: positions apart by at most 3.1e-6 m, rotation
    # entries by 7.5e-6, the cost at the moved point by 1.4e-14 relative and the final costs
    # by 6.3e-11 relative; bounds 13-70x those
    want = _moved(solve.estimate, q, t).reshape(-1, 4, 3)
    got = solve_moved.estimate.reshape(-1, 4, 3)
    assert np.abs(got[:, 0] - want[:, 0]).max() < 1e-4
    assert np.abs(got[:, 1:] - want[:, 1:]).max() < 1e-4
    at_moved = moved.cost(_moved(solve.estimate.ravel(), q, t))
    assert np.isclose(at_moved, problem.cost(solve.estimate.ravel()), rtol=1e-12, atol=0.0)
    assert np.allclose(
        solve_moved.final_cost, solve.final_cost, rtol=estimators.LM_COST_TOL, atol=0.0
    )
    assert np.array_equal(solve_moved.stop_reason, solve.stop_reason)


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
    # the noiseless gains of an agent on an anchor raise, as channel_matrix does
    on_anchor = topos[0].pose_row.copy()
    on_anchor[:3] = problem.anchor_positions[0]
    with pytest.raises(CoincidentNodes):
        problem.gains(on_anchor)


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


def _runaway_stack(coil, gparams, room, anchors):
    """Single-agent problems from starts inside the room and well outside it: some run off."""
    stack, singles = _anchor_stack([32, 33, 34], coil, gparams, room, anchors)
    rng = np.random.default_rng(35)
    x0 = np.vstack(
        [
            _random_starts(len(singles) // 2, rng, 0.0, 1.5),
            _random_starts(len(singles) - len(singles) // 2, rng, -3.0, 4.5),
        ]
    )
    return stack, singles, x0


def test_stacked_lm_matches_per_problem_oracle(coil, gparams, room, anchors):
    stack, singles, x0 = _runaway_stack(coil, gparams, room, anchors)
    solve = levenberg_marquardt(stack, x0)
    assert solve.estimate.shape == x0.shape
    diverged = 0
    for b, (single, start) in enumerate(zip(singles, x0)):
        ref = oracles.levenberg_marquardt(single, start)
        assert solve.problem_iterations[b] == ref.iterations
        assert solve.converged[b] == ref.converged
        assert solve.stop_reason[b] == ref.stop_reason
        assert solve.normal_equations_singular[b] == ref.normal_equations_singular
        assert np.isclose(solve.final_cost[b], ref.final_cost, rtol=1e-12, atol=0.0)
        diverged += np.linalg.norm(ref.estimate[:3]) > 100.0
    assert diverged > 0
    assert isinstance(solve.iterations, int)
    assert solve.iterations == int(solve.problem_iterations.sum())


@pytest.mark.parametrize("budget", [3, 8])
def test_stacked_lm_stops_each_problem_at_the_budget(
    budget, monkeypatch, coil, gparams, room, anchors
):
    # some problems converge within the budget and the rest run out of it, each on its own
    stack, singles, x0 = _runaway_stack(coil, gparams, room, anchors)
    monkeypatch.setattr(estimators, "LM_MAX_ITERATIONS", budget)
    monkeypatch.setattr(oracles, "LM_MAX_ITERATIONS", budget)
    solve = levenberg_marquardt(stack, x0)
    refs = [oracles.levenberg_marquardt(single, start) for single, start in zip(singles, x0)]
    assert np.array_equal(solve.problem_iterations, [ref.iterations for ref in refs])
    assert np.array_equal(solve.converged, [ref.converged for ref in refs])
    assert np.array_equal(solve.stop_reason, [ref.stop_reason for ref in refs])
    assert solve.converged.any() and not solve.converged.all()
    assert np.allclose(solve.final_cost, [ref.final_cost for ref in refs], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("per_slice", [None, 3])
def test_lm_equals_the_two_pass_round(per_slice, monkeypatch, coil, gparams, room, anchors):
    # bit for bit: sums from the kept trial point, written slice by slice,
    # against normal equations evaluated afresh at the rows that go on
    stack, _, x0 = _runaway_stack(coil, gparams, room, anchors)
    coop, _, truths = _coop_sets(3, [50, 51, 52], coil, gparams, room, anchors)
    rng = np.random.default_rng(53)
    near = coop.retract(truths, rng.normal(0.0, 0.1, (3, 18)))
    starts = np.vstack([near, _random_starts(9, rng, 0.0, 1.5).reshape(3, 36)])
    coop = dataclasses.replace(coop, y_imag=np.concatenate([coop.y_imag, coop.y_imag]))
    for problem, start in ((stack, x0), (coop, starts)):
        if per_slice:
            monkeypatch.setattr(estimators, "LINKS_PER_SLICE", per_slice * len(problem.links))
        solve = levenberg_marquardt(problem, start)
        want = levenberg_marquardt(oracles.TwoPassProblem(problem), start)
        for field in dataclasses.fields(estimators.StackedSolve):
            assert np.array_equal(getattr(solve, field.name), getattr(want, field.name)), field.name


class _NanJacobianRows:
    """A stacked problem whose normal equations are NaN for the listed problems."""

    def __init__(self, problem, broken):
        self.problem = problem
        self.broken = broken

    def evaluate(self, x, index):
        residual, point = self.problem.evaluate(x, index)
        return residual, (point, index)

    def normal_slices(self, point, rows):
        point, index = point
        for part, jtj, gradient in self.problem.normal_slices(point, rows):
            jtj[np.isin(index[rows[part]], self.broken)] = np.nan
            gradient[np.isin(index[rows[part]], self.broken)] = np.nan
            yield part, jtj, gradient

    def retract(self, x, step):
        return self.problem.retract(x, step)


def test_nan_jacobian_problem_leaves_the_others_alone(coil, gparams, room, anchors):
    stack, singles = _anchor_stack([36], coil, gparams, room, anchors)
    x0 = _random_starts(len(singles), np.random.default_rng(37), 0.0, 1.5)
    solve = levenberg_marquardt(_NanJacobianRows(stack, [1]), x0)
    assert solve.normal_equations_singular[1] and not solve.converged[1]
    assert solve.stop_reason[1] == StopReason.DAMPING_CEILING
    assert np.array_equal(solve.estimate[1], x0[1])
    for b in (0, 2, 3):
        alone = levenberg_marquardt(singles[b], x0[b])
        assert solve.problem_iterations[b] == alone.problem_iterations
        assert solve.converged[b] == alone.converged
        assert not solve.normal_equations_singular[b]
        assert np.isclose(solve.final_cost[b], alone.final_cost, rtol=1e-13, atol=0.0)
        assert np.allclose(solve.estimate[b], alone.estimate, rtol=1e-12, atol=1e-12)


def test_start_on_an_anchor_fails_alone(coil, gparams, room, anchors):
    stack, singles = _anchor_stack([36, 37], coil, gparams, room, anchors)
    x0 = _random_starts(len(singles), np.random.default_rng(38), 0.0, 1.5)
    x0[3, :3] = stack.anchor_positions[2]  # problem 3 starts on anchor 2
    solve = levenberg_marquardt(stack, x0)
    assert solve.stop_reason[3] == StopReason.NON_FINITE_START and not solve.converged[3]
    assert solve.final_cost[3] == np.inf and np.array_equal(solve.estimate[3], x0[3])
    assert not solve.normal_equations_singular[3]  # no step was tried
    others = np.delete(np.arange(len(x0)), 3)
    without = levenberg_marquardt(dataclasses.replace(stack, y_imag=stack.y_imag[others]), x0[others])
    for field in dataclasses.fields(solve):
        assert np.array_equal(getattr(solve, field.name)[others], getattr(without, field.name))


def test_restart_on_an_anchor_never_wins(monkeypatch, coil, gparams, room, anchors):
    # the first restart starts on an anchor, so the second one wins, as if started alone
    _, problem = make_problem(1, Scheme.NONCOOP, 39, coil, gparams, room, anchors)
    draw = estimators._random_poses
    positions, rotations = draw(2, room, np.random.default_rng(40))

    def first_on_an_anchor(count, room, rng):
        drawn, turned = draw(count, room, rng)
        drawn[0] = problem.anchor_positions[0]
        return drawn, turned

    monkeypatch.setattr(estimators, "_random_poses", first_on_an_anchor)
    [solve] = estimate(problem, ["random:2"], room, rng=np.random.default_rng(40))
    [second] = estimate(problem, ["perfect"], truth=join_poses(positions[1:], rotations[1:]))
    assert solve.stop_reason[0] != StopReason.NON_FINITE_START
    for field in dataclasses.fields(solve):
        assert np.array_equal(getattr(solve, field.name), getattr(second, field.name))


def test_singular_system_in_stack_is_solved_apart():
    jtj = np.array([np.eye(2), [[1.0, 1.0], [1.0, 1.0]], 2.0 * np.eye(2), [[3.0, 0.7], [0.7, 0.2]]])
    gradient = np.array([[1.0, 2.0], [1.0, 1.0], [4.0, 2.0], [0.3, -0.7]])
    lam = np.array([1.0, 0.0, 1.0, 0.1])
    for array in (jtj, gradient, lam):  # the steps gather their systems, never write the stack
        array.setflags(write=False)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(jtj[1], -gradient[1])
    trying = np.array([0, 1, 3])
    steps = estimators._damped_steps(jtj, gradient, lam, trying)
    assert steps.shape == (3, 2)
    assert np.isnan(steps[1]).all()
    for step, b in zip(steps[[0, 2]], trying[[0, 2]]):
        damped = jtj[b] + np.diag(lam[b] * np.maximum(np.diag(jtj[b]), 1e-30))
        assert np.array_equal(step, np.linalg.solve(damped, -gradient[b][:, None])[:, 0])
    assert np.array_equal(steps[0], -gradient[0] / 2.0)


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
    assert np.array_equal(solve.stop_reason, ref.stop_reason)
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
            (problem.evaluate(p + h * e, index)[0] - problem.evaluate(p - h * e, index)[0])
            / (2 * h)
            for e in np.eye(3)
        ],
        axis=-1,
    )
    want = oracles.normal_equations(problem.evaluate(p, index)[0], jac)
    for got, want in zip(estimators._normal_equations(problem, p, index), want):
        assert np.allclose(got, want, rtol=1e-7, atol=1e-9)


def test_agent_links_are_not_repeated(room, anchors, coil, gparams):
    topo, problem = make_problem(3, Scheme.COOP, 80, coil, gparams, room, anchors)
    links = np.vstack([problem.links, [1, 2]])
    repeated = dataclasses.replace(problem, links=links, y_imag=np.zeros((len(links), 3, 3)))
    with pytest.raises(ValueError, match="once per direction"):
        repeated.normal_equations(topo.pose_row)
