"""Iterative least-squares deployment estimation and the range-only baseline.

The measurement model is purely imaginary, so the residual stacks only the
imaginary parts Im(H_meas) - Im(H(theta)) of every link (9 reals per link);
the real-part terms of the Frobenius objective are parameter independent and
do not move the minimizer.  An agent's pose is its position and its
rotation matrix, packed into pose rows of twelve numbers per agent
(geometry.join_poses).  The solver steps six numbers per agent, a position
step dp and a local rotation phi, and LsProblem.retract applies them as
p + dp and R exp([phi]x), so every iterate's rotation stays a rotation
and no orientation chart has a singularity.

Batch convention: residuals and normal equations take pose rows of shape
(..., 12M) and return (..., 9L) residuals, (..., 6M, 6M) normal matrices
J^T J and (..., 6M) gradients J^T r, over the 6M step parameters; a 1-d
row gives one problem.  They are summed link by link from each link's
derivative columns (LsProblem.normal_equations), so no dense Jacobian is
formed.  Independent problems (the agents of a non-cooperative network,
random restarts, the trials of a chunk) are rows of one stack, and
levenberg_marquardt advances all rows together, each with its own damping
and termination.  Memory is bounded in links: link columns are formed for
at most LINKS_PER_SLICE links at a time, and estimate splits a stack into
LM calls of at most _LINKS_PER_LM_CALL links (whole sets, at least one).
Results stay arrays: levenberg_marquardt and estimate return a StackedSolve,
one entry per problem, and estimate's are shaped by measurement set and
group of agents (one group for a cooperative problem, one per agent for a
non-cooperative one).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import lru_cache
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from . import channel as chan
from .geometry import (
    Deployment,
    Room,
    exp_rotation,
    group_poses,
    join_poses,
    quaternion_to_rotation,
    split_poses,
)
from . import pairml
from .scenario import MeasurementSet

LM_INITIAL_DAMPING = 1e-3
LM_MAX_DAMPING = 1e12
LM_MAX_ITERATIONS = 500
LM_STEP_TOL = 1e-10
LM_COST_TOL = 1e-12

# Links whose derivative columns are formed at once (whole problems, at least
# one): the memory of the link sums of any stack or bound sweep stays flat.
LINKS_PER_SLICE = 256

# Links per stacked LM call, summed over its problems, to bound the problems'
# state; fifteen cooperative M=10 problems (130 links each) fit in a call.
_LINKS_PER_LM_CALL = 2048


class DimensionMismatch(ValueError):
    """Pose row length does not match the problem."""


def pack_deployments(deployments: Sequence[Deployment]) -> np.ndarray:
    """The (12M,) pose row of M agents' deployments (geometry.join_poses)."""
    return join_poses(
        np.reshape([d.position for d in deployments], (-1, 3)),
        np.reshape([d.rotation for d in deployments], (-1, 3, 3)),
    )


@dataclass
class LsProblem:
    """Nonlinear least-squares problem over the unknown agent deployments.

    Node indexing: agents occupy ids 0 .. n_agents-1, anchors follow.  Links
    are ordered (tx, rx) pairs; the transmitter is always an agent, the
    receiver an agent or an anchor; the problem is cooperative exactly when
    some receiver is an agent.  y_imag holds one measurement set
    (L, 3, 3), or a stack (B, L, 3, 3) of B sets over the same links and
    anchors: B independent problems that the solver advances together.
    """

    n_agents: int
    anchor_positions: np.ndarray  # (N, 3)
    anchor_rotations: np.ndarray  # (N, 3, 3)
    links: np.ndarray  # (L, 2) int
    y_imag: np.ndarray  # (L, 3, 3) or (B, L, 3, 3) measured imaginary parts
    coupling: float

    def __post_init__(self):
        self.anchor_positions = np.asarray(self.anchor_positions, dtype=float).reshape(-1, 3)
        self.anchor_rotations = np.asarray(self.anchor_rotations, dtype=float).reshape(-1, 3, 3)
        self.links = np.asarray(self.links, dtype=int).reshape(-1, 2)
        self.y_imag = np.asarray(self.y_imag, dtype=float)
        if self.y_imag.ndim not in (3, 4) or self.y_imag.shape[-3] != len(self.links):
            raise DimensionMismatch("one measurement required per link")
        if np.any(self.links[:, 0] >= self.n_agents):
            raise ValueError("link transmitters must be agents")

    @classmethod
    def from_measurements(
        cls,
        measured,
        anchors: Sequence[Deployment],
        n_agents: int,
        coupling: float,
    ) -> "LsProblem":
        """The problem of one MeasurementSet, or of a list of T sets over the same links.

        A list gives the stacked y_imag (T, L, 3, 3).
        """
        single = isinstance(measured, MeasurementSet)
        sets = [measured] if single else measured
        y_imag = np.imag([s.h_meas for s in sets])
        return cls(
            n_agents=n_agents,
            anchor_positions=np.stack([a.position for a in anchors]),
            anchor_rotations=np.stack([a.rotation for a in anchors]),
            links=sets[0].links,
            y_imag=y_imag[0] if single else y_imag,
            coupling=coupling,
        )

    @property
    def n_parameters(self) -> int:
        return 6 * self.n_agents

    @property
    def cooperative(self) -> bool:
        """True when some link joins two agents, so the agents do not decouple."""
        return bool(np.any(self.links[:, 1] < self.n_agents))

    def anchor_link_rows(self) -> np.ndarray:
        """Rows of every agent's anchor links as an (M, K) block, in link order.

        Raises:
            ValueError: the agents do not share one anchor-link pattern.
        """
        m = self.n_agents
        own = np.flatnonzero(self.links[:, 1] >= m)
        rows = own[np.argsort(self.links[own, 0], kind="stable")]
        if len(rows) % m == 0:
            rows = rows.reshape(m, -1)
            if np.all(self.links[rows, 0] == np.arange(m)[:, None]) and np.all(
                self.links[rows, 1] == self.links[rows[:1], 1]
            ):
                return rows
        raise ValueError("agents must share one anchor-link pattern")

    def _check(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape[-1:] != (12 * self.n_agents,):
            raise DimensionMismatch(f"expected pose rows of length {12 * self.n_agents}")
        return theta

    def retract(self, theta: np.ndarray, step: np.ndarray) -> np.ndarray:
        """Pose rows theta (..., 12M) moved by steps (..., 6M): p + dp and R exp([phi]x).

        A step holds [dp, phi] for every agent in turn.
        """
        positions, rotations = split_poses(self._check(theta))
        step = np.reshape(step, positions.shape[:-1] + (6,))
        return join_poses(positions + step[..., :3], rotations @ exp_rotation(step[..., 3:]))

    def _geometry(self, theta: np.ndarray):
        """Batch shape and the flattened (batch * L) link quantities of pose rows theta."""
        agent_p, agent_o = split_poses(theta)
        batch = agent_p.shape[:-2]
        anchors_p = np.broadcast_to(self.anchor_positions, batch + self.anchor_positions.shape)
        anchors_o = np.broadcast_to(self.anchor_rotations, batch + self.anchor_rotations.shape)
        positions = np.concatenate([agent_p, anchors_p], axis=-2)
        rotations = np.concatenate([agent_o, anchors_o], axis=-3)
        tx, rx = self.links[:, 0], self.links[:, 1]
        o_tx = rotations[..., tx, :, :].reshape(-1, 3, 3)
        o_rx = rotations[..., rx, :, :].reshape(-1, 3, 3)
        gains, r, u, f = chan.channel_gain_batch(
            positions[..., tx, :].reshape(-1, 3), o_tx,
            positions[..., rx, :].reshape(-1, 3), o_rx, self.coupling,
        )
        return batch, o_tx, o_rx, gains, r, u, f

    def _measured(self, index) -> np.ndarray:
        """The measured sets of the problems in index (default: all of them, in order)."""
        return self.y_imag[index] if self.y_imag.ndim == 4 and index is not None else self.y_imag

    def residual(self, theta: np.ndarray, index=None) -> np.ndarray:
        """Residual rows of shape (..., 9L) for pose rows theta (..., 12M).

        With a stacked y_imag, index lists the problems theta's rows belong
        to (default: all of them, in order).
        """
        theta = self._check(theta)
        batch, _, _, gains, _, _, _ = self._geometry(theta)
        res = self._measured(index) - gains.reshape(batch + (len(self.links), 3, 3))
        return res.reshape(res.shape[:-3] + (-1,))

    def cost(self, theta: np.ndarray) -> float:
        res = self.residual(theta)
        return float(res @ res)

    def normal_equations(self, theta: np.ndarray, index=None):
        """Residual (..., 9L), J^T J (..., 6M, 6M) and J^T r (..., 6M) at pose rows (..., 12M).

        index is as for residual.  Summed link by link (_link_sums) in
        slices of whole problems, at most LINKS_PER_SLICE links or one
        problem, so no problem's sums depend on the stack or the slicing.
        """
        theta = self._check(theta)
        batch, n_links = theta.shape[:-1], len(self.links)
        rows = theta.reshape(-1, theta.shape[-1])
        measured = np.broadcast_to(self._measured(index), batch + (n_links, 3, 3))
        measured = measured.reshape(len(rows), n_links, 3, 3)
        step = max(1, LINKS_PER_SLICE // max(n_links, 1))
        parts = [
            self._link_sums(rows[s : s + step], measured[s : s + step])
            for s in range(0, len(rows), step)
        ]
        sums = parts[0] if len(parts) == 1 else [np.concatenate(part) for part in zip(*parts)]
        return tuple(part.reshape(batch + part.shape[1:]) for part in sums)

    def _link_columns(self, rows: np.ndarray, measured: np.ndarray):
        """Residuals (n, 9L) and link columns (n * L, 9, 12) of rows (n, 12M), geometry freed."""
        _, o_tx, o_rx, gains, r, u, f = self._geometry(rows)
        cols = chan.channel_derivative_columns(r, u, f, gains, o_tx, o_rx, self.coupling)
        return (measured - gains.reshape(measured.shape)).reshape(len(rows), -1), cols

    def _link_sums(self, rows: np.ndarray, measured: np.ndarray):
        """normal_equations of k pose rows (k, 12M) and their measured sets (k, L, 3, 3).

        The residual derivatives are -C: each link's transmitter columns
        C_tx, and C_rx for an agent receiver.  An agent's diagonal block is
        the Gram matrix of the stacked columns of its links, and an
        agent-agent link adds C_tx^T C_rx to its (tx, rx) block and the
        transpose to its (rx, tx) block.  One agent has anchor links only:
        its sums are one plain product, without the gathers.
        """
        residual, cols = self._link_columns(rows, measured)
        count, m, n_links = len(rows), self.n_agents, len(self.links)
        if m == 1:
            stacked = cols[:, :, :6].reshape(count, -1, 6)  # (k, 9L, 6)
            stacked_t = np.swapaxes(stacked, -1, -2)
            return residual, stacked_t @ stacked, -(stacked_t @ residual[..., None])[..., 0]
        touch, pad, pairs = _link_tables(m, self.links.tobytes())
        ends_t = cols.transpose(0, 2, 1).reshape(count, 2 * n_links, 6, 9)  # C^T of link ends
        stacked = np.swapaxes(ends_t, -1, -2)[:, touch]  # (k, M, K, 9, 6)
        res = residual.reshape(count, n_links, 9)[:, touch // 2]  # (k, M, K, 9)
        stacked[:, pad], res[:, pad] = 0.0, 0.0
        stacked = stacked.reshape(count, m, -1, 6)
        stacked_t = np.swapaxes(stacked, -1, -2)
        blocks = np.zeros((count, m, m, 6, 6))
        blocks[:, np.arange(m), np.arange(m)] = stacked_t @ stacked
        pulls = stacked_t @ res.reshape(count, m, -1, 1)
        del stacked, stacked_t, res  # before the cross blocks, to bound the peak
        sides = ends_t.reshape(count, n_links, 2, 6, 9)[:, pairs]
        tx, rx = self.links[pairs].T
        blocks[:, tx, rx] = sides[:, :, 0] @ np.swapaxes(sides[:, :, 1], -1, -2)
        blocks[:, rx, tx] += np.swapaxes(blocks[:, tx, rx], -1, -2)
        jtj = blocks.transpose(0, 1, 3, 2, 4).reshape(count, 6 * m, 6 * m)
        return residual, jtj, -pulls.reshape(count, 6 * m)


@lru_cache(maxsize=64)
def _link_tables(n_agents: int, links_key: bytes):
    """Gather tables of the link set whose (L, 2) int array has the bytes links_key.

    touch (M, K) holds each agent's link ends 2 l + side (0 transmitter,
    1 receiver) in link order, padded to the longest; pad (M, K) marks the
    padding; pairs lists the agent-agent links.  Read-only.  Raises
    ValueError if two links join the same agents in the same direction.
    """
    links = np.frombuffer(links_key, dtype=int).reshape(-1, 2)
    pairs = np.flatnonzero(links[:, 1] < n_agents)
    if np.any(np.bincount(links[pairs, 0] * n_agents + links[pairs, 1]) > 1):
        raise ValueError("agent-agent links must join two agents once per direction")
    nodes = links.ravel()
    ends = np.flatnonzero(nodes < n_agents)
    ends = ends[np.argsort(nodes[ends], kind="stable")]
    counts = np.bincount(nodes[ends], minlength=n_agents)
    pad = np.arange(counts.max(initial=0)) >= counts[:, None]
    touch = np.zeros(pad.shape, dtype=int)
    touch[~pad] = ends
    for table in (touch, pad, pairs):
        table.setflags(write=False)
    return touch, pad, pairs


@dataclass
class StackedSolve:
    """Outcome of one stacked Levenberg-Marquardt solve.

    The per-problem fields share one batch shape: that of the starts x0 of
    levenberg_marquardt (0-d for a single 1-d start), or the sets and groups
    of estimate.  estimate holds each problem's final pose row, and
    iterations totals the per-problem counts.
    """

    estimate: np.ndarray
    final_cost: np.ndarray
    problem_iterations: np.ndarray
    converged: np.ndarray
    normal_equations_singular: np.ndarray

    @property
    def iterations(self) -> int:
        return int(self.problem_iterations.sum())


def _sum_squares(residual: np.ndarray) -> np.ndarray:
    return np.einsum("bi,bi->b", residual, residual)


def _damped_steps(jtj: np.ndarray, gradient: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Marquardt steps of a (B, P, P) stack; NaN rows where a system is singular."""
    diag = np.arange(jtj.shape[-1])
    scale = np.maximum(jtj[:, diag, diag], 1e-30)
    system = jtj.copy()
    system[:, diag, diag] += lam[:, None] * scale
    rhs = -gradient[..., None]
    try:
        return np.linalg.solve(system, rhs)[..., 0]
    except np.linalg.LinAlgError:
        # one singular system must not stop the others: solve them one by one
        steps = np.full(gradient.shape, np.nan)
        for b in range(len(system)):
            try:
                steps[b] = np.linalg.solve(system[b], rhs[b])[:, 0]
            except np.linalg.LinAlgError:
                pass
        return steps


def levenberg_marquardt(problem, x0: np.ndarray) -> StackedSolve:
    """Damped Gauss-Newton iteration with the classic Marquardt schedule.

    x0 has shape (..., W): one start per independent problem of a stack.
    problem.residual(x, index) evaluates the residual rows of the rows x
    (n, W) of the problems listed in index, problem.normal_equations(x,
    index) their residuals, normal matrices (n, P, P) and gradients (n, P)
    over P step parameters, and problem.retract(x, step) moves rows x by
    steps (n, P).  Every problem keeps its own damping, cost, iteration
    count and flags; each round makes one residual call for the problems
    trying a step and one normal-equation call for those that accepted one.

    The damping term scales the diagonal of the normal equations; lambda is
    multiplied by 10 on every rejected step and divided by 10 after an
    accepted one, so the accepted cost sequence is non-increasing.
    Termination: step norm below LM_STEP_TOL, relative cost decrease below
    LM_COST_TOL, or the budget of LM_MAX_ITERATIONS; the LM_* settings are
    read at call time.  If no acceptable step exists up to
    the damping ceiling the problem reports failure instead of raising; a
    singular or non-finite system marks only its own problem.
    """
    x0 = np.asarray(x0, dtype=float)
    x = x0.reshape(-1, x0.shape[-1]).copy()
    count = len(x)
    everyone = np.arange(count)
    residual, jtj, gradient = problem.normal_equations(x, everyone)
    cost = _sum_squares(residual)
    lam = np.full(count, LM_INITIAL_DAMPING)
    iteration = np.ones(count, dtype=int)
    converged = np.zeros(count, dtype=bool)
    singular = np.zeros(count, dtype=bool)
    active = np.ones(count, dtype=bool)

    while True:
        # a problem whose damping passed the ceiling has no acceptable step
        active &= lam <= LM_MAX_DAMPING
        trying = everyone[active]
        if not trying.size:
            break
        step = _damped_steps(jtj[trying], gradient[trying], lam[trying])
        finite = np.all(np.isfinite(step), axis=1)
        failed = trying[~finite]
        singular[failed] = True
        lam[failed] *= 10.0
        trying, step = trying[finite], step[finite]
        if not trying.size:
            continue
        trial = problem.retract(x[trying], step)
        trial_cost = _sum_squares(problem.residual(trial, trying))
        accept = trial_cost <= cost[trying]
        lam[trying[~accept]] *= 10.0

        moved, step, new_cost = trying[accept], step[accept], trial_cost[accept]
        decrease = cost[moved] - new_cost
        x[moved] = trial[accept]
        cost[moved] = new_cost
        lam[moved] = np.maximum(lam[moved] / 10.0, 1e-15)
        done = (np.linalg.norm(step, axis=1) < LM_STEP_TOL) | (
            decrease <= LM_COST_TOL * np.maximum(new_cost, 1e-300)
        )
        converged[moved[done]] = True
        active[moved[done]] = False
        going = moved[~done]
        exhausted = iteration[going] >= LM_MAX_ITERATIONS
        active[going[exhausted]] = False
        going = going[~exhausted]
        if going.size:
            iteration[going] += 1
            _, jtj[going], gradient[going] = problem.normal_equations(x[going], going)

    shape = x0.shape[:-1]
    return StackedSolve(
        estimate=x.reshape(x0.shape),
        final_cost=cost.reshape(shape),
        problem_iterations=iteration.reshape(shape),
        converged=converged.reshape(shape),
        normal_equations_singular=singular.reshape(shape),
    )


def _random_poses(count: int, room: Room, rng: np.random.Generator):
    """count positions (count, 3), uniform in the room, and Haar-uniform rotations (count, 3, 3).

    Each pose draws its position, then its quaternion, from rng in turn;
    all quaternions are converted in one batched call.
    """
    positions, quaternions = np.empty((count, 3)), np.empty((count, 4))
    for k in range(count):
        positions[k] = room.sample_point(rng)
        quaternions[k] = rng.standard_normal(4)
    return positions, quaternion_to_rotation(quaternions)


def pairml_initialization(problem: LsProblem, room: Room) -> np.ndarray:
    """Closed-form per-agent initialization from the anchor links.

    Returns the (12M,) pose row, or (T, 12M) for a stack of T measurement
    sets; every agent of the stack goes through one pair-ML call.
    """
    rows = problem.anchor_link_rows()
    anchors = problem.links[rows, 1] - problem.n_agents
    y_imag = problem.y_imag[..., rows, :, :]
    batch, k = y_imag.shape[:-4], rows.shape[1]
    positions = np.broadcast_to(problem.anchor_positions[anchors], batch + rows.shape + (3,))
    rotations = np.broadcast_to(problem.anchor_rotations[anchors], batch + rows.shape + (3, 3))
    agent_p, agent_o = pairml.pair_ml_estimate(
        y_imag.reshape(-1, k, 3, 3),
        positions.reshape(-1, k, 3),
        rotations.reshape(-1, k, 3, 3),
        problem.coupling,
        room,
    )
    agents = batch + (problem.n_agents,)
    return join_poses(agent_p.reshape(agents + (3,)), agent_o.reshape(agents + (3, 3)))


def _problem_stack(
    problem: LsProblem, y_imag: np.ndarray, copies: int, with_reference: bool
) -> LsProblem:
    """The independent problems of T measurement sets y_imag (T, L, 3, 3), each copies times.

    A cooperative set is one problem.  A non-cooperative set splits into one
    single-agent problem per agent, which keeps only its anchor links.  The
    stack is set-major, then agent-major, then copy-minor; with_reference
    appends every set's problems once more, in the same order.
    """
    base = problem
    if not problem.cooperative:
        rows = problem.anchor_link_rows()
        anchors = problem.links[rows[0], 1] - problem.n_agents
        y_imag = y_imag[:, rows].reshape(-1, len(anchors), 3, 3)
        base = LsProblem(
            n_agents=1,
            anchor_positions=problem.anchor_positions,
            anchor_rotations=problem.anchor_rotations,
            links=np.column_stack([np.zeros(len(anchors), dtype=int), anchors + 1]),
            y_imag=y_imag,
            coupling=problem.coupling,
        )
    stack = np.repeat(y_imag, copies, axis=0)
    if with_reference:
        stack = np.concatenate([stack, y_imag])
    return replace(base, y_imag=stack)


def _solve_in_calls(problem: LsProblem, x0: np.ndarray, per_set: int) -> StackedSolve:
    """levenberg_marquardt on the (B, P) starts x0 of a stacked problem, split into calls.

    A call holds as many whole runs of per_set problems (one set's estimate)
    as _LINKS_PER_LM_CALL links admit, and at least one, so no set's
    estimate is split.  The problems are independent, so the split changes
    no result.
    """
    links = len(problem.links) * per_set
    per_call = per_set * max(1, _LINKS_PER_LM_CALL // links)
    parts = [
        levenberg_marquardt(
            replace(problem, y_imag=problem.y_imag[start : start + per_call]),
            x0[start : start + per_call],
        )
        for start in range(0, len(x0), per_call)
    ]
    return StackedSolve(
        *(np.concatenate([getattr(part, f.name) for part in parts]) for f in fields(StackedSolve))
    )


def parse_init_strategy(spec: str) -> Tuple[str, int]:
    """Parse 'perfect', 'pairml', 'random' or 'random:<k>', spelled exactly so.

    Raises:
        ValueError: any other spelling, or a restart count below one.
    """
    name, _, arg = spec.partition(":")
    if name == "random":
        try:
            count = int(arg) if arg else 1
        except ValueError as exc:
            raise ValueError(f"bad restart count in {spec!r}") from exc
        if count < 1:
            raise ValueError("random restart count must be >= 1")
        return name, count
    if name in ("perfect", "pairml"):
        if arg:
            raise ValueError(f"init strategy {name!r} takes no argument")
        return name, 1
    raise ValueError(f"init must be perfect, random[:k] or pairml, got {spec!r}")


def estimate(
    problem: LsProblem,
    init: str,
    room: Optional[Room] = None,
    truth: Optional[np.ndarray] = None,
    rng: Union[np.random.Generator, Sequence[np.random.Generator], None] = None,
    with_reference: bool = False,
) -> Tuple[StackedSolve, Optional[StackedSolve]]:
    """Solve a deployment estimation problem with the requested initialization.

    init is one of 'perfect' (start from the true parameters, evaluation
    mode), 'random' / 'random:<k>' (uniform position in the room, uniform
    orientation; the restart with the lowest final cost wins, the first on
    ties) or 'pairml' (closed-form per-agent initialization, one LM run).

    A cooperative problem is one group of agents.  A non-cooperative one
    decomposes into M independent groups of one agent, each on its own
    anchor links, so a group's final cost is its agent's own objective.
    truth holds pose rows (pack_deployments).  A stack of T measurement
    sets, problem.y_imag (T, L, 3, 3), takes truth (T, 12M) and rng as a
    sequence of T generators; each set's results equal those of the set
    solved alone, its random starts drawn from its own rng.

    Returns (solve, reference): the estimates and, with_reference, the
    perfect-init solves (else None).  Their per-problem fields have the
    shape y_imag.shape[:-3] + (groups,), and estimate holds each group's
    pose row, (..., groups, 12M / groups).  All sets, groups, restarts and
    references share LM calls of a bounded number of links
    (_solve_in_calls), each holding whole sets' estimates; the references
    follow after every estimate.
    """
    strategy, restarts = parse_init_strategy(init)
    if (strategy == "perfect" or with_reference) and truth is None:
        raise ValueError("perfect initialization requires the true parameters")
    if strategy in ("random", "pairml") and room is None:
        raise ValueError(f"{strategy} initialization requires the room")
    if strategy == "random" and rng is None:
        raise ValueError("random initialization requires an rng")

    single = problem.y_imag.ndim == 3
    y_imag = problem.y_imag[None] if single else problem.y_imag
    sets = len(y_imag)
    groups = 1 if problem.cooperative else problem.n_agents
    width = 12 * problem.n_agents // groups
    if truth is not None:
        truth = group_poses(np.reshape(truth, (sets, -1)), groups)[:, :, None]
    if strategy == "perfect":
        starts = truth
    elif strategy == "pairml":
        starts = pairml_initialization(problem, room).reshape(sets, -1)
        starts = group_poses(starts, groups)[:, :, None]
    else:
        rngs = [rng] if single else rng
        drawn = [_random_poses(problem.n_agents * restarts, room, r) for r in rngs]
        # a set's draws fill its groups, then their restarts, then their agents
        positions = np.stack([p for p, _ in drawn]).reshape(sets, groups, restarts, -1, 3)
        rotations = np.stack([o for _, o in drawn]).reshape(sets, groups, restarts, -1, 3, 3)
        starts = join_poses(positions, rotations)
    x0 = starts.reshape(-1, width)
    if with_reference:
        x0 = np.concatenate([x0, truth.reshape(-1, width)])
    solve = _solve_in_calls(
        _problem_stack(problem, y_imag, restarts, with_reference), x0, groups * restarts
    )
    group = np.arange(sets * groups).reshape(problem.y_imag.shape[:-3] + (groups,))
    # lowest final cost per group, first on ties (final costs are finite)
    costs = solve.final_cost[: group.size * restarts].reshape(group.shape + (restarts,))
    best = _take(solve, restarts * group + np.argmin(costs, axis=-1))
    # one reference problem per group, after all the estimates
    return best, _take(solve, group.size * restarts + group) if with_reference else None


def _take(solve: StackedSolve, index: np.ndarray) -> StackedSolve:
    """The problems index of a solve with one batch axis, in the shape of index."""
    return StackedSolve(*(getattr(solve, f.name)[index] for f in fields(StackedSolve)))


@dataclass
class _RangeProblem:
    """Residuals ||p - a_n|| - r_n of a stack of range-only fixes.

    anchor_positions (B, N, 3) and distances (B, N); a NaN distance marks a
    padded anchor, whose residual and Jacobian row are zero.
    """

    anchor_positions: np.ndarray
    distances: np.ndarray

    def normal_equations(self, p: np.ndarray, index=None):
        anchors, distances = self.anchor_positions, self.distances
        if index is not None:
            anchors, distances = anchors[index], distances[index]
        diff = p[..., None, :] - anchors
        norms = np.maximum(np.linalg.norm(diff, axis=-1), 1e-12)
        usable = np.isfinite(distances)
        residual = np.where(usable, norms - distances, 0.0)
        jac = np.where(usable[..., None], diff / norms[..., None], 0.0)
        jac_t = np.swapaxes(jac, -1, -2)
        return residual, jac_t @ jac, (jac_t @ residual[..., None])[..., 0]

    def residual(self, p: np.ndarray, index=None) -> np.ndarray:
        return self.normal_equations(p, index)[0]

    def retract(self, p: np.ndarray, step: np.ndarray) -> np.ndarray:
        return p + step


@dataclass
class MultilaterationResult:
    position: np.ndarray
    underdetermined: np.ndarray
    converged: np.ndarray


def multilaterate(
    anchor_positions: np.ndarray,
    distances: np.ndarray,
    room: Room,
) -> MultilaterationResult:
    """Range-only position fixes from per-anchor distance estimates.

    anchor_positions (..., N, 3) and distances (..., N) hold one fix per
    leading index; all fixes are solved as one stacked LM, each initialized
    at the room center, and clamped to the room.  A NaN distance marks an
    anchor without a usable estimate, so fixes over different anchor counts
    can share a stack.  converged flags each fix on its own.  Fewer than
    three usable anchors leave a 3-d fix underdetermined, which is flagged
    rather than raised.
    """
    anchor_positions = np.asarray(anchor_positions, dtype=float)
    distances = np.asarray(distances, dtype=float)
    problem = _RangeProblem(
        anchor_positions.reshape(-1, distances.shape[-1], 3),
        distances.reshape(-1, distances.shape[-1]),
    )
    start = np.broadcast_to(room.center, distances.shape[:-1] + (3,))
    solve = levenberg_marquardt(problem, start)
    return MultilaterationResult(
        position=room.clamp(solve.estimate),
        underdetermined=np.sum(np.isfinite(distances), axis=-1) < 3,
        converged=solve.converged,
    )
