"""Iterative least-squares deployment estimation and the range-only baseline.

The measurement model is purely imaginary, so the residual stacks only the
imaginary parts Im(H_meas) - Im(H(theta)) of every link (9 reals per link);
the real-part terms of the Frobenius objective are parameter independent and
do not move the minimizer.  Agent parameters are packed as a flat vector of
six entries per agent, [x, y, z, alpha, beta, gamma], and Euler angles stay
unconstrained during the iteration (canonicalized only on output).

Batch convention: residuals and Jacobians take parameters of shape
(..., 6M) and return (..., 9L) and (..., 9L, 6M); a 1-d vector gives one
problem.  Independent problems (the agents of a non-cooperative network,
random restarts) are rows of one stack, and levenberg_marquardt advances
all rows together, each with its own damping and termination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import channel as chan
from .geometry import (
    Deployment,
    Room,
    euler_rotation_derivatives,
    euler_to_rotation_batch,
    rotation_to_euler,
    sample_uniform_rotation,
)
from . import pairml
from .scenario import MeasurementSet

LM_INITIAL_DAMPING = 1e-3
LM_MAX_DAMPING = 1e12
LM_MAX_ITERATIONS = 500
LM_STEP_TOL = 1e-10
LM_COST_TOL = 1e-12


class DimensionMismatch(ValueError):
    """Parameter vector length does not match the problem."""


@dataclass
class SolveReport:
    """Outcome of one estimation run."""

    estimate: np.ndarray
    final_cost: float
    iterations: int
    converged: bool
    initializations_used: int = 1
    normal_equations_singular: bool = False


def pack_deployments(deployments: Sequence[Deployment]) -> np.ndarray:
    """Stack agent poses into the flat 6M parameter vector."""
    return np.hstack([d.as_vector() for d in deployments])


def unpack_parameters(theta: np.ndarray) -> List[Deployment]:
    """Inverse of pack_deployments; Euler angles are canonicalized."""
    theta = np.asarray(theta, dtype=float)
    if theta.size % 6:
        raise DimensionMismatch("parameter vector length must be a multiple of 6")
    out = []
    for block in theta.reshape(-1, 6):
        rot = euler_to_rotation_batch(block[None, 3:])[0]
        out.append(Deployment(block[:3].copy(), rotation_to_euler(rot), rot))
    return out


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
        measured: MeasurementSet,
        anchors: Sequence[Deployment],
        n_agents: int,
        coupling: float,
    ) -> "LsProblem":
        return cls(
            n_agents=n_agents,
            anchor_positions=np.stack([a.position for a in anchors]),
            anchor_rotations=np.stack([a.rotation for a in anchors]),
            links=measured.links,
            y_imag=np.imag(measured.h_meas).copy(),
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
        if theta.shape[-1:] != (self.n_parameters,):
            raise DimensionMismatch(
                f"expected parameter vectors of length {self.n_parameters}"
            )
        return theta

    def _geometry(self, theta: np.ndarray):
        """Parameter blocks, batch shape and the flattened (batch * L) link quantities."""
        blocks = theta.reshape(theta.shape[:-1] + (self.n_agents, 6))
        batch = blocks.shape[:-2]
        anchors_p = np.broadcast_to(self.anchor_positions, batch + self.anchor_positions.shape)
        anchors_o = np.broadcast_to(self.anchor_rotations, batch + self.anchor_rotations.shape)
        positions = np.concatenate([blocks[..., :3], anchors_p], axis=-2)
        rotations = np.concatenate([euler_to_rotation_batch(blocks[..., 3:]), anchors_o], axis=-3)
        tx, rx = self.links[:, 0], self.links[:, 1]
        o_tx = rotations[..., tx, :, :].reshape(-1, 3, 3)
        o_rx = rotations[..., rx, :, :].reshape(-1, 3, 3)
        gains, r, u, f = chan.channel_gain_batch(
            positions[..., tx, :].reshape(-1, 3), o_tx,
            positions[..., rx, :].reshape(-1, 3), o_rx, self.coupling,
        )
        return blocks, batch, o_tx, o_rx, gains, r, u, f

    def _residual(self, gains, batch, index) -> np.ndarray:
        stacked = self.y_imag.ndim == 4 and index is not None
        measured = self.y_imag[index] if stacked else self.y_imag
        res = measured - gains.reshape(batch + (len(self.links), 3, 3))
        return res.reshape(res.shape[:-3] + (-1,))

    def residual(self, theta: np.ndarray, index=None) -> np.ndarray:
        """Residual rows of shape (..., 9L) for parameter rows theta (..., 6M).

        With a stacked y_imag, index lists the problems theta's rows belong
        to (default: all of them, in order).
        """
        theta = self._check(theta)
        _, batch, _, _, gains, _, _, _ = self._geometry(theta)
        return self._residual(gains, batch, index)

    def cost(self, theta: np.ndarray) -> float:
        res = self.residual(theta)
        return float(res @ res)

    def per_agent_costs(self, theta: np.ndarray) -> np.ndarray:
        """Cost grouped by transmitting agent.

        For anchor-only link sets this partitions the total cost into the
        independent per-agent objectives.
        """
        theta = self._check(theta)
        *_, gains, _, _, _ = self._geometry(theta)
        per_link = np.sum((self.y_imag - gains) ** 2, axis=(1, 2))
        out = np.zeros(self.n_agents)
        np.add.at(out, self.links[:, 0], per_link)
        return out

    def residual_and_jacobian(self, theta: np.ndarray, index=None):
        """Residual and its Jacobian (..., 9L, 6M); agent-agent links fill both endpoint blocks.

        Every link's transmitter columns go to its agent's block, and its
        receiver columns too when the receiver is an agent; anchors carry
        zero Euler-derivative stacks.
        """
        theta = self._check(theta)
        blocks, batch, o_tx, o_rx, gains, r, u, f = self._geometry(theta)
        nodes = self.n_agents + len(self.anchor_positions)
        d_rot = np.zeros(batch + (nodes, 3, 3, 3))
        d_rot[..., : self.n_agents, :, :, :] = euler_rotation_derivatives(blocks[..., 3:])
        tx, rx = self.links[:, 0], self.links[:, 1]
        cols = chan.channel_derivative_columns(
            r, u, f, gains, o_tx, o_rx,
            d_rot[..., tx, :, :, :].reshape(-1, 3, 3, 3),
            d_rot[..., rx, :, :, :].reshape(-1, 3, 3, 3),
            self.coupling,
        )
        # one row per (problem, link); node ids repeat for every problem
        copies = len(r) // max(len(tx), 1)
        rows, tx, rx = np.arange(len(r)), np.tile(tx, copies), np.tile(rx, copies)
        to_agent = rx < self.n_agents
        jac = np.zeros((len(r), 9, self.n_agents, 6))
        jac[rows, :, tx] = -cols[:, :, :6]
        jac[rows[to_agent], :, rx[to_agent]] = -cols[to_agent, :, 6:]
        jac = jac.reshape(batch + (9 * len(self.links), self.n_parameters))
        return self._residual(gains, batch, index), jac


@dataclass
class StackedSolve:
    """Outcome of one stacked Levenberg-Marquardt solve.

    The per-problem fields have the batch shape of the start x0 (0-d for a
    single 1-d start); iterations totals the per-problem counts.
    """

    estimate: np.ndarray
    final_cost: np.ndarray
    problem_iterations: np.ndarray
    converged: np.ndarray
    normal_equations_singular: np.ndarray

    @property
    def iterations(self) -> int:
        return int(self.problem_iterations.sum())

    def report(self, pick: np.ndarray, initializations_used: int = 1) -> SolveReport:
        """Joint report of the problems in pick, concatenated in that order."""
        flat = self.estimate.reshape(-1, self.estimate.shape[-1])
        return SolveReport(
            estimate=flat[pick].reshape(-1),
            final_cost=float(sum(self.final_cost.reshape(-1)[pick].tolist())),
            iterations=int(self.problem_iterations.reshape(-1)[pick].max()),
            converged=bool(self.converged.reshape(-1)[pick].all()),
            initializations_used=initializations_used,
            normal_equations_singular=bool(
                self.normal_equations_singular.reshape(-1)[pick].any()
            ),
        )


def _normal_equations(residual: np.ndarray, jac: np.ndarray):
    jac_t = np.swapaxes(jac, -1, -2)
    return jac_t @ jac, (jac_t @ residual[..., None])[..., 0]


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


def levenberg_marquardt(
    problem,
    x0: np.ndarray,
    max_iterations: int = LM_MAX_ITERATIONS,
    step_tol: float = LM_STEP_TOL,
    cost_tol: float = LM_COST_TOL,
    initial_damping: float = LM_INITIAL_DAMPING,
    max_damping: float = LM_MAX_DAMPING,
) -> StackedSolve:
    """Damped Gauss-Newton iteration with the classic Marquardt schedule.

    x0 has shape (..., P): one start per independent problem of a stack.
    problem.residual(x, index) and problem.residual_and_jacobian(x, index)
    evaluate the rows x (n, P) of the problems listed in index.  Every
    problem keeps its own damping, cost, iteration count and flags; each
    round makes one residual call for the problems trying a step and one
    Jacobian call for those that accepted one.

    The damping term scales the diagonal of the normal equations; lambda is
    multiplied by 10 on every rejected step and divided by 10 after an
    accepted one, so the accepted cost sequence is non-increasing.
    Termination: step norm below step_tol, relative cost decrease below
    cost_tol, or the iteration budget.  If no acceptable step exists up to
    the damping ceiling the problem reports failure instead of raising; a
    singular or non-finite system marks only its own problem.
    """
    x0 = np.asarray(x0, dtype=float)
    x = x0.reshape(-1, x0.shape[-1]).copy()
    count = len(x)
    everyone = np.arange(count)
    residual, jac = problem.residual_and_jacobian(x, everyone)
    cost = _sum_squares(residual)
    jtj, gradient = _normal_equations(residual, jac)
    lam = np.full(count, initial_damping)
    iteration = np.ones(count, dtype=int)
    converged = np.zeros(count, dtype=bool)
    singular = np.zeros(count, dtype=bool)
    active = np.ones(count, dtype=bool)

    while True:
        # a problem whose damping passed the ceiling has no acceptable step
        active &= lam <= max_damping
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
        trial = x[trying] + step
        trial_cost = _sum_squares(problem.residual(trial, trying))
        accept = trial_cost <= cost[trying]
        lam[trying[~accept]] *= 10.0

        moved, step, new_cost = trying[accept], step[accept], trial_cost[accept]
        decrease = cost[moved] - new_cost
        x[moved] = trial[accept]
        cost[moved] = new_cost
        lam[moved] = np.maximum(lam[moved] / 10.0, 1e-15)
        done = (np.linalg.norm(step, axis=1) < step_tol) | (
            decrease <= cost_tol * np.maximum(new_cost, 1e-300)
        )
        converged[moved[done]] = True
        active[moved[done]] = False
        going = moved[~done]
        exhausted = iteration[going] >= max_iterations
        active[going[exhausted]] = False
        going = going[~exhausted]
        if going.size:
            iteration[going] += 1
            residual, jac = problem.residual_and_jacobian(x[going], going)
            jtj[going], gradient[going] = _normal_equations(residual, jac)

    shape = x0.shape[:-1]
    return StackedSolve(
        estimate=x.reshape(x0.shape),
        final_cost=cost.reshape(shape),
        problem_iterations=iteration.reshape(shape),
        converged=converged.reshape(shape),
        normal_equations_singular=singular.reshape(shape),
    )


def _random_init(n_agents: int, room: Room, rng: np.random.Generator) -> np.ndarray:
    parts = []
    for _ in range(n_agents):
        position = room.sample_point(rng)
        euler = rotation_to_euler(sample_uniform_rotation(rng))
        parts.append(np.hstack([position, euler]))
    return np.hstack(parts)


def pairml_initialization(problem: LsProblem, room: Room) -> np.ndarray:
    """Closed-form per-agent initialization vector from the anchor links."""
    rows = problem.anchor_link_rows()
    anchors = problem.links[rows, 1] - problem.n_agents
    return pairml.pair_ml_estimate(
        problem.y_imag[rows],
        problem.anchor_positions[anchors],
        problem.anchor_rotations[anchors],
        problem.coupling,
        room,
    ).reshape(-1)


def _agent_stack(problem: LsProblem, restarts: int) -> LsProblem:
    """Single-agent problem stacked over the agents of a non-cooperative problem.

    Each agent keeps only its anchor links; its measurements repeat once
    per restart, so the stack is agent-major, restart-minor.
    """
    rows = problem.anchor_link_rows()
    anchors = problem.links[rows[0], 1] - problem.n_agents
    return LsProblem(
        n_agents=1,
        anchor_positions=problem.anchor_positions,
        anchor_rotations=problem.anchor_rotations,
        links=np.column_stack([np.zeros(len(anchors), dtype=int), anchors + 1]),
        y_imag=np.repeat(problem.y_imag[rows], restarts, axis=0),
        coupling=problem.coupling,
    )


def parse_init_strategy(spec: str) -> Tuple[str, int]:
    """Parse 'perfect', 'pairml', 'random' or 'random:<k>'."""
    name, _, arg = spec.partition(":")
    name = name.strip().lower()
    if name == "random":
        count = int(arg) if arg else 1
        if count < 1:
            raise ValueError("random restart count must be >= 1")
        return name, count
    if name in ("perfect", "pairml"):
        if arg:
            raise ValueError(f"init strategy {name!r} takes no argument")
        return name, 1
    raise ValueError(f"unknown init strategy {spec!r}")


def estimate(
    problem: LsProblem,
    init: str,
    room: Optional[Room] = None,
    truth: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
) -> SolveReport:
    """Solve a deployment estimation problem with the requested initialization.

    init is one of 'perfect' (start from the true parameters, evaluation
    mode), 'random' / 'random:<k>' (uniform position in the room, uniform
    orientation; the restart with the lowest final cost wins) or 'pairml'
    (closed-form per-agent initialization, one LM run).  Non-cooperative
    problems decompose into independent single-agent problems; all agents
    and restarts are solved as one stacked LM.
    """
    strategy, restarts = parse_init_strategy(init)
    if strategy == "perfect" and truth is None:
        raise ValueError("perfect initialization requires the true parameters")
    if strategy in ("random", "pairml") and room is None:
        raise ValueError(f"{strategy} initialization requires the room")
    if strategy == "random" and rng is None:
        raise ValueError("random initialization requires an rng")

    # non-cooperative problems decompose into independent single-agent ones
    groups = 1 if problem.cooperative else problem.n_agents
    stack = problem if problem.cooperative else _agent_stack(problem, restarts)
    size = problem.n_parameters // groups
    if strategy == "perfect":
        inits = np.asarray(truth, dtype=float).reshape(groups, 1, size)
    elif strategy == "pairml":
        inits = pairml_initialization(problem, room).reshape(groups, 1, size)
    else:
        inits = np.array(
            [
                [_random_init(size // 6, room, rng) for _ in range(restarts)]
                for _ in range(groups)
            ]
        )
    solve = levenberg_marquardt(stack, inits.reshape(-1, size))
    # lowest final cost per group, first on ties
    costs = solve.final_cost.reshape(groups, restarts)
    best = np.zeros(groups, dtype=int)
    for restart in range(1, restarts):
        best[costs[:, restart] < costs[np.arange(groups), best]] = restart
    return solve.report(np.arange(groups) * restarts + best, restarts)


@dataclass
class _RangeProblem:
    """Residuals ||p - a_n|| - r_n of a stack of range-only fixes.

    anchor_positions (B, N, 3) and distances (B, N); a NaN distance marks a
    padded anchor, whose residual and Jacobian row are zero.
    """

    anchor_positions: np.ndarray
    distances: np.ndarray

    def residual_and_jacobian(self, p: np.ndarray, index=None):
        anchors, distances = self.anchor_positions, self.distances
        if index is not None:
            anchors, distances = anchors[index], distances[index]
        diff = p[..., None, :] - anchors
        norms = np.maximum(np.linalg.norm(diff, axis=-1), 1e-12)
        usable = np.isfinite(distances)
        residual = np.where(usable, norms - distances, 0.0)
        return residual, np.where(usable[..., None], diff / norms[..., None], 0.0)

    def residual(self, p: np.ndarray, index=None) -> np.ndarray:
        return self.residual_and_jacobian(p, index)[0]


@dataclass
class MultilaterationResult:
    position: np.ndarray
    report: SolveReport
    underdetermined: np.ndarray


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
    can share a stack.  The report is the joint one of all fixes.  Fewer
    than three usable anchors leave a 3-d fix underdetermined, which is
    flagged rather than raised.
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
        report=solve.report(np.arange(len(problem.distances))),
        underdetermined=np.sum(np.isfinite(distances), axis=-1) < 3,
    )
