"""Iterative least-squares deployment estimation and the range-only baseline.

The measurement model is purely imaginary, so the residual stacks only the
imaginary parts Im(H_meas) - Im(H(theta)) of every link (9 reals per link);
the real-part terms of the Frobenius objective are parameter independent and
do not move the minimizer.  Agent parameters are packed as a flat vector of
six entries per agent, [x, y, z, alpha, beta, gamma], and Euler angles stay
unconstrained during the iteration (canonicalized only on output).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import channel as chan
from .channel import LinkMeasurement
from .geometry import (
    Deployment,
    Room,
    euler_rotation_derivatives,
    euler_to_rotation_batch,
    rotation_to_euler,
    sample_uniform_rotation,
)
from . import pairml

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

    def deployments(self) -> List[Deployment]:
        return unpack_parameters(self.estimate)


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
    receiver an agent or an anchor.
    """

    n_agents: int
    anchor_positions: np.ndarray  # (N, 3)
    anchor_rotations: np.ndarray  # (N, 3, 3)
    links: np.ndarray  # (L, 2) int
    y_imag: np.ndarray  # (L, 3, 3) measured imaginary parts
    coupling: float
    cooperative: bool = True

    def __post_init__(self):
        self.links = np.asarray(self.links, dtype=int)
        self.y_imag = np.asarray(self.y_imag, dtype=float)
        if len(self.links) != len(self.y_imag):
            raise DimensionMismatch("one measurement required per link")
        if np.any(self.links[:, 0] >= self.n_agents):
            raise ValueError("link transmitters must be agents")

    @classmethod
    def from_measurements(
        cls,
        measurements: Sequence[LinkMeasurement],
        anchors: Sequence[Deployment],
        n_agents: int,
        coupling: float,
        cooperative: bool = True,
    ) -> "LsProblem":
        links = np.array([[m.tx, m.rx] for m in measurements], dtype=int)
        y = np.stack([np.imag(m.h_meas) for m in measurements])
        return cls(
            n_agents=n_agents,
            anchor_positions=np.stack([a.position for a in anchors]),
            anchor_rotations=np.stack([a.rotation for a in anchors]),
            links=links,
            y_imag=y,
            coupling=coupling,
            cooperative=cooperative,
        )

    @property
    def n_parameters(self) -> int:
        return 6 * self.n_agents

    def agent_subproblem(self, agent: int) -> "LsProblem":
        """Single-agent problem over this agent's anchor links only."""
        rows = np.where(
            (self.links[:, 0] == agent) & (self.links[:, 1] >= self.n_agents)
        )[0]
        links = self.links[rows].copy()
        links[:, 0] = 0
        links[:, 1] -= self.n_agents - 1
        return LsProblem(
            n_agents=1,
            anchor_positions=self.anchor_positions,
            anchor_rotations=self.anchor_rotations,
            links=links,
            y_imag=self.y_imag[rows],
            coupling=self.coupling,
            cooperative=False,
        )

    def _check(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_parameters,):
            raise DimensionMismatch(
                f"expected parameter vector of length {self.n_parameters}"
            )
        return theta

    def _geometry(self, theta: np.ndarray):
        blocks = theta.reshape(self.n_agents, 6)
        positions = np.vstack([blocks[:, :3], self.anchor_positions])
        rotations = np.concatenate(
            [euler_to_rotation_batch(blocks[:, 3:]), self.anchor_rotations]
        )
        tx, rx = self.links[:, 0], self.links[:, 1]
        gains, r, u, f = chan.channel_gain_batch(
            positions[tx], rotations[tx], positions[rx], rotations[rx], self.coupling
        )
        return blocks, rotations, tx, rx, gains, r, u, f

    def residual(self, theta: np.ndarray) -> np.ndarray:
        theta = self._check(theta)
        *_, gains, _, _, _ = self._geometry(theta)
        return (self.y_imag - gains).reshape(-1)

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

    def residual_and_jacobian(self, theta: np.ndarray):
        """Residual and its Jacobian; agent-agent links fill both endpoint blocks.

        Every link's twelve derivative columns are scattered into the blocks
        of its two endpoint nodes; anchors carry zero Euler-derivative stacks
        and their blocks are sliced off, so no link needs a receiver branch.
        """
        theta = self._check(theta)
        blocks, rotations, tx, rx, gains, r, u, f = self._geometry(theta)
        length = len(tx)
        d_rot = np.zeros((len(rotations), 3, 3, 3))
        d_rot[: self.n_agents] = [euler_rotation_derivatives(e) for e in blocks[:, 3:]]
        cols = chan.channel_derivative_columns(
            r, u, f, gains, rotations[tx], rotations[rx], d_rot[tx], d_rot[rx], self.coupling
        )
        jac = np.zeros((length, 9, len(rotations), 6))
        rows = np.arange(length)
        jac[rows, :, tx] = -cols[:, :, :6]
        jac[rows, :, rx] = -cols[:, :, 6:]
        residual = (self.y_imag - gains).reshape(-1)
        return residual, jac[:, :, : self.n_agents].reshape(length * 9, self.n_parameters)


def levenberg_marquardt(
    problem,
    x0: np.ndarray,
    max_iterations: int = LM_MAX_ITERATIONS,
    step_tol: float = LM_STEP_TOL,
    cost_tol: float = LM_COST_TOL,
    initial_damping: float = LM_INITIAL_DAMPING,
    max_damping: float = LM_MAX_DAMPING,
) -> SolveReport:
    """Damped Gauss-Newton iteration with the classic Marquardt schedule.

    The damping term scales the diagonal of the normal equations; lambda is
    multiplied by 10 on every rejected step and divided by 10 after an
    accepted one, so the accepted cost sequence is non-increasing.
    Termination: step norm below step_tol, relative cost decrease below
    cost_tol, or the iteration budget.  If no acceptable step exists up to
    the damping ceiling the solver reports failure instead of raising.
    """
    x = np.asarray(x0, dtype=float).copy()
    residual, jac = problem.residual_and_jacobian(x)
    cost = float(residual @ residual)
    lam = initial_damping
    singular = False

    for iteration in range(1, max_iterations + 1):
        jtj = jac.T @ jac
        gradient = jac.T @ residual
        damping_scale = np.maximum(np.diag(jtj), 1e-30)
        accepted = False
        while lam <= max_damping:
            try:
                step = np.linalg.solve(
                    jtj + lam * np.diag(damping_scale), -gradient
                )
            except np.linalg.LinAlgError:
                singular = True
                lam *= 10.0
                continue
            if not np.all(np.isfinite(step)):
                singular = True
                lam *= 10.0
                continue
            trial = x + step
            trial_res = problem.residual(trial)
            trial_cost = float(trial_res @ trial_res)
            if trial_cost <= cost:
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            return SolveReport(x, cost, iteration, False, normal_equations_singular=singular)

        decrease = cost - trial_cost
        x = trial
        cost = trial_cost
        lam = max(lam / 10.0, 1e-15)
        if np.linalg.norm(step) < step_tol or decrease <= cost_tol * max(cost, 1e-300):
            return SolveReport(x, cost, iteration, True, normal_equations_singular=singular)
        residual, jac = problem.residual_and_jacobian(x)

    return SolveReport(x, cost, max_iterations, False, normal_equations_singular=singular)


def _random_init(problem: LsProblem, room: Room, rng: np.random.Generator) -> np.ndarray:
    parts = []
    for _ in range(problem.n_agents):
        position = room.sample_point(rng)
        euler = rotation_to_euler(sample_uniform_rotation(rng))
        parts.append(np.hstack([position, euler]))
    return np.hstack(parts)


def pairml_initialization(problem: LsProblem, room: Room) -> np.ndarray:
    """Closed-form per-agent initialization vector from the anchor links."""
    anchors = [
        Deployment.from_rotation(p, r)
        for p, r in zip(problem.anchor_positions, problem.anchor_rotations)
    ]
    parts = []
    for agent in range(problem.n_agents):
        rows = np.where(
            (problem.links[:, 0] == agent) & (problem.links[:, 1] >= problem.n_agents)
        )[0]
        measurements = [
            LinkMeasurement(
                tx=agent,
                rx=int(problem.links[row, 1]),
                h_meas=1j * problem.y_imag[row],
                kind=chan.LinkKind.AGENT_ANCHOR,
            )
            for row in rows
        ]
        link_anchors = [anchors[problem.links[row, 1] - problem.n_agents] for row in rows]
        estimate = pairml.pair_ml_estimate(
            measurements, link_anchors, problem.coupling, room
        )
        parts.append(estimate.as_vector())
    return np.hstack(parts)


def _solve_with_restarts(problem, inits: Sequence[np.ndarray]) -> SolveReport:
    """Run LM from every init, keep the lowest final cost (first on ties)."""
    best: Optional[SolveReport] = None
    for x0 in inits:
        report = levenberg_marquardt(problem, x0)
        if best is None or report.final_cost < best.final_cost:
            best = report
    return replace(best, initializations_used=len(inits))


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
    problems decompose into independent single-agent solves.
    """
    strategy, restarts = parse_init_strategy(init)
    if strategy == "perfect" and truth is None:
        raise ValueError("perfect initialization requires the true parameters")
    if strategy in ("random", "pairml") and room is None:
        raise ValueError(f"{strategy} initialization requires the room")
    if strategy == "random" and rng is None:
        raise ValueError("random initialization requires an rng")

    if not problem.cooperative and problem.n_agents > 1:
        reports = []
        for agent in range(problem.n_agents):
            sub = problem.agent_subproblem(agent)
            sub_truth = None
            if truth is not None:
                sub_truth = truth[6 * agent : 6 * agent + 6]
            reports.append(estimate(sub, init, room=room, truth=sub_truth, rng=rng))
        return SolveReport(
            estimate=np.hstack([r.estimate for r in reports]),
            final_cost=float(sum(r.final_cost for r in reports)),
            iterations=max(r.iterations for r in reports),
            converged=all(r.converged for r in reports),
            initializations_used=restarts,
            normal_equations_singular=any(r.normal_equations_singular for r in reports),
        )

    if strategy == "perfect":
        inits = [np.asarray(truth, dtype=float)]
    elif strategy == "pairml":
        inits = [pairml_initialization(problem, room)]
    else:
        inits = [_random_init(problem, room, rng) for _ in range(restarts)]
    return _solve_with_restarts(problem, inits)


@dataclass
class _RangeProblem:
    """Residual ||p - a_n|| - r_n over the anchor set, for multilateration."""

    anchor_positions: np.ndarray
    distances: np.ndarray

    def residual(self, p: np.ndarray) -> np.ndarray:
        return np.linalg.norm(self.anchor_positions - p, axis=1) - self.distances

    def residual_and_jacobian(self, p: np.ndarray):
        diff = p - self.anchor_positions
        norms = np.linalg.norm(diff, axis=1)
        norms = np.maximum(norms, 1e-12)
        return norms - self.distances, diff / norms[:, None]


@dataclass
class MultilaterationResult:
    position: np.ndarray
    report: SolveReport
    underdetermined: bool


def multilaterate(
    anchor_positions: np.ndarray,
    distances: np.ndarray,
    room: Room,
) -> MultilaterationResult:
    """Range-only position fix from per-anchor distance estimates.

    Minimizes the squared range residuals with the same damped Gauss-Newton
    solver, initialized at the room center; the output is clamped to the
    room.  Fewer than three anchors leave the 3-d fix underdetermined, which
    is flagged rather than raised.
    """
    anchor_positions = np.asarray(anchor_positions, dtype=float)
    distances = np.asarray(distances, dtype=float)
    problem = _RangeProblem(anchor_positions, distances)
    report = levenberg_marquardt(problem, room.center.copy())
    return MultilaterationResult(
        position=room.clamp(report.estimate),
        report=report,
        underdetermined=len(anchor_positions) < 3,
    )
