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

An LsProblem is the network's measurement model: its links, anchors and
coupling give the noiseless gains of every link (LsProblem.gains), which the
synthesis and the residual share.  Without agent-agent links it splits into
one problem per agent on that agent's anchor links (LsProblem.anchor_problem),
the problems the non-cooperative solve, pair-ML and multilateration work on;
their link k goes to anchor k, so the anchor arrays are per-link arrays.
A cooperative solve reads the folded problem, each agent pair's two ordered
links as one (LsProblem.folded): the same minimizer and J^T J on fewer
links.  The ordered links stay the measurement model and define every cost.

Batch convention: residuals and normal equations take pose rows of shape
(..., 12M) and return (..., 9L) residuals, (..., 6M, 6M) normal matrices J^T J
and (..., 6M) gradients J^T r, over the 6M step parameters; a 1-d row gives
one problem.  LsProblem.evaluate keeps the links' gains, distances and
directions with the residuals, and LsProblem.normal_slices sums J^T J and J^T r
from them link by link, at most LINKS_PER_SLICE links at a time, so no dense
Jacobian is formed.  It forms the link ends' rotations again from the rows it
reads, with one gather of the nodes' poses, rather than keeping them with the
point, and reads rows that are all of the point's as views.  Independent
problems (the agents of a non-cooperative network, random restarts, the
trials of a chunk) are rows of one stack that levenberg_marquardt advances
together, each with its own damping and termination.  A round's fixed cost
is kept small: the problems that step are an index list, formed again only
when one leaves, and _damped_steps gathers their systems itself.  estimate
solves whatever stack it is given in one LM call, for every initialization,
and the harness bounds the stack by sizing its chunks of trials in links.
A perfect-init estimate is the reference that checks whether another start
reached the global minimum, so an estimate and its references share one
call.
Results stay arrays: levenberg_marquardt and multilaterate return a
StackedSolve, one entry per problem, and estimate one StackedSolve per
initialization, shaped by measurement set and group of agents (one group
for a cooperative problem, one per agent for a non-cooperative one).  Each
problem carries the reason it stopped (StopReason).

A problem stops once more iterations cannot change its answer: on a
relative cost decrease of at most LM_COST_TOL (1e-9), on a step below
LM_STEP_TOL, or when no step is left to try.  Near the minimum the cost
is about 9L sigma^2 / 2 over L links, so a decrease of 1e-9 of it is
2 * decrease / sigma^2 = 9e-9 L in Fisher units (the squared Mahalanobis
length of the move that makes it): about sqrt(9e-9 L) standard deviations
of any function of the estimate, 2e-4 for one agent on 4 anchor links and
1e-3 for the 130 links of cooperative M=10.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from enum import IntEnum
from functools import lru_cache
from math import prod
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from . import channel as chan
from .geometry import Room, exp_rotation, join_poses, quaternion_to_rotation
from . import pairml

LM_INITIAL_DAMPING = 1e-3
LM_MAX_DAMPING = 1e12
LM_MAX_ITERATIONS = 500
LM_STEP_TOL = 1e-10
LM_COST_TOL = 1e-9

# Links whose derivative columns are formed at once (whole problems, at least
# one): the memory of the link sums of any stack or bound sweep stays flat.
LINKS_PER_SLICE = 256


class DimensionMismatch(ValueError):
    """Pose row length does not match the problem."""


@dataclass
class LsProblem:
    """Nonlinear least-squares problem over the unknown agent deployments.

    Node indexing: agents occupy ids 0 .. n_agents-1, anchors follow.  Links
    are ordered (tx, rx) pairs; the transmitter is always an agent, the
    receiver an agent or an anchor; the problem is cooperative exactly when
    some receiver is an agent.  y_imag holds one measurement set
    (L, 3, 3), or a stack (B, L, 3, 3) of B sets over the same links and
    anchors: B independent problems that the solver advances together.
    coupling is one for all links or one per link (L,), as in folded.
    """

    n_agents: int
    anchor_positions: np.ndarray  # (N, 3)
    anchor_rotations: np.ndarray  # (N, 3, 3)
    links: np.ndarray  # (L, 2) int
    y_imag: np.ndarray  # (L, 3, 3) or (B, L, 3, 3) measured imaginary parts
    coupling: Union[float, np.ndarray]  # scalar or (L,)

    def __post_init__(self):
        self.anchor_positions = np.asarray(self.anchor_positions, dtype=float).reshape(-1, 3)
        self.anchor_rotations = np.asarray(self.anchor_rotations, dtype=float).reshape(-1, 3, 3)
        self.links = np.asarray(self.links, dtype=int).reshape(-1, 2)
        self.y_imag = np.asarray(self.y_imag, dtype=float)
        if self.y_imag.ndim not in (3, 4) or self.y_imag.shape[-3] != len(self.links):
            raise DimensionMismatch("one measurement required per link")
        if np.any(self.links[:, 0] >= self.n_agents):
            raise ValueError("link transmitters must be agents")

    @property
    def cooperative(self) -> bool:
        """True when some link joins two agents, so the agents do not decouple."""
        return bool(np.any(self.links[:, 1] < self.n_agents))

    def anchor_problem(self) -> "LsProblem":
        """Every agent alone on its anchor links: a stack of one-agent problems.

        The stack is set-major, then agent-major: a single set (L, 3, 3)
        gives M problems, a stack of T sets T * M.  Each problem keeps only
        the anchors the agents link to, in link order, so its link k,
        (0, 1 + k), goes to anchor k, with the coupling of those links.

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
                anchors = self.links[rows[0], 1] - m
                y_imag = self.y_imag[..., rows, :, :]
                y_imag = y_imag.reshape((prod(y_imag.shape[:-3]),) + y_imag.shape[-3:])
                return replace(
                    self, n_agents=1, anchor_positions=self.anchor_positions[anchors],
                    anchor_rotations=self.anchor_rotations[anchors],
                    links=[(0, 1 + k) for k in range(len(anchors))], y_imag=y_imag,
                    coupling=float(np.broadcast_to(self.coupling, len(self.links))[rows[0, 0]]),
                )
        raise ValueError("agents must share one anchor-link pattern")

    def folded(self) -> Tuple["LsProblem", np.ndarray]:
        """One link per agent pair measured both ways, and the cost that drops out.

        One coil on every node and a symmetric dipole factor make the gains
        of link (j, i) the transpose of those of (i, j), so the pair's cost
        terms are ||(y_ij + y_ji^T) / sqrt(2) - sqrt(2) G_ij||^2 plus the
        constant ||y_ij - y_ji^T||^2 / 2.  The folded problem keeps (i, j),
        i < j, with that measurement and coupling sqrt(2) c, drops (j, i)
        and keeps the other links, in order: the ordered J^T J, and the
        ordered cost less the constant (one per set, y_imag.shape[:-3]).
        """
        m, (tx, rx) = self.n_agents, self.links.T
        pairs = np.flatnonzero(rx < m)
        index = np.full((m, m), -1)
        index[tx[pairs], rx[pairs]] = pairs
        forward = pairs[tx[pairs] < rx[pairs]]
        reverse = index[rx[forward], tx[forward]]
        forward, reverse = forward[reverse >= 0], reverse[reverse >= 0]
        if not len(forward):  # no pair measured both ways: the problem is its own fold
            return self, np.zeros(self.y_imag.shape[:-3])
        y_forward = self.y_imag[..., forward, :, :]
        y_reverse = np.swapaxes(self.y_imag[..., reverse, :, :], -1, -2)
        gap, y_imag = y_forward - y_reverse, self.y_imag.copy()
        y_imag[..., forward, :, :] = (y_forward + y_reverse) / np.sqrt(2.0)
        coupling = np.full(len(self.links), self.coupling, dtype=float)
        coupling[forward] *= np.sqrt(2.0)
        keep = np.delete(np.arange(len(self.links)), reverse)
        folded = replace(
            self, links=self.links[keep], y_imag=y_imag[..., keep, :, :], coupling=coupling[keep]
        )
        return folded, 0.5 * np.einsum("...lij,...lij->...", gap, gap)

    def _check(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape[-1:] != (12 * self.n_agents,):
            raise DimensionMismatch(f"expected pose rows of length {12 * self.n_agents}")
        return theta

    def retract(self, theta: np.ndarray, step: np.ndarray) -> np.ndarray:
        """Pose rows theta (..., 12M) moved by steps (..., 6M): p + dp and R exp([phi]x).

        A step holds [dp, phi] for every agent in turn.  The moved rows are
        written into one new array, each pose as its position row and its
        rotation's three rows (4, 3).
        """
        theta = self._check(theta)
        poses = theta.reshape(theta.shape[:-1] + (self.n_agents, 4, 3))
        step = np.reshape(step, poses.shape[:-2] + (2, 3))
        moved = np.empty_like(poses)
        np.add(poses[..., 0, :], step[..., 0, :], out=moved[..., 0, :])
        np.matmul(poses[..., 1:, :], exp_rotation(step[..., 1, :]), out=moved[..., 1:, :])
        return moved.reshape(theta.shape)

    def _ends(self, theta: np.ndarray):
        """The links' transmitter and receiver poses and couplings at pose rows theta (..., 12M).

        Each is flattened over the batch, (batch * L, 4, 3) and (batch * L,):
        a pose is its position row and its rotation's rows, as in a pose row.
        """
        m = self.n_agents
        poses = theta.reshape(theta.shape[:-1] + (m, 4, 3))
        nodes = np.empty(poses.shape[:-3] + (m + len(self.anchor_positions), 4, 3))
        nodes[..., :m, :, :] = poses
        nodes[..., m:, 0, :], nodes[..., m:, 1:, :] = self.anchor_positions, self.anchor_rotations
        ends = nodes.take(self.links, -3).reshape(-1, 2, 4, 3)
        couplings = np.full(poses.shape[:-3] + (len(self.links),), self.coupling, float)
        return ends[:, 0], ends[:, 1], couplings.reshape(-1)

    def _link_geometry(self, theta: np.ndarray):
        """Gains (..., L, 3, 3), distances (..., L) and directions (..., L, 3) at rows theta."""
        tx, rx, couplings = self._ends(theta)
        gains, r, u, _ = chan.channel_gain_batch(
            tx[:, 0], tx[:, 1:], rx[:, 0], rx[:, 1:], couplings
        )
        links = theta.shape[:-1] + (len(self.links),)
        return gains.reshape(links + (3, 3)), r.reshape(links), u.reshape(links + (3,))

    def _measured(self, index) -> np.ndarray:
        """The measured sets of the problems in index (default: all of them, in order)."""
        return self.y_imag[index] if self.y_imag.ndim == 4 and index is not None else self.y_imag

    def gains(self, theta: np.ndarray) -> np.ndarray:
        """Noiseless Im(H) of every link, (..., L, 3, 3), at pose rows theta (..., 12M)."""
        return self._link_geometry(self._check(theta))[0]

    def residual(self, theta: np.ndarray, index=None) -> np.ndarray:
        """Residual rows of shape (..., 9L) for pose rows theta (..., 12M).

        With a stacked y_imag, index lists the problems theta's rows belong
        to (default: all of them, in order).
        """
        return self.evaluate(theta, index)[0]

    def cost(self, theta: np.ndarray) -> np.ndarray:
        """Summed squared residual of every residual row, (...,): 0-d for one row."""
        res = self.residual(theta)
        rows = res.reshape(-1, res.shape[-1])
        return np.reshape([r @ r for r in rows], res.shape[:-1])

    def normal_equations(self, theta: np.ndarray, index=None):
        """Residual (..., 9L), J^T J (..., 6M, 6M) and J^T r (..., 6M) at pose rows (..., 12M).

        index is as for residual: evaluate, then the normal_slices of every row.
        """
        return _normal_equations(self, self._check(theta), index)

    def evaluate(self, theta: np.ndarray, index=None):
        """Residual rows (..., 9L) at pose rows theta (..., 12M), and the point normal_slices reads.

        index is as for residual.  The point keeps the rows, the residuals and
        the links' gains, distances and directions.  It does not keep the
        link ends' poses, which normal_slices forms again from the rows it
        reads, so a round holds no more than those.
        """
        theta = self._check(theta)
        gains, r, u = self._link_geometry(theta)
        res = self._measured(index) - gains
        res = res.reshape(res.shape[:-3] + (9 * len(self.links),))
        return res, (theta, res, gains, r, u)

    def normal_slices(self, point, rows: np.ndarray):
        """Yield (part, J^T J (k, 6M, 6M), J^T r (k, 6M)) of the point's rows rows[part], in order.

        rows are distinct rows of the point, in increasing order; when they
        are all of its rows, each slice reads them as views, not copies.  A
        slice is at most LINKS_PER_SLICE links or one problem, so no
        problem's sums depend on the stack or the slicing.
        """
        step = max(1, LINKS_PER_SLICE // max(len(self.links), 1))
        every = len(rows) == len(point[0])
        for s in range(0, len(rows), step):
            part = slice(s, s + step)
            yield (part,) + self._link_sums(point, part if every else rows[part])

    def _link_sums(self, point, rows):
        """J^T J and J^T r of some rows of a point (evaluate), from its links' derivative columns.

        rows is an index array or a slice.  The residual derivatives are -C:
        each link's transmitter columns C_tx, and C_rx for an agent receiver.
        An agent's diagonal block is the Gram matrix of the stacked columns of
        its links, and an agent-agent link adds C_tx^T C_rx to its (tx, rx)
        block and the transpose to its (rx, tx) block.  One agent has anchor
        links only: its sums are one plain product, without the gathers.
        """
        m, n_links = self.n_agents, len(self.links)
        theta, residual, gains, r, u = (part[rows] for part in point)
        count = len(theta)
        tx, rx, couplings = self._ends(theta)
        cols = chan.transmitter_columns(
            r.ravel(), u.reshape(-1, 3), gains.reshape(-1, 3, 3), tx[:, 1:], rx[:, 1:], couplings
        )
        del theta, r, u, tx, rx, couplings  # before the gathers, to bound the peak
        if m == 1:
            stacked = np.swapaxes(cols.reshape(-1, 6, 9), 1, 2).reshape(count, -1, 6)  # (k, 9L, 6)
            del cols
            stacked_t = np.swapaxes(stacked, -1, -2)
            # a contiguous C^T gives the Gram matrix's bits faster; it would move the gradient's
            jtj = np.ascontiguousarray(stacked_t) @ stacked
            return jtj, -(stacked_t @ residual[..., None])[..., 0]
        touch, linked, pad, pairs = _link_tables(m, self.links.tobytes())
        cols = cols.reshape(count, n_links, 6, 3, 3)
        # C^T of every link's transmitter end, then of every agent receiver's end
        cols = np.concatenate([cols, chan.receiver_columns(cols[:, pairs], gains[:, pairs])], 1)
        ends_t = cols.reshape(count, -1, 6, 9)
        stacked = np.swapaxes(ends_t, -1, -2).take(touch, 1)  # (k, M, K, 9, 6)
        res = residual.reshape(count, n_links, 9).take(linked, 1)  # (k, M, K, 9)
        stacked[:, pad], res[:, pad] = 0.0, 0.0
        stacked = stacked.reshape(count, m, -1, 6)
        stacked_t = np.swapaxes(stacked, -1, -2)
        blocks = np.zeros((count, m, m, 6, 6))
        blocks[:, np.arange(m), np.arange(m)] = stacked_t @ stacked
        pulls = stacked_t @ res.reshape(count, m, -1, 1)
        del stacked, stacked_t, res  # before the cross blocks, to bound the peak
        tx, rx = self.links[pairs].T
        blocks[:, tx, rx] = ends_t.take(pairs, 1) @ np.swapaxes(ends_t[:, n_links:], -1, -2)
        blocks[:, rx, tx] += np.swapaxes(blocks[:, tx, rx], -1, -2)
        jtj = blocks.transpose(0, 1, 3, 2, 4).reshape(count, 6 * m, 6 * m)
        return jtj, -pulls.reshape(count, 6 * m)


@lru_cache(maxsize=64)
def _link_tables(n_agents: int, links_key: bytes):
    """Gather tables of the link set whose (L, 2) int array has the bytes links_key.

    touch (M, K) holds each agent's link ends in link order, padded to the longest: link l's
    transmitter end is l, the p-th agent-agent link's receiver end L + p.  linked (M, K) holds
    their links, pad (M, K) marks the padding and pairs lists the agent-agent links.  Read-only.
    Raises ValueError if two links join the same agents in the same direction.
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
    touch, linked = np.zeros(pad.shape, dtype=int), np.zeros(pad.shape, dtype=int)
    linked[~pad] = ends // 2
    touch[~pad] = np.where(ends % 2, len(links) + np.searchsorted(pairs, ends // 2), ends // 2)
    for table in (touch, linked, pad, pairs):
        table.setflags(write=False)
    return touch, linked, pad, pairs


class StopReason(IntEnum):
    """Why a problem of levenberg_marquardt stopped; COST_TOL and STEP_TOL are convergence.

    CLOSED_FORM marks an estimate that no LM iterated (the harness's pair-ML).
    """

    CLOSED_FORM = -1
    COST_TOL = 0  # relative cost decrease of an accepted step below LM_COST_TOL
    STEP_TOL = 1  # accepted step norm below LM_STEP_TOL
    MAX_ITERATIONS = 2  # LM_MAX_ITERATIONS accepted iterations without either
    DAMPING_CEILING = 3  # every step rejected up to LM_MAX_DAMPING (a singular one too)


@dataclass
class StackedSolve:
    """Outcome of one stacked Levenberg-Marquardt solve.

    The per-problem fields share one batch shape: that of the starts x0 of
    levenberg_marquardt (0-d for a single 1-d start), or the sets and groups
    of estimate.  estimate holds each problem's final pose row, and
    iterations totals the per-problem counts.  stop_reason holds each
    problem's StopReason as an int8, and converged is read off it.
    """

    estimate: np.ndarray
    final_cost: np.ndarray
    problem_iterations: np.ndarray
    normal_equations_singular: np.ndarray
    stop_reason: np.ndarray

    @property
    def iterations(self) -> int:
        return int(self.problem_iterations.sum())

    @property
    def converged(self) -> np.ndarray:
        """Where a tolerance stopped the LM (COST_TOL, STEP_TOL), or no LM ran (CLOSED_FORM)."""
        return self.stop_reason <= StopReason.STEP_TOL


def _sum_squares(residual: np.ndarray) -> np.ndarray:
    return np.einsum("bi,bi->b", residual, residual)


def _damped_steps(jtj: np.ndarray, gradient: np.ndarray, lam: np.ndarray, trying) -> np.ndarray:
    """Marquardt steps of the systems trying of a (B, P, P) stack; NaN where one is singular.

    The damped systems are gathered copies, so jtj, gradient and lam are only
    read: the damping is added into the diagonal of the gathered J^T J.
    """
    system = jtj[trying]
    diagonal = system.reshape(len(system), -1)[:, :: system.shape[-1] + 1]
    diagonal += lam[trying][:, None] * np.maximum(diagonal, 1e-30)
    rhs = -gradient[trying][..., None]
    try:
        return np.linalg.solve(system, rhs)[..., 0]
    except np.linalg.LinAlgError:
        # one singular system must not stop the others: solve them one by one
        steps = np.full(rhs.shape[:-1], np.nan)
        for b in range(len(system)):
            try:
                steps[b] = np.linalg.solve(system[b], rhs[b])[:, 0]
            except np.linalg.LinAlgError:
                pass
        return steps


def _normal_equations(problem, x: np.ndarray, index):
    """Residual rows, normal matrices and gradients of an LM problem's rows x (..., W)."""
    residual, point = problem.evaluate(x.reshape(-1, x.shape[-1]), index)
    parts = [part[1:] for part in problem.normal_slices(point, np.arange(len(residual)))]
    sums = parts[0] if len(parts) == 1 else [np.concatenate(part) for part in zip(*parts)]
    return tuple(part.reshape(x.shape[:-1] + part.shape[1:]) for part in (residual, *sums))


def levenberg_marquardt(problem, x0: np.ndarray) -> StackedSolve:
    """Damped Gauss-Newton iteration with the classic Marquardt schedule.

    x0 has shape (..., W): one start per independent problem of a stack.
    problem.evaluate(x, index) returns the residual rows of the rows x (n, W)
    of the problems in index and a point; problem.normal_slices(point, rows)
    yields (part, normal matrices (k, P, P), gradients (k, P)) of the point's
    rows rows[part] over P step parameters; problem.retract(x, step) moves
    rows x by steps (n, P).  Every problem keeps its own damping, cost,
    iteration count and flags.  Each round evaluates the trial rows once; the
    problems that go on write their normal equations from that point.

    The damping term scales the diagonal of the normal equations; lambda is
    multiplied by 10 on every rejected step and divided by 10 after an
    accepted one, so the accepted cost sequence is non-increasing.  A
    singular or non-finite system flags its own problem singular; its NaN
    step gives a NaN trial cost, which fails the cost test and is rejected
    like any other step.
    Termination, per problem, with its StopReason: an accepted step whose
    norm is below LM_STEP_TOL (STEP_TOL, checked first) or whose relative
    cost decrease is at most LM_COST_TOL (COST_TOL), both converged; the
    budget of LM_MAX_ITERATIONS (MAX_ITERATIONS); or no acceptable step up
    to the damping ceiling (DAMPING_CEILING), where the problem reports
    failure instead of raising.  The LM_* settings are read at call time.
    LM_COST_TOL is 1e-9 because the cost near a minimum is about
    9L sigma^2 / 2 over L links: a relative decrease of 1e-9 is
    2 * decrease / sigma^2 = 9e-9 L in Fisher units, so the iterations it
    leaves out move an estimate by about sqrt(9e-9 L) of its standard
    deviation (the module docstring has the numbers).
    """
    x0 = np.asarray(x0, dtype=float)
    x = x0.reshape(-1, x0.shape[-1]).copy()
    count = len(x)
    residual, jtj, gradient = _normal_equations(problem, x, np.arange(count))
    cost = _sum_squares(residual)
    lam = np.full(count, LM_INITIAL_DAMPING)
    iteration = np.ones(count, dtype=int)
    singular = np.zeros(count, dtype=bool)
    # a problem whose damping passed the ceiling has no acceptable step
    reason = np.full(count, StopReason.DAMPING_CEILING, dtype=np.int8)
    active = lam <= LM_MAX_DAMPING
    trying = np.flatnonzero(active)

    # each mask below is gathered only when it leaves some problem out
    rounds = 0
    while trying.size:
        rounds += 1
        step = _damped_steps(jtj, gradient, lam, trying)
        finite = np.isfinite(step).all(axis=1)
        if not finite.all():
            singular[trying[~finite]] = True
        trial = problem.retract(x[trying], step)
        trial_residual, point = problem.evaluate(trial, trying)
        trial_cost = _sum_squares(trial_residual)
        old_cost = cost[trying]
        accept = trial_cost <= old_cost
        moved, new_cost = trying, trial_cost
        if not accept.all():
            rejected = trying[~accept]
            lam[rejected] *= 10.0
            active[rejected] = lam[rejected] <= LM_MAX_DAMPING
            moved, step, trial = trying[accept], step[accept], trial[accept]
            new_cost, old_cost = trial_cost[accept], old_cost[accept]
        decrease = old_cost - new_cost
        x[moved] = trial
        cost[moved] = new_cost
        lam[moved] = np.maximum(lam[moved] / 10.0, 1e-15)
        # np.linalg.norm(step, axis=1), bit for bit
        small = np.sqrt(np.add.reduce(step * step, axis=1)) < LM_STEP_TOL
        done = small | (decrease <= LM_COST_TOL * np.maximum(new_cost, 1e-300))
        going = moved
        if done.any():
            active[moved[done]] = False
            reason[moved[done]] = np.where(small[done], StopReason.STEP_TOL, StopReason.COST_TOL)
            going = moved[~done]
        # a count grows by at most one a round, so none reaches the budget sooner
        if rounds >= LM_MAX_ITERATIONS:
            exhausted = iteration[going] >= LM_MAX_ITERATIONS
            active[going[exhausted]] = False
            reason[going[exhausted]] = StopReason.MAX_ITERATIONS
            going = going[~exhausted]
        if going.size:
            iteration[going] += 1
            for part, *sums in problem.normal_slices(point, np.searchsorted(trying, going)):
                jtj[going[part]], gradient[going[part]] = sums
        if going.size < trying.size:
            trying = np.flatnonzero(active)

    shape = x0.shape[:-1]
    return StackedSolve(
        estimate=x.reshape(x0.shape),
        final_cost=cost.reshape(shape),
        problem_iterations=iteration.reshape(shape),
        normal_equations_singular=singular.reshape(shape),
        stop_reason=reason.reshape(shape),
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
    agent_p, agent_o = pairml.pair_ml_estimate(problem.anchor_problem(), room)
    return join_poses(agent_p, agent_o).reshape(problem.y_imag.shape[:-3] + (-1,))


def parse_init_strategy(spec: str) -> Tuple[str, int]:
    """Parse 'perfect', 'pairml', 'random' or 'random:<k>', spelled exactly so.

    k is written in the decimal digits 0-9 alone: no sign, space or
    underscore.

    Raises:
        ValueError: any other spelling, or a restart count below one.
    """
    name, colon, arg = spec.partition(":")
    if name == "random":
        if colon and not (arg.isascii() and arg.isdigit()):
            raise ValueError(f"bad restart count in {spec!r}")
        count = int(arg) if colon else 1
        if count < 1:
            raise ValueError("random restart count must be >= 1")
        return name, count
    if name in ("perfect", "pairml"):
        if colon:
            raise ValueError(f"init strategy {name!r} takes no argument")
        return name, 1
    raise ValueError(f"init must be perfect, random[:k] or pairml, got {spec!r}")


def estimate(
    problem: LsProblem,
    inits: Sequence[str],
    room: Optional[Room] = None,
    truth: Optional[np.ndarray] = None,
    rng: Union[np.random.Generator, Sequence[np.random.Generator], None] = None,
) -> List[StackedSolve]:
    """Solve a deployment estimation problem from each of the requested initializations.

    Each init is one of 'perfect' (start from the true pose rows truth,
    evaluation mode), 'random' / 'random:<k>' (uniform position in the room,
    uniform orientation; the restart with the lowest final cost wins, the
    first on ties) or 'pairml' (closed-form per-agent initialization, one LM
    run).  A perfect-init solve is the reference that checks whether
    another start reached the global minimum.

    A cooperative problem is solved on its folded links (LsProblem.folded),
    its final cost the ordered one.  A non-cooperative one decomposes into M
    independent one-agent problems on their own anchor links
    (LsProblem.anchor_problem), so a final cost is one agent's own objective.
    A group is the agents of one solved problem, read off the problem
    solved: one group of M agents with cooperation, M of one agent without.
    truth holds pose rows (geometry.join_poses).  A stack of T measurement
    sets, problem.y_imag (T, L, 3, 3), takes truth (T, 12M) and rng as a
    sequence of T generators; each set's results equal those of the set
    solved alone, its random starts drawn from its own rng (in init order,
    if several inits draw).

    Returns one solve of the winning starts per init, in order.  Its
    per-problem fields have the shape y_imag.shape[:-3] + (groups,), and
    estimate holds each group's pose row, (..., groups, 12M / groups).  All
    inits, sets, groups and restarts are solved in one levenberg_marquardt
    call, init-major, then set-major, then group-major, then restart-minor;
    each problem's path does not depend on the stack, so each init's solve
    equals that init solved alone.  The caller bounds the stack.
    """
    specs = [parse_init_strategy(init) for init in inits]
    for strategy, _ in specs:
        if strategy == "perfect" and truth is None:
            raise ValueError("perfect initialization requires the true parameters")
        if strategy in ("random", "pairml") and room is None:
            raise ValueError(f"{strategy} initialization requires the room")
        if strategy == "random" and rng is None:
            raise ValueError("random initialization requires an rng")

    base, dropped = problem.folded() if problem.cooperative else (problem.anchor_problem(), 0.0)
    width = 12 * base.n_agents
    starts = [np.reshape(_starts(problem, s, k, room, truth, rng), (-1, width)) for s, k in specs]
    y_imag = base.y_imag.reshape((-1,) + base.y_imag.shape[-3:])
    stacked = np.concatenate([np.repeat(y_imag, k, axis=0) for _, k in specs])
    solve = levenberg_marquardt(replace(base, y_imag=stacked), np.concatenate(starts))
    # a group is one solved problem's agents: base's rows per set
    group = np.arange(len(y_imag)).reshape(problem.y_imag.shape[:-3] + (-1,))
    solves, offset = [], 0
    for _, restarts in specs:
        # lowest final cost per group, first on ties (final costs are finite)
        costs = solve.final_cost[offset : offset + restarts * group.size]
        best = offset + restarts * group + np.argmin(costs.reshape(group.shape + (restarts,)), -1)
        winners = StackedSolve(*(getattr(solve, f.name)[best] for f in fields(StackedSolve)))
        solves.append(replace(winners, final_cost=winners.final_cost + np.expand_dims(dropped, -1)))
        offset += restarts * group.size
    return solves


def _starts(problem: LsProblem, strategy: str, restarts: int, room, truth, rng) -> np.ndarray:
    """The start pose rows of one init of estimate, set-major, group-major, restart-minor."""
    if strategy == "perfect":
        return truth
    if strategy == "pairml":
        return pairml_initialization(problem, room)
    rngs = [rng] if problem.y_imag.ndim == 3 else rng
    drawn = [_random_poses(problem.n_agents * restarts, room, r) for r in rngs]
    # a set's draws fill its groups, then their restarts, then their agents
    return join_poses(np.stack([p for p, _ in drawn]), np.stack([o for _, o in drawn]))


@dataclass
class _RangeProblem:
    """Residuals ||p - a_n|| - r_n of a stack of range-only fixes.

    anchor_positions (B, N, 3) and distances (B, N); a NaN distance marks a
    padded anchor, whose residual and Jacobian row are zero.
    """

    anchor_positions: np.ndarray
    distances: np.ndarray

    def evaluate(self, p: np.ndarray, index):
        """Residual rows of the fixes p (n, 3) of problems index; the point keeps the Jacobian."""
        anchors, distances = self.anchor_positions[index], self.distances[index]
        diff = p[..., None, :] - anchors
        norms = np.maximum(np.linalg.norm(diff, axis=-1), 1e-12)
        usable = np.isfinite(distances)
        residual = np.where(usable, norms - distances, 0.0)
        return residual, (residual, np.where(usable[..., None], diff / norms[..., None], 0.0))

    def normal_slices(self, point, rows: np.ndarray):
        residual, jac = (part[rows] for part in point)
        jac_t = np.swapaxes(jac, -1, -2)
        yield slice(None), jac_t @ jac, (jac_t @ residual[..., None])[..., 0]

    def retract(self, p: np.ndarray, step: np.ndarray) -> np.ndarray:
        return p + step


def multilaterate(anchor_positions: np.ndarray, distances: np.ndarray, room: Room) -> StackedSolve:
    """Range-only position fixes from per-anchor distance estimates.

    anchor_positions (N, 3) are shared by every fix, and distances (..., N)
    hold one fix per leading index; all fixes are solved as one stacked LM,
    each initialized at the room center.  A NaN distance marks an anchor
    without a usable estimate, so fixes over different anchor counts can
    share a stack.  Returns the LM's solve with each fix, clamped to the
    room, as its estimate (..., 3); converged flags each fix on its own.
    Fewer than three usable anchors leave a 3-d fix underdetermined: it
    still returns a point in the room rather than raising.
    """
    distances = np.asarray(distances, dtype=float)
    flat = distances.reshape(-1, distances.shape[-1])
    anchors = np.broadcast_to(anchor_positions, flat.shape + (3,))
    start = np.broadcast_to(room.center, distances.shape[:-1] + (3,))
    solve = levenberg_marquardt(_RangeProblem(anchors, flat), start)
    return replace(solve, estimate=room.clamp(solve.estimate))
