"""Fisher information and position error bounds for the coil network.

Every measured link contributes (2 / sigma**2) * Re tr(dH^H/d theta_k
dH/d theta_l) to the information matrix.  Because H is purely imaginary
these traces are inner products of the columns of the Jacobian J of Im(H),
made of channel.jacobian_rows; -J is the Jacobian of the least-squares residual.
The information matrix of a link set is therefore (2 / sigma**2) J^T J at
the true deployments, summed link by link by LsProblem.normal_equations,
the assembly the estimators' normal equations use.  A cooperative agent
pair's two ordered links carry the information of its one folded link
(LsProblem.folded), on which it is assembled; without agent-agent links
the matrix is block diagonal, each block the matrix of one agent alone on
its anchor links.  The link set, anchors and coupling come from one
LsProblem (scenario.network_problem), the problem whose measurements the
estimators fit.  Each agent contributes six parameters, its position and
a local rotation of its orientation, R exp([phi]x) at phi = 0.  No
orientation chart enters, so no orientation (gimbal lock included) is a
singular point of the parametrization, and the position bound does not
depend on how the agents are turned.

The position error bound of an agent is the root of the summed position
diagonal entries of the inverse information matrix.  An agent that shares
no information with any other (all its off-diagonal blocks zero, as in
the non-cooperative scheme) takes it from its own 6 x 6 block, so another
agent's singular block does not void its bound.  Stacks of topologies are
assembled and solved in one call each (fim_stack of a problem, peb_stack);
the one-topology functions are their single-matrix case.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .estimators import LsProblem
from .geometry import join_poses
from .scenario import Scheme, network_problem

FIM_MAX_CONDITION = 1e14


class SingularFim(ValueError):
    """Information matrix is not invertible; carries the null direction."""

    def __init__(self, message: str, null_direction: Optional[np.ndarray] = None):
        super().__init__(message)
        self.null_direction = null_direction


@dataclass
class FisherInfo:
    """Assembled information matrix over the 6 * n_agents agent parameters."""

    matrix: np.ndarray
    n_agents: int


def fim_stack(problem: LsProblem, poses: np.ndarray, sigma: float) -> np.ndarray:
    """Information matrices of the problem's link set at a stack of deployments.

    Args:
        problem: the link set, anchors and coupling (scenario.network_problem);
            its measurements do not enter.
        poses: agent pose rows (..., 12M) (geometry.join_poses).

    Returns (2 / sigma**2) J^T J, shape (..., 6M, 6M), for the residual
    Jacobian J of the links at the given deployments, summed over the folded
    links (LsProblem.folded; a problem with no pair measured both ways, as
    agent0_bounds passes, is its own fold); each topology's matrix is the same whatever else is in
    the stack.  Without cooperation each diagonal block equals the matrix
    of its agent alone (problem.anchor_problem) bit for bit.
    """
    unmeasured = replace(problem, y_imag=np.zeros(problem.y_imag.shape[-3:])).folded()[0]
    return 2.0 / sigma**2 * unmeasured.normal_equations(poses)[1]


def assemble_fim(
    agents,
    anchors,
    coupling: float,
    sigma: float,
    cooperative: bool,
) -> FisherInfo:
    """Information matrix of the full network for one topology.

    Args:
        agents, anchors: sequences of Deployment.
        cooperative: include the ordered agent-agent measurement set.
    """
    scheme = Scheme.COOP if cooperative else Scheme.NONCOOP
    problem = network_problem(len(agents), anchors, coupling, scheme)
    poses = join_poses([a.position for a in agents], [a.rotation for a in agents])
    matrix = fim_stack(problem, poses, sigma)
    return FisherInfo(matrix=matrix, n_agents=len(agents))


def _decoupled(matrices: np.ndarray, own: slice) -> bool:
    """Whether the rows own of every matrix of a (T, n, n) stack vanish outside columns own."""
    rows = matrices[:, own]
    return np.count_nonzero(rows) == np.count_nonzero(rows[:, :, own])


def _position_variances(matrices: np.ndarray, agent: int):
    """Position diagonal of the inverse of each information matrix, for one agent.

    matrices is a (T, n, n) stack.  Returns the (T, 3) variances, NaN for
    singular matrices, and the (T,) singular mask: a matrix is singular
    when its eigenvalues are not all positive or their ratio exceeds
    FIM_MAX_CONDITION.  An agent decoupled in every matrix takes its own
    blocks (module docstring).  One stacked eigvalsh tests every matrix,
    and one stacked solve finds only the three needed columns of the
    inverses of the others.
    """
    own = slice(6 * agent, 6 * agent + 6)
    if _decoupled(matrices, own):
        matrices, agent = matrices[:, own, own], 0
    eigvals = np.linalg.eigvalsh(matrices)
    scale, smallest = eigvals[:, -1], eigvals[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        singular = (scale <= 0.0) | (smallest <= 0.0) | (scale / smallest > FIM_MAX_CONDITION)
    rows, picks = 6 * agent + np.arange(3), np.arange(3)
    unit = np.zeros((matrices.shape[-1], 3))
    unit[rows, picks] = 1.0
    variances = np.full((len(matrices), 3), np.nan)
    regular = ~singular
    if regular.any():
        solvable = matrices if regular.all() else matrices[regular]
        variances[regular] = np.linalg.solve(solvable, unit)[:, rows, picks]
    return variances, singular


def peb(info: FisherInfo, agent: int = 0) -> float:
    """Position error bound of one agent, in meters.

    Raises:
        SingularFim: matrix not invertible at the configured condition
        limit; the null direction is found on failure only.
    """
    variances, singular = _position_variances(info.matrix[None], agent)
    if singular[0]:
        null = np.linalg.eigh(info.matrix)[1][:, 0]
        raise SingularFim(f"information matrix condition exceeds {FIM_MAX_CONDITION:g}", null)
    return float(np.sqrt(np.sum(variances[0])))


def peb_stack(matrices: np.ndarray, agent: int = 0) -> np.ndarray:
    """Position error bound of one agent for each matrix of a (T, n, n) stack.

    Singular matrices give NaN; every other bound equals peb of that matrix
    alone, bit for bit, when the agent is decoupled in all the matrices or
    in none (as in any one scheme).
    """
    variances, _ = _position_variances(matrices, agent)
    return np.sqrt(np.sum(variances, axis=-1))
