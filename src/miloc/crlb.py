"""Fisher information and position error bounds for the coil network.

Every measured link contributes (2 / sigma**2) * Re tr(dH^H/d theta_k
dH/d theta_l) to the information matrix.  Because H is purely imaginary
these traces are inner products of the stacked imaginary-part derivative
columns, which are the columns of the least-squares residual Jacobian J.
The information matrix of a link set is therefore (2 / sigma**2) J^T J at
the true deployments, assembled by the same LsProblem that the estimators
solve.  In the cooperative scheme both ordered measurements of an agent
pair exist and both are counted; without agent-agent links the matrix is
block diagonal.

The position error bound of an agent is the root of the summed position
diagonal entries of the inverse information matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .estimators import LsProblem, pack_deployments
from .scenario import Scheme, link_set

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

    Returns (2 / sigma**2) J^T J for the residual Jacobian J of the scheme's
    link set at the true agent deployments.
    """
    m = len(agents)
    scheme = Scheme.COOP if cooperative else Scheme.NONCOOP
    links = link_set(m, len(anchors), scheme)
    problem = LsProblem(
        n_agents=m,
        anchor_positions=np.array([a.position for a in anchors]).reshape(-1, 3),
        anchor_rotations=np.array([a.rotation for a in anchors]).reshape(-1, 3, 3),
        links=links,
        y_imag=np.zeros((len(links), 3, 3)),
        coupling=coupling,
    )
    _, jac = problem.residual_and_jacobian(pack_deployments(agents))
    return FisherInfo(matrix=2.0 / sigma**2 * (jac.T @ jac), n_agents=m)


def _position_solve(info: FisherInfo, agents: np.ndarray) -> np.ndarray:
    """Position diagonal of the inverse information matrix, one row per agent.

    Only the 3 * len(agents) needed columns of the inverse are solved for;
    the full eigendecomposition runs on the failure path alone, for the
    null direction.
    """
    eigvals = np.linalg.eigvalsh(info.matrix)
    scale = float(eigvals[-1])
    if scale <= 0.0 or eigvals[0] <= 0.0 or scale / eigvals[0] > FIM_MAX_CONDITION:
        null = np.linalg.eigh(info.matrix)[1][:, 0]
        raise SingularFim(
            f"information matrix condition exceeds {FIM_MAX_CONDITION:g}", null
        )
    rows = (6 * agents[:, None] + np.arange(3)).reshape(-1)
    unit = np.zeros((len(info.matrix), len(rows)))
    unit[rows, np.arange(len(rows))] = 1.0
    columns = np.linalg.solve(info.matrix, unit)
    return columns[rows, np.arange(len(rows))].reshape(-1, 3)


def peb(info: FisherInfo, agent: int = 0) -> float:
    """Position error bound of one agent, in meters.

    Raises:
        SingularFim: matrix not invertible at the configured condition limit.
    """
    return float(np.sqrt(np.sum(_position_solve(info, np.array([agent])))))


def peb_all(info: FisherInfo) -> np.ndarray:
    """Position error bounds of every agent from a single solve."""
    return np.sqrt(np.sum(_position_solve(info, np.arange(info.n_agents)), axis=1))
