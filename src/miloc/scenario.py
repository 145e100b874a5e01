"""Scenario generation: room, anchors, random agent topologies, measurements."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from . import channel as chan
from .channel import CoilParams, GlobalParams, LinkMeasurement
from .estimators import LsProblem
from .geometry import (
    Deployment, Room, euler_to_rotation, join_poses, rotation_to_euler, sample_uniform_rotation,
)

MAX_ATTEMPTS = 100_000  # rejection draws of one topology


class PackingInfeasible(RuntimeError):
    """Rejection sampler exhausted its attempt budget."""


class Scheme(Enum):
    COOP = "coop"
    NONCOOP = "noncoop"


@dataclass(frozen=True)
class Topology:
    """One network, drawn or loaded: known anchors plus the agents' true poses as arrays.

    Agent a sits at positions[a], turned by rotations[a]; the package reads
    only these arrays (pose_row, save_topology).  agents builds Deployments
    on each read, for the benchmark (perfbench), which still reads them.
    """

    room: Room
    anchors: List[Deployment]
    positions: np.ndarray  # (M, 3)
    rotations: np.ndarray  # (M, 3, 3)

    @property
    def pose_row(self) -> np.ndarray:
        """The agents' (12M,) pose row (geometry.join_poses)."""
        return join_poses(self.positions, self.rotations)

    @property
    def agents(self) -> List[Deployment]:
        """One read-only Deployment per agent, built from the arrays."""
        eulers = rotation_to_euler(self.rotations)
        return [Deployment(*pose) for pose in zip(self.positions, eulers, self.rotations)]

    @property
    def n_agents(self) -> int:
        return len(self.positions)

    @property
    def n_anchors(self) -> int:
        return len(self.anchors)


@dataclass(frozen=True)
class MeasurementSet:
    """All measured channel matrices of one scheme for one topology.

    Row l of h_meas is the measured H of the ordered node pair links[l]
    (node ids as in link_set).
    """

    links: np.ndarray  # (L, 2) int
    h_meas: np.ndarray  # (L, 3, 3) complex

    @property
    def measurements(self) -> List[LinkMeasurement]:
        """One read-only record per link, built from the arrays."""
        return [
            LinkMeasurement(tx=tx, rx=rx, h_meas=h)
            for (tx, rx), h in zip(self.links.tolist(), self.h_meas)
        ]


def default_anchors(room: Room) -> List[Deployment]:
    """Four anchors centered on the lateral walls, heights alternating
    between the quarter levels of the room; identity orientations.

    The staggered heights avoid a coplanar anchor set and keep the
    wall-mounted anchors on average farther from the agents than the agents
    are from one another; override via configuration for other layouts.
    """
    lo, hi = room.min_corner, room.max_corner
    cx, cy = 0.5 * (lo[0] + hi[0]), 0.5 * (lo[1] + hi[1])
    z_low = lo[2] + 0.25 * (hi[2] - lo[2])
    z_high = lo[2] + 0.75 * (hi[2] - lo[2])
    positions = [
        (cx, lo[1], z_low),
        (hi[0], cy, z_high),
        (cx, hi[1], z_low),
        (lo[0], cy, z_high),
    ]
    return [Deployment.identity(np.array(p)) for p in positions]


def _distances(nodes: np.ndarray, checked: int) -> np.ndarray:
    """Distances (n, N) of the first n = checked of N nodes to every node.

    A pair of checked nodes appears once, as (i, j) with i < j; inf fills the rest of their block.
    """
    distances = np.linalg.norm(nodes[:checked, None] - nodes[None], axis=-1)
    distances[:, :checked][np.tri(checked, dtype=bool)] = np.inf
    return distances


def sample_topology(
    n_agents: int,
    room: Room,
    anchors: Sequence[Deployment],
    min_distance: float,
    rng: np.random.Generator,
) -> Topology:
    """Draw agent poses uniformly, rejecting min-distance violations.

    Positions are uniform in the room and orientations Haar-uniform; the
    whole configuration is resampled until every pairwise distance
    (agent-agent and agent-anchor) is at least min_distance, so the accepted
    draw is exactly uniform on the constrained set.  The topology holds the
    drawn positions and rotation matrices; no Euler angle is computed.

    Raises:
        PackingInfeasible: no draw of MAX_ATTEMPTS was feasible.
    """
    anchor_positions = np.reshape([a.position for a in anchors], (-1, 3))
    for _ in range(MAX_ATTEMPTS):
        positions = rng.uniform(room.min_corner, room.max_corner, size=(n_agents, 3))
        nodes = np.concatenate([positions, anchor_positions])
        if _distances(nodes, n_agents).min(initial=np.inf) >= min_distance:
            return Topology(room, list(anchors), positions, sample_uniform_rotation(rng, n_agents))
    raise PackingInfeasible(
        f"no feasible placement of {n_agents} agents in {MAX_ATTEMPTS} attempts"
    )


def link_set(n_agents: int, n_anchors: int, scheme: Scheme) -> np.ndarray:
    """Ordered (tx, rx) node-id pairs of the scheme's measurement set.

    Agents are ids 0..n_agents-1, anchors follow.  Non-cooperative: every
    agent transmits to every anchor.  Cooperative: additionally every ordered
    agent pair, so an agent pair is measured twice (once per direction).
    The solver and the bounds fold each pair into one link (LsProblem.folded).
    """
    links = [
        (m, n_agents + a) for m in range(n_agents) for a in range(n_anchors)
    ]
    if scheme is Scheme.COOP:
        links += [
            (m, n) for m in range(n_agents) for n in range(n_agents) if n != m
        ]
    return np.array(links, dtype=int).reshape(-1, 2)


def network_problem(
    n_agents: int, anchors: Sequence[Deployment], coupling: float, scheme: Scheme
) -> LsProblem:
    """The least-squares problem of the scheme's link set over the anchors, unmeasured.

    It holds no measured set (y_imag of shape (0, L, 3, 3)); its noiseless
    gains (LsProblem.gains), bounds and, with measurements put in, estimates
    all read the one link set.
    """
    links = link_set(n_agents, len(anchors), scheme)
    return LsProblem(
        n_agents=n_agents,
        anchor_positions=[a.position for a in anchors],
        anchor_rotations=[a.rotation for a in anchors],
        links=links,
        y_imag=np.empty((0, len(links), 3, 3)),
        coupling=coupling,
    )


def synthesize_measurements(
    topology: Topology,
    coil: CoilParams,
    params: GlobalParams,
    scheme: Scheme,
    rng: np.random.Generator,
) -> MeasurementSet:
    """Generate noisy channel measurements for every link of the scheme.

    Noise of level params.noise_sigma is drawn independently per link and
    per entry, in link order; the two ordered measurements of an agent pair
    get independent draws, which the estimators fold into one (LsProblem.folded).
    """
    coupling = chan.coupling_coefficient(coil, coil, params)
    problem = network_problem(topology.n_agents, topology.anchors, coupling, scheme)
    gains = problem.gains(topology.pose_row)
    h_meas = chan.add_noise(1j * gains, params.noise_sigma, rng)
    return MeasurementSet(links=problem.links, h_meas=h_meas)


# ---------------------------------------------------------------------------
# Plain-text topology fixtures: one node per row,
#   id kind x y z alpha beta gamma
# with the room box in one header comment.
# ---------------------------------------------------------------------------


def save_topology(topology: Topology, path) -> None:
    """Write a fixture: the anchors with their own angles, the agents' canonical ones."""
    corners = np.concatenate([topology.room.min_corner, topology.room.max_corner])
    room = " ".join(f"{v:.12g}" for v in corners)
    lines = ["# miloc topology", f"# room {room}", "# id kind x y z alpha beta gamma"]
    anchors = np.reshape([np.hstack([a.position, a.euler]) for a in topology.anchors], (-1, 6))
    agents = np.hstack([topology.positions, rotation_to_euler(topology.rotations)])
    kinds = ["anchor"] * len(anchors) + ["agent"] * len(agents)
    for node_id, (kind, values) in enumerate(zip(kinds, np.concatenate([anchors, agents]))):
        lines.append(" ".join([str(node_id), kind] + [f"{v:.17g}" for v in values]))
    Path(path).write_text("\n".join(lines) + "\n")


def _numbers(fields: Sequence[str], what: str, line: str) -> np.ndarray:
    """The fields of line as floats; a ValueError quotes the line if one is not a number."""
    try:
        return np.array([float(v) for v in fields])
    except ValueError as exc:
        raise ValueError(f"non-numeric field in {what} {line!r}: {exc}") from None


def load_topology(path, room: Optional[Room] = None) -> Topology:
    """Read a topology fixture; the room comes from its one header unless given.

    All nodes' angles turn into rotations in one call; anchors keep the angles read.  A second
    or malformed header or node row (a non-numeric number, a non-finite one, and in the header
    corners that do not increase, included) raises a ValueError quoting it.
    """
    read, agent, rows = None, [], []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if parts[:1] == ["room"] and room is None:
                if read is not None:
                    raise ValueError(f"second room header {line!r}")
                if len(parts) != 7:
                    raise ValueError(f"room header needs six numbers: {line!r}")
                vals = _numbers(parts[1:], "room header", line)
                try:
                    read = Room(vals[:3], vals[3:])
                except ValueError as exc:  # a non-finite or non-increasing corner
                    raise ValueError(f"room header {line!r}: {exc}") from None
            continue
        fields = line.split()
        if len(fields) != 8:
            raise ValueError(f"expected 8 fields per node row, got {len(fields)}")
        rows.append(_numbers(fields[2:], "node row", line))
        if not np.isfinite(rows[-1]).all():
            raise ValueError(f"non-finite number in node row {line!r}")
        if fields[1] not in ("anchor", "agent"):
            raise ValueError(f"unknown node kind {fields[1]!r}")
        agent.append(fields[1] == "agent")
    room = read if room is None else room
    if room is None:
        raise ValueError("topology file lacks a room header and no room was given")
    rows, agent = np.reshape(rows, (-1, 6)), np.array(agent, dtype=bool)
    poses = rows[:, :3], rows[:, 3:], euler_to_rotation(rows[:, 3:])
    anchors = [Deployment(*pose) for pose in zip(*(a[~agent] for a in poses))]
    return Topology(room, anchors, poses[0][agent], poses[2][agent])


def check_topology(topology: Topology, min_distance: float) -> List[str]:
    """Validate every node, agents then anchors (each counted from 0); returns the violations.

    Nodes outside the room come first, then, node by node, the later ones closer than min_distance.
    """
    m, anchors = topology.n_agents, [a.position for a in topology.anchors]
    nodes = np.concatenate([topology.positions, np.reshape(anchors, (-1, 3))])
    outside = np.flatnonzero(~topology.room.contains(nodes))
    problems = [f"agent {i} outside the room" for i in outside[outside < m]]
    problems += [f"anchor {k - m} outside the room" for k in outside[outside >= m]]
    distances = _distances(nodes, len(nodes))
    for i, j in zip(*np.nonzero(distances < min_distance)):
        pair = f"agents {i},{j}" if j < m else f"agent {i} anchor {j - m}"  # as i < j
        if i >= m:
            pair = f"anchors {i - m},{j - m}"
        problems.append(f"{pair} distance {distances[i, j]:.4f} below minimum")
    return problems
