"""Scenario generation: room, anchors, random agent topologies, measurements."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from . import channel as chan
from .channel import CoilParams, GlobalParams, LinkMeasurement
from .geometry import Deployment, Room, sample_uniform_rotation

DEFAULT_MAX_ATTEMPTS = 100_000


class PackingInfeasible(RuntimeError):
    """Rejection sampler exhausted its attempt budget."""


class Scheme(Enum):
    COOP = "coop"
    NONCOOP = "noncoop"


@dataclass(frozen=True)
class Topology:
    """One drawn network: known anchors plus ground-truth agent deployments."""

    room: Room
    anchors: List[Deployment]
    agents: List[Deployment]

    @property
    def n_agents(self) -> int:
        return len(self.agents)

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
    scheme: Scheme

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


def sample_topology(
    n_agents: int,
    room: Room,
    anchors: Sequence[Deployment],
    min_distance: float,
    rng: np.random.Generator,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> Topology:
    """Draw agent deployments uniformly, rejecting min-distance violations.

    Positions are uniform in the room and orientations Haar-uniform; the
    whole configuration is resampled until every pairwise distance
    (agent-agent and agent-anchor) is at least min_distance, so the accepted
    draw is exactly uniform on the constrained set.

    Raises:
        PackingInfeasible: attempt budget exhausted.
    """
    anchor_pos = (
        np.stack([a.position for a in anchors]) if len(anchors) else np.zeros((0, 3))
    )
    for _ in range(max_attempts):
        positions = rng.uniform(
            room.min_corner, room.max_corner, size=(n_agents, 3)
        )
        if n_agents > 1:
            d_aa = np.linalg.norm(positions[:, None] - positions[None], axis=-1)
            d_aa[np.diag_indices(n_agents)] = np.inf
            if d_aa.min() < min_distance:
                continue
        if len(anchor_pos):
            d_an = np.linalg.norm(positions[:, None] - anchor_pos[None], axis=-1)
            if d_an.min() < min_distance:
                continue
        agents = [
            Deployment.from_rotation(p, sample_uniform_rotation(rng)) for p in positions
        ]
        return Topology(room=room, anchors=list(anchors), agents=agents)
    raise PackingInfeasible(
        f"no feasible placement of {n_agents} agents in {max_attempts} attempts"
    )


def link_set(n_agents: int, n_anchors: int, scheme: Scheme) -> np.ndarray:
    """Ordered (tx, rx) node-id pairs of the scheme's measurement set.

    Agents are ids 0..n_agents-1, anchors follow.  Non-cooperative: every
    agent transmits to every anchor.  Cooperative: additionally every ordered
    agent pair, so an agent pair is measured twice (once per direction).
    """
    links = [
        (m, n_agents + a) for m in range(n_agents) for a in range(n_anchors)
    ]
    if scheme is Scheme.COOP:
        links += [
            (m, n) for m in range(n_agents) for n in range(n_agents) if n != m
        ]
    return np.array(links, dtype=int).reshape(-1, 2)


def _link_gains(topology: Topology, coupling: float, scheme: Scheme):
    """Ordered links of the scheme and their noiseless Im(H), (L, 3, 3)."""
    links = link_set(topology.n_agents, topology.n_anchors, scheme)
    nodes = list(topology.agents) + list(topology.anchors)
    positions = np.array([n.position for n in nodes])
    rotations = np.array([n.rotation for n in nodes])
    tx, rx = links[:, 0], links[:, 1]
    gains, *_ = chan.channel_gain_batch(
        positions[tx], rotations[tx], positions[rx], rotations[rx], coupling
    )
    return links, gains


def synthesize_measurements(
    topology: Topology,
    coil: CoilParams,
    params: GlobalParams,
    scheme: Scheme,
    rng: np.random.Generator,
    sigma: Optional[float] = None,
) -> MeasurementSet:
    """Generate noisy channel measurements for every link of the scheme.

    Noise is drawn independently per link and per entry, in link order; the
    two ordered measurements of an agent pair get independent draws.
    """
    if sigma is None:
        sigma = params.noise_sigma
    coupling = chan.coupling_coefficient(coil, coil, params)
    links, gains = _link_gains(topology, coupling, scheme)
    h_meas = chan.add_noise(1j * gains, sigma, rng)
    return MeasurementSet(links=links, h_meas=h_meas, scheme=scheme)


def channel_gain_samples(
    topology: Topology,
    coil: CoilParams,
    params: GlobalParams,
):
    """Noiseless subcoil channel-gain magnitudes |h| of the cooperative set.

    Returns:
        (agent_agent, agent_anchor): flat arrays of the 9 per-link entries.
    """
    coupling = chan.coupling_coefficient(coil, coil, params)
    links, gains = _link_gains(topology, coupling, Scheme.COOP)
    magnitudes = np.abs(gains)
    to_agent = links[:, 1] < topology.n_agents
    return magnitudes[to_agent].ravel(), magnitudes[~to_agent].ravel()


# ---------------------------------------------------------------------------
# Plain-text topology fixtures: one node per row,
#   id kind x y z alpha beta gamma
# with the room box in a header comment.
# ---------------------------------------------------------------------------


def save_topology(topology: Topology, path) -> None:
    lines = [
        "# miloc topology",
        "# room {} {}".format(
            " ".join(f"{v:.12g}" for v in topology.room.min_corner),
            " ".join(f"{v:.12g}" for v in topology.room.max_corner),
        ),
        "# id kind x y z alpha beta gamma",
    ]
    node_id = 0
    for kind, nodes in (("anchor", topology.anchors), ("agent", topology.agents)):
        for node in nodes:
            fields = [str(node_id), kind] + [
                f"{v:.17g}" for v in np.hstack([node.position, node.euler])
            ]
            lines.append(" ".join(fields))
            node_id += 1
    Path(path).write_text("\n".join(lines) + "\n")


def load_topology(path, room: Optional[Room] = None) -> Topology:
    """Read a topology fixture; the room comes from the header unless given."""
    anchors, agents = [], []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if parts[:1] == ["room"] and room is None:
                vals = [float(v) for v in parts[1:7]]
                room = Room(np.array(vals[:3]), np.array(vals[3:]))
            continue
        fields = line.split()
        if len(fields) != 8:
            raise ValueError(f"expected 8 fields per node row, got {len(fields)}")
        kind = fields[1]
        position = np.array([float(v) for v in fields[2:5]])
        euler = np.array([float(v) for v in fields[5:8]])
        node = Deployment.from_euler(position, euler)
        if kind == "anchor":
            anchors.append(node)
        elif kind == "agent":
            agents.append(node)
        else:
            raise ValueError(f"unknown node kind {kind!r}")
    if room is None:
        raise ValueError("topology file lacks a room header and no room was given")
    return Topology(room=room, anchors=anchors, agents=agents)


def check_topology(topology: Topology, min_distance: float) -> List[str]:
    """Validate the topology invariants; returns a list of violations."""
    problems = []
    for i, agent in enumerate(topology.agents):
        if not topology.room.contains(agent.position):
            problems.append(f"agent {i} outside the room")
    positions = [a.position for a in topology.agents]
    for i in range(len(positions)):
        for j in range(i + 1, len(positions)):
            d = np.linalg.norm(positions[i] - positions[j])
            if d < min_distance:
                problems.append(f"agents {i},{j} distance {d:.4f} below minimum")
        for k, anchor in enumerate(topology.anchors):
            d = np.linalg.norm(positions[i] - anchor.position)
            if d < min_distance:
                problems.append(f"agent {i} anchor {k} distance {d:.4f} below minimum")
    return problems
