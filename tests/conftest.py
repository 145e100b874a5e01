import dataclasses

import numpy as np
import pytest
from hypothesis import settings

from miloc import (
    CoilParams,
    GlobalParams,
    Room,
    coupling_coefficient,
    default_anchors,
    sample_uniform_rotation,
)

from oracles import deployment_from_rotation


@pytest.fixture(scope="session")
def coil():
    return CoilParams(turns=5, diameter=0.05, resistance=1.0)


@pytest.fixture(scope="session")
def gparams():
    return GlobalParams(frequency=500e3, noise_sigma=1e-5)


@pytest.fixture(scope="session")
def room():
    return Room.cube(1.5)


@pytest.fixture(scope="session")
def anchors(room):
    return default_anchors(room)


@pytest.fixture(scope="session")
def coupling(coil, gparams):
    return coupling_coefficient(coil, coil, gparams)


def random_deployment(rng, room=None, lo=0.0, hi=1.5):
    if room is not None:
        position = room.sample_point(rng)
    else:
        position = rng.uniform(lo, hi, 3)
    return deployment_from_rotation(position, sample_uniform_rotation(rng))


# the settings of every hypothesis property: few, repeatable examples
PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)

SINGULAR_TOPOLOGY = 2
FAR_OUT_M = 1e8


def far_out(topology):
    """The topology with agent 0 moved FAR_OUT_M meters out of the room along x.

    Agent 0's links are then so weak that its own information block is
    singular by the FIM_MAX_CONDITION rule: the block's condition grows as
    the squared distance (about 3e14 at 1e7 m), and at 1e8 m its smallest
    eigenvalue is lost to rounding.  So agent 0's bound is singular in both
    schemes and for every agent count, also where, as without cooperation,
    only agent 0's own block enters it.
    """
    positions = topology.positions.copy()
    positions[0, 0] += FAR_OUT_M
    return dataclasses.replace(topology, positions=positions)


@pytest.fixture
def singular_topology(monkeypatch):
    """Make the harness draw topology SINGULAR_TOPOLOGY of every agent count far out.

    The topology index is read from the seed-derived stream the harness
    passes in, so every draw of that topology is the same far-out one.
    """
    from miloc import harness

    original = harness.sample_topology

    def sample(n_agents, room, anchors, min_distance, rng):
        topology = original(n_agents, room, anchors, min_distance, rng)
        if rng.bit_generator.seed_seq.entropy[2] == SINGULAR_TOPOLOGY:
            return far_out(topology)
        return topology

    monkeypatch.setattr(harness, "sample_topology", sample)
    return SINGULAR_TOPOLOGY


@pytest.fixture
def lm_calls(monkeypatch):
    """Record the number of problems of every levenberg_marquardt call."""
    from miloc import estimators

    calls = []
    solver = estimators.levenberg_marquardt

    def counting(problem, x0, *args, **kwargs):
        calls.append(len(np.asarray(x0).reshape(-1, np.shape(x0)[-1])))
        return solver(problem, x0, *args, **kwargs)

    monkeypatch.setattr(estimators, "levenberg_marquardt", counting)
    return calls
