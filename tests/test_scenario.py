import dataclasses
import re

import numpy as np
import pytest
from scipy import stats

from miloc.geometry import Deployment, join_poses, rotation_to_euler, sample_uniform_rotation
from miloc.scenario import (
    PackingInfeasible,
    Scheme,
    Topology,
    check_topology,
    default_anchors,
    link_set,
    load_topology,
    sample_topology,
    save_topology,
    synthesize_measurements,
)

from oracles import channel_gain, check_topology_per_pair, sample_topology_per_agent


def test_default_anchors_on_lateral_walls(room):
    anchors = default_anchors(room)
    assert len(anchors) == 4
    for anchor in anchors:
        p = anchor.position
        on_wall = [v in (0.0, 1.5) for v in p[:2]]
        assert sum(on_wall) == 1  # exactly one lateral coordinate on a wall
        assert 0.0 < p[2] < 1.5
        assert np.array_equal(anchor.rotation, np.eye(3))
    # symmetric about the room center
    mean = np.mean([a.position for a in anchors], axis=0)
    assert np.allclose(mean, room.center)


def test_custom_anchor_count_supported(room):
    rng = np.random.default_rng(0)
    anchors = default_anchors(room) + [Deployment.identity([0.75, 0.75, 1.5]),
                                       Deployment.identity([0.75, 0.75, 0.0])]
    topo = sample_topology(3, room, anchors, 0.15, rng)
    assert topo.n_anchors == 6
    assert not check_topology(topo, 0.15)


def test_sample_topology_invariants(room, anchors):
    rng = np.random.default_rng(1)
    for _ in range(50):
        topo = sample_topology(10, room, anchors, 0.15, rng)
        assert not check_topology(topo, 0.15)
        positions = np.stack([a.position for a in topo.agents])
        assert np.all(positions >= 0.0) and np.all(positions <= 1.5)


def test_sample_topology_single_agent(room, anchors):
    rng = np.random.default_rng(2)
    topo = sample_topology(1, room, anchors, 0.15, rng)
    assert topo.n_agents == 1


def test_sample_topology_infeasible(room, anchors, monkeypatch):
    from miloc import scenario

    monkeypatch.setattr(scenario, "MAX_ATTEMPTS", 200)
    rng = np.random.default_rng(3)
    with pytest.raises(PackingInfeasible, match="in 200 attempts"):
        sample_topology(2, room, anchors, room.diagonal, rng)


def test_agent_positions_uniform(room, anchors):
    # marginal x-coordinate of a single sampled agent stays uniform
    rng = np.random.default_rng(4)
    xs = np.array(
        [sample_topology(1, room, anchors, 0.15, rng).agents[0].position[0] for _ in range(10_000)]
    )
    result = stats.kstest(xs / 1.5, "uniform")
    assert result.pvalue > 0.01


def test_link_set_counts():
    noncoop = link_set(7, 4, Scheme.NONCOOP)
    assert len(noncoop) == 28
    coop = link_set(10, 4, Scheme.COOP)
    assert len(coop) == 130  # 40 agent-anchor + 90 ordered agent-agent
    assert len(np.unique(coop, axis=0)) == 130
    # transmitters are always agents
    assert coop[:, 0].max() < 10


def test_measurement_counts_and_kinds(room, anchors, coil, gparams):
    rng = np.random.default_rng(5)
    topo = sample_topology(7, room, anchors, 0.15, rng)
    ms = synthesize_measurements(topo, coil, gparams, Scheme.NONCOOP, rng)
    assert len(ms.measurements) == 28
    assert all(m.rx >= 7 for m in ms.measurements)
    ms = synthesize_measurements(topo, coil, gparams, Scheme.COOP, rng)
    assert len(ms.measurements) == 70  # 28 + 42 ordered agent pairs
    assert sum(m.rx < 7 for m in ms.measurements) == 42


def test_zero_sigma_measurements_are_exact(room, anchors, coil, gparams, coupling):
    from miloc.channel import channel_matrix

    rng = np.random.default_rng(6)
    topo = sample_topology(3, room, anchors, 0.15, rng)
    noiseless = dataclasses.replace(gparams, noise_sigma=0.0)
    ms = synthesize_measurements(topo, coil, noiseless, Scheme.COOP, rng)
    nodes = list(topo.agents) + list(topo.anchors)
    for m in ms.measurements:
        assert np.array_equal(m.h_meas, channel_matrix(nodes[m.tx], nodes[m.rx], coupling))


def test_ordered_agent_pair_noise_is_independent(room, anchors, coil, gparams):
    rng = np.random.default_rng(7)
    topo = sample_topology(2, room, anchors, 0.15, rng)
    ms = synthesize_measurements(topo, coil, gparams, Scheme.COOP, rng)
    by_pair = {(m.tx, m.rx): m.h_meas for m in ms.measurements if m.rx < 2}
    h01, h10 = by_pair[(0, 1)], by_pair[(1, 0)]
    # the models are transposes but the noise must differ
    assert np.abs(h01 - h10.T).max() > 1e-8


def test_determinism(room, anchors, coil, gparams):
    t1 = sample_topology(5, room, anchors, 0.15, np.random.default_rng(42))
    t2 = sample_topology(5, room, anchors, 0.15, np.random.default_rng(42))
    for a, b in zip(t1.agents, t2.agents):
        assert np.array_equal(a.position, b.position)
        assert np.array_equal(a.rotation, b.rotation)
    m1 = synthesize_measurements(t1, coil, gparams, Scheme.COOP, np.random.default_rng(9))
    m2 = synthesize_measurements(t2, coil, gparams, Scheme.COOP, np.random.default_rng(9))
    for a, b in zip(m1.measurements, m2.measurements):
        assert np.array_equal(a.h_meas, b.h_meas)


def test_topology_save_load_roundtrip(tmp_path, room, anchors):
    rng = np.random.default_rng(8)
    topo = sample_topology(4, room, anchors, 0.15, rng)
    path = tmp_path / "fixture.txt"
    save_topology(topo, path)
    loaded = load_topology(path)
    assert loaded.n_agents == 4 and loaded.n_anchors == 4
    assert np.allclose(loaded.room.max_corner, room.max_corner)
    for a, b in zip(loaded.agents, topo.agents):
        assert np.allclose(a.position, b.position, atol=1e-15)
        assert np.abs(a.rotation - b.rotation).max() < 1e-12


def test_load_topology_rejects_bad_rows(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# room 0 0 0 1 1 1\n0 anchor 0.1 0.2\n")
    with pytest.raises(ValueError):
        load_topology(path)


@pytest.mark.parametrize("header", ["# room 0 0 0 1.5", "# room 0 0 0", "# room 0 0 0 1 1 1 1"])
def test_load_topology_requires_six_room_numbers(tmp_path, header):
    path = tmp_path / "room.txt"
    path.write_text(header + "\n0 anchor 0.1 0.2 0.3 0 0 0\n")
    with pytest.raises(ValueError, match=re.escape(header)):
        load_topology(path)


@pytest.mark.parametrize(
    "header", ["# room 0 0 0 inf inf inf", "# room 0 0 0 1.5 nan 1.5", "# room -inf 0 0 1.5 1.5 1.5"]
)
def test_load_topology_rejects_a_non_finite_room(tmp_path, header):
    # an unbounded room would put every node inside it
    path = tmp_path / "room.txt"
    path.write_text(header + "\n0 anchor 50 50 50 0 0 0\n")
    with pytest.raises(ValueError, match="by a finite amount"):
        load_topology(path)


def test_check_topology_reports_violations(room, anchors):
    identity = np.broadcast_to(np.eye(3), (2, 3, 3))
    topo = Topology(room, list(anchors), np.array([[0.5, 0.5, 0.5], [0.5, 0.5, 0.55]]), identity)
    problems = check_topology(topo, 0.15)
    assert any("distance" in p for p in problems)
    outside = Topology(room, list(anchors), np.array([[2.0, 0.5, 0.5]]), identity[:1])
    assert any("outside" in p for p in check_topology(outside, 0.15))


# by anchor layout, the violations the anchors add on their own
ANCHOR_VIOLATIONS = {
    "default": [],
    "anchor_outside": ["anchor 2 outside the room"],
    "anchors_close": ["anchors 0,3 distance 0.0500 below minimum"],
}


@pytest.mark.parametrize("min_distance", [0.15, 0.4])
def test_check_topology_matches_per_pair_oracle(room, anchors, min_distance):
    # the same messages in the same order as the pair-by-pair loops, with
    # an agent out of the room next to an anchor and two agents too close,
    # and anchor 2 moved 20 cm out of the room or anchor 3 put 5 cm from anchor 0
    for layout, violations in ANCHOR_VIOLATIONS.items():
        layout_anchors = list(anchors)
        if layout == "anchor_outside":
            layout_anchors[2] = Deployment.identity(anchors[2].position + [0.0, 0.2, 0.0])
        elif layout == "anchors_close":
            layout_anchors[3] = Deployment.identity(anchors[0].position + [0.0, 0.03, 0.04])
        rng = np.random.default_rng(21)
        for m in range(0, 11):
            positions = rng.uniform(room.min_corner, room.max_corner, size=(m, 3))
            if m > 0:
                positions[0] = anchors[1].position + [0.05, 0.0, 0.0]
            if m > 1:
                positions[m - 1] = positions[(m - 1) // 2] + [0.03, 0.04, 0.0]
            topo = Topology(room, layout_anchors, positions, sample_uniform_rotation(rng, m))
            problems = check_topology(topo, min_distance)
            assert problems == check_topology_per_pair(topo, min_distance)
            if m == 0:
                assert problems == violations
                continue
            assert set(violations) <= set(problems)
            assert len(problems) >= (2 if m == 1 else 3) + len(violations), problems
            assert problems[0] == "agent 0 outside the room"


def test_agents_view_packs_to_the_arrays(room, anchors):
    # the Deployment view is the sampler's former output: the drawn arrays,
    # and Euler angles from one stacked conversion
    for m in range(1, 11):
        topo = sample_topology(m, room, anchors, 0.15, np.random.default_rng([22, m]))
        agents = topo.agents
        assert len(agents) == topo.n_agents == m
        assert np.array_equal(topo.pose_row, join_poses(topo.positions, topo.rotations))
        assert np.array_equal(np.array([a.position for a in agents]), topo.positions)
        assert np.array_equal(np.array([a.rotation for a in agents]), topo.rotations)
        assert np.array_equal(np.array([a.euler for a in agents]), rotation_to_euler(topo.rotations))


def test_regression_fixture_is_stable(room):
    # guards the text format and the sampling conventions: the committed
    # fixture must reproduce bit-for-bit from its recorded seed
    from pathlib import Path

    from miloc.harness import _trial_seed
    from miloc.scenario import default_anchors

    fixture = Path(__file__).parent / "fixtures" / "topology_m7.txt"
    stored = load_topology(fixture)
    assert not check_topology(stored, 0.15)
    regenerated = sample_topology(
        7, room, default_anchors(room), 0.15, _trial_seed(2024, 7, 0, 0)
    )
    for a, b in zip(stored.agents, regenerated.agents):
        assert np.allclose(a.position, b.position, atol=1e-15)
        assert np.allclose(a.euler, b.euler, atol=1e-15)


@pytest.mark.parametrize("scheme", [Scheme.NONCOOP, Scheme.COOP])
def test_batched_synthesis_matches_per_link_loop(room, anchors, coil, gparams, coupling, scheme):
    topo = sample_topology(4, room, anchors, 0.15, np.random.default_rng(10))
    batched_rng, loop_rng = np.random.default_rng(11), np.random.default_rng(11)
    ms = synthesize_measurements(topo, coil, gparams, scheme, batched_rng)
    nodes = list(topo.agents) + list(topo.anchors)
    links = link_set(topo.n_agents, topo.n_anchors, scheme)
    assert [(m.tx, m.rx) for m in ms.measurements] == [tuple(link) for link in links.tolist()]
    scale = gparams.noise_sigma / np.sqrt(2.0)
    for m in ms.measurements:
        # one link at a time: nine real parts, then nine imaginary parts
        noise = loop_rng.standard_normal((3, 3)) + 1j * loop_rng.standard_normal((3, 3))
        h = 1j * channel_gain(nodes[m.tx], nodes[m.rx], coupling) + noise * scale
        assert np.abs(m.h_meas - h).max() <= 1e-13 * np.abs(h).max()
    assert batched_rng.standard_normal() == loop_rng.standard_normal()


def test_measurement_records_mirror_the_arrays(room, anchors, coil, gparams):
    # the per-link records are what external readers iterate over
    topo = sample_topology(3, room, anchors, 0.15, np.random.default_rng(12))
    ms = synthesize_measurements(topo, coil, gparams, Scheme.COOP, np.random.default_rng(13))
    assert ms.links.shape == (18, 2) and ms.h_meas.shape == (18, 3, 3)
    records = ms.measurements
    assert len(records) == len(ms.links)
    for record, (tx, rx), h in zip(records, ms.links, ms.h_meas):
        assert (record.tx, record.rx) == (tx, rx)
        assert np.array_equal(record.h_meas, h)
    by_pair = {(m.tx, m.rx): m.h_meas for m in records}
    assert len(by_pair) == 18


def test_sampler_matches_per_agent_oracle(room, anchors):
    # The batched orientation draw reproduces, bit for bit, the sampler that
    # draws and converts one agent orientation at a time, and leaves the
    # generator where that sampler leaves it.
    for seed in range(200):
        for m in range(1, 11):
            rng, oracle_rng = np.random.default_rng([seed, m]), np.random.default_rng([seed, m])
            topo = sample_topology(m, room, anchors, 0.15, rng)
            positions, eulers, rotations = sample_topology_per_agent(m, room, anchors, 0.15, oracle_rng)
            assert np.array_equal(np.array([a.position for a in topo.agents]), positions)
            assert np.array_equal(np.array([a.euler for a in topo.agents]), eulers)
            assert np.array_equal(np.array([a.rotation for a in topo.agents]), rotations)
            assert rng.standard_normal() == oracle_rng.standard_normal()
