import dataclasses
import tracemalloc

import numpy as np
import pytest

from miloc import crlb, estimators, harness
from miloc.channel import channel_matrix, coupling_coefficient
from miloc.config import ConfigError, ExperimentConfig, parse_agent_spec
from miloc.estimators import LsProblem, multilaterate, parse_init_strategy
from miloc.geometry import euler_to_rotation, join_poses
from miloc.harness import (
    EmptyInput,
    agent0_bounds,
    calibrate_resistance,
    compute_cdf,
    emit_outputs,
    gains_experiment,
    mean_peb_curve,
    run_experiment,
    _trial_seed,
)
from miloc.pairml import NoMeasurements, distance_estimates
from miloc.scenario import Scheme, link_set, network_problem, sample_topology


def test_compute_cdf_basic():
    cdf = compute_cdf([3.0, 1.0, 2.0])
    assert np.allclose(cdf, [[1.0, 1 / 3], [2.0, 2 / 3], [3.0, 1.0]])


def test_compute_cdf_constant():
    cdf = compute_cdf([0.5, 0.5, 0.5])
    assert np.allclose(cdf[:, 0], 0.5)
    assert np.isclose(cdf[-1, 1], 1.0)


def test_compute_cdf_empty():
    with pytest.raises(EmptyInput):
        compute_cdf([])


def test_compute_cdf_uniform_dkw():
    rng = np.random.default_rng(0)
    cdf = compute_cdf(rng.uniform(0, 1, 10_000))
    assert np.abs(cdf[:, 1] - cdf[:, 0]).max() < 0.03


def test_parse_agent_spec():
    assert parse_agent_spec("10") == [10]
    assert parse_agent_spec("1..4") == [1, 2, 3, 4]
    assert parse_agent_spec("1,5,10") == [1, 5, 10]
    assert parse_agent_spec(3) == [3]
    for spec in ("0", 0, -2):
        with pytest.raises(ConfigError, match=">= 1"):
            parse_agent_spec(spec)
    with pytest.raises(ConfigError, match="bad agent spec"):
        parse_agent_spec("x..y")
    # an empty range, and a count given twice, which would run that count twice
    with pytest.raises(ConfigError, match="agent range '5..1' is empty"):
        parse_agent_spec("5..1")
    for spec in ("2,2", "1,3,1"):
        with pytest.raises(ConfigError, match="agent counts repeat"):
            parse_agent_spec(spec)
    with pytest.raises(ConfigError, match="agent counts repeat"):
        ExperimentConfig(agents="2,2")


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "room_size_m = 1.5\nnu = 5\ndiameter_m = 0.05\nsigma = 1e-5\n"
        "agents = 2\ntopologies = 3\nnoise = 2\nseed = 7\n# comment\n\n"
    )
    cfg = ExperimentConfig.from_file(path)
    assert cfg.agents == "2"
    assert cfg.topologies == 3
    assert cfg.seed == 7


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("frobnicate = 1\n")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(path)


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        ExperimentConfig(sigma=-1.0)
    float_keys = (
        "room_size_m", "diameter_m", "resistance_ohm", "frequency_hz", "mu", "sigma",
        "min_dist_factor",
    )
    for key in float_keys:
        for value in ("nan", "inf", "-inf"):
            with pytest.raises(ConfigError, match=f"{key} must be"):
                ExperimentConfig.from_mapping({key: value})
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        ExperimentConfig(seed=-1)
    with pytest.raises(ConfigError):
        ExperimentConfig(estimator="magic")
    with pytest.raises(ConfigError):
        ExperimentConfig(init="random:x")
    for estimator in ("turbols", "pairml", "multilateration"):
        with pytest.raises(ConfigError, match="applies to numls only"):
            ExperimentConfig(estimator=estimator, init="pairml")
        with pytest.raises(ConfigError, match="applies to numls only"):
            ExperimentConfig().override(init="random:2").override(estimator=estimator)


def test_config_echo_contains_all_keys():
    echo = ExperimentConfig().echo()
    for key in (
        "room_size_m",
        "anchor_layout",
        "nu",
        "diameter_m",
        "resistance_ohm",
        "frequency_hz",
        "mu",
        "sigma",
        "min_dist_factor",
        "agents",
        "topologies",
        "noise",
        "scheme",
        "estimator",
        "init",
        "seed",
        "out",
    ):
        assert f"{key} = " in echo


def _small_cfg(**overrides):
    base = dict(
        agents="2",
        topologies=2,
        noise=2,
        scheme="coop",
        estimator="numls",
        init="perfect",
        seed=123,
        resistance_ohm=0.0545,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_run_experiment_noiseless_exact():
    cfg = _small_cfg(sigma=1e-30, topologies=1, noise=1)
    result = run_experiment(cfg)
    assert result.failures == 0
    [block] = result.trials
    assert block.error_m.shape == (1, 2) and (block.error_m < 1e-8).all()


def test_run_experiment_structure_and_rmse(tmp_path):
    cfg = _small_cfg()
    result = run_experiment(cfg)
    [block] = result.trials
    assert block.error_m.shape == (2 * 2, 2)  # topologies x noise trials, agents
    assert block.keys.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert block.true_pose.shape == block.est_pose.shape == (4, 2, 12)
    assert len(result.summaries) == 1
    s = result.summaries[0]
    assert s.m == 2 and s.trials == 4
    assert s.mean_rmse_m > 0 and s.mean_peb_m > 0
    assert tmp_path / "cdf_M2_coop_numls.csv" in emit_outputs(result, tmp_path)
    # a run without reference solves writes no reference cost and no flag
    rows = _csv_rows((tmp_path / "trials.csv").read_bytes())
    assert [(r["ref_cost"], r["global_min"]) for r in rows] == [("nan", "")] * 8


def test_run_experiment_reference_costs(tmp_path):
    cfg = _small_cfg(estimator="turbols")
    result = run_experiment(cfg)
    [block] = result.trials
    assert len(block.ref_cost) == 4 and np.isfinite(block.ref_cost).all()
    assert block.global_min.dtype == bool and block.global_min.shape == (4, 2)
    # a run with reference solves writes a flag for every agent row
    emit_outputs(result, tmp_path)
    flags = [row["global_min"] for row in _csv_rows((tmp_path / "trials.csv").read_bytes())]
    assert flags == [str(int(flag)) for flag in block.global_min.ravel()]


def test_emit_outputs_schema_and_determinism(tmp_path):
    cfg = _small_cfg()
    result = run_experiment(cfg)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    emit_outputs(result, out1)
    emit_outputs(run_experiment(cfg), out2)

    summary = (out1 / "summary.csv").read_text().splitlines()
    assert summary[0] == "M,scheme,estimator,mean_rmse_m,mean_peb_m,outlier_frac,trials"
    assert (out1 / "config.echo").exists()

    cdf_files = sorted(p.name for p in out1.glob("cdf_*.csv"))
    assert cdf_files == ["cdf_M2_coop_numls.csv"]
    rows = (out1 / cdf_files[0]).read_text().splitlines()[1:]
    values = [float(r.split(",")[0]) for r in rows]
    assert values == sorted(values)

    # byte-identical data outputs on rerun with the same config and seed
    for name in ("trials.csv", "summary.csv", "cdf_M2_coop_numls.csv", "config.echo"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize(
    "overrides",
    [
        dict(scheme="noncoop", estimator="numls", init="random:3", agents="3"),
        dict(scheme="coop", estimator="numls", init="random:2", agents="2"),
        dict(scheme="coop", estimator="turbols", agents="3"),
    ],
)
def test_written_euler_angles_are_canonical(tmp_path, overrides):
    import csv

    from miloc.channel import coupling_coefficient
    from miloc.harness import _trial_seed
    from miloc.scenario import sample_topology, synthesize_measurements

    cfg = _small_cfg(topologies=2, noise=2, **overrides)
    emit_outputs(run_experiment(cfg), tmp_path)
    with open(tmp_path / "trials.csv") as handle:
        rows = list(csv.DictReader(handle))
    assert rows
    alpha, beta, gamma = (
        np.array([float(r[f"est_{k}"]) for r in rows]) for k in ("alpha", "beta", "gamma")
    )
    assert np.all((alpha > -np.pi) & (alpha <= np.pi))
    assert np.all((gamma > -np.pi) & (gamma <= np.pi))
    assert np.all(np.abs(beta) <= np.pi / 2)

    m = int(rows[0]["m"])
    coil, gparams = cfg.coil(), cfg.global_params()
    coupling = coupling_coefficient(coil, coil, gparams)
    scheme = cfg.scheme_enum()
    for t in range(cfg.topologies):
        topo = sample_topology(
            m, cfg.room(), cfg.anchors(), cfg.min_distance(),
            _trial_seed(cfg.seed, m, t, 0),
        )
        for k in range(cfg.noise):
            trial = [r for r in rows if int(r["topology"]) == t and int(r["noise"]) == k]
            columns = ("x", "y", "z", "alpha", "beta", "gamma")
            poses = np.array([[float(r[f"est_{c}"]) for c in columns] for r in trial])
            theta = join_poses(poses[:, :3], euler_to_rotation(poses[:, 3:]))
            data = synthesize_measurements(
                topo, coil, gparams, scheme, _trial_seed(cfg.seed, m, t, k, 1)
            )
            problem = network_problem(m, topo.anchors, coupling, scheme)
            recomputed = dataclasses.replace(problem, y_imag=np.imag(data.h_meas)).cost(theta)
            assert np.isclose(float(trial[0]["final_cost"]), recomputed, rtol=1e-9, atol=0.0)


def test_mean_peb_curve_noncoop_flat_in_m():
    cfg = _small_cfg(scheme="noncoop")
    rows = mean_peb_curve(cfg, agent_counts=[1, 3], topologies=40, scheme=Scheme.NONCOOP)
    values = [v for _, v, _ in rows]
    # agent 0's bound does not depend on the other agents without cooperation
    assert abs(values[0] - values[1]) / values[0] < 0.25  # same distribution, MC noise only


def test_calibrate_resistance_hits_target():
    cfg = ExperimentConfig(seed=5)
    result = calibrate_resistance(cfg, target_peb_m=2.18627459283404e-3, topologies=100)
    # bound scales linearly in the resistance: re-evaluating at the
    # calibrated value on the same topology stream reproduces the target
    check = mean_peb_curve(
        result.config, agent_counts=[1], topologies=100, scheme=Scheme.NONCOOP
    )
    assert np.isclose(check[0][1], 2.18627459283404e-3, rtol=1e-9)
    assert result.resistance_ohm > 0


def test_gains_experiment_outputs():
    cfg = _small_cfg(agents="3", topologies=3)
    stats = gains_experiment(cfg)
    assert stats["agent_agent"].shape == (3 * 3 * 2 * 9,)
    assert stats["agent_anchor"].shape == (3 * 3 * 4 * 9,)
    assert 0.0 <= stats["fraction_below_sigma"] <= 1.0
    assert stats["cdf_agent_agent_db"][0, 1] > 0
    # every cooperative link of every drawn topology, one link at a time, in order
    coupling = coupling_coefficient(cfg.coil(), cfg.coil(), cfg.global_params())
    expected = {"agent_agent": [], "agent_anchor": []}
    for topo in harness.draw_topologies(cfg, 3, 3):
        nodes = topo.agents + topo.anchors
        for tx, rx in link_set(3, 4, Scheme.COOP).tolist():
            gain = np.abs(np.imag(channel_matrix(nodes[tx], nodes[rx], coupling)))
            expected["agent_agent" if rx < 3 else "agent_anchor"].append(gain.ravel())
    for kind, gains in expected.items():
        assert np.array_equal(stats[kind], np.concatenate(gains)), kind
        assert np.all(stats[kind] > 0), kind


def test_gains_experiment_takes_the_largest_agent_count():
    stats = gains_experiment(ExperimentConfig(agents="10,3", topologies=1, seed=1))
    assert stats["agent_agent"].shape == (10 * 9 * 9,)
    assert stats["agent_anchor"].shape == (10 * 4 * 9,)


def test_estimator_dispatch_pairml_and_multilateration():
    for estimator in ("pairml", "multilateration"):
        cfg = _small_cfg(estimator=estimator, topologies=1, noise=1)
        result = run_experiment(cfg)
        assert result.failures == 0
        [block] = result.trials
        assert block.error_m.shape == (1, 2) and np.isfinite(block.error_m).all()
    # multilateration reports no orientation
    assert np.isnan(block.est_pose[..., 3:]).all()


def _noncoop_trial(m=3, seed=3):
    from miloc.channel import coupling_coefficient
    from miloc.scenario import sample_topology, synthesize_measurements

    cfg = _small_cfg(agents=str(m))
    coil, gparams = cfg.coil(), cfg.global_params()
    rng = np.random.default_rng(seed)
    topo = sample_topology(m, cfg.room(), cfg.anchors(), cfg.min_distance(), rng)
    ms = synthesize_measurements(topo, coil, gparams, Scheme.NONCOOP, rng)
    coupling = coupling_coefficient(coil, coil, gparams)
    problem = network_problem(m, topo.anchors, coupling, Scheme.NONCOOP)
    return topo, dataclasses.replace(problem, y_imag=np.imag(ms.h_meas))


def _solve_one(estimator, problem, room, truth, rng):
    """solve_trials on a stack of one trial."""
    from miloc.harness import solve_trials

    stack = dataclasses.replace(problem, y_imag=problem.y_imag[None])
    return solve_trials(estimator, "perfect", stack, room, np.asarray(truth)[None], [rng])


def _multilaterate_trial(topo, problem):
    truth = topo.pose_row
    return _solve_one("multilateration", problem, topo.room, truth, np.random.default_rng(0))


def test_multilateration_agent_without_usable_links_raises():
    topo, problem = _noncoop_trial()
    problem.y_imag[problem.links[:, 0] == 1] = 0.0
    with pytest.raises(NoMeasurements):
        _multilaterate_trial(topo, problem)


def test_multilateration_zero_link_equals_fix_from_the_others():
    topo, problem = _noncoop_trial()
    agent0 = np.flatnonzero(problem.links[:, 0] == 0)  # its anchor links, in anchor order
    problem.y_imag[agent0[1]] = 0.0
    poses, _, _ = _multilaterate_trial(topo, problem)
    assert np.isnan(poses[0, :, 3:]).all()  # a position-only estimate
    others = [0, 2, 3]
    own = LsProblem(
        n_agents=1,
        anchor_positions=problem.anchor_positions[others],
        anchor_rotations=problem.anchor_rotations[others],
        links=[(0, 1), (0, 2), (0, 3)],
        y_imag=problem.y_imag[agent0[others]][None],
        coupling=problem.coupling,
    )
    alone = multilaterate(own.anchor_positions, distance_estimates(own), topo.room)
    assert np.allclose(poses[0, 0, :3], alone.estimate[0], rtol=0.0, atol=1e-12)


def test_noncoop_group_costs_are_the_agents_own_objectives(monkeypatch):
    # a non-cooperative group is one agent on its anchor links, so its LM cost
    # is that agent's own objective, and the global_min flags the harness
    # takes from the LM costs equal those from costs evaluated afresh
    from oracles import agent_problem

    chunks = []
    solve_trials = harness.solve_trials

    def recording(*args, **kwargs):
        out = solve_trials(*args, **kwargs)
        chunks.append((args[2], out))
        return out

    monkeypatch.setattr(harness, "solve_trials", recording)
    cfg = _small_cfg(agents="3", topologies=3, noise=2, scheme="noncoop", init="random:3")
    result = run_experiment(cfg)
    flags = []
    for problem, (_, solve, reference) in chunks:
        for t in range(len(problem.y_imag)):
            trial = dataclasses.replace(problem, y_imag=problem.y_imag[t])
            costs = np.empty((2, problem.n_agents))
            for which, solved in enumerate((solve, reference)):
                for agent in range(problem.n_agents):
                    costs[which, agent] = agent_problem(trial, agent).cost(solved.estimate[t, agent])
                assert np.allclose(solved.final_cost[t], costs[which], rtol=1e-12, atol=0.0)
            flags += (costs[0] <= costs[1] + harness.GLOBAL_MIN_COST_SLACK).tolist()
    [block] = result.trials
    assert len(flags) == block.global_min.size == 18
    assert block.global_min.ravel().tolist() == flags


def test_trial_costs_sum_their_group_costs_in_group_order(monkeypatch):
    # ten non-cooperative groups per trial, where numpy's pairwise sum of a
    # row differs in the last bit from the sum in order for some trials
    solves = []
    solve_trials = harness.solve_trials

    def recording(*args, **kwargs):
        out = solve_trials(*args, **kwargs)
        solves.append(out[1])
        return out

    monkeypatch.setattr(harness, "solve_trials", recording)
    cfg = _small_cfg(agents="10", topologies=2, noise=4, scheme="noncoop")
    [block] = run_experiment(cfg).trials
    expected = [sum(groups) for solve in solves for groups in solve.final_cost.tolist()]
    assert block.final_cost.tolist() == expected


@pytest.mark.parametrize("scheme", ["coop", "noncoop"])
def test_a_cost_just_above_the_reference_is_not_the_global_minimum(monkeypatch, scheme):
    # an estimate 1e-10 above its reference, about 7% of a non-cooperative
    # agent's final cost, is another minimum; one at the reference's cost is it
    solve_trials, gaps = harness.solve_trials, []

    def shifted(*args, **kwargs):
        poses, solve, reference = solve_trials(*args, **kwargs)
        trials, groups = reference.final_cost.shape
        gap = np.where(np.add.outer(np.arange(trials), np.arange(groups)) % 2, 1e-10, 0.0)
        gaps.append(gap)
        return poses, dataclasses.replace(solve, final_cost=reference.final_cost + gap), reference

    monkeypatch.setattr(harness, "solve_trials", shifted)
    cfg = _small_cfg(agents="2", estimator="turbols", scheme=scheme)
    [block] = run_experiment(cfg).trials
    gap = np.concatenate(gaps)
    assert block.global_min.tolist() == np.repeat(gap == 0.0, 2 // gap.shape[1], axis=1).tolist()
    assert block.global_min.any() and not block.global_min.all()


def test_written_iterations_of_a_noncoop_trial_are_its_slowest_agents(tmp_path):
    # each agent of a non-cooperative trial is its own LM problem: the trial's
    # written iterations are the most any of its agents took, from the same
    # starts as a direct estimate call on the trial's measurements
    from miloc.scenario import synthesize_measurements

    cfg = _small_cfg(agents="3", topologies=2, noise=2, scheme="noncoop", init="random:2")
    emit_outputs(run_experiment(cfg), tmp_path)
    rows = _csv_rows((tmp_path / "trials.csv").read_bytes())
    coupling = coupling_coefficient(cfg.coil(), cfg.coil(), cfg.global_params())
    problem = network_problem(3, cfg.anchors(), coupling, Scheme.NONCOOP)
    spread = False
    for t in range(2):
        topo = sample_topology(
            3, cfg.room(), cfg.anchors(), cfg.min_distance(), _trial_seed(cfg.seed, 3, t, 0)
        )
        for k in range(2):
            data = synthesize_measurements(
                topo, cfg.coil(), cfg.global_params(), Scheme.NONCOOP,
                _trial_seed(cfg.seed, 3, t, k, 1),
            )
            trial = dataclasses.replace(problem, y_imag=np.imag(data.h_meas))
            [solve] = estimators.estimate(
                trial, ["random:2"], cfg.room(), rng=_trial_seed(cfg.seed, 3, t, k, 2)
            )
            mine = [r for r in rows if (r["topology"], r["noise"]) == (str(t), str(k))]
            assert {r["iterations"] for r in mine} == {str(solve.problem_iterations.max())}
            spread |= len(set(solve.problem_iterations.tolist())) > 1
    assert spread  # some trial's agents took different counts


@pytest.mark.parametrize("scheme", ["coop", "noncoop"])
def test_chunk_measurements_equal_the_synthesized_sets(monkeypatch, scheme):
    # Each trial's measurements in a chunk are those synthesize_measurements
    # gives the trial's topology and noise stream, bit for bit, in chunks that
    # split a topology's noise draws and chunks that hold two topologies.
    from miloc.scenario import synthesize_measurements

    chunks = []
    solve_trials = harness.solve_trials

    def recording(*args, **kwargs):
        problem, rngs = args[2], args[5]
        chunks.append((problem.y_imag, [rng.bit_generator.seed_seq.entropy for rng in rngs]))
        return solve_trials(*args, **kwargs)

    monkeypatch.setattr(harness, "solve_trials", recording)
    cfg = _small_cfg(agents="3", topologies=3, noise=3, scheme=scheme)
    monkeypatch.setattr(harness, "_LINKS_PER_CHUNK", 2 * len(link_set(3, 4, Scheme(scheme))))
    run_experiment(cfg)
    assert [len(keys) for _, keys in chunks] == [2, 2, 2, 2, 1]
    trials = []
    for y_imag, keys in chunks:
        for measured, (seed, m, t, k, _) in zip(y_imag, keys):
            topo = sample_topology(
                m, cfg.room(), cfg.anchors(), cfg.min_distance(), _trial_seed(seed, m, t, 0)
            )
            data = synthesize_measurements(
                topo, cfg.coil(), cfg.global_params(), Scheme(scheme), _trial_seed(seed, m, t, k, 1)
            )
            assert np.array_equal(measured, np.imag(data.h_meas))
            trials.append((t, k))
    assert trials == [(t, k) for t in range(3) for k in range(3)]


@pytest.mark.slow
def test_median_wall_time_ordering(room):
    # pairML < multilateration < non-cooperative turboLS < cooperative turboLS
    import time

    from miloc.channel import coupling_coefficient
    from miloc.harness import _trial_seed
    from miloc.scenario import sample_topology, synthesize_measurements

    cfg = _small_cfg(agents="10", topologies=10, noise=1)
    coil, gparams = cfg.coil(), cfg.global_params()
    anchors = cfg.anchors()
    coupling = coupling_coefficient(coil, coil, gparams)
    times = {k: [] for k in ("pairml", "multilateration", "turbols_noncoop", "turbols_coop")}
    for t in range(10):
        topo = sample_topology(10, cfg.room(), anchors, 0.15, _trial_seed(cfg.seed, 10, t, 0))
        truth = topo.pose_row
        for label, scheme in (
            ("pairml", Scheme.NONCOOP),
            ("multilateration", Scheme.NONCOOP),
            ("turbols_noncoop", Scheme.NONCOOP),
            ("turbols_coop", Scheme.COOP),
        ):
            ms = synthesize_measurements(topo, coil, gparams, scheme, _trial_seed(cfg.seed, 10, t, 1))
            problem = network_problem(10, anchors, coupling, scheme)
            problem = dataclasses.replace(problem, y_imag=np.imag(ms.h_meas))
            estimator = label.split("_")[0]
            started = time.perf_counter()
            if estimator == "turbols":
                # the estimate alone, without solve_trials' perfect-init references
                stack = dataclasses.replace(problem, y_imag=problem.y_imag[None])
                estimators.estimate(stack, ["pairml"], topo.room)
            else:
                _solve_one(estimator, problem, topo.room, truth, _trial_seed(cfg.seed, 10, t, 2))
            times[label].append(time.perf_counter() - started)
    medians = {k: np.median(v) for k, v in times.items()}
    # The closed-form estimators are orders of magnitude cheaper than any
    # iterative solve.  The coop-vs-noncoop gap of the reference results does
    # not reproduce here: with analytic Jacobians and batched link evaluation
    # the joint 60-parameter solve costs about the same as ten 6-parameter
    # solves at this network size, so only the robust inequalities are
    # asserted.
    assert medians["pairml"] < medians["multilateration"]
    assert medians["multilateration"] < medians["turbols_noncoop"]
    assert medians["multilateration"] < medians["turbols_coop"]


def test_mean_peb_curve_skips_singular_topologies(singular_topology):
    cfg = _small_cfg()
    kept = np.delete(_single_topology_bounds(cfg, 2, 5, True), singular_topology)
    rows = mean_peb_curve(cfg, agent_counts=[2], topologies=5, scheme=Scheme.COOP)
    assert rows == [(2, float(np.mean(kept)), 4)]


def _single_topology_bounds(cfg, m, topologies, cooperative):
    """Agent 0's bound topology by topology through the one-topology API."""
    coupling = coupling_coefficient(cfg.coil(), cfg.coil(), cfg.global_params())
    bounds = []
    for t in range(topologies):
        rng = _trial_seed(cfg.seed, m, t, 0)
        topo = sample_topology(m, cfg.room(), cfg.anchors(), cfg.min_distance(), rng)
        info = crlb.assemble_fim(topo.agents, cfg.anchors(), coupling, cfg.sigma, cooperative)
        try:
            bounds.append(crlb.peb(info, 0))
        except crlb.SingularFim:
            bounds.append(np.nan)
    return np.array(bounds)


def _agent0_bounds(cfg, m, topologies, cooperative):
    """agent0_bounds on the first topologies of count m, drawn one by one."""
    coupling = coupling_coefficient(cfg.coil(), cfg.coil(), cfg.global_params())
    scheme = Scheme.COOP if cooperative else Scheme.NONCOOP
    problem = network_problem(m, cfg.anchors(), coupling, scheme)
    return agent0_bounds(problem, harness.draw_topologies(cfg, m, topologies), cfg.sigma)


def _links(cfg, m, cooperative):
    """Links of agent 0's bound: the whole cooperative set, or agent 0's anchor links."""
    if not cooperative:
        return len(cfg.anchors())
    return len(link_set(m, len(cfg.anchors()), Scheme.COOP))


@pytest.mark.parametrize("cooperative", [True, False])
def test_stacked_bounds_equal_single_topology_bounds(monkeypatch, cooperative):
    # Bit for bit, for stacks of one and two topologies and for any chunking.
    cfg = _small_cfg(seed=5)
    for m in range(1, 11):
        expected = _single_topology_bounds(cfg, m, 5, cooperative)
        assert np.array_equal(_agent0_bounds(cfg, m, 1, cooperative), expected[:1])
        assert np.array_equal(_agent0_bounds(cfg, m, 2, cooperative), expected[:2])
        for per_call in (1, 2, 3, 10**9):  # topologies per stacked call
            monkeypatch.setattr(estimators, "LINKS_PER_SLICE", per_call * _links(cfg, m, cooperative))
            assert np.array_equal(_agent0_bounds(cfg, m, 5, cooperative), expected), (m, per_call)


@pytest.mark.parametrize("m, cooperative", [(10, True), (1, False)])
def test_stacked_bounds_across_the_default_chunk_boundary(m, cooperative):
    cfg = _small_cfg(seed=6)
    chunk = estimators.LINKS_PER_SLICE // _links(cfg, m, cooperative)
    expected = _single_topology_bounds(cfg, m, chunk + 2, cooperative)
    assert np.array_equal(_agent0_bounds(cfg, m, chunk + 2, cooperative), expected)


def test_bound_sweep_folds_each_link_set_once(monkeypatch):
    # One fold per cooperative agent count (M=1 has no agent pair): folding
    # again in every stacked call, at 3 topologies, would fold 13 times,
    # twice each at M=8 and 9 and three times at M=10.
    folds, fold = [], LsProblem.folded

    def counting(problem):
        folded, dropped = fold(problem)
        if len(folded.links) < len(problem.links):
            folds.append(problem.n_agents)
        return folded, dropped

    monkeypatch.setattr(LsProblem, "folded", counting)
    cfg = ExperimentConfig(seed=20240101)
    mean_peb_curve(cfg, agent_counts=range(1, 11), topologies=3, scheme=Scheme.COOP)
    assert folds == list(range(2, 11))


def test_bound_sweep_memory_does_not_grow_with_topologies():
    # Stacking all 400 topologies at once would hold about 50,000 links of
    # derivative columns, over 100 MB; chunked stacks keep the peak flat.
    cfg = ExperimentConfig(seed=20240101)
    mean_peb_curve(cfg, agent_counts=[10], topologies=2, scheme=Scheme.COOP)
    peaks = []
    for topologies in (100, 400):
        tracemalloc.start()
        try:
            mean_peb_curve(cfg, agent_counts=[10], topologies=topologies, scheme=Scheme.COOP)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0], peaks


# Warm tracemalloc peaks, in bytes, of the two runs below at commit 31cb4db,
# whose LM summed J^T J from dense Jacobians (Python 3.11.7, numpy 2.4.6):
# the link-by-link assembly must not need more memory.
DENSE_SWEEP_PEAK = 582_333
DENSE_TURBOLS_PEAK = 1_704_472


def _warm_peak(run):
    """tracemalloc peak of run's second call."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bound_sweep_peak_memory():
    cfg = ExperimentConfig(seed=20240101)

    def sweep():
        mean_peb_curve(cfg, agent_counts=range(1, 11), topologies=3, scheme=Scheme.COOP)
        mean_peb_curve(cfg, agent_counts=[10], topologies=3, scheme=Scheme.NONCOOP)

    assert _warm_peak(sweep) <= DENSE_SWEEP_PEAK


def test_cooperative_turbols_chunk_peak_memory():
    cfg = ExperimentConfig(
        seed=20240101, agents="10", topologies=1, noise=4, scheme="coop", estimator="turbols"
    )
    assert _warm_peak(lambda: run_experiment(cfg)) <= DENSE_TURBOLS_PEAK


def test_cooperative_turbols_chunk_is_one_call_with_its_references(lm_calls):
    # four M=10 estimates and their four perfect-init references in one call
    cfg = _small_cfg(agents="10", topologies=1, noise=4, scheme="coop", estimator="turbols")
    result = run_experiment(cfg)
    assert result.failures == 0 and result.trials[0].error_m.shape == (4, 10)
    assert lm_calls == [8]


def test_chunks_hold_whole_trials_within_the_link_budget(lm_calls):
    # a cooperative M=10 turboLS trial is 2 x 130 links, so 7 trials fit in
    # 2,048 links: 32 trials take five chunks, each one call of its
    # estimates and their references
    cfg = _small_cfg(agents="10", topologies=8, noise=4, scheme="coop", estimator="turbols")
    assert run_experiment(cfg).failures == 0
    assert lm_calls == [14, 14, 14, 14, 8]
    # a non-cooperative M=10 random:5 trial is 6 x 40 links: two trials are
    # one chunk, one call of 2 x 10 x 5 single-agent estimates and 2 x 10
    # references
    lm_calls.clear()
    cfg = _small_cfg(agents="10", topologies=1, noise=2, scheme="noncoop", init="random:5")
    assert run_experiment(cfg).failures == 0
    assert lm_calls == [120]


@pytest.mark.parametrize(
    "scheme, estimator, init", [("coop", "turbols", "perfect"), ("noncoop", "numls", "random:2")]
)
def test_checked_chunk_references_are_perfect_init_estimates(
    monkeypatch, lm_calls, scheme, estimator, init
):
    # a checked chunk's one LM call ends in the chunk's true pose rows, one
    # group per agent without cooperation, and its references are each
    # trial's own perfect-init estimate, bit for bit
    cfg = _small_cfg(
        agents="3", topologies=2, noise=2, scheme=scheme, estimator=estimator, init=init, seed=45
    )
    starts, chunks = [], []
    solver, solve_trials = estimators.levenberg_marquardt, harness.solve_trials

    def recording_solver(problem, x0):
        starts.append(np.array(x0))
        return solver(problem, x0)

    def recording_chunk(estimator, init, problem, room, truths, rngs):
        out = solve_trials(estimator, init, problem, room, truths, rngs)
        chunks.append((problem, truths, out[2]))
        return out

    monkeypatch.setattr(estimators, "levenberg_marquardt", recording_solver)
    monkeypatch.setattr(harness, "solve_trials", recording_chunk)
    assert run_experiment(cfg).failures == 0
    [(problem, truths, reference)] = chunks
    groups, restarts = (1, 1) if scheme == "coop" else (3, 2)
    assert len(starts) == 1 and lm_calls == [4 * groups * (restarts + 1)]
    assert np.array_equal(starts[0][4 * groups * restarts :], truths.reshape(4 * groups, -1))
    assert reference.final_cost.shape == (4, groups)
    monkeypatch.setattr(estimators, "levenberg_marquardt", solver)
    for t in range(4):
        alone = dataclasses.replace(problem, y_imag=problem.y_imag[t])
        [want] = estimators.estimate(alone, ["perfect"], truth=truths[t])
        for field in dataclasses.fields(want):
            assert np.array_equal(getattr(reference, field.name)[t], getattr(want, field.name))


# ---------------------------------------------------------------------------
# Trial chunks: one stacked solve per chunk of trials.
# ---------------------------------------------------------------------------

CHUNKED_RUNS = [
    (scheme, estimator, init)
    for scheme in ("coop", "noncoop")
    for estimator, init in (
        ("numls", "perfect"),
        ("numls", "random:2"),
        ("turbols", "perfect"),
        ("pairml", "perfect"),
        ("multilateration", "perfect"),
    )
]


def _one_trial(cfg, m):
    """One trial's LM problems in its one LM call (estimates and references) and its links."""
    restarts = parse_init_strategy(cfg.init)[1] if cfg.estimator == "numls" else 1
    checked = cfg.estimator == "turbols" or (
        cfg.estimator == "numls" and cfg.init.startswith("random")
    )
    links = len(link_set(m, len(cfg.anchors()), Scheme(cfg.scheme))) * (restarts + checked)
    if cfg.estimator == "multilateration":
        return [m], links  # one range fix per agent
    groups = 1 if cfg.scheme == "coop" and cfg.estimator != "pairml" else m
    return [groups * (restarts + checked)], links


def _emitted(result, path):
    emit_outputs(result, path)
    names = sorted(p.name for p in path.iterdir() if p.name not in ("timings.csv", "config.echo"))
    return {name: (path / name).read_bytes() for name in names}


@pytest.mark.parametrize("scheme, estimator, init", CHUNKED_RUNS)
def test_outputs_identical_for_every_chunk_budget(
    tmp_path, monkeypatch, lm_calls, scheme, estimator, init
):
    # chunks of one and two trials, and the default, all give the same bytes
    cfg = _small_cfg(
        agents="3", topologies=2, noise=3, scheme=scheme, estimator=estimator, init=init, seed=41
    )
    problems, links = _one_trial(cfg, 3)
    budgets = {  # links per chunk
        "one trial": 0,
        "two trials": 2 * links,
        "default": harness._LINKS_PER_CHUNK,
    }
    outputs, counts = {}, {}
    for label, budget in budgets.items():
        monkeypatch.setattr(harness, "_LINKS_PER_CHUNK", budget)
        lm_calls.clear()
        result = run_experiment(cfg)
        assert result.failures == 0
        [block] = result.trials
        assert block.error_m.shape == (6, 3)
        for est, true, error in zip(
            block.est_pose.reshape(-1, 12), block.true_pose.reshape(-1, 12), block.error_m.ravel()
        ):
            assert error == float(np.linalg.norm(est[:3] - true[:3]))
        outputs[label] = _emitted(result, tmp_path / label.replace(" ", "_"))
        counts[label] = list(lm_calls)
    assert outputs["one trial"] == outputs["two trials"] == outputs["default"]
    assert "trials.csv" in outputs["default"] and "summary.csv" in outputs["default"]
    assert f"cdf_M3_{scheme}_{estimator}.csv" in outputs["default"]
    if estimator == "pairml":
        return  # no iterative solve
    # every chunk is one LM call of all its trials' estimates, and of their
    # references if the estimator is checked
    assert counts["one trial"] == problems * 6
    assert counts["two trials"] == [2 * p for p in problems] * 3
    assert counts["default"] == [6 * p for p in problems]


def _run_with_failing_trial(monkeypatch, cfg, failing):
    """run_experiment in which every stack holding trial failing = (t, k) raises CoincidentNodes."""
    from miloc.channel import CoincidentNodes

    solve = harness.solve_trials

    def raising(estimator, init, problem, room, truths, rngs):
        if any(tuple(rng.bit_generator.seed_seq.entropy[2:4]) == failing for rng in rngs):
            raise CoincidentNodes("forced")
        return solve(estimator, init, problem, room, truths, rngs)

    monkeypatch.setattr(harness, "solve_trials", raising)
    return run_experiment(cfg)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(scheme="noncoop", estimator="numls", init="random:2"),
        dict(scheme="coop", estimator="turbols"),
    ],
)
def test_failing_trial_in_a_chunk_leaves_the_others(tmp_path, monkeypatch, overrides):
    cfg = _small_cfg(agents="3", topologies=2, noise=3, seed=43, **overrides)
    # errors above one bound, not ten, so that the outlier count is not 0
    monkeypatch.setattr(harness, "OUTLIER_PEB_FACTOR", 1.0)
    default = _run_with_failing_trial(monkeypatch, cfg, (1, 0))
    monkeypatch.setattr(harness, "_LINKS_PER_CHUNK", 0)  # one trial per chunk
    alone = _run_with_failing_trial(monkeypatch, cfg, (1, 0))
    for result in (default, alone):
        assert result.failures == 1
        assert result.failures_by_kind == {"CoincidentNodes": 1}
        [block] = result.trials
        assert block.error_m.shape == (5, 3)
        assert block.keys.tolist() == [[0, 0], [0, 1], [0, 2], [1, 1], [1, 2]]
    emitted = _emitted(default, tmp_path / "default")
    assert emitted == _emitted(alone, tmp_path / "alone")
    # the summary of topologies with 3 and 2 kept trials, from the written agent-0 rows
    rows = _csv_rows(emitted["trials.csv"])
    agent0 = [(int(r["topology"]), float(r["error_m"])) for r in rows if r["agent"] == "0"]
    bounds = _agent0_bounds(cfg, 3, cfg.topologies, cfg.scheme == "coop")
    rmse = [np.sqrt(np.mean([e * e for t, e in agent0 if t == topo])) for topo in (0, 1)]
    outliers = sum(e > bounds[t] for t, e in agent0)
    assert 0 < outliers < 5
    [summary] = _csv_rows(emitted["summary.csv"])
    assert np.isclose(float(summary["mean_rmse_m"]), np.mean(rmse), rtol=1e-10, atol=0.0)
    assert float(summary["outlier_frac"]) == outliers / 5
    assert summary["trials"] == "5" and len(agent0) == 5


def _csv_rows(data: bytes):
    import csv
    import io

    return list(csv.DictReader(io.StringIO(data.decode())))


def test_run_without_a_kept_trial_writes_no_rows(tmp_path, monkeypatch):
    from miloc.channel import CoincidentNodes

    def raising(*args, **kwargs):
        raise CoincidentNodes("forced")

    monkeypatch.setattr(harness, "solve_trials", raising)
    cfg = _small_cfg(agents="1,2", topologies=2, noise=2)
    result = run_experiment(cfg)
    assert result.failures_by_kind == {"CoincidentNodes": 8}
    assert [block.error_m.shape for block in result.trials] == [(0, 1), (0, 2)]
    emitted = _emitted(result, tmp_path)
    assert sorted(emitted) == ["summary.csv", "trials.csv"]  # no CDF
    assert emitted["trials.csv"].decode() == harness.TRIALS_HEADER + "\n"
    assert (tmp_path / "timings.csv").read_text() == harness.TIMINGS_HEADER + "\n"
    summaries = _csv_rows(emitted["summary.csv"])
    assert [s["M"] for s in summaries] == ["1", "2"]
    for s in summaries:
        assert s["mean_rmse_m"] == s["outlier_frac"] == "nan" and s["trials"] == "0"
        assert float(s["mean_peb_m"]) > 0


@pytest.mark.parametrize(
    "overrides",
    [
        dict(scheme="coop", estimator="numls", agents="1,3"),
        dict(scheme="noncoop", estimator="multilateration", agents="2"),
    ],
)
def test_written_true_poses_are_the_drawn_topologies(tmp_path, overrides):
    cfg = _small_cfg(topologies=3, noise=2, **overrides)
    result = run_experiment(cfg)
    rows = _csv_rows(_emitted(result, tmp_path)["trials.csv"])
    columns = [f"true_{c}" for c in ("x", "y", "z", "alpha", "beta", "gamma")]
    for block, m in zip(result.trials, cfg.agent_counts()):
        drawn = [topology.agents for topology in harness.draw_topologies(cfg, m, cfg.topologies)]
        expected = np.array([[drawn[t][a].as_vector() for a in range(m)] for t, _ in block.keys])
        assert np.array_equal(harness._canonical_poses(block.true_pose), expected.reshape(-1, 6))
        written = [[r[c] for c in columns] for r in rows if r["m"] == str(m)]
        assert written == [[f"{v:.12g}" for v in pose] for pose in expected.reshape(-1, 6)]


def test_agent_without_anchor_links_fails_only_its_trial(tmp_path, monkeypatch):
    # a real NoMeasurements from the batched pair-ML pass of a chunk
    cfg = _small_cfg(agents="3", topologies=2, noise=2, scheme="noncoop", estimator="pairml")
    original = harness.add_noise
    agent2 = link_set(3, len(cfg.anchors()), Scheme.NONCOOP)[:, 0] == 2

    def silent_agent(h, sigma, rng):
        measured = original(h, sigma, rng)
        if tuple(rng.bit_generator.seed_seq.entropy[2:4]) == (0, 1):
            measured[agent2] = 0.0
        return measured

    monkeypatch.setattr(harness, "add_noise", silent_agent)
    result = run_experiment(cfg)
    assert result.failures == 1
    assert result.failures_by_kind == {"NoMeasurements": 1}
    [block] = result.trials
    assert block.keys.tolist() == [[0, 0], [1, 0], [1, 1]]
    assert block.error_m.shape == (3, 3)


def test_each_topology_is_drawn_once(monkeypatch):
    drawn = []
    original = harness.sample_topology

    def counting(n_agents, room, anchors, min_distance, rng):
        drawn.append((n_agents, rng.bit_generator.seed_seq.entropy[2]))
        return original(n_agents, room, anchors, min_distance, rng)

    monkeypatch.setattr(harness, "sample_topology", counting)
    run_experiment(_small_cfg(agents="1,3", topologies=3, noise=2))
    assert drawn == [(m, t) for m in (1, 3) for t in range(3)]


def _canonical_pose_one(pose):
    """Position and canonical Euler angles of one one-agent pose row."""
    from oracles import rotation_to_euler_one

    if np.isnan(pose[3:]).any():
        return np.hstack([pose[:3], np.full(3, np.nan)])
    return np.hstack([pose[:3], rotation_to_euler_one(pose[3:].reshape(3, 3))])


def test_canonical_poses_match_one_pose_at_a_time():
    from miloc.geometry import euler_to_rotation, sample_uniform_rotation

    rng = np.random.default_rng(44)
    rotations = sample_uniform_rotation(rng, 500)
    rotations[5] = euler_to_rotation([0.4, np.pi / 2, 0.0])  # gimbal lock
    poses = np.hstack([rng.uniform(0, 1.5, (500, 3)), rotations.reshape(500, 9)])
    poses[::7, 3:] = np.nan  # position-only estimates
    canonical = harness._canonical_poses(poses)
    expected = np.array([_canonical_pose_one(p) for p in poses])
    assert np.array_equal(canonical[:, :3], poses[:, :3])
    assert np.array_equal(canonical, expected, equal_nan=True)
    assert harness._canonical_poses([]).shape == (0, 6)
