import dataclasses
import tracemalloc

import numpy as np
import pytest

from miloc import crlb, estimators, harness
from miloc.channel import coupling_coefficient
from miloc.config import ConfigError, ExperimentConfig, parse_agent_spec
from miloc.estimators import LsProblem, multilaterate, pack_deployments, parse_init_strategy
from miloc.geometry import Deployment
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
from miloc.scenario import Scheme, link_set, sample_topology


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
    with pytest.raises(ConfigError):
        parse_agent_spec("0")
    with pytest.raises(ConfigError):
        parse_agent_spec("x..y")


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
    with pytest.raises(ConfigError):
        ExperimentConfig(estimator="magic")
    with pytest.raises(ConfigError):
        ExperimentConfig(init="random:x")


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
    assert all(t.error_m < 1e-8 for t in result.trials)


def test_run_experiment_structure_and_rmse():
    cfg = _small_cfg()
    result = run_experiment(cfg)
    assert len(result.trials) == 2 * 2 * 2  # topologies x noise x agents
    assert len(result.summaries) == 1
    s = result.summaries[0]
    assert s.m == 2 and s.trials == 4
    assert s.mean_rmse_m > 0 and s.mean_peb_m > 0
    assert "M2_coop_numls" in result.cdfs


def test_run_experiment_reference_costs():
    cfg = _small_cfg(estimator="turbols")
    result = run_experiment(cfg)
    for t in result.trials:
        assert np.isfinite(t.ref_cost)
        assert t.global_min is not None


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
            poses = [[float(r[f"est_{c}"]) for c in columns] for r in trial]
            theta = pack_deployments([Deployment.from_euler(p[:3], p[3:]) for p in poses])
            data = synthesize_measurements(
                topo, coil, gparams, scheme, _trial_seed(cfg.seed, m, t, k, 1)
            )
            recomputed = LsProblem.from_measurements(data, topo.anchors, m, coupling).cost(theta)
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


def test_estimator_dispatch_pairml_and_multilateration():
    for estimator in ("pairml", "multilateration"):
        cfg = _small_cfg(estimator=estimator, topologies=1, noise=1)
        result = run_experiment(cfg)
        assert result.failures == 0
        assert all(np.isfinite(t.error_m) for t in result.trials)
    # multilateration reports no orientation
    assert np.isnan(result.trials[0].est_pose[3:]).all()


def _noncoop_trial(m=3, seed=3):
    from miloc.channel import coupling_coefficient
    from miloc.scenario import sample_topology, synthesize_measurements

    cfg = _small_cfg(agents=str(m))
    coil, gparams = cfg.coil(), cfg.global_params()
    rng = np.random.default_rng(seed)
    topo = sample_topology(m, cfg.room(), cfg.anchors(), cfg.min_distance(), rng)
    ms = synthesize_measurements(topo, coil, gparams, Scheme.NONCOOP, rng)
    coupling = coupling_coefficient(coil, coil, gparams)
    return topo, LsProblem.from_measurements(ms, topo.anchors, m, coupling)


def _solve_one(estimator, problem, room, truth, rng):
    """solve_trials on a stack of one trial."""
    from miloc.harness import solve_trials

    stack = dataclasses.replace(problem, y_imag=problem.y_imag[None])
    return solve_trials(estimator, "perfect", stack, room, np.asarray(truth)[None], [rng])


def _multilaterate_trial(topo, problem):
    truth = pack_deployments(topo.agents)
    return _solve_one("multilateration", problem, topo.room, truth, np.random.default_rng(0))


def test_multilateration_agent_without_usable_links_raises():
    topo, problem = _noncoop_trial()
    problem.y_imag[problem.links[:, 0] == 1] = 0.0
    with pytest.raises(NoMeasurements):
        _multilaterate_trial(topo, problem)


def test_multilateration_zero_link_equals_fix_from_the_others():
    topo, problem = _noncoop_trial()
    rows = problem.anchor_link_rows()
    problem.y_imag[rows[0, 1]] = 0.0
    poses, _, _ = _multilaterate_trial(topo, problem)
    assert np.isnan(poses[0, :, 3:]).all()  # a position-only estimate
    others = [0, 2, 3]
    distances = distance_estimates(
        problem.y_imag[rows[0, others]], problem.anchor_rotations[others], problem.coupling
    )
    alone = multilaterate(problem.anchor_positions[others], distances, topo.room)
    assert np.allclose(poses[0, 0, :3], alone.position, rtol=0.0, atol=1e-12)


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
    assert len(flags) == len(result.trials) == 18
    assert [record.global_min for record in result.trials] == flags


@pytest.mark.slow
def test_median_wall_time_ordering(room):
    # pairML < multilateration < non-cooperative turboLS < cooperative turboLS
    import time

    from miloc.channel import coupling_coefficient
    from miloc.harness import _trial_seed
    from miloc.scenario import sample_topology, synthesize_measurements
    from miloc.estimators import pack_deployments

    cfg = _small_cfg(agents="10", topologies=10, noise=1)
    coil, gparams = cfg.coil(), cfg.global_params()
    anchors = cfg.anchors()
    coupling = coupling_coefficient(coil, coil, gparams)
    times = {k: [] for k in ("pairml", "multilateration", "turbols_noncoop", "turbols_coop")}
    for t in range(10):
        topo = sample_topology(10, cfg.room(), anchors, 0.15, _trial_seed(cfg.seed, 10, t, 0))
        truth = pack_deployments(topo.agents)
        for label, scheme in (
            ("pairml", Scheme.NONCOOP),
            ("multilateration", Scheme.NONCOOP),
            ("turbols_noncoop", Scheme.NONCOOP),
            ("turbols_coop", Scheme.COOP),
        ):
            ms = synthesize_measurements(topo, coil, gparams, scheme, _trial_seed(cfg.seed, 10, t, 1))
            problem = LsProblem.from_measurements(ms, anchors, 10, coupling)
            estimator = label.split("_")[0]
            started = time.perf_counter()
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
    return agent0_bounds(cfg, m, harness.draw_topologies(cfg, m, topologies), cooperative)


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


def test_cooperative_turbols_chunk_takes_one_lm_call(lm_calls):
    # four M=10 estimates and their four perfect-init references
    cfg = _small_cfg(agents="10", topologies=1, noise=4, scheme="coop", estimator="turbols")
    result = run_experiment(cfg)
    assert result.failures == 0 and len(result.trials) == 40
    assert lm_calls == [8]


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


def _calls_of_one_trial(cfg, m):
    """Problems per LM call of one trial solved alone: its estimate, then its reference."""
    if cfg.estimator == "multilateration":
        return [m]  # one range fix per agent
    groups = 1 if cfg.scheme == "coop" and cfg.estimator != "pairml" else m
    restarts = parse_init_strategy(cfg.init)[1] if cfg.estimator == "numls" else 1
    reference = [groups] if harness._needs_reference(cfg.estimator, cfg.init) else []
    return [groups * restarts] + reference


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
    budgets = {  # trials per chunk, links per LM call
        "smallest calls": (1, 0),
        "two trials": (2, estimators._LINKS_PER_LM_CALL),
        "default": (harness._TRIALS_PER_CHUNK, estimators._LINKS_PER_LM_CALL),
    }
    outputs, counts = {}, {}
    for label, (trials, links) in budgets.items():
        monkeypatch.setattr(harness, "_TRIALS_PER_CHUNK", trials)
        monkeypatch.setattr(estimators, "_LINKS_PER_LM_CALL", links)
        lm_calls.clear()
        result = run_experiment(cfg)
        assert result.failures == 0
        outputs[label] = _emitted(result, tmp_path / label.replace(" ", "_"))
        counts[label] = list(lm_calls)
    assert outputs["smallest calls"] == outputs["two trials"] == outputs["default"]
    assert "trials.csv" in outputs["default"] and "summary.csv" in outputs["default"]
    assert f"cdf_M3_{scheme}_{estimator}.csv" in outputs["default"]
    if estimator == "pairml":
        return  # no iterative solve
    # the smallest calls split each trial as it is split when solved alone;
    # otherwise all problems of a chunk share one call
    one_trial = _calls_of_one_trial(cfg, 3)
    assert counts["smallest calls"] == one_trial * 6
    assert counts["two trials"] == [2 * sum(one_trial)] * 3
    assert counts["default"] == [6 * sum(one_trial)]


def _run_with_failing_trial(monkeypatch, cfg, failing):
    """run_experiment in which every stack holding trial failing = (t, k) raises CoincidentNodes."""
    from miloc.channel import CoincidentNodes

    solve = harness.solve_trials

    def raising(estimator, init, problem, room, truths, rngs, with_reference=False):
        if any(tuple(rng.bit_generator.seed_seq.entropy[2:4]) == failing for rng in rngs):
            raise CoincidentNodes("forced")
        return solve(estimator, init, problem, room, truths, rngs, with_reference)

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
    default = _run_with_failing_trial(monkeypatch, cfg, (1, 0))
    monkeypatch.setattr(harness, "_TRIALS_PER_CHUNK", 1)
    alone = _run_with_failing_trial(monkeypatch, cfg, (1, 0))
    for result in (default, alone):
        assert result.failures == 1
        assert result.failures_by_kind == {"CoincidentNodes": 1}
        assert len(result.trials) == 5 * 3
        assert (1, 0) not in {(tr.topology_id, tr.noise_id) for tr in result.trials}
    assert _emitted(default, tmp_path / "default") == _emitted(alone, tmp_path / "alone")


def test_agent_without_anchor_links_fails_only_its_trial(tmp_path, monkeypatch):
    # a real NoMeasurements from the batched pair-ML pass of a chunk
    original = harness.synthesize_measurements

    def silent_agent(topology, coil, params, scheme, rng, sigma=None):
        measured = original(topology, coil, params, scheme, rng, sigma)
        if tuple(rng.bit_generator.seed_seq.entropy[2:4]) == (0, 1):
            measured.h_meas[measured.links[:, 0] == 2] = 0.0
        return measured

    monkeypatch.setattr(harness, "synthesize_measurements", silent_agent)
    cfg = _small_cfg(agents="3", topologies=2, noise=2, scheme="noncoop", estimator="pairml")
    result = run_experiment(cfg)
    assert result.failures == 1
    assert result.failures_by_kind == {"NoMeasurements": 1}
    assert [(tr.topology_id, tr.noise_id) for tr in result.trials[::3]] == [(0, 0), (1, 0), (1, 1)]


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
