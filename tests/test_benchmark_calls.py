"""Every call the benchmark (perfbench/) makes into miloc, on tiny inputs.

perfbench/workloads.py drives miloc through the names below, and the
observers of perfbench/layers.py read the attributes below from traced
results.  perfbench's own tests take minutes, so this module makes each of
those calls once, cheaply, to catch a change that would break a benchmark
run.
"""

from pathlib import Path

import numpy as np
import pytest

from miloc import channel, cli, config, crlb, estimators, harness, scenario
from miloc.estimators import LsProblem, pack_deployments

# the calibrated resistance the benchmark writes into its configuration file
BENCH_CONFIG = "resistance_ohm = 0.055148806366607225\n"


@pytest.fixture
def bench(tmp_path):
    """The benchmark's configuration file and configuration."""
    path = tmp_path / "bench.cfg"
    path.write_text(BENCH_CONFIG)
    return path, config.ExperimentConfig.from_file(path)


def _topology(cfg, seed, m, t):
    rng = np.random.default_rng(np.random.SeedSequence([seed, m, t, 0]))
    return scenario.sample_topology(m, cfg.room(), cfg.anchors(), cfg.min_distance(), rng)


def test_set_up_topologies_bounds_and_measurements(bench):
    _, cfg = bench
    coupling = channel.coupling_coefficient(cfg.coil(), cfg.coil(), cfg.global_params())
    topo = _topology(cfg, 3, 2, 0)
    for agent in topo.agents:
        assert np.array_equal(agent.as_vector(), np.hstack([agent.position, agent.euler]))
    info = crlb.assemble_fim(topo.agents, topo.anchors, coupling, cfg.sigma, True)
    assert info.n_agents == 2  # read by the crlb.peb observer
    assert 0.0 < crlb.peb(info, 0) < np.inf
    gain = channel.channel_matrix(topo.agents[0], topo.anchors[0], coupling)
    assert gain.shape == (3, 3)
    noise = np.random.default_rng(np.random.SeedSequence([3, 2, 0, 0, 1]))
    data = scenario.synthesize_measurements(
        topo, cfg.coil(), cfg.global_params(), scenario.Scheme("coop"), noise
    )
    records = list(data.measurements)
    assert len(records) == len(data.links)
    assert {(m.tx, m.rx) for m in records} == {tuple(link) for link in data.links.tolist()}
    assert all(m.h_meas.shape == (3, 3) for m in records)


def test_observed_results(bench):
    _, cfg = bench
    coupling = channel.coupling_coefficient(cfg.coil(), cfg.coil(), cfg.global_params())
    topo = _topology(cfg, 4, 2, 0)
    tx, rx = topo.agents[:1] * 4, topo.anchors
    result = channel.channel_gain_batch(
        np.array([d.position for d in tx]), np.array([d.rotation for d in tx]),
        np.array([d.position for d in rx]), np.array([d.rotation for d in rx]), coupling,
    )
    assert len(result[1]) == 4
    gains, r, u, f = result
    o_tx, o_rx = np.array([d.rotation for d in tx]), np.array([d.rotation for d in rx])
    assert len(channel.channel_derivative_columns(r, u, f, gains, o_tx, o_rx, coupling)) == 4
    data = scenario.synthesize_measurements(
        topo, cfg.coil(), cfg.global_params(), scenario.Scheme.COOP, np.random.default_rng(5)
    )
    problem = LsProblem.from_measurements(data, topo.anchors, 2, coupling)
    solve = estimators.levenberg_marquardt(problem, pack_deployments(topo.agents))
    assert isinstance(solve.iterations, int) and solve.iterations >= 1


def test_calibration_and_bound_curve():
    cal = harness.calibrate_resistance(config.ExperimentConfig(seed=6), topologies=3)
    assert cal.base_peb_m > 0.0 and cal.base_resistance_ohm == 1.0
    rescaled = harness.mean_peb_curve(
        cal.config, agent_counts=[1], topologies=3, scheme=scenario.Scheme.NONCOOP
    )[0][1]
    ratio = cal.resistance_ohm / cal.base_resistance_ohm
    assert np.isclose(rescaled, cal.base_peb_m * ratio, rtol=1e-9)


def _run_cli(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def _rows(path: Path):
    header, *lines = path.read_text().splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


def test_cli_calls_and_the_columns_read(bench, tmp_path, capsys):
    path, _ = bench
    common = ["--config", str(path), "--topologies", "1", "--seed", "7"]
    code, _ = _run_cli(
        ["peb", *common, "--agents", "1..2", "--scheme", "coop", "--out", str(tmp_path / "peb")],
        capsys,
    )
    assert code == 0
    assert [row["M"] for row in _rows(tmp_path / "peb" / "peb.csv")] == ["1", "2"]
    for name, extra in (
        ("turbols", ["--estimator", "turbols", "--scheme", "coop"]),
        ("random", ["--estimator", "numls", "--scheme", "noncoop", "--init", "random:2"]),
    ):
        out = tmp_path / name
        code, stdout = _run_cli(
            ["simulate", *common, *extra, "--agents", "2", "--noise", "2", "--out", str(out)],
            capsys,
        )
        assert code == 0 and "failed" not in stdout
        rows = _rows(out / "trials.csv")
        assert len(rows) == 4
        columns = ["topology", "noise", "agent", "error_m", "final_cost", "ref_cost", "global_min"]
        columns += [f"{kind}_{k}" for kind in ("true", "est") for k in ("x", "y", "z", "alpha", "beta", "gamma")]
        assert all(row[c] != "" for row in rows for c in columns)
        summary = _rows(out / "summary.csv")[0]
        assert float(summary["mean_peb_m"]) > 0.0 and summary["outlier_frac"] != ""


def test_emitters_return_the_written_paths(bench, tmp_path):
    _, cfg = bench
    small = cfg.override(agents="2", topologies=1, noise=1, seed=8)
    written = harness.emit_outputs(harness.run_experiment(small), tmp_path / "sim")
    written += harness.emit_peb_curve(
        harness.mean_peb_curve(small), small, scenario.Scheme.COOP, tmp_path / "peb"
    )
    written += harness.emit_gains(harness.gains_experiment(small), small, tmp_path / "gains")
    names = {p.name for p in written}
    assert {"trials.csv", "timings.csv", "peb.csv", "gains_summary.csv"} <= names
    assert all(p.stat().st_size > 0 for p in written)
