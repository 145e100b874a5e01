"""Fast tests of the benchmark itself.

Each workload runs one round at a tiny size and must pass its checks; then
its outputs are corrupted one way at a time and the matching check must
fail, so that no check is vacuous.  Run with

    python3 -m pytest perfbench/tests -q
"""

import copy
import dataclasses
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import checks
import layers
import speed
import tracing
import workloads
import worker

BENCH = Path(__file__).resolve().parents[1]
STATISTICAL = {"cooperation_gain_m10", "outlier_fraction"}
SIMULATE = ("coop_turbols_m10", "noncoop_random5_m10")


def _failing(found):
    return {c.name.split("[")[0] for c in found if not c.ok}


def _run_tiny(workload, tmp_path, seed=5):
    """Two passes of one round each, as a run makes them."""
    mi, config_path = worker.set_up(tmp_path)
    ctx = workloads.Context(miloc=mi, config_path=config_path, out=tmp_path, seed=seed)
    for _ in range(2):
        assert workload.run_round(ctx, 0, time.perf_counter).failed == 0
    return ctx


def _tiny(name):
    if name == "peb_sweep":
        return workloads.PebSweep(
            cal_topologies=6, topologies=3, max_agents=3, rounds_per_pass=1,
            oracle_topologies=1, ratio_topologies=5,
        )
    return dataclasses.replace(
        workloads.make(name), agents=3, topologies=1, noise=2, rounds_per_pass=1,
        state=workloads.Repeated(),
    )


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    runs = {}
    for name in workloads.WORKLOADS:
        workload = _tiny(name)
        ctx = _run_tiny(workload, tmp_path_factory.mktemp(name))
        runs[name] = (workload, ctx)
    return runs


def _copy(workload):
    return dataclasses.replace(workload, state=copy.deepcopy(workload.state))


def _recheck(tiny_runs, name, corrupt):
    workload, ctx = tiny_runs[name]
    copied = _copy(workload)
    corrupt(copied.rounds[0])
    return _failing(copied.checks(ctx))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_workload_passes_its_checks(tiny_runs, name):
    workload, ctx = tiny_runs[name]
    found = workload.checks(ctx)
    assert len(found) >= 4
    assert _failing(found) - STATISTICAL == set(), [c for c in found if not c.ok]


def _recheck_patched(tiny_runs, monkeypatch, name, attribute, replacement):
    """The checks of a run, with a miloc crlb function replaced while they run."""
    workload, ctx = tiny_runs[name]
    crlb = ctx.miloc.crlb
    monkeypatch.setattr(crlb, attribute, replacement(getattr(crlb, attribute)))
    return _failing(_copy(workload).checks(ctx))


def test_perturbed_peb_fails_oracle(tiny_runs, monkeypatch):
    def perturbed(peb):
        return lambda info, agent: peb(info, agent) * (1.0 + 1e-4)

    found = _recheck_patched(tiny_runs, monkeypatch, "peb_sweep", "peb", perturbed)
    assert {"peb_oracle", "written_means"} <= found


def test_perturbed_written_mean_fails(tiny_runs):
    def corrupt(rnd):
        rnd.coop_written[2] *= 1.0 + 1e-4

    assert "written_means" in _recheck(tiny_runs, "peb_sweep", corrupt)


def test_coop_above_noncoop_fails(tiny_runs, monkeypatch):
    def weakened(assemble_fim):
        # cooperative links that lose information instead of adding it
        def assemble(agents, anchors, coupling, sigma, cooperative):
            scale = 0.1 if cooperative else 1.0
            return assemble_fim(agents, anchors, coupling * scale, sigma, cooperative)

        return assemble

    found = _recheck_patched(tiny_runs, monkeypatch, "peb_sweep", "assemble_fim", weakened)
    assert "coop_peb_le_noncoop" in found


def test_nonlinear_resistance_scaling_fails(tiny_runs):
    def corrupt(rnd):
        rnd.calibration = dataclasses.replace(
            rnd.calibration, resistance_ohm=rnd.calibration.resistance_ohm * 1.001
        )

    assert "peb_linear_in_resistance" in _recheck(tiny_runs, "peb_sweep", corrupt)


@pytest.mark.parametrize("name", SIMULATE)
def test_shifted_estimate_fails(tiny_runs, name):
    def corrupt(rnd):
        rnd.table[0, rnd.columns["est_x"]] += 1e-3

    assert {"error_m_consistent", "final_cost"} <= _recheck(tiny_runs, name, corrupt)


@pytest.mark.parametrize("name", SIMULATE)
def test_raised_ref_cost_fails(tiny_runs, name):
    def corrupt(rnd):
        rnd.table[:, rnd.columns["ref_cost"]] *= 1.0 + 1e-5

    assert "ref_cost_minimum" in _recheck(tiny_runs, name, corrupt)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_changed_bytes_fail(tiny_runs, name):
    workload, ctx = tiny_runs[name]
    copied = _copy(workload)
    copied.state.digests[0] = copied.state.digests[0].replace(b"1", b"2", 1)
    copied.run_round(ctx, 0, time.perf_counter)
    assert "deterministic" in _failing(copied.checks(ctx))


@pytest.mark.parametrize("name", SIMULATE)
def test_missing_row_fails(tiny_runs, name):
    def corrupt(rnd):
        rnd.table = rnd.table[:-1]

    assert "row_count" in _recheck(tiny_runs, name, corrupt)


@pytest.mark.parametrize("name", SIMULATE)
def test_perturbed_written_peb_fails(tiny_runs, name):
    def corrupt(rnd):
        rnd.summary["mean_peb_m"] *= 1.0 + 1e-4

    assert "peb_oracle" in _recheck(tiny_runs, name, corrupt)


def test_flipped_global_min_fails(tiny_runs):
    def corrupt(rnd):
        rnd.table[1, rnd.columns["global_min"]] = 0.0

    assert "turbols_global_min" in _recheck(tiny_runs, "coop_turbols_m10", corrupt)


def test_perturbed_written_outlier_frac_fails(tiny_runs):
    def corrupt(rnd):
        rnd.summary["outlier_frac"] += 0.5

    assert "written_outlier_frac" in _recheck(tiny_runs, "noncoop_random5_m10", corrupt)


def test_estimates_far_off_fail_outlier_fraction(tiny_runs):
    def corrupt(rnd):
        rnd.table[:, rnd.columns["error_m"]] += 1.0

    assert "outlier_fraction" in _recheck(tiny_runs, "noncoop_random5_m10", corrupt)


def test_outlier_fraction_interval():
    assert checks.outlier_fraction([True] * 10 + [False] * 90).ok
    assert checks.outlier_fraction([False] * 400).ok is False
    assert checks.outlier_fraction([True] * 120 + [False] * 280).ok is False


def test_cooperation_gain_interval():
    rng = np.random.default_rng(0)
    coop = rng.uniform(0.5, 1.5, 400)
    assert checks.cooperation_gain(coop, 2.85 * coop * rng.uniform(0.9, 1.1, 400)).ok
    assert not checks.cooperation_gain(coop, 2.0 * coop).ok
    assert not checks.cooperation_gain(coop, 4.0 * coop).ok


def test_setup_probes_spread_over_the_run():
    class Sleeper:
        rounds_per_pass = 1

        def run_round(self, ctx, index, clock):
            time.sleep(0.02)
            return workloads.RoundResult(1, 0, 0.02, 0.0)

    started = time.perf_counter()
    probed_at = []

    def probe():
        probed_at.append(time.perf_counter() - started)
        return 0.1

    passes, _, probed = worker.run_passes(
        Sleeper(), None, 0.4, probe=probe, probes=4, reference=lambda: 1.0
    )
    assert probed == [0.1] * 4
    assert len(passes) >= 10
    assert probed_at[0] < 0.2 < probed_at[-1]


def test_cpu_rate_leaves_out_machine_speed():
    def passes(slowdown, cpu_s):
        rnd = workloads.RoundResult(10, 0, 1.0, cpu_s * slowdown, speed.REFERENCE_S * slowdown)
        return [[rnd, rnd], [rnd, rnd]]

    usual = worker.trials_per_cpu_second(passes(1.0, 2.0))
    assert usual == pytest.approx(5.0)
    assert worker.trials_per_cpu_second(passes(1.3, 2.0)) == pytest.approx(usual)
    assert worker.trials_per_cpu_second(passes(1.3, 2.2)) == pytest.approx(usual / 1.1)


def test_self_time_excludes_children():
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("m.inner", lambda: None)
    outer = tracer.wrap("m.outer", lambda: inner())
    outer()
    trace = tracer.take_round()
    assert trace.self_s == {"m.outer": 8.0, "m.inner": 2.0}
    assert trace.child_calls[("m.outer", "m.inner")] == 1
    assert tracer.spans == []


def test_install_covers_from_imports_and_undoes(tmp_path):
    worker.set_up(tmp_path)
    from miloc import harness, scenario

    original = scenario.sample_topology
    undo = tracing.install(tracing.Tracer(), layers.OBSERVERS)
    try:
        assert harness.sample_topology is scenario.sample_topology is not original
        assert harness.sample_topology.__wrapped__ is original
    finally:
        tracing.uninstall(undo)
    assert harness.sample_topology is scenario.sample_topology is original


def test_traced_counts_repeat(tmp_path):
    counts = []
    for attempt in range(2):
        workload = _tiny("coop_turbols_m10")
        mi, config_path = worker.set_up(tmp_path / str(attempt))
        ctx = workloads.Context(mi, config_path, tmp_path / str(attempt), seed=9)
        tracer = tracing.Tracer()
        undo = tracing.install(tracer, layers.OBSERVERS)
        try:
            workload.run_round(ctx, 0, time.perf_counter)
        finally:
            tracing.uninstall(undo)
        figures = layers.layer_metrics([layers.round_figures(tracer.take_round())], [])
        counts.append({k: v["value"] for k, v in figures.items() if v["unit"] != "s" and "_ms" not in k})
    differing = {k: (v, counts[1][k]) for k, v in counts[0].items() if counts[1][k] != v}
    assert differing == {}
    assert counts[0]["estimators.LsProblem.residual_and_jacobian.calls"] > 0


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "peb_sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
