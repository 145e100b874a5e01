"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Desk scale throughout: topology/noise counts are chosen so the whole module
finishes in minutes while keeping the Monte-Carlo error well inside the
tolerances.  All runs are seeded and deterministic.
"""

import dataclasses

import numpy as np
import pytest

from miloc import crlb
from miloc.channel import channel_matrix, coupling_coefficient
from miloc.config import ExperimentConfig
from miloc.estimators import estimate, pairml_initialization
from miloc.geometry import Deployment
from miloc.harness import (
    calibrate_resistance,
    emit_outputs,
    gains_experiment,
    mean_peb_curve,
    run_experiment,
)
from miloc.scenario import Scheme, network_problem, sample_topology, synthesize_measurements

from oracles import (
    decompose_link, deployment_from_euler, peb_all, residual_and_jacobian, split_poses,
)

pytestmark = pytest.mark.acceptance

REFERENCE_MEAN_PEB_MM = {
    1: 2.18627459283404,
    2: 1.87682145847361,
    3: 1.63302904392104,
    4: 1.41731290160644,
    5: 1.25907761606583,
    6: 1.11624135224503,
    7: 1.01375733242998,
    8: 0.928937128504422,
    9: 0.829387886520207,
    10: 0.772151148042094,
}

CAL_SEED = 20_240_101
VERIFY_SEED = 20_240_202


def _report(criterion: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:02d}] {verdict}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def calibration():
    # the single-topology bound has a relative spread of ~0.74, so the
    # calibration stream is sized to pin the mean to about 1%
    cfg = ExperimentConfig(seed=CAL_SEED)
    return calibrate_resistance(cfg, topologies=6000)


@pytest.fixture(scope="module")
def calibrated(calibration):
    """Calibrated configuration rebased onto the acceptance seed."""
    return calibration.config


def test_criterion_01_resistance_calibration(calibration, tmp_path):
    # verify the calibrated resistance on an independent topology stream
    cfg = calibration.config.override(seed=VERIFY_SEED)
    rows = mean_peb_curve(cfg, agent_counts=[1], topologies=6000, scheme=Scheme.NONCOOP)
    achieved = rows[0][1]
    target = calibration.target_peb_m
    deviation = abs(achieved - target) / target
    # the calibrated resistance is recorded in the emitted config echo
    result = run_experiment(
        cfg.override(agents="1", topologies=1, noise=1, scheme="noncoop", init="perfect")
    )
    emit_outputs(result, tmp_path)
    echo = (tmp_path / "config.echo").read_text()
    recorded = f"resistance_ohm = {calibration.resistance_ohm:.12g}"
    _report(
        1,
        deviation <= 0.05 and recorded in echo,
        f"calibrated R = {calibration.resistance_ohm:.4f} ohm; independent-stream mean "
        f"non-coop PEB(M=1) = {achieved * 1e3:.4f} mm vs target {target * 1e3:.4f} mm "
        f"({deviation * 100:.2f}% <= 5%); config.echo records the calibrated value",
    )


@pytest.fixture(scope="module")
def coop_peb_sweep(calibrated):
    cfg = calibrated.override(seed=VERIFY_SEED)
    return mean_peb_curve(
        cfg, agent_counts=list(range(1, 11)), topologies=400, scheme=Scheme.COOP
    )


def test_criterion_02_cooperation_gain(calibrated, coop_peb_sweep):
    cfg = calibrated.override(seed=VERIFY_SEED)
    noncoop = mean_peb_curve(cfg, agent_counts=[10], topologies=400, scheme=Scheme.NONCOOP)
    coop10 = dict((m, v) for m, v, _ in coop_peb_sweep)[10]
    ratio = noncoop[0][1] / coop10
    _report(
        2,
        2.5 <= ratio <= 3.2,
        f"non-coop/coop mean PEB at M=10: {noncoop[0][1] * 1e3:.4f} / {coop10 * 1e3:.4f} mm "
        f"= {ratio:.3f} (required within [2.5, 3.2]; reference 2.83)",
    )


def test_criterion_03_coop_peb_monotone_and_m5(coop_peb_sweep):
    values = [v for _, v, _ in coop_peb_sweep]
    monotone = all(b < a for a, b in zip(values, values[1:]))
    m5 = values[4]
    reference = REFERENCE_MEAN_PEB_MM[5] * 1e-3
    deviation = abs(m5 - reference) / reference
    _report(
        3,
        monotone and deviation <= 0.10,
        f"coop mean PEB strictly decreasing over M=1..10 ({monotone}); "
        f"M=5 value {m5 * 1e3:.4f} mm vs reference 1.2591 mm ({deviation * 100:.2f}% <= 10%)",
    )


@pytest.fixture(scope="module")
def efficiency_runs(calibrated):
    results = {}
    for scheme in ("coop", "noncoop"):
        for m in (1, 5, 10):
            cfg = calibrated.override(
                agents=str(m),
                scheme=scheme,
                estimator="numls",
                init="perfect",
                topologies=100,
                noise=20,
                seed=VERIFY_SEED,
            )
            results[(scheme, m)] = run_experiment(cfg).summaries[0]
    return results


def test_criterion_04_perfect_init_efficiency(efficiency_runs):
    details = []
    ok = True
    for (scheme, m), summary in efficiency_runs.items():
        ratio = summary.mean_rmse_m / summary.mean_peb_m
        ok &= 0.97 <= ratio <= 1.05
        details.append(f"{scheme} M={m}: {ratio:.4f}")
    _report(4, ok, "RMSE/PEB within [0.97, 1.05] -- " + "; ".join(details))


@pytest.fixture(scope="module")
def turbols_run(calibrated):
    cfg = calibrated.override(
        agents="10",
        scheme="coop",
        estimator="turbols",
        topologies=50,
        noise=20,
        seed=VERIFY_SEED,
    )
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def perfect_run_m10(calibrated):
    cfg = calibrated.override(
        agents="10",
        scheme="coop",
        estimator="numls",
        init="perfect",
        topologies=50,
        noise=20,
        seed=VERIFY_SEED,
    )
    return run_experiment(cfg)


def test_criterion_05_turbols_robustness(turbols_run, perfect_run_m10):
    [turbols] = turbols_run.trials
    n_trials = len(turbols.global_min)
    dominated = int(turbols.global_min[:, 0].sum())
    turbo_median = np.median(turbols.error_m[:, 0])
    perfect_median = np.median(perfect_run_m10.trials[0].error_m[:, 0])
    median_gap = abs(turbo_median / perfect_median - 1.0)
    _report(
        5,
        n_trials >= 1000 and dominated == n_trials and median_gap <= 0.02,
        f"turboLS cost <= perfect-init cost + 1e-12 in {dominated}/{n_trials} trials; "
        f"median error {turbo_median * 1e3:.4f} vs {perfect_median * 1e3:.4f} mm "
        f"({median_gap * 100:.3f}% <= 2%)",
    )


def test_criterion_06_random_init_failure_rates(calibrated):
    base = calibrated.override(
        agents="10", scheme="noncoop", estimator="numls", topologies=75, noise=4,
        seed=VERIFY_SEED,
    )
    single = run_experiment(base.override(init="random:1"))
    success = np.mean(single.trials[0].global_min[:, 0])
    five = run_experiment(base.override(init="random:5"))
    outlier = five.summaries[0].outlier_frac
    _report(
        6,
        0.30 <= success <= 0.50 and 0.05 <= outlier <= 0.18,
        f"random:1 global-minimum success {success:.3f} (required [0.30, 0.50], reference 0.4); "
        f"random:5 outlier fraction {outlier:.3f} (required [0.05, 0.18], reference 0.1)",
    )


def test_criterion_07_estimator_ordering(calibrated, turbols_run):
    medians = {}
    for estimator in ("multilateration", "pairml"):
        cfg = calibrated.override(
            agents="10",
            scheme="coop",
            estimator=estimator,
            topologies=50,
            noise=20,
            seed=VERIFY_SEED,
        )
        result = run_experiment(cfg)
        medians[estimator] = np.median(result.trials[0].error_m[:, 0])
    medians["turbols"] = np.median(turbols_run.trials[0].error_m[:, 0])
    ok = medians["multilateration"] > medians["pairml"] > medians["turbols"]
    _report(
        7,
        ok,
        "median instantaneous error multilateration > pairML > turboLS(coop): "
        + ", ".join(f"{k}={v * 1e3:.3f} mm" for k, v in medians.items()),
    )


def test_criterion_08_channel_gain_statistics(calibrated):
    cfg = calibrated.override(agents="10", topologies=100, seed=VERIFY_SEED)
    stats = gains_experiment(cfg)
    fraction = stats["fraction_below_sigma"]
    median_gap = stats["median_agent_agent_db"] - stats["median_agent_anchor_db"]
    _report(
        8,
        0.02 <= fraction <= 0.08 and median_gap > 0,
        f"{fraction * 100:.2f}% of gains below -100 dB (required [2%, 8%], reference ~4%); "
        f"median agent-agent exceeds agent-anchor by {median_gap:.2f} dB",
    )


def test_criterion_09_property_suite(calibrated):
    cfg = calibrated
    room = cfg.room()
    anchors = cfg.anchors()
    coil = cfg.coil()
    gparams = cfg.global_params()
    coupling = coupling_coefficient(coil, coil, gparams)
    checks = []

    # noiseless exact recovery: pairML and perfectly initialized LS
    rng = np.random.default_rng(100)
    topo = sample_topology(4, room, anchors, cfg.min_distance(), rng)
    noiseless = dataclasses.replace(gparams, noise_sigma=0.0)
    ms = synthesize_measurements(topo, coil, noiseless, Scheme.COOP, rng)
    problem = network_problem(4, anchors, coupling, Scheme.COOP)
    problem = dataclasses.replace(problem, y_imag=np.imag(ms.h_meas))
    truth = topo.pose_row
    [solve] = estimate(problem, ["perfect"], truth=truth)
    ls_positions = split_poses(solve.estimate[0])[0]
    pm_positions = split_poses(pairml_initialization(problem, room))[0]
    ls_err = np.linalg.norm(ls_positions - topo.positions, axis=-1).max()
    pm_err = np.linalg.norm(pm_positions - topo.positions, axis=-1).max()
    checks.append(("noiseless recovery < 1e-8 m", ls_err < 1e-8 and pm_err < 1e-8))

    # analytic Jacobian versus central finite differences
    rng = np.random.default_rng(101)
    n_parameters = 6 * problem.n_agents
    theta = problem.retract(truth, rng.normal(0, 0.02, n_parameters))
    _, jac = residual_and_jacobian(problem, theta)
    h = 1e-7
    worst = 0.0
    for k in range(n_parameters):
        step = np.zeros(n_parameters)
        step[k] = h
        plus, minus = problem.retract(theta, step), problem.retract(theta, -step)
        fd = (problem.residual(plus) - problem.residual(minus)) / (2 * h)
        worst = max(worst, np.abs(fd - jac[:, k]).max() / max(np.abs(fd).max(), 1e-30))
    checks.append(("Jacobian vs finite differences < 1e-5", worst < 1e-5))

    # information matrix vs Monte-Carlo log-likelihood curvature (M=1):
    # the log-likelihood is quadratic in the noise, so averaging the
    # finite-difference Hessian over draws equals differencing the
    # draw-averaged log-likelihood.
    rng = np.random.default_rng(102)
    topo1 = sample_topology(1, room, anchors, cfg.min_distance(), rng)
    agent = topo1.agents[0]
    sigma = gparams.noise_sigma
    info1 = crlb.assemble_fim(topo1.agents, anchors, coupling, sigma, cooperative=False)
    n_draws = 10_000
    mean_meas = []
    for anchor in anchors:
        h0 = channel_matrix(agent, anchor, coupling)
        noise = (
            rng.standard_normal((n_draws, 3, 3)) + 1j * rng.standard_normal((n_draws, 3, 3))
        ) * (sigma / np.sqrt(2.0))
        mean_meas.append(h0 + noise.mean(axis=0))

    def log_lhf(psi):
        dep = deployment_from_euler(psi[:3], psi[3:])
        total = 0.0
        for h_meas, anchor in zip(mean_meas, anchors):
            diff = h_meas - channel_matrix(dep, anchor, coupling)
            total += float(np.sum(np.abs(diff) ** 2))
        return -total / sigma**2

    psi0 = agent.as_vector()
    fd_h = 1e-4
    hessian = np.empty((6, 6))
    for i in range(6):
        for j in range(i, 6):
            ei = np.zeros(6)
            ej = np.zeros(6)
            ei[i] = fd_h
            ej[j] = fd_h
            hessian[i, j] = hessian[j, i] = (
                log_lhf(psi0 + ei + ej)
                - log_lhf(psi0 + ei - ej)
                - log_lhf(psi0 - ei + ej)
                + log_lhf(psi0 - ei - ej)
            ) / (4 * fd_h * fd_h)
    dominant = np.abs(info1.matrix) > 0.05 * np.abs(info1.matrix).max()
    curvature_err = (
        np.abs(-hessian - info1.matrix)[dominant] / np.abs(info1.matrix)[dominant]
    ).max()
    checks.append(("FIM vs MC curvature < 3% (dominant entries)", curvature_err < 0.03))

    # orientation estimate is always a proper rotation
    rng = np.random.default_rng(103)
    anchor = Deployment.identity(np.zeros(3))
    proper = True
    for _ in range(200):
        h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        _, o_hat, _ = decompose_link(h, anchor)
        proper &= np.abs(o_hat.T @ o_hat - np.eye(3)).max() < 1e-12
        proper &= abs(np.linalg.det(o_hat) - 1.0) < 1e-12
    checks.append(("orientation estimates proper rotations", proper))

    # information matrices symmetric PSD; cooperation never hurts
    rng = np.random.default_rng(104)
    sym_psd = True
    mono = True
    for _ in range(50):
        topo_r = sample_topology(5, room, anchors, cfg.min_distance(), rng)
        coop = crlb.assemble_fim(topo_r.agents, anchors, coupling, sigma, True)
        noncoop = crlb.assemble_fim(topo_r.agents, anchors, coupling, sigma, False)
        sym_psd &= np.allclose(coop.matrix, coop.matrix.T, rtol=1e-10)
        eigvals = np.linalg.eigvalsh(coop.matrix)
        sym_psd &= eigvals.min() >= -1e-10 * abs(eigvals.max())
        mono &= np.all(peb_all(coop) <= peb_all(noncoop) + 1e-12)
    checks.append(("FIM symmetric PSD", sym_psd))
    checks.append(("coop PEB <= non-coop PEB per topology", mono))

    # non-cooperative accuracy flat in the number of agents
    flat_cfg = cfg.override(
        scheme="noncoop", estimator="numls", init="perfect", topologies=60, noise=10,
        seed=VERIFY_SEED,
    )
    rmse = {}
    for m in (1, 10):
        res = run_experiment(flat_cfg.override(agents=str(m)))
        rmse[m] = res.summaries[0].mean_rmse_m
    flat = abs(rmse[10] / rmse[1] - 1.0) < 0.15
    checks.append((f"non-coop RMSE flat in M ({rmse[1]*1e3:.3f} vs {rmse[10]*1e3:.3f} mm)", flat))

    ok = all(passed for _, passed in checks)
    _report(
        9,
        ok,
        "; ".join(f"{name}: {'ok' if passed else 'FAILED'}" for name, passed in checks),
    )


def test_criterion_10_determinism(calibrated, tmp_path):
    cfg = calibrated.override(
        agents="3", topologies=3, noise=3, estimator="turbols", scheme="coop",
        seed=VERIFY_SEED,
    )
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    for d in dirs:
        emit_outputs(run_experiment(cfg), d)
    names = ["trials.csv", "summary.csv", "cdf_M3_coop_turbols.csv", "config.echo"]
    identical = all(
        (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes() for name in names
    )
    _report(
        10,
        identical,
        f"reran identical config+seed: {', '.join(names)} byte-identical",
    )
