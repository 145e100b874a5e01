"""Monte-Carlo experiment driver, metrics and CSV emission.

Seeds are derived per (agent count, topology, noise draw) through
numpy SeedSequence, so runs are reproducible bit for bit and trials are
independent.  Per-trial wall times go to a separate timings file because the
data outputs are required to be byte-identical across reruns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import crlb, estimators, pairml
from .channel import CoincidentNodes, coupling_coefficient
from .config import ExperimentConfig
from .estimators import LsProblem, SolveReport
from .geometry import Room, euler_to_rotation, rotation_to_euler
from .scenario import (
    Scheme,
    link_set,
    sample_topology,
    synthesize_measurements,
    channel_gain_samples,
)

GLOBAL_MIN_COST_SLACK = 1e-12
OUTLIER_PEB_FACTOR = 10.0
# Failures a trial can meet by design: no usable anchor link for the
# closed-form estimators, an iterate that lands on another node, and a
# linear-algebra routine that does not converge.  Anything else is a bug.
TRIAL_FAILURES = (pairml.NoMeasurements, CoincidentNodes, np.linalg.LinAlgError)

# Reference mean position error bound of the single-agent non-cooperative
# setup, used as the calibration target for the coil resistance.
REFERENCE_PEB_M1_M = 2.18627459283404e-3

# Links per stacked bound assembly: a sweep's memory stays bounded whatever
# its number of topologies.
_LINKS_PER_CALL = 256


class EmptyInput(ValueError):
    """CDF of an empty sample is undefined."""


@dataclass
class TrialRecord:
    """One estimated agent in one (topology, noise) trial."""

    m: int
    scheme: str
    estimator: str
    topology_id: int
    noise_id: int
    agent: int
    true_pose: np.ndarray  # (6,)
    est_pose: np.ndarray  # (6,), orientation nan for position-only estimators
    error_m: float
    final_cost: float
    ref_cost: float  # perfect-init reference cost; nan when not computed
    global_min: Optional[bool]
    converged: bool
    iterations: int
    wall_time_s: float


@dataclass
class SummaryRecord:
    m: int
    scheme: str
    estimator: str
    mean_rmse_m: float
    mean_peb_m: float
    outlier_frac: float
    trials: int


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    trials: List[TrialRecord]
    summaries: List[SummaryRecord]
    cdfs: Dict[str, np.ndarray]
    failures: int = 0
    singular_bounds: int = 0  # topologies left out of mean_peb_m


def compute_cdf(errors: Sequence[float]) -> np.ndarray:
    """Empirical CDF: sorted (value, fraction) pairs, fractions in (0, 1]."""
    values = np.sort(np.asarray(errors, dtype=float))
    if values.size == 0:
        raise EmptyInput("cannot build a CDF from an empty sample")
    fractions = np.arange(1, values.size + 1) / values.size
    return np.column_stack([values, fractions])


def _trial_seed(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def run_trial_estimator(
    estimator: str,
    init: str,
    problem: LsProblem,
    room: Room,
    truth: np.ndarray,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, SolveReport, bool]:
    """Dispatch one estimator run.

    Returns:
        (poses, report, orientation_valid): poses is the (M, 6) estimate
        matrix; orientation_valid is False for position-only estimators.
    """
    if estimator == "numls":
        report = estimators.estimate(problem, init, room=room, truth=truth, rng=rng)
        return report.estimate.reshape(-1, 6), report, True
    if estimator == "turbols":
        report = estimators.estimate(problem, "pairml", room=room)
        return report.estimate.reshape(-1, 6), report, True
    if estimator == "pairml":
        theta = estimators.pairml_initialization(problem, room)
        report = SolveReport(
            estimate=theta,
            final_cost=problem.cost(theta),
            iterations=0,
            converged=True,
        )
        return theta.reshape(-1, 6), report, True
    if estimator == "multilateration":
        rows = problem.anchor_link_rows()
        anchors = problem.links[rows, 1] - problem.n_agents
        distances = pairml.distance_estimates(
            problem.y_imag[rows], problem.anchor_rotations[anchors], problem.coupling
        )
        fix = estimators.multilaterate(problem.anchor_positions[anchors], distances, room)
        theta = np.hstack([fix.position, np.full((problem.n_agents, 3), np.nan)]).reshape(-1)
        report = SolveReport(
            estimate=theta, final_cost=np.nan, iterations=0, converged=fix.report.converged
        )
        return theta.reshape(-1, 6), report, False
    raise ValueError(f"unknown estimator {estimator!r}")


def agent0_bounds(
    cfg: ExperimentConfig, m: int, topologies: int, cooperative: bool
) -> np.ndarray:
    """Agent 0's position error bound on each of the first topologies of count m.

    Topology t is drawn from its own seed-derived stream, as in
    run_experiment; the information matrices of many topologies are
    assembled and solved in stacked calls of at most _LINKS_PER_CALL links.
    Returns a (topologies,) array, NaN where the information matrix is
    singular; each bound equals crlb.peb of its topology alone, bit for bit.
    """
    room = cfg.room()
    anchors = cfg.anchors()
    coil = cfg.coil()
    gparams = cfg.global_params()
    coupling = coupling_coefficient(coil, coil, gparams)
    min_dist = cfg.min_distance()

    def poses(t: int) -> np.ndarray:
        topo = sample_topology(m, room, anchors, min_dist, _trial_seed(cfg.seed, m, t, 0))
        return estimators.pack_deployments(topo.agents)

    n_links = len(link_set(m, len(anchors), Scheme.COOP if cooperative else Scheme.NONCOOP))
    chunk = max(1, _LINKS_PER_CALL // max(n_links, 1))
    bounds = np.empty(topologies)
    for start in range(0, topologies, chunk):
        stop = min(start + chunk, topologies)
        stack = np.array([poses(t) for t in range(start, stop)])
        fim = crlb.fim_stack(stack, anchors, coupling, gparams.noise_sigma, cooperative)
        bounds[start:stop] = crlb.peb_stack(fim, 0)
    return bounds


def _needs_reference(estimator: str, init: str) -> bool:
    if estimator == "turbols":
        return True
    return estimator == "numls" and init.startswith("random")


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Full Monte-Carlo sweep over the configured agent counts.

    For every agent count, topologies and noise realizations are drawn from
    seed-derived streams, the configured estimator runs on each trial, and
    agent-0 statistics are aggregated: mean RMSE (per-topology RMSE over the
    noise draws, averaged over topologies), mean position error bound over
    the same topologies, and the fraction of outlier trials (error above
    10x the topology's bound).  Topologies with a singular information
    matrix are left out of the mean bound and counted in singular_bounds.
    Trial failures of the kinds in TRIAL_FAILURES are counted and skipped;
    any other exception propagates.
    """
    room = cfg.room()
    anchors = cfg.anchors()
    coil = cfg.coil()
    gparams = cfg.global_params()
    coupling = coupling_coefficient(coil, coil, gparams)
    scheme = cfg.scheme_enum()
    cooperative = scheme is Scheme.COOP
    min_dist = cfg.min_distance()
    with_reference = _needs_reference(cfg.estimator, cfg.init)

    trials: List[TrialRecord] = []
    summaries: List[SummaryRecord] = []
    cdfs: Dict[str, np.ndarray] = {}
    failures = 0
    singular_bounds = 0

    for m in cfg.agent_counts():
        topo_peb = agent0_bounds(cfg, m, cfg.topologies, cooperative)
        singular_bounds += int(np.isnan(topo_peb).sum())
        topo_rmse: List[float] = []
        agent0_errors: List[float] = []
        outliers = 0
        counted = 0
        for t in range(cfg.topologies):
            topo = sample_topology(
                m, room, anchors, min_dist, _trial_seed(cfg.seed, m, t, 0)
            )
            peb0 = topo_peb[t]
            truth = estimators.pack_deployments(topo.agents)
            sq_errors: List[float] = []
            for k in range(cfg.noise):
                noise_rng = _trial_seed(cfg.seed, m, t, k, 1)
                est_rng = _trial_seed(cfg.seed, m, t, k, 2)
                measurement_set = synthesize_measurements(
                    topo, coil, gparams, scheme, noise_rng
                )
                problem = LsProblem.from_measurements(measurement_set, anchors, m, coupling)
                started = time.perf_counter()
                try:
                    poses, report, _ = run_trial_estimator(
                        cfg.estimator, cfg.init, problem, room, truth, est_rng
                    )
                except TRIAL_FAILURES:
                    failures += 1
                    continue
                wall = time.perf_counter() - started
                ref_cost = np.nan
                global_min: Optional[bool] = None
                agent_flags = None
                if with_reference:
                    ref = estimators.estimate(problem, "perfect", truth=truth)
                    ref_cost = ref.final_cost
                    if cooperative:
                        global_min = report.final_cost <= ref_cost + GLOBAL_MIN_COST_SLACK
                    else:
                        # the non-cooperative objective decomposes per agent
                        est_costs = problem.per_agent_costs(report.estimate)
                        ref_costs = problem.per_agent_costs(ref.estimate)
                        agent_flags = est_costs <= ref_costs + GLOBAL_MIN_COST_SLACK
                for agent in range(m):
                    err = float(np.linalg.norm(poses[agent, :3] - topo.agents[agent].position))
                    flag = global_min if agent_flags is None else bool(agent_flags[agent])
                    trials.append(
                        TrialRecord(
                            m=m,
                            scheme=cfg.scheme,
                            estimator=cfg.estimator,
                            topology_id=t,
                            noise_id=k,
                            agent=agent,
                            true_pose=topo.agents[agent].as_vector(),
                            est_pose=poses[agent],
                            error_m=err,
                            final_cost=report.final_cost,
                            ref_cost=ref_cost,
                            global_min=flag,
                            converged=report.converged,
                            iterations=report.iterations,
                            wall_time_s=wall,
                        )
                    )
                    if agent == 0:
                        agent0_errors.append(err)
                        sq_errors.append(err * err)
                        counted += 1
                        if np.isfinite(peb0) and err > OUTLIER_PEB_FACTOR * peb0:
                            outliers += 1
            if sq_errors:
                topo_rmse.append(float(np.sqrt(np.mean(sq_errors))))
        summaries.append(
            SummaryRecord(
                m=m,
                scheme=cfg.scheme,
                estimator=cfg.estimator,
                mean_rmse_m=float(np.mean(topo_rmse)) if topo_rmse else np.nan,
                mean_peb_m=_finite_mean(topo_peb),
                outlier_frac=outliers / counted if counted else np.nan,
                trials=counted,
            )
        )
        if agent0_errors:
            cdfs[f"M{m}_{cfg.scheme}_{cfg.estimator}"] = compute_cdf(agent0_errors)
    return ExperimentResult(
        config=cfg,
        trials=trials,
        summaries=summaries,
        cdfs=cdfs,
        failures=failures,
        singular_bounds=singular_bounds,
    )


# ---------------------------------------------------------------------------
# Bound-only sweeps and calibration.
# ---------------------------------------------------------------------------


def mean_peb_curve(
    cfg: ExperimentConfig,
    agent_counts: Optional[Sequence[int]] = None,
    topologies: Optional[int] = None,
    scheme: Optional[Scheme] = None,
) -> List[Tuple[int, float, int]]:
    """Mean agent-0 position error bound per agent count.

    Returns rows (m, mean_peb_m, topologies); uses the same seed-derived
    topology streams as run_experiment.  Topologies whose information matrix
    is singular are skipped, as in run_experiment: the mean is taken over
    the finite bounds and the topologies entry counts them.
    """
    if scheme is None:
        scheme = cfg.scheme_enum()
    counts = list(agent_counts) if agent_counts is not None else cfg.agent_counts()
    n_topologies = topologies if topologies is not None else cfg.topologies
    rows = []
    for m in counts:
        bounds = agent0_bounds(cfg, m, n_topologies, scheme is Scheme.COOP)
        rows.append((m, _finite_mean(bounds), int(np.isfinite(bounds).sum())))
    return rows


def _finite_mean(values: np.ndarray) -> float:
    """Mean of the finite entries; NaN when there are none."""
    finite = values[np.isfinite(values)]
    return float(np.mean(finite)) if finite.size else np.nan


@dataclass
class CalibrationResult:
    """Outcome of the one-dimensional resistance sweep."""

    resistance_ohm: float
    base_resistance_ohm: float
    base_peb_m: float
    target_peb_m: float
    topologies: int
    config: ExperimentConfig = field(repr=False)


def calibrate_resistance(
    cfg: ExperimentConfig,
    target_peb_m: float = REFERENCE_PEB_M1_M,
    topologies: int = 1000,
) -> CalibrationResult:
    """Choose the coil resistance that hits the target single-agent bound.

    The bound scales exactly linearly in the resistance (the coupling is
    proportional to 1/R and the information matrix to its square), so the
    sweep reduces to one evaluation of the mean non-cooperative M=1 bound at
    the configured resistance and a rescale.
    """
    rows = mean_peb_curve(
        cfg, agent_counts=[1], topologies=topologies, scheme=Scheme.NONCOOP
    )
    base_peb = rows[0][1]
    resistance = cfg.resistance_ohm * target_peb_m / base_peb
    return CalibrationResult(
        resistance_ohm=resistance,
        base_resistance_ohm=cfg.resistance_ohm,
        base_peb_m=base_peb,
        target_peb_m=target_peb_m,
        topologies=topologies,
        config=cfg.override(resistance_ohm=resistance),
    )


def gains_experiment(cfg: ExperimentConfig, m: Optional[int] = None):
    """Noiseless channel-gain statistics of the cooperative link set.

    Returns a dict with the flat |h| sample arrays per link kind, their dB
    CDFs and the fraction of all gains below the measurement error level.
    """
    room = cfg.room()
    anchors = cfg.anchors()
    coil = cfg.coil()
    gparams = cfg.global_params()
    if m is None:
        m = cfg.agent_counts()[-1]
    agent_agent, agent_anchor = [], []
    for t in range(cfg.topologies):
        topo = sample_topology(
            m, room, anchors, cfg.min_distance(), _trial_seed(cfg.seed, m, t, 0)
        )
        aa, an = channel_gain_samples(topo, coil, gparams)
        agent_agent.append(aa)
        agent_anchor.append(an)
    aa = np.concatenate(agent_agent)
    an = np.concatenate(agent_anchor)
    everything = np.concatenate([aa, an])
    return {
        "agent_agent": aa,
        "agent_anchor": an,
        "cdf_agent_agent_db": compute_cdf(20.0 * np.log10(aa)),
        "cdf_agent_anchor_db": compute_cdf(20.0 * np.log10(an)),
        "fraction_below_sigma": float(np.mean(everything < gparams.noise_sigma)),
        "median_agent_agent_db": float(20.0 * np.log10(np.median(aa))),
        "median_agent_anchor_db": float(20.0 * np.log10(np.median(an))),
    }


# ---------------------------------------------------------------------------
# CSV emission.
# ---------------------------------------------------------------------------

TRIALS_HEADER = (
    "m,scheme,estimator,topology,noise,agent,"
    "true_x,true_y,true_z,true_alpha,true_beta,true_gamma,"
    "est_x,est_y,est_z,est_alpha,est_beta,est_gamma,"
    "error_m,final_cost,ref_cost,global_min,converged,iterations"
)
SUMMARY_HEADER = "M,scheme,estimator,mean_rmse_m,mean_peb_m,outlier_frac,trials"
TIMINGS_HEADER = "m,scheme,estimator,topology,noise,agent,wall_time_s"


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _canonical_pose(pose: np.ndarray) -> np.ndarray:
    """The pose with canonical Euler angles; a NaN orientation stays NaN.

    Estimators iterate on unconstrained angles, and equivalent triples would
    otherwise be written differently.
    """
    if np.isnan(pose[3:]).any():
        return pose
    return np.hstack([pose[:3], rotation_to_euler(euler_to_rotation(pose[3:]))])


def emit_outputs(result: ExperimentResult, outdir) -> List[Path]:
    """Write trials.csv, summary.csv, per-label CDF files and config.echo.

    Wall times are emitted to timings.csv; all other files are byte-stable
    for a fixed configuration and seed.
    """
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    rows = [TRIALS_HEADER]
    timing_rows = [TIMINGS_HEADER]
    for tr in result.trials:
        fields = [
            str(tr.m),
            tr.scheme,
            tr.estimator,
            str(tr.topology_id),
            str(tr.noise_id),
            str(tr.agent),
            *[_fmt(v) for v in tr.true_pose],
            *[_fmt(v) for v in _canonical_pose(tr.est_pose)],
            _fmt(tr.error_m),
            _fmt(tr.final_cost),
            _fmt(tr.ref_cost),
            "" if tr.global_min is None else str(int(tr.global_min)),
            str(int(tr.converged)),
            str(tr.iterations),
        ]
        rows.append(",".join(fields))
        timing_rows.append(
            ",".join(
                [
                    str(tr.m),
                    tr.scheme,
                    tr.estimator,
                    str(tr.topology_id),
                    str(tr.noise_id),
                    str(tr.agent),
                    _fmt(tr.wall_time_s),
                ]
            )
        )
    trials_path = out / "trials.csv"
    trials_path.write_text("\n".join(rows) + "\n")
    written.append(trials_path)
    timings_path = out / "timings.csv"
    timings_path.write_text("\n".join(timing_rows) + "\n")
    written.append(timings_path)

    summary_rows = [SUMMARY_HEADER]
    for s in result.summaries:
        summary_rows.append(
            ",".join(
                [
                    str(s.m),
                    s.scheme,
                    s.estimator,
                    _fmt(s.mean_rmse_m),
                    _fmt(s.mean_peb_m),
                    _fmt(s.outlier_frac),
                    str(s.trials),
                ]
            )
        )
    summary_path = out / "summary.csv"
    summary_path.write_text("\n".join(summary_rows) + "\n")
    written.append(summary_path)

    for label, cdf in result.cdfs.items():
        path = out / f"cdf_{label}.csv"
        lines = ["error_m,cdf"] + [f"{_fmt(v)},{_fmt(p)}" for v, p in cdf]
        path.write_text("\n".join(lines) + "\n")
        written.append(path)

    echo_path = out / "config.echo"
    echo_path.write_text(result.config.echo())
    written.append(echo_path)
    return written


def emit_peb_curve(rows, cfg: ExperimentConfig, scheme: Scheme, outdir) -> List[Path]:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["M,scheme,mean_peb_m,topologies"]
    for m, value, n in rows:
        lines.append(f"{m},{scheme.value},{_fmt(value)},{n}")
    path = out / "peb.csv"
    path.write_text("\n".join(lines) + "\n")
    echo = out / "config.echo"
    echo.write_text(cfg.echo())
    return [path, echo]


def emit_gains(stats, cfg: ExperimentConfig, outdir) -> List[Path]:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for key in ("agent_agent", "agent_anchor"):
        path = out / f"cdf_gains_{key}.csv"
        lines = ["gain_db,cdf"] + [
            f"{_fmt(v)},{_fmt(p)}" for v, p in stats[f"cdf_{key}_db"]
        ]
        path.write_text("\n".join(lines) + "\n")
        written.append(path)
    summary = out / "gains_summary.csv"
    summary.write_text(
        "fraction_below_sigma,median_agent_agent_db,median_agent_anchor_db\n"
        + ",".join(
            _fmt(stats[k])
            for k in (
                "fraction_below_sigma",
                "median_agent_agent_db",
                "median_agent_anchor_db",
            )
        )
        + "\n"
    )
    written.append(summary)
    echo = out / "config.echo"
    echo.write_text(cfg.echo())
    written.append(echo)
    return written
