"""Monte-Carlo experiment driver, metrics and CSV emission.

Seeds are derived per (agent count, topology, noise draw) through
numpy SeedSequence, so runs are reproducible bit for bit and trials are
independent.  Trials are solved in chunks that share stacked solver calls.
solve_trials hands a chunk's results over as arrays, a StackedSolve per
trial and group of agents (estimators.estimate), and the trial records are
read off them.  Each trial's wall time, its chunk's time split evenly over
the chunk's trials, goes to a separate timings file because the data
outputs are required to be byte-identical across reruns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import groupby, islice
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import crlb, estimators, pairml
from .channel import CoincidentNodes, coupling_coefficient
from .config import ExperimentConfig
from .estimators import LsProblem, StackedSolve
from .geometry import Room, group_poses, join_poses, rotation_to_euler
from .scenario import (
    Scheme,
    Topology,
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

# Trials per chunk: a chunk's measurements and closed-form estimates stay
# small whatever the number of trials; estimators bounds each LM call.
_TRIALS_PER_CHUNK = 32


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
    true_pose: np.ndarray  # (6,) position and Euler angles
    est_pose: np.ndarray  # (12,) position and rotation, rotation nan for position-only estimators
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
    failures_by_kind: Dict[str, int] = field(default_factory=dict)  # TRIAL_FAILURES names
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


def solve_trials(
    estimator: str,
    init: str,
    problem: LsProblem,
    room: Room,
    truths: np.ndarray,
    rngs: Sequence[np.random.Generator],
    with_reference: bool = False,
) -> Tuple[np.ndarray, StackedSolve, Optional[StackedSolve]]:
    """Run one estimator on each of the T trials stacked in problem.

    problem.y_imag holds the trials' measurements (T, L, 3, 3), truths their
    (T, 12M) true pose rows and rngs their start streams.  The estimates
    and, with_reference, the perfect-init reference solves of all trials
    share stacked LM calls of bounded size (estimators.estimate); pair-ML
    and multilateration run once for every agent of the stack.
    Each trial's results equal those of the trial solved alone.

    Returns:
        (poses, solve, reference): the (T, M, 12) one-agent pose rows of the
        estimates (geometry.join_poses), rotation NaN for position-only
        estimators, and the estimates' and the references' solves (reference
        None unless with_reference), shaped (T, groups) as in
        estimators.estimate.  Pair-ML and multilateration give one group
        per trial with 0 iterations; multilateration's cost is NaN.
    """
    trials, m = len(problem.y_imag), problem.n_agents
    reference = None
    if estimator in ("numls", "turbols"):
        solve, reference = estimators.estimate(
            problem, init if estimator == "numls" else "pairml", room, truths, rngs,
            with_reference,
        )
    elif estimator == "pairml":
        theta = estimators.pairml_initialization(problem, room)
        solve = _closed_form(theta, [r @ r for r in problem.residual(theta)], True)
    elif estimator == "multilateration":
        rows = problem.anchor_link_rows()
        anchors = problem.links[rows, 1] - m
        distances = pairml.distance_estimates(
            problem.y_imag[:, rows], problem.anchor_rotations[anchors], problem.coupling
        )
        fix = estimators.multilaterate(
            np.broadcast_to(problem.anchor_positions[anchors], distances.shape + (3,)),
            distances,
            room,
        )
        theta = join_poses(fix.position, np.full(fix.position.shape + (3,), np.nan))
        solve = _closed_form(theta, np.nan, fix.converged.all(axis=-1))
    else:
        raise ValueError(f"unknown estimator {estimator!r}")
    poses = group_poses(solve.estimate, solve.estimate.shape[-1] // 12)
    return poses.reshape(trials, m, 12), solve, reference


def _closed_form(theta: np.ndarray, costs, converged) -> StackedSolve:
    """The solve of closed-form estimates theta (T, 12M): one group per trial, 0 iterations."""
    column = (len(theta), 1)
    return StackedSolve(
        estimate=theta[:, None],
        final_cost=np.broadcast_to(np.reshape(costs, (-1, 1)), column),
        problem_iterations=np.zeros(column, dtype=int),
        converged=np.broadcast_to(np.reshape(converged, (-1, 1)), column),
        normal_equations_singular=np.zeros(column, dtype=bool),
    )


def _poses(topologies: Sequence[Topology], m: int) -> np.ndarray:
    """The (T, 12m) agent pose rows of T topologies."""
    poses = [estimators.pack_deployments(topology.agents) for topology in topologies]
    return np.array(poses).reshape(-1, 12 * m)


def draw_topologies(cfg: ExperimentConfig, m: int, count: int) -> Iterator[Topology]:
    """Topologies 0..count-1 of agent count m, each from its own seed-derived stream."""
    room, anchors, min_dist = cfg.room(), cfg.anchors(), cfg.min_distance()
    for t in range(count):
        yield sample_topology(m, room, anchors, min_dist, _trial_seed(cfg.seed, m, t, 0))


def agent0_bounds(
    cfg: ExperimentConfig, m: int, topologies: Iterable[Topology], cooperative: bool
) -> np.ndarray:
    """Agent 0's position error bound on each of the topologies of count m.

    The information matrices of many topologies are assembled and solved in
    stacked calls of at most estimators.LINKS_PER_SLICE links, and
    topologies are taken from the iterable one call at a time, so a
    generator such as draw_topologies keeps memory bounded.  Without
    cooperation agent 0 shares no information with the other agents, so
    only its own anchor links are assembled, as a one-agent problem.
    Returns one bound per topology, NaN where the information matrix is
    singular; each bound equals crlb.peb of its topology alone, bit for bit.
    """
    anchors = cfg.anchors()
    coil = cfg.coil()
    gparams = cfg.global_params()
    coupling = coupling_coefficient(coil, coil, gparams)

    n_links = len(link_set(m, len(anchors), Scheme.COOP)) if cooperative else len(anchors)
    chunk = max(1, estimators.LINKS_PER_SLICE // max(n_links, 1))
    topologies = iter(topologies)
    bounds = [np.empty(0)]
    while stack := list(islice(topologies, chunk)):
        # without cooperation, agent 0 alone (M = 1) on its anchor links
        poses = _poses(stack, m) if cooperative else group_poses(_poses(stack, m), m)[:, 0]
        fim = crlb.fim_stack(poses, anchors, coupling, gparams.noise_sigma, cooperative)
        bounds.append(crlb.peb_stack(fim, 0))
    return np.concatenate(bounds)


def _needs_reference(estimator: str, init: str) -> bool:
    if estimator == "turbols":
        return True
    return estimator == "numls" and estimators.parse_init_strategy(init)[0] == "random"


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Full Monte-Carlo sweep over the configured agent counts.

    For every agent count, topologies and noise realizations are drawn from
    seed-derived streams, the configured estimator runs on each trial, and
    agent-0 statistics are aggregated: mean RMSE (per-topology RMSE over the
    noise draws, averaged over topologies), mean position error bound over
    the same topologies, and the fraction of outlier trials (error above
    10x the topology's bound).  Topologies with a singular information
    matrix are left out of the mean bound and counted in singular_bounds.

    Trials are solved in chunks of _TRIALS_PER_CHUNK (solve_trials).  A
    chunk that raises one of TRIAL_FAILURES is solved again trial by trial;
    a trial that raises alone is counted by kind and skipped.  Any other
    exception propagates.
    """
    room = cfg.room()
    anchors = cfg.anchors()
    coil = cfg.coil()
    gparams = cfg.global_params()
    coupling = coupling_coefficient(coil, coil, gparams)
    scheme = cfg.scheme_enum()
    cooperative = scheme is Scheme.COOP
    with_reference = _needs_reference(cfg.estimator, cfg.init)

    trials: List[TrialRecord] = []
    summaries: List[SummaryRecord] = []
    cdfs: Dict[str, np.ndarray] = {}
    failures: Dict[str, int] = {}
    singular_bounds = 0

    def solve_chunk(m, topologies, keys) -> List[TrialRecord]:
        """Records of the (topology, noise) trials in keys, in key order."""
        sets = [
            synthesize_measurements(
                topologies[t], coil, gparams, scheme, _trial_seed(cfg.seed, m, t, k, 1)
            )
            for t, k in keys
        ]
        problem = LsProblem.from_measurements(sets, anchors, m, coupling)
        started = time.perf_counter()
        try:
            poses, solve, reference = solve_trials(
                cfg.estimator, cfg.init, problem, room,
                _poses([topologies[t] for t, _ in keys], m),
                [_trial_seed(cfg.seed, m, t, k, 2) for t, k in keys], with_reference,
            )
        except TRIAL_FAILURES as exc:
            if len(keys) > 1:
                return [record for key in keys for record in solve_chunk(m, topologies, [key])]
            kind = next(f.__name__ for f in TRIAL_FAILURES if isinstance(exc, f))
            failures[kind] = failures.get(kind, 0) + 1
            return []
        wall = (time.perf_counter() - started) / len(keys)
        # a trial's figures join its groups': Python sums of the costs in group order
        costs = [sum(groups) for groups in solve.final_cost.tolist()]
        iterations = solve.problem_iterations.max(axis=-1).tolist()
        converged = solve.converged.all(axis=-1).tolist()
        ref_costs, flags = [np.nan] * len(keys), [[None] * m] * len(keys)
        if reference is not None:
            ref_costs = [sum(groups) for groups in reference.final_cost.tolist()]
            # a group holds whole agents, and its cost is their joint objective
            flags = solve.final_cost <= reference.final_cost + GLOBAL_MIN_COST_SLACK
            flags = np.repeat(flags, m // flags.shape[-1], axis=-1).tolist()
        return [
            TrialRecord(
                m=m,
                scheme=cfg.scheme,
                estimator=cfg.estimator,
                topology_id=t,
                noise_id=k,
                agent=agent,
                true_pose=topologies[t].agents[agent].as_vector(),
                est_pose=poses[i, agent],
                error_m=float(
                    np.linalg.norm(poses[i, agent, :3] - topologies[t].agents[agent].position)
                ),
                final_cost=costs[i],
                ref_cost=ref_costs[i],
                global_min=flags[i][agent],
                converged=converged[i],
                iterations=iterations[i],
                wall_time_s=wall,
            )
            for i, (t, k) in enumerate(keys)
            for agent in range(m)
        ]

    for m in cfg.agent_counts():
        topologies = list(draw_topologies(cfg, m, cfg.topologies))
        topo_peb = agent0_bounds(cfg, m, topologies, cooperative)
        singular_bounds += int(np.isnan(topo_peb).sum())
        keys = [(t, k) for t in range(cfg.topologies) for k in range(cfg.noise)]
        records = [
            record
            for start in range(0, len(keys), _TRIALS_PER_CHUNK)
            for record in solve_chunk(m, topologies, keys[start : start + _TRIALS_PER_CHUNK])
        ]
        trials += records
        agent0 = [r for r in records if r.agent == 0]
        topo_rmse = [
            float(np.sqrt(np.mean([r.error_m * r.error_m for r in group])))
            for _, group in groupby(agent0, key=lambda r: r.topology_id)
        ]
        pebs = topo_peb[[r.topology_id for r in agent0]]
        errors = np.array([r.error_m for r in agent0])
        outliers = int(np.sum(np.isfinite(pebs) & (errors > OUTLIER_PEB_FACTOR * pebs)))
        summaries.append(
            SummaryRecord(
                m=m,
                scheme=cfg.scheme,
                estimator=cfg.estimator,
                mean_rmse_m=float(np.mean(topo_rmse)) if topo_rmse else np.nan,
                mean_peb_m=_finite_mean(topo_peb),
                outlier_frac=outliers / len(agent0) if agent0 else np.nan,
                trials=len(agent0),
            )
        )
        if agent0:
            cdfs[f"M{m}_{cfg.scheme}_{cfg.estimator}"] = compute_cdf(errors)
    return ExperimentResult(
        config=cfg,
        trials=trials,
        summaries=summaries,
        cdfs=cdfs,
        failures=sum(failures.values()),
        failures_by_kind=failures,
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
        bounds = agent0_bounds(
            cfg, m, draw_topologies(cfg, m, n_topologies), scheme is Scheme.COOP
        )
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
    coil = cfg.coil()
    gparams = cfg.global_params()
    if m is None:
        m = cfg.agent_counts()[-1]
    agent_agent, agent_anchor = [], []
    for topo in draw_topologies(cfg, m, cfg.topologies):
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


def _canonical_poses(poses: np.ndarray) -> np.ndarray:
    """The written (N, 6) poses, position and canonical Euler angles, of N one-agent pose rows.

    Every orientation is converted in one call; a row with a NaN rotation
    (a position-only estimate) gets NaN angles.
    """
    poses = np.asarray(poses, dtype=float).reshape(-1, 12)
    out = np.full((len(poses), 6), np.nan)
    out[:, :3] = poses[:, :3]
    oriented = ~np.isnan(poses[:, 3:]).any(axis=1)
    out[oriented, 3:] = rotation_to_euler(poses[oriented, 3:].reshape(-1, 3, 3))
    return out


def _write(path: Path, lines: Iterable[str]) -> Path:
    """path with one line per entry of lines, each ended by a newline."""
    path.write_text("".join(line + "\n" for line in lines))
    return path


def _outdir(outdir) -> Path:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def emit_outputs(result: ExperimentResult, outdir) -> List[Path]:
    """Write trials.csv, summary.csv, per-label CDF files and config.echo.

    Wall times are emitted to timings.csv; all other files are byte-stable
    for a fixed configuration and seed.
    """
    out = _outdir(outdir)
    rows = [TRIALS_HEADER]
    timing_rows = [TIMINGS_HEADER]
    est_poses = _canonical_poses([tr.est_pose for tr in result.trials])
    for tr, est_pose in zip(result.trials, est_poses):
        key = [str(tr.m), tr.scheme, tr.estimator]
        key += [str(tr.topology_id), str(tr.noise_id), str(tr.agent)]
        fields = [
            *key,
            *[_fmt(v) for v in tr.true_pose],
            *[_fmt(v) for v in est_pose],
            _fmt(tr.error_m),
            _fmt(tr.final_cost),
            _fmt(tr.ref_cost),
            "" if tr.global_min is None else str(int(tr.global_min)),
            str(int(tr.converged)),
            str(tr.iterations),
        ]
        rows.append(",".join(fields))
        timing_rows.append(",".join(key + [_fmt(tr.wall_time_s)]))
    summary_rows = [SUMMARY_HEADER]
    for s in result.summaries:
        values = [_fmt(s.mean_rmse_m), _fmt(s.mean_peb_m), _fmt(s.outlier_frac), str(s.trials)]
        summary_rows.append(",".join([str(s.m), s.scheme, s.estimator] + values))
    written = [
        _write(out / "trials.csv", rows),
        _write(out / "timings.csv", timing_rows),
        _write(out / "summary.csv", summary_rows),
    ]
    for label, cdf in result.cdfs.items():
        lines = ["error_m,cdf"] + [f"{_fmt(v)},{_fmt(p)}" for v, p in cdf]
        written.append(_write(out / f"cdf_{label}.csv", lines))
    echo_path = out / "config.echo"
    echo_path.write_text(result.config.echo())
    return written + [echo_path]


def emit_peb_curve(rows, cfg: ExperimentConfig, scheme: Scheme, outdir) -> List[Path]:
    out = _outdir(outdir)
    lines = ["M,scheme,mean_peb_m,topologies"]
    lines += [f"{m},{scheme.value},{_fmt(value)},{n}" for m, value, n in rows]
    echo = out / "config.echo"
    echo.write_text(cfg.echo())
    return [_write(out / "peb.csv", lines), echo]


def emit_gains(stats, cfg: ExperimentConfig, outdir) -> List[Path]:
    out = _outdir(outdir)
    written = [
        _write(
            out / f"cdf_gains_{key}.csv",
            ["gain_db,cdf"] + [f"{_fmt(v)},{_fmt(p)}" for v, p in stats[f"cdf_{key}_db"]],
        )
        for key in ("agent_agent", "agent_anchor")
    ]
    names = ("fraction_below_sigma", "median_agent_agent_db", "median_agent_anchor_db")
    summary = [",".join(names), ",".join(_fmt(stats[k]) for k in names)]
    written.append(_write(out / "gains_summary.csv", summary))
    echo = out / "config.echo"
    echo.write_text(cfg.echo())
    return written + [echo]
