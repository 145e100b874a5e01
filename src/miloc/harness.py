"""Monte-Carlo experiment driver, metrics and CSV emission.

Seeds are derived per (agent count, topology, noise draw) through
numpy SeedSequence, so runs are reproducible bit for bit and trials are
independent.  An agent count's network is one LsProblem
(scenario.network_problem): its bounds, its trials' noiseless gains and
its estimates all read that problem's links.  Trials are solved in chunks
of whole trials, sized in links (_LINKS_PER_CHUNK).  A chunk's estimates
are one stacked solver call, which also solves a checked estimator's
perfect-init references on the same problem.  A chunk evaluates its
topologies' gains once each and adds each trial's noise from the trial's
own stream, as scenario.synthesize_measurements does.
solve_trials hands a chunk's results over as arrays, a StackedSolve per
trial and group of agents (estimators.estimate), and the chunk keeps them
as a Trials block: one row per trial, one column per agent.  An agent
count's chunks join into one block, and the summaries, CDFs and CSV rows
are read off the blocks.  Each trial's wall time, its chunk's time split
evenly over the chunk's trials, goes to a separate timings file because
the data outputs are required to be byte-identical across reruns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace
from itertools import islice
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import crlb, estimators, pairml
from .channel import CoincidentNodes, add_noise, coupling_coefficient
from .config import ConfigError, ExperimentConfig
from .estimators import LsProblem, StackedSolve, StopReason
from .geometry import Room, join_poses, rotation_to_euler
from .scenario import Scheme, Topology, network_problem, sample_topology

GLOBAL_MIN_COST_SLACK = 1e-12
OUTLIER_PEB_FACTOR = 10.0
# Failures a trial can meet by design: no usable anchor link for the
# closed-form estimators, an iterate that lands on another node, and a
# linear-algebra routine that does not converge.  Anything else is a bug.
TRIAL_FAILURES = (pairml.NoMeasurements, CoincidentNodes, np.linalg.LinAlgError)

# Reference mean position error bound of the single-agent non-cooperative
# setup, used as the calibration target for the coil resistance.
REFERENCE_PEB_M1_M = 2.18627459283404e-3

# Links per chunk of trials, summed over their LM problems (whole trials, at
# least one): a chunk's measurements and its LM call stay bounded.
_LINKS_PER_CHUNK = 2048


class EmptyInput(ValueError):
    """CDF of an empty sample is undefined."""


@dataclass
class Trials:
    """The kept (topology, noise) trials of one agent count m: T rows, in key order."""

    keys: np.ndarray  # (T, 2) topology and noise ids
    true_pose: np.ndarray  # (T, m, 12) one-agent pose rows (geometry.join_poses)
    est_pose: np.ndarray  # (T, m, 12), rotation NaN for position-only estimators
    error_m: np.ndarray  # (T, m)
    global_min: np.ndarray  # (T, m) bool; all False in a run without reference solves
    final_cost: np.ndarray  # (T,)
    ref_cost: np.ndarray  # (T,) perfect-init reference cost; NaN when not computed
    converged: np.ndarray  # (T,) bool
    iterations: np.ndarray  # (T,) int
    wall_time_s: np.ndarray  # (T,)

    @classmethod
    def empty(cls, m: int) -> "Trials":
        """The block of no trials of agent count m."""
        return cls(
            np.empty((0, 2), dtype=int), np.empty((0, m, 12)), np.empty((0, m, 12)),
            np.empty((0, m)), np.empty((0, m), dtype=bool), np.empty(0), np.empty(0),
            np.empty(0, dtype=bool), np.empty(0, dtype=int), np.empty(0),
        )


def _join(blocks: Sequence[Trials]) -> Trials:
    """One block of the trials of blocks, in order."""
    return Trials(*(np.concatenate([getattr(b, f.name) for b in blocks]) for f in fields(Trials)))


@dataclass
class SummaryRecord:
    m: int
    mean_rmse_m: float
    mean_peb_m: float
    outlier_frac: float
    trials: int


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    trials: List[Trials] = field(default_factory=list)  # one block per agent count
    summaries: List[SummaryRecord] = field(default_factory=list)
    failures_by_kind: Dict[str, int] = field(default_factory=dict)  # TRIAL_FAILURES names
    singular_bounds: int = 0  # topologies left out of mean_peb_m

    @property
    def failures(self) -> int:
        """Failed trials, of every kind."""
        return sum(self.failures_by_kind.values())


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
) -> Tuple[np.ndarray, StackedSolve, Optional[StackedSolve]]:
    """Run one estimator on each of the T trials stacked in problem.

    problem.y_imag holds the trials' measurements (T, L, 3, 3), truths their
    (T, 12M) true pose rows and rngs their start streams.  The estimates of
    all trials share one stacked LM call (estimators.estimate), and an
    estimate that _lm_start checks shares it with its perfect-init
    references, started from truths; pair-ML and multilateration run once
    for every agent of the stack.  Each trial's results equal those of the
    trial solved alone.

    Returns:
        (poses, solve, reference): the (T, M, 12) one-agent pose rows of the
        estimates (geometry.join_poses), rotation NaN for position-only
        estimators, and the estimates' and the references' solves (reference
        None for an unchecked estimate), shaped (T, groups) as in
        estimators.estimate.  Pair-ML and multilateration give one group
        per trial with 0 iterations; multilateration's cost is NaN.
        Pair-ML's stop reason is StopReason.CLOSED_FORM, and a
        multilateration trial's the last of its fixes' in StopReason's order.
    """
    trials, m = len(problem.y_imag), problem.n_agents
    lm_init, _, checked = _lm_start(estimator, init)
    reference = None
    if lm_init is not None:
        inits = [lm_init] + ["perfect"] * checked
        solve, *references = estimators.estimate(problem, inits, room, truths, rngs)
        reference = references[0] if checked else None
    elif estimator == "pairml":
        theta = estimators.pairml_initialization(problem, room)
        solve = _closed_form(theta, problem.cost(theta), StopReason.CLOSED_FORM)
    elif estimator == "multilateration":
        alone = problem.anchor_problem()
        fix = estimators.multilaterate(
            alone.anchor_positions, pairml.distance_estimates(alone), room
        )
        position = fix.estimate.reshape(trials, m, 3)
        theta = join_poses(position, np.full(position.shape + (3,), np.nan))
        # a trial's fixes converged when all did: its reason is the last in StopReason's order
        solve = _closed_form(theta, np.nan, fix.stop_reason.reshape(trials, m).max(axis=-1))
    else:
        raise ValueError(f"unknown estimator {estimator!r}")
    return solve.estimate.reshape(trials, m, 12), solve, reference


def _closed_form(theta: np.ndarray, costs, reason) -> StackedSolve:
    """The solve of closed-form estimates theta (T, 12M): one group per trial, 0 iterations.

    reason is each trial's StopReason, or one for all.
    """
    column = (len(theta), 1)
    return StackedSolve(
        estimate=theta[:, None],
        final_cost=np.broadcast_to(np.reshape(costs, (-1, 1)), column),
        problem_iterations=np.zeros(column, dtype=int),
        normal_equations_singular=np.zeros(column, dtype=bool),
        stop_reason=np.broadcast_to(np.reshape(reason, (-1, 1)), column).astype(np.int8),
    )


def _poses(topologies: Sequence[Topology], m: int) -> np.ndarray:
    """The (T, 12m) agent pose rows of T topologies, joined from their arrays in one call."""
    positions = np.reshape([t.positions for t in topologies], (-1, m, 3))
    return join_poses(positions, np.reshape([t.rotations for t in topologies], (-1, m, 3, 3)))


def draw_topologies(cfg: ExperimentConfig, m: int, count: int) -> Iterator[Topology]:
    """Topologies 0..count-1 of agent count m, each from its own seed-derived stream."""
    room, anchors, min_dist = cfg.room(), cfg.anchors(), cfg.min_distance()
    for t in range(count):
        yield sample_topology(m, room, anchors, min_dist, _trial_seed(cfg.seed, m, t, 0))


def agent0_bounds(
    problem: LsProblem, topologies: Iterable[Topology], sigma: float
) -> np.ndarray:
    """Agent 0's position error bound on each of the topologies of the problem's network.

    problem is the network's link set (scenario.network_problem) and sigma
    the noise level.  The information matrices of many topologies are
    assembled and solved in stacked calls of at most
    estimators.LINKS_PER_SLICE links, and topologies are taken from the
    iterable one call at a time, so a generator such as draw_topologies
    keeps memory bounded.  Without cooperation agent 0 shares no
    information with the other agents, so only its own anchor links are
    assembled, as a one-agent problem (LsProblem.anchor_problem).  Whichever
    problem is picked is folded once per call (LsProblem.folded; an anchor
    problem is its own fold), and every stack is assembled on the fold at
    agent 0's group, the first 12 * n_agents entries of each pose row.
    Calls are sized in ordered links and bounds kept as floats, to keep
    memory flat.
    Returns one bound per topology, NaN where the information matrix is
    singular; each bound equals crlb.peb of its topology alone, bit for bit.
    """
    bound = problem if problem.cooperative else problem.anchor_problem()
    chunk = max(1, estimators.LINKS_PER_SLICE // max(len(bound.links), 1))
    bound = bound.folded()[0]
    topologies = iter(topologies)
    bounds = []
    while stack := list(islice(topologies, chunk)):
        poses = _poses(stack, problem.n_agents)[:, : 12 * bound.n_agents]  # agent 0's group
        bounds.extend(crlb.peb_stack(crlb.fim_stack(bound, poses, sigma), 0).tolist())
    return np.array(bounds, dtype=float)


def _lm_start(estimator: str, init: str) -> Tuple[Optional[str], int, bool]:
    """The init of the estimator's LM solve, its restarts, and whether a reference checks it.

    turboLS is the LM started from pair-ML.  A turboLS or random-start
    estimate is checked against a perfect-init reference solve.  The
    closed-form estimators start no LM: (None, 1, False).
    """
    if estimator not in ("numls", "turbols"):
        return None, 1, False
    lm_init = "pairml" if estimator == "turbols" else init
    strategy, restarts = estimators.parse_init_strategy(lm_init)
    return lm_init, restarts, estimator == "turbols" or strategy == "random"


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Full Monte-Carlo sweep over the configured agent counts.

    For every agent count, topologies and noise realizations are drawn from
    seed-derived streams, the configured estimator runs on each trial, and
    agent-0 statistics are aggregated: mean RMSE (per-topology RMSE over the
    noise draws, averaged over topologies), mean position error bound over
    the same topologies, and the fraction of outlier trials (error above
    10x the topology's bound).  Topologies with a singular information
    matrix are left out of the mean bound and counted in singular_bounds.

    Trials are solved in chunks of as many whole trials as _LINKS_PER_CHUNK
    links admit, and at least one; a trial's links are its link set's times
    its LM problems (_lm_start: its restarts, plus one for a reference).  A
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
    _, restarts, with_reference = _lm_start(cfg.estimator, cfg.init)
    result = ExperimentResult(config=cfg)

    def solve_chunk(keys) -> Trials:
        """The block of the (topology, noise) trials in keys, in key order.

        The chunk belongs to the agent count m of the loop below: it reads
        that count's problem and its topologies' pose rows truths, and puts
        the chunk's measurements into the problem.
        """
        index = [t for t, _ in keys]
        drawn = list(dict.fromkeys(index))
        gains = dict(zip(drawn, problem.gains(truths[drawn])))
        measured = [
            add_noise(1j * gains[t], gparams.noise_sigma, _trial_seed(cfg.seed, m, t, k, 1))
            for t, k in keys
        ]
        started = time.perf_counter()
        try:
            poses, solve, reference = solve_trials(
                cfg.estimator, cfg.init, replace(problem, y_imag=np.imag(measured)), room,
                truths[index], [_trial_seed(cfg.seed, m, t, k, 2) for t, k in keys],
            )
        except TRIAL_FAILURES as exc:
            if len(keys) > 1:
                return _join([solve_chunk([key]) for key in keys])
            kind = next(f.__name__ for f in TRIAL_FAILURES if isinstance(exc, f))
            result.failures_by_kind[kind] = result.failures_by_kind.get(kind, 0) + 1
            return Trials.empty(m)
        wall = (time.perf_counter() - started) / len(keys)
        true_pose = truths[index].reshape(-1, m, 12)
        miss = poses[..., :3] - true_pose[..., :3]
        # a trial's figures join its groups': costs summed in group order, as
        # cumsum adds (a row sum adds pairwise, which can move the last bit)
        ref_costs, flags = np.full(len(keys), np.nan), np.zeros((len(keys), m), dtype=bool)
        if reference is not None:
            ref_costs = np.cumsum(reference.final_cost, axis=-1)[:, -1]
            # a group holds whole agents, and its cost is their joint objective
            flags = solve.final_cost <= reference.final_cost + GLOBAL_MIN_COST_SLACK
            flags = np.repeat(flags, m // flags.shape[-1], axis=-1)
        return Trials(
            keys=np.array(keys),
            true_pose=true_pose,
            est_pose=poses,
            error_m=np.sqrt(np.vecdot(miss, miss)),
            global_min=flags,
            final_cost=np.cumsum(solve.final_cost, axis=-1)[:, -1],
            ref_cost=ref_costs,
            converged=solve.converged.all(axis=-1),
            iterations=solve.problem_iterations.max(axis=-1),
            wall_time_s=np.full(len(keys), wall),
        )

    for m in cfg.agent_counts():
        problem = network_problem(m, anchors, coupling, scheme)
        topologies = list(draw_topologies(cfg, m, cfg.topologies))
        topo_peb = agent0_bounds(problem, topologies, gparams.noise_sigma)
        result.singular_bounds += int(np.isnan(topo_peb).sum())
        truths = _poses(topologies, m)
        keys = [(t, k) for t in range(cfg.topologies) for k in range(cfg.noise)]
        chunk = max(1, _LINKS_PER_CHUNK // max(len(problem.links) * (restarts + with_reference), 1))
        starts = range(0, len(keys), chunk)
        block = _join([solve_chunk(keys[start : start + chunk]) for start in starts])
        result.trials.append(block)
        result.summaries.append(_summary(m, block, topo_peb))
    return result


def _summary(m: int, block: Trials, topo_peb: np.ndarray) -> SummaryRecord:
    """Agent 0's statistics over the trials of block, whose topologies have the bounds topo_peb."""
    errors, topology = block.error_m[:, 0], block.keys[:, 0]
    if not len(errors):
        return SummaryRecord(m, np.nan, _finite_mean(topo_peb), np.nan, 0)
    # one part per topology: its trials are consecutive
    parts = np.split(errors * errors, np.flatnonzero(np.diff(topology)) + 1)
    pebs = topo_peb[topology]
    outliers = int(np.sum(np.isfinite(pebs) & (errors > OUTLIER_PEB_FACTOR * pebs)))
    return SummaryRecord(
        m=m,
        mean_rmse_m=float(np.mean([np.sqrt(np.mean(part)) for part in parts])),
        mean_peb_m=_finite_mean(topo_peb),
        outlier_frac=outliers / len(errors),
        trials=len(errors),
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
    anchors, gparams = cfg.anchors(), cfg.global_params()
    coupling = coupling_coefficient(cfg.coil(), cfg.coil(), gparams)
    rows = []
    for m in counts:
        problem = network_problem(m, anchors, coupling, scheme)
        bounds = agent0_bounds(problem, draw_topologies(cfg, m, n_topologies), gparams.noise_sigma)
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


def gains_experiment(cfg: ExperimentConfig):
    """Noiseless channel-gain statistics of the cooperative link set.

    The topologies are those of the largest configured agent count.
    Returns a dict with the flat |h| sample arrays per link kind, each in
    topology, then link, then entry order, their dB CDFs and the fraction
    of all gains below the measurement error level.

    Raises:
        ConfigError: fewer than two agents, which have no agent-agent link.
    """
    m = max(cfg.agent_counts())
    if m < 2:
        raise ConfigError("the gains study needs at least two agents")
    coil = cfg.coil()
    gparams = cfg.global_params()
    coupling = coupling_coefficient(coil, coil, gparams)
    problem = network_problem(m, cfg.anchors(), coupling, Scheme.COOP)
    topologies = draw_topologies(cfg, m, cfg.topologies)
    magnitudes = np.array([np.abs(problem.gains(topo.pose_row)) for topo in topologies])
    to_agent = problem.links[:, 1] < m
    aa = magnitudes[:, to_agent].ravel()
    an = magnitudes[:, ~to_agent].ravel()
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


def _outdir(outdir, cfg: ExperimentConfig) -> Tuple[Path, Path]:
    """The output directory, made if missing, and its config.echo, written from cfg."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    echo = out / "config.echo"
    echo.write_text(cfg.echo())
    return out, echo


def emit_outputs(result: ExperimentResult, outdir) -> List[Path]:
    """Write trials.csv, summary.csv, per-label CDF files and config.echo.

    Wall times are emitted to timings.csv; all other files are byte-stable
    for a fixed configuration and seed.  global_min is left empty in a run
    without reference solves.
    """
    cfg = result.config
    out, echo = _outdir(outdir, cfg)
    with_reference = _lm_start(cfg.estimator, cfg.init)[2]
    rows, timing_rows, cdf_files = [TRIALS_HEADER], [TIMINGS_HEADER], []
    for block in result.trials:
        trials, m = block.error_m.shape
        # a trial's own columns repeat on each of its m agent rows
        costs = np.repeat(np.column_stack([block.final_cost, block.ref_cost]), m, axis=0)
        status = np.repeat(np.column_stack([block.converged, block.iterations]), m, axis=0)
        keys = np.column_stack([np.repeat(block.keys, m, axis=0), np.tile(np.arange(m), trials)])
        values = np.column_stack([
            _canonical_poses(block.true_pose), _canonical_poses(block.est_pose),
            block.error_m.ravel(), costs,
        ])
        flags = np.column_stack([block.global_min.ravel(), status])
        walls = np.repeat(block.wall_time_s, m).tolist()
        for key, row, (global_min, *rest), wall in zip(
            keys.tolist(), values.tolist(), flags.tolist(), walls
        ):
            key = [str(m), cfg.scheme, cfg.estimator, *map(str, key)]
            flag = [str(global_min) if with_reference else "", *map(str, rest)]
            rows.append(",".join(key + [_fmt(v) for v in row] + flag))
            timing_rows.append(",".join(key + [_fmt(wall)]))
        if trials:
            cdf = compute_cdf(block.error_m[:, 0])
            lines = ["error_m,cdf"] + [f"{_fmt(v)},{_fmt(p)}" for v, p in cdf]
            cdf_files.append(_write(out / f"cdf_M{m}_{cfg.scheme}_{cfg.estimator}.csv", lines))
    summary_rows = [SUMMARY_HEADER]
    for s in result.summaries:
        values = [_fmt(s.mean_rmse_m), _fmt(s.mean_peb_m), _fmt(s.outlier_frac), str(s.trials)]
        summary_rows.append(",".join([str(s.m), cfg.scheme, cfg.estimator] + values))
    return [
        _write(out / "trials.csv", rows),
        _write(out / "timings.csv", timing_rows),
        _write(out / "summary.csv", summary_rows),
        *cdf_files,
        echo,
    ]


def emit_peb_curve(rows, cfg: ExperimentConfig, scheme: Scheme, outdir) -> List[Path]:
    out, echo = _outdir(outdir, cfg)
    lines = ["M,scheme,mean_peb_m,topologies"]
    lines += [f"{m},{scheme.value},{_fmt(value)},{n}" for m, value, n in rows]
    return [_write(out / "peb.csv", lines), echo]


def emit_gains(stats, cfg: ExperimentConfig, outdir) -> List[Path]:
    out, echo = _outdir(outdir, cfg)
    written = [
        _write(
            out / f"cdf_gains_{key}.csv",
            ["gain_db,cdf"] + [f"{_fmt(v)},{_fmt(p)}" for v, p in stats[f"cdf_{key}_db"]],
        )
        for key in ("agent_agent", "agent_anchor")
    ]
    names = ("fraction_below_sigma", "median_agent_agent_db", "median_agent_anchor_db")
    summary = [",".join(names), ",".join(_fmt(stats[k]) for k in names)]
    return written + [_write(out / "gains_summary.csv", summary), echo]
