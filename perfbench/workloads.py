"""The benchmark workloads: what one round runs and how it is checked.

A pass is a fixed list of rounds; a run repeats whole passes.  Round r of a
run with seed s passes the master seed ``s * ROUND_SEED_STRIDE + r`` to
miloc, so the rounds of a pass differ from each other, every pass repeats
the same inputs, and the same (s, r) always gives the same inputs.  The
first pass keeps the outputs for the checks; later passes must reproduce
them byte for byte.  Only the program's calls inside a round are timed;
parsing and checking happen outside the timed region.
"""

from __future__ import annotations

import contextlib
import csv
import io
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from checks import (
    Check,
    all_global_min,
    coop_at_most_noncoop,
    cooperation_gain,
    cost_matches,
    errors_consistent,
    means_match,
    outlier_fraction,
    outlier_fractions_match,
    outliers,
    peb_linear_in_resistance,
    peb_matches_oracle,
    poses_match,
    ref_cost_is_minimum,
    repeats_identical,
    row_count,
)
import oracle

ROUND_SEED_STRIDE = 100_000

# Coil resistance that makes the mean non-cooperative M=1 bound equal
# harness.REFERENCE_PEB_M1_M: harness.calibrate_resistance with seed
# 20240101 and 6000 topologies, as in acceptance criterion 01.
CALIBRATED_RESISTANCE_OHM = 0.055148806366607225


def round_seed(seed: int, index: int) -> int:
    return seed * ROUND_SEED_STRIDE + index


def topology_rng(seed: int, m: int, t: int):
    """The stream harness uses for topology t at agent count m."""
    return np.random.default_rng(np.random.SeedSequence([seed, m, t, 0]))


def noise_rng(seed: int, m: int, t: int, k: int):
    return np.random.default_rng(np.random.SeedSequence([seed, m, t, k, 1]))


def write_config(path: Path) -> Path:
    """Flat key = value file with the calibrated resistance; the rest default."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(f"resistance_ohm = {CALIBRATED_RESISTANCE_OHM!r}\n")
    return path


@dataclass
class Context:
    """Everything a round needs: the imported program and the run's files."""

    miloc: object  # namespace with the imported miloc modules
    config_path: Path
    out: Path
    seed: int

    def config(self):
        return self.miloc.config.ExperimentConfig.from_file(self.config_path)


@dataclass
class RoundResult:
    trials: int
    failed: int
    elapsed_s: float  # wall time
    cpu_s: float  # CPU time of the process, all threads
    reference_s: float = 0.0  # speed.reference_cpu_s() right after the round


def _run_cli(ctx: Context, argv: List[str]) -> Tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = ctx.miloc.cli.main(argv)
    return code, buffer.getvalue()


def _read_csv(path: Path) -> List[Dict[str, str]]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _coupling(mi, cfg) -> float:
    return mi.channel.coupling_coefficient(cfg.coil(), cfg.coil(), cfg.global_params())


def _topology(mi, cfg, seed, m, t):
    return mi.scenario.sample_topology(
        m, cfg.room(), cfg.anchors(), cfg.min_distance(), topology_rng(seed, m, t)
    )


def _fd_pebs(mi, cfg, topo, cooperative) -> np.ndarray:
    poses = [np.hstack([a.position, a.euler]) for a in topo.agents]
    return oracle.fd_peb(
        mi.channel.channel_matrix, poses, topo.anchors, _coupling(mi, cfg),
        cfg.sigma, cooperative,
    )


class Repeated:
    """First-pass outputs per round, and whether later passes reproduced them."""

    def __init__(self):
        self.rounds: list = []
        self.digests: Dict[int, bytes] = {}
        self.mismatched: List[int] = []
        self.repeats = 0

    def seen(self, index: int, data: bytes) -> bool:
        """Record the round's output bytes; True if the round ran before."""
        if index not in self.digests:
            self.digests[index] = data
            return False
        self.repeats += 1
        if self.digests[index] != data:
            self.mismatched.append(index)
        return True

    def check(self, label: str) -> Check:
        return repeats_identical(self.repeats, self.mismatched, label)


# ---------------------------------------------------------------------------
# peb_sweep: calibration, cooperative sweep M=1..10, non-cooperative M=10.
# ---------------------------------------------------------------------------


@dataclass
class PebRound:
    seed: int
    calibration: object
    coop_written: Dict[int, float]
    noncoop_written: float


@dataclass
class PebBounds:
    """Agent 0's bound on each topology of one round, in the program's order."""

    cal: List[float]
    coop: Dict[int, List[float]]
    noncoop: List[float]


@dataclass
class PebSweep:
    name: str = "peb_sweep"
    cal_topologies: int = 20
    topologies: int = 3
    max_agents: int = 10
    rounds_per_pass: int = 10
    oracle_topologies: int = 2
    ratio_topologies: int = 150
    state: Repeated = field(default_factory=Repeated)

    @property
    def rounds(self) -> List[PebRound]:
        return self.state.rounds

    def trials_per_round(self) -> int:
        return self.cal_topologies + self.topologies * (self.max_agents + 1)

    def _argv(self, ctx, seed, agents, scheme, out):
        return [
            "peb", "--config", str(ctx.config_path), "--agents", agents,
            "--topologies", str(self.topologies), "--scheme", scheme,
            "--seed", str(seed), "--out", str(out),
        ]

    def run_round(self, ctx: Context, index: int, clock) -> RoundResult:
        seed = round_seed(ctx.seed, index)
        harness, ExperimentConfig = ctx.miloc.harness, ctx.miloc.config.ExperimentConfig
        m = self.max_agents
        start, cpu_start = clock(), time.process_time()
        calibration = harness.calibrate_resistance(
            ExperimentConfig(seed=seed), topologies=self.cal_topologies
        )
        coop_code, _ = _run_cli(ctx, self._argv(ctx, seed, f"1..{m}", "coop", ctx.out / "coop"))
        non_code, _ = _run_cli(ctx, self._argv(ctx, seed, str(m), "noncoop", ctx.out / "noncoop"))
        elapsed, cpu = clock() - start, time.process_time() - cpu_start
        failed = (self.topologies * m if coop_code else 0) + (self.topologies if non_code else 0)
        if not failed:
            self._collect(ctx, index, seed, calibration)
        return RoundResult(self.trials_per_round(), failed, elapsed, cpu)

    def _collect(self, ctx, index, seed, calibration):
        coop_csv = (ctx.out / "coop" / "peb.csv").read_bytes()
        non_csv = (ctx.out / "noncoop" / "peb.csv").read_bytes()
        data = coop_csv + non_csv + repr(calibration.base_peb_m).encode()
        if self.state.seen(index, data):
            return
        coop_rows = _read_csv(ctx.out / "coop" / "peb.csv")
        non_rows = _read_csv(ctx.out / "noncoop" / "peb.csv")
        self.rounds.append(
            PebRound(
                seed=seed,
                calibration=calibration,
                coop_written={int(r["M"]): float(r["mean_peb_m"]) for r in coop_rows},
                noncoop_written=float(non_rows[0]["mean_peb_m"]) if non_rows else float("nan"),
            )
        )

    @staticmethod
    def _bounds(mi, cfg, seed, m, topologies, cooperative) -> List[float]:
        """Agent 0's bound per topology, from the calls ``miloc peb`` makes."""
        coupling = _coupling(mi, cfg)
        values = []
        for t in range(topologies):
            topo = _topology(mi, cfg, seed, m, t)
            info = mi.crlb.assemble_fim(topo.agents, topo.anchors, coupling, cfg.sigma, cooperative)
            values.append(mi.crlb.peb(info, 0))
        return values

    def _round_bounds(self, ctx: Context, rnd: PebRound) -> PebBounds:
        mi, t, m = ctx.miloc, self.topologies, self.max_agents
        base_cfg, bench_cfg = mi.config.ExperimentConfig(seed=rnd.seed), ctx.config()
        return PebBounds(
            cal=self._bounds(mi, base_cfg, rnd.seed, 1, self.cal_topologies, False),
            coop={k: self._bounds(mi, bench_cfg, rnd.seed, k, t, True) for k in range(1, m + 1)},
            noncoop=self._bounds(mi, bench_cfg, rnd.seed, m, t, False),
        )

    def checks(self, ctx: Context) -> List[Check]:
        """Checks on the first pass; its per-topology bounds are recomputed here.

        ``miloc peb`` writes only the mean bound per agent count, so the
        bounds behind each mean are rebuilt, untimed, from the same seeds.
        """
        mi = ctx.miloc
        if not self.rounds:
            return [Check("rounds_completed", False, "no round finished without failure")]
        bounds = [self._round_bounds(ctx, rnd) for rnd in self.rounds]
        out = [self.state.check("peb.csv and calibration")]
        # the written means are the means of the per-topology bounds
        pairs = []
        for rnd, b in zip(self.rounds, bounds):
            pairs.append((b.cal, rnd.calibration.base_peb_m))
            pairs += [(vals, rnd.coop_written.get(m, np.nan)) for m, vals in b.coop.items()]
            pairs.append((b.noncoop, rnd.noncoop_written))
        out.append(means_match(pairs, "peb.csv and calibration"))
        coop10 = [v for b in bounds for v in b.coop[self.max_agents]]
        non10 = [v for b in bounds for v in b.noncoop]
        out.append(coop_at_most_noncoop(coop10, non10))
        # a pass holds too few M=10 topologies to pin the mean ratio; more
        # come from a seed stream that no round uses
        extra_seed = round_seed(ctx.seed, ROUND_SEED_STRIDE - 1)
        extra = [
            self._bounds(mi, ctx.config(), extra_seed, self.max_agents, self.ratio_topologies, coop)
            for coop in (True, False)
        ]
        out.append(cooperation_gain(coop10 + extra[0], non10 + extra[1]))

        first = self.rounds[0]
        cal = first.calibration
        rescaled = mi.harness.mean_peb_curve(
            cal.config, agent_counts=[1], topologies=self.cal_topologies,
            scheme=mi.scenario.Scheme.NONCOOP,
        )[0][1]
        out.append(
            peb_linear_in_resistance(cal.base_peb_m, rescaled, cal.resistance_ohm / cal.base_resistance_ohm)
        )

        base_cfg = mi.config.ExperimentConfig(seed=first.seed)
        bench_cfg = ctx.config()
        cases = [(base_cfg, 1, False, bounds[0].cal)]
        cases += [(bench_cfg, m, True, bounds[0].coop[m]) for m in range(1, self.max_agents + 1)]
        cases += [(bench_cfg, self.max_agents, False, bounds[0].noncoop)]
        program, reference = [], []
        for cfg, m, cooperative, values in cases:
            for t in range(min(self.oracle_topologies, len(values))):
                program.append(values[t])
                topo = _topology(mi, cfg, first.seed, m, t)
                reference.append(float(_fd_pebs(mi, cfg, topo, cooperative)[0]))
        out.append(peb_matches_oracle(program, reference, "sampled topologies"))
        return out


# ---------------------------------------------------------------------------
# coop_turbols_m10: miloc simulate, turboLS, cooperative, M=10.
# noncoop_random5_m10: miloc simulate, numls from 5 random starts, M=10.
# ---------------------------------------------------------------------------

FAILED_RE = re.compile(r"warning: (\d+) trial\(s\) failed")
TEXT_COLUMNS = ("scheme", "estimator")


@dataclass
class SimRound:
    """One round's trials.csv as a float table, plus its summary.csv row."""

    seed: int
    columns: Dict[str, int]
    table: np.ndarray  # (rows, numeric columns)
    summary: Dict[str, float]

    def col(self, name: str) -> np.ndarray:
        return self.table[:, self.columns[name]]

    def pose(self, rows: np.ndarray, prefix: str) -> np.ndarray:
        keys = [f"{prefix}_{k}" for k in ("x", "y", "z", "alpha", "beta", "gamma")]
        return rows[:, [self.columns[k] for k in keys]]


def _read_round(out: Path, seed: int) -> SimRound:
    """Parse the trials.csv and summary.csv that one simulate call wrote."""

    def number(text):
        return float(text) if text != "" else float("nan")

    rows = _read_csv(out / "trials.csv")
    names = [k for k in (rows[0] if rows else {}) if k not in TEXT_COLUMNS]
    table = np.array([[number(r[k]) for k in names] for r in rows], dtype=float)
    summary = {
        k: (v if k in TEXT_COLUMNS else number(v))
        for k, v in _read_csv(out / "summary.csv")[0].items()
    }
    return SimRound(
        seed, {k: i for i, k in enumerate(names)}, table.reshape(len(rows), len(names)), summary
    )


@dataclass
class Simulate:
    name: str
    estimator: str
    scheme: str
    topologies: int
    noise: int
    rounds_per_pass: int
    init: str = ""
    agents: int = 10
    state: Repeated = field(default_factory=Repeated)

    @property
    def rounds(self) -> List[SimRound]:
        return self.state.rounds

    @property
    def cooperative(self) -> bool:
        return self.scheme == "coop"

    def trials_per_round(self) -> int:
        return self.topologies * self.noise

    def _argv(self, ctx, seed, out):
        return [
            "simulate", "--config", str(ctx.config_path),
            "--estimator", self.estimator, "--scheme", self.scheme,
            "--agents", str(self.agents), "--topologies", str(self.topologies),
            "--noise", str(self.noise), "--seed", str(seed), "--out", str(out),
        ] + (["--init", self.init] if self.init else [])

    def run_round(self, ctx: Context, index: int, clock) -> RoundResult:
        seed = round_seed(ctx.seed, index)
        argv = self._argv(ctx, seed, ctx.out / "round")
        start, cpu_start = clock(), time.process_time()
        code, stdout = _run_cli(ctx, argv)
        elapsed, cpu = clock() - start, time.process_time() - cpu_start
        if code:
            return RoundResult(self.trials_per_round(), self.trials_per_round(), elapsed, cpu)
        match = FAILED_RE.search(stdout)
        failed = int(match.group(1)) if match else 0
        self._collect(ctx.out / "round", index, seed)
        return RoundResult(self.trials_per_round(), failed, elapsed, cpu)

    def _collect(self, out: Path, index: int, seed: int):
        data = (out / "trials.csv").read_bytes() + (out / "summary.csv").read_bytes()
        if not self.state.seen(index, data):
            self.rounds.append(_read_round(out, seed))

    def checks(self, ctx: Context) -> List[Check]:
        mi = ctx.miloc
        if not self.rounds:
            return [Check("rounds_completed", False, "no round finished")]
        cfg = ctx.config()
        expected = self.trials_per_round() * self.agents
        short = [r.seed for r in self.rounds if len(r.table) != expected]
        out = [
            self.state.check("trials.csv and summary.csv"),
            row_count(
                sum(len(r.table) for r in self.rounds), expected * len(self.rounds),
                f"{len(self.rounds)} rounds, short: {short}",
            ),
            errors_consistent(self.rounds),
        ]
        out += self._trial_checks(mi, cfg)
        # by finite differences a cooperative M=10 bound takes thousands of
        # channel evaluations, so there only the first round is rebuilt
        rounds = self.rounds[:1] if self.cooperative else self.rounds
        bounds = [self._fd_bounds(mi, cfg, rnd) for rnd in rounds]
        peb0 = [b[0] for b in bounds[0]]
        written = self.rounds[0].summary["mean_peb_m"]
        out.append(peb_matches_oracle([written], [float(np.mean(peb0))], "written mean_peb_m"))
        if self.estimator == "turbols":
            out.append(all_global_min(self.rounds))
        else:
            out += self._outlier_checks(rounds, bounds)
        return out

    def _trial_checks(self, mi, cfg) -> List[Check]:
        """Rebuild the first trial from its seeds and test the written costs.

        Only one trial: with a cost built from the single-link channel, the
        scipy solve of a cooperative M=10 trial takes about 2 s.
        """
        rnd, t, k = self.rounds[0], 0, 0
        label = f"s{rnd.seed} t{t} k{k}"
        rows = rnd.table[(rnd.col("topology") == t) & (rnd.col("noise") == k)]
        rows = rows[np.argsort(rows[:, rnd.columns["agent"]])]
        topo = _topology(mi, cfg, rnd.seed, self.agents, t)
        truth = [a.as_vector() for a in topo.agents]
        poses = poses_match(rnd.pose(rows, "true"), np.array(truth), label)
        if not poses.ok:
            return [poses]
        data = mi.scenario.synthesize_measurements(
            topo, cfg.coil(), cfg.global_params(), mi.scenario.Scheme(self.scheme),
            noise_rng(rnd.seed, self.agents, t, k),
        )
        measured = {(m.tx, m.rx): m.h_meas for m in data.measurements}
        coupling = _coupling(mi, cfg)
        recomputed = oracle.model_cost(
            mi.channel.channel_matrix, list(rnd.pose(rows, "est")), topo.anchors, coupling,
            measured, self.cooperative,
        )
        minimum = oracle.reference_cost(
            mi.channel.channel_matrix, truth, topo.anchors, coupling, measured,
            cfg.sigma, self.cooperative,
        )
        return [
            poses,
            cost_matches(rows[0, rnd.columns["final_cost"]], recomputed, label),
            ref_cost_is_minimum(rows[0, rnd.columns["ref_cost"]], minimum, label),
        ]

    def _fd_bounds(self, mi, cfg, rnd: SimRound) -> List[np.ndarray]:
        """Every agent's finite-difference bound on each topology of a round."""
        return [
            _fd_pebs(mi, cfg, _topology(mi, cfg, rnd.seed, self.agents, t), self.cooperative)
            for t in range(self.topologies)
        ]

    @staticmethod
    def _outlier_checks(rounds: List[SimRound], bounds) -> List[Check]:
        """Outliers counted against the finite-difference bounds.

        ``summary.csv`` counts agent 0 only.  Without cooperation the agents
        are solved apart and placed alike, so the interval check pools
        every agent, ten times the sample.
        """
        pairs, flags = [], []
        for rnd, per_topology in zip(rounds, bounds):
            topology, agent = rnd.col("topology").astype(int), rnd.col("agent").astype(int)
            pebs = np.array([per_topology[t][a] for t, a in zip(topology, agent)])
            outlier = outliers(rnd.col("error_m"), pebs)
            pairs.append((rnd.summary["outlier_frac"], float(np.mean(outlier[agent == 0]))))
            flags.append(outlier)
        return [outlier_fractions_match(pairs), outlier_fraction(np.concatenate(flags))]


def make(name: str):
    if name == "peb_sweep":
        return PebSweep()
    if name == "coop_turbols_m10":
        return Simulate(
            name=name, estimator="turbols", scheme="coop",
            topologies=1, noise=4, rounds_per_pass=10,
        )
    if name == "noncoop_random5_m10":
        return Simulate(
            name=name, estimator="numls", scheme="noncoop", init="random:5",
            topologies=2, noise=1, rounds_per_pass=16,
        )
    raise KeyError(name)


WORKLOADS = ("peb_sweep", "coop_turbols_m10", "noncoop_random5_m10")
