"""Command-line front end.

Subcommands:
    peb        bound-only sweep over agent counts
    simulate   Monte-Carlo estimator runs (RMSE, CDFs)
    gains      channel-gain CDFs of the cooperative link set
    topology   sample or check topology fixture files

Exit codes: 0 success, 2 configuration error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, ExperimentConfig
from . import harness, scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _load_config(args) -> ExperimentConfig:
    if getattr(args, "config", None):
        cfg = ExperimentConfig.from_file(args.config)
    else:
        cfg = ExperimentConfig()
    overrides = {}
    for flag, key in (
        ("agents", "agents"),
        ("topologies", "topologies"),
        ("noise", "noise"),
        ("seed", "seed"),
        ("out", "out"),
        ("estimator", "estimator"),
        ("init", "init"),
        ("scheme", "scheme"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[key] = value
    return cfg.override(**overrides)


def _add_common(parser, with_noise=False, with_estimator=False, with_scheme=False):
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument("--agents", help="agent counts: N, lo..hi or comma list")
    parser.add_argument("--topologies", type=int, help="topologies per agent count")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--out", help="output directory")
    if with_noise:
        parser.add_argument("--noise", type=int, help="noise realizations per topology")
    if with_estimator:
        parser.add_argument(
            "--estimator", choices=["numls", "pairml", "turbols", "multilateration"]
        )
        parser.add_argument("--init", help="numls initialization: perfect, random:<k> or pairml")
    if with_estimator or with_scheme:
        parser.add_argument("--scheme", choices=["coop", "noncoop"])


def _cmd_peb(args) -> int:
    cfg = _load_config(args)
    scheme = cfg.scheme_enum()
    rows = harness.mean_peb_curve(cfg, scheme=scheme)
    harness.emit_peb_curve(rows, cfg, scheme, cfg.out)
    for m, value, n in rows:
        print(f"M={m} scheme={scheme.value} mean_peb={value * 1e3:.4f} mm ({n} topologies)")
    skipped = sum(cfg.topologies - n for _, _, n in rows)
    if skipped:
        print(f"warning: skipped {skipped} topologies whose information matrix is singular")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    result = harness.run_experiment(cfg)
    harness.emit_outputs(result, cfg.out)
    for s in result.summaries:
        print(
            f"M={s.m} scheme={s.scheme} estimator={s.estimator} "
            f"mean_rmse={s.mean_rmse_m * 1e3:.4f} mm mean_peb={s.mean_peb_m * 1e3:.4f} mm "
            f"outliers={s.outlier_frac:.3f} trials={s.trials}"
        )
    if result.failures:
        print(f"warning: {result.failures} trial(s) failed and were skipped")
    return EXIT_OK


def _cmd_gains(args) -> int:
    cfg = _load_config(args)
    stats = harness.gains_experiment(cfg)
    harness.emit_gains(stats, cfg, cfg.out)
    print(
        f"fraction below sigma: {stats['fraction_below_sigma'] * 100:.2f}% | "
        f"median agent-agent {stats['median_agent_agent_db']:.2f} dB, "
        f"agent-anchor {stats['median_agent_anchor_db']:.2f} dB"
    )
    return EXIT_OK


def _cmd_topology(args) -> int:
    cfg = _load_config(args)
    if args.action == "sample":
        counts = cfg.agent_counts()
        rng = harness._trial_seed(cfg.seed, counts[-1], 0, 0)
        topo = scenario.sample_topology(
            counts[-1], cfg.room(), cfg.anchors(), cfg.min_distance(), rng
        )
        target = Path(args.file)
        target.parent.mkdir(parents=True, exist_ok=True)
        scenario.save_topology(topo, target)
        print(f"wrote {target} ({topo.n_agents} agents, {topo.n_anchors} anchors)")
        return EXIT_OK
    topo = scenario.load_topology(args.file, room=None)
    problems = scenario.check_topology(topo, cfg.min_distance())
    if problems:
        for p in problems:
            print(f"violation: {p}")
        return EXIT_RUNTIME
    print(f"ok: {topo.n_agents} agents, {topo.n_anchors} anchors")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="miloc",
        description="Cooperative magneto-inductive localization simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("peb", help="bound-only sweep")
    _add_common(p, with_scheme=True)
    p.set_defaults(func=_cmd_peb)

    p = sub.add_parser("simulate", help="Monte-Carlo estimator runs")
    _add_common(p, with_noise=True, with_estimator=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("gains", help="channel-gain CDFs")
    _add_common(p)
    p.set_defaults(func=_cmd_gains)

    p = sub.add_parser("topology", help="topology fixture tooling")
    p.add_argument("action", choices=["sample", "check"])
    p.add_argument("file", help="topology file to write or validate")
    _add_common(p)
    p.set_defaults(func=_cmd_topology)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, matching the config-error code
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
