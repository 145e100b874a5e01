"""One workload in one fresh process: set up, run timed rounds, check.

Set-up is measured twice: as the CPU time of the main thread from process
start to the end of set-up, and as the wall time from the moment run.py
spawned the process, which run.py passes in.  CPU times are scaled to the
reference machine's usual speed with the reference computation of speed.py,
timed after every round.  Between passes, spread evenly
over the run, the worker starts SETUP_PROBES more processes of itself that
only set up; their set-up times and its own make the run's set-up samples.  The last line
of standard output is a JSON object with the run's raw figures; run.py turns
it into the benchmark's result line.

    python3 perfbench/worker.py --workload peb_sweep --seed 1 --seconds 30 \
        --trace 0 --spawned-at <unix time> --out .perfbench_out/run
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 2
SETUP_PROBES = 10
PROBE_TIMEOUT_S = 20


def set_up(out: Path):
    """Import miloc from the checkout and resolve the workload configuration."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401  (part of what a user's process imports)
    from miloc import channel, cli, config, crlb, harness, scenario

    import workloads

    config_path = workloads.write_config(out / "bench.cfg")
    cfg = config.ExperimentConfig.from_file(config_path)
    cfg.anchors()
    channel.coupling_coefficient(cfg.coil(), cfg.coil(), cfg.global_params())
    mi = types.SimpleNamespace(
        channel=channel, cli=cli, config=config, crlb=crlb, harness=harness, scenario=scenario
    )
    return mi, config_path


def probe_setup(args) -> float:
    """Set-up time of one fresh process that only sets up."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
        "--spawned-at", repr(time.time()), "--out", str(Path(args.out) / "probe"),
        "--setup-only",
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True
    )
    return json.loads(proc.stdout.splitlines()[-1])


def run_passes(
    workload, ctx, seconds: float, tracer=None, probe=None, probes: int = 0, reference=None
):
    """Whole passes over the workload's rounds until `seconds` have passed.

    After each round `reference` (by default speed.reference_cpu_s) times
    the reference computation, outside the round.  After each pass,
    `probe` is called as often as needed to spread `probes` calls evenly
    over the run; the time they take counts towards `seconds`
    but lies outside every round.  Returns the round results of every pass,
    when tracing the per-layer figures of each round of the first pass, and
    the probes' results.
    """
    import layers
    import speed

    reference = reference or speed.reference_cpu_s
    clock = time.perf_counter
    passes, figures, probed = [], [], []
    started = clock()
    while len(passes) < MIN_PASSES or clock() - started < seconds:
        results = []
        for index in range(workload.rounds_per_pass):
            result = workload.run_round(ctx, index, clock)
            if tracer is not None:
                trace = tracer.take_round()
                if not passes:
                    figures.append(layers.round_figures(trace))
            result.reference_s = reference()
            results.append(result)
        passes.append(results)
        due = probes * min(1.0, (clock() - started) / seconds)
        while len(probed) < due:
            probed.append(probe())
    while len(probed) < probes:
        probed.append(probe())
    return passes, figures, probed


def trials_per_cpu_second(passes) -> float:
    """Trials of one pass over the sum of each round's median CPU time,
    scaled to the reference machine's usual speed.

    The CPU time is the worker's, all threads (``time.process_time``).  On a
    virtual machine whose host lends its cores to other guests, wall time
    also runs while the host has taken a core away (steal time); CPU time
    leaves that out.  The host also runs the guest slower or faster for
    minutes at a time, which CPU time shows as much as wall time; the
    reference computation timed after every round measures that.  Every
    pass repeats the same inputs, so the median repetition of a round is
    its typical cost.  README.md gives the measurements behind this choice.
    """
    medians = [statistics.median(p[i].cpu_s for p in passes) for i in range(len(passes[0]))]
    return _rate(passes, medians) / _scale(passes)


def _scale(passes) -> float:
    import speed

    return speed.scale([r.reference_s for p in passes for r in p])


def trials_per_wall_second(passes) -> float:
    """Trials of one pass over the sum of each round's fastest wall time."""
    return _rate(passes, [min(p[i].elapsed_s for p in passes) for i in range(len(passes[0]))])


def _rate(passes, round_s) -> float:
    return sum(r.trials for r in passes[0]) / sum(round_s)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    out = Path(args.out)
    sys.path.insert(0, str(HERE))
    mi, config_path = set_up(out)
    # the main thread's CPU time leaves out the host's steal time and the
    # OpenBLAS threads, which only start and wait during set-up
    setup = {"cpu_s": time.thread_time(), "wall_s": time.time() - args.spawned_at}
    if args.setup_only:
        shutil.rmtree(out, ignore_errors=True)
        print(json.dumps(setup))
        return 0

    import envinfo
    import layers
    import tracing
    import workloads

    workload = workloads.make(args.workload)
    ctx = workloads.Context(miloc=mi, config_path=config_path, out=out, seed=args.seed)
    tracer = tracing.Tracer() if args.trace else None
    undo = tracing.install(tracer, layers.OBSERVERS) if tracer else []
    try:
        passes, figures, probed = run_passes(
            workload, ctx, args.seconds, tracer, lambda: probe_setup(args), SETUP_PROBES
        )
    finally:
        tracing.uninstall(undo)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = workload.checks(ctx)
    shutil.rmtree(out, ignore_errors=True)
    results = [r for p in passes for r in p]
    trials_per_cpu_s = trials_per_cpu_second(passes)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "rounds": len(results),
        "attempted": sum(r.trials for r in results),
        "failed": sum(r.failed for r in results),
        "correct": bool(checks) and all(bool(c.ok) for c in checks),
        "checks": [{"name": c.name, "ok": bool(c.ok), "detail": c.detail} for c in checks],
        "setup_s": statistics.median(s["cpu_s"] for s in [setup] + probed) * _scale(passes),
        "setup_cpu_samples_s": [sample["cpu_s"] for sample in [setup] + probed],
        "setup_wall_samples_s": [sample["wall_s"] for sample in [setup] + probed],
        "trials_per_cpu_s": trials_per_cpu_s,
        "wall_trials_per_s": trials_per_wall_second(passes),
        "round_s": [[r.elapsed_s for r in p] for p in passes],
        "round_cpu_s": [[r.cpu_s for r in p] for p in passes],
        "round_reference_s": [[r.reference_s for r in p] for p in passes],
        "peak_rss_mb": peak_rss_mb,
        "environment": envinfo.environment(),
    }
    if tracer is not None:
        report["per_layer"] = layers.layer_metrics(figures, passes[0])
        report["per_layer"]["trace.trials_per_cpu_s"] = {
            "value": trials_per_cpu_s, "unit": "trials/cpu-s"
        }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
