"""miloc benchmark: run one workload, or all of them, and print the figures.

    python3 perfbench/run.py --workload coop_turbols_m10 --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, seed 0, one after another

Each workload runs in a fresh worker process (worker.py) that imports miloc
from ``src/`` of this checkout.  Set-up time is the CPU time of a process's
main thread from its start to the moment its first round could start; the
worker also starts set-up-only processes of itself spread over the run, and
the median over all of them is reported.  CPU times are scaled to the
reference machine's usual speed (speed.py).  After each workload's summary comes
one line with a JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics, or with ``--trace 1`` the per-layer metrics;
for a single workload it is the last line of standard output.  A record
with the environment, every check and the raw figures is written to
.perfbench_out/results/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("peb_sweep", "coop_turbols_m10", "noncoop_random5_m10")
# beyond --seconds: the last pass, the set-up probes owed and the checks
WORKER_MARGIN_S = 100


class BenchError(RuntimeError):
    """A worker failed or printed no result."""


def run_workload(args) -> dict:
    # relative to the checkout, so written paths do not depend on where it lies
    out = Path(OUT.name) / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spawned-at", repr(time.time()), "--out", str(out / "run"),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=args.seconds + WORKER_MARGIN_S
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed nothing")
    report = json.loads(lines[-1])
    report["environment"]["git_commit"] = _git_commit()
    if args.trace:
        metrics = report["per_layer"]
    else:
        metrics = {
            "trials_per_cpu_s": {"value": report["trials_per_cpu_s"], "unit": "trials/cpu-s"},
            "setup_s": {"value": report["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    report["metrics"] = metrics
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(report, indent=1) + "\n")
    try:
        (ROOT / out).rmdir()
    except OSError:
        pass
    return report


def _git_commit() -> str:
    sys.path.insert(0, str(HERE))
    import envinfo

    return envinfo.git_commit(ROOT)


def _print(report: dict) -> None:
    failed = [c for c in report["checks"] if not c["ok"]]
    print(
        f"{report['workload']} seed={report['seed']} trace={report['trace']}: "
        f"{report['passes']} passes of {report['rounds'] // report['passes']} rounds, "
        f"{report['attempted']} trials attempted, "
        f"{report['failed']} failed, checks "
        f"{len(report['checks']) - len(failed)}/{len(report['checks'])} passed"
    )
    for check in failed:
        print(f"  FAILED {check['name']}: {check['detail']}")
    for name, metric in report["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(
        f"  wall clock, no bound: {report['wall_trials_per_s']:.6g} trials/s, "
        f"set-up {statistics.median(report['setup_wall_samples_s']):.6g} s"
    )
    env = report["environment"]
    print(
        f"  environment: {env['cores']} cores, Python {env['python']}, numpy {env['numpy']}, "
        f"threads {env['threads_env']}, commit {env['git_commit']}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="miloc benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "miloc" / "__init__.py").is_file():
        print(f"no miloc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            report = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
            _print(report)
            print(json.dumps({key: report[key] for key in ("correct", "attempted", "failed", "metrics")}))
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
