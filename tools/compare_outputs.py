"""Compare the CLI outputs of two source trees of miloc, byte for byte.

Usage:
    python tools/compare_outputs.py PARENT_TREE CHANGE_TREE

Each tree is a checkout holding src/miloc.  The script runs one fixed-seed
matrix of CLI runs in each tree (RUNS below), each tree from its own
scratch directory with output directories of the same relative names, one
BLAS thread, and the calibrated coil resistance from a configuration file.
Some runs read another configuration file (CONFIGS): anchors.cfg also sets
anchor_layout to a valid non-default layout (ANCHORS), whose anchors a
topology sample writes back, and noisy.cfg raises
the noise to NOISY_SIGMA, where pair-ML also takes its fallbacks.
It then compares every file the runs wrote (timings.csv, which holds wall
times, left out) and each run's exit code, stdout and stderr.  It prints
each difference and exits 1 if there is any, 0 otherwise.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

RESISTANCE_OHM = 0.055148806366607225
SEED = "7"
NOISY_SIGMA = 3e-4
IGNORED = {"timings.csv"}

# a fixture with an agent outside the room and an agent pair below the minimum distance
VIOLATIONS = """# room 0 0 0 1.5 1.5 1.5
0 anchor 0.75 0 0.375 0 0 0
1 agent 0.5 0.5 0.5 0 0 0
2 agent 0.55 0.5 0.5 0.1 0.2 0.3
3 agent 2 0.7 0.02 0 0 0
"""

# a valid anchor_layout: the four anchors moved off the default layout, two of them turned
ANCHORS = """# room 0 0 0 1.5 1.5 1.5
0 anchor 0.6 0 0.3 0 0 0
1 anchor 1.5 0.9 1.2 0.4 -0.3 1.1
2 anchor 0.8 1.5 0.5 0 0 0
3 anchor 0 0.7 1.0 -1.2 0.5 0.2
"""


def _simulate(estimator, scheme, agents, trials, init="perfect", noise=None):
    """A simulate run of trials topologies x noise draws (trials x trials by default)."""
    return [
        "simulate", "--estimator", estimator, "--scheme", scheme, "--init", init,
        "--agents", agents, "--topologies", trials, "--noise", noise or trials,
    ]


RUNS = {
    "peb_coop": ["peb", "--scheme", "coop", "--agents", "1..10", "--topologies", "20"],
    "peb_noncoop": ["peb", "--scheme", "noncoop", "--agents", "10", "--topologies", "20"],
    "turbols_coop": _simulate("turbols", "coop", "10", "4"),
    "turbols_noncoop": _simulate("turbols", "noncoop", "10", "4"),
    "numls_perfect_coop": _simulate("numls", "coop", "1,3,10", "3"),
    "numls_random5_noncoop": _simulate("numls", "noncoop", "10", "3", "random:5"),
    "numls_random2_coop_small": _simulate("numls", "coop", "1..4", "2", "random:2"),
    "numls_random2_coop_m10": _simulate("numls", "coop", "10", "2", "random:2"),
    "pairml_noncoop": _simulate("pairml", "noncoop", "1..10", "3"),
    "pairml_noncoop_noisy": _simulate("pairml", "noncoop", "1..10", "3"),
    "multilateration_noncoop": _simulate("multilateration", "noncoop", "1..10", "3"),
    "gains": ["gains", "--agents", "10", "--topologies", "20"],
    "topology_sample": ["topology", "sample", "out/topology_sample/m7.txt", "--agents", "7"],
    "topology_check": ["topology", "check", "out/topology_sample/m7.txt"],
    "topology_check_violations": ["topology", "check", "violations.txt"],
    "topology_sample_anchor_layout": [
        "topology", "sample", "out/topology_sample_anchor_layout/m7.txt", "--agents", "7",
    ],
    "peb_anchor_layout": ["peb", "--scheme", "coop", "--agents", "1..6", "--topologies", "10"],
    "turbols_anchor_layout": _simulate("turbols", "coop", "4", "2"),
    # checked runs of several chunks of trials (7 and 8 trials per chunk)
    "turbols_coop_chunks": _simulate("turbols", "coop", "10", "8", noise="4"),
    "numls_random5_noncoop_chunks": _simulate("numls", "noncoop", "10", "5", "random:5", "4"),
}
CONFIGS = {
    "topology_sample_anchor_layout": "anchors.cfg",
    "peb_anchor_layout": "anchors.cfg",
    "turbols_anchor_layout": "anchors.cfg",
    "pairml_noncoop_noisy": "noisy.cfg",
}


def run_tree(tree: Path, work: Path) -> dict:
    """Run RUNS in order with tree's sources from work; (exit code, stdout, stderr) per run."""
    work.mkdir(parents=True)
    (work / "bench.cfg").write_text(f"resistance_ohm = {RESISTANCE_OHM!r}\n")
    (work / "anchors.cfg").write_text(
        f"resistance_ohm = {RESISTANCE_OHM!r}\nanchor_layout = anchors.txt\n"
    )
    (work / "noisy.cfg").write_text(
        f"resistance_ohm = {RESISTANCE_OHM!r}\nsigma = {NOISY_SIGMA!r}\n"
    )
    (work / "violations.txt").write_text(VIOLATIONS)
    (work / "anchors.txt").write_text(ANCHORS)
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"), OPENBLAS_NUM_THREADS="1")
    results = {}
    for name, args in RUNS.items():
        config = CONFIGS.get(name, "bench.cfg")
        argv = args + ["--config", config, "--seed", SEED, "--out", f"out/{name}"]
        done = subprocess.run(
            [sys.executable, "-m", "miloc.cli", *argv],
            cwd=work, env=env, capture_output=True, text=True,
        )
        results[name] = (done.returncode, done.stdout, done.stderr)
        print(f"{tree}: {name} exit {done.returncode}", flush=True)
    return results


def written(work: Path) -> dict:
    """Relative path -> bytes of every file the runs wrote under work, IGNORED left out."""
    return {
        str(path.relative_to(work)): path.read_bytes()
        for path in sorted(work.rglob("*"))
        if path.is_file() and path.name not in IGNORED
    }


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    trees = [Path(a) for a in args]
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as scratch:
        works = [Path(scratch) / side for side in ("parent", "change")]
        runs = [run_tree(tree, work) for tree, work in zip(trees, works)]
        files = [written(work) for work in works]
    differences = []
    for name in RUNS:
        for label, a, b in zip(("exit code", "stdout", "stderr"), runs[0][name], runs[1][name]):
            if a != b:
                differences.append(f"{name}: {label} differs")
    for path in sorted(set(files[0]) | set(files[1])):
        if path not in files[0] or path not in files[1]:
            side = "change" if path in files[1] else "parent"
            differences.append(f"{path}: written in the {side} tree only")
        elif files[0][path] != files[1][path]:
            differences.append(f"{path}: contents differ")
    for line in differences:
        print(f"DIFFERS {line}")
    print(
        f"{len(RUNS)} runs, {len(set(files[0]) | set(files[1]))} files "
        f"({', '.join(sorted(IGNORED))} left out): "
        + (f"{len(differences)} difference(s)" if differences else "all byte-identical")
    )
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
