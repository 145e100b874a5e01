"""CPU time per call of miloc's layers on fixed shapes, per source tree, from alternating processes.

Usage:
    python tools/layer_costs.py [[NAME=]TREE ...] [--processes 10] [--json PATH]

Each TREE is a checkout holding src/miloc (default: the checkout holding
this script), named NAME in the output (default: the directory's name).
The script starts `--processes` worker processes per tree, the trees in
turn (the order flipped on every other turn), each a fresh interpreter with
one BLAS thread and the tree's src on PYTHONPATH.  On a shared machine the
timings of one shape drift from one run to the next by more than the change
a layer makes, so only alternating processes resolve such a change.

A worker builds every shape below from fixed seeds, calls each layer once
untimed, then times it in passes of enough calls to take 20 ms or more;
its figure for the layer is the fastest of 5 passes, in CPU microseconds
per call.  The layers:

- `channel_gain_batch` and the derivative kernel at 4, 255 and 480 random
  links, every second link listed as a receiver (in a tree without
  `jacobian_rows`, the transmitter columns, the receiver columns of the
  listed links and their concatenation);
- `LsProblem._link_sums` of 1 and 60 one-agent problems (non-cooperative
  M=10 anchor problems, 4 anchor links each) and of 1 and 3 folded
  cooperative M=10 problems, at measured points of their truths;
- `crlb.fim_stack` then `crlb.peb_stack` of cooperative M=10 over 3
  topologies;
- `pairml.pair_ml_estimate` of 40 agents (4 non-cooperative M=10 sets).

The script prints, per layer, each tree's median and quartiles over its
processes, and the ratio of each tree's median to the first tree's; with
--json it also writes every process's figures with the environment.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from work_ledger import RESISTANCE_OHM, THREAD_VARIABLES, environment

SEED = 20_240_202
PASSES = 5
PASS_SECONDS = 0.02


def _derivative_kernel(channel):
    """The tree's both-ends derivative kernel, called as LsProblem._link_sums calls it."""
    if hasattr(channel, "jacobian_rows"):
        return channel.jacobian_rows
    import numpy as np

    def columns(r, u, gains, o_tx, o_rx, coupling, receivers):
        cols = channel.transmitter_columns(r, u, gains, o_tx, o_rx, coupling)
        return np.concatenate([cols, channel.receiver_columns(cols[receivers], gains[receivers])])

    return columns


def shapes() -> dict:
    """Layer name -> a call of no arguments, every input built from fixed seeds."""
    import numpy as np

    from miloc import channel, crlb, pairml
    from miloc.channel import CoilParams, GlobalParams, add_noise, coupling_coefficient
    from miloc.geometry import Room, sample_uniform_rotation
    from miloc.scenario import Scheme, default_anchors, network_problem, sample_topology

    rng = np.random.default_rng(SEED)
    room = Room.cube(1.5)
    anchors = default_anchors(room)
    params = GlobalParams()
    coil = CoilParams(turns=5, diameter=0.05, resistance=RESISTANCE_OHM)
    coupling = coupling_coefficient(coil, coil, params)
    kernel = _derivative_kernel(channel)
    calls = {}
    for n in (4, 255, 480):
        p_tx, p_rx = rng.uniform(0.0, 1.5, (2, n, 3))
        o_tx, o_rx = sample_uniform_rotation(rng, n), sample_uniform_rotation(rng, n)
        gains, r, u, _ = channel.channel_gain_batch(p_tx, o_tx, p_rx, o_rx, coupling)
        receivers = np.arange(0, n, 2)
        calls[f"channel_gain_batch, {n} links"] = (
            lambda p_tx=p_tx, o_tx=o_tx, p_rx=p_rx, o_rx=o_rx: channel.channel_gain_batch(
                p_tx, o_tx, p_rx, o_rx, coupling
            )
        )
        calls[f"derivative kernel, {n} links"] = (
            lambda a=(r, u, gains, o_tx, o_rx, coupling, receivers): kernel(*a)
        )

    def measured(scheme, sets):
        """The scheme's M=10 problem with sets measured sets, and their truths (sets, 120)."""
        problem = network_problem(10, anchors, coupling, scheme)
        topologies = [sample_topology(10, room, anchors, 0.15, rng) for _ in range(sets)]
        truths = np.stack([topology.pose_row for topology in topologies])
        y = np.imag(add_noise(1j * problem.gains(truths), params.noise_sigma, rng))
        return dataclasses.replace(problem, y_imag=y), truths

    noncoop, truths = measured(Scheme.NONCOOP, 6)
    alone = noncoop.anchor_problem()  # 60 one-agent problems, set-major
    rows = truths.reshape(60, 12)
    for k in (1, 60):
        point = alone.evaluate(rows[:k], np.arange(k))[1]
        calls[f"_link_sums, {k} one-agent problems"] = (
            lambda point=point: alone._link_sums(point, slice(None))
        )
    coop, truths = measured(Scheme.COOP, 3)
    folded = coop.folded()[0]
    for k in (1, 3):
        point = folded.evaluate(truths[:k], np.arange(k))[1]
        calls[f"_link_sums, {k} folded coop M=10"] = (
            lambda point=point: folded._link_sums(point, slice(None))
        )
    calls["fim_stack + peb_stack, coop M=10, 3 topologies"] = lambda: crlb.peb_stack(
        crlb.fim_stack(coop, truths, params.noise_sigma), 0
    )
    noncoop40 = measured(Scheme.NONCOOP, 4)[0].anchor_problem()
    calls["pair_ml_estimate, 40 agents"] = lambda: pairml.pair_ml_estimate(noncoop40, room)
    return calls


def worker() -> dict:
    """Each layer's fastest pass, CPU microseconds per call, in this process."""
    import miloc

    if Path(miloc.__file__).resolve().parents[1] != Path(os.environ["PYTHONPATH"]).resolve():
        sys.exit("miloc was not imported from the tree's src")
    clock, figures = time.process_time, {}
    for name, call in shapes().items():
        call()
        number, start = 0, clock()
        while clock() - start < PASS_SECONDS:
            call()
            number += 1
        best = float("inf")
        for _ in range(PASSES):
            start = clock()
            for _ in range(number):
                call()
            best = min(best, (clock() - start) / number)
        figures[name] = round(best * 1e6, 2)
    return {"environment": environment(), "us_per_call": figures}


def run_worker(tree: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
    env.update({variable: "1" for variable in THREAD_VARIABLES})
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker"],
        env=env, capture_output=True, text=True,
    )
    if done.returncode:
        sys.exit(f"{tree}: worker failed:\n{done.stderr}")
    return json.loads(done.stdout)


def quartiles(values):
    import numpy as np

    return [round(float(q), 2) for q in np.percentile(values, (25, 50, 75))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", help="[NAME=]TREE, a checkout holding src/miloc")
    parser.add_argument("--processes", type=int, default=10, help="worker processes per tree")
    parser.add_argument("--json", type=Path, help="write every process's figures here")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(worker()))
        return 0
    trees = []
    for spec in args.trees or [str(Path(__file__).resolve().parents[1])]:
        name, _, path = spec.rpartition("=")
        trees.append((name or Path(path).resolve().name, Path(path)))
    runs = {name: [] for name, _ in trees}
    for turn in range(args.processes):
        for name, tree in trees if turn % 2 == 0 else trees[::-1]:
            runs[name].append(run_worker(tree))
    layers = list(runs[trees[0][0]][0]["us_per_call"])
    stats = {
        name: {layer: quartiles([r["us_per_call"][layer] for r in records]) for layer in layers}
        for name, records in runs.items()
    }
    first = trees[0][0]
    header = " | ".join(f"{name} µs median (quartiles)" for name, _ in trees)
    ratios = " | ".join(f"{name} / {first}" for name, _ in trees[1:])
    print(f"| layer | {header} |" + (f" {ratios} |" if ratios else ""))
    print("| --- " * (1 + len(trees) + len(trees[1:])) + "|")
    for layer in layers:
        cells = [f"{s[layer][1]} ({s[layer][0]}–{s[layer][2]})" for s in stats.values()]
        base = stats[first][layer][1]
        cells += [f"×{stats[name][layer][1] / base:.3f}" for name, _ in trees[1:]]
        print(f"| {layer} | " + " | ".join(cells) + " |")
    if args.json:
        record = {
            "what": __doc__.splitlines()[0],
            "command": "python tools/layer_costs.py "
            + " ".join(f"{name}=<tree>" for name, _ in trees) + f" --processes {args.processes}",
            "quartiles_us": stats,
            "runs": runs,
        }
        args.json.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
