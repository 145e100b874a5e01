"""CPU cost of the stacked Levenberg-Marquardt rounds of a random-start solve, by active problems.

Usage:
    PYTHONPATH=src python tools/round_costs.py [--first 100000] [--rounds 16] [--repeats 3]

The script runs `miloc simulate --estimator numls --init random:5 --scheme
noncoop --agents 10 --topologies 2 --noise 1` in-process once per master
seed first .. first + rounds - 1, with one BLAS thread and the calibrated
coil resistance, after one untimed warm-up run.  Each simulate call solves
its 2 trials in one LM call of 120 one-agent problems (10 agents x 5 random
starts and the perfect-init reference).  A round of that call runs from one
`LsProblem.retract` to the next (or to the call's return), and its active
problems are the rows retract moves.  The script prints the rounds and
their CPU time binned by active problems.  Passes over the same seeds with
`retract`, `evaluate`, `normal_slices` and `_damped_steps` timed give the
median of each part in the rounds with one active problem; the rest of
such a round is the loop's own work and the timers'.  Every pass is
repeated, and each round keeps its fastest repetition.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import tempfile
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads its BLAS

import numpy as np  # noqa: E402

from miloc import cli, estimators  # noqa: E402

RESISTANCE_OHM = 0.055148806366607225
BINS = ((1, 1), (2, 4), (5, 9), (10, 29), (30, 59), (60, 120))
PARTS = ("retract", "evaluate", "normal_slices", "_damped_steps")
clock = time.process_time


def simulate(config: Path, out: Path, seed: int):
    argv = [
        "simulate", "--config", str(config), "--estimator", "numls", "--init", "random:5",
        "--scheme", "noncoop", "--agents", "10", "--topologies", "2", "--noise", "1",
        "--seed", str(seed), "--out", str(out),
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv):
            sys.exit(f"simulate failed at seed {seed}")


@contextlib.contextmanager
def patched(owner, name, wrap):
    original = getattr(owner, name)
    setattr(owner, name, wrap(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def timed(events, name, rows_of):
    """Wrap a function so each call appends (name, rows, start, CPU seconds) to events."""

    def wrap(original):
        def call(*args):
            start = clock()
            result = original(*args)
            events.append((name, rows_of(args), start, clock() - start))
            return result

        return call

    return wrap


def timed_slices(events):
    """Wrap normal_slices so each call logs the CPU seconds spent inside its generator."""

    def wrap(original):
        def call(problem, point, rows):
            first, spent, slices = clock(), 0.0, original(problem, point, rows)
            while True:
                start = clock()
                item = next(slices, None)
                spent += clock() - start
                if item is None:
                    events.append(("normal_slices", len(rows), first, spent))
                    return
                yield item

        return call

    return wrap


def lm_rounds(config: Path, out: Path, seeds, parts: bool):
    """Every LM round as (active problems, start, CPU seconds), the LM calls' CPU seconds, and
    with parts, the (name, rows, start, CPU seconds) of every timed part."""
    events, rounds, lm_total = [], [], 0.0

    def solve(original):
        def call(problem, x0):
            nonlocal lm_total
            first = len(events)
            start = clock()
            result = original(problem, x0)
            end = clock()
            lm_total += end - start
            marks = [(n, t) for name, n, t, _ in events[first:] if name == "retract"]
            stops = [t for _, t in marks[1:]] + [end]
            rounds.extend((n, t, stop - t) for (n, t), stop in zip(marks, stops))
            return result

        return call

    with contextlib.ExitStack() as stack:
        if parts:
            for name in ("retract", "evaluate"):  # (problem, rows, ...)
                rows = timed(events, name, lambda args: len(args[1]))
                stack.enter_context(patched(estimators.LsProblem, name, rows))
            stack.enter_context(
                patched(estimators.LsProblem, "normal_slices", timed_slices(events))
            )
            # the last argument of _damped_steps holds one entry per system
            systems = timed(events, "_damped_steps", lambda args: len(args[-1]))
            stack.enter_context(patched(estimators, "_damped_steps", systems))
        else:

            def mark(original):
                def retract(problem, x, step):
                    events.append(("retract", len(x), clock(), 0.0))
                    return original(problem, x, step)

                return retract

            stack.enter_context(patched(estimators.LsProblem, "retract", mark))
        stack.enter_context(patched(estimators, "levenberg_marquardt", solve))
        for seed in seeds:
            simulate(config, out, seed)
    return rounds, lm_total, events


def one_problem_parts(rounds, events):
    """Each part's CPU seconds in every round with one active problem, and the rest of it."""
    starts = np.array([t for _, t, _ in rounds])
    spans = np.array([t for _, _, t in rounds])
    parts = {name: np.zeros(len(rounds)) for name in PARTS}
    for name, _, start, spent in events:
        k = np.searchsorted(starts, start, side="right") - 1
        if k >= 0 and start < starts[k] + spans[k]:  # not the start-up of an LM call
            parts[name][k] += spent
    one = np.array([n for n, _, _ in rounds]) == 1
    parts = {name: times[one] for name, times in parts.items()}
    parts["rest of the round (the loop's own work and the timers')"] = spans[one] - sum(
        parts.values()
    )
    return spans[one], parts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first", type=int, default=100_000, help="first master seed")
    parser.add_argument("--rounds", type=int, default=16, help="simulate calls, one seed each")
    parser.add_argument("--repeats", type=int, default=3, help="passes, the fastest kept per round")
    args = parser.parse_args(argv)
    seeds = range(args.first, args.first + args.rounds)
    with tempfile.TemporaryDirectory() as scratch:
        config, out = Path(scratch, "miloc.cfg"), Path(scratch, "out")
        config.write_text(f"resistance_ohm = {RESISTANCE_OHM!r}\n")
        simulate(config, out, args.first)  # warm-up: imports, caches
        plain = [lm_rounds(config, out, seeds, False) for _ in range(args.repeats)]
        timed_parts = [lm_rounds(config, out, seeds, True) for _ in range(args.repeats)]

    # the rounds repeat exactly, so each keeps its fastest pass
    active = np.array([n for n, _, _ in plain[0][0]])
    spent = np.min([[t for _, _, t in rounds] for rounds, _, _ in plain], axis=0)
    lm_total = np.median([total for _, total, _ in plain])
    print(f"seeds {seeds.start}-{seeds.stop - 1}: {len(active)} LM rounds, "
          f"{spent.sum() * 1e3:.1f} ms in them (each round's fastest of {args.repeats} passes); "
          f"{lm_total * 1e3:.1f} ms in the LM calls (median pass)")
    print("| active problems | rounds | CPU ms | share of round time | µs per round |")
    print("| --- | --- | --- | --- | --- |")
    for lo, hi in BINS:
        inside = (active >= lo) & (active <= hi)
        total = spent[inside].sum()
        label = str(lo) if lo == hi else f"{lo}-{hi}"
        per_round = total / inside.sum() * 1e6 if inside.any() else float("nan")
        print(f"| {label} | {inside.sum()} | {total * 1e3:.1f} | "
              f"{total / spent.sum():.0%} | {per_round:.0f} |")

    spans, parts = zip(*(one_problem_parts(rounds, events) for rounds, _, events in timed_parts))
    spans = np.min(spans, axis=0)
    print(f"\none active problem, timed parts, fastest of {args.repeats} passes: {len(spans)} "
          f"rounds, median {np.median(spans) * 1e6:.0f} µs per round")
    for name in parts[0]:
        fastest = np.min([p[name] for p in parts], axis=0)
        print(f"  {name}: {np.median(fastest) * 1e6:.1f} µs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
