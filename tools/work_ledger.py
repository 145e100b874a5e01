"""Exact counts of the work miloc's solvers and bounds do on fixed shapes: a work ledger.

Usage:
    python tools/work_ledger.py [[NAME=]TREE ...] [--json PATH] [--threads 1 2]

Each TREE is a checkout holding src/miloc (default: the checkout holding
this script), named NAME in the output (default: the directory's name).
For each tree and each BLAS thread count, one worker process runs SHAPES
in-process with the tree's sources: the three round shapes of the
benchmark at its seed 1 (master seeds 100000 + r, the calibrated coil
resistance), and cooperative `numls --init random:5` at M=10.  While it
runs, levenberg_marquardt, LsProblem.evaluate, LsProblem.normal_slices,
_damped_steps, crlb.fim_stack, crlb.peb_stack and pairml.pair_ml_estimate
are wrapped with counters.  Per shape the ledger holds:

- LM calls and their problems, rounds (one _damped_steps call each), systems
  solved, rows evaluated, link evaluations and normal-equation rows, all
  counted inside levenberg_marquardt only;
- the per-problem iteration quantiles, the problems at the iteration budget
  and, where the tree's StackedSolve has stop_reason, the count per reason;
- the pair-ML agents, the information matrices assembled and the bound
  matrices tested;
- the CPU seconds of the shape (which vary; the counts do not).

Gates, each a boolean in the output: a worker runs every shape once
unwrapped and twice wrapped, and the two wrapped runs must give identical
counts and write the same data bytes as the unwrapped one (timings.csv
left out); the counts must be identical at every thread count.  The script
prints one table per tree, writes every record with the environment to
--json if given, and exits 1 if a gate fails.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

RESISTANCE_OHM = 0.055148806366607225
FIRST_SEED = 100_000
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
COUNTS = (
    "lm_calls", "lm_problems", "rounds", "systems_solved", "rows_evaluated",
    "link_evaluations", "normal_rows", "pairml_agents", "fim_matrices", "peb_matrices",
)


def _simulate(estimator, scheme, topologies, noise, init=None):
    args = [
        "simulate", "--estimator", estimator, "--scheme", scheme, "--agents", "10",
        "--topologies", str(topologies), "--noise", str(noise),
    ]
    return [args + (["--init", init] if init else [])]


def _peb(topologies=3, agents=10):
    return [
        ["peb", "--scheme", "coop", "--agents", f"1..{agents}", "--topologies", str(topologies)],
        ["peb", "--scheme", "noncoop", "--agents", str(agents), "--topologies", str(topologies)],
    ]


# name -> (rounds, CLI calls of a round, calibration topologies of a round)
SHAPES = {
    "peb_sweep": (10, _peb(), 20),
    "coop_turbols_m10": (10, _simulate("turbols", "coop", 1, 4), 0),
    "noncoop_random5_m10": (16, _simulate("numls", "noncoop", 2, 1, "random:5"), 0),
    "coop_random5_m10": (4, _simulate("numls", "coop", 1, 2, "random:5"), 0),
}


def environment() -> dict:
    import numpy

    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {key: deps.get(key, {}) for key in ("blas", "lapack")}
    except TypeError:  # numpy before 1.25 only prints
        blas = {}
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "machine": platform.machine(),
    }


class Ledger:
    """Counters filled by the wrapped functions while a shape runs."""

    def __init__(self):
        self.counts = dict.fromkeys(COUNTS, 0)
        self.iterations, self.reasons, self.in_lm, self.budget = [], {}, 0, None

    def record(self, solve, budget, reason_names):
        import numpy as np

        self.iterations.extend(solve.problem_iterations.ravel().tolist())
        self.budget = budget
        for code in np.ravel(getattr(solve, "stop_reason", ())).tolist():
            name = reason_names[code]
            self.reasons[name] = self.reasons.get(name, 0) + 1

    def summary(self) -> dict:
        import numpy as np

        its = np.array(self.iterations)
        out = dict(self.counts)
        if its.size:
            out["iterations"] = int(its.sum())
            for q in (50, 90, 99):
                out[f"iterations_p{q}"] = round(float(np.percentile(its, q)), 1)
            out["iterations_max"] = int(its.max())
            out["at_budget"] = int(np.sum(its >= self.budget))
        if self.reasons:
            out["stop_reasons"] = dict(sorted(self.reasons.items()))
        return out


@contextlib.contextmanager
def wrapped(ledger: Ledger):
    """The counted functions wrapped to fill ledger, restored on exit."""
    from miloc import crlb, estimators, pairml

    counts = ledger.counts
    reason_names = {r.value: r.name.lower() for r in getattr(estimators, "StopReason", [])}
    originals = []

    def patch(owner, name, make):
        original = getattr(owner, name)
        originals.append((owner, name, original))
        setattr(owner, name, make(original))

    def lm(original):
        def call(problem, x0):
            ledger.in_lm += 1
            try:
                solve = original(problem, x0)
            finally:
                ledger.in_lm -= 1
            counts["lm_calls"] += 1
            counts["lm_problems"] += int(solve.problem_iterations.size)
            ledger.record(solve, estimators.LM_MAX_ITERATIONS, reason_names)
            return solve

        return call

    def evaluate(original):
        def call(problem, theta, index=None):
            if ledger.in_lm:
                rows = len(theta)
                counts["rows_evaluated"] += rows
                counts["link_evaluations"] += rows * len(problem.links)
            return original(problem, theta, index)

        return call

    def normal_slices(original):
        def call(problem, point, rows):
            if ledger.in_lm:
                counts["normal_rows"] += len(rows)
            return original(problem, point, rows)

        return call

    def damped_steps(original):
        def call(jtj, gradient, lam, trying):
            counts["rounds"] += 1
            counts["systems_solved"] += len(trying)
            return original(jtj, gradient, lam, trying)

        return call

    def counted(key, size):
        def make(original):
            def call(*args, **kwargs):
                counts[key] += size(*args)
                return original(*args, **kwargs)

            return call

        return make

    patch(estimators, "levenberg_marquardt", lm)
    patch(estimators.LsProblem, "evaluate", evaluate)
    patch(estimators.LsProblem, "normal_slices", normal_slices)
    patch(estimators, "_damped_steps", damped_steps)
    # fim_stack(problem, poses, sigma), peb_stack(matrices, ...), pair_ml_estimate(alone, room)
    patch(crlb, "fim_stack", counted("fim_matrices", lambda _, poses, *r: poses.size // poses.shape[-1]))
    patch(crlb, "peb_stack", counted("peb_matrices", lambda matrices, *r: len(matrices)))
    agents = lambda alone, *r: alone.y_imag.size // (9 * alone.y_imag.shape[-3])  # noqa: E731
    patch(pairml, "pair_ml_estimate", counted("pairml_agents", agents))
    try:
        yield
    finally:
        for owner, name, original in reversed(originals):
            setattr(owner, name, original)


def run_shape(name: str, work: Path) -> bytes:
    """Run shape name with its outputs under work; the data bytes it wrote, in order."""
    from miloc import cli, harness
    from miloc.config import ExperimentConfig

    rounds, calls, calibration = SHAPES[name]
    work.mkdir(parents=True, exist_ok=True)
    (work / "ledger.cfg").write_text(f"resistance_ohm = {RESISTANCE_OHM!r}\n")
    data = []
    # paths relative to work, so that config.echo reads the same in every work directory
    with contextlib.chdir(work):
        for r in range(rounds):
            seed = FIRST_SEED + r
            if calibration:
                cal = harness.calibrate_resistance(ExperimentConfig(seed=seed), topologies=calibration)
                data.append(repr(cal.resistance_ohm).encode())
            for k, args in enumerate(calls):
                out = Path(f"{name}_{r}_{k}")
                argv = args + ["--config", "ledger.cfg", "--seed", str(seed), "--out", str(out)]
                with contextlib.redirect_stdout(io.StringIO()) as printed:
                    code = cli.main(argv)
                if code:
                    sys.exit(f"{name}: {' '.join(argv)} exited {code}")
                data.append(printed.getvalue().encode())
                data += [p.read_bytes() for p in sorted(out.iterdir()) if p.name != "timings.csv"]
    return b"\0".join(data)


def worker() -> dict:
    """Every shape unwrapped once and wrapped twice: counts, CPU seconds and gates."""
    import miloc

    if Path(miloc.__file__).resolve().parents[1] != Path(os.environ["PYTHONPATH"]).resolve():
        sys.exit("miloc was not imported from the tree's src")
    shapes = {}
    with tempfile.TemporaryDirectory(prefix="work_ledger_") as scratch:
        for name in SHAPES:
            plain = run_shape(name, Path(scratch, "plain"))
            passes = []
            for k in range(2):
                ledger = Ledger()
                start = time.process_time()
                with wrapped(ledger):
                    data = run_shape(name, Path(scratch, f"wrapped{k}"))
                passes.append((ledger.summary(), time.process_time() - start, data))
            (first, cpu, data), (second, _, data2) = passes
            shapes[name] = {
                "counts": first,
                "cpu_s": round(cpu, 3),
                "counts_repeat": first == second,
                "bytes_unchanged_by_wrapping": data == plain == data2,
            }
    return {"environment": environment(), "shapes": shapes}


def _commit(tree: Path) -> str:
    """The tree's commit, marked -dirty when its sources differ from it."""
    done = subprocess.run(
        ["git", "-C", str(tree), "rev-parse", "--show-toplevel"], capture_output=True, text=True
    )
    if done.returncode or Path(done.stdout.strip()).resolve() != tree.resolve():
        return "unknown (not a git work tree)"
    describe = ["git", "-C", str(tree), "describe", "--always", "--dirty", "--abbrev=12"]
    return subprocess.run(describe, capture_output=True, text=True).stdout.strip()


def ledger_of(name: str, tree: Path, threads) -> dict:
    """The ledger of one tree: a worker per thread count, and the cross-thread gate."""
    runs = {}
    for n in threads:
        env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
        env.update({variable: str(n) for variable in THREAD_VARIABLES})
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--worker"],
            env=env, capture_output=True, text=True,
        )
        if done.returncode:
            sys.exit(f"{name}: worker at {n} threads failed:\n{done.stderr}")
        runs[n] = json.loads(done.stdout)
    first = runs[threads[0]]
    shapes = {}
    for shape in SHAPES:
        per_thread = [runs[n]["shapes"][shape] for n in threads]
        shapes[shape] = dict(
            per_thread[0]["counts"],
            cpu_s={str(n): runs[n]["shapes"][shape]["cpu_s"] for n in threads},
            gates={
                "counts_repeat": all(s["counts_repeat"] for s in per_thread),
                "counts_equal_across_threads": all(
                    s["counts"] == per_thread[0]["counts"] for s in per_thread
                ),
                "bytes_unchanged_by_wrapping": all(
                    s["bytes_unchanged_by_wrapping"] for s in per_thread
                ),
            },
        )
    return {
        "name": name, "commit": _commit(tree), "threads": list(threads),
        "environment": first["environment"], "shapes": shapes,
    }


def print_table(record: dict):
    print(f"\n{record['name']} ({record['commit']})")
    columns = ("lm_calls", "rounds", "rows_evaluated", "link_evaluations", "systems_solved",
               "iterations", "iterations_p50", "iterations_p90", "iterations_p99", "at_budget",
               "pairml_agents", "fim_matrices", "peb_matrices")
    print("| shape | " + " | ".join(columns) + " | CPU s | gates |")
    print("| --- " * (len(columns) + 3) + "|")
    for shape, row in record["shapes"].items():
        cells = [str(row.get(c, "-")) for c in columns]
        cpu = "/".join(str(v) for v in row["cpu_s"].values())
        gates = "ok" if all(row["gates"].values()) else f"FAILED {row['gates']}"
        print(f"| {shape} | " + " | ".join(cells) + f" | {cpu} | {gates} |")
        if "stop_reasons" in row:
            print(f"|   stop reasons: {row['stop_reasons']} |")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", help="[NAME=]TREE, a checkout holding src/miloc")
    parser.add_argument("--json", type=Path, help="write every tree's ledger here")
    parser.add_argument("--threads", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(worker()))
        return 0
    records = []
    for spec in args.trees or [str(Path(__file__).resolve().parents[1])]:
        name, _, path = spec.rpartition("=")
        tree = Path(path)
        records.append(ledger_of(name or tree.resolve().name, tree, args.threads))
        print_table(records[-1])
    if args.json:
        trees = " ".join(f"{r['name']}=<tree>" for r in records)
        command = f"python tools/work_ledger.py {trees} --threads {' '.join(map(str, args.threads))}"
        what = __doc__.splitlines()[0]
        args.json.write_text(
            json.dumps({"what": what, "command": command, "ledgers": records}, indent=1) + "\n"
        )
    ok = all(all(row["gates"].values()) for r in records for row in r["shapes"].values())
    print("\nall gates hold" if ok else "\nSOME GATE FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
