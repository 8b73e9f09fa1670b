"""Benchmark of the mfeq command line: solve, verify and simulate.

Usage, from the root of the repository:

    python3 bench/run.py --workload solve_n2000 --seed 1 --seconds 40 --trace 0

Every workload runs the shipped model `affine_mv` (two states, uniform
initial law).  A run first takes four set-up probes, which also solve a
small companion equilibrium and run a negative control.  Then it repeats
rounds of `solve`, `verify` and `simulate`, each round in a fresh process,
until the next round would end after `--seconds` (at least two rounds).
Each workload runs its long commands once per round and its small ones six
times, spread around the long ones; a small `verify` or `simulate` works on
the companion equilibrium, so that every metric is measured on every
workload.  Every command's artifacts are checked with `checks.py`.  The
seed is the simulation seed and picks the rows that the checks recompute by
forward evaluation.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` (one operation is one CLI command) and `metrics`,
each the median of its samples over the run.  Every time is scaled to a
reference host speed by the speed that the worker measures around and
during it (see `at_reference_speed` and `worker.py`).  `--trace 0` gives the
end-to-end metrics; `--trace 1` alternates untraced and traced rounds and
gives the per-layer metrics of the traced ones, with the estimated tracing
overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import Z_FLOW, check_simulate, check_solve, check_verify
from reference import Model

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / "bench_runs"
MODEL = "affine_mv"
SOLVE_TOL = 1e-8  # the CLI's default --tol
ACTION_SAMPLES = 16
COMPANION_GRID = 50
SMALL_REPEATS = 6  # two before, two between and two after the long commands
MIN_ROUNDS = 2
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 150
# The reference host's speed, in seconds per loop of `worker.calibrate`; the
# README's host measured 5.9e-6 at its median.  Every end-to-end time is
# reported at the reference speed: its measured seconds times
# REFERENCE_LOOP_S over the host's mean seconds per loop while it ran.
REFERENCE_LOOP_S = 5.5e-6
# One BLAS/OpenMP thread: each 2x2 expm otherwise wakes a second thread that
# spins beside the main one and makes wall times drift from run to run.
# MFE_THREADS=1 keeps verify's spike sweep off its thread pool, whatever the
# calling shell sets, so verify_s measures the single-threaded sweep.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "MFE_THREADS": "1"}

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "verify_s": "s",
    "simulate_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "modelfile.load_s": "s",
    "chain.expm_calls": "count",
    "chain.expm_s": "s",
    "chain.propagate_self_s": "s",
    "chain.nodes_calls": "count",
    "chain.validate_generator_s": "s",
    "models.argmin_calls": "count",
    "models.argmin_s": "s",
    "models.rate_matrix_calls": "count",
    "hj.sweeps": "count",
    "hj.sweep_self_s": "s",
    "hj.table_mb": "MB",
    "solver.picard_iterations": "count",
    "solver.picard_s": "s",
    "solver.constants_s": "s",
    "solver.constants_self_s": "s",
    "verify.perturbations": "count",
    "verify.sweep_self_s": "s",
    "simulate.population_calls": "count",
    "simulate.population_s": "s",
    "simulate.player_cells": "count",
    "simulate.deviation_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


@dataclass(frozen=True)
class Simulation:
    players: int
    reps: int
    inner_pairs: int


COMPANION_SIMULATION = Simulation(players=200, reps=3, inner_pairs=30)


@dataclass(frozen=True)
class Workload:
    """A round runs `small` twice before, between and after the `long`
    commands: small, long[0], small, long[1:], small.  `solve` always makes
    the round's own equilibrium on `grid`; `verify` and `simulate` use it
    when long and a copy of the companion equilibrium when small.
    `simulation` sizes a long `simulate`."""

    grid: int
    long: tuple[str, ...]
    small: tuple[str, ...]
    simulation: Simulation = COMPANION_SIMULATION


WORKLOADS = {
    "solve_n2000": Workload(grid=2000, long=("solve",), small=("verify", "simulate")),
    # solve twice per round: with one, solve_s was the median of two to four
    # samples and spread by 0.11 over ten runs
    "verify_n800": Workload(grid=800, long=("solve", "verify", "solve"), small=("simulate",)),
    "simulate_10k": Workload(grid=100, long=("simulate",), small=("solve", "verify"),
                             simulation=Simulation(players=10_000, reps=3, inner_pairs=200)),
}


class Tally:
    """Operations attempted and failed; a failure is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAILED {what}: {p}", file=sys.stderr)


def solve_argv(grid: int, out: Path) -> list[str]:
    return ["solve", "--model", MODEL, "--grid", str(grid), "--out", str(out)]


def verify_argv(eq: Path) -> list[str]:
    return ["verify", "--eq", str(eq), "--action-samples", str(ACTION_SAMPLES)]


def simulate_argv(eq: Path, sim: Simulation, seed: int) -> list[str]:
    # per-replication bound: Z_FLOW binomial standard errors of the TV distance
    err_bound = Z_FLOW / math.sqrt(sim.players)
    return ["simulate", "--eq", str(eq), "--players", str(sim.players),
            "--seed", str(seed), "--reps", str(sim.reps),
            "--inner-pairs", str(sim.inner_pairs), "--err-bound", repr(err_bound)]


def run_child(commands: list[list[str]], grid: int, trace: bool) -> dict | None:
    """Run one worker process; its report, or None if it did not finish."""
    env = dict(os.environ, **PINNED)
    plan = {"src": str(SRC), "model": MODEL, "grid": grid, "trace": trace,
            "commands": commands, "t_spawn": time.monotonic()}
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), json.dumps(plan)],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"worker timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker exited {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def at_reference_speed(report: dict) -> tuple[float, list[float]]:
    """A worker's set-up time and command times at the reference host's
    speed.  A command's speed is the mean of the measurements before and
    after it and of the samples taken while it ran; the set-up's is the
    first measurement."""
    cal = report["calibration"]
    times = [c["seconds"] * REFERENCE_LOOP_S / statistics.fmean([cal[i], cal[i + 1], *c["ticks"]])
             for i, c in enumerate(report["commands"])]
    return report["setup_s"] * REFERENCE_LOOP_S / cal[0], times


def exit_problems(report: dict | None, index: int, expect_rc: int) -> list[str]:
    if report is None:
        return ["worker did not finish"]
    rc = report["commands"][index]["rc"]
    return [] if rc == expect_rc else [f"exit code {rc}, expected {expect_rc}"]


def corrupt_policy(src: Path, dst: Path, model: Model) -> None:
    """Copy an equilibrium and move a quarter of its cells to the far end of
    each state's interval, which a spike back toward the optimum improves."""
    shutil.copytree(src, dst)
    lines = (dst / "policy.csv").read_text(encoding="utf-8").splitlines()
    n = len(lines) - 1
    for row in range(1 + n // 4, 1 + n // 2):
        cells = [float(x) for x in lines[row].split(",")]
        for i in range(2):
            lo, hi = model.interval(i)
            cells[1 + i] = lo if cells[1 + i] > 0.5 * (lo + hi) else hi
        lines[row] = ",".join(f"{x:.17g}" for x in cells)
    (dst / "policy.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def prepare(w: Workload, out: Path, model: Model, tally: Tally) -> list[float]:
    """SETUP_PROBES set-up probes; the first solves the companion and the
    second runs the negative control.  Returns the probes' set-up times."""
    companion, corrupt = out / "companion", out / "corrupt"
    report = run_child([solve_argv(COMPANION_GRID, companion)], w.grid, False)
    problems = exit_problems(report, 0, 0)
    if not problems:
        problems = check_solve(companion, model, SOLVE_TOL, np.random.default_rng(0))
    tally.record("companion solve", problems)
    if problems:
        raise SystemExit("the companion equilibrium could not be made")
    setups = [at_reference_speed(report)[0]]

    corrupt_policy(companion, corrupt, model)
    report = run_child([verify_argv(corrupt)], w.grid, False)
    problems = exit_problems(report, 0, 3)
    if not problems and not json.loads(
            (corrupt / "spike_summary.json").read_text())["violations"]:
        problems = ["corrupted policy reported without violations"]
    tally.record("negative control verify", problems)
    if report is not None:
        setups.append(at_reference_speed(report)[0])

    for _ in range(SETUP_PROBES - 2):
        report = run_child([], w.grid, False)
        if report is not None:
            setups.append(at_reference_speed(report)[0])
    return setups


def run_round(w: Workload, seed: int, rdir: Path, companion: Path, model: Model,
              rng: np.random.Generator, traced: bool, tally: Tally) -> dict | None:
    """One worker process running solve, verify and simulate; every command
    is checked.  Returns the worker's report."""
    main, small = rdir / "main", rdir / "companion"
    shutil.copytree(companion, small)
    sim_size = w.simulation if "simulate" in w.long else COMPANION_SIMULATION

    def command(kind: str, eq: Path) -> tuple[list[str], Path]:
        if kind == "solve":
            return solve_argv(w.grid, main), main
        if kind == "verify":
            return verify_argv(eq), eq
        return simulate_argv(eq, sim_size, seed), eq

    checks = {
        "solve": lambda eq: check_solve(eq, model, SOLVE_TOL, rng),
        "verify": lambda eq: check_verify(eq, model, ACTION_SAMPLES, rng),
        "simulate": lambda eq: check_simulate(eq, model, sim_size.players, sim_size.reps),
    }
    # Single samples on a shared 2-vCPU host spread by a factor of two, and
    # samples spread over a run agree better than samples taken together, so
    # the small commands run before, between and after the long ones.
    block = [command(kind, small) for kind in w.small] * (SMALL_REPEATS // 3)
    long = [command(kind, main) for kind in w.long]
    commands = block + long[:1] + block + long[1:] + block
    report = run_child([argv for argv, _ in commands], w.grid, traced)

    # repeated commands rewrite the same artifacts, which are checked once
    verdicts: dict[tuple[str, Path], list[str]] = {}
    for index, (argv, eq) in enumerate(commands):
        problems = exit_problems(report, index, 0)
        if not problems:
            key = (argv[0], eq)
            if key not in verdicts:
                verdicts[key] = checks[argv[0]](eq)
            problems = verdicts[key]
        tally.record(f"{argv[0]} in {rdir.name}", problems)
    return report


def tree_bytes(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 out: Path) -> dict:
    model = Model.from_file(SRC / "mfeq" / "data" / f"{MODEL}.json")
    rng = np.random.default_rng(seed)
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    tally = Tally()
    setups = prepare(w, out, model, tally)

    # samples of each metric over the run: one per command, or per round
    samples: dict[str, list[float]] = {key: [] for key in END_TO_END}
    samples["setup_s"] = setups
    layers: list[dict] = []
    walls: list[float] = []
    start = time.monotonic()
    r = 0
    while r < MIN_ROUNDS or time.monotonic() - start + statistics.median(walls) <= seconds:
        t0 = time.monotonic()
        traced = trace and r % 2 == 1
        report = run_round(w, seed, out / f"round{r}", out / "companion", model, rng,
                           traced, tally)
        walls.append(time.monotonic() - t0)
        if report is not None:
            (out / f"report{r}.json").write_text(json.dumps(report), encoding="utf-8")
            setup, times = at_reference_speed(report)
            samples["setup_s"].append(setup)
            samples["peak_rss_mb"].append(report["peak_rss_mb"])
            for c, t in zip(report["commands"], times):
                samples[f"{c['argv'][0]}_s"].append(t)
            if traced:
                layers.append(report["layers"])
            print(f"round {r}{' traced' if traced else ''}: {walls[-1]:.2f} s, "
                  + ", ".join(f"{c['argv'][0]} {c['seconds']:.3f} s ({t:.3f} s)"
                              for c, t in zip(report["commands"], times)), file=sys.stderr)
        r += 1

    # repeated and traced rounds must write byte-identical artifacts
    first = tree_bytes(out / "round0")
    identical = all(tree_bytes(out / f"round{j}") == first for j in range(1, r))
    if not identical:
        print("artifacts differ between rounds", file=sys.stderr)

    def median(values):
        return statistics.median(values) if values else float("nan")

    if trace:
        values = {key: median([t[key] for t in layers]) for key in PER_LAYER}
        units = PER_LAYER
    else:
        values = {key: median(samples[key]) for key in END_TO_END}
        units = END_TO_END
    return {
        "correct": tally.failed == 0 and identical,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mfeq" / "cli.py").is_file():
        print(f"no mfeq sources under {SRC}", file=sys.stderr)
        return 2
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = run_workload(WORKLOADS[args.workload], args.seed,
                          args.seconds, bool(args.trace), out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
