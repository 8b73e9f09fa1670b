"""Tests of the benchmark itself: its references, its output checks, its
tracer and the form of what it prints.

Run from the root of the repository:  python3 -m pytest bench
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
from checks import check_simulate, check_solve, check_verify  # noqa: E402
from reference import Model  # noqa: E402
from tracing import Tracer  # noqa: E402

MODEL = Model.from_file(ROOT / "src" / "mfeq" / "data" / "affine_mv.json")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SMALL = run.Workload(grid=40, long=("simulate",), small=("solve", "verify"),
                     simulation=run.Simulation(players=300, reps=3, inner_pairs=20))
PLAYERS, REPS = SMALL.simulation.players, SMALL.simulation.reps


def cli(*argv) -> int:
    from mfeq.cli import main

    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def solved(tmp_path_factory) -> Path:
    eq = tmp_path_factory.mktemp("eq") / "affine_mv"
    assert cli(*run.solve_argv(SMALL.grid, eq)) == 0
    assert cli(*run.verify_argv(eq)) == 0
    assert cli(*run.simulate_argv(eq, SMALL.simulation, 5)) == 0
    return eq


@pytest.fixture
def copy(solved, tmp_path) -> Path:
    dst = tmp_path / "eq"
    shutil.copytree(solved, dst)
    return dst


def rewrite_csv(path: Path, edit) -> None:
    lines = path.read_text().splitlines()
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    edit(data)
    path.write_text("\n".join([lines[0]] + [",".join(f"{x:.17g}" for x in row)
                                            for row in data]) + "\n")


def check_all(eq: Path) -> list[str]:
    rng = np.random.default_rng(0)
    return (check_solve(eq, MODEL, run.SOLVE_TOL, rng)
            + check_verify(eq, MODEL, run.ACTION_SAMPLES, rng)
            + check_simulate(eq, MODEL, PLAYERS, REPS))


def test_closed_form_transition_matches_expm():
    from scipy.linalg import expm

    rng = np.random.default_rng(1)
    for _ in range(50):
        profile = rng.uniform(-1.0, 1.0, 2)
        dt = rng.choice([1e-4, 0.01, 0.5])
        Q = MODEL.alpha + profile[:, None] * MODEL.beta[None, :]
        np.testing.assert_allclose(MODEL.transition(profile, dt), expm(dt * Q),
                                   rtol=0, atol=1e-15)


def test_checks_accept_program_output(solved):
    assert check_all(solved) == []


def test_perturbed_flow_row_rejected(copy):
    def edit(data):
        data[7, 1] += 1e-9
        data[7, 2] -= 1e-9

    rewrite_csv(copy / "flow.csv", edit)
    problems = check_solve(copy, MODEL, run.SOLVE_TOL, np.random.default_rng(0))
    assert any(p.startswith("flow.csv") for p in problems)


def test_perturbed_policy_entry_rejected(copy):
    def edit(data):
        data[11, 2] += 1e-10

    rewrite_csv(copy / "policy.csv", edit)
    problems = check_solve(copy, MODEL, run.SOLVE_TOL, np.random.default_rng(0))
    assert any(p.startswith("policy.csv") for p in problems)


def test_perturbed_spike_gap_rejected(copy):
    def edit(data):
        data[123, 3] += 1e-7

    rewrite_csv(copy / "spike_report.csv", edit)
    problems = check_verify(copy, MODEL, run.ACTION_SAMPLES, np.random.default_rng(0))
    assert any(p.startswith("spike_report.csv") for p in problems)


def test_shifted_empirical_flow_rejected(copy):
    p = np.loadtxt(copy / "flow.csv", delimiter=",", skiprows=1)[:, 1]
    bound = run.Z_FLOW * 2.0 * np.sqrt((p * (1 - p)).max() / (PLAYERS * REPS))

    def edit(data):
        data[:, 1] = p + bound
        data[:, 2] = 1.0 - data[:, 1]

    rewrite_csv(copy / "empirical_flow.csv", edit)
    problems = check_simulate(copy, MODEL, PLAYERS, REPS)
    assert any(p.startswith("empirical_flow.csv") for p in problems)


def test_tracer_patches_every_use():
    import mfeq
    import mfeq.chain
    import mfeq.cli  # noqa: F401  (imports every layer)
    import mfeq.hj
    import mfeq.verify

    sim = sys.modules["mfeq.simulate"]
    assert mfeq.simulate is sim.simulate  # the package attribute is the function
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = mfeq.chain.transition_matrix
        assert wrapped is not tracer.originals["mfeq.chain.transition_matrix"]
        assert mfeq.hj.transition_matrix is wrapped
        assert mfeq.verify.transition_matrix is wrapped
        assert sim.simulate is not tracer.originals["mfeq.simulate.simulate"]
        originals = set(map(id, tracer.originals.values()))
        for name, mod in list(sys.modules.items()):
            if name == "mfeq" or name.startswith("mfeq."):
                stale = [a for a, v in vars(mod).items() if id(v) in originals]
                assert stale == [], f"{name} still holds unwrapped {stale}"
    finally:
        tracer.uninstall()
    assert mfeq.hj.transition_matrix is tracer.originals["mfeq.chain.transition_matrix"]


def test_traced_worker_times_its_setup_load():
    # `solve --help` reads no model, so the load timed is the set-up's
    report = run.run_child([["solve", "--help"]], grid=40, trace=True)
    assert report["commands"][0]["rc"] == 0
    assert report["layers"]["modelfile.load_s"] > 0


def test_host_speed_sampled_around_and_during_commands():
    report = run.run_child([["solve", "--help"], ["verify", "--help"]], grid=40, trace=False)
    cal = report["calibration"]
    assert len(cal) == len(report["commands"]) + 1 and min(cal) > 0
    setup, times = run.at_reference_speed(report)
    ref = run.REFERENCE_LOOP_S
    assert setup == pytest.approx(report["setup_s"] * ref / cal[0])
    for i, c in enumerate(report["commands"]):
        assert times[i] == pytest.approx(c["seconds"] * ref / np.mean(cal[i:i + 2] + c["ticks"]))


def test_speed_ticks_fall_inside_a_long_command(tmp_path):
    report = run.run_child([run.solve_argv(400, tmp_path / "eq")], grid=400, trace=False)
    command = report["commands"][0]
    assert command["rc"] == 0
    # one tick per TICK_S of the command, give or take the ticks that a long
    # C call delays
    assert len(command["ticks"]) >= command["seconds"] / worker.TICK_S / 2 >= 1


@pytest.mark.parametrize("trace", [False, True])
def test_run_prints_declared_metrics(tmp_path, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    result = run.run_workload(SMALL, seed=3, seconds=0, trace=trace, out=tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    # two set-up probes run a command each
    per_round = len(SMALL.small) * run.SMALL_REPEATS + len(SMALL.long)
    assert result["attempted"] == 2 + run.MIN_ROUNDS * per_round
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared
    for name, value in result["metrics"].items():
        assert isinstance(value["value"], (int, float)) and np.isfinite(value["value"])
    if trace:
        assert result["metrics"]["chain.expm_calls"]["value"] > 0
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 1.0
        sweeps = run.SMALL_REPEATS * run.COMPANION_GRID * 2 * run.ACTION_SAMPLES
        assert result["metrics"]["verify.perturbations"]["value"] == sweeps


def test_benchmark_json_form():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    for m in spec["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "solve_n2000",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
