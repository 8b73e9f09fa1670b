"""Command line front end: artifacts, exit codes, determinism."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mfeq
from mfeq.cli import CSV_BLOCK_ROWS, _write_csv, main

import oracles
from instances import BAD_MODEL_NUMBERS, with_value

DATA = Path(mfeq.__file__).parent / "data"


def run(*argv):
    return main(list(argv))


def assert_input_error(capsys, code) -> str:
    """Exit code 1 with a one-line message and no traceback; returns the line."""
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1, err
    return err


def read_bytes_map(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())
            if p.is_file()}


def test_runtime_loads_no_scipy():
    # SciPy is a test-only dependency: the command line and every module of
    # the package load without it
    src = str(Path(mfeq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import pkgutil, sys, mfeq, mfeq.cli\n"
            "for mod in pkgutil.iter_modules(mfeq.__path__):\n"
            "    __import__('mfeq.' + mod.name)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


PUBLIC_NAMES = [
    "AdmissibilityError", "AffineQuadraticModel", "BackwardSweep", "ContractionReport",
    "CostModel", "DimensionMismatch", "Equilibrium", "FlowCurve", "GeneratorModel",
    "GeneratorReport", "MfeqError", "ModelDefect", "ModelFileError", "NumericalError",
    "PathBundle", "ProbabilityVector", "SeparableCost", "SimConfig", "SolverOptions",
    "SpikeReport", "StrategyTable", "TabulatedGenerator", "TimeGrid", "admissible_interval",
    "backward_columns", "chain", "deviation_test", "errors", "estimate_constants", "hj",
    "models", "picard_solve", "propagate_flow", "simulate", "solve_hj", "solver",
    "transition_stack", "validate_cost", "validate_generator", "verify",
    "verify_local_optimality",
]


def test_public_names():
    # what a fresh `import mfeq` binds: the package ships what its commands
    # run, and the tests' oracles live in tests/oracles.py
    src = str(Path(mfeq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import mfeq\nprint(sorted(n for n in vars(mfeq) if not n.startswith('_')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert ast.literal_eval(out.stdout) == PUBLIC_NAMES


def test_csv_writer_matches_value_by_value_writer(tmp_path):
    rng = np.random.default_rng(3)
    special = np.array([[-0.0, 5e-324, 1e300, 3.0],
                        [2.0 ** -1030, -1e-310, 0.1, 1.0 / 3.0],
                        [1e16, 123456789012345678.0, -7.0, 2.0 ** 52],
                        [np.pi, -2.5e-300, 0.0, 1e-5]])
    scaled = rng.normal(size=(2500, 3)) * 10.0 ** rng.integers(-8, 8, (2500, 3))
    assert len(scaled) > 2 * CSV_BLOCK_ROWS  # spans three blocks
    for table in (special, scaled, np.empty((0, 2))):
        header = [f"c{j}" for j in range(table.shape[1])]
        _write_csv(tmp_path / "blocks.csv", header, table)
        oracles.write_csv_rows(tmp_path / "per_value.csv", header, table)
        assert (tmp_path / "blocks.csv").read_bytes() == \
            (tmp_path / "per_value.csv").read_bytes()


def test_verbose_logs_to_stderr_and_changes_no_output(tmp_path, capsys):
    # -v adds the Picard log on stderr; stdout and every artifact stay
    # byte-identical
    outputs = {}
    for flags in ((), ("-v",)):
        d = tmp_path / ("loud" if flags else "quiet")
        assert run(*flags, "solve", "--model", "affine_mv", "--grid", "30",
                   "--out", str(d)) == 0
        assert run(*flags, "verify", "--eq", str(d)) == 0
        assert run(*flags, "simulate", "--eq", str(d), "--players", "200", "--seed", "1",
                   "--reps", "2", "--inner-pairs", "10", "--err-bound", "0.5") == 0
        captured = capsys.readouterr()
        outputs[flags] = captured.out, read_bytes_map(d), captured.err
    quiet, loud = outputs[()], outputs[("-v",)]
    assert loud[:2] == quiet[:2]
    assert "picard" not in quiet[2]
    assert "mfeq.solver INFO: picard iteration=1 gap=" in loud[2]


def test_verbose_routes_bound_warning(tmp_path, capsys):
    model = json.loads((Path(mfeq.__file__).parent / "data" / "affine_mv.json").read_text())
    model["constants"] = {"K1": 0.01, "K2": 0.01}
    path = tmp_path / "tight.json"
    path.write_text(json.dumps(model))
    assert run("-v", "solve", "--model", str(path), "--grid", "20",
               "--out", str(tmp_path / "eq")) == 0
    assert "mfeq.hj WARNING: value table exceeds declared bounds" in capsys.readouterr().err


@pytest.fixture(scope="module")
def solved_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("eq") / "affine_mv"
    code = run("solve", "--model", "affine_mv", "--grid", "40",
               "--out", str(out))
    assert code == 0
    return out


class TestSolve:
    def test_artifacts_written(self, solved_dir):
        for name in ("model.json", "equilibrium.json", "flow.csv",
                     "policy.csv", "theta_diag.csv"):
            assert (solved_dir / name).exists()
        meta = json.loads((solved_dir / "equilibrium.json").read_text())
        assert meta["diagnostics"]["converged"] is True
        assert meta["contraction"]["verdict"] == "contractive"

    def test_csv_shapes_and_format(self, solved_dir):
        flow = (solved_dir / "flow.csv").read_text().splitlines()
        assert flow[0] == "t,nu_1,nu_2"
        assert len(flow) == 42  # header + 41 nodes
        policy = (solved_dir / "policy.csv").read_text().splitlines()
        assert policy[0] == "t,pi_1,pi_2"
        assert len(policy) == 41  # header + 40 cells
        # 17-significant-digit floats reload bit-faithfully
        val = float(flow[1].split(",")[1])
        reloaded = np.loadtxt(solved_dir / "flow.csv", delimiter=",", skiprows=1)
        assert reloaded[0, 1] == val

    def test_zero_cost_model_zero_theta(self, tmp_path):
        out = tmp_path / "zc"
        assert run("solve", "--model", "zero_cost", "--grid", "20",
                   "--out", str(out)) == 0
        theta = np.loadtxt(out / "theta_diag.csv", delimiter=",", skiprows=1)
        assert np.all(theta[:, 1:] == 0.0)

    def test_distribution_independent_two_iterations(self, tmp_path):
        out = tmp_path / "di"
        assert run("solve", "--model", "dist_independent", "--grid", "30",
                   "--out", str(out)) == 0
        meta = json.loads((out / "equilibrium.json").read_text())
        assert meta["diagnostics"]["iterations"] == 2

    def test_init_rho_flag(self, tmp_path):
        out = tmp_path / "rho"
        assert run("solve", "--model", "affine_mv", "--grid", "20",
                   "--init-rho", "0.9,0.1", "--out", str(out)) == 0
        meta = json.loads((out / "equilibrium.json").read_text())
        assert meta["rho"] == [0.9, 0.1]

    def test_bad_init_rho_is_input_error(self, tmp_path):
        assert run("solve", "--model", "affine_mv", "--grid", "20",
                   "--init-rho", "0.9,0.05,0.05",
                   "--out", str(tmp_path / "x")) == 1

    def test_missing_model_is_input_error(self, tmp_path):
        assert run("solve", "--model", "nope.json", "--grid", "10",
                   "--out", str(tmp_path / "x")) == 1

    @pytest.mark.parametrize("flag, value", [
        ("--tol", "nan"), ("--relax", "2"), ("--max-iter", "0"),
    ])
    def test_bad_solver_option_is_input_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x"
        assert_input_error(capsys, run("solve", "--model", "affine_mv", "--grid", "20",
                                       flag, value, "--out", str(out)))
        assert not out.exists()

    @pytest.mark.parametrize("path, value, field", BAD_MODEL_NUMBERS)
    def test_non_finite_model_number_is_input_error(self, tmp_path, capsys, monkeypatch,
                                                    path, value, field):
        def no_work(*args, **kwargs):
            raise AssertionError("solve started before the model was checked")

        monkeypatch.setattr("mfeq.cli.picard_solve", no_work)
        model = with_value(json.loads((DATA / "affine_mv.json").read_text()), path, value)
        (tmp_path / "bad.json").write_text(json.dumps(model))
        err = assert_input_error(capsys, run("solve", "--model", str(tmp_path / "bad.json"),
                                             "--grid", "20", "--out", str(tmp_path / "eq")))
        assert err.startswith(f"input error: {field}: "), err

    @pytest.mark.parametrize("name, path, value, constants", [
        ("dist_independent", ("cost", "running", "values"), [1e308, 0.1, 0.2],
         "K1 = 1.5, K2 = 1.48e+308, horizon = 0.6"),
        ("affine_mv", ("horizon",), 1e308, "K1 = 1.3, K2 = 1e+307, horizon = 1e+308"),
    ], ids=["running-values", "horizon"])
    def test_non_finite_value_bound_is_input_error(self, tmp_path, capsys, monkeypatch, name,
                                                   path, value, constants):
        # every field is finite, but the value bound (K1 + K2) T + K2 overflows
        def no_work(*args, **kwargs):
            raise AssertionError("solve started before the model was checked")

        monkeypatch.setattr("mfeq.cli.picard_solve", no_work)
        model = with_value(json.loads((DATA / f"{name}.json").read_text()), path, value)
        (tmp_path / "big.json").write_text(json.dumps(model))
        err = assert_input_error(capsys, run("solve", "--model", str(tmp_path / "big.json"),
                                             "--grid", "20", "--out", str(tmp_path / "eq")))
        assert err == ("input error: value bound (K1 + K2) * horizon + K2 is not finite: "
                       f"{constants}\n")

    def test_non_convergence_exit_code(self, tmp_path):
        out = tmp_path / "nc"
        code = run("solve", "--model", "affine_mv", "--grid", "20",
                   "--tol", "1e-15", "--max-iter", "2", "--out", str(out))
        assert code == 2
        meta = json.loads((out / "equilibrium.json").read_text())
        assert meta["diagnostics"]["converged"] is False

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("solve", "--model", "affine_mv", "--grid", "25",
                   "--out", str(out1)) == 0
        assert run("solve", "--model", "affine_mv", "--grid", "25",
                   "--out", str(out2)) == 0
        assert read_bytes_map(out1) == read_bytes_map(out2)


class TestVerify:
    def test_round_trip_clean(self, solved_dir):
        assert run("verify", "--eq", str(solved_dir),
                   "--action-samples", "8") == 0
        report = (solved_dir / "spike_report.csv").read_text().splitlines()
        assert report[0] == "t,state,action,gap"
        summary = json.loads((solved_dir / "spike_summary.json").read_text())
        assert summary["violations"] == []
        grid = json.loads((solved_dir / "equilibrium.json").read_text())["grid"]
        rows = np.loadtxt(solved_dir / "spike_report.csv", delimiter=",", skiprows=1)
        worst = rows[np.argmin(rows[:, 3])]
        assert summary["worst"] == {
            "t": worst[0], "node": round(worst[0] * grid["steps"] / grid["horizon"]),
            "state": int(worst[1]), "action": worst[2], "gap": worst[3]}
        assert summary["worst"]["gap"] == summary["min_gap"]

        # the value-bound margins of the last sweep's whole table
        from mfeq.chain import TimeGrid
        from mfeq.modelfile import build_model, read_model_file
        meta = json.loads((solved_dir / "equilibrium.json").read_text())
        gen, cost = build_model(read_model_file(solved_dir / "model.json"),
                                TimeGrid(grid["horizon"], grid["steps"]))
        vb = meta["value_bounds"]
        assert vb["bound"] == (gen.K1 + cost.K2) * grid["horizon"] + cost.K2
        theta = np.loadtxt(solved_dir / "theta_diag.csv", delimiter=",", skiprows=1)[:, 1:]
        assert 0.0 <= vb["low"] <= theta.min() <= theta.max() <= vb["high"] < vb["bound"]
        assert vb["lower_margin"] == vb["low"]
        assert vb["upper_margin"] == vb["bound"] - vb["high"] > 0.0

    def test_round_trip_every_builtin(self, tmp_path):
        from mfeq.modelfile import builtin_names
        for name in builtin_names():
            out = tmp_path / name
            assert run("solve", "--model", name, "--grid", "30",
                       "--out", str(out)) == 0, name
            assert run("verify", "--eq", str(out),
                       "--action-samples", "6") == 0, name

    @pytest.mark.parametrize("flag, value", [
        ("--tol-spike", "nan"), ("--tol-spike", "inf"), ("--tol-spike", "0"),
        ("--action-samples", "0"),
    ])
    def test_bad_sweep_option_is_input_error(self, solved_dir, capsys, flag, value):
        assert_input_error(capsys, run("verify", "--eq", str(solved_dir), flag, value))

    def test_missing_directory(self, tmp_path):
        assert run("verify", "--eq", str(tmp_path / "missing")) == 1

    def test_corrupted_policy_detected(self, solved_dir, tmp_path):
        import shutil
        bad_dir = tmp_path / "corrupt"
        shutil.copytree(solved_dir, bad_dir)
        lines = (bad_dir / "policy.csv").read_text().splitlines()
        parts = lines[20].split(",")
        parts[1] = f"{float(parts[1]) + 0.6:.17g}"
        lines[20] = ",".join(parts)
        (bad_dir / "policy.csv").write_text("\n".join(lines) + "\n")
        assert run("verify", "--eq", str(bad_dir), "--action-samples", "8") == 3
        summary = json.loads((bad_dir / "spike_summary.json").read_text())
        assert len(summary["violations"]) >= 1

    def test_empty_policy_is_input_error(self, solved_dir, tmp_path, capsys):
        import shutil
        bad_dir = tmp_path / "empty"
        shutil.copytree(solved_dir, bad_dir)
        (bad_dir / "policy.csv").write_text("t,pi_1,pi_2\n")
        err = assert_input_error(capsys, run("verify", "--eq", str(bad_dir)))
        assert err == "input error: policy.csv: no data rows below the header\n"

    def test_model_tamper_detected(self, solved_dir, tmp_path):
        import shutil
        bad_dir = tmp_path / "tampered"
        shutil.copytree(solved_dir, bad_dir)
        model = json.loads((bad_dir / "model.json").read_text())
        model["horizon"] = 0.7
        (bad_dir / "model.json").write_text(json.dumps(model))
        assert run("verify", "--eq", str(bad_dir)) == 1


@pytest.mark.parametrize("edit, field", [
    (lambda meta: [meta], "equilibrium.json"),
    (lambda meta: {**meta, "grid": [0.5, 40]}, "grid"),
    (lambda meta: {**meta, "grid": {"horizon": "0.5", "steps": 40}}, "grid.horizon"),
    (lambda meta: {**meta, "grid": {"horizon": 0.5, "steps": 40.5}}, "grid.steps"),
    (lambda meta: {**meta, "grid": {"horizon": 0.5, "steps": 0}}, "grid.steps"),
    (lambda meta: {**meta, "grid": {"horizon": 0.5, "steps": True}}, "grid.steps"),
    (lambda meta: {**meta, "rho": [1.0]}, "rho"),
    (lambda meta: {**meta, "rho": [0.5, "0.5"]}, "rho"),
    (lambda meta: {**meta, "rho": {"1": 0.5, "2": 0.5}}, "rho"),
    (lambda meta: {**meta, "rho": [True, False]}, "rho"),
], ids=["top-level-list", "grid-list", "horizon-text", "steps-fraction", "steps-zero",
        "steps-bool", "rho-short", "rho-text", "rho-object", "rho-bool"])
@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_malformed_equilibrium_is_input_error(solved_dir, tmp_path, capsys, command, edit,
                                              field):
    import shutil
    bad_dir = tmp_path / "malformed"
    shutil.copytree(solved_dir, bad_dir)
    meta = json.loads((bad_dir / "equilibrium.json").read_text())
    (bad_dir / "equilibrium.json").write_text(json.dumps(edit(meta)))
    extra = ("--players", "20", "--seed", "1") if command == "simulate" else ()
    err = assert_input_error(capsys, run(command, "--eq", str(bad_dir), *extra))
    assert err.startswith(f"input error: {field}: "), err


@pytest.mark.parametrize("edit", [
    lambda meta: {**meta, "diagnostics": []},
    lambda meta: {key: value for key, value in meta.items() if key != "diagnostics"},
], ids=["diagnostics-list", "diagnostics-missing"])
def test_diagnostics_are_not_read(solved_dir, tmp_path, edit):
    # verify and simulate use neither the solver's values nor its diagnostics
    import shutil
    intact, edited = tmp_path / "intact", tmp_path / "edited"
    shutil.copytree(solved_dir, intact)
    shutil.copytree(solved_dir, edited)
    meta = json.loads((edited / "equilibrium.json").read_text())
    (edited / "equilibrium.json").write_text(json.dumps(edit(meta)))
    sim = ("--players", "50", "--seed", "3", "--reps", "2", "--inner-pairs", "10",
           "--err-bound", "2")
    for directory in (intact, edited):
        assert run("verify", "--eq", str(directory), "--action-samples", "8") == 0
        assert run("simulate", "--eq", str(directory), *sim) == 0
    for name in ("spike_report.csv", "spike_summary.json", "sim_report.json",
                 "empirical_flow.csv"):
        assert (intact / name).read_bytes() == (edited / name).read_bytes()


class TestSimulate:
    def test_seed_fixed_rerun_byte_identical(self, solved_dir, tmp_path):
        import shutil
        d1, d2 = tmp_path / "s1", tmp_path / "s2"
        shutil.copytree(solved_dir, d1)
        shutil.copytree(solved_dir, d2)
        args = ("--players", "300", "--seed", "99", "--reps", "3",
                "--inner-pairs", "20", "--err-bound", "0.25")
        assert run("simulate", "--eq", str(d1), *args) == 0
        assert run("simulate", "--eq", str(d2), *args) == 0
        assert (d1 / "empirical_flow.csv").read_bytes() == \
               (d2 / "empirical_flow.csv").read_bytes()
        assert (d1 / "sim_report.json").read_bytes() == \
               (d2 / "sim_report.json").read_bytes()

    def test_single_player_is_input_error(self, solved_dir):
        assert run("simulate", "--eq", str(solved_dir), "--players", "1",
                   "--seed", "1") == 1

    @pytest.mark.parametrize("spike", ["abc", "5,9,0.1", "500,1,0.1", "5,1,7"])
    def test_bad_spike_is_input_error(self, solved_dir, capsys, monkeypatch, spike):
        def no_work(*args, **kwargs):
            raise AssertionError("simulation started before the spike was checked")

        monkeypatch.setattr("mfeq.cli.simulate", no_work)
        assert_input_error(capsys, run("simulate", "--eq", str(solved_dir), "--players",
                                       "20", "--seed", "1", "--spike", spike))

    @pytest.mark.parametrize("flag, value", [
        ("--seed", "-1"), ("--inner-pairs", "0"), ("--inner-pairs", "-3"),
        ("--err-bound", "nan"), ("--err-bound", "inf"), ("--err-bound", "-0.1"),
    ])
    def test_bad_option_is_input_error(self, solved_dir, capsys, monkeypatch, flag, value):
        def no_work(*args, **kwargs):
            raise AssertionError("simulation started before the options were checked")

        monkeypatch.setattr("mfeq.cli.simulate", no_work)
        monkeypatch.setattr("mfeq.cli.deviation_test", no_work)
        assert_input_error(capsys, run("simulate", "--eq", str(solved_dir), "--players",
                                       "20", "--seed", "1", flag, value))

    def test_empty_flow_is_input_error(self, solved_dir, tmp_path, capsys):
        import shutil
        bad_dir = tmp_path / "empty"
        shutil.copytree(solved_dir, bad_dir)
        (bad_dir / "flow.csv").write_text("t,nu_1,nu_2\n")
        err = assert_input_error(capsys, run("simulate", "--eq", str(bad_dir), "--players", "20",
                                             "--seed", "1"))
        assert err == "input error: flow.csv: no data rows below the header\n"

    def test_error_bound_exit_code(self, solved_dir, tmp_path):
        import shutil
        d = tmp_path / "tight"
        shutil.copytree(solved_dir, d)
        # a 20-player population cannot meet a 1e-4 sup-TV bound
        code = run("simulate", "--eq", str(d), "--players", "20", "--seed", "5",
                   "--reps", "2", "--inner-pairs", "5", "--err-bound", "1e-4")
        assert code == 2

    def test_report_contents(self, solved_dir, tmp_path):
        import shutil
        d = tmp_path / "rep"
        shutil.copytree(solved_dir, d)
        assert run("simulate", "--eq", str(d), "--players", "400", "--seed", "7",
                   "--reps", "2", "--inner-pairs", "10",
                   "--err-bound", "0.5") == 0
        report = json.loads((d / "sim_report.json").read_text())
        assert report["players"] == 400
        assert len(report["sup_tv_errors"]) == 2
        dev = report["deviation_test"]
        assert dev["ci"][0] <= dev["gap"] <= dev["ci"][1]
