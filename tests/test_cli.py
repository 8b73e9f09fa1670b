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
from mfeq.cli import CSV_BLOCK_ROWS, _iterations_still_needed, _write_csv, main
from mfeq.solver import IterationDiagnostics

import oracles
from instances import BAD_MODEL_NUMBERS, ramped_model, rounded_end_model, with_value

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
    "MfeqError", "ModelDefect", "ModelFileError", "NumericalError",
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


def test_csv_writer_keys_on_bits(tmp_path):
    # one column holds 0.0 and -0.0 (which np.unique on float values merges
    # but "%.17g" prints as "0" and "-0"), NaNs of both signs, +-inf and
    # 5e-324, each repeated; rows CSV_BLOCK_ROWS - 1 and CSV_BLOCK_ROWS, on
    # either side of a block boundary, are equal
    rng = np.random.default_rng(4)
    special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 0.1]
    mixed = np.column_stack([np.resize(special, CSV_BLOCK_ROWS + 9),
                             rng.choice([-0.0, 0.0, 2.5, 1e-300], CSV_BLOCK_ROWS + 9)])
    mixed[CSV_BLOCK_ROWS] = mixed[CSV_BLOCK_ROWS - 1]
    # shaped like verify's spike report: node times, states and action
    # samples repeat across rows, and the gaps hold both zeros
    steps, m, samples = 100, 2, 16
    t = np.repeat(np.linspace(0.0, 0.5, steps + 1)[:-1], m * samples)
    state = np.tile(np.repeat(np.arange(1.0, m + 1.0), samples), steps)
    action = np.tile(np.linspace(-1.0, 1.0, samples), steps * m)
    gap = rng.normal(size=t.size) * 1e-3
    gap[::7], gap[3::11] = 0.0, -0.0
    spikes = np.column_stack([t, state, action, gap])
    assert len(spikes) > 3 * CSV_BLOCK_ROWS
    for table in (mixed, spikes):
        header = [f"c{j}" for j in range(table.shape[1])]
        _write_csv(tmp_path / "blocks.csv", header, table)
        oracles.write_csv_rows(tmp_path / "per_value.csv", header, table)
        assert (tmp_path / "blocks.csv").read_bytes() == \
            (tmp_path / "per_value.csv").read_bytes()


def count_transition_stacks(monkeypatch) -> list:
    """Record every transition_stack call of the package's commands."""
    from mfeq import chain
    calls = []
    original = chain.transition_stack

    def counted(*args):
        calls.append(args)
        return original(*args)

    # the package's attributes `simulate` and `verify` are functions, not
    # the modules
    for module in ("mfeq.chain", "mfeq.simulate", "mfeq.verify", "mfeq.cli"):
        monkeypatch.setattr(sys.modules[module], "transition_stack", counted)
    return calls


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


def model_file(tmp_path, name, **constants) -> Path:
    """A shipped model declaring the given constants, as a file."""
    model = json.loads((DATA / f"{name}.json").read_text())
    model["constants"] = constants
    path = tmp_path / f"{name}-constants.json"
    path.write_text(json.dumps(model))
    return path


def test_verbose_routes_bound_warning(tmp_path, capsys):
    # declared constants that the table and the cost break: without -v
    # nothing reaches stderr, even outside pytest's log capture; with it
    # each check warns once per solve, not once per Picard iteration
    path = model_file(tmp_path, "affine_mv", K1=0.01, K2=0.01)
    src = str(Path(mfeq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    quiet = subprocess.run([sys.executable, "-m", "mfeq.cli", "solve", "--model", str(path),
                            "--grid", "20", "--out", str(tmp_path / "q")],
                           env=env, capture_output=True, text=True)
    assert (quiet.returncode, quiet.stderr) == (0, "")
    assert run("-v", "solve", "--model", str(path), "--grid", "20",
               "--out", str(tmp_path / "eq")) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines() if "WARNING" in line]
    meta = json.loads((tmp_path / "eq" / "equilibrium.json").read_text())
    checks = meta["model_checks"]
    assert meta["value_bounds"]["upper_margin"] < 0.0 and checks
    assert warnings == [
        f"mfeq.cli WARNING: {len(checks)} model check findings, the first: {checks[0]}",
        warnings[1]]
    assert warnings[1].startswith("mfeq.cli WARNING: value table exceeds declared bounds: "
                                  "above by ")
    assert any(c.startswith("cost exceeds K2=0.01") for c in checks)
    assert any(c.endswith("exceeds K1=0.01") for c in checks)


def test_model_checks_record_validate_cost(tmp_path):
    from mfeq import validate_cost
    from mfeq.chain import TimeGrid
    from mfeq.modelfile import build_model, read_model_file
    path = model_file(tmp_path, "affine_mv_gtilde", K3=1e-3)
    assert run("solve", "--model", str(path), "--grid", "30", "--out", str(tmp_path / "eq")) == 0
    meta = json.loads((tmp_path / "eq" / "equilibrium.json").read_text())
    model = read_model_file(path)
    grid = TimeGrid(model["horizon"], 30)
    assert meta["model_checks"] == validate_cost(*build_model(model, grid), grid)
    assert any("flow-Lipschitz bound K3=0.001 violated" == c for c in meta["model_checks"])


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
        assert meta["model_checks"] == []

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

    @pytest.mark.parametrize("text, message", [
        ("nan,1", "non-finite mass in probability vector"),
        ("1.5,-0.5", "negative mass -5.000e-01 in probability vector"),
        ("0,0", "probability vector has no mass"),
        ("abc,1", "could not convert string to float: 'abc'"),
    ], ids=["nan", "negative", "massless", "text"])
    def test_bad_init_rho_is_named(self, tmp_path, capsys, text, message):
        err = assert_input_error(capsys, run("solve", "--model", "affine_mv", "--grid", "20",
                                             "--init-rho", text, "--out", str(tmp_path / "x")))
        assert err == f"input error: init-rho: {message}\n"

    def test_missing_model_is_input_error(self, tmp_path):
        assert run("solve", "--model", "nope.json", "--grid", "10",
                   "--out", str(tmp_path / "x")) == 1

    @pytest.mark.parametrize("flag, value", [
        ("--tol", "nan"), ("--max-iter", "0"),
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

    def test_huge_rate_is_one_line_error(self, tmp_path, capsys):
        # a finite alpha of 1e308 over beta overflows the admissible-interval
        # bound before its clip to [-1, 1]; that overflow is no warning, and
        # the exponential's row-sum check is the one line on stderr.  A
        # horizon of 1e20 overflows the exponential's squarings, which warn
        # of nothing before the same check fails
        huge = with_value(json.loads((DATA / "affine_mv.json").read_text()),
                          ("generator", "alpha"), [[-1e308, 1e308], [0.9, -0.9]])
        runs = [(huge, "20")] + [
            (with_value(json.loads((DATA / f"{name}.json").read_text()), ("horizon",), 1e20), "5")
            for name in ("zero_cost", "dist_independent")]
        for c, (model, steps) in enumerate(runs):
            (tmp_path / f"huge-{c}.json").write_text(json.dumps(model))
            code = run("solve", "--model", str(tmp_path / f"huge-{c}.json"), "--grid", steps,
                       "--out", str(tmp_path / f"eq-{c}"))
            err = capsys.readouterr().err
            assert code == 1
            assert err.count("\n") == 1 and err.startswith("error: "), err

    def test_declared_k1_never_sets_the_rate(self, tmp_path):
        # K1 reaches only the declared value bound: a huge or a tiny one
        # leaves the solve's arrays as shipped, byte for byte
        shipped = json.loads((DATA / "affine_mv.json").read_text())
        arrays = []
        for k1 in (None, 1e200, 1e-3):
            model = shipped if k1 is None else with_value(shipped, ("constants", "K1"), k1)
            (tmp_path / f"{k1}.json").write_text(json.dumps(model))
            out = tmp_path / f"eq-{k1}"
            assert run("solve", "--model", str(tmp_path / f"{k1}.json"), "--grid", "200",
                       "--out", str(out)) == 0
            arrays.append({name: (out / name).read_bytes()
                           for name in ("flow.csv", "policy.csv", "theta_diag.csv")})
        assert arrays[0] == arrays[1] == arrays[2]

    def test_non_convergence_exit_code(self, tmp_path):
        out = tmp_path / "nc"
        code = run("solve", "--model", "affine_mv", "--grid", "20",
                   "--tol", "1e-15", "--max-iter", "2", "--out", str(out))
        assert code == 2
        meta = json.loads((out / "equilibrium.json").read_text())
        assert meta["diagnostics"]["converged"] is False

    @pytest.mark.parametrize("gaps, note", [
        # ratio 0.5 from a final gap of 6.25e-4: log2(62500) = 15.9 more
        ([1e-2, 5e-3, 2.5e-3, 1.25e-3, 6.25e-4],
         "; at gap ratio 0.5, about 16 more iterations reach --tol 1e-08"),
        ([1e-2, 1e-2, 1e-2], ""),  # ratio 1: no estimate
        ([1e-2, 2e-2, 4e-2], ""),  # ratio 2
        ([1e-2, 0.0], ""),  # ratio 0
        ([1e-2], ""),  # no ratio
    ])
    def test_not_converged_line_states_the_implied_iterations(self, gaps, note):
        diagnostics = IterationDiagnostics(gaps=gaps, iterations=len(gaps))
        assert _iterations_still_needed(diagnostics, 1e-8) == note

    def test_not_converged_line_ends_with_the_estimate(self, tmp_path, capsys):
        out = tmp_path / "nc"
        assert run("solve", "--model", "affine_mv", "--grid", "20", "--max-iter", "3",
                   "--out", str(out)) == 2
        diagnostics = IterationDiagnostics(**{
            key: json.loads((out / "equilibrium.json").read_text())["diagnostics"][key]
            for key in ("gaps", "iterations")})
        note = _iterations_still_needed(diagnostics, 1e-8)
        assert note.startswith("; at gap ratio ")
        assert capsys.readouterr().out.endswith(f"-> not-provably-contractive{note}\n")

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("solve", "--model", "affine_mv", "--grid", "25",
                   "--out", str(out1)) == 0
        assert run("solve", "--model", "affine_mv", "--grid", "25",
                   "--out", str(out2)) == 0
        assert read_bytes_map(out1) == read_bytes_map(out2)


class TestContractionVerdict:
    """The verdict reads the run's own evidence beside the sampled product."""

    @staticmethod
    def solve(tmp_path, model, *flags, grid="200"):
        out = tmp_path / "eq"
        code = run("solve", "--model", str(model), "--grid", grid, "--out", str(out), *flags)
        return code, json.loads((out / "equilibrium.json").read_text())

    def test_unconverged_solve(self, tmp_path, capsys):
        code, meta = self.solve(tmp_path, "affine_mv", "--max-iter", "1", grid="20")
        assert code == 2
        assert meta["contraction"]["verdict"] == "not-provably-contractive"
        assert capsys.readouterr().out.endswith("-> not-provably-contractive\n")

    def test_ratio_above_the_sampled_product(self, tmp_path):
        # a huge declared K1 saturates kappa2's probes: product 0, while the
        # Picard gaps shrink by about 0.08 per iteration
        code, meta = self.solve(tmp_path, model_file(tmp_path, "affine_mv", K1=1e200))
        assert code == 0
        assert meta["contraction"]["product"] == 0.0
        assert meta["diagnostics"]["ratio"] == pytest.approx(0.08, abs=0.01)
        assert meta["contraction"]["verdict"] == "not-provably-contractive"

    @pytest.mark.parametrize("name", ["affine_mv", "affine_mv_gtilde", "dist_independent",
                                      "time_consistent", "zero_cost"])
    def test_shipped_models_stay_contractive(self, tmp_path, name):
        code, meta = self.solve(tmp_path, name)
        assert code == 0
        ratio = meta["diagnostics"]["ratio"]
        assert ratio is None or ratio <= meta["contraction"]["product"] < 1.0
        assert meta["contraction"]["verdict"] == "contractive"


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
        # and a time-varying model file, whose cells are uniformized at up
        # to 10x their own rates, and affine_mv with an exp tau weight, which
        # no shipped model uses
        from mfeq.modelfile import builtin_names, read_model_file
        ramped = tmp_path / "ramped.json"
        ramped.write_text(json.dumps(ramped_model(30)))
        exp_weight = read_model_file("affine_mv")
        exp_weight["cost"]["running"]["tau_weight"] = {"kind": "exp", "rate": 1.5}
        (tmp_path / "exp-weight.json").write_text(json.dumps(exp_weight))
        for name in [*builtin_names(), str(ramped), str(tmp_path / "exp-weight.json")]:
            out = tmp_path / Path(name).stem
            assert run("solve", "--model", name, "--grid", "30",
                       "--out", str(out)) == 0, name
            assert run("verify", "--eq", str(out),
                       "--action-samples", "6") == 0, name

    def test_one_transition_stack_per_command(self, solved_dir, tmp_path, monkeypatch):
        # the stack _load_equilibrium builds for the flow also serves the sweep
        import shutil
        d = tmp_path / "stacks"
        shutil.copytree(solved_dir, d)
        calls = count_transition_stacks(monkeypatch)
        assert run("verify", "--eq", str(d), "--action-samples", "4") == 0
        assert len(calls) == 1

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

    def test_policy_at_the_unmoved_rounded_end(self, tmp_path):
        # a policy.csv that holds -0.4 / 1.26, the rounded-end interval's end
        # before it moved one ulp toward 0, lies inside the admissibility
        # slack: verify and simulate exponentiate the moved end, and give
        # the moved end's reports
        import shutil
        model = tmp_path / "rounded-end.json"
        model.write_text(json.dumps(rounded_end_model()))
        moved, unmoved = tmp_path / "moved", tmp_path / "unmoved"
        assert run("solve", "--model", str(model), "--grid", "50", "--out", str(moved)) == 0
        shutil.copytree(moved, unmoved)
        end, old_end = f"{np.nextafter(-0.4 / 1.26, 0.0):.17g}", f"{-0.4 / 1.26:.17g}"
        lines = [line.split(",") for line in (moved / "policy.csv").read_text().splitlines()]
        assert sum(fields.count(end) for fields in lines) > 0
        (unmoved / "policy.csv").write_text("".join(
            ",".join(old_end if field == end else field for field in fields) + "\n"
            for fields in lines))
        sim = ("--players", "50", "--seed", "3", "--reps", "2", "--err-bound", "2")
        for directory in (moved, unmoved):
            assert run("verify", "--eq", str(directory), "--action-samples", "8") == 0
            assert run("simulate", "--eq", str(directory), *sim) == 0
        for name in ("spike_report.csv", "spike_summary.json", "sim_report.json",
                     "empirical_flow.csv"):
            assert (moved / name).read_bytes() == (unmoved / name).read_bytes()

    def test_policy_in_the_slack_above_its_interval(self, solved_dir, tmp_path):
        # state 2 at node 0 set to its interval's end 1 and to 1 + 5e-10,
        # inside the admissibility slack: both verify to the same violations
        import shutil
        counts = []
        for action in (1.0, 1 + 5e-10):
            d = tmp_path / f"{action!r}"
            shutil.copytree(solved_dir, d)
            lines = (d / "policy.csv").read_text().splitlines()
            fields = lines[1].split(",")
            fields[2] = f"{action:.17g}"
            lines[1] = ",".join(fields)
            (d / "policy.csv").write_text("\n".join(lines) + "\n")
            assert run("verify", "--eq", str(d), "--action-samples", "8") == 3
            counts.append(len(json.loads((d / "spike_summary.json").read_text())["violations"]))
        assert counts[0] == counts[1] > 0

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
    # numbers that are no law, tested as stored before any flow is propagated
    (lambda meta: {**meta, "rho": [0.3, 0.3]}, "rho"),
    (lambda meta: {**meta, "rho": [1.2, -0.2]}, "rho"),
    (lambda meta: {**meta, "rho": [0.0, 0.0]}, "rho"),
    (lambda meta: {**meta, "rho": [1e308, 1e308]}, "rho"),
], ids=["top-level-list", "grid-list", "horizon-text", "steps-fraction", "steps-zero",
        "steps-bool", "rho-short", "rho-text", "rho-object", "rho-bool", "rho-short-mass",
        "rho-negative", "rho-massless", "rho-overflowing"])
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


def test_policy_is_read_from_its_csv(solved_dir, tmp_path):
    # equilibrium.json carries no copy of the policy; a directory whose
    # equilibrium.json still has one verifies to the same reports
    import shutil
    assert "policy" not in json.loads((solved_dir / "equilibrium.json").read_text())
    intact, legacy = tmp_path / "intact", tmp_path / "legacy"
    shutil.copytree(solved_dir, intact)
    shutil.copytree(solved_dir, legacy)
    meta = json.loads((legacy / "equilibrium.json").read_text())
    policy = np.loadtxt(legacy / "policy.csv", delimiter=",", skiprows=1)[:, 1:]
    meta["policy"] = policy.tolist()
    (legacy / "equilibrium.json").write_text(json.dumps(meta))
    for directory in (intact, legacy):
        assert run("verify", "--eq", str(directory), "--action-samples", "8") == 0
    for name in ("spike_report.csv", "spike_summary.json"):
        assert (intact / name).read_bytes() == (legacy / name).read_bytes()


def test_loaded_initial_law_is_the_files(tmp_path):
    # a loaded equilibrium's initial law is its re-propagated flow's first
    # row, and that row is the rho of equilibrium.json bit for bit
    from mfeq.cli import _load_equilibrium
    out = tmp_path / "eq"
    assert run("solve", "--model", "affine_mv", "--grid", "20", "--init-rho", "0.3,0.7",
               "--out", str(out)) == 0
    meta = json.loads((out / "equilibrium.json").read_text())
    _, _, eq, _ = _load_equilibrium(out)
    assert eq.rho.tolist() == meta["rho"]
    assert eq.grid is eq.flow.grid and eq.grid.steps == meta["grid"]["steps"] == 20


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

    @pytest.mark.parametrize("case", ["emptied", "extra column", "missing row", "deleted"])
    def test_flow_csv_is_not_read(self, solved_dir, tmp_path, case):
        # simulate measures against the flow it re-propagates from
        # policy.csv and rho, so an emptied, misshapen or deleted flow.csv
        # leaves its reports as they were
        import shutil
        sim = ("--players", "50", "--seed", "3", "--reps", "2", "--inner-pairs", "10",
               "--err-bound", "2")
        intact = tmp_path / "intact"
        shutil.copytree(solved_dir, intact)
        assert run("simulate", "--eq", str(intact), *sim) == 0
        lines = (solved_dir / "flow.csv").read_text().splitlines()
        edits = {
            "emptied": lambda path: path.write_text(lines[0] + "\n"),
            "extra column": lambda path: path.write_text(
                "\n".join([lines[0] + ",nu_3"] + [line + ",0" for line in lines[1:]]) + "\n"),
            "missing row": lambda path: path.write_text("\n".join(lines[:-1]) + "\n"),
            "deleted": lambda path: path.unlink(),
        }
        edited = tmp_path / "edited"
        shutil.copytree(solved_dir, edited)
        edits[case](edited / "flow.csv")
        assert run("simulate", "--eq", str(edited), *sim) == 0
        for name in ("sim_report.json", "empirical_flow.csv"):
            assert (edited / name).read_bytes() == (intact / name).read_bytes()

    def test_error_bound_exit_code(self, solved_dir, tmp_path):
        import shutil
        d = tmp_path / "tight"
        shutil.copytree(solved_dir, d)
        # a 20-player population cannot meet a 1e-4 sup-TV bound
        code = run("simulate", "--eq", str(d), "--players", "20", "--seed", "5",
                   "--reps", "2", "--inner-pairs", "5", "--err-bound", "1e-4")
        assert code == 2

    def test_one_transition_stack_per_command(self, solved_dir, tmp_path, monkeypatch):
        import shutil
        d = tmp_path / "stacks"
        shutil.copytree(solved_dir, d)
        calls = count_transition_stacks(monkeypatch)
        assert run("simulate", "--eq", str(d), "--players", "50", "--seed", "3",
                   "--reps", "3", "--inner-pairs", "5", "--err-bound", "0.5") == 0
        assert len(calls) == 1

    def test_memory_is_one_population(self, solved_dir, tmp_path):
        # one population's (steps+1, players) int64 paths take 6.6 MB; no
        # replication's paths may outlive its counts
        import shutil
        import tracemalloc
        d = tmp_path / "memory"
        shutil.copytree(solved_dir, d)
        players = 20_000
        population = (40 + 1) * players * 8
        tracemalloc.start()
        try:
            assert run("simulate", "--eq", str(d), "--players", str(players), "--seed", "1",
                       "--reps", "3", "--inner-pairs", "20", "--err-bound", "0.5") == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * population

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
