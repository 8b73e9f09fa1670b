"""Command line front end: model files in, equilibria/reports/CSV out.

Exit codes: 0 success, 1 input error, 2 solve non-convergence or simulation
error bound exceeded, 3 verification violations.  All artifacts are
deterministic functions of the inputs (and the seed), so repeated runs are
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .chain import (FlowCurve, ProbabilityVector, StrategyTable, TimeGrid, admissible,
                    propagate_flow)
from .errors import MfeqError, ModelFileError
from .hj import value_bound
from .modelfile import build_model, is_finite_number, model_hash, read_model_file
from .simulate import SimConfig, check_inner_pairs, deviation_test, simulate
from .solver import Equilibrium, SolverOptions, estimate_constants, picard_solve
from .verify import check_sweep_options, verify_local_optimality

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_CONVERGED = 2
EXIT_BOUND_EXCEEDED = 2
EXIT_VIOLATIONS = 3


# rows formatted per call of _write_csv: a bounded block keeps the
# transient strings and floats of a large table small
CSV_BLOCK_ROWS = 1024


def _write_csv(path: Path, header: list[str], table: np.ndarray) -> None:
    """Write a 2-D float array under a header, every value as "%.17g";
    each block of CSV_BLOCK_ROWS rows is formatted by one call."""
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(table), CSV_BLOCK_ROWS):
            block = table[start:start + CSV_BLOCK_ROWS]
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def _read_csv(path: Path) -> np.ndarray:
    """The rows below a CSV file's header; a file without any is an input
    error (np.loadtxt would only warn and return an empty array)."""
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    if not any(row.strip() for row in rows):
        raise ModelFileError(path.name, "no data rows below the header")
    return np.loadtxt(rows, delimiter=",", ndmin=2)


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_rho(text: str | None, m: int) -> ProbabilityVector:
    if text is None:
        return ProbabilityVector.uniform(m)
    parts = [float(p) for p in text.split(",")]
    if len(parts) != m:
        raise ModelFileError("init-rho", f"expected {m} probabilities, got {len(parts)}")
    return ProbabilityVector(parts)


def _parse_spike(text: str | None, gen, grid: TimeGrid, rho) -> tuple[int, int, float]:
    """Deviation-test spike (node, 0-based state, action), checked to fit."""
    if text is None:
        node = grid.steps // 2
        state = int(np.argmax(rho))
        return node, state, float(gen.action_bounds(grid.nodes[node])[state, 1])
    try:
        node_s, state_s, action_s = text.split(",")
        node, state, action = int(node_s), int(state_s) - 1, float(action_s)
    except ValueError:
        raise ModelFileError("spike", f"expected node,state,action, got {text!r}") from None
    if not 0 <= node < grid.steps:
        raise ModelFileError("spike", f"node {node} outside 0..{grid.steps - 1}")
    if not 0 <= state < gen.m:
        raise ModelFileError("spike", f"state {state + 1} outside 1..{gen.m}")
    bounds = gen.action_bounds(grid.nodes[node])[state]
    if not admissible(bounds, action):
        lo, hi = bounds
        raise ModelFileError("spike", f"action {action:.6g} outside [{lo:.6g}, {hi:.6g}] "
                                      f"at node {node}, state {state + 1}")
    return node, state, action


def cmd_solve(args) -> int:
    try:
        opts = SolverOptions(tolerance=args.tol, max_iterations=args.max_iter,
                             relaxation=args.relax)
        model = read_model_file(args.model)
        grid = TimeGrid(model["horizon"], args.grid)
        gen, cost = build_model(model, grid)
        rho = _parse_rho(args.init_rho, model["states"])
    except (MfeqError, ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    eq = picard_solve(gen, cost, rho, grid, opts)
    contraction = estimate_constants(gen, cost, grid, seed=0)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "model.json", model)
    nodes = grid.nodes
    _write_csv(out / "flow.csv",
               ["t"] + [f"nu_{i + 1}" for i in range(gen.m)],
               np.column_stack([nodes, eq.flow.values]))
    _write_csv(out / "policy.csv",
               ["t"] + [f"pi_{i + 1}" for i in range(gen.m)],
               np.column_stack([nodes[:-1], eq.policy.actions]))
    bound = value_bound(gen, cost, grid)
    _write_csv(out / "theta_diag.csv",
               ["t"] + [f"theta_{i + 1}" for i in range(gen.m)],
               np.column_stack([nodes, eq.values.values]))
    _write_json(out / "equilibrium.json", {
        "schema": 1,
        "model_hash": model_hash(model),
        "grid": {"horizon": grid.horizon, "steps": grid.steps},
        "rho": eq.rho.tolist(),
        "policy": eq.policy.actions.tolist(),
        "diagnostics": {
            "converged": eq.converged,
            "iterations": eq.diagnostics.iterations,
            "gaps": eq.diagnostics.gaps,
            "ratio": eq.diagnostics.ratio if eq.diagnostics.ratios else None,
        },
        "value_bounds": {
            "low": eq.values.low,
            "high": eq.values.high,
            "bound": bound,
            "lower_margin": eq.values.low,
            "upper_margin": bound - eq.values.high,
        },
        "contraction": {
            "kappa1": contraction.kappa1,
            "kappa2": contraction.kappa2,
            "kappa3": contraction.kappa3,
            "product": contraction.product,
            "verdict": contraction.verdict,
            "note": contraction.note,
        },
    })
    status = "converged" if eq.converged else "NOT converged"
    print(f"solve: {status} after {eq.diagnostics.iterations} iterations "
          f"(final gap {eq.diagnostics.gaps[-1]:.3e}); "
          f"contraction product {contraction.product:.4g} -> {contraction.verdict}")
    return EXIT_OK if eq.converged else EXIT_NOT_CONVERGED


def _load_equilibrium(eq_dir: Path):
    if not eq_dir.is_dir():
        raise ModelFileError("", f"equilibrium directory not found: {eq_dir}")
    model = read_model_file(eq_dir / "model.json")
    meta = json.loads((eq_dir / "equilibrium.json").read_text(encoding="utf-8"))
    if not isinstance(meta, dict):
        raise ModelFileError("equilibrium.json", "top level must be a JSON object")
    if meta.get("model_hash") != model_hash(model):
        raise ModelFileError("model_hash",
                             "equilibrium was produced from a different model")
    spec = meta.get("grid")
    if not isinstance(spec, dict):
        raise ModelFileError("grid", "expected an object with horizon and steps")
    if not is_finite_number(spec.get("horizon")):
        raise ModelFileError("grid.horizon", f"expected a number, got {spec.get('horizon')!r}")
    steps = spec.get("steps")
    if not isinstance(steps, int) or isinstance(steps, bool) or steps < 1:
        raise ModelFileError("grid.steps", f"expected an integer >= 1, got {steps!r}")
    grid = TimeGrid(spec["horizon"], steps)
    gen, cost = build_model(model, grid)
    rho = meta.get("rho")
    if not (isinstance(rho, list) and len(rho) == gen.m and all(map(is_finite_number, rho))):
        raise ModelFileError("rho", f"expected a list of {gen.m} numbers")
    policy_rows = _read_csv(eq_dir / "policy.csv")
    if policy_rows.shape != (grid.steps, gen.m + 1):
        raise ModelFileError("policy.csv",
                             f"expected {grid.steps} rows of {gen.m + 1} columns")
    policy = StrategyTable(policy_rows[:, 1:], grid)
    rho = np.asarray(rho, dtype=float)
    # the flow argument of the spike test is the pair's own flow, so it is
    # re-propagated from the stored policy rather than trusted from disk
    flow = propagate_flow(gen, rho, policy, grid)
    # verify and simulate read neither the solver's values nor its diagnostics
    eq = Equilibrium(rho=rho, flow=flow, policy=policy, values=None,
                     diagnostics=None, grid=grid)
    return model, gen, cost, eq


def cmd_verify(args) -> int:
    try:
        tol = None if args.tol_spike == "auto" else float(args.tol_spike)
        check_sweep_options(args.action_samples, tol)
        model, gen, cost, eq = _load_equilibrium(Path(args.eq))
    except (MfeqError, ValueError, OSError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    report = verify_local_optimality(eq, gen, cost,
                                     action_samples=args.action_samples,
                                     tol_spike=tol)
    out = Path(args.eq)
    nodes = eq.grid.nodes
    entries = report.entries
    _write_csv(out / "spike_report.csv",
               ["t", "state", "action", "gap"],
               np.column_stack([nodes[entries.node], entries.state + 1.0, entries.action,
                                entries.gap]))

    def spike(e) -> dict:
        return {"t": float(nodes[e.node]), "state": int(e.state) + 1,
                "action": float(e.action), "gap": float(e.gap)}

    _write_json(out / "spike_summary.json", {
        "tolerance": report.tol,
        "min_gap": report.min_gap,
        "perturbations": len(entries),
        "violations": [spike(e) for e in report.violations],
        "worst": {**spike(report.worst), "node": int(report.worst.node)},
    })
    print(report.summary())
    return EXIT_OK if report.ok else EXIT_VIOLATIONS


def cmd_simulate(args) -> int:
    try:
        cfg = SimConfig(players=args.players, seed=args.seed,
                        replications=args.reps)
        check_inner_pairs(args.inner_pairs)
        if not (np.isfinite(args.err_bound) and args.err_bound >= 0.0):
            raise ValueError(f"error bound must be finite and nonnegative, got {args.err_bound}")
        model, gen, cost, eq = _load_equilibrium(Path(args.eq))
        flow_csv = _read_csv(Path(args.eq) / "flow.csv")
        nu_star = FlowCurve(flow_csv[:, 1:], eq.grid)
        spike = _parse_spike(args.spike, gen, eq.grid, eq.rho)
    except (MfeqError, ValueError, OSError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    errors = []
    mean_emp = np.zeros_like(nu_star.values)
    for rep in range(cfg.replications):
        # no bundle outlives its empirical flow, so at most one population's
        # paths and their bincount index are held at once
        emp = simulate(gen, eq.policy, eq.rho, eq.grid, cfg, replication=rep).empirical_flow()
        mean_emp += emp
        errors.append(float(np.abs(emp - nu_star.values).sum(axis=1).max()))
    mean_emp /= cfg.replications
    frac_ok = float(np.mean([e <= args.err_bound for e in errors]))

    dev = deviation_test(eq, gen, cost, k_player=0, spike=spike, cfg=cfg,
                         inner_pairs=args.inner_pairs)

    out = Path(args.eq)
    nodes = eq.grid.nodes
    _write_csv(out / "empirical_flow.csv",
               ["t"] + [f"nuhat_{i + 1}" for i in range(gen.m)],
               np.column_stack([nodes, mean_emp]))
    _write_json(out / "sim_report.json", {
        "players": cfg.players,
        "seed": cfg.seed,
        "replications": cfg.replications,
        "sup_tv_errors": errors,
        "sup_tv_error_mean": float(np.mean(errors)),
        "err_bound": args.err_bound,
        "fraction_within_bound": frac_ok,
        "deviation_test": {
            "spike_node": spike[0],
            "spike_state": spike[1] + 1,
            "spike_action": spike[2],
            "gap": dev.gap,
            "stderr": dev.stderr,
            "ci": [dev.ci_low, dev.ci_high],
            "pairs": dev.pairs,
        },
    })
    passed = frac_ok >= 0.95
    print(f"simulate: mean sup-TV error {np.mean(errors):.4f}, "
          f"{frac_ok * 100:.0f}% of {cfg.replications} replications within "
          f"{args.err_bound}; deviation gap {dev.gap:.4f} "
          f"[{dev.ci_low:.4f}, {dev.ci_high:.4f}]")
    return EXIT_OK if passed else EXIT_BOUND_EXCEEDED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfeq",
        description="Equilibrium solver for time-inconsistent, "
                    "distribution-dependent control of finite-state chains")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log the Picard iterations and warnings to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute an equilibrium from a model file")
    p.add_argument("--model", required=True, help="model file path or builtin name")
    p.add_argument("--grid", type=int, required=True, help="number of time steps")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--relax", type=float, default=1.0)
    p.add_argument("--init-rho", default=None,
                   help="comma-separated initial probabilities (default uniform)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="spike-perturbation check of a solved equilibrium")
    p.add_argument("--eq", required=True, help="equilibrium directory from solve")
    p.add_argument("--action-samples", type=int, default=16)
    p.add_argument("--tol-spike", default="auto",
                   help="violation tolerance (default 5*dt)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="many-player Monte Carlo validation")
    p.add_argument("--eq", required=True, help="equilibrium directory from solve")
    p.add_argument("--players", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--err-bound", type=float, default=0.05)
    p.add_argument("--spike", default=None,
                   help="deviation test spike as node,state,action "
                        "(default: midpoint node, heaviest state, upper action)")
    p.add_argument("--inner-pairs", type=int, default=200)
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logger = logging.getLogger("mfeq")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s %(levelname)s: %(message)s"))
    level = logger.level
    if args.verbose:
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
    try:
        return args.func(args)
    except MfeqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
