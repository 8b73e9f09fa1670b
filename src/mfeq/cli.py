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
import math
import sys
from pathlib import Path

import numpy as np

from .chain import (MASS_ATOL, ProbabilityVector, StrategyTable, TimeGrid, _simplex_rows,
                    admissible, propagate_flow, transition_stack)
from .errors import MfeqError, ModelFileError, NumericalError
from .modelfile import build_model, is_finite_number, model_hash, read_model_file
from .simulate import SimConfig, check_inner_pairs, deviation_test, simulate
from .solver import (Equilibrium, SolverOptions, contraction_verdict, estimate_constants,
                     picard_solve, validate_cost, value_bound)
from .verify import check_sweep_options, verify_local_optimality

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_CONVERGED = 2
EXIT_BOUND_EXCEEDED = 2
EXIT_VIOLATIONS = 3

# by name: under `python -m mfeq.cli` this module's __name__ is "__main__"
logger = logging.getLogger("mfeq.cli")


# rows of _write_csv's unit of work: a block's values are deduplicated and
# formatted together, so the block bounds the keys, distinct strings and
# text of a large table held at once
CSV_BLOCK_ROWS = 1024


def _write_csv(path: Path, header: list[str], table: np.ndarray) -> None:
    """Write a 2-D float array under a header, every value as "%.17g".

    Each block of CSV_BLOCK_ROWS rows formats each of its distinct bit
    patterns once, then fills its lines with those strings.  Keys are bits,
    not values: 0.0 and -0.0 print differently, and every NaN prints "nan".
    """
    table = np.asarray(table, dtype=np.float64)
    line = ",".join(["%s"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(table), CSV_BLOCK_ROWS):
            block = table[start:start + CSV_BLOCK_ROWS]
            keys, inverse = np.unique(block.view(np.int64).ravel(), return_inverse=True)
            distinct = ",".join(["%.17g"] * len(keys)) % tuple(keys.view(np.float64).tolist())
            text = np.array(distinct.split(","), dtype=object)
            fh.write((line * len(block)) % tuple(text[inverse].tolist()))


def _write_node_table(path: Path, prefix: str, times: np.ndarray, values: np.ndarray) -> None:
    """Write one row per node: its time t, then columns prefix_1 ... prefix_m."""
    _write_csv(path, ["t"] + [f"{prefix}_{i + 1}" for i in range(values.shape[1])],
               np.column_stack([times, values]))


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
    try:
        parts = [float(p) for p in text.split(",")]
        if len(parts) != m:
            raise ValueError(f"expected {m} probabilities, got {len(parts)}")
        return ProbabilityVector(parts)
    except (NumericalError, ValueError) as exc:
        raise ModelFileError("init-rho", str(exc)) from None


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
        opts = SolverOptions(tolerance=args.tol, max_iterations=args.max_iter)
        model = read_model_file(args.model)
        grid = TimeGrid(model["horizon"], args.grid)
        gen, cost = build_model(model, grid)
        rho = _parse_rho(args.init_rho, model["states"])
    except (MfeqError, ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    eq = picard_solve(gen, cost, rho, grid, opts)
    contraction = estimate_constants(gen, cost, grid, seed=0)
    model_checks = validate_cost(gen, cost, grid)
    if model_checks:
        logger.warning("%d model check findings, the first: %s", len(model_checks),
                       model_checks[0])
    bound = value_bound(gen, cost, grid)
    lower_margin, upper_margin = eq.values.low, bound - eq.values.high
    if lower_margin < -1e-8 or upper_margin < -1e-8:
        logger.warning("value table exceeds declared bounds: above by %.3e, below by %.3e "
                       "(declared constants may be inconsistent)", max(-upper_margin, 0.0),
                       max(-lower_margin, 0.0))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "model.json", model)
    nodes = grid.nodes
    _write_node_table(out / "flow.csv", "nu", nodes, eq.flow.values)
    _write_node_table(out / "policy.csv", "pi", nodes[:-1], eq.policy.actions)
    _write_node_table(out / "theta_diag.csv", "theta", nodes, eq.values.values)
    verdict = contraction_verdict(contraction, eq.diagnostics)
    _write_json(out / "equilibrium.json", {
        "schema": 1,
        "model_hash": model_hash(model),
        "grid": {"horizon": grid.horizon, "steps": grid.steps},
        "rho": eq.rho.tolist(),
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
            "lower_margin": lower_margin,
            "upper_margin": upper_margin,
        },
        "model_checks": model_checks,
        "contraction": {
            "kappa1": contraction.kappa1,
            "kappa2": contraction.kappa2,
            "kappa3": contraction.kappa3,
            "product": contraction.product,
            "verdict": verdict,
            "note": contraction.note,
        },
    })
    status = "converged" if eq.converged else "NOT converged"
    print(f"solve: {status} after {eq.diagnostics.iterations} iterations "
          f"(final gap {eq.diagnostics.gaps[-1]:.3e}); "
          f"contraction product {contraction.product:.4g} -> {verdict}"
          + ("" if eq.converged else _iterations_still_needed(eq.diagnostics, opts.tolerance)))
    return EXIT_OK if eq.converged else EXIT_NOT_CONVERGED


def _iterations_still_needed(diagnostics, tol: float) -> str:
    """What a stopped run's median gap ratio r implies: about
    ceil(log(tol / gap) / log r) more iterations take the final gap below
    tol.  Empty unless 0 < r < 1."""
    ratio = diagnostics.ratio
    if not 0.0 < ratio < 1.0:
        return ""
    more = math.ceil(math.log(tol / diagnostics.gaps[-1]) / math.log(ratio))
    return f"; at gap ratio {ratio:.3g}, about {more} more iterations reach --tol {tol:g}"


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
    try:  # tested, not renormalized: the flow starts from the stored bits
        _simplex_rows(np.array([rho], dtype=float), lambda r: "")
    except NumericalError as exc:
        raise ModelFileError("rho", str(exc)) from None
    drift = abs(sum(rho) - 1.0)  # Python's sum overflows to inf without a warning
    if drift > MASS_ATOL:
        raise ModelFileError("rho", f"mass drift {drift:.3e} exceeds tolerance")
    policy_rows = _read_csv(eq_dir / "policy.csv")
    if policy_rows.shape != (grid.steps, gen.m + 1):
        raise ModelFileError("policy.csv",
                             f"expected {grid.steps} rows of {gen.m + 1} columns")
    policy = StrategyTable(policy_rows[:, 1:], grid)
    # the spike test and simulate's error both take the pair's own flow, so
    # it is re-propagated from the stored policy; flow.csv is never read
    transitions = transition_stack(gen, policy)
    flow = propagate_flow(gen, rho, policy, transitions=transitions)
    # verify and simulate read neither the solver's values nor its diagnostics
    eq = Equilibrium(flow=flow, policy=policy, values=None, diagnostics=None)
    return gen, cost, eq, transitions


def cmd_verify(args) -> int:
    try:
        tol = None if args.tol_spike == "auto" else float(args.tol_spike)
        check_sweep_options(args.action_samples, tol)
        gen, cost, eq, transitions = _load_equilibrium(Path(args.eq))
    except (MfeqError, ValueError, OSError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    report = verify_local_optimality(eq, gen, cost,
                                     action_samples=args.action_samples,
                                     tol_spike=tol, transitions=transitions)
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

    worst = report.worst
    _write_json(out / "spike_summary.json", {
        "tolerance": report.tol,
        "min_gap": report.min_gap,
        "perturbations": len(entries),
        "violations": [spike(e) for e in report.violations],
        "worst": {**spike(worst), "node": int(worst.node)},
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
        gen, cost, eq, transitions = _load_equilibrium(Path(args.eq))
        spike = _parse_spike(args.spike, gen, eq.grid, eq.rho)
    except (MfeqError, ValueError, OSError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    errors = []
    peers = []
    mean_emp = np.zeros_like(eq.flow.values)
    for rep in range(cfg.replications):
        bundle = simulate(gen, eq.policy, eq.rho, cfg, replication=rep, transitions=transitions)
        emp = bundle.empirical_flow()
        peers.append(bundle.peer_flow())
        # only the flows outlive a replication, so at most one population's
        # paths are held at once
        del bundle
        mean_emp += emp
        errors.append(float(np.abs(emp - eq.flow.values).sum(axis=1).max()))
    mean_emp /= cfg.replications
    frac_ok = float(np.mean([e <= args.err_bound for e in errors]))

    dev = deviation_test(eq, gen, cost, spike=spike, cfg=cfg, peers=peers,
                         inner_pairs=args.inner_pairs, transitions=transitions)

    out = Path(args.eq)
    _write_node_table(out / "empirical_flow.csv", "nuhat", eq.grid.nodes, mean_emp)
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
    package_log = logging.getLogger("mfeq")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s %(levelname)s: %(message)s"))
    level = package_log.level
    if args.verbose:
        package_log.addHandler(handler)
        package_log.setLevel(logging.INFO)
    try:
        return args.func(args)
    except MfeqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        package_log.removeHandler(handler)
        package_log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
