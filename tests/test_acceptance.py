"""Acceptance suite: one test per shipped criterion, each printing a
pass/fail line with the measured quantities.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import shutil

import numpy as np
import pytest

from mfeq import (
    ProbabilityVector,
    SimConfig,
    TabulatedGenerator,
    TimeGrid,
    deviation_test,
    estimate_constants,
    picard_solve,
    simulate,
    solve_hj,
    verify_local_optimality,
)
from mfeq.chain import transition_stack
from mfeq.cli import main as cli_main
from mfeq.modelfile import build_model, read_model_file
from mfeq.solver import SolverOptions, draw_probes

from instances import (
    random_affine_generator,
    random_flow,
    random_instance,
    random_strategy,
    value_table,
    two_state_transition,
)
from oracles import (
    constant_flow,
    constant_strategy,
    dp_oracle,
    empirical_flow_error,
    equilibrium_of,
    evaluate_cost,
    mean_variance_terminal,
    peer_flows,
    spike_gap,
    strategy_flow,
)

BUILTINS = ["affine_mv", "affine_mv_gtilde", "dist_independent",
            "time_consistent", "zero_cost"]


def criterion(number: int, name: str, ok: bool, detail: str):
    line = f"[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def solve_builtin(name: str, steps: int):
    model = read_model_file(name)
    grid = TimeGrid(model["horizon"], steps)
    gen, cost = build_model(model, grid)
    eq = picard_solve(gen, cost, ProbabilityVector.uniform(model["states"]), grid)
    return gen, cost, eq


@pytest.fixture(scope="module")
def equilibria_200():
    """Every shipped model solved on a 200-step grid."""
    solved = {}
    for name in BUILTINS:
        gen, cost, eq = solve_builtin(name, 200)
        assert eq.converged, f"{name} failed to converge"
        solved[name] = (gen, cost, eq)
    return solved


@pytest.fixture(scope="module")
def sim_equilibrium():
    """The contractive 2-state example on a 100-step grid for simulation."""
    gen, cost, eq = solve_builtin("affine_mv", 100)
    assert eq.converged
    return gen, cost, eq


def test_c01_simplex_conservation():
    rng = np.random.default_rng(20240801)
    worst_drift = 0.0
    worst_neg = 0.0
    for trial in range(1000):
        m = int(rng.integers(2, 11))
        if trial % 20 == 0:
            steps = int(rng.integers(300, 401))
        else:
            steps = int(10 ** rng.uniform(1.0, np.log10(400)))
        grid = TimeGrid(float(rng.uniform(0.2, 1.5)), steps)
        gen = random_affine_generator(rng, m)
        strat = random_strategy(rng, gen, grid)
        flow = strategy_flow(gen, rng.dirichlet(np.ones(m)), strat)
        worst_drift = max(worst_drift,
                          float(np.abs(flow.values.sum(axis=1) - 1.0).max()))
        worst_neg = min(worst_neg, float(flow.values.min()))
    ok = worst_drift <= 1e-10 and worst_neg >= -1e-12
    criterion(1, "simplex conservation over 1000 random propagations", ok,
              f"max row-sum drift {worst_drift:.2e}, min entry {worst_neg:.2e}")


def test_c02_forward_flow_oracle():
    cases = {
        "symmetric": (1.0, 1.0, [[-1.0, 1.0], [1.0, -1.0]]),
        "absorbing": (0.0, 1.0, [[0.0, 0.0], [1.0, -1.0]]),
    }
    worst = 0.0
    for steps in (100, 250):
        grid = TimeGrid(1.0, steps)
        for a, b, rates in cases.values():
            gen = TabulatedGenerator(rates)
            strat = constant_strategy(grid, 2, 0.0)
            for rho in ([1.0, 0.0], [0.0, 1.0], [0.3, 0.7]):
                flow = strategy_flow(gen, ProbabilityVector(rho), strat)
                for k in range(steps + 1):
                    exact = np.asarray(rho) @ two_state_transition(
                        a, b, grid.nodes[k])
                    worst = max(worst, float(np.abs(flow.at(k) - exact).max()))
    criterion(2, "two-state closed-form forward flow", worst <= 1e-8,
              f"worst node error {worst:.2e} (tolerance 1e-8)")


@pytest.fixture(scope="module")
def random_hj_solutions():
    rng = np.random.default_rng(77)
    solved = []
    for _ in range(50):
        grid, gen, cost = random_instance(rng, steps=int(rng.integers(20, 61)))
        nu = random_flow(rng, grid, gen.m)
        table, policy = value_table(gen, cost, nu)
        solved.append((grid, gen, cost, nu, table, policy))
    return solved


def test_c03_representation_identity(random_hj_solutions):
    rng = np.random.default_rng(78)
    worst = 0.0
    for grid, gen, cost, nu, table, policy in random_hj_solutions:
        stack = transition_stack(gen, policy)
        triples = {(0, 0, 0), (grid.steps, grid.steps, gen.m - 1)}
        while len(triples) < 24:
            triples.add((int(rng.integers(0, grid.steps + 1)),
                         int(rng.integers(0, grid.steps + 1)),
                         int(rng.integers(0, gen.m))))
        for a, k, i in triples:
            direct = evaluate_cost(gen, cost, nu, policy, a, k, i,
                                   transitions=stack)
            worst = max(worst, abs(direct - table[a, k, i]))
    criterion(3, "value table equals trajectory cost on 50 random instances",
              worst <= 1e-9, f"worst |difference| {worst:.2e} (tolerance 1e-9)")


def test_c04_uniform_bound(random_hj_solutions):
    worst_hi = -np.inf
    worst_lo = np.inf
    ok = True
    for grid, gen, cost, nu, table, policy in random_hj_solutions:
        bound = (gen.K1 + cost.K2) * grid.horizon + cost.K2
        worst_lo = min(worst_lo, float(table.min()))
        margin = float(table.max()) - bound
        worst_hi = max(worst_hi, margin)
        ok = ok and table.min() >= -1e-12 and margin <= 1e-9
    criterion(4, "uniform value bound 0 <= value <= (K1+K2)T + K2", ok,
              f"min value {worst_lo:.2e}, worst upper margin {worst_hi:.2e}")


def test_c05_time_consistent_reduction():
    model = read_model_file("time_consistent")

    def gap_at(steps):
        grid = TimeGrid(model["horizon"], steps)
        gen, cost = build_model(model, grid)
        nu = constant_flow(np.ones(3) / 3, grid)
        sweep, _ = solve_hj(gen, cost, nu)
        W, _ = dp_oracle(gen, cost, nu, grid)
        return float(np.abs(sweep.values - W).max())

    coarse, fine = gap_at(400), gap_at(800)
    order = float(np.log2(coarse / fine))
    ok = coarse <= 0.05 and order >= 0.8
    criterion(5, "classical backward-induction agreement (m=3, T=1)", ok,
              f"gap {coarse:.2e} at 400 steps, observed order {order:.2f}")


def test_c06_contraction_and_uniqueness(equilibria_200):
    gen, cost, eq = equilibria_200["affine_mv"]
    grid = eq.grid
    report = estimate_constants(gen, cost, grid, draw_probes(gen, cost, grid, 6, 0))
    bound = report.product + 0.1
    ratios = [b / a for a, b in zip(eq.diagnostics.gaps, eq.diagnostics.gaps[1:])
              if a > 1e-13 and b > 1e-13]
    ratios_ok = report.product < 1.0 and all(r <= bound for r in ratios[1:])

    rng = np.random.default_rng(6)
    opts = SolverOptions(tolerance=1e-8)
    alt = picard_solve(gen, cost, ProbabilityVector.uniform(2), grid, opts,
                       initial_flow=random_flow(rng, grid, 2))
    dist = eq.flow.sup_distance(alt.flow)
    unique_ok = alt.converged and dist <= 10.0 * opts.tolerance
    criterion(6, "geometric convergence under the product condition",
              ratios_ok and unique_ok,
              f"product {report.product:.3f}, max ratio "
              f"{max(ratios[1:], default=0.0):.3f} <= {bound:.3f}, "
              f"init-independence sup-TV {dist:.2e}")


def test_c07_distribution_independent_reduction():
    model = read_model_file("dist_independent")
    grid = TimeGrid(model["horizon"], 200)
    gen, cost = build_model(model, grid)
    rhos = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0.2, 0.5, 0.3], [0.4, 0.4, 0.2]]
    policies = []
    iterations = []
    for rho in rhos:
        eq = picard_solve(gen, cost, ProbabilityVector(rho), grid)
        assert eq.converged
        policies.append(eq.policy.actions)
        iterations.append(eq.diagnostics.iterations)
    bitwise = all(np.array_equal(policies[0], p) for p in policies[1:])
    ok = bitwise and all(n == 2 for n in iterations)
    criterion(7, "distribution-independent costs: policy ignores the initial law",
              ok, f"iterations {iterations}, policies bitwise equal: {bitwise}")


def test_c08_spike_suite(equilibria_200):
    clean = {}
    for name in BUILTINS:
        gen, cost, eq = equilibria_200[name]
        report = verify_local_optimality(eq, gen, cost, action_samples=16)
        clean[name] = (len(report.violations), report.min_gap, report.tol)
    all_clean = all(v == 0 for v, _, _ in clean.values())

    gen, cost, eq = equilibria_200["time_consistent"]
    k0, i0 = 80, 0
    lo, hi = gen.action_bounds(eq.grid.nodes[k0])[i0]
    orig = eq.policy.actions[k0, i0]
    bad_action = orig + 0.5 if orig + 0.5 <= hi else orig - 0.5
    profile = eq.policy.actions[k0].copy()
    profile[i0] = bad_action
    policy = eq.policy.with_cell(k0, profile)
    bad_eq = equilibrium_of(gen, eq.rho, policy, eq.values, eq.diagnostics)
    negative = verify_local_optimality(bad_eq, gen, cost, action_samples=16)
    ok = all_clean and len(negative.violations) >= 1
    detail = ", ".join(f"{n}: min gap {g:.1e}" for n, (v, g, t) in clean.items())
    criterion(8, "spike sweeps clean on shipped equilibria, corrupted policy caught",
              ok, f"{detail}; negative control violations "
                  f"{len(negative.violations)}")


def test_c09_terminal_variant_discriminator(equilibria_200):
    rng = np.random.default_rng(9)
    worst_pop = 0.0
    labels = [1, 2]
    for _ in range(50):
        rho = rng.dirichlet(np.ones(2))
        pop_g = sum(mean_variance_terminal("g", i, rho) * rho[i - 1]
                    for i in labels)
        pop_gt = sum(mean_variance_terminal("gtilde", i, rho) * rho[i - 1]
                     for i in labels)
        worst_pop = max(worst_pop, abs(pop_g - pop_gt))
    _, _, eq_g = equilibria_200["affine_mv"]
    _, _, eq_gt = equilibria_200["affine_mv_gtilde"]
    policy_gap = float(np.abs(eq_g.policy.actions - eq_gt.policy.actions).max())
    ok = worst_pop <= 1e-12 and policy_gap > 1e-3
    criterion(9, "mean-variance variants: same population cost, different policies",
              ok, f"population gap {worst_pop:.1e}, policy gap {policy_gap:.3f}")


def test_c10_mean_field_limit(sim_equilibrium):
    gen, cost, eq = sim_equilibrium
    reps = 20
    populations = [100, 1000, 10_000]
    mean_errors = []
    frac_within = None
    for n_players in populations:
        errs = [empirical_flow_error(
            simulate(eq.transitions, eq.rho, SimConfig(players=n_players, seed=101),
                     replication=r),
            eq.flow)
            for r in range(reps)]
        mean_errors.append(float(np.mean(errs)))
        if n_players == 10_000:
            frac_within = float(np.mean([e <= 0.05 for e in errs]))
    monotone = mean_errors[0] > mean_errors[1] > mean_errors[2]
    slope = float(np.polyfit(np.log10(populations), np.log10(mean_errors), 1)[0])
    slope_ok = -0.65 <= slope <= -0.35

    sweep = verify_local_optimality(eq, gen, cost, action_samples=8)
    worst = sweep.worst
    det = spike_gap(eq, gen, cost, worst.node, worst.state, worst.action)
    cfg = SimConfig(players=10_000, seed=202, replications=5)
    est = deviation_test(eq, gen, cost, spike=(worst.node, worst.state, worst.action),
                         cfg=cfg, peers=peer_flows(eq, cfg), inner_pairs=400)
    dev_ok = est.covers(det)
    ok = monotone and slope_ok and frac_within >= 0.95 and dev_ok
    criterion(10, "many-player limit: LLN rate and deviation-test agreement", ok,
              f"mean errors {['%.4f' % e for e in mean_errors]}, slope {slope:.2f}, "
              f"fraction within 0.05 at 10k: {frac_within:.2f}, deterministic gap "
              f"{det:.4f} in CI [{est.ci_low:.4f}, {est.ci_high:.4f}]")


def test_c11_determinism(tmp_path):
    def artifact_bytes(directory):
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())
                if p.is_file()}

    solve_args = ["solve", "--model", "affine_mv", "--grid", "50"]
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(solve_args + ["--out", str(d1)]) == 0
    assert cli_main(solve_args + ["--out", str(d2)]) == 0
    solve_same = artifact_bytes(d1) == artifact_bytes(d2)

    sim_args = ["simulate", "--players", "500", "--seed", "7", "--reps", "3",
                "--inner-pairs", "25", "--err-bound", "0.5"]
    s1, s2 = tmp_path / "sim1", tmp_path / "sim2"
    shutil.copytree(d1, s1)
    shutil.copytree(d2, s2)
    assert cli_main(sim_args + ["--eq", str(s1)]) == 0
    assert cli_main(sim_args + ["--eq", str(s2)]) == 0
    sim_same = (s1 / "sim_report.json").read_bytes() == \
        (s2 / "sim_report.json").read_bytes() and \
        (s1 / "empirical_flow.csv").read_bytes() == \
        (s2 / "empirical_flow.csv").read_bytes()
    ok = solve_same and sim_same
    criterion(11, "byte-identical artifacts for repeated solve and seeded simulate",
              ok, f"solve identical: {solve_same}, simulate identical: {sim_same}")
