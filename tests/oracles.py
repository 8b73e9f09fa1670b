"""Scalar reference loops that the vectorized paths in mfeq replace.

Each function is the loop the library used before it was vectorized; tests
compare the library against it.
"""

import numpy as np

from mfeq.chain import StrategyTable, step_transition, transition_matrix
from mfeq.simulate import PathBundle
from mfeq.verify import SpikeEntry


def transition_loop(gen, strategy) -> np.ndarray:
    """Per-cell transition matrices, one expm call per cell."""
    return np.array([step_transition(gen, strategy, k)
                     for k in range(strategy.grid.steps)])


def sweep_node(gen, cost, eq, transitions, k, action_samples):
    """All spike gaps at node k, the tail value recomputed from scratch."""
    grid = eq.grid
    n = grid.steps
    nodes = grid.nodes
    dt = grid.dt
    tau = nodes[k]
    nu = eq.flow

    def running_profile(s):
        return cost.running_dist(tau, nodes[s], nu.at(s)) \
            + cost.control_profile_cost(nodes[s], eq.policy.actions[s])

    # tail value under the equilibrium policy, evaluated from node k
    w = cost.terminal(tau, nu.at(n)).astype(float)
    for s in range(n - 1, k, -1):
        w = dt * running_profile(s) + transitions[s] @ w
    v_base = dt * running_profile(k) + transitions[k] @ w
    run_k = cost.running_dist(tau, nodes[k], nu.at(k))

    entries = []
    for i in range(gen.m):
        lo, hi = gen.action_interval(nodes[k], i)
        actions = np.unique(np.concatenate([
            np.linspace(lo, hi, action_samples), [lo, hi]]))
        for u in actions:
            profile = np.array([gen.clip_action(nodes[k], j, float(u))
                                for j in range(gen.m)])
            P = transition_matrix(gen, nodes[k], profile, dt)
            v_spiked = dt * (run_k[i] + cost.control_cost(nodes[k], i, float(u))) \
                + float(P[i] @ w)
            gap = (v_spiked - float(v_base[i])) / dt
            entries.append(SpikeEntry(node=k, state=i, action=float(u), gap=gap))
    return entries


def sweep(gen, cost, eq, action_samples):
    """Every spike entry of the sweep, node by node."""
    transitions = transition_loop(gen, eq.policy)
    return [e for k in range(eq.grid.steps)
            for e in sweep_node(gen, cost, eq, transitions, k, action_samples)]


def dense_solve_hj(gen, cost, nu, grid):
    """The whole value table Theta[a, k, i] filled at once, shape (N+1, N+1, m).

    Returns (table, policy, transitions); the diagonal is table[k, k].
    """
    n = grid.steps
    nodes = grid.nodes
    dt = grid.dt
    values = np.empty((n + 1, n + 1, gen.m))
    values[:, n, :] = cost.terminal_many(nodes, nu.at(n))
    actions = np.empty((n, gen.m))
    transitions = np.empty((n, gen.m, gen.m))
    for k in range(n - 1, -1, -1):
        profile = np.asarray(cost.argmin_profile(gen, nodes[k], values[k + 1, k + 1]),
                             float)
        actions[k] = profile
        P = transition_matrix(gen, nodes[k], profile, dt)
        transitions[k] = P
        running = cost.running_dist_many(nodes, nodes[k], nu.at(k))
        running = running + cost.control_profile_cost(nodes[k], profile)
        values[:, k, :] = values[:, k + 1, :] @ P.T + dt * running
    return values, StrategyTable(actions, grid), transitions


def dense_table_distance(gen, cost, nu, nu2, grid):
    """Sup of |Theta(nu) - Theta(nu2)| over two dense tables."""
    t1, _, _ = dense_solve_hj(gen, cost, nu, grid)
    t2, _, _ = dense_solve_hj(gen, cost, nu2, grid)
    return float(np.abs(t1 - t2).max())


def jump_tables(gen, strategy):
    """Per-cell exit rates and cumulative jump probabilities."""
    grid = strategy.grid
    m = gen.m
    exit_rates = np.empty((grid.steps, m))
    cum_probs = np.zeros((grid.steps, m, m))
    for k in range(grid.steps):
        Q = gen.rate_matrix(grid.nodes[k], strategy.actions[k])
        for x in range(m):
            r = -Q[x, x]
            exit_rates[k, x] = r
            if r > 0.0:
                p = np.clip(Q[x], 0.0, None)
                p[x] = 0.0
                c = np.cumsum(p)
                cum_probs[k, x] = c / c[-1]
    return exit_rates, cum_probs


def jump_player(rng, exit_rates, cum_probs, dt, x0, n_cells):
    """Competing exponential clocks within each cell; node snapshots of one path."""
    snapshots = np.empty(n_cells + 1, dtype=np.int64)
    snapshots[0] = x = x0
    for k in range(n_cells):
        remaining = dt
        while True:
            r = exit_rates[k, x]
            if r <= 0.0:
                break
            wait = rng.exponential(1.0 / r)
            if wait >= remaining:
                break
            remaining -= wait
            x = int(np.searchsorted(cum_probs[k, x], rng.random(), side="right"))
        snapshots[k + 1] = x
    return snapshots


def jump_simulate(gen, strategy, rho, players, seed) -> PathBundle:
    """Population of per-player jump chains, one Philox stream per player."""
    grid = strategy.grid
    tables = jump_tables(gen, strategy)
    cum_rho = np.cumsum(rho.weights)
    states = np.empty((players, grid.steps + 1), dtype=np.int64)
    for p in range(players):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, p))))
        x0 = int(np.searchsorted(cum_rho, rng.random(), side="right"))
        states[p] = jump_player(rng, *tables, grid.dt, x0, grid.steps)
    return PathBundle(states, grid, gen.m)
