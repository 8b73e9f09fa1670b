"""Reference oracles and conveniences for the tests; the package does not ship them.

Two kinds of reference live here:
- scalar loops that the vectorized paths in mfeq replaced, which tests
  compare the library against;
- independent references that no command runs: classical backward
  induction (dp_oracle, c05's reference), the one-spike gap by trajectory
  cost (spike_gap, evaluate_cost), the total variation distance and the
  mean-variance terminal costs at one label.

The small constructors (dirac, constant_strategy, constant_flow) build test
inputs.
"""

from collections import namedtuple

import numpy as np

from mfeq.chain import (ACTION_ATOL, GENERATOR_ATOL, FlowCurve, GeneratorReport,
                        ProbabilityVector, StrategyTable, admissible, clip_to_bounds,
                        transition_matrix, transition_stack)
from mfeq.errors import AdmissibilityError, DimensionMismatch
from mfeq.hj import EvaluationBasis, value_bound
from mfeq.models import ACTION_HI, ACTION_LO, label_means
from mfeq.simulate import _PEER_STREAM, PathBundle, _cumulative, _inverse_cdf, _stream
from mfeq.verify import constant_spike_profile

# one spike of the reference sweep, as verify's entries name their fields
SpikeEntry = namedtuple("SpikeEntry", "node state action gap")


def evaluation_rows(basis, C, a):
    """Values at the evaluation rows a (an index array or a slice) of every
    table in the (B, 2, m) coefficient stack C, shape (B, len(a), m)."""
    return basis.weight[a, None] * C[:, None, 0] + C[:, None, 1]


def rate_row(gen, t, i, v):
    """Row q_t^v(i, .) of the generator: row i under the constant profile v."""
    return gen.rate_matrix(t, np.full(gen.m, v))[i]


def control_entry(cost, t, i, v):
    """State i's control cost of the action v."""
    return float(cost.control_profile_cost(t, np.full(cost.m, v))[i])


def running_dist(cost, tau, t, rho):
    """Running cost w(tau) f(t, rho) seen from the evaluation time tau."""
    return float(cost.tau_weight(tau)) * cost.running_base(t, rho)


def admissible_interval(alpha_row, beta, i):
    """Largest closed subinterval of [-1, 1] keeping row i a generator row,
    one constraint j != i at a time."""
    a = np.asarray(alpha_row, dtype=float)
    b = np.asarray(beta, dtype=float)
    lo, hi = ACTION_LO, ACTION_HI
    for j in range(a.size):
        if j == i or b[j] == 0.0:
            continue
        bound = -a[j] / b[j]
        if b[j] > 0.0:
            lo = max(lo, bound)
        else:
            hi = min(hi, bound)
    return lo, hi


def bounds_loop(gen, t):
    """(m, 2) admissible intervals of an affine model at node time t,
    state by state."""
    alpha, beta = gen.coefficients_at(t)
    return np.array([admissible_interval(alpha[i], beta, i) for i in range(gen.m)])


def clip_argmin(gen, t, h):
    """Affine-quadratic argmin, state by state: the stationary point
    -(h . beta) clipped into each state's interval."""
    _, beta = gen.coefficients_at(t)
    s = float(np.asarray(h, dtype=float) @ np.asarray(beta, dtype=float))
    return np.array([min(max(-s, lo), hi) for lo, hi in bounds_loop(gen, t).tolist()])


def scan_golden_min(fn, lo: float, hi: float, n_scan: int = 33, tol: float = 1e-10):
    """Minimize a 1-D function on [lo, hi]: coarse scan, then golden section.

    Ties in the coarse scan break toward the smallest argument, so the
    result is deterministic across runs and platforms.
    Returns (argmin, min value).
    """
    if hi <= lo:
        return lo, fn(lo)
    xs = np.linspace(lo, hi, n_scan)
    return golden_refine(fn, xs, [fn(x) for x in xs], tol)


def scan_argmin(cost, gen, t, h):
    """Profile of minimizers of state i's control cost + q_t^v(i, .) . h, one
    per row of h: scan_golden_min's 33-point scan, in one stacked call, and
    golden section on each state of each row, ties toward the smallest
    action.  The generic fallback that CostModel.argmin_profile ran before
    every built-in pair had a closed form."""
    hv = np.asarray(h, dtype=float)
    bounds = gen.action_bounds(t)
    out = np.empty(hv.shape)
    for idx in np.ndindex(hv.shape):
        row, i = hv[idx[:-1]], idx[-1]

        def objective(v, i=i, row=row):
            # one action or an array of them, each the constant profile v;
            # np.vecdot makes each value independent of the array it comes in
            profiles = np.repeat(np.asarray(v)[..., None], gen.m, axis=-1)
            return cost.control_profile_cost(t, profiles)[..., i] \
                + np.vecdot(gen.rate_matrix(t, profiles)[..., i, :], row)

        lo, hi = bounds[i]
        if hi > lo:
            xs = np.linspace(lo, hi, 33)
            out[idx], _ = golden_refine(objective, xs, objective(xs), tol=1e-10)
        else:
            out[idx] = lo
    return out


def transition_loop(gen, strategy) -> np.ndarray:
    """Per-cell transition matrices, one expm call per cell."""
    grid = strategy.grid
    return np.array([transition_matrix(gen, grid.nodes[k], strategy.actions[k], grid.dt)
                     for k in range(grid.steps)])


def spike_actions(lo, hi, action_samples):
    """The distinct actions a sweep spikes on [lo, hi], ascending."""
    return np.unique(np.concatenate([np.linspace(lo, hi, action_samples), [lo, hi]]))


def spikes(gen, grid, action_samples):
    """(node, state, action) of every spike in report order, one
    spike_actions call per (node, state)."""
    return [(k, i, u) for k in range(grid.steps)
            for i, (lo, hi) in enumerate(gen.action_bounds(grid.nodes[k]).tolist())
            for u in spike_actions(lo, hi, action_samples).tolist()]


def sweep_node(gen, cost, eq, transitions, k, action_samples):
    """All spike gaps at node k, the tail value recomputed from scratch."""
    grid = eq.grid
    n = grid.steps
    nodes = grid.nodes
    dt = grid.dt
    tau = nodes[k]
    nu = eq.flow

    def running_profile(s):
        return running_dist(cost, tau, nodes[s], nu.at(s)) \
            + cost.control_profile_cost(nodes[s], eq.policy.actions[s])

    # tail value under the equilibrium policy, evaluated from node k
    w = cost.terminal(tau, nu.at(n)).astype(float)
    for s in range(n - 1, k, -1):
        w = dt * running_profile(s) + transitions[s] @ w
    v_base = dt * running_profile(k) + transitions[k] @ w
    run_k = running_dist(cost, tau, nodes[k], nu.at(k))

    entries = []
    bounds = bounds_loop(gen, nodes[k]).tolist()
    for i in range(gen.m):
        for u in spike_actions(*bounds[i], action_samples):
            profile = np.array([min(max(float(u), lo_j), hi_j) for lo_j, hi_j in bounds])
            P = transition_matrix(gen, nodes[k], profile, dt)
            v_spiked = dt * (run_k[i] + control_entry(cost, nodes[k], i, float(u))) \
                + float(P[i] @ w)
            gap = (v_spiked - float(v_base[i])) / dt
            entries.append(SpikeEntry(node=k, state=i, action=float(u), gap=gap))
    return entries


def sweep(gen, cost, eq, action_samples):
    """Every spike entry of the sweep, node by node."""
    transitions = transition_loop(gen, eq.policy)
    return [e for k in range(eq.grid.steps)
            for e in sweep_node(gen, cost, eq, transitions, k, action_samples)]


def dp_loop(gen, cost, nu, grid, tau=0.0):
    """dp_oracle with the scalar coarse scan: one transition_matrix call per
    objective evaluation.  Returns (W, actions)."""
    n = grid.steps
    nodes = grid.nodes
    dt = grid.dt
    W = np.empty((n + 1, gen.m))
    W[n] = cost.terminal(tau, nu.at(n))
    actions = np.empty((n, gen.m))
    for k in range(n - 1, -1, -1):
        t = nodes[k]
        run = running_dist(cost, tau, t, nu.at(k))
        bounds = gen.action_bounds(t)
        for i in range(gen.m):
            lo, hi = bounds[i]

            def objective(v, i=i, t=t):
                P = transition_matrix(gen, t, clip_to_bounds(bounds, v), dt)
                return dt * control_entry(cost, t, i, v) + float(P[i] @ W[k + 1])

            v_star, val = scan_golden_min(objective, lo, hi, n_scan=17, tol=1e-6)
            actions[k, i] = v_star
            W[k, i] = dt * run[i] + val
    return W, actions


def dense_solve_hj(gen, cost, nu, grid):
    """The whole value table Theta[a, k, i] filled at once, shape (N+1, N+1, m).

    Returns (table, policy, transitions); the diagonal is table[k, k].
    """
    n = grid.steps
    nodes = grid.nodes
    dt = grid.dt
    values = np.empty((n + 1, n + 1, gen.m))
    values[:, n, :] = [cost.terminal(tau, nu.at(n)) for tau in nodes]
    actions = np.empty((n, gen.m))
    transitions = np.empty((n, gen.m, gen.m))
    for k in range(n - 1, -1, -1):
        profile = np.asarray(cost.argmin_profile(gen, nodes[k], values[k + 1, k + 1]),
                             float)
        actions[k] = profile
        P = transition_matrix(gen, nodes[k], profile, dt)
        transitions[k] = P
        running = np.array([running_dist(cost, tau, nodes[k], nu.at(k)) for tau in nodes])
        running = running + cost.control_profile_cost(nodes[k], profile)
        values[:, k, :] = values[:, k + 1, :] @ P.T + dt * running
    return values, StrategyTable(actions, grid), transitions


def tail_values_loop(cost, nu, actions, transitions):
    """verify._tail_values with a row per evaluation node: row a < s
    collects the running cost seen from t_a at every node s > a.  Shape
    (steps, m)."""
    grid = nu.grid
    n, dt = grid.steps, grid.dt
    taus = grid.nodes
    tails = np.array([cost.terminal(tau, nu.at(n)) for tau in taus[:n]], dtype=float)
    for s in range(n - 1, 0, -1):
        running = np.array([running_dist(cost, tau, taus[s], nu.at(s)) for tau in taus[:s]]) \
            + cost.control_profile_cost(taus[s], actions[s])
        tails[:s] = dt * running + tails[:s] @ transitions[s].T
    return tails


def dense_table_distances(gen, cost, pairs, grid):
    """Sup of |Theta(nu) - Theta(nu2)| over two dense tables, per pair."""
    out = []
    for nu, nu2 in pairs:
        t1, _, _ = dense_solve_hj(gen, cost, nu, grid)
        t2, _, _ = dense_solve_hj(gen, cost, nu2, grid)
        out.append(float(np.abs(t1 - t2).max()))
    return np.array(out)


def validate_generator(model, grid, samples=8):
    """Generator report from one rate_row call per (node, state, action)."""
    report = GeneratorReport(ok=True, kappa1_hat=0.0, K1_hat=0.0,
                             samples_per_point=samples)
    bounds = model.action_bounds(grid.nodes)
    for k, t in enumerate(grid.nodes):
        for i in range(model.m):
            lo, hi = bounds[k, i]
            actions = np.linspace(lo, hi, samples) if hi > lo else np.array([lo])
            rows = np.array([rate_row(model, t, i, v) for v in actions])
            report.K1_hat = max(report.K1_hat, float(np.abs(rows).max()))
            sums = rows.sum(axis=1)
            for v, s in zip(actions, sums):
                if abs(s) > GENERATOR_ATOL:
                    report.row_sum_violations.append((k, i, float(v), float(s)))
            off = rows.copy()
            off[:, i] = 0.0
            for v, row in zip(actions, off):
                worst = row.min()
                if worst < -GENERATOR_ATOL:
                    report.sign_violations.append((k, i, float(v), float(worst)))
            if actions.size > 1:
                dv = np.abs(np.diff(actions))
                dq = np.abs(np.diff(rows, axis=0)).sum(axis=1)
                report.kappa1_hat = max(report.kappa1_hat, float((dq / dv).max()))
                span = hi - lo
                endpoint = np.abs(rows[-1] - rows[0]).sum() / span
                report.kappa1_hat = max(report.kappa1_hat, float(endpoint))
    report.ok = not (report.row_sum_violations or report.sign_violations)
    return report


def validate_cost(gen, cost, grid, samples=24, seed=0):
    """hj.validate_cost with the control-cost cap and the argmin checked
    state by state, the 65 scan points one np.linspace per state."""
    rng = np.random.default_rng(seed)
    nodes = grid.nodes
    problems = []
    for _ in range(samples):
        a = rng.integers(0, grid.steps + 1)
        k = rng.integers(0, grid.steps + 1)
        tau, t = nodes[a], nodes[k]
        rho = rng.dirichlet(np.ones(cost.m))
        rho2 = rng.dirichlet(np.ones(cost.m))
        f = running_dist(cost, tau, t, rho)
        g = cost.terminal(tau, rho)
        if f.min() < -1e-12 or g.min() < -1e-12:
            problems.append(f"negative cost at (tau={tau:.3g}, t={t:.3g})")
        if f.max() > cost.K2 + 1e-9 or g.max() > cost.K2 + 1e-9:
            problems.append(
                f"cost exceeds K2={cost.K2:.6g} at (tau={tau:.3g}, t={t:.3g}): "
                f"max f={f.max():.6g}, max g={g.max():.6g}")
        df = np.abs(f - running_dist(cost, tau, t, rho2))
        dg = np.abs(g - cost.terminal(tau, rho2))
        d = float(np.abs(rho - rho2).sum())
        if (df + dg).max() > cost.K3 * d + 1e-9:
            problems.append(f"flow-Lipschitz bound K3={cost.K3:.6g} violated")
        bounds = gen.action_bounds(t)
        for i, v in enumerate(rng.uniform(bounds[:, 0], bounds[:, 1])):
            psi = control_entry(cost, t, i, float(v))
            if psi > gen.K1 + 1e-9:
                problems.append(f"control cost {psi:.6g} exceeds K1={gen.K1:.6g}")
        h = rng.uniform(0.0, value_bound(gen, cost, grid), cost.m)
        profile = cost.argmin_profile(gen, t, h)
        for i in range(cost.m):
            lo, hi = bounds[i]
            if not lo - ACTION_ATOL <= profile[i] <= hi + ACTION_ATOL:
                problems.append(f"argmin profile inadmissible at state {i}")
                continue

            def objective(v, i=i):
                return control_entry(cost, t, i, v) + float(rate_row(gen, t, i, v) @ h)

            achieved = objective(float(profile[i]))
            grid_best = min(objective(v) for v in np.linspace(lo, hi, 65))
            if achieved > grid_best + 1e-8:
                problems.append(
                    f"argmin misses sampled minimum by {achieved - grid_best:.3e} "
                    f"at state {i}")
    return problems


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


def evaluate_population_cost(gen, cost, rho, strategy, a, k, transitions=None):
    """Population cost with the self-consistent flow inside f and g.

    The law propagated from rho at node k is itself the distribution argument
    of the running and terminal costs.  When that self-flow coincides with a
    frozen curve nu, this equals the rho-mixture of evaluate_cost values.
    """
    grid = strategy.grid
    n = grid.steps
    nodes = grid.nodes
    dt = grid.dt
    tau = nodes[a]
    mu = np.array(rho.weights if hasattr(rho, "weights") else rho, dtype=float)
    if mu.size != gen.m:
        raise DimensionMismatch("initial law dimension differs from model")
    if transitions is None:
        transitions = transition_stack(gen, strategy)
    total = 0.0
    for s in range(k, n):
        f = running_dist(cost, tau, nodes[s], mu)
        f = f + cost.control_profile_cost(nodes[s], strategy.actions[s])
        total += dt * float(mu @ f)
        mu = mu @ transitions[s]
    total += float(mu @ cost.terminal(tau, mu))
    return total


def backward_loop(gen, cost, flows, grid):
    """backward_columns with per-cell readouts: the diagonal read through a
    list index, the flow costs of each cell from their own call and the
    running coefficients stacked before they are added.  Yields the same
    (k, C, profiles, P)."""
    flows = [flows] if isinstance(flows, FlowCurve) else list(flows)
    basis = EvaluationBasis(cost, grid)
    n = grid.steps
    nodes = basis.nodes
    dt = grid.dt
    C = basis.terminal(np.array([nu.at(n) for nu in flows]))
    yield n, C, None, None
    for k in range(n - 1, -1, -1):
        diagonal = evaluation_rows(basis, C, [k + 1])[:, 0]
        profiles = np.asarray(cost.argmin_profile(gen, nodes[k], diagonal), float)
        P = transition_matrix(gen, nodes[k], profiles, dt)
        laws = np.array([nu.at(k) for nu in flows])
        control = cost.control_profile_cost(nodes[k], profiles)
        running = np.stack([cost.running_base(nodes[k], laws), control], axis=1)
        C = C @ np.swapaxes(P, 1, 2) + dt * running
        yield k, C, profiles, P


def solve_hj_loop(gen, cost, nu, grid):
    """solve_hj's readouts cell by cell: the diagonal through a list index
    and the running min and max as Python floats.  Returns (diagonal, low,
    high, actions, transitions)."""
    n = grid.steps
    basis = EvaluationBasis(cost, grid)
    diagonal = np.empty((n + 1, gen.m))
    actions = np.empty((n, gen.m))
    transitions = np.empty((n, gen.m, gen.m))
    low, high = np.inf, -np.inf
    for k, C, profiles, P in backward_loop(gen, cost, nu, grid):
        diagonal[k] = evaluation_rows(basis, C, [k])[0, 0]
        extremes = evaluation_rows(basis, C, basis.extreme_rows)
        low = min(low, float(extremes.min()))
        high = max(high, float(extremes.max()))
        if k < n:
            actions[k] = profiles[0]
            transitions[k] = P[0]
    return diagonal, low, high, actions, transitions


def table_distances_loop(gen, cost, pairs, grid):
    """table_distances with a running maximum updated cell by cell."""
    basis = EvaluationBasis(cost, grid)
    worst = np.zeros(len(pairs))
    for _, C, _, _ in backward_loop(gen, cost, [nu for pair in pairs for nu in pair], grid):
        ends = evaluation_rows(basis, C, basis.extreme_rows)
        gaps = ends[0::2] - ends[1::2]
        worst = np.maximum(worst, np.abs(gaps).max(axis=(1, 2)))
    return worst


def population_loop(cum, rho0, grid, players, seed, replication):
    """Node-to-node population, each cell inverting the gathered (players, m)
    cumulative rows; the same Philox uniforms in the same order as
    simulate._population."""
    w = np.asarray(rho0.weights if hasattr(rho0, "weights") else rho0, dtype=float)
    rng = _stream(seed, replication, _PEER_STREAM)
    states = np.empty((players, grid.steps + 1), dtype=np.int64)
    states[:, 0] = _inverse_cdf(_cumulative(w / w.sum()), rng.random(players))
    for k in range(grid.steps):
        states[:, k + 1] = _inverse_cdf(cum[k, states[:, k]], rng.random(players))
    return PathBundle(states, grid, w.size)


def empirical_flow_loop(bundle):
    """Empirical measure node by node, one bincount per node."""
    n = bundle.grid.steps
    out = np.empty((n + 1, bundle.m))
    for k in range(n + 1):
        out[k] = np.bincount(bundle.states[:, k], minlength=bundle.m)
    return out / bundle.players


def write_csv_rows(path, header, rows):
    """The CSV writer that formats value by value with an f-string."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{float(x):.17g}" for x in row) + "\n")


def dirac(i: int, m: int) -> ProbabilityVector:
    """The law of the state i among m states."""
    w = np.zeros(m)
    w[i] = 1.0
    return ProbabilityVector(w)


def constant_strategy(grid, m: int, value: float = 0.0) -> StrategyTable:
    """The strategy that plays `value` at every state on every cell."""
    return StrategyTable(np.full((grid.steps, m), value), grid)


def constant_flow(rho, grid) -> FlowCurve:
    """The flow that stays at the law rho on every node."""
    w = np.asarray(getattr(rho, "weights", rho), dtype=float)
    return FlowCurve(np.tile(w, (grid.steps + 1, 1)), grid)


def tv_distance(rho, gamma) -> float:
    """Total variation distance sum_i |rho(i) - gamma(i)| on the simplex."""
    a, b = (np.asarray(getattr(r, "weights", r), dtype=float) for r in (rho, gamma))
    if a.shape != b.shape:
        raise DimensionMismatch(f"state counts differ: {a.shape} vs {b.shape}")
    return float(np.abs(a - b).sum())


def label_mean(rho) -> float:
    """Label mean of one law, a ProbabilityVector or an array."""
    return float(label_means(getattr(rho, "weights", rho)))


def mean_variance_terminal(variant: str, label: float, rho) -> float:
    """Raw terminal cost of the two mean-variance variants at a state label.

    variant "g": (label - mean)^2; variant "gtilde": label^2 - mean^2.  Both
    have the population average equal to the label variance of rho, but the
    raw gtilde values can be negative (the cost model applies a recorded
    constant shift to restore nonnegativity without changing any argmin).
    """
    mbar = label_mean(rho)
    if variant == "g":
        return float((label - mbar) ** 2)
    if variant == "gtilde":
        return float(label ** 2 - mbar ** 2)
    raise ValueError(f"unknown mean-variance variant {variant!r}")


def empirical_flow_error(bundle, nu_star) -> float:
    """sup over grid nodes of the total variation between the full empirical
    measure and the reference flow."""
    if bundle.grid != nu_star.grid or bundle.m != nu_star.m:
        raise DimensionMismatch("bundle and flow live on different grids")
    emp = bundle.empirical_flow()
    return float(np.abs(emp - nu_star.values).sum(axis=1).max())


def evaluate_cost(gen, cost, nu, strategy, a: int, k: int, i: int,
                  transitions=None) -> float:
    """Trajectory cost from state i at node k, evaluated from node a.

    Propagates the law of the chain started at delta_i under the strategy and
    accumulates the rectangle-rule running cost against the frozen flow nu,
    plus the terminal term.  Uses the same one-step operators as solve_hj, so
    for the returned policy it reproduces the value table to roundoff.
    """
    grid = strategy.grid
    if nu.grid != grid:
        raise DimensionMismatch("flow curve grid differs from strategy grid")
    n = grid.steps
    nodes = grid.nodes
    dt = grid.dt
    tau = nodes[a]
    if transitions is None:
        transitions = transition_stack(gen, strategy)
    mu = np.zeros(gen.m)
    mu[i] = 1.0
    weight = float(cost.tau_weight(tau))
    total = 0.0
    for s in range(k, n):
        f = weight * cost.running_base(nodes[s], nu.at(s))
        f = f + cost.control_profile_cost(nodes[s], strategy.actions[s])
        total += dt * float(mu @ f)
        mu = mu @ transitions[s]
    total += float(mu @ cost.terminal(tau, nu.at(n)))
    return total


def spike_profile(gen, t, u, i) -> np.ndarray:
    """The spike cell's profile: a scalar action as the deviation test
    builds it (verify.constant_spike_profile, tested at state i), or an
    array taken as the profile itself, admissible at every state."""
    if np.ndim(u) == 0:
        return constant_spike_profile(gen, t, u, i)
    arr = np.asarray(u, dtype=float)
    if arr.shape != (gen.m,):
        raise DimensionMismatch("spike profile length differs from state count")
    ok = admissible(gen.action_bounds(t), arr)
    if not ok.all():
        raise AdmissibilityError(f"spike profile inadmissible at state {np.argmin(ok)}")
    return arr


def spike_gap(eq, gen, cost, k: int, i: int, u) -> float:
    """Normalized cost change of a spike at (node k, state i).

    Replaces the policy on the cell [t_k, t_k + dt) by spike_profile(u),
    holds the flow fixed at the equilibrium flow, and returns
    (perturbed cost - equilibrium cost) / dt with both costs computed by
    trajectory evaluation from evaluation node k.
    """
    grid = eq.grid
    if not 0 <= k < grid.steps:
        raise ValueError("spike must fit between the node and the horizon")
    spiked = eq.policy.with_cell(k, spike_profile(gen, grid.nodes[k], u, i))
    v_base = evaluate_cost(gen, cost, eq.flow, eq.policy, k, k, i)
    v_spiked = evaluate_cost(gen, cost, eq.flow, spiked, k, k, i)
    return (v_spiked - v_base) / grid.dt


def golden_refine(fn, xs, values, tol: float = 1e-10):
    """Golden section of a 1-D fn after a coarse scan: xs are the increasing
    scan points and values fn's values there, which the caller may compute
    at once.  The section runs to tol around the best scan point, ties
    toward the smallest argument.  Returns (argmin, min value)."""
    n_scan = len(xs)
    best = int(np.argmin(values))  # argmin returns the first (smallest) index
    a = xs[max(best - 1, 0)]
    b = xs[min(best + 1, n_scan - 1)]
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    x = 0.5 * (a + b)
    fx = fn(x)
    # on ties prefer the scan point, which is the smallest tied argument
    if values[best] <= fx:
        return float(xs[best]), float(values[best])
    return float(x), float(fx)


def dp_oracle(gen, cost, nu, grid, tau: float = 0.0):
    """Classical backward induction for costs independent of evaluation time.

    W_N = terminal cost; W_k(i) minimizes over admissible v the one-step
    exponential transition applied to W_{k+1} plus the rectangle-rule running
    cost.  The transition row for action v comes from the constant profile v
    clipped into each state's admissible interval, and the minimization runs
    directly on this exponential-step objective (scan plus golden section) -
    deliberately not the generator-form argmin the backward solver uses, so
    the two agree only up to O(dt) and cross-check each other.  The 17 scan
    points of each (node, state) share one stacked transition_matrix call.
    Returns (W, strategy).
    """
    n = grid.steps
    nodes = grid.nodes
    dt = grid.dt
    W = np.empty((n + 1, gen.m))
    W[n] = cost.terminal(tau, nu.at(n))
    actions = np.empty((n, gen.m))
    weight = float(cost.tau_weight(tau))
    for k in range(n - 1, -1, -1):
        t = nodes[k]
        run = weight * cost.running_base(t, nu.at(k))
        bounds = gen.action_bounds(t)
        for i in range(gen.m):
            lo, hi = bounds[i]

            def objective(v, i=i, t=t):
                # one action or an array of them; np.vecdot makes each value
                # independent of the array it comes in
                profiles = clip_to_bounds(bounds, np.asarray(v)[..., None])
                P = transition_matrix(gen, t, profiles, dt)
                return dt * cost.control_profile_cost(t, profiles)[..., i] \
                    + np.vecdot(P[..., i, :], W[k + 1])

            # value is quadratic near the minimum, so 1e-6 in the argument
            # already pins it far below the O(dt) scheme error
            if hi > lo:
                xs = np.linspace(lo, hi, 17)
                v_star, val = golden_refine(objective, xs, objective(xs), tol=1e-6)
            else:
                v_star, val = lo, objective(lo)
            actions[k, i] = v_star
            W[k, i] = dt * run[i] + val
    return W, StrategyTable(actions, grid)
