"""Independent checks that a computed equilibrium deserves the name.

The central test perturbs the policy by a short constant-action spike and
measures the normalized cost change; a genuine equilibrium admits no spike
that lowers the cost faster than the discretization error.  All values here
are recomputed by trajectory cost evaluation against the equilibrium flow,
never read from the solver's value table, so the checks form an oracle
independent of the backward sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chain import (
    FlowCurve,
    GeneratorModel,
    StrategyTable,
    TimeGrid,
    admissible,
    clip_to_bounds,
    propagate_flow,
    stochastic_exponentials,
    transition_matrix,
    transition_stack,
    tv_distance,
    validate_generator,
)
from .errors import AdmissibilityError, DimensionMismatch, NumericalError
from .hj import CostModel, evaluate_cost, golden_refine, value_bound
from .solver import Equilibrium


@dataclass(slots=True)
class SpikeEntry:
    node: int
    state: int
    action: float
    gap: float


@dataclass
class SpikeReport:
    """Normalized spike gaps over the sweep and the entries below -tol."""

    tol: float
    min_gap: float
    entries: list[SpikeEntry] = field(default_factory=list)
    violations: list[SpikeEntry] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def worst(self) -> SpikeEntry | None:
        """The entry with the minimum gap (the first one on ties)."""
        return min(self.entries, key=lambda e: e.gap, default=None)

    def summary(self) -> str:
        status = "no violations" if self.ok else f"{len(self.violations)} violations"
        return (f"spike sweep over {len(self.entries)} perturbations: {status} "
                f"(min gap {self.min_gap:.6g}, tolerance {self.tol:.6g})")


def constant_spike_profile(gen: GeneratorModel, t: float, u, tested_state: int | None) -> np.ndarray:
    """Constant-action profile for the spike cell.

    A scalar action is applied at every state, clipped into each state's
    admissible interval (the tested state must admit it unclipped); an array
    is taken as the profile itself and must be admissible everywhere.
    """
    arr = np.asarray(u, dtype=float)
    bounds = gen.action_bounds(t)
    if arr.ndim == 0:
        if tested_state is not None and not admissible(bounds[tested_state], arr):
            raise AdmissibilityError(
                f"spike action {float(arr):.6g} inadmissible at tested state {tested_state}")
        return clip_to_bounds(bounds, arr)
    if arr.shape != (gen.m,):
        raise DimensionMismatch("spike profile length differs from state count")
    ok = admissible(bounds, arr)
    if not ok.all():
        raise AdmissibilityError(f"spike profile inadmissible at state {np.argmin(ok)}")
    return arr


def spike_gap(eq: Equilibrium, gen: GeneratorModel, cost: CostModel, k: int,
              i: int, u, eps_nodes: int = 1) -> float:
    """Normalized cost change of a spike at (node k, state i).

    Replaces the policy on [t_k, t_k + eps) by the constant profile built
    from u, holds the flow fixed at the equilibrium flow, and returns
    (perturbed cost - equilibrium cost) / eps with both costs computed by
    trajectory evaluation from evaluation node k.
    """
    grid = eq.grid
    if eps_nodes < 1 or k + eps_nodes > grid.steps:
        raise ValueError("spike must fit between the node and the horizon")
    t = grid.nodes[k]
    profile = constant_spike_profile(gen, t, u, i)
    spiked = eq.policy.actions.copy()
    for s in range(k, k + eps_nodes):
        spiked[s] = constant_spike_profile(gen, grid.nodes[s], u, None) \
            if np.ndim(u) == 0 else profile
    spiked_strategy = StrategyTable(spiked, grid)
    eps = eps_nodes * grid.dt
    v_base = evaluate_cost(gen, cost, eq.flow, eq.policy, k, k, i)
    v_spiked = evaluate_cost(gen, cost, eq.flow, spiked_strategy, k, k, i)
    return (v_spiked - v_base) / eps


def check_sweep_options(action_samples: int, tol_spike: float | None) -> None:
    """Reject a sweep that samples fewer than two actions per interval, or a
    tolerance that is not finite and positive (a NaN tolerance would let
    every gap pass, since no comparison with NaN is true)."""
    if action_samples < 2:
        raise ValueError(f"action samples must be at least 2, got {action_samples}")
    if tol_spike is not None and not (math.isfinite(tol_spike) and tol_spike > 0.0):
        raise ValueError(f"spike tolerance must be finite and positive, got {tol_spike}")


def _tail_values(cost: CostModel, nu: FlowCurve, control: np.ndarray,
                 transitions: np.ndarray) -> np.ndarray:
    """Row k: the cost from node k+1 to the horizon under the policy,
    evaluated from evaluation node k, shape (steps, m).

    control[s] is the policy's control cost profile on cell s.  The tau
    weight w scales only the flow costs, so one backward sweep of two rows
    serves every evaluation node: A_s sums the flow costs dt f(t_r, nu_r)
    from node s on and B_s the control and terminal costs, both pushed back
    through the policy's transitions, and row k is w(t_k) A_{k+1} + B_{k+1}.
    """
    grid = nu.grid
    n, dt = grid.steps, grid.dt
    nodes = grid.nodes
    flow_costs = dt * cost.running_base(nodes[:, None], nu.values)
    rows = np.empty((n, 2, nu.m))  # rows[k] = [A_{k+1}, B_{k+1}]
    rows[n - 1, 0] = 0.0
    rows[n - 1, 1] = cost.terminal(nodes[n], nu.at(n))
    for s in range(n - 1, 0, -1):
        np.matmul(rows[s], transitions[s].T, out=rows[s - 1])
        rows[s - 1, 0] += flow_costs[s]
        rows[s - 1, 1] += dt * control[s]
    weight = np.asarray(cost.tau_weight(nodes[:n]), dtype=float)
    return weight[:, None] * rows[:, 0] + rows[:, 1]


def _spikes(gen: GeneratorModel, grid: TimeGrid, action_samples: int):
    """Every spike on the grid in report order: node-major, then state, then
    ascending action.  Returns the node, state and action arrays and the
    profile each spike applies, the action clipped into every state's
    interval."""
    bounds = gen.action_bounds(grid.nodes[:-1])
    node, state, action = [], [], []
    for k in range(grid.steps):
        for i in range(gen.m):
            lo, hi = bounds[k, i]
            actions = np.unique(np.concatenate([np.linspace(lo, hi, action_samples),
                                                [lo, hi]]))
            node += [k] * actions.size
            state += [i] * actions.size
            action.append(actions)
    node = np.array(node)
    action = np.concatenate(action)
    profiles = clip_to_bounds(bounds[node], action[:, None])
    return node, np.array(state), action, profiles


def _spike_rows(gen: GeneratorModel, cost: CostModel, grid: TimeGrid,
                node: np.ndarray, state: np.ndarray, profiles: np.ndarray):
    """Per spike: the spiked state's row of the spike cell's transition, and
    its control cost.

    A profile depends on (node, action) alone, not on the tested state, so
    each distinct (node, profile) is exponentiated once, all in one stacked
    call.  The distinct cells come sorted by node, and each node's
    generators and control costs come from one call over its profiles.
    """
    cells, which = np.unique(np.column_stack([node, profiles]), axis=0,
                             return_inverse=True)
    which = which.reshape(-1)
    nodes = grid.nodes
    cell_node = cells[:, 0].astype(int)
    starts = np.flatnonzero(np.diff(cell_node, prepend=-1))
    generators = np.empty((len(cells), gen.m, gen.m))
    control = np.empty((len(cells), gen.m))
    for a, b in zip(starts, [*starts[1:], len(cells)]):
        t, u = nodes[cell_node[a]], cells[a:b, 1:]
        generators[a:b] = gen.rate_matrix(t, u)
        control[a:b] = cost.control_profile_cost(t, u)
    spiked = stochastic_exponentials(generators, grid.dt)
    return spiked[which, state], control[which, state]


def verify_local_optimality(eq: Equilibrium, gen: GeneratorModel, cost: CostModel,
                            action_samples: int = 16,
                            tol_spike: float | None = None) -> SpikeReport:
    """Spike sweep over all grid nodes and states.

    Samples action_samples admissible actions per (node, state) (evenly
    spaced, endpoints included), spikes one grid cell each, and reports
    every normalized gap below -tol_spike.  The default tolerance 5 * dt
    reflects that a fixed grid approximates the vanishing-width limit to
    first order.  Violations are findings, not errors; a gap that is not
    finite raises NumericalError.

    Each gap is spike_gap's quantity: the tails run under the stored policy
    against eq.flow, from one two-row backward sweep that serves every
    evaluation node, and the spike cells' exponentials come from one
    stacked call.
    """
    check_sweep_options(action_samples, tol_spike)
    grid = eq.grid
    if tol_spike is None:
        tol_spike = 5.0 * grid.dt
    n, dt = grid.steps, grid.dt
    nodes = grid.nodes
    transitions = transition_stack(gen, eq.policy)
    policy_control = np.array([cost.control_profile_cost(nodes[k], eq.policy.actions[k])
                               for k in range(n)])
    tails = _tail_values(cost, eq.flow, policy_control, transitions)

    # cost of the policy from each node k on, evaluated from t_k; the first
    # cell's distribution cost is shared with the spikes
    running = np.asarray(cost.tau_weight(nodes[:n]), dtype=float)[:, None] \
        * cost.running_base(nodes[:n, None], eq.flow.values[:n])
    v_base = dt * (running + policy_control) + np.einsum("kij,kj->ki", transitions, tails)

    node, state, action, profiles = _spikes(gen, grid, action_samples)
    rows, control = _spike_rows(gen, cost, grid, node, state, profiles)
    v_spiked = dt * (running[node, state] + control) \
        + np.einsum("ej,ej->e", rows, tails[node])
    gaps = (v_spiked - v_base[node, state]) / dt
    bad = np.flatnonzero(~np.isfinite(gaps))
    if bad.size:
        e = bad[0]
        raise NumericalError(f"non-finite spike gap {gaps[e]} at node {node[e]}, "
                             f"state {state[e]}, action {action[e]:.6g}")

    entries = [SpikeEntry(node=k, state=i, action=u, gap=g) for k, i, u, g in
               zip(node.tolist(), state.tolist(), action.tolist(), gaps.tolist())]
    violations = [entries[e] for e in np.flatnonzero(gaps < -tol_spike)]
    return SpikeReport(tol=tol_spike, min_gap=float(gaps.min()), entries=entries,
                       violations=violations)


def dp_oracle(gen: GeneratorModel, cost: CostModel, nu: FlowCurve, grid: TimeGrid,
              tau: float = 0.0) -> tuple[np.ndarray, StrategyTable]:
    """Classical backward induction for costs independent of evaluation time.

    W_N = terminal cost; W_k(i) minimizes over admissible v the one-step
    exponential transition applied to W_{k+1} plus the rectangle-rule running
    cost.  The transition row for action v comes from the constant profile v
    clipped into each state's admissible interval, and the minimization runs
    directly on this exponential-step objective (scan plus golden section) -
    deliberately not the generator-form argmin the backward solver uses, so
    the two agree only up to O(dt) and cross-check each other.  The 17 scan
    points of each (node, state) share one stacked transition_matrix call.
    """
    n = grid.steps
    nodes = grid.nodes
    dt = grid.dt
    W = np.empty((n + 1, gen.m))
    W[n] = cost.terminal(tau, nu.at(n))
    actions = np.empty((n, gen.m))
    for k in range(n - 1, -1, -1):
        t = nodes[k]
        run = cost.running_dist(tau, t, nu.at(k))
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


@dataclass
class BoundsReport:
    """Uniform value bounds plus sampled flow-stability checks."""

    theta_min: float
    theta_max: float
    theta_bound: float
    bounds_ok: bool
    flow_slack: float
    flow_allowance: float
    flow_ok: bool

    @property
    def ok(self) -> bool:
        return self.bounds_ok and self.flow_ok

    def summary(self) -> str:
        return (f"values in [{self.theta_min:.6g}, {self.theta_max:.6g}] vs bound "
                f"[0, {self.theta_bound:.6g}] ({'ok' if self.bounds_ok else 'VIOLATED'}); "
                f"flow-stability slack {self.flow_slack:.3e} vs allowance "
                f"{self.flow_allowance:.3e} ({'ok' if self.flow_ok else 'VIOLATED'})")


def check_bounds_and_lipschitz(eq: Equilibrium, gen: GeneratorModel, cost: CostModel,
                               samples: int = 20, seed: int = 0) -> BoundsReport:
    """Assert the uniform value bound and sample the flow-stability estimate.

    The value bound uses the declared constants, (K1 + K2) * horizon + K2, so
    misdeclared caps surface here.  The stability check propagates random
    initial-law / strategy pairs and measures the slack in
    d(flow, flow') <= d(rho, gamma) + kappa1_hat * strategy distance; with
    exponential stepping the flows solve the frozen dynamics exactly, so the
    slack should be roundoff-sized (the allowance keeps an O(dt) term for
    models whose sampled kappa1 underestimates the true constant).
    """
    grid = eq.grid
    bound = value_bound(gen, cost, grid)
    tmin = eq.values.low
    tmax = eq.values.high
    bounds_ok = tmin >= -1e-9 and tmax <= bound + 1e-9

    rng = np.random.default_rng(seed)
    kappa1 = validate_generator(gen, grid, samples=8).kappa1_hat
    worst = 0.0
    for _ in range(samples):
        rho = rng.dirichlet(np.ones(gen.m))
        gamma = rng.dirichlet(np.ones(gen.m))
        s1 = _random_strategy(rng, gen, grid)
        s2 = _random_strategy(rng, gen, grid)
        f1 = propagate_flow(gen, rho, s1, grid)
        f2 = propagate_flow(gen, gamma, s2, grid)
        base = tv_distance(rho, gamma)
        # running rectangle-rule integral of the sup action gap up to t_k
        cell_gaps = np.abs(s1.actions - s2.actions).max(axis=1)
        integral = np.concatenate([[0.0], np.cumsum(cell_gaps) * grid.dt])
        for k in range(grid.steps + 1):
            lhs = tv_distance(f1.at(k), f2.at(k))
            worst = max(worst, lhs - base - kappa1 * integral[k])
    allowance = 1e-8 + 0.05 * grid.dt
    return BoundsReport(theta_min=tmin, theta_max=tmax, theta_bound=bound,
                        bounds_ok=bounds_ok, flow_slack=worst,
                        flow_allowance=allowance, flow_ok=worst <= allowance)


def _random_strategy(rng: np.random.Generator, gen: GeneratorModel,
                     grid: TimeGrid) -> StrategyTable:
    bounds = gen.action_bounds(grid.nodes[:-1])
    return StrategyTable(rng.uniform(bounds[..., 0], bounds[..., 1]), grid)
