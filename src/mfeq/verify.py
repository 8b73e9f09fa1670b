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
from dataclasses import dataclass

import numpy as np

from .chain import (
    FlowCurve,
    GeneratorModel,
    TimeGrid,
    admissible,
    clip_to_bounds,
    grid_rate,
    interval_samples,
    transition_matrix,
    transition_stack,
)
from .errors import AdmissibilityError, NumericalError
from .hj import CostModel
from .solver import Equilibrium


# spikes per stacked exponential: a bounded block keeps the exponential's
# (block, m, m) temporaries small
SPIKE_BLOCK = 4096
# Gaps within this fraction of the largest |gap| of the least one tie for the
# worst spike: 16 to 32 rounding units of the largest gap.  A whole gap, a
# cost difference over dt, carries more roundoff (about 1e-14 of the largest
# gap at N = 100, 1e-12 at N = 2000); ties that wide go to the least gap.
WORST_TIE_RTOL = 2.0 ** -48


@dataclass
class SpikeReport:
    """Every spike of the sweep and the tolerance below which a gap is a
    violation.

    entries is a record array with fields node, state, action and gap, one
    record per spike in report order: node-major, then state, then ascending
    action.
    """

    tol: float
    entries: np.recarray

    @property
    def violations(self) -> np.recarray:
        return self.entries[self.entries.gap < -self.tol]

    @property
    def min_gap(self) -> float:
        return float(self.entries.gap.min())

    @property
    def ok(self) -> bool:
        return not len(self.violations)

    @property
    def worst(self) -> np.record:
        """The first entry in report order whose gap is within
        WORST_TIE_RTOL * max |gap| of the minimum gap, so that roundoff
        cannot move it between spikes whose gaps tie."""
        gap = self.entries.gap
        band = WORST_TIE_RTOL * np.abs(gap).max()
        return self.entries[np.argmax(gap <= gap.min() + band)]

    def summary(self) -> str:
        status = "no violations" if self.ok else f"{len(self.violations)} violations"
        return (f"spike sweep over {len(self.entries)} perturbations: {status} "
                f"(min gap {self.min_gap:.6g}, tolerance {self.tol:.6g})")


def constant_spike_profile(gen: GeneratorModel, t: float, u: float,
                           tested_state: int) -> np.ndarray:
    """Constant-action profile for the spike cell: the action u at every
    state, clipped into each state's admissible interval; the tested state
    must admit it unclipped."""
    bounds = gen.action_bounds(t)
    if not admissible(bounds[tested_state], u):
        raise AdmissibilityError(
            f"spike action {u:.6g} inadmissible at tested state {tested_state}")
    return clip_to_bounds(bounds, u)


def check_sweep_options(action_samples: int, tol_spike: float | None) -> None:
    """Reject a sweep that samples fewer than two actions per interval, or a
    tolerance that is not finite and positive (a NaN tolerance would let
    every gap pass, since no comparison with NaN is true)."""
    if action_samples < 2:
        raise ValueError(f"action samples must be at least 2, got {action_samples}")
    if tol_spike is not None and not (math.isfinite(tol_spike) and tol_spike > 0.0):
        raise ValueError(f"spike tolerance must be finite and positive, got {tol_spike}")


def _tail_values(cost: CostModel, nu: FlowCurve, base: np.ndarray, weight: np.ndarray,
                 control: np.ndarray, transitions: np.ndarray) -> np.ndarray:
    """Row k: the cost from node k+1 to the horizon under the policy,
    evaluated from evaluation node k, shape (steps, m).

    base[s] is the running cost f(t_s, nu_s) before its tau weight, at
    every node; weight[k] is w(t_k) at the cell nodes; control[s] is the
    policy's control cost profile on cell s.  The tau weight w scales only
    the flow costs, so one backward sweep of two rows serves every
    evaluation node: A_s sums the flow costs dt f(t_r, nu_r) from node s on
    and B_s the control and terminal costs, both pushed back through the
    policy's transitions, and row k is w(t_k) A_{k+1} + B_{k+1}.
    """
    n, dt = nu.grid.steps, nu.grid.dt
    flow_costs = dt * base
    rows = np.empty((n, 2, nu.m))  # rows[k] = [A_{k+1}, B_{k+1}]
    rows[n - 1, 0] = 0.0
    rows[n - 1, 1] = cost.terminal(nu.at(n))
    for s in range(n - 1, 0, -1):
        np.matmul(rows[s], transitions[s].T, out=rows[s - 1])
        rows[s - 1, 0] += flow_costs[s]
        rows[s - 1, 1] += dt * control[s]
    return weight[:, None] * rows[:, 0] + rows[:, 1]


def _spikes(gen: GeneratorModel, grid: TimeGrid, action_samples: int):
    """Every spike on the grid in report order: node-major, then state, then
    ascending action.  Returns the node, state and action arrays and the
    profile each spike applies, the action clipped into every state's
    interval.

    The samples of an interval ascend from lo to hi, so dropping each one
    equal to its predecessor leaves the interval's distinct actions.
    """
    bounds = gen.action_bounds(grid.nodes[:-1])
    samples = interval_samples(bounds, action_samples)
    distinct = np.ones(samples.shape, dtype=bool)
    distinct[..., 1:] = samples[..., 1:] != samples[..., :-1]
    node, state, _ = np.nonzero(distinct)
    action = samples[distinct]
    return node, state, action, clip_to_bounds(bounds[node], action[:, None])


def verify_local_optimality(eq: Equilibrium, gen: GeneratorModel, cost: CostModel,
                            action_samples: int = 16,
                            tol_spike: float | None = None, *,
                            transitions: np.ndarray | None = None) -> SpikeReport:
    """Spike sweep over all grid nodes and states.

    Samples action_samples admissible actions per (node, state) (evenly
    spaced, endpoints included), spikes one grid cell each, and reports
    every normalized gap below -tol_spike.  The default tolerance 5 * dt
    reflects that a fixed grid approximates the vanishing-width limit to
    first order.  Violations are findings, not errors; a gap that is not
    finite raises NumericalError.

    Each gap is (spiked cost - policy cost) / dt, both costs evaluated from
    the spike's node against eq.flow: the tails run under the stored policy,
    from one two-row backward sweep that serves every evaluation node, and
    the spike cells' exponentials come from stacked transition_matrix calls
    at the grid's rate over blocks of SPIKE_BLOCK spikes.  `transitions`
    may carry the policy's stack from transition_stack; without it the
    stack is built here.
    """
    check_sweep_options(action_samples, tol_spike)
    grid = eq.grid
    if tol_spike is None:
        tol_spike = 5.0 * grid.dt
    n, dt = grid.steps, grid.dt
    nodes = grid.nodes
    if transitions is None:
        transitions = transition_stack(gen, eq.policy)
    policy_control = cost.control_profile_cost(nodes[:n], eq.policy.actions)
    base = cost.running_base(nodes[:, None], eq.flow.values)
    weight = np.asarray(cost.tau_weight(nodes[:n]), dtype=float)
    tails = _tail_values(cost, eq.flow, base, weight, policy_control, transitions)

    # cost of the policy from each node k on, evaluated from t_k; the first
    # cell's distribution cost is shared with the spikes
    running = weight[:, None] * base[:n]
    v_base = dt * (running + policy_control) + np.einsum("kij,kj->ki", transitions, tails)

    node, state, action, profiles = _spikes(gen, grid, action_samples)
    t = nodes[node]
    control = cost.control_profile_cost(t, profiles)[np.arange(node.size), state]
    # each spike's row of its cell's transition; a slice of a stacked
    # exponential equals a one-matrix call, so blocking moves no bit
    rows = np.empty((node.size, gen.m))
    rate = grid_rate(gen, grid)
    for first in range(0, node.size, SPIKE_BLOCK):
        block = slice(first, first + SPIKE_BLOCK)
        P = transition_matrix(gen, t[block], profiles[block], dt, rate)
        rows[block] = P[np.arange(len(P)), state[block]]
    v_spiked = dt * (running[node, state] + control) \
        + np.einsum("ej,ej->e", rows, tails[node])
    gaps = (v_spiked - v_base[node, state]) / dt
    bad = np.flatnonzero(~np.isfinite(gaps))
    if bad.size:
        e = bad[0]
        raise NumericalError(f"non-finite spike gap {gaps[e]} at node {node[e]}, "
                             f"state {state[e]}, action {action[e]:.6g}")
    entries = np.rec.fromarrays([node, state, action, gaps], names="node,state,action,gap")
    return SpikeReport(tol=tol_spike, entries=entries)
