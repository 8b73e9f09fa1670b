"""Backward solver for the two-index value system driven by a frozen flow.

Given an a-priori flow curve nu, the solver runs one backward sweep over the
value table Theta[a, k, i] (value at decision time t_k seen from evaluation
time t_a), one decision-time column at a time, held as coefficients in the
cost's evaluation-time basis, and derives the policy from the table's
diagonal.  One sweep can carry several flows in lockstep.  The policy at
node k minimizes the instantaneous control cost plus the generator applied
to the latest available diagonal, which is the standard explicit
discretization of the diagonal coupling and carries O(dt) error.
"""

from __future__ import annotations

import logging
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .chain import (
    FlowCurve,
    GeneratorModel,
    StrategyTable,
    TimeGrid,
    admissible,
    check_stochastic,
    interval_samples,
    transition_matrix,  # noqa: F401  (the benchmark's tracer patches this name)
    uniformize,
)
from .errors import DimensionMismatch, MfeqError

logger = logging.getLogger(__name__)

# Cells backward_columns computes between two checks of their transitions.
SWEEP_BLOCK = 64


class CostModel(ABC):
    """Cost seen from an evaluation time tau: running cost
    w(tau) f(t, rho) + control cost, a terminal cost g(rho) that does not
    depend on tau, and an argmin oracle for the policy map.

    tau enters only through the scalar weight w, so the value table has
    rank two in the evaluation time (see EvaluationBasis).  Declared
    constants: K2 caps the distribution and terminal costs and K3 is their
    Lipschitz constant in the flow argument (total variation).
    control_profile_cost and argmin_profile take one profile or continuation
    vector (m,) or a (B, m) stack of them; control_profile_cost's t is one
    node time or an array of them over the stack's leading axes.
    """

    m: int
    K2: float
    K3: float

    @abstractmethod
    def tau_weight(self, taus) -> np.ndarray:
        """The evaluation-time weight w at each of taus."""

    @abstractmethod
    def running_base(self, t, rho) -> np.ndarray:
        """The running cost f before its tau weight, for each law of a
        (..., m) stack.

        t is one node time or an array of them that broadcasts against the
        stack's leading axes: the backward sweep passes every node time as
        (N+1, 1) with a flow's (N+1, m) values, one call per flow.
        """

    @abstractmethod
    def terminal(self, tau: float, rho) -> np.ndarray:
        """Terminal cost of one law (m,) or of each law in a (..., m) stack;
        the same for every tau."""

    @abstractmethod
    def control_profile_cost(self, t, profile) -> np.ndarray:
        """Control cost of each state's action, entry by entry of the profile."""

    @abstractmethod
    def argmin_profile(self, gen: GeneratorModel, t: float, h) -> np.ndarray:
        """Profile of minimizers of state i's control cost plus
        q_t^v(i, .) . h over its admissible interval, one per row of h; ties
        go to the smallest action."""


class EvaluationBasis:
    """Evaluation-time basis W = [w, 1] of the value table, w the cost's tau
    weight: Theta[a, k] = w(t_a) C_k[0] + C_k[1].

    The running coefficients are [f(t_k, nu_k); c(pi_k)] and the terminal
    ones [0; g(nu_N)].  extreme_rows are the rows where w is least and
    largest: since each entry is affine in w, they hold the minimum and
    maximum of any column, and of any difference of two columns.
    """

    def __init__(self, cost: CostModel, grid: TimeGrid):
        self.cost = cost
        self.nodes = grid.nodes
        self.weight = np.asarray(cost.tau_weight(self.nodes), dtype=float)
        self.extreme_rows = np.array([np.argmin(self.weight), np.argmax(self.weight)])
        self._extreme_weight = self.weight[self.extreme_rows, None]

    def extremes(self, C: np.ndarray) -> np.ndarray:
        """Values of the columns of a (..., 2, m) coefficient stack at the two
        extreme rows, shape (..., 2, m): their elementwise min and max are
        each column's over every evaluation row."""
        out = self._extreme_weight * C[..., None, 0, :]
        out += C[..., None, 1, :]
        return out

    def terminal(self, laws: np.ndarray) -> np.ndarray:
        """Coefficients (B, 2, m) of the terminal costs of a (B, m) stack of laws."""
        g = self.cost.terminal(self.nodes[-1], laws)
        return np.stack([np.zeros_like(g), g], axis=1)


def backward_columns(gen: GeneratorModel, cost: CostModel, flows, grid: TimeGrid):
    """Lockstep backward sweep of the value tables of B flows, in blocks of cells.

    flows is one FlowCurve (B = 1) or a sequence of them.  Each table's
    current decision-time column is held as coefficients in the cost's
    EvaluationBasis: a cell costs O(B m^2) time, a block O(SWEEP_BLOCK B m^2)
    memory.  Yields (first, C, profiles, P, diagonal), row j of each array at
    node k = first + j, from the top down: the terminal column against nu_N
    alone (profiles and P None), then blocks of at most SWEEP_BLOCK cells.
    profiles[j] (B, m) minimize against each diagonal at k+1; P[j] = exp(dt Q)
    on cell k; C[j] (B, 2, m) is C[j+1] pushed back through P[j] plus the
    running cost; diagonal[j] = w(t_k) C[j][:, 0] + C[j][:, 1].  A block's
    transitions are checked before it is yielded; a failure names the node,
    and the flow when B > 1.  One running_base call per flow covers every node.
    """
    flows = [flows] if isinstance(flows, FlowCurve) else list(flows)
    for nu in flows:
        if nu.grid != grid:
            raise DimensionMismatch("flow curve grid differs from solve grid")
        if gen.m != cost.m or gen.m != nu.m:
            raise DimensionMismatch("state counts differ between model parts")
    basis = EvaluationBasis(cost, grid)
    n, B, m = grid.steps, len(flows), gen.m
    nodes, dt = basis.nodes, grid.dt
    C = basis.terminal(np.array([nu.at(n) for nu in flows]))
    flow_costs = np.empty((n + 1, B, m))
    for b, nu in enumerate(flows):
        flow_costs[:, b] = cost.running_base(nodes[:, None], nu.values)
    flow_costs *= dt
    diagonal = basis.weight[n] * C[:, 0] + C[:, 1]
    yield n, C[None], None, None, diagonal[None]
    for top in range(n, 0, -SWEEP_BLOCK):
        first, L = max(top - SWEEP_BLOCK, 0), min(top, SWEEP_BLOCK)
        columns, P = np.empty((L, B, 2, m)), np.empty((L, B, m, m))
        profiles, diagonals = np.empty((L, B, m)), np.empty((L, B, m))
        for j in range(L - 1, -1, -1):
            k = first + j
            t = nodes[k]
            try:
                profiles[j] = cost.argmin_profile(gen, t, diagonal)
            except Exception as exc:
                raise MfeqError(f"argmin oracle failed at node {k}: {exc}") from exc
            P[j] = uniformize(gen.rate_matrix(t, profiles[j]), dt, _cell_names(k, B))
            C = np.matmul(C, np.swapaxes(P[j], 1, 2), out=columns[j])
            C[:, 0] += flow_costs[k]
            C[:, 1] += dt * cost.control_profile_cost(t, profiles[j])
            diagonal = np.multiply(basis.weight[k], C[:, 0], out=diagonals[j])
            diagonal += C[:, 1]
        check_stochastic(P, _cell_names(first, B))
        yield first, columns, profiles, P, diagonals


def _cell_names(first: int, flows: int):
    """Names matrix c of a flattened (cells, flows) stack from node `first` on."""
    return lambda c: (f" at node {first + int(c) // flows}"
                      + (f", flow {int(c) % flows}" if flows > 1 else ""))


def value_bound(gen: GeneratorModel, cost: CostModel, grid: TimeGrid) -> float:
    """The declared uniform bound (K1 + K2) T + K2 on every value."""
    return (gen.K1 + cost.K2) * grid.horizon + cost.K2


@dataclass(frozen=True)
class BackwardSweep:
    """What solve_hj keeps of one backward sweep.

    values[k] is the diagonal theta_k = value at decision node k seen from
    evaluation node k, shape (N+1, m).  low and high are the minimum and
    maximum over the whole two-index table, every evaluation row included.
    transitions[k] is the one-cell transition matrix of the returned policy.
    """

    values: np.ndarray
    low: float
    high: float
    transitions: np.ndarray


def solve_hj(gen: GeneratorModel, cost: CostModel, nu: FlowCurve,
             grid: TimeGrid) -> tuple[BackwardSweep, StrategyTable]:
    """Backward sweep producing the diagonal, the table's range and the policy.

    Copies each block of backward_columns' sweep for the one flow: the
    diagonal rows its argmin reads, the policy, its transitions and the
    block's EvaluationBasis.extremes, reduced to the table's min and max
    after the sweep.  The policy's admissibility is checked once, so its
    transitions can stand in for transition_stack.  A table outside the
    declared bounds [0, value_bound] is logged as a warning.
    """
    n = grid.steps
    basis = EvaluationBasis(cost, grid)
    diagonal = np.empty((n + 1, gen.m))
    actions = np.empty((n, gen.m))
    transitions = np.empty((n, gen.m, gen.m))
    extremes = np.empty((n + 1, 2, gen.m))  # reduced once after the sweep
    for first, C, profiles, P, rows in backward_columns(gen, cost, nu, grid):
        block = slice(first, first + len(C))
        diagonal[block] = rows[:, 0]
        extremes[block] = basis.extremes(C[:, 0])
        if profiles is not None:
            actions[block] = profiles[:, 0]
            transitions[block] = P[:, 0]
    low, high = float(extremes.min()), float(extremes.max())
    policy = StrategyTable(actions, grid)
    policy.check_admissible(gen)

    worst_hi = high - value_bound(gen, cost, grid)
    worst_lo = -low
    if worst_hi > 1e-8 or worst_lo > 1e-8:
        logger.warning(
            "value table exceeds declared bounds: above by %.3e, below by %.3e "
            "(declared constants may be inconsistent)", max(worst_hi, 0.0),
            max(worst_lo, 0.0),
        )
    return BackwardSweep(diagonal, low, high, transitions), policy


def validate_cost(gen: GeneratorModel, cost: CostModel, grid: TimeGrid,
                  samples: int = 24, seed: int = 0) -> list[str]:
    """Sampled checks of the declared cost bounds and the argmin oracle.

    Returns a list of human-readable violations (empty when all sampled
    checks pass): cost caps 0 <= f_dist, g <= K2 and control cost <= K1,
    flow-Lipschitz |df| + |dg| <= K3 d(rho, rho'), and the argmin profile
    being admissible and achieving the sampled objective minimum to 1e-8.
    """
    rng = np.random.default_rng(seed)
    nodes = grid.nodes
    problems: list[str] = []

    def objective(t, profiles, h):
        # entry i of each profile: state i's control cost plus q_t^v(i, .) . h
        return cost.control_profile_cost(t, profiles) + np.vecdot(gen.rate_matrix(t, profiles), h)

    for _ in range(samples):
        a = rng.integers(0, grid.steps + 1)
        k = rng.integers(0, grid.steps + 1)
        tau, t = nodes[a], nodes[k]
        rho = rng.dirichlet(np.ones(cost.m))
        rho2 = rng.dirichlet(np.ones(cost.m))
        weight = float(cost.tau_weight(tau))
        f = weight * cost.running_base(t, rho)
        g = cost.terminal(tau, rho)
        if f.min() < -1e-12 or g.min() < -1e-12:
            problems.append(f"negative cost at (tau={tau:.3g}, t={t:.3g})")
        if f.max() > cost.K2 + 1e-9 or g.max() > cost.K2 + 1e-9:
            problems.append(
                f"cost exceeds K2={cost.K2:.6g} at (tau={tau:.3g}, t={t:.3g}): "
                f"max f={f.max():.6g}, max g={g.max():.6g}")
        df = np.abs(f - weight * cost.running_base(t, rho2))
        dg = np.abs(g - cost.terminal(tau, rho2))
        d = float(np.abs(rho - rho2).sum())
        if (df + dg).max() > cost.K3 * d + 1e-9:
            problems.append(f"flow-Lipschitz bound K3={cost.K3:.6g} violated")
        bounds = gen.action_bounds(t)
        psi = cost.control_profile_cost(t, rng.uniform(bounds[:, 0], bounds[:, 1]))
        problems += [f"control cost {p:.6g} exceeds K1={gen.K1:.6g}"
                     for p in psi[psi > gen.K1 + 1e-9]]
        h = rng.uniform(0.0, value_bound(gen, cost, grid), cost.m)
        profile = cost.argmin_profile(gen, t, h)
        ok = admissible(bounds, profile)
        achieved = objective(t, profile, h)
        # profile s of the scan puts every state at its own s-th of 65 points
        best = objective(t, interval_samples(bounds, 65).T, h).min(axis=0)
        for i in range(cost.m):
            if not ok[i]:
                problems.append(f"argmin profile inadmissible at state {i}")
            elif achieved[i] > best[i] + 1e-8:
                problems.append(
                    f"argmin misses sampled minimum by {achieved[i] - best[i]:.3e} "
                    f"at state {i}")
    return problems
