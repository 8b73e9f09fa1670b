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

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .chain import (
    FlowCurve,
    GeneratorModel,
    SeriesPlan,
    StrategyTable,
    TimeGrid,
    _series,
    check_cells,
    grid_rate,
    transition_matrix,  # noqa: F401  (the benchmark's tracer patches this name)
)
from .errors import DimensionMismatch, MfeqError

# Cells backward_columns computes between two checks of their transitions.
SWEEP_BLOCK = 64


class CostModel(ABC):
    """Cost seen from an evaluation time tau: running cost
    w(tau) f(t, rho) + control cost, a terminal cost g(rho), and an argmin
    oracle for the policy map.

    tau enters only through the scalar weight w, so the value table has
    rank two in the evaluation time (see EvaluationBasis).  Declared
    constants: K2 caps the distribution and terminal costs and K3 is their
    Lipschitz constant in the flow argument (total variation); kappa2 is
    the argmin's exact Lipschitz constant.
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
    def terminal(self, rho) -> np.ndarray:
        """Terminal cost g of one law (m,) or of each law in a (..., m) stack;
        the sweep evaluates it once, at T, for every evaluation row."""

    @abstractmethod
    def control_profile_cost(self, t, profile) -> np.ndarray:
        """Control cost of each state's action, entry by entry of the profile."""

    @abstractmethod
    def argmin_profile(self, gen: GeneratorModel, t: float, h) -> np.ndarray:
        """Profile of minimizers of state i's control cost plus
        q_t^v(i, .) . h over its admissible interval, one per row of h; ties
        go to the smallest action."""

    @abstractmethod
    def kappa2(self, gen: GeneratorModel) -> float:
        """The argmin's Lipschitz constant in h on gen: the least L with
        |argmin_profile(t, h) - argmin_profile(t, h')| <= L |h - h'| in the
        sup norm at every node time; inf where the argmin jumps."""


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
        g = self.cost.terminal(laws)
        return np.stack([np.zeros_like(g), g], axis=1)


def backward_columns(gen: GeneratorModel, cost: CostModel, flows):
    """Lockstep backward sweep of the value tables of B flows, in blocks of cells.

    flows is one FlowCurve (B = 1) or a sequence of them, all on one grid,
    the sweep's.  Each table's current decision-time column is held as
    coefficients in the cost's EvaluationBasis: a cell costs O(B m^2) time,
    a block O(SWEEP_BLOCK B m^2) memory.  Yields (first, C, profiles, P,
    diagonal, extremes), row j of each array at node k = first + j, from
    the top down: the terminal column against nu_N alone (profiles and P
    None), then blocks of at most SWEEP_BLOCK cells.  profiles[j] (B, m)
    minimize against each diagonal at k+1; P[j] = exp(dt Q) on cell k; C[j]
    (B, 2, m) is C[j+1] pushed back through P[j] plus the running cost;
    diagonal[j] = w(t_k) C[j][:, 0] + C[j][:, 1]; extremes[j] (B, 2, m) is
    EvaluationBasis.extremes of C[j], so callers need no basis of their
    own.  One running_base call per flow covers every node.

    Every cell is uniformized at the grid's rate (chain.grid_rate), whose
    series plan is built once per sweep: one pass writes each cell's x T
    into a block buffer and its exponential into P[j] (chain._series), so
    P[j] equals transition_matrix at (t_k, profiles[j]) and that rate bit
    for bit.  Before it is yielded, the block's coverage, row sums and
    diagonals are tested once (chain.check_cells, the test of every
    exponential); a non-finite column makes its diagonal non-finite.  A
    failure names the cell the sweep reached first, the highest node, and
    the flow when B > 1; the cells below it took its NaNs without a
    warning.  An argmin that raises is named at its node once the cells
    above it pass the same test.
    """
    flows = [flows] if isinstance(flows, FlowCurve) else list(flows)
    grid = flows[0].grid
    for nu in flows:
        if nu.grid != grid:
            raise DimensionMismatch("flow curves of one sweep lie on different grids")
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
    yield n, C[None], None, None, diagonal[None], basis.extremes(C[None])
    plan = SeriesPlan(grid_rate(gen, grid), dt, m)

    for top in range(n, 0, -SWEEP_BLOCK):
        first, L = max(top - SWEEP_BLOCK, 0), min(top, SWEEP_BLOCK)
        columns, P = np.empty((L, B, 2, m)), np.empty((L, B, m, m))
        profiles, diagonals = np.empty((L, B, m)), np.empty((L, B, m))
        steps = np.empty((L, B, m, m))  # each cell's x T at the plan's rate

        def where(j, b):  # names flow b of row j for check_cells
            return f" at node {first + j}" + (f", flow {b}" if B > 1 else "")
        with np.errstate(all="ignore"):  # a failing cell's NaNs reach the cells below
            for j in range(L - 1, -1, -1):
                k = first + j
                t = nodes[k]
                try:
                    profiles[j] = cost.argmin_profile(gen, t, diagonal)
                except Exception as exc:
                    check_cells(steps, P, slice(L - 1, j, -1), where, diagonals)
                    raise MfeqError(f"argmin oracle failed at node {k}: {exc}") from exc
                A = np.multiply(gen.rate_matrix(t, profiles[j]), plan.h, out=steps[j])
                A += plan.xI
                _series(A, plan, out=P[j])
                C = np.matmul(C, P[j].swapaxes(1, 2), out=columns[j])
                C[:, 0] += flow_costs[k]
                C[:, 1] += dt * cost.control_profile_cost(t, profiles[j])
                diagonal = np.multiply(basis.weight[k], C[:, 0], out=diagonals[j])
                diagonal += C[:, 1]
            check_cells(steps, P, slice(L - 1, None, -1), where, diagonals)
        yield first, columns, profiles, P, diagonals, basis.extremes(columns)


@dataclass(frozen=True)
class BackwardSweep:
    """What solve_hj keeps of one backward sweep.

    values[k] is the diagonal theta_k = value at decision node k seen from
    evaluation node k, shape (N+1, m).  low and high are the minimum and
    maximum over the whole two-index table, every evaluation row included.
    transitions[k] is the one-cell transition matrix of the returned policy.
    pair_gaps holds table_distances of the flow pairs the sweep carried
    behind its flow, None when it carried none.
    """

    values: np.ndarray
    low: float
    high: float
    transitions: np.ndarray
    pair_gaps: np.ndarray | None = None


def _sweep(gen: GeneratorModel, cost: CostModel, nu: FlowCurve | None, pairs):
    """One backward_columns pass over the lead flow nu (None for none) and,
    behind it, both flows of each pair (nu1, nu2).

    Returns the lead's readouts, None without a lead: its diagonal, the
    extremes of its columns, its policy's actions and their transitions.
    Returns as well each pair's sup over the whole value table of
    |Theta(nu1) - Theta(nu2)|.  Each column difference is read at the
    evaluation basis's extreme rows, which hold its sup over every
    evaluation row, so no table is ever stored: each block of cells records
    each pair's sup over those rows, and the records are reduced once after
    the sweep.
    """
    lead = [] if nu is None else [nu]
    flows = lead + [flow for pair in pairs for flow in pair]
    n, m, off = flows[0].grid.steps, gen.m, len(lead)
    if lead:
        diagonal, extremes = np.empty((n + 1, m)), np.empty((n + 1, 2, m))
        actions, transitions = np.empty((n, m)), np.empty((n, m, m))
    worst = np.empty((n + 1, len(pairs)))
    for first, C, profiles, P, rows, ends in backward_columns(gen, cost, flows):
        block = slice(first, first + len(C))
        if lead:
            diagonal[block] = rows[:, 0]
            extremes[block] = ends[:, 0]
            if profiles is not None:
                actions[block] = profiles[:, 0]
                transitions[block] = P[:, 0]
        if pairs:
            gaps = ends[:, off::2] - ends[:, off + 1::2]
            np.abs(gaps, out=gaps).max(axis=(2, 3), out=worst[block])
    readouts = (diagonal, extremes, actions, transitions) if lead else None
    return readouts, worst.max(axis=0, initial=0.0)


def solve_hj(gen: GeneratorModel, cost: CostModel, nu: FlowCurve,
             pairs=()) -> tuple[BackwardSweep, StrategyTable]:
    """Backward sweep against nu on its grid, producing the diagonal, the
    table's range and the policy.

    Keeps nu's diagonal, policy and transitions from the sweep, and reduces
    the extremes of its columns to the table's min and max after it.  The
    policy's admissibility is checked once, and every cell takes the grid's
    rate, so its transitions can stand in for transition_stack bit for bit.
    Flow pairs on nu's grid ride along in the same sweep; their
    table_distances, bit for bit those of a sweep of their own, go to
    pair_gaps.  A failure of the shared sweep may be a pair's, and names
    its flow by its place in the sweep.
    """
    (diagonal, extremes, actions, transitions), gaps = _sweep(gen, cost, nu, pairs)
    low, high = float(extremes.min()), float(extremes.max())
    policy = StrategyTable(actions, nu.grid)
    policy.check_admissible(gen)
    return BackwardSweep(diagonal, low, high, transitions, gaps if pairs else None), policy


def table_distances(gen: GeneratorModel, cost: CostModel, pairs) -> np.ndarray:
    """Sup over the whole value table of |Theta(nu) - Theta(nu2)|, one per
    pair (nu, nu2), from one lockstep backward sweep of all the pairs'
    flows, on one grid."""
    return _sweep(gen, cost, None, pairs)[1]
