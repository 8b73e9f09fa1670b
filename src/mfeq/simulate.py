"""Monte Carlo realization of the many-player game.

Players evolve as independent chains sharing a strategy; they interact only
through the empirical measure inside the costs.  Within each grid cell the
rates are frozen at the cell's start node (matching the solver's piecewise
constant strategies), so a player's state at node k+1 given its state x at
node k has law row x of the cell's transition exp(dt * Q_k).  Paths are
sampled node to node from the rows of transition_stack, which is exact at
the grid nodes; nothing between the nodes is simulated, since the empirical
measures and path costs read only node states.

Each draw inverts a cumulative row with one uniform per path per cell.  The
uniforms come from one counter-based Philox stream per (seed, replication,
stream kind), read in cell order, so results are reproducible and
independent of any scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import (
    GeneratorModel,
    StrategyTable,
    TimeGrid,
    transition_matrix,
    transition_stack,
)
from .errors import DimensionMismatch
from .hj import CostModel
from .solver import Equilibrium
from .verify import constant_spike_profile

# stream-kind tags so peer and focal-player streams never collide
_PEER_STREAM = 1
_FOCAL_STREAM = 2


def _stream(seed: int, replication: int, *key: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=(int(seed), int(replication), *map(int, key)))
    return np.random.Generator(np.random.Philox(ss))


def _cumulative(probs: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis, the last entry set to exactly 1.0,
    so a uniform draw in [0, 1) cannot index past the last state."""
    cum = np.cumsum(probs, axis=-1)
    cum[..., -1] = 1.0
    return cum


def _inverse_cdf(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """First index whose cumulative entry exceeds u, one row per uniform."""
    return (cum <= u[..., None]).sum(axis=-1)


@dataclass(frozen=True)
class SimConfig:
    """Player count, master seed and replication count.

    At least two players are required: the leave-one-out empirical measure
    needs peers.  The seed keys the Philox streams, so it must be
    nonnegative.
    """

    players: int
    seed: int
    replications: int = 20

    def __post_init__(self):
        if self.players < 2:
            raise ValueError("need at least 2 players")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.replications < 1:
            raise ValueError("need at least 1 replication")


def check_inner_pairs(inner_pairs: int) -> None:
    """Reject a deviation test without paths: its gap would be NaN."""
    if inner_pairs < 1:
        raise ValueError(f"inner pairs must be at least 1, got {inner_pairs}")


class PathBundle:
    """Grid-node state snapshots for a population of players, states[p, k]."""

    __slots__ = ("states", "grid", "m")

    def __init__(self, states: np.ndarray, grid: TimeGrid, m: int):
        self.states = states
        self.grid = grid
        self.m = m

    @property
    def players(self) -> int:
        return self.states.shape[0]

    def empirical_flow(self) -> np.ndarray:
        """Full empirical measure at every grid node, shape (steps+1, m)."""
        n = self.grid.steps
        cells = self.states.T + self.m * np.arange(n + 1)[:, None]
        counts = np.bincount(cells.ravel(order="K"), minlength=(n + 1) * self.m)
        return counts.reshape(n + 1, self.m) / self.players


def _population(cum: np.ndarray, rho0, grid: TimeGrid, players: int, seed: int,
                replication: int) -> PathBundle:
    """Node-to-node paths of `players` chains from the cumulative rows `cum`
    of a (steps, m, m) transition stack, initial states i.i.d. from rho0.

    The paths fill a (steps+1, players) buffer node by node; the bundle's
    states are its transposed view.  The next state of a path in state x
    is the count of j < m-1 with cum[k, x, j] <= u (cum[k, x, m-1] is 1.0,
    above every uniform), read from contiguous threshold columns.
    """
    w = np.asarray(rho0.weights if hasattr(rho0, "weights") else rho0, dtype=float)
    if w.size != cum.shape[-1]:
        raise DimensionMismatch("initial law dimension differs from model")
    rng = _stream(seed, replication, _PEER_STREAM)
    thresholds = np.ascontiguousarray(np.swapaxes(cum[..., :-1], 1, 2))  # (steps, m-1, m)
    paths = np.empty((grid.steps + 1, players), dtype=np.int64)
    paths[0] = _inverse_cdf(_cumulative(w / w.sum()), rng.random(players))
    below = np.empty(players, dtype=bool)
    for k in range(grid.steps):
        u = rng.random(players)
        x, nxt = paths[k], paths[k + 1]
        nxt.fill(0)
        for column in thresholds[k]:
            nxt += np.less_equal(np.take(column, x), u, out=below)
    return PathBundle(paths.T, grid, w.size)


def simulate(gen: GeneratorModel, strategy: StrategyTable, rho0, grid: TimeGrid,
             cfg: SimConfig, replication: int = 0) -> PathBundle:
    """Simulate cfg.players independent chains under a shared strategy.

    Initial states are drawn i.i.d. from rho0; the bundle is a pure function
    of (cfg.seed, replication, cfg.players).
    """
    if grid != strategy.grid:
        raise DimensionMismatch("strategy grid differs from simulation grid")
    cum = _cumulative(transition_stack(gen, strategy))
    return _population(cum, rho0, grid, cfg.players, cfg.seed, replication)


@dataclass
class DeviationEstimate:
    """Monte Carlo spike gap for one player against simulated peers."""

    gap: float
    stderr: float
    ci_low: float
    ci_high: float
    pairs: int
    eps: float

    def covers(self, value: float) -> bool:
        return self.ci_low <= value <= self.ci_high


def deviation_test(eq: Equilibrium, gen: GeneratorModel, cost: CostModel,
                   k_player: int, spike: tuple[int, int, float], cfg: SimConfig,
                   inner_pairs: int = 200) -> DeviationEstimate:
    """Estimate the normalized one-cell spike gap for one player by Monte Carlo.

    spike = (node, state, action): all other players run the equilibrium
    policy from time 0; the focal player's chain is started at the spiked
    node in the given state and costed against the peers' leave-one-out
    empirical measure.  Each base path and its spiked partner use the same
    uniform in every cell (common random numbers), and the confidence
    interval is taken over replication means, so peer-sampling variation is
    part of the interval.  For large populations the estimate approaches the
    deterministic spike gap.
    """
    check_inner_pairs(inner_pairs)
    k0, state0, action = spike
    grid = eq.grid
    n = grid.steps
    if k0 >= n:
        raise ValueError("spike must fit between the node and the horizon")
    nodes = grid.nodes
    t0 = nodes[k0]
    profile = constant_spike_profile(gen, t0, action, state0)
    spiked = eq.policy.with_cell(k0, profile)
    dt = grid.dt

    base = transition_stack(gen, eq.policy)
    spike_cells = base.copy()
    spike_cells[k0] = transition_matrix(gen, t0, profile, dt)
    # index 0 is the base strategy, index 1 the spiked one
    cum = _cumulative(np.stack([base, spike_cells]))
    control = dt * np.stack([cost.control_profile_cost(nodes[k0:n], strategy.actions[k0:])
                             for strategy in (eq.policy, spiked)])
    side = np.arange(2)[:, None]
    weight = float(cost.tau_weight(t0))

    rep_means = np.empty(cfg.replications)
    for rep in range(cfg.replications):
        # the focal player is simulated separately, so the peers' full
        # empirical measure is exactly the leave-one-out measure
        peer = _population(cum[0], eq.rho, grid, cfg.players - 1, cfg.seed,
                           rep).empirical_flow()
        running = dt * (weight * cost.running_base(nodes[k0:n, None], peer[k0:n]))
        table = control + running
        rng = _stream(cfg.seed, rep, _FOCAL_STREAM, k_player)
        x = np.full((2, inner_pairs), state0, dtype=np.int64)
        total = np.zeros((2, inner_pairs))
        for c in range(n - k0):
            total += table[side, c, x]
            x = _inverse_cdf(cum[side, k0 + c, x], rng.random(inner_pairs))
        total += cost.terminal(t0, peer[n])[x]
        rep_means[rep] = ((total[1] - total[0]) / dt).mean()
    gap = float(rep_means.mean())
    if cfg.replications > 1:
        stderr = float(rep_means.std(ddof=1) / np.sqrt(cfg.replications))
    else:
        stderr = 0.0
    half = 1.96 * stderr
    return DeviationEstimate(gap=gap, stderr=stderr, ci_low=gap - half,
                             ci_high=gap + half,
                             pairs=cfg.replications * inner_pairs, eps=dt)
