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
    ProbabilityVector,
    StrategyTable,
    _as_weights,
    grid_rate,
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
    """Grid-node state snapshots of a population of players, states[p, k],
    and the count of every state at every node, counts[k, x].

    The sampler's states are the transposed view of its node-major buffer,
    of dtype np.min_scalar_type(m - 1): one byte per player per node for
    m <= 256.

    The counts take m - 1 count_nonzero passes over the node-major paths,
    states.T; the last state's count is the players not counted before.
    Both flows below divide these exact integers, so neither depends on
    how the counts were taken.
    """

    __slots__ = ("states", "m", "counts")

    def __init__(self, states: np.ndarray, m: int):
        self.states = states
        self.m = m
        paths = states.T
        self.counts = np.empty((paths.shape[0], m), dtype=np.int64)
        for j in range(m - 1):
            self.counts[:, j] = np.count_nonzero(paths == j, axis=1)
        self.counts[:, m - 1] = paths.shape[1] - self.counts[:, :m - 1].sum(axis=1)

    @property
    def players(self) -> int:
        return self.states.shape[0]

    def empirical_flow(self) -> np.ndarray:
        """Full empirical measure at every grid node, shape (steps+1, m)."""
        return self.counts / self.players

    def peer_flow(self) -> np.ndarray:
        """Leave-one-out empirical measure at every grid node, shape
        (steps+1, m): the population without player 0, whose place the
        deviation test's focal player takes."""
        counts = self.counts.copy()
        counts[np.arange(len(counts)), self.states[0]] -= 1
        return counts / (self.players - 1)


def _population(cum: np.ndarray, rho0, players: int, seed: int,
                replication: int) -> PathBundle:
    """Node-to-node paths of `players` chains from the cumulative rows `cum`
    of a (steps, m, m) transition stack, initial states i.i.d. from rho0,
    a law that ProbabilityVector accepts, normalized as it normalizes.

    The paths fill a (steps+1, players) buffer node by node; the bundle's
    states are its transposed view.  The buffer's dtype is
    np.min_scalar_type(m - 1), so for m <= 256 a population holds
    (steps+1) * players bytes of paths.  The next state of a path in state
    x is the count of j < m-1 with cum[k, x, j] <= u (cum[k, x, m-1] is
    1.0, above every uniform), read from contiguous threshold columns.
    Every node draws its uniforms into one reused buffer and gathers its
    columns into another; the first column's comparison is written straight
    into the next row and the others are added to it, so the loop allocates
    no buffer per node.
    """
    w = ProbabilityVector(_as_weights(rho0)).weights
    if w.size != cum.shape[-1]:
        raise DimensionMismatch("initial law dimension differs from model")
    rng = _stream(seed, replication, _PEER_STREAM)
    # threshold columns j < m - 1, (steps, m-1, m); a one-state chain keeps
    # its column of 1.0, which no uniform reaches
    thresholds = np.ascontiguousarray(np.swapaxes(cum[..., :max(w.size - 1, 1)], 1, 2))
    paths = np.empty((len(cum) + 1, players), dtype=np.min_scalar_type(w.size - 1))
    u = rng.random(players)
    paths[0] = _inverse_cdf(_cumulative(w), u)
    below = np.empty(players, dtype=bool)
    gathered = np.empty(players)
    for k, (first, *rest) in enumerate(thresholds):
        rng.random(out=u)
        x, nxt = paths[k], paths[k + 1]
        np.less_equal(np.take(first, x, out=gathered, mode="clip"), u, out=nxt)
        for column in rest:
            nxt += np.less_equal(np.take(column, x, out=gathered, mode="clip"), u, out=below)
    return PathBundle(paths.T, w.size)


def simulate(gen: GeneratorModel, strategy: StrategyTable, rho0, cfg: SimConfig,
             replication: int = 0, *, transitions: np.ndarray | None = None) -> PathBundle:
    """Simulate cfg.players independent chains under a shared strategy, on
    its grid.

    Initial states are drawn i.i.d. from rho0; the bundle is a pure function
    of (cfg.seed, replication, cfg.players).  `transitions` may carry the
    strategy's stack from transition_stack, shared across replications;
    without it the stack is built here.
    """
    if transitions is None:
        transitions = transition_stack(gen, strategy)
    return _population(_cumulative(transitions), rho0, cfg.players, cfg.seed, replication)


@dataclass
class DeviationEstimate:
    """Monte Carlo spike gap for one player against simulated peers."""

    gap: float
    stderr: float
    ci_low: float
    ci_high: float
    pairs: int

    def covers(self, value: float) -> bool:
        return self.ci_low <= value <= self.ci_high


def deviation_test(eq: Equilibrium, gen: GeneratorModel, cost: CostModel,
                   spike: tuple[int, int, float], cfg: SimConfig, peers,
                   inner_pairs: int = 200, *,
                   transitions: np.ndarray | None = None) -> DeviationEstimate:
    """Estimate the normalized one-cell spike gap for one player by Monte Carlo.

    spike = (node, state, action): all other players run the equilibrium
    policy from time 0; the focal player's chain is started at the spiked
    node in the given state and costed against the peers' leave-one-out
    empirical measure.  `peers` holds that measure, one (steps+1, m) flow
    per replication: PathBundle.peer_flow of the replication's own
    population, which the focal player joins in player 0's place.  The
    focal player's paths come from their own stream, and each base path and
    its spiked partner use the same uniform in every cell (common random
    numbers).  The confidence interval is taken over replication means, so
    peer-sampling variation is part of the interval.  For large populations
    the estimate approaches the deterministic spike gap.  `transitions` may
    carry the policy's stack from transition_stack; without it the stack is
    built here.
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
    peers = np.asarray(peers, dtype=float)
    if peers.shape != (cfg.replications, n + 1, gen.m):
        raise DimensionMismatch(f"expected {cfg.replications} peer flows of shape "
                                f"{(n + 1, gen.m)}, got an array of shape {peers.shape}")

    if transitions is None:
        transitions = transition_stack(gen, eq.policy)
    spike_cells = transitions.copy()
    spike_cells[k0] = transition_matrix(gen, t0, profile, dt, grid_rate(gen, grid))
    # index 0 is the base strategy, index 1 the spiked one
    cum = _cumulative(np.stack([transitions, spike_cells]))
    control = dt * np.stack([cost.control_profile_cost(nodes[k0:n], strategy.actions[k0:])
                             for strategy in (eq.policy, spiked)])
    side = np.arange(2)[:, None]
    weight = float(cost.tau_weight(t0))

    rep_means = np.empty(cfg.replications)
    for rep, peer in enumerate(peers):
        running = dt * (weight * cost.running_base(nodes[k0:n, None], peer[k0:n]))
        table = control + running
        rng = _stream(cfg.seed, rep, _FOCAL_STREAM, 0)  # the one focal player's stream
        x = np.full((2, inner_pairs), state0, dtype=np.int64)
        total = np.zeros((2, inner_pairs))
        for c in range(n - k0):
            total += table[side, c, x]
            x = _inverse_cdf(cum[side, k0 + c, x], rng.random(inner_pairs))
        total += cost.terminal(peer[n])[x]
        rep_means[rep] = ((total[1] - total[0]) / dt).mean()
    gap = float(rep_means.mean())
    if cfg.replications > 1:
        stderr = float(rep_means.std(ddof=1) / np.sqrt(cfg.replications))
    else:
        stderr = 0.0
    half = 1.96 * stderr
    return DeviationEstimate(gap=gap, stderr=stderr, ci_low=gap - half, ci_high=gap + half,
                             pairs=cfg.replications * inner_pairs)
