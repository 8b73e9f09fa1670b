"""Shared builders for randomized model instances and closed-form oracles."""

import numpy as np

from mfeq import (
    AffineQuadraticModel,
    SeparableCost,
    StrategyTable,
    TimeGrid,
    backward_columns,
)
from mfeq.hj import CostModel, EvaluationBasis


def two_state_transition(a: float, b: float, t: float) -> np.ndarray:
    """Closed-form exp(t * [[-a, a], [b, -b]]) for a, b >= 0."""
    s = a + b
    if s == 0.0:
        return np.eye(2)
    e = np.exp(-s * t)
    return np.array([
        [(b + a * e) / s, (a - a * e) / s],
        [(b - b * e) / s, (a + b * e) / s],
    ])


def random_affine_generator(rng, m, grid=None, time_varying=False):
    """Valid affine-controlled generator with comfortable admissible intervals.

    Off-diagonal base rates at least 0.3 and |beta| <= 0.35 keep every
    interval clear of collapse; base rates are scaled up if needed so the
    rate cap stays above the quadratic control-cost maximum of 0.5.
    """
    cells = grid.steps if time_varying else 1
    alphas = np.empty((cells, m, m))
    betas = np.empty((cells, m))
    for c in range(cells):
        a = rng.uniform(0.3, 1.0, size=(m, m))
        np.fill_diagonal(a, 0.0)
        a[np.diag_indices(m)] = -a.sum(axis=1)
        if np.abs(a).max() < 0.7:
            a *= 0.7 / np.abs(a).max()
        b = rng.uniform(-1.0, 1.0, m)
        b -= b.mean()
        peak = np.abs(b).max()
        if peak > 0:
            b *= 0.35 / peak
        alphas[c], betas[c] = a, b
    if not time_varying:
        return AffineQuadraticModel(alphas[0], betas[0])
    return AffineQuadraticModel(alphas, betas, grid=grid)


def random_cost(rng, m, horizon, gen=None, dist_dependent=None):
    """Random separable cost with nonnegative pieces and valid declared caps."""
    kinds = ["zero", "table", "mean_square"]
    if dist_dependent is True:
        kinds = ["mean_square"]
    elif dist_dependent is False:
        kinds = ["zero", "table"]
    rkind = kinds[rng.integers(len(kinds))]
    if rkind == "zero":
        running = ("zero",)
    elif rkind == "table":
        running = ("table", rng.uniform(0.0, 0.5, m))
    else:
        running = ("mean_square", float(rng.uniform(0.05, 0.3)))
    tau_weight = None
    if rng.random() < 0.5:
        tau_weight = {"kind": "affine", "intercept": float(rng.uniform(0.5, 1.0)),
                      "slope": float(rng.uniform(0.0, 1.0))}
    if dist_dependent is True:
        terminal = ("mean_variance", ["g", "gtilde"][rng.integers(2)])
    elif dist_dependent is False:
        terminal = ("table", rng.uniform(0.0, 1.0, m))
    else:
        choice = rng.integers(3)
        terminal = [("mean_variance", "g"), ("mean_variance", "gtilde"),
                    ("table", rng.uniform(0.0, 1.0, m))][choice]
    return SeparableCost(m, running=running, control="quadratic", terminal=terminal,
                         tau_weight=tau_weight, horizon=horizon, gen=gen)


def random_strategy(rng, gen, grid) -> StrategyTable:
    """Admissible strategy with i.i.d. uniform actions in each interval."""
    bounds = gen.action_bounds(grid.nodes[:-1])
    return StrategyTable(rng.uniform(bounds[..., 0], bounds[..., 1]), grid)


def random_flow(rng, grid, m):
    """Smooth random simplex curve (linear blend of two Dirichlet draws)."""
    from mfeq.chain import FlowCurve
    anchors = rng.dirichlet(np.ones(m), size=2)
    s = np.linspace(0.0, 1.0, grid.steps + 1)[:, None]
    return FlowCurve((1.0 - s) * anchors[0] + s * anchors[1], grid)


def random_instance(rng, m=None, steps=None, horizon=None, **cost_kwargs):
    """Full (grid, generator, cost) triple for property sweeps."""
    m = m or int(rng.integers(2, 5))
    steps = steps or int(rng.integers(20, 61))
    horizon = horizon or float(rng.uniform(0.3, 1.0))
    grid = TimeGrid(horizon, steps)
    gen = random_affine_generator(rng, m, grid=grid,
                                  time_varying=bool(rng.random() < 0.25))
    cost = random_cost(rng, m, horizon, gen=gen, **cost_kwargs)
    return grid, gen, cost


def value_table(gen, cost, nu, grid):
    """The whole table Theta[a, k, i], stacked from mfeq's backward columns
    read at every evaluation row, and the policy of the same sweep."""
    n = grid.steps
    basis = EvaluationBasis(cost, grid)
    table = np.empty((n + 1, n + 1, gen.m))
    actions = np.empty((n, gen.m))
    for k, C, profiles, _ in backward_columns(gen, cost, nu, grid):
        table[:, k] = basis.rows(C, slice(None))[0]
        if k < n:
            actions[k] = profiles[0]
    return table, StrategyTable(actions, grid)


class IndicatorBasis(CostModel):
    """A cost that delegates everything to `base` but declares no tau
    weight, so the backward sweep runs it in the indicator basis: one
    coefficient row per evaluation node, the generic path."""

    def __init__(self, base):
        self.base = base
        self.m, self.K2, self.K3, self.kappa2 = base.m, base.K2, base.K3, base.kappa2

    def running_dist(self, tau, t, rho):
        return self.base.running_dist(tau, t, rho)

    def running_dist_many(self, taus, t, rho):
        return self.base.running_dist_many(taus, t, rho)

    def terminal(self, tau, rho):
        return self.base.terminal(tau, rho)

    def terminal_many(self, taus, rho):
        return self.base.terminal_many(taus, rho)

    def control_cost(self, t, i, v):
        return self.base.control_cost(t, i, v)

    def control_profile_cost(self, t, profile):
        return self.base.control_profile_cost(t, profile)

    def argmin_profile(self, gen, t, h):
        return self.base.argmin_profile(gen, t, h)


class OutsideArgmin(SeparableCost):
    """Argmin oracle that returns 1.5, outside U = [-1, 1], at every nonzero
    continuation value; the affine rates stay valid generators there."""

    def argmin_profile(self, gen, t, h):
        profile = super().argmin_profile(gen, t, h)
        profile[np.any(np.asarray(h) != 0.0, axis=-1), ..., 0] = 1.5
        return profile
