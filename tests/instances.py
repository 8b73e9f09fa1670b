"""Shared builders for randomized model instances and closed-form oracles."""

import copy

import numpy as np
import pytest

from mfeq import (
    AffineQuadraticModel,
    SeparableCost,
    StrategyTable,
    TimeGrid,
    backward_columns,
)
from mfeq.hj import SWEEP_BLOCK, EvaluationBasis
from mfeq.modelfile import build_model, builtin_names, read_model_file
from oracles import evaluation_rows


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


def ramped_model(cells: int) -> dict:
    """Model file of affine_mv's generator with per-cell coefficients whose
    exit rates ramp 10x from the first cell to the last: every cell but the
    last has a rate below the grid's."""
    scale = np.linspace(1.0, 10.0, cells)[:, None]
    model = read_model_file("affine_mv")
    model["generator"] = {
        "kind": "affine",
        "alpha": (scale[:, :, None] * [[-0.8, 0.8], [0.9, -0.9]]).tolist(),
        "beta": (scale * [0.4, -0.4]).tolist(),
    }
    return model


def rounded_end_model() -> dict:
    """A valid model file whose interval for state 2 ends at
    -0.4 / 1.26 = -0.31746..., where the quotient rounds past the true end:
    the rate to state 1 there reads -5.6e-17 unless the end moves one ulp
    toward 0 (models.admissible_interval).  With zero control cost the
    policy is bang-bang, so the sweep takes that end."""
    return {"schema": 1, "states": 2, "horizon": 0.5,
            "generator": {"kind": "affine", "alpha": [[-0.58, 0.58], [0.4, -0.4]],
                          "beta": [1.26, -1.26]},
            "cost": {"running": {"kind": "mean_square", "scale": 0.2}, "control": "zero",
                     "terminal": "mean_variance_g"}}


def random_cost(rng, m, horizon, dist_dependent=None):
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
                         tau_weight=tau_weight, horizon=horizon)


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
    cost = random_cost(rng, m, horizon, **cost_kwargs)
    return grid, gen, cost


def value_table(gen, cost, nu):
    """The whole table Theta[a, k, i], stacked from mfeq's backward columns
    read at every evaluation row, and the policy of the same sweep."""
    grid = nu.grid
    n = grid.steps
    basis = EvaluationBasis(cost, grid)
    table = np.empty((n + 1, n + 1, gen.m))
    actions = np.empty((n, gen.m))
    for k, C, profiles, *_ in sweep_cells(backward_columns(gen, cost, nu)):
        table[:, k] = evaluation_rows(basis, C, slice(None))[0]
        if k < n:
            actions[k] = profiles[0]
    return table, StrategyTable(actions, grid)


def sweep_cells(blocks):
    """backward_columns' blocks read one node at a time, from node N down:
    (k, C, profiles, P, diagonal, extremes) of node k, with profiles and P
    None at k = N.  Checks that the blocks cover the nodes N .. 0 in order:
    the terminal column alone, then blocks of SWEEP_BLOCK cells, the last
    one possibly shorter."""
    blocks = iter(blocks)
    first, C, profiles, P, diagonal, extremes = next(blocks)
    assert len(C) == 1 and profiles is None and P is None
    yield first, C[0], None, None, diagonal[0], extremes[0]
    top = first
    for first, C, profiles, P, diagonal, extremes in blocks:
        size = len(C)
        assert first + size == top and (size == SWEEP_BLOCK or first == 0)
        assert len(profiles) == len(P) == len(diagonal) == len(extremes) == size
        for j in range(size - 1, -1, -1):
            yield first + j, C[j], profiles[j], P[j], diagonal[j], extremes[j]
        top = first
    assert top == 0


class OutsideArgmin(SeparableCost):
    """Argmin oracle that returns 1.5, outside U = [-1, 1], at every nonzero
    continuation value; the affine rates stay valid generators there."""

    def argmin_profile(self, gen, t, h):
        profile = super().argmin_profile(gen, t, h)
        profile[np.any(np.asarray(h) != 0.0, axis=-1), ..., 0] = 1.5
        return profile


class LowerBoundArgmin(SeparableCost):
    """Argmin oracle that returns each state's lower bound: admissible, and
    no minimizer wherever the stationary point lies inside the interval."""

    def argmin_profile(self, gen, t, h):
        return np.broadcast_to(gen.action_bounds(t)[:, 0], np.shape(h)).copy()


def shipped_instances():
    """(name, grid, generator, cost, flow) of every shipped model at N=40 and
    of three random instances, each with a random flow."""
    rng = np.random.default_rng(9)
    for name in builtin_names():
        model = read_model_file(name)
        grid = TimeGrid(model["horizon"], 40)
        gen, cost = build_model(model, grid)
        yield name, grid, gen, cost, random_flow(rng, grid, gen.m)
    for steps in (20, 37, 60):
        grid, gen, cost = random_instance(rng, steps=steps)
        yield f"random-{steps}", grid, gen, cost, random_flow(rng, grid, gen.m)


def tau_weighted_instances():
    """Time-varying generators with affine and exp tau weights, m = 2, 3, 5."""
    rng = np.random.default_rng(10)
    for kind, weight in (("affine", {"kind": "affine", "intercept": 0.4, "slope": 1.5}),
                         ("exp", {"kind": "exp", "rate": 2.0})):
        for m in (2, 3, 5):
            grid = TimeGrid(0.8, 30)
            gen = random_affine_generator(rng, m, grid=grid, time_varying=True)
            cost = SeparableCost(m, running=("mean_square", 0.3),
                                 terminal=("mean_variance", ["g", "gtilde"][m % 2]),
                                 tau_weight=weight, horizon=grid.horizon)
            yield f"{kind}-m{m}", grid, gen, cost, random_flow(rng, grid, m)


# numbers a model file must reject, as pytest params: the path of the field,
# the bad value and the field the message names; JSON admits NaN and Infinity,
# NumPy reads a JSON boolean as a number, and a cost table has no cells
NAN, INF = float("nan"), float("inf")
BAD_MODEL_NUMBERS = [pytest.param(path, value, field, id=name) for name, path, value, field in [
    ("horizon-inf", ("horizon",), INF, "horizon"),
    ("horizon-huge", ("horizon",), 10 ** 400, "horizon"),
    ("horizon-true", ("horizon",), True, "horizon"),
    ("K1-nan", ("constants", "K1"), NAN, "constants.K1"),
    ("K1-inf", ("constants", "K1"), INF, "constants.K1"),
    ("K2-nan", ("constants", "K2"), NAN, "constants.K2"),
    ("K2-inf", ("constants", "K2"), INF, "constants.K2"),
    ("K2-true", ("constants", "K2"), True, "constants.K2"),
    ("K3-nan", ("constants", "K3"), NAN, "constants.K3"),
    ("scale-nan", ("cost", "running", "scale"), NAN, "cost.running.scale"),
    ("scale-inf", ("cost", "running", "scale"), INF, "cost.running.scale"),
    ("scale-true", ("cost", "running", "scale"), True, "cost.running.scale"),
    ("intercept-nan", ("cost", "running", "tau_weight", "intercept"), NAN,
     "cost.running.tau_weight.intercept"),
    ("slope-text", ("cost", "running", "tau_weight", "slope"), "abc",
     "cost.running.tau_weight.slope"),
    ("rate-inf", ("cost", "running", "tau_weight"), {"kind": "exp", "rate": INF},
     "cost.running.tau_weight.rate"),
    ("rate-overflow", ("cost", "running", "tau_weight"), {"kind": "exp", "rate": -2000.0},
     "cost.running.tau_weight"),
    ("alpha-true", ("generator", "alpha"), [[-1.0, True], [1.0, -1.0]], "generator.alpha"),
    ("beta-true", ("generator", "beta"), [True, -1], "generator.beta"),
    ("rates-true", ("generator",), {"kind": "tabulated", "rates": [[-1, True], [1, -1]]},
     "generator.rates"),
    ("running-values-true", ("cost", "running"), {"kind": "table", "values": [True, 0.5]},
     "cost.running.values"),
    ("terminal-values-false", ("cost", "terminal"), {"kind": "table", "values": [0.5, False]},
     "cost.terminal.values"),
    ("running-values-nan", ("cost", "running"), {"kind": "table", "values": [NAN, 0.5]},
     "cost.running.values"),
    ("terminal-values-nan", ("cost", "terminal"), {"kind": "table", "values": [NAN, 0.5]},
     "cost.terminal.values"),
    ("running-values-per-cell", ("cost", "running"),
     {"kind": "table", "values": [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]}, "cost.running.values"),
]]


def with_value(model: dict, path, value) -> dict:
    """A deep copy of a model tree with the field at path set to value."""
    out = copy.deepcopy(model)
    node = out
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    return out
