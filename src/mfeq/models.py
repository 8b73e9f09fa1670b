"""Built-in model families with analytic argmin oracles and declared constants.

States carry the labels 1..m in the cost formulas (arrays are 0-indexed
internally); the distribution mean used by the mean-variance terminal costs
is taken over those labels.
"""

from __future__ import annotations

import numpy as np

from .chain import GeneratorModel, TimeGrid, clip_to_bounds
from .errors import ModelDefect
from .hj import CostModel

ACTION_LO, ACTION_HI = -1.0, 1.0
# row-sum tolerances of the affine coefficients and of tabulated rates
AFFINE_ATOL = 1e-12
TABULATED_ATOL = 1e-10


def admissible_interval(alpha, beta) -> np.ndarray:
    """Largest closed subinterval of [-1, 1] keeping each row a generator row.

    For alpha (..., m, m) and beta (..., m), row i of the (..., m, 2) result
    intersects {v : alpha(i, j) + beta(j) v >= 0} over j != i.  The model's
    sign constraints put 0 inside every interval.
    """
    a = np.asarray(alpha, dtype=float)
    b = np.asarray(beta, dtype=float)[..., None, :]
    off = ~np.eye(a.shape[-1], dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = -a / b
    lo = np.where(off & (b > 0.0), bound, ACTION_LO).max(axis=-1)
    hi = np.where(off & (b < 0.0), bound, ACTION_HI).min(axis=-1)
    return np.stack([lo, hi], axis=-1)


def check_rate_tables(tables: np.ndarray, name: str, atol: float) -> None:
    """Every (m, m) cell of a (cells, m, m) stack is a generator: finite,
    nonnegative off-diagonals and rows summing to zero within atol."""
    diagonal = np.eye(tables.shape[-1], dtype=bool)
    for c, table in enumerate(tables):
        if not np.isfinite(table).all():
            raise ModelDefect(f"non-finite {name} in cell {c}")
        if np.where(diagonal, 0.0, table).min() < 0.0:
            raise ModelDefect(f"negative off-diagonal {name} in cell {c}")
        if np.abs(table.sum(axis=1)).max() > atol:
            raise ModelDefect(f"{name} rows do not sum to zero in cell {c}")


def check_zero_sums(vectors: np.ndarray, name: str, atol: float) -> None:
    """Every row of a (cells, m) table is finite and sums to zero within atol."""
    for c, row in enumerate(vectors):
        if not np.isfinite(row).all():
            raise ModelDefect(f"non-finite {name} in cell {c}")
        if abs(row.sum()) > atol:
            raise ModelDefect(f"{name} does not sum to zero in cell {c}")


def _cell(t, dt: float | None, cells: int):
    """Index of the per-cell coefficient table in force at node time t, or
    the array of indices for an array of node times.  Calls occur at node
    times, so nearest-node indexing picks the cell."""
    if isinstance(t, np.ndarray):
        if cells == 1:
            return np.zeros(t.shape, dtype=int)
        return np.clip(np.floor(t / dt + 0.5).astype(int), 0, cells - 1)
    if cells == 1:
        return 0
    k = int(np.floor(t / dt + 0.5))
    return min(max(k, 0), cells - 1)


class AffineQuadraticModel(GeneratorModel):
    """Controlled rates q_t^v(i, j) = alpha_t(i, j) + beta_t(j) v on U = [-1, 1].

    alpha rows sum to zero with nonnegative off-diagonals, beta sums to zero.
    Time-varying coefficients are supplied as per-cell tables and frozen
    between nodes.  Declared constant: K1 = max |alpha| + |beta| entrywise.
    """

    def __init__(self, alpha, beta, grid: TimeGrid | None = None):
        alphas = np.array(alpha, dtype=float)
        betas = np.array(beta, dtype=float)
        if alphas.ndim == 2:
            alphas = alphas[None, :, :]
        if betas.ndim == 1:
            betas = betas[None, :]
        if alphas.ndim != 3 or alphas.shape[1] != alphas.shape[2]:
            raise ModelDefect(f"alpha must be (m, m) or (cells, m, m), got {alphas.shape}")
        m = alphas.shape[1]
        if betas.shape[1] != m:
            raise ModelDefect("beta length differs from alpha dimension")
        if alphas.shape[0] != betas.shape[0]:
            raise ModelDefect("alpha and beta tables have different cell counts")
        if alphas.shape[0] > 1:
            if grid is None:
                raise ModelDefect("time-varying tables need a grid")
            if alphas.shape[0] != grid.steps:
                raise ModelDefect(
                    f"{alphas.shape[0]} coefficient cells but grid has {grid.steps}")
        check_rate_tables(alphas, "alpha", AFFINE_ATOL)
        check_zero_sums(betas, "beta", AFFINE_ATOL)
        alphas.setflags(write=False)
        betas.setflags(write=False)
        self._alphas = alphas
        self._betas = betas
        self._dt = grid.dt if grid is not None else None
        self._cells = alphas.shape[0]
        self.m = m
        self.K1 = float((np.abs(alphas) + np.abs(betas)[:, None, :]).max())
        self._bounds = admissible_interval(alphas, betas)
        self._bounds.setflags(write=False)

    def coefficients_at(self, t) -> tuple[np.ndarray, np.ndarray]:
        c = _cell(t, self._dt, self._cells)
        return self._alphas[c], self._betas[c]

    def rate_matrix(self, t, profile) -> np.ndarray:
        a, b = self.coefficients_at(t)
        u = np.asarray(profile, dtype=float)
        return a + u[..., :, None] * b[..., None, :]

    def action_bounds(self, t) -> np.ndarray:
        return self._bounds[_cell(t, self._dt, self._cells)]


class TabulatedGenerator(GeneratorModel):
    """Control-free generator given as a rate table per grid cell.

    The admissible set degenerates to the single action 0.
    """

    def __init__(self, rates, grid: TimeGrid | None = None):
        Q = np.array(rates, dtype=float)
        if Q.ndim == 2:
            Q = Q[None, :, :]
        if Q.ndim != 3 or Q.shape[1] != Q.shape[2]:
            raise ModelDefect(f"rate table must be (m, m) or (cells, m, m), got {Q.shape}")
        if Q.shape[0] > 1:
            if grid is None or Q.shape[0] != grid.steps:
                raise ModelDefect("per-cell rate table does not match the grid")
        check_rate_tables(Q, "rate", TABULATED_ATOL)
        Q.setflags(write=False)
        self._tables = Q
        self._dt = grid.dt if grid is not None else None
        self._cells = Q.shape[0]
        self.m = Q.shape[1]
        self.K1 = float(np.abs(Q).max())

    def rate_matrix(self, t, profile) -> np.ndarray:
        Q = self._tables[_cell(t, self._dt, self._cells)]
        return np.broadcast_to(Q, np.shape(profile)[:-1] + (self.m, self.m))

    def action_bounds(self, t) -> np.ndarray:
        return np.zeros(np.shape(t) + (self.m, 2))


def state_labels(m: int) -> np.ndarray:
    return np.arange(1, m + 1, dtype=float)


def label_means(rho) -> np.ndarray:
    """Label mean of one law (m,) or of each law in a (..., m) stack.

    np.vecdot takes one dot product per law, so a law's mean does not depend
    on the stack it sits in; a matrix-vector product's last bits would.
    """
    w = np.asarray(rho, dtype=float)
    return np.vecdot(w, state_labels(w.shape[-1]))


def make_tau_weight(spec: dict | None, horizon: float):
    """Evaluation-time weight w(tau) from a small declarative spec.

    Kinds: "one" (constant 1), "affine" (intercept + slope * tau), "exp"
    (exp(-rate * tau)).  Returns (callable, max over [0, horizon]); the
    weight must stay finite and nonnegative on the horizon.
    """
    if spec is None or spec.get("kind", "one") == "one":
        return (lambda tau: np.ones_like(np.asarray(tau, dtype=float))), 1.0
    kind = spec["kind"]
    if kind == "affine":
        c0 = float(spec.get("intercept", 1.0))
        c1 = float(spec.get("slope", 0.0))
        ends = [c0, c0 + c1 * horizon]

        def weight(tau):
            return c0 + c1 * np.asarray(tau, dtype=float)
    elif kind == "exp":
        r = float(spec.get("rate", 0.0))
        with np.errstate(over="ignore"):
            ends = [1.0, float(np.exp(-r * horizon))]

        def weight(tau):
            return np.exp(-r * np.asarray(tau, dtype=float))
    else:
        raise ModelDefect(f"unknown tau weight kind {kind!r}")
    if not np.isfinite(ends).all():
        raise ModelDefect(f"{kind} tau weight is not finite on the horizon")
    if min(ends) < 0.0:
        raise ModelDefect(f"{kind} tau weight goes negative on the horizon")
    return weight, max(ends)


class SeparableCost(CostModel):
    """Configurable separable cost: tau-weighted distribution running cost,
    quadratic or zero control cost, and a pluggable terminal cost.

    running: ("zero",), ("table", values), or ("mean_square", scale) for the
    squared deviation of the state label from the distribution mean.
    terminal: ("mean_variance", "g"|"gtilde") or ("table", values).  The
    gtilde variant is shifted by m^2 (recorded in terminal_shift) so the
    declared nonnegativity cap holds; the shift moves every value equally
    and leaves the policy map unchanged.
    """

    def __init__(self, m: int, running=("zero",), control: str = "quadratic",
                 terminal=("mean_variance", "g"), tau_weight: dict | None = None,
                 horizon: float = 1.0, K2: float | None = None, K3: float | None = None):
        self.m = m
        self._labels = state_labels(m)
        self._weight, wmax = make_tau_weight(tau_weight, horizon)

        kind = running[0]
        if kind == "zero":
            self._running_spec = None
            run_cap, run_lip = 0.0, 0.0
        elif kind == "table":
            vals = np.asarray(running[1], dtype=float)
            if vals.shape != (m,):
                raise ModelDefect("running table length differs from state count")
            if vals.min() < 0.0:
                raise ModelDefect("running table must be nonnegative")
            self._running_spec = ("table", vals)
            run_cap, run_lip = float(vals.max()), 0.0
        elif kind == "mean_square":
            scale = float(running[1])
            if scale < 0.0:
                raise ModelDefect("mean_square scale must be nonnegative")
            self._running_spec = ("mean_square", scale)
            run_cap = scale * (m - 1) ** 2
            run_lip = scale * 2.0 * m * m
        else:
            raise ModelDefect(f"unknown running cost kind {kind!r}")
        self._running_kind = kind

        if control not in ("quadratic", "zero"):
            raise ModelDefect(f"unknown control cost kind {control!r}")
        self.control = control

        tkind = terminal[0]
        if tkind == "mean_variance":
            variant = terminal[1]
            if variant not in ("g", "gtilde"):
                raise ModelDefect(f"unknown mean-variance variant {variant!r}")
            self.terminal_shift = float(m * m) if variant == "gtilde" else 0.0
            self._terminal_spec = ("mean_variance", variant)
            term_cap = (2.0 * m * m - 1.0) if variant == "gtilde" else (m - 1.0) ** 2
            term_lip = 2.0 * m * m
        elif tkind == "table":
            vals = np.asarray(terminal[1], dtype=float)
            if vals.shape != (m,):
                raise ModelDefect("terminal table length differs from state count")
            if vals.min() < 0.0:
                raise ModelDefect("terminal table must be nonnegative")
            self.terminal_shift = 0.0
            self._terminal_spec = ("table", vals)
            term_cap, term_lip = float(vals.max()), 0.0
        else:
            raise ModelDefect(f"unknown terminal cost kind {tkind!r}")

        self.K2 = float(K2) if K2 is not None else float(max(wmax * run_cap, term_cap))
        self.K3 = float(K3) if K3 is not None else float(wmax * run_lip + term_lip)

    def tau_weight(self, taus) -> np.ndarray:
        return self._weight(np.asarray(taus, float))

    def running_base(self, t: float, rho) -> np.ndarray:
        shape = np.shape(rho)
        if self._running_spec is None:
            return np.zeros(shape)
        kind, payload = self._running_spec
        if kind == "table":
            return np.broadcast_to(payload, shape)
        mbar = label_means(rho)[..., None]
        return payload * (self._labels - mbar) ** 2

    def terminal(self, tau: float, rho) -> np.ndarray:
        kind, payload = self._terminal_spec
        if kind == "table":
            return np.broadcast_to(payload, np.shape(rho)).copy()
        mbar = label_means(rho)[..., None]
        if payload == "g":
            return (self._labels - mbar) ** 2
        return self._labels ** 2 - mbar ** 2 + self.terminal_shift

    def control_profile_cost(self, t, profile) -> np.ndarray:
        u = np.asarray(profile, dtype=float)
        if self.control == "zero":
            return np.zeros_like(u)
        return 0.5 * u * u

    def argmin_profile(self, gen: GeneratorModel, t: float, h) -> np.ndarray:
        """Closed forms on the built-in generators; any other raises ModelDefect."""
        hv = np.asarray(h, dtype=float)
        if isinstance(gen, TabulatedGenerator):
            return np.zeros(hv.shape)  # the admissible set is the action 0
        if not isinstance(gen, AffineQuadraticModel):
            raise ModelDefect(f"SeparableCost has no argmin for a {type(gen).__name__}")
        # np.vecdot: each row's slope is h @ beta's, bit for bit
        _, beta = gen.coefficients_at(t)
        slope = np.vecdot(hv, beta)
        bounds = gen.action_bounds(t)
        if self.control == "zero":
            # linear in v: hi where the slope is negative, else lo (ties, h = 0 too)
            return np.where(slope[..., None] < 0.0, bounds[:, 1], bounds[:, 0])
        # minimizer of v^2/2 + v (h . beta): the stationary point clipped
        # into each state's interval, 1-Lipschitz in the stationary point
        return clip_to_bounds(bounds, -slope[..., None])
