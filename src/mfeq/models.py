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
    sign constraints put 0 inside every interval.  An end -a/b rounds to
    either side of the true end; one whose rates, formed as rate_matrix
    forms them, have an off-diagonal below zero moves one ulp toward 0.
    Rounding is monotone, so the rates are then nonnegative at every action
    of the interval, and its ends bound every exit rate (chain.grid_rate).
    """
    a = np.asarray(alpha, dtype=float)
    b = np.asarray(beta, dtype=float)[..., None, :]
    off = ~np.eye(a.shape[-1], dtype=bool)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bound = -a / b
    lo = np.where(off & (b > 0.0), bound, ACTION_LO).max(axis=-1)
    hi = np.where(off & (b < 0.0), bound, ACTION_HI).min(axis=-1)
    ends = np.stack([lo, hi], axis=-1)
    with np.errstate(over="ignore"):
        # rates[..., i, e, j] = q(i, j) at end e of row i's interval
        rates = a[..., None, :] + ends[..., None] * b[..., None, :]
    short = np.where(off[:, None, :], rates, 0.0).min(axis=-1) < 0.0
    return np.where(short, np.nextafter(ends, 0.0), ends)


def check_rate_tables(tables: np.ndarray, name: str, atol: float) -> None:
    """Every (m, m) cell of a (cells, m, m) stack is a generator: finite,
    nonnegative off-diagonals and rows summing to zero within atol.  A
    defect's field is name."""
    diagonal = np.eye(tables.shape[-1], dtype=bool)
    for c, table in enumerate(tables):
        if not np.isfinite(table).all():
            raise ModelDefect(f"non-finite {name} in cell {c}", name)
        if np.where(diagonal, 0.0, table).min() < 0.0:
            raise ModelDefect(f"negative off-diagonal {name} in cell {c}", name)
        if np.abs(table.sum(axis=1)).max() > atol:
            raise ModelDefect(f"{name} rows do not sum to zero in cell {c}", name)


def check_zero_sums(vectors: np.ndarray, name: str, atol: float) -> None:
    """Every row of a (cells, m) table is finite and sums to zero within
    atol.  A defect's field is name."""
    for c, row in enumerate(vectors):
        if not np.isfinite(row).all():
            raise ModelDefect(f"non-finite {name} in cell {c}", name)
        if abs(row.sum()) > atol:
            raise ModelDefect(f"{name} does not sum to zero in cell {c}", name)


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
            raise ModelDefect(f"alpha must be (m, m) or (cells, m, m), got {alphas.shape}",
                              "alpha")
        m = alphas.shape[1]
        if betas.shape[1] != m:
            raise ModelDefect("beta length differs from alpha dimension", "beta")
        if alphas.shape[0] != betas.shape[0]:
            raise ModelDefect("alpha and beta tables have different cell counts", "beta")
        if alphas.shape[0] > 1:
            if grid is None:
                raise ModelDefect("time-varying tables need a grid", "alpha")
            if alphas.shape[0] != grid.steps:
                raise ModelDefect(
                    f"{alphas.shape[0]} coefficient cells but grid has {grid.steps}", "alpha")
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
            raise ModelDefect(f"rate table must be (m, m) or (cells, m, m), got {Q.shape}",
                              "rates")
        if Q.shape[0] > 1:
            if grid is None or Q.shape[0] != grid.steps:
                raise ModelDefect("per-cell rate table does not match the grid", "rates")
        check_rate_tables(Q, "rates", TABULATED_ATOL)
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
    """Evaluation-time weight w(tau) = (c0 + c1 tau) exp(-r tau) from a
    small declarative spec: "one" is (c0, c1, r) = (1, 0, 0), "affine" sets
    c0 = intercept and c1 = slope, "exp" sets r = rate.  1 + 0 tau and
    exp(-0 tau) are exactly 1, so each kind keeps its own formula's bits.
    Returns (callable, max over [0, horizon]), taken at an end since w is
    monotone; w must stay finite and nonnegative on the horizon.
    """
    kind = (spec or {}).get("kind", "one")
    if kind == "one":
        c0, c1, r = 1.0, 0.0, 0.0
    elif kind == "affine":
        c0, c1, r = float(spec.get("intercept", 1.0)), float(spec.get("slope", 0.0)), 0.0
    elif kind == "exp":
        c0, c1, r = 1.0, 0.0, float(spec.get("rate", 0.0))
    else:
        raise ModelDefect(f"unknown tau weight kind {kind!r}", "tau_weight")

    def weight(tau):
        tau = np.asarray(tau, dtype=float)
        return (c0 + c1 * tau) * np.exp(-r * tau)

    with np.errstate(over="ignore", invalid="ignore"):
        ends = [float(weight(0.0)), float(weight(horizon))]
    if not np.isfinite(ends).all():
        raise ModelDefect(f"{kind} tau weight is not finite on the horizon", "tau_weight")
    if min(ends) < 0.0:
        raise ModelDefect(f"{kind} tau weight goes negative on the horizon", "tau_weight")
    return weight, max(ends)


def _cost_table(values, m: int, name: str) -> np.ndarray:
    """A per-state cost table: m finite, nonnegative entries."""
    vals = np.asarray(values, dtype=float)
    if vals.shape != (m,):
        raise ModelDefect(f"{name} table length differs from state count", name)
    if not (np.isfinite(vals).all() and vals.min() >= 0.0):
        raise ModelDefect(f"{name} table must be finite and nonnegative", name)
    return vals


class SeparableCost(CostModel):
    """Configurable separable cost: tau-weighted distribution running cost,
    quadratic or zero control cost, and a pluggable terminal cost.

    running: ("zero",), ("table", values), or ("mean_square", scale) for the
    squared deviation of the state label from the distribution mean; the
    zero cost is the table of zeros.
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
        if kind in ("zero", "table"):
            vals = np.zeros(m) if kind == "zero" else _cost_table(running[1], m, "running")
            self._running_spec = ("table", vals)
            run_cap, run_lip = float(vals.max()), 0.0
        elif kind == "mean_square":
            scale = float(running[1])
            if not (np.isfinite(scale) and scale >= 0.0):
                raise ModelDefect("mean_square scale must be finite and nonnegative",
                                  "running")
            self._running_spec = ("mean_square", scale)
            run_cap = scale * (m - 1) ** 2
            run_lip = scale * 2.0 * m * m
        else:
            raise ModelDefect(f"unknown running cost kind {kind!r}", "running")

        if control not in ("quadratic", "zero"):
            raise ModelDefect(f"unknown control cost kind {control!r}", "control")
        self.control = control

        tkind = terminal[0]
        if tkind == "mean_variance":
            variant = terminal[1]
            if variant not in ("g", "gtilde"):
                raise ModelDefect(f"unknown mean-variance variant {variant!r}", "terminal")
            self.terminal_shift = float(m * m) if variant == "gtilde" else 0.0
            self._terminal_spec = ("mean_variance", variant)
            term_cap = (2.0 * m * m - 1.0) if variant == "gtilde" else (m - 1.0) ** 2
            term_lip = 2.0 * m * m
        elif tkind == "table":
            vals = _cost_table(terminal[1], m, "terminal")
            self.terminal_shift = 0.0
            self._terminal_spec = ("table", vals)
            term_cap, term_lip = float(vals.max()), 0.0
        else:
            raise ModelDefect(f"unknown terminal cost kind {tkind!r}", "terminal")

        self.K2 = float(K2) if K2 is not None else float(max(wmax * run_cap, term_cap))
        self.K3 = float(K3) if K3 is not None else float(wmax * run_lip + term_lip)

    def tau_weight(self, taus) -> np.ndarray:
        return self._weight(np.asarray(taus, float))

    def running_base(self, t: float, rho) -> np.ndarray:
        kind, payload = self._running_spec
        if kind == "table":
            return np.broadcast_to(payload, np.shape(rho))
        mbar = label_means(rho)[..., None]
        return payload * (self._labels - mbar) ** 2

    def terminal(self, rho) -> np.ndarray:
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
        if not isinstance(gen, AffineQuadraticModel):  # the sweep's case first
            if isinstance(gen, TabulatedGenerator):
                return np.zeros(hv.shape)  # the admissible set is the action 0
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
