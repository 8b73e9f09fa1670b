"""Finite-state continuous-time chain primitives.

Simplex arithmetic, controlled generators, exponential one-step transitions
and forward flow propagation.  Time stepping freezes the generator on each
grid cell and applies its matrix exponential, which preserves the simplex
for any step size (an explicit Euler step would need dt < 1/K1).  The
exponentials come from uniformization, a sum of nonnegative terms, over a
whole stack of generators at once (stochastic_exponentials).  Every cell
of a grid is uniformized at one rate, which depends on the model and the
grid alone (grid_rate), so a backward sweep fixes the series' constants
once (SeriesPlan).  A GeneratorModel's exit rates peak at an end of each
admissible interval, so that rate covers every admissible profile; a
generator it does not cover is an error.  One test decides whether a block
of exponentials is sound and names its first failing cell (check_cells):
the stacked path and the backward sweep both call it.

All operations are pure functions of their inputs; the data types are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import AdmissibilityError, DimensionMismatch, ModelDefect, NumericalError

# Negative entries no larger than this are treated as roundoff and clipped.
SIMPLEX_ATOL = 1e-12
# Allowed drift of probability mass / stochastic row sums.
MASS_ATOL = 1e-10
# Slack of the admissibility check around each action interval.
ACTION_ATOL = 1e-9
# Grid nodes validate_generator samples at once.
VALIDATE_BLOCK = 64


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_N = horizon with dt = horizon/steps."""

    horizon: float
    steps: int
    _nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not np.isfinite(self.horizon) or self.horizon <= 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        nodes = np.linspace(0.0, self.horizon, self.steps + 1)
        nodes.setflags(write=False)
        object.__setattr__(self, "_nodes", nodes)

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def nodes(self) -> np.ndarray:
        """The steps + 1 node times, built once and read-only."""
        return self._nodes


class ProbabilityVector:
    """Point of the probability simplex over states {0, ..., m-1}.

    Construction clips negative entries in [-1e-12, 0) to zero and
    renormalizes; larger negatives are rejected so genuine solver failures
    are distinguished from roundoff (_simplex_rows).
    """

    __slots__ = ("weights",)

    def __init__(self, weights):
        w = np.array(weights, dtype=float).reshape(1, -1)
        w = _simplex_rows(w, lambda r: " in probability vector")[0]
        total = w.sum()
        if total <= 0.0:
            raise NumericalError("probability vector has no mass")
        w /= total
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def m(self) -> int:
        return self.weights.size

    @classmethod
    def uniform(cls, m: int) -> "ProbabilityVector":
        return cls(np.full(m, 1.0 / m))

    def __len__(self):
        return self.weights.size

    def __repr__(self):
        return f"ProbabilityVector({self.weights.tolist()})"


def _as_weights(rho) -> np.ndarray:
    if isinstance(rho, ProbabilityVector):
        return rho.weights
    return np.asarray(rho, dtype=float)


def _simplex_rows(v: np.ndarray, where) -> np.ndarray:
    """v, a (rows, m) stack of laws, with roundoff negatives clipped to zero.

    Every row must be finite with no mass below -SIMPLEX_ATOL.  The stack is
    tested at once; only if that fails is the first failing row r found,
    and it raises, named as where(r).  A NaN fails.
    """
    lo = v.min(initial=np.inf)
    if not (lo >= -SIMPLEX_ATOL and v.max(initial=0.0) < np.inf):
        lows, finite = v.min(axis=1, initial=np.inf), np.isfinite(v).all(axis=1)
        r = int(np.argmax(~(finite & (lows >= -SIMPLEX_ATOL))))
        raise NumericalError((f"negative mass {lows[r]:.3e}" if finite[r] else "non-finite mass")
                             + where(r))
    return np.clip(v, 0.0, None) if lo < 0.0 else v


class GeneratorModel(ABC):
    """Controlled rate family q_t^v(i, .) with per-state admissible intervals.

    Subclasses declare m (state count) and K1 (rate magnitude cap).  Each
    state's off-diagonal rates stay nonnegative over its interval, and its
    exit rate -q_ii peaks at an end of it, where grid_rate reads it.
    """

    m: int
    K1: float

    @abstractmethod
    def rate_matrix(self, t, profile) -> np.ndarray:
        """Full generator for the action profile u: row i uses u[i].

        A (..., m) stack of profiles gives the (..., m, m) stack of generators.
        t is one node time or an array of them that broadcasts against the
        stack's leading axes.
        """

    @abstractmethod
    def action_bounds(self, t) -> np.ndarray:
        """Closed admissible interval [lo, hi] of every state at node time t.

        t is one node time or a NumPy array of them; the result has shape
        np.shape(t) + (m, 2), with lo in [..., 0] and hi in [..., 1].
        """


def admissible(bounds: np.ndarray, actions) -> np.ndarray:
    """Elementwise test that actions lie in their [lo, hi] bounds up to
    ACTION_ATOL; a NaN bound or action fails."""
    return (bounds[..., 0] - ACTION_ATOL <= actions) & (actions <= bounds[..., 1] + ACTION_ATOL)


def interval_samples(bounds: np.ndarray, samples: int) -> np.ndarray:
    """`samples` evenly spaced actions over each [lo, hi] of a (..., 2)
    bounds array, ascending with both ends included, shape (..., samples).

    np.linspace's arithmetic for one interval; np.linspace over arrays
    changes it for every interval once any interval has zero width.
    """
    lo, hi = bounds[..., 0, None], bounds[..., 1, None]
    actions = np.arange(samples) * ((hi - lo) / (samples - 1)) + lo
    actions[..., -1] = hi[..., 0]
    return actions


def clip_to_bounds(bounds: np.ndarray, actions) -> np.ndarray:
    """Actions clipped into their [lo, hi] bounds; a tie between signed
    zeros keeps the action's sign."""
    return np.minimum(bounds[..., 1], np.maximum(bounds[..., 0], actions))


class StrategyTable:
    """Grid-indexed action profile, piecewise constant on [t_k, t_{k+1}).

    actions has shape (steps, m): row k applies on the k-th grid cell.
    """

    __slots__ = ("actions", "grid")

    def __init__(self, actions, grid: TimeGrid):
        a = np.array(actions, dtype=float)
        if a.ndim != 2:
            raise ValueError("strategy actions must be a (steps, m) array")
        if a.shape[0] != grid.steps:
            raise DimensionMismatch(
                f"strategy has {a.shape[0]} rows but grid has {grid.steps} cells"
            )
        if not np.all(np.isfinite(a)):
            raise NumericalError("non-finite action in strategy table")
        a.setflags(write=False)
        self.actions = a
        self.grid = grid

    @property
    def m(self) -> int:
        return self.actions.shape[1]

    def with_cell(self, k: int, profile) -> "StrategyTable":
        """Copy with row k replaced by the given action profile."""
        a = self.actions.copy()
        a[k] = np.asarray(profile, dtype=float)
        return StrategyTable(a, self.grid)

    def check_admissible(self, model: GeneratorModel):
        ok = admissible(model.action_bounds(self.grid.nodes[:-1]), self.actions)
        if not ok.all():
            k, i = np.argwhere(~ok)[0]
            raise AdmissibilityError(
                f"action {self.actions[k, i]:.6g} at node {k}, state {i} "
                f"outside admissible interval"
            )


class FlowCurve:
    """Probability-vector-valued curve sampled at the grid nodes.

    values has shape (steps+1, m); each row satisfies the simplex invariants.
    """

    __slots__ = ("values", "grid")

    def __init__(self, values, grid: TimeGrid):
        v = np.array(values, dtype=float)
        if v.ndim != 2 or v.shape[0] != grid.steps + 1:
            raise DimensionMismatch(
                f"flow needs shape ({grid.steps + 1}, m), got {v.shape}"
            )
        v = _simplex_rows(v, lambda r: f" at node {r} of the flow")
        drift = np.abs(v.sum(axis=1) - 1.0)
        if drift.max() > MASS_ATOL:
            r = int(np.argmax(drift > MASS_ATOL))
            raise NumericalError(f"mass drift {drift[r]:.3e} at node {r} of the flow")
        v.setflags(write=False)
        self.values = v
        self.grid = grid

    @property
    def m(self) -> int:
        return self.values.shape[1]

    def at(self, k: int) -> np.ndarray:
        return self.values[k]

    def sup_distance(self, other: "FlowCurve") -> float:
        if self.values.shape != other.values.shape:
            raise DimensionMismatch("flow curves have different shapes")
        return float(np.abs(self.values - other.values).sum(axis=1).max())


def validate_generator(model: GeneratorModel, grid: TimeGrid, samples: int = 8) -> float:
    """Sampled kappa1: the largest l1-row-difference per unit action
    distance over `samples` actions spread over each admissible interval at
    every grid node, a lower bound on the true supremum.  An empty
    admissible set is a fatal model defect.

    One rate_matrix call per block of nodes covers every sample: profile s
    puts each state at its own s-th action.  A one-point interval adds
    nothing.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples per admissible interval")
    bounds = model.action_bounds(grid.nodes)
    empty = ~(np.isfinite(bounds).all(axis=-1) & (bounds[..., 0] <= bounds[..., 1]))
    if empty.any():
        k, i = np.argwhere(empty)[0]
        raise ModelDefect(f"empty admissible action set at node {k}, state {i}")
    kappa1 = 0.0
    # blocks of nodes keep the sampled rows, (nodes, m, samples, m), small
    for first in range(0, grid.steps + 1, VALIDATE_BLOCK):
        block = slice(first, first + VALIDATE_BLOCK)
        kappa1 = max(kappa1, _kappa1(model, grid.nodes[block], bounds[block], samples))
    return kappa1


def _kappa1(model: GeneratorModel, nodes: np.ndarray, bounds: np.ndarray,
            samples: int) -> float:
    """validate_generator's estimate over a block of nodes."""
    wide = bounds[..., 1] > bounds[..., 0]
    if not wide.any():
        return 0.0
    actions = interval_samples(bounds, samples)
    # rows[k, i, s] = row i of the generator at t_k for profile s of node k
    rows = np.swapaxes(model.rate_matrix(nodes[:, None], np.swapaxes(actions, 1, 2)), 1, 2)
    rows, actions, bounds = rows[wide], actions[wide], bounds[wide]
    steps = np.abs(np.diff(rows, axis=1)).sum(axis=-1) / np.abs(np.diff(actions, axis=1))
    ends = np.abs(rows[:, -1] - rows[:, 0]).sum(axis=-1) / (bounds[:, 1] - bounds[:, 0])
    return max(float(steps.max()), float(ends.max()))


def _poisson_tail_thresholds(theta: float, tail: float) -> np.ndarray:
    """Entry K: the largest x <= theta at which the Poisson(x) mass beyond K,
    P(N > K), is at most tail * x; the last entry is theta itself.

    The mass beyond K over x rises with x, so each entry comes from
    bisection.  Entry 0 is 0: only x = 0 needs no term past the first."""
    n = np.arange(80)  # P(N >= 80) is far below any tail at x <= 1
    log_factorial = np.concatenate([[0.0], np.cumsum(np.log(n[1:]))])

    def beyond(K, x):
        terms = np.exp(n * np.log(x[:, None]) - x[:, None] - log_factorial)
        return np.where(n > K[:, None], terms, 0.0).sum(axis=1) / x

    K = np.arange(40)
    last = int(np.argmax(beyond(K, np.full(K.size, theta)) <= tail))
    K = K[:last]
    lo, hi = np.zeros(last), np.full(last, theta)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        ok = beyond(K, mid) <= tail
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    return np.append(lo, theta)


# Uniformization steps take x = lambda * dt <= 1 (a larger one is halved and
# the sum squared), and stop after the term n = K, K the index of the first
# threshold >= x.  The Poisson mass beyond K is then at most 2^-53 x: each
# entry's truncation error stays below a rounding unit of the mass that
# leaves its row in the step, however small that mass is.
POISSON_TAIL_X = _poisson_tail_thresholds(1.0, 2.0 ** -53)


def grid_rate(model: GeneratorModel, grid: TimeGrid) -> float:
    """Uniformization rate of every cell of the grid: the largest finite
    -q_ii over both ends of every state's admissible interval at every cell
    node, from one action_bounds and one rate_matrix call, or 0 when none
    is positive.  A GeneratorModel's exit rates peak at an end of the
    interval (the built-in ones are affine in the action), so no admissible
    profile exceeds it; a cell that is not finite fails coverage at its own
    node (check_cells)."""
    nodes = grid.nodes[:-1]
    ends = np.swapaxes(model.action_bounds(nodes), -1, -2)  # (N, 2, m): lo, then hi
    exits = -np.diagonal(model.rate_matrix(nodes[:, None], ends), axis1=-2, axis2=-1)
    rate = float(np.max(exits, where=np.isfinite(exits), initial=0.0))
    return rate if rate > 0.0 else 0.0  # never -0.0


class SeriesPlan:
    """What _series needs of a rate lam at step dt: x = lam dt halved s
    times until x <= 1, the step h = dt / 2^s, the last term K
    (POISSON_TAIL_X), x I, exp(-x) and expm1(-x) I.  It depends on the rate
    alone, so a sweep builds it once.
    """

    def __init__(self, rate: float, dt: float, m: int):
        self.dt = dt
        x, self.s = float(rate) * dt, 0
        if not x <= 1.0:
            # x = mantissa * 2^e with mantissa in [0.5, 1): s is the least
            # s >= 0 with x / 2^s <= 1, and the halving is exact
            mantissa, e = math.frexp(x)
            self.s = max(e - (mantissa == 0.5), 0)
            x = math.ldexp(x, -self.s)
        self.h = math.ldexp(dt, -self.s)
        self.K = int(POISSON_TAIL_X.searchsorted(x))
        eye = _identity(m)[None]  # (1, m, m): it broadcasts over a stack
        self.xI = x * eye
        self.decay = float(np.exp(-x))
        self.decay_m1I = float(np.expm1(-x)) * eye


def stochastic_exponentials(generators: np.ndarray, dt: float, rate: float) -> np.ndarray:
    """exp(dt * Q) for every generator of a (count, m, m) stack, rows stochastic.

    Uniformization (Jensen 1953; Grassmann 1977): for lam >= max_i -q_ii the
    matrix T = I + Q / lam is stochastic and

        exp(dt * Q) = exp(-x) sum_n (x T)^n / n!,   x = lam * dt,

    a sum of nonnegative terms, exact for any such lam.  rate is the lam of
    the stack (grid_rate), halved s times (SeriesPlan); each slice equals a
    one-matrix call bit for bit.  The stack is then tested once
    (check_cells), whatever the caller's floating-point state, and a
    failure names the first failing matrix of the stack.
    """
    Q = np.asarray(generators, dtype=float)
    count, m, _ = Q.shape
    plan = SeriesPlan(rate, dt, m)
    with np.errstate(all="ignore"):  # a bad matrix fails check_cells by name
        A = Q * plan.h + plan.xI  # x T
        P = _series(A, plan)
        check_cells(A, P, slice(None),
                    lambda c, b: f" in matrix {c} of the stack" if count > 1 else "")
    return P


def _series(A: np.ndarray, plan: SeriesPlan, out: np.ndarray | None = None) -> np.ndarray:
    """exp(-x) sum over 0 <= n <= K of A^n / n!, squared s times, for a
    (..., m, m) stack A = x T at the plan's rate, written into out when
    given.  It tests nothing: a matrix the rate does not cover gives a
    meaningless result (check_cells)."""
    R = np.empty_like(A) if out is None else out
    R[...] = A
    term = A
    for n in range(2, plan.K + 1):
        term = term @ A
        term /= n
        R += term
    # exp(-x) (I + R) = I + D with D = exp(-x) R + expm1(-x) I, which is
    # O(x) and exact to O(x) rounding units: adding I rounds each entry once
    R *= plan.decay
    R += plan.decay_m1I
    R += _identity(A.shape[-1])
    for _ in range(plan.s):
        np.matmul(R, R, out=R)  # a ufunc: NumPy buffers the overlap
    return R


@lru_cache
def _identity(m: int) -> np.ndarray:
    return np.broadcast_to(np.eye(m), (m, m))  # a read-only view: every call shares it


def check_cells(A: np.ndarray, P: np.ndarray, order: slice, where, values=None) -> None:
    """Raise unless every cell of a block is sound: the rate covers its x T
    (A), so no entry is negative or non-finite; its transitions P are
    finite with row sums within MASS_ATOL of one; and its values, if given,
    are finite.  A covered series has no negative entry.

    Cell c is A[c], P[c] and values[c], for one flow or a stack of B.  The
    cells that the slice `order` selects are tested at once; only if that
    fails are they walked in its order, and the first failing cell raises
    for coverage, then transitions, then values, naming its first failing
    flow b as where(c, b).  An empty slice passes.
    """
    block, sums = A[order], P[order].sum(axis=-1)
    # the initial values let an empty block pass
    if (block.min(initial=0.0) >= 0.0 and block.max(initial=0.0) < np.inf
            and sums.max(initial=1.0) - 1.0 <= MASS_ATOL
            and 1.0 - sums.min(initial=1.0) <= MASS_ATOL
            and (values is None or np.isfinite(values[order]).all())):
        return
    m = P.shape[-1]
    for c in range(len(P))[order]:
        xT, cell = A[c].reshape(-1, m, m), P[c].reshape(-1, m, m)
        finite = np.isfinite(xT).all(axis=(1, 2))
        covered = finite & (xT.min(axis=(1, 2)) >= 0.0)
        if not covered.all():
            b = int(np.argmin(covered))
            raise NumericalError(("generator not covered by the uniformization rate"
                                  if finite[b] else "non-finite generator") + where(c, b))
        finite = np.isfinite(cell).all(axis=(1, 2))
        if not finite.all():
            raise NumericalError("non-finite transition matrix" + where(c, int(np.argmin(finite))))
        drift = np.abs(cell.sum(axis=2) - 1.0).max(axis=1)
        if drift.max() > MASS_ATOL:
            b = int(np.argmax(drift > MASS_ATOL))
            raise NumericalError(f"transition row-sum drift {drift[b]:.3e}" + where(c, b))
        if values is not None:
            finite = np.isfinite(values[c]).reshape(len(cell), -1).all(axis=1)
            if not finite.all():
                raise NumericalError("non-finite value" + where(c, int(np.argmin(finite))))


def transition_matrix(model: GeneratorModel, t: float, profile, dt: float,
                      rate: float) -> np.ndarray:
    """exp(dt * Q) for the generator frozen at (t, profile), uniformized at
    rate (grid_rate); rows stochastic.

    A (..., m) stack of profiles gives the (..., m, m) stack of transitions
    from one stacked exponential.
    """
    Q = model.rate_matrix(t, profile)
    return stochastic_exponentials(Q.reshape(-1, model.m, model.m), dt, rate).reshape(Q.shape)


def transition_stack(model: GeneratorModel, strategy: StrategyTable) -> np.ndarray:
    """All per-cell transition matrices, shape (steps, m, m).

    The strategy's admissibility is checked once, then every cell's
    exponential comes from one transition_matrix call at the grid's rate,
    the actions clipped into their bounds, since the rate need not cover
    check_admissible's ACTION_ATOL slack.  A row inside its bounds is not
    moved: cell k equals transition_matrix(model, t_k, strategy.actions[k],
    dt, grid_rate(model, grid)) bit for bit.
    """
    grid, nodes = strategy.grid, strategy.grid.nodes[:-1]
    strategy.check_admissible(model)
    actions = clip_to_bounds(model.action_bounds(nodes), strategy.actions)
    return transition_matrix(model, nodes, actions, grid.dt, grid_rate(model, grid))


def propagate_flow(model: GeneratorModel, rho0, strategy: StrategyTable, *,
                   transitions: np.ndarray | None = None) -> FlowCurve:
    """Forward propagation nu_{k+1} = nu_k exp(dt * Q_{t_k}^{pi_k}) on the
    strategy's grid.

    `transitions` may carry a precomputed stack from transition_stack to
    share the matrix exponentials across calls with the same strategy;
    without it the stack is built here.  The loop only multiplies;
    FlowCurve then tests the whole curve and names its first failing node.
    """
    grid = strategy.grid
    w = _as_weights(rho0)
    if w.size != model.m:
        raise DimensionMismatch("initial law dimension differs from model")
    if transitions is None:
        transitions = transition_stack(model, strategy)
    values = np.empty((grid.steps + 1, model.m))
    values[0] = w
    for k in range(grid.steps):
        np.matmul(values[k], transitions[k], out=values[k + 1])
    return FlowCurve(values, grid)
