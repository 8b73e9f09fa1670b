"""Finite-state continuous-time chain primitives.

Simplex arithmetic, controlled generators, exponential one-step transitions
and forward flow propagation.  Time stepping freezes the generator on each
grid cell and applies its matrix exponential, which preserves the simplex
for any step size (an explicit Euler step would need dt < 1/K1).  The
exponentials come from uniformization, a sum of nonnegative terms, over a
whole stack of generators at once (stochastic_exponentials).

All operations are pure functions of their inputs; the data types are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import AdmissibilityError, DimensionMismatch, ModelDefect, NumericalError

# Negative entries no larger than this are treated as roundoff and clipped.
SIMPLEX_ATOL = 1e-12
# Allowed drift of probability mass / stochastic row sums.
MASS_ATOL = 1e-10
# Tolerance for generator row sums and off-diagonal signs.
GENERATOR_ATOL = 1e-10
# Slack of the admissibility check around each action interval.
ACTION_ATOL = 1e-9
# Grid nodes validate_generator samples at once.
VALIDATE_BLOCK = 64


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_N = horizon with dt = horizon/steps."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not np.isfinite(self.horizon) or self.horizon <= 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)


class ProbabilityVector:
    """Point of the probability simplex over states {0, ..., m-1}.

    Construction clips negative entries in [-1e-12, 0) to zero and
    renormalizes; larger negatives are rejected so genuine solver failures
    are distinguished from roundoff.
    """

    __slots__ = ("weights",)

    def __init__(self, weights):
        w = np.array(weights, dtype=float).reshape(-1)
        if w.size == 0:
            raise ValueError("empty probability vector")
        if not np.all(np.isfinite(w)):
            raise NumericalError("non-finite entries in probability vector")
        lo = w.min()
        if lo < -SIMPLEX_ATOL:
            raise NumericalError(f"negative mass {lo:.3e} exceeds roundoff tolerance")
        if lo < 0.0:
            w = np.clip(w, 0.0, None)
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


class GeneratorModel(ABC):
    """Controlled rate family q_t^v(i, .) with per-state admissible intervals.

    Subclasses declare m (state count) and K1 (rate magnitude cap).
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
        if not np.all(np.isfinite(v)):
            raise NumericalError("non-finite entries in flow curve")
        lo = v.min()
        if lo < -SIMPLEX_ATOL:
            raise NumericalError(f"negative mass {lo:.3e} in flow curve")
        if lo < 0.0:
            v = np.clip(v, 0.0, None)
        drift = np.abs(v.sum(axis=1) - 1.0).max()
        if drift > MASS_ATOL:
            raise NumericalError(f"flow mass drift {drift:.3e} exceeds tolerance")
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


@dataclass
class GeneratorReport:
    """Outcome of sampling a generator model over the grid."""

    ok: bool
    kappa1_hat: float
    K1_hat: float
    row_sum_violations: list = field(default_factory=list)
    sign_violations: list = field(default_factory=list)
    samples_per_point: int = 0


def validate_generator(model: GeneratorModel, grid: TimeGrid, samples: int = 8) -> GeneratorReport:
    """Sample actions on every grid node and check generator structure.

    Checks row sums and off-diagonal signs at `samples` actions spread over
    each admissible interval, and estimates kappa1 as the largest sampled
    l1-row-difference per unit action distance and K1 as the largest sampled
    rate magnitude.  Both are lower bounds on the true suprema.  An empty
    admissible set is a fatal model defect.

    One rate_matrix call per node covers every sample: profile s puts each
    state at its own s-th action.  A one-point interval counts its single
    action once.  Violations are listed node by node, then state, then action.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples per admissible interval")
    bounds = model.action_bounds(grid.nodes)
    empty = ~(np.isfinite(bounds).all(axis=-1) & (bounds[..., 0] <= bounds[..., 1]))
    if empty.any():
        k, i = np.argwhere(empty)[0]
        raise ModelDefect(f"empty admissible action set at node {k}, state {i}")
    report = GeneratorReport(ok=True, kappa1_hat=0.0, K1_hat=0.0,
                             samples_per_point=samples)
    # blocks of nodes keep the sampled rows, (nodes, m, samples, m), small
    for first in range(0, grid.steps + 1, VALIDATE_BLOCK):
        block = slice(first, first + VALIDATE_BLOCK)
        _check_rows(model, grid.nodes[block], bounds[block], first, samples, report)
    report.ok = not (report.row_sum_violations or report.sign_violations)
    return report


def _check_rows(model: GeneratorModel, nodes: np.ndarray, bounds: np.ndarray, first: int,
                samples: int, report: GeneratorReport) -> None:
    """validate_generator's checks on a block of nodes, the first of which is
    grid node `first`, added to the report."""
    lo, hi = bounds[..., 0, None], bounds[..., 1, None]
    actions = interval_samples(bounds, samples)
    # rows[k, i, s] = row i of the generator at t_k for profile s of node k
    rows = np.swapaxes(model.rate_matrix(nodes[:, None], np.swapaxes(actions, 1, 2)), 1, 2)
    counted = (hi > lo) | (np.arange(samples) == 0)

    def findings(values, bad):
        return [(first + int(k), int(i), float(actions[k, i, s]), float(values[k, i, s]))
                for k, i, s in np.argwhere(bad & counted)]

    sums = rows.sum(axis=-1)
    worst = np.where(np.eye(model.m, dtype=bool)[:, None, :], 0.0, rows).min(axis=-1)
    report.K1_hat = max(report.K1_hat, float(np.abs(rows).max()))
    report.row_sum_violations += findings(sums, np.abs(sums) > GENERATOR_ATOL)
    report.sign_violations += findings(worst, worst < -GENERATOR_ATOL)
    wide = (hi > lo)[..., 0]
    if wide.any():
        rows, actions, span = rows[wide], actions[wide], (hi - lo)[wide]
        steps = np.abs(np.diff(rows, axis=1)).sum(axis=-1) / np.abs(np.diff(actions, axis=1))
        ends = np.abs(rows[:, -1] - rows[:, 0]).sum(axis=-1) / span[:, 0]
        report.kappa1_hat = max(report.kappa1_hat, float(steps.max()), float(ends.max()))


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


def stochastic_exponentials(generators: np.ndarray, dt: float) -> np.ndarray:
    """exp(dt * Q) for every generator of a (count, m, m) stack, rows stochastic.

    uniformize, then check_stochastic; failures name the matrix of the stack.
    """
    where = lambda c: f" in matrix {c} of the stack" if len(generators) > 1 else ""  # noqa: E731
    P = uniformize(generators, dt, where)
    check_stochastic(P, where)
    return P


def uniformize(generators: np.ndarray, dt: float, where) -> np.ndarray:
    """exp(dt * Q) for every generator of a (count, m, m) stack, its
    finiteness and row sums not yet checked (check_stochastic).

    Uniformization (Jensen 1953; Grassmann 1977): for lam >= max_i -q_ii the
    matrix T = I + Q / lam is stochastic and

        exp(dt * Q) = exp(-x) sum_n (x T)^n / n!,   x = lam * dt,

    a sum of nonnegative terms.  Matrix c takes lam_c as its largest entry
    magnitude, which is max_i -q_ii on a generator.  It halves x_c s_c times
    until x_c <= 1, sums its terms up to K_c (POISSON_TAIL_X), and squares
    the result s_c times.  A matrix past its own K_c or s_c is left alone,
    so each slice equals a one-matrix call bit for bit.

    A non-finite generator is rejected before any squaring.  Negative
    entries down to -MASS_ATOL are roundoff and clipped to zero; a lower
    one is rejected.  where(c) names matrix c of the stack in a failure.
    """
    Q = np.asarray(generators, dtype=float)
    count, m, _ = Q.shape
    x = np.abs(Q).max(axis=(1, 2)) * dt
    h, s, smax = dt, None, 0
    if not x.max() <= 1.0:
        if not np.isfinite(x).all():
            raise NumericalError("non-finite generator" + where(np.argmin(np.isfinite(x))))
        # x = mantissa * 2^e with mantissa in [0.5, 1): s is the least s >= 0
        # with x / 2^s <= 1, and the halving is exact
        mantissa, e = np.frexp(x)
        s = np.maximum(e - (mantissa == 0.5), 0)
        smax = int(s.max())
        x = np.ldexp(x, -s)
        h = np.ldexp(dt, -s)[:, None, None]
    eye = _identity(m)
    A = Q * h + x[:, None, None] * eye  # x T, nonnegative on a generator
    K = POISSON_TAIL_X.searchsorted(x)
    kmin, kmax = min(Ks := K.tolist()), max(Ks)

    # R = sum over 1 <= n <= K of (x T)^n / n!; past n = kmin, a matrix
    # leaves the live stack (term and B = A[live]) once n passes its own K
    term, R = A, A.copy()
    for n in range(2, kmin + 1):
        term = term @ A
        term /= n
        R += term
    if kmax > kmin:
        live, B = np.arange(count), A
        for n in range(max(kmin, 1) + 1, kmax + 1):
            keep = K[live] >= n
            live, term, B = live[keep], term[keep], B[keep]
            term = term @ B
            term /= n
            R[live] += term
    # exp(-x) (I + R) = I + D with D = exp(-x) R + expm1(-x) I, which is
    # O(x) and exact to O(x) rounding units: adding I rounds each entry once
    minus_x = -x[:, None, None]
    P = R * np.exp(minus_x)
    P += np.expm1(minus_x) * eye
    P += eye
    for j in range(1, smax + 1):
        live = s >= j
        P[live] = P[live] @ P[live]

    lo = P.min()
    if lo < 0.0:
        if not lo >= -MASS_ATOL:
            _diagnose(P, where)
        P[P < 0.0] = 0.0
    return P


def check_stochastic(P: np.ndarray, where) -> None:
    """Raise unless every matrix of a (..., m, m) stack is finite with row sums
    within MASS_ATOL of one, where(c) naming matrix c of the flattened stack."""
    sums = P.sum(axis=-1)
    if not (sums.max() - 1.0 <= MASS_ATOL and 1.0 - sums.min() <= MASS_ATOL):
        _diagnose(P.reshape((-1,) + P.shape[-2:]), where)


@lru_cache
def _identity(m: int) -> np.ndarray:
    return np.broadcast_to(np.eye(m), (m, m))  # a read-only view: every call shares it


def _diagnose(P: np.ndarray, where) -> None:
    """Raise the first failing check of a (count, m, m) stack of transitions."""
    finite = np.isfinite(P).all(axis=(1, 2))
    if not finite.all():
        raise NumericalError("non-finite transition matrix" + where(np.argmin(finite)))
    lo = P.min(axis=(1, 2))
    c = np.argmin(lo)
    if lo[c] < -MASS_ATOL:
        raise NumericalError(f"transition entry {lo[c]:.3e} below tolerance" + where(c))
    drift = np.abs(P.sum(axis=2) - 1.0).max(axis=1)
    c = np.argmax(drift)
    raise NumericalError(f"transition row-sum drift {drift[c]:.3e}" + where(c))


def transition_matrix(model: GeneratorModel, t: float, profile, dt: float) -> np.ndarray:
    """exp(dt * Q) for the generator frozen at (t, profile); rows stochastic.

    A (..., m) stack of profiles gives the (..., m, m) stack of transitions
    from one stacked exponential.
    """
    Q = model.rate_matrix(t, profile)
    return stochastic_exponentials(Q.reshape(-1, model.m, model.m), dt).reshape(Q.shape)


def transition_stack(model: GeneratorModel, strategy: StrategyTable) -> np.ndarray:
    """All per-cell transition matrices, shape (steps, m, m).

    The strategy's admissibility is checked once, then every cell's
    exponential comes from one stacked call; cell k equals
    transition_matrix(model, t_k, strategy.actions[k], dt) bit for bit.
    """
    grid = strategy.grid
    strategy.check_admissible(model)
    return stochastic_exponentials(model.rate_matrix(grid.nodes[:-1], strategy.actions),
                                   grid.dt)


def propagate_flow(model: GeneratorModel, rho0, strategy: StrategyTable,
                   grid: TimeGrid | None = None,
                   transitions: np.ndarray | None = None) -> FlowCurve:
    """Forward propagation nu_{k+1} = nu_k exp(dt * Q_{t_k}^{pi_k}).

    `transitions` may carry a precomputed stack from transition_stack to
    share the matrix exponentials across calls with the same strategy;
    without it the stack is built here.  The loop only multiplies; the
    finite and negative-mass checks run once over the whole curve, and a
    failure names the first step at which either check fails.
    """
    grid = grid or strategy.grid
    if grid != strategy.grid:
        raise DimensionMismatch("strategy grid differs from requested grid")
    w = _as_weights(rho0)
    if w.size != model.m:
        raise DimensionMismatch("initial law dimension differs from model")
    if transitions is None:
        transitions = transition_stack(model, strategy)
    values = np.empty((grid.steps + 1, model.m))
    values[0] = w
    for k in range(grid.steps):
        np.matmul(values[k], transitions[k], out=values[k + 1])
    steps = values[1:]
    if not (np.isfinite(steps).all() and steps.min() >= -SIMPLEX_ATOL):
        finite = np.isfinite(steps).all(axis=1)
        lows = steps.min(axis=1)
        k = int(np.argmax(~finite | (lows < -SIMPLEX_ATOL)))
        if not finite[k]:
            raise NumericalError(f"non-finite mass after step {k}")
        raise NumericalError(f"negative mass {lows[k]:.3e} after step {k}")
    return FlowCurve(values, grid)
