"""Outer fixed-point recursion coupling the forward flow and the backward
value solve, plus sampled estimation of the contraction constants and
sampled checks of the declared ones.

One solve alternates two steps until the flow is self-consistent: solve the
backward system against the current flow, then propagate the initial law
forward under the resulting policy.  Under the product condition
kappa1 * kappa2 * kappa3 * horizon < 1 the map is a contraction and the
iterates converge geometrically to the unique equilibrium; non-contractive
inputs are not rejected, the loop simply reports what it observed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .chain import (
    FlowCurve,
    GeneratorModel,
    ProbabilityVector,
    StrategyTable,
    TimeGrid,
    admissible,
    interval_samples,
    propagate_flow,
    validate_generator,
)
from .errors import DimensionMismatch
from .hj import BackwardSweep, CostModel, backward_columns, solve_hj

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SolverOptions:
    """Knobs of the fixed-point loop.

    tolerance: stop when the sup-over-nodes total variation gap between
    consecutive flows falls below it.
    """

    tolerance: float = 1e-8
    max_iterations: int = 200

    def __post_init__(self):
        if not (np.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise ValueError(f"tolerance must be finite and positive, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class IterationDiagnostics:
    gaps: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False

    @property
    def ratios(self) -> list[float]:
        out = []
        for a, b in zip(self.gaps, self.gaps[1:]):
            if a > 1e-300:
                out.append(b / a)
        return out

    @property
    def ratio(self) -> float:
        """Median of the ratios, NaN without one; on an even count the mean
        of the middle two, as np.median takes it."""
        r = sorted(self.ratios)
        if not r:
            return float("nan")
        mid = len(r) // 2
        return float(r[mid] if len(r) % 2 else (r[mid - 1] + r[mid]) / 2)


@dataclass
class ContractionReport:
    """Sampled Lipschitz estimates and their product; contraction_verdict
    reads the product beside a run's diagnostics.

    All three estimates are Monte Carlo maxima of difference quotients and
    therefore lower bounds on the true suprema; "contractive" means neither
    the sampled product nor the run violated the condition, not a proof.
    """

    kappa1: float
    kappa2: float
    kappa3: float
    horizon: float
    note: str = ("estimates are sampled lower bounds on the true suprema; "
                 "the verdict means 'not observed to violate'")

    @property
    def product(self) -> float:
        return self.kappa1 * self.kappa2 * self.kappa3 * self.horizon


def contraction_verdict(report: ContractionReport, diagnostics: IterationDiagnostics) -> str:
    """"contractive" when the sampled product is below one and the run
    agrees: it converged, and its median gap ratio (NaN with fewer than two
    gaps) does not exceed the product, which under the product condition
    bounds the Picard map's rate.  Otherwise "not-provably-contractive"."""
    evident = diagnostics.converged and not diagnostics.ratio > report.product
    return "contractive" if evident and report.product < 1.0 else "not-provably-contractive"


@dataclass
class Equilibrium:
    """Solver output: self-consistent flow, policy and value diagonal.

    flow is the exact forward propagation of the initial law rho, its first
    row, under policy on its grid, so the fixed-point residual of a
    converged result is the final reported gap.
    values is the last backward sweep: the diagonal values.values, the range
    values.low .. values.high of the whole table and the policy's
    transitions.  That sweep ran against the previous iterate's flow, so its
    diagonal and flow agree only to the final gap.  An equilibrium read back
    from disk has neither values nor diagnostics.
    """

    flow: FlowCurve
    policy: StrategyTable
    values: BackwardSweep | None
    diagnostics: IterationDiagnostics | None

    @property
    def rho(self) -> np.ndarray:
        return self.flow.values[0]

    @property
    def grid(self) -> TimeGrid:
        return self.flow.grid

    @property
    def converged(self) -> bool:
        return self.diagnostics.converged


def myopic_strategy(gen: GeneratorModel, cost: CostModel, grid: TimeGrid) -> StrategyTable:
    """Argmin of the control cost alone (zero continuation value)."""
    zeros = np.zeros(gen.m)
    actions = np.array([cost.argmin_profile(gen, t, zeros) for t in grid.nodes[:-1]])
    return StrategyTable(actions, grid)


def picard_solve(gen: GeneratorModel, cost: CostModel, rho, grid: TimeGrid,
                 opts: SolverOptions | None = None,
                 initial_flow: FlowCurve | None = None) -> Equilibrium:
    """Alternate backward solve and forward propagation to a fixed point.

    The starting flow is generated by the myopic strategy unless an override
    is supplied (under contraction the choice is immaterial; outside it the
    start may select among candidates, which the diagnostics make visible).
    A non-converged run returns a flagged result with the full gap history
    rather than raising.
    """
    opts = opts or SolverOptions()
    w = rho.weights if isinstance(rho, ProbabilityVector) else ProbabilityVector(rho).weights
    if initial_flow is None:
        nu = propagate_flow(gen, w, myopic_strategy(gen, cost, grid))
    else:
        if initial_flow.grid != grid:
            raise DimensionMismatch("initial flow grid differs from solve grid")
        nu = initial_flow
    diag = IterationDiagnostics()
    values = policy = None
    for n in range(1, opts.max_iterations + 1):
        values, policy = solve_hj(gen, cost, nu)
        nu_next = propagate_flow(gen, w, policy, transitions=values.transitions)
        gap = nu_next.sup_distance(nu)
        diag.gaps.append(gap)
        diag.iterations = n
        ratio = diag.gaps[-1] / diag.gaps[-2] if n > 1 and diag.gaps[-2] > 0 else float("nan")
        logger.info("picard iteration=%d gap=%.6e ratio=%.4f", n, gap, ratio)
        nu = nu_next
        if gap < opts.tolerance:
            diag.converged = True
            break
    if not diag.converged:
        logger.warning("no convergence after %d iterations (last gap %.3e)",
                       diag.iterations, diag.gaps[-1])
    return Equilibrium(flow=nu, policy=policy, values=values, diagnostics=diag)


def _random_flow(rng: np.random.Generator, grid: TimeGrid, m: int) -> FlowCurve:
    """Smooth random curve on the simplex (for stability sampling)."""
    anchors = rng.dirichlet(np.ones(m), size=2)
    s = np.linspace(0.0, 1.0, grid.steps + 1)[:, None]
    return FlowCurve((1.0 - s) * anchors[0] + s * anchors[1], grid)


def table_distances(gen: GeneratorModel, cost: CostModel, pairs) -> np.ndarray:
    """Sup over the whole value table of |Theta(nu) - Theta(nu2)|, one per
    pair (nu, nu2).

    All the pairs' flows, on one grid, run through one lockstep backward
    sweep.  Each column difference is read at the evaluation basis's extreme
    rows, which hold its sup over every evaluation row, so no table is ever
    stored: each block of cells records each pair's sup over those rows,
    and the records are reduced once after the sweep.
    """
    flows = [nu for pair in pairs for nu in pair]
    worst = np.empty((flows[0].grid.steps + 1, len(pairs)))
    for first, C, *_, ends in backward_columns(gen, cost, flows):
        gaps = ends[:, 0::2] - ends[:, 1::2]
        np.abs(gaps, out=gaps).max(axis=(2, 3), out=worst[first:first + len(C)])
    return worst.max(axis=0, initial=0.0)


def value_bound(gen: GeneratorModel, cost: CostModel, grid: TimeGrid) -> float:
    """The declared uniform bound (K1 + K2) T + K2 on every value."""
    return (gen.K1 + cost.K2) * grid.horizon + cost.K2


def estimate_constants(gen: GeneratorModel, cost: CostModel, grid: TimeGrid,
                       samples: int = 6, seed: int = 0) -> ContractionReport:
    """Monte Carlo maximization of the three difference quotients.

    kappa1 from generator sampling, kappa2 from argmin profiles at perturbed
    continuation values, kappa3 from paired backward sweeps at perturbed flows.
    Each is a sampled lower bound on the true constant.  kappa2 takes one
    argmin call per sampled (t, h), covering every probe; kappa3 draws all
    its pairs first and sweeps them together.
    """
    rng = np.random.default_rng(seed)
    kappa1 = validate_generator(gen, grid, samples=max(8, samples))

    scale = value_bound(gen, cost, grid)
    kappa2 = 0.0
    # the sup-norm difference quotient is attained on sign-aligned
    # perturbations, so probe sign patterns rather than random directions
    if gen.m <= 6:
        patterns = np.array([[1 if (p >> j) & 1 else -1 for j in range(gen.m)]
                             for p in range(2 ** gen.m)], dtype=float)
    else:
        patterns = rng.choice([-1.0, 1.0], size=(64, gen.m))
    eps = np.array([1e-3, 1e-1])[:, None]
    for _ in range(max(2, samples)):
        t = float(rng.choice(grid.nodes))
        h = rng.uniform(0.0, max(scale, 1.0), gen.m)
        # row 0 is h itself, then every pattern at each eps
        probes = np.concatenate([h[None], (h + eps[:, :, None] * patterns).reshape(-1, gen.m)])
        p = cost.argmin_profile(gen, t, probes)
        moves = np.abs(p[0] - p[1:]).max(axis=1).reshape(eps.size, -1)
        kappa2 = max(kappa2, float((moves / eps).max()))

    pairs, dists = [], []
    for _ in range(max(2, samples)):
        nu = _random_flow(rng, grid, gen.m)
        size = rng.choice([1e-3, 1e-2, 1e-1])
        bump = rng.dirichlet(np.ones(gen.m))
        tilted = (1.0 - size) * nu.values + size * bump
        nu2 = FlowCurve(tilted, grid)
        dist = nu.sup_distance(nu2)
        if dist > 0:
            pairs.append((nu, nu2))
            dists.append(dist)
    kappa3 = float((table_distances(gen, cost, pairs) / dists).max()) if pairs else 0.0

    report = ContractionReport(kappa1=kappa1, kappa2=kappa2, kappa3=kappa3,
                               horizon=grid.horizon)
    logger.info("contraction estimates: kappa1=%.4g kappa2=%.4g kappa3=%.4g product=%.4g",
                kappa1, kappa2, kappa3, report.product)
    return report


def validate_cost(gen: GeneratorModel, cost: CostModel, grid: TimeGrid,
                  samples: int = 24, seed: int = 0) -> list[str]:
    """Sampled checks of the declared cost bounds and the argmin oracle.

    Returns a list of human-readable violations (empty when all sampled
    checks pass), sample by sample: cost caps 0 <= f_dist, g <= K2 and
    control cost <= K1, flow-Lipschitz |df| + |dg| <= K3 d(rho, rho'), and
    the argmin profile being admissible and achieving the minimum of a
    65-point scan of each interval to 1e-8.  The samples are drawn in the
    order of a loop over them, one argmin call each; every cost and check
    is one array operation over all of them.
    """
    rng, nodes, ones = np.random.default_rng(seed), grid.nodes, np.ones(cost.m)
    # per sample: the nodes of tau and t, the laws rho and rho', and the
    # uniforms of the control-cost actions and of h
    draws = [(rng.integers(0, grid.steps + 1), rng.integers(0, grid.steps + 1),
              rng.dirichlet(ones, size=2), rng.random((2, cost.m))) for _ in range(samples)]
    a, k, laws, uniforms = map(np.array, zip(*draws))
    tau, t, bounds = nodes[a], nodes[k], gen.action_bounds(nodes[k])
    # rng.uniform(lo, hi) draws lo + (hi - lo) * rng.random(), entry by entry
    actions = bounds[..., 0] + (bounds[..., 1] - bounds[..., 0]) * uniforms[:, 0]
    h = value_bound(gen, cost, grid) * uniforms[:, 1]
    profile = np.array([cost.argmin_profile(gen, t[s], h[s]) for s in range(samples)])

    def objective(ts, profiles, hs):
        # entry i of each profile: state i's control cost plus q_t^v(i, .) . h
        return cost.control_profile_cost(ts, profiles) \
            + np.vecdot(gen.rate_matrix(ts, profiles), hs)

    f = np.asarray(cost.tau_weight(tau), dtype=float)[:, None, None] \
        * cost.running_base(t[:, None, None], laws)
    g = cost.terminal(laws)
    fmax, gmax = f[:, 0].max(axis=1), g[:, 0].max(axis=1)
    negative = (f[:, 0].min(axis=1) < -1e-12) | (g[:, 0].min(axis=1) < -1e-12)
    capped = (fmax > cost.K2 + 1e-9) | (gmax > cost.K2 + 1e-9)
    moved = np.abs(f[:, 0] - f[:, 1]) + np.abs(g[:, 0] - g[:, 1])
    distance = np.abs(laws[:, 0] - laws[:, 1]).sum(axis=1)
    lipschitz = moved.max(axis=1) > cost.K3 * distance + 1e-9
    psi = cost.control_profile_cost(t, actions)
    over = psi > gen.K1 + 1e-9
    ok = admissible(bounds, profile)
    achieved = objective(t, profile, h[:, None])
    # profile j of the scan puts every state at its own j-th of 65 points
    scan = np.swapaxes(interval_samples(bounds, 65), 1, 2)
    best = objective(t[:, None], scan, h[:, None, None]).min(axis=1)
    missed = ok & (achieved > best + 1e-8)

    problems: list[str] = []
    for s in range(samples):
        where = f"(tau={tau[s]:.3g}, t={t[s]:.3g})"
        if negative[s]:
            problems.append(f"negative cost at {where}")
        if capped[s]:
            problems.append(f"cost exceeds K2={cost.K2:.6g} at {where}: "
                            f"max f={fmax[s]:.6g}, max g={gmax[s]:.6g}")
        if lipschitz[s]:
            problems.append(f"flow-Lipschitz bound K3={cost.K3:.6g} violated")
        problems += [f"control cost {p:.6g} exceeds K1={gen.K1:.6g}" for p in psi[s, over[s]]]
        for i in np.flatnonzero(~ok[s] | missed[s]):
            miss = achieved[s, i] - best[s, i]
            problems.append(f"argmin misses sampled minimum by {miss:.3e} at state {i}"
                            if ok[s, i] else f"argmin profile inadmissible at state {i}")
    return problems
