"""Outer fixed-point recursion coupling the forward flow and the backward
value solve, plus sampled estimation of the contraction constants.

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
    propagate_flow,
    validate_generator,
)
from .errors import DimensionMismatch
from .hj import BackwardSweep, CostModel, backward_columns, solve_hj, value_bound

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
        r = self.ratios
        return float(np.median(r)) if r else float("nan")


@dataclass
class ContractionReport:
    """Sampled Lipschitz estimates and the product condition verdict.

    All three estimates are Monte Carlo maxima of difference quotients and
    therefore lower bounds on the true suprema; "contractive" means the
    sampled product stayed below one, not a proof.
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

    @property
    def verdict(self) -> str:
        return "contractive" if self.product < 1.0 else "not-provably-contractive"


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
    kappa1 = validate_generator(gen, grid, samples=max(8, samples)).kappa1_hat

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
    logger.info("contraction estimates: kappa1=%.4g kappa2=%.4g kappa3=%.4g "
                "product=%.4g -> %s", kappa1, kappa2, kappa3, report.product,
                report.verdict)
    return report
