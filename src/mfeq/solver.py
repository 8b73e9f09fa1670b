"""Outer fixed-point recursion coupling the forward flow and the backward
value solve, plus sampled estimation of the contraction constants and
sampled checks of the declared ones.

One solve alternates two steps until the flow is self-consistent: solve the
backward system against the current flow, then propagate the initial law
forward under the resulting policy.  Under the product condition
kappa1 * kappa2 * kappa3 * horizon < 1 the map is a contraction and the
iterates converge geometrically to the unique equilibrium; non-contractive
inputs are not rejected, the loop simply reports what it observed.  The
next flow is Anderson's mix of the latest iterates where that is safe
(Anderson, J. ACM 12(4), 1965; Walker & Ni, SIAM J. Numer. Anal. 49(4),
2011), which cuts the sweeps a solve takes.
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
    transition_stack,
    validate_generator,
)
from .errors import DimensionMismatch
from .hj import BackwardSweep, CostModel, solve_hj, table_distances

logger = logging.getLogger(__name__)

# Earlier iterates Anderson's mix fits the latest residual against.
MIXING_DEPTH = 3


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
    """What a Picard run observed: the gap of each sweep, the secant
    quotients of consecutive iterates and the count of mixed steps.

    ratios[j] is |G(x_{i+1}) - G(x_i)| / |x_{i+1} - x_i| in sup-TV for
    consecutive iterates x_i, x_{i+1} (the flows the sweeps ran against),
    G the map from a flow to its policy's flow; a pair whose iterates
    coincide gives none.  Under plain steps x_{i+1} = G(x_i), so each is the
    gap ratio gaps[i+1] / gaps[i] bit for bit; a sampled lower bound on the
    map's rate like kappa3, whether the steps were mixed or not.
    """

    gaps: list[float] = field(default_factory=list)
    ratios: list[float] = field(default_factory=list)
    mixed: int = 0
    iterations: int = 0
    converged: bool = False

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
    agrees: it converged, and its median secant ratio (NaN without one)
    does not exceed the product, which under the product condition bounds
    the Picard map's rate.  Otherwise "not-provably-contractive"."""
    evident = diagnostics.converged and not diagnostics.ratio > report.product
    return "contractive" if evident and report.product < 1.0 else "not-provably-contractive"


@dataclass
class Equilibrium:
    """Solver output: self-consistent flow, policy and value diagonal.

    flow is the exact forward propagation of the initial law rho, its first
    row, under policy on its grid, so the fixed-point residual of a
    converged result is the final reported gap.  transitions is policy's
    (steps, m, m) stack at the grid's rate, equal to transition_stack(gen,
    policy) bit for bit: the flow came through it, and verify and simulate
    read it.
    values is the last backward sweep: the diagonal values.values, the range
    values.low .. values.high of the whole table and the policy's
    transitions, the same array as transitions.  That sweep ran against the
    last iterate, the flow the sweep before it propagated or Anderson's mix
    of the latest ones, so its diagonal and flow agree only to the final
    gap, the sup-TV distance of that iterate from flow.  probe_gaps are the
    table distances of the probe pairs the first sweep carried, None
    without them.  An equilibrium read back from disk has neither values
    nor diagnostics.
    """

    flow: FlowCurve
    policy: StrategyTable
    transitions: np.ndarray
    values: BackwardSweep | None
    diagnostics: IterationDiagnostics | None
    probe_gaps: np.ndarray | None = None

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
                 initial_flow: FlowCurve | None = None, probe_pairs=()) -> Equilibrium:
    """Alternate backward solve and forward propagation to a fixed point,
    with safeguarded Anderson mixing over the flows.

    Each sweep runs against a flow x_n and its policy propagates rho to
    G(x_n); the gap is their sup-TV distance.  The next flow is G(x_n)
    (a plain step) or Anderson's mix of the last MIXING_DEPTH + 1 pairs
    (x, G(x)) (_mixed_flow), taken only where it has no negative entry.
    The history is dropped whenever the gap grows, and a cost whose argmin
    jumps (kappa2 infinite) is iterated plainly throughout, since mixing
    can then select another equilibrium.  The returned flow is always
    G(x_n) of the last sweep, the propagation of the returned policy, and
    the last gap its distance from x_n.  Each iteration logs its gap, its
    secant ratio and the step its flow came from: start, plain or mixed(k)
    with k earlier iterates.

    The starting flow is generated by the myopic strategy unless an override
    is supplied (under contraction the choice is immaterial; outside it the
    start may select among candidates, which the diagnostics make visible).
    A non-converged run returns a flagged result with the full gap history
    rather than raising.

    probe_pairs, flow pairs on grid such as ContractionProbes.pairs, ride
    along in the first backward sweep, and their table distances come back
    as the result's probe_gaps for estimate_constants to read: one pass
    instead of two, with the same bits.  Should that shared sweep raise,
    the first sweep runs again without the pairs, so that the loop raises
    its own error, or goes on and leaves probe_gaps None.
    """
    opts = opts or SolverOptions()
    w = rho.weights if isinstance(rho, ProbabilityVector) else ProbabilityVector(rho).weights
    if initial_flow is None:
        nu = propagate_flow(w, transition_stack(gen, myopic_strategy(gen, cost, grid)), grid)
    else:
        if initial_flow.grid != grid:
            raise DimensionMismatch("initial flow grid differs from solve grid")
        nu = initial_flow
    mixing = bool(np.isfinite(cost.kappa2(gen)))
    diag = IterationDiagnostics()
    probe_gaps, step = None, "start"
    history = []  # the latest pairs (x, G(x)), oldest first
    for n in range(1, opts.max_iterations + 1):
        if n > 1:
            mixed = _mixed_flow(w, history) if mixing else None
            diag.mixed += mixed is not None
            nu, step = (nu_next, "plain") if mixed is None else \
                (mixed, f"mixed({len(history) - 1})")
            values, policy = solve_hj(gen, cost, nu)
        else:
            values, policy = _first_sweep(gen, cost, nu, probe_pairs)
            probe_gaps = values.pair_gaps
        nu_next = propagate_flow(w, values.transitions, grid)
        gap = nu_next.sup_distance(nu)
        ratio = float("nan")
        if history:
            x, image = history[-1]
            distance = nu.sup_distance(x)
            if distance > 1e-300:
                ratio = nu_next.sup_distance(image) / distance
                diag.ratios.append(ratio)
            if gap > diag.gaps[-1]:
                history = []
        history = history[-MIXING_DEPTH:] + [(nu, nu_next)]
        diag.gaps.append(gap)
        diag.iterations = n
        logger.info("picard iteration=%d gap=%.6e ratio=%.4f step=%s", n, gap, ratio, step)
        if gap < opts.tolerance:
            diag.converged = True
            break
    if not diag.converged:
        logger.warning("no convergence after %d iterations (last gap %.3e)",
                       diag.iterations, diag.gaps[-1])
    return Equilibrium(flow=nu_next, policy=policy, transitions=values.transitions,
                       values=values, diagnostics=diag, probe_gaps=probe_gaps)


def _mixed_flow(w: np.ndarray, history) -> FlowCurve | None:
    """Anderson's next flow from the pairs (x_j, G(x_j)) of history, the
    last one current, or None where a plain step G(x_n) must do.

    With residuals r_j = G(x_j) - x_j, the coefficients g minimize
    |r_n - sum_j g_j (r_n - r_j)| in the Euclidean norm over every entry,
    from the normal equations of the k x k Gram matrix, and the mix is
    G(x_n) - sum_j g_j (G(x_n) - G(x_j)).  Its row 0 is pinned to w and
    every other row renormalized; nothing is projected, so a mix with a
    negative entry, a singular Gram matrix or a non-finite result gives
    None, and so does a history of one pair.
    """
    if len(history) < 2:
        return None
    images = np.array([image.values for _, image in history])
    residuals = images - np.array([x.values for x, _ in history])
    k, grid = len(history) - 1, history[-1][1].grid
    dR = (residuals[-1] - residuals[:-1]).reshape(k, -1)
    with np.errstate(all="ignore"):
        try:
            g = np.linalg.solve(np.vecdot(dR[:, None], dR[None]),
                                np.vecdot(dR, residuals[-1].ravel()))
        except np.linalg.LinAlgError:
            return None
        mixed = images[-1] - np.tensordot(g, images[-1] - images[:-1], axes=1)
        mixed /= mixed.sum(axis=1, keepdims=True)
    mixed[0] = w
    if not (np.isfinite(mixed).all() and mixed.min() >= 0.0):
        return None
    return FlowCurve(mixed, grid)


def _first_sweep(gen: GeneratorModel, cost: CostModel, nu: FlowCurve, pairs):
    """solve_hj against nu with the pairs riding along; if that sweep
    raises, whichever flow failed, nu's sweep alone, without pair gaps."""
    if pairs:
        try:
            return solve_hj(gen, cost, nu, pairs)
        except Exception:  # nu alone raises its own error, or a pair failed
            pass
    return solve_hj(gen, cost, nu)


def _random_flow(rng: np.random.Generator, grid: TimeGrid, m: int) -> FlowCurve:
    """Smooth random curve on the simplex (for stability sampling)."""
    anchors = rng.dirichlet(np.ones(m), size=2)
    s = np.linspace(0.0, 1.0, grid.steps + 1)[:, None]
    return FlowCurve((1.0 - s) * anchors[0] + s * anchors[1], grid)


def value_bound(gen: GeneratorModel, cost: CostModel, grid: TimeGrid) -> float:
    """The declared uniform bound (K1 + K2) T + K2 on every value."""
    return (gen.K1 + cost.K2) * grid.horizon + cost.K2


@dataclass(frozen=True)
class ContractionProbes:
    """The random draws of estimate_constants, in the order it makes them:
    kappa2's sign patterns and its sampled (t, h) points, then kappa3's
    flow pairs with the sup distance of each.  Drawn before any sweep, the
    pairs can ride along in picard_solve's first one (probe_pairs)."""

    patterns: np.ndarray
    points: list[tuple[float, np.ndarray]]
    pairs: list[tuple[FlowCurve, FlowCurve]]
    distances: list[float]


def draw_probes(gen: GeneratorModel, cost: CostModel, grid: TimeGrid,
                samples: int = 6, seed: int = 0) -> ContractionProbes:
    """estimate_constants' probes for these samples and seed."""
    rng = np.random.default_rng(seed)
    scale = value_bound(gen, cost, grid)
    # the sup-norm difference quotient is attained on sign-aligned
    # perturbations, so probe sign patterns rather than random directions
    if gen.m <= 6:
        patterns = np.array([[1 if (p >> j) & 1 else -1 for j in range(gen.m)]
                             for p in range(2 ** gen.m)], dtype=float)
    else:
        patterns = rng.choice([-1.0, 1.0], size=(64, gen.m))
    points = [(float(rng.choice(grid.nodes)), rng.uniform(0.0, max(scale, 1.0), gen.m))
              for _ in range(max(2, samples))]

    pairs, distances = [], []
    for _ in range(max(2, samples)):
        nu = _random_flow(rng, grid, gen.m)
        size = rng.choice([1e-3, 1e-2, 1e-1])
        bump = rng.dirichlet(np.ones(gen.m))
        tilted = (1.0 - size) * nu.values + size * bump
        nu2 = FlowCurve(tilted, grid)
        dist = nu.sup_distance(nu2)
        if dist > 0:
            pairs.append((nu, nu2))
            distances.append(dist)
    return ContractionProbes(patterns, points, pairs, distances)


def estimate_constants(gen: GeneratorModel, cost: CostModel, grid: TimeGrid,
                       probes: ContractionProbes,
                       gaps: np.ndarray | None = None) -> ContractionReport:
    """Monte Carlo maximization of the three difference quotients.

    kappa1 from generator sampling, kappa2 from argmin profiles at perturbed
    continuation values, kappa3 from paired backward sweeps at perturbed flows.
    Each is a sampled lower bound on the true constant.  kappa1 takes
    max(8, len(probes.points)) samples per interval, and kappa2 one argmin
    call per sampled (t, h), covering every probe.

    probes are draw_probes' draws, which fix the sample count and seed.
    gaps, when given, are the table distances of probes.pairs from a sweep
    already run, picard_solve's probe_gaps; without them one lockstep sweep
    of all the pairs (table_distances) computes them here.  Either way
    kappa3 is the same bits.
    """
    kappa1 = validate_generator(gen, grid, samples=max(8, len(probes.points)))

    kappa2 = 0.0
    eps = np.array([1e-3, 1e-1])[:, None]
    shifts = eps[:, :, None] * probes.patterns  # every pattern at each eps
    for t, h in probes.points:
        # row 0 is h itself, then h plus each shift
        rows = np.concatenate([h[None], (h + shifts).reshape(-1, gen.m)])
        p = cost.argmin_profile(gen, t, rows)
        moves = np.abs(p[0] - p[1:]).max(axis=1).reshape(eps.size, -1)
        kappa2 = max(kappa2, float((moves / eps).max()))

    kappa3 = 0.0
    if probes.pairs:
        if gaps is None:
            gaps = table_distances(gen, cost, probes.pairs)
        kappa3 = float((gaps / probes.distances).max())

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
