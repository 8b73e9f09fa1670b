"""Verifier: spike gaps, sweeps, dynamic-programming oracle, bound checks."""

from dataclasses import dataclass

import numpy as np
import pytest

from mfeq import (
    AffineQuadraticModel,
    ProbabilityVector,
    SeparableCost,
    TabulatedGenerator,
    TimeGrid,
    picard_solve,
    solve_hj,
    verify_local_optimality,
)
from mfeq.chain import transition_stack, validate_generator
from mfeq.errors import AdmissibilityError, NumericalError
from mfeq.hj import CostModel
from mfeq.solver import value_bound
from mfeq.verify import WORST_TIE_RTOL, SpikeReport, _spikes, _tail_values

import oracles
from oracles import (constant_flow, dp_oracle, equilibrium_of, spike_gap, strategy_flow,
                     tv_distance)
from instances import (random_affine_generator, random_flow, random_strategy, shipped_instances,
                       tau_weighted_instances)
from mfeq.modelfile import build_model, builtin_names, read_model_file


def solve_builtin(name, steps):
    model = read_model_file(name)
    grid = TimeGrid(model["horizon"], steps)
    gen, cost = build_model(model, grid)
    m = model["states"]
    eq = picard_solve(gen, cost, ProbabilityVector.uniform(m), grid)
    assert eq.converged
    return gen, cost, eq


def corrupt_policy(eq, gen, k0, i0, offset=0.5):
    """Move one policy entry off the argmin while staying admissible."""
    grid = eq.grid
    lo, hi = gen.action_bounds(grid.nodes[k0])[i0]
    orig = eq.policy.actions[k0, i0]
    bad = orig + offset if orig + offset <= hi else orig - offset
    assert lo <= bad <= hi
    policy = eq.policy.with_cell(k0, np.where(np.arange(gen.m) == i0, bad,
                                              eq.policy.actions[k0]))
    return equilibrium_of(gen, eq.rho, policy, eq.values, eq.diagnostics)


@pytest.fixture(scope="module")
def small_eq():
    return solve_builtin("time_consistent", 50)


class TestSpikeGap:
    def test_noop_profile_spike_is_exactly_zero(self, small_eq):
        gen, cost, eq = small_eq
        for k in (0, 20, 49):
            for i in range(gen.m):
                assert spike_gap(eq, gen, cost, k, i, eq.policy.actions[k]) == 0.0

    def test_zero_cost_model_all_spikes_zero(self):
        gen, cost, eq = solve_builtin("zero_cost", 20)
        for k in (0, 10, 19):
            for u in (-1.0, 0.0, 1.0):
                for i in range(2):
                    assert spike_gap(eq, gen, cost, k, i, u) == 0.0

    def test_gap_matches_discrete_bellman_slack(self, small_eq):
        # perturbing to action u costs, to first order, the slack of u in the
        # one-step objective against the next diagonal
        gen, cost, eq = small_eq
        grid = eq.grid
        sweep, policy = solve_hj(gen, cost, eq.flow)
        diag = sweep.values
        k, i = 25, 1
        t = grid.nodes[k]
        star = policy.actions[k, i]
        theta = diag[k + 1]
        for u in (-0.6, 0.2, 0.7):
            gap = spike_gap(eq, gen, cost, k, i, u)
            slack = (oracles.control_entry(cost, t, i, u) - oracles.control_entry(cost, t, i, star)
                     + float((oracles.rate_row(gen, t, i, u)
                              - oracles.rate_row(gen, t, i, star)) @ theta))
            scale = 1.0 + gen.K1 ** 2 * float(np.abs(theta).max())
            assert abs(gap - slack) <= 5.0 * grid.dt * scale

    def test_inadmissible_action_rejected(self, small_eq):
        gen, cost, eq = small_eq
        # state 2 of the shipped 3-state model has interval [-2/3, 1]
        with pytest.raises(AdmissibilityError):
            spike_gap(eq, gen, cost, 10, 2, -0.99)
        with pytest.raises(AdmissibilityError, match="state 2"):
            spike_gap(eq, gen, cost, 10, 0, np.array([0.0, 0.0, -0.99]))

    def test_spike_must_fit_horizon(self, small_eq):
        gen, cost, eq = small_eq
        for k in (-1, eq.grid.steps):
            with pytest.raises(ValueError):
                spike_gap(eq, gen, cost, k, 0, 0.0)


class TestVerifyLocalOptimality:
    def test_zero_cost_min_gap_zero(self):
        gen, cost, eq = solve_builtin("zero_cost", 15)
        report = verify_local_optimality(eq, gen, cost, action_samples=8)
        assert report.min_gap == 0.0
        assert report.ok

    def test_converged_equilibrium_clean(self, small_eq):
        gen, cost, eq = small_eq
        report = verify_local_optimality(eq, gen, cost, action_samples=16)
        assert report.ok
        assert report.min_gap >= -report.tol
        assert len(report.entries) >= eq.grid.steps * gen.m * 16

    def test_corrupted_policy_detected(self, small_eq):
        gen, cost, eq = small_eq
        bad = corrupt_policy(eq, gen, k0=25, i0=0)
        report = verify_local_optimality(bad, gen, cost, action_samples=16)
        assert not report.ok
        assert any(e.node == 25 and e.state == 0 for e in report.violations)

    def test_sweep_agrees_with_spike_gap(self, small_eq):
        gen, cost, eq = small_eq
        report = verify_local_optimality(eq, gen, cost, action_samples=4)
        rng = np.random.default_rng(0)
        for e in rng.choice(report.entries, size=12, replace=False):
            direct = spike_gap(eq, gen, cost, e.node, e.state, e.action)
            assert direct == pytest.approx(e.gap, abs=1e-9)

    @pytest.mark.parametrize("corrupted", [False, True], ids=["clean", "corrupted"])
    @pytest.mark.parametrize("name", builtin_names())
    def test_matches_scalar_sweep(self, name, corrupted):
        gen, cost, eq = solve_builtin(name, 60)
        if corrupted:
            eq = corrupt_policy(eq, gen, k0=30, i0=0)
        report = verify_local_optimality(eq, gen, cost, action_samples=16)
        ref = oracles.sweep(gen, cost, eq, action_samples=16)
        assert [(e.node, e.state, e.action) for e in report.entries] == \
               [(e.node, e.state, e.action) for e in ref]
        # compared as cost changes (gap * dt), which do not grow with the grid
        dt = eq.grid.dt
        assert max(abs(a.gap - b.gap) for a, b in zip(report.entries, ref)) * dt <= 1e-13
        ref_violations = [(e.node, e.state, e.action) for e in ref
                          if e.gap < -report.tol]
        assert [(e.node, e.state, e.action) for e in report.violations] == ref_violations
        assert report.min_gap == min(e.gap for e in report.entries)
        assert report.worst.gap == report.min_gap
        if corrupted and name != "zero_cost":
            assert ref_violations

    @pytest.mark.parametrize("kwargs", [
        {"tol_spike": float("nan")}, {"tol_spike": float("inf")},
        {"tol_spike": 0.0}, {"tol_spike": -1e-3},
        {"action_samples": 0}, {"action_samples": 1},
    ], ids=["tol-nan", "tol-inf", "tol-zero", "tol-negative", "samples-0", "samples-1"])
    def test_rejects_bad_options(self, small_eq, kwargs):
        gen, cost, eq = small_eq
        with pytest.raises(ValueError):
            verify_local_optimality(eq, gen, cost, **kwargs)

    def test_nan_cost_raises_naming_the_spike(self, small_eq):
        gen, cost, eq = small_eq
        bad = NanDiagonalCost(cost, eq.grid.nodes[7])
        with pytest.raises(NumericalError, match=r"node 7, state 0, action -?\d"):
            verify_local_optimality(eq, gen, bad, action_samples=4)


class TestWorstSpike:
    """The worst spike is the first in report order among the gaps within
    WORST_TIE_RTOL * max |gap| of the least."""

    @staticmethod
    def worst_node(gaps) -> int:
        n = len(gaps)
        entries = np.rec.fromarrays([np.arange(n), np.zeros(n, dtype=int), np.zeros(n),
                                     np.array(gaps, dtype=float)],
                                    names="node,state,action,gap")
        return int(SpikeReport(tol=0.1, entries=entries).worst.node)

    @pytest.mark.parametrize("gap", [-1.4972522366374363e-04, 8.2e-3, 0.0, -0.7])
    def test_one_ulp_apart_in_either_order(self, gap):
        low, high = gap, float(np.nextafter(gap, np.inf))
        assert self.worst_node([0.5, low, high, 2.75]) == 1
        assert self.worst_node([0.5, high, low, 2.75]) == 1

    def test_a_small_move_keeps_the_worst_spike(self):
        # two spikes whose gaps tie on the 10x-ramped affine_mv at N = 200
        gap = -1.4972522366374363e-04
        assert self.worst_node([0.5, gap, gap - 1e-17, 2.75]) == 1
        assert self.worst_node([0.5, gap - 1e-17, gap, 2.75]) == 1

    def test_a_gap_below_the_band_wins(self):
        gap, band = -1.5e-4, WORST_TIE_RTOL * 2.75
        assert self.worst_node([0.5, gap, gap - 2 * band, 2.75]) == 2
        assert self.worst_node([0.5, gap, 2.75, gap - 2 * band]) == 3

    def test_all_gaps_zero(self):
        assert self.worst_node([0.0, 0.0, 0.0]) == 0


class NanDiagonalCost(CostModel):
    """The wrapped cost, but a NaN tau weight at tau = t_bad."""

    def __init__(self, base, t_bad):
        self.base, self.t_bad = base, t_bad
        self.m, self.K2, self.K3 = base.m, base.K2, base.K3

    def tau_weight(self, taus):
        taus = np.asarray(taus, dtype=float)
        return np.where(taus == self.t_bad, np.nan, self.base.tau_weight(taus))

    def running_base(self, t, rho):
        return self.base.running_base(t, rho)

    def terminal(self, rho):
        return self.base.terminal(rho)

    def control_profile_cost(self, t, profile):
        return self.base.control_profile_cost(t, profile)

    def argmin_profile(self, gen, t, h):
        return self.base.argmin_profile(gen, t, h)

    def kappa2(self, gen):
        return self.base.kappa2(gen)


class TestTailValues:
    """The two-row tail sweep against the row-per-evaluation-node loop it
    replaced (oracles.tail_values_loop)."""

    @pytest.mark.parametrize("case", list(shipped_instances()) + list(tau_weighted_instances()),
                             ids=lambda c: c[0])
    def test_matches_loop(self, case):
        _, grid, gen, cost, nu = case
        strategy = random_strategy(np.random.default_rng(17), gen, grid)
        transitions = transition_stack(gen, strategy)
        control = np.array([cost.control_profile_cost(t, u)
                            for t, u in zip(grid.nodes, strategy.actions)])
        base = cost.running_base(grid.nodes[:, None], nu.values)
        weight = cost.tau_weight(grid.nodes[:-1])
        tails = _tail_values(cost, nu, base, weight, control, transitions)
        ref = oracles.tail_values_loop(cost, nu, strategy.actions, transitions)
        assert tails.shape == (grid.steps, gen.m)
        assert np.abs(tails - ref).max() <= 1e-12 * max(1.0, float(np.abs(ref).max()))


def zero_alpha_generator():
    """An affine model with a zero off-diagonal alpha over a positive beta:
    state 0's lower bound comes out as -0.0."""
    alpha = [[-0.5, 0.5, 0.0], [0.4, -0.7, 0.3], [0.2, 0.6, -0.8]]
    return AffineQuadraticModel(alpha, [-0.2, -0.1, 0.3])


class TestSpikes:
    """The array enumeration against the per-(node, state) np.unique loop
    (oracles.spikes)."""

    @pytest.mark.parametrize("samples", [2, 3, 16])
    @pytest.mark.parametrize("kind", ["time-varying", "zero-alpha", "tabulated"])
    def test_matches_unique_loop(self, kind, samples):
        grid = TimeGrid(0.6, 12)
        gen = {"time-varying": lambda: random_affine_generator(
                   np.random.default_rng(8), 3, grid=grid, time_varying=True),
               "zero-alpha": zero_alpha_generator,
               "tabulated": lambda: TabulatedGenerator([[-0.7, 0.7], [0.4, -0.4]])}[kind]()
        node, state, action, profiles = _spikes(gen, grid, samples)
        ref = oracles.spikes(gen, grid, samples)
        assert len(node) == len(ref)
        # == on the actions: a -0.0 bound gives the sample +0.0, and
        # np.unique kept whichever zero its sort put first
        assert list(zip(node.tolist(), state.tolist(), action.tolist())) == ref
        bounds = gen.action_bounds(grid.nodes[node])
        assert np.array_equal(profiles, np.clip(action[:, None], bounds[..., 0], bounds[..., 1]))

    def test_zero_alpha_bound_is_negative_zero(self):
        lo = zero_alpha_generator().action_bounds(0.0)[0, 0]
        assert lo == 0.0 and np.signbit(lo)


class TestDpOracle:
    def test_zero_costs(self):
        grid = TimeGrid(0.5, 10)
        gen = AffineQuadraticModel([[-1.0, 1.0], [1.0, -1.0]], [0.3, -0.3])
        cost = SeparableCost(2, control="zero", terminal=("table", [0.0, 0.0]))
        nu = constant_flow([0.5, 0.5], grid)
        W, _ = dp_oracle(gen, cost, nu, grid)
        assert np.all(W == 0.0)

    def test_control_free_matches_propagated_terminal(self):
        rng = np.random.default_rng(1)
        grid = TimeGrid(0.8, 20)
        alpha = np.array([[-0.9, 0.5, 0.4], [0.3, -0.7, 0.4], [0.2, 0.6, -0.8]])
        gen = AffineQuadraticModel(alpha, np.zeros(3))
        cost = SeparableCost(3, running=("zero",), terminal=("table", [0.4, 0.0, 0.9]))
        nu = random_flow(rng, grid, 3)
        W, _ = dp_oracle(gen, cost, nu, grid)
        sweep, _ = solve_hj(gen, cost, nu)
        np.testing.assert_allclose(W, sweep.values, atol=1e-10)

    @staticmethod
    def assert_equals_scalar_scan(gen, cost, nu, grid, tau=0.0):
        # the 17 scan values come from one stacked call; the scan must pick
        # the same points and values as the scalar scan, bit for bit
        W, strategy = dp_oracle(gen, cost, nu, grid, tau)
        W_loop, actions_loop = oracles.dp_loop(gen, cost, nu, grid, tau)
        assert np.array_equal(W, W_loop)
        assert np.array_equal(strategy.actions, actions_loop)

    @pytest.mark.parametrize("name", ["time_consistent", "affine_mv", "dist_independent"])
    def test_stacked_scan_equals_scalar_scan(self, name):
        model = read_model_file(name)
        grid = TimeGrid(model["horizon"], 30)
        gen, cost = build_model(model, grid)
        nu = random_flow(np.random.default_rng(3), grid, model["states"])
        self.assert_equals_scalar_scan(gen, cost, nu, grid)

    def test_stacked_scan_equals_scalar_scan_generic_cost(self):
        # a cost that declares no vectorized control cost goes through
        # CostModel.control_profile_cost's per-entry loop
        gen, cost, eq = solve_builtin("time_consistent", 20)
        wrapped = NanDiagonalCost(cost, t_bad=-1.0)  # -1 is no node: no NaN
        self.assert_equals_scalar_scan(gen, wrapped, eq.flow, eq.grid, tau=0.3)

    def test_one_point_intervals_equal_scalar_scan(self):
        grid = TimeGrid(0.5, 12)
        gen = TabulatedGenerator([[-0.7, 0.7], [0.4, -0.4]])
        cost = SeparableCost(2, running=("mean_square", 1.0), terminal=("table", [0.2, 0.9]))
        self.assert_equals_scalar_scan(gen, cost, random_flow(np.random.default_rng(4), grid, 2),
                                       grid)

    def test_time_consistent_first_order_agreement(self):
        model = read_model_file("time_consistent")
        gaps = {}
        for steps in (50, 100):
            grid = TimeGrid(model["horizon"], steps)
            gen, cost = build_model(model, grid)
            nu = constant_flow(np.ones(3) / 3, grid)
            sweep, _ = solve_hj(gen, cost, nu)
            W, _ = dp_oracle(gen, cost, nu, grid)
            gaps[steps] = float(np.abs(sweep.values - W).max())
        assert gaps[100] <= 0.05
        order = np.log2(gaps[50] / gaps[100])
        assert order >= 0.8


@dataclass
class BoundsReport:
    """Uniform value bounds plus sampled flow-stability checks."""

    theta_min: float
    theta_max: float
    theta_bound: float
    bounds_ok: bool
    flow_slack: float
    flow_allowance: float
    flow_ok: bool

    @property
    def ok(self) -> bool:
        return self.bounds_ok and self.flow_ok

    def summary(self) -> str:
        return (f"values in [{self.theta_min:.6g}, {self.theta_max:.6g}] vs bound "
                f"[0, {self.theta_bound:.6g}] ({'ok' if self.bounds_ok else 'VIOLATED'}); "
                f"flow-stability slack {self.flow_slack:.3e} vs allowance "
                f"{self.flow_allowance:.3e} ({'ok' if self.flow_ok else 'VIOLATED'})")


def check_bounds_and_lipschitz(eq, gen, cost, samples=20, seed=0) -> BoundsReport:
    """Assert the uniform value bound and sample the flow-stability estimate.

    The value bound uses the declared constants, (K1 + K2) * horizon + K2, so
    misdeclared caps surface here.  The stability check propagates random
    initial-law / strategy pairs and measures the slack in
    d(flow, flow') <= d(rho, gamma) + kappa1 * strategy distance; with
    exponential stepping the flows solve the frozen dynamics exactly, so the
    slack should be roundoff-sized (the allowance keeps an O(dt) term for
    models whose sampled kappa1 underestimates the true constant).
    """
    grid = eq.grid
    bound = value_bound(gen, cost, grid)
    tmin = eq.values.low
    tmax = eq.values.high
    bounds_ok = tmin >= -1e-9 and tmax <= bound + 1e-9

    rng = np.random.default_rng(seed)
    kappa1 = validate_generator(gen, grid, samples=8)
    worst = 0.0
    for _ in range(samples):
        rho = rng.dirichlet(np.ones(gen.m))
        gamma = rng.dirichlet(np.ones(gen.m))
        s1 = random_strategy(rng, gen, grid)
        s2 = random_strategy(rng, gen, grid)
        f1 = strategy_flow(gen, rho, s1)
        f2 = strategy_flow(gen, gamma, s2)
        base = tv_distance(rho, gamma)
        # running rectangle-rule integral of the sup action gap up to t_k
        cell_gaps = np.abs(s1.actions - s2.actions).max(axis=1)
        integral = np.concatenate([[0.0], np.cumsum(cell_gaps) * grid.dt])
        for k in range(grid.steps + 1):
            lhs = tv_distance(f1.at(k), f2.at(k))
            worst = max(worst, lhs - base - kappa1 * integral[k])
    allowance = 1e-8 + 0.05 * grid.dt
    return BoundsReport(theta_min=tmin, theta_max=tmax, theta_bound=bound,
                        bounds_ok=bounds_ok, flow_slack=worst,
                        flow_allowance=allowance, flow_ok=worst <= allowance)


class TestCheckBoundsAndLipschitz:
    def test_builtin_model_passes(self, small_eq):
        gen, cost, eq = small_eq
        report = check_bounds_and_lipschitz(eq, gen, cost, samples=10)
        assert report.ok
        assert report.theta_bound == pytest.approx(
            (gen.K1 + cost.K2) * eq.grid.horizon + cost.K2)
        assert "ok" in report.summary()

    def test_misdeclared_k2_flagged(self):
        # short horizon: with the true terminal cap 0.9 halved to 0.45 the
        # declared bound (K1 + K2) T + K2 drops below the actual values
        grid = TimeGrid(0.1, 10)
        gen = AffineQuadraticModel([[-0.8, 0.8], [0.9, -0.9]], [0.4, -0.4])
        cost = SeparableCost(2, terminal=("table", np.array([0.0, 0.9])),
                             horizon=0.1, K2=0.45)
        eq = picard_solve(gen, cost, ProbabilityVector.uniform(2), grid)
        report = check_bounds_and_lipschitz(eq, gen, cost, samples=5)
        assert not report.bounds_ok
        assert "VIOLATED" in report.summary()

    def test_zero_cost_trivial_bounds(self):
        gen, cost, eq = solve_builtin("zero_cost", 10)
        report = check_bounds_and_lipschitz(eq, gen, cost, samples=5)
        assert report.ok
        assert report.theta_min == 0.0 and report.theta_max == 0.0
