"""Built-in model families: affine rates, argmin oracle, mean-variance costs."""

import numpy as np
import pytest

from mfeq import (
    AffineQuadraticModel,
    CostModel,
    GeneratorModel,
    ModelDefect,
    ProbabilityVector,
    SeparableCost,
    SimConfig,
    TabulatedGenerator,
    TimeGrid,
    admissible_interval,
    deviation_test,
    estimate_constants,
    picard_solve,
    validate_generator,
    verify_local_optimality,
)
from mfeq.modelfile import build_model, builtin_names, read_model_file
from mfeq.models import label_means, make_tau_weight

import oracles
from instances import random_affine_generator, random_strategy
from oracles import label_mean, mean_variance_terminal


def interval(alpha, beta, i):
    return tuple(admissible_interval(alpha, beta)[i])


def same_bits(a, b) -> bool:
    """Equal arrays down to the sign of every zero."""
    return a.shape == b.shape and a.tobytes() == np.asarray(b, dtype=a.dtype).tobytes()


class TestAdmissibleInterval:
    def test_zero_beta_full_interval(self):
        assert interval([[-1.0, 1.0], [1.0, -1.0]], [0.0, 0.0], 0) == (-1.0, 1.0)

    def test_inactive_constraint(self):
        # 1 - v >= 0 allows v <= 1: interval stays [-1, 1]
        lo, hi = interval([[-1.0, 1.0], [1.0, -1.0]], [1.0, -1.0], 0)
        assert (lo, hi) == (-1.0, 1.0)

    def test_active_constraint(self):
        # 0.5 - v >= 0 cuts the interval at 0.5
        lo, hi = interval([[-0.5, 0.5], [1.0, -1.0]], [1.0, -1.0], 0)
        assert lo == -1.0
        assert hi == pytest.approx(0.5, abs=1e-15)

    def test_contains_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            gen = random_affine_generator(rng, int(rng.integers(2, 6)))
            bounds = gen.action_bounds(0.0)
            assert (bounds[:, 0] <= 0.0).all() and (0.0 <= bounds[:, 1]).all()

    @pytest.mark.parametrize("time_varying", [False, True])
    def test_bounds_table_equals_scalar_loop(self, time_varying):
        rng = np.random.default_rng(11 + time_varying)
        for m in range(2, 11):
            grid = TimeGrid(float(rng.uniform(0.3, 1.5)), int(rng.integers(5, 40)))
            gen = random_affine_generator(rng, m, grid=grid, time_varying=time_varying)
            table = gen.action_bounds(grid.nodes)
            assert table.shape == (grid.steps + 1, m, 2)
            for k, t in enumerate(grid.nodes):
                ref = oracles.bounds_loop(gen, t)
                assert same_bits(table[k], ref)
                assert same_bits(gen.action_bounds(t), ref)

    def test_sign_cases_equal_scalar_loop(self):
        # zero off-diagonal rates and zero beta entries: the constraints that
        # pass through 0 or drop out, and the argmin ties at signed zeros
        alpha = np.array([[-0.5, 0.0, 0.5], [0.0, 0.0, 0.0], [0.2, 0.3, -0.5]])
        for beta in ([0.4, -0.4, 0.0], [0.0, 0.3, -0.3], [-0.2, 0.5, -0.3]):
            gen = AffineQuadraticModel(alpha, beta)
            assert same_bits(gen.action_bounds(0.0), oracles.bounds_loop(gen, 0.0))
            cost = SeparableCost(3)
            for h in ([0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [5.0, -5.0, 3.0]):
                assert same_bits(cost.argmin_profile(gen, 0.0, h),
                                 oracles.clip_argmin(gen, 0.0, h))


class TestAffineArgmin:
    """The closed-form argmin of the affine-quadratic model."""

    gen = AffineQuadraticModel([[-0.8, 0.8], [0.6, -0.6]], [0.5, -0.5])
    cost = SeparableCost(2)

    def test_zero_gradient(self):
        np.testing.assert_array_equal(self.cost.argmin_profile(self.gen, 0.0, [0.0, 0.0]),
                                      [0.0, 0.0])

    def test_interior_stationary_point(self):
        # h . beta = 0.5 puts the minimum of v^2/2 + 0.5 v at -0.5
        np.testing.assert_allclose(self.cost.argmin_profile(self.gen, 0.0, [1.0, 0.0]),
                                   [-0.5, -0.5])

    def test_boundary_clip(self):
        np.testing.assert_array_equal(self.cost.argmin_profile(self.gen, 0.0, [4.0, 0.0]),
                                      [-1.0, -1.0])

    def test_lipschitz_in_h(self):
        # |argmin(h) - argmin(h')| <= sum|beta| * max|h - h'| (clip contracts)
        rng = np.random.default_rng(1)
        beta = np.array([0.4, -0.1, -0.3])
        gen = AffineQuadraticModel([[-1.0, 0.6, 0.4], [0.5, -0.9, 0.4], [0.3, 0.5, -0.8]],
                                   beta)
        cost = SeparableCost(3)
        for _ in range(50):
            h1, h2 = rng.normal(size=3), rng.normal(size=3)
            d = np.abs(cost.argmin_profile(gen, 0.0, h1) - cost.argmin_profile(gen, 0.0, h2))
            assert d.max() <= np.abs(beta).sum() * np.abs(h1 - h2).max() + 1e-12

    @pytest.mark.parametrize("time_varying", [False, True])
    def test_equals_per_state_clip_loop(self, time_varying):
        rng = np.random.default_rng(21 + time_varying)
        for m in range(2, 11):
            grid = TimeGrid(1.0, 12)
            gen = random_affine_generator(rng, m, grid=grid, time_varying=time_varying)
            cost = SeparableCost(m)
            for t in grid.nodes:
                # wide continuation values clip some states and not others
                h = rng.normal(scale=3.0, size=m)
                assert same_bits(cost.argmin_profile(gen, t, h),
                                 oracles.clip_argmin(gen, t, h))


class TestBatchedArgmin:
    """argmin_profile on a (B, m) stack equals one call per row, bit for bit."""

    @pytest.mark.parametrize("name", builtin_names())
    def test_shipped_models(self, name):
        rng = np.random.default_rng(31)
        model = read_model_file(name)
        grid = TimeGrid(model["horizon"], 20)
        gen, cost = build_model(model, grid)
        for t in grid.nodes[::5]:
            H = rng.normal(scale=3.0, size=(9, gen.m))
            batched = cost.argmin_profile(gen, t, H)
            assert same_bits(batched, np.array([cost.argmin_profile(gen, t, h) for h in H]))

    def test_random_affine_models(self):
        rng = np.random.default_rng(32)
        for m in range(2, 11):
            grid = TimeGrid(1.0, 8)
            gen = random_affine_generator(rng, m, grid=grid, time_varying=True)
            cost = SeparableCost(m)
            t = grid.nodes[3]
            H = rng.normal(scale=3.0, size=(12, m))
            rows = np.array([cost.argmin_profile(gen, t, h) for h in H])
            assert same_bits(cost.argmin_profile(gen, t, H), rows)
            assert same_bits(rows, np.array([oracles.clip_argmin(gen, t, h) for h in H]))

    def test_random_zero_control_models(self):
        rng = np.random.default_rng(34)
        for m in range(2, 7):
            grid = TimeGrid(1.0, 8)
            gen = random_affine_generator(rng, m, grid=grid, time_varying=True)
            cost = SeparableCost(m, control="zero")
            t = grid.nodes[3]
            H = rng.normal(scale=3.0, size=(12, m))
            assert same_bits(cost.argmin_profile(gen, t, H),
                             np.array([cost.argmin_profile(gen, t, h) for h in H]))

    @pytest.mark.parametrize("control", ["quadratic", "zero"])
    def test_tabulated(self, control):
        rng = np.random.default_rng(35)
        grid = TimeGrid(1.0, 8)
        gen = tabulated_generator(rng, 3, grid)
        cost = SeparableCost(3, control=control)
        H = rng.normal(scale=3.0, size=(12, 3))
        assert same_bits(cost.argmin_profile(gen, grid.nodes[3], H),
                         np.array([cost.argmin_profile(gen, grid.nodes[3], h) for h in H]))


    def test_label_means_equal_one_dot_product_per_law(self):
        rng = np.random.default_rng(33)
        for m in range(2, 11):
            laws = rng.dirichlet(np.ones(m), size=12)
            labels = np.arange(1.0, m + 1.0)
            assert same_bits(label_means(laws), np.array([labels @ r for r in laws]))
            assert same_bits(label_means(laws[3]), labels @ laws[3])



class TestClosedFormsAgainstScan:
    """SeparableCost's closed forms against the scan-plus-golden-section
    reference they replaced (oracles.scan_argmin)."""

    @staticmethod
    def objective(gen, t, h, profile):
        """Generator term q_t^v(i, .) . h of each state's action, zero control."""
        return np.array([oracles.rate_row(gen, t, i, v) @ h for i, v in enumerate(profile)])

    @pytest.mark.parametrize("stack", [False, True])
    def test_zero_control_equals_scan_on_untied_rows(self, stack):
        rng = np.random.default_rng(36)
        for m in range(2, 7):
            grid = TimeGrid(1.0, 6)
            gen = random_affine_generator(rng, m, grid=grid, time_varying=True)
            cost = SeparableCost(m, control="zero")
            for t in grid.nodes[:-1]:
                H = rng.normal(scale=3.0, size=(5, m))
                # every row is untied: the slope h . beta is clear of zero
                assert np.abs(H @ gen.coefficients_at(t)[1]).min() > 1e-6
                closed = (cost.argmin_profile(gen, t, H) if stack else
                          np.array([cost.argmin_profile(gen, t, h) for h in H]))
                assert same_bits(closed, oracles.scan_argmin(cost, gen, t, H))

    def test_constant_rows_tie_in_objective(self):
        # beta sums to zero, so on a constant h the slope is roundoff and
        # every action is optimal: the two picks may differ, their values not
        rng = np.random.default_rng(37)
        for m in range(2, 7):
            grid = TimeGrid(1.0, 6)
            gen = random_affine_generator(rng, m, grid=grid, time_varying=True)
            cost = SeparableCost(m, control="zero")
            for t in grid.nodes[:-1]:
                h = np.full(m, rng.uniform(-3.0, 3.0))
                closed = cost.argmin_profile(gen, t, h)
                ref = oracles.scan_argmin(cost, gen, t, h)
                assert np.abs(self.objective(gen, t, h, closed)
                              - self.objective(gen, t, h, ref)).max() <= 1e-12

    def test_signed_zero_lower_bound(self):
        # state 1's zero rates put its lower bound at -0.0, which the closed
        # form returns and the scan's np.linspace turns into +0.0
        gen = AffineQuadraticModel([[-0.5, 0.0, 0.5], [0.0, 0.0, 0.0], [0.2, 0.3, -0.5]],
                                   [0.4, -0.4, 0.0])
        cost = SeparableCost(3, control="zero")
        h = np.array([1.0, 0.0, 0.0])
        closed = cost.argmin_profile(gen, 0.0, h)
        ref = oracles.scan_argmin(cost, gen, 0.0, h)
        assert (closed == ref).all()
        assert np.signbit(closed[1]) and not np.signbit(ref[1])

    @pytest.mark.parametrize("control", ["quadratic", "zero"])
    def test_tabulated_generator_gives_zeros(self, control):
        rng = np.random.default_rng(38)
        grid = TimeGrid(1.0, 8)
        gen = tabulated_generator(rng, 3, grid)
        cost = SeparableCost(3, control=control)
        H = rng.normal(scale=3.0, size=(4, 3))
        assert same_bits(cost.argmin_profile(gen, grid.nodes[2], H), np.zeros((4, 3)))
        assert same_bits(oracles.scan_argmin(cost, gen, grid.nodes[2], H), np.zeros((4, 3)))

    def test_custom_generator_rejected(self):
        gen = _ContractGenerator(AffineQuadraticModel([[-1.0, 1.0], [1.0, -1.0]], [0.3, -0.3]))
        with pytest.raises(ModelDefect, match="_ContractGenerator"):
            SeparableCost(2).argmin_profile(gen, 0.0, [1.0, 0.0])

    def test_zero_cost_solve_equals_scan_solve(self, monkeypatch):
        model = read_model_file("zero_cost")
        grid = TimeGrid(model["horizon"], 200)
        gen, cost = build_model(model, grid)
        rho = ProbabilityVector.uniform(gen.m)

        def solve():
            return picard_solve(gen, cost, rho, grid), estimate_constants(gen, cost, grid)

        eq, constants = solve()
        monkeypatch.setattr(SeparableCost, "argmin_profile", oracles.scan_argmin)
        ref_eq, ref_constants = solve()
        assert same_bits(eq.policy.actions, ref_eq.policy.actions)
        assert same_bits(eq.flow.values, ref_eq.flow.values)
        assert (constants.kappa1, constants.kappa2, constants.kappa3) == \
            (ref_constants.kappa1, ref_constants.kappa2, ref_constants.kappa3)


class TestAffineQuadraticModel:
    def test_structure_validation(self):
        with pytest.raises(ModelDefect):
            AffineQuadraticModel([[-1.0, 1.0], [1.0, -0.9]], [0.0, 0.0])
        with pytest.raises(ModelDefect):
            AffineQuadraticModel([[-1.0, 1.0], [1.0, -1.0]], [0.5, 0.0])
        with pytest.raises(ModelDefect):
            AffineQuadraticModel([[0.5, -0.5], [1.0, -1.0]], [0.0, 0.0])

    def test_declared_constants(self):
        gen = AffineQuadraticModel([[-0.8, 0.8], [0.9, -0.9]], [0.4, -0.4])
        assert gen.K1 == pytest.approx(1.3)

    def test_rows_pass_validation_on_admissible_actions(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            gen = random_affine_generator(rng, int(rng.integers(2, 6)))
            assert validate_generator(gen, TimeGrid(1.0, 4), samples=6).ok

    def test_time_varying_tables(self):
        grid = TimeGrid(1.0, 2)
        alphas = np.array([[[-1.0, 1.0], [1.0, -1.0]],
                           [[-2.0, 2.0], [2.0, -2.0]]])
        betas = np.zeros((2, 2))
        gen = AffineQuadraticModel(alphas, betas, grid=grid)
        np.testing.assert_allclose(gen.rate_matrix(0.0, [0.0, 0.0]), alphas[0])
        np.testing.assert_allclose(gen.rate_matrix(0.5, [0.0, 0.0]), alphas[1])
        np.testing.assert_allclose(gen.rate_matrix(1.0, [0.0, 0.0]), alphas[1])


class TestTabulatedGenerator:
    def test_validation(self):
        with pytest.raises(ModelDefect):
            TabulatedGenerator([[-1.0, 0.9], [1.0, -1.0]])
        with pytest.raises(ModelDefect):
            TabulatedGenerator([[-1.0, 1.0], [-0.5, 0.5]])

    def test_degenerate_action_set(self):
        gen = TabulatedGenerator([[-1.0, 1.0], [1.0, -1.0]])
        np.testing.assert_array_equal(gen.action_bounds(0.0), np.zeros((2, 2)))
        assert gen.action_bounds(np.linspace(0.0, 1.0, 5)).shape == (5, 2, 2)


class _ContractGenerator(GeneratorModel):
    """A generator with only the abstract methods, each one delegated to a
    built-in generator."""

    def __init__(self, base):
        self.base, self.m, self.K1 = base, base.m, base.K1

    def rate_matrix(self, t, profile):
        return self.base.rate_matrix(t, profile)

    def action_bounds(self, t):
        return self.base.action_bounds(t)


class _ContractCost(CostModel):
    """A cost with only the abstract methods, each one delegated to a
    SeparableCost; its argmin uses the built-in generator gen."""

    def __init__(self, base, gen):
        self.base, self.gen = base, gen
        self.m, self.K2, self.K3 = base.m, base.K2, base.K3

    def tau_weight(self, taus):
        return self.base.tau_weight(taus)

    def running_base(self, t, rho):
        return self.base.running_base(t, rho)

    def terminal(self, tau, rho):
        return self.base.terminal(tau, rho)

    def control_profile_cost(self, t, profile):
        return self.base.control_profile_cost(t, profile)

    def argmin_profile(self, gen, t, h):
        return self.base.argmin_profile(self.gen, t, h)


class TestArrayContract:
    """The model ABCs are pure contracts: a pair that implements only their
    abstract methods runs every phase exactly as the built-in pair does."""

    def test_abstract_methods_are_the_whole_contract(self):
        assert GeneratorModel.__abstractmethods__ == {"rate_matrix", "action_bounds"}
        assert CostModel.__abstractmethods__ == {
            "tau_weight", "running_base", "terminal", "control_profile_cost", "argmin_profile"}
        for abc in (GeneratorModel, CostModel):
            methods = {name for name, value in vars(abc).items()
                       if callable(value) and not name.startswith("_")}
            assert methods == abc.__abstractmethods__

    @pytest.mark.parametrize("fake, method", [
        (_ContractGenerator, "rate_matrix"), (_ContractGenerator, "action_bounds"),
        (_ContractCost, "control_profile_cost"), (_ContractCost, "running_base"),
    ])
    def test_missing_method_is_type_error(self, fake, method):
        gen = AffineQuadraticModel([[-1.0, 1.0], [1.0, -1.0]], [0.3, -0.3])
        args = (gen,) if fake is _ContractGenerator else (SeparableCost(2), gen)
        fake(*args)
        partial = type("Partial", fake.__bases__,
                       {k: v for k, v in vars(fake).items() if k != method})
        with pytest.raises(TypeError, match=method):
            partial(*args)

    @pytest.mark.parametrize("name", builtin_names())
    def test_contract_pair_equals_builtin_pair(self, name):
        model = read_model_file(name)
        grid = TimeGrid(model["horizon"], 40)
        gen, cost = build_model(model, grid)
        rho = ProbabilityVector.uniform(gen.m)

        def run(gen, cost):
            eq = picard_solve(gen, cost, rho, grid)
            report = verify_local_optimality(eq, gen, cost, action_samples=6)
            spike = (20, 0, float(gen.action_bounds(grid.nodes[20])[0, 1]))
            estimate = deviation_test(eq, gen, cost, k_player=0, spike=spike,
                                      cfg=SimConfig(players=300, seed=5, replications=3),
                                      inner_pairs=40)
            return eq, report, estimate

        eq, report, estimate = run(gen, cost)
        ref_eq, ref_report, ref_estimate = run(_ContractGenerator(gen), _ContractCost(cost, gen))
        assert same_bits(eq.policy.actions, ref_eq.policy.actions)
        assert same_bits(eq.flow.values, ref_eq.flow.values)
        assert same_bits(eq.values.values, ref_eq.values.values)
        assert eq.diagnostics.gaps == ref_eq.diagnostics.gaps
        assert report.entries.tobytes() == ref_report.entries.tobytes()
        assert report.tol == ref_report.tol
        assert estimate == ref_estimate


def tabulated_generator(rng, m, grid):
    """Control-free generator with one random rate table per grid cell."""
    Q = rng.uniform(0.1, 1.0, size=(grid.steps, m, m))
    Q[:, np.arange(m), np.arange(m)] = 0.0
    Q[:, np.arange(m), np.arange(m)] = -Q.sum(axis=2)
    return TabulatedGenerator(Q, grid)


class TestNodeTimeArrays:
    """rate_matrix and control_profile_cost on an array of node times equal
    one call per node, bit for bit."""

    GRID = TimeGrid(0.7, 9)

    @staticmethod
    def per_node(fn, times, profiles):
        return np.array([fn(t, u) for t, u in zip(times, profiles)])

    @pytest.mark.parametrize("kind", ["affine", "tabulated"])
    def test_rate_matrix(self, kind):
        rng = np.random.default_rng(5)
        grid = self.GRID
        affine = random_affine_generator(rng, 3, grid=grid, time_varying=True)
        gen = {"affine": affine, "tabulated": tabulated_generator(rng, 3, grid)}[kind]
        times = grid.nodes[:-1]
        actions = random_strategy(rng, gen, grid).actions
        assert same_bits(gen.rate_matrix(times, actions),
                         self.per_node(gen.rate_matrix, times, actions))
        # several profiles per node: the times broadcast over the leading axis
        profiles = rng.uniform(-0.2, 0.2, size=(grid.steps, 4, 3))
        assert same_bits(gen.rate_matrix(times[:, None], profiles),
                         self.per_node(gen.rate_matrix, times, profiles))

    def test_control_profile_cost(self):
        rng = np.random.default_rng(6)
        cost = SeparableCost(3)
        times = self.GRID.nodes[:-1]
        profiles = rng.uniform(-1.0, 1.0, size=(self.GRID.steps, 4, 3))
        assert same_bits(cost.control_profile_cost(times[:, None], profiles),
                         self.per_node(cost.control_profile_cost, times, profiles))
        assert same_bits(cost.control_profile_cost(times, profiles[:, 0]),
                         self.per_node(cost.control_profile_cost, times, profiles[:, 0]))


class TestMeanVarianceTerminal:
    def test_dirac_gives_zero(self):
        for i in (1, 2, 3):
            rho = np.zeros(3)
            rho[i - 1] = 1.0
            assert mean_variance_terminal("g", i, rho) == 0.0
            assert mean_variance_terminal("gtilde", i, rho) == 0.0

    def test_two_state_half_half(self):
        rho = [0.5, 0.5]
        assert mean_variance_terminal("g", 1, rho) == pytest.approx(0.25)
        # raw gtilde can be negative: 1 - 1.5^2
        assert mean_variance_terminal("gtilde", 1, rho) == pytest.approx(-1.25)

    def test_population_functional_is_variance(self):
        rng = np.random.default_rng(4)
        for m in (2, 3, 5):
            labels = np.arange(1, m + 1)
            for _ in range(10):
                rho = rng.dirichlet(np.ones(m))
                var = float(labels ** 2 @ rho - (labels @ rho) ** 2)
                pop_g = sum(mean_variance_terminal("g", i, rho) * rho[i - 1]
                            for i in labels)
                pop_gt = sum(mean_variance_terminal("gtilde", i, rho) * rho[i - 1]
                             for i in labels)
                assert pop_g == pytest.approx(var, abs=1e-12)
                assert pop_gt == pytest.approx(var, abs=1e-12)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            mean_variance_terminal("h", 1, [1.0])


class TestSeparableCost:
    def test_gtilde_shift_restores_nonnegativity(self):
        cost = SeparableCost(3, terminal=("mean_variance", "gtilde"))
        assert cost.terminal_shift == 9.0
        rng = np.random.default_rng(5)
        for _ in range(20):
            rho = rng.dirichlet(np.ones(3))
            vals = cost.terminal(0.0, rho)
            assert vals.min() >= 0.0
            assert vals.max() <= cost.K2 + 1e-12

    def test_shift_preserves_population_variance_up_to_constant(self):
        cost = SeparableCost(2, terminal=("mean_variance", "gtilde"))
        rng = np.random.default_rng(6)
        labels = np.array([1.0, 2.0])
        for _ in range(10):
            rho = rng.dirichlet(np.ones(2))
            var = float(labels ** 2 @ rho - (labels @ rho) ** 2)
            pop = float(cost.terminal(0.0, rho) @ rho)
            assert pop - cost.terminal_shift == pytest.approx(var, abs=1e-12)

    def test_shift_does_not_change_argmin(self):
        # constant shifts of the continuation value cancel against zero row sums
        gen = AffineQuadraticModel([[-0.8, 0.8], [0.9, -0.9]], [0.4, -0.4])
        cost = SeparableCost(2, horizon=0.5)
        rng = np.random.default_rng(7)
        for _ in range(10):
            h = rng.uniform(0.0, 3.0, 2)
            base = cost.argmin_profile(gen, 0.0, h)
            shifted = cost.argmin_profile(gen, 0.0, h + 17.3)
            np.testing.assert_allclose(base, shifted, atol=1e-12)

    def test_declared_caps_hold_on_samples(self):
        rng = np.random.default_rng(8)
        for m in (2, 4):
            cost = SeparableCost(
                m, running=("mean_square", 0.3),
                terminal=("mean_variance", "g"),
                tau_weight={"kind": "affine", "intercept": 1.0, "slope": 0.5},
                horizon=1.0)
            for _ in range(20):
                rho = rng.dirichlet(np.ones(m))
                tau = rng.uniform(0.0, 1.0)
                assert oracles.running_dist(cost, tau, 0.0, rho).max() <= cost.K2 + 1e-12
                assert cost.terminal(tau, rho).max() <= cost.K2 + 1e-12

    def test_zero_control(self):
        cost = SeparableCost(2, control="zero", terminal=("table", [0.0, 0.0]))
        np.testing.assert_array_equal(cost.control_profile_cost(0.0, [0.5, -0.5]),
                                      [0.0, 0.0])

    def test_label_mean(self):
        assert label_mean([0.5, 0.5]) == pytest.approx(1.5)
        assert label_mean([0.0, 0.0, 1.0]) == pytest.approx(3.0)

    def test_negative_table_rejected(self):
        with pytest.raises(ModelDefect):
            SeparableCost(2, running=("table", [-0.1, 0.2]))
        with pytest.raises(ModelDefect):
            SeparableCost(2, terminal=("table", [0.1, -0.2]))


class TestTauWeight:
    def test_constant(self):
        w, wmax = make_tau_weight(None, 1.0)
        assert w(0.7) == 1.0 and wmax == 1.0

    def test_affine(self):
        w, wmax = make_tau_weight({"kind": "affine", "intercept": 1.0, "slope": 0.5}, 2.0)
        assert w(2.0) == pytest.approx(2.0)
        assert wmax == pytest.approx(2.0)

    def test_affine_negative_rejected(self):
        with pytest.raises(ModelDefect):
            make_tau_weight({"kind": "affine", "intercept": 0.5, "slope": -1.0}, 1.0)

    def test_exp(self):
        w, wmax = make_tau_weight({"kind": "exp", "rate": 2.0}, 1.0)
        assert w(0.5) == pytest.approx(np.exp(-1.0))
        assert wmax == 1.0

    @pytest.mark.parametrize("spec", [
        {"kind": "exp", "rate": -2000.0},
        {"kind": "exp", "rate": float("nan")},
        {"kind": "affine", "intercept": float("nan")},
        {"kind": "affine", "slope": 1e308},
    ], ids=["exp-overflow", "exp-nan", "affine-nan", "affine-overflow"])
    def test_non_finite_rejected(self, spec):
        # a NaN fails the nonnegativity comparison, so it is caught on its own
        with pytest.raises(ModelDefect, match="not finite"):
            make_tau_weight(spec, 2.0)

