"""Chain primitives: simplex arithmetic, generators, transitions, flows."""

import numpy as np
import pytest
from scipy.linalg import expm

from mfeq import (
    AdmissibilityError,
    AffineQuadraticModel,
    DimensionMismatch,
    FlowCurve,
    ModelDefect,
    NumericalError,
    ProbabilityVector,
    StrategyTable,
    TabulatedGenerator,
    TimeGrid,
    propagate_flow,
    transition_stack,
    validate_generator,
)
from mfeq.chain import (ACTION_ATOL, POISSON_TAIL_X, GeneratorModel, admissible,
                        clip_to_bounds, grid_rate, interval_samples,
                        stochastic_exponentials)
from mfeq.modelfile import build_model

from instances import (ramped_model, random_affine_generator, random_strategy,
                       two_state_transition)
import oracles
from oracles import constant_strategy, dirac, strategy_flow, transition_loop, tv_distance

TOL = 1e-12


class TestTimeGrid:
    def test_nodes(self):
        grid = TimeGrid(1.0, 4)
        assert grid.dt == 0.25
        np.testing.assert_allclose(grid.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert np.all(np.diff(grid.nodes) > 0)

    def test_nodes_built_once_and_read_only(self):
        grid = TimeGrid(0.7, 9)
        assert grid.nodes is grid.nodes
        assert np.array_equal(grid.nodes, np.linspace(0.0, 0.7, 10))
        with pytest.raises(ValueError):
            grid.nodes[0] = 1.0
        # the node array takes no part in equality, hashing or repr
        assert grid == TimeGrid(0.7, 9) and hash(grid) == hash(TimeGrid(0.7, 9))
        assert repr(grid) == "TimeGrid(horizon=0.7, steps=9)"

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 4)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0)
        with pytest.raises(ValueError):
            TimeGrid(-1.0, 4)


class TestProbabilityVector:
    def test_normalizes(self):
        p = ProbabilityVector([0.2, 0.2])
        np.testing.assert_allclose(p.weights, [0.5, 0.5])
        assert abs(p.weights.sum() - 1.0) <= TOL

    def test_clips_roundoff_negatives(self):
        p = ProbabilityVector([1.0, -1e-13])
        assert p.weights[1] == 0.0
        assert p.weights.sum() == 1.0

    def test_rejects_real_negatives(self):
        with pytest.raises(NumericalError):
            ProbabilityVector([1.0, -1e-9])

    def test_dirac_and_uniform(self):
        d = dirac(1, 3)
        np.testing.assert_array_equal(d.weights, [0.0, 1.0, 0.0])
        u = ProbabilityVector.uniform(4)
        np.testing.assert_allclose(u.weights, 0.25)

    def test_immutable(self):
        p = ProbabilityVector.uniform(2)
        with pytest.raises(ValueError):
            p.weights[0] = 0.3


class TestTvDistance:
    def test_identity(self):
        p = ProbabilityVector([0.3, 0.7])
        assert tv_distance(p, p) == 0.0

    def test_disjoint_diracs(self):
        assert tv_distance(dirac(0, 2), dirac(1, 2)) == 2.0

    def test_half_quarter(self):
        assert tv_distance([0.5, 0.5], [0.25, 0.75]) == pytest.approx(0.5, abs=TOL)

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        a, b = rng.dirichlet(np.ones(5)), rng.dirichlet(np.ones(5))
        assert tv_distance(a, b) == tv_distance(b, a)
        assert 0.0 <= tv_distance(a, b) <= 2.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            tv_distance([0.5, 0.5], [1.0, 0.0, 0.0])


class _RowSumDefect(GeneratorModel):
    """Generator whose first row leaks mass (sum 0.1)."""

    m = 2
    K1 = 1.1

    def rate_matrix(self, t, profile):
        return np.broadcast_to([[-1.0, 1.1], [1.0, -1.0]], np.shape(profile)[:-1] + (2, 2))

    def action_bounds(self, t):
        return np.zeros(np.shape(t) + (2, 2))


class _EmptyAdmissible(GeneratorModel):
    m = 2
    K1 = 1.0

    def rate_matrix(self, t, profile):
        return np.broadcast_to([-1.0, 1.0], np.shape(profile) + (2,))

    def action_bounds(self, t):
        return np.broadcast_to([1.0, -1.0], np.shape(t) + (2, 2))


class _NanBounds(_EmptyAdmissible):
    """Generator whose admissible intervals are NaN at every node."""

    def action_bounds(self, t):
        return np.full(np.shape(t) + (2, 2), np.nan)


class _FixedRates(GeneratorModel):
    """The same matrix, generator or not, for every action and node."""

    m = 2
    K1 = 1.0

    def __init__(self, rates):
        self.rates = np.array(rates, dtype=float)

    def rate_matrix(self, t, profile):
        return np.broadcast_to(self.rates, np.shape(profile)[:-1] + (2, 2))

    def action_bounds(self, t):
        return np.zeros(np.shape(t) + (2, 2))


class _CellRates(_FixedRates):
    """One matrix per grid cell, generator or not, for every action."""

    def __init__(self, tables, grid):
        self.tables, self.dt = np.array(tables, dtype=float), grid.dt

    def rate_matrix(self, t, profile):
        k = np.rint(np.asarray(t) / self.dt).astype(int)
        return np.broadcast_to(self.tables[k], np.shape(profile)[:-1] + (2, 2))


class _Leaky(GeneratorModel):
    """Affine rates plus a row-sum leak and a negative off-diagonal that grow
    with the action; state 1's interval shrinks to the point 0."""

    def __init__(self, base):
        self.base, self.m, self.K1 = base, base.m, base.K1

    def rate_matrix(self, t, profile):
        u = np.asarray(profile, dtype=float)
        Q = self.base.rate_matrix(t, u).copy()
        rows = np.arange(self.m)
        Q[..., rows, (rows + 1) % self.m] -= 2.0 * np.maximum(u, 0.0)
        return Q

    def action_bounds(self, t):
        bounds = self.base.action_bounds(t).copy()
        bounds[..., 1, :] = 0.0
        return bounds


class TestValidateGenerator:
    def test_affine_model_valid_with_exact_kappa1(self):
        gen = AffineQuadraticModel([[-0.8, 0.8], [0.9, -0.9]], [0.4, -0.4])
        # rows are affine in the action: the l1 sensitivity is exactly sum |beta|
        assert validate_generator(gen, TimeGrid(0.5, 8), samples=6) == \
            pytest.approx(0.8, abs=1e-12)

    def test_zero_generator(self):
        gen = TabulatedGenerator(np.zeros((2, 2)))
        assert validate_generator(gen, TimeGrid(1.0, 2)) == 0.0

    def test_row_sum_defect_equals_scalar_loop(self):
        grid = TimeGrid(1.0, 3)
        for samples in (2, 5):
            assert validate_generator(_RowSumDefect(), grid, samples=samples) == \
                oracles.validate_generator(_RowSumDefect(), grid, samples)

    @pytest.mark.parametrize("time_varying", [False, True])
    def test_equals_scalar_loop_on_random_models(self, time_varying):
        rng = np.random.default_rng(40 + time_varying)
        for m in (2, 3, 5, 10):
            grid = TimeGrid(float(rng.uniform(0.3, 1.5)), int(rng.integers(5, 15)))
            gen = random_affine_generator(rng, m, grid=grid, time_varying=time_varying)
            for samples in (2, 3, 8):
                assert validate_generator(gen, grid, samples=samples) == \
                    oracles.validate_generator(gen, grid, samples)

    def test_equals_scalar_loop_with_violations_and_point_intervals(self):
        # rows that break the row-sum and sign rules, and states whose
        # interval is one point, over more nodes than one block of
        # validate_generator
        rng = np.random.default_rng(42)
        grid = TimeGrid(1.0, 150)
        gen = _Leaky(random_affine_generator(rng, 4, grid=grid, time_varying=True))
        assert validate_generator(gen, grid, samples=4) == \
            oracles.validate_generator(gen, grid, 4)
        tab = TabulatedGenerator([[-1.0, 0.5, 0.5], [0.2, -0.2, 0.0], [0.0, 0.3, -0.3]])
        assert validate_generator(tab, grid, samples=5) == \
            oracles.validate_generator(tab, grid, 5)

    def test_empty_admissible_set_fatal(self):
        with pytest.raises(ModelDefect, match="node 0, state 0"):
            validate_generator(_EmptyAdmissible(), TimeGrid(1.0, 2))
        with pytest.raises(ModelDefect):
            validate_generator(_NanBounds(), TimeGrid(1.0, 2))


class TestAdmissible:
    def test_slack_is_action_atol(self):
        bounds = np.array([[-0.5, 0.5]])
        inside = [0.5 + 0.5 * ACTION_ATOL, -0.5 - 0.5 * ACTION_ATOL]
        outside = [0.5 + 2.0 * ACTION_ATOL, -0.5 - 2.0 * ACTION_ATOL]
        assert admissible(bounds, np.array(inside)).all()
        assert not admissible(bounds, np.array(outside)).any()

    def test_nan_fails(self):
        assert not admissible(np.array([np.nan, 1.0]), 0.0)
        assert not admissible(np.array([-1.0, np.nan]), 0.0)
        assert not admissible(np.array([-1.0, 1.0]), np.nan)

    def test_clip_keeps_interior_actions(self):
        bounds = np.array([[-1.0, 1.0], [-0.25, 0.5], [0.0, 0.0]])
        np.testing.assert_array_equal(clip_to_bounds(bounds, 0.75), [0.75, 0.5, 0.0])
        np.testing.assert_array_equal(clip_to_bounds(bounds, -0.75), [-0.75, -0.25, 0.0])


class TestStepTransition:
    def test_zero_generator_identity(self):
        grid = TimeGrid(1.0, 2)
        gen = TabulatedGenerator(np.zeros((3, 3)))
        strat = constant_strategy(grid, 3, 0.0)
        np.testing.assert_allclose(transition_stack(gen, strat)[0], np.eye(3),
                                   atol=1e-14)

    def test_symmetric_closed_form(self):
        grid = TimeGrid(0.5, 1)
        gen = TabulatedGenerator([[-1.0, 1.0], [1.0, -1.0]])
        strat = constant_strategy(grid, 2, 0.0)
        P = transition_stack(gen, strat)[0]
        half = (1.0 + np.exp(-1.0)) / 2.0
        np.testing.assert_allclose(
            P, [[half, 1.0 - half], [1.0 - half, half]], atol=1e-12)
        np.testing.assert_allclose(P, two_state_transition(1.0, 1.0, 0.5), atol=1e-12)

    def test_absorbing_closed_form(self):
        grid = TimeGrid(1.0, 1)
        gen = TabulatedGenerator([[0.0, 0.0], [1.0, -1.0]])
        strat = constant_strategy(grid, 2, 0.0)
        P = transition_stack(gen, strat)[0]
        np.testing.assert_allclose(
            P, [[1.0, 0.0], [1.0 - np.exp(-1.0), np.exp(-1.0)]], atol=1e-12)

    def test_rows_stochastic(self):
        rng = np.random.default_rng(1)
        grid = TimeGrid(1.0, 4)
        gen = random_affine_generator(rng, 4)
        strat = random_strategy(rng, gen, grid)
        for P in transition_stack(gen, strat):
            assert P.min() >= 0.0
            np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-10)


def random_generators(rng, count, m_max=10):
    """count random m x m generators, m in 2..m_max, with sparse rows,
    each paired with a step dt giving lambda * dt from 1e-6 to 50."""
    out = []
    for _ in range(count):
        m = int(rng.integers(2, m_max + 1))
        Q = rng.exponential(1.0, (m, m)) * (rng.random((m, m)) < 0.7)
        Q[0, 1] += 0.1  # lambda > 0
        np.fill_diagonal(Q, 0.0)
        np.fill_diagonal(Q, -Q.sum(axis=1))
        lam = -Q.diagonal().min()
        out.append((Q, 10.0 ** rng.uniform(-6.0, np.log10(50.0)) / lam))
    return out


class TestStochasticExponentials:
    def test_matches_scipy_expm(self):
        rng = np.random.default_rng(11)
        cases = random_generators(rng, 300)
        assert max(-Q.diagonal().min() * dt for Q, dt in cases) > 8.0  # squarings ran
        for Q, dt in cases:
            P = stochastic_exponentials(Q[None], dt, -Q.diagonal().min())[0]
            np.testing.assert_allclose(P, expm(dt * Q), rtol=0, atol=2e-13)

    def test_slices_equal_one_matrix_calls(self):
        # own rates spread over seven decades, all at the largest: each
        # slice is computed as if alone, so a shuffled stack gives the same
        # matrices
        rng = np.random.default_rng(12)
        Q = np.array([Q for Q, _ in random_generators(rng, 200, m_max=3) if len(Q) == 3])
        Q *= 10.0 ** rng.uniform(-5.0, 2.0, (len(Q), 1, 1))
        dt = 0.3
        x = np.abs(Q).max(axis=(1, 2)) * dt
        assert x.min() < POISSON_TAIL_X[4] and x.max() > 8.0
        rate = x.max() / dt
        order = rng.permutation(len(Q))
        stack = stochastic_exponentials(Q[order], dt, rate)
        for c, P in zip(order, stack):
            assert np.array_equal(P, stochastic_exponentials(Q[c:c + 1], dt, rate)[0])

    def test_any_rate_above_the_own_rate_matches_scipy_expm(self):
        # uniformization is exact for every rate at least max_i -q_ii
        rng = np.random.default_rng(13)
        for Q, dt in random_generators(rng, 100):
            own = -Q.diagonal().min()
            for scale in (1.0, 1.5, 10.0):
                P = stochastic_exponentials(Q[None], dt, scale * own)[0]
                np.testing.assert_allclose(P, expm(dt * Q), rtol=0, atol=2e-13)

    def test_short_rate_is_rejected(self):
        # a rate below a matrix's own does not cover it: the first such
        # matrix of the stack is named, and the covered ones alone pass
        rng = np.random.default_rng(14)
        Q = np.array([Q for Q, _ in random_generators(rng, 60, m_max=3) if len(Q) == 3])
        own = -np.diagonal(Q, axis1=1, axis2=2).min(axis=1)
        rate = float(np.median(own))
        assert own.min() < rate < own.max()
        first = int(np.argmax(own > rate))
        with pytest.raises(NumericalError, match="^generator not covered by the uniformization "
                                                 f"rate in matrix {first} of the stack$"):
            stochastic_exponentials(Q, 0.2, rate)
        covered = Q[own <= rate]
        stack = stochastic_exponentials(covered, 0.2, rate)
        for c, P in enumerate(stack):
            assert np.array_equal(P, stochastic_exponentials(covered[c:c + 1], 0.2, rate)[0])

    def test_zero_generator_exact_identity(self):
        # rate 0, which grid_rate gives a model with no positive exit rate
        P = stochastic_exponentials(np.zeros((3, 4, 4)), 0.7, 0.0)
        assert all(np.array_equal(Pc, np.eye(4)) for Pc in P)

    def test_tail_thresholds(self):
        # increasing from 0 to the step bound 1; at each threshold the
        # Poisson mass beyond its term count is at most 2^-53 x, and just
        # above it (below 1) that count no longer suffices
        from scipy.stats import poisson
        x = POISSON_TAIL_X
        assert x[0] == 0.0 and x[-1] == 1.0 and np.all(np.diff(x) > 0)
        K = np.arange(x.size)
        assert np.all(poisson.sf(K[1:], x[1:]) <= 2.0 ** -53 * x[1:] * (1.0 + 1e-6))
        above = x[:-1] * 1.01 + 1e-300
        assert np.all(poisson.sf(K[:-1], above) > 2.0 ** -53 * above)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rate_named(self, bad):
        Q = np.zeros((5, 2, 2))
        Q[3, 1, 0] = bad
        with pytest.raises(NumericalError, match="non-finite generator in matrix 3"):
            stochastic_exponentials(Q, 0.1, 0.5)
        with pytest.raises(NumericalError, match="non-finite generator$"):
            stochastic_exponentials(Q[3:4], 0.1, 0.5)

    def test_overflowing_squarings_are_named_under_any_errstate(self):
        # at dt = 1e20 the 67 squarings overflow; the series and its check
        # keep their own floating-point state, so a caller's that raises
        # gives no FloatingPointError
        Q = np.tile([[-1.2, 1.2], [0.9, -0.9]], (3, 1, 1))
        message = "^non-finite transition matrix in matrix 0 of the stack$"
        with np.errstate(all="raise"), pytest.raises(NumericalError, match=message):
            stochastic_exponentials(Q, 1e20, 1.2)

    def test_row_sum_check(self):
        Q = np.tile([[-1.0, 1.0], [0.3, -0.3]], (4, 1, 1))
        Q[2, 0, 0] = -1.5  # row 0 sums to -0.5
        with pytest.raises(NumericalError, match="row-sum drift .* in matrix 2"):
            stochastic_exponentials(Q, 0.1, 1.5)

    def test_sign_check(self):
        # no rate covers a negative off-diagonal rate, however small
        Q = np.tile([[-0.5, 0.5, 0.0], [0.2, -0.4, 0.2], [0.0, 1.0, -1.0]], (3, 1, 1))
        Q[1, 0] = [-0.5, 0.6, -0.1]  # sums to zero, off-diagonal -0.1
        message = "^generator not covered by the uniformization rate in matrix 1 of the stack$"
        with pytest.raises(NumericalError, match=message):
            stochastic_exponentials(Q, 0.1, 1.0)
        # a roundoff-sized negative rate, whose exponential has a negative
        # entry: no path 0 -> 1 -> 2 fills it
        Q[1] = [[-0.5, 0.5 + 1e-12, -1e-12], [0.2, -0.2, 0.0], [0.0, 1.0, -1.0]]
        assert expm(0.1 * Q[1])[0, 2] < 0.0
        with pytest.raises(NumericalError, match=message):
            stochastic_exponentials(Q, 0.1, 1.0)


class TestGridRate:
    def test_affine_rate_is_the_largest_over_the_admissible_actions(self):
        # affine rates peak at an interval end, so the rate read at the ends
        # equals the largest over a scan of every cell that includes them,
        # bit for bit
        rng = np.random.default_rng(15)
        grid = TimeGrid(0.6, 12)
        nodes = grid.nodes[:-1]
        for m in (2, 3, 5):
            gen = random_affine_generator(rng, m, grid=grid, time_varying=True)
            actions = np.swapaxes(interval_samples(gen.action_bounds(nodes), 9), 1, 2)
            exits = -np.diagonal(gen.rate_matrix(nodes[:, None], actions), axis1=2, axis2=3)
            assert grid_rate(gen, grid) == exits.max()

    def test_tabulated_rate(self):
        gen = TabulatedGenerator([[-0.7, 0.7], [0.4, -0.4]])
        assert grid_rate(gen, TimeGrid(1.0, 4)) == 0.7

    @pytest.mark.parametrize("rates", [
        [[np.nan, 0.0], [0.0, 0.0]], [[-np.inf, np.inf], [0.0, 0.0]],
        [[0.5, -0.5], [0.2, 0.3]], [[0.0, 0.0], [0.0, 0.0]],
    ], ids=["nan", "inf", "negative", "zero"])
    def test_no_positive_finite_rate_reads_zero(self, rates):
        # no exit rate is positive and finite: the rate reads 0, which
        # covers a zero generator alone
        rate = grid_rate(_FixedRates(rates), TimeGrid(1.0, 3))
        assert rate == 0.0 and not np.signbit(rate)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_cell_leaves_the_finite_cells_rate(self, bad):
        # the rate is the finite cells'; the bad cell fails coverage at its
        # own node, not everywhere
        grid = TimeGrid(1.0, 4)
        tables = np.array([[[-s, s], [0.5, -0.5]] for s in (0.3, 0.9, 0.6, 0.2)])
        tables[2, 0] = [-bad, bad]
        gen = _CellRates(tables, grid)
        assert grid_rate(gen, grid) == 0.9
        message = "^non-finite generator in matrix 2 of the stack$"
        with pytest.raises(NumericalError, match=message):
            transition_stack(gen, constant_strategy(grid, 2, 0.0))

    def test_cells_below_the_grid_rate_stay_exact(self):
        # exit rates ramp 10x over the cells: all but the last are
        # uniformized at a rate up to 10x their own
        grid = TimeGrid(0.5, 30)
        gen, _ = build_model(ramped_model(grid.steps), grid)
        strat = random_strategy(np.random.default_rng(16), gen, grid)
        Q = gen.rate_matrix(grid.nodes[:-1], strat.actions)
        own = -np.diagonal(Q, axis1=1, axis2=2).min(axis=1)
        assert grid_rate(gen, grid) >= 9.0 * own[0]
        for P, Qk in zip(transition_stack(gen, strat), Q):
            np.testing.assert_allclose(P, expm(grid.dt * Qk), rtol=0, atol=2e-13)


class TestPropagateFlow:
    def test_zero_generator_constant(self):
        grid = TimeGrid(1.0, 5)
        gen = TabulatedGenerator(np.zeros((3, 3)))
        rho = ProbabilityVector([0.2, 0.5, 0.3])
        flow = strategy_flow(gen, rho, constant_strategy(grid, 3, 0.0))
        for k in range(6):
            np.testing.assert_allclose(flow.at(k), rho.weights, atol=1e-14)

    def test_symmetric_dirac_oracle(self):
        grid = TimeGrid(0.5, 100)
        gen = TabulatedGenerator([[-1.0, 1.0], [1.0, -1.0]])
        flow = strategy_flow(gen, dirac(0, 2), constant_strategy(grid, 2, 0.0))
        for k in (25, 50, 100):
            expected = two_state_transition(1.0, 1.0, grid.nodes[k])[0]
            np.testing.assert_allclose(flow.at(k), expected, atol=1e-8)

    def test_conservation(self):
        rng = np.random.default_rng(2)
        grid = TimeGrid(1.0, 50)
        gen = random_affine_generator(rng, 5)
        strat = random_strategy(rng, gen, grid)
        flow = strategy_flow(gen, rng.dirichlet(np.ones(5)), strat)
        sums = flow.values.sum(axis=1)
        assert np.abs(sums - 1.0).max() <= 1e-10
        assert flow.values.min() >= -1e-12

    def test_contraction_in_initial_data(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = int(rng.integers(2, 5))
            grid = TimeGrid(float(rng.uniform(0.3, 1.0)), int(rng.integers(5, 30)))
            gen = random_affine_generator(rng, m)
            strat = random_strategy(rng, gen, grid)
            rho, gamma = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(m))
            stack = transition_stack(gen, strat)
            f1 = propagate_flow(rho, stack, grid)
            f2 = propagate_flow(gamma, stack, grid)
            base = tv_distance(rho, gamma)
            for k in range(grid.steps + 1):
                assert tv_distance(f1.at(k), f2.at(k)) <= base + 1e-12

    def test_strategy_stability(self):
        # d(flow, flow') <= d(rho, gamma) + kappa1 * integral of action gap;
        # exponential stepping solves the frozen dynamics exactly, so the
        # observed slack is pure roundoff
        rng = np.random.default_rng(4)
        for _ in range(10):
            m = int(rng.integers(2, 5))
            grid = TimeGrid(float(rng.uniform(0.3, 1.0)), int(rng.integers(5, 30)))
            gen = random_affine_generator(rng, m)
            kappa1 = validate_generator(gen, grid, samples=4)
            s1 = random_strategy(rng, gen, grid)
            s2 = random_strategy(rng, gen, grid)
            rho, gamma = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(m))
            f1 = strategy_flow(gen, rho, s1)
            f2 = strategy_flow(gen, gamma, s2)
            base = tv_distance(rho, gamma)
            gaps = np.abs(s1.actions - s2.actions).max(axis=1)
            integral = np.concatenate([[0.0], np.cumsum(gaps) * grid.dt])
            for k in range(grid.steps + 1):
                lhs = tv_distance(f1.at(k), f2.at(k))
                assert lhs <= base + kappa1 * integral[k] + 1e-9

    def test_matches_dense_exponential_on_homogeneous_model(self):
        rng = np.random.default_rng(5)
        grid = TimeGrid(0.8, 64)
        gen = random_affine_generator(rng, 4)
        strat = constant_strategy(grid, 4, 0.1)
        rho = rng.dirichlet(np.ones(4))
        flow = strategy_flow(gen, rho, strat)
        Q = gen.rate_matrix(0.0, np.full(4, 0.1))
        dense = rho @ expm(grid.horizon * Q)
        np.testing.assert_allclose(flow.at(grid.steps), dense, atol=1e-8)

    @pytest.mark.parametrize("steps, m", [(9, 3), (11, 3), (10, 2), (10, 4)])
    def test_stack_must_fit_grid_and_law(self, steps, m):
        # a stack one cell short or long, or of another state count than
        # the law's, is refused rather than read in part
        grid = TimeGrid(0.5, 10)
        stack = np.broadcast_to(np.eye(m), (steps, m, m))
        with pytest.raises(DimensionMismatch, match=rf"\(10, 3, 3\).*\({steps}, {m}, {m}\)"):
            propagate_flow([0.2, 0.3, 0.5], stack, grid)
        assert propagate_flow([0.2, 0.3, 0.5], np.broadcast_to(np.eye(3), (10, 3, 3)),
                              grid).grid is grid

    @pytest.mark.parametrize("k", [0, 4, 9])
    def test_non_finite_step_named(self, k):
        rng = np.random.default_rng(7)
        grid = TimeGrid(0.5, 10)
        gen = random_affine_generator(rng, 3)
        strat = random_strategy(rng, gen, grid)
        stack = transition_stack(gen, strat)
        stack[k, 1, 2] = np.nan
        # FlowCurve names the node that cell k's step reaches
        with pytest.raises(NumericalError,
                           match=f"^non-finite mass at node {k + 1} of the flow$"):
            propagate_flow([0.2, 0.3, 0.5], stack, grid)

    @pytest.mark.parametrize("k", [0, 4, 9])
    def test_negative_mass_step_named(self, k):
        # every row of cell k maps any law to (1.5, -0.5, 0); a NaN in a
        # later cell does not hide the first failing step
        rng = np.random.default_rng(8)
        grid = TimeGrid(0.5, 10)
        gen = random_affine_generator(rng, 3)
        strat = random_strategy(rng, gen, grid)
        stack = transition_stack(gen, strat)
        stack[k] = [1.5, -0.5, 0.0]
        stack[k + 1:, 0, 0] = np.nan
        with pytest.raises(NumericalError,
                           match=f"^negative mass -5.000e-01 at node {k + 1} of the flow$"):
            propagate_flow([0.2, 0.3, 0.5], stack, grid)


class TestTransitionStack:
    @pytest.mark.parametrize("m, time_varying", [(2, False), (3, True), (4, False)])
    def test_stacked_expm_equals_per_cell_loop(self, m, time_varying):
        rng = np.random.default_rng(m)
        grid = TimeGrid(0.7, 300)
        gen = random_affine_generator(rng, m, grid=grid, time_varying=time_varying)
        strat = random_strategy(rng, gen, grid)
        assert np.array_equal(transition_stack(gen, strat), transition_loop(gen, strat))

    def test_actions_in_the_slack_take_their_interval_ends(self):
        # check_admissible admits an action up to ACTION_ATOL past its
        # interval, where the grid's rate need not cover it: the stack
        # exponentiates the interval's end instead
        rng = np.random.default_rng(5)
        grid = TimeGrid(0.7, 40)
        gen = random_affine_generator(rng, 3, grid=grid, time_varying=True)
        bounds = gen.action_bounds(grid.nodes[:-1])
        upper = rng.random((grid.steps, 3)) < 0.5
        ends = np.where(upper, bounds[..., 1], bounds[..., 0])
        past = ends + np.where(upper, 0.5, -0.5) * ACTION_ATOL
        assert np.array_equal(transition_stack(gen, StrategyTable(past, grid)),
                              transition_loop(gen, StrategyTable(ends, grid)))

    def test_inadmissible_cell_named(self):
        grid = TimeGrid(1.0, 6)
        # state 1 admits [-1, 1] but state 0 only [-0.5, 1]
        gen = AffineQuadraticModel([[-0.2, 0.2], [1.0, -1.0]], [-0.4, 0.4])
        actions = np.zeros((6, 2))
        actions[4, 0] = -0.9
        with pytest.raises(AdmissibilityError, match="node 4, state 0"):
            transition_stack(gen, StrategyTable(actions, grid))

    def test_nan_bounds_admit_nothing(self):
        grid = TimeGrid(1.0, 3)
        strat = constant_strategy(grid, 2, 0.0)
        with pytest.raises(AdmissibilityError, match="node 0, state 0"):
            strat.check_admissible(_NanBounds())
        with pytest.raises(AdmissibilityError):
            transition_stack(_NanBounds(), strat)


class TestFlowCurve:
    def test_shape_check(self):
        grid = TimeGrid(1.0, 3)
        with pytest.raises(DimensionMismatch):
            FlowCurve(np.full((3, 2), 0.5), grid)

    def test_mass_drift_rejected(self):
        grid = TimeGrid(1.0, 1)
        with pytest.raises(NumericalError):
            FlowCurve([[0.5, 0.4], [0.5, 0.5]], grid)

    @pytest.mark.parametrize("row, later, message", [
        ([np.nan, 1.0], [np.nan, np.nan], "non-finite mass"),
        ([1.5, -0.5], [np.nan, np.nan], "negative mass -5.000e-01"),
        ([np.inf, 0.0], [1.5, -0.5], "non-finite mass"),
        ([0.5, 0.4], [0.5, 0.1], "mass drift 1.000e-01"),
    ], ids=["nan", "negative", "inf", "drift"])
    def test_first_failing_node_named(self, row, later, message):
        # node 2 fails; a later node that fails as well, or worse, does not
        # hide it
        values = np.full((5, 2), 0.5)
        values[2], values[3] = row, later
        with pytest.raises(NumericalError, match=f"^{message} at node 2 of the flow$"):
            FlowCurve(values, TimeGrid(1.0, 4))

    def test_sup_distance(self):
        grid = TimeGrid(1.0, 1)
        a = FlowCurve([[1.0, 0.0], [0.5, 0.5]], grid)
        b = FlowCurve([[0.5, 0.5], [0.5, 0.5]], grid)
        assert a.sup_distance(b) == pytest.approx(1.0, abs=TOL)
