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
                        clip_to_bounds, stochastic_exponentials)

from instances import random_affine_generator, random_strategy, two_state_transition
import oracles
from oracles import constant_strategy, dirac, transition_loop, tv_distance

TOL = 1e-12


class TestTimeGrid:
    def test_nodes(self):
        grid = TimeGrid(1.0, 4)
        assert grid.dt == 0.25
        np.testing.assert_allclose(grid.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert np.all(np.diff(grid.nodes) > 0)

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
        report = validate_generator(gen, TimeGrid(0.5, 8), samples=6)
        assert report.ok
        # rows are affine in the action: the l1 sensitivity is exactly sum |beta|
        assert report.kappa1_hat == pytest.approx(0.8, abs=1e-12)
        assert report.K1_hat <= gen.K1 + 1e-12

    def test_row_sum_defect_reported(self):
        report = validate_generator(_RowSumDefect(), TimeGrid(1.0, 2), samples=2)
        assert not report.ok
        assert report.row_sum_violations

    def test_zero_generator(self):
        gen = TabulatedGenerator(np.zeros((2, 2)))
        report = validate_generator(gen, TimeGrid(1.0, 2))
        assert report.ok
        assert report.kappa1_hat == 0.0
        assert report.K1_hat == 0.0

    def test_row_sum_defect_equals_scalar_loop(self):
        grid = TimeGrid(1.0, 3)
        for samples in (2, 5):
            report = validate_generator(_RowSumDefect(), grid, samples=samples)
            assert report == oracles.validate_generator(_RowSumDefect(), grid, samples)

    @pytest.mark.parametrize("time_varying", [False, True])
    def test_equals_scalar_loop_on_random_models(self, time_varying):
        rng = np.random.default_rng(40 + time_varying)
        for m in (2, 3, 5, 10):
            grid = TimeGrid(float(rng.uniform(0.3, 1.5)), int(rng.integers(5, 15)))
            gen = random_affine_generator(rng, m, grid=grid, time_varying=time_varying)
            for samples in (2, 3, 8):
                report = validate_generator(gen, grid, samples=samples)
                assert report == oracles.validate_generator(gen, grid, samples)

    def test_equals_scalar_loop_with_violations_and_point_intervals(self):
        # rows that break both checks, and states whose interval is one
        # point, over more nodes than one block of validate_generator
        rng = np.random.default_rng(42)
        grid = TimeGrid(1.0, 150)
        gen = _Leaky(random_affine_generator(rng, 4, grid=grid, time_varying=True))
        report = validate_generator(gen, grid, samples=4)
        assert report.row_sum_violations and report.sign_violations
        assert report == oracles.validate_generator(gen, grid, 4)
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
            P = stochastic_exponentials(Q[None], dt)[0]
            np.testing.assert_allclose(P, expm(dt * Q), rtol=0, atol=2e-13)

    def test_slices_equal_one_matrix_calls(self):
        # a stack mixing term counts and squarings: each slice is computed
        # as if alone, so a shuffled stack gives the same matrices
        rng = np.random.default_rng(12)
        Q = np.array([Q for Q, _ in random_generators(rng, 200, m_max=3) if len(Q) == 3])
        Q *= 10.0 ** rng.uniform(-5.0, 2.0, (len(Q), 1, 1))
        dt = 0.3
        x = np.abs(Q).max(axis=(1, 2)) * dt
        assert x.min() < POISSON_TAIL_X[4] and x.max() > 8.0
        order = rng.permutation(len(Q))
        stack = stochastic_exponentials(Q[order], dt)
        for c, P in zip(order, stack):
            assert np.array_equal(P, stochastic_exponentials(Q[c:c + 1], dt)[0])

    def test_zero_generator_exact_identity(self):
        Q = np.zeros((3, 4, 4))
        Q[1] = [[-1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, -0.5]]
        P = stochastic_exponentials(Q, 0.7)
        assert np.array_equal(P[0], np.eye(4)) and np.array_equal(P[2], np.eye(4))

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
            stochastic_exponentials(Q, 0.1)
        with pytest.raises(NumericalError, match="non-finite generator$"):
            stochastic_exponentials(Q[3:4], 0.1)

    def test_row_sum_check(self):
        Q = np.tile([[-1.0, 1.0], [0.3, -0.3]], (4, 1, 1))
        Q[2, 0, 0] = -1.5  # row 0 sums to -0.5
        with pytest.raises(NumericalError, match="row-sum drift .* in matrix 2"):
            stochastic_exponentials(Q, 0.1)

    def test_sign_check(self):
        Q = np.tile([[-0.5, 0.5, 0.0], [0.2, -0.4, 0.2], [0.0, 1.0, -1.0]], (3, 1, 1))
        Q[1, 0] = [-0.5, 0.6, -0.1]  # sums to zero, off-diagonal -0.1
        with pytest.raises(NumericalError, match="entry .* below tolerance in matrix 1"):
            stochastic_exponentials(Q, 0.1)
        # a roundoff-sized negative rate gives a negative entry above
        # -MASS_ATOL, clipped to zero; no path 0 -> 1 -> 2 fills it
        Q[1] = [[-0.5, 0.5 + 1e-12, -1e-12], [0.2, -0.2, 0.0], [0.0, 1.0, -1.0]]
        assert expm(0.1 * Q[1])[0, 2] < 0.0
        assert stochastic_exponentials(Q, 0.1)[1, 0, 2] == 0.0


class TestPropagateFlow:
    def test_zero_generator_constant(self):
        grid = TimeGrid(1.0, 5)
        gen = TabulatedGenerator(np.zeros((3, 3)))
        rho = ProbabilityVector([0.2, 0.5, 0.3])
        flow = propagate_flow(gen, rho, constant_strategy(grid, 3, 0.0), grid)
        for k in range(6):
            np.testing.assert_allclose(flow.at(k), rho.weights, atol=1e-14)

    def test_symmetric_dirac_oracle(self):
        grid = TimeGrid(0.5, 100)
        gen = TabulatedGenerator([[-1.0, 1.0], [1.0, -1.0]])
        flow = propagate_flow(gen, dirac(0, 2),
                              constant_strategy(grid, 2, 0.0), grid)
        for k in (25, 50, 100):
            expected = two_state_transition(1.0, 1.0, grid.nodes[k])[0]
            np.testing.assert_allclose(flow.at(k), expected, atol=1e-8)

    def test_conservation(self):
        rng = np.random.default_rng(2)
        grid = TimeGrid(1.0, 50)
        gen = random_affine_generator(rng, 5)
        strat = random_strategy(rng, gen, grid)
        flow = propagate_flow(gen, rng.dirichlet(np.ones(5)), strat, grid)
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
            f1 = propagate_flow(gen, rho, strat, grid)
            f2 = propagate_flow(gen, gamma, strat, grid)
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
            kappa1 = validate_generator(gen, grid, samples=4).kappa1_hat
            s1 = random_strategy(rng, gen, grid)
            s2 = random_strategy(rng, gen, grid)
            rho, gamma = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(m))
            f1 = propagate_flow(gen, rho, s1, grid)
            f2 = propagate_flow(gen, gamma, s2, grid)
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
        flow = propagate_flow(gen, rho, strat, grid)
        Q = gen.rate_matrix(0.0, np.full(4, 0.1))
        dense = rho @ expm(grid.horizon * Q)
        np.testing.assert_allclose(flow.at(grid.steps), dense, atol=1e-8)

    def test_transition_stack_reuse(self):
        rng = np.random.default_rng(6)
        grid = TimeGrid(0.5, 10)
        gen = random_affine_generator(rng, 3)
        strat = random_strategy(rng, gen, grid)
        rho = rng.dirichlet(np.ones(3))
        stack = transition_stack(gen, strat)
        a = propagate_flow(gen, rho, strat, grid)
        b = propagate_flow(gen, rho, strat, grid, transitions=stack)
        np.testing.assert_array_equal(a.values, b.values)

    @pytest.mark.parametrize("k", [0, 4, 9])
    def test_non_finite_step_named(self, k):
        rng = np.random.default_rng(7)
        grid = TimeGrid(0.5, 10)
        gen = random_affine_generator(rng, 3)
        strat = random_strategy(rng, gen, grid)
        stack = transition_stack(gen, strat)
        stack[k, 1, 2] = np.nan
        with pytest.raises(NumericalError, match=f"^non-finite mass after step {k}$"):
            propagate_flow(gen, [0.2, 0.3, 0.5], strat, grid, transitions=stack)

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
                           match=f"^negative mass -5.000e-01 after step {k}$"):
            propagate_flow(gen, [0.2, 0.3, 0.5], strat, grid, transitions=stack)


class TestTransitionStack:
    @pytest.mark.parametrize("m, time_varying", [(2, False), (3, True), (4, False)])
    def test_stacked_expm_equals_per_cell_loop(self, m, time_varying):
        rng = np.random.default_rng(m)
        grid = TimeGrid(0.7, 300)
        gen = random_affine_generator(rng, m, grid=grid, time_varying=time_varying)
        strat = random_strategy(rng, gen, grid)
        assert np.array_equal(transition_stack(gen, strat), transition_loop(gen, strat))

    def test_inadmissible_cell_named(self):
        grid = TimeGrid(1.0, 6)
        # state 1 admits [-1, 1] but state 0 only [-0.5, 1]
        gen = AffineQuadraticModel([[-0.2, 0.2], [1.0, -1.0]], [-0.4, 0.4])
        actions = np.zeros((6, 2))
        actions[4, 0] = -0.9
        with pytest.raises(AdmissibilityError, match="node 4, state 0"):
            transition_stack(gen, StrategyTable(actions, grid))
        with pytest.raises(AdmissibilityError, match="node 4, state 0"):
            propagate_flow(gen, [0.5, 0.5], StrategyTable(actions, grid))

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

    def test_sup_distance(self):
        grid = TimeGrid(1.0, 1)
        a = FlowCurve([[1.0, 0.0], [0.5, 0.5]], grid)
        b = FlowCurve([[0.5, 0.5], [0.5, 0.5]], grid)
        assert a.sup_distance(b) == pytest.approx(1.0, abs=TOL)
