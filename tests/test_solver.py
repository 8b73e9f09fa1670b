"""Fixed-point loop: convergence, diagnostics, constant estimation."""

import tracemalloc

import numpy as np
import pytest

from mfeq import (
    AffineQuadraticModel,
    ProbabilityVector,
    SeparableCost,
    SolverOptions,
    TimeGrid,
    estimate_constants,
    picard_solve,
    propagate_flow,
)
from mfeq import hj, solver
from mfeq.chain import uniformize
from mfeq.errors import AdmissibilityError
from mfeq.modelfile import build_model, read_model_file
from mfeq.solver import myopic_strategy

import oracles
from instances import OutsideArgmin, random_flow
from oracles import constant_flow


@pytest.fixture(scope="module")
def affine_mv():
    model = read_model_file("affine_mv")
    grid = TimeGrid(model["horizon"], 60)
    gen, cost = build_model(model, grid)
    return grid, gen, cost


class TestSolverOptions:
    def test_defaults(self):
        opts = SolverOptions()
        assert opts.tolerance == 1e-8
        assert opts.max_iterations == 200
        assert opts.relaxation == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(tolerance=0.0)
        with pytest.raises(ValueError):
            SolverOptions(relaxation=0.0)
        with pytest.raises(ValueError):
            SolverOptions(relaxation=1.5)
        with pytest.raises(ValueError):
            SolverOptions(max_iterations=0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_rejects_non_finite_tolerance(self, tol):
        # a NaN tolerance would never stop the loop, yet report a final gap
        with pytest.raises(ValueError, match="finite"):
            SolverOptions(tolerance=tol)


class TestPicardSolve:
    def test_distribution_independent_converges_at_iteration_two(self):
        model = read_model_file("dist_independent")
        grid = TimeGrid(model["horizon"], 40)
        gen, cost = build_model(model, grid)
        eq = picard_solve(gen, cost, ProbabilityVector.uniform(3), grid)
        assert eq.converged
        assert eq.diagnostics.iterations == 2
        assert eq.diagnostics.gaps[1] == 0.0

    def test_distribution_independent_policy_ignores_initial_law(self):
        model = read_model_file("dist_independent")
        grid = TimeGrid(model["horizon"], 40)
        gen, cost = build_model(model, grid)
        rhos = [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.2, 0.5, 0.3]]
        policies = [picard_solve(gen, cost, ProbabilityVector(r), grid).policy.actions
                    for r in rhos]
        for other in policies[1:]:
            np.testing.assert_array_equal(policies[0], other)

    def test_zero_cost_equilibrium(self):
        model = read_model_file("zero_cost")
        grid = TimeGrid(model["horizon"], 30)
        gen, cost = build_model(model, grid)
        rho = ProbabilityVector([0.3, 0.7])
        eq = picard_solve(gen, cost, rho, grid)
        assert eq.converged
        expected = myopic_strategy(gen, cost, grid)
        np.testing.assert_array_equal(eq.policy.actions, expected.actions)
        ref = propagate_flow(gen, rho, expected, grid)
        np.testing.assert_array_equal(eq.flow.values, ref.values)
        assert eq.values.low == eq.values.high == 0.0

    def test_contractive_gap_ratios(self, affine_mv):
        grid, gen, cost = affine_mv
        eq = picard_solve(gen, cost, ProbabilityVector.uniform(2), grid)
        report = estimate_constants(gen, cost, grid, seed=0)
        assert report.verdict == "contractive"
        for a, b in zip(eq.diagnostics.gaps, eq.diagnostics.gaps[1:]):
            if a > 1e-13 and b > 1e-13:
                assert b / a <= report.product + 0.1

    def test_fixed_point_residual(self, affine_mv):
        grid, gen, cost = affine_mv
        eq = picard_solve(gen, cost, ProbabilityVector.uniform(2), grid)
        assert eq.converged
        # the stored flow is the exact propagation of the stored policy
        again = propagate_flow(gen, eq.rho, eq.policy, grid)
        assert eq.flow.sup_distance(again) == 0.0

    def test_initial_guess_independence(self, affine_mv):
        grid, gen, cost = affine_mv
        rng = np.random.default_rng(11)
        opts = SolverOptions(tolerance=1e-8)
        eq1 = picard_solve(gen, cost, ProbabilityVector.uniform(2), grid, opts)
        eq2 = picard_solve(gen, cost, ProbabilityVector.uniform(2), grid, opts,
                           initial_flow=random_flow(rng, grid, 2))
        assert eq1.converged and eq2.converged
        assert eq1.flow.sup_distance(eq2.flow) <= 10.0 * opts.tolerance

    def test_relaxation_still_converges(self, affine_mv):
        grid, gen, cost = affine_mv
        opts = SolverOptions(relaxation=0.7)
        eq = picard_solve(gen, cost, ProbabilityVector.uniform(2), grid, opts)
        assert eq.converged
        again = propagate_flow(gen, eq.rho, eq.policy, grid)
        assert eq.flow.sup_distance(again) == 0.0

    def test_non_convergence_is_flagged_not_raised(self, affine_mv):
        grid, gen, cost = affine_mv
        opts = SolverOptions(tolerance=1e-16, max_iterations=3)
        eq = picard_solve(gen, cost, ProbabilityVector.uniform(2), grid, opts)
        assert not eq.converged
        assert eq.diagnostics.iterations == 3
        assert len(eq.diagnostics.gaps) == 3

    def test_diagnostics_ratio_median(self, affine_mv):
        grid, gen, cost = affine_mv
        eq = picard_solve(gen, cost, ProbabilityVector.uniform(2), grid)
        assert np.isfinite(eq.diagnostics.ratio)
        assert 0.0 <= eq.diagnostics.ratio < 1.0

    def test_inadmissible_argmin_is_rejected(self):
        # the forward propagation reuses the sweep's transitions, so the
        # policy must still be checked once per iteration
        grid = TimeGrid(0.5, 10)
        gen = AffineQuadraticModel([[-1.0, 1.0], [1.0, -1.0]], [0.3, -0.3])
        cost = OutsideArgmin(2, terminal=("table", [0.0, 1.0]), horizon=0.5)
        with pytest.raises(AdmissibilityError):
            picard_solve(gen, cost, ProbabilityVector.uniform(2), grid,
                         initial_flow=constant_flow([0.5, 0.5], grid))


class TestEstimateConstants:
    def test_control_free_model_trivially_contractive(self):
        grid = TimeGrid(1.0, 10)
        alpha = np.array([[-0.9, 0.5, 0.4], [0.3, -0.7, 0.4], [0.2, 0.6, -0.8]])
        gen = AffineQuadraticModel(alpha, np.zeros(3))
        cost = SeparableCost(3, terminal=("mean_variance", "g"))
        report = estimate_constants(gen, cost, grid, samples=3, seed=0)
        assert report.kappa1 == 0.0
        assert report.product == 0.0
        assert report.verdict == "contractive"

    def test_distribution_independent_kills_kappa3(self):
        model = read_model_file("dist_independent")
        grid = TimeGrid(model["horizon"], 20)
        gen, cost = build_model(model, grid)
        report = estimate_constants(gen, cost, grid, samples=3, seed=1)
        assert report.kappa3 == 0.0
        assert report.verdict == "contractive"

    def test_kappa2_matches_clip_map_constant(self, affine_mv):
        grid, gen, cost = affine_mv
        report = estimate_constants(gen, cost, grid, samples=6, seed=2)
        # the clip argmin is Lipschitz with constant sum |beta| exactly, and
        # sign-pattern probing attains it when the stationary point is interior
        beta_l1 = float(np.abs(gen.coefficients_at(grid.nodes)[1]).sum(-1).max())
        assert report.kappa2 <= beta_l1 + 1e-9
        assert report.kappa2 >= 0.95 * beta_l1

    @pytest.mark.parametrize("name", ["affine_mv", "affine_mv_gtilde"])
    def test_rank2_kappa3_matches_dense_estimator(self, name, monkeypatch):
        model = read_model_file(name)
        grid = TimeGrid(model["horizon"], 40)
        gen, cost = build_model(model, grid)
        factored = estimate_constants(gen, cost, grid, samples=3, seed=4)
        monkeypatch.setattr(solver, "table_distances", oracles.dense_table_distances)
        dense = estimate_constants(gen, cost, grid, samples=3, seed=4)
        assert factored.kappa3 > 0.0
        assert factored.kappa3 == pytest.approx(dense.kappa3, rel=1e-12)
        assert (factored.kappa1, factored.kappa2) == (dense.kappa1, dense.kappa2)

    def test_kappa2_probe_batch_equals_single_calls(self, affine_mv, monkeypatch):
        # the same estimator with one argmin call per probe
        grid, gen, cost = affine_mv
        batched = estimate_constants(gen, cost, grid, samples=4, seed=5)
        single = type(cost).argmin_profile

        def one_row_at_a_time(self, gen, t, h):
            return np.array([single(self, gen, t, row) for row in h])

        monkeypatch.setattr(type(cost), "argmin_profile", one_row_at_a_time)
        rows = estimate_constants(gen, cost, grid, samples=4, seed=5)
        assert batched.kappa2 == rows.kappa2

    def test_kappa3_sweeps_cells_once_in_lockstep(self, monkeypatch):
        # all 12 kappa3 flows share one backward sweep: each cell is
        # exponentiated by one uniformize call, for all flows at once
        model = read_model_file("affine_mv")
        grid = TimeGrid(model["horizon"], 1000)
        gen, cost = build_model(model, grid)
        batch_sizes = []

        def counted(generators, dt, where):
            batch_sizes.append(len(generators))
            return uniformize(generators, dt, where)

        monkeypatch.setattr(hj, "uniformize", counted)
        estimate_constants(gen, cost, grid, seed=0)
        assert batch_sizes == [12] * grid.steps

    def test_memory_is_linear_in_steps(self):
        # one dense table of affine_mv at N=1000 takes 16 MB
        model = read_model_file("affine_mv")
        grid = TimeGrid(model["horizon"], 1000)
        gen, cost = build_model(model, grid)
        tracemalloc.start()
        try:
            estimate_constants(gen, cost, grid, samples=2, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_report_wording(self, affine_mv):
        grid, gen, cost = affine_mv
        report = estimate_constants(gen, cost, grid, samples=2, seed=3)
        assert "lower bounds" in report.note
        assert report.kappa1 >= 0 and report.kappa2 >= 0 and report.kappa3 >= 0
