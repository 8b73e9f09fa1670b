"""Fixed-point loop: convergence, diagnostics, constant estimation."""

import sys
import tracemalloc

import numpy as np
import pytest

from mfeq import (
    AffineQuadraticModel,
    ContractionReport,
    ProbabilityVector,
    SeparableCost,
    SolverOptions,
    TimeGrid,
    estimate_constants,
    picard_solve,
    propagate_flow,
)
from mfeq import chain, hj, solver
from mfeq.errors import AdmissibilityError
from mfeq.modelfile import build_model, builtin_names, read_model_file
from mfeq.solver import IterationDiagnostics, contraction_verdict, myopic_strategy

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

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(tolerance=0.0)
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
        ref = propagate_flow(gen, rho, expected)
        np.testing.assert_array_equal(eq.flow.values, ref.values)
        assert eq.values.low == eq.values.high == 0.0

    def test_contractive_gap_ratios(self, affine_mv):
        grid, gen, cost = affine_mv
        eq = picard_solve(gen, cost, ProbabilityVector.uniform(2), grid)
        report = estimate_constants(gen, cost, grid, seed=0)
        assert contraction_verdict(report, eq.diagnostics) == "contractive"
        for a, b in zip(eq.diagnostics.gaps, eq.diagnostics.gaps[1:]):
            if a > 1e-13 and b > 1e-13:
                assert b / a <= report.product + 0.1

    def test_initial_law_and_grid_come_from_the_flow(self, affine_mv):
        grid, gen, cost = affine_mv
        rho = ProbabilityVector([0.3, 0.7])
        eq = picard_solve(gen, cost, rho, grid)
        assert np.array_equal(eq.rho, rho.weights)
        assert eq.grid is eq.flow.grid and eq.grid == grid

    def test_fixed_point_residual(self, affine_mv):
        grid, gen, cost = affine_mv
        eq = picard_solve(gen, cost, ProbabilityVector.uniform(2), grid)
        assert eq.converged
        # the stored flow is the exact propagation of the stored policy
        again = propagate_flow(gen, eq.rho, eq.policy)
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

    @pytest.mark.parametrize("count", [2, 3, 4, 5, 8, 9, 201])
    def test_diagnostics_ratio_is_np_median_bit_for_bit(self, count):
        # count gaps give count - 1 ratios: odd and even counts of both
        rng = np.random.default_rng(count)
        gaps = [float(g) for g in np.exp(np.cumsum(rng.normal(-0.1, 0.7, count)))]
        diagnostics = IterationDiagnostics(gaps=gaps, iterations=count)
        assert len(diagnostics.ratios) == count - 1
        assert type(diagnostics.ratio) is float
        assert diagnostics.ratio == float(np.median(diagnostics.ratios))

    def test_diagnostics_ratio_without_ratios_is_nan(self):
        for gaps in ([], [0.3], [0.0, 0.2]):
            assert np.isnan(IterationDiagnostics(gaps=gaps).ratio)

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
        eq = picard_solve(gen, cost, ProbabilityVector.uniform(3), grid)
        assert contraction_verdict(report, eq.diagnostics) == "contractive"

    def test_distribution_independent_kills_kappa3(self):
        model = read_model_file("dist_independent")
        grid = TimeGrid(model["horizon"], 20)
        gen, cost = build_model(model, grid)
        report = estimate_constants(gen, cost, grid, samples=3, seed=1)
        assert report.kappa3 == 0.0
        eq = picard_solve(gen, cost, ProbabilityVector.uniform(gen.m), grid)
        assert contraction_verdict(report, eq.diagnostics) == "contractive"

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
        # exponentiated by one series over all flows at once
        model = read_model_file("affine_mv")
        grid = TimeGrid(model["horizon"], 1000)
        gen, cost = build_model(model, grid)
        batch_sizes = []

        def counted(A, plan, out=None):
            batch_sizes.append(len(A))
            return chain._series(A, plan, out)

        monkeypatch.setattr(hj, "_series", counted)
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


class TestContractionVerdict:
    REPORT = ContractionReport(kappa1=0.8, kappa2=0.8, kappa3=1.0, horizon=0.5)  # product 0.32

    @pytest.mark.parametrize("gaps, converged, verdict", [
        ([1e-2, 1e-3, 1e-4, 1e-9], True, "contractive"),  # ratio 0.1
        ([1e-2, 1e-9], True, "contractive"),
        ([1e-9], True, "contractive"),  # one gap: no observed ratio
        ([1e-2, 1e-3, 1e-4], False, "not-provably-contractive"),
        ([1e-2, 5e-3, 2.5e-3, 1e-9], True, "not-provably-contractive"),  # median ratio 0.5
    ])
    def test_reads_the_run(self, gaps, converged, verdict):
        diagnostics = IterationDiagnostics(gaps=gaps, iterations=len(gaps), converged=converged)
        assert contraction_verdict(self.REPORT, diagnostics) == verdict

    def test_product_of_one_is_not_contractive(self):
        diagnostics = IterationDiagnostics(gaps=[1e-9], iterations=1, converged=True)
        report = ContractionReport(kappa1=1.0, kappa2=1.0, kappa3=1.0, horizon=1.0)
        assert contraction_verdict(report, diagnostics) == "not-provably-contractive"


class TestNodeRate:
    def test_shipped_solves_move_at_roundoff_only(self, monkeypatch):
        # uniformization is exact for any rate that covers the generators:
        # at 4x the grid's rate, with more terms and squarings, each shipped
        # solve and its kappa3 stay within 1e-12, in as many Picard iterations
        def solve(name):
            model = read_model_file(name)
            grid = TimeGrid(model["horizon"], 200)
            gen, cost = build_model(model, grid)
            eq = picard_solve(gen, cost, ProbabilityVector.uniform(gen.m), grid)
            return eq, estimate_constants(gen, cost, grid, samples=4, seed=0)

        at_grid_rate = {name: solve(name) for name in builtin_names()}

        def quadrupled(model, grid, _grid_rate=chain.grid_rate):
            return 4.0 * _grid_rate(model, grid)

        # every module that imports the name, so that each call reads the patch
        users = [module for name, module in sys.modules.items()
                 if name.startswith("mfeq.")
                 and getattr(module, "grid_rate", None) is chain.grid_rate]
        assert {chain, hj, sys.modules["mfeq.verify"], sys.modules["mfeq.simulate"]} <= set(users)
        for module in users:
            monkeypatch.setattr(module, "grid_rate", quadrupled)
        moved = False
        for name, (eq, report) in at_grid_rate.items():
            high, high_report = solve(name)
            assert eq.diagnostics.iterations == high.diagnostics.iterations, name
            for new, old in ((eq.flow.values, high.flow.values),
                             (eq.policy.actions, high.policy.actions),
                             (eq.values.values, high.values.values),
                             (eq.values.low, high.values.low), (eq.values.high, high.values.high),
                             (report.kappa3, high_report.kappa3)):
                assert np.abs(new - old).max() <= 1e-12, name
                moved |= not np.array_equal(new, old)
        assert moved  # the patch reached the sweep
