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
    StrategyTable,
    TimeGrid,
    estimate_constants,
    picard_solve,
)
from mfeq import chain, hj, solver
from mfeq.errors import AdmissibilityError
from mfeq.modelfile import build_model, builtin_names, read_model_file, validate_model
from mfeq.solver import (IterationDiagnostics, contraction_verdict, draw_probes,
                         myopic_strategy)

import oracles
from instances import (OutsideArgmin, random_affine_generator, ramped_model, random_flow,
                       rounded_end_model, tabulated_model)
from oracles import constant_flow, strategy_flow


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
        ref = strategy_flow(gen, rho, expected)
        np.testing.assert_array_equal(eq.flow.values, ref.values)
        assert eq.values.low == eq.values.high == 0.0

    def test_contractive_gap_ratios(self, affine_mv):
        grid, gen, cost = affine_mv
        eq = picard_solve(gen, cost, ProbabilityVector.uniform(2), grid)
        report = estimate_constants(gen, cost, grid, draw_probes(gen, cost, grid, seed=0))
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
        again = strategy_flow(gen, eq.rho, eq.policy)
        assert eq.flow.sup_distance(again) == 0.0

    @pytest.mark.parametrize("name", builtin_names() + ["ramped", "rounded-end"])
    def test_transitions_are_the_last_sweeps(self, name):
        # the equilibrium carries its policy's stack: the last sweep's array
        # itself, the bits of transition_stack
        model = {"ramped": ramped_model(40), "rounded-end": rounded_end_model()}.get(name)
        model = model or read_model_file(name)
        grid = TimeGrid(model["horizon"], 40)
        gen, cost = build_model(model, grid)
        eq = picard_solve(gen, cost, ProbabilityVector.uniform(gen.m), grid)
        assert eq.transitions is eq.values.transitions
        assert np.array_equal(eq.transitions, chain.transition_stack(gen, eq.policy))

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
        diagnostics = oracles.plain_diagnostics(gaps, iterations=count)
        assert len(diagnostics.ratios) == count - 1
        assert type(diagnostics.ratio) is float
        assert diagnostics.ratio == float(np.median(diagnostics.ratios))

    def test_diagnostics_ratio_without_ratios_is_nan(self):
        for gaps in ([], [0.3], [0.0, 0.2]):
            assert np.isnan(oracles.plain_diagnostics(gaps).ratio)

    def test_inadmissible_argmin_is_rejected(self):
        # the forward propagation reuses the sweep's transitions, so the
        # policy must still be checked once per iteration
        grid = TimeGrid(0.5, 10)
        gen = AffineQuadraticModel([[-1.0, 1.0], [1.0, -1.0]], [0.3, -0.3])
        cost = OutsideArgmin(2, terminal=("table", [0.0, 1.0]), horizon=0.5)
        with pytest.raises(AdmissibilityError):
            picard_solve(gen, cost, ProbabilityVector.uniform(2), grid,
                         initial_flow=constant_flow([0.5, 0.5], grid))


def same_run(eq, ref) -> bool:
    """Two solves with the same bits in every output and diagnostic."""
    return (np.array_equal(eq.flow.values, ref.flow.values)
            and np.array_equal(eq.policy.actions, ref.policy.actions)
            and np.array_equal(eq.transitions, ref.transitions)
            and np.array_equal(eq.values.values, ref.values.values)
            and (eq.values.low, eq.values.high) == (ref.values.low, ref.values.high)
            and eq.diagnostics == ref.diagnostics)


def scale50_model() -> dict:
    """affine_mv_gtilde with running scale 50 over horizon 3: plain Picard
    contracts at about 0.92 per sweep from the initial law [0.1, 0.9]."""
    model = read_model_file("affine_mv_gtilde")
    model["cost"]["running"]["scale"] = 50
    model["horizon"] = 3
    return model


def campaign_model(rng):
    """A random affine model with a distribution-dependent cost whose scale
    spans 0.05 to 20, under quadratic control or, one time in four, zero
    control, and a random initial law."""
    m = int(rng.integers(2, 5))
    grid = TimeGrid(float(rng.uniform(0.3, 3.0)), int(rng.integers(25, 101)))
    gen = random_affine_generator(rng, m, grid=grid, time_varying=bool(rng.random() < 0.25))
    control = "zero" if rng.random() < 0.25 else "quadratic"
    scale = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
    terminal = ("mean_variance", ["g", "gtilde"][rng.integers(2)])
    cost = SeparableCost(m, running=("mean_square", scale), control=control,
                         terminal=terminal, horizon=grid.horizon)
    return grid, gen, cost, ProbabilityVector(rng.dirichlet(np.ones(m)))


class TestAndersonMixing:
    """picard_solve's safeguarded Anderson mixing against the plain loop it
    replaced (oracles.picard_loop)."""

    @pytest.mark.parametrize("name", ["dist_independent", "time_consistent", "zero_cost",
                                      "rounded-end", "tabulated"])
    def test_runs_without_a_mixed_step_are_the_plain_loop(self, name):
        # a flow-independent policy converges at the second sweep, and a
        # jumping argmin (zero control) is never mixed
        model = {"rounded-end": rounded_end_model(),
                 "tabulated": validate_model(tabulated_model())}.get(name)
        model = model or read_model_file(name)
        grid = TimeGrid(model["horizon"], 60)
        gen, cost = build_model(model, grid)
        rho = ProbabilityVector.uniform(gen.m)
        eq = picard_solve(gen, cost, rho, grid)
        assert eq.diagnostics.mixed == 0
        assert same_run(eq, oracles.picard_loop(gen, cost, rho, grid))

    def test_an_infinite_kappa2_turns_mixing_off(self, affine_mv, monkeypatch):
        grid, gen, cost = affine_mv
        rho = ProbabilityVector.uniform(2)
        mixed = picard_solve(gen, cost, rho, grid)
        monkeypatch.setattr(SeparableCost, "kappa2", lambda self, gen: float("inf"))
        plain = picard_solve(gen, cost, rho, grid)
        assert same_run(plain, oracles.picard_loop(gen, cost, rho, grid))
        assert (plain.diagnostics.iterations, mixed.diagnostics.iterations) == (6, 4)
        assert plain.diagnostics.mixed == 0 < mixed.diagnostics.mixed

    @pytest.mark.parametrize("steps", [100, 800])
    def test_affine_mv_in_four_sweeps(self, steps):
        model = read_model_file("affine_mv")
        grid = TimeGrid(model["horizon"], steps)
        gen, cost = build_model(model, grid)
        rho = ProbabilityVector.uniform(2)
        eq = picard_solve(gen, cost, rho, grid)
        plain = oracles.picard_loop(gen, cost, rho, grid)
        assert eq.converged and eq.diagnostics.iterations == 4 and eq.diagnostics.mixed == 2
        assert plain.diagnostics.iterations == 6
        assert eq.flow.sup_distance(plain.flow) <= 1e-9
        # the secant quotients still read the map's rate, as plain's gap ratios do
        assert eq.diagnostics.ratio == pytest.approx(plain.diagnostics.ratio, rel=1e-4)

    def test_the_gap_is_the_last_sweeps_flow_to_the_returned_one(self, monkeypatch):
        # every swept flow starts at rho; the returned flow is the last
        # sweep's policy's, propagated, and the last gap its distance from
        # the flow that sweep ran against
        model = scale50_model()
        grid = TimeGrid(model["horizon"], 100)
        gen, cost = build_model(model, grid)
        rho = ProbabilityVector([0.1, 0.9])
        swept = []

        def recording(gen, cost, nu, pairs=(), _solve=solver.solve_hj):
            swept.append(nu)
            return _solve(gen, cost, nu, pairs)

        monkeypatch.setattr(solver, "solve_hj", recording)
        eq = picard_solve(gen, cost, rho, grid, SolverOptions(max_iterations=400))
        assert eq.converged and eq.diagnostics.mixed > 0
        assert len(swept) == eq.diagnostics.iterations
        assert all(np.array_equal(nu.values[0], rho.weights) for nu in swept)
        assert eq.diagnostics.gaps[-1] == eq.flow.sup_distance(swept[-1])
        again = oracles.strategy_flow(gen, rho, eq.policy)
        assert np.array_equal(eq.flow.values, again.values)

    def test_history_drops_when_the_gap_grows(self, caplog):
        # the step after a growing gap is plain; each mixed step fits at
        # most MIXING_DEPTH earlier iterates, and their count is recorded
        model = scale50_model()
        grid = TimeGrid(model["horizon"], 100)
        gen, cost = build_model(model, grid)
        with caplog.at_level("INFO", logger="mfeq.solver"):
            eq = picard_solve(gen, cost, ProbabilityVector([0.1, 0.9]), grid)
        steps = [r.getMessage().rsplit("step=", 1)[1] for r in caplog.records
                 if r.getMessage().startswith("picard iteration=")]
        gaps = eq.diagnostics.gaps
        assert steps[0] == "start" and len(steps) == len(gaps)
        grew = [n for n in range(1, len(gaps) - 1) if gaps[n] > gaps[n - 1]]
        assert grew and all(steps[n + 1] == "plain" for n in grew)
        assert set(steps[1:]) <= {"plain"} | {f"mixed({k})" for k in
                                              range(1, solver.MIXING_DEPTH + 1)}
        assert eq.diagnostics.mixed == sum(step.startswith("mixed") for step in steps)

    def test_scale50_case_in_at_most_twenty_sweeps(self):
        # plain Picard takes 192 sweeps here
        model = scale50_model()
        grid = TimeGrid(model["horizon"], 800)
        gen, cost = build_model(model, grid)
        eq = picard_solve(gen, cost, ProbabilityVector([0.1, 0.9]), grid)
        assert eq.converged and eq.diagnostics.iterations <= 20

    def test_mixed_flow_safeguards(self, affine_mv):
        # one pair, a singular fit or a negative entry give no mixed flow
        grid, gen, cost = affine_mv
        w = np.array([0.5, 0.5])
        a = oracles.constant_flow(w, grid)
        b = oracles.constant_flow([0.3, 0.7], grid)
        c = oracles.constant_flow([0.9, 0.1], grid)
        assert solver._mixed_flow(w, [(a, b)]) is None
        assert solver._mixed_flow(w, [(a, b), (a, b)]) is None
        # residuals 0.4 at x = 0.5 and 0.35 at x = 0.6 extrapolate to 1.3 in
        # state 1, so state 2 goes negative
        far = [(a, c), (oracles.constant_flow([0.6, 0.4], grid),
                        oracles.constant_flow([0.95, 0.05], grid))]
        assert solver._mixed_flow(w, far) is None
        mixed = solver._mixed_flow(w, [(a, b), (b, c)])
        assert np.array_equal(mixed.values[0], w)
        assert np.allclose(mixed.values.sum(axis=1), 1.0, rtol=0, atol=1e-15)

    def test_random_campaign(self, capsys):
        # where plain Picard from the myopic, all-lo and all-hi flows finds
        # one equilibrium, the mixed result lies within twice the larger
        # a-posteriori distance gap r / (1 - r) of the two runs from plain's,
        # r plain's last gap ratio; a jumping argmin's run is plain's
        rng = np.random.default_rng(31)
        sweeps, unmixed = {"plain": 0, "mixed": 0}, []
        for _ in range(40):
            grid, gen, cost, rho = campaign_model(rng)
            plain = oracles.picard_loop(gen, cost, rho, grid)
            eq = picard_solve(gen, cost, rho, grid)
            sweeps["plain"] += plain.diagnostics.iterations
            sweeps["mixed"] += eq.diagnostics.iterations
            assert plain.converged and eq.converged
            if not np.isfinite(cost.kappa2(gen)):
                assert same_run(eq, plain)
                unmixed.append(eq.diagnostics.iterations)
                continue
            bounds = gen.action_bounds(grid.nodes[:-1])
            starts = [oracles.strategy_flow(gen, rho, StrategyTable(bounds[..., e], grid))
                      for e in (0, 1)]
            others = [oracles.picard_loop(gen, cost, rho, grid, SolverOptions(1e-4), nu)
                      for nu in starts]
            if max(plain.flow.sup_distance(other.flow) for other in others) > 1e-3:
                continue  # more than one equilibrium: the starts select
            gaps = plain.diagnostics.gaps
            r = gaps[-1] / gaps[-2] if len(gaps) > 1 and gaps[-2] > 0 else 0.0
            assert r < 1.0
            reach = max(gaps[-1], eq.diagnostics.gaps[-1]) * r / (1.0 - r)
            assert eq.flow.sup_distance(plain.flow) <= 2.0 * reach
        with capsys.disabled():
            print(f"\nrandom campaign, 40 models: {sweeps['plain']} plain sweeps, "
                  f"{sweeps['mixed']} mixed")
        assert sweeps["mixed"] < 0.8 * sweeps["plain"]
        assert max(unmixed) > 2  # zero control models that iterate, plainly


class TestEstimateConstants:
    def test_control_free_model_trivially_contractive(self):
        grid = TimeGrid(1.0, 10)
        alpha = np.array([[-0.9, 0.5, 0.4], [0.3, -0.7, 0.4], [0.2, 0.6, -0.8]])
        gen = AffineQuadraticModel(alpha, np.zeros(3))
        cost = SeparableCost(3, terminal=("mean_variance", "g"))
        report = estimate_constants(gen, cost, grid, draw_probes(gen, cost, grid, 3, 0))
        assert report.kappa1 == 0.0
        assert report.product == 0.0
        eq = picard_solve(gen, cost, ProbabilityVector.uniform(3), grid)
        assert contraction_verdict(report, eq.diagnostics) == "contractive"

    def test_distribution_independent_kills_kappa3(self):
        model = read_model_file("dist_independent")
        grid = TimeGrid(model["horizon"], 20)
        gen, cost = build_model(model, grid)
        report = estimate_constants(gen, cost, grid, draw_probes(gen, cost, grid, 3, 1))
        assert report.kappa3 == 0.0
        eq = picard_solve(gen, cost, ProbabilityVector.uniform(gen.m), grid)
        assert contraction_verdict(report, eq.diagnostics) == "contractive"

    def test_kappa2_matches_clip_map_constant(self, affine_mv):
        grid, gen, cost = affine_mv
        report = estimate_constants(gen, cost, grid, draw_probes(gen, cost, grid, 6, 2))
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
        factored = estimate_constants(gen, cost, grid, draw_probes(gen, cost, grid, 3, 4))
        monkeypatch.setattr(solver, "table_distances", oracles.dense_table_distances)
        dense = estimate_constants(gen, cost, grid, draw_probes(gen, cost, grid, 3, 4))
        assert factored.kappa3 > 0.0
        assert factored.kappa3 == pytest.approx(dense.kappa3, rel=1e-12)
        assert (factored.kappa1, factored.kappa2) == (dense.kappa1, dense.kappa2)

    def test_kappa2_probe_batch_equals_single_calls(self, affine_mv, monkeypatch):
        # the same estimator with one argmin call per probe
        grid, gen, cost = affine_mv
        batched = estimate_constants(gen, cost, grid, draw_probes(gen, cost, grid, 4, 5))
        single = type(cost).argmin_profile

        def one_row_at_a_time(self, gen, t, h):
            return np.array([single(self, gen, t, row) for row in h])

        monkeypatch.setattr(type(cost), "argmin_profile", one_row_at_a_time)
        rows = estimate_constants(gen, cost, grid, draw_probes(gen, cost, grid, 4, 5))
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
        estimate_constants(gen, cost, grid, draw_probes(gen, cost, grid, seed=0))
        assert batch_sizes == [12] * grid.steps

    @pytest.mark.parametrize("name", builtin_names())
    def test_probes_in_picards_first_sweep(self, name, monkeypatch):
        # kappa3's pairs ride along in picard_solve's first sweep: the
        # equilibrium and the report are the bits of the two passes apart,
        # from one sweep fewer
        model = read_model_file(name)
        grid = TimeGrid(model["horizon"], 100)
        gen, cost = build_model(model, grid)
        rho = ProbabilityVector.uniform(gen.m)
        sweeps = []

        def counted(gen, cost, flows, _sweep=hj.backward_columns):
            sweeps.append(len(flows))
            return _sweep(gen, cost, flows)

        monkeypatch.setattr(hj, "backward_columns", counted)
        eq = picard_solve(gen, cost, rho, grid)
        report = estimate_constants(gen, cost, grid, draw_probes(gen, cost, grid))
        assert sweeps == [1] * eq.diagnostics.iterations + [12]
        del sweeps[:]
        probes = draw_probes(gen, cost, grid)
        eq1 = picard_solve(gen, cost, rho, grid, probe_pairs=probes.pairs)
        report1 = estimate_constants(gen, cost, grid, probes, gaps=eq1.probe_gaps)
        assert sweeps == [13] + [1] * (eq1.diagnostics.iterations - 1)
        assert np.array_equal(eq.flow.values, eq1.flow.values)
        assert np.array_equal(eq.policy.actions, eq1.policy.actions)
        assert np.array_equal(eq.values.values, eq1.values.values)
        assert np.array_equal(eq.values.transitions, eq1.values.transitions)
        assert (eq.values.low, eq.values.high) == (eq1.values.low, eq1.values.high)
        assert eq.diagnostics == eq1.diagnostics
        assert report == report1

    def test_memory_is_linear_in_steps(self):
        # one dense table of affine_mv at N=1000 takes 16 MB
        model = read_model_file("affine_mv")
        grid = TimeGrid(model["horizon"], 1000)
        gen, cost = build_model(model, grid)
        tracemalloc.start()
        try:
            estimate_constants(gen, cost, grid, draw_probes(gen, cost, grid, 2, 0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_report_wording(self, affine_mv):
        grid, gen, cost = affine_mv
        report = estimate_constants(gen, cost, grid, draw_probes(gen, cost, grid, 2, 3))
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
        diagnostics = oracles.plain_diagnostics(gaps, iterations=len(gaps), converged=converged)
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
            return eq, estimate_constants(gen, cost, grid, draw_probes(gen, cost, grid, 4, 0))

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
