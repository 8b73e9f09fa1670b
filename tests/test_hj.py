"""Backward value solve: sweeps, cost evaluation."""

import tracemalloc

import numpy as np
import pytest

from mfeq import (
    AffineQuadraticModel,
    SeparableCost,
    TimeGrid,
    backward_columns,
    solve_hj,
    validate_cost,
)
from mfeq.chain import FlowCurve, transition_stack
from mfeq.errors import AdmissibilityError, NumericalError
from mfeq.hj import SWEEP_BLOCK, EvaluationBasis
from mfeq.modelfile import build_model, builtin_names, read_model_file
from mfeq.solver import myopic_strategy, picard_solve, table_distances

import oracles
from instances import (LowerBoundArgmin, OutsideArgmin, random_affine_generator, random_flow,
                       random_instance, shipped_instances, sweep_cells, tau_weighted_instances,
                       value_table)
from oracles import (constant_flow, constant_strategy, evaluate_cost, evaluate_population_cost,
                     evaluation_rows, scan_golden_min)


class TestScanGoldenMin:
    def test_quadratic(self):
        x, v = scan_golden_min(lambda x: (x - 0.3) ** 2, -1.0, 1.0)
        assert x == pytest.approx(0.3, abs=1e-8)
        assert v == pytest.approx(0.0, abs=1e-15)

    def test_boundary(self):
        x, _ = scan_golden_min(lambda x: x, -1.0, 1.0)
        assert x == -1.0

    def test_flat_ties_to_smallest(self):
        x, _ = scan_golden_min(lambda x: 0.0, -1.0, 1.0)
        assert x == -1.0

    def test_degenerate_interval(self):
        x, v = scan_golden_min(lambda x: x * x, 0.5, 0.5)
        assert x == 0.5 and v == 0.25


class TestSolveHj:
    def test_zero_cost_gives_zero_table_and_myopic_policy(self):
        grid = TimeGrid(0.5, 20)
        gen = AffineQuadraticModel([[-1.0, 1.0], [1.0, -1.0]], [0.3, -0.3])
        cost = SeparableCost(2, control="zero", terminal=("table", [0.0, 0.0]))
        nu = constant_flow([0.5, 0.5], grid)
        sweep, policy = solve_hj(gen, cost, nu, grid)
        assert sweep.low == sweep.high == 0.0
        np.testing.assert_array_equal(policy.actions,
                                      myopic_strategy(gen, cost, grid).actions)

    def test_terminal_layer_exact(self):
        rng = np.random.default_rng(0)
        grid, gen, cost = random_instance(rng, m=3, steps=15)
        nu = random_flow(rng, grid, 3)
        first, C, profiles, P, diagonal = next(backward_columns(gen, cost, nu, grid))
        assert first == grid.steps and profiles is None and P is None
        assert C.shape == (1, 1, 2, 3) and diagonal.shape == (1, 1, 3)
        column = evaluation_rows(EvaluationBasis(cost, grid), C[0], slice(None))[0]
        assert np.array_equal(diagonal[0, 0], column[grid.steps])
        for a in range(grid.steps + 1):
            expected = cost.terminal(grid.nodes[a], nu.at(grid.steps))
            np.testing.assert_array_equal(column[a], expected)

    def test_control_free_matches_transition_propagated_terminal(self):
        # beta = 0: no control influence, so every evaluation row is the
        # terminal cost pushed back through the transition matrices
        rng = np.random.default_rng(1)
        grid = TimeGrid(0.8, 30)
        alpha = np.array([[-0.9, 0.5, 0.4], [0.3, -0.7, 0.4], [0.2, 0.6, -0.8]])
        gen = AffineQuadraticModel(alpha, np.zeros(3))
        cost = SeparableCost(3, running=("zero",), terminal=("table", [0.4, 0.0, 0.9]))
        nu = random_flow(rng, grid, 3)
        table, policy = value_table(gen, cost, nu, grid)
        stack = transition_stack(gen, policy)
        g = cost.terminal(0.0, nu.at(grid.steps))
        push = g.copy()
        for k in range(grid.steps - 1, -1, -1):
            push = stack[k] @ push
            np.testing.assert_allclose(table[0, k], push, atol=1e-12)

    def test_representation_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            grid, gen, cost = random_instance(rng, steps=25)
            nu = random_flow(rng, grid, gen.m)
            table, policy = value_table(gen, cost, nu, grid)
            stack = transition_stack(gen, policy)
            for _ in range(8):
                a = int(rng.integers(0, grid.steps + 1))
                k = int(rng.integers(0, grid.steps + 1))
                i = int(rng.integers(0, gen.m))
                direct = evaluate_cost(gen, cost, nu, policy, a, k, i,
                                       transitions=stack)
                assert direct == pytest.approx(table[a, k, i], abs=1e-9)

    def test_policy_admissible_and_stepwise_optimal(self):
        rng = np.random.default_rng(3)
        grid, gen, cost = random_instance(rng, m=3, steps=20)
        nu = random_flow(rng, grid, 3)
        sweep, policy = solve_hj(gen, cost, nu, grid)
        policy.check_admissible(gen)
        diag = sweep.values
        for k in range(grid.steps):
            t = grid.nodes[k]
            theta_next = diag[k + 1]
            for i in range(3):
                lo, hi = gen.action_bounds(t)[i]
                chosen = oracles.control_entry(cost, t, i, policy.actions[k, i]) + float(
                    oracles.rate_row(gen, t, i, policy.actions[k, i]) @ theta_next)
                for v in np.linspace(lo, hi, 9):
                    other = oracles.control_entry(cost, t, i, float(v)) + float(
                        oracles.rate_row(gen, t, i, float(v)) @ theta_next)
                    assert chosen <= other + 1e-8

    def test_uniform_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            grid, gen, cost = random_instance(rng, steps=20)
            nu = random_flow(rng, grid, gen.m)
            table, _ = value_table(gen, cost, nu, grid)
            bound = (gen.K1 + cost.K2) * grid.horizon + cost.K2
            assert table.min() >= -1e-12
            assert table.max() <= bound + 1e-9

    def test_stability_in_flow_monotone(self):
        # nested flow perturbations produce nondecreasing value distances
        rng = np.random.default_rng(5)
        grid = TimeGrid(0.5, 15)
        gen = AffineQuadraticModel([[-0.8, 0.8], [0.9, -0.9]], [0.4, -0.4])
        cost = SeparableCost(2, running=("mean_square", 0.2),
                             terminal=("mean_variance", "g"), horizon=0.5)
        nu = random_flow(rng, grid, 2)
        bump = rng.dirichlet(np.ones(2))
        base_table, _ = value_table(gen, cost, nu, grid)
        dists = []
        for size in (0.05, 0.2, 0.8):
            tilted = FlowCurve((1 - size) * nu.values + size * bump, grid)
            t2, _ = value_table(gen, cost, tilted, grid)
            dists.append(float(np.abs(base_table - t2).max()))
        assert dists[0] <= dists[1] + 1e-12 <= dists[2] + 2e-12

    def test_bound_violation_logs_diagnostic_warning(self, caplog):
        import logging
        grid = TimeGrid(0.1, 8)
        gen = AffineQuadraticModel([[-0.8, 0.8], [0.9, -0.9]], [0.4, -0.4])
        cost = SeparableCost(2, terminal=("table", [0.0, 0.9]), horizon=0.1, K2=0.05)
        nu = constant_flow([0.5, 0.5], grid)
        with caplog.at_level(logging.WARNING, logger="mfeq.hj"):
            solve_hj(gen, cost, nu, grid)
        assert any("declared" in rec.message for rec in caplog.records)

    def test_inadmissible_argmin_rejected(self):
        # the sweep checks the policy once, since its transitions stand in
        # for transition_stack in the Picard loop
        grid = TimeGrid(0.5, 10)
        gen = AffineQuadraticModel([[-1.0, 1.0], [1.0, -1.0]], [0.3, -0.3])
        cost = OutsideArgmin(2, terminal=("table", [0.0, 1.0]), horizon=0.5)
        with pytest.raises(AdmissibilityError, match="1.5 at node 0, state 0"):
            solve_hj(gen, cost, constant_flow([0.5, 0.5], grid), grid)


class TestSweepMatchesDenseTable:
    @pytest.mark.parametrize("case", list(shipped_instances()) + list(tau_weighted_instances()),
                             ids=lambda c: c[0])
    def test_rank2_basis_within_roundoff(self, case):
        _, grid, gen, cost, nu = case
        assert EvaluationBasis(cost, grid).weight is not None
        table, ref_policy, ref_transitions = oracles.dense_solve_hj(gen, cost, nu, grid)
        sweep, policy = solve_hj(gen, cost, nu, grid)
        n = grid.steps
        scale = max(1.0, float(np.abs(table).max()))
        assert np.abs(sweep.values - table[np.arange(n + 1), np.arange(n + 1)]).max() \
            <= 1e-12 * scale
        assert np.abs(policy.actions - ref_policy.actions).max() <= 1e-12
        assert np.abs(sweep.transitions - ref_transitions).max() <= 1e-12
        assert abs(sweep.low - table.min()) <= 1e-12 * scale
        assert abs(sweep.high - table.max()) <= 1e-12 * scale
        assert np.abs(value_table(gen, cost, nu, grid)[0] - table).max() <= 1e-12 * scale

    def test_extreme_rows_hold_every_column_extreme(self):
        # a weight that is not monotone and coefficients of both signs: the
        # extremes of each column lie where w is least and largest, the
        # rounded values too, since rounding is monotone
        class SineWeight(SeparableCost):
            def tau_weight(self, taus):
                return 1.0 + np.sin(7.0 * np.asarray(taus))

        basis = EvaluationBasis(SineWeight(3), TimeGrid(1.0, 50))
        rng = np.random.default_rng(13)
        for _ in range(20):
            C = rng.normal(size=(4, 2, 3))
            full = evaluation_rows(basis, C, slice(None))
            ext = basis.extremes(C)
            assert full.min(axis=1).tolist() == ext.min(axis=1).tolist()
            assert full.max(axis=1).tolist() == ext.max(axis=1).tolist()
            gaps = np.abs(full[0::2] - full[1::2]).max(axis=(1, 2))
            np.testing.assert_allclose(np.abs(ext[0::2] - ext[1::2]).max(axis=(1, 2)), gaps,
                                       rtol=1e-12)

    def test_batch_equals_separate_sweeps(self):
        rng = np.random.default_rng(12)
        for m in (2, 3, 4, 7):
            grid, gen, cost = random_instance(rng, m=m, steps=25)
            flows = [random_flow(rng, grid, m) for _ in range(5)]
            batched = list(sweep_cells(backward_columns(gen, cost, flows, grid)))
            for b, nu in enumerate(flows):
                for (k, C, profiles, P, _), (k1, C1, profiles1, P1, _) in zip(
                        batched, sweep_cells(backward_columns(gen, cost, nu, grid)), strict=True):
                    assert k == k1
                    assert np.array_equal(C[b], C1[0])
                    if k < grid.steps:
                        assert np.array_equal(profiles[b], profiles1[0])
                        assert np.array_equal(P[b], P1[0])

    def test_sweep_memory_is_linear_in_steps(self):
        # one dense table of affine_mv at N=1000 takes 16 MB
        model = read_model_file("affine_mv")
        grid = TimeGrid(model["horizon"], 1000)
        gen, cost = build_model(model, grid)
        nu = constant_flow([0.5, 0.5], grid)
        tracemalloc.start()
        try:
            solve_hj(gen, cost, nu, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestSweepMatchesPerCellLoop:
    """The sweep in blocks, with its flow costs computed once and its
    readouts reduced per block and after it, against the per-cell loop it
    replaced (oracles.backward_loop), bit for bit."""

    CASES = list(shipped_instances()) + list(tau_weighted_instances())

    @pytest.mark.parametrize("batch", [1, 12])
    def test_columns(self, batch):
        rng = np.random.default_rng(15)
        for _, grid, gen, cost, nu in self.CASES:
            flows = [nu] + [random_flow(rng, grid, gen.m) for _ in range(batch - 1)]
            for (k, C, profiles, P, _), (k1, C1, profiles1, P1) in zip(
                    sweep_cells(backward_columns(gen, cost, flows, grid)),
                    oracles.backward_loop(gen, cost, flows, grid), strict=True):
                assert k == k1
                assert np.array_equal(C, C1)
                if k < grid.steps:
                    assert np.array_equal(profiles, profiles1)
                    assert np.array_equal(P, P1)

    @staticmethod
    def block_edge_instance(steps):
        rng = np.random.default_rng(steps)
        grid = TimeGrid(0.8, steps)
        gen = random_affine_generator(rng, 3, grid=grid, time_varying=True)
        cost = SeparableCost(3, running=("mean_square", 0.3), terminal=("mean_variance", "g"),
                             tau_weight={"kind": "exp", "rate": 2.0}, horizon=grid.horizon)
        return rng, grid, gen, cost

    @pytest.mark.parametrize("batch", [1, 12])
    @pytest.mark.parametrize("steps", [1, SWEEP_BLOCK - 1, SWEEP_BLOCK, SWEEP_BLOCK + 1,
                                       2 * SWEEP_BLOCK + 3])
    def test_block_edges(self, steps, batch):
        rng, grid, gen, cost = self.block_edge_instance(steps)
        basis = EvaluationBasis(cost, grid)
        flows = [random_flow(rng, grid, 3) for _ in range(batch)]
        for (k, C, profiles, P, diagonal), (k1, C1, profiles1, P1) in zip(
                sweep_cells(backward_columns(gen, cost, flows, grid)),
                oracles.backward_loop(gen, cost, flows, grid), strict=True):
            assert k == k1
            assert np.array_equal(C, C1)
            assert np.array_equal(diagonal, evaluation_rows(basis, C1, [k])[:, 0])
            if k < grid.steps:
                assert np.array_equal(profiles, profiles1)
                assert np.array_equal(P, P1)

    @pytest.mark.parametrize("steps", [1, SWEEP_BLOCK - 1, SWEEP_BLOCK, SWEEP_BLOCK + 1,
                                       2 * SWEEP_BLOCK + 3])
    def test_block_edge_readouts(self, steps):
        rng, grid, gen, cost = self.block_edge_instance(steps)
        nu = random_flow(rng, grid, 3)
        sweep, policy = solve_hj(gen, cost, nu, grid)
        diagonal, low, high, actions, transitions = oracles.solve_hj_loop(gen, cost, nu, grid)
        assert np.array_equal(sweep.values, diagonal)
        assert np.array_equal(policy.actions, actions)
        assert np.array_equal(sweep.transitions, transitions)
        assert (sweep.low, sweep.high) == (low, high)
        pairs = [(random_flow(rng, grid, 3), random_flow(rng, grid, 3)) for _ in range(6)]
        assert np.array_equal(table_distances(gen, cost, pairs, grid),
                              oracles.table_distances_loop(gen, cost, pairs, grid))

    def test_solve_hj_readouts(self):
        for _, grid, gen, cost, nu in self.CASES:
            sweep, policy = solve_hj(gen, cost, nu, grid)
            diagonal, low, high, actions, transitions = oracles.solve_hj_loop(
                gen, cost, nu, grid)
            assert np.array_equal(sweep.values, diagonal)
            assert np.array_equal(policy.actions, actions)
            assert np.array_equal(sweep.transitions, transitions)
            assert (sweep.low, sweep.high) == (low, high)

    def test_table_distances_of_six_pairs(self):
        rng = np.random.default_rng(16)
        for _, grid, gen, cost, nu in self.CASES:
            pairs = []
            for size in (1e-3, 1e-2, 1e-1, 1e-3, 1e-2, 1e-1):
                base = random_flow(rng, grid, gen.m)
                tilted = (1.0 - size) * base.values + size * rng.dirichlet(np.ones(gen.m))
                pairs.append((base, FlowCurve(tilted, grid)))
            worst = table_distances(gen, cost, pairs, grid)
            assert worst.shape == (6,)
            assert np.array_equal(worst, oracles.table_distances_loop(gen, cost, pairs, grid))


class _DefectAtNode(AffineQuadraticModel):
    """affine_mv's generator with `defect` added to its rates at one node
    time; the sweep asks for one node time at a time."""

    def __init__(self, t_bad, defect):
        super().__init__([[-0.8, 0.8], [0.9, -0.9]], [0.4, -0.4])
        self.t_bad, self.defect = t_bad, np.asarray(defect, dtype=float)

    def rate_matrix(self, t, profile):
        Q = super().rate_matrix(t, profile)
        return Q + self.defect if t == self.t_bad else Q


class TestSweepRejectsBadGenerators:
    """A defective generator at one node in the middle of a block raises,
    naming the node, and the flow when the sweep carries several."""

    GRID = TimeGrid(0.5, 2 * SWEEP_BLOCK + 22)
    NODE = GRID.steps - SWEEP_BLOCK - SWEEP_BLOCK // 2
    DEFECTS = {
        "row-sum": ([[0.0, 0.1], [0.0, 0.0]], "transition row-sum drift .*"),
        "non-finite": ([[np.nan, 0.0], [0.0, 0.0]], "non-finite generator"),
        "negative-entry": ([[1.5, -1.5], [0.0, 0.0]], "transition entry .* below tolerance"),
    }

    def setup(self, defect):
        rates, message = self.DEFECTS[defect]
        gen = _DefectAtNode(self.GRID.nodes[self.NODE], rates)
        cost = SeparableCost(2, running=("mean_square", 0.2), terminal=("mean_variance", "g"),
                             horizon=self.GRID.horizon)
        return gen, cost, message

    @pytest.mark.parametrize("defect", DEFECTS)
    def test_solve_hj(self, defect):
        gen, cost, message = self.setup(defect)
        with pytest.raises(NumericalError, match=f"^{message} at node {self.NODE}$"):
            solve_hj(gen, cost, constant_flow([0.5, 0.5], self.GRID), self.GRID)

    @pytest.mark.parametrize("defect", DEFECTS)
    def test_picard_solve(self, defect):
        gen, cost, message = self.setup(defect)
        nu = constant_flow([0.5, 0.5], self.GRID)
        with pytest.raises(NumericalError, match=f"^{message} at node {self.NODE}$"):
            picard_solve(gen, cost, [0.5, 0.5], self.GRID, initial_flow=nu)

    @pytest.mark.parametrize("defect", DEFECTS)
    def test_table_distances(self, defect):
        gen, cost, message = self.setup(defect)
        rng = np.random.default_rng(17)
        pairs = [(random_flow(rng, self.GRID, 2), random_flow(rng, self.GRID, 2))
                 for _ in range(2)]
        with pytest.raises(NumericalError,
                           match=f"^{message} at node {self.NODE}, flow [0-3]$"):
            table_distances(gen, cost, pairs, self.GRID)


class TestEvaluateCost:
    def test_zero_cost(self):
        grid = TimeGrid(0.5, 10)
        gen = AffineQuadraticModel([[-1.0, 1.0], [1.0, -1.0]], [0.3, -0.3])
        cost = SeparableCost(2, control="zero", terminal=("table", [0.0, 0.0]))
        nu = constant_flow([0.5, 0.5], grid)
        strat = constant_strategy(grid, 2, 0.0)
        assert evaluate_cost(gen, cost, nu, strat, 0, 0, 0) == 0.0

    def test_start_at_horizon_returns_terminal(self):
        rng = np.random.default_rng(7)
        grid, gen, cost = random_instance(rng, m=2, steps=10)
        nu = random_flow(rng, grid, 2)
        strat = constant_strategy(grid, 2, 0.0)
        for a in (0, 5, 10):
            for i in (0, 1):
                expected = cost.terminal(grid.nodes[a], nu.at(10))[i]
                got = evaluate_cost(gen, cost, nu, strat, a, grid.steps, i)
                assert got == pytest.approx(expected, abs=1e-14)


class TestEvaluatePopulationCost:
    def _self_consistent_flow(self, gen, strat, rho, grid, k0):
        stack = transition_stack(gen, strat)
        vals = np.tile(np.asarray(rho, float), (grid.steps + 1, 1))
        mu = np.asarray(rho, float)
        for s in range(k0, grid.steps):
            mu = mu @ stack[s]
            vals[s + 1] = mu
        return FlowCurve(vals, grid), stack

    def test_zero_cost(self):
        grid = TimeGrid(0.5, 8)
        gen = AffineQuadraticModel([[-1.0, 1.0], [1.0, -1.0]], [0.3, -0.3])
        cost = SeparableCost(2, control="zero", terminal=("table", [0.0, 0.0]))
        strat = constant_strategy(grid, 2, 0.0)
        assert evaluate_population_cost(gen, cost, [0.4, 0.6], strat, 0, 0) == 0.0

    def test_dirac_mixture_reduces_to_state_cost(self):
        rng = np.random.default_rng(8)
        grid, gen, cost = random_instance(rng, m=3, steps=12)
        strat = constant_strategy(grid, 3, 0.0)
        k0 = 4
        rho = np.zeros(3)
        rho[1] = 1.0
        nu_self, stack = self._self_consistent_flow(gen, strat, rho, grid, k0)
        pop = evaluate_population_cost(gen, cost, rho, strat, 2, k0,
                                       transitions=stack)
        state = evaluate_cost(gen, cost, nu_self, strat, 2, k0, 1,
                              transitions=stack)
        assert pop == pytest.approx(state, abs=1e-9)

    def test_mixture_identity(self):
        rng = np.random.default_rng(9)
        grid, gen, cost = random_instance(rng, m=2, steps=15)
        strat = constant_strategy(grid, 2, 0.1)
        rho = rng.dirichlet(np.ones(2))
        k0 = 3
        nu_self, stack = self._self_consistent_flow(gen, strat, rho, grid, k0)
        pop = evaluate_population_cost(gen, cost, rho, strat, 5, k0,
                                       transitions=stack)
        mix = sum(rho[j] * evaluate_cost(gen, cost, nu_self, strat, 5, k0, j,
                                         transitions=stack)
                  for j in range(2))
        assert pop == pytest.approx(mix, abs=1e-9)


class TestValidateCost:
    def test_clean_model_passes(self):
        rng = np.random.default_rng(10)
        grid, gen, cost = random_instance(rng, m=3, steps=10)
        assert validate_cost(gen, cost, grid, samples=10) == []

    def test_misdeclared_k2_flagged(self):
        grid = TimeGrid(0.5, 10)
        gen = AffineQuadraticModel([[-0.8, 0.8], [0.9, -0.9]], [0.4, -0.4])
        cost = SeparableCost(2, terminal=("table", [0.2, 0.9]), horizon=0.5, K2=0.45)
        problems = validate_cost(gen, cost, grid, samples=10)
        assert any("K2" in p for p in problems)

    def test_inadmissible_argmin_flagged(self):
        grid = TimeGrid(0.5, 10)
        gen = AffineQuadraticModel([[-1.0, 1.0], [1.0, -1.0]], [0.3, -0.3])
        cost = OutsideArgmin(2, terminal=("table", [0.0, 1.0]), horizon=0.5)
        problems = validate_cost(gen, cost, grid, samples=4)
        assert "argmin profile inadmissible at state 0" in problems
        assert not any("state 1" in p for p in problems)

    def test_misdeclared_k3_flagged(self):
        grid = TimeGrid(0.5, 10)
        gen = AffineQuadraticModel([[-0.8, 0.8], [0.9, -0.9]], [0.4, -0.4])
        cost = SeparableCost(2, terminal=("mean_variance", "g"), horizon=0.5, K3=1e-6)
        problems = validate_cost(gen, cost, grid, samples=20)
        assert any("Lipschitz" in p for p in problems)

    def test_misdeclared_k1_flagged(self):
        # the quadratic control cost reaches 0.5 on U = [-1, 1]
        model = read_model_file("affine_mv")
        model["constants"] = {"K1": 0.1}
        grid = TimeGrid(model["horizon"], 10)
        gen, cost = build_model(model, grid)
        problems = validate_cost(gen, cost, grid, samples=10)
        assert any(p.startswith("control cost ") and p.endswith("exceeds K1=0.1")
                   for p in problems)

    def test_suboptimal_argmin_flagged(self):
        grid = TimeGrid(0.5, 10)
        gen = AffineQuadraticModel([[-0.8, 0.8], [0.9, -0.9]], [0.4, -0.4])
        cost = LowerBoundArgmin(2, terminal=("table", [0.0, 1.0]), horizon=0.5)
        problems = validate_cost(gen, cost, grid, samples=10)
        assert any(p.startswith("argmin misses sampled minimum by ") for p in problems)
        assert not any("inadmissible" in p for p in problems)

    @pytest.mark.parametrize("case", ["shipped", "K1-override", "random", "defective-argmin"])
    def test_equals_per_state_loop(self, case):
        rng = np.random.default_rng(11)
        if case in ("shipped", "K1-override"):
            instances = []
            for name in builtin_names():
                model = read_model_file(name)
                if case == "K1-override":
                    model["constants"] = {"K1": 0.1}
                grid = TimeGrid(model["horizon"], 30)
                instances.append((grid, *build_model(model, grid)))
        elif case == "random":
            instances = [random_instance(rng, m=m, steps=12) for m in (2, 3, 5)]
        else:
            grid = TimeGrid(0.5, 10)
            gen = AffineQuadraticModel([[-0.8, 0.8], [0.9, -0.9]], [0.4, -0.4])
            instances = [(grid, gen, fake(2, terminal=("table", [0.0, 1.0]), horizon=0.5))
                         for fake in (LowerBoundArgmin, OutsideArgmin)]
        for grid, gen, cost in instances:
            problems = validate_cost(gen, cost, grid, samples=20)
            assert problems == oracles.validate_cost(gen, cost, grid, samples=20)
