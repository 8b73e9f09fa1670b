"""Backward value solve: sweeps, cost evaluation."""

import tracemalloc
import warnings

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
from mfeq.chain import FlowCurve, GeneratorModel, grid_rate, transition_stack
from mfeq import hj
from mfeq.errors import AdmissibilityError, DimensionMismatch, MfeqError, NumericalError
from mfeq.hj import SWEEP_BLOCK, EvaluationBasis
from mfeq.modelfile import build_model, builtin_names, read_model_file
from mfeq.solver import draw_probes, myopic_strategy, picard_solve, table_distances

import oracles
from instances import (LowerBoundArgmin, OutsideArgmin, ramped_model, random_affine_generator,
                       random_flow, random_instance, rounded_end_model, shipped_instances,
                       sweep_cells, tau_weighted_instances, value_table)
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
        sweep, policy = solve_hj(gen, cost, nu)
        assert sweep.low == sweep.high == 0.0
        np.testing.assert_array_equal(policy.actions,
                                      myopic_strategy(gen, cost, grid).actions)

    def test_terminal_layer_exact(self):
        rng = np.random.default_rng(0)
        grid, gen, cost = random_instance(rng, m=3, steps=15)
        nu = random_flow(rng, grid, 3)
        first, C, profiles, P, diagonal, _ = next(backward_columns(gen, cost, nu))
        assert first == grid.steps and profiles is None and P is None
        assert C.shape == (1, 1, 2, 3) and diagonal.shape == (1, 1, 3)
        column = evaluation_rows(EvaluationBasis(cost, grid), C[0], slice(None))[0]
        assert np.array_equal(diagonal[0, 0], column[grid.steps])
        for a in range(grid.steps + 1):
            expected = cost.terminal(nu.at(grid.steps))
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
        table, policy = value_table(gen, cost, nu)
        stack = transition_stack(gen, policy)
        g = cost.terminal(nu.at(grid.steps))
        push = g.copy()
        for k in range(grid.steps - 1, -1, -1):
            push = stack[k] @ push
            np.testing.assert_allclose(table[0, k], push, atol=1e-12)

    def test_representation_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            grid, gen, cost = random_instance(rng, steps=25)
            nu = random_flow(rng, grid, gen.m)
            table, policy = value_table(gen, cost, nu)
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
        sweep, policy = solve_hj(gen, cost, nu)
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
            table, _ = value_table(gen, cost, nu)
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
        base_table, _ = value_table(gen, cost, nu)
        dists = []
        for size in (0.05, 0.2, 0.8):
            tilted = FlowCurve((1 - size) * nu.values + size * bump, grid)
            t2, _ = value_table(gen, cost, tilted)
            dists.append(float(np.abs(base_table - t2).max()))
        assert dists[0] <= dists[1] + 1e-12 <= dists[2] + 2e-12

    def test_inadmissible_argmin_rejected(self):
        # the sweep checks the policy once, since its transitions stand in
        # for transition_stack in the Picard loop
        grid = TimeGrid(0.5, 10)
        gen = AffineQuadraticModel([[-1.0, 1.0], [1.0, -1.0]], [0.3, -0.3])
        cost = OutsideArgmin(2, terminal=("table", [0.0, 1.0]), horizon=0.5)
        with pytest.raises(AdmissibilityError, match="1.5 at node 0, state 0"):
            solve_hj(gen, cost, constant_flow([0.5, 0.5], grid))


class TestSweepMatchesDenseTable:
    @pytest.mark.parametrize("case", list(shipped_instances()) + list(tau_weighted_instances()),
                             ids=lambda c: c[0])
    def test_rank2_basis_within_roundoff(self, case):
        _, grid, gen, cost, nu = case
        assert EvaluationBasis(cost, grid).weight is not None
        table, ref_policy, ref_transitions = oracles.dense_solve_hj(gen, cost, nu)
        sweep, policy = solve_hj(gen, cost, nu)
        n = grid.steps
        scale = max(1.0, float(np.abs(table).max()))
        assert np.abs(sweep.values - table[np.arange(n + 1), np.arange(n + 1)]).max() \
            <= 1e-12 * scale
        assert np.abs(policy.actions - ref_policy.actions).max() <= 1e-12
        assert np.abs(sweep.transitions - ref_transitions).max() <= 1e-12
        assert abs(sweep.low - table.min()) <= 1e-12 * scale
        assert abs(sweep.high - table.max()) <= 1e-12 * scale
        assert np.abs(value_table(gen, cost, nu)[0] - table).max() <= 1e-12 * scale

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
            batched = list(sweep_cells(backward_columns(gen, cost, flows)))
            for b, nu in enumerate(flows):
                for (k, C, profiles, P, *_), (k1, C1, profiles1, P1, *_) in zip(
                        batched, sweep_cells(backward_columns(gen, cost, nu)), strict=True):
                    assert k == k1
                    assert np.array_equal(C[b], C1[0])
                    if k < grid.steps:
                        assert np.array_equal(profiles[b], profiles1[0])
                        assert np.array_equal(P[b], P1[0])

    def test_flows_on_two_grids_rejected(self):
        # the sweep's grid is its flows'; a flow on another grid is refused
        # before any work, also through table_distances' pairs
        rng = np.random.default_rng(13)
        grid, gen, cost = random_instance(rng, m=2, steps=20)
        other = TimeGrid(grid.horizon, 21)
        flows = [random_flow(rng, grid, 2), random_flow(rng, other, 2)]
        with pytest.raises(DimensionMismatch, match="different grids"):
            next(backward_columns(gen, cost, flows))
        with pytest.raises(DimensionMismatch, match="different grids"):
            table_distances(gen, cost, [tuple(flows)])

    def test_sweep_memory_is_linear_in_steps(self):
        # one dense table of affine_mv at N=1000 takes 16 MB
        model = read_model_file("affine_mv")
        grid = TimeGrid(model["horizon"], 1000)
        gen, cost = build_model(model, grid)
        nu = constant_flow([0.5, 0.5], grid)
        tracemalloc.start()
        try:
            solve_hj(gen, cost, nu)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def _time_varying_instance():
    rng = np.random.default_rng(19)
    grid = TimeGrid(0.7, 50)
    gen = random_affine_generator(rng, 3, grid=grid, time_varying=True)
    cost = SeparableCost(3, running=("mean_square", 0.3), terminal=("mean_variance", "g"),
                         horizon=grid.horizon)
    return "time-varying-m3", grid, gen, cost, random_flow(rng, grid, 3)


def _ramped_instance():
    grid = TimeGrid(0.5, 80)
    gen, cost = build_model(ramped_model(grid.steps), grid)
    return "ramped-10x", grid, gen, cost, random_flow(np.random.default_rng(20), grid, 2)


class TestSweepMatchesPerCellLoop:
    """The sweep in blocks, with its flow costs computed once and its
    readouts reduced per block and after it, against the per-cell loop it
    replaced (oracles.backward_loop), bit for bit."""

    CASES = (list(shipped_instances()) + list(tau_weighted_instances())
             + [_time_varying_instance(), _ramped_instance()])

    @pytest.mark.parametrize("batch", [1, 12])
    def test_columns(self, batch):
        rng = np.random.default_rng(15)
        for _, grid, gen, cost, nu in self.CASES:
            flows = [nu] + [random_flow(rng, grid, gen.m) for _ in range(batch - 1)]
            for (k, C, profiles, P, *_), (k1, C1, profiles1, P1) in zip(
                    sweep_cells(backward_columns(gen, cost, flows)),
                    oracles.backward_loop(gen, cost, flows), strict=True):
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
        for (k, C, profiles, P, diagonal, extremes), (k1, C1, profiles1, P1) in zip(
                sweep_cells(backward_columns(gen, cost, flows)),
                oracles.backward_loop(gen, cost, flows), strict=True):
            assert k == k1
            assert np.array_equal(C, C1)
            assert np.array_equal(diagonal, evaluation_rows(basis, C1, [k])[:, 0])
            assert np.array_equal(extremes, evaluation_rows(basis, C1, basis.extreme_rows))
            if k < grid.steps:
                assert np.array_equal(profiles, profiles1)
                assert np.array_equal(P, P1)

    @pytest.mark.parametrize("steps", [1, SWEEP_BLOCK - 1, SWEEP_BLOCK, SWEEP_BLOCK + 1,
                                       2 * SWEEP_BLOCK + 3])
    def test_block_edge_readouts(self, steps):
        rng, grid, gen, cost = self.block_edge_instance(steps)
        nu = random_flow(rng, grid, 3)
        sweep, policy = solve_hj(gen, cost, nu)
        diagonal, low, high, actions, transitions = oracles.solve_hj_loop(gen, cost, nu)
        assert np.array_equal(sweep.values, diagonal)
        assert np.array_equal(policy.actions, actions)
        assert np.array_equal(sweep.transitions, transitions)
        assert (sweep.low, sweep.high) == (low, high)
        pairs = [(random_flow(rng, grid, 3), random_flow(rng, grid, 3)) for _ in range(6)]
        assert np.array_equal(table_distances(gen, cost, pairs),
                              oracles.table_distances_loop(gen, cost, pairs))

    def test_solve_hj_readouts(self):
        for _, _, gen, cost, nu in self.CASES:
            sweep, policy = solve_hj(gen, cost, nu)
            diagonal, low, high, actions, transitions = oracles.solve_hj_loop(gen, cost, nu)
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
            worst = table_distances(gen, cost, pairs)
            assert worst.shape == (6,)
            assert np.array_equal(worst, oracles.table_distances_loop(gen, cost, pairs))

    def test_pairs_behind_a_lead_flow(self):
        # kappa3's twelve probe flows ride behind the lead flow in one
        # 13-flow sweep: the lead's readouts are solve_hj's alone and the
        # pairs' distances table_distances' alone, bit for bit
        for _, grid, gen, cost, nu in self.CASES:
            pairs = draw_probes(gen, cost, grid).pairs
            assert len(pairs) == 6
            (shared, policy), (alone, policy1) = (solve_hj(gen, cost, nu, pairs),
                                                  solve_hj(gen, cost, nu))
            assert np.array_equal(shared.values, alone.values)
            assert np.array_equal(shared.transitions, alone.transitions)
            assert np.array_equal(policy.actions, policy1.actions)
            assert (shared.low, shared.high) == (alone.low, alone.high)
            assert alone.pair_gaps is None
            assert np.array_equal(shared.pair_gaps, table_distances(gen, cost, pairs))


class _PeakedRates(GeneratorModel):
    """Two states on the actions [-1, 1] whose exit rates peak inside the
    interval, 0.4 + 2 (1 - v^2) from state 0 and 0.3 + 1.5 (1 - v^2) from
    state 1: the grid's rate, read at the interval's ends, is 0.4, and every
    profile with an action inside the interval has a larger rate."""

    m, K1 = 2, 2.4

    def rate_matrix(self, t, profile):
        u = np.asarray(profile, dtype=float)
        exits = np.array([0.4, 0.3]) + np.array([2.0, 1.5]) * (1.0 - u * u)
        return exits[..., None] * np.array([[-1.0, 1.0], [1.0, -1.0]])

    def action_bounds(self, t):
        return np.broadcast_to([-1.0, 1.0], np.shape(t) + (2, 2))


class _ScanArgmin(SeparableCost):
    """SeparableCost with the generic scan-plus-golden-section argmin, which
    serves any generator."""

    def argmin_profile(self, gen, t, h):
        return oracles.scan_argmin(self, gen, t, h)


class TestNodeRate:
    """The sweep uniformizes each cell at the grid's rate, exactly as
    transition_stack does, and rejects a cell that the rate does not
    cover."""

    @pytest.mark.parametrize("case", list(shipped_instances())
                             + [_time_varying_instance(), _ramped_instance()],
                             ids=lambda c: c[0])
    def test_sweep_transitions_are_transition_stack(self, case):
        _, _, gen, cost, nu = case
        sweep, policy = solve_hj(gen, cost, nu)
        assert np.array_equal(sweep.transitions, transition_stack(gen, policy))

    def test_rejects_where_node_rate_falls_short(self):
        # the first cell the sweep reaches, the top one, takes actions inside
        # the interval, where the exit rates exceed the grid's
        grid = TimeGrid(0.8, 30)
        gen = _PeakedRates()
        cost = _ScanArgmin(2, running=("mean_square", 0.5), terminal=("table", [0.0, 1.0]),
                           horizon=grid.horizon)
        nu = random_flow(np.random.default_rng(18), grid, 2)
        top = cost.argmin_profile(gen, grid.nodes[-2], cost.terminal(nu.at(grid.steps)))
        Q = gen.rate_matrix(grid.nodes[-2], top)
        assert -Q.diagonal().min() > grid_rate(gen, grid)
        with pytest.raises(NumericalError, match="^generator not covered by the uniformization "
                                                 f"rate at node {grid.steps - 1}$"):
            solve_hj(gen, cost, nu)


class _DefectAtNode(AffineQuadraticModel):
    """affine_mv's generator with `defect` added to its rates at one node
    time, whether t is that node time or an array holding it."""

    def __init__(self, t_bad, defect):
        super().__init__([[-0.8, 0.8], [0.9, -0.9]], [0.4, -0.4])
        self.t_bad, self.defect = t_bad, np.asarray(defect, dtype=float)

    def rate_matrix(self, t, profile):
        Q = super().rate_matrix(t, profile)
        return np.where(np.asarray(t)[..., None, None] == self.t_bad, Q + self.defect, Q)


class TestSweepRejectsBadGenerators:
    """A defective generator at one node in the middle of a block raises,
    naming the node, and the flow when the sweep carries several."""

    GRID = TimeGrid(0.5, 2 * SWEEP_BLOCK + 22)
    NODE = GRID.steps - SWEEP_BLOCK - SWEEP_BLOCK // 2
    DEFECTS = {
        "row-sum": ([[0.0, 0.1], [0.0, 0.0]], "transition row-sum drift .*"),
        "non-finite": ([[np.nan, 0.0], [0.0, 0.0]], "non-finite generator"),
        "negative-entry": ([[1.5, -1.5], [0.0, 0.0]],
                           "generator not covered by the uniformization rate"),
        "+inf": ([[0.0, np.inf], [0.0, 0.0]], "non-finite generator"),
        "-inf": ([[-np.inf, 0.0], [0.0, 0.0]], "non-finite generator"),
    }
    # the top, middle and bottom cell of the block holding NODE
    FIRST = GRID.steps - 2 * SWEEP_BLOCK
    POSITIONS = {"top": FIRST + SWEEP_BLOCK - 1, "middle": NODE, "bottom": FIRST}

    def setup(self, defect, node=NODE):
        rates, message = self.DEFECTS[defect]
        gen = _DefectAtNode(self.GRID.nodes[node], rates)
        cost = SeparableCost(2, running=("mean_square", 0.2), terminal=("mean_variance", "g"),
                             horizon=self.GRID.horizon)
        return gen, cost, message

    @pytest.mark.parametrize("defect", DEFECTS)
    def test_solve_hj(self, defect):
        gen, cost, message = self.setup(defect)
        with pytest.raises(NumericalError, match=f"^{message} at node {self.NODE}$"):
            solve_hj(gen, cost, constant_flow([0.5, 0.5], self.GRID))

    @pytest.mark.parametrize("defect", DEFECTS)
    def test_picard_solve(self, defect):
        gen, cost, message = self.setup(defect)
        nu = constant_flow([0.5, 0.5], self.GRID)
        with pytest.raises(NumericalError, match=f"^{message} at node {self.NODE}$"):
            picard_solve(gen, cost, [0.5, 0.5], self.GRID, initial_flow=nu)

    @pytest.mark.parametrize("defect", DEFECTS)
    def test_picard_solve_carrying_probes(self, defect):
        # the defect fails the probe flows in the shared first sweep too;
        # the error is the Picard flow's own, which names no flow
        gen, cost, message = self.setup(defect)
        nu = constant_flow([0.5, 0.5], self.GRID)
        pairs = draw_probes(gen, cost, self.GRID).pairs
        with pytest.raises(NumericalError, match=f"^{message} at node {self.NODE}$"):
            picard_solve(gen, cost, [0.5, 0.5], self.GRID, initial_flow=nu, probe_pairs=pairs)

    @pytest.mark.parametrize("defect", DEFECTS)
    def test_table_distances(self, defect):
        gen, cost, message = self.setup(defect)
        rng = np.random.default_rng(17)
        pairs = [(random_flow(rng, self.GRID, 2), random_flow(rng, self.GRID, 2))
                 for _ in range(2)]
        with pytest.raises(NumericalError,
                           match=f"^{message} at node {self.NODE}, flow [0-3]$"):
            table_distances(gen, cost, pairs)


    @pytest.mark.parametrize("position", POSITIONS)
    @pytest.mark.parametrize("defect", ["non-finite", "+inf", "-inf"])
    def test_block_positions(self, defect, position):
        # whatever the pass computes below the bad cell from its NaNs, the
        # error names the bad cell, and nothing warns on the way
        node = self.POSITIONS[position]
        gen, cost, message = self.setup(defect, node)
        rng = np.random.default_rng(21)
        flows = [random_flow(rng, self.GRID, 2) for _ in range(3)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericalError, match=f"^{message} at node {node}$"):
                solve_hj(gen, cost, flows[0])
            with pytest.raises(NumericalError, match=f"^{message} at node {node}, flow 0$"):
                list(backward_columns(gen, cost, flows))
        assert caught == []

    @pytest.mark.parametrize("position", POSITIONS)
    def test_argmin_rejecting_the_nans_below(self, position):
        # the cell below the bad one hands its argmin NaNs, which it
        # rejects: the error still names the bad cell
        node = self.POSITIONS[position]
        gen, _, message = self.setup("non-finite", node)
        cost = _FiniteArgmin(2, running=("mean_square", 0.2), terminal=("mean_variance", "g"),
                             horizon=self.GRID.horizon)
        with pytest.raises(NumericalError, match=f"^{message} at node {node}$"):
            solve_hj(gen, cost, constant_flow([0.5, 0.5], self.GRID))


class _FiniteArgmin(SeparableCost):
    """SeparableCost whose argmin rejects a continuation value that is not
    finite."""

    def argmin_profile(self, gen, t, h):
        if not np.isfinite(h).all():
            raise ValueError("non-finite continuation value")
        return super().argmin_profile(gen, t, h)


class _OutsideAtNode(SeparableCost):
    """affine_mv's cost whose argmin gives state 1 of one flow the action
    1.5, outside U = [-1, 1], at one node time: that cell's own rate, 1.5,
    exceeds the grid's, 1.3, so the rate does not cover it."""

    def __init__(self, t_bad, flow):
        super().__init__(2, running=("mean_square", 0.2), terminal=("mean_variance", "g"),
                         horizon=TestSweepRejectsBadGenerators.GRID.horizon)
        self.t_bad, self.flow = t_bad, flow

    def argmin_profile(self, gen, t, h):
        profile = super().argmin_profile(gen, t, h)
        if t == self.t_bad:
            profile[self.flow, 1] = 1.5
        return profile


class _RaisesOnceAtNode(SeparableCost):
    """SeparableCost whose argmin raises the first time it is asked at one
    node time."""

    def __init__(self, t_bad, **kwargs):
        super().__init__(2, **kwargs)
        self.t_bad, self.raised = t_bad, False

    def argmin_profile(self, gen, t, h):
        if t == self.t_bad and not self.raised:
            self.raised = True
            raise FloatingPointError("overflow encountered in multiply")
        return super().argmin_profile(gen, t, h)


class _OverflowsAtNode(_OutsideAtNode):
    """affine_mv's cost whose control cost overflows to inf for one flow at
    one node time; that cell's transitions stay stochastic."""

    def argmin_profile(self, gen, t, h):
        return SeparableCost.argmin_profile(self, gen, t, h)

    def control_profile_cost(self, t, profile):
        c = super().control_profile_cost(t, profile)
        if np.ndim(t) == 0 and t == self.t_bad:
            c[self.flow] = (c[self.flow] + np.finfo(float).max) * 2.0
        return c


class TestBlockCoverage:
    """The sweep tests each block's uniformization once; a block with a
    cell its rate does not cover raises, naming the cell, after the blocks
    above it have come out as the per-cell loop computes them."""

    GRID = TestSweepRejectsBadGenerators.GRID

    @staticmethod
    def counted(monkeypatch):
        calls = {"check_cells": 0}

        def counting(*args, _original=hj.check_cells):
            calls["check_cells"] += 1
            return _original(*args)

        monkeypatch.setattr(hj, "check_cells", counting)
        return calls

    @pytest.mark.parametrize("batch", [1, 12])
    def test_one_test_per_block(self, monkeypatch, batch):
        # the shipped models, and a model whose interval end rounds past the
        # true end: each block is tested once, and every cell equals the
        # per-cell loop's
        calls = self.counted(monkeypatch)
        rng = np.random.default_rng(22)
        for name, model in ([(name, read_model_file(name)) for name in builtin_names()]
                            + [("rounded-end", rounded_end_model())]):
            grid = TimeGrid(model["horizon"], 2 * SWEEP_BLOCK + 22)
            gen, cost = build_model(model, grid)
            flows = [random_flow(rng, grid, gen.m) for _ in range(batch)]
            calls.update(check_cells=0)
            for (k, C, profiles, P, *_), (k1, C1, profiles1, P1) in zip(
                    sweep_cells(backward_columns(gen, cost, flows)),
                    oracles.backward_loop(gen, cost, flows), strict=True):
                assert k == k1
                assert np.array_equal(C, C1), name
                if k < grid.steps:
                    assert np.array_equal(profiles, profiles1)
                    assert np.array_equal(P, P1)
            assert calls == {"check_cells": 3}, name

    def test_rounded_end_is_taken(self):
        # the sweep of test_one_test_per_block reaches the moved end
        model = rounded_end_model()
        grid = TimeGrid(model["horizon"], 2 * SWEEP_BLOCK + 22)
        gen, cost = build_model(model, grid)
        lo = gen.action_bounds(0.0)[1, 0]
        assert lo == np.nextafter(-0.4 / 1.26, 0.0)
        _, policy = solve_hj(gen, cost, random_flow(np.random.default_rng(22), grid, 2))
        assert (policy.actions[:, 1] == lo).any()

    def block_top(self, node):
        """The top of the block holding node: the lowest node yielded before it."""
        return self.GRID.steps - SWEEP_BLOCK * ((self.GRID.steps - 1 - node) // SWEEP_BLOCK)

    def blocks_above(self, gen, cost, nus, node, error, match):
        """Run the sweep beside the per-cell loop: the cells above node's
        block agree bit for bit, and node's block raises."""
        yielded = []
        with pytest.raises(error, match=match):
            for (k, C, profiles, P, *_), (k1, C1, profiles1, P1) in zip(
                    sweep_cells(backward_columns(gen, cost, nus)),
                    oracles.backward_loop(gen, cost, nus)):
                assert k == k1
                assert np.array_equal(C, C1)
                if k < self.GRID.steps:
                    assert np.array_equal(profiles, profiles1)
                    assert np.array_equal(P, P1)
                yielded.append(k)
        assert min(yielded) == self.block_top(node)

    @pytest.mark.parametrize("flows, flow", [(1, 0), (3, 1)])
    @pytest.mark.parametrize("node", [GRID.steps - 1,  # top of the first block
                                      GRID.steps - SWEEP_BLOCK // 2,  # its middle
                                      GRID.steps - SWEEP_BLOCK,  # its bottom
                                      GRID.steps - 2 * SWEEP_BLOCK,  # a middle block's
                                      0])  # the last block's bottom
    def test_uncovered_cell_is_rejected(self, monkeypatch, node, flows, flow):
        # the uncovered cell's block raises, naming the node and the flow,
        # after one test per block reached
        model = read_model_file("affine_mv")
        gen, _ = build_model(model, self.GRID)
        cost = _OutsideAtNode(self.GRID.nodes[node], flow)
        assert grid_rate(gen, self.GRID) < 1.5
        rng = np.random.default_rng(23)
        nus = [random_flow(rng, self.GRID, 2) for _ in range(flows)]
        calls = self.counted(monkeypatch)
        names = f"node {node}" + (f", flow {flow}" if flows > 1 else "")
        self.blocks_above(gen, cost, nus, node, NumericalError,
                          f"^generator not covered by the uniformization rate at {names}$")
        assert calls["check_cells"] == (self.GRID.steps - self.block_top(node)) // SWEEP_BLOCK + 1

    @pytest.mark.parametrize("node", [GRID.steps - 1, GRID.steps - SWEEP_BLOCK, 0])
    def test_raising_argmin_is_named(self, node):
        # an argmin that raises fails the sweep, naming its node
        gen, _ = build_model(read_model_file("affine_mv"), self.GRID)
        spec = dict(running=("mean_square", 0.2), terminal=("mean_variance", "g"),
                    horizon=self.GRID.horizon)
        cost = _RaisesOnceAtNode(self.GRID.nodes[node], **spec)
        rng = np.random.default_rng(24)
        nus = [random_flow(rng, self.GRID, 2) for _ in range(3)]
        message = f"^argmin oracle failed at node {node}: overflow encountered in multiply$"
        self.blocks_above(gen, cost, nus, node, MfeqError, message)
        assert cost.raised


    @pytest.mark.parametrize("flows, flow", [(1, 0), (3, 1)])
    @pytest.mark.parametrize("node", [GRID.steps - 1, GRID.steps - SWEEP_BLOCK, 0])
    def test_overflowing_cost_is_named(self, node, flows, flow):
        # an overflow in a cell whose transitions are stochastic warns of
        # nothing and fails its block, naming the node and the flow
        gen, _ = build_model(read_model_file("affine_mv"), self.GRID)
        cost = _OverflowsAtNode(self.GRID.nodes[node], flow)
        rng = np.random.default_rng(25)
        nus = [random_flow(rng, self.GRID, 2) for _ in range(flows)]
        names = f"node {node}" + (f", flow {flow}" if flows > 1 else "")
        self.blocks_above(gen, cost, nus, node, NumericalError, f"^non-finite value at {names}$")


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
                expected = cost.terminal(nu.at(10))[i]
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
