"""Many-player simulation: exactness, determinism, empirical measures."""

import numpy as np
import pytest
from scipy.stats import chi2, chi2_contingency

from mfeq import (
    ProbabilityVector,
    SimConfig,
    StrategyTable,
    TabulatedGenerator,
    TimeGrid,
    deviation_test,
    picard_solve,
    simulate,
    transition_stack,
)
from mfeq.errors import DimensionMismatch, NumericalError
from mfeq.modelfile import build_model, read_model_file
from mfeq.simulate import _cumulative, _population

import oracles
from instances import random_affine_generator, random_strategy, two_state_transition
from oracles import (constant_flow, constant_strategy, dirac, empirical_flow_error,
                     equilibrium_of, jump_simulate, peer_flows, spike_gap, strategy_flow)


@pytest.fixture(scope="module")
def symmetric_setup():
    grid = TimeGrid(0.5, 10)
    gen = TabulatedGenerator([[-1.0, 1.0], [1.0, -1.0]])
    strat = constant_strategy(grid, 2, 0.0)
    rho = dirac(0, 2)
    return grid, gen, strat, rho


@pytest.fixture(scope="module")
def alternating_affine_mv():
    """affine_mv on 8 cells under a policy whose sign flips every cell."""
    model = read_model_file("affine_mv")
    grid = TimeGrid(model["horizon"], 8)
    gen, _ = build_model(model, grid)
    signs = np.where(np.arange(grid.steps) % 2 == 0, 1.0, -1.0)
    strat = StrategyTable(signs[:, None] * np.array([0.9, -0.6]), grid)
    return grid, gen, strat, ProbabilityVector([0.6, 0.4])


@pytest.fixture(scope="module")
def solved_affine_mv():
    model = read_model_file("affine_mv")
    grid = TimeGrid(model["horizon"], 25)
    gen, cost = build_model(model, grid)
    eq = picard_solve(gen, cost, ProbabilityVector.uniform(2), grid)
    assert eq.converged
    return gen, cost, eq


class TestSimConfig:
    def test_single_player_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(players=1, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            SimConfig(players=10, seed=-1)

    def test_replications_positive(self):
        with pytest.raises(ValueError):
            SimConfig(players=10, seed=0, replications=0)


class TestSimulate:
    def test_zero_generator_no_jumps(self):
        grid = TimeGrid(1.0, 5)
        gen = TabulatedGenerator(np.zeros((3, 3)))
        strat = constant_strategy(grid, 3, 0.0)
        rho = ProbabilityVector([0.2, 0.3, 0.5])
        bundle = simulate(transition_stack(gen, strat), rho, SimConfig(players=500, seed=7))
        for k in range(1, 6):
            np.testing.assert_array_equal(bundle.states[:, k], bundle.states[:, 0])

    @pytest.mark.parametrize("rho, message", [
        ([np.nan, np.nan], "^non-finite mass in probability vector$"),
        ([1.5, -0.5], "^negative mass -5.000e-01 in probability vector$"),
        ([0.0, 0.0], "^probability vector has no mass$"),
    ], ids=["nan", "negative", "massless"])
    def test_initial_law_is_checked(self, symmetric_setup, rho, message):
        # the sampler draws its initial states from a law, never from a
        # vector that would put every player in state 0
        _, gen, strat, _ = symmetric_setup
        with pytest.raises(NumericalError, match=message):
            simulate(transition_stack(gen, strat), rho,
                     SimConfig(players=1000, seed=1, replications=1))

    def test_initial_law_must_fit_the_stack(self, symmetric_setup):
        _, gen, strat, _ = symmetric_setup
        with pytest.raises(DimensionMismatch, match="transition stack"):
            simulate(transition_stack(gen, strat), [0.2, 0.3, 0.5], SimConfig(players=10, seed=1))

    def test_deterministic_given_seed(self, symmetric_setup):
        _, gen, strat, rho = symmetric_setup
        cfg = SimConfig(players=200, seed=123)
        b1 = simulate(transition_stack(gen, strat), rho, cfg)
        b2 = simulate(transition_stack(gen, strat), rho, cfg)
        np.testing.assert_array_equal(b1.states, b2.states)

    def test_different_replications_differ(self, symmetric_setup):
        _, gen, strat, rho = symmetric_setup
        cfg = SimConfig(players=200, seed=123)
        b1 = simulate(transition_stack(gen, strat), rho, cfg, replication=0)
        b2 = simulate(transition_stack(gen, strat), rho, cfg, replication=1)
        assert not np.array_equal(b1.states, b2.states)

    def test_closed_form_marginal(self, symmetric_setup):
        _, gen, strat, rho = symmetric_setup
        bundle = simulate(transition_stack(gen, strat), rho, SimConfig(players=100_000, seed=9))
        emp = bundle.empirical_flow()
        expected = two_state_transition(1.0, 1.0, 0.5)[0, 0]
        assert emp[10, 0] == pytest.approx(expected, abs=0.01)

    def test_marginal_law_chi_square(self):
        # node frequencies against the propagated law, Bonferroni at 1%
        model = read_model_file("affine_mv")
        grid = TimeGrid(model["horizon"], 8)
        gen, cost = build_model(model, grid)
        strat = constant_strategy(grid, 2, 0.2)
        rho = ProbabilityVector([0.6, 0.4])
        flow = strategy_flow(gen, rho, strat)
        n_players = 20_000
        bundle = simulate(transition_stack(gen, strat), rho, SimConfig(players=n_players, seed=21))
        alpha = 0.01 / (grid.steps + 1)
        for k in range(grid.steps + 1):
            counts = np.bincount(bundle.states[:, k], minlength=2)
            expected = flow.at(k) * n_players
            stat = float(((counts - expected) ** 2 / expected).sum())
            p_value = float(chi2.sf(stat, df=1))
            assert p_value >= alpha

    def test_node_counts_match_jump_oracle(self, alternating_affine_mv):
        # two-sample chi-square per node against the per-player jump loop,
        # Bonferroni at 1%
        grid, gen, strat, rho = alternating_affine_mv
        bundle = simulate(transition_stack(gen, strat), rho, SimConfig(players=20_000, seed=41))
        oracle = jump_simulate(gen, strat, rho, players=10_000, seed=43)
        alpha = 0.01 / grid.steps
        for k in range(1, grid.steps + 1):
            table = [np.bincount(b.states[:, k], minlength=2) for b in (bundle, oracle)]
            p_value = chi2_contingency(table, correction=False).pvalue
            assert p_value >= alpha

    def test_pair_transition_chi_square(self, alternating_affine_mv):
        # counts of (x_k, x_{k+1}) against flow[k] (x) transitions[k]: a row of
        # the wrong cell changes these counts even where the marginals agree
        grid, gen, strat, rho = alternating_affine_mv
        n_players = 20_000
        flow = strategy_flow(gen, rho, strat)
        P = transition_stack(gen, strat)
        bundle = simulate(P, rho, SimConfig(players=n_players, seed=47))
        alpha = 0.01 / grid.steps
        for k in range(grid.steps):
            pairs = 2 * bundle.states[:, k] + bundle.states[:, k + 1]
            counts = np.bincount(pairs, minlength=4)
            expected = n_players * (flow.at(k)[:, None] * P[k]).ravel()
            stat = float(((counts - expected) ** 2 / expected).sum())
            assert float(chi2.sf(stat, df=3)) >= alpha


class TestVectorizedSampler:
    """The sampler's threshold columns against the per-cell inverse-CDF loop
    it replaced (oracles.population_loop): the same Philox uniforms give the
    same paths."""

    @pytest.mark.parametrize("m, time_varying", [(2, False), (3, False), (4, False),
                                                 (3, True)])
    def test_paths_equal_per_cell_loop(self, m, time_varying):
        rng = np.random.default_rng(60 + m)
        grid = TimeGrid(3.0, 30)
        gen = random_affine_generator(rng, m, grid=grid, time_varying=time_varying)
        cum = _cumulative(transition_stack(gen, random_strategy(rng, gen, grid)))
        rho = rng.dirichlet(np.ones(m))
        for players in (2, 3, 700):
            for replication in (0, 4):
                bundle = _population(cum, rho, players, 11, replication)
                loop = oracles.population_loop(cum, rho, grid, players, 11, replication)
                assert bundle.states.shape == (players, grid.steps + 1)
                assert bundle.states.dtype == np.min_scalar_type(m - 1)
                assert np.array_equal(bundle.states, loop.states)

    @pytest.mark.parametrize("m, itemsize", [(1, 1), (257, 2)])
    def test_hand_built_stack_equals_per_cell_loop(self, m, itemsize):
        # 257 states need two-byte paths, and one state keeps every path in
        # state 0; a cyclic shift mixed with the uniform law gives a stack
        # without an m x m exponential
        grid = TimeGrid(1.0, 6)
        rng = np.random.default_rng(m)
        shift = np.roll(np.eye(m), 1, axis=1)
        mix = rng.uniform(0.05, 0.95, size=(grid.steps, 1, 1))
        cum = _cumulative((1.0 - mix) * shift + mix / m)
        rho = rng.dirichlet(np.ones(m))
        bundle = _population(cum, rho, 900, 11, 2)
        loop = oracles.population_loop(cum, rho, grid, 900, 11, 2)
        assert bundle.states.dtype == np.min_scalar_type(m - 1)
        assert bundle.states.itemsize == itemsize
        assert np.array_equal(bundle.states, loop.states)
        assert bundle.states.max() == m - 1
        assert np.array_equal(bundle.counts, oracles.state_counts_loop(loop.states, m))

    def test_empirical_flow_equals_per_node_counts(self, alternating_affine_mv):
        _, gen, strat, rho = alternating_affine_mv
        bundle = simulate(transition_stack(gen, strat), rho, SimConfig(players=999, seed=3))
        # a bundle whose states are C-ordered (players, steps+1), as the jump
        # oracle builds them, counts the same way
        jumps = jump_simulate(gen, strat, rho, players=300, seed=5)
        for b in (bundle, jumps):
            assert np.array_equal(b.empirical_flow(),
                                  oracles.empirical_flow_loop(b.states, gen.m, strat.grid))


class TestPopulationCounts:
    """The bundle's (m - 1)-pass counts against one pass per state, and its
    leave-one-out peer flow against the empirical flow of players 1 to P-1."""

    @staticmethod
    def population(m, players):
        rng = np.random.default_rng(80 + m)
        grid = TimeGrid(2.0, 20)
        gen = random_affine_generator(rng, m, grid=grid, time_varying=True)
        rho = ProbabilityVector(rng.dirichlet(np.ones(m)))
        stack = transition_stack(gen, random_strategy(rng, gen, grid))
        return grid, simulate(stack, rho, SimConfig(players=players, seed=13))

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_counts_equal_per_state_loop(self, m):
        _, bundle = self.population(m, 501)
        loop = oracles.state_counts_loop(bundle.states, m)
        assert np.array_equal(bundle.counts, loop)
        # the empirical flow divides the same integers, so it is bit for bit
        assert np.array_equal(bundle.empirical_flow(), loop / 501)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_peer_flow_is_population_without_player_zero(self, m):
        grid, bundle = self.population(m, 501)
        peer = bundle.peer_flow()
        assert np.array_equal(peer, oracles.empirical_flow_loop(bundle.states[1:], m, grid))
        # the population is left as it was
        assert np.array_equal(bundle.counts, oracles.state_counts_loop(bundle.states, m))

    def test_two_players_leave_one_peer(self, symmetric_setup):
        _, gen, strat, rho = symmetric_setup
        bundle = simulate(transition_stack(gen, strat), rho, SimConfig(players=2, seed=3))
        assert np.array_equal(bundle.peer_flow(), np.eye(2)[bundle.states[1]])


class TestEmpiricalMeasures:
    def test_zero_generator_error_is_initial_sampling_only(self):
        grid = TimeGrid(1.0, 4)
        gen = TabulatedGenerator(np.zeros((2, 2)))
        strat = constant_strategy(grid, 2, 0.0)
        rho = ProbabilityVector([0.5, 0.5])
        nu = constant_flow(rho.weights, grid)
        bundle = simulate(transition_stack(gen, strat), rho, SimConfig(players=1000, seed=5))
        emp = bundle.empirical_flow()
        node_errors = np.abs(emp - nu.values).sum(axis=1)
        np.testing.assert_allclose(node_errors, node_errors[0])
        assert empirical_flow_error(bundle, nu) == pytest.approx(node_errors[0])

    def test_error_decays_with_population(self, symmetric_setup):
        _, gen, strat, rho = symmetric_setup
        nu = strategy_flow(gen, rho, strat)
        errors = []
        for n_players in (100, 1000, 10_000):
            errs = [empirical_flow_error(
                simulate(transition_stack(gen, strat), rho,
                         SimConfig(players=n_players, seed=31), replication=r), nu)
                for r in range(5)]
            errors.append(np.mean(errs))
        assert errors[0] > errors[1] > errors[2]


class TestDeviationTest:
    def test_noop_spike_gap_exactly_zero(self, solved_affine_mv):
        gen, cost, eq = solved_affine_mv
        k0 = 10
        base_action = float(eq.policy.actions[k0, 0])
        cfg = SimConfig(players=200, seed=17, replications=3)
        # spiking with the profile's own scalar action leaves the clipped
        # profile different at the other state, so use a state whose action
        # matches the full profile (affine_mv policies are state-constant)
        assert np.allclose(eq.policy.actions[k0], base_action)
        est = deviation_test(eq, gen, cost, spike=(k0, 0, base_action), cfg=cfg,
                             peers=peer_flows(eq, cfg), inner_pairs=20)
        assert est.gap == 0.0
        assert est.ci_low == est.ci_high == 0.0

    def test_matches_deterministic_gap_at_scale(self, solved_affine_mv):
        gen, cost, eq = solved_affine_mv
        k0, i0, u = 10, 0, 0.8
        det = spike_gap(eq, gen, cost, k0, i0, u)
        cfg = SimConfig(players=4000, seed=29, replications=6)
        est = deviation_test(eq, gen, cost, spike=(k0, i0, u),
                             cfg=cfg, peers=peer_flows(eq, cfg), inner_pairs=300)
        assert est.covers(det) or abs(est.gap - det) <= max(0.05, 3 * est.stderr)

    def test_exact_peers_give_the_spike_gap(self, solved_affine_mv):
        # against the flow itself the conditional tails are the only Monte
        # Carlo, and their mean is the trajectory cost the oracle takes
        gen, cost, eq = solved_affine_mv
        cfg = SimConfig(players=10, seed=3, replications=10)
        peers = np.broadcast_to(eq.flow.values, (cfg.replications,) + eq.flow.values.shape)
        for k0, i0, u in ((10, 0, 0.8), (10, 1, -0.9), (3, 0, -0.5)):
            det = spike_gap(eq, gen, cost, k0, i0, u)
            est = deviation_test(eq, gen, cost, spike=(k0, i0, u), cfg=cfg, peers=peers,
                                 inner_pairs=2000)
            assert est.stderr > 0.0 and abs(est.gap - det) <= 3.0 * est.stderr

    def test_last_cell_spike_reads_the_terminal_cost(self, solved_affine_mv):
        # from the last node the tails are the peers' terminal costs, with
        # no path to sample: the exact flow gives the spike gap to roundoff
        gen, cost, eq = solved_affine_mv
        cfg = SimConfig(players=10, seed=3, replications=2)
        peers = np.broadcast_to(eq.flow.values, (2,) + eq.flow.values.shape)
        k0 = eq.grid.steps - 1
        est = deviation_test(eq, gen, cost, spike=(k0, 1, 0.5), cfg=cfg, peers=peers,
                             inner_pairs=3)
        assert est.stderr == 0.0
        assert est.gap == pytest.approx(spike_gap(eq, gen, cost, k0, 1, 0.5), abs=1e-12)

    def test_both_spikes_of_c10s_tie_are_covered(self):
        # c10 tests verify's worst spike; at N = 100 the two least gaps tie to
        # 5.5e-15 (node 99, action 1/7, both states), and common random
        # numbers covered only one of them.  The last cell's tails are
        # terminal costs, so both estimates read the same peers
        model = read_model_file("affine_mv")
        grid = TimeGrid(model["horizon"], 100)
        gen, cost = build_model(model, grid)
        eq = picard_solve(gen, cost, ProbabilityVector.uniform(2), grid)
        cfg = SimConfig(players=10_000, seed=202, replications=5)
        peers = peer_flows(eq, cfg)
        for state in (0, 1):
            det = spike_gap(eq, gen, cost, 99, state, 1.0 / 7.0)
            est = deviation_test(eq, gen, cost, spike=(99, state, 1.0 / 7.0), cfg=cfg,
                                 peers=peers, inner_pairs=400)
            assert est.stderr > 1e-5 and est.covers(det)

    def test_adversarial_spike_on_corrupted_policy(self, solved_affine_mv):
        gen, cost, eq = solved_affine_mv
        k0, i0 = 10, 0
        good = float(eq.policy.actions[k0, i0])
        bad_profile = eq.policy.actions[k0].copy()
        bad_profile[:] = good + 0.6
        policy = eq.policy.with_cell(k0, bad_profile)
        bad_eq = equilibrium_of(gen, eq.rho, policy, diagnostics=eq.diagnostics)
        cfg = SimConfig(players=4000, seed=37, replications=4)
        est = deviation_test(bad_eq, gen, cost, spike=(k0, i0, good),
                             cfg=cfg, peers=peer_flows(bad_eq, cfg), inner_pairs=300)
        # returning to the equilibrium action is significantly improving
        assert est.ci_high < 0.0

    def test_two_players_leave_one_peer(self, solved_affine_mv):
        gen, cost, eq = solved_affine_mv
        cfg = SimConfig(players=2, seed=3, replications=2)
        est = deviation_test(eq, gen, cost, spike=(10, 0, 0.8), cfg=cfg,
                             peers=peer_flows(eq, cfg), inner_pairs=10)
        assert est.pairs == 20
        assert np.isfinite(est.gap) and est.ci_low <= est.gap <= est.ci_high

    @pytest.mark.parametrize("reps", [2, 4])
    def test_one_peer_flow_per_replication(self, solved_affine_mv, reps):
        gen, cost, eq = solved_affine_mv
        peers = peer_flows(eq, SimConfig(players=10, seed=1, replications=3))
        with pytest.raises(DimensionMismatch, match="peer flows"):
            deviation_test(eq, gen, cost, spike=(5, 0, 0.2),
                           cfg=SimConfig(players=10, seed=1, replications=reps),
                           peers=peers)

    @pytest.mark.parametrize("pairs", [0, -3])
    def test_inner_pairs_at_least_one(self, solved_affine_mv, pairs):
        gen, cost, eq = solved_affine_mv
        cfg = SimConfig(players=10, seed=1, replications=2)
        with pytest.raises(ValueError, match="inner pairs"):
            deviation_test(eq, gen, cost, spike=(5, 0, 0.2), cfg=cfg,
                           peers=peer_flows(eq, cfg), inner_pairs=pairs)

    def test_spike_must_fit(self, solved_affine_mv):
        gen, cost, eq = solved_affine_mv
        cfg = SimConfig(players=10, seed=1, replications=1)
        with pytest.raises(ValueError):
            deviation_test(eq, gen, cost, (eq.grid.steps, 0, 0.0), cfg, peer_flows(eq, cfg))
