"""Output checks of the solve, verify and simulate artifacts.

Each check reads an equilibrium directory written by the CLI and compares it
with the reference computations in `reference.py`, or with properties the
output must have.  A check returns the list of problems it found; an empty
list means the artifacts passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from reference import (Model, propagate, spike_gap, spike_gaps, spike_jump_stderr,
                       trajectory_cost)

FLOW_ATOL = 1e-10
POLICY_ATOL = 1e-12
VALUE_ATOL = 1e-9
GAP_ATOL = 1e-9
# spike_report.csv rows drawn for the forward recomputation, besides the smallest gap
FORWARD_ROWS = 3
# standard errors allowed between a Monte Carlo estimate and its reference
Z_FLOW = 5.0
Z_GAP = 4.0


def _csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _rho(m: int) -> np.ndarray:
    return np.full(m, 1.0 / m)


def check_solve(eq: Path, model: Model, tol: float, rng: np.random.Generator) -> list[str]:
    """Converged, flow and policy reproduced, diagonal bounded and reproduced."""
    problems = []
    diag = _json(eq / "equilibrium.json")["diagnostics"]
    if diag["converged"] is not True:
        problems.append("equilibrium.json: not converged")
    final_gap = float(diag["gaps"][-1])
    if not final_gap < tol:
        problems.append(f"equilibrium.json: final gap {final_gap:.3e} not below {tol:.1e}")

    flow = _csv(eq / "flow.csv")[:, 1:]
    policy = _csv(eq / "policy.csv")[:, 1:]
    theta = _csv(eq / "theta_diag.csv")[:, 1:]
    n = policy.shape[0]
    if flow.shape != (n + 1, 2) or theta.shape != (n + 1, 2):
        return problems + [f"artifact shapes {flow.shape}, {policy.shape}, {theta.shape}"]

    ref_flow = propagate(model, _rho(2), policy)
    err = float(np.abs(flow - ref_flow).max())
    if not err <= FLOW_ATOL:
        problems.append(f"flow.csv: differs from the closed-form propagation by {err:.3e}")

    ref_policy = np.array([[model.clip_argmin(theta[k + 1], i) for i in range(2)]
                           for k in range(n)])
    err = float(np.abs(policy - ref_policy).max())
    if not err <= POLICY_ATOL:
        problems.append(f"policy.csv: differs from the clipped stationary point by {err:.3e}")

    bound = model.value_bound()
    if not (theta.min() >= 0.0 and theta.max() <= bound):
        problems.append(f"theta_diag.csv: values in [{theta.min():.6g}, {theta.max():.6g}] "
                        f"outside [0, {bound:.6g}]")

    # The diagonal comes from the last backward sweep, which ran against the
    # flow before flow.csv; the two flows differ by the final gap, so the
    # agreement allows the value change that gap can cause.
    atol = VALUE_ATOL + model.flow_lipschitz() * final_gap
    nodes = sorted({0, n // 2, n - 1, int(rng.integers(0, n + 1))})
    for k in nodes:
        for i in range(2):
            ref = trajectory_cost(model, ref_flow, policy, k, k, i)
            if not abs(theta[k, i] - ref) <= atol:
                problems.append(f"theta_diag.csv: node {k} state {i + 1} is {theta[k, i]!r}, "
                                f"forward evaluation gives {ref!r}")
    return problems


def check_verify(eq: Path, model: Model, action_samples: int,
                 rng: np.random.Generator) -> list[str]:
    """Perturbation count, no gap below -tol, every gap reproduced."""
    problems = []
    summary = _json(eq / "spike_summary.json")
    report = _csv(eq / "spike_report.csv")
    policy = _csv(eq / "policy.csv")[:, 1:]
    n = policy.shape[0]
    dt = model.horizon / n

    per_state = [action_samples if hi > lo else 1
                 for lo, hi in (model.interval(0), model.interval(1))]
    expected = n * sum(per_state)
    if summary["perturbations"] != expected or report.shape[0] != expected:
        problems.append(f"spike sweep: {summary['perturbations']} perturbations and "
                        f"{report.shape[0]} rows, expected {expected}")
    tol = 5.0 * dt
    if not summary["min_gap"] >= -tol:
        problems.append(f"spike_summary.json: min gap {summary['min_gap']!r} below -{tol!r}")
    if summary["violations"]:
        problems.append(f"spike_summary.json: {len(summary['violations'])} violations")
    if report.shape[0] == 0:
        return problems + ["spike_report.csv: empty"]

    flow = propagate(model, _rho(2), policy)
    nodes = np.rint(report[:, 0] / dt).astype(int)
    states = report[:, 1].astype(int) - 1
    ref = spike_gaps(model, flow, policy, nodes, states, report[:, 2])
    err = np.abs(report[:, 3] - ref)
    if not err.max() <= GAP_ATOL:
        r = int(np.argmax(err))
        problems.append(f"spike_report.csv: {int((err > GAP_ATOL).sum())} gaps differ from "
                        f"the backward reference, row {r} by {err[r]:.3e}")
    # a second, forward computation on sampled rows and the smallest gap
    picks = set(rng.choice(report.shape[0], size=min(FORWARD_ROWS, report.shape[0]),
                           replace=False).tolist())
    picks.add(int(np.argmin(report[:, 3])))
    for r in sorted(picks):
        gap = spike_gap(model, flow, policy, nodes[r], states[r], float(report[r, 2]))
        if not abs(report[r, 3] - gap) <= GAP_ATOL:
            problems.append(f"spike_report.csv: row {r} gap {report[r, 3]!r}, "
                            f"forward evaluation gives {gap!r}")
    return problems


def check_simulate(eq: Path, model: Model, players: int, reps: int) -> list[str]:
    """Empirical flow within its binomial error; deviation gap near the spike gap."""
    problems = []
    sim = _json(eq / "sim_report.json")
    if sim["players"] != players or sim["replications"] != reps:
        problems.append(f"sim_report.json: {sim['players']} players and "
                        f"{sim['replications']} replications, expected {players} and {reps}")
    flow = _csv(eq / "flow.csv")[:, 1:]
    policy = _csv(eq / "policy.csv")[:, 1:]
    emp = _csv(eq / "empirical_flow.csv")[:, 1:]
    if emp.shape != flow.shape:
        return problems + [f"empirical_flow.csv: shape {emp.shape}, expected {flow.shape}"]

    # with two states the TV distance is 2 |p_hat - p| at each node, and p_hat
    # averages players * reps Bernoulli draws
    p = flow[:, 0]
    stderr = 2.0 * math.sqrt(float((p * (1.0 - p)).max()) / (players * reps))
    err = float(np.abs(emp - flow).sum(axis=1).max())
    if not err <= Z_FLOW * stderr:
        problems.append(f"empirical_flow.csv: sup-TV distance {err:.4g} exceeds "
                        f"{Z_FLOW:g} standard errors ({Z_FLOW * stderr:.4g})")

    dev = sim["deviation_test"]
    k, i, u = dev["spike_node"], dev["spike_state"] - 1, dev["spike_action"]
    ref_flow = propagate(model, _rho(2), policy)
    ref = spike_gap(model, ref_flow, policy, k, i, u)
    se = max(float(dev["stderr"]),
             spike_jump_stderr(model, ref_flow, policy, k, i, u, dev["pairs"]))
    dt = model.horizon / policy.shape[0]
    if not abs(dev["gap"] - ref) <= Z_GAP * se + dt:
        problems.append(f"sim_report.json: deviation gap {dev['gap']:.6g} is more than "
                        f"{Z_GAP:g} x {se:.4g} + dt from the spike gap {ref:.6g}")
    return problems
