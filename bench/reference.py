"""Reference computations for the benchmark's output checks.

Everything here is recomputed from the model file with NumPy alone, apart
from the program: no import of `mfeq`, and no `scipy.linalg.expm`.  It
covers the one model family the benchmark runs, two-state affine rates
q(i, j) = alpha(i, j) + beta(j) v with the mean-square running cost and the
mean-variance terminal cost "g":

- the closed-form transition exp(dt Q) of a 2x2 generator;
- the admissible action interval and the clipped stationary point;
- forward propagation of the law and forward trajectory costs;
- the normalized cost change of a one-cell spike.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ACTION_LO, ACTION_HI = -1.0, 1.0


@dataclass(frozen=True)
class Model:
    """The parts of an affine two-state model file that the checks use."""

    horizon: float
    alpha: np.ndarray
    beta: np.ndarray
    scale: float
    w0: float
    w1: float

    @classmethod
    def from_file(cls, path) -> "Model":
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        gen, cost = raw["generator"], raw["cost"]
        running = cost["running"]
        weight = running.get("tau_weight", {"kind": "one"})
        if (raw["states"] != 2 or gen["kind"] != "affine"
                or running["kind"] != "mean_square"
                or weight["kind"] not in ("one", "affine")
                or cost["control"] != "quadratic"
                or cost["terminal"] != "mean_variance_g"):
            raise ValueError(f"{path}: not a model family the reference covers")
        if weight["kind"] == "one":
            w0, w1 = 1.0, 0.0
        else:
            w0, w1 = float(weight["intercept"]), float(weight["slope"])
        return cls(horizon=float(raw["horizon"]),
                   alpha=np.array(gen["alpha"], dtype=float),
                   beta=np.array(gen["beta"], dtype=float),
                   scale=float(running["scale"]), w0=w0, w1=w1)

    @property
    def labels(self) -> np.ndarray:
        return np.array([1.0, 2.0])

    def weight(self, tau: float) -> float:
        return self.w0 + self.w1 * tau

    def interval(self, i: int) -> tuple[float, float]:
        """Largest subinterval of [-1, 1] keeping row i a generator row."""
        j = 1 - i
        lo, hi = ACTION_LO, ACTION_HI
        if self.beta[j] > 0.0:
            lo = max(lo, -self.alpha[i, j] / self.beta[j])
        elif self.beta[j] < 0.0:
            hi = min(hi, -self.alpha[i, j] / self.beta[j])
        return lo, hi

    def clip_argmin(self, h, i: int) -> float:
        """argmin of v^2/2 + v (h . beta) over the admissible interval of i."""
        lo, hi = self.interval(i)
        s = h[0] * self.beta[0] + h[1] * self.beta[1]
        return min(max(-s, lo), hi)

    def transition(self, profile, dt: float) -> np.ndarray:
        """exp(dt Q) in closed form; row i of Q uses the action profile[i]."""
        a = self.alpha[0, 1] + self.beta[1] * profile[0]
        b = self.alpha[1, 0] + self.beta[0] * profile[1]
        s = a + b
        if s == 0.0:
            return np.eye(2)
        # 1 - exp(-s dt) without cancellation for small s dt
        e = -math.expm1(-s * dt) / s
        return np.array([[1.0 - a * e, a * e], [b * e, 1.0 - b * e]])

    def value_bound(self) -> float:
        """(K1 + K2) T + K2 from the model's own constants."""
        k1 = float((np.abs(self.alpha) + np.abs(self.beta)[None, :]).max())
        wmax = max(self.weight(0.0), self.weight(self.horizon))
        k2 = max(wmax * self.scale, 1.0)  # (m-1)^2 caps both cost terms
        return (k1 + k2) * self.horizon + k2

    def flow_lipschitz(self) -> float:
        """Bound on |d theta| per unit of sup-over-nodes TV change of the flow.

        With labels 1 and 2 the mean moves by at most TV/2, and each cost term
        (label - mean)^2 moves by at most 2 |d mean| (labels differ from any
        mean by at most 1), running cost over the horizon plus terminal.
        """
        wmax = max(self.weight(0.0), self.weight(self.horizon))
        return 0.5 * 2.0 * (wmax * self.scale * self.horizon + 1.0)

    def flow_cost(self, nu) -> np.ndarray:
        mean = float(nu @ self.labels)
        return self.scale * (self.labels - mean) ** 2

    def running(self, tau: float, nu) -> np.ndarray:
        return self.weight(tau) * self.flow_cost(nu)

    def terminal(self, nu) -> np.ndarray:
        mean = float(nu @ self.labels)
        return (self.labels - mean) ** 2


def propagate(model: Model, rho, policy: np.ndarray) -> np.ndarray:
    """Law at every node under the per-cell policy, shape (N+1, 2)."""
    n = policy.shape[0]
    dt = model.horizon / n
    out = np.empty((n + 1, 2))
    out[0] = rho
    for k in range(n):
        out[k + 1] = out[k] @ model.transition(policy[k], dt)
    return out


def trajectory_cost(model: Model, flow: np.ndarray, policy: np.ndarray,
                    a: int, k: int, i: int) -> float:
    """Cost from state i at node k, seen from evaluation node a.

    The law of the chain started at delta_i is pushed forward cell by cell;
    the rectangle-rule running cost and the control cost are charged at each
    cell's start, and the terminal cost at the horizon.
    """
    n = policy.shape[0]
    dt = model.horizon / n
    tau = a * dt
    mu = np.zeros(2)
    mu[i] = 1.0
    total = 0.0
    for s in range(k, n):
        f = model.running(tau, flow[s]) + 0.5 * policy[s] ** 2
        total += dt * float(mu @ f)
        mu = mu @ model.transition(policy[s], dt)
    return total + float(mu @ model.terminal(flow[n]))


def spike_profile(model: Model, u: float) -> np.ndarray:
    """The constant action u, clipped into each state's interval."""
    return np.array([min(max(u, lo), hi)
                     for lo, hi in (model.interval(0), model.interval(1))])


def spike_gap(model: Model, flow: np.ndarray, policy: np.ndarray,
              k: int, i: int, u: float) -> float:
    """(cost with cell k spiked to u - cost without) / dt, from node k."""
    dt = model.horizon / policy.shape[0]
    spiked = policy.copy()
    spiked[k] = spike_profile(model, u)
    base = trajectory_cost(model, flow, policy, k, k, i)
    return (trajectory_cost(model, flow, spiked, k, k, i) - base) / dt


def spike_gaps(model: Model, flow: np.ndarray, policy: np.ndarray,
               nodes: np.ndarray, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """spike_gap for many (node, state, action) rows at once.

    The running cost is w(tau) times a flow term, so the cost of the tail
    from node j seen from any tau is w(tau) A_j + C_j + G_j, where A (flow
    cost), C (control cost) and G (terminal cost) follow one backward pass
    over the closed-form transitions.  Each row then needs one 2x2 step.
    """
    n = policy.shape[0]
    dt = model.horizon / n
    steps = [model.transition(policy[s], dt) for s in range(n)]
    run = np.array([model.flow_cost(flow[s]) for s in range(n)])
    ctrl = 0.5 * policy ** 2
    A = np.zeros((n + 1, 2))
    C = np.zeros((n + 1, 2))
    G = np.zeros((n + 1, 2))
    G[n] = model.terminal(flow[n])
    for s in range(n - 1, -1, -1):
        A[s] = dt * run[s] + steps[s] @ A[s + 1]
        C[s] = dt * ctrl[s] + steps[s] @ C[s + 1]
        G[s] = steps[s] @ G[s + 1]

    spiked_steps = {}
    out = np.empty(len(nodes))
    for r, (k, i, u) in enumerate(zip(nodes, states, actions)):
        if u not in spiked_steps:
            spiked_steps[u] = model.transition(spike_profile(model, u), dt)
        tail = model.weight(k * dt) * A[k + 1] + C[k + 1] + G[k + 1]
        # the running cost of cell k is the same with and without the spike
        base = dt * ctrl[k, i] + steps[k][i] @ tail
        spiked = dt * 0.5 * u * u + spiked_steps[u][i] @ tail
        out[r] = (spiked - base) / dt
    return out


def spike_jump_stderr(model: Model, flow: np.ndarray, policy: np.ndarray,
                      k: int, i: int, u: float, pairs: int) -> float:
    """Standard error of a paired Monte Carlo spike gap over `pairs` pairs.

    Under common random numbers the base and spiked paths differ only when
    the changed exit rate r moves a jump in the spiked cell, which happens
    with probability about |dr| dt; the path costs then differ by the
    continuation gap x between the two states at node k+1.  The per-pair
    variance of the gap (difference / dt) is about |dr| x^2 / dt.
    """
    dt = model.horizon / policy.shape[0]
    j = 1 - i
    dr = abs(model.beta[j] * (u - policy[k, i]))
    x = (trajectory_cost(model, flow, policy, k, k + 1, j)
         - trajectory_cost(model, flow, policy, k, k + 1, i))
    return math.sqrt(dr * x * x / dt / pairs)
