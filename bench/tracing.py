"""Per-layer spans and counts, recorded from outside the program.

`Tracer.install` wraps the public functions of each `mfeq` layer and puts
the wrapper in every `mfeq` module namespace that holds the function, so
calls through a name imported with `from .chain import transition_matrix`
are traced too.  Methods of the model classes are wrapped on the class.  A
span's self time is its duration minus the time of the traced calls made
inside it.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

MB = 1024.0 * 1024.0
CALIBRATION_CALLS = 50_000
CALIBRATION_REPEATS = 5


def _mfeq_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "mfeq" or name.startswith("mfeq."))]


def span_cost_s() -> float:
    """Seconds one span wrapper adds to a call: a wrapped no-op against a
    bare one, each the fastest of CALIBRATION_REPEATS timings of
    CALIBRATION_CALLS calls.  Counters are cheaper than spans, so charging
    every wrapped call this cost overestimates the overhead."""

    def noop():
        return None

    def fastest(fn) -> float:
        times = []
        for _ in range(CALIBRATION_REPEATS):
            t0 = time.perf_counter()
            for _ in range(CALIBRATION_CALLS):
                fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    wrapped = Tracer()._span("noop", noop)
    return max(0.0, (fastest(wrapped) - fastest(noop)) / CALIBRATION_CALLS)


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.picard_iterations = 0
        self.perturbations = 0
        self.player_cells = 0
        self.table_mb = 0.0
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}

    def _span(self, name: str, fn, after=None):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - inner
            if after is not None:
                after(result, *args)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod in _mfeq_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced layer; `mfeq.cli` must already be imported."""
        import mfeq.chain as chain
        import mfeq.cli as cli
        import mfeq.hj as hj
        import mfeq.modelfile as modelfile
        import mfeq.models as models
        import mfeq.solver as solver
        import mfeq.verify as verify

        # the package re-exports the function `simulate` under the module's
        # own name, so the module is taken from sys.modules
        sim = sys.modules["mfeq.simulate"]

        def on_table(result, *args):
            self.table_mb = max(self.table_mb, result[0].values.nbytes / MB)

        def on_picard(result, *args):
            self.picard_iterations += result.diagnostics.iterations

        def on_sweep(result, *args):
            self.perturbations += len(result.entries)

        def on_population(result, *args):
            self.player_cells += result.states.shape[0] * (result.states.shape[1] - 1)

        spans = [
            (chain, "transition_matrix", None),
            (chain, "propagate_flow", None),
            (chain, "validate_generator", None),
            (hj, "solve_hj", on_table),
            (solver, "picard_solve", on_picard),
            (solver, "estimate_constants", None),
            (verify, "verify_local_optimality", on_sweep),
            (sim, "simulate", on_population),
            (sim, "deviation_test", None),
            (modelfile, "read_model_file", None),
            (modelfile, "build_model", None),
            (cli, "cmd_solve", None),
            (cli, "cmd_verify", None),
            (cli, "cmd_simulate", None),
        ]
        for module, attr, after in spans:
            original = getattr(module, attr)
            self.originals[f"{module.__name__}.{attr}"] = original
            self._replace_everywhere(original, self._span(attr, original, after))

        self._set(models.SeparableCost, "argmin_profile",
                  self._span("argmin_profile", models.SeparableCost.argmin_profile))
        self._set(models.AffineQuadraticModel, "rate_matrix",
                  self._counter("rate_matrix", models.AffineQuadraticModel.rate_matrix))
        nodes = chain.TimeGrid.__dict__["nodes"]
        self._set(chain.TimeGrid, "nodes", property(self._counter("nodes", nodes.fget)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def metrics(self) -> dict[str, float]:
        t, s, c = self.total, self.self_time, self.calls
        cli_self = sum(s[name] for name in ("cmd_solve", "cmd_verify", "cmd_simulate"))
        return {
            "modelfile.load_s": t["read_model_file"] + t["build_model"],
            "chain.expm_calls": c["transition_matrix"],
            "chain.expm_s": t["transition_matrix"],
            "chain.propagate_self_s": s["propagate_flow"],
            "chain.nodes_calls": c["nodes"],
            "chain.validate_generator_s": t["validate_generator"],
            "models.argmin_calls": c["argmin_profile"],
            "models.argmin_s": t["argmin_profile"],
            "models.rate_matrix_calls": c["rate_matrix"],
            "hj.sweeps": c["solve_hj"],
            "hj.sweep_self_s": s["solve_hj"],
            "hj.table_mb": self.table_mb,
            "solver.picard_iterations": self.picard_iterations,
            "solver.picard_s": t["picard_solve"],
            "solver.constants_s": t["estimate_constants"],
            "solver.constants_self_s": s["estimate_constants"],
            "verify.perturbations": self.perturbations,
            "verify.sweep_self_s": s["verify_local_optimality"],
            "simulate.population_calls": c["simulate"],
            "simulate.population_s": t["simulate"],
            "simulate.player_cells": self.player_cells,
            "simulate.deviation_s": t["deviation_test"],
            "cli.self_s": cli_self,
        }
