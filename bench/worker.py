"""One measured process: set up, then run CLI commands in it and time them.

Usage: python3 bench/worker.py '<plan as JSON>'

The plan gives the source directory, the moment the parent started this
process (`time.monotonic`, which is system-wide), the model and grid to set
up, whether to trace, and the CLI argument lists to run.  The last line of
standard output is a JSON report: set-up time, each command's exit code and
wall time, the host speed measured around and during each command, peak
resident memory and, when traced, the per-layer metrics and the estimated
tracing overhead.

The host's speed switches between regimes that differ by a factor of up to
1.7, for seconds to minutes at a time, and every command slows with it.  So
the worker measures the host's speed after set-up and after each command, and
an untraced worker also measures it every TICK_S seconds while a command
runs, from a SIGALRM handler on the command's own thread.  Every measurement
is the same warm calibration, in seconds per loop; the time spent in the
handler is taken out of the command's time.
"""

import contextlib
import gc
import io
import json
import resource
import signal
import statistics
import sys
import time

import numpy as np

CALIBRATION_LOOPS = 800  # about 5 ms
GAP_SAMPLES = 8  # speed samples between two commands
TICK_S = 0.25


def calibrate() -> float:
    """Seconds per loop of a fixed stretch of interpreter work on small
    NumPy arrays, the mix that dominates every command.  The garbage
    collector is held off so that the program's live objects do not change
    the work done."""
    q = np.array([[-1.0, 1.0], [0.5, -0.5]])
    eye = np.eye(2)
    acc = 0.0
    collecting = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    for i in range(CALIBRATION_LOOPS):
        m = q * (1e-3 * (i % 7)) + eye
        acc += float(m[0, 1]) + float(m.sum())
        for j in range(20):
            acc += j * 0.5
    seconds = time.perf_counter() - t0
    if collecting:
        gc.enable()
    return seconds / CALIBRATION_LOOPS


def speed() -> float:
    """One speed sample: a calibration run after a first one has brought its
    code and data back into the caches, which the program has just used."""
    calibrate()
    return calibrate()


def gap_speed() -> float:
    """The speed between two commands: the median of GAP_SAMPLES samples."""
    return statistics.median(speed() for _ in range(GAP_SAMPLES))


class SpeedSampler:
    """Takes a speed sample every TICK_S seconds while running."""

    def __init__(self):
        self.ticks: list[float] = []
        self.spent_s = 0.0  # wall time inside the handler

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.ticks.append(speed())
        self.spent_s += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def main() -> int:
    plan = json.loads(sys.argv[1])
    sys.path.insert(0, plan["src"])
    import mfeq.cli as cli
    import mfeq.modelfile as modelfile
    from mfeq.chain import TimeGrid

    tracer = None
    if plan["trace"]:
        from tracing import Tracer, span_cost_s

        tracer = Tracer()
        tracer.install()

    # looked up through the module, so that the traced run times this load
    model = modelfile.read_model_file(plan["model"])
    modelfile.build_model(model, TimeGrid(model["horizon"], plan["grid"]))
    setup_s = time.monotonic() - plan["t_spawn"]

    # the speed after set-up and after each command, so that every command
    # lies between two measurements
    calibration = [gap_speed()]
    commands = []
    for argv in plan["commands"]:
        out = io.StringIO()
        sampler = SpeedSampler()
        t0 = time.perf_counter()
        with contextlib.ExitStack() as stack:
            if tracer is None:
                stack.enter_context(sampler)
            stack.enter_context(contextlib.redirect_stdout(out))
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                rc = exc.code
        seconds = time.perf_counter() - t0 - sampler.spent_s
        commands.append({"argv": argv, "rc": rc, "seconds": seconds,
                         "ticks": sampler.ticks, "stdout": out.getvalue()})
        calibration.append(gap_speed())

    report = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "commands": commands,
        "calibration": calibration,
    }
    if tracer is not None:
        layers = tracer.metrics()
        # command time over its estimate without tracing: every wrapped call
        # is charged the calibrated cost of one span wrapper
        busy = sum(c["seconds"] for c in commands)
        overhead = sum(tracer.calls.values()) * span_cost_s()
        layers["trace.overhead_ratio"] = busy / (busy - overhead)
        report["layers"] = layers
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
