"""One benchmark call in a fresh process.

Usage: python3 perfbench/worker.py '<json spec>'

The spec names the zoo entry or probe to build during set-up, the
``qsymlab`` CLI arguments to time, and whether to trace. The worker times
set-up (importing qsymlab and building the entry), then one in-process
``cli.main`` call with its report captured in memory, and prints one JSON
line: set-up and call times, exit code, peak RSS, the ``results`` payload
and its digest, and the layer summary when traced.

The speed of a vCPU on a shared host changes by up to 1.8x within seconds,
independently on each vCPU, so raw wall times of one command spread by
30% and more between runs. The worker therefore samples the speed of its
own CPU while it measures: a timer signal runs a fixed reference kernel at
a fixed wall-time interval and times it. Measured wall times exclude the
samples, and dividing a wall time by the samples' harmonic mean counts its
work in kernel units whatever the momentary speed of the machine. The
tracer's clock skips the samples too, so they never land in a span.

* The call is sampled every 50 ms with a numpy kernel (small contractions
  and dict updates, the same mix of work as qsymlab's); ``wall_ref`` is the
  call's wall time in units of that kernel.
* Set-up is sampled every 5 ms with a pure-Python kernel, since numpy is
  not imported yet; ``setup_s`` is set-up time in kernel units times
  SETUP_KERNEL_S, i.e. seconds at a fixed reference speed. The raw seconds
  are reported as ``setup_wall_s``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time
import traceback

CALL_PROBE_INTERVAL_S = 0.05
SETUP_PROBE_INTERVAL_S = 0.005
SETUP_KERNEL_S = 70e-6  # typical duration of setup_kernel on a 2 GHz Xeon; the scale of setup_s


def setup_kernel() -> None:
    """Fixed pure-Python work, about 70 microseconds."""
    table = {}
    total = 0
    for i in range(400):
        total += i * i
        table[i % 13] = total


def call_kernel() -> None:
    """Fixed numpy work that does not depend on qsymlab, about 1.3 ms."""
    import numpy as np

    state = np.ones(16, dtype=complex) / 4
    gate = np.eye(16, dtype=complex)
    table = {}
    for i in range(100):
        state = np.tensordot(gate, state, axes=(1, 0))
        table[i % 7] = float(np.linalg.norm(state))


class SpeedProbe:
    """Times ``kernel`` every ``interval`` seconds of wall time while active."""

    def __init__(self, kernel, interval: float):
        self.kernel = kernel
        self.interval = interval
        self.samples: list[float] = []
        self.sampled_s = 0.0
        self._previous = None

    def sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        self.kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.sampled_s += elapsed

    def clock(self) -> float:
        """perf_counter with the time spent sampling taken out."""
        return time.perf_counter() - self.sampled_s

    def in_kernel_units(self, seconds: float) -> float:
        """``seconds`` divided by the harmonic mean of the samples."""
        return seconds * sum(1 / s for s in self.samples) / len(self.samples)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()  # at least one sample, even for a span shorter than the interval


def main(spec: dict) -> dict:
    probe = SpeedProbe(setup_kernel, SETUP_PROBE_INTERVAL_S)
    start = probe.clock()
    with probe:
        from qsymlab import zoo

        kind, build_id, n = spec["build"]
        if kind == "zoo":
            zoo.build_zoo_entry(build_id, n)
        else:
            zoo.build_distinguisher(build_id, n)
        setup_wall = probe.clock() - start
    out = {"setup_wall_s": setup_wall, "setup_s": probe.in_kernel_units(setup_wall) * SETUP_KERNEL_S}
    if spec.get("setup_only"):
        return out

    probe = SpeedProbe(call_kernel, CALL_PROBE_INTERVAL_S)
    tracer = None
    if spec.get("trace"):
        import tracer as tracing

        tracer = tracing.Tracer(probe.clock)
        tracing.instrument(tracer, "qsymlab")
    from qsymlab import cli

    report = io.StringIO()
    error = None
    call_kernel()  # first numpy calls of the kernel are slower; keep them out of the samples
    start = probe.clock()
    try:
        with probe, contextlib.redirect_stdout(report):
            code = cli.main(spec["argv"])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception:  # noqa: BLE001 - a raising call is a failed run, reported to the parent
        code, error = None, traceback.format_exc()
    out["wall_s"] = probe.clock() - start
    out["wall_ref"] = probe.in_kernel_units(out["wall_s"])
    out["probe_samples"] = len(probe.samples)
    out["exit_code"] = code
    out["error"] = error
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    text = report.getvalue()
    out["report_bytes"] = len(text.encode())
    results = None
    if code == 0 and error is None:
        results = json.loads(text)["results"]
        out["digest"] = hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()
    out["results"] = results
    if tracer is not None:
        out["trace"] = tracing.summary(tracer)
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
