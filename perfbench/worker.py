"""One fresh fairtrade process of the benchmark: set up, then one pass.

Usage: ``python3 perfbench/worker.py SPEC.json`` with ``src`` on PYTHONPATH.
The spec (written by run.py) names the workload kind, its inputs, the
thread count and the mode:

* ``setup``: import fairtrade, parse the config and build its
  environments, then stop;
* ``pass``: the same set-up, then the workload's operations through
  ``fairtrade.cli.main``;
* ``trace``: a pass with the per-module wrappers of tracer.py installed
  after set-up.

The result JSON holds the monotonic time at which set-up ended (run.py
subtracts the time it started the process) and ``ready_cal_s``, the host
speed measured right after (see HostSpeed).  For passes it adds the wall
and CPU seconds of the operations, raw and at the reference host speed,
the peak RSS, and each operation's exit code.
"""

import json
import resource
import signal
import sys
import time

# Thread-CPU seconds of one calibration() call that define the reference
# host speed: about what it takes on the 2-vCPU Xeon VM the benchmark was
# built on.
CAL_REF_S = 0.007
SAMPLE_PERIOD_S = 0.25
BOUNDARY_SAMPLES = 10


class _Pair:
    __slots__ = ("seller", "buyer")

    def __init__(self, seller, buyer):
        self.seller = seller
        self.buyer = buyer


def calibration():
    """A fixed amount of work like the program's (about 10 ms).

    It mixes the two kinds of work the program does on its NumPy path:
    kernel rounds (Python integer arithmetic, a NumPy call, a short dot
    product) and exact-oracle bookkeeping (small objects, small arrays
    built from lists, dicts).
    """
    import numpy as np

    cum = np.array([0.25, 0.5, 1.0])
    v = np.arange(512, dtype=np.float64)
    state, acc = 12345, 0.0
    for i in range(1_500):
        state = (state * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        j = int(np.searchsorted(cum, (state >> 11) * 2.0**-53, side="right"))
        if i % 8 == 0:
            acc += float(np.dot(v[j : j + 256], v[:256]))
    for i in range(600):
        pairs = [_Pair(i * 0.5, 1.0), _Pair(0.25, i * 0.1)]
        sellers = np.asarray([p.seller for p in pairs], dtype=np.float64)
        index = {(p.seller, p.buyer): k for k, p in enumerate(pairs)}
        acc += float(np.maximum(sellers - 0.5, 0.0).sum()) + len(index)
    return acc


class HostSpeed:
    """Samples the host's speed around and while the operations run.

    The CPU speed of a shared virtual machine drifts by up to 2x within
    seconds to minutes, and the program's loops drift with it.  Before and
    after the operations, BOUNDARY_SAMPLES runs of ``calibration`` are
    timed.  With ``periodic``, a timer signal also runs one every
    SAMPLE_PERIOD_S; Python runs signal handlers in the main thread between
    bytecodes, so each sample times the loop on the CPU the program is
    using at that moment, and its time is taken out of the program's.

    Each stretch of program time between two samples is scaled by
    CAL_REF_S over the mean of those two samples.  A multi-threaded pass
    must not sample periodically: its samples would run against the
    program's own threads on the shared vCPUs and scale away the
    contention the pass is there to measure.
    """

    def __init__(self):
        self.samples = []  # (wall at end, loop thread-CPU s, sample wall s)

    def sample(self, *_):
        w0, c0 = time.perf_counter(), time.thread_time()
        calibration()
        c1, w1 = time.thread_time(), time.perf_counter()
        self.samples.append((w1, c1 - c0, w1 - w0))

    def boundary(self) -> float:
        """Mean loop time over BOUNDARY_SAMPLES runs, kept out of the samples."""
        for _ in range(BOUNDARY_SAMPLES):
            self.sample()
        cals = [self.samples.pop()[1] for _ in range(BOUNDARY_SAMPLES)]
        return sum(cals) / BOUNDARY_SAMPLES

    def run(self, ops, periodic: bool, before: float) -> dict:
        """Run the operations; their times raw and at the reference speed.

        ``before`` is the boundary() taken just before.
        """
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        if periodic:
            signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            codes = [op() for op in ops]
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        t1 = time.perf_counter()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        inner = list(self.samples)
        after = self.boundary()
        cals = [before] + [loop for _, loop, _ in inner] + [after]
        edges = [t0] + [end for end, _, _ in inner] + [t1]
        wall = wall_ref = 0.0
        for k in range(len(edges) - 1):
            stretch = edges[k + 1] - edges[k] - (inner[k][2] if k < len(inner) else 0.0)
            wall += stretch
            wall_ref += stretch * CAL_REF_S / ((cals[k] + cals[k + 1]) / 2.0)
        cpu = ru1.ru_utime - ru0.ru_utime + ru1.ru_stime - ru0.ru_stime
        cpu -= sum(loop for _, loop, _ in inner)
        return {
            "exit_codes": codes,
            "wall_s": wall,
            "cpu_s": cpu,
            "wall_ref_s": wall_ref,
            "cpu_ref_s": cpu * wall_ref / wall,
            "cal_s": cals,
        }


def _setup(spec):
    from fairtrade import cli  # noqa: F401  (part of what a user's start costs)
    from fairtrade.algorithms import parse_learner
    from fairtrade.environments import env_from_config
    from fairtrade.verify import resolve_suite_names

    if spec["kind"] == "mc":
        with open(spec["config"], encoding="utf-8") as fh:
            config = json.load(fh)
        for entry in config["runs"]:
            env_from_config(entry["env"])
            parse_learner(entry["learner"])
    else:
        for suite in spec["suites"]:
            resolve_suite_names(suite)


def _operations(spec):
    threads = str(spec["threads"])
    if spec["kind"] == "mc":
        return [["run", "--config", spec["config"], "--out", spec["csv"], "--threads", threads]]
    return [
        ["verify", "--suite", s, "--out", f"{spec['reports']}/{s}.json", "--threads", threads]
        for s in spec["suites"]
    ]


def _metadata():
    import importlib.util
    import platform

    import numpy
    from fairtrade import kernels

    return {
        "kernel_mode": "numba" if kernels.USE_NUMBA else "numpy",
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    _setup(spec)
    result = {"ready": time.monotonic()}
    speed = HostSpeed()
    result["ready_cal_s"] = speed.boundary()
    if spec["mode"] != "setup":
        from fairtrade import cli

        main_fn = cli.main
        tracer = None
        if spec["mode"] == "trace":
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
            main_fn = tracer.span("cli.main", cli.main)
        ops = [lambda argv=argv: main_fn(argv) for argv in _operations(spec)]
        if tracer is None:
            result.update(
                speed.run(ops, periodic=spec["threads"] == 1, before=result["ready_cal_s"])
            )
        else:  # no sampling: its time would land inside the spans
            t0 = time.perf_counter()
            result["exit_codes"] = [op() for op in ops]
            result["wall_s"] = time.perf_counter() - t0
        result.update(
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            meta=_metadata(),
        )
        if tracer is not None:
            result["per_layer"] = tracer.metrics()
            tracer.write_spans(spec["spans"])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
