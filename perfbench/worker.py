"""One sample process: set up one workload in a fresh interpreter, then run
it repeatedly for a time budget.

Usage: python3 perfbench/worker.py --workload NAME --seed N --seconds S
       [--trace]

Prints one JSON object: the set-up time, the peak RSS, provenance, and one
entry per execution with its wall time, evaluated checks, trajectory tally
and, with --trace, its per-layer metrics. ``run.py`` starts these; bohmsim
must be importable (run.py puts ``src`` on PYTHONPATH).
"""

import time

T_START = time.perf_counter()  # before anything imports numpy or bohmsim

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def provenance(seed):
    import numpy
    import scipy

    import bohmsim

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "kernel_backend": bohmsim.kernel_backend, "seed": seed}


def reference_kernel():
    """Fixed numpy and Python work that touches no bohmsim code, in four
    parts of similar length: 2-d FFTs, gather-and-weight batches like the
    interpolation kernels, a sweep over one-row arrays like the tridiagonal
    solve, and a pure-Python loop. Its time tracks how fast the host runs
    right now."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.random((128, 128)) + 1j * rng.random((128, 128))
    x = rng.random(2048) * 100.0
    v = rng.random(4096) + 0j
    lo = rng.random((1, 1025)) + 0j
    d = 4.0 + rng.random((1, 1025)) + 0j
    row = np.ones_like(lo)
    t0 = time.perf_counter()
    for _ in range(100):
        a = np.fft.ifft2(np.fft.fft2(a))
    for _ in range(400):
        s = np.mod(x, 4096.0)
        i = np.floor(s).astype(np.int64)
        idx = np.stack([np.mod(i + k, 4096) for k in range(4)])
        u = s - i
        w = np.stack([u, u * u, u - 1.0, u + 1.0])
        np.einsum("km,km->m", w, v[idx])
    for _ in range(10):
        for i in range(1, 1025):
            row[:, i] = (d[:, i] - lo[:, i] * row[:, i - 1]) / d[:, i]
    acc = 0
    for k in range(300000):
        acc += k
    return time.perf_counter() - t0


def execute(wl, inputs, trace):
    """Time one execution of the workload; with ``trace`` the wrappers are
    installed for this execution only."""
    if trace:
        import layers
        from tracer import Tracer

        with Tracer(layers.TARGETS) as tracer:
            t0 = time.perf_counter()
            outcome = wl.run(inputs)
            wall = time.perf_counter() - t0
        values, absent = layers.layer_metrics(tracer, wall)
        extra = {"layers": values, "absent": absent}
    else:
        t0 = time.perf_counter()
        outcome = wl.run(inputs)
        wall = time.perf_counter() - t0
        extra = {}
    return {"wall_s": wall, "checks": outcome.checks,
            "members": outcome.members, "halted": outcome.halted, **extra}


def measure(name, seed, seconds, trace=False, tiny=False):
    """Set up once, then execute until the next execution would end past
    ``seconds`` (at least once). Returns the sample dict.

    ``setup_s`` counts from interpreter start-up when this module is the
    main program, so it includes importing bohmsim.
    """
    import workloads

    t_setup = time.perf_counter()
    wl = workloads.WORKLOADS[name]
    inputs = wl.prepare(seed, tiny=tiny)
    t_ready = time.perf_counter()
    start = T_START if __name__ == "__main__" else t_setup
    runs = []
    ref = reference_kernel()
    while True:
        run = execute(wl, inputs, trace)
        ref_after = reference_kernel()
        run["ref_s"] = 0.5 * (ref + ref_after)
        run["warmup"] = wl.warmup and not runs
        ref = ref_after
        runs.append(run)
        if time.perf_counter() - t_ready + run["wall_s"] + ref > seconds:
            break
    return {
        "workload": name, "seed": seed, "traced": trace,
        "setup_s": t_ready - start,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "runs": runs, "provenance": provenance(seed)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    sample = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(sample, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
