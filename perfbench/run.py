"""Benchmark of bohmsim: end-to-end metrics per workload, or per-layer
metrics from a traced run.

    python3 perfbench/run.py --workload flux-1d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --out base.json
    python3 perfbench/run.py --workload all --trace 1 --out base.json
    python3 perfbench/run.py --compare base.json new.json

Run from the repository root. A run starts at least four sample processes
(``worker.py``, a fresh interpreter with ``src`` on PYTHONPATH) one after
the other until ``--seconds`` is used up. Each sets the workload up once,
which gives one ``setup_s`` sample, and then executes it repeatedly for its
share of the time, which gives the ``wall_s`` samples (on ``collapse-2d``,
whose first execution warms caches, every one after the first). Each metric
is the median over its samples; an execution that fails a check is never
used for timing. With ``--trace 1`` the processes alternate untraced and
traced, the per-layer metrics come from the traced executions, and the
untraced ones give the tracing overhead.

The last line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Exit code 2 means bohmsim could not be
imported from ``src``; no result is printed then.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402  (needs BENCH_DIR on sys.path)

WORKLOADS = ("flux-1d", "oracle-2d", "collapse-2d", "cn-boxed")

# The end-to-end metrics BENCHMARK.json bounds. On a shared virtual machine
# the CPU speed can drift by tens of percent over minutes, and raw wall-time
# medians of successive runs drift with it, so the bounded timing is
# wall_rel: each execution's wall time over that of a fixed reference kernel
# timed in the same process around it.
END_TO_END = [("wall_rel", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("worst_check_ratio", "ratio")]
# Printed and saved but not bounded. wall_s is the raw time. Both health
# figures are 0 on every workload when the program is healthy, so a bound
# relative to them means nothing.
UNBOUNDED = [("wall_s", "s"), ("checks_failed_frac", "ratio"),
             ("halted_member_frac", "ratio")]
PER_LAYER = ([(n, u) for n, u, *_ in layers.METRICS]
             + [(n, u) for n, u, _ in layers.BENCH_METRICS])

MIN_PROCESSES = 4     # sample processes per run; a traced run takes 2 + 2
SETUP_ESTIMATE_S = 1.5  # interpreter start-up plus set-up of one process
HARD_LIMIT_S = 160.0  # sampling time per workload, so a run ends within 180 s


def _env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def preflight():
    """True when bohmsim imports from this checkout's ``src``."""
    if not (ROOT / "src" / "bohmsim" / "__init__.py").is_file():
        print(f"error: no bohmsim sources under {ROOT / 'src'}",
              file=sys.stderr)
        return False
    try:
        proc = subprocess.run([sys.executable, "-c",
                               "import bohmsim.scenarios"],
                              env=_env(), cwd=ROOT, timeout=15)
    except subprocess.TimeoutExpired:
        proc = None
    if proc is None or proc.returncode != 0:
        print("error: bohmsim does not import", file=sys.stderr)
        return False
    return True


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def take_sample(workload, seed, traced, seconds, timeout):
    """Run one worker.py process; returns its sample dict, or None if it
    crashed or timed out."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", f"{seconds:.3f}"]
    if traced:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"{workload}: sample timed out after {timeout:.0f} s",
              file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"{workload}: sample exited {proc.returncode}:\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def passed(execution):
    return all(c["passed"] for c in execution["checks"])


def worst_check_ratio(execution):
    """Largest value/threshold over the accuracy checks: those with a
    numeric tolerance whose value is not a Monte Carlo draw. A value that
    is not finite fails its check, which ``checks_failed_frac`` and
    ``correct`` report; it is left out here so the result stays valid
    JSON."""
    ratios = [c["value"] / c["threshold"] for c in execution["checks"]
              if "threshold" in c and not c.get("statistical")
              and isinstance(c["value"], (int, float))
              and math.isfinite(c["value"])]
    return max(ratios) if ratios else 0.0


def collect(workload, seed, seconds, trace, budget_end):
    """Sample processes of one workload until ``seconds`` is used; with
    ``trace`` they alternate untraced and traced."""
    deadline = time.monotonic() + seconds
    n_min = 4 if trace else MIN_PROCESSES
    per_process = max(0.0, seconds / n_min - SETUP_ESTIMATE_S)
    samples = []
    while True:
        traced = trace and len(samples) % 2 == 1
        remaining = budget_end - time.monotonic()
        if remaining < 10.0:
            break
        t0 = time.monotonic()
        samples.append((traced, take_sample(workload, seed, traced,
                                            per_process, remaining)))
        last = time.monotonic() - t0
        if len(samples) >= n_min and time.monotonic() + last > deadline:
            break
    return samples


def _median(values):
    return statistics.median(values) if values else None


def summarize(workload, seed, samples, trace):
    """Metrics and health figures of one workload from its samples.

    Every execution of every process counts in ``attempted``. A process
    that crashed counts as one failed execution with one failed check.
    """
    returned = [(k, s) for k, s in samples if s is not None]
    crashed = len(samples) - len(returned)
    runs = {kind: [r for k, s in returned if k == kind for r in s["runs"]]
            for kind in (False, True)}
    every = runs[False] + runs[True]
    tallied = [r for r in every if r["members"] is not None]
    n_checks = sum(len(r["checks"]) for r in every) + crashed
    out = {
        "workload": workload, "seed": seed, "traced": trace,
        "attempted": len(every) + crashed,
        "failed": sum(not passed(r) for r in every) + crashed,
        "checks_failed_frac": (
            (sum(not c["passed"] for r in every for c in r["checks"])
             + crashed) / n_checks if n_checks else None),
        "halted_member_frac": (sum(r["halted"] for r in tallied)
                               / sum(r["members"] for r in tallied)
                               if tallied else None),
        "provenance": returned[0][1]["provenance"] if returned else None,
        "processes": len(returned),
    }
    # Warm-up executions are checked and counted but not timed. They stand
    # in only when no process got past its first, and failed executions
    # only when none passed, so a broken program still reports numbers next
    # to correct: false.
    warm = {kind: [r for r in runs[kind] if not r.get("warmup")] or runs[kind]
            for kind in (False, True)}
    plain = [r for r in warm[False] if passed(r)] or warm[False]
    out["samples"] = len(plain)
    out["end_to_end"] = {
        "wall_s": _median([r["wall_s"] for r in plain]),
        "wall_rel": _median([r["wall_s"] / r["ref_s"] for r in plain]),
        "setup_s": _median([s["setup_s"] for _, s in returned]),
        "peak_rss_mb": _median([s["peak_rss_mb"] for k, s in returned
                                if not k]),
        "worst_check_ratio": _median([worst_check_ratio(r) for r in plain]),
    }
    if trace:
        traced = [r for r in warm[True] if passed(r)] or warm[True]
        names = [n for n, _ in PER_LAYER if n != "bench.trace_overhead_frac"]
        per_layer = {n: _median([r["layers"][n] for r in traced
                                 if n in r["layers"]]) for n in names}
        if traced and plain:
            per_layer["bench.trace_overhead_frac"] = (
                _median([r["wall_s"] / r["ref_s"] for r in traced])
                / out["end_to_end"]["wall_rel"] - 1.0)
        out["per_layer"] = {n: v for n, v in per_layer.items()
                            if v is not None}
        out["absent"] = sorted({a for r in traced for a in r["absent"]})
        out["traced_samples"] = len(traced)
    return out


def _fmt(v):
    if v is None:
        return "n/a"
    if isinstance(v, float) and v != int(v):
        return f"{v:.4g}"
    return f"{int(v)}" if isinstance(v, (int, float)) else str(v)


def print_table(results, trace):
    if trace:
        names = [w["workload"] for w in results]
        print(f"{'per-layer metric':40s} {'unit':6s} "
              + " ".join(f"{n:>12s}" for n in names))
        for metric, unit in PER_LAYER:
            vals = [w["per_layer"].get(metric) for w in results]
            print(f"{metric:40s} {unit:6s} "
                  + " ".join(f"{_fmt(v):>12s}" for v in vals))
        for w in results:
            if w["absent"]:
                print(f"{w['workload']}: absent (wrapped function gone): "
                      + ", ".join(w["absent"]))
        return
    cols = UNBOUNDED[:1] + END_TO_END + UNBOUNDED[1:]
    print(f"{'workload':12s} {'n':>3s} "
          + " ".join(f"{f'{m} [{u}]':>24s}" for m, u in cols))
    for w in results:
        vals = [w["end_to_end"].get(m, w.get(m)) for m, _ in cols]
        print(f"{w['workload']:12s} {w['samples']:3d} "
              + " ".join(f"{_fmt(v):>24s}" for v in vals))


def result_line(result, trace):
    units = PER_LAYER if trace else END_TO_END
    source = result["per_layer"] if trace else result["end_to_end"]
    metrics = {n: {"value": source[n], "unit": u} for n, u in units
               if source.get(n) is not None}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def save(path, results, trace):
    """Merge this invocation's results into the JSON file at ``path``."""
    path = Path(path)
    data = json.loads(path.read_text()) if path.exists() else {"results": {}}
    key = "per_layer" if trace else "end_to_end"
    for r in results:
        entry = data["results"].setdefault(r["workload"], {})
        entry[key] = r[key]
        entry[f"{key}_run"] = {k: v for k, v in r.items()
                               if k not in ("end_to_end", "per_layer")}
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def compare(base_path, new_path):
    """One row per workload and metric: base, new and new/base."""
    base = json.loads(Path(base_path).read_text())["results"]
    new = json.loads(Path(new_path).read_text())["results"]
    units = dict(END_TO_END + UNBOUNDED + PER_LAYER)
    print(f"{'workload':12s} {'metric':40s} {'unit':6s} {'base':>12s} "
          f"{'new':>12s} {'new/base':>9s}")
    for workload in [w for w in WORKLOADS if w in base and w in new]:
        for key in ("end_to_end", "per_layer"):
            b, n = base[workload].get(key, {}), new[workload].get(key, {})
            for metric in [m for m in b if m in n]:
                ratio = n[metric] / b[metric] if b[metric] else None
                print(f"{workload:12s} {metric:40s} {units.get(metric, ''):6s} "
                      f"{_fmt(b[metric]):>12s} {_fmt(n[metric]):>12s} "
                      f"{_fmt(ratio):>9s}")
            for metric in sorted(set(b) ^ set(n)):
                where = "base" if metric in b else "new"
                print(f"{workload:12s} {metric:40s} only in {where}")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="bohmsim benchmark", epilog="workloads: "
        + ", ".join(WORKLOADS) + " (or all)")
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="merge results into this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two --out files and exit")
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if any(n not in WORKLOADS for n in names):
        parser.error(f"unknown workload {args.workload!r}")
    if not preflight():
        return 2

    sha = git_sha()
    results = []
    for name in names:
        samples = collect(name, args.seed, args.seconds, bool(args.trace),
                          time.monotonic() + HARD_LIMIT_S)
        result = summarize(name, args.seed, samples, bool(args.trace))
        if result["provenance"] is not None:
            result["provenance"]["git_sha"] = sha
        results.append(result)
        print(f"provenance {name}: {json.dumps(result['provenance'])}")
    if args.out:
        save(args.out, results, bool(args.trace))
    print_table(results, bool(args.trace))
    if all(r["samples"] == 0 for r in results):
        return 1
    if len(results) == 1:
        print(json.dumps(result_line(results[0], bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
