"""Which bohmsim functions the traced run wraps, and the per-layer metrics
computed from their spans.

Each function is wrapped where its caller looks it up, for example
``bohmsim.guidance.interp_cubic_1d`` rather than ``bohmsim.kernels``, so
callers inside the package see the wrapper. ``workloads.*`` targets are the
names the ``cn-boxed`` driver itself calls.
"""

import threading
from collections import defaultdict

from tracer import Target


def _points(args, kwargs, result):
    return {"points": int(result.size)}


def _lines(args, kwargs, result):
    return {"lines": int(result.shape[0])}


def _flow(args, kwargs, result):
    record = args[1] if len(args) > 1 else kwargs["record"]
    if hasattr(result, "statuses"):  # integrate_flow -> FlowResult
        steps = int(result.stop_index.sum())
        halted = int((result.statuses != 0).sum())
    else:  # integrate_trajectory -> Trajectory
        steps = len(result.times) - 1
        halted = int(result.status != "Completed")
    return {"record": record, "member_steps": steps, "halted": halted}


def _evolve(args, kwargs, result):
    return {"steps": (len(result.times) - 1) * result.stride,
            "method": result.method}


TARGETS = [
    Target("kernels.thomas_solve", "bohmsim.propagate", "thomas_solve", _lines),
    Target("kernels.interp", "bohmsim.guidance", "interp_cubic_1d", _points),
    Target("kernels.interp", "bohmsim.guidance", "interp_cubic_2d", _points),
    Target("fields.gradient", "bohmsim.guidance", "gradient_array"),
    Target("fields.gradient", "bohmsim.guidance", "gradient"),
    Target("guidance.flow", "bohmsim.scenarios", "integrate_flow", _flow),
    Target("guidance.flow", "bohmsim.scenarios", "integrate_trajectory", _flow),
    Target("guidance.flow", "bohmsim.equilibrium", "integrate_flow", _flow),
    Target("guidance.flow", "workloads", "integrate_flow", _flow),
    Target("propagate.evolve", "bohmsim.scenarios", "evolve", _evolve),
    Target("propagate.evolve", "bohmsim.equilibrium", "evolve", _evolve),
    Target("propagate.evolve", "workloads", "evolve", _evolve),
    Target("equilibrium.sample_density", "bohmsim.scenarios", "sample_density"),
    Target("equilibrium.sample_density", "bohmsim.equilibrium",
           "sample_density"),
    Target("equilibrium.sample_density", "workloads", "sample_density"),
    Target("equilibrium.effective_decomposition", "bohmsim.equilibrium",
           "effective_decomposition"),
    Target("flux.expected_crossings", "bohmsim.scenarios",
           "expected_crossings"),
    Target("flux.per_member_counts", "bohmsim.scenarios", "per_member_counts"),
]


def _sum(spans, key):
    return float(sum(s.counters[key] for s in spans))


def _seconds(spans):
    return float(sum(s.duration for s in spans))


def _ratio(num, den):
    return num / den if den else 0.0


def _us_per_step(spans, method):
    mine = [s for s in spans if s.counters["method"] == method]
    return _ratio(_seconds(mine) * 1e6, _sum(mine, "steps"))


def _reuse(by):
    """Snapshot gradients needed (snapshots x dims of each record flowed)
    per gradient actually computed."""
    records = {id(s.counters["record"]): s.counters["record"]
               for s in by["guidance.flow"]}
    needed = sum(len(r.snapshots) * r.grid.dimension for r in records.values())
    return _ratio(float(needed), len(by["fields.gradient"]))


# (name, unit, better, layer it needs, value from spans grouped by layer)
METRICS = [
    ("kernels.thomas_solve_s", "s", "lower", "kernels.thomas_solve",
     lambda by: _seconds(by["kernels.thomas_solve"])),
    ("kernels.thomas_solve_calls", "count", "lower", "kernels.thomas_solve",
     lambda by: len(by["kernels.thomas_solve"])),
    ("kernels.thomas_lines", "count", "lower", "kernels.thomas_solve",
     lambda by: _sum(by["kernels.thomas_solve"], "lines")),
    ("kernels.interp_s", "s", "lower", "kernels.interp",
     lambda by: _seconds(by["kernels.interp"])),
    ("kernels.interp_calls", "count", "lower", "kernels.interp",
     lambda by: len(by["kernels.interp"])),
    ("kernels.interp_points", "count", "lower", "kernels.interp",
     lambda by: _sum(by["kernels.interp"], "points")),
    ("kernels.interp_ns_per_point", "ns", "lower", "kernels.interp",
     lambda by: _ratio(_seconds(by["kernels.interp"]) * 1e9,
                       _sum(by["kernels.interp"], "points"))),
    ("kernels.interp_points_per_call", "count", "higher", "kernels.interp",
     lambda by: _ratio(_sum(by["kernels.interp"], "points"),
                       len(by["kernels.interp"]))),
    ("fields.gradient_calls", "count", "lower", "fields.gradient",
     lambda by: len(by["fields.gradient"])),
    ("fields.gradient_s", "s", "lower", "fields.gradient",
     lambda by: _seconds(by["fields.gradient"])),
    ("fields.gradient_reuse_ratio", "ratio", "higher", "fields.gradient",
     _reuse),
    ("guidance.flow_s", "s", "lower", "guidance.flow",
     lambda by: _seconds(by["guidance.flow"])),
    ("guidance.flow_self_s", "s", "lower", "guidance.flow",
     lambda by: float(sum(s.self_time for s in by["guidance.flow"]))),
    ("guidance.member_steps", "count", "higher", "guidance.flow",
     lambda by: _sum(by["guidance.flow"], "member_steps")),
    ("guidance.flow_cpu_util", "ratio", "higher", "guidance.flow",
     lambda by: _ratio(sum(s.cpu for s in by["guidance.flow"]),
                       _seconds(by["guidance.flow"]))),
    ("guidance.halted_members", "count", "lower", "guidance.flow",
     lambda by: _sum(by["guidance.flow"], "halted")),
    ("propagate.evolve_s", "s", "lower", "propagate.evolve",
     lambda by: float(sum(s.self_time for s in by["propagate.evolve"]))),
    ("propagate.steps", "count", "lower", "propagate.evolve",
     lambda by: _sum(by["propagate.evolve"], "steps")),
    ("propagate.sf_us_per_step", "us", "lower", "propagate.evolve",
     lambda by: _us_per_step(by["propagate.evolve"], "split-fourier")),
    ("propagate.cn_us_per_step", "us", "lower", "propagate.evolve",
     lambda by: _us_per_step(by["propagate.evolve"], "crank-nicolson")),
    ("equilibrium.sample_density_s", "s", "lower", "equilibrium.sample_density",
     lambda by: _seconds(by["equilibrium.sample_density"])),
    ("equilibrium.effective_decomposition_s", "s", "lower",
     "equilibrium.effective_decomposition",
     lambda by: _seconds(by["equilibrium.effective_decomposition"])),
    ("flux.expected_crossings_s", "s", "lower", "flux.expected_crossings",
     lambda by: _seconds(by["flux.expected_crossings"])),
    ("flux.per_member_counts_s", "s", "lower", "flux.per_member_counts",
     lambda by: _seconds(by["flux.per_member_counts"])),
]

# Computed by layer_metrics and run.py rather than from single layers.
BENCH_METRICS = [
    ("bench.unattributed_s", "s", "lower"),
    ("bench.trace_overhead_frac", "ratio", "lower"),
]


def layer_metrics(tracer, wall_s):
    """Per-layer metrics of one traced run, as {name: value}, and the names
    of metrics whose wrapped functions no longer exist."""
    by = defaultdict(list)
    for s in tracer.spans:
        by[s.layer].append(s)
    present = tracer.present_layers()
    values, absent = {}, []
    for name, _, _, layer, value in METRICS:
        if layer in present:
            values[name] = float(value(by))
        else:
            absent.append(name)
    main = threading.main_thread().ident
    covered = sum(s.duration for s in tracer.spans
                  if s.top_level and s.thread == main)
    values["bench.unattributed_s"] = wall_s - covered
    return values, absent
