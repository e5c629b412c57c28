"""Tests of the benchmark itself (not of bohmsim).

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
for p in (str(ROOT / "src"), str(BENCH_DIR)):
    if p not in sys.path:
        sys.path.insert(0, p)

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import Target, Tracer  # noqa: E402

COUNTS = ("kernels.thomas_solve_calls", "kernels.thomas_lines",
          "kernels.interp_calls", "kernels.interp_points",
          "fields.gradient_calls", "guidance.member_steps",
          "guidance.halted_members", "propagate.steps")


def _execute(name, seed, trace=False):
    """One tiny execution in this process: the sample and its only run."""
    sample = worker.measure(name, seed, seconds=0.0, trace=trace, tiny=True)
    assert len(sample["runs"]) == 1
    return sample, sample["runs"][0]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_workload_passes_its_checks_and_counts_repeat(name):
    _, first = _execute(name, seed=5, trace=True)
    _, second = _execute(name, seed=5, trace=True)
    for execution in (first, second):
        assert execution["checks"], "no checks would pass vacuously"
        failed = [c["name"] for c in execution["checks"] if not c["passed"]]
        assert not failed
        assert execution["absent"] == []
        assert run.worst_check_ratio(execution) > 0.0
        assert execution["ref_s"] > 0.0
    assert {k: first["layers"][k] for k in COUNTS} == {
        k: second["layers"][k] for k in COUNTS}


def test_cn_boxed_checks_its_own_invariants():
    _, execution = _execute("cn-boxed", seed=3)
    names = [c["name"] for c in execution["checks"]]
    assert any("norm drift" in n for n in names)
    assert sum("x0 + d (cos t - 1)" in n for n in names) == 2
    assert execution["members"] == 256 and execution["halted"] == 0


def test_untraced_run_leaves_program_unwrapped():
    _, execution = _execute("cn-boxed", seed=3)
    assert "layers" not in execution
    import bohmsim.propagate
    assert not hasattr(bohmsim.propagate.thomas_solve, "__wrapped__")


def test_tracer_restores_module_attributes():
    import importlib
    originals = {(t.module, t.attr):
                 getattr(importlib.import_module(t.module), t.attr)
                 for t in layers.TARGETS}
    with Tracer(layers.TARGETS) as tracer:
        assert tracer.absent == []
        for (mod, attr), fn in originals.items():
            wrapped = getattr(importlib.import_module(mod), attr)
            assert wrapped is not fn and wrapped.__wrapped__ is fn
    for (mod, attr), fn in originals.items():
        assert getattr(importlib.import_module(mod), attr) is fn


def test_removed_function_is_reported_absent_not_zero():
    targets = [Target("kernels.thomas_solve", "bohmsim.propagate",
                      "no_such_solver"),
               Target("kernels.interp", "bohmsim.no_such_module", "f")]
    with Tracer(targets) as tracer:
        pass
    assert tracer.absent == ["bohmsim.propagate.no_such_solver",
                             "bohmsim.no_such_module.f"]
    values, absent = layers.layer_metrics(tracer, wall_s=1.0)
    assert "kernels.thomas_solve_calls" in absent
    assert "kernels.thomas_solve_calls" not in values
    assert "kernels.interp_points" in absent
    assert values["bench.unattributed_s"] == 1.0


def _fake_module():
    mod = types.ModuleType("perfbench_fake_layer")

    def inner(n):
        return sum(range(n))

    def outer(n):
        return mod.inner(n) + mod.inner(n)

    mod.inner, mod.outer = inner, outer
    return mod


def test_spans_from_many_threads_are_all_kept_with_per_thread_self_time():
    mod = _fake_module()
    sys.modules[mod.__name__] = mod
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    targets = [Target("outer", mod.__name__, "outer"),
               Target("inner", mod.__name__, "inner")]
    n_threads, calls = 8, 200
    try:
        with Tracer(targets) as tracer:
            def work():
                for _ in range(calls):
                    mod.outer(200)
            threads = [threading.Thread(target=work) for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
        del sys.modules[mod.__name__]
    outer = [s for s in tracer.spans if s.layer == "outer"]
    inner = [s for s in tracer.spans if s.layer == "inner"]
    assert len(outer) == n_threads * calls
    assert len(inner) == 2 * n_threads * calls
    assert all(s.top_level for s in outer)
    assert not any(s.top_level for s in inner)
    for thread in {s.thread for s in outer}:
        mine_outer = [s for s in outer if s.thread == thread]
        mine_inner = [s for s in inner if s.thread == thread]
        children = sum(s.duration for s in mine_inner)
        self_time = sum(s.self_time for s in mine_outer)
        total = sum(s.duration for s in mine_outer)
        assert self_time == pytest.approx(total - children, abs=1e-9)
    assert mod.outer.__name__ == "outer" and not hasattr(mod.outer,
                                                         "__wrapped__")


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [
        n for n, _ in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [
        n for n, _ in run.PER_LAYER]
    units = dict(run.END_TO_END + run.PER_LAYER)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == units[m["name"]]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_result_line_has_exactly_the_contract_keys():
    sample, _ = _execute("cn-boxed", seed=2)
    result = run.summarize("cn-boxed", 2, [(False, sample)], trace=False)
    line = run.result_line(result, trace=False)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] == 1 and line["failed"] == 0
    assert set(line["metrics"]) == {n for n, _ in run.END_TO_END}


def test_failed_execution_is_not_a_timing_sample():
    good, execution = _execute("cn-boxed", seed=2)
    bad = json.loads(json.dumps(good))
    bad["runs"][0]["wall_s"] = 1e6
    bad["runs"][0]["checks"][0]["passed"] = False
    result = run.summarize("cn-boxed", 2, [(False, good), (False, bad),
                                           (False, None)], trace=False)
    assert result["end_to_end"]["wall_s"] == execution["wall_s"]
    assert result["failed"] == 2 and result["attempted"] == 3
    assert result["checks_failed_frac"] == pytest.approx(
        2 / (2 * len(execution["checks"]) + 1))
    assert not run.result_line(result, trace=False)["correct"]


def test_warmup_execution_is_checked_but_not_timed():
    good, execution = _execute("cn-boxed", seed=2)
    assert not execution["warmup"]
    sample = json.loads(json.dumps(good))
    warmup = dict(execution, wall_s=1e6, warmup=True)
    sample["runs"] = [warmup, execution, execution]
    result = run.summarize("cn-boxed", 2, [(False, sample)], trace=False)
    assert result["attempted"] == 3 and result["samples"] == 2
    assert result["end_to_end"]["wall_s"] == execution["wall_s"]


def test_compare_prints_ratio_per_workload_and_metric(tmp_path, capsys):
    base = {"results": {"flux-1d": {"end_to_end": {"wall_s": 2.0},
                                    "per_layer": {"kernels.interp_calls": 10}}}}
    new = {"results": {"flux-1d": {"end_to_end": {"wall_s": 1.5},
                                   "per_layer": {}}}}
    (tmp_path / "a.json").write_text(json.dumps(base))
    (tmp_path / "b.json").write_text(json.dumps(new))
    run.compare(tmp_path / "a.json", tmp_path / "b.json")
    out = capsys.readouterr().out.splitlines()
    row = next(line for line in out if "wall_s" in line).split()
    assert row[0] == "flux-1d" and row[-1] == "0.75"
    assert any("kernels.interp_calls" in line and "only in base" in line
               for line in out)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "flux-1d", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_non_finite_check_value_stays_out_of_worst_ratio():
    execution = {"checks": [
        {"name": "a", "value": float("inf"), "threshold": 1.0,
         "passed": False},
        {"name": "b", "value": 0.5, "threshold": 1.0, "passed": True}]}
    assert run.worst_check_ratio(execution) == 0.5
