"""Run every scenario at its defaults and the benchmark's scenario workloads,
write their reports and CSV files under OUT_DIR, and print one
``sha256  path`` line per file, sorted by path.

Usage: python3 tools/report_digest.py OUT_DIR

Two checkouts whose printed digests agree wrote byte-identical reports. The
workload configs (full and tiny, at a fixed seed) are read from
``perfbench/workloads.py``, loaded by path and left unchanged.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bohmsim.scenarios import SCENARIOS, run_scenario  # noqa: E402

SEED = 11  # seed of every workload run


def _workload_configs():
    """(name, config) of each scenario workload, full and tiny."""
    spec = importlib.util.spec_from_file_location(
        "_bench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = []
    for name, w in sorted(module.WORKLOADS.items()):
        if isinstance(w, module.ScenarioWorkload):
            out.append((f"{name}-full", w.config))
            out.append((f"{name}-tiny", {**w.config, **w.tiny}))
    return out


def main(argv):
    if len(argv) != 1:
        print("usage: python3 tools/report_digest.py OUT_DIR", file=sys.stderr)
        return 2
    out = Path(argv[0])
    runs = [(f"defaults/{name}", {"scenario": name}, None)
            for name in sorted(SCENARIOS)]
    runs += [(f"workloads/{name}", config, SEED)
             for name, config in _workload_configs()]
    for sub, config, seed in runs:
        run_scenario(config, out_dir=str(out / sub), seed_override=seed)
    files = sorted(p.relative_to(out).as_posix() for p in out.rglob("*")
                   if p.is_file() and p.suffix in (".json", ".csv"))
    for name in files:
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
