"""Run every scenario at its defaults and the benchmark's scenario workloads,
write their reports and CSV files under OUT_DIR, and print one
``sha256  path`` line per file, sorted by path; or compare the reports of
two such directories check by check.

Usage: python3 tools/report_digest.py OUT_DIR
       python3 tools/report_digest.py --compare BASE_DIR NEW_DIR

Two checkouts whose printed digests agree wrote byte-identical reports. The
workload configs (full and tiny, at a fixed seed) are read from
``perfbench/workloads.py``, loaded by path and left unchanged.

No scenario reaches the Crank-Nicolson propagator, so a last line,
``sha256  cn-boxed snapshots``, digests the amplitudes of every snapshot of
the ``cn-boxed`` workload's 1-d and 2-d evolutions, in order: the workload
runs once at the same seed, its own ``evolve`` calls recorded.

``--compare`` reads every ``report.json`` under the two directories and
prints one line per number of a check value that differs: the report, the
check (with the key or index of the number inside a structured value), both
values, the check's threshold and the relative change. A report present on
one side only is named too. It exits 1 when anything differs, else 0.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

SEED = 11  # seed of every workload run


def _workloads():
    """``perfbench/workloads.py``, loaded by path as a private module."""
    spec = importlib.util.spec_from_file_location(
        "_bench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _workload_configs():
    """(name, config) of each scenario workload, full and tiny."""
    module = _workloads()
    out = []
    for name, w in sorted(module.WORKLOADS.items()):
        if isinstance(w, module.ScenarioWorkload):
            out.append((f"{name}-full", w.config))
            out.append((f"{name}-tiny", {**w.config, **w.tiny}))
    return out


def cn_snapshot_digest():
    """sha256 of the snapshot amplitudes of the ``cn-boxed`` workload's
    evolutions, in the order it evolves and stores them, from one run of
    the workload at ``SEED``."""
    module = _workloads()
    records = []
    evolve = module.evolve

    def recorded(*args, **kwargs):
        records.append(evolve(*args, **kwargs))
        return records[-1]

    module.evolve = recorded  # the private module's name only
    workload = module.WORKLOADS["cn-boxed"]
    workload.run(workload.prepare(SEED))
    sha = hashlib.sha256()
    for record in records:
        for snap in record.snapshots:
            sha.update(snap.amplitudes.tobytes())
    return sha.hexdigest()


def digest(out):
    """Run every report into ``out`` and print the digest of each file."""
    from bohmsim.scenarios import SCENARIOS, run_scenario

    runs = [(f"defaults/{name}", {"scenario": name}, None)
            for name in sorted(SCENARIOS)]
    runs += [(f"workloads/{name}", config, SEED)
             for name, config in _workload_configs()]
    for sub, config, seed in runs:
        run_scenario(config, out_dir=str(out / sub), seed_override=seed)
    files = sorted(p.relative_to(out).as_posix() for p in out.rglob("*")
                   if p.is_file() and p.suffix in (".json", ".csv"))
    for name in files:
        sha = hashlib.sha256((out / name).read_bytes()).hexdigest()
        print(f"{sha}  {name}")
    print(f"{cn_snapshot_digest()}  cn-boxed snapshots")
    return 0


def _leaves(value, where=""):
    """(location, leaf) of every number, string or flag inside a check
    value; the location is empty for a plain number."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _leaves(value[key], f"{where}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{where}[{i}]")
    else:
        yield where, value


def _relative(a, b):
    """|b - a| / |a| for two numbers, as text; "n/a" otherwise."""
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                  for v in (a, b))
    if not numbers:
        return "n/a"
    if a == 0:
        return "inf"
    return f"{abs(b - a) / abs(a):.3g}"


def _checks(path):
    """{check name: check} of one report."""
    report = json.loads(path.read_text())
    return {c["name"]: c for c in report.get("checks", [])}


def compare(base, new):
    """Print every check value that differs between two digest directories;
    return 1 if anything differs, else 0."""
    reports = {p.relative_to(d).as_posix() for d in (base, new)
               for p in d.rglob("report.json")}
    differs = False
    for name in sorted(reports):
        sides = [d / name for d in (base, new)]
        missing = [str(p) for p in sides if not p.is_file()]
        if missing:
            print(f"{name}: only one side has it (missing {missing[0]})")
            differs = True
            continue
        old, cur = (_checks(p) for p in sides)
        for check in sorted(old.keys() | cur.keys()):
            if check not in old or check not in cur:
                side = "new" if check not in old else "base"
                print(f"{name} | {check} | only in {side}")
                differs = True
                continue
            a, b = old[check], cur[check]
            leaves_a = dict(_leaves(a["value"]))
            leaves_b = dict(_leaves(b["value"]))
            for where in sorted(leaves_a.keys() | leaves_b.keys()):
                va, vb = leaves_a.get(where), leaves_b.get(where)
                nan = va != va and vb != vb
                if type(va) is type(vb) and (va == vb or nan):
                    continue
                differs = True
                threshold = b.get("threshold", a.get("threshold", "-"))
                print(f"{name} | {check} {where} | {va!r} -> {vb!r} | "
                      f"threshold {threshold} | rel {_relative(va, vb)}")
    if not differs:
        print("every check value is identical (the digests compare the "
              "other fields and the CSV files)")
    return 1 if differs else 0


def main(argv):
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) != 1 or argv[0].startswith("--"):
        print("usage: python3 tools/report_digest.py OUT_DIR\n"
              "       python3 tools/report_digest.py --compare BASE_DIR "
              "NEW_DIR", file=sys.stderr)
        return 2
    return digest(Path(argv[0]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
