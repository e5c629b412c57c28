"""``tools/report_digest.py --compare`` on small hand-written report
directories: identical sides, one moved check value, a one-sided report;
and the digest of the ``cn-boxed`` Crank-Nicolson snapshots."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_digest.py"


@pytest.fixture(scope="module")
def digest():
    spec = importlib.util.spec_from_file_location("_report_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(directory, name, checks):
    path = directory / name / "report.json"
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps({"checks": checks, "passed": True}))


def _checks(gap=1.25e-10):
    return [
        {"name": "gap to closed form", "value": gap, "passed": True,
         "threshold": 1e-9},
        {"name": "counts", "value": {"total": [3, 4], "signed": 1},
         "passed": True},
    ]


def _sides(tmp_path, new_checks):
    base, new = tmp_path / "base", tmp_path / "new"
    for directory, checks in ((base, _checks()), (new, new_checks)):
        _report(directory, "defaults/flux", checks)
        _report(directory, "workloads/tiny", _checks())
    return base, new


def test_identical_directories_exit_0(digest, tmp_path, capsys):
    base, new = _sides(tmp_path, _checks())
    assert digest.main(["--compare", str(base), str(new)]) == 0
    assert capsys.readouterr().out.startswith("every check value is identical")


def test_one_changed_value_is_one_line(digest, tmp_path, capsys):
    base, new = _sides(tmp_path, _checks(gap=1.5e-10))
    assert digest.main(["--compare", str(base), str(new)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["defaults/flux/report.json | gap to closed form  | "
                     "1.25e-10 -> 1.5e-10 | threshold 1e-09 | rel 0.2"]


def test_a_report_on_one_side_is_named(digest, tmp_path, capsys):
    base, new = _sides(tmp_path, _checks())
    _report(new, "defaults/spin", _checks())
    assert digest.main(["--compare", str(base), str(new)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1
    assert out[0].startswith("defaults/spin/report.json: only one side has it")
    assert str(base / "defaults" / "spin" / "report.json") in out[0]


def test_cn_snapshot_digest_moves_with_one_bit_of_a_snapshot(digest,
                                                             monkeypatch):
    """The digest repeats, and it covers the Crank-Nicolson snapshots: one
    step result scaled by 1 + 2^-52 changes it."""
    from bohmsim import propagate

    first = digest.cn_snapshot_digest()
    assert len(first) == 64 and int(first, 16) >= 0
    assert digest.cn_snapshot_digest() == first
    advance = propagate._CrankNicolsonStepper.advance
    monkeypatch.setattr(propagate._CrankNicolsonStepper, "advance",
                        lambda self, arr, steps=1: advance(self, arr, steps)
                        * (1.0 + 2.0**-52))
    assert digest.cn_snapshot_digest() != first
