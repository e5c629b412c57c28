"""Acceptance suite: every exit criterion at its stated tolerance, one
pass/fail line each. Run with -s to see the lines as they complete."""

import json
import math
import time

import numpy as np
import pytest

from bohmsim import analytic
from bohmsim.fields import ScalarWaveFunction, norm
from bohmsim.grids import Grid, PhysicalConstants
from bohmsim.potentials import Free
from bohmsim.propagate import (CRANK_NICOLSON, SPLIT_FOURIER,
                               continuity_residual, evolve, prepare_stepper)
from bohmsim.scenarios import run_scenario

C1 = PhysicalConstants.natural(1)


def _line(name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def _checks_pass(report):
    return {c["name"]: c for c in report["checks"]}


def test_criterion_1_coupled_oscillator_oracle():
    t0 = time.perf_counter()
    code, report = run_scenario({"scenario": "oscillator-oracle"})
    elapsed = time.perf_counter() - t0
    checks = _checks_pass(report)
    field = checks["field matches closed form at t=1 (max norm)"]
    traj = checks["trajectories match closed form to t=2"]
    ok = (code == 0 and field["value"] < 1e-3 and traj["value"] < 1e-3
          and traj["n_starts"] == 20 and elapsed < 120.0)
    _line("criterion 1: closed-form match (256^2 grid, dt=1e-3)", ok,
          f"max|dpsi|={field['value']:.2e} (tol 1e-3), "
          f"max traj err={traj['value']:.2e} over {traj['n_starts']} starts "
          f"(tol 1e-3), runtime {elapsed:.0f}s < 120s")


def test_criterion_2_equivariance():
    t0 = time.perf_counter()
    code, report = run_scenario({"scenario": "equivariance"})
    elapsed = time.perf_counter() - t0
    cases = {c["name"]: c for c in report["cases"]}
    ok = code == 0 and elapsed < 180.0
    detail = []
    for name, c in cases.items():
        ok = ok and c["l1"] < 0.05 and c["ks_two_sample_pvalue"] > 0.01
        detail.append(f"{name}: L1={c['l1']:.3f} (tol 0.05), "
                      f"KS p={c['ks_two_sample_pvalue']:.2f} (>0.01)")
    _line("criterion 2: equivariance of transported equilibrium samples "
          "(n=10^4, 50 bins)", ok,
          "; ".join(detail) + f", runtime {elapsed:.0f}s < 180s")


def test_criterion_3_continuity_and_unitarity():
    g = Grid.regular(-12.0, 12.0, 1024, dimension=1)
    psi = ScalarWaveFunction.from_callable(
        g, lambda x: np.exp(-x * x / 2), normalize=True)
    residuals = []
    for dt in (2e-3, 1e-3, 5e-4):
        rec = evolve(psi, Free(), C1, 0.2, dt, SPLIT_FOURIER)
        residuals.append(continuity_residual(rec))
    r1 = residuals[0] / residuals[1]
    r2 = residuals[1] / residuals[2]
    second_order = 3.4 < r1 < 4.6 and 3.4 < r2 < 4.6

    # bounded motion so the state never reaches the grid edge over t = 10
    from bohmsim.potentials import Harmonic
    drifts = {}
    for method, grid in ((SPLIT_FOURIER, g),
                         (CRANK_NICOLSON, Grid.regular(-12.0, 12.0, 1025,
                                                       boundary="boxed",
                                                       dimension=1))):
        p = ScalarWaveFunction.from_callable(
            grid, lambda x: np.exp(-((x - 1.0) ** 2) / 2), normalize=True)
        stepper = prepare_stepper(grid, Harmonic((1.0,)), C1, 1e-3, method)
        arr = p.amplitudes
        for _ in range(10**4):
            arr = stepper.advance(arr)
        drifts[method] = abs(norm(ScalarWaveFunction(grid, arr)) - 1.0)
    ok = second_order and all(d < 1e-9 for d in drifts.values())
    _line("criterion 3: continuity residual refines at 2nd order; norm "
          "drift < 1e-9 over 10^4 steps (both schemes)", ok,
          f"refinement ratios {r1:.2f}, {r2:.2f} (expect ~4); drifts "
          + ", ".join(f"{m}={d:.1e}" for m, d in drifts.items()))


def test_criterion_4_crossing_counts():
    code, report = run_scenario({"scenario": "flux"})
    ok = code == 0
    detail = []
    for case in report["cases"]:
        for kind in ("total", "signed"):
            gap = abs(case[f"empirical_{kind}"] - case[f"expected_{kind}"])
            se = max(case[f"se_{kind}"], 1.25e-4)
            ok = ok and gap <= 4 * se
            detail.append(f"{case['name']}/{kind}: |gap|={gap:.4f} <= "
                          f"4SE={4 * se:.4f}")
    _line("criterion 4: Monte Carlo crossing means vs flux integrals "
          "(n=10^4, 3 scenarios, 4 SE)", ok, "; ".join(detail))


def test_criterion_5_collapse_statistics():
    code, report = run_scenario({"scenario": "collapse"})
    ok = code == 0
    detail = []
    bands = {0.5: (0.47, 0.53), 0.8: (0.77, 0.83)}
    for p1, run in zip((0.5, 0.8), report["experiments"]):
        f = run["frequencies"]["1"]
        lo, hi = bands[p1]
        eff = max(v for v in run["effective_state_errors"].values()
                  if v is not None)
        ok = ok and lo <= f <= hi and eff < 1e-3
        detail.append(f"p={p1}: freq={f:.3f} in [{lo},{hi}], "
                      f"effective-state L2={eff:.1e} < 1e-3")
    _line("criterion 5: two-outcome measurement frequencies and effective "
          "states (n=4000)", ok, "; ".join(detail))


def test_criterion_6_povm_identities():
    t0 = time.perf_counter()
    code, report = run_scenario({"scenario": "povm"})
    elapsed = time.perf_counter() - t0
    ok = (code == 0 and report["worst_statistics_gap"] < 1e-10
          and elapsed < 10.0)
    _line("criterion 6: operator-measure identities on the model zoo "
          "(100 random states)", ok,
          f"worst |mu - <psi,O psi>|={report['worst_statistics_gap']:.1e} "
          f"< 1e-10, runtime {elapsed:.1f}s < 10s")


def test_criterion_7_classical_limit():
    code, report = run_scenario({"scenario": "classical-limit"})
    devs = [d["max_deviation"] for d in report["sweep"]]
    monotone = all(a > b for a, b in zip(devs, devs[1:]))
    ok = code == 0 and monotone
    _line("criterion 7: trajectory-to-classical deviation decreases across "
          "the hbar sweep", ok,
          "deviations " + " > ".join(f"{d:.3f}" for d in devs))


def test_criterion_8_spin():
    code, report = run_scenario({"scenario": "spin"})
    checks = _checks_pass(report)
    dec = checks["zero-field spinor evolution matches scalar evolution"]
    rabi = checks["transverse-field population oscillation matches the exact "
                  "two-level rotation over one period"]
    vel = checks["real spinor has zero guidance velocity"]
    ok = (code == 0 and dec["value"] < 1e-12 and rabi["value"] < 1e-4
          and vel["value"] < 1e-9)
    _line("criterion 8: spinor checks", ok,
          f"decoupling={dec['value']:.1e} < 1e-12, population err="
          f"{rabi['value']:.1e} < 1e-4, real-spinor v={vel['value']:.1e}")


def test_criterion_9_determinism(tmp_path):
    cfg = {
        "scenario": "flux", "n": 800,
        "cases": [{
            "name": "traversal",
            "grid": {"lower": -12.0, "upper": 20.0, "count": 1024},
            "initial": {"generator": "gaussian", "center": -3.0,
                        "width": 1.0, "momentum": 4.0},
            "surface": 0.0, "t_final": 2.0, "dt": 1e-3, "stride": 5,
            "dt_ode": 5e-3, "asserts": []}],
    }
    blobs = []
    for j, threads in enumerate((1, 4, 2)):
        out = tmp_path / f"flux{j}"
        run_scenario(cfg, out_dir=str(out), threads=threads)
        blobs.append((out / "report.json").read_bytes())
    flux_same = blobs[0] == blobs[1] == blobs[2]

    povm_blobs = []
    for j in range(2):
        out = tmp_path / f"povm{j}"
        run_scenario({"scenario": "povm"}, out_dir=str(out))
        povm_blobs.append((out / "report.json").read_bytes())
    povm_same = povm_blobs[0] == povm_blobs[1]
    ok = flux_same and povm_same
    _line("criterion 9: byte-identical reports across repeats and thread "
          "counts", ok,
          f"flux(threads 1/4/2) identical={flux_same}, "
          f"povm repeats identical={povm_same}")
