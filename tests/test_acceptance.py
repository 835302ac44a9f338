"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

The retarded-regime criterion (5) pins a single transition of wavelength
100 a, a decay-fit window z/a in [3, 6], and dominance checkpoints at
z = 5 a and z = 0.01 a.  Three of its four clauses are not attainable at
those parameters: the transverse-electric channel carries a
tight-confinement suppression factor E a (~ 2 pi / 100) per coupling,
which pushes the TM/TE energy crossover out to z ~ 5.6 a, so the [3, 6]
window is still dominated by the faster-decaying axial TM mode and the
pure exp(-2 pi z / a)/z law only sets in beyond the crossover.  Those
tests are kept at the pinned parameters and fail with the measured
numbers; the same physics is demonstrated to hold in the TE-dominated
window (z/a in [7, 10], and at wavelength 10 a) by the passing module
tests in test_energy.py.
"""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import near_field_energy, profile_norm
from wgdisp.asymptotics import reduced_zz_sum_direct, reduced_zz_sum_integral
from wgdisp.energy import (DipoleSpecies, PairConfiguration, dispersion_energy,
                           f_tensor, ratio_to_freespace, u_freespace_vdw)
from wgdisp.fourth_order import (closed_form_reference_energy,
                                 fourth_order_oracle, weighted_reference_energy)
from wgdisp.quadrature import _REL_TOL, f_quadrature, f_te_closed, f_tm_closed
from wgdisp.waveguide import Geometry, ModeIndex, TransversePoint

SRC = Path(__file__).resolve().parents[1] / "src"
SQ = Geometry(1.0, 1.0)
CENTER = SQ.center()
E100 = 2.0 * math.pi / 100.0
ISO = DipoleSpecies.single(E100, (1.0, 1.0, 1.0), "isotropic-average")

# Independently recomputed reference points (mpmath, 40 digits):
# (64 pi^4/3) z^5/(lambda^2 a^3) e^{-2 pi z/a} at z=10a, lambda=100a, and
# (128 pi^6/23) z^6/(lambda^3 a^3) e^{-2 pi z/a} at z=10a, lambda=10a.
RATIO_VDW_10_100 = 1.0718428943712478e-23
RATIO_CP_10_10 = 2.7596518297989975e-21


def _report(tag: str, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def test_criterion_1_mode_normalization():
    worst_unit = 0.0
    worst_literal = 0.0
    te_modes = [ModeIndex("TE", m, n) for m in range(0, 6) for n in range(0, 6)
                if (m, n) != (0, 0)]
    for geom in (SQ, Geometry(1.0, 1.4)):
        for m in range(1, 6):
            for n in range(1, 6):
                for k in (0.0, 7.3, 20.0):
                    val = profile_norm(geom, ModeIndex("TM", m, n), k)
                    worst_unit = max(worst_unit, abs(val - 1.0))
        for mode in te_modes:
            for k in (0.0, 20.0):
                val = profile_norm(geom, mode, k)
                worst_unit = max(worst_unit, abs(val - 1.0))
            if mode.m == 0 or mode.n == 0:
                val = profile_norm(geom, mode, 0.0, "paper-literal")
                worst_literal = max(worst_literal, abs(val - 2.0))
    ok = worst_unit <= 1e-9 and worst_literal <= 1e-9
    line = _report("1", ok, f"unit-normalized dev {worst_unit:.2e} (<=1e-9); "
                            f"zero-index literal dev {worst_literal:.2e} (<=1e-9); "
                            f"square and b/a = 1.4 guides")
    assert ok, line


def test_criterion_2_closed_vs_quadrature():
    rng = np.random.default_rng(20260808)
    spec_bc, spec_ra = "branch-cut-rotated", "real-axis-subtracted"
    worst_closed = 0.0
    worst_scheme = 0.0
    for comp in ("zz", "xx", "yy", "xy", "xz", "yz"):
        for _ in range(20):
            m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            mode = ModeIndex("TM", m, n)
            kmn = math.hypot(m * math.pi, n * math.pi)
            p1 = TransversePoint(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
            p2 = TransversePoint(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
            z = rng.uniform(0.5, 8.0) / kmn
            closed = f_tm_closed(SQ, mode, comp, p1, p2, z)
            oracle = f_quadrature(SQ, mode, comp, p1, p2, z, scheme=spec_bc)
            other = f_quadrature(SQ, mode, comp, p1, p2, z, scheme=spec_ra)
            if oracle != 0.0:
                worst_closed = max(worst_closed, abs(closed - oracle) / abs(oracle))
                worst_scheme = max(worst_scheme, abs(other - oracle) / abs(oracle))
    for _ in range(20):
        mn = [(1, 0), (0, 1), (1, 1), (2, 1)][int(rng.integers(0, 4))]
        mode = ModeIndex("TE", *mn)
        kmn = math.hypot(mn[0] * math.pi, mn[1] * math.pi)
        p1 = TransversePoint(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
        p2 = TransversePoint(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
        z = rng.uniform(0.5, 8.0) / kmn
        for comp in ("xx", "xy", "yx", "yy"):
            closed = f_te_closed(SQ, mode, comp, p1, p2, z, E100)
            oracle = f_quadrature(SQ, mode, comp, p1, p2, z, energy=E100, scheme=spec_bc)
            other = f_quadrature(SQ, mode, comp, p1, p2, z, energy=E100, scheme=spec_ra)
            if oracle != 0.0:
                worst_closed = max(worst_closed, abs(closed - oracle) / abs(oracle))
                worst_scheme = max(worst_scheme, abs(other - oracle) / abs(oracle))
    ok = worst_closed <= 1e-6 and worst_scheme <= 10.0 * _REL_TOL
    line = _report("2", ok, f"closed-vs-quadrature dev {worst_closed:.2e} "
                            f"(<=1e-6); scheme agreement {worst_scheme:.2e} "
                            f"(<=1e-8)")
    assert ok, line


def test_criterion_3_sum_vs_integral():
    devs = []
    for z in (0.1, 0.05, 0.02, 0.01):
        direct = reduced_zz_sum_direct(z)
        devs.append(abs(direct / reduced_zz_sum_integral(z) - 1.0))
    ok = all(d <= 0.05 for d in devs) and all(a > b for a, b in
                                              zip(devs, devs[1:]))
    line = _report("3", ok,
                   "deviation at z/a=0.1,0.05,0.02,0.01: "
                   + ", ".join(f"{d:.2e}" for d in devs)
                   + " (<=5e-2, decreasing)")
    assert ok, line


def test_criterion_4_free_space_recovery():
    z = 0.01
    cfg = PairConfiguration(SQ, CENTER, CENTER, z, ISO, ISO)
    ft = f_tensor(cfg, E100, tail_tol=1e-4)
    z3 = z ** 3
    dev_zz = abs(z3 * ft.tensor[2, 2] - 1.0)
    dev_xx = abs(z3 * ft.tensor[0, 0] + 0.5)
    off = np.abs(ft.tensor - np.diag(np.diag(ft.tensor))).max() * z3
    u = dispersion_energy(cfg, tail_tol=1e-4).total
    u_fs = u_freespace_vdw(ISO, ISO, z)
    dev_u = abs(u / u_fs - 1.0)
    sp1 = DipoleSpecies.single(E100, (0.3, -0.2, 0.8), "fixed-vector")
    sp2 = DipoleSpecies.single(1.3 * E100, (-0.5, 0.1, 0.4), "fixed-vector")
    machine = abs(near_field_energy(sp1, sp2, 0.37)
                  / u_freespace_vdw(sp1, sp2, 0.37) - 1.0)
    ok = (dev_zz <= 0.02 and dev_xx <= 0.01 and off <= 1e-3
          and dev_u <= 0.02 and machine <= 1e-14)
    line = _report("4", ok,
                   f"z^3 F_zz dev {dev_zz:.2e} (<=2e-2); z^3 F_xx dev "
                   f"{dev_xx:.2e} (<=1e-2); off-diag {off:.2e} (<=1e-3); "
                   f"U/U_fs dev {dev_u:.2e} (<=2e-2); "
                   f"component-vs-tensor form {machine:.1e} (machine)")
    assert ok, line


def _retarded_sweep(z_lo: float, z_hi: float, n: int = 13):
    zs = np.linspace(z_lo, z_hi, n)
    us = np.array([dispersion_energy(
        PairConfiguration(SQ, CENTER, CENTER, float(z), ISO, ISO),
        tail_tol=1e-9).total for z in zs])
    return zs, us


def test_criterion_5a_decay_slope_stated_window():
    # As stated: wavelength 100 a, slope of ln|U| (with the 1/z prefactor
    # removed) over z/a in [3, 6] should equal -2 pi / a within 1%.
    zs, us = _retarded_sweep(3.0, 6.0)
    slope = np.polyfit(zs, np.log(zs * np.abs(us)), 1)[0]
    dev = abs(slope + 2.0 * math.pi) / (2.0 * math.pi)
    ok = dev <= 0.01
    line = _report(
        "5a", ok,
        f"slope {slope:.4f} vs -2pi, dev {dev:.1%} (<=1%); not attainable at "
        f"these parameters: the axial TM11 mode (decay sqrt(2)*2pi/a) still "
        f"dominates below the TM/TE crossover at z~5.6a for wavelength 100a; "
        f"the same fit over z/a in [7,10] gives dev ~1e-5 (test_energy.py)")
    assert ok, line


def test_criterion_5b_residual_log_prefactor():
    zs, us = _retarded_sweep(3.0, 6.0)
    residual = np.log(np.abs(us)) + 2.0 * math.pi * zs
    coeffs = np.polyfit(np.log(zs), residual, 1)
    fit = np.polyval(coeffs, np.log(zs))
    ss_res = float(np.sum((residual - fit) ** 2))
    ss_tot = float(np.sum((residual - residual.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    # consistency with -ln z means a slope near -1 on ln z
    ok = r2 >= 0.999 and abs(coeffs[0] + 1.0) < 0.2
    line = _report(
        "5b", ok,
        f"residual-vs-ln(z) R^2 {r2:.5f} (>=0.999), slope {coeffs[0]:.2f} "
        f"(expect ~-1); not attainable at these parameters: the [3,6] "
        f"residual is dominated by the TM11 exponential, not the 1/z "
        f"prefactor")
    assert ok, line


def test_criterion_5c_te_dominance_at_5a():
    u5 = dispersion_energy(PairConfiguration(SQ, CENTER, CENTER, 5.0,
                                             ISO, ISO), tail_tol=1e-9)
    ratio = abs(u5.u_te_only) / abs(u5.u_tm_only)
    u6 = dispersion_energy(PairConfiguration(SQ, CENTER, CENTER, 6.0,
                                             ISO, ISO), tail_tol=1e-9)
    ratio6 = abs(u6.u_te_only) / abs(u6.u_tm_only)
    ok = ratio >= 10.0
    line = _report(
        "5c", ok,
        f"TE(01+10)/TM energy ratio at z=5a is {ratio:.2f} (>=10); not "
        f"attainable at these parameters: the TE coupling carries the "
        f"tight-confinement factor (2 pi a/lambda)^2 ~ 4e-3 for "
        f"lambda=100a, so the crossover sits at z~5.6a; the ratio is "
        f"{ratio6:.1f} at z=6a and 185 at z=5a for lambda=10a "
        f"(test_energy.py)")
    assert ok, line


def test_criterion_5d_tm_dominance_near_field():
    u = dispersion_energy(PairConfiguration(SQ, CENTER, CENTER, 0.01,
                                            ISO, ISO), tail_tol=1e-4)
    ratio = abs(u.u_tm_only) / abs(u.u_te_only)
    ok = ratio >= 100.0
    line = _report("5d", ok, f"TM/TE energy ratio at z=0.01a is {ratio:.3e} "
                             f"(>=100)")
    assert ok, line


def test_criterion_6_ratio_curves():
    r27 = ratio_to_freespace(10.0, 100.0, 1.0, "vdw-reference")
    r29 = ratio_to_freespace(10.0, 10.0, 1.0, "cp-reference")
    dev27 = abs(r27 / RATIO_VDW_10_100 - 1.0)
    dev29 = abs(r29 / RATIO_CP_10_10 - 1.0)

    def r_squared(lam, regime, lo, hi):
        zs = np.geomspace(lo, hi, 25)
        lnr = np.log([ratio_to_freespace(float(z), lam, 1.0, regime)
                      for z in zs])
        fit = np.polyval(np.polyfit(zs, lnr, 1), zs)
        return 1.0 - np.sum((lnr - fit) ** 2) / np.sum((lnr - lnr.mean()) ** 2)

    r2_a = r_squared(100.0, "vdw-reference", 2.0, 90.0)
    r2_b = r_squared(10.0, "cp-reference", 10.0, 40.0)
    ok = (dev27 <= 1e-3 and dev29 <= 1e-3 and r2_a >= 0.999 and r2_b >= 0.999)
    line = _report(
        "6", ok,
        f"quasistatic-reference ratio {r27:.4e} vs recomputed "
        f"{RATIO_VDW_10_100:.4e} (dev {dev27:.1e}); retarded-reference "
        f"{r29:.4e} (dev {dev29:.1e}); semi-log linearity R^2 {r2_a:.5f}/"
        f"{r2_b:.5f} (>=0.999)")
    assert ok, line


def test_criterion_7_twelve_diagram_oracle():
    tm11 = [ModeIndex("TM", 1, 1)]
    axial = DipoleSpecies.single(E100, (0, 0, 1.0), "fixed-vector")
    cfg = PairConfiguration(SQ, CENTER, CENTER, 0.6, axial, axial)
    dom = fourth_order_oracle(cfg, tm11, diagrams="dominant")
    ref = weighted_reference_energy(cfg, tm11)
    consistency = abs(dom / ref - 1.0)

    devs = []
    for lam in (10.0, 100.0, 1000.0):
        sp = DipoleSpecies.single(2.0 * math.pi / lam, (0, 0, 1.0),
                                  "fixed-vector")
        cfg_l = PairConfiguration(SQ, CENTER, CENTER, 0.6, sp, sp)
        full = fourth_order_oracle(cfg_l, tm11, diagrams="all")
        closed = closed_form_reference_energy(cfg_l, tm11)
        devs.append(abs(full - closed) / abs(full))
    ok = (consistency <= 1e-6 and devs[1] <= 0.05
          and devs[0] > devs[1] > devs[2])
    line = _report(
        "7", ok,
        f"dominant-subset consistency {consistency:.1e} (<=1e-6); full sum "
        f"vs dominant form at lambda/a=10,100,1000: "
        + ", ".join(f"{d:.2%}" for d in devs)
        + " (<=5% at 100, decreasing)")
    assert ok, line


def _run_cli(*argv):
    env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin",
           "PYTHONHASHSEED": "0"}
    return subprocess.run([sys.executable, "-m", "wgdisp", *argv],
                          capture_output=True, text=True, env=env)


def test_criterion_8_determinism(tmp_path):
    species = tmp_path / "species.txt"
    species.write_text("E=0.06283185307179587 d=(1,1,1)\n")
    pairs = [
        ("energy", "--z", "0.8", "--species1", str(species),
         "--tail-tol", "1e-8"),
        ("sweep", "--z-min", "3", "--z-max", "4", "--points", "3",
         "--species1", str(species), "--tail-tol", "1e-8"),
        ("oracle-check", "--seed", "31415", "--cases", "3"),
        ("reproduce", "fig4"),
    ]
    identical = True
    for argv in pairs:
        a, b = _run_cli(*argv), _run_cli(*argv)
        identical = identical and a.stdout == b.stdout \
            and a.returncode == b.returncode
    line = _report("8", identical,
                   "repeated CLI runs byte-identical for energy, sweep, "
                   "oracle-check and reproduce")
    assert identical, line
