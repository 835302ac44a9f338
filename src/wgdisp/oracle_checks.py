"""Cross-validation suite behind the oracle-check subcommand.

Three check families, each printed with its measured deviation and the
threshold it is held to:

1. closed forms against the wavenumber-integral oracle on randomized
   inputs, plus agreement between the two regularization schemes: every
   case is drawn into one batch record, whose integrals under both schemes
   come from one call and whose closed forms from another, bit for bit the
   one-case values; the worst deviations are array maxima over the cases;
2. the twelve-diagram fourth-order sum against the dominant-diagram
   energy formula (construction consistency of the dominant subset, then
   the full sum at tight confinement);
3. free-space recovery of the mode-summed tensor at short separation.

Under the paper-literal convention the transverse-transverse sign
mismatch against the oracle is reported as informational, not a failure.
A wavenumber integral that cannot certify its tolerance fails its family
on a line naming the first such case in draw order, and the remaining
families still run.
"""

from __future__ import annotations

import math

import numpy as np

from .conventions import Conventions
from .coupling import ORIENTATIONS
from .energy import (DipoleSpecies, PairConfiguration, dispersion_energy,
                     u_freespace_vdw)
from .errors import InputError
from .fourth_order import (closed_form_reference_energy, fourth_order_oracle,
                           weighted_reference_energy)
from .quadrature import _REL_TOL, _case_batch, _Cases, _closed_forms, _quadratures
from .waveguide import TE, TM, Geometry, ModeIndex, TransversePoint

_TM_COMPONENTS = ("zz", "xx", "yy", "xy", "xz", "yz")
_TE_MODES = [(1, 0), (0, 1), (1, 1), (2, 1)]


# Ranges of a case's draws: p1.x / a, p1.y / b, p2.x / a, p2.y / b, k_mn z.
_CASE_LOW = np.array([0.05, 0.05, 0.05, 0.05, 0.5])
_CASE_RANGE = np.array([0.95, 0.95, 0.95, 0.95, 8.0]) - _CASE_LOW


def _draw_cases(rng, geom, cases: int) -> _Cases:
    """``cases`` TM draws per component, then ``cases`` TE draws of four
    transverse components each, with points and a separation with k_mn z in
    [0.5, 8].  A TM draw takes two ``rng.integers(1, 4)`` for its mode, a TE
    draw one ``rng.integers(0, 4)``, and each then one ``rng.random(5)``,
    mapped to low + (high - low) u as ``rng.uniform`` maps; z is k_mn z over
    the batch's own k_mn."""
    draws = [(TM, int(rng.integers(1, 4)), int(rng.integers(1, 4)), rng.random(5))
             for _ in range(len(_TM_COMPONENTS) * cases)]
    for _ in range(cases):
        draws += [(TE, *_TE_MODES[int(rng.integers(0, 4))], rng.random(5))] * 4
    pols, m, n, u = zip(*draws)
    x1, y1, x2, y2, zeta = (_CASE_LOW + _CASE_RANGE * np.array(u)).T
    orients = [c for c in _TM_COMPONENTS for _ in range(cases)] + ["xx", "xy", "yx", "yy"] * cases
    drawn = _case_batch(geom, np.array(pols) == TE, np.array(m), np.array(n),
                        TransversePoint(x1 * geom.a, y1 * geom.b),
                        TransversePoint(x2 * geom.a, y2 * geom.b), zeta, orients)
    return drawn._replace(z=zeta / drawn.k)


def run_oracle_checks(seed: int = 12345, convention: str = "oracle-consistent",
                      cases: int = 20) -> tuple[str, bool]:
    if cases < 1:
        raise InputError(f"cases must be at least 1, got {cases}")
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    geom = Geometry(1.0, 1.0)
    conv = Conventions(convention)
    lines = [f"oracle-check report (seed={seed}, convention={convention}, "
             f"cases={cases})"]
    overall_ok = True

    def record(name: str, dev: float, threshold: float, note="", certified=True):
        nonlocal overall_ok
        ok = certified and dev <= threshold
        overall_ok = overall_ok and ok
        status = "PASS" if ok else "FAIL"
        extra = f" {note}" if note else ""
        lines.append(f"[{name}] max_dev={dev:.6e} threshold={threshold:.1e} "
                     f"-> {status}{extra}")

    # 1. closed form vs quadrature, both schemes ------------------------------
    # An uncertified branch-cut value fails the closed forms, an
    # uncertified real-axis value the scheme agreement.
    schemes = ("branch-cut-rotated", "real-axis-subtracted")
    e_test = 2.0 * math.pi / 100.0
    drawn = _draw_cases(rng, geom, cases)
    values, errors, uncertified = _quadratures(geom, drawn, np.where(drawn.te, e_test, 0.0),
                                               schemes, conv)
    closed = _closed_forms(geom, drawn, e_test, conv)
    oracle, other = values
    live = ~uncertified[0] & (oracle != 0.0)  # zero or uncertified: no relative deviation
    # Printed prefactors deviate from the regularized integral by construction:
    # the TE factor, and the map's TM xx, yy, xy, yx, zx and zy (j < 2).
    printed = conv.printed & (drawn.te | (drawn.j < 2))

    def worst(compared, mask):
        return float(np.max(np.abs(compared[mask] - oracle[mask]) / np.abs(oracle[mask]),
                            initial=0.0))

    for family, scheme, bad, error, dev, threshold in zip(
            ("closed-vs-quadrature", "scheme-agreement"), schemes, uncertified, errors,
            (worst(closed, live & ~printed), worst(other, live & ~uncertified[1])),
            (1e-6, 10.0 * _REL_TOL)):
        note = ""
        if bad.any():  # the first uncertified case in draw order
            c = int(np.argmax(bad))
            mode = ModeIndex(TE if drawn.te[c] else TM, int(drawn.m[c]), int(drawn.n[c]))
            comp = ORIENTATIONS[3 * drawn.i[c] + drawn.j[c]]
            note = (f"(uncertified quadrature: {mode.label()} {comp} z={drawn.z[c]:.6g} "
                    f"scheme={scheme} achieved error {error[c]:.4e})")
        record(family, dev, threshold, note, certified=not bad.any())
    if printed.any():
        lines.append(f"[sign-convention] expected-mismatch of printed "
                     f"prefactors vs oracle: max_dev={worst(closed, live & printed):.3e} "
                     f"(informational)")

    # 2. twelve-diagram oracle -------------------------------------------------
    center = geom.center()
    axial = DipoleSpecies.single(e_test, (0.0, 0.0, 1.0), "fixed-vector")
    config_axial = PairConfiguration(geom, center, center, 0.6, axial, axial,
                                     conventions=conv)
    tm11 = [ModeIndex("TM", 1, 1)]
    dominant = fourth_order_oracle(config_axial, tm11, diagrams="dominant")
    reference = weighted_reference_energy(config_axial, tm11)
    rel = abs(dominant - reference) / abs(reference)
    record("twelve-diagram/dominant-consistency", rel, 1e-6)

    iso = DipoleSpecies.single(e_test, (1.0, 1.0, 1.0), "isotropic-average")
    config_iso = PairConfiguration(geom, center, center, 0.6, iso, iso,
                                   conventions=Conventions())
    full = fourth_order_oracle(config_iso, tm11, diagrams="all")
    closed_ref = closed_form_reference_energy(config_iso, tm11)
    rel_full = abs(full - closed_ref) / abs(full)
    record("twelve-diagram/full-vs-dominant-form", rel_full, 0.05,
           f"(lambda/a=100, modes=TM11, oracle={full:.6e})")

    # 3. free-space recovery ---------------------------------------------------
    z_small = 0.01
    config_small = PairConfiguration(geom, center, center, z_small, iso, iso,
                                     conventions=Conventions())
    breakdown = dispersion_energy(config_small, tail_tol=1e-4)
    ft = breakdown.f_by_level[e_test]
    z3 = z_small ** 3
    dev = max(abs(z3 * ft.tensor[2, 2] - 1.0),
              abs(z3 * ft.tensor[0, 0] + 0.5),
              abs(z3 * ft.tensor[1, 1] + 0.5))
    record("free-space-recovery/components", dev, 0.02)
    u_fs = u_freespace_vdw(iso, iso, z_small)
    record("free-space-recovery/energy", abs(breakdown.total / u_fs - 1.0), 0.02)

    lines.append(f"overall: {'PASS' if overall_ok else 'FAIL'}")
    return "\n".join(lines) + "\n", overall_ok
