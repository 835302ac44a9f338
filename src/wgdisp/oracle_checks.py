"""Cross-validation suite behind the oracle-check subcommand.

Three check families, each printed with its measured deviation and the
threshold it is held to:

1. closed forms against the wavenumber-integral oracle on randomized
   inputs, plus agreement between the two regularization schemes;
2. the twelve-diagram fourth-order sum against the dominant-diagram
   energy formula (construction consistency of the dominant subset, then
   the full sum at tight confinement);
3. free-space recovery of the mode-summed tensor at short separation.

Under the paper-literal convention the transverse-transverse sign
mismatch against the oracle is reported as informational, not a failure.
"""

from __future__ import annotations

import math

import numpy as np

from .conventions import Conventions
from .coupling import QuadratureSpec, f_quadrature, f_te_closed, f_tm_closed
from .energy import (DipoleSpecies, PairConfiguration, dispersion_energy,
                     u_freespace_vdw)
from .errors import InputError
from .fourth_order import (closed_form_reference_energy, fourth_order_oracle,
                           weighted_reference_energy)
from .waveguide import Geometry, ModeIndex, TransversePoint, cutoff_wavenumber

_TM_COMPONENTS = ("zz", "xx", "yy", "xy", "xz", "yz")


def _sample_tm_case(rng, geom):
    m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    mode = ModeIndex("TM", m, n)
    kmn = cutoff_wavenumber(geom, mode)
    p1 = TransversePoint(rng.uniform(0.05, 0.95) * geom.a,
                         rng.uniform(0.05, 0.95) * geom.b)
    p2 = TransversePoint(rng.uniform(0.05, 0.95) * geom.a,
                         rng.uniform(0.05, 0.95) * geom.b)
    z = rng.uniform(0.5, 8.0) / kmn
    return mode, p1, p2, z


def run_oracle_checks(seed: int = 12345, convention: str = "oracle-consistent",
                      cases: int = 20) -> tuple[str, bool]:
    if cases < 1:
        raise InputError(f"cases must be at least 1, got {cases}")
    rng = np.random.default_rng(seed)
    geom = Geometry(1.0, 1.0)
    conv = Conventions.from_name(convention)
    lines = [f"oracle-check report (seed={seed}, convention={convention}, "
             f"cases={cases})"]
    overall_ok = True

    def record(name: str, dev: float, threshold: float, ok=None, note=""):
        nonlocal overall_ok
        if ok is None:
            ok = dev <= threshold
        overall_ok = overall_ok and ok
        status = "PASS" if ok else "FAIL"
        extra = f" {note}" if note else ""
        lines.append(f"[{name}] max_dev={dev:.6e} threshold={threshold:.1e} "
                     f"-> {status}{extra}")

    # 1. closed form vs quadrature, both schemes ------------------------------
    spec_bc = QuadratureSpec(scheme="branch-cut-rotated")
    spec_ra = QuadratureSpec(scheme="real-axis-subtracted")
    worst_closed = 0.0
    worst_scheme = 0.0
    worst_sign_mismatch = 0.0
    for comp in _TM_COMPONENTS:
        for _ in range(cases):
            mode, p1, p2, z = _sample_tm_case(rng, geom)
            oracle_val = f_quadrature(geom, mode, comp, p1, p2, z,
                                      spec=spec_bc).value
            other = f_quadrature(geom, mode, comp, p1, p2, z,
                                 spec=spec_ra).value
            closed = f_tm_closed(geom, mode, comp, p1, p2, z, conv.tm_sign).value
            if oracle_val != 0.0:
                worst_scheme = max(worst_scheme,
                                   abs(other - oracle_val) / abs(oracle_val))
                rel = abs(closed - oracle_val) / abs(oracle_val)
                if conv.tm_sign == "paper-literal" and comp in ("xx", "yy",
                                                                "xy", "yx",
                                                                "zx", "zy"):
                    # Printed prefactors deviate from the regularized
                    # integral here by construction.
                    worst_sign_mismatch = max(worst_sign_mismatch, rel)
                else:
                    worst_closed = max(worst_closed, rel)
    e_test = 2.0 * math.pi / 100.0
    for _ in range(cases):
        mn = [(1, 0), (0, 1), (1, 1), (2, 1)][int(rng.integers(0, 4))]
        mode = ModeIndex("TE", *mn)
        kmn = cutoff_wavenumber(geom, mode)
        p1 = TransversePoint(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
        p2 = TransversePoint(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
        z = rng.uniform(0.5, 8.0) / kmn
        for comp in ("xx", "xy", "yx", "yy"):
            oracle_val = f_quadrature(geom, mode, comp, p1, p2, z,
                                      energy=e_test, include_energy_factor=True,
                                      spec=spec_bc,
                                      normalization=conv.normalization).value
            other = f_quadrature(geom, mode, comp, p1, p2, z, energy=e_test,
                                 include_energy_factor=True, spec=spec_ra,
                                 normalization=conv.normalization).value
            closed = f_te_closed(geom, mode, comp, p1, p2, z, e_test,
                                 conv.te_factor, conv.normalization).value
            if oracle_val != 0.0:
                worst_scheme = max(worst_scheme,
                                   abs(other - oracle_val) / abs(oracle_val))
                rel = abs(closed - oracle_val) / abs(oracle_val)
                if conv.te_factor == "paper-literal":
                    worst_sign_mismatch = max(worst_sign_mismatch, rel)
                else:
                    worst_closed = max(worst_closed, rel)
    record("closed-vs-quadrature", worst_closed, 1e-6)
    record("scheme-agreement", worst_scheme, 10.0 * spec_bc.rel_tol)
    if convention == "paper-literal":
        lines.append(f"[sign-convention] expected-mismatch of printed "
                     f"prefactors vs oracle: max_dev={worst_sign_mismatch:.3e} "
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
           note=f"(lambda/a=100, modes=TM11, oracle={full:.6e})")

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
    u_fs = u_freespace_vdw(iso, iso, z_small, form="tensor")
    record("free-space-recovery/energy", abs(breakdown.total / u_fs - 1.0), 0.02)

    lines.append(f"overall: {'PASS' if overall_ok else 'FAIL'}")
    return "\n".join(lines) + "\n", overall_ok
