"""Cross-validation suite behind the oracle-check subcommand.

Three check families, each printed with its measured deviation and the
threshold it is held to:

1. closed forms against the wavenumber-integral oracle on randomized
   inputs, plus agreement between the two regularization schemes: every
   case is drawn first, then each scheme's integrals and the closed forms
   are taken as batches, bit for bit the one-case values;
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
from .coupling import QuadratureSpec, _closed_forms, _quadratures
from .energy import (DipoleSpecies, PairConfiguration, dispersion_energy,
                     u_freespace_vdw)
from .errors import InputError, QuadratureError
from .fourth_order import (closed_form_reference_energy, fourth_order_oracle,
                           weighted_reference_energy)
from .waveguide import Geometry, ModeIndex, TransversePoint, cutoff_wavenumber

_TM_COMPONENTS = ("zz", "xx", "yy", "xy", "xz", "yz")
_TE_MODES = [(1, 0), (0, 1), (1, 1), (2, 1)]
# TM components whose printed paper-literal prefactors deviate from the
# regularized integral by construction.
_PRINTED_TM = ("xx", "yy", "xy", "yx", "zx", "zy")


# Ranges of a case's draws: p1.x / a, p1.y / b, p2.x / a, p2.y / b, k_mn z.
_CASE_LOW = np.array([0.05, 0.05, 0.05, 0.05, 0.5])
_CASE_RANGE = np.array([0.95, 0.95, 0.95, 0.95, 8.0]) - _CASE_LOW


def _sample_case(rng, geom, mode):
    """Random points and a separation with k_mn z in [0.5, 8] for ``mode``, from
    one ``rng.random(5)`` mapped to low + (high - low) u as ``rng.uniform`` maps."""
    kmn = cutoff_wavenumber(geom, mode)
    x1, y1, x2, y2, u = (_CASE_LOW + _CASE_RANGE * rng.random(5)).tolist()
    return (TransversePoint(x1 * geom.a, y1 * geom.b),
            TransversePoint(x2 * geom.a, y2 * geom.b), u / kmn)


def _closed_vs_quadrature_cases(rng, geom, cases: int):
    """(component, mode, p1, p2, z): ``cases`` TM draws per component, then
    ``cases`` TE draws of four transverse components each."""
    for comp in _TM_COMPONENTS:
        for _ in range(cases):
            mode = ModeIndex("TM", int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            yield (comp, mode, *_sample_case(rng, geom, mode))
    for _ in range(cases):
        mode = ModeIndex("TE", *_TE_MODES[int(rng.integers(0, 4))])
        case = _sample_case(rng, geom, mode)
        for comp in ("xx", "xy", "yx", "yy"):
            yield (comp, mode, *case)


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
    spec_bc = QuadratureSpec(scheme="branch-cut-rotated")
    spec_ra = QuadratureSpec(scheme="real-axis-subtracted")
    e_test = 2.0 * math.pi / 100.0
    drawn = list(_closed_vs_quadrature_cases(rng, geom, cases))
    energies = [e_test if mode.polarization == "TE" else 0.0 for _, mode, *_ in drawn]
    families = {"closed-vs-quadrature": spec_bc, "scheme-agreement": spec_ra}
    results = {family: _quadratures(geom, drawn, energies, spec, conv.normalization)
               for family, spec in families.items()}
    closed = _closed_forms(geom, drawn, e_test, conv).tolist()
    worst_closed = 0.0
    worst_scheme = 0.0
    worst_sign_mismatch = 0.0
    uncertified: dict[str, str] = {}
    for c, (comp, mode, _, _, z) in enumerate(drawn):
        for family, values in results.items():
            if isinstance(values[c], QuadratureError):
                uncertified.setdefault(family, (
                    f"(uncertified quadrature: {mode.label()} {comp} z={z:.6g} "
                    f"scheme={families[family].scheme} achieved error "
                    f"{values[c].achieved_error:.4e})"))
        oracle_val, other = (values[c] for values in results.values())
        if isinstance(oracle_val, QuadratureError) or not oracle_val:
            continue  # zero or uncertified: no relative deviation
        if not isinstance(other, QuadratureError):
            worst_scheme = max(worst_scheme, abs(other - oracle_val) / abs(oracle_val))
        if mode.polarization == "TE":
            printed = conv.te_factor == "paper-literal"
        else:
            printed = conv.tm_sign == "paper-literal" and comp in _PRINTED_TM
        rel = abs(closed[c] - oracle_val) / abs(oracle_val)
        if printed:
            worst_sign_mismatch = max(worst_sign_mismatch, rel)
        else:
            worst_closed = max(worst_closed, rel)
    for family, dev, threshold in (("closed-vs-quadrature", worst_closed, 1e-6),
                                   ("scheme-agreement", worst_scheme,
                                    10.0 * spec_bc.rel_tol)):
        record(family, dev, threshold, uncertified.get(family, ""),
               certified=family not in uncertified)
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
    u_fs = u_freespace_vdw(iso, iso, z_small, form="tensor")
    record("free-space-recovery/energy", abs(breakdown.total / u_fs - 1.0), 0.02)

    lines.append(f"overall: {'PASS' if overall_ok else 'FAIL'}")
    return "\n".join(lines) + "\n", overall_ok
