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
A wavenumber integral that cannot certify its tolerance fails its family
on a line naming the case, and the remaining families still run.
"""

from __future__ import annotations

import math

import numpy as np

from .conventions import Conventions
from .coupling import QuadratureSpec, f_quadrature, f_te_closed, f_tm_closed
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


def _sample_case(rng, geom, mode):
    """Random points and a separation with k_mn z in [0.5, 8] for ``mode``."""
    kmn = cutoff_wavenumber(geom, mode)
    p1 = TransversePoint(rng.uniform(0.05, 0.95) * geom.a,
                         rng.uniform(0.05, 0.95) * geom.b)
    p2 = TransversePoint(rng.uniform(0.05, 0.95) * geom.a,
                         rng.uniform(0.05, 0.95) * geom.b)
    return p1, p2, rng.uniform(0.5, 8.0) / kmn


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
    worst_closed = 0.0
    worst_scheme = 0.0
    worst_sign_mismatch = 0.0
    uncertified: dict[str, str] = {}
    for comp, mode, p1, p2, z in _closed_vs_quadrature_cases(rng, geom, cases):
        te = mode.polarization == "TE"
        weighted = {"energy": e_test, "include_energy_factor": True} if te else {}

        def quadrature(spec, family):
            try:
                return f_quadrature(geom, mode, comp, p1, p2, z, spec=spec,
                                    normalization=conv.normalization,
                                    **weighted).value
            except QuadratureError as exc:
                uncertified.setdefault(family, (
                    f"(uncertified quadrature: {mode.label()} {comp} z={z:.6g} "
                    f"scheme={spec.scheme} achieved error {exc.achieved_error:.4e})"))
                return None

        oracle_val = quadrature(spec_bc, "closed-vs-quadrature")
        other = quadrature(spec_ra, "scheme-agreement")
        if not oracle_val:  # zero or uncertified: no relative deviation
            continue
        if other is not None:
            worst_scheme = max(worst_scheme, abs(other - oracle_val) / abs(oracle_val))
        if te:
            closed = f_te_closed(geom, mode, comp, p1, p2, z, e_test,
                                 conv.te_factor, conv.normalization).value
            printed = conv.te_factor == "paper-literal"
        else:
            closed = f_tm_closed(geom, mode, comp, p1, p2, z, conv.tm_sign).value
            printed = conv.tm_sign == "paper-literal" and comp in _PRINTED_TM
        rel = abs(closed - oracle_val) / abs(oracle_val)
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
