"""Command-line front end.

Subcommands: modes, coupling, energy, sweep, reproduce, oracle-check.
All quantities are dimensionless (natural units, lengths in units of a
unless --a is given).  Exit codes: 0 success, 1 check failure,
2 argument error, 3 input-file error, 4 resource cap.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .conventions import Conventions
from .errors import (InputError, ModeCapError, QuadratureError,
                     SpeciesFileError, WgdispError)
from .waveguide import (Geometry, ModeIndex, TransversePoint,
                        cutoff_wavenumber, enumerate_modes)
from .coupling import (ORIENTATIONS, QuadratureSpec, f_quadrature,
                       f_te_closed, f_tm_closed)
from .energy import (DipoleSpecies, PairConfiguration, dispersion_energy,
                     dispersion_sweep, ratio_to_freespace, u_freespace_cp,
                     u_freespace_vdw)
from .asymptotics import SumSpec, reduced_zz_sum_direct, reduced_zz_sum_integral
from .species_io import parse_species_file

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INPUT_FILE = 3
EXIT_RESOURCE = 4

FIG3A_LAMBDA = 100.0
FIG3A_GRID = (2.0, 90.0, 25)
FIG3B_LAMBDA = 10.0
FIG3B_GRID = (10.0, 40.0, 25)
FIG4_GRID = (0.01, 1.0, 25)

# Configuration keys accepted in a flat "key = value" file, with casts.
_CONFIG_TYPES = {
    "a": float, "b": float, "x1": float, "y1": float, "x2": float, "y2": float,
    "z": float, "z_min": float, "z_max": float, "points": int,
    "spacing": str, "species1": str, "species2": str, "orientation": str,
    "epsilon": float, "tail_tol": float, "max_cutoff": float,
    "top_modes": int, "convention": str, "format": str, "out": str,
    "seed": int, "si_a_meters": float,
}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SpeciesFileError(f"cannot read config file: {exc}", path, 0)
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _CONFIG_TYPES:
            raise InputError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            out[key] = _CONFIG_TYPES[key](value.strip())
        except ValueError:
            raise InputError(f"{path}:{lineno}: bad value for {key!r}")
    return out


def _resolve(args, key: str, default=None):
    """CLI flag if given, else config-file value, else default."""
    val = getattr(args, key, None)
    if val is not None:
        return val
    if getattr(args, "_config", None) and key in args._config:
        return args._config[key]
    return default


def _emit(args, text: str) -> None:
    out = _resolve(args, "out")
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _csv(header: list[str], rows: list[list[float]],
         preamble: list[str] | None = None) -> str:
    lines = list(preamble or [])
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _geometry(args) -> Geometry:
    return Geometry(float(_resolve(args, "a", 1.0)),
                    float(_resolve(args, "b", 1.0)))


def _conventions(args) -> Conventions:
    return Conventions.from_name(_resolve(args, "convention", "oracle-consistent"))


def _species_pair(args) -> tuple[DipoleSpecies, DipoleSpecies]:
    orientation = _resolve(args, "orientation", "isotropic-average")
    sp1_path = _resolve(args, "species1")
    if not sp1_path:
        raise InputError("a species file is required (--species1)")
    sp1 = parse_species_file(sp1_path, orientation)
    sp2_path = _resolve(args, "species2")
    sp2 = parse_species_file(sp2_path, orientation) if sp2_path else sp1
    return sp1, sp2


def _pair_configuration(args, z: float, species=None) -> PairConfiguration:
    geom = _geometry(args)
    sp1, sp2 = species if species is not None else _species_pair(args)
    cx, cy = 0.5 * geom.a, 0.5 * geom.b
    p1 = TransversePoint(float(_resolve(args, "x1", cx)),
                         float(_resolve(args, "y1", cy)))
    p2 = TransversePoint(float(_resolve(args, "x2", cx)),
                         float(_resolve(args, "y2", cy)))
    return PairConfiguration(geom, p1, p2, z, sp1, sp2,
                             epsilon=float(_resolve(args, "epsilon", 1.0)),
                             conventions=_conventions(args))


def _species_json(sp: DipoleSpecies) -> list[dict]:
    return [{"energy": t.energy, "d": list(t.d)} for t in sp.transitions]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_modes(args) -> int:
    geom = _geometry(args)
    max_cutoff = _resolve(args, "max_cutoff")
    if max_cutoff is None:
        raise InputError("--max-cutoff is required")
    modes = enumerate_modes(geom, float(max_cutoff))
    fmt = _resolve(args, "format", "csv")
    if fmt == "json":
        payload = [{"polarization": m.polarization, "m": m.m, "n": m.n,
                    "k_mn": cutoff_wavenumber(geom, m),
                    "omega_cutoff": cutoff_wavenumber(geom, m)}
                   for m in modes]
        _emit(args, _json_dump(payload))
    else:
        rows = []
        lines = ["polarization,m,n,k_mn,omega_cutoff"]
        for m in modes:
            k = cutoff_wavenumber(geom, m)
            lines.append(f"{m.polarization},{m.m},{m.n},{_fmt(k)},{_fmt(k)}")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_coupling(args) -> int:
    geom = _geometry(args)
    mode = ModeIndex(args.pol, args.m, args.n)
    orient = args.orient
    if orient not in ORIENTATIONS:
        raise InputError(f"--orient must be one of {ORIENTATIONS}")
    cx, cy = 0.5 * geom.a, 0.5 * geom.b
    p1 = TransversePoint(float(_resolve(args, "x1", cx)),
                         float(_resolve(args, "y1", cy)))
    p2 = TransversePoint(float(_resolve(args, "x2", cx)),
                         float(_resolve(args, "y2", cy)))
    z = float(_resolve(args, "z"))
    conv = _conventions(args)
    if mode.polarization == "TM":
        closed = f_tm_closed(geom, mode, orient, p1, p2, z, conv.tm_sign)
    else:
        if args.energy is None:
            raise InputError("TE couplings require --energy")
        closed = f_te_closed(geom, mode, orient, p1, p2, z, args.energy,
                             conv.te_factor, conv.normalization)
    payload = {
        "inputs": {"mode": mode.label(), "orientation": orient,
                   "p1": [p1.x, p1.y], "p2": [p2.x, p2.y], "z": z,
                   "energy": args.energy, "convention": conv.tm_sign},
        "closed_form": closed.value,
    }
    if args.check_quadrature:
        spec = QuadratureSpec(scheme=args.scheme)
        quad_val = f_quadrature(geom, mode, orient, p1, p2, z,
                                energy=args.energy or 0.0,
                                include_energy_factor=args.energy is not None,
                                spec=spec, normalization=conv.normalization)
        payload["quadrature"] = quad_val.value
        scale = max(abs(quad_val.value), 1e-300)
        payload["rel_difference"] = abs(closed.value - quad_val.value) / scale
    _emit(args, _json_dump(payload))
    return EXIT_OK


def _truncation(args) -> dict:
    """Truncation keyword: --max-cutoff if given, else --tail-tol."""
    max_cutoff = _resolve(args, "max_cutoff")
    if max_cutoff is not None:
        return {"max_cutoff": float(max_cutoff)}
    return {"tail_tol": float(_resolve(args, "tail_tol", 1e-6))}


def _ratio(u: float, reference: float) -> float:
    # Adding 0.0 prints a zero energy's ratio as 0.0, not -0.0.
    return u / reference + 0.0 if reference else math.nan


def _energy_report(args, z: float) -> dict:
    top_n = int(_resolve(args, "top_modes", 8))
    if top_n < 0:
        raise InputError(f"top_modes must be non-negative, got {top_n}")
    config = _pair_configuration(args, z)
    kwargs = _truncation(args)
    breakdown = dispersion_energy(config, **kwargs)

    sp1, sp2 = config.species1, config.species2
    fs_vdw = u_freespace_vdw(sp1, sp2, z, form="tensor", epsilon=config.epsilon)
    import warnings as _w
    with _w.catch_warnings():
        _w.simplefilter("ignore")
        fs_cp = u_freespace_cp(sp1, sp2, z, epsilon=config.epsilon)

    lowest_e = min(t.energy for t in sp1.transitions)
    top_modes = []
    f_res = breakdown.f_by_level.get(lowest_e)
    if f_res is not None and f_res.per_mode:
        ranked = sorted(f_res.per_mode.items(),
                        key=lambda kv: (-float(np.abs(kv[1]).max()),
                                        kv[0].polarization, kv[0].m, kv[0].n))
        for mode, tensor in ranked[:top_n]:
            top_modes.append({"mode": mode.label(),
                              "max_abs_f": float(np.abs(tensor).max()),
                              "f": [[float(v) for v in row] for row in tensor]})

    report = {
        "inputs": {
            "a": config.geom.a, "b": config.geom.b,
            "p1": [config.p1.x, config.p1.y], "p2": [config.p2.x, config.p2.y],
            "z": z, "epsilon": config.epsilon,
            "species1": _species_json(sp1), "species2": _species_json(sp2),
            "orientation": sp1.orientation,
            "conventions": {
                "tm_sign": config.conventions.tm_sign,
                "te_factor": config.conventions.te_factor,
                "normalization": config.conventions.normalization,
            },
            "truncation": kwargs,
        },
        "total": breakdown.total,
        "u_tm_only": breakdown.u_tm_only,
        "u_te_only": breakdown.u_te_only,
        "tail_estimate": breakdown.tail_estimate,
        "modes_used": breakdown.modes_used,
        "per_level_pair": {f"{i},{j}": v
                           for (i, j), v in sorted(breakdown.per_level_pair.items())},
        "top_modes": top_modes,
        "freespace_vdw_tensor": fs_vdw,
        "freespace_cp": fs_cp,
        "ratio_to_freespace_vdw": _ratio(breakdown.total, fs_vdw),
        "warnings": breakdown.warnings,
    }
    si_a = _resolve(args, "si_a_meters")
    if si_a is not None:
        report["si_annotation"] = {
            "a_meters": float(si_a),
            "z_meters": z * float(si_a),
            "note": "lengths scale with a; energies are hbar*c/a",
        }
    return report


def cmd_energy(args) -> int:
    z = _resolve(args, "z")
    if z is None:
        raise InputError("--z is required")
    _emit(args, _json_dump(_energy_report(args, float(z))))
    return EXIT_OK


def cmd_sweep(args) -> int:
    z_min = _resolve(args, "z_min")
    z_max = _resolve(args, "z_max")
    points = int(_resolve(args, "points", 0))
    if z_min is None or z_max is None:
        raise InputError("--z-min and --z-max are required")
    z_min, z_max = float(z_min), float(z_max)
    if points < 2:
        raise InputError("sweep needs at least 2 points")
    if not (0.0 < z_min < z_max):
        raise InputError("need 0 < z-min < z-max")
    spacing = _resolve(args, "spacing", "log")
    if spacing == "log":
        grid = np.geomspace(z_min, z_max, points)
    elif spacing == "linear":
        grid = np.linspace(z_min, z_max, points)
    else:
        raise InputError(f"spacing must be 'log' or 'linear', got {spacing!r}")

    zs = [float(z) for z in grid]
    sp1, sp2 = _species_pair(args)
    config = _pair_configuration(args, zs[0], species=(sp1, sp2))
    eps = config.epsilon
    rows = []
    import warnings as _w
    for z, breakdown in zip(zs, dispersion_sweep(config, zs, **_truncation(args))):
        fs_vdw = u_freespace_vdw(sp1, sp2, z, form="tensor", epsilon=eps)
        with _w.catch_warnings():
            _w.simplefilter("ignore")
            fs_cp = u_freespace_cp(sp1, sp2, z, epsilon=eps)
        rows.append([z, breakdown.total, fs_vdw, fs_cp,
                     _ratio(breakdown.total, fs_vdw), breakdown.tail_estimate])
    _emit(args, _csv(["z_over_a", "U", "U_freespace_vdw", "U_freespace_cp",
                      "ratio", "tail_estimate"], rows))
    return EXIT_OK


def cmd_reproduce(args) -> int:
    fig = args.figure
    if fig == "fig3a":
        lo, hi, n = FIG3A_GRID
        grid = np.geomspace(lo, hi, n)
        rows = [[z, ratio_to_freespace(z, FIG3A_LAMBDA, 1.0, "vdw-reference")]
                for z in grid]
        pre = [f"# figure fig3a: in-guide to free-space (quasistatic reference)"
               f" ratio; lambda_over_a={_fmt(FIG3A_LAMBDA)}",
               f"# grid: geometric, {n} points, z_over_a in [{_fmt(lo)}, {_fmt(hi)}]"]
        _emit(args, _csv(["z_over_a", "ratio"], rows, pre))
    elif fig == "fig3b":
        lo, hi, n = FIG3B_GRID
        grid = np.geomspace(lo, hi, n)
        rows = [[z, ratio_to_freespace(z, FIG3B_LAMBDA, 1.0, "cp-reference")]
                for z in grid]
        pre = [f"# figure fig3b: in-guide to free-space (retarded reference)"
               f" ratio; lambda_over_a={_fmt(FIG3B_LAMBDA)}",
               f"# grid: geometric, {n} points, z_over_a in [{_fmt(lo)}, {_fmt(hi)}]"]
        _emit(args, _csv(["z_over_a", "ratio"], rows, pre))
    elif fig == "fig4":
        lo, hi, n = FIG4_GRID
        grid = np.geomspace(lo, hi, n)
        rows = []
        for z in grid:
            direct = reduced_zz_sum_direct(SumSpec(z_over_a=float(z), tol=1e-10))
            approx = reduced_zz_sum_integral(float(z))
            rows.append([z, direct, approx])
        pre = ["# figure fig4: direct axial-axial mode sum vs continuum"
               " approximation",
               f"# grid: geometric, {n} points, z_over_a in [{_fmt(lo)}, {_fmt(hi)}]"]
        _emit(args, _csv(["z_over_a", "direct_sum", "integral_approx"], rows, pre))
    else:
        raise InputError(f"unknown figure {fig!r}; pick fig3a, fig3b or fig4")
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    from .oracle_checks import run_oracle_checks

    seed = int(_resolve(args, "seed", 12345))
    convention = _resolve(args, "convention", "oracle-consistent")
    cases = int(_resolve(args, "cases", 20) or 20)
    report, ok = run_oracle_checks(seed=seed, convention=convention,
                                   cases=cases)
    _emit(args, report)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wgdisp",
        description="Dispersion energy of dipole pairs in a rectangular "
                    "hollow metallic waveguide (natural units).")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value config file")
    common.add_argument("--out", help="write output to this path instead of stdout")
    common.add_argument("--format", choices=("csv", "json"))
    common.add_argument("--convention",
                        choices=("oracle-consistent", "paper-literal"))
    common.add_argument("--seed", type=int)

    geo = argparse.ArgumentParser(add_help=False)
    geo.add_argument("--a", type=float)
    geo.add_argument("--b", type=float)

    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--x1", type=float)
    pair.add_argument("--y1", type=float)
    pair.add_argument("--x2", type=float)
    pair.add_argument("--y2", type=float)
    pair.add_argument("--species1")
    pair.add_argument("--species2")
    pair.add_argument("--orientation",
                      choices=("fixed-vector", "isotropic-average"))
    pair.add_argument("--epsilon", type=float)
    pair.add_argument("--tail-tol", dest="tail_tol", type=float)
    pair.add_argument("--max-cutoff", dest="max_cutoff", type=float)
    pair.add_argument("--si-a-meters", dest="si_a_meters", type=float)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("modes", parents=[common, geo],
                       help="cutoff table of guided modes")
    p.add_argument("--max-cutoff", dest="max_cutoff", type=float)
    p.set_defaults(func=cmd_modes)

    p = sub.add_parser("coupling", parents=[common, geo],
                       help="single per-mode coupling value")
    p.add_argument("--pol", choices=("TE", "TM"), required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--orient", required=True)
    p.add_argument("--x1", type=float)
    p.add_argument("--y1", type=float)
    p.add_argument("--x2", type=float)
    p.add_argument("--y2", type=float)
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--energy", type=float)
    p.add_argument("--check-quadrature", action="store_true")
    p.add_argument("--scheme", choices=("branch-cut-rotated",
                                        "real-axis-subtracted"),
                   default="branch-cut-rotated")
    p.set_defaults(func=cmd_coupling)

    p = sub.add_parser("energy", parents=[common, geo, pair],
                       help="single-point dispersion energy report")
    p.add_argument("--z", type=float)
    p.add_argument("--top-modes", dest="top_modes", type=int)
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("sweep", parents=[common, geo, pair],
                       help="CSV sweep of the energy over a z range")
    p.add_argument("--z-min", dest="z_min", type=float)
    p.add_argument("--z-max", dest="z_max", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--spacing", choices=("log", "linear"))
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("reproduce", parents=[common],
                       help="figure-data reproduction (CSV)")
    p.add_argument("figure", choices=("fig3a", "fig3b", "fig4"))
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("oracle-check", parents=[common],
                       help="cross-validation suite: closed forms vs oracles")
    p.add_argument("--cases", type=int)
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.config:
            args._config = _load_config(args.config)
        else:
            args._config = {}
        return args.func(args)
    except SpeciesFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_FILE
    except ModeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QuadratureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_FILE


if __name__ == "__main__":
    sys.exit(main())
