"""Command-line front end.

Subcommands: modes, coupling, energy, sweep, reproduce, oracle-check.
All quantities are dimensionless (natural units, lengths in units of a
unless --a is given).  Exit codes: 0 success, 1 check failure,
2 argument error, 3 input-file error, 4 resource cap.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import sys
import warnings
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from .conventions import Conventions
from .errors import (InputError, ModeCapError, QuadratureError,
                     SpeciesFileError, WgdispError, _require_positive)
from .waveguide import Geometry, ModeIndex, TransversePoint, _sorted_modes
from .coupling import ORIENTATIONS
from .energy import (DipoleSpecies, PairConfiguration, dispersion_energy,
                     dispersion_sweep, ratio_to_freespace)
from .species_io import _lines, parse_species_file

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INPUT_FILE = 3
EXIT_RESOURCE = 4

# Geometric z grid (first, last, points) of each reproduced figure, and the
# lambda/a, free-space reference and its label of the two ratio figures.
FIGURE_GRIDS = {"fig3a": (2.0, 90.0, 25), "fig3b": (10.0, 40.0, 25),
                "fig4": (0.01, 1.0, 25)}
FIG3_RATIOS = {"fig3a": (100.0, "vdw-reference", "quasistatic"),
               "fig3b": (10.0, "cp-reference", "retarded")}

_CSV_BLOCK = 65536  # rows of the modes listing formatted and written at a time

# The largest count of sweep points or oracle cases a run takes.  A sweep
# point holds about 4 KB and an oracle case about 6 KB, each taking 0.1 to
# 0.3 ms, so a run at the cap peaks near 0.3 GB within about 15 s.
_COUNT_CAP = 50_000


class _CountCapError(WgdispError):
    """A count past _COUNT_CAP: a resource cap, refused as the mode cap is."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _config_flags(path: str, argv, options) -> list[str]:
    """The lines of a flat config file as flags of the command line ``argv``.

    Each ``key = value`` line is the flag ``--key=value``, parsed once with
    ``argv``, so a file's value meets the flag's type and choices.  A key
    must name a flag among ``options``, the parsed command line's names;
    every refusal names its line.
    """
    flags = []
    for lineno, line in _lines(path, "config"):
        where = f"{path}:{lineno}: "
        key, equals, value = line.partition("=")
        if not equals:
            raise InputError(f"{where}expected 'key = value'")
        key = key.strip().replace("-", "_")
        flag = f"--{key.replace('_', '-')}={value.strip()}"
        try:
            # A file names no other file, and a subcommand or positional
            # argument is no flag: parse_known_args leaves it unknown.
            if key not in options or key == "config" or \
                    _parser().parse_known_args([*argv, flag])[1]:
                raise InputError(f"config key {key!r} is not an option of {argv[0]}")
        except InputError as exc:
            raise InputError(f"{where}{exc}") from None
        flags.append(flag)
    return flags


def _count(args, key: str) -> int:
    """The count ``key``, refused past _COUNT_CAP before anything is
    allocated for it."""
    count = getattr(args, key)
    if count > _COUNT_CAP:
        raise _CountCapError(f"{args.command} needs {count} {key}, exceeding the hard cap "
                             f"of {_COUNT_CAP}; use fewer {key}")
    return count


def _check_out(args) -> None:
    """Refuse, before the run and creating nothing, an --out path that is a
    directory or lies in no directory, with the error writing it would give."""
    out = args.out
    try:
        if out and Path(out).is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if out and not Path(out).parent.is_dir():
            os.listdir(Path(out).parent)  # the parent's error: missing or not a directory
    except OSError as exc:
        raise InputError(f"cannot write the output file: {OSError(exc.errno, exc.strerror, out)}")


def _emit(args, text: str | Iterable[str]) -> None:
    """Write ``text``, one string or strings written in turn, to --out or stdout."""
    blocks = [text] if isinstance(text, str) else text
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as out:
                out.writelines(blocks)
        except OSError as exc:  # no permission, a full disk
            raise InputError(f"cannot write the output file: {exc}")
    else:
        sys.stdout.writelines(blocks)


def _json_dump(obj) -> str:
    """The one JSON form of every report: ``json.dumps(obj, indent=2)`` and a newline."""
    return json.dumps(obj, indent=2) + "\n"


def _csv(header: list[str], rows: list[list[float]],
         preamble: list[str] | None = None) -> str:
    lines = list(preamble or [])
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _species_pair(args) -> tuple[DipoleSpecies, DipoleSpecies]:
    if not args.species1:
        raise InputError("a species file is required (--species1)")
    sp1 = parse_species_file(args.species1, args.orientation)
    sp2 = parse_species_file(args.species2, args.orientation) if args.species2 else sp1
    return sp1, sp2


def _points(args, geom: Geometry) -> tuple[TransversePoint, TransversePoint]:
    """Dipole points from --x1/--y1/--x2/--y2, each defaulting to the centre."""
    def point(x, y):
        return TransversePoint(0.5 * geom.a if x is None else x, 0.5 * geom.b if y is None else y)
    return point(args.x1, args.y1), point(args.x2, args.y2)


def _pair_configuration(args, z: float) -> PairConfiguration:
    geom = Geometry(args.a, args.b)
    sp1, sp2 = _species_pair(args)
    p1, p2 = _points(args, geom)
    return PairConfiguration(geom, p1, p2, z, sp1, sp2, epsilon=args.epsilon,
                             conventions=Conventions(args.convention))


def _species_json(sp: DipoleSpecies) -> list[dict]:
    return [{"energy": t.energy, "d": list(t.d)} for t in sp.transitions]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_modes(args) -> int:
    geom = Geometry(args.a, args.b)
    if args.max_cutoff is None:
        raise InputError("--max-cutoff is required")
    columns = _sorted_modes(geom, args.max_cutoff)
    _emit(args, (_modes_json if args.format == "json" else _modes_csv)(columns))
    return EXIT_OK


def _mode_blocks(columns, number) -> Iterator[Iterator[tuple]]:
    """The rows of ``columns`` (TE mask, m, n, k), _CSV_BLOCK at a time, as
    (polarization, m, n, k written by ``number``): so a listing near the mode
    cap is never held whole as text."""
    for start in range(0, columns[0].size, _CSV_BLOCK):
        te, m, n, k = (c[start:start + _CSV_BLOCK].tolist() for c in columns)
        yield zip(("TE" if t else "TM" for t in te), m, n, map(number, k))


def _modes_csv(columns) -> Iterator[str]:
    """The CSV listing of ``columns``, written a block at a time."""
    yield "polarization,m,n,k_mn,omega_cutoff\n"
    for rows in _mode_blocks(columns, _fmt):
        yield "".join(f"{pol},{m},{n},{k},{k}\n" for pol, m, n, k in rows)


def _modes_json(columns) -> Iterator[str]:
    """The JSON listing of ``columns``, one record per mode, written a block at
    a time: byte for byte the :func:`_json_dump` of the list of records."""
    yield "["
    for i, rows in enumerate(_mode_blocks(columns, repr)):  # repr: json's float form
        yield "," * bool(i) + ",".join(
            f'\n  {{\n    "polarization": "{pol}",\n    "m": {m},\n    "n": {n},\n'
            f'    "k_mn": {k},\n    "omega_cutoff": {k}\n  }}' for pol, m, n, k in rows)
    yield "\n]\n" if columns[0].size else "]\n"


def cmd_coupling(args) -> int:
    from .quadrature import f_quadrature, f_te_closed, f_tm_closed

    geom = Geometry(args.a, args.b)
    mode = ModeIndex(args.pol, args.m, args.n)
    orient, z, bundle = args.orient, args.z, args.convention
    p1, p2 = _points(args, geom)
    conv = Conventions(bundle)
    if mode.polarization == "TE" and args.energy is None:
        raise InputError("TE couplings require --energy")
    closed = (f_tm_closed(geom, mode, orient, p1, p2, z, conv) if mode.polarization == "TM"
              else f_te_closed(geom, mode, orient, p1, p2, z, args.energy, conv))
    if args.energy is not None:  # echoed even if unused
        _require_positive("transition energy", args.energy)
    payload = {
        "inputs": {"mode": mode.label(), "orientation": orient,
                   "p1": [p1.x, p1.y], "p2": [p2.x, p2.y], "z": z,
                   "energy": args.energy, "convention": bundle},
        "closed_form": closed,
    }
    if args.check_quadrature:
        quad = f_quadrature(geom, mode, orient, p1, p2, z, energy=args.energy,
                            scheme=args.scheme, conventions=conv)
        payload["quadrature"] = quad
        # RFC 8259 has no Infinity: an infinite relative difference is written as null.
        rel = abs(closed - quad) / abs(quad) if quad else math.inf if closed else 0.0
        payload["rel_difference"] = None if rel == math.inf else rel
    if bad := [v for v in (closed, payload.get("quadrature", 0.0)) if not math.isfinite(v)]:
        raise InputError(f"the {mode.label()} coupling is not finite: {bad[0]!r}, its terms "
                         f"pass the largest double")
    _emit(args, _json_dump(payload))
    return EXIT_OK


def _truncation(args) -> dict:
    """Truncation keyword: --max-cutoff if given, else --tail-tol."""
    if args.max_cutoff is not None:
        return {"max_cutoff": args.max_cutoff}
    return {"tail_tol": args.tail_tol}


def _ratio(u: float, reference: float) -> float:
    # Adding 0.0 prints a zero energy's ratio as 0.0, not -0.0.
    return u / reference + 0.0 if reference else math.nan


def cmd_energy(args) -> int:
    if (z := args.z) is None:
        raise InputError("--z is required")
    if (top_n := args.top_modes) < 0:
        raise InputError(f"top_modes must be non-negative, got {top_n}")
    if (si_a := args.si_a_meters) is not None:
        _require_positive("si_a_meters", si_a)
    config = _pair_configuration(args, z)
    kwargs = _truncation(args)
    breakdown = dispersion_energy(config, **kwargs)

    sp1, sp2 = config.species1, config.species2
    lowest_e = min(t.energy for t in sp1.transitions)
    top_modes = [{"mode": mode.label(), "max_abs_f": peak, "f": f.tolist()}
                 for mode, peak, f in breakdown.f_by_level[lowest_e].top_modes(top_n)]
    # RFC 8259 has no NaN: the ratio to a reference that underflowed to 0
    # is written as null.
    ratio = _ratio(breakdown.total, breakdown.freespace_vdw)

    report = {
        "inputs": {
            "a": config.geom.a, "b": config.geom.b,
            "p1": [config.p1.x, config.p1.y], "p2": [config.p2.x, config.p2.y],
            "z": z, "epsilon": config.epsilon,
            "species1": _species_json(sp1), "species2": _species_json(sp2),
            "orientation": sp1.orientation,
            "conventions": config.conventions.choices,
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
        "freespace_vdw_tensor": breakdown.freespace_vdw,
        "freespace_cp": breakdown.freespace_cp,
        "ratio_to_freespace_vdw": None if math.isnan(ratio) else ratio,
        "warnings": breakdown.warnings,
    }
    if si_a is not None:
        report["si_annotation"] = {
            "a_meters": si_a,
            "z_meters": z * si_a,
            "note": "lengths scale with a; energies are hbar*c/a",
        }
    _emit(args, _json_dump(report))
    return EXIT_OK


def cmd_sweep(args) -> int:
    z_min, z_max = args.z_min, args.z_max
    points = _count(args, "points")
    if z_min is None or z_max is None:
        raise InputError("--z-min and --z-max are required")
    if points < 2:
        raise InputError("sweep needs at least 2 points")
    _require_positive("z-min", z_min)
    _require_positive("z-max", z_max)
    if not z_min < z_max:
        raise InputError("need 0 < z-min < z-max")
    space = np.geomspace if args.spacing == "log" else np.linspace
    zs = [float(z) for z in space(z_min, z_max, points)]
    config = _pair_configuration(args, zs[0])
    breakdowns = dispersion_sweep(config, zs, **_truncation(args))
    # main shows the warnings raised; the notes that only reach the
    # breakdowns (corners, underflow) are written here, each once.
    written = {str(w.message) for w in args._raised}
    for note in (note for u in breakdowns for note in u.warnings):
        if note not in written:
            print(f"warning: {note}", file=sys.stderr)
            written.add(note)
    rows = [[z, u.total, u.freespace_vdw, u.freespace_cp, _ratio(u.total, u.freespace_vdw),
             u.tail_estimate] for z, u in zip(zs, breakdowns)]
    _emit(args, _csv(["z_over_a", "U", "U_freespace_vdw", "U_freespace_cp",
                      "ratio", "tail_estimate"], rows))
    return EXIT_OK


def cmd_reproduce(args) -> int:
    fig = args.figure
    lo, hi, n = FIGURE_GRIDS[fig]
    grid = np.geomspace(lo, hi, n)
    if fig == "fig4":
        from .asymptotics import reduced_zz_sum_direct, reduced_zz_sum_integral

        header = ["z_over_a", "direct_sum", "integral_approx"]
        title = "direct axial-axial mode sum vs continuum approximation"
        rows = [[z, direct, reduced_zz_sum_integral(float(z))]
                for z, direct in zip(grid, reduced_zz_sum_direct(grid).tolist())]
    else:
        lam, reference, label = FIG3_RATIOS[fig]
        header = ["z_over_a", "ratio"]
        title = (f"in-guide to free-space ({label} reference) ratio; "
                 f"lambda_over_a={_fmt(lam)}")
        rows = [[z, ratio_to_freespace(z, lam, 1.0, reference)] for z in grid]
    pre = [f"# figure {fig}: {title}",
           f"# grid: geometric, {n} points, z_over_a in [{_fmt(lo)}, {_fmt(hi)}]"]
    _emit(args, _csv(header, rows, pre))
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    from .oracle_checks import run_oracle_checks

    report, ok = run_oracle_checks(seed=args.seed, convention=args.convention,
                                   cases=_count(args, "cases"))
    _emit(args, report)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """A parser whose refusals are InputErrors, one error: line as any other."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wgdisp",
        description="Dispersion energy of dipole pairs in a rectangular "
                    "hollow metallic waveguide (natural units).")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value config file")
    common.add_argument("--out", help="write output to this path instead of stdout")

    convention = argparse.ArgumentParser(add_help=False)
    convention.add_argument("--convention", choices=("oracle-consistent", "paper-literal"),
                            default="oracle-consistent")

    geo = argparse.ArgumentParser(add_help=False)
    geo.add_argument("--a", type=float, default=1.0)
    geo.add_argument("--b", type=float, default=1.0)

    points = argparse.ArgumentParser(add_help=False)
    for name in ("--x1", "--y1", "--x2", "--y2"):
        points.add_argument(name, type=float)

    pair = argparse.ArgumentParser(add_help=False, parents=[points])
    pair.add_argument("--species1")
    pair.add_argument("--species2")
    pair.add_argument("--orientation", choices=("fixed-vector", "isotropic-average"),
                      default="isotropic-average")
    pair.add_argument("--epsilon", type=float, default=1.0)
    pair.add_argument("--tail-tol", dest="tail_tol", type=float, default=1e-6)
    pair.add_argument("--max-cutoff", dest="max_cutoff", type=float)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("modes", parents=[common, geo],
                       help="cutoff table of guided modes")
    p.add_argument("--max-cutoff", dest="max_cutoff", type=float)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_modes)

    p = sub.add_parser("coupling", parents=[common, convention, geo, points],
                       help="single per-mode coupling value")
    p.add_argument("--pol", choices=("TE", "TM"), required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--orient", choices=ORIENTATIONS, required=True)
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--energy", type=float)
    p.add_argument("--check-quadrature", action="store_true")
    p.add_argument("--scheme", choices=("branch-cut-rotated",
                                        "real-axis-subtracted"),
                   default="branch-cut-rotated")
    p.set_defaults(func=cmd_coupling)

    p = sub.add_parser("energy", parents=[common, convention, geo, pair],
                       help="single-point dispersion energy report")
    p.add_argument("--z", type=float)
    p.add_argument("--top-modes", dest="top_modes", type=int, default=8)
    p.add_argument("--si-a-meters", dest="si_a_meters", type=float)
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("sweep", parents=[common, convention, geo, pair],
                       help="CSV sweep of the energy over a z range")
    p.add_argument("--z-min", dest="z_min", type=float)
    p.add_argument("--z-max", dest="z_max", type=float)
    p.add_argument("--points", type=int, default=0)
    p.add_argument("--spacing", choices=("log", "linear"), default="log")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("reproduce", parents=[common],
                       help="figure-data reproduction (CSV)")
    p.add_argument("figure", choices=("fig3a", "fig3b", "fig4"))
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("oracle-check", parents=[common, convention],
                       help="cross-validation suite: closed forms vs oracles")
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--cases", type=int, default=20)
    p.set_defaults(func=cmd_oracle_check)

    return parser


# One parser per process: building one costs far more than a parse.
_parser = functools.cache(build_parser)

# The exit code of each refusal, that of the first class it is an instance
# of: a species file's error ahead of the InputError it is a kind of, and
# last any other file or stream error, such as a closed stdout.
_EXIT_CODES = {SpeciesFileError: EXIT_INPUT_FILE, ModeCapError: EXIT_RESOURCE,
               _CountCapError: EXIT_RESOURCE, InputError: EXIT_USAGE,
               QuadratureError: EXIT_CHECK_FAILED, OSError: EXIT_INPUT_FILE}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parser().parse_args(argv)
        if args.config:  # the file's flags first, so the command line's win
            args = _parser().parse_args([argv[0], *_config_flags(args.config, argv, vars(args)),
                                         *argv[1:]])
        _check_out(args)
        # Warnings are shown once the run returns: a refused run prints one line.
        with warnings.catch_warnings(record=True) as args._raised:
            code = args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))
    for w in args._raised:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    return code


if __name__ == "__main__":
    sys.exit(main())
