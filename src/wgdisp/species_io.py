"""Plain-text dipole species files.

One transition per line, natural units:

    E=<energy> d=(<dx>,<dy>,<dz>)

Blank lines and lines starting with '#' are ignored.
"""

from __future__ import annotations

import re
from pathlib import Path

from .energy import DipoleSpecies, DipoleTransition
from .errors import InputError, SpeciesFileError

_LINE_RE = re.compile(
    r"^E\s*=\s*(?P<e>[^\s]+)\s+d\s*=\s*\(\s*(?P<dx>[^,\s]+)\s*,"
    r"\s*(?P<dy>[^,\s]+)\s*,\s*(?P<dz>[^,)\s]+)\s*\)\s*$")


def parse_species_file(path: str | Path,
                       orientation: str = "isotropic-average") -> DipoleSpecies:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SpeciesFileError(f"cannot read species file: {exc}", str(path), 0)
    transitions = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _LINE_RE.match(line)
        if match is None:
            raise SpeciesFileError(
                f"expected 'E=<value> d=(<dx>,<dy>,<dz>)', got {line!r}",
                str(path), lineno)
        try:
            energy = float(match["e"])
            d = (float(match["dx"]), float(match["dy"]), float(match["dz"]))
        except ValueError as exc:
            raise SpeciesFileError(f"non-numeric field: {exc}", str(path), lineno)
        try:
            transitions.append(DipoleTransition(energy, d))
        except InputError as exc:
            raise SpeciesFileError(str(exc), str(path), lineno)
    if not transitions:
        raise SpeciesFileError("species file contains no transitions",
                               str(path), 0)
    return DipoleSpecies(tuple(transitions), orientation)

