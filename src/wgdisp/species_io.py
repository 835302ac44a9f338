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


def _lines(path: str | Path, kind: str):
    """The numbered lines of the ``kind`` file ``path``, stripped, that are
    neither blank nor '#' comments; an unreadable file is refused at line 0."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SpeciesFileError(f"cannot read {kind} file: {exc}", str(path), 0)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if (line := raw.strip()) and not line.startswith("#"):
            yield lineno, line


def parse_species_file(path: str | Path,
                       orientation: str = "isotropic-average") -> DipoleSpecies:
    path, transitions = Path(path), []
    for lineno, line in _lines(path, "species"):
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

