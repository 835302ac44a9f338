"""Dispersion (van der Waals / Casimir-Polder) interactions between two
ground-state dipoles inside a rectangular perfectly-conducting hollow
waveguide, in the tight-confinement regime where every mode cutoff lies
above the dipole transition frequencies.

Natural units: hbar = c = 1, permittivity as a parameter, lengths in
units of the guide width a.
"""

from .bessel import bessel_k0
from .conventions import Conventions
from .errors import (InputError, ModeCapError, QuadratureError,
                     SpeciesFileError, TightConfinementWarning,
                     ValidityDomainWarning, WgdispError)
from .waveguide import (Geometry, ModeIndex, TransversePoint,
                        cutoff_wavenumber, enumerate_modes)
from .energy import (DipoleSpecies, DipoleTransition, EnergyBreakdown,
                     FTensorResult, PairConfiguration, dispersion_energy,
                     dispersion_sweep, f_tensor, polarizability, ratio_to_freespace,
                     u_freespace_cp, u_freespace_vdw, u_retarded_closed)
from .species_io import parse_species_file

__version__ = "0.1.0"

__all__ = [
    "Conventions", "Geometry", "ModeIndex", "TransversePoint",
    "DipoleSpecies", "DipoleTransition", "PairConfiguration",
    "EnergyBreakdown", "FTensorResult", "bessel_k0",
    "cutoff_wavenumber", "enumerate_modes",
    "f_tensor", "dispersion_energy", "dispersion_sweep", "polarizability",
    "u_retarded_closed", "u_freespace_vdw", "u_freespace_cp",
    "ratio_to_freespace",
    "parse_species_file",
    "WgdispError", "InputError", "SpeciesFileError", "ModeCapError",
    "QuadratureError",
    "TightConfinementWarning", "ValidityDomainWarning",
    "__version__",
]
