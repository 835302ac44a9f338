"""Dispersion (van der Waals / Casimir-Polder) interactions between two
ground-state dipoles inside a rectangular perfectly-conducting hollow
waveguide, in the tight-confinement regime where every mode cutoff lies
above the dipole transition frequencies.

Natural units: hbar = c = 1, permittivity as a parameter, lengths in
units of the guide width a.
"""

from .bessel import bessel_k0, k0_small_argument
from .conventions import Conventions
from .errors import (ConvergenceError, InputError, ModeCapError,
                     QuadratureError, SpeciesFileError,
                     TightConfinementWarning, ValidityDomainWarning,
                     WgdispError)
from .waveguide import (Geometry, ModeIndex, TransversePoint,
                        cutoff_wavenumber, enumerate_modes, mode_frequency,
                        normalization_integral, transverse_profile)
from .coupling import (CouplingValue, QuadratureSpec, f_quadrature,
                       f_te_closed, f_tm_closed)
from .energy import (DipoleSpecies, DipoleTransition, EnergyBreakdown,
                     FTensorResult, PairConfiguration, dispersion_energy,
                     dispersion_sweep, f_tensor, polarizability, ratio_to_freespace,
                     u_freespace_cp, u_freespace_vdw,
                     u_near_field_assembled, u_retarded_closed,
                     u_retarded_polarizability_form)
from .asymptotics import (SumSpec, TeNearFieldReport, near_field_components,
                          reduced_zz_sum_direct, reduced_zz_sum_integral,
                          te_near_field_report)
from .fourth_order import (Diagram, enumerate_diagrams, fourth_order_oracle,
                           weighted_reference_energy)
from .species_io import parse_species_file

__version__ = "0.1.0"

__all__ = [
    "Conventions", "Geometry", "ModeIndex", "TransversePoint",
    "DipoleSpecies", "DipoleTransition", "PairConfiguration",
    "EnergyBreakdown", "FTensorResult", "CouplingValue", "QuadratureSpec",
    "SumSpec", "TeNearFieldReport", "Diagram",
    "bessel_k0", "k0_small_argument",
    "cutoff_wavenumber", "mode_frequency", "transverse_profile",
    "normalization_integral", "enumerate_modes",
    "f_tm_closed", "f_te_closed", "f_quadrature",
    "f_tensor", "dispersion_energy", "dispersion_sweep", "polarizability",
    "u_retarded_closed", "u_retarded_polarizability_form",
    "u_freespace_vdw", "u_freespace_cp", "u_near_field_assembled",
    "ratio_to_freespace",
    "reduced_zz_sum_direct", "reduced_zz_sum_integral",
    "near_field_components", "te_near_field_report",
    "enumerate_diagrams", "fourth_order_oracle", "weighted_reference_energy",
    "parse_species_file",
    "WgdispError", "InputError", "SpeciesFileError", "ModeCapError",
    "QuadratureError", "ConvergenceError",
    "TightConfinementWarning", "ValidityDomainWarning",
    "__version__",
]
