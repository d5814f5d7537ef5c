"""Biorthogonal spectra, Z2 level indices, and exceptional-point searches for
a transverse-field Ising chain with balanced staggered gain and loss."""

from .numerics import DEFAULT_TOL, AtExceptionalPoint, EigenSystem, eig_general
from .model import (ChainSpec, NormalizedPoint, build_hamiltonian, build_parity,
                    gain_generator, psh_residual)
from .biortho import (BiorthoSpectrum, IndexIllDefined, LevelRecord, ep_indicator,
                      spectrum_with_indices, z2_index)
from .oracle import (FermionMode, OracleState, almost_zero_energy, full_spectrum,
                     pair_relative_parity, solve_modes)
from .epscan import (AXIS_COUPLING, AXIS_GAIN, AccidentallyZeroElement, TriplePairing,
                     CrossingRecord, EPRecord, LevelTrack, NoEP3InBox,
                     NoEPInBracket, SweepGrid, classify_crossings, find_ep3,
                     find_ep3_candidates, locate_ep2_records, predict_gamma_cr,
                     project_two_level, reality_transitions, sweep, triple_pairing,
                     verify_selection_rule)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL", "AtExceptionalPoint", "EigenSystem", "eig_general",
    "ChainSpec", "NormalizedPoint", "build_hamiltonian", "build_parity",
    "gain_generator", "psh_residual",
    "BiorthoSpectrum", "IndexIllDefined", "LevelRecord",
    "ep_indicator", "spectrum_with_indices", "z2_index",
    "FermionMode", "OracleState", "almost_zero_energy", "full_spectrum",
    "pair_relative_parity", "solve_modes",
    "AXIS_COUPLING", "AXIS_GAIN", "AccidentallyZeroElement", "CrossingRecord",
    "EPRecord", "LevelTrack", "NoEP3InBox", "NoEPInBracket",
    "SweepGrid", "TriplePairing", "classify_crossings", "find_ep3",
    "find_ep3_candidates", "locate_ep2_records", "predict_gamma_cr",
    "project_two_level", "reality_transitions", "sweep",
    "triple_pairing", "verify_selection_rule",
]
