"""Electron interference and SQUID observables under nonclassical microwaves.

Closed-form observables (states, interference, twomode, squid) are built on
Weyl characteristic functions; fockbench provides an independent truncated
Fock-space matrix oracle that every closed form is verified against.
"""

__version__ = "0.1.0"

from .exceptions import IncommensurateError, TruncationError
from .harmonics import HarmonicSeries
from .states import (
    ChargeCoupling,
    CoherentState,
    ModeParams,
    NumberState,
    SqueezedState,
    ThermalState,
    TwoModeFactorizable,
    TwoModeProductSuperposition,
    TwoModeSeparableMixture,
    emf_stats,
    flux_stats,
    match_mean_photons,
    mean_photons,
    photon_counting,
    weyl,
)

__all__ = [
    "__version__",
    "ChargeCoupling",
    "CoherentState",
    "HarmonicSeries",
    "IncommensurateError",
    "ModeParams",
    "NumberState",
    "SqueezedState",
    "ThermalState",
    "TruncationError",
    "TwoModeFactorizable",
    "TwoModeProductSuperposition",
    "TwoModeSeparableMixture",
    "emf_stats",
    "flux_stats",
    "match_mean_photons",
    "mean_photons",
    "photon_counting",
    "weyl",
]
