"""Toolkit for 1D discrete-time quantum walks with composite SU(2) coins.

Exact position-space simulation, momentum-space dispersion analysis,
long-time asymptotics, and a parameter-space gap survey, all reconciled
against each other by the test suite.
"""

from .coins import (
    CoinRotation,
    CoinSpec,
    compose,
    preset_coin,
)
from .momentum import (
    DispersionBand,
    dispersion_band,
)
from .walk import (
    InitialCondition,
    MomentSeries,
    WalkerState,
    moment_series,
)
from .asymptotics import (
    AsymptoticMoments,
    VelocityDensity,
    moment_integrals,
    weak_limit_density,
)
from .gapscan import (
    GapClosure,
    GapMap,
    assert_no_boundary,
    enumerate_closures,
    min_gap,
    scan_gap_map,
)

__version__ = "0.1.0"
