"""Toolkit for 1D discrete-time quantum walks with composite SU(2) coins.

Exact position-space simulation, momentum-space dispersion analysis,
long-time asymptotics, and a parameter-space gap survey, all reconciled
against each other by the test suite.
"""

from .coins import (
    CoinRotation,
    CoinSpec,
    check_unitary,
    compose,
    preset_coin,
    random_coin_spec,
    rotation_matrix,
)
from .momentum import (
    DegeneratePointError,
    DispersionBand,
    MomentumPoint,
    NumericalDomainError,
    bloch_vector,
    build_uk,
    dispersion_band,
    effective_hamiltonian,
    eigensystem,
    group_velocity,
    quasi_energy,
)
from .walk import (
    InitialCondition,
    MomentSeries,
    WalkerState,
    distribution,
    evolve,
    moment_series,
    moments,
)
from .asymptotics import (
    AsymptoticMoments,
    VelocityDensity,
    classify_spreading,
    drift_sign,
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
