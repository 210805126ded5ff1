"""Periodically driven open quantum thermal machines beyond the Born-Markov
regime: collective-coordinate mapping, Floquet master equation with counting
fields, and steady-state thermodynamics."""

from .bath import (
    CCMapping,
    MappingError,
    Ohmic,
    QuadratureError,
    StructuredPeak,
    bose_occupation,
    map_collective_coordinate,
    mapping_integrals_numeric,
)
from .floquet import (
    ExtendedOperator,
    FloquetSolution,
    build_quasienergy_operator,
    decompose_operator,
    fold_to_zone,
    solve_floquet,
)
from .generator import (
    BathChannel,
    CountingLiouvillian,
    SteadyStateError,
    build_liouvillian,
    heat_current,
    secular_rate_solution,
    steady_state,
    thermal_rates,
)
from .model import (
    CouplingOperators,
    PeriodicOperator,
    SupersystemSpec,
    build_coupling_operators,
    build_supersystem_fourier,
    cc_hamiltonian,
    fock_truncation_check,
    parity,
)
from .oracles import (
    SidebandParams,
    bare_qubit_secular_steady,
    sideband_cooling_occupation,
)
from .thermo import (
    Regime,
    RegimeError,
    ThermoReport,
    classify_regime,
    effective_cc_temperature,
    entropy_production,
    first_law_work,
    occupation_statistics,
)
from .config import ConfigError, RunConfig, apply_overrides, parse_config_text
from .pipeline import PointResult, SweepResult, run_point, run_sweep

__version__ = "0.1.0"
