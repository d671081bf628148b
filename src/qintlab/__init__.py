"""qintlab: deterministic, Monte Carlo, coin-restricted, and quantum
integration of Holder-class functions on a simulated quantum computer."""

from .amp_est import (
    MeanEstimate,
    RealOracle,
    estimate_mean,
    median_boost,
    phase_estimation_distribution,
)
from .grover import BitOracle, success_probability_analytic
from .holder import (
    FoolingInstance,
    HolderClassSpec,
    HolderFunction,
    fooling_family,
    make_spec,
    test_suite,
    verify_membership,
)
from .integrators import (
    IntegrationResult,
    expectation_randomized_quantum,
    integrate_coin,
    integrate_deterministic,
    integrate_mc,
    integrate_quantum,
)
from .ledger import ResourceLedger
from .qsim import LocalUnitary, QuantumState, basis_state
from .quadrature import PiecewiseInterpolant, interpolate, midpoint_rule, residual
from .ratelab import ConvergenceReport, export, fit_rate, load_report, run_convergence

__all__ = [
    "BitOracle",
    "ConvergenceReport",
    "FoolingInstance",
    "HolderClassSpec",
    "HolderFunction",
    "IntegrationResult",
    "LocalUnitary",
    "MeanEstimate",
    "PiecewiseInterpolant",
    "QuantumState",
    "RealOracle",
    "ResourceLedger",
    "basis_state",
    "estimate_mean",
    "expectation_randomized_quantum",
    "export",
    "fit_rate",
    "fooling_family",
    "integrate_coin",
    "integrate_deterministic",
    "integrate_mc",
    "integrate_quantum",
    "interpolate",
    "load_report",
    "make_spec",
    "median_boost",
    "midpoint_rule",
    "phase_estimation_distribution",
    "residual",
    "run_convergence",
    "success_probability_analytic",
    "test_suite",
    "verify_membership",
]
