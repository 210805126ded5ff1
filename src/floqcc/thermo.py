"""Steady-state thermodynamics: work closure, entropy production, effective
mode temperature, operating-regime classification and performance ratios,
assembled into one ``ThermoReport`` by ``build_report`` for two reservoirs
and for the single-reservoir (laser-cooling) limit.

Sign conventions: heat currents are positive into the supersystem; work is
fixed by the first law, qbar_c + qbar_h + wbar = 0, and negative wbar means
work is extracted.  Period averages are zero-harmonic extractions, never
time quadrature.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .model import PeriodicOperator, number_operator


class RegimeError(ValueError):
    """Sign pattern of the flows is thermodynamically inconsistent."""


class Regime(enum.Enum):
    I_HeatEngine = "I"
    II_WorkAssistedPump = "II"
    III_Dissipator = "III"
    IV_Refrigerator = "IV"
    Boundary = "boundary"


def first_law_work(qbar_c: float, qbar_h: float) -> float:
    """Work rate from energy balance; negative means work is extracted."""
    return -qbar_c - qbar_h


# how far sigma may fall below zero, and how near zero a flow or the work
# may lie before it counts as a regime boundary
SIGMA_TOL = 1e-10
REGIME_TOL = 1e-12


def entropy_production(qbar_c: float, qbar_h: float, beta_c: float, beta_h: float) -> float:
    """sigma = -beta_h qbar_h - beta_c qbar_c; raises if negative beyond
    SIGMA_TOL."""
    if not (beta_c > beta_h > 0):
        raise ValueError(f"need beta_c > beta_h > 0, got {beta_c}, {beta_h}")
    sigma = -beta_h * qbar_h - beta_c * qbar_c
    if sigma < -SIGMA_TOL:
        raise RegimeError(
            f"entropy production rate {sigma:.3e} < -{SIGMA_TOL:.1e}: inconsistent "
            "steady state upstream"
        )
    return sigma


def effective_cc_temperature(n_mean: float, omega_cc: float) -> float:
    """Inverse temperature whose Bose occupation at omega_cc equals n_mean."""
    if n_mean < 0:
        raise ValueError(f"occupation must be nonnegative, got {n_mean}")
    if n_mean == 0.0:
        return math.inf
    return math.log1p(1.0 / n_mean) / omega_cc


def classify_regime(
    qbar_c: float, qbar_h: float, wbar: float, tol: float = REGIME_TOL
) -> Regime:
    """Operating regime from the signs of the period-averaged flows.

    I:   work extracted (heat engine),      wbar < 0, qbar_h > 0, qbar_c < 0
    II:  work-assisted heat pump,           wbar > 0, qbar_h > 0, qbar_c < 0
    III: dissipator (work heats both baths) wbar > 0, qbar_h < 0, qbar_c < 0
    IV:  refrigerator,                      wbar > 0, qbar_h < 0, qbar_c > 0

    Any discriminant within +-tol gives Boundary; sign patterns outside the
    four regimes (second-law violations) raise RegimeError.
    """
    if wbar < -tol:
        if qbar_c > tol or qbar_h < -tol:
            raise RegimeError(
                "inconsistent flows: work extracted while "
                f"qbar_c={qbar_c:.3e}, qbar_h={qbar_h:.3e}"
            )
        if qbar_h > tol and qbar_c < -tol:
            return Regime.I_HeatEngine
        return Regime.Boundary
    if wbar > tol:
        if qbar_c > tol:
            if qbar_h > tol:
                raise RegimeError(
                    f"inconsistent flows: both heats positive (qbar_c={qbar_c:.3e}, "
                    f"qbar_h={qbar_h:.3e})"
                )
            if qbar_h < -tol:
                return Regime.IV_Refrigerator
            return Regime.Boundary
        if qbar_c < -tol:
            if qbar_h > tol:
                return Regime.II_WorkAssistedPump
            if qbar_h < -tol:
                return Regime.III_Dissipator
        return Regime.Boundary
    return Regime.Boundary


def carnot_efficiency(beta_c: float, beta_h: float) -> float:
    return (beta_c - beta_h) / beta_c


def carnot_cop(beta_c: float, beta_h: float) -> float:
    return beta_h / (beta_c - beta_h)


@dataclass(frozen=True)
class OccupationStatistics:
    n_mean: float
    n_var: float
    thermal_residual: float


def occupation_statistics(rho: PeriodicOperator, n_fock: int) -> OccupationStatistics:
    """Period-averaged mode occupation, its variance, and the relative
    deviation from the thermal law var = n (1 + n)."""
    num = number_operator(n_fock)
    rho0 = rho.average
    n_mean = float(np.trace(num @ rho0).real)
    n2 = float(np.trace(num @ num @ rho0).real)
    n_var = n2 - n_mean**2
    thermal_var = n_mean * (1.0 + n_mean)
    residual = abs(n_var - thermal_var) / max(n_var, thermal_var, 1e-30)
    return OccupationStatistics(n_mean=n_mean, n_var=n_var, thermal_residual=residual)


@dataclass(frozen=True)
class ThermoReport:
    """Period-averaged thermodynamic observables of one steady state; the
    last five fields are None without a cold reservoir."""

    qbar_c: float
    qbar_h: float
    wbar: float
    sigma_bar: float
    beta_cc: float
    n_mean: float
    n_var: float
    thermal_residual: float
    regime: Regime | None = None
    eta: float | None = None
    kappa: float | None = None
    eta_carnot: float | None = None
    kappa_carnot: float | None = None


def build_report(
    qbar_c: float,
    qbar_h: float,
    omega_cc: float,
    beta_c: float,
    beta_h: float,
    occupation: OccupationStatistics,
) -> ThermoReport:
    """Assemble the report of one steady state.

    Two reservoirs: work from the first law, entropy production (raises on
    a second-law violation), the regime, and the efficiency
    eta = -wbar/qbar_h in regime I or the coefficient of performance
    kappa = qbar_c/wbar in regime IV (None in every other regime), with
    their Carnot bounds.

    A nan ``qbar_c`` means no cold reservoir (laser cooling): the drive's
    work leaves through the hot bath, wbar = -qbar_h and
    sigma = -beta_h qbar_h, which must not be negative beyond SIGMA_TOL
    (a driven system can only dump heat into a single bath); ``beta_c`` is
    not read.
    """
    if math.isnan(qbar_c):
        wbar = -qbar_h
        sigma = -beta_h * qbar_h
        if sigma < -SIGMA_TOL:
            raise RegimeError(
                f"entropy production rate {sigma:.3e} < -{SIGMA_TOL:.1e}: heat "
                f"qbar_h={qbar_h:.3e} drawn from the only reservoir"
            )
        ratios = {}
    else:
        wbar = first_law_work(qbar_c, qbar_h)
        sigma = entropy_production(qbar_c, qbar_h, beta_c, beta_h)
        regime = classify_regime(qbar_c, qbar_h, wbar)
        ratios = {
            "regime": regime,
            "eta": -wbar / qbar_h if regime is Regime.I_HeatEngine else None,
            "kappa": qbar_c / wbar if regime is Regime.IV_Refrigerator else None,
            "eta_carnot": carnot_efficiency(beta_c, beta_h),
            "kappa_carnot": carnot_cop(beta_c, beta_h),
        }
    return ThermoReport(
        qbar_c=qbar_c,
        qbar_h=qbar_h,
        wbar=wbar,
        sigma_bar=sigma,
        beta_cc=effective_cc_temperature(occupation.n_mean, omega_cc),
        n_mean=occupation.n_mean,
        n_var=occupation.n_var,
        thermal_residual=occupation.thermal_residual,
        **ratios,
    )
