"""Reservoir spectral densities, the collective-coordinate mapping, and
thermal occupation functions.

Units: hbar = k_B = 1 throughout; frequencies and energies are expressed in
units of the qubit splitting (so spectral densities carry units of energy^2).
A structured (Brownian-peak) density can be mapped exactly onto a single
collective mode damped by an Ohmic residual bath; both the closed-form and
the quadrature route to the mapped parameters are provided.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np


class MappingError(ValueError):
    """Raised when the analytic collective-coordinate mapping is invalid."""


class QuadratureError(RuntimeError):
    """Raised when the mapping integrals fail to converge."""


@dataclass(frozen=True)
class StructuredPeak:
    """Brownian-oscillator spectral density peaked at ``omega_res``.

    J(w) = d_c^2 * gamma * w / ((w^2 - omega_res^2)^2 + gamma^2 w^2)

    ``d_c`` sets the overall coupling strength, ``gamma`` the peak width
    (smaller gamma = more structured), ``omega_res`` the peak position.
    """

    d_c: float
    gamma: float
    omega_res: float

    def __post_init__(self) -> None:
        for name in ("d_c", "gamma", "omega_res"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"StructuredPeak.{name} must be finite and > 0, got {v}")

    def evaluate(self, omega):
        """J(omega) for omega >= 0, a float or an array of them."""
        if np.any(np.less(omega, 0)):
            raise ValueError(f"spectral density defined for omega >= 0, got {omega}")
        num = self.d_c**2 * self.gamma * omega
        den = (omega**2 - self.omega_res**2) ** 2 + (self.gamma * omega) ** 2
        return num / den

    def slope_at_zero(self) -> float:
        """dJ/dw at w = 0, the finite limit entering degenerate (w = 0) rates."""
        return self.d_c**2 * self.gamma / self.omega_res**4


@dataclass(frozen=True)
class Ohmic:
    """Linear spectral density J(w) = d_h * w / omega_ref."""

    d_h: float
    omega_ref: float

    def __post_init__(self) -> None:
        for name in ("d_h", "omega_ref"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"Ohmic.{name} must be finite and > 0, got {v}")

    @classmethod
    def from_slope(cls, slope: float) -> "Ohmic":
        """Ohmic density with J(w) = slope * w (reference frequency 1)."""
        return cls(d_h=slope, omega_ref=1.0)

    def evaluate(self, omega):
        if np.any(np.less(omega, 0)):
            raise ValueError(f"spectral density defined for omega >= 0, got {omega}")
        return self.d_h * omega / self.omega_ref

    def slope_at_zero(self) -> float:
        return self.d_h / self.omega_ref


SpectralDensity = StructuredPeak | Ohmic


@dataclass(frozen=True)
class CCMapping:
    """Parameters of the mapped supersystem: one collective mode plus an
    Ohmic residual bath.

    ``lambda0`` couples system and collective coordinate (enters the mapped
    Hamiltonian as lambda0 / sqrt(2 omega_cc)), ``omega_cc`` is the mode
    frequency, ``delta_omega0`` the reorganization frequency.  They satisfy
    omega_cc * delta_omega0 = lambda0.
    """

    lambda0: float
    omega_cc: float
    residual: Ohmic
    delta_omega0: float


def map_collective_coordinate(j: StructuredPeak) -> CCMapping:
    """Closed-form collective-coordinate mapping of a Brownian peak.

    Valid for 4 * omega_res^2 > gamma^2 (underdamped peak); then the residual
    bath is exactly Ohmic with slope gamma, the mode frequency equals the
    peak frequency and the mode coupling equals d_c.
    """
    if not 4.0 * j.omega_res**2 > j.gamma**2:
        raise MappingError(
            "analytic mapping requires 4*omega_res^2 > gamma^2; got "
            f"omega_res={j.omega_res}, gamma={j.gamma}"
        )
    return CCMapping(
        lambda0=j.d_c,
        omega_cc=j.omega_res,
        residual=Ohmic.from_slope(j.gamma),
        delta_omega0=j.d_c / j.omega_res,
    )


def _quad_segments(f, segments, quad_limit: int):
    # imported here: no solve needs quadrature, and scipy.integrate is most of
    # the package's import time
    from scipy.integrate import IntegrationWarning, quad

    total = 0.0
    err = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        for a, b, pts in segments:
            if b <= a:
                continue
            try:
                v, e = quad(
                    f, a, b, points=pts, limit=quad_limit, epsabs=1e-18, epsrel=1e-12
                )
            except IntegrationWarning as exc:
                raise QuadratureError(f"quadrature failed on [{a}, {b}]: {exc}") from exc
            total += v
            err += e
    return total, err


# relative error estimate a mapping integral must meet
MAPPING_REL_TOL = 1e-8


def mapping_integrals_numeric(
    j: SpectralDensity, cutoff: float, quad_limit: int = 200
) -> tuple[float, float, float]:
    """Mapping parameters (lambda0, delta_omega0, omega_cc) by quadrature.

    lambda0^2 = (2/pi) * int_0^cutoff  w J(w) dw
    delta_omega0^2 = (2/pi) * int_0^cutoff  J(w)/w dw
    omega_cc = lambda0 / delta_omega0

    The integrals run over (0, cutoff] with a hard cutoff.  For a structured
    peak the integrand is split around the peak so adaptive quadrature
    resolves narrow resonances; the cutoff should sit far above the spectral
    support (the lambda0 integrand has a 1/w^2 tail).

    Raises QuadratureError if the quadrature does not converge to
    MAPPING_REL_TOL.
    """
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")

    if isinstance(j, StructuredPeak):
        lo = max(0.0, j.omega_res - 30.0 * j.gamma)
        hi = min(cutoff, j.omega_res + 30.0 * j.gamma)
        pts = [j.omega_res] if lo < j.omega_res < hi else None
        segments = [(0.0, lo, None), (lo, hi, pts), (hi, cutoff, None)]
    else:
        segments = [(0.0, cutoff, None)]

    two_over_pi = 2.0 / math.pi
    lam2, err1 = _quad_segments(
        lambda w: two_over_pi * w * j.evaluate(w), segments, quad_limit
    )
    dom2, err2 = _quad_segments(
        lambda w: two_over_pi * j.evaluate(w) / w, segments, quad_limit
    )
    if lam2 <= 0 or dom2 <= 0:
        raise QuadratureError("mapping integrals came out non-positive")
    if err1 > MAPPING_REL_TOL * lam2 or err2 > MAPPING_REL_TOL * dom2:
        raise QuadratureError(
            f"quadrature error estimate too large: {err1:.3e} on lambda0^2 "
            f"({lam2:.6e}), {err2:.3e} on delta_omega0^2 ({dom2:.6e})"
        )
    lambda0 = math.sqrt(lam2)
    delta_omega0 = math.sqrt(dom2)
    return lambda0, delta_omega0, lambda0 / delta_omega0


def bose_occupation(omega, beta: float):
    """Bose-Einstein occupation N(w) = 1/(e^{beta w} - 1), of a float or
    elementwise of an array.

    For w < 0 returns the analytic continuation N(-w) = -(1 + N(w)), which
    together with the odd-extended spectral density gives detailed balance.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    x = beta * np.asarray(omega, dtype=float)
    if np.any(x == 0):
        raise ValueError("occupation diverges at omega = 0; use the limiting rate")
    n = 1.0 / np.expm1(np.clip(x, -700.0, 700.0))
    n = np.where(x > 700.0, 0.0, np.where(x < -700.0, -1.0, n))
    return float(n) if n.ndim == 0 else n
