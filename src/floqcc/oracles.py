"""Independent reference computations: the analytic sideband-cooling
occupation, the secular Markov benchmark for the bare driven qubit, and
adaptive time-domain propagation used as a cross-check engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from .bath import SpectralDensity
from .floquet import build_quasienergy_operator, decompose_operator, solve_floquet
from .generator import BathChannel, secular_rate_solution
from .model import SIGMA_X, SIGMA_Z, PeriodicOperator


class CoolingError(ValueError):
    """No steady cooling: the heating rate matches or exceeds the cooling rate."""


class PropagationError(RuntimeError):
    """Adaptive integration failed or violated its conservation check."""


@dataclass(frozen=True)
class SidebandParams:
    """Two-level system of linewidth ``gamma_decay`` driven at detuning
    ``delta`` = drive frequency minus splitting, coupled to an oscillator of
    frequency ``nu``."""

    delta: float
    gamma_decay: float
    nu: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gamma_decay) and self.gamma_decay > 0):
            raise ValueError(f"gamma_decay must be > 0, got {self.gamma_decay}")
        if not (math.isfinite(self.nu) and self.nu > 0):
            raise ValueError(f"nu must be > 0, got {self.nu}")


def _lorentzian(delta: float, gamma: float) -> float:
    half = 0.5 * gamma
    return half**2 / (half**2 + delta**2)


def sideband_cooling_occupation(p: SidebandParams) -> float:
    """Steady oscillator occupation A_heat / (A_cool - A_heat) with the
    heating rate sampled at delta - nu and the cooling rate at delta + nu.

    This orientation puts the cooling minimum at delta = -nu (red sideband);
    at exactly delta = -nu it reduces to gamma_decay^2 / (16 nu^2).
    """
    a_heat = p.gamma_decay * _lorentzian(p.delta - p.nu, p.gamma_decay)
    a_cool = p.gamma_decay * _lorentzian(p.delta + p.nu, p.gamma_decay)
    if a_cool <= a_heat:
        raise CoolingError(
            f"no steady cooling at delta={p.delta}: cooling rate {a_cool:.3e} "
            f"<= heating rate {a_heat:.3e}"
        )
    return a_heat / (a_cool - a_heat)


def propagate(
    rhs_matrix: Callable[[float], np.ndarray] | PeriodicOperator,
    state0: np.ndarray,
    t_span: tuple[float, float],
    kind: str = "schrodinger",
    rtol: float = 1e-10,
    atol: float = 1e-12,
    t_eval: np.ndarray | None = None,
    conservation_tol: float | None = 1e-10,
):
    """Adaptive high-order integration of a (super)operator-valued ODE.

    kind = "schrodinger": d psi/dt = -i H(t) psi for a state vector, or the
    same equation column-wise when ``state0`` is a matrix (propagator).
    kind = "liouville": d vec(rho)/dt = L(t) vec(rho).

    ``rhs_matrix`` maps t to the matrix (H(t) or L(t)); a PeriodicOperator is
    accepted directly.  Trace/norm conservation over the integration is
    checked when ``conservation_tol`` is set (norm for pure states, trace for
    vectorized density matrices).
    """
    if isinstance(rhs_matrix, PeriodicOperator):
        op = rhs_matrix
        matrix_of_t = op.at_time
    else:
        matrix_of_t = rhs_matrix

    if kind == "schrodinger":
        factor = -1j
    elif kind == "liouville":
        factor = 1.0
    else:
        raise ValueError(f"unknown kind {kind!r}")

    shape = state0.shape
    y0 = np.asarray(state0, dtype=complex).reshape(-1)
    n = shape[0]

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        m = matrix_of_t(t)
        if len(shape) == 1:
            return factor * (m @ y)
        return (factor * (m @ y.reshape(shape))).reshape(-1)

    sol = solve_ivp(
        rhs,
        t_span,
        y0,
        method="DOP853",
        rtol=rtol,
        atol=atol,
        t_eval=t_eval,
        dense_output=False,
    )
    if not sol.success:
        raise PropagationError(f"integration failed: {sol.message}")
    states = [sol.y[:, i].reshape(shape) for i in range(sol.y.shape[1])]

    if conservation_tol is not None:
        if kind == "schrodinger" and len(shape) == 1:
            drift = max(abs(np.linalg.norm(s) - np.linalg.norm(y0.reshape(shape))) for s in states)
        elif kind == "liouville" and len(shape) == 1:
            d = int(round(math.sqrt(n)))
            tr0 = np.trace(y0.reshape(d, d).T)
            drift = max(abs(np.trace(s.reshape(d, d).T) - tr0) for s in states)
        else:
            drift = 0.0
        if drift > conservation_tol:
            raise PropagationError(
                f"conservation drift {drift:.3e} above {conservation_tol:.1e}"
            )
    return sol.t, states


def one_period_propagator(
    h: PeriodicOperator, rtol: float = 1e-12, atol: float = 1e-14
) -> np.ndarray:
    """U(T) for a periodic Hamiltonian by direct integration."""
    d = h.dim
    t_final = 2.0 * math.pi / h.omega_L
    _, states = propagate(
        h,
        np.eye(d, dtype=complex),
        (0.0, t_final),
        kind="schrodinger",
        rtol=rtol,
        atol=atol,
        t_eval=np.array([t_final]),
        conservation_tol=None,
    )
    return states[-1]


def bare_qubit_secular_steady(
    omega0: float,
    g: float,
    omega_L: float,
    j_cold: SpectralDensity,
    j_hot: SpectralDensity,
    beta_c: float,
    beta_h: float,
) -> tuple[float, float, float]:
    """Period-averaged (qbar_c, qbar_h, wbar) for the driven two-level system
    directly and statically coupled to both original reservoirs, treated with
    the standard Born-Markov-secular Floquet theory.

    Both couplings are sigma_x / sqrt(2 omega0); the structured cold density
    is evaluated at the bare Floquet transition frequencies (no mode is split
    off), from Floquet modes on a k_ext = 16 ladder.  This is the benchmark
    the collective-coordinate pipeline is compared against.
    """
    h = PeriodicOperator(
        harmonics={
            0: omega0 / 2.0 * SIGMA_Z,
            1: g / 2.0 * SIGMA_X,
            -1: g / 2.0 * SIGMA_X,
        },
        omega_L=omega_L,
    )
    q = build_quasienergy_operator(h, omega_L, 16)
    fs = solve_floquet(q)
    s = SIGMA_X / math.sqrt(2.0 * omega0)
    jd = decompose_operator(s, fs)
    channels = [
        BathChannel(name="cold", coupling=s, density=j_cold, beta=beta_c),
        BathChannel(name="hot", coupling=s, density=j_hot, beta=beta_h),
    ]
    _, currents = secular_rate_solution(fs, channels, [jd, jd])
    qbar_c = currents["cold"]
    qbar_h = currents["hot"]
    return qbar_c, qbar_h, -qbar_c - qbar_h
