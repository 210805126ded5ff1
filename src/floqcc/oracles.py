"""Independent reference computations: the analytic sideband-cooling
occupation and the secular Markov benchmark for the bare driven qubit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bath import SpectralDensity
from .floquet import build_quasienergy_operator, decompose_operator, solve_floquet
from .generator import BathChannel, secular_rate_solution
from .model import SIGMA_X, SIGMA_Z, PeriodicOperator


class CoolingError(ValueError):
    """No steady cooling: the heating rate matches or exceeds the cooling rate."""


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
        harmonics=np.stack([g / 2.0 * SIGMA_X, omega0 / 2.0 * SIGMA_Z, g / 2.0 * SIGMA_X]),
        omega_L=omega_L,
    )
    q = build_quasienergy_operator(h, omega_L, 16)
    fs = solve_floquet(q, np.array([1.0, -1.0]))  # Q = sigma_z
    s = SIGMA_X / math.sqrt(2.0 * omega0)
    amp = decompose_operator(s, fs)
    channels = [
        BathChannel(name="cold", coupling=s, density=j_cold, beta=beta_c),
        BathChannel(name="hot", coupling=s, density=j_hot, beta=beta_h),
    ]
    _, currents = secular_rate_solution(fs, channels, [amp, amp])
    qbar_c = currents["cold"]
    qbar_h = currents["hot"]
    return qbar_c, qbar_h, -qbar_c - qbar_h
