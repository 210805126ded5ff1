"""The benchmark's workloads: fixed lists of parameter points.

Each point sits at the centre of a stated window, moved inside it by a
jitter drawn from the workload seed.  The windows are narrow enough that
every seed keeps the same problem sizes (n_fock, k_ext, k_rho), the same
routes and the same outcome per point; the program only ever sees the
resulting configurations.

This module imports nothing from floqcc: the configurations and their
checks are stated apart from the program under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import checks

# laser-cooling mode frequency (criterion-8 settings)
WCC = 5e-3


@dataclass(frozen=True)
class Window:
    centre: float
    half_width: float


@dataclass(frozen=True)
class Workload:
    name: str
    # "omegaL" (drive frequency) or "delta" (detuning in units of WCC)
    variable: str
    windows: tuple[Window, ...]
    # RunConfig field values shared by every point: the physical parameters
    # are stated here, the solver's numerical settings are the program's
    base: dict
    # check of every solved point, and of each round's points together
    check_point: Callable[[dict], list[str]]
    check_round: Callable[[list[dict]], list[str]] = lambda records: []


# the reference figure's parameters (resonance-locked cold peak)
_FIG2_BASE = {
    "mode": "sweep",
    "omega0": 1.0,
    "g": 1e-3,
    "d_c": 1e-3,
    "gamma": 4e-4,
    "d_h": 5e-3,
    "beta_c": 25.0,
    "beta_h": 2.22,
    "resonance_lock": True,
    "convergence": "fast",
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fig2_sweep",
            "omegaL",
            (
                Window(0.615, 0.002),  # k_ext 16
                Window(0.715, 0.002),  # k_ext 12
                Window(0.815, 0.002),  # k_ext 9
                Window(0.895, 0.002),  # last engine (I) decade
                Window(0.920, 0.002),  # refrigerator (IV)
            ),
            _FIG2_BASE,
            checks.check_fig2_point,
            checks.check_regimes_present,
        ),
        Workload(
            "certified_point",
            "omegaL",
            (Window(0.825, 0.002),),
            {**_FIG2_BASE, "convergence": "full"},
            checks.check_certified,
        ),
        Workload(
            "lasercool_curve",
            "delta",
            (Window(-1.00, 0.03), Window(-0.70, 0.03)),
            {
                "mode": "lasercool",
                "omega0": 1.0,
                "g": 2e-4,
                "d_c": 1.13e-4,
                "d_h": 5e-3,
                "omega_res": WCC,
                "beta_h": 1e4,
                "beta_c": 1e4,
                "n_fock": 12,
                "resonance_lock": False,
                "convergence": "off",
            },
            checks.check_lasercool,
        ),
        Workload(
            "hot_mode",
            "omegaL",
            (
                Window(0.9510, 0.0008),  # n_fock 18
                Window(0.9593, 0.0005),  # n_fock 21
                # fails on every seed: the GMRES preconditioner guard refuses
                # n_fock 32, and the LU fallback's fill guard rejects it
                Window(0.9804, 0.0004),
            ),
            _FIG2_BASE,
            checks.check_fig2_point,
        ),
    )
}


def point_values(workload: Workload, seed: int) -> list[float]:
    """The swept value of every point, in window order, for ``seed``."""
    rng = random.Random(f"{workload.name}:{seed}")
    return [w.centre + w.half_width * (2.0 * rng.random() - 1.0) for w in workload.windows]


def point_fields(workload: Workload, value: float) -> dict:
    """RunConfig field values of one point."""
    omega_l = workload.base["omega0"] + value * WCC if workload.variable == "delta" else value
    return dict(workload.base, omegaL=omega_l)
