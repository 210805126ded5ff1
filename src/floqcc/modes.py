"""One frozen record per ``run.mode``, holding what that mode decides.

The configuration check, the pipeline and the command line read its
fields; none of them compares mode names."""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .bath import Ohmic, StructuredPeak
from .oracles import SidebandParams, bare_qubit_secular_steady, sideband_cooling_occupation

if TYPE_CHECKING:
    from .config import RunConfig
    from .thermo import ThermoReport


@dataclass(frozen=True)
class Mode:
    """One ``run.mode``.  ``extra_columns`` follow the fixed CSV columns:
    the keys ``config_extras`` gives from the configuration alone (on every
    row, failed rows included), then those ``state_extras`` gives from the
    config extras and the solved point's report (solved rows only)."""

    help: str  # the subcommand's help text
    # False: the cold reservoir is the undamped mode itself, of frequency
    # bath.cold.omega_res, and a row's gamma and beta_c do not apply
    maps_cold_bath: bool = True
    solves: bool = True
    axes: int = 1  # grid axes: 0 one point, 1 the sweep, 2 sweep2 x sweep
    extra_columns: tuple[str, ...] = ()
    config_extras: Callable[[RunConfig], dict] = lambda cfg: {}
    state_extras: Callable[[dict, ThermoReport], dict] = lambda extras, report: {}


def _sideband_overlay(cfg: RunConfig) -> dict:
    delta = cfg.omegaL - cfg.omega0
    try:
        n_analytic = sideband_cooling_occupation(
            SidebandParams(delta=delta, gamma_decay=cfg.d_h, nu=cfg.omega_res)
        )
    except ValueError:
        n_analytic = math.nan
    return {"delta": delta, "n_analytic": n_analytic}


def _secular_oracle(cfg: RunConfig) -> dict:
    try:
        qc_o, qh_o, _ = bare_qubit_secular_steady(
            cfg.omega0, cfg.g, cfg.omegaL,
            StructuredPeak(d_c=cfg.d_c, gamma=cfg.gamma, omega_res=cfg.peak_frequency),
            Ohmic(d_h=cfg.d_h, omega_ref=cfg.omega0), cfg.beta_c, cfg.beta_h,
        )
    except (ValueError, RuntimeError):
        # no secular reference at this point (e.g. a locked peak at
        # omegaL >= omega0); the row still gets written, with nan oracles
        qc_o = qh_o = math.nan
    return {"qbar_h_oracle": qh_o, "qbar_c_oracle": qc_o}


def _oracle_deviation(extras: dict, report: ThermoReport) -> dict:
    qh_o = extras["qbar_h_oracle"]
    return {"rel_dev_qh": abs(report.qbar_h - qh_o) / max(abs(qh_o), 1e-300)}


MODES = {
    "steady": Mode("solve a single parameter point", axes=0),
    "sweep": Mode("1-D parameter sweep"),
    "phase": Mode("2-D (sweep2 x sweep) grid", axes=2),
    "lasercool": Mode(
        "single-reservoir detuning sweep with analytic overlay",
        maps_cold_bath=False,
        extra_columns=("delta", "n_analytic"),
        config_extras=_sideband_overlay,
    ),
    "benchmark": Mode(
        "compare against the secular bare-qubit treatment",
        extra_columns=("qbar_h_oracle", "qbar_c_oracle", "rel_dev_qh"),
        config_extras=_secular_oracle,
        state_extras=_oracle_deviation,
    ),
    "map": Mode(
        "report the collective-coordinate mapping of the cold bath", solves=False, axes=0
    ),
}
