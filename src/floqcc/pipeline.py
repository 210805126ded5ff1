"""Experiment orchestration: single points, resonance-locked sweeps, phase
grids, laser-cooling curves and the secular benchmark.

Every point maps the bath, builds the model, then runs three stages under
adaptive Fock truncation: Floquet (Sambe solve and k_ext drift gate),
generator (coupling operators, jumps, kernels) and steady (periodic state
and heat flows); failures are ``PointFailure``s tagged with their layer.
Sweep points are independent and can be dispatched to a process pool
(worker count via the FLOQCC_WORKERS environment variable; default serial).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .bath import MappingError, Ohmic, StructuredPeak, map_collective_coordinate
from .config import ConfigError, RunConfig
from .floquet import (
    DegeneracyError,
    FloquetConvergenceError,
    FloquetSolution,
    build_quasienergy_operator,
    decompose_operator,
    solve_floquet,
)
from .generator import (
    BathChannel,
    SteadyStateError,
    SteadyStateInfo,
    build_liouvillian,
    heat_current,
    periodic_average_rate,
    steady_state,
)
from .model import (
    PeriodicOperator,
    SupersystemSpec,
    build_coupling_operators,
    build_supersystem_fourier,
    cc_hamiltonian,
    fock_truncation_check,
)
from .oracles import SidebandParams, bare_qubit_secular_steady, sideband_cooling_occupation
from .thermo import (
    ThermoReport,
    build_report,
    effective_cc_temperature,
    occupation_statistics,
)


class PointFailure(RuntimeError):
    """A pipeline stage failed; carries the stage tag."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass(frozen=True)
class Diagnostics:
    n_fock: int
    k_ext: int
    k_rho: int
    method: str
    fallback: str | None
    residual: float
    sigma_second: float | None
    trunc_top: float
    completeness: float
    cc_flow_avg: float
    min_eigenvalue: float
    gates: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class PointResult:
    config: RunConfig
    omega_cc: float
    report: ThermoReport | None
    diagnostics: Diagnostics | None
    converged: bool
    error: str | None = None
    extras: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.error is None


def _k_ext_auto(cfg: RunConfig, omega_cc: float, n_fock: int) -> int:
    """Ladder size hosting every in-zone representative away from the
    excluded edge blocks."""
    e_max = 0.5 * cfg.omega0 + (n_fock - 1) * omega_cc + 0.5 * cfg.omegaL
    max_shift = math.ceil(e_max / cfg.omegaL)
    need = max_shift + 2
    k = max(8, math.ceil(4.0 * need / 3.0) + 1)
    return k


def _n_fock_estimate(cfg: RunConfig, omega_cc: float, residual: Ohmic | None) -> int:
    """Thermal estimate of the ladder size whose top levels stay below the
    truncation threshold; the adaptive loop still raises it if the drive
    heats the mode beyond this."""
    from .bath import bose_occupation

    # without a cold reservoir the mode thermalizes with the hot bath
    beta = cfg.beta_h if residual is None else cfg.beta_c
    x = beta * omega_cc
    nbar = bose_occupation(omega_cc, beta) if x < 600 else 0.0
    ratio = (nbar + 0.02) / (1.0 + nbar + 0.02)
    need = math.ceil(math.log(max(cfg.trunc_threshold, 1e-12) * 0.01) / math.log(ratio))
    return int(np.clip(need + 2, 2, cfg.n_fock_max))


def _peak_frequency(cfg: RunConfig) -> float:
    """Centre of the cold bath's structured peak: the resonance lock (or an
    unset ``omega_res``) puts it at omega0 - omegaL."""
    if cfg.resonance_lock or cfg.omega_res <= 0:
        return cfg.omega0 - cfg.omegaL
    return cfg.omega_res


def _resolve_mapping(cfg: RunConfig) -> tuple[float, float, Ohmic | None]:
    """(lambda0, omega_cc, residual bath) for the current mode."""
    if cfg.mode == "lasercool":
        return cfg.d_c, cfg.omega_res, None
    omega_res = _peak_frequency(cfg)
    if omega_res <= 0:
        raise PointFailure(
            "bath", f"resonance lock gives omega_res = {omega_res:.6g} <= 0"
        )
    try:
        cc = map_collective_coordinate(
            StructuredPeak(d_c=cfg.d_c, gamma=cfg.gamma, omega_res=omega_res)
        )
    except (MappingError, ValueError) as exc:
        raise PointFailure("bath", str(exc)) from exc
    return cc.lambda0, cc.omega_cc, cc.residual


def _build_spec(cfg: RunConfig, lambda0: float, omega_cc: float, residual, n_fock: int):
    hot = Ohmic(d_h=cfg.d_h, omega_ref=cfg.hot_reference)
    try:
        return SupersystemSpec(
            omega0=cfg.omega0,
            g=cfg.g,
            omega_L=cfg.omegaL,
            omega_cc=omega_cc,
            n_fock=n_fock,
            lambda0=lambda0,
            beta_h=cfg.beta_h,
            beta_c=cfg.beta_c,
            hot_bath=hot,
            residual_bath=residual,
            coupling_form=cfg.coupling_form,
        )
    except ValueError as exc:
        raise PointFailure("model", str(exc)) from exc


@dataclass(frozen=True)
class FloquetStage:
    """Floquet solution of ``h``; ``refined`` is the k_ext + 2 solution the
    drift gate compared it against (None when the gate is off)."""

    h: PeriodicOperator
    fs: FloquetSolution
    completeness: float
    refined: FloquetSolution | None = None


def _checked_floquet(
    h: PeriodicOperator, fs: FloquetSolution, refined: FloquetSolution | None = None
) -> FloquetStage:
    completeness = fs.completeness_defect_t0()
    if completeness > 1e-6:
        raise PointFailure(
            "floquet", f"Floquet completeness defect {completeness:.2e} > 1e-6"
        )
    return FloquetStage(h, fs, completeness, refined)


def _floquet_stage(
    cfg: RunConfig, spec: SupersystemSpec, k_ext: int, drift_gate: bool
) -> FloquetStage:
    """Sambe solve at ``k_ext``; with ``drift_gate``, k_ext is raised in
    steps of 2 until the quasienergies are stable to 1e-8 omega0 under
    k_ext + 2."""
    h = build_supersystem_fourier(spec)

    def solve(k: int) -> FloquetSolution:
        try:
            return solve_floquet(build_quasienergy_operator(h, cfg.omegaL, k))
        except (DegeneracyError, FloquetConvergenceError, ValueError, np.linalg.LinAlgError) as exc:
            raise PointFailure("floquet", str(exc)) from exc

    fs = solve(k_ext)
    if not drift_gate:
        return _checked_floquet(h, fs)
    for _ in range(6):
        fs2 = solve(k_ext + 2)
        drift = float(
            np.max(np.abs(np.sort(fs.quasienergies) - np.sort(fs2.quasienergies)))
        )
        if drift < 1e-8 * cfg.omega0:
            return _checked_floquet(h, fs, fs2)
        fs, k_ext = fs2, k_ext + 2
    raise PointFailure("floquet", f"quasienergies not converged at k_ext={k_ext}")


def _generator_stage(cfg: RunConfig, spec: SupersystemSpec, floq: FloquetStage):
    """Counting-field generator: one channel per reservoir, each with the
    Floquet jump decomposition of its coupling operator."""
    ops = build_coupling_operators(spec)
    channels = [BathChannel("hot", ops.s_hot, spec.hot_bath, beta=spec.beta_h)]
    if spec.residual_bath is not None:
        channels.append(
            BathChannel("cold", ops.s_cold_residual, spec.residual_bath, beta=spec.beta_c)
        )
    n_window = cfg.n_window if cfg.n_window > 0 else None
    jumps = [
        decompose_operator(
            ch.coupling, floq.fs, n_window=n_window, amplitude_floor=cfg.amplitude_floor
        )
        for ch in channels
    ]
    return build_liouvillian(floq.h, floq.fs, channels, jumps)


@dataclass(frozen=True)
class SteadyStage:
    """Periodic steady state and the period-averaged heat flows."""

    rho: PeriodicOperator
    info: SteadyStateInfo
    qbar_h: float
    qbar_c: float  # nan without a cold reservoir

    @property
    def flows(self) -> np.ndarray:
        return np.array([self.qbar_c, self.qbar_h])


def _steady_stage(cfg: RunConfig, liouv, k_rho: int | None) -> SteadyStage:
    try:
        rho, info = steady_state(
            liouv,
            k_rho=k_rho,
            method=cfg.method,
            trace_tol=cfg.trace_tol,
            positivity_tol=cfg.positivity_tol,
        )
    except (SteadyStateError, np.linalg.LinAlgError) as exc:
        raise PointFailure("generator", str(exc)) from exc
    qbar_h = heat_current(liouv, rho, "hot")
    qbar_c = heat_current(liouv, rho, "cold") if "cold" in liouv.channels else math.nan
    return SteadyStage(rho, info, qbar_h, qbar_c)


def run_point(cfg: RunConfig) -> PointResult:
    """Execute the full pipeline at one parameter point.

    Fock truncation is raised (in steps of 4, up to solver.n_fock_max) until
    the top-level occupancy check passes; with solver.convergence = "full"
    the n_fock + 4, k_ext + 2 and k_rho + 2 refinements must each move the
    period-averaged flows by less than 0.1% relative.  k_rho + 2 re-solves
    the base generator, k_ext + 2 rebuilds the generator from the drift
    gate's k_ext + 2 Floquet solution, and n_fock + 4 runs every stage.
    """
    cfg.validate()
    extras = _config_extras(cfg)

    def failed(omega_cc: float, error: str, diag: Diagnostics | None = None) -> PointResult:
        return PointResult(cfg, omega_cc, None, diag, False, error=error, extras=extras)

    try:
        lambda0, omega_cc, residual = _resolve_mapping(cfg)
    except PointFailure as exc:
        return failed(math.nan, str(exc))

    def k_ext_for(n_fock: int) -> int:
        return cfg.k_ext if cfg.k_ext > 0 else _k_ext_auto(cfg, omega_cc, n_fock)

    k_rho = cfg.k_rho if cfg.k_rho > 0 else None
    n_fock = max(cfg.n_fock, _n_fock_estimate(cfg, omega_cc, residual))
    try:
        while True:
            spec = _build_spec(cfg, lambda0, omega_cc, residual, n_fock)
            floq = _floquet_stage(cfg, spec, k_ext_for(n_fock), cfg.convergence != "off")
            liouv = _generator_stage(cfg, spec, floq)
            steady = _steady_stage(cfg, liouv, k_rho)
            trunc = fock_truncation_check(
                steady.rho.average.real, n_fock, cfg.trunc_threshold
            )
            if trunc.passed:
                break
            if n_fock + 4 > cfg.n_fock_max:
                raise PointFailure(
                    "model",
                    f"top Fock occupancy {trunc.top_population:.2e} above "
                    f"{cfg.trunc_threshold:.1e} at n_fock={n_fock} (max reached)",
                )
            n_fock += 4
    except PointFailure as exc:
        return failed(omega_cc, str(exc))

    rho, info = steady.rho, steady.info
    occ = occupation_statistics(rho, n_fock)
    cc_flow = periodic_average_rate(liouv, rho, cc_hamiltonian(spec))

    gates: dict[str, float] = {}
    if cfg.convergence == "full":

        def refine_n_fock() -> SteadyStage:
            spec_r = _build_spec(cfg, lambda0, omega_cc, residual, n_fock + 4)
            k_ext_r = max(floq.fs.k_ext, k_ext_for(n_fock + 4))
            floq_r = _floquet_stage(cfg, spec_r, k_ext_r, drift_gate=False)
            return _steady_stage(cfg, _generator_stage(cfg, spec_r, floq_r), k_rho)

        def refine_k_ext() -> SteadyStage:
            floq_r = _checked_floquet(floq.h, floq.refined)
            return _steady_stage(cfg, _generator_stage(cfg, spec, floq_r), k_rho)

        base = steady.flows
        scale = max(np.max(np.abs(base[np.isfinite(base)])), 1e-300)
        refinements = {
            "n_fock+4": refine_n_fock,
            "k_ext+2": refine_k_ext,
            "k_rho+2": lambda: _steady_stage(cfg, liouv, info.k_rho + 2),
        }
        for tag, refine in refinements.items():
            try:
                ref = refine().flows
            except PointFailure as exc:
                return failed(omega_cc, f"gate {tag}: {exc}")
            diff = np.nanmax(np.abs(ref - base)) / scale
            gates[tag] = float(diff)

    diag = Diagnostics(
        n_fock=n_fock,
        k_ext=floq.fs.k_ext,
        k_rho=info.k_rho,
        method=info.method,
        fallback=info.fallback,
        residual=info.residual,
        sigma_second=info.sigma_second,
        trunc_top=trunc.top_population,
        completeness=floq.completeness,
        cc_flow_avg=cc_flow,
        min_eigenvalue=info.min_eigenvalue,
        gates=gates,
    )

    try:
        if residual is None:
            qbar_h = steady.qbar_h
            report = ThermoReport(
                qbar_c=math.nan,
                qbar_h=qbar_h,
                wbar=-qbar_h,
                sigma_bar=-cfg.beta_h * qbar_h,
                beta_cc=effective_cc_temperature(occ.n_mean, omega_cc),
                n_mean=occ.n_mean,
                n_var=occ.n_var,
                thermal_residual=occ.thermal_residual,
                regime=None,
                eta=None,
                kappa=None,
                eta_carnot=None,
                kappa_carnot=None,
            )
        else:
            report = build_report(
                steady.qbar_c,
                steady.qbar_h,
                omega_cc,
                cfg.beta_c,
                cfg.beta_h,
                occ,
                regime_tol=cfg.regime_tol,
                sigma_tol=cfg.sigma_tol,
            )
    except ValueError as exc:
        return failed(omega_cc, f"[thermo] {exc}", diag)

    if "qbar_h_oracle" in extras:
        qh_o = extras["qbar_h_oracle"]
        extras["rel_dev_qh"] = abs(report.qbar_h - qh_o) / max(abs(qh_o), 1e-300)

    converged = cfg.convergence != "off" and not any(g > 1e-3 for g in gates.values())
    return PointResult(cfg, omega_cc, report, diag, converged, extras=extras)


# each mode's extra CSV columns: the keys _config_extras gives, then the
# ones run_point adds from the solved state
EXTRA_COLUMNS = {
    "lasercool": ["delta", "n_analytic"],
    "benchmark": ["qbar_h_oracle", "qbar_c_oracle", "rel_dev_qh"],
}


def _config_extras(cfg: RunConfig) -> dict:
    """The mode's extra columns that follow from the configuration alone.

    Every row carries them, failed rows included; values that need the
    solved state (``rel_dev_qh``) are added on success only.
    """
    if cfg.mode == "lasercool":
        delta = cfg.omegaL - cfg.omega0
        try:
            n_analytic = sideband_cooling_occupation(
                SidebandParams(delta=delta, gamma_decay=cfg.d_h, nu=cfg.omega_res)
            )
        except ValueError:
            n_analytic = math.nan
        return {"delta": delta, "n_analytic": n_analytic}
    if cfg.mode == "benchmark":
        try:
            qc_o, qh_o, _ = bare_qubit_secular_steady(
                cfg.omega0,
                cfg.g,
                cfg.omegaL,
                StructuredPeak(d_c=cfg.d_c, gamma=cfg.gamma, omega_res=_peak_frequency(cfg)),
                Ohmic(d_h=cfg.d_h, omega_ref=cfg.hot_reference),
                cfg.beta_c,
                cfg.beta_h,
            )
        except (ValueError, RuntimeError):
            # no secular reference at this point (e.g. a locked peak at
            # omegaL >= omega0); the row still gets written, with nan oracles
            qc_o = qh_o = math.nan
        return {"qbar_h_oracle": qh_o, "qbar_c_oracle": qc_o}
    return {}


def sweep_values(start: float, stop: float, steps: int) -> np.ndarray:
    if steps == 1:
        return np.array([start])
    return np.linspace(start, stop, steps)


def _point_config(cfg: RunConfig, variable: str, value: float) -> RunConfig:
    if variable == "omegaL":
        return replace(cfg, omegaL=float(value))
    if variable == "d_c":
        return replace(cfg, d_c=float(value))
    if variable == "gamma":
        return replace(cfg, gamma=float(value))
    if variable == "delta":
        return replace(cfg, omegaL=float(cfg.omega0 + value))
    raise ConfigError(f"unknown sweep variable {variable!r}")


@dataclass(frozen=True)
class SweepResult:
    config: RunConfig
    points: list[PointResult]

    @property
    def n_failed(self) -> int:
        return sum(1 for p in self.points if not p.ok)


def worker_count() -> int:
    raw = os.environ.get("FLOQCC_WORKERS", "")
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError as exc:
        raise ConfigError(f"FLOQCC_WORKERS must be an integer, got {raw!r}") from exc
    return max(1, n)


def _run_many(configs: list[RunConfig]) -> list[PointResult]:
    workers = min(worker_count(), len(configs))
    if workers <= 1:
        return [run_point(c) for c in configs]
    import concurrent.futures as cf
    import multiprocessing as mp

    # cap BLAS threads in the children (inherited at spawn)
    saved = {}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        saved[var] = os.environ.get(var)
        os.environ[var] = "1"
    try:
        ctx = mp.get_context("spawn")
        with cf.ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            results = list(pool.map(run_point, configs, chunksize=1))
    finally:
        for var, val in saved.items():
            if val is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = val
    return results


def run_sweep(cfg: RunConfig) -> SweepResult:
    """One row per sweep point; points are independent, partial failures are
    flagged and the sweep continues.  Raises if every point failed."""
    cfg.validate()
    values = sweep_values(cfg.sweep_start, cfg.sweep_stop, cfg.sweep_steps)
    configs = [_point_config(cfg, cfg.sweep_variable, v) for v in values]
    points = _run_many(configs)
    result = SweepResult(config=cfg, points=points)
    if result.n_failed == len(points):
        raise SteadyStateError(
            f"all {len(points)} sweep points failed; first error: {points[0].error}"
        )
    return result


def run_phase(cfg: RunConfig) -> SweepResult:
    """2-D grid: sweep2 (outer) x sweep (inner), flattened row-major."""
    cfg.validate()
    outer = sweep_values(cfg.sweep2_start, cfg.sweep2_stop, cfg.sweep2_steps)
    inner = sweep_values(cfg.sweep_start, cfg.sweep_stop, cfg.sweep_steps)
    configs = []
    for vo in outer:
        base = _point_config(cfg, cfg.sweep2_variable, vo)
        configs.extend(_point_config(base, cfg.sweep_variable, vi) for vi in inner)
    points = _run_many(configs)
    result = SweepResult(config=cfg, points=points)
    if result.n_failed == len(points):
        raise SteadyStateError("all phase-grid points failed")
    return result
