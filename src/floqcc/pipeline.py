"""Experiment orchestration: single points, resonance-locked sweeps, phase
grids, laser-cooling curves and the secular benchmark.  Whether a mode maps
a cold bath, its config-derived and state-derived extras and its grid axes
are read from its record in ``floqcc.modes``.

Every point maps the bath, builds the model, then runs three stages under
adaptive Fock truncation: Floquet (one Sambe solve per ladder, the ladder
raised until its certificate passes), generator (coupling operators, jump
amplitudes, kernels) and steady (periodic state and heat flows); failures are
``PointFailure``s tagged with their layer.
Sweep points are independent and can be dispatched to a process pool
(worker count via the FLOQCC_WORKERS environment variable; default serial).
While a point runs, numpy's own OpenBLAS, where it is not scipy's, is held
at one thread (``_one_numpy_blas_thread``).
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from functools import cache

import numpy as np

from .bath import MappingError, Ohmic, StructuredPeak, bose_occupation, map_collective_coordinate
from .config import ConfigError, RunConfig
from .floquet import (
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
    parity,
)
from .modes import MODES
from .thermo import ThermoReport, build_report, occupation_statistics


class PointFailure(RuntimeError):
    """A pipeline stage failed; carries the stage tag."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass(frozen=True)
class Diagnostics(SteadyStateInfo):
    """The accepted steady solve's record, and what the point adds to it."""

    n_fock: int
    k_ext: int
    trunc_top: float
    completeness: float
    cc_flow_avg: float
    rho_tail: list[float]  # max |rho_n| for n = 1..k_rho
    edge_weight: float  # ladder certificate of the accepted k_ext
    edge_residual: float
    # each smaller ladder tried first: k_ext and its certificate
    k_ext_trail: list[dict]
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


def _n_fock_estimate(cfg: RunConfig, omega_cc: float, residual: Ohmic | None) -> int:
    """Thermal estimate of the ladder size whose top levels stay below the
    truncation threshold; the adaptive loop still raises it if the drive
    heats the mode beyond this.  An occupation that diverges (beta * omega
    underflows to 0), or one so large that no ladder holds it, fails the
    point at the model stage."""
    # without a cold reservoir the mode thermalizes with the hot bath
    beta = cfg.beta_h if residual is None else cfg.beta_c
    x = beta * omega_cc
    try:
        nbar = bose_occupation(omega_cc, beta) if x < 600 else 0.0
    except ValueError as exc:
        raise PointFailure("model", str(exc)) from exc
    ratio = (nbar + 0.02) / (1.0 + nbar + 0.02)
    if not ratio < 1.0:
        raise PointFailure("model", f"occupation {nbar:.3e} has no Fock cutoff")
    need = math.ceil(math.log(max(cfg.trunc_threshold, 1e-12) * 0.01) / math.log(ratio))
    return int(np.clip(need + 2, 2, cfg.n_fock_max))


def _resolve_mapping(cfg: RunConfig) -> tuple[float, float, Ohmic | None]:
    """(lambda0, omega_cc, residual bath) for the current mode."""
    if not MODES[cfg.mode].maps_cold_bath:
        return cfg.d_c, cfg.omega_res, None
    omega_res = cfg.peak_frequency
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
    hot = Ohmic(d_h=cfg.d_h, omega_ref=cfg.omega0)
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


# ladder steps of 2 the Floquet stage takes before it fails the point
K_EXT_STEPS = 6
# largest relative move of the flows a solver.convergence=full refinement
# may make for the point to count as converged
GATE_TOL = 1e-3


@dataclass(frozen=True)
class FloquetStage:
    """Floquet solution of ``h`` on the first certified ladder; ``trail``
    holds the certificate of every smaller ladder tried before it."""

    h: PeriodicOperator
    fs: FloquetSolution
    trail: list[dict]


def _floquet_stage(cfg: RunConfig, spec: SupersystemSpec, k_ext: int = 0) -> FloquetStage:
    """One Sambe solve per ladder: from ``k_ext`` (by default
    ``solver.k_ext``, or the drive's harmonic support + 3 when that is
    unset), k_ext is raised in steps of 2 while ``solve_floquet`` refuses
    any part of the ladder's certificate, at most ``K_EXT_STEPS`` times."""
    h = build_supersystem_fourier(spec)
    k_ext = k_ext or cfg.k_ext or h.max_harmonic + 3
    trail: list[dict] = []
    for _ in range(K_EXT_STEPS + 1):
        try:
            fs = solve_floquet(build_quasienergy_operator(h, cfg.omegaL, k_ext), parity(spec))
            break
        except FloquetConvergenceError as exc:
            refused = exc
            trail.append(
                {"k_ext": k_ext, "edge_weight": exc.edge_weight,
                 "edge_residual": exc.edge_residual, "completeness": exc.completeness}
            )
            k_ext += 2
        except (ValueError, np.linalg.LinAlgError) as exc:
            raise PointFailure("floquet", str(exc)) from exc
    else:
        raise PointFailure("floquet", str(refused))
    return FloquetStage(h, fs, trail)


def _generator_stage(spec: SupersystemSpec, floq: FloquetStage):
    """Counting-field generator: one channel per reservoir, each with the
    Floquet jump amplitudes of its coupling operator.  A ``ValueError`` or
    ``LinAlgError`` on the way (say, an occupation that diverges because
    beta * omega underflows to 0) fails the point at this stage."""
    ops = build_coupling_operators(spec)
    channels = [BathChannel("hot", ops.s_hot, spec.hot_bath, beta=spec.beta_h)]
    if spec.residual_bath is not None:
        channels.append(
            BathChannel("cold", ops.s_cold_residual, spec.residual_bath, beta=spec.beta_c)
        )
    try:
        jumps = [decompose_operator(ch.coupling, floq.fs) for ch in channels]
        return build_liouvillian(floq.h, floq.fs, channels, jumps, parity(spec))
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise PointFailure("generator", str(exc)) from exc


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
        rho, info = steady_state(liouv, k_rho=k_rho, method=cfg.method)
    except (SteadyStateError, np.linalg.LinAlgError) as exc:
        raise PointFailure("generator", str(exc)) from exc
    qbar_h = heat_current(liouv, rho, "hot")
    qbar_c = heat_current(liouv, rho, "cold") if "cold" in liouv.couplings else math.nan
    return SteadyStage(rho, info, qbar_h, qbar_c)


def run_point(cfg: RunConfig) -> PointResult:
    """Execute the full pipeline at one parameter point.

    Fock truncation is raised in steps of 4, the last step landing on
    solver.n_fock_max itself, until the top-level occupancy check passes;
    every Floquet stage certifies its own ladder (``_floquet_stage``), and
    the generator reads each reservoir's jump amplitudes as the one dense
    array ``decompose_operator`` returns.  With solver.convergence = "full"
    the n_fock + 4 and k_rho + 2 refinements must each move the
    period-averaged flows by less than GATE_TOL relative.  k_rho + 2 re-solves
    the base generator; n_fock + 4 runs every stage again, from the certified
    k_ext.  k_ext is judged in every mode by the ladder's certificate alone.

    While it runs, numpy's own OpenBLAS is held at one thread when it is a
    library apart from scipy's, and the caller's thread count is restored
    afterwards, however the point ends (``_one_numpy_blas_thread``);
    concurrent and nested calls restore it once, when the last one ends.
    """
    with _one_numpy_blas_thread():
        return _run_point(cfg)


def _run_point(cfg: RunConfig) -> PointResult:
    cfg.validate()
    extras = MODES[cfg.mode].config_extras(cfg)

    def failed(omega_cc: float, error: str, diag: Diagnostics | None = None) -> PointResult:
        return PointResult(cfg, omega_cc, None, diag, False, error=error, extras=extras)

    try:
        lambda0, omega_cc, residual = _resolve_mapping(cfg)
    except PointFailure as exc:
        return failed(math.nan, str(exc))

    k_rho = cfg.k_rho if cfg.k_rho > 0 else None

    def chain(n_fock: int, k_ext: int = 0):
        spec = _build_spec(cfg, lambda0, omega_cc, residual, n_fock)
        floq = _floquet_stage(cfg, spec, k_ext)
        liouv = _generator_stage(spec, floq)
        return spec, floq, liouv, _steady_stage(cfg, liouv, k_rho)

    try:
        n_fock = max(cfg.n_fock, _n_fock_estimate(cfg, omega_cc, residual))
        while True:
            spec, floq, liouv, steady = chain(n_fock)
            trunc = fock_truncation_check(
                steady.rho.average.real, n_fock, cfg.trunc_threshold
            )
            if trunc.passed:
                break
            if n_fock >= cfg.n_fock_max:
                raise PointFailure(
                    "model",
                    f"top Fock occupancy {trunc.top_population:.2e} above "
                    f"{cfg.trunc_threshold:.1e} at n_fock={n_fock} (max reached)",
                )
            n_fock = min(n_fock + 4, cfg.n_fock_max)
    except PointFailure as exc:
        return failed(omega_cc, str(exc))

    rho, info = steady.rho, steady.info
    occ = occupation_statistics(rho, n_fock)
    cc_flow = periodic_average_rate(liouv, rho, cc_hamiltonian(spec))

    gates: dict[str, float] = {}
    if cfg.convergence == "full":
        base = steady.flows
        scale = max(np.max(np.abs(base[np.isfinite(base)])), 1e-300)
        refinements = {
            "n_fock+4": lambda: chain(n_fock + 4, floq.fs.k_ext)[-1],
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
        **asdict(info),
        n_fock=n_fock,
        k_ext=floq.fs.k_ext,
        trunc_top=trunc.top_population,
        completeness=floq.fs.completeness,
        cc_flow_avg=cc_flow,
        rho_tail=np.abs(rho.harmonics[info.k_rho + 1 :]).max(axis=(1, 2)).tolist(),
        edge_weight=floq.fs.edge_weight,
        edge_residual=floq.fs.edge_residual,
        k_ext_trail=floq.trail,
        gates=gates,
    )

    try:
        report = build_report(
            steady.qbar_c, steady.qbar_h, omega_cc, cfg.beta_c, cfg.beta_h, occ
        )
    except ValueError as exc:
        return failed(omega_cc, f"[thermo] {exc}", diag)

    extras.update(MODES[cfg.mode].state_extras(extras, report))

    converged = cfg.convergence != "off" and not any(g > GATE_TOL for g in gates.values())
    return PointResult(cfg, omega_cc, report, diag, converged, extras=extras)


def _point_config(cfg: RunConfig, variable: str, value: float) -> RunConfig:
    """``cfg`` at one sweep value; the detuning ``delta`` sets omegaL, every
    other sweep variable names its RunConfig field."""
    if variable == "delta":
        return replace(cfg, omegaL=float(cfg.omega0 + value))
    return replace(cfg, **{variable: float(value)})


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
    if n < 1:
        raise ConfigError(f"FLOQCC_WORKERS must be a positive integer, got {raw!r}")
    return n


@cache
def _numpy_openblas() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """(get, set) of the thread count of numpy's own OpenBLAS, found among
    the libraries mapped into this process (``/proc/self/maps``) under
    numpy's and scipy's install directories; None when numpy is not on an
    OpenBLAS of its own apart from scipy's, or nothing can be found.
    Imports ``scipy.linalg``, which every steady solve loads anyway, so that
    scipy's library is mapped."""
    import scipy.linalg

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln}
    except OSError:
        return None

    def owned(package) -> list[str]:
        # wheels keep it in <package>/.libs or a sibling <package>.libs
        root = os.path.dirname(package.__file__)
        return [lib for lib in libs if lib.startswith(root)]

    ours, theirs = owned(np), owned(scipy)
    if len(ours) != 1 or not theirs:
        return None
    lib = ctypes.CDLL(ours[0])
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


# the thread count is one per process, so the points in progress share one
# count and one saved value, guarded by one lock
_pin_lock = threading.Lock()
_pin = {"active": 0, "saved": 0}


@contextmanager
def _one_numpy_blas_thread() -> Iterator[None]:
    """Hold numpy's own OpenBLAS at one thread while the block runs, then
    restore the count the first of the overlapping blocks found.

    numpy and scipy wheels each bring an OpenBLAS with its own thread pool.
    A pool's workers spin for about 0.1 s after each threaded call, so a
    point that alternates numpy products and ``eigh`` with scipy's LUs runs
    each library beside the other's spinning threads.  numpy's calls here
    are small and gain little from threads; scipy's dense LUs keep theirs.
    Does nothing when ``_numpy_openblas`` finds no separate library."""
    blas = _numpy_openblas()
    if blas is None:
        yield
        return
    get, put = blas
    with _pin_lock:
        if _pin["active"] == 0:
            _pin["saved"] = get()
            put(1)
        _pin["active"] += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin["active"] -= 1
            if _pin["active"] == 0:
                put(_pin["saved"])


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
    """One row per grid point: the sweep values, or for a mode with two
    grid axes (``phase``) the sweep2 (outer) x sweep (inner) grid flattened
    row-major.  Points are independent; partial failures are flagged and
    the sweep continues.  Every point's config is validated before any is
    solved.  Every row is returned, failed ones included."""
    cfg.validate()
    outer = [cfg]
    if MODES[cfg.mode].axes == 2:
        values2 = np.linspace(cfg.sweep2_start, cfg.sweep2_stop, cfg.sweep2_steps)
        outer = [_point_config(cfg, cfg.sweep2_variable, v) for v in values2]
    values = np.linspace(cfg.sweep_start, cfg.sweep_stop, cfg.sweep_steps)
    configs = [_point_config(base, cfg.sweep_variable, v) for base in outer for v in values]
    for point_cfg in configs:
        point_cfg.validate()
    return SweepResult(config=cfg, points=_run_many(configs))
