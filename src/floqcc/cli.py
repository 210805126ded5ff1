"""Command-line interface and machine-readable result emission.

One subcommand per ``run.mode``, with its help text, extra CSV columns and
dispatch read from the mode's record in ``floqcc.modes``: a mode that
solves nothing (``map``) prints the collective-coordinate mapping report,
one without grid axes solves a single point and the rest run a sweep.
Flags mirror config keys (``--bath.beta_c 25``) and override file values.
Exit codes: 0 success, 1 numerical/convergence failure, 2 configuration
error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

from .bath import (
    MappingError,
    QuadratureError,
    StructuredPeak,
    map_collective_coordinate,
    mapping_integrals_numeric,
)
from .config import (
    ConfigError,
    RunConfig,
    apply_overrides,
    config_to_dict,
    known_keys,
    parse_config_text,
)
from .generator import SteadyStateError
from .modes import MODES
from .pipeline import PointResult, run_point, run_sweep

CSV_COLUMNS = [
    "omegaL",
    "omega_cc",
    "d_c",
    "gamma",
    "g",
    "beta_c",
    "beta_h",
    "qbar_c",
    "qbar_h",
    "wbar",
    "sigma_bar",
    "beta_cc",
    "n_mean",
    "n_var",
    "regime",
    "eta",
    "kappa",
    "converged",
]


def _fmt(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int,)):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return f"{value:.12e}"
    return str(value)


def point_row(p: PointResult, extra_cols: list[str]) -> list[str]:
    cfg = p.config
    r = p.report
    cold = MODES[cfg.mode].maps_cold_bath
    base = {
        "omegaL": cfg.omegaL,
        "omega_cc": p.omega_cc,
        "d_c": cfg.d_c,
        "gamma": cfg.gamma if cold else 0.0,
        "g": cfg.g,
        "beta_c": cfg.beta_c if cold else math.nan,
        "beta_h": cfg.beta_h,
    }
    if r is None:
        body = {c: math.nan for c in CSV_COLUMNS[7:17]}
        body["regime"] = "error"
    else:
        body = {
            "qbar_c": r.qbar_c,
            "qbar_h": r.qbar_h,
            "wbar": r.wbar,
            "sigma_bar": r.sigma_bar,
            "beta_cc": r.beta_cc,
            "n_mean": r.n_mean,
            "n_var": r.n_var,
            "regime": r.regime.value if r.regime is not None else "",
            "eta": r.eta if r.eta is not None else math.nan,
            "kappa": r.kappa if r.kappa is not None else math.nan,
        }
    body["converged"] = p.converged and p.ok
    row = {**base, **body}
    cells = [_fmt(row[c]) for c in CSV_COLUMNS]
    cells.extend(_fmt(p.extras.get(c, math.nan)) for c in extra_cols)
    return cells


def render_csv(points: list[PointResult], mode: str) -> str:
    extra = list(MODES[mode].extra_columns)
    lines = [",".join(CSV_COLUMNS + extra)]
    for p in points:
        lines.append(",".join(point_row(p, extra)))
    return "\n".join(lines) + "\n"


def render_json(cfg: RunConfig, points: list[PointResult]) -> str:
    extra = list(MODES[cfg.mode].extra_columns)
    rows = [
        {
            "values": dict(zip(CSV_COLUMNS + extra, point_row(p, extra))),
            "error": p.error,
            "convergence": {} if p.diagnostics is None else asdict(p.diagnostics),
        }
        for p in points
    ]
    doc = {"config": config_to_dict(cfg), "rows": rows}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def emit(cfg: RunConfig, points: list[PointResult]) -> None:
    """Write CSV/JSON outputs as configured; deterministic formatting."""
    if cfg.csv_path:
        with open(cfg.csv_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(render_csv(points, cfg.mode))
    if cfg.json_path:
        with open(cfg.json_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(render_json(cfg, points))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floqcc",
        description="Driven open-system thermal machine simulator "
        "(collective coordinate + Floquet + counting fields)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, record in MODES.items():
        p = sub.add_parser(name, help=record.help)
        p.add_argument("config", nargs="?", help="key=value config file")
        for key in known_keys():
            p.add_argument(f"--{key}", dest=key, metavar="V")
    return parser


def load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    path = getattr(args, "config", None)
    if path:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path, encoding="utf-8") as fh:
            cfg = parse_config_text(fh.read())
    overrides = {
        key: val
        for key, val in vars(args).items()
        if key in set(known_keys()) and val is not None
    }
    cfg = apply_overrides(cfg, {**overrides, "run.mode": args.command})
    cfg.validate()
    return cfg


def _cmd_map(cfg: RunConfig) -> int:
    omega_res = cfg.peak_frequency
    try:
        j = StructuredPeak(d_c=cfg.d_c, gamma=cfg.gamma, omega_res=omega_res)
        cc = map_collective_coordinate(j)
    except (MappingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"structured peak: d_c={j.d_c:g} gamma={j.gamma:g} omega_res={j.omega_res:g}")
    print(f"lambda0       = {cc.lambda0:.12g}")
    print(f"omega_cc      = {cc.omega_cc:.12g}")
    print(f"delta_omega0  = {cc.delta_omega0:.12g}")
    print(f"residual bath : Ohmic, J(w) = {cc.residual.slope_at_zero():.12g} * w")
    try:
        lam_q, dom_q, wcc_q = mapping_integrals_numeric(j, cutoff=500.0 * omega_res)
        print(
            "quadrature    : lambda0 rel dev "
            f"{abs(lam_q - cc.lambda0) / cc.lambda0:.3e}, omega_cc rel dev "
            f"{abs(wcc_q - cc.omega_cc) / cc.omega_cc:.3e}"
        )
    except QuadratureError as exc:
        print(f"quadrature    : failed ({exc})")
        return 1
    return 0


def _print_point(p: PointResult) -> None:
    if not p.ok:
        print(f"FAILED: {p.error}")
        return
    r = p.report
    print(f"omega_cc      = {p.omega_cc:.6g}")
    print(f"qbar_c        = {_fmt(r.qbar_c)}")
    print(f"qbar_h        = {_fmt(r.qbar_h)}")
    print(f"wbar          = {_fmt(r.wbar)}")
    print(f"sigma_bar     = {_fmt(r.sigma_bar)}")
    print(f"beta_cc       = {_fmt(r.beta_cc)}")
    print(f"n_mean        = {_fmt(r.n_mean)}")
    print(f"regime        = {r.regime.value if r.regime else 'n/a'}")
    if r.eta is not None:
        print(f"eta           = {_fmt(r.eta)} (Carnot {_fmt(r.eta_carnot)})")
    if r.kappa is not None:
        print(f"kappa         = {_fmt(r.kappa)} (Carnot {_fmt(r.kappa_carnot)})")
    d = p.diagnostics
    print(
        f"converged     = {p.converged} (n_fock={d.n_fock}, k_ext={d.k_ext}, "
        f"k_rho={d.k_rho}, method={d.method})"
    )


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        mode = MODES[cfg.mode]
        if not mode.solves:
            return _cmd_map(cfg)
        if mode.axes == 0:
            point = run_point(cfg)
            _print_point(point)
            emit(cfg, [point])
            return 0 if point.ok else 1
        result = run_sweep(cfg)
        emit(cfg, result.points)
        n = len(result.points)
        print(f"{n - result.n_failed}/{n} points completed", file=sys.stderr)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SteadyStateError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
