"""Run configuration: flat key=value files with section prefixes, strict
parsing, and CLI-style overrides.

Example::

    run.mode = sweep
    model.g = 0.001
    bath.cold.d_c = 0.001
    bath.cold.gamma = 0.0004
    bath.hot.d_h = 0.005
    bath.beta_c = 25
    bath.beta_h = 2.22
    sweep.variable = omegaL
    sweep.start = 0.60
    sweep.stop = 0.96
    sweep.steps = 37

Unknown keys are rejected.  Dotted keys map one-to-one onto RunConfig
fields; `#` starts a comment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .model import TRUNC_THRESHOLD
from .modes import MODES


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


SWEEP_VARIABLES = ("omegaL", "d_c", "gamma", "delta")
COUPLING_FORMS = ("sinusoidal", "static")
SOLVER_METHODS = ("auto", "svd", "lu", "gmres")
CONVERGENCE_MODES = ("fast", "full", "off")


@dataclass(frozen=True)
class RunConfig:
    """All knobs of a run; defaults follow the weak-driving regime."""

    mode: str = "steady"

    omega0: float = 1.0
    g: float = 0.001
    omegaL: float = 0.75
    coupling_form: str = "sinusoidal"

    d_c: float = 0.001
    gamma: float = 0.0004
    omega_res: float = 0.0  # peak centre when unlocked; lasercool: the mode frequency
    d_h: float = 0.005
    beta_c: float = 25.0
    beta_h: float = 2.22

    n_fock: int = 12
    n_fock_max: int = 32
    k_ext: int = 0  # 0 = auto
    k_rho: int = 0  # 0 = auto
    method: str = "auto"
    convergence: str = "fast"
    trunc_threshold: float = TRUNC_THRESHOLD

    sweep_variable: str = "omegaL"
    sweep_start: float = 0.6
    sweep_stop: float = 0.96
    sweep_steps: int = 19
    resonance_lock: bool = True

    sweep2_variable: str = "d_c"
    sweep2_start: float = 0.001
    sweep2_stop: float = 0.005
    sweep2_steps: int = 5

    csv_path: str = ""
    json_path: str = ""

    def validate(self) -> None:
        mode = MODES.get(self.mode)
        if mode is None:
            raise ConfigError(f"run.mode must be one of {tuple(MODES)}, got {self.mode!r}")
        for name in ("omega0", "omegaL", "d_h", "beta_c", "beta_h"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ConfigError(f"{_KEY_OF[name]} must be finite and > 0, got {v}")
        for name in ("g", "d_c", "gamma", "omega_res", "trunc_threshold"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ConfigError(f"{_KEY_OF[name]} must be finite and >= 0, got {v}")
        for name in ("sweep_steps", "sweep2_steps"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{_KEY_OF[name]} must be >= 1")
        if not 2 <= self.n_fock <= self.n_fock_max:
            raise ConfigError(
                f"solver.n_fock must be >= 2 and <= solver.n_fock_max "
                f"({self.n_fock_max}), got {self.n_fock}"
            )
        for name in ("k_ext", "k_rho"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{_KEY_OF[name]} must be >= 0 (0 = auto)")
        if self.coupling_form not in COUPLING_FORMS:
            raise ConfigError(f"model.coupling_form must be one of {COUPLING_FORMS}")
        if self.method not in SOLVER_METHODS:
            raise ConfigError(f"solver.method must be one of {SOLVER_METHODS}")
        if self.convergence not in CONVERGENCE_MODES:
            raise ConfigError(f"solver.convergence must be one of {CONVERGENCE_MODES}")
        if self.sweep_variable not in SWEEP_VARIABLES:
            raise ConfigError(f"sweep.variable must be one of {SWEEP_VARIABLES}")
        if self.sweep2_variable not in SWEEP_VARIABLES:
            raise ConfigError(f"sweep2.variable must be one of {SWEEP_VARIABLES}")
        if mode.axes == 2:
            # the detuning delta = omegaL - omega0 sets omegaL
            swept = {
                "omegaL" if v == "delta" else v
                for v in (self.sweep_variable, self.sweep2_variable)
            }
            if len(swept) == 1:
                raise ConfigError(
                    f"phase grid: sweep.variable={self.sweep_variable} and "
                    f"sweep2.variable={self.sweep2_variable} both set {swept.pop()}, "
                    "so the inner axis would overwrite the outer one"
                )
        if not mode.maps_cold_bath:
            if self.omega_res <= 0:
                raise ConfigError(
                    f"{self.mode} mode needs bath.cold.omega_res (the mode frequency)"
                )
        elif mode.solves and not self.beta_h < self.beta_c:
            raise ConfigError(
                f"hot bath must be hotter: beta_h={self.beta_h} < beta_c="
                f"{self.beta_c} required"
            )
        elif not self.resonance_lock and self.omega_res <= 0:
            raise ConfigError("without sweep.resonance_lock, bath.cold.omega_res must be set")

    @property
    def peak_frequency(self) -> float:
        """Centre of the cold bath's structured peak: omega0 - omegaL under
        the resonance lock, else ``omega_res``."""
        return self.omega0 - self.omegaL if self.resonance_lock else self.omega_res


# dotted config key <-> dataclass field
_FIELD_OF = {
    "run.mode": "mode",
    "model.omega0": "omega0",
    "model.g": "g",
    "model.omegaL": "omegaL",
    "model.coupling_form": "coupling_form",
    "bath.cold.d_c": "d_c",
    "bath.cold.gamma": "gamma",
    "bath.cold.omega_res": "omega_res",
    "bath.hot.d_h": "d_h",
    "bath.beta_c": "beta_c",
    "bath.beta_h": "beta_h",
    "solver.n_fock": "n_fock",
    "solver.n_fock_max": "n_fock_max",
    "solver.k_ext": "k_ext",
    "solver.k_rho": "k_rho",
    "solver.method": "method",
    "solver.convergence": "convergence",
    "solver.trunc_threshold": "trunc_threshold",
    "sweep.variable": "sweep_variable",
    "sweep.start": "sweep_start",
    "sweep.stop": "sweep_stop",
    "sweep.steps": "sweep_steps",
    "sweep.resonance_lock": "resonance_lock",
    "sweep2.variable": "sweep2_variable",
    "sweep2.start": "sweep2_start",
    "sweep2.stop": "sweep2_stop",
    "sweep2.steps": "sweep2_steps",
    "output.csv": "csv_path",
    "output.json": "json_path",
}
_KEY_OF = {v: k for k, v in _FIELD_OF.items()}
_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key: str, fname: str, raw: str):
    txt = raw.strip()
    ftype = _TYPES[fname]
    if ftype == "bool":
        low = txt.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    try:
        if ftype == "int":
            return int(txt)
        if ftype == "float":
            return float(txt)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    return txt


def parse_config_text(text: str, base: RunConfig | None = None) -> RunConfig:
    """Parse flat key=value text into a RunConfig (strict: unknown keys and
    duplicate assignments are errors)."""
    cfg = base or RunConfig()
    seen: set[str] = set()
    updates = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        fname = _FIELD_OF.get(key)
        if fname is None:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        updates[fname] = _coerce(key, fname, raw)
    return replace(cfg, **updates)


def apply_overrides(cfg: RunConfig, overrides: dict[str, str]) -> RunConfig:
    """Apply CLI-style ``{dotted key: raw value}`` overrides."""
    updates = {}
    for key, raw in overrides.items():
        fname = _FIELD_OF.get(key)
        if fname is None:
            raise ConfigError(f"unknown configuration key {key!r}")
        updates[fname] = _coerce(key, fname, raw)
    return replace(cfg, **updates)


def config_to_dict(cfg: RunConfig) -> dict:
    """Dotted-key dictionary (the JSON echo of a run)."""
    return {key: getattr(cfg, fname) for key, fname in _FIELD_OF.items()}


def known_keys() -> list[str]:
    return list(_FIELD_OF)
