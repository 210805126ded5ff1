"""Correctness checks of the benchmark, written apart from the program.

Every check works on a plain record of one solved point (see
``worker.point_record``) and returns the list of what it found wrong; an
empty list is a pass.  The physics is restated here from first principles
(energy balance, the second law, Carnot bounds, the reversible point and
the sideband-cooling rate equation), not imported from ``floqcc``, and no
check compares against a stored copy of earlier output.
"""

from __future__ import annotations

# the second law, stationarity of the mode energy and the thermal law of
# the mode occupation, as the acceptance criteria state them
SIGMA_FLOOR = -1e-10
CC_FLOW_MAX = 1e-10
THERMAL_RESIDUAL_MAX = 0.1
GATE_MAX = 1e-3
# criterion 8: the numerical occupation tracks the sideband formula within
# 25 %, and at delta = -omega_cc lies within a factor 2 of its limit
SIDEBAND_REL_MAX = 0.25
SIDEBAND_LIMIT_FACTOR = 2.0
# points this close to delta = -omega_cc (in units of omega_cc) are held
# to the sideband limit
SIDEBAND_WINDOW = 0.05

CSV_COLUMNS = (
    "omegaL", "omega_cc", "d_c", "gamma", "g", "beta_c", "beta_h", "qbar_c",
    "qbar_h", "wbar", "sigma_bar", "beta_cc", "n_mean", "n_var", "regime",
    "eta", "kappa", "converged",
)
EXTRA_COLUMNS = {"lasercool": ("delta", "n_analytic")}


def reversible_omega(rec: dict) -> float:
    """Drive frequency at which the machine runs reversibly: the engine
    (I) must lie below it and the refrigerator (IV) above it."""
    return rec["omega0"] * (1.0 - rec["beta_h"] / rec["beta_c"])


def check_fig2_point(rec: dict) -> list[str]:
    """Laws every two-reservoir steady state must obey."""
    bad = []
    qc, qh, w = rec["qbar_c"], rec["qbar_h"], rec["wbar"]
    bc, bh = rec["beta_c"], rec["beta_h"]
    scale = max(abs(qc), abs(qh), 1e-300)
    if abs(w + qc + qh) > 1e-9 * scale:
        bad.append(f"first law: wbar {w:.6e} != -(qbar_c + qbar_h) {-(qc + qh):.6e}")
    sigma = -bh * qh - bc * qc
    for label, value in (("recomputed", sigma), ("reported", rec["sigma_bar"])):
        if not value >= SIGMA_FLOOR:
            bad.append(f"second law: {label} sigma_bar {value:.3e} < {SIGMA_FLOOR:.0e}")
    regime = rec["regime"]
    omega_rev = reversible_omega(rec)
    if regime == "I":
        if not (w < 0 < qh and qc < 0):
            bad.append(f"regime I with flows qbar_c={qc:.3e} qbar_h={qh:.3e} wbar={w:.3e}")
        else:
            eta, eta_c = -w / qh, 1.0 - bh / bc
            if not eta < eta_c:
                bad.append(f"engine efficiency {eta:.6f} >= Carnot {eta_c:.6f}")
        if not rec["omegaL"] < omega_rev:
            bad.append(f"regime I at omegaL={rec['omegaL']:.5f} above the reversible point {omega_rev:.5f}")
    if regime == "IV":
        if not (qc > 0 > qh and w > 0):
            bad.append(f"regime IV with flows qbar_c={qc:.3e} qbar_h={qh:.3e} wbar={w:.3e}")
        else:
            kappa, kappa_c = qc / w, bh / (bc - bh)
            if not kappa < kappa_c:
                bad.append(f"refrigerator COP {kappa:.6f} >= Carnot {kappa_c:.6f}")
        if not rec["omegaL"] > omega_rev:
            bad.append(f"regime IV at omegaL={rec['omegaL']:.5f} below the reversible point {omega_rev:.5f}")
    if not rec["thermal_residual"] < THERMAL_RESIDUAL_MAX:
        bad.append(f"thermal residual {rec['thermal_residual']:.3e} >= {THERMAL_RESIDUAL_MAX}")
    return bad + check_stationary(rec)


def check_stationary(rec: dict) -> list[str]:
    """The period-averaged mode-energy flow vanishes in any exact steady state."""
    flow = rec["cc_flow_avg"]
    if not abs(flow) < CC_FLOW_MAX:
        return [f"mode-energy flow {flow:.3e} not below {CC_FLOW_MAX:.0e}"]
    return []


def check_certified(rec: dict) -> list[str]:
    """A ``convergence=full`` point: converged, every refinement gate small."""
    bad = check_fig2_point(rec)
    if not rec["converged"]:
        bad.append("convergence=full point not converged")
    gates = rec["gates"]
    if not gates:
        bad.append("no refinement gates reported")
    bad += [f"gate {k} moved the flows by {v:.3e}" for k, v in gates.items() if not v < GATE_MAX]
    return bad


def sideband_occupation(delta: float, d_h: float, omega_cc: float) -> float:
    """Steady occupation A_heat / (A_cool - A_heat) of a mode cooled through
    the sidebands of a two-level system of linewidth d_h.

    Absorption on the red sideband (drive detuning delta + omega_cc from
    the transition) removes a quantum, the blue one (delta - omega_cc)
    adds one; each rate is a Lorentzian of full width d_h.
    """
    def lorentzian(x: float) -> float:
        return (0.5 * d_h) ** 2 / ((0.5 * d_h) ** 2 + x * x)

    a_heat = lorentzian(delta - omega_cc)
    a_cool = lorentzian(delta + omega_cc)
    return a_heat / (a_cool - a_heat)


def check_lasercool(rec: dict) -> list[str]:
    """Occupation against the sideband formula, and near delta = -omega_cc
    against its resolved-sideband limit d_h^2 / (16 omega_cc^2)."""
    bad = check_stationary(rec)
    wcc, d_h = rec["omega_cc"], rec["d_h"]
    delta = rec["omegaL"] - rec["omega0"]
    n, n_ref = rec["n_mean"], sideband_occupation(delta, d_h, wcc)
    rel = abs(n - n_ref) / n_ref
    if not rel < SIDEBAND_REL_MAX:
        bad.append(f"n_mean {n:.5f} off the sideband formula {n_ref:.5f} by {rel:.3f}")
    if abs(delta / wcc + 1.0) <= SIDEBAND_WINDOW:
        limit = d_h**2 / (16.0 * wcc**2)
        if not limit / SIDEBAND_LIMIT_FACTOR <= n <= SIDEBAND_LIMIT_FACTOR * limit:
            bad.append(f"n_mean {n:.5f} not within a factor 2 of the sideband limit {limit:.5f}")
    return bad


def check_regimes_present(records: list[dict]) -> list[str]:
    """A Fig-2 sweep shows both the engine and the refrigerator."""
    found = {r["regime"] for r in records if r["ok"]}
    return [f"no regime {g} point" for g in ("I", "IV") if g not in found]


def check_csv(text: str, mode: str, records: list[dict]) -> list[str]:
    """Column schema of the rendered CSV, one row per point, and failed
    rows marked ``regime=error``."""
    lines = text.splitlines()
    header = tuple(CSV_COLUMNS) + EXTRA_COLUMNS.get(mode, ())
    if not lines or tuple(lines[0].split(",")) != header:
        return [f"CSV header {lines[:1]} is not {','.join(header)}"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(records):
        return [f"CSV has {len(rows)} rows for {len(records)} points"]
    bad = []
    col = header.index("regime")
    for i, (row, rec) in enumerate(zip(rows, records)):
        if len(row) != len(header):
            bad.append(f"CSV row {i} has {len(row)} cells, header {len(header)}")
        elif (row[col] == "error") != (not rec["ok"]):
            bad.append(f"CSV row {i}: regime={row[col]!r} for a {'solved' if rec['ok'] else 'failed'} point")
    return bad
