"""Tests of the benchmark's own checks: each accepts a sound result and
rejects a deliberately corrupted one.

    python3 -m pytest benchmarks -q
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from floqcc.oracles import SidebandParams, sideband_cooling_occupation  # noqa: E402

BETA_C, BETA_H = 25.0, 2.22


def fig2_record(regime: str, **changes) -> dict:
    """A plausible solved Fig-2 point in regime I (below the reversible
    point 0.9112) or IV (above it)."""
    if regime == "I":
        rec = dict(omegaL=0.85, qbar_c=-0.95e-6, qbar_h=1.0e-6)
    else:
        rec = dict(omegaL=0.93, qbar_c=0.5e-7, qbar_h=-1.0e-6)
    rec.update(
        ok=True, omega0=1.0, beta_c=BETA_C, beta_h=BETA_H, regime=regime,
        wbar=-rec["qbar_c"] - rec["qbar_h"], thermal_residual=1e-3,
        cc_flow_avg=1e-18, converged=True,
        gates={"n_fock+4": 1e-12, "k_ext+2": 1e-12, "k_rho+2": 0.0},
    )
    rec["sigma_bar"] = -BETA_H * rec["qbar_h"] - BETA_C * rec["qbar_c"]
    rec.update(changes)
    return rec


def cool_record(delta_over_wcc: float, n_mean: float) -> dict:
    wcc = 5e-3
    return dict(ok=True, omega0=1.0, omegaL=1.0 + delta_over_wcc * wcc, omega_cc=wcc,
                d_h=5e-3, n_mean=n_mean, cc_flow_avg=1e-20)


@pytest.mark.parametrize("delta_over_wcc", [-1.75, -1.3, -1.0, -0.7, -0.55])
@pytest.mark.parametrize("d_h", [2e-3, 5e-3])
def test_sideband_formula_matches_the_oracle(delta_over_wcc, d_h):
    wcc = 5e-3
    delta = delta_over_wcc * wcc
    oracle = sideband_cooling_occupation(SidebandParams(delta=delta, gamma_decay=d_h, nu=wcc))
    assert checks.sideband_occupation(delta, d_h, wcc) == pytest.approx(oracle, rel=1e-12)


def test_sideband_formula_limit():
    wcc, d_h = 5e-3, 5e-4
    limit = d_h**2 / (16 * wcc**2)
    assert checks.sideband_occupation(-wcc, d_h, wcc) == pytest.approx(limit, rel=0.05)


@pytest.mark.parametrize("regime", ["I", "IV"])
def test_fig2_check_accepts_sound_points(regime):
    assert checks.check_fig2_point(fig2_record(regime)) == []


@pytest.mark.parametrize(
    "regime, changes, expected",
    [
        # a flipped heat-flow sign, with and without the work following it
        ("I", dict(qbar_h=-1.0e-6), "first law"),
        ("I", dict(qbar_c=0.95e-6, wbar=-1.95e-6), "second law"),
        ("I", dict(sigma_bar=-2.6e-5), "second law"),
        ("I", dict(omegaL=0.93), "above the reversible point"),
        ("IV", dict(omegaL=0.90), "below the reversible point"),
        ("I", dict(qbar_c=-0.05e-6, wbar=-0.95e-6), "Carnot"),
        ("IV", dict(qbar_c=0.2e-6, qbar_h=-0.21e-6, wbar=0.01e-6), "Carnot"),
        ("I", dict(qbar_h=-1e-7, wbar=1.05e-6), "regime I with flows"),
        ("I", dict(cc_flow_avg=2e-10), "mode-energy flow"),
        ("IV", dict(cc_flow_avg=-2e-10), "mode-energy flow"),
        ("I", dict(thermal_residual=0.2), "thermal residual"),
    ],
)
def test_fig2_check_rejects_corrupted_points(regime, changes, expected):
    found = checks.check_fig2_point(fig2_record(regime, **changes))
    assert any(expected in msg for msg in found), found


def test_certified_check():
    assert checks.check_certified(fig2_record("I")) == []
    assert checks.check_certified(fig2_record("I", converged=False))
    assert checks.check_certified(fig2_record("I", gates={}))
    bad_gate = {"n_fock+4": 1e-12, "k_ext+2": 2e-3, "k_rho+2": 0.0}
    assert any("k_ext+2" in m for m in checks.check_certified(fig2_record("I", gates=bad_gate)))


def test_lasercool_check():
    wcc = 5e-3
    for x in (-1.0, -0.7):
        n_ref = checks.sideband_occupation(x * wcc, 5e-3, wcc)
        assert checks.check_lasercool(cool_record(x, 1.05 * n_ref)) == []
        assert checks.check_lasercool(cool_record(x, 1.3 * n_ref))
        assert checks.check_lasercool(cool_record(x, 0.7 * n_ref))


def test_lasercool_check_holds_the_sideband_point_to_its_limit():
    wcc, d_h = 5e-3, 5e-3
    limit = d_h**2 / (16 * wcc**2)
    found = checks.check_lasercool(cool_record(-1.0, 2.5 * limit))
    assert any("sideband limit" in m for m in found), found
    # away from delta = -omega_cc only the formula applies
    n_ref = checks.sideband_occupation(-0.7 * wcc, d_h, wcc)
    found = checks.check_lasercool(cool_record(-0.7, 2.5 * n_ref))
    assert found and not any("sideband limit" in m for m in found), found


def test_regimes_present():
    both = [fig2_record("I"), fig2_record("IV")]
    assert checks.check_regimes_present(both) == []
    assert checks.check_regimes_present(both[:1]) == ["no regime IV point"]
    failed_iv = dict(both[1], ok=False)
    assert checks.check_regimes_present([both[0], failed_iv]) == ["no regime IV point"]


def _csv(regimes, extra=()):
    header = list(checks.CSV_COLUMNS) + list(extra)
    rows = []
    for r in regimes:
        cells = ["1.0"] * len(header)
        cells[header.index("regime")] = r
        rows.append(",".join(cells))
    return "\n".join([",".join(header)] + rows) + "\n"


def test_csv_check():
    recs = [{"ok": True}, {"ok": False}]
    assert checks.check_csv(_csv(["I", "error"]), "sweep", recs) == []
    assert checks.check_csv(_csv(["I", "error"], ("delta", "n_analytic")), "lasercool", recs) == []
    # failed row not marked error, solved row marked error
    assert checks.check_csv(_csv(["I", "III"]), "sweep", recs)
    assert checks.check_csv(_csv(["error", "error"]), "sweep", recs)
    # schema: a missing extra column, a dropped row, a short row
    assert checks.check_csv(_csv(["I", "error"]), "lasercool", recs)
    assert checks.check_csv(_csv(["I"]), "sweep", recs)
    short = _csv(["I", "error"]).replace(",1.0\n", "\n", 1)
    assert checks.check_csv(short, "sweep", recs)


def test_floqcc_csv_passes_the_schema_check():
    """The CSV floqcc renders for a failed row matches the schema the
    benchmark expects (a point that fails at once on n_fock_max=2)."""
    from dataclasses import replace

    from floqcc import RunConfig, run_point
    from floqcc.cli import render_csv

    cfg = replace(RunConfig(), mode="sweep", omegaL=0.85, n_fock=2, n_fock_max=2)
    p = run_point(cfg)
    assert not p.ok
    assert checks.check_csv(render_csv([p], "sweep"), "sweep", [{"ok": False}]) == []
