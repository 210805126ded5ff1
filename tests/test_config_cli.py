import inspect
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import floqcc
from floqcc import pipeline
from floqcc.bath import Ohmic, StructuredPeak
from floqcc.cli import CSV_COLUMNS, _build_parser, main, render_csv, render_json
from floqcc.config import (
    CONVERGENCE_MODES,
    COUPLING_FORMS,
    SOLVER_METHODS,
    SWEEP_VARIABLES,
    ConfigError,
    RunConfig,
    apply_overrides,
    config_to_dict,
    known_keys,
    parse_config_text,
)
from floqcc.generator import SteadyStateError
from floqcc.model import fock_truncation_check
from floqcc.modes import MODES
from floqcc.oracles import SidebandParams, bare_qubit_secular_steady, sideband_cooling_occupation
from floqcc.pipeline import run_point, run_sweep, sweep_values

FAST_POINT = [
    "--solver.n_fock", "6",
    "--solver.convergence", "fast",
]


class TestConfigParsing:
    def test_round_trip_text(self):
        text = """
        # Fig.-style sweep
        run.mode = sweep
        model.g = 0.001
        bath.cold.d_c = 0.002
        sweep.steps = 7
        sweep.resonance_lock = true
        """
        cfg = parse_config_text(text)
        assert cfg.mode == "sweep"
        assert cfg.d_c == 0.002
        assert cfg.sweep_steps == 7
        assert cfg.resonance_lock is True

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("bath.cold.dc = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("model.g = 1\nmodel.g = 2\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("solver.n_fock = many\n")
        with pytest.raises(ConfigError):
            parse_config_text("sweep.resonance_lock = maybe\n")

    def test_validation_errors(self):
        with pytest.raises(ConfigError, match="beta"):
            replace(RunConfig(), beta_c=-3.0).validate()
        with pytest.raises(ConfigError, match="hotter"):
            replace(RunConfig(), beta_h=30.0).validate()
        with pytest.raises(ConfigError, match="omega_res"):
            replace(RunConfig(), mode="lasercool").validate()

    @pytest.mark.parametrize("mode", ["steady", "sweep", "phase", "benchmark", "map"])
    def test_unlocked_peak_needs_omega_res(self, mode):
        # every mode that maps a structured cold bath needs its centre once
        # the resonance lock is off, instead of locking it silently
        cfg = replace(RunConfig(), mode=mode, resonance_lock=False)
        with pytest.raises(ConfigError, match="without sweep.resonance_lock"):
            cfg.validate()
        replace(cfg, omega_res=0.25).validate()

    def test_unlocked_map_without_omega_res_exit_2(self, capsys):
        assert main(["map", "--sweep.resonance_lock", "false"]) == 2
        assert "without sweep.resonance_lock" in capsys.readouterr().err

    def test_modes_are_one_set(self):
        # the subcommands, the README's run.mode line and the mode table
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        line = re.search(r"^run\.mode\s+(.*)$", readme, re.M).group(1)
        sub = next(a for a in _build_parser()._actions if a.dest == "command")
        assert set(sub.choices) == {m.strip() for m in line.split("|")} == set(MODES)

    def test_enumerations_are_one_set(self):
        # the README's "key (a|b|c)" groups and the values validate accepts
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("### Config keys", 1)[1].split("```")[1]
        groups = re.findall(r"([a-z0-9_.]+) \(([^)]*\|[^)]*)\)", block)
        assert {key: set(values.split("|")) for key, values in groups} == {
            "model.coupling_form": set(COUPLING_FORMS),
            "solver.method": set(SOLVER_METHODS),
            "solver.convergence": set(CONVERGENCE_MODES),
            "sweep.variable": set(SWEEP_VARIABLES),
        }

    @pytest.mark.parametrize(
        "key",
        ["model.coupling_form", "solver.method", "solver.convergence", "sweep.variable",
         "sweep2.variable"],
    )
    def test_enumerated_key_names_the_rejected_value(self, key):
        cfg = apply_overrides(RunConfig(), {key: "bogus"})
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be one of \(.*\), got 'bogus'$"):
            cfg.validate()

    def test_retired_svd_method_exit_2(self, capsys):
        assert main(["steady", "--solver.method", "svd"] + FAST_POINT) == 2
        assert (
            "solver.method must be one of ('auto', 'lu', 'gmres'), got 'svd'"
            in capsys.readouterr().err
        )

    @pytest.mark.parametrize("key", ["bath.cold.d_c", "bath.cold.gamma"])
    def test_mapped_cold_bath_needs_a_positive_peak(self, key, capsys):
        # the structured peak needs a strength and a width on every mode that
        # maps it; lasercool reads bath.cold.d_c as lambda0, which may be 0
        assert main(["steady", f"--{key}", "0"] + FAST_POINT) == 2
        assert f"{key} must be finite and > 0, got 0.0" in capsys.readouterr().err
        for name, mode in MODES.items():
            cfg = apply_overrides(replace(RunConfig(), mode=name, omega_res=5e-3), {key: "0"})
            if mode.maps_cold_bath:
                with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be finite and > 0"):
                    cfg.validate()
            else:
                cfg.validate()

    def test_n_fock_within_ceiling(self):
        RunConfig(n_fock=32, n_fock_max=32).validate()
        with pytest.raises(ConfigError, match=r"<= solver.n_fock_max \(32\), got 40"):
            RunConfig(n_fock=40).validate()
        with pytest.raises(ConfigError, match=r"solver.n_fock must be >= 2"):
            RunConfig(n_fock=1).validate()
        with pytest.raises(ConfigError, match=r"<= solver.n_fock_max \(1\), got 2"):
            RunConfig(n_fock=2, n_fock_max=1).validate()

    @pytest.mark.parametrize(
        "inner, outer", [("delta", "omegaL"), ("omegaL", "delta"), ("d_c", "d_c")]
    )
    def test_phase_axes_set_different_fields(self, inner, outer):
        cfg = replace(RunConfig(), mode="phase", sweep_variable=inner, sweep2_variable=outer)
        with pytest.raises(ConfigError, match="phase grid"):
            cfg.validate()
        # only the phase grid has an outer axis
        replace(cfg, mode="sweep").validate()

    def test_overrides(self):
        cfg = apply_overrides(RunConfig(), {"model.g": "0.25", "solver.method": "lu"})
        assert cfg.g == 0.25
        assert cfg.method == "lu"
        with pytest.raises(ConfigError):
            apply_overrides(RunConfig(), {"model.gg": "1"})

    def test_dict_round_trip(self):
        cfg = replace(RunConfig(), mode="phase", g=0.007, sweep_steps=3)
        text = {key: str(value) for key, value in config_to_dict(cfg).items()}
        assert apply_overrides(RunConfig(), text) == cfg

    def test_readme_lists_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("### Config keys", 1)[1].split("```")[1]
        assert set(re.findall(r"\b[a-z0-9]+(?:\.[A-Za-z0-9_]+)+", block)) == set(known_keys())

    def test_retired_threshold_keys_rejected(self):
        # thresholds that are module constants, not settings
        for name in ("amplitude_floor", "positivity_tol", "trace_tol", "regime_tol", "sigma_tol"):
            with pytest.raises(ConfigError, match=f"unknown configuration key 'solver.{name}'"):
                apply_overrides(RunConfig(), {f"solver.{name}": "1e-10"})

    @pytest.mark.parametrize(
        "key, defaults",
        [
            ("trunc_threshold", [(fock_truncation_check, "threshold")]),
        ],
    )
    def test_library_defaults_match_config(self, key, defaults):
        for func, name in defaults:
            default = inspect.signature(func).parameters[name].default
            assert default == getattr(RunConfig(), key), (func.__name__, name)


class TestEmission:
    @staticmethod
    def _tiny_sweep():
        cfg = replace(
            RunConfig(),
            mode="sweep",
            sweep_start=0.75,
            sweep_stop=0.8,
            sweep_steps=2,
            n_fock=6,
            convergence="off",
        )
        return cfg, run_sweep(cfg)

    def test_csv_deterministic(self):
        cfg, result = self._tiny_sweep()
        a = render_csv(result.points, cfg.mode)
        _, result2 = self._tiny_sweep()
        b = render_csv(result2.points, cfg.mode)
        assert a == b

    def test_csv_header_fixed_order(self):
        cfg, result = self._tiny_sweep()
        header = render_csv(result.points, cfg.mode).splitlines()[0]
        assert header == (
            "omegaL,omega_cc,d_c,gamma,g,beta_c,beta_h,qbar_c,qbar_h,wbar,"
            "sigma_bar,beta_cc,n_mean,n_var,regime,eta,kappa,converged"
        )

    @pytest.mark.parametrize("mode", ["lasercool", "benchmark"])
    def test_extra_columns_start_with_the_config_extras(self, mode):
        # then come the state extras: a solved row's extras are the mode
        # record's alone; the report stand-in has the one field they read
        extras = MODES[mode].config_extras(replace(RunConfig(), mode=mode))
        state = MODES[mode].state_extras(extras, SimpleNamespace(qbar_h=2.0))
        assert [*extras, *state] == list(MODES[mode].extra_columns)

    @pytest.mark.parametrize(
        "mode, extra",
        [
            ("steady", []),
            ("sweep", []),
            ("phase", []),
            ("lasercool", ["delta", "n_analytic"]),
            ("benchmark", ["qbar_h_oracle", "qbar_c_oracle", "rel_dev_qh"]),
        ],
    )
    def test_header_is_fixed_columns_plus_mode_extras(self, mode, extra):
        assert render_csv([], mode) == ",".join(CSV_COLUMNS + extra) + "\n"

    def test_empty_sweep_header_only(self):
        assert render_csv([], "sweep").strip().count("\n") == 0

    def test_json_round_trips_config(self):
        cfg, result = self._tiny_sweep()
        doc = json.loads(render_json(cfg, result.points))
        text = {key: str(value) for key, value in doc["config"].items()}
        assert apply_overrides(RunConfig(), text) == cfg
        assert len(doc["rows"]) == 2
        assert doc["rows"][0]["error"] is None

    def test_sweep_subset_reproduces_rows(self):
        cfg = replace(
            RunConfig(), mode="sweep", sweep_start=0.72, sweep_stop=0.84,
            sweep_steps=3, n_fock=6, convergence="off",
        )
        full = run_sweep(cfg)
        values = sweep_values(cfg.sweep_start, cfg.sweep_stop, cfg.sweep_steps)
        single = run_point(replace(cfg, omegaL=float(values[1])))
        row_full = render_csv([full.points[1]], "sweep")
        row_single = render_csv([single], "sweep")
        assert row_full == row_single


class TestProcessPool:
    CFG = replace(
        RunConfig(), mode="sweep", sweep_start=0.75, sweep_stop=0.85, sweep_steps=3,
        n_fock=2, convergence="off",
    )

    def test_pooled_sweep_matches_serial(self, monkeypatch):
        serial = run_sweep(self.CFG).points
        monkeypatch.setenv("FLOQCC_WORKERS", "2")
        first, second = (run_sweep(self.CFG).points for _ in range(2))
        assert render_csv(first, "sweep") == render_csv(second, "sweep")
        assert render_json(self.CFG, first) == render_json(self.CFG, second)
        # the children run with one BLAS thread, so the last digits may differ
        assert [p.config for p in first] == [p.config for p in serial]
        assert all(p.ok for p in serial + first)
        lines = [render_csv(points, "sweep").splitlines() for points in (serial, first)]
        for row_serial, row_pooled in zip(*lines):
            for a, b in zip(row_serial.split(","), row_pooled.split(",")):
                try:
                    assert float(b) == pytest.approx(float(a), rel=1e-10, nan_ok=True)
                except ValueError:
                    assert a == b

    def test_bad_worker_count_exit_2(self, monkeypatch, capsys):
        monkeypatch.setenv("FLOQCC_WORKERS", "x")
        assert main(["sweep", "--sweep.steps", "3"] + FAST_POINT) == 2
        assert "FLOQCC_WORKERS must be an integer, got 'x'" in capsys.readouterr().err


class TestSweepGrid:
    @pytest.mark.parametrize(
        "variable, value, field, expected",
        [
            ("omegaL", 0.8, "omegaL", 0.8),
            ("d_c", 0.003, "d_c", 0.003),
            ("gamma", 2e-4, "gamma", 2e-4),
            ("delta", -0.25, "omegaL", 0.75),
        ],
    )
    def test_point_config(self, variable, value, field, expected):
        cfg = replace(RunConfig(), omega0=1.0, omegaL=0.6)
        point_cfg = pipeline._point_config(cfg, variable, np.float64(value))
        assert getattr(point_cfg, field) == expected
        assert type(getattr(point_cfg, field)) is float
        assert point_cfg == replace(cfg, **{field: expected})

    def test_every_point_is_validated_before_solving(self, monkeypatch):
        # the last two points' gamma leave the valid domain; nothing may be
        # solved before the sweep is refused
        def spy(cfg):
            raise AssertionError("run_point called before the grid was validated")

        monkeypatch.setattr(pipeline, "run_point", spy)
        cfg = replace(
            RunConfig(), mode="sweep", sweep_variable="gamma", sweep_start=4e-4,
            sweep_stop=-4e-4, sweep_steps=3,
        )
        with pytest.raises(ConfigError, match="gamma must be finite and > 0, got 0.0"):
            run_sweep(cfg)

    def test_phase_grid_is_row_major(self):
        # a coarse Fock truncation: the test checks the grid order, not the physics
        cfg = replace(
            RunConfig(), mode="phase", sweep_variable="omegaL", sweep_start=0.75,
            sweep_stop=0.8, sweep_steps=3, sweep2_variable="d_c", sweep2_start=1e-3,
            sweep2_stop=2e-3, sweep2_steps=2, n_fock=2, n_fock_max=3,
            trunc_threshold=0.1, convergence="off",
        )
        result = run_sweep(cfg)
        outer = sweep_values(cfg.sweep2_start, cfg.sweep2_stop, cfg.sweep2_steps)
        inner = sweep_values(cfg.sweep_start, cfg.sweep_stop, cfg.sweep_steps)
        assert [(p.config.d_c, p.config.omegaL) for p in result.points] == [
            (float(d_c), float(omega_l)) for d_c in outer for omega_l in inner
        ]
        assert result.n_failed == 0


class TestResonanceLock:
    def test_lock_recomputes_mapping_per_point(self):
        cfg = replace(RunConfig(), mode="steady", omegaL=0.8, n_fock=6, convergence="off")
        point = run_point(cfg)
        assert point.omega_cc == pytest.approx(0.2, abs=1e-15)

    def test_unlocked_uses_explicit_peak(self):
        cfg = replace(
            RunConfig(), mode="steady", omegaL=0.75, omega_res=0.3, n_fock=8,
            resonance_lock=False, convergence="off",
        )
        point = run_point(cfg)
        assert point.omega_cc == pytest.approx(0.3, abs=1e-15)

    def test_lock_failure_flagged(self):
        cfg = replace(RunConfig(), mode="steady", omegaL=1.2, n_fock=6)
        point = run_point(cfg)
        assert not point.ok
        assert "omega_res" in point.error


class TestFockEscalation:
    def test_last_step_tries_the_maximum(self):
        # 1e-19 is missed at n_fock 12 (top population 1.6e-18); a step of 4
        # would pass the maximum 14, so the escalation lands on it
        cfg = replace(RunConfig(), mode="steady", n_fock_max=14, trunc_threshold=1e-19)
        point = run_point(cfg)
        assert point.ok, point.error
        assert point.diagnostics.n_fock == 14

    def test_failure_at_the_maximum(self):
        cfg = replace(RunConfig(), mode="steady", n_fock_max=12, trunc_threshold=1e-19)
        point = run_point(cfg)
        assert not point.ok
        assert "at n_fock=12 (max reached)" in point.error


class TestCompletenessFailure:
    def test_message_names_the_overlapping_pair(self, capsys):
        # at d_c 1e-9 two Floquet states, one omega_L apart unfolded, share a
        # quasienergy to 3.3e-13 and overlap 9.27e-3 at t = 0: the failure
        # names that pair after the defect
        argv = ["steady", "--bath.cold.d_c", "1e-9", "--solver.convergence", "off"]
        assert main(argv) == 1
        out = capsys.readouterr().out
        match = re.search(
            r"FAILED: \[floquet\] Floquet completeness defect (\S+) > 1e-6: states (\d+) and "
            r"(\d+) overlap (\S+) at t = 0, quasienergy gap (\S+)\n", out
        )
        assert match, out
        defect, r, s, overlap, gap = match.groups()
        assert (int(r), int(s)) == (9, 10)
        assert float(defect) == float(overlap) == pytest.approx(9.27e-3, rel=1e-3)
        assert float(gap) < 1e-11


class TestFailedRows:
    """A failed point keeps every column the configuration alone determines."""

    @staticmethod
    def _row(point, mode):
        header, row = render_csv([point], mode).splitlines()
        return dict(zip(header.split(","), row.split(",")))

    @pytest.mark.parametrize("method", ["lu", "gmres"])
    def test_nonfinite_generator_is_a_failed_row(self, monkeypatch, method):
        # a nan in one kernel harmonic fails that point with a named cause on
        # every route, and the sweep goes on to the next point
        real = pipeline._generator_stage

        def poisoned(cfg, spec, floq):
            liouv = real(cfg, spec, floq)
            if cfg.omegaL == 0.75:
                next(iter(liouv.channels["hot"].g1.values()))[0, 0] = math.nan
            return liouv

        monkeypatch.setattr(pipeline, "_generator_stage", poisoned)
        cfg = replace(
            RunConfig(), mode="sweep", sweep_start=0.75, sweep_stop=0.8, sweep_steps=2,
            n_fock=6, k_rho=2, convergence="off", method=method,
        )
        first, second = run_sweep(cfg).points
        assert first.error.startswith("[generator] non-finite generator: nan or inf in hot kernel q=")
        assert second.ok, second.error
        row = self._row(first, "sweep")
        assert row["converged"] == "false"

    def test_lasercool_failed_row_keeps_delta(self):
        # a cooled mode cannot be held in two Fock levels: cheap, certain failure
        cfg = replace(
            RunConfig(), mode="lasercool", omegaL=0.995, g=2e-4, d_c=1.13e-4,
            omega_res=5e-3, beta_h=1e4, beta_c=1e4, resonance_lock=False,
            n_fock=2, n_fock_max=2, convergence="off",
        )
        point = run_point(cfg)
        assert not point.ok
        assert "top Fock occupancy" in point.error
        delta = cfg.omegaL - cfg.omega0
        assert point.extras["delta"] == delta
        row = self._row(point, "lasercool")
        assert row["regime"] == "error"
        assert row["n_mean"] == "nan"
        assert float(row["delta"]) == pytest.approx(delta, rel=1e-12)
        assert float(row["n_analytic"]) == pytest.approx(
            sideband_cooling_occupation(
                SidebandParams(delta=delta, gamma_decay=cfg.d_h, nu=cfg.omega_res)
            ),
            rel=1e-12,
        )

    @pytest.mark.parametrize("n_fock", [2, 12])
    def test_lasercool_row_has_no_cold_bath(self, n_fock):
        # the cold reservoir is the undamped mode: no peak width, no temperature
        cfg = replace(
            RunConfig(), mode="lasercool", omegaL=0.995, g=2e-4, d_c=1.13e-4,
            omega_res=5e-3, beta_h=1e4, beta_c=1e4, resonance_lock=False,
            n_fock=n_fock, n_fock_max=n_fock, convergence="off",
        )
        point = run_point(cfg)
        assert point.ok == (n_fock == 12), point.error
        row = self._row(point, "lasercool")
        assert row["gamma"] == "0.000000000000e+00"
        assert row["beta_c"] == "nan"
        assert float(row["d_c"]) == cfg.d_c

    def test_benchmark_failed_row_keeps_oracle(self):
        cfg = replace(
            RunConfig(), mode="benchmark", omegaL=0.75, g=0.2, d_c=0.05,
            gamma=5e-4, omega_res=0.2, beta_h=2.2, resonance_lock=False,
            coupling_form="static", n_fock=2, n_fock_max=2, convergence="off",
        )
        point = run_point(cfg)
        assert not point.ok
        assert "top Fock occupancy" in point.error
        qc_o, qh_o, _ = bare_qubit_secular_steady(
            cfg.omega0, cfg.g, cfg.omegaL,
            StructuredPeak(d_c=cfg.d_c, gamma=cfg.gamma, omega_res=cfg.omega_res),
            Ohmic(d_h=cfg.d_h, omega_ref=cfg.omega0), cfg.beta_c, cfg.beta_h,
        )
        assert point.extras["qbar_h_oracle"] == qh_o
        assert point.extras["qbar_c_oracle"] == qc_o
        assert "rel_dev_qh" not in point.extras
        row = self._row(point, "benchmark")
        assert float(row["qbar_h_oracle"]) == pytest.approx(qh_o, rel=1e-12)
        assert float(row["qbar_c_oracle"]) == pytest.approx(qc_o, rel=1e-12)
        assert row["rel_dev_qh"] == "nan"


class TestSingularGenerator:
    """g = 0 and d_c = 0 leave the mode uncoupled and undamped, so every
    mode population is stationary and the direct factorization is singular."""

    CFG = replace(
        RunConfig(), mode="lasercool", omegaL=0.995, g=0.0, d_c=0.0, omega_res=5e-3,
        beta_h=1e4, beta_c=1e4, resonance_lock=False, n_fock=12, n_fock_max=12,
        convergence="off",
    )

    def test_point_is_a_failed_row(self):
        point = run_point(self.CFG)
        assert not point.ok
        assert point.error.startswith("[generator]")
        assert "singular" in point.error

    def test_sweep_reports_instead_of_crashing(self):
        cfg = replace(
            self.CFG, sweep_variable="delta", sweep_start=-5e-3, sweep_stop=-5e-3,
            sweep_steps=1,
        )
        with pytest.raises(SteadyStateError, match="all 1 sweep points failed"):
            run_sweep(cfg)


class TestRefinementGates:
    def test_gates_match_independent_solves(self, monkeypatch):
        calls = {"solve_floquet": 0, "build_liouvillian": 0}
        for name in calls:
            original = getattr(pipeline, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(pipeline, name, counted)
        cfg = replace(RunConfig(), mode="steady", omegaL=0.8, n_fock=6, convergence="full")
        point = run_point(cfg)
        assert point.ok and point.converged
        # base, n_fock+4 and the k_ext+2 gate's own solve; k_rho+2 re-solves
        # the base generator
        assert calls == {"solve_floquet": 3, "build_liouvillian": 3}

        d = point.diagnostics
        base = np.array([point.report.qbar_c, point.report.qbar_h])
        refinements = {
            "k_rho+2": dict(k_ext=d.k_ext, k_rho=d.k_rho + 2),
            "k_ext+2": dict(k_ext=d.k_ext + 2),
        }
        for tag, fields in refinements.items():
            ref = run_point(replace(cfg, convergence="off", n_fock=d.n_fock, **fields))
            flows = np.array([ref.report.qbar_c, ref.report.qbar_h])
            rel = np.max(np.abs(flows - base)) / np.max(np.abs(base))
            assert d.gates[tag] == pytest.approx(rel, rel=1e-12, abs=1e-15), tag

    def test_rho_tail_reaches_json(self, tmp_path):
        js = tmp_path / "out.json"
        assert main(["steady", "--model.omegaL", "0.85", "--output.json", str(js)]) == 0
        conv = json.loads(js.read_text())["rows"][0]["convergence"]
        tail = conv["rho_tail"]
        assert len(tail) == conv["k_rho"] >= 2
        assert tail[0] > 0
        assert all(b < 1e-2 * a for a, b in zip(tail, tail[1:]))

    def test_iterations_reach_json(self, tmp_path):
        iterations = {}
        for method in ("lu", "gmres"):
            js = tmp_path / f"{method}.json"
            code = main(
                ["steady", "--model.omegaL", "0.8", "--solver.method", method,
                 "--output.json", str(js)] + FAST_POINT
            )
            assert code == 0
            conv = json.loads(js.read_text())["rows"][0]["convergence"]
            assert conv["method"] == method
            iterations[method] = conv["iterations"]
        assert iterations["lu"] == 0
        assert iterations["gmres"] > 0

    def test_lasercool_gmres_matches_lu(self):
        # solver.method=gmres on a single reservoir iterates around its exact
        # |n| <= 1 centre and lands on the direct solve
        cfg = replace(
            RunConfig(), mode="lasercool", omegaL=0.995, g=2e-4, d_c=1.13e-4,
            omega_res=5e-3, beta_h=1e4, beta_c=1e4, resonance_lock=False,
            n_fock=12, convergence="off",
        )
        gm = run_point(replace(cfg, method="gmres"))
        lu = run_point(replace(cfg, method="lu"))
        assert gm.ok, gm.error
        assert (gm.diagnostics.method, lu.diagnostics.method) == ("gmres", "lu")
        assert gm.diagnostics.iterations > 0
        assert gm.report.n_mean == pytest.approx(lu.report.n_mean, rel=1e-10)
        assert gm.report.qbar_h == pytest.approx(lu.report.qbar_h, rel=1e-10)

    def test_gmres_stall_is_a_failed_row(self, stalled_gmres, tmp_path):
        js = tmp_path / "out.json"
        code = main(
            ["steady", "--model.omegaL", "0.8", "--solver.method", "gmres",
             "--output.json", str(js)] + FAST_POINT
        )
        assert code == 1
        row = json.loads(js.read_text())["rows"][0]
        assert row["error"] == "[generator] stalled on purpose"
        assert row["values"]["converged"] == "false"
        assert row["convergence"] == {}


class TestLadderCertificate:
    def test_certificate_reaches_json(self, tmp_path):
        js = tmp_path / "out.json"
        code = main(
            ["steady", "--model.omegaL", "0.85", "--solver.k_ext", "2",
             "--output.json", str(js)] + FAST_POINT
        )
        assert code == 0
        conv = json.loads(js.read_text())["rows"][0]["convergence"]
        assert conv["k_ext"] == 4
        assert 0 <= conv["edge_weight"] <= 1e-10
        assert 0 <= conv["edge_residual"] <= 1e-8 * 0.85
        [refused] = conv["k_ext_trail"]
        assert refused["k_ext"] == 2
        assert refused["edge_weight"] > 1e-10

    def test_certificate_climbs_on_the_static_coupling(self):
        # criterion 9's static coupling needs k_ext 8; the certified ladder
        # gives the q_h of a fixed k_ext = 16 one
        cfg = replace(
            RunConfig(), mode="benchmark", omegaL=0.75, g=0.2, d_c=0.05, gamma=1e-3,
            omega_res=0.2, beta_c=25.0, beta_h=2.2, resonance_lock=False,
            coupling_form="static", n_fock=8, convergence="off",
        )
        point = run_point(cfg)
        fixed = run_point(replace(cfg, k_ext=16))
        assert point.ok and fixed.ok
        assert point.diagnostics.k_ext >= 8
        assert [t["k_ext"] for t in point.diagnostics.k_ext_trail] == [4, 6]
        assert fixed.diagnostics.k_ext == 16 and fixed.diagnostics.k_ext_trail == []
        assert point.report.qbar_h == pytest.approx(fixed.report.qbar_h, rel=1e-10)

    def test_one_eigh_per_fast_point(self, monkeypatch):
        shapes = []
        real_eigh = np.linalg.eigh

        def spy(a, *args, **kwargs):
            shapes.append(a.shape)
            return real_eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        point = run_point(replace(RunConfig(), omegaL=0.85))
        assert point.ok and point.diagnostics.k_ext_trail == []
        assert len(shapes) == 1


@pytest.fixture
def numpy_blas():
    """Thread count of numpy's own OpenBLAS, set to 2 for the test (a
    caller's count the pin must restore) and put back afterwards."""
    blas = pipeline._numpy_openblas()
    if blas is None:
        pytest.skip("numpy has no OpenBLAS of its own apart from scipy's: run_point pins nothing")
    get, put = blas
    before = get()
    put(2)
    yield get
    put(before)


class TestNumpyBlasPin:
    CFG = replace(RunConfig(), mode="sweep", omegaL=0.715)

    @pytest.mark.parametrize("outcome", ["solved", "failed row", "raised"])
    def test_one_thread_while_a_point_runs(self, numpy_blas, monkeypatch, outcome):
        seen = []
        real_stage = pipeline._steady_stage

        def stage(*args):
            seen.append(numpy_blas())
            if outcome == "failed row":
                raise pipeline.PointFailure("generator", "forced failure")
            if outcome == "raised":
                raise RuntimeError("forced exception")
            return real_stage(*args)

        monkeypatch.setattr(pipeline, "_steady_stage", stage)
        if outcome == "raised":
            with pytest.raises(RuntimeError, match="forced exception"):
                run_point(self.CFG)
        else:
            assert run_point(self.CFG).ok == (outcome == "solved")
        assert seen and set(seen) == {1}
        assert numpy_blas() == 2

    def test_nested_holds_restore_once(self, numpy_blas):
        with pipeline._one_numpy_blas_thread():
            with pipeline._one_numpy_blas_thread():
                assert numpy_blas() == 1
            assert numpy_blas() == 1
        assert numpy_blas() == 2

    def test_concurrent_points_restore_the_callers_count(self, numpy_blas, monkeypatch):
        # more threads than cores, all inside run_point at once
        n_threads = 4
        inside = threading.Barrier(n_threads, timeout=60)
        seen, results = [], []
        real_stage = pipeline._steady_stage

        def stage(*args):
            seen.append(numpy_blas())
            inside.wait()
            return real_stage(*args)

        monkeypatch.setattr(pipeline, "_steady_stage", stage)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=lambda: results.append(run_point(self.CFG)))
                for _ in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == n_threads and all(p.ok for p in results)
        assert len(seen) >= n_threads and set(seen) == {1}
        assert numpy_blas() == 2

    def test_pin_changes_no_result(self, monkeypatch):
        pinned = run_point(self.CFG)
        monkeypatch.setattr(pipeline, "_numpy_openblas", lambda: None)
        unpinned = run_point(self.CFG)
        assert pinned.ok and unpinned.ok
        assert pinned.report.regime == unpinned.report.regime
        for name in ("qbar_h", "qbar_c", "wbar"):
            a, b = getattr(pinned.report, name), getattr(unpinned.report, name)
            assert a == pytest.approx(b, rel=1e-10), name


class TestCLI:
    def test_steady_writes_outputs(self, tmp_path, capsys):
        csv = tmp_path / "out.csv"
        js = tmp_path / "out.json"
        code = main(
            ["steady", "--model.omegaL", "0.8", "--output.csv", str(csv),
             "--output.json", str(js)] + FAST_POINT
        )
        assert code == 0
        lines = csv.read_text().splitlines()
        assert len(lines) == 2
        doc = json.loads(js.read_text())
        assert doc["config"]["model.omegaL"] == 0.8
        assert "regime" in doc["rows"][0]["values"]

    def test_config_file_and_override(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("model.omegaL = 0.75\nsolver.n_fock = 6\n")
        csv = tmp_path / "o.csv"
        code = main(["steady", str(path), "--model.omegaL", "0.8",
                     "--solver.convergence", "off", "--output.csv", str(csv)])
        assert code == 0
        row = csv.read_text().splitlines()[1].split(",")
        assert float(row[0]) == 0.8  # override wins over the file

    def test_malformed_config_exit_2(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("bath.beta_c = -1\n")
        assert main(["steady", str(path)]) == 2
        path.write_text("nonsense.key = 3\n")
        assert main(["steady", str(path)]) == 2
        assert main(["steady", "/does/not/exist.txt"]) == 2

    def test_map_subcommand(self, capsys):
        code = main(
            ["map", "--bath.cold.d_c", "0.001", "--bath.cold.gamma", "0.0004",
             "--bath.cold.omega_res", "0.25"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "lambda0" in out and "0.001" in out

    def test_map_uses_the_solve_mapping(self, capsys):
        # the resonance lock (on by default) puts the peak at omega0 - omegaL,
        # as in every steady/sweep solve, whatever omega_res says
        code = main(["map", "--bath.cold.omega_res", "0.25", "--model.omegaL", "0.8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "omega_res=0.2\n" in out
        assert "omega_cc      = 0.2\n" in out

    @pytest.mark.parametrize(
        "flags, cause",
        [
            (["--model.omegaL", "1.2"], "omega_res must be finite and > 0"),
            (["--bath.cold.gamma", "1.0", "--bath.cold.omega_res", "0.25"],
             "analytic mapping requires"),
        ],
    )
    def test_map_failure_exit_1(self, capsys, flags, cause):
        assert main(["map"] + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and cause in err

    def test_import_skips_quadrature(self):
        # no solve uses scipy.integrate, which would dominate the import time;
        # only the quadrature check of `map` and the time-domain oracles load it
        src = str(Path(floqcc.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        probe = "import sys, floqcc, floqcc.cli; print('scipy.integrate' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"

    def test_numerical_failure_exit_1(self):
        # resonance lock at omegaL > omega0 cannot map the cold bath
        code = main(["steady", "--model.omegaL", "1.5"] + FAST_POINT)
        assert code == 1

    def test_oversized_sambe_ladder_is_a_failed_row(self, capsys):
        # k_ext 100000 asks for a 114 TiB Sambe matrix; it is refused before
        # allocation as a [floquet] row, not a MemoryError traceback.  The
        # first call also loads what the pipeline imports lazily, so the
        # second one's traced peak is the refusal's own
        argv = ["steady", "--solver.k_ext", "100000", "--solver.n_fock", "2"]
        assert main(argv) == 1
        tracemalloc.start()
        try:
            assert main(argv) == 1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        assert out.startswith("FAILED: [floquet] Sambe matrix at k_ext=100000 (side ")
        assert "reduce k_ext" in out and "Traceback" not in out + err
        assert peak < 1_000_000
