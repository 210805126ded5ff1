import json
import math
from dataclasses import replace

import numpy as np
import pytest

from floqcc import generator, pipeline
from floqcc.bath import Ohmic, StructuredPeak
from floqcc.cli import main, render_csv, render_json
from floqcc.config import (
    ConfigError,
    RunConfig,
    apply_overrides,
    config_from_dict,
    config_to_dict,
    parse_config_text,
)
from floqcc.generator import SteadyStateError
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

    def test_overrides(self):
        cfg = apply_overrides(RunConfig(), {"model.g": "0.25", "solver.method": "lu"})
        assert cfg.g == 0.25
        assert cfg.method == "lu"
        with pytest.raises(ConfigError):
            apply_overrides(RunConfig(), {"model.gg": "1"})

    def test_dict_round_trip(self):
        cfg = replace(RunConfig(), mode="phase", g=0.007, sweep_steps=3)
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg


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
        cfg = replace(RunConfig(), mode=mode)
        columns = [c for c in pipeline.EXTRA_COLUMNS[mode] if c != "rel_dev_qh"]
        assert list(pipeline._config_extras(cfg)) == columns

    def test_empty_sweep_header_only(self):
        assert render_csv([], "sweep").strip().count("\n") == 0

    def test_json_round_trips_config(self):
        cfg, result = self._tiny_sweep()
        doc = json.loads(render_json(cfg, result.points))
        assert config_from_dict(doc["config"]) == cfg
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


class TestFailedRows:
    """A failed point keeps every column the configuration alone determines."""

    @staticmethod
    def _row(point, mode):
        header, row = render_csv([point], mode).splitlines()
        return dict(zip(header.split(","), row.split(",")))

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
        # base and drift gate, then only n_fock+4 solves again; k_rho+2
        # re-solves the base generator
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

    def test_fallback_reason_reaches_json(self, monkeypatch, tmp_path):
        def stalled(liouv, k_rho, inner=None):
            raise SteadyStateError("stalled on purpose")

        monkeypatch.setattr(generator, "_solve_bordered_gmres", stalled)
        js = tmp_path / "out.json"
        code = main(
            ["steady", "--model.omegaL", "0.8", "--solver.method", "gmres",
             "--output.json", str(js)] + FAST_POINT
        )
        assert code == 0
        conv = json.loads(js.read_text())["rows"][0]["convergence"]
        assert conv["method"] == "lu"
        assert conv["fallback"] == "gmres: stalled on purpose"


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

    def test_numerical_failure_exit_1(self):
        # resonance lock at omegaL > omega0 cannot map the cold bath
        code = main(["steady", "--model.omegaL", "1.5"] + FAST_POINT)
        assert code == 1
