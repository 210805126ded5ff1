import math

import numpy as np
import pytest
from scipy.linalg import expm

from floqcc.bath import Ohmic, StructuredPeak
from floqcc.generator import heat_current
from floqcc.model import SIGMA_X, SIGMA_Z, PeriodicOperator
from floqcc.oracles import (
    CoolingError,
    PropagationError,
    SidebandParams,
    bare_qubit_secular_steady,
    one_period_propagator,
    propagate,
    sideband_cooling_occupation,
)

from conftest import fig2_spec, solve_pipeline


class TestSidebandCooling:
    def test_red_sideband_closed_form(self):
        # at delta = -nu the ratio reduces exactly to Gamma^2/(16 nu^2)
        for gamma, nu in ((5e-3, 5e-3), (1e-3, 5e-3), (2e-2, 0.1)):
            p = SidebandParams(delta=-nu, gamma_decay=gamma, nu=nu)
            assert sideband_cooling_occupation(p) == pytest.approx(
                gamma**2 / (16.0 * nu**2), rel=1e-12
            )

    def test_zero_detuning_no_cooling(self):
        with pytest.raises(CoolingError):
            sideband_cooling_occupation(SidebandParams(delta=0.0, gamma_decay=1e-2, nu=0.1))

    @staticmethod
    def _curve(gamma: float, nu: float, grid: np.ndarray) -> list[float]:
        vals = []
        for delta in grid:
            try:
                vals.append(sideband_cooling_occupation(
                    SidebandParams(delta=float(delta), gamma_decay=gamma, nu=nu)))
            except CoolingError:
                vals.append(np.inf)
        return vals

    def test_minimum_at_red_sideband_sharp_lines(self):
        # for Gamma << nu the resolved-sideband minimum sits at delta = -nu
        nu, gamma = 5e-3, 5e-4
        grid = np.linspace(-3.0 * nu, -0.2 * nu, 281)
        vals = self._curve(gamma, nu, grid)
        assert abs(grid[int(np.argmin(vals))] + nu) <= (grid[1] - grid[0])

    def test_minimum_near_red_sideband_fig5_parameters(self):
        # with Gamma = nu the lines are broad and the optimum shifts slightly
        # past the sideband; it must stay within ~0.15 nu of delta = -nu
        nu = gamma = 5e-3
        grid = np.linspace(-3.0 * nu, -0.2 * nu, 281)
        vals = self._curve(gamma, nu, grid)
        assert abs(grid[int(np.argmin(vals))] + nu) <= 0.15 * nu

    def test_mirrored_detuning_swaps_roles(self):
        # the lineshape is even, so delta -> -delta exchanges the heating and
        # cooling rates (same content as flipping the sign of nu)
        n = sideband_cooling_occupation(SidebandParams(delta=-0.01, gamma_decay=5e-3, nu=5e-3))
        assert n > 0
        with pytest.raises(CoolingError):
            sideband_cooling_occupation(SidebandParams(delta=+0.01, gamma_decay=5e-3, nu=5e-3))


class TestPropagate:
    def test_constant_hamiltonian_matches_expm(self, rng):
        d = 6
        h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = h + h.conj().T
        psi0 = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi0 /= np.linalg.norm(psi0)
        t_final = 3.7
        _, states = propagate(
            lambda t: h, psi0, (0.0, t_final), kind="schrodinger",
            t_eval=np.array([t_final]),
        )
        expected = expm(-1j * t_final * h) @ psi0
        assert np.max(np.abs(states[-1] - expected)) < 1e-9

    def test_unitarity_preserved(self, rng):
        spec = fig2_spec(0.75, n_fock=3)
        from floqcc.model import build_supersystem_fourier

        h = build_supersystem_fourier(spec)
        psi0 = rng.normal(size=h.dim) + 1j * rng.normal(size=h.dim)
        psi0 /= np.linalg.norm(psi0)
        ts = np.linspace(0.0, 3 * spec.period, 7)
        _, states = propagate(h, psi0, (0.0, ts[-1]), kind="schrodinger", t_eval=ts)
        for s in states:
            assert abs(np.linalg.norm(s) - 1.0) < 1e-10

    def test_lindblad_trace_preserved(self, rng):
        spec = fig2_spec(0.75, n_fock=3)
        _, _, liouv, rho, _ = solve_pipeline(spec, k_ext=8)
        d = liouv.dim
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        r0 = x @ x.conj().T
        r0 /= np.trace(r0)
        ts = np.linspace(0.0, 2 * spec.period, 5)
        _, states = propagate(
            liouv.matrix_at_time, r0.T.reshape(-1), (0.0, ts[-1]), kind="liouville",
            t_eval=ts, conservation_tol=1e-10,
        )
        traces = [np.trace(s.reshape(d, d).T) for s in states]
        assert max(abs(tr - 1.0) for tr in traces) < 1e-10

    def test_one_period_propagator_unitary(self):
        spec = fig2_spec(0.8, n_fock=3)
        from floqcc.model import build_supersystem_fourier

        u = one_period_propagator(build_supersystem_fourier(spec))
        np.testing.assert_allclose(u @ u.conj().T, np.eye(u.shape[0]), atol=1e-9)

    def test_failure_surfaces(self):
        with pytest.raises(PropagationError):
            propagate(
                lambda t: np.array([[1e12]], dtype=complex),
                np.array([1.0 + 0j]),
                (0.0, 1.0),
                kind="liouville",
                conservation_tol=1e-14,
            )


class TestBareQubitSecularOracle:
    J_COLD = StructuredPeak(d_c=1e-3, gamma=4e-4, omega_res=0.2)
    J_HOT = Ohmic(d_h=5e-3, omega_ref=1.0)

    def test_equal_temperature_equilibrium(self):
        qc, qh, w = bare_qubit_secular_steady(
            1.0, 0.2, 0.75, self.J_COLD, self.J_HOT, beta_c=5.0, beta_h=5.0
        )
        # no gradient and g = 0 means no flows at all
        qc0, qh0, w0 = bare_qubit_secular_steady(
            1.0, 0.0, 0.75, self.J_COLD, self.J_HOT, beta_c=5.0, beta_h=5.0
        )
        assert abs(qc0) < 1e-8 and abs(qh0) < 1e-8 and abs(w0) < 1e-8
        # driven at equal temperatures: work is dissipated, both flows out
        assert w > 0 and qc < 0 and qh < 0

    def test_first_law_by_construction(self):
        qc, qh, w = bare_qubit_secular_steady(
            1.0, 0.2, 0.75, self.J_COLD, self.J_HOT, beta_c=25.0, beta_h=2.2
        )
        assert qc + qh + w == pytest.approx(0.0, abs=1e-18)

    def test_matches_full_pipeline_when_cold_decouples(self):
        # d_c -> 0: the collective mode decouples from the qubit and the
        # supersystem's hot flow must approach the bare-qubit result
        g, omega_L = 0.2, 0.75
        tiny = StructuredPeak(d_c=1e-8, gamma=4e-4, omega_res=0.2)
        _, qh_oracle, _ = bare_qubit_secular_steady(
            1.0, g, omega_L, tiny, self.J_HOT, beta_c=25.0, beta_h=2.2
        )
        from floqcc.bath import map_collective_coordinate
        from floqcc.model import SupersystemSpec

        cc = map_collective_coordinate(tiny)
        spec = SupersystemSpec(
            omega0=1.0, g=g, omega_L=omega_L, omega_cc=cc.omega_cc, n_fock=6,
            lambda0=cc.lambda0, beta_h=2.2, beta_c=25.0, hot_bath=self.J_HOT,
            residual_bath=cc.residual, coupling_form="static",
        )
        h, fs, liouv, rho, info = solve_pipeline(spec, k_ext=14)
        qh_full = heat_current(liouv, rho, "hot")
        assert qh_full == pytest.approx(qh_oracle, rel=1e-2)
