import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from floqcc.model import PeriodicOperator
from floqcc.thermo import (
    Regime,
    RegimeError,
    build_report,
    carnot_cop,
    carnot_efficiency,
    classify_regime,
    effective_cc_temperature,
    entropy_production,
    first_law_work,
    occupation_statistics,
)


class TestFirstLaw:
    def test_closed_balance(self):
        assert first_law_work(0.0, 0.0) == 0.0

    def test_engine_arithmetic(self):
        assert first_law_work(-1.0, 3.0) == -2.0

    @given(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
    def test_closure_identity(self, qc, qh):
        assert qc + qh + first_law_work(qc, qh) == pytest.approx(0.0, abs=1e-9)


class TestEntropyProduction:
    def test_equilibrium(self):
        assert entropy_production(0.0, 0.0, 25.0, 2.22) == 0.0

    def test_heat_conduction(self):
        q = 0.7
        sigma = entropy_production(-q, q, 25.0, 2.22)
        assert sigma == pytest.approx((25.0 - 2.22) * q, rel=1e-12)
        assert sigma > 0

    def test_violation_flagged(self):
        with pytest.raises(RegimeError):
            entropy_production(1.0, 1.0, 25.0, 2.22)

    def test_bad_betas(self):
        with pytest.raises(ValueError):
            entropy_production(0.0, 0.0, 2.0, 3.0)


class TestEffectiveTemperature:
    def test_inverse_of_bose(self):
        n = 1.0 / (math.e - 1.0)
        assert effective_cc_temperature(n, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_ground_state_sentinel(self):
        assert effective_cc_temperature(0.0, 0.3) == math.inf

    def test_monotone_decreasing(self):
        grid = np.linspace(1e-4, 5.0, 200)
        vals = [effective_cc_temperature(n, 0.25) for n in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            effective_cc_temperature(-1e-3, 0.25)


class TestClassifyRegime:
    def test_paper_sign_patterns(self):
        assert classify_regime(-1.0, 3.0, -2.0) is Regime.I_HeatEngine
        assert classify_regime(1.0, -3.0, 2.0) is Regime.IV_Refrigerator
        assert classify_regime(-1.0, -1.0, 2.0) is Regime.III_Dissipator
        assert classify_regime(-3.0, 1.0, 2.0) is Regime.II_WorkAssistedPump

    def test_boundary_cases(self):
        tol = 1e-12
        assert classify_regime(0.0, 0.0, 0.0, tol) is Regime.Boundary
        assert classify_regime(-1.0, 1.0, 0.5 * tol, tol) is Regime.Boundary
        assert classify_regime(0.0, -2.0, 2.0, tol) is Regime.Boundary

    def test_second_law_violations_raise(self):
        with pytest.raises(RegimeError):
            classify_regime(1.0, 1.0, -2.0)  # work extracted while cooling
        with pytest.raises(RegimeError):
            classify_regime(1.0, 1.0, 2.0)  # both heats positive with work input

    @given(
        st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
    )
    def test_single_label_partition(self, qc, qh):
        w = -qc - qh
        try:
            regime = classify_regime(qc, qh, w, tol=1e-9)
        except RegimeError:
            return
        assert regime in Regime


class TestPerformance:
    def test_carnot_values_fig2(self):
        assert carnot_efficiency(25.0, 2.22) == pytest.approx(0.9112, abs=1e-10)
        assert carnot_cop(25.0, 2.22) == pytest.approx(0.09745390693590869, rel=1e-12)

    @staticmethod
    def _report(qbar_c, qbar_h):
        occ = occupation_statistics(thermal_density(40, 0.1), 40)
        return build_report(qbar_c, qbar_h, 0.25, 25.0, 2.22, occ)

    def test_engine_efficiency(self):
        rep = self._report(-1.0, 3.0)
        assert rep.regime is Regime.I_HeatEngine
        assert rep.eta == pytest.approx(2.0 / 3.0)
        assert rep.kappa is None

    def test_refrigerator_cop(self):
        # sigma = 2.22 * 3 - 25 * 0.1 > 0
        rep = self._report(0.1, -3.0)
        assert rep.regime is Regime.IV_Refrigerator
        assert rep.kappa == pytest.approx(0.1 / 2.9)
        assert rep.eta is None

    def test_undefined_outside_regimes(self):
        cases = [
            (-1.0, -1.0, Regime.III_Dissipator),
            (-3.0, 1.0, Regime.II_WorkAssistedPump),
            (0.0, 0.0, Regime.Boundary),
        ]
        for qbar_c, qbar_h, regime in cases:
            rep = self._report(qbar_c, qbar_h)
            assert rep.regime is regime
            assert rep.eta is None and rep.kappa is None
            assert rep.eta_carnot == carnot_efficiency(25.0, 2.22)
            assert rep.kappa_carnot == carnot_cop(25.0, 2.22)


def thermal_density(n_fock: int, n_mean: float) -> PeriodicOperator:
    x = n_mean / (1.0 + n_mean)
    p = (1 - x) * x ** np.arange(n_fock)
    p /= p.sum()
    rho = np.kron(np.diag([0.6, 0.4]), np.diag(p)).astype(complex)
    return PeriodicOperator(harmonics=rho[None], omega_L=1.0)


class TestOccupationStatistics:
    def test_thermal_state_residual_zero(self):
        rho = thermal_density(60, 0.4)
        occ = occupation_statistics(rho, 60)
        assert occ.n_mean == pytest.approx(0.4, rel=1e-10)
        assert occ.thermal_residual < 1e-8

    def test_fock_state(self):
        one = np.zeros(5)
        one[1] = 1.0
        rho = np.kron(np.diag([1.0, 0.0]), np.diag(one)).astype(complex)
        occ = occupation_statistics(
            PeriodicOperator(harmonics=rho[None], omega_L=1.0), 5
        )
        assert occ.n_mean == pytest.approx(1.0, abs=1e-12)
        assert occ.n_var == pytest.approx(0.0, abs=1e-12)
        assert occ.thermal_residual == pytest.approx(1.0, rel=1e-9)


class TestBuildReport:
    def test_engine_report(self):
        occ = occupation_statistics(thermal_density(40, 0.1), 40)
        rep = build_report(-1e-6, 3e-6, 0.25, 25.0, 2.22, occ)
        assert rep.regime is Regime.I_HeatEngine
        assert rep.wbar == pytest.approx(-2e-6)
        assert rep.sigma_bar > 0
        assert rep.eta == pytest.approx(2.0 / 3.0)
        assert rep.eta_carnot == pytest.approx(0.9112)
        assert rep.beta_cc == pytest.approx(math.log1p(1 / 0.1) / 0.25, rel=1e-9)

    def test_single_reservoir_report(self):
        occ = occupation_statistics(thermal_density(40, 0.1), 40)
        # beta_c is not read without a cold reservoir
        rep = build_report(math.nan, -2e-6, 0.005, 1.0, 1e4, occ)
        assert math.isnan(rep.qbar_c)
        assert rep.wbar == 2e-6
        assert rep.sigma_bar == -1e4 * -2e-6
        assert rep.beta_cc == effective_cc_temperature(occ.n_mean, 0.005)
        assert (rep.regime, rep.eta, rep.kappa, rep.eta_carnot, rep.kappa_carnot) == (
            None, None, None, None, None,
        )

    def test_single_reservoir_second_law(self):
        occ = occupation_statistics(thermal_density(40, 0.1), 40)
        with pytest.raises(RegimeError, match="only reservoir"):
            build_report(math.nan, 1e-6, 0.005, 1.0, 1e4, occ)
        # within sigma_tol of zero the point is still reported
        rep = build_report(math.nan, 1e-15, 0.005, 1.0, 1e4, occ)
        assert rep.sigma_bar == pytest.approx(-1e-11)
