import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floqcc.bath import (
    MappingError,
    Ohmic,
    QuadratureError,
    StructuredPeak,
    bose_occupation,
    map_collective_coordinate,
    mapping_integrals_numeric,
)
from floqcc.generator import thermal_rates


class TestEvaluate:
    def test_ohmic_at_reference(self):
        j = Ohmic(d_h=5e-3, omega_ref=2.0)
        assert j.evaluate(2.0) == pytest.approx(5e-3, rel=0, abs=0)

    def test_zero_frequency_limit(self):
        assert Ohmic(d_h=1.0, omega_ref=1.0).evaluate(0.0) == 0.0
        assert StructuredPeak(d_c=1e-3, gamma=1e-4, omega_res=0.3).evaluate(0.0) == 0.0

    def test_structured_peak_value(self):
        # at the peak the resonant denominator reduces to gamma^2 omega_res^2
        d_c, gamma, omega_res = 2e-3, 5e-4, 0.4
        j = StructuredPeak(d_c=d_c, gamma=gamma, omega_res=omega_res)
        assert j.evaluate(omega_res) == pytest.approx(d_c**2 / (gamma * omega_res), rel=1e-14)

    @pytest.mark.parametrize(
        "peak",
        [
            StructuredPeak(d_c=1e-3, gamma=4e-4, omega_res=0.25),  # Fig. 2 at omega_L 0.75
            StructuredPeak(d_c=0.05, gamma=5e-4, omega_res=0.2),  # criterion 9
        ],
    )
    def test_structured_peak_matches_the_squared_denominator(self, peak):
        # J = (d_c^2 gamma w / h) / h, h = hypot(w^2 - omega_res^2, gamma w),
        # is the closed form with the squares summed first
        w = np.concatenate([
            np.linspace(0.0, 4.0 * peak.omega_res, 401),
            peak.omega_res + np.linspace(-10.0, 10.0, 201) * peak.gamma,
        ])
        old = peak.d_c**2 * peak.gamma * w / ((w**2 - peak.omega_res**2) ** 2 + (peak.gamma * w) ** 2)
        np.testing.assert_allclose(peak.evaluate(w), old, rtol=1e-14, atol=0.0)

    def test_structured_peak_wide_gamma_does_not_overflow(self):
        # gamma w squared would overflow; the test suite turns the overflow
        # warning into an error
        j = StructuredPeak(d_c=1e-3, gamma=1e300, omega_res=0.4)
        value = j.evaluate(np.array([0.25, 1.0, 3.0]))
        assert np.all(np.isfinite(value)) and np.all(value > 0)
        assert 0 < j.evaluate(1.0) < math.inf

    def test_negative_frequency_rejected(self):
        j = Ohmic(d_h=1.0, omega_ref=1.0)
        with pytest.raises(ValueError):
            j.evaluate(-0.1)
        with pytest.raises(ValueError):
            StructuredPeak(d_c=1.0, gamma=0.1, omega_res=1.0).evaluate(-1e-12)

    @given(st.floats(min_value=1e-6, max_value=1e3))
    def test_positive_on_positive_axis(self, w):
        j = StructuredPeak(d_c=1e-3, gamma=4e-4, omega_res=0.25)
        assert j.evaluate(w) > 0
        assert Ohmic(d_h=5e-3, omega_ref=1.0).evaluate(w) > 0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Ohmic(d_h=-1.0, omega_ref=1.0)
        with pytest.raises(ValueError):
            StructuredPeak(d_c=1e-3, gamma=0.0, omega_res=0.3)


class TestCCMapping:
    def test_closed_form_values(self):
        d_c, gamma, omega_res = 1e-3, 4e-4, 0.25
        cc = map_collective_coordinate(StructuredPeak(d_c=d_c, gamma=gamma, omega_res=omega_res))
        assert cc.lambda0 == d_c
        assert cc.omega_cc == omega_res
        assert cc.delta_omega0 == pytest.approx(d_c / omega_res, rel=1e-14)
        # residual bath is Ohmic with slope gamma, independent of d_c
        assert cc.residual.slope_at_zero() == pytest.approx(gamma, rel=1e-14)

    def test_mapping_identity(self):
        cc = map_collective_coordinate(StructuredPeak(d_c=2e-3, gamma=1e-4, omega_res=0.4))
        assert cc.omega_cc * cc.delta_omega0 == pytest.approx(cc.lambda0, rel=1e-14)

    @given(st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=25)
    def test_scaling_invariance(self, alpha):
        base = StructuredPeak(d_c=1e-3, gamma=4e-4, omega_res=0.25)
        scaled = StructuredPeak(d_c=alpha * base.d_c, gamma=base.gamma, omega_res=base.omega_res)
        cc0 = map_collective_coordinate(base)
        cc1 = map_collective_coordinate(scaled)
        assert cc1.lambda0 == pytest.approx(alpha * cc0.lambda0, rel=1e-12)
        assert cc1.residual == cc0.residual
        assert cc1.omega_cc == cc0.omega_cc

    def test_validity_condition(self):
        # overdamped peak: 2 omega_res <= gamma
        with pytest.raises(MappingError):
            map_collective_coordinate(StructuredPeak(d_c=1e-3, gamma=1.0, omega_res=0.4))


class TestMappingQuadrature:
    def test_matches_closed_form_sharp_peak(self):
        # gamma / omega_res = 1e-3
        j = StructuredPeak(d_c=1e-3, gamma=2.5e-4, omega_res=0.25)
        lam, dom, wcc = mapping_integrals_numeric(j, cutoff=500 * j.omega_res)
        assert lam == pytest.approx(j.d_c, rel=1e-4)
        assert wcc == pytest.approx(j.omega_res, rel=1e-4)
        assert dom == pytest.approx(j.d_c / j.omega_res, rel=1e-4)

    def test_cutoff_doubling_stable(self):
        j = StructuredPeak(d_c=1e-3, gamma=2.5e-4, omega_res=0.25)
        a = mapping_integrals_numeric(j, cutoff=500 * j.omega_res)
        b = mapping_integrals_numeric(j, cutoff=1000 * j.omega_res)
        for x, y in zip(a, b):
            assert abs(x - y) / abs(x) < 1e-6

    @pytest.mark.parametrize("ratio", [1e-3, 3e-3, 1e-2])
    def test_agreement_property_small_width(self, ratio):
        omega_res = 0.3
        j = StructuredPeak(d_c=2e-3, gamma=ratio * omega_res, omega_res=omega_res)
        lam, dom, wcc = mapping_integrals_numeric(j, cutoff=800 * omega_res)
        cc = map_collective_coordinate(j)
        assert abs(lam - cc.lambda0) / cc.lambda0 < 1e-3
        assert abs(wcc - cc.omega_cc) / cc.omega_cc < 1e-3

    def test_nonconvergent_quadrature_raises(self):
        j = StructuredPeak(d_c=1e-3, gamma=1e-7, omega_res=0.25)
        with pytest.raises(QuadratureError):
            mapping_integrals_numeric(j, cutoff=100 * j.omega_res, quad_limit=2)

    def test_bad_cutoff_rejected(self):
        with pytest.raises(ValueError):
            mapping_integrals_numeric(Ohmic(d_h=1.0, omega_ref=1.0), cutoff=-1.0)


class TestBoseOccupation:
    def test_reference_value(self):
        assert bose_occupation(1.0, 1.0) == pytest.approx(1.0 / (math.e - 1.0), rel=1e-12)
        assert bose_occupation(1.0, 1.0) == pytest.approx(0.581977, abs=5e-7)

    def test_zero_temperature_limit(self):
        assert bose_occupation(1.0, 1e6) == 0.0

    @given(st.floats(min_value=1e-3, max_value=50.0))
    def test_negative_frequency_identity(self, w):
        beta = 2.0
        n = bose_occupation(w, beta)
        assert bose_occupation(-w, beta) == pytest.approx(-(1.0 + n), rel=1e-12)

    def test_detailed_balance_kernel(self):
        # the absorption rate at -w, J(-w) N(-w) of the odd-extended density,
        # is the emission rate at w
        j = StructuredPeak(d_c=1e-3, gamma=4e-4, omega_res=0.25)
        beta = 7.0
        for w in (0.05, 0.25, 1.3):
            lhs = thermal_rates(j, beta, -w)[0]
            rhs = j.evaluate(w) * (1.0 + bose_occupation(w, beta))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            bose_occupation(0.0, 1.0)
        with pytest.raises(ValueError):
            bose_occupation(1.0, 0.0)
