import math

import numpy as np
import pytest

from floqcc.bath import Ohmic
from floqcc.model import (
    SIGMA_X,
    SIGMA_Z,
    PeriodicOperator,
    SupersystemSpec,
    TruncationReport,
    build_coupling_operators,
    build_supersystem_fourier,
    cc_hamiltonian,
    destroy,
    fock_op,
    fock_truncation_check,
    number_operator,
    parity,
    qubit_op,
)

from conftest import fig2_spec


def hamiltonian_time_domain(spec: SupersystemSpec, t: float) -> np.ndarray:
    """Direct build of the mapped supersystem Hamiltonian at time t, written
    independently of the harmonic decomposition."""
    nf = spec.n_fock
    a = destroy(nf)
    h = spec.omega0 / 2.0 * qubit_op(SIGMA_Z, nf)
    h = h + spec.g * math.cos(spec.omega_L * t) * qubit_op(SIGMA_X, nf)
    h = h + spec.omega_cc * fock_op(a.conj().T @ a)
    if spec.coupling_form == "sinusoidal":
        s_c = math.sin(spec.omega_L * t) / math.sqrt(2.0 * spec.omega0)
    else:
        s_c = 1.0 / math.sqrt(2.0 * spec.omega0)
    coup = qubit_op(SIGMA_X, nf) @ fock_op(a + a.conj().T)
    return h - spec.lambda0 / math.sqrt(2.0 * spec.omega_cc) * s_c * coup


class TestPeriodicOperator:
    def test_matches_the_harmonic_sum(self):
        # a random centred stack, K = 3: O_k for |k| <= K and zero beyond,
        # O(t) the explicit sum at single times and at an array of them
        x_rng = np.random.default_rng(3)
        comps = x_rng.normal(size=(7, 4, 4)) + 1j * x_rng.normal(size=(7, 4, 4))
        op = PeriodicOperator(comps, omega_L=0.7)
        assert (op.max_harmonic, op.dim) == (3, 4)
        np.testing.assert_array_equal(op.average, comps[3])
        for k in range(-5, 6):
            want = comps[k + 3] if abs(k) <= 3 else np.zeros((4, 4))
            np.testing.assert_array_equal(op.component(k), want)
        times = np.array([0.0, 0.4, 3.1, 8.0])
        want = [sum(np.exp(1j * k * 0.7 * t) * comps[k + 3] for k in range(-3, 4)) for t in times]
        np.testing.assert_allclose(op.at_time(times), want, rtol=0, atol=1e-14)
        for t, w in zip(times, want):
            np.testing.assert_allclose(op.at_time(t), w, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("shape", [(8, 4, 4), (0, 4, 4), (4, 4), (3, 4, 5)])
    def test_rejects_a_stack_not_centred_on_zero(self, shape):
        # an even count has no middle slice to be k = 0; a 2-D array is one
        # matrix, not a stack of harmonics
        with pytest.raises(ValueError, match="odd number of square matrices"):
            PeriodicOperator(np.zeros(shape, dtype=complex), omega_L=0.7)


class TestSupersystemFourier:
    def test_undriven_decoupled_limit(self):
        spec = SupersystemSpec(
            omega0=1.0, g=0.0, omega_L=0.75, omega_cc=0.25, n_fock=5, lambda0=0.0,
            beta_h=2.0, beta_c=20.0, hot_bath=Ohmic(d_h=1e-3, omega_ref=1.0),
            residual_bath=Ohmic.from_slope(1e-4),
        )
        h = build_supersystem_fourier(spec)
        assert h.max_harmonic == 0 and h.harmonics.shape == (1, 10, 10)
        a = destroy(5)
        expected = 0.5 * qubit_op(SIGMA_Z, 5) + 0.25 * fock_op(a.conj().T @ a)
        np.testing.assert_allclose(h.component(0), expected, atol=1e-15)

    @pytest.mark.parametrize("form", ["sinusoidal", "static"])
    def test_reconstruction_matches_time_domain(self, form):
        spec = fig2_spec(0.75, n_fock=6, coupling_form=form)
        h = build_supersystem_fourier(spec)
        period = spec.period
        for t in (0.0, period / 4.0, period / 2.0, 0.3131 * period):
            direct = hamiltonian_time_domain(spec, t)
            np.testing.assert_allclose(h.at_time(t), direct, atol=1e-12)

    def test_hermitian_pairing_exact(self):
        h = build_supersystem_fourier(fig2_spec(0.8, n_fock=5))
        # max_k ||H_{-k} - H_k^dag||_max, zero for a Hermitian-periodic H(t)
        defect = max(
            float(np.max(np.abs(h.component(-k) - h.component(k).conj().T)))
            for k in range(-h.max_harmonic, h.max_harmonic + 1)
        )
        assert defect == 0.0
        np.testing.assert_array_equal(h.component(-1), h.component(1).conj().T)

    def test_linearity_in_drive_and_coupling(self):
        base = fig2_spec(0.75, n_fock=5)
        h1 = build_supersystem_fourier(base)
        from dataclasses import replace

        h2 = build_supersystem_fourier(replace(base, g=2 * base.g, lambda0=2 * base.lambda0))
        for k in (1, -1):
            np.testing.assert_allclose(h2.component(k), 2.0 * h1.component(k), atol=1e-18)
        np.testing.assert_allclose(h2.component(0), h1.component(0), atol=1e-18)

    def test_static_cold_moves_coupling_to_k0(self):
        sin = build_supersystem_fourier(fig2_spec(0.75, n_fock=5, coupling_form="sinusoidal"))
        sta = build_supersystem_fourier(fig2_spec(0.75, n_fock=5, coupling_form="static"))
        g = 1e-3
        # static: k = +-1 holds the drive only
        np.testing.assert_allclose(sta.component(1), g / 2.0 * qubit_op(SIGMA_X, 5), atol=1e-18)
        # sinusoidal: k = 0 holds no qubit-mode coupling
        diff = sin.component(0) - sta.component(0)
        assert np.max(np.abs(np.abs(diff))) > 0  # coupling really moved
        coup = qubit_op(SIGMA_X, 5) @ fock_op(destroy(5) + destroy(5).conj().T)
        lam, wcc, w0 = 1e-3, 0.25, 1.0
        expected = lam / (2.0 * math.sqrt(w0 * wcc)) * coup
        np.testing.assert_allclose(diff, expected, atol=1e-18)


class TestCouplingOperators:
    def test_hot_coupling_spectrum(self):
        spec = fig2_spec(0.75, n_fock=4)
        ops = build_coupling_operators(spec)
        evals = np.sort(np.linalg.eigvalsh(ops.s_hot))
        ref = 1.0 / math.sqrt(2.0 * spec.omega0)
        np.testing.assert_allclose(np.abs(evals), ref, atol=1e-14)
        np.testing.assert_allclose(ops.s_hot, ops.s_hot.conj().T, atol=1e-16)

    def test_cold_residual_tridiagonal(self):
        spec = fig2_spec(0.75, n_fock=5)
        ops = build_coupling_operators(spec)
        s = ops.s_cold_residual
        block = s[:5, :5]  # qubit-up block acts on the Fock factor
        scale = 1.0 / math.sqrt(2.0 * spec.omega_cc)
        for n in range(4):
            assert block[n, n + 1] == pytest.approx(math.sqrt(n + 1) * scale, rel=1e-14)
            assert block[n + 1, n] == pytest.approx(math.sqrt(n + 1) * scale, rel=1e-14)
        # nothing beyond the first off-diagonals
        assert np.max(np.abs(np.triu(block, 2))) == 0.0

    def test_hot_coupling_does_not_commute_with_qubit_term(self):
        spec = fig2_spec(0.75, n_fock=3)
        ops = build_coupling_operators(spec)
        h0 = 0.5 * qubit_op(SIGMA_Z, 3)
        comm = ops.s_hot @ h0 - h0 @ ops.s_hot
        assert np.max(np.abs(comm)) > 0.1

    def test_single_reservoir_mode(self):
        spec = SupersystemSpec(
            omega0=1.0, g=1e-4, omega_L=0.995, omega_cc=5e-3, n_fock=4, lambda0=1e-4,
            beta_h=1e4, beta_c=1e4, hot_bath=Ohmic(d_h=5e-3, omega_ref=1.0),
            residual_bath=None,
        )
        assert build_coupling_operators(spec).s_cold_residual is None


@pytest.mark.parametrize("form", ["sinusoidal", "static"])
def test_parity_is_a_half_period_symmetry(form):
    # Q H_k Q = (-1)^k H_k for every harmonic and Q S Q = +-S for each
    # coupling, with Q the diagonal the model declares, half of it -1
    spec = fig2_spec(0.75, n_fock=5, coupling_form=form)
    q = parity(spec)
    assert sorted(set(q)) == [-1.0, 1.0] and q.sum() == 0.0
    signs = np.outer(q, q)
    h = build_supersystem_fourier(spec)
    for k, hk in enumerate(h.harmonics, -h.max_harmonic):
        np.testing.assert_array_equal(signs * hk, (-1) ** k * hk)
    ops = build_coupling_operators(spec)
    # the hot coupling is odd; the cold one is even only when Q leaves the mode alone
    np.testing.assert_array_equal(signs * ops.s_hot, -ops.s_hot)
    cold_sign = 1 if form == "sinusoidal" else -1
    np.testing.assert_array_equal(signs * ops.s_cold_residual, cold_sign * ops.s_cold_residual)


class TestSpecValidation:
    def test_thermal_bias_enforced(self):
        with pytest.raises(ValueError, match="hotter"):
            SupersystemSpec(
                omega0=1.0, g=0.0, omega_L=0.75, omega_cc=0.25, n_fock=3, lambda0=0.0,
                beta_h=30.0, beta_c=20.0, hot_bath=Ohmic(d_h=1e-3, omega_ref=1.0),
                residual_bath=Ohmic.from_slope(1e-4),
            )

    def test_small_fock_rejected(self):
        with pytest.raises(ValueError, match="n_fock"):
            fig2_spec(0.75, n_fock=1)


class TestTruncationCheck:
    def _thermal_rho(self, n_fock: int, beta_omega: float) -> np.ndarray:
        p = np.exp(-beta_omega * np.arange(n_fock))
        p /= p.sum()
        qubit = np.diag([0.3, 0.7])
        return np.kron(qubit, np.diag(p))

    def test_cold_mode_passes(self):
        rho = self._thermal_rho(10, 4.0)
        rep = fock_truncation_check(rho, 10)
        assert isinstance(rep, TruncationReport)
        assert rep.passed and rep.top_population < 1e-6

    def test_hot_tiny_ladder_fails(self):
        rho = self._thermal_rho(2, 0.5)
        rep = fock_truncation_check(rho, 2)
        assert not rep.passed

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fock_truncation_check(np.eye(6), 4)


def test_cc_hamiltonian_and_number_operator():
    spec = fig2_spec(0.75, n_fock=4)
    np.testing.assert_allclose(
        cc_hamiltonian(spec), spec.omega_cc * number_operator(4), atol=1e-16
    )
