import math

import numpy as np
import pytest

from floqcc.bath import Ohmic
from floqcc.floquet import (
    DegeneracyError,
    build_quasienergy_operator,
    decompose_operator,
    fold_to_zone,
    solve_floquet,
)
from floqcc.model import (
    SIGMA_X,
    SIGMA_Z,
    PeriodicOperator,
    SupersystemSpec,
    build_coupling_operators,
    build_supersystem_fourier,
)
from floqcc.oracles import one_period_propagator, propagate

from conftest import fig2_spec


def undriven_spec(n_fock=4, omega_L=0.7, omega_cc=0.3):
    return SupersystemSpec(
        omega0=1.0, g=0.0, omega_L=omega_L, omega_cc=omega_cc, n_fock=n_fock,
        lambda0=0.0, beta_h=2.0, beta_c=20.0,
        hot_bath=Ohmic(d_h=1e-3, omega_ref=1.0),
        residual_bath=Ohmic.from_slope(1e-4),
    )


class TestExtendedOperator:
    def test_time_independent_block_diagonal(self):
        h = build_supersystem_fourier(undriven_spec())
        q = build_quasienergy_operator(h, 0.7, 3)
        h0 = h.component(0)
        d = h.dim
        for m in range(-3, 4):
            np.testing.assert_allclose(
                q.block(m, m), h0 + m * 0.7 * np.eye(d), atol=1e-15
            )
        assert np.max(np.abs(q.block(1, 0))) == 0.0

    def test_hermitian_and_toeplitz(self):
        h = build_supersystem_fourier(fig2_spec(0.75, n_fock=4))
        q = build_quasienergy_operator(h, 0.75, 5)
        assert np.max(np.abs(q.matrix - q.matrix.conj().T)) < 1e-14
        h1 = h.component(1)
        for m in range(-4, 5):
            np.testing.assert_allclose(q.block(m + 1, m), h1, atol=1e-16)

    def test_small_window_rejected(self):
        h = build_supersystem_fourier(fig2_spec(0.75, n_fock=3))
        with pytest.raises(ValueError):
            build_quasienergy_operator(h, 0.75, 0)


class TestFolding:
    def test_zone_interval(self):
        w = 0.9
        vals = np.array([-3.0, -0.45, -0.4499999, 0.0, 0.45, 1.35, 2.0])
        folded = fold_to_zone(vals, w)
        assert np.all(folded > -w / 2 - 1e-12)
        assert np.all(folded <= w / 2 + 1e-12)
        assert fold_to_zone(0.45, w) == pytest.approx(0.45)   # upper edge included
        assert fold_to_zone(-0.45, w) == pytest.approx(0.45)  # lower edge maps up

    def test_shift_invariance_of_folded_set(self):
        h = build_supersystem_fourier(fig2_spec(0.8, n_fock=4))
        fs = solve_floquet(build_quasienergy_operator(h, 0.8, 8))
        eps = fs.quasienergies
        refolded = np.sort(fold_to_zone(eps + 0.8, 0.8))
        np.testing.assert_allclose(refolded, np.sort(eps), atol=1e-12)


class TestSolveFloquet:
    def test_undriven_spectrum(self):
        spec = undriven_spec(n_fock=4)
        h = build_supersystem_fourier(spec)
        fs = solve_floquet(build_quasienergy_operator(h, spec.omega_L, 8))
        expected = []
        for s in (+1, -1):
            for p in range(4):
                expected.append(fold_to_zone(s * 0.5 + p * 0.3, 0.7))
        np.testing.assert_allclose(
            np.sort(fs.quasienergies), np.sort(expected), atol=1e-12
        )

    def test_propagator_oracle_driven(self):
        spec = fig2_spec(0.75, n_fock=6)
        h = build_supersystem_fourier(spec)
        fs = solve_floquet(build_quasienergy_operator(h, spec.omega_L, 10))
        u = one_period_propagator(h)
        period = spec.period
        eps_u = np.sort(fold_to_zone(-np.angle(np.linalg.eigvals(u)) / period, spec.omega_L))
        err = np.max(np.abs(eps_u - np.sort(fs.quasienergies)))
        assert err / spec.omega_L < 1e-6

    def test_orthonormality_completeness_parseval(self):
        spec = fig2_spec(0.75, n_fock=6)
        h = build_supersystem_fourier(spec)
        fs = solve_floquet(build_quasienergy_operator(h, spec.omega_L, 10))
        assert fs.orthonormality_defect() < 1e-8
        assert fs.completeness_defect_t0() < 1e-6
        norms = np.sum(np.abs(fs.modes) ** 2, axis=(1, 2))
        np.testing.assert_allclose(norms, 1.0, atol=1e-10)

    def test_k_ext_convergence(self):
        spec = fig2_spec(0.75, n_fock=6)
        h = build_supersystem_fourier(spec)
        a = solve_floquet(build_quasienergy_operator(h, spec.omega_L, 10))
        b = solve_floquet(build_quasienergy_operator(h, spec.omega_L, 12))
        assert np.max(np.abs(np.sort(a.quasienergies) - np.sort(b.quasienergies))) < 1e-8

    def test_mode_satisfies_floquet_equation(self):
        # (H(t) - i d/dt)|r(t)> = eps |r(t)> checked by finite differences
        spec = fig2_spec(0.75, n_fock=4)
        h = build_supersystem_fourier(spec)
        fs = solve_floquet(build_quasienergy_operator(h, spec.omega_L, 8))
        t, dt = 1.234, 1e-6
        for r in (0, 3, 5):
            psi = fs.mode_at_time(r, t)
            dpsi = (fs.mode_at_time(r, t + dt) - fs.mode_at_time(r, t - dt)) / (2 * dt)
            lhs = h.at_time(t) @ psi - 1j * dpsi
            np.testing.assert_allclose(lhs, fs.quasienergies[r] * psi, atol=1e-7)

    def test_degeneracy_error_when_ladder_too_small(self):
        # omega_cc ladder reaches far beyond a 1-block window
        spec = undriven_spec(n_fock=8, omega_L=0.3, omega_cc=0.45)
        h = build_supersystem_fourier(spec)
        with pytest.raises((DegeneracyError, Exception)):
            solve_floquet(build_quasienergy_operator(h, spec.omega_L, 1))


class TestDecomposeOperator:
    def test_identity_decomposition(self):
        spec = fig2_spec(0.75, n_fock=4)
        h = build_supersystem_fourier(spec)
        fs = solve_floquet(build_quasienergy_operator(h, spec.omega_L, 8))
        jd = decompose_operator(np.eye(h.dim, dtype=complex), fs, amplitude_floor=1e-9)
        assert np.all(jd.r_idx == jd.rp_idx)
        assert np.all(jd.n_idx == 0)
        np.testing.assert_allclose(jd.amplitude, 1.0, atol=1e-8)
        np.testing.assert_allclose(jd.delta, 0.0, atol=1e-12)

    def test_hermitian_pairing(self):
        spec = fig2_spec(0.75, n_fock=4)
        h = build_supersystem_fourier(spec)
        fs = solve_floquet(build_quasienergy_operator(h, spec.omega_L, 8))
        ops = build_coupling_operators(spec)
        jd = decompose_operator(ops.s_hot, fs)
        table = {
            (int(r), int(rp), int(n)): a
            for r, rp, n, a in zip(jd.r_idx, jd.rp_idx, jd.n_idx, jd.amplitude)
        }
        for (r, rp, n), a in table.items():
            partner = table.get((rp, r, -n))
            assert partner is not None
            assert partner == pytest.approx(np.conj(a), rel=1e-12, abs=1e-15)

    def test_interaction_picture_reconstruction(self):
        spec = fig2_spec(0.75, n_fock=4)
        h = build_supersystem_fourier(spec)
        fs = solve_floquet(build_quasienergy_operator(h, spec.omega_L, 8))
        ops = build_coupling_operators(spec)
        v0 = fs.state_matrix_at_time(0.0)
        t = spec.period / 3.0
        _, states = propagate(
            h, np.eye(h.dim, dtype=complex), (0.0, t), kind="schrodinger",
            rtol=1e-12, atol=1e-14, t_eval=np.array([t]), conservation_tol=None,
        )
        u = states[-1]
        for s in (ops.s_hot, ops.s_cold_residual):
            direct = u.conj().T @ s @ u
            jd = decompose_operator(s, fs)
            rec = np.zeros_like(direct)
            for e in range(len(jd)):
                rec += (
                    jd.amplitude[e]
                    * np.exp(1j * jd.delta[e] * t)
                    * np.outer(v0[:, jd.r_idx[e]], v0[:, jd.rp_idx[e]].conj())
                )
            assert np.max(np.abs(direct - rec)) < 1e-6

    @pytest.mark.parametrize("floor", [1e-12, 1e-3])
    def test_matches_per_harmonic_loop(self, floor):
        """Values and entry order against a loop over n that keeps each
        harmonic's entries above the floor in row-major (r, r') order."""
        spec = fig2_spec(0.75, n_fock=3)
        h = build_supersystem_fourier(spec)
        fs = solve_floquet(build_quasienergy_operator(h, spec.omega_L, 8))
        s = build_coupling_operators(spec).s_hot
        jd = decompose_operator(s, fs, amplitude_floor=floor)

        k = fs.k_ext
        k_int = k - math.ceil(k / 4)
        n_window = min(2 * k_int, k)
        u = fs.modes[:, k - k_int : k + k_int + 1, :]
        su = np.einsum("ij,rmj->rmi", s, u)
        nm = u.shape[1]
        r_idx, rp_idx, n_idx, amplitude = [], [], [], []
        for n in range(-n_window, n_window + 1):
            left = u[:, max(0, -n) : nm - max(0, n)]
            right = su[:, max(0, n) : nm - max(0, -n)]
            amp = np.einsum("rmi,smi->rs", left.conj(), right)
            r, rp = np.nonzero(np.abs(amp) > floor)
            r_idx.extend(r)
            rp_idx.extend(rp)
            n_idx.extend([n] * r.size)
            amplitude.extend(amp[r, rp])
        r_idx, rp_idx, n_idx = np.array(r_idx), np.array(rp_idx), np.array(n_idx)
        eps = fs.quasienergies
        np.testing.assert_array_equal(jd.r_idx, r_idx)
        np.testing.assert_array_equal(jd.rp_idx, rp_idx)
        np.testing.assert_array_equal(jd.n_idx, n_idx)
        np.testing.assert_array_equal(jd.amplitude, np.array(amplitude))
        np.testing.assert_array_equal(
            jd.delta, eps[r_idx] - eps[rp_idx] + n_idx * fs.omega_L
        )
        assert 0 < len(jd) < (2 * n_window + 1) * fs.dim**2
        if floor > 1e-12:  # the higher floor drops entries the default keeps
            assert len(jd) < len(decompose_operator(s, fs))

    def test_window_validation(self):
        spec = fig2_spec(0.75, n_fock=3)
        h = build_supersystem_fourier(spec)
        fs = solve_floquet(build_quasienergy_operator(h, spec.omega_L, 8))
        with pytest.raises(ValueError):
            decompose_operator(np.eye(h.dim), fs, n_window=40)
