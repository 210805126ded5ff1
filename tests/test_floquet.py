import math
from dataclasses import replace

import numpy as np
import pytest

from floqcc import floquet, generator
from floqcc.bath import Ohmic, StructuredPeak, map_collective_coordinate
from floqcc.floquet import (
    FloquetConvergenceError,
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
from floqcc.generator import BathChannel
from floqcc.oracles import one_period_propagator, propagate

from conftest import fig2_spec


def undriven_spec(n_fock=4, omega_L=0.7, omega_cc=0.3):
    return SupersystemSpec(
        omega0=1.0, g=0.0, omega_L=omega_L, omega_cc=omega_cc, n_fock=n_fock,
        lambda0=0.0, beta_h=2.0, beta_c=20.0,
        hot_bath=Ohmic(d_h=1e-3, omega_ref=1.0),
        residual_bath=Ohmic.from_slope(1e-4),
    )


def static_spec(gamma=5e-4, n_fock=8):
    """Criterion 9's static coupling: a strong drive, g = 0.2, and a cold
    peak of d_c = 0.05 at omega_res = 0.2."""
    cc = map_collective_coordinate(StructuredPeak(d_c=0.05, gamma=gamma, omega_res=0.2))
    return SupersystemSpec(
        omega0=1.0, g=0.2, omega_L=0.75, omega_cc=cc.omega_cc, n_fock=n_fock,
        lambda0=cc.lambda0, beta_h=2.2, beta_c=25.0,
        hot_bath=Ohmic(d_h=5e-3, omega_ref=1.0), residual_bath=cc.residual,
        coupling_form="static",
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

    def test_convergence_error_when_ladder_too_small(self):
        # the drive's harmonics reach past a 2-block ladder
        spec = fig2_spec(0.75, n_fock=4)
        h = build_supersystem_fourier(spec)
        with pytest.raises(FloquetConvergenceError, match="edge weight") as err:
            solve_floquet(build_quasienergy_operator(h, spec.omega_L, 2))
        assert err.value.k_ext == 2
        assert err.value.edge_weight > floquet.EDGE_WEIGHT_BOUND

    def test_undriven_ladder_of_one_block_is_exact(self):
        # no drive: every copy sits on one block, however far the omega_cc
        # ladder reaches beyond the zone, so one block each side certifies
        spec = undriven_spec(n_fock=8, omega_L=0.3, omega_cc=0.45)
        h = build_supersystem_fourier(spec)
        fs = solve_floquet(build_quasienergy_operator(h, spec.omega_L, 1))
        assert fs.edge_weight == 0.0 and fs.edge_residual == 0.0
        bare = [s * 0.5 + p * 0.45 for s in (1, -1) for p in range(8)]
        np.testing.assert_allclose(np.sort(fs.energies), np.sort(bare), atol=1e-12)

    def test_certificate_refuses_the_static_ladder_of_four(self):
        # criterion 9's strong static coupling reaches past a ladder of 4
        h = build_supersystem_fourier(static_spec())
        with pytest.raises(FloquetConvergenceError, match="edge weight"):
            solve_floquet(build_quasienergy_operator(h, 0.75, 4))
        fs = solve_floquet(build_quasienergy_operator(h, 0.75, 8))
        assert fs.edge_weight <= floquet.EDGE_WEIGHT_BOUND
        assert fs.edge_residual <= floquet.EDGE_RESIDUAL_BOUND * 0.75

    def test_edge_residual_matches_a_wider_ladder(self):
        # the residual the certificate reads off Q's own blocks is what a
        # ladder K blocks wider gives, beyond the truncated one, for the
        # zero-padded modes (here K = 2 and complex harmonics)
        x_rng = np.random.default_rng(5)
        h1, h2 = (x_rng.normal(size=(3, 3)) + 1j * x_rng.normal(size=(3, 3)) for _ in range(2))
        h = PeriodicOperator(
            harmonics={0: np.diag([0.0, 0.35, 0.8]).astype(complex), 1: h1,
                       -1: h1.conj().T, 2: h2, -2: h2.conj().T},
            omega_L=0.7,
        )
        k = 3
        modes = x_rng.normal(size=(4, 2 * k + 1, 3)) + 1j * x_rng.normal(size=(4, 2 * k + 1, 3))
        wide = build_quasienergy_operator(h, 0.7, k + 2).matrix
        padded = np.zeros((4, 2 * k + 5, 3), dtype=complex)
        padded[:, 2:-2] = modes
        beyond = (padded.reshape(4, -1) @ wide.T).reshape(4, 2 * k + 5, 3)[:, [0, 1, -2, -1]]
        np.testing.assert_allclose(
            floquet._edge_residual(build_quasienergy_operator(h, 0.7, k), modes),
            np.sqrt(np.sum(np.abs(beyond) ** 2, axis=(1, 2))),
            rtol=1e-13,
        )

    def test_zone_modes_follow_the_folded_quasienergies(self):
        # the representatives keep their raw eigenvalues; folding shifts the
        # zone modes by e^{-i s w t}, and the t = 0 state matrix not at all
        spec = fig2_spec(0.615, n_fock=6)
        h = build_supersystem_fourier(spec)
        fs = solve_floquet(build_quasienergy_operator(h, spec.omega_L, 4))
        shifts = np.rint((fs.energies - fs.quasienergies) / spec.omega_L)
        assert np.any(shifts != 0)
        assert np.all(np.diff(fs.quasienergies) >= 0)
        t = 0.37
        raw = np.tensordot(np.exp(1j * np.arange(-4, 5) * spec.omega_L * t), fs.modes, axes=(0, 1)).T
        np.testing.assert_allclose(
            fs.state_matrix_at_time(t), raw * np.exp(-1j * shifts * spec.omega_L * t), atol=1e-15
        )
        np.testing.assert_allclose(fs.mode_at_time(2, t), fs.state_matrix_at_time(t)[:, 2], atol=1e-15)


class TestRelabellingInvariance:
    """The certified k_ext = 4 solution of a Fig. 2 point against a k_ext =
    16 one: the kept copies differ only by where they sit on the ladder, so
    the physics they give agrees within what the certificate allows."""

    @pytest.fixture(scope="class")
    def pair(self):
        spec = fig2_spec(0.615, n_fock=12)
        h = build_supersystem_fourier(spec)
        small = solve_floquet(build_quasienergy_operator(h, spec.omega_L, 4))
        large = solve_floquet(build_quasienergy_operator(h, spec.omega_L, 16))
        return spec, small, large

    def test_zone_quasienergies(self, pair):
        spec, small, large = pair
        np.testing.assert_allclose(
            small.quasienergies, large.quasienergies, rtol=0, atol=1e-12 * spec.omega_L
        )

    def channels(self, spec):
        ops = build_coupling_operators(spec)
        return [
            BathChannel("hot", ops.s_hot, spec.hot_bath, beta=spec.beta_h),
            BathChannel("cold", ops.s_cold_residual, spec.residual_bath, beta=spec.beta_c),
        ]

    def test_jump_frequencies(self, pair):
        spec, small, large = pair
        for ch in self.channels(spec):
            found = []
            for fs in (small, large):
                jd = decompose_operator(ch.coupling, fs)
                found.append(np.sort(jd.delta[np.abs(jd.amplitude) > 1e-8]))
            assert found[0].shape == found[1].shape, ch.name
            np.testing.assert_allclose(found[0], found[1], rtol=0, atol=1e-12 * spec.omega_L)

    def test_kernel_harmonics(self, pair):
        # the k_ext = 4 certificate's residual, 5e-12, bounds the agreement:
        # measured 1e-11 of the largest harmonic, and a cold harmonic of
        # 6e-12 kept on one side only, just above the 3e-12 prune floor
        spec, small, large = pair
        zero = np.zeros((small.dim, small.dim))
        for ch in self.channels(spec):
            got = generator._channel_kernels(ch, decompose_operator(ch.coupling, small), small)
            ref = generator._channel_kernels(ch, decompose_operator(ch.coupling, large), large)
            for a, b in ((got.g1, ref.g1), (got.g2, ref.g2)):
                peak = max(np.max(np.abs(m)) for m in b.values())
                for q in set(a) | set(b):
                    diff = np.max(np.abs(a.get(q, zero) - b.get(q, zero)))
                    assert diff <= 1e-10 * peak, (ch.name, q)


def flux_loop_hamiltonian(omega_L=0.7):
    """d = 3 ring whose hoppings t, t, i t enclose a flux: no diagonal phase
    change makes H_0, or its Sambe lift, real."""
    h0 = np.diag([0.0, 0.35, 0.8]).astype(complex)
    for i, j, t in ((0, 1, 0.1), (1, 2, 0.1), (2, 0, 0.1j)):
        h0[i, j] = t
        h0[j, i] = np.conj(t)
    drive = 0.05 * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
    return PeriodicOperator(harmonics={0: h0, 1: drive, -1: drive}, omega_L=omega_L)


class TestRealGauge:
    @pytest.fixture
    def eigh_dtypes(self, monkeypatch):
        """dtypes of every matrix np.linalg.eigh receives."""
        seen = []
        real_eigh = np.linalg.eigh

        def spy(a, *args, **kwargs):
            seen.append(a.dtype)
            return real_eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        return seen

    SPECS = {
        "sinusoidal": lambda: fig2_spec(0.75, n_fock=4),
        "static": lambda: fig2_spec(0.75, n_fock=4, coupling_form="static"),
        "no residual bath": lambda: replace(fig2_spec(0.75, n_fock=4), residual_bath=None),
    }

    @pytest.mark.parametrize("case", SPECS)
    def test_model_is_diagonalized_real(self, case, eigh_dtypes):
        spec = self.SPECS[case]()
        h = build_supersystem_fourier(spec)
        solve_floquet(build_quasienergy_operator(h, spec.omega_L, 8))
        assert eigh_dtypes == [np.dtype(np.float64)]

    # t = 0 projector agreement; the static case's Sambe spectrum has a 9e-7
    # gap, across which a 1e-16 relative perturbation of Q already moves the
    # complex solver's projectors by 2e-9
    PROJECTOR_TOL = {"sinusoidal": 1e-10, "static": 1e-8, "no residual bath": 1e-10}

    @pytest.mark.parametrize("case", SPECS)
    def test_matches_complex_eigh(self, case, monkeypatch):
        spec = self.SPECS[case]()
        h = build_supersystem_fourier(spec)
        q = build_quasienergy_operator(h, spec.omega_L, 8)
        real, phase = floquet._real_form(q.matrix)
        w = spec.omega_L
        np.testing.assert_allclose(
            np.linalg.eigvalsh(real), np.linalg.eigvalsh(q.matrix), rtol=0, atol=1e-12 * w
        )
        np.testing.assert_allclose(np.abs(phase), 1.0, rtol=0, atol=1e-15)
        fs = solve_floquet(q)
        monkeypatch.setattr(floquet, "_real_form", lambda a: (a, None))
        ref = solve_floquet(q)
        np.testing.assert_allclose(fs.quasienergies, ref.quasienergies, rtol=0, atol=1e-12 * w)
        v, v_ref = fs.state_matrix_at_time(0.0), ref.state_matrix_at_time(0.0)
        for r in range(fs.dim):
            np.testing.assert_allclose(
                np.outer(v[:, r], v[:, r].conj()),
                np.outer(v_ref[:, r], v_ref[:, r].conj()),
                rtol=0, atol=self.PROJECTOR_TOL[case],
            )

    def test_flux_loop_stays_complex(self, eigh_dtypes):
        h = flux_loop_hamiltonian()
        q = build_quasienergy_operator(h, h.omega_L, 10)
        matrix, phase = floquet._real_form(q.matrix)
        assert phase is None and matrix is q.matrix
        fs = solve_floquet(q)
        assert eigh_dtypes == [np.dtype(np.complex128)]
        period = 2.0 * math.pi / h.omega_L
        u = one_period_propagator(h)
        eps_u = np.sort(fold_to_zone(-np.angle(np.linalg.eigvals(u)) / period, h.omega_L))
        assert np.max(np.abs(eps_u - np.sort(fs.quasienergies))) / h.omega_L < 1e-6


class TestDecomposeOperator:
    def test_identity_decomposition(self, monkeypatch):
        spec = fig2_spec(0.75, n_fock=4)
        h = build_supersystem_fourier(spec)
        fs = solve_floquet(build_quasienergy_operator(h, spec.omega_L, 8))
        monkeypatch.setattr(floquet, "AMPLITUDE_FLOOR", 1e-9)
        jd = decompose_operator(np.eye(h.dim, dtype=complex), fs)
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
    def test_matches_per_harmonic_loop(self, floor, monkeypatch):
        """Values and entry order against a loop over n that keeps each
        harmonic's entries above the floor in row-major (r, r') order."""
        spec = fig2_spec(0.75, n_fock=3)
        h = build_supersystem_fourier(spec)
        fs = solve_floquet(build_quasienergy_operator(h, spec.omega_L, 8))
        s = build_coupling_operators(spec).s_hot
        n_default = len(decompose_operator(s, fs))
        monkeypatch.setattr(floquet, "AMPLITUDE_FLOOR", floor)
        jd = decompose_operator(s, fs)

        n_window = 2 * fs.k_ext
        u = fs.modes
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
        eps = fs.energies
        np.testing.assert_array_equal(jd.r_idx, r_idx)
        np.testing.assert_array_equal(jd.rp_idx, rp_idx)
        np.testing.assert_array_equal(jd.n_idx, n_idx)
        np.testing.assert_array_equal(jd.amplitude, np.array(amplitude))
        np.testing.assert_array_equal(
            jd.delta, eps[r_idx] - eps[rp_idx] + n_idx * fs.omega_L
        )
        assert 0 < len(jd) < (2 * n_window + 1) * fs.dim**2
        if floor > 1e-12:  # the higher floor drops entries the default keeps
            assert len(jd) < n_default
