import dataclasses
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from floqcc import generator, pipeline
from floqcc.bath import Ohmic, StructuredPeak, bose_occupation
from floqcc.config import RunConfig
from floqcc.floquet import (
    FloquetSolution,
    build_quasienergy_operator,
    decompose_operator,
    solve_floquet,
)
from floqcc.generator import (
    BathChannel,
    DegenerateSteadyStateError,
    SteadyStateError,
    build_liouvillian,
    heat_current,
    periodic_average_rate,
    secular_rate_solution,
    steady_state,
    thermal_rates,
)
from floqcc.model import (
    SupersystemSpec,
    build_coupling_operators,
    build_supersystem_fourier,
    cc_hamiltonian,
    number_operator,
    parity,
)

from conftest import (
    LASERCOOL,
    block_system_dense,
    build_pipeline_liouvillian,
    fig2_spec,
    lasercool_spec,
    null_space_state,
    solve_pipeline,
)
from reference import liouvillian_at_time, propagate, zone_modes


def spre(x):
    return np.kron(x, np.eye(x.shape[0]))


def spost(x):
    return np.kron(np.eye(x.shape[0]), x.T)


def bordered(big, d, k_rho):
    """The stacked block system ``big`` with the trace border in place of
    rho_0's (0, 0) row."""
    diag = k_rho * d * d + np.arange(d) * (d + 1)
    big[diag[0], :] = 0.0
    big[diag[0], diag] = 1.0
    return big


class TestThermalRates:
    def test_detailed_balance_pair(self):
        j = Ohmic(d_h=5e-3, omega_ref=1.0)
        beta = 3.0
        gn_p, ge_p = thermal_rates(j, beta, 0.4)
        gn_m, ge_m = thermal_rates(j, beta, -0.4)
        assert gn_m == pytest.approx(ge_p, rel=1e-12)
        assert ge_m == pytest.approx(gn_p, rel=1e-12)
        assert ge_p / gn_p == pytest.approx(math.exp(beta * 0.4), rel=1e-12)

    def test_degenerate_frequency_limit(self):
        j = Ohmic.from_slope(4e-4)
        beta = 25.0
        gn0, ge0 = thermal_rates(j, beta, 0.0)
        assert gn0 == pytest.approx(4e-4 / 25.0, rel=1e-12)
        assert ge0 == gn0
        # continuous through zero
        gn_eps, ge_eps = thermal_rates(j, beta, 1e-9)
        assert gn_eps == pytest.approx(gn0, rel=1e-6)
        assert ge_eps == pytest.approx(ge0, rel=1e-6)

    @pytest.mark.parametrize(
        "density",
        [Ohmic(d_h=5e-3, omega_ref=1.0), StructuredPeak(d_c=1e-3, gamma=4e-4, omega_res=0.2)],
    )
    def test_array_pass_matches_the_closed_form(self, density):
        # one array call gives every entry the closed-form rates, through the
        # degenerate limit and the beta |delta| > 700 cutoff of N
        beta = 25.0
        deltas = np.array([-40.0, -0.4, -1e-13, 0.0, 5e-13, 1e-9, 0.4, 40.0])
        gn, ge = thermal_rates(density, beta, deltas)
        assert gn.shape == ge.shape == deltas.shape
        for dl, a, e in zip(deltas, gn, ge):
            w = abs(dl)
            if w < generator.DEGENERATE_DELTA:
                ref = (density.slope_at_zero() / beta,) * 2
            else:
                jw = density.evaluate(w)
                nw = 1.0 / math.expm1(beta * w) if beta * w <= 700.0 else 0.0
                ref = (jw * nw, jw * (1.0 + nw)) if dl > 0 else (jw * (1.0 + nw), jw * nw)
            assert a == pytest.approx(ref[0], rel=1e-15, abs=0.0)
            assert e == pytest.approx(ref[1], rel=1e-15, abs=0.0)


class TestLiouvillianStructure:
    def test_trace_annihilation_random_times(self, rng):
        spec = fig2_spec(0.75, n_fock=4)
        h, fs, liouv, rho, info = solve_pipeline(spec, k_ext=8)
        d = h.dim
        tr = np.zeros(d * d)
        tr[:: d + 1] = 1.0
        for t in rng.uniform(0.0, spec.period, size=10):
            assert np.max(np.abs(tr @ liouvillian_at_time(liouv, t))) < 1e-10

    def test_hermiticity_preservation(self, rng):
        spec = fig2_spec(0.8, n_fock=4)
        h, fs, liouv, rho, info = solve_pipeline(spec, k_ext=8)
        d = h.dim
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        x = x + x.conj().T
        for t in (0.0, 0.7, 2.9):
            lt = liouvillian_at_time(liouv, t)
            out = (lt @ x.reshape(-1)).reshape(d, d)
            assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_apply_component_matches_matrix(self, rng):
        spec = fig2_spec(0.75, n_fock=3)
        h, fs, liouv, rho, info = solve_pipeline(spec, k_ext=8)
        d = h.dim
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        for q in range(-liouv.support, liouv.support + 1):
            via_matrix = (liouv.component(q) @ x.reshape(-1)).reshape(d, d)
            np.testing.assert_allclose(liouv.apply_component(q, x), via_matrix, atol=1e-13)
        # a stack of density matrices is acted on matrix by matrix
        stack_rng = np.random.default_rng(7)
        xs = stack_rng.normal(size=(3, d, d)) + 1j * stack_rng.normal(size=(3, d, d))
        for q in range(-liouv.support, liouv.support + 1):
            via_matrix = np.stack(
                [(liouv.component(q) @ m.reshape(-1)).reshape(d, d) for m in xs]
            )
            np.testing.assert_allclose(liouv.apply_component(q, xs), via_matrix, atol=1e-13)

    def test_component_is_fortran_kronecker_sum(self):
        _, _, liouv = build_pipeline_liouvillian(fig2_spec(0.75, n_fock=3), k_ext=8)
        d = liouv.dim
        eye = np.eye(d)
        for q in range(-liouv.support, liouv.support + 1):
            (left,), (right,) = liouv.stacks([q])
            expected = np.kron(left[:d], eye) + np.kron(eye, right[:, :d].T)
            for j, s in enumerate(liouv.couplings.values(), 1):
                g1, g2 = left[j * d : (j + 1) * d], right[:, j * d : (j + 1) * d]
                expected += np.kron(g1, s.T) + np.kron(s, g2.T)
            lq = liouv.component(q)
            assert lq.flags.f_contiguous
            assert np.max(np.abs(lq - expected)) <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("k_rho", [0, 1, 2, 4])
    def test_block_system_action_matches_dense(self, k_rho):
        spec = fig2_spec(0.75, n_fock=3)
        h, fs, liouv, rho, info = solve_pipeline(spec, k_ext=8)
        # support 3: at k_rho = 0 and 1 the action drops harmonics L_q with
        # |q| > 2 k_rho, at 2 and 4 it keeps every one
        assert liouv.support == 3
        size = (2 * k_rho + 1) * h.dim**2
        x_rng = np.random.default_rng(k_rho)
        x = x_rng.normal(size=size) + 1j * x_rng.normal(size=size)
        dense = block_system_dense(liouv, k_rho) @ x
        # the action maps the stack of harmonics (2 k_rho + 1, d, d) to one
        applied = generator._block_action(liouv, k_rho)(x.reshape(-1, h.dim, h.dim))
        assert applied.shape == (2 * k_rho + 1, h.dim, h.dim)
        assert np.max(np.abs(applied.reshape(-1) - dense)) <= 1e-13 * np.max(np.abs(dense))

    @pytest.mark.parametrize("form", ["sinusoidal", "static"])
    def test_component_restricts_to_sector_parts(self, form):
        # L_q between two parity sectors, built from their parts alone, is
        # the whole L_q at those rows and columns
        spec = fig2_spec(0.75, n_fock=3, coupling_form=form)
        _, _, liouv = build_pipeline_liouvillian(spec, k_ext=10)
        cm = liouv.coords
        for q in (0, 1, -2):
            full = liouv.component(q)
            for n in (0, 1):
                sub = liouv.component(q, cm.parts(n), cm.parts(n - q))
                expected = full[np.ix_(cm.sector(n), cm.sector(n - q))]
                assert np.max(np.abs(sub - expected)) <= 1e-15 * np.max(np.abs(full))

    def test_evaluators_fill_missing_harmonics_with_zero_blocks(self):
        # the cold reservoir's blocks zeroed at harmonics q = -3, -1 and 2 that
        # both reservoirs hold: every evaluator must read its terms there as
        # zero, and read L_q = 0 for |q| > support
        _, _, liouv = build_pipeline_liouvillian(fig2_spec(0.75, n_fock=3), k_ext=8)
        d, top = liouv.dim, liouv.support
        assert list(liouv.couplings) == ["hot", "cold"]
        dropped = [q + top for q in (-3, -1, 2)]
        left, right = liouv.left.copy(), liouv.right.copy()
        for j in (1, 2):
            assert np.all(np.abs(left[dropped, j * d : (j + 1) * d]).max(axis=(1, 2)) > 0)
        left[dropped, 2 * d :] = 0.0
        right[dropped, :, 2 * d :] = 0.0
        liouv = replace(liouv, left=left, right=right)
        # q = -(support + 1) reads zero, not a wrapped-round q = support
        beyond = liouv.stacks([-top - 1, top + 1])
        assert not any(m.any() for m in beyond) and liouv.stacks([top])[0].any()
        x_rng = np.random.default_rng(5)
        x = x_rng.normal(size=(d, d)) + 1j * x_rng.normal(size=(d, d))
        eye = np.eye(d)
        # the formula written out from the stored stacks, and zero at
        # q = +-(support + 1), held by no part
        for q in range(-top - 1, top + 2):
            applied = liouv.apply_component(q, x)
            if abs(q) > top:
                assert not applied.any() and not liouv.component(q).any()
                continue
            lq, rq = left[q + top], right[q + top]
            a, b = lq[:d], rq[:, :d]
            expected = a @ x + x @ b
            kron = np.kron(a, eye) + np.kron(eye, b.T)
            for j, s in enumerate(liouv.couplings.values(), 1):
                g1, g2 = lq[j * d : (j + 1) * d], rq[:, j * d : (j + 1) * d]
                expected += g1 @ x @ s + s @ x @ g2
                kron += np.kron(g1, s.T) + np.kron(s, g2.T)
            assert np.max(np.abs(applied - expected)) <= 1e-14 * np.max(np.abs(expected))
            assert np.max(np.abs(liouv.component(q) - kron)) <= 1e-14 * np.max(np.abs(kron))
        k_rho = 2
        size = (2 * k_rho + 1) * d * d
        v = x_rng.normal(size=size) + 1j * x_rng.normal(size=size)
        dense = block_system_dense(liouv, k_rho) @ v
        applied = generator._block_action(liouv, k_rho)(v.reshape(-1, d, d)).reshape(-1)
        assert np.max(np.abs(applied - dense)) <= 1e-13 * np.max(np.abs(dense))

    @pytest.mark.parametrize("form", ["sinusoidal", "static"])
    def test_stacks_hold_the_generator_parts(self, form):
        # the stored stacks against A_q = -i H_q - sum_nu S_nu G1_{nu,q},
        # B_q = i H_q - sum_nu G2_{nu,q} S_nu and the kernel blocks, and the
        # stored current operators J_q = G2'_q S + S G1'_q, built here from h
        # and _channel_kernels
        spec = fig2_spec(0.75, n_fock=3, coupling_form=form)
        h = build_supersystem_fourier(spec)
        fs = solve_floquet(build_quasienergy_operator(h, spec.omega_L, 8), parity(spec))
        ops = build_coupling_operators(spec)
        channels = [
            BathChannel("hot", ops.s_hot, spec.hot_bath, beta=spec.beta_h),
            BathChannel("cold", ops.s_cold_residual, spec.residual_bath, beta=spec.beta_c),
        ]
        jumps = [decompose_operator(ch.coupling, fs) for ch in channels]
        liouv = build_liouvillian(h, fs, channels, jumps, parity(spec))
        d = h.dim
        zero = np.zeros((d, d))
        kernels = [generator._channel_kernels(ch, amp, fs) for ch, amp in zip(channels, jumps)]

        def kernel(i, q, kind):
            lo, g = kernels[i]
            return g[q - lo, kind] if lo <= q < lo + len(g) else zero

        reach = [abs(q) for lo, g in kernels for q in (lo, lo + len(g) - 1)]
        assert liouv.support == max(reach + [h.max_harmonic])
        peak = np.abs(liouv.left).max()
        for q in range(-liouv.support - 1, liouv.support + 2):
            hq = h.component(q)
            g1 = [kernel(i, q, 0) for i in range(2)]
            g2 = [kernel(i, q, 1) for i in range(2)]
            a = -1j * hq - sum(ch.coupling @ g for ch, g in zip(channels, g1))
            b = 1j * hq - sum(g @ ch.coupling for ch, g in zip(channels, g2))
            (left,), (right,) = liouv.stacks([q])
            np.testing.assert_allclose(left, np.concatenate([a, *g1]), rtol=0, atol=1e-15 * peak)
            np.testing.assert_allclose(
                right, np.concatenate([b, *g2], axis=1), rtol=0, atol=1e-15 * peak
            )
            if abs(q) <= liouv.support:
                for i, ch in enumerate(channels):
                    s = ch.coupling
                    np.testing.assert_array_equal(
                        liouv.currents[ch.name][q + liouv.support],
                        kernel(i, q, 3) @ s + s @ kernel(i, q, 2),
                    )

    def test_channel_kernels_match_direct_sum(self):
        spec = fig2_spec(0.75, n_fock=3)
        h = build_supersystem_fourier(spec)
        fs = solve_floquet(build_quasienergy_operator(h, spec.omega_L, 8), parity(spec))
        ops = build_coupling_operators(spec)
        for ch in (
            BathChannel("hot", ops.s_hot, spec.hot_bath, beta=spec.beta_h),
            BathChannel("cold", ops.s_cold_residual, spec.residual_bath, beta=spec.beta_c),
        ):
            assert_kernels_match_direct_sum(ch, decompose_operator(ch.coupling, fs), fs)

    def test_channel_kernels_exact_at_ladder_edges(self):
        """Random modes fill every ladder block, so the extreme harmonics
        q = n_min - 2 k_ext and n_max + 2 k_ext carry full weight and any
        aliasing of the sampled product would show.  Zero harmonic rows at
        both ends and in the middle, and scattered zero amplitudes, check
        the n_min..n_max trimming and that zero amplitudes weigh 0."""
        x_rng = np.random.default_rng(11)
        d, k = 4, 3
        modes = x_rng.normal(size=(d, 2 * k + 1, d)) + 1j * x_rng.normal(size=(d, 2 * k + 1, d))
        # as the stack V_m [m, component, r]
        modes = modes.transpose(1, 2, 0)
        # random modes carry no ladder certificate
        fs = FloquetSolution(
            np.sort(x_rng.uniform(-0.3, 0.3, d)), modes, k, 0.75, math.nan, math.nan, math.nan
        )
        shape = (4 * k + 1, d, d)
        amp = x_rng.normal(size=shape) + 1j * x_rng.normal(size=shape)
        amp[x_rng.random(shape) < 0.3] = 0.0
        amp[[0, 1, 2 * k + 1, 4 * k]] = 0.0  # n = -6, -5, 1 and 6
        ch = BathChannel("hot", np.eye(d), Ohmic(d_h=5e-3, omega_ref=1.0), beta=2.0)
        assert_kernels_match_direct_sum(ch, amp, fs)


def assert_kernels_match_direct_sum(ch, amp, fs, prune_rel=3e-12):
    """Kernel harmonics G_q = sum_{n + m' - m = q} V_m' W_n V_m^dag, summed
    term by term over the nonzero amplitudes, against ``_channel_kernels``:
    the same retained q set (the rest zero) and values within 1e-14 of the
    largest harmonic."""
    lo, got = generator._channel_kernels(ch, amp, fs)
    k = fs.k_ext
    d = fs.dim
    eps = fs.energies
    ladder = np.arange(-k, k + 1)
    v = fs.modes  # [m, component, r]
    n_pos, r_idx, rp_idx = np.nonzero(amp)
    n_min, n_max = int(n_pos.min()) - 2 * k, int(n_pos.max()) - 2 * k
    w = np.zeros((4, n_max - n_min + 1, d, d), dtype=complex)
    for n, r, rp in zip(n_pos - 2 * k, r_idx, rp_idx):
        delta = eps[r] - eps[rp] + n * fs.omega_L
        gn, ge = thermal_rates(ch.density, ch.beta, delta)
        at = (n - n_min, r, rp)
        a = amp[n + 2 * k, r, rp]
        w[(0, *at)] += gn * a
        w[(1, *at)] += ge * a
        w[(2, *at)] += delta * gn * a
        w[(3, *at)] += -delta * ge * a
    terms = np.einsum("pcr,anrs,mts->anpmct", v, w, v.conj())
    q_lo = n_min - 2 * k
    q_of = np.arange(n_min, n_max + 1)[:, None, None] + ladder[:, None] - ladder
    direct = np.zeros((4, n_max - n_min + 4 * k + 1, d, d), dtype=complex)
    for a in range(4):
        np.add.at(direct[a], q_of - q_lo, terms[a])
    block_max = np.abs(direct).max(axis=(0, 2, 3))
    peak = block_max.max()
    kept = [q_lo + i for i in np.nonzero(block_max > prune_rel * peak)[0]]
    # the range of the kept harmonics, the others inside it zero
    assert (lo, lo + len(got) - 1) == (kept[0], kept[-1])
    for q in range(kept[0], kept[-1] + 1):
        if q not in kept:
            assert not got[q - lo].any()
            continue
        for a in range(4):
            assert np.max(np.abs(got[q - lo, a] - direct[a, q - q_lo])) <= 1e-14 * peak


class TestReconstructionOracle:
    """Harmonic-assembled generator against a direct time-sampled build of
    the counting-field master equation, with Floquet modes obtained from
    independent ODE propagation and amplitudes from time quadrature."""

    def test_generator_reconstruction(self):
        spec = fig2_spec(0.75, n_fock=4)
        h = build_supersystem_fourier(spec)
        fs = solve_floquet(build_quasienergy_operator(h, spec.omega_L, 8), parity(spec))
        ops = build_coupling_operators(spec)
        channels = [
            BathChannel("hot", ops.s_hot, spec.hot_bath, beta=spec.beta_h),
            BathChannel("cold", ops.s_cold_residual, spec.residual_bath, beta=spec.beta_c),
        ]
        jumps = [
            decompose_operator(ops.s_hot, fs),
            decompose_operator(ops.s_cold_residual, fs),
        ]
        liouv = build_liouvillian(h, fs, channels, jumps, parity(spec))

        d = h.dim
        period = spec.period
        ngrid = 510
        tgrid = np.linspace(0.0, period, ngrid + 1)
        v0 = zone_modes(fs, 0.0)
        _, us = propagate(
            h, np.eye(d, dtype=complex), (0.0, period), kind="schrodinger",
            rtol=1e-12, atol=1e-14, t_eval=tgrid, conservation_tol=None,
        )
        eps = fs.energies
        # |r(t_j)> columns via the propagated modes
        rt = [us[j] @ v0 * np.exp(1j * eps * tgrid[j])[None, :] for j in range(ngrid + 1)]
        sb = {
            ch.name: np.array([rt[j].conj().T @ ch.coupling @ rt[j] for j in range(ngrid)])
            for ch in channels
        }

        def direct(jt: int) -> np.ndarray:
            t = tgrid[jt]
            ht = h.at_time(t)
            out = -1j * (spre(ht) - spost(ht))
            for ch, amp_ch in zip(channels, jumps):
                s_op = ch.coupling
                for n_pos, r, rp in zip(*np.nonzero(amp_ch)):
                    n = n_pos - 2 * fs.k_ext
                    amp = np.mean(sb[ch.name][:, r, rp] * np.exp(-1j * n * spec.omega_L * tgrid[:ngrid]))
                    delta = eps[r] - eps[rp] + n * spec.omega_L
                    gn, ge = thermal_rates(ch.density, ch.beta, delta)
                    a_op = amp * np.outer(rt[jt][:, r], rt[jt][:, rp].conj())
                    phase = np.exp(1j * n * spec.omega_L * t)
                    out += phase * (
                        -gn * spre(s_op @ a_op)
                        + ge * (spost(a_op) @ spre(s_op))
                        + gn * (spre(a_op) @ spost(s_op))
                        - ge * spost(a_op @ s_op)
                    )
            return out

        worst = 0.0
        for jt in (0, 102, 170, 255, 340, 408):
            diff = np.max(np.abs(liouvillian_at_time(liouv, tgrid[jt]) - direct(jt)))
            worst = max(worst, float(diff))
        assert worst < 1e-10


class TestEquilibriumFixedPoints:
    def test_gibbs_qubit_and_thermal_mode(self):
        spec = SupersystemSpec(
            omega0=1.0, g=0.0, omega_L=0.7, omega_cc=0.3, n_fock=14, lambda0=0.0,
            beta_h=2.22, beta_c=5.0, hot_bath=Ohmic(d_h=5e-3, omega_ref=1.0),
            residual_bath=Ohmic.from_slope(1e-4),
        )
        h, fs, liouv, rho, info = solve_pipeline(spec, k_ext=10)
        r0 = rho.average
        pops = np.einsum("snsn->sn", r0.reshape(2, 14, 2, 14)).real
        ratio = pops[0].sum() / pops[1].sum()
        assert ratio == pytest.approx(math.exp(-spec.beta_h * spec.omega0), abs=1e-8)
        nbar = float(np.trace(number_operator(14) @ r0).real)
        assert nbar == pytest.approx(bose_occupation(0.3, 5.0), abs=1e-6)

    def test_single_undamped_mode_is_degenerate(self):
        # no residual bath and no qubit-mode coupling: the mode sector is
        # stationary in every diagonal state, and the solver must say so
        spec = SupersystemSpec(
            omega0=1.0, g=0.0, omega_L=0.7, omega_cc=0.3, n_fock=3, lambda0=0.0,
            beta_h=2.22, beta_c=5.0, hot_bath=Ohmic(d_h=5e-3, omega_ref=1.0),
            residual_bath=None,
        )
        _, _, liouv = build_pipeline_liouvillian(spec, k_ext=8)
        for method in ("lu", "gmres"):
            with pytest.raises(DegenerateSteadyStateError, match="bordered system is singular"):
                steady_state(liouv, method=method)

    @pytest.mark.parametrize("method", ["lu", "gmres"])
    def test_reservoirs_on_the_qubit_alone_are_degenerate(self, method):
        # two reservoirs that both couple to the qubit, and no qubit-mode
        # coupling: the mode is undamped.  The real bordered system has 4
        # singular values near 1e-16 of its largest, but its smallest pivot
        # is 7.6e-13 of the largest; the condition estimate finds the null
        # space on the real centre (lu) and on the complex bordered L_0 of
        # the two-reservoir gmres route alike.  At omega_L 0.75, 3 omega_cc
        # = omega_L exactly, so Sambe copies of opposite parity are
        # degenerate: the modes keep their parity, and the point meets the
        # same singular system rather than a parity breach
        for omega_L in (0.7, 0.75):
            spec = replace(fig2_spec(omega_L, n_fock=4), lambda0=0.0)
            h = build_supersystem_fourier(spec)
            fs = solve_floquet(build_quasienergy_operator(h, spec.omega_L, 6), parity(spec))
            s = build_coupling_operators(spec).s_hot
            channels = [
                BathChannel("hot", s, spec.hot_bath, beta=spec.beta_h),
                BathChannel("cold", s, spec.residual_bath, beta=spec.beta_c),
            ]
            jumps = [decompose_operator(s, fs)] * 2
            liouv = build_liouvillian(h, fs, channels, jumps, parity(spec))
            with pytest.raises(DegenerateSteadyStateError, match="bordered system is singular"):
                steady_state(liouv, k_rho=3, method=method)


class TestParity:
    """The half-period parity Q: the generator keeps it, every route solves
    on its sectors, and a generator that breaks it is refused."""

    CASES = {
        "fig2": lambda: fig2_spec(0.75, n_fock=4),
        "static": lambda: fig2_spec(0.75, n_fock=4, coupling_form="static"),
        "lasercool": lambda: lasercool_spec(-LASERCOOL["omega_cc"], n_fock=4),
    }

    @pytest.fixture(scope="class", params=list(CASES))
    def case(self, request):
        spec = self.CASES[request.param]()
        return spec, build_pipeline_liouvillian(spec, k_ext=10)[2]

    def test_states_keep_the_parity(self, case):
        # Q rho_n Q = (-1)^n rho_n on every route
        spec, liouv = case
        signs = np.outer(parity(spec), parity(spec))
        for method in ("lu", "gmres"):
            rho, info = steady_state(liouv, k_rho=3, method=method)
            assert info.unknowns == 7 * liouv.dim**2 // 2
            for n, m in enumerate(rho.harmonics, -rho.max_harmonic):
                assert np.max(np.abs(signs * m - (-1) ** n * m)) <= 1e-14

    def test_routes_match_complex_oracle(self, case):
        # both routes against the SVD null vector of the complex block
        # system, which knows nothing of the sectors
        _, liouv = case
        oracle = null_space_state(liouv, 3)
        for method in ("lu", "gmres"):
            rho, _ = steady_state(liouv, k_rho=3, method=method)
            for n in range(-3, 4):
                np.testing.assert_allclose(rho.component(n), oracle.component(n), atol=1e-10)

    def test_solver_stack_is_the_state_stack(self, case):
        # one layout: the coordinates and the system action take and return
        # the state's own harmonic stack (2 k + 1, d, d), which the dense
        # block system reads as rho.harmonics.reshape(-1)
        _, liouv = case
        rho, _ = steady_state(liouv, k_rho=3)
        cm = liouv.coords
        np.testing.assert_array_equal(cm.expand(cm.restrict(rho.harmonics, 3), 3), rho.harmonics)
        act, big = generator._block_action(liouv, 3), block_system_dense(liouv, 3)
        # the transposed state, the other layout, is no steady state
        scale = np.abs(big).max() * np.abs(rho.harmonics).max()
        assert np.max(np.abs(big @ rho.harmonics.transpose(0, 2, 1).reshape(-1))) > 1e-6 * scale
        # the action on the state, and on a random stack of the coordinates,
        # the form of every GMRES vector, where it is far from 0
        x = cm.expand(np.random.default_rng(0).normal(size=cm.size(3)), 3)
        for stack in (rho.harmonics, x):
            applied = act(stack)
            assert applied.shape == stack.shape
            dense = big @ stack.reshape(-1)
            tol = 1e-13 * np.abs(big).max() * np.abs(stack).max()
            assert np.max(np.abs(applied.reshape(-1) - dense)) <= tol

    def test_wrong_parity_fails_with_the_part_named(self):
        # the static coupling's Q on a sinusoidal model: sigma_x (a + a^dag)
        # at q = +-1 is even under it, the drive sigma_x odd
        spec = fig2_spec(0.75, n_fock=3)
        h = build_supersystem_fourier(spec)
        fs = solve_floquet(build_quasienergy_operator(h, spec.omega_L, 8), parity(spec))
        ops = build_coupling_operators(spec)
        channels = [BathChannel("hot", ops.s_hot, spec.hot_bath, beta=spec.beta_h)]
        jumps = [decompose_operator(ops.s_hot, fs)]
        wrong = parity(replace(spec, coupling_form="static"))
        with pytest.raises(ValueError, match=r"parity Q in .*no-jump L_1, hot kernel q=1, "):
            build_liouvillian(h, fs, channels, jumps, wrong)
        # a coupling of no definite parity is named itself
        mixed = [BathChannel("hot", ops.s_hot + ops.s_cold_residual, spec.hot_bath, spec.beta_h)]
        jumps = [decompose_operator(mixed[0].coupling, fs)]
        with pytest.raises(ValueError, match=r"parity Q in hot coupling, "):
            build_liouvillian(h, fs, mixed, jumps, parity(spec))

    def test_wrong_parity_is_a_generator_row(self, monkeypatch):
        # Q = 1: the Sambe matrix already breaks (-1)^m Q, through the drive's
        # H_1, so the point fails at the Floquet stage, before any generator
        monkeypatch.setattr(pipeline, "parity", lambda spec: np.ones(spec.dim))
        point = pipeline.run_point(replace(RunConfig(), n_fock=4, convergence="off"))
        assert point.error.startswith(
            "[floquet] Sambe matrix breaks the half-period parity Q: entries up to "
        )
        assert point.error.endswith("off the sectors of (-1)^m Q, above 1e-12 of the largest")

    @pytest.mark.parametrize("name", list(CASES))
    def test_floquet_modes_keep_the_parity(self, name):
        # every kept mode lies in one sector of (-1)^m Q: its entries in the
        # other are exactly 0
        spec = self.CASES[name]()
        h = build_supersystem_fourier(spec)
        fs = solve_floquet(build_quasienergy_operator(h, spec.omega_L, 10), parity(spec))
        ms = np.arange(-fs.k_ext, fs.k_ext + 1)
        sign = np.multiply.outer((-1.0) ** ms, parity(spec))  # [m, component]
        for r in range(fs.dim):
            u = fs.modes[:, :, r]
            sigma = 1.0 if np.abs(u[sign > 0]).max() > np.abs(u[sign < 0]).max() else -1.0
            np.testing.assert_array_equal(u[sign != sigma], 0.0)


class TestSteadyState:
    def test_methods_agree(self):
        spec = fig2_spec(0.75, n_fock=8)
        _, _, liouv, rho_gmres, _ = solve_pipeline(spec, k_ext=12, k_rho=3, method="gmres")
        rho_lu, _ = steady_state(liouv, k_rho=3, method="lu")
        oracle = null_space_state(liouv, 3)
        for other in (rho_gmres, rho_lu):
            for n in range(-3, 4):
                np.testing.assert_allclose(
                    other.component(n), oracle.component(n), atol=1e-10
                )

    def test_invariants(self):
        spec = fig2_spec(0.8, n_fock=8)
        h, fs, liouv, rho, info = solve_pipeline(spec, k_ext=10)
        assert abs(np.trace(rho.average) - 1.0) < 1e-12
        k = rho.max_harmonic
        for n in range(-k, k + 1):
            if n != 0:
                assert abs(np.trace(rho.component(n))) < 1e-10
            np.testing.assert_allclose(
                rho.component(-n), rho.component(n).conj().T, atol=1e-14
            )
        for f in (0.0, 0.25, 0.5, 0.75):
            w = np.linalg.eigvalsh(rho.at_time(f * spec.period))
            assert w.min() > -1e-8

    @pytest.fixture(scope="class")
    def driven(self):
        """Generator whose minimum rho(t) eigenvalue still moves from k_rho = 1
        to 3 but not from 4 to 6, with those eigenvalues from the null-space
        oracle."""
        spec = fig2_spec(0.75, n_fock=3, g=0.05)
        _, _, liouv = build_pipeline_liouvillian(spec, k_ext=14)
        direct = {k: generator._min_eigenvalue(null_space_state(liouv, k)) for k in (3, 6)}
        return liouv, direct

    @pytest.mark.parametrize("method", ["lu", "gmres"])
    def test_positivity_failure_names_its_cause(self, driven, method, monkeypatch):
        # a negative tolerance demands eigenvalues above |tol|, which runs the
        # failure branch on a cheap, well-resolved generator
        liouv, direct = driven
        monkeypatch.setattr(generator, "POSITIVITY_TOL", -2e-5)
        with pytest.raises(SteadyStateError, match="truncation") as exc:
            steady_state(liouv, k_rho=1, method=method)
        assert f"k_rho 1->3 moves it to {direct[3]:.3e}" in str(exc.value)
        with pytest.raises(SteadyStateError, match="intrinsic") as exc:
            steady_state(liouv, k_rho=4, method=method)
        assert f"k_rho 4->6 leaves it at {direct[6]:.3e}" in str(exc.value)

    def test_stalled_gmres_fails_with_its_own_cause(self, monkeypatch):
        # a GMRES that takes no step stops at the block-preconditioned guess,
        # whose residual is far above 1e-10; the call fails with that one
        # cause, and no direct factor is taken after it.  The message names
        # lu as the direct route only where lu's guard would let it run
        def no_step(matvec, precond, b, x0, restart):
            return x0, 0, 1

        def no_direct(*args, **kwargs):
            raise AssertionError("a failed gmres solve must not be re-solved by lu")

        _, _, liouv = build_pipeline_liouvillian(fig2_spec(0.75, n_fock=4), k_ext=10)
        with monkeypatch.context() as mp:
            mp.setattr(generator, "_gmres", no_step)
            mp.setattr(generator, "_real_factor", no_direct)
            stalled = (
                r"^steady solve residual \S+ above 1e-10 after 0 GMRES iterations "
                r"\(the cycle ran out of steps\); "
            )
            direct = r"solver\.method=lu is the direct route$"
            with pytest.raises(SteadyStateError, match=stalled + direct):
                steady_state(liouv, method="gmres")
            # d = 8: at k_rho = 280 lu would factor a real 17952^2 system, 2.6 GB
            with pytest.raises(
                SteadyStateError,
                match=stalled + r"solver\.method=lu would need 2\.6 GB, above its 2\.5 GB limit$",
            ):
                steady_state(liouv, k_rho=280, method="gmres")
        # a cycle that meets its own tolerance (code 0) and still fails the
        # judge is not called a stall
        monkeypatch.setattr(generator, "_residual", lambda *args: 2e-10)
        with pytest.raises(
            SteadyStateError,
            match=r"^steady solve residual 2\.00e-10 above 1e-10 after [1-9]\d* GMRES iterations "
            r"\(the cycle met its tolerance\); solver\.method=lu is the direct route$",
        ) as exc:
            steady_state(liouv, method="gmres")
        assert "stall" not in str(exc.value)

    def test_lu_residual_is_judged(self, monkeypatch):
        # the lu route judges its residual against the one bound of every
        # route, RESIDUAL_TOL, in _solve_bordered, with the one message of
        # every route; it names no direct route, being one
        _, _, liouv = build_pipeline_liouvillian(fig2_spec(0.75, n_fock=4), k_ext=10)
        assert steady_state(liouv, k_rho=2, method="lu")[1].residual <= generator.RESIDUAL_TOL
        monkeypatch.setattr(generator, "_residual", lambda *args: 2e-10)
        with pytest.raises(
            SteadyStateError,
            match=r"^steady solve residual 2\.00e-10 above 1e-10 after 1 GMRES iterations "
            r"\(the cycle met its tolerance\)$",
        ):
            steady_state(liouv, k_rho=2, method="lu")

    def test_lu_solves_without_gmres(self, monkeypatch):
        # lu is the bordered solve whose preconditioner is the dense factor
        # itself: the GMRES cycle runs once and takes one step, an
        # iterative-refinement step by that factor, and the state stays on
        # the direct solve of the unit right-hand side
        real, steps = generator._gmres, []

        def spy(*args):
            out = real(*args)
            steps.append(out[1])
            return out

        _, _, liouv, _, _ = solve_pipeline(fig2_spec(0.75, n_fock=4), k_ext=10, k_rho=2)
        monkeypatch.setattr(generator, "_gmres", spy)
        rho, info = steady_state(liouv, k_rho=2, method="lu")
        factor = generator._real_factor(liouv, 2)
        rhs = np.zeros(liouv.coords.size(2))
        rhs[0] = 1.0  # the trace border, on the real coordinate 0
        expected, _ = generator._periodic_state(liouv, scipy.linalg.lu_solve(factor, rhs), 2)
        assert (info.method, info.iterations, steps) == ("lu", 1, [1])
        np.testing.assert_allclose(rho.harmonics, expected.harmonics, rtol=0, atol=1e-12)

    def test_gmres_factors_nonnegative_harmonics_only(self, monkeypatch):
        real_lu_factor = scipy.linalg.lu_factor
        calls = []

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return real_lu_factor(a, *args, **kwargs)

        _, _, liouv, _, _ = solve_pipeline(fig2_spec(0.75, n_fock=3), k_ext=8)
        monkeypatch.setattr(scipy.linalg, "lu_factor", counting)
        k_rho = 4
        _, info = steady_state(liouv, k_rho=k_rho, method="gmres")
        assert info.method == "gmres"
        assert calls == [(liouv.dim**2, liouv.dim**2)] * (k_rho + 1)

    def test_lu_factors_one_real_system(self, monkeypatch):
        real_lu_factor = scipy.linalg.lu_factor
        calls = []

        def spy(a, *args, **kwargs):
            calls.append((a.shape, a.dtype))
            return real_lu_factor(a, *args, **kwargs)

        _, _, liouv, _, _ = solve_pipeline(fig2_spec(0.75, n_fock=3), k_ext=8)
        monkeypatch.setattr(scipy.linalg, "lu_factor", spy)
        k_rho = 3
        _, info = steady_state(liouv, k_rho=k_rho, method="lu")
        # the real coordinates of the parity sectors, half the complex size
        size = (2 * k_rho + 1) * liouv.dim**2
        assert (info.method, info.size, info.unknowns) == ("lu", size, size // 2)
        assert calls == [((size // 2, size // 2), np.dtype(np.float64))]

    @pytest.mark.parametrize("case", ["undamped", "fig2"])
    def test_real_null_space_matches_complex_oracle(self, case):
        # J and the half-period parity commute with the block system, so its
        # real form on the parity sectors has a null space of the complex
        # one's dimension: 3 for the undamped mode of
        # test_single_undamped_mode_is_degenerate, 1 for a Fig-2 point
        if case == "undamped":
            spec = SupersystemSpec(
                omega0=1.0, g=0.0, omega_L=0.7, omega_cc=0.3, n_fock=3, lambda0=0.0,
                beta_h=2.22, beta_c=5.0, hot_bath=Ohmic(d_h=5e-3, omega_ref=1.0),
                residual_bath=None,
            )
        else:
            spec = fig2_spec(0.75, n_fock=3)
        _, _, liouv = build_pipeline_liouvillian(spec, k_ext=8)
        k_rho = liouv.k_rho_estimate
        real = generator._real_block_system(liouv, k_rho)
        oracle = block_system_dense(liouv, k_rho)
        assert real.dtype == np.float64 and 2 * real.shape[0] == oracle.shape[0]
        null = [a.shape[0] - np.linalg.matrix_rank(a) for a in (real, oracle)]
        assert null == [{"undamped": 3, "fig2": 1}[case]] * 2

    @pytest.mark.parametrize("k_rho", [1, 3])
    def test_real_solve_inverts_bordered_system(self, k_rho):
        # the real solve of random coordinates on the parity sectors, checked
        # in the complex stacked form against the complex bordered system
        _, _, liouv, _, _ = solve_pipeline(fig2_spec(0.75, n_fock=3), k_ext=8)
        cm = liouv.coords
        big = bordered(block_system_dense(liouv, k_rho), liouv.dim, k_rho)
        factor = generator._real_factor(liouv, k_rho)
        r = np.random.default_rng(k_rho).normal(size=cm.size(k_rho))
        x = cm.expand(scipy.linalg.lu_solve(factor, r), k_rho).reshape(-1)
        y = cm.expand(r, k_rho).reshape(-1)
        assert np.linalg.norm(big @ x - y) <= 1e-12 * np.linalg.norm(y)

    @pytest.mark.parametrize("reservoirs", [2, 1])
    def test_forward_sweep_inverts_the_lower_block_triangle(self, reservoirs):
        # the preconditioner is the exact inverse of the bordered system's
        # block lower triangle in |n| on the parity sectors, where every
        # GMRES vector lies: the exact centre |n|, |m| <= k_in whole, then
        # each row n's diagonal L_0 - i n w and its columns |m| < |n|, built
        # here from the L_q blocks and checked in the complex stacked form
        if reservoirs == 2:
            _, _, liouv = build_pipeline_liouvillian(fig2_spec(0.75, n_fock=3), k_ext=8)
            k_in = -1
        else:
            _, _, liouv = build_pipeline_liouvillian(lasercool_spec(-0.005, n_fock=4), k_ext=8)
            k_in = 1
        assert len(liouv.couplings) == reservoirs
        k_rho = 3
        d2 = liouv.dim**2
        lower = np.zeros(((2 * k_rho + 1) * d2,) * 2, dtype=complex)
        for n in range(-k_rho, k_rho + 1):
            for m in range(-k_rho, k_rho + 1):
                centre = max(abs(n), abs(m)) <= k_in
                if not (centre or abs(m) < abs(n) or m == n) or abs(n - m) > liouv.support:
                    continue
                i, j = (n + k_rho) * d2, (m + k_rho) * d2
                lower[i : i + d2, j : j + d2] = liouv.component(n - m)
        lower.flat[:: lower.shape[0] + 1] -= 1j * liouv.omega_L * np.repeat(
            np.arange(-k_rho, k_rho + 1), d2
        )
        lower = bordered(lower, liouv.dim, k_rho)
        precond = generator._forward_sweep(liouv, k_rho, k_in)
        cm = liouv.coords
        r = np.random.default_rng(reservoirs).normal(size=cm.size(k_rho))
        x = cm.expand(precond(r), k_rho).reshape(-1)
        y = cm.expand(r, k_rho).reshape(-1)
        assert np.linalg.norm(lower @ x - y) <= 1e-10 * np.linalg.norm(y)
        # and it is not the whole system, whose other blocks GMRES supplies
        full = bordered(block_system_dense(liouv, k_rho), liouv.dim, k_rho)
        assert np.linalg.norm(full @ x - y) > 1e-6 * np.linalg.norm(y)

    def test_gmres_runs_in_real_basis(self, monkeypatch):
        # GMRES iterates on the real coordinates of the harmonics on their
        # parity sectors, half the complex size
        real_gmres = generator._gmres
        calls = []

        def spy(matvec, precond, b, *args):
            calls.append((b.dtype, b.shape))
            return real_gmres(matvec, precond, b, *args)

        _, _, liouv, _, _ = solve_pipeline(fig2_spec(0.75, n_fock=3), k_ext=8)
        monkeypatch.setattr(generator, "_gmres", spy)
        k_rho = 3
        _, info = steady_state(liouv, k_rho=k_rho, method="gmres")
        assert info.method == "gmres"
        assert info.iterations > 0
        assert calls == [(np.dtype(np.float64), ((2 * k_rho + 1) * liouv.dim**2 // 2,))]

    def test_block_factors_hold_no_extra_block(self):
        # d = 36, k_rho = 2: one d^4 block (27 MB) outweighs GMRES's Krylov
        # basis (9.4 MB), so a copy of L_0 kept beside the k_rho + 1 factors
        # would show in the peak
        _, _, liouv = build_pipeline_liouvillian(fig2_spec(0.75, n_fock=18), k_ext=8)
        k_rho = 2
        d2 = liouv.dim**2
        size = (2 * k_rho + 1) * d2
        block = d2 * d2 * 16
        basis = (min(180, size) + 1) * size * 8  # gmres's (restart + 1) vectors
        tracemalloc.start()
        try:
            _, _, iterations = generator._solve_bordered(liouv, k_rho, -1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert iterations > 0
        assert peak <= (k_rho + 1) * block + basis + block // 2

    def test_no_superoperator_is_kept(self):
        def arrays(obj):
            if isinstance(obj, np.ndarray):
                yield obj
            elif isinstance(obj, dict):
                for v in obj.values():
                    yield from arrays(v)
            elif isinstance(obj, (list, tuple)):
                for v in obj:
                    yield from arrays(v)
            elif dataclasses.is_dataclass(obj):
                yield from arrays(vars(obj))

        _, _, liouv, _, _ = solve_pipeline(fig2_spec(0.75, n_fock=3), k_ext=8)
        steady_state(liouv, method="lu")
        d2 = liouv.dim**2
        shapes = {a.shape for a in arrays(vars(liouv))}
        assert shapes and (d2, d2) not in shapes

    @staticmethod
    def forbid_building(monkeypatch):
        """Make building the exact centre or the sampled system action fail
        the test, so a guard must refuse before either."""

        def built(*args, **kwargs):
            raise AssertionError("the guard must run before anything is built")

        for name in ("_real_factor", "_block_action"):
            monkeypatch.setattr(generator, name, built)

    @pytest.mark.parametrize("method", ["lu"])
    def test_dense_memory_guard(self, method, monkeypatch):
        # d = 4: the real 17928^2 system on the parity sectors at
        # k_rho = 1120, which lu factors, needs 2.6 GB; the guard refuses it
        # before allocating anything, and nothing else runs
        _, _, liouv, _, _ = solve_pipeline(fig2_spec(0.75, n_fock=2), k_ext=6)
        self.forbid_building(monkeypatch)
        tracemalloc.start()
        try:
            with pytest.raises(SteadyStateError, match=r"would need 2\.6 GB"):
                steady_state(liouv, k_rho=1120, method=method)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_only_lu_and_gmres_are_routes(self):
        _, _, liouv = build_pipeline_liouvillian(fig2_spec(0.75, n_fock=2), k_ext=6)
        with pytest.raises(ValueError, match="unknown steady-state method 'svd'"):
            steady_state(liouv, k_rho=1, method="svd")

    def test_gmres_memory_guard(self, monkeypatch):
        # d = 4: k_rho + 1 = 366212 block factors of 4096 B need 1.5 GB; the
        # guard refuses them before allocating anything, and nothing else runs
        _, _, liouv, _, _ = solve_pipeline(fig2_spec(0.75, n_fock=2), k_ext=6)
        self.forbid_building(monkeypatch)
        tracemalloc.start()
        try:
            with pytest.raises(SteadyStateError) as exc:
                steady_state(liouv, k_rho=366211, method="gmres")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(exc.value).startswith("gmres preconditioner would need 1.5 GB")
        assert "lu" not in str(exc.value)
        assert peak < 1_000_000

    @pytest.fixture(scope="class")
    def lasercool(self):
        """Single-reservoir generator on the cooling sideband, d = 12."""
        spec = lasercool_spec(-LASERCOOL["omega_cc"], n_fock=6)
        return build_pipeline_liouvillian(spec, k_ext=8)[2]

    def test_single_reservoir_auto_takes_gmres(self, lasercool):
        # k_rho = 4: 1296 unknowns, above DENSE_SIZE_LIMIT
        rho, info = steady_state(lasercool, k_rho=4)
        assert info.size > generator.DENSE_SIZE_LIMIT
        assert info.method == "gmres"
        assert info.iterations > 0
        rho_lu, _ = steady_state(lasercool, k_rho=4, method="lu")
        for other in (rho_lu, null_space_state(lasercool, 4)):
            for n in range(-4, 5):
                np.testing.assert_allclose(
                    rho.component(n), other.component(n), atol=1e-10
                )

    def test_single_reservoir_gmres_has_exact_centre(self, lasercool, monkeypatch):
        # the harmonics |n| <= 1 by one real LU of side 3 d^2 / 2, on the
        # parity sectors, then one complex block LU for each n = 2..k_rho
        real_lu_factor = scipy.linalg.lu_factor
        calls = []

        def spy(a, *args, **kwargs):
            calls.append((a.shape, a.dtype))
            return real_lu_factor(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "lu_factor", spy)
        k_rho = 4
        d2 = lasercool.dim**2
        _, info = steady_state(lasercool, k_rho=k_rho, method="gmres")
        assert info.method == "gmres"
        assert calls == [((3 * d2 // 2, 3 * d2 // 2), np.dtype(np.float64))] + [
            ((d2, d2), np.dtype(np.complex128))
        ] * (k_rho - 1)

    def test_single_reservoir_probe_factors_its_own_centre(self, lasercool, monkeypatch):
        # a negative tolerance forces the failure branch; the k_rho + 2 probe
        # runs gmres around the base route's |n| <= 1 centre, which it
        # factors again, beside its own outer blocks n = 2..k_rho + 2, and
        # must report the eigenvalue of a direct solve at k_rho + 2
        real_lu_factor = scipy.linalg.lu_factor
        dtypes = []

        def spy(a, *args, **kwargs):
            dtypes.append(a.dtype)
            return real_lu_factor(a, *args, **kwargs)

        k_rho = 2
        real, cplx = np.dtype(np.float64), np.dtype(np.complex128)
        with monkeypatch.context() as m:
            m.setattr(scipy.linalg, "lu_factor", spy)
            m.setattr(generator, "POSITIVITY_TOL", -1.0)
            with pytest.raises(SteadyStateError) as exc:
                steady_state(lasercool, k_rho=k_rho, method="gmres")
        assert dtypes == [real] + [cplx] * (k_rho - 1) + [real] + [cplx] * (k_rho + 1)
        monkeypatch.setattr(generator, "POSITIVITY_TOL", math.inf)
        _, direct = steady_state(lasercool, k_rho=k_rho + 2, method="lu")
        assert re.search(
            rf"k_rho {k_rho}->{k_rho + 2} (moves it to|leaves it at) "
            rf"{direct.min_eigenvalue:.3e}",
            str(exc.value),
        )

    def test_single_reservoir_gmres_memory_guard(self, monkeypatch):
        # d = 4: the |n| <= 1 centre (18 d^4 = 4608 B) and 366210 block
        # factors of 4096 B need 1.5 GB; the guard refuses them before the
        # centre is built, and nothing else runs
        _, _, liouv = build_pipeline_liouvillian(lasercool_spec(-5e-3, n_fock=2), k_ext=6)
        self.forbid_building(monkeypatch)
        tracemalloc.start()
        try:
            with pytest.raises(SteadyStateError) as exc:
                steady_state(liouv, k_rho=366211, method="gmres")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(exc.value).startswith("gmres preconditioner would need 1.5 GB")
        assert peak < 1_000_000

    def test_stroboscopic_relaxation_strong_damping(self, rng):
        # fast-relaxing variant: one-period monodromy applied 200 times from
        # a random state must land on the reconstructed steady state
        cc_gamma = 0.02
        spec = SupersystemSpec(
            omega0=1.0, g=1e-3, omega_L=0.75, omega_cc=0.25, n_fock=5, lambda0=1e-3,
            beta_h=2.22, beta_c=25.0, hot_bath=Ohmic(d_h=0.02, omega_ref=1.0),
            residual_bath=Ohmic.from_slope(cc_gamma),
        )
        h, fs, liouv, rho, info = solve_pipeline(spec, k_ext=10)
        d = h.dim
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho_init = x @ x.conj().T
        rho_init /= np.trace(rho_init)
        _, phis = propagate(
            lambda t: liouvillian_at_time(liouv, t), np.eye(d * d, dtype=complex),
            (0.0, spec.period),
            kind="liouville", rtol=1e-11, atol=1e-13, t_eval=np.array([spec.period]),
            conservation_tol=None,
        )
        phi = phis[-1]
        v = rho_init.reshape(-1)
        for _ in range(200):
            v = phi @ v
        final = v.reshape(d, d)
        dist = np.sum(np.abs(np.linalg.eigvalsh(final - rho.at_time(0.0))))
        assert dist < 1e-6


# the cooling sideband delta = -omega_cc at weak coupling g = d_c = 1e-6,
# n_fock 5 (d = 10): a unique steady state, n = 0.0625 (the sideband limit
# d_h^2 / (16 omega_cc^2)), that cools so slowly that the second-smallest
# singular value of its block system is 6.9e-9, below a relative 1e-8 rank rule
WEAK_LASERCOOL = SupersystemSpec(
    omega0=1.0, g=1e-6, omega_L=0.995, omega_cc=5e-3, n_fock=5, lambda0=1e-6,
    beta_h=1e4, beta_c=1e4, hot_bath=Ohmic(d_h=5e-3, omega_ref=1.0), residual_bath=None,
)


class TestOneVerdict:
    """A configuration solves or fails the same way on every production
    route, whatever its size."""

    @pytest.fixture(scope="class")
    def weak(self):
        return build_pipeline_liouvillian(WEAK_LASERCOOL, k_ext=4)[2]

    @staticmethod
    def n_mean(rho):
        return float(np.trace(number_operator(WEAK_LASERCOOL.n_fock) @ rho.average).real)

    def test_auto_solves_what_lu_and_gmres_solve(self, weak):
        rho, info = steady_state(weak, k_rho=2)
        assert (info.method, info.size) == ("lu", 500)
        rho_lu, _ = steady_state(weak, k_rho=2, method="lu")
        np.testing.assert_array_equal(rho.harmonics, rho_lu.harmonics)
        rho_gmres, info_gmres = steady_state(weak, k_rho=2, method="gmres")
        assert info_gmres.method == "gmres"
        limit = WEAK_LASERCOOL.hot_bath.d_h**2 / (16 * WEAK_LASERCOOL.omega_cc**2)
        for state in (rho, rho_gmres):
            assert self.n_mean(state) == pytest.approx(limit, rel=1e-3)

    def test_auto_never_takes_svd(self, weak, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("auto must not take the svd diagnostic")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        for k_rho in range(1, 7):
            _, info = steady_state(weak, k_rho=k_rho)
            assert info.method == ("lu" if info.size <= generator.DENSE_SIZE_LIMIT else "gmres")
        # k_rho = 6: 1300 unknowns, the first size above the limit
        assert (info.method, info.size) == ("gmres", 1300)

    @pytest.mark.parametrize("coupling", [1e-6, 1e-7])
    def test_gmres_n_mean_matches_lu(self, coupling):
        # g = d_c = coupling: the |n| <= 1 centre plus the n = 2 block sweep
        # leaves a start whose true residual already meets 1e-13 |b|, but
        # GMRES still steps from it
        spec = replace(WEAK_LASERCOOL, g=coupling, lambda0=coupling)
        liouv = build_pipeline_liouvillian(spec, k_ext=4)[2]
        n_gmres = self.n_mean(steady_state(liouv, k_rho=2, method="gmres")[0])
        n_lu = self.n_mean(steady_state(liouv, k_rho=2, method="lu")[0])
        assert n_gmres == pytest.approx(n_lu, rel=1e-10)


def cycle_call(liouv, k_rho, k_in):
    """The arguments (matvec, precond, b, x0, restart) that
    ``_solve_bordered`` hands its GMRES cycle."""
    real, calls = generator._gmres, []

    def spy(*args):
        calls.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(generator, "_gmres", spy)
        generator._solve_bordered(liouv, k_rho, k_in)
    return calls[0]


def scipy_cycle(matvec, precond, b, x0, restart):
    """The same cycle by ``scipy.sparse.linalg.gmres``, the oracle:
    (x, steps, code)."""
    n = len(b)
    op, pre = (
        scipy.sparse.linalg.LinearOperator((n, n), matvec=f, dtype=float) for f in (matvec, precond)
    )
    steps = []
    x, code = scipy.sparse.linalg.gmres(
        op, b, x0=x0, M=pre, rtol=1e-13, atol=0.0, maxiter=1, restart=restart,
        callback=steps.append, callback_type="pr_norm",
    )
    return x, len(steps), code


class TestGmresCycle:
    """``generator._gmres`` is scipy's full-memory, left-preconditioned
    cycle, step for step, on the systems the steady solve hands it."""

    @pytest.fixture(scope="class")
    def fig2(self):
        # Fig-2 omega_L 0.75 at k_rho 3, two reservoirs: no exact centre
        liouv = build_pipeline_liouvillian(fig2_spec(0.75, n_fock=3), k_ext=8)[2]
        return cycle_call(liouv, 3, -1)

    def test_matches_scipy(self, fig2):
        x, steps, code = generator._gmres(*fig2)
        x_ref, steps_ref, code_ref = scipy_cycle(*fig2)
        assert (steps, code) == (steps_ref, code_ref)
        assert steps > 0 and code == 0
        np.testing.assert_array_equal(x, x_ref)

    def test_start_that_meets_the_tolerance_takes_no_step(self):
        # the weak-coupling laser-cooling point of TestOneVerdict: the sweep
        # around its exact centre |n| <= 1 already meets scipy's start test,
        # |b - A x0| < 1e-13 |b|, so scipy returns x0 after no step; the
        # cycle has no start test and takes one step, onto the lu solve
        liouv = build_pipeline_liouvillian(WEAK_LASERCOOL, k_ext=4)[2]
        args = cycle_call(liouv, 2, 1)
        x, steps, code = generator._gmres(*args)
        x_ref, steps_ref, code_ref = scipy_cycle(*args)
        assert (steps_ref, code_ref) == (0, 0)
        np.testing.assert_array_equal(x_ref, args[3])
        assert (steps, code) == (1, 0)
        x_lu = cycle_call(liouv, 2, 2)[3]
        assert np.abs(x - x_lu).max() <= 1e-10 * np.abs(x_lu).max()
        assert np.abs(x - x_lu).max() < np.abs(args[3] - x_lu).max()

    def test_exact_start_takes_a_null_step(self):
        # a start that solves the system exactly has a preconditioned
        # residual of exactly 0: the cycle takes one null step and returns it
        b = np.arange(1.0, 6.0)
        x, steps, code = generator._gmres(lambda x: 2.0 * x, lambda r: r / 2.0, b, b / 2.0, 5)
        assert (steps, code) == (1, 0)
        np.testing.assert_array_equal(x, b / 2.0)

    def test_cycle_that_misses_its_tolerance_returns_code_1(self, fig2):
        _, steps, code = generator._gmres(*fig2[:4], 2)
        assert (steps, code) == scipy_cycle(*fig2[:4], 2)[1:] == (2, 1)


class TestHeatCurrents:
    def test_equilibrium_current_vanishes(self):
        spec = SupersystemSpec(
            omega0=1.0, g=0.0, omega_L=0.7, omega_cc=0.3, n_fock=8, lambda0=0.0,
            beta_h=2.22, beta_c=5.0, hot_bath=Ohmic(d_h=5e-3, omega_ref=1.0),
            residual_bath=Ohmic.from_slope(1e-4),
        )
        h, fs, liouv, rho, info = solve_pipeline(spec, k_ext=10)
        assert abs(heat_current(liouv, rho, "hot")) < 1e-10
        assert abs(heat_current(liouv, rho, "cold")) < 1e-10

    def test_first_law_undriven(self):
        spec = fig2_spec(0.75, n_fock=8, g=0.0, coupling_form="static")
        h, fs, liouv, rho, info = solve_pipeline(spec, k_ext=12)
        qh = heat_current(liouv, rho, "hot")
        qc = heat_current(liouv, rho, "cold")
        assert qh > 0 and qc < 0  # conduction hot -> cold
        assert abs(qh + qc) < 1e-8

    def test_engine_region_signs(self):
        spec = fig2_spec(0.75, n_fock=8)
        h, fs, liouv, rho, info = solve_pipeline(spec, k_ext=12)
        qh = heat_current(liouv, rho, "hot")
        qc = heat_current(liouv, rho, "cold")
        wbar = -qh - qc
        assert qh > 0 and qc < 0 and wbar < 0

    def test_equals_trace_formula(self):
        """Q_nu = sum over q + n = 0 of Tr{rho_n J_q}, J_q = G2'_q S + S G1'_q."""
        spec = fig2_spec(0.75, n_fock=8)
        h, fs, liouv, rho, info = solve_pipeline(spec, k_ext=12)
        qs = range(-liouv.support, liouv.support + 1)
        ns = range(-rho.max_harmonic, rho.max_harmonic + 1)
        for name in ("hot", "cold"):
            expected = 0.0
            for q, j in zip(qs, liouv.currents[name]):
                for n, rn in zip(ns, rho.harmonics):
                    if q + n == 0:
                        expected += np.trace(rn @ j)
            got = heat_current(liouv, rho, name)
            assert abs(got - expected.real) <= 1e-15 * abs(expected.real)

    def test_unknown_reservoir(self):
        spec = fig2_spec(0.75, n_fock=3)
        h, fs, liouv, rho, info = solve_pipeline(spec, k_ext=8)
        with pytest.raises(KeyError):
            heat_current(liouv, rho, "warm")

    def test_cc_energy_flow_average_vanishes(self):
        spec = fig2_spec(0.82, n_fock=8)
        h, fs, liouv, rho, info = solve_pipeline(spec, k_ext=12)
        flow = periodic_average_rate(liouv, rho, cc_hamiltonian(spec))
        assert flow < 1e-10


class TestSecularMode:
    def test_agrees_with_full_generator_when_spacings_large(self):
        # static coupling, no drive: quasienergy gaps ~ omega_cc >> rates
        spec = fig2_spec(0.75, n_fock=6, g=0.0, coupling_form="static")
        h, fs, liouv, rho, info = solve_pipeline(spec, k_ext=10)
        qh_full = heat_current(liouv, rho, "hot")
        ops = build_coupling_operators(spec)
        channels = [
            BathChannel("hot", ops.s_hot, spec.hot_bath, beta=spec.beta_h),
            BathChannel("cold", ops.s_cold_residual, spec.residual_bath, beta=spec.beta_c),
        ]
        jumps = [
            decompose_operator(ops.s_hot, fs),
            decompose_operator(ops.s_cold_residual, fs),
        ]
        pops, currents = secular_rate_solution(fs, channels, jumps)
        assert pops.sum() == pytest.approx(1.0, abs=1e-12)
        assert currents["hot"] == pytest.approx(qh_full, rel=0.2)
        assert currents["hot"] > 0 and currents["cold"] < 0
