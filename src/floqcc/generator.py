"""Counting-field Floquet master-equation generator, periodic steady state,
and reservoir heat currents.

The generator acts on vectorized density matrices (column stacking,
vec(A X B) = (B^T kron A) vec(X)) and is stored by harmonic components
L(t) = sum_q exp(i q w t) L_q.  Each reservoir contributes four dissipator
terms built from its static coupling operator S and two rate-filtered
periodic kernels

    G1(t) = sum_e J(D_e) N(D_e)     a_e e^{i n_e w t} |r_e(t)><r'_e(t)| ,
    G2(t) = sum_e J(D_e) [1+N(D_e)] a_e e^{i n_e w t} |r_e(t)><r'_e(t)| ,

where e runs over the Floquet jump decomposition of S, D_e is the transition
frequency and a_e the entry amplitude:

    L_diss(t) rho = - S G1(t) rho + S rho G2(t) + G1(t) rho S - rho G2(t) S .

The counting-field derivative keeps only the two sandwich terms with weights
-D on the emission sandwich (S rho G2) and +D on the absorption sandwich
(G1 rho S), so the heat current into the supersystem from reservoir nu is
Q_nu(t) = Tr{S rho(t) G2'(t)} + Tr{G1'(t) rho(t) S}; ``heat_current`` returns
its period average, the sum over harmonics q of
Tr{S rho_{-q} G2'_q} + Tr{G1'_q rho_{-q} S}.  The principal-value
(Lamb-shift) contribution is omitted.

The periodic steady state, a ``PeriodicOperator`` of harmonics rho_n,
solves the block system i n w rho_n = sum_k L_k rho_{n-k} by a dense SVD
null-space solve, a dense LU solve of the system bordered with the trace
condition, or matrix-free GMRES.  The dense routes share one memory guard:
the block system itself must fit in 2.5 GB.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .bath import SpectralDensity, bose_occupation
from .floquet import FloquetSolution, JumpDecomposition
from .model import PeriodicOperator


class SteadyStateError(RuntimeError):
    """Null-space solve failed or its invariants are violated."""


class DegenerateSteadyStateError(SteadyStateError):
    """More than one periodic steady state within numerical tolerance."""


# transition frequencies below this take the delta -> 0 limit of the rates
DEGENERATE_DELTA = 1e-12
# kernel harmonics below this fraction of a reservoir's largest are dropped
KERNEL_PRUNE = 3e-12


def thermal_rates(density: SpectralDensity, beta: float, delta: float) -> tuple[float, float]:
    """Absorption and emission rates (J N, J (1 + N)) at transition frequency
    ``delta``, using the odd-extended spectral density.

    Both rates are continuous through delta = 0 with common limit
    slope(J)/beta, evaluated explicitly below DEGENERATE_DELTA where the
    naive expression is 0/0.
    """
    if abs(delta) < DEGENERATE_DELTA:
        r = density.slope_at_zero() / beta
        return r, r
    if delta > 0:
        j = density.evaluate(delta)
        n = bose_occupation(delta, beta)
        return j * n, j * (1.0 + n)
    j = density.evaluate(-delta)
    n = bose_occupation(-delta, beta)
    return j * (1.0 + n), j * n


@dataclass(frozen=True)
class BathChannel:
    """One reservoir: its label, static coupling operator, spectral density
    and inverse temperature."""

    name: str
    coupling: np.ndarray
    density: SpectralDensity
    beta: float


@dataclass(frozen=True)
class ChannelKernels:
    """Harmonic components of a reservoir's rate-filtered kernels."""

    coupling: np.ndarray
    g1: dict[int, np.ndarray]
    g2: dict[int, np.ndarray]
    g1_prime: dict[int, np.ndarray]
    g2_prime: dict[int, np.ndarray]


def _spre(x: np.ndarray) -> np.ndarray:
    return np.kron(np.eye(x.shape[0]), x)


def _spost(x: np.ndarray) -> np.ndarray:
    return np.kron(x.T, np.eye(x.shape[0]))


def _jump_rates(channel: BathChannel, jumps: JumpDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """Absorption and emission rates (J N, J (1 + N)) of every jump entry."""
    rates = np.array(
        [thermal_rates(channel.density, channel.beta, dl) for dl in jumps.delta]
    ).reshape(-1, 2)
    return rates[:, 0], rates[:, 1]


def _channel_kernels(
    channel: BathChannel, jumps: JumpDecomposition, fs: FloquetSolution
) -> ChannelKernels:
    d = fs.dim
    k = fs.k_ext
    n_e = jumps.n_idx
    if len(jumps) == 0:
        return ChannelKernels(channel.coupling, {}, {}, {}, {})
    n_min, n_max = int(n_e.min()), int(n_e.max())

    # per-harmonic weight matrices W_n[r, r'] of the four kernels
    gn, ge = _jump_rates(channel, jumps)
    amp = jumps.amplitude
    w = np.zeros((4, n_max - n_min + 1, d, d), dtype=complex)
    entries = (n_e - n_min, jumps.r_idx, jumps.rp_idx)
    for wa, vals in zip(w, (gn * amp, ge * amp, jumps.delta * gn * amp, -jumps.delta * ge * amp)):
        np.add.at(wa, entries, vals)

    # kernel G(t) = V(t) W(t) V(t)^dag with V(t) = sum_m e^{i m w t} V_m the
    # mode matrix; its harmonics q = n + m' - m span exactly nt values, so nt
    # samples per period and one FFT give them without aliasing
    nt = n_max - n_min + 4 * k + 1
    tj = np.arange(nt)[:, None]
    ladder = np.arange(-k, k + 1)
    # v_t[j] = V(t_j)^T: rows are the modes |r(t_j)>
    v_t = np.tensordot(np.exp(2j * np.pi * (tj * ladder % nt) / nt), fs.modes, axes=(1, 1))
    ph_n = np.exp(2j * np.pi * (tj * np.arange(n_min, n_max + 1) % nt) / nt)
    g = (ph_n @ w.reshape(4, -1, d * d)).reshape(4, nt, d, d)  # W(t_j), then G
    for ga in g:
        np.matmul(v_t.transpose(0, 2, 1) @ ga, v_t.conj(), out=ga)
        ga[:] = np.fft.fft(ga, axis=0, norm="forward")

    # prune the four kernels jointly; harmonic q sits at index q mod nt, and
    # only the retained harmonics are kept in memory
    block_max = np.abs(g).max(axis=(0, 2, 3))
    floor = KERNEL_PRUNE * block_max.max()
    kept = [q for q in range(n_min - 2 * k, n_max + 2 * k + 1) if block_max[q % nt] > floor]
    mats = [dict(zip(kept, ga)) for ga in g[:, [q % nt for q in kept]]]
    return ChannelKernels(channel.coupling, *mats)


@dataclass
class CountingLiouvillian:
    """Harmonic components of the generator and of its counting-field
    derivative for each reservoir."""

    h_harmonics: dict[int, np.ndarray]
    channels: dict[str, ChannelKernels]
    omega_L: float
    dim: int
    _component_cache: dict[int, np.ndarray] = field(default_factory=dict, repr=False)

    @cached_property
    def support(self) -> int:
        """Largest |q| with a nonzero harmonic component."""
        qs = {abs(k) for k in self.h_harmonics}
        for ker in self.channels.values():
            for d in (ker.g1, ker.g2):
                qs |= {abs(q) for q in d}
        return max(qs) if qs else 0

    def suggested_k_rho(self) -> int:
        """Harmonic count for the steady state: rho_n falls off roughly like
        (c / omega_L)^n with c the strength of the generator's oscillating
        part, so pick the smallest n with that estimate below 1e-8, between
        2 and 12."""
        c = 0.0
        for q, m in self.h_harmonics.items():
            if q != 0:
                c = max(c, float(np.max(np.abs(m))))
        for ker in self.channels.values():
            smax = float(np.max(np.abs(ker.coupling)))
            for dd in (ker.g1, ker.g2):
                for q, m in dd.items():
                    if q != 0:
                        c = max(c, smax * float(np.max(np.abs(m))))
        if c == 0.0:
            return 1
        ratio = min(c / self.omega_L, 0.5)
        k = math.ceil(math.log(1e-8) / math.log(ratio))
        return int(np.clip(k, 2, 12))

    def component(self, q: int) -> np.ndarray:
        """Superoperator matrix L_q on the vectorized density space."""
        cached = self._component_cache.get(q)
        if cached is not None:
            return cached
        d = self.dim
        eye = np.eye(d)
        out = np.zeros((d * d, d * d), dtype=complex)
        hq = self.h_harmonics.get(q)
        if hq is not None:
            out += -1j * (_spre(hq) - _spost(hq))
        for ker in self.channels.values():
            s = ker.coupling
            g1 = ker.g1.get(q)
            g2 = ker.g2.get(q)
            if g1 is not None:
                out += -np.kron(eye, s @ g1) + np.kron(s.T, g1)
            if g2 is not None:
                out += np.kron(g2.T, s) - np.kron((g2 @ s).T, eye)
        self._component_cache[q] = out
        return out

    def apply_component(self, q: int, rho: np.ndarray) -> np.ndarray:
        """L_q acting on a density matrix, or on each matrix of a stack
        (shape (..., d, d)), without building superoperators."""
        out = np.zeros_like(rho)
        hq = self.h_harmonics.get(q)
        if hq is not None:
            out += -1j * (hq @ rho - rho @ hq)
        for ker in self.channels.values():
            s = ker.coupling
            g1 = ker.g1.get(q)
            g2 = ker.g2.get(q)
            if g1 is not None:
                out += -s @ g1 @ rho + g1 @ rho @ s
            if g2 is not None:
                out += s @ rho @ g2 - rho @ g2 @ s
        return out

    def matrix_at_time(self, t: float) -> np.ndarray:
        """Dense superoperator L(t) = sum_q exp(i q w t) L_q."""
        d2 = self.dim**2
        out = np.zeros((d2, d2), dtype=complex)
        for q in range(-self.support, self.support + 1):
            lq = self.component(q)
            if np.any(lq):
                out += np.exp(1j * q * self.omega_L * t) * lq
        return out


def build_liouvillian(
    h: PeriodicOperator,
    fs: FloquetSolution,
    channels: list[BathChannel],
    jumps: list[JumpDecomposition],
) -> CountingLiouvillian:
    """Assemble the harmonic generator components and their counting-field
    derivatives from per-reservoir Floquet jump decompositions.

    Kernel harmonics below KERNEL_PRUNE of the largest one are dropped (the
    four kernels of a reservoir are pruned jointly, which preserves exact
    trace annihilation of every retained harmonic).
    """
    if len(channels) != len(jumps):
        raise ValueError("need one jump decomposition per channel")
    if not channels:
        raise ValueError("at least one reservoir is required")
    kernels: dict[str, ChannelKernels] = {}
    for ch, jd in zip(channels, jumps):
        if ch.name in kernels:
            raise ValueError(f"duplicate channel name {ch.name!r}")
        kernels[ch.name] = _channel_kernels(ch, jd, fs)
    return CountingLiouvillian(
        h_harmonics=dict(h.harmonics),
        channels=kernels,
        omega_L=h.omega_L,
        dim=h.dim,
    )


@dataclass(frozen=True)
class SteadyStateInfo:
    method: str
    k_rho: int
    size: int
    residual: float
    sigma_null: float | None
    sigma_second: float | None
    trace_defect: float
    hermiticity_defect: float
    min_eigenvalue: float
    fallback: str | None = None  # why the requested route was left for lu


def _block_system_dense(liouv: CountingLiouvillian, k_rho: int) -> np.ndarray:
    """The harmonic block system as one dense matrix, in Fortran order so
    LAPACK factors it in place."""
    d2 = liouv.dim**2
    size = (2 * k_rho + 1) * d2
    dense_bytes = size * size * 16
    if dense_bytes > 2_500_000_000:
        raise SteadyStateError(
            f"dense block system of size {size} would need {dense_bytes / 1e9:.1f} GB "
            "(n_fock too large); reduce the problem size"
        )
    big = np.zeros((size, size), dtype=complex, order="F")
    comps = {
        q: liouv.component(q)
        for q in range(-liouv.support, liouv.support + 1)
        if np.any(liouv.component(q))
    }
    for n in range(-k_rho, k_rho + 1):
        i = (n + k_rho) * d2
        big[i : i + d2, i : i + d2] -= 1j * n * liouv.omega_L * np.eye(d2)
        for q, lq in comps.items():
            m = n - q
            if m < -k_rho or m > k_rho:
                continue
            j = (m + k_rho) * d2
            big[i : i + d2, j : j + d2] += lq
    return big


def _bordered_factor(big: np.ndarray, k_rho: int, d: int):
    """LU factors of the block system with the trace condition in place of
    one redundant row of the n = 0 block (the trace functional on that block
    is an exact left null vector).  ``big`` is overwritten."""
    from scipy.linalg import LinAlgWarning, lu_factor

    row0 = k_rho * d * d
    big[row0, :] = 0.0
    big[row0, row0 + np.arange(d) * (d + 1)] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", LinAlgWarning)
        try:
            return lu_factor(big, overwrite_a=True)
        except LinAlgWarning as exc:
            raise DegenerateSteadyStateError(
                f"bordered system is singular ({exc}): more than one steady state"
            ) from exc


def _apply_block_system(liouv: CountingLiouvillian, k_rho: int, x: np.ndarray) -> np.ndarray:
    """Matrix-free action of the harmonic block system on a stacked vector of
    density-matrix harmonics (column-stacked within each block), applied one
    harmonic shift q at a time to the whole stack."""
    d = liouv.dim
    nb = 2 * k_rho + 1
    rho = x.reshape(nb, d, d).transpose(0, 2, 1)
    n = np.arange(-k_rho, k_rho + 1)
    out = (-1j * n * liouv.omega_L)[:, None, None] * rho
    supp = min(liouv.support, 2 * k_rho)
    for q in range(-supp, supp + 1):
        lo, hi = max(0, q), min(nb, nb + q)
        out[lo:hi] += liouv.apply_component(q, rho[lo - q : hi - q])
    return out.transpose(0, 2, 1).reshape(-1)


def _residual(liouv: CountingLiouvillian, k_rho: int, vec: np.ndarray) -> float:
    """Relative residual of the original (singular) block system rows."""
    res = _apply_block_system(liouv, k_rho, vec)
    res[k_rho * liouv.dim**2] = 0.0
    return float(np.linalg.norm(res) / np.linalg.norm(vec))


def _solve_bordered_gmres(
    liouv: CountingLiouvillian,
    k_rho: int,
    inner: tuple[int, Callable[[np.ndarray], np.ndarray]] | None = None,
):
    """Bordered solve by GMRES with a block-diagonal preconditioner.

    The system action is applied matrix-free through the channel kernels;
    only the diagonal blocks L_0 - i n w are formed densely (for the
    preconditioner factorization).  The harmonic off-diagonal coupling is
    weak, so preconditioned GMRES converges in a handful of iterations.
    ``inner = (k_in, solve)`` hands the central harmonics |n| <= k_in to
    ``solve``, an exact solve of the bordered k_in system (a factorization
    kept from an earlier direct solve), so a k_in solution is refined to
    k_rho > k_in in a few iterations even where the block-diagonal
    preconditioner alone stalls.
    Returns (solution vector, relative residual of the original system).
    """
    from scipy.linalg import lu_factor, lu_solve
    from scipy.sparse.linalg import LinearOperator, gmres

    d = liouv.dim
    d2 = d * d
    nb = 2 * k_rho + 1
    size = nb * d2
    row0 = k_rho * d2
    tr_cols = row0 + np.arange(d) * (d + 1)
    k_in, inner_solve = inner if inner is not None else (-1, None)
    outer = [n for n in range(-k_rho, k_rho + 1) if abs(n) > k_in]

    # preconditioner factors hold one dense d^2 x d^2 block per harmonic;
    # keep a hard memory guard so oversized problems fail cleanly instead of
    # thrashing
    factor_bytes = len(outer) * (d2**2) * 16
    if factor_bytes > 1_500_000_000:
        raise SteadyStateError(
            f"gmres preconditioner would need {factor_bytes / 1e9:.1f} GB "
            f"(n_fock too large); reduce the problem size"
        )
    l0 = liouv.component(0)

    # bordered operator: trace condition replaces one redundant row of the
    # n = 0 block (the trace functional is an exact left null vector there)
    def matvec(x: np.ndarray) -> np.ndarray:
        y = _apply_block_system(liouv, k_rho, x)
        y[row0] = x[tr_cols].sum()
        return y

    factors = {}
    for n in outer:
        block = l0 - 1j * n * liouv.omega_L * np.eye(d2)
        if n == 0:
            block = block.copy()
            block[0, :] = 0.0
            block[0, np.arange(d) * (d + 1)] = 1.0
        factors[n] = lu_factor(block)
    central = slice((k_rho - k_in) * d2, (k_rho + k_in + 1) * d2)

    def precond(x: np.ndarray) -> np.ndarray:
        out = np.empty_like(x)
        if inner_solve is not None:
            out[central] = inner_solve(x[central])
        for n, fac in factors.items():
            seg = slice((n + k_rho) * d2, (n + k_rho + 1) * d2)
            out[seg] = lu_solve(fac, x[seg])
        return out

    op = LinearOperator((size, size), matvec=matvec, dtype=complex)
    pre = LinearOperator((size, size), matvec=precond, dtype=complex)
    rhs = np.zeros(size, dtype=complex)
    rhs[row0] = 1.0
    x0 = precond(rhs)
    # one full-memory cycle; restarting loses superlinear convergence here
    vec, code = gmres(
        op, rhs, x0=x0, M=pre, rtol=1e-13, atol=0.0, maxiter=1, restart=min(180, size)
    )
    residual = _residual(liouv, k_rho, vec)
    if residual > 1e-10:
        # generators with very slow modes (e.g. an undamped mode cooled only
        # through drive sidebands) defeat the block preconditioner; escalate
        raise SteadyStateError(
            f"preconditioned GMRES stalled (code {code}, residual {residual:.2e})"
        )
    return vec, residual


def _periodic_state(
    vec: np.ndarray, k_rho: int, d: int, omega_L: float
) -> tuple[PeriodicOperator, float, float]:
    """Trace-normalized, Hermitian-symmetrized harmonics from a stacked
    solution vector, with the hermiticity and off-harmonic trace defects."""
    nb = 2 * k_rho + 1
    blocks = vec.reshape(nb, d * d)
    # column-stacking: vec index j*d + i holds element (i, j)
    rho = {n - k_rho: blocks[n].reshape(d, d).T.copy() for n in range(nb)}
    tr0 = np.trace(rho[0])
    if abs(tr0) < 1e-14:
        raise SteadyStateError("null vector has (numerically) traceless rho_0")
    for n in rho:
        rho[n] = rho[n] / tr0

    herm_defect = 0.0
    sym = {}
    for n in range(0, k_rho + 1):
        a = rho[n]
        b = rho[-n].conj().T
        herm_defect = max(herm_defect, float(np.max(np.abs(a - b))))
        avg = 0.5 * (a + b)
        sym[n] = avg
        sym[-n] = avg.conj().T
    trace_defect = max(
        float(abs(np.trace(sym[n]))) for n in sym if n != 0
    ) if k_rho > 0 else 0.0

    pruned = {
        n: m for n, m in sym.items() if n == 0 or np.max(np.abs(m)) > 1e-16
    }
    return PeriodicOperator(harmonics=pruned, omega_L=omega_L), herm_defect, trace_defect


def _min_eigenvalue(rho: PeriodicOperator) -> float:
    """Smallest eigenvalue of rho(t) over six times in the period."""
    period = 2.0 * math.pi / rho.omega_L
    return min(
        float(np.linalg.eigvalsh(rho.at_time(f * period)).min())
        for f in (0.0, 1.0 / 6.0, 1.0 / 3.0, 0.5, 2.0 / 3.0, 5.0 / 6.0)
    )


def _positivity_message(
    liouv: CountingLiouvillian,
    k_rho: int,
    min_eig: float,
    inner: tuple[int, Callable[[np.ndarray], np.ndarray]] | None,
) -> str:
    """Name the cause of a positivity violation with one refinement probe.

    The state is re-solved with k_rho + 2.  Only when that moves the minimum
    eigenvalue is the violation blamed on truncation; otherwise it belongs
    to the non-secular (Redfield-type) generator itself, which does not
    guarantee a positive state.
    """
    head = f"reconstructed rho(t) has negative eigenvalue {min_eig:.3e}"
    try:
        vec, _ = _solve_bordered_gmres(liouv, k_rho + 2, inner=inner)
        rho, _, _ = _periodic_state(vec, k_rho + 2, liouv.dim, liouv.omega_L)
    except SteadyStateError as exc:
        return f"{head}; cause unknown, the k_rho={k_rho + 2} probe failed ({exc})"
    moved = _min_eigenvalue(rho)
    if abs(moved - min_eig) > 1e-2 * abs(min_eig):
        return (
            f"{head}; truncation: k_rho {k_rho}->{k_rho + 2} moves it to "
            f"{moved:.3e}, raise k_rho / k_ext / n_fock"
        )
    return (
        f"{head}; intrinsic to the non-secular generator: k_rho "
        f"{k_rho}->{k_rho + 2} leaves it at {moved:.3e}, not a truncation error"
    )


DENSE_SIZE_LIMIT = 1200


def steady_state(
    liouv: CountingLiouvillian,
    k_rho: int | None = None,
    method: str = "auto",
    trace_tol: float = 1e-10,
    positivity_tol: float = 1e-8,
) -> tuple[PeriodicOperator, SteadyStateInfo]:
    """Solve the harmonic steady-state block system.

    ``method`` is "svd" (dense null space, reports singular values), "lu"
    (dense bordered LU solve), "gmres" (bordered solve, block-diagonal
    preconditioner), or "auto": svd up to DENSE_SIZE_LIMIT unknowns,
    otherwise lu for a single reservoir and gmres for two (dense SVD scales
    as the cube of (2 k_rho + 1) d^2 and is kept for diagnostics and
    cross-validation).  svd and lu build the block system densely and refuse
    it above 2.5 GB.  A failed gmres solve falls back to lu, recording why
    in ``SteadyStateInfo.fallback``; if lu fails too, the error names both
    causes.  In every bordered variant the trace condition replaces one
    redundant row of the n = 0 block (the trace functional on that block is
    an exact left null vector); an exactly singular bordered system means
    more than one steady state.  The returned harmonics are trace-normalized
    and Hermitian-symmetrized (rho_{-n} = rho_n^dag is an exact property of
    the solution); positivity of rho(t) and the residual of the block
    equation (at most 1e-8) are checked.
    """
    from scipy.linalg import lu_solve

    if k_rho is None:
        k_rho = liouv.suggested_k_rho()
    d = liouv.dim
    d2 = d * d
    nb = 2 * k_rho + 1
    size = nb * d2
    if method == "auto":
        # single-reservoir generators have very slow modes that defeat the
        # gmres preconditioner; they go direct
        large = "lu" if len(liouv.channels) == 1 else "gmres"
        method = "svd" if size <= DENSE_SIZE_LIMIT else large

    sigma_null = sigma_second = None
    if method == "svd":
        big = _block_system_dense(liouv, k_rho)
        _, s, vh = np.linalg.svd(big)
        sigma_null = float(s[-1])
        sigma_second = float(s[-2])
        rank_tol = float(s[0]) * 1e-8
        n_null = int(np.sum(s < rank_tol))
        if n_null != 1:
            raise DegenerateSteadyStateError(
                f"null space dimension {n_null} (expected 1); "
                f"second-smallest singular value {sigma_second:.3e}"
            )
        vec = vh[-1].conj()
        residual = sigma_null / float(s[0])
    elif method == "lu":
        factor = _bordered_factor(_block_system_dense(liouv, k_rho), k_rho, d)
        rhs = np.zeros(size, dtype=complex)
        rhs[k_rho * d2] = 1.0
        vec = lu_solve(factor, rhs)
        residual = _residual(liouv, k_rho, vec)
    elif method == "gmres":
        try:
            vec, residual = _solve_bordered_gmres(liouv, k_rho)
        except SteadyStateError as exc:
            try:
                result, info = steady_state(
                    liouv, k_rho=k_rho, method="lu", trace_tol=trace_tol,
                    positivity_tol=positivity_tol,
                )
            except SteadyStateError as lu_exc:
                raise SteadyStateError(
                    f"gmres failed ({exc}); the lu fallback failed too: {lu_exc}"
                ) from lu_exc
            return result, replace(info, fallback=f"gmres: {exc}")
    else:
        raise ValueError(f"unknown steady-state method {method!r}")

    result, herm_defect, trace_defect = _periodic_state(vec, k_rho, d, liouv.omega_L)
    min_eig = _min_eigenvalue(result)

    info = SteadyStateInfo(
        method=method,
        k_rho=k_rho,
        size=size,
        residual=residual,
        sigma_null=sigma_null,
        sigma_second=sigma_second,
        trace_defect=trace_defect,
        hermiticity_defect=herm_defect,
        min_eigenvalue=min_eig,
    )
    if trace_defect > trace_tol:
        raise SteadyStateError(
            f"off-harmonic trace {trace_defect:.3e} above {trace_tol:.1e}; "
            "raise k_rho / k_ext / n_fock"
        ) from None
    if min_eig < -positivity_tol:
        inner = None  # gmres: the probe preconditions block-diagonally
        if method != "gmres":
            if method == "svd":
                factor = _bordered_factor(big, k_rho, d)
            inner = (k_rho, lambda x: lu_solve(factor, x))
        raise SteadyStateError(_positivity_message(liouv, k_rho, min_eig, inner))
    if residual > 1e-8:
        raise SteadyStateError(f"steady-state residual {residual:.3e} above 1.0e-08")
    return result, info


def heat_current(liouv: CountingLiouvillian, rho: PeriodicOperator, name: str) -> float:
    """Period average of Q_nu(t) = Tr{L'_nu(t) rho(t)}, positive when heat
    flows into the supersystem: the sum over kernel harmonics q of
    Tr{S rho_{-q} G2'_q} + Tr{G1'_q rho_{-q} S}."""
    ker = liouv.channels.get(name)
    if ker is None:
        raise KeyError(f"no reservoir named {name!r}; have {sorted(liouv.channels)}")
    s = ker.coupling
    total = 0.0
    for q, g2p in ker.g2_prime.items():
        rn = rho.harmonics.get(-q)
        if rn is not None:
            total += complex(np.trace(s @ rn @ g2p))
    for q, g1p in ker.g1_prime.items():
        rn = rho.harmonics.get(-q)
        if rn is not None:
            total += complex(np.trace(g1p @ rn @ s))
    return float(total.real)


def periodic_average_rate(
    liouv: CountingLiouvillian, rho: PeriodicOperator, observable: np.ndarray
) -> float:
    """Period average of d<O>/dt = Tr{O L(t) rho(t)} at steady state.

    Vanishes for any observable when rho solves the harmonic block system
    exactly, so the magnitude measures solve quality.
    """
    total = 0.0 + 0.0j
    for q in range(-liouv.support, liouv.support + 1):
        rn = rho.harmonics.get(-q)
        if rn is None:
            continue
        total += np.trace(observable @ liouv.apply_component(q, rn))
    return float(abs(total))


def secular_rate_solution(
    fs: FloquetSolution,
    channels: list[BathChannel],
    jumps: list[JumpDecomposition],
) -> tuple[np.ndarray, dict[str, float]]:
    """Secular (rate-equation) steady state in the Floquet basis.

    Keeps only population dynamics: transition rates
    W_nu[r' -> r] = sum_n 2 J_nu(D) N_nu(D) |a|^2 with D = eps_r - eps_r' +
    n w.  Returns steady populations and the period-averaged heat currents
    Q_nu = sum_entries D * rate * p_{r'} (diagonal entries with n != 0 are
    photon-assisted processes and do contribute).  This is the standard
    Born-Markov-secular treatment, kept for benchmarking; it is unreliable
    whenever quasienergy differences are comparable to the rates.
    """
    d = fs.dim
    rates = np.zeros((d, d))  # [r, r'] = W[r' -> r]
    per_channel = []
    for ch, jd in zip(channels, jumps):
        gammas = 2.0 * _jump_rates(ch, jd)[0] * np.abs(jd.amplitude) ** 2
        per_channel.append(gammas)
        off = jd.r_idx != jd.rp_idx
        np.add.at(rates, (jd.r_idx[off], jd.rp_idx[off]), gammas[off])
    gen = rates.copy()
    gen[np.diag_indices(d)] -= rates.sum(axis=0)
    _, s, vh = np.linalg.svd(gen)
    if s[-2] < s[0] * 1e-10:
        raise DegenerateSteadyStateError("secular rate matrix has degenerate kernel")
    p = vh[-1].real
    p = p / p.sum()
    if p.min() < -1e-9:
        raise SteadyStateError(f"secular populations not positive: min {p.min():.3e}")
    p = np.clip(p, 0.0, None)
    p = p / p.sum()

    currents = {}
    for (ch, jd), gammas in zip(zip(channels, jumps), per_channel):
        currents[ch.name] = float(np.sum(jd.delta * gammas * p[jd.rp_idx]))
    return p, currents
