"""Counting-field Floquet master-equation generator, periodic steady state,
and reservoir heat currents.

The generator is stored by harmonic components L(t) = sum_q exp(i q w t) L_q.
Each reservoir contributes four dissipator terms built from its static
coupling operator S and two rate-filtered periodic kernels

    G1(t) = sum_{n,r,r'} J(D) N(D)     a e^{i n w t} |r(t)><r'(t)| ,
    G2(t) = sum_{n,r,r'} J(D) [1+N(D)] a e^{i n w t} |r(t)><r'(t)| ,

where a = amp[n, r, r'] is the Floquet jump amplitude of S
(``floquet.decompose_operator``) and D = eps_r - eps_r' + n w its
transition frequency:

    L_diss(t) rho = - S G1(t) rho + S rho G2(t) + G1(t) rho S - rho G2(t) S .

Each L_q is stored as its no-jump pair plus the reservoir sandwiches,

    L_q rho = A_q rho + rho B_q + sum_nu (G1_{nu,q} rho S_nu + S_nu rho G2_{nu,q}),
    A_q = -i H_q - sum_nu S_nu G1_{nu,q},   B_q = i H_q - sum_nu G2_{nu,q} S_nu ,

and every evaluator reads it through one grouping,
``CountingLiouvillian.stacks`` ([A_q; G1_{nu,q}...] and [B_q, G2_{nu,q}...]
per q), and one formula, ``CountingLiouvillian.sandwich``.  No
superoperator matrix is kept; dense ones act on column-stacked vectors,
vec(A X B) = (B^T kron A) vec(X), and each is built as one stacked matrix
product, in Fortran order.

The counting-field derivative keeps only the two sandwich terms with weights
-D on the emission sandwich (S rho G2) and +D on the absorption sandwich
(G1 rho S), so the heat current into the supersystem from reservoir nu is
Q_nu(t) = Tr{S rho(t) G2'(t)} + Tr{G1'(t) rho(t) S}; ``heat_current`` returns
its period average, the sum over harmonics q of
Tr{S rho_{-q} G2'_q} + Tr{G1'_q rho_{-q} S}.  The principal-value
(Lamb-shift) contribution is omitted.

The periodic steady state, a ``PeriodicOperator`` of harmonics rho_n,
solves the block system i n w rho_n = sum_k L_k rho_{n-k} by one bordered
solve (the trace condition in place of a redundant row) under a block
lower-triangular preconditioner, one forward sweep over |n|.  Every route
is one call ``_solve_bordered(liouv, k_rho, k_in)``, differing only in
k_in: the sweep solves the exact centre |n| <= k_in first (the bordered
rho_0 alone when k_in = -1), then each outer harmonic n by the LU of
L_0 - i n w, after subtracting the couplings L_{n-m} rho_m from the
harmonics |m| < n already solved.  ``lu`` takes k_in = k_rho, so the sweep
is the solve; ``gmres`` iterates under it, with k_in = 1 on a
single-reservoir generator and -1 on two; the positivity probe solves
k_rho + 2 around its base route's k_in.  Each ``steady_state`` call runs
one route, and a route that fails fails the call.  GMRES applies the block
system matrix-free and in time: the stacks of L are sampled once per
solve, and each action is an FFT pair around their sandwich.  The
generator keeps rho Hermitian, rho_{-n} = rho_n^dag, so every route runs
in the real Hermitian basis: its unknowns are rho_0 by its d^2 Hermitian
coordinates and Re and Im of rho_n for n >= 1.  The
exact centre is one real LU of the system in that basis; the block LUs
are complex, one per harmonic n >= 0 outside it, the last one in L_0's own
buffer.  One guard, before anything is allocated, counts what a route
holds, the centre at 8 B per entry and the block LUs at 16 B, and refuses
it above 2.5 GB on ``lu`` and 1.5 GB on ``gmres``.
A generator with nan or inf entries fails every route up front, with the
parts that hold them named.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable, Collection
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bath import SpectralDensity, bose_occupation
from .floquet import ARRAY_BYTES_LIMIT, FloquetSolution
from .model import PeriodicOperator


class SteadyStateError(RuntimeError):
    """Null-space solve failed or its invariants are violated."""


class DegenerateSteadyStateError(SteadyStateError):
    """More than one periodic steady state within numerical tolerance."""


# transition frequencies below this take the delta -> 0 limit of the rates
DEGENERATE_DELTA = 1e-12
# kernel harmonics below this fraction of a reservoir's largest are dropped
KERNEL_PRUNE = 3e-12


def thermal_rates(density: SpectralDensity, beta: float, delta):
    """Absorption and emission rates (J N, J (1 + N)) at transition frequency
    ``delta``, using the odd-extended spectral density: floats for a float
    ``delta``, arrays of its shape for an array.

    Both rates are continuous through delta = 0 with common limit
    slope(J)/beta, evaluated explicitly below DEGENERATE_DELTA where the
    naive expression is 0/0.
    """
    delta = np.asarray(delta, dtype=float)
    w = np.abs(delta)
    degenerate = w < DEGENERATE_DELTA
    # J and N at |delta|, away from the 0/0 of the degenerate entries
    w = np.where(degenerate, 1.0, w)
    j = density.evaluate(w)
    n = bose_occupation(w, beta)
    lower, upper = j * n, j * (1.0 + n)
    limit = density.slope_at_zero() / beta
    rising = delta > 0
    absorption = np.where(degenerate, limit, np.where(rising, lower, upper))
    emission = np.where(degenerate, limit, np.where(rising, upper, lower))
    if delta.ndim == 0:
        return float(absorption), float(emission)
    return absorption, emission


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


def _channel_kernels(
    channel: BathChannel, amp: np.ndarray, fs: FloquetSolution
) -> ChannelKernels:
    d = fs.dim
    k = fs.k_ext
    # n_min..n_max: the lowest and highest harmonic holding a nonzero amplitude
    held = np.flatnonzero(np.any(amp != 0, axis=(1, 2))) - 2 * k
    if held.size == 0:
        return ChannelKernels(channel.coupling, {}, {}, {}, {})
    n_min, n_max = int(held[0]), int(held[-1])
    amp = amp[n_min + 2 * k : n_max + 2 * k + 1]

    # per-harmonic weight matrices W_n[r, r'] of the four kernels; rates are
    # finite at every delta, so zero amplitudes weigh exactly 0
    delta = fs.transition_frequencies(np.arange(n_min, n_max + 1))
    gn, ge = thermal_rates(channel.density, channel.beta, delta)
    w = np.stack([gn * amp, ge * amp, delta * gn * amp, -delta * ge * amp])

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


def _k_rho_estimate(h: PeriodicOperator, kernels: dict[str, ChannelKernels]) -> int:
    """Harmonic count for the steady state: rho_n falls off roughly like
    (c / omega_L)^n with c the strength of the generator's oscillating
    part, so pick the smallest n with that estimate below 1e-8, between
    2 and 12; 1 when the generator has no oscillating part."""
    c = max([0.0] + [float(np.max(np.abs(m))) for q, m in h.harmonics.items() if q != 0])
    for ker in kernels.values():
        smax = float(np.max(np.abs(ker.coupling)))
        for dd in (ker.g1, ker.g2):
            c = max([c] + [smax * float(np.max(np.abs(m))) for q, m in dd.items() if q != 0])
    if c == 0.0:
        return 1
    ratio = min(c / h.omega_L, 0.5)
    k = math.ceil(math.log(1e-8) / math.log(ratio))
    return int(np.clip(k, 2, 12))


@dataclass(frozen=True)
class CountingLiouvillian:
    """Harmonic components of the generator, each as its no-jump pair
    (A_q, B_q) plus the reservoir sandwiches, and of its counting-field
    derivative for each reservoir.  Every evaluator of L_q groups them by
    ``stacks`` and applies them by ``sandwich``.  ``k_rho_estimate`` is
    the steady state's default harmonic count."""

    no_jump: dict[int, tuple[np.ndarray, np.ndarray]]
    channels: dict[str, ChannelKernels]
    omega_L: float
    dim: int
    k_rho_estimate: int

    @cached_property
    def support(self) -> int:
        """Largest |q| with a nonzero harmonic component."""
        return max((abs(q) for q in self.no_jump), default=0)

    def stacks(self, qs: Collection[int]) -> tuple[np.ndarray, np.ndarray]:
        """For each q in ``qs``, [A_q; G1_{1,q}; G1_{2,q}; ...] ((R+1) d x d)
        and [B_q, G2_{1,q}, G2_{2,q}, ...] (d x (R+1) d), the reservoirs in
        ``channels`` order, with a zero block where a part has no harmonic q."""
        d = self.dim
        width = (len(self.channels) + 1) * d
        left = np.zeros((len(qs), width, d), dtype=complex)
        right = np.zeros((len(qs), d, width), dtype=complex)
        for i, q in enumerate(qs):
            if q in self.no_jump:
                left[i, :d], right[i, :, :d] = self.no_jump[q]
            for j, ker in enumerate(self.channels.values(), 1):
                if q in ker.g1:
                    left[i, j * d : (j + 1) * d] = ker.g1[q]
                    right[i, :, j * d : (j + 1) * d] = ker.g2[q]
        return left, right

    def sandwich(self, lt: np.ndarray, rt: np.ndarray) -> np.ndarray:
        """L_q rho = A_q rho + rho B_q + sum_nu (G1_{nu,q} rho S_nu +
        S_nu rho G2_{nu,q}) from lt = left rho and rt = rho right, the
        products with the ``stacks`` of q; on one matrix or on stacks of
        them (shapes (..., (R+1) d, d) and (..., d, (R+1) d))."""
        d = self.dim
        out = lt[..., :d, :] + rt[..., :d]
        for i, ker in enumerate(self.channels.values(), 1):
            s = ker.coupling
            out += lt[..., i * d : (i + 1) * d, :] @ s + s @ rt[..., i * d : (i + 1) * d]
        return out

    def _superoperator(self, weights: dict[int, complex]) -> np.ndarray:
        """sum_q weights[q] L_q on column-stacked vectors, in Fortran order:
        kron(I, A) + kron(B^T, I) + sum_nu [kron(S^T, G1) + kron(G2^T, S)],
        every operator of ``stacks`` weighted over q alike.

        sum_r kron(X_r, Y_r) holds X_r[a, c] Y_r[b, e] at row a d + b and
        column c d + e, which in Fortran order is the C-ordered array
        [c, e, a, b]: one stacked product of the X_r^T and Y_r^T, written
        straight into the result."""
        d = self.dim
        eye = np.eye(d)
        w = list(weights.values())
        left, right = (np.tensordot(w, m, axes=1) for m in self.stacks(weights))
        # X_r^T and Y_r^T of the four kinds of term, the no-jump pair as S = I's
        xt, yt = [], []
        for i, s in enumerate([eye] + [ker.coupling for ker in self.channels.values()]):
            xt += [s, right[:, i * d : (i + 1) * d]]
            yt += [left[i * d : (i + 1) * d].T, s.T]
        out = np.empty((d * d, d * d), dtype=complex, order="F")
        np.matmul(
            np.stack(xt, axis=-1)[:, None], np.stack(yt, axis=1)[None],
            out=out.T.reshape(d, d, d, d),
        )
        return out

    def component(self, q: int) -> np.ndarray:
        """Superoperator matrix L_q on the vectorized density space, in
        Fortran order."""
        return self._superoperator({q: 1.0})

    def apply_component(self, q: int, rho: np.ndarray) -> np.ndarray:
        """L_q acting on a density matrix, or on each matrix of a stack
        (shape (..., d, d)), without building superoperators."""
        (left,), (right,) = self.stacks([q])
        return self.sandwich(left @ rho, rho @ right)

    def matrix_at_time(self, t: float) -> np.ndarray:
        """Dense superoperator L(t) = sum_q exp(i q w t) L_q, in Fortran
        order."""
        return self._superoperator(
            {q: np.exp(1j * q * self.omega_L * t) for q in self.no_jump}
        )


def build_liouvillian(
    h: PeriodicOperator,
    fs: FloquetSolution,
    channels: list[BathChannel],
    jumps: list[np.ndarray],
) -> CountingLiouvillian:
    """Assemble the harmonic generator components and their counting-field
    derivatives from each reservoir's jump amplitudes amp[n + 2 k_ext, r, r']
    (``decompose_operator``), and the steady state's k_rho estimate.

    Kernel harmonics below KERNEL_PRUNE of the largest one are dropped (the
    four kernels of a reservoir are pruned jointly, so they share their
    harmonics, which preserves exact trace annihilation of every retained
    harmonic).
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
    no_jump = {}
    for q in sorted(set(h.harmonics).union(*(ker.g1 for ker in kernels.values()))):
        hq = h.harmonics.get(q, np.zeros((h.dim, h.dim), dtype=complex))
        a, b = -1j * hq, 1j * hq
        for ker in kernels.values():
            if q in ker.g1:
                a -= ker.coupling @ ker.g1[q]
                b -= ker.g2[q] @ ker.coupling
        no_jump[q] = (a, b)
    return CountingLiouvillian(
        no_jump=no_jump,
        channels=kernels,
        omega_L=h.omega_L,
        dim=h.dim,
        k_rho_estimate=_k_rho_estimate(h, kernels),
    )


@dataclass(frozen=True)
class SteadyStateInfo:
    method: str
    k_rho: int
    size: int
    residual: float
    iterations: int  # GMRES iterations; 0 on lu
    trace_defect: float
    min_eigenvalue: float


def _trace_cols(d: int, k_rho: int) -> np.ndarray:
    """The trace border: positions of rho_0's diagonal among the stacked
    harmonics |n| <= k_rho.  The first is the bordered row, a redundant row
    (the trace on the n = 0 block is an exact left null vector)."""
    return k_rho * d * d + np.arange(d) * (d + 1)


# The real Hermitian basis.  A stacked vector is J-invariant, J: rho_n ->
# rho_{-n}^dag, exactly when it holds the harmonics of a Hermitian rho(t).
# Its real coordinates are rho_0 by its d^2 Hermitian coordinates (at vec
# position (i, j): Re rho_0[i, j] for i <= j, Im rho_0[i, j] for i > j),
# then Re rho_n and Im rho_n for n = 1..k_rho: (2 k_rho + 1) d^2 reals.
# The block system commutes with J, so on J-invariant vectors it is one real
# system, whose rows are the same coordinates of the harmonics n >= 0.


def _transpose_perm(d: int) -> tuple[np.ndarray, np.ndarray]:
    """vec(X) -> vec(X^T) as an index map, and the vec positions (i, j) with
    i > j, on column-stacked d x d matrices."""
    idx = np.arange(d * d)
    return idx.reshape(d, d).T.reshape(-1), idx % d > idx // d


def _hermitian_coords(x: np.ndarray, k_rho: int) -> np.ndarray:
    """Real coordinates of a J-invariant stacked vector."""
    nb = 2 * k_rho + 1
    blocks = x.reshape(nb, -1)
    _, lower = _transpose_perm(math.isqrt(blocks.shape[1]))
    out = np.empty((nb, blocks.shape[1]))
    out[0] = np.where(lower, blocks[k_rho].imag, blocks[k_rho].real)
    out[1::2] = blocks[k_rho + 1 :].real
    out[2::2] = blocks[k_rho + 1 :].imag
    return out.reshape(-1)


def _from_hermitian_coords(r: np.ndarray, k_rho: int) -> np.ndarray:
    """The J-invariant stacked vector with real coordinates ``r``."""
    nb = 2 * k_rho + 1
    coords = r.reshape(nb, -1)
    perm, lower = _transpose_perm(math.isqrt(coords.shape[1]))
    h = coords[0]
    h_lower = np.where(lower, h, 0.0)
    blocks = np.empty(coords.shape, dtype=complex)
    blocks[k_rho] = np.where(lower, h[perm], h) + 1j * (h_lower - h_lower[perm])
    blocks[k_rho + 1 :] = coords[1::2] + 1j * coords[2::2]
    blocks[:k_rho] = blocks[: k_rho : -1, perm].conj()
    return blocks.reshape(-1)


def _real_block_system(liouv: CountingLiouvillian, k_rho: int) -> np.ndarray:
    """The block system in the real Hermitian basis, built from each L_q
    once, in Fortran order, so LAPACK factors it in place.

    Block L_q maps input harmonic m to output harmonic n = m + q, and only
    n >= 0 is kept.  Row coordinate Re y or Im y takes Re(w L_q) with w = 1
    or -i, so (Re, Im)(w L_q) is (Re L_q, Im L_q) or (Im L_q, -Re L_q).
    Coordinate Re rho_m enters harmonic m with factor 1 and Im rho_m with i;
    harmonic -m holds rho_m^dag, so it reads the transpose (L_q with
    permuted columns, taken once per q) with factors 1 and -i.  Every part
    is added into the system in place, through views of Re and Im L_q."""
    d = liouv.dim
    d2 = d * d
    big = np.zeros(((2 * k_rho + 1) * d2,) * 2, order="F")
    perm, lower = _transpose_perm(d)
    diag = _trace_cols(d, 0)

    def add(rows: slice, where: bool | np.ndarray, minus_i: bool, m: int) -> None:
        # the rows ``where`` selects take Re(w L_q), w = -i if minus_i else 1,
        # on the real columns of harmonic m, from the loop's lq and lp
        def parts(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            # (Re(w mat), +-Im(w mat)), the sign - for w = -i
            return (mat.imag, mat.real) if minus_i else (mat.real, mat.imag)

        x, y = parts(lq if m >= 0 else lp)
        if m == 0:
            # coordinate (i, j) of rho_0 enters at (i, j) and (j, i): with
            # factors 1 and 1 above the diagonal, i and -i below it
            xp, yp = parts(lp)
            t = x + xp
            t[:, diag] = x[:, diag]
            np.subtract(*((y, yp) if minus_i else (yp, y)), out=t, where=lower)
            view = big[rows, :d2]
            np.add(view, t, out=view, where=where)
            return
        c = (2 * abs(m) - 1) * d2
        head, tail = big[rows, c : c + d2], big[rows, c + d2 : c + 2 * d2]
        np.add(head, x, out=head, where=where)
        # Im rho_m enters with i, so tail takes -Im(w L_q); Im rho_{-m} with -i
        (np.subtract if (m > 0) != minus_i else np.add)(tail, y, out=tail, where=where)

    for q in liouv.no_jump:
        rows = range(max(0, q - k_rho), min(k_rho, k_rho + q) + 1)
        if not rows:
            continue
        # in the same (Fortran) order as big, so each block adds in cache order
        lq = liouv.component(q)
        # input harmonics m = n - q <= 0 read the transpose
        lp = lq[:, perm] if rows[0] <= q else None
        for n in rows:
            if n == 0:
                # rho_0's Hermitian coordinates: Re above the diagonal, Im below
                add(slice(0, d2), ~lower[:, None], False, -q)
                add(slice(0, d2), lower[:, None], True, -q)
            else:
                r = (2 * n - 1) * d2
                add(slice(r, r + d2), True, False, n - q)
                add(slice(r + d2, r + 2 * d2), True, True, n - q)
    # -i n w rho_n: Re y_n gains n w Im rho_n, Im y_n loses n w Re rho_n
    for n in range(1, k_rho + 1):
        re = (2 * n - 1) * d2 + np.arange(d2)
        big[re, re + d2] += n * liouv.omega_L
        big[re + d2, re] -= n * liouv.omega_L
    return big


def _real_factor(liouv: CountingLiouvillian, k_rho: int) -> tuple[np.ndarray, np.ndarray]:
    """The LU of ``_real_block_system`` with the trace border in place of
    the real (0, 0) row: an exact solve of the bordered k_rho system in the
    real Hermitian basis."""
    from scipy.linalg import LinAlgWarning, lu_factor

    big = _real_block_system(liouv, k_rho)
    # rho_0's diagonal leads the real basis, so its trace border is k_rho = 0's
    diag = _trace_cols(liouv.dim, 0)
    big[diag[0], :] = 0.0
    big[diag[0], diag] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", LinAlgWarning)
        try:
            return lu_factor(big, overwrite_a=True, check_finite=False)
        except LinAlgWarning as exc:
            raise DegenerateSteadyStateError(
                f"bordered system is singular ({exc}): more than one steady state"
            ) from exc


def _block_action(liouv: CountingLiouvillian, k_rho: int) -> Callable[[np.ndarray], np.ndarray]:
    """Matrix-free action of the harmonic block system on stacked vectors of
    density-matrix harmonics |n| <= k_rho (column-stacked within each
    block), applied in time.

    The ``stacks`` of L_q for |q| <= Q = min(support, 2 k_rho) (no other
    L_q couples two kept harmonics) are sampled once, by two FFTs, at
    nt = 2 k_rho + Q + 1 points per period.  The product L(t) rho(t) then
    holds harmonics |n| <= k_rho + Q, so none aliases onto a kept one.
    Each action is an inverse FFT to rho(t_j), the ``sandwich`` of the
    stacked products, a forward FFT back to harmonics |n| <= k_rho, and
    the diagonal -i n w rho_n."""
    d = liouv.dim
    reach = min(liouv.support, 2 * k_rho)
    nt = 2 * k_rho + reach + 1

    def samples(stack: np.ndarray) -> np.ndarray:
        # M(t_j) = sum_q e^{2 pi i q j / nt} M_q; harmonic q sits at q mod nt
        padded = np.zeros((nt, *stack.shape[1:]), dtype=complex)
        padded[np.arange(-reach, reach + 1) % nt] = stack
        return np.fft.ifft(padded, axis=0, norm="forward")

    left_t, right_t = map(samples, liouv.stacks(range(-reach, reach + 1)))
    n = np.arange(-k_rho, k_rho + 1)
    slots = n % nt
    shift = (-1j * n * liouv.omega_L)[:, None, None]

    def act(x: np.ndarray) -> np.ndarray:
        rho_n = x.reshape(2 * k_rho + 1, d, d).transpose(0, 2, 1)
        padded = np.zeros((nt, d, d), dtype=complex)
        padded[slots] = rho_n
        rho = np.fft.ifft(padded, axis=0, norm="forward")
        y = liouv.sandwich(left_t @ rho, rho @ right_t)
        out = np.fft.fft(y, axis=0, norm="forward")[slots] + shift * rho_n
        return out.transpose(0, 2, 1).reshape(-1)

    return act


def _residual(
    act: Callable[[np.ndarray], np.ndarray], d: int, k_rho: int, vec: np.ndarray
) -> float:
    """Relative residual of the original (singular) block system rows, with
    ``act`` the system's action."""
    res = act(vec)
    res[_trace_cols(d, k_rho)[0]] = 0.0
    return float(np.linalg.norm(res) / np.linalg.norm(vec))


def _memory_guard(d: int, k_rho: int, k_in: int) -> None:
    """Refuse a route before anything is allocated, so oversized problems
    fail cleanly instead of thrashing.  It counts every factor the route
    holds: the real centre |n| <= k_in at 8 B per entry, and one complex
    d^2 x d^2 block per outer harmonic n = k_in + 1..k_rho at 16 B.  The
    limit is 2.5 GB when the centre is the whole system (``lu``) and
    ARRAY_BYTES_LIMIT, 1.5 GB, for the ``gmres`` preconditioner."""
    centre = max(0, 2 * k_in + 1) * d * d
    need = centre * centre * 8 + (k_rho - k_in) * d**4 * 16
    if k_in == k_rho:
        limit, what = 2_500_000_000, f"dense block system of size {centre}"
    else:
        limit, what = ARRAY_BYTES_LIMIT, "gmres preconditioner"
    if need > limit:
        raise SteadyStateError(
            f"{what} would need {need / 1e9:.1f} GB (n_fock too large); reduce the problem size"
        )


def _forward_sweep(
    liouv: CountingLiouvillian, k_rho: int, k_in: int
) -> Callable[[np.ndarray], np.ndarray]:
    """Block lower-triangular preconditioner of the bordered system in the
    real Hermitian basis: one forward Gauss-Seidel sweep over |n|.

    The centre goes first.  For k_in >= 0 the harmonics |n| <= k_in, a
    prefix of the coordinates, are solved by the LU of the bordered k_in
    system, which ``_real_factor`` builds here; for k_in = -1, rho_0 gets
    the complex LU of the bordered L_0, applied to the Hermitian rho_0.
    Each outer harmonic n = k_in + 1..k_rho then solves the complex LU of
    its diagonal block L_0 - i n w on Re + i Im of its two coordinate blocks
    minus sum_{|m| < n} L_{n-m} rho_m, from the harmonics already solved,
    with rho_{-m} = rho_m^dag.  Only L_q with q = 1..2 n - 1 enter.  Their
    ``stacks`` are taken once, before the factors, so each coupling is the
    ``sandwich`` of two stacked products summed over q.  The last block LU
    is taken in L_0's own buffer, so the centre and the k_rho - k_in block
    factors are all that is held."""
    from scipy.linalg import lu_factor, lu_solve

    d = liouv.dim
    d2 = d * d
    outer = range(k_in + 1, k_rho + 1)

    # stacks over q = reach..1, descending, so row n meets its rho_m, m
    # ascending, in one slice: the last min(reach, 2 n - 1); empty when
    # nothing oscillates (reach 0), where no row has a coupling
    reach = max(0, min(liouv.support, 2 * k_rho - 1))
    left, right = liouv.stacks(range(reach, 0, -1))

    def coupling(rho: np.ndarray, n: int) -> np.ndarray:
        # sum_{|m| < n} L_{n-m} rho_m, with rho[m + k_rho] = rho_m, one
        # product per q: each stays below OpenBLAS's threading size, while
        # one product over all q would wake numpy's thread pool against scipy's
        width = min(reach, 2 * n - 1)
        solved = rho[k_rho + n - width : k_rho + n]
        return liouv.sandwich(
            (left[reach - width :] @ solved).sum(axis=0),
            (solved @ right[reach - width :]).sum(axis=0),
        )

    central = _real_factor(liouv, k_in) if k_in >= 0 else None
    factors = {}
    if outer:
        l0 = liouv.component(0)
        tr0 = _trace_cols(d, 0)
        for n in outer:
            # the last one is factored in L_0's own buffer
            block = l0 if n == outer[-1] else l0.copy(order="F")
            block.flat[:: d2 + 1] -= 1j * n * liouv.omega_L
            if n == 0:
                block[tr0[0], :] = 0.0
                block[tr0[0], tr0] = 1.0
            factors[n] = lu_factor(block, overwrite_a=True, check_finite=False)

    def precond(r: np.ndarray) -> np.ndarray:
        out = np.empty_like(r)
        blocks, out_blocks = r.reshape(-1, d2), out.reshape(-1, d2)
        # rho[m + k_rho] = rho_m as a matrix, filled as the sweep goes
        rho = np.empty((2 * k_rho + 1, d, d), dtype=complex)
        if central is not None:
            c = (2 * k_in + 1) * d2
            out[:c] = lu_solve(central, r[:c], check_finite=False)
            centre = _from_hermitian_coords(out[:c], k_in).reshape(-1, d, d)
            rho[k_rho - k_in : k_rho + k_in + 1] = centre.transpose(0, 2, 1)
        for n, factor in factors.items():
            if n == 0:
                rho0 = lu_solve(factor, _from_hermitian_coords(blocks[0], 0), check_finite=False)
                out_blocks[0] = _hermitian_coords(rho0, 0)
                rho[k_rho] = _from_hermitian_coords(out_blocks[0], 0).reshape(d, d).T
                continue
            rhs = blocks[2 * n - 1] + 1j * blocks[2 * n]
            if reach:
                # column-stacked: vec index j d + i holds element (i, j)
                rhs -= coupling(rho, n).T.reshape(-1)
            rho_n = lu_solve(factor, rhs, check_finite=False)
            out_blocks[2 * n - 1], out_blocks[2 * n] = rho_n.real, rho_n.imag
            rho[k_rho + n] = rho_n.reshape(d, d).T
            rho[k_rho - n] = rho_n.reshape(d, d).conj()
        return out

    return precond


def _solve_bordered(
    liouv: CountingLiouvillian, k_rho: int, k_in: int
) -> tuple[np.ndarray, float, int]:
    """The bordered block system in the real Hermitian basis, solved under
    the forward-sweep preconditioner (``_forward_sweep``).

    The unknowns are the real coordinates of the harmonics n >= 0
    (``_hermitian_coords``), with the trace border on coordinate 0.  k_in
    names the exact centre |n| <= k_in: k_rho on the ``lu`` route, 1 on
    ``gmres`` for a single reservoir, -1 (none) for two; the positivity
    probe passes its base route's k_in.  ``_memory_guard`` runs first,
    before anything is allocated.  With k_in = k_rho the preconditioned
    right-hand side is the solution.
    Otherwise one full-memory GMRES cycle runs on the matrix-free system
    action (``_block_action``, sampled in time before the block factors are
    taken), from the preconditioned right-hand side: the sweep leaves out
    only the couplings from harmonics |m| >= n into harmonic n, which are
    weak.  A single-reservoir generator needs the centre |n| <= 1: its
    undamped mode is cooled only by drive sidebands, which couple rho_0
    through rho_{+-1} alone, so with rho_0 alone exact GMRES stalls near
    residual 3e-3 (or the centre is singular), and with |n| <= 1 it
    converges in a few iterations.
    Returns (real coordinates, relative residual of the original system,
    GMRES iterations).
    """
    from scipy.sparse.linalg import LinearOperator, gmres

    d = liouv.dim
    d2 = d * d
    size = (2 * k_rho + 1) * d2

    _memory_guard(d, k_rho, k_in)
    # the small time samples and couplings go before the large factors: made
    # after them, they raised the peak RSS by heap placement
    act = _block_action(liouv, k_rho)
    precond = _forward_sweep(liouv, k_rho, k_in)

    rhs = np.zeros(size)
    rhs[0] = 1.0
    x0 = precond(rhs)
    if k_in == k_rho:
        return x0, _residual(act, d, k_rho, _from_hermitian_coords(x0, k_rho)), 0

    tr0 = _trace_cols(d, 0)

    def matvec(x: np.ndarray) -> np.ndarray:
        out = _hermitian_coords(act(_from_hermitian_coords(x, k_rho)), k_rho)
        out[0] = x[tr0].sum()
        return out

    iterations = 0

    def count(_: float) -> None:
        nonlocal iterations
        iterations += 1

    op = LinearOperator((size, size), matvec=matvec, dtype=float)
    pre = LinearOperator((size, size), matvec=precond, dtype=float)
    # one full-memory cycle; restarting loses superlinear convergence here
    vec, code = gmres(
        op, rhs, x0=x0, M=pre, rtol=1e-13, atol=0.0, maxiter=1, restart=min(180, size),
        callback=count, callback_type="pr_norm",
    )
    residual = _residual(act, d, k_rho, _from_hermitian_coords(vec, k_rho))
    if not residual <= 1e-10:
        # generators with very slow modes (e.g. an undamped mode cooled only
        # through drive sidebands) defeat the sweep unless the harmonics that
        # couple them are exact; a non-finite residual fails here too
        raise SteadyStateError(
            f"preconditioned GMRES stalled (code {code}, residual {residual:.2e}); "
            "solver.method=lu is the direct route"
        )
    return vec, residual, iterations


def _periodic_state(
    coords: np.ndarray, k_rho: int, d: int, omega_L: float
) -> tuple[PeriodicOperator, float]:
    """Trace-normalized harmonics from the real coordinates of a solution,
    with the off-harmonic trace defect."""
    coords = coords / coords[_trace_cols(d, 0)].sum()
    blocks = _from_hermitian_coords(coords, k_rho).reshape(2 * k_rho + 1, d, d)
    # column-stacking: vec index j*d + i holds element (i, j)
    rho = {n - k_rho: m.T.copy() for n, m in enumerate(blocks)}
    trace_defect = max((float(abs(np.trace(rho[n]))) for n in range(1, k_rho + 1)), default=0.0)
    pruned = {n: m for n, m in rho.items() if n == 0 or np.max(np.abs(m)) > 1e-16}
    return PeriodicOperator(harmonics=pruned, omega_L=omega_L), trace_defect


def _min_eigenvalue(rho: PeriodicOperator) -> float:
    """Smallest eigenvalue of rho(t) over six times in the period."""
    period = 2.0 * math.pi / rho.omega_L
    return min(
        float(np.linalg.eigvalsh(rho.at_time(f * period)).min())
        for f in (0.0, 1.0 / 6.0, 1.0 / 3.0, 0.5, 2.0 / 3.0, 5.0 / 6.0)
    )


def _positivity_message(
    liouv: CountingLiouvillian, k_rho: int, k_in: int, min_eig: float
) -> str:
    """Name the cause of a positivity violation with one refinement probe.

    The state is re-solved with k_rho + 2 around the base route's exact
    centre |n| <= k_in, which the probe factors again.  Only when that
    moves the minimum eigenvalue is the violation blamed on truncation;
    otherwise it belongs to the non-secular (Redfield-type) generator
    itself, which does not guarantee a positive state.
    """
    head = f"reconstructed rho(t) has negative eigenvalue {min_eig:.3e}"
    try:
        coords, _, _ = _solve_bordered(liouv, k_rho + 2, k_in)
        rho, _ = _periodic_state(coords, k_rho + 2, liouv.dim, liouv.omega_L)
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


def _nonfinite_parts(liouv: CountingLiouvillian) -> list[str]:
    """The generator parts that hold nan or inf: no-jump pairs (A_q, B_q)
    and reservoir kernels (G1_q, G2_q), by harmonic q."""

    def finite(*mats: np.ndarray) -> bool:
        return all(np.isfinite(m).all() for m in mats)

    bad = [f"no-jump L_{q}" for q, pair in liouv.no_jump.items() if not finite(*pair)]
    for name, ker in liouv.channels.items():
        bad += [f"{name} kernel q={q}" for q in ker.g1 if not finite(ker.g1[q], ker.g2[q])]
    return bad


DENSE_SIZE_LIMIT = 1200
# largest off-harmonic trace |Tr rho_n|, n >= 1, of an accepted state
TRACE_TOL = 1e-10
# bound on -min eig rho(t) of an accepted state
POSITIVITY_TOL = 1e-8


def steady_state(
    liouv: CountingLiouvillian, k_rho: int | None = None, method: str = "auto"
) -> tuple[PeriodicOperator, SteadyStateInfo]:
    """Solve the harmonic steady-state block system.

    Every route is one ``_solve_bordered(liouv, k_rho, k_in)``, and the
    routes differ only in k_in, the exact centre |n| <= k_in, decided here
    once.  ``method`` is "lu" (k_in = k_rho: the real LU of the whole
    bordered system is the preconditioner, exact, so no iteration),
    "gmres" (the same solve under a forward sweep over |n| with one block
    factor per outer harmonic, ``_forward_sweep``, iterated on the system's
    action in time, the count in ``SteadyStateInfo.iterations``), or "auto"
    (lu up to DENSE_SIZE_LIMIT unknowns, gmres above).  On a
    single-reservoir generator gmres takes k_in = 1: the harmonics
    |n| <= 1 by the real LU lu would take at k_rho = 1, block factors for
    n >= 2 only; on two reservoirs k_in = -1, no centre.  One memory guard
    (``_memory_guard``) counts the route's factors before anything is
    allocated: 2.5 GB on lu, 1.5 GB on gmres.  Each call runs only the
    route picked: a gmres solve that stalls or meets its memory guard fails
    with that one cause; any other ``method`` is a ValueError.  An exactly
    singular bordered system means more than one steady state.  Every route
    yields the real Hermitian coordinates of the state, so
    rho_{-n} = rho_n^dag holds exactly; the returned harmonics are
    trace-normalized, and the off-harmonic trace (at most TRACE_TOL),
    positivity of rho(t) and the residual of the block equation (at most
    1e-8) are checked, a nan failing each.  A generator with nan or inf
    entries fails before any route runs, with the parts that hold them
    named; that one check is why the LUs of ``_real_factor`` and
    ``_forward_sweep`` skip scipy's finiteness scan of their inputs.
    """
    bad = _nonfinite_parts(liouv)
    if bad:
        raise SteadyStateError(f"non-finite generator: nan or inf in {', '.join(bad)}")
    if k_rho is None:
        k_rho = liouv.k_rho_estimate
    d = liouv.dim
    size = (2 * k_rho + 1) * d * d
    if method == "auto":
        method = "lu" if size <= DENSE_SIZE_LIMIT else "gmres"
    elif method not in ("lu", "gmres"):
        raise ValueError(f"unknown steady-state method {method!r}")

    # one reservoir: its slow modes couple rho_0 only through rho_{+-1}, so
    # gmres takes the harmonics |n| <= 1 as an exact centre
    k_in = k_rho if method == "lu" else min(1, k_rho) if len(liouv.channels) == 1 else -1
    coords, residual, iterations = _solve_bordered(liouv, k_rho, k_in)

    result, trace_defect = _periodic_state(coords, k_rho, d, liouv.omega_L)
    min_eig = _min_eigenvalue(result)

    info = SteadyStateInfo(
        method=method,
        k_rho=k_rho,
        size=size,
        residual=residual,
        iterations=iterations,
        trace_defect=trace_defect,
        min_eigenvalue=min_eig,
    )
    # written so that nan fails each test
    if not trace_defect <= TRACE_TOL:
        raise SteadyStateError(
            f"off-harmonic trace {trace_defect:.3e} above {TRACE_TOL:.1e}; "
            "raise k_rho / k_ext / n_fock"
        ) from None
    if not min_eig >= -POSITIVITY_TOL:
        raise SteadyStateError(_positivity_message(liouv, k_rho, k_in, min_eig))
    if not residual <= 1e-8:
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
    jumps: list[np.ndarray],
) -> tuple[np.ndarray, dict[str, float]]:
    """Secular (rate-equation) steady state in the Floquet basis.

    Keeps only population dynamics: transition rates
    W_nu[r' -> r] = sum_n 2 J_nu(D) N_nu(D) |amp[n, r, r']|^2 with
    D = eps_r - eps_r' + n w, from each reservoir's jump amplitudes
    (``decompose_operator``).  Returns steady populations and the
    period-averaged heat currents Q_nu = sum_{n, r, r'} D * rate * p_{r'}
    (diagonal terms with n != 0 are photon-assisted processes and do
    contribute).  This is the standard Born-Markov-secular treatment, kept
    for benchmarking; it is unreliable whenever quasienergy differences are
    comparable to the rates.
    """
    delta = fs.transition_frequencies(np.arange(-2 * fs.k_ext, 2 * fs.k_ext + 1))
    gammas = [
        2.0 * thermal_rates(ch.density, ch.beta, delta)[0] * np.abs(amp) ** 2
        for ch, amp in zip(channels, jumps)
    ]
    # [r, r'] = W[r' -> r], one running sum over every reservoir's harmonics
    rates = np.concatenate(gammas).sum(axis=0)
    np.fill_diagonal(rates, 0.0)
    gen = rates - np.diag(rates.sum(axis=0))
    _, s, vh = np.linalg.svd(gen)
    if s[-2] < s[0] * 1e-10:
        raise DegenerateSteadyStateError("secular rate matrix has degenerate kernel")
    p = vh[-1].real
    p = p / p.sum()
    if p.min() < -1e-9:
        raise SteadyStateError(f"secular populations not positive: min {p.min():.3e}")
    p = np.clip(p, 0.0, None)
    p = p / p.sum()

    # summed over the nonzero amplitudes alone, so the zeros do not regroup
    # numpy's pairwise summation
    currents = {}
    for ch, amp, gam in zip(channels, jumps, gammas):
        currents[ch.name] = float(np.sum((delta * gam * p)[amp != 0]))
    return p, currents
