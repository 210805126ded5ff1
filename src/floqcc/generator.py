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

Each L_q is its no-jump pair plus the reservoir sandwiches,

    L_q rho = A_q rho + rho B_q + sum_nu (G1_{nu,q} rho S_nu + S_nu rho G2_{nu,q}),
    A_q = -i H_q - sum_nu S_nu G1_{nu,q},   B_q = i H_q - sum_nu G2_{nu,q} S_nu ,

stored as the two stacks every evaluator reads, ``CountingLiouvillian.left``
([A_q; G1_{nu,q}...] per q) and ``right`` ([B_q, G2_{nu,q}...]), on the
grid q = -support..support, and applied by one formula,
``CountingLiouvillian.sandwich``; the parity and finiteness checks read
them as one array of parts.  No superoperator matrix is kept; dense ones
act on vec(X) = X.reshape(-1), so vec(A X B) = (A kron B^T) vec(X), and
each is built as one stacked matrix product, in Fortran order.

The counting-field derivative keeps only the two sandwich terms with weights
-D on the emission sandwich (S rho G2) and +D on the absorption sandwich
(G1 rho S), so the heat current into the supersystem from reservoir nu is
Q_nu(t) = Tr{S rho(t) G2'(t)} + Tr{G1'(t) rho(t) S} = Tr{rho(t) J(t)}, with
the current operator J = G2' S + S G1' (the derivative in the Heisenberg
picture) stored by harmonic beside the stacks; ``heat_current`` returns its
period average, the contraction sum_q Tr{rho_{-q} J_q}.  The principal-value
(Lamb-shift) contribution is omitted.

The periodic steady state, a ``PeriodicOperator`` of harmonics rho_n,
solves the block system i n w rho_n = sum_k L_k rho_{n-k} by one bordered
solve (the trace condition in place of a redundant row) under a block
lower-triangular preconditioner, one forward sweep over |n|.  Every route
is one call ``_solve_bordered(liouv, k_rho, k_in)``, differing only in
k_in: the sweep solves the exact centre |n| <= k_in first (the bordered
rho_0 alone when k_in = -1), then each outer harmonic n by the LU of
L_0 - i n w, after subtracting the couplings L_{n-m} rho_m from the
harmonics |m| < n already solved.  ``steady_state`` picks k_in, by the one
rule its docstring states, and every route runs GMRES under the sweep:
at k_in = k_rho the sweep is the exact LU, so the one step it takes is an
iterative-refinement step by that factor.  The positivity probe solves
k_rho + 2 around its base route's k_in.  Each ``steady_state`` call runs
one route, and a route that fails fails the call.  GMRES applies the block
system matrix-free and in time: the stacks of L are sampled once per
solve, and each action is an FFT pair around their sandwich.  The cycle is
the module's own (``_gmres``, scipy's arithmetic without ``scipy.sparse``):
left-preconditioned by the sweep M, one full-memory cycle of at most 180
steps started from M b, stopping at a preconditioned residual of
1e-13 |M b|.

The generator keeps rho Hermitian, rho_{-n} = rho_n^dag, and the model's
half-period parity, Q L_q(Q X Q) Q = (-1)^q L_q(X) for the +-1 diagonal Q
of ``model.parity`` (checked once, in ``build_liouvillian``), so
rho(t + T/2) = Q rho(t) Q and rho_n lies in the sector q_i q_j = (-1)^n,
d^2 / 2 of its d^2 entries.  Every route therefore solves for one set of
real coordinates, the map ``Coordinates``: rho_0 by its Hermitian
coordinates and Re and Im of rho_n for n >= 1, each on its sector,
(2 k_rho + 1) d^2 / 2 unknowns.  The exact centre is one real LU of the
system on those coordinates; the block LUs are complex and d^2 x d^2, one
per harmonic n >= 0 outside it, the last one in L_0's own buffer, each
taking and returning sector vectors through the map.  One guard, before
anything is allocated, counts what a route holds, the centre at 8 B per
entry and the block LUs at 16 B, and refuses it above 2.5 GB on ``lu``
and 1.5 GB on ``gmres``.
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
from .floquet import ARRAY_BYTES_LIMIT, FloquetSolution, fast_length, time_samples
from .model import PARITY_TOL, PeriodicOperator

# parts (I, J) of the vec positions i d + j, i in I and j in J, in turn
Parts = list[tuple[np.ndarray, np.ndarray]]


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
    ``delta``, using the odd-extended spectral density: arrays of its shape,
    0-d for a scalar.

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
    return absorption, emission


@dataclass(frozen=True)
class BathChannel:
    """One reservoir: its label, static coupling operator, spectral density
    and inverse temperature."""

    name: str
    coupling: np.ndarray
    density: SpectralDensity
    beta: float


def _channel_kernels(
    channel: BathChannel, amp: np.ndarray, fs: FloquetSolution
) -> tuple[int, np.ndarray]:
    """Harmonics q = q_lo, q_lo + 1, ... of a reservoir's four rate-filtered
    kernels, as (q_lo, g[q - q_lo, kind, d, d]) with kinds G1, G2, G1', G2',
    over the range of the harmonics kept; empty when none is."""
    k = fs.k_ext
    # n_min..n_max: the lowest and highest harmonic holding a nonzero amplitude
    # (0..0 when none does: the kernels are then zero, and none is kept)
    held = np.flatnonzero(np.any(amp != 0, axis=(1, 2))) - 2 * k
    n_min, n_max = (int(held[0]), int(held[-1])) if held.size else (0, 0)
    amp = amp[n_min + 2 * k : n_max + 2 * k + 1]

    # per-harmonic weight matrices W_n[kind, r, r'] of the four kernels; rates
    # are finite at every delta, so zero amplitudes weigh exactly 0
    delta = fs.transition_frequencies(np.arange(n_min, n_max + 1))
    gn, ge = thermal_rates(channel.density, channel.beta, delta)
    w = np.stack([gn * amp, ge * amp, delta * gn * amp, -delta * ge * amp], axis=1)

    # kernel G(t) = V(t) W(t) V(t)^dag with V(t) = sum_m e^{i m w t} V_m the
    # mode matrix; its harmonics q = n + m' - m span n_max - n_min + 4 k + 1
    # values, so as many samples per period, or more, and one FFT give them
    # without aliasing
    nt = fast_length(n_max - n_min + 4 * k + 1)
    v = time_samples(fs.modes, -k, nt)[:, None]
    g = time_samples(w, n_min, nt)  # W(t_j)[kind], then G
    np.matmul(v @ g, v.conj().transpose(0, 1, 3, 2), out=g)
    g = np.fft.fft(g, axis=0, norm="forward")

    # prune the four kernels jointly, harmonic q at index q mod nt: those
    # below KERNEL_PRUNE of the largest are cut from the ends and zeroed
    # inside; a nan or inf one, or a nan floor, keeps them for the check
    block_max = np.abs(g).max(axis=(1, 2, 3))
    qs = np.arange(n_min - 2 * k, n_max + 2 * k + 1)
    kept = ~(block_max[qs % nt] <= KERNEL_PRUNE * block_max.max())
    if not kept.any():
        return 0, np.zeros((0, 4, fs.dim, fs.dim), dtype=complex)
    first, last = np.flatnonzero(kept)[[0, -1]]
    out = g[qs[first : last + 1] % nt]
    out[~kept[first : last + 1]] = 0.0
    return int(qs[first]), out


def _parts(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The stacks of a generator (``CountingLiouvillian``) as one array
    [side, q + support, part, i, j]: side 0 holds A_q, G1_{1,q}, ..., side 1
    B_q, G2_{1,q}, ...; part 0 is the no-jump pair, part nu reservoir nu."""
    nq, _, d = left.shape
    return np.stack([left.reshape(nq, -1, d, d), right.reshape(nq, d, -1, d).transpose(0, 2, 1, 3)])


def _k_rho_estimate(h: PeriodicOperator, parts: np.ndarray, couplings: list[np.ndarray]) -> int:
    """Harmonic count for the steady state: rho_n falls off roughly like
    (c / omega_L)^n with c the strength of the generator's oscillating
    part, so pick the smallest n with that estimate below 1e-8, between
    2 and 12; 1 when the generator has no oscillating part."""
    c = float(np.abs(np.delete(h.harmonics, h.max_harmonic, axis=0)).max(initial=0.0))
    # each reservoir's kernels G1_q and G2_q, q != 0, weighed by max|S_nu|
    osc = np.delete(np.abs(parts[:, :, 1:]), parts.shape[1] // 2, axis=1)
    for s, g in zip(couplings, osc.max(axis=(0, 1, 3, 4), initial=0.0)):
        c = max(c, float(np.max(np.abs(s))) * float(g))
    if c == 0.0:
        return 1
    ratio = min(c / h.omega_L, 0.5)
    k = math.ceil(math.log(1e-8) / math.log(ratio))
    return int(np.clip(k, 2, 12))


@dataclass(frozen=True)
class CountingLiouvillian:
    """Harmonic components L_q of the generator, q = -support..support, as
    the stacks every evaluator reads and ``sandwich`` applies:
    ``left[q + support]`` = [A_q; G1_{1,q}; ...] ((R+1) d x d) and
    ``right[q + support]`` = [B_q, G2_{1,q}, ...] (d x (R+1) d), reservoirs
    in ``couplings`` order (S_nu by name), zero where a part lacks q.
    ``currents[name][q + support]`` holds reservoir name's current operator
    J_q = G2'_q S + S G1'_q on the same grid, ``k_rho_estimate`` the steady
    state's default harmonic count, and ``parity`` the +-1 diagonal of the
    half-period parity Q it keeps."""

    left: np.ndarray
    right: np.ndarray
    couplings: dict[str, np.ndarray]
    currents: dict[str, np.ndarray]
    omega_L: float
    k_rho_estimate: int
    parity: np.ndarray

    @property
    def dim(self) -> int:
        return self.left.shape[2]

    @property
    def support(self) -> int:
        """Largest |q| with a stored harmonic component."""
        return len(self.left) // 2

    @cached_property
    def coords(self) -> Coordinates:
        """The real coordinates every steady-state route solves for."""
        return Coordinates.of(self.parity)

    def stacks(self, qs: Collection[int]) -> tuple[np.ndarray, np.ndarray]:
        """``left`` and ``right`` at each q in ``qs``, with zero blocks where
        |q| > support (L_q = 0 there)."""
        i = np.fromiter(qs, dtype=int) + self.support
        outside = (i < 0) | (i >= len(self.left))
        left, right = (np.take(m, i, axis=0, mode="clip") for m in (self.left, self.right))
        left[outside] = right[outside] = 0.0
        return left, right

    def part_names(self, mask: np.ndarray) -> list[str]:
        """The names of the parts [q + support, part] (``_parts``) where
        ``mask`` holds, by q, then by part."""
        names = ["no-jump L_{q}"] + [f"{name} kernel q={{q}}" for name in self.couplings]
        return [names[j].format(q=i - self.support) for i, j in np.argwhere(mask)]

    def sandwich(self, lt: np.ndarray, rt: np.ndarray) -> np.ndarray:
        """L_q rho = A_q rho + rho B_q + sum_nu (G1_{nu,q} rho S_nu +
        S_nu rho G2_{nu,q}) from lt = left rho and rt = rho right, the
        products with the ``stacks`` of q; on one matrix or on stacks of
        them (shapes (..., (R+1) d, d) and (..., d, (R+1) d))."""
        d = self.dim
        out = lt[..., :d, :] + rt[..., :d]
        for i, s in enumerate(self.couplings.values(), 1):
            out += lt[..., i * d : (i + 1) * d, :] @ s + s @ rt[..., i * d : (i + 1) * d]
        return out

    def component(
        self, q: int, rows: Parts | None = None, cols: Parts | None = None
    ) -> np.ndarray:
        """Superoperator matrix L_q on vec(X) = X.reshape(-1), in Fortran
        order: kron(A, I) + kron(I, B^T) + sum_nu [kron(G1, S^T) +
        kron(S, G2^T)], the operators of ``stacks`` at q.  ``rows`` and
        ``cols`` restrict it to the vec positions i d + j of their parts
        (I, J), i in I and j in J, ordered part by part, then by i, then by
        j; by default the whole space, one part.

        sum_r kron(X_r, Y_r) holds X_r[a, c] Y_r[b, e] at row a d + b and
        column c d + e, which in Fortran order is the C-ordered array
        [c, e, a, b]: one stacked product of the X_r^T and Y_r^T per pair of
        parts, written straight into the result."""
        d = self.dim
        eye = np.eye(d)
        whole = [(np.arange(d), np.arange(d))]
        rows, cols = rows or whole, cols or whole
        (left,), (right,) = self.stacks([q])
        # X_r^T and Y_r^T of the four kinds of term, the no-jump pair as S = I's
        xt, yt = [], []
        for i, s in enumerate([eye, *self.couplings.values()]):
            xt += [left[i * d : (i + 1) * d].T, s.T]
            yt += [s, right[:, i * d : (i + 1) * d]]
        xt, yt = np.stack(xt, axis=-1), np.stack(yt, axis=1)
        out = np.empty(
            (sum(len(i) * len(j) for i, j in rows), sum(len(i) * len(j) for i, j in cols)),
            dtype=complex, order="F",
        )
        c0 = 0
        for ic, jc in cols:
            r0 = 0
            for ia, ja in rows:
                block = out.T[c0 : c0 + len(ic) * len(jc), r0 : r0 + len(ia) * len(ja)]
                np.matmul(
                    xt[np.ix_(ic, ia)][:, None], yt[jc][:, :, ja][None],
                    out=block.reshape(len(ic), len(jc), len(ia), len(ja)),
                )
                r0 += len(ia) * len(ja)
            c0 += len(ic) * len(jc)
        return out

    def apply_component(self, q: int, rho: np.ndarray) -> np.ndarray:
        """L_q acting on a density matrix, or on each matrix of a stack
        (shape (..., d, d)), without building superoperators."""
        (left,), (right,) = self.stacks([q])
        return self.sandwich(left @ rho, rho @ right)


def build_liouvillian(
    h: PeriodicOperator,
    fs: FloquetSolution,
    channels: list[BathChannel],
    jumps: list[np.ndarray],
    parity: np.ndarray,
) -> CountingLiouvillian:
    """Assemble the harmonic generator components and each reservoir's
    current operators from its jump amplitudes amp[n + 2 k_ext, r, r']
    (``decompose_operator``), and the steady state's k_rho estimate.

    Kernel harmonics below KERNEL_PRUNE of the largest one are dropped (the
    four kernels of a reservoir are pruned jointly, so they share their
    harmonics, which preserves exact trace annihilation of every retained
    harmonic); a nan or inf one is kept, for ``steady_state`` to name.
    ``parity`` is the +-1 diagonal of the model's half-period parity Q
    (``model.parity``); a generator that breaks it is a ValueError naming
    the parts that do (``_parity_breaches``).
    """
    if len(channels) != len(jumps):
        raise ValueError("need one jump decomposition per channel")
    if not channels:
        raise ValueError("at least one reservoir is required")
    couplings = {ch.name: ch.coupling for ch in channels}
    if len(couplings) < len(channels):
        raise ValueError(f"duplicate channel name in {[ch.name for ch in channels]}")
    kernels = [_channel_kernels(ch, jd, fs) for ch, jd in zip(channels, jumps)]
    d, k = h.dim, h.max_harmonic
    support = max(k, *(max(-lo, lo + len(g) - 1) for lo, g in kernels))
    left = np.zeros((2 * support + 1, (len(channels) + 1) * d, d), dtype=complex)
    right = np.zeros((len(left), d, left.shape[1]), dtype=complex)
    # the stacks by slices: H first, then the reservoirs in order, each on
    # its kept range of q
    left[support - k : support + k + 1, :d] = -1j * h.harmonics
    right[support - k : support + k + 1, :, :d] = 1j * h.harmonics
    currents = {name: np.zeros((len(left), d, d), dtype=complex) for name in couplings}
    for j, ((name, s), (lo, g)) in enumerate(zip(couplings.items(), kernels), 1):
        at = slice(lo + support, lo + support + len(g))
        left[at, j * d : (j + 1) * d] = g[:, 0]
        right[at, :, j * d : (j + 1) * d] = g[:, 1]
        left[at, :d] -= s @ g[:, 0]
        right[at, :, :d] -= g[:, 1] @ s
        currents[name][at] = g[:, 3] @ s + s @ g[:, 2]
    k_rho = _k_rho_estimate(h, _parts(left, right), list(couplings.values()))
    liouv = CountingLiouvillian(
        left, right, couplings, currents, h.omega_L, k_rho, np.asarray(parity, dtype=float)
    )
    bad = _parity_breaches(liouv)
    if bad:
        raise ValueError(
            f"generator breaks the half-period parity Q in {', '.join(bad)}: entries off "
            f"their sector above {PARITY_TOL:.0e} of the largest part"
        )
    return liouv


def _parity_breaches(liouv: CountingLiouvillian) -> list[str]:
    """The parts of the generator that break Q L_q(Q X Q) Q = (-1)^q L_q(X).

    Q X Q weighs entry (i, j) by q_i q_j, so Q L_q(Q X Q) Q is the
    ``sandwich`` of the ``stacks`` of q with every part conjugated by Q.
    The covariance therefore holds when each part lies in its sector: A_q
    and B_q where q_i q_j = (-1)^q, G1_{nu,q} and G2_{nu,q} where
    q_i q_j = (-1)^q sigma_nu, with Q S_nu Q = sigma_nu S_nu.  A part's
    entries off its sector are weighed like its term, G1 and G2 by
    max|S_nu|, against the largest part; a coupling S_nu of no definite
    parity is a breach of its own."""
    signs = np.outer(liouv.parity, liouv.parity)
    bad, sigmas, weights = [], [1.0], [1.0]
    for name, s in liouv.couplings.items():
        even, odd = (np.abs(s[signs == p]).max(initial=0.0) for p in (1.0, -1.0))
        sigmas.append(1.0 if even >= odd else -1.0)
        weights.append(max(even, odd))
        if min(even, odd) > PARITY_TOL * max(even, odd):
            bad.append(f"{name} coupling")
    # |part| [side, q, part, i, j], each weighed like its term
    parts = np.abs(_parts(liouv.left, liouv.right)) * np.reshape(weights, (-1, 1, 1))
    sign = np.outer((-1.0) ** np.arange(-liouv.support, liouv.support + 1), sigmas)[..., None, None]
    off = np.where(signs != sign, parts, 0.0).max(axis=(0, 3, 4))
    return bad + liouv.part_names(off > PARITY_TOL * parts.max())


@dataclass(frozen=True)
class SteadyStateInfo:
    method: str
    k_rho: int
    size: int  # complex unknowns of the block system, (2 k_rho + 1) d^2
    unknowns: int  # real unknowns of the solve, on the parity sectors
    residual: float
    iterations: int  # GMRES iterations, at least 1; 1 on lu
    trace_defect: float
    min_eigenvalue: float


@dataclass(frozen=True)
class Coordinates:
    """The coordinate map: the real unknowns of every steady-state route.

    A stack holds the harmonics rho_n, |n| <= k, shape (2 k + 1, d, d), as
    ``PeriodicOperator`` does.  It holds a Hermitian rho(t)
    exactly when it is J-invariant, J: rho_n -> rho_{-n}^dag, and a rho(t)
    with the half-period parity rho(t + T/2) = Q rho(t) Q exactly when each
    rho_n lies in its sector, the positions with q_i q_j = (-1)^n, q the
    +-1 diagonal of Q.  Its real coordinates are those of the harmonics
    n >= 0 on their sectors: rho_0 by its Hermitian coordinates (at position
    (i, j): Re rho_0[i, j] for i <= j, Im rho_0[i, j] for i > j), then
    Re rho_n and Im rho_n for n = 1..k, harmonic n at ``span(n)``.  The
    block system commutes with J and keeps the sectors (``build_liouvillian``
    checks it), so on these vectors it is one real system, whose rows are
    the same coordinates of its output; the steady state is one of them."""

    dim: int
    # the indices with q_i = q_0 and with q_i = -q_0
    classes: tuple[np.ndarray, np.ndarray]
    # vec positions i d + j of the sectors q_i q_j = +1 and -1, in the
    # order of their ``parts``
    positions: tuple[np.ndarray, np.ndarray]
    # index within its sector of each position's transpose (j, i)
    transposes: tuple[np.ndarray, np.ndarray]
    # over the +1 sector: i > j, where rho_0's coordinate is Im
    lower: np.ndarray
    # the trace border: rho_0's diagonal among the coordinates; the first,
    # coordinate 0 at position (0, 0), is the bordered row
    trace: np.ndarray

    @classmethod
    def of(cls, parity: np.ndarray) -> Coordinates:
        d = len(parity)
        classes = (np.flatnonzero(parity == parity[0]), np.flatnonzero(parity != parity[0]))
        positions = tuple(
            np.concatenate([(classes[c][:, None] * d + classes[c ^ s]).ravel() for c in (0, 1)])
            for s in (0, 1)
        )
        # each position's index within its sector
        index = np.empty(d * d, dtype=int)
        for p in positions:
            index[p] = np.arange(len(p))
        transposes = tuple(index[p % d * d + p // d] for p in positions)
        even = positions[0]
        return cls(
            d, classes, positions, transposes, even // d > even % d, index[np.arange(d) * (d + 1)]
        )

    def parts(self, n: int) -> Parts:
        """The sector of harmonic n as parts (I, J) (``component``):
        the positions i d + j with i and j in the classes of q that make
        q_i q_j = (-1)^n."""
        s = n % 2
        return [(self.classes[c], self.classes[c ^ s]) for c in (0, 1)]

    def sector(self, n: int) -> np.ndarray:
        """The positions rho_n and rho_{-n} hold."""
        return self.positions[n % 2]

    def span(self, n: int) -> slice:
        """The coordinates of harmonic n >= 0."""
        even, odd = (len(p) for p in self.positions)
        start = 0 if n == 0 else even + 2 * (odd * (n // 2) + even * ((n - 1) // 2))
        return slice(start, start + (even if n == 0 else 2 * len(self.sector(n))))

    def size(self, k: int) -> int:
        """The number of real coordinates of the harmonics |n| <= k."""
        return self.span(k).stop

    def project(self, c: np.ndarray, n: int, out: np.ndarray) -> None:
        """Add the real coordinates of output harmonic n, from its entries
        on the sector (axis 0 of ``c``; each column alike), to ``out``."""
        if n == 0:
            lower = self.lower.reshape(-1, *(1,) * (c.ndim - 1))
            out += np.where(lower, c.imag, c.real)
        else:
            out[: len(c)] += c.real
            out[len(c) :] += c.imag

    def embed(self, mat: np.ndarray, m: int) -> np.ndarray:
        """mat E_m: ``mat`` acting on the sector of input harmonic m, taken
        onto the real coordinates of rho_{|m|} that make rho_m.  rho_m for
        m < 0 is rho_{|m|}^dag, which reads the transpose."""
        t = self.transposes[m % 2]
        if m > 0:
            return np.concatenate([mat, 1j * mat], axis=1)
        if m < 0:
            return np.concatenate([mat[:, t], -1j * mat[:, t]], axis=1)
        # coordinate (i, j) of rho_0 enters at (i, j) and (j, i): with
        # factors 1 and 1 above the diagonal, i and -i below it, 1 on it
        mt = mat[:, t]
        out = mat + mt
        out[:, self.lower] = 1j * (mat[:, self.lower] - mt[:, self.lower])
        out[:, self.trace] = mat[:, self.trace]
        return out

    def harmonic(self, r: np.ndarray, n: int) -> np.ndarray:
        """rho_n, n >= 0, a d x d matrix, from coordinates ``r`` that reach
        harmonic n; zero off its sector."""
        pos = self.sector(n)
        c = r[self.span(n)]
        v = np.zeros(self.dim**2, dtype=complex)
        if n == 0:
            t = self.transposes[0]
            c_lower = np.where(self.lower, c, 0.0)
            v[pos] = np.where(self.lower, c[t], c) + 1j * (c_lower - c_lower[t])
        else:
            v[pos] = c[: len(pos)] + 1j * c[len(pos) :]
        return v.reshape(self.dim, self.dim)

    def expand(self, r: np.ndarray, k: int) -> np.ndarray:
        """The stacked harmonics |n| <= k with coordinates ``r``, shape
        (2 k + 1, d, d), rho_{-n} = rho_n^dag."""
        upper = np.stack([self.harmonic(r, n) for n in range(k + 1)])
        return np.concatenate([upper[:0:-1].conj().transpose(0, 2, 1), upper])

    def restrict(self, blocks: np.ndarray, k: int) -> np.ndarray:
        """The coordinates of stacked harmonics |n| <= k (shape
        (2 k + 1, d, d)); their entries off the sectors are dropped."""
        out = np.zeros(self.size(k))
        for n in range(k + 1):
            self.project(blocks[k + n].reshape(-1)[self.sector(n)], n, out[self.span(n)])
        return out


def _real_block_system(liouv: CountingLiouvillian, k_rho: int) -> np.ndarray:
    """The block system on the real coordinates (``Coordinates``), built
    from each L_q once, in Fortran order, so LAPACK factors it in place.

    Block L_q maps input harmonic m to output harmonic n = m + q, and only
    n >= 0 is kept: its rows are the coordinates of the output on sector n,
    ``project`` of L_q restricted to the sectors of n and m, ``embed``-ded
    onto the coordinates of rho_{|m|}."""
    cm = liouv.coords
    big = np.zeros((cm.size(k_rho),) * 2, order="F")
    for q in range(-liouv.support, liouv.support + 1):
        rows = range(max(0, q - k_rho), min(k_rho, k_rho + q) + 1)
        if not rows:
            continue
        # L_q between the sectors, one block per parity of the output
        parities = {n % 2 for n in rows}
        blocks = {s: liouv.component(q, cm.parts(s), cm.parts(s - q)) for s in parities}
        for n in rows:
            m = n - q
            cm.project(cm.embed(blocks[n % 2], m), n, big[cm.span(n), cm.span(abs(m))])
    # -i n w rho_n: Re y_n gains n w Im rho_n, Im y_n loses n w Re rho_n
    for n in range(1, k_rho + 1):
        span = cm.span(n)
        re = np.arange(span.start, span.stop - len(cm.sector(n)))
        im = re + len(cm.sector(n))
        big[re, im] += n * liouv.omega_L
        big[im, re] -= n * liouv.omega_L
    return big


def _bordered_factor(big: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The LU of a bordered system ``big`` (real or complex, Fortran order),
    taken in its own buffer and judged by LAPACK's estimate of its
    reciprocal 1-norm condition number from the same factor: below N eps,
    N the system size, the system is singular to working precision, so the
    steady state is not unique.  (Small pivots alone miss such a null
    space: which pivot comes out small depends on the rounding of the
    elimination.)"""
    from scipy.linalg import LinAlgWarning, get_lapack_funcs, lu_factor

    lange, gecon = get_lapack_funcs(("lange", "gecon"), (big,))
    norm = lange("1", big)
    with warnings.catch_warnings():
        # an exact zero pivot is judged below, with the rest
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(big, overwrite_a=True, check_finite=False)
    rcond, _ = gecon(lu, norm)
    if not rcond >= len(big) * np.finfo(float).eps:
        raise DegenerateSteadyStateError(
            f"bordered system is singular (condition estimate {rcond:.1e}, below N eps = "
            f"{len(big) * np.finfo(float).eps:.1e}): more than one steady state"
        )
    return lu, piv


def _real_factor(liouv: CountingLiouvillian, k_rho: int) -> tuple[np.ndarray, np.ndarray]:
    """The LU of ``_real_block_system`` with the trace border in place of
    the real row 0: an exact solve of the bordered k_rho system on the real
    coordinates, judged by ``_bordered_factor``."""
    big = _real_block_system(liouv, k_rho)
    big[0, :] = 0.0
    big[0, liouv.coords.trace] = 1.0
    return _bordered_factor(big)


def _block_action(liouv: CountingLiouvillian, k_rho: int) -> Callable[[np.ndarray], np.ndarray]:
    """Matrix-free action of the harmonic block system on the stacked
    density-matrix harmonics |n| <= k_rho, shape (2 k_rho + 1, d, d),
    applied in time.

    The ``stacks`` of L_q for |q| <= Q = min(support, 2 k_rho) (no other
    L_q couples two kept harmonics) are sampled once by
    ``floquet.time_samples`` at nt = 2 k_rho + Q + 1 points per period.
    The product L(t) rho(t) then holds harmonics |n| <= k_rho + Q, so none
    aliases onto a kept one.  Each action samples rho(t_j) the same way,
    takes the ``sandwich`` of the stacked products, a forward FFT back to
    harmonics |n| <= k_rho, and the diagonal -i n w rho_n."""
    reach = min(liouv.support, 2 * k_rho)
    nt = 2 * k_rho + reach + 1

    stacks = liouv.stacks(range(-reach, reach + 1))
    left_t, right_t = (time_samples(m, -reach, nt) for m in stacks)
    n = np.arange(-k_rho, k_rho + 1)
    slots = n % nt
    shift = (-1j * n * liouv.omega_L)[:, None, None]

    def act(rho_n: np.ndarray) -> np.ndarray:
        rho = time_samples(rho_n, -k_rho, nt)
        y = liouv.sandwich(left_t @ rho, rho @ right_t)
        return np.fft.fft(y, axis=0, norm="forward")[slots] + shift * rho_n

    return act


def _residual(
    act: Callable[[np.ndarray], np.ndarray], k_rho: int, blocks: np.ndarray
) -> float:
    """Relative residual of the original (singular) block system rows, with
    ``act`` the system's action, at the stacked harmonics ``blocks``."""
    res = act(blocks)
    res[k_rho, 0, 0] = 0.0  # rho_0's (0, 0) entry, the bordered row
    return float(np.linalg.norm(res) / np.linalg.norm(blocks))


# what the centre and block factors of a route may hold: the whole real
# system on ``lu``, the ``gmres`` preconditioner
DENSE_BYTES_LIMIT = 2_500_000_000


def _route_bytes(liouv: CountingLiouvillian, k_rho: int, k_in: int) -> tuple[int, int]:
    """The bytes of every factor the route with exact centre |n| <= k_in
    holds, and its limit: the real centre on its parity sectors,
    ``coords.size(k_in)`` unknowns, at 8 B per entry of that sector system,
    and one complex d^2 x d^2 block per outer harmonic
    n = k_in + 1..k_rho at 16 B.  The limit is DENSE_BYTES_LIMIT, 2.5 GB,
    when the centre is the whole system (``lu``) and ARRAY_BYTES_LIMIT,
    1.5 GB, for the ``gmres`` preconditioner."""
    centre = liouv.coords.size(k_in) if k_in >= 0 else 0
    need = centre * centre * 8 + (k_rho - k_in) * liouv.dim**4 * 16
    return need, DENSE_BYTES_LIMIT if k_in == k_rho else ARRAY_BYTES_LIMIT


def _memory_guard(liouv: CountingLiouvillian, k_rho: int, k_in: int) -> None:
    """Refuse a route before anything is allocated, so oversized problems
    fail cleanly instead of thrashing, by the count of ``_route_bytes``."""
    need, limit = _route_bytes(liouv, k_rho, k_in)
    if need > limit:
        what = (
            f"dense block system of size {liouv.coords.size(k_rho)}"
            if k_in == k_rho
            else "gmres preconditioner"
        )
        raise SteadyStateError(
            f"{what} would need {need / 1e9:.1f} GB (n_fock too large); reduce the problem size"
        )


def _forward_sweep(
    liouv: CountingLiouvillian, k_rho: int, k_in: int
) -> Callable[[np.ndarray], np.ndarray]:
    """Block lower-triangular preconditioner of the bordered system on the
    real coordinates (``Coordinates``): one forward Gauss-Seidel sweep over
    |n|.

    The centre goes first.  For k_in >= 0 the harmonics |n| <= k_in, a
    prefix of the coordinates, are solved by the real LU of the bordered
    k_in system on its sectors, which ``_real_factor`` builds here; for
    k_in = -1, rho_0 gets the complex LU of the bordered L_0, applied to the
    Hermitian rho_0; ``_bordered_factor`` judges either centre, and
    ``steady_state`` picks k_in.  Each outer harmonic n = k_in + 1..k_rho
    then solves the complex d^2 x d^2 LU of its diagonal block L_0 - i n w
    on rho_n from its coordinates minus sum_{|m| < n} L_{n-m} rho_m, from
    the harmonics already solved,
    with rho_{-m} = rho_m^dag, and keeps the solution's coordinates: every
    block takes and returns sector vectors through the map.  Only L_q with
    q = 1..2 n - 1 enter.  Their ``stacks`` are taken once, before the
    factors, so each coupling is the ``sandwich`` of two stacked products
    summed over q.  The last block LU is taken in L_0's own buffer, so the
    centre and the k_rho - k_in block factors are all that is held."""
    from scipy.linalg import lu_factor, lu_solve

    d = liouv.dim
    cm = liouv.coords
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
        diag = np.arange(d) * (d + 1)
        for n in outer:
            # the last one is factored in L_0's own buffer
            block = l0 if n == outer[-1] else l0.copy(order="F")
            block.flat[:: d * d + 1] -= 1j * n * liouv.omega_L
            if n == 0:
                block[0, :] = 0.0
                block[0, diag] = 1.0
                factors[n] = _bordered_factor(block)
            else:
                factors[n] = lu_factor(block, overwrite_a=True, check_finite=False)

    def precond(r: np.ndarray) -> np.ndarray:
        out = np.zeros_like(r)
        # rho[m + k_rho] = rho_m as a matrix, filled as the sweep goes
        rho = np.empty((2 * k_rho + 1, d, d), dtype=complex)
        if central is not None:
            c = cm.size(k_in)
            out[:c] = lu_solve(central, r[:c], check_finite=False)
            rho[k_rho - k_in : k_rho + k_in + 1] = cm.expand(out[:c], k_in)
        for n, factor in factors.items():
            rhs = cm.harmonic(r, n)
            if reach and n > 0:
                rhs -= coupling(rho, n)
            rho_n = lu_solve(factor, rhs.reshape(-1), check_finite=False)
            cm.project(rho_n[cm.sector(n)], n, out[cm.span(n)])
            # the solution as its coordinates hold it: on its sector, and
            # Hermitian for n = 0
            rho[k_rho + n] = cm.harmonic(out, n)
            if n > 0:
                rho[k_rho - n] = rho[k_rho + n].conj().T
        return out

    return precond


def _gmres(
    matvec: Callable[[np.ndarray], np.ndarray],
    precond: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    x0: np.ndarray,
    restart: int,
) -> tuple[np.ndarray, int, int]:
    """One left-preconditioned, full-memory GMRES cycle (Saad & Schultz,
    SIAM J. Sci. Stat. Comput. 7, 856 (1986)) on the real system A x = b,
    A applied by ``matvec`` and the preconditioner M by ``precond``,
    started from x0 = M b.

    The cycle takes at least one step and at most ``restart``, and stops
    once the preconditioned residual is at most 1e-13 |M b| (|x0|, so b is
    not swept again) or the Krylov space closes (h1 <= eps h0).  Unlike
    scipy, it does not return a start that already meets |b - A x0| <
    1e-13 |b|: the first step refines it, and a start whose preconditioned
    residual is exactly 0 takes a null step.  Otherwise the arithmetic is
    that of scipy's ``gmres`` cycle (1.17): modified Gram-Schmidt, LAPACK
    ``lartg`` Givens rotations and the same back substitution, so steps and
    solution match it bit for bit; the true residual b - A x is left to
    the caller, which judges it on every route.  Returns (x, steps, code),
    code 0 when the tolerance is met and 1 when the cycle ran out of steps
    (or of Krylov space) above it.
    """
    from scipy.linalg import get_lapack_funcs

    r = b - matvec(x0)
    ptol = 1e-13 * np.linalg.norm(x0)
    eps = np.finfo(float).eps
    lartg = get_lapack_funcs("lartg", dtype=float)
    v = np.empty((restart + 1, len(b)))  # the Krylov basis
    h = np.zeros((restart, restart))  # the rotated Hessenberg matrix, by column
    givens = np.zeros((restart, 2))
    g = np.zeros(restart + 1)  # the rotated right-hand side

    v[0] = precond(r)
    g[0] = np.linalg.norm(v[0])
    if g[0] != 0:
        v[0] *= 1 / g[0]
    for col in range(restart):
        w = precond(matvec(v[col]))
        h0 = np.linalg.norm(w)
        for k in range(col + 1):  # modified Gram-Schmidt
            h[col, k] = np.dot(v[k], w)
            w -= h[col, k] * v[k]
        h1 = np.linalg.norm(w)
        closed = h1 <= eps * h0
        if closed:
            h1 = 0.0
        else:
            v[col + 1] = w * (1 / h1)
        for k in range(col):
            c, s = givens[k]
            n0, n1 = h[col, k], h[col, k + 1]
            h[col, k], h[col, k + 1] = c * n0 + s * n1, -s * n0 + c * n1
        c, s, h[col, col] = lartg(h[col, col], h1)
        givens[col] = c, s
        g[col], g[col + 1] = c * g[col], -s * g[col]
        if abs(g[col + 1]) <= ptol or closed:
            break
    code = 0 if abs(g[col + 1]) <= ptol else 1

    if h[col, col] == 0:
        g[col] = 0.0
    y = g[: col + 1]
    for k in range(col, 0, -1):
        if y[k] != 0:
            y[k] /= h[k, k]
            y[:k] -= y[k] * h[k, :k]
    if y[0] != 0:
        y[0] /= h[0, 0]
    return x0 + y @ v[: col + 1], col + 1, code


def _solve_bordered(
    liouv: CountingLiouvillian, k_rho: int, k_in: int
) -> tuple[np.ndarray, float, int]:
    """The bordered block system on the real coordinates (``Coordinates``),
    solved under the forward-sweep preconditioner (``_forward_sweep``).

    The unknowns are the real coordinates of the harmonics n >= 0 on their
    parity sectors, (2 k_rho + 1) d^2 / 2 of them when Q has as many +1 as
    -1, with the trace border on coordinate 0.  k_in names the exact centre
    |n| <= k_in, -1 for none, as ``steady_state`` picks it; the positivity
    probe passes its base route's k_in.  ``_memory_guard`` runs first,
    before anything is allocated.  ``_gmres`` then runs one
    left-preconditioned, full-memory cycle of at most 180 steps on the
    matrix-free system action (``_block_action``, sampled in time before
    the block factors are taken), from the preconditioned right-hand side
    M b, stopping at a preconditioned residual of 1e-13 |M b|.  The sweep
    leaves out only the couplings from harmonics |m| >= n into harmonic n,
    which are weak; with k_in = k_rho it leaves out nothing, M is the exact
    LU, and its one step is an iterative-refinement step by that factor.
    Every route's relative residual of the original system, computed here
    once, must be at most ``RESIDUAL_TOL``; a failure names the GMRES
    iterations, whether the cycle met its own tolerance, and, below
    k_in = k_rho, ``lu`` as the direct route only where its guard would let
    it run.
    Returns (real coordinates, that residual, GMRES iterations).
    """
    cm = liouv.coords
    size = cm.size(k_rho)

    _memory_guard(liouv, k_rho, k_in)
    # the small time samples and couplings go before the large factors: made
    # after them, they raised the peak RSS by heap placement
    act = _block_action(liouv, k_rho)
    precond = _forward_sweep(liouv, k_rho, k_in)

    rhs = np.zeros(size)
    rhs[0] = 1.0
    x0 = precond(rhs)

    def matvec(x: np.ndarray) -> np.ndarray:
        out = cm.restrict(act(cm.expand(x, k_rho)), k_rho)
        out[0] = x[cm.trace].sum()
        return out

    # one full-memory cycle; restarting loses superlinear convergence here
    vec, iterations, code = _gmres(matvec, precond, rhs, x0, min(180, size))
    residual = _residual(act, k_rho, cm.expand(vec, k_rho))
    if not residual <= RESIDUAL_TOL:  # written so that nan fails it
        cycle = "met its tolerance" if code == 0 else "ran out of steps"
        message = (
            f"steady solve residual {residual:.2e} above {RESIDUAL_TOL:.0e} after "
            f"{iterations} GMRES iterations (the cycle {cycle})"
        )
        if k_in < k_rho:
            # generators with very slow modes (e.g. an undamped mode cooled
            # only through drive sidebands) defeat the sweep unless the
            # harmonics that couple them are exact
            need, limit = _route_bytes(liouv, k_rho, k_rho)
            message += (
                "; solver.method=lu is the direct route"
                if need <= limit
                else f"; solver.method=lu would need {need / 1e9:.1f} GB, above its "
                f"{limit / 1e9:.1f} GB limit"
            )
        raise SteadyStateError(message)
    return vec, residual, iterations


def _periodic_state(
    liouv: CountingLiouvillian, coords: np.ndarray, k_rho: int
) -> tuple[PeriodicOperator, float]:
    """Trace-normalized harmonics |n| <= k_rho from the real coordinates of
    a solution, with the off-harmonic trace defect."""
    cm = liouv.coords
    rho = cm.expand(coords / coords[cm.trace].sum(), k_rho)
    trace_defect = float(np.abs(np.trace(rho[k_rho + 1 :], axis1=1, axis2=2)).max(initial=0.0))
    return PeriodicOperator(harmonics=rho, omega_L=liouv.omega_L), trace_defect


def _min_eigenvalue(rho: PeriodicOperator) -> float:
    """Smallest eigenvalue of rho(t) over six times in the period."""
    times = np.arange(6) / 6.0 * (2.0 * math.pi / rho.omega_L)
    return float(np.linalg.eigvalsh(rho.at_time(times)).min())


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
        rho, _ = _periodic_state(liouv, coords, k_rho + 2)
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
    """The generator parts that hold nan or inf, by harmonic q: reservoir
    kernels (G1_q, G2_q), and no-jump pairs (A_q, B_q) where no kernel of
    their q does, since they are built from them."""
    bad = ~np.isfinite(_parts(liouv.left, liouv.right)).all(axis=(0, 3, 4))
    bad[:, 0] &= ~bad[:, 1:].any(axis=1)
    return liouv.part_names(bad)


DENSE_SIZE_LIMIT = 1200
# largest off-harmonic trace |Tr rho_n|, n >= 1, of an accepted state
TRACE_TOL = 1e-10
# largest relative residual (``_residual``) of an accepted solve, on every route
RESIDUAL_TOL = 1e-10
# bound on -min eig rho(t) of an accepted state
POSITIVITY_TOL = 1e-8


def steady_state(
    liouv: CountingLiouvillian, k_rho: int | None = None, method: str = "auto"
) -> tuple[PeriodicOperator, SteadyStateInfo]:
    """Solve the harmonic steady-state block system.

    Every route is one ``_solve_bordered(liouv, k_rho, k_in)``, and the
    routes differ only in k_in, the exact centre |n| <= k_in, decided here
    once, by the one route rule: k_in = k_rho on lu, and on gmres 1 for one
    reservoir and -1 (no centre) for two.  ``method`` is "lu" (the real LU
    of the whole bordered system is the preconditioner, exact, so GMRES
    takes one step, a refinement by that factor), "gmres" (a forward sweep
    over |n| with one block factor per outer harmonic, ``_forward_sweep``,
    is the preconditioner), or "auto" (lu up to DENSE_SIZE_LIMIT complex
    unknowns, (2 k_rho + 1) d^2, gmres above); every route iterates on the
    system's action in time, the count in ``SteadyStateInfo.iterations``.
    A single-reservoir generator needs the centre |n| <= 1: its undamped
    mode is cooled only by drive sidebands, which couple rho_0 through
    rho_{+-1} alone, so with rho_0 alone exact GMRES stalls near residual
    3e-3 (or the centre is singular), and with |n| <= 1, the real LU lu
    would take at k_rho = 1 and block factors for n >= 2 only, it converges
    in a few iterations.  One memory guard (``_memory_guard``) counts the
    route's factors before anything is allocated: 2.5 GB on lu, 1.5 GB on
    gmres.  Each call runs only the route picked: a solve whose residual
    fails or that meets its memory guard fails with that one cause; any
    other ``method`` is a ValueError.
    A bordered LU (the real centre, or the complex L_0 when k_in = -1)
    whose condition estimate is below N eps means more than one steady
    state (``_bordered_factor``).
    Every route solves for the real coordinates of the state on its parity
    sectors (``Coordinates``), their count in ``SteadyStateInfo.unknowns``,
    so rho_{-n} = rho_n^dag and Q rho_n Q = (-1)^n rho_n hold exactly; the
    route judges its residual (``_solve_bordered``), the returned harmonics
    are trace-normalized, and the off-harmonic trace (at most TRACE_TOL)
    and positivity of rho(t) are checked, a nan failing each.  A generator with nan or inf
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

    k_in = k_rho if method == "lu" else min(1, k_rho) if len(liouv.couplings) == 1 else -1
    coords, residual, iterations = _solve_bordered(liouv, k_rho, k_in)

    result, trace_defect = _periodic_state(liouv, coords, k_rho)
    min_eig = _min_eigenvalue(result)

    info = SteadyStateInfo(
        method=method,
        k_rho=k_rho,
        size=size,
        unknowns=liouv.coords.size(k_rho),
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
    return result, info


def heat_current(liouv: CountingLiouvillian, rho: PeriodicOperator, name: str) -> float:
    """Period average of Q_nu(t) = Tr{L'_nu(t) rho(t)} = Tr{rho(t) J_nu(t)},
    positive when heat flows into the supersystem: the contraction
    sum_q Tr{rho_{-q} J_q} with the reservoir's current operators
    (``CountingLiouvillian.currents``)."""
    if name not in liouv.couplings:
        raise KeyError(f"no reservoir named {name!r}; have {sorted(liouv.couplings)}")
    s, k = liouv.support, rho.max_harmonic
    m = min(s, k)
    # rho_{-q} J_q for q = -m..m, the harmonics both hold: rho's reversed
    products = rho.harmonics[k - m : k + m + 1][::-1] @ liouv.currents[name][s - m : s + m + 1]
    return float(np.trace(products, axis1=1, axis2=2).sum().real)


def periodic_average_rate(
    liouv: CountingLiouvillian, rho: PeriodicOperator, observable: np.ndarray
) -> float:
    """Period average of d<O>/dt = Tr{O L(t) rho(t)} at steady state.

    Vanishes for any observable when rho solves the harmonic block system
    exactly, so the magnitude measures solve quality.
    """
    m = min(liouv.support, rho.max_harmonic)
    total = sum(
        np.trace(observable @ liouv.apply_component(q, rho.component(-q)))
        for q in range(-m, m + 1)
    )
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
