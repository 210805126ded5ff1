"""Extended-space (Sambe) quasienergy problem and Floquet-mode machinery.

A T-periodic Hamiltonian H(t) = sum_k exp(i k w t) H_k is lifted to the
time-independent block matrix Q = sum_k F_k (x) H_k + w F_z (x) 1, where the
harmonic ladder is truncated to m in [-K, K].  Each physical Floquet state
appears on the ladder as a family of copies, eps + s w with its harmonic
blocks displaced by s; one copy per family, the one centred on the ladder,
is kept unfolded, its eigenvalue and its blocks u_r^(m) of
|r(t)> = sum_m exp(i m w t) u_r^(m) together.  Folding the eigenvalues
into one Brillouin zone (-w/2, w/2] gives the quasienergies.  The kept
copies certify the ladder: their weight in the edge blocks and their
residual just outside the ladder bound what the truncation leaves out, and
their t = 0 vectors must form a complete basis.

With the model's half-period parity Q, the ladder parity (-1)^m Q commutes
with the Sambe matrix, which is diagonalized on each of its two sectors, so
every mode keeps a definite parity however degenerate the copies are.

Q is diagonalized in a real gauge when it has one: a diagonal phase change
D^dag Q D read off Q's own nonzero pattern makes every Q this model builds
real symmetric, and a real ``eigh`` is several times faster than a complex
one.  A Q with no real gauge is diagonalized as it is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import PARITY_TOL, PeriodicOperator


# ladder certificate of the kept representatives: largest weight in the two
# edge blocks, largest residual just outside the ladder (times omega_L), and
# largest entry of V(0) V(0)^dag - 1
EDGE_WEIGHT_BOUND = 1e-10
EDGE_RESIDUAL_BOUND = 1e-8
COMPLETENESS_BOUND = 1e-6
# eigenvalues of one sector closer than this (times omega_L) span one eigenspace
CLUSTER_TOL = 1e-10
# largest dense working array a solve may allocate, in bytes: the Sambe
# matrix here, and the gmres preconditioner's factors (``generator``)
ARRAY_BYTES_LIMIT = 1_500_000_000


class FloquetConvergenceError(RuntimeError):
    """Truncated harmonic ladder too small for a converged Floquet solution:
    the kept representatives fail the ladder certificate (``pair``: the
    states behind a completeness defect)."""

    def __init__(self, k_ext: int, edge_weight: float, edge_residual: float,
                 completeness: float, pair: str = ""):
        super().__init__(
            f"ladder k_ext={k_ext} not certified: edge weight {edge_weight:.2e} "
            f"(bound {EDGE_WEIGHT_BOUND:.0e}), edge residual {edge_residual:.2e} "
            f"(bound {EDGE_RESIDUAL_BOUND:.0e} omega_L), Floquet completeness defect "
            f"{completeness:.2e} (bound {COMPLETENESS_BOUND:.0e}){pair}; increase k_ext"
        )
        self.k_ext = k_ext
        self.edge_weight = edge_weight
        self.edge_residual = edge_residual
        self.completeness = completeness


@dataclass(frozen=True)
class ExtendedOperator:
    """Block-Toeplitz lift sum_k F_k (x) O_k + w F_z (x) 1."""

    matrix: np.ndarray = field(repr=False)
    k_ext: int
    dim_phys: int
    omega_L: float


def build_quasienergy_operator(
    h: PeriodicOperator, omega_L: float, k_ext: int
) -> ExtendedOperator:
    """Assemble the extended-space quasienergy operator.

    Block (m, m') holds H_{m - m'}; the diagonal block m additionally
    carries m * omega_L * identity.  Requires k_ext at least as large as the
    harmonic support of ``h``, and a matrix within ARRAY_BYTES_LIMIT, checked
    before it is allocated.
    """
    if k_ext < h.max_harmonic:
        raise ValueError(
            f"k_ext={k_ext} smaller than the operator's harmonic support "
            f"{h.max_harmonic}"
        )
    d = h.dim
    side = (2 * k_ext + 1) * d
    if 16 * side * side > ARRAY_BYTES_LIMIT:
        raise ValueError(
            f"Sambe matrix at k_ext={k_ext} (side {side}) would need "
            f"{16 * side * side / 1e9:.1f} GB; reduce k_ext"
        )
    # [m_row, :, m_col, :]: block diagonal k holds H_k, m_row = m_col + k
    n = 2 * k_ext + 1
    big = np.zeros((n, d, n, d), dtype=complex)
    m = np.arange(n)
    for k, mat in enumerate(h.harmonics, -h.max_harmonic):
        rows = m[max(k, 0) : n + min(k, 0)]
        big[rows, :, rows - k] = mat
    big[m, :, m] += np.multiply.outer((m - k_ext) * omega_L, np.eye(d))
    big = big.reshape(side, side)
    return ExtendedOperator(matrix=big, k_ext=k_ext, dim_phys=d, omega_L=omega_L)


def fold_to_zone(eps: np.ndarray | float, omega_L: float) -> np.ndarray | float:
    """Fold quasienergies into the Brillouin zone (-omega_L/2, omega_L/2]."""
    return eps - omega_L * np.ceil(eps / omega_L - 0.5)


def _zone(energies: np.ndarray, omega_L: float) -> np.ndarray:
    """``fold_to_zone``, with values within 1e-10 omega_L of the lower zone
    edge snapped to the included upper edge."""
    eps = fold_to_zone(energies, omega_L)
    return np.where(eps < -0.5 * omega_L + 1e-10 * omega_L, eps + omega_L, eps)


@dataclass(frozen=True)
class FloquetSolution:
    """Unfolded Floquet representatives: eigenvalues of Q and their harmonics.

    ``modes[m + k_ext]`` is the harmonic V_m of the mode matrix V(t) =
    sum_m e^{i m w t} V_m, shape (2 k_ext + 1, d, d): column r of V_m is
    u_r^(m) of the copy with eigenvalue ``energies[r]``, each mode
    normalized in the extended inner product, sum_m ||u_r^(m)||^2 = 1.
    ``quasienergies`` are the energies folded into (-w/2, w/2]
    (``solve_floquet`` orders the modes by them); the zone modes that go
    with them are the copies times e^{-i s_r w t}, s_r the ladder steps
    energy r is folded by.  ``edge_weight``, ``edge_residual`` and
    ``completeness`` are the ladder certificate.
    """

    energies: np.ndarray
    modes: np.ndarray = field(repr=False)
    k_ext: int
    omega_L: float
    edge_weight: float
    edge_residual: float
    completeness: float

    @property
    def dim(self) -> int:
        return int(self.energies.shape[0])

    @property
    def quasienergies(self) -> np.ndarray:
        return _zone(self.energies, self.omega_L)

    def transition_frequencies(self, n: np.ndarray) -> np.ndarray:
        """delta[i, r, r'] = eps_r - eps_r' + n[i] omega_L on the unfolded
        energies, the frequency of jump amplitude [n[i], r, r']."""
        eps = self.energies
        return eps[:, None] - eps + n[:, None, None] * self.omega_L


def _real_form(a: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Hermitian ``a`` in a real gauge: (D^dag a D as a real matrix, the unit
    phases diag D), or (``a``, None) when it has none.

    The phases make every edge of a breadth-first spanning forest of a's
    nonzero pattern real and positive, one tree level at a time; the gauge
    exists when every other entry then comes out real, to 1e-14 of max|a|.
    """
    n = a.shape[0]
    rows, cols = np.divmod(np.flatnonzero(a != 0), n)
    vals = a[rows, cols]
    unit = vals.conj() / np.abs(vals)
    phase = np.zeros(n, dtype=complex)
    seen = np.zeros(n, dtype=bool)
    level = np.zeros(n, dtype=bool)
    while True:
        if not level.any():
            unseen = np.flatnonzero(~seen)
            if unseen.size == 0:
                break
            phase[unseen[0]] = 1.0
            seen[unseen[0]] = level[unseen[0]] = True
        # every edge into an unseen node is a tree edge; where several reach
        # one node, the one written last is kept
        links = np.flatnonzero(level[rows] & ~seen[cols])
        reached = cols[links]
        phase[reached] = phase[rows[links]] * unit[links]
        seen[reached] = True
        level[:] = False
        level[reached] = True
    gauged = phase[rows].conj() * vals * phase[cols]
    if np.max(np.abs(gauged.imag)) > 1e-14 * np.max(np.abs(vals)):
        return a, None
    real = np.zeros((n, n))
    real[rows, cols] = gauged.real
    return real, phase


def _edge_residual(q: ExtendedOperator, modes: np.ndarray) -> np.ndarray:
    """Norm of each mode's residual in the blocks just outside the ladder.

    A copy (eps, u) of the truncated Q, extended by zero blocks, satisfies
    the untruncated eigenproblem except in the K blocks beyond each edge (K
    the harmonic support), where it leaves sum_j H_j u^(m - j).  Q is block
    Toeplitz, so the blocks that map the K edge blocks there also sit in Q,
    K blocks further in.
    """
    d, n = q.dim_phys, q.matrix.shape[0]
    # H_1, H_2, ... fill the first block column below the diagonal
    rows = np.flatnonzero(np.any(q.matrix[d:, :d], axis=1))
    s = (rows[-1] // d + 1) * d if rows.size else 0
    u = modes.reshape(modes.shape[0], n)
    up = u[:, n - s :] @ q.matrix[n - s :, n - 2 * s : n - s].T
    down = u[:, :s] @ q.matrix[:s, s : 2 * s].T
    return np.sqrt(np.sum(np.abs(up) ** 2, axis=1) + np.sum(np.abs(down) ** 2, axis=1))


def _sector_eigh(a: np.ndarray, ladder: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of the Hermitian ``a``, on its real gauge when it has one
    (``_real_form``).  Eigenvalues closer than ``tol`` to their neighbour
    span one eigenspace, whose basis is the one that diagonalizes the ladder
    position diag(``ladder``): a degeneracy between families then leaves
    each copy apart instead of an arbitrary mix."""
    matrix, phase = _real_form(a)
    evals, evecs = np.linalg.eigh(matrix)
    # each run of eigenvalues within tol of the next, as [first, last]
    close = np.diff(np.concatenate([[0], np.diff(evals) < tol, [0]]).astype(int))
    for first, last in zip(np.flatnonzero(close > 0), np.flatnonzero(close < 0)):
        u = evecs[:, first : last + 1]
        _, rotation = np.linalg.eigh(u.conj().T @ (ladder[:, None] * u))
        evecs[:, first : last + 1] = u @ rotation
    if phase is not None:
        evecs = phase[:, None] * evecs
    return evals, evecs


def solve_floquet(q: ExtendedOperator, parity: np.ndarray) -> FloquetSolution:
    """Diagonalize the extended operator, keep one representative per
    Floquet family and certify the ladder.

    ``parity`` is the +-1 diagonal of the model's half-period parity Q
    (``model.parity``).  The ladder parity (-1)^m Q then commutes with the
    Sambe matrix, which is refused with a ValueError when it holds entries
    off its two sectors above ``PARITY_TOL`` of its largest, and otherwise
    diagonalized on each sector apart (``_sector_eigh``), so every mode has
    a definite parity.

    Copies of the same physical Floquet state differ by a ladder shift
    (eps + s w pairs with harmonics displaced by s blocks), so away from the
    ladder edges their weight centres sum_m m ||u^(m)||^2 are c + s for
    integer s, and each family has one copy with |c| <= 1/2.  The d copies
    with the smallest |c| are kept, ties by eigenvalue; the completeness
    bound below refuses any kept set that is not one copy per family.  The
    kept copies are neither folded nor shifted: each keeps its eigenvalue
    and its blocks, and they are ordered by their folded quasienergy.

    The ladder is certified from this one solution.  Every kept copy must
    carry at most ``EDGE_WEIGHT_BOUND`` of its weight in the two edge blocks
    m = +-k_ext, and its residual just outside the ladder
    (``_edge_residual``) must be at most ``EDGE_RESIDUAL_BOUND`` omega_L;
    a Hermitian eigenvalue lies within that residual of the untruncated
    spectrum.  The kept copies at t = 0, V(0), must be complete:
    max |V(0) V(0)^dag - 1| at most ``COMPLETENESS_BOUND``.  Otherwise
    ``FloquetConvergenceError`` names the three numbers, and the pair of
    states behind a completeness defect with their quasienergy gap.
    """
    herm = float(np.max(np.abs(q.matrix - q.matrix.conj().T)))
    if herm > 1e-10:
        raise ValueError(f"extended operator is not Hermitian (defect {herm:.2e})")
    d = q.dim_phys
    k = q.k_ext
    w = q.omega_L
    n = q.matrix.shape[0]

    ladder = np.repeat(np.arange(-k, k + 1), d)
    sign = (-1.0) ** ladder * np.tile(parity, 2 * k + 1)
    sectors = [np.flatnonzero(sign > 0), np.flatnonzero(sign < 0)]
    off = np.abs(q.matrix[np.ix_(*sectors)]).max(initial=0.0)
    if off > PARITY_TOL * np.abs(q.matrix).max():
        raise ValueError(
            f"Sambe matrix breaks the half-period parity Q: entries up to {off:.2e} off the "
            f"sectors of (-1)^m Q, above {PARITY_TOL:.0e} of the largest"
        )
    evals, evecs = [], []
    for idx in sectors:
        e, u = _sector_eigh(q.matrix[np.ix_(idx, idx)], ladder[idx], CLUSTER_TOL * w)
        full = np.zeros((len(e), n), dtype=u.dtype)
        full[:, idx] = u.T
        evals.append(e)
        evecs.append(full)
    evals = np.concatenate(evals)
    blocks = np.concatenate(evecs).reshape(-1, 2 * k + 1, d)  # [state, m, component]
    weights = np.sum(np.abs(blocks) ** 2, axis=2)  # [state, m]
    centre = weights @ np.arange(-k, k + 1)
    # the d copies nearest the ladder centre, ties by eigenvalue
    chosen = np.lexsort((evals, np.abs(centre)))[:d]
    chosen = chosen[np.argsort(_zone(evals[chosen], w))]
    modes = blocks[chosen]
    edge_weight = float(np.max(np.sum(np.abs(modes[:, [0, -1]]) ** 2, axis=(1, 2))))
    edge_residual = float(np.max(_edge_residual(q, modes)))
    v = modes.sum(axis=1).T  # V(0), column r the zone mode r at t = 0
    completeness = float(np.max(np.abs(v @ v.conj().T - np.eye(d))))
    if completeness > COMPLETENESS_BOUND:
        # the pair of states behind it, and how near (mod omega_L) they lie
        overlap = np.abs(v.conj().T @ v) * (1.0 - np.eye(d))
        r, s = sorted(np.unravel_index(np.argmax(overlap), overlap.shape))
        gap = abs(fold_to_zone(evals[chosen[s]] - evals[chosen[r]], w))
        pair = f": states {r} and {s} overlap {overlap[r, s]:.2e} at t = 0, quasienergy gap {gap:.1e}"
        raise FloquetConvergenceError(k, edge_weight, edge_residual, completeness, pair)
    if edge_weight > EDGE_WEIGHT_BOUND or edge_residual > EDGE_RESIDUAL_BOUND * w:
        raise FloquetConvergenceError(k, edge_weight, edge_residual, completeness)
    return FloquetSolution(
        evals[chosen], modes.transpose(1, 2, 0), k, w, edge_weight, edge_residual, completeness
    )


def time_samples(components: np.ndarray, first: int, nt: int) -> np.ndarray:
    """M(t_j) = sum_q e^{2 pi i q j / nt} M_q at t_j = j T / nt, j = 0..nt-1,
    from the harmonics M_q, q = first, first + 1, ..., stacked on axis 0, by
    one zero-padded inverse FFT.  Harmonic q sits at FFT slot q mod nt, so
    the harmonics must span at most nt values."""
    padded = np.zeros((nt, *components.shape[1:]), dtype=complex)
    padded[np.arange(first, first + len(components)) % nt] = components
    return np.fft.ifft(padded, axis=0, norm="forward")


def fast_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n: a sample count whose FFT takes a
    fraction of a prime length's."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


# jump amplitudes at or below this are set to 0
AMPLITUDE_FLOOR = 1e-12


def decompose_operator(s: np.ndarray, fs: FloquetSolution) -> np.ndarray:
    """Jump amplitudes amp[n + 2 k_ext, r, r'] = <<r| F_{-n} (x) S |r'>> for
    every harmonic the ladder holds, |n| <= 2 k_ext.

    Each couples |r'(t)> to |r(t)> at the transition frequency
    eps_r - eps_r' + n omega_L (``FloquetSolution.transition_frequencies``),
    both taken on the unfolded representatives; the frequencies do not
    depend on which copies those are.  amp[n] is harmonic n of
    <r(t)|S|r'(t)>, taken by one FFT of its samples at 4 k_ext + 1 points
    per period (``time_samples``), exactly the count of harmonics it holds,
    so none aliases.  The harmonic sum runs over the whole ladder: the certificate
    of ``solve_floquet`` bounds what the kept representatives leave in and
    beyond its edge blocks.  Amplitudes with |amp| <= ``AMPLITUDE_FLOOR``
    are set to 0.  For Hermitian S, amp[-n] = amp[n]^dag, and the floor acts
    alike on both sides.
    """
    k = fs.k_ext
    # v[j] = V(t_j), whose columns are the modes |r(t_j)>
    v = time_samples(fs.modes, -k, 4 * k + 1)
    amp = np.fft.fft(v.conj().transpose(0, 2, 1) @ s @ v, axis=0, norm="forward")
    # harmonic n sits at slot n mod (4 k + 1): n = -2k..-1 at the top
    amp = np.roll(amp, 2 * k, axis=0)
    amp[np.abs(amp) <= AMPLITUDE_FLOOR] = 0.0
    return amp
