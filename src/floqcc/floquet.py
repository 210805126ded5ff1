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
residual just outside the ladder bound what the truncation leaves out.

Q is diagonalized in a real gauge when it has one: a diagonal phase change
D^dag Q D read off Q's own nonzero pattern makes every Q this model builds
real symmetric, and a real ``eigh`` is several times faster than a complex
one.  A Q with no real gauge is diagonalized as it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import PeriodicOperator


class DegeneracyError(RuntimeError):
    """Representative selection failed to identify d distinct Floquet states."""


# ladder certificate of the kept representatives: largest weight in the two
# edge blocks, and largest residual just outside the ladder (times omega_L)
EDGE_WEIGHT_BOUND = 1e-10
EDGE_RESIDUAL_BOUND = 1e-8
# largest dense working array a solve may allocate, in bytes: the Sambe
# matrix here, and the gmres preconditioner's factors (``generator``)
ARRAY_BYTES_LIMIT = 1_500_000_000


class FloquetConvergenceError(RuntimeError):
    """Truncated harmonic ladder too small for a converged Floquet solution:
    the kept representatives fail the ladder certificate."""

    def __init__(self, k_ext: int, edge_weight: float, edge_residual: float):
        super().__init__(
            f"ladder k_ext={k_ext} not certified: edge weight {edge_weight:.2e} "
            f"(bound {EDGE_WEIGHT_BOUND:.0e}), edge residual {edge_residual:.2e} "
            f"(bound {EDGE_RESIDUAL_BOUND:.0e} omega_L); increase k_ext"
        )
        self.k_ext = k_ext
        self.edge_weight = edge_weight
        self.edge_residual = edge_residual


@dataclass(frozen=True)
class ExtendedOperator:
    """Block-Toeplitz lift sum_k F_k (x) O_k + w F_z (x) 1."""

    matrix: np.ndarray = field(repr=False)
    k_ext: int
    dim_phys: int
    omega_L: float

    def block(self, m_row: int, m_col: int) -> np.ndarray:
        d = self.dim_phys
        i = (m_row + self.k_ext) * d
        j = (m_col + self.k_ext) * d
        return self.matrix[i : i + d, j : j + d]


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
    big = np.zeros((side, side), dtype=complex)
    for k, mat in h.harmonics.items():
        # block row m, block column m-k  <->  F_k acting on the ladder index
        for mcol in range(-k_ext, k_ext + 1):
            mrow = mcol + k
            if mrow < -k_ext or mrow > k_ext:
                continue
            i = (mrow + k_ext) * d
            j = (mcol + k_ext) * d
            big[i : i + d, j : j + d] += mat
    for m in range(-k_ext, k_ext + 1):
        i = (m + k_ext) * d
        big[i : i + d, i : i + d] += m * omega_L * np.eye(d)
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

    ``modes[r, m + k_ext, :]`` is the harmonic component u_r^(m) of the copy
    with eigenvalue ``energies[r]``; each mode is normalized in the extended
    inner product, sum_m ||u^(m)||^2 = 1.  ``quasienergies`` are the
    energies folded into (-w/2, w/2] (``solve_floquet`` orders the modes by
    them), and the zone modes e^{-i s_r w t} |r(t)> that go with them are
    what ``mode_at_time`` and ``state_matrix_at_time`` return.
    ``edge_weight`` and ``edge_residual`` are the ladder certificate (nan
    when not computed).
    """

    energies: np.ndarray
    modes: np.ndarray = field(repr=False)
    k_ext: int
    omega_L: float
    edge_weight: float = math.nan
    edge_residual: float = math.nan

    @property
    def dim(self) -> int:
        return int(self.energies.shape[0])

    @property
    def quasienergies(self) -> np.ndarray:
        return _zone(self.energies, self.omega_L)

    def mode_at_time(self, r: int, t: float) -> np.ndarray:
        return self.state_matrix_at_time(t)[:, r]

    def state_matrix_at_time(self, t: float) -> np.ndarray:
        """Columns are the zone modes |r(t)> for r = 0..d-1: each copy's
        mode times e^{-i s_r w t}, s_r the ladder steps its energy is
        folded by."""
        w = self.omega_L
        ms = np.arange(-self.k_ext, self.k_ext + 1)
        shifts = np.rint((self.energies - self.quasienergies) / w)
        modes = np.tensordot(np.exp(1j * ms * w * t), self.modes, axes=(0, 1)).T
        return modes * np.exp(-1j * shifts * w * t)

    def completeness_defect_t0(self) -> float:
        v = self.state_matrix_at_time(0.0)
        return float(np.max(np.abs(v @ v.conj().T - np.eye(self.dim))))


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


def solve_floquet(q: ExtendedOperator) -> FloquetSolution:
    """Diagonalize the extended operator, keep one representative per
    Floquet family and certify the ladder.

    Copies of the same physical Floquet state differ by a ladder shift
    (eps + s w pairs with harmonics displaced by s blocks).  Candidates are
    taken in order of their weight centre sum_m m ||u^(m)||^2, nearest 0
    first; one whose t = 0 physical vector has squared overlap above 0.5
    with an already accepted state is a shifted duplicate and is discarded
    (t = 0 vectors of distinct Floquet states are orthogonal).  The kept
    copies are neither folded nor shifted: each keeps its eigenvalue and its
    blocks, and they are ordered by their folded quasienergy.

    The ladder is certified from this one solution.  Every kept copy must
    carry at most ``EDGE_WEIGHT_BOUND`` of its weight in the two edge blocks
    m = +-k_ext, and its residual just outside the ladder
    (``_edge_residual``) must be at most ``EDGE_RESIDUAL_BOUND`` omega_L;
    a Hermitian eigenvalue lies within that residual of the untruncated
    spectrum.  Otherwise ``FloquetConvergenceError`` names both numbers.
    The ``eigh`` runs on the real gauge of Q when there is one
    (``_real_form``).
    """
    herm = float(np.max(np.abs(q.matrix - q.matrix.conj().T)))
    if herm > 1e-10:
        raise ValueError(f"extended operator is not Hermitian (defect {herm:.2e})")
    d = q.dim_phys
    k = q.k_ext
    w = q.omega_L

    matrix, phase = _real_form(q.matrix)
    evals, evecs = np.linalg.eigh(matrix)
    if phase is not None:
        evecs = phase[:, None] * evecs
    blocks = evecs.T.reshape(-1, 2 * k + 1, d)  # [state, m, component]
    weights = np.sum(np.abs(blocks) ** 2, axis=2)  # [state, m]
    centre = weights @ np.arange(-k, k + 1)
    t0 = blocks.sum(axis=1)  # physical vector at t = 0 (unnormalized)

    chosen: list[int] = []
    basis = np.empty((d, d), dtype=t0.dtype)
    for idx in np.argsort(np.abs(centre), kind="stable"):
        v = t0[idx]
        nv = np.linalg.norm(v)
        if nv < 1e-8:
            continue
        v = v / nv
        if chosen and np.max(np.abs(basis[: len(chosen)] @ v.conj())) ** 2 > 0.5:
            continue
        basis[len(chosen)] = v
        chosen.append(idx)
        if len(chosen) == d:
            break
    if len(chosen) != d:
        raise DegeneracyError(
            f"selected {len(chosen)} of {d} Floquet representatives; "
            "increase k_ext or inspect near-degenerate clusters"
        )

    chosen = np.array(chosen)[np.argsort(_zone(evals[chosen], w))]
    modes = blocks[chosen]
    edge_weight = float(np.max(np.sum(np.abs(modes[:, [0, -1]]) ** 2, axis=(1, 2))))
    edge_residual = float(np.max(_edge_residual(q, modes)))
    if edge_weight > EDGE_WEIGHT_BOUND or edge_residual > EDGE_RESIDUAL_BOUND * w:
        raise FloquetConvergenceError(k, edge_weight, edge_residual)
    return FloquetSolution(evals[chosen], modes, k, w, edge_weight, edge_residual)


@dataclass(frozen=True)
class JumpDecomposition:
    """Floquet decomposition of a static coupling operator.

    Entry i couples |r'(t)> to |r(t)| with harmonic index n, scalar amplitude
    <<r| F_{-n} (x) S |r'>> and transition frequency
    delta = eps_r - eps_r' + n omega_L, all taken on the unfolded
    representatives (``FloquetSolution.energies`` and ``modes``); the
    transition frequencies do not depend on which copies those are.  For
    Hermitian S the entries close under (r, r', n) -> (r', r, -n) with
    conjugated amplitude.
    """

    r_idx: np.ndarray
    rp_idx: np.ndarray
    n_idx: np.ndarray
    amplitude: np.ndarray
    delta: np.ndarray

    def __len__(self) -> int:
        return int(self.r_idx.shape[0])


# jump entries at or below this amplitude are dropped
AMPLITUDE_FLOOR = 1e-12


def decompose_operator(s: np.ndarray, fs: FloquetSolution) -> JumpDecomposition:
    """Matrix elements <<r| F_{-n} (x) S |r'>> for every harmonic the ladder
    holds, |n| <= 2 k_ext.

    The harmonic sum runs over the whole ladder: the certificate of
    ``solve_floquet`` bounds what the kept representatives leave in and
    beyond its edge blocks.  Entries with |amplitude| <= ``AMPLITUDE_FLOOR``
    are dropped; the floor acts symmetrically on conjugate partners,
    preserving Hermitian pairing.  Entries are ordered by (n, r, r').
    """
    d = fs.dim
    n_window = 2 * fs.k_ext

    # S applied once per (m) index
    u = fs.modes  # [r, m, :]
    su = np.einsum("ij,rmj->rmi", s, u)
    nm = u.shape[1]
    amp = np.empty((2 * n_window + 1, d, d), dtype=complex)
    for n in range(-n_window, n_window + 1):
        # amp[n, r, r'] = sum_m u_r^(m)* . (S u_r'^(m+n))
        if n >= 0:
            left = u[:, : nm - n, :]
            right = su[:, n:, :]
        else:
            left = u[:, -n:, :]
            right = su[:, : nm + n, :]
        amp[n + n_window] = np.einsum("rmi,smi->rs", left.conj(), right)
    n_pos, r_idx, rp_idx = np.nonzero(np.abs(amp) > AMPLITUDE_FLOOR)
    n_idx = n_pos - n_window
    eps = fs.energies
    return JumpDecomposition(
        r_idx=r_idx,
        rp_idx=rp_idx,
        n_idx=n_idx,
        amplitude=amp[n_pos, r_idx, rp_idx],
        delta=eps[r_idx] - eps[rp_idx] + n_idx * fs.omega_L,
    )
