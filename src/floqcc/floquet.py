"""Extended-space (Sambe) quasienergy problem and Floquet-mode machinery.

A T-periodic Hamiltonian H(t) = sum_k exp(i k w t) H_k is lifted to the
time-independent block matrix Q = sum_k F_k (x) H_k + w F_z (x) 1, where the
harmonic ladder is truncated to m in [-K, K].  Eigenvalues folded into one
Brillouin zone (-w/2, w/2] give the quasienergies; the eigenvector blocks are
the harmonic components u_r^(m) of the Floquet modes
|r(t)> = sum_m exp(i m w t) u_r^(m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import PeriodicOperator


class DegeneracyError(RuntimeError):
    """Representative selection failed to identify d distinct Floquet states."""


class FloquetConvergenceError(RuntimeError):
    """Truncated harmonic ladder too small for a converged Floquet solution."""


@dataclass(frozen=True)
class ExtendedOperator:
    """Block-Toeplitz lift sum_k F_k (x) O_k + w F_z (x) 1."""

    matrix: np.ndarray = field(repr=False)
    k_ext: int
    dim_phys: int
    omega_L: float

    @property
    def n_blocks(self) -> int:
        return 2 * self.k_ext + 1

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
    harmonic support of ``h``.
    """
    if k_ext < h.max_harmonic:
        raise ValueError(
            f"k_ext={k_ext} smaller than the operator's harmonic support "
            f"{h.max_harmonic}"
        )
    d = h.dim
    nb = 2 * k_ext + 1
    big = np.zeros((nb * d, nb * d), dtype=complex)
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


@dataclass(frozen=True)
class FloquetSolution:
    """Quasienergies in one Brillouin zone plus Floquet-mode harmonics.

    ``modes[r, m + k_ext, :]`` is the harmonic component u_r^(m); each mode is
    normalized in the extended inner product, sum_m ||u^(m)||^2 = 1.
    """

    quasienergies: np.ndarray
    modes: np.ndarray = field(repr=False)
    k_ext: int
    omega_L: float

    @property
    def dim(self) -> int:
        return int(self.quasienergies.shape[0])

    def mode_at_time(self, r: int, t: float) -> np.ndarray:
        ms = np.arange(-self.k_ext, self.k_ext + 1)
        phases = np.exp(1j * ms * self.omega_L * t)
        return np.tensordot(phases, self.modes[r], axes=(0, 0))

    def state_matrix_at_time(self, t: float) -> np.ndarray:
        """Columns are |r(t)> for r = 0..d-1."""
        ms = np.arange(-self.k_ext, self.k_ext + 1)
        phases = np.exp(1j * ms * self.omega_L * t)
        return np.tensordot(phases, self.modes, axes=(0, 1)).T

    def completeness_defect_t0(self) -> float:
        v = self.state_matrix_at_time(0.0)
        return float(np.max(np.abs(v @ v.conj().T - np.eye(self.dim))))

    def orthonormality_defect(self) -> float:
        flat = self.modes.reshape(self.dim, -1)
        return float(np.max(np.abs(flat @ flat.conj().T - np.eye(self.dim))))


def solve_floquet(q: ExtendedOperator) -> FloquetSolution:
    """Diagonalize the extended operator and select physical representatives.

    Copies of the same physical Floquet state differ by a ladder shift
    (eps + s w pairs with harmonics displaced by s blocks), so the best
    conditioned copy per family is picked greedily by descending
    central-block weight (sum of ||u^(m)||^2 over |m| <= max(1, k_ext // 2));
    candidates whose t = 0 physical vector has squared overlap above 0.5
    with an already accepted state are shifted duplicates and are discarded
    (t = 0 vectors of distinct Floquet states are orthogonal).  Each
    accepted copy is then folded into the Brillouin zone (-w/2, w/2] with
    its harmonic blocks displaced consistently, eps -> eps - s w together
    with u^(m) -> u^(m + s).  Eigenvalues landing within 1e-10 w of the
    lower zone edge are snapped to the included upper edge.  A fold that
    would push significant weight off the truncated ladder (shifted norm
    below 1 - 1e-8) aborts with a convergence error.
    """
    herm = float(np.max(np.abs(q.matrix - q.matrix.conj().T)))
    if herm > 1e-10:
        raise ValueError(f"extended operator is not Hermitian (defect {herm:.2e})")
    d = q.dim_phys
    k = q.k_ext
    w = q.omega_L

    evals, evecs = np.linalg.eigh(q.matrix)
    blocks = evecs.T.reshape(-1, 2 * k + 1, d)  # [state, m, component]
    weights = np.sum(np.abs(blocks) ** 2, axis=2)  # [state, m]
    ms = np.arange(-k, k + 1)
    central = weights[:, np.abs(ms) <= max(1, k // 2)].sum(axis=1)
    t0 = blocks.sum(axis=1)  # physical vector at t = 0 (unnormalized)

    order = np.argsort(-central)
    chosen: list[int] = []
    basis: list[np.ndarray] = []
    for idx in order:
        v = t0[idx]
        nv = np.linalg.norm(v)
        if nv < 1e-8:
            continue
        v = v / nv
        if basis and np.max(np.abs(np.array(basis) @ v.conj())) ** 2 > 0.5:
            continue
        chosen.append(idx)
        basis.append(v)
        if len(chosen) == d:
            break
    if len(chosen) != d:
        raise DegeneracyError(
            f"selected {len(chosen)} of {d} Floquet representatives; "
            "increase k_ext or inspect near-degenerate clusters"
        )

    eps_out = np.empty(d)
    modes_out = np.zeros((d, 2 * k + 1, d), dtype=complex)
    for i, idx in enumerate(chosen):
        eps_raw = evals[idx]
        eps_f = float(fold_to_zone(eps_raw, w))
        if eps_f < -0.5 * w + 1e-10 * w:
            eps_f += w
        s = int(round((eps_raw - eps_f) / w))
        # copy with eps - s w carries mode e^{-i s w t} |r(t)>: u^(m) <- u^(m+s)
        src_lo = max(0, s)
        src_hi = min(2 * k + 1, 2 * k + 1 + s)
        dst_lo = src_lo - s
        dst_hi = src_hi - s
        modes_out[i, dst_lo:dst_hi] = blocks[idx, src_lo:src_hi]
        kept = float(np.sum(np.abs(modes_out[i]) ** 2))
        if kept < 1.0 - 1e-8:
            raise FloquetConvergenceError(
                f"folding a representative by {s} ladder steps keeps only "
                f"{kept:.12f} of its weight; increase k_ext"
            )
        eps_out[i] = eps_f

    sort = np.argsort(eps_out)
    return FloquetSolution(
        quasienergies=eps_out[sort],
        modes=modes_out[sort],
        k_ext=k,
        omega_L=w,
    )


@dataclass(frozen=True)
class JumpDecomposition:
    """Floquet decomposition of a static coupling operator.

    Entry i couples |r'(t)> to |r(t)| with harmonic index n, scalar amplitude
    <<r| F_{-n} (x) S |r'>> and transition frequency
    delta = eps_r - eps_r' + n omega_L.  For Hermitian S the entries close
    under (r, r', n) -> (r', r, -n) with conjugated amplitude.
    """

    r_idx: np.ndarray
    rp_idx: np.ndarray
    n_idx: np.ndarray
    amplitude: np.ndarray
    delta: np.ndarray

    def __len__(self) -> int:
        return int(self.r_idx.shape[0])


def decompose_operator(
    s: np.ndarray,
    fs: FloquetSolution,
    n_window: int | None = None,
    amplitude_floor: float = 1e-12,
) -> JumpDecomposition:
    """Matrix elements <<r| F_{-n} (x) S |r'>> for |n| <= n_window.

    The harmonic sum runs over interior ladder blocks only: the outermost
    ceil(k_ext/4) blocks are corrupted by ladder truncation and are
    discarded.  Entries with |amplitude| <= ``amplitude_floor`` are dropped;
    the floor acts symmetrically on conjugate partners, preserving Hermitian
    pairing.  Entries are ordered by (n, r, r').
    """
    d = fs.dim
    k = fs.k_ext
    k_int = k - math.ceil(k / 4)
    if n_window is None:
        n_window = min(2 * k_int, k)
    if n_window > 2 * k_int:
        raise ValueError(f"n_window={n_window} exceeds usable range {2 * k_int}")

    # interior blocks, S applied once per (m) index
    u = fs.modes[:, k - k_int : k + k_int + 1, :]  # [r, m, :]
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
    n_pos, r_idx, rp_idx = np.nonzero(np.abs(amp) > amplitude_floor)
    n_idx = n_pos - n_window
    eps = fs.quasienergies
    return JumpDecomposition(
        r_idx=r_idx,
        rp_idx=rp_idx,
        n_idx=n_idx,
        amplitude=amp[n_pos, r_idx, rp_idx],
        delta=eps[r_idx] - eps[rp_idx] + n_idx * fs.omega_L,
    )
