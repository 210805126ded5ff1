"""Driven qubit + truncated collective mode: the mapped supersystem
Hamiltonian and bath coupling operators as harmonic (Fourier) components.

Tensor-order convention: qubit factor first, Fock factor second, so a full
operator is kron(qubit_op, fock_op) and the Hilbert-space dimension is
2 * n_fock.  A periodic operator O(t) = sum_k exp(i k omega_L t) O_k is
stored as its harmonics stacked on axis 0, centred on k = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bath import SpectralDensity

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def destroy(n: int) -> np.ndarray:
    """Fock-space annihilation operator truncated to n levels."""
    return np.diag(np.sqrt(np.arange(1, n, dtype=float)), k=1).astype(complex)


def qubit_op(op: np.ndarray, n_fock: int) -> np.ndarray:
    return np.kron(op, np.eye(n_fock, dtype=complex))


def fock_op(op: np.ndarray) -> np.ndarray:
    return np.kron(np.eye(2, dtype=complex), op)


@dataclass(frozen=True)
class PeriodicOperator:
    """T-periodic matrix O(t) = sum_k exp(i k omega_L t) O_k, its harmonics
    stacked as ``harmonics[k + K]`` for k = -K..K."""

    harmonics: np.ndarray
    omega_L: float

    def __post_init__(self) -> None:
        shape = np.shape(self.harmonics)
        if len(shape) != 3 or shape[0] % 2 == 0 or shape[1] != shape[2]:
            raise ValueError(
                f"harmonics must be an odd number of square matrices centred on k = 0, "
                f"got shape {shape}"
            )

    @property
    def dim(self) -> int:
        return self.harmonics.shape[1]

    @property
    def max_harmonic(self) -> int:
        """K, the largest |k| stored."""
        return len(self.harmonics) // 2

    @property
    def average(self) -> np.ndarray:
        """Period average of O(t): the zero harmonic."""
        return self.harmonics[self.max_harmonic]

    def component(self, k: int) -> np.ndarray:
        """O_k, zero for |k| > K."""
        if abs(k) > self.max_harmonic:
            return np.zeros((self.dim, self.dim), dtype=complex)
        return self.harmonics[k + self.max_harmonic]

    def at_time(self, t) -> np.ndarray:
        """O(t), or the stack of O at each time of an array ``t``."""
        k = np.arange(-self.max_harmonic, self.max_harmonic + 1)
        return np.tensordot(np.exp(1j * self.omega_L * np.multiply.outer(t, k)), self.harmonics, 1)


SINUSOIDAL_COLD = "sinusoidal"
STATIC_COLD = "static"


@dataclass(frozen=True)
class SupersystemSpec:
    """Driven two-level system + collective mode and its reservoir couplings.

    ``residual_bath = None`` selects the single-reservoir limit (no residual
    damping of the collective mode), used for the laser-cooling setup.
    ``coupling_form`` chooses the sinusoidally modulated qubit-mode coupling
    or the static variant used for benchmarking.
    """

    omega0: float
    g: float
    omega_L: float
    omega_cc: float
    n_fock: int
    lambda0: float
    beta_h: float
    beta_c: float
    hot_bath: SpectralDensity
    residual_bath: SpectralDensity | None
    coupling_form: str = SINUSOIDAL_COLD

    def __post_init__(self) -> None:
        if self.n_fock < 2:
            raise ValueError(f"n_fock must be >= 2, got {self.n_fock}")
        for name in ("omega0", "omega_L", "omega_cc"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and > 0, got {v}")
        for name in ("g", "lambda0"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        for name in ("beta_h", "beta_c"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and > 0, got {v}")
        if self.coupling_form not in (SINUSOIDAL_COLD, STATIC_COLD):
            raise ValueError(f"unknown coupling_form {self.coupling_form!r}")
        if self.residual_bath is not None and not self.beta_h < self.beta_c:
            raise ValueError(
                f"hot bath must be hotter (beta_h < beta_c); got beta_h={self.beta_h}, "
                f"beta_c={self.beta_c}"
            )

    @property
    def dim(self) -> int:
        return 2 * self.n_fock

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega_L


def build_supersystem_fourier(spec: SupersystemSpec) -> PeriodicOperator:
    """Harmonic components of the mapped supersystem Hamiltonian.

    k = 0 carries (omega0/2) sigma_z + omega_cc a^dag a, the drive
    g cos(omega_L t) sigma_x contributes g/2 at k = +-1, and the qubit-mode
    coupling -lambda0/sqrt(2 omega_cc) * S_c(t) * (a + a^dag) lands on
    k = +-1 for the sinusoidal coupling (S_c = sigma_x sin(omega_L t) /
    sqrt(2 omega0)) or on k = 0 for the static variant.
    """
    nf = spec.n_fock
    a = destroy(nf)
    num = a.conj().T @ a
    x = a + a.conj().T

    h0 = spec.omega0 / 2.0 * qubit_op(SIGMA_Z, nf) + spec.omega_cc * fock_op(num)
    sx_x = qubit_op(SIGMA_X, nf) @ fock_op(x)
    # coupling coefficient of sigma_x (a + a^dag) after the 1/sqrt(2 omega0)
    # of S_c and the 1/sqrt(2 omega_cc) of the mode displacement
    c = spec.lambda0 / (2.0 * math.sqrt(spec.omega0 * spec.omega_cc))

    h0 = h0 - c * sx_x if spec.coupling_form == STATIC_COLD else h0
    drive = spec.g / 2.0 * qubit_op(SIGMA_X, nf)
    plus = drive.copy()
    minus = drive.copy()
    if spec.coupling_form == SINUSOIDAL_COLD:
        # -c * sin(w t) = -c (e^{iwt} - e^{-iwt}) / (2i) = (ic/2) e^{iwt} - (ic/2) e^{-iwt}
        plus = plus + 0.5j * c * sx_x
        minus = minus - 0.5j * c * sx_x
    harmonics = np.stack([minus, h0, plus]) if np.any(plus) else h0[None]
    return PeriodicOperator(harmonics=harmonics, omega_L=spec.omega_L)


# entries an operator may hold off the sectors of the parity Q, relative to
# its largest: the Sambe matrix (``floquet.solve_floquet``) and each part of
# the generator (``generator.build_liouvillian``)
PARITY_TOL = 1e-12


def parity(spec: SupersystemSpec) -> np.ndarray:
    """The +-1 diagonal of the half-period parity Q, sigma_z (x) 1 for the
    sinusoidal coupling (laser cooling included) and sigma_z (x)
    (-1)^{a^dag a} for the static one.  Every Hamiltonian harmonic obeys
    Q H_k Q = (-1)^k H_k and each coupling operator Q S Q = +-S, so the
    steady state obeys rho(t + T/2) = Q rho(t) Q."""
    fock = np.ones(spec.n_fock)
    if spec.coupling_form == STATIC_COLD:
        fock = (-1.0) ** np.arange(spec.n_fock)
    return np.kron([1.0, -1.0], fock)


@dataclass(frozen=True)
class CouplingOperators:
    """Static system operators appearing in the bath interactions."""

    s_hot: np.ndarray
    s_cold_residual: np.ndarray | None


def build_coupling_operators(spec: SupersystemSpec) -> CouplingOperators:
    """S_hot = sigma_x/sqrt(2 omega0) on the qubit; the residual bath couples
    to the mode displacement (a + a^dag)/sqrt(2 omega_cc)."""
    nf = spec.n_fock
    s_hot = qubit_op(SIGMA_X, nf) / math.sqrt(2.0 * spec.omega0)
    if spec.residual_bath is None:
        s_cold = None
    else:
        a = destroy(nf)
        s_cold = fock_op(a + a.conj().T) / math.sqrt(2.0 * spec.omega_cc)
    return CouplingOperators(s_hot=s_hot, s_cold_residual=s_cold)


def cc_hamiltonian(spec: SupersystemSpec) -> np.ndarray:
    """omega_cc a^dag a on the full space (for mode-energy bookkeeping)."""
    return spec.omega_cc * number_operator(spec.n_fock)


def number_operator(n_fock: int) -> np.ndarray:
    a = destroy(n_fock)
    return fock_op(a.conj().T @ a)


@dataclass(frozen=True)
class TruncationReport:
    top_population: float
    passed: bool


# default of the solver.trunc_threshold config key
TRUNC_THRESHOLD = 1e-6


def fock_truncation_check(
    rho0: np.ndarray, n_fock: int, threshold: float = TRUNC_THRESHOLD
) -> TruncationReport:
    """Period-averaged population in the top two Fock levels of the mode.

    ``rho0`` is the zero harmonic of the periodic steady state (its period
    average).  Flags FAIL when the top two levels hold more than ``threshold``
    of the population, signalling that n_fock must be raised.
    """
    dim = 2 * n_fock
    if rho0.shape != (dim, dim):
        raise ValueError(f"expected rho of shape {(dim, dim)}, got {rho0.shape}")
    pops = np.einsum("snsn->n", rho0.reshape(2, n_fock, 2, n_fock)).real
    top = float(pops[-1] + pops[-2])
    return TruncationReport(top_population=top, passed=top <= threshold)
