"""Reference engines the tests check the program against: adaptive
time-domain propagation, and the time-domain and block views of the
program's Floquet and generator objects.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from floqcc.floquet import ExtendedOperator, FloquetSolution
from floqcc.generator import CountingLiouvillian
from floqcc.model import PeriodicOperator


class PropagationError(RuntimeError):
    """Adaptive integration failed or violated its conservation check."""


def propagate(
    rhs_matrix: Callable[[float], np.ndarray] | PeriodicOperator,
    state0: np.ndarray,
    t_span: tuple[float, float],
    kind: str = "schrodinger",
    rtol: float = 1e-10,
    atol: float = 1e-12,
    t_eval: np.ndarray | None = None,
    conservation_tol: float | None = 1e-10,
):
    """Adaptive high-order integration of a (super)operator-valued ODE.

    kind = "schrodinger": d psi/dt = -i H(t) psi for a state vector, or the
    same equation column-wise when ``state0`` is a matrix (propagator).
    kind = "liouville": d vec(rho)/dt = L(t) vec(rho), vec(rho) = rho.reshape(-1)
    (the vectorisation of ``liouvillian_at_time``).

    ``rhs_matrix`` maps t to the matrix (H(t) or L(t)); a PeriodicOperator is
    accepted directly.  Trace/norm conservation over the integration is
    checked when ``conservation_tol`` is set (norm for pure states, trace for
    vectorized density matrices).
    """
    matrix_of_t = rhs_matrix.at_time if isinstance(rhs_matrix, PeriodicOperator) else rhs_matrix

    if kind == "schrodinger":
        factor = -1j
    elif kind == "liouville":
        factor = 1.0
    else:
        raise ValueError(f"unknown kind {kind!r}")

    shape = state0.shape
    y0 = np.asarray(state0, dtype=complex).reshape(-1)
    n = shape[0]

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        m = matrix_of_t(t)
        if len(shape) == 1:
            return factor * (m @ y)
        return (factor * (m @ y.reshape(shape))).reshape(-1)

    sol = solve_ivp(
        rhs,
        t_span,
        y0,
        method="DOP853",
        rtol=rtol,
        atol=atol,
        t_eval=t_eval,
        dense_output=False,
    )
    if not sol.success:
        raise PropagationError(f"integration failed: {sol.message}")
    states = [sol.y[:, i].reshape(shape) for i in range(sol.y.shape[1])]

    if conservation_tol is not None:
        if kind == "schrodinger" and len(shape) == 1:
            drift = max(abs(np.linalg.norm(s) - np.linalg.norm(y0.reshape(shape))) for s in states)
        elif kind == "liouville" and len(shape) == 1:
            d = int(round(math.sqrt(n)))
            tr0 = np.trace(y0.reshape(d, d))
            drift = max(abs(np.trace(s.reshape(d, d)) - tr0) for s in states)
        else:
            drift = 0.0
        if drift > conservation_tol:
            raise PropagationError(
                f"conservation drift {drift:.3e} above {conservation_tol:.1e}"
            )
    return sol.t, states


def one_period_propagator(
    h: PeriodicOperator, rtol: float = 1e-12, atol: float = 1e-14
) -> np.ndarray:
    """U(T) for a periodic Hamiltonian by direct integration."""
    d = h.dim
    t_final = 2.0 * math.pi / h.omega_L
    _, states = propagate(
        h,
        np.eye(d, dtype=complex),
        (0.0, t_final),
        kind="schrodinger",
        rtol=rtol,
        atol=atol,
        t_eval=np.array([t_final]),
        conservation_tol=None,
    )
    return states[-1]


def zone_modes(fs: FloquetSolution, t: float) -> np.ndarray:
    """Columns are the zone modes |r(t)> for r = 0..d-1: each copy's
    mode times e^{-i s_r w t}, s_r the ladder steps its energy is
    folded by."""
    w = fs.omega_L
    ms = np.arange(-fs.k_ext, fs.k_ext + 1)
    shifts = np.rint((fs.energies - fs.quasienergies) / w)
    modes = np.tensordot(np.exp(1j * ms * w * t), fs.modes, axes=1)
    return modes * np.exp(-1j * shifts * w * t)


def sambe_block(q: ExtendedOperator, m_row: int, m_col: int) -> np.ndarray:
    """Block (m_row, m_col) of the extended-space operator."""
    d = q.dim_phys
    i = (m_row + q.k_ext) * d
    j = (m_col + q.k_ext) * d
    return q.matrix[i : i + d, j : j + d]


def liouvillian_at_time(liouv: CountingLiouvillian, t: float) -> np.ndarray:
    """Dense superoperator L(t) = sum_q exp(i q w t) L_q, in Fortran order."""
    qs = range(-liouv.support, liouv.support + 1)
    return sum(np.exp(1j * q * liouv.omega_L * t) * liouv.component(q) for q in qs)
