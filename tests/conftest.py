import numpy as np
import pytest

from floqcc import generator
from floqcc.bath import Ohmic, StructuredPeak, map_collective_coordinate
from floqcc.floquet import build_quasienergy_operator, decompose_operator, solve_floquet
from floqcc.generator import BathChannel, SteadyStateError, build_liouvillian, steady_state
from floqcc.model import (
    PeriodicOperator,
    SupersystemSpec,
    build_coupling_operators,
    build_supersystem_fourier,
)

# Fig. 2 caption parameters (units of omega0)
FIG2 = dict(
    omega0=1.0, g=1e-3, gamma=4e-4, d_c=1e-3, d_h=5e-3, beta_c=25.0, beta_h=2.22
)


def fig2_spec(omega_L: float, n_fock: int = 8, g: float | None = None,
              coupling_form: str = "sinusoidal") -> SupersystemSpec:
    """Resonance-locked supersystem at the Fig. 2 parameter set."""
    cc = map_collective_coordinate(
        StructuredPeak(d_c=FIG2["d_c"], gamma=FIG2["gamma"], omega_res=FIG2["omega0"] - omega_L)
    )
    return SupersystemSpec(
        omega0=FIG2["omega0"],
        g=FIG2["g"] if g is None else g,
        omega_L=omega_L,
        omega_cc=cc.omega_cc,
        n_fock=n_fock,
        lambda0=cc.lambda0,
        beta_h=FIG2["beta_h"],
        beta_c=FIG2["beta_c"],
        hot_bath=Ohmic(d_h=FIG2["d_h"], omega_ref=FIG2["omega0"]),
        residual_bath=cc.residual,
        coupling_form=coupling_form,
    )


# criterion-8 laser-cooling parameters (units of omega0): one reservoir, the
# mode coupled to the qubit with lambda0 and to nothing else
LASERCOOL = dict(g=2e-4, lambda0=1.13e-4, d_h=5e-3, omega_cc=5e-3, beta=1e4)


def lasercool_spec(delta: float, n_fock: int = 6) -> SupersystemSpec:
    """Single-reservoir supersystem at drive detuning ``delta`` = omega_L -
    omega0, at the laser-cooling parameter set."""
    return SupersystemSpec(
        omega0=1.0,
        g=LASERCOOL["g"],
        omega_L=1.0 + delta,
        omega_cc=LASERCOOL["omega_cc"],
        n_fock=n_fock,
        lambda0=LASERCOOL["lambda0"],
        beta_h=LASERCOOL["beta"],
        beta_c=LASERCOOL["beta"],
        hot_bath=Ohmic(d_h=LASERCOOL["d_h"], omega_ref=1.0),
        residual_bath=None,
    )


def build_pipeline_liouvillian(spec: SupersystemSpec, k_ext: int):
    """bath -> model -> floquet -> generator chain for tests."""
    h = build_supersystem_fourier(spec)
    fs = solve_floquet(build_quasienergy_operator(h, spec.omega_L, k_ext))
    ops = build_coupling_operators(spec)
    channels = [BathChannel("hot", ops.s_hot, spec.hot_bath, beta=spec.beta_h)]
    jumps = [decompose_operator(ops.s_hot, fs)]
    if spec.residual_bath is not None:
        channels.append(
            BathChannel("cold", ops.s_cold_residual, spec.residual_bath, beta=spec.beta_c)
        )
        jumps.append(decompose_operator(ops.s_cold_residual, fs))
    return h, fs, build_liouvillian(h, fs, channels, jumps)


def block_system_dense(liouv, k_rho: int) -> np.ndarray:
    """The harmonic block system i n w rho_n = sum_k L_k rho_{n-k} as one
    dense complex matrix on the stacked harmonics |n| <= k_rho: the
    independent oracle of the real Hermitian system the solver builds."""
    d2 = liouv.dim**2
    size = (2 * k_rho + 1) * d2
    big = np.zeros((size, size), dtype=complex)
    big.flat[:: size + 1] = -1j * liouv.omega_L * np.repeat(np.arange(-k_rho, k_rho + 1), d2)
    for q in liouv.no_jump:
        if abs(q) > 2 * k_rho:
            continue
        lq = liouv.component(q)
        # block row n = m + q, column m
        for m in range(max(-k_rho, -k_rho - q), min(k_rho, k_rho - q) + 1):
            i, j = (m + q + k_rho) * d2, (m + k_rho) * d2
            big[i : i + d2, j : j + d2] += lq
    return big


def null_space_state(liouv, k_rho: int) -> PeriodicOperator:
    """The steady state as the SVD null vector of ``block_system_dense``,
    trace-normalised: the independent oracle of the bordered routes."""
    d = liouv.dim
    vec = np.linalg.svd(block_system_dense(liouv, k_rho))[2][-1].conj()
    # column-stacking: vec index j*d + i of each block holds element (i, j)
    blocks = vec.reshape(2 * k_rho + 1, d, d).transpose(0, 2, 1)
    blocks = blocks / np.trace(blocks[k_rho])
    return PeriodicOperator(
        harmonics={n - k_rho: m for n, m in enumerate(blocks)}, omega_L=liouv.omega_L
    )


def solve_pipeline(spec: SupersystemSpec, k_ext: int, k_rho=None, method="auto"):
    """The chain of ``build_pipeline_liouvillian`` and its steady state."""
    h, fs, liouv = build_pipeline_liouvillian(spec, k_ext)
    rho, info = steady_state(liouv, k_rho=k_rho, method=method)
    return h, fs, liouv, rho, info


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def stalled_gmres(monkeypatch):
    """Every iterated bordered solve without an exact central solve
    (k_in < 0) stalls with "stalled on purpose", so a two-reservoir
    ``gmres`` call fails with that cause; the direct ``lu`` solve, which
    runs through the same function, still works."""
    real = generator._solve_bordered

    def solve(liouv, k_rho, k_in):
        if k_in < 0:
            raise SteadyStateError("stalled on purpose")
        return real(liouv, k_rho, k_in)

    monkeypatch.setattr(generator, "_solve_bordered", solve)
