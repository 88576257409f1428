"""Wave-layer propagation: Crank-Nicolson stepping and the
diagonalization reference, plus initial states and moments.

Everything works on the three diagonals of the operators from
``hamiltonian``; no n x n matrix is formed.  Crank-Nicolson applies
1 - i dt H / 2hbar as a 3-point stencil and solves with a tridiagonal LU
(LAPACK zgttrf once per call, zgttrs per step).  The eigen oracle,
spectral filter and ground state read the operator's cached
eigendecomposition, one real symmetric tridiagonal solve (LAPACK stemr)
per operator.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, NumericalError, ShapeError
from .hamiltonian import QuantumOperator, tridiagonal_apply
from .lattice import GridSpec, integrate

SPECTRAL_MAX_N = 1024


@dataclass(frozen=True)
class WaveState:
    psi: np.ndarray
    hbar_eff: float
    t: float
    grid: GridSpec


def wave_phase(state: WaveState) -> np.ndarray:
    """Phase-action hbar_eff * arg(psi), unwrapped left to right."""
    return state.hbar_eff * np.unwrap(np.angle(state.psi))


def _check_state(state: WaveState) -> None:
    if state.psi.shape != (state.grid.n,):
        raise ShapeError(f"psi has shape {state.psi.shape}, expected ({state.grid.n},)")
    if not np.all(np.isfinite(state.psi.view(float))):
        raise ShapeError("psi contains non-finite entries")
    if state.hbar_eff <= 0:
        raise ConfigurationError(f"hbar_eff must be positive, got {state.hbar_eff}")


def norm_squared(state: WaveState) -> float:
    return integrate(np.abs(state.psi) ** 2, state.grid)


def normalized(state: WaveState) -> WaveState:
    return replace(state, psi=state.psi / np.sqrt(norm_squared(state)))


def gaussian_packet(grid: GridSpec, center: float = 0.0, sigma: float = 1.0,
                    momentum: float = 0.0, hbar_eff: float = 1.0) -> WaveState:
    """Normalized packet with |psi|^2 variance sigma^2 and mean momentum."""
    if sigma <= 0:
        raise ConfigurationError(f"packet width must be positive, got {sigma}")
    q = grid.points()
    psi = np.exp(-((q - center) ** 2) / (4.0 * sigma * sigma)
                 + 1j * momentum * q / hbar_eff)
    return normalized(WaveState(psi=psi, hbar_eff=hbar_eff, t=0.0, grid=grid))


def coherent_state(grid: GridSpec, m: float = 1.0, omega: float = 1.0,
                   center: float = 0.0, momentum: float = 0.0,
                   hbar_eff: float = 1.0) -> WaveState:
    """Displaced oscillator ground state; width sqrt(hbar/2 m omega)."""
    return gaussian_packet(grid, center=center,
                           sigma=np.sqrt(hbar_eff / (2.0 * m * omega)),
                           momentum=momentum, hbar_eff=hbar_eff)


def _check_operator(state: WaveState, H: QuantumOperator) -> None:
    if H.diag.shape != (state.grid.n,):
        raise ShapeError("operator size does not match the state grid")


def propagate_crank_nicolson(state: WaveState, H: QuantumOperator,
                             dt: float, steps: int) -> WaveState:
    """Unitary Cayley stepping (1 + i dt H / 2hbar)^-1 (1 - i dt H / 2hbar)."""
    _check_state(state)
    if not 0.0 < dt < np.inf:
        raise ConfigurationError(f"dt must be positive and finite, got {dt}")
    if steps < 0:
        raise ConfigurationError(f"steps must be >= 0, got {steps}")
    _check_operator(state, H)
    if steps == 0:
        return state
    # imported here, not at module level: scipy takes over half of the
    # package's import time and most scenarios never step a wave
    import scipy.linalg

    c = 0.5j * dt / state.hbar_eff
    X = (c * H.lower, c * H.diag, c * H.upper)
    # 1 + X is factored once; 1 - X is applied as a stencil at each step
    dl, d, du, du2, ipiv, info = scipy.linalg.lapack.zgttrf(X[0], 1.0 + X[1], X[2])
    if info != 0:  # pragma: no cover - pathological dt
        raise NumericalError(f"Crank-Nicolson system is singular (zgttrf info {info})")
    B = (-X[0], 1.0 - X[1], -X[2])
    psi = state.psi.astype(complex)
    for _ in range(steps):
        psi = scipy.linalg.lapack.zgttrs(dl, d, du, du2, ipiv,
                                         tridiagonal_apply(*B, psi),
                                         overwrite_b=True)[0]
    if not np.all(np.isfinite(psi.view(float))):
        raise NumericalError("Crank-Nicolson produced non-finite amplitudes")
    return WaveState(psi=psi, hbar_eff=state.hbar_eff,
                     t=state.t + dt * steps, grid=state.grid)


def _check_spectral(state: WaveState, H: QuantumOperator, what: str) -> None:
    _check_state(state)
    if state.grid.n > SPECTRAL_MAX_N:
        raise ConfigurationError(f"{what} is limited to n <= {SPECTRAL_MAX_N}")
    _check_operator(state, H)


def _real_matvec(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M @ x for a real matrix and a complex vector, as one real product
    with the (re, im) pairs as two columns, so M is never cast to complex."""
    x = np.ascontiguousarray(x, dtype=complex)
    return (M @ x.view(float).reshape(-1, 2)).view(complex).ravel()


def propagate_eigen_oracle(state: WaveState, H: QuantumOperator, t: float) -> WaveState:
    """Reference propagator exp(-i H t / hbar) from the operator's cached
    eigendecomposition."""
    _check_spectral(state, H, "eigen-oracle propagation")
    if not np.isfinite(t):
        raise ConfigurationError(f"t must be finite, got {t}")
    w, V = H.eigensystem
    coeff = _real_matvec(V.T, state.psi)
    psi = _real_matvec(V, np.exp(-1j * w * t / state.hbar_eff) * coeff)
    return WaveState(psi=psi, hbar_eff=state.hbar_eff, t=state.t + t, grid=state.grid)


def spectral_filter(state: WaveState, H: QuantumOperator,
                    e_cut: float) -> WaveState:
    """Keep only eigenmode content with energy <= e_cut; renormalize.

    Every retained mode satisfies the wall boundary on its own, so the
    filtered state's wall cells hold nothing but slowly rotating content.
    Polar-form integration needs initial data of exactly this kind: fast
    spectral components are invisible in the interior but dominate the
    deep wall tail, where their beating sweeps the density through zero.
    """
    _check_spectral(state, H, "spectral filtering")
    w, V = H.eigensystem
    keep = w <= e_cut
    if not bool(np.any(keep)):
        raise ConfigurationError(
            f"energy cutoff {e_cut} lies below the entire spectrum")
    sub = V[:, keep]
    psi = _real_matvec(sub, _real_matvec(sub.T, state.psi))
    return normalized(replace(state, psi=psi))


def ground_state(H: QuantumOperator) -> tuple[float, WaveState]:
    """Lowest eigenpair, unit trapezoid norm, real-positive at mid-grid."""
    w, V = H.eigensystem
    # complex, as every wave state is: np.angle reads the sign of a zero
    # imaginary part, +pi or -pi at a negative real entry
    psi = V[:, 0].astype(complex)
    mid = H.grid.n // 2
    anchor = psi[mid]
    if abs(anchor) < 1e-300:
        anchor = psi[np.argmax(np.abs(psi))]
    psi = psi * (np.conj(anchor) / abs(anchor))
    state = normalized(WaveState(psi=psi, hbar_eff=H.hbar_eff, t=0.0, grid=H.grid))
    return float(w[0]), state


def eigenpairs(H: QuantumOperator, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest eigenvalues and their real eigenvectors."""
    w, V = H.eigensystem
    return w[:k], V[:, :k]


def energy_expectation(state: WaveState, H: QuantumOperator) -> float:
    from .lattice import quadrature_weights
    w = quadrature_weights(state.grid)
    num = np.real(np.sum(np.conj(state.psi) * w * H.apply(state.psi)))
    den = np.sum(w * np.abs(state.psi) ** 2)
    return float(num / den)


def l2_distance(a: np.ndarray, b: np.ndarray, grid: GridSpec) -> float:
    """sqrt integral |a - b|^2 dq."""
    return float(np.sqrt(integrate(np.abs(np.asarray(a) - np.asarray(b)) ** 2, grid)))
