"""Wave-layer propagation: Crank-Nicolson stepping and the
diagonalization reference, plus initial states and moments.

Everything works on the three diagonals of the operators from
``hamiltonian``; no n x n matrix is formed.  Crank-Nicolson applies
1 - i dt H / 2hbar as a 3-point stencil and solves with a tridiagonal LU
(LAPACK zgttrf once per call, zgttrs per step).  Every spectrum here is a
real symmetric tridiagonal solve (LAPACK dstemr) of the k lowest levels,
by index.  The ground state solves one; the spectral filter and the eigen
oracle size k alike (``_lowest_modes``): 16 first, doubled until the
spectrum reaches what the reader needs, and at k = n the whole spectrum.
No solve is cached: each serves one state.
These routines are called in scipy's own LAPACK through ``kernels``,
which does not import scipy, so a run that reaches this layer loads no
scipy module.  The oracle takes a run's record times
in one call: it projects the initial state onto the eigenvectors once,
then forms each time's state with its own product.

The oracle holds a state only in the modes it solved, and it measures
what they leave out on the residual psi - V V^T psi itself: it stops
doubling once that residual is at most ORACLE_LEAK_MAX of the state's
weight.  The filter stops once the top solved level lies above its
cutoff, so every level at or below the cutoff is among those solved.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, NumericalError, ShapeError
from .hamiltonian import QuantumOperator, tridiagonal_apply
from .kernels import tridiagonal_eigh, tridiagonal_lu, tridiagonal_lu_solver
from .lattice import GridSpec, integrate

SPECTRAL_MAX_N = 1024
# the largest fraction of a state's weight, |psi - V V^T psi|^2 / |psi|^2,
# that the eigen oracle's modes V may leave out.  Read on the residual, it
# resolves what weight - |V^T psi|^2, a difference of two numbers near 1,
# cannot: that read 2.1e-16 to 8.3e-16 on the registry's four low-passed
# states, whose residuals outside their 16 lowest modes are 2.4e-31 to
# 4.3e-30.  The same packets unfiltered leave 3e-6 (free_gaussian) to 3e-4
# (bohmian); propagator_quality's packet leaves 5e-28 outside the 16
# lowest modes of its operator at n = 1024.  At 1e-24 the doubling stops
# early enough to move the oracle's t = 0 state by 2.2e-12 (a coherent
# state at q = 1, at n = 256 on [-8, 8]), where 1e-26 leaves 3e-15
ORACLE_LEAK_MAX = 1e-26
# the mode count of the filter's and the oracle's first index solve: 16
# modes hold each registry state, and reach above each registry cutoff
_FIRST_MODES = 16


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
    """Refuse an operator built for another state: its energies would be
    taken on another grid or with another hbar than the state's phase."""
    if H.diag.shape != (state.grid.n,):
        raise ShapeError("operator size does not match the state grid")
    if H.grid != state.grid:
        raise ConfigurationError(
            f"the operator's grid {H.grid} is not the state's {state.grid}")
    if H.hbar_eff != state.hbar_eff:
        raise ConfigurationError(
            f"the operator's hbar_eff {H.hbar_eff} is not the state's "
            f"{state.hbar_eff}")


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
    c = 0.5j * dt / state.hbar_eff
    X = (c * H.lower, c * H.diag, c * H.upper)
    # 1 + X is factored once; 1 - X is applied as a stencil at each step,
    # from one buffer into the other, where the solve overwrites it
    factors = tridiagonal_lu(X[0], 1.0 + X[1], X[2])
    B = (-X[0], 1.0 - X[1], -X[2])
    psi = state.psi.astype(complex)
    rhs = np.empty_like(psi)
    solve_psi, solve_rhs = (tridiagonal_lu_solver(factors, v)
                            for v in (psi, rhs))
    for _ in range(steps):
        tridiagonal_apply(*B, psi, out=rhs)
        solve_rhs()
        psi, rhs, solve_psi, solve_rhs = rhs, psi, solve_rhs, solve_psi
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


def _unheld(psi: np.ndarray, V: np.ndarray, coeff: np.ndarray) -> float:
    """|psi - V coeff|^2, with coeff = V^T psi: the weight of psi that the
    columns of V leave out, taken on the residual itself."""
    rest = psi - _real_matvec(V, coeff)
    return float(np.vdot(rest, rest).real)


def _lowest_modes(H: QuantumOperator):
    """(w, V) of H's k lowest modes for k = 16, 32, ..., each solved anew
    by eigenpairs; the last is all n.  A reader stops at the first that
    holds what it needs."""
    n = H.grid.n
    k = min(_FIRST_MODES, n)
    while k < n:
        yield eigenpairs(H, k)
        k *= 2
    yield eigenpairs(H, n)


def _oracle_modes(state: WaveState, H: QuantumOperator
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(w, V, c = V^T psi) of the fewest of _lowest_modes whose residual
    |psi - V c|^2 is at most ORACLE_LEAK_MAX of psi's weight, or else of
    all n modes, which hold any state."""
    psi = state.psi
    weight = float(np.vdot(psi, psi).real)
    for w, V in _lowest_modes(H):
        coeff = _real_matvec(V.T, psi)
        if _unheld(psi, V, coeff) <= ORACLE_LEAK_MAX * weight:
            break
    return w, V, coeff


def propagate_eigen_oracle(state: WaveState, H: QuantumOperator,
                           t: float | Sequence[float]
                           ) -> WaveState | list[WaveState]:
    """Reference propagator exp(-i H t / hbar) from the modes that hold
    the state.

    `t` is one time, which gives one state, or a sequence of times, which
    gives a list of states, one per time.  Every time is checked finite
    before the operator is decomposed.  The operator is solved by index
    for its lowest k modes alone, k doubling from 16 until the residual
    |psi - V V^T psi|^2 is within ORACLE_LEAK_MAX of the state's weight, or
    k = n, where the whole spectrum is solved.  The projection
    c = V^T psi0 does not depend on t, so a series takes it once; each
    state is then its own two-column product V (exp(-i w t / hbar) * c), as
    in the one-time call, so a series gives each time the bits of one call
    per time.  The times are not folded into one wider product: BLAS blocks
    a wider matrix differently, which reorders the sums and moved the chain
    and propagator_quality check values at n = 512 and 640.
    """
    _check_spectral(state, H, "eigen-oracle propagation")
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ShapeError(
            f"t must be a time or a sequence of times, got shape {times.shape}")
    if not np.all(np.isfinite(times)):
        raise ConfigurationError(f"t must be finite, got {t}")
    w, V, coeff = _oracle_modes(state, H)
    phase = -1j * w
    states = [WaveState(
        psi=_real_matvec(V, np.exp(phase * tk / state.hbar_eff) * coeff),
        hbar_eff=state.hbar_eff, t=state.t + tk, grid=state.grid)
        for tk in times.ravel().tolist()]
    return states if times.ndim else states[0]


def spectral_filter(state: WaveState, H: QuantumOperator,
                    e_cut: float) -> WaveState:
    """Keep only eigenmode content with energy <= e_cut; renormalize.

    Every retained mode satisfies the wall boundary on its own, so the
    filtered state's wall cells hold nothing but slowly rotating content.
    Polar-form integration needs initial data of exactly this kind: fast
    spectral components are invisible in the interior but dominate the
    deep wall tail, where their beating sweeps the density through zero.
    The modes are solved by index, k doubling from 16 until the top solved
    level lies above e_cut, or k = n.
    """
    _check_spectral(state, H, "spectral filtering")
    for w, V in _lowest_modes(H):
        if w[-1] > e_cut:
            break
    keep = w <= e_cut
    if not bool(np.any(keep)):
        raise ConfigurationError(
            f"energy cutoff {e_cut} lies below the entire spectrum")
    sub = V[:, keep]
    psi = _real_matvec(sub, _real_matvec(sub.T, state.psi))
    return normalized(replace(state, psi=psi))


def ground_state(H: QuantumOperator) -> tuple[float, WaveState]:
    """Lowest eigenpair (eigenpairs(H, 1)), unit trapezoid norm,
    real-positive at mid-grid."""
    w, V = eigenpairs(H, 1)
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
    """The k lowest eigenvalues and their real orthonormal eigenvectors,
    one dstemr solve of modes 1..k by index from H's diagonals, or at
    k = n of the whole spectrum, whose eigenvalues dstemr finds by dqds
    rather than by bisection, about 3 times faster (5.3 against 16.7 ms at
    n = 256, 85 against 246 ms at n = 1024, one x86-64 thread); refused
    for k outside 1..n and for a non-symmetric H."""
    if not np.array_equal(H.lower, H.upper):
        raise ConfigurationError("eigenpairs need a symmetric operator")
    return tridiagonal_eigh(H.diag, H.upper, k=k if k != H.grid.n else None)


def energy_expectation(state: WaveState, H: QuantumOperator) -> float:
    from .lattice import quadrature_weights
    w = quadrature_weights(state.grid)
    num = np.real(np.sum(np.conj(state.psi) * w * H.apply(state.psi)))
    den = np.sum(w * np.abs(state.psi) ** 2)
    return float(num / den)


def l2_distance(a: np.ndarray, b: np.ndarray, grid: GridSpec) -> float:
    """sqrt integral |a - b|^2 dq."""
    return float(np.sqrt(integrate(np.abs(np.asarray(a) - np.asarray(b)) ** 2, grid)))
