"""Classical system definitions and their quantized counterparts.

A system is the triple (g, A, V): inverse-mass profile, gauge potential,
scalar potential, with H(q, p) = g(q)/2 (p - A)^2 + V(q).  The quantum
build keeps g(q) between the two shifted-momentum factors, discretized as
first differences onto link midpoints with a symmetric phase split of A,
so the operator is Hermitian by construction for any position-dependent g
and A.  Every build is tridiagonal and is stored as its three diagonals;
the sandwich build's eigendecomposition runs on the real symmetric
tridiagonal form left once the link phases are gauged away.  Naive
g*p^2 / p^2*g builds are kept around as the contrast case.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ConfigurationError, NodeError, ShapeError
from .lattice import NODE_EPS, GridSpec, check_field, gradient

# each preset's parameters, with their defaults
PRESET_PARAMS = {
    "free": {"m": 1.0},
    "harmonic": {"m": 1.0, "omega": 1.0},
    "variable_mass": {"m": 1.0, "omega": 1.0, "beta": 0.3},
    "gauged": {"m": 1.0, "omega": 1.0, "a0": 0.0, "a1": 0.0},
}


@dataclass(frozen=True)
class ClassicalSpec:
    """Callables for (g, A, V) and their derivatives, plus bookkeeping."""

    name: str
    g: Callable
    A: Callable
    V: Callable
    dg: Callable
    dA: Callable
    dV: Callable
    # True when g or A depends on q, which makes the kinetic term
    # position-dependent and forces the implicit classical stepper
    kinetic_q_dependent: bool = False
    params: dict = field(default_factory=dict)


def _num(q):
    # a Python float stays a float, so that the classical stepper runs in
    # plain floats; the same IEEE operations give it an array's bits
    return q if type(q) is float else np.asarray(q, dtype=float)


def _const(c: float):
    return lambda q: c if type(q) is float else np.full_like(_num(q), c)


def make_system(preset: str, **params) -> ClassicalSpec:
    """Build one of the shipped (g, A, V) presets."""
    if preset not in PRESET_PARAMS:
        raise ConfigurationError(f"unknown system preset {preset!r}")
    allowed = PRESET_PARAMS[preset]
    unknown = set(params) - set(allowed)
    if unknown:
        raise ConfigurationError(f"preset {preset!r} got unknown parameters {sorted(unknown)}")
    p = dict(allowed, **params)
    m = float(p.get("m", 1.0))
    if m <= 0:
        raise ConfigurationError(f"mass must be positive, got {m}")

    g0 = _const(1.0 / m)
    zero = _const(0.0)

    if preset == "free":
        return ClassicalSpec(name=preset, g=g0, A=zero, V=zero, dg=zero,
                             dA=zero, dV=zero, params=p)
    w = float(p["omega"])
    # squares are x * x, which numpy's x ** 2 computes on an array; a
    # Python float's ** 2 calls libm's pow instead
    V = lambda q: 0.5 * m * w * w * (_num(q) * _num(q))
    dV = lambda q: m * w * w * _num(q)
    if preset == "harmonic":
        return ClassicalSpec(name=preset, g=g0, A=zero, V=V, dg=zero,
                             dA=zero, dV=dV, params=p)
    if preset == "variable_mass":
        b = float(p["beta"])
        if b < 0:
            raise ConfigurationError(f"beta must be >= 0, got {b}")

        def g(q):
            q = _num(q)
            return 1.0 / (m * (1.0 + b * q * q))

        def dg(q):
            q = _num(q)
            d = m * (1.0 + b * q * q)
            return -2.0 * b * q / (d * d)

        return ClassicalSpec(name=preset, g=g, A=zero, V=V, dg=dg, dA=zero,
                             dV=dV, kinetic_q_dependent=b != 0.0, params=p)
    # gauged
    a0 = float(p["a0"])
    a1 = float(p["a1"])
    return ClassicalSpec(name=preset, g=g0, A=lambda q: a0 + a1 * _num(q),
                         V=V, dg=zero, dA=_const(a1), dV=dV,
                         kinetic_q_dependent=a1 != 0.0, params=p)


def classical_velocity(q, p, spec: ClassicalSpec):
    """dq/dt = g(q) (p - A(q))."""
    return spec.g(q) * (p - spec.A(q))


def node_floor(omega: np.ndarray) -> float:
    return NODE_EPS * float(np.max(omega))


def require_node_free(omega: np.ndarray, what: str = "density") -> None:
    omega = np.asarray(omega)
    if float(np.min(omega)) < node_floor(omega):
        raise NodeError(
            f"{what} has min/max ratio below {NODE_EPS:g}; "
            "amplitude-dividing operations are unreliable near nodes")


def require_wave_node_free(psi: np.ndarray, what: str = "|psi|^2") -> None:
    """Node guard on a wave: like require_node_free, but the minimum of
    |psi|^2 is taken along each link's linear interpolant, so a node that
    falls between two samples counts.

    On link i the interpolant is a + t d with a = psi[i] and
    d = psi[i+1] - psi[i]; |a + t d|^2 is smallest at
    t* = clip(-Re(conj(a) d) / |d|^2, 0, 1).  A sign change or a fast
    phase wind between two samples drives it to zero while both samples
    stay large.
    """
    psi = np.asarray(psi)
    a = psi[:-1]
    d = psi[1:] - a
    d2 = np.abs(d) ** 2
    t = np.clip(np.divide(-np.real(np.conj(a) * d), d2,
                          out=np.zeros(d2.shape), where=d2 > 0), 0.0, 1.0)
    if float(np.min(np.abs(a + t * d) ** 2)) < node_floor(np.abs(psi) ** 2):
        raise NodeError(
            f"{what} has min/max ratio below {NODE_EPS:g} between grid points; "
            "amplitude-dividing operations are unreliable near nodes")


def guidance_field(S: np.ndarray, spec: ClassicalSpec,
                   grid: GridSpec) -> np.ndarray:
    """The action-gradient velocity field g (dS/dq - A) on the grid."""
    S = check_field(S, grid, "action field")
    pts = grid.points()
    return spec.g(pts) * (gradient(S, grid) - spec.A(pts))


@dataclass(frozen=True)
class QuantumOperator:
    """A tridiagonal lattice operator, stored as its three diagonals.

    ``diag[k]`` is H[k, k], ``upper[k]`` is H[k, k+1] and ``lower[k]`` is
    H[k+1, k].  The sandwich build is Hermitian, ``lower == conj(upper)``
    exactly; the naive orderings are not.  No n x n array is held:
    ``matrix`` assembles the dense form on each access, for the callers
    that need a dense matrix (non-Hermitian spectra, entrywise contrasts).
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    hbar_eff: float
    grid: GridSpec

    @property
    def matrix(self) -> np.ndarray:
        """The dense n x n form, complex128 whatever the link phases.  With
        no link phase (A = 0) its imaginary part is zero, and
        ``harness._ordering_rows`` takes its spectrum on the real part:
        LAPACK's ``dgeev`` works in real arithmetic, about 2.7 times
        faster than ``zgeev`` at n = 256 on one x86-64 thread."""
        n = self.grid.n
        M = np.zeros((n, n), dtype=complex)
        idx = np.arange(n)
        M[idx, idx] = self.diag
        M[idx[:-1], idx[1:]] = self.upper
        M[idx[1:], idx[:-1]] = self.lower
        return M

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """H psi as a 3-point stencil."""
        return tridiagonal_apply(self.lower, self.diag, self.upper, psi)

    @cached_property
    def eigensystem(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(w, V, d): eigenvalues ascending, real orthonormal eigenvectors
        V of the gauged operator, and the gauge d.  The eigenvectors of
        this operator are ``d[:, None] * V``.

        On an open chain the link phases of a Hermitian tridiagonal
        operator can be gauged away: with d[0] = 1 and
        d[k+1] = d[k] exp(-i arg(-upper[k])), D^dagger H D (D = diag(d))
        is real symmetric with off-diagonal -|upper|, so a real
        tridiagonal eigensolver applies.  d is all ones when the links
        carry no phase.  Computed on first use and kept for the lifetime
        of the operator.
        """
        if not np.array_equal(self.lower, np.conj(self.upper)):
            raise ConfigurationError(
                "eigendecomposition needs a Hermitian operator")
        # imported here, not at module level: scipy takes over half of the
        # package's import time and most scenarios never decompose
        import scipy.linalg

        d = np.exp(-1j * np.concatenate(([0.0], np.cumsum(np.angle(-self.upper)))))
        w, V = scipy.linalg.eigh_tridiagonal(self.diag, -np.abs(self.upper),
                                             lapack_driver="stemr")
        return w, V, d


def tridiagonal_apply(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                      x: np.ndarray) -> np.ndarray:
    """Product of the tridiagonal matrix (lower, diag, upper) with x."""
    y = diag * x
    y[:-1] += upper * x[1:]
    y[1:] += lower * x[:-1]
    return y


def _link_data(spec: ClassicalSpec, grid: GridSpec, hbar_eff: float):
    if hbar_eff <= 0:
        raise ConfigurationError(f"hbar_eff must be positive, got {hbar_eff}")
    mids = grid.midpoints()
    g_mid = np.asarray(spec.g(mids), dtype=float)
    if np.any(g_mid <= 0):
        raise ConfigurationError("inverse-mass profile g must be positive on all links")
    # full accumulated phase across one link
    phase = np.asarray(spec.A(mids), dtype=float) * grid.dq / hbar_eff
    return g_mid, phase


def _assemble(g_mid: np.ndarray, phase: np.ndarray, V: np.ndarray,
              grid: GridSpec, hbar_eff: float):
    """Diagonals (lower, diag, upper) of (p-A) g (p-A)/2 + V with hard-wall
    (zero ghost) closure.

    Link k+1/2 joins sites k and k+1 with hop -hbar^2 g / 2dq^2 times the
    Peierls factor exp(-i phase); the wall links add to the end diagonal
    entries only.  ``lower`` is the exact conjugate of ``upper``.
    """
    pref = hbar_eff * hbar_eff / (2.0 * grid.dq * grid.dq)
    diag = pref * (g_mid[:-1] + g_mid[1:]) + V
    hop = -pref * g_mid[1:-1] * np.exp(-1j * phase[1:-1])
    return np.conj(hop), diag, hop


def build_quantum_hamiltonian(spec: ClassicalSpec, grid: GridSpec,
                              hbar_eff: float) -> QuantumOperator:
    """Sandwich-ordered Hamiltonian: g(q) evaluated on links, between the
    two shifted-difference factors.  Hermitian by construction."""
    g_mid, phase = _link_data(spec, grid, hbar_eff)
    V = np.asarray(spec.V(grid.points()), dtype=float)
    return QuantumOperator(*_assemble(g_mid, phase, V, grid, hbar_eff),
                           hbar_eff, grid)


def build_naive_ordering(spec: ClassicalSpec, grid: GridSpec, hbar_eff: float,
                         ordering: str) -> QuantumOperator:
    """Contrast operators g(q) p^2 / 2 or p^2 g(q) / 2 (plus V), with g at
    the grid points and no symmetrization.  Not Hermitian for varying g."""
    if ordering not in ("g_pp", "pp_g"):
        raise ConfigurationError(f"ordering must be 'g_pp' or 'pp_g', got {ordering!r}")
    g_mid, phase = _link_data(spec, grid, hbar_eff)
    pts = grid.points()
    V = np.asarray(spec.V(pts), dtype=float)
    # (p-A)^2 / 2 alone: the sandwich with g == 1 on every link
    lower, diag, upper = _assemble(np.ones_like(g_mid), phase,
                                   np.zeros_like(V), grid, hbar_eff)
    g = np.asarray(spec.g(pts), dtype=float)
    if ordering == "g_pp":   # row k scaled by g(q_k)
        lower, upper = g[1:] * lower, g[:-1] * upper
    else:                    # column k scaled by g(q_k)
        lower, upper = g[:-1] * lower, g[1:] * upper
    return QuantumOperator(lower, g * diag + V, upper, hbar_eff, grid)


def hermiticity_defect(op) -> float:
    """max |M - M^dagger| entrywise; zero for a Hermitian matrix."""
    M = op.matrix if isinstance(op, QuantumOperator) else np.asarray(op)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ShapeError(f"hermiticity defect needs a square matrix, got {M.shape}")
    return float(np.max(np.abs(M - M.conj().T)))
