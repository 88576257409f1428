"""Classical system definitions and their quantized counterparts.

A system is the pair (g, V): inverse-mass profile and scalar potential,
with H(q, p) = g(q) p^2 / 2 + V(q).  There is no vector potential: on an
interval, A(q) is a pure gauge, removed by psi -> psi exp(i int A / hbar)
without changing any observable (Aharonov and Bohm, Phys. Rev. 115, 485,
1959).  The quantum build keeps g(q) between the two momentum factors,
discretized as first differences onto link midpoints, so the operator is
real symmetric by construction for any position-dependent g.  Every build
is tridiagonal and is stored as its three real diagonals; the sandwich
build's lowest levels are one real symmetric tridiagonal solve by index
(``evolution.eigenpairs``).  Naive
g*p^2 / p^2*g builds are kept around as the contrast case; each is similar
to a symmetric tridiagonal (``symmetrized``), whose solve gives its levels.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, NodeError
from .lattice import NODE_EPS, GridSpec, check_field, gradient

# each preset's parameters, with their defaults
PRESET_PARAMS = {
    "free": {"m": 1.0},
    "harmonic": {"m": 1.0, "omega": 1.0},
    "variable_mass": {"m": 1.0, "omega": 1.0, "beta": 0.3},
}


@dataclass(frozen=True)
class ClassicalSpec:
    """Callables for (g, V) and their derivatives."""

    g: Callable
    V: Callable
    dg: Callable
    dV: Callable
    # True when g depends on q, which makes the kinetic term
    # position-dependent and forces the implicit classical stepper
    kinetic_q_dependent: bool = False


def _num(q):
    # a Python float stays a float, so that the classical stepper runs in
    # plain floats; the same IEEE operations give it an array's bits
    return q if type(q) is float else np.asarray(q, dtype=float)


def _const(c: float):
    return lambda q: c if type(q) is float else np.full_like(_num(q), c)


def make_system(preset: str, **params) -> ClassicalSpec:
    """Build one of the shipped (g, V) presets."""
    if preset not in PRESET_PARAMS:
        raise ConfigurationError(f"unknown system preset {preset!r}; "
                                 f"expected one of {sorted(PRESET_PARAMS)}")
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
        return ClassicalSpec(g=g0, V=zero, dg=zero, dV=zero)
    w = float(p["omega"])
    # squares are x * x, which numpy's x ** 2 computes on an array; a
    # Python float's ** 2 calls libm's pow instead
    V = lambda q: 0.5 * m * w * w * (_num(q) * _num(q))
    dV = lambda q: m * w * w * _num(q)
    if preset == "harmonic":
        return ClassicalSpec(g=g0, V=V, dg=zero, dV=dV)
    # variable_mass
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

    return ClassicalSpec(g=g, V=V, dg=dg, dV=dV, kinetic_q_dependent=b != 0.0)


def classical_velocity(q, p, spec: ClassicalSpec):
    """dq/dt = g(q) p."""
    return spec.g(q) * p


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
    """The action-gradient velocity field g dS/dq on the grid."""
    S = check_field(S, grid, "action field")
    return spec.g(grid.points()) * gradient(S, grid)


@dataclass(frozen=True)
class QuantumOperator:
    """A tridiagonal lattice operator, stored as its three real diagonals.

    ``diag[k]`` is H[k, k], ``upper[k]`` is H[k, k+1] and ``lower[k]`` is
    H[k+1, k].  The sandwich build is symmetric, ``lower == upper``
    exactly; the naive orderings are not, and their spectra are read from
    the symmetric operator similar to each (``symmetrized``).  No n x n
    array is formed, and no spectrum is kept: ``evolution`` solves for the
    lowest modes that each of its readers needs, by index.
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    hbar_eff: float
    grid: GridSpec

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """H psi as a 3-point stencil."""
        return tridiagonal_apply(self.lower, self.diag, self.upper, psi)


def tridiagonal_apply(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                      x: np.ndarray, out: np.ndarray | None = None
                      ) -> np.ndarray:
    """Product of the tridiagonal matrix (lower, diag, upper) with x,
    written to out where one is given, which must not overlap x."""
    y = np.multiply(diag, x, out=out)
    y[:-1] += upper * x[1:]
    y[1:] += lower * x[:-1]
    return y


def _link_g(spec: ClassicalSpec, grid: GridSpec, hbar_eff: float):
    """g at the n + 1 link midpoints, each checked positive."""
    if hbar_eff <= 0:
        raise ConfigurationError(f"hbar_eff must be positive, got {hbar_eff}")
    g_mid = np.asarray(spec.g(grid.midpoints()), dtype=float)
    if np.any(g_mid <= 0):
        raise ConfigurationError("inverse-mass profile g must be positive on all links")
    return g_mid


def _assemble(g_mid: np.ndarray, V: np.ndarray, grid: GridSpec,
              hbar_eff: float):
    """Diagonals (lower, diag, upper) of p g p / 2 + V with hard-wall (zero
    ghost) closure.

    Link k+1/2 joins sites k and k+1 with hop -hbar^2 g / 2dq^2; the wall
    links add to the end diagonal entries only.  ``lower`` is ``upper``.
    """
    pref = hbar_eff * hbar_eff / (2.0 * grid.dq * grid.dq)
    diag = pref * (g_mid[:-1] + g_mid[1:]) + V
    hop = -pref * g_mid[1:-1]
    return hop, diag, hop


def build_quantum_hamiltonian(spec: ClassicalSpec, grid: GridSpec,
                              hbar_eff: float) -> QuantumOperator:
    """Sandwich-ordered Hamiltonian: g(q) evaluated on links, between the
    two difference factors.  Symmetric by construction."""
    g_mid = _link_g(spec, grid, hbar_eff)
    V = np.asarray(spec.V(grid.points()), dtype=float)
    return QuantumOperator(*_assemble(g_mid, V, grid, hbar_eff),
                           hbar_eff, grid)


def build_naive_ordering(spec: ClassicalSpec, grid: GridSpec, hbar_eff: float,
                         ordering: str) -> QuantumOperator:
    """Contrast operators g(q) p^2 / 2 or p^2 g(q) / 2 (plus V), with g at
    the grid points and no symmetrization.  Not symmetric for varying g."""
    if ordering not in ("g_pp", "pp_g"):
        raise ConfigurationError(f"ordering must be 'g_pp' or 'pp_g', got {ordering!r}")
    g_mid = _link_g(spec, grid, hbar_eff)
    pts = grid.points()
    V = np.asarray(spec.V(pts), dtype=float)
    # p^2 / 2 alone: the sandwich with g == 1 on every link
    lower, diag, upper = _assemble(np.ones_like(g_mid), np.zeros_like(V),
                                   grid, hbar_eff)
    g = np.asarray(spec.g(pts), dtype=float)
    if ordering == "g_pp":   # row k scaled by g(q_k)
        lower, upper = g[1:] * lower, g[:-1] * upper
    else:                    # column k scaled by g(q_k)
        lower, upper = g[:-1] * lower, g[1:] * upper
    return QuantumOperator(lower, g * diag + V, upper, hbar_eff, grid)


def symmetrized(op: QuantumOperator) -> QuantumOperator:
    """The real symmetric tridiagonal operator similar to op, whose
    spectrum is op's.

    D^-1 op D, with D diagonal and positive, keeps the diagonal and each
    link's product lower[k] * upper[k]; the one symmetric choice has
    off-diagonal sign(upper[k]) sqrt(lower[k] upper[k]).  The naive
    orderings G T + V and T G + V, with G = diag(g) > 0, are similar so,
    through G^(1/2), to G^(1/2) T G^(1/2) + V, and since the products
    commute, both give the same bits.  A symmetric op is returned as it
    is.  A link whose product is not positive is refused, naming it: no
    real similarity makes op symmetric there, and its spectrum may be
    complex.
    """
    if np.array_equal(op.lower, op.upper):
        return op
    product = op.lower * op.upper
    bad = np.flatnonzero(product <= 0.0)
    if bad.size:
        k = int(bad[0])
        raise ConfigurationError(
            f"link {k} (sites {k} and {k + 1}) has lower * upper = "
            f"{product[k]:g} <= 0: no real diagonal similarity makes the "
            f"operator symmetric")
    hop = np.copysign(np.sqrt(product), op.upper)
    return QuantumOperator(hop, op.diag, hop, op.hbar_eff, op.grid)


def hermiticity_defect(op: QuantumOperator) -> float:
    """max |H - H^dagger| entrywise, zero for a Hermitian operator: of
    op's real diagonals, max |upper - lower|, as the diagonal and the
    zeros off the three diagonals add nothing."""
    return float(np.max(np.abs(op.upper - op.lower)))
