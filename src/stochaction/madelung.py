"""Polar (R, S) representation of the wave and direct integration of the
coupled amplitude/phase PDEs for the signed action scale.

A single branch carries amplitude R, phase-action S and its signed scale
lam.  The co-evolved pair (+|lam|, -|lam|) shares one density because the
sign-odd transport terms cancel between the branches.  Its equations read
|lam| only, and S only through differences, so the minus branch obeys the
plus branch's equations and stays the plus branch shifted by the constant
S0.  A `PhasePair` therefore holds the plus branch and S0, and derives the
minus branch from them; `step_coupled_pde` advances the plus branch alone,
as one kernel row.  A pair built from a wave has S0 = 0; at a whole
number of quanta 2 pi |lam| both branches map to the same wave.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, NumericalError, ShapeError
from .evolution import WaveState
from .hamiltonian import (ClassicalSpec, require_node_free,
                          require_wave_node_free)
from .kernels import run_madelung_window
from .lattice import (GridSpec, check_field, gradient, integrate,
                      second_derivative)

# a branch norm that drifts further than this, relative to its value on
# entry to `step_coupled_pde`, aborts the integration
NORM_DRIFT_LIMIT = 1e-3

# `step_coupled_pde` runs the kernel in windows of this many steps and
# applies its guards between them
CHECK_EVERY = 200

# weight C of the default step dt = C * dq^2 / (max g * |lam|); a
# conservative choice, about 1/22 of the step at which RK4 on the pair
# was measured to go unstable for smooth low-passed states
STABILITY_FACTOR = 0.1


@dataclass(frozen=True)
class MadelungState:
    R: np.ndarray
    S: np.ndarray
    lam: float  # signed action scale; |lam| is the effective Planck constant
    t: float
    grid: GridSpec


@dataclass(frozen=True)
class PhasePair:
    plus: MadelungState
    S0: float  # constant phase offset S_plus - S_minus; 0 from a wave

    @property
    def minus(self) -> MadelungState:
        """The -|lam| branch: the plus branch's amplitude, its phase
        S_plus - S0 and its scale negated, at its time, in new arrays."""
        p = self.plus
        return MadelungState(R=p.R.copy(), S=p.S - self.S0, lam=-p.lam, t=p.t,
                             grid=p.grid)


def _check_madelung(m: MadelungState, name: str = "state") -> None:
    check_field(m.R, m.grid, f"{name}.R")
    check_field(m.S, m.grid, f"{name}.S")
    if m.lam == 0 or not np.isfinite(m.lam):
        raise ConfigurationError(f"{name}.lam must be nonzero and finite, got {m.lam}")
    if np.any(m.R < 0):
        raise ShapeError(f"{name}.R must be nonnegative")
    norm = integrate(m.R ** 2, m.grid)
    if abs(norm - 1.0) > 1e-6:
        raise ShapeError(f"{name} norm^2 = {norm!r}, expected 1 within 1e-6")


def _check_pair(pair: PhasePair) -> None:
    _check_madelung(pair.plus, "plus branch")
    if pair.plus.lam <= 0:
        raise ConfigurationError("pair must hold lam > 0 in its plus branch")
    if not np.isfinite(pair.S0):
        raise ConfigurationError(f"pair offset S0 must be finite, got {pair.S0}")


def to_polar(state: WaveState) -> MadelungState:
    """Amplitude |psi| and phase-action hbar_eff * arg(psi), unwrapped
    left to right and pinned to the principal branch at mid-grid, as the
    branch of scale lam = +hbar_eff.

    Raises NodeError when |psi|^2 falls below the node floor anywhere on
    the linear interpolant between samples, so a node that sits between
    two grid points is detected, not only one that lands on a sample.
    """
    require_wave_node_free(state.psi, "|psi|^2")
    R = np.abs(state.psi)
    phase = np.unwrap(np.angle(state.psi))
    mid = state.grid.n // 2
    # unwrap fixes differences only; shift by the exact whole number of
    # turns that puts the midpoint back on its principal value
    turns = round((phase[mid] - float(np.angle(state.psi[mid]))) / (2.0 * np.pi))
    phase = phase - 2.0 * np.pi * turns
    return MadelungState(R=R, S=state.hbar_eff * phase, lam=float(state.hbar_eff),
                         t=state.t, grid=state.grid)


def from_polar(m: MadelungState) -> WaveState:
    """psi = R exp(i S / |lam|) with hbar_eff = |lam|."""
    _check_madelung(m)
    hbar_eff = abs(m.lam)
    psi = m.R * np.exp(1j * m.S / hbar_eff)
    return WaveState(psi=psi, hbar_eff=hbar_eff, t=m.t, grid=m.grid)


def pair_from_wave(state: WaveState) -> PhasePair:
    """The (+hbar_eff, -hbar_eff) pair of one wave state, at S0 = 0: both
    branches are `to_polar`'s amplitude and phase."""
    return PhasePair(plus=to_polar(state), S0=0.0)


def quantum_potential(R: np.ndarray, spec: ClassicalSpec, grid: GridSpec,
                      lam: float) -> np.ndarray:
    """The lam^2 correction term -(lam^2/2)(g d2R + dg dR)/R."""
    R = check_field(R, grid, "amplitude")
    require_node_free(R ** 2, "R^2")
    pts = grid.points()
    g = np.asarray(spec.g(pts), dtype=float)
    dg = np.asarray(spec.dg(pts), dtype=float)
    return -0.5 * lam * lam * (g * second_derivative(R, grid)
                               + dg * gradient(R, grid)) / R


def default_timestep(grid: GridSpec, spec: ClassicalSpec, lam_abs: float) -> float:
    """Conservative default step 0.1 dq^2 / (max g * |lam|) for the explicit
    scheme.

    This is not the stability limit: on smooth, low-passed states the RK4
    pair integration was measured stable up to about 22 times this step.
    It is a safety margin that also absorbs states the polar form carries
    badly.  Scenario time steps and benchmark workloads are set relative to
    its value.

    Raises ConfigurationError where the step is not finite, as at a
    subnormal |lam|: an infinite default would admit any dt.
    """
    g_max = float(np.max(spec.g(grid.points())))
    dt = STABILITY_FACTOR * grid.dq * grid.dq / (g_max * lam_abs)
    if not np.isfinite(dt):
        raise ConfigurationError(
            f"the default step is {dt} at |lam| = {lam_abs!r} (max g "
            f"{g_max!r}, dq {grid.dq!r}); the scale is too small to step")
    return dt


def _field_tables(spec: ClassicalSpec, grid: GridSpec):
    pts = grid.points()
    return (np.ascontiguousarray(spec.g(pts), dtype=float),
            np.ascontiguousarray(spec.dg(pts), dtype=float),
            np.ascontiguousarray(spec.V(pts), dtype=float))


def _guard(omega: np.ndarray, S: np.ndarray) -> None:
    if not (np.all(np.isfinite(omega)) and np.all(np.isfinite(S))):
        raise NumericalError(
            "polar integration produced non-finite fields in the plus "
            "branch; either dt is too large or the state has content the "
            "polar fields cannot carry (an unfiltered packet tail at the "
            "walls, a near-node)")
    # machine-negligible undershoot in the deep tail is clamped; anything
    # larger means the scheme is failing
    if float(np.min(omega)) < -1e-9 * float(np.max(omega)):
        raise NumericalError(
            "density of the plus branch went significantly negative "
            "during polar integration; the state is leaving the resolvable "
            "node-free regime")


def step_coupled_pde(pair: PhasePair, spec: ClassicalSpec, dt: float,
                     steps: int = 1) -> PhasePair:
    """Advance the pair by `steps` explicit RK4 steps.

    Co-evolution uses the pair-cancelled continuity rate (the sign-odd
    transport terms of the two branches cancel identically when the
    amplitudes agree), which keeps the integration stable.  Its right-hand
    side reads |lam| only, and S only through differences, so the minus
    branch obeys the plus branch's equations and differs from it by the
    constant S0 alone: the plus branch is advanced as one kernel row, and
    the minus branch of the result is derived from it (`PhasePair.minus`),
    so amplitude symmetry and the S0 offset hold by construction.

    The node-free precondition is checked once on entry.  During the run,
    every CHECK_EVERY steps, the branch must be finite, must not have gone
    significantly negative in density, and must keep its norm within
    NORM_DRIFT_LIMIT of its value on entry.
    """
    _check_pair(pair)
    m = pair.plus
    require_node_free(m.R ** 2, "density of the plus branch")
    if dt <= 0 or not np.isfinite(dt):
        raise ConfigurationError(f"dt must be positive and finite, got {dt}")
    if steps < 1:
        raise ConfigurationError(f"steps must be >= 1, got {steps}")
    grid = m.grid
    dt_default = default_timestep(grid, spec, m.lam)
    if dt > 10.0 * dt_default:
        raise ConfigurationError(
            f"dt = {dt} is more than 10x the default step {dt_default:.3e}")
    g, dg, V = _field_tables(spec, grid)
    norm0 = integrate(m.R ** 2, grid)
    # y[0] holds omega and y[1] holds S
    y = np.empty((2, grid.n))
    R, t = m.R, m.t
    y[1] = m.S
    done = 0
    while done < steps:
        chunk = min(CHECK_EVERY, steps - done)
        np.square(R, out=y[0])
        run_madelung_window(y, g, dg, V, grid.dq, dt, chunk, m.lam)
        _guard(y[0], y[1])
        R = np.sqrt(np.maximum(y[0], 0.0))
        norm = integrate(R ** 2, grid)
        if abs(norm / norm0 - 1.0) > NORM_DRIFT_LIMIT:
            raise NumericalError(
                "norm of the plus branch drifted by more than "
                f"{NORM_DRIFT_LIMIT:g} ({norm0!r} -> {norm!r} after "
                f"{done + chunk} steps)")
        t += dt * chunk
        done += chunk
    return PhasePair(plus=replace(m, R=R, S=y[1].copy(), t=t), S0=pair.S0)
