"""Polar (R, S) representation of the wave and direct integration of the
coupled amplitude/phase PDEs for the signed action scale.

A single branch carries amplitude R, phase-action S and its signed scale
lam.  The co-evolved pair (+|lam|, -|lam|) shares one density because the
sign-odd transport terms cancel between the branches; `step_coupled_pde`
integrates both branches of that pair together.  Branches that start byte
for byte equal (an offset-0 pair) are advanced once and the result taken
for both: they obey the same equations at the same |lam|, and the kernel
advances each row from that row alone, so the bits are the same as
advancing both.
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
    minus: MadelungState
    S0: float  # constant phase offset S_plus - S_minus


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
    _check_madelung(pair.minus, "minus branch")
    if pair.plus.lam <= 0 or pair.minus.lam >= 0:
        raise ConfigurationError("pair must hold lam > 0 in plus and lam < 0 in minus")
    if abs(pair.plus.lam + pair.minus.lam) > 1e-15 * abs(pair.plus.lam):
        raise ConfigurationError("pair branches must carry opposite equal scales")


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


def pair_from_wave(state: WaveState, offset_quanta: int = 0) -> PhasePair:
    """Build the (+hbar_eff, -hbar_eff) pair from one wave state.

    The branches share R; the minus branch starts at S - S0 with
    S0 = offset_quanta * 2*pi*hbar_eff, the whole-quantum offset that keeps
    both branches mapping to the same single-valued wave.
    """
    plus = to_polar(state)
    S0 = offset_quanta * 2.0 * np.pi * state.hbar_eff
    minus = MadelungState(R=plus.R.copy(), S=plus.S - S0, lam=-state.hbar_eff,
                          t=state.t, grid=state.grid)
    return PhasePair(plus=plus, minus=minus, S0=S0)


def check_phase_offset(pair: PhasePair) -> tuple[float, float]:
    """Spatial mean of S_plus - S_minus and the max deviation from it."""
    diff = pair.plus.S - pair.minus.S
    S0 = float(np.mean(diff))
    return S0, float(np.max(np.abs(diff - S0)))


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


def _guard_branch(name: str, omega: np.ndarray, S: np.ndarray) -> None:
    if not (np.all(np.isfinite(omega)) and np.all(np.isfinite(S))):
        raise NumericalError(
            f"polar integration produced non-finite fields in the {name} "
            "branch; either dt is too large or the state has content the "
            "polar fields cannot carry (an unfiltered packet tail at the "
            "walls, a near-node)")
    # machine-negligible undershoot in the deep tail is clamped; anything
    # larger means the scheme is failing
    if float(np.min(omega)) < -1e-9 * float(np.max(omega)):
        raise NumericalError(
            f"density of the {name} branch went significantly negative "
            "during polar integration; the state is leaving the resolvable "
            "node-free regime")


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype and equal bytes; unlike ==, a signed zero differs."""
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def step_coupled_pde(pair: PhasePair, spec: ClassicalSpec, dt: float,
                     steps: int = 1) -> PhasePair:
    """Advance both branches of the pair by `steps` explicit RK4 steps.

    Co-evolution uses the pair-cancelled continuity rate for each branch
    (the sign-odd transport terms of the two branches cancel identically
    when the amplitudes agree), so the integration is stable in both
    branches and preserves amplitude symmetry and the S0 offset.  Both
    branches are integrated, so the S0 offset is a result and not an
    assumption.  Branches that differ are stacked as one two-row batch.
    Branches whose R and S are byte for byte equal, as in an offset-0
    pair, are advanced once, as a single row, and the result is returned
    as both branches, each in its own arrays: they obey the same equations
    at the same |lam|, and row b of the kernel's result depends on row b
    of its input alone, so the second row would repeat the first bit for
    bit.

    The node-free precondition is checked once on entry, on each distinct
    branch.  During the run, every CHECK_EVERY steps, each advanced row
    must be finite, must not have gone significantly negative in density,
    and must keep its norm within NORM_DRIFT_LIMIT of its value on entry.
    """
    _check_pair(pair)
    branches = (pair.plus, pair.minus)
    # the kernel row that carries each branch
    rows = ([0, 0] if _same_bits(pair.plus.R, pair.minus.R)
            and _same_bits(pair.plus.S, pair.minus.S) else [0, 1])
    advanced, names = branches[:rows[1] + 1], ("plus", "minus")[:rows[1] + 1]
    for m, name in zip(advanced, names):
        require_node_free(m.R ** 2, f"density of the {name} branch")
    if dt <= 0 or not np.isfinite(dt):
        raise ConfigurationError(f"dt must be positive and finite, got {dt}")
    if steps < 1:
        raise ConfigurationError(f"steps must be >= 1, got {steps}")
    grid = pair.plus.grid
    dt_default = default_timestep(grid, spec, abs(pair.plus.lam))
    if dt > 10.0 * dt_default:
        raise ConfigurationError(
            f"dt = {dt} is more than 10x the default step {dt_default:.3e}")
    g, dg, V = _field_tables(spec, grid)
    norms0 = [integrate(m.R ** 2, grid) for m in advanced]
    times = [m.t for m in branches]
    # y[0] holds omega and y[1] holds S, one row per advanced branch
    y = np.empty((2, len(names), grid.n))
    R = np.stack([m.R for m in advanced])
    y[1] = [m.S for m in advanced]
    done = 0
    while done < steps:
        chunk = min(CHECK_EVERY, steps - done)
        np.square(R, out=y[0])
        run_madelung_window(y, g, dg, V, grid.dq, dt, chunk,
                            abs(pair.plus.lam))
        for b, name in enumerate(names):
            _guard_branch(name, y[0, b], y[1, b])
        R = np.sqrt(np.maximum(y[0], 0.0))
        for b, name in enumerate(names):
            norm = integrate(R[b] ** 2, grid)
            if abs(norm / norms0[b] - 1.0) > NORM_DRIFT_LIMIT:
                raise NumericalError(
                    f"norm of the {name} branch drifted by more than "
                    f"{NORM_DRIFT_LIMIT:g} ({norms0[b]!r} -> {norm!r} after "
                    f"{done + chunk} steps)")
        times = [t + dt * chunk for t in times]
        done += chunk
    # indexing with the row list copies, so no two branches share memory
    R, S = R[rows], y[1][rows]
    plus, minus = (replace(m, R=R[b], S=S[b], t=times[b])
                   for b, m in enumerate(branches))
    return PhasePair(plus=plus, minus=minus, S0=pair.S0)
