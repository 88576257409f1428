"""Classical trajectory layer: symplectic stepping of Hamilton's equations
and the recorded reference path of the classical limit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError, ShapeError
from .hamiltonian import ClassicalSpec, classical_velocity

IMPLICIT_TOL = 1e-12
IMPLICIT_MAX_ITER = 50


@dataclass(frozen=True)
class PhasePoint:
    q: float
    p: float
    t: float = 0.0


@dataclass(frozen=True)
class PathRecord:
    qs: np.ndarray
    ps: np.ndarray
    ts: np.ndarray
    dt: float

    def __post_init__(self):
        if len(self.qs) < 2 or len(self.qs) != len(self.ps) or len(self.qs) != len(self.ts):
            raise ShapeError("path needs matching q/p/t arrays with at least 2 samples")
        steps = np.diff(self.ts)
        if not np.allclose(steps, self.dt, rtol=1e-9, atol=1e-12):
            raise ShapeError("path timestamps are not uniformly spaced")


def _check_dt(dt: float) -> None:
    if dt == 0 or not np.isfinite(dt):
        raise ConfigurationError(f"dt must be a nonzero finite number, got {dt}")


def _step(q: float, p: float, spec: ClassicalSpec, dt: float) -> tuple[float, float]:
    """One symplectic step of Hamilton's equations on plain floats.

    A constant g separates the Hamiltonian, so the usual
    kick-drift-kick update applies; a position-dependent kinetic term
    falls back to the implicit midpoint rule with fixed-point iteration.
    """
    if not spec.kinetic_q_dependent:
        p_half = p - 0.5 * dt * spec.dV(q)
        q_new = q + dt * classical_velocity(q, p_half, spec)
        return q_new, p_half - 0.5 * dt * spec.dV(q_new)

    # implicit midpoint: z' = z + dt * J dH((z + z')/2)
    q_new, p_new = q, p
    for _ in range(IMPLICIT_MAX_ITER):
        qm = 0.5 * (q + q_new)
        pm = 0.5 * (p + p_new)
        grad_q = 0.5 * spec.dg(qm) * pm * pm + spec.dV(qm)
        q_next = q + dt * classical_velocity(qm, pm, spec)
        p_next = p - dt * grad_q
        delta = max(abs(q_next - q_new), abs(p_next - p_new))
        q_new, p_new = q_next, p_next
        if delta < IMPLICIT_TOL * (1.0 + abs(q_new) + abs(p_new)):
            return q_new, p_new
    raise NumericalError(
        f"implicit midpoint failed to converge in {IMPLICIT_MAX_ITER} iterations "
        f"(dt={dt}); reduce the step")


def integrate_path(pt0: PhasePoint, spec: ClassicalSpec, dt: float,
                   steps: int) -> PathRecord:
    """`steps` symplectic steps of size dt from pt0, every point recorded."""
    _check_dt(dt)
    if not isinstance(steps, (int, np.integer)) or steps < 1:
        raise ConfigurationError(f"need an integer number of steps >= 1, got {steps!r}")
    points = [(float(pt0.q), float(pt0.p))]
    for _ in range(steps):
        points.append(_step(*points[-1], spec, dt))
    qs, ps = map(np.array, zip(*points))
    ts = pt0.t + dt * np.arange(steps + 1)
    return PathRecord(qs=qs, ps=ps, ts=ts, dt=dt)
