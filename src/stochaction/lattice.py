"""Uniform 1-D grid and the discrete calculus every other module builds on.

All stencils are second order: central differences in the interior,
one-sided three/four-point formulas at the two boundary points.  They act
on the last axis, so a stack of fields is differenced in one call.  The
compiled polar RK4 kernel (``_polar.c``) writes the interior stencils and
the first-derivative edge stencils out again, operation for operation,
so that they round as these do.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ShapeError

MIN_POINTS = 16

# relative floor below which amplitude-dividing operations refuse to work
NODE_EPS = 1e-12


@dataclass(frozen=True)
class GridSpec:
    n: int
    q_min: float
    q_max: float
    dq: float

    def points(self) -> np.ndarray:
        return self.q_min + np.arange(self.n) * self.dq

    def midpoints(self) -> np.ndarray:
        # n+1 link midpoints, including the half-links just outside the
        # domain (ghost links of the hard-wall kinetic stencil)
        return self.q_min + (np.arange(self.n + 1) - 0.5) * self.dq


def build_grid(n: int, q_min: float, q_max: float) -> GridSpec:
    if int(n) != n or n < MIN_POINTS:
        raise ConfigurationError(f"grid needs at least {MIN_POINTS} points, got {n}")
    if not (np.isfinite(q_min) and np.isfinite(q_max)) or q_max <= q_min:
        raise ConfigurationError(f"degenerate grid bounds [{q_min}, {q_max}]")
    dq = (q_max - q_min) / (n - 1)
    return GridSpec(n=int(n), q_min=float(q_min), q_max=float(q_max), dq=float(dq))


def check_field(f: np.ndarray, grid: GridSpec, name: str = "field") -> np.ndarray:
    f = np.asarray(f)
    if f.shape != (grid.n,):
        raise ShapeError(f"{name} has shape {f.shape}, expected ({grid.n},)")
    if not np.all(np.isfinite(f)):
        raise ShapeError(f"{name} contains non-finite entries")
    return f


def gradient_uniform(f: np.ndarray, h: float) -> np.ndarray:
    """d/dq along the last axis on a uniform grid of spacing h (no grid
    object needed)."""
    f = np.asarray(f, dtype=float)
    if f.ndim == 0 or f.shape[-1] < 3:
        raise ShapeError("gradient needs at least 3 samples")
    out = np.empty_like(f)
    out[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (2.0 * h)
    # difference forms of (-3 f0 + 4 f1 - f2) / 2h and its mirror: exact
    # zero on constants
    f0, f1, f2 = (f[..., i] for i in (0, 1, 2))
    out[..., 0] = (-3.0 * (f0 - f1) + (f1 - f2)) / (2.0 * h)
    f_1, f_2, f_3 = (f[..., i] for i in (-1, -2, -3))
    out[..., -1] = (3.0 * (f_1 - f_2) - (f_2 - f_3)) / (2.0 * h)
    return out


def second_derivative_uniform(f: np.ndarray, h: float) -> np.ndarray:
    """Compact three-point d2/dq2 along the last axis; one-sided four-point
    rows at the ends.  The polar kernel's quantum potential is held to this
    stencil, bit for bit, by its numpy reference in the kernel tests."""
    f = np.asarray(f, dtype=float)
    if f.ndim == 0 or f.shape[-1] < 4:
        raise ShapeError("second derivative needs at least 4 samples")
    out = np.empty_like(f)
    h2 = h * h
    out[..., 1:-1] = (f[..., 2:] - f[..., 1:-1] * 2.0 + f[..., :-2]) / h2
    # difference form of (2 f0 - 5 f1 + 4 f2 - f3) / h^2: exact zero on
    # constants
    f0, f1, f2, f3 = (f[..., i] for i in (0, 1, 2, 3))
    out[..., 0] = (2.0 * (f0 - f1) - 3.0 * (f1 - f2) + (f2 - f3)) / h2
    f0, f1, f2, f3 = (f[..., i] for i in (-1, -2, -3, -4))
    out[..., -1] = (2.0 * (f0 - f1) - 3.0 * (f1 - f2) + (f2 - f3)) / h2
    return out


def gradient(f: np.ndarray, grid: GridSpec) -> np.ndarray:
    return gradient_uniform(check_field(f, grid), grid.dq)


def integrate(f: np.ndarray, grid: GridSpec) -> float:
    """Trapezoid quadrature over the full domain."""
    f = np.asarray(f)
    if f.shape != (grid.n,):
        raise ShapeError(f"integrand has shape {f.shape}, expected ({grid.n},)")
    return float(np.trapezoid(f, dx=grid.dq))


def trapezoid_cdf(f: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Running trapezoid integral of f from q_min to each grid point."""
    return np.concatenate(([0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * grid.dq)))


def whole_steps(span: float, step: float, step_name: str = "step",
                span_name: str = "span") -> int:
    """The number of steps of length `step` in `span`.

    The step must be finite and positive, the span finite and >= 0, and
    the step must divide the span to 1e-9 relative; the names are those
    the errors give the two.
    """
    if not (0.0 < step < np.inf):
        raise ConfigurationError(
            f"{step_name} must be finite and positive, got {step}")
    if not (0.0 <= span < np.inf):
        raise ConfigurationError(f"{span_name} must be finite and >= 0, got {span}")
    ratio = span / step
    # a ratio that overflows (a subnormal step) counts as no whole number
    steps = int(round(ratio)) if ratio < np.inf else 0
    if abs(steps * step - span) > 1e-9 * span:
        raise ConfigurationError(
            f"{step_name} = {step} does not divide {span_name} = {span}")
    return steps


def quadrature_weights(grid: GridSpec) -> np.ndarray:
    w = np.full(grid.n, grid.dq)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w
