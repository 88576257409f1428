"""The action along a recorded classical path, for the tests: the values
of H and L at phase-space samples, the trapezoid action of a path, and the
Euler-Lagrange residual that certifies a path as a stationary point of
the action.  No scenario reads them, so they live beside the tests that
use them (`test_classical.py`, `test_stochastic.py`)."""
import numpy as np

from stochaction.classical import PathRecord
from stochaction.errors import ShapeError
from stochaction.hamiltonian import ClassicalSpec, classical_velocity
from stochaction.lattice import gradient_uniform


def hamiltonian_value(q, p, spec: ClassicalSpec):
    dp = p - spec.A(q)
    return 0.5 * spec.g(q) * dp * dp + spec.V(q)


def lagrangian_value(q, p, spec: ClassicalSpec):
    """L = p qdot - H along a phase-space sample."""
    qdot = classical_velocity(q, p, spec)
    return p * qdot - hamiltonian_value(q, p, spec)


def action_of_path(path: PathRecord, spec: ClassicalSpec) -> float:
    """Trapezoid integral of the Lagrangian along the record."""
    L = lagrangian_value(path.qs, path.ps, spec)
    return float(np.trapezoid(L, dx=path.dt))


def euler_lagrange_residual(path: PathRecord, spec: ClassicalSpec) -> np.ndarray:
    """d/dt (dL/dqdot) - dL/dq at interior path samples, from positions only.

    Momenta are reconstructed from the discrete velocity so the residual
    genuinely tests the configuration path; it vanishes at O(dt^2) on true
    trajectories and grows linearly with an added perturbation.
    """
    if len(path.qs) < 7:
        raise ShapeError("residual needs at least 7 samples")
    q = path.qs
    qdot = gradient_uniform(q, path.dt)
    p_lag = qdot / spec.g(q) + spec.A(q)
    dpdt = gradient_uniform(p_lag, path.dt)
    g = spec.g(q)
    dLdq = (-spec.dg(q) / (2.0 * g * g) * qdot * qdot
            + spec.dA(q) * qdot - spec.dV(q))
    # the two samples adjacent to each end inherit first-order error from
    # the one-sided edge stencils; the interior is second order
    return (dpdt - dLdq)[2:-2]
