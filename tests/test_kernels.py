"""Counter-based RNG keying and the batched polar-pair RK4 kernel."""
import math

import numpy as np
import pytest

from stochaction.errors import ConfigurationError
from stochaction.hamiltonian import make_system
from stochaction.kernels import counter_uniform, run_madelung_window
from stochaction.lattice import (build_grid, gradient_uniform,
                                 second_derivative_uniform)

pids = np.arange(256)


# ---------------------------------------------------------------------------
# counter-based RNG


def test_counter_uniform_is_a_pure_function_of_its_keys():
    a = counter_uniform(7, 2, 13, pids, 0)
    b = counter_uniform(7, 2, 13, pids, 0)
    assert np.array_equal(a, b)


def test_counter_uniform_lands_in_the_half_open_unit_interval():
    u = counter_uniform(0, 1, 0, np.arange(100_000), 0)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01


def test_every_key_component_opens_a_distinct_stream():
    base = counter_uniform(7, 2, 13, pids, 0)
    for other in (
        counter_uniform(8, 2, 13, pids, 0),
        counter_uniform(7, 3, 13, pids, 0),
        counter_uniform(7, 2, 14, pids, 0),
        counter_uniform(7, 2, 13, pids, 1),
    ):
        assert not np.array_equal(base, other)
    shifted = counter_uniform(7, 2, 13, pids + 1, 0)
    assert not np.array_equal(base, shifted)
    # ... but shifting the pid window only relabels the same stream
    assert np.array_equal(base[1:], shifted[:-1])


def test_counter_uniform_rejects_negative_keys():
    with pytest.raises(ConfigurationError):
        counter_uniform(-1, 2, 13, pids, 0)
    with pytest.raises(ConfigurationError):
        counter_uniform(7, -2, 13, pids, 0)
    with pytest.raises(ConfigurationError):
        counter_uniform(7, 2, -13, pids, 0)


# ---------------------------------------------------------------------------
# batched polar-pair RK4


def _branch_batch():
    """Two different branches on the harmonic grid, stacked as one
    (2, 2, n) batch (densities, then phases), with the field tables."""
    grid = build_grid(128, -5.0, 5.0)
    spec = make_system("harmonic")
    pts = grid.points()
    om = np.stack([np.exp(-(pts - 0.5) ** 2) / np.sqrt(np.pi),
                   np.exp(-(pts + 0.3) ** 2 / 1.2) / np.sqrt(1.2 * np.pi)])
    S = np.stack([0.4 * np.sin(0.5 * pts) + 0.3 * pts,
                  0.1 * np.cos(pts) - 0.2 * pts - 2.0 * np.pi])
    tables = [np.asarray(f(pts), dtype=float)
              for f in (spec.g, spec.dg, spec.A, spec.V)]
    return grid, np.stack([om, S]), tables


def _run(y, grid, tables, n_steps=40):
    y = y.copy()
    run_madelung_window(y, *tables, grid.dq, 5e-4, n_steps, 1.0)
    return y


def _reference_rhs(om, S, g, dg, A, V, dq, lam):
    # one branch, written out with the lattice stencils, in the kernel's
    # order of operations
    dS = gradient_uniform(S, dq)
    dom = -gradient_uniform(g * (dS - A) * om, dq)
    R = np.sqrt(np.maximum(om, 1e-300))
    qp = (-0.5 * lam * lam * (g * second_derivative_uniform(R, dq)
                              + dg * gradient_uniform(R, dq)) / R)
    dSdt = -(0.5 * g * (dS - A) * (dS - A) + V + qp)
    h2 = dq * dq
    th = (S[1] - S[0] - dq * 0.5 * (A[0] + A[1])) / lam
    dom[0] = -(g[0] * lam / h2) * R[0] * R[1] * math.sin(th)
    dSdt[0] = (g[0] * (0.5 * lam * lam) / h2) * (
        (R[1] / R[0]) * math.cos(th) - 2.0) - V[0]
    th = (S[-1] - S[-2] - dq * 0.5 * (A[-2] + A[-1])) / lam
    dom[-1] = (g[-1] * lam / h2) * R[-2] * R[-1] * math.sin(th)
    dSdt[-1] = (g[-1] * (0.5 * lam * lam) / h2) * (
        (R[-2] / R[-1]) * math.cos(th) - 2.0) - V[-1]
    return dom, dSdt


def _reference_run(om, S, tables, dq, dt, n_steps, lam=1.0):
    om, S = om.copy(), S.copy()
    for _ in range(n_steps):
        k1 = _reference_rhs(om, S, *tables, dq, lam)
        k2 = _reference_rhs(om + 0.5 * dt * k1[0], S + 0.5 * dt * k1[1],
                            *tables, dq, lam)
        k3 = _reference_rhs(om + 0.5 * dt * k2[0], S + 0.5 * dt * k2[1],
                            *tables, dq, lam)
        k4 = _reference_rhs(om + dt * k3[0], S + dt * k3[1], *tables, dq, lam)
        om += dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        S += dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    return om, S


def test_batched_kernel_matches_the_written_out_equations_bitwise():
    grid, y, tables = _branch_batch()
    out = _run(y, grid, tables)
    assert not np.array_equal(out, y)
    for b in range(2):
        om, S = _reference_run(y[0, b], y[1, b], tables, grid.dq, 5e-4, 40)
        assert np.array_equal(out[0, b], om)
        assert np.array_equal(out[1, b], S)


def test_a_branch_run_alone_equals_its_row_of_the_batch_bitwise():
    grid, y, tables = _branch_batch()
    both = _run(y, grid, tables)
    for b in range(2):
        alone = _run(y[:, b:b + 1], grid, tables)
        assert alone.shape == (2, 1, grid.n)
        assert np.array_equal(alone[:, 0], both[:, b])


def test_swapping_the_branch_rows_swaps_the_outputs_bitwise():
    grid, y, tables = _branch_batch()
    out = _run(y, grid, tables)
    swapped = _run(y[:, ::-1], grid, tables)
    assert np.array_equal(swapped, out[:, ::-1])
