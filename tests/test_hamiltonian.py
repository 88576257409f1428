"""Classical system presets, the S-divergence and the symmetrically
ordered quantum Hamiltonian."""
from dataclasses import replace

import numpy as np
import pytest

from stochaction.errors import ConfigurationError, NodeError, ShapeError
from stochaction.hamiltonian import (ClassicalSpec, build_naive_ordering,
                                     build_quantum_hamiltonian,
                                     classical_velocity, guidance_field,
                                     hermiticity_defect, make_system,
                                     require_wave_node_free)
from stochaction.lattice import build_grid, gradient


# ---------------------------------------------------------------------------
# presets and the classical velocity field


def test_free_particle_velocity_is_p_over_m():
    spec = make_system("free", m=1.0)
    assert classical_velocity(0.3, 2.0, spec) == pytest.approx(2.0, abs=1e-15)


def test_variable_mass_velocity():
    spec = make_system("variable_mass", m=1.0, beta=1.0)   # g = 1/(1 + q^2)
    assert classical_velocity(1.0, 3.0, spec) == pytest.approx(1.5, abs=1e-14)


def test_make_system_rejects_unknown_preset_and_parameters():
    for name in ("anharmonic", "gauged"):
        with pytest.raises(ConfigurationError,
                           match=r"\['free', 'harmonic', 'variable_mass'\]"):
            make_system(name)
    with pytest.raises(ConfigurationError):
        make_system("free", omega=2.0)
    with pytest.raises(ConfigurationError):
        make_system("harmonic", m=-1.0)


# ---------------------------------------------------------------------------
# divergence of the S-velocity field


def theta_of_S(S, spec, grid):
    """Divergence of the action-gradient velocity field, d/dq[g dS/dq].

    This is the decay rate attached to each path segment; a uniformly
    compressing flow gives a positive constant.  Depends on S only through
    its gradient.  The ensemble's log-weight decay table is this gradient
    of the guidance table (stochastic._guidance_tables).
    """
    return gradient(guidance_field(S, spec, grid), grid)


def test_theta_vanishes_for_constant_S():
    grid = build_grid(128, -4.0, 4.0)
    spec = make_system("free")
    th = theta_of_S(np.full(grid.n, 2.3), spec, grid)
    assert np.max(np.abs(th)) == 0.0


def test_theta_vanishes_for_uniform_drift():
    grid = build_grid(128, -4.0, 4.0)
    spec = make_system("free")
    th = theta_of_S(0.7 * grid.points(), spec, grid)
    assert np.max(np.abs(th)) < 1e-13


def test_theta_of_quadratic_S_is_alpha_over_m():
    # S = alpha q^2 / 2 with g = 1/m gives a linear velocity field whose
    # divergence is alpha/m everywhere
    grid = build_grid(251, -5.0, 5.0)
    spec = make_system("free", m=2.0)
    alpha = 0.7
    th = theta_of_S(0.5 * alpha * grid.points() ** 2, spec, grid)
    assert np.max(np.abs(th - alpha / 2.0)) < 1e-10


def test_theta_depends_on_S_only_through_its_gradient():
    grid = build_grid(128, -4.0, 4.0)
    spec = make_system("harmonic")
    rng = np.random.default_rng(7)
    S = rng.standard_normal(grid.n)
    shifted = theta_of_S(S + 17.25, spec, grid)
    base = theta_of_S(S, spec, grid)
    assert np.max(np.abs(shifted - base)) < 1e-11


def test_theta_rejects_mismatched_shape():
    grid = build_grid(64, -1.0, 1.0)
    with pytest.raises(ShapeError):
        theta_of_S(np.zeros(63), make_system("free"), grid)


def test_wave_node_guard_sees_phase_winds_between_samples():
    # unit modulus at every sample; the chord between samples e^{i k phi}
    # and e^{i (k+1) phi} comes within cos(phi/2) of zero, so a half turn
    # per link hides a node and a quarter turn keeps |psi|^2 >= 1/2
    k = np.arange(64)
    with pytest.raises(NodeError):
        require_wave_node_free(np.exp(1j * np.pi * k))
    require_wave_node_free(np.exp(0.5j * np.pi * k))


# ---------------------------------------------------------------------------
# quantum Hamiltonian, symmetric ordering


def test_harmonic_ground_energy():
    grid = build_grid(512, -10.0, 10.0)
    spec = make_system("harmonic", m=1.0, omega=1.0)
    H = build_quantum_hamiltonian(spec, grid, 1.0)
    evals = np.linalg.eigvalsh(H.matrix)
    assert abs(evals[0] - 0.5) < 1e-3
    assert abs((evals[1] - evals[0]) - 1.0) < 1e-3


def test_sandwich_build_is_hermitian_for_variable_mass():
    grid = build_grid(256, -8.0, 8.0)
    spec = make_system("variable_mass", m=1.0, omega=1.0, beta=0.3)
    H = build_quantum_hamiltonian(spec, grid, 1.0)
    scale = np.max(np.abs(H.matrix))
    assert hermiticity_defect(H) <= 1e-12 * scale


def test_constant_potential_shift_moves_the_spectrum_by_the_shift():
    # a constant in V lands on the diagonal alone, so every level moves by
    # it and the links keep their bytes
    grid = build_grid(256, -9.0, 9.0)
    base = make_system("variable_mass", m=1.0, omega=1.0, beta=0.3)
    shifted = replace(base, V=lambda q: base.V(q) + 0.7)
    H0 = build_quantum_hamiltonian(base, grid, 1.0)
    H1 = build_quantum_hamiltonian(shifted, grid, 1.0)
    assert np.array_equal(H0.lower, H1.lower)
    assert np.array_equal(H0.upper, H1.upper)
    w0, w1 = H0.eigensystem[0], H1.eigensystem[0]
    assert np.max(np.abs(w1[:20] - w0[:20] - 0.7)) < 1e-12   # measured 1.6e-14


def test_constant_g_kinetic_matrix_is_three_point_laplacian():
    grid = build_grid(64, -3.0, 3.0)
    spec = make_system("free", m=2.0)
    H = build_quantum_hamiltonian(spec, grid, 1.0)
    gval = 0.5
    lap = (np.diag(np.full(grid.n, 2.0))
           + np.diag(np.full(grid.n - 1, -1.0), 1)
           + np.diag(np.full(grid.n - 1, -1.0), -1))
    expected = 0.5 * gval * lap / grid.dq ** 2
    assert np.max(np.abs(H.matrix - expected)) < 1e-13


def test_spectrum_bounded_below_by_potential_minimum():
    grid = build_grid(256, -8.0, 8.0)
    spec = make_system("variable_mass", m=1.0, omega=1.0, beta=0.3)
    evals = np.linalg.eigvalsh(build_quantum_hamiltonian(spec, grid, 1.0).matrix)
    assert evals[0] > -1e-9   # min V = 0


# parity of the three-diagonal storage with its dense form, under a
# position-dependent mass: a stiff one, whose g falls from 1 at the centre
# to 1/73 at the walls, and a mild one
TRIDIAGONAL_CASES = (("variable_mass", {"beta": 2.0, "omega": 0.5}),
                     ("variable_mass", {"beta": 0.3}))


def _operator_64(preset, kw):
    grid = build_grid(64, -6.0, 6.0)
    return grid, build_quantum_hamiltonian(make_system(preset, **kw), grid, 1.0)


@pytest.mark.parametrize("preset,kw", TRIDIAGONAL_CASES)
def test_tridiagonal_eigenvalues_match_dense(preset, kw):
    grid, H = _operator_64(preset, kw)
    w, V = H.eigensystem
    for a in (H.lower, H.diag, H.upper, H.matrix, V):
        assert a.dtype == np.float64
    dense = np.linalg.eigvalsh(H.matrix)
    # measured 7.3e-16 (beta = 2) and 1.1e-15 (beta = 0.3)
    assert np.max(np.abs(w - dense)) <= 1e-12 * np.max(np.abs(dense))
    assert np.max(np.abs(H.matrix @ V - V * w)) <= 1e-12 * np.max(np.abs(dense))
    assert np.max(np.abs(V.T @ V - np.eye(grid.n))) < 1e-12


@pytest.mark.parametrize("preset,kw", TRIDIAGONAL_CASES)
def test_stencil_matches_dense_product(preset, kw):
    grid, H = _operator_64(preset, kw)
    rng = np.random.default_rng(5)
    psi = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
    dense = H.matrix @ psi
    assert np.max(np.abs(H.apply(psi) - dense)) <= 1e-13 * np.max(np.abs(dense))


def test_eigendecomposition_needs_a_hermitian_operator():
    grid = build_grid(64, -6.0, 6.0)
    spec = make_system("variable_mass", beta=0.3)
    with pytest.raises(ConfigurationError):
        build_naive_ordering(spec, grid, 1.0, "g_pp").eigensystem


def test_build_rejects_nonpositive_inverse_mass():
    grid = build_grid(64, -3.0, 3.0)
    zero = lambda q: np.zeros_like(np.asarray(q, dtype=float))
    bad = ClassicalSpec(g=lambda q: -np.ones_like(np.asarray(q, dtype=float)),
                        V=zero, dg=zero, dV=zero)
    with pytest.raises(ConfigurationError):
        build_quantum_hamiltonian(bad, grid, 1.0)


def test_build_rejects_nonpositive_hbar():
    grid = build_grid(64, -3.0, 3.0)
    with pytest.raises(ConfigurationError):
        build_quantum_hamiltonian(make_system("free"), grid, 0.0)


# ---------------------------------------------------------------------------
# ordering contrast


def test_orderings_agree_for_constant_g():
    grid = build_grid(128, -6.0, 6.0)
    spec = make_system("harmonic", m=1.0, omega=1.0)
    H = build_quantum_hamiltonian(spec, grid, 1.0)
    for ordering in ("g_pp", "pp_g"):
        N = build_naive_ordering(spec, grid, 1.0, ordering)
        assert np.max(np.abs(N.matrix - H.matrix)) < 1e-10


def test_unsymmetrized_ordering_breaks_hermiticity():
    grid = build_grid(256, -8.0, 8.0)
    spec = make_system("variable_mass", m=1.0, omega=1.0, beta=0.3)
    N = build_naive_ordering(spec, grid, 1.0, "g_pp")
    assert hermiticity_defect(N) > 1e-3


def test_naive_orderings_are_mutually_adjoint():
    grid = build_grid(256, -8.0, 8.0)
    spec = make_system("variable_mass", m=1.0, omega=1.0, beta=0.3)
    a = build_naive_ordering(spec, grid, 1.0, "g_pp").matrix
    b = build_naive_ordering(spec, grid, 1.0, "pp_g").matrix
    assert np.max(np.abs(a - b.conj().T)) < 1e-12


def test_naive_ordering_rejects_unknown_kind():
    grid = build_grid(64, -3.0, 3.0)
    with pytest.raises(ConfigurationError):
        build_naive_ordering(make_system("free"), grid, 1.0, "p_g_p")


# ---------------------------------------------------------------------------
# hermiticity defect


def test_hermiticity_defect_examples():
    assert hermiticity_defect(np.zeros((4, 4))) == 0.0
    assert hermiticity_defect(np.diag([1.0, 2.0])) == 0.0
    anti = np.array([[0.0, 1j], [1j, 0.0]])
    assert hermiticity_defect(anti) == pytest.approx(2.0, abs=1e-15)


def test_hermiticity_defect_rejects_non_square():
    with pytest.raises(ShapeError):
        hermiticity_defect(np.zeros((3, 4)))
