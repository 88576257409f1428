"""Classical system presets, the S-divergence and the symmetrically
ordered quantum Hamiltonian."""
from dataclasses import replace

import numpy as np
import pytest

from dense import dense
from stochaction.errors import ConfigurationError, NodeError, ShapeError
from stochaction.hamiltonian import (ClassicalSpec, QuantumOperator,
                                     build_naive_ordering,
                                     build_quantum_hamiltonian,
                                     classical_velocity, guidance_field,
                                     hermiticity_defect, make_system,
                                     require_wave_node_free, symmetrized)
from stochaction.kernels import tridiagonal_eigh
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
    evals = np.linalg.eigvalsh(dense(H))
    assert abs(evals[0] - 0.5) < 1e-3
    assert abs((evals[1] - evals[0]) - 1.0) < 1e-3


def test_sandwich_build_is_hermitian_for_variable_mass():
    grid = build_grid(256, -8.0, 8.0)
    spec = make_system("variable_mass", m=1.0, omega=1.0, beta=0.3)
    H = build_quantum_hamiltonian(spec, grid, 1.0)
    scale = np.max(np.abs(dense(H)))
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
    w0, w1 = (tridiagonal_eigh(H.diag, H.upper)[0] for H in (H0, H1))
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
    assert np.max(np.abs(dense(H) - expected)) < 1e-13


def test_spectrum_bounded_below_by_potential_minimum():
    grid = build_grid(256, -8.0, 8.0)
    spec = make_system("variable_mass", m=1.0, omega=1.0, beta=0.3)
    H = build_quantum_hamiltonian(spec, grid, 1.0)
    evals = np.linalg.eigvalsh(dense(H))
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
    w, V = tridiagonal_eigh(H.diag, H.upper)
    for a in (H.lower, H.diag, H.upper, dense(H), V):
        assert a.dtype == np.float64
    ref = np.linalg.eigvalsh(dense(H))
    # measured 7.3e-16 (beta = 2) and 1.1e-15 (beta = 0.3)
    assert np.max(np.abs(w - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.max(np.abs(dense(H) @ V - V * w)) <= 1e-12 * np.max(np.abs(ref))
    assert np.max(np.abs(V.T @ V - np.eye(grid.n))) < 1e-12


@pytest.mark.parametrize("preset,kw", TRIDIAGONAL_CASES)
def test_stencil_matches_dense_product(preset, kw):
    grid, H = _operator_64(preset, kw)
    rng = np.random.default_rng(5)
    psi = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
    ref = dense(H) @ psi
    assert np.max(np.abs(H.apply(psi) - ref)) <= 1e-13 * np.max(np.abs(ref))


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
        assert np.max(np.abs(dense(N) - dense(H))) < 1e-10


def test_unsymmetrized_ordering_breaks_hermiticity():
    grid = build_grid(256, -8.0, 8.0)
    spec = make_system("variable_mass", m=1.0, omega=1.0, beta=0.3)
    N = build_naive_ordering(spec, grid, 1.0, "g_pp")
    assert hermiticity_defect(N) > 1e-3


def test_naive_orderings_are_mutually_adjoint():
    grid = build_grid(256, -8.0, 8.0)
    spec = make_system("variable_mass", m=1.0, omega=1.0, beta=0.3)
    a = dense(build_naive_ordering(spec, grid, 1.0, "g_pp"))
    b = dense(build_naive_ordering(spec, grid, 1.0, "pp_g"))
    assert np.max(np.abs(a - b.conj().T)) < 1e-12


def test_a_symmetric_operator_is_its_own_symmetrization():
    grid = build_grid(64, -6.0, 6.0)
    spec = make_system("variable_mass", beta=0.3)
    H = build_quantum_hamiltonian(spec, grid, 1.0)
    assert symmetrized(H) is H
    # at constant g the naive builds are the sandwich, bit for bit
    spec = make_system("harmonic")
    assert np.array_equal(
        symmetrized(build_naive_ordering(spec, grid, 1.0, "g_pp")).upper,
        build_quantum_hamiltonian(spec, grid, 1.0).upper)


def test_both_naive_orderings_symmetrize_to_the_same_bits():
    # lower * upper is the same product in either order, so g_pp and its
    # transpose pp_g have one symmetric form: diagonal kept, off-diagonal
    # -sqrt(lower * upper), similar to each through a positive diagonal
    grid = build_grid(64, -6.0, 6.0)
    spec = make_system("variable_mass", beta=0.3)
    a, b = (symmetrized(build_naive_ordering(spec, grid, 1.0, ordering))
            for ordering in ("g_pp", "pp_g"))
    op = build_naive_ordering(spec, grid, 1.0, "g_pp")
    assert a.lower is a.upper and np.array_equal(a.diag, op.diag)
    assert np.array_equal(a.upper, -np.sqrt(op.lower * op.upper))
    for x, y in ((a.lower, b.lower), (a.diag, b.diag), (a.upper, b.upper)):
        assert x.tobytes() == y.tobytes()
    # D^-1 op D = a with D_k = prod_{j < k} a.upper_j / upper_j
    scale = np.concatenate(([1.0], np.cumprod(a.upper / op.upper)))
    similar = dense(op) * (scale[None, :] / scale[:, None])
    scale = np.max(np.abs(dense(a)))
    assert np.max(np.abs(similar - dense(a))) <= 1e-13 * scale


@pytest.mark.parametrize("factor", [-1.0, 0.0])
def test_a_link_whose_product_is_not_positive_is_refused(factor):
    grid = build_grid(64, -6.0, 6.0)
    op = build_naive_ordering(make_system("variable_mass", beta=0.3), grid,
                              1.0, "g_pp")
    lower = op.lower.copy()
    lower[31] *= factor
    with pytest.raises(ConfigurationError,
                       match=r"link 31 \(sites 31 and 32\) has lower \* "
                             r"upper = \S+ <= 0"):
        symmetrized(replace(op, lower=lower))


def test_naive_ordering_rejects_unknown_kind():
    grid = build_grid(64, -3.0, 3.0)
    with pytest.raises(ConfigurationError):
        build_naive_ordering(make_system("free"), grid, 1.0, "p_g_p")


# ---------------------------------------------------------------------------
# hermiticity defect


def test_hermiticity_defect_examples():
    grid = build_grid(16, 0.0, 1.0)

    def op(lower, upper):
        return QuantumOperator(lower=lower, diag=np.arange(16.0), upper=upper,
                               hbar_eff=1.0, grid=grid)

    zero = np.zeros(15)
    assert hermiticity_defect(op(zero, zero)) == 0.0
    links = np.linspace(-0.5, 0.5, 15)
    assert hermiticity_defect(op(links, links)) == 0.0
    # H[3, 4] = 1 and H[4, 3] = -1: |H - H^T| is 2 at both entries
    upper, lower = zero.copy(), zero.copy()
    upper[3], lower[3] = 1.0, -1.0
    assert hermiticity_defect(op(lower, upper)) == 2.0


def test_an_operators_defect_is_its_dense_matrixs_bit_for_bit():
    # read from the two off-diagonals: the diagonal and the off-band zeros
    # of the dense form add nothing to the maximum
    grid = build_grid(64, -3.0, 3.0)
    spec = make_system("variable_mass", m=1.0, omega=1.0, beta=0.3)
    H = build_quantum_hamiltonian(spec, grid, 1.0)
    lower = H.lower.copy()
    lower[grid.n // 2] *= -1.0
    ops = [H, replace(H, lower=lower),
           *(build_naive_ordering(spec, grid, 1.0, ordering)
             for ordering in ("g_pp", "pp_g"))]
    defects = [hermiticity_defect(op) for op in ops]
    assert defects == [float(np.max(np.abs(M - M.conj().T)))
                       for M in map(dense, ops)]
    assert defects[0] == 0.0 and min(defects[1:]) > 1e-3
