"""Wave-state construction, implicit propagation, the eigen-decomposition
oracle, and wave-state moments."""
import numpy as np
import pytest
import scipy.linalg

from stochaction.errors import ConfigurationError, ShapeError
from stochaction.evolution import (WaveState, coherent_state, eigenpairs,
                                   energy_expectation, gaussian_packet,
                                   ground_state, l2_distance, norm_squared,
                                   normalized, propagate_crank_nicolson,
                                   propagate_eigen_oracle, spectral_filter)
from stochaction.hamiltonian import build_quantum_hamiltonian, make_system
from stochaction.lattice import build_grid, integrate


@pytest.fixture(scope="module")
def harmonic_256():
    grid = build_grid(256, -8.0, 8.0)
    spec = make_system("harmonic", m=1.0, omega=1.0)
    H = build_quantum_hamiltonian(spec, grid, 1.0)
    return grid, spec, H


def position_variance(state: WaveState) -> float:
    q = state.grid.points()
    rho = np.abs(state.psi) ** 2
    z = integrate(rho, state.grid)
    mu = integrate(q * rho, state.grid) / z
    return integrate((q - mu) ** 2 * rho, state.grid) / z


def _overlap(a: WaveState, b: WaveState) -> complex:
    w = np.full(a.grid.n, a.grid.dq)
    w[0] = w[-1] = a.grid.dq / 2.0
    return complex(np.sum(w * np.conj(a.psi) * b.psi))


def test_packet_constructors_are_normalized(harmonic_256):
    grid, _, _ = harmonic_256
    for st in (gaussian_packet(grid, sigma=0.7, momentum=0.4),
               coherent_state(grid, center=1.0)):
        assert norm_squared(st) == pytest.approx(1.0, abs=1e-10)


def test_zero_steps_returns_identical_state(harmonic_256):
    grid, _, H = harmonic_256
    st = coherent_state(grid, center=1.0)
    out = propagate_crank_nicolson(st, H, 1e-3, 0)
    assert np.array_equal(out.psi, st.psi)
    assert out.t == st.t


def test_propagation_rejects_bad_arguments(harmonic_256):
    grid, _, H = harmonic_256
    st = coherent_state(grid, center=1.0)
    with pytest.raises(ConfigurationError):
        propagate_crank_nicolson(st, H, -1e-3, 10)
    with pytest.raises(ConfigurationError):
        propagate_crank_nicolson(st, H, 1e-3, -1)
    other = build_quantum_hamiltonian(make_system("free"),
                                      build_grid(128, -8.0, 8.0), 1.0)
    with pytest.raises(ShapeError):
        propagate_crank_nicolson(st, other, 1e-3, 1)


def _refuse_to_compute(*args, **kwargs):
    raise AssertionError("a non-finite time reached the solver")


@pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf])
def test_crank_nicolson_refuses_a_non_finite_dt_before_it_factors(
        harmonic_256, monkeypatch, dt):
    # stepped, such a dt raised only once its non-finite result was seen
    grid, _, H = harmonic_256
    monkeypatch.setattr(scipy.linalg.lapack, "zgttrf", _refuse_to_compute)
    with pytest.raises(ConfigurationError, match="dt must be"):
        propagate_crank_nicolson(coherent_state(grid, center=1.0), H, dt, 10)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_eigen_oracle_refuses_a_non_finite_time_before_it_diagonalizes(
        monkeypatch, t):
    # propagated, such a t gave an all-NaN state and a RuntimeWarning
    grid, H, st = _small_case(*TRIDIAGONAL_CASES[1])
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", _refuse_to_compute)
    with pytest.raises(ConfigurationError, match="t must be finite"):
        propagate_eigen_oracle(st, H, t)


def test_ground_state_is_stationary_over_one_period(harmonic_256):
    grid, _, H = harmonic_256
    E0, gs = ground_state(H)
    fin = propagate_crank_nicolson(gs, H, 1e-3, 6283)
    assert abs(abs(_overlap(fin, gs)) - 1.0) < 1e-4   # measured 3.4e-14


def test_free_gaussian_width_after_spreading():
    # analytic width^2 at t: sigma0^2 (1 + (t / (2 sigma0^2))^2) -> 2 at t=2
    grid = build_grid(384, -12.0, 12.0)
    H = build_quantum_hamiltonian(make_system("free"), grid, 1.0)
    st = gaussian_packet(grid, sigma=1.0)
    out = propagate_crank_nicolson(st, H, 1e-3, 2000)
    assert abs(position_variance(out) - 2.0) / 2.0 < 0.01   # measured 4.9e-4


def test_eigen_oracle_at_zero_time_is_identity(harmonic_256):
    grid, _, H = harmonic_256
    st = coherent_state(grid, center=1.0)
    out = propagate_eigen_oracle(st, H, 0.0)
    assert np.max(np.abs(out.psi - st.psi)) < 1e-12


def test_eigen_oracle_evolves_eigenstate_by_pure_phase(harmonic_256):
    grid, _, H = harmonic_256
    evals, vecs = eigenpairs(H, 3)
    st = normalized(WaveState(psi=vecs[:, 2].astype(complex), grid=grid,
                              hbar_eff=1.0, t=0.0))
    out = propagate_eigen_oracle(st, H, 0.8)
    expected = st.psi * np.exp(-1j * evals[2] * 0.8)
    assert np.max(np.abs(out.psi - expected)) < 1e-10


def test_crank_nicolson_matches_eigen_oracle(harmonic_256):
    grid, _, H = harmonic_256
    st = coherent_state(grid, center=1.0)
    a = propagate_crank_nicolson(st, H, 1e-3, 1000)
    b = propagate_eigen_oracle(st, H, 1.0)
    dist = np.sqrt(integrate(np.abs(a.psi - b.psi) ** 2, grid))
    assert dist < 1e-4   # measured 6.7e-7


# parity of the banded Crank-Nicolson and the tridiagonal oracle with
# their dense formulas, under a position-dependent mass: a stiff one,
# whose g falls from 1 at the centre to 1/73 at the walls, and a mild one
TRIDIAGONAL_CASES = (("variable_mass", {"beta": 2.0, "omega": 0.5}),
                     ("variable_mass", {"beta": 0.3}))


def _small_case(preset, kw):
    """A moving packet on a 64-point grid under the operator of a preset."""
    grid = build_grid(64, -6.0, 6.0)
    H = build_quantum_hamiltonian(make_system(preset, **kw), grid, 1.0)
    return grid, H, gaussian_packet(grid, sigma=0.8, center=0.5, momentum=0.7)


@pytest.mark.parametrize("preset,kw", TRIDIAGONAL_CASES)
def test_eigen_oracle_matches_dense_exponential(preset, kw):
    grid, H, st = _small_case(preset, kw)
    for t in (0.3, 1.7):
        ref = scipy.linalg.expm(-1j * H.matrix * t) @ st.psi
        out = propagate_eigen_oracle(st, H, t).psi
        # measured 2.1e-15..2.8e-15
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("preset,kw", TRIDIAGONAL_CASES)
def test_banded_crank_nicolson_matches_dense_cayley(preset, kw):
    grid, H, st = _small_case(preset, kw)
    dt, steps = 1e-2, 50
    X = (0.5j * dt) * H.matrix
    eye = np.eye(grid.n)
    ref = st.psi
    for _ in range(steps):
        ref = np.linalg.solve(eye + X, (eye - X) @ ref)
    out = propagate_crank_nicolson(st, H, dt, steps).psi
    # measured 4.4e-15 (beta = 2) and 3.2e-15 (beta = 0.3)
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_eigendecomposition_is_computed_once_per_operator(monkeypatch):
    calls = []
    solver = scipy.linalg.eigh_tridiagonal

    def counted(*args, **kwargs):
        calls.append(1)
        return solver(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", counted)
    grid, H, st = _small_case(*TRIDIAGONAL_CASES[1])
    first = propagate_eigen_oracle(st, H, 0.5)
    second = propagate_eigen_oracle(st, H, 0.5)
    spectral_filter(st, H, 5.0)
    ground_state(H)
    eigenpairs(H, 3)
    assert len(calls) == 1
    assert np.array_equal(first.psi, second.psi)


def test_eigen_oracle_rejects_oversized_grids():
    grid = build_grid(1100, -8.0, 8.0)
    H = build_quantum_hamiltonian(make_system("free"), grid, 1.0)
    st = gaussian_packet(grid, sigma=1.0)
    with pytest.raises(ConfigurationError):
        propagate_eigen_oracle(st, H, 0.5)


def test_ground_state_energies():
    grid = build_grid(512, -10.0, 10.0)
    H = build_quantum_hamiltonian(make_system("harmonic"), grid, 1.0)
    E0, gs = ground_state(H)
    assert abs(E0 - 0.5) < 1e-3
    assert norm_squared(gs) == pytest.approx(1.0, abs=1e-10)
    mid = grid.n // 2
    assert gs.psi[mid].real > 0 and abs(gs.psi[mid].imag) < 1e-12


def test_free_particle_box_ground_energy_is_positive():
    grid = build_grid(128, -6.0, 6.0)
    H = build_quantum_hamiltonian(make_system("free"), grid, 1.0)
    E0, _ = ground_state(H)
    assert E0 > 0.0


def test_norm_drift_stays_tiny_for_every_preset():
    for preset, kw in (("free", {}), ("harmonic", {}),
                       ("variable_mass", {"beta": 0.3})):
        spec = make_system(preset, **kw)
        grid = build_grid(128, -8.0, 8.0)
        H = build_quantum_hamiltonian(spec, grid, 1.0)
        st = gaussian_packet(grid, sigma=1.0)
        out = propagate_crank_nicolson(st, H, 1e-3, 1000)
        assert abs(norm_squared(out) - norm_squared(st)) < 1e-10


def test_energy_is_conserved_over_unit_time(harmonic_256):
    grid, _, H = harmonic_256
    st = coherent_state(grid, center=1.0)
    out = propagate_crank_nicolson(st, H, 1e-3, 1000)
    e0 = energy_expectation(st, H)
    e1 = energy_expectation(out, H)
    assert abs(e1 - e0) / abs(e0) < 1e-6   # measured 1.5e-14


def test_action_scale_and_time_rescale_together():
    # doubling the action scale and halving the time (with the initial
    # phase doubled so the complex field starts identical) leaves the
    # density unchanged for free motion
    grid = build_grid(384, -12.0, 12.0)
    spec = make_system("free")
    p0 = 0.7
    a = gaussian_packet(grid, sigma=1.0, momentum=p0, hbar_eff=1.0)
    b = gaussian_packet(grid, sigma=1.0, momentum=2 * p0, hbar_eff=2.0)
    Ha = build_quantum_hamiltonian(spec, grid, 1.0)
    Hb = build_quantum_hamiltonian(spec, grid, 2.0)
    ra = propagate_crank_nicolson(a, Ha, 1e-3, 1000)
    rb = propagate_crank_nicolson(b, Hb, 1e-3, 500)
    assert np.max(np.abs(np.abs(ra.psi) ** 2 - np.abs(rb.psi) ** 2)) < 1e-6


def test_spectral_filter_caps_the_occupied_band(harmonic_256):
    grid, _, H = harmonic_256
    st = coherent_state(grid, center=1.0)
    cut = spectral_filter(st, H, 2.6)
    assert norm_squared(cut) == pytest.approx(1.0, abs=1e-10)
    assert energy_expectation(cut, H) <= 2.6
    # a cut above the whole occupied band is a no-op
    loose = spectral_filter(st, H, 60.0)
    assert np.max(np.abs(loose.psi - st.psi)) < 1e-10


def test_l2_distance_is_a_metric_basics():
    grid = build_grid(64, -2.0, 2.0)
    f = np.exp(-grid.points() ** 2)
    assert l2_distance(f, f, grid) == 0.0
    g = np.roll(f, 3)
    assert l2_distance(f, g, grid) == pytest.approx(
        l2_distance(g, f, grid), abs=1e-15)
