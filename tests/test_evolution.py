"""Wave-state construction, implicit propagation, the eigen-decomposition
oracle, and wave-state moments."""
from dataclasses import replace

import numpy as np
import pytest

from dense import dense
from stochaction import evolution, kernels
from stochaction.errors import ConfigurationError, ShapeError
from stochaction.evolution import (WaveState, coherent_state, eigenpairs,
                                   energy_expectation, gaussian_packet,
                                   ground_state, l2_distance, norm_squared,
                                   normalized, propagate_crank_nicolson,
                                   propagate_eigen_oracle, spectral_filter)
from stochaction.hamiltonian import (build_naive_ordering,
                                     build_quantum_hamiltonian, make_system)
from stochaction.harness import _every, _steps, _wave_setup, resolve_config
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


@pytest.mark.parametrize("mismatch", ("hbar", "bounds"))
@pytest.mark.parametrize("propagate", (
    lambda st, H: propagate_crank_nicolson(st, H, 1e-3, 1),
    lambda st, H: propagate_eigen_oracle(st, H, 0.1),
    lambda st, H: spectral_filter(st, H, 5.0)), ids=("cn", "oracle", "filter"))
def test_a_state_from_another_operator_is_refused(harmonic_256, mismatch,
                                                  propagate):
    # the time phase comes from the state's hbar and grid, the energies
    # from the operator's: a mismatch would propagate under the wrong
    # generator.  Each differs in one thing, with the operator's n
    grid, _, H = harmonic_256
    if mismatch == "hbar":
        st = coherent_state(grid, center=1.0, hbar_eff=2.0)
        match = "hbar_eff 1.0 is not the state's 2.0"
    else:
        st = coherent_state(build_grid(grid.n, -7.0, 7.0), center=1.0)
        match = "the operator's grid .* is not the state's"
    with pytest.raises(ConfigurationError, match=match):
        propagate(st, H)


def _refuse_to_compute(*args, **kwargs):
    raise AssertionError("the solver was reached")


def _refuse_lapack(monkeypatch):
    """Every LAPACK routine of the wave layer raises AssertionError."""
    lapack = kernels._lapack()
    monkeypatch.setattr(kernels, "_lapack_loaded", replace(
        lapack, functions=dict.fromkeys(lapack.functions, _refuse_to_compute)))


@pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf])
def test_crank_nicolson_refuses_a_non_finite_dt_before_it_factors(
        harmonic_256, monkeypatch, dt):
    # stepped, such a dt raised only once its non-finite result was seen
    grid, _, H = harmonic_256
    state = coherent_state(grid, center=1.0)
    _refuse_lapack(monkeypatch)
    with pytest.raises(ConfigurationError, match="dt must be"):
        propagate_crank_nicolson(state, H, dt, 10)
    # and a finite dt does reach the factorization
    with pytest.raises(AssertionError, match="the solver was reached"):
        propagate_crank_nicolson(state, H, 1e-3, 10)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["time", "alone", "first", "middle", "last"])
def test_eigen_oracle_refuses_a_non_finite_time_before_it_diagonalizes(
        monkeypatch, bad, where):
    # propagated, such a t gave an all-NaN state and a RuntimeWarning; in
    # a series, one such time refuses the whole series
    t = {"time": bad, "alone": [bad], "first": [bad, 0.5],
         "middle": [0.1, bad, 0.2], "last": [0.5, bad]}[where]
    grid, H, st = _small_case(*TRIDIAGONAL_CASES[1])
    _refuse_lapack(monkeypatch)
    with pytest.raises(ConfigurationError, match="t must be finite"):
        propagate_eigen_oracle(st, H, t)
    # and a finite time does reach the eigensolver
    with pytest.raises(AssertionError, match="the solver was reached"):
        propagate_eigen_oracle(st, H, 0.5)


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
    # the dense reference: numpy's eigendecomposition of the n x n matrix
    w, V = np.linalg.eigh(dense(H))
    for t in (0.3, 1.7):
        ref = V @ (np.exp(-1j * w * t) * (V.T @ st.psi))
        out = propagate_eigen_oracle(st, H, t).psi
        # measured 2.3e-15..1.2e-14 of the largest |ref|
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("preset,kw", TRIDIAGONAL_CASES)
def test_banded_crank_nicolson_matches_dense_cayley(preset, kw):
    grid, H, st = _small_case(preset, kw)
    dt, steps = 1e-2, 50
    X = (0.5j * dt) * dense(H)
    eye = np.eye(grid.n)
    ref = st.psi
    for _ in range(steps):
        ref = np.linalg.solve(eye + X, (eye - X) @ ref)
    out = propagate_crank_nicolson(st, H, dt, steps).psi
    # measured 4.4e-15 (beta = 2) and 3.2e-15 (beta = 0.3)
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


def _solved_modes(monkeypatch) -> list:
    """The mode counts of evolution's solves, in order, from here on: k
    for an index solve, "all" for the full solve."""
    modes = []
    solve = evolution.tridiagonal_eigh

    def count(d, e, k=None):
        modes.append("all" if k is None else k)
        return solve(d, e, k=k)
    monkeypatch.setattr(evolution, "tridiagonal_eigh", count)
    return modes


def test_no_solve_is_cached(monkeypatch):
    # free_gaussian's filter and its oracle each solve the 16 lowest modes
    # anew, as often as they are called, and an oracle call gives the bits
    # of the last.  The ground state and eigenpairs solve by index, each
    # with a call of its own
    solved = _solved_modes(monkeypatch)
    cfg = resolve_config("evolve", {"run.scenario": "free_gaussian"})
    _, _, H, st = _wave_setup(cfg)
    assert solved == [16]
    first = propagate_eigen_oracle(st, H, 0.5)
    second = propagate_eigen_oracle(st, H, 0.5)
    series = propagate_eigen_oracle(st, H, [0.25, 0.5])
    assert solved == [16, 16, 16, 16]
    assert first.psi.tobytes() == second.psi.tobytes()
    assert series[1].psi.tobytes() == first.psi.tobytes()
    solved.clear()
    ground_state(H)
    eigenpairs(H, 3)
    assert solved == [1, 3]


def _oracle_case(case: str):
    """(H, state, times): propagator_quality's packet and record times at
    n = 512 or 1024, or that packet moved to 2.0 with momentum 1.0, or the
    coherent state at 1.0 on harmonic_256's grid, whose hard walls cut its
    tails at 7 widths."""
    if case == "harmonic_256":
        grid = build_grid(256, -8.0, 8.0)
        H = build_quantum_hamiltonian(make_system("harmonic"), grid, 1.0)
        return H, coherent_state(grid, center=1.0), [0.0, 0.3, 1.0, 1.7]
    n, *moved = case.split("_")
    overrides = {"run.scenario": "propagator_quality", "grid.n": int(n)}
    if moved:
        overrides.update({"state.center": 2.0, "state.momentum": 1.0})
    cfg = resolve_config("evolve", overrides)
    _, _, H, st = _wave_setup(cfg)
    return H, st, [b * cfg["time.dt"] for b in _every(_steps(cfg), 10)]


@pytest.mark.parametrize("case,modes", [
    ("512", [16]), ("1024", [16]), ("512_moved", [16, 32, 64]),
    ("harmonic_256", [16, 32, 64, 128, "all"])])
def test_the_oracle_solves_only_the_modes_its_state_needs(monkeypatch, case,
                                                          modes):
    # the doubling stops at the first k that holds the state, and its last
    # step, at k = n, is the full solve; the states equal the full solve's
    H, st, times = _oracle_case(case)
    solved = _solved_modes(monkeypatch)
    out = propagate_eigen_oracle(st, H, times)
    assert solved == modes
    w, V = kernels.tridiagonal_eigh(H.diag, H.upper)
    coeff = V.T @ st.psi
    for t, state in zip(times, out):
        ref = V @ (np.exp(-1j * w * t / st.hbar_eff) * coeff)
        # measured 2.8e-13 (512), 1.9e-13 (1024), 2.9e-15 (512_moved) and
        # 1.8e-15 (harmonic_256); the 16 lowest modes alone are 7.5e-5 and
        # 9.9e-11 off on the last two
        assert np.max(np.abs(state.psi - ref)) < 1e-11


def test_a_state_that_needs_every_mode_reaches_k_equal_n(monkeypatch):
    # a random complex vector spreads over the whole spectrum: 64 modes
    # leave 0.39 of its weight out, and only all n hold it.  At n = 96 the
    # doubling 16, 32, 64 ends in the full solve
    grid = build_grid(96, -6.0, 6.0)
    H = build_quantum_hamiltonian(make_system("variable_mass", beta=0.3),
                                  grid, 1.0)
    rng = np.random.default_rng(20)
    st = WaveState(psi=rng.standard_normal(96) + 1j * rng.standard_normal(96),
                   hbar_eff=1.0, t=0.0, grid=grid)
    solved = _solved_modes(monkeypatch)
    w, V = np.linalg.eigh(dense(H))
    for t in (0.3, 1.7):
        ref = V @ (np.exp(-1j * w * t) * (V.T @ st.psi))
        out = propagate_eigen_oracle(st, H, t).psi
        # measured 4.1e-14 and 3.9e-14 of the largest |ref|
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert solved == 2 * [16, 32, 64, "all"]


# the oracle's states at each registry grid size the wave layer reaches:
# the polar chains' (classical_limit 96, harmonic_stationary 384,
# harmonic_coherent 640, free_gaussian 768), propagator_quality's 512, and
# the benchmark's propagator_quality at SPECTRAL_MAX_N
@pytest.mark.parametrize("scenario,n", [
    ("classical_limit", 96), ("harmonic_stationary", 384),
    ("propagator_quality", 512), ("harmonic_coherent", 640),
    ("free_gaussian", 768), ("propagator_quality", 1024)])
def test_an_oracle_series_is_one_call_per_time_bit_for_bit(scenario, n):
    cfg = resolve_config("evolve", {"run.scenario": scenario, "grid.n": n})
    _, grid, H, st = _wave_setup(cfg)
    assert grid.n == n
    times = [b * cfg["time.dt"] for b in [0, *_every(_steps(cfg), 10)]]
    series = propagate_eigen_oracle(st, H, times)
    assert len(series) == len(times) == 11
    for t, out in zip(times, series):
        one = propagate_eigen_oracle(st, H, t)
        assert out.psi.tobytes() == one.psi.tobytes()
        assert out.t == one.t == t
    assert propagate_eigen_oracle(st, H, []) == []
    as_array = propagate_eigen_oracle(st, H, np.array(times))
    assert [s.psi.tobytes() for s in as_array] == [s.psi.tobytes() for s in series]


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


def test_spectral_filter_caps_the_occupied_band(harmonic_256, monkeypatch):
    grid, _, H = harmonic_256
    st = coherent_state(grid, center=1.0)
    cut = spectral_filter(st, H, 2.6)
    assert norm_squared(cut) == pytest.approx(1.0, abs=1e-10)
    assert energy_expectation(cut, H) <= 2.6
    # a cut above the whole occupied band is a no-op.  The doubling stops
    # at the first solve whose top level lies above the cut (85.0 at
    # k = 64), and a cut above every level ends in the full solve
    solved = _solved_modes(monkeypatch)
    for e_cut, modes in ((60.0, [16, 32, 64]),
                         (1e6, [16, 32, 64, 128, "all"])):
        solved.clear()
        loose = spectral_filter(st, H, e_cut)
        assert solved == modes
        # measured 6.4e-12 (60.0) and 3.0e-15 (1e6)
        assert np.max(np.abs(loose.psi - st.psi)) < 1e-10


def test_l2_distance_is_a_metric_basics():
    grid = build_grid(64, -2.0, 2.0)
    f = np.exp(-grid.points() ** 2)
    assert l2_distance(f, f, grid) == 0.0
    g = np.roll(f, 3)
    assert l2_distance(f, g, grid) == pytest.approx(
        l2_distance(g, f, grid), abs=1e-15)


# the registry's low-passed scenarios: each filters its packet at its
# state.ecut
LOW_PASSED = [("evolve", "free_gaussian"), ("evolve", "harmonic_coherent"),
              ("evolve", "classical_limit"), ("equivariance", "bohmian")]


def _solves(monkeypatch) -> list:
    """The (w, V) of each of evolution's eigenpairs calls, from here on."""
    solves = []
    solve = evolution.eigenpairs

    def keep(H, k):
        solves.append(solve(H, k))
        return solves[-1]
    monkeypatch.setattr(evolution, "eigenpairs", keep)
    return solves


@pytest.mark.parametrize("command,scenario", LOW_PASSED)
def test_the_filter_keeps_the_full_solves_levels_at_each_registry_cutoff(
        monkeypatch, command, scenario):
    cfg = resolve_config(command, {"run.scenario": scenario})
    e_cut = cfg["state.ecut"]
    solves = _solves(monkeypatch)
    _, _, H, _ = _wave_setup(cfg)
    # one solve of the 16 lowest modes reaches above each cutoff
    assert [len(w) for w, _ in solves] == [16]
    w, V = solves[0]
    assert w[-1] > e_cut
    full_w, full_V = kernels.tridiagonal_eigh(H.diag, H.upper)
    k = np.count_nonzero(w <= e_cut)
    assert k == np.count_nonzero(full_w <= e_cut)
    # no level sits near a cut, where the two solves' 1e-12 differences
    # could move it across: the nearest is classical_limit's, 4.9e-3 below
    assert min(e_cut - full_w[k - 1], full_w[k] - e_cut) > 4.8e-3
    # levels measured within 1.5e-12 (free_gaussian, harmonic_coherent),
    # vectors within 2.8e-13 (free_gaussian)
    assert np.max(np.abs(w[:k] - full_w[:k])) < 1e-11
    signs = np.sign(np.sum(V[:, :k] * full_V[:, :k], axis=0))
    assert np.max(np.abs(V[:, :k] - signs * full_V[:, :k])) < 1e-11


@pytest.mark.parametrize("command,scenario", LOW_PASSED)
def test_a_low_passed_registry_state_leaves_its_16_lowest_modes_next_to_nothing(
        monkeypatch, command, scenario):
    # the residual |psi - V V^T psi|^2 of the oracle's own first solve,
    # which is what its guard reads: measured 2.4e-31 (classical_limit)
    # to 4.3e-30 (free_gaussian), at most 4.3e-4 of ORACLE_LEAK_MAX;
    # weight - |V^T psi|^2 read 8.3e-16 on free_gaussian, the floor of a
    # difference of two numbers near 1
    _, _, H, st = _wave_setup(resolve_config(command, {"run.scenario": scenario}))
    solves = _solves(monkeypatch)
    propagate_eigen_oracle(st, H, 0.5)
    assert [len(w) for w, _ in solves] == [16]
    V = solves[0][1]
    coeff = evolution._real_matvec(V.T, st.psi)
    weight = np.vdot(st.psi, st.psi).real
    assert evolution._unheld(st.psi, V, coeff) <= 1e-28 * weight


@pytest.mark.parametrize("leak,modes", [(1e-25, [16, 32]), (1e-27, [16])])
def test_the_oracle_resolves_a_leak_far_below_roundoff(monkeypatch, leak,
                                                       modes):
    # classical_limit's filtered packet plus a component in modes 17 to 32
    # of `leak` of its weight: 1e-25 sends the oracle on to k = 32 and
    # 1e-27 does not, both far below the 1e-16 that weight - |V^T psi|^2
    # can resolve
    cfg = resolve_config("evolve", {"run.scenario": "classical_limit"})
    _, _, H, st = _wave_setup(cfg)
    V = eigenpairs(H, 32)[1][:, 16:]
    outside = V @ np.random.default_rng(7).standard_normal(16)
    weight = np.vdot(st.psi, st.psi).real
    psi = st.psi + np.sqrt(leak * weight / (outside @ outside)) * outside
    solved = _solved_modes(monkeypatch)
    out = propagate_eigen_oracle(replace(st, psi=psi), H, 0.0)
    assert solved == modes
    assert np.max(np.abs(out.psi - psi)) < 1e-12


def test_eigenpairs_match_the_full_solve_and_refuse_k_outside_1_to_n():
    # an index solve of classical_limit's operator has the full solve's
    # levels (measured within 4.3e-13 relative), and k = n is the full
    # solve itself
    cfg = resolve_config("evolve", {"run.scenario": "classical_limit"})
    _, grid, H, _ = _wave_setup(cfg)
    w, V = eigenpairs(H, 5)
    assert V.shape == (grid.n, 5)
    full = kernels.tridiagonal_eigh(H.diag, H.upper)
    np.testing.assert_allclose(w, full[0][:5], rtol=1e-12, atol=0)
    assert ground_state(H)[0] == eigenpairs(H, 1)[0][0]
    for k in (0, grid.n + 1):
        with pytest.raises(ConfigurationError,
                           match=rf"the {k} lowest modes of an n = 96 "
                                 r"matrix: a mode count must lie in 1\.\.n"):
            eigenpairs(H, k)
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip(eigenpairs(H, grid.n), full))


def test_eigenpairs_refuse_a_non_symmetric_operator():
    grid = build_grid(64, -6.0, 6.0)
    op = build_naive_ordering(make_system("variable_mass", beta=0.3), grid,
                              1.0, "g_pp")
    with pytest.raises(ConfigurationError, match="symmetric operator"):
        eigenpairs(op, 3)
