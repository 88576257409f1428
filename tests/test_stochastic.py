"""Signed action-scale sources, exponential action deviations, segment
weights, microscopic/effective velocities, and guided ensembles."""
import numpy as np
import pytest

from stochaction.errors import ConfigurationError, NodeError, ShapeError
from stochaction.evolution import (coherent_state, gaussian_packet,
                                   propagate_crank_nicolson, spectral_filter)
from stochaction.hamiltonian import build_quantum_hamiltonian, make_system
from stochaction.lattice import build_grid, gradient
from stochaction.classical import PhasePoint, action_of_path, integrate_path
from stochaction import stochastic
from stochaction.stochastic import (ActionSegment, LambdaSource,
                                    bohmian_velocity, build_wave_frames,
                                    classical_action_increment, draw_segments,
                                    effective_velocity, init_ensemble,
                                    microscopic_velocity, propagate_ensemble,
                                    sample_action_deviation, sample_lambda,
                                    sample_positions_from_density,
                                    segment_weight, tv_distance)

N_DRAWS = 1_000_000


# ---------------------------------------------------------------------------
# scale sources


def test_binary_source_is_unbiased_with_exact_magnitude():
    src = LambdaSource(kind="binary", hbar=1.0, seed=20)
    lam = sample_lambda(src, N_DRAWS)
    assert np.all(np.abs(lam) == 1.0)
    assert abs(np.mean(lam)) < 0.004   # 4 sigma of a fair coin at this N


def test_sphere_source_is_unbiased_with_exact_magnitude():
    src = LambdaSource(kind="sphere", hbar=1.0, seed=21)
    lam = sample_lambda(src, N_DRAWS)
    assert np.all(np.abs(lam) == 1.0)
    assert abs(np.mean(np.sign(lam))) < 0.004


def test_smeared_source_with_zero_width_reduces_to_binary():
    binary = LambdaSource(kind="binary", hbar=1.0, seed=22)
    smeared = LambdaSource(kind="smeared", hbar=1.0, width=0.0, seed=22)
    a = sample_lambda(binary, 4096)
    b = sample_lambda(smeared, 4096)
    assert np.array_equal(a, b)


def test_smeared_source_magnitude_stays_inside_its_band():
    src = LambdaSource(kind="smeared", hbar=1.0, width=0.2, seed=23)
    lam = sample_lambda(src, N_DRAWS)
    lo, hi = 1.0 - 0.2 * np.sqrt(3.0), 1.0 + 0.2 * np.sqrt(3.0)
    mags = np.abs(lam)
    assert np.min(mags) >= lo - 1e-12 and np.max(mags) <= hi + 1e-12
    assert mags.min() > 0.0
    assert abs(np.mean(np.sign(lam))) < 0.004


def test_source_rejects_invalid_parameters():
    with pytest.raises(ConfigurationError):
        LambdaSource(kind="gaussian")
    with pytest.raises(ConfigurationError):
        LambdaSource(kind="binary", hbar=0.0)
    with pytest.raises(ConfigurationError):
        LambdaSource(kind="binary", width=0.1)
    with pytest.raises(ConfigurationError):
        # the magnitude band would reach zero
        LambdaSource(kind="smeared", hbar=1.0, width=0.6)


def test_sample_lambda_is_deterministic_per_key():
    src = LambdaSource(kind="binary", hbar=1.0, seed=3)
    a = sample_lambda(src, 1000, step=5)
    b = sample_lambda(src, 1000, step=5)
    assert np.array_equal(a, b)
    c = sample_lambda(src, 1000, step=6)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# exponential action deviations


def test_deviation_sign_follows_the_scale_sign():
    dev_plus = sample_action_deviation(np.full(N_DRAWS, 1.0), seed=30)
    dev_minus = sample_action_deviation(np.full(N_DRAWS, -1.0), seed=31)
    assert np.all(dev_plus >= 0.0)
    assert np.all(dev_minus <= 0.0)


def test_deviation_mean_is_half_the_scale():
    for lam, seed in ((0.5, 32), (1.0, 33), (2.0, 34)):
        dev = sample_action_deviation(np.full(N_DRAWS, lam), seed=seed)
        assert abs(np.mean(dev) - lam / 2.0) / (lam / 2.0) < 0.005


def test_deviation_tail_is_memoryless():
    dev = sample_action_deviation(np.full(N_DRAWS, 1.0), seed=35)
    ratio = np.count_nonzero(dev > 1.0) / np.count_nonzero(dev > 0.5)
    assert abs(ratio - np.exp(-1.0)) / np.exp(-1.0) < 0.02


def test_deviation_rejects_zero_scale():
    with pytest.raises(ConfigurationError):
        sample_action_deviation(0.0)


def test_scalar_scale_with_n_equals_an_array_of_copies_bitwise():
    # the harness passes lam and n rather than n copies of lam
    n = 131077
    for lam in (0.5, -2.0):
        a = sample_action_deviation(lam, n, seed=36, step=1)
        b = sample_action_deviation(np.full(n, lam), seed=36, step=1)
        assert a.shape == (n,) and a.tobytes() == b.tobytes()


def test_scalar_deviation_round_trip():
    d = sample_action_deviation(-2.0, seed=4, step=9)
    assert isinstance(d, float) and d <= 0.0


# ---------------------------------------------------------------------------
# action increments and segment weights


def test_free_particle_increment():
    spec = make_system("free", m=1.0)
    assert classical_action_increment(0.0, 1.0, spec, 0.1) == pytest.approx(
        0.05, abs=1e-15)


def test_increment_vanishes_at_rest_at_the_well_bottom():
    spec = make_system("harmonic")
    assert classical_action_increment(0.0, 0.0, spec, 0.1) == 0.0


def test_increment_rejects_nonpositive_dt():
    spec = make_system("free")
    with pytest.raises(ConfigurationError):
        classical_action_increment(0.0, 1.0, spec, 0.0)
    with pytest.raises(ConfigurationError):
        classical_action_increment(0.0, 1.0, spec, -0.1)


def test_midpoint_increment_sum_matches_path_action_at_second_order():
    # midpoint-sampled increments vs the trapezoid path action: the
    # difference is 0.0737 dt^2 on this trajectory (measured at two
    # resolutions)
    spec = make_system("harmonic")
    diffs = []
    for dt in (1e-2, 5e-3):
        steps = int(round(1.0 / dt))
        path = integrate_path(PhasePoint(0.8, 0.3), spec, dt, steps)
        qm = 0.5 * (path.qs[1:] + path.qs[:-1])
        pm = 0.5 * (path.ps[1:] + path.ps[:-1])
        total = sum(classical_action_increment(float(q), float(p), spec, dt)
                    for q, p in zip(qm, pm))
        diffs.append(abs(total - action_of_path(path, spec)) / dt ** 2)
    assert diffs[0] == pytest.approx(0.0737, abs=0.005)
    assert diffs[1] == pytest.approx(0.0737, abs=0.005)


def test_segment_weight_is_one_for_uniform_flow():
    grid = build_grid(128, -4.0, 4.0)
    spec = make_system("free")
    S = 0.7 * grid.points()
    assert segment_weight(S, spec, grid, 0.3, 0.5) == pytest.approx(1.0, abs=1e-12)


def test_segment_weight_of_compressing_flow():
    # theta = alpha/m from S = alpha q^2 / 2: weight e^{-alpha dt / m} < 1
    grid = build_grid(251, -5.0, 5.0)
    spec = make_system("free", m=2.0)
    alpha = 0.7
    S = 0.5 * alpha * grid.points() ** 2
    w = segment_weight(S, spec, grid, 0.3, 0.0)
    assert w == pytest.approx(np.exp(-alpha * 0.3 / 2.0), abs=1e-10)
    assert w < 1.0


def test_segment_weight_tends_to_one_as_dt_vanishes():
    grid = build_grid(251, -5.0, 5.0)
    spec = make_system("free", m=2.0)
    S = 0.35 * grid.points() ** 2
    assert segment_weight(S, spec, grid, 0.0, 0.0) == 1.0
    assert abs(segment_weight(S, spec, grid, 1e-12, 0.0) - 1.0) < 1e-10


def test_drawn_segments_respect_the_sign_constraint():
    grid = build_grid(128, -4.0, 4.0)
    spec = make_system("harmonic")
    S = 0.1 * grid.points() ** 2
    src = LambdaSource(kind="binary", hbar=1.0, seed=8)
    segs = draw_segments(0.4, 0.9, spec, grid, S, 1e-2, src, 500)
    assert len(segs) == 500
    for s in segs:
        assert s.deviation * np.sign(s.lam) >= 0.0
        assert s.weight > 0.0


def test_action_segment_rejects_sign_violations():
    with pytest.raises(ConfigurationError):
        ActionSegment(dS=0.0, dS_classical=0.1, lam=1.0, weight=1.0)
    with pytest.raises(ConfigurationError):
        ActionSegment(dS=0.2, dS_classical=0.1, lam=1.0, weight=0.0)


# ---------------------------------------------------------------------------
# velocities


def test_microscopic_velocity_with_flat_density_is_classical():
    grid = build_grid(128, -4.0, 4.0)
    spec = make_system("free", m=2.0)
    S = 0.6 * grid.points()
    v = microscopic_velocity(0.5, S, np.full(grid.n, 0.25), 1.0, spec, grid)
    assert v == pytest.approx(0.3, abs=1e-12)
    # on every grid point, a curved S and lam = 1: g dS/dq, g = 1/2
    q = grid.points()
    S = np.sin(q)
    v = microscopic_velocity(q, S, np.full(grid.n, 0.8), 1.0, spec, grid)
    assert np.max(np.abs(v - 0.5 * gradient(S, grid))) < 1e-13


def test_microscopic_velocity_of_gaussian_density():
    # flat S, unit Gaussian density, lam = 1: the osmotic part is the half
    # log-derivative -q/2, -0.5 at q = 1; checked on the grid points of the
    # core, where the finite difference is second-order accurate (measured
    # 2.7e-4 at dq = 0.04)
    grid = build_grid(251, -5.0, 5.0)
    spec = make_system("free")
    q = grid.points()
    Om = np.exp(-q ** 2 / 2.0)
    v = microscopic_velocity(1.0, np.zeros(grid.n), Om, 1.0, spec, grid)
    assert v == pytest.approx(-0.5, abs=1e-3)
    core = q[np.abs(q) <= 2.0]
    v = microscopic_velocity(core, np.zeros(grid.n), Om, 1.0, spec, grid)
    assert np.max(np.abs(v + core / 2.0)) < 1e-3


def test_signed_velocity_average_is_the_guidance_field():
    grid = build_grid(251, -5.0, 5.0)
    spec = make_system("free")
    q = grid.points()
    S = np.sin(q)
    Om = np.exp(-q ** 2 / 2.0)
    # between grid points and on every one of them
    probes = np.concatenate([[-1.5, -0.25, 0.0, 0.8, 1.9], q])
    v_plus = microscopic_velocity(probes, S, Om, 1.0, spec, grid)
    v_minus = microscopic_velocity(probes, S, Om, -1.0, spec, grid)
    from stochaction.lattice import interp_linear
    v_ref = interp_linear(gradient(S, grid), grid, probes)
    assert np.max(np.abs(effective_velocity(v_plus, v_minus) - v_ref)) < 1e-14


def test_effective_velocity_examples():
    assert effective_velocity(2.0, 0.0) == 1.0
    assert effective_velocity(0.37, 0.37) == 0.37


def test_microscopic_velocity_rejects_nodes():
    grid = build_grid(321, -8.0, 8.0)
    spec = make_system("free")
    Om = np.exp(-grid.points() ** 2 / 2.0)   # tails under the node floor
    with pytest.raises(NodeError):
        microscopic_velocity(0.0, np.zeros(grid.n), Om, 1.0, spec, grid)


def test_bohmian_velocity_of_real_state_is_zero():
    grid = build_grid(128, -6.0, 6.0)
    spec = make_system("free")
    st = gaussian_packet(grid, sigma=0.9)
    assert np.max(np.abs(bohmian_velocity(st, spec, grid))) == 0.0


def test_bohmian_velocity_of_plane_wave_factor_is_uniform_drift():
    grid = build_grid(128, -6.0, 6.0)
    spec = make_system("free", m=2.0)
    st = gaussian_packet(grid, sigma=0.9, momentum=1.2)
    v = bohmian_velocity(st, spec, grid)
    assert np.max(np.abs(v - 1.2 / 2.0)) < 1e-10


def test_bohmian_velocity_of_spreading_packet_has_the_analytic_slope():
    # free unit-width packet at t = 1: v(q) = q t/(t^2 + 4 sigma0^4) ->
    # slope 0.2 (measured relative error 1.9e-5)
    grid = build_grid(768, -7.0, 7.0)
    spec = make_system("free")
    H = build_quantum_hamiltonian(spec, grid, 1.0)
    st = gaussian_packet(grid, sigma=1.0)
    out = propagate_crank_nicolson(st, H, 1e-3, 1000)
    v = bohmian_velocity(out, spec, grid)
    pts = grid.points()
    core = np.abs(pts) < 2.0
    slope = np.polyfit(pts[core], v[core], 1)[0]
    assert abs(slope - 0.2) / 0.2 < 0.01


def test_microscopic_pair_matches_bohmian_velocity_through_polar_fields():
    # the +-lam average evaluated from (S, Omega) agrees with the guidance
    # field computed from the complex state, to interpolation accuracy
    grid = build_grid(251, -5.0, 5.0)
    spec = make_system("free")
    st = gaussian_packet(grid, sigma=1.1, momentum=0.8)
    S = st.hbar_eff * np.unwrap(np.angle(st.psi))
    Om = np.abs(st.psi) ** 2
    probes = grid.points()[30:-30:17]   # on-grid probes: no interp error
    v_p = microscopic_velocity(probes, S, Om, 1.0, spec, grid)
    v_m = microscopic_velocity(probes, S, Om, -1.0, spec, grid)
    v_eff = effective_velocity(v_p, v_m)
    v_ref = bohmian_velocity(st, spec, grid)[30:-30:17]
    assert np.max(np.abs(v_eff - v_ref)) < 1e-8


# ---------------------------------------------------------------------------
# ensembles


def test_position_sampling_is_deterministic_and_in_domain():
    grid = build_grid(200, -3.0, 3.0)
    dens = np.exp(-grid.points() ** 2)
    a = sample_positions_from_density(dens, grid, 5000, seed=9)
    b = sample_positions_from_density(dens, grid, 5000, seed=9)
    assert np.array_equal(a, b)
    assert a.min() >= -3.0 and a.max() <= 3.0
    c = sample_positions_from_density(dens, grid, 5000, seed=10)
    assert not np.array_equal(a, c)


def test_position_sampling_matches_the_density():
    grid = build_grid(200, -3.0, 3.0)
    dens = np.exp(-grid.points() ** 2)
    qs = sample_positions_from_density(dens, grid, 200_000, seed=11)
    hist, edges = np.histogram(qs, bins=40, range=(-3.0, 3.0), density=True)
    centers = 0.5 * (edges[1:] + edges[:-1])
    expected = np.exp(-centers ** 2) / np.sqrt(np.pi)
    assert tv_distance(hist * np.diff(edges), expected * np.diff(edges)) < 0.02


def test_init_ensemble_draws_scales_from_the_source():
    grid = build_grid(200, -3.0, 3.0)
    st = gaussian_packet(grid, sigma=0.8)
    src = LambdaSource(kind="binary", hbar=2.0, seed=12)
    ens = init_ensemble(st, 4000, tau_Q=1e-3, seed=12, source=src)
    assert ens.size == 4000
    assert np.all(np.abs(ens.lambdas) == 2.0)
    assert ens.frozen_fraction == 0.0


def test_tv_distance_basics():
    p = np.array([0.5, 0.5, 0.0])
    q = np.array([0.0, 0.5, 0.5])
    assert tv_distance(p, p) == 0.0
    assert tv_distance(p, q) == pytest.approx(0.5, abs=1e-15)


def test_wave_frames_validate_the_time_grid():
    grid = build_grid(128, -6.0, 6.0)
    spec = make_system("harmonic")
    H = build_quantum_hamiltonian(spec, grid, 1.0)
    st = coherent_state(grid, center=0.5)
    with pytest.raises(ConfigurationError):
        # the window does not divide the horizon
        build_wave_frames(st, H, spec, T=1.0, dt_window=0.3, dt_cn=1e-3)
    with pytest.raises(ConfigurationError):
        build_wave_frames(st, H, spec, T=1.0, dt_window=0.0, dt_cn=1e-3)


def test_zero_time_propagation_returns_the_sampling_noise_floor():
    # no dynamics: the histogram's TV distance to the wave density is
    # pure sampling noise (measured 0.0070 at N = 5e4, 50 bins)
    grid = build_grid(320, -3.2, 3.2)
    spec = make_system("harmonic")
    H = build_quantum_hamiltonian(spec, grid, 1.0)
    st = spectral_filter(coherent_state(grid, center=0.8), H, 8.5)
    frames = build_wave_frames(st, H, spec, T=0.0, dt_window=1e-2, dt_cn=1e-3)
    ens = init_ensemble(st, 50_000, tau_Q=1e-3, seed=77)
    _, diags = propagate_ensemble(ens, frames, spec, 0.0,
                                  disable_lambda=True, bins=50)
    assert diags[0]["tv_distance"] < 0.02
    assert diags[0]["frozen_fraction"] == 0.0


def test_propagate_ensemble_validates_timescales():
    grid = build_grid(320, -3.2, 3.2)
    spec = make_system("harmonic")
    H = build_quantum_hamiltonian(spec, grid, 1.0)
    st = spectral_filter(coherent_state(grid, center=0.8), H, 8.5)
    frames = build_wave_frames(st, H, spec, T=0.1, dt_window=1e-2, dt_cn=1e-3)
    src = LambdaSource(kind="binary", hbar=1.0, seed=5)
    ens = init_ensemble(st, 100, tau_Q=3e-3, seed=5, source=src)
    with pytest.raises(ConfigurationError):
        # tau_Q does not divide the window
        propagate_ensemble(ens, frames, spec, 0.1, source=src)
    ens2 = init_ensemble(st, 100, tau_Q=1e-3, seed=5, source=src)
    with pytest.raises(ConfigurationError):
        # horizon not commensurate with the window
        propagate_ensemble(ens2, frames, spec, 0.093, source=src)
    with pytest.raises(ConfigurationError):
        propagate_ensemble(ens2, frames, spec, 0.1, source=src, bins=1)
