"""Signed action-scale sources, exponential action deviations,
microscopic/effective velocities, and guided ensembles."""
from dataclasses import replace

import numpy as np
import pytest

from path_action import action_of_path, lagrangian_value
from stochaction.classical import PhasePoint, integrate_path
from stochaction.errors import ConfigurationError, NodeError, ShapeError
from stochaction.evolution import (coherent_state, gaussian_packet,
                                   propagate_crank_nicolson, spectral_filter)
from stochaction.hamiltonian import build_quantum_hamiltonian, make_system
from stochaction.kernels import DOMAIN_DEVIATION, counter_uniform
from stochaction.lattice import build_grid, gradient
from stochaction.stochastic import (LambdaSource, bohmian_velocity,
                                    build_wave_frames, effective_velocity,
                                    init_ensemble, microscopic_velocity,
                                    propagate_ensemble,
                                    sample_action_deviation, sample_lambda,
                                    sample_positions_from_density,
                                    tv_distance)

N_DRAWS = 1_000_000


# ---------------------------------------------------------------------------
# scale sources


def test_binary_source_is_unbiased_with_exact_magnitude():
    src = LambdaSource(kind="binary", hbar=1.0)
    lam = sample_lambda(src, N_DRAWS, seed=20)
    assert np.all(np.abs(lam) == 1.0)
    assert abs(np.mean(lam)) < 0.004   # 4 sigma of a fair coin at this N


def test_sphere_source_is_unbiased_with_exact_magnitude():
    src = LambdaSource(kind="sphere", hbar=1.0)
    lam = sample_lambda(src, N_DRAWS, seed=21)
    assert np.all(np.abs(lam) == 1.0)
    assert abs(np.mean(np.sign(lam))) < 0.004


def test_smeared_source_with_zero_width_reduces_to_binary():
    binary = LambdaSource(kind="binary", hbar=1.0)
    smeared = LambdaSource(kind="smeared", hbar=1.0, width=0.0)
    a = sample_lambda(binary, 4096, seed=22)
    b = sample_lambda(smeared, 4096, seed=22)
    assert np.array_equal(a, b)


def test_smeared_source_magnitude_stays_inside_its_band():
    src = LambdaSource(kind="smeared", hbar=1.0, width=0.2)
    lam = sample_lambda(src, N_DRAWS, seed=23)
    lo, hi = 1.0 - 0.2 * np.sqrt(3.0), 1.0 + 0.2 * np.sqrt(3.0)
    mags = np.abs(lam)
    assert np.min(mags) >= lo - 1e-12 and np.max(mags) <= hi + 1e-12
    assert mags.min() > 0.0
    assert abs(np.mean(np.sign(lam))) < 0.004


def test_smeared_jitter_spans_a_band_whose_spread_is_the_width():
    # uniform on hbar +- jitter, jitter = width sqrt(3): the magnitudes
    # fill the whole band and their standard deviation is the width
    src = LambdaSource(kind="smeared", hbar=1.0, width=0.2)
    assert src.jitter == 0.2 * np.sqrt(3.0)
    assert LambdaSource(kind="binary").jitter == 0.0
    mags = np.abs(sample_lambda(src, N_DRAWS, seed=24))
    assert mags.min() - (1.0 - src.jitter) < 1e-4
    assert (1.0 + src.jitter) - mags.max() < 1e-4
    assert abs(np.std(mags) - 0.2) / 0.2 < 0.005


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
    src = LambdaSource(kind="binary", hbar=1.0)
    a = sample_lambda(src, 1000, seed=3, step=5)
    b = sample_lambda(src, 1000, seed=3, step=5)
    assert np.array_equal(a, b)
    for other in (dict(seed=3, step=6), dict(seed=4, step=5)):
        assert not np.array_equal(a, sample_lambda(src, 1000, **other))


# ---------------------------------------------------------------------------
# exponential action deviations


def test_deviation_sign_follows_the_scale_sign():
    dev_plus = sample_action_deviation(1.0, N_DRAWS, seed=30)
    dev_minus = sample_action_deviation(-1.0, N_DRAWS, seed=31)
    assert np.all(dev_plus >= 0.0)
    assert np.all(dev_minus <= 0.0)


def test_deviation_mean_is_half_the_scale():
    for lam, seed in ((0.5, 32), (1.0, 33), (2.0, 34)):
        dev = sample_action_deviation(lam, N_DRAWS, seed=seed)
        assert abs(np.mean(dev) - lam / 2.0) / (lam / 2.0) < 0.005


def test_deviation_tail_is_memoryless():
    dev = sample_action_deviation(1.0, N_DRAWS, seed=35)
    ratio = np.count_nonzero(dev > 1.0) / np.count_nonzero(dev > 0.5)
    assert abs(ratio - np.exp(-1.0)) / np.exp(-1.0) < 0.02


def test_deviation_rejects_zero_scale():
    for lam in (0.0, -0.0):
        with pytest.raises(ConfigurationError):
            sample_action_deviation(lam, 10)


def test_deviation_rejects_an_infinite_or_array_scale():
    for lam in (np.inf, -np.inf, np.nan):
        with pytest.raises(ConfigurationError):
            sample_action_deviation(lam, 10)
    # one scale per draw: a per-draw array is refused
    with pytest.raises(ShapeError):
        sample_action_deviation(np.full(10, 1.0), 10)


def test_scalar_scale_with_n_equals_an_array_of_copies_bitwise():
    # the harness passes lam and n rather than n copies of lam: the
    # per-draw law written out over n copies gives the same bits
    n = 131077
    u = counter_uniform(36, DOMAIN_DEVIATION, 1,
                        np.arange(n, dtype=np.uint64), 0)
    for lam in (0.5, -2.0):
        lams = np.full(n, lam)
        ref = np.sign(lams) * (-0.5 * np.abs(lams) * np.log1p(-u))
        a = sample_action_deviation(lam, n, seed=36, step=1)
        assert a.shape == (n,) and a.tobytes() == ref.tobytes()


def test_scalar_deviation_round_trip():
    # one draw is an array of one, the first of any longer draw at its key
    d = sample_action_deviation(-2.0, 1, seed=4, step=9)
    assert d.shape == (1,) and d.dtype == np.float64 and d[0] <= 0.0
    many = sample_action_deviation(-2.0, 1000, seed=4, step=9)
    assert d.tobytes() == many[:1].tobytes()


# ---------------------------------------------------------------------------
# the stationary-path action increment the deviations are added to


def test_midpoint_increment_sum_matches_path_action_at_second_order():
    # midpoint-sampled increments L dt vs the trapezoid path action: the
    # difference is 0.0737 dt^2 on this trajectory (measured at two
    # resolutions)
    spec = make_system("harmonic")
    diffs = []
    for dt in (1e-2, 5e-3):
        steps = int(round(1.0 / dt))
        path = integrate_path(PhasePoint(0.8, 0.3), spec, dt, steps)
        qm = 0.5 * (path.qs[1:] + path.qs[:-1])
        pm = 0.5 * (path.ps[1:] + path.ps[:-1])
        total = sum(float(lagrangian_value(q, p, spec)) * dt
                    for q, p in zip(qm, pm))
        diffs.append(abs(total - action_of_path(path, spec)) / dt ** 2)
    assert diffs[0] == pytest.approx(0.0737, abs=0.005)
    assert diffs[1] == pytest.approx(0.0737, abs=0.005)


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


def test_init_ensemble_starts_every_lambda_at_zero():
    grid = build_grid(200, -3.0, 3.0)
    st = gaussian_packet(grid, sigma=0.8)
    ens = init_ensemble(st, 4000, tau_Q=1e-3, seed=12)
    assert ens.size == 4000
    assert np.all(ens.lambdas == 0.0)
    assert ens.frozen_fraction == 0.0


def test_the_first_micro_step_draws_every_scale_from_the_source():
    # init_ensemble leaves every lambda at 0; one micro step later each
    # holds a draw from the source, so the ensemble needs none at start
    grid = build_grid(320, -3.2, 3.2)
    spec = make_system("harmonic")
    H = build_quantum_hamiltonian(spec, grid, 1.0)
    st = spectral_filter(coherent_state(grid, center=0.8), H, 8.5)
    frames = build_wave_frames(st, H, spec, T=1e-2, dt_window=1e-2, dt_cn=1e-3)
    ens = init_ensemble(st, 4000, tau_Q=1e-2, seed=12)
    src = LambdaSource(kind="binary", hbar=2.0)
    out, _ = propagate_ensemble(ens, frames, 1e-2, source=src)
    assert np.all(np.abs(out.lambdas) == 2.0)
    assert abs(np.mean(np.sign(out.lambdas))) < 0.1


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
    # a horizon that is no finite span used to run zero windows
    for T in (np.nan, np.inf, -1.0):
        with pytest.raises(ConfigurationError):
            build_wave_frames(st, H, spec, T=T, dt_window=1e-2, dt_cn=1e-3)
    # the Crank-Nicolson step must divide half a window: none, one that
    # does not divide it, one longer than it
    for dt_cn in (0.0, -1e-3, np.nan, 3e-3, 8e-3):
        with pytest.raises(ConfigurationError):
            build_wave_frames(st, H, spec, T=1.0, dt_window=1e-2, dt_cn=dt_cn)


def test_zero_time_propagation_returns_the_sampling_noise_floor():
    # no dynamics: the histogram's TV distance to the wave density is
    # pure sampling noise (measured 0.0070 at N = 5e4, 50 bins)
    grid = build_grid(320, -3.2, 3.2)
    spec = make_system("harmonic")
    H = build_quantum_hamiltonian(spec, grid, 1.0)
    st = spectral_filter(coherent_state(grid, center=0.8), H, 8.5)
    frames = build_wave_frames(st, H, spec, T=0.0, dt_window=1e-2, dt_cn=1e-3)
    ens = init_ensemble(st, 50_000, tau_Q=1e-3, seed=77)
    _, diags = propagate_ensemble(ens, frames, 0.0, bins=50)
    assert diags[0]["tv_distance"] < 0.02
    assert diags[0]["frozen_fraction"] == 0.0


def test_propagate_ensemble_validates_timescales():
    grid = build_grid(320, -3.2, 3.2)
    spec = make_system("harmonic")
    H = build_quantum_hamiltonian(spec, grid, 1.0)
    st = spectral_filter(coherent_state(grid, center=0.8), H, 8.5)
    frames = build_wave_frames(st, H, spec, T=0.1, dt_window=1e-2, dt_cn=1e-3)
    src = LambdaSource(kind="binary", hbar=1.0)
    ens = init_ensemble(st, 100, tau_Q=3e-3, seed=5)
    with pytest.raises(ConfigurationError):
        # tau_Q does not divide the window
        propagate_ensemble(ens, frames, 0.1, source=src)
    ens2 = init_ensemble(st, 100, tau_Q=1e-3, seed=5)
    with pytest.raises(ConfigurationError):
        # horizon not commensurate with the window
        propagate_ensemble(ens2, frames, 0.093, source=src)
    with pytest.raises(ConfigurationError):
        propagate_ensemble(ens2, frames, np.nan, source=src)
    with pytest.raises(ConfigurationError):
        propagate_ensemble(ens2, frames, 0.1, source=src, bins=1)


def test_with_lambda_off_the_osmotic_table_has_no_effect():
    # source None: every particle moves with the guidance field alone, so
    # doubling the osmotic table leaves the positions bitwise the same;
    # with a source the same doubling moves them
    grid = build_grid(320, -3.2, 3.2)
    spec = make_system("harmonic")
    H = build_quantum_hamiltonian(spec, grid, 1.0)
    st = spectral_filter(coherent_state(grid, center=0.8), H, 8.5)
    frames = build_wave_frames(st, H, spec, T=0.04, dt_window=1e-2, dt_cn=1e-3)
    doubled = replace(frames, osm=2.0 * frames.osm)
    ens = init_ensemble(st, 2000, tau_Q=1e-3, seed=13)
    off = [propagate_ensemble(ens, f, 0.04)[0]
           for f in (frames, doubled)]
    assert off[0].positions.tobytes() == off[1].positions.tobytes()
    assert not np.array_equal(off[0].positions, ens.positions)
    assert all(np.all(e.lambdas == 0.0) for e in off)
    src = LambdaSource(kind="binary", hbar=1.0)
    on = [propagate_ensemble(ens, f, 0.04, source=src)[0]
          for f in (frames, doubled)]
    assert not np.array_equal(on[0].positions, on[1].positions)
