"""Polar decomposition, the signed-scale branch pair, coupled
amplitude/phase integration, and the scale-squared potential term."""
from dataclasses import replace

import numpy as np
import pytest

from stochaction.errors import ConfigurationError, NodeError, NumericalError
from stochaction.evolution import (coherent_state, gaussian_packet, ground_state,
                                   l2_distance, propagate_eigen_oracle)
from stochaction import madelung
from stochaction.hamiltonian import build_quantum_hamiltonian, make_system
from stochaction.kernels import run_madelung_window
from stochaction.lattice import build_grid, gradient, integrate
from stochaction.madelung import (CHECK_EVERY, check_phase_offset,
                                  default_timestep, from_polar,
                                  pair_from_wave, quantum_potential,
                                  step_coupled_pde, to_polar)

H_QUANTUM = 2.0 * np.pi   # one whole phase quantum at unit scale


@pytest.fixture(scope="module")
def ground_384():
    grid = build_grid(384, -4.6, 4.6)
    spec = make_system("harmonic", m=1.0, omega=1.0)
    H = build_quantum_hamiltonian(spec, grid, 1.0)
    _, gs = ground_state(H)
    return grid, spec, gs


# ---------------------------------------------------------------------------
# polar decomposition


def test_to_polar_of_real_positive_state_has_zero_phase():
    grid = build_grid(128, -6.0, 6.0)
    st = gaussian_packet(grid, sigma=0.9)
    m = to_polar(st)
    assert np.max(np.abs(m.S)) == 0.0
    assert np.max(np.abs(m.R - np.abs(st.psi))) == 0.0


def test_to_polar_of_drifting_state_recovers_linear_phase():
    grid = build_grid(128, -6.0, 6.0)
    p0 = 1.3
    st = gaussian_packet(grid, sigma=0.9, momentum=p0)
    m = to_polar(st)
    q = grid.points()
    offset = m.S - p0 * q
    assert np.max(np.abs(offset - offset[grid.n // 2])) < 1e-10


def test_polar_round_trip(ground_384):
    grid, _, _ = ground_384
    st = gaussian_packet(grid, sigma=0.8, momentum=0.9, center=0.3)
    back = from_polar(to_polar(st))
    assert np.max(np.abs(back.psi - st.psi)) < 1e-10


def test_to_polar_rejects_states_with_nodes():
    grid = build_grid(128, -6.0, 6.0)
    st = gaussian_packet(grid, sigma=0.9)
    nodey = replace(st, psi=st.psi * np.sin(2.0 * grid.points()))
    with pytest.raises(NodeError):
        to_polar(nodey)


def test_from_polar_of_zero_phase_is_real_positive():
    grid = build_grid(128, -6.0, 6.0)
    st = gaussian_packet(grid, sigma=0.9)
    m = to_polar(st)
    out = from_polar(m)
    assert np.max(np.abs(out.psi.imag)) == 0.0
    assert np.min(out.psi.real) >= 0.0


def test_whole_quantum_phase_offsets_leave_the_wave_invariant():
    grid = build_grid(128, -6.0, 6.0)
    st = gaussian_packet(grid, sigma=0.9, momentum=0.4)
    m = to_polar(st)
    for n_quanta in (1, -1, 3):
        shifted = from_polar(replace(m, S=m.S + n_quanta * H_QUANTUM))
        assert np.max(np.abs(shifted.psi - st.psi)) < 1e-12


def test_half_quantum_offset_flips_the_sign():
    grid = build_grid(128, -6.0, 6.0)
    st = gaussian_packet(grid, sigma=0.9, momentum=0.4)
    m = to_polar(st)
    flipped = from_polar(replace(m, S=m.S + H_QUANTUM / 2.0))
    assert np.max(np.abs(flipped.psi + st.psi)) < 1e-12


# ---------------------------------------------------------------------------
# branch pair bookkeeping


def test_pair_from_wave_shares_amplitude_and_offsets_phase(ground_384):
    _, _, gs = ground_384
    pair = pair_from_wave(gs, offset_quanta=1)
    assert np.array_equal(pair.plus.R, pair.minus.R)
    assert pair.plus.lam == 1.0 and pair.minus.lam == -1.0
    S0, dev = check_phase_offset(pair)
    assert S0 == pytest.approx(H_QUANTUM, abs=1e-12)
    assert dev < 1e-12


def test_check_phase_offset_examples(ground_384):
    _, _, gs = ground_384
    pair = pair_from_wave(gs)
    S0, dev = check_phase_offset(pair)
    assert S0 == 0.0 and dev == 0.0
    shifted = replace(pair, minus=replace(pair.minus, S=pair.minus.S - H_QUANTUM))
    S0, dev = check_phase_offset(shifted)
    assert S0 == pytest.approx(H_QUANTUM, abs=1e-12)
    assert dev < 1e-12


# ---------------------------------------------------------------------------
# scale-squared potential term


def test_quantum_potential_of_flat_amplitude_is_zero():
    grid = build_grid(128, -6.0, 6.0)
    spec = make_system("free")
    R = np.full(grid.n, 1.0 / np.sqrt(12.0))
    assert np.max(np.abs(quantum_potential(R, spec, grid, 0.7))) == 0.0


def test_quantum_potential_of_gaussian_matches_analytic_form():
    # R ~ exp(-q^2/4 sigma^2), g = 1/m: the term is
    # -(lam^2/2m)(q^2/4 sigma^4 - 1/2 sigma^2); measured error 3.5e-3
    # against a field of scale ~2.1
    grid = build_grid(256, -6.0, 6.0)
    spec = make_system("free", m=2.0)
    q = grid.points()
    sig = 0.9
    R = np.exp(-q ** 2 / (4.0 * sig ** 2))
    qp = quantum_potential(R, spec, grid, 0.8)
    expected = -(0.8 ** 2 / 4.0) * (q ** 2 / (4.0 * sig ** 4) - 1.0 / (2.0 * sig ** 2))
    assert np.max(np.abs(qp - expected)[4:-4]) < 5e-3


def test_quantum_potential_scales_exactly_with_scale_squared():
    grid = build_grid(256, -6.0, 6.0)
    spec = make_system("free", m=2.0)
    q = grid.points()
    R = np.exp(-q ** 2 / (4.0 * 0.81))
    qp1 = quantum_potential(R, spec, grid, 0.8)
    qp2 = quantum_potential(R, spec, grid, 1.6)
    assert np.array_equal(qp2, 4.0 * qp1)


# ---------------------------------------------------------------------------
# coupled integration


def test_stationary_ground_state_amplitude_is_preserved(ground_384):
    _, spec, gs = ground_384
    pair = pair_from_wave(gs)
    out = step_coupled_pde(pair, spec, 5e-4, steps=2000)   # T = 1
    assert np.max(np.abs(out.plus.R - pair.plus.R)) < 1e-4   # measured 5.8e-14


def test_phase_offset_is_preserved_under_integration(ground_384):
    _, spec, gs = ground_384
    pair = pair_from_wave(gs, offset_quanta=1)
    out = step_coupled_pde(pair, spec, 5e-4, steps=2000)   # T = 1
    S0, dev = check_phase_offset(out)
    # measured: offset error 2.0e-12, deviation 8.1e-10
    assert abs(S0 - H_QUANTUM) < 1e-4
    assert dev < 1e-4
    assert out.S0 == pair.S0


def test_amplitude_symmetry_is_preserved(ground_384):
    _, spec, gs = ground_384
    pair = pair_from_wave(gs, offset_quanta=1)
    out = step_coupled_pde(pair, spec, 5e-4, steps=2000)
    assert np.max(np.abs(out.plus.R - out.minus.R)) < 1e-6   # measured 5.9e-15


def continuity_rate_signed(m, spec):
    """Signed single-branch density rate
    -d/dq[g dS/dq Omega] - (lam/2) d/dq[g dOmega/dq].

    The lam-term is anti-diffusive for lam > 0; the pair integration uses
    the branch average of this rate, `continuity_rate_pair`.
    """
    madelung._check_madelung(m)
    pts = m.grid.points()
    g = np.asarray(spec.g(pts), dtype=float)
    omega = m.R ** 2
    adv = gradient(g * gradient(m.S, m.grid) * omega, m.grid)
    diff = gradient(g * gradient(omega, m.grid), m.grid)
    return -adv - 0.5 * m.lam * diff


def continuity_rate_pair(m, spec):
    """Density rate with the sign-odd term cancelled: -d/dq[g dS/dq Omega]."""
    madelung._check_madelung(m)
    pts = m.grid.points()
    g = np.asarray(spec.g(pts), dtype=float)
    omega = m.R ** 2
    return -gradient(g * gradient(m.S, m.grid) * omega, m.grid)


def test_branch_average_of_signed_rates_is_the_pair_rate(ground_384):
    _, spec, gs = ground_384
    pair = pair_from_wave(gs, offset_quanta=1)
    avg = 0.5 * (continuity_rate_signed(pair.plus, spec)
                 + continuity_rate_signed(pair.minus, spec))
    pair_rate = continuity_rate_pair(pair.plus, spec)
    scale = np.max(np.abs(pair_rate)) + 1.0
    assert np.max(np.abs(avg - pair_rate)) < 1e-12 * scale


def test_free_packet_tracks_the_schrodinger_density():
    # drifting, spreading packet over T = 0.5: polar integration against
    # the exact propagator.  Measured: density distance 1.1e-5,
    # density-weighted phase-gradient distance 7.3e-5
    grid = build_grid(384, -6.5, 6.5)
    spec = make_system("free")
    H = build_quantum_hamiltonian(spec, grid, 1.0)
    st = gaussian_packet(grid, sigma=1.0, momentum=0.3)
    pair = pair_from_wave(st)
    pair = step_coupled_pde(pair, spec, 1e-4, steps=5000)
    ref = propagate_eigen_oracle(st, H, 0.5)
    dens_ref = np.abs(ref.psi) ** 2
    assert l2_distance(pair.plus.R ** 2, dens_ref, grid) < 1e-3
    dS = gradient(pair.plus.S, grid) - gradient(np.unwrap(np.angle(ref.psi)), grid)
    w = np.where(dens_ref >= 1e-6 * dens_ref.max(), dens_ref, 0.0)
    assert float(np.sqrt(integrate(dS ** 2 * w, grid))) < 1e-2


def test_a_run_splits_at_the_guard_interval_with_the_same_bits(ground_384):
    # the guards run every CHECK_EVERY steps and the next chunk restarts
    # from the guarded amplitude, so two calls that end a chunk where one
    # call would give that call's bits
    _, spec, gs = ground_384
    pair = pair_from_wave(gs, offset_quanta=1)
    one = step_coupled_pde(pair, spec, 5e-4, steps=2 * CHECK_EVERY + 1)
    two = step_coupled_pde(step_coupled_pde(pair, spec, 5e-4, CHECK_EVERY),
                           spec, 5e-4, CHECK_EVERY + 1)
    for a, b in ((one.plus, two.plus), (one.minus, two.minus)):
        assert a.R.tobytes() == b.R.tobytes()
        assert a.S.tobytes() == b.S.tobytes()
        assert a.t == b.t


def test_step_rejects_oversized_timestep(ground_384):
    grid, spec, gs = ground_384
    pair = pair_from_wave(gs)
    bound = default_timestep(grid, spec, 1.0)
    with pytest.raises(ConfigurationError):
        step_coupled_pde(pair, spec, 100.0 * bound, steps=1)


def test_a_subnormal_scale_has_no_default_step_and_admits_no_dt():
    # 0.1 dq^2 / |lam| overflows at |lam| = 5e-324 on this grid; an
    # infinite default step would let the 10x gate admit any dt
    grid = build_grid(128, -6.0, 6.0)
    spec = make_system("free")
    with pytest.raises(ConfigurationError, match="default step is inf"):
        default_timestep(grid, spec, 5e-324)
    pair = pair_from_wave(gaussian_packet(grid, sigma=1.0, momentum=1.0))
    pair = replace(pair, plus=replace(pair.plus, lam=5e-324),
                   minus=replace(pair.minus, lam=-5e-324))
    with pytest.raises(ConfigurationError, match="default step is inf"):
        step_coupled_pde(pair, spec, 1e-4, steps=1)
    # the smallest scales whose default step is finite keep their gate
    assert np.isfinite(default_timestep(grid, spec, 1e-311))


def test_step_rejects_bad_arguments(ground_384):
    _, spec, gs = ground_384
    pair = pair_from_wave(gs)
    with pytest.raises(ConfigurationError):
        step_coupled_pde(pair, spec, -1e-4, steps=1)
    with pytest.raises(ConfigurationError):
        step_coupled_pde(pair, spec, 1e-4, steps=0)


def test_unstable_integration_is_caught_not_silent(ground_384):
    # just under the hard dt gate.  The smooth ground state is stable there
    # (measured stable up to 22x the default step; max|dR| 3.4e-14 at 9x),
    # so admitted means unchanged, not garbage.  A raw Gaussian that was not
    # low-passed carries wall-row content the polar form cannot represent;
    # it blows up (measured within 200 steps at 9x, by 600 at 0.9-1x), and the
    # run must abort with a diagnostic, never return garbage
    grid, spec, gs = ground_384
    dt = 9.0 * default_timestep(grid, spec, 1.0)
    pair = pair_from_wave(gs)
    out = step_coupled_pde(pair, spec, dt, steps=400)
    assert np.max(np.abs(out.plus.R - pair.plus.R)) < 1e-10
    raw = pair_from_wave(gaussian_packet(grid, sigma=0.9, center=1.0))
    with pytest.raises(NumericalError), np.errstate(over="ignore", invalid="ignore"):
        step_coupled_pde(raw, spec, dt, steps=2000)


def test_norm_guard_fires_on_a_packet_cut_off_by_the_walls():
    # sigma = 2 on [-3, 3] leaves a third of the peak density at the
    # walls; the polar fields carry that badly and leak norm through the
    # wall cells while staying finite and positive: +0.82% after 50 steps
    # and +1.05% after 200 (measured).  The guard bounds the drift over
    # the whole call, not per step, so it must raise at the first check
    grid = build_grid(64, -3.0, 3.0)
    spec = make_system("free")
    pair = pair_from_wave(gaussian_packet(grid, sigma=2.0, momentum=1.0))
    dt = default_timestep(grid, spec, 1.0)
    with pytest.raises(NumericalError, match="norm of the plus branch"):
        step_coupled_pde(pair, spec, dt, steps=200)


# ---------------------------------------------------------------------------
# byte-equal branches advance as one kernel row


def _record_batch_shapes(monkeypatch):
    shapes = []
    run = madelung.run_madelung_window

    def recording(y, *args):
        shapes.append(y.shape)
        return run(y, *args)

    monkeypatch.setattr(madelung, "run_madelung_window", recording)
    return shapes


def test_a_byte_equal_pair_advances_one_row(ground_384, monkeypatch):
    grid, spec, gs = ground_384
    shapes = _record_batch_shapes(monkeypatch)
    step_coupled_pde(pair_from_wave(gs), spec, 5e-4, steps=CHECK_EVERY + 1)
    assert shapes == [(2, 1, grid.n)] * 2


def test_pairs_that_differ_in_any_bit_advance_two_rows(ground_384, monkeypatch):
    # a signed zero equals its opposite by value but not by bytes
    grid, spec, gs = ground_384
    pair = pair_from_wave(gs)
    assert pair.minus.S[0] == 0.0
    S = pair.minus.S.copy()
    S[0] = -0.0
    signed = replace(pair, minus=replace(pair.minus, S=S))
    shapes = _record_batch_shapes(monkeypatch)
    for p in (signed, pair_from_wave(gs, offset_quanta=1)):
        step_coupled_pde(p, spec, 5e-4, steps=1)
    assert shapes == [(2, 2, grid.n)] * 2


def test_one_row_equals_a_two_row_batch_bitwise(ground_384):
    # the reference is the two-row batch run in the stepper's guard
    # windows, each restarting from the guarded amplitude
    grid, spec, gs = ground_384
    pair = pair_from_wave(gaussian_packet(grid, sigma=0.8, momentum=0.9,
                                          center=0.3))
    dt, steps = 5e-4, 2 * CHECK_EVERY + 1
    out = step_coupled_pde(pair, spec, dt, steps=steps)
    pts = grid.points()
    tables = [np.asarray(f(pts), dtype=float)
              for f in (spec.g, spec.dg, spec.V)]
    y = np.empty((2, 2, grid.n))
    R = np.stack([pair.plus.R, pair.minus.R])
    y[1] = [pair.plus.S, pair.minus.S]
    for chunk in (CHECK_EVERY, CHECK_EVERY, 1):
        np.square(R, out=y[0])
        run_madelung_window(y, *tables, grid.dq, dt, chunk, 1.0)
        R = np.sqrt(np.maximum(y[0], 0.0))
    for b, m in enumerate((out.plus, out.minus)):
        assert m.R.tobytes() == R[b].tobytes()
        assert m.S.tobytes() == y[1, b].tobytes()
        assert m.t == pair.plus.t + dt * CHECK_EVERY + dt * CHECK_EVERY + dt


def test_the_branches_of_a_one_row_result_share_no_memory(ground_384):
    _, spec, gs = ground_384
    out = step_coupled_pde(pair_from_wave(gs), spec, 5e-4, steps=1)
    assert not np.shares_memory(out.plus.R, out.minus.R)
    assert not np.shares_memory(out.plus.S, out.minus.S)


def test_a_node_in_the_minus_branch_only_is_caught_on_entry(monkeypatch):
    # a plus-only node check let this pair into the kernel, which then
    # failed with non-finite fields in the minus branch
    grid = build_grid(128, -6.0, 6.0)
    spec = make_system("harmonic", m=1.0, omega=1.0)
    pair = pair_from_wave(gaussian_packet(grid, sigma=0.9))
    R = pair.minus.R.copy()
    R[40] = 0.0
    R /= np.sqrt(integrate(R ** 2, grid))
    nodey = replace(pair, minus=replace(pair.minus, R=R))
    shapes = _record_batch_shapes(monkeypatch)
    with pytest.raises(NodeError, match="minus branch"):
        step_coupled_pde(nodey, spec, 1e-4, steps=1)
    assert shapes == []
