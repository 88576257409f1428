"""Polar decomposition, the signed scale's two branches as one state, and
coupled amplitude/phase integration."""
from dataclasses import replace

import numpy as np
import pytest

from stochaction.errors import ConfigurationError, NodeError, NumericalError
from stochaction.evolution import (coherent_state, gaussian_packet, ground_state,
                                   l2_distance, propagate_eigen_oracle)
from stochaction import madelung
from stochaction.hamiltonian import build_quantum_hamiltonian, make_system
from stochaction.kernels import run_madelung_window
from stochaction.lattice import GridSpec, build_grid, gradient, integrate
from stochaction.madelung import (CHECK_EVERY, default_timestep, from_polar,
                                  step_coupled_pde, to_polar)

H_QUANTUM = 2.0 * np.pi   # one whole phase quantum at unit scale


@pytest.fixture(scope="module")
def ground_384():
    grid = build_grid(384, -4.6, 4.6)
    spec = make_system("harmonic", m=1.0, omega=1.0)
    H = build_quantum_hamiltonian(spec, grid, 1.0)
    _, gs = ground_state(H)
    return grid, spec, gs


def _shifted(state, quanta=1):
    """The polar state of `state` with S shifted by `quanta` whole quanta
    2 pi hbar."""
    m = to_polar(state)
    return replace(m, S=m.S + quanta * H_QUANTUM * state.hbar_eff)


# the representation's identities at two states: 11 points (build_grid
# takes 16 or more), the first n at which np.mean of n copies of 2 pi is
# not 2 pi, here at hbar = 0.37 with |S| < 4; and 384 points with |S| up
# to 18, where S - (S - 2 pi) is not 2 pi everywhere
OFFSET_STATES = {
    "n11": lambda: gaussian_packet(GridSpec(n=11, q_min=-3.0, q_max=3.0,
                                            dq=0.6),
                                   sigma=0.9, momentum=1.3, hbar_eff=0.37),
    "wide": lambda: gaussian_packet(build_grid(384, -4.6, 4.6), sigma=0.9,
                                    momentum=4.0),
}


def _ulp_of_largest(*arrays):
    """The spacing of doubles at the largest |entry| of the arrays."""
    return float(np.spacing(max(np.max(np.abs(a)) for a in arrays)))


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


# exp(i S / hbar) of a shifted S differs from the unshifted wave by the
# roundings of S + shift, of the division by hbar and of the two
# exponentials: a few ulps of the largest phase |S| / hbar, times max R.
# Measured at most 1.9 such ulps over 3000 random states, grids of 11 to
# 1000 points and hbar of 0.01 to 3
PHASE_ULPS = 4


@pytest.mark.parametrize("case", OFFSET_STATES)
def test_whole_quantum_phase_offsets_leave_the_wave_invariant(case):
    m = to_polar(OFFSET_STATES[case]())
    psi = from_polar(m).psi
    for n_quanta in (1, -1, 3):
        S = m.S + n_quanta * H_QUANTUM * m.lam
        shifted = from_polar(replace(m, S=S)).psi
        ulp = _ulp_of_largest(m.S / m.lam, S / m.lam)
        assert np.max(np.abs(shifted - psi)) <= PHASE_ULPS * ulp * np.max(m.R)


@pytest.mark.parametrize("case", OFFSET_STATES)
def test_half_quantum_offset_flips_the_sign(case):
    m = to_polar(OFFSET_STATES[case]())
    psi = from_polar(m).psi
    S = m.S + 0.5 * H_QUANTUM * m.lam
    flipped = from_polar(replace(m, S=S)).psi
    ulp = _ulp_of_largest(m.S / m.lam, S / m.lam)
    assert np.max(np.abs(flipped + psi)) <= PHASE_ULPS * ulp * np.max(m.R)


def test_pair_from_wave_shares_amplitude_and_has_no_offset(ground_384):
    # the name perfbench's polar sweep calls builds to_polar's state: R is
    # |psi| and S carries no offset, byte for byte, at scale +hbar_eff
    _, _, gs = ground_384
    m = madelung.pair_from_wave(gs)
    ref = to_polar(gs)
    assert m.R.tobytes() == np.abs(gs.psi).tobytes()
    assert m.S.tobytes() == ref.S.tobytes()
    assert (m.lam, m.t, m.grid) == (gs.hbar_eff, gs.t, gs.grid)


# ---------------------------------------------------------------------------
# coupled integration


def test_stationary_ground_state_amplitude_is_preserved(ground_384):
    _, spec, gs = ground_384
    m = to_polar(gs)
    out = step_coupled_pde(m, spec, 5e-4, steps=2000)   # T = 1
    assert np.max(np.abs(out.R - m.R)) < 1e-4   # measured 5.8e-14


def _offset_branches(state, quanta=1):
    """The +lam branch of `state` and the -lam branch whose S sits
    `quanta` whole quanta 2 pi hbar below it, as two states."""
    plus = to_polar(state)
    S0 = quanta * H_QUANTUM * state.hbar_eff
    return plus, replace(plus, lam=-plus.lam, S=plus.S - S0), S0


def test_phase_offset_is_preserved_under_integration(ground_384):
    # the equations read gradients of S only, so a constant offset rides
    # along; S - S0 and its gradients round differently from S's, and
    # that rounding accumulates: measured 6.2e-10 after 2000 steps
    _, spec, gs = ground_384
    plus, minus, S0 = _offset_branches(gs)
    out_plus = step_coupled_pde(plus, spec, 5e-4, steps=2000)   # T = 1
    out_minus = step_coupled_pde(minus, spec, 5e-4, steps=2000)
    assert (out_plus.lam, out_minus.lam) == (plus.lam, -plus.lam)
    assert np.max(np.abs(out_plus.S - out_minus.S - S0)) < 1e-8


def test_amplitude_symmetry_is_preserved(ground_384):
    _, spec, gs = ground_384
    plus, minus, _ = _offset_branches(gs)
    out_plus = step_coupled_pde(plus, spec, 5e-4, steps=2000)
    out_minus = step_coupled_pde(minus, spec, 5e-4, steps=2000)
    assert np.max(np.abs(out_plus.R - out_minus.R)) < 1e-6   # measured 6.7e-15


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
    m = to_polar(gs)
    avg = 0.5 * (continuity_rate_signed(m, spec)
                 + continuity_rate_signed(replace(m, lam=-m.lam), spec))
    pair_rate = continuity_rate_pair(m, spec)
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
    m = step_coupled_pde(to_polar(st), spec, 1e-4, steps=5000)
    ref = propagate_eigen_oracle(st, H, 0.5)
    dens_ref = np.abs(ref.psi) ** 2
    assert l2_distance(m.R ** 2, dens_ref, grid) < 1e-3
    dS = gradient(m.S, grid) - gradient(np.unwrap(np.angle(ref.psi)), grid)
    w = np.where(dens_ref >= 1e-6 * dens_ref.max(), dens_ref, 0.0)
    assert float(np.sqrt(integrate(dS ** 2 * w, grid))) < 1e-2


def test_a_run_splits_at_the_guard_interval_with_the_same_bits(ground_384):
    # the guards run every CHECK_EVERY steps and the next chunk restarts
    # from the guarded amplitude, so two calls that end a chunk where one
    # call would give that call's bits
    _, spec, gs = ground_384
    m = _shifted(gs)
    one = step_coupled_pde(m, spec, 5e-4, steps=2 * CHECK_EVERY + 1)
    two = step_coupled_pde(step_coupled_pde(m, spec, 5e-4, CHECK_EVERY),
                           spec, 5e-4, CHECK_EVERY + 1)
    assert one.R.tobytes() == two.R.tobytes()
    assert one.S.tobytes() == two.S.tobytes()
    assert one.t == two.t


def test_step_rejects_oversized_timestep(ground_384):
    grid, spec, gs = ground_384
    bound = default_timestep(grid, spec, 1.0)
    with pytest.raises(ConfigurationError):
        step_coupled_pde(to_polar(gs), spec, 100.0 * bound, steps=1)


def test_a_subnormal_scale_has_no_default_step_and_admits_no_dt():
    # 0.1 dq^2 / |lam| overflows at |lam| = 5e-324 on this grid; an
    # infinite default step would let the 10x gate admit any dt
    grid = build_grid(128, -6.0, 6.0)
    spec = make_system("free")
    with pytest.raises(ConfigurationError, match="default step is inf"):
        default_timestep(grid, spec, 5e-324)
    m = replace(to_polar(gaussian_packet(grid, sigma=1.0, momentum=1.0)),
                lam=5e-324)
    with pytest.raises(ConfigurationError, match="default step is inf"):
        step_coupled_pde(m, spec, 1e-4, steps=1)
    # the smallest scales whose default step is finite keep their gate
    assert np.isfinite(default_timestep(grid, spec, 1e-311))


def test_step_rejects_bad_arguments(ground_384):
    _, spec, gs = ground_384
    m = to_polar(gs)
    with pytest.raises(ConfigurationError):
        step_coupled_pde(m, spec, -1e-4, steps=1)
    with pytest.raises(ConfigurationError):
        step_coupled_pde(m, spec, 1e-4, steps=0)


@pytest.mark.parametrize("lam", (0.0, -0.0, np.nan, np.inf, -np.inf))
def test_step_refuses_a_zero_or_non_finite_scale(ground_384, lam):
    # either sign of a finite nonzero scale steps; no other scale does
    _, spec, gs = ground_384
    m = replace(to_polar(gs), lam=lam)
    with pytest.raises(ConfigurationError,
                       match="lam must be nonzero and finite"):
        step_coupled_pde(m, spec, 1e-4, steps=1)


def test_unstable_integration_is_caught_not_silent(ground_384):
    # just under the hard dt gate.  The smooth ground state is stable there
    # (measured stable up to 22x the default step; max|dR| 3.4e-14 at 9x),
    # so admitted means unchanged, not garbage.  A raw Gaussian that was not
    # low-passed carries wall-row content the polar form cannot represent;
    # it blows up (measured within 200 steps at 9x, by 600 at 0.9-1x), and the
    # run must abort with a diagnostic, never return garbage
    grid, spec, gs = ground_384
    dt = 9.0 * default_timestep(grid, spec, 1.0)
    m = to_polar(gs)
    out = step_coupled_pde(m, spec, dt, steps=400)
    assert np.max(np.abs(out.R - m.R)) < 1e-10
    raw = to_polar(gaussian_packet(grid, sigma=0.9, center=1.0))
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
    m = to_polar(gaussian_packet(grid, sigma=2.0, momentum=1.0))
    dt = default_timestep(grid, spec, 1.0)
    with pytest.raises(NumericalError, match="norm of the polar state"):
        step_coupled_pde(m, spec, dt, steps=200)


# ---------------------------------------------------------------------------
# the other branch is the state with lam negated; one kernel row


@pytest.mark.parametrize("quanta", (0, 1))
def test_a_negated_scale_steps_to_the_same_fields_and_keeps_its_sign(
        ground_384, quanta):
    # the pair's equations read |lam| only, so the -|lam| branch is the
    # +|lam| branch's R and S, byte for byte, with its own sign; across a
    # guard window, and with S offset by a whole quantum or not
    grid, spec, _ = ground_384
    m = _shifted(gaussian_packet(grid, sigma=0.8, momentum=0.9, center=0.3),
                 quanta)
    out = step_coupled_pde(m, spec, 5e-4, steps=CHECK_EVERY + 1)
    neg = step_coupled_pde(replace(m, lam=-m.lam), spec, 5e-4,
                           steps=CHECK_EVERY + 1)
    assert neg.R.tobytes() == out.R.tobytes()
    assert neg.S.tobytes() == out.S.tobytes()
    assert (out.lam, neg.lam) == (m.lam, -m.lam)
    assert neg.t == out.t and neg.grid == out.grid


def _record_kernel_shapes(monkeypatch):
    shapes = []
    run = madelung.run_madelung_window

    def recording(y, *args):
        shapes.append(y.shape)
        return run(y, *args)

    monkeypatch.setattr(madelung, "run_madelung_window", recording)
    return shapes


@pytest.mark.parametrize("quanta", (0, 1))
def test_every_pair_advances_one_row(ground_384, monkeypatch, quanta):
    grid, spec, gs = ground_384
    shapes = _record_kernel_shapes(monkeypatch)
    step_coupled_pde(_shifted(gs, quanta), spec, 5e-4, steps=CHECK_EVERY + 1)
    assert shapes == [(2, grid.n)] * 2


@pytest.mark.parametrize("quanta", (0, 1))
def test_the_stepper_equals_one_row_kernel_windows_bitwise(ground_384, quanta):
    # the reference is the state's row run directly in the stepper's guard
    # windows, each restarting from the guarded amplitude
    grid, spec, gs = ground_384
    m = _shifted(gaussian_packet(grid, sigma=0.8, momentum=0.9, center=0.3),
                 quanta)
    dt, steps = 5e-4, 2 * CHECK_EVERY + 1
    out = step_coupled_pde(m, spec, dt, steps=steps)
    pts = grid.points()
    tables = [np.asarray(f(pts), dtype=float)
              for f in (spec.g, spec.dg, spec.V)]
    y = np.empty((2, grid.n))
    R = m.R
    y[1] = m.S
    for chunk in (CHECK_EVERY, CHECK_EVERY, 1):
        np.square(R, out=y[0])
        run_madelung_window(y, *tables, grid.dq, dt, chunk, 1.0)
        R = np.sqrt(np.maximum(y[0], 0.0))
    assert out.R.tobytes() == R.tobytes()
    assert out.S.tobytes() == y[1].tobytes()
    assert out.t == m.t + dt * CHECK_EVERY + dt * CHECK_EVERY + dt
    assert out.lam == m.lam


def test_a_stepped_state_shares_no_memory_with_its_input(ground_384):
    # callers keep the fields of earlier states as snapshots
    _, spec, gs = ground_384
    m = to_polar(gs)
    R, S = m.R.copy(), m.S.copy()
    out = step_coupled_pde(m, spec, 5e-4, steps=1)
    assert not np.shares_memory(out.R, m.R)
    assert not np.shares_memory(out.S, m.S)
    assert not np.shares_memory(out.R, out.S)
    assert m.R.tobytes() == R.tobytes() and m.S.tobytes() == S.tobytes()


def test_a_node_in_the_polar_state_is_caught_on_entry(monkeypatch):
    grid = build_grid(128, -6.0, 6.0)
    spec = make_system("harmonic", m=1.0, omega=1.0)
    m = to_polar(gaussian_packet(grid, sigma=0.9))
    R = m.R.copy()
    R[40] = 0.0
    R /= np.sqrt(integrate(R ** 2, grid))
    nodey = replace(m, R=R)
    shapes = _record_kernel_shapes(monkeypatch)
    with pytest.raises(NodeError, match="polar state"):
        step_coupled_pde(nodey, spec, 1e-4, steps=1)
    assert shapes == []
