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
from stochaction.lattice import GridSpec, build_grid, gradient, integrate
from stochaction.madelung import (CHECK_EVERY, PhasePair, default_timestep,
                                  from_polar, pair_from_wave,
                                  quantum_potential, step_coupled_pde,
                                  to_polar)

H_QUANTUM = 2.0 * np.pi   # one whole phase quantum at unit scale


@pytest.fixture(scope="module")
def ground_384():
    grid = build_grid(384, -4.6, 4.6)
    spec = make_system("harmonic", m=1.0, omega=1.0)
    H = build_quantum_hamiltonian(spec, grid, 1.0)
    _, gs = ground_state(H)
    return grid, spec, gs


def _offset_pair(state, quanta=1):
    """The pair of `state` whose minus branch sits `quanta` whole quanta
    2 pi hbar below its plus branch."""
    return PhasePair(plus=to_polar(state),
                     S0=quanta * H_QUANTUM * state.hbar_eff)


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


# ---------------------------------------------------------------------------
# branch pair bookkeeping


def test_pair_from_wave_shares_amplitude_and_has_no_offset(ground_384):
    _, _, gs = ground_384
    pair = pair_from_wave(gs)
    assert pair.S0 == 0.0
    assert pair.plus.R.tobytes() == pair.minus.R.tobytes()
    assert pair.plus.lam == 1.0 and pair.minus.lam == -1.0
    # S - (S - 0.0) is exact: the branches agree byte for byte, and the
    # offset between them is 0.0 at every point and in the mean
    assert pair.minus.S.tobytes() == pair.plus.S.tobytes()
    diff = pair.plus.S - pair.minus.S
    assert not np.any(diff) and np.mean(diff) == 0.0


@pytest.mark.parametrize("case", OFFSET_STATES)
def test_the_branch_offset_is_S0_to_the_rounding_of_the_largest_S(case):
    # minus.S is plus.S - S0 byte for byte.  S_plus - S_minus rounds twice,
    # S_plus - S0 and the difference back, half an ulp each of the largest
    # |S|; the mean over the grid adds the rounding of numpy's pairwise sum
    # (at most 3 ulps measured, over the states and grids named above)
    pair = _offset_pair(OFFSET_STATES[case]())
    plus, minus = pair.plus, pair.minus
    assert minus.S.tobytes() == (plus.S - pair.S0).tobytes()
    diff = plus.S - minus.S
    ulp = _ulp_of_largest(plus.S, minus.S, pair.S0)
    assert np.max(np.abs(diff - pair.S0)) <= ulp
    assert abs(np.mean(diff) - pair.S0) <= 4 * ulp
    if case == "wide":
        # where |S - 2 pi| reaches 8, bytes would be the wrong test
        assert np.any(diff != pair.S0)


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
    pair = _offset_pair(gs)
    out = step_coupled_pde(pair, spec, 5e-4, steps=2000)   # T = 1
    assert out.S0 == pair.S0
    assert out.minus.S.tobytes() == (out.plus.S - pair.S0).tobytes()
    diff = out.plus.S - out.minus.S
    assert np.max(np.abs(diff - pair.S0)) <= _ulp_of_largest(
        out.plus.S, out.minus.S, pair.S0)


def test_amplitude_symmetry_is_preserved(ground_384):
    _, spec, gs = ground_384
    pair = _offset_pair(gs)
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
    pair = _offset_pair(gs)
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
    pair = _offset_pair(gs)
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
    pair = replace(pair, plus=replace(pair.plus, lam=5e-324))
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
    # an offset that makes no minus branch
    for S0 in (np.inf, np.nan):
        with pytest.raises(ConfigurationError, match="S0 must be finite"):
            step_coupled_pde(replace(pair, S0=S0), spec, 1e-4, steps=1)


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
# the minus branch is the plus branch shifted by S0; one kernel row


@pytest.mark.parametrize("quanta", (0, 1))
def test_the_minus_branch_is_the_plus_branch_shifted_by_S0(ground_384, quanta):
    # a signed zero equals its opposite by value but not by bytes
    _, _, gs = ground_384
    pair = _offset_pair(gs, quanta)
    assert pair.plus.S[0] == 0.0
    if quanta == 0:
        S = pair.plus.S.copy()
        S[0] = -0.0
        pair = replace(pair, plus=replace(pair.plus, S=S))
    minus = pair.minus
    assert minus.R.tobytes() == pair.plus.R.tobytes()
    assert minus.S.tobytes() == (pair.plus.S - pair.S0).tobytes()
    if quanta == 0:
        assert minus.S.tobytes() == pair.plus.S.tobytes()
        assert np.signbit(minus.S[0])
    assert minus.lam == -pair.plus.lam and minus.t == pair.plus.t
    assert minus.grid == pair.plus.grid
    assert not np.shares_memory(minus.R, pair.plus.R)
    assert not np.shares_memory(minus.S, pair.plus.S)
    # a pair whose branches disagree cannot be built
    with pytest.raises(TypeError):
        madelung.PhasePair(plus=pair.plus, minus=minus, S0=pair.S0)


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
    step_coupled_pde(_offset_pair(gs, quanta), spec, 5e-4,
                     steps=CHECK_EVERY + 1)
    assert shapes == [(2, grid.n)] * 2


@pytest.mark.parametrize("quanta", (0, 1))
def test_the_stepper_equals_one_row_kernel_windows_bitwise(ground_384, quanta):
    # the reference is the plus row run directly in the stepper's guard
    # windows, each restarting from the guarded amplitude
    grid, spec, gs = ground_384
    pair = _offset_pair(gaussian_packet(grid, sigma=0.8, momentum=0.9,
                                        center=0.3), quanta)
    dt, steps = 5e-4, 2 * CHECK_EVERY + 1
    out = step_coupled_pde(pair, spec, dt, steps=steps)
    pts = grid.points()
    tables = [np.asarray(f(pts), dtype=float)
              for f in (spec.g, spec.dg, spec.V)]
    y = np.empty((2, grid.n))
    R = pair.plus.R
    y[1] = pair.plus.S
    for chunk in (CHECK_EVERY, CHECK_EVERY, 1):
        np.square(R, out=y[0])
        run_madelung_window(y, *tables, grid.dq, dt, chunk, 1.0)
        R = np.sqrt(np.maximum(y[0], 0.0))
    for m, S in ((out.plus, y[1]), (out.minus, y[1] - pair.S0)):
        assert m.R.tobytes() == R.tobytes()
        assert m.S.tobytes() == S.tobytes()
        assert m.t == pair.plus.t + dt * CHECK_EVERY + dt * CHECK_EVERY + dt
    assert out.S0 == pair.S0


def test_the_branches_of_a_one_row_result_share_no_memory(ground_384):
    _, spec, gs = ground_384
    out = step_coupled_pde(pair_from_wave(gs), spec, 5e-4, steps=1)
    assert not np.shares_memory(out.plus.R, out.minus.R)
    assert not np.shares_memory(out.plus.S, out.minus.S)


def test_a_node_in_the_plus_branch_is_caught_on_entry(monkeypatch):
    grid = build_grid(128, -6.0, 6.0)
    spec = make_system("harmonic", m=1.0, omega=1.0)
    pair = pair_from_wave(gaussian_packet(grid, sigma=0.9))
    R = pair.plus.R.copy()
    R[40] = 0.0
    R /= np.sqrt(integrate(R ** 2, grid))
    nodey = replace(pair, plus=replace(pair.plus, R=R))
    shapes = _record_kernel_shapes(monkeypatch)
    with pytest.raises(NodeError, match="plus branch"):
        step_coupled_pde(nodey, spec, 1e-4, steps=1)
    assert shapes == []
