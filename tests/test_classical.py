"""Symplectic phase-space integration, path actions, and the
path-stationarity residual."""
import numpy as np
import pytest

from path_action import action_of_path, euler_lagrange_residual, hamiltonian_value
from stochaction.classical import (IMPLICIT_MAX_ITER, IMPLICIT_TOL, PathRecord,
                                   PhasePoint, hamilton_step, integrate_path)
from stochaction.errors import ConfigurationError, ShapeError
from stochaction.hamiltonian import make_system


def _harmonic():
    return make_system("harmonic", m=1.0, omega=1.0)


def test_free_particle_step_is_exact():
    spec = make_system("free", m=2.0)
    pt = hamilton_step(PhasePoint(1.0, 3.0), spec, 0.25)
    assert pt.q == pytest.approx(1.0 + 3.0 / 2.0 * 0.25, abs=1e-15)
    assert pt.p == 3.0
    assert pt.t == 0.25


def test_one_period_returns_to_the_start():
    # an exact-period step count keeps the time horizon commensurate, so
    # the return error is the integrator's own phase error (measured
    # |dq| = 3.0e-14, |dp| = 2.6e-7 at this resolution)
    spec = _harmonic()
    steps = 6283
    dt = 2.0 * np.pi / steps   # ~1e-3
    pt = PhasePoint(1.0, 0.0)
    for _ in range(steps):
        pt = hamilton_step(pt, spec, dt)
    assert abs(pt.q - 1.0) < 1e-5
    assert abs(pt.p) < 1e-5


def test_energy_drift_is_bounded_over_long_runs():
    # second-order energy oscillation, no secular drift: measured end
    # deviation 7.4e-10 and sampled worst 2.5e-9 relative at this dt
    spec = _harmonic()
    pt = PhasePoint(1.0, 0.0)
    E0 = hamiltonian_value(pt.q, pt.p, spec)
    dt = 1e-4
    for _ in range(100000):
        pt = hamilton_step(pt, spec, dt)
    E1 = hamiltonian_value(pt.q, pt.p, spec)
    assert abs(E1 - E0) / E0 < 1e-8


def test_variable_mass_step_conserves_energy():
    spec = make_system("variable_mass", m=1.0, omega=1.0, beta=0.3)
    pt = PhasePoint(0.8, 0.4)
    E0 = hamiltonian_value(pt.q, pt.p, spec)
    for _ in range(2000):
        pt = hamilton_step(pt, spec, 1e-3)
    E1 = hamiltonian_value(pt.q, pt.p, spec)
    assert abs(E1 - E0) / abs(E0) < 1e-6


def test_integrate_path_records_uniform_times():
    spec = _harmonic()
    path = integrate_path(PhasePoint(0.5, 0.0), spec, 1e-2, 100)
    assert len(path.qs) == 101
    assert path.ts[0] == 0.0
    assert np.max(np.abs(np.diff(path.ts) - 1e-2)) < 1e-12


def test_action_vanishes_at_rest_at_the_well_bottom():
    spec = _harmonic()
    path = integrate_path(PhasePoint(0.0, 0.0), spec, 1e-3, 100)
    assert action_of_path(path, spec) == 0.0


def test_free_particle_unit_time_action():
    spec = make_system("free", m=1.0)
    path = integrate_path(PhasePoint(0.0, 1.0), spec, 1e-3, 1000)
    assert action_of_path(path, spec) == pytest.approx(0.5, abs=1e-12)


def test_half_period_action_converges_at_second_order():
    # analytic half-period action is zero for any start point.  The
    # kick-drift-kick path is q_k = q0 cos(k theta) + (p0/s) sin(k theta),
    # p_k = p0 cos(k theta) - s q0 sin(k theta), with cos(theta) = 1 - dt^2/2
    # and s = sin(theta)/dt: it overshoots the half turn by pi dt^2/24 and
    # its ellipse is distorted by s = 1 - dt^2/8.  Together these give the
    # defect -(pi/24)(2 q0^2 + p0^2) dt^2 + O(dt^4).  The trapezoid rule
    # adds nothing at order dt^2: on the exact path the Lagrangian is
    # pi-periodic.  Measured deviation from the closed form <= 6.2e-8.
    spec = _harmonic()
    for q0, p0 in ((0.8, 0.3), (1.0, 0.0), (0.0, 1.0)):
        defect = -np.pi / 24.0 * (2.0 * q0 * q0 + p0 * p0)
        for steps in (3000, 6000):
            dt = np.pi / steps
            path = integrate_path(PhasePoint(q0, p0), spec, dt, steps)
            assert action_of_path(path, spec) / dt ** 2 == pytest.approx(defect, abs=1e-5)


def test_action_of_path_validates_nonuniform_times():
    ts = np.array([0.0, 0.1, 0.25])
    with pytest.raises(ShapeError):
        PathRecord(qs=np.zeros(3), ps=np.zeros(3), ts=ts, dt=0.1)


def test_residual_of_true_trajectory_is_second_order():
    # interior stencil constant 0.2136 dt^2, measured at two resolutions
    spec = _harmonic()
    vals = []
    for dt in (1e-2, 5e-3):
        steps = int(round(1.0 / dt))
        path = integrate_path(PhasePoint(0.8, 0.3), spec, dt, steps)
        res = euler_lagrange_residual(path, spec)
        vals.append(np.max(np.abs(res)) / dt ** 2)
    assert vals[0] == pytest.approx(0.2136, abs=0.01)
    assert vals[1] == pytest.approx(0.2136, abs=0.01)


def test_residual_grows_linearly_with_path_perturbation():
    spec = _harmonic()
    dt = 1e-2
    steps = 100
    path = integrate_path(PhasePoint(0.8, 0.3), spec, dt, steps)
    T = steps * dt
    maxima = []
    for eps in (0.05, 0.1):
        bump = eps * np.sin(np.pi * path.ts / T)
        qs = path.qs + bump
        # momentum consistent with the perturbed coordinate path
        ps = np.gradient(qs, dt)
        perturbed = PathRecord(qs=qs, ps=ps, ts=path.ts, dt=dt)
        maxima.append(np.max(np.abs(euler_lagrange_residual(perturbed, spec))))
    ratio = maxima[1] / maxima[0]
    assert abs(ratio - 2.0) < 0.2   # measured 2.0002


def test_residual_of_straight_free_path_is_zero():
    spec = make_system("free", m=1.0)
    path = integrate_path(PhasePoint(-0.5, 1.0), spec, 0.1, 20)
    assert np.max(np.abs(euler_lagrange_residual(path, spec))) < 1e-12


def test_residual_needs_enough_samples():
    spec = _harmonic()
    path = integrate_path(PhasePoint(0.5, 0.0), spec, 1e-2, 4)
    with pytest.raises(ShapeError):
        euler_lagrange_residual(path, spec)


def test_action_is_stationary_under_endpoint_fixed_variations():
    # sinusoidal variations vanishing at the endpoints: the action's
    # first difference is second order in the variation amplitude
    spec = _harmonic()
    dt = 1e-3
    steps = 1000
    path = integrate_path(PhasePoint(0.8, 0.3), spec, dt, steps)
    T = steps * dt

    def action_of_coordinates(qs):
        # momenta consistent with the coordinate path (m = 1, A = 0), so
        # the comparison isolates the variation and not the p-construction
        ps = np.gradient(qs, dt)
        return action_of_path(PathRecord(qs=qs, ps=ps, ts=path.ts, dt=dt), spec)

    S0 = action_of_coordinates(path.qs)
    deltas = []
    for eps in (1e-3, 2e-3):
        bump = eps * np.sin(np.pi * path.ts / T)
        deltas.append(abs(action_of_coordinates(path.qs + bump) - S0))
    # quadrupling, not doubling, under eps -> 2 eps
    assert deltas[1] / deltas[0] == pytest.approx(4.0, rel=0.2)


# ---------------------------------------------------------------------------
# the stepper on plain floats against the numpy expressions it replaced


def _numpy_presets(preset, m=1.0, omega=1.0, beta=0.3, a0=0.0, a1=0.0):
    """(g, A, V, dg, dA, dV) of a preset as numpy expressions on float64
    arrays, which return a 0-d array for a scalar: the reference the
    presets must match bit for bit, arrays and Python floats alike."""
    arr = lambda q: np.asarray(q, dtype=float)
    zero = lambda q: np.zeros_like(arr(q))
    inv_m = lambda q: np.full_like(arr(q), 1.0 / m)
    V = lambda q: 0.5 * m * omega * omega * arr(q) ** 2
    dV = lambda q: m * omega * omega * arr(q)
    if preset == "free":
        return inv_m, zero, zero, zero, zero, zero
    if preset == "harmonic":
        return inv_m, zero, V, zero, zero, dV
    if preset == "variable_mass":
        return (lambda q: 1.0 / (m * (1.0 + beta * arr(q) * arr(q))), zero, V,
                lambda q: (-2.0 * beta * arr(q)
                           / (m * (1.0 + beta * arr(q) * arr(q))) ** 2),
                zero, dV)
    return (inv_m, lambda q: a0 + a1 * arr(q), V, zero,
            lambda q: np.full_like(arr(q), a1), dV)


def _numpy_path(fns, q, p, dt, steps, implicit):
    """The kick-drift-kick or implicit-midpoint loop with every function
    value taken as float() of a 0-d array."""
    g, A, V, dg, dA, dV = fns
    f = lambda fn, x: float(fn(x))
    velocity = lambda q, p: float(g(q) * (p - A(q)))
    qs, ps = [q], [p]
    for _ in range(steps):
        if not implicit:
            p_half = p - 0.5 * dt * f(dV, q)
            q = q + dt * velocity(q, p_half)
            p = p_half - 0.5 * dt * f(dV, q)
        else:
            q_new, p_new = q, p
            for _ in range(IMPLICIT_MAX_ITER):
                qm, pm = 0.5 * (q + q_new), 0.5 * (p + p_new)
                dp = pm - f(A, qm)
                grad = (0.5 * f(dg, qm) * dp * dp - f(g, qm) * dp * f(dA, qm)
                        + f(dV, qm))
                q_next = q + dt * velocity(qm, pm)
                p_next = p - dt * grad
                delta = max(abs(q_next - q_new), abs(p_next - p_new))
                q_new, p_new = q_next, p_next
                if delta < IMPLICIT_TOL * (1.0 + abs(q_new) + abs(p_new)):
                    break
            q, p = q_new, p_new
        qs.append(q)
        ps.append(p)
    return np.array(qs), np.array(ps)


PRESETS = [
    ("free", {"m": 2.0}),
    ("harmonic", {"m": 1.3, "omega": 0.7}),
    ("gauged", {"omega": 1.1, "a0": 0.4}),
    ("variable_mass", {"omega": 0.9, "beta": 0.0}),
    ("variable_mass", {"omega": 0.9, "beta": 0.3}),
]


@pytest.mark.parametrize("preset,params", PRESETS)
def test_integrate_path_is_the_numpy_stepper_bit_for_bit(preset, params):
    spec = make_system(preset, **params)
    # separable presets take kick-drift-kick, beta > 0 the implicit midpoint
    assert spec.kinetic_q_dependent == (params.get("beta", 0.0) > 0.0)
    dt, steps = 1e-2, 400
    path = integrate_path(PhasePoint(0.8, -0.3), spec, dt, steps)
    qs, ps = _numpy_path(_numpy_presets(preset, **params), 0.8, -0.3, dt,
                         steps, spec.kinetic_q_dependent)
    assert path.qs.tobytes() == qs.tobytes()
    assert path.ps.tobytes() == ps.tobytes()
    pt = PhasePoint(0.8, -0.3)
    for _ in range(3):
        pt = hamilton_step(pt, spec, dt)
    assert (pt.q, pt.p) == (path.qs[3], path.ps[3])


@pytest.mark.parametrize("preset,params", PRESETS + [
    ("gauged", {"a0": -0.2, "a1": 0.5}), ("gauged", {"a1": -0.0})])
def test_preset_functions_keep_the_numpy_bytes(preset, params):
    # negative q, both signed zeros and a NaN: zeros_like writes +0.0 where
    # 0.0 * q would write -0.0 or NaN, and dg at beta = 0 is a signed zero
    q = np.concatenate((np.linspace(-3.0, 3.0, 13), [-0.0, 0.0, np.nan]))
    spec = make_system(preset, **params)
    mine = (spec.g, spec.A, spec.V, spec.dg, spec.dA, spec.dV)
    for fn, ref in zip(mine, _numpy_presets(preset, **params)):
        assert fn(q).dtype == np.float64
        assert fn(q).tobytes() == ref(q).tobytes()
        for x in q.tolist():
            assert type(fn(x)) is float
            assert np.float64(fn(x)).tobytes() == ref(x).tobytes()


def test_integrate_path_refuses_a_bad_step_or_step_count():
    spec = _harmonic()
    for dt in (0.0, np.inf, np.nan):
        with pytest.raises(ConfigurationError, match="dt"):
            integrate_path(PhasePoint(0.5, 0.0), spec, dt, 10)
        with pytest.raises(ConfigurationError, match="dt"):
            hamilton_step(PhasePoint(0.5, 0.0), spec, dt)
    for steps in (0, 2.5, "3"):
        with pytest.raises(ConfigurationError, match="steps"):
            integrate_path(PhasePoint(0.5, 0.0), spec, 1e-2, steps)
    path = integrate_path(PhasePoint(0.5, 0.0), spec, 1e-2, np.int64(3))
    assert len(path.qs) == 4
