"""Counter-based RNG keying, the streams the samplers draw from it, the
sharded ensemble kernel and the compiled batched polar-pair RK4 kernel."""
import math
import os
import sysconfig
from dataclasses import replace

import numpy as np
import pytest

from stochaction import kernels
from stochaction.errors import ConfigurationError, NumericalError, ShapeError
from stochaction.evolution import gaussian_packet
from stochaction.hamiltonian import make_system
from stochaction.kernels import (_BLOCK, _K_PID, _SHARD_MIN, DOMAIN_DEVIATION,
                                 DOMAIN_LAMBDA, DOMAIN_SOURCE, SRC_BINARY,
                                 SRC_SMEARED, SRC_SPHERE, _base_key,
                                 _slot_key, _uniform_into, counter_uniform,
                                 run_ensemble_window, run_madelung_window,
                                 source_lambda_into)
from stochaction.lattice import (build_grid, gradient_uniform,
                                 second_derivative_uniform)
from stochaction.madelung import pair_from_wave, step_coupled_pde
from stochaction.stochastic import (LambdaSource, sample_action_deviation,
                                    sample_lambda)

pids = np.arange(256)


# ---------------------------------------------------------------------------
# counter-based RNG


def test_counter_uniform_is_a_pure_function_of_its_keys():
    a = counter_uniform(7, 2, 13, pids, 0)
    b = counter_uniform(7, 2, 13, pids, 0)
    assert np.array_equal(a, b)


def test_counter_uniform_lands_in_the_half_open_unit_interval():
    u = counter_uniform(0, 1, 0, np.arange(100_000), 0)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01


def test_every_key_component_opens_a_distinct_stream():
    base = counter_uniform(7, 2, 13, pids, 0)
    for other in (
        counter_uniform(8, 2, 13, pids, 0),
        counter_uniform(7, 3, 13, pids, 0),
        counter_uniform(7, 2, 14, pids, 0),
        counter_uniform(7, 2, 13, pids, 1),
    ):
        assert not np.array_equal(base, other)
    shifted = counter_uniform(7, 2, 13, pids + 1, 0)
    assert not np.array_equal(base, shifted)
    # ... but shifting the pid window only relabels the same stream
    assert np.array_equal(base[1:], shifted[:-1])


def test_counter_uniform_rejects_negative_keys():
    with pytest.raises(ConfigurationError):
        counter_uniform(-1, 2, 13, pids, 0)
    with pytest.raises(ConfigurationError):
        counter_uniform(7, -2, 13, pids, 0)
    with pytest.raises(ConfigurationError):
        counter_uniform(7, 2, -13, pids, 0)


def test_counter_uniform_reproduces_pinned_values():
    # the first draws of two streams, as the one-shot hash gave them
    assert [float(u).hex() for u in counter_uniform(0, 1, 0, [0, 1, 2], 0)] \
        == ["0x1.ba7cbf14f5658p-1", "0x1.be95a38db98aep-2",
            "0x1.9603c5f8a28dep-1"]
    assert [float(u).hex() for u in counter_uniform(7, 2, 13, [5, 70000], 1)] \
        == ["0x1.b1d410485a888p-1", "0x1.1b6c2b8401b23p-1"]


# The streams written out in one shot: every key hashed at once, over the
# whole array, with the splitmix64 finalizer and the key multipliers as
# literals.  The kernel hashes in blocks; these pin it to the same bits.

def _splitmix(x):
    x = x ^ (x >> np.uint64(30))
    x = x * np.uint64(0xBF58476D1CE4E5B9)
    x = x ^ (x >> np.uint64(27))
    x = x * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _reference_uniform(seed, domain, step, pids, slot):
    u64 = np.uint64
    with np.errstate(over="ignore"):
        b = _splitmix(u64(seed) * u64(0x9E3779B97F4A7C15)
                      ^ u64(domain) * u64(0xD1342543DE82EF95))
        b = _splitmix(b ^ u64(step) * u64(0xDABA0B6EB09322E3))
        x = _splitmix(b ^ np.asarray(pids, dtype=u64) * u64(0xC2B2AE3D27D4EB4F)
                      ^ u64(slot) * u64(0x165667B19E3779F9))
        return (x >> u64(11)).astype(np.float64) * 2.0 ** -53


def _reference_lambda(source, n, step, domain=DOMAIN_SOURCE):
    pids = np.arange(n, dtype=np.uint64)
    u1 = _reference_uniform(source.seed, domain, step, pids, 0)
    if source.kind == "binary":
        return np.where(u1 < 0.5, source.hbar, -source.hbar)
    if source.kind == "sphere":
        z = 2.0 * u1 - 1.0
        return np.where(z >= 0.0, source.hbar, -source.hbar)
    u2 = _reference_uniform(source.seed, domain, step, pids, 1)
    mag = source.hbar + source.width * math.sqrt(3.0) * (2.0 * u2 - 1.0)
    return np.where(u1 < 0.5, mag, -mag)


def _reference_deviation(lam, n, seed, step):
    u = _reference_uniform(seed, DOMAIN_DEVIATION, step,
                           np.arange(n, dtype=np.uint64), 0)
    return np.sign(lam) * (-0.5 * np.abs(lam) * np.log1p(-u))


def _same_bits(a, b):
    # np.array_equal would take -0.0 for +0.0
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


SIZES = (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 17)
SOURCES = (LambdaSource("binary", 1.3, seed=9),
           LambdaSource("sphere", 0.7, seed=9),
           LambdaSource("smeared", 1.3, width=0.3, seed=9))


@pytest.mark.parametrize("size", SIZES)
def test_blocked_counter_uniform_equals_the_one_shot_hash_bitwise(size):
    for p in (np.arange(size, dtype=np.uint64), np.arange(size) + 1):
        got = counter_uniform(7, 2, 13, p, 1)
        want = _reference_uniform(7, 2, 13, p, 1)
        assert got.shape == (size,) and got.dtype == np.float64
        assert _same_bits(got, want)


def test_counter_uniform_keeps_the_shape_of_its_pids():
    scalar = counter_uniform(3, 4, 5, 11, 0)
    assert type(scalar) is np.float64
    assert _same_bits(scalar, _reference_uniform(3, 4, 5, 11, 0))
    grid = np.arange(5 * 40_000).reshape(5, 40_000)[:, ::-1]
    got = counter_uniform(3, 4, 5, grid, 0)
    assert got.shape == grid.shape
    assert _same_bits(got, _reference_uniform(3, 4, 5, grid, 0))
    assert counter_uniform(3, 4, 5, np.arange(0), 0).shape == (0,)


@pytest.mark.parametrize("source", SOURCES, ids=lambda s: s.kind)
def test_sample_lambda_equals_the_written_out_sources_bitwise(source):
    for size in (1, 3 * _BLOCK + 17):
        assert _same_bits(sample_lambda(source, size, step=4),
                              _reference_lambda(source, size, 4))
    assert sample_lambda(source, step=4) == _reference_lambda(source, 1, 4)[0]


@pytest.mark.parametrize("kind", (SRC_BINARY, SRC_SPHERE, SRC_SMEARED))
def test_source_lambda_splits_the_uniforms_exactly_at_one_half(kind):
    eps = 2.0 ** -53
    u1 = np.array([0.0, 0.25, 0.5 - eps, 0.5, 0.5 + eps, 0.75, 1.0 - eps])
    u2 = np.linspace(0.0, 1.0 - eps, u1.size)
    for mag0, jitter in ((1.3, 0.4), (0.0, 0.0)):
        if kind == SRC_SPHERE:
            positive = 2.0 * u1 - 1.0 >= 0.0
        else:
            positive = u1 < 0.5
        mag = mag0 + jitter * (2.0 * u2 - 1.0) if kind == SRC_SMEARED else mag0
        out = np.empty_like(u1)
        source_lambda_into(kind, u1, u2.copy(), mag0, jitter, out)
        assert _same_bits(out, np.where(positive, mag, -mag))


def test_sample_action_deviation_equals_the_written_out_law_bitwise():
    size = 3 * _BLOCK + 17
    lam = sample_lambda(SOURCES[2], size)
    assert _same_bits(sample_action_deviation(lam, seed=5, step=2),
                          _reference_deviation(lam, size, 5, 2))
    for scalar in (0.7, -2.0):
        assert _same_bits(
            sample_action_deviation(scalar, size, seed=5, step=2),
            _reference_deviation(scalar, size, 5, 2))
    assert (sample_action_deviation(-2.0, seed=4, step=9)
            == _reference_deviation(-2.0, 1, 4, 9)[0])


@pytest.mark.parametrize("source", SOURCES, ids=lambda s: s.kind)
def test_ensemble_draws_the_written_out_sources_bitwise(source):
    # one micro step with zero fields: every particle stays put and takes
    # the scale drawn for it from the ensemble's own stream
    m, n = _BLOCK + 3, 16
    qs = np.zeros(m)
    lams, logws, frozen = np.zeros(m), np.zeros(m), np.zeros(m, np.uint8)
    zero = np.zeros(n)
    run_ensemble_window(qs, lams, logws, frozen, zero, zero, zero, -1.0,
                        2.0 / (n - 1), 1e-3, 1, step0=6, seed=source.seed,
                        src_kind=source.kind_index, mag0=source.hbar,
                        jitter=source.width * math.sqrt(3.0),
                        freeze_lo=-0.9, freeze_hi=0.9)
    assert _same_bits(lams, _reference_lambda(source, m, 6, DOMAIN_LAMBDA))
    assert not frozen.any()


# ---------------------------------------------------------------------------
# sharded ensemble window


def _reference_ensemble_window(qs, lams, logws, frozen, vb, osm, th, q_min,
                               dq, dt, n_sub, step0, seed, src_kind, mag0,
                               jitter, freeze_lo, freeze_hi):
    """The window in one thread, all particles in one set of arrays."""
    n = vb.shape[0]
    m = qs.shape[0]
    pid_keys = np.arange(m, dtype=np.uint64) * _K_PID
    x, tmp = np.empty(m, np.uint64), np.empty(m, np.uint64)
    u1, u2, cell, w, a, b, c = (np.empty(m) for _ in range(7))
    j, j1 = np.empty(m, np.int64), np.empty(m, np.int64)
    active, out, mask = (np.empty(m, bool) for _ in range(3))

    def lerp(table, dst):
        np.take(table, j, out=c)
        np.take(table, j1, out=dst)
        dst -= c
        dst *= w
        dst += c

    with np.errstate(over="ignore"):
        for k in range(n_sub):
            gstep = step0 + k
            np.equal(frozen, 0, out=active)
            base = _base_key(seed, DOMAIN_LAMBDA, gstep)
            _uniform_into(pid_keys, _slot_key(base, 0), x, tmp, u1)
            if src_kind == SRC_SMEARED:
                _uniform_into(pid_keys, _slot_key(base, 1), x, tmp, u2)
            source_lambda_into(src_kind, u1, u2, mag0, jitter, a)
            np.copyto(lams, a, where=active)

            np.subtract(qs, q_min, out=cell)
            cell /= dq
            np.floor(cell, out=a)
            np.clip(a, 0, n - 2, out=a)
            j[...] = a
            np.add(j, 1, out=j1)
            np.subtract(cell, a, out=w)
            np.clip(w, 0.0, 1.0, out=w)
            lerp(vb, a)
            lerp(osm, b)
            b *= lams
            a += b
            a *= dt
            a += qs
            np.less(a, freeze_lo, out=out)
            np.greater(a, freeze_hi, out=mask)
            out |= mask
            np.maximum(a, freeze_lo, out=a, where=out)
            np.minimum(a, freeze_hi, out=a, where=out)
            lerp(th, b)
            b *= dt
            np.subtract(logws, b, out=logws, where=active)
            np.copyto(qs, a, where=active)
            active &= out
            np.copyto(frozen, 1, where=active)


@pytest.fixture(params=(1, 2, 4), ids=("workers1", "workers2", "workers4"))
def workers(request, monkeypatch):
    """The kernel run as if the process could use 1, 2 or 4 CPUs, with a
    fresh pool; 4 shards on a 2-CPU machine also interleave."""
    monkeypatch.setattr(kernels, "_WORKERS", request.param)
    monkeypatch.setattr(kernels, "_pool", None)
    yield request.param
    if kernels._pool is not None:
        kernels._pool.shutdown()


ENSEMBLE_SIZES = (1, 2 * _SHARD_MIN - 1, 2 * _SHARD_MIN, 2 * _SHARD_MIN + 1,
                  100_003)
# (src_kind, mag0, jitter); the last is the lambda-disabled (Bohmian) path,
# whose scales are signed zeros
ENSEMBLE_SOURCES = {"binary": (SRC_BINARY, 1.3, 0.0),
                    "sphere": (SRC_SPHERE, 0.7, 0.0),
                    "smeared": (SRC_SMEARED, 1.3, 0.5),
                    "disabled": (SRC_BINARY, 0.0, 0.0)}


@pytest.mark.parametrize("m", ENSEMBLE_SIZES)
@pytest.mark.parametrize("source", ENSEMBLE_SOURCES)
def test_sharded_window_equals_the_single_threaded_window_bitwise(workers, m,
                                                                 source):
    # rough fields that push particles across the freeze bounds within the
    # window, with a tenth of the particles already frozen on entry
    rng = np.random.default_rng(m)
    n = 48
    tables = (3.0 * rng.normal(size=n), 20.0 * rng.normal(size=n),
              rng.normal(size=n))
    state = (rng.uniform(-0.95, 0.95, m), rng.normal(size=m),
             rng.normal(size=m), (rng.uniform(size=m) < 0.1).astype(np.uint8))
    args = (*tables, -1.0, 2.0 / (n - 1), 1e-2, 12)
    kwargs = dict(step0=30, seed=5, src_kind=ENSEMBLE_SOURCES[source][0],
                  mag0=ENSEMBLE_SOURCES[source][1],
                  jitter=ENSEMBLE_SOURCES[source][2],
                  freeze_lo=-0.9, freeze_hi=0.9)
    got = [a.copy() for a in state]
    want = [a.copy() for a in state]
    run_ensemble_window(*got, *args, **kwargs)
    _reference_ensemble_window(*want, *args, **kwargs)
    for g, w in zip(got, want):
        assert _same_bits(g, w)
    assert (kernels._pool is not None) == (workers > 1 and m >= 2 * _SHARD_MIN)
    if m == 1:
        return
    entered, left = np.count_nonzero(state[3]), np.count_nonzero(got[3])
    assert 0 < entered < left < m
    if source == "disabled":
        moving = got[1][got[3] == 0]
        assert np.all(moving == 0.0)
        assert np.signbit(moving).any() and not np.signbit(moving).all()


# ---------------------------------------------------------------------------
# batched polar-pair RK4, compiled from _polar.c


def _branch_batch():
    """Two different branches on the harmonic grid, stacked as one
    (2, 2, n) batch (densities, then phases), with the field tables."""
    grid = build_grid(128, -5.0, 5.0)
    spec = make_system("harmonic")
    pts = grid.points()
    om = np.stack([np.exp(-(pts - 0.5) ** 2) / np.sqrt(np.pi),
                   np.exp(-(pts + 0.3) ** 2 / 1.2) / np.sqrt(1.2 * np.pi)])
    S = np.stack([0.4 * np.sin(0.5 * pts) + 0.3 * pts,
                  0.1 * np.cos(pts) - 0.2 * pts - 2.0 * np.pi])
    tables = [np.asarray(f(pts), dtype=float)
              for f in (spec.g, spec.dg, spec.A, spec.V)]
    return grid, np.stack([om, S]), tables


def _run(y, grid, tables, n_steps=40):
    y = y.copy()
    run_madelung_window(y, *tables, grid.dq, 5e-4, n_steps, 1.0)
    return y


def _reference_rhs(om, S, g, dg, A, V, dq, lam):
    # one branch, written out with the lattice stencils, in the kernel's
    # order of operations
    dS = gradient_uniform(S, dq)
    dom = -gradient_uniform(g * (dS - A) * om, dq)
    R = np.sqrt(np.maximum(om, 1e-300))
    qp = (-0.5 * lam * lam * (g * second_derivative_uniform(R, dq)
                              + dg * gradient_uniform(R, dq)) / R)
    dSdt = -(0.5 * g * (dS - A) * (dS - A) + V + qp)
    h2 = dq * dq
    th = (S[1] - S[0] - dq * 0.5 * (A[0] + A[1])) / lam
    dom[0] = -(g[0] * lam / h2) * R[0] * R[1] * math.sin(th)
    dSdt[0] = (g[0] * (0.5 * lam * lam) / h2) * (
        (R[1] / R[0]) * math.cos(th) - 2.0) - V[0]
    th = (S[-1] - S[-2] - dq * 0.5 * (A[-2] + A[-1])) / lam
    dom[-1] = (g[-1] * lam / h2) * R[-2] * R[-1] * math.sin(th)
    dSdt[-1] = (g[-1] * (0.5 * lam * lam) / h2) * (
        (R[-2] / R[-1]) * math.cos(th) - 2.0) - V[-1]
    return dom, dSdt


def _reference_run(om, S, tables, dq, dt, n_steps, lam=1.0):
    om, S = om.copy(), S.copy()
    for _ in range(n_steps):
        k1 = _reference_rhs(om, S, *tables, dq, lam)
        k2 = _reference_rhs(om + 0.5 * dt * k1[0], S + 0.5 * dt * k1[1],
                            *tables, dq, lam)
        k3 = _reference_rhs(om + 0.5 * dt * k2[0], S + 0.5 * dt * k2[1],
                            *tables, dq, lam)
        k4 = _reference_rhs(om + dt * k3[0], S + dt * k3[1], *tables, dq, lam)
        om += dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        S += dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    return om, S


def test_batched_kernel_matches_the_written_out_equations_bitwise():
    grid, y, tables = _branch_batch()
    out = _run(y, grid, tables)
    assert not np.array_equal(out, y)
    for b in range(2):
        om, S = _reference_run(y[0, b], y[1, b], tables, grid.dq, 5e-4, 40)
        assert np.array_equal(out[0, b], om)
        assert np.array_equal(out[1, b], S)


def test_a_branch_run_alone_equals_its_row_of_the_batch_bitwise():
    grid, y, tables = _branch_batch()
    both = _run(y, grid, tables)
    for b in range(2):
        alone = _run(y[:, b:b + 1], grid, tables)
        assert alone.shape == (2, 1, grid.n)
        assert np.array_equal(alone[:, 0], both[:, b])


def test_swapping_the_branch_rows_swaps_the_outputs_bitwise():
    grid, y, tables = _branch_batch()
    out = _run(y, grid, tables)
    swapped = _run(y[:, ::-1], grid, tables)
    assert np.array_equal(swapped, out[:, ::-1])


def _assert_matches_reference(y, out, tables, dq, dt, n_steps, lam):
    for b in range(y.shape[1]):
        om, S = _reference_run(y[0, b], y[1, b], tables, dq, dt, n_steps, lam)
        assert _same_bits(out[0, b], om)
        assert _same_bits(out[1, b], S)


def test_floored_densities_at_two_scales_match_the_reference_bitwise():
    # left tails that fall by 6.3 decades a cell through the density floor
    # to underflow, with negligible negatives and a signed zero below the
    # floor; a second scale weights the wall rows and the potential term
    # differently.  The steep tails drive a large potential term, so the
    # run is two short steps
    grid, y, tables = _branch_batch()
    y[0] *= 10.0 ** (-80.0 * np.clip(-1.0 - grid.points(), 0.0, None))
    assert (y[0, :, :5] < 1e-300).all()
    y[0, 0, 1] = -1e-310
    y[0, 1, :2] = -0.0, -3e-301
    for lam in (1.0, 0.5):
        out = y.copy()
        run_madelung_window(out, *tables, grid.dq, 1e-8, 2, lam)
        assert np.isfinite(out).all() and not _same_bits(out, y)
        _assert_matches_reference(y, out, tables, grid.dq, 1e-8, 2, lam)


def test_one_step_from_zero_phases_keeps_every_rounding_of_the_rhs():
    # after many steps a one-ulp change in a right-hand side term is
    # mostly lost when dt times it is added to the state; from S = 0 the
    # phases after one step are the RK4 sum of the stages itself
    grid, y, tables = _branch_batch()
    y[1] = 0.0
    for dt in (5e-4, 1e-2):
        out = y.copy()
        run_madelung_window(out, *tables, grid.dq, dt, 1, 1.0)
        assert np.isfinite(out).all()
        _assert_matches_reference(y, out, tables, grid.dq, dt, 1, 1.0)


def test_a_nan_density_turns_its_phase_nan_as_np_maximum_does():
    # the density floor must pass NaN through, as np.maximum does; C's
    # fmax would floor it and leave the phase finite
    grid, y, tables = _branch_batch()
    y[0, 0, 60] = np.nan
    out = y.copy()
    run_madelung_window(out, *tables, grid.dq, 5e-4, 1, 1.0)
    with np.errstate(invalid="ignore"):
        om, S = _reference_run(y[0, 0], y[1, 0], tables, grid.dq, 5e-4, 1)
    assert np.isnan(S[60])
    assert np.array_equal(np.isnan(out[1, 0]), np.isnan(S))
    assert np.array_equal(np.isnan(out[0, 0]), np.isnan(om))
    _assert_matches_reference(y[:, 1:], out[:, 1:], tables, grid.dq, 5e-4,
                              1, 1.0)


@pytest.fixture
def polar_cache(tmp_path, monkeypatch):
    """An empty build cache and no kernel loaded: the next call builds."""
    cache = tmp_path / "cache"
    monkeypatch.setattr(kernels, "_POLAR_CACHE", str(cache))
    monkeypatch.setattr(kernels, "_polar", None)
    return cache


def test_a_cold_build_loads_and_equals_the_reference_bitwise(polar_cache):
    grid, y, tables = _branch_batch()
    out = _run(y, grid, tables, n_steps=10)
    built = os.listdir(polar_cache)
    # one library, named by the hash, and no temporary file left behind
    assert len(built) == 1 and built[0].startswith("_polar-")
    assert built[0].endswith(".so")
    _assert_matches_reference(y, out, tables, grid.dq, 5e-4, 10, 1.0)
    # a fresh process finds the build in the cache and compiles nothing
    stamp = os.stat(polar_cache / built[0]).st_mtime_ns
    kernels._polar = None
    assert _same_bits(_run(y, grid, tables, n_steps=10), out)
    assert os.listdir(polar_cache) == built
    assert os.stat(polar_cache / built[0]).st_mtime_ns == stamp


@pytest.mark.parametrize("cc", ("no-such-c-compiler", "", None))
def test_a_missing_compiler_raises_and_leaves_no_numpy_path(polar_cache,
                                                           monkeypatch, cc):
    real = sysconfig.get_config_var
    monkeypatch.setattr(sysconfig, "get_config_var",
                        lambda name: cc if name == "CC" else real(name))
    grid, y, tables = _branch_batch()
    before = y.copy()
    with pytest.raises(ConfigurationError,
                       match=cc or "names no C compiler"):
        run_madelung_window(y, *tables, grid.dq, 5e-4, 10, 1.0)
    assert _same_bits(y, before)
    assert not polar_cache.exists() or os.listdir(polar_cache) == []
    assert kernels._polar is None


def _bad_inputs():
    grid, y, tables = _branch_batch()
    n = grid.n
    strided = np.zeros((2, 2, 2 * n))[:, :, ::2]
    strided[...] = y
    frozen = y.copy()
    frozen.flags.writeable = False
    short = [t[:-1] if i == 2 else t for i, t in enumerate(tables)]
    return {
        "non-contiguous y": (strided, tables),
        "float32 y": (y.astype(np.float32), tables),
        "read-only y": (frozen, tables),
        "one branch plane": (y[:1].copy(), tables),
        "table of length n - 1": (y, short),
        "n < 3": (np.ascontiguousarray(y[:, :, :2]),
                  [t[:2] for t in tables]),
    }


@pytest.mark.parametrize("case", _bad_inputs())
def test_bad_inputs_raise_before_the_kernel_is_reached(monkeypatch, case):
    def unreachable():
        raise AssertionError("the compiled kernel was reached")
    monkeypatch.setattr(kernels, "_polar_kernel", unreachable)
    y, tables = _bad_inputs()[case]
    with pytest.raises(ShapeError):
        run_madelung_window(y, *tables, 0.1, 5e-4, 1, 1.0)


def test_an_infinite_wall_phase_step_gives_nan_then_a_numerical_error():
    # at a scale of one subnormal the wall phase step (S_1 - S_0) / lam
    # overflows to infinity, where sin and cos are NaN; the scale's
    # square vanishes, so the interior right-hand side stays finite
    grid, y, tables = _branch_batch()
    tiny = 5e-324
    out = y.copy()
    run_madelung_window(out, *tables, grid.dq, 5e-4, 1, tiny)
    assert np.isnan(out[:, :, 0]).all() and np.isnan(out[:, :, -1]).all()
    assert np.isfinite(out[:, :, 8:-8]).all()

    spec = make_system("free")
    pair = pair_from_wave(gaussian_packet(build_grid(128, -6.0, 6.0),
                                          sigma=1.0, momentum=1.0))
    pair = replace(pair, plus=replace(pair.plus, lam=tiny),
                   minus=replace(pair.minus, lam=-tiny))
    with pytest.raises(NumericalError, match="non-finite"):
        step_coupled_pde(pair, spec, 1e-4, steps=5)


def test_active_backend_names_the_compiler_and_builds_nothing(polar_cache):
    name = kernels.active_backend()
    assert "polar: C" in name and "-ffp-contract=off" in name
    assert sysconfig.get_config_var("CC") in name
    assert not polar_cache.exists() and kernels._polar is None
