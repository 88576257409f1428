"""Counter-based RNG keying, the streams the samplers draw from it, the
sharded ensemble kernel and the compiled batched polar-pair RK4 kernel."""
import math
import os
import platform
import subprocess
import sysconfig
from dataclasses import replace

import numpy as np
import pytest

from stochaction import kernels
from stochaction.errors import ConfigurationError, NumericalError, ShapeError
from stochaction.evolution import gaussian_packet
from stochaction.hamiltonian import make_system
from stochaction.kernels import (_SHARD_MIN, DOMAIN_DEVIATION, DOMAIN_LAMBDA,
                                 DOMAIN_SOURCE, SRC_BINARY, SRC_SMEARED,
                                 SRC_SPHERE, counter_uniform, lambda_range,
                                 run_ensemble_window, run_madelung_window,
                                 sample_stats, uniform_range)
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
    with pytest.raises(ConfigurationError):
        counter_uniform(7, 2, 13, pids, -1)


def test_rng_keys_of_2_to_the_64_or_more_are_refused():
    # ctypes would pass 2^64 + 5 on as 5, without an error
    top = 1 << 64
    for seed, domain, step, slot in ((top, 2, 13, 0), (7, top, 13, 0),
                                     (7, 2, top, 0), (7, 2, 13, top),
                                     (top + 5, 2, 13, 0)):
        with pytest.raises(ConfigurationError, match="2\\^64"):
            counter_uniform(seed, domain, step, pids, slot)
    last = top - 1
    assert _same_bits(counter_uniform(last, last, last, pids, last),
                      _reference_uniform(last, last, last, pids, last))


def test_the_window_refuses_a_seed_or_step_outside_64_bits():
    # the keys of the last step, step0 + n_sub - 1, must fit too
    top, last = 1 << 64, (1 << 64) - 1
    state, tables, rest, kwargs = _ensemble_case(m=64)
    for bad in (dict(seed=top), dict(seed=-1), dict(step0=-1),
                dict(step0=top - N_SUB + 1)):
        out = [a.copy() for a in state]
        with pytest.raises(ConfigurationError):
            run_ensemble_window(*out, *tables, *rest, **{**kwargs, **bad})
        assert all(_same_bits(a, b) for a, b in zip(out, state))
    edge = {**kwargs, "seed": last, "step0": top - N_SUB}
    assert all(_same_bits(g, w) for g, w in zip(
        _window(state, tables, rest, edge),
        _window(state, tables, rest, edge, run=_reference_ensemble_window)))


def test_counter_uniform_reproduces_pinned_values():
    # the first draws of two streams, as the one-shot hash gave them
    assert [float(u).hex() for u in counter_uniform(0, 1, 0, [0, 1, 2], 0)] \
        == ["0x1.ba7cbf14f5658p-1", "0x1.be95a38db98aep-2",
            "0x1.9603c5f8a28dep-1"]
    assert [float(u).hex() for u in counter_uniform(7, 2, 13, [5, 70000], 1)] \
        == ["0x1.b1d410485a888p-1", "0x1.1b6c2b8401b23p-1"]


# The streams written out in one shot in numpy: every key hashed at once,
# over the whole array, with the splitmix64 finalizer and the key
# multipliers as literals.  These pin the compiled counter stream of
# _ensemble.c to the same bits.

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


def _reference_source(kind, u1, u2, mag0, jitter):
    """The signed scales of a lambda source of its uniforms: the sphere's
    hemisphere is the sign of z = 2 u1 - 1, the others' the side of one
    half, and the smeared magnitude is mag0 + jitter (2 u2 - 1)."""
    if kind == SRC_SPHERE:
        positive = 2.0 * u1 - 1.0 >= 0.0
    else:
        positive = u1 < 0.5
    mag = mag0 + jitter * (2.0 * u2 - 1.0) if kind == SRC_SMEARED else mag0
    return np.where(positive, mag, -mag)


def _reference_lambda(source, n, step, domain=DOMAIN_SOURCE):
    pids = np.arange(n, dtype=np.uint64)
    u1, u2 = (_reference_uniform(source.seed, domain, step, pids, slot)
              for slot in (0, 1))
    return _reference_source(source.kind_index, u1, u2, source.hbar,
                             source.width * math.sqrt(3.0))


def _reference_deviation(lam, n, seed, step):
    u = _reference_uniform(seed, DOMAIN_DEVIATION, step,
                           np.arange(n, dtype=np.uint64), 0)
    return np.sign(lam) * (-0.5 * np.abs(lam) * np.log1p(-u))


def _same_bits(a, b):
    # np.array_equal would take -0.0 for +0.0
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


SIZES = (1, 65535, 65536, 65537, 196625)
SOURCES = (LambdaSource("binary", 1.3, seed=9),
           LambdaSource("sphere", 0.7, seed=9),
           LambdaSource("smeared", 1.3, width=0.3, seed=9))


@pytest.mark.parametrize("size", SIZES)
def test_blocked_counter_uniform_equals_the_one_shot_hash_bitwise(size):
    # sizes about the 2^16-key blocks the numpy hash once ran in
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
    for size in (1, 196625):
        assert _same_bits(sample_lambda(source, size, step=4),
                              _reference_lambda(source, size, 4))


@pytest.mark.parametrize("kind", (SRC_BINARY, SRC_SPHERE, SRC_SMEARED))
def test_source_lambda_splits_the_uniforms_exactly_at_one_half(kind):
    # the range draw of sample_lambda hashes its own uniforms; slot keys
    # made with the inverse finalizer give pid 0 the uniforms u1 and u2
    eps = 2.0 ** -53
    draw = kernels._library("_ensemble.c").lambda_range
    for u1 in (0.0, 0.25, 0.5 - eps, 0.5, 0.5 + eps, 0.75, 1.0 - eps):
        u2 = 0.75 if u1 < 0.5 else 0.0
        key0, key1 = (_unmix(int(u * 2.0 ** 53) << 11) for u in (u1, u2))
        for mag0, jitter in ((1.3, 0.4), (0.0, 0.0)):
            out = np.empty(1)
            draw(kind, key0, key1, 0, 1, mag0, jitter, out.ctypes.data)
            assert _same_bits(out, _reference_source(
                kind, np.array([u1]), np.array([u2]), mag0, jitter))


RANGE_SIZES = (0, 1, 7, 8, 9, 65537, 196625)


@pytest.mark.parametrize("n", RANGE_SIZES)
def test_uniform_range_equals_counter_uniform_of_the_pid_range(n):
    for seed, domain, step, slot in ((7, 2, 13, 1), (0, DOMAIN_DEVIATION, 0, 0),
                                     ((1 << 64) - 1, 3, (1 << 64) - 1, 0)):
        got = uniform_range(seed, domain, step, n, slot)
        assert got.shape == (n,) and got.dtype == np.float64
        assert _same_bits(got, counter_uniform(seed, domain, step,
                                               np.arange(n), slot))
        assert _same_bits(got, _reference_uniform(seed, domain, step,
                                                  np.arange(n), slot))


@pytest.mark.parametrize("n", RANGE_SIZES)
@pytest.mark.parametrize("source", SOURCES, ids=lambda s: s.kind)
def test_lambda_range_equals_the_sources_of_the_pid_range(source, n):
    jitter = source.width * math.sqrt(3.0)
    for domain in (DOMAIN_SOURCE, DOMAIN_LAMBDA):
        got = lambda_range(source.seed, domain, 4, n, source.kind_index,
                           source.hbar, jitter)
        assert got.shape == (n,) and got.dtype == np.float64
        assert _same_bits(got, _reference_lambda(source, n, 4, domain))
        # the uniforms of counter_uniform, signed by the written-out source
        u1, u2 = (counter_uniform(source.seed, domain, 4, np.arange(n), slot)
                  for slot in (0, 1))
        assert _same_bits(got, _reference_source(
            source.kind_index, u1, u2, source.hbar, jitter))


def test_range_draws_refuse_a_negative_count_or_key():
    for draw in (lambda n, s: uniform_range(s, 2, 3, n, 0),
                 lambda n, s: lambda_range(s, 2, 3, n, SRC_SMEARED, 1.3, 0.4)):
        with pytest.raises(ConfigurationError, match="n >= 0"):
            draw(-1, 7)
        with pytest.raises(ConfigurationError, match="RNG keys"):
            draw(5, -7)
        with pytest.raises(ConfigurationError, match="RNG keys"):
            draw(5, 1 << 64)


def test_sample_action_deviation_equals_the_written_out_law_bitwise():
    for size in (1, 196625):
        for lam in (0.7, -2.0):
            assert _same_bits(
                sample_action_deviation(lam, size, seed=5, step=2),
                _reference_deviation(lam, size, 5, 2))


@pytest.mark.parametrize("source", SOURCES, ids=lambda s: s.kind)
def test_ensemble_draws_the_written_out_sources_bitwise(source):
    # one micro step with zero fields: every particle stays put and takes
    # the scale drawn for it from the ensemble's own stream
    m, n = 65539, 16
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
# the sample reducer: every statistic bitwise the numpy expression it
# replaces


def _numpy_stats(x, magnitudes, edges, thresholds, sign, center):
    y = np.abs(x) if magnitudes else x
    return {"total": np.add.reduce(y), "mean": np.mean(y), "std": np.std(y),
            "peak": np.max(np.abs(np.abs(x) - center)),
            "counts": np.histogram(y, bins=edges)[0],
            "above": tuple(int(np.count_nonzero(np.abs(x) > t))
                           for t in thresholds),
            "violations": int(np.count_nonzero(sign * x < 0))}


def _assert_numpy_stats(x, magnitudes, edges, thresholds=(0.5, 1.0),
                        sign=-1.0, center=1.3):
    with np.errstate(invalid="ignore"):
        want = _numpy_stats(x, magnitudes, edges, thresholds, sign, center)
    got = sample_stats(x, magnitudes, edges, thresholds, sign, center,
                       std=True)
    for name in ("total", "mean", "std", "peak"):
        assert _same_bits(np.float64(getattr(got, name)), want[name]), name
    assert got.counts.dtype == want["counts"].dtype
    assert np.array_equal(got.counts, want["counts"])
    assert got.above == want["above"]
    assert got.violations == want["violations"]


def _wide_sample(n, rng):
    """Signed values over 24 decades, whose sum shows any change of the
    order of addition."""
    return rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, n)


REDUCE_SIZES = (1, 7, 8, 9, 127, 128, 129, 8191, 8193, 100_003, 10_000_000)


@pytest.mark.parametrize("n", REDUCE_SIZES)
def test_sample_stats_equal_numpy_bitwise_on_the_scenarios_draws(n):
    # the magnitudes of action deviations and signed smeared scales, as
    # exponential_law and smeared_source reduce them, and wide values
    devs = sample_action_deviation(-0.7, n, seed=5, step=2)
    _assert_numpy_stats(devs, True, np.linspace(0.0, 1.4, 61),
                        thresholds=(0.35, 0.7), sign=-1.0, center=0.0)
    lams = sample_lambda(SOURCES[2], n)
    _assert_numpy_stats(lams, False, np.linspace(-1.9, 1.9, 61),
                        thresholds=(), sign=1.0, center=1.3)
    if n <= 100_003:
        wide = _wide_sample(n, np.random.default_rng(n))
        for magnitudes in (False, True):
            _assert_numpy_stats(wide, magnitudes,
                                np.linspace(-1e-3, 2.0, 61))


def test_sample_stats_count_values_on_edges_as_np_histogram():
    edges = np.linspace(-1.3, 1.3, 61)
    on = np.concatenate([edges, edges[::-1], np.repeat(edges[[0, -1]], 9)])
    _assert_numpy_stats(on, False, edges)
    _assert_numpy_stats(on, True, edges)
    # zero-width bins, and bins whose offsets guess the wrong bin
    for uneven in (np.array([0.0, 1.0, 1.0, 1.0, 2.0, 2.0]),
                   np.geomspace(1e-3, 2.0, 25)):
        values = np.concatenate([uneven, np.linspace(-0.5, 2.5, 3001)])
        _assert_numpy_stats(values, False, uneven)
    for equal in (np.array([2.0, 2.0]), np.array([2.0, 2.0, 2.0])):
        _assert_numpy_stats(np.array([1.0, 2.0, 2.0, 3.0]), False, equal)


@pytest.mark.parametrize("n", (1, 9, 200))
def test_sample_stats_of_minus_zeros_and_values_off_the_edges(n):
    edges = np.array([-1.0, 0.0, 1.0])
    _assert_numpy_stats(np.full(n, -0.0), False, edges)
    _assert_numpy_stats(np.full(n, -0.0), True, edges)
    off = np.resize([-5.0, -1.0 - 2.0 ** -52, 1.0 + 2.0 ** -52, 7.0, -0.0,
                     0.25], n)
    _assert_numpy_stats(off, False, edges)


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
@pytest.mark.parametrize("n", (1, 9, 129, 8193))
def test_sample_stats_of_a_sample_with_nan_or_infinities(bad, n):
    # NaN and +-inf fall in no bin; np.max propagates a NaN
    x = _wide_sample(n, np.random.default_rng(n))
    x[n // 2] = bad
    for magnitudes in (False, True):
        _assert_numpy_stats(x, magnitudes, np.linspace(-2.0, 2.0, 61))
    x[-1] = -bad
    _assert_numpy_stats(x, False, np.linspace(-2.0, 2.0, 61))


def test_sample_stats_leave_out_what_is_not_asked_for():
    x = sample_lambda(SOURCES[0], 1000)
    got = sample_stats(x)
    assert got.counts.shape == (0,) and got.above == ()
    assert got.violations is None and got.peak is None and got.std is None
    assert _same_bits(np.float64(got.mean), np.mean(x))
    assert _same_bits(np.float64(sample_stats(x, std=True).std), np.std(x))


def _bad_samples():
    x = np.linspace(-1.0, 1.0, 16)
    return {
        "float32": (x.astype(np.float32), None),
        "strided": (np.repeat(x, 2)[::2], None),
        "2-D": (x.reshape(4, 4), None),
        "empty": (np.zeros(0), None),
        "list": (list(x), None),
        "one edge": (x, [0.0]),
        "falling edges": (x, [1.0, 0.0, 2.0]),
        "NaN edge": (x, [0.0, np.nan, 2.0]),
        "infinite edge": (x, [0.0, 1.0, np.inf]),
        "2-D edges": (x, np.zeros((2, 2))),
    }


@pytest.mark.parametrize("case", _bad_samples())
def test_sample_stats_refuse_what_the_reducer_cannot_take(case):
    x, edges = _bad_samples()[case]
    with pytest.raises(ShapeError):
        sample_stats(x, edges=edges)


# ---------------------------------------------------------------------------
# sharded sample draws, inverse CDF and reducer: bitwise the one-shot
# numpy references at any worker count

# the shard gate of these tests, in values: 2 * SAMPLE_GATE values are
# two shards, 4 * SAMPLE_GATE four
SAMPLE_GATE = 4096
# the sizes about the gates of two, three and four shards, and about the
# split point 10 240 (half of 5 * SAMPLE_GATE, a multiple of 8) of the
# pairwise tree, where n - 8 moves the split down by 8 and n + 8 does not
SAMPLE_SIZES = (2 * SAMPLE_GATE - 1, 2 * SAMPLE_GATE, 2 * SAMPLE_GATE + 1,
                3 * SAMPLE_GATE, 4 * SAMPLE_GATE - 1, 4 * SAMPLE_GATE + 1,
                5 * SAMPLE_GATE - 8, 5 * SAMPLE_GATE, 5 * SAMPLE_GATE + 8)


@pytest.fixture(params=(1, 2, 3, 4), ids=lambda w: f"workers{w}")
def sample_workers(request, monkeypatch):
    """The sample path run as if the process could use 1 to 4 CPUs, with a
    fresh pool and a shard gate of SAMPLE_GATE values; 3 shards take the
    4 subtrees two levels down, and 4 on a 2-CPU machine interleave."""
    monkeypatch.setattr(kernels, "_WORKERS", request.param)
    monkeypatch.setattr(kernels, "_pool", None)
    monkeypatch.setattr(kernels, "_SAMPLE_SHARD_MIN", SAMPLE_GATE)
    yield request.param
    if kernels._pool is not None:
        kernels._pool.shutdown()


def _pool_matches_shards(workers, n):
    # a pool is made exactly when the sample runs as two or more shards
    return (kernels._pool is not None) == (workers > 1
                                           and n >= 2 * SAMPLE_GATE)


@pytest.mark.parametrize("n", SAMPLE_SIZES)
def test_sharded_range_draws_equal_the_one_shot_hash_bitwise(sample_workers,
                                                             n):
    assert _same_bits(uniform_range(7, 2, 13, n, 1),
                      _reference_uniform(7, 2, 13, np.arange(n), 1))
    for source in SOURCES:
        got = lambda_range(source.seed, DOMAIN_SOURCE, 4, n,
                           source.kind_index, source.hbar,
                           source.width * math.sqrt(3.0))
        assert _same_bits(got, _reference_lambda(source, n, 4))
    assert _pool_matches_shards(sample_workers, n)


@pytest.mark.parametrize("n", SAMPLE_SIZES)
def test_sharded_deviation_equals_the_written_out_law_bitwise(sample_workers,
                                                              n):
    for scalar in (0.7, -2.0):
        assert _same_bits(sample_action_deviation(scalar, n, seed=5, step=2),
                          _reference_deviation(scalar, n, 5, 2))
    assert _pool_matches_shards(sample_workers, n)


@pytest.mark.parametrize("n", SAMPLE_SIZES)
def test_sharded_sample_stats_equal_numpy_bitwise(sample_workers, n):
    devs = sample_action_deviation(-0.7, n, seed=5, step=2)
    _assert_numpy_stats(devs, True, np.linspace(0.0, 1.4, 61),
                        thresholds=(0.35, 0.7), sign=-1.0, center=0.0)
    wide = _wide_sample(n, np.random.default_rng(n))
    for magnitudes in (False, True):
        _assert_numpy_stats(wide, magnitudes, np.linspace(-1e-3, 2.0, 61))
    assert _pool_matches_shards(sample_workers, n)


@pytest.mark.parametrize("bad", ("nan", "inner edge", "off the edges"))
def test_a_value_in_the_last_shard_only_counts_as_numpy_counts_it(
        sample_workers, bad):
    # the last shard holds the last values at any worker count; its NaN
    # must win the peak, and its count must reach the totals
    n = 5 * SAMPLE_GATE
    edges = np.linspace(-2.0, 2.0, 61)
    x = np.random.default_rng(3).uniform(-1.0, 1.0, n)
    x[n - 3] = {"nan": np.nan, "inner edge": edges[17],
                "off the edges": 7.5}[bad]
    for magnitudes in (False, True):
        _assert_numpy_stats(x, magnitudes, edges)
    assert _pool_matches_shards(sample_workers, n)


@pytest.mark.parametrize("n", (2 * kernels._SAMPLE_SHARD_MIN - 1,
                               2 * kernels._SAMPLE_SHARD_MIN + 1))
def test_the_sample_gate_splits_a_sample_with_the_same_bits(monkeypatch, n):
    # at the gate itself the two-shard draws and reducer give the bits of
    # one shard; the one-shard path is the one the tests above pin to numpy
    edges = np.linspace(0.0, 1.4, 61)

    def run():
        devs = sample_action_deviation(-0.7, n, seed=5, step=2)
        return devs, sample_stats(devs, True, edges, (0.35, 0.7), -1.0, 0.0,
                                  std=True)

    monkeypatch.setattr(kernels, "_pool", None)
    monkeypatch.setattr(kernels, "_WORKERS", 1)
    one = run()
    monkeypatch.setattr(kernels, "_WORKERS", 2)
    try:
        two = run()
        assert (kernels._pool is not None) == (n > 2 * kernels._SAMPLE_SHARD_MIN)
    finally:
        if kernels._pool is not None:
            kernels._pool.shutdown()
    assert _same_bits(one[0], two[0])
    for name in ("total", "mean", "std", "peak", "above", "violations"):
        assert _same_bits(getattr(one[1], name), getattr(two[1], name)), name
    assert _same_bits(one[1].counts, two[1].counts)


# ---------------------------------------------------------------------------
# sharded ensemble window


def _reference_ensemble_window(qs, lams, logws, frozen, vb, osm, th, q_min,
                               dq, dt, n_sub, step0, seed, src_kind, mag0,
                               jitter, freeze_lo, freeze_hi):
    """The numpy window that _ensemble.c transcribes, in one thread, all
    particles in one set of arrays."""
    n = vb.shape[0]
    m = qs.shape[0]
    pids = np.arange(m, dtype=np.uint64)
    cell, w, a, b, c = (np.empty(m) for _ in range(5))
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
            u1, u2 = (_reference_uniform(seed, DOMAIN_LAMBDA, gstep, pids, slot)
                      for slot in (0, 1))
            np.copyto(lams, _reference_source(src_kind, u1, u2, mag0, jitter),
                      where=active)

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


# the steps of a test window, and the fewest particles whose window of
# N_SUB steps runs as two shards
N_SUB = 12
SPLIT = -(-2 * _SHARD_MIN // N_SUB)
ENSEMBLE_SIZES = (1, SPLIT - 1, SPLIT, SPLIT + 1, 100_003)
# (src_kind, mag0, jitter); the last is the lambda-disabled (Bohmian) path,
# whose scales are signed zeros
ENSEMBLE_SOURCES = {"binary": (SRC_BINARY, 1.3, 0.0),
                    "sphere": (SRC_SPHERE, 0.7, 0.0),
                    "smeared": (SRC_SMEARED, 1.3, 0.5),
                    "disabled": (SRC_BINARY, 0.0, 0.0)}


def _rough_window(m, source):
    """A window of m particles with rough fields that push them across the
    freeze bounds within it, a tenth of them frozen on entry: the particle
    arrays, the field tables, the other arguments and the keywords."""
    rng = np.random.default_rng(m)
    n = 48
    tables = (3.0 * rng.normal(size=n), 20.0 * rng.normal(size=n),
              rng.normal(size=n))
    state = (rng.uniform(-0.95, 0.95, m), rng.normal(size=m),
             rng.normal(size=m), (rng.uniform(size=m) < 0.1).astype(np.uint8))
    rest = (-1.0, 2.0 / (n - 1), 1e-2, N_SUB)
    kwargs = dict(step0=30, seed=5, src_kind=ENSEMBLE_SOURCES[source][0],
                  mag0=ENSEMBLE_SOURCES[source][1],
                  jitter=ENSEMBLE_SOURCES[source][2],
                  freeze_lo=-0.9, freeze_hi=0.9)
    return state, tables, rest, kwargs


@pytest.mark.parametrize("m", ENSEMBLE_SIZES)
@pytest.mark.parametrize("source", ENSEMBLE_SOURCES)
def test_sharded_window_equals_the_single_threaded_window_bitwise(workers, m,
                                                                 source):
    case = _rough_window(m, source)
    got = _window(*case)
    want = _window(*case, run=_reference_ensemble_window)
    for g, w in zip(got, want):
        assert _same_bits(g, w)
    # a pool is made exactly when the window runs as two or more shards
    assert (kernels._pool is not None) == (workers > 1
                                           and m * N_SUB >= 2 * _SHARD_MIN)
    if m == 1:
        return
    entered, left = np.count_nonzero(case[0][3]), np.count_nonzero(got[3])
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
def kernel_cache(tmp_path, monkeypatch):
    """An empty build cache and no kernel loaded: the next call of either
    kernel builds it."""
    cache = tmp_path / "cache"
    monkeypatch.setattr(kernels, "_CACHE", str(cache))
    monkeypatch.setattr(kernels, "_libraries", {})
    return cache


def test_a_cold_build_loads_and_equals_the_reference_bitwise(kernel_cache):
    grid, y, tables = _branch_batch()
    out = _run(y, grid, tables, n_steps=10)
    built = os.listdir(kernel_cache)
    # one library, named by the hash, and no temporary file left behind
    assert len(built) == 1 and built[0].startswith("_polar-")
    assert built[0].endswith(".so")
    _assert_matches_reference(y, out, tables, grid.dq, 5e-4, 10, 1.0)
    # a fresh process finds the build in the cache and compiles nothing
    stamp = os.stat(kernel_cache / built[0]).st_mtime_ns
    kernels._libraries.clear()
    assert _same_bits(_run(y, grid, tables, n_steps=10), out)
    assert os.listdir(kernel_cache) == built
    assert os.stat(kernel_cache / built[0]).st_mtime_ns == stamp


def test_a_new_build_deletes_the_older_builds_of_its_source(tmp_path,
                                                          monkeypatch):
    with open(os.path.join(kernels._SOURCE_DIR, "_polar.c")) as fh:
        text = fh.read()
    src, cache = tmp_path / "src", tmp_path / "cache"
    src.mkdir()
    monkeypatch.setattr(kernels, "_SOURCE_DIR", str(src))
    (src / "_polar.c").write_text(text)
    first = kernels._build("_polar.c", str(cache))
    # another source's build and a build in progress are left alone
    others = {"_ensemble-0123456789abcdef.so", "tmp1a2b3c.so",
              "_polar-notahash.so"}
    for name in others:
        (cache / name).write_bytes(b"")
    (src / "_polar.c").write_text(text + "/* an edit */\n")
    second = kernels._build("_polar.c", str(cache))
    assert second != first and os.path.exists(second)
    assert set(os.listdir(cache)) == others | {os.path.basename(second)}
    # a build in place is loaded, not rebuilt, and deletes nothing
    assert kernels._build("_polar.c", str(cache)) == second
    assert set(os.listdir(cache)) == others | {os.path.basename(second)}


@pytest.mark.parametrize("cc", ("no-such-c-compiler", "", None))
def test_a_missing_compiler_raises_and_leaves_no_numpy_path(kernel_cache,
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
    # a counter draw has no numpy path either
    for draw in (lambda: counter_uniform(7, 2, 13, pids, 0),
                 lambda: sample_lambda(SOURCES[2], 10)):
        with pytest.raises(ConfigurationError,
                           match=cc or "names no C compiler"):
            draw()
    assert not kernel_cache.exists() or os.listdir(kernel_cache) == []
    assert kernels._libraries == {}


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
    def unreachable(source):
        raise AssertionError("the compiled kernel was reached")
    monkeypatch.setattr(kernels, "_library", unreachable)
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

    # through the stepper, at 1e-311: the wall phase step overflows
    # there too (S_1 - S_0 is about 0.09), while the default step, about
    # 9e307, is still finite, so the dt gate admits the run; at 5e-324 the
    # gate refuses it (tests/test_madelung.py)
    spec = make_system("free")
    pair = pair_from_wave(gaussian_packet(build_grid(128, -6.0, 6.0),
                                          sigma=1.0, momentum=1.0))
    small = 1e-311
    pair = replace(pair, plus=replace(pair.plus, lam=small),
                   minus=replace(pair.minus, lam=-small))
    with pytest.raises(NumericalError, match="non-finite"):
        step_coupled_pde(pair, spec, 1e-4, steps=5)


def test_active_backend_names_the_compiler_and_builds_nothing(kernel_cache):
    name = kernels.active_backend()
    assert name.startswith("polar and ensemble: C, ")
    assert name.endswith(f"; ensemble clone: {kernels._ensemble_clone()}; "
                         "rng: C")
    cc = sysconfig.get_config_var("CC")
    assert f"{cc} {' '.join(kernels._CFLAGS)};" in name
    assert not kernel_cache.exists()
    assert kernels._libraries == {}


# ---------------------------------------------------------------------------
# compiled ensemble kernel: build, inputs, and positions it cannot place


def _ensemble_case(m=SPLIT + 5, n=48):
    """A window's particle arrays, field tables and other arguments: rough
    fields over n points and m particles inside the freeze bounds."""
    rng = np.random.default_rng(3)
    state = [rng.uniform(-0.8, 0.8, m), rng.normal(size=m),
             rng.normal(size=m), np.zeros(m, np.uint8)]
    tables = [3.0 * rng.normal(size=n), 20.0 * rng.normal(size=n),
              rng.normal(size=n)]
    rest = (-1.0, 2.0 / (n - 1), 1e-2, N_SUB)
    kwargs = dict(step0=30, seed=5, src_kind=SRC_SMEARED, mag0=1.3,
                  jitter=0.5, freeze_lo=-0.9, freeze_hi=0.9)
    return state, tables, rest, kwargs


def _window(state, tables, rest, kwargs, run=run_ensemble_window):
    """The state after one window of run, on copies."""
    out = [a.copy() for a in state]
    run(*out, *tables, *rest, **kwargs)
    return out


def _unmix(y):
    """The 64-bit key whose splitmix64 finalizer is y."""
    M = 1 << 64
    y ^= (y >> 31) ^ (y >> 62)
    y = y * pow(0x94D049BB133111EB, -1, M) % M
    y ^= (y >> 27) ^ (y >> 54)
    y = y * pow(0xBF58476D1CE4E5B9, -1, M) % M
    return y ^ (y >> 30) ^ (y >> 60)


@pytest.mark.parametrize("kind", (SRC_BINARY, SRC_SPHERE, SRC_SMEARED))
def test_the_compiled_source_splits_the_uniforms_exactly_at_one_half(kind):
    # the compiled window hashes its own uniforms, and a hashed one lands
    # on one half once in 2^53 draws; step keys made with the inverse
    # finalizer give particle 0 the uniforms u1 (slot 0) and u2 (slot 1)
    eps = 2.0 ** -53
    kernel = kernels._library("_ensemble.c").ensemble_window
    zero = np.zeros(4)
    for u1 in (0.0, 0.25, 0.5 - eps, 0.5, 0.5 + eps, 1.0 - eps):
        u2 = 0.75
        keys = np.array([[_unmix(int(u * 2.0 ** 53) << 11) for u in (u1, u2)]],
                        np.uint64)
        drawn = (_splitmix(keys[0]) >> np.uint64(11)).astype(float) * eps
        assert _same_bits(drawn, np.array([u1, u2]))
        state = np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1, np.uint8)
        kernel(*(a.ctypes.data for a in state), 1, 0,
               *(zero.ctypes.data for _ in range(3)), 4, -1.0, 2.0 / 3.0,
               1e-3, keys.ctypes.data, 1, kind, 1.3, 0.4, -0.9, 0.9)
        assert _same_bits(state[1], _reference_source(
            kind, np.array([u1]), np.array([u2]), 1.3, 0.4))


def test_a_cold_build_of_the_ensemble_kernel_sits_beside_the_polar_one(
        kernel_cache):
    grid, y, tables = _branch_batch()
    _run(y, grid, tables, n_steps=1)
    case = _ensemble_case()
    want = _window(*case, run=_reference_ensemble_window)
    got = _window(*case)
    built = sorted(os.listdir(kernel_cache))
    # one library per kernel, named by its hash, and no temporary file
    assert len(built) == 2 and all(b.endswith(".so") for b in built)
    assert built[0].startswith("_ensemble-") and built[1].startswith("_polar-")
    assert all(_same_bits(g, w) for g, w in zip(got, want))
    # a fresh process loads the build in the cache and compiles nothing
    stamp = os.stat(kernel_cache / built[0]).st_mtime_ns
    del kernels._libraries["_ensemble.c"]
    assert all(_same_bits(g, w) for g, w in zip(_window(*case), want))
    assert sorted(os.listdir(kernel_cache)) == built
    assert os.stat(kernel_cache / built[0]).st_mtime_ns == stamp


@pytest.mark.parametrize("cc", ("no-such-c-compiler", "", None))
def test_a_missing_compiler_leaves_the_ensemble_untouched(kernel_cache,
                                                          monkeypatch, cc):
    real = sysconfig.get_config_var
    monkeypatch.setattr(sysconfig, "get_config_var",
                        lambda name: cc if name == "CC" else real(name))
    state, tables, rest, kwargs = _ensemble_case()
    before = [a.copy() for a in state]
    with pytest.raises(ConfigurationError,
                       match=cc or "names no C compiler"):
        run_ensemble_window(*state, *tables, *rest, **kwargs)
    assert all(_same_bits(a, b) for a, b in zip(state, before))
    assert not kernel_cache.exists() or os.listdir(kernel_cache) == []
    assert kernels._libraries == {}


def _bad_ensemble_inputs():
    state, tables, _, _ = _ensemble_case(m=64)
    qs, lams, logws, frozen = state
    read_only = logws.copy()
    read_only.flags.writeable = False

    def particles(i, bad):
        return [bad if k == i else a for k, a in enumerate(state)], tables

    return {
        "non-contiguous qs": particles(0, np.repeat(qs, 2)[::2]),
        "qs as a list": particles(0, list(qs)),
        "2-D qs": particles(0, qs.reshape(8, 8)),
        "float32 lams": particles(1, lams.astype(np.float32)),
        "short lams": particles(1, lams[:-1].copy()),
        "read-only logws": particles(2, read_only),
        "logws that is lams": particles(2, lams),
        "bool frozen": particles(3, frozen.astype(bool)),
        "int64 frozen": particles(3, frozen.astype(np.int64)),
        "tables of length 1": (state, [t[:1] for t in tables]),
        "tables of two lengths": (state, [tables[0], tables[1][:-1],
                                          tables[2]]),
        "2-D table": (state, [np.stack([tables[0]] * 2), *tables[1:]]),
    }


@pytest.mark.parametrize("case", _bad_ensemble_inputs())
def test_bad_ensemble_inputs_raise_before_the_kernel_is_reached(monkeypatch,
                                                                case):
    def unreachable(source):
        raise AssertionError("the compiled kernel was reached")
    monkeypatch.setattr(kernels, "_library", unreachable)
    state, tables = _bad_ensemble_inputs()[case]
    before = [np.array(a) for a in state]
    _, _, rest, kwargs = _ensemble_case(m=64)
    with pytest.raises(ShapeError):
        run_ensemble_window(*state, *tables, *rest, **kwargs)
    assert all(_same_bits(np.array(a), b) for a, b in zip(state, before))


def _nan_position_fails():
    """The numpy window indexes its tables at -2**63 for a NaN position
    and raises IndexError; the compiled one must not read there.  A NaN
    in the last particle's entry fails the window's first step; a NaN
    field value makes the particles of its two cells NaN in that step
    and fails the next, in whichever shard they are."""
    state, tables, rest, kwargs = _ensemble_case()
    bad = [a.copy() for a in state]
    bad[0][-1] = np.nan
    with pytest.raises(IndexError), np.errstate(invalid="ignore"):
        _window(bad, tables, rest, kwargs, run=_reference_ensemble_window)
    with pytest.raises(NumericalError, match="micro step 30 "):
        _window(bad, tables, rest, kwargs)
    nan_field = [tables[0].copy(), *tables[1:]]
    nan_field[0][20] = np.nan
    with pytest.raises(NumericalError, match="micro step 31 "):
        _window(state, nan_field, rest, kwargs)


def test_a_nan_position_is_a_numerical_error_naming_its_step(workers):
    _nan_position_fails()


def _infinite_position_fails():
    """An infinite position's cell is infinite, and the kernel takes no
    non-finite cell."""
    state, tables, rest, kwargs = _ensemble_case()
    for q in (np.inf, -np.inf):
        bad = [a.copy() for a in state]
        bad[0][SPLIT // 2 + 7] = q
        with pytest.raises(NumericalError, match="micro step 30 "):
            _window(bad, tables, rest, kwargs)


def test_an_infinite_position_is_a_numerical_error(workers):
    _infinite_position_fails()


def _frozen_particle_is_discarded():
    """A frozen particle is computed and its result discarded, so a NaN
    one is neither an error nor a change: the window equals the reference
    with that particle frozen at a finite position."""
    state, tables, rest, kwargs = _ensemble_case()
    state[3][::5] = 1
    want = _window(state, tables, rest, kwargs, run=_reference_ensemble_window)
    state[0][::5] = np.nan
    got = _window(state, tables, rest, kwargs)
    assert np.isnan(got[0][::5]).all()
    got[0][::5] = want[0][::5]
    assert all(_same_bits(g, w) for g, w in zip(got, want))


def test_a_frozen_particle_is_never_read(workers):
    _frozen_particle_is_discarded()


def _minus_zero_cell_floors_to_minus_zero():
    """At q = -0.0 on a grid from q_min = 0.0 the cell is -0.0, which
    np.floor keeps, so the weight cell - floor(cell) is +0.0.  A floor of
    +0.0 would give the weight -0.0, and with -0.0 at the tables' first
    point the first particle's log-weight would leave the window +0.0."""
    n = 8
    tables = [np.array([-0.0] + [1.0] * (n - 1)) for _ in range(3)]
    state = [np.array([-0.0, 0.0, -0.0]), np.zeros(3), np.full(3, -0.0),
             np.zeros(3, np.uint8)]
    rest = (0.0, 1.0, 1e-3, 1)
    kwargs = dict(step0=0, seed=1, src_kind=SRC_BINARY, mag0=1.0, jitter=0.0,
                  freeze_lo=-1.0, freeze_hi=1.0)
    want = _window(state, tables, rest, kwargs, run=_reference_ensemble_window)
    got = _window(state, tables, rest, kwargs)
    assert all(_same_bits(g, w) for g, w in zip(got, want))
    assert np.signbit(got[2]).all()


def test_a_minus_zero_cell_floors_to_minus_zero_as_np_floor_does():
    _minus_zero_cell_floors_to_minus_zero()


# ---------------------------------------------------------------------------
# the baseline clone of the ensemble kernel, which this CPU may not pick


@pytest.fixture(scope="module")
def baseline_library(tmp_path_factory):
    """The ensemble library built from a copy of _ensemble.c without its
    target_clones line: the body the loader picks on an x86-64 CPU without
    x86-64-v4, and the one body elsewhere."""
    src = tmp_path_factory.mktemp("baseline")
    with open(os.path.join(kernels._SOURCE_DIR, "_ensemble.c")) as fh:
        lines = fh.readlines()
    kept = [line for line in lines if "target_clones" not in line]
    assert len(kept) == len(lines) - 1
    (src / "_ensemble.c").write_text("".join(kept))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_SOURCE_DIR", str(src))
        mp.setattr(kernels, "_CACHE", str(src / "cache"))
        mp.setattr(kernels, "_libraries", {})
        return kernels._library("_ensemble.c")


@pytest.fixture
def baseline(baseline_library, monkeypatch):
    """run_ensemble_window runs the baseline clone."""
    monkeypatch.setitem(kernels._libraries, "_ensemble.c", baseline_library)


@pytest.mark.parametrize("source", ENSEMBLE_SOURCES)
def test_the_baseline_clone_equals_the_reference_bitwise(baseline, source):
    case = _rough_window(SPLIT + 5, source)
    got = _window(*case)
    want = _window(*case, run=_reference_ensemble_window)
    assert all(_same_bits(g, w) for g, w in zip(got, want))
    assert 0 < np.count_nonzero(case[0][3]) < np.count_nonzero(got[3])


@pytest.mark.parametrize("source", SOURCES, ids=lambda s: s.kind)
def test_the_baseline_clone_draws_as_the_reference(baseline, source):
    n = 65537
    pids = np.arange(n, dtype=np.uint64)
    assert _same_bits(uniform_range(7, 2, 13, n, 1),
                      _reference_uniform(7, 2, 13, pids, 1))
    assert _same_bits(counter_uniform(7, 2, 13, pids + 3, 1),
                      _reference_uniform(7, 2, 13, pids + 3, 1))
    assert _same_bits(sample_lambda(source, n, step=4),
                      _reference_lambda(source, n, 4))


@pytest.mark.parametrize("check", (_nan_position_fails,
                                   _infinite_position_fails,
                                   _frozen_particle_is_discarded,
                                   _minus_zero_cell_floors_to_minus_zero),
                         ids=lambda f: f.__name__.strip("_"))
def test_the_baseline_clone_fails_and_discards_as_the_reference(baseline,
                                                                check):
    check()


# ---------------------------------------------------------------------------
# the C sources


@pytest.mark.parametrize("source", ("_polar.c", "_ensemble.c"))
def test_the_kernel_sources_compile_without_a_warning(source):
    proc = subprocess.run(
        [*kernels._compiler(), "-Wall", "-Wextra", "-Werror", "-fsyntax-only",
         os.path.join(kernels._SOURCE_DIR, source)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_the_ensemble_clone_is_read_from_the_cpu_features(tmp_path,
                                                         monkeypatch):
    cpuinfo = tmp_path / "cpuinfo"
    monkeypatch.setattr(kernels, "_CPUINFO", str(cpuinfo))
    monkeypatch.setattr(platform, "machine", lambda: "x86_64")
    v4 = "fpu sse2 avx2 fma avx512f avx512dq avx512cd avx512bw avx512vl"
    for flags, clone in ((v4, "x86-64-v4"),
                         (v4.replace(" avx512vl", ""), "default")):
        cpuinfo.write_text("".join(f"processor\t: {i}\nflags\t\t: {flags}\n\n"
                                   for i in range(2)))
        assert kernels._ensemble_clone() == clone
    cpuinfo.unlink()
    assert kernels._ensemble_clone() == "unknown"
    monkeypatch.setattr(platform, "machine", lambda: "aarch64")
    assert kernels._ensemble_clone() == "none"
