"""Compiled kernels: the counter stream, the reducer of the sample
scenarios, the ensemble micro-step window and the polar-pair RK4 window;
and the wave layer's three LAPACK routines, bound with ctypes in the
library that scipy ships (see the LAPACK section).

Randomness is counter-based: every variate is a pure function of (seed,
domain, step, particle, slot) through a splitmix64 finalizer, so results
do not depend on scheduling, block size or worker count.  The hash, the
folding of the keys and the lambda sources are written once, in
``_ensemble.c``.  counter_uniform draws the uniforms of an array of pids;
uniform_range and lambda_range draw those of pids 0 .. n - 1, which is
what the samplers take, with no pid array, lambda_range signing its scales
in the same C loop; and the ensemble window hashes its lambda draws with
the same code.

sample_stats reduces a sample to every statistic the sample scenarios
check in C, reading the sample once, or twice for the std, with no
temporary, where numpy made some ten passes: the sum and the sum of
squared deviations in numpy's pairwise order, which gives np.mean's and
np.std's bits, and the histogram, threshold, sign and maximum tallies,
which are exact.  The inverse CDF of the action deviation stays numpy's
np.log1p: numpy's SIMD log1p and glibc's log1p differ by one unit in the
last place on some inputs (on 14 625 of the first 200 000 deviation
uniforms of seed 0, with numpy 2.4.6 on an AVX-512 CPU), so a C log1p
would change the deviations.

A sample of at least 2 * _SAMPLE_SHARD_MIN values is drawn, inverted and
reduced in contiguous shards, at most one per usable CPU, each on its own
thread.  A draw is keyed by its pid, and the inverse CDF is elementwise,
so a shard gives the bits of the whole on its slice.  A sum is not
elementwise, but numpy's pairwise summation is a fixed binary tree over
contiguous ranges: the reducer's shards are whole subtrees of that tree,
found by splitting as numpy splits, and their sums are added in the
tree's own order, which keeps np.add.reduce's bits.  Counts are added as
integers, and maxima are combined with the reducer's own NaN-sticky
maximum, so every statistic is the same for any shard count.

The ensemble micro-step window and the polar-pair RK4 window are C
(``_ensemble.c``, ``_polar.c``), compiled on first use.  Numpy versions
of both spent most of their time in numpy calls: a polar step of 2 x 768
cells is too little arithmetic for some 100 calls per step, and an
ensemble step made some 40 passes over arrays of every particle where
the C kernel makes one pass over a block that stays in cache.  Each C
kernel gives the same bits as its numpy version, which the tests keep as
the reference.  Each value is formed by the same IEEE operations, in the
same order: +, -, *, / and sqrt are correctly rounded in both, so equal
operands give equal results.  This holds because the build forbids what
would change a rounding: no contraction of a multiply and an add into a
fused multiply-add (-ffp-contract=off), and no fast-math reassociation or
reciprocals.  The polar density floor keeps a NaN density NaN, as
np.maximum does, where C's fmax would not.  The polar wall rows take the
sin and cos of libm, as Python's math module does (gcc fuses the pair
into glibc's sincos, which gives the same bits).

The polar window folds each rate of an RK4 stage into the step's sums as
the stage's interior loop or wall rows make it, with the operations of a
plain RK4's four combination passes: there is no array of rates and no
combination pass, and the fourth stage writes y itself.  The window
divides dg by 2 dq once, into a table, and its one interior loop
multiplies that table by R[i + 1] - R[i - 1].  So an interior cell takes
a square root and four divisions a stage for every mass (the phase
gradient, the flux difference, d2R/dq2 and the quotient by R), and the
loop is bound by the divider.  Where dg is a signed zero, as everywhere
for a constant mass (the free and harmonic presets), dg / 2 dq is the
same zero.  Like the ensemble window, the polar window is cloned for
x86-64-v4; it gains less there, since an AVX-512 divider divides no more
doubles a cycle than the baseline's.

The ensemble window has one particle loop per lambda-source kind, the
kind a constant in each, so that a loop hashes only the uniforms its kind
draws: the binary and sphere loops, lambda off among them, slot 0's, and
the smeared loop slot 1's too.  With one loop for every kind, the
vectorizer computed the smeared kind's slot-1 uniform for each kind and
discarded it.  No loop has a data-dependent branch, so gcc vectorizes
each, and on x86-64 the window, as the polar one, is compiled twice
(gcc's target_clones): for x86-64-v4, whose AVX-512 vectors step 8
particles at once, and for the baseline that every x86-64 CPU runs.
The library picks a clone when it is loaded, from the CPU's features, so
one build serves any x86-64 CPU and none meets an instruction it lacks;
other targets and compilers (and gcc before 12) get the one plain body.
A vector lane does the scalar operations, so both clones of each window
give the numpy bits; built by gcc 12, the x86-64-v4 clone of the
ensemble window reads its tables with gathers, which gcc makes only when
told to (_GATHER), except on a CPU whose gathers the microcode fix for
Gather Data Sampling slows.  To look up its tables a loop needs an
integer cell: it clamps the cell to [0, n - 2] before it truncates it,
which on that range equals floor, and gives a -0.0 cell its sign back
with copysign, since np.floor keeps it and the sign can reach a result
through the interpolation weight.

A window of ensemble micro steps splits the particles into contiguous
shards in the same way, and runs each shard's steps as one
call of the compiled kernel on its own slices of the arrays.  Each
particle's update reads only its own entries and is keyed by its own pid,
so a shard reads and writes nothing of another's.  The shards need no
synchronisation inside the window, and the result is bitwise the same
for any shard count.  ctypes, and numpy in its ufunc loops, release the
interpreter lock for the length of each call, so the shards run in
parallel.
"""
from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError, ShapeError

# ---------------------------------------------------------------------------
# counter-based RNG
# ---------------------------------------------------------------------------

# stream domains; every consumer of randomness owns one so streams never
# collide even under a shared seed
DOMAIN_INIT = 1
DOMAIN_LAMBDA = 2
DOMAIN_DEVIATION = 3
DOMAIN_SOURCE = 4

# lambda-source kinds as kernel integers
SRC_BINARY = 0
SRC_SPHERE = 1
SRC_SMEARED = 2


def _source_kind(kind) -> int:
    """kind as a kernel integer; one that is not an SRC_* kind is refused,
    where the C would draw it as binary."""
    if kind not in (SRC_BINARY, SRC_SPHERE, SRC_SMEARED):
        raise ConfigurationError(
            f"unknown lambda-source kind {kind!r}; the kernels draw "
            f"SRC_BINARY ({SRC_BINARY}), SRC_SPHERE ({SRC_SPHERE}) and "
            f"SRC_SMEARED ({SRC_SMEARED})")
    return int(kind)


def _stream_keys(seed, domain, step0, n_steps: int, slot0, n_slots: int):
    """keys[k, s]: the key of (seed, domain, step0 + k) with the slot
    slot0 + s folded in, as a (n_steps, n_slots) uint64 array.

    Every component must lie in [0, 2^64); ctypes would silently wrap one
    outside, so it is refused here.
    """
    seed, domain, step0, slot0 = (int(v) for v in (seed, domain, step0, slot0))
    last = (seed, domain, step0 + max(n_steps - 1, 0),
            slot0 + max(n_slots - 1, 0))
    if min(seed, domain, step0, slot0) < 0 or max(last) >= 1 << 64:
        raise ConfigurationError(
            "RNG keys (seed, domain, step, slot) must lie in [0, 2^64), got "
            f"({seed}, {domain}, {step0}, {slot0}) for {n_steps} step(s)")
    keys = np.empty((n_steps, n_slots), np.uint64)
    _library("_ensemble.c").counter_keys(seed, domain, step0, n_steps, slot0,
                                         n_slots, keys.ctypes.data)
    return keys


def counter_uniform(seed: int, domain: int, step: int, pids, slot: int) -> np.ndarray:
    """u in [0, 1) for each pid, a pure function of the five keys.

    The result has the shape of pids (a scalar for a 0-d pid).
    """
    pids = np.asarray(pids, dtype=np.uint64, order="C")
    key = int(_stream_keys(seed, domain, step, 1, slot, 1)[0, 0])
    out = np.empty(pids.shape)
    _library("_ensemble.c").counter_uniform_fill(key, pids.ctypes.data,
                                                 pids.size, out.ctypes.data)
    return out[()]


def _count(n) -> int:
    n = int(n)
    if n < 0:
        raise ConfigurationError(f"a draw needs n >= 0 values, got {n}")
    return n


def uniform_range(seed: int, domain: int, step: int, n: int,
                  slot: int) -> np.ndarray:
    """counter_uniform(seed, domain, step, np.arange(n), slot), drawn with
    no pid array."""
    n = _count(n)
    key = int(_stream_keys(seed, domain, step, 1, slot, 1)[0, 0])
    out = np.empty(n)
    fill = _library("_ensemble.c").uniform_range
    run_sample_shards(n, lambda s, e: fill(key, s, e - s, out[s:].ctypes.data))
    return out


def lambda_range(seed: int, domain: int, step: int, n: int, src_kind: int,
                 mag0: float, jitter: float) -> np.ndarray:
    """The signed action scales of pids 0 .. n - 1 of a lambda source, from
    their uniforms u1 (slot 0) and u2 (slot 1) at (seed, domain, step).

    binary: +mag0 where u1 < 0.5, else -mag0.  sphere: the z-coordinate
    2 u1 - 1 of a uniform point on the sphere picks the hemisphere, +mag0
    where z >= 0, which is exactly where u1 >= 0.5.  smeared: the magnitude
    mag0 + jitter (2 u2 - 1), signed as for binary; u2 is drawn for this
    kind only.  The magnitudes must not be negative (mag0 >= 0,
    jitter <= mag0); another src_kind is a ConfigurationError.
    """
    n, src_kind = _count(n), _source_kind(src_kind)
    key0, key1 = (int(k) for k in _stream_keys(seed, domain, step, 1, 0, 2)[0])
    out = np.empty(n)
    fill = _library("_ensemble.c").lambda_range
    mag0, jitter = float(mag0), float(jitter)
    run_sample_shards(n, lambda s, e: fill(src_kind, key0, key1, s, e - s, mag0,
                                           jitter, out[s:].ctypes.data))
    return out


@dataclass(frozen=True)
class SampleStats:
    """The statistics of a sample; see sample_stats."""
    total: float
    mean: float
    std: float | None
    counts: np.ndarray
    above: tuple
    violations: int | None
    peak: float | None


def sample_stats(x, magnitudes: bool = False, edges=None, thresholds=(),
                 sign: float | None = None, center: float | None = None,
                 std: bool = False) -> SampleStats:
    """The statistics of a sample x, a C-contiguous 1-D float64 array of
    n >= 1 values, each bitwise the numpy expression beside it, with
    y = np.abs(x) where magnitudes is set, else x:
        total       np.add.reduce(y)
        mean        np.mean(y)
        std         np.std(y); None unless std is set
        counts      np.histogram(y, bins=edges)[0]; none without edges,
                    which must be at least two finite, non-decreasing
                    values
        above[t]    np.count_nonzero(np.abs(x) > thresholds[t])
        violations  np.count_nonzero(sign * x < 0); None without a
                    nonzero sign
        peak        np.max(np.abs(np.abs(x) - center)); None without a
                    center

    The C reducer reads x once to sum y in numpy's pairwise order and tally
    the rest, and, for the std only, once more to sum (y - mean)^2 in the
    same order.  The mean is the first sum over n and the std the root of
    the second over n, as numpy forms them.  Each pass runs on the
    subtrees of numpy's pairwise tree as shards (see _pairwise_shards);
    each shard tallies into its own row of counts and its own peak, and
    the rows are added as integers and the peaks combined by the C's own
    NaN-sticky maximum.
    """
    if not (isinstance(x, np.ndarray) and x.dtype == np.float64
            and x.ndim == 1 and x.size >= 1 and x.flags.c_contiguous):
        raise ShapeError("a sample must be a C-contiguous 1-D float64 array "
                         f"of at least one value, got "
                         f"{getattr(x, 'dtype', type(x))} "
                         f"{getattr(x, 'shape', '')}")
    edges = np.zeros(0) if edges is None else np.ascontiguousarray(
        edges, dtype=np.float64)
    bins = max(edges.size - 1, 0)
    if edges.size and not (edges.ndim == 1 and 1 <= bins < 1 << 31
                           and np.all(np.isfinite(edges))
                           and np.all(edges[:-1] <= edges[1:])):
        raise ShapeError("histogram edges must be 2 to 2^31 finite, "
                         "non-decreasing values")
    thresholds = np.ascontiguousarray(thresholds, dtype=np.float64).ravel()
    n, absval = x.size, int(bool(magnitudes))
    shards = _sample_shards(n)
    counts = np.zeros((shards, bins + thresholds.size + 1), np.int64)
    peaks = np.full(shards, -math.inf)
    lib = _library("_ensemble.c")
    total = _pairwise_shards(n, shards, lambda i, s, e: lib.sample_sum(
        x[s:].ctypes.data, e - s, absval, edges.ctypes.data, bins,
        thresholds.ctypes.data, thresholds.size,
        math.nan if center is None else float(center),
        0.0 if sign is None else float(sign), counts[i].ctypes.data,
        peaks[i:].ctypes.data))
    squares = None if not std else _pairwise_shards(
        n, shards, lambda i, s, e: lib.sample_squares(
            x[s:].ctypes.data, e - s, absval, total / n))
    peak = -math.inf
    for p in peaks.tolist():
        peak = p if p > peak or math.isnan(p) else peak
    counts = counts.sum(axis=0)
    return SampleStats(
        total=total, mean=total / n,
        std=None if squares is None else math.sqrt(squares / n),
        counts=counts[:bins], above=tuple(int(c) for c in counts[bins:-1]),
        violations=None if not sign else int(counts[-1]),
        peak=None if center is None else peak)


def active_backend() -> str:
    """Names the kernels, recorded with benchmark runs: the compiled polar
    and ensemble kernels with the compiler and every flag they are built
    with, the clone of both that this CPU runs in that build, the rng,
    which the ensemble library holds, and the LAPACK library of the wave
    layer with the symbols resolved in it.  Builds nothing."""
    try:
        cc = _compiler()
        build, clone = " ".join((*cc, *_cflags(cc))), _kernel_clone(cc)
    except ConfigurationError:
        build, clone = "no compiler (sysconfig CC empty)", "none"
    try:
        lapack = _lapack()
        lapack = f"{lapack.path} ({', '.join(lapack.symbols.values())})"
    except ConfigurationError as exc:
        lapack = f"none ({exc})"
    return (f"polar and ensemble: C, {build}; polar and ensemble clone: "
            f"{clone}; rng: C; lapack: {lapack}")


# the CPU features of x86-64-v4 beyond x86-64-v3, as /proc/cpuinfo names
# them; every CPU that has them has the features of v3
_V4_FLAGS = frozenset(("avx512f", "avx512bw", "avx512cd", "avx512dq",
                       "avx512vl"))
_CPUINFO = "/proc/cpuinfo"


def _cpuinfo(key: str):
    """The words of the first /proc/cpuinfo line that starts with key
    ("flags", "bugs"); None where there is none or it cannot be read."""
    try:
        with open(_CPUINFO) as fh:
            return next((line.split(":", 1)[-1].split() for line in fh
                         if line.startswith(key)), None)
    except OSError:
        return None


def _has_clone(cc: list):
    """Whether a build by the compiler command cc gives the polar and
    ensemble kernels their x86-64-v4 clones (CLONED in _polar.c and
    _ensemble.c: gcc 12 or later on x86-64), from the name of cc and its
    -dumpversion; None where they do not tell: a bare cc, which may be
    clang, or a gcc whose version cannot be read."""
    import platform
    if platform.machine() not in ("x86_64", "AMD64"):
        return False
    name = os.path.basename(cc[0])
    if "gcc" not in name:
        return False if "clang" in name else None
    major = _gcc_major(tuple(cc))
    return None if major is None else major >= 12


def _kernel_clone(cc: list) -> str:
    """The clone of the polar and ensemble kernels that a build by cc runs
    here, the same for both: "x86-64-v4" where the build has one
    (_has_clone) and /proc/cpuinfo lists the AVX-512 features of that
    level, else "default"; "none" where the build has none, "unknown"
    where the build or CPU cannot be told."""
    has = _has_clone(cc)
    flags = _cpuinfo("flags") if has else None
    if flags is None:
        return "none" if has is False else "unknown"
    return "x86-64-v4" if _V4_FLAGS <= set(flags) else "default"


# ---------------------------------------------------------------------------
# compiled kernels
# ---------------------------------------------------------------------------
# Each library is a C file of the package, compiled on its first call,
# not at import, with the C compiler the Python build names (sysconfig CC),
# into the package's __pycache__ under a name that hashes the source, the
# compiler and the flags, and loaded with ctypes.  The flags keep every
# operation rounding as numpy's does: where the target has a fused
# multiply-add (aarch64, or the x86-64-v4 clones of both kernels),
# gcc would otherwise fuse a multiply and an add into one rounding, and
# none of -ffast-math's parts that change values (reassociation,
# reciprocals, ignoring signed zeros or non-finite values) is given.  Two
# of its other parts are:
#   -fno-math-errno only stops sqrt from setting errno, which lets it run
#   as a vector instruction.
#   -fno-trapping-math tells gcc that no floating-point exception traps, so
#   it may compute both arms of a select and keep one, which the
#   vectorizer needs to turn the ensemble loop's selects into masks.
#   Every operation still rounds as before; the exception flags, which
#   nothing reads, may differ.  It also lets gcc fold (double)(long)x into
#   trunc(x) where the target has one (the x86-64-v4 clone), which keeps
#   the sign of a zero result for x in (-1, 0] where the conversion gives
#   +0.0; the ensemble kernel converts only cells clamped to [0, n - 2]
#   or -0.0, whose sign copysign sets either way, and _polar.c converts
#   nothing.
# -fno-trapping-math would also let gcc compute both arms of a select in
# scalar code, where the baseline clone's well-predicted branches are
# faster (one thread: 20.6 to 21.0 against 15.9 to 16.9 ns per
# particle-step); -fno-if-conversion keeps those branches, and leaves the
# vectorizer's if-conversion, another pass, alone.
# _GATHER, -mtune-ctrl=use_gather, lets gcc use the AVX-512 gather
# instructions, which its generic tuning turns off.  Without it gcc 12.2
# assembles each particle's six table reads in the x86-64-v4 clone of the
# ensemble kernel (vb, osm and th at j and j + 1) from scalar loads and
# inserts, 192 vmovhpd and 88 vinsertf128; with it, from 48 vgatherqpd.  A
# gather loads the same doubles, so no value changes.  On the 40 windows
# of the ensemble_sweep benchmark, replayed on one thread of a Sapphire
# Rapids CPU, the kernel went from 5.6 to 4.4 and from 5.1 to 4.0 ns per
# particle-step (medians of 9 and of 15 interleaved replays, in two
# sessions, with the same output bytes).  The flag changes the
# instructions of no other function of either library, nor of the
# window's baseline clone.  It goes only to gcc 12 on x86-64 (_cflags):
# clang rejects it, and elsewhere there is no such clone.  gcc rejects a
# tuning name it does not know, and the names differ between gcc
# versions, so only gcc 12, the version built and measured with it, is
# given it; another keeps the old command line.
# Tried and not worth it: the whole -mtune=sapphirerapids or
# =icelake-server tuning (2.5 times slower), tables of differences
# t[j + 1] - t[j] made per window (no gain), BLOCK from 128 to 2048 (flat),
# the sign of lambda from the top bit of its hash (within noise, and again
# with one particle loop per source kind: 4.00 against 4.02 ns), a
# per-block cache of each particle's six values, refreshed only when its
# cell changes (3.87 against 3.62 ns, not worth some 40 lines), each
# kind's particle loop in an always_inline function (gcc 12 did not
# vectorize it: 15.3 against 3.9 ns), and one loop per kind in
# lambda_range, whose draws are bound by memory (within noise: 1e7 draws
# into a fresh array took 25.7 against 26.4 ms binary, 26.3 against 25.8
# sphere and 33.7 against 33.2 smeared).  On a CPU
# with the microcode fix for Gather Data Sampling, gathers are much
# slower, so a CPU whose /proc/cpuinfo lists "gds" among its bugs gets no
# _GATHER (_gds_affected); the CPU measured reports itself not affected,
# and no affected CPU has been measured.  A kernel too old to know the
# bug lists it for no CPU.
_SOURCE_DIR = os.path.dirname(__file__)
_CACHE = os.path.join(_SOURCE_DIR, "__pycache__")
_CFLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-fno-trapping-math",
           "-fno-if-conversion", "-fPIC", "-shared")
_GATHER = "-mtune-ctrl=use_gather"
_P, _N = ctypes.c_void_p, ctypes.c_long
_R, _U = ctypes.c_double, ctypes.c_uint64
# the functions of each library: the return type, then the argument types
_SIGNATURES = {
    "_polar.c": {
        "polar_rk4_window": (ctypes.c_int, _P, _N, _P, _P, _P, _R, _R, _N, _R)},
    "_ensemble.c": {
        "ensemble_window": (_N, _P, _P, _P, _P, _N, _N, _P, _P, _P, _N, _R,
                            _R, _R, _P, _N, _N, _R, _R, _R, _R),
        "counter_keys": (None, _U, _U, _U, _N, _U, _N, _P),
        "counter_uniform_fill": (None, _U, _P, _N, _P),
        "uniform_range": (None, _U, _N, _N, _P),
        "lambda_range": (None, _N, _U, _U, _N, _N, _R, _R, _P),
        "sample_sum": (_R, _P, _N, _N, _P, _N, _P, _N, _R, _R, _P, _P),
        "sample_squares": (_R, _P, _N, _N, _R)},
}
# the loaded libraries, by source
_libraries = {}
_load_lock = threading.Lock()


def _compiler() -> list:
    """The C compiler command of the Python build, split into words."""
    import shlex
    import sysconfig
    cc = sysconfig.get_config_var("CC")
    if not cc or not cc.strip():
        raise ConfigurationError(
            "the kernels are compiled from C on first use, and this "
            "Python build names no C compiler (sysconfig CC is empty)")
    return shlex.split(cc)


def _cflags(cc: list) -> tuple:
    """The flags of a build by the compiler command cc: _CFLAGS, plus
    _GATHER for gcc 12 on x86-64, which makes the x86-64-v4 clone (clang
    rejects the flag), unless the CPU is affected by Gather Data Sampling."""
    gather = (_has_clone(cc) and _gcc_major(tuple(cc)) == 12
              and not _gds_affected())
    return _CFLAGS + ((_GATHER,) if gather else ())


@functools.lru_cache(maxsize=None)
def _gcc_major(cc: tuple):
    """The major version that the gcc command cc prints for -dumpversion,
    or None where it cannot be run or prints none."""
    import subprocess
    try:
        proc = subprocess.run([*cc, "-dumpversion"], capture_output=True,
                              text=True)
    except OSError:
        return None
    major = proc.stdout.strip().split(".")[0]
    return int(major) if proc.returncode == 0 and major.isdigit() else None


def _gds_affected() -> bool:
    """Whether /proc/cpuinfo lists Gather Data Sampling ("gds") among the
    CPU's bugs; False where it cannot be read."""
    return "gds" in (_cpuinfo("bugs") or ())


def _build(source: str, cache_dir: str) -> str:
    """Path of the shared library of the package's C file source (say
    "_polar.c") in cache_dir, compiled there first unless a build of the
    same source, compiler and flags is already in place.  The library is
    written to a temporary file and renamed, so a concurrent process never
    loads a partial one.  A new build then deletes the other builds of the
    source in cache_dir, those of an older text, compiler or flags; a
    process that has one loaded keeps its mapping."""
    import hashlib
    import re
    import subprocess
    import tempfile
    cc = _compiler()
    flags = _cflags(cc)
    source_path = os.path.join(_SOURCE_DIR, source)
    with open(source_path, "rb") as fh:
        text = fh.read()
    key = "\0".join((*cc, *flags)).encode()
    digest = hashlib.sha256(text + b"\0" + key).hexdigest()[:16]
    stem = os.path.splitext(source)[0]
    path = os.path.join(cache_dir, f"{stem}-{digest}.so")
    if os.path.exists(path):
        return path
    try:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache_dir)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot write the kernel compiled from {source} to "
            f"{cache_dir}: {exc}") from exc
    os.close(fd)
    try:
        try:
            proc = subprocess.run([*cc, *flags, "-o", tmp, source_path,
                                   "-lm"], capture_output=True, text=True)
        except OSError as exc:
            raise ConfigurationError(
                "the kernels are compiled from C on first use, and the C "
                f"compiler {cc[0]!r} of this Python build (sysconfig CC) "
                f"cannot be run: {exc}") from exc
        if proc.returncode != 0:
            raise ConfigurationError(
                f"{' '.join(cc)} failed to compile {source_path}:\n"
                f"{proc.stderr}")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    build = re.compile(re.escape(stem) + r"-[0-9a-f]{16}\.so")
    for name in os.listdir(cache_dir):
        if build.fullmatch(name) and name != os.path.basename(path):
            try:
                os.unlink(os.path.join(cache_dir, name))
            except OSError:
                pass  # another process deleted it first
    return path


def _library(source: str):
    """The library of the package's C file source, built on first use, with
    its functions typed as _SIGNATURES lists them."""
    with _load_lock:
        lib = _libraries.get(source)
        if lib is None:
            lib = ctypes.CDLL(_build(source, _CACHE))
            for name, (restype, *argtypes) in _SIGNATURES[source].items():
                fn = getattr(lib, name)
                fn.restype, fn.argtypes = restype, argtypes
            _libraries[source] = lib
        return lib


# ---------------------------------------------------------------------------
# LAPACK
# ---------------------------------------------------------------------------
# The wave layer's three LAPACK routines are called through ctypes in the
# library that scipy.linalg.lapack itself calls: scipy's _flapack
# extension, found without importing scipy and loaded as a plain shared
# library, in which each routine is resolved as scipy_<name>_ (the symbols
# of the OpenBLAS that scipy's wheels bundle) or else <name>_.  The calls
# pass LP64 integers and, after the last argument, gfortran's lengths of
# the character arguments, as scipy's f2py wrappers do.  It is the same
# binary called with the same arguments, so the results are scipy's bit
# for bit.  Importing scipy.linalg for them instead loaded 334 modules and
# cost 0.1 to 0.25 s and 22 to 28 MB of resident memory in every process
# that reached the wave layer (scipy 1.17.1, Python 3.11, x86-64).  The
# binding is shown on scipy 1.17.1 only: on another scipy, a moved _flapack
# or a missing symbol raises ConfigurationError on first use; it does not
# give wrong bits.
_LAPACK_ROUTINES = ("dstemr", "zgttrf", "zgttrs")
# the loaded _Lapack, made on first use
_lapack_loaded = None
_CHAR_LEN = ctypes.c_size_t(1)


def _scipy_dir():
    """The directory of the installed scipy package, found without
    importing it; None where no scipy is installed."""
    import importlib.util
    spec = importlib.util.find_spec("scipy")
    locations = spec.submodule_search_locations if spec else None
    return locations[0] if locations else None


@dataclass(frozen=True)
class _Lapack:
    """scipy's _flapack: its path, and the symbol and the ctypes function
    of each routine of _LAPACK_ROUTINES, by routine."""
    path: str
    symbols: dict
    functions: dict


def _lapack_symbols(name: str) -> tuple:
    """The symbols that a LAPACK routine is looked up by, in order."""
    return f"scipy_{name}_", f"{name}_"


def _lapack() -> _Lapack:
    """The routines of _LAPACK_ROUTINES in scipy's
    scipy/linalg/_flapack<EXT_SUFFIX>, loaded on first use.  Raises
    ConfigurationError, naming the path and the symbols tried, where
    scipy, the file or a routine is missing."""
    global _lapack_loaded
    with _load_lock:
        if _lapack_loaded is None:
            import sysconfig
            name = "_flapack" + sysconfig.get_config_var("EXT_SUFFIX")
            tried = ", ".join(s for routine in _LAPACK_ROUTINES
                              for s in _lapack_symbols(routine))
            scipy_dir = _scipy_dir()
            if scipy_dir is None:
                raise ConfigurationError(
                    f"the wave layer calls LAPACK ({tried}) in scipy's "
                    f"scipy/linalg/{name}, and no scipy is installed")
            path = os.path.join(scipy_dir, "linalg", name)
            try:
                lib = ctypes.CDLL(path)
            except OSError as exc:
                raise ConfigurationError(
                    f"the wave layer calls LAPACK ({tried}) in scipy's "
                    f"{path}, which cannot be loaded: {exc}") from exc
            symbols, functions = {}, {}
            for routine in _LAPACK_ROUTINES:
                for symbol in _lapack_symbols(routine):
                    try:
                        fn = getattr(lib, symbol)
                    except AttributeError:
                        continue
                    fn.restype = None
                    symbols[routine], functions[routine] = symbol, fn
                    break
                else:
                    raise ConfigurationError(
                        f"{path} has no LAPACK {routine}: tried "
                        f"{', '.join(_lapack_symbols(routine))}")
            _lapack_loaded = _Lapack(path, symbols, functions)
        return _lapack_loaded


def _lapack_info(name: str, info) -> None:
    if info.value != 0:
        raise NumericalError(f"LAPACK {name} returned info {info.value}")


def _pointer(a: np.ndarray):
    return ctypes.c_void_p(a.ctypes.data)


def tridiagonal_eigh(d, e, upper: float = math.inf):
    """(w, V) of the real symmetric tridiagonal matrix with diagonal d and
    off-diagonals e: its eigenvalues ascending, all n of them, or for a
    finite upper the k of them in (-inf, upper], and their orthonormal
    eigenvectors, the columns of V, an n x k Fortran-ordered array that
    owns its data.  One call of LAPACK dstemr (MRRR: Dhillon, Parlett and
    Voemel, ACM TOMS 32, 2006) computes them, with the bits of
    scipy.linalg.eigh_tridiagonal(d, e, lapack_driver="stemr"), and for a
    finite upper of select="v", select_range=(-inf, upper).

    V is sized from dstemr's own count query (NZC = -1), which is the
    number of columns LAPACK documents as enough, so a band solve holds no
    n x n scratch.  Non-finite entries raise ShapeError, and a failure of
    dstemr NumericalError naming its info.
    """
    if not upper > -math.inf:
        raise ConfigurationError(
            f"the eigenvalues' upper bound must lie above -inf, got {upper}")
    d = np.array(d, dtype=np.float64)
    n = d.size
    if d.ndim != 1 or n < 1 or np.shape(e) != (n - 1,):
        raise ShapeError(f"a tridiagonal matrix needs n >= 1 diagonal and "
                         f"n - 1 off-diagonal entries, got shapes {d.shape} "
                         f"and {np.shape(e)}")
    # dstemr takes n off-diagonal entries and uses the last as workspace
    e_n = np.zeros(n)
    e_n[:-1] = e
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e_n))):
        raise ShapeError("a tridiagonal matrix with non-finite entries has "
                         "no eigendecomposition")
    dstemr = _lapack().functions["dstemr"]
    rng = b"A" if upper == math.inf else b"V"
    vl, vu = ctypes.c_double(-math.inf), ctypes.c_double(upper)
    # idx stands for IL and IU, which ranges A and V do not read
    c_n, idx, m, info = (ctypes.c_int(v) for v in (n, 0, 0, 0))
    w, isuppz = np.empty(n), np.empty(2 * n, np.int32)

    def call(z, nzc, work, lwork, iwork, liwork):
        tryrac = ctypes.c_int(1)   # in and out: a fresh true for each call
        dstemr(ctypes.c_char_p(b"V"), ctypes.c_char_p(rng),
               ctypes.byref(c_n), _pointer(d), _pointer(e_n),
               ctypes.byref(vl), ctypes.byref(vu), ctypes.byref(idx),
               ctypes.byref(idx), ctypes.byref(m), _pointer(w), z,
               ctypes.byref(c_n), ctypes.byref(ctypes.c_int(nzc)),
               _pointer(isuppz), ctypes.byref(tryrac), work,
               ctypes.byref(ctypes.c_int(lwork)), iwork,
               ctypes.byref(ctypes.c_int(liwork)), ctypes.byref(info),
               _CHAR_LEN, _CHAR_LEN)
        _lapack_info("dstemr", info)

    # the query: the columns of Z in Z(1, 1), the workspace sizes in
    # WORK(1) and IWORK(1)
    columns, lwork, liwork = ctypes.c_double(), ctypes.c_double(), ctypes.c_int()
    call(ctypes.byref(columns), -1, ctypes.byref(lwork), -1,
         ctypes.byref(liwork), -1)
    k = int(columns.value)
    V = np.empty((n, k), order="F")
    work, iwork = np.empty(int(lwork.value)), np.empty(liwork.value, np.int32)
    call(_pointer(V), k, _pointer(work), work.size, _pointer(iwork),
         iwork.size)
    if m.value != k:
        raise NumericalError(f"LAPACK dstemr found {m.value} eigenvalues "
                             f"where its count query gave {k}")
    return w[:k], V


def tridiagonal_lu(lower, diag, upper) -> tuple:
    """(dl, d, du, du2, ipiv): the LU factors, with partial pivoting, and
    the pivots of the complex tridiagonal matrix with diagonals (lower,
    diag, upper), from LAPACK zgttrf, bit for bit as
    scipy.linalg.lapack.zgttrf returns them.  A singular matrix raises
    NumericalError naming zgttrf's info."""
    dl, d, du = (np.array(v, dtype=np.complex128) for v in (lower, diag, upper))
    n = d.size
    if d.ndim != 1 or n < 1 or dl.shape != (n - 1,) or du.shape != (n - 1,):
        raise ShapeError(f"a tridiagonal matrix needs n >= 1 diagonal and "
                         f"n - 1 sub- and superdiagonal entries, got shapes "
                         f"{dl.shape}, {d.shape} and {du.shape}")
    du2, ipiv = np.empty(max(n - 2, 0), np.complex128), np.empty(n, np.int32)
    info = ctypes.c_int(0)
    zgttrf = _lapack().functions["zgttrf"]
    zgttrf(ctypes.byref(ctypes.c_int(n)),
           *(_pointer(v) for v in (dl, d, du, du2, ipiv)), ctypes.byref(info))
    _lapack_info("zgttrf", info)
    return dl, d, du, du2, ipiv


def tridiagonal_lu_solver(factors: tuple, b: np.ndarray):
    """A function of no arguments that overwrites b with the solution x of
    A x = b by LAPACK zgttrs, from the factors of A that tridiagonal_lu
    gives, bit for bit as scipy.linalg.lapack.zgttrs solves it.  b must be
    a writeable C-contiguous complex128 vector of A's size; its address
    and every other argument are converted here, once, so a solve costs
    one foreign call, on whatever b holds when it is called.  The factors
    must not change."""
    n = factors[1].size
    if not (isinstance(b, np.ndarray) and b.dtype == np.complex128
            and b.shape == (n,) and b.flags.c_contiguous
            and b.flags.writeable):
        raise ShapeError(f"b must be a writeable C-contiguous complex128 "
                         f"vector of length {n}, got "
                         f"{getattr(b, 'dtype', type(b))} "
                         f"{getattr(b, 'shape', '')}")
    zgttrs = _lapack().functions["zgttrs"]
    c_n, info = ctypes.c_int(n), ctypes.c_int(0)
    args = (ctypes.c_char_p(b"N"), ctypes.byref(c_n),
            ctypes.byref(ctypes.c_int(1)),
            *(_pointer(v) for v in factors), _pointer(b), ctypes.byref(c_n),
            ctypes.byref(info), _CHAR_LEN)

    def solve():
        zgttrs(*args)
        _lapack_info("zgttrs", info)
    # the arrays whose addresses args holds live as long as solve does
    solve.arrays = (factors, b)
    return solve


# ---------------------------------------------------------------------------
# shards
# ---------------------------------------------------------------------------
# The bulk work of an ensemble window and of a sample runs as contiguous
# shards, at most one per usable CPU: the calling thread runs the first
# and one pool of threads the rest.  Each shard is one call of a compiled
# kernel, or numpy ufunc loops, on its own slices, and ctypes and numpy
# release the interpreter lock for the length of each, so the shards run
# in parallel.

# the CPUs this process may run on; a window or a sample runs at most one
# shard on each
_WORKERS = len(os.sched_getaffinity(0))
_pool = None
_pool_lock = threading.Lock()


def _shard_pool():
    """The threads that run every shard but the caller's own, made on first
    use, so that importing this module starts no thread."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="shard")
        return _pool


def _run_shards(run, shards: int) -> list:
    """[run(0), ..., run(shards - 1)], shard 0 run by the calling thread and
    the others by the pool, which is not made for one shard.  Returns, or
    raises a shard's exception, only once every shard has finished, so no
    shard writes after the call."""
    futures = [_shard_pool().submit(run, i) for i in range(1, shards)]
    try:
        first = run(0)
    finally:
        for f in futures:
            f.exception()  # waits
    return [first] + [f.result() for f in futures]


# the fewest values a shard of a sample's draws, inverse CDF or reduction
# takes, so a sample of under 2 * _SAMPLE_SHARD_MIN values runs as one
# shard.  Measured on 2 vCPUs, one shard against two, in ms (medians of
# 15 to 21 interleaved timings, in three sessions): the reducer, every
# statistic of exponential_law with the std, took 6.5 against 6.9, 7.0
# against 4.9 and 9.1 against 9.3 on 1e6 values; 29.3 against 32.9, 31.1
# against 21.0 and 32.0 against 33.8 on 4e6; and 89 against 57, 86
# against 60 and 79 against 58 on 1e7.  The action deviations of 1e7
# values, drawn and inverted, took 67 against 36, 65 against 36 and 62
# against 37; on 4e6, 17.8 against 18.6, 16.5 against 7.3 and 17.8
# against 18.2.  Two shards gained on 1e7 values in every session, and
# on 4e6 or fewer in one of three.  2^22 keeps samples of up to 8.4e6
# values, the registry's 1e6 among them, in one shard
_SAMPLE_SHARD_MIN = 1 << 22


def _sample_shards(n: int) -> int:
    """The shards of a sample of n values: at most one per usable CPU and
    per _SAMPLE_SHARD_MIN values, and at least one."""
    return max(1, min(_WORKERS, n // _SAMPLE_SHARD_MIN))


def run_sample_shards(n: int, run) -> None:
    """run(s, e) on the contiguous shards [s, e) of 0 .. n - 1 that
    _sample_shards sets, each on its own thread.  For an elementwise run,
    as a draw by pid or a ufunc, the result does not depend on the
    split."""
    shards = _sample_shards(n)
    bounds = [n * i // shards for i in range(shards + 1)]
    _run_shards(lambda i: run(bounds[i], bounds[i + 1]), shards)


def _pairwise_shards(n: int, shards: int, subtree) -> float:
    """np.add.reduce's sum of n > 0 terms, from the sums subtree(i, s, e)
    of the terms s .. e - 1 of each of the 2^d subtrees of numpy's
    pairwise tree d = ceil(log2 shards) levels below its root, run by
    shard i of shards; a shard takes one subtree, or two adjacent ones.

    numpy sums a contiguous array along a fixed binary tree: a node of
    more than 128 values splits at half its size rounded down to a
    multiple of 8 and adds its halves' sums; a leaf is summed in the
    order _ensemble.c's pairwise follows.  The subtrees' sums, added pair
    by pair up the tree and then to the identity 0.0, are therefore that
    tree's sum bit for bit, wherever each subtree ran.  Every node above
    the subtrees splits, since _sample_shards gives each shard at least
    _SAMPLE_SHARD_MIN > 256 values."""
    depth = (shards - 1).bit_length()
    bounds = [0, n]
    for _ in range(depth):
        bounds = [b for s, e in zip(bounds, bounds[1:])
                  for b in (s, s + (e - s) // 2 // 8 * 8)] + [n]
    k = len(bounds) - 1
    sums = [v for part in _run_shards(
        lambda i: [subtree(i, bounds[j], bounds[j + 1])
                   for j in range(k * i // shards, k * (i + 1) // shards)],
        shards) for v in part]
    while len(sums) > 1:
        sums = [a + b for a, b in zip(sums[::2], sums[1::2])]
    return 0.0 + sums[0]


# ---------------------------------------------------------------------------
# ensemble micro-stepping
# ---------------------------------------------------------------------------
# State arrays (mutated in place): positions qs, scales lams, log-weights
# logws, frozen flags (uint8).  Field tables on the grid, sampled by clamped
# linear interpolation identical to lattice.interp_linear:
#   vb   = g dS/dq                drift per unit time
#   osm  = 0.5 g (dOmega/dq)/Omega  drift per unit (time * lambda)
#   th   = theta(S)               log-weight decay rate
# One micro step of length dt: redraw lambda (keyed by the global step
# index), move, accumulate -theta*dt, freeze leavers at the bounds.  The
# window is the C function ensemble_window in _ensemble.c.


# the fewest particle-steps (particles times micro steps of the window) a
# shard takes, so a window of under 2 * _SHARD_MIN particle-steps runs as
# one shard: a second shard costs a thread hand-off and cold caches once
# per window, which only enough work outweighs.  Measured with one
# particle loop per source kind on 2 vCPUs, on the tau_sweep fields, in ns
# per particle-step, one shard against two (medians of 15 interleaved
# timings of 3 windows each, in three sessions): 1e5 particles with one
# step a window ran at 4.0 against 4.7, 4.0 against 4.6 and 4.2 against
# 4.6; with 100 steps at 3.3 against 3.1, 3.2 against 3.1 and 3.2 against
# 3.1.  2^15 particles with 10 steps ran at 3.1 against 3.4, 3.3 against
# 3.5 and 3.3 against 3.5, and with one step at 4.6 against 6.4, 4.7
# against 6.2 and 6.6 against 7.2.  The second vCPU gave little in those
# sessions: the single-loop kernel ran 1e5 particles with 100 steps at 3.8
# against 4.0, where earlier sessions had it at 4.3 against 2.3, 4.5
# against 2.3 and 4.2 against 2.4.  The one-step windows of 1e5
# particles, the only registry windows under the gate (tau_sweep at
# tau_Q = 1e-2), ran faster as one shard in all three, and 3 * 2^16 keeps
# them in one shard; it splits a window of 12 steps from 2^15 particles
# on.  Windows of 2e5 to 3.9e5 particle-steps gained from a second shard
# on the freer host, but no scenario runs one
_SHARD_MIN = 3 << 16


def run_ensemble_window(qs, lams, logws, frozen, vb, osm, th, q_min, dq, dt,
                        n_sub, step0, seed, src_kind, mag0, jitter,
                        freeze_lo, freeze_hi):
    """Advance the ensemble arrays in place by n_sub micro steps.

    qs, lams and logws must be writeable C-contiguous float64 arrays of one
    length m, and frozen a writeable C-contiguous uint8 array of that
    length, no two of them overlapping; vb, osm and th are field tables on
    the same n >= 2 grid points.  A bad input raises ShapeError before any
    array is touched, and a negative n_sub or a src_kind that is not an
    SRC_* kind ConfigurationError.

    The particles are split into contiguous shards [s, e): at most one per
    usable CPU, per particle, and per _SHARD_MIN particle-steps m * n_sub
    of the window, and at least one.  The calling thread runs the first
    and a thread pool the rest, each as one call of the compiled kernel.
    A particle's update reads only its own entries of the arrays,
    its pid and the step keys, so each shard runs the whole window on its
    slices with no synchronisation, and the result is the same, bit for
    bit, for any number of shards.

    Raises NumericalError, naming the micro step, when an active particle's
    cell (q - q_min) / dq is not finite, as for a NaN or infinite position:
    it has no table index.  The arrays are then partly advanced.
    """
    m = qs.shape[0] if isinstance(qs, np.ndarray) and qs.ndim == 1 else None
    for name, v, dtype in (("qs", qs, np.float64), ("lams", lams, np.float64),
                           ("logws", logws, np.float64),
                           ("frozen", frozen, np.uint8)):
        if not (isinstance(v, np.ndarray) and v.dtype == dtype
                and v.shape == (m,) and v.flags.c_contiguous
                and v.flags.writeable):
            raise ShapeError(
                f"{name} must be a writeable C-contiguous {np.dtype(dtype)} "
                f"array of the length of qs, got "
                f"{getattr(v, 'dtype', type(v))} {getattr(v, 'shape', '')}")
    particles = (qs, lams, logws, frozen)
    if any(np.may_share_memory(a, b)
           for i, a in enumerate(particles) for b in particles[i + 1:]):
        raise ShapeError("qs, lams, logws and frozen must not overlap")
    tables = [np.ascontiguousarray(t, dtype=np.float64) for t in (vb, osm, th)]
    n = tables[0].shape[0] if tables[0].ndim == 1 else 0
    for name, t in zip(("vb", "osm", "th"), tables):
        if t.shape != (n,) or n < 2:
            raise ShapeError(f"field table {name} has shape {t.shape}; the "
                             "tables need one length n >= 2")
    n_sub, step0, seed = int(n_sub), int(step0), int(seed)
    if n_sub < 0:
        raise ConfigurationError(f"n_sub must be >= 0, got {n_sub}")
    src_kind = _source_kind(src_kind)
    keys = _stream_keys(seed, DOMAIN_LAMBDA, step0, n_sub, 0, 2)
    kernel = _library("_ensemble.c").ensemble_window
    window = (*(t.ctypes.data for t in tables), n, float(q_min), float(dq),
              float(dt), keys.ctypes.data, n_sub, src_kind, float(mag0),
              float(jitter), float(freeze_lo), float(freeze_hi))

    def advance(s, e):
        # the slices' data pointers; the arrays stay referenced by the caller
        return kernel(*(v[s:].ctypes.data for v in particles), e - s, s,
                      *window)

    shards = max(1, min(_WORKERS, m, m * n_sub // _SHARD_MIN))
    bounds = [m * i // shards for i in range(shards + 1)]
    done = min(_run_shards(lambda i: advance(bounds[i], bounds[i + 1]),
                           shards))
    if done < n_sub:
        raise NumericalError(
            f"at micro step {step0 + done} an active particle's position is "
            "not finite, so its interpolation cell is undefined")


# ---------------------------------------------------------------------------
# polar-pair RK4 integration
# ---------------------------------------------------------------------------
# One branch of the pair: density omega = R^2 and phase S on the grid.
#   d(omega)/dt = -d/dq [ g dS/dq omega ]        (diffusion eliminated)
#   d(S)/dt     = -( g (dS/dq)^2 / 2 + V + QP )
#   QP          = -(lam^2/2) (g d2R + dg dR) / R,  R = sqrt(omega)
# Both branches of the pair obey these equations, which read |lam| only,
# so one polar state stands for both: madelung.step_coupled_pde passes
# |lam|, and the window integrates that one row.
#
# Wall closure: the wave propagators hold psi = 0 at the ghost points just
# outside the domain.  Approximate closures at the two wall cells are
# treacherous -- one-sided stencils couple wall phase to wall density with
# an O(1/dq^2) gain through the amplitude-ratio term, and extrapolating the
# wall phase misses the Dirichlet reflection layer and feeds a slow
# instability whenever the packet moves.  Instead the wall cells integrate
# the boundary rows of the discrete wave Hamiltonian rewritten in polar
# variables (theta is the phase step across the wall link over lam):
#   d(omega_0)/dt = -(g lam / dq^2) R_0 R_1 sin(theta)
#   d(S_0)/dt     = (g lam^2 / 2 dq^2) ((R_1/R_0) cos(theta) - 2) - V_0
# which is the exact wall dynamics of the underlying unitary system, not a
# discretization: eigenvectors are exactly stationary, and a moving tail
# gets the true reflection-layer response.  The R_1/R_0 ratio means a wall
# density passing near zero is a genuine polar singularity; scenarios must
# keep the wall cells dominated by a single spectral component (see the
# harness scenario construction).  The integrator is the C function
# polar_rk4_window in _polar.c.


# A window runs on one CPU, unlike an ensemble window: its cells couple
# through the stencils at every RK4 stage, so shards must meet once a
# step, and a step then waits for the slower core.  Measured on 2 vCPUs,
# x86-64-v4 clone, polar_chain's windows, against this kernel (prototypes
# not kept).  One core: the three constant divisions as multiplies (not
# bit-exact, so an upper bound) gave 1.17-1.21x at n = 768; as a
# reciprocal with two FMA corrections every window keeps its bits, at
# 1.06-1.12x for n = 768 and 1.46-1.53x for n = 96, but the baseline clone
# would call libm's fma; stage passes in 128- or 256-cell L1 chunks gave
# 0.94-1.11x.  Two cores, each shard owning half the cells plus 8 ghost
# cells (2 per stage), with one barrier per step, keep every window's bits
# at 1 to 4 shards, variable mass included.  On a quiet host they ran
# 1.57-1.71x at n = 768, 1.31-1.41x at 384 and 0.81-0.91x at 96; with a
# busy process on the other CPU the same window ran 2.4x (spin capped at
# 30k cycles, then futex) to 5.3x (150k cycles) slower than one core, and
# one of 40 quiet repetitions stalled 1.0 s under a pure spin.  Letting
# the caller compute a late helper's half stayed at 1.0x: it moves each
# step's half-grid between cores.


def run_madelung_window(y, g, dg, V, dq, dt, n_steps, lam_abs):
    """Advance a polar branch in place by n_steps RK4 steps.

    y has shape (2, n): y[0] holds the density omega = R^2 and y[1] the
    phase S, on the grid of the field tables g, dg, V (each of shape (n,)),
    at the scale |lam| = lam_abs.  y must be a C-contiguous float64 array,
    since it is updated in place by the compiled kernel, and must share no
    memory with a table: the kernel's loops are vectorized on that promise.
    """
    if not (isinstance(y, np.ndarray) and y.dtype == np.float64
            and y.ndim == 2 and y.shape[0] == 2 and y.flags.c_contiguous
            and y.flags.writeable):
        raise ShapeError(
            "y must be a writeable C-contiguous float64 array of shape "
            f"(2, n), got {getattr(y, 'dtype', type(y))} "
            f"{getattr(y, 'shape', '')}")
    n = y.shape[1]
    if n < 3:
        raise ShapeError(f"the polar stencils need n >= 3 cells, got {n}")
    tables = [np.ascontiguousarray(t, dtype=np.float64) for t in (g, dg, V)]
    for name, t in zip(("g", "dg", "V"), tables):
        if t.shape != (n,):
            raise ShapeError(f"field table {name} has shape {t.shape}, "
                             f"expected ({n},)")
        if np.may_share_memory(y, t):
            raise ShapeError(f"field table {name} shares memory with y")
    n_steps = int(n_steps)
    if n_steps < 0:
        raise ConfigurationError(f"n_steps must be >= 0, got {n_steps}")
    status = _library("_polar.c").polar_rk4_window(
        y.ctypes.data, n, *(t.ctypes.data for t in tables), float(dq),
        float(dt), n_steps, float(lam_abs))
    if status != 0:
        raise MemoryError("the polar kernel could not allocate its scratch")
