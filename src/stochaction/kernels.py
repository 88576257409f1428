"""Hot loops behind the ensemble and polar-PDE integrators, in numpy.

Each kernel allocates its work arrays once per call and updates them in
place, so per-step cost is the arithmetic plus a fixed number of numpy
calls.  The polar kernel differences its fields with the stencils of
``lattice.py``.

Randomness is counter-based: every variate is a pure function of
(seed, domain, step, particle, slot) through a splitmix64-style finalizer,
so results do not depend on scheduling or worker count.  Being pure, the
hash can be evaluated in any partition of the particles: bulk draws run it
over fixed blocks of keys, whose scratch stays in cache instead of
streaming every hash pass over the whole array through memory, and the
result does not depend on the block size.

The ensemble kernel uses the same property across threads.  A window of
micro steps splits the particles into contiguous shards, one per usable
CPU, and runs each shard's steps on its own slices of the arrays.  Each
particle's update is elementwise and keyed by its own pid, so a shard
reads and writes nothing of another's.  The shards need no
synchronisation inside the window, and the result is bitwise the same
for any shard count.  numpy releases the interpreter lock inside each
operation, so the shards run in parallel.
"""
from __future__ import annotations

import math
import os
import threading

import numpy as np

from .errors import ConfigurationError
from .lattice import (central_gradient, central_second_difference,
                      gradient_left_edge, gradient_right_edge)

# ---------------------------------------------------------------------------
# counter-based RNG
# ---------------------------------------------------------------------------

# splitmix64 finalizer constants plus distinct odd multipliers that spread
# the key components (seed, domain, step, particle id, slot) over 64 bits
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_SH30 = np.uint64(30)
_SH27 = np.uint64(27)
_SH31 = np.uint64(31)
_SH11 = np.uint64(11)
_K_SEED = np.uint64(0x9E3779B97F4A7C15)
_K_DOMAIN = np.uint64(0xD1342543DE82EF95)
_K_STEP = np.uint64(0xDABA0B6EB09322E3)
_K_PID = np.uint64(0xC2B2AE3D27D4EB4F)
_K_SLOT = np.uint64(0x165667B19E3779F9)
_INV53 = 1.0 / 9007199254740992.0  # 2^-53

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

# density floor for the amplitude-ratio term only; far below any physical
# scale, it just keeps sqrt/division finite under deep-tail undershoot
_OM_FLOOR = 1e-300


def _mix_into(x, tmp):
    """SplitMix64 finalizer of the uint64 array x, in place; tmp is
    scratch of x's shape."""
    for shift, mult in ((_SH30, _M1), (_SH27, _M2)):
        np.right_shift(x, shift, out=tmp)
        x ^= tmp
        x *= mult
    np.right_shift(x, _SH31, out=tmp)
    x ^= tmp


def _mix(x):
    x = np.array(x, dtype=np.uint64)
    _mix_into(x, np.empty_like(x))
    return x[()]


def _base_key(seed: int, domain: int, step: int):
    if seed < 0 or domain < 0 or step < 0:
        raise ConfigurationError("RNG keys (seed, domain, step) must be >= 0")
    b = _mix(np.uint64(seed) * _K_SEED ^ np.uint64(domain) * _K_DOMAIN)
    return _mix(b ^ np.uint64(step) * _K_STEP)


def _slot_key(base, slot: int):
    """The key (seed, domain, step) with the slot folded in; xor-ing it into
    a pid key gives the same bits as xor-ing the components one by one."""
    return base ^ np.uint64(slot) * _K_SLOT


def _uniform_into(pid_keys, key, x, tmp, out):
    """out = the uniforms of the pid keys (pid * _K_PID) under the folded
    key; x and tmp are uint64 scratch of out's shape, and x may be pid_keys
    itself."""
    np.bitwise_xor(pid_keys, key, out=x)
    _mix_into(x, tmp)
    np.right_shift(x, _SH11, out=x)
    out[...] = x
    out *= _INV53


# keys hashed per block by counter_uniform: the two 512 KiB uint64 scratch
# blocks and the block of results they fill stay in L2
_BLOCK = 1 << 16


def counter_uniform(seed: int, domain: int, step: int, pids, slot: int) -> np.ndarray:
    """u in [0, 1) for each pid, a pure function of the five keys.

    The result has the shape of pids (a scalar for a 0-d pid).  The pids
    are hashed in blocks of _BLOCK keys, which keeps the hash's scratch in
    cache; each uniform depends on its own keys only, so the result is the
    same for any block size.
    """
    pids = np.asarray(pids, dtype=np.uint64)
    out = np.empty(pids.shape)
    flat_pids, flat_out = pids.reshape(-1), out.reshape(-1)
    size = flat_pids.size
    m = min(size, _BLOCK)
    x, tmp = np.empty(m, np.uint64), np.empty(m, np.uint64)
    with np.errstate(over="ignore"):
        key = _slot_key(_base_key(seed, domain, step), slot)
        for start in range(0, size, _BLOCK):
            stop = min(start + _BLOCK, size)
            xb, tb = x[:stop - start], tmp[:stop - start]
            np.multiply(flat_pids[start:stop], _K_PID, out=xb)
            _uniform_into(xb, key, xb, tb, flat_out[start:stop])
    return out[()]


# the uniforms are multiples of 2^-53, so none equals 0.5 - 2^-54, and the
# sign of the difference, which rounding cannot flip, tells u < 0.5 from
# u >= 0.5
_HALF_DOWN = 0.5 - 2.0 ** -54


def source_lambda_into(src_kind: int, u1, u2, mag0: float, jitter: float, out):
    """Signed action scales of a lambda source from its uniforms, into out.

    binary: +mag0 where u1 < 0.5, else -mag0.  sphere: the z-coordinate
    2 u1 - 1 of a uniform point on the sphere picks the hemisphere, +mag0
    where z >= 0, which is exactly where u1 >= 0.5.  smeared: the magnitude
    mag0 + jitter (2 u2 - 1), signed as for binary; u2 (read for this kind
    only) is overwritten with the magnitude.  The magnitudes must not be
    negative (mag0 >= 0, jitter <= mag0).  out may be u1 itself.
    """
    if src_kind == SRC_SPHERE:
        np.subtract(u1, _HALF_DOWN, out=out)
    else:
        np.subtract(_HALF_DOWN, u1, out=out)
    if src_kind == SRC_SMEARED:
        u2 *= 2.0
        u2 -= 1.0
        u2 *= jitter
        u2 += mag0
        np.copysign(u2, out, out=out)
    else:
        np.copysign(mag0, out, out=out)


def active_backend() -> str:
    """Name of the kernel implementation, recorded with benchmark runs."""
    return "numpy"


# ---------------------------------------------------------------------------
# ensemble micro-stepping
# ---------------------------------------------------------------------------
# State arrays (mutated in place): positions qs, scales lams, log-weights
# logws, frozen flags (uint8).  Field tables on the grid, sampled by clamped
# linear interpolation identical to lattice.interp_linear:
#   vb   = g (dS/dq - A)          drift per unit time
#   osm  = 0.5 g (dOmega/dq)/Omega  drift per unit (time * lambda)
#   th   = theta(S)               log-weight decay rate
# One micro step of length dt: redraw lambda (keyed by the global step
# index), move, accumulate -theta*dt, freeze leavers at the bounds.


# the fewest particles a shard takes, so a window runs as one shard under
# 2 * _SHARD_MIN particles.  Smaller shards do not pay for their thread:
# on 2 vCPUs, two shards of _SHARD_MIN ran at about 30 ns per
# particle-step against 32 ns for one shard, and two of 2 * _SHARD_MIN
# at 22 ns against 36
_SHARD_MIN = 1 << 14
# the CPUs this process may run on; a window runs at most one shard on each
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
            _pool = ThreadPoolExecutor(_WORKERS - 1,
                                       thread_name_prefix="ensemble-shard")
        return _pool


def _advance_shard(particles, work, vb, osm, th, q_min, dq, dt, step_keys,
                   src_kind, mag0, jitter, freeze_lo, freeze_hi):
    """The micro steps of one shard, on its views of the particle arrays
    and of the scratch."""
    qs, lams, logws, frozen, pid_keys = particles
    x, tmp, u1, u2, cell, w, a, b, c, j, j1, active, out, mask = work
    n = vb.shape[0]

    def lerp(table, dst):
        # table[j] + w * (table[j + 1] - table[j])
        np.take(table, j, out=c)
        np.take(table, j1, out=dst)
        dst -= c
        dst *= w
        dst += c

    # numpy's error state is per thread: a pool thread starts from the default
    with np.errstate(over="ignore"):
        for key0, key1 in step_keys:
            np.equal(frozen, 0, out=active)
            _uniform_into(pid_keys, key0, x, tmp, u1)
            if src_kind == SRC_SMEARED:
                _uniform_into(pid_keys, key1, x, tmp, u2)
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
            lerp(vb, a)                              # vbi
            lerp(osm, b)                             # osmi
            b *= lams
            a += b                                   # v
            a *= dt
            a += qs                                  # qn
            np.less(a, freeze_lo, out=out)
            np.greater(a, freeze_hi, out=mask)
            out |= mask
            np.maximum(a, freeze_lo, out=a, where=out)
            np.minimum(a, freeze_hi, out=a, where=out)
            lerp(th, b)                              # thi
            b *= dt
            np.subtract(logws, b, out=logws, where=active)
            np.copyto(qs, a, where=active)
            active &= out
            np.copyto(frozen, 1, where=active)


def run_ensemble_window(qs, lams, logws, frozen, vb, osm, th, q_min, dq, dt,
                        n_sub, step0, seed, src_kind, mag0, jitter,
                        freeze_lo, freeze_hi):
    """Advance the ensemble arrays in place by n_sub micro steps.

    The particles are split into contiguous shards [s, e), at most one per
    usable CPU and none smaller than _SHARD_MIN; the calling thread runs
    the first and a thread pool the rest.  A particle's update reads only
    its own entries of the arrays, its pid key and the step keys, and every
    operation is elementwise, so each shard runs the whole window on its
    slices with no synchronisation, and the result is the same, bit for
    bit, for any number of shards.
    """
    q_min, dq, dt = float(q_min), float(dq), float(dt)
    mag0, jitter = float(mag0), float(jitter)
    freeze_lo, freeze_hi = float(freeze_lo), float(freeze_hi)
    n_sub, step0, seed = int(n_sub), int(step0), int(seed)
    src_kind = int(src_kind)
    m = qs.shape[0]
    with np.errstate(over="ignore"):
        step_keys = []
        for k in range(n_sub):
            base = _base_key(seed, DOMAIN_LAMBDA, step0 + k)
            step_keys.append((_slot_key(base, 0), _slot_key(base, 1)))
        particles = (qs, lams, logws, frozen,
                     np.arange(m, dtype=np.uint64) * _K_PID)
    # The temporaries are allocated once per call, for every shard, by the
    # calling thread, and updated in place at each step.  At ensemble sizes
    # each is hundreds of kB: fresh ones per step are mapped and unmapped by
    # the allocator every time, which costs a page fault per page, and ones
    # allocated in a pool thread come from that thread's own malloc arena,
    # which raises the peak resident memory
    work = (np.empty(m, np.uint64), np.empty(m, np.uint64),
            *(np.empty(m) for _ in range(7)),
            np.empty(m, np.int64), np.empty(m, np.int64),
            *(np.empty(m, bool) for _ in range(3)))

    def advance(s, e):
        _advance_shard([v[s:e] for v in particles], [v[s:e] for v in work],
                       vb, osm, th, q_min, dq, dt, step_keys,
                       src_kind, mag0, jitter, freeze_lo, freeze_hi)

    shards = max(1, min(_WORKERS, m // _SHARD_MIN))
    bounds = [m * i // shards for i in range(shards + 1)]
    futures = [_shard_pool().submit(advance, s, e)
               for s, e in zip(bounds[1:-1], bounds[2:])]
    try:
        advance(bounds[0], bounds[1])
    finally:
        for f in futures:
            f.exception()  # waits: no shard writes after this call returns
    for f in futures:
        f.result()


# ---------------------------------------------------------------------------
# polar-pair RK4 integration
# ---------------------------------------------------------------------------
# One branch of the pair: density omega = R^2 and phase S on the grid.
#   d(omega)/dt = -d/dq [ g (dS/dq - A) omega ]        (diffusion eliminated)
#   d(S)/dt     = -( g (dS/dq - A)^2 / 2 + V + QP )
#   QP          = -(lam^2/2) (g d2R + dg dR) / R,  R = sqrt(omega)
# Both branches of the pair obey these equations with the same |lam|, so
# they are advanced together as one batch.
#
# Wall closure: the wave propagators hold psi = 0 at the ghost points just
# outside the domain.  Approximate closures at the two wall cells are
# treacherous -- one-sided stencils couple wall phase to wall density with
# an O(1/dq^2) gain through the amplitude-ratio term, and extrapolating the
# wall phase misses the Dirichlet reflection layer and feeds a slow
# instability whenever the packet moves.  Instead the wall cells integrate
# the boundary rows of the discrete wave Hamiltonian rewritten in polar
# variables (theta is the covariant phase step across the wall link):
#   d(omega_0)/dt = -(g lam / dq^2) R_0 R_1 sin(theta)
#   d(S_0)/dt     = (g lam^2 / 2 dq^2) ((R_1/R_0) cos(theta) - 2) - V_0
# which is the exact wall dynamics of the underlying unitary system, not a
# discretization: eigenvectors are exactly stationary, and a moving tail
# gets the true reflection-layer response.  The R_1/R_0 ratio means a wall
# density passing near zero is a genuine polar singularity; scenarios must
# keep the wall cells dominated by a single spectral component (see the
# harness scenario construction).


def _sincos(x):
    # a state that has blown up can reach a wall as an infinite phase step,
    # where math.sin raises; hand back NaN for the caller's non-finite guard
    if math.isinf(x):
        return math.nan, math.nan
    return math.sin(x), math.cos(x)


def run_madelung_window(y, g, dg, A, V, dq, dt, n_steps, lam_abs):
    """Advance a batch of polar branches in place by n_steps RK4 steps.

    y has shape (2, B, n): y[0] holds the densities omega = R^2 of the B
    branches and y[1] their phases S.  The branches
    share the field tables g, dg, A, V (each of shape (n,)) and the scale
    |lam| = lam_abs, and do not interact: branch b of the result depends
    on row b of y alone.
    """
    _, nb, n = y.shape
    dq, dt, lam = float(dq), float(dt), float(lam_abs)
    lam2half = 0.5 * lam * lam
    neg_lam2half = -lam2half
    half, sixth = 0.5 * dt, dt / 6.0
    half_g = 0.5 * g
    # wall-row constants, as Python floats
    h2 = dq * dq
    g0, g1 = float(g[0]), float(g[-1])
    linkL = dq * 0.5 * (float(A[0]) + float(A[1]))
    linkR = dq * 0.5 * (float(A[-2]) + float(A[-1]))
    domL, domR = -(g0 * lam / h2), g1 * lam / h2
    dSL, dSR = g0 * lam2half / h2, g1 * lam2half / h2
    VL, VR = float(V[0]), float(V[-1])

    k = np.empty((4,) + y.shape)
    stage = np.empty_like(y)
    dS, dp, flux, R, qp = (np.empty((nb, n)) for _ in range(5))
    # the edge entries of the R derivatives are never written; zeros keep
    # the discarded edge arithmetic finite
    d1R, d2R = np.zeros((nb, n)), np.zeros((nb, n))
    # one row of nb * n cells: the interior stencils run across the rows
    # at once, and the few values they mix between rows all land on wall
    # cells, which are overwritten below
    dS_f, flux_f, R_f, d1R_f, d2R_f = (a.reshape(-1)
                                       for a in (dS, flux, R, d1R, d2R))

    def rhs(src, dst):
        om, S = src[0], src[1]
        dom, dSdt = dst[0], dst[1]
        central_gradient(S.reshape(-1), dq, dS_f)
        lo, hi = S[:, :3].tolist(), S[:, -3:].tolist()
        for b in range(nb):
            dS[b, 0] = gradient_left_edge(*lo[b], dq)
            dS[b, -1] = gradient_right_edge(*hi[b], dq)
        np.subtract(dS, A, out=dp)
        np.multiply(g, dp, out=flux)
        np.multiply(flux, om, out=flux)
        dom_f = dom.reshape(-1)
        central_gradient(flux_f, dq, dom_f)
        np.negative(dom_f, out=dom_f)
        # advection of a steep tail can undershoot to machine-negligible
        # negatives; floor the amplitude so the phase term stays finite
        np.maximum(om, _OM_FLOOR, out=R)
        np.sqrt(R, out=R)
        central_gradient(R_f, dq, d1R_f)
        central_second_difference(R_f, dq, d2R_f)
        np.multiply(g, d2R, out=qp)
        np.multiply(dg, d1R, out=d1R)
        np.add(qp, d1R, out=qp)
        np.multiply(qp, neg_lam2half, out=qp)
        np.divide(qp, R, out=qp)
        np.multiply(half_g, dp, out=dSdt)
        np.multiply(dSdt, dp, out=dSdt)
        np.add(dSdt, V, out=dSdt)
        np.add(dSdt, qp, out=dSdt)
        np.negative(dSdt, out=dSdt)
        # exact polar wall rows (midpoint gauge link), see comment above
        Rlo, Rhi = R[:, :2].tolist(), R[:, -2:].tolist()
        for b in range(nb):
            r0, r1 = Rlo[b]
            snL, csL = _sincos(((lo[b][1] - lo[b][0]) - linkL) / lam)
            dom[b, 0] = domL * r0 * r1 * snL
            dSdt[b, 0] = dSL * ((r1 / r0) * csL - 2.0) - VL
            r0, r1 = Rhi[b]
            snR, csR = _sincos(((hi[b][2] - hi[b][1]) - linkR) / lam)
            dom[b, -1] = domR * r0 * r1 * snR
            dSdt[b, -1] = dSR * ((r0 / r1) * csR - 2.0) - VR

    k1, k2, k3, k4 = k
    for _ in range(n_steps):
        rhs(y, k1)
        np.multiply(k1, half, out=stage)
        stage += y
        rhs(stage, k2)
        np.multiply(k2, half, out=stage)
        stage += y
        rhs(stage, k3)
        np.multiply(k3, dt, out=stage)
        stage += y
        rhs(stage, k4)
        # y += dt/6 (k1 + 2 k2 + 2 k3 + k4), summed in that order
        k2 *= 2.0
        k2 += k1
        k3 *= 2.0
        k2 += k3
        k2 += k4
        k2 *= sixth
        y += k2
