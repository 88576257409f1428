"""Hot loops behind the ensemble and polar-PDE integrators.

Every kernel exists twice: a numba @njit scalar-loop version and a pure
numpy version, selected at call time by the STOCHACTION_BACKEND
environment variable ("numba" | "numpy"; default numba when available).
The two paths use expression-for-expression identical arithmetic so their
outputs agree bit for bit — the parity tests assert exact equality, not
closeness.  Keep any edit mirrored in both paths and in the lattice
stencils they shadow.

Randomness is counter-based: every variate is a pure function of
(seed, domain, step, particle, slot) through a splitmix64-style finalizer,
so results do not depend on scheduling or worker count.
"""
from __future__ import annotations

import os

import numpy as np

from .errors import ConfigurationError
from .lattice import gradient_uniform, second_derivative_uniform

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(f):
            return f

        return wrap


BACKEND_ENV = "STOCHACTION_BACKEND"

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

# sin/cos for the wall links are evaluated by the same Taylor-Horner
# sequence in both backends: numba's libm and numpy's disagree by an ulp on
# scattered arguments, which would break the exact-parity contract
import math as _math

_TWO_PI = 2.0 * _math.pi
_PI = _math.pi
_HALF_PI = 0.5 * _math.pi
_INV_TWO_PI = 1.0 / _TWO_PI
_S3 = -1.0 / _math.factorial(3)
_S5 = 1.0 / _math.factorial(5)
_S7 = -1.0 / _math.factorial(7)
_S9 = 1.0 / _math.factorial(9)
_S11 = -1.0 / _math.factorial(11)
_S13 = 1.0 / _math.factorial(13)
_S15 = -1.0 / _math.factorial(15)
_S17 = 1.0 / _math.factorial(17)
_S19 = -1.0 / _math.factorial(19)
_S21 = 1.0 / _math.factorial(21)
_C2 = -1.0 / _math.factorial(2)
_C4 = 1.0 / _math.factorial(4)
_C6 = -1.0 / _math.factorial(6)
_C8 = 1.0 / _math.factorial(8)
_C10 = -1.0 / _math.factorial(10)
_C12 = 1.0 / _math.factorial(12)
_C14 = -1.0 / _math.factorial(14)
_C16 = 1.0 / _math.factorial(16)
_C18 = -1.0 / _math.factorial(18)
_C20 = 1.0 / _math.factorial(20)
_C22 = -1.0 / _math.factorial(22)


def _mix_into_np(x, tmp):
    """SplitMix64 finalizer of the uint64 array x, in place; tmp is
    scratch of x's shape."""
    for shift, mult in ((_SH30, _M1), (_SH27, _M2)):
        np.right_shift(x, shift, out=tmp)
        x ^= tmp
        x *= mult
    np.right_shift(x, _SH31, out=tmp)
    x ^= tmp


def _mix_np(x):
    x = np.array(x, dtype=np.uint64)
    _mix_into_np(x, np.empty_like(x))
    return x[()]


def _base_key_np(seed: int, domain: int, step: int):
    if seed < 0 or domain < 0 or step < 0:
        raise ConfigurationError("RNG keys (seed, domain, step) must be >= 0")
    b = _mix_np(np.uint64(seed) * _K_SEED ^ np.uint64(domain) * _K_DOMAIN)
    return _mix_np(b ^ np.uint64(step) * _K_STEP)


def counter_uniform(seed: int, domain: int, step: int, pids, slot: int) -> np.ndarray:
    """u in [0, 1) for each pid, a pure function of the five keys."""
    pids = np.asarray(pids, dtype=np.uint64)
    with np.errstate(over="ignore"):
        base = _base_key_np(seed, domain, step)
        x = _mix_np(base ^ pids * _K_PID ^ np.uint64(slot) * _K_SLOT)
        return (x >> _SH11).astype(np.float64) * _INV53


@njit(cache=True)
def _mix_nb(x):
    x = x ^ (x >> _SH30)
    x = x * _M1
    x = x ^ (x >> _SH27)
    x = x * _M2
    return x ^ (x >> _SH31)


@njit(cache=True)
def _u01_nb(base, pid, slot):
    x = _mix_nb(base ^ pid * _K_PID ^ slot * _K_SLOT)
    return np.float64(x >> _SH11) * _INV53


# ---------------------------------------------------------------------------
# backend selection
# ---------------------------------------------------------------------------


def active_backend() -> str:
    """Resolve the kernel backend from the environment at call time."""
    choice = os.environ.get(BACKEND_ENV, "").strip().lower()
    if choice == "":
        return "numba" if HAVE_NUMBA else "numpy"
    if choice not in ("numba", "numpy"):
        raise ConfigurationError(
            f"{BACKEND_ENV} must be 'numba' or 'numpy', got {choice!r}")
    if choice == "numba" and not HAVE_NUMBA:
        raise ConfigurationError(
            f"{BACKEND_ENV}=numba requested but numba is not importable")
    return choice


def _resolve(backend: str | None) -> str:
    if backend is None:
        return active_backend()
    if backend not in ("numba", "numpy"):
        raise ConfigurationError(f"backend must be 'numba' or 'numpy', got {backend!r}")
    if backend == "numba" and not HAVE_NUMBA:
        raise ConfigurationError("numba backend requested but numba is not importable")
    return backend


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
# The loop body is free of transcendentals so both backends agree exactly.


def _ensemble_window_np(qs, lams, logws, frozen, vb, osm, th, q_min, dq, dt,
                        n_sub, step0, seed, src_kind, mag0, jitter,
                        freeze_lo, freeze_hi):
    # The temporaries are allocated once per call and updated in place at
    # each step.  At ensemble sizes each is hundreds of kB, and fresh ones
    # per step are mapped and unmapped by the allocator every time, which
    # costs a page fault per page
    n = vb.shape[0]
    m = qs.shape[0]
    pid_keys = np.arange(m, dtype=np.uint64) * _K_PID
    x, tmp = np.empty(m, np.uint64), np.empty(m, np.uint64)
    u1, u2, cell, w, a, b, c = (np.empty(m) for _ in range(7))
    j, j1 = np.empty(m, np.int64), np.empty(m, np.int64)
    active, out, mask = (np.empty(m, bool) for _ in range(3))

    def uniform(base, slot, u):
        np.bitwise_xor(pid_keys, base ^ np.uint64(slot) * _K_SLOT, out=x)
        _mix_into_np(x, tmp)
        np.right_shift(x, _SH11, out=x)
        u[...] = x
        u *= _INV53

    def lerp(table, dst):
        # table[j] + w * (table[j + 1] - table[j])
        np.take(table, j, out=c)
        np.take(table, j1, out=dst)
        dst -= c
        dst *= w
        dst += c

    with np.errstate(over="ignore"):
        for k in range(n_sub):
            gstep = step0 + k
            np.equal(frozen, 0, out=active)
            base = _base_key_np(seed, DOMAIN_LAMBDA, gstep)
            uniform(base, 0, u1)
            if src_kind == SRC_SPHERE:
                u1 *= 2.0
                u1 -= 1.0
                np.greater_equal(u1, 0.0, out=mask)
            else:
                np.less(u1, 0.5, out=mask)
            # lambda = +mag where mask, -mag elsewhere
            if src_kind in (SRC_BINARY, SRC_SPHERE):
                a.fill(-mag0)
                np.copyto(a, mag0, where=mask)
            else:
                uniform(base, 1, u2)
                u2 *= 2.0
                u2 -= 1.0
                u2 *= jitter
                u2 += mag0
                np.negative(u2, out=a)
                np.copyto(a, u2, where=mask)
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


@njit(cache=True)
def _ensemble_window_nb(qs, lams, logws, frozen, vb, osm, th, q_min, dq, dt,
                        n_sub, step0, seed_u, src_kind, mag0, jitter,
                        freeze_lo, freeze_hi):
    n = vb.shape[0]
    npart = qs.shape[0]
    nm2 = np.float64(n - 2)
    for k in range(n_sub):
        gstep = step0 + k
        base = _mix_nb(
            _mix_nb(seed_u * _K_SEED ^ np.uint64(DOMAIN_LAMBDA) * _K_DOMAIN)
            ^ np.uint64(gstep) * _K_STEP)
        for i in range(npart):
            if frozen[i] != 0:
                continue
            pid = np.uint64(i)
            u1 = _u01_nb(base, pid, np.uint64(0))
            if src_kind == SRC_BINARY:
                if u1 < 0.5:
                    lam = mag0
                else:
                    lam = -mag0
            elif src_kind == SRC_SPHERE:
                z = 2.0 * u1 - 1.0
                if z >= 0.0:
                    lam = mag0
                else:
                    lam = -mag0
            else:
                u2 = _u01_nb(base, pid, np.uint64(1))
                mag = mag0 + jitter * (2.0 * u2 - 1.0)
                if u1 < 0.5:
                    lam = mag
                else:
                    lam = -mag
            lams[i] = lam

            q = qs[i]
            u = (q - q_min) / dq
            jf = np.floor(u)
            if jf < 0.0:
                jf = 0.0
            if jf > nm2:
                jf = nm2
            j = np.int64(jf)
            w = u - jf
            if w < 0.0:
                w = 0.0
            if w > 1.0:
                w = 1.0
            vbi = vb[j] + w * (vb[j + 1] - vb[j])
            osmi = osm[j] + w * (osm[j + 1] - osm[j])
            thi = th[j] + w * (th[j + 1] - th[j])
            v = vbi + lams[i] * osmi
            qn = q + dt * v
            logws[i] = logws[i] - dt * thi
            if qn < freeze_lo or qn > freeze_hi:
                if qn < freeze_lo:
                    qn = freeze_lo
                if qn > freeze_hi:
                    qn = freeze_hi
                frozen[i] = 1
            qs[i] = qn


def run_ensemble_window(qs, lams, logws, frozen, vb, osm, th, q_min, dq, dt,
                        n_sub, step0, seed, src_kind, mag0, jitter,
                        freeze_lo, freeze_hi, backend: str | None = None):
    """Advance the ensemble arrays in place by n_sub micro steps."""
    if _resolve(backend) == "numba":
        _ensemble_window_nb(qs, lams, logws, frozen, vb, osm, th,
                            np.float64(q_min), np.float64(dq), np.float64(dt),
                            np.int64(n_sub), np.int64(step0), np.uint64(seed),
                            np.int64(src_kind), np.float64(mag0),
                            np.float64(jitter), np.float64(freeze_lo),
                            np.float64(freeze_hi))
    else:
        _ensemble_window_np(qs, lams, logws, frozen, vb, osm, th,
                            float(q_min), float(dq), float(dt),
                            int(n_sub), int(step0), int(seed),
                            int(src_kind), float(mag0), float(jitter),
                            float(freeze_lo), float(freeze_hi))


# ---------------------------------------------------------------------------
# polar-pair RK4 integration
# ---------------------------------------------------------------------------
# One branch of the pair: density omega = R^2 and phase S on the grid.
#   d(omega)/dt = -d/dq [ g (dS/dq - A) omega ]        (diffusion eliminated)
#   d(S)/dt     = -( g (dS/dq - A)^2 / 2 + V + QP )
#   QP          = -(lam^2/2) (g d2R + dg dR) / R,  R = sqrt(omega)
# Interior stencils shadow lattice.gradient_uniform /
# second_derivative_uniform exactly.
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


def _wall_trig_np(x):
    x = x - _TWO_PI * np.rint(x * _INV_TWO_PI)
    c_sign = 1.0
    if x > _HALF_PI:
        x = _PI - x
        c_sign = -1.0
    elif x < -_HALF_PI:
        x = -_PI - x
        c_sign = -1.0
    x2 = x * x
    s = x * (1.0 + x2 * (_S3 + x2 * (_S5 + x2 * (_S7 + x2 * (_S9 + x2 * (
        _S11 + x2 * (_S13 + x2 * (_S15 + x2 * (_S17 + x2 * (
            _S19 + x2 * _S21))))))))))
    c = 1.0 + x2 * (_C2 + x2 * (_C4 + x2 * (_C6 + x2 * (_C8 + x2 * (
        _C10 + x2 * (_C12 + x2 * (_C14 + x2 * (_C16 + x2 * (
            _C18 + x2 * (_C20 + x2 * _C22))))))))))
    return s, c_sign * c


@njit(cache=True)
def _wall_trig_nb(x):
    x = x - _TWO_PI * np.rint(x * _INV_TWO_PI)
    c_sign = 1.0
    if x > _HALF_PI:
        x = _PI - x
        c_sign = -1.0
    elif x < -_HALF_PI:
        x = -_PI - x
        c_sign = -1.0
    x2 = x * x
    s = x * (1.0 + x2 * (_S3 + x2 * (_S5 + x2 * (_S7 + x2 * (_S9 + x2 * (
        _S11 + x2 * (_S13 + x2 * (_S15 + x2 * (_S17 + x2 * (
            _S19 + x2 * _S21))))))))))
    c = 1.0 + x2 * (_C2 + x2 * (_C4 + x2 * (_C6 + x2 * (_C8 + x2 * (
        _C10 + x2 * (_C12 + x2 * (_C14 + x2 * (_C16 + x2 * (
            _C18 + x2 * (_C20 + x2 * _C22))))))))))
    return s, c_sign * c


def _madelung_rhs_np(om, S, g, dg, A, V, dq, lam, lam2half):
    dS = gradient_uniform(S, dq)
    flux = g * (dS - A) * om
    dom = -gradient_uniform(flux, dq)
    # advection of a steep tail can undershoot to machine-negligible
    # negatives; floor the amplitude so the phase term stays finite
    R = np.sqrt(np.maximum(om, _OM_FLOOR))
    d1R = gradient_uniform(R, dq)
    d2R = second_derivative_uniform(R, dq)
    dp = dS - A
    qp = -lam2half * (g * d2R + dg * d1R) / R
    dSdt = -(0.5 * g * dp * dp + V + qp)
    # exact polar wall rows (midpoint gauge link), see comment above
    h2 = dq * dq
    thL = (S[1] - S[0] - dq * 0.5 * (A[0] + A[1])) / lam
    snL, csL = _wall_trig_np(thL)
    dom[0] = -(g[0] * lam / h2) * R[0] * R[1] * snL
    dSdt[0] = (g[0] * lam2half / h2) * ((R[1] / R[0]) * csL - 2.0) - V[0]
    thR = (S[-1] - S[-2] - dq * 0.5 * (A[-2] + A[-1])) / lam
    snR, csR = _wall_trig_np(thR)
    dom[-1] = (g[-1] * lam / h2) * R[-2] * R[-1] * snR
    dSdt[-1] = (g[-1] * lam2half / h2) * ((R[-2] / R[-1]) * csR - 2.0) - V[-1]
    return dom, dSdt


def _madelung_window_np(om, S, g, dg, A, V, dq, dt, n_steps, lam, lam2half):
    half = 0.5 * dt
    sixth = dt / 6.0
    for _ in range(n_steps):
        k1o, k1s = _madelung_rhs_np(om, S, g, dg, A, V, dq, lam, lam2half)
        k2o, k2s = _madelung_rhs_np(om + half * k1o, S + half * k1s,
                                    g, dg, A, V, dq, lam, lam2half)
        k3o, k3s = _madelung_rhs_np(om + half * k2o, S + half * k2s,
                                    g, dg, A, V, dq, lam, lam2half)
        k4o, k4s = _madelung_rhs_np(om + dt * k3o, S + dt * k3s,
                                    g, dg, A, V, dq, lam, lam2half)
        om += sixth * (k1o + 2.0 * k2o + 2.0 * k3o + k4o)
        S += sixth * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)


@njit(cache=True)
def _grad_nb(f, h, out):
    n = f.shape[0]
    for i in range(1, n - 1):
        out[i] = (f[i + 1] - f[i - 1]) / (2.0 * h)
    out[0] = (-3.0 * (f[0] - f[1]) + (f[1] - f[2])) / (2.0 * h)
    out[n - 1] = (3.0 * (f[n - 1] - f[n - 2]) - (f[n - 2] - f[n - 3])) / (2.0 * h)


@njit(cache=True)
def _d2_nb(f, h, out):
    n = f.shape[0]
    h2 = h * h
    for i in range(1, n - 1):
        out[i] = (f[i + 1] - 2.0 * f[i] + f[i - 1]) / h2
    out[0] = (2.0 * (f[0] - f[1]) - 3.0 * (f[1] - f[2]) + (f[2] - f[3])) / h2
    out[n - 1] = (2.0 * (f[n - 1] - f[n - 2]) - 3.0 * (f[n - 2] - f[n - 3])
                  + (f[n - 3] - f[n - 4])) / h2


@njit(cache=True)
def _madelung_rhs_nb(om, S, g, dg, A, V, dq, lam, lam2half, dom, dSdt):
    n = om.shape[0]
    dS = np.empty(n)
    _grad_nb(S, dq, dS)
    flux = np.empty(n)
    for i in range(n):
        flux[i] = g[i] * (dS[i] - A[i]) * om[i]
    _grad_nb(flux, dq, dom)
    for i in range(n):
        dom[i] = -dom[i]
    R = np.empty(n)
    for i in range(n):
        omi = om[i]
        if omi < _OM_FLOOR:
            omi = _OM_FLOOR
        R[i] = np.sqrt(omi)
    d1R = np.empty(n)
    _grad_nb(R, dq, d1R)
    d2R = np.empty(n)
    _d2_nb(R, dq, d2R)
    for i in range(n):
        dp = dS[i] - A[i]
        qp = -lam2half * (g[i] * d2R[i] + dg[i] * d1R[i]) / R[i]
        dSdt[i] = -(0.5 * g[i] * dp * dp + V[i] + qp)
    h2 = dq * dq
    thL = (S[1] - S[0] - dq * 0.5 * (A[0] + A[1])) / lam
    snL, csL = _wall_trig_nb(thL)
    dom[0] = -(g[0] * lam / h2) * R[0] * R[1] * snL
    dSdt[0] = (g[0] * lam2half / h2) * ((R[1] / R[0]) * csL - 2.0) - V[0]
    thR = (S[n - 1] - S[n - 2] - dq * 0.5 * (A[n - 2] + A[n - 1])) / lam
    snR, csR = _wall_trig_nb(thR)
    dom[n - 1] = (g[n - 1] * lam / h2) * R[n - 2] * R[n - 1] * snR
    dSdt[n - 1] = (g[n - 1] * lam2half / h2) * ((R[n - 2] / R[n - 1]) * csR - 2.0) - V[n - 1]


@njit(cache=True)
def _madelung_window_nb(om, S, g, dg, A, V, dq, dt, n_steps, lam, lam2half):
    n = om.shape[0]
    half = 0.5 * dt
    sixth = dt / 6.0
    k1o = np.empty(n)
    k1s = np.empty(n)
    k2o = np.empty(n)
    k2s = np.empty(n)
    k3o = np.empty(n)
    k3s = np.empty(n)
    k4o = np.empty(n)
    k4s = np.empty(n)
    om2 = np.empty(n)
    S2 = np.empty(n)
    for _k in range(n_steps):
        _madelung_rhs_nb(om, S, g, dg, A, V, dq, lam, lam2half, k1o, k1s)
        for i in range(n):
            om2[i] = om[i] + half * k1o[i]
            S2[i] = S[i] + half * k1s[i]
        _madelung_rhs_nb(om2, S2, g, dg, A, V, dq, lam, lam2half, k2o, k2s)
        for i in range(n):
            om2[i] = om[i] + half * k2o[i]
            S2[i] = S[i] + half * k2s[i]
        _madelung_rhs_nb(om2, S2, g, dg, A, V, dq, lam, lam2half, k3o, k3s)
        for i in range(n):
            om2[i] = om[i] + dt * k3o[i]
            S2[i] = S[i] + dt * k3s[i]
        _madelung_rhs_nb(om2, S2, g, dg, A, V, dq, lam, lam2half, k4o, k4s)
        for i in range(n):
            om[i] = om[i] + sixth * (k1o[i] + 2.0 * k2o[i] + 2.0 * k3o[i] + k4o[i])
            S[i] = S[i] + sixth * (k1s[i] + 2.0 * k2s[i] + 2.0 * k3s[i] + k4s[i])


def run_madelung_window(om, S, g, dg, A, V, dq, dt, n_steps, lam_abs,
                        backend: str | None = None):
    """Advance one (omega, S) branch in place by n_steps RK4 steps."""
    lam2half = 0.5 * lam_abs * lam_abs
    if _resolve(backend) == "numba":
        _madelung_window_nb(om, S, g, dg, A, V, np.float64(dq), np.float64(dt),
                            np.int64(n_steps), np.float64(lam_abs),
                            np.float64(lam2half))
    else:
        _madelung_window_np(om, S, g, dg, A, V, float(dq), float(dt),
                            int(n_steps), float(lam_abs), float(lam2half))
