"""Layer cost as a function of problem size, timed through public calls.

Each sweep point is the median over REPEATS timings and is reported only
as a per-layer metric of the traced run.
"""
from __future__ import annotations

import statistics
import time

from stochaction import kernels, madelung, stochastic
from stochaction.evolution import (coherent_state, gaussian_packet,
                                   propagate_crank_nicolson,
                                   propagate_eigen_oracle)
from stochaction.hamiltonian import build_quantum_hamiltonian, make_system
from stochaction.lattice import build_grid

REPEATS = 3
PAIR_STEPS = 200
PARTICLE_STEPS = 5_000_000


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _harmonic(n: int):
    grid = build_grid(n, -10.0, 10.0)
    H = build_quantum_hamiltonian(make_system("harmonic"), grid, 1.0)
    return H, coherent_state(grid, center=0.5)


def crank_nicolson() -> dict:
    """Per-step and per-call costs from steps=1 against steps=k.

    The per-call cost (`cn_factor_ms`) is the LU factorization plus the
    dense operator set-up that precedes it.
    """
    out = {}
    for n, k in ((320, 41), (768, 21), (2048, 11)):
        H, psi = _harmonic(n)
        steps, calls = [], []
        for _ in range(REPEATS):
            t1 = _timed(lambda: propagate_crank_nicolson(psi, H, 1e-3, 1))
            tk = _timed(lambda: propagate_crank_nicolson(psi, H, 1e-3, k))
            step = (tk - t1) / (k - 1)
            steps.append(step)
            calls.append(t1 - step)
        out[f"evolution.cn_step_us.n{n}"] = 1e6 * statistics.median(steps)
        out[f"evolution.cn_factor_ms.n{n}"] = 1e3 * statistics.median(calls)
    return out


def eigen_oracle() -> dict:
    out = {}
    for n in (320, 768):
        H, psi = _harmonic(n)
        out[f"evolution.oracle_ms.n{n}"] = 1e3 * statistics.median(
            _timed(lambda: propagate_eigen_oracle(psi, H, 0.5))
            for _ in range(REPEATS))
    return out


def polar_pair() -> dict:
    """Microseconds per co-evolved pair step (8 RHS evaluations)."""
    out = {}
    spec = make_system("free")
    for n in (96, 384, 768):
        grid = build_grid(n, -4.5, 4.5)
        pair = madelung.pair_from_wave(
            gaussian_packet(grid, sigma=1.0, momentum=0.2))
        dt = 0.9 * madelung.default_timestep(grid, spec, 1.0)
        out[f"madelung.pair_step_us.n{n}"] = 1e6 / PAIR_STEPS * statistics.median(
            _timed(lambda: madelung.step_coupled_pde(pair, spec, dt, PAIR_STEPS))
            for _ in range(REPEATS))
    return out


def ensemble() -> dict:
    """Nanoseconds per particle micro-step of the ensemble kernel, on the
    guidance fields of the tau_sweep scenario's first window."""
    spec = make_system("harmonic", omega=4.0)
    grid = build_grid(256, -2.1, 2.1)
    state = coherent_state(grid, omega=4.0, center=0.3)
    H = build_quantum_hamiltonian(spec, grid, 1.0)
    frames = stochastic.build_wave_frames(state, H, spec, 1e-2, 1e-2, 1e-3)
    out = {}
    for n, label in ((10_000, "N1e4"), (100_000, "N1e5")):
        ens = stochastic.init_ensemble(state, n, 1e-4, seed=1)
        n_sub = PARTICLE_STEPS // n
        times = []
        for _ in range(REPEATS):
            qs = ens.positions.copy()
            lams = ens.lambdas.copy()
            logws = ens.log_weights.copy()
            frozen = ens.frozen.copy()
            times.append(_timed(lambda: kernels.run_ensemble_window(
                qs, lams, logws, frozen, frames.vb[0], frames.osm[0],
                frames.theta[0], grid.q_min, grid.dq, 1e-4, n_sub, 0, 1,
                kernels.SRC_BINARY, 1.0, 0.0, grid.q_min + grid.dq,
                grid.q_max - grid.dq)))
        out[f"kernels.ns_per_particle_step.{label}"] = (
            1e9 * statistics.median(times) / (n * n_sub))
    return out


def run_all() -> dict:
    out = {}
    for sweep in (crank_nicolson, eigen_oracle, polar_pair, ensemble):
        out.update(sweep())
    return out
