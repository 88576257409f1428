"""Pinned scenario configs for the benchmark workloads.

Every scenario lists its full config: each key the scenario registry
(`stochaction.harness.SCENARIOS`) held for it when the workload was
defined, followed by the few keys the workload overrides.  A later change
to a registry default therefore does not change what the benchmark runs;
it shows up instead in the `defaults_drift` field of each run record, and
adopting it means editing this file, which labels it as a workload change.

The benchmark's `--seed` argument becomes `run.seed`; it reaches the
sample and equivariance scenarios, the only ones that draw random numbers.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Scenario:
    command: str
    scenario: str
    pinned: dict                 # registry config at definition time
    overrides: dict = field(default_factory=dict)

    def config(self, seed: int) -> dict:
        cfg = dict(self.pinned)
        cfg.update(self.overrides)
        cfg["run.scenario"] = self.scenario
        cfg["run.seed"] = seed
        return cfg

    def defaults_drift(self, registry: dict) -> dict:
        """Keys where the program's current registry default differs from
        the pinned value, as {key: [pinned, current]}."""
        current = registry.get(self.command, {}).get(self.scenario, {})
        keys = sorted(set(current) | set(self.pinned))
        return {k: [_jsonable(self.pinned.get(k)), _jsonable(current.get(k))]
                for k in keys if self.pinned.get(k) != current.get(k)}


def _jsonable(value):
    return list(value) if isinstance(value, tuple) else value


_FREE_GAUSSIAN = {
    "system.preset": "free", "system.m": 1.0,
    "grid.n": 768, "grid.q_min": -4.5, "grid.q_max": 4.5,
    "state.kind": "gaussian", "state.sigma": 1.0, "state.center": 0.0,
    "state.momentum": 0.2, "state.ecut": 12.0, "source.hbar": 1.0,
    "time.dt": 1.25e-5, "time.T": 0.5,
}
_CLASSICAL_LIMIT = {
    "system.preset": "harmonic", "system.m": 1.0, "system.omega": 1.0,
    "grid.n": 96, "grid.q_min": -0.35, "grid.q_max": 0.35,
    "state.kind": "coherent", "state.center": 0.0, "state.momentum": 0.05,
    "state.ecut": 0.04, "source.hbar": 0.01,
    "time.dt": 2.5e-4, "time.T": 1.0,
}
_PROPAGATOR_QUALITY = {
    "system.preset": "harmonic", "system.m": 1.0, "system.omega": 1.0,
    "grid.n": 512, "grid.q_min": -10.0, "grid.q_max": 10.0,
    "state.kind": "coherent", "state.center": 0.5, "state.momentum": 0.0,
    "source.hbar": 1.0, "time.dt": 1e-3, "time.T": 1.0,
}
_ORDERING_CONTRAST = {
    "system.preset": "variable_mass", "system.m": 1.0, "system.omega": 1.0,
    "system.beta": 0.3,
    "grid.n": 256, "grid.q_min": -8.0, "grid.q_max": 8.0, "source.hbar": 1.0,
}
_HARMONIC_SPECTRUM = {
    "system.preset": "harmonic", "system.m": 1.0, "system.omega": 1.0,
    "grid.n": 512, "grid.q_min": -10.0, "grid.q_max": 10.0, "source.hbar": 1.0,
}
_TAU_SWEEP = {
    "system.preset": "harmonic", "system.m": 1.0, "system.omega": 4.0,
    "grid.n": 256, "grid.q_min": -2.1, "grid.q_max": 2.1,
    "state.kind": "coherent", "state.center": 0.3, "state.momentum": 0.0,
    "source.kind": "binary", "source.hbar": 1.0,
    "time.T": 1.0, "time.dt_window": 1e-2, "time.dt": 1e-3,
    "time.tau_sweep": (1e-2, 1e-3, 1e-4),
    "ensemble.size": 100000, "ensemble.bins": 50,
    "ensemble.disable_lambda": False, "run.snapshots": 5,
}
_SAMPLE = {
    "exponential_law": {
        "source.kind": "binary", "source.hbar": 1.0,
        "source.lam_sweep": (0.5, 1.0, 2.0), "ensemble.size": 1000000,
        "ensemble.bins": 60},
    "binary_source": {
        "source.kind": "binary", "source.hbar": 1.0, "ensemble.size": 1000000,
        "ensemble.bins": 60},
    "sphere_source": {
        "source.kind": "sphere", "source.hbar": 1.0, "ensemble.size": 1000000,
        "ensemble.bins": 60},
    "smeared_source": {
        "source.kind": "smeared", "source.hbar": 1.0, "source.width": 0.2,
        "ensemble.size": 1000000, "ensemble.bins": 60},
    "concentration": {
        "source.kind": "binary", "source.hbar": 1.0,
        "source.lam_sweep": (0.1, 0.05), "ensemble.size": 1000000,
        "ensemble.bins": 60},
}

# Why each workload exists is recorded in BENCHMARK.json; the comments
# here say why each override has the value it has.
WORKLOADS = {
    "polar_chain": (
        # 8000 polar-pair RK4 steps at n=768, where array work dominates
        Scenario("evolve", "free_gaussian", _FREE_GAUSSIAN, {"time.T": 0.1}),
        # unchanged: n=96, where per-call overhead dominates
        Scenario("evolve", "classical_limit", _CLASSICAL_LIMIT),
    ),
    "ensemble_sweep": (
        # 20 windows.  The middle member tau_Q = 1e-3 is left out: over
        # this horizon its total-variation distance differs from the
        # finest member's by less than the N = 1e5 sampling noise, so the
        # monotonicity check would pass or fail with the seed
        Scenario("equivariance", "tau_sweep", _TAU_SWEEP,
                 {"time.T": 0.2, "time.tau_sweep": (1e-2, 1e-4)}),
    ),
    "wave_cn": (
        # SPECTRAL_MAX_N: dense n x n Crank-Nicolson and eigen oracle
        Scenario("evolve", "propagator_quality", _PROPAGATOR_QUALITY,
                 {"grid.n": 1024}),
        Scenario("orderings", "ordering_contrast", _ORDERING_CONTRAST),
        Scenario("orderings", "harmonic_spectrum", _HARMONIC_SPECTRUM),
    ),
    "sampling": tuple(
        # bulk counter-RNG draws: 10x the registry size
        Scenario("sample", name, cfg, {"ensemble.size": 10_000_000})
        for name, cfg in _SAMPLE.items()),
}
