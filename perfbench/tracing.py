"""Span and counter tracing of stochaction's layer boundaries, applied from
outside the program.

`Tracer` replaces each probed public function with a wrapper in every
`stochaction` module that binds the function's name (the defining module
and every module that imported it), and restores the originals on exit.
A wrapper records one span (name, start, end, parent) per call, counts the
work the call's arguments describe, and counts calls that raise.  Spans
stay in memory; `layer_metrics` turns them into per-layer metrics.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at top level


# Counters take the call's bound arguments (defaults applied) and the
# tracer.  `before` runs ahead of the call and may replace an argument by
# an equal one; `after` runs once the call has returned.

def _csv_before(a, tr):
    a["rows"] = list(a["rows"])  # a generator could be counted only once
    tr.counts["csv_rows"] += len(a["rows"])


def _csv_after(a, tr):
    tr.counts["csv_bytes"] += os.path.getsize(a["path"])


def _cn_before(a, tr):
    tr.counts["cn_steps"] += a["steps"]


def _eig_before(a, tr):
    op = a["H"]
    tr.operators[id(op)] = op  # held, so that ids stay distinct


def _pair_before(a, tr):
    tr.counts["pair_steps"] += a["steps"]


def _rk4_before(a, tr):
    tr.counts["rk4_rhs"] += 4 * a["n_steps"]


def _ens_before(a, tr):
    n_sub = int(a["n_sub"])
    tr.counts["particle_steps"] += a["qs"].shape[0] * n_sub
    # particles frozen on entry are still stepped, and the result discarded
    tr.counts["frozen_steps"] += int(np.count_nonzero(a["frozen"])) * n_sub


def _rng_before(a, tr):
    tr.counts["rng_draws"] += np.asarray(a["pids"]).size


def _lambda_before(a, tr):
    tr.counts["samples"] += 1 if a["n"] is None else int(a["n"])


def _deviation_before(a, tr):
    n = a["n"] if a["n"] is not None else np.asarray(a["lam"]).size
    tr.counts["samples"] += int(n)


@dataclass(frozen=True)
class Probe:
    module: str
    function: str
    span: str
    before: object = None
    after: object = None


PROBES = (
    Probe("harness", "run_command", "harness.run"),
    Probe("harness", "write_csv", "harness.csv", _csv_before, _csv_after),
    Probe("hamiltonian", "build_quantum_hamiltonian", "hamiltonian.build"),
    Probe("hamiltonian", "build_naive_ordering", "hamiltonian.build"),
    Probe("evolution", "propagate_crank_nicolson", "evolution.cn", _cn_before),
    Probe("evolution", "propagate_eigen_oracle", "evolution.eig", _eig_before),
    Probe("evolution", "spectral_filter", "evolution.eig", _eig_before),
    Probe("evolution", "ground_state", "evolution.eig", _eig_before),
    Probe("evolution", "eigenpairs", "evolution.eig", _eig_before),
    Probe("madelung", "step_coupled_pde", "madelung.step", _pair_before),
    Probe("kernels", "run_madelung_window", "kernels.rk4", _rk4_before),
    Probe("kernels", "run_ensemble_window", "kernels.ens", _ens_before),
    Probe("kernels", "counter_uniform", "kernels.rng", _rng_before),
    Probe("stochastic", "build_wave_frames", "stochastic.frames"),
    Probe("stochastic", "propagate_ensemble", "stochastic.ensemble"),
    Probe("stochastic", "sample_lambda", "stochastic.sample", _lambda_before),
    Probe("stochastic", "sample_action_deviation", "stochastic.sample",
          _deviation_before),
)

PACKAGE = "stochaction"
LAYERS = ("harness", "hamiltonian", "evolution", "madelung", "kernels",
          "stochastic")


class Tracer:
    """Context manager: probes installed on entry, originals restored on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.operators: dict = {}
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, probe: Probe, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            if probe.before is not None:
                probe.before(bound.arguments, self)
            index = len(self.spans)
            span = Span(probe.span, 0.0, 0.0,
                        self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*bound.args, **bound.kwargs)
            except BaseException:
                self.errors[probe.span] += 1
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if probe.after is not None:
                probe.after(bound.arguments, self)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for probe in PROBES:
            home = sys.modules[f"{PACKAGE}.{probe.module}"]
            original = getattr(home, probe.function)
            wrapper = self._wrap(probe, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def self_times(self) -> tuple[dict, Counter]:
        """Summed self time and call count per span name."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        totals: dict = {}
        calls: Counter = Counter()
        for span, inner in zip(self.spans, child):
            totals[span.name] = totals.get(span.name, 0.0) + (
                span.end - span.start - inner)
            calls[span.name] += 1
        return totals, calls


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, wall: float) -> dict:
    """Per-layer metrics of one traced workload run of `wall` seconds.

    Ratios whose base is zero (no such work in this workload) read 0.
    """
    s, c = tr.self_times()
    s = {name: s.get(name, 0.0) for name in {p.span for p in PROBES}}
    k = tr.counts
    m = {
        "harness.run_self_s": s["harness.run"],
        "harness.csv_calls": c["harness.csv"],
        "harness.csv_rows": k["csv_rows"],
        "harness.csv_bytes": k["csv_bytes"],
        "harness.csv_self_s": s["harness.csv"],
        "hamiltonian.build_calls": c["hamiltonian.build"],
        "hamiltonian.build_self_s": s["hamiltonian.build"],
        "evolution.cn_calls": c["evolution.cn"],
        "evolution.cn_steps": k["cn_steps"],
        "evolution.cn_self_s": s["evolution.cn"],
        "evolution.cn_us_per_step": 1e6 * _ratio(s["evolution.cn"], k["cn_steps"]),
        "evolution.factorizations_per_step": _ratio(c["evolution.cn"], k["cn_steps"]),
        "evolution.eig_calls": c["evolution.eig"],
        "evolution.eig_self_s": s["evolution.eig"],
        "evolution.eig_per_operator": _ratio(c["evolution.eig"], len(tr.operators)),
        "madelung.step_calls": c["madelung.step"],
        "madelung.pair_steps": k["pair_steps"],
        "madelung.rhs_evals": 8 * k["pair_steps"],
        "madelung.step_self_s": s["madelung.step"],
        "kernels.rk4_calls": c["kernels.rk4"],
        "kernels.rk4_self_s": s["kernels.rk4"],
        "kernels.rk4_us_per_rhs": 1e6 * _ratio(s["kernels.rk4"], k["rk4_rhs"]),
        "kernels.ens_calls": c["kernels.ens"],
        "kernels.particle_steps": k["particle_steps"],
        "kernels.ens_self_s": s["kernels.ens"],
        "kernels.ns_per_particle_step": 1e9 * _ratio(s["kernels.ens"],
                                                     k["particle_steps"]),
        "kernels.rng_draws": k["rng_draws"],
        "kernels.rng_self_s": s["kernels.rng"],
        "stochastic.frames_self_s": s["stochastic.frames"],
        "stochastic.ensemble_self_s": s["stochastic.ensemble"],
        "stochastic.frozen_fraction": _ratio(k["frozen_steps"], k["particle_steps"]),
        "stochastic.samples": k["samples"],
        "stochastic.sample_self_s": s["stochastic.sample"],
        "trace.coverage": _ratio(sum(s.values()), wall),
        # shares of the traced wall time held by the layers each workload
        # was designed to stress
        "trace.share_polar": _ratio(s["madelung.step"] + s["kernels.rk4"], wall),
        "trace.share_ensemble": _ratio(s["kernels.ens"], wall),
        "trace.share_evolution": _ratio(s["evolution.cn"] + s["evolution.eig"], wall),
        "trace.share_sampling": _ratio(s["stochastic.sample"] + s["kernels.rng"], wall),
    }
    for layer in LAYERS:
        m[f"{layer}.errors"] = sum(n for name, n in tr.errors.items()
                                   if name.startswith(layer + "."))
    return m
