"""Scenario runner: config parsing, seeded deterministic runs, CSV output
with a machine-readable manifest, and pass/fail checks per scenario.

Config files are line-oriented `section.key = value`, each key set once.
The scenario registry is the config contract (resolve_config): a command
takes the run keys, its scenarios' keys, its preset's parameters and its
state kind's parameters, each of its defaults' type; a state kind's
parameters must be set, and any other config is refused before a file is
written.  The run refuses a step that does not divide its horizon, a node,
the polar step limit and the source law, and leaves an error manifest.
Every run writes manifest.json (status "running") before any data file
and finalizes it afterwards, so interrupted runs are detectable.
CSV files carry `#` metadata lines (units, seed, version) and are
byte-identical across re-runs with the same config and seed.
"""
from __future__ import annotations

import json
import numbers
import operator
import os
import time as _time
from dataclasses import dataclass, field, replace
from itertools import repeat

import numpy as np

from . import classical, madelung, stochastic
from ._version import __version__
from .errors import ConfigurationError, StochactionError
from .evolution import (WaveState, coherent_state, eigenpairs, gaussian_packet,
                        ground_state, l2_distance, norm_squared,
                        propagate_crank_nicolson, propagate_eigen_oracle,
                        spectral_filter, wave_phase)
from .hamiltonian import (PRESET_PARAMS, build_naive_ordering,
                          build_quantum_hamiltonian, hermiticity_defect,
                          make_system, symmetrized)
from .kernels import sample_stats
from .lattice import GridSpec, build_grid, gradient, integrate, whole_steps

OUTPUT_ENV = "STOCHACTION_OUT"
DEFAULT_SEED = 1234

# ---------------------------------------------------------------------------
# configuration


# smallest admissible value of the keys that have one
KEY_MIN = {
    "run.seed": 0,
    "run.snapshots": 2,
    "ensemble.size": 1,
    "ensemble.bins": 2,
}


_BOOL_WORDS = {"true": True, "1": True, "yes": True,
               "false": False, "0": False, "no": False}


def _parse_value(key: str, raw: str):
    kind = KEY_TYPES[key]
    try:
        if kind is tuple:
            return tuple(float(tok) for tok in raw.split(",") if tok.strip())
        if kind is bool:
            return _BOOL_WORDS[raw.lower()]
        return kind(raw)
    except (KeyError, ValueError):
        raise ConfigurationError(
            f"config key {key!r}: cannot parse {raw!r} as {kind.__name__}")


def _is_a(value, kind) -> bool:
    # bool is an int: it counts only where a bool is asked for.  A float
    # key takes any real number, an int key only an integer
    if isinstance(value, (bool, np.bool_)):
        return kind is bool
    if kind is float:
        return isinstance(value, numbers.Real)
    if kind is int:
        return isinstance(value, numbers.Integral)
    return isinstance(value, kind)


def _typed(key: str, value):
    """`value` as the type KEY_TYPES gives `key`; ConfigurationError if it
    is not one."""
    kind = KEY_TYPES[key]
    if kind is tuple:
        if (isinstance(value, (tuple, list)) and value
                and all(_is_a(v, float) for v in value)):
            return tuple(map(float, value))
    elif _is_a(value, kind):
        return kind(value)
    raise ConfigurationError(
        f"config key {key!r}: expected {kind.__name__}, got {value!r}")


def parse_config(path: str) -> dict:
    """Read a `section.key = value` file; an unknown key, or one set twice,
    is an error."""
    cfg, lines_of = {}, {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path!r}: {exc}")
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigurationError(
                f"{path}:{lineno}: expected 'section.key = value', got {line.rstrip()!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in KEY_TYPES:
            raise ConfigurationError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in lines_of:
            raise ConfigurationError(f"{path}:{lineno}: config key {key!r} "
                                     f"is already set on line {lines_of[key]}")
        lines_of[key] = lineno
        cfg[key] = _parse_value(key, raw)
    return cfg


# ---------------------------------------------------------------------------
# scenario registry — defaults pinned so `--scenario <id>` needs no config


def _scn(**kv):
    return {k.replace("__", "."): v for k, v in kv.items()}


SCENARIOS = {
    "evolve": {
        # chain equivalence on a drifting, spreading free packet
        "free_gaussian": _scn(
            system__preset="free", system__m=1.0,
            grid__n=768, grid__q_min=-4.5, grid__q_max=4.5,
            state__kind="gaussian", state__sigma=1.0, state__center=0.0,
            state__momentum=0.2, state__ecut=12.0, source__hbar=1.0,
            time__dt=1.25e-5, time__T=0.5),
        # chain equivalence on a rigidly oscillating coherent state
        "harmonic_coherent": _scn(
            system__preset="harmonic", system__m=1.0, system__omega=1.0,
            grid__n=640, grid__q_min=-3.0, grid__q_max=3.0,
            state__kind="coherent", state__center=0.5, state__momentum=0.0,
            state__ecut=12.0, source__hbar=1.0,
            time__dt=6.25e-6, time__T=0.5),
        # stationary ground state: both sides should sit still
        "harmonic_stationary": _scn(
            system__preset="harmonic", system__m=1.0, system__omega=1.0,
            grid__n=384, grid__q_min=-4.6, grid__q_max=4.6,
            state__kind="ground", source__hbar=1.0,
            time__dt=5e-5, time__T=0.5),
        # small action scale: packet center vs symplectic reference.  The
        # packet is a true coherent state (width sqrt(hbar/2)): any other
        # width breathes at this scale and sweeps the far tail below the
        # resolvable node floor.  The energy cut keeps the four lowest
        # modes, which carry all but ~7e-6 of the mass, and strips the
        # wall-straddling modes whose beats drive interference nodes
        # through the tail cells
        "classical_limit": _scn(
            system__preset="harmonic", system__m=1.0, system__omega=1.0,
            grid__n=96, grid__q_min=-0.35, grid__q_max=0.35,
            state__kind="coherent", state__center=0.0,
            state__momentum=0.05, state__ecut=0.04, source__hbar=0.01,
            time__dt=2.5e-4, time__T=1.0),
        # Crank-Nicolson drift and distance to the eigen oracle
        "propagator_quality": _scn(
            system__preset="harmonic", system__m=1.0, system__omega=1.0,
            grid__n=512, grid__q_min=-10.0, grid__q_max=10.0,
            state__kind="coherent", state__center=0.5, state__momentum=0.0,
            state__ecut=0.0, source__hbar=1.0, time__dt=1e-3, time__T=1.0),
    },
    "sample": {
        "exponential_law": _scn(
            source__lam_sweep=(0.5, 1.0, 2.0), ensemble__size=1000000,
            ensemble__bins=60),
        "binary_source": _scn(
            source__kind="binary", source__hbar=1.0, source__width=0.0,
            ensemble__size=1000000, ensemble__bins=60),
        "sphere_source": _scn(
            source__kind="sphere", source__hbar=1.0, source__width=0.0,
            ensemble__size=1000000, ensemble__bins=60),
        "smeared_source": _scn(
            source__kind="smeared", source__hbar=1.0, source__width=0.2,
            ensemble__size=1000000, ensemble__bins=60),
        "concentration": _scn(
            source__lam_sweep=(0.1, 0.05), ensemble__size=1000000),
    },
    "equivariance": {
        # lambda disabled: pure guidance-velocity transport.  Walls sit
        # close enough that the swinging packet's far tail stays well above
        # the node floor at every window boundary, and the energy cut strips
        # the wall-truncation contaminants whose grid-scale phase wiggles
        # would otherwise scramble the guidance field
        "bohmian": _scn(
            system__preset="harmonic", system__m=1.0, system__omega=1.0,
            grid__n=320, grid__q_min=-3.2, grid__q_max=3.2,
            state__kind="coherent", state__center=0.8, state__momentum=0.0,
            state__ecut=8.5,
            source__kind="binary", source__hbar=1.0, source__width=0.0,
            time__T=1.0, time__dt_window=1e-2, time__dt=1e-3, time__tau_Q=1e-3,
            ensemble__size=100000, ensemble__bins=50,
            ensemble__disable_lambda=True, run__snapshots=5),
        # full model, micro-timescale convergence sweep
        "tau_sweep": _scn(
            system__preset="harmonic", system__m=1.0, system__omega=4.0,
            grid__n=256, grid__q_min=-2.1, grid__q_max=2.1,
            state__kind="coherent", state__center=0.3, state__momentum=0.0,
            state__ecut=0.0,
            source__kind="binary", source__hbar=1.0, source__width=0.0,
            time__T=1.0, time__dt_window=1e-2, time__dt=1e-3,
            time__tau_sweep=(1e-2, 1e-3, 1e-4),
            ensemble__size=100000, ensemble__bins=50,
            ensemble__disable_lambda=False, run__snapshots=5),
    },
    "orderings": {
        "ordering_contrast": _scn(
            system__preset="variable_mass", system__m=1.0, system__omega=1.0,
            system__beta=0.3,
            grid__n=256, grid__q_min=-8.0, grid__q_max=8.0, source__hbar=1.0),
        "harmonic_spectrum": _scn(
            system__preset="harmonic", system__m=1.0, system__omega=1.0,
            grid__n=512, grid__q_min=-10.0, grid__q_max=10.0, source__hbar=1.0),
    },
}

COMMAND_DEFAULT = {
    "evolve": "free_gaussian",
    "sample": "exponential_law",
    "equivariance": "bohmian",
    "orderings": "ordering_contrast",
}


# each state.kind's parameters, which _build_state reads: a config that
# sets the kind must set them (they have no defaults); a coherent state also
# reads the harmonic preset's m and omega
STATE_PARAMS = {
    "gaussian": ("state.center", "state.sigma", "state.momentum", "state.ecut"),
    "coherent": ("state.center", "state.momentum", "state.ecut"),
    "ground": (),
}


# the preset each orderings scenario needs: ordering_contrast contrasts the
# orderings of a position-dependent mass, and harmonic_spectrum compares
# with hbar omega (k + 1/2)
SCENARIO_PRESET = {
    "ordering_contrast": "variable_mass",
    "harmonic_spectrum": "harmonic",
}


# a key's type is that of its registry or PRESET_PARAMS defaults (a tuple is
# a list of floats); the run keys, set by no registry entry, are typed here
_RUN_KEYS = {"run.scenario": str, "run.seed": int, "run.out": str}
KEY_TYPES = {**_RUN_KEYS, **{
    f"system.{name}": type(value) for params in PRESET_PARAMS.values()
    for name, value in params.items()}, **{
    key: type(value) for scenarios in SCENARIOS.values()
    for entry in scenarios.values() for key, value in entry.items()}}
# the keys each command takes: the run keys, those its scenarios set, with
# system.preset every preset parameter (_build_system refuses one the chosen
# preset does not take) and with state.kind every kind's parameters
_COMMAND_KEYS = {command: set(_RUN_KEYS).union(*scenarios.values())
                 for command, scenarios in SCENARIOS.items()}
for _keys in _COMMAND_KEYS.values():
    if "system.preset" in _keys:
        _keys.update(key for key in KEY_TYPES if key.startswith("system."))
    if "state.kind" in _keys:
        _keys.update(*STATE_PARAMS.values())


class _Config(dict):
    """A resolved config.  Every default sits in the scenario registry, so
    a key a run reads and the config lacks is an error that names it."""

    def __missing__(self, key):
        raise ConfigurationError(
            f"scenario {self.get('run.scenario')!r} reads config key "
            f"{key!r}, which it does not set")


def resolve_config(command: str, config: dict | None = None) -> dict:
    """Scenario defaults overlaid with the user config, which must keep the
    contract: each key is a run key, one some scenario of the command sets
    or a parameter of the chosen preset, with its type (KEY_TYPES) and
    minimum (KEY_MIN); the preset is the one SCENARIO_PRESET names, if any;
    the system and grid build; and state.kind is one _build_state makes,
    coherent only on the harmonic preset, with each of its STATE_PARAMS
    set.  A config that sets system.preset drops the registry's system.*
    keys that the new preset does not take; one the config sets is still
    refused.  Only the run refuses a step that does not divide its
    horizon, a node, the polar step limit and the source law."""
    if command not in SCENARIOS:
        raise ConfigurationError(f"unknown command {command!r}")
    for key in config or {}:
        if key not in _COMMAND_KEYS[command]:
            raise ConfigurationError(f"{command} takes no config key {key!r}")
    config = {key: _typed(key, value) for key, value in (config or {}).items()}
    scenario = config.get("run.scenario", COMMAND_DEFAULT[command])
    if scenario not in SCENARIOS[command]:
        raise ConfigurationError(
            f"unknown scenario {scenario!r} for command {command!r}; "
            f"expected one of {sorted(SCENARIOS[command])}")
    cfg = _Config(SCENARIOS[command][scenario])
    if "system.preset" in config:
        takes = PRESET_PARAMS.get(config["system.preset"], {})
        for key in [key for key in cfg if key.startswith("system.")
                    and key.partition(".")[2] not in takes]:
            del cfg[key]
    cfg.update(config)
    cfg["run.scenario"] = scenario
    cfg.setdefault("run.seed", DEFAULT_SEED)
    for key, least in KEY_MIN.items():
        if key in cfg and cfg[key] < least:
            raise ConfigurationError(f"{key} must be >= {least}, got {cfg[key]}")
    need = SCENARIO_PRESET.get(scenario)
    if need is not None and cfg["system.preset"] != need:
        raise ConfigurationError(
            f"{scenario} requires system.preset = {need}")
    if "system.preset" in cfg:
        _build_system(cfg)
    if "grid.n" in cfg:
        _build_grid(cfg)
    kind = cfg.get("state.kind")
    if kind is None:
        return cfg
    if kind not in STATE_PARAMS:
        raise ConfigurationError(
            f"unknown state.kind {kind!r}; expected gaussian, coherent, or ground")
    if kind == "coherent" and cfg["system.preset"] != "harmonic":
        raise ConfigurationError("state.kind = coherent requires the harmonic preset")
    unset = [key for key in STATE_PARAMS[kind] if key not in cfg]
    if unset:
        raise ConfigurationError(
            f"state.kind = {kind} reads config key "
            f"{', '.join(map(repr, unset))}, which scenario {scenario!r} "
            "does not set")
    return cfg


# ---------------------------------------------------------------------------
# output plumbing


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    tolerance: float
    relation: str  # a key of _RELATIONS
    passed: bool


_RELATIONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
              "==": operator.eq}


def _check(name, value, tolerance, relation="<"):
    value = float(value)
    return Check(name=name, value=value, tolerance=float(tolerance),
                 relation=relation, passed=_RELATIONS[relation](value, tolerance))


@dataclass
class CommandResult:
    command: str
    scenario: str
    out_dir: str
    checks: list = field(default_factory=list)
    files: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _fmt_row(row) -> str:
    # each cell as _fmt writes it, and a str cell as is; all-str rows (the
    # snapshot tables) and all-float rows (numpy's float64 is a float) are
    # joined in one pass at C level, with no Python call per value
    try:
        return ",".join(row)
    except TypeError:
        pass
    try:
        return ",".join(map(float.__repr__, row))
    except TypeError:
        return ",".join(map(_fmt, row))


def write_csv(path: str, meta: dict, header: list[str], rows) -> None:
    """`meta` as comment lines, the header, then one line per row of the
    iterable `rows`: each cell as _fmt writes it, a str cell as it is."""
    lines = [f"# {k} = {_fmt(v)}" for k, v in meta.items()]
    lines.append(",".join(header))
    lines.extend(map(_fmt_row, rows))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _resolve_out_dir(command: str, scenario: str, cfg: dict,
                     out_dir: str | None) -> str:
    if out_dir is None:
        out_dir = cfg.get("run.out")
    if out_dir is None:
        out_dir = os.environ.get(OUTPUT_ENV)
    if out_dir is None:
        out_dir = os.path.join("runs", f"{command}_{scenario}")
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


class _Out:
    """A run directory: its manifest, and every CSV under the run's
    metadata header; `files` lists the CSVs in the order they were written."""

    def __init__(self, path: str, cfg: dict, command: str):
        self.path = path
        self.meta = {
            "generator": f"stochaction {__version__}",
            "command": command,
            "scenario": cfg["run.scenario"],
            "seed": cfg["run.seed"],
            "units": "natural: action in units of source.hbar at hbar = 1, mass m, time t",
        }
        self.files = []

    def csv(self, name: str, header: list[str], rows) -> None:
        write_csv(os.path.join(self.path, name), self.meta, header, rows)
        self.files.append(name)

    def manifest(self, doc: dict) -> None:
        with open(os.path.join(self.path, "manifest.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(_finite_json(doc), fh, indent=2, sort_keys=True,
                      allow_nan=False)
            fh.write("\n")


def _finite_json(value):
    """value with each non-finite float written as the CSVs write it
    ("inf", "-inf", "nan"): JSON has no literal for one."""
    if isinstance(value, dict):
        return {k: _finite_json(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite_json(v) for v in value]
    if isinstance(value, float) and not np.isfinite(value):
        return _fmt(value)
    return value


# ---------------------------------------------------------------------------
# shared builders


def _system_params(cfg: dict) -> dict:
    """The system.preset preset's parameters: its PRESET_PARAMS defaults
    overlaid with the config's other system.* keys; a key that the preset
    does not take is refused."""
    preset = cfg["system.preset"]
    params = {key.partition(".")[2]: value for key, value in cfg.items()
              if key.startswith("system.") and key != "system.preset"}
    extra = sorted(set(params) - set(PRESET_PARAMS.get(preset, params)))
    if extra:
        raise ConfigurationError(
            f"system.preset = {preset} takes no "
            f"{', '.join('system.' + p for p in extra)}")
    return {**PRESET_PARAMS.get(preset, {}), **params}


def _build_system(cfg: dict):
    # make_system refuses an unknown preset
    return make_system(cfg["system.preset"], **_system_params(cfg))


def _build_grid(cfg: dict) -> GridSpec:
    return build_grid(cfg["grid.n"], cfg["grid.q_min"], cfg["grid.q_max"])


def _build_state(cfg: dict, grid: GridSpec, H) -> WaveState:
    kind = cfg["state.kind"]
    hbar = cfg["source.hbar"]
    if kind == "gaussian":
        state = gaussian_packet(grid, center=cfg["state.center"],
                                sigma=cfg["state.sigma"],
                                momentum=cfg["state.momentum"], hbar_eff=hbar)
    elif kind == "coherent":
        system = _system_params(cfg)
        state = coherent_state(grid, m=system["m"], omega=system["omega"],
                               center=cfg["state.center"],
                               momentum=cfg["state.momentum"], hbar_eff=hbar)
    else:  # ground: resolve_config refuses any other kind, and a kind
        # whose STATE_PARAMS the config does not set
        return ground_state(H)[1]
    # scenarios that feed the polar pair low-pass the analytic packet at
    # state.ecut > 0: the retained modes individually satisfy the walls, so
    # the tail carries no fast-beating content that the polar fields
    # cannot represent
    if cfg["state.ecut"] > 0.0:
        state = spectral_filter(state, H, cfg["state.ecut"])
    return state


def _build_source(cfg: dict) -> stochastic.LambdaSource:
    return stochastic.LambdaSource(kind=cfg["source.kind"],
                                   hbar=cfg["source.hbar"],
                                   width=cfg["source.width"])


def _wave_setup(cfg: dict):
    """(spec, grid, H, initial state) of a wave-layer scenario.  Whoever
    reads H's spectrum, the ground state, the spectral filter or the eigen
    oracle, solves H by index for the lowest modes it needs
    (``evolution``): for the registry's states 1 and 16 of n."""
    spec = _build_system(cfg)
    grid = _build_grid(cfg)
    H = build_quantum_hamiltonian(spec, grid, cfg["source.hbar"])
    return spec, grid, H, _build_state(cfg, grid, H)


# ---------------------------------------------------------------------------
# advance and record


def _steps(cfg: dict, key: str = "time.dt") -> int:
    """The number of steps of the config's `key` in time.T; the step must
    divide T, and 0 < step <= T < inf."""
    step, T = cfg[key], cfg["time.T"]
    if not 0.0 < step <= T < np.inf:
        raise ConfigurationError(
            f"need 0 < {key} <= time.T < inf, got {key} = {step}, time.T = {T}")
    return whole_steps(T, step, key, "time.T")


def _every(steps: int, k: int) -> list[int]:
    """k step counts evenly spaced over (0, steps], rounded to whole steps
    and ending at steps (fewer when steps < k)."""
    return sorted({int(round(steps * j / k)) for j in range(1, k + 1)} - {0})


def _march(state, advance, bounds, record):
    """Advance `state` through the increasing step counts `bounds` with
    advance(state, n_steps), calling record(state, bound) at each bound;
    returns the final state."""
    done = 0
    for b in bounds:
        if b > done:
            state = advance(state, b - done)
            done = b
        record(state, b)
    return state


def _polar_advance(spec, dt):
    return lambda m, n: madelung.step_coupled_pde(m, spec, dt, steps=n)


# ---------------------------------------------------------------------------
# evolve


def _snapshot_rows(q: list[str], snapshots):
    """The rows (t, q, *fields) of snapshots (t, *field arrays), one per grid
    point, with every cell already written as write_csv writes a float; q is
    the grid column's strings."""
    for t, *fields in snapshots:
        yield from zip(repeat(_fmt(t)), q,
                       *(map(float.__repr__, f.tolist()) for f in fields))


def _chain_snapshots(cfg, out):
    spec, grid, H, state0 = _wave_setup(cfg)
    dt = cfg["time.dt"]
    bounds = [0, *_every(_steps(cfg), 10)]
    refs = dict(zip(bounds, propagate_eigen_oracle(
        state0, H, [b * dt for b in bounds])))
    snaps, rows_chain = [], []

    def record(m, b):
        t = b * dt
        ref = refs[b]
        dens_ref = np.abs(ref.psi) ** 2
        l2 = l2_distance(m.R ** 2, dens_ref, grid)
        dS_polar = gradient(m.S, grid)
        dS_ref = gradient(wave_phase(ref), grid)
        # compare phase gradients only where the density is non-negligible:
        # in the deep tail the reference phase unwraps through near-zeros
        # and has no polar counterpart
        w = np.where(dens_ref >= 1e-6 * dens_ref.max(), dens_ref, 0.0)
        pg = float(np.sqrt(integrate((dS_polar - dS_ref) ** 2 * w, grid)))
        rows_chain.append((t, l2, pg))
        snaps.append((t, dens_ref, m.R, m.S))

    _march(madelung.to_polar(state0), _polar_advance(spec, dt), bounds, record)
    q = list(map(float.__repr__, grid.points().tolist()))
    out.csv("wave_density.csv", ["t", "q", "density"],
            _snapshot_rows(q, (s[:2] for s in snaps)))
    out.csv("madelung_pair.csv", ["t", "q", "R", "S"],
            _snapshot_rows(q, ((s[0], *s[2:]) for s in snaps)))
    out.csv("chain_equivalence.csv", ["t", "l2_density", "phase_grad_dist"],
            rows_chain)
    checks = [
        _check("chain_l2_density_max", max(r[1] for r in rows_chain), 1e-3),
        _check("chain_phase_grad_max", max(r[2] for r in rows_chain), 1e-2)]
    if cfg["state.kind"] == "ground":
        checks += _stationary_phase_checks(H, grid, snaps[0], snaps[-1])
    return checks


def _stationary_phase_checks(H, grid, first, last):
    """A stationary state's phase advances at -e0 at every point: the rate
    -(S(T) - S(0)) / T of the polar state over the support (density
    at least 1e-6 of its peak, as for the phase gradients), its
    density-weighted mean against ground_state's e0 on the same operator,
    and its spread.

    On harmonic_stationary the error is 1.9e-15 and the spread 4.6e-11
    (one BLAS thread, x86-64).  The bounds sit about 5e5 and 200 times
    above them, and four and three orders below e0 - hbar omega / 2 =
    1.8e-5, the discretization's own error: a rate that followed the
    continuum's energy, not the operator's, would fail.  A Gaussian 0.1% too wide,
    low-passed at energy 12, misses e0 by 1.3e-6 and spreads by 0.019."""
    t0, dens, _, S_first = first
    t1, _, _, S_last = last
    rate = -(S_last - S_first) / (t1 - t0)
    w = np.where(dens >= 1e-6 * dens.max(), dens, 0.0)
    mean = integrate(rate * w, grid) / integrate(w, grid)
    return [_check("stationary_phase_rate_err",
                   abs(mean - ground_state(H)[0]), 1e-9),
            _check("stationary_phase_rate_spread", np.ptp(rate[w > 0]), 1e-8)]


def _run_classical_limit(cfg, out):
    spec, grid, H, state0 = _wave_setup(cfg)
    dt = cfg["time.dt"]
    steps = _steps(cfg)
    path_ref = classical.integrate_path(
        classical.PhasePoint(q=cfg["state.center"], p=cfg["state.momentum"]),
        spec, dt, steps)
    rows = []
    pts = grid.points()

    def record(m, b):
        dens = m.R ** 2
        center = float(integrate(pts * dens, grid) / integrate(dens, grid))
        q_ref = float(path_ref.qs[b])
        rows.append((b * dt, center, q_ref, abs(center - q_ref)))

    _march(madelung.to_polar(state0), _polar_advance(spec, dt),
           [0, *_every(steps, 20)], record)
    out.csv("classical_track.csv", ["t", "center", "q_ref", "abs_error"], rows)
    return [_check("center_track_max_err", max(r[3] for r in rows), 1e-2)]


def _run_propagator_quality(cfg, out):
    spec, grid, H, state0 = _wave_setup(cfg)
    dt = cfg["time.dt"]
    bounds = _every(_steps(cfg), 10)
    refs = dict(zip(bounds, propagate_eigen_oracle(
        state0, H, [b * dt for b in bounds])))
    rows = []

    def record(cur, b):
        rows.append((b * dt, abs(norm_squared(cur) - 1.0),
                     l2_distance(cur.psi, refs[b].psi, grid)))

    _march(state0, lambda st, n: propagate_crank_nicolson(st, H, dt, n),
           bounds, record)
    out.csv("propagator_quality.csv", ["t", "norm_drift", "l2_to_oracle"], rows)
    return [
        _check("cn_norm_drift_max", max(r[1] for r in rows), 1e-10),
        _check("cn_l2_to_oracle", max(r[2] for r in rows), 1e-4),
    ]


# ---------------------------------------------------------------------------
# sample


def _hist_rows(tag, counts, edges, n):
    """(tag, bin center, density) rows of the histogram counts of n values
    on edges; values outside the edges count in n."""
    dens = counts / (n * np.diff(edges))
    centers = 0.5 * (edges[:-1] + edges[1:])
    return [(tag, c, d) for c, d in zip(centers, dens)]


def _run_source(cfg, out):
    n = cfg["ensemble.size"]
    source = _build_source(cfg)
    lo = -source.hbar - source.width * 2.0
    edges = np.linspace(lo, -lo, cfg["ensemble.bins"] + 1)
    lams = stochastic.sample_lambda(source, n, seed=cfg["run.seed"])
    stats = sample_stats(lams, edges=edges, center=source.hbar, std=True)
    mean = stats.mean
    se = float(stats.std / np.sqrt(n))
    # a sample whose every sign agrees has no spread but a mean of +-hbar,
    # an infinite bias that fails the check
    bias_sigma = abs(mean) / se if se > 0 else np.inf if mean else 0.0
    mag_err = stats.peak
    out.csv("lambda_stats.csv",
            ["kind", "n", "mean", "se", "sign_bias_sigma", "max_abs_minus_hbar"],
            [(source.kind, n, mean, se, bias_sigma, mag_err)])
    out.csv("lambda_hist.csv", ["kind", "bin_center", "density"],
            _hist_rows(source.kind, stats.counts, edges, n))
    checks = [_check("sign_bias_sigma", bias_sigma, 3.0, "<=")]
    if source.kind in ("binary", "sphere"):
        checks.append(_check("magnitude_exact", mag_err, 0.0, "=="))
    else:
        checks.append(_check("magnitude_within_support", mag_err,
                             source.jitter * (1 + 1e-12), "<="))
    return checks


def _deviation_stats(cfg, lam, step, **reduce):
    """sample_stats of the magnitudes of ensemble.size action deviations at
    lam, drawn at step; only the statistics outlive the call."""
    devs = stochastic.sample_action_deviation(lam, cfg["ensemble.size"],
                                              seed=cfg["run.seed"], step=step)
    return sample_stats(devs, magnitudes=True, **reduce)


def _run_exponential_law(cfg, out):
    n = cfg["ensemble.size"]
    bins = cfg["ensemble.bins"]
    checks, stat_rows, hist_rows = [], [], []
    for idx, lam in enumerate(cfg["source.lam_sweep"]):
        expected = abs(lam) / 2.0
        xbar = expected
        edges = np.linspace(0.0, 4.0 * expected, bins + 1)
        stats = _deviation_stats(cfg, lam, idx, edges=edges,
                                 thresholds=(xbar, 2.0 * xbar),
                                 sign=np.sign(lam), std=True)
        violations = stats.violations
        mean = stats.mean
        rel = abs(mean / expected - 1.0)
        se = float(stats.std / np.sqrt(n))
        p_tail1, p_tail2 = (count / n for count in stats.above)
        # with no magnitude above xbar the ratio is undefined, and its NaN
        # fails the check
        tail_ratio = p_tail2 / p_tail1 if p_tail1 > 0 else np.nan
        tail_rel = abs(tail_ratio * np.e - 1.0)
        stat_rows.append((lam, n, mean, expected, rel, se, violations,
                          tail_ratio, float(np.exp(-1.0)), tail_rel))
        hist_rows += _hist_rows(lam, stats.counts, edges, n)
        checks.append(_check(f"sign_violations_lam_{lam:g}", violations, 0, "=="))
        checks.append(_check(f"mean_rel_err_lam_{lam:g}", rel, 0.005, "<="))
        checks.append(_check(f"tail_ratio_rel_err_lam_{lam:g}", tail_rel, 0.02, "<="))
    out.csv("deviation_stats.csv",
            ["lam", "n", "mean", "mean_expected", "mean_rel_err", "se",
             "sign_violations", "tail_ratio", "tail_expected",
             "tail_rel_err"], stat_rows)
    out.csv("deviation_hist.csv", ["lam", "bin_center", "density"], hist_rows)
    return checks


def _run_concentration(cfg, out):
    n = cfg["ensemble.size"]
    eps = 0.1
    checks, rows = [], []
    for idx, lam in enumerate(cfg["source.lam_sweep"]):
        p_emp = _deviation_stats(cfg, lam, idx, thresholds=(eps,)).above[0] / n
        bound = float(np.exp(-2.0 * eps / abs(lam)))
        se = float(np.sqrt(max(p_emp * (1 - p_emp), 1e-12) / n))
        rows.append((lam, eps, p_emp, bound, se))
        checks.append(_check(f"concentration_lam_{lam:g}", p_emp,
                             bound + 3.0 * se, "<="))
    out.csv("concentration.csv", ["lam", "epsilon", "p_emp", "bound", "se"], rows)
    return checks


# ---------------------------------------------------------------------------
# equivariance


def _guided_ensembles(cfg, taus):
    """One guided ensemble run per micro-timescale in `taus`, all through
    one set of wave frames: [(final frozen fraction, diags)].  Only these
    are kept, not the ensembles themselves.

    Every run starts from the same positions, sampled once: they depend on
    the state, size and seed, not on tau.  The last run takes
    `run.snapshots` snapshots, the others only the first and the last,
    which are all that the sweep reads of them."""
    # the library takes a zero span, a run needs at least one window
    _steps(cfg, "time.dt_window")
    spec, _, H, state0 = _wave_setup(cfg)
    T = cfg["time.T"]
    frames = stochastic.build_wave_frames(state0, H, spec, T,
                                          cfg["time.dt_window"], cfg["time.dt"])
    # no source switches lambda off: guidance-velocity transport alone
    source = None if cfg["ensemble.disable_lambda"] else _build_source(cfg)

    ens0 = stochastic.init_ensemble(state0, cfg["ensemble.size"], taus[0],
                                    cfg["run.seed"])

    def run(tau, snapshots):
        final, diags = stochastic.propagate_ensemble(
            replace(ens0, tau_Q=tau), frames, T, source=source,
            bins=cfg["ensemble.bins"], snapshots=snapshots)
        return final.frozen_fraction, diags

    return ([run(tau, 2) for tau in taus[:-1]]
            + [run(taus[-1], cfg["run.snapshots"])])


def _density_csvs(out, diags):
    """equivariance.csv: the ensemble's histogram against the wave density
    at each snapshot."""
    out.csv("equivariance.csv",
            ["t", "bin_center", "histogram_density", "wave_density",
             "tv_distance", "frozen_fraction"],
            [(d["t"], c, hd, wd, d["tv_distance"], d["frozen_fraction"])
             for d in diags
             for c, hd, wd in zip(d["bin_centers"], d["histogram_density"],
                                  d["wave_density"])])


def _run_bohmian(cfg, out):
    [(frozen, diags)] = _guided_ensembles(cfg, [cfg["time.tau_Q"]])
    _density_csvs(out, diags)
    return [
        _check("tv_final", diags[-1]["tv_distance"], 0.02),
        _check("frozen_fraction", frozen, 1e-3),
    ]


def _run_tau_sweep(cfg, out):
    sweep = cfg["time.tau_sweep"]
    runs = _guided_ensembles(cfg, sweep)
    T = cfg["time.T"]
    rows = [(tau, diags[-1]["tv_distance"], frozen, whole_steps(T, tau))
            for tau, (frozen, diags) in zip(sweep, runs)]
    _density_csvs(out, runs[-1][1])
    out.csv("sweep.csv", ["tau_Q", "tv_final", "frozen_fraction",
                          "micro_steps"], rows)
    tvs = [r[1] for r in rows]
    mono = all(tvs[i] > tvs[i + 1] for i in range(len(tvs) - 1))
    return [_check("tv_monotone_decreasing", mono, 1.0, "=="),
            _check("tv_finest", tvs[-1], 0.05)]


# ---------------------------------------------------------------------------
# orderings


def _max_abs(*diagonals) -> float:
    """max |entry| over the diagonals: a tridiagonal matrix's maximum,
    as its zeros off the three diagonals add nothing."""
    return float(np.max(np.abs(np.concatenate(diagonals))))


def _ordering_rows(spec, grid, hbar, case):
    # every contrast reads the three diagonals
    sandwich = build_quantum_hamiltonian(spec, grid, hbar)
    rows = []
    results = {}
    # each distinct spectrum, by the bytes of the symmetric operator's
    # diagonals: at constant g the naive builds equal the sandwich bit for
    # bit, and at variable g pp_g's symmetrization equals g_pp's (bytes,
    # not values, so a -0.0 entry never takes another operator's spectrum)
    spectra = {}
    for build in ("sandwich", "g_pp", "pp_g"):
        if build == "sandwich":
            op = sandwich
        else:
            op = build_naive_ordering(spec, grid, hbar, build)
        defect = hermiticity_defect(op)
        rel = defect / _max_abs(op.lower, op.diag, op.upper)
        diff = _max_abs(op.lower - sandwich.lower, op.diag - sandwich.diag,
                        op.upper - sandwich.upper)
        sym = symmetrized(op)
        key = (sym.diag.tobytes(), sym.upper.tobytes())
        if key not in spectra:
            spectra[key] = eigenpairs(sym, 5)
        w, V = spectra[key]
        rows.append((case, build, defect, rel, diff, *w))
        results[build] = (rel, diff, w, V)
    return rows, results


def _first_order_shift(g, psi0, grid, hbar):
    """-(hbar^2 / 2) sum psi0^2 f f'', with f = sqrt(g) at the grid points
    and f'' its gradient's gradient: the first-order shift of g_pp's
    levels above the sandwich's, on the sandwich's eigenvector psi0 (unit
    sum of squares).  On the continuum f p^2 f = p g p - hbar^2 f f'', and
    g p^2 is similar to f p^2 f, so g p^2 / 2 + V is the sandwich less
    (hbar^2 / 2) f f''."""
    f = np.sqrt(g)
    curvature = f * gradient(gradient(f, grid), grid)
    return -0.5 * hbar * hbar * float(np.sum(psi0 * psi0 * curvature))


def _run_ordering_contrast(cfg, out):
    grid = _build_grid(cfg)
    hbar = cfg["source.hbar"]
    spec = _build_system(cfg)
    rows, results = _ordering_rows(spec, grid, hbar, "variable_mass")
    const_spec = make_system("harmonic", m=cfg["system.m"],
                             omega=cfg["system.omega"])
    rows_c, results_c = _ordering_rows(const_spec, grid, hbar, "constant_g")
    out.csv("orderings.csv",
            ["case", "build", "hermiticity_defect", "defect_rel",
             "max_entry_diff_vs_sandwich", "e0", "e1", "e2", "e3", "e4"],
            rows + rows_c)
    const_diff = max(results_c[b][1] for b in ("g_pp", "pp_g"))
    _, _, w, V = results["sandwich"]
    first = _first_order_shift(np.asarray(spec.g(grid.points()), dtype=float),
                               V[:, 0], grid, hbar)
    # g_pp moves e0 at O(hbar^2): on the registry grid the shift is 0.9877
    # of the first-order term at beta = 0.3 (0.091078 against 0.092210),
    # 0.9990 at beta = 0.1 and 0.9997 at 0.03, so the gap closes at second
    # order in the mass's variation.  The bound, 0.05, sits 4 times above
    # the registry's 0.0123; f = g in place of sqrt(g) reads 0.43, and no
    # shift at all 1
    shift = results["g_pp"][2][0] - w[0]
    return [
        _check("sandwich_defect_rel", results["sandwich"][0], 1e-12),
        _check("g_pp_defect_rel", results["g_pp"][0], 1e-3, ">"),
        _check("pp_g_defect_rel", results["pp_g"][0], 1e-3, ">"),
        _check("ordering_e0_shift", abs(shift / first - 1.0), 0.05),
        _check("constant_g_entrywise_agreement", const_diff, 1e-10),
    ]


# the levels harmonic_spectrum compares with hbar omega (k + 1/2)
_SPECTRUM_LEVELS = 5


def _run_harmonic_spectrum(cfg, out):
    hbar = cfg["source.hbar"]
    H = build_quantum_hamiltonian(_build_system(cfg), _build_grid(cfg), hbar)
    evals, _ = eigenpairs(H, _SPECTRUM_LEVELS)
    exact = hbar * cfg["system.omega"] * (np.arange(_SPECTRUM_LEVELS) + 0.5)
    out.csv("spectrum.csv", ["k", "energy", "exact", "abs_err"],
            [(k, float(evals[k]), float(exact[k]),
              float(abs(evals[k] - exact[k])))
             for k in range(_SPECTRUM_LEVELS)])
    return [_check("e0_abs_err", abs(evals[0] - exact[0]), 1e-3),
            _check("e1_abs_err", abs(evals[1] - exact[1]), 1e-3)]


# ---------------------------------------------------------------------------
# command entry point


# every scenario's runner, by scenario name (the names are unique across
# commands); each takes (cfg, out) and returns its checks
_RUNNERS = {
    "free_gaussian": _chain_snapshots,
    "harmonic_coherent": _chain_snapshots,
    "harmonic_stationary": _chain_snapshots,
    "classical_limit": _run_classical_limit,
    "propagator_quality": _run_propagator_quality,
    "exponential_law": _run_exponential_law,
    "binary_source": _run_source,
    "sphere_source": _run_source,
    "smeared_source": _run_source,
    "concentration": _run_concentration,
    "bohmian": _run_bohmian,
    "tau_sweep": _run_tau_sweep,
    "ordering_contrast": _run_ordering_contrast,
    "harmonic_spectrum": _run_harmonic_spectrum,
}


def run_command(command: str, config: dict | None = None,
                out_dir: str | None = None) -> CommandResult:
    """Resolve config, run the scenario, manage the manifest lifecycle."""
    cfg = resolve_config(command, config)
    scenario = cfg["run.scenario"]
    out = _Out(_resolve_out_dir(command, scenario, cfg, out_dir), cfg, command)
    started = _time.monotonic()
    manifest = {
        "version": __version__,
        "command": command,
        "scenario": scenario,
        "seed": cfg["run.seed"],
        "status": "running",
        "config": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in sorted(cfg.items())},
        "files": [],
        "checks": [],
    }
    out.manifest(manifest)
    try:
        checks = _RUNNERS[scenario](cfg, out)
    except StochactionError as exc:
        manifest["status"] = "error"
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        manifest["duration_seconds"] = round(_time.monotonic() - started, 3)
        out.manifest(manifest)
        raise
    manifest["status"] = "complete"
    manifest["files"] = out.files
    manifest["checks"] = [
        {"name": c.name, "value": c.value, "tolerance": c.tolerance,
         "relation": c.relation, "passed": bool(c.passed)} for c in checks]
    manifest["duration_seconds"] = round(_time.monotonic() - started, 3)
    out.manifest(manifest)
    return CommandResult(command=command, scenario=scenario, out_dir=out.path,
                         checks=checks, files=out.files)
