"""Scenario runner: config parsing, seeded deterministic runs, CSV output
with a machine-readable manifest, and pass/fail checks per command.

Config files are line-oriented `section.key = value`; unknown keys are
errors.  Every run writes manifest.json (status "running") before any data
file and finalizes it afterwards, so interrupted runs are detectable.
CSV files carry `#` metadata lines (units, seed, version) and are
byte-identical across re-runs with the same config and seed.
"""
from __future__ import annotations

import json
import os
import time as _time
from dataclasses import dataclass, field

import numpy as np

from . import classical, madelung, stochastic
from ._version import __version__
from .errors import ConfigurationError, StochactionError
from .evolution import (WaveState, coherent_state, eigenpairs, gaussian_packet,
                        ground_state, l2_distance, mean_position, norm_squared,
                        propagate_crank_nicolson, propagate_eigen_oracle,
                        spectral_filter)
from .hamiltonian import (build_naive_ordering, build_quantum_hamiltonian,
                          hermiticity_defect, make_system)
from .lattice import GridSpec, build_grid, gradient, integrate

OUTPUT_ENV = "STOCHACTION_OUT"
DEFAULT_SEED = 1234

# ---------------------------------------------------------------------------
# configuration


KEY_TYPES = {
    "run.scenario": str,
    "run.seed": int,
    "run.out": str,
    "run.snapshots": int,
    "system.preset": str,
    "system.m": float,
    "system.omega": float,
    "system.beta": float,
    "system.a0": float,
    "system.a1": float,
    "grid.n": int,
    "grid.q_min": float,
    "grid.q_max": float,
    "time.dt": float,
    "time.T": float,
    "time.dt_window": float,
    "time.tau_Q": float,
    "time.tau_sweep": "float_list",
    "source.kind": str,
    "source.hbar": float,
    "source.width": float,
    "source.lam_sweep": "float_list",
    "ensemble.size": int,
    "ensemble.bins": int,
    "ensemble.disable_lambda": bool,
    "state.kind": str,
    "state.sigma": float,
    "state.center": float,
    "state.momentum": float,
    "state.offset_quanta": int,
    "state.ecut": float,
}


def _parse_value(key: str, raw: str):
    kind = KEY_TYPES[key]
    raw = raw.strip()
    try:
        if kind is str:
            return raw
        if kind is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind == "float_list":
            return tuple(float(tok) for tok in raw.split(",") if tok.strip())
    except ValueError:
        raise ConfigurationError(
            f"config key {key!r}: cannot parse {raw!r} as {kind if isinstance(kind, str) else kind.__name__}")
    raise ConfigurationError(f"unhandled config type for {key!r}")


def parse_config(path: str) -> dict:
    """Read a `section.key = value` file; unknown keys are errors."""
    cfg = {}
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
        key, raw = body.split("=", 1)
        key = key.strip()
        if key not in KEY_TYPES:
            raise ConfigurationError(f"{path}:{lineno}: unknown config key {key!r}")
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
        # branch phase offset S0 = 2*pi*hbar held over 1000 steps
        "phase_offset": _scn(
            system__preset="harmonic", system__m=1.0, system__omega=1.0,
            grid__n=384, grid__q_min=-4.6, grid__q_max=4.6,
            state__kind="ground", state__offset_quanta=1, source__hbar=1.0,
            time__dt=5e-5, time__T=0.05),
        # small action scale: packet center vs symplectic reference.  The
        # packet is a true coherent state (width sqrt(hbar/2)): any other
        # width breathes at this scale and sweeps the far tail below the
        # resolvable node floor.  The energy cut keeps the occupied band
        # (four modes carry all but ~7e-6 of the mass) and strips the
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
            source__hbar=1.0, time__dt=1e-3, time__T=1.0),
    },
    "sample": {
        "exponential_law": _scn(
            source__kind="binary", source__hbar=1.0,
            source__lam_sweep=(0.5, 1.0, 2.0), ensemble__size=1000000,
            ensemble__bins=60),
        "binary_source": _scn(
            source__kind="binary", source__hbar=1.0, ensemble__size=1000000,
            ensemble__bins=60),
        "sphere_source": _scn(
            source__kind="sphere", source__hbar=1.0, ensemble__size=1000000,
            ensemble__bins=60),
        "smeared_source": _scn(
            source__kind="smeared", source__hbar=1.0, source__width=0.2,
            ensemble__size=1000000, ensemble__bins=60),
        "concentration": _scn(
            source__kind="binary", source__hbar=1.0,
            source__lam_sweep=(0.1, 0.05), ensemble__size=1000000,
            ensemble__bins=60),
    },
    "equivariance": {
        # lambda disabled: pure guidance-velocity transport.  Walls sit
        # close enough that the swinging packet's far tail stays well above
        # the node floor at every window boundary, and the band limit strips
        # the wall-truncation contaminants whose grid-scale phase wiggles
        # would otherwise scramble the guidance field
        "bohmian": _scn(
            system__preset="harmonic", system__m=1.0, system__omega=1.0,
            grid__n=320, grid__q_min=-3.2, grid__q_max=3.2,
            state__kind="coherent", state__center=0.8, state__momentum=0.0,
            state__ecut=8.5,
            source__kind="binary", source__hbar=1.0,
            time__T=1.0, time__dt_window=1e-2, time__dt=1e-3, time__tau_Q=1e-3,
            ensemble__size=100000, ensemble__bins=50,
            ensemble__disable_lambda=True, run__snapshots=5),
        # full model, micro-timescale convergence sweep
        "tau_sweep": _scn(
            system__preset="harmonic", system__m=1.0, system__omega=4.0,
            grid__n=256, grid__q_min=-2.1, grid__q_max=2.1,
            state__kind="coherent", state__center=0.3, state__momentum=0.0,
            source__kind="binary", source__hbar=1.0,
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

REQUIRED_KEYS = {
    "evolve": ("system.preset", "grid.n", "grid.q_min", "grid.q_max",
               "time.dt", "time.T", "state.kind", "source.hbar"),
    "sample": ("source.kind", "source.hbar", "ensemble.size"),
    "equivariance": ("system.preset", "grid.n", "grid.q_min", "grid.q_max",
                     "time.T", "time.dt_window", "time.dt", "state.kind",
                     "source.hbar", "ensemble.size"),
    "orderings": ("system.preset", "grid.n", "grid.q_min", "grid.q_max",
                  "source.hbar"),
}


def resolve_config(command: str, config: dict | None = None) -> dict:
    """Scenario defaults overlaid with the user config; validates keys."""
    if command not in SCENARIOS:
        raise ConfigurationError(f"unknown command {command!r}")
    config = dict(config or {})
    for key in config:
        if key not in KEY_TYPES:
            raise ConfigurationError(f"unknown config key {key!r}")
    scenario = config.get("run.scenario", COMMAND_DEFAULT[command])
    if scenario not in SCENARIOS[command]:
        raise ConfigurationError(
            f"unknown scenario {scenario!r} for command {command!r}; "
            f"expected one of {sorted(SCENARIOS[command])}")
    cfg = dict(SCENARIOS[command][scenario])
    cfg.update(config)
    cfg["run.scenario"] = scenario
    cfg.setdefault("run.seed", DEFAULT_SEED)
    missing = [k for k in REQUIRED_KEYS[command] if k not in cfg]
    if missing:
        raise ConfigurationError(
            f"config for {command!r} is missing required key(s): "
            + ", ".join(repr(k) for k in missing))
    if "ensemble.size" in cfg and cfg["ensemble.size"] < 1:
        raise ConfigurationError(
            f"ensemble.size must be >= 1, got {cfg['ensemble.size']}")
    if cfg["run.seed"] < 0:
        raise ConfigurationError(f"run.seed must be >= 0, got {cfg['run.seed']}")
    return cfg


# ---------------------------------------------------------------------------
# output plumbing


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    tolerance: float
    relation: str  # "<", "<=", ">", "==", "monotone_decreasing"
    passed: bool


def _check(name, value, tolerance, relation="<"):
    value = float(value)
    if relation == "<":
        ok = value < tolerance
    elif relation == "<=":
        ok = value <= tolerance
    elif relation == ">":
        ok = value > tolerance
    elif relation == "==":
        ok = value == tolerance
    else:
        raise ValueError(f"unknown relation {relation!r}")
    return Check(name=name, value=value, tolerance=float(tolerance),
                 relation=relation, passed=ok)


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
    # most rows are all floats (numpy's float64 is a float), which _fmt
    # would write as repr(float(v)): format them in one pass at C level,
    # with no Python call per value
    try:
        return ",".join(map(float.__repr__, row))
    except TypeError:
        return ",".join(map(_fmt, row))


def write_csv(path: str, meta: dict, header: list[str], rows) -> None:
    lines = [f"# {k} = {_fmt(v)}" for k, v in meta.items()]
    lines.append(",".join(header))
    lines.extend(map(_fmt_row, rows))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _manifest_path(out_dir: str) -> str:
    return os.path.join(out_dir, "manifest.json")


def _write_manifest(out_dir: str, doc: dict) -> None:
    with open(_manifest_path(out_dir), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


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


def _meta(cfg: dict, command: str, extra: dict | None = None) -> dict:
    meta = {
        "generator": f"stochaction {__version__}",
        "command": command,
        "scenario": cfg["run.scenario"],
        "seed": cfg["run.seed"],
        "units": "natural: action in units of source.hbar at hbar = 1, mass m, time t",
    }
    if extra:
        meta.update(extra)
    return meta


# ---------------------------------------------------------------------------
# shared builders


def _build_system(cfg: dict):
    preset = cfg["system.preset"]
    picks = {"free": ("m",), "harmonic": ("m", "omega"),
             "variable_mass": ("m", "omega", "beta"),
             "gauged": ("m", "omega", "a0", "a1")}
    if preset not in picks:
        raise ConfigurationError(f"unknown system preset {preset!r}")
    params = {p: cfg[f"system.{p}"] for p in picks[preset]
              if f"system.{p}" in cfg}
    return make_system(preset, **params)


def _build_grid(cfg: dict) -> GridSpec:
    return build_grid(cfg["grid.n"], cfg["grid.q_min"], cfg["grid.q_max"])


def _build_state(cfg: dict, grid: GridSpec, spec, H) -> WaveState:
    kind = cfg["state.kind"]
    hbar = cfg["source.hbar"]
    if kind == "gaussian":
        state = gaussian_packet(grid, center=cfg.get("state.center", 0.0),
                                sigma=cfg.get("state.sigma", 1.0),
                                momentum=cfg.get("state.momentum", 0.0),
                                hbar_eff=hbar)
    elif kind == "coherent":
        if cfg["system.preset"] != "harmonic":
            raise ConfigurationError(
                "state.kind = coherent requires the harmonic preset")
        state = coherent_state(grid, m=cfg.get("system.m", 1.0),
                               omega=cfg.get("system.omega", 1.0),
                               center=cfg.get("state.center", 0.0),
                               momentum=cfg.get("state.momentum", 0.0),
                               hbar_eff=hbar)
    elif kind == "ground":
        _, state = ground_state(H)
        return state
    else:
        raise ConfigurationError(
            f"unknown state.kind {kind!r}; expected gaussian, coherent, or ground")
    # scenarios that feed the polar pair low-pass the analytic packet: the
    # retained modes individually satisfy the walls, so the tail carries no
    # fast-beating content that the polar fields cannot represent
    e_cut = cfg.get("state.ecut", 0.0)
    if e_cut > 0.0:
        state = spectral_filter(state, H, e_cut)
    return state


def _wave_phase(state: WaveState) -> np.ndarray:
    return state.hbar_eff * np.unwrap(np.angle(state.psi))


# ---------------------------------------------------------------------------
# evolve


def _chain_snapshots(cfg, spec, grid, H, state0, out_dir, meta):
    dt = cfg["time.dt"]
    T = cfg["time.T"]
    steps = int(round(T / dt))
    if steps < 1 or abs(steps * dt - T) > 1e-9 * T:
        raise ConfigurationError(f"time.dt = {dt} does not divide time.T = {T}")
    n_snap = 10
    bounds = sorted({0, *(int(round(steps * k / n_snap)) for k in range(1, n_snap + 1))})
    pair = madelung.pair_from_wave(state0)
    rows_wave, rows_pair, rows_chain = [], [], []
    pts = grid.points()
    done = 0
    for b in bounds:
        if b > done:
            pair = madelung.step_coupled_pde(pair, spec, dt, steps=b - done)
            done = b
        t = b * dt
        ref = propagate_eigen_oracle(state0, H, t)
        dens_ref = np.abs(ref.psi) ** 2
        dens_pair = pair.plus.R ** 2
        l2 = l2_distance(dens_pair, dens_ref, grid)
        dS_pair = gradient(pair.plus.S, grid)
        dS_ref = gradient(_wave_phase(ref), grid)
        # compare phase gradients only where the density is non-negligible:
        # in the deep tail the reference phase unwraps through near-zeros
        # and has no polar counterpart
        w = np.where(dens_ref >= 1e-6 * dens_ref.max(), dens_ref, 0.0)
        pg = float(np.sqrt(integrate((dS_pair - dS_ref) ** 2 * w, grid)))
        rows_chain.append((t, l2, pg))
        for i in range(grid.n):
            rows_wave.append((t, pts[i], dens_ref[i]))
            rows_pair.append((t, pts[i], pair.plus.R[i], pair.minus.R[i],
                              pair.plus.S[i], pair.minus.S[i]))
    files = []
    for name, header, rows in (
            ("wave_density.csv", ["t", "q", "density"], rows_wave),
            ("madelung_pair.csv",
             ["t", "q", "R_plus", "R_minus", "S_plus", "S_minus"], rows_pair),
            ("chain_equivalence.csv",
             ["t", "l2_density", "phase_grad_dist"], rows_chain)):
        path = os.path.join(out_dir, name)
        write_csv(path, meta, header, rows)
        files.append(name)
    l2_max = max(r[1] for r in rows_chain)
    pg_max = max(r[2] for r in rows_chain)
    checks = [_check("chain_l2_density_max", l2_max, 1e-3),
              _check("chain_phase_grad_max", pg_max, 1e-2)]
    return checks, files


def _run_phase_offset(cfg, spec, grid, H, state0, out_dir, meta):
    dt = cfg["time.dt"]
    steps = int(round(cfg["time.T"] / dt))
    quanta = cfg.get("state.offset_quanta", 1)
    hbar = cfg["source.hbar"]
    h_quantum = 2.0 * np.pi * hbar
    target = quanta * h_quantum
    pair = madelung.pair_from_wave(state0, offset_quanta=quanta)
    rows = []
    done = 0
    record_every = max(1, steps // 20)
    bounds = sorted({0, *range(record_every, steps + 1, record_every), steps})
    worst = 0.0
    for b in bounds:
        if b > done:
            pair = madelung.step_coupled_pde(pair, spec, dt, steps=b - done)
            done = b
        S0_now, max_dev = madelung.check_phase_offset(pair)
        rows.append((b * dt, S0_now, max_dev))
        worst = max(worst, abs(S0_now - target) + max_dev)
    path = os.path.join(out_dir, "phase_offset.csv")
    write_csv(path, meta, ["t", "S0", "max_deviation"], rows)

    # whole-quantum offsets leave the reconstructed wave unchanged; a
    # half-quantum offset flips its sign
    psi = madelung.from_polar(pair.plus).psi
    shifted = madelung.MadelungState(R=pair.plus.R, S=pair.plus.S - target,
                                     lam=pair.plus.lam, t=pair.plus.t, grid=grid)
    psi_shift = madelung.from_polar(shifted).psi
    inv_err = float(np.max(np.abs(psi_shift - psi)))
    half = madelung.MadelungState(R=pair.plus.R, S=pair.plus.S - 0.5 * h_quantum,
                                  lam=pair.plus.lam, t=pair.plus.t, grid=grid)
    psi_half = madelung.from_polar(half).psi
    flip_err = float(np.max(np.abs(psi_half + psi)))
    checks = [
        _check("offset_drift_max", worst, 1e-4),
        _check("whole_quantum_invariance", inv_err, 1e-12),
        _check("half_quantum_sign_flip", flip_err, 1e-12),
    ]
    return checks, ["phase_offset.csv"]


def _run_classical_limit(cfg, spec, grid, H, state0, out_dir, meta):
    dt = cfg["time.dt"]
    T = cfg["time.T"]
    steps = int(round(T / dt))
    hbar = cfg["source.hbar"]
    pair = madelung.pair_from_wave(state0)
    q0 = cfg.get("state.center", 0.0)
    p0 = cfg.get("state.momentum", 0.0)
    path_ref = classical.integrate_path(
        classical.PhasePoint(q=q0, p=p0), spec, dt, steps)
    record_every = max(1, steps // 20)
    bounds = sorted({0, *range(record_every, steps + 1, record_every), steps})
    rows = []
    done = 0
    worst = 0.0
    pts = grid.points()
    for b in bounds:
        if b > done:
            pair = madelung.step_coupled_pde(pair, spec, dt, steps=b - done)
            done = b
        dens = pair.plus.R ** 2
        center = float(integrate(pts * dens, grid) / integrate(dens, grid))
        q_ref = float(path_ref.qs[b])
        err = abs(center - q_ref)
        worst = max(worst, err)
        rows.append((b * dt, center, q_ref, err))
    write_csv(os.path.join(out_dir, "classical_track.csv"), meta,
              ["t", "center", "q_ref", "abs_error"], rows)

    # lam^2 scaling of the quantum-potential term, measured on packets
    # evolved independently at the two scales.  The probe packet sits on its
    # own grid and is broad compared to its breathing width lam/(2 sigma),
    # so the amplitude profiles at the two scales stay congruent and the
    # ratio isolates the lam^2 prefactor.  Walls at 5 sigma keep the wall
    # density high enough that tail-mode beats never drive it near zero,
    # while leaking well under 1e-6 of the norm over the horizon
    qp_grid = build_grid(144, -1.6, 1.6)
    qp_dt = 5e-4
    qp_rows = []
    norms = {}
    for lam in (2.0 * hbar, hbar):
        st = gaussian_packet(qp_grid, center=0.0, sigma=0.32, momentum=0.0,
                             hbar_eff=lam)
        pr = madelung.pair_from_wave(st)
        qp_steps = int(round(0.25 / qp_dt))
        pr = madelung.step_coupled_pde(pr, spec, qp_dt, steps=qp_steps)
        qp = madelung.quantum_potential(pr.plus.R, spec, qp_grid, lam)
        dens = pr.plus.R ** 2
        w_norm = float(np.sqrt(integrate(qp ** 2 * dens, qp_grid)
                               / integrate(dens, qp_grid)))
        norms[lam] = w_norm
        qp_rows.append((lam, w_norm))
    ratio = norms[2.0 * hbar] / norms[hbar]
    qp_rows.append(("ratio", ratio))
    write_csv(os.path.join(out_dir, "qp_scaling.csv"), meta,
              ["lam", "weighted_qp_norm"], qp_rows)
    checks = [
        _check("center_track_max_err", worst, 1e-2),
        _check("qp_ratio_dev_from_4", abs(ratio - 4.0), 0.05 * 4.0),
    ]
    return checks, ["classical_track.csv", "qp_scaling.csv"]


def _run_propagator_quality(cfg, spec, grid, H, state0, out_dir, meta):
    dt = cfg["time.dt"]
    T = cfg["time.T"]
    steps = int(round(T / dt))
    if abs(steps * dt - T) > 1e-9 * T:
        raise ConfigurationError(f"time.dt = {dt} does not divide time.T = {T}")
    record_every = max(1, steps // 10)
    rows = []
    cur = state0
    worst_drift = 0.0
    worst_l2 = 0.0
    done = 0
    for b in range(record_every, steps + 1, record_every):
        cur = propagate_crank_nicolson(cur, H, dt, b - done)
        done = b
        drift = abs(norm_squared(cur) - 1.0)
        ref = propagate_eigen_oracle(state0, H, b * dt)
        l2 = l2_distance(cur.psi, ref.psi, grid)
        worst_drift = max(worst_drift, drift)
        worst_l2 = max(worst_l2, l2)
        rows.append((b * dt, drift, l2))
    write_csv(os.path.join(out_dir, "propagator_quality.csv"), meta,
              ["t", "norm_drift", "l2_to_oracle"], rows)
    checks = [
        _check("cn_norm_drift_max", worst_drift, 1e-10),
        _check("cn_l2_to_oracle", worst_l2, 1e-4),
    ]
    return checks, ["propagator_quality.csv"]


def _run_evolve(cfg: dict, out_dir: str) -> tuple[list, list]:
    spec = _build_system(cfg)
    grid = _build_grid(cfg)
    H = build_quantum_hamiltonian(spec, grid, cfg["source.hbar"])
    state0 = _build_state(cfg, grid, spec, H)
    meta = _meta(cfg, "evolve")
    scenario = cfg["run.scenario"]
    if scenario in ("free_gaussian", "harmonic_coherent", "harmonic_stationary"):
        return _chain_snapshots(cfg, spec, grid, H, state0, out_dir, meta)
    if scenario == "phase_offset":
        return _run_phase_offset(cfg, spec, grid, H, state0, out_dir, meta)
    if scenario == "classical_limit":
        return _run_classical_limit(cfg, spec, grid, H, state0, out_dir, meta)
    if scenario == "propagator_quality":
        return _run_propagator_quality(cfg, spec, grid, H, state0, out_dir, meta)
    raise ConfigurationError(f"unhandled evolve scenario {scenario!r}")


# ---------------------------------------------------------------------------
# sample


def _hist_rows(tag, values, bins, lo, hi):
    edges = np.linspace(lo, hi, bins + 1)
    counts, _ = np.histogram(values, bins=edges)
    dens = counts / (values.size * np.diff(edges))
    centers = 0.5 * (edges[:-1] + edges[1:])
    return [(tag, c, d) for c, d in zip(centers, dens)]


def _run_sample(cfg: dict, out_dir: str) -> tuple[list, list]:
    scenario = cfg["run.scenario"]
    seed = cfg["run.seed"]
    n = cfg["ensemble.size"]
    bins = cfg.get("ensemble.bins", 60)
    meta = _meta(cfg, "sample")
    checks, files = [], []

    if scenario in ("binary_source", "sphere_source", "smeared_source"):
        source = stochastic.LambdaSource(kind=cfg["source.kind"],
                                         hbar=cfg["source.hbar"],
                                         width=cfg.get("source.width", 0.0),
                                         seed=seed)
        lams = stochastic.sample_lambda(source, n)
        mean = float(np.mean(lams))
        se = float(np.std(lams) / np.sqrt(n))
        bias_sigma = abs(mean) / se if se > 0 else 0.0
        mag_err = float(np.max(np.abs(np.abs(lams) - source.hbar)))
        stats_rows = [(source.kind, n, mean, se, bias_sigma, mag_err)]
        write_csv(os.path.join(out_dir, "lambda_stats.csv"), meta,
                  ["kind", "n", "mean", "se", "sign_bias_sigma", "max_abs_minus_hbar"],
                  stats_rows)
        lo = -source.hbar - source.width * 2.0
        write_csv(os.path.join(out_dir, "lambda_hist.csv"), meta,
                  ["kind", "bin_center", "density"],
                  _hist_rows(source.kind, lams, bins, lo, -lo))
        files += ["lambda_stats.csv", "lambda_hist.csv"]
        checks.append(_check("sign_bias_sigma", bias_sigma, 3.0, "<="))
        if source.kind in ("binary", "sphere"):
            checks.append(_check("magnitude_exact", mag_err, 0.0, "=="))
        else:
            checks.append(_check("magnitude_within_support", mag_err,
                                 source.width * np.sqrt(3.0) * (1 + 1e-12), "<="))
        return checks, files

    if scenario == "exponential_law":
        sweep = cfg.get("source.lam_sweep", (0.5, 1.0, 2.0))
        stat_rows, hist_rows = [], []
        for idx, lam in enumerate(sweep):
            devs = stochastic.sample_action_deviation(
                lam, n, seed=seed, step=idx)
            violations = int(np.sum(devs * np.sign(lam) < 0))
            mags = np.abs(devs)
            mean = float(np.mean(mags))
            expected = abs(lam) / 2.0
            rel = abs(mean / expected - 1.0)
            se = float(np.std(mags) / np.sqrt(n))
            xbar = expected
            p_tail1 = float(np.mean(mags > xbar))
            p_tail2 = float(np.mean(mags > 2.0 * xbar))
            tail_ratio = p_tail2 / p_tail1
            tail_rel = abs(tail_ratio * np.e - 1.0)
            stat_rows.append((lam, n, mean, expected, rel, se, violations,
                              tail_ratio, float(np.exp(-1.0)), tail_rel))
            hist_rows += _hist_rows(lam, mags, bins, 0.0, 4.0 * expected)
            checks.append(_check(f"sign_violations_lam_{lam:g}", violations, 0, "=="))
            checks.append(_check(f"mean_rel_err_lam_{lam:g}", rel, 0.005, "<="))
            checks.append(_check(f"tail_ratio_rel_err_lam_{lam:g}", tail_rel, 0.02, "<="))
        write_csv(os.path.join(out_dir, "deviation_stats.csv"), meta,
                  ["lam", "n", "mean", "mean_expected", "mean_rel_err", "se",
                   "sign_violations", "tail_ratio", "tail_expected",
                   "tail_rel_err"], stat_rows)
        write_csv(os.path.join(out_dir, "deviation_hist.csv"), meta,
                  ["lam", "bin_center", "density"], hist_rows)
        return checks, ["deviation_stats.csv", "deviation_hist.csv"]

    if scenario == "concentration":
        sweep = cfg.get("source.lam_sweep", (0.1, 0.05))
        eps = 0.1
        rows = []
        for idx, lam in enumerate(sweep):
            devs = stochastic.sample_action_deviation(
                lam, n, seed=seed, step=idx)
            p_emp = float(np.mean(np.abs(devs) > eps))
            bound = float(np.exp(-2.0 * eps / abs(lam)))
            se = float(np.sqrt(max(p_emp * (1 - p_emp), 1e-12) / n))
            rows.append((lam, eps, p_emp, bound, se))
            checks.append(_check(f"concentration_lam_{lam:g}", p_emp,
                                 bound + 3.0 * se, "<="))
        write_csv(os.path.join(out_dir, "concentration.csv"), meta,
                  ["lam", "epsilon", "p_emp", "bound", "se"], rows)
        return checks, ["concentration.csv"]

    raise ConfigurationError(f"unhandled sample scenario {scenario!r}")


# ---------------------------------------------------------------------------
# equivariance


def _equivariance_csv(path, meta, diags):
    rows = []
    for d in diags:
        for c, hd, wd in zip(d["bin_centers"], d["histogram_density"],
                             d["wave_density"]):
            rows.append((d["t"], c, hd, wd, d["tv_distance"],
                         d["frozen_fraction"]))
    write_csv(path, meta, ["t", "bin_center", "histogram_density",
                           "wave_density", "tv_distance", "frozen_fraction"],
              rows)


def _weighted_csv(path, meta, diags):
    rows = []
    for d in diags:
        for c, hd, wd in zip(d["bin_centers"], d["weighted_density"],
                             d["wave_density"]):
            rows.append((d["t"], c, hd, wd, d["tv_weighted"],
                         d["frozen_fraction"]))
    write_csv(path, meta, ["t", "bin_center", "histogram_density",
                           "wave_density", "tv_distance", "frozen_fraction"],
              rows)


def _run_equivariance(cfg: dict, out_dir: str) -> tuple[list, list]:
    spec = _build_system(cfg)
    grid = _build_grid(cfg)
    hbar = cfg["source.hbar"]
    H = build_quantum_hamiltonian(spec, grid, hbar)
    state0 = _build_state(cfg, grid, spec, H)
    seed = cfg["run.seed"]
    T = cfg["time.T"]
    meta = _meta(cfg, "equivariance")
    frames = stochastic.build_wave_frames(state0, H, spec, T,
                                          cfg["time.dt_window"],
                                          cfg["time.dt"])
    n = cfg["ensemble.size"]
    bins = cfg.get("ensemble.bins", 50)
    snapshots = cfg.get("run.snapshots", 5)
    disable = cfg.get("ensemble.disable_lambda", False)
    source = None
    if not disable:
        source = stochastic.LambdaSource(kind=cfg.get("source.kind", "binary"),
                                         hbar=hbar,
                                         width=cfg.get("source.width", 0.0),
                                         seed=seed)
    checks, files = [], []
    scenario = cfg["run.scenario"]

    if scenario == "bohmian":
        ens = stochastic.init_ensemble(state0, n, cfg["time.tau_Q"], seed)
        final, diags = stochastic.propagate_ensemble(
            ens, frames, spec, T, source=source, disable_lambda=disable,
            bins=bins, snapshots=snapshots)
        _equivariance_csv(os.path.join(out_dir, "equivariance.csv"), meta, diags)
        _weighted_csv(os.path.join(out_dir, "weighted.csv"), meta, diags)
        files = ["equivariance.csv", "weighted.csv"]
        checks.append(_check("tv_final", diags[-1]["tv_distance"], 0.02))
        checks.append(_check("frozen_fraction", final.frozen_fraction, 1e-3))
        # algebraic identity: the +-lambda mean of microscopic velocities
        # equals the guidance field.  Checked mid-swing, where both the
        # phase gradient and the osmotic term are nontrivial (at t = 0 the
        # packet is momentumless and the check would be vacuous)
        probe_state = propagate_crank_nicolson(
            state0, H, cfg["time.dt"], int(round(0.25 / cfg["time.dt"])))
        omega = np.abs(probe_state.psi) ** 2
        S = _wave_phase(probe_state)
        probe = grid.points()[grid.n // 7:: grid.n // 11]
        v_plus = stochastic.microscopic_velocity(probe, S, omega, hbar, spec, grid)
        v_minus = stochastic.microscopic_velocity(probe, S, omega, -hbar, spec, grid)
        v_eff = stochastic.effective_velocity(v_plus, v_minus)
        v_field = stochastic.bohmian_velocity(probe_state, spec, grid)
        v_ref = np.interp(probe, grid.points(), v_field)
        ident = float(np.max(np.abs(v_eff - v_ref)))
        checks.append(_check("velocity_identity_max_err", ident, 1e-8))
        return checks, files

    if scenario == "tau_sweep":
        sweep = cfg.get("time.tau_sweep", (1e-2, 1e-3, 1e-4))
        rows = []
        tvs = []
        finest_diags = None
        for tau in sweep:
            ens = stochastic.init_ensemble(state0, n, tau, seed)
            final, diags = stochastic.propagate_ensemble(
                ens, frames, spec, T, source=source, disable_lambda=disable,
                bins=bins, snapshots=snapshots)
            tv = diags[-1]["tv_distance"]
            tvs.append(tv)
            rows.append((tau, tv, diags[-1]["tv_weighted"],
                         final.frozen_fraction, int(round(T / tau))))
            finest_diags = diags
        _equivariance_csv(os.path.join(out_dir, "equivariance.csv"), meta,
                          finest_diags)
        _weighted_csv(os.path.join(out_dir, "weighted.csv"), meta, finest_diags)
        write_csv(os.path.join(out_dir, "sweep.csv"), meta,
                  ["tau_Q", "tv_final", "tv_weighted_final", "frozen_fraction",
                   "micro_steps"], rows)
        files = ["equivariance.csv", "weighted.csv", "sweep.csv"]
        mono = all(tvs[i] > tvs[i + 1] for i in range(len(tvs) - 1))
        checks.append(Check(name="tv_monotone_decreasing", value=float(mono),
                            tolerance=1.0, relation="==", passed=mono))
        checks.append(_check("tv_finest", tvs[-1], 0.05))
        return checks, files

    raise ConfigurationError(f"unhandled equivariance scenario {scenario!r}")


# ---------------------------------------------------------------------------
# orderings


def _low_spectrum(matrix, k=5):
    evals = np.linalg.eigvals(matrix)
    order = np.argsort(evals.real)
    low = evals[order][:k]
    return low.real, float(np.max(np.abs(evals.imag)))


def _ordering_rows(spec, grid, hbar, case):
    # dense on purpose: the naive orderings are not Hermitian, so their
    # spectra need the general eigensolver
    sandwich = build_quantum_hamiltonian(spec, grid, hbar).matrix
    rows = []
    results = {}
    for build in ("sandwich", "g_pp", "pp_g"):
        if build == "sandwich":
            M = sandwich
        else:
            M = build_naive_ordering(spec, grid, hbar, build).matrix
        defect = hermiticity_defect(M)
        rel = defect / float(np.max(np.abs(M)))
        diff = float(np.max(np.abs(M - sandwich)))
        low, max_imag = _low_spectrum(M)
        rows.append((case, build, defect, rel, diff, *low, max_imag))
        results[build] = (rel, diff, max_imag)
    return rows, results


def _run_orderings(cfg: dict, out_dir: str) -> tuple[list, list]:
    scenario = cfg["run.scenario"]
    grid = _build_grid(cfg)
    hbar = cfg["source.hbar"]
    meta = _meta(cfg, "orderings")
    checks = []

    if scenario == "ordering_contrast":
        if cfg["system.preset"] != "variable_mass":
            raise ConfigurationError(
                "ordering_contrast requires system.preset = variable_mass")
        spec = _build_system(cfg)
        rows, results = _ordering_rows(spec, grid, hbar, "variable_mass")
        const_spec = make_system("harmonic", m=cfg.get("system.m", 1.0),
                                 omega=cfg.get("system.omega", 1.0))
        rows_c, results_c = _ordering_rows(const_spec, grid, hbar, "constant_g")
        header = ["case", "build", "hermiticity_defect", "defect_rel",
                  "max_entry_diff_vs_sandwich", "e0", "e1", "e2", "e3", "e4",
                  "max_imag_eig"]
        write_csv(os.path.join(out_dir, "orderings.csv"), meta, header,
                  rows + rows_c)
        checks.append(_check("sandwich_defect_rel", results["sandwich"][0], 1e-12))
        checks.append(_check("g_pp_defect_rel", results["g_pp"][0], 1e-3, ">"))
        checks.append(_check("pp_g_defect_rel", results["pp_g"][0], 1e-3, ">"))
        checks.append(_check("sandwich_spectrum_imag", results["sandwich"][2], 1e-10))
        const_diff = max(results_c[b][1] for b in ("g_pp", "pp_g"))
        checks.append(_check("constant_g_entrywise_agreement", const_diff, 1e-10))
        return checks, ["orderings.csv"]

    if scenario == "harmonic_spectrum":
        spec = _build_system(cfg)
        H = build_quantum_hamiltonian(spec, grid, hbar)
        evals, _ = eigenpairs(H, 5)
        omega = cfg.get("system.omega", 1.0)
        exact = hbar * omega * (np.arange(5) + 0.5)
        rows = [(k, float(evals[k]), float(exact[k]),
                 float(abs(evals[k] - exact[k]))) for k in range(5)]
        write_csv(os.path.join(out_dir, "spectrum.csv"), meta,
                  ["k", "energy", "exact", "abs_err"], rows)
        checks.append(_check("e0_abs_err", abs(evals[0] - exact[0]), 1e-3))
        checks.append(_check("e1_abs_err", abs(evals[1] - exact[1]), 1e-3))
        return checks, ["spectrum.csv"]

    raise ConfigurationError(f"unhandled orderings scenario {scenario!r}")


# ---------------------------------------------------------------------------
# command entry points


_RUNNERS = {
    "evolve": _run_evolve,
    "sample": _run_sample,
    "equivariance": _run_equivariance,
    "orderings": _run_orderings,
}


def run_command(command: str, config: dict | None = None,
                out_dir: str | None = None) -> CommandResult:
    """Resolve config, run the command, manage the manifest lifecycle."""
    cfg = resolve_config(command, config)
    scenario = cfg["run.scenario"]
    out = _resolve_out_dir(command, scenario, cfg, out_dir)
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
    _write_manifest(out, manifest)
    try:
        checks, files = _RUNNERS[command](cfg, out)
    except StochactionError as exc:
        manifest["status"] = "error"
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        manifest["duration_seconds"] = round(_time.monotonic() - started, 3)
        _write_manifest(out, manifest)
        raise
    manifest["status"] = "complete"
    manifest["files"] = files
    manifest["checks"] = [
        {"name": c.name, "value": c.value, "tolerance": c.tolerance,
         "relation": c.relation, "passed": bool(c.passed)} for c in checks]
    manifest["duration_seconds"] = round(_time.monotonic() - started, 3)
    _write_manifest(out, manifest)
    return CommandResult(command=command, scenario=scenario, out_dir=out,
                         checks=checks, files=files)


def cmd_evolve(config: dict | None = None, out_dir: str | None = None) -> CommandResult:
    return run_command("evolve", config, out_dir)


def cmd_sample(config: dict | None = None, out_dir: str | None = None) -> CommandResult:
    return run_command("sample", config, out_dir)


def cmd_equivariance(config: dict | None = None, out_dir: str | None = None) -> CommandResult:
    return run_command("equivariance", config, out_dir)


def cmd_orderings(config: dict | None = None, out_dir: str | None = None) -> CommandResult:
    return run_command("orderings", config, out_dir)
