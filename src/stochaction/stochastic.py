"""Random action scales, exponential action-deviation sampling,
microscopic/effective velocities, and guided-ensemble transport.

Randomness comes from the counter streams in `kernels`: every draw is a
pure function of (seed, domain, step, particle, slot), so results are
bitwise reproducible and independent of scheduling or worker count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, ShapeError
from .evolution import WaveState, propagate_crank_nicolson, wave_phase
from .hamiltonian import (ClassicalSpec, QuantumOperator, guidance_field,
                          require_node_free)
from .kernels import (DOMAIN_DEVIATION, DOMAIN_INIT, DOMAIN_SOURCE,
                      SRC_BINARY, SRC_SMEARED, SRC_SPHERE, counter_uniform,
                      lambda_range, run_ensemble_window, run_sample_shards,
                      uniform_range)
from .lattice import (GridSpec, check_field, gradient, interp_linear,
                      trapezoid_cdf, whole_steps)

SOURCE_KINDS = ("binary", "sphere", "smeared")

_KIND_INDEX = {"binary": SRC_BINARY, "sphere": SRC_SPHERE, "smeared": SRC_SMEARED}

# uniform on +-width*sqrt(3) has standard deviation `width`
_SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class LambdaSource:
    kind: str
    hbar: float = 1.0
    width: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SOURCE_KINDS:
            raise ConfigurationError(
                f"unknown source kind {self.kind!r}; expected one of {SOURCE_KINDS}")
        if not (self.hbar > 0 and np.isfinite(self.hbar)):
            raise ConfigurationError(f"hbar must be positive, got {self.hbar}")
        if self.width < 0 or not np.isfinite(self.width):
            raise ConfigurationError(f"width must be >= 0, got {self.width}")
        if self.width > 0 and self.kind != "smeared":
            raise ConfigurationError("width applies to the smeared kind only")
        # keep |lambda| > 0: the uniform perturbation spans width*sqrt(3)
        if self.kind == "smeared" and self.jitter >= self.hbar:
            raise ConfigurationError(
                f"width {self.width} too large: magnitude could reach zero "
                f"(need width < hbar/sqrt(3) = {self.hbar / _SQRT3:.6g})")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")

    @property
    def kind_index(self) -> int:
        return _KIND_INDEX[self.kind]

    @property
    def jitter(self) -> float:
        """Half-width of the smeared kind's uniform magnitude perturbation."""
        return self.width * _SQRT3


def sample_lambda(source: LambdaSource, n: int, step: int = 0) -> np.ndarray:
    """Draw signed action scales from the source's counter stream.

    binary: +-hbar with equal probability.  sphere: the z-coordinate of a
    uniform point on the radius-hbar sphere picks the hemisphere, the
    magnitude is hbar always.  smeared: +-(hbar + uniform perturbation of
    standard deviation width), sign unbiased.
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    return lambda_range(source.seed, DOMAIN_SOURCE, step, n,
                        source.kind_index, source.hbar, source.jitter)


def sample_action_deviation(lam: float, n: int, seed: int = 0,
                            step: int = 0) -> np.ndarray:
    """n signed exponential action deviations at the scale lam:
    sign(lam) * Exp(mean |lam|/2).

    The deviation never crosses zero against the sign of lam, and its
    magnitude is memoryless with mean |lam|/2.
    """
    if np.ndim(lam):
        raise ShapeError(f"lam must be a scalar, got shape {np.shape(lam)}")
    if lam == 0 or not np.isfinite(lam):
        raise ConfigurationError("lam must be nonzero and finite")
    dev = uniform_range(seed, DOMAIN_DEVIATION, step, n, slot=0)

    def invert(s, e):
        # inverse CDF, sign(lam) ((-|lam|/2) log1p(-u)), on the uniforms'
        # own buffer; log1p(-u) is exact near u = 0 and u < 1 always, and
        # numpy's, whose bits libm's does not give (see kernels).
        # Rounding is symmetric in sign, so one product with -lam/2 gives
        # the same bits.  Each op is elementwise, so a shard of the
        # values gives the bits of the whole
        d = dev[s:e]
        np.negative(d, out=d)
        np.log1p(d, out=d)
        d *= -0.5 * lam

    run_sample_shards(dev.size, invert)
    return dev


def microscopic_velocity(q: float | np.ndarray, S: np.ndarray,
                         Omega: np.ndarray, lam: float, spec: ClassicalSpec,
                         grid: GridSpec) -> float | np.ndarray:
    """Scale-dependent particle velocity
    g(q) (dS/dq - A) + (lam/2) g(q) (dOmega/dq)/Omega
    with the fields linearly interpolated to q.
    """
    S = check_field(S, grid, "S")
    Omega = check_field(Omega, grid, "Omega")
    require_node_free(Omega, "Omega")
    dS_q = interp_linear(gradient(S, grid), grid, q)
    dOm_q = interp_linear(gradient(Omega, grid), grid, q)
    Om_q = interp_linear(Omega, grid, q)
    g = spec.g(q)
    A = spec.A(q)
    return g * (dS_q - A) + 0.5 * lam * g * dOm_q / Om_q


def effective_velocity(v_plus, v_minus):
    """Mean of the +lam and -lam microscopic velocities; the lam-odd
    osmotic parts cancel, leaving g(dS/dq - A)."""
    return 0.5 * (v_plus + v_minus)


def bohmian_velocity(state: WaveState, spec: ClassicalSpec,
                     grid: GridSpec) -> np.ndarray:
    """Guidance velocity field g (dS_Q/dq - A) from the unwrapped phase."""
    if grid != state.grid:
        raise ShapeError("grid does not match the state's grid")
    require_node_free(np.abs(state.psi) ** 2, "|psi|^2")
    return guidance_field(wave_phase(state), spec, grid)


# ---------------------------------------------------------------------------
# ensembles


@dataclass(frozen=True)
class EnsembleState:
    positions: np.ndarray
    lambdas: np.ndarray
    tau_Q: float
    t: float
    seed: int
    frozen: np.ndarray       # uint8 flags: 1 = hit the domain edge, stopped
    log_weights: np.ndarray  # accumulated -theta dt per particle

    def __post_init__(self):
        n = self.positions.shape[0]
        for name in ("lambdas", "frozen", "log_weights"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ShapeError(f"{name} shape {arr.shape} != ({n},)")
        if self.tau_Q <= 0 or not np.isfinite(self.tau_Q):
            raise ConfigurationError(f"tau_Q must be positive, got {self.tau_Q}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")

    @property
    def size(self) -> int:
        return self.positions.shape[0]

    @property
    def frozen_fraction(self) -> float:
        return float(np.mean(self.frozen != 0))


def sample_positions_from_density(density: np.ndarray, grid: GridSpec, n: int,
                                  seed: int) -> np.ndarray:
    """Inverse-CDF sampling of a gridded density (trapezoid CDF)."""
    density = check_field(density, grid, "density")
    if np.any(density < 0):
        raise ShapeError("density must be nonnegative")
    cdf = trapezoid_cdf(density, grid)
    total = cdf[-1]
    if total <= 0:
        raise ShapeError("density integrates to zero")
    cdf /= total
    pids = np.arange(n, dtype=np.uint64)
    u = counter_uniform(seed, DOMAIN_INIT, 0, pids, slot=0)
    return np.interp(u, cdf, grid.points())


def init_ensemble(state: WaveState, n: int, tau_Q: float,
                  seed: int) -> EnsembleState:
    """Positions sampled from |psi|^2, every lambda 0; propagate_ensemble
    draws each particle's lambda afresh at every micro step."""
    if n < 1:
        raise ConfigurationError(f"ensemble size must be >= 1, got {n}")
    density = np.abs(state.psi) ** 2
    positions = sample_positions_from_density(density, state.grid, n, seed)
    return EnsembleState(positions=positions, lambdas=np.zeros(n), tau_Q=tau_Q,
                         t=state.t, seed=seed, frozen=np.zeros(n, dtype=np.uint8),
                         log_weights=np.zeros(n))


@dataclass(frozen=True)
class WaveFrames:
    """Gridded guidance fields sampled along a wave trajectory.

    Velocity/weight tables (vb, osm, theta) are taken at window midpoints
    so a whole window of micro steps sees second-order-centered fields;
    densities are taken at window boundaries for equivariance checks.
    """
    times: np.ndarray       # window boundary times, shape (W+1,)
    dens: np.ndarray        # |psi|^2 at boundaries, shape (W+1, n)
    vb: np.ndarray          # g (dS/dq - A) at midpoints, shape (W, n)
    osm: np.ndarray         # 0.5 g (dOmega/dq)/Omega at midpoints
    theta: np.ndarray       # theta(S) at midpoints
    dt_window: float
    grid: GridSpec


def _guidance_tables(state: WaveState, spec: ClassicalSpec):
    grid = state.grid
    omega = np.abs(state.psi) ** 2
    require_node_free(omega, "|psi|^2")
    vb = guidance_field(wave_phase(state), spec, grid)
    osm = 0.5 * spec.g(grid.points()) * gradient(omega, grid) / omega
    return vb, osm, gradient(vb, grid)


def build_wave_frames(state: WaveState, H: QuantumOperator,
                      spec: ClassicalSpec, T: float, dt_window: float,
                      dt_cn: float) -> WaveFrames:
    """Crank-Nicolson drive of the wave with field extraction per window."""
    n_windows = whole_steps(T, dt_window, "dt_window", "T")
    # the fields are taken at window midpoints, so dt_cn must divide half
    # a window
    n_half = whole_steps(0.5 * dt_window, dt_cn, "dt_cn", "half of dt_window")
    dt_half = 0.5 * dt_window / n_half
    grid = state.grid
    dens = np.empty((n_windows + 1, grid.n))
    vb = np.empty((n_windows, grid.n))
    osm = np.empty((n_windows, grid.n))
    th = np.empty((n_windows, grid.n))
    dens[0] = np.abs(state.psi) ** 2
    cur = state
    for w in range(n_windows):
        cur = propagate_crank_nicolson(cur, H, dt_half, n_half)
        vb[w], osm[w], th[w] = _guidance_tables(cur, spec)
        cur = propagate_crank_nicolson(cur, H, dt_half, n_half)
        dens[w + 1] = np.abs(cur.psi) ** 2
    times = state.t + dt_window * np.arange(n_windows + 1)
    return WaveFrames(times=times, dens=dens, vb=vb, osm=osm, theta=th,
                      dt_window=dt_window, grid=grid)


def _bin_probabilities(density: np.ndarray, grid: GridSpec,
                       edges: np.ndarray) -> np.ndarray:
    """Probability mass of a gridded density inside each histogram bin."""
    at_edges = np.interp(edges, grid.points(), trapezoid_cdf(density, grid))
    p = np.diff(at_edges)
    total = p.sum()
    if total <= 0:
        raise ShapeError("wave density carries no mass over the bins")
    return p / total


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Total-variation distance between two discrete distributions."""
    return 0.5 * float(np.sum(np.abs(p - q)))


def _snapshot(ens_positions, log_weights, frozen, t, wave_density, grid,
              edges) -> dict:
    centers = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    counts, _ = np.histogram(ens_positions, bins=edges)
    n_total = ens_positions.shape[0]
    p_emp = counts / n_total
    w = np.exp(log_weights - np.max(log_weights))
    w_sum = w.sum()
    wcounts, _ = np.histogram(ens_positions, bins=edges, weights=w)
    p_wemp = wcounts / w_sum
    p_wave = _bin_probabilities(wave_density, grid, edges)
    return {
        "t": float(t),
        "bin_centers": centers,
        "histogram_density": p_emp / widths,
        "weighted_density": p_wemp / widths,
        "wave_density": np.interp(centers, grid.points(), wave_density),
        "tv_distance": tv_distance(p_emp, p_wave),
        "tv_weighted": tv_distance(p_wemp, p_wave),
        "frozen_fraction": float(np.mean(frozen != 0)),
    }


def propagate_ensemble(ens: EnsembleState, frames: WaveFrames,
                       spec: ClassicalSpec, T: float,
                       source: LambdaSource | None = None, bins: int = 50,
                       snapshots: int = 5) -> tuple[EnsembleState, list[dict]]:
    """Micro-step the ensemble along the wave trajectory for duration T.

    Per micro step of length tau_Q each particle redraws lambda from the
    source, moves by its microscopic velocity, and accumulates the
    log-weight -theta dt.  With no source every lambda is 0: each particle
    moves with the guidance field alone, and the osmotic table is not
    felt.  Particles stepping outside the domain are frozen at the edge
    and counted.  Returns the final ensemble and per-snapshot
    equivariance diagnostics (unweighted histogram is the transported
    density; the weighted one is reported alongside).
    """
    if source is None:
        src_kind, mag0, jitter = SRC_BINARY, 0.0, 0.0
    else:
        src_kind, mag0, jitter = source.kind_index, source.hbar, source.jitter
    grid = frames.grid
    n_sub = whole_steps(frames.dt_window, ens.tau_Q, "tau_Q", "the window")
    n_windows = whole_steps(T, frames.dt_window, "the window", "T")
    if n_windows > frames.vb.shape[0]:
        raise ConfigurationError(
            f"wave trajectory covers {frames.vb.shape[0]} windows, "
            f"need {n_windows}")
    if bins < 2:
        raise ConfigurationError(f"bins must be >= 2, got {bins}")

    edges = np.linspace(grid.q_min, grid.q_max, bins + 1)
    # freeze just inside the last interpolation cell
    freeze_lo = grid.q_min + grid.dq
    freeze_hi = grid.q_max - grid.dq

    qs = np.ascontiguousarray(ens.positions, dtype=float).copy()
    lams = np.ascontiguousarray(ens.lambdas, dtype=float).copy()
    logws = np.ascontiguousarray(ens.log_weights, dtype=float).copy()
    frozen = np.ascontiguousarray(ens.frozen, dtype=np.uint8).copy()

    want = {int(round(x)) for x in
            np.linspace(0, n_windows, min(max(snapshots, 2), n_windows + 1))} \
        if n_windows > 0 else {0}
    diags = []
    if 0 in want:
        diags.append(_snapshot(qs, logws, frozen, frames.times[0],
                               frames.dens[0], grid, edges))
    for w in range(n_windows):
        run_ensemble_window(qs, lams, logws, frozen,
                            frames.vb[w], frames.osm[w], frames.theta[w],
                            grid.q_min, grid.dq, ens.tau_Q, n_sub,
                            step0=w * n_sub, seed=ens.seed,
                            src_kind=src_kind, mag0=mag0, jitter=jitter,
                            freeze_lo=freeze_lo, freeze_hi=freeze_hi)
        if (w + 1) in want:
            diags.append(_snapshot(qs, logws, frozen, frames.times[w + 1],
                                   frames.dens[w + 1], grid, edges))
    out = replace(ens, positions=qs, lambdas=lams, log_weights=logws,
                  frozen=frozen, t=ens.t + n_windows * frames.dt_window)
    return out, diags
