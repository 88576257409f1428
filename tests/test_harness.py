"""Scenarios end to end through `run_command` and the CLI: exit codes,
manifests, and CSVs that are byte-identical across re-runs, across BLAS
thread counts and across ensemble worker counts."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stochaction import cli, harness, kernels
from stochaction.errors import ConfigurationError
from stochaction.hamiltonian import (build_naive_ordering,
                                     build_quantum_hamiltonian, make_system)
from stochaction.harness import (_RUNNERS, SCENARIOS, _build_grid,
                                 _build_system, _fmt, _fmt_row, _low_spectrum,
                                 _ordering_rows, _snapshot_rows, resolve_config,
                                 run_command, write_csv)

# every scenario that runs in about 3 s or less on one core (bohmian on
# two; on one it takes about 5 s)
FAST_SCENARIOS = [
    ("evolve", "free_gaussian"),
    ("evolve", "harmonic_coherent"),
    ("evolve", "harmonic_stationary"),
    ("evolve", "phase_offset"),
    ("evolve", "classical_limit"),
    ("evolve", "propagator_quality"),
    ("orderings", "ordering_contrast"),
    ("orderings", "harmonic_spectrum"),
    ("equivariance", "bohmian"),
    *(("sample", name) for name in SCENARIOS["sample"]),
]


def _csv_bytes(out_dir: Path, files: list) -> dict:
    return {name: (out_dir / name).read_bytes() for name in files}


def _run(command: str, scenario: str, out_dir: Path):
    result = run_command(command, {"run.scenario": scenario}, str(out_dir))
    manifest = json.loads((out_dir / "manifest.json").read_text())
    return result, manifest


@pytest.mark.parametrize("command,scenario", FAST_SCENARIOS)
def test_scenario_passes_and_reruns_byte_identically(tmp_path, command, scenario):
    first, manifest = _run(command, scenario, tmp_path / "a")
    assert first.exit_code == 0, [c for c in first.checks if not c.passed]
    assert manifest["status"] == "complete"
    assert manifest["files"] == first.files and first.files
    second, _ = _run(command, scenario, tmp_path / "b")
    assert second.files == first.files
    assert (_csv_bytes(tmp_path / "b", second.files)
            == _csv_bytes(tmp_path / "a", first.files))


def _strict_manifest(out_dir: Path) -> dict:
    """manifest.json, read as RFC 8259 JSON: json.dump's default would
    write a non-finite value as the bare token Infinity or NaN."""
    def reject(token):
        raise ValueError(f"manifest.json holds the non-JSON token {token}")
    return json.loads((out_dir / "manifest.json").read_text(),
                      parse_constant=reject)


def test_exponential_law_with_no_magnitude_above_the_mean_fails_its_tail_check(
        tmp_path):
    # 3 draws: at lam = 1 and 2 no magnitude exceeds the mean |lam|/2, so
    # the tail ratio is undefined; it fails its check, and the run completes
    result = run_command("sample", {"run.scenario": "exponential_law",
                                    "ensemble.size": 3, "run.seed": 1},
                         str(tmp_path))
    assert result.exit_code == 1
    checks = {c.name: c for c in result.checks}
    for lam in ("1", "2"):
        tail = checks[f"tail_ratio_rel_err_lam_{lam}"]
        assert np.isnan(tail.value) and not tail.passed
    assert all(checks[f"sign_violations_lam_{lam}"].passed
               for lam in ("0.5", "1", "2"))
    manifest = _strict_manifest(tmp_path)
    assert manifest["status"] == "complete"
    assert manifest["files"] == ["deviation_stats.csv", "deviation_hist.csv"]
    values = {c["name"]: c["value"] for c in manifest["checks"]}
    assert values["tail_ratio_rel_err_lam_1"] == "nan"
    rows = (tmp_path / "deviation_stats.csv").read_text().splitlines()[-2:]
    assert [row.split(",")[7] for row in rows] == ["nan", "nan"]


@pytest.mark.parametrize("size,seed", [(1, 0), (2, 1), (2, 5)])
def test_a_binary_source_whose_signs_all_agree_fails_its_bias_check(
        tmp_path, size, seed):
    # one draw, or two of one sign (+hbar at seed 1, -hbar at seed 5): the
    # sample has no spread, and its mean of +-hbar is an infinite bias
    result = run_command("sample", {"run.scenario": "binary_source",
                                    "ensemble.size": size, "run.seed": seed},
                         str(tmp_path))
    assert result.exit_code == 1
    bias = {c.name: c for c in result.checks}["sign_bias_sigma"]
    assert bias.value == np.inf and not bias.passed
    row = (tmp_path / "lambda_stats.csv").read_text().splitlines()[-1]
    assert row.split(",")[3:5] == ["0.0", "inf"]
    values = {c["name"]: c["value"]
              for c in _strict_manifest(tmp_path)["checks"]}
    assert values["sign_bias_sigma"] == "inf"


def test_ordering_contrast_computes_each_distinct_spectrum_once(
        tmp_path, monkeypatch):
    # at constant g both naive builds equal the sandwich byte for byte, so
    # the six orderings have four distinct spectra, each taken on a real
    # matrix (LAPACK dgeev, not zgeev)
    dtypes = []
    eigvals = np.linalg.eigvals

    def counted(matrix):
        dtypes.append(matrix.dtype)
        return eigvals(matrix)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    result = run_command("orderings", {"run.scenario": "ordering_contrast",
                                       "grid.n": 64}, str(tmp_path))
    assert result.exit_code == 0
    assert dtypes == [np.float64] * 4


def _registry_ordering_systems():
    """ordering_contrast's grid and hbar, and its two systems: the
    variable-mass preset and the constant-g (harmonic) one."""
    cfg = resolve_config("orderings", {"run.scenario": "ordering_contrast"})
    systems = {"variable_mass": _build_system(cfg),
               "constant_g": make_system("harmonic", m=cfg["system.m"],
                                         omega=cfg["system.omega"])}
    return _build_grid(cfg), cfg["source.hbar"], systems


@pytest.mark.parametrize("case", ["variable_mass", "constant_g"])
@pytest.mark.parametrize("build", ["sandwich", "g_pp", "pp_g"])
def test_the_real_ordering_spectra_agree_with_the_complex_solver(case, build):
    grid, hbar, systems = _registry_ordering_systems()
    spec = systems[case]
    sandwich = build_quantum_hamiltonian(spec, grid, hbar)
    op = (sandwich if build == "sandwich"
          else build_naive_ordering(spec, grid, hbar, build))
    low, _ = _low_spectrum(op.matrix)
    evals = np.linalg.eigvals(op.matrix)
    assert evals.dtype == np.complex128
    np.testing.assert_allclose(low, np.sort(evals.real)[:5], rtol=0,
                               atol=1e-11)
    if build == "sandwich" or case == "constant_g":
        # the sandwich's spectrum, which the naive builds share at constant g
        np.testing.assert_allclose(low, sandwich.eigensystem[0][:5], rtol=0,
                                   atol=1e-11)


def test_ordering_rows_refuse_an_operator_whose_links_carry_a_phase():
    grid, hbar, _ = _registry_ordering_systems()
    spec = make_system("gauged", a1=0.5)
    with pytest.raises(ConfigurationError, match="real matrices"):
        _ordering_rows(spec, grid, hbar, "gauged")


def test_snapshot_rows_write_the_bytes_of_per_point_float_rows(tmp_path):
    # the rows a snapshot table had before it was formatted column by
    # column: (t, q[i], *field[i]) of numpy floats, each cell written by _fmt
    cells = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 1e-05,
             0.1 + 0.2, 2.0]
    q = np.linspace(-1.0, 1.0, len(cells))
    a = np.array(cells)
    b = a[::-1].copy()
    flipped = np.where(a == 0.0, -a, a)   # equal to a, but not byte-equal
    snapshots = [(-0.25, a, a.copy(), b, flipped), (0.0, b, b, a, a),
                 (0.1 + 0.2, flipped, a, a.copy(), b)]
    old_rows = [(t, q[i], *(f[i] for f in fields))
                for t, *fields in snapshots for i in range(len(q))]
    new_rows = list(_snapshot_rows(list(map(float.__repr__, q.tolist())),
                                   snapshots))
    assert [_fmt_row(r) for r in new_rows] == [",".join(map(_fmt, r))
                                               for r in old_rows]
    header = ["t", "q", "f1", "f2", "f3", "f4"]
    write_csv(str(tmp_path / "old.csv"), {"k": 1.5}, header, old_rows)
    write_csv(str(tmp_path / "new.csv"), {"k": 1.5}, header,
              _snapshot_rows(list(map(float.__repr__, q.tolist())),
                             iter(snapshots)))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    # a str cell is written as is, also beside other kinds of cell
    assert _fmt_row(("ratio", np.float64(0.5), 3, True)) == "ratio,0.5,3,true"


def test_chain_snapshot_tables_pass_one_row_per_grid_point_per_snapshot(
        tmp_path, monkeypatch):
    # write_csv is handed each row, so a count of the rows it receives (the
    # benchmark's traced harness.csv_rows) still counts table lines
    received = {}
    original = harness.write_csv

    def counted(path, meta, header, rows):
        rows = list(rows)
        received[os.path.basename(path)] = len(rows)
        original(path, meta, header, rows)

    monkeypatch.setattr(harness, "write_csv", counted)
    result = run_command("evolve", {"run.scenario": "harmonic_stationary",
                                    "time.T": 5e-4}, str(tmp_path))
    assert result.exit_code == 0
    snapshots, n = 11, 384   # t = 0 and the 10 steps
    assert received == {"wave_density.csv": snapshots * n,
                        "madelung_pair.csv": snapshots * n,
                        "chain_equivalence.csv": snapshots}


def test_every_scenario_has_one_runner():
    names = [name for scenarios in SCENARIOS.values() for name in scenarios]
    assert len(names) == len(set(names))
    assert set(names) == set(_RUNNERS)


# time.dt values that do not divide the scenario's time.T: rounding T/dt
# would end phase_offset at t = 0.05001 and classical_limit at 0.9999.
# A zero step would divide by zero, a NaN one fail to round
@pytest.mark.parametrize("scenario,dt", [
    ("harmonic_stationary", 3e-5),
    ("phase_offset", 3e-5),
    ("classical_limit", 3e-4),
    ("propagator_quality", 3e-4),
    ("propagator_quality", 0.0),
    ("phase_offset", float("nan")),
])
def test_evolve_rejects_a_step_that_does_not_divide_the_horizon(
        tmp_path, scenario, dt):
    with pytest.raises(ConfigurationError, match="time.dt"):
        run_command("evolve", {"run.scenario": scenario, "time.dt": dt},
                    str(tmp_path))
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert manifest["files"] == []


# equivariance takes its wave-field frames at window midpoints, so
# time.dt must divide half of time.dt_window; 3e-3 used to run at 2.5e-3
# and 6e-3 at 5e-3 while the manifest recorded the configured step, and 0
# to divide by zero.  A run needs 0 < time.dt_window <= time.T < inf:
# time.T = 0 or NaN used to run no window and pass at the sampling noise
# floor, and time.T = inf or time.dt_window = NaN to escape as a
# traceback with the manifest left "running"
@pytest.mark.parametrize("key,value,match", [
    pytest.param("time.dt", 0.0, "dt_cn", id="0.0"),
    pytest.param("time.dt", -1e-3, "dt_cn", id="-0.001"),
    pytest.param("time.dt", 3e-3, "dt_cn", id="0.003"),
    pytest.param("time.dt", 6e-3, "dt_cn", id="0.006"),
    pytest.param("time.T", 0.0, "time.T", id="T-0.0"),
    pytest.param("time.T", float("nan"), "time.T", id="T-nan"),
    pytest.param("time.T", float("inf"), "time.T", id="T-inf"),
    pytest.param("time.dt_window", float("nan"), "time.dt_window",
                 id="dt_window-nan"),
])
def test_equivariance_rejects_a_step_that_does_not_divide_half_a_window(
        tmp_path, capsys, key, value, match):
    config = {"run.scenario": "bohmian", key: value}
    with pytest.raises(ConfigurationError, match=match):
        run_command("equivariance", config, str(tmp_path / "api"))
    cfg = tmp_path / "step.cfg"
    cfg.write_text(f"{key} = {value!r}\n")
    assert cli.main(["equivariance", "--scenario", "bohmian", "--config",
                     str(cfg), "--out", str(tmp_path / "cli")]) == 2
    assert "configuration error" in capsys.readouterr().err
    for out in ("api", "cli"):
        manifest = json.loads((tmp_path / out / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["files"] == []


def test_a_key_the_scenario_does_not_set_is_named_not_defaulted(tmp_path):
    # a Gaussian packet reads state.sigma, which harmonic_coherent (a
    # coherent state) does not set; it used to run at sigma = 1.0
    config = {"run.scenario": "harmonic_coherent", "state.kind": "gaussian"}
    with pytest.raises(ConfigurationError, match=r"'state\.sigma'"):
        run_command("evolve", config, str(tmp_path))
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert manifest["files"] == []


def _bohmian_density_csvs(out_dir: Path, **config) -> dict:
    result = run_command("equivariance", {
        "run.scenario": "bohmian", "time.T": 0.04, "ensemble.size": 4000,
        **config}, str(out_dir))
    return _csv_bytes(out_dir, [f for f in result.files
                                if f in ("equivariance.csv", "weighted.csv")])


def test_disable_lambda_runs_the_ensemble_without_its_source(tmp_path):
    # with ensemble.disable_lambda the ensemble gets no source: another
    # kind leaves its CSVs the same bytes, while with lambda on the kind
    # moves them (source.hbar is not varied: it also sets the wave's hbar)
    smeared = {"source.kind": "smeared", "source.width": 0.3}
    base = _bohmian_density_csvs(tmp_path / "base")
    assert sorted(base) == ["equivariance.csv", "weighted.csv"]
    assert _bohmian_density_csvs(tmp_path / "other", **smeared) == base
    on = _bohmian_density_csvs(tmp_path / "on",
                               **{"ensemble.disable_lambda": False})
    on_smeared = _bohmian_density_csvs(
        tmp_path / "on_smeared", **{"ensemble.disable_lambda": False},
        **smeared)
    assert on != base and on_smeared != on


def test_propagator_quality_records_the_last_step(tmp_path):
    # 25 steps: the ten record bounds must end at step 25, not at 24
    result = run_command("evolve", {"run.scenario": "propagator_quality",
                                    "time.T": 0.025}, str(tmp_path))
    assert result.exit_code == 0
    lines = (tmp_path / "propagator_quality.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
    assert len(rows) == 10
    assert float(rows[-1][0]) == 25 * 1e-3


@pytest.mark.parametrize("key,value", [
    ("source.hbar", "1"),             # float key: a string
    ("time.T", True),                 # float key: a bool
    ("ensemble.size", "10"),          # int key: a string
    ("ensemble.size", 10.0),          # int key: a float
    ("ensemble.size", True),          # int key: a bool
    ("grid.n", np.float64(64.0)),     # int key: a numpy float
    ("run.seed", 1.5),
    ("ensemble.disable_lambda", 1),   # bool key: an int
    ("run.scenario", 5),              # str key: an int
    ("time.tau_sweep", 0.01),         # float_list key: a bare number
    ("time.tau_sweep", ("1e-2",)),    # float_list key: a string entry
    ("time.tau_sweep", [1e-2, None]),
    ("time.tau_sweep", ()),           # float_list key: empty
    ("ensemble.size", 0),             # below its minimum
    ("run.seed", -1),
    ("ensemble.bins", 1),             # a sample run wrote an empty histogram
])
def test_resolve_config_rejects_mistyped_values(key, value):
    with pytest.raises(ConfigurationError, match=key.replace(".", r"\.")):
        resolve_config("equivariance", {key: value})


def test_resolve_config_normalizes_accepted_types():
    cfg = resolve_config("equivariance", {
        "time.T": 1, "grid.n": np.int64(64), "time.tau_sweep": [1e-2, 1],
        "ensemble.disable_lambda": np.bool_(True)})
    assert cfg["time.T"] == 1.0 and type(cfg["time.T"]) is float
    assert cfg["grid.n"] == 64 and type(cfg["grid.n"]) is int
    assert cfg["time.tau_sweep"] == (1e-2, 1.0)
    assert cfg["ensemble.disable_lambda"] is True


def test_mistyped_value_fails_before_the_run_starts(tmp_path):
    # it used to escape as a TypeError with the manifest left "running"
    with pytest.raises(ConfigurationError):
        run_command("evolve", {"source.hbar": "1"}, str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


def test_cli_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("grid.n = 64\ngrid.spacing = 0.1\n")
    assert cli.main(["evolve", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
    assert "unknown config key 'grid.spacing'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# Small versions of the two scenarios whose CSVs lean on the wave layer
# (banded Crank-Nicolson, the eigen oracle, and the guidance frames), and
# ordering_contrast at the registry's n = 256, whose dense spectra run
# LAPACK's blocked, BLAS-threaded dgeev
_THREAD_RUN = """
import sys
from stochaction.harness import run_command
out = sys.argv[1]
run_command("evolve", {"run.scenario": "propagator_quality", "grid.n": 128},
            out + "/propagator_quality")
run_command("equivariance", {"run.scenario": "tau_sweep", "time.T": 0.04,
                             "ensemble.size": 10000}, out + "/tau_sweep")
run_command("orderings", {"run.scenario": "ordering_contrast"},
            out + "/ordering_contrast")
"""


def _source_env(**overrides) -> dict:
    """This process's environment, with the source tree on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, **overrides, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def _run_at_blas_threads(threads: int, out_dir: Path) -> dict:
    env = _source_env(OPENBLAS_NUM_THREADS=str(threads),
                      OMP_NUM_THREADS=str(threads))
    subprocess.run([sys.executable, "-c", _THREAD_RUN, str(out_dir)],
                   env=env, check=True, timeout=300)
    return {str(p.relative_to(out_dir)): p.read_bytes()
            for p in sorted(out_dir.rglob("*.csv"))}


def test_csvs_do_not_depend_on_blas_thread_count(tmp_path):
    one = _run_at_blas_threads(1, tmp_path / "t1")
    two = _run_at_blas_threads(2, tmp_path / "t2")
    assert sorted(one) == [
        "ordering_contrast/orderings.csv",
        "propagator_quality/propagator_quality.csv",
        "tau_sweep/equivariance.csv", "tau_sweep/sweep.csv",
        "tau_sweep/weighted.csv"]
    for name in one:
        assert one[name] == two[name], name


_NO_SCIPY_RUN = """
import json, sys
from stochaction.harness import SCENARIOS, run_command
out = sys.argv[1]
for name in SCENARIOS["sample"]:
    run_command("sample", {"run.scenario": name, "ensemble.size": 1000},
                out + "/" + name)
run_command("orderings", {"run.scenario": "ordering_contrast", "grid.n": 64},
            out + "/ordering_contrast")
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))))
"""


def test_sample_scenarios_and_ordering_contrast_never_load_scipy(tmp_path):
    # scipy is imported where its two LAPACK calls are made, so a process
    # that only samples, or only contrasts orderings, never pays for it
    run = subprocess.run([sys.executable, "-c", _NO_SCIPY_RUN, str(tmp_path)],
                         env=_source_env(), check=True, timeout=300,
                         capture_output=True, text=True)
    assert json.loads(run.stdout) == []


def _tau_sweep_at_workers(workers: int, out_dir: Path, monkeypatch):
    monkeypatch.setattr(kernels, "_WORKERS", workers)
    monkeypatch.setattr(kernels, "_pool", None)
    try:
        result = run_command("equivariance", {
            "run.scenario": "tau_sweep", "time.T": 0.04,
            "ensemble.size": 1 << 16}, str(out_dir))
        sharded = kernels._pool is not None
    finally:
        if kernels._pool is not None:
            kernels._pool.shutdown()
    assert sharded == (workers > 1)
    # at this short T the sweep is too coarse for its monotone check to
    # pass; the run must still complete and write every file
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    checks = [(c.name, c.value) for c in result.checks]
    return _csv_bytes(out_dir, result.files), checks


def test_csvs_do_not_depend_on_ensemble_worker_count(tmp_path, monkeypatch):
    one, one_checks = _tau_sweep_at_workers(1, tmp_path / "w1", monkeypatch)
    two, two_checks = _tau_sweep_at_workers(2, tmp_path / "w2", monkeypatch)
    assert sorted(one) == ["equivariance.csv", "sweep.csv", "weighted.csv"]
    assert one == two
    assert one_checks == two_checks


def _exponential_law_at_workers(workers: int, out_dir: Path, monkeypatch):
    monkeypatch.setattr(kernels, "_WORKERS", workers)
    monkeypatch.setattr(kernels, "_pool", None)
    try:
        result = run_command("sample", {
            "run.scenario": "exponential_law",
            "ensemble.size": 2 * kernels._SAMPLE_SHARD_MIN}, str(out_dir))
        sharded = kernels._pool is not None
    finally:
        if kernels._pool is not None:
            kernels._pool.shutdown()
    assert sharded == (workers > 1)
    assert result.exit_code == 0
    checks = [(c.name, c.value) for c in result.checks]
    return _csv_bytes(out_dir, result.files), checks


def test_sample_csvs_do_not_depend_on_worker_count(tmp_path, monkeypatch):
    # at twice the sample shard gate two workers split every draw, inverse
    # CDF and reduction in two
    one, one_checks = _exponential_law_at_workers(1, tmp_path / "w1",
                                                  monkeypatch)
    two, two_checks = _exponential_law_at_workers(2, tmp_path / "w2",
                                                  monkeypatch)
    assert sorted(one) == ["deviation_hist.csv", "deviation_stats.csv"]
    assert one == two
    assert one_checks == two_checks
