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

from dense import dense
from stochaction import cli, harness, kernels
from stochaction.errors import ConfigurationError
from stochaction.evolution import eigenpairs
from stochaction.hamiltonian import (PRESET_PARAMS, build_naive_ordering,
                                     build_quantum_hamiltonian, make_system,
                                     symmetrized)
from stochaction.harness import (_RUNNERS, KEY_TYPES, SCENARIOS, STATE_PARAMS,
                                 _build_grid, _build_system, _fmt, _fmt_row,
                                 _snapshot_rows, parse_config,
                                 resolve_config, run_command, write_csv)

# every scenario that runs in about 3 s or less on one core (bohmian on
# two; on one it takes about 5 s)
FAST_SCENARIOS = [
    ("evolve", "free_gaussian"),
    ("evolve", "harmonic_coherent"),
    ("evolve", "harmonic_stationary"),
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
    # at constant g both naive builds equal the sandwich byte for byte, and
    # at variable g pp_g's symmetrization equals g_pp's byte for byte: the
    # six orderings have three distinct spectra, each an index solve of a
    # symmetric operator
    solved = []
    solve = harness.eigenpairs

    def counted(H, k):
        solved.append((np.array_equal(H.lower, H.upper), k))
        return solve(H, k)

    monkeypatch.setattr(harness, "eigenpairs", counted)
    result = run_command("orderings", {"run.scenario": "ordering_contrast",
                                       "grid.n": 64}, str(tmp_path))
    assert result.exit_code == 0
    assert solved == [(True, 5)] * 3
    lines = (tmp_path / "orderings.csv").read_text().splitlines()
    header, *rows = [line.split(",") for line in lines
                     if not line.startswith("#")]
    rows = {(r[0], r[1]): dict(zip(header, r)) for r in rows}
    spectrum = ["e0", "e1", "e2", "e3", "e4"]
    assert header[-5:] == spectrum
    g_pp, pp_g = rows["variable_mass", "g_pp"], rows["variable_mass", "pp_g"]
    assert [pp_g[k] for k in spectrum] == [g_pp[k] for k in spectrum]


def _registry_ordering_systems():
    """ordering_contrast's grid and hbar, and its two systems: the
    variable-mass preset and the constant-g (harmonic) one."""
    cfg = resolve_config("orderings", {"run.scenario": "ordering_contrast"})
    systems = {"variable_mass": _build_system(cfg),
               "constant_g": make_system("harmonic", m=cfg["system.m"],
                                         omega=cfg["system.omega"])}
    return _build_grid(cfg), cfg["source.hbar"], systems


@pytest.mark.parametrize("case", ["variable_mass", "constant_g"])
def test_the_ordering_contrasts_read_from_the_diagonals_are_the_dense_ones(
        case):
    # each is a maximum over the same floats, to which the dense form's
    # off-band zeros add nothing, so orderings.csv keeps its bytes
    grid, hbar, systems = _registry_ordering_systems()
    spec = systems[case]
    rows, _ = harness._ordering_rows(spec, grid, hbar, case)
    sandwich = dense(build_quantum_hamiltonian(spec, grid, hbar))
    for row in rows:
        M = (sandwich if row[1] == "sandwich"
             else dense(build_naive_ordering(spec, grid, hbar, row[1])))
        defect = float(np.max(np.abs(M - M.T)))
        assert row[2:5] == (defect, defect / float(np.max(np.abs(M))),
                            float(np.max(np.abs(M - sandwich))))


@pytest.mark.parametrize("case", ["variable_mass", "constant_g"])
@pytest.mark.parametrize("build", ["sandwich", "g_pp", "pp_g"])
def test_each_symmetrized_spectrum_is_its_dense_orderings(case, build):
    # the similarity keeps the spectrum: every level of the symmetric
    # operator, and the five that orderings.csv reads, against dgeev's on
    # the dense ordering, which finds it real (measured within 3.9e-13
    # relative)
    grid, hbar, systems = _registry_ordering_systems()
    spec = systems[case]
    sandwich = build_quantum_hamiltonian(spec, grid, hbar)
    op = (sandwich if build == "sandwich"
          else build_naive_ordering(spec, grid, hbar, build))
    evals = np.linalg.eigvals(dense(op))
    assert evals.dtype == np.float64
    ref = np.sort(evals)
    sym = symmetrized(op)
    assert np.array_equal(sym.lower, sym.upper)
    levels = kernels.tridiagonal_eigh(sym.diag, sym.upper)[0]
    np.testing.assert_allclose(levels, ref, rtol=1e-12, atol=0)
    low = eigenpairs(sym, 5)[0]
    np.testing.assert_allclose(low, ref[:5], rtol=1e-12, atol=0)
    if build == "sandwich" or case == "constant_g":
        # the sandwich's spectrum, which the naive builds share at constant g
        levels = kernels.tridiagonal_eigh(sandwich.diag, sandwich.upper)[0]
        np.testing.assert_allclose(low, levels[:5],
                                   rtol=1e-12, atol=0)


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
    # benchmark's traced harness.csv_rows) still counts table lines.  The
    # polar table holds one state's R and S, with no mirror columns
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
    headers = {name: next(line for line in
                          (tmp_path / name).read_text().splitlines()
                          if not line.startswith("#"))
               for name in received}
    assert headers == {"wave_density.csv": "t,q,density",
                       "madelung_pair.csv": "t,q,R,S",
                       "chain_equivalence.csv":
                           "t,l2_density,phase_grad_dist"}


def test_every_scenario_has_one_runner():
    names = [name for scenarios in SCENARIOS.values() for name in scenarios]
    assert len(names) == len(set(names))
    assert set(names) == set(_RUNNERS)


# time.dt values that do not divide the scenario's time.T: rounding T/dt
# would end harmonic_stationary at t = 0.50001 and classical_limit at
# 0.9999.  A zero step would divide by zero, a NaN one fail to round
@pytest.mark.parametrize("scenario,dt", [
    ("harmonic_stationary", 3e-5),
    ("classical_limit", 3e-4),
    ("propagator_quality", 3e-4),
    ("propagator_quality", 0.0),
    ("harmonic_stationary", float("nan")),
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
    # coherent state) does not set; it used to run at sigma = 1.0, and then
    # to be refused in the run, leaving an error run directory
    config = {"run.scenario": "harmonic_coherent", "state.kind": "gaussian"}
    with pytest.raises(ConfigurationError, match=r"'state\.sigma'"):
        run_command("evolve", config, str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


def test_a_state_kind_takes_its_parameters_on_every_command(tmp_path):
    # no equivariance scenario sets state.sigma, which used to be refused
    # there, so a Gaussian state could not be configured on bohmian
    result = run_command("equivariance", {
        "run.scenario": "bohmian", "state.kind": "gaussian",
        "state.sigma": 0.5, "time.T": 0.04, "ensemble.size": 4000},
        str(tmp_path))
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    assert manifest["config"]["state.sigma"] == 0.5
    assert result.files == manifest["files"] and result.files


def test_a_coherent_state_reads_the_presets_default_parameters(tmp_path):
    # free_gaussian's registry entry sets no system.omega: the coherent
    # state takes the harmonic preset's default, as the operator does,
    # where it used to fail in the run on the unset key
    result = run_command("evolve", {
        "run.scenario": "free_gaussian", "system.preset": "harmonic",
        "state.kind": "coherent", "time.T": 1.25e-3}, str(tmp_path))
    assert result.passed


def test_a_variable_mass_chain_passes_both_chain_checks(tmp_path):
    # no registry scenario runs the chain at a position-dependent g, whose
    # dg term reaches every interior cell of the polar kernel.  Measured
    # 1.96e-7 and 9.47e-6 against bounds of 1e-3 and 1e-2; with the kernel's
    # dg term dropped they read 1.2e-4 and 4.1e-3, which still pass, so the
    # values are also held to ten times the measured ones
    result = run_command("evolve", {
        "run.scenario": "free_gaussian", "system.preset": "variable_mass",
        "time.T": 0.05}, str(tmp_path))
    cfg = resolve_config("evolve", {"run.scenario": "free_gaussian",
                                    "system.preset": "variable_mass"})
    spec, grid = _build_system(cfg), _build_grid(cfg)
    assert np.all(np.asarray(spec.dg(grid.points())) != 0.0)
    checks = {c.name: c for c in result.checks}
    assert sorted(checks) == ["chain_l2_density_max", "chain_phase_grad_max"]
    assert all(c.passed for c in checks.values()), checks
    assert checks["chain_l2_density_max"].value < 2e-6
    assert checks["chain_phase_grad_max"].value < 1e-4


def test_the_run_directory_is_the_argument_then_run_out_then_the_env(
        tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(harness.OUTPUT_ENV, "from_env")
    config = {"run.scenario": "binary_source", "ensemble.size": 1000}

    def made(out_dir, **extra):
        result = run_command("sample", {**config, **extra}, out_dir)
        assert (Path(result.out_dir) / "manifest.json").is_file()
        return result.out_dir

    assert made("from_arg", **{"run.out": "from_key"}) == "from_arg"
    assert made(None, **{"run.out": "from_key"}) == "from_key"
    assert made(None) == "from_env"
    # the CLI's --out is run.out, ahead of the environment
    assert cli.main(["sample", "--scenario", "binary_source",
                     "--out", "from_cli"]) == 0
    assert (tmp_path / "from_cli" / "manifest.json").is_file()
    monkeypatch.delenv(harness.OUTPUT_ENV)
    assert made(None) == os.path.join("runs", "sample_binary_source")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "from_arg", "from_cli", "from_env", "from_key", "runs"]


def _bohmian_density_csvs(out_dir: Path, **config) -> dict:
    result = run_command("equivariance", {
        "run.scenario": "bohmian", "time.T": 0.04, "ensemble.size": 4000,
        **config}, str(out_dir))
    return _csv_bytes(out_dir, [f for f in result.files
                                if f == "equivariance.csv"])


def test_disable_lambda_runs_the_ensemble_without_its_source(tmp_path):
    # with ensemble.disable_lambda the ensemble gets no source: another
    # kind leaves its CSVs the same bytes, while with lambda on the kind
    # moves them (source.hbar is not varied: it also sets the wave's hbar)
    smeared = {"source.kind": "smeared", "source.width": 0.3}
    base = _bohmian_density_csvs(tmp_path / "base")
    assert sorted(base) == ["equivariance.csv"]
    assert _bohmian_density_csvs(tmp_path / "other", **smeared) == base
    on = _bohmian_density_csvs(tmp_path / "on",
                               **{"ensemble.disable_lambda": False})
    on_smeared = _bohmian_density_csvs(
        tmp_path / "on_smeared", **{"ensemble.disable_lambda": False},
        **smeared)
    assert on != base and on_smeared != on


def test_the_sweep_table_has_no_weighted_column(tmp_path):
    result = run_command("equivariance", {
        "run.scenario": "tau_sweep", "time.T": 0.04, "ensemble.size": 4000},
        str(tmp_path))
    assert result.files == ["equivariance.csv", "sweep.csv"]
    header = [line for line in
              (tmp_path / "sweep.csv").read_text().splitlines()
              if not line.startswith("#")][0]
    assert header == "tau_Q,tv_final,frozen_fraction,micro_steps"


def test_classical_limit_and_bohmian_check_only_what_a_claim_reads(tmp_path):
    # the lambda^2 probe of Q and the +-lambda velocity identity are gone,
    # with qp_scaling.csv and weighted.csv
    limit = run_command("evolve", {"run.scenario": "classical_limit"},
                        str(tmp_path / "limit"))
    assert [c.name for c in limit.checks] == ["center_track_max_err"]
    assert limit.files == ["classical_track.csv"]
    bohm = run_command("equivariance", {
        "run.scenario": "bohmian", "time.T": 0.04, "ensemble.size": 4000},
        str(tmp_path / "bohm"))
    assert [c.name for c in bohm.checks] == ["tv_final", "frozen_fraction"]
    assert bohm.files == ["equivariance.csv"]


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
    ("run.snapshots", 1),             # a run took 2 snapshots all the same
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
    for n, (line, error, started) in enumerate((
            ("grid.spacing = 0.1", "unknown config key 'grid.spacing'", False),
            ("system.a0 = 0.4", "unknown config key 'system.a0'", False),
            # refused before the run directory is made
            ("system.preset = gauged", "unknown system preset 'gauged'",
             False))):
        cfg, out = tmp_path / f"bad{n}.cfg", tmp_path / f"out{n}"
        cfg.write_text(f"grid.n = 64\n{line}\n")
        assert cli.main(["evolve", "--config", str(cfg),
                         "--out", str(out)]) == 2
        assert error in capsys.readouterr().err
        assert out.exists() == started


# configs that break the contract: keys no scenario of the command reads
# (which used to run and pass, unread), and values the builders or the
# state kinds refuse (which used to be refused once the run had started,
# leaving an error run directory)
@pytest.mark.parametrize("command,scenario,config,match", [
    pytest.param("sample", "concentration", {"system.beta": 0.7, "grid.n": 5},
                 "sample takes no config key 'system.beta'", id="unread-sample"),
    pytest.param("orderings", "harmonic_spectrum",
                 {"time.dt": 5.0, "state.kind": "bogus"},
                 "orderings takes no config key 'time.dt'",
                 id="unread-orderings"),
    pytest.param("evolve", "free_gaussian", {"system.preset": "gauged"},
                 "unknown system preset 'gauged'", id="preset"),
    pytest.param("equivariance", "bohmian", {"state.kind": "bogus"},
                 "unknown state.kind 'bogus'", id="state-kind"),
    pytest.param("equivariance", "bohmian", {"state.kind": "gaussian"},
                 "state.kind = gaussian reads config key 'state.sigma'",
                 id="state-params"),
    pytest.param("evolve", "free_gaussian",
                 {"state.kind": "coherent", "system.preset": "free"},
                 "state.kind = coherent requires the harmonic preset",
                 id="coherent-free"),
    pytest.param("evolve", "free_gaussian", {"grid.n": 2},
                 "grid needs at least", id="grid"),
    pytest.param("evolve", "free_gaussian", {"system.m": -1.0},
                 "mass must be positive", id="mass"),
    # a preset the orderings scenario does not run on: both used to be
    # refused for a registry key the config never set (system.omega,
    # system.beta), which a preset switch now drops
    pytest.param("orderings", "harmonic_spectrum", {"system.preset": "free"},
                 "harmonic_spectrum requires system.preset = harmonic",
                 id="spectrum-preset"),
    pytest.param("orderings", "ordering_contrast",
                 {"system.preset": "harmonic"},
                 "ordering_contrast requires system.preset = variable_mass",
                 id="contrast-preset"),
])
def test_a_config_that_breaks_the_contract_leaves_no_run_directory(
        tmp_path, capsys, command, scenario, config, match):
    with pytest.raises(ConfigurationError, match=match):
        run_command(command, {"run.scenario": scenario, **config},
                    str(tmp_path / "api"))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
    assert cli.main([command, "--scenario", scenario, "--config", str(cfg),
                     "--out", str(tmp_path / "cli")]) == 2
    assert match in capsys.readouterr().err
    assert not (tmp_path / "api").exists()
    assert not (tmp_path / "cli").exists()


def test_the_retired_phase_offset_scenario_and_its_key_are_refused(
        tmp_path, capsys):
    # its three checks were identities of the polar representation, which
    # test_madelung.py now holds; state.offset_quanta was its key alone
    with pytest.raises(ConfigurationError,
                       match="unknown scenario 'phase_offset'"):
        run_command("evolve", {"run.scenario": "phase_offset"},
                    str(tmp_path / "api-scenario"))
    with pytest.raises(ConfigurationError, match="evolve takes no config "
                                                 "key 'state.offset_quanta'"):
        run_command("evolve", {"run.scenario": "harmonic_stationary",
                               "state.offset_quanta": 1},
                    str(tmp_path / "api-key"))
    cfg = tmp_path / "offset.cfg"
    cfg.write_text("state.offset_quanta = 1\n")
    for args, error in (
            (["--scenario", "phase_offset"],
             "unknown scenario 'phase_offset'"),
            (["--config", str(cfg)],
             "unknown config key 'state.offset_quanta'")):
        assert cli.main(["evolve", *args, "--out", str(tmp_path / "cli")]) == 2
        assert error in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["offset.cfg"]


def test_a_preset_switch_takes_the_new_presets_parameters(tmp_path):
    # system.omega belongs to the harmonic preset, which free_gaussian's
    # registry entry does not use
    result = run_command("evolve", {
        "run.scenario": "free_gaussian", "system.preset": "harmonic",
        "system.omega": 0.5, "time.T": 1.25e-3}, str(tmp_path))
    assert result.passed


def test_a_preset_switch_drops_the_old_presets_registry_parameters(tmp_path):
    # the registry's system.omega used to stay in the config, and the free
    # preset refused it: the scenario could not be switched to free
    result = run_command("evolve", {
        "run.scenario": "harmonic_stationary", "system.preset": "free"},
        str(tmp_path / "free"))
    manifest = json.loads((tmp_path / "free" / "manifest.json").read_text())
    assert manifest["status"] == "complete" and result.files
    assert "system.omega" not in manifest["config"]
    # a parameter the config itself sets is still refused
    with pytest.raises(ConfigurationError,
                       match=r"system\.preset = free takes no system\.omega"):
        run_command("evolve", {
            "run.scenario": "harmonic_stationary", "system.preset": "free",
            "system.omega": 1.0}, str(tmp_path / "omega"))
    assert not (tmp_path / "omega").exists()


def test_each_config_key_has_one_type():
    # a key's type is that of its defaults: two defaults of one key with
    # different types would make it depend on the registry's order
    types = {}
    for scenarios in SCENARIOS.values():
        for entry in scenarios.values():
            for key, value in entry.items():
                types.setdefault(key, set()).add(type(value))
    for params in PRESET_PARAMS.values():
        for name, value in params.items():
            assert type(value) is float, name
            types.setdefault(f"system.{name}", set()).add(float)
    assert {key: {KEY_TYPES[key]} for key in types} == types
    # a state kind's parameters have no defaults: some scenario types them
    assert all(key in types for params in STATE_PARAMS.values()
               for key in params)


def test_a_key_set_twice_in_a_config_file_is_refused(tmp_path):
    # the later line used to win: this file ran at grid.n = 128
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("grid.n = 64\n# the grid\ngrid.n = 128\n")
    with pytest.raises(ConfigurationError,
                       match=r"twice\.cfg:3: config key 'grid\.n' is already "
                             r"set on line 1"):
        parse_config(str(cfg))


@pytest.mark.parametrize("command,scenario,key,value", [
    ("evolve", "classical_limit", "system.beta", 0.7),
    ("evolve", "free_gaussian", "system.omega", 2.0),
    ("equivariance", "tau_sweep", "system.beta", 0.0),
    ("orderings", "harmonic_spectrum", "system.beta", 0.3),
])
def test_a_system_key_the_preset_does_not_take_is_refused(
        tmp_path, command, scenario, key, value):
    # unread, the key would leave the run on the registry's system
    preset = SCENARIOS[command][scenario]["system.preset"]
    with pytest.raises(ConfigurationError,
                       match=rf"system\.preset = {preset} takes no {key}"):
        run_command(command, {"run.scenario": scenario, key: value},
                    str(tmp_path))


# Small versions of the two scenarios whose CSVs lean on the wave layer
# (banded Crank-Nicolson, the eigen oracle, and the guidance frames), and
# ordering_contrast at the registry's n = 256, whose spectra are dstemr
# index solves of the symmetrized orderings.  Then the registry's
# propagator_quality (n = 512), whose oracle is an index solve of its 16
# lowest modes, and free_gaussian over a fifth of its horizon, whose
# spectral filter and 11-time oracle series run at n = 768 on index
# solves of the 16 lowest modes, classical_limit at the registry's n = 96,
# whose filter and oracle solve 16 modes as well, and harmonic_stationary
# at the registry's n = 384, whose ground state and oracle are index
# solves of 1 and 16 modes
_THREAD_RUN = """
import sys
from stochaction.harness import run_command
out = sys.argv[1]
run_command("evolve", {"run.scenario": "propagator_quality", "grid.n": 128},
            out + "/propagator_quality")
run_command("evolve", {"run.scenario": "propagator_quality"},
            out + "/propagator_quality_512")
run_command("evolve", {"run.scenario": "free_gaussian", "time.T": 0.1},
            out + "/free_gaussian")
run_command("evolve", {"run.scenario": "classical_limit"},
            out + "/classical_limit")
run_command("evolve", {"run.scenario": "harmonic_stationary"},
            out + "/harmonic_stationary")
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
        "classical_limit/classical_track.csv",
        "free_gaussian/chain_equivalence.csv",
        "free_gaussian/madelung_pair.csv", "free_gaussian/wave_density.csv",
        "harmonic_stationary/chain_equivalence.csv",
        "harmonic_stationary/madelung_pair.csv",
        "harmonic_stationary/wave_density.csv",
        "ordering_contrast/orderings.csv",
        "propagator_quality/propagator_quality.csv",
        "propagator_quality_512/propagator_quality.csv",
        "tau_sweep/equivariance.csv", "tau_sweep/sweep.csv"]
    for name in one:
        assert one[name] == two[name], name


# every scenario, at a size that runs in about a second in all
SMALL_RUNS = {
    ("evolve", "free_gaussian"): {"time.T": 0.1},
    ("evolve", "harmonic_coherent"): {"time.T": 0.05},
    ("evolve", "harmonic_stationary"): {"time.T": 0.05},
    ("evolve", "classical_limit"): {"time.T": 0.1},
    ("evolve", "propagator_quality"): {"grid.n": 128},
    **{("sample", name): {"ensemble.size": 1000}
       for name in SCENARIOS["sample"]},
    ("equivariance", "bohmian"): {"time.T": 0.1, "ensemble.size": 1000},
    ("equivariance", "tau_sweep"): {"time.T": 0.04, "ensemble.size": 1000},
    ("orderings", "ordering_contrast"): {"grid.n": 64},
    ("orderings", "harmonic_spectrum"): {},
}

_NO_SCIPY_RUN = """
import json, sys
from stochaction import kernels
from stochaction.harness import run_command
out, runs = sys.argv[1], json.loads(sys.argv[2])
for command, scenario, overrides in runs:
    run_command(command, {"run.scenario": scenario, **overrides},
                out + "/" + scenario)
print(json.dumps([kernels._lapack_loaded is not None,
                  sorted(m for m in sys.modules
                         if m == "scipy" or m.startswith("scipy."))]))
"""


def test_no_scenario_loads_scipy(tmp_path):
    # the wave layer calls scipy's LAPACK through ctypes, without importing
    # scipy, so no scenario pays for scipy's import
    assert sorted(SMALL_RUNS) == sorted(
        (command, scenario) for command in SCENARIOS
        for scenario in SCENARIOS[command])
    runs = [(c, s, o) for (c, s), o in SMALL_RUNS.items()]
    run = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_RUN, str(tmp_path), json.dumps(runs)],
        env=_source_env(), check=True, timeout=300, capture_output=True,
        text=True)
    # scipy's LAPACK was called, and no scipy module was loaded
    assert json.loads(run.stdout) == [True, []]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        s for _, s in SMALL_RUNS)
    for _, scenario in SMALL_RUNS:
        manifest = json.loads((tmp_path / scenario / "manifest.json").read_text())
        assert manifest["status"] == "complete", scenario


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
    assert sorted(one) == ["equivariance.csv", "sweep.csv"]
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
