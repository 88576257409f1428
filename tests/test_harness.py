"""Scenarios end to end through `run_command` and the CLI: exit codes,
manifests, and CSVs that are byte-identical across re-runs, across BLAS
thread counts and across ensemble worker counts."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stochaction import cli, kernels
from stochaction.harness import SCENARIOS, run_command

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


def test_cli_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("grid.n = 64\ngrid.spacing = 0.1\n")
    assert cli.main(["evolve", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
    assert "unknown config key 'grid.spacing'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# Small versions of the two scenarios whose CSVs lean on the wave layer
# (banded Crank-Nicolson, the eigen oracle, and the guidance frames)
_THREAD_RUN = """
import sys
from stochaction.harness import run_command
out = sys.argv[1]
run_command("evolve", {"run.scenario": "propagator_quality", "grid.n": 128},
            out + "/propagator_quality")
run_command("equivariance", {"run.scenario": "tau_sweep", "time.T": 0.04,
                             "ensemble.size": 10000}, out + "/tau_sweep")
"""


def _run_at_blas_threads(threads: int, out_dir: Path) -> dict:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(
                   p for p in (src, os.environ.get("PYTHONPATH")) if p))
    subprocess.run([sys.executable, "-c", _THREAD_RUN, str(out_dir)],
                   env=env, check=True, timeout=300)
    return {str(p.relative_to(out_dir)): p.read_bytes()
            for p in sorted(out_dir.rglob("*.csv"))}


def test_csvs_do_not_depend_on_blas_thread_count(tmp_path):
    one = _run_at_blas_threads(1, tmp_path / "t1")
    two = _run_at_blas_threads(2, tmp_path / "t2")
    assert sorted(one) == [
        "propagator_quality/propagator_quality.csv",
        "tau_sweep/equivariance.csv", "tau_sweep/sweep.csv",
        "tau_sweep/weighted.csv"]
    for name in one:
        assert one[name] == two[name], name


def _tau_sweep_at_workers(workers: int, out_dir: Path, monkeypatch):
    monkeypatch.setattr(kernels, "_WORKERS", workers)
    monkeypatch.setattr(kernels, "_pool", None)
    try:
        result = run_command("equivariance", {
            "run.scenario": "tau_sweep", "time.T": 0.04,
            "ensemble.size": 4 * kernels._SHARD_MIN}, str(out_dir))
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
