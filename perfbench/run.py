"""Benchmark of the stochaction scenario runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/` directory.  One closed-loop process runs the workload's scenarios
one at a time through `stochaction.harness.run_command`, the path the CLI
takes, and repeats the whole workload for as many runs as bring the total
closest to `--seconds` (at least one).  BLAS runs with BLAS_THREADS
threads.

With `--trace 0` the last stdout line reports the end-to-end metrics of
BENCHMARK.json:
  wall_s       median wall time of one workload run: every scenario
               through run_command, CSV and manifest writes included;
  setup_s      median, over SETUP_SAMPLES fresh interpreters, of the time
               to import stochaction and resolve the workload's configs;
  peak_rss_mb  peak resident memory of this process after its first
               workload run.
With `--trace 1` it alternates untraced and traced workload runs, then
times the layer sweeps of `sweeps.py`, and reports the per-layer metrics.

Every run checks that each scenario completed with all checks passing,
that its manifest agrees with its result, and that check values and CSV
digests repeat exactly across the repetitions (and, traced, that they
equal the untraced ones).  A scenario that raises StochactionError or
exits non-zero counts in `failed`.  Each run also writes a record, with
the environment, the check values at 6 significant figures and a SHA-256
of every CSV, to .perfbench_out/<workload>-seed<N>-trace<T>.json; records
of two commits can be diffed to see whether outputs changed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# one thread: the dense wave layer's CSVs are byte-identical only at a
# fixed thread count, and a single thread spreads least on a shared host
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60

SETUP_CODE = """\
import sys
sys.path[:0] = sys.argv[1:3]
from stochaction.harness import resolve_config
from workloads import WORKLOADS
for sc in WORKLOADS[sys.argv[3]]:
    resolve_config(sc.command, sc.config(0))
"""


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment() -> dict:
    import numpy
    import scipy
    from stochaction import kernels
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": kernels.active_backend(),
        "git_commit": _git_commit(),
    }


def _setup_time(workload: str) -> float:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE), workload],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr}")
    return elapsed


def _scenario_record(sc, result, out: Path) -> dict:
    rec = {"command": sc.command, "scenario": sc.scenario}
    if isinstance(result, Exception):
        rec["status"] = "error"
        rec["error"] = f"{type(result).__name__}: {result}"
        return rec
    manifest = json.loads((out / "manifest.json").read_text())
    rec["status"] = manifest["status"]
    rec["exit_code"] = result.exit_code
    rec["checks"] = [{"name": c.name, "value": f"{c.value:.6g}",
                      "relation": c.relation, "tolerance": f"{c.tolerance:.6g}",
                      "passed": bool(c.passed)} for c in result.checks]
    rec["manifest_agrees"] = (
        manifest["files"] == list(result.files)
        and [c["passed"] for c in manifest["checks"]]
        == [bool(c.passed) for c in result.checks])
    rec["csv_sha256"] = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                         for name in result.files}
    return rec


def _run_workload(scenarios, seed: int) -> tuple[list, list]:
    """One workload run: (wall seconds of each scenario, output records)."""
    from stochaction import harness
    from stochaction.errors import StochactionError
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        outs = [tmp / f"{i}-{sc.scenario}" for i, sc in enumerate(scenarios)]
        results, marks = [], [time.perf_counter()]
        for sc, out in zip(scenarios, outs):
            try:
                # looked up on each call, so that a Tracer's wrapper is used
                results.append(harness.run_command(sc.command, sc.config(seed),
                                                   out_dir=str(out)))
            except StochactionError as exc:
                results.append(exc)
            marks.append(time.perf_counter())
        records = [_scenario_record(sc, r, out)
                   for sc, r, out in zip(scenarios, results, outs)]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return [b - a for a, b in zip(marks, marks[1:])], records


def _failed(records: list) -> int:
    return sum(r["status"] == "error" or r["exit_code"] != 0 for r in records)


def _measure(args, scenarios) -> tuple[dict, list, dict]:
    """Untraced runs: end-to-end metric values, output records, extras."""
    setup = [_setup_time(args.workload) for _ in range(SETUP_SAMPLES)]
    walls, scenario_s, outputs, peak_mb = [], [], [], None
    start = time.perf_counter()
    while True:
        times, records = _run_workload(scenarios, args.seed)
        if peak_mb is None:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        walls.append(sum(times))
        scenario_s.append(times)
        outputs.append(records)
        _log(f"{args.workload} run {len(walls)}: {walls[-1]:.3f} s, "
             f"{_failed(records)} failed")
        if time.perf_counter() - start + walls[-1] / 2 > args.seconds:
            break
    values = {"wall_s": statistics.median(walls),
              "setup_s": statistics.median(setup),
              "peak_rss_mb": peak_mb}
    extras = {"wall_s_runs": walls, "scenario_s_runs": scenario_s,
              "setup_s_samples": setup}
    return values, outputs, extras


def _measure_traced(args, scenarios) -> tuple[dict, list, dict]:
    """Alternating untraced/traced runs, then the layer sweeps."""
    import sweeps
    from tracing import Tracer, layer_metrics
    plain, traced, layers, outputs = [], [], [], []
    start = time.perf_counter()
    while True:
        times, records = _run_workload(scenarios, args.seed)
        plain.append(sum(times))
        outputs.append(records)
        with Tracer() as tracer:
            times, records = _run_workload(scenarios, args.seed)
        traced.append(sum(times))
        outputs.append(records)
        layers.append(layer_metrics(tracer, traced[-1]))
        del tracer
        _log(f"{args.workload} pair {len(plain)}: untraced {plain[-1]:.3f} s, "
             f"traced {traced[-1]:.3f} s")
        if time.perf_counter() - start + (plain[-1] + traced[-1]) / 2 > args.seconds:
            break
    values = {name: statistics.median(m[name] for m in layers)
              for name in layers[0]}
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    values.update(sweeps.run_all())
    extras = {"wall_s_untraced": plain, "wall_s_traced": traced,
              "trace_transparent": all(outputs[i] == outputs[i + 1]
                                       for i in range(0, len(outputs), 2))}
    return values, outputs, extras


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "stochaction" / "__init__.py").is_file():
        _log(f"no stochaction package under {SRC}; run from a source checkout")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        _log(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
        return 2
    # fixed before numpy loads its BLAS, and inherited by set-up interpreters
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    from stochaction.harness import SCENARIOS

    scenarios = WORKLOADS[args.workload]
    measure = _measure_traced if args.trace else _measure
    values, outputs, extras = measure(args, scenarios)

    attempted = sum(len(r) for r in outputs)
    failed = sum(_failed(r) for r in outputs)
    repeatable = all(r == outputs[0] for r in outputs)
    consistent = all(rec.get("manifest_agrees", False)
                     for r in outputs for rec in r)
    correct = failed == 0 and repeatable and consistent
    if not repeatable:
        _log("check values or CSV digests differ between runs of one seed")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": _environment(),
        "correct": correct, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "outputs_repeat": repeatable,
        "metrics": metrics, **extras,
        "defaults_drift": {f"{sc.command} {sc.scenario}": sc.defaults_drift(SCENARIOS)
                           for sc in scenarios},
        "outputs": outputs[0],
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
