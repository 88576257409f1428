"""The benchmark in perfbench/ reaches the program by name: its tracer
wraps public functions and counts work from their arguments, and its
runner and layer sweeps call program functions directly.  These tests bind
every such name and argument without running a workload, so that a rename
or a signature change shows in the test suite, not only in a traced run."""
import ast
import importlib
import inspect
import re
import sys
from pathlib import Path

import pytest

import stochaction  # noqa: F401  (loads every module the tracer patches)
from stochaction.harness import resolve_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def _probed(tracing):
    for probe in tracing.PROBES:
        home = sys.modules[f"{tracing.PACKAGE}.{probe.module}"]
        yield probe, getattr(home, probe.function)


def test_the_tracer_binds_every_probe_and_restores_it(tracing):
    originals = [fn for _, fn in _probed(tracing)]
    with tracing.Tracer():
        for (probe, fn), original in zip(_probed(tracing), originals):
            assert fn is not original and fn.__wrapped__ is original, probe
    assert [fn for _, fn in _probed(tracing)] == originals


def test_the_probes_count_arguments_their_functions_take(tracing):
    # each counter reads the call's bound arguments as a["name"]
    read = set()
    for probe, fn in _probed(tracing):
        params = inspect.signature(fn).parameters
        for counter in (probe.before, probe.after):
            if counter is None:
                continue
            names = re.findall(r'a\["(\w+)"\]', inspect.getsource(counter))
            assert names, counter
            missing = set(names) - set(params)
            assert not missing, f"{probe.function} takes no {missing}"
            read |= set(names)
    assert read == {"qs", "n_sub", "frozen", "pids", "n", "lam", "steps",
                    "n_steps", "H", "rows", "path"}


def _program_calls(path):
    """(name, program object, call node) of every call in the file at
    path of a name imported from stochaction, or of an attribute of such a
    module; and the names of the attributes read from such modules."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "stochaction"):
            home = importlib.import_module(node.module)
            for alias in node.names:
                bound[alias.asname or alias.name] = getattr(home, alias.name)
    calls, attributes = [], []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and inspect.ismodule(bound.get(node.value.id))):
            attributes.append((bound[node.value.id], node.attr))
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in bound:
            calls.append((func.id, bound[func.id], node))
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and inspect.ismodule(bound.get(func.value.id))):
            calls.append((func.attr,
                          getattr(bound[func.value.id], func.attr, None), node))
    return calls, attributes


@pytest.mark.parametrize("script", ("sweeps.py", "run.py"))
def test_the_benchmark_calls_bind_to_the_program_signatures(script):
    calls, attributes = _program_calls(PERFBENCH / script)
    assert calls
    for module, name in attributes:
        assert hasattr(module, name), f"{module.__name__}.{name}"
    for name, fn, node in calls:
        assert not any(isinstance(a, ast.Starred) for a in node.args), name
        args = [None] * len(node.args)
        kwargs = {kw.arg: None for kw in node.keywords}
        try:
            inspect.signature(fn).bind(*args, **kwargs)
        except TypeError as exc:
            pytest.fail(f"{script}:{node.lineno}: {name}: {exc}")
    if script == "sweeps.py":
        # the kernel's window is called with all 18 arguments by position
        [window] = [node for name, _, node in calls
                    if name == "run_ensemble_window"]
        assert len(window.args) == 18 and not window.keywords


def test_every_workload_config_keeps_the_config_contract(monkeypatch):
    # the benchmark's setup sample resolves each of these configs, so a
    # contract that refused one would show only as a failed benchmark
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    configs = [(sc.command, sc.config(0))
               for scenarios in workloads.WORKLOADS.values()
               for sc in scenarios]
    assert len(configs) == 11
    for command, config in configs:
        resolve_config(command, config)
