"""The wave layer's LAPACK binding (kernels.tridiagonal_eigh,
tridiagonal_lu and tridiagonal_lu_solver) against scipy's wrappers of the
same routines, and its errors.

This is the one test module that imports scipy: as the reference the
binding must equal bit for bit, since both call the routines of scipy's
_flapack."""
import ctypes
import os
import sysconfig
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from stochaction import kernels
from stochaction.errors import ConfigurationError, NumericalError, ShapeError
from stochaction.harness import (SCENARIOS, _build_grid, _build_system,
                                 _wave_setup, resolve_config)
from stochaction.hamiltonian import (build_naive_ordering,
                                     build_quantum_hamiltonian, make_system,
                                     symmetrized)


def _registry_operators():
    """(name, H, cfg) of every operator a registry scenario decomposes or
    steps: the wave setups of evolve and equivariance, harmonic_spectrum's,
    and the symmetric operators similar to the six orderings of
    ordering_contrast, as the runners build them."""
    cases = []
    for command in ("evolve", "equivariance"):
        for scenario in SCENARIOS[command]:
            cfg = resolve_config(command, {"run.scenario": scenario})
            cases.append((scenario, _wave_setup(cfg)[2], cfg))
    cfg = resolve_config("orderings", {"run.scenario": "harmonic_spectrum"})
    cases.append(("harmonic_spectrum", build_quantum_hamiltonian(
        _build_system(cfg), _build_grid(cfg), cfg["source.hbar"]), cfg))
    cfg = resolve_config("orderings", {"run.scenario": "ordering_contrast"})
    grid, hbar = _build_grid(cfg), cfg["source.hbar"]
    systems = {"variable_mass": _build_system(cfg),
               "constant_g": make_system("harmonic", m=cfg["system.m"],
                                         omega=cfg["system.omega"])}
    for case, spec in systems.items():
        for build in ("sandwich", "g_pp", "pp_g"):
            op = (build_quantum_hamiltonian(spec, grid, hbar)
                  if build == "sandwich"
                  else build_naive_ordering(spec, grid, hbar, build))
            cases.append((f"{case}-{build}", symmetrized(op), cfg))
    return cases


OPERATORS = _registry_operators()
IDS = [name for name, _, _ in OPERATORS]


def _same_bytes(a, b) -> bool:
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.asfortranarray(a).tobytes(order="F")
            == np.asfortranarray(b).tobytes(order="F"))


@pytest.mark.parametrize("name,H,cfg", OPERATORS, ids=IDS)
def test_eigensolves_equal_scipys_bit_for_bit(name, H, cfg):
    full = kernels.tridiagonal_eigh(H.diag, H.upper)
    ref = scipy.linalg.eigh_tridiagonal(H.diag, H.upper,
                                        lapack_driver="stemr")
    assert all(_same_bytes(a, b) for a, b in zip(full, ref))
    assert full[1].flags.f_contiguous and full[1].flags.owndata


@pytest.mark.parametrize("name,H,cfg", OPERATORS, ids=IDS)
@pytest.mark.parametrize("k", [1, 5, 16])
def test_index_solves_equal_scipys_bit_for_bit(name, H, cfg, k):
    # the ground state (k = 1), the five levels of harmonic_spectrum and
    # of each ordering (k = 5), and the first solve of the spectral filter
    # and of the eigen oracle (k = 16)
    low = kernels.tridiagonal_eigh(H.diag, H.upper, k=k)
    ref = scipy.linalg.eigh_tridiagonal(H.diag, H.upper, select="i",
                                        select_range=(0, k - 1),
                                        lapack_driver="stemr")
    assert all(_same_bytes(a, b) for a, b in zip(low, ref))
    # V holds the k columns and no more
    assert low[1].shape == (H.grid.n, k)
    assert low[1].flags.f_contiguous and low[1].flags.owndata


def test_a_matrix_with_relatively_accurate_eigenvalues_equals_scipy():
    # a diagonally dominant positive definite matrix defines its
    # eigenvalues to high relative accuracy, and there dstemr's TRYRAC
    # changes the bits (a binding with TRYRAC false differs), which no
    # registry operator shows
    rng = np.random.default_rng(0)
    d, e = 4.0 + rng.random(50), rng.random(49)
    ref = scipy.linalg.eigh_tridiagonal(d, e, lapack_driver="stemr")
    assert all(_same_bytes(a, b) for a, b in
               zip(kernels.tridiagonal_eigh(d, e), ref))


def test_an_index_solve_with_relatively_accurate_eigenvalues_equals_scipy():
    rng = np.random.default_rng(0)
    d, e = 4.0 + rng.random(50), rng.random(49)
    ref = scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, 6),
                                        lapack_driver="stemr")
    assert all(_same_bytes(a, b) for a, b in
               zip(kernels.tridiagonal_eigh(d, e, k=7), ref))


@pytest.mark.parametrize("k", [0, 6, -1])
def test_an_index_solve_refuses_a_count_outside_1_to_n(k):
    with pytest.raises(ConfigurationError, match="must lie in 1..n"):
        kernels.tridiagonal_eigh(np.arange(5.0), np.ones(4), k=k)


@pytest.mark.parametrize(
    "name,H,cfg", [c for c in OPERATORS if "time.dt" in c[2]],
    ids=[name for name, _, cfg in OPERATORS if "time.dt" in cfg])
def test_crank_nicolson_factors_and_solves_equal_scipys_bit_for_bit(name, H,
                                                                    cfg):
    # Crank-Nicolson's system 1 + i dt H / 2hbar at the scenario's dt
    c = 0.5j * cfg["time.dt"] / H.hbar_eff
    system = (c * H.lower, 1.0 + c * H.diag, c * H.upper)
    factors = kernels.tridiagonal_lu(*system)
    *ref, info = scipy.linalg.lapack.zgttrf(*system)
    assert info == 0
    assert all(_same_bytes(a, b) for a, b in zip(factors, ref))
    rng = np.random.default_rng(7)
    b = rng.standard_normal(H.grid.n) + 1j * rng.standard_normal(H.grid.n)
    x, solve = b.copy(), kernels.tridiagonal_lu_solver(factors, b)
    for _ in range(50):
        solve()
        x, info = scipy.linalg.lapack.zgttrs(*ref, x)
        x = x.ravel()
        assert info == 0
        assert _same_bytes(b, x)


def test_a_singular_tridiagonal_system_raises_zgttrfs_info():
    # the second pivot is exactly zero: U(2, 2) = 0
    with pytest.raises(NumericalError, match="LAPACK zgttrf returned info 2"):
        kernels.tridiagonal_lu(np.zeros(2), np.array([1.0, 0.0, 1.0]),
                               np.zeros(2))


def test_a_failed_eigensolve_raises_dstemrs_info(monkeypatch):
    lapack = kernels._lapack()
    real = lapack.functions["dstemr"]

    def failing(*args):
        real(*args)
        info = args[20]._obj   # INFO, the 21st argument, passed by reference
        if args[13]._obj.value != -1:   # NZC: not the count query
            info.value = 5
    monkeypatch.setattr(kernels, "_lapack_loaded", replace(
        lapack, functions={**lapack.functions, "dstemr": failing}))
    with pytest.raises(NumericalError, match="LAPACK dstemr returned info 5"):
        kernels.tridiagonal_eigh(np.arange(4.0), np.ones(3))


@pytest.mark.parametrize("where", ["d", "e"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_an_eigensolve_refuses_non_finite_entries(where, bad):
    d, e = np.arange(5.0), np.ones(4)
    (d if where == "d" else e)[2] = bad
    with pytest.raises(ShapeError, match="non-finite entries"):
        kernels.tridiagonal_eigh(d, e)


def _lapack_from(monkeypatch, scipy_dir):
    """kernels' LAPACK lookup pointed at scipy_dir, nothing loaded yet."""
    monkeypatch.setattr(kernels, "_scipy_dir", lambda: scipy_dir)
    monkeypatch.setattr(kernels, "_lapack_loaded", None)


def _flapack_name() -> str:
    return "_flapack" + sysconfig.get_config_var("EXT_SUFFIX")


def test_a_missing_flapack_is_a_configuration_error(tmp_path, monkeypatch):
    _lapack_from(monkeypatch, str(tmp_path))
    path = os.path.join(str(tmp_path), "linalg", _flapack_name())
    with pytest.raises(ConfigurationError) as err:
        kernels.tridiagonal_eigh(np.arange(3.0), np.ones(2))
    assert path in str(err.value)
    for name in kernels._LAPACK_ROUTINES:
        assert f"scipy_{name}_, {name}_" in str(err.value)
    assert "lapack: none (" in kernels.active_backend()


def test_a_flapack_without_a_routine_is_a_configuration_error(tmp_path,
                                                              monkeypatch):
    # a shared library that is not LAPACK: the ensemble kernel's
    linalg = tmp_path / "linalg"
    linalg.mkdir()
    (linalg / _flapack_name()).symlink_to(
        kernels._build("_ensemble.c", kernels._CACHE))
    _lapack_from(monkeypatch, str(tmp_path))
    with pytest.raises(ConfigurationError,
                       match="has no LAPACK dstemr: tried scipy_dstemr_, "
                             "dstemr_"):
        kernels.tridiagonal_lu(np.zeros(1), np.ones(2), np.zeros(1))


class _Without:
    """A loaded library with the given symbols hidden."""

    def __init__(self, lib, hidden):
        self._lib, self._hidden = lib, hidden

    def __getattr__(self, name):
        if name in self._hidden:
            raise AttributeError(name)
        return getattr(self._lib, name)


@pytest.mark.parametrize("routine", kernels._LAPACK_ROUTINES)
def test_a_flapack_without_one_routine_is_a_configuration_error(routine,
                                                                monkeypatch):
    symbols = kernels._lapack_symbols(routine)
    cdll = ctypes.CDLL
    monkeypatch.setattr(ctypes, "CDLL",
                        lambda path: _Without(cdll(path), symbols))
    monkeypatch.setattr(kernels, "_lapack_loaded", None)
    with pytest.raises(ConfigurationError,
                       match=f"has no LAPACK {routine}: tried "
                             f"scipy_{routine}_, {routine}_"):
        kernels.tridiagonal_eigh(np.arange(2.0), np.ones(1))


def test_no_scipy_is_a_configuration_error(monkeypatch):
    _lapack_from(monkeypatch, None)
    with pytest.raises(ConfigurationError, match="no scipy is installed"):
        kernels.tridiagonal_eigh(np.arange(3.0), np.ones(2))


def test_the_binding_resolves_scipys_own_symbols():
    lapack = kernels._lapack()
    assert os.path.basename(lapack.path) == _flapack_name()
    assert os.path.dirname(lapack.path) == os.path.dirname(
        scipy.linalg.lapack._flapack.__file__)
    # scipy's wheels bundle an OpenBLAS whose symbols carry scipy_; a
    # scipy built against another LAPACK calls the plain names
    assert kernels._LAPACK_ROUTINES == ("dstemr", "zgttrf", "zgttrs")
    assert sorted(lapack.symbols) == sorted(kernels._LAPACK_ROUTINES)
    assert all(lapack.symbols[name] in (f"scipy_{name}_", f"{name}_")
               for name in lapack.symbols)
    assert all(isinstance(f, ctypes._CFuncPtr)
               for f in lapack.functions.values())
