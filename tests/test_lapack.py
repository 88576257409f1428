"""The wave layer's LAPACK binding (kernels.tridiagonal_eigh,
tridiagonal_lu, tridiagonal_lu_solver and hessenberg_eigvals) against
scipy's wrappers of the same routines and numpy's dgeev, and its errors.

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
                                 _spectrum_operator, _wave_setup,
                                 resolve_config)
from stochaction.hamiltonian import (build_naive_ordering,
                                     build_quantum_hamiltonian, make_system)


def _registry_operators():
    """(name, H, cfg) of every operator a registry scenario decomposes or
    steps: the wave setups of evolve and equivariance, at their bands, and
    harmonic_spectrum's, at its band, as the runner builds them."""
    cases = []
    for command in ("evolve", "equivariance"):
        for scenario in SCENARIOS[command]:
            cfg = resolve_config(command, {"run.scenario": scenario})
            cases.append((scenario, _wave_setup(cfg)[2], cfg))
    cfg = resolve_config("orderings", {"run.scenario": "harmonic_spectrum"})
    cases.append(("harmonic_spectrum", _spectrum_operator(cfg), cfg))
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
    if cfg.get("state.ecut", 0.0) > 0.0:
        assert H.band == cfg["state.ecut"]
    if H.band < np.inf:
        band = kernels.tridiagonal_eigh(H.diag, H.upper, H.band)
        ref = scipy.linalg.eigh_tridiagonal(
            H.diag, H.upper, select="v", select_range=(-np.inf, H.band),
            lapack_driver="stemr")
        assert all(_same_bytes(a, b) for a, b in zip(band, ref))
        # V holds the band's k columns and no more
        k = len(band[0])
        assert 0 < k < H.grid.n and band[1].shape == (H.grid.n, k)
        assert band[1].flags.f_contiguous and band[1].flags.owndata


def test_the_spectrum_band_holds_the_five_levels_of_the_full_solve():
    # the band, 5 hbar omega, lies between the continuum's fifth and sixth
    # levels, and the grid's levels sit 2.0e-3 and 2.9e-3 below those
    cfg = resolve_config("orderings", {"run.scenario": "harmonic_spectrum"})
    H = _spectrum_operator(cfg)
    assert H.band == 5.0 * cfg["source.hbar"] * cfg["system.omega"]
    w, V = H.eigensystem
    assert w.shape == (5,) and V.shape == (H.grid.n, 5)
    full = kernels.tridiagonal_eigh(H.diag, H.upper)[0]
    assert full[4] < H.band < full[5]
    np.testing.assert_allclose(w, full[:5], rtol=1e-12, atol=0)


@pytest.mark.parametrize("upper", [np.inf, 4.5])
def test_a_matrix_with_relatively_accurate_eigenvalues_equals_scipy(upper):
    # a diagonally dominant positive definite matrix defines its
    # eigenvalues to high relative accuracy, and there dstemr's TRYRAC
    # changes the bits (a binding with TRYRAC false differs), which no
    # registry operator shows
    rng = np.random.default_rng(0)
    d, e = 4.0 + rng.random(50), rng.random(49)
    select = {} if upper == np.inf else {"select": "v",
                                         "select_range": (-np.inf, upper)}
    ref = scipy.linalg.eigh_tridiagonal(d, e, lapack_driver="stemr",
                                        **select)
    assert all(_same_bytes(a, b) for a, b in
               zip(kernels.tridiagonal_eigh(d, e, upper), ref))


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


def _ordering_matrices():
    """(name, dense matrix) of the six operators ordering_contrast builds,
    at the registry's n = 256 and on the n = 64 grid."""
    cases = []
    for n in (256, 64):
        cfg = resolve_config("orderings", {"run.scenario": "ordering_contrast",
                                           "grid.n": n})
        grid, hbar = _build_grid(cfg), cfg["source.hbar"]
        systems = {"variable_mass": _build_system(cfg),
                   "constant_g": make_system("harmonic", m=cfg["system.m"],
                                             omega=cfg["system.omega"])}
        for case, spec in systems.items():
            for build in ("sandwich", "g_pp", "pp_g"):
                op = (build_quantum_hamiltonian(spec, grid, hbar)
                      if build == "sandwich"
                      else build_naive_ordering(spec, grid, hbar, build))
                cases.append((f"{case}-{build}-n{n}", op.matrix))
    return cases


ORDERINGS = _ordering_matrices()


def _dgeevs_bits(w, M) -> bool:
    """Whether w, complex128, holds the bits of np.linalg.eigvals(M), which
    is real where every imaginary part is zero."""
    return w.dtype == np.complex128 and _same_bytes(
        w, np.linalg.eigvals(M).astype(np.complex128))


@pytest.mark.parametrize("name,M", ORDERINGS,
                         ids=[name for name, _ in ORDERINGS])
def test_hessenberg_eigvals_equal_numpys_dgeev_bit_for_bit(name, M):
    assert _dgeevs_bits(kernels.hessenberg_eigvals(M), M)


@pytest.mark.parametrize("n", [5, 64, 130, 300])
def test_hessenberg_eigvals_equal_dgeevs_on_a_matrix_dgebal_scales(n):
    # an irreducible tridiagonal whose off-diagonal products take both
    # signs, so some eigenvalues are complex, with its rows and columns
    # scaled apart by up to e^6 each way, which dgebal scales back
    rng = np.random.default_rng(n)
    sign = rng.choice([-1.0, 1.0], n - 1)
    T = (np.diag(rng.standard_normal(n))
         + np.diag(rng.uniform(0.5, 2.0, n - 1), 1)
         + np.diag(sign * rng.uniform(0.5, 2.0, n - 1), -1))
    r = np.exp(rng.uniform(-6.0, 6.0, n))
    M = r[:, None] * T / r[None, :]
    _, lo, hi, scale, info = scipy.linalg.lapack.dgebal(M, scale=1,
                                                        permute=1)
    assert info == 0 and (lo, hi) == (0, n - 1) and np.any(scale != 1.0)
    w = kernels.hessenberg_eigvals(M)
    assert _dgeevs_bits(w, M)
    assert n < 64 or np.any(w.imag != 0.0)


def test_hessenberg_eigvals_give_dhseqr_the_workspace_dgeev_gives_it():
    # dhseqr's workspace sets its shift count, deflation window and
    # blocking, and on this matrix its bits move with it: dgeev's query
    # less 2n, in place of less n, moves them (so do 9 of the first 300
    # seeds of this draw at n = 130)
    rng = np.random.default_rng(22)
    n = 130
    M = (np.diag(rng.standard_normal(n))
         + np.diag(rng.uniform(0.5, 2.0, n - 1), 1)
         + np.diag(rng.uniform(0.5, 2.0, n - 1), -1))
    assert _dgeevs_bits(kernels.hessenberg_eigvals(M), M)


@pytest.mark.parametrize("zero", [(1, 0), (4, 5)])
def test_a_matrix_dgebal_permutes_is_refused(zero):
    # a zero off-diagonal entry leaves the first or last column with no
    # other nonzero entry, which isolates an eigenvalue: dgebal permutes it
    # to an end of the matrix (ILO = 2 or IHI = n - 1), and dgeev would then
    # reduce the permuted matrix
    M = (np.diag(np.arange(1.0, 7.0)) + np.diag(np.full(5, 0.5), 1)
         + np.diag(np.full(5, 0.5), -1))
    M[zero] = 0.0
    with pytest.raises(NumericalError, match="LAPACK dgebal permuted"):
        kernels.hessenberg_eigvals(M)


@pytest.mark.parametrize("M,match", [
    (np.ones((3, 3)), "not upper Hessenberg"),
    (np.ones((2, 3)), "square matrix"),
    (np.array([[1.0, np.inf], [1.0, 1.0]]), "non-finite entries"),
])
def test_hessenberg_eigvals_refuses_a_matrix_it_cannot_take(M, match):
    with pytest.raises(ShapeError, match=match):
        kernels.hessenberg_eigvals(M)


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
        kernels.hessenberg_eigvals(np.eye(2))


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
    assert sorted(lapack.symbols) == sorted(kernels._LAPACK_ROUTINES)
    assert all(lapack.symbols[name] in (f"scipy_{name}_", f"{name}_")
               for name in lapack.symbols)
    assert all(isinstance(f, ctypes._CFuncPtr)
               for f in lapack.functions.values())
