"""Planted defects flip the sample and ordering scenarios' checks.

Each test runs a scenario through run_command twice at one size: as it
is, where the check under test passes, and with one known defect patched
into a sampler or an operator build, where that check must fail.  The
sample sizes are the registry's 1e6 draws where the defect needs them (a
sign bias of 3e-3 is 6 standard errors at 1e6 draws, and under 2 at
1e5), and less elsewhere; the orderings run at grid.n = 64.
"""
import numpy as np
import pytest

from stochaction import harness, stochastic
from stochaction.hamiltonian import QuantumOperator
from stochaction.harness import run_command


def _checks(out_dir, scenario, config, command="sample"):
    result = run_command(command, {"run.scenario": scenario, **config},
                         str(out_dir))
    return {c.name: c.passed for c in result.checks}


def _clean_and_planted(tmp_path, monkeypatch, scenario, sampler, defect,
                       **config):
    """The pass/fail of every check of the scenario as it is, and with
    defect applied to what stochastic.<sampler> returns."""
    clean = _checks(tmp_path / "clean", scenario, config)
    real = getattr(stochastic, sampler)
    monkeypatch.setattr(stochastic, sampler,
                        lambda *a, **k: defect(real(*a, **k)))
    return clean, _checks(tmp_path / "planted", scenario, config)


def _flipped(clean, planted):
    return {name for name in clean if clean[name] and not planted[name]}


def test_a_sign_bias_of_3e_3_fails_sign_bias_sigma(tmp_path, monkeypatch):
    def biased(lams):
        # the first 0.6% of the scales made positive: about 3e-3 of all
        # draws change sign, so P(+) = 0.503
        lams[: 6 * lams.size // 1000] = np.abs(lams[: 6 * lams.size // 1000])
        return lams
    clean, planted = _clean_and_planted(
        tmp_path, monkeypatch, "binary_source", "sample_lambda", biased,
        **{"ensemble.size": 1_000_000})
    assert _flipped(clean, planted) == {"sign_bias_sigma"}


@pytest.mark.parametrize("scenario,check,defect", [
    # one scale one ulp short of hbar
    ("binary_source", "magnitude_exact",
     lambda lam: np.nextafter(lam, 0.0)),
    ("sphere_source", "magnitude_exact",
     lambda lam: np.nextafter(lam, 2.0 * lam)),
    # one scale just past the support hbar +- width sqrt(3)
    ("smeared_source", "magnitude_within_support",
     lambda lam: np.copysign(1.0 + 0.2 * np.sqrt(3.0) * (1 + 1e-9), lam)),
])
def test_one_wrong_magnitude_fails_the_magnitude_check(
        tmp_path, monkeypatch, scenario, check, defect):
    def wrong(lams):
        lams[17] = defect(lams[17])
        return lams
    clean, planted = _clean_and_planted(
        tmp_path, monkeypatch, scenario, "sample_lambda", wrong,
        **{"ensemble.size": 10_000})
    assert _flipped(clean, planted) == {check}


LAMS = (0.5, 1.0, 2.0)


def _names(family):
    return {f"{family}_lam_{lam:g}" for lam in LAMS}


def test_a_deviation_scale_1_percent_off_fails_mean_rel_err(tmp_path,
                                                            monkeypatch):
    # the mean's standard error at 2e5 draws is 0.22%, against the check's
    # 0.5% and the defect's 1%
    clean, planted = _clean_and_planted(
        tmp_path, monkeypatch, "exponential_law", "sample_action_deviation",
        lambda devs: devs * 1.01, **{"ensemble.size": 200_000})
    assert _flipped(clean, planted) == _names("mean_rel_err")


def test_a_uniform_magnitude_of_the_same_mean_fails_tail_ratio(tmp_path,
                                                              monkeypatch):
    # |dev| uniform on [0, |lam|] has the exponential's mean |lam| / 2 and
    # no tail beyond |lam|
    rng = np.random.default_rng(7)

    def uniform(devs):
        return np.copysign(rng.uniform(0.0, 2.0 * np.mean(np.abs(devs)),
                                       devs.size), devs)
    clean, planted = _clean_and_planted(
        tmp_path, monkeypatch, "exponential_law", "sample_action_deviation",
        uniform, **{"ensemble.size": 200_000})
    assert _flipped(clean, planted) == _names("tail_ratio_rel_err")


def test_flipped_deviation_signs_fail_sign_violations(tmp_path, monkeypatch):
    def flipped(devs):
        devs[::1000] *= -1.0
        return devs
    clean, planted = _clean_and_planted(
        tmp_path, monkeypatch, "exponential_law", "sample_action_deviation",
        flipped, **{"ensemble.size": 100_000})
    assert _flipped(clean, planted) == _names("sign_violations")


def test_a_deviation_scale_25_percent_over_fails_concentration(tmp_path,
                                                              monkeypatch):
    # P(|dev| > 0.1) goes from exp(-0.2 / |lam|) to exp(-0.16 / |lam|)
    clean, planted = _clean_and_planted(
        tmp_path, monkeypatch, "concentration", "sample_action_deviation",
        lambda devs: devs * 1.25, **{"ensemble.size": 100_000})
    assert _flipped(clean, planted) == {"concentration_lam_0.1",
                                        "concentration_lam_0.05"}


def _orderings_clean_and_planted(tmp_path, monkeypatch, builder, patched):
    """The pass/fail of every ordering_contrast check as it is, and with
    harness.<builder> replaced by patched(real builder)."""
    config = {"grid.n": 64}
    clean = _checks(tmp_path / "clean", "ordering_contrast", config,
                    "orderings")
    monkeypatch.setattr(harness, builder,
                        patched(getattr(harness, builder)))
    return clean, _checks(tmp_path / "planted", "ordering_contrast", config,
                          "orderings")


def test_a_sign_flipped_sandwich_link_fails_hermiticity_and_real_spectrum(
        tmp_path, monkeypatch):
    # H[k+1, k] = -conj(H[k, k+1]) on the middle link: a defect of
    # 2 |H[k, k+1]| (0.47 of the largest entry), and a link whose hopping
    # product is negative, which pairs eigenvalues off the real axis
    # (largest imaginary part 1.42)
    def patched(real):
        def build(spec, grid, hbar):
            H = real(spec, grid, hbar)
            lower = H.lower.copy()
            lower[grid.n // 2 - 1] *= -1.0
            return QuantumOperator(lower, H.diag, H.upper, H.hbar_eff, grid)
        return build
    clean, planted = _orderings_clean_and_planted(
        tmp_path, monkeypatch, "build_quantum_hamiltonian", patched)
    # the defect is in every sandwich build, so the constant-g naive builds
    # no longer equal it either
    assert _flipped(clean, planted) == {"sandwich_defect_rel",
                                        "sandwich_spectrum_imag",
                                        "constant_g_entrywise_agreement"}


@pytest.mark.parametrize("ordering", ["g_pp", "pp_g"])
def test_a_naive_build_that_returns_the_sandwich_fails_its_defect_check(
        tmp_path, monkeypatch, ordering):
    def patched(real):
        def build(spec, grid, hbar, which):
            if which == ordering:
                return harness.build_quantum_hamiltonian(spec, grid, hbar)
            return real(spec, grid, hbar, which)
        return build
    clean, planted = _orderings_clean_and_planted(
        tmp_path, monkeypatch, "build_naive_ordering", patched)
    assert _flipped(clean, planted) == {f"{ordering}_defect_rel"}
