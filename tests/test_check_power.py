"""Planted defects flip the sample, ordering and polar-chain scenarios'
checks.

Each test runs a scenario through run_command twice at one size: as it
is, where the check under test passes, and with one known defect patched
into a sampler, an operator build, the polar kernel call or the initial
state, where that check must fail.  The sample sizes are the registry's
1e6 draws where the defect needs them (a sign bias of 3e-3 is 6 standard
errors at 1e6 draws, and under 2 at 1e5), and less elsewhere; the
orderings run at grid.n = 64, and the chains at the horizon each test
states.
"""
import numpy as np
import pytest

from stochaction import harness, madelung, stochastic
from stochaction.errors import ConfigurationError
from stochaction.evolution import gaussian_packet, spectral_filter
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


def test_a_sign_flipped_sandwich_link_stops_the_run_naming_the_link(
        tmp_path, monkeypatch):
    # H[k+1, k] = -conj(H[k, k+1]) on the middle link: a defect of
    # 2 |H[k, k+1]| (0.47 of the largest entry), and a link whose hopping
    # product is negative, where no real similarity makes the operator
    # symmetric and its spectrum goes off the real axis (largest imaginary
    # part 1.42): the spectrum's solve refuses it, and the run writes no
    # orderings.csv
    def patched(real):
        def build(spec, grid, hbar):
            H = real(spec, grid, hbar)
            lower = H.lower.copy()
            lower[grid.n // 2 - 1] *= -1.0
            return QuantumOperator(lower, H.diag, H.upper, H.hbar_eff, grid)
        return build
    clean = _checks(tmp_path / "clean", "ordering_contrast", {"grid.n": 64},
                    "orderings")
    assert all(clean.values())
    monkeypatch.setattr(harness, "build_quantum_hamiltonian",
                        patched(harness.build_quantum_hamiltonian))
    with pytest.raises(ConfigurationError,
                       match=r"link 31 \(sites 31 and 32\) has lower \* "
                             r"upper = -\S+ <= 0"):
        _checks(tmp_path / "planted", "ordering_contrast", {"grid.n": 64},
                "orderings")
    assert not (tmp_path / "planted" / "orderings.csv").exists()


def test_a_stretched_sandwich_link_fails_the_sandwich_defect_check(
        tmp_path, monkeypatch):
    # H[k+1, k] = 1.5 H[k, k+1] on the middle link: a defect of
    # 0.5 |H[k, k+1]| (0.12 of the largest entry), with a positive hopping
    # product, so the spectrum stays real and the run finishes.  The
    # stretched link also moves the sandwich's e0, so g_pp's shift above
    # it no longer follows the first-order term (5.6 against 0.05)
    def patched(real):
        def build(spec, grid, hbar):
            H = real(spec, grid, hbar)
            lower = H.lower.copy()
            lower[grid.n // 2 - 1] *= 1.5
            return QuantumOperator(lower, H.diag, H.upper, H.hbar_eff, grid)
        return build
    clean, planted = _orderings_clean_and_planted(
        tmp_path, monkeypatch, "build_quantum_hamiltonian", patched)
    # the defect is in every sandwich build, so the constant-g naive builds
    # no longer equal it either
    assert _flipped(clean, planted) == {"sandwich_defect_rel",
                                        "ordering_e0_shift",
                                        "constant_g_entrywise_agreement"}


@pytest.mark.parametrize("ordering", ["g_pp", "pp_g"])
def test_a_naive_build_that_returns_the_sandwich_fails_its_defect_check(
        tmp_path, monkeypatch, ordering):
    # g_pp's e0 is the one the ordering_e0_shift check reads: returned as
    # the sandwich, it has no shift
    def patched(real):
        def build(spec, grid, hbar, which):
            if which == ordering:
                return harness.build_quantum_hamiltonian(spec, grid, hbar)
            return real(spec, grid, hbar, which)
        return build
    clean, planted = _orderings_clean_and_planted(
        tmp_path, monkeypatch, "build_naive_ordering", patched)
    assert _flipped(clean, planted) == {f"{ordering}_defect_rel"} | (
        {"ordering_e0_shift"} if ordering == "g_pp" else set())


def test_a_first_order_term_with_f_g_for_sqrt_g_fails_the_e0_shift(
        tmp_path, monkeypatch):
    # f = g in place of sqrt(g) gives a first-order term of 0.155 against
    # the shift of 0.090 at grid.n = 64 (0.160 against 0.091 at the
    # registry's 256): the check reads 0.42 against its 0.05, where the
    # clean run reads 0.0059
    def patched(real):
        return lambda g, psi0, grid, hbar: real(g * g, psi0, grid, hbar)
    clean, planted = _orderings_clean_and_planted(
        tmp_path, monkeypatch, "_first_order_shift", patched)
    assert _flipped(clean, planted) == {"ordering_e0_shift"}


def _evolve_clean_and_planted(tmp_path, monkeypatch, scenario, module, name,
                              patched, **config):
    """The pass/fail of every check of the evolve scenario as it is, and
    with module.<name> replaced by patched(real)."""
    clean = _checks(tmp_path / "clean", scenario, config, "evolve")
    monkeypatch.setattr(module, name, patched(getattr(module, name)))
    return clean, _checks(tmp_path / "planted", scenario, config, "evolve")


def test_a_doubled_quantum_potential_fails_the_chain_phase_check(
        tmp_path, monkeypatch):
    # the kernel run at sqrt(2) |lam|: Q, which goes as lam^2, doubles.
    # time.T = 0.04 (3200 steps at n = 768) is the shortest horizon, in
    # steps of 1e-3, at which free_gaussian's chain flips: the planted
    # chain_phase_grad_max reads 0.0101 there and 0.0099 at 0.039, against
    # 1.2e-6 clean.  chain_l2_density_max (9.3e-5 planted) stays under its
    # 1e-3, which it would pass until about T = 0.13
    def patched(real):
        return lambda y, g, dg, V, dq, dt, n_steps, lam_abs: real(
            y, g, dg, V, dq, dt, n_steps, np.sqrt(2.0) * lam_abs)
    clean, planted = _evolve_clean_and_planted(
        tmp_path, monkeypatch, "free_gaussian", madelung,
        "run_madelung_window", patched, **{"time.T": 0.04})
    assert _flipped(clean, planted) == {"chain_phase_grad_max"}


def test_a_gaussian_of_the_wrong_width_fails_the_stationary_phase_checks(
        tmp_path, monkeypatch):
    # the ground state replaced by a Gaussian 5% wider than the oscillator's
    # sqrt(hbar / 2 m omega), low-passed at energy 12 as the chains' packets
    # are (unfiltered, its wall tail breaks the polar pair); the energy
    # reference stays ground_state's e0.  It breathes: over the registry's
    # horizon its phase rate misses e0 by 2.9e-3 and spreads by 1.2, while
    # the pair still follows the wave
    def patched(real):
        def ground(H):
            e0, _ = real(H)
            packet = gaussian_packet(H.grid, sigma=1.05 * np.sqrt(0.5),
                                     hbar_eff=H.hbar_eff)
            return e0, spectral_filter(packet, H, 12.0)
        return ground
    clean, planted = _evolve_clean_and_planted(
        tmp_path, monkeypatch, "harmonic_stationary", harness, "ground_state",
        patched)
    assert _flipped(clean, planted) == {"stationary_phase_rate_err",
                                        "stationary_phase_rate_spread"}
