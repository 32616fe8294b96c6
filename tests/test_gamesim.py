import math

import numpy as np
import pytest

import jamlab as jl
from jamlab.errors import InvalidProfile, PowerViolation
from jamlab.gamesim import (CorrelatedJammer, CurveDecoder,
                            DeterministicEncoder, IndependentNoise,
                            LinearDecoder, MmseGivenProfile,
                            RandomizedLinear, StrategyProfile,
                            bernoulli_exploit_check, companding_encoders,
                            mmse_decoder_for_encoder, saddle_gain,
                            saddle_profile, simulate, verify_lhs_inequality,
                            verify_rhs_inequality)
from jamlab.matching import JammingGameConfig

UNIT_CFG = JammingGameConfig(jl.gaussian(1.0), jl.gaussian(1.0), 1.0, 1.0)


# -- simulate -----------------------------------------------------------------


def test_saddle_cost_all_gaussian():
    out = simulate(UNIT_CFG, saddle_profile(UNIT_CFG), 200_000, seed=7)
    assert out.theoretical_cost == pytest.approx(2 / 3)
    assert abs(out.z_score) < 4
    assert out.std_error > 0


def test_vanishing_jammer_limit():
    cfg = JammingGameConfig(jl.gaussian(1.0), jl.gaussian(1.0), 1.0, 1e-9)
    out = simulate(cfg, saddle_profile(cfg), 100_000, seed=3)
    assert out.theoretical_cost == pytest.approx(0.5, rel=1e-6)
    assert abs(out.z_score) < 4


def test_identical_laplace_saddle_cost():
    cfg = JammingGameConfig(jl.laplace(1.0), jl.laplace(1.0), 1.0, 1.0)
    out = simulate(cfg, saddle_profile(cfg), 400_000, seed=5)
    assert out.theoretical_cost == pytest.approx(2 / 3)
    assert abs(out.z_score) < 4


def test_simulation_deterministic():
    a = simulate(UNIT_CFG, saddle_profile(UNIT_CFG), 50_000, seed=11)
    b = simulate(UNIT_CFG, saddle_profile(UNIT_CFG), 50_000, seed=11)
    assert a.empirical_cost == b.empirical_cost
    assert a.std_error == b.std_error


def test_curve_and_per_sign_mmse_results_pinned():
    # recorded when both curves were looked up with np.interp and both sign
    # tables ran on every sample; the grid lookup keeps np.interp's slope
    # formula, so only rounding may move these
    enc = companding_encoders(UNIT_CFG)[1]
    dec = mmse_decoder_for_encoder(UNIT_CFG, enc, jl.gaussian(1.0))
    profile = StrategyProfile(enc, IndependentNoise(jl.gaussian(1.0)), dec)
    out = simulate(UNIT_CFG, profile, 100_000, seed=17)
    assert out.empirical_cost == pytest.approx(0.719272416548102, rel=1e-12)
    assert out.std_error == pytest.approx(0.0027884057122699053, rel=1e-12)
    profile = StrategyProfile(RandomizedLinear(0.5),
                              CorrelatedJammer(0.7, jl.gaussian(1.0)),
                              MmseGivenProfile())
    out = simulate(UNIT_CFG, profile, 100_000, seed=17)
    assert out.empirical_cost == pytest.approx(0.6453781236385819, rel=1e-12)
    assert out.std_error == pytest.approx(0.0033423882007886816, rel=1e-12)


def test_trial_floor_enforced():
    with pytest.raises(ValueError):
        simulate(UNIT_CFG, saddle_profile(UNIT_CFG), 5_000, seed=1)


def test_seed_invariance_within_noise():
    profile = saddle_profile(UNIT_CFG)
    costs = [simulate(UNIT_CFG, profile, 100_000, seed=s).empirical_cost
             for s in range(10)]
    se = simulate(UNIT_CFG, profile, 100_000, seed=0).std_error
    assert max(abs(c - 2 / 3) for c in costs) < 5 * se


def test_gamma_stream_swap_is_exchangeable():
    # permutation test on block means: reseeding only the shared-sign stream
    # must leave the cost distribution unchanged
    profile = saddle_profile(UNIT_CFG)
    a = np.array([simulate(UNIT_CFG, profile, 10_000, seed=100 + b).empirical_cost
                  for b in range(12)])
    b = np.array([simulate(UNIT_CFG, profile, 10_000, seed=100 + i,
                           gamma_seed=900 + i).empirical_cost
                  for i in range(12)])
    observed = abs(a.mean() - b.mean())
    pooled = np.concatenate([a, b])
    rng = np.random.default_rng(42)
    exceed = 0
    for _ in range(2_000):
        rng.shuffle(pooled)
        exceed += abs(pooled[:12].mean() - pooled[12:].mean()) >= observed
    assert exceed / 2_000 > 0.01


def test_jammer_shape_invariance_at_fixed_power():
    # with the saddle profile the cost depends on the jammer only through its
    # power, whatever the shape
    gain = saddle_gain(UNIT_CFG)
    for jam in (jl.gaussian(1.0), jl.laplace(1.0), jl.uniform(1.0)):
        profile = StrategyProfile(RandomizedLinear(0.5), IndependentNoise(jam),
                                  LinearDecoder(gain))
        out = simulate(UNIT_CFG, profile, 200_000, seed=23)
        assert abs(out.z_score) < 4, jam.kind


# -- power and profile validation ---------------------------------------------------


def test_encoder_power_violation():
    g = jl.default_grid(jl.gaussian(1.0))
    enc = DeterministicEncoder(g, 1.2 * g.x, label="hot linear")
    profile = StrategyProfile(enc, IndependentNoise(jl.gaussian(1.0)),
                              LinearDecoder(0.3))
    with pytest.raises(PowerViolation):
        simulate(UNIT_CFG, profile, 10_000, seed=1)


def test_jammer_power_violation():
    profile = StrategyProfile(RandomizedLinear(0.5),
                              IndependentNoise(jl.gaussian(1.5)),
                              LinearDecoder(0.3))
    with pytest.raises(PowerViolation):
        simulate(UNIT_CFG, profile, 10_000, seed=1)


@pytest.mark.parametrize("cls", [DeterministicEncoder, CurveDecoder])
@pytest.mark.parametrize("size", [63, 65])
def test_curve_values_must_match_grid(cls, size):
    g = jl.GridSpec(half_width=1.0, num_points=64)
    with pytest.raises(ValueError, match="shape must match the grid"):
        cls(g, np.zeros(size))


def test_bad_bernoulli_parameter():
    with pytest.raises(InvalidProfile):
        RandomizedLinear(1.4)


def test_bad_rho():
    with pytest.raises(InvalidProfile):
        CorrelatedJammer(1.2, jl.gaussian(1.0))


# -- decoder gains ---------------------------------------------------------------------


def test_saddle_gain_is_l2_optimal():
    cfg = JammingGameConfig(jl.gaussian(2.0), jl.gaussian(0.5), 1.5, 0.8)
    g0 = saddle_gain(cfg)
    gains = np.linspace(0.5 * g0, 1.5 * g0, 201)
    sx2 = cfg.source.variance
    costs = ((1 - gains * cfg.alpha_t) ** 2 * sx2
             + gains**2 * (cfg.power_jam + cfg.channel_noise.variance))
    assert abs(gains[np.argmin(costs)] - g0) < 1e-3 * g0
    assert min(costs) == pytest.approx(cfg.saddle_cost, rel=1e-9)


def test_strict_paper_gain_differs_when_power_shifted():
    cfg = JammingGameConfig(jl.gaussian(1.0), jl.gaussian(1.0), 2.0, 1.0)
    assert saddle_gain(cfg) != saddle_gain(cfg, strict_paper=True)
    out = simulate(cfg, saddle_profile(cfg), 100_000, seed=9)
    out_strict = simulate(cfg, saddle_profile(cfg, strict_paper=True),
                          100_000, seed=9)
    assert abs(out.z_score) < 4
    # the literal gain is mismatched to the power scaling and costs more
    assert out_strict.empirical_cost > out.empirical_cost + 4 * out.std_error


def test_strict_paper_gain_coincides_at_matched_power():
    assert saddle_gain(UNIT_CFG) == pytest.approx(
        saddle_gain(UNIT_CFG, strict_paper=True))


# -- encoder-side deviations --------------------------------------------------------------


def test_rhs_inequality_suite():
    rep = verify_rhs_inequality(UNIT_CFG, 100_000, seed=31)
    assert rep.all_passed
    labels = [e.label for e in rep.entries]
    assert labels == ["linear", "cubic-mix a=0.5", "hard limiter"]
    by_label = {e.label: e for e in rep.entries}
    # the saddle encoder itself scores the saddle value within noise
    lin = by_label["linear"].outcome
    assert abs(lin.z_score) < 4
    # the hard limiter is strictly suboptimal by far more than the gate
    assert by_label["hard limiter"].outcome.z_score > 10


def test_encoders_are_power_normalized():
    for enc in companding_encoders(UNIT_CFG):
        if enc.label == "hard limiter":
            continue
        fx = UNIT_CFG.source.pdf_on(enc.grid)
        power = float(np.sum(enc.values**2 * fx) * enc.grid.dx)
        assert power == pytest.approx(UNIT_CFG.power_tx, rel=1e-9)


def test_mmse_decoder_for_linear_encoder_is_linear():
    enc = companding_encoders(UNIT_CFG)[0]
    dec = mmse_decoder_for_encoder(UNIT_CFG, enc, jl.gaussian(1.0))
    mid = np.abs(dec.grid.x) < 3
    np.testing.assert_allclose(dec.values[mid], dec.grid.x[mid] / 3, atol=1e-5)


# -- jammer-side deviations ----------------------------------------------------------------


def test_lhs_inequality_suite():
    rep = verify_lhs_inequality(UNIT_CFG, 100_000, seed=37)
    assert rep.all_passed
    assert len(rep.entries) == 3
    # conditional-mean decoding strictly exploits the correlated jammer
    corr = [e for e in rep.entries if e.label.startswith("correlated")][0]
    assert corr.outcome.z_score < -4


def test_matched_jammer_attains_saddle_under_mmse_decoding():
    profile = StrategyProfile(RandomizedLinear(0.5),
                              IndependentNoise(jl.gaussian(1.0)),
                              MmseGivenProfile())
    out = simulate(UNIT_CFG, profile, 200_000, seed=41)
    assert abs(out.z_score) < 4


# -- sign-parameter exploit --------------------------------------------------------------


def test_exploit_sweep():
    jam = CorrelatedJammer(0.7, jl.gaussian(1.0))
    rep = bernoulli_exploit_check(UNIT_CFG, [0.0, 0.5, 1.0], jam,
                                  100_000, seed=43)
    by_p = {e.p: e for e in rep.entries}
    half = by_p[0.5].outcome
    assert abs(half.z_score) < 4            # symmetric choice cancels the cross term
    one = by_p[1.0].outcome
    assert one.empirical_cost < rep.saddle_cost - 4 * one.std_error
    assert one.empirical_cost == pytest.approx(by_p[1.0].expected_cost,
                                               abs=4 * one.std_error)


def test_exploit_mirror_symmetry():
    a = bernoulli_exploit_check(UNIT_CFG, [1.0],
                                CorrelatedJammer(0.7, jl.gaussian(1.0)),
                                100_000, seed=47).entries[0]
    b = bernoulli_exploit_check(UNIT_CFG, [0.0],
                                CorrelatedJammer(-0.7, jl.gaussian(1.0)),
                                100_000, seed=47).entries[0]
    assert a.expected_cost == pytest.approx(b.expected_cost, rel=1e-12)
    gap = abs(a.outcome.empirical_cost - b.outcome.empirical_cost)
    assert gap < 5 * math.hypot(a.outcome.std_error, b.outcome.std_error)


def test_exploit_requires_correlation():
    with pytest.raises(InvalidProfile):
        bernoulli_exploit_check(UNIT_CFG, [0.5],
                                CorrelatedJammer(0.0, jl.gaussian(1.0)),
                                10_000, seed=1)
