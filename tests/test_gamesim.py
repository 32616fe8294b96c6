import math
import re

import numpy as np
import pytest

import jamlab as jl
from jamlab import gamesim
from jamlab.errors import GridTooNarrow, InvalidProfile, PowerViolation
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
    # recorded when one cloud-in-cell builder made both the encoder's
    # decoder and the per-sign tables; a lookup or sampling refactor keeps
    # these bits
    enc = companding_encoders(UNIT_CFG)[1]
    dec = mmse_decoder_for_encoder(UNIT_CFG, enc, jl.gaussian(1.0))
    profile = StrategyProfile(enc, IndependentNoise(jl.gaussian(1.0)), dec)
    out = simulate(UNIT_CFG, profile, 100_000, seed=17)
    assert out.empirical_cost == pytest.approx(0.7192727270919752, rel=1e-12)
    assert out.std_error == pytest.approx(0.0027883847816890005, rel=1e-12)
    profile = StrategyProfile(RandomizedLinear(0.5),
                              CorrelatedJammer(0.7, jl.gaussian(1.0)),
                              MmseGivenProfile())
    out = simulate(UNIT_CFG, profile, 100_000, seed=17)
    assert out.empirical_cost == pytest.approx(0.6453781323206348, rel=1e-12)
    assert out.std_error == pytest.approx(0.003342388225985765, rel=1e-12)


def test_tabulated_jammer_result_pinned():
    # recorded with the cloud-in-cell decoder builder and the jammer rescaled
    # to P_A as saddle_profile plays it; the guide-table inverse CDF keeps the
    # bits of np.interp's tabulated draws
    cfg = JammingGameConfig(jl.laplace(1.0), jl.laplace(1.0), 1.0, 1.0)
    rep = verify_rhs_inequality(cfg, 100_000, seed=23,
                                encoders=companding_encoders(cfg)[:1])
    out = rep.entries[0].outcome
    assert out.empirical_cost == 0.6670342759609128
    assert out.std_error == 0.003942491675804642


_MIX_CFG = JammingGameConfig(
    jl.gaussian_mixture([0.3, 0.7], [-1.0, 3.0 / 7.0], [0.5, 0.8]),
    jl.gaussian(0.5), 1.0, 0.8)
_RADEMACHER_CFG = JammingGameConfig(jl.rademacher_scaled(1.0), jl.laplace(1.0),
                                    1.0, 1.0)


def _branch_cases():
    # one profile per branch of the chunk loop, each with Laplace draws
    cubic = companding_encoders(UNIT_CFG)[1]
    limiter = companding_encoders(UNIT_CFG)[2]
    mix_gain = LinearDecoder(saddle_gain(_MIX_CFG))
    return {
        # 70,000 trials: one full chunk and one partial chunk
        "deterministic, linear decoder": (UNIT_CFG, StrategyProfile(
            cubic, IndependentNoise(jl.laplace(1.0)), LinearDecoder(0.4)),
            70_000, {}),
        "randomized, curve decoder": (UNIT_CFG, StrategyProfile(
            RandomizedLinear(0.3), IndependentNoise(jl.laplace(1.0)),
            mmse_decoder_for_encoder(UNIT_CFG, limiter, jl.laplace(1.0))),
            20_000, {}),
        "rho = 1, no residual": (UNIT_CFG, StrategyProfile(
            RandomizedLinear(0.8), CorrelatedJammer(1.0, jl.gaussian(1.0)),
            LinearDecoder(0.5)), 20_000, {}),
        "rho = -0.5, per-sign tables": (UNIT_CFG, StrategyProfile(
            RandomizedLinear(0.5), CorrelatedJammer(-0.5, jl.laplace(1.0)),
            MmseGivenProfile()), 20_000, {}),
        "rademacher source": (_RADEMACHER_CFG, StrategyProfile(
            RandomizedLinear(0.5), IndependentNoise(jl.uniform(1.0)),
            LinearDecoder(saddle_gain(_RADEMACHER_CFG))), 20_000, {}),
        "mixture source": (_MIX_CFG, StrategyProfile(
            RandomizedLinear(0.5), IndependentNoise(jl.laplace(0.8)), mix_gain),
            20_000, {}),
        "mixture source, gamma_seed": (_MIX_CFG, StrategyProfile(
            RandomizedLinear(0.5), IndependentNoise(jl.laplace(0.8)), mix_gain),
            20_000, {"gamma_seed": 5}),
    }


@pytest.mark.parametrize("case, cost, se", [
    ("deterministic, linear decoder", 0.7542560193844696, 0.003796811627735999),
    ("randomized, curve decoder", 1.4555851595985256, 0.014514694735895499),
    ("rho = 1, no residual", 0.45127305871739626, 0.006629714000378674),
    ("rho = -0.5, per-sign tables", 0.6533607726002872, 0.007112612117828459),
    ("rademacher source", 0.6626027558497546, 0.005057435841187791),
    ("mixture source", 0.5327620481138411, 0.005316407663159116),
    ("mixture source, gamma_seed", 0.5346458354146479, 0.005299050953741241),
])
def test_chunk_loop_branches_pinned(case, cost, se):
    # recorded with Generator.laplace draws and the allocating chunk loop;
    # the vectorized Laplace inversion and the in-place loop keep these bits
    cfg, profile, trials, kw = _branch_cases()[case]
    out = simulate(cfg, profile, trials, seed=31, **kw)
    assert out.empirical_cost == cost
    assert out.std_error == se


def test_trial_floor_enforced():
    with pytest.raises(ValueError, match="^trials must be an integer of at least 10000, got 5000$"):
        simulate(UNIT_CFG, saddle_profile(UNIT_CFG), 5_000, seed=1)


@pytest.mark.parametrize("kw, name", [
    ({"trials": 1e5}, "trials"),
    ({"trials": 10_000.0}, "trials"),
    ({"seed": -1}, "seed"),
    ({"seed": 1.5}, "seed"),
    ({"seed": "7"}, "seed"),
    ({"gamma_seed": -2}, "gamma_seed"),
    ({"gamma_seed": 0.5}, "gamma_seed"),
])
def test_simulate_checks_trials_and_seeds_before_drawing(monkeypatch, kw, name):
    def no_draws(*args):
        raise AssertionError("sampled before the arguments were checked")

    monkeypatch.setattr(gamesim, "_rng", no_draws)
    args = {"trials": 10_000, "seed": 1, **kw}
    least = 10_000 if name == "trials" else 0
    with pytest.raises(ValueError, match="^" + re.escape(
            f"{name} must be an integer of at least {least}, got {kw[name]!r}")):
        simulate(UNIT_CFG, saddle_profile(UNIT_CFG), **args)


def test_simulate_takes_numpy_integers():
    a = simulate(UNIT_CFG, saddle_profile(UNIT_CFG), np.int64(10_000),
                 seed=np.uint32(3), gamma_seed=np.int16(4))
    b = simulate(UNIT_CFG, saddle_profile(UNIT_CFG), 10_000, seed=3, gamma_seed=4)
    assert (a.empirical_cost, a.std_error) == (b.empirical_cost, b.std_error)


_LAPLACE_CFG = JammingGameConfig(jl.laplace(1.0), jl.laplace(1.0), 1.0, 1.0)


@pytest.mark.parametrize("harness", [
    lambda trials, seed: verify_rhs_inequality(_LAPLACE_CFG, trials, seed),
    lambda trials, seed: verify_lhs_inequality(_LAPLACE_CFG, trials, seed),
    lambda trials, seed: bernoulli_exploit_check(
        _LAPLACE_CFG, [0.5], CorrelatedJammer(0.7, jl.gaussian(1.0)), trials, seed),
], ids=["rhs", "lhs", "exploit"])
@pytest.mark.parametrize("trials, seed, name", [
    (1e5, 1, "trials"), (10_000, -1, "seed"), (10_000, 1.5, "seed")])
def test_harnesses_check_trials_and_seed_first(monkeypatch, harness, trials,
                                                seed, name):
    def no_work(*args, **kwargs):
        raise AssertionError("worked before the arguments were checked")

    monkeypatch.setattr(gamesim, "synthesize_jammer", no_work)
    monkeypatch.setattr(gamesim, "_per_sign_mmse_tables", no_work)
    monkeypatch.setattr(gamesim, "_rng", no_work)
    bound, value = (10_000, trials) if name == "trials" else (0, seed)
    with pytest.raises(ValueError, match="^" + re.escape(
            f"{name} must be an integer of at least {bound}, got {value!r}")):
        harness(trials, seed)


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


def _cutting_encoder():
    # a +-2 grid holds 95.4% of the unit Gaussian source: the power read on
    # it is 0.894, while the curve, held past the grid edge, has power 1.111
    grid = jl.GridSpec(2.0, 256)
    return DeterministicEncoder(grid, 1.1 * grid.x)


def test_encoder_power_is_not_read_on_a_grid_that_cuts_the_source():
    profile = StrategyProfile(_cutting_encoder(), IndependentNoise(jl.gaussian(1.0)),
                              LinearDecoder(0.3))
    with pytest.raises(GridTooNarrow):
        simulate(UNIT_CFG, profile, 10_000, seed=1)


def test_mmse_decoder_is_not_built_on_a_grid_that_cuts_the_source():
    with pytest.raises(GridTooNarrow):
        mmse_decoder_for_encoder(UNIT_CFG, _cutting_encoder(), jl.gaussian(1.0))


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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_linear_decoder_refuses_a_gain_that_is_not_finite(bad):
    # no power check reads the decoder, so a nan gain would give a nan cost
    with pytest.raises(InvalidProfile, match=f"^decoder gain must be finite, got {bad}$"):
        simulate(UNIT_CFG, StrategyProfile(RandomizedLinear(0.5), IndependentNoise(
            jl.gaussian(1.0)), LinearDecoder(bad)), 10_000, seed=1)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("curve, profile", [
    (DeterministicEncoder, lambda c: StrategyProfile(
        c, IndependentNoise(jl.gaussian(1.0)), LinearDecoder(0.5))),
    (CurveDecoder, lambda c: StrategyProfile(
        RandomizedLinear(0.5), IndependentNoise(jl.gaussian(1.0)), c)),
], ids=["encoder", "decoder"])
def test_curves_refuse_values_that_are_not_finite(curve, profile, bad):
    # the encoder's power check reads nan > budget as False
    g = jl.default_grid(UNIT_CFG.source)
    with pytest.raises(InvalidProfile, match="^" + re.escape(
            f"{curve.__name__} values must be finite, got {bad} at x = {g.x[0]:.6g}")):
        simulate(UNIT_CFG, profile(curve(g, np.full(g.num_points, bad))),
                 10_000, seed=1)


def test_unknown_decoder_is_refused_before_sampling(monkeypatch):
    def no_draws(*args):
        raise AssertionError("sampled before the decoder was checked")

    monkeypatch.setattr(gamesim, "_rng", no_draws)
    profile = StrategyProfile(RandomizedLinear(0.5),
                              IndependentNoise(jl.gaussian(1.0)), "linear")
    with pytest.raises(InvalidProfile, match="unknown decoder"):
        simulate(UNIT_CFG, profile, 10_000, seed=1)


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


def test_mmse_decoder_keeps_rademacher_atoms_on_a_snapped_grid():
    # at this sigma the atoms sit one rounding error past sigma; a source
    # cut at required_half_width dropped them and left no output density
    s = 0.9719298245614036
    cfg = JammingGameConfig(jl.rademacher_scaled(s), jl.gaussian(1.0), 1.0, 1.0)
    dec = mmse_decoder_for_encoder(cfg, companding_encoders(cfg)[0],
                                   jl.gaussian(1.0))
    # U = +-1 + V with var V = 2, so E[X | U = u] = s tanh(u / 2)
    mid = np.abs(dec.grid.x) < 4
    np.testing.assert_allclose(dec.values[mid], s * np.tanh(dec.grid.x[mid] / 2),
                               atol=1e-5)


def test_mmse_decoder_on_a_grid_without_source_mass_is_grid_too_narrow():
    # a source on 3 <= |x| <= 4 leaves every cell of a +-2 encoder grid empty
    wide = jl.GridSpec(8.0, 256)
    ring = ((np.abs(wide.x) >= 3) & (np.abs(wide.x) <= 4)).astype(float)
    source = jl.tabulated(wide, ring / (ring.sum() * wide.dx))
    cfg = JammingGameConfig(source, jl.gaussian(1.0), 1.0, 1.0)
    grid = jl.GridSpec(2.0, 256)
    enc = DeterministicEncoder(grid, grid.x.copy())
    with pytest.raises(GridTooNarrow):
        mmse_decoder_for_encoder(cfg, enc, jl.gaussian(1.0))


def test_mmse_decoder_for_a_rademacher_source_off_the_encoder_grid():
    # the atoms at +-5 lie past a +-2 encoder grid, so no cell carries mass
    cfg = JammingGameConfig(jl.rademacher_scaled(5.0), jl.gaussian(1.0),
                            1.0, 1.0)
    grid = jl.GridSpec(2.0, 256)
    enc = DeterministicEncoder(grid, grid.x.copy())
    with pytest.raises(GridTooNarrow):
        mmse_decoder_for_encoder(cfg, enc, jl.gaussian(1.0))


def test_deterministic_encoder_against_correlated_jammer_decodes_linearly():
    # U = 1.7 X + V with var V = 0.51 + 1: Gaussian, so the conditional mean
    # is the linear decoder a / (a^2 + var V) with cost var V / (a^2 + var V)
    enc = companding_encoders(UNIT_CFG)[0]
    jam = CorrelatedJammer(0.7, jl.gaussian(1.0))
    a, var_v = 1.7, 1.51
    mmse = simulate(UNIT_CFG, StrategyProfile(enc, jam, MmseGivenProfile()),
                    100_000, seed=53)
    lin = simulate(UNIT_CFG, StrategyProfile(enc, jam,
                                             LinearDecoder(a / (a * a + var_v))),
                   100_000, seed=53)
    assert mmse.empirical_cost == pytest.approx(lin.empirical_cost, abs=1e-5)
    assert abs(mmse.empirical_cost - var_v / (a * a + var_v)) < 4 * mmse.std_error


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


def test_decoder_deposit_convolution_is_bitwise_fftconvolve(monkeypatch):
    # the 2-row convolution of the deposits with f_V, bitwise SciPy's FFT
    # convolution at BayesRatio's length 3n/2 with the kernel broadcast over
    # the rows, and within rounding of scipy.signal.fftconvolve
    from scipy import fft as sfft
    from scipy.signal import fftconvolve
    from jamlab import estimation
    tables, ratio_args = [], []
    floored = estimation._floored_ratio

    class Spy(gamesim.BayesRatio):
        def __init__(self, rows, *args):
            tables.append(rows)
            super().__init__(rows, *args)

        def ratio(self, table):
            tables.append(table)
            return super().ratio(table)

    def spy_ratio(num, den):
        ratio_args.append(np.stack([num, den]))
        return floored(num, den)

    monkeypatch.setattr(gamesim, "BayesRatio", Spy)
    monkeypatch.setattr(estimation, "_floored_ratio", spy_ratio)
    mmse_decoder_for_encoder(UNIT_CFG, companding_encoders(UNIT_CFG)[0],
                             jl.laplace(1.0))
    (deposits, fv), (got,) = tables, ratio_args
    n, size = fv.size, 3 * fv.size // 2
    want = sfft.irfft(sfft.rfft(deposits, size) * sfft.rfft(fv[None, :], size),
                      size)[:, n // 2: n // 2 + n]
    assert deposits.shape == (2, n) and got.tobytes() == want.tobytes()
    oracle = fftconvolve(deposits, fv[None, :], axes=1)[:, n // 2: n // 2 + n]
    assert np.all(np.abs(got - oracle).max(axis=1)
                  <= 8 * np.finfo(float).eps * np.abs(oracle).max(axis=1))
