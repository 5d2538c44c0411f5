import gc
import math
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from sdof import analysis
from sdof.analysis import (_stream_mutual_information, fit_dof_slope, gaussian_entropy,
                           interference_fading_sdof, mac_sdof_region,
                           monte_carlo_error_rate, scheme_mutual_information,
                           sdof_formula, sdof_formula_with_csit, slope_fit_grid)
from sdof.channel import (TAG_TRIAL, HelperModel, InterferenceModel, MacModel,
                          MacPartialModel, sample_channel)
from sdof.errors import CapacityError, ParameterError
from sdof.pam import build_helper_scheme
from sdof.precoding import (assemble_receiver_and_eve_matrices,
                            build_asymptotic_precoders, build_helper_fading,
                            build_partial_csit_fading, interference_slots)

GRID = (1e5, 1e6, 1e7, 1e8)


class TestGaussianEntropy:
    def test_pure_noise(self):
        assert gaussian_entropy(np.zeros((1, 1)), 5.0) == pytest.approx(
            0.5 * math.log(2 * math.pi * math.e))

    def test_unit_gain(self):
        assert gaussian_entropy(np.eye(1), 1.0, 1.0) == pytest.approx(
            0.5 * math.log(4 * math.pi * math.e))

    def test_all_ones_matrix_has_unit_slope(self):
        grid = [10.0 ** e for e in range(2, 9)]
        vals = [gaussian_entropy(np.ones((3, 3)), p) for p in grid]
        slope = fit_dof_slope(*slope_fit_grid(grid, vals)).slope
        assert slope == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("rank", [0, 1, 2, 3, 4])
    def test_slope_equals_rank(self, rank):
        rng = np.random.default_rng(rank)
        A = rng.normal(size=(4, rank)) @ rng.normal(size=(rank, 5)) \
            if rank else np.zeros((4, 5))
        grid = [10.0 ** e for e in range(2, 9)]
        vals = [gaussian_entropy(A, p) for p in grid]
        slope = fit_dof_slope(*slope_fit_grid(grid, vals)).slope
        assert slope == pytest.approx(rank, abs=0.02)

    def test_matches_sample_covariance_oracle(self):
        # independent check: simulate A X + N, plug the empirical covariance
        # into the Gaussian entropy formula
        rng = np.random.default_rng(42)
        for A in (np.array([[0.8]]), np.array([[1.0, -0.5], [0.3, 2.0]])):
            P, s2 = 4.0, 1.0
            m, n = A.shape
            x = rng.normal(0, math.sqrt(P), (200_000, n))
            noise = rng.normal(0, math.sqrt(s2), (200_000, m))
            samples = x @ A.T + noise
            cov = np.cov(samples.T).reshape(m, m)
            h_mc = 0.5 * (m * math.log(2 * math.pi * math.e)
                          + np.linalg.slogdet(cov)[1])
            assert gaussian_entropy(A, P, s2) == pytest.approx(h_mc, abs=0.02)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterError):
            gaussian_entropy(np.array([[math.nan]]), 1.0)
        with pytest.raises(ParameterError):
            gaussian_entropy(np.eye(1), -1.0)


class TestSlopeFit:
    def test_exact_line(self):
        values = [0.75 * 0.5 * math.log(p) for p in GRID]
        rep = fit_dof_slope(GRID, values)
        assert rep.slope == pytest.approx(0.75)
        assert rep.residual == pytest.approx(0.0, abs=1e-12)

    def test_constant_values(self):
        rep = fit_dof_slope(GRID, [2.0] * 4)
        assert rep.slope == pytest.approx(0.0)

    def test_degenerate_grids_rejected(self):
        with pytest.raises(ParameterError):
            fit_dof_slope([1e5, 1e6], [1.0, 2.0])
        with pytest.raises(ParameterError):
            fit_dof_slope([1e5, 2e5, 3e5], [1.0, 2.0, 3.0])


class TestFormulas:
    def test_blind_values(self):
        assert sdof_formula(HelperModel(1)) == Fraction(1, 2)
        assert sdof_formula(MacModel(1)) == 0
        assert sdof_formula(InterferenceModel(3)) == 1
        assert sdof_formula(MacPartialModel(3, 2)) == Fraction(4, 5)

    def test_csit_comparison_table(self):
        mac2 = sdof_formula_with_csit(MacModel(2))
        assert mac2.with_csit == Fraction(2, 3)
        assert mac2.without_csit == Fraction(1, 2)
        assert mac2.loss == Fraction(1, 6)
        for M in (1, 2, 5, 9):
            assert sdof_formula_with_csit(HelperModel(M)).loss == 0

    def test_interference_loss_bounded(self):
        losses = [sdof_formula_with_csit(InterferenceModel(k)).loss
                  for k in range(2, 101)]
        assert max(losses) <= Fraction(1, 4)
        assert losses == sorted(losses)  # approaches 1/4 from below

    def test_fading_interference_fraction(self):
        assert interference_fading_sdof(3, 1) == Fraction(1, 11)
        series = [interference_fading_sdof(3, n) for n in range(1, 7)]
        assert all(a < b for a, b in zip(series, series[1:]))
        assert all(v < 1 for v in series)


class TestRegion:
    def test_corners_and_membership(self):
        region = mac_sdof_region(3)
        assert region.sum_bound == Fraction(2, 3)
        assert all(region.contains(p) for p in region.corner_points)
        assert region.contains([Fraction(2, 9)] * 3)
        assert not region.contains([Fraction(2, 3), Fraction(1, 100), 0])
        assert not region.contains([-Fraction(1, 10), 0, 0])

    def test_halfspace_export(self):
        doc = mac_sdof_region(2).to_json_dict()
        assert doc["sum_bound"] == "1/2"
        assert len(doc["halfspaces"]) == 3
        assert len(doc["corner_points"]) == 2


class TestSchemeMutualInformation:
    def test_helper_fading_slopes(self):
        r = sample_channel(HelperModel(2), fixed=False, slots=3, seed=11)
        s = build_helper_fading(2, r)
        legit = [scheme_mutual_information(s, p).legit[1] for p in GRID]
        leak = [scheme_mutual_information(s, p).leak for p in GRID]
        assert fit_dof_slope(GRID, legit).slope == pytest.approx(2.0, abs=0.05)
        assert fit_dof_slope(GRID, leak).slope == pytest.approx(0.0, abs=0.05)

    def test_nonnegative(self):
        r = sample_channel(HelperModel(1), fixed=False, slots=2, seed=3)
        s = build_helper_fading(1, r)
        mi = scheme_mutual_information(s, 1e6)
        assert mi.legit[1] >= 0 and mi.leak >= 0

    def test_extra_noise_cannot_help(self):
        # same gains and mixing coefficients, ten times the noise variance
        legit = []
        for noise_variance in (10.0, 1.0):
            r = sample_channel(HelperModel(1), fixed=False, slots=2, seed=3,
                               noise_variance=noise_variance)
            legit.append(scheme_mutual_information(build_helper_fading(1, r), 1e6).legit[1])
        assert legit[0] < legit[1]

    def test_interference_leakage_slope(self):
        slots = interference_slots(3, 1)
        r = sample_channel(InterferenceModel(3), fixed=False, slots=slots, seed=1)
        pre = build_asymptotic_precoders(3, 1, r)
        leak = [scheme_mutual_information(pre, p).leak for p in GRID]
        assert fit_dof_slope(GRID, leak).slope == pytest.approx(0.0, abs=0.05)

    def test_interference_per_receiver_slope(self):
        slots = interference_slots(3, 1)
        r = sample_channel(InterferenceModel(3), fixed=False, slots=slots, seed=1)
        pre = build_asymptotic_precoders(3, 1, r)
        for l in (1, 2, 3):
            vals = [scheme_mutual_information(pre, p).legit[l] for p in GRID]
            assert fit_dof_slope(GRID, vals).slope == pytest.approx(2.0, abs=0.05)

    def test_partial_csit_slopes(self):
        r = sample_channel(MacPartialModel(3, 2), fixed=False, slots=5, seed=1)
        s = build_partial_csit_fading(3, 2, r)
        legit = [scheme_mutual_information(s, p).legit[1] for p in GRID]
        leak = [scheme_mutual_information(s, p).leak for p in GRID]
        assert fit_dof_slope(GRID, legit).slope == pytest.approx(4.0, abs=0.05)
        assert fit_dof_slope(GRID, leak).slope == pytest.approx(0.0, abs=0.05)


@pytest.fixture(scope="module")
def mc_scheme():
    r = sample_channel(HelperModel(1), fixed=True, seed=8)
    return build_helper_scheme(1, r, P=1e4, delta=0.05)


class TestMonteCarlo:

    def test_zero_noise_is_error_free(self, mc_scheme):
        r = sample_channel(HelperModel(1), fixed=True, seed=8, noise_variance=1e-30)
        scheme = build_helper_scheme(1, r, P=1e4, delta=0.05)
        assert (scheme.Q, scheme.a) == (mc_scheme.Q, mc_scheme.a)
        rep = monte_carlo_error_rate(scheme, trials=500, seed=2)
        assert rep.rate == 0.0
        assert rep.reliable_rate_nats == pytest.approx(
            math.log(2 * scheme.Q + 1), rel=0.05)

    def test_error_rate_paired_across_powers(self, mc_scheme):
        lo = monte_carlo_error_rate(mc_scheme, P=1e4, trials=2000, seed=9)
        hi = monte_carlo_error_rate(mc_scheme, P=1e6, trials=2000, seed=9)
        assert hi.rate <= lo.rate

    def test_empty_run_is_flagged(self, mc_scheme):
        rep = monte_carlo_error_rate(mc_scheme, trials=0, seed=1)
        assert rep.rate is None and rep.reliable_rate_nats is None
        assert rep.to_json_dict()["rate"] is None

    def test_determinism(self, mc_scheme):
        a = monte_carlo_error_rate(mc_scheme, trials=400, seed=5)
        b = monte_carlo_error_rate(mc_scheme, trials=400, seed=5)
        assert a.errors == b.errors
        assert a.mutual_information_nats == b.mutual_information_nats

    def test_small_constellation_decodes_cleanly(self):
        # delta = 0.45 gives Q = 4 at P = 1e6, which leaves huge spacing:
        # near-zero symbol errors
        r = sample_channel(HelperModel(1), fixed=True, seed=5)
        scheme = build_helper_scheme(1, r, P=1e6, delta=0.45)
        assert scheme.Q == 4
        rep = monte_carlo_error_rate(scheme, trials=10_000, seed=3)
        assert rep.rate < 1e-2


def _dict_stream_mutual_information(v: np.ndarray, v_hat: np.ndarray) -> float:
    """Dict-counting form of _stream_mutual_information, its oracle."""
    n = v.size
    joint: dict[tuple[int, int], int] = {}
    left: dict[int, int] = {}
    right: dict[int, int] = {}
    for a, b in zip(v.tolist(), v_hat.tolist()):
        joint[(a, b)] = joint.get((a, b), 0) + 1
        left[a] = left.get(a, 0) + 1
        right[b] = right.get(b, 0) + 1
    mi = sum(c / n * math.log(c * n / (left[a] * right[b]))
             for (a, b), c in joint.items())
    correction = (len(joint) - len(left) - len(right) + 1) / (2 * n)
    return max(0.0, mi - correction)


def test_stream_mutual_information_matches_dict_oracle():
    rng = np.random.default_rng(20)
    for _ in range(300):
        Q = int(rng.integers(1, 60))
        n = int(rng.integers(1, 3000))
        error_rate = float(rng.uniform(0.0, 1.0))
        v = rng.integers(-Q, Q + 1, n)
        # near misses, which may leave [-Q, Q], and uniform misdecodes
        miss = np.where(rng.random(n) < 0.5, v + rng.choice([-1, 1], n),
                        rng.integers(-Q, Q + 1, n))
        v_hat = np.where(rng.random(n) < error_rate, miss, v)
        assert _stream_mutual_information(v, v_hat) == _dict_stream_mutual_information(v, v_hat)


# ---------------------------------------------------------------------------
# a power sweep computes the power-independent work once
# ---------------------------------------------------------------------------

SWEEP = (1e4, 1e5, 1e6, 1e7)


def _sweep_orders(items):
    """(item, P) call sequences: forward, reversed, repeated, and interleaved
    across the items."""
    forward = [(x, P) for x in items for P in SWEEP]
    backward = [(x, P) for x in items for P in reversed(SWEEP)]
    repeated = [(x, P) for x in items for P in SWEEP + SWEEP[::2]]
    interleaved = [(x, P) for P in SWEEP for x in items]
    return [forward, backward, repeated, interleaved]


def _cold_caches():
    analysis._SCHEME_GRAMS.clear()
    analysis._trial_draws.cache_clear()


def _mi_doc(report):
    return repr((report.P, report.legit, report.leak))


@pytest.fixture(scope="module")
def sweep_schemes():
    """Two seeds of two scheme types."""
    schemes = []
    for seed in (1, 2):
        r = sample_channel(InterferenceModel(3), fixed=False,
                           slots=interference_slots(3, 1), seed=seed)
        schemes.append(build_asymptotic_precoders(3, 1, r))
        r = sample_channel(HelperModel(2), fixed=False, slots=3, seed=seed)
        schemes.append(build_helper_fading(2, r))
    return schemes


def test_mi_sweep_matches_cold_computation_in_any_order(sweep_schemes):
    cold = {}
    for i, scheme in enumerate(sweep_schemes):
        for P in SWEEP:
            _cold_caches()
            cold[i, P] = _mi_doc(scheme_mutual_information(scheme, P))
    for order in _sweep_orders(range(len(sweep_schemes))):
        _cold_caches()
        for i, P in order:
            assert _mi_doc(scheme_mutual_information(sweep_schemes[i], P)) == cold[i, P]


def test_mi_matches_entropies_of_the_assembled_matrices(sweep_schemes):
    pre = sweep_schemes[0]
    mats = assemble_receiver_and_eve_matrices(pre)
    for P in SWEEP:
        mi = scheme_mutual_information(pre, P)
        for l in (1, 2, 3):
            assert mi.legit[l] == (gaussian_entropy(mats.receive_mixing[l], P)
                                   - gaussian_entropy(mats.interference[l], P))
        assert mi.leak == (gaussian_entropy(mats.eve_mixing, P)
                           - gaussian_entropy(mats.eve_jamming, P))


@pytest.mark.parametrize("K, n, powers", [(3, 2, (1e4, 1e7)), (4, 1, (1e5,))])
def test_mi_matches_entropies_of_the_assembled_matrices_beyond_n1(K, n, powers):
    # the oracle above at n = 2 and at K = 4, n = 1 (M_n = 2563); the
    # assembled matrices, about 0.5 GB at K = 4, are dropped before the MI
    # path forms its Grams
    r = sample_channel(InterferenceModel(K), fixed=False,
                       slots=interference_slots(K, n), seed=1)
    pre = build_asymptotic_precoders(K, n, r)
    mats = assemble_receiver_and_eve_matrices(pre)
    legit = {P: {l: gaussian_entropy(mats.receive_mixing[l], P)
                 - gaussian_entropy(mats.interference[l], P) for l in range(1, K + 1)}
             for P in powers}
    leak = {P: gaussian_entropy(mats.eve_mixing, P) - gaussian_entropy(mats.eve_jamming, P)
            for P in powers}
    del mats
    for P in powers:
        mi = scheme_mutual_information(pre, P)
        assert mi.legit == legit[P]
        assert mi.leak == leak[P]


@pytest.mark.xfail(strict=True, raises=ParameterError,
                   reason="the Gram log-det loses positive definiteness (ROADMAP item 3)")
def test_mi_at_n3_keeps_positive_definiteness_at_1e7():
    """K = 3, n = 3, seed 1: P * A A^T + I of a rank-deficient interference
    Gram (1186 x 1186, rank 1024) is formed in floating point, and at
    P = 1e7 its slogdet sign comes back non-positive, so
    scheme_mutual_information raises ParameterError (seeds 2 and 3 too,
    and at 1e8).  The singular-value log-det of ROADMAP item 3 removes the
    defect; this strict marker then reports the pass as a failure."""
    r = sample_channel(InterferenceModel(3), fixed=False,
                       slots=interference_slots(3, 3), seed=1)
    scheme_mutual_information(build_asymptotic_precoders(3, 3, r), 1e7)


def test_mc_sweep_matches_cold_computation_in_any_order():
    schemes = [build_helper_scheme(M, sample_channel(HelperModel(M), fixed=True, seed=8),
                                   P=1e4, delta=0.05) for M in (1, 2)]
    runs = [(scheme, seed) for scheme in schemes for seed in (5, 9)]

    def doc(i, P):
        scheme, seed = runs[i]
        rep = monte_carlo_error_rate(scheme, P=P, trials=600, seed=seed)
        return repr((rep.to_json_dict(), rep.mutual_information_nats))

    cold = {}
    for i in range(len(runs)):
        for P in SWEEP:
            _cold_caches()
            cold[i, P] = doc(i, P)
    for order in _sweep_orders(range(len(runs))):
        _cold_caches()
        for i, P in order:
            assert doc(i, P) == cold[i, P]


def test_mc_sweep_draws_its_trials_once(monkeypatch, mc_scheme):
    drawn = []
    keyed_streams = analysis.keyed_streams

    def counting(prefix, rows, draws):
        drawn.append(tuple(prefix))
        return keyed_streams(prefix, rows, draws)

    monkeypatch.setattr(analysis, "keyed_streams", counting)
    _cold_caches()
    for seed in (5, 9):
        for P in SWEEP:
            monte_carlo_error_rate(mc_scheme, P=P, trials=300, seed=seed)
    assert drawn == [(5, TAG_TRIAL), (9, TAG_TRIAL)]
    uniforms, noise = analysis._trial_draws(9, 300, 2)
    for a in (uniforms, noise):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.5


def test_trials_over_budget_are_refused_before_drawing(monkeypatch, mc_scheme):
    def draw(*args):
        raise AssertionError("drew trials over the budget")

    monkeypatch.setattr(analysis, "_trial_draws", draw)
    monkeypatch.setattr(analysis, "key_grid", draw)
    with pytest.raises(CapacityError, match="exceed the budget"):
        monte_carlo_error_rate(mc_scheme, trials=analysis.MC_TRIAL_BUDGET + 1, seed=1)


def test_mi_sweep_builds_each_receiver_once_per_scheme(monkeypatch, sweep_schemes):
    built, decoders = [], []
    assemble = analysis.assemble_receiver_and_eve_matrices

    def counting(pre, receivers=None, **parts):
        mats = assemble(pre, receivers, **parts)
        built.append((pre, tuple(mats.receive_mixing), mats.eve_mixing.shape[1] > 0))
        decoders.extend(mats.decoders)
        return mats

    monkeypatch.setattr(analysis, "assemble_receiver_and_eve_matrices", counting)
    _cold_caches()
    for order in _sweep_orders(range(len(sweep_schemes))):
        for i, P in order:
            scheme_mutual_information(sweep_schemes[i], P)
    # receivers 1..3 one at a time, then the eavesdropper alone
    assert built == [(sweep_schemes[i], *call) for i in (0, 2)
                     for call in [((1,), False), ((2,), False), ((3,), False), ((), True)]]
    assert decoders == []


def test_scheme_grams_hold_one_receiver_at_a_time():
    # K = 3, n = 2: eight 356 x 356 Grams and four 356 x 452 mixing matrices;
    # holding every receiver's matrices at once (and the decoders) peaks
    # above the Grams plus two mixing matrices
    r = sample_channel(InterferenceModel(3), fixed=False,
                       slots=interference_slots(3, 2), seed=1)
    pre = build_asymptotic_precoders(3, 2, r)
    mixing = assemble_receiver_and_eve_matrices(pre, (1,), eve=False).receive_mixing[1].nbytes
    gram = 356 * 356 * 8
    _cold_caches()
    tracemalloc.start()
    try:
        legit, leak = analysis._scheme_grams(pre)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(g.nbytes for pair in (*legit.values(), leak) for g in pair) == 8 * gram
    assert peak < 8 * gram + 2 * mixing, (peak, gram, mixing)


def test_dropped_scheme_releases_its_grams():
    r = sample_channel(InterferenceModel(3), fixed=False,
                       slots=interference_slots(3, 1), seed=3)
    pre = build_asymptotic_precoders(3, 1, r)
    scheme_mutual_information(pre, 1e5)
    legit, leak = analysis._scheme_grams(pre)
    grams = [weakref.ref(g) for pair in (*legit.values(), leak) for g in pair]
    scheme = weakref.ref(pre)
    del pre, legit, leak
    gc.collect()
    assert scheme() is None
    assert all(g() is None for g in grams)
