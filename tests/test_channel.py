import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdof.channel import (GainDistribution, HelperModel, InterferenceModel,
                          MacModel, MacPartialModel, sample_channel, substream)
from sdof.errors import ParameterError


class TestGainDistribution:
    def test_invalid_bounds(self):
        with pytest.raises(ParameterError):
            GainDistribution(magnitude_low=0.0, magnitude_high=1.0)
        with pytest.raises(ParameterError):
            GainDistribution(magnitude_low=2.0, magnitude_high=1.0)
        with pytest.raises(ParameterError):
            GainDistribution(magnitude_low=-0.1, magnitude_high=1.0)

    def test_support_is_respected_empirically(self):
        dist = GainDistribution(0.5, 2.0)
        draws = dist.sample(substream(123, 6), 100_000)
        assert np.count_nonzero(np.abs(draws) < 0.5) == 0
        assert np.count_nonzero(np.abs(draws) > 2.0) == 0

    def test_sign_symmetric_produces_both_signs(self):
        dist = GainDistribution()
        draws = dist.sample(substream(7, 6), 1000)
        assert np.any(draws > 0) and np.any(draws < 0)

    def test_positive_only_when_not_symmetric(self):
        dist = GainDistribution(sign_symmetric=False)
        draws = dist.sample(substream(7, 6), 1000)
        assert np.all(draws > 0)

    def test_integrability_bound(self):
        assert GainDistribution(0.5, 2.0).integrability_bound == pytest.approx(math.log(3))


class TestSampleChannel:
    def test_seeded_determinism(self):
        a = sample_channel(HelperModel(2), fixed=True, seed=7)
        b = sample_channel(HelperModel(2), fixed=True, seed=7)
        assert dict(a.legit_gains) == dict(b.legit_gains)
        assert dict(a.eve_gains) == dict(b.eve_gains)

    def test_mac_fading_shape_and_support(self):
        r = sample_channel(MacModel(3), fixed=False, slots=5, seed=1)
        assert len(r.legit_gains) == 15
        assert len(r.eve_gains) == 15
        for v in list(r.legit_gains.values()) + list(r.eve_gains.values()):
            assert 0.5 <= abs(v) <= 2.0

    def test_fixed_gains_constant_in_time(self):
        r = sample_channel(InterferenceModel(3), fixed=True, slots=4, seed=2)
        for tx in (1, 2, 3):
            for rx in (1, 2, 3):
                series = r.legit_series(tx, rx)
                assert np.all(series == series[0])

    def test_fixed_and_fading_share_index_sets(self):
        fixed = sample_channel(MacModel(2), fixed=True, slots=3, seed=5)
        fading = sample_channel(MacModel(2), fixed=False, slots=3, seed=5)
        assert set(fixed.legit_gains) == set(fading.legit_gains)
        assert set(fixed.eve_gains) == set(fading.eve_gains)

    @pytest.mark.parametrize("model", [HelperModel(2), MacPartialModel(3, 2), InterferenceModel(3)],
                             ids=lambda m: m.name)
    def test_gain_arrays_and_their_views(self, model):
        r = sample_channel(model, fixed=False, slots=4, seed=3)
        T, R = len(model.transmitters), len(model.receivers)
        assert r.legit.shape == (T, R, 4) and r.eve.shape == (T, 4)
        legit, eve = r.legit_gains, r.eve_gains
        assert list(legit) == sorted(legit) and len(legit) == T * R * 4
        assert list(eve) == sorted(eve) and len(eve) == T * 4
        assert (1, 1, 1) in legit and (0, 1, 1) not in legit and (1, 1) not in legit
        assert 1 not in eve and (T, 4) in eve and (T + 1, 4) not in eve
        for (tx, rx, t), v in legit.items():
            assert r.legit[tx - 1, rx - 1, t - 1] == v == r.h(tx, rx, t)
        for (tx, t), v in eve.items():
            assert r.eve[tx - 1, t - 1] == v == r.g(tx, t)
        for tx, rx in itertools.product(model.transmitters, model.receivers):
            series = r.legit_series(tx, rx)
            assert series.tolist() == [legit[(tx, rx, t)] for t in range(1, 5)]
            assert np.shares_memory(series, r.legit) and not series.flags.writeable
        for tx in model.transmitters:
            series = r.eve_series(tx)
            assert series.tolist() == [eve[(tx, t)] for t in range(1, 5)]
            assert np.shares_memory(series, r.eve) and not series.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            r.legit[0, 0, 0] = 1.0

    @pytest.mark.parametrize("call", [
        lambda r: r.h(0), lambda r: r.h(4), lambda r: r.h(1, 2), lambda r: r.h(1, 1, 3),
        lambda r: r.h(1, 1, 0), lambda r: r.g(0), lambda r: r.g(1, 3),
        lambda r: r.legit_series(1, 0), lambda r: r.eve_series(-1),
    ])
    def test_out_of_range_index_is_a_key_error(self, call):
        r = sample_channel(MacModel(3), fixed=False, slots=2, seed=1)
        with pytest.raises(KeyError):
            call(r)

    def test_bad_parameters(self):
        with pytest.raises(ParameterError):
            sample_channel(MacModel(2), slots=0, seed=1)
        with pytest.raises(ParameterError):
            sample_channel(MacModel(2), seed=-1)
        with pytest.raises(ParameterError):
            sample_channel(MacModel(2), seed=1, noise_variance=0.0)

    @given(seed=st.integers(0, 10_000),
           model=st.sampled_from([HelperModel(1), HelperModel(3), MacModel(2),
                                  MacPartialModel(3, 2), InterferenceModel(3)]),
           fixed=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_all_gains_bounded_away_from_zero(self, seed, model, fixed):
        r = sample_channel(model, slots=2, fixed=fixed, seed=seed)
        gains = list(r.legit_gains.values()) + list(r.eve_gains.values())
        assert all(r.distribution.contains(g) for g in gains)
