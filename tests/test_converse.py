import math

import pytest

from sdof.channel import GainDistribution
from sdof.converse import floor_conditional_entropy, floor_entropy_sweep
from sdof.errors import CapacityError, ParameterError


class TestFloorConditionalEntropy:
    def test_integer_gain_is_lossless(self):
        assert floor_conditional_entropy(1.0, 1e4).entropy_nats == 0.0

    def test_enumerated_half_gain_case(self):
        # X uniform on {0..4}: bins {0,1}, {2,3}, {4}
        rep = floor_conditional_entropy(0.5, 16)
        assert rep.entropy_nats == pytest.approx(0.8 * math.log(2), abs=1e-14)
        assert rep.bound_nats == pytest.approx(math.log(3))
        assert rep.max_bin == 2
        assert rep.ok

    def test_expanding_gain_is_injective(self):
        rep = floor_conditional_entropy(2.0, 100)
        assert rep.entropy_nats == 0.0
        assert rep.bound_nats == pytest.approx(math.log(1.5))

    def test_negative_gain_supported(self):
        rep = floor_conditional_entropy(-0.5, 16)
        assert rep.ok and rep.entropy_nats <= rep.bound_nats

    def test_strict_bin_bound_on_grid(self):
        for i in range(1, 21):
            h = 0.1 * i
            rep = floor_conditional_entropy(h, 1e4)
            assert rep.max_bin < 1.0 + 1.0 / h
            assert rep.entropy_nats <= rep.bound_nats + 1e-12

    def test_entropy_nonincreasing_in_gain(self):
        values = [floor_conditional_entropy(0.1 * i, 1e4).entropy_nats
                  for i in range(1, 21)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_budget(self):
        with pytest.raises(CapacityError):
            floor_conditional_entropy(0.5, 1e14)
        with pytest.raises(ParameterError):
            floor_conditional_entropy(0.0, 16)


class TestSweep:
    def test_default_distribution_has_no_violations(self):
        sweep = floor_entropy_sweep(GainDistribution(), 1e4, 100, seed=5)
        assert sweep.ok and sweep.violations == 0
        assert sweep.mean_entropy_nats <= sweep.mean_bound_nats
        # per-sample bound never exceeds the distribution-level constant
        assert all(r.bound_nats <= sweep.distribution_bound_nats + 1e-12
                   for r in sweep.reports)

    def test_empty_sweep_flagged(self):
        sweep = floor_entropy_sweep(GainDistribution(), 1e4, 0)
        assert sweep.empty and not sweep.ok
        assert sweep.to_json_dict()["empty"] is True

    def test_determinism(self):
        a = floor_entropy_sweep(GainDistribution(), 1e4, 50, seed=3)
        b = floor_entropy_sweep(GainDistribution(), 1e4, 50, seed=3)
        assert [r.h for r in a.reports] == [r.h for r in b.reports]
