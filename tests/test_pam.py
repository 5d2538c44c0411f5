import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdof.channel import HelperModel, MacPartialModel, sample_channel
from sdof.errors import CapacityError, ModeError, ParameterError
from sdof.monomial import Monomial
from sdof.pam import (build_helper_scheme, build_partial_csit_fixed, decode_indices,
                      khintchine_groshev_bound, receive_decode_table)


@pytest.fixture
def helper1():
    r = sample_channel(HelperModel(1), fixed=True, seed=3)
    return build_helper_scheme(1, r, P=1e6, delta=0.05)


def _peak_inputs(scheme):
    """Per transmitter, the largest |input| over all symbol assignments:
    a Q times the sum of |tx coefficient| over the transmitter's streams."""
    peak = {}
    for s in scheme.streams:
        tx = scheme.owner[s]
        coeff = abs(scheme.tx_coeffs[s].evaluate(scheme.values))
        peak[tx] = peak.get(tx, 0.0) + scheme.a * scheme.Q * coeff
    return peak


def _noiseless(scheme, messages, jam_sum):
    """Receive value of message symbols and a jamming-symbol sum: every
    jamming stream arrives on coefficient 1."""
    return scheme.a * (sum(scheme.rx_value(s) * v
                           for s, v in zip(scheme.message_streams, messages)) + jam_sum)


def _decode(scheme, y):
    """Nearest-point decode of a batch of observations through the receive
    table: (message symbol rows, jamming sums)."""
    table = receive_decode_table(scheme)
    return table.indices_to_symbols(decode_indices(table, np.asarray(y, dtype=float)))


class TestHelperScheme:
    def test_receiver_table_aligns_all_jamming(self, helper1):
        # every jamming stream arrives with coefficient exactly 1 (symbolic)
        assert helper1.rx_coeffs["U1"] == Monomial.one()
        assert helper1.rx_coeffs["U2"] == Monomial.one()
        assert helper1.rx_coeffs["V2"] == Monomial.from_dict({"h_1": 1, "alpha_2": 1})

    def test_all_jamming_aligned_for_any_m(self):
        for M in (0, 1, 2, 3):
            r = sample_channel(HelperModel(M), fixed=True, seed=M)
            s = build_helper_scheme(M, r)
            assert all(s.rx_coeffs[f"U{j}"] == Monomial.one()
                       for j in range(1, M + 2))

    def test_eavesdropper_jamming_coeffs_distinct(self):
        r = sample_channel(HelperModel(2), fixed=True, seed=12)
        s = build_helper_scheme(2, r)
        coeffs = [s.eve_coeffs[f"U{j}"] for j in (1, 2, 3)]
        assert len(set(coeffs)) == 3
        values = [s.eve_coeffs[f"U{j}"].evaluate(s.values) for j in (1, 2, 3)]
        assert len(set(values)) == 3

    def test_degenerate_no_helpers(self):
        r = sample_channel(HelperModel(0), fixed=True, seed=1)
        s = build_helper_scheme(0, r)
        assert s.message_streams == ()
        assert s.jamming_streams == ("U1",)

    def test_rejects_fading_realization(self):
        r = sample_channel(HelperModel(1), fixed=False, slots=2, seed=1)
        with pytest.raises(ModeError):
            build_helper_scheme(1, r)


class TestParameterRule:
    def test_frozen_q_value(self):
        # floor(10^(6 * 0.95 / 4.1)) = floor(24.56...) = 24
        r = sample_channel(HelperModel(1), fixed=True, seed=3)
        s = build_helper_scheme(1, r, P=1e6, delta=0.05)
        assert s.Q == 24
        assert s.a == pytest.approx(s.gamma * 1000.0 / 24)

    def test_delta_near_one_clamps_q(self):
        r = sample_channel(HelperModel(1), fixed=True, seed=3)
        assert build_helper_scheme(1, r, P=1e6, delta=0.999).Q == 1
        r = sample_channel(MacPartialModel(3, 2), fixed=True, seed=6)
        assert build_partial_csit_fixed(3, 2, r, P=1e6, delta=0.999).Q == 1

    def test_gamma_matches_power_rule(self, helper1):
        r = helper1.realization
        expected = min(
            1.0 / (1.0 / abs(r.h(1)) + abs(helper1.values["alpha_2"])),
            abs(r.h(2)),
        )
        assert helper1.gamma == pytest.approx(expected)

    def test_amplitude_algebra(self, helper1):
        # a (2Q+1) = 2 gamma sqrt(P) + a, so peak amplitude stays under sqrt(P)
        s = helper1
        assert s.a * (2 * s.Q + 1) == pytest.approx(2 * s.gamma * math.sqrt(s.P) + s.a)

    def test_power_must_exceed_one(self):
        r = sample_channel(HelperModel(1), fixed=True, seed=3)
        with pytest.raises(ParameterError):
            build_helper_scheme(1, r, P=0.5, delta=0.05)
        r = sample_channel(MacPartialModel(3, 2), fixed=True, seed=6)
        with pytest.raises(ParameterError):
            build_partial_csit_fixed(3, 2, r, P=0.5, delta=0.05)

    @pytest.mark.parametrize("model", [HelperModel(M) for M in range(4)]
                             + [MacPartialModel(3, m) for m in (1, 2, 3)]
                             + [MacPartialModel(4, 2)])
    def test_builder_parameters_equal_with_power_bitwise(self, model):
        # one peak-power rule: what a builder picks at P is exactly what
        # with_power re-derives at P, from any other power
        build = (build_helper_scheme if isinstance(model, HelperModel)
                 else build_partial_csit_fixed)
        for seed in range(20):
            r = sample_channel(model, fixed=True, seed=seed)
            s = build(*model.params().values(), r, P=1e6, delta=0.05)
            again = s.with_power(1e9).with_power(1e6)
            assert (again.Q, again.a, again.gamma) == (s.Q, s.a, s.gamma)


class TestMinDistanceBound:
    def test_simple_values(self):
        assert khintchine_groshev_bound(1.0, 1, 1, 0.0) == pytest.approx(0.5)
        assert khintchine_groshev_bound(2.0, 10, 2, 0.1) == pytest.approx(2.0 / 30 ** 2.1)

    def test_monotone_decreasing_in_q(self):
        vals = [khintchine_groshev_bound(1.0, q, 2, 0.05) for q in range(1, 20)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestEncoding:
    def test_power_constraint_at_extremes(self, helper1):
        s = helper1
        r = s.realization
        peak = _peak_inputs(s)
        assert set(peak) == {1, 2}
        assert peak[1] == pytest.approx(
            s.a * s.Q * (1.0 / abs(r.h(1)) + abs(s.values["alpha_2"])))
        assert peak[2] == pytest.approx(s.a * s.Q / abs(r.h(2)))
        assert all(p <= math.sqrt(s.P) * (1 + 1e-12) for p in peak.values())


class TestDecoding:
    def test_noiseless_round_trip(self, helper1):
        # V2 = 5 under jamming U1 = -3, U2 = 7
        msgs, jam = _decode(helper1, [_noiseless(helper1, [5], -3 + 7)])
        assert msgs.tolist() == [[5]]
        assert jam.tolist() == [4]

    @given(data=st.data(), M=st.integers(0, 2),
           P=st.sampled_from([1e2, 1e3, 1e4, 1e5]))
    @settings(max_examples=120, deadline=None)
    def test_noiseless_recovery_property(self, data, M, P):
        r = sample_channel(HelperModel(M), fixed=True, seed=17)
        scheme = build_helper_scheme(M, r, P=P)
        Q = scheme.Q
        v = [data.draw(st.integers(-Q, Q)) for _ in scheme.message_streams]
        u = [data.draw(st.integers(-Q, Q)) for _ in scheme.jamming_streams]
        msgs, jam = _decode(scheme, [_noiseless(scheme, v, sum(u))])
        assert msgs.tolist() == [v]
        assert jam.tolist() == [sum(u)]

    def test_tie_breaks_toward_lexicographically_smallest(self, helper1):
        # force integer receive coefficients: points are 3 v + u with
        # v in {-1,0,1} and u in {-2..2}; the value 1 is hit by both
        # (v=0, u=1) and (v=1, u=-2), and 0.5 sits midway between two points
        rigged = dataclasses.replace(
            helper1, Q=1, a=1.0,
            values={**helper1.values, "h_1": 3.0, "alpha_2": 1.0})
        msgs, jam = _decode(rigged, [1.0, 0.5])
        assert msgs.tolist() == [[0], [0]]
        assert jam.tolist() == [1, 0]

    def test_budget_errors_out(self, helper1):
        with pytest.raises(CapacityError):
            receive_decode_table(helper1, budget=10)


class TestPartialCsitFixed:
    def test_stream_counts_and_eve_classes(self):
        r = sample_channel(MacPartialModel(3, 2), fixed=True, seed=6)
        s = build_partial_csit_fixed(3, 2, r)
        assert len(s.message_streams) == 4
        assert len(s.jamming_streams) == 3
        # the eavesdropper resolves exactly K coefficient classes
        assert len({s.eve_coeffs[x] for x in s.streams}) == 3

    def test_messages_hide_under_matching_jamming(self):
        r = sample_channel(MacPartialModel(3, 2), fixed=True, seed=6)
        s = build_partial_csit_fixed(3, 2, r)
        for i in (1, 2):
            for j in (1, 2, 3):
                if j == i:
                    continue
                assert s.eve_coeffs[f"V{i}_{j}"] == s.eve_coeffs[f"U{j}"]

    def test_all_informed_matches_full_scheme_shape(self):
        r = sample_channel(MacPartialModel(3, 3), fixed=True, seed=2)
        s = build_partial_csit_fixed(3, 3, r)
        assert len(s.message_streams) == 3 * 2

    def test_single_informed_looks_like_helper_scheme(self):
        r = sample_channel(MacPartialModel(3, 1), fixed=True, seed=2)
        s = build_partial_csit_fixed(3, 1, r)
        assert len(s.message_streams) == 2
        assert all(s.rx_coeffs[f"U{j}"] == Monomial.one() for j in (1, 2, 3))

    def test_receiver_jamming_aligned_and_power_held(self):
        r = sample_channel(MacPartialModel(3, 2), fixed=True, seed=6)
        s = build_partial_csit_fixed(3, 2, r)
        assert all(s.rx_coeffs[f"U{j}"] == Monomial.one() for j in (1, 2, 3))
        peak = _peak_inputs(s)
        assert set(peak) == {1, 2, 3}
        assert all(p <= math.sqrt(s.P) * (1 + 1e-12) for p in peak.values())

    def test_model_mismatch(self):
        r = sample_channel(MacPartialModel(3, 2), fixed=True, seed=6)
        with pytest.raises(ModeError):
            build_partial_csit_fixed(3, 1, r)

    def test_no_message_streams_rejected(self):
        # K = 1: the one informed transmitter has no other user to carry
        r = sample_channel(MacPartialModel(1, 1), fixed=True, seed=6)
        with pytest.raises(ParameterError, match="no message streams"):
            build_partial_csit_fixed(1, 1, r)


def test_with_power_rederives_parameters(helper1):
    boosted = helper1.with_power(1e8)
    assert boosted.Q == math.floor((1e8) ** (0.95 / 4.1))
    assert boosted.gamma == pytest.approx(helper1.gamma)
    assert boosted.a == pytest.approx(boosted.gamma * 1e4 / boosted.Q)
