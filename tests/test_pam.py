import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdof.channel import HelperModel, MacPartialModel, sample_channel
from sdof.errors import CapacityError, ModeError, ParameterError
from sdof.interference_sets import arrival
from sdof.monomial import Monomial
from sdof.pam import (build_helper_scheme, build_partial_csit_fixed, decode_indices,
                      khintchine_groshev_bound, receive_decode_table)


@pytest.fixture
def helper1():
    r = sample_channel(HelperModel(1), fixed=True, seed=3)
    return build_helper_scheme(1, r, P=1e6, delta=0.05)


def _arrivals(scheme, receiver):
    """Each stream's arrival at the receiver (1) or the eavesdropper (None), by name."""
    return {b.name: arrival(b, receiver) for b in scheme.table.blocks}


def _peak_inputs(scheme):
    """Per transmitter, the largest |input| over all symbol assignments:
    a Q times the sum of |tx coefficient| over the transmitter's streams."""
    peak = {}
    for b in scheme.table.blocks:
        coeff = abs(b.coefficient.evaluate(scheme.values))
        peak[b.owner] = peak.get(b.owner, 0.0) + scheme.a * scheme.Q * coeff
    return peak


def _noiseless(scheme, messages, jam_sum):
    """Receive value of message symbols and a jamming-symbol sum: every
    jamming stream arrives on coefficient 1."""
    return scheme.a * (sum(scheme.rx_value(b) * v
                           for b, v in zip(scheme.table.messages, messages)) + jam_sum)


def _decode(scheme, y):
    """Nearest-point decode of a batch of observations through the receive
    table: (message symbol rows, jamming sums)."""
    table = receive_decode_table(scheme)
    return table.indices_to_symbols(decode_indices(table, np.asarray(y, dtype=float)))


class TestHelperScheme:
    def test_receiver_table_aligns_all_jamming(self, helper1):
        # every jamming stream arrives with coefficient exactly 1 (symbolic)
        rx = _arrivals(helper1, 1)
        assert rx["U1"] == Monomial.one()
        assert rx["U2"] == Monomial.one()
        assert rx["V2"] == Monomial.from_dict({"h_11": 1, "alpha_2": 1})

    def test_all_jamming_aligned_for_any_m(self):
        for M in (0, 1, 2, 3):
            r = sample_channel(HelperModel(M), fixed=True, seed=M)
            s = build_helper_scheme(M, r)
            assert all(_arrivals(s, 1)[f"U{j}"] == Monomial.one()
                       for j in range(1, M + 2))

    def test_eavesdropper_jamming_coeffs_distinct(self):
        r = sample_channel(HelperModel(2), fixed=True, seed=12)
        s = build_helper_scheme(2, r)
        coeffs = [_arrivals(s, None)[f"U{j}"] for j in (1, 2, 3)]
        assert len(set(coeffs)) == 3
        values = [c.evaluate(s.values) for c in coeffs]
        assert len(set(values)) == 3

    def test_degenerate_no_helpers(self):
        r = sample_channel(HelperModel(0), fixed=True, seed=1)
        s = build_helper_scheme(0, r)
        assert s.table.messages == ()
        assert [b.name for b in s.table.jamming] == ["U1"]

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
        v = [data.draw(st.integers(-Q, Q)) for _ in scheme.table.messages]
        u = [data.draw(st.integers(-Q, Q)) for _ in scheme.table.jamming]
        msgs, jam = _decode(scheme, [_noiseless(scheme, v, sum(u))])
        assert msgs.tolist() == [v]
        assert jam.tolist() == [sum(u)]

    def test_tie_breaks_toward_lexicographically_smallest(self, helper1):
        # force integer receive coefficients: points are 3 v + u with
        # v in {-1,0,1} and u in {-2..2}; the value 1 is hit by both
        # (v=0, u=1) and (v=1, u=-2), and 0.5 sits midway between two points
        rigged = dataclasses.replace(
            helper1, Q=1, a=1.0,
            values={**helper1.values, "h_11": 3.0, "alpha_2": 1.0})
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
        assert len(s.table.messages) == 4
        assert len(s.table.jamming) == 3
        # the eavesdropper resolves exactly K coefficient classes
        assert len(set(_arrivals(s, None).values())) == 3

    def test_messages_hide_under_matching_jamming(self):
        r = sample_channel(MacPartialModel(3, 2), fixed=True, seed=6)
        eve = _arrivals(build_partial_csit_fixed(3, 2, r), None)
        for i in (1, 2):
            for j in (1, 2, 3):
                if j == i:
                    continue
                assert eve[f"V{i}_{j}"] == eve[f"U{j}"]

    def test_all_informed_matches_full_scheme_shape(self):
        r = sample_channel(MacPartialModel(3, 3), fixed=True, seed=2)
        s = build_partial_csit_fixed(3, 3, r)
        assert len(s.table.messages) == 3 * 2

    def test_single_informed_looks_like_helper_scheme(self):
        r = sample_channel(MacPartialModel(3, 1), fixed=True, seed=2)
        s = build_partial_csit_fixed(3, 1, r)
        assert len(s.table.messages) == 2
        assert all(_arrivals(s, 1)[f"U{j}"] == Monomial.one() for j in (1, 2, 3))

    def test_receiver_jamming_aligned_and_power_held(self):
        r = sample_channel(MacPartialModel(3, 2), fixed=True, seed=6)
        s = build_partial_csit_fixed(3, 2, r)
        assert all(_arrivals(s, 1)[f"U{j}"] == Monomial.one() for j in (1, 2, 3))
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


# float.hex of (a, gamma) and of every message stream's receive coefficient
# (rx_value, in table order; each jamming stream's is exactly 1), at the
# builders' defaults P = 1e6, delta = 0.05 on the fixed gains of the seed.
# At (10, 2), seed 1 cannot tell h_1 from h_10 in a product's name order,
# and seed 2 can.
PINNED_SCHEMES = {
    (HelperModel(1), 1): (24, '0x1.a4242a657a61fp+4', '0x1.42ab229bc2578p-1',
        ['0x1.abb973df81c8ep+0']),
    (HelperModel(2), 1): (8, '0x1.c444b19afc1dcp+5', '0x1.cf1f6e301cca8p-2',
        ['0x1.abb973df81c8ep+0', '0x1.777c6a61bee09p+0']),
    (HelperModel(3), 1): (5, '0x1.80ac13965607bp+5', '0x1.ec6160c06e1e5p-3',
        ['0x1.abb973df81c8ep+0', '0x1.777c6a61bee09p+0', '0x1.d2aa8850433d6p+1']),
    (HelperModel(9), 1): (1, '0x1.2ba8521b8e422p+6', '0x1.32d96a9b316aap-4',
        ['0x1.abb973df81c8ep+0', '0x1.777c6a61bee09p+0', '0x1.d2aa8850433d6p+1',
         '0x1.b6d5586ef2122p+1', '-0x1.5dfe4a27a1b29p+1', '0x1.c1de57c8bd4eep+1',
         '-0x1.7b24f52a0e39cp+0', '-0x1.c8be4cb2f19d2p+1', '0x1.3c0459ad2bc2ap+1']),
    (MacPartialModel(3, 1), 1): (8, '0x1.cea032e78d26fp+5', '0x1.d9ba92558e7dep-2',
        ['-0x1.07d818a5bbab8p+0', '0x1.01d37e45d02f9p+1']),
    (MacPartialModel(3, 2), 1): (3, '0x1.ac351810c4ab8p+5', '0x1.48dd000ce0c54p-3',
        ['-0x1.07d818a5bbab8p+0', '0x1.01d37e45d02f9p+1', '-0x1.f0c7359f1e4f6p-1',
         '-0x1.f452660f75a79p+0']),
    (MacPartialModel(3, 3), 1): (2, '0x1.4127d20c9380ap+6', '0x1.48dd000ce0c54p-3',
        ['-0x1.07d818a5bbab8p+0', '0x1.01d37e45d02f9p+1', '-0x1.f0c7359f1e4f6p-1',
         '-0x1.f452660f75a79p+0', '0x1.fc5fa2c857375p-2', '-0x1.05f9b0efa01c5p-1']),
    (MacPartialModel(10, 2), 1): (1, '0x1.95ee3ba075c04p+5', '0x1.9fac453ff5814p-5',
        ['-0x1.07d818a5bbab8p+0', '0x1.01d37e45d02f9p+1', '-0x1.b3d4761dd7fc7p-2',
         '0x1.c9136c760610ep-2', '-0x1.6f9fb52ca1a5bp-1', '0x1.679f9c85919b6p+0',
         '-0x1.2ca3027c334dfp+1', '-0x1.33376fd45a372p+1', '-0x1.031a75e6b8beep+0',
         '-0x1.f0c7359f1e4f6p-1', '-0x1.f452660f75a79p+0', '0x1.a6df6525c257bp-2',
         '-0x1.bb7ca7fd8d111p-2', '0x1.64b1c0966f8e8p-1', '-0x1.5cee8bd48407bp+0',
         '0x1.23b2e3401726cp+1', '0x1.2a153c8e65691p+1', '0x1.f6cce44632d0dp-1']),
    (MacPartialModel(10, 2), 2): (1, '0x1.7f29551f6fa0bp+5', '0x1.885b79fb53963p-5',
        ['-0x1.b7a66a1e9fcd5p+2', '-0x1.05a0399951b6cp+2', '-0x1.6f5e65a479a29p+1',
         '0x1.39644e49b512bp+2', '0x1.38359f76ac3b9p+2', '0x1.085d35ad6e232p+3',
         '0x1.180e2786d5bd3p+1', '-0x1.ef89b59167ce8p+0', '0x1.5516ddb622b8dp+1',
         '-0x1.2a20c5c851cc5p-3', '0x1.30ae0134b1617p-1', '0x1.abd2e9f1457f9p-2',
         '-0x1.6cf6e1cb00bd1p-1', '-0x1.6b966389a4affp-1', '-0x1.33de58612f7b7p+0',
         '-0x1.46245425ee9eap-2', '0x1.208adeb557d42p-2', '-0x1.8d3848773aa66p-2']),
}


@pytest.mark.parametrize("model, seed", sorted(PINNED_SCHEMES, key=repr), ids=repr)
def test_scheme_floats_are_pinned(model, seed):
    r = sample_channel(model, fixed=True, seed=seed)
    s = (build_helper_scheme(model.M, r) if isinstance(model, HelperModel)
         else build_partial_csit_fixed(model.K, model.m_informed, r))
    assert (s.Q, s.a.hex(), s.gamma.hex(),
            [s.rx_value(b).hex() for b in s.table.messages]) == PINNED_SCHEMES[model, seed]
    assert all(s.rx_value(b) == 1.0 for b in s.table.jamming)
