"""The keyed stream schedule against numpy's SeedSequence -> PCG64 seeding.

``np.random.default_rng(np.random.SeedSequence(key))`` is the oracle
throughout: the batched schedule must reproduce its stream for every key,
and every caller that draws through the schedule must reproduce the
per-draw loop that builds one such generator per scalar.
"""
import json
import math

import numpy as np
import pytest

from sdof import analysis, converse, pam, precoding
from sdof.channel import (TAG_ALPHA, TAG_EVE, TAG_LEGIT, TAG_SAMPLE, TAG_SEED_VECTOR,
                          TAG_TRIAL, GainDistribution, HelperModel, InterferenceModel,
                          MacModel, MacPartialModel, key_grid, keyed_gains, keyed_states,
                          legit_links, sample_channel, substream)
from sdof.channel import _CHUNK
from sdof.errors import ParameterError

DISTRIBUTIONS = [GainDistribution(), GainDistribution(sign_symmetric=False),
                 GainDistribution(0.1, 7.3), GainDistribution(0.25, 3.0, sign_symmetric=False)]


def _oracle(*key):
    return np.random.default_rng(np.random.SeedSequence(key))


def _oracle_state(*key):
    state = _oracle(*key).bit_generator.state["state"]
    return state["state"], state["inc"]


def _oracle_gain(distribution, *key):
    return float(distribution.sample(_oracle(*key)))


class TestKeyedStates:
    @pytest.mark.parametrize("prefix, row", [
        ((0,), (0,)),                        # 2 words, zero-padded pool
        ((5, 2), (1,)),                      # 3 words
        ((7,), (3, 4, 9)),                   # 4 words, the pool exactly
        ((11, 0), (2, 3, 4)),                # 5 words: one beyond the pool
        ((1, 2), (0, 0, 0, 0)),              # 6 words, zero components
        ((0, 0), (0, 0)),                    # all zero
        ((2 ** 32,), (1,)),                  # prefix of two words
        ((2 ** 64 + 7, 3), (2 ** 32 - 1,)),  # three-word prefix, widest row word
        ((2 ** 100, 2 ** 40), (5, 6)),       # prefixes spanning 4 + 2 words
    ])
    def test_matches_seed_sequence(self, prefix, row):
        (pair,) = keyed_states(prefix, [row])
        assert pair == _oracle_state(*prefix, *row)

    def test_rows_across_chunk_boundaries(self):
        rows = key_grid(range(_CHUNK + 37), [3])
        got = list(keyed_states((9, 5), rows))
        assert len(got) == len(rows)
        for i in (0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, len(rows) - 1):
            assert got[i] == _oracle_state(9, 5, i, 3)

    def test_key_is_all_prefix(self):
        (pair,) = keyed_states((4, 2 ** 33, 0, 6), np.empty((1, 0), np.int64))
        assert pair == _oracle_state(4, 2 ** 33, 0, 6)

    def test_no_rows(self):
        assert list(keyed_states((1, 2), np.empty((0, 3), np.int64))) == []

    @pytest.mark.parametrize("prefix, rows", [
        ((-1, 2), [[0]]),
        ((1, 2), [[-1]]),
        ((1, 2), [[2 ** 32]]),
        ((1, 2), [0, 1]),          # not 2-D
        ((1, 2), [[0.5]]),         # not integer
    ])
    def test_rejects_bad_components(self, prefix, rows):
        with pytest.raises(ParameterError):
            keyed_states(prefix, rows)

    def test_key_grid_order(self):
        assert key_grid(range(1, 3), [0], range(2)).tolist() == [
            [1, 0, 0], [1, 0, 1], [2, 0, 0], [2, 0, 1]]
        assert key_grid(range(0)).shape == (0, 1)


class TestKeyedGains:
    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    def test_matches_per_draw_sample(self, distribution):
        rows = key_grid(range(1, 4), range(0, 2), range(_CHUNK // 2 + 5))
        got = keyed_gains(distribution, (21, TAG_LEGIT), rows)
        assert got.dtype == np.float64 and got.shape == (len(rows),)
        want = [_oracle_gain(distribution, 21, TAG_LEGIT, *row) for row in rows.tolist()]
        assert got.tolist() == want

    def test_wide_prefix(self):
        rows = key_grid(range(3), range(4))
        got = keyed_gains(GainDistribution(), (2 ** 70 + 1,), rows)
        assert got.tolist() == [_oracle_gain(GainDistribution(), 2 ** 70 + 1, *row)
                                for row in rows.tolist()]

    def test_empty(self):
        assert keyed_gains(GainDistribution(), (0, 1), key_grid(range(0))).shape == (0,)

    def test_negative_key_rejected(self):
        with pytest.raises(ParameterError):
            keyed_gains(GainDistribution(), (-3, 1), [[0]])


class TestSubstream:
    @pytest.mark.parametrize("key", [(0,), (3, 2), (1, 2, 3, 4, 5, 6), (2 ** 40, 0, 9)])
    def test_matches_seed_sequence(self, key):
        got, want = substream(*key), _oracle(*key)
        assert got.random(5).tolist() == want.random(5).tolist()
        assert got.standard_normal(5).tolist() == want.standard_normal(5).tolist()
        assert got.integers(0, 2, 64).tolist() == want.integers(0, 2, 64).tolist()

    def test_negative_key_rejected(self):
        with pytest.raises(ParameterError):
            substream(4, -1)


# ---------------------------------------------------------------------------
# callers against their per-draw loops
# ---------------------------------------------------------------------------

def _reference_channel(model, distribution, slots, fixed, seed):
    """sample_channel's JSON as the per-draw loop: one generator per gain."""
    r = sample_channel(model, distribution, slots=slots, fixed=fixed, seed=seed)
    legit = {(tx, rx, t): _oracle_gain(distribution, seed, TAG_LEGIT, tx, rx, 0 if fixed else t)
             for tx, rx in legit_links(model) for t in range(1, slots + 1)}
    eve = {(tx, t): _oracle_gain(distribution, seed, TAG_EVE, tx, 0, 0 if fixed else t)
           for tx in model.transmitters for t in range(1, slots + 1)}
    doc = r.to_json_dict()
    doc["gains"] = [{"tx": tx, "rx": rx, "t": t, "value": v}
                    for (tx, rx, t), v in sorted(legit.items())]
    doc["eve_gains"] = [{"tx": tx, "t": t, "value": v} for (tx, t), v in sorted(eve.items())]
    return doc


@pytest.mark.parametrize("seed", [0, 3, 2 ** 33 + 1])
@pytest.mark.parametrize("fixed", [True, False])
@pytest.mark.parametrize("model", [HelperModel(2), MacModel(3), MacPartialModel(3, 2),
                                   InterferenceModel(3)], ids=lambda m: m.name)
def test_sample_channel_matches_per_draw_loop(model, fixed, seed):
    distribution = GainDistribution(0.25, 3.0, sign_symmetric=seed != 3)
    r = sample_channel(model, distribution, slots=4, fixed=fixed, seed=seed)
    assert json.dumps(r.to_json_dict()) == json.dumps(
        _reference_channel(model, distribution, 4, fixed, seed))


def _reference_mc(scheme, P, trials, seed):
    """monte_carlo_error_rate as the per-trial loop: one generator per trial."""
    scheme = scheme.with_power(P)
    n_msg, n_jam = len(scheme.message_streams), len(scheme.jamming_streams)
    uniforms = np.empty((trials, n_msg + n_jam))
    noise = np.empty(trials)
    for t in range(trials):
        rng = _oracle(seed, TAG_TRIAL, t)
        uniforms[t] = rng.random(n_msg + n_jam)
        noise[t] = rng.standard_normal()
    Q = scheme.Q
    symbols = np.floor(uniforms * (2 * Q + 1)).astype(int) - Q
    v_true = symbols[:, :n_msg]
    coeffs = np.array([scheme.rx_value(s) * scheme.a for s in scheme.message_streams])
    y = (v_true @ coeffs + scheme.a * symbols[:, n_msg:].sum(axis=1)
         + math.sqrt(scheme.realization.noise_variance) * noise)
    table = pam.receive_decode_table(scheme)
    v_hat, _ = table.indices_to_symbols(pam.decode_indices(table, y))
    report = analysis.ErrorRateReport(P=scheme.P, Q=Q, n_messages=n_msg, trials=trials,
                                      errors=int(np.count_nonzero(np.any(v_hat != v_true, axis=1))))
    report.mutual_information_nats = sum(
        analysis._stream_mutual_information(v_true[:, k], v_hat[:, k]) for k in range(n_msg))
    return report


@pytest.mark.parametrize("M, seed, trials", [(1, 8, _CHUNK + 1), (1, 2, 700), (2, 5, 2 * _CHUNK + 3)])
def test_monte_carlo_matches_per_trial_loop(M, seed, trials):
    scheme = pam.build_helper_scheme(M, sample_channel(HelperModel(M), fixed=True, seed=seed), P=1e4)
    for P in (1e4, 1e6):
        got = analysis.monte_carlo_error_rate(scheme, P=P, trials=trials, seed=seed)
        want = _reference_mc(scheme, P, trials, seed)
        assert got.to_json_dict() == want.to_json_dict()
        assert got.mutual_information_nats == want.mutual_information_nats


def test_monte_carlo_rejects_negative_seed():
    scheme = pam.build_helper_scheme(1, sample_channel(HelperModel(1), fixed=True, seed=1))
    with pytest.raises(ParameterError):
        analysis.monte_carlo_error_rate(scheme, trials=10, seed=-1)


@pytest.mark.parametrize("seed", [1, 4])
def test_precoders_match_per_draw_seed_vectors(seed):
    K, n = 3, 1
    m_n = precoding.interference_slots(K, n)
    r = sample_channel(InterferenceModel(K), fixed=False, slots=m_n, seed=seed)
    pre = precoding.build_asymptotic_precoders(K, n, r)
    for idx, target in pre.targets.items():
        w = np.array([_oracle_gain(r.distribution, seed, TAG_SEED_VECTOR, idx, t)
                      for t in range(1, m_n + 1)])
        tables = precoding._power_tables(target.generators, n + 1, m_n)
        assert np.array_equal(target.base, precoding._columns(w, tables, target.base_exponents))
        assert np.array_equal(target.extended,
                              precoding._columns(w, tables, target.extended_exponents))


@pytest.mark.parametrize("M, seed", [(1, 0), (3, 8)])
def test_pam_alphas_match_per_draw_loop(M, seed):
    r = sample_channel(HelperModel(M), fixed=True, seed=seed)
    scheme = pam.build_helper_scheme(M, r)
    for k in range(2, M + 2):
        assert scheme.values[f"alpha_{k}"] == _oracle_gain(r.distribution, seed, TAG_ALPHA, 0, k)


def test_floor_entropy_sweep_matches_per_draw_loop():
    distribution = GainDistribution(0.5, 3.0)
    sweep = converse.floor_entropy_sweep(distribution, 1e3, 25, seed=6)
    gains = [_oracle_gain(distribution, 6, TAG_SAMPLE, i) for i in range(25)]
    assert [rep.h for rep in sweep.reports] == gains
