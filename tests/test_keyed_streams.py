"""The keyed stream schedule against numpy's SeedSequence -> PCG64 seeding.

``np.random.default_rng(np.random.SeedSequence(key))`` is the oracle
throughout: the batched schedule must reproduce its stream for every key,
and every caller that draws through the schedule must reproduce the
per-draw loop that builds one such generator per scalar.
"""
import itertools
import math

import numpy as np
import pytest

from sdof import analysis, channel, converse, pam, precoding
from sdof.channel import (TAG_ALPHA, TAG_EVE, TAG_LEGIT, TAG_SAMPLE, TAG_SEED_VECTOR,
                          TAG_TRIAL, GainDistribution, HelperModel, InterferenceModel,
                          MacModel, MacPartialModel, key_grid, keyed_gains, keyed_states,
                          keyed_streams, sample_channel, standard_normals, substream)
from sdof.channel import _CHUNK
from sdof.errors import ParameterError

# PCG64's 128-bit LCG multiplier, written out here so the tests do not take
# it from the code under test
MULT = 0x2360ED051FC65DA44385DF649FCCF645
MASK128 = (1 << 128) - 1
MULT_INV = pow(MULT, -1, 1 << 128)

DISTRIBUTIONS = [GainDistribution(), GainDistribution(sign_symmetric=False),
                 GainDistribution(0.1, 7.3), GainDistribution(0.25, 3.0, sign_symmetric=False)]


def _oracle(*key):
    return np.random.default_rng(np.random.SeedSequence(key))


def _oracle_state(*key):
    state = _oracle(*key).bit_generator.state["state"]
    return state["state"], state["inc"]


def _oracle_gain(distribution, *key):
    return float(distribution.sample(_oracle(*key)))


def _numpy_at(state, inc):
    """numpy's PCG64 generator put at the stream (state, inc)."""
    bit_generator = np.random.PCG64()
    bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                           "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bit_generator)


def _state_rows(streams):
    """(n, 4) uint64 kernel states (state high, state low, inc high, inc low)."""
    return np.array([[s >> 64, s & (2 ** 64 - 1), i >> 64, i & (2 ** 64 - 1)] for s, i in streams],
                    dtype=np.uint64)


def _before(state, inc):
    """The state whose LCG step lands on ``state``."""
    return (state - inc) * MULT_INV & MASK128


# streams (state, inc) whose steps exercise every carry of the 128-bit
# arithmetic and both ends of the XSL-RR rotation
CARRY_STREAMS = [
    (2 ** 64 - 1, 1),                                   # low word all ones
    (2 ** 64, 2 ** 64 - 1),                             # just past 2**64
    (2 ** 128 - 1, 2 ** 128 - 1),                       # near 2**128
    (0, 2 ** 128 - 1),
    (_before(2 ** 64 - 1, 1), 1),                       # step lands on 2**64 - 1
    (_before(0, 2 ** 64 + 1), 2 ** 64 + 1),             # step wraps to 0
    # product low word all ones plus inc low word 1: the sum carries into the high word
    ((3 << 64 | 2 ** 64 - 1) * MULT_INV & MASK128, 5 << 64 | 1),
    (_before(2 ** 58 - 1 << 64 | 12345, 7), 7),         # rotation 0, high word nonzero
    (_before(5, 9), 9),                                 # rotation 0, high word zero
    (_before(2 ** 128 - 1, 2 ** 127 + 1), 2 ** 127 + 1),  # rotation 63
    (_before(63 << 122 | 1, 3), 3),                     # rotation 63, low bit only
]


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


class TestKernel:
    @pytest.mark.parametrize("stream", CARRY_STREAMS)
    def test_carries_and_rotations_match_numpy(self, stream):
        states = _state_rows([stream])
        out = np.empty((1, 4), np.uint64)
        channel._draw(states, out)
        bit_generator = _numpy_at(*stream).bit_generator
        assert out[0].tolist() == bit_generator.random_raw(4).tolist()
        want = bit_generator.state["state"]
        assert channel._stream(states[0]) == (want["state"], want["inc"])

    def test_streams_match_random_raw(self):
        rows = key_grid(range(_CHUNK + 3), [1])
        outputs, states = keyed_streams((4, 2 ** 33), rows, 3)
        assert outputs.shape == (len(rows), 3) and states.shape == (len(rows), 4)
        for i in (0, 7, _CHUNK - 1, _CHUNK, len(rows) - 1):
            bit_generator = _oracle(4, 2 ** 33, i, 1).bit_generator
            assert outputs[i].tolist() == bit_generator.random_raw(3).tolist()
            want = bit_generator.state["state"]
            assert channel._stream(states[i]) == (want["state"], want["inc"])


def _ziggurat_probe_states(idx, rabs, sign):
    """Streams whose next output is rabs << 9 | sign << 8 | idx (rotation 0)."""
    inc = 2 ** 64 + 2 * idx + 1
    return [(_before(r << 9 | s << 8 | idx, inc), inc) for r, s in zip(rabs, sign)]


def _numpy_normals(streams):
    """numpy's standard_normal() at each stream, and whether it used one output."""
    values, one_output = [], []
    for state, inc in streams:
        rng = _numpy_at(state, inc)
        values.append(rng.standard_normal())
        after = rng.bit_generator.state["state"]["state"]
        one_output.append(after == state * MULT + inc & MASK128)
    return values, one_output


class TestZiggurat:
    def test_every_fast_path_entry_against_numpy(self):
        ki, wi = channel._ziggurat_tables()
        assert ki[1] == 0 and np.all(ki[2:] > ki[1])
        rng = np.random.default_rng(2024)
        streams, cases = [], []
        for idx in range(256):
            k = int(ki[idx])
            rabs = sorted({0, 1, max(k - 1, 0), k, 2 ** 52 - 1,
                           int(rng.integers(0, max(k, 1))), int(rng.integers(k, 2 ** 52))})
            for sign in (0, 1):
                streams += _ziggurat_probe_states(idx, rabs, [sign] * len(rabs))
                cases += [(idx, r, sign) for r in rabs]
        got = standard_normals(_state_rows(streams))
        values, one_output = _numpy_normals(streams)
        assert got.tolist() == values
        for (idx, r, sign), fast, value in zip(cases, one_output, values):
            # numpy leaves its fast path exactly at rabs = ki[idx] ...
            assert fast == (r < ki[idx]), (idx, r)
            # ... and on it returns ±rabs·wi[idx]
            if fast:
                assert value == (-1) ** sign * (r * wi[idx])

    def test_slow_path_rows_at_every_kind_of_idx(self):
        ki, _ = channel._ziggurat_tables()
        idx = [0, 0, 1, 1, 2, 128, 255]
        rabs = [int(ki[0]), 2 ** 52 - 1, 0, 2 ** 51, int(ki[2]), 2 ** 52 - 1, int(ki[255])]
        streams = _ziggurat_probe_states(0, [], [])
        for i, r in zip(idx, rabs):
            streams += _ziggurat_probe_states(i, [r], [i % 2])
        got = standard_normals(_state_rows(streams))
        values, one_output = _numpy_normals(streams)
        assert not any(one_output)
        assert got.tolist() == values

    @pytest.mark.parametrize("seed", [3, 2 ** 40 + 1])
    def test_keyed_normals_with_slow_paths_match_oracle(self, seed):
        ki, _ = channel._ziggurat_tables()
        trials = 20 * _CHUNK
        outputs, states = keyed_streams((seed, TAG_TRIAL), key_grid(range(trials)), 2)
        got = standard_normals(states)
        # the kernel's next output of each stream, to see which path each takes
        raw = np.empty((trials, 1), np.uint64)
        channel._draw(states.copy(), raw)
        idx = (raw[:, 0] & np.uint64(0xFF)).astype(int)
        slow = (raw[:, 0] >> np.uint64(9) & np.uint64(2 ** 52 - 1)) >= ki[idx]
        picked = [np.flatnonzero(slow & (idx == 0))[:5], np.flatnonzero(idx == 1)[:5],
                  np.flatnonzero(slow & (idx > 1))[:20], np.arange(_CHUNK - 40, _CHUNK + 40)]
        assert all(len(p) for p in picked)
        for t in np.concatenate(picked).tolist():
            rng = _oracle(seed, TAG_TRIAL, t)
            assert outputs[t].tolist() == rng.bit_generator.random_raw(2).tolist()
            assert got[t] == rng.standard_normal(), t

    def test_tables_are_read_only(self):
        for table in channel._ziggurat_tables():
            with pytest.raises(ValueError, match="read-only"):
                table[3] = 0


@pytest.mark.parametrize("streams", [3, 4, 5])
def test_trial_draws_across_a_chunk_edge(streams):
    seed, trials = 12, _CHUNK + 4
    analysis._trial_draws.cache_clear()
    uniforms, noise = analysis._trial_draws(seed, trials, streams)
    assert uniforms.shape == (trials, streams)
    for t in range(trials):
        rng = _oracle(seed, TAG_TRIAL, t)
        assert uniforms[t].tolist() == rng.random(streams).tolist()
        assert noise[t] == rng.standard_normal()


# ---------------------------------------------------------------------------
# callers against their per-draw loops
# ---------------------------------------------------------------------------

def _reference_gains(model, distribution, slots, fixed, seed):
    """sample_channel's legit and eve arrays as the per-draw loop: one
    generator per gain."""
    times = [0 if fixed else t for t in range(1, slots + 1)]
    legit = [[[_oracle_gain(distribution, seed, TAG_LEGIT, tx, rx, t) for t in times]
              for rx in model.receivers] for tx in model.transmitters]
    eve = [[_oracle_gain(distribution, seed, TAG_EVE, tx, 0, t) for t in times]
           for tx in model.transmitters]
    return legit, eve


@pytest.mark.parametrize("seed", [0, 3, 2 ** 33 + 1])
@pytest.mark.parametrize("fixed", [True, False])
@pytest.mark.parametrize("model", [HelperModel(2), MacModel(3), MacPartialModel(3, 2),
                                   InterferenceModel(3)], ids=lambda m: m.name)
def test_sample_channel_matches_per_draw_loop(model, fixed, seed):
    distribution = GainDistribution(0.25, 3.0, sign_symmetric=seed != 3)
    r = sample_channel(model, distribution, slots=4, fixed=fixed, seed=seed)
    legit, eve = _reference_gains(model, distribution, 4, fixed, seed)
    assert r.legit.tolist() == legit
    assert r.eve.tolist() == eve


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


# Fixed trial counts, then counts that cross one and two edges of _CHUNK.
@pytest.mark.parametrize("M, seed, trials", [(1, 8, 1025), (1, 2, 700), (2, 5, 2051),
                                             (1, 8, _CHUNK + 1), (2, 5, 2 * _CHUNK + 3)])
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


def _reference_columns(w, generators, top):
    """One column per exponent row e of {1..top}^Gamma in itertools.product
    order: w * t_0[e_0] * t_1[e_1] * ..., t_i[e] the e-th power of
    generator i by repeated multiplication."""
    powers = []
    for g in generators:
        table = [g.entries]
        while len(table) < top:
            table.append(table[-1] * g.entries)
        powers.append(table)
    columns = []
    for e in itertools.product(range(1, top + 1), repeat=len(generators)):
        column = w
        for table, ei in zip(powers, e):
            column = column * table[ei - 1]
        columns.append(column)
    return np.column_stack(columns)


@pytest.mark.parametrize("seed", [1, 4])
def test_precoders_match_per_draw_seed_vectors(seed):
    for K, n in [(3, 1), (3, 2), (4, 1)]:
        m_n = precoding.interference_slots(K, n)
        r = sample_channel(InterferenceModel(K), fixed=False, slots=m_n, seed=seed)
        pre = precoding.build_asymptotic_precoders(K, n, r)
        for idx, target in pre.targets.items():
            w = np.array([_oracle_gain(r.distribution, seed, TAG_SEED_VECTOR, idx, t)
                          for t in range(1, m_n + 1)])
            assert np.array_equal(target.base, _reference_columns(w, target.generators, n))
            assert np.array_equal(target.extended,
                                  _reference_columns(w, target.generators, n + 1))


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
