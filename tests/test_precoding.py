import dataclasses
import hashlib
import itertools
import os
import platform
import subprocess
import sys
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdof import pam, precoding
from sdof.channel import (TAG_ALPHA, HelperModel, InterferenceModel,
                          MacPartialModel, sample_channel)
from sdof.errors import CapacityError, ModeError, ParameterError
from sdof.interference_sets import arrival, beta_general, blind_table, gain_name
from sdof.monomial import Monomial
from sdof.precoding import (DEFAULT_RANK_TOL, build_asymptotic_precoders, build_cj_generators,
                            build_helper_fading, build_partial_csit_fading,
                            _generator_factors, _instances,
                            assemble_receiver_and_eve_matrices,
                            interference_gamma,
                            interference_slots, mutate_qtilde, numeric_rank,
                            partial_csit_decode, verify_alignment_equations,
                            zero_force_decode)


@pytest.fixture(scope="module")
def helper2():
    r = sample_channel(HelperModel(2), fixed=False, slots=3, seed=5)
    return build_helper_fading(2, r)


@pytest.fixture(scope="module")
def precoders_n1():
    slots = interference_slots(3, 1)
    r = sample_channel(InterferenceModel(3), fixed=False, slots=slots, seed=1)
    return build_asymptotic_precoders(3, 1, r)


@pytest.fixture(scope="module")
def precoders_n2():
    slots = interference_slots(3, 2)
    r = sample_channel(InterferenceModel(3), fixed=False, slots=slots, seed=1)
    return build_asymptotic_precoders(3, 2, r)


@pytest.fixture(scope="module")
def precoders_k4():
    slots = interference_slots(4, 1)
    r = sample_channel(InterferenceModel(4), fixed=False, slots=slots, seed=3)
    return build_asymptotic_precoders(4, 1, r)


class TestNumericRank:
    def test_basics(self):
        assert numeric_rank(np.zeros((3, 3))) == 0
        assert numeric_rank(np.eye(4)) == 4
        assert numeric_rank(np.ones((5, 5))) == 1

    def test_scaling_invariance(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(6, 4))
        scaled = (1e8 * rng.uniform(0.5, 2, 6)[:, None]) * A * 1e-7
        assert numeric_rank(scaled) == numeric_rank(A) == 4
        # rows far apart in magnitude, whose squares stay finite, and a zero row
        extreme = np.array([1e100, 1e-100, 1, 1e100, 1e-100, 1])[:, None] * A
        assert numeric_rank(extreme) == 4
        assert numeric_rank(extreme[:, :3] @ rng.normal(size=(3, 4))) == 3
        extreme[2] = 0.0
        assert numeric_rank(extreme) == 4
        assert numeric_rank(np.vstack([np.zeros(4), 1e-100 * np.eye(4)[:2]])) == 2
        # rows whose squares leave the float range: scaled by powers of two first
        big = np.eye(4)
        big[1, 1] = 1e200
        assert numeric_rank(big) == 4
        assert numeric_rank(np.diag([1, 1e-200, 1, 1])) == 4
        # and columns: after the row scaling, column 2 (column 1) would hold
        # squares that underflow; a power-of-two column scaling keeps them
        assert numeric_rank(np.array([[1, 1e-200], [1, 2e-200]])) == 2
        assert numeric_rank(np.array([[1, 1e200], [1, 2e200]])) == 2
        # a row whose largest entry is subnormal would need a scaling past
        # the float range: refused, not counted as a zero row
        with pytest.raises(ParameterError, match="finite"):
            numeric_rank(np.diag([1, 1e-310, 1, 1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_are_refused(self, bad):
        A = np.eye(4)
        A[1, 2] = bad
        with pytest.raises(ParameterError, match="finite"):
            numeric_rank(A)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(form=st.sampled_from(["square", "tall", "wide"]), k=st.integers(2, 24),
           extra=st.integers(1, 24), tol=st.sampled_from([1e-12, 1e-10, 1e-6]),
           factor=st.floats(0.3, 30.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_certificate_agrees_with_the_singular_values(self, form, k, extra, tol,
                                                         factor, seed):
        # singular values 1 .. sigma_min, the smallest planted at factor
        # times the threshold; whether the Cholesky certifies or the SVD
        # counts, the rank is the SVD's count on the equilibrated matrix
        rng = np.random.default_rng(seed)
        rows, cols = {"square": (k, k), "tall": (k + extra, k), "wide": (k, k + extra)}[form]
        s = np.sort(np.exp(rng.uniform(np.log(factor * tol * max(rows, cols)), 0.0, k)))[::-1]
        s[0], s[-1] = 1.0, factor * tol * max(rows, cols)
        U = np.linalg.qr(rng.normal(size=(rows, k)))[0]
        V = np.linalg.qr(rng.normal(size=(cols, k)))[0]
        A = (U * s) @ V.T
        r, c = precoding._equilibrate(A)
        B = A * r[:, None] * c
        want = precoding._kept(np.linalg.svd(B, compute_uv=False), tol, A.shape)
        assert numeric_rank(A, tol) == want

    @pytest.mark.parametrize("factor, want_svds, want_rank", [
        (0.5, 1, 15), (1.5, 1, 16), (20.0, 0, 16)])
    def test_certificate_needs_twice_the_threshold(self, factor, want_svds, want_rank,
                                                   monkeypatch):
        # rows, and columns, of equal norm: equilibration scales the matrix
        # uniformly, so sigma_min sits at factor times the threshold; one
        # dominant singular value makes ||B||_F ~ sigma_max, so the cut at
        # twice the threshold is sharp.  Below it the SVD decides
        tol, N, k = 1e-6, 32, 16
        s = np.full(k, 1e-3)
        s[0], s[-1] = 1.0, factor * tol * N
        A = (_hadamard(N)[:, :k] * s) @ _hadamard(k)
        calls = _count_svds(monkeypatch)
        assert numeric_rank(A, tol) == want_rank
        assert numeric_rank(A.T, tol) == want_rank
        assert len(calls) == 2 * want_svds

    def test_scheme_ranks_are_certified_without_an_svd(self, precoders_n2, monkeypatch):
        # K = 3, n = 2, seed 1: the decoders and the eavesdropper's jamming
        # matrix are full rank; in each interference matrix 96 jamming
        # columns repeat unintended columns, which merge, and the rest are
        # independent: (K+1)(n+1)^Gamma = 324.  The mutated Q~_1 no longer
        # aligns, which leaves 340.  No rank needs an SVD
        mats = assemble_receiver_and_eve_matrices(precoders_n2)
        mutated = assemble_receiver_and_eve_matrices(mutate_qtilde(precoders_n2, 1))
        calls = _count_svds(monkeypatch)
        for l in (1, 2, 3):
            assert numeric_rank(mats.decoders[l]) == 356
        assert numeric_rank(mats.eve_jamming) == 356
        assert [numeric_rank(mats.interference[l]) for l in (1, 2, 3)] == [324] * 3
        assert [numeric_rank(mutated.interference[l]) for l in (1, 2, 3)] == [340] * 3
        assert calls == []

    def test_the_reference_unit_factors_only_kept_columns(self, precoders_n2, monkeypatch):
        # the fading_verify reference unit (K = 3, n = 2, seed 1) runs no
        # SVD.  Each target's 81 extended columns are factored for their
        # certificate and for one CholeskyQR pass; each of the 7 ranks forms
        # one Gram and takes one Cholesky of it, of its kept columns alone:
        # 324 of the interference matrices' 420, all 356 of the square ones
        orders, grams, cholesky = [], [], np.linalg.cholesky

        def recording(G):
            orders.append(len(G))
            return cholesky(G)

        class GramRecording(np.ndarray):  # records every square product taken of it
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                out = getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)
                if ufunc is np.matmul and out.shape[0] == out.shape[-1]:
                    grams.append(len(out))
                return out

        svds = _count_svds(monkeypatch)
        monkeypatch.setattr(np.linalg, "cholesky", recording)
        assert verify_alignment_equations(precoders_n2).ok
        assert orders == [81] * 8
        mats = assemble_receiver_and_eve_matrices(precoders_n2)
        cases = ([(mats.decoders[l], 356) for l in (1, 2, 3)]
                 + [(mats.interference[l], 324) for l in (1, 2, 3)] + [(mats.eve_jamming, 356)])
        for A, want in cases:
            orders.clear()
            assert numeric_rank(A) == want
            assert orders == [want]
            B = precoding._scaled(A, *precoding._equilibrate(A))
            assert precoding._certified_rank(B.view(GramRecording), DEFAULT_RANK_TOL) == want
            assert grams == [want]
            grams.clear()
        assert svds == []

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(form=st.sampled_from(["square", "tall", "wide"]), r=st.integers(1, 16),
           copies=st.integers(1, 12), extra=st.integers(0, 12),
           tol=st.sampled_from([1e-12, 1e-10, 1e-6]), seed=st.integers(0, 2 ** 32 - 1))
    def test_merged_copies_agree_with_the_singular_values(self, form, r, copies, extra,
                                                         tol, seed):
        # r independent columns (singular values 1 .. 1e-3) and copies of
        # some of them, scaled by powers of two (exact) or by other factors
        # (one rounding each), at random positions: whether merged and
        # certified or counted, the rank is the SVD's on the equilibrated matrix
        rng = np.random.default_rng(seed)
        cols = r + copies
        rows = {"square": cols, "tall": cols + 1 + extra,
                "wide": r + extra % copies}[form]
        s = np.exp(rng.uniform(np.log(1e-3), 0.0, r))
        s[0] = 1.0
        U = np.linalg.qr(rng.normal(size=(rows, r)))[0]
        V = np.linalg.qr(rng.normal(size=(r, r)))[0]
        base = (U * s) @ V.T
        scales = np.where(rng.random(copies) < 0.5,
                          np.ldexp(1.0, rng.integers(-8, 9, copies)),
                          rng.uniform(-3.0, 3.0, copies))
        A = np.hstack([base, base[:, rng.integers(0, r, copies)] * scales])
        A = A[:, rng.permutation(cols)]
        rr, cc = precoding._equilibrate(A)
        B = A * rr[:, None] * cc
        want = precoding._kept(np.linalg.svd(B, compute_uv=False), tol, A.shape)
        assert numeric_rank(A, tol) == want

    @pytest.mark.parametrize("factor, want_rank", [(0.3, 15), (1.0, 15), (1.5, 15),
                                                   (3.0, 15), (6.0, 16)])
    def test_a_near_parallel_copy_is_merged_only_below_half_the_threshold(
            self, factor, want_rank, monkeypatch):
        # 15 orthonormal columns and a copy of the first tilted by an angle
        # whose residual is factor times tol N sqrt(t / 16) / 2 = tol N / 2,
        # half the SVD's threshold; rows and columns of nearly equal norm,
        # so equilibration barely moves it.  Every copy is within the merge
        # angle, and the SVD keeps the one at 6x.  The SVD runs exactly when
        # the certificate cannot decide, and the answer is the SVD's count
        tol, N = 1e-6, 32
        H = _hadamard(N)
        theta = np.arcsin(factor * tol * N / 2)
        A = np.hstack([H[:, :15], np.cos(theta) * H[:, :1] + np.sin(theta) * H[:, 15:16]])
        rr, cc = precoding._equilibrate(A)
        B = A * rr[:, None] * cc
        want = precoding._kept(np.linalg.svd(B, compute_uv=False), tol, A.shape)
        certified = precoding._certified_rank(B, tol)
        calls = _count_svds(monkeypatch)
        assert numeric_rank(A, tol) == want == want_rank
        assert len(calls) == (certified is None)
        if factor != 1.0:  # at 1x the rounding allowance decides
            assert (certified is None) == (factor > 1)

    def test_a_copy_merged_into_a_merged_column_is_not_certified(self):
        # columns at angles 0, 1e-4 and 2e-4 in one plane: the third merges
        # into the second, which merged into the first, so the matrix that
        # replaces each merged column by a kept one does not exist; the
        # residuals are far below half the threshold, and still only the
        # SVD may count
        tol, N = 1e-4, 32
        H = _hadamard(N)
        A = np.hstack([H[:, 2:16]] + [np.cos(a) * H[:, :1] + np.sin(a) * H[:, 1:2]
                                      for a in (0.0, 1e-4, 2e-4)])
        rr, cc = precoding._equilibrate(A)
        B = A * rr[:, None] * cc
        assert precoding._certified_rank(B, tol) is None
        assert numeric_rank(A, tol) == 15

    def test_a_combination_of_every_other_column_is_counted(self):
        # sigma_min is zero, and only rounding makes the Gram definite or
        # not: the shift's rounding allowance keeps the Cholesky from
        # certifying full rank at a tol far below it
        for seed in range(20):
            rng = np.random.default_rng(seed)
            A = rng.normal(size=(16, 12))
            A[:, -1] = A[:, :-1] @ rng.normal(size=11)
            assert numeric_rank(A, 1e-13) == 11

    def test_zero_columns_and_wide_matrices_need_no_svd(self, monkeypatch):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(8, 6))
        A[:, 2] = 0.0
        wide = rng.normal(size=(10, 30))
        calls = _count_svds(monkeypatch)
        assert numeric_rank(A) == 5
        assert numeric_rank(wide) == 10
        assert numeric_rank(wide.T) == 10
        assert calls == []

    def test_a_wide_matrix_with_a_zero_row_needs_no_svd(self, monkeypatch):
        # 8 columns over 5 nonzero rows: the zero row is dropped before the
        # row Gram, whose Cholesky it would break, and full row rank 5 is
        # certified
        A = np.random.default_rng(3).normal(size=(6, 8))
        A[4] = 0.0
        B = precoding._scaled(A, *precoding._equilibrate(A))
        assert precoding._certified_rank(B, DEFAULT_RANK_TOL) == 5
        calls = _count_svds(monkeypatch)
        assert numeric_rank(A) == 5
        assert numeric_rank(np.zeros((4, 3))) == 0
        assert calls == []

    def test_the_kept_set_does_not_depend_on_its_key_vectors(self, precoders_n2, monkeypatch):
        # the interference matrices merge 96 columns; keys along other
        # directions find the same merges, and the decoder, which needs
        # none, is certified before any key is taken
        mats = assemble_receiver_and_eve_matrices(precoders_n2)
        mutated = assemble_receiver_and_eve_matrices(mutate_qtilde(precoders_n2, 1))
        cases = [(mats.interference[1], 324), (mutated.interference[2], 340),
                 (mats.decoders[3], 356)]
        scaled = [precoding._scaled(A, *precoding._equilibrate(A)) for A, _ in cases]
        merges = [precoding._merges(B, np.linalg.norm(B, axis=0)) for B in scaled]
        assert [len(j) for j, _ in merges] == [96, 80, 0]
        for B, (_, want) in zip(scaled, cases):
            assert precoding._certified_rank(B, DEFAULT_RANK_TOL) == want

        def other_keys(m):
            W = np.cos(np.outer([1.0, 2.0, 3.0], np.arange(m)))
            return W / np.linalg.norm(W, axis=1)[:, None]

        monkeypatch.setattr(precoding, "_key_vectors", other_keys)
        for B, (_, want), (j, p) in zip(scaled, cases, merges):
            assert precoding._certified_rank(B, DEFAULT_RANK_TOL) == want
            j2, p2 = precoding._merges(B, np.linalg.norm(B, axis=0))
            assert np.array_equal(j, j2) and np.array_equal(p, p2)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 2.0, 1.0, 0.0, -1.0])
    def test_tol_outside_the_unit_interval_is_refused(self, tol, precoders_n1):
        with pytest.raises(ParameterError, match=r"tol must be in \(0, 1\)"):
            numeric_rank(np.eye(3), tol)
        with pytest.raises(ParameterError, match=r"tol must be in \(0, 1\)"):
            verify_alignment_equations(precoders_n1, tol)

    def test_a_dependent_decoder_column_is_counted(self, precoders_n2, monkeypatch):
        decoder = assemble_receiver_and_eve_matrices(precoders_n2).decoders[1].copy()
        decoder[:, 5] = decoder[:, 17] + decoder[:, 200]
        calls = _count_svds(monkeypatch)
        assert numeric_rank(decoder) == 355
        assert len(calls) == 1


@pytest.mark.parametrize("seed", range(1, 6))
def test_certified_scheme_ranks_are_the_svd_counts(seed):
    # K = 3, n = 1: every decoder, interference and eve_jamming matrix, real
    # and with Q~_1 mutated, at two tolerances; the certificate fires on
    # each, and its rank is the SVD count on the equilibrated matrix
    slots = interference_slots(3, 1)
    pre = build_asymptotic_precoders(
        3, 1, sample_channel(InterferenceModel(3), fixed=False, slots=slots, seed=seed))
    for scheme in (pre, mutate_qtilde(pre, 1, seed=seed)):
        mats = assemble_receiver_and_eve_matrices(scheme)
        for A in [*mats.decoders.values(), *mats.interference.values(), mats.eve_jamming]:
            rr, cc = precoding._equilibrate(A)
            B = A * rr[:, None] * cc
            s = np.linalg.svd(B, compute_uv=False)
            for tol in (1e-10, 1e-13):
                assert precoding._certified_rank(B, tol) == precoding._kept(s, tol, A.shape)


def _brute_force_merges(B):
    """The O(c^2) cosine scan that _merges replaces: each column j whose
    |cosine| from the Gram with an earlier column exceeds 1 - 1e-8, and the
    first such column."""
    G = B.T @ B
    d = np.sqrt(np.diag(G))
    merged = []
    for j in range(B.shape[1]):
        near = [p for p in range(j)
                if d[p] > 0 and d[j] > 0 and abs(G[p, j]) / (d[p] * d[j]) > 1 - 1e-8]
        if near:
            merged.append((j, near[0]))
    return merged


@settings(max_examples=150, deadline=None, derandomize=True)
@given(base=st.integers(1, 12), extra=st.integers(0, 20), copies=st.integers(0, 6),
       tilts=st.lists(st.one_of(st.sampled_from([0.98, 0.995, 1.005, 1.02]),
                                st.floats(0.25, 4.0).filter(lambda f: abs(f - 1) > 1e-3)),
                      max_size=6),
       chain=st.integers(0, 6), zeros=st.integers(0, 2), cluster=st.integers(0, 60),
       adversarial=st.sampled_from([None, "tilt", "chain"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_merges_match_a_brute_force_cosine_scan(base, extra, copies, tilts, chain, zeros,
                                                cluster, adversarial, seed):
    # orthonormal columns, scaled copies of them, tilts of them by angles
    # whose 1 - cos is f times 1e-8 (merged below f = 1, kept above; f is
    # never within 1e-3 of 1, far outside the cosines' rounding), a chain
    # of steps of 0.6e-8, whose neighbours merge but whose second
    # neighbours do not, and a cluster of copies of the first column, in
    # random order with random signs and scales (exact copies and
    # sign-flipped copies among them).
    # Adversarial key vectors all lie along the first tilt (or the chain),
    # so every key of a merged pair differs by as much as the angle allows
    rng = np.random.default_rng(seed)
    tilts = tilts[:base]
    rows = base + 2 + len(tilts) + extra
    Q = np.linalg.qr(rng.normal(size=(rows, rows)))[0]
    cols = [Q[:, :base]]
    cols.append(Q[:, rng.integers(0, base, copies)])
    for k, f in enumerate(tilts):
        c = 1 - f * 1e-8
        cols.append(c * Q[:, k:k + 1] + np.sqrt(1 - c * c) * Q[:, base + 2 + k:base + 3 + k])
    step = np.arccos(1 - 0.6e-8)
    angles = step * np.arange(chain)
    cols.append(np.cos(angles) * Q[:, base:base + 1] + np.sin(angles) * Q[:, base + 1:base + 2])
    cols.append(np.zeros((rows, zeros)))
    cols.append(np.repeat(Q[:, :1], cluster, axis=1))
    B = np.hstack(cols)
    scales = np.where(rng.random(B.shape[1]) < 0.5,
                      np.ldexp(1.0, rng.integers(-8, 9, B.shape[1])), rng.uniform(0.5, 2.0, B.shape[1]))
    B = (B * scales * rng.choice([-1.0, 1.0], B.shape[1]))[:, rng.permutation(B.shape[1])]
    along = Q[:, base + 2] if adversarial == "tilt" and tilts else Q[:, base + 1]
    d = np.sqrt(np.einsum("ij,ij->j", B, B))
    with mock.patch.object(precoding, "_key_vectors",
                           (lambda m: np.array([along] * 3)) if adversarial
                           else precoding._key_vectors):
        j, p = precoding._merges(B, d)
    assert list(zip(j.tolist(), p.tolist())) == _brute_force_merges(B)


def test_a_parallel_cluster_costs_linear_time():
    # each column is paired first with the earliest column of its run of
    # key windows, so 20,000 copies (and sign-flipped copies) take one
    # candidate each instead of one per pair, 2e8 of them: about 10 ms on
    # 2 vCPUs
    flipped = np.ones((3, 20_000))
    flipped[:, 1::2] = -1.0
    for A in (np.ones((1, 20_000)), flipped):
        started = time.perf_counter()
        assert numeric_rank(A) == 1
        assert time.perf_counter() - started < 1.0


def _hadamard(n):
    """Sylvester's orthogonal n x n matrix of entries +-1/sqrt(n), n a power of two."""
    H = np.ones((1, 1))
    while len(H) < n:
        H = np.block([[H, H], [H, -H]])
    return H / np.sqrt(n)


def _count_svds(monkeypatch):
    """Shapes of the matrices np.linalg.svd sees from now on."""
    calls, svd = [], np.linalg.svd

    def counting_svd(A, *args, **kwargs):
        calls.append(A.shape)
        return svd(A, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


class TestHelperFading:
    def test_jamming_matrix_is_all_ones_rank_one(self, helper2):
        assert np.all(helper2.A_U == 1.0)
        assert numeric_rank(helper2.A_U) == 1

    def test_receiver_and_eve_full_rank(self, helper2):
        assert numeric_rank(np.hstack([helper2.A_V, helper2.A_U])) == 3
        assert numeric_rank(helper2.B_U) == 3
        assert numeric_rank(helper2.receiver_system()) == 3

    def test_degenerate_no_helpers(self):
        r = sample_channel(HelperModel(0), fixed=False, slots=1, seed=1)
        s = build_helper_fading(0, r)
        assert s.A_V.shape == (1, 0)
        v, jam = zero_force_decode([2.5], s)
        assert v.size == 0 and jam == pytest.approx(2.5)

    def test_noiseless_zero_force_recovery(self, helper2):
        v = np.array([1.5, -2.0])
        u = np.array([0.3, 1.1, -0.7])
        y = helper2.A_V @ v + helper2.A_U @ u
        v_hat, jam = zero_force_decode(y, helper2)
        assert np.allclose(v_hat, v, rtol=1e-9)
        assert jam == pytest.approx(u.sum(), rel=1e-9)

    def test_all_zero_input(self, helper2):
        v_hat, jam = zero_force_decode(np.zeros(3), helper2)
        assert np.all(v_hat == 0) and jam == 0

    def test_noise_mse_far_below_signal_power(self, helper2):
        P = 1e8
        rng = np.random.default_rng(3)
        err = 0.0
        trials = 200
        for _ in range(trials):
            v = rng.normal(0, np.sqrt(P), 2)
            u = rng.normal(0, np.sqrt(P), 3)
            y = helper2.A_V @ v + helper2.A_U @ u + rng.normal(0, 1.0, 3)
            v_hat, _ = zero_force_decode(y, helper2)
            err += float(np.sum((v_hat - v) ** 2)) / 2
        assert err / trials < 1e-3 * P

    def test_mode_errors(self):
        fixed = sample_channel(HelperModel(2), fixed=True, slots=3, seed=5)
        with pytest.raises(ModeError):
            build_helper_fading(2, fixed)
        short = sample_channel(HelperModel(2), fixed=False, slots=2, seed=5)
        with pytest.raises(ModeError):
            build_helper_fading(2, short)

    def test_determinism(self):
        r = sample_channel(HelperModel(1), fixed=False, slots=2, seed=8)
        a = build_helper_fading(1, r)
        b = build_helper_fading(1, r)
        assert np.array_equal(a.A_V, b.A_V)
        assert np.array_equal(a.B_V, b.B_V)


# Generator symbols of every target, in column order.
GENERATOR_SYMBOLS = {
    3: {1: ["h_11^-1*h_21", "h_11^-1*h_31", "h_12^-1*h_32", "h_13^-1*h_23"],
        2: ["h_21^-1*h_31", "h_11^-1*h_12*h_22^-1*h_31", "h_22^-1*h_32",
            "h_11^-1*h_13*h_23^-1*h_31"],
        3: ["h_12*h_21*h_22^-1*h_31^-1", "h_12*h_32^-1", "h_12*h_22^-1*h_23*h_33^-1",
            "h_13*h_33^-1"],
        4: ["h_21*h_31^-1", "h_12*h_32^-1", "h_23*h_33^-1", "h_13*h_33^-1"]},
    4: {1: ["h_11^-1*h_21", "h_13^-1*h_23", "h_14^-1*h_24", "h_11^-1*h_31",
            "h_12^-1*h_32", "h_14^-1*h_34", "h_11^-1*h_41", "h_12^-1*h_42",
            "h_13^-1*h_43"],
        2: ["h_21^-1*h_31", "h_22^-1*h_32", "h_24^-1*h_34", "h_21^-1*h_41",
            "h_22^-1*h_42", "h_23^-1*h_43", "h_11^-1*h_12*h_22^-1*h_31",
            "h_11^-1*h_13*h_23^-1*h_31", "h_11^-1*h_14*h_24^-1*h_31"],
        3: ["h_12*h_32^-1", "h_13*h_33^-1", "h_14*h_34^-1", "h_31^-1*h_41",
            "h_32^-1*h_42", "h_33^-1*h_43", "h_21^-1*h_22*h_32^-1*h_41",
            "h_21^-1*h_23*h_33^-1*h_41", "h_21^-1*h_24*h_34^-1*h_41"],
        4: ["h_12*h_42^-1", "h_13*h_43^-1", "h_14*h_44^-1", "h_21*h_41^-1",
            "h_23*h_43^-1", "h_24*h_44^-1", "h_12*h_31*h_32^-1*h_41^-1",
            "h_12*h_32^-1*h_33*h_43^-1", "h_12*h_32^-1*h_34*h_44^-1"],
        5: ["h_12*h_42^-1", "h_13*h_43^-1", "h_14*h_44^-1", "h_21*h_41^-1",
            "h_23*h_43^-1", "h_24*h_44^-1", "h_31*h_41^-1", "h_32*h_42^-1",
            "h_34*h_44^-1"]},
}


class TestGenerators:
    def test_three_user_table_entry(self, precoders_n1):
        r = precoders_n1.realization
        gens = build_cj_generators(3, r)
        first = gens[1][0]
        assert first.symbol == Monomial.from_dict({"h_11": -1, "h_21": 1})
        expected = r.legit_series(2, 1) / r.legit_series(1, 1)
        assert np.allclose(first.entries, expected, rtol=1e-12)

    def test_generator_counts(self, precoders_n1):
        gens = build_cj_generators(3, precoders_n1.realization)
        assert all(len(g) == 4 for g in gens.values())
        r4 = sample_channel(InterferenceModel(4), fixed=False, slots=6, seed=2)
        gens4 = build_cj_generators(4, r4)
        assert set(gens4) == set(range(1, 6))
        assert all(len(g) == interference_gamma(4) == 9 for g in gens4.values())

    @pytest.mark.parametrize("K", [3, 4])
    def test_generator_symbols_in_column_order(self, K):
        # the column order fixes the precoders' float bits
        got = {t: [str(Monomial(f)) for f in _generator_factors(K, t)]
               for t in range(1, K + 2)}
        assert got == GENERATOR_SYMBOLS[K]

    @pytest.mark.parametrize("K", range(3, 10))
    def test_derived_generators_are_the_required_shifts(self, K):
        # (K-1)^2 distinct shifts per target, and every alignment instance
        # needs one of them; no precoder is built
        symbols = {t: [Monomial(f) for f in _generator_factors(K, t)]
                   for t in range(1, K + 2)}
        for t, gens in symbols.items():
            assert len(gens) == len(set(gens)) == interference_gamma(K)
        for _, block, factors, shift in _instances(K):
            assert Monomial(factors) == shift
            assert shift in symbols[block.target]

    def test_diagonals_commute_pairwise_bitwise(self, precoders_n1):
        gens = precoders_n1.targets[2].generators
        for a in gens:
            for b in gens:
                assert np.array_equal(a.entries * b.entries, b.entries * a.entries)


def _shifted_columns(gamma, pos, n):
    """Extended column of every base exponent row shifted by one at pos, both
    boxes in itertools.product order."""
    order = list(itertools.product(range(1, n + 2), repeat=gamma))
    return [order.index(tuple(e + (i == pos) for i, e in enumerate(row)))
            for row in itertools.product(range(1, n + 1), repeat=gamma)]


class TestPrecoders:
    def test_shapes_n1(self, precoders_n1):
        assert precoders_n1.gamma == 4
        assert precoders_n1.block_length == 66
        assert precoders_n1.targets[1].base.shape == (66, 1)
        assert precoders_n1.targets[1].extended.shape == (66, 16)

    def test_block_length_n2(self):
        assert interference_slots(3, 2) == 2 * 16 + 4 * 81 == 356

    def test_column_exponent_bijection(self, precoders_n2):
        # extended column c is the seed vector times prod_i g_i^e_i for the
        # c-th row e of {1..3}^4 in itertools.product order; a base column is
        # the extended column of its row, bit for bit and in C order
        t = precoders_n2.targets[2]
        ext_rows = list(itertools.product(range(1, 4), repeat=4))
        assert t.extended.shape[1] == len(ext_rows) == 81
        for c, row in enumerate(ext_rows):
            ratio = np.prod([g.entries ** (e - 1) for g, e in zip(t.generators, row)], axis=0)
            assert np.allclose(t.extended[:, c], t.extended[:, 0] * ratio, rtol=1e-12)
        base_rows = list(itertools.product(range(1, 3), repeat=4))
        assert t.base.shape[1] == len(base_rows) == 16
        assert t.base.flags.c_contiguous
        for c, row in enumerate(base_rows):
            assert np.array_equal(t.base[:, c], t.extended[:, ext_rows.index(row)])

    def test_exponent_shift_containment_is_exact(self, precoders_n1):
        # T * (column at alpha) must equal the extended column at alpha + e_T
        for t in precoders_n1.targets.values():
            for pos, gen in enumerate(t.generators):
                idx = _shifted_columns(precoders_n1.gamma, pos, precoders_n1.n)
                assert np.allclose(gen.entries[:, None] * t.base, t.extended[:, idx],
                                   rtol=1e-10)

    def test_slot_count_enforced(self):
        r = sample_channel(InterferenceModel(3), fixed=False, slots=10, seed=1)
        with pytest.raises(ModeError):
            build_asymptotic_precoders(3, 1, r)

    def test_determinism(self, precoders_n1):
        again = build_asymptotic_precoders(3, 1, precoders_n1.realization)
        for i in range(1, 5):
            assert np.array_equal(again.targets[i].extended,
                                  precoders_n1.targets[i].extended)

    def test_memory_budget(self, precoders_n1, monkeypatch):
        monkeypatch.setattr(precoding, "DEFAULT_PRECODER_BUDGET", 10)
        with pytest.raises(CapacityError, match="over budget 10"):
            build_asymptotic_precoders(3, 1, precoders_n1.realization)


# The receiver-form alignment equations of the paper, per target T: at
# receiver l, H_kl times the block of tx k lies in the span of H_{min(T,K),l}
# times the extended precoder of T.  Entries are (receiver, tx, block): "P"
# is the message precoder of slot T, "Q~" the derived jamming block of tx.
PAPER_INSTANCES = {
    3: {1: [(1, 2, "P"), (3, 2, "P"), (1, 3, "P"), (2, 3, "P")],
        2: [(1, 1, "Q~"), (2, 1, "Q~"), (3, 1, "Q~"), (1, 3, "P"), (2, 3, "P")],
        3: [(1, 2, "Q~"), (2, 2, "Q~"), (3, 2, "Q~"), (2, 1, "P"), (3, 1, "P")],
        4: [(2, 1, "P"), (3, 1, "P"), (1, 2, "P"), (3, 2, "P")]},
    4: {1: [(1, 2, "P"), (3, 2, "P"), (4, 2, "P"), (1, 3, "P"), (2, 3, "P"),
            (4, 3, "P"), (1, 4, "P"), (2, 4, "P"), (3, 4, "P")],
        2: [(1, 1, "Q~"), (2, 1, "Q~"), (3, 1, "Q~"), (4, 1, "Q~"), (1, 3, "P"),
            (2, 3, "P"), (4, 3, "P"), (1, 4, "P"), (2, 4, "P"), (3, 4, "P")],
        3: [(1, 2, "Q~"), (2, 2, "Q~"), (3, 2, "Q~"), (4, 2, "Q~"), (2, 1, "P"),
            (3, 1, "P"), (4, 1, "P"), (1, 4, "P"), (2, 4, "P"), (3, 4, "P")],
        4: [(1, 3, "Q~"), (2, 3, "Q~"), (3, 3, "Q~"), (4, 3, "Q~"), (2, 1, "P"),
            (3, 1, "P"), (4, 1, "P"), (1, 2, "P"), (3, 2, "P"), (4, 2, "P")],
        5: [(2, 1, "P"), (3, 1, "P"), (4, 1, "P"), (1, 2, "P"), (3, 2, "P"),
            (4, 2, "P"), (1, 3, "P"), (2, 3, "P"), (4, 3, "P")]},
}


@pytest.mark.parametrize("K, total", [(3, 18), (4, 48), (5, 100), (6, 180), (7, 294),
                                      (8, 448), (9, 648)])
def test_alignment_instances_are_the_papers_equations(K, total):
    instances = _instances(K)
    assert isinstance(instances, tuple) and _instances(K) is instances
    got = [(b.target, l, b.owner, "Q~" if b in blind_table(K).scaled else "P")
           for l, b, _, _ in instances]
    assert len(got) == len(set(got)) == total == K * K * (K - 1)
    assert all(shift != Monomial.one() for _, _, _, shift in instances)
    if K in PAPER_INSTANCES:
        want = [(target, *row) for target, rows in PAPER_INSTANCES[K].items() for row in rows]
        assert sorted(got) == sorted(want)


class TestAlignmentVerification:
    def test_all_sixteen_equations_pass(self, precoders_n1):
        report = verify_alignment_equations(precoders_n1)
        assert len(report.equations) == 16
        assert len(_instances(3)) == 18
        assert report.ok

    def test_exact_and_numeric_verdicts_agree(self, precoders_n1):
        report = verify_alignment_equations(precoders_n1)
        for eq in report.equations:
            assert eq.exact_ok == eq.numeric_ok

    def test_mutation_breaks_matching_equations(self, precoders_n1):
        broken = mutate_qtilde(precoders_n1, 1, seed=2)
        report = verify_alignment_equations(broken)
        failed = {(e.target, e.generator) for e in report.failures}
        # the derived block feeds exactly the three target-2 equations whose
        # instances read it back
        assert {t for t, _ in failed} == {2}
        assert len(failed) == 3

    def test_swapped_extended_columns_fail_exact_not_numeric(self, precoders_n2):
        # the swap keeps the span, so only the exact check can see it; at
        # n = 2 every shift by one generator lands on exponent row (2,2,2,2)
        pre = precoders_n2
        t = pre.targets[2]
        a = int(np.ravel_multi_index((1, 1, 1, 1), (3,) * 4))
        swapped = t.extended.copy()
        swapped[:, [0, a]] = swapped[:, [a, 0]]
        broken = dataclasses.replace(
            pre, targets={**pre.targets, 2: dataclasses.replace(t, extended=swapped)})
        assert verify_alignment_equations(pre).ok
        report = verify_alignment_equations(broken)
        assert _equations(report) == _reference_report(broken)
        for eq in report.equations:
            assert eq.numeric_ok
            assert eq.exact_ok == (eq.target != 2)

    def test_one_factorization_per_target(self, precoders_n1, monkeypatch):
        ranks, certified = [], []
        certify = precoding._certified_rank

        def counting_rank(A, *args, **kwargs):
            ranks.append(A.shape)
            return numeric_rank(A, *args, **kwargs)

        def counting_certificate(B, tol, gram=None):
            rank = certify(B, tol, gram)
            certified.append((B.shape, rank, gram is not None))
            return rank

        svds = _count_svds(monkeypatch)
        monkeypatch.setattr(precoding, "numeric_rank", counting_rank)
        monkeypatch.setattr(precoding, "_certified_rank", counting_certificate)
        assert verify_alignment_equations(precoders_n1).ok
        # one certificate of full column rank for each of the 4 extended
        # matrices, on the Gram their CholeskyQR bases start from, and no
        # SVD; no rank per instance
        assert certified == [((66, 16), 16, True)] * 4
        assert svds == []
        assert ranks == []

    def test_a_rank_deficient_extended_matrix_falls_back_to_the_svd(self, precoders_n1,
                                                                    monkeypatch):
        # a copy of column 0 over column 15, which no exact check reads:
        # target 2's extended matrix is one short of full column rank, so
        # its basis comes from the SVD, and the verdicts are the rank oracle's
        pre = precoders_n1
        t = pre.targets[2]
        copied = t.extended.copy()
        copied[:, 15] = copied[:, 0]
        broken = dataclasses.replace(
            pre, targets={**pre.targets, 2: dataclasses.replace(t, extended=copied)})
        svds = _count_svds(monkeypatch)
        report = verify_alignment_equations(broken)
        assert svds == [(66, 16)]
        assert _equations(report) == _reference_report(broken)

    def test_off_span_perturbation_fails_both_checks(self, precoders_n1):
        # a 1e-6 relative step out of target 2's span in the derived block
        # that target 2's "Q~" instances read back
        pre = precoders_n1
        rng = np.random.default_rng(7)
        step = rng.normal(size=pre.block_length)
        block = pre.qtilde[1].copy()
        block[:, 0] += 1e-6 * np.linalg.norm(block[:, 0]) * step / np.linalg.norm(step)
        broken = dataclasses.replace(pre, qtilde={**pre.qtilde, 1: block})
        report = verify_alignment_equations(broken)
        assert _equations(report) == _reference_report(broken)
        failed = report.failures
        assert len(failed) == 3 and {e.target for e in failed} == {2}
        assert not any(e.exact_ok or e.numeric_ok for e in failed)


def _reference_report(pre, tol=precoding.DEFAULT_RANK_TOL):
    """The verifier with one rank of [lhs rhs] per alignment instance: the
    numeric check passes iff appending lhs leaves the rank of the target's
    extended matrix unchanged."""
    r = pre.realization
    K, n, gamma = pre.K, pre.n, pre.gamma
    base = [int(np.ravel_multi_index(row, (n + 1,) * gamma))
            for row in itertools.product(range(n), repeat=gamma)]
    verdicts = {}
    for l, block, _, gen in _instances(K):
        target, tx = block.target, block.owner
        t = pre.targets[target]
        lhs = r.legit_series(tx, l)[:, None] * (
            pre.qtilde[tx] if block.name.startswith("U~") else t.base)
        rhs = r.legit_series(min(target, K), l)[:, None] * t.extended
        pos = [g.symbol for g in t.generators].index(gen)
        idx = [b + (n + 1) ** (gamma - 1 - pos) for b in base]
        exact = np.allclose(lhs, rhs[:, idx], rtol=1e-9, atol=0.0)
        numeric = numeric_rank(np.hstack([lhs, rhs]), tol) == numeric_rank(t.extended, tol)
        was = verdicts.get((target, str(gen)), (True, True))
        verdicts[(target, str(gen))] = (was[0] and exact, was[1] and numeric)
    return [(t, g, e, num) for (t, g), (e, num) in sorted(verdicts.items())]


def _equations(report):
    return [(e.target, e.generator, e.exact_ok, e.numeric_ok) for e in report.equations]


@pytest.mark.parametrize("seed", range(1, 21))
def test_basis_residual_matches_rank_oracle(seed):
    slots = interference_slots(3, 1)
    r = sample_channel(InterferenceModel(3), fixed=False, slots=slots, seed=seed)
    pre = build_asymptotic_precoders(3, 1, r)
    for variant in [pre] + [mutate_qtilde(pre, k) for k in (1, 2, 3)]:
        assert _equations(verify_alignment_equations(variant)) == _reference_report(variant)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(k=st.integers(2, 24), extra=st.integers(1, 40), log_kappa=st.floats(0.0, 12.0),
       tol=st.sampled_from([1e-15, 1e-13, 1e-10, 1e-6]), seed=st.integers(0, 2 ** 32 - 1))
def test_span_basis_verdicts_match_the_svd_basis(k, extra, log_kappa, tol, seed):
    # tall matrices with singular values planted from 1 down to 1 / kappa;
    # columns in the span, and off it by 0.3, 3 and 1000 times the residual
    # cut: the CholeskyQR basis gives the SVD basis's verdicts, and the SVD
    # runs only where the certificate or the orthogonality guard refuses
    rng = np.random.default_rng(seed)
    m = k + extra
    cut = tol * m
    U = np.linalg.qr(rng.normal(size=(m, k)))[0]
    V = np.linalg.qr(rng.normal(size=(k, k)))[0]
    A = (U * np.logspace(0.0, -log_kappa, k)) @ V.T
    rr, cc = precoding._equilibrate(A)
    B = precoding._scaled(A, rr, cc)
    W, s, _ = np.linalg.svd(B, full_matrices=False)
    W = W[:, :precoding._kept(s, tol, B.shape)]
    certified = precoding._certified_rank(B, tol) == k
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
        r, Q = precoding._span_basis(A, tol)
    assert np.array_equal(r, rr)

    def verdicts(basis):  # verify_alignment_equations' numeric check per column
        outside = np.linalg.norm(Z - basis @ (basis.T @ Z), axis=0)
        return outside <= cut * np.linalg.norm(Z, axis=0)

    inside = np.hstack([B, B @ rng.normal(size=(k, 8))])
    inside /= np.linalg.norm(inside, axis=0)
    w = rng.normal(size=(m, 3))
    w -= W @ (W.T @ w)
    w /= np.linalg.norm(w, axis=0)
    Z = np.hstack([inside] + [inside[:, :3] + f * cut * w for f in (0.3, 3.0, 1000.0)])
    assert np.array_equal(verdicts(Q), verdicts(W))
    if svd.call_count == 0:
        assert certified
        assert np.linalg.norm(Q.T @ Q - np.eye(k)) < cut / 100
    else:
        assert svd.call_count == 1
        assert np.array_equal(Q, W)
    if certified and cut / 100 > 1e-13:
        # CholeskyQR keeps orthogonality wherever the certificate holds
        assert svd.call_count == 0


@pytest.mark.parametrize("tol, svds", [(1e-10, 0), (1e-13, 0), (1e-15, 1)])
def test_the_orthogonality_guard_falls_back_below_its_bound(tol, svds):
    # a 64 x 16 matrix of condition number 1e4, certified full rank at each
    # tol; one CholeskyQR pass leaves ||Q^T Q - I|| at about 3e-10, above
    # every guard, and the second about 1e-15, which passes the guard
    # tol * 64 / 100 at 1e-10 and 1e-13 but not at 1e-15: there the SVD runs
    rng = np.random.default_rng(11)
    U = np.linalg.qr(rng.normal(size=(64, 16)))[0]
    V = np.linalg.qr(rng.normal(size=(16, 16)))[0]
    A = (U * np.logspace(0.0, -4.0, 16)) @ V.T
    B = precoding._scaled(A, *precoding._equilibrate(A))
    assert precoding._certified_rank(B, tol) == 16
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
        _, Q = precoding._span_basis(A, tol)
    assert svd.call_count == svds
    assert np.linalg.norm(Q.T @ Q - np.eye(16)) < 1e-13


class TestGeneralK:
    def test_four_user_precoders_build_and_shift(self, precoders_k4):
        # general-K path: 9 generators per target, M_n = 3 + 5*2^9 slots
        assert interference_slots(4, 1) == 3 * 1 + 5 * 512 == 2563
        pre = precoders_k4
        assert pre.gamma == 9
        assert pre.targets[1].base.shape == (2563, 1)
        assert pre.targets[1].extended.shape == (2563, 512)
        t = pre.targets[2]
        for pos, gen in enumerate(t.generators):
            idx = _shifted_columns(pre.gamma, pos, pre.n)
            assert np.allclose(gen.entries[:, None] * t.base, t.extended[:, idx],
                               rtol=1e-10)

    def test_four_user_derived_jamming_assignments(self, precoders_k4):
        # a "Q~" instance shifts by h_{tx,l} / h_{tx+1,l} times beta_tx
        pre = precoders_k4
        slots = pre.block_length
        assert set(pre.qtilde) == {1, 2, 3, 4}
        betas = beta_general(4)
        for l, block, _, shift in _instances(4):
            if block in blind_table(4).scaled:
                tx, target = block.owner, block.target
                ratio = Monomial.gen(f"h_{tx}{l}") / Monomial.gen(f"h_{target}{l}")
                assert shift == ratio * betas[tx]
        assert pre.qtilde[3].shape == (slots, 1)
        assert pre.qtilde[4].shape == (slots, 512)


@pytest.mark.parametrize("K, fixture", [(3, "precoders_n1"), (4, "precoders_k4")])
def test_derived_jamming_is_scaled_by_general_beta(K, fixture, request):
    # q~_k = beta_k * (message precoder of slot k+1), symbolically and per slot
    pre = request.getfixturevalue(fixture)
    betas = beta_general(K)
    r = pre.realization
    for k in range(1, K):
        per_slot = np.prod([r.legit_series(int(name[2]), int(name[3])) ** e
                            for name, e in betas[k].exponents], axis=0)
        assert np.allclose(pre.qtilde[k], per_slot[:, None] * pre.targets[k + 1].base,
                           rtol=1e-12)
    assert np.array_equal(pre.qtilde[K], pre.targets[K + 1].extended)


def test_general_beta_rule_at_five_users():
    # the K = 5 precoders are over the entry budget, so the rule is checked
    # on its own: h_{i+2,1}/h_{i,1} for i <= K-2, h_12/h_{K-1,2}, then 1
    def ratio(num, den):
        return Monomial.gen(num) / Monomial.gen(den)

    assert beta_general(5) == {1: ratio("h_31", "h_11"), 2: ratio("h_41", "h_21"),
                               3: ratio("h_51", "h_31"), 4: ratio("h_12", "h_42"),
                               5: Monomial.one()}


# the message precoders each transmitter sends: every target but its own
# and the next
MESSAGE_SLOTS = {3: {1: [3, 4], 2: [1, 4], 3: [1, 2]},
                 4: {1: [3, 4, 5], 2: [1, 4, 5], 3: [1, 2, 5], 4: [1, 2, 3]}}


def _address(a: np.ndarray) -> int:
    return a.__array_interface__["data"][0]


def _is_column_suffix(view: np.ndarray, full: np.ndarray, start: int) -> bool:
    """view is full[:, start:] in full's memory, not a copy of it."""
    return (np.shares_memory(view, full)
            and view.shape == (full.shape[0], full.shape[1] - start)
            and view.strides == full.strides
            and _address(view) == _address(full) + start * full.itemsize)


class TestStackedMatrices:
    def test_ranks_n1(self, precoders_n1):
        mats = assemble_receiver_and_eve_matrices(precoders_n1)
        for l in (1, 2, 3):
            assert mats.decoders[l].shape == (66, 66)
            assert numeric_rank(mats.decoders[l]) == 66
            assert numeric_rank(mats.interference[l]) <= 64
        assert mats.eve_jamming.shape == (66, 66)
        assert numeric_rank(mats.eve_jamming) == 66
        assert mats.desired_columns == 2
        assert mats.aligned_jamming_columns == 64

    @pytest.mark.parametrize("fixture", ["precoders_n1", "precoders_k4", "precoders_n2"],
                             ids=["3", "4", "3-n2"])
    def test_column_blocks_match_separate_stacks(self, fixture, request):
        # the construction that stacked every matrix from its own products
        # with np.hstack: the matrices written in place hold the same
        # numbers, and interference[l] and eve_jamming are column-suffix
        # views of the full stacks, starting right after the desired or the
        # message columns
        pre = request.getfixturevalue(fixture)
        K = pre.K
        slots = MESSAGE_SLOTS[K]
        mats = assemble_receiver_and_eve_matrices(pre)
        r = pre.realization
        for l in range(1, K + 1):
            h = {k: r.legit_series(k, l)[:, None] for k in range(1, K + 1)}
            unintended = [h[k] * pre.targets[j].base for k in range(1, K + 1) if k != l
                          for j in slots[k]]
            jamming = [h[k] * pre.targets[k].extended for k in range(1, K + 1)]
            jamming += [h[k] * pre.qtilde[k] for k in range(1, K + 1)]
            aligned = [h[k] * pre.targets[k].extended for k in range(1, K + 1)]
            aligned.append(h[K] * pre.qtilde[K])
            desired = [h[l] * pre.targets[j].base for j in slots[l]]
            assert np.array_equal(mats.receive_mixing[l],
                                  np.hstack(desired + unintended + jamming))
            assert np.array_equal(mats.interference[l], np.hstack(unintended + jamming))
            assert np.array_equal(mats.decoders[l], np.hstack(desired + aligned))
            assert _is_column_suffix(mats.interference[l], mats.receive_mixing[l],
                                     sum(d.shape[1] for d in desired))
            assert mats.receive_mixing[l].flags.c_contiguous
            assert mats.decoders[l].flags.c_contiguous
        g = {k: r.eve_series(k)[:, None] for k in range(1, K + 1)}
        eve_jam = [g[k] * pre.targets[k].extended for k in range(1, K + 1)]
        eve_jam += [g[k] * pre.qtilde[k] for k in range(1, K + 1)]
        eve_msg = [g[k] * pre.targets[j].base for k in range(1, K + 1) for j in slots[k]]
        assert np.array_equal(mats.eve_mixing, np.hstack(eve_msg + eve_jam))
        assert np.array_equal(mats.eve_jamming, np.hstack(eve_jam))
        assert _is_column_suffix(mats.eve_jamming, mats.eve_mixing,
                                 sum(m.shape[1] for m in eve_msg))
        assert mats.eve_mixing.flags.c_contiguous

    @pytest.mark.parametrize("fixture", ["precoders_n1", "precoders_k4"], ids=["3", "4"])
    def test_one_receiver_at_a_time_matches_the_full_assembly(self, fixture, request):
        # the same numbers with the same strides, and only what was asked for
        pre = request.getfixturevalue(fixture)
        full = assemble_receiver_and_eve_matrices(pre)
        for l in range(1, pre.K + 1):
            one = assemble_receiver_and_eve_matrices(pre, (l,), eve=False)
            mixing_only = assemble_receiver_and_eve_matrices(pre, (l,), eve=False,
                                                             decoders=False)
            assert list(one.receive_mixing) == list(one.decoders) == [l]
            assert mixing_only.decoders == {}
            for mats in (one, mixing_only):
                for got, want in ((mats.receive_mixing[l], full.receive_mixing[l]),
                                  (mats.interference[l], full.interference[l])):
                    assert np.array_equal(got, want) and got.strides == want.strides
                assert mats.eve_mixing.shape == (pre.block_length, 0)
                assert mats.eve_jamming.shape == (pre.block_length, 0)
            assert np.array_equal(one.decoders[l], full.decoders[l])
        eve = assemble_receiver_and_eve_matrices(pre, ())
        assert eve.receive_mixing == eve.interference == eve.decoders == {}
        for got, want in ((eve.eve_mixing, full.eve_mixing), (eve.eve_jamming, full.eve_jamming)):
            assert np.array_equal(got, want) and got.strides == want.strides

    @pytest.mark.parametrize("fixture", ["precoders_n1", "precoders_k4"], ids=["3", "4"])
    @pytest.mark.parametrize("call", [{}, {"receivers": (2,), "eve": False},
                                      {"receivers": (1, 3), "decoders": False},
                                      {"receivers": ()}], ids=["full", "one", "mixing", "eve"])
    def test_one_read_only_buffer_per_call(self, fixture, call, request):
        # every matrix of a call is carved out of one 1-D buffer: C-contiguous,
        # at an offset of a multiple of 8 elements, not overlapping another
        # carved matrix, and no returned array can be made writeable again
        mats = assemble_receiver_and_eve_matrices(request.getfixturevalue(fixture), **call)
        carved = [*mats.decoders.values(), *mats.receive_mixing.values(), mats.eve_mixing]
        returned = carved + [*mats.interference.values(), mats.eve_jamming]
        buffer = carved[0].base
        assert buffer.ndim == 1 and not buffer.flags.writeable
        assert all(a.base is buffer for a in returned)
        spans = []
        for a in carved:
            assert a.flags.c_contiguous
            offset, rest = divmod(_address(a) - _address(buffer), buffer.itemsize)
            assert rest == 0 and offset % 8 == 0
            spans.append((offset, offset + a.size))
        spans.sort()
        assert all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))
        assert spans[-1][1] <= buffer.size
        for a in returned:
            with pytest.raises(ValueError):
                a.setflags(write=True)

    def test_stored_matrices_are_read_only(self, precoders_n1):
        pre = precoders_n1
        mats = assemble_receiver_and_eve_matrices(pre)
        arrays = [t.base for t in pre.targets.values()]
        arrays += [t.extended for t in pre.targets.values()]
        arrays += list(pre.qtilde.values())
        arrays += list(mutate_qtilde(pre, 1).qtilde.values())
        for group in (mats.decoders, mats.interference, mats.receive_mixing):
            arrays += list(group.values())
        arrays += [mats.eve_jamming, mats.eve_mixing]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                a *= 2.0

    def test_full_rank_over_realizations(self):
        slots = interference_slots(3, 1)
        for seed in range(2, 8):
            r = sample_channel(InterferenceModel(3), fixed=False,
                               slots=slots, seed=seed)
            pre = build_asymptotic_precoders(3, 1, r)
            mats = assemble_receiver_and_eve_matrices(pre)
            assert all(numeric_rank(mats.decoders[l]) == slots for l in (1, 2, 3))
            assert numeric_rank(mats.eve_jamming) == slots


# One K=3, n=2 verification unit as the fading benchmark runs it: sample,
# build, verify, assemble every matrix, and certify the 7 ranks; prints the
# minor page faults per unit over 10 units after 2 warm-up units.
FAULT_PROBE = """
import resource
from sdof import precoding
from sdof.channel import InterferenceModel, sample_channel

def unit(seed):
    r = sample_channel(InterferenceModel(3), fixed=False, slots=356, seed=seed)
    pre = precoding.build_asymptotic_precoders(3, 2, r)
    precoding.verify_alignment_equations(pre)
    mats = precoding.assemble_receiver_and_eve_matrices(pre)
    for m in (*mats.decoders.values(), *mats.interference.values(), mats.eve_jamming):
        precoding.numeric_rank(m)

for seed in range(2):
    unit(seed)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for seed in range(100, 110):
    unit(seed)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
def test_a_fading_unit_does_not_fault_its_pages_back_in():
    # with one matrix allocation per assembly, glibc's dynamic mmap and trim
    # thresholds rise past the rank certificates' temporaries, which then
    # stay in the heap; seven allocations per assembly left them at ~1.3 MB,
    # and every certificate faulted ~1 MB back in (~9,200 faults per unit).
    # The allocator's own settings stay at their defaults.
    src = os.path.dirname(os.path.dirname(os.path.abspath(precoding.__file__)))
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = src
    done = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    assert float(done.stdout) < 1000


# SHA-256 of the bytes of every precoder block and stacked matrix at seed 1:
# a change that moves one of these must say so here
PINNED_MATRICES = {
    (3, 1): {
        "targets[1].base":
            "61e1f50ed7a892d9ccae303d75aeb1c1b50b60caf58c212ce5bcc9281e050a0c",
        "targets[1].extended":
            "26c511f0ab95672fbb1d8ad0cdfeda60cd494c27a8b265e96054665641a5fc3e",
        "targets[2].base":
            "526d168da41fe95e9a7bbd475e0608b8e56048a99a48543aeebcd0cbb684d127",
        "targets[2].extended":
            "8cd9df3f65d8a6e88a42787e92ac9e7f60ee553ee13277a3ef9c539c0113a9c9",
        "targets[3].base":
            "a5ebc34328cc6ff28f1c24f916b926e19207f3040a721d6ddb21e60f4e4e1e3a",
        "targets[3].extended":
            "e4eb2b124911db58fc65394c4637c53b602f4a0dcd7933e37fc3b02849ed07c6",
        "targets[4].base":
            "324e7c3f64f6f67c84597413d4ea54465a59a113dcc654033164981f4ed56e10",
        "targets[4].extended":
            "fbd2aa489364897910993d8c50905ed87db0b2e7e8f8d013d9251a3f6c75ec46",
        "qtilde[1]":
            "1c1bdc097cef416069fa021da61280a40f907e37d046ea0d97adb697af424ba7",
        "qtilde[2]":
            "450324c67f0e914f2848f300ac9d0703fb628d528d5ba23ba30bcaea162282f9",
        "qtilde[3]":
            "fbd2aa489364897910993d8c50905ed87db0b2e7e8f8d013d9251a3f6c75ec46",
        "decoders[1]":
            "c8b5be5bc01f0c7652125b1d5224d41bdb2c1cbc3723ab402143a6f5d7279d7e",
        "receive_mixing[1]":
            "1f2ad705b80e92f018ae7c22707fde0d95f0e45738ca4c7badf1ea71c08ad998",
        "decoders[2]":
            "7032f21513890e2822924a366556f086382f9bedd3b9e79118dee21646344fb1",
        "receive_mixing[2]":
            "aa491f93eae645cc3520bf6ec6b26e853fcc683f9dad7832b4e03fe0a2fdb245",
        "decoders[3]":
            "4cb962fef0109b56765f1c63c3ed1d65d30737f8af75f770daf399141c5e5fa2",
        "receive_mixing[3]":
            "13a8b16c9bc8281d685d25dd092478d553263cecebd75940116a93f3ba8ebbad",
        "eve_mixing":
            "97d5b675f0cc596db5ff6be59e5f6edd4eb940401b56b72f87113f1795e0783a",
    },
    (3, 2): {
        "targets[1].base":
            "a6f4a72dc870925d6d408a3ec8539ba5903f118d2776e9f461f1da96a7a228c9",
        "targets[1].extended":
            "0b758e60afcd8fef43bf480bdc24e013d718315d72112bbf330255bbdbf7e060",
        "targets[2].base":
            "7d91eeeba3abaffbbb1c4f9edb9ce368281dd3cbfef12326c8d91224e53c3408",
        "targets[2].extended":
            "239ebe7d7ae20f81c5934d47ef3ba896c012262b9ffc180ee5dbfbbb8e30c186",
        "targets[3].base":
            "3bdfa2d37b859eaee51501c72faf15d468bc569fe04c525a60a11273699f07b4",
        "targets[3].extended":
            "1d310973bca15bc2103b5aba0c110e261fb5d5085a344072eb646f4dcab92593",
        "targets[4].base":
            "7f2470b7392853aef8598bf68c9ef4d2fd96659b7b0da9b321b0c54e73f59a21",
        "targets[4].extended":
            "55aeed1fcc66e2fe6ba3ee46ba93cc3cd70f3a894bd9347472104d90db73513f",
        "qtilde[1]":
            "1aa95c3f3125a7713bcc974d53685b13c88e2d37f7581995a1a9a403ce82ed99",
        "qtilde[2]":
            "e48f5898f2a4197528ff99ef9044cbcc7aac0195633e29ca610cf852feaf419c",
        "qtilde[3]":
            "55aeed1fcc66e2fe6ba3ee46ba93cc3cd70f3a894bd9347472104d90db73513f",
        "decoders[1]":
            "3e6bdd95ea0680ea6d4245b37b468646310e12f43207d3852c6f0fe2e7a0b3b8",
        "receive_mixing[1]":
            "2c1d5fabc45058800d05e27ea5618fd21176efde3941d18991ca8f2e82aae779",
        "decoders[2]":
            "97bd2449318edbab26d46f4f08dffb4957bb9290d94630bad3ba3b4510955890",
        "receive_mixing[2]":
            "c729a3c5aac079503384de2741d707c8ac4dba1db9fdec24bc8a7109f46ee4ce",
        "decoders[3]":
            "79b080a40eae5937887eb457fb0188be09f202b9e7d9e008a6654f2abd7005e9",
        "receive_mixing[3]":
            "c5f274884f92c27cc82ff4c61ea2196dee9783c6bab5a766d2373f1b9b68106f",
        "eve_mixing":
            "885f45a8e9beb3dc1e2b428214bcb509f0c50b02ce06e8b5c0533c0959c57e3e",
    },
    (4, 1): {
        "targets[1].base":
            "65be16b799633ee547ab6fb4f9785c695dc78e0aadb1a2a97d2971f121aeab8b",
        "targets[1].extended":
            "1727213eb62af9d57a0c071359fc5f2216443d2473fc7f7a17aa83cf91bf24ee",
        "targets[2].base":
            "9b1c3a23d2f6af3b19df8f87ca42363feaf5c1d39e18adf7e9ca8e8ae7726c5f",
        "targets[2].extended":
            "5aefd79b2cb399969f2dcb1190a1715fe54a017c2473d14e1b6da56919440382",
        "targets[3].base":
            "6304a74f073ea934d9b6ed6d2e620ba7d3b01fc997c3e983d857e08621eab29a",
        "targets[3].extended":
            "9cb982e432c27746d6c2c7f5c9c5e22359c35f7617cef3d9ddf7da8d7e0e0daa",
        "targets[4].base":
            "603a033304f3c75a933d7b747cf7467e3cd60417eb18d3d9443d18b04e6f8812",
        "targets[4].extended":
            "8f43a967b8a9a0599f8b2c780a02b8e7b6b2859cff5be34d926316b29ec4c83a",
        "targets[5].base":
            "dfc1639252b66fa341da9e58f73881cb753a0be89089a6bbdbf366a44619fdc0",
        "targets[5].extended":
            "a9d521dea7a2104f19260eca5114b6f96393f4c104f99002496d50f91ff2ea06",
        "qtilde[1]":
            "01ee690b47b8eeed07920822067fc2d9ce98b4af6ef4e6226fa9c53fee099e47",
        "qtilde[2]":
            "d898070af6d261888344f82ff9a06ff4179cf5544c06aee526549d5369afef3d",
        "qtilde[3]":
            "335419f1ab7509be4dcb1d7edec0d13e0bf092c5417668dcb97c59fc29b10c28",
        "qtilde[4]":
            "a9d521dea7a2104f19260eca5114b6f96393f4c104f99002496d50f91ff2ea06",
        "decoders[1]":
            "986b687e1aea0802e1b92cd2d1310d0f71b9ed793af9e7733c1951ede32f034d",
        "receive_mixing[1]":
            "96228ac5f299d0582b33cd89b846e5d056b2cbed449f2f1edab4509b7d4e2a9d",
        "decoders[2]":
            "8b3c8026786668aa7e69a3f2813409c14664634be0eddaf71af8f14873af9fb6",
        "receive_mixing[2]":
            "2f4a45676bd63e532aaba480a07bcc9ecc3bf59ec495ce55275a20f4482dc1df",
        "decoders[3]":
            "68008448d4e7a3ce8717a1af28af3f32eecf5f536a9f35e6485d31f3448b8cdc",
        "receive_mixing[3]":
            "41a6638d1eadd39e3bfb0ef21e387eabd44dfa0cc928766c1cba68152f5bfe6d",
        "decoders[4]":
            "9aac4b138283d5cbcf23feaa40ef87a97430ad14d81d708b5746dad7f211a905",
        "receive_mixing[4]":
            "5e72f4ba706bc82d7676a727ea941d975ae088b0a301abab150fec70cb814308",
        "eve_mixing":
            "ced20d7e76a1f5e7d342f41548f06d42f559628f084335edf98eb2340a8b59b5",
    },
}


def _sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _seed_one_precoders(K, n):
    r = sample_channel(InterferenceModel(K), fixed=False, slots=interference_slots(K, n),
                       seed=1)
    return build_asymptotic_precoders(K, n, r)


@pytest.mark.parametrize("K, n", list(PINNED_MATRICES))
def test_precoders_and_stacked_matrices_are_pinned(K, n):
    # one receiver's matrices at a time: the full K = 4 assembly holds all
    # of them at once; no BLAS call reaches these bits
    pre = _seed_one_precoders(K, n)
    got = {}
    for j, t in pre.targets.items():
        got[f"targets[{j}].base"] = _sha256(t.base)
        got[f"targets[{j}].extended"] = _sha256(t.extended)
    for k, q in pre.qtilde.items():
        got[f"qtilde[{k}]"] = _sha256(q)
    for l in range(1, K + 1):
        mats = assemble_receiver_and_eve_matrices(pre, (l,), eve=False)
        got[f"decoders[{l}]"] = _sha256(mats.decoders[l])
        got[f"receive_mixing[{l}]"] = _sha256(mats.receive_mixing[l])
    got["eve_mixing"] = _sha256(assemble_receiver_and_eve_matrices(pre, ()).eve_mixing)
    assert got == PINNED_MATRICES[K, n]


@pytest.mark.parametrize("K, n", [(3, 1), (4, 1), (3, 2)])
def test_interference_fading_matrices_are_the_block_table_per_slot(K, n):
    # every block's columns at every observer are its arrival (h_{owner,l}
    # or g_owner times its coefficient), evaluated per slot by
    # Monomial.evaluate, times its target's base or extended precoder, at
    # the offset the table's stacking order gives it
    pre = _seed_one_precoders(K, n)
    r, table = pre.realization, blind_table(K)
    values = [{**{f"h_{j}{k}": r.h(j, k, t) for j in range(1, K + 1) for k in range(1, K + 1)},
               **{f"g_{j}": r.g(j, t) for j in range(1, K + 1)}}
              for t in range(1, pre.block_length + 1)]

    def assert_blocks(matrix, blocks, receiver):
        start = 0
        for b in blocks:
            target = pre.targets[b.target]
            precoder = target.extended if b.top else target.base
            per_slot = np.array([arrival(b, receiver).evaluate(v) for v in values])
            stop = start + precoder.shape[1]
            np.testing.assert_allclose(matrix[:, start:stop], per_slot[:, None] * precoder,
                                       rtol=1e-15, atol=0)
            start = stop
        assert start == matrix.shape[1]

    for l in range(1, K + 1):
        mats = assemble_receiver_and_eve_matrices(pre, (l,), eve=False)
        desired = table.desired(l)
        rest = tuple(b for b in table.blocks if b not in desired)
        assert_blocks(mats.receive_mixing[l], desired + rest, l)
        assert_blocks(mats.decoders[l], table.decoder(l), l)
    eve = assemble_receiver_and_eve_matrices(pre, ()).eve_mixing
    assert_blocks(eve, table.blocks, None)


class TestPartialCsitFading:
    def test_decode_and_structure(self):
        r = sample_channel(MacPartialModel(3, 2), fixed=False, slots=5, seed=4)
        s = build_partial_csit_fading(3, 2, r)
        assert s.slots == 5
        assert s.A_V.shape == (5, 4)
        assert np.all(s.A_U == 1.0)
        rng = np.random.default_rng(1)
        v = rng.uniform(-1, 1, 4)
        u = rng.uniform(-1, 1, 3)
        y = s.A_V @ v + s.A_U @ u
        v_hat, jam = partial_csit_decode(y, s)
        assert np.allclose(v_hat, v, atol=1e-9)
        assert jam == pytest.approx(u.sum(), rel=1e-9)

    def test_single_informed_matches_helper_shape(self):
        r = sample_channel(MacPartialModel(3, 1), fixed=False, slots=3, seed=4)
        s = build_partial_csit_fading(3, 1, r)
        assert s.slots == 3 and s.A_V.shape == (3, 2)

    def test_eve_message_columns_equal_jamming_columns(self):
        r = sample_channel(MacPartialModel(3, 2), fixed=False, slots=5, seed=4)
        s = build_partial_csit_fading(3, 2, r)
        for col, b in enumerate(s.table.messages):
            j = int(b.name.split("_")[1])
            assert np.array_equal(s.B_V[:, col], s.B_U[:, j - 1])

    def test_slot_shortage(self):
        r = sample_channel(MacPartialModel(3, 2), fixed=False, slots=4, seed=4)
        with pytest.raises(ModeError):
            build_partial_csit_fading(3, 2, r)

    def test_no_message_streams_rejected(self):
        # K = 1: the one informed transmitter has no other user to carry
        r = sample_channel(MacPartialModel(1, 1), fixed=False, slots=1, seed=4)
        with pytest.raises(ParameterError, match="no message streams"):
            build_partial_csit_fading(1, 1, r)


def _reference_alphas(M, r):
    """The helper scheme's alpha_k(t) as an (M, slots) array, re-drawn until
    the receiver system has full rank; each alpha from its own numpy
    SeedSequence generator."""
    slots = M + 1
    h1 = np.array([r.h(1, 1, t) for t in range(1, slots + 1)])
    for attempt in range(1, 101):
        alphas = np.array([
            [float(r.distribution.sample(np.random.default_rng(
                np.random.SeedSequence((r.seed, TAG_ALPHA, attempt, k, t)))))
             for t in range(1, slots + 1)]
            for k in range(2, M + 2)
        ]).reshape(M, slots)
        if numeric_rank(np.vstack([np.ones(slots), alphas * h1])) == M + 1:
            return alphas


def _reference_helper(M, r):
    """Per-slot loop construction of the helper matrices, the reference for
    the array expressions of build_helper_fading."""
    slots = M + 1
    alphas = _reference_alphas(M, r)
    A_V = np.empty((slots, M))
    B_V = np.empty((slots, M))
    B_U = np.empty((slots, M + 1))
    for i in range(slots):
        t = i + 1
        for j in range(M):
            A_V[i, j] = r.h(1, 1, t) * alphas[j, i]
            B_V[i, j] = r.g(1, t) * alphas[j, i]
        for j in range(M + 1):
            B_U[i, j] = r.g(j + 1, t) / r.h(j + 1, 1, t)
    return A_V, np.ones((slots, slots)), B_V, B_U


def _reference_partial(K, m, r):
    """Per-slot loop construction of the partially informed MAC matrices."""
    slots = m * (K - 1) + 1
    streams = [(i, j) for i in range(1, m + 1) for j in range(1, K + 1) if j != i]
    A_V = np.empty((slots, len(streams)))
    B_V = np.empty((slots, len(streams)))
    B_U = np.empty((slots, K))
    for row in range(slots):
        t = row + 1
        for col, (i, j) in enumerate(streams):
            A_V[row, col] = (r.h(i, 1, t) * r.g(j, t)) / (r.h(j, 1, t) * r.g(i, t))
            B_V[row, col] = r.g(j, t) / r.h(j, 1, t)
        for j in range(1, K + 1):
            B_U[row, j - 1] = r.g(j, t) / r.h(j, 1, t)
    return A_V, np.ones((slots, K)), B_V, B_U


def _assert_bit_identical(scheme, reference):
    for name, ref in zip(("A_V", "A_U", "B_V", "B_U"), reference):
        got = getattr(scheme, name)
        assert got.flags["C_CONTIGUOUS"], name
        assert np.array_equal(got, ref), name


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("M", [0, 1, 2, 3])
def test_helper_matrices_match_per_slot_reference(M, seed):
    r = sample_channel(HelperModel(M), fixed=False, slots=M + 1, seed=seed)
    _assert_bit_identical(build_helper_fading(M, r), _reference_helper(M, r))


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_partial_matrices_match_per_slot_reference(m, seed):
    r = sample_channel(MacPartialModel(3, m), fixed=False, slots=2 * m + 1, seed=seed)
    _assert_bit_identical(build_partial_csit_fading(3, m, r),
                          _reference_partial(3, m, r))


def _assert_fixed_table_matches(fixed, fading, slot_values):
    """The fixed-gain scheme's receive and eavesdropper tables, evaluated by
    Monomial.evaluate at each slot's gains, against the fading matrices."""
    assert fixed.table is fading.table
    for receiver, V, U in ((1, fading.A_V, fading.A_U), (None, fading.B_V, fading.B_U)):
        for streams, block in ((fixed.table.messages, V), (fixed.table.jamming, U)):
            want = np.array([[arrival(b, receiver).evaluate(values) for b in streams]
                             for values in slot_values]).reshape(block.shape)
            np.testing.assert_allclose(block, want, rtol=1e-15, atol=0)


def _slot_values(r, transmitters, slots):
    return [{**{gain_name(i, 1): r.h(i, 1, t) for i in range(1, transmitters + 1)},
             **{gain_name(i, None): r.g(i, t) for i in range(1, transmitters + 1)}}
            for t in range(1, slots + 1)]


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("M", [0, 1, 2, 3])
def test_helper_fading_matrices_are_the_fixed_gain_tables_per_slot(M, seed):
    fixed = pam.build_helper_scheme(M, sample_channel(HelperModel(M), fixed=True, seed=seed))
    r = sample_channel(HelperModel(M), fixed=False, slots=M + 1, seed=seed)
    alphas = _reference_alphas(M, r)
    values = _slot_values(r, M + 1, M + 1)
    for t, slot in enumerate(values):
        slot.update({f"alpha_{k}": alphas[k - 2, t] for k in range(2, M + 2)})
    _assert_fixed_table_matches(fixed, build_helper_fading(M, r), values)


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("K, m", [(3, 1), (3, 2), (3, 3), (4, 2)])
def test_partial_fading_matrices_are_the_fixed_gain_tables_per_slot(K, m, seed):
    fixed = pam.build_partial_csit_fixed(
        K, m, sample_channel(MacPartialModel(K, m), fixed=True, seed=seed))
    slots = m * (K - 1) + 1
    r = sample_channel(MacPartialModel(K, m), fixed=False, slots=slots, seed=seed)
    _assert_fixed_table_matches(fixed, build_partial_csit_fading(K, m, r),
                                _slot_values(r, K, slots))


# SHA-256 of the bytes of A_V, A_U, B_V and B_U of each mixing scheme at
# seed 1: a change that moves one of these must say so here
PINNED_MIXING = {
    HelperModel(1): (
        'eacd48c5d557cdb0fb287b681ea29b23f9ed34268797d5f8773443641b5697ce',
        'c914e8188e43fff1c96e25283e15b252af0d9f39b469f2d1518915802c756d18',
        'c00081669cfb87caf19029854b821160981dbb49f5a1da2b718cf94b55ad42b9',
        '76e784e827b0e00f0721809baa71619e2ce0371005116f4ecf4b7a4f78d54863',
    ),
    HelperModel(2): (
        '60a367e0f403fa035355c1926ff6efae41928bc416cae7cb0a5450fe5c6971e0',
        '19088d37e44fec2ac250d3cc3ba2102f084acde81a46ade67312433a0a6af3e2',
        'dbe2af0dea38c4ab013382c375f0e39753c3f6f44a1d2d0a513ebc5626d3f5ed',
        'b0d9a969af109c6b7343a2696a1dd793dd1cb10dd4b5f5538798a85c4e4f26bb',
    ),
    HelperModel(3): (
        '36b517603ee1a7602bd2a3d50a5d6bc3861e5f5dc017af0255226269da799603',
        'dbd8ebb4d364765882694170cedf5afc7702dd5338a7198705c45b613f6e1c9d',
        'f64a5e64d983489691fab91abdb9edf1e4b990bafc72f8c9d0fc4691563a8a9b',
        '360369af94d37f980774737ce7fbaa3549355b47b265bf5e5c1b48e277f5ba82',
    ),
    HelperModel(9): (
        'b8a1b1e1c8ace526584be282350af6edf9cc011a32d0d34ef20e63cf6efed780',
        'c08966543ff025ba74e2ce4905181ba53ce3d9dd1aa5508025efd7fcc60f8017',
        'd1e532b15fbe7d89659807b85b79ca8df35dd5691b7763fafafacc30936331f1',
        '43309fda234b61ac97a740605b7a2ab488ff297e5b678adc898f0e72c28312df',
    ),
    MacPartialModel(3, 1): (
        'afe73f64a1d1e2084d210c7d05785ece4440b733ba2542b39354b847efbf6593',
        '19088d37e44fec2ac250d3cc3ba2102f084acde81a46ade67312433a0a6af3e2',
        '274d5125d40c08aa9378d0745f1526031d3c73770fa175bb00f6e88a4730920a',
        'b0d9a969af109c6b7343a2696a1dd793dd1cb10dd4b5f5538798a85c4e4f26bb',
    ),
    MacPartialModel(3, 2): (
        '216ecedfa823dff3392f3ee9d26dd9e5155ce066d0d3b06215086c6c64e75dec',
        '326030dfda35c9ca79ba52faa08d11a5b05b5522350f676dad6d80b8cba7b681',
        '456e37d12f336ba74b02df31524f6c907ad36e3b35a74988748a0e9f199f6ffc',
        '926b3f99ccb9f1380787419a70985101f896ce99f459f38796f841ff0c296458',
    ),
    MacPartialModel(3, 3): (
        '82d9583e52e19c450eef377a4aa795161d43a9739ada54f93a07446098f1d147',
        '5493ebe614439118bbb8c5c03747c72e3c5dd4a398ed9794eca9d35684c7eb3d',
        '39a6728b7bd6027ebac2fee2e2f3fdb461c05b4184dd4ae3e8b8bf695b32066e',
        '234f98c5b70d6e31cf4dace2ab9d96f06305d9fb56daa89a54092d94b4ec756c',
    ),
    MacPartialModel(10, 2): (
        'f1bdcc92103ebcb7363d35977abc712692a03842e139a51a132b03d457dfc90d',
        '871a312702c9952abc87362fdd75ef452c58312b426fdfaff0c220f9baaa73b6',
        '3bfa9e0f77e29d1894a377775032bff81d163fc9f4343a8f3cc86e423fd03c24',
        '636317dbeb713cb3d12463be66b076687896aeb0097fee514d1ec7b1e2983ffb',
    ),
}


@pytest.mark.parametrize("model", sorted(PINNED_MIXING, key=repr), ids=repr)
def test_mixing_matrices_are_pinned(model):
    if isinstance(model, HelperModel):
        r = sample_channel(model, fixed=False, slots=model.M + 1, seed=1)
        s = build_helper_fading(model.M, r)
    else:
        K, m = model.K, model.m_informed
        r = sample_channel(model, fixed=False, slots=m * (K - 1) + 1, seed=1)
        s = build_partial_csit_fading(K, m, r)
    assert tuple(_sha256(a) for a in (s.A_V, s.A_U, s.B_V, s.B_U)) == PINNED_MIXING[model]
