import copy
import functools
import hashlib
import itertools
import json
import pickle
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import enumerator
from sdof import interference_sets
from sdof.errors import CapacityError, CertificateError, ParameterError
from sdof.interference_sets import (AlignmentCheck,
                                    AlignmentReport, DimensionSet,
                                    _new_members, _rows,
                                    alignment_equations, beta_general, blind_table,
                                    build_base_dimension_sets,
                                    build_extended_dimension_sets,
                                    expected_base_cardinality,
                                    expected_extended_cardinality,
                                    expected_span, exponent_slots, gain_name,
                                    shared_members,
                                    verify_interference_alignment)
from sdof.monomial import Monomial


class TestCardinalities:
    @pytest.mark.parametrize("K,m,expected", [
        (3, 1, 1), (3, 2, 256), (4, 1, 1), (4, 2, 16384),
    ])
    def test_base_set_sizes(self, K, m, expected):
        sets = build_base_dimension_sets(K, m)
        assert len(sets) == K + 1
        assert all(s.size == expected for s in sets)
        assert expected == expected_base_cardinality(K, m)

    @pytest.mark.parametrize("K,m,expected", [
        (3, 1, 256), (3, 2, 6561), (4, 1, 16384), (4, 2, 4782969),
    ])
    def test_extended_set_sizes(self, K, m, expected):
        sets = build_extended_dimension_sets(K, m)
        assert all(s.size == expected for s in sets)
        assert expected == expected_extended_cardinality(K, m)

    def test_exponent_slot_count(self):
        assert exponent_slots(3) == 8
        assert exponent_slots(4) == 14
        assert expected_extended_cardinality(4, 2) == 3 ** 14

    def test_base_nests_in_extended(self):
        for K, m in [(3, 1), (3, 2)]:
            base = build_base_dimension_sets(K, m)
            ext = build_extended_dimension_sets(K, m)
            for b, e in zip(base, ext):
                assert enumerator.members(b) <= enumerator.members(e)

    def test_rejects_small_k(self):
        with pytest.raises(ParameterError):
            build_base_dimension_sets(2, 1)


def test_three_user_set_contents_at_m1():
    # singleton sets: all exponents forced to 1, ratios put -1 per factor on
    # the shared denominator
    sets = {s.label: next(iter(enumerator.members(s))) for s in build_base_dimension_sets(3, 1)}
    assert sets["T_1"] == Monomial.from_dict({
        "h_11": 1, "h_12": 1, "h_13": 1, "h_21": 1, "h_23": 1,
        "h_31": 1, "h_32": 1, "c_1": 1})
    assert sets["T_2"] == Monomial.from_dict({
        "h_21": 1, "h_22": 1, "h_23": 1, "h_12": 1, "h_13": 1, "h_11": -2,
        "h_31": 1, "h_32": 1, "c_2": 1})
    assert sets["T_3"] == Monomial.from_dict({
        "h_31": 1, "h_32": 1, "h_33": 1, "h_21": 1, "h_23": 1, "h_22": -2,
        "h_12": 1, "h_13": 1, "c_3": 1})
    assert sets["T_4"] == Monomial.from_dict({
        "h_31": 1, "h_32": 1, "h_33": 1, "h_21": 1, "h_12": 1, "h_13": 1,
        "h_23": 1, "c_4": 1})


class TestVerification:
    def test_three_user_m1(self):
        report = verify_interference_alignment(3, 1)
        assert report.ok
        assert report.expected_span_size == 1026
        assert all(v == 1026 for v in report.receiver_span.values())

    def test_three_user_m2(self):
        report = verify_interference_alignment(3, 2)
        assert report.ok
        assert report.expected_span_size == 2 * 256 + 4 * 6561 == 26756

    def test_four_user_m1(self):
        report = verify_interference_alignment(4, 1)
        assert report.ok
        assert report.expected_span_size == 3 + 5 * 2 ** 14

    def test_general_beta_rule_passes_at_k3(self):
        # one U~ containment per (receiver, k), each scaled by the general
        # rule's beta_k: at rx1, h_11 * h_31/h_11 = h_31
        report = verify_interference_alignment(3, 1)
        u_tilde = [c for c in report.checks if "(jamming U~" in c.claim]
        assert len(u_tilde) == 9
        assert all(c.status == "pass" for c in u_tilde)
        assert u_tilde[0].claim == "rx1: h_31*T_2 within T~_2 (jamming U~1)"

    def test_beta_mutation_is_flagged_precisely(self):
        report = verify_interference_alignment(3, 1,
                                               beta_override={1: Monomial.one()})
        assert not report.ok
        assert len(report.violations) == 3  # one per receiver
        assert all("U~1" in v and "T~_2" in v for v in report.violations)

    def test_report_serializes(self):
        doc = verify_interference_alignment(3, 1).to_json_dict()
        assert doc["K"] == 3 and doc["m"] == 1
        assert doc["violations"] == []
        assert doc["expected_span"] == 1026
        assert {c["status"] for c in doc["checks"]} == {"pass"}


def test_beta_rules_differ_by_an_in_range_shift():
    # the set rows count beta_k by its denominator alone, the other
    # published beta convention for K=3; the two differ by one free
    # generator of the target set, so both keep the shifted exponents in range
    general = beta_general(3)
    assert general[3] == Monomial.one()
    for k, numerator in ((1, "h_31"), (2, "h_12")):
        denominator = Monomial.from_dict({n: e for n, e in general[k].exponents if e < 0})
        assert general[k] / denominator == Monomial.gen(numerator)
        assert Monomial.gen(numerator) in _rows(3)[k]  # a row of set k+1


@pytest.mark.parametrize("call, message", [
    (lambda: beta_general(2), "needs 3 <= K <= 9, got K=2"),
    (lambda: beta_general(11), "needs 3 <= K <= 9, got K=11"),
    (lambda: blind_table(10), "needs 3 <= K <= 9, got K=10"),
    (lambda: alignment_equations(2), "needs 3 <= K <= 9, got K=2"),
    (lambda: expected_span(2, 1), "needs 3 <= K <= 9, got K=2"),
    (lambda: blind_table(3).desired(5), r"transmitter must lie in 1\.\.3, got 5"),
    (lambda: blind_table(3).decoder(0), r"transmitter must lie in 1\.\.3, got 0"),
], ids=["beta_general-2", "beta_general-11", "blind_table-10", "alignment_equations-2",
        "expected_span-2", "desired-5", "decoder-0"])
def test_a_k_or_transmitter_outside_the_scheme_is_refused(call, message):
    # K = 2 would let beta_{K-1}'s link overwrite beta_1's, K = 11 would
    # name h_111 for both (11,1) and (1,11), and transmitter 5 of 3 owns
    # nothing
    with pytest.raises(ParameterError, match=message):
        call()


@pytest.mark.parametrize("K,m", [(3, 1), (4, 1), (3, 2)])
def test_every_claim_factor_is_its_blocks_arrival(K, m):
    # at receiver l a block of the table arrives on h_{owner,l} times its
    # coefficient: each other block's containment claim, and each desired
    # block's disjointness claims, scale its target's base set by that
    equations = alignment_equations(K)
    assert isinstance(equations, tuple) and alignment_equations(K) is equations
    claims = [c.claim for c in verify_interference_alignment(K, m).checks]
    table = blind_table(K)
    for l in range(1, K + 1):
        for b in table.blocks:
            head = f"rx{l}: {Monomial.gen(gain_name(b.owner, l)) * b.coefficient}*T_{b.target} "
            if b in table.desired(l):
                assert all(f"{head}disjoint from T~_{i}" in claims for i in range(1, K + 2))
            else:
                kind = "message" if b in table.messages else "jamming"
                assert f"{head}within T~_{b.target} ({kind} {b.name})" in claims
    assert sum(" within " in c for c in claims) == len(equations)


def test_expected_span_formula():
    assert expected_span(3, 1) == 1026
    assert expected_span(3, 2) == 26756
    assert expected_span(4, 1) == 81923


# ---------------------------------------------------------------------------
# reference: the string-keyed enumerator the array engine replaced, kept as
# the oracle for the engine's report
# ---------------------------------------------------------------------------

# the hand-written pattern table the derived rows replaced, kept as the
# oracle of interference_sets._rows and of the string-keyed reference
def _set_pattern(K: int, i: int) -> tuple[list[tuple[int, int]],
                                          list[tuple[tuple[int, int], tuple[int, int]]]]:
    """Factor layout of set i: plain gain factors and ratio factors.

    Every factor carries its own free exponent; a ratio factor puts +e on the
    numerator gain and -e on the denominator gain.
    """
    plain: list[tuple[int, int]] = []
    ratios: list[tuple[tuple[int, int], tuple[int, int]]] = []
    if i == 1:
        plain += [(1, k) for k in range(1, K + 1)]
        plain += [(j, k) for j in range(2, K + 1)
                  for k in range(1, K + 1) if k != j]
    elif 2 <= i <= K - 1:
        plain += [(i, k) for k in range(1, K + 1)]
        ratios += [((i - 1, k), (i - 1, 1)) for k in range(2, K + 1)]
        plain += [(j, k) for j in range(1, K + 1) if j not in (i, i - 1)
                  for k in range(1, K + 1) if k != j]
    elif i == K:
        plain += [(K, k) for k in range(1, K + 1)]
        ratios += [((K - 1, k), (K - 1, 2)) for k in range(1, K + 1) if k != 2]
        plain += [(j, k) for j in range(1, K + 1) if j not in (K, K - 1)
                  for k in range(1, K + 1) if k != j]
    elif i == K + 1:
        plain += [(K, k) for k in range(1, K + 1)]
        plain += [(j, k) for j in range(1, K) for k in range(1, K + 1) if k != j]
    else:
        raise ParameterError(f"set index {i} outside 1..{K + 1}")
    assert len(plain) + len(ratios) + 1 == exponent_slots(K)
    return plain, ratios


@pytest.mark.parametrize("K", range(3, 10))
def test_derived_patterns_match_the_published_table(K):
    for i, rows in enumerate(_rows(K), start=1):
        plain, ratios = _set_pattern(K, i)
        want = ({Monomial.gen(gain_name(j, k)) for j, k in plain}
                | {Monomial.gen(gain_name(*num)) / Monomial.gen(gain_name(*den))
                   for num, den in ratios}
                | {Monomial.gen(f"c_{i}")})
        assert len(rows) == len(want) == exponent_slots(K)
        assert set(rows) == want
        # the c_i row comes last, after the gain factors
        assert rows[-1] == Monomial.gen(f"c_{i}")


def test_an_equation_list_short_of_a_row_is_refused(monkeypatch):
    equations = interference_sets.alignment_equations(4)
    dropped = next(e for e in equations if e[1] in blind_table(4).messages)
    monkeypatch.setattr(interference_sets, "alignment_equations",
                        lambda K: [e for e in equations if e != dropped])
    monkeypatch.setattr(interference_sets, "_rows", interference_sets._rows.__wrapped__)
    with pytest.raises(CertificateError, match=r"set \d+ has 12 gain rows, expected 13"):
        build_base_dimension_sets(4, 1)


# holds every set of the oracle cases, so each is built once
@functools.lru_cache(maxsize=32)
def _reference_set(K, i, top):
    plain, ratios = _set_pattern(K, i)
    members = set()
    for exps in itertools.product(range(1, top + 1), repeat=exponent_slots(K)):
        d = {}
        idx = 0
        for (j, k) in plain:
            d[gain_name(j, k)] = d.get(gain_name(j, k), 0) + exps[idx]
            idx += 1
        for (num, den) in ratios:
            d[gain_name(*num)] = d.get(gain_name(*num), 0) + exps[idx]
            d[gain_name(*den)] = d.get(gain_name(*den), 0) - exps[idx]
            idx += 1
        d[f"c_{i}"] = exps[idx]
        members.add(Monomial.from_dict(d))
    return frozenset(members)


def _message_slots(K, k):
    """The sets transmitter k sends messages on: all of 1..K+1 but k, k+1."""
    return [j for j in range(1, K + 2) if j not in (k, k + 1)]


def _reference_verify(K, m, beta_override=None):
    base = {i: _reference_set(K, i, m) for i in range(1, K + 2)}
    extended = {i: _reference_set(K, i, m + 1) for i in range(1, K + 2)}
    betas = beta_general(K)
    if beta_override:
        betas = {**betas, **dict(beta_override)}

    cardinalities, checks = {}, []
    exp_base = expected_base_cardinality(K, m)
    exp_ext = expected_extended_cardinality(K, m)
    for i in range(1, K + 2):
        cardinalities[f"T_{i}"] = len(base[i])
        cardinalities[f"T~_{i}"] = len(extended[i])
        checks.append(AlignmentCheck(
            None, f"|T_{i}| == m^{exponent_slots(K)}",
            "pass" if len(base[i]) == exp_base else "fail",
            f"{len(base[i])} vs {exp_base}"))
        checks.append(AlignmentCheck(
            None, f"|T~_{i}| == (m+1)^{exponent_slots(K)}",
            "pass" if len(extended[i]) == exp_ext else "fail",
            f"{len(extended[i])} vs {exp_ext}"))
        checks.append(AlignmentCheck(
            None, f"T_{i} subset of T~_{i}",
            "pass" if base[i] <= extended[i] else "fail"))

    def containment(rx, factor, src, dst, what):
        scaled = frozenset(factor * mono for mono in base[src])
        ok = scaled <= extended[dst]
        checks.append(AlignmentCheck(
            rx, f"rx{rx}: {factor}*T_{src} within T~_{dst} ({what})",
            "pass" if ok else "fail",
            "" if ok else f"{len(scaled - extended[dst])} members escape"))

    receiver_span = {}
    for l in range(1, K + 1):
        for k in range(1, K + 1):
            if k == l:
                continue
            for j in _message_slots(K, k):
                containment(l, Monomial.gen(gain_name(k, l)), j, j,
                            f"message V{k},{j}")
        for k in range(1, K + 1):
            containment(l, Monomial.gen(gain_name(k, l)), k, k, f"jamming U{k}")
        for k in range(1, K + 1):
            factor = Monomial.gen(gain_name(k, l)) * betas[k]
            containment(l, factor, k + 1, k + 1, f"jamming U~{k}")

        own = Monomial.gen(gain_name(l, l))
        slots = _message_slots(K, l)
        desired = {j: frozenset(own * mono for mono in base[j]) for j in slots}
        for a_idx, ja in enumerate(slots):
            for jb in slots[a_idx + 1:]:
                checks.append(AlignmentCheck(
                    l, f"rx{l}: h_{l}{l}*T_{ja} disjoint from h_{l}{l}*T_{jb}",
                    "fail" if desired[ja] & desired[jb] else "pass"))
            for i in range(1, K + 2):
                checks.append(AlignmentCheck(
                    l, f"rx{l}: h_{l}{l}*T_{ja} disjoint from T~_{i}",
                    "fail" if desired[ja] & extended[i] else "pass"))
        span = set().union(*desired.values(), *extended.values())
        receiver_span[l] = len(span)
        checks.append(AlignmentCheck(
            l, f"rx{l}: span size == {expected_span(K, m)}",
            "pass" if len(span) == expected_span(K, m) else "fail",
            f"got {len(span)}"))
    return AlignmentReport(K, m, cardinalities, receiver_span,
                           expected_span(K, m), checks)


ONE = Monomial.one()
# (K, m, beta_override): the mutations, a symbol outside the generator
# order (every member escapes), exponents past the int8 range of the
# enumerator's rows (those members escape), and factors in and out of the
# target's lattice
ORACLE_CASES = [
    (3, 1, None), (3, 2, None), (4, 1, None),
    (3, 1, {1: ONE}),
    (4, 1, {2: ONE}),
    (3, 2, {3: Monomial.gen("h_11")}),
    (3, 1, {1: Monomial.gen("x")}),
    (3, 1, {2: Monomial.gen("h_12", 200) / Monomial.gen("h_21", 3)}),
    (3, 2, {2: Monomial.gen("h_11", 200)}),
    (3, 1, {2: Monomial.gen("c_2") / Monomial.gen("h_11", 3)}),
    (4, 1, {1: Monomial.gen("h_31") / Monomial.gen("h_11")}),
]


@pytest.mark.parametrize("K,m,override", ORACLE_CASES)
def test_report_matches_string_keyed_reference(K, m, override):
    got = verify_interference_alignment(K, m, beta_override=override).to_json_dict()
    want = _reference_verify(K, m, beta_override=override).to_json_dict()
    assert json.dumps(got) == json.dumps(want)


@pytest.mark.parametrize("K,m", [(3, 1), (3, 2)])
def test_set_members_match_reference(K, m):
    for family, top in ((build_base_dimension_sets(K, m), m),
                        (build_extended_dimension_sets(K, m), m + 1)):
        for i, dset in enumerate(family, start=1):
            assert enumerator.members(dset) == _reference_set(K, i, top)


# ---------------------------------------------------------------------------
# the rows enumerator as the oracle of the closed form: the same verifier,
# with every overlap counted from enumerated exponent rows
# ---------------------------------------------------------------------------

def _names(*monomials):
    return {n for m in monomials for n, _ in m.exponents}


def _member_rows(dset, shift, names):
    """The members of shift * dset as int64 exponent rows over names."""
    own = enumerator.rows(dset).astype(np.int64)
    rows = np.zeros((len(own), len(names)), np.int64)
    rows[:, [names.index(n) for n in enumerator.generators(dset)]] = own
    for n, v in shift.exponents:
        rows[:, names.index(n)] += v
    return rows


@functools.lru_cache(maxsize=64)
def _sorted_keys(dset, shift, names):
    """The member rows of shift * dset, each viewed as one byte string, sorted."""
    rows = _member_rows(dset, shift, names)
    return np.sort(rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel())


def _enumerated_shared(a, shift_a, b, shift_b):
    """shared_members by enumeration of both scaled sets over one sorted
    order of every name the sets and the shifts use."""
    names = tuple(sorted(_names(*a.rows, *b.rows, shift_a, shift_b)))
    return len(np.intersect1d(_sorted_keys(a, shift_a, names),
                              _sorted_keys(b, shift_b, names),
                              assume_unique=True))


def _enumerated_separation(a, shift_a, b, shift_b):
    """Whether some name's exponent ranges over the enumerated members of
    shift_a * a and of shift_b * b are disjoint."""
    names = tuple(sorted(_names(*a.rows, *b.rows, shift_a, shift_b)))
    rows_a, rows_b = _member_rows(a, shift_a, names), _member_rows(b, shift_b, names)
    return bool(np.any((rows_a.max(0) < rows_b.min(0)) | (rows_b.max(0) < rows_a.min(0))))


@pytest.mark.parametrize("K,m,override", ORACLE_CASES + [
    (3, 3, None), (3, 3, {1: ONE}), (3, 3, {2: Monomial.gen("h_21")})])
def test_report_matches_rows_enumerator(K, m, override, monkeypatch):
    want = verify_interference_alignment(K, m, beta_override=override).to_json_dict()
    monkeypatch.setattr(interference_sets, "shared_members", _enumerated_shared)
    got = verify_interference_alignment(K, m, beta_override=override).to_json_dict()
    assert json.dumps(got) == json.dumps(want)


@functools.lru_cache(maxsize=None)
def _families(K, m, sign):
    """The base and extended sets of (K, m), built once; with sign -1 every
    row is inverted, so that every pivot exponent is -1."""
    def signed(dset):
        rows = dset.rows if sign == 1 else tuple(row.inverse() for row in dset.rows)
        return DimensionSet(dset.label, rows, dset.top)
    return ([signed(d) for d in build_base_dimension_sets(K, m)],
            [signed(d) for d in build_extended_dimension_sets(K, m)])


def _drawn_shift(data, base, label):
    """A lattice vector prod rows[r]**d_r, sometimes moved off the lattice,
    also by a name outside the rows."""
    d = data.draw(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -2]),
                           min_size=len(base.rows), max_size=len(base.rows)),
                  label=f"{label} d")
    shift = ONE
    for row, dr in zip(base.rows, d):
        shift = shift * row ** dr
    names = sorted(_names(*base.rows)) + ["x"]
    return shift * Monomial.from_dict(data.draw(
        st.dictionaries(st.sampled_from(names), st.integers(-2, 2), max_size=2),
        label=f"{label} off lattice"))


@pytest.mark.parametrize("K,m", [(3, 1), (3, 2), (4, 1)])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_escape_counts_match_enumeration(K, m, data):
    j = data.draw(st.integers(1, K + 1), label="set")
    bases, exts = _families(K, m, data.draw(st.sampled_from([1, -1]), label="sign"))
    base, ext = bases[j - 1], exts[j - 1]
    shift = _drawn_shift(data, base, "shift_a")
    shift_b = ONE
    if data.draw(st.booleans(), label="shift_b"):
        shift_b = _drawn_shift(data, ext, "shift_b")
        if shift.exponents and data.draw(st.booleans(), label="cancel"):
            # shift_b takes one name of shift_a at its exponent, so the
            # offset shift / shift_b drops that name
            n, e = data.draw(st.sampled_from(shift.exponents), label="cancelled")
            shift_b = Monomial.from_dict({**dict(shift_b.exponents), n: e})
            assert n not in dict((shift / shift_b).exponents)
    assert shared_members(base, shift, ext, shift_b) == _enumerated_shared(base, shift,
                                                                           ext, shift_b)
    # a set of other rows: decided exactly, or refused when no generator
    # separates the two
    other = exts[j % (K + 1)]
    try:
        got = shared_members(base, shift, other, shift_b)
    except CertificateError:
        assert not _enumerated_separation(base, shift, other, shift_b)
        return
    assert got == _enumerated_shared(base, shift, other, shift_b)


def test_overlap_without_a_separating_generator_is_refused():
    # two row orders with the same image: no generator separates them, so
    # the closed form refuses to call them disjoint
    x, y = Monomial.gen("x"), Monomial.gen("y")
    a = DimensionSet("A", (x, y), 2)
    b = DimensionSet("B", (y, x), 2)
    assert _enumerated_shared(a, ONE, b, ONE) == 4
    with pytest.raises(CertificateError, match="no separating generator"):
        shared_members(a, ONE, b, ONE)
    # shifted apart in y, or by a name neither set uses, they are separated
    # and share nothing
    for shift in (y ** 5, Monomial.gen("z")):
        assert shared_members(a, shift, b, ONE) == 0 == _enumerated_shared(a, shift, b, ONE)
    # a name that only one set uses separates them when its range there
    # misses the other set's 0: here z, first in b's rows, then in a's
    c = DimensionSet("C", (x, Monomial.gen("z")), 1)
    d = DimensionSet("D", (x, y), 1)
    for pair in ((d, y.inverse(), c, ONE), (c, ONE, d, y.inverse())):
        assert shared_members(*pair) == 0 == _enumerated_shared(*pair)


def test_a_set_meeting_two_earlier_sets_is_refused():
    x = Monomial.gen("x")
    line = DimensionSet("L", (x,), 2)   # x, x^2
    assert _new_members((line, ONE), [(line, x ** 2)]) == 2
    assert _new_members((line, ONE), [(line, x)]) == 1
    with pytest.raises(CertificateError, match="meets 2 earlier sets"):
        _new_members((line, ONE), [(line, x), (line, x ** -1)])


def test_a_pattern_row_without_a_pivot_is_refused():
    with pytest.raises(CertificateError, match="row 1 has no pivot"):
        DimensionSet("P", (Monomial.gen("x") * Monomial.gen("y"), Monomial.gen("y")), 2)


def test_every_pattern_has_pivots_up_to_nine_users():
    for K in range(3, 10):
        for dset in build_extended_dimension_sets(K, 1):
            assert sorted(r for r, _ in dset._pivots.values()) == list(range(len(dset.rows)))


def test_nine_users_are_exact_past_int64():
    report = verify_interference_alignment(9, 1)
    assert report.ok
    span = 8 + 10 * 2 ** 74
    assert report.expected_span_size == span
    assert report.receiver_span == dict.fromkeys(range(1, 10), span)
    assert report.set_cardinalities["T_1"] == 1
    assert report.set_cardinalities["T~_10"] == 2 ** 74 == 18889465931478580854784
    assert json.loads(json.dumps(report.to_json_dict()))["expected_span"] == span


class TestBetaOverride:
    @pytest.mark.parametrize("key", [0, 4, 7])
    def test_keys_outside_one_to_k_are_refused(self, key):
        with pytest.raises(ParameterError, match=r"beta_override keys must lie in 1\.\.3"):
            verify_interference_alignment(3, 1, beta_override={key: ONE})

    def test_empty_override_is_no_override(self):
        empty = verify_interference_alignment(3, 1, beta_override={})
        assert len(empty.checks) == 72
        assert json.dumps(empty.to_json_dict()) == json.dumps(
            verify_interference_alignment(3, 1).to_json_dict())


class TestBudget:
    def test_four_two_fits(self):
        assert expected_extended_cardinality(4, 2) == 3 ** 14 <= enumerator.MEMBER_ROW_BUDGET

    # the extended sets of (4, 3) hold 4^14 members each: refused where
    # they would be enumerated
    @pytest.mark.parametrize("build", [build_extended_dimension_sets])
    def test_four_three_refused_before_allocation(self, build):
        sets = build(4, 3)
        started = time.perf_counter()
        with pytest.raises(CapacityError, match=r"T~_1 has 268435456 members, over budget"):
            enumerator.rows(sets[0])
        assert time.perf_counter() - started < 0.5

    def test_four_three_verifies_without_enumerating(self):
        report = verify_interference_alignment(4, 3)
        assert report.ok
        assert expected_span(4, 3) == 3 * 3 ** 14 + 5 * 4 ** 14 == 1_356_526_187
        assert report.receiver_span == dict.fromkeys(range(1, 5), 1_356_526_187)


def test_the_sets_are_built_once_per_k_and_top(monkeypatch):
    # verify_interference_alignment reuses the sets of an earlier call, but
    # still asks build_extended_dimension_sets for them (the benchmark probes
    # that call)
    verify_interference_alignment(3, 1)
    built, asked = [], []
    post_init, build = DimensionSet.__post_init__, build_extended_dimension_sets
    monkeypatch.setattr(DimensionSet, "__post_init__",
                        lambda self: built.append(self.label) or post_init(self))
    monkeypatch.setattr(interference_sets, "build_extended_dimension_sets",
                        lambda K, m: asked.append((K, m)) or build(K, m))
    first = verify_interference_alignment(3, 1)
    assert built == [] and asked == [(3, 1)]
    assert first.to_json_dict() == verify_interference_alignment(3, 1).to_json_dict()
    # m = 2's base sets share top = 2 with m = 1's extended sets, not their labels
    assert [s.label for s in build_base_dimension_sets(3, 2)] == [f"T_{i}" for i in range(1, 5)]
    assert build_base_dimension_sets(3, 1) is not build_base_dimension_sets(3, 1)


# SHA-256 of json.dumps(verify_interference_alignment(K, m, override)
# .to_json_dict()): a change that moves one of these reports must say so here
PINNED_REPORTS = {
    (3, 2, None): "7f6f42e052f2f199079e99ce9fc3428323444132635ed7fd1bdc4eff2d298161",
    (4, 2, None): "ae721e4e8a55b47ff7a14decbc594ab6bd623215da1708f041392f97fb962111",
    (5, 1, None): "c73bc1559c2baa6ed65a52d96812b7d290988261b53e41c9fa0c6277563dff9e",
    (6, 1, None): "9ef3e1cd5677c04b0653aaf03bf051899a3b1ffc33842e5990caf0c08201002f",
    (9, 1, None): "ad67be683b99b4514f9ec432f5ad39bcad7a354a857669804a74c6e868ae6ad8",
    (4, 1, "beta_1 := 1"): "9e617ed2fbb9b4a56c3af2fd200194eca092b5d1f11c3f4c6e2a194c389ad02d",
}


@pytest.mark.parametrize("K,m,override", list(PINNED_REPORTS))
def test_reports_are_pinned(K, m, override):
    report = verify_interference_alignment(K, m, beta_override={1: ONE} if override else None)
    digest = hashlib.sha256(json.dumps(report.to_json_dict()).encode()).hexdigest()
    assert digest == PINNED_REPORTS[K, m, override]


def test_a_repeated_call_decides_every_check_again(monkeypatch):
    # nothing keyed on m, the set tops or the betas is kept from call to call
    calls = []
    counted = interference_sets.shared_members
    monkeypatch.setattr(interference_sets, "shared_members",
                        lambda *args: calls.append(args) or counted(*args))
    per_call = []
    for override in (None, None, {1: ONE}, {1: ONE}):
        calls.clear()
        verify_interference_alignment(4, 1, beta_override=override)
        per_call.append(len(calls))
    assert per_call[0] == per_call[1] == per_call[2] == per_call[3] > 0


def test_report_mappings_are_shared_and_read_only():
    first, again = verify_interference_alignment(3, 1), verify_interference_alignment(3, 1)
    for name in ("set_cardinalities", "receiver_span"):
        shared = getattr(first, name)
        assert isinstance(shared, dict) and shared is getattr(again, name)
        key = next(iter(shared))
        for mutate in (lambda d: d.__setitem__(key, 0), lambda d: d.__delitem__(key),
                       lambda d: d.update({key: 0}), lambda d: d.pop(key),
                       lambda d: d.popitem(), lambda d: d.setdefault(key, 0),
                       lambda d: d.clear(), lambda d: d.__ior__({key: 0})):
            with pytest.raises(TypeError, match="read-only"):
                mutate(shared)
        assert copy.deepcopy(shared) == shared == pickle.loads(pickle.dumps(shared))
    assert first.set_cardinalities["T~_4"] == 256
    assert first.receiver_span == dict.fromkeys(range(1, 4), 1026)
