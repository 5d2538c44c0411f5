"""Dimension sets and exact alignment verification for the fixed-gain
interference scheme.

Each transmitter i owns a base dimension set T_i (monomials in the channel
gains and a private constant c_i, exponents in {1..m}) plus an extended set
T~_i with exponents in {1..m+1}.  Messages ride on the T_j of other
transmitters; jamming rides on T_i and beta_i * T_{i+1}.  Multiplying any
T_j by a cross gain only shifts exponents by one, which lands inside T~_j,
so all interference at a legitimate receiver collapses into the K+1
extended sets while the K-1 desired sets stay disjoint from everything.
All of this is checked by exact integer exponent arithmetic.

A set is stored as int8 exponent rows over one generator order (the K^2
gains h_jk, then c_1..c_{K+1}): the image of the integer box {1..top}^s
under the set's integer pattern matrix, deduplicated and sorted by the rows'
bytes.  Scaling by a monomial adds one row vector; containment, disjointness
and union sizes compare whole rows as fixed-width byte strings (the row
functions of `monomial`, which the fading precoders share).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import CapacityError, ParameterError
from .monomial import Monomial, box_image, distinct_rows, find_rows, row_keys

# transmitters are computationally bounded well below 10 (set sizes grow as
# m^(K(K-1)+2)), so single-digit gain names are unambiguous
_MAX_K = 9

# exponent rows the base and extended families of one (K, m) may hold; a
# row costs K^2 + K + 1 bytes plus sorting scratch, and (4, 2) needs 24.0M
MEMBER_ROW_BUDGET = 30_000_000


def gain_name(tx: int, rx: int) -> str:
    return f"h_{tx}{rx}"


def _check_km(K: int, m: int) -> None:
    if not (3 <= K <= _MAX_K):
        raise ParameterError(f"construction needs 3 <= K <= {_MAX_K}, got K={K}")
    if m < 1:
        raise ParameterError(f"exponent range m must be >= 1, got {m}")
    rows = member_rows(K, m)
    if rows > MEMBER_ROW_BUDGET:
        raise CapacityError(
            f"(K, m) = ({K}, {m}) needs {rows} exponent rows, "
            f"over budget {MEMBER_ROW_BUDGET}")


def message_slots(K: int, tx: int) -> list[int]:
    """Sub-message indices transmitter tx uses: 1..K+1 minus {tx, tx+1}."""
    return [j for j in range(1, K + 2) if j not in (tx, tx + 1)]


def exponent_slots(K: int) -> int:
    """Number of free exponents per set: K(K-1) + 2 (including the constant)."""
    return K * (K - 1) + 2


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


def _generator_order(K: int) -> tuple[str, ...]:
    """Column order of the exponent rows: h_11..h_KK, then c_1..c_{K+1}."""
    gains = tuple(gain_name(j, k) for j in range(1, K + 1) for k in range(1, K + 1))
    return gains + tuple(f"c_{i}" for i in range(1, K + 2))


def _pattern_matrix(K: int, i: int, column: Mapping[str, int]) -> np.ndarray:
    """One row per free exponent of set i: the exponent change of one unit."""
    plain, ratios = _set_pattern(K, i)
    pattern = np.zeros((exponent_slots(K), len(column)), np.int8)
    for r, (j, k) in enumerate(plain):
        pattern[r, column[gain_name(j, k)]] += 1
    for r, (num, den) in enumerate(ratios, start=len(plain)):
        pattern[r, column[gain_name(*num)]] += 1
        pattern[r, column[gain_name(*den)]] -= 1
    pattern[-1, column[f"c_{i}"]] = 1
    return pattern


def _count_new(keys: np.ndarray, earlier: list[np.ndarray]) -> int:
    """How many of the distinct keys lie in none of the earlier sorted arrays."""
    new = np.ones(len(keys), bool)
    for other in earlier:
        new &= ~find_rows(keys, other)[1]
    return int(new.sum())


@dataclass(frozen=True, eq=False)
class DimensionSet:
    """A labelled set of monomials: distinct int8 exponent rows over
    `generators`, sorted by their bytes."""

    label: str
    generators: tuple[str, ...]
    rows: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def keys(self) -> np.ndarray:
        return row_keys(self.rows)

    @property
    def members(self) -> frozenset[Monomial]:
        return frozenset(Monomial.from_dict(dict(zip(self.generators, row)))
                         for row in self.rows.tolist())

    def scaled(self, factor: Monomial) -> tuple[np.ndarray, int]:
        """Rows of factor * self that int8 holds, and how many members it
        cannot hold.  Those, like every member when the factor names a symbol
        outside the generator order, lie in no set built here."""
        exponents = dict(factor.exponents)
        if not exponents.keys() <= set(self.generators):
            return self.rows[:0], len(self)
        wide = self.rows + np.array([exponents.get(g, 0) for g in self.generators],
                                    np.int64)
        held = ((wide >= -128) & (wide <= 127)).all(axis=1)
        return wide[held].astype(np.int8), len(self) - int(held.sum())


def _build_family(K: int, m: int, top: int, prefix: str) -> list[DimensionSet]:
    _check_km(K, m)
    generators = _generator_order(K)
    column = {g: c for c, g in enumerate(generators)}
    return [DimensionSet(f"{prefix}_{i}", generators,
                         distinct_rows(box_image(_pattern_matrix(K, i, column), top)))
            for i in range(1, K + 2)]


def build_base_dimension_sets(K: int, m: int) -> list[DimensionSet]:
    """The K+1 sets T_1..T_{K+1} with exponents in {1..m}."""
    return _build_family(K, m, m, "T")


def build_extended_dimension_sets(K: int, m: int) -> list[DimensionSet]:
    """The K+1 sets T~_1..T~_{K+1} with exponents in {1..m+1}."""
    return _build_family(K, m, m + 1, "T~")


def beta_links(K: int) -> dict[int, tuple[tuple[int, int], tuple[int, int]]]:
    """(numerator, denominator) links of beta_i = h_num / h_den in the
    general-K rule: h_{i+2,1}/h_{i,1} for i <= K-2, then h_12/h_{K-1,2};
    beta_K = 1 has no links."""
    links = {i: ((i + 2, 1), (i, 1)) for i in range(1, K - 1)}
    links[K - 1] = ((1, 2), (K - 1, 2))
    return links


def beta_general(K: int) -> dict[int, Monomial]:
    """Scaling beta_i of the second jamming block, general-K rule."""
    betas = {i: Monomial.gen(gain_name(*num)) / Monomial.gen(gain_name(*den))
             for i, (num, den) in beta_links(K).items()}
    betas[K] = Monomial.one()
    return betas


def beta_three_user() -> dict[int, Monomial]:
    """The K=3 rule: beta_i = 1/h_ii for i=1,2 and beta_3 = 1."""
    return {
        1: Monomial.gen(gain_name(1, 1), -1),
        2: Monomial.gen(gain_name(2, 2), -1),
        3: Monomial.one(),
    }


def expected_base_cardinality(K: int, m: int) -> int:
    return m ** exponent_slots(K)


def expected_extended_cardinality(K: int, m: int) -> int:
    return (m + 1) ** exponent_slots(K)


def member_rows(K: int, m: int) -> int:
    """Exponent rows of the base and extended families together."""
    return (K + 1) * (expected_base_cardinality(K, m) + expected_extended_cardinality(K, m))


def expected_span(K: int, m: int) -> int:
    """Occupied dimensions at one receiver: (K-1) desired sets + K+1 extended sets."""
    return (K - 1) * expected_base_cardinality(K, m) \
        + (K + 1) * expected_extended_cardinality(K, m)


@dataclass
class AlignmentCheck:
    receiver: int | None
    claim: str
    status: str  # "pass" | "fail"
    detail: str = ""

    def to_json_dict(self) -> dict:
        doc = {"receiver": self.receiver, "claim": self.claim, "status": self.status}
        if self.detail:
            doc["detail"] = self.detail
        return doc


@dataclass
class AlignmentReport:
    K: int
    m: int
    set_cardinalities: dict[str, int]
    receiver_span: dict[int, int]
    expected_span_size: int
    checks: list[AlignmentCheck] = field(default_factory=list)

    @property
    def violations(self) -> list[str]:
        return [c.claim for c in self.checks if c.status != "pass"]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "K": self.K,
            "m": self.m,
            "cardinalities": dict(sorted(self.set_cardinalities.items())),
            "receiver_span": {str(k): v for k, v in sorted(self.receiver_span.items())},
            "expected_span": self.expected_span_size,
            "checks": [c.to_json_dict() for c in self.checks],
            "violations": self.violations,
        }


def verify_interference_alignment(K: int, m: int,
                                  beta_override: Mapping[int, Monomial] | None = None
                                  ) -> AlignmentReport:
    """Exact structural verification of the fixed-gain interference scheme.

    Checks, for every receiver: containment of every unintended message set
    and every jamming set in the matching extended set, disjointness of the
    desired sets from each other and from all extended sets, and the total
    span cardinality.  Violations are report content, never exceptions.
    beta_override swaps out individual beta_i factors (used for adversarial
    mutation tests).
    """
    base = {i + 1: s for i, s in enumerate(build_base_dimension_sets(K, m))}
    extended = {i + 1: s for i, s in enumerate(build_extended_dimension_sets(K, m))}

    betas = beta_three_user() if K == 3 else beta_general(K)
    check_secondary = K == 3 and beta_override is None
    if beta_override:
        betas = {**betas, **dict(beta_override)}

    cardinalities: dict[str, int] = {}
    checks: list[AlignmentCheck] = []
    exp_base = expected_base_cardinality(K, m)
    exp_ext = expected_extended_cardinality(K, m)
    for i in range(1, K + 2):
        cardinalities[base[i].label] = len(base[i])
        cardinalities[extended[i].label] = len(extended[i])
        checks.append(AlignmentCheck(
            None, f"|{base[i].label}| == m^{exponent_slots(K)}",
            "pass" if len(base[i]) == exp_base else "fail",
            f"{len(base[i])} vs {exp_base}"))
        checks.append(AlignmentCheck(
            None, f"|{extended[i].label}| == (m+1)^{exponent_slots(K)}",
            "pass" if len(extended[i]) == exp_ext else "fail",
            f"{len(extended[i])} vs {exp_ext}"))
        checks.append(AlignmentCheck(
            None, f"{base[i].label} subset of {extended[i].label}",
            "pass" if find_rows(base[i].keys, extended[i].keys)[1].all() else "fail"))

    def containment(rx: int, factor: Monomial, src: int, dst: int, what: str,
                    tag: str = "") -> None:
        rows, escaped = base[src].scaled(factor)
        escaped += int((~find_rows(row_keys(rows), extended[dst].keys)[1]).sum())
        ok = escaped == 0
        checks.append(AlignmentCheck(
            rx, f"rx{rx}: {factor}*T_{src} within T~_{dst} ({what}){tag}",
            "pass" if ok else "fail",
            "" if ok else f"{escaped} members escape"))

    # the extended sets are common to every receiver's span
    ext_keys = [extended[i].keys for i in range(1, K + 2)]
    ext_union = sum(_count_new(keys, ext_keys[:n]) for n, keys in enumerate(ext_keys))

    receiver_span: dict[int, int] = {}
    for l in range(1, K + 1):
        # unintended messages land under the matching extended set
        for k in range(1, K + 1):
            if k == l:
                continue
            for j in message_slots(K, k):
                containment(l, Monomial.gen(gain_name(k, l)), j, j,
                            f"message V{k},{j}")
        # first jamming block of every transmitter
        for k in range(1, K + 1):
            containment(l, Monomial.gen(gain_name(k, l)), k, k, f"jamming U{k}")
        # second jamming block, scaled by beta_k
        for k in range(1, K + 1):
            factor = Monomial.gen(gain_name(k, l)) * betas[k]
            containment(l, factor, k + 1, k + 1, f"jamming U~{k}")
        if check_secondary:
            general = beta_general(K)
            for k in range(1, K + 1):
                factor = Monomial.gen(gain_name(k, l)) * general[k]
                containment(l, factor, k + 1, k + 1, f"jamming U~{k}",
                            tag=" [general beta rule]")

        # desired sets: pairwise disjoint and clear of every extended set
        own = Monomial.gen(gain_name(l, l))
        # sorted, so that each can be searched
        desired = {j: row_keys(distinct_rows(base[j].scaled(own)[0]))
                   for j in message_slots(K, l)}
        slots = message_slots(K, l)
        for a_idx, ja in enumerate(slots):
            for jb in slots[a_idx + 1:]:
                ok = not find_rows(desired[ja], desired[jb])[1].any()
                checks.append(AlignmentCheck(
                    l, f"rx{l}: h_{l}{l}*T_{ja} disjoint from h_{l}{l}*T_{jb}",
                    "pass" if ok else "fail"))
            for i in range(1, K + 2):
                ok = not find_rows(desired[ja], ext_keys[i - 1])[1].any()
                checks.append(AlignmentCheck(
                    l, f"rx{l}: h_{l}{l}*T_{ja} disjoint from T~_{i}",
                    "pass" if ok else "fail"))

        span, seen = ext_union, list(ext_keys)
        for keys in desired.values():
            span += _count_new(keys, seen)
            seen.append(keys)
        receiver_span[l] = span
        checks.append(AlignmentCheck(
            l, f"rx{l}: span size == {expected_span(K, m)}",
            "pass" if span == expected_span(K, m) else "fail",
            f"got {span}"))

    return AlignmentReport(
        K=K, m=m,
        set_cardinalities=cardinalities,
        receiver_span=receiver_span,
        expected_span_size=expected_span(K, m),
        checks=checks,
    )
