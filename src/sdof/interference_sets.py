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
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping

from .errors import ParameterError
from .monomial import DimensionSet, Monomial

# transmitters are computationally bounded well below 10 (set sizes grow as
# m^(K(K-1)+2)), so single-digit gain names are unambiguous
_MAX_K = 9


def gain_name(tx: int, rx: int) -> str:
    return f"h_{tx}{rx}"


def _check_km(K: int, m: int) -> None:
    if not (3 <= K <= _MAX_K):
        raise ParameterError(f"construction needs 3 <= K <= {_MAX_K}, got K={K}")
    if m < 1:
        raise ParameterError(f"exponent range m must be >= 1, got {m}")


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


def _build_set(K: int, i: int, lo: int, hi: int, label: str) -> DimensionSet:
    plain, ratios = _set_pattern(K, i)
    members = set()
    span = range(lo, hi + 1)
    n_free = len(plain) + len(ratios) + 1
    for exps in itertools.product(span, repeat=n_free):
        d: dict[str, int] = {}
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
    return DimensionSet(label=label, members=frozenset(members))


def build_base_dimension_sets(K: int, m: int) -> list[DimensionSet]:
    """The K+1 sets T_1..T_{K+1} with exponents in {1..m}."""
    _check_km(K, m)
    return [_build_set(K, i, 1, m, f"T_{i}") for i in range(1, K + 2)]


def build_extended_dimension_sets(K: int, m: int) -> list[DimensionSet]:
    """The K+1 sets T~_1..T~_{K+1} with exponents in {1..m+1}."""
    _check_km(K, m)
    return [_build_set(K, i, 1, m + 1, f"T~_{i}") for i in range(1, K + 2)]


def beta_general(K: int) -> dict[int, Monomial]:
    """Scaling beta_i of the second jamming block, general-K rule."""
    betas: dict[int, Monomial] = {}
    for i in range(1, K - 1):
        betas[i] = Monomial.gen(gain_name(i + 2, 1)) / Monomial.gen(gain_name(i, 1))
    betas[K - 1] = Monomial.gen(gain_name(1, 2)) / Monomial.gen(gain_name(K - 1, 2))
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
            "pass" if base[i].members <= extended[i].members else "fail"))

    def containment(rx: int, factor: Monomial, src: int, dst: int, what: str,
                    tag: str = "") -> None:
        scaled = base[src].scaled(factor)
        ok = scaled <= extended[dst].members
        checks.append(AlignmentCheck(
            rx, f"rx{rx}: {factor}*T_{src} within T~_{dst} ({what}){tag}",
            "pass" if ok else "fail",
            "" if ok else f"{len(scaled - extended[dst].members)} members escape"))

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
        desired = {j: base[j].scaled(own) for j in message_slots(K, l)}
        slots = message_slots(K, l)
        for a_idx, ja in enumerate(slots):
            for jb in slots[a_idx + 1:]:
                ok = not (desired[ja] & desired[jb])
                checks.append(AlignmentCheck(
                    l, f"rx{l}: h_{l}{l}*T_{ja} disjoint from h_{l}{l}*T_{jb}",
                    "pass" if ok else "fail"))
            for i in range(1, K + 2):
                ok = not (desired[ja] & extended[i].members)
                checks.append(AlignmentCheck(
                    l, f"rx{l}: h_{l}{l}*T_{ja} disjoint from T~_{i}",
                    "pass" if ok else "fail"))

        span: set[Monomial] = set()
        for s in desired.values():
            span |= s
        for i in range(1, K + 2):
            span |= extended[i].members
        receiver_span[l] = len(span)
        checks.append(AlignmentCheck(
            l, f"rx{l}: span size == {expected_span(K, m)}",
            "pass" if len(span) == expected_span(K, m) else "fail",
            f"got {len(span)}"))

    return AlignmentReport(
        K=K, m=m,
        set_cardinalities=cardinalities,
        receiver_span=receiver_span,
        expected_span_size=expected_span(K, m),
        checks=checks,
    )
