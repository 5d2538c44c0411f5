"""Dimension sets and exact alignment verification for the fixed-gain
interference scheme.

Each transmitter i owns a base dimension set T_i (monomials in the channel
gains and a private constant c_i, exponents in {1..m}) plus an extended set
T~_i with exponents in {1..m+1}.  Messages ride on the T_j of other
transmitters; jamming rides on T_i and beta_i * T_{i+1}.  Multiplying any
T_j by a cross gain only shifts exponents by one, which lands inside T~_j,
so all interference at a legitimate receiver collapses into the K+1
extended sets while the K-1 desired sets stay disjoint from everything.
alignment_equations(K) states which block lands under which set, once for
the set patterns, the verifier's claims and the fading instances.

As in real interference alignment, a set is the image of the integer box
{1..top}^s, s = K(K-1) + 2, under the set's integer pattern matrix P: one
row per free exponent, one column per generator (the K^2 gains h_jk, then
c_1..c_{K+1}).  The rows of set i are the distinct nonzero factors of the
equations that land in it, with beta_k = 1/h_den(k), then its c_i.  Every
row of P has a pivot, a column that is nonzero in that row only and holds
+1 or -1.  The pivots make P injective on Z^s, so
the set has exactly top^s members, and they give the lattice coordinates
of an exponent vector f: d = sign * f[pivots], accepted only when
d @ P == f.  Every check is decided from the patterns in exact integer
arithmetic, without enumerating a member:

- f * T_j meets T~_j in the members whose box coordinates stay in the box
  after the shift by d, a product of one interval length per row; when f
  is not in the lattice, or names a symbol outside the generator order,
  they share nothing;
- sets of different patterns share nothing when some generator's exponent
  ranges over disjoint intervals in the two; when none does, the verifier
  raises instead of guessing;
- the receiver span is the sum of the set sizes minus those overlaps, and
  the verifier raises when a set meets more than one earlier set.
"""
from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import CertificateError, ParameterError
from .monomial import Monomial

# transmitters are computationally bounded well below 10, so single-digit
# gain names are unambiguous
_MAX_K = 9

# Set labels, each format stated here only: T_i names a base set and T~_i
# an extended one.  The builders, the cardinalities and the claims of every
# report share these strings.
BASE_LABELS = {i: f"T_{i}" for i in range(1, _MAX_K + 2)}
EXTENDED_LABELS = {i: f"T~_{i}" for i in range(1, _MAX_K + 2)}

# an exponent vector as {generator column: exponent}, without zeros
Shift = dict[int, int]


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


def unintended_messages(K: int, rx: int) -> list[tuple[int, int]]:
    """The (tx, slot) message blocks that reach receiver rx unintended:
    every slot of every other transmitter, transmitter-major."""
    return [(k, j) for k in range(1, K + 1) if k != rx for j in message_slots(K, k)]


def alignment_equations(K: int) -> list[tuple[int, int, str, int]]:
    """The scheme's alignment equations as (rx l, tx k, block, set j): at
    receiver l, h_kl times the block's base set T_j (times beta_k for a
    "U~" block) must lie in the extended set T~_j.  Per receiver: the
    unintended messages "V", then every first jamming block "U" under its
    own set, then every second jamming block "U~" one set ahead."""
    rows = []
    for l in range(1, K + 1):
        rows += [(l, k, "V", j) for k, j in unintended_messages(K, l)]
        rows += [(l, k, "U", k) for k in range(1, K + 1)]
        rows += [(l, k, "U~", k + 1) for k in range(1, K + 1)]
    return rows


def _factor(l: int, k: int, block: str, betas: Mapping[int, Monomial]) -> Monomial:
    """The factor an alignment equation puts on its base set."""
    gain = Monomial.gen(gain_name(k, l))
    return gain * betas[k] if block == "U~" else gain


def exponent_slots(K: int) -> int:
    """Number of free exponents per set: K(K-1) + 2 (including the constant)."""
    return K * (K - 1) + 2


def _generator_order(K: int) -> tuple[str, ...]:
    """Column order of the exponent rows: h_11..h_KK, then c_1..c_{K+1}."""
    gains = tuple(gain_name(j, k) for j in range(1, K + 1) for k in range(1, K + 1))
    return gains + tuple(f"c_{i}" for i in range(1, K + 2))


@functools.lru_cache(maxsize=None)
def _patterns(K: int) -> tuple[np.ndarray, ...]:
    """The read-only pattern matrices of sets 1..K+1, one row per free
    exponent: the distinct nonzero factors of the alignment equations that
    land in set i, with beta_k = 1/h_den(k), then the c_i row."""
    generators = _generator_order(K)
    column = {g: c for c, g in enumerate(generators)}
    betas = _denominator_betas(K)
    factors: dict[int, dict[Monomial, None]] = {i: {} for i in range(1, K + 2)}
    for l, k, block, j in alignment_equations(K):
        factor = _factor(l, k, block, betas)
        if factor != Monomial.one():
            factors[j].setdefault(factor)
    patterns = []
    for i, distinct in factors.items():
        if len(distinct) + 1 != exponent_slots(K):
            raise CertificateError(f"set {i} has {len(distinct)} gain rows, "
                                   f"expected {exponent_slots(K) - 1}")
        pattern = np.zeros((exponent_slots(K), len(generators)), np.int8)
        for r, factor in enumerate([*distinct, Monomial.gen(f"c_{i}")]):
            for name, e in factor.exponents:
                pattern[r, column[name]] = e
        pattern.setflags(write=False)
        patterns.append(pattern)
    return tuple(patterns)


@dataclass(frozen=True, eq=False)
class DimensionSet:
    """The monomials e @ pattern for e in {1..top}^s, over `generators`.

    The pattern's pivots are found when the set is built, and a pattern with
    a row that has none is refused: its size and lattice would be unproven.
    """

    label: str
    generators: tuple[str, ...]
    pattern: np.ndarray
    top: int
    # the nonzero (column, entry) pairs of each pattern row
    _support: tuple[tuple[tuple[int, int], ...], ...] = field(init=False, repr=False)
    # pivot column -> (its row, its entry)
    _pivots: dict[int, tuple[int, int]] = field(init=False, repr=False)
    # least and greatest exponent of each generator over the set
    _low: np.ndarray = field(init=False, repr=False)
    _high: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        rows, cols = np.nonzero(self.pattern)
        support: list[list[tuple[int, int]]] = [[] for _ in self.pattern]
        for r, c, v in zip(rows.tolist(), cols.tolist(),
                           self.pattern[rows, cols].tolist()):
            support[r].append((c, v))
        weight = np.count_nonzero(self.pattern, axis=0).tolist()
        pivots = {}
        for r, entries in enumerate(support):
            pivot = next(((c, v) for c, v in entries
                          if weight[c] == 1 and abs(v) == 1), None)
            if pivot is None:
                raise CertificateError(f"{self.label}: pattern row {r} has no pivot column")
            pivots[pivot[0]] = (r, pivot[1])
        wide = self.pattern.astype(np.int64)
        object.__setattr__(self, "_support", tuple(map(tuple, support)))
        object.__setattr__(self, "_pivots", pivots)
        object.__setattr__(self, "_low", np.minimum(wide, self.top * wide).sum(axis=0))
        object.__setattr__(self, "_high", np.maximum(wide, self.top * wide).sum(axis=0))

    @property
    def size(self) -> int:
        """Number of members, top^s: exact at any size, unlike len()."""
        return _one_copy(self.top ** len(self.pattern))

    def coordinates(self, shift: Shift) -> Shift | None:
        """The nonzero lattice coordinates d with d @ pattern == shift, or
        None when the shift is not in the pattern's lattice."""
        d = {}
        for c, v in shift.items():
            if c in self._pivots:
                r, sign = self._pivots[c]
                d[r] = sign * v
        image: Shift = {}
        for r, dr in d.items():
            for c, v in self._support[r]:
                image[c] = image.get(c, 0) + dr * v
        return d if {c: v for c, v in image.items() if v} == shift else None


@functools.lru_cache(maxsize=1024)
def _one_copy(n: int) -> int:
    """n itself, as the first int object seen with its value: a caller that
    keeps thousands of reports keeps one copy of each size and span."""
    return n


def _difference(a: Shift, b: Shift) -> Shift:
    out = dict(a)
    for c, v in b.items():
        out[c] = out.get(c, 0) - v
    return {c: v for c, v in out.items() if v}


def _dense(shift: Shift, width: int) -> np.ndarray:
    out = np.zeros(width, np.int64)
    for c, v in shift.items():
        out[c] = v
    return out


def shared_members(a: DimensionSet, shift_a: Shift,
                   b: DimensionSet, shift_b: Shift) -> int:
    """How many members shift_a * a and shift_b * b have in common (both
    sets over one generator order).

    Raises CertificateError for sets of different patterns that no
    generator separates: their overlap is not decided here.
    """
    if np.array_equal(a.pattern, b.pattern):
        d = a.coordinates(_difference(shift_a, shift_b))
        if d is None:
            return 0
        # shift_a + e @ P == shift_b + e' @ P exactly when e' = e + d, so
        # row r counts the e_r in 1..a.top with e_r + d_r in 1..b.top
        common = min(a.top, b.top) ** (len(a.pattern) - len(d))
        for dr in d.values():
            common *= max(0, min(a.top, b.top - dr) - max(1, 1 - dr) + 1)
        return common
    width = len(a.generators)
    offset = _dense(shift_a, width) - _dense(shift_b, width)
    if ((a._high + offset < b._low).any()
            or (b._high < a._low + offset).any()):
        return 0
    raise CertificateError(f"{a.label} and {b.label} have different patterns "
                           f"and no separating generator")


def _new_members(image: tuple[DimensionSet, Shift],
                 earlier: list[tuple[DimensionSet, Shift]]) -> int:
    """Members of a scaled set that lie in none of the earlier ones."""
    dset, shift = image
    overlaps = [n for n in (shared_members(dset, shift, *other) for other in earlier) if n]
    if len(overlaps) > 1:
        raise CertificateError(f"{dset.label} meets {len(overlaps)} earlier sets, "
                               f"whose common members are not counted here")
    return dset.size - sum(overlaps)


def _build_family(K: int, m: int, top: int,
                  labels: Mapping[int, str]) -> list[DimensionSet]:
    _check_km(K, m)
    generators = _generator_order(K)
    return [DimensionSet(labels[i], generators, pattern, top)
            for i, pattern in enumerate(_patterns(K), start=1)]


def build_base_dimension_sets(K: int, m: int) -> list[DimensionSet]:
    """The K+1 sets T_1..T_{K+1} with exponents in {1..m}."""
    return _build_family(K, m, m, BASE_LABELS)


def build_extended_dimension_sets(K: int, m: int) -> list[DimensionSet]:
    """The K+1 sets T~_1..T~_{K+1} with exponents in {1..m+1}."""
    return _build_family(K, m, m + 1, EXTENDED_LABELS)


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


def _denominator_betas(K: int) -> dict[int, Monomial]:
    """beta_i = 1/h_den of beta_links(K), and beta_K = 1: the general rule
    without its numerators, which are free gains of the target set."""
    betas = {i: Monomial.gen(gain_name(*den), -1) for i, (_, den) in beta_links(K).items()}
    betas[K] = Monomial.one()
    return betas


def beta_three_user() -> dict[int, Monomial]:
    """The K=3 rule: beta_i = 1/h_ii for i=1,2 and beta_3 = 1."""
    return _denominator_betas(3)


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
    def violations(self) -> tuple[str, ...]:
        # interned: a failing claim repeats verbatim from report to report,
        # and callers that keep many reports' violations keep one copy
        return tuple(sys.intern(c.claim) for c in self.checks if c.status != "pass")

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
            "violations": list(self.violations),
        }


def verify_interference_alignment(K: int, m: int,
                                  beta_override: Mapping[int, Monomial] | None = None
                                  ) -> AlignmentReport:
    """Exact structural verification of the fixed-gain interference scheme.

    Checks, for every receiver: containment of every unintended message set
    and every jamming set in the matching extended set, disjointness of the
    desired sets from each other and from all extended sets, and the total
    span cardinality.  Violations are report content, never exceptions.
    beta_override swaps out individual beta_i factors, i in 1..K (used for
    adversarial mutation tests); an empty mapping overrides nothing.
    """
    base = {i + 1: s for i, s in enumerate(build_base_dimension_sets(K, m))}
    extended = {i + 1: s for i, s in enumerate(build_extended_dimension_sets(K, m))}
    column = {g: c for c, g in enumerate(base[1].generators)}

    betas = beta_three_user() if K == 3 else beta_general(K)
    if beta_override:
        unknown = [k for k in beta_override if k not in betas]
        if unknown:
            raise ParameterError(f"beta_override keys must lie in 1..{K}, got {unknown}")
        betas = {**betas, **dict(beta_override)}
    check_secondary = K == 3 and not beta_override

    cardinalities: dict[str, int] = {}
    checks: list[AlignmentCheck] = []
    s = exponent_slots(K)
    exp_base = expected_base_cardinality(K, m)
    exp_ext = expected_extended_cardinality(K, m)
    none: Shift = {}
    for i in range(1, K + 2):
        b, e = base[i], extended[i]
        cardinalities[b.label] = b.size
        cardinalities[e.label] = e.size
        checks.append(AlignmentCheck(
            None, f"|{b.label}| == m^{s}",
            "pass" if b.size == exp_base else "fail", f"{b.size} vs {exp_base}"))
        checks.append(AlignmentCheck(
            None, f"|{e.label}| == (m+1)^{s}",
            "pass" if e.size == exp_ext else "fail", f"{e.size} vs {exp_ext}"))
        checks.append(AlignmentCheck(
            None, f"{b.label} subset of {e.label}",
            "pass" if shared_members(b, none, e, none) == b.size else "fail"))

    def containment(rx: int, k: int, block: str, j: int,
                    rule: Mapping[int, Monomial], tag: str = "") -> None:
        factor = _factor(rx, k, block, rule)
        escaped = base[j].size
        # every member escapes a factor that names a symbol outside the order
        if all(n in column for n, _ in factor.exponents):
            shift = {column[n]: e for n, e in factor.exponents}
            escaped -= shared_members(base[j], shift, extended[j], none)
        ok = escaped == 0
        what = f"message V{k},{j}" if block == "V" else f"jamming {block}{k}"
        checks.append(AlignmentCheck(
            rx, f"rx{rx}: {factor}*{base[j].label} within {extended[j].label} ({what}){tag}",
            "pass" if ok else "fail",
            "" if ok else f"{escaped} members escape"))

    # the extended sets are common to every receiver's span
    ext_images = [(extended[i], none) for i in range(1, K + 2)]
    ext_union = sum(_new_members(image, ext_images[:n])
                    for n, image in enumerate(ext_images))

    equations = alignment_equations(K)
    receiver_span: dict[int, int] = {}
    for l in range(1, K + 1):
        mine = [eq for eq in equations if eq[0] == l]
        for eq in mine:
            containment(*eq, betas)
        if check_secondary:
            general = beta_general(K)
            for eq in mine:
                if eq[2] == "U~":
                    containment(*eq, general, " [general beta rule]")

        # desired sets: pairwise disjoint and clear of every extended set
        own_name = gain_name(l, l)
        own = {column[own_name]: 1}
        slots = message_slots(K, l)
        for a_idx, ja in enumerate(slots):
            for jb in slots[a_idx + 1:]:
                ok = not shared_members(base[ja], own, base[jb], own)
                checks.append(AlignmentCheck(
                    l, f"rx{l}: {own_name}*{base[ja].label} disjoint from "
                       f"{own_name}*{base[jb].label}",
                    "pass" if ok else "fail"))
            for i in range(1, K + 2):
                ok = not shared_members(base[ja], own, extended[i], none)
                checks.append(AlignmentCheck(
                    l, f"rx{l}: {own_name}*{base[ja].label} disjoint from {extended[i].label}",
                    "pass" if ok else "fail"))

        span, seen = ext_union, list(ext_images)
        for j in slots:
            span += _new_members((base[j], own), seen)
            seen.append((base[j], own))
        receiver_span[l] = _one_copy(span)
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
