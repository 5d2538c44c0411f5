"""Dimension sets and exact alignment verification for the fixed-gain
interference scheme.

Each transmitter i owns a base dimension set T_i (monomials in the channel
gains and a private constant c_i, exponents in {1..m}) plus an extended set
T~_i with exponents in {1..m+1}.  Messages ride on the T_j of other
transmitters; jamming rides on T_i and beta_i * T_{i+1}.  Multiplying any
T_j by a cross gain only shifts exponents by one, which lands inside T~_j,
so all interference at a legitimate receiver collapses into the K+1
extended sets while the K-1 desired sets stay disjoint from everything.
blind_table(K) is the one statement of this block layout: the set rows,
the verifier's claims, and the fading precoders and matrices all read it.

As in real interference alignment, a set is the image of the integer box
{1..top}^s, s = K(K-1) + 2, under its rows R_1..R_s, `Monomial`s over the
gains h_jk and the set's constant c_i: the members are the products
R_1^e_1 * ... * R_s^e_s.  The rows of set i are the distinct nonzero
factors of the equations that land in it, with beta_k = 1/h_den(k), then
its c_i.  Every row has a pivot, a generator that appears in that row only,
with exponent +1 or -1.  The pivots make e -> prod R_r^e_r injective on
Z^s, so the set has exactly top^s members, and they give the lattice
coordinates of a monomial f: d_r = sign * (f's exponent of row r's pivot),
accepted only when prod R_r^d_r == f.  A set keeps its rows as plain
name -> exponent dicts next to their `Monomial`s, so a check reads the
coordinates and the generator ranges without building a monomial.  Every
check is decided from the rows in exact integer arithmetic, without
enumerating a member:

- f * T_j meets T~_j in the members whose box coordinates stay in the box
  after the shift by d, a product of one interval length per row; when f
  is not in the lattice, for instance when it names a symbol the rows do
  not, they share nothing;
- sets of different rows share nothing when some generator's exponent
  ranges over disjoint intervals in the two; when none does, the verifier
  raises instead of guessing;
- the receiver span is the sum of the set sizes minus those overlaps, and
  the verifier raises when a set meets more than one earlier set.
"""
from __future__ import annotations

import functools
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

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


def gain_name(tx: int, rx: int) -> str:
    return f"h_{tx}{rx}"


def _check_km(K: int, m: int) -> None:
    blind_table(K)  # refuses a K outside 3..9
    if m < 1:
        raise ParameterError(f"exponent range m must be >= 1, got {m}")


class Block(NamedTuple):
    """One block of a scheme: transmitter `owner` sends the precoder of set
    `target` over the exponent box {1..n+top} (top 0: the base box, 1: the
    extended box), scaled by `coefficient`.  At receiver l it arrives on
    h_{owner,l} * coefficient, at the eavesdropper on g_owner * coefficient."""

    name: str
    owner: int
    target: int
    top: int
    coefficient: Monomial


@dataclass(frozen=True, eq=False)
class BlockTable:
    """A scheme's blocks, in stacking order, and the groups its consumers
    read.  Receiver l decodes its desired blocks, the messages of
    transmitter l, against the aligned jamming; every other block must
    arrive inside the arrival of its target's aligned block."""

    K: int
    blocks: tuple[Block, ...]    # the messages, then every U_k, then every U~_k
    messages: tuple[Block, ...]  # transmitter by transmitter
    scaled: tuple[Block, ...]    # U~_1..U~_K
    aligned: tuple[Block, ...]   # the blocks over an extended box, one per target

    def desired(self, l: int) -> tuple[Block, ...]:
        """The blocks receiver l decodes: the messages of transmitter l."""
        if not 1 <= l <= self.K:
            raise ParameterError(f"transmitter must lie in 1..{self.K}, got {l}")
        return tuple(b for b in self.messages if b.owner == l)

    def decoder(self, l: int) -> tuple[Block, ...]:
        """Receiver l's decoder: its desired blocks, then the aligned jamming."""
        return self.desired(l) + self.aligned


@functools.lru_cache(maxsize=None)
def blind_table(K: int) -> BlockTable:
    """The cooperative-jamming scheme without eavesdropper CSIT (Xie &
    Ulukus, IEEE Trans. IT 2014), the one statement of its block layout,
    built once per K.  Transmitter k sends message V_kj on the base set T_j
    for every j in 1..K+1 but k and k+1, jamming U_k on its own extended set
    T~_k, and jamming U~_k on beta_k T_{k+1}, with beta_k = h_{k+2,1}/h_{k,1}
    for k <= K-2 and h_12/h_{K-1,2} for k = K-1; U~_K is T~_{K+1} itself."""
    if not (3 <= K <= _MAX_K):
        raise ParameterError(f"construction needs 3 <= K <= {_MAX_K}, got K={K}")
    gains, one = _gains(K), Monomial.one()
    messages = tuple(Block(f"V{k},{j}", k, j, 0, one)
                     for k in range(1, K + 1) for j in range(1, K + 2) if j not in (k, k + 1))
    jamming = tuple(Block(f"U{k}", k, k, 1, one) for k in range(1, K + 1))
    betas = [gains[k + 2, 1] / gains[k, 1] for k in range(1, K - 1)]
    betas.append(gains[1, 2] / gains[K - 1, 2])
    scaled = tuple(Block(f"U~{k}", k, k + 1, 0, beta) for k, beta in enumerate(betas, 1))
    scaled += (Block(f"U~{K}", K, K + 1, 1, one),)
    blocks = messages + jamming + scaled
    return BlockTable(K, blocks, messages, scaled, tuple(b for b in blocks if b.top))


@functools.lru_cache(maxsize=None)
def alignment_equations(K: int) -> tuple[tuple[int, Block, Monomial], ...]:
    """The scheme's alignment equations as (receiver l, block, arrival):
    every block but the desired ones arrives at receiver l on
    h_{owner,l} * coefficient, which must carry the base set T_j of its
    target j into the extended set T~_j.  Receiver by receiver, each in
    table order; derived once per K."""
    table, gains = blind_table(K), _gains(K)
    return tuple((l, b, gains[b.owner, l] * b.coefficient)
                 for l in range(1, K + 1) for b in table.blocks if b not in table.desired(l))


def exponent_slots(K: int) -> int:
    """Number of free exponents per set: K(K-1) + 2 (including the constant)."""
    return K * (K - 1) + 2


@functools.lru_cache(maxsize=None)
def _gains(K: int) -> dict[tuple[int, int], Monomial]:
    """The gain h_kl of every (tx k, rx l), built once per K."""
    return {(k, l): Monomial.gen(gain_name(k, l))
            for k in range(1, K + 1) for l in range(1, K + 1)}


@functools.lru_cache(maxsize=None)
def _rows(K: int) -> tuple[tuple[Monomial, ...], ...]:
    """The rows of sets 1..K+1, one per free exponent: the distinct nonzero
    factors of the alignment equations that land in set i, each the
    arrival without its coefficient's numerators (free gains of the target
    set, so beta_k counts as 1/h_den(k)), then c_i."""
    factors: dict[int, dict[Monomial, None]] = {i: {} for i in range(1, K + 2)}
    for l, block, _ in alignment_equations(K):
        denominators = Monomial(tuple(p for p in block.coefficient.exponents if p[1] < 0))
        factor = _gains(K)[block.owner, l] * denominators
        if factor != Monomial.one():
            factors[block.target].setdefault(factor)
    for i, distinct in factors.items():
        if len(distinct) + 1 != exponent_slots(K):
            raise CertificateError(f"set {i} has {len(distinct)} gain rows, "
                                   f"expected {exponent_slots(K) - 1}")
    return tuple((*distinct, Monomial.gen(f"c_{i}")) for i, distinct in factors.items())


@dataclass(frozen=True, eq=False)
class DimensionSet:
    """The monomials rows[0]**e_0 * rows[1]**e_1 * ... for e in {1..top}^s.

    The rows' pivots are found when the set is built, and a row that has
    none is refused: the set's size and lattice would be unproven.
    """

    label: str
    rows: tuple[Monomial, ...]
    top: int
    # each row as a plain name -> exponent dict
    _maps: tuple[dict[str, int], ...] = field(init=False, repr=False)
    # pivot generator -> (its row, its exponent)
    _pivots: dict[str, tuple[int, int]] = field(init=False, repr=False)
    # least and greatest exponent of each generator over the set, as
    # name -> (low, high) and as (name, low, high) with the last row's
    # names first: in a built family that row is the set's own constant
    # c_i, which separates it from every other set of the family at once
    _bounds: dict[str, tuple[int, int]] = field(init=False, repr=False)
    _ranges: tuple[tuple[str, int, int], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        maps = tuple(dict(row.exponents) for row in self.rows)
        weight = Counter(n for row in maps for n in row)
        pivots: dict[str, tuple[int, int]] = {}
        for r, row in enumerate(maps):
            pivot = next(((n, e) for n, e in row.items()
                          if weight[n] == 1 and abs(e) == 1), None)
            if pivot is None:
                raise CertificateError(f"{self.label}: row {r} has no pivot generator")
            pivots[pivot[0]] = (r, pivot[1])
        bounds: dict[str, tuple[int, int]] = {}
        for row in reversed(maps):
            for n, e in row.items():
                low, high = bounds.get(n, (0, 0))
                bounds[n] = (low + min(e, self.top * e), high + max(e, self.top * e))
        object.__setattr__(self, "_maps", maps)
        object.__setattr__(self, "_pivots", pivots)
        object.__setattr__(self, "_bounds", bounds)
        object.__setattr__(self, "_ranges", tuple((n, *b) for n, b in bounds.items()))

    @property
    def size(self) -> int:
        """Number of members, top^s: exact at any size, unlike len()."""
        return _one_copy(self.top ** len(self.rows))


@functools.lru_cache(maxsize=1024)
def _one_copy(n: int) -> int:
    """n itself, as the first int object seen with its value: a caller that
    keeps thousands of reports keeps one copy of each size and span."""
    return n


class _ReadOnlyDict(dict):
    """A dict that refuses mutation, so that one instance can stand for
    every report with the same contents."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a report's mappings are shared and read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


@functools.lru_cache(maxsize=256)
def _shared(items: tuple) -> _ReadOnlyDict:
    """The read-only dict of items, one instance per distinct contents: a
    caller that keeps thousands of reports keeps one copy of each
    cardinality table and span map."""
    return _ReadOnlyDict(items)


def shared_members(a: DimensionSet, shift_a: Monomial,
                   b: DimensionSet, shift_b: Monomial) -> int:
    """How many members shift_a * a and shift_b * b have in common.

    Raises CertificateError for sets of different rows that no generator
    separates: their overlap is not decided here.
    """
    # shift_a / shift_b, zeros kept
    offset = dict(shift_a.exponents)
    for n, e in shift_b.exponents:
        offset[n] = offset.get(n, 0) - e
    if a.rows == b.rows:
        # the lattice coordinates d_r = sign * (offset's exponent of row r's
        # pivot); offset is in the lattice when offset - sum_r d_r * R_r is 0
        d = []
        residual = dict(offset)
        for n, v in offset.items():
            if n in a._pivots:
                r, sign = a._pivots[n]
                d.append(sign * v)
                for g, e in a._maps[r].items():
                    residual[g] = residual.get(g, 0) - sign * v * e
        if any(residual.values()):
            return 0
        # shift_a * rows**e == shift_b * rows**e' exactly when e' = e + d,
        # so row r counts the e_r in 1..a.top with e_r + d_r in 1..b.top
        common = min(a.top, b.top) ** (len(a.rows) - len(d))
        for dr in d:
            common *= max(0, min(a.top, b.top - dr) - max(1, 1 - dr) + 1)
        return common
    # a generator separates the sets when its range over shift_a * a and
    # its range over shift_b * b are disjoint; a set that lacks it holds
    # it at 0
    for n, low, high in a._ranges:
        o = offset.get(n, 0)
        b_low, b_high = b._bounds.get(n, (0, 0))
        if high + o < b_low or b_high < low + o:
            return 0
    for n, low, high in b._ranges:
        if n not in a._bounds and not low <= offset.get(n, 0) <= high:
            return 0
    if any(o for n, o in offset.items() if n not in a._bounds and n not in b._bounds):
        return 0
    raise CertificateError(f"{a.label} and {b.label} have different rows "
                           f"and no separating generator")


def _new_members(image: tuple[DimensionSet, Monomial],
                 earlier: list[tuple[DimensionSet, Monomial]]) -> int:
    """Members of a scaled set that lie in none of the earlier ones."""
    dset, shift = image
    overlaps = [n for n in (shared_members(dset, shift, *other) for other in earlier) if n]
    if len(overlaps) > 1:
        raise CertificateError(f"{dset.label} meets {len(overlaps)} earlier sets, "
                               f"whose common members are not counted here")
    return dset.size - sum(overlaps)


# a set depends only on its label, rows and top: each is built once
_dimension_set = functools.lru_cache(maxsize=256)(DimensionSet)


def _build_family(K: int, m: int, top: int,
                  labels: Mapping[int, str]) -> list[DimensionSet]:
    _check_km(K, m)
    return [_dimension_set(labels[i], rows, top) for i, rows in enumerate(_rows(K), start=1)]


def build_base_dimension_sets(K: int, m: int) -> list[DimensionSet]:
    """The K+1 sets T_1..T_{K+1} with exponents in {1..m}."""
    return _build_family(K, m, m, BASE_LABELS)


def build_extended_dimension_sets(K: int, m: int) -> list[DimensionSet]:
    """The K+1 sets T~_1..T~_{K+1} with exponents in {1..m+1}."""
    return _build_family(K, m, m + 1, EXTENDED_LABELS)


def beta_general(K: int) -> dict[int, Monomial]:
    """beta_k, the coefficient of transmitter k's scaled jamming block U~_k."""
    return {b.owner: b.coefficient for b in blind_table(K).scaled}


def expected_base_cardinality(K: int, m: int) -> int:
    return m ** exponent_slots(K)


def expected_extended_cardinality(K: int, m: int) -> int:
    return (m + 1) ** exponent_slots(K)


def expected_span(K: int, m: int) -> int:
    """Occupied dimensions at one receiver, one set per decoder block:
    (K-1) desired sets + K+1 extended sets."""
    return sum((m + b.top) ** exponent_slots(K) for b in blind_table(K).decoder(1))


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

    table = blind_table(K)
    # name of each scaled block whose beta is overridden -> its new beta
    replaced: dict[str, Monomial] = {}
    if beta_override:
        unknown = [k for k in beta_override if k not in range(1, K + 1)]
        if unknown:
            raise ParameterError(f"beta_override keys must lie in 1..{K}, got {unknown}")
        replaced = {b.name: beta_override[b.owner] for b in table.scaled
                    if b.owner in beta_override}

    cardinalities: dict[str, int] = {}
    checks: list[AlignmentCheck] = []
    s = exponent_slots(K)
    exp_base = expected_base_cardinality(K, m)
    exp_ext = expected_extended_cardinality(K, m)
    exp_span = expected_span(K, m)
    one = Monomial.one()
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
            "pass" if shared_members(b, one, e, one) == b.size else "fail"))

    # the extended sets are common to every receiver's span
    ext_images = [(extended[i], one) for i in range(1, K + 2)]
    ext_union = sum(_new_members(image, ext_images[:n])
                    for n, image in enumerate(ext_images))

    messages = {b.name for b in table.messages}
    equations = alignment_equations(K)
    receiver_span: dict[int, int] = {}
    for l in range(1, K + 1):
        for _, block, arrival in (eq for eq in equations if eq[0] == l):
            if block.name in replaced:
                arrival = _gains(K)[block.owner, l] * replaced[block.name]
            j = block.target
            # an arrival off the lattice (one naming a symbol outside the
            # rows, say) moves every member out
            escaped = base[j].size - shared_members(base[j], arrival, extended[j], one)
            what = "message" if block.name in messages else "jamming"
            checks.append(AlignmentCheck(
                l, f"rx{l}: {arrival}*{base[j].label} within {extended[j].label} "
                   f"({what} {block.name})",
                "fail" if escaped else "pass", f"{escaped} members escape" if escaped else ""))

        # desired sets: pairwise disjoint and clear of every extended set
        own_name = gain_name(l, l)
        own = _gains(K)[l, l]
        slots = [b.target for b in table.desired(l)]
        for a_idx, ja in enumerate(slots):
            for jb in slots[a_idx + 1:]:
                ok = not shared_members(base[ja], own, base[jb], own)
                checks.append(AlignmentCheck(
                    l, f"rx{l}: {own_name}*{base[ja].label} disjoint from "
                       f"{own_name}*{base[jb].label}",
                    "pass" if ok else "fail"))
            for i in range(1, K + 2):
                ok = not shared_members(base[ja], own, extended[i], one)
                checks.append(AlignmentCheck(
                    l, f"rx{l}: {own_name}*{base[ja].label} disjoint from {extended[i].label}",
                    "pass" if ok else "fail"))

        span, seen = ext_union, list(ext_images)
        for j in slots:
            span += _new_members((base[j], own), seen)
            seen.append((base[j], own))
        receiver_span[l] = _one_copy(span)
        checks.append(AlignmentCheck(
            l, f"rx{l}: span size == {exp_span}",
            "pass" if span == exp_span else "fail",
            f"got {span}"))

    return AlignmentReport(
        K=K, m=m,
        set_cardinalities=_shared(tuple(cardinalities.items())),
        receiver_span=_shared(tuple(receiver_span.items())),
        expected_span_size=exp_span,
        checks=checks,
    )
