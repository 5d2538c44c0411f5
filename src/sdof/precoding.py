"""Vector-space alignment schemes for fading channels.

Mixing schemes (helper wiretap, partially informed MAC) evaluate the stream
tables of `pam` slot by slot: every transmitter jams on 1/h_i(t), so all
jamming collapses onto the all-ones column at the receiver while the
eavesdropper's jamming matrix stays full rank; the messages fill the other
receiver dimensions.  Interference scheme, the blocks of
interference_sets.blind_table(K): precoder columns are products of
commuting diagonal generator matrices raised to the exponent rows of the
box {1..n+1}^Gamma, in lexicographic order; each target's generators are
the distinct shifts its blocks' alignment equations need, so multiplying
by one shifts one exponent, which proves column-space containment exactly:
the shifted column sits a fixed stride further along the extended box.
The stacked matrices, their widths and the block length read the table.
Ranks are decided by SVD with a relative threshold, unless merging
parallel columns and one shifted Cholesky of the Gram prove the SVD's
count first.  The numeric alignment check builds one orthonormal basis of
each target's extended matrix, by CholeskyQR passes once the certificate
proves full column rank (by SVD otherwise), and measures the residual of
all the target's instances outside it at once.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .channel import (ChannelRealization, HelperModel, InterferenceModel,
                      MacPartialModel, TAG_ALPHA, TAG_SEED_VECTOR, key_grid,
                      keyed_gains, substream)
from .errors import CapacityError, ModeError, ParameterError
from .interference_sets import Block, alignment_equations, blind_table, gain_name
from .monomial import Monomial
from .pam import StreamTable, helper_streams, partial_csit_streams

DEFAULT_RANK_TOL = 1e-10
DEFAULT_PRECODER_BUDGET = 200_000_000  # total matrix entries
ALPHA_DRAWS = 100  # mixing-coefficient draws before the helper scheme gives up
_MERGE_COS = 1 - 1e-8  # |cosine| above which _certified_rank merges a column


def _equilibrate(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column scalings (r, c) of four alternating 2-norm passes:
    A * r[:, None] * c has rows, then columns, of unit norm after each pass
    (zero rows and columns stay zero).  The squares are formed once, from
    |A| in one buffer after exact power-of-two row, then column, scalings
    (folded into r and c) that bring each row's, then each column's, largest
    magnitude into [0.5, 1); each pass updates only the squared scalings.
    Non-finite entries or scalings are refused."""
    r2, c2 = np.ones(A.shape[0]), np.ones(A.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        S = np.abs(A)
        _, e = np.frexp(S.max(axis=1))
        np.ldexp(S, -e[:, None], out=S)
        _, f = np.frexp(S.max(axis=0))
        np.ldexp(S, -f, out=S)
        S *= S
        for _ in range(4):
            rn = S.dot(c2) * r2
            rn[rn == 0.0] = 1.0
            r2 = r2 / rn
            cn = r2.dot(S) * c2
            cn[cn == 0.0] = 1.0
            c2 = c2 / cn
        r, c = np.ldexp(np.sqrt(r2), -e), np.ldexp(np.sqrt(c2), -f)
    if not (np.isfinite(r).all() and np.isfinite(c).all()):
        raise ParameterError("rank needs finite matrix entries with finite scalings")
    return r, c


def _scaled(A: np.ndarray, r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """A * r[:, None] * c, bit for bit, in one new buffer."""
    B = np.multiply(A, r[:, None])
    B *= c
    return B


def _kept(s: np.ndarray, tol: float, shape: tuple[int, ...]) -> int:
    """Singular values (descending) above tol * sigma_max * max(shape)."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0] * max(shape)))


def _shifted_cholesky_passes(G: np.ndarray, t: float, N: int, tol: float) -> bool:
    """Whether Cholesky succeeds on the Gram G (overwritten) shifted down by
    s = (2 tol N)^2 t + 2 (N + k + 2) u t, k = len(G) (see _certified_rank)."""
    k = len(G)
    G.flat[::k + 1] -= (2 * tol * N) ** 2 * t + 2 * (N + k + 2) * (np.finfo(float).eps / 2) * t
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return False
    return True


def _key_vectors(m: int) -> np.ndarray:
    """The three unit rows of _merges' direction keys over m rows: the Weyl
    sequences frac(i a) - 1/2, i = 1..m, for a = (sqrt 5 - 1) / 2, sqrt 2 - 1
    and sqrt 3 - 1, normalized; fixed by m alone."""
    alphas = np.array([0.6180339887498949, 0.41421356237309515, 0.7320508075688772])
    W = np.modf(np.outer(alphas, np.arange(1, m + 1)))[0] - 0.5
    return W / np.linalg.norm(W, axis=1)[:, None]


def _merges(B: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(j, p): every column j of B whose |cosine| with an earlier column
    exceeds _MERGE_COS, ascending, and the first such column p; d holds the
    column norms, and zero columns merge with nothing.

    No c x c Gram is formed.  Each column gets direction keys
    |w . b_j| / ||b_j||, one per row w of _key_vectors(m).  Unit vectors
    x, y with |x . y| > 1 - e satisfy ||x - s y|| < sqrt(2 e) for a sign s,
    so each of their keys differs by less than sqrt(2 e): only pairs whose
    keys are all that close are candidates, with an allowance of 4 m u in
    e and 8 m u in the keys (u = eps / 2) for the rounding of the cosines
    and of the keys.  The condition is necessary, so every pair the rule
    merges is a candidate.  The candidates are found along the columns
    sorted by the first key, filtered by the others, and each one's cosine
    is taken from its exact dot product.  Only each column's smallest
    partner so far is kept, so memory stays O(c); the time grows with the
    candidates, one per pair in a cluster of mutually parallel columns."""
    m, u = len(B), np.finfo(float).eps / 2
    live = np.flatnonzero(d > 0)
    keys = np.abs(_key_vectors(m) @ B)[:, live] / d[live]
    order = np.argsort(keys[0], kind="stable")
    cols, keys = live[order], keys[:, order]
    window = np.sqrt(2 * (1 - _MERGE_COS + 4 * m * u)) + 8 * m * u
    # reach[a] - 1 columns follow sorted column a within the first key's window
    reach = np.searchsorted(keys[0], keys[0] + window, side="right") - np.arange(len(cols))
    c = len(d)
    first = np.full(c, c)  # each column's first merging partner so far; c for none
    for k in range(1, int(reach.max(initial=1))):  # the pairs k apart in key order
        a = np.flatnonzero(reach > k)
        a = a[(np.abs(keys[1:, a] - keys[1:, a + k]) <= window).all(axis=0)]
        x, y = cols[a], cols[a + k]
        near = np.abs(np.einsum("ij,ij->j", B[:, x], B[:, y])) / (d[x] * d[y]) > _MERGE_COS
        np.minimum.at(first, np.maximum(x, y)[near], np.minimum(x, y)[near])
    j = np.flatnonzero(first < c)
    return j, first[j]


def _certified_rank(B: np.ndarray, tol: float) -> int | None:
    """The rank numeric_rank's SVD would count on the equilibrated B, when
    one merge of parallel columns and one shifted Cholesky prove it; None
    when they cannot, and the SVD decides.

    Zero rows change no singular value and are dropped first (a zero B has
    rank 0).  Let B then be m x c, N = max(B.shape) as passed in (the SVD's
    threshold counts the zero rows), G = B^T B, t = ||B||_F^2,
    u = eps / 2 and tau = tol N sigma_max(B) the SVD's threshold.

    Nothing merged.  When c <= m, the Cholesky of the lower bound below is
    tried on all of G first; if it succeeds, the rank is c.  Only when it
    fails are merges looked for.

    Merge.  Each column whose |cosine| with an earlier column exceeds
    _MERGE_COS is merged into the first such column p, which must be kept
    itself; zero columns are dropped.  The kept set S has r columns.  The
    merge only chooses S; the two bounds below decide.  _merges finds the
    merged columns from direction keys and exact dot products, without G.

    Upper bound.  Replacing each merged b_j by alpha_j b_p, alpha_j =
    (b_p . b_j) / ||b_p||^2, leaves a matrix of rank at most r, so
    sigma_{r+1}(B) <= ||E||_F, E the columns b_j - alpha_j b_p
    (Eckart-Young and Weyl; any alpha_j would do).  Forming E errs by about
    2u (||b_j|| + |alpha_j| ||b_p||) per column, allowed for as 4u times the
    column norms, and its norm by a factor 1 + size(E) u; with those
    allowances the bound must lie below
    tol N sqrt(t / min(m, c)) / 2 <= tau / 2, because
    sigma_max^2 >= ||B||_F^2 / rank(B).

    Lower bound.  Cholesky is tried on G_S - s I, G_S = B_S^T B_S the Gram
    of the kept columns alone, with s = (2 tol N)^2 t + 2 (N + r + 2) u t.
    If it succeeds, G_S - (s - delta) I is positive definite with
    delta ~ (r + 1) u t (Rump, "Verification of positive definiteness",
    BIT 46, 2006; B's unit-norm columns make its underflow term
    negligible), and forming G_S added an error of at most
    gamma_N t ~ N u t, so sigma_min(B_S) > 2 tol N ||B||_F >= 2 tau.
    Deleting columns raises no singular value (interlacing), so
    sigma_r(B) >= sigma_min(B_S) > 2 tau.

    A backward-stable SVD moves singular values by a small multiple of
    u sigma_max, far below tau / 2 for tol >> u, so it would keep exactly
    r: the rank is r.  With nothing merged this proves full column rank.
    When r > m (a wide B) the rank is at most m, and the same Cholesky of
    the row Gram B B^T proves full row rank m.
    """
    N, u = max(B.shape), np.finfo(float).eps / 2
    nonzero = B.any(axis=1)
    if not nonzero.any():
        return 0
    if not nonzero.all():
        B = B[nonzero]
    m, c = B.shape
    d2 = np.einsum("ij,ij->j", B, B)
    t = d2.sum()
    if c <= m and _shifted_cholesky_passes(B.T @ B, t, N, tol):
        return c
    d = np.sqrt(d2)
    j, p = _merges(B, d)
    kept = d > 0
    kept[j] = False
    r = int(np.count_nonzero(kept))
    if r > m:
        return m if _shifted_cholesky_passes(B @ B.T, t, N, tol) else None
    if r == c or not kept[p].all():  # r == c <= m: its Cholesky failed above
        return None
    alpha = np.einsum("ij,ij->j", B[:, p], B[:, j]) / d2[p]
    E = B[:, j] - alpha * B[:, p]
    bound = (np.linalg.norm(E) * (1 + E.size * u)
             + 4 * u * np.sum(d[j] + np.abs(alpha) * d[p]))
    del E
    if not bound < tol * N * np.sqrt(t / min(m, c)) / 2:
        return None
    S = B[:, kept]
    G = S.T @ S
    del S  # before the Cholesky, which copies G
    return r if _shifted_cholesky_passes(G, t, N, tol) else None


def numeric_rank(A: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> int:
    """Rank by singular values above tol * sigma_max * max(shape), 0 < tol < 1.

    The matrix is first equilibrated by four alternating row and column
    2-norm scalings.  Scaling rows or columns by nonzero constants is
    multiplication by invertible diagonals, so the true rank is untouched,
    but it stops the product-built precoder matrices (whose entries spread
    over many orders of magnitude per slot) from hiding directions below the
    threshold.  Entries that are not finite, and a tol outside (0, 1), raise
    ParameterError.

    The singular-value count is the definition; _certified_rank proves it
    without an SVD where it can (one merge of parallel columns and one
    shifted Cholesky bound sigma_{r+1} below half the threshold and sigma_r
    above twice it), and the SVD counts wherever that proof fails.
    """
    if not 0 < tol < 1:
        raise ParameterError("rank tol must be in (0, 1)")
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ParameterError("rank needs a 2-D matrix")
    if A.size == 0:
        return 0
    B = _scaled(A, *_equilibrate(A))
    rank = _certified_rank(B, tol)
    if rank is None:
        rank = _kept(np.linalg.svd(B, compute_uv=False), tol, A.shape)
    return rank


# ---------------------------------------------------------------------------
# jamming-aligned mixing schemes: helper wiretap and partially informed MAC
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MixingScheme:
    """Stacked per-slot coefficients of a jamming-aligned vector scheme: a
    `pam` stream table's arrivals, evaluated slot by slot.

    Every transmitter jams on 1/h_i(t), so all jamming lands on the all-ones
    column at the receiver (A_U is all ones) and on g_i(t)/h_i(t) at the
    eavesdropper (B_U).  A_V / B_V carry the message streams, one column
    each, at the receiver and the eavesdropper.  Rows are slots.  Equality
    and hashing are by identity, so a scheme can key a weak memo.
    """

    realization: ChannelRealization
    message_streams: tuple[str, ...]
    A_V: np.ndarray
    A_U: np.ndarray
    B_V: np.ndarray
    B_U: np.ndarray

    def __post_init__(self) -> None:
        # stored read-only in C order: a product such as A_V @ v rounds
        # according to memory layout, so every builder must store the same one
        for name in ("A_V", "A_U", "B_V", "B_U"):
            arr = np.ascontiguousarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def slots(self) -> int:
        return self.A_V.shape[0]

    def receiver_system(self) -> np.ndarray:
        """Square system mapping (messages, jamming sum) to observations."""
        return np.hstack([self.A_V, np.ones((self.slots, 1))])


@functools.lru_cache(maxsize=None)
def _stream_arrivals(streams: Callable[..., StreamTable], *args: int
                     ) -> tuple[StreamTable, tuple[Monomial, ...], list[list[int]]]:
    """The stream table streams(*args), its distinct arrival coefficients
    and, for the message and the jamming streams at receiver 1 and then at
    the eavesdropper, the position of each stream's coefficient among them;
    derived once per table, and only read."""
    table = streams(*args)
    coeffs: dict[Monomial, int] = {}
    blocks = []
    for gain in ("h", "g"):
        arrivals = table.arrivals(gain)
        for group in (table.message_streams, table.jamming_streams):
            blocks.append([coeffs.setdefault(arrivals[s], len(coeffs)) for s in group])
    return table, tuple(coeffs), blocks


def _ratio(coeff: Monomial, gains: Mapping[str, np.ndarray],
           out: np.ndarray | None = None) -> np.ndarray:
    """In each slot, the product of coeff's power +1 gains over the product
    of its power -1 gains (the only powers a table holds), each product in
    name order."""
    parts = {1: 1.0, -1: 1.0}
    for name, e in coeff.exponents:
        parts[e] = parts[e] * gains[name]
    return np.divide(parts[1], parts[-1], out=out)


def _mixing_scheme(realization: ChannelRealization, streams: Callable[..., StreamTable],
                   args: tuple[int, ...], slots: int,
                   constants: Mapping[str, np.ndarray]) -> MixingScheme:
    """The arrival coefficients of the table streams(*args) in the first
    `slots` slots, from h_i(t) toward receiver 1, g_i(t) and the given
    per-slot constants, each by _ratio.  Each distinct coefficient is
    evaluated once."""
    table, coeffs, blocks = _stream_arrivals(streams, *args)
    gains = table.gains(lambda i: realization.legit_series(i, 1)[:slots],
                        lambda i: realization.eve_series(i)[:slots], constants)
    columns = np.empty((len(coeffs), slots))
    for out, coeff in zip(columns, coeffs):
        _ratio(coeff, gains, out=out)
    A_V, A_U, B_V, B_U = (columns[index].T for index in blocks)
    return MixingScheme(realization=realization, message_streams=table.message_streams,
                        A_V=A_V, A_U=A_U, B_V=B_V, B_U=B_U)


def build_helper_fading(M: int, realization: ChannelRealization) -> MixingScheme:
    """(M+1)-slot helper scheme (pam.helper_streams) with alpha_k(t) drawn
    per slot; the alphas are re-drawn until the receiver system is
    numerically full rank."""
    if not isinstance(realization.model, HelperModel) or realization.model.M != M:
        raise ModeError(f"realization is not a helper({M}) model")
    if realization.fixed:
        raise ModeError("the vector scheme needs fading gains")
    if realization.slots < M + 1:
        raise ModeError(f"need at least {M + 1} slots, got {realization.slots}")

    slots = M + 1
    h1 = realization.legit_series(1, 1)[:slots]
    for attempt in range(1, ALPHA_DRAWS + 1):
        alphas = keyed_gains(realization.distribution, (realization.seed, TAG_ALPHA, attempt),
                             key_grid(range(2, M + 2), range(1, slots + 1))).reshape(M, slots)
        # rows: the aggregate-jamming row (all ones), then one row per message
        if numeric_rank(np.vstack([np.ones(slots), alphas * h1])) == M + 1:
            break
    else:
        raise RuntimeError(f"no full-rank mixing matrix after {ALPHA_DRAWS} draws")
    return _mixing_scheme(realization, helper_streams, (M,), slots,
                          {f"alpha_{k}": row for k, row in enumerate(alphas, 2)})


def build_partial_csit_fading(K: int, m_informed: int,
                              realization: ChannelRealization) -> MixingScheme:
    """m(K-1)+1-slot partially informed MAC scheme (pam.partial_csit_streams):
    at the eavesdropper the column of V_ij equals the column of U_j exactly."""
    model = realization.model
    if not isinstance(model, MacPartialModel) or (model.K, model.m_informed) != (K, m_informed):
        raise ModeError(f"realization is not a mac_partial({K}, {m_informed}) model")
    if realization.fixed:
        raise ModeError("the vector scheme needs fading gains")
    if m_informed * (K - 1) == 0:
        raise ParameterError(f"mac_partial({K}, {m_informed}) has no message streams")
    slots = m_informed * (K - 1) + 1
    if realization.slots < slots:
        raise ModeError(f"need at least {slots} slots, got {realization.slots}")
    return _mixing_scheme(realization, partial_csit_streams, (K, m_informed), slots, {})


def zero_force_decode(observations: Sequence[float],
                      scheme: MixingScheme) -> tuple[np.ndarray, float]:
    """Invert the receiver system; returns (message estimates, jamming-sum estimate)."""
    y = np.asarray(observations, dtype=float)
    if y.shape != (scheme.slots,):
        raise ParameterError(f"need {scheme.slots} observations, got shape {y.shape}")
    x = np.linalg.solve(scheme.receiver_system(), y)
    return x[:-1], float(x[-1])


# the benchmark workloads decode the partially informed MAC under this name
partial_csit_decode = zero_force_decode


# ---------------------------------------------------------------------------
# interference channel, fading gains: asymptotic precoders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagonalChannelMatrix:
    """A diagonal matrix of per-slot gains, with its exact symbolic identity."""

    entries: np.ndarray
    symbol: Monomial

    def __post_init__(self) -> None:
        self.entries.setflags(write=False)


def interference_gamma(K: int) -> int:
    return (K - 1) ** 2


def interference_slots(K: int, n: int) -> int:
    """Block length M_n = (K-1) n^Gamma + (K+1) (n+1)^Gamma, a decoder's width."""
    return desired_columns(K, n) + aligned_jamming_columns(K, n)


def _block_columns(K: int, n: int, blocks: Sequence[Block]) -> int:
    """(n + top)^Gamma columns per block."""
    return sum((n + b.top) ** interference_gamma(K) for b in blocks)


def desired_columns(K: int, n: int) -> int:
    """(K-1) n^Gamma: the columns of a decoder's desired blocks, the
    dimensions each receiver decodes."""
    return _block_columns(K, n, blind_table(K).desired(1))


def aligned_jamming_columns(K: int, n: int) -> int:
    """(K+1) (n+1)^Gamma: the columns of a decoder's aligned jamming, the
    bound on every receiver's interference rank."""
    return _block_columns(K, n, blind_table(K).aligned)


def _link_series(realization: ChannelRealization, K: int) -> dict[str, np.ndarray]:
    """The per-slot gains of every legitimate link, by gain name."""
    return {gain_name(j, k): realization.legit_series(j, k)
            for j in range(1, K + 1) for k in range(1, K + 1)}


def _diag(series: Mapping[str, np.ndarray], factors: Sequence[tuple[str, int]]
          ) -> DiagonalChannelMatrix:
    """The product of series[name] ** e over the factors, in their order."""
    entries = 1.0
    for name, e in factors:
        entries = entries * series[name] ** e
    return DiagonalChannelMatrix(entries=entries, symbol=Monomial(tuple(factors)))


@functools.lru_cache(maxsize=None)
def _instances(K: int) -> tuple[tuple[int, Block, tuple[tuple[str, int], ...], Monomial], ...]:
    """interference_sets.alignment_equations(K) in receiver form, as
    (receiver l, block, factors, shift): at receiver l the block's arrival
    is the shift times h_{o,l}, the arrival of its target's aligned block
    (owner o), whose extended precoder must span it.  Aligned blocks align
    trivially and are dropped.  The factors are the shift's gains in
    _diag's per-slot product order: h_{o,l}^-1, h_{owner,l}, then the
    coefficient's power -1 and power +1 gains.  Block by block in table
    order, then by receiver; derived once per K."""
    table = blind_table(K)
    owner = {b.target: b.owner for b in table.aligned}
    rows = []
    for l, b, _ in alignment_equations(K):
        if not b.top:
            factors = ((gain_name(owner[b.target], l), -1), (gain_name(b.owner, l), 1),
                       *sorted(b.coefficient.exponents, key=lambda p: p[1]))
            rows.append((l, b, factors, Monomial(factors)))
    return tuple(sorted(rows, key=lambda row: (table.blocks.index(row[1]), row[0])))


# K = 3 keeps the column order of its original generator table, which fixes
# its precoders' float bits: position i holds derived generator ORDER[t][i]
_THREE_USER_ORDER = {1: (0, 2, 3, 1), 2: (0, 2, 1, 3), 3: (2, 0, 3, 1), 4: (2, 0, 3, 1)}


@functools.lru_cache(maxsize=None)
def _generator_factors(K: int, target: int) -> tuple[tuple[tuple[str, int], ...], ...]:
    """The distinct shifts the target's instances need, in the order
    _instances meets them; (K-1)^2 of them."""
    by_symbol: dict[Monomial, tuple[tuple[str, int], ...]] = {}
    for _, b, factors, shift in _instances(K):
        if b.target == target:
            by_symbol.setdefault(shift, factors)
    lists = tuple(by_symbol.values())
    if len(lists) != interference_gamma(K):
        raise RuntimeError(f"target {target}: {len(lists)} generators, "
                           f"expected {interference_gamma(K)}")
    return tuple(lists[i] for i in _THREE_USER_ORDER[target]) if K == 3 else lists


def build_cj_generators(K: int, realization: ChannelRealization
                        ) -> dict[int, tuple[DiagonalChannelMatrix, ...]]:
    """Per-target commuting diagonal generators of the cooperative-jamming
    alignment; (K-1)^2 distinct generators per target 1..K+1."""
    if not isinstance(realization.model, InterferenceModel) or realization.model.K != K:
        raise ModeError(f"realization is not an interference({K}) model")
    series = _link_series(realization, K)
    return {target: tuple(_diag(series, factors) for factors in _generator_factors(K, target))
            for target in range(1, K + 2)}


@dataclass(frozen=True)
class PrecoderTarget:
    """Precoders of one alignment target: column c is the target's random
    seed vector times the product of the generators raised to exponent row
    c, the rows of each box in lexicographic order (the first exponent
    varying slowest)."""

    generators: tuple[DiagonalChannelMatrix, ...]
    base: np.ndarray      # columns over exponents {1..n}^Gamma
    extended: np.ndarray  # columns over exponents {1..n+1}^Gamma

    def __post_init__(self) -> None:
        self.base.setflags(write=False)
        self.extended.setflags(write=False)


@dataclass(frozen=True, eq=False)
class PrecoderSet:
    """All precoding matrices of the fading interference scheme.

    Each target j has a base and an extended precoder; qtilde[k] holds the
    columns of the scaled jamming block U~_k, beta_k per slot times its
    target's precoder (that precoder itself where beta_k = 1).  A block of
    interference_sets.blind_table(K) reads its columns through columns().

    Every matrix is read-only, so what is computed from a set stays valid as
    long as the set lives; equality and hashing are by identity, so a set
    can key a weak memo.
    """

    K: int
    n: int
    realization: ChannelRealization
    targets: Mapping[int, PrecoderTarget]
    qtilde: Mapping[int, np.ndarray]

    def __post_init__(self) -> None:
        for block in self.qtilde.values():
            block.setflags(write=False)

    @property
    def gamma(self) -> int:
        return interference_gamma(self.K)

    @property
    def block_length(self) -> int:
        return interference_slots(self.K, self.n)

    def columns(self, block: Block) -> np.ndarray:
        """The precoder a block of the scheme's table sends: qtilde[owner]
        for a scaled block, else its target's base or extended precoder."""
        if block in blind_table(self.K).scaled:
            return self.qtilde[block.owner]
        target = self.targets[block.target]
        return target.extended if block.top else target.base


def _power_tables(generators: Sequence[DiagonalChannelMatrix], top: int,
                  slots: int) -> list[np.ndarray]:
    """Each generator's powers 1..top, row e - 1 holding power e."""
    tables = []
    for g in generators:
        t = np.empty((top, slots))
        t[0] = g.entries
        for e in range(1, top):
            t[e] = t[e - 1] * g.entries
        tables.append(t)
    return tables


def _columns(w: np.ndarray, tables: list[np.ndarray]) -> np.ndarray:
    """w times tables[0][e_0] times tables[1][e_1] ..., in that order, for
    every exponent row e of the box, the first exponent varying slowest;
    one column per row, built by one outer product per table (in C order:
    later products round according to memory layout)."""
    cols = w[:, None]
    for table in tables:
        cols = np.multiply(cols[:, :, None], table.T[:, None, :], order="C").reshape(len(w), -1)
    return cols


def _base_index(n: int, gamma: int) -> np.ndarray:
    """Extended column of each base exponent row: {1..n}^Gamma inside
    {1..n+1}^Gamma, both in lexicographic order.  A shift by one at
    generator position p adds (n+1)^(Gamma-1-p)."""
    return np.ravel_multi_index(np.indices((n,) * gamma), (n + 1,) * gamma).ravel()


def check_precoder_budget(K: int, n: int) -> None:
    """Refuse a scheme whose precoders exceed DEFAULT_PRECODER_BUDGET matrix
    entries; it needs no channel, so callers check before sampling one."""
    gamma = interference_gamma(K)
    targets = len(blind_table(K).aligned)  # one aligned block per target
    entries_needed = targets * interference_slots(K, n) * ((n + 1) ** gamma + n ** gamma)
    if entries_needed > DEFAULT_PRECODER_BUDGET:
        raise CapacityError(f"precoders need {entries_needed} matrix entries, "
                            f"over budget {DEFAULT_PRECODER_BUDGET}")


def build_asymptotic_precoders(K: int, n: int, realization: ChannelRealization
                               ) -> PrecoderSet:
    """Precoder matrices over exponent rows, columns in lexicographic order;
    the seed vectors are keyed by the realization's seed."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    gamma = interference_gamma(K)
    m_n = interference_slots(K, n)
    if realization.slots != m_n:
        raise ModeError(
            f"realization must have exactly M_n = {m_n} slots, got {realization.slots}")
    check_precoder_budget(K, n)

    generators = build_cj_generators(K, realization)
    # a column's products depend only on its exponent row, so the base
    # columns are copies of extended ones (take: C order, unlike [:, idx])
    base_index = _base_index(n, gamma)

    seed_vectors = keyed_gains(realization.distribution, (realization.seed, TAG_SEED_VECTOR),
                               key_grid(range(1, K + 2), range(1, m_n + 1))).reshape(K + 1, m_n)
    targets: dict[int, PrecoderTarget] = {}
    for idx, w in enumerate(seed_vectors, 1):
        extended = _columns(w, _power_tables(generators[idx], n + 1, m_n))
        targets[idx] = PrecoderTarget(generators=generators[idx],
                                      base=extended.take(base_index, axis=1),
                                      extended=extended)

    # scaled jamming blocks: the coefficient times the target's precoder
    series = _link_series(realization, K)
    qtilde: dict[int, np.ndarray] = {}
    for b in blind_table(K).scaled:
        target = targets[b.target]
        block = target.extended if b.top else target.base
        qtilde[b.owner] = (block if b.coefficient == Monomial.one()
                           else _ratio(b.coefficient, series)[:, None] * block)

    return PrecoderSet(K=K, n=n, realization=realization, targets=targets,
                       qtilde=qtilde)


def mutate_qtilde(pre: PrecoderSet, k: int, seed: int = 0) -> PrecoderSet:
    """Replace one derived jamming precoder with a fresh random matrix."""
    rng = substream(seed, TAG_SEED_VECTOR, 99, k)
    broken = dict(pre.qtilde)
    broken[k] = rng.uniform(0.5, 2.0, pre.qtilde[k].shape)
    return replace(pre, qtilde=broken)


# ---------------------------------------------------------------------------
# alignment-equation verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FadingEquation:
    """One alignment equation: the target's generator that maps every
    instance's left-hand block into the target's extended matrix, and
    whether all its instances pass each check."""

    target: int
    generator: str
    exact_ok: bool
    numeric_ok: bool


@dataclass(frozen=True)
class FadingAlignmentReport:
    equations: list[FadingEquation]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def failures(self) -> list[FadingEquation]:
        return [e for e in self.equations if not (e.exact_ok and e.numeric_ok)]


def _span_basis(extended: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(r, Q): the row scaling of the equilibrated extended matrix B and an
    orthonormal basis Q of the span numeric_rank measures.

    When _certified_rank proves that B has full column rank, Q is B
    orthonormalized by CholeskyQR passes, Q <- Q L^-T with
    L = cholesky(Q^T Q), at most two of them (CholeskyQR2: Fukaya,
    Nakatsukasa, Yanagisawa and Yamamoto, ScalA 2014; Yamamoto et al.,
    ETNA 44, 2015).  Within its reach, condition numbers well below u^-1/2
    (u = eps / 2), Q R = B + dB with ||dB|| = O(u) ||B||, the backward
    error of the SVD's basis; past it the Cholesky breaks down or Q loses
    orthogonality.  So Q is accepted only when
    eta = ||Q^T Q - I||_F < tol * max(B.shape) / 100, a hundredth of the
    relative residual cut of verify_alignment_equations, and the passes
    stop at the first Q that meets it; the Q^T Q of that test is the next
    pass's Gram.  That bound suffices: with S the span of Q,
    Q_S = Q (Q^T Q)^-1/2 and F = Q^T Q - I,
    ||z - Q Q^T z||^2 = dist(z, S)^2 + ||F Q_S^T z||^2, so the measured
    residual exceeds the distance by at most eta ||z||, and a verdict can
    differ from that of an exactly orthonormal basis only for a distance
    within 1 % below the cut.  Otherwise, and when the rank is not
    certified full, the thin SVD gives the left singular vectors whose
    singular values numeric_rank keeps.
    """
    r, c = _equilibrate(extended)
    B = _scaled(extended, r, c)
    cols = B.shape[1]
    if _certified_rank(B, tol) == cols:
        Q, G = B, B.T @ B
        try:
            for _ in range(2):
                Q = Q @ np.linalg.inv(np.linalg.cholesky(G)).T
                G = Q.T @ Q
                if np.linalg.norm(G - np.eye(cols)) < tol * max(B.shape) / 100:
                    return r, Q
        except np.linalg.LinAlgError:
            pass
    U, s, _ = np.linalg.svd(B, full_matrices=False)
    return r, U[:, :_kept(s, tol, B.shape)]


def verify_alignment_equations(pre: PrecoderSet,
                               tol: float = DEFAULT_RANK_TOL) -> FadingAlignmentReport:
    """Check every alignment equation two independent ways.

    Exact: each left-hand column must reappear verbatim (up to float
    round-off of reordered products) among the right-hand columns at the
    exponent-shifted index.  Numeric: lhs must lie in the span of
    rhs = diag(h) E, E the target's extended matrix.  The diagonals diag(h)
    and the equilibration's diag(r) are invertible, so that holds iff
    r * lhs / h lies in the span of the equilibrated E; each column of it
    must leave at most tol * max(E.shape) of its norm outside the
    orthonormal basis _span_basis gives (CholeskyQR under the full-rank
    certificate, else the kept left singular vectors).  That is
    rank([lhs rhs]) == rank(rhs) with one basis per target instead of one
    rank per instance.  Every instance of a target is written side by side
    into one lhs and one rhs, so each target takes one exact comparison and
    one projection; an instance passes when all its columns do.
    Failures are report content, not exceptions; a tol outside (0, 1)
    raises ParameterError.
    """
    if not 0 < tol < 1:
        raise ParameterError("rank tol must be in (0, 1)")
    realization = pre.realization
    K, n, gamma = pre.K, pre.n, pre.gamma
    base_index = _base_index(n, gamma)
    owner = {b.target: b.owner for b in blind_table(K).aligned}
    verdicts: dict[tuple[int, str], tuple[bool, bool]] = {}
    for idx, target in pre.targets.items():
        instances = [(l, b, gen) for l, b, _, gen in _instances(K) if b.target == idx]
        starts = np.cumsum([0] + [pre.columns(b).shape[1] for _, b, _ in instances])
        lhs = np.empty((pre.block_length, starts[-1]))
        rhs = np.empty_like(lhs)
        h = [realization.legit_series(owner[idx], l)[:, None] for l, _, _ in instances]
        symbols = [g.symbol for g in target.generators]
        for (l, b, gen), hl, a, e in zip(instances, h, starts, starts[1:]):
            np.multiply(realization.legit_series(b.owner, l)[:, None], pre.columns(b),
                        out=lhs[:, a:e])
            # the generators are derived from these instances, so gen is one
            shifted = base_index + (n + 1) ** (gamma - 1 - symbols.index(gen))
            np.multiply(hl, target.extended[:, shifted], out=rhs[:, a:e])
        exact = np.isclose(lhs, rhs, rtol=1e-9, atol=0.0).all(axis=0)
        del rhs

        r, U = _span_basis(target.extended, tol)
        z = np.multiply(r[:, None], lhs, out=lhs)
        for hl, a, e in zip(h, starts, starts[1:]):
            z[:, a:e] /= hl
        outside = np.linalg.norm(z - U @ (U.T @ z), axis=0)
        numeric = outside <= tol * max(target.extended.shape) * np.linalg.norm(z, axis=0)

        for (_, _, gen), a, e in zip(instances, starts, starts[1:]):
            key = (idx, str(gen))
            was_exact, was_numeric = verdicts.get(key, (True, True))
            verdicts[key] = (was_exact and bool(exact[a:e].all()),
                             was_numeric and bool(numeric[a:e].all()))

    return FadingAlignmentReport([FadingEquation(t, g, exact, numeric)
                                  for (t, g), (exact, numeric) in sorted(verdicts.items())])


# ---------------------------------------------------------------------------
# stacked receiver / eavesdropper matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchemeMatrices:
    """Stacked mixing matrices of the interference scheme over M_n slots,
    for the receivers and the parts that assemble_receiver_and_eve_matrices
    was asked for (by default every receiver's, decoders included, and the
    eavesdropper's).

    interference[l] and eve_jamming are views: the column suffixes of
    receive_mixing[l] after the desired blocks and of eve_mixing after the
    message blocks.  decoders[l] is a second copy of receive_mixing[l]'s
    desired and aligned-jamming blocks.  Every array is read-only.

    Every array of one call lies in one buffer, so holding any one of them
    keeps the whole call's buffer alive: 8.2 MB for the full assembly at
    K=3, n=2, 2.3 MB for one receiver's mixing and decoder there.
    """

    K: int
    n: int
    block_length: int
    decoders: Mapping[int, np.ndarray]       # Lambda_l: [desired | aligned jamming]
    interference: Mapping[int, np.ndarray]   # all unintended blocks at receiver l
    eve_jamming: np.ndarray                  # I_E: all jamming blocks at the eavesdropper
    receive_mixing: Mapping[int, np.ndarray]  # every block arriving at receiver l
    eve_mixing: np.ndarray                   # every block arriving at the eavesdropper
    desired_columns: int
    aligned_jamming_columns: int


def _stacked(pre: PrecoderSet, blocks: Sequence[Block],
             series: Callable[[int], np.ndarray], out: np.ndarray) -> None:
    """Write np.hstack of each block's precoder times its owner's per-slot
    gains series(owner) into out, bit for bit, each product straight into
    its columns; out is then read-only."""
    j = 0
    for b in blocks:
        p = pre.columns(b)
        np.multiply(series(b.owner)[:, None], p, out=out[:, j:j + p.shape[1]])
        j += p.shape[1]
    out.setflags(write=False)


def assemble_receiver_and_eve_matrices(pre: PrecoderSet,
                                       receivers: Sequence[int] | None = None, *,
                                       eve: bool = True, decoders: bool = True
                                       ) -> SchemeMatrices:
    """The stacked matrices of the given receivers (by default 1..K), their
    decoders unless decoders is False, and the eavesdropper's unless eve is
    False, when eve_mixing and eve_jamming have no columns.  A consumer that
    reads one receiver at a time calls this once per receiver, receivers=(l,)
    with eve=False, and once with receivers=() for the eavesdropper: it then
    holds one receiver's matrices, not all of them.

    Every matrix of the call is a C-contiguous view into one buffer, each
    starting at a multiple of 8 elements; the widths come from the block
    table before anything is allocated.  One allocation per call, instead
    of one per matrix, lets glibc's dynamic mmap and trim thresholds rise
    past the rank certificates' temporaries, so those stay in the heap
    instead of being returned to the kernel and faulted back in after every
    certificate."""
    K, table = pre.K, blind_table(pre.K)
    # (part, receiver) -> (blocks, their gains); part is decoder, mixing or eve
    stacks: dict[tuple[str, int], tuple[tuple[Block, ...], Callable[[int], np.ndarray]]] = {}
    for l in range(1, K + 1) if receivers is None else receivers:
        gains = functools.partial(pre.realization.legit_series, rx=l)
        desired = table.desired(l)
        if decoders:
            stacks["decoder", l] = table.decoder(l), gains
        # the desired blocks first: the interference is the column suffix
        stacks["mixing", l] = desired + tuple(b for b in table.blocks if b not in desired), gains
    # the messages first: the jamming I_E is the column suffix
    stacks["eve", 0] = table.blocks if eve else (), pre.realization.eve_series

    rows = pre.block_length
    widths = [_block_columns(K, pre.n, blocks) for blocks, _ in stacks.values()]
    spans = [-(-rows * w // 8) * 8 for w in widths]   # each rounded up to 8 elements
    buffer = np.empty(sum(spans))
    views: dict[tuple[str, int], np.ndarray] = {}
    starts = itertools.accumulate(spans, initial=0)
    for (key, (blocks, series)), width, start in zip(stacks.items(), widths, starts):
        views[key] = buffer[start:start + rows * width].reshape(rows, width)
        _stacked(pre, blocks, series, views[key])
    buffer.setflags(write=False)

    receive_mixing = {l: v for (part, l), v in views.items() if part == "mixing"}
    eve_mixing = views["eve", 0]
    width = _block_columns(K, pre.n, table.messages) if eve else 0
    return SchemeMatrices(
        K=K, n=pre.n, block_length=pre.block_length,
        decoders={l: v for (part, l), v in views.items() if part == "decoder"},
        interference={l: m[:, desired_columns(K, pre.n):] for l, m in receive_mixing.items()},
        eve_jamming=eve_mixing[:, width:],
        receive_mixing=receive_mixing,
        eve_mixing=eve_mixing,
        desired_columns=desired_columns(K, pre.n),
        aligned_jamming_columns=aligned_jamming_columns(K, pre.n),
    )
